//! The driver-facing trait implemented by every (re)allocator in the
//! workspace — the paper's algorithms and all baselines.

use crate::{Extent, ObjectId, Outcome};

/// Errors surfaced at the request API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReallocError {
    /// An insert reused an id that is still active.
    DuplicateId(ObjectId),
    /// A delete (or lookup) named an id that is not active.
    UnknownId(ObjectId),
    /// Objects must have positive integral length.
    ZeroSize,
    /// A cross-shard transfer's payload failed byte verification on
    /// arrival (checksum mismatch or truncation), so the receiving shard
    /// refused to adopt the object. Raised by a substrate-backed serving
    /// layer, never by a reallocator itself.
    CorruptTransfer(ObjectId),
}

impl std::fmt::Display for ReallocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReallocError::DuplicateId(id) => write!(f, "{id} is already active"),
            ReallocError::UnknownId(id) => write!(f, "{id} is not active"),
            ReallocError::ZeroSize => write!(f, "objects must have positive length"),
            ReallocError::CorruptTransfer(id) => {
                write!(f, "{id} arrived damaged and was refused")
            }
        }
    }
}

impl std::error::Error for ReallocError {}

/// An online storage (re)allocator: serves `INSERTOBJECT` / `DELETEOBJECT`
/// requests, after each of which every active object has a placement.
///
/// Implementors range from the paper's cost-oblivious reallocators (which
/// move objects) to classical memory allocators (which never do). Drivers
/// treat them uniformly: feed requests, replay the returned [`Outcome`] ops
/// against a substrate, and account costs in a ledger.
///
/// # Live and active
///
/// An object is **live** once its insert succeeded and until a delete of
/// it is requested: [`is_live`](Self::is_live) and
/// [`live_extents`](Self::live_extents) follow the request history. It is
/// **active** for as long as it holds a placement — the paper's term.
/// The two differ only in the §3.3 deamortized structure, where a delete
/// logged mid-flush leaves the object active (still placed, still
/// occupying space) until the drain frees it. [`extent_of`](Self::extent_of),
/// [`live_count`](Self::live_count) and [`live_volume`](Self::live_volume)
/// count such pending deletes; the liveness queries do not.
///
/// The trait itself carries no `Send` bound (single-threaded drivers should
/// not pay for one), but every implementor in this workspace is `Send` —
/// plain owned data, no interior pointers — so the sharded serving layer
/// can move `Box<dyn Reallocator + Send>` (see [`BoxedReallocator`]) onto
/// worker threads. Keep new implementors `Send`; the algorithm crates
/// enforce this with compile-time assertions.
pub trait Reallocator {
    /// Serve `〈INSERTOBJECT, id, size〉`.
    ///
    /// Supported range: the live volume (this insert included) stays at
    /// or below `2^60` cells. Volume and address sums are plain `u64`
    /// arithmetic, which the `(1+ε)` slack and flush staging keep clear of
    /// overflow only below that cap; `Workload::validate` refuses a request
    /// sequence that passes it.
    fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError>;

    /// Serve `〈DELETEOBJECT, id〉`.
    fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError>;

    /// Current placement of an active object.
    fn extent_of(&self, id: ObjectId) -> Option<Extent>;

    /// Whether `id` is live: inserted, with no delete requested since.
    /// The default suits every structure that serves deletes at once;
    /// one that defers them must exclude its pending deletes.
    fn is_live(&self, id: ObjectId) -> bool {
        self.extent_of(id).is_some()
    }

    /// The placement of every live object, in any order. Pending deletes
    /// are not listed (see [`is_live`](Self::is_live)).
    fn live_extents(&self) -> Vec<(ObjectId, Extent)>;

    /// Total volume `V` of active objects. Objects whose delete has been
    /// requested but not yet completed (deamortized structure) still count,
    /// matching the paper's definition of *active*.
    fn live_volume(&self) -> u64;

    /// Space consumed by the structure: the end of its last segment,
    /// including reserved-but-empty buffer space. This is the quantity the
    /// space lemmas bound by `(1 + O(ε')) V (+ ∆)`.
    fn structure_size(&self) -> u64;

    /// The *footprint* as defined in the paper: one past the largest address
    /// currently storing an object. Always `<= structure_size()`.
    fn footprint(&self) -> u64;

    /// `∆`: the largest object length seen so far.
    fn max_object_size(&self) -> u64;

    /// Completes any deferred work, returning the physical ops performed.
    ///
    /// Most implementors serve every request to completion and have nothing
    /// to do (the default returns an empty [`Outcome`]). The deamortized
    /// structure overrides this to pump its in-progress flush to the end, so
    /// that afterwards pending deletes have drained and every active object
    /// is live. Drivers comparing the active counts of any
    /// `dyn Reallocator` against a reference model should quiesce first.
    fn quiesce(&mut self) -> Outcome {
        Outcome::empty()
    }

    /// Short human-readable algorithm name for tables.
    fn name(&self) -> &'static str;

    /// Number of active objects (pending deletes included, like
    /// [`live_volume`](Self::live_volume)).
    fn live_count(&self) -> usize;
}

/// A boxed reallocator that can be handed to another thread — the unit of
/// ownership a sharded serving layer gives each worker.
pub type BoxedReallocator = Box<dyn Reallocator + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            ReallocError::DuplicateId(ObjectId(3)).to_string(),
            "obj#3 is already active"
        );
        assert_eq!(
            ReallocError::UnknownId(ObjectId(4)).to_string(),
            "obj#4 is not active"
        );
        assert_eq!(
            ReallocError::ZeroSize.to_string(),
            "objects must have positive length"
        );
    }
}

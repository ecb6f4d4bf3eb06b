#![warn(missing_docs)]
//! Shared vocabulary for the cost-oblivious storage reallocation workspace.
//!
//! This crate defines the types that every other crate speaks:
//!
//! * [`ObjectId`] — the immutable *name* of a stored object (the paper's
//!   "block name"; physical addresses may change, names never do).
//! * [`Extent`] — a half-open `[offset, offset+len)` range of the address
//!   space.
//! * [`StorageOp`] — the externally visible actions a reallocator takes:
//!   allocations, reallocations (moves), frees, and checkpoint barriers.
//! * [`Reallocator`] — the trait implemented by the paper's algorithms and by
//!   every baseline, so harnesses can drive them interchangeably.
//! * [`Ledger`] — post-hoc cost accounting. Because the paper's algorithms
//!   are *cost oblivious*, a single run can be priced under any number of
//!   cost functions after the fact. For totals that takes only the multiset
//!   of allocated and moved sizes, so the ledger keeps size → count
//!   summaries whose memory follows the distinct sizes seen; the
//!   per-request history is opt-in ([`Ledger::with_history`]).
//! * [`Router`] — the id → shard routing layer a sharded serving stack
//!   speaks, implemented by [`TableRouter`]: explicit assignments over a
//!   [`rendezvous_shard`] fallback. Lives here, not in the engine crate, so
//!   workload tooling can split request streams with a `&dyn Router`
//!   without a dependency cycle.
//! * [`block_on`] — a dependency-free thread-parking executor, the
//!   entire async runtime the engine's async facade needs. No tokio
//!   anywhere in the workspace.
//! * [`IdMap`] — an `ObjectId`-keyed hash map under a fixed SplitMix64
//!   hasher ([`IdHasher`]), for hot maps over ids the program hands out.

pub mod executor;
pub mod extent;
pub mod hash;
pub mod ledger;
pub mod ops;
pub mod realloc;
pub mod router;

pub use executor::block_on;
pub use extent::Extent;
pub use hash::{IdHasher, IdMap};
pub use ledger::{Ledger, OpKind, OpRecord};
pub use ops::{Outcome, StorageOp};
pub use realloc::{BoxedReallocator, ReallocError, Reallocator};
pub use router::{rendezvous_shard, HashRouter, Router, TableRouter};

// The serving layer (`realloc-engine`) moves outcomes, ledgers, and boxed
// reallocators across threads; keep the vocabulary types `Send` by
// construction (a non-`Send` field added to any of these fails to compile
// here, not deep inside the engine).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ObjectId>();
    assert_send::<Extent>();
    assert_send::<StorageOp>();
    assert_send::<Outcome>();
    assert_send::<Ledger>();
    assert_send::<OpRecord>();
    assert_send::<ReallocError>();
    assert_send::<TableRouter>();
};

/// The immutable name of a stored object.
///
/// Mirrors the block-name side of TokuDB's block translation layer: requests
/// refer to objects by `ObjectId`, and the reallocator is free to change the
/// physical [`Extent`] behind the name at any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Size class of a `size`-cell object: class `k` holds sizes
/// `2^k <= size < 2^(k+1)` (the paper indexes the same classes from 1).
///
/// # Panics
/// Panics on `size == 0`; zero-length objects are rejected at the API
/// boundary before this is ever called.
#[inline]
pub fn size_class(size: u64) -> u32 {
    assert!(size > 0, "objects have positive integral length");
    63 - size.leading_zeros()
}

/// Smallest size in `class`, i.e. `2^class`.
#[inline]
pub fn class_min_size(class: u32) -> u64 {
    1u64 << class
}

/// Largest size in `class`, i.e. `2^(class+1) - 1`.
#[inline]
pub fn class_max_size(class: u32) -> u64 {
    (1u64 << (class + 1)) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_boundaries() {
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 1);
        assert_eq!(size_class(4), 2);
        assert_eq!(size_class(7), 2);
        assert_eq!(size_class(8), 3);
        assert_eq!(size_class(1 << 40), 40);
        assert_eq!(size_class(u64::MAX), 63);
    }

    #[test]
    fn class_bounds_are_inverse_of_size_class() {
        for class in 0..20 {
            assert_eq!(size_class(class_min_size(class)), class);
            assert_eq!(size_class(class_max_size(class)), class);
            if class > 0 {
                assert_eq!(size_class(class_min_size(class) - 1), class - 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive integral length")]
    fn size_class_rejects_zero() {
        size_class(0);
    }

    #[test]
    fn object_id_display() {
        assert_eq!(ObjectId(7).to_string(), "obj#7");
    }
}

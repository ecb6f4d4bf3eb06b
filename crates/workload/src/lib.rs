#![warn(missing_docs)]
//! Workload generators for storage (re)allocation experiments.
//!
//! Every generator returns a [`Workload`]: a named, fully materialized
//! request sequence that can be replayed against any
//! [`Reallocator`](realloc_common::Reallocator). Generators are
//! deterministic given their seed so experiments are reproducible.
//!
//! Three families:
//! * [`churn`] — steady-state random workloads over pluggable size
//!   distributions ([`dist`]).
//! * [`adversarial`] — the paper's hand-crafted nasty sequences (the
//!   Lemma 3.7 lower bound, the logging-and-compacting killer, cascade
//!   triggers, and the fragmentation adversary for no-move allocators).
//! * [`trace`] — database-shaped traces (block rewrites through a
//!   translation layer, sawtooth capacity cycles, grow-then-shrink).
//!
//! Plus [`shard`] — partitioning any workload into per-shard streams for
//! the sharded serving layer, preserving per-object request order.

pub mod adversarial;
pub mod churn;
pub mod dist;
pub mod file;
pub mod shard;
pub mod trace;

use std::collections::{HashMap, HashSet};

use realloc_common::ObjectId;

/// The most live volume, in cells, a valid workload reaches: `2^60`. Below
/// it a reallocator's volume and address sums, `(1+ε)` slack and staging
/// included, stay far from `u64` overflow.
const MAX_LIVE_VOLUME: u64 = 1 << 60;

/// One request of the online sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `〈INSERTOBJECT, id, size〉`
    Insert {
        /// Fresh object name.
        id: ObjectId,
        /// Positive object length in cells.
        size: u64,
    },
    /// `〈DELETEOBJECT, id〉`
    Delete {
        /// Name of a live object.
        id: ObjectId,
    },
}

impl Request {
    /// The object this request names (the routing key for sharding).
    pub fn id(&self) -> ObjectId {
        match *self {
            Request::Insert { id, .. } | Request::Delete { id } => id,
        }
    }
}

/// A named, materialized request sequence.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable description (used in experiment tables).
    pub name: String,
    /// The request sequence, in order.
    pub requests: Vec<Request>,
}

/// Summary statistics of a workload (computed by prefix simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Number of insert requests.
    pub inserts: usize,
    /// Number of delete requests.
    pub deletes: usize,
    /// Peak total volume of live objects over the sequence.
    pub peak_volume: u64,
    /// Volume still live at the end.
    pub final_volume: u64,
    /// `∆`: the largest object size in the sequence.
    pub delta: u64,
}

impl Workload {
    /// Creates a named workload from a request sequence.
    pub fn new(name: impl Into<String>, requests: Vec<Request>) -> Self {
        Workload {
            name: name.into(),
            requests,
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the workload has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Checks well-formedness: inserts use fresh ids, deletes name live ids,
    /// sizes are positive, and the live volume never exceeds `2^60` cells.
    /// Returns the index of the first bad request.
    pub fn validate(&self) -> Result<(), usize> {
        self.check(true)
    }

    /// [`Workload::validate`] with the fresh-id rule relaxed to liveness:
    /// an insert may recycle an id *after* its delete, it just cannot name
    /// a currently-live one. This is the contract of the coalescible
    /// workloads ([`crate::churn::coalescible_churn`]), whose
    /// delete-then-reinsert touches deliberately reuse names so a batch
    /// planner can fold the pair into one resize.
    pub fn validate_reuse(&self) -> Result<(), usize> {
        self.check(false)
    }

    /// The well-formedness walk behind both validators; `fresh_ids`
    /// forbids reusing an id even after its delete.
    fn check(&self, fresh_ids: bool) -> Result<(), usize> {
        let mut live = HashMap::new();
        let mut ever = HashSet::new();
        let mut volume = 0u64;
        for (i, req) in self.requests.iter().enumerate() {
            match *req {
                Request::Insert { id, size } => {
                    if size == 0
                        || size > MAX_LIVE_VOLUME - volume
                        || live.contains_key(&id)
                        || (fresh_ids && !ever.insert(id))
                    {
                        return Err(i);
                    }
                    live.insert(id, size);
                    volume += size;
                }
                Request::Delete { id } => match live.remove(&id) {
                    Some(size) => volume -= size,
                    None => return Err(i),
                },
            }
        }
        Ok(())
    }

    /// Summary statistics via prefix simulation.
    pub fn stats(&self) -> WorkloadStats {
        let mut sizes = std::collections::HashMap::new();
        let mut volume = 0u64;
        let mut stats = WorkloadStats {
            inserts: 0,
            deletes: 0,
            peak_volume: 0,
            final_volume: 0,
            delta: 0,
        };
        for req in &self.requests {
            match *req {
                Request::Insert { id, size } => {
                    stats.inserts += 1;
                    stats.delta = stats.delta.max(size);
                    sizes.insert(id, size);
                    volume += size;
                }
                Request::Delete { id } => {
                    stats.deletes += 1;
                    volume -= sizes.remove(&id).expect("validated workload");
                }
            }
        }
        stats.peak_volume = {
            // Recompute peak with a second pass (cheap, keeps first pass simple).
            let mut sizes = std::collections::HashMap::new();
            let mut v = 0u64;
            let mut peak = 0u64;
            for req in &self.requests {
                match *req {
                    Request::Insert { id, size } => {
                        sizes.insert(id, size);
                        v += size;
                        peak = peak.max(v);
                    }
                    Request::Delete { id } => v -= sizes.remove(&id).expect("validated"),
                }
            }
            peak
        };
        stats.final_volume = volume;
        stats
    }
}

/// Hands out fresh [`ObjectId`]s to generators.
#[derive(Debug, Default, Clone)]
pub struct IdSource {
    next: u64,
}

impl IdSource {
    /// A source starting at id 0.
    pub fn new() -> Self {
        IdSource { next: 0 }
    }

    /// Returns the next unused id.
    pub fn fresh(&mut self) -> ObjectId {
        let id = ObjectId(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(id: u64, size: u64) -> Request {
        Request::Insert {
            id: ObjectId(id),
            size,
        }
    }
    fn del(id: u64) -> Request {
        Request::Delete { id: ObjectId(id) }
    }

    #[test]
    fn validate_accepts_wellformed() {
        let w = Workload::new("ok", vec![ins(1, 4), ins(2, 8), del(1), ins(3, 2), del(3)]);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn validate_rejects_duplicate_insert() {
        let w = Workload::new("bad", vec![ins(1, 4), ins(1, 4)]);
        assert_eq!(w.validate(), Err(1));
    }

    #[test]
    fn validate_rejects_reused_id_even_after_delete() {
        // Ids are immutable names; generators must not recycle them.
        let w = Workload::new("bad", vec![ins(1, 4), del(1), ins(1, 4)]);
        assert_eq!(w.validate(), Err(2));
    }

    #[test]
    fn validate_rejects_delete_of_unknown() {
        let w = Workload::new("bad", vec![ins(1, 4), del(2)]);
        assert_eq!(w.validate(), Err(1));
    }

    #[test]
    fn validate_rejects_zero_size() {
        let w = Workload::new("bad", vec![ins(1, 0)]);
        assert_eq!(w.validate(), Err(0));
    }

    #[test]
    fn validate_caps_the_live_volume_at_two_to_the_sixty() {
        let half = 1 << 59;
        let at_cap = Workload::new(
            "cap",
            vec![ins(1, half), ins(2, half), del(1), ins(3, half)],
        );
        assert_eq!(at_cap.validate(), Ok(()));
        assert_eq!(at_cap.validate_reuse(), Ok(()));
        let past = Workload::new("past", vec![ins(1, half), ins(2, half), ins(3, 1)]);
        assert_eq!(past.validate(), Err(2));
        assert_eq!(past.validate_reuse(), Err(2));
        // Two sizes whose sum wraps `u64` are past the cap too.
        let wraps = Workload::new("wraps", vec![ins(1, 1 << 63), ins(2, 1 << 63)]);
        assert_eq!(wraps.validate(), Err(0));
    }

    #[test]
    fn stats_track_volume_and_delta() {
        let w = Workload::new("s", vec![ins(1, 10), ins(2, 6), del(1), ins(3, 1)]);
        let s = w.stats();
        assert_eq!(s.inserts, 3);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.peak_volume, 16);
        assert_eq!(s.final_volume, 7);
        assert_eq!(s.delta, 10);
    }

    #[test]
    fn request_id_is_the_routing_key() {
        assert_eq!(ins(3, 4).id(), ObjectId(3));
        assert_eq!(del(9).id(), ObjectId(9));
    }

    #[test]
    fn id_source_is_sequential() {
        let mut src = IdSource::new();
        assert_eq!(src.fresh(), ObjectId(0));
        assert_eq!(src.fresh(), ObjectId(1));
    }
}

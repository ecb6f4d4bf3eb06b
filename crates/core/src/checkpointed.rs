//! The Section 3.2 reallocator: footprint minimization in a database
//! context, under the durability rules of Section 3.1.
//!
//! Same competitive guarantees as Section 2 (the move count per object is
//! unchanged), plus:
//!
//! * every move lands on space disjoint from the object's old location;
//! * no write touches space freed since the last checkpoint;
//! * each flush blocks on `O(1/ε)` checkpoints (Lemma 3.3);
//! * space never exceeds `(1 + O(ε′))·V + ∆` during a flush (Lemma 3.1),
//!   the extra `∆` being unavoidable for nonoverlapping moves of the
//!   largest object.
//!
//! The emitted op streams replay cleanly against
//! `storage_sim::SimStore::new(Mode::Strict)`, which enforces all of the
//! above mechanically — the integration tests do exactly that, including
//! crash/recovery at arbitrary points.

use realloc_common::{Extent, ObjectId, Outcome, ReallocError, Reallocator, StorageOp};

use crate::layout::{Admitted, Eps, Layout, Place, RegionView};
use crate::plan::flush_checkpointed;
use crate::validate::{check_invariants, InvariantViolation};

/// The checkpointed cost-oblivious reallocator (§3.2).
///
/// Emits [`StorageOp::CheckpointBarrier`] wherever the algorithm must block
/// until the system performs a checkpoint; the substrate decides what a
/// checkpoint costs.
#[derive(Debug, Clone)]
pub struct CheckpointedReallocator {
    layout: Layout,
    flushes: u64,
    total_checkpoints: u64,
}

impl CheckpointedReallocator {
    /// Creates a reallocator with footprint slack `ε` (`0 < ε ≤ 1/2`).
    pub fn new(eps: f64) -> Self {
        Self::with_eps(Eps::new(eps))
    }

    /// Creates a reallocator from a pre-built (possibly ablated) [`Eps`].
    pub fn with_eps(eps: Eps) -> Self {
        CheckpointedReallocator {
            layout: Layout::new(eps),
            flushes: 0,
            total_checkpoints: 0,
        }
    }

    /// The footprint parameter.
    pub fn eps(&self) -> Eps {
        self.layout.eps()
    }

    /// One-call snapshot of the volume accounting (see
    /// [`VolumeSummary`](crate::layout::VolumeSummary)).
    pub fn volume_summary(&self) -> crate::layout::VolumeSummary {
        self.layout.volume_summary()
    }

    /// Number of buffer flushes performed (or started) so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Total checkpoint barriers emitted across all flushes.
    pub fn checkpoints_waited(&self) -> u64 {
        self.total_checkpoints
    }

    /// Read-only view of the region layout (paper Figure 2).
    pub fn region_views(&self) -> Vec<RegionView> {
        self.layout.region_views()
    }

    /// Checks the paper's structural invariants.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        check_invariants(&self.layout)
    }

    /// Runs the §3.2 phased flush (see [`flush_checkpointed`]) and counts
    /// it.
    fn flush(
        &mut self,
        trigger: Option<Admitted>,
        trigger_class: u32,
        pre_ops: Vec<StorageOp>,
    ) -> Outcome {
        let (outcome, _) = flush_checkpointed(&mut self.layout, trigger, trigger_class, pre_ops);
        self.flushes += 1;
        self.total_checkpoints += u64::from(outcome.checkpoints);
        outcome
    }
}

impl Reallocator for CheckpointedReallocator {
    fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
        let (obj, new_largest) = self.layout.admit(id, size)?;
        if new_largest {
            return Ok(self.layout.open_class(obj));
        }
        match self.layout.buffer_object(obj) {
            Some(offset) => Ok(self.layout.served(StorageOp::Allocate {
                id,
                to: Extent::new(offset, size),
            })),
            None => Ok(self.flush(Some(obj), obj.class, Vec::new())),
        }
    }

    fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
        let entry = self.layout.release(id)?;
        let free_op = StorageOp::Free {
            id,
            at: entry.extent(),
        };
        if entry.place == Place::Payload && !self.layout.buffer_tombstone(entry.class, entry.size) {
            // §3.2: the flush triggers without using space for the dummy.
            return Ok(self.flush(None, entry.class, vec![free_op]));
        }
        Ok(self.layout.served(free_op))
    }

    fn extent_of(&self, id: ObjectId) -> Option<Extent> {
        self.layout.extent_of(id)
    }

    fn live_extents(&self) -> Vec<(ObjectId, Extent)> {
        self.layout.live_extents()
    }

    fn live_volume(&self) -> u64 {
        self.layout.live_volume()
    }

    fn structure_size(&self) -> u64 {
        self.layout.regions_end()
    }

    fn footprint(&self) -> u64 {
        self.layout.last_object_end()
    }

    fn max_object_size(&self) -> u64 {
        self.layout.delta()
    }

    fn name(&self) -> &'static str {
        "cost-oblivious-ckpt"
    }

    fn live_count(&self) -> usize {
        self.layout.live_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }

    fn assert_space_envelope(r: &CheckpointedReallocator, outcome: &Outcome) {
        // Lemma 3.1: during any request, space ≤ (1+O(ε'))V + O(∆). Our
        // implementation's constants: structure ≤ (1+ε')·(V/(1-ε')), the
        // staging offset adds B ≤ ε'·structure plus a 2∆ guard, and staged
        // volume adds up to ε'·structure + w again — so (1+6ε')V + 3∆ is a
        // safe concrete envelope (experiments report the measured peak).
        let eps_p = r.eps().prime();
        let v = r.live_volume() as f64;
        let bound = (1.0 + 6.0 * eps_p) * v + 3.0 * r.max_object_size() as f64;
        assert!(
            outcome.peak_structure_size as f64 <= bound + 1e-6,
            "peak {} > bound {bound} (V={v})",
            outcome.peak_structure_size
        );
    }

    #[test]
    fn basic_insert_delete_cycle() {
        let mut r = CheckpointedReallocator::new(0.5);
        r.insert(id(1), 100).unwrap();
        r.insert(id(2), 30).unwrap();
        r.delete(id(1)).unwrap();
        r.validate().unwrap();
        assert_eq!(r.live_count(), 1);
    }

    #[test]
    fn flush_emits_checkpoint_barriers() {
        let mut r = CheckpointedReallocator::new(0.5);
        r.insert(id(1), 600).unwrap();
        let mut n = 2;
        let out = loop {
            let out = r.insert(id(n), 30).unwrap();
            n += 1;
            if out.flushed {
                break out;
            }
            assert!(n < 100);
        };
        assert!(
            out.checkpoints >= 1,
            "flush must block on at least one checkpoint"
        );
        assert_eq!(
            out.ops
                .iter()
                .filter(|o| matches!(o, StorageOp::CheckpointBarrier))
                .count(),
            out.checkpoints as usize
        );
        r.validate().unwrap();
    }

    #[test]
    fn moves_never_overlap_their_source() {
        let mut r = CheckpointedReallocator::new(0.5);
        let sizes: Vec<u64> = (0..150).map(|i| 1 + (i * 13) % 200).collect();
        for (i, &s) in sizes.iter().enumerate() {
            let out = r.insert(id(i as u64), s).unwrap();
            for op in &out.ops {
                if let StorageOp::Move { from, to, .. } = op {
                    assert!(!from.overlaps(to), "{from} overlaps {to}");
                }
            }
            r.validate().unwrap();
        }
    }

    #[test]
    fn footprint_bound_after_every_request() {
        let mut r = CheckpointedReallocator::new(0.25);
        let sizes: Vec<u64> = (0..200).map(|i| 1 + (i * 7) % 120).collect();
        for (i, &s) in sizes.iter().enumerate() {
            let out = r.insert(id(i as u64), s).unwrap();
            r.validate().unwrap();
            let bound = 1.25 * r.live_volume() as f64;
            assert!(r.structure_size() as f64 <= bound + 1e-9);
            assert_space_envelope(&r, &out);
        }
        for i in (0..200u64).step_by(3) {
            let out = r.delete(id(i)).unwrap();
            r.validate().unwrap();
            let bound = 1.25 * r.live_volume() as f64;
            assert!(r.structure_size() as f64 <= bound + 1e-9);
            assert_space_envelope(&r, &out);
        }
    }

    #[test]
    fn trigger_object_survives_flush() {
        let mut r = CheckpointedReallocator::new(0.5);
        r.insert(id(1), 600).unwrap();
        let mut n = 2;
        loop {
            let out = r.insert(id(n), 30).unwrap();
            if out.flushed {
                let e = r.extent_of(id(n)).expect("trigger placed");
                assert_eq!(e.len, 30);
                break;
            }
            n += 1;
            assert!(n < 100);
        }
        r.validate().unwrap();
    }

    #[test]
    fn checkpoints_per_flush_scale_like_inverse_eps() {
        // Lemma 3.3: O(1/ε′) checkpoints per flush. The worst flush under a
        // 10x tighter ε must stay within ~O(10x) of the loose one.
        let worst = |eps: f64| -> u32 {
            let mut r = CheckpointedReallocator::new(eps);
            let mut max_cp = 0;
            for i in 0..400u64 {
                let out = r.insert(id(i), 1 + (i * 11) % 64).unwrap();
                max_cp = max_cp.max(out.checkpoints);
            }
            max_cp
        };
        let loose = worst(0.5);
        let tight = worst(0.05);
        assert!(loose >= 1);
        assert!(
            (tight as f64) <= (loose as f64) * 10.0 * 3.0,
            "checkpoints grew faster than 1/ε: {loose} -> {tight}"
        );
    }

    #[test]
    fn delete_triggered_flush_has_no_trigger_allocation() {
        let mut r = CheckpointedReallocator::new(0.5);
        r.insert(id(1), 600).unwrap();
        let mut m = 1000u64;
        for _ in 0..200 {
            r.insert(id(m), 25).unwrap();
            m += 1;
        }
        let mut flush_seen = false;
        for i in 1000..m {
            let out = r.delete(id(i)).unwrap();
            r.validate().unwrap();
            if out.flushed {
                flush_seen = true;
                assert!(!out
                    .ops
                    .iter()
                    .any(|o| matches!(o, StorageOp::Allocate { .. })));
                break;
            }
        }
        assert!(flush_seen, "no delete-triggered flush observed");
    }
}

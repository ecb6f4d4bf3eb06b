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

use realloc_common::{Outcome, StorageOp};

use crate::layout::{Admitted, Layout};
use crate::plan::flush_checkpointed;
use crate::size_class::{Schedule, SizeClassReallocator};

/// The checkpointed cost-oblivious reallocator (§3.2).
///
/// Emits [`StorageOp::CheckpointBarrier`] wherever the algorithm must block
/// until the system performs a checkpoint; the substrate decides what a
/// checkpoint costs.
pub type CheckpointedReallocator = SizeClassReallocator<Phased>;

/// §3.2's flush: the trigger is placed before the flush, buffered objects
/// hop to a staging area past the whole structure, and survivors pack
/// right and unpack left in phases of nonoverlapping moves, with a
/// checkpoint barrier after every phase (Lemmas 3.1–3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct Phased;

impl Schedule for Phased {
    const NAME: &'static str = "cost-oblivious-ckpt";

    fn flush(
        &mut self,
        layout: &mut Layout,
        trigger: Option<Admitted>,
        trigger_class: u32,
        pre_ops: Vec<StorageOp>,
    ) -> Outcome {
        flush_checkpointed(layout, trigger, trigger_class, pre_ops).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_common::{ObjectId, Reallocator};

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
            out.checkpoints() >= 1,
            "flush must block on at least one checkpoint"
        );
        assert_eq!(
            out.ops
                .iter()
                .filter(|o| matches!(o, StorageOp::CheckpointBarrier))
                .count(),
            out.checkpoints() as usize
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
                max_cp = max_cp.max(out.checkpoints());
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

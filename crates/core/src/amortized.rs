//! The Section 2 cost-oblivious storage reallocator.
//!
//! `(1+ε, O((1/ε) log(1/ε)))`-competitive with respect to every monotone
//! subadditive cost function (Theorem 2.1). Amortized: a single request may
//! flush — and therefore reallocate — every active object, but each object
//! is charged only `O((1/ε) log(1/ε))` moves over its lifetime.

use realloc_common::{Extent, Outcome, StorageOp};

use crate::layout::{Admitted, Layout};
use crate::plan::{apply_final_state, gather, plan_amortized};
use crate::size_class::{Schedule, SizeClassReallocator};

/// The paper's Section 2 algorithm. See the crate docs for the design;
/// construct with `CostObliviousReallocator::new` and drive through the
/// [`Reallocator`](realloc_common::Reallocator) trait.
///
/// ```
/// use realloc_core::CostObliviousReallocator;
/// use realloc_common::{ObjectId, Reallocator};
///
/// let mut r = CostObliviousReallocator::new(0.5);
/// r.insert(ObjectId(1), 100).unwrap();
/// r.insert(ObjectId(2), 40).unwrap();
/// r.delete(ObjectId(1)).unwrap();
/// // Footprint stays within (1+ε)·V at every step.
/// assert!(r.structure_size() as f64 <= 1.5 * r.live_volume() as f64);
/// ```
pub type CostObliviousReallocator = SizeClassReallocator<Memmove>;

/// §2's flush: buffered objects hop to an overflow segment, payload
/// survivors move straight to their final offsets, and buffered objects
/// drop into the payload tails. A buffered object moves twice and a payload
/// survivor at most once (the paper compacts survivors left and then
/// unpacks them right, moving each twice); any move may overlap its own
/// source (memmove semantics); no checkpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct Memmove;

impl Schedule for Memmove {
    const NAME: &'static str = "cost-oblivious";

    fn flush(
        &mut self,
        layout: &mut Layout,
        trigger: Option<Admitted>,
        trigger_class: u32,
        pre_ops: Vec<StorageOp>,
    ) -> Outcome {
        let b = layout.boundary_class(trigger_class);
        let inputs = gather(layout, b, &[]);
        let plan = plan_amortized(&inputs, trigger);

        let mut ops = pre_ops;
        ops.extend(plan.phases.iter().flatten().map(|m| m.op()));
        if let Some(t) = plan.trigger_final {
            ops.push(StorageOp::Allocate {
                id: t.id,
                to: Extent::new(t.offset, t.size),
            });
        }
        apply_final_state(layout, &plan);
        Outcome {
            ops,
            flushed: true,
            peak_structure_size: plan.peak.max(layout.regions_end()),
            checkpoints: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_common::{ObjectId, ReallocError, Reallocator};

    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }

    /// Inserts `sizes` with sequential ids starting at `base`, validating
    /// invariants and the footprint bound after every request.
    fn insert_all(r: &mut CostObliviousReallocator, base: u64, sizes: &[u64]) {
        for (i, &s) in sizes.iter().enumerate() {
            r.insert(id(base + i as u64), s).unwrap();
            r.validate().unwrap();
            assert_footprint(r);
        }
    }

    fn assert_footprint(r: &CostObliviousReallocator) {
        let bound = (1.0 + r.eps().value()) * r.live_volume() as f64;
        assert!(
            r.structure_size() as f64 <= bound + 1e-9,
            "structure {} > (1+ε)V = {bound}",
            r.structure_size()
        );
    }

    #[test]
    fn first_insert_creates_region() {
        let mut r = CostObliviousReallocator::new(0.5);
        let out = r.insert(id(1), 100).unwrap();
        assert_eq!(out.ops.len(), 1);
        assert!(matches!(out.ops[0], StorageOp::Allocate { .. }));
        assert_eq!(r.extent_of(id(1)), Some(Extent::new(0, 100)));
        // payload 100 + buffer ⌊100/6⌋ = 16.
        assert_eq!(r.structure_size(), 116);
        r.validate().unwrap();
        assert_footprint(&r);
    }

    #[test]
    fn duplicate_and_unknown_ids_rejected() {
        let mut r = CostObliviousReallocator::new(0.5);
        r.insert(id(1), 10).unwrap();
        assert!(matches!(r.insert(id(1), 10), Err(ReallocError::DuplicateId(i)) if i == id(1)));
        assert!(matches!(r.delete(id(2)), Err(ReallocError::UnknownId(i)) if i == id(2)));
        assert!(matches!(r.insert(id(3), 0), Err(ReallocError::ZeroSize)));
    }

    #[test]
    fn smaller_objects_go_to_buffers() {
        let mut r = CostObliviousReallocator::new(0.5);
        r.insert(id(1), 600).unwrap(); // class 9, buffer = 100
        let out = r.insert(id(2), 30).unwrap(); // fits buffer 9
        assert!(!out.flushed);
        assert_eq!(out.ops.len(), 1);
        r.validate().unwrap();
        let views = r.region_views();
        assert_eq!(views[9].buffer_used, 30);
    }

    #[test]
    fn buffer_exhaustion_triggers_flush_and_empties_buffers() {
        let mut r = CostObliviousReallocator::new(0.5);
        r.insert(id(1), 600).unwrap();
        let mut n = 2;
        // Fill the buffer until a flush happens.
        let flushed_at = loop {
            let out = r.insert(id(n), 30).unwrap();
            r.validate().unwrap();
            assert_footprint(&r);
            if out.flushed {
                break n;
            }
            n += 1;
            assert!(n < 100, "flush never triggered");
        };
        assert!(flushed_at > 2);
        // All buffers empty after the flush (Invariant 2.4).
        for v in r.region_views() {
            assert_eq!(v.buffer_used, 0, "class {} buffer not empty", v.class);
        }
        // Every object still addressable.
        for i in 1..=flushed_at {
            assert!(r.extent_of(id(i)).is_some(), "lost object {i}");
        }
    }

    #[test]
    fn delete_from_buffer_leaves_tombstone_consuming_space() {
        let mut r = CostObliviousReallocator::new(0.5);
        r.insert(id(1), 600).unwrap();
        r.insert(id(2), 30).unwrap();
        let used_before = r.region_views()[9].buffer_used;
        let out = r.delete(id(2)).unwrap();
        assert_eq!(out.ops.len(), 1);
        assert!(matches!(out.ops[0], StorageOp::Free { .. }));
        assert_eq!(
            r.region_views()[9].buffer_used,
            used_before,
            "tombstone keeps space"
        );
        r.validate().unwrap();
    }

    #[test]
    fn delete_from_payload_charges_dummy_to_buffer() {
        let mut r = CostObliviousReallocator::new(0.5);
        insert_all(&mut r, 1, &[600, 500]); // both class 9
        let before = r.region_views()[9].buffer_used;
        r.delete(id(1)).unwrap();
        r.validate().unwrap();
        let after = r.region_views()[9].buffer_used;
        // Object 1 went straight to payload 9 (first of its class), so its
        // delete must charge a 600-cell dummy record to a buffer — or flush
        // if nothing fits (600 > the buffer, so a flush resets to 0).
        assert!(
            after > before || after == 0,
            "before {before}, after {after}"
        );
    }

    #[test]
    fn footprint_bound_through_heavy_churn() {
        let mut r = CostObliviousReallocator::new(0.5);
        // Mixed sizes spanning several classes.
        let sizes = [1u64, 3, 7, 12, 30, 70, 150, 400, 5, 2, 90, 33, 8, 256, 17];
        insert_all(&mut r, 0, &sizes);
        // Delete every other object.
        for i in (0..sizes.len() as u64).step_by(2) {
            r.delete(id(i)).unwrap();
            r.validate().unwrap();
            assert_footprint(&r);
        }
        // Reinsert a fresh batch.
        insert_all(&mut r, 100, &sizes);
        assert_footprint(&r);
    }

    #[test]
    fn tight_eps_gives_tight_footprint() {
        let mut r = CostObliviousReallocator::new(0.05);
        insert_all(&mut r, 0, &[64; 40]);
        let ratio = r.structure_size() as f64 / r.live_volume() as f64;
        assert!(ratio <= 1.05 + 1e-9, "ratio {ratio}");
    }

    #[test]
    fn objects_keep_identity_across_flushes() {
        let mut r = CostObliviousReallocator::new(0.5);
        let sizes: Vec<u64> = (0..120).map(|i| 1 + (i * 7) % 100).collect();
        insert_all(&mut r, 0, &sizes);
        for (i, &s) in sizes.iter().enumerate() {
            let e = r.extent_of(id(i as u64)).expect("alive");
            assert_eq!(e.len, s, "object {i} changed size");
        }
        assert_eq!(r.live_count(), sizes.len());
        assert_eq!(r.live_volume(), sizes.iter().sum::<u64>());
    }

    #[test]
    fn flush_on_delete_when_no_buffer_fits_dummy() {
        let mut r = CostObliviousReallocator::new(0.5);
        // One large object; its buffer is the only buffer.
        r.insert(id(1), 600).unwrap();
        // Fill the buffer completely with small objects.
        let mut n = 2;
        while r.region_views()[9].buffer_used < r.region_views()[9].buffer_space {
            let free = r.region_views()[9].buffer_space - r.region_views()[9].buffer_used;
            let out = r.insert(id(n), free.min(30)).unwrap();
            if out.flushed {
                break;
            }
            n += 1;
        }
        // Deleting the payload object now cannot place a dummy -> flush.
        let out = r.delete(id(1)).unwrap();
        assert!(out.flushed);
        assert!(matches!(out.ops[0], StorageOp::Free { .. }));
        r.validate().unwrap();
        assert_footprint(&r);
    }

    #[test]
    fn growing_size_classes_one_by_one() {
        let mut r = CostObliviousReallocator::new(0.5);
        for k in 0..12u32 {
            r.insert(id(k as u64), 1u64 << k).unwrap();
            r.validate().unwrap();
            assert_footprint(&r);
        }
        assert_eq!(r.max_object_size(), 1 << 11);
        assert_eq!(r.live_count(), 12);
    }

    #[test]
    fn shrinking_workload_shrinks_structure() {
        let mut r = CostObliviousReallocator::new(0.5);
        let sizes: Vec<u64> = (0..200).map(|i| 1 + (i % 50)).collect();
        insert_all(&mut r, 0, &sizes);
        let big = r.structure_size();
        for i in 0..180u64 {
            r.delete(id(i)).unwrap();
            r.validate().unwrap();
            assert_footprint(&r);
        }
        assert!(r.structure_size() < big, "structure did not shrink");
    }
}

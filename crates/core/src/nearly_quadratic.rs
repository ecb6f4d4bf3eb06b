//! The 2024 nearly-quadratic reallocator: a deterministic adaptation of
//! *A Nearly Quadratic Improvement for Memory Reallocation* (Farach-Colton
//! & Sheffield, 2024) as a fourth variant behind the same trait.
//!
//! The 2024 result improves the update overhead of cost-oblivious
//! reallocation from the classical `O(1/ε)` to `Õ(ε^{-1/2})` by *not*
//! paying a rebuild for updates that cancel: space handed back by a delete
//! is handed out again to a later insert of the same size class without
//! moving anything and without consuming rebuild credit. This file ports
//! that signature mechanism — **hole recycling** — onto the paper's
//! size-class region layout:
//!
//! * a delete of a payload object records its slot as a *hole* of its
//!   class (in addition to the §2 dummy-record charge, so the footprint
//!   argument is untouched);
//! * an insert first looks for a best-fit hole of its class and, if one
//!   exists, allocates straight into it — zero movement, zero buffer
//!   consumption — and *cancels* dummy-record volume up to the recycled
//!   size (whole trailing tombstones only, so buffers stay contiguous):
//!   the dead space those dummies charged for is live again, so a
//!   cancelling delete+reinsert round nets zero buffer consumption and the
//!   flush clock stops entirely;
//! * only when no hole fits does the insert fall back to the buffered
//!   path, and flushes use the §3.2 checkpointed plan (nonoverlapping
//!   moves, a barrier after every phase), so the variant is safe under the
//!   strict database substrate.
//!
//! Because every class-`k` object has size in `[2^k, 2^{k+1})`, a hole fits
//! a same-class object iff its capacity covers the new size, and the
//! leftover sliver (`< 2^k`) can never fit another class-`k` object — holes
//! are consumed whole, which keeps the bookkeeping a plain per-class
//! best-fit set with no splitting or coalescing.
//!
//! ## Strict-substrate discipline
//!
//! Section 3.1 forbids rewriting space freed since the last checkpoint.
//! Holes therefore carry a freshness bit: a hole freed after the most
//! recent barrier is *fresh* and may not be written; reusing one emits a
//! [`StorageOp::CheckpointBarrier`] first (settling every fresh hole at
//! once), and every flush's own barriers settle the survivors. Holes inside
//! regions rebuilt by a flush are forgotten — their space was reassigned by
//! the plan.
//!
//! ## Documented deviations
//!
//! The 2024 algorithm is randomized and analysed against an oblivious
//! adversary; reconstructing it verbatim is out of scope here. This
//! adaptation is deterministic (the proptest contract requires identical
//! layouts per request stream) and keeps the PODS'14 guarantees it is built
//! on: footprint stays `≤ (1+ε)·V` after every request and every §2/§3.2
//! structural invariant holds. What it inherits from 2024 is the update
//! overhead on cancelling workloads — `tests/theorem_bounds.rs` encodes the
//! `Õ(ε^{-1/2})`-shaped movement bound and the head-to-head against the
//! 2014 variants the same way the PODS'14 theorems are encoded.

use std::collections::BTreeSet;

use realloc_common::{Extent, Outcome, StorageOp};

use crate::layout::{Admitted, BufKind, Entry, Layout, Place};
use crate::plan::flush_checkpointed;
use crate::size_class::{Schedule, SizeClassReallocator};
use crate::validate::InvariantViolation;

/// Per-class hole book-keeping. Sets are keyed `(capacity, offset)` so
/// `range((size, 0)..)` yields the best fit (smallest adequate capacity,
/// lowest offset on ties) deterministically.
#[derive(Debug, Clone, Default)]
struct HoleSet {
    /// Holes freed before the last checkpoint barrier: writable now.
    settled: BTreeSet<(u64, u64)>,
    /// Holes freed since the last barrier: writable only after the next one.
    fresh: BTreeSet<(u64, u64)>,
}

impl HoleSet {
    fn best_fit(set: &BTreeSet<(u64, u64)>, size: u64) -> Option<(u64, u64)> {
        set.range((size, 0)..).next().copied()
    }

    fn settle(&mut self) {
        while let Some(h) = self.fresh.pop_first() {
            self.settled.insert(h);
        }
    }
}

/// The nearly-quadratic reallocator (Farach-Colton & Sheffield 2024,
/// deterministic adaptation): hole recycling over the §3.2 checkpointed
/// machinery.
pub type NearlyQuadraticReallocator = SizeClassReallocator<Recycling>;

/// FS'24's hole recycling over §3.2's phased flush: the holes that payload
/// deletes leave, per class, and what recycling them has served.
#[derive(Debug, Clone, Default)]
pub struct Recycling {
    /// Indexed by size class, grown by the first delete that leaves a hole
    /// in a class.
    holes: Vec<HoleSet>,
    recycled: u64,
    recycled_volume: u64,
    /// Absolute offsets of tombstones created *in place* by a buffered
    /// delete since the last barrier. Their spans were freed by that
    /// delete's `Free`, so §3.1 forbids rewriting them before the next
    /// checkpoint — cancellation must stop at these (a payload delete's
    /// tombstone occupies never-freed buffer growth and has no such
    /// restriction).
    fresh_tombstones: BTreeSet<u64>,
}

impl NearlyQuadraticReallocator {
    /// Inserts served by recycling a hole instead of buffer space.
    pub fn recycled_inserts(&self) -> u64 {
        self.schedule.recycled
    }

    /// Total volume of hole-recycled inserts.
    pub fn recycled_volume(&self) -> u64 {
        self.schedule.recycled_volume
    }
}

impl Recycling {
    /// A checkpoint happened: every fresh hole becomes writable and
    /// in-place tombstone spans become cancellable.
    fn settle_all(&mut self) {
        for set in &mut self.holes {
            set.settle();
        }
        self.fresh_tombstones.clear();
    }

    /// Drops holes in regions `>= b` (their space was reassigned by a
    /// flush) and settles the rest (the flush ended with a barrier).
    fn forget_from(&mut self, b: u32) {
        for set in self.holes.iter_mut().skip(b as usize) {
            set.settled.clear();
            set.fresh.clear();
        }
        self.settle_all();
    }

    /// The cancellation half of the 2024 fast path: a recycled hole's dead
    /// space is live again, so dummy-record volume up to the recycled size
    /// has lost its reason and is released. Only whole *trailing* tombstones
    /// are popped (the one removal that keeps buffer segments contiguous),
    /// from buffers `>= class` — the same buffers the matching deletes
    /// charged. Never releases more than `size`, so dead payload volume
    /// stays covered by the remaining dummy volume; in the cancelling
    /// regime a round's delete+reinsert nets zero buffer consumption and
    /// the flush clock stops. Pops stop at a `fresh_tombstones` span
    /// (freed in place since the last barrier): handing it back to the
    /// buffer would let the next buffered insert rewrite it, which §3.1
    /// forbids before a checkpoint.
    fn cancel_tombstones(&self, layout: &mut Layout, class: u32, size: u64) {
        let mut allowance = size;
        for region in layout.regions.iter_mut().skip(class as usize) {
            let buffer = &mut region.buffer;
            while let Some(last) = buffer.entries.last() {
                if !matches!(last.kind, BufKind::Tombstone)
                    || last.size > allowance
                    || self.fresh_tombstones.contains(&last.offset)
                {
                    break;
                }
                allowance -= last.size;
                buffer.used -= last.size;
                buffer.entries.pop();
            }
            if allowance == 0 {
                break;
            }
        }
    }

    /// Best-fit hole of `class` for a `size`-cell insert, preferring
    /// settled holes (no barrier needed). Returns `(capacity, offset,
    /// needs_barrier)` without removing the hole.
    fn pick_hole(&self, class: u32, size: u64) -> Option<(u64, u64, bool)> {
        let set = self.holes.get(class as usize)?;
        if let Some((cap, off)) = HoleSet::best_fit(&set.settled, size) {
            return Some((cap, off, false));
        }
        HoleSet::best_fit(&set.fresh, size).map(|(cap, off)| (cap, off, true))
    }
}

impl Schedule for Recycling {
    const NAME: &'static str = "nearly-quadratic";

    /// §3.2's phased flush; then the holes in the rebuilt suffix are
    /// dropped and the rest settled.
    fn flush(
        &mut self,
        layout: &mut Layout,
        trigger: Option<Admitted>,
        trigger_class: u32,
        pre_ops: Vec<StorageOp>,
    ) -> Outcome {
        let (outcome, b) = flush_checkpointed(layout, trigger, trigger_class, pre_ops);
        self.forget_from(b);
        outcome
    }

    /// The 2024 fast path: recycle a hole of the same class. No movement,
    /// no buffer consumption, and the flush the buffered path would have
    /// been charged toward is deferred.
    fn recycle(&mut self, layout: &mut Layout, obj: Admitted) -> Option<Outcome> {
        let (cap, off, needs_barrier) = self.pick_hole(obj.class, obj.size)?;
        let mut ops = Vec::new();
        if needs_barrier {
            // §3.1: the hole was freed after the last checkpoint; block on
            // one barrier, which settles every fresh hole at once.
            ops.push(StorageOp::CheckpointBarrier);
            self.settle_all();
        }
        let removed = self.holes[obj.class as usize].settled.remove(&(cap, off));
        debug_assert!(removed, "picked hole must exist after settling");
        layout.attach_payload(obj, off);
        self.cancel_tombstones(layout, obj.class, obj.size);
        self.recycled += 1;
        self.recycled_volume += obj.size;
        ops.push(StorageOp::Allocate {
            id: obj.id,
            to: Extent::new(off, obj.size),
        });
        Some(Outcome {
            ops,
            flushed: false,
            peak_structure_size: layout.regions_end(),
        })
    }

    fn released(&mut self, entry: &Entry) {
        if entry.place == Place::Payload {
            // The §2 dummy record was charged, so the footprint argument is
            // untouched; had it not fit, the flush would have rebuilt the
            // suffix and the hole would never have materialized.
            let class = entry.class as usize;
            if self.holes.len() <= class {
                self.holes.resize_with(class + 1, HoleSet::default);
            }
            self.holes[class].fresh.insert((entry.size, entry.offset));
        } else {
            // A buffered delete turned its own slot into the tombstone, and
            // its `Free` freed exactly that span: cancellation may not hand
            // it back to the buffer before the next barrier.
            self.fresh_tombstones.insert(entry.offset);
        }
    }

    /// Every recorded hole lies inside its class's payload segment,
    /// overlaps no live payload object, and holes are pairwise disjoint.
    fn check(&self, layout: &Layout) -> Result<(), InvariantViolation> {
        let bad = |detail: String| InvariantViolation::BadAccounting { detail };
        for (k, set) in self.holes.iter().enumerate() {
            let k = k as u32;
            let region = &layout.regions[k as usize];
            let seg_start = layout.region_start(k);
            let seg_end = seg_start + region.payload_space;
            let mut spans: Vec<Extent> = set
                .settled
                .iter()
                .chain(set.fresh.iter())
                .map(|&(cap, off)| Extent::new(off, cap))
                .collect();
            for span in &spans {
                if span.offset < seg_start || span.end() > seg_end {
                    return Err(bad(format!(
                        "hole {span} escapes class-{k} payload [{seg_start}, {seg_end})"
                    )));
                }
                for slot in region.payload.iter() {
                    if span.overlaps(&Extent::new(slot.offset, slot.size)) {
                        let id = slot.id;
                        return Err(bad(format!("hole {span} overlaps live object {id}")));
                    }
                }
            }
            spans.sort_by_key(|e| e.offset);
            for pair in spans.windows(2) {
                if pair[0].overlaps(&pair[1]) {
                    return Err(bad(format!("holes {} and {} overlap", pair[0], pair[1])));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_common::{ObjectId, ReallocError, Reallocator};

    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn basic_insert_delete_cycle() {
        let mut r = NearlyQuadraticReallocator::new(0.5);
        r.insert(id(1), 100).unwrap();
        r.insert(id(2), 30).unwrap();
        r.delete(id(1)).unwrap();
        r.validate().unwrap();
        assert_eq!(r.live_count(), 1);
    }

    #[test]
    fn same_class_churn_recycles_without_movement() {
        let mut r = NearlyQuadraticReallocator::new(0.5);
        // Standing population large enough that the buffer absorbs all the
        // churn's dummy records: deletes then never trigger a flush, so
        // holes survive until the matching reinsert.
        for i in 0..200u64 {
            r.insert(id(i), 64).unwrap();
        }
        // Delete/insert churn in the same class: every insert whose delete
        // did not flush must be served from a hole with zero moves.
        let mut recycled_rounds = 0u32;
        for round in 0..30u64 {
            let del = r.delete(id(round)).unwrap();
            let before = r.recycled_inserts();
            let out = r.insert(id(1000 + round), 64).unwrap();
            r.validate().unwrap();
            if r.recycled_inserts() > before {
                recycled_rounds += 1;
                assert_eq!(out.move_count(), 0, "round {round} moved");
                assert!(!out.flushed, "round {round} flushed");
            } else {
                // The only way the hole vanishes is the delete's own flush.
                assert!(del.flushed, "round {round} lost its hole without a flush");
            }
        }
        assert!(recycled_rounds >= 25, "only {recycled_rounds}/30 recycled");
    }

    #[test]
    fn recycling_defers_flushes_vs_checkpointed() {
        use crate::checkpointed::CheckpointedReallocator;
        let mut nq = NearlyQuadraticReallocator::new(0.25);
        let mut ck = CheckpointedReallocator::new(0.25);
        let mut moved_nq = 0u64;
        let mut moved_ck = 0u64;
        // Same churn stream through both variants.
        for i in 0..60u64 {
            let s = 16 + (i * 7) % 16;
            moved_nq += nq.insert(id(i), s).unwrap().moved_volume();
            moved_ck += ck.insert(id(i), s).unwrap().moved_volume();
        }
        for i in 0..400u64 {
            let victim = if i < 60 { i } else { 1000 + i - 60 };
            moved_nq += nq.delete(id(victim)).unwrap().moved_volume();
            moved_ck += ck.delete(id(victim)).unwrap().moved_volume();
            let s = 16 + (i * 11) % 16;
            moved_nq += nq.insert(id(1000 + i), s).unwrap().moved_volume();
            moved_ck += ck.insert(id(1000 + i), s).unwrap().moved_volume();
            nq.validate().unwrap();
        }
        assert_eq!(nq.live_count(), ck.live_count());
        assert!(
            moved_nq < moved_ck,
            "recycling should beat the 2014 variant on cancelling churn: \
             {moved_nq} vs {moved_ck}"
        );
        assert!(nq.flush_count() < ck.flush_count());
    }

    #[test]
    fn footprint_bound_after_every_request() {
        let mut r = NearlyQuadraticReallocator::new(0.25);
        let sizes: Vec<u64> = (0..200).map(|i| 1 + (i * 7) % 120).collect();
        for (i, &s) in sizes.iter().enumerate() {
            r.insert(id(i as u64), s).unwrap();
            r.validate().unwrap();
            let bound = 1.25 * r.live_volume() as f64;
            assert!(r.structure_size() as f64 <= bound + 1e-9);
        }
        for i in (0..200u64).step_by(3) {
            r.delete(id(i)).unwrap();
            r.validate().unwrap();
            let bound = 1.25 * r.live_volume() as f64;
            assert!(r.structure_size() as f64 <= bound + 1e-9);
        }
    }

    #[test]
    fn moves_never_overlap_their_source() {
        let mut r = NearlyQuadraticReallocator::new(0.5);
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
    fn fresh_hole_reuse_blocks_on_a_barrier() {
        let mut r = NearlyQuadraticReallocator::new(0.5);
        for i in 0..20u64 {
            r.insert(id(i), 32).unwrap();
        }
        // This delete leaves a fresh hole (freed after any prior barrier).
        r.delete(id(3)).unwrap();
        let out = r.insert(id(100), 32).unwrap();
        if out
            .ops
            .iter()
            .any(|o| matches!(o, StorageOp::Allocate { .. }))
            && out.move_count() == 0
            && !out.flushed
            && r.recycled_inserts() > 0
        {
            // Recycled: the barrier must precede the allocate.
            assert!(matches!(out.ops[0], StorageOp::CheckpointBarrier));
            assert_eq!(out.checkpoints(), 1);
        }
        // A second round reuses a settled hole without a new barrier.
        r.delete(id(4)).unwrap();
        r.delete(id(5)).unwrap();
        let out = r.insert(id(101), 32).unwrap();
        let out2 = r.insert(id(102), 32).unwrap();
        let barriers: usize = [&out, &out2]
            .iter()
            .flat_map(|o| o.ops.iter())
            .filter(|o| matches!(o, StorageOp::CheckpointBarrier))
            .count();
        assert!(barriers <= 1, "one barrier settles every fresh hole");
        r.validate().unwrap();
    }

    #[test]
    fn strict_replay_of_churn_stream() {
        use storage_sim::{Mode, SimStore};
        let mut r = NearlyQuadraticReallocator::new(0.25);
        let mut store = SimStore::new(Mode::Strict);
        let apply = |out: &Outcome, store: &mut SimStore| {
            for op in &out.ops {
                store.apply(op).unwrap();
            }
        };
        for i in 0..80u64 {
            let out = r.insert(id(i), 1 + (i * 13) % 100).unwrap();
            apply(&out, &mut store);
        }
        for i in 0..120u64 {
            let victim = if i < 80 { i } else { 500 + i - 80 };
            let out = r.delete(id(victim)).unwrap();
            apply(&out, &mut store);
            let out = r.insert(id(500 + i), 1 + (i * 17) % 100).unwrap();
            apply(&out, &mut store);
            r.validate().unwrap();
        }
    }

    #[test]
    fn strict_replay_with_buffered_deletes() {
        use storage_sim::{Mode, SimStore};
        // Regression: a buffered object's delete turns its own slot into
        // the tombstone and frees that span in place. If cancellation pops
        // it before the next barrier, a later buffered insert rewrites the
        // fresh-freed span and the strict substrate rejects the stream —
        // so half the touches here hit the *youngest* insert (still
        // buffered) while same-size reinserts keep recycling holes.
        let mut r = NearlyQuadraticReallocator::new(0.25);
        let mut store = SimStore::new(Mode::Strict);
        let apply = |out: &Outcome, store: &mut SimStore| {
            for op in &out.ops {
                store.apply(op).unwrap();
            }
        };
        for i in 0..200u64 {
            let out = r.insert(id(i), 64).unwrap();
            apply(&out, &mut store);
        }
        let mut next = 1000u64;
        let mut oldest = 0u64;
        for _ in 0..40u32 {
            // Two payload deletes leave two fresh holes (plus two trailing
            // 64-cell tombstones).
            for _ in 0..2 {
                let out = r.delete(id(oldest)).unwrap();
                oldest += 1;
                apply(&out, &mut store);
            }
            // Recycling the first hole emits a barrier (it is fresh) and
            // settles the second; cancellation pops one 64-cell tombstone.
            let out = r.insert(id(next), 64).unwrap();
            next += 1;
            apply(&out, &mut store);
            // A small insert lands at the buffer tail, and its immediate
            // delete frees that span in place — a *fresh* tombstone.
            let small = next;
            next += 1;
            let out = r.insert(id(small), 8).unwrap();
            apply(&out, &mut store);
            let out = r.delete(id(small)).unwrap();
            apply(&out, &mut store);
            // Recycling the settled hole needs no barrier; if cancellation
            // popped the fresh 8-cell tombstone here, the next buffered
            // insert would rewrite its span and the strict store would
            // reject the Allocate below.
            let out = r.insert(id(next), 64).unwrap();
            next += 1;
            apply(&out, &mut store);
            let out = r.insert(id(next), 8).unwrap();
            next += 1;
            apply(&out, &mut store);
            r.validate().unwrap();
        }
    }

    #[test]
    fn holes_cleared_by_flush_rebuild() {
        let mut r = NearlyQuadraticReallocator::new(0.5);
        for i in 0..50u64 {
            r.insert(id(i), 40).unwrap();
        }
        for i in 0..10u64 {
            r.delete(id(i)).unwrap();
        }
        // Force flushes with a different class until one rebuilds class 5.
        for n in 200..400u64 {
            r.insert(id(n), 3).unwrap();
        }
        r.validate().unwrap();
    }

    #[test]
    fn duplicate_and_zero_size_rejected() {
        let mut r = NearlyQuadraticReallocator::new(0.5);
        assert!(matches!(r.insert(id(1), 0), Err(ReallocError::ZeroSize)));
        r.insert(id(1), 8).unwrap();
        assert!(matches!(
            r.insert(id(1), 8),
            Err(ReallocError::DuplicateId(_))
        ));
        assert!(matches!(r.delete(id(9)), Err(ReallocError::UnknownId(_))));
    }
}

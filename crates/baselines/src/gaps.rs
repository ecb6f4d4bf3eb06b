//! The size-class-gaps reallocator sketched in the paper's §2 intuition
//! (after Bender, Fekete, Kamphans, Schweer 2009, *Maintaining Arrays of
//! Contiguous Objects*).
//!
//! Objects are rounded up to power-of-two slots and grouped by ascending
//! size class; between class `i` and the next class there may be gap cells.
//! An insert with no gap available *displaces* the first object of the next
//! nonempty class and recursively reinserts it — a cascade touching at most
//! one object per class. Per insert that is `O(log ∆)` moves of
//! geometrically growing sizes:
//!
//! * under `f(w) = 1` the amortized cost is `O(1)`-ish (most inserts find a
//!   gap; cascades are rare and their per-class costs telescope);
//! * under `f(w) = w` each cascade costs `Θ(∆)` — i.e. `Θ(log ∆)` per unit
//!   inserted — which is exactly why the paper wants cost obliviousness.
//!
//! Deletes (not covered by the paper's sketch) are handled by swapping the
//! class's last object into the hole (one move, same class) and reclaiming
//! the vacated slot as gap; a global compaction rebuilds the layout dense
//! when gap cells exceed the live slot volume.

use std::collections::{HashMap, VecDeque};

use realloc_common::{Extent, ObjectId, Outcome, ReallocError, Reallocator, StorageOp};

#[derive(Debug, Clone, Default)]
struct ClassRegion {
    /// Absolute start of the class's slot run.
    start: u64,
    /// Objects in slot order; always dense (no interior holes).
    slots: VecDeque<ObjectId>,
    /// Free cells between this class's last slot and the next class.
    gap_cells: u64,
}

impl ClassRegion {
    fn end(&self, class: u32) -> u64 {
        self.start + ((self.slots.len() as u64) << class)
    }
}

/// The size-class-gaps allocator. Good for unit-like cost functions,
/// logarithmically bad for linear ones.
#[derive(Debug, Clone, Default)]
pub struct SizeClassGapsAllocator {
    classes: Vec<ClassRegion>,
    /// id -> (class, actual size, absolute offset).
    index: HashMap<ObjectId, (u32, u64, u64)>,
    volume: u64,
    /// Σ over objects of their slot size (2^class).
    slot_volume: u64,
    delta: u64,
    compactions: u64,
}

impl SizeClassGapsAllocator {
    /// An empty structure.
    pub fn new() -> Self {
        SizeClassGapsAllocator::default()
    }

    /// Number of global compactions performed.
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    fn slot_class(size: u64) -> u32 {
        size.next_power_of_two().trailing_zeros()
    }

    fn ensure_class(&mut self, k: u32) {
        if self.classes.len() <= k as usize {
            let end = self.total_space();
            let old_len = self.classes.len();
            self.classes
                .resize_with(k as usize + 1, ClassRegion::default);
            for c in &mut self.classes[old_len..] {
                c.start = end;
            }
        }
    }

    fn total_space(&self) -> u64 {
        self.classes
            .iter()
            .enumerate()
            .next_back()
            .map(|(k, c)| c.end(k as u32) + c.gap_cells)
            .unwrap_or(0)
    }

    /// Folds the gap cells of empty classes in `(k, next_nonempty)` into
    /// class `k`'s gap — a pure accounting relabel (the cells are physically
    /// contiguous) — and returns the next nonempty class, if any.
    fn relabel_gaps(&mut self, k: u32) -> Option<u32> {
        let mut next = None;
        let mut absorbed = 0;
        for j in (k as usize + 1)..self.classes.len() {
            if self.classes[j].slots.is_empty() {
                absorbed += self.classes[j].gap_cells;
                self.classes[j].gap_cells = 0;
            } else {
                next = Some(j as u32);
                break;
            }
        }
        self.classes[k as usize].gap_cells += absorbed;
        // Keep empty classes' starts consistent with the invariant
        // start_{j+1} = start_j + slots·2^j + gap_j.
        for j in (k as usize + 1)..self.classes.len() {
            let prev_end = self.classes[j - 1].end(j as u32 - 1) + self.classes[j - 1].gap_cells;
            if self.classes[j].slots.is_empty() {
                self.classes[j].start = prev_end;
            } else {
                break;
            }
        }
        next
    }

    /// Places `id` (actual `size`) into class `k`, cascading displacements
    /// upward. The deepest (largest-class) displacement is pushed onto
    /// `chain` first, so the chain is already in the top-down order that
    /// vacates every move's target before it is written.
    fn cascade(
        &mut self,
        k: u32,
        id: ObjectId,
        size: u64,
        chain: &mut Vec<(ObjectId, Extent, u64)>,
    ) {
        let slot = 1u64 << k;
        let next = self.relabel_gaps(k);
        let region_end = self.classes[k as usize].end(k);

        if self.classes[k as usize].gap_cells >= slot {
            // Gap available: place at the class's end.
            self.classes[k as usize].gap_cells -= slot;
        } else if let Some(j) = next {
            // Displace the first object of the next nonempty class.
            let jslot = 1u64 << j;
            let victim = self.classes[j as usize]
                .slots
                .pop_front()
                .expect("nonempty");
            let (vclass, vsize, voffset) = self.index[&victim];
            debug_assert_eq!(vclass, j);
            debug_assert_eq!(voffset, self.classes[j as usize].start);
            self.classes[j as usize].start += jslot;
            self.classes[k as usize].gap_cells += jslot;
            self.classes[k as usize].gap_cells -= slot;
            // Recursively reinsert the victim into its own class (it keeps
            // its class; only its position changes).
            self.cascade(j, victim, vsize, chain);
            chain.push((victim, Extent::new(voffset, vsize), self.index[&victim].2));
        } else {
            // Largest nonempty class: extend the structure.
            let have = self.classes[k as usize].gap_cells;
            self.classes[k as usize].gap_cells = have.saturating_sub(slot);
        }

        self.classes[k as usize].slots.push_back(id);
        self.index.insert(id, (k, size, region_end));
        self.fix_starts_above(k);
    }

    /// Restores `start` consistency for classes above `k` after class `k`
    /// changed extent.
    fn fix_starts_above(&mut self, k: u32) {
        for j in (k as usize + 1)..self.classes.len() {
            let prev_end = self.classes[j - 1].end(j as u32 - 1) + self.classes[j - 1].gap_cells;
            if self.classes[j].slots.is_empty() {
                self.classes[j].start = prev_end;
            } else {
                debug_assert!(self.classes[j].start >= prev_end);
                break;
            }
        }
    }

    /// Rebuilds the layout dense (zero gaps), emitting the necessary moves.
    fn compact(&mut self, ops: &mut Vec<StorageOp>) {
        let mut cursor = 0u64;
        for k in 0..self.classes.len() {
            let slot = 1u64 << k;
            let ids: Vec<ObjectId> = self.classes[k].slots.iter().copied().collect();
            self.classes[k].start = cursor;
            self.classes[k].gap_cells = 0;
            for id in ids {
                let (class, size, offset) = self.index[&id];
                debug_assert_eq!(class as usize, k);
                if offset != cursor {
                    ops.push(StorageOp::Move {
                        id,
                        from: Extent::new(offset, size),
                        to: Extent::new(cursor, size),
                    });
                    self.index.insert(id, (class, size, cursor));
                }
                cursor += slot;
            }
        }
        self.compactions += 1;
    }
}

impl Reallocator for SizeClassGapsAllocator {
    fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
        if size == 0 {
            return Err(ReallocError::ZeroSize);
        }
        if self.index.contains_key(&id) {
            return Err(ReallocError::DuplicateId(id));
        }
        let k = Self::slot_class(size);
        self.ensure_class(k);

        let mut chain = Vec::new();
        self.cascade(k, id, size, &mut chain);
        // `chain` is already top-down (the deepest recursion pushes first),
        // which is the order that vacates every target before it is written.
        let mut ops: Vec<StorageOp> = chain
            .iter()
            .map(|&(oid, from, to_off)| StorageOp::Move {
                id: oid,
                from,
                to: Extent::new(to_off, from.len),
            })
            .collect();
        ops.push(StorageOp::Allocate {
            id,
            to: Extent::new(self.index[&id].2, size),
        });

        self.volume += size;
        self.slot_volume += 1u64 << k;
        self.delta = self.delta.max(size);
        Ok(Outcome {
            flushed: !chain.is_empty(),
            peak_structure_size: self.total_space(),
            ops,
        })
    }

    fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
        let (k, size, offset) = self.index.remove(&id).ok_or(ReallocError::UnknownId(id))?;
        let slot = 1u64 << k;
        let region = &mut self.classes[k as usize];
        let idx = ((offset - region.start) / slot) as usize;
        let last = region.slots.len() - 1;

        let mut ops = vec![StorageOp::Free {
            id,
            at: Extent::new(offset, size),
        }];
        if idx != last {
            // Swap the class's last object into the hole: one same-class move.
            let mover = *region.slots.back().expect("nonempty");
            region.slots[idx] = mover;
            region.slots.pop_back();
            let (mclass, msize, moffset) = self.index[&mover];
            ops.push(StorageOp::Move {
                id: mover,
                from: Extent::new(moffset, msize),
                to: Extent::new(offset, msize),
            });
            self.index.insert(mover, (mclass, msize, offset));
        } else {
            region.slots.pop_back();
        }
        region.gap_cells += slot;
        self.volume -= size;
        self.slot_volume -= slot;
        self.fix_starts_above(k);

        let peak = self.total_space();
        let compacted = self.slot_volume > 0 && self.total_space() > 2 * self.slot_volume;
        if compacted {
            self.compact(&mut ops);
        } else if self.slot_volume == 0 {
            self.compact(&mut Vec::new()); // resets starts/gaps to zero
        }
        Ok(Outcome {
            ops,
            flushed: compacted,
            peak_structure_size: peak,
        })
    }

    fn extent_of(&self, id: ObjectId) -> Option<Extent> {
        self.index
            .get(&id)
            .map(|&(_, size, offset)| Extent::new(offset, size))
    }

    fn live_extents(&self) -> Vec<(ObjectId, Extent)> {
        self.index
            .iter()
            .map(|(&id, &(_, size, offset))| (id, Extent::new(offset, size)))
            .collect()
    }

    fn live_volume(&self) -> u64 {
        self.volume
    }

    fn structure_size(&self) -> u64 {
        self.total_space()
    }

    fn footprint(&self) -> u64 {
        self.classes
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.slots.is_empty())
            .map(|(k, c)| c.end(k as u32))
            .max()
            .unwrap_or(0)
    }

    fn max_object_size(&self) -> u64 {
        self.delta
    }

    fn name(&self) -> &'static str {
        "size-class-gaps"
    }

    fn live_count(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }

    /// Replays ops, checking chained extents and non-clobbering.
    fn check_stream(live: &mut HashMap<ObjectId, Extent>, ops: &[StorageOp]) {
        for op in ops {
            match *op {
                StorageOp::Allocate { id, to } => {
                    for (&o, &e) in live.iter() {
                        assert!(!e.overlaps(&to), "alloc {id} at {to} clobbers {o} at {e}");
                    }
                    live.insert(id, to);
                }
                StorageOp::Move { id, from, to } => {
                    assert_eq!(live[&id], from, "{id} from-extent mismatch");
                    live.remove(&id);
                    for (&o, &e) in live.iter() {
                        assert!(!e.overlaps(&to), "move {id} to {to} clobbers {o} at {e}");
                    }
                    live.insert(id, to);
                }
                StorageOp::Free { id, at } => {
                    assert_eq!(live.remove(&id), Some(at));
                }
                StorageOp::CheckpointBarrier => {}
            }
        }
    }

    #[test]
    fn classes_laid_out_ascending() {
        let mut a = SizeClassGapsAllocator::new();
        a.insert(id(1), 16).unwrap();
        a.insert(id(2), 2).unwrap();
        a.insert(id(3), 8).unwrap();
        let e1 = a.extent_of(id(1)).unwrap();
        let e2 = a.extent_of(id(2)).unwrap();
        let e3 = a.extent_of(id(3)).unwrap();
        assert!(
            e2.offset < e3.offset && e3.offset < e1.offset,
            "{e2} {e3} {e1}"
        );
    }

    #[test]
    fn cascade_displaces_one_object_per_class() {
        let mut a = SizeClassGapsAllocator::new();
        let mut live = HashMap::new();
        // Seed classes 0..=4 (one object each, no gaps after compact state).
        for (n, size) in [(0u64, 16u64), (1, 8), (2, 4), (3, 2), (4, 1)] {
            let out = a.insert(id(n), size).unwrap();
            check_stream(&mut live, &out.ops);
        }
        // Seeding leaves a one-cell gap after class 0; the first extra unit
        // insert consumes it, the second must cascade.
        let out = a.insert(id(9), 1).unwrap();
        check_stream(&mut live, &out.ops);
        let out = a.insert(id(10), 1).unwrap();
        check_stream(&mut live, &out.ops);
        assert!(out.flushed, "expected a cascade");
        // At most one displacement per class above class 0.
        assert!(out.move_count() <= 5, "{} moves", out.move_count());
        // All objects still addressable and disjoint.
        let mut extents: Vec<Extent> = live.values().copied().collect();
        extents.sort_by_key(|e| e.offset);
        for w in extents.windows(2) {
            assert!(!w[0].overlaps(&w[1]));
        }
    }

    #[test]
    fn cascade_cost_scales_with_delta_under_linear_f() {
        // The paper's point: a unit insert can move Θ(∆) volume.
        let run = |top_class: u32| -> u64 {
            let mut a = SizeClassGapsAllocator::new();
            for k in 0..=top_class {
                a.insert(id(k as u64), 1u64 << k).unwrap();
            }
            // Unit inserts; measure the worst moved volume.
            let mut worst = 0;
            for n in 0..50u64 {
                let out = a.insert(id(100 + n), 1).unwrap();
                worst = worst.max(out.moved_volume());
            }
            worst
        };
        let small = run(4);
        let large = run(8);
        assert!(
            large >= 2 * small,
            "cascade volume should grow with ∆: {small} vs {large}"
        );
    }

    #[test]
    fn delete_swaps_last_into_hole() {
        let mut a = SizeClassGapsAllocator::new();
        let mut live = HashMap::new();
        for n in 0..5u64 {
            let out = a.insert(id(n), 4).unwrap();
            check_stream(&mut live, &out.ops);
        }
        let first = a.extent_of(id(0)).unwrap();
        let out = a.delete(id(0)).unwrap();
        check_stream(&mut live, &out.ops);
        assert_eq!(out.move_count(), 1);
        // The last object now sits where object 0 was.
        assert_eq!(a.extent_of(id(4)).unwrap(), first);
    }

    #[test]
    fn footprint_stays_bounded_through_churn() {
        let mut a = SizeClassGapsAllocator::new();
        let mut live = HashMap::new();
        let mut alive = Vec::new();
        for n in 0..400u64 {
            let out = a.insert(id(n), 1 + (n * 7) % 50).unwrap();
            check_stream(&mut live, &out.ops);
            alive.push(n);
            if n % 2 == 1 {
                let v = alive.remove(((n as usize) * 13) % alive.len());
                let out = a.delete(id(v)).unwrap();
                check_stream(&mut live, &out.ops);
            }
            // Slot rounding ≤ 2x, gaps ≤ slot volume (compaction) ⇒ ≤ 4x+.
            if a.live_volume() > 0 {
                let ratio = a.structure_size() as f64 / a.live_volume() as f64;
                assert!(ratio <= 4.5, "footprint ratio {ratio}");
            }
        }
    }

    #[test]
    fn empties_then_refills() {
        let mut a = SizeClassGapsAllocator::new();
        for n in 0..10u64 {
            a.insert(id(n), 8).unwrap();
        }
        for n in 0..10u64 {
            a.delete(id(n)).unwrap();
        }
        assert_eq!(a.live_volume(), 0);
        assert_eq!(a.footprint(), 0);
        a.insert(id(100), 3).unwrap();
        assert_eq!(a.extent_of(id(100)).unwrap().offset, 0);
    }
}

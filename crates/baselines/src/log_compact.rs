//! The logging-and-compacting reallocator from the paper's §2 intuition.
//!
//! Allocate left to right; deletes leave holes; when a deallocation pushes
//! the footprint to `2·V`, compact everything. `(2, 2)`-competitive when
//! the cost function is linear — the `V` cells of reallocation are paid for
//! by the `V` cells deleted since the last compaction — but **terrible**
//! for unit cost: deleting `Θ(V/∆)` large objects forces a compaction that
//! moves every small object, i.e. `Θ(∆)` amortized unit cost per delete.
//! This asymmetry is half of the paper's case for cost obliviousness (the
//! size-class-gaps strategy is the other half).

use std::collections::HashMap;

use realloc_common::{Extent, ObjectId, Outcome, ReallocError, Reallocator, StorageOp};

/// Logging-and-compacting storage reallocator.
#[derive(Debug, Clone, Default)]
pub struct LogCompactAllocator {
    allocated: HashMap<ObjectId, Extent>,
    /// Log cursor: next allocation offset (= footprint).
    top: u64,
    volume: u64,
    delta: u64,
    compactions: u64,
}

impl LogCompactAllocator {
    /// An empty log.
    pub fn new() -> Self {
        LogCompactAllocator::default()
    }

    /// Number of full compactions performed.
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// Packs every live object to the front, in address order.
    fn compact(&mut self, ops: &mut Vec<StorageOp>) {
        let mut order: Vec<(ObjectId, Extent)> =
            self.allocated.iter().map(|(&id, &e)| (id, e)).collect();
        order.sort_unstable_by_key(|(_, e)| e.offset);
        let mut cursor = 0;
        for (id, from) in order {
            if from.offset != cursor {
                let to = Extent::new(cursor, from.len);
                ops.push(StorageOp::Move { id, from, to });
                self.allocated.insert(id, to);
            }
            cursor += from.len;
        }
        self.top = cursor;
        self.compactions += 1;
    }
}

impl Reallocator for LogCompactAllocator {
    fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
        if size == 0 {
            return Err(ReallocError::ZeroSize);
        }
        if self.allocated.contains_key(&id) {
            return Err(ReallocError::DuplicateId(id));
        }
        let ext = Extent::new(self.top, size);
        self.top += size;
        self.allocated.insert(id, ext);
        self.volume += size;
        self.delta = self.delta.max(size);
        Ok(Outcome {
            ops: vec![StorageOp::Allocate { id, to: ext }],
            flushed: false,
            peak_structure_size: self.top,
            checkpoints: 0,
        })
    }

    fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
        let ext = self
            .allocated
            .remove(&id)
            .ok_or(ReallocError::UnknownId(id))?;
        self.volume -= ext.len;
        let mut ops = vec![StorageOp::Free { id, at: ext }];
        let peak = self.top;
        // Trailing hole: the log shrinks for free (interior holes wait for
        // a compaction).
        if ext.end() == self.top {
            self.top = self.allocated.values().map(Extent::end).max().unwrap_or(0);
        }
        let compacted = self.volume > 0 && self.top >= 2 * self.volume;
        if compacted {
            self.compact(&mut ops);
        }
        Ok(Outcome {
            ops,
            flushed: compacted,
            peak_structure_size: peak,
            checkpoints: 0,
        })
    }

    fn extent_of(&self, id: ObjectId) -> Option<Extent> {
        self.allocated.get(&id).copied()
    }

    fn live_extents(&self) -> Vec<(ObjectId, Extent)> {
        self.allocated.iter().map(|(&id, &e)| (id, e)).collect()
    }

    fn live_volume(&self) -> u64 {
        self.volume
    }

    fn structure_size(&self) -> u64 {
        self.top
    }

    fn footprint(&self) -> u64 {
        self.top
    }

    fn max_object_size(&self) -> u64 {
        self.delta
    }

    fn name(&self) -> &'static str {
        "log-compact"
    }

    fn live_count(&self) -> usize {
        self.allocated.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn appends_at_the_end() {
        let mut a = LogCompactAllocator::new();
        a.insert(id(1), 10).unwrap();
        a.insert(id(2), 5).unwrap();
        assert_eq!(a.extent_of(id(2)).unwrap().offset, 10);
        assert_eq!(a.footprint(), 15);
    }

    #[test]
    fn footprint_never_exceeds_twice_volume_after_requests() {
        let mut a = LogCompactAllocator::new();
        for n in 0..100 {
            a.insert(id(n), 1 + n % 20).unwrap();
        }
        for n in (0..100).step_by(2) {
            a.delete(id(n)).unwrap();
            assert!(
                a.footprint() <= 2 * a.live_volume().max(1),
                "footprint {} > 2V {}",
                a.footprint(),
                a.live_volume()
            );
        }
    }

    #[test]
    fn compaction_moves_every_survivor() {
        let mut a = LogCompactAllocator::new();
        a.insert(id(0), 50).unwrap();
        for n in 1..=10 {
            a.insert(id(n), 1).unwrap();
        }
        // Deleting the big head forces footprint 60 vs volume 10 → compact.
        let out = a.delete(id(0)).unwrap();
        assert!(out.flushed, "compaction expected");
        assert_eq!(out.move_count(), 10, "all small objects moved");
        assert_eq!(a.footprint(), 10);
    }

    #[test]
    fn trailing_deletes_are_free() {
        let mut a = LogCompactAllocator::new();
        a.insert(id(0), 10).unwrap();
        a.insert(id(1), 10).unwrap();
        let out = a.delete(id(1)).unwrap();
        assert_eq!(out.move_count(), 0);
        assert_eq!(a.footprint(), 10);
    }

    #[test]
    fn unit_cost_disaster_shape() {
        // The §2 intuition: with many size-1 survivors and a FIFO of large
        // objects churning interior holes, every compaction drags all the
        // small survivors along.
        // Interleave: each ∆-sized object sits *below* a batch of small
        // survivors, so deleting the large objects leaves holes that only a
        // compaction dragging the smalls can reclaim.
        let mut a = LogCompactAllocator::new();
        let rounds = 4u64;
        for r in 0..rounds {
            a.insert(id(1000 + r), 64).unwrap();
            for n in 0..64 {
                a.insert(id(r * 64 + n), 1).unwrap();
            }
        }
        let mut moves = 0usize;
        for r in 0..rounds {
            let out = a.delete(id(1000 + r)).unwrap();
            moves += out.move_count();
        }
        // The compaction drags (almost) every small object: Θ(∆) unit cost
        // per large delete.
        assert!(
            moves as u64 >= rounds * 64 / 2,
            "expected the compaction to drag the small survivors, saw {moves} moves"
        );
    }
}

//! Classical no-move memory allocation over a coalescing free list.

use std::collections::{BTreeMap, HashMap};

use realloc_common::{Extent, ObjectId, Outcome, ReallocError, Reallocator, StorageOp};

/// Hole-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitStrategy {
    /// Lowest-address hole that fits.
    FirstFit,
    /// Smallest hole that fits (ties to the lowest address).
    BestFit,
    /// First fitting hole at or after the previous allocation (wrapping).
    NextFit,
}

/// A classical memory allocator: once placed, objects never move, so holes
/// left by deletes can only be reused, never squeezed out. The footprint
/// competitive ratio is `Ω(log ∆)` in the worst case (Luby et al. 1996) —
/// the bound the paper's reallocators escape.
#[derive(Debug, Clone)]
pub struct FreeListAllocator {
    strategy: FitStrategy,
    /// Holes below `top`, offset-keyed, always coalesced.
    holes: BTreeMap<u64, u64>,
    allocated: HashMap<ObjectId, Extent>,
    /// End of the structure; everything at/after `top` is untouched space.
    top: u64,
    /// Next-fit rover.
    rover: u64,
    volume: u64,
    delta: u64,
}

impl FreeListAllocator {
    /// An empty allocator using the given hole-selection policy.
    pub fn new(strategy: FitStrategy) -> Self {
        FreeListAllocator {
            strategy,
            holes: BTreeMap::new(),
            allocated: HashMap::new(),
            top: 0,
            rover: 0,
            volume: 0,
            delta: 0,
        }
    }

    /// The hole-selection policy in use.
    pub fn strategy(&self) -> FitStrategy {
        self.strategy
    }

    /// Picks a hole for `size` per strategy; returns its offset.
    fn pick_hole(&self, size: u64) -> Option<u64> {
        match self.strategy {
            FitStrategy::FirstFit => self
                .holes
                .iter()
                .find(|(_, &len)| len >= size)
                .map(|(&off, _)| off),
            FitStrategy::BestFit => self
                .holes
                .iter()
                .filter(|(_, &len)| len >= size)
                .min_by_key(|(&off, &len)| (len, off))
                .map(|(&off, _)| off),
            FitStrategy::NextFit => self
                .holes
                .range(self.rover..)
                .find(|(_, &len)| len >= size)
                .map(|(&off, _)| off)
                .or_else(|| {
                    self.holes
                        .range(..self.rover)
                        .find(|(_, &len)| len >= size)
                        .map(|(&off, _)| off)
                }),
        }
    }

    /// Carves `size` cells from the hole at `off`.
    fn take_from_hole(&mut self, off: u64, size: u64) {
        let len = self.holes.remove(&off).expect("picked hole exists");
        if len > size {
            self.holes.insert(off + size, len - size);
        }
    }

    /// Inserts a hole and coalesces with neighbours; trims the top.
    fn insert_hole(&mut self, mut off: u64, mut len: u64) {
        // Merge with predecessor.
        if let Some((&p_off, &p_len)) = self.holes.range(..off).next_back() {
            if p_off + p_len == off {
                self.holes.remove(&p_off);
                off = p_off;
                len += p_len;
            }
        }
        // Merge with successor.
        if let Some(&s_len) = self.holes.get(&(off + len)) {
            self.holes.remove(&(off + len));
            len += s_len;
        }
        if off + len == self.top {
            // Trailing hole: the structure shrinks instead.
            self.top = off;
        } else {
            self.holes.insert(off, len);
        }
    }
}

impl Reallocator for FreeListAllocator {
    fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
        if size == 0 {
            return Err(ReallocError::ZeroSize);
        }
        if self.allocated.contains_key(&id) {
            return Err(ReallocError::DuplicateId(id));
        }
        let offset = match self.pick_hole(size) {
            Some(off) => {
                self.take_from_hole(off, size);
                off
            }
            None => {
                let off = self.top;
                self.top += size;
                off
            }
        };
        if self.strategy == FitStrategy::NextFit {
            self.rover = offset + size;
        }
        let ext = Extent::new(offset, size);
        self.allocated.insert(id, ext);
        self.volume += size;
        self.delta = self.delta.max(size);
        Ok(Outcome {
            ops: vec![StorageOp::Allocate { id, to: ext }],
            flushed: false,
            peak_structure_size: self.top,
        })
    }

    fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
        let ext = self
            .allocated
            .remove(&id)
            .ok_or(ReallocError::UnknownId(id))?;
        self.volume -= ext.len;
        self.insert_hole(ext.offset, ext.len);
        Ok(Outcome {
            ops: vec![StorageOp::Free { id, at: ext }],
            flushed: false,
            peak_structure_size: self.top,
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
        match self.strategy {
            FitStrategy::FirstFit => "first-fit",
            FitStrategy::BestFit => "best-fit",
            FitStrategy::NextFit => "next-fit",
        }
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
    fn sequential_allocation_is_compact() {
        let mut a = FreeListAllocator::new(FitStrategy::FirstFit);
        a.insert(id(1), 10).unwrap();
        a.insert(id(2), 20).unwrap();
        assert_eq!(a.extent_of(id(1)), Some(Extent::new(0, 10)));
        assert_eq!(a.extent_of(id(2)), Some(Extent::new(10, 20)));
        assert_eq!(a.footprint(), 30);
    }

    #[test]
    fn first_fit_reuses_lowest_hole() {
        let mut a = FreeListAllocator::new(FitStrategy::FirstFit);
        for n in 0..4 {
            a.insert(id(n), 10).unwrap();
        }
        a.delete(id(0)).unwrap();
        a.delete(id(2)).unwrap();
        a.insert(id(10), 8).unwrap();
        assert_eq!(a.extent_of(id(10)).unwrap().offset, 0);
    }

    #[test]
    fn best_fit_reuses_tightest_hole() {
        let mut a = FreeListAllocator::new(FitStrategy::BestFit);
        a.insert(id(0), 10).unwrap();
        a.insert(id(1), 5).unwrap();
        a.insert(id(2), 8).unwrap();
        a.insert(id(3), 5).unwrap();
        a.delete(id(0)).unwrap(); // hole [0,10)
        a.delete(id(2)).unwrap(); // hole [15,23)
        a.insert(id(10), 7).unwrap();
        assert_eq!(
            a.extent_of(id(10)).unwrap().offset,
            15,
            "chose the size-8 hole"
        );
    }

    #[test]
    fn next_fit_continues_from_rover() {
        let mut a = FreeListAllocator::new(FitStrategy::NextFit);
        for n in 0..6 {
            a.insert(id(n), 10).unwrap();
        }
        a.delete(id(0)).unwrap();
        a.delete(id(3)).unwrap();
        // Rover is at 60; wraps and finds hole at 0?  No: hole at 30 is
        // before rover, hole at 0 too; wrap finds the first from the start.
        a.insert(id(10), 10).unwrap();
        assert_eq!(a.extent_of(id(10)).unwrap().offset, 0);
        // Rover now 10: next allocation takes the hole at 30.
        a.insert(id(11), 10).unwrap();
        assert_eq!(a.extent_of(id(11)).unwrap().offset, 30);
    }

    #[test]
    fn holes_coalesce() {
        let mut a = FreeListAllocator::new(FitStrategy::FirstFit);
        for n in 0..3 {
            a.insert(id(n), 10).unwrap();
        }
        a.insert(id(9), 1).unwrap(); // guard so top doesn't shrink
        a.delete(id(0)).unwrap();
        a.delete(id(2)).unwrap();
        a.delete(id(1)).unwrap(); // merges all three into [0,30)
        a.insert(id(10), 30).unwrap();
        assert_eq!(a.extent_of(id(10)).unwrap().offset, 0);
    }

    #[test]
    fn trailing_delete_shrinks_footprint() {
        let mut a = FreeListAllocator::new(FitStrategy::FirstFit);
        a.insert(id(0), 10).unwrap();
        a.insert(id(1), 10).unwrap();
        a.delete(id(1)).unwrap();
        assert_eq!(a.footprint(), 10);
        a.delete(id(0)).unwrap();
        assert_eq!(a.footprint(), 0);
    }

    #[test]
    fn no_move_fragmentation_inflates_footprint() {
        // The phenomenon the paper's Figure 1 illustrates: holes that can
        // never be reused by bigger objects.
        let mut a = FreeListAllocator::new(FitStrategy::FirstFit);
        for n in 0..10 {
            a.insert(id(n), 1).unwrap();
        }
        for n in (0..10).step_by(2) {
            a.delete(id(n)).unwrap();
        }
        // Five 1-cell holes; a size-2 object fits none of them.
        a.insert(id(100), 2).unwrap();
        assert_eq!(a.extent_of(id(100)).unwrap().offset, 10);
        assert!(a.footprint() as f64 >= 2.0 * a.live_volume() as f64 * 0.85);
    }

    #[test]
    fn errors() {
        let mut a = FreeListAllocator::new(FitStrategy::FirstFit);
        a.insert(id(1), 4).unwrap();
        assert!(matches!(
            a.insert(id(1), 4),
            Err(ReallocError::DuplicateId(_))
        ));
        assert!(matches!(a.delete(id(2)), Err(ReallocError::UnknownId(_))));
        assert!(matches!(a.insert(id(3), 0), Err(ReallocError::ZeroSize)));
    }
}

//! Knowlton's buddy system (1965) — the classical no-move allocator with
//! power-of-two blocks and buddy coalescing.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use realloc_common::{Extent, ObjectId, Outcome, ReallocError, Reallocator, StorageOp};

/// A buddy allocator over a heap that doubles when exhausted. Blocks are
/// powers of two; objects are rounded up, so internal fragmentation alone
/// costs up to 2x. Objects never move.
#[derive(Debug, Clone, Default)]
pub struct BuddyAllocator {
    /// Free blocks per order: `free[k]` holds offsets of free `2^k` blocks.
    free: Vec<BTreeSet<u64>>,
    /// Heap size (power of two, 0 before first insert).
    heap: u64,
    allocated: HashMap<ObjectId, (Extent, u32)>, // placement + block order
    /// Multiset of allocated block end addresses (for O(log n) footprint).
    ends: BTreeMap<u64, usize>,
    volume: u64,
    delta: u64,
}

impl BuddyAllocator {
    /// An empty buddy heap.
    pub fn new() -> Self {
        BuddyAllocator::default()
    }

    fn order_of(size: u64) -> u32 {
        size.next_power_of_two().trailing_zeros()
    }

    fn ensure_order_capacity(&mut self, order: u32) {
        if self.free.len() <= order as usize {
            self.free.resize(order as usize + 1, BTreeSet::new());
        }
    }

    /// Grows the heap until a block of `order` exists.
    fn grow_until(&mut self, order: u32) {
        loop {
            if self.free.iter().skip(order as usize).any(|s| !s.is_empty()) {
                return;
            }
            if self.heap == 0 {
                self.heap = 1u64 << order;
                self.ensure_order_capacity(order);
                self.free[order as usize].insert(0);
            } else {
                // Doubling adds a free block the size of the old heap,
                // which may immediately coalesce with a fully-free old half.
                let k = self.heap.trailing_zeros();
                let old = self.heap;
                self.heap *= 2;
                self.ensure_order_capacity(k);
                self.coalesce(old, k);
            }
        }
    }

    /// Splits a free block of some order `>= order` down to `order`.
    fn carve(&mut self, order: u32) -> u64 {
        let from = (order as usize..self.free.len())
            .find(|&k| !self.free[k].is_empty())
            .expect("grow_until guaranteed a block");
        let off = *self.free[from].iter().next().expect("non-empty");
        self.free[from].remove(&off);
        let mut k = from as u32;
        while k > order {
            k -= 1;
            // Keep the low half, free the high half.
            self.free[k as usize].insert(off + (1u64 << k));
        }
        off
    }

    /// Coalesces the block at `off` of `order` with free buddies upward.
    fn coalesce(&mut self, mut off: u64, mut order: u32) {
        loop {
            let buddy = off ^ (1u64 << order);
            let next = order + 1;
            if (1u64 << next) > self.heap || !self.free[order as usize].remove(&buddy) {
                self.ensure_order_capacity(order);
                self.free[order as usize].insert(off);
                return;
            }
            off = off.min(buddy);
            order = next;
            self.ensure_order_capacity(order);
        }
    }
}

impl Reallocator for BuddyAllocator {
    fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
        if size == 0 {
            return Err(ReallocError::ZeroSize);
        }
        if self.allocated.contains_key(&id) {
            return Err(ReallocError::DuplicateId(id));
        }
        let order = Self::order_of(size);
        self.ensure_order_capacity(order);
        self.grow_until(order);
        let off = self.carve(order);
        let ext = Extent::new(off, size);
        self.allocated.insert(id, (ext, order));
        *self.ends.entry(off + (1u64 << order)).or_insert(0) += 1;
        self.volume += size;
        self.delta = self.delta.max(size);
        Ok(Outcome {
            ops: vec![StorageOp::Allocate { id, to: ext }],
            flushed: false,
            peak_structure_size: self.footprint(),
            checkpoints: 0,
        })
    }

    fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
        let (ext, order) = self
            .allocated
            .remove(&id)
            .ok_or(ReallocError::UnknownId(id))?;
        self.volume -= ext.len;
        let end = ext.offset + (1u64 << order);
        if let Some(n) = self.ends.get_mut(&end) {
            *n -= 1;
            if *n == 0 {
                self.ends.remove(&end);
            }
        }
        self.coalesce(ext.offset, order);
        Ok(Outcome {
            ops: vec![StorageOp::Free { id, at: ext }],
            flushed: false,
            peak_structure_size: self.footprint(),
            checkpoints: 0,
        })
    }

    fn extent_of(&self, id: ObjectId) -> Option<Extent> {
        self.allocated.get(&id).map(|&(e, _)| e)
    }

    fn live_extents(&self) -> Vec<(ObjectId, Extent)> {
        self.allocated
            .iter()
            .map(|(&id, &(e, _))| (id, e))
            .collect()
    }

    fn live_volume(&self) -> u64 {
        self.volume
    }

    fn structure_size(&self) -> u64 {
        self.footprint()
    }

    fn footprint(&self) -> u64 {
        self.ends.keys().next_back().copied().unwrap_or(0)
    }

    fn max_object_size(&self) -> u64 {
        self.delta
    }

    fn name(&self) -> &'static str {
        "buddy"
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
    fn allocates_power_of_two_blocks() {
        let mut a = BuddyAllocator::new();
        a.insert(id(1), 5).unwrap(); // block of 8
        a.insert(id(2), 8).unwrap(); // block of 8
        assert_eq!(a.extent_of(id(1)).unwrap().offset % 8, 0);
        assert_eq!(a.extent_of(id(2)).unwrap().offset % 8, 0);
        assert_ne!(
            a.extent_of(id(1)).unwrap().offset,
            a.extent_of(id(2)).unwrap().offset
        );
    }

    #[test]
    fn buddies_coalesce_for_reuse() {
        let mut a = BuddyAllocator::new();
        a.insert(id(1), 4).unwrap();
        a.insert(id(2), 4).unwrap();
        let f = a.footprint();
        a.delete(id(1)).unwrap();
        a.delete(id(2)).unwrap();
        // Coalesced back: a size-8 object fits in the same space.
        a.insert(id(3), 8).unwrap();
        assert!(a.footprint() <= f.max(8));
    }

    #[test]
    fn heap_doubles_as_needed() {
        let mut a = BuddyAllocator::new();
        for n in 0..20 {
            a.insert(id(n), 16).unwrap();
        }
        assert_eq!(a.live_count(), 20);
        // All placements disjoint.
        let mut extents: Vec<Extent> = (0..20).map(|n| a.extent_of(id(n)).unwrap()).collect();
        extents.sort_by_key(|e| e.offset);
        for w in extents.windows(2) {
            assert!(!w[0].overlaps(&w[1]));
        }
    }

    #[test]
    fn internal_fragmentation_inflates_footprint() {
        let mut a = BuddyAllocator::new();
        // Size 2^k + 1 wastes almost half of each block.
        for n in 0..8 {
            a.insert(id(n), 17).unwrap();
        }
        let ratio = a.footprint() as f64 / a.live_volume() as f64;
        assert!(
            ratio >= 1.5,
            "expected ≥1.5x internal fragmentation, got {ratio}"
        );
    }

    #[test]
    fn mixed_sizes_remain_disjoint_through_churn() {
        let mut a = BuddyAllocator::new();
        let mut live = Vec::new();
        for n in 0..200u64 {
            a.insert(id(n), 1 + (n * 13) % 60).unwrap();
            live.push(n);
            if n % 3 == 0 {
                let victim = live.remove((n as usize * 7) % live.len());
                a.delete(id(victim)).unwrap();
            }
        }
        let mut extents: Vec<Extent> = live.iter().map(|&n| a.extent_of(id(n)).unwrap()).collect();
        extents.sort_by_key(|e| e.offset);
        for w in extents.windows(2) {
            assert!(!w[0].overlaps(&w[1]), "{} overlaps {}", w[0], w[1]);
        }
    }
}

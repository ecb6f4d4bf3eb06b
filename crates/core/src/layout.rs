//! The size-class region layout shared by all four reallocator variants
//! (paper Figure 2 and Invariant 2.2), and the §2 serving steps they share.
//!
//! The address space is a sequence of *regions*, one per size class in
//! increasing class order, each comprising a *payload segment* followed by a
//! *buffer segment*. Regions for classes that have never held an object have
//! zero space. All offsets stored here are absolute addresses.
//!
//! A payload segment's objects are kept as a flat vector of slots in offset
//! order (`Segment`): a delete empties its slot in place, and a flush
//! clears the vector (keeping its capacity) and appends the rebuilt
//! objects, which it places in ascending offset order. Rebuilding a region
//! therefore costs one append per object and allocates nothing once the
//! vector has grown to the region's size.
//!
//! The object index gives every object a *handle*: `Layout.index` maps an
//! id to a slot of a slab of entries, and everything that stores an object
//! next to its position (payload slots, buffer entries, the flush records
//! in `plan`) stores its handle too. `admit` hashes the id once and hands
//! out the handle; every later write to the object's entry goes through
//! the handle, so a flush rewrites each rebuilt object's entry in place
//! and hashes nothing. A write through a handle asserts that the slot
//! still names the object. Only requests that name an object by id hash
//! it again: a delete and an extent query.
//!
//! Every variant serves a request with the same steps, written once here:
//! `admit` checks, indexes and accounts an insert, `open_class` places the
//! first object of a brand-new largest class, `buffer_object` puts an
//! insert in the earliest buffer with room, `release` detaches and
//! unaccounts a delete, `buffer_tombstone` charges a payload delete's dummy
//! record, and `served` reports a request that needed no flush. When a
//! buffer step finds no room the variant flushes: §2's memmove flush lives
//! in `amortized.rs`, and §3.2's checkpointed one is
//! `plan::flush_checkpointed`. The §2, §3.2 and FS'24 variants run these
//! steps in one order, written once in `size_class.rs`.

use std::cell::Cell;
use std::collections::{hash_map, HashMap};

use realloc_common::{size_class, Extent, ObjectId, Outcome, ReallocError, StorageOp};

/// The tunable `ε` of Theorem 2.1, with the paper's internal `ε′ = Θ(ε)`
/// fixed to `ε/3`.
///
/// `ε′ = ε/3` makes the steady-state bound exact: the structure holds at
/// most `(1+ε′)·Σ V_{f_i}(i)` space over at least `(1−ε′)·Σ V_{f_i}(i)`
/// live volume (Lemma 2.5), and `(1+ε/3)/(1−ε/3) ≤ 1+ε` for all `ε ≤ 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eps {
    eps: f64,
    prime: f64,
    pump_factor: f64,
}

impl Eps {
    /// Creates the parameter; the paper requires `0 < ε ≤ 1/2`.
    pub fn new(eps: f64) -> Self {
        assert!(
            eps > 0.0 && eps <= 0.5,
            "the paper requires 0 < ε ≤ 1/2, got {eps}"
        );
        Eps {
            eps,
            prime: eps / 3.0,
            pump_factor: 4.0,
        }
    }

    /// Ablation constructor: overrides the internal buffer fraction `ε′`
    /// (default `ε/3`) and the deamortized pump factor (default 4). Values
    /// of `ε′` above `ε/3` trade footprint for fewer/cheaper flushes; the
    /// `(1+ε)` footprint guarantee only holds for `ε′ ≤ ε/(2+ε)`.
    pub fn custom(eps: f64, prime: f64, pump_factor: f64) -> Self {
        assert!(
            eps > 0.0 && eps <= 0.5,
            "the paper requires 0 < ε ≤ 1/2, got {eps}"
        );
        assert!(prime > 0.0 && prime < 1.0, "ε′ must be in (0, 1)");
        assert!(pump_factor >= 1.0, "pump factor must be ≥ 1");
        Eps {
            eps,
            prime,
            pump_factor,
        }
    }

    /// The footprint slack `ε`.
    pub fn value(&self) -> f64 {
        self.eps
    }

    /// The internal `ε′` (default `ε/3`).
    pub fn prime(&self) -> f64 {
        self.prime
    }

    /// Buffer segment size for a payload of volume `v`: `⌊ε′·v⌋`
    /// (Invariant 2.4).
    pub fn buffer_quota(&self, v: u64) -> u64 {
        (self.prime * v as f64).floor() as u64
    }

    /// The deamortized structure's per-update work quota: `⌈(4/ε′)·w⌉`
    /// cells of flush progress per size-`w` update (Section 3.3).
    pub fn pump_quota(&self, w: u64) -> u64 {
        ((self.pump_factor / self.prime) * w as f64).ceil() as u64
    }
}

/// What occupies a slice of a buffer segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufKind {
    /// A live object and its index handle.
    Obj(ObjectId, u32),
    /// A dummy delete record: space charged for a recent delete
    /// (Section 2, "allocating and deallocating").
    Tombstone,
}

/// One entry in a buffer segment. Entries are kept in offset order and are
/// never reordered between flushes.
#[derive(Debug, Clone, Copy)]
pub struct BufEntry {
    /// Absolute address of the entry's space.
    pub offset: u64,
    /// Cells consumed (object size, or deleted object's size for a
    /// tombstone).
    pub size: u64,
    /// Size class of the (possibly deleted) object — what the boundary-class
    /// scan inspects.
    pub class: u32,
    /// Live object or dummy delete record.
    pub kind: BufKind,
}

/// One payload slot. `size == 0` marks a slot emptied by a delete: objects
/// are never zero-sized (`Layout::admit` rejects them).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub offset: u64,
    pub id: ObjectId,
    pub size: u64,
    /// The object's index handle.
    pub handle: u32,
}

/// The live objects of one payload segment, as slots in strictly ascending
/// offset order. It behaves as a map from absolute offset to
/// `(id, handle, size)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Segment {
    slots: Vec<Slot>,
    /// Slots not emptied.
    live: usize,
}

impl Segment {
    /// Places `(id, size)` at `offset`, replacing whatever lives there.
    /// Appends when `offset` lies past the last slot, which is how a flush
    /// rebuilds a region; otherwise refills or overwrites the slot at
    /// `offset`, or inserts a new one in order.
    pub(crate) fn insert(&mut self, offset: u64, id: ObjectId, handle: u32, size: u64) {
        assert_ne!(size, 0, "a zero size would read as an emptied slot");
        let slot = Slot {
            offset,
            id,
            size,
            handle,
        };
        if self.slots.last().is_none_or(|last| last.offset < offset) {
            self.slots.push(slot);
            self.live += 1;
            return;
        }
        match self.slots.binary_search_by_key(&offset, |s| s.offset) {
            Ok(i) => {
                if self.slots[i].size == 0 {
                    self.live += 1;
                }
                self.slots[i] = slot;
            }
            Err(i) => {
                self.slots.insert(i, slot);
                self.live += 1;
            }
        }
    }

    /// Empties the slot at `offset`, returning the `(id, size)` that lived
    /// there; `None` when no live object starts at `offset`.
    pub(crate) fn remove(&mut self, offset: u64) -> Option<(ObjectId, u64)> {
        let i = self
            .slots
            .binary_search_by_key(&offset, |s| s.offset)
            .ok()?;
        let slot = &mut self.slots[i];
        if slot.size == 0 {
            return None;
        }
        let removed = (slot.id, slot.size);
        slot.size = 0;
        self.live -= 1;
        Some(removed)
    }

    /// The live slots in ascending offset order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Slot> + '_ {
        self.slots.iter().filter(|s| s.size != 0)
    }

    /// Number of live objects.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Drops every slot, keeping the vector's capacity for the rebuild.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }
}

/// One region: the payload + buffer pair dedicated to a size class.
#[derive(Debug, Clone, Default)]
pub struct Region {
    /// Reserved payload space. Equals `V_t(class)` as of this region's last
    /// flush (Invariant 2.4).
    pub payload_space: u64,
    /// Reserved buffer space, `⌊ε′·payload_space⌋` as of the last flush.
    pub buffer_space: u64,
    /// Live payload objects, with their handles, by absolute offset. A
    /// delete empties its slot; the region's next flush clears the segment
    /// and appends the rebuilt objects in offset order.
    pub(crate) payload: Segment,
    /// Live volume currently in the payload (holes excluded).
    pub payload_live: u64,
    /// Buffer entries in offset order (objects and tombstones).
    pub buffer: Vec<BufEntry>,
    /// Space consumed in the buffer, tombstones included.
    pub buffer_used: u64,
}

impl Region {
    /// Total region width.
    pub fn space(&self) -> u64 {
        self.payload_space + self.buffer_space
    }

    /// Free space remaining in the buffer segment.
    pub fn buffer_free(&self) -> u64 {
        self.buffer_space - self.buffer_used
    }
}

/// Where an object currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// In its class's payload segment.
    Payload,
    /// In the buffer segment of region `.0` (≥ the object's class).
    Buffer(u32),
    /// In the deamortized structure's tail buffer.
    Tail,
    /// Parked in the overflow/staging segment mid-flush.
    Staging,
    /// Written into the deamortized structure's log.
    Log,
}

/// Index entry for a live object.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Object length in cells.
    pub size: u64,
    /// The object's size class.
    pub class: u32,
    /// Absolute address of its first cell.
    pub offset: u64,
    /// Which segment currently holds it.
    pub place: Place,
}

impl Entry {
    /// The object's current placement as an extent.
    pub fn extent(&self) -> Extent {
        Extent::new(self.offset, self.size)
    }
}

/// An insert the layout has admitted: indexed under a handle, not yet
/// placed. (§3.3's drain re-places a logged insert, which carries its
/// handle, the same way.) Only this crate makes or reads one.
#[derive(Debug, Clone, Copy)]
pub struct Admitted {
    pub(crate) id: ObjectId,
    pub(crate) handle: u32,
    pub(crate) size: u64,
    pub(crate) class: u32,
}

/// Read-only view of one region, for rendering and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionView {
    /// The region's size class.
    pub class: u32,
    /// Absolute start address.
    pub start: u64,
    /// Reserved payload space.
    pub payload_space: u64,
    /// Reserved buffer space.
    pub buffer_space: u64,
    /// Live volume in the payload (holes excluded).
    pub payload_live: u64,
    /// Space consumed in the buffer (tombstones included).
    pub buffer_used: u64,
    /// Number of live payload objects.
    pub payload_objects: usize,
    /// Number of buffer entries (objects + tombstones).
    pub buffer_entries: usize,
}

/// The region layout plus the object index — everything Invariant 2.2
/// constrains.
#[derive(Debug, Clone)]
pub struct Layout {
    pub(crate) eps: Eps,
    pub(crate) regions: Vec<Region>,
    /// Every active object's handle: the slot of `slab` holding its entry.
    /// Keyed by SipHash, because the keys are client ids (any `ObjectId` a
    /// caller passes to `insert`).
    pub(crate) index: HashMap<ObjectId, u32>,
    /// Index entries by handle. Slot `h` holds the object `index` maps to
    /// `h`, or is vacant (`size == 0`, and `h` is on `free`); a handle
    /// stays the object's until it is deleted.
    pub(crate) slab: Vec<(ObjectId, Entry)>,
    /// Vacant slab slots, reused (last freed first) before the slab grows.
    pub(crate) free: Vec<u32>,
    /// `V_t(class)`: volume per class as `account_insert` and
    /// `account_delete` leave it; this drives flush sizing.
    pub(crate) class_volume: Vec<u64>,
    /// Σ class_volume, kept so `live_volume` is O(1): the serving layer and
    /// the harness query it once per request.
    pub(crate) volume: u64,
    /// `∆`: largest object size ever inserted.
    pub(crate) delta: u64,
    /// Cached `max over the index of extent end` — the paper's footprint —
    /// maintained incrementally (like `volume` is for `live_volume`) so
    /// `last_object_end` reads are O(1) instead of a scan over live
    /// objects. Writes that can only *raise* the max update the cache in
    /// place; a write that removes or lowers the frontier-defining entry
    /// flips `footprint_dirty` instead, and the next read rescans once. Eager ordered structures (a `BTreeSet` of
    /// ends, then a lazy max-heap) were tried first and measurably
    /// throttled the serve path — every flush reindexes its whole suffix,
    /// so per-write cost is what matters. Cross-checked by `validate`.
    pub(crate) footprint_cache: Cell<u64>,
    /// Whether `footprint_cache` may overstate the footprint (the entry
    /// that defined it was removed or moved down) and the next read must
    /// rescan.
    pub(crate) footprint_dirty: Cell<bool>,
}

impl Layout {
    /// An empty layout with the given parameter.
    pub fn new(eps: Eps) -> Self {
        Layout {
            eps,
            regions: Vec::new(),
            index: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            class_volume: Vec::new(),
            volume: 0,
            delta: 0,
            footprint_cache: Cell::new(0),
            footprint_dirty: Cell::new(false),
        }
    }

    /// The footprint parameter.
    pub fn eps(&self) -> Eps {
        self.eps
    }

    /// Number of size classes with allocated regions (some may be empty).
    pub fn class_count(&self) -> usize {
        self.regions.len()
    }

    /// Absolute start of region `k` (prefix sum of earlier regions).
    pub fn region_start(&self, k: u32) -> u64 {
        self.regions[..k as usize].iter().map(Region::space).sum()
    }

    /// Absolute start of region `k`'s buffer segment.
    pub fn buffer_start(&self, k: u32) -> u64 {
        self.region_start(k) + self.regions[k as usize].payload_space
    }

    /// End of the last region — the structure size of the §2 algorithm.
    pub fn regions_end(&self) -> u64 {
        self.regions.iter().map(Region::space).sum()
    }

    /// End of the last *object* (the paper's footprint; `<= regions_end()`
    /// except for transient mid-flush placements). O(1) on the vast
    /// majority of calls: the max is tracked incrementally by every index
    /// write (see `footprint_cache`); only a call following the removal —
    /// or downward move — of the frontier-defining object rescans, so
    /// per-request callers no longer pay O(live objects) per query.
    pub fn last_object_end(&self) -> u64 {
        if self.footprint_dirty.get() {
            let max = self
                .entries()
                .map(|(_, e)| e.extent().end())
                .max()
                .unwrap_or(0);
            self.footprint_cache.set(max);
            self.footprint_dirty.set(false);
        }
        self.footprint_cache.get()
    }

    /// Folds one index write into the footprint cache: `old_end` is the
    /// entry's previous extent end. O(1).
    fn note_end_write(&self, old_end: u64, new_end: u64) {
        // Shrinking the frontier entry invalidates the cached max (>=
        // rather than ==: transient mid-flush placements may alias the
        // frontier address, and a stale `dirty` only costs a scan).
        if old_end > new_end && old_end >= self.footprint_cache.get() {
            self.footprint_dirty.set(true);
            return;
        }
        if new_end > self.footprint_cache.get() {
            self.footprint_cache.set(new_end);
        }
    }

    /// Folds one index removal into the footprint cache. O(1).
    fn note_end_removal(&self, end: u64) {
        if end >= self.footprint_cache.get() {
            self.footprint_dirty.set(true);
        }
    }

    /// Live volume `V`: Σ `V_t(class)`. O(1).
    pub fn live_volume(&self) -> u64 {
        self.volume
    }

    /// `∆`: the largest object size ever inserted.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Number of active objects.
    pub fn live_count(&self) -> usize {
        self.index.len()
    }

    /// Current placement of an active object.
    pub fn extent_of(&self, id: ObjectId) -> Option<Extent> {
        self.lookup(id).map(|(_, e)| e.extent())
    }

    /// Placements of every active object, in no particular order.
    pub fn live_extents(&self) -> Vec<(ObjectId, Extent)> {
        self.entries().map(|(id, e)| (id, e.extent())).collect()
    }

    /// An active object's handle and entry. Hashes `id`.
    pub(crate) fn lookup(&self, id: ObjectId) -> Option<(u32, Entry)> {
        let &handle = self.index.get(&id)?;
        Some((handle, self.slab[handle as usize].1))
    }

    /// Every active object and its entry, in handle order (vacant slots
    /// skipped).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (ObjectId, &Entry)> + '_ {
        self.slab
            .iter()
            .filter(|(_, e)| e.size != 0)
            .map(|(id, e)| (*id, e))
    }

    /// The entry behind `handle`, for a write.
    ///
    /// # Panics
    /// Panics unless the slot still names `id`: a handle that outlived its
    /// object (and may now name another) must never write.
    fn entry_mut(&mut self, id: ObjectId, handle: u32) -> &mut Entry {
        let (named, entry) = &mut self.slab[handle as usize];
        assert!(
            *named == id && entry.size != 0,
            "index handle {handle} does not name {id}"
        );
        entry
    }

    /// Read-only region views in class order.
    pub fn region_views(&self) -> Vec<RegionView> {
        let mut start = 0;
        self.regions
            .iter()
            .enumerate()
            .map(|(k, r)| {
                let view = RegionView {
                    class: k as u32,
                    start,
                    payload_space: r.payload_space,
                    buffer_space: r.buffer_space,
                    payload_live: r.payload_live,
                    buffer_used: r.buffer_used,
                    payload_objects: r.payload.len(),
                    buffer_entries: r.buffer.len(),
                };
                start += r.space();
                view
            })
            .collect()
    }

    /// Ensures regions `0..=k` exist (new ones zero-sized).
    pub(crate) fn ensure_class(&mut self, k: u32) {
        let need = k as usize + 1;
        if self.regions.len() < need {
            self.regions.resize_with(need, Region::default);
            self.class_volume.resize(need, 0);
        }
    }

    /// Admits an insert: rejects a zero size or an id that is still
    /// indexed, then indexes the object under a handle and accounts its
    /// volume. This is the one hash of the id on the insert's path. Returns
    /// the admitted object and whether its class is a brand-new largest
    /// one. The object is not placed yet: its entry sits at offset 0, so
    /// its end never exceeds the first placement's, which therefore folds
    /// into the footprint cache as a fresh entry would.
    pub(crate) fn admit(
        &mut self,
        id: ObjectId,
        size: u64,
    ) -> Result<(Admitted, bool), ReallocError> {
        if size == 0 {
            return Err(ReallocError::ZeroSize);
        }
        let hash_map::Entry::Vacant(vacant) = self.index.entry(id) else {
            return Err(ReallocError::DuplicateId(id));
        };
        let class = size_class(size);
        let unplaced = Entry {
            size,
            class,
            offset: 0,
            place: Place::Staging,
        };
        let handle = match self.free.pop() {
            Some(handle) => {
                self.slab[handle as usize] = (id, unplaced);
                handle
            }
            None => {
                let handle =
                    u32::try_from(self.slab.len()).expect("fewer than 2^32 active objects");
                self.slab.push((id, unplaced));
                handle
            }
        };
        vacant.insert(handle);
        let new_largest = class as usize >= self.class_count();
        self.account_insert(size);
        let obj = Admitted {
            id,
            handle,
            size,
            class,
        };
        Ok((obj, new_largest))
    }

    /// Creates the region for a brand-new largest size class and places the
    /// object in its payload (§2: total space grows by `w + ε′w`).
    pub(crate) fn open_class(&mut self, obj: Admitted) -> Outcome {
        let region = &mut self.regions[obj.class as usize];
        region.payload_space = obj.size;
        region.buffer_space = self.eps.buffer_quota(obj.size);
        let offset = self.region_start(obj.class);
        self.attach_payload(obj, offset);
        self.served(StorageOp::Allocate {
            id: obj.id,
            to: Extent::new(offset, obj.size),
        })
    }

    /// §2's insert rule: places the object in the earliest buffer of a
    /// region `>= class` with room for it and returns its offset, or `None`
    /// when no buffer fits (the caller flushes).
    pub(crate) fn buffer_object(&mut self, obj: Admitted) -> Option<u64> {
        let j = self.find_buffer(obj.class, obj.size)?;
        let kind = BufKind::Obj(obj.id, obj.handle);
        let offset = self.push_buffer_entry(j, obj.size, obj.class, kind);
        self.attach_buffered(obj, j, offset);
        Some(offset)
    }

    /// Charges a payload delete's dummy record to the earliest buffer of a
    /// region `>= class` with room for it. False when none fits (the caller
    /// flushes).
    pub(crate) fn buffer_tombstone(&mut self, class: u32, size: u64) -> bool {
        let Some(j) = self.find_buffer(class, size) else {
            return false;
        };
        self.push_buffer_entry(j, size, class, BufKind::Tombstone);
        true
    }

    /// Serves a delete's bookkeeping: detaches the object (leaving a hole or
    /// a tombstone, see [`Self::detach_object`]) and unaccounts its volume.
    /// Returns its former entry.
    pub(crate) fn release(&mut self, id: ObjectId) -> Result<Entry, ReallocError> {
        let entry = self.detach_object(id).ok_or(ReallocError::UnknownId(id))?;
        self.account_delete(entry.size, entry.class);
        Ok(entry)
    }

    /// The outcome of a request served by the single op `op`, with no flush.
    pub(crate) fn served(&self, op: StorageOp) -> Outcome {
        Outcome {
            ops: vec![op],
            flushed: false,
            peak_structure_size: self.regions_end(),
            checkpoints: 0,
        }
    }

    /// Registers a new object's volume (call before placement decisions so
    /// flush sizing sees it, per §2: "Vt(i) immediately increases to count
    /// the new object").
    pub(crate) fn account_insert(&mut self, size: u64) -> u32 {
        let k = size_class(size);
        self.ensure_class(k);
        self.class_volume[k as usize] += size;
        self.volume += size;
        self.delta = self.delta.max(size);
        k
    }

    /// Unregisters an object's volume.
    pub(crate) fn account_delete(&mut self, size: u64, class: u32) {
        self.class_volume[class as usize] -= size;
        self.volume -= size;
    }

    /// Earliest region `j >= class` whose buffer can absorb `size` more
    /// cells (insert/dummy placement rule of §2).
    pub(crate) fn find_buffer(&self, class: u32, size: u64) -> Option<u32> {
        (class..self.regions.len() as u32).find(|&j| self.regions[j as usize].buffer_free() >= size)
    }

    /// Appends an entry to region `j`'s buffer, returning its offset.
    /// Callers must have verified the space via [`Self::find_buffer`].
    pub(crate) fn push_buffer_entry(
        &mut self,
        j: u32,
        size: u64,
        class: u32,
        kind: BufKind,
    ) -> u64 {
        let offset = self.buffer_start(j) + self.regions[j as usize].buffer_used;
        let region = &mut self.regions[j as usize];
        region.buffer.push(BufEntry {
            offset,
            size,
            class,
            kind,
        });
        region.buffer_used += size;
        offset
    }

    /// The boundary size class `b` for a flush triggered by an object of
    /// class `trigger_class` (§2): the largest `b` such that every object
    /// (and tombstone) in buffers `>= b`, plus the trigger, has class
    /// `>= b`. Scans regions from largest to smallest.
    pub(crate) fn boundary_class(&self, trigger_class: u32) -> u32 {
        let mut min_seen = trigger_class;
        for j in (0..self.regions.len() as u32).rev() {
            for entry in &self.regions[j as usize].buffer {
                min_seen = min_seen.min(entry.class);
            }
            if j <= min_seen {
                return j;
            }
        }
        0
    }

    /// Live buffered objects in buffers of regions `>= b`, in (region,
    /// offset) order: the inputs to a flush's step 1.
    pub(crate) fn buffered_objects_with_offsets(&self, b: u32) -> Vec<crate::plan::FlushObj> {
        let mut out = Vec::new();
        for j in b..self.regions.len() as u32 {
            for entry in &self.regions[j as usize].buffer {
                if let BufKind::Obj(id, handle) = entry.kind {
                    out.push(crate::plan::FlushObj {
                        id,
                        handle,
                        size: entry.size,
                        class: entry.class,
                        offset: entry.offset,
                    });
                }
            }
        }
        out
    }

    /// Payload survivors of classes `>= b` in (class, offset) order: the
    /// inputs to a flush's compaction steps.
    pub(crate) fn survivors_from(&self, b: u32) -> Vec<crate::plan::FlushObj> {
        let mut out = Vec::new();
        for k in b..self.regions.len() as u32 {
            for slot in self.regions[k as usize].payload.iter() {
                out.push(crate::plan::FlushObj {
                    id: slot.id,
                    handle: slot.handle,
                    size: slot.size,
                    class: k,
                    offset: slot.offset,
                });
            }
        }
        out
    }

    /// Removes an object from the index and from whichever segment holds
    /// it, leaving a hole (payload) or a tombstone (buffer). Returns its
    /// former entry. Does not touch volume accounting.
    pub(crate) fn detach_object(&mut self, id: ObjectId) -> Option<Entry> {
        let (handle, entry) = self.remove_entry(id)?;
        self.vacate(id, handle, entry);
        Some(entry)
    }

    /// The segment half of [`Self::detach_object`], for an object `id`
    /// already removed from the index under `handle` with `entry`: empties
    /// its payload slot, or turns its buffer entry into its own dummy
    /// delete record.
    pub(crate) fn vacate(&mut self, id: ObjectId, handle: u32, entry: Entry) {
        match entry.place {
            Place::Payload => {
                let region = &mut self.regions[entry.class as usize];
                let removed = region.payload.remove(entry.offset);
                assert!(
                    matches!(removed, Some((rid, _)) if rid == id),
                    "payload slot of an indexed object holds it"
                );
                region.payload_live -= entry.size;
            }
            Place::Buffer(j) => {
                let region = &mut self.regions[j as usize];
                let slot = region
                    .buffer
                    .iter_mut()
                    .find(|e| e.offset == entry.offset)
                    .expect("buffer entry present for indexed object");
                debug_assert_eq!(slot.kind, BufKind::Obj(id, handle));
                // The object's own space becomes its dummy delete record.
                slot.kind = BufKind::Tombstone;
            }
            Place::Tail | Place::Staging | Place::Log => {
                // Variant-specific segments are managed by their owners.
            }
        }
    }

    /// Rewrites the entry behind `handle`, which must name `id` (see
    /// [`Self::entry_mut`]), keeping the footprint cache exact. Every index
    /// write goes through here or [`Self::admit`] / [`Self::remove_entry`]
    /// / [`Self::relocate`].
    pub(crate) fn write_entry(&mut self, id: ObjectId, handle: u32, entry: Entry) {
        let old = std::mem::replace(self.entry_mut(id, handle), entry);
        self.note_end_write(old.extent().end(), entry.extent().end());
    }

    /// Removes an object from the index only (no segment bookkeeping —
    /// callers managing variant-specific segments use this; everything else
    /// goes through [`Self::detach_object`]) and frees its handle for the
    /// next insert. Keeps the footprint cache exact. Returns the former
    /// handle and entry.
    pub(crate) fn remove_entry(&mut self, id: ObjectId) -> Option<(u32, Entry)> {
        let handle = self.index.remove(&id)?;
        let slot = self.entry_mut(id, handle);
        let entry = *slot;
        slot.size = 0;
        self.free.push(handle);
        self.note_end_removal(entry.extent().end());
        Some((handle, entry))
    }

    /// Whether `handle` still holds the active object `id` at `offset`:
    /// false once `id` is deleted, whether or not a later insert (of
    /// another id, or of `id` placed elsewhere) reused the handle. Hashes
    /// nothing.
    pub(crate) fn holds(&self, id: ObjectId, handle: u32, offset: u64) -> bool {
        let (named, entry) = &self.slab[handle as usize];
        *named == id && entry.size != 0 && entry.offset == offset
    }

    /// Moves an indexed object to `offset` in segment `place` without
    /// touching volume accounting (the incremental mid-flush executor's
    /// per-move index update). Writes through `handle`; hashes nothing.
    pub(crate) fn relocate(&mut self, id: ObjectId, handle: u32, offset: u64, place: Place) {
        let entry = self.entry_mut(id, handle);
        let old_end = entry.extent().end();
        entry.offset = offset;
        entry.place = place;
        let new_end = entry.extent().end();
        self.note_end_write(old_end, new_end);
    }

    /// Places an object into its class's payload at `offset` and writes its
    /// entry through its handle.
    pub(crate) fn attach_payload(&mut self, obj: Admitted, offset: u64) {
        let region = &mut self.regions[obj.class as usize];
        region.payload.insert(offset, obj.id, obj.handle, obj.size);
        region.payload_live += obj.size;
        self.write_entry(
            obj.id,
            obj.handle,
            Entry {
                size: obj.size,
                class: obj.class,
                offset,
                place: Place::Payload,
            },
        );
    }

    /// Records an object sitting in region `j`'s buffer at `offset` in its
    /// entry (the buffer entry itself must already exist via
    /// `push_buffer_entry`).
    pub(crate) fn attach_buffered(&mut self, obj: Admitted, j: u32, offset: u64) {
        self.write_entry(
            obj.id,
            obj.handle,
            Entry {
                size: obj.size,
                class: obj.class,
                offset,
                place: Place::Buffer(j),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps() -> Eps {
        Eps::new(0.3)
    }

    /// Admits object `id` of `size` (indexed under a handle, not placed).
    fn admit(l: &mut Layout, id: u64, size: u64) -> Admitted {
        l.admit(ObjectId(id), size).unwrap().0
    }

    #[test]
    fn eps_prime_is_a_third() {
        let e = Eps::new(0.3);
        assert!((e.prime() - 0.1).abs() < 1e-12);
        assert_eq!(e.buffer_quota(100), 10);
        assert_eq!(e.buffer_quota(9), 0); // floor
    }

    #[test]
    fn eps_steady_state_bound_holds_for_all_valid_eps() {
        // (1+ε′)/(1−ε′) ≤ 1+ε for ε′=ε/3 — the Lemma 2.5 constant.
        for i in 1..=50 {
            let eps = i as f64 / 100.0;
            let e = Eps::new(eps);
            let p = e.prime();
            assert!((1.0 + p) / (1.0 - p) <= 1.0 + eps + 1e-12, "ε={eps}");
        }
    }

    #[test]
    #[should_panic(expected = "0 < ε ≤ 1/2")]
    fn eps_rejects_out_of_range() {
        Eps::new(0.6);
    }

    #[test]
    fn pump_quota_matches_four_over_eps_prime() {
        let e = Eps::new(0.3); // ε′ = 0.1 → 40 cells per unit
        assert_eq!(e.pump_quota(1), 40);
        assert_eq!(e.pump_quota(10), 400);
    }

    #[test]
    fn eps_custom_overrides_prime_and_pump() {
        let e = Eps::custom(0.5, 0.25, 8.0);
        assert_eq!(e.value(), 0.5);
        assert_eq!(e.prime(), 0.25);
        assert_eq!(e.buffer_quota(100), 25);
        assert_eq!(e.pump_quota(10), 320); // (8/0.25)·10
    }

    #[test]
    #[should_panic(expected = "ε′ must be in (0, 1)")]
    fn eps_custom_rejects_bad_prime() {
        Eps::custom(0.5, 1.5, 4.0);
    }

    #[test]
    #[should_panic(expected = "pump factor")]
    fn eps_custom_rejects_bad_pump() {
        Eps::custom(0.5, 0.1, 0.5);
    }

    fn triples(s: &Segment) -> Vec<(u64, ObjectId, u64)> {
        s.iter().map(|s| (s.offset, s.id, s.size)).collect()
    }

    #[test]
    fn segment_appends_past_the_last_slot() {
        let mut s = Segment::default();
        s.insert(0, ObjectId(1), 1, 4);
        s.insert(4, ObjectId(2), 2, 5);
        s.insert(20, ObjectId(3), 3, 6);
        assert_eq!(
            triples(&s),
            [
                (0, ObjectId(1), 4),
                (4, ObjectId(2), 5),
                (20, ObjectId(3), 6)
            ]
        );
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn segment_refills_an_emptied_slot_in_place() {
        let mut s = Segment::default();
        s.insert(0, ObjectId(1), 1, 4);
        s.insert(4, ObjectId(2), 2, 5);
        s.insert(9, ObjectId(3), 3, 4);
        assert_eq!(s.remove(4), Some((ObjectId(2), 5)));
        s.insert(4, ObjectId(7), 7, 4);
        assert_eq!(s.slots.len(), 3, "a refill adds no slot");
        assert_eq!(
            triples(&s),
            [
                (0, ObjectId(1), 4),
                (4, ObjectId(7), 4),
                (9, ObjectId(3), 4)
            ]
        );
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn segment_inserts_out_of_order_and_overwrites_live_slots() {
        let mut s = Segment::default();
        s.insert(20, ObjectId(1), 1, 4);
        s.insert(5, ObjectId(2), 2, 4);
        s.insert(10, ObjectId(3), 3, 4);
        // Like `BTreeMap::insert`, a live slot's object is replaced.
        s.insert(10, ObjectId(4), 4, 6);
        assert_eq!(
            triples(&s),
            [
                (5, ObjectId(2), 4),
                (10, ObjectId(4), 6),
                (20, ObjectId(1), 4)
            ]
        );
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn segment_remove_of_an_emptied_or_missing_offset_is_none() {
        let mut s = Segment::default();
        assert_eq!(s.remove(0), None, "empty segment");
        s.insert(0, ObjectId(1), 1, 4);
        s.insert(8, ObjectId(2), 2, 4);
        assert_eq!(s.remove(3), None, "no object starts there");
        assert_eq!(s.remove(99), None, "past the last slot");
        assert_eq!(s.remove(8), Some((ObjectId(2), 4)));
        assert_eq!(s.remove(8), None, "already emptied");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn segment_iter_and_len_skip_emptied_slots() {
        let mut s = Segment::default();
        for k in 0..5u64 {
            s.insert(10 * k, ObjectId(k), k as u32, 3);
        }
        s.remove(0);
        s.remove(20);
        s.remove(40);
        assert_eq!(triples(&s), [(10, ObjectId(1), 3), (30, ObjectId(3), 3)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.slots.len(), 5, "deletes empty slots in place");
        let capacity = s.slots.capacity();
        s.clear();
        assert_eq!((s.len(), triples(&s)), (0, vec![]));
        assert_eq!(s.slots.capacity(), capacity, "clear keeps the capacity");
    }

    /// Seeded random inserts, removes and clears against the ordered map
    /// the segment replaced: the same live triples in the same order after
    /// every step.
    #[test]
    fn segment_matches_an_offset_map() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = Segment::default();
            let mut model: BTreeMap<u64, (ObjectId, u64)> = BTreeMap::new();
            for step in 0..3_000u64 {
                let roll = rng.random_range(0..100u32);
                if roll < 55 {
                    // Half the inserts land past everything (a flush's
                    // appends); the rest hit a small range, so they refill,
                    // overwrite and insert in order.
                    let last = model.keys().next_back().copied().unwrap_or(0);
                    let offset = if rng.random_bool(0.5) {
                        last + rng.random_range(1..8u64)
                    } else {
                        rng.random_range(0..=last)
                    };
                    let size = rng.random_range(1..16u64);
                    s.insert(offset, ObjectId(step), step as u32, size);
                    model.insert(offset, (ObjectId(step), size));
                } else if roll < 99 {
                    let offset = match model.keys().nth(rng.random_range(0..=model.len())) {
                        Some(&live) if rng.random_bool(0.8) => live,
                        _ => rng.random_range(0..64u64),
                    };
                    assert_eq!(s.remove(offset), model.remove(&offset), "seed {seed}");
                } else {
                    s.clear();
                    model.clear();
                }
                let expect: Vec<_> = model.iter().map(|(&o, &(id, sz))| (o, id, sz)).collect();
                assert_eq!(triples(&s), expect, "seed {seed} step {step}");
                assert_eq!(s.len(), model.len(), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn ensure_class_grows_regions() {
        let mut l = Layout::new(eps());
        l.ensure_class(3);
        assert_eq!(l.class_count(), 4);
        assert_eq!(l.regions_end(), 0); // all zero-sized
    }

    #[test]
    fn region_geometry_prefix_sums() {
        let mut l = Layout::new(eps());
        l.ensure_class(2);
        l.regions[0].payload_space = 10;
        l.regions[0].buffer_space = 1;
        l.regions[1].payload_space = 20;
        l.regions[1].buffer_space = 2;
        l.regions[2].payload_space = 40;
        l.regions[2].buffer_space = 4;
        assert_eq!(l.region_start(0), 0);
        assert_eq!(l.region_start(1), 11);
        assert_eq!(l.region_start(2), 33);
        assert_eq!(l.buffer_start(2), 73);
        assert_eq!(l.regions_end(), 77);
    }

    #[test]
    fn account_insert_tracks_class_volume_and_delta() {
        let mut l = Layout::new(eps());
        assert_eq!(l.account_insert(5), 2);
        assert_eq!(l.account_insert(1), 0);
        assert_eq!(l.class_volume[2], 5);
        assert_eq!(l.class_volume[0], 1);
        assert_eq!(l.live_volume(), 6);
        assert_eq!(l.delta(), 5);
        l.account_delete(5, 2);
        assert_eq!(l.live_volume(), 1);
        assert_eq!(l.delta(), 5, "∆ never decreases");
    }

    #[test]
    fn find_buffer_picks_earliest_feasible() {
        let mut l = Layout::new(eps());
        l.ensure_class(3);
        l.regions[1].buffer_space = 4;
        l.regions[2].buffer_space = 10;
        l.regions[3].buffer_space = 10;
        // Object of class 1 and size 6: buffer 1 too small, buffer 2 fits.
        assert_eq!(l.find_buffer(1, 6), Some(2));
        // Class 3 object may only use buffer 3.
        assert_eq!(l.find_buffer(3, 6), Some(3));
        // Nothing fits a size-11 request.
        assert_eq!(l.find_buffer(0, 11), None);
    }

    #[test]
    fn boundary_class_scan() {
        let mut l = Layout::new(eps());
        l.ensure_class(4);
        for k in 0..=4u32 {
            l.regions[k as usize].payload_space = 16 << k;
            l.regions[k as usize].buffer_space = 8;
        }
        // Empty buffers: boundary is the trigger's class.
        assert_eq!(l.boundary_class(3), 3);
        // A class-1 object parked in buffer 3 drags the boundary for a
        // class-3 trigger down to 1 — but a class-4 trigger stops at 4,
        // because buffer 4 is clean and b is chosen *maximal*.
        l.push_buffer_entry(3, 2, 1, BufKind::Obj(ObjectId(9), 0));
        assert_eq!(l.boundary_class(4), 4);
        assert_eq!(l.boundary_class(3), 1);
        // ...but a class-2 trigger cannot stop above it either: b must
        // satisfy "all buffered objects in buffers >= b have class >= b".
        assert_eq!(l.boundary_class(2), 1);
        // A trigger of class 0 pins the boundary to 0.
        assert_eq!(l.boundary_class(0), 0);
    }

    #[test]
    fn boundary_class_ignores_buffers_below_stop() {
        let mut l = Layout::new(eps());
        l.ensure_class(4);
        for k in 0..=4u32 {
            l.regions[k as usize].buffer_space = 8;
        }
        // A class-0 object in buffer 1 does not affect a flush whose suffix
        // starts above it: boundary for a class-3 trigger is 3 because
        // buffers 3 and 4 are clean.
        l.push_buffer_entry(1, 1, 0, BufKind::Obj(ObjectId(5), 0));
        assert_eq!(l.boundary_class(3), 3);
    }

    #[test]
    fn tombstones_participate_in_boundary() {
        let mut l = Layout::new(eps());
        l.ensure_class(3);
        for k in 0..=3u32 {
            l.regions[k as usize].buffer_space = 8;
        }
        // A tombstone for a deleted class-0 object in buffer 2: a class-3
        // trigger stops at 3 (buffer 3 clean), but a class-2 trigger must
        // include the tombstone's class.
        l.push_buffer_entry(2, 1, 0, BufKind::Tombstone);
        assert_eq!(l.boundary_class(3), 3);
        assert_eq!(l.boundary_class(2), 0);
    }

    #[test]
    fn detach_payload_leaves_hole() {
        let mut l = Layout::new(eps());
        let a = admit(&mut l, 1, 6);
        let k = a.class;
        l.ensure_class(k);
        l.regions[k as usize].payload_space = 6;
        l.attach_payload(a, 0);
        assert_eq!(l.extent_of(ObjectId(1)), Some(Extent::new(0, 6)));
        let entry = l.detach_object(ObjectId(1)).unwrap();
        assert_eq!(entry.size, 6);
        assert_eq!(l.regions[k as usize].payload_live, 0);
        assert_eq!(
            l.regions[k as usize].payload_space, 6,
            "hole: space unchanged"
        );
        assert_eq!(l.extent_of(ObjectId(1)), None);
    }

    #[test]
    fn detach_buffered_becomes_tombstone() {
        let mut l = Layout::new(eps());
        let a = admit(&mut l, 7, 3);
        let k = a.class;
        l.regions[k as usize].buffer_space = 8;
        let off = l.push_buffer_entry(k, 3, k, BufKind::Obj(a.id, a.handle));
        l.attach_buffered(a, k, off);
        l.detach_object(ObjectId(7)).unwrap();
        let region = &l.regions[k as usize];
        assert_eq!(region.buffer.len(), 1);
        assert_eq!(region.buffer[0].kind, BufKind::Tombstone);
        assert_eq!(region.buffer_used, 3, "tombstone still consumes space");
    }

    /// Recomputes the footprint the old O(n) way — the oracle for the
    /// incrementally tracked cache.
    fn scanned_footprint(l: &Layout) -> u64 {
        l.entries()
            .map(|(_, e)| e.extent().end())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn last_object_end_tracks_index_writes_incrementally() {
        let mut l = Layout::new(eps());
        assert_eq!(l.last_object_end(), 0);
        let a = admit(&mut l, 1, 6);
        let k = a.class;
        l.regions[k as usize].payload_space = 40;
        l.attach_payload(a, 0);
        let b = admit(&mut l, 2, 4);
        assert_eq!(b.class, k);
        l.attach_payload(b, 20);
        assert_eq!(l.last_object_end(), 24);
        assert_eq!(l.last_object_end(), scanned_footprint(&l));

        // Relocation moves the max.
        l.relocate(a.id, a.handle, 30, Place::Payload);
        assert_eq!(l.last_object_end(), 36);
        assert_eq!(l.last_object_end(), scanned_footprint(&l));

        // Removing the last object reveals the runner-up (removal dirties
        // the cache; the next read rescans).
        l.remove_entry(ObjectId(1)).unwrap();
        assert_eq!(l.last_object_end(), 24);
        assert_eq!(l.last_object_end(), scanned_footprint(&l));
        l.remove_entry(ObjectId(2)).unwrap();
        assert_eq!(l.last_object_end(), 0);
    }

    #[test]
    fn replacement_and_reuse_keep_the_footprint_exact() {
        let mut l = Layout::new(eps());
        let a = admit(&mut l, 1, 5);
        l.regions[a.class as usize].payload_space = 30;
        l.attach_payload(a, 0);
        // Reattach the same object elsewhere (what a flush finalize does).
        l.attach_payload(a, 10);
        assert_eq!(l.last_object_end(), 15);
        // Move it back down: the cached 15 must be invalidated.
        l.attach_payload(a, 0);
        assert_eq!(l.last_object_end(), 5);
        assert_eq!(l.last_object_end(), scanned_footprint(&l));
    }

    #[test]
    fn footprint_reads_are_cached_between_frontier_changes() {
        let mut l = Layout::new(eps());
        let a = admit(&mut l, 1, 4);
        l.regions[a.class as usize].payload_space = 40;
        l.attach_payload(a, 0);
        let b = admit(&mut l, 2, 4);
        l.attach_payload(b, 20);
        assert_eq!(l.last_object_end(), 24);
        // Non-frontier churn keeps the cache clean (no rescan pending).
        l.relocate(a.id, a.handle, 4, Place::Payload);
        assert!(!l.footprint_dirty.get(), "non-frontier move dirtied cache");
        assert_eq!(l.last_object_end(), 24);
        // Moving the frontier *down* invalidates; the next read rescans.
        l.relocate(b.id, b.handle, 10, Place::Payload);
        assert!(l.footprint_dirty.get(), "frontier shrink must invalidate");
        assert_eq!(l.last_object_end(), 14);
        assert!(!l.footprint_dirty.get(), "read settles the cache");
        assert_eq!(l.last_object_end(), scanned_footprint(&l));
    }

    #[test]
    #[should_panic(expected = "does not name")]
    fn a_write_through_a_handle_naming_another_object_panics() {
        let mut l = Layout::new(eps());
        let a = admit(&mut l, 1, 4);
        l.regions[a.class as usize].payload_space = 16;
        l.attach_payload(a, 0);
        l.release(a.id).unwrap();
        let b = admit(&mut l, 2, 4);
        assert_eq!(b.handle, a.handle);
        // `a`'s handle now names object 2: a stale write must not land.
        l.relocate(a.id, a.handle, 8, Place::Payload);
    }

    #[test]
    fn a_deleted_objects_handle_goes_to_the_next_insert() {
        let mut l = Layout::new(eps());
        let a = admit(&mut l, 1, 4);
        l.regions[a.class as usize].payload_space = 8;
        l.attach_payload(a, 0);
        let gone = l.release(a.id).unwrap();
        let b = admit(&mut l, 2, 4);
        assert_eq!(b.handle, a.handle, "the freed slot is reused");
        assert_eq!(l.slab.len(), 1, "no slot is added");
        l.attach_payload(b, gone.offset);
        assert_eq!(l.extent_of(a.id), None, "the old id no longer resolves");
        assert_eq!(l.extent_of(b.id), Some(Extent::new(0, 4)));
        crate::validate::check_invariants(&l).unwrap();
    }

    #[test]
    fn region_views_expose_geometry() {
        let mut l = Layout::new(eps());
        l.ensure_class(1);
        l.regions[0].payload_space = 4;
        l.regions[0].buffer_space = 1;
        l.regions[1].payload_space = 8;
        let views = l.region_views();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].start, 0);
        assert_eq!(views[1].start, 5);
        assert_eq!(views[1].payload_space, 8);
    }
}

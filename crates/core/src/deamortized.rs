//! The Section 3.3 (partially) deamortized reallocator.
//!
//! Same amortized guarantees as the checkpointed structure, plus a
//! **worst-case** bound: serving a size-`w` update reallocates at most
//! `(4/ε′)·w + ∆` volume (cost `O((1/ε)·w·f(1) + f(∆))`, Lemma 3.6).
//!
//! Two additions make that possible (paper §3.3):
//!
//! * a **tail buffer** of size `⌊ε′·V_f⌋` after all regions (`V_f` = volume
//!   at the previous flush), which accepts any size class and whose filling
//!   is what triggers a flush — giving the in-progress flush time to finish;
//! * a **log** past the flush's working space: inserts arriving mid-flush
//!   are written into log cells, and a delete's dummy record is a
//!   volume-free log record. Every update *pumps* the next `(4/ε′)·w`
//!   cells of flush work. After the planned phases complete, the log
//!   drains — each logged insert moves once, log→buffer, and each dummy
//!   record is charged like §2's — and the flush ends when the log is
//!   empty (Lemma 3.4 shows it always catches up).
//!
//! A delete takes effect in its own request, mid-flush too: it frees the
//! object where it stands and takes its id out of the index, so the id can
//! be inserted again at once. The pump skips the planned moves and final
//! slot of an object deleted since the plan was made (its payload slot
//! stays a hole, charged by the dummy record). That is safe under §3.1:
//! the plan writes an object's current cells only in a phase after the one
//! that moves it away, and a checkpoint barrier ends every phase
//! (Lemma 3.2).
//!
//! Documented deviations (also listed in ARCHITECTURE.md §3):
//!
//! * If a drained insert or dummy record fits no buffer (e.g. the insert
//!   opened a brand-new largest size class, or buffers are genuinely too
//!   small for it), we *chain* into a new flush whose plan absorbs all
//!   log-resident inserts directly and which drops the logged dummy records
//!   of the classes it rebuilds — the paper leaves this corner to the
//!   reader; chaining preserves both the space envelope and the per-update
//!   work bound because the new plan is still pumped incrementally.
//! * A flush's staging is placed past the old structure *and* the log
//!   high-water mark, and the drain ends with one extra checkpoint barrier,
//!   for the same freed-space-rule reasons described in `plan.rs`.

use std::collections::VecDeque;

use realloc_common::{Extent, ObjectId, Outcome, ReallocError, Reallocator, StorageOp};

use crate::layout::{Admitted, BufEntry, BufKind, Entry, Eps, Layout, Place, RegionView};
use crate::plan::{
    apply_final_state, gather, plan_checkpointed, FinalPlacement, FlushObj, FlushPlan,
};
use crate::validate::{check_invariants, InvariantViolation};

/// The tail buffer: follows all size-class regions, accepts any class.
#[derive(Debug, Clone, Default)]
struct Tail {
    start: u64,
    capacity: u64,
    entries: Vec<BufEntry>,
    used: u64,
}

impl Tail {
    /// Appends an entry if the tail has room for it, returning its offset.
    fn push(&mut self, size: u64, class: u32, kind: BufKind) -> Option<u64> {
        if self.capacity - self.used < size {
            return None;
        }
        let offset = self.start + self.used;
        self.entries.push(BufEntry {
            offset,
            size,
            class,
            kind,
        });
        self.used += size;
        Some(offset)
    }

    fn live_objects(&self) -> impl Iterator<Item = FlushObj> + '_ {
        self.entries.iter().filter_map(|e| match e.kind {
            BufKind::Obj(id, handle) => Some(FlushObj {
                id,
                handle,
                size: e.size,
                class: e.class,
                offset: e.offset,
            }),
            BufKind::Tombstone => None,
        })
    }

    fn min_class(&self) -> Option<u32> {
        self.entries.iter().map(|e| e.class).min()
    }

    fn tombstone(&mut self, offset: u64) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.offset == offset)
            .expect("tail entry for indexed object");
        e.kind = BufKind::Tombstone;
    }
}

/// A logged update awaiting the drain stage.
#[derive(Debug, Clone, Copy)]
enum LogEntry {
    /// An insert written into the log cells at its `offset`.
    Insert(FlushObj),
    /// The dummy record of a delete served mid-flush.
    Dummy { class: u32, size: u64 },
}

/// A flush in progress: planned phases executed move-by-move, then the log
/// drain.
#[derive(Debug, Clone)]
struct FlushJob {
    plan: FlushPlan,
    phase_idx: usize,
    move_idx: usize,
    /// Phases done, final state applied, tail re-established; draining.
    finalized: bool,
    log: VecDeque<LogEntry>,
    /// Next free log cell.
    log_cursor: u64,
    /// Largest log cell ever used (staging for a chained flush must clear it).
    log_hwm: u64,
    /// Space high-water mark for this job.
    peak: u64,
}

impl FlushJob {
    fn phases_done(&self) -> bool {
        self.phase_idx >= self.plan.phases.len()
    }
}

/// The deamortized cost-oblivious reallocator (§3.3).
///
/// Between requests a flush may be mid-way; queries ([`Reallocator::extent_of`]
/// etc.) remain exact throughout. Structural invariants are fully checkable
/// only at quiescence ([`Self::is_quiescent`]).
#[derive(Debug, Clone)]
pub struct DeamortizedReallocator {
    layout: Layout,
    tail: Tail,
    job: Option<FlushJob>,
    /// Volume at the last flush trigger (sizes the next tail).
    vf: u64,
    flushes: u64,
    total_checkpoints: u64,
}

impl DeamortizedReallocator {
    /// Creates a reallocator with footprint slack `ε` (`0 < ε ≤ 1/2`).
    pub fn new(eps: f64) -> Self {
        Self::with_eps(Eps::new(eps))
    }

    /// Creates a reallocator from a pre-built (possibly ablated) [`Eps`].
    pub fn with_eps(eps: Eps) -> Self {
        DeamortizedReallocator {
            layout: Layout::new(eps),
            tail: Tail::default(),
            job: None,
            vf: 0,
            flushes: 0,
            total_checkpoints: 0,
        }
    }

    /// The footprint parameter.
    pub fn eps(&self) -> Eps {
        self.layout.eps()
    }

    /// Number of buffer flushes performed (or started) so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Total checkpoint barriers emitted across all flushes.
    pub fn checkpoints_waited(&self) -> u64 {
        self.total_checkpoints
    }

    /// True when no flush is in progress (all invariants checkable).
    pub fn is_quiescent(&self) -> bool {
        self.job.is_none()
    }

    /// Pumps any in-progress flush to completion (unbounded quota) — the
    /// shutdown/quiesce path a database would call before unmounting.
    /// Afterwards [`Self::is_quiescent`] is true and the Lemma 3.5
    /// no-flush footprint bound holds.
    pub fn drain(&mut self) -> realloc_common::Outcome {
        let mut ops = Vec::new();
        let mut checkpoints = 0;
        while self.job.is_some() {
            checkpoints += self.pump(u64::MAX, &mut ops);
        }
        self.total_checkpoints += u64::from(checkpoints);
        realloc_common::Outcome {
            ops,
            flushed: checkpoints > 0,
            peak_structure_size: self.current_extent(),
            checkpoints,
        }
    }

    /// Read-only view of the region layout (paper Figure 2).
    pub fn region_views(&self) -> Vec<RegionView> {
        self.layout.region_views()
    }

    /// Full invariant check at quiescence; a weaker disjointness/accounting
    /// check mid-flush (region maps are transitional then).
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        match &self.job {
            None => {
                check_invariants(&self.layout)?;
                // Tail entries: contained, indexed, accounted.
                let mut used = 0;
                for e in &self.tail.entries {
                    if e.offset < self.tail.start
                        || e.offset + e.size > self.tail.start + self.tail.capacity
                    {
                        return Err(InvariantViolation::BadAccounting {
                            detail: format!("tail entry at {} escapes tail", e.offset),
                        });
                    }
                    if let BufKind::Obj(id, handle) = e.kind {
                        match self.layout.lookup(id) {
                            Some((h, entry))
                                if h == handle
                                    && entry.place == Place::Tail
                                    && entry.offset == e.offset => {}
                            _ => {
                                return Err(InvariantViolation::IndexMismatch {
                                    id,
                                    detail: format!("tail entry at {} (handle {handle})", e.offset),
                                })
                            }
                        }
                    }
                    used += e.size;
                }
                if used != self.tail.used {
                    return Err(InvariantViolation::BadAccounting {
                        detail: "tail used drifted".into(),
                    });
                }
                Ok(())
            }
            Some(_) => self.validate_disjoint(),
        }
    }

    /// Mid-flush check: all indexed extents pairwise disjoint.
    fn validate_disjoint(&self) -> Result<(), InvariantViolation> {
        let mut extents: Vec<(u64, u64, ObjectId)> = self
            .layout
            .entries()
            .map(|(id, e)| (e.offset, e.size, id))
            .collect();
        extents.sort_unstable();
        for pair in extents.windows(2) {
            if pair[0].0 + pair[0].1 > pair[1].0 {
                return Err(InvariantViolation::Overlap {
                    a: pair[0].2,
                    b: pair[1].2,
                    at: Extent::new(pair[1].0, pair[0].0 + pair[0].1 - pair[1].0),
                });
            }
        }
        Ok(())
    }

    /// Structure extent right now (regions + tail, plus mid-flush working
    /// space).
    fn current_extent(&self) -> u64 {
        let base = self.layout.regions_end() + self.tail.capacity;
        match &self.job {
            Some(job) => base.max(job.peak).max(job.log_hwm),
            None => base,
        }
    }

    // ----- flush machinery -------------------------------------------------

    /// Plans a flush and installs the job. `trigger` (insert-triggered only)
    /// must already be physically placed and indexed at its offset. A
    /// chained flush takes over the draining flush's `log`: its plan
    /// absorbs every logged insert still held, and it keeps the dummy
    /// records of classes below its boundary (its rebuild removes the
    /// others' holes).
    fn start_flush(
        &mut self,
        trigger: Option<FlushObj>,
        trigger_class: u32,
        log: VecDeque<LogEntry>,
        floor_end: u64,
    ) {
        let log_inserts: Vec<FlushObj> = log
            .iter()
            .filter_map(|e| match *e {
                LogEntry::Insert(o) if self.layout.holds(o.id, o.handle, o.offset) => Some(o),
                _ => None,
            })
            .collect();
        // The boundary must cover the tail and any log-resident inserts,
        // which are flushed unconditionally.
        let min0 = self
            .tail
            .min_class()
            .into_iter()
            .chain(log_inserts.iter().map(|o| o.class))
            .fold(trigger_class, u32::min);
        let b = self.layout.boundary_class(min0);

        let extra_buffered: Vec<FlushObj> = self.tail.live_objects().chain(log_inserts).collect();

        let mut inputs = gather(&self.layout, b, &extra_buffered);
        // Staging must clear the tail and any old log cells (freed-space
        // rule; see module docs).
        inputs.old_end = inputs
            .old_end
            .max(self.layout.regions_end() + self.tail.capacity)
            .max(floor_end);
        let plan = plan_checkpointed(&inputs, trigger, self.tail.capacity, self.layout.delta());

        self.vf = self.live_volume();
        let log_cursor = plan.peak; // log cells begin past all working space
        let log = log
            .into_iter()
            .filter(|e| matches!(*e, LogEntry::Dummy { class, .. } if class < b))
            .collect();
        self.job = Some(FlushJob {
            peak: plan.peak,
            plan,
            phase_idx: 0,
            move_idx: 0,
            finalized: false,
            log,
            log_cursor,
            log_hwm: log_cursor,
            // Tail entries are owned by the plan now.
        });
        self.tail.entries.clear();
        self.tail.used = 0;
        self.flushes += 1;
    }

    /// Executes up to `quota` cells of flush work (phase moves, then log
    /// drain), appending ops. Returns the number of checkpoint barriers
    /// emitted. Moves, final slots and logged inserts of objects deleted
    /// since they were planned or logged are skipped.
    fn pump(&mut self, mut quota: u64, ops: &mut Vec<StorageOp>) -> u32 {
        let mut checkpoints = 0u32;
        loop {
            let Some(job) = self.job.as_mut() else {
                return checkpoints;
            };

            // --- Phase moves ---
            while !job.phases_done() {
                let phase = &job.plan.phases[job.phase_idx];
                if job.move_idx >= phase.len() {
                    ops.push(StorageOp::CheckpointBarrier);
                    checkpoints += 1;
                    job.phase_idx += 1;
                    job.move_idx = 0;
                    continue;
                }
                if quota == 0 {
                    return checkpoints;
                }
                let mv = phase[job.move_idx];
                job.move_idx += 1;
                if !self.layout.holds(mv.id, mv.handle, mv.from.offset) {
                    continue; // deleted since the plan was made
                }
                ops.push(mv.op());
                // Keep the index (and its extent order) exact mid-flush.
                self.layout
                    .relocate(mv.id, mv.handle, mv.to.offset, mv.dest);
                quota = quota.saturating_sub(mv.to.len);
            }

            // --- Finalize: rebuild regions (a deleted object's slot stays
            // a hole), re-establish the tail ---
            if !job.finalized {
                let layout = &self.layout;
                let held = |f: &FinalPlacement| layout.holds(f.id, f.handle, f.offset);
                job.plan.finals.retain(held);
                job.plan.trigger_final = job.plan.trigger_final.filter(held);
                apply_final_state(&mut self.layout, &job.plan);
                self.tail.start = self.layout.regions_end();
                self.tail.capacity = self.layout.eps().buffer_quota(self.vf);
                job.finalized = true;
            }

            // --- Drain the log ---
            let mut chain: Option<u32> = None;
            loop {
                let job = self.job.as_mut().expect("still flushing");
                let Some(&entry) = job.log.front() else { break };
                match entry {
                    LogEntry::Dummy { class, size } => {
                        job.log.pop_front();
                        if !self.charge_dummy(class, size) {
                            chain = Some(class);
                            break;
                        }
                    }
                    LogEntry::Insert(o) if !self.layout.holds(o.id, o.handle, o.offset) => {
                        job.log.pop_front();
                    }
                    LogEntry::Insert(o) => {
                        if quota == 0 {
                            return checkpoints;
                        }
                        let obj = Admitted {
                            id: o.id,
                            handle: o.handle,
                            size: o.size,
                            class: o.class,
                        };
                        let Some(offset) = self.place(obj) else {
                            chain = Some(o.class);
                            break;
                        };
                        ops.push(StorageOp::Move {
                            id: o.id,
                            from: Extent::new(o.offset, o.size),
                            to: Extent::new(offset, o.size),
                        });
                        self.job.as_mut().expect("flushing").log.pop_front();
                        quota = quota.saturating_sub(o.size);
                    }
                }
            }

            match chain {
                Some(trigger_class) => {
                    // Chain into a new flush absorbing every log-resident
                    // insert.
                    let job = self.job.take().expect("flushing");
                    self.start_flush(None, trigger_class, job.log, job.log_hwm);
                    // Loop back: keep pumping the chained flush with the
                    // remaining quota.
                    if quota == 0 {
                        return checkpoints;
                    }
                }
                None => {
                    // Log empty: flush complete. One extra barrier so the
                    // vacated log cells are reusable by the next staging.
                    ops.push(StorageOp::CheckpointBarrier);
                    checkpoints += 1;
                    self.job = None;
                    return checkpoints;
                }
            }
        }
    }

    /// §3.3's insert rule: the earliest buffer with room (§2), else the
    /// tail. Indexes the object there and returns its offset, or `None` when
    /// neither has room.
    fn place(&mut self, obj: Admitted) -> Option<u64> {
        if let Some(offset) = self.layout.buffer_object(obj) {
            return Some(offset);
        }
        let kind = BufKind::Obj(obj.id, obj.handle);
        let offset = self.tail.push(obj.size, obj.class, kind)?;
        self.index_outside(obj, offset, Place::Tail);
        Some(offset)
    }

    /// Records an object at `offset` in a segment the regions do not track
    /// (tail, log or staging) in its entry.
    fn index_outside(&mut self, obj: Admitted, offset: u64, place: Place) {
        self.layout.write_entry(
            obj.id,
            obj.handle,
            Entry {
                size: obj.size,
                class: obj.class,
                offset,
                place,
            },
        );
    }

    /// Charges a delete's dummy record to the earliest buffer of a region
    /// `>= class` with room, else the tail. False when it fits nowhere (the
    /// caller flushes).
    fn charge_dummy(&mut self, class: u32, size: u64) -> bool {
        self.layout.buffer_tombstone(class, size)
            || self.tail.push(size, class, BufKind::Tombstone).is_some()
    }

    /// Reports a request that emitted `ops`, first pumping `(4/ε′)·w` cells
    /// of flush work if it `flushed` (started, joined or logged into one).
    fn finish(&mut self, mut ops: Vec<StorageOp>, flushed: bool, w: u64) -> Outcome {
        let checkpoints = if flushed {
            self.pump(self.layout.eps().pump_quota(w), &mut ops)
        } else {
            0
        };
        self.total_checkpoints += u64::from(checkpoints);
        Outcome {
            ops,
            flushed,
            peak_structure_size: self.current_extent(),
            checkpoints,
        }
    }
}

impl Reallocator for DeamortizedReallocator {
    fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
        // No `open_class` here: a brand-new largest class has no buffer
        // space, so its first object lands in the tail or triggers the flush
        // that sizes its region.
        let (obj, _) = self.layout.admit(id, size)?;
        let class = obj.class;
        let (at, flushed) = if let Some(job) = self.job.as_mut() {
            // Mid-flush: append to the log; the pump does (4/ε′)·w of work.
            let at = job.log_cursor;
            job.log_cursor += size;
            job.log_hwm = job.log_hwm.max(job.log_cursor);
            job.log.push_back(LogEntry::Insert(FlushObj {
                id,
                handle: obj.handle,
                size,
                class,
                offset: at,
            }));
            self.index_outside(obj, at, Place::Log);
            (at, true)
        } else if let Some(offset) = self.place(obj) {
            (offset, false)
        } else {
            // Tail full: place past all used space and trigger the flush.
            let at = self.tail.start + self.tail.used;
            self.index_outside(obj, at, Place::Staging);
            let trigger = FlushObj {
                id,
                handle: obj.handle,
                size,
                class,
                offset: at,
            };
            self.start_flush(Some(trigger), class, VecDeque::new(), 0);
            (at, true)
        };
        let ops = vec![StorageOp::Allocate {
            id,
            to: Extent::new(at, size),
        }];
        Ok(self.finish(ops, flushed, size))
    }

    fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
        let (handle, entry) = self
            .layout
            .remove_entry(id)
            .ok_or(ReallocError::UnknownId(id))?;
        self.layout.account_delete(entry.size, entry.class);
        // Before finalize the plan still places every object of a class
        // >= its boundary, and rebuilds those classes' payloads and
        // buffers: such an object only leaves the index. Any other object
        // leaves its segment too, as between flushes, and a buffer or tail
        // slot becomes its own dummy record.
        let planned = self
            .job
            .as_ref()
            .is_some_and(|job| !job.finalized && entry.class >= job.plan.b);
        let own_dummy = if planned {
            false
        } else {
            self.layout.vacate(id, handle, entry);
            match entry.place {
                Place::Buffer(_) => true,
                Place::Tail => {
                    self.tail.tombstone(entry.offset);
                    true
                }
                Place::Payload | Place::Staging | Place::Log => false,
            }
        };
        let ops = vec![StorageOp::Free {
            id,
            at: entry.extent(),
        }];
        let flushed = if let Some(job) = self.job.as_mut() {
            // Mid-flush: the drain charges the dummy record.
            if !own_dummy {
                job.log.push_back(LogEntry::Dummy {
                    class: entry.class,
                    size: entry.size,
                });
            }
            true
        } else if own_dummy || self.charge_dummy(entry.class, entry.size) {
            false
        } else {
            // Nothing holds the dummy: flush without using space for it.
            self.start_flush(None, entry.class, VecDeque::new(), 0);
            true
        };
        Ok(self.finish(ops, flushed, entry.size))
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
        self.current_extent()
    }

    fn footprint(&self) -> u64 {
        self.layout.last_object_end()
    }

    fn max_object_size(&self) -> u64 {
        self.layout.delta()
    }

    fn quiesce(&mut self) -> Outcome {
        self.drain()
    }

    fn name(&self) -> &'static str {
        "cost-oblivious-deamortized"
    }

    fn live_count(&self) -> usize {
        self.layout.live_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }

    /// Lemma 3.6 worst case: every update moves at most (4/ε')·w + ∆ volume.
    fn assert_worst_case(r: &DeamortizedReallocator, w: u64, out: &Outcome) {
        let bound = r.eps().pump_quota(w) + r.max_object_size();
        assert!(
            out.moved_volume() <= bound,
            "moved {} > (4/ε')·{w} + ∆ = {bound}",
            out.moved_volume()
        );
    }

    #[test]
    fn basic_roundtrip() {
        let mut r = DeamortizedReallocator::new(0.5);
        let out = r.insert(id(1), 100).unwrap();
        assert_worst_case(&r, 100, &out);
        r.insert(id(2), 40).unwrap();
        r.delete(id(1)).unwrap();
        r.validate().unwrap();
        assert_eq!(r.live_count(), 1);
        assert_eq!(r.extent_of(id(2)).unwrap().len, 40);
    }

    #[test]
    fn worst_case_bound_through_churn() {
        let mut r = DeamortizedReallocator::new(0.5);
        let sizes: Vec<u64> = (0..300).map(|i| 1 + (i * 13) % 150).collect();
        for (i, &s) in sizes.iter().enumerate() {
            let out = r.insert(id(i as u64), s).unwrap();
            assert_worst_case(&r, s, &out);
            r.validate().unwrap();
        }
        for i in (0..300u64).step_by(2) {
            let w = r.extent_of(id(i)).map(|e| e.len).unwrap_or(1);
            let out = r.delete(id(i)).unwrap();
            assert_worst_case(&r, w, &out);
            r.validate().unwrap();
        }
    }

    #[test]
    fn flush_completes_and_buffers_empty_at_quiescence() {
        let mut r = DeamortizedReallocator::new(0.5);
        for i in 0..200u64 {
            r.insert(id(i), 1 + (i * 7) % 64).unwrap();
        }
        // Quiescence is reached whenever the last update's pump finished the
        // job; churn a little more until quiescent.
        let mut i = 200;
        while !r.is_quiescent() {
            r.insert(id(i), 1).unwrap();
            i += 1;
            assert!(i < 1000, "flush never completed");
        }
        r.validate().unwrap();
        // Unlike §2, buffers need not be empty at quiescence: the drain
        // refills them with logged inserts by design. But every object must
        // be addressable and the settled footprint bound must hold.
        for j in 0..i {
            assert!(r.extent_of(id(j)).is_some(), "lost object {j}");
        }
        let ratio = r.structure_size() as f64 / r.live_volume() as f64;
        assert!(ratio <= 1.5 + 1e-9, "quiescent ratio {ratio}");
    }

    #[test]
    fn objects_remain_addressable_mid_flush() {
        let mut r = DeamortizedReallocator::new(0.5);
        let sizes: Vec<u64> = (0..120).map(|i| 1 + (i * 11) % 90).collect();
        for (i, &s) in sizes.iter().enumerate() {
            r.insert(id(i as u64), s).unwrap();
            // Every previously inserted object must be addressable with its
            // exact size, flush in progress or not.
            for (j, &t) in sizes.iter().enumerate().take(i + 1) {
                let e = r.extent_of(id(j as u64)).expect("alive");
                assert_eq!(e.len, t);
            }
            r.validate().unwrap();
        }
    }

    #[test]
    fn delete_mid_flush_takes_effect_in_its_own_request() {
        let mut r = DeamortizedReallocator::new(0.5);
        // Drive into a flush.
        let mut i = 0u64;
        while r.is_quiescent() {
            r.insert(id(i), 1 + (i % 60)).unwrap();
            i += 1;
            assert!(i < 500);
        }
        // Delete an early object mid-flush: it is freed where it stands and
        // gone from every query at once, flush still in flight or not.
        let victim = id(0);
        let vol_before = r.live_volume();
        let at = r.extent_of(victim).unwrap();
        let out = r.delete(victim).unwrap();
        assert_eq!(
            out.ops.first(),
            Some(&StorageOp::Free { id: victim, at }),
            "the delete frees its object first"
        );
        assert!(r.extent_of(victim).is_none());
        assert_eq!(r.live_volume(), vol_before - at.len);
        r.validate().unwrap();
        assert!(matches!(r.delete(victim), Err(ReallocError::UnknownId(_))));
        // Finish the flush; the object is still gone at quiescence.
        while !r.is_quiescent() {
            r.insert(id(10_000 + i), 1).unwrap();
            i += 1;
            assert!(i < 2000);
        }
        assert_eq!(r.live_volume(), vol_before - at.len);
        assert!(r.extent_of(victim).is_none());
        r.validate().unwrap();
    }

    #[test]
    fn footprint_bound_at_quiescence() {
        // Lemma 3.5: space (1+O(ε'))V when no flush is in progress.
        let mut r = DeamortizedReallocator::new(0.5);
        let mut n = 0u64;
        for round in 0..30 {
            for _ in 0..20 {
                r.insert(id(n), 1 + (n * 13) % 100).unwrap();
                n += 1;
            }
            if round % 3 == 2 {
                for k in 0..10 {
                    let victim = id(n - 1 - k);
                    if r.extent_of(victim).is_some() {
                        let _ = r.delete(victim);
                    }
                }
            }
            if r.is_quiescent() {
                let ratio = r.structure_size() as f64 / r.live_volume() as f64;
                assert!(ratio <= 1.5 + 1e-9, "quiescent ratio {ratio}");
            }
        }
    }

    #[test]
    fn moves_never_overlap_their_source() {
        let mut r = DeamortizedReallocator::new(0.5);
        for i in 0..250u64 {
            let out = r.insert(id(i), 1 + (i * 17) % 130).unwrap();
            for op in &out.ops {
                if let StorageOp::Move { from, to, .. } = op {
                    assert!(!from.overlaps(to), "{from} overlaps {to}");
                }
            }
        }
    }

    #[test]
    fn new_largest_class_mid_flush_chains_cleanly() {
        let mut r = DeamortizedReallocator::new(0.5);
        // Get a flush going with small objects.
        let mut i = 0u64;
        while r.is_quiescent() {
            r.insert(id(i), 1 + (i % 16)).unwrap();
            i += 1;
            assert!(i < 500);
        }
        // Mid-flush, insert an object of a brand-new largest class.
        let big = id(777_000);
        let out = r.insert(big, 4096).unwrap();
        assert_worst_case(&r, 4096, &out);
        assert_eq!(r.extent_of(big).unwrap().len, 4096);
        // Keep pumping to quiescence; the big object must end up placed and
        // the layout valid.
        while !r.is_quiescent() {
            r.insert(id(800_000 + i), 1).unwrap();
            i += 1;
            assert!(i < 3000, "chained flush never completed");
        }
        r.validate().unwrap();
        assert_eq!(r.extent_of(big).unwrap().len, 4096);
    }

    #[test]
    fn drain_quiesces_and_completes_pending_deletes() {
        let mut r = DeamortizedReallocator::new(0.5);
        let mut i = 0u64;
        while r.is_quiescent() {
            r.insert(id(i), 1 + (i % 60)).unwrap();
            i += 1;
            assert!(i < 500);
        }
        let victim = id(0);
        let w = r.extent_of(victim).unwrap().len;
        let vol = r.live_volume();
        r.delete(victim).unwrap();
        // The delete's own pump may already have completed the flush;
        // either way, after drain() the structure is quiescent.
        r.drain();
        assert!(r.is_quiescent());
        assert_eq!(r.live_volume(), vol - w);
        assert!(r.extent_of(victim).is_none());
        r.validate().unwrap();
        let ratio = r.structure_size() as f64 / r.live_volume() as f64;
        assert!(ratio <= 1.5 + 1e-9, "post-drain ratio {ratio}");
        // Draining when quiescent is a no-op.
        let out = r.drain();
        assert!(out.ops.is_empty());
    }

    /// After every request: no deleted id has an extent, the volume and
    /// count are those of every id that still has one, and the structure
    /// validates; at quiescence every payload hole is charged.
    fn assert_accounting(r: &DeamortizedReallocator, ids: &[ObjectId], deleted: &[ObjectId]) {
        for &gone in deleted {
            assert!(r.extent_of(gone).is_none(), "deleted {gone} has an extent");
        }
        let active: Vec<Extent> = ids.iter().filter_map(|&id| r.extent_of(id)).collect();
        assert_eq!(r.live_volume(), active.iter().map(|e| e.len).sum::<u64>());
        assert_eq!(r.live_count(), active.len());
        r.validate().unwrap();
        if r.is_quiescent() {
            assert_holes_are_charged(r);
        }
    }

    /// Right after a request that started a flush, chained or not: every
    /// dummy record still logged is of a class below the plan's boundary,
    /// since the rebuild removes the holes of the classes at or above it.
    fn assert_logged_dummies_below_the_boundary(r: &DeamortizedReallocator) {
        let Some(job) = &r.job else { return };
        for e in &job.log {
            if let LogEntry::Dummy { class, .. } = *e {
                assert!(
                    class < job.plan.b,
                    "a class-{class} dummy outlived a rebuild from {}",
                    job.plan.b
                );
            }
        }
    }

    /// §2's dummy records at quiescence: per size class, the payload's
    /// holes add up to at most the dummy records of that class in the
    /// buffers and the tail. A delete that leaves a hole charges one,
    /// mid-flush too, or flushes the hole away.
    fn assert_holes_are_charged(r: &DeamortizedReallocator) {
        let mut charged = vec![0u64; r.layout.regions.len()];
        let buffers = r.layout.regions.iter().flat_map(|region| &region.buffer);
        for e in buffers.chain(&r.tail.entries) {
            if e.kind == BufKind::Tombstone {
                charged[e.class as usize] += e.size;
            }
        }
        for (k, region) in r.layout.regions.iter().enumerate() {
            let holes = region.payload_space - region.payload_live;
            assert!(
                holes <= charged[k],
                "class {k}: {holes} cells of holes, {} charged",
                charged[k]
            );
        }
    }

    /// Deletes served mid-flush, then an insert that opens a brand-new
    /// largest class, so the drain chains into a new flush: the deletes
    /// stay deleted through both rebuilds and the deletes served during the
    /// chained flush, and the live set at quiescence is the model's.
    #[test]
    fn mid_flush_deletes_survive_a_chained_flush() {
        let mut r = DeamortizedReallocator::new(0.5);
        let mut model = BTreeMap::new();
        let mut ids = Vec::new();
        let mut deleted = Vec::new();
        // Grow to a few thousand cells (the tail stays under 4096) and stop
        // just after a request starts a flush; `before` is the count ahead
        // of that request.
        let mut n = 0u64;
        let before = loop {
            let before = r.flush_count();
            let size = 1 + n % 16;
            r.insert(id(n), size).unwrap();
            model.insert(id(n), size);
            ids.push(id(n));
            n += 1;
            assert!(n < 2000);
            assert_accounting(&r, &ids, &deleted);
            if r.flush_count() > before && !r.is_quiescent() && r.live_volume() >= 6000 {
                break before;
            }
        };
        // Delete three objects placed before the flush began.
        for victim in (0..3).map(id) {
            r.delete(victim).unwrap();
            model.remove(&victim);
            deleted.push(victim);
            assert_accounting(&r, &ids, &deleted);
        }
        assert!(!r.is_quiescent(), "the deletes finished the flush");
        let big = id(777_000);
        r.insert(big, 4096).unwrap();
        model.insert(big, 4096);
        ids.push(big);
        assert_accounting(&r, &ids, &deleted);
        // Pump to quiescence, alternating small inserts with deletes of the
        // oldest live objects.
        let mut oldest = 3;
        while !r.is_quiescent() {
            let flushes = r.flush_count();
            if n.is_multiple_of(2) {
                r.insert(id(n), 1).unwrap();
                model.insert(id(n), 1);
                ids.push(id(n));
            } else {
                r.delete(id(oldest)).unwrap();
                model.remove(&id(oldest));
                deleted.push(id(oldest));
                oldest += 1;
            }
            n += 1;
            assert!(n < 3000, "chained flush never completed");
            assert_accounting(&r, &ids, &deleted);
            if r.flush_count() > flushes {
                assert_logged_dummies_below_the_boundary(&r);
            }
        }
        assert!(
            r.flush_count() >= before + 2,
            "no chained flush: {} flushes from {before}",
            r.flush_count()
        );
        let mut live = r.live_extents();
        live.sort_unstable_by_key(|&(id, _)| id);
        let listed: Vec<(ObjectId, u64)> = live.iter().map(|&(id, e)| (id, e.len)).collect();
        let expected: Vec<(ObjectId, u64)> = model.iter().map(|(&id, &s)| (id, s)).collect();
        assert_eq!(listed, expected);
    }

    /// The scenario above at pump factor 1 and a larger structure, where the
    /// chained flush starts while dummy records of the first flush's
    /// deletes are still logged: the chained plan sizes each payload from
    /// the live volume alone, drops the dummies of the classes it rebuilds
    /// and keeps the others queued for its drain.
    #[test]
    fn chained_flush_after_mid_flush_deletes_at_pump_factor_one() {
        let mut r = DeamortizedReallocator::with_eps(Eps::custom(0.5, 0.5 / 3.0, 1.0));
        let mut model = BTreeMap::new();
        let mut ids = Vec::new();
        let mut deleted = Vec::new();
        let mut n = 0u64;
        let before = loop {
            let before = r.flush_count();
            let size = 1 + n % 16;
            r.insert(id(n), size).unwrap();
            model.insert(id(n), size);
            ids.push(id(n));
            n += 1;
            assert!(n < 4000);
            assert_accounting(&r, &ids, &deleted);
            if r.flush_count() > before && !r.is_quiescent() && r.live_volume() >= 16000 {
                break before;
            }
        };
        for victim in (0..3).map(id) {
            r.delete(victim).unwrap();
            model.remove(&victim);
            deleted.push(victim);
            assert_accounting(&r, &ids, &deleted);
        }
        assert!(!r.is_quiescent(), "the deletes finished the flush");
        let big = id(777_000);
        r.insert(big, 4096).unwrap();
        model.insert(big, 4096);
        ids.push(big);
        assert_accounting(&r, &ids, &deleted);
        let mut oldest = 3;
        while !r.is_quiescent() {
            let flushes = r.flush_count();
            if n.is_multiple_of(2) {
                r.insert(id(n), 1).unwrap();
                model.insert(id(n), 1);
                ids.push(id(n));
            } else {
                r.delete(id(oldest)).unwrap();
                model.remove(&id(oldest));
                deleted.push(id(oldest));
                oldest += 1;
            }
            n += 1;
            assert!(n < 20_000, "chained flush never completed");
            assert_accounting(&r, &ids, &deleted);
            if r.flush_count() > flushes {
                assert_logged_dummies_below_the_boundary(&r);
            }
        }
        assert!(
            r.flush_count() >= before + 2,
            "no chained flush: {} flushes from {before}",
            r.flush_count()
        );
        r.validate().unwrap();
        let mut live = r.live_extents();
        live.sort_unstable_by_key(|&(id, _)| id);
        let listed: Vec<(ObjectId, u64)> = live.iter().map(|&(id, e)| (id, e.len)).collect();
        let expected: Vec<(ObjectId, u64)> = model.iter().map(|(&id, &s)| (id, s)).collect();
        assert_eq!(listed, expected);
    }

    /// §3.3 liveness under LIFO-biased churn: a delete served mid-flush
    /// takes its object out of the index for good — also when the
    /// object's own insert is still in the log (the drain must skip it),
    /// and when the plan still places it (the pump must skip its moves and
    /// its final slot). Deleting the newest object most of the time puts
    /// many deletes right behind their own inserts in the log. The live
    /// set is the model's after every request, flush in flight or not, and
    /// every payload hole is charged at quiescence.
    #[test]
    fn logged_deletes_never_report_live() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = DeamortizedReallocator::new(0.25);
            let mut model = BTreeMap::new();
            // Live ids, oldest first.
            let mut order: Vec<ObjectId> = Vec::new();
            // Ids deleted since the last quiescent point.
            let mut deleted = Vec::new();
            for n in 0..8_000u64 {
                if !order.is_empty() && rng.random_bool(0.45) {
                    let at = if rng.random_bool(0.7) {
                        order.len() - 1
                    } else {
                        rng.random_range(0..order.len())
                    };
                    let victim = order.remove(at);
                    r.delete(victim).unwrap();
                    model.remove(&victim);
                    deleted.push(victim);
                } else {
                    let size = rng.random_range(1..=64);
                    r.insert(id(n), size).unwrap();
                    model.insert(id(n), size);
                    order.push(id(n));
                }
                for &gone in &deleted {
                    assert!(
                        r.extent_of(gone).is_none(),
                        "seed {seed}, request {n}: deleted {gone} has an extent"
                    );
                }
                if r.is_quiescent() {
                    deleted.clear();
                    assert_holes_are_charged(&r);
                }
                if n % 64 == 63 {
                    let mut live = r.live_extents();
                    live.sort_unstable_by_key(|&(id, _)| id);
                    let listed: Vec<(ObjectId, u64)> =
                        live.iter().map(|&(id, e)| (id, e.len)).collect();
                    let expected: Vec<(ObjectId, u64)> =
                        model.iter().map(|(&id, &size)| (id, size)).collect();
                    assert_eq!(listed, expected, "seed {seed}, request {n}");
                }
            }
        }
    }

    /// A delete mid-flush frees its id in that same request, so a client
    /// may insert the id again at once — before the flush ends, at a new
    /// size — and the reinsert survives the rest of the flush.
    #[test]
    fn an_id_deleted_mid_flush_can_be_inserted_again() {
        let mut r = DeamortizedReallocator::new(0.5);
        let mut n = 0u64;
        while r.is_quiescent() || r.live_volume() < 6000 {
            r.insert(id(n), 1 + n % 16).unwrap();
            n += 1;
            assert!(n < 2000);
        }
        let vol = r.live_volume();
        // Object 0 has size 1, so its pump cannot end the flush.
        r.delete(id(0)).unwrap();
        assert!(!r.is_quiescent(), "the delete finished the flush");
        assert_eq!(r.extent_of(id(0)), None);
        assert_eq!(r.live_volume(), vol - 1);
        r.insert(id(0), 9).unwrap();
        r.validate().unwrap();
        r.drain();
        r.validate().unwrap();
        assert_eq!(r.extent_of(id(0)).map(|e| e.len), Some(9));
        assert_eq!(r.live_count(), n as usize);
    }

    #[test]
    fn duplicate_and_unknown_rejected() {
        let mut r = DeamortizedReallocator::new(0.5);
        r.insert(id(1), 10).unwrap();
        assert!(matches!(
            r.insert(id(1), 5),
            Err(ReallocError::DuplicateId(_))
        ));
        assert!(matches!(r.delete(id(9)), Err(ReallocError::UnknownId(_))));
        assert!(matches!(r.insert(id(2), 0), Err(ReallocError::ZeroSize)));
    }
}

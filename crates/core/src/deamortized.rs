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
//! * a **log** past the flush's working space: updates arriving mid-flush
//!   are appended there (inserts are physically written into log cells;
//!   deletes are volume-free records), and every update *pumps* the next
//!   `(4/ε′)·w` cells of flush work. After the planned phases complete, the
//!   log drains — each logged insert moves once, log→buffer — and the flush
//!   ends when the log is empty (Lemma 3.4 shows it always catches up).
//!
//! Documented deviations (also listed in ARCHITECTURE.md §3):
//!
//! * If a drained insert fits no buffer (e.g. it opened a brand-new largest
//!   size class, or buffers are genuinely too small for it), we *chain* into
//!   a new flush whose plan absorbs all log-resident inserts directly — the
//!   paper leaves this corner to the reader; chaining preserves both the
//!   space envelope and the per-update work bound because the new plan is
//!   still pumped incrementally.
//! * A flush's staging is placed past the old structure *and* the log
//!   high-water mark, and the drain ends with one extra checkpoint barrier,
//!   for the same freed-space-rule reasons described in `plan.rs`.

use std::collections::{HashSet, VecDeque};

use realloc_common::{Extent, ObjectId, Outcome, ReallocError, Reallocator, StorageOp};

use crate::layout::{Admitted, BufEntry, BufKind, Entry, Eps, Layout, Place, RegionView};
use crate::plan::{apply_final_state, gather, plan_checkpointed, FlushObj, FlushPlan};
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
    Insert { id: ObjectId, size: u64, class: u32 },
    Delete { id: ObjectId },
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
    /// Objects whose delete is logged but not yet drained: still indexed
    /// and occupying space (active), but no longer live. Empty between
    /// flushes; a chained flush inherits it with the log.
    pending: HashSet<ObjectId>,
    /// Σ size over `pending`. Their volume is unaccounted from the layout
    /// when the delete is logged, so the active volume is the layout's plus
    /// this.
    pending_volume: u64,
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
            pending: HashSet::new(),
            pending_volume: 0,
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
    /// Afterwards [`Self::is_quiescent`] is true, all pending deletes have
    /// drained, and the Lemma 3.5 no-flush footprint bound holds.
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
    /// check mid-flush (region maps are transitional then). Both check the
    /// pending deletes.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        self.validate_pending()?;
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

    /// Pending deletes: none between flushes, each still indexed mid-flush,
    /// and `pending_volume` is the sum of their sizes.
    fn validate_pending(&self) -> Result<(), InvariantViolation> {
        if self.job.is_none() && !self.pending.is_empty() {
            return Err(InvariantViolation::BadAccounting {
                detail: format!("{} deletes pending between flushes", self.pending.len()),
            });
        }
        let mut volume = 0;
        for &id in &self.pending {
            let Some((_, entry)) = self.layout.lookup(id) else {
                return Err(InvariantViolation::IndexMismatch {
                    id,
                    detail: "pending delete is not indexed".into(),
                });
            };
            volume += entry.size;
        }
        if volume != self.pending_volume {
            return Err(InvariantViolation::BadAccounting {
                detail: format!(
                    "pending_volume {} != recomputed {volume}",
                    self.pending_volume
                ),
            });
        }
        Ok(())
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
    /// must already be physically placed and indexed at its offset;
    /// `carry_log` transfers the logged deletes when chaining from a
    /// draining flush.
    fn start_flush(
        &mut self,
        trigger: Option<FlushObj>,
        trigger_class: u32,
        extra_log_inserts: Vec<FlushObj>,
        carry_log: VecDeque<LogEntry>,
        floor_end: u64,
    ) {
        // The boundary must cover the tail and any log-resident inserts,
        // which are flushed unconditionally.
        let mut min0 = trigger_class;
        if let Some(m) = self.tail.min_class() {
            min0 = min0.min(m);
        }
        for o in &extra_log_inserts {
            min0 = min0.min(o.class);
        }
        let b = self.layout.boundary_class(min0);

        let extra_buffered: Vec<FlushObj> = self
            .tail
            .live_objects()
            .chain(extra_log_inserts.iter().copied())
            .collect();

        let mut inputs = gather(&self.layout, b, &extra_buffered);
        // A chained flush inherits pending deletes: `class_volume` dropped
        // them when they were logged, yet the plan still places them.
        for &id in &self.pending {
            let (_, entry) = self.layout.lookup(id).expect("pending object is active");
            if entry.class >= b {
                inputs.new_payload[(entry.class - b) as usize] += entry.size;
                inputs.s_new += entry.size;
            }
        }
        // Staging must clear the tail and any old log cells (freed-space
        // rule; see module docs).
        inputs.old_end = inputs
            .old_end
            .max(self.layout.regions_end() + self.tail.capacity)
            .max(floor_end);
        let plan = plan_checkpointed(&inputs, trigger, self.tail.capacity, self.layout.delta());

        self.vf = self.live_volume();
        let log_cursor = plan.peak; // log cells begin past all working space
        self.job = Some(FlushJob {
            peak: plan.peak,
            plan,
            phase_idx: 0,
            move_idx: 0,
            finalized: false,
            log: carry_log,
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
    /// emitted.
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
                ops.push(mv.op());
                // Keep the index (and its extent order) exact mid-flush.
                self.layout
                    .relocate(mv.id, mv.handle, mv.to.offset, mv.dest);
                quota = quota.saturating_sub(mv.to.len);
            }

            // --- Finalize: rebuild regions, re-establish the tail ---
            if !job.finalized {
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
                    LogEntry::Delete { id } => {
                        job.log.pop_front();
                        // Volume was already unaccounted at request time.
                        let entry = self
                            .layout
                            .detach_object(id)
                            .expect("pending object is active");
                        self.pending.remove(&id);
                        self.pending_volume -= entry.size;
                        if !self.free_detached(id, entry, ops) {
                            chain = Some(entry.class);
                            break;
                        }
                    }
                    LogEntry::Insert { id, size, class } => {
                        if quota == 0 {
                            return checkpoints;
                        }
                        let (handle, logged) =
                            self.layout.lookup(id).expect("logged object is active");
                        let obj = Admitted {
                            id,
                            handle,
                            size,
                            class,
                        };
                        let Some(offset) = self.place(obj) else {
                            chain = Some(class);
                            break;
                        };
                        ops.push(StorageOp::Move {
                            id,
                            from: logged.extent(),
                            to: Extent::new(offset, size),
                        });
                        self.job.as_mut().expect("flushing").log.pop_front();
                        quota = quota.saturating_sub(size);
                    }
                }
            }

            match chain {
                Some(trigger_class) => {
                    // Chain into a new flush absorbing every log-resident
                    // insert; deletes stay queued for the new drain.
                    let job = self.job.take().expect("flushing");
                    let mut log_inserts = Vec::new();
                    let mut remaining = VecDeque::new();
                    for e in job.log {
                        match e {
                            LogEntry::Insert { id, size, class } => {
                                let (handle, logged) =
                                    self.layout.lookup(id).expect("logged object is active");
                                log_inserts.push(FlushObj {
                                    id,
                                    handle,
                                    size,
                                    class,
                                    offset: logged.offset,
                                });
                            }
                            LogEntry::Delete { .. } => remaining.push_back(e),
                        }
                    }
                    self.start_flush(None, trigger_class, log_inserts, remaining, job.log_hwm);
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

    /// Frees an object already detached from the index: emits its `Free`,
    /// turns a tail slot into its own dummy record, and charges a payload
    /// delete's dummy record to the earliest buffer with room, else the
    /// tail. False when that dummy fits nowhere (the caller flushes).
    fn free_detached(&mut self, id: ObjectId, entry: Entry, ops: &mut Vec<StorageOp>) -> bool {
        ops.push(StorageOp::Free {
            id,
            at: entry.extent(),
        });
        match entry.place {
            Place::Payload => {
                let kind = BufKind::Tombstone;
                self.layout.buffer_tombstone(entry.class, entry.size)
                    || self.tail.push(entry.size, entry.class, kind).is_some()
            }
            Place::Buffer(_) => true,
            Place::Tail => {
                self.tail.tombstone(entry.offset);
                true
            }
            Place::Staging | Place::Log => {
                unreachable!("staged and logged objects are placed before a delete drains")
            }
        }
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
            job.log.push_back(LogEntry::Insert { id, size, class });
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
            self.start_flush(Some(trigger), class, Vec::new(), VecDeque::new(), 0);
            (at, true)
        };
        let ops = vec![StorageOp::Allocate {
            id,
            to: Extent::new(at, size),
        }];
        Ok(self.finish(ops, flushed, size))
    }

    fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
        if self.job.is_none() {
            // Between flushes no delete is pending: serve it now.
            let entry = self.layout.release(id)?;
            let mut ops = Vec::new();
            let flushed = !self.free_detached(id, entry, &mut ops);
            if flushed {
                // Nothing holds the dummy: flush without using space for it.
                self.start_flush(None, entry.class, Vec::new(), VecDeque::new(), 0);
            }
            return Ok(self.finish(ops, flushed, entry.size));
        }
        // Mid-flush: log the delete (a volume-free record) and hold it
        // pending — the object stays active until drained — then pump.
        let entry = match self.layout.lookup(id) {
            Some((_, e)) if !self.pending.contains(&id) => e,
            _ => return Err(ReallocError::UnknownId(id)),
        };
        self.layout.account_delete(entry.size, entry.class);
        self.pending.insert(id);
        self.pending_volume += entry.size;
        let job = self.job.as_mut().expect("checked");
        job.log.push_back(LogEntry::Delete { id });
        Ok(self.finish(Vec::new(), true, entry.size))
    }

    fn extent_of(&self, id: ObjectId) -> Option<Extent> {
        self.layout.extent_of(id)
    }

    fn is_live(&self, id: ObjectId) -> bool {
        !self.pending.contains(&id) && self.layout.lookup(id).is_some()
    }

    fn live_extents(&self) -> Vec<(ObjectId, Extent)> {
        let mut live = self.layout.live_extents();
        live.retain(|(id, _)| !self.pending.contains(id));
        live
    }

    fn live_volume(&self) -> u64 {
        self.layout.live_volume() + self.pending_volume
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
    fn delete_mid_flush_is_deferred_but_observable() {
        let mut r = DeamortizedReallocator::new(0.5);
        // Drive into a flush.
        let mut i = 0u64;
        while r.is_quiescent() {
            r.insert(id(i), 1 + (i % 60)).unwrap();
            i += 1;
            assert!(i < 500);
        }
        // Delete an early object mid-flush.
        let victim = id(0);
        let vol_before = r.live_volume();
        let w = r.extent_of(victim).unwrap().len;
        r.delete(victim).unwrap();
        // Either the delete is still pending (object active, occupying
        // space) or this request's pump already drained it — both are
        // legal; what is *not* legal is a double delete.
        let pending = r.extent_of(victim).is_some();
        if pending {
            assert_eq!(r.live_volume(), vol_before, "active until drain completes");
        } else {
            assert_eq!(r.live_volume(), vol_before - w);
        }
        assert!(matches!(r.delete(victim), Err(ReallocError::UnknownId(_))));
        // Finish the flush; the object is gone at quiescence.
        while !r.is_quiescent() {
            r.insert(id(10_000 + i), 1).unwrap();
            i += 1;
            assert!(i < 2000);
        }
        assert_eq!(r.live_volume(), vol_before - w);
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

    /// After every request: no deleted id is live, the active volume and
    /// count are those of every id that still has an extent, and the
    /// structure validates.
    fn assert_accounting(r: &DeamortizedReallocator, ids: &[ObjectId], deleted: &[ObjectId]) {
        for &gone in deleted {
            assert!(!r.is_live(gone), "deleted {gone} reports live");
        }
        let active: Vec<Extent> = ids.iter().filter_map(|&id| r.extent_of(id)).collect();
        assert_eq!(r.live_volume(), active.iter().map(|e| e.len).sum::<u64>());
        assert_eq!(r.live_count(), active.len());
        r.validate().unwrap();
    }

    /// Deletes logged mid-flush, then an insert that opens a brand-new
    /// largest class, so the drain chains into a new flush: the deletes
    /// stay deleted through both rebuilds and the deletes logged into the
    /// chained flush, and the live set at quiescence is the model's.
    #[test]
    fn pending_deletes_survive_a_chained_flush() {
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
    /// chained flush starts with deletes still pending: they are payload
    /// survivors of the rebuild, so the plan must size their classes'
    /// payloads with them (else the final offsets overflow their payloads).
    #[test]
    fn chained_flush_plans_payload_for_inherited_pending_deletes() {
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

    /// §3.3 liveness under LIFO-biased churn: a delete logged mid-flush
    /// leaves its object active but never live again — also when the
    /// drain re-places the object's own logged insert ahead of the delete,
    /// and when a rebuild rewrites its entry before the delete drains.
    /// Deleting the newest object most of the time puts many deletes right
    /// behind their own inserts in the log.
    #[test]
    fn logged_deletes_never_report_live() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = DeamortizedReallocator::new(0.25);
            let mut model = BTreeMap::new();
            // Live ids, oldest first.
            let mut order: Vec<ObjectId> = Vec::new();
            // Ids deleted since the current flush began.
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
                        !r.is_live(gone),
                        "seed {seed}, request {n}: deleted {gone} reports live"
                    );
                }
                if r.is_quiescent() {
                    deleted.clear();
                }
                if n % 64 == 63 && r.is_quiescent() {
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

//! The simulated store: extent occupancy, checkpoint epochs, durable
//! translation map, crash recovery.

use std::collections::{BTreeMap, HashSet};

use realloc_common::{Extent, IdMap, ObjectId, StorageOp};

/// A shard's slice of a global device: the half-open cell range
/// `[base, base + span)`.
///
/// A windowed store speaks *window-relative* addresses — the reallocator it
/// replays knows nothing about the window — and enforces that no op writes
/// at or past `span`. The `base` is what makes per-shard address spaces
/// globally disjoint: shard *i*'s window-relative cell `a` is global cell
/// `base + a`, so a cross-shard migration is a genuine cross-address-space
/// copy even when both shards replay into their own store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressWindow {
    /// First global cell owned by this window.
    pub base: u64,
    /// Cells in the window; window-relative addresses must stay below it.
    pub span: u64,
}

impl AddressWindow {
    /// The window `[base, base + span)`.
    ///
    /// # Panics
    /// Panics if `span` is zero or `base + span` overflows.
    pub fn new(base: u64, span: u64) -> Self {
        assert!(span > 0, "an address window must span at least one cell");
        assert!(
            base.checked_add(span).is_some(),
            "window [{base}, {base} + {span}) overflows the address space"
        );
        AddressWindow { base, span }
    }

    /// The `i`-th of a sequence of disjoint equal-span windows — the layout
    /// a sharded engine uses (shard `i` owns `[i·span, (i+1)·span)`).
    pub fn for_shard(shard: usize, span: u64) -> Self {
        AddressWindow::new((shard as u64).saturating_mul(span), span)
    }

    /// Whether a window-relative extent fits inside the window.
    pub fn admits(&self, extent: &Extent) -> bool {
        extent.end() <= self.span
    }

    /// Translates a window-relative extent to global device addresses.
    pub fn global(&self, extent: &Extent) -> Extent {
        Extent::new(self.base + extent.offset, extent.len)
    }
}

impl std::fmt::Display for AddressWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.base, self.base + self.span)
    }
}

/// How strictly the substrate polices writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `memmove` semantics: a move may overlap its own old location, and
    /// freed space is reusable immediately. Clobbering *other* objects is
    /// still a violation. Matches the Section 2 (in-memory) setting.
    Relaxed,
    /// Full database rules: moves must be nonoverlapping, and space freed
    /// after the last checkpoint may not be rewritten until the next one
    /// (Section 3.1). Matches the checkpointed/deamortized algorithms.
    Strict,
}

/// State of one span of the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanState {
    /// Currently holds a live object.
    Live(ObjectId),
    /// Freed at `epoch`, still holding the last durable copy written by
    /// `prior` (or just unreusable free space). Cleared by a checkpoint.
    Ghost {
        /// The object whose bytes still occupy the span.
        prior: ObjectId,
        /// Checkpoint epoch in which the span was freed.
        epoch: u64,
    },
}

/// Which cells hold a live object or a ghost: the one question every write
/// asks. Live objects and ghosts are pairwise disjoint, so the index holds
/// their union and nothing else; *which* object a clash hits is looked up
/// only after the index reports one (see [`SimStore::culprit`]). An empty
/// extent covers no cell in either representation: it touches nothing,
/// and occupying or releasing it changes nothing.
#[derive(Debug, Clone)]
enum Occupancy {
    /// Offset → length of each occupied, nonempty span. Spans are disjoint,
    /// so their ends increase with their offsets: the span with the largest
    /// offset below a query's end is the only one that can intersect it.
    /// Addresses may be unbounded.
    Spans(BTreeMap<u64, u64>),
    /// One bit per cell, grown to the highest cell written. A query or an
    /// update costs O(len / 64) words.
    Cells(Vec<u64>),
}

/// The 64-cell words that `at` covers, each with the mask of `at`'s cells
/// in it. An empty extent covers no cell.
fn words(at: &Extent) -> impl Iterator<Item = (usize, u64)> {
    let (first, end) = (at.offset / 64, at.end().div_ceil(64));
    let head = !0u64 << (at.offset % 64);
    // Cells of the last word below `at.end()`: all 64 when it ends on an edge.
    let tail = !0u64 >> (at.end().wrapping_neg() % 64);
    (first..end).map(move |w| {
        let mut mask = !0u64;
        if w == first {
            mask &= head;
        }
        if w + 1 == end {
            mask &= tail;
        }
        (w as usize, mask)
    })
}

impl Occupancy {
    /// Whether any cell of `at` is occupied.
    fn touches(&self, at: &Extent) -> bool {
        match self {
            Occupancy::Spans(spans) => {
                at.len > 0
                    && spans
                        .range(..at.end())
                        .next_back()
                        .is_some_and(|(&offset, &len)| offset + len > at.offset)
            }
            Occupancy::Cells(bits) => {
                words(at).any(|(w, mask)| bits.get(w).is_some_and(|&word| word & mask != 0))
            }
        }
    }

    /// Marks `at`'s cells occupied; they must all be free.
    fn occupy(&mut self, at: Extent) {
        match self {
            Occupancy::Spans(spans) => {
                if at.len > 0 {
                    spans.insert(at.offset, at.len);
                }
            }
            Occupancy::Cells(bits) => {
                let words_needed = at.end().div_ceil(64) as usize;
                if bits.len() < words_needed {
                    bits.resize(words_needed, 0);
                }
                for (w, mask) in words(&at) {
                    bits[w] |= mask;
                }
            }
        }
    }

    /// Marks `at`'s cells free; `at` must have been occupied whole.
    fn release(&mut self, at: Extent) {
        match self {
            Occupancy::Spans(spans) => {
                if at.len > 0 {
                    let removed = spans.remove(&at.offset);
                    debug_assert_eq!(removed, Some(at.len), "{at} was not occupied whole");
                }
            }
            Occupancy::Cells(bits) => {
                for (w, mask) in words(&at) {
                    bits[w] &= !mask;
                }
            }
        }
    }
}

/// A rule violation detected while replaying an op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Write target intersects a live object other than the one moving.
    TargetOccupied {
        /// The writing object.
        id: ObjectId,
        /// The attempted write location.
        target: Extent,
        /// The live object that would be clobbered.
        hit: ObjectId,
    },
    /// Write target intersects space freed after the last checkpoint.
    FreedSpaceRule {
        /// The writing object.
        id: ObjectId,
        /// The attempted write location.
        target: Extent,
        /// Epoch in which the space was freed.
        freed_epoch: u64,
    },
    /// A move's target overlaps its own source (strict mode only).
    OverlappingMove {
        /// The moving object.
        id: ObjectId,
        /// Its current location.
        from: Extent,
        /// The overlapping target.
        to: Extent,
    },
    /// A move's target is not as long as its source: a move relocates an
    /// object, it never resizes one (both modes).
    ResizingMove {
        /// The moving object.
        id: ObjectId,
        /// Its current location.
        from: Extent,
        /// The target of another length.
        to: Extent,
    },
    /// Move/free source does not match the object's actual placement.
    SourceMismatch {
        /// The object named by the op.
        id: ObjectId,
        /// The location the op claimed.
        claimed: Extent,
        /// Where the store actually has it (if live).
        actual: Option<Extent>,
    },
    /// Allocate for an id that is already live.
    DuplicateObject {
        /// The reused id.
        id: ObjectId,
    },
    /// A write landed at or past the end of the store's address window.
    OutOfWindow {
        /// The writing object.
        id: ObjectId,
        /// The attempted (window-relative) write location.
        target: Extent,
        /// Cells the window spans.
        span: u64,
    },
    /// An adopted transfer's bytes did not match the checksum they shipped
    /// with — the payload was corrupted or truncated in flight.
    DamagedTransfer {
        /// The arriving object.
        id: ObjectId,
        /// Checksum the sender computed over the released bytes.
        expected: u64,
        /// Checksum of the bytes that actually arrived.
        actual: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::TargetOccupied { id, target, hit } => {
                write!(f, "{id}: write to {target} clobbers live {hit}")
            }
            Violation::FreedSpaceRule { id, target, freed_epoch } => write!(
                f,
                "{id}: write to {target} reuses space freed at epoch {freed_epoch} before a checkpoint"
            ),
            Violation::OverlappingMove { id, from, to } => {
                write!(f, "{id}: move {from} -> {to} overlaps itself")
            }
            Violation::ResizingMove { id, from, to } => {
                write!(f, "{id}: move {from} -> {to} changes its length")
            }
            Violation::SourceMismatch { id, claimed, actual } => {
                write!(f, "{id}: source {claimed} but object is at {actual:?}")
            }
            Violation::DuplicateObject { id } => write!(f, "{id}: allocated twice"),
            Violation::OutOfWindow { id, target, span } => {
                write!(f, "{id}: write to {target} exceeds the {span}-cell window")
            }
            Violation::DamagedTransfer {
                id,
                expected,
                actual,
            } => write!(
                f,
                "{id}: transfer arrived damaged (checksum {actual:#x} != {expected:#x})"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Outcome of a simulated crash + recovery.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Objects whose durable mapping still points at an intact copy.
    pub recovered: Vec<ObjectId>,
    /// Objects whose durable copy was destroyed — must stay empty if the
    /// replayed algorithm respected the rules.
    pub lost: Vec<ObjectId>,
}

impl RecoveryReport {
    /// Whether every durably mapped object survived.
    pub fn is_durable(&self) -> bool {
        self.lost.is_empty()
    }
}

/// The simulated storage device + block translation layer.
///
/// The rules read two maps: the live map (object → extent) and this
/// epoch's ghost list (extents vacated since the last checkpoint, with the
/// object whose copy still sits there). Every write first asks an
/// occupancy index whether its target touches a live object or a ghost.
/// A bare store indexes the occupied spans by offset, since its addresses
/// are unbounded (a trace at the volume cap places 2^59-cell objects); the
/// rule layer of a [`DataStore`](crate::DataStore), whose cells already
/// bound its addresses, keeps one bit per cell. Only a rejected write looks
/// for the object it hit, so both indexes give the same [`Violation`]s.
///
/// Replay does work in proportion to what changed. A strict move or free
/// leaves its source occupied and pushes it onto the ghost list. A
/// checkpoint folds only the placements changed since the previous one
/// into the durable map and frees only this epoch's ghosts.
#[derive(Debug, Clone)]
pub struct SimStore {
    mode: Mode,
    /// When present, every write must stay below `window.span` (addresses
    /// are window-relative; see [`AddressWindow`]).
    window: Option<AddressWindow>,
    /// The cells of every live object and ghost, and no others.
    occupied: Occupancy,
    live: IdMap<Extent>,
    /// The durable name -> extent map as of the last checkpoint.
    durable_btl: IdMap<Extent>,
    /// Placements changed since the last checkpoint, in apply order (`None`
    /// for a free). Never longer than `live`: past that it is dropped and
    /// `rebuild_btl` set, so a store that never checkpoints stays bounded.
    changed: Vec<(ObjectId, Option<Extent>)>,
    /// The next checkpoint copies `live` whole instead of folding `changed`.
    rebuild_btl: bool,
    /// This epoch's ghosts: each vacated extent and the object whose copy
    /// still occupies it. Exact: the freed-space rule rejects every write
    /// that touches a ghost, so a ghost stays where it is until the
    /// checkpoint that frees it.
    ghosts: Vec<(Extent, ObjectId)>,
    epoch: u64,
    checkpoints: u64,
    peak_end: u64,
    ops_applied: u64,
}

impl SimStore {
    /// An empty store enforcing the given mode's rules over an unbounded
    /// address space.
    pub fn new(mode: Mode) -> Self {
        SimStore::with_index(mode, None, Occupancy::Spans(BTreeMap::new()))
    }

    /// An empty store owning the address window `window`: op addresses are
    /// window-relative, and any write reaching `window.span` or beyond is a
    /// [`Violation::OutOfWindow`]. This is how a sharded engine gives each
    /// shard a disjoint slice of one global device.
    pub fn windowed(mode: Mode, window: AddressWindow) -> Self {
        SimStore::with_index(mode, Some(window), Occupancy::Spans(BTreeMap::new()))
    }

    /// The rule layer of a store that carries bytes: its addresses are
    /// bounded by the cells it holds, so occupancy takes one bit per cell.
    pub(crate) fn carrying_bytes(mode: Mode, window: Option<AddressWindow>) -> Self {
        SimStore::with_index(mode, window, Occupancy::Cells(Vec::new()))
    }

    fn with_index(mode: Mode, window: Option<AddressWindow>, occupied: Occupancy) -> Self {
        SimStore {
            mode,
            window,
            occupied,
            live: IdMap::default(),
            durable_btl: IdMap::default(),
            changed: Vec::new(),
            rebuild_btl: false,
            ghosts: Vec::new(),
            epoch: 0,
            checkpoints: 0,
            peak_end: 0,
            ops_applied: 0,
        }
    }

    /// The rule mode this store enforces.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The address window this store owns, if it is windowed.
    pub fn window(&self) -> Option<AddressWindow> {
        self.window
    }

    /// Current checkpoint epoch (starts at 0, bumped by each checkpoint).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of checkpoints performed.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Ops replayed so far.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Live placement of `id`, if any.
    pub fn extent_of(&self, id: ObjectId) -> Option<Extent> {
        self.live.get(&id).copied()
    }

    /// The live objects, in no particular order.
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.live.keys().copied()
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Total volume of live objects.
    pub fn live_volume(&self) -> u64 {
        self.live.values().map(|e| e.len).sum()
    }

    /// One past the largest cell holding a live object.
    pub fn footprint(&self) -> u64 {
        self.live.values().map(|e| e.end()).max().unwrap_or(0)
    }

    /// One past the largest cell ever written (ghost copies included).
    pub fn peak_physical_end(&self) -> u64 {
        self.peak_end
    }

    /// Rejects writes escaping the address window, if one is set.
    fn check_window(&self, id: ObjectId, target: &Extent) -> Result<(), Violation> {
        match self.window {
            Some(w) if !w.admits(target) => Err(Violation::OutOfWindow {
                id,
                target: *target,
                span: w.span,
            }),
            _ => Ok(()),
        }
    }

    /// The span a rejected write of `id` to `target` hits: of the live
    /// objects other than `id` and this epoch's ghosts (each checkpoint
    /// frees every ghost, so none is older), the one sharing a cell with
    /// `target` at the largest offset. An empty span shares no cell.
    /// O(live + ghosts), so it runs only once the occupancy index has
    /// reported a clash.
    fn culprit(&self, id: ObjectId, target: &Extent) -> SpanState {
        let live = self
            .live
            .iter()
            .filter(|&(&owner, _)| owner != id)
            .map(|(&owner, &at)| (at, SpanState::Live(owner)));
        let epoch = self.epoch;
        let ghosts = self
            .ghosts
            .iter()
            .map(|&(at, prior)| (at, SpanState::Ghost { prior, epoch }));
        live.chain(ghosts)
            .filter(|(at, _)| at.overlaps(target))
            .max_by_key(|(at, _)| at.offset)
            .map(|(_, state)| state)
            .expect("the occupancy index holds only live objects and ghosts")
    }

    /// Validates that `target` is writable for `id`.
    fn check_writable(&self, id: ObjectId, target: &Extent) -> Result<(), Violation> {
        if !self.occupied.touches(target) {
            return Ok(());
        }
        Err(match self.culprit(id, target) {
            SpanState::Live(hit) => Violation::TargetOccupied {
                id,
                target: *target,
                hit,
            },
            SpanState::Ghost { epoch, .. } => {
                // Only present in strict mode.
                debug_assert_eq!(self.mode, Mode::Strict);
                Violation::FreedSpaceRule {
                    id,
                    target: *target,
                    freed_epoch: epoch,
                }
            }
        })
    }

    /// Validates that `id` is live at exactly `claimed`.
    fn check_source(&self, id: ObjectId, claimed: Extent) -> Result<(), Violation> {
        let actual = self.live.get(&id).copied();
        if actual == Some(claimed) {
            Ok(())
        } else {
            Err(Violation::SourceMismatch {
                id,
                claimed,
                actual,
            })
        }
    }

    fn occupy(&mut self, at: Extent) {
        self.occupied.occupy(at);
        self.peak_end = self.peak_end.max(at.end());
    }

    /// Vacates `id`'s live extent `from`. Strict mode keeps it occupied as
    /// a ghost: the old copy must survive until the next checkpoint.
    /// Relaxed mode frees it at once.
    fn vacate(&mut self, id: ObjectId, from: Extent) {
        match self.mode {
            Mode::Strict => self.ghosts.push((from, id)),
            Mode::Relaxed => self.occupied.release(from),
        }
    }

    /// Sets `id`'s live placement and records the change for the next
    /// checkpoint. The change list never outgrows `live`.
    fn place(&mut self, id: ObjectId, at: Option<Extent>) {
        match at {
            Some(ext) => self.live.insert(id, ext),
            None => self.live.remove(&id),
        };
        if self.rebuild_btl {
            return;
        }
        self.changed.push((id, at));
        if self.changed.len() > self.live.len() {
            self.changed.clear();
            self.rebuild_btl = true;
        }
    }

    /// Replay one op against the store. A rejected op changes nothing but
    /// the [`ops_applied`](Self::ops_applied) count.
    pub fn apply(&mut self, op: &StorageOp) -> Result<(), Violation> {
        self.ops_applied += 1;
        match *op {
            StorageOp::Allocate { id, to } => {
                if self.live.contains_key(&id) {
                    return Err(Violation::DuplicateObject { id });
                }
                self.check_window(id, &to)?;
                self.check_writable(id, &to)?;
                self.occupy(to);
                self.place(id, Some(to));
                Ok(())
            }
            StorageOp::Move { id, from, to } => {
                self.check_source(id, from)?;
                if to.len != from.len {
                    return Err(Violation::ResizingMove { id, from, to });
                }
                self.check_window(id, &to)?;
                match self.mode {
                    Mode::Strict => {
                        if from.overlaps(&to) {
                            return Err(Violation::OverlappingMove { id, from, to });
                        }
                        // The target is disjoint from the source, so the
                        // source's cells cannot trip the check.
                        self.check_writable(id, &to)?;
                        self.vacate(id, from);
                    }
                    Mode::Relaxed => {
                        // Vacate the source first so a self-overlapping move
                        // does not trip the occupancy check.
                        self.vacate(id, from);
                        if let Err(v) = self.check_writable(id, &to) {
                            self.occupy(from);
                            return Err(v);
                        }
                    }
                }
                self.occupy(to);
                self.place(id, Some(to));
                Ok(())
            }
            StorageOp::Free { id, at } => {
                self.check_source(id, at)?;
                self.vacate(id, at);
                self.place(id, None);
                Ok(())
            }
            StorageOp::CheckpointBarrier => {
                self.checkpoint();
                Ok(())
            }
        }
    }

    /// Replay a whole op stream, stopping at the first violation.
    pub fn apply_all(&mut self, ops: &[StorageOp]) -> Result<(), Violation> {
        ops.iter().try_for_each(|op| self.apply(op))
    }

    /// Perform a checkpoint: the translation map becomes durable and all
    /// ghosts become ordinary reusable free space.
    ///
    /// Costs O(placements changed since the previous checkpoint + ghosts
    /// made since then), not O(live objects): only the changes are folded
    /// into the durable map (a full copy only after more changes than live
    /// objects), and only this epoch's ghosts are freed (one span-map
    /// removal each, or O(len / 64) words of the cell index).
    pub fn checkpoint(&mut self) {
        if std::mem::take(&mut self.rebuild_btl) {
            self.durable_btl.clone_from(&self.live);
        } else {
            for (id, at) in self.changed.drain(..) {
                match at {
                    Some(ext) => self.durable_btl.insert(id, ext),
                    None => self.durable_btl.remove(&id),
                };
            }
        }
        for (at, _) in self.ghosts.drain(..) {
            self.occupied.release(at);
        }
        self.epoch += 1;
        self.checkpoints += 1;
    }

    /// The durable translation map (as of the last checkpoint).
    pub fn durable_btl(&self) -> &IdMap<Extent> {
        &self.durable_btl
    }

    /// Simulate a crash right now and recover from the last checkpoint.
    ///
    /// Every object in the durable map must still have an intact copy at
    /// its mapped extent: either it never moved (still live there) or the
    /// extent is a ghost preserved by the freed-space rule. If the replayed
    /// algorithm broke the rules, objects land in `lost`.
    pub fn crash_and_recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let ghosts: HashSet<(Extent, ObjectId)> = self.ghosts.iter().copied().collect();
        for (&id, &ext) in &self.durable_btl {
            // Live or ghost, the extent must still hold this object's copy.
            let intact = self.live.get(&id) == Some(&ext) || ghosts.contains(&(ext, id));
            if intact {
                report.recovered.push(id);
            } else {
                report.lost.push(id);
            }
        }
        report.recovered.sort_unstable();
        report.lost.sort_unstable();
        report
    }

    /// Cross-checks the store's live placements against a reallocator's
    /// view; returns a description of the first divergence.
    pub fn verify_matches(
        &self,
        extent_of: impl Fn(ObjectId) -> Option<Extent>,
    ) -> Result<(), String> {
        for (&id, &ext) in &self.live {
            match extent_of(id) {
                Some(e) if e == ext => {}
                other => {
                    return Err(format!("{id}: store has {ext}, reallocator has {other:?}"));
                }
            }
        }
        Ok(())
    }

    /// All live spans in address order (for rendering and tests).
    pub fn live_spans(&self) -> Vec<(Extent, ObjectId)> {
        let mut spans: Vec<_> = self.live.iter().map(|(&id, &at)| (at, id)).collect();
        spans.sort_unstable();
        spans
    }

    /// All ghost spans in address order.
    pub fn ghost_spans(&self) -> Vec<(Extent, ObjectId, u64)> {
        let mut spans: Vec<_> = self
            .ghosts
            .iter()
            .map(|&(at, prior)| (at, prior, self.epoch))
            .collect();
        spans.sort_unstable();
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(o: u64, l: u64) -> Extent {
        Extent::new(o, l)
    }
    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }

    fn alloc(n: u64, o: u64, l: u64) -> StorageOp {
        StorageOp::Allocate {
            id: id(n),
            to: ext(o, l),
        }
    }

    #[test]
    fn allocate_and_lookup() {
        let mut s = SimStore::new(Mode::Strict);
        s.apply(&alloc(1, 0, 10)).unwrap();
        s.apply(&alloc(2, 10, 5)).unwrap();
        assert_eq!(s.extent_of(id(1)), Some(ext(0, 10)));
        assert_eq!(s.live_volume(), 15);
        assert_eq!(s.footprint(), 15);
    }

    #[test]
    fn double_allocate_rejected() {
        let mut s = SimStore::new(Mode::Strict);
        s.apply(&alloc(1, 0, 10)).unwrap();
        assert_eq!(
            s.apply(&alloc(1, 20, 10)),
            Err(Violation::DuplicateObject { id: id(1) })
        );
    }

    #[test]
    fn clobbering_live_object_rejected_in_both_modes() {
        for mode in [Mode::Relaxed, Mode::Strict] {
            let mut s = SimStore::new(mode);
            s.apply(&alloc(1, 0, 10)).unwrap();
            let err = s.apply(&alloc(2, 5, 10)).unwrap_err();
            assert!(matches!(err, Violation::TargetOccupied { hit, .. } if hit == id(1)));
        }
    }

    #[test]
    fn self_overlapping_move_allowed_relaxed_rejected_strict() {
        let mv = StorageOp::Move {
            id: id(1),
            from: ext(10, 10),
            to: ext(5, 10),
        };

        let mut relaxed = SimStore::new(Mode::Relaxed);
        relaxed.apply(&alloc(1, 10, 10)).unwrap();
        relaxed.apply(&mv).unwrap();
        assert_eq!(relaxed.extent_of(id(1)), Some(ext(5, 10)));

        let mut strict = SimStore::new(Mode::Strict);
        strict.apply(&alloc(1, 10, 10)).unwrap();
        let err = strict.apply(&mv).unwrap_err();
        assert!(matches!(err, Violation::OverlappingMove { .. }));
        // State unchanged after the rejected move.
        assert_eq!(strict.extent_of(id(1)), Some(ext(10, 10)));
    }

    #[test]
    fn freed_space_rule_enforced_until_checkpoint() {
        let mut s = SimStore::new(Mode::Strict);
        s.apply(&alloc(1, 0, 10)).unwrap();
        s.apply(&StorageOp::Free {
            id: id(1),
            at: ext(0, 10),
        })
        .unwrap();
        // Reuse before checkpoint: violation.
        let err = s.apply(&alloc(2, 0, 10)).unwrap_err();
        assert!(matches!(err, Violation::FreedSpaceRule { .. }));
        // After a checkpoint the space is reusable.
        s.apply(&StorageOp::CheckpointBarrier).unwrap();
        s.apply(&alloc(2, 0, 10)).unwrap();
        assert_eq!(s.extent_of(id(2)), Some(ext(0, 10)));
    }

    #[test]
    fn relaxed_mode_reuses_freed_space_immediately() {
        let mut s = SimStore::new(Mode::Relaxed);
        s.apply(&alloc(1, 0, 10)).unwrap();
        s.apply(&StorageOp::Free {
            id: id(1),
            at: ext(0, 10),
        })
        .unwrap();
        s.apply(&alloc(2, 0, 10)).unwrap();
    }

    #[test]
    fn moved_objects_old_copy_protected_until_checkpoint() {
        let mut s = SimStore::new(Mode::Strict);
        s.apply(&alloc(1, 0, 10)).unwrap();
        s.apply(&StorageOp::CheckpointBarrier).unwrap();
        // Durable map now points at [0,10).
        s.apply(&StorageOp::Move {
            id: id(1),
            from: ext(0, 10),
            to: ext(20, 10),
        })
        .unwrap();
        // Old location may not be reused yet...
        let err = s.apply(&alloc(2, 0, 10)).unwrap_err();
        assert!(matches!(err, Violation::FreedSpaceRule { .. }));
        // ...and a crash now still recovers object 1 from the old copy.
        let report = s.crash_and_recover();
        assert_eq!(report.recovered, vec![id(1)]);
        assert!(report.is_durable());
    }

    #[test]
    fn recovery_detects_loss_if_rules_bypassed() {
        // Build a store, move an object, then forcibly clobber the ghost by
        // checkpoint-skipping via relaxed mode to simulate a buggy engine.
        let mut s = SimStore::new(Mode::Relaxed);
        s.apply(&alloc(1, 0, 10)).unwrap();
        s.checkpoint(); // durable: 1 -> [0,10)
        s.apply(&StorageOp::Move {
            id: id(1),
            from: ext(0, 10),
            to: ext(20, 10),
        })
        .unwrap();
        // Relaxed mode lets object 2 take the old space immediately.
        s.apply(&alloc(2, 0, 10)).unwrap();
        let report = s.crash_and_recover();
        assert_eq!(report.lost, vec![id(1)]);
        assert!(!report.is_durable());
    }

    #[test]
    fn source_mismatch_detected() {
        let mut s = SimStore::new(Mode::Strict);
        s.apply(&alloc(1, 0, 10)).unwrap();
        let err = s
            .apply(&StorageOp::Move {
                id: id(1),
                from: ext(2, 10),
                to: ext(30, 10),
            })
            .unwrap_err();
        assert!(matches!(err, Violation::SourceMismatch { .. }));
        let err = s
            .apply(&StorageOp::Free {
                id: id(2),
                at: ext(0, 10),
            })
            .unwrap_err();
        assert!(matches!(err, Violation::SourceMismatch { .. }));
    }

    #[test]
    fn chained_moves_without_checkpoint_recover_from_oldest_copy() {
        let mut s = SimStore::new(Mode::Strict);
        s.apply(&alloc(1, 0, 10)).unwrap();
        s.checkpoint();
        s.apply(&StorageOp::Move {
            id: id(1),
            from: ext(0, 10),
            to: ext(20, 10),
        })
        .unwrap();
        s.apply(&StorageOp::Move {
            id: id(1),
            from: ext(20, 10),
            to: ext(40, 10),
        })
        .unwrap();
        // Durable map points at [0,10), which is still a ghost of object 1.
        assert!(s.crash_and_recover().is_durable());
        assert_eq!(s.ghost_spans().len(), 2);
        s.checkpoint();
        assert!(s.ghost_spans().is_empty());
        assert_eq!(s.durable_btl()[&id(1)], ext(40, 10));
    }

    #[test]
    fn rejected_strict_ops_change_nothing() {
        let mut s = SimStore::windowed(Mode::Strict, AddressWindow::new(0, 100));
        s.apply(&alloc(1, 0, 10)).unwrap();
        s.apply(&alloc(2, 10, 10)).unwrap();
        s.apply(&alloc(3, 40, 10)).unwrap();
        s.checkpoint();
        // This epoch: one changed placement and one ghost at [0, 10).
        s.apply(&StorageOp::Move {
            id: id(1),
            from: ext(0, 10),
            to: ext(20, 10),
        })
        .unwrap();
        let move_2 = |to| StorageOp::Move {
            id: id(2),
            from: ext(10, 10),
            to,
        };
        let rejected = [
            (move_2(ext(35, 10)), "TargetOccupied"),
            (alloc(4, 45, 2), "TargetOccupied"),
            (move_2(ext(0, 10)), "FreedSpaceRule"),
            (alloc(4, 5, 3), "FreedSpaceRule"),
            (move_2(ext(95, 10)), "OutOfWindow"),
            (alloc(4, 99, 2), "OutOfWindow"),
            (move_2(ext(15, 10)), "OverlappingMove"),
        ];
        for (op, kind) in rejected {
            let before = s.clone();
            let err = s.apply(&op).unwrap_err();
            assert!(format!("{err:?}").starts_with(kind), "{op:?}: {err:?}");
            assert_eq!(s.live_spans(), before.live_spans(), "{op:?}");
            assert_eq!(s.ghost_spans(), before.ghost_spans(), "{op:?}");
            let (mut after, mut expected) = (s.clone(), before);
            after.checkpoint();
            expected.checkpoint();
            assert_eq!(after.durable_btl(), expected.durable_btl(), "{op:?}");
            assert_eq!(after.live_spans(), expected.live_spans(), "{op:?}");
            assert!(after.ghost_spans().is_empty(), "{op:?}");
            assert_eq!(after.durable_btl().len(), 3);
            assert_eq!(after.durable_btl()[&id(1)], ext(20, 10));
        }
    }

    #[test]
    fn change_list_stays_within_the_live_count() {
        let mut s = SimStore::new(Mode::Relaxed);
        for n in 0..64 {
            s.apply(&alloc(n, n * 10, 10)).unwrap();
        }
        // 100k moves and no checkpoint: each object shuttles between its
        // low slot and a slot above every low one.
        for step in 0..100_000u64 {
            let n = step % 64;
            let (low, high) = (ext(n * 10, 10), ext(1_000 + n * 10, 10));
            let (from, to) = if (step / 64) % 2 == 0 {
                (low, high)
            } else {
                (high, low)
            };
            s.apply(&StorageOp::Move {
                id: id(n),
                from,
                to,
            })
            .unwrap();
            assert!(s.changed.len() <= s.live_count());
        }
        let live: IdMap<Extent> = s.live_spans().into_iter().map(|(e, i)| (i, e)).collect();
        s.checkpoint();
        assert_eq!(s.durable_btl(), &live);

        // Below the cap, the next checkpoint folds just the changes.
        s.apply(&StorageOp::Free {
            id: id(0),
            at: live[&id(0)],
        })
        .unwrap();
        assert_eq!(s.changed, [(id(0), None)]);
        assert!(!s.rebuild_btl);
        s.checkpoint();
        assert_eq!(s.durable_btl().len(), 63);
        assert!(!s.durable_btl().contains_key(&id(0)));
    }

    #[test]
    fn footprint_and_peak_track_live_and_ghost_space() {
        let mut s = SimStore::new(Mode::Strict);
        s.apply(&alloc(1, 0, 10)).unwrap();
        s.apply(&StorageOp::Move {
            id: id(1),
            from: ext(0, 10),
            to: ext(90, 10),
        })
        .unwrap();
        assert_eq!(s.footprint(), 100);
        assert_eq!(s.peak_physical_end(), 100);
        s.apply(&StorageOp::CheckpointBarrier).unwrap();
        s.apply(&StorageOp::Move {
            id: id(1),
            from: ext(90, 10),
            to: ext(0, 10),
        })
        .unwrap();
        assert_eq!(s.footprint(), 10);
        assert_eq!(s.peak_physical_end(), 100, "high-water mark is sticky");
    }

    #[test]
    fn verify_matches_reports_divergence() {
        let mut s = SimStore::new(Mode::Strict);
        s.apply(&alloc(1, 0, 10)).unwrap();
        assert!(s
            .verify_matches(|oid| (oid == id(1)).then(|| ext(0, 10)))
            .is_ok());
        assert!(s.verify_matches(|_| None).is_err());
        assert!(s.verify_matches(|_| Some(ext(1, 10))).is_err());
    }

    #[test]
    fn windowed_store_rejects_escaping_writes() {
        let w = AddressWindow::new(1_000, 100);
        assert_eq!(w.global(&ext(5, 10)), ext(1_005, 10));
        assert!(w.admits(&ext(90, 10)));
        assert!(!w.admits(&ext(91, 10)));

        let mut s = SimStore::windowed(Mode::Relaxed, w);
        assert_eq!(s.window(), Some(w));
        s.apply(&alloc(1, 0, 100)).unwrap();
        s.apply(&StorageOp::Free {
            id: id(1),
            at: ext(0, 100),
        })
        .unwrap();
        // Allocate past the span: rejected, state unchanged.
        let err = s.apply(&alloc(2, 95, 10)).unwrap_err();
        assert!(matches!(err, Violation::OutOfWindow { span: 100, .. }));
        // A move escaping the window is rejected with the source restored.
        s.apply(&alloc(3, 0, 10)).unwrap();
        let err = s
            .apply(&StorageOp::Move {
                id: id(3),
                from: ext(0, 10),
                to: ext(95, 10),
            })
            .unwrap_err();
        assert!(matches!(err, Violation::OutOfWindow { .. }));
        assert_eq!(s.extent_of(id(3)), Some(ext(0, 10)));
    }

    #[test]
    fn shard_windows_are_disjoint() {
        let a = AddressWindow::for_shard(0, 1 << 20);
        let b = AddressWindow::for_shard(1, 1 << 20);
        assert_eq!(a.base + a.span, b.base);
        // The same window-relative extent maps to disjoint global extents.
        let local = ext(17, 64);
        assert!(!a.global(&local).overlaps(&b.global(&local)));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_span_window_rejected() {
        AddressWindow::new(0, 0);
    }

    #[test]
    fn occupancy_is_exact_at_word_edges() {
        // Both indexes, so the span index vouches for the cell index.
        for mut s in [
            SimStore::carrying_bytes(Mode::Strict, None),
            SimStore::new(Mode::Strict),
        ] {
            // Cells 63–64 straddle the first word edge, 127 ends word 1 and
            // 128–191 fill word 2.
            s.apply(&alloc(1, 63, 2)).unwrap();
            s.apply(&alloc(2, 127, 1)).unwrap();
            s.apply(&alloc(3, 128, 64)).unwrap();
            // Each of these touches exactly one occupied cell.
            for (to, hit) in [
                (ext(0, 64), 1),
                (ext(64, 1), 1),
                (ext(64, 63), 1),
                (ext(65, 63), 2),
                (ext(120, 8), 2),
                (ext(128, 1), 3),
                (ext(191, 65), 3),
            ] {
                let err = s.apply(&alloc(9, to.offset, to.len)).unwrap_err();
                assert_eq!(
                    err,
                    Violation::TargetOccupied {
                        id: id(9),
                        target: to,
                        hit: id(hit)
                    }
                );
            }
            // These end or start just beside the occupied cells.
            for to in [ext(0, 63), ext(65, 62), ext(192, 1), ext(192, 200)] {
                s.clone().apply(&alloc(9, to.offset, to.len)).unwrap();
            }

            // Ghosts at 63–64 and 127; a checkpoint frees exactly those.
            s.apply(&StorageOp::Move {
                id: id(1),
                from: ext(63, 2),
                to: ext(300, 2),
            })
            .unwrap();
            s.apply(&StorageOp::Free {
                id: id(2),
                at: ext(127, 1),
            })
            .unwrap();
            for to in [ext(0, 64), ext(64, 1), ext(120, 8)] {
                let err = s.apply(&alloc(9, to.offset, to.len)).unwrap_err();
                assert!(matches!(err, Violation::FreedSpaceRule { .. }), "{to}");
            }
            s.checkpoint();
            s.clone().apply(&alloc(9, 0, 128)).unwrap();
            for (to, hit) in [(ext(0, 129), 3), (ext(299, 2), 1), (ext(301, 64), 1)] {
                let err = s.apply(&alloc(9, to.offset, to.len)).unwrap_err();
                assert!(matches!(err, Violation::TargetOccupied { hit: h, .. } if h == id(hit)));
            }
            s.apply(&alloc(9, 302, 1)).unwrap();
        }
    }

    #[test]
    fn a_rejected_write_names_the_span_at_the_largest_offset() {
        fn hit(s: &mut SimStore, op: StorageOp) -> Option<ObjectId> {
            match s.apply(&op) {
                Err(Violation::TargetOccupied { hit, .. }) => Some(hit),
                _ => None,
            }
        }
        for mode in [Mode::Relaxed, Mode::Strict] {
            for mut s in [SimStore::carrying_bytes(mode, None), SimStore::new(mode)] {
                s.apply(&alloc(1, 0, 5)).unwrap();
                s.apply(&alloc(2, 10, 10)).unwrap();
                s.apply(&alloc(3, 30, 10)).unwrap();
                assert_eq!(hit(&mut s, alloc(9, 0, 40)), Some(id(3)));
                assert_eq!(hit(&mut s, alloc(9, 4, 7)), Some(id(2)));
                if mode == Mode::Relaxed {
                    // A self-overlapping move never names its own source.
                    let mv = StorageOp::Move {
                        id: id(2),
                        from: ext(10, 10),
                        to: ext(4, 10),
                    };
                    assert_eq!(hit(&mut s, mv), Some(id(1)));
                } else {
                    // A ghost above a live object is the one named.
                    s.apply(&StorageOp::Free {
                        id: id(3),
                        at: ext(30, 10),
                    })
                    .unwrap();
                    let err = s.apply(&alloc(9, 15, 20)).unwrap_err();
                    assert!(matches!(err, Violation::FreedSpaceRule { .. }), "{err:?}");
                }
            }
        }
    }

    #[test]
    fn an_empty_extent_occupies_no_cell() {
        for mode in [Mode::Relaxed, Mode::Strict] {
            for mut s in [SimStore::carrying_bytes(mode, None), SimStore::new(mode)] {
                s.apply(&alloc(1, 10, 10)).unwrap();
                // At a live object's offset, and strictly inside it.
                s.apply(&alloc(2, 10, 0)).unwrap();
                s.apply(&alloc(3, 13, 0)).unwrap();
                // Object 1 still holds its cells, and an empty object is
                // never the one a write hits.
                let err = s.apply(&alloc(4, 12, 4)).unwrap_err();
                assert!(
                    matches!(err, Violation::TargetOccupied { hit, .. } if hit == id(1)),
                    "{mode:?}: {err:?}"
                );
                // Freeing the empty objects frees none of object 1's cells.
                s.apply(&StorageOp::Free {
                    id: id(2),
                    at: ext(10, 0),
                })
                .unwrap();
                s.apply(&StorageOp::Free {
                    id: id(3),
                    at: ext(13, 0),
                })
                .unwrap();
                s.checkpoint();
                assert!(s.apply(&alloc(4, 12, 4)).is_err(), "{mode:?}");
                s.apply(&StorageOp::Free {
                    id: id(1),
                    at: ext(10, 10),
                })
                .unwrap();
                s.checkpoint();
                s.apply(&alloc(4, 12, 4)).unwrap();
            }
        }
    }

    #[test]
    fn a_move_never_changes_its_objects_length() {
        for mode in [Mode::Relaxed, Mode::Strict] {
            for mut s in [SimStore::carrying_bytes(mode, None), SimStore::new(mode)] {
                s.apply(&alloc(1, 0, 10)).unwrap();
                s.apply(&alloc(2, 13, 0)).unwrap();
                for (n, from, to) in [
                    (1, ext(0, 10), ext(20, 4)),
                    (1, ext(0, 10), ext(20, 40)),
                    (1, ext(0, 10), ext(0, 0)),
                    (2, ext(13, 0), ext(12, 4)),
                ] {
                    let mv = StorageOp::Move {
                        id: id(n),
                        from,
                        to,
                    };
                    let before = s.live_spans();
                    assert_eq!(
                        s.apply(&mv),
                        Err(Violation::ResizingMove {
                            id: id(n),
                            from,
                            to
                        }),
                        "{mode:?}"
                    );
                    assert_eq!(s.live_spans(), before, "{mode:?}: {mv:?}");
                }
                // Moves of the same length still go through.
                s.apply(&StorageOp::Move {
                    id: id(1),
                    from: ext(0, 10),
                    to: ext(20, 10),
                })
                .unwrap();
                s.apply(&StorageOp::Move {
                    id: id(2),
                    from: ext(13, 0),
                    to: ext(40, 0),
                })
                .unwrap();
                assert_eq!(s.live_volume(), 10);
            }
        }
    }

    #[test]
    fn live_spans_sorted_by_address() {
        let mut s = SimStore::new(Mode::Relaxed);
        s.apply(&alloc(1, 50, 10)).unwrap();
        s.apply(&alloc(2, 0, 10)).unwrap();
        s.apply(&alloc(3, 20, 10)).unwrap();
        let spans = s.live_spans();
        let offsets: Vec<u64> = spans.iter().map(|(e, _)| e.offset).collect();
        assert_eq!(offsets, vec![0, 20, 50]);
    }
}

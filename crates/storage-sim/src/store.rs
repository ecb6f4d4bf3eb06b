//! The simulated store: extent occupancy, checkpoint epochs, durable
//! translation map, crash recovery.

use std::collections::BTreeMap;

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

/// One span of the address space: the object written there. Whether it is
/// live or a ghost is read off the live map (see [`SimStore::state`]).
#[derive(Debug, Clone, Copy)]
struct Span {
    len: u64,
    id: ObjectId,
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
/// Spans (live objects and strict-mode ghosts) are kept in an offset-keyed
/// map; because spans are pairwise disjoint, their `end`s increase with
/// their offsets, so intersection queries need only inspect the predecessor
/// of the query's end.
///
/// Replay does work in proportion to what changed. A strict move or free
/// leaves its source span in place: a span records only the object written
/// there, and it is a ghost exactly when the live map no longer places that
/// object there. A checkpoint folds only the placements changed since the
/// previous one into the durable map and removes only this epoch's ghosts.
#[derive(Debug, Clone)]
pub struct SimStore {
    mode: Mode,
    /// When present, every write must stay below `window.span` (addresses
    /// are window-relative; see [`AddressWindow`]).
    window: Option<AddressWindow>,
    spans: BTreeMap<u64, Span>,
    live: IdMap<Extent>,
    /// The durable name -> extent map as of the last checkpoint.
    durable_btl: IdMap<Extent>,
    /// Placements changed since the last checkpoint, in apply order (`None`
    /// for a free). Never longer than `live`: past that it is dropped and
    /// `rebuild_btl` set, so a store that never checkpoints stays bounded.
    changed: Vec<(ObjectId, Option<Extent>)>,
    /// The next checkpoint copies `live` whole instead of folding `changed`.
    rebuild_btl: bool,
    /// Offsets of this epoch's ghost spans. Exact: the freed-space rule
    /// rejects every write that touches a ghost, so a ghost stays where it
    /// is until the checkpoint that removes it.
    ghosts: Vec<u64>,
    epoch: u64,
    checkpoints: u64,
    peak_end: u64,
    ops_applied: u64,
}

impl SimStore {
    /// An empty store enforcing the given mode's rules over an unbounded
    /// address space.
    pub fn new(mode: Mode) -> Self {
        SimStore {
            mode,
            window: None,
            spans: BTreeMap::new(),
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

    /// An empty store owning the address window `window`: op addresses are
    /// window-relative, and any write reaching `window.span` or beyond is a
    /// [`Violation::OutOfWindow`]. This is how a sharded engine gives each
    /// shard a disjoint slice of one global device.
    pub fn windowed(mode: Mode, window: AddressWindow) -> Self {
        let mut store = SimStore::new(mode);
        store.window = Some(window);
        store
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

    /// First span intersecting `target`, if any.
    fn intersecting_span(&self, target: &Extent) -> Option<(u64, Span)> {
        // Spans are disjoint, so ends increase with offsets: the span with
        // the largest offset below target.end() is the only candidate.
        let (&off, span) = self.spans.range(..target.end()).next_back()?;
        let ext = Extent::new(off, span.len);
        if ext.end() > target.offset {
            Some((off, *span))
        } else {
            None
        }
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

    /// Whether the span at `offset` is live or a ghost. It is live exactly
    /// when the live map places its object there; otherwise the object
    /// moved or was freed this epoch (each checkpoint removes every ghost,
    /// so no ghost is older).
    fn state(&self, offset: u64, span: &Span) -> SpanState {
        if self.live.get(&span.id) == Some(&Extent::new(offset, span.len)) {
            SpanState::Live(span.id)
        } else {
            SpanState::Ghost {
                prior: span.id,
                epoch: self.epoch,
            }
        }
    }

    /// Validates that `target` is writable for `id`.
    fn check_writable(&self, id: ObjectId, target: &Extent) -> Result<(), Violation> {
        let Some((offset, span)) = self.intersecting_span(target) else {
            return Ok(());
        };
        Err(match self.state(offset, &span) {
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

    fn insert_span(&mut self, at: Extent, id: ObjectId) {
        self.spans.insert(at.offset, Span { len: at.len, id });
        self.peak_end = self.peak_end.max(at.end());
    }

    /// Vacates the live span at `from`. Strict mode keeps the span, which
    /// turns into a ghost once `live` stops pointing at it: the old copy
    /// must survive until the next checkpoint. Relaxed mode frees the span
    /// at once.
    fn vacate(&mut self, from: Extent) {
        match self.mode {
            Mode::Strict => self.ghosts.push(from.offset),
            Mode::Relaxed => {
                self.spans.remove(&from.offset);
            }
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
                self.insert_span(to, id);
                self.place(id, Some(to));
                Ok(())
            }
            StorageOp::Move { id, from, to } => {
                self.check_source(id, from)?;
                self.check_window(id, &to)?;
                match self.mode {
                    Mode::Strict => {
                        if from.overlaps(&to) {
                            return Err(Violation::OverlappingMove { id, from, to });
                        }
                        // The target is disjoint from the source, so the
                        // source's live span cannot trip the check.
                        self.check_writable(id, &to)?;
                        self.vacate(from);
                    }
                    Mode::Relaxed => {
                        // Vacate the source first so a self-overlapping move
                        // does not trip the occupancy check.
                        self.vacate(from);
                        if let Err(v) = self.check_writable(id, &to) {
                            self.insert_span(from, id);
                            return Err(v);
                        }
                    }
                }
                self.insert_span(to, id);
                self.place(id, Some(to));
                Ok(())
            }
            StorageOp::Free { id, at } => {
                self.check_source(id, at)?;
                self.vacate(at);
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
    /// ghost spans become ordinary reusable free space.
    ///
    /// Costs O(placements changed since the previous checkpoint + ghosts
    /// made since then), not O(live objects): only the changes are folded
    /// into the durable map (a full copy only after more changes than live
    /// objects), and only this epoch's ghosts are removed.
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
        for offset in self.ghosts.drain(..) {
            let removed = self.spans.remove(&offset);
            debug_assert!(removed.is_some(), "ghost at {offset} vanished");
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
        for (&id, &ext) in &self.durable_btl {
            // Live or ghost, the span must still hold this object's copy.
            let intact = self
                .spans
                .get(&ext.offset)
                .is_some_and(|span| span.len == ext.len && span.id == id);
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
        self.spans
            .iter()
            .filter_map(|(&off, span)| match self.state(off, span) {
                SpanState::Live(id) => Some((Extent::new(off, span.len), id)),
                SpanState::Ghost { .. } => None,
            })
            .collect()
    }

    /// All ghost spans in address order.
    pub fn ghost_spans(&self) -> Vec<(Extent, ObjectId, u64)> {
        self.spans
            .iter()
            .filter_map(|(&off, span)| match self.state(off, span) {
                SpanState::Ghost { prior, epoch } => {
                    Some((Extent::new(off, span.len), prior, epoch))
                }
                SpanState::Live(_) => None,
            })
            .collect()
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

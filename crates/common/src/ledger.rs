//! Post-hoc cost accounting for (re)allocator runs.
//!
//! Cost obliviousness is what makes this design possible: the paper's
//! algorithms make identical decisions for every cost function, so a single
//! run can be recorded once and then priced under arbitrarily many cost
//! functions. A total over the run needs only the multiset of sizes it
//! allocated and moved: with `n(w)` objects of size `w`,
//! `Σ_w n(w)·f(w)` is the exact total for every `f`. So a [`Ledger`] keeps
//! a running summary — per-kind counts, size → count multisets for
//! allocations and for moves, checkpoint totals, and the maxima that do not
//! depend on `f` — whose memory follows the number of distinct sizes, not
//! the number of requests served.
//!
//! Queries that price *one request* under a caller's `f` or parameter
//! ([`Ledger::max_op_realloc_cost`], [`Ledger::max_peak_excess`],
//! [`Ledger::max_worst_case_utilization`]) and [`Ledger::records`] need the
//! per-request history, which a ledger keeps only when built with
//! [`Ledger::with_history`]. On a ledger without it they panic rather than
//! answer from nothing.

use std::collections::BTreeMap;

use crate::Outcome;

/// Which request produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An `INSERTOBJECT` request.
    Insert,
    /// A `DELETEOBJECT` request.
    Delete,
    /// A cross-shard migration leaving this instance (delete-on-source half
    /// of a rebalance/resize transfer). Not a client request: the object
    /// stays alive, just elsewhere, so nothing is allocated or freed from
    /// the client's point of view.
    MigrateOut,
    /// A cross-shard migration arriving at this instance (insert-on-target
    /// half). The transfer itself is a *reallocation* — the object was
    /// already allocated once in its life — so its size belongs in
    /// `moved_sizes`, never in `allocated`.
    MigrateIn,
    /// A Theorem 2.7 defragmentation pass over this instance's live
    /// objects; `moved_sizes` carries the schedule's moves so the pass is
    /// priceable under any cost function like everything else.
    Defrag,
    /// Deferred work a barrier completed (`Reallocator::quiesce`), such as
    /// the rest of a §3.3 flush. Not a client request: its request size is
    /// 0 and it allocates nothing, but its moves are priced like any
    /// other.
    Drain,
}

/// Number of [`OpKind`]s (`Drain` is the last).
const KINDS: usize = OpKind::Drain as usize + 1;

/// Ledger entry for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Which request produced this record.
    pub kind: OpKind,
    /// The request's object size `w` (inserted or deleted) — the `w` in
    /// worst-case bounds like Lemma 3.6's `O((1/ε)·w·f(1) + f(∆))`.
    pub request_size: u64,
    /// Size allocated by this request (inserts only).
    pub allocated: Option<u64>,
    /// Sizes of every object reallocated while serving this request.
    pub moved_sizes: Vec<u64>,
    /// Checkpoint barriers emitted by this request.
    pub checkpoints: u32,
    /// Structure size after the request completed.
    pub structure_after: u64,
    /// Peak structure size during the request (overflow/staging included).
    pub peak_during: u64,
    /// Active volume `V` after the request completed.
    pub volume_after: u64,
    /// `∆` so far.
    pub delta_after: u64,
}

impl OpRecord {
    /// Total volume moved by this request.
    pub fn moved_volume(&self) -> u64 {
        self.moved_sizes.iter().sum()
    }
}

/// Sizes below this index [`SizeCounts::small`] directly.
const SMALL_SIZES: u64 = 1024;

/// A size → count multiset: small sizes index a vector (grown to the
/// largest small size seen), larger ones a map.
#[derive(Debug, Clone, Default)]
struct SizeCounts {
    small: Vec<u64>,
    large: BTreeMap<u64, u64>,
}

impl SizeCounts {
    #[inline]
    fn add(&mut self, w: u64) {
        if w < SMALL_SIZES {
            let i = w as usize;
            if i >= self.small.len() {
                self.small.resize(i + 1, 0);
            }
            self.small[i] += 1;
        } else {
            *self.large.entry(w).or_insert(0) += 1;
        }
    }

    /// Every size with a positive count and that count, ascending by size.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let small = self.small.iter().enumerate();
        small
            .filter(|&(_, &n)| n > 0)
            .map(|(w, &n)| (w as u64, n))
            .chain(self.large.iter().map(|(&w, &n)| (w, n)))
    }

    /// `Σ_w n(w)·f(w)`. At integer-valued `f` every term is exact below
    /// 2^53, so the sum equals the per-object sum bit for bit.
    fn price(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        self.iter().map(|(w, n)| n as f64 * f(w)).sum()
    }
}

/// Accumulated run accounting, priceable under any cost function after the
/// fact. Keeps the exact summary described in the [module docs](self);
/// the per-request [`OpRecord`] history only when built with
/// [`with_history`](Self::with_history).
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Records per [`OpKind`], indexed by discriminant.
    kinds: [u64; KINDS],
    allocated: SizeCounts,
    moved: SizeCounts,
    checkpoints: u64,
    requests_with_moves: u64,
    max_op_moved_volume: u64,
    max_op_checkpoints: u32,
    max_settled_space_ratio: f64,
    history: Option<Vec<OpRecord>>,
}

impl Ledger {
    /// An empty ledger that keeps the summary only.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// An empty ledger that also keeps every [`OpRecord`], for the
    /// per-request queries ([`records`](Self::records) and the maxima that
    /// take a cost function or a parameter). Its memory grows with the
    /// number of requests.
    pub fn with_history() -> Self {
        Ledger {
            history: Some(Vec::new()),
            ..Ledger::default()
        }
    }

    /// Record one completed request.
    ///
    /// `allocated` is `Some(size)` for inserts. `structure_after`,
    /// `volume_after` and `delta_after` come from the reallocator's state
    /// queries immediately after the request.
    #[allow(clippy::too_many_arguments)] // a flat record of one request's telemetry
    pub fn record(
        &mut self,
        kind: OpKind,
        request_size: u64,
        allocated: Option<u64>,
        outcome: &Outcome,
        structure_after: u64,
        volume_after: u64,
        delta_after: u64,
    ) {
        let checkpoints = outcome.checkpoints();
        self.tally(
            kind,
            allocated,
            outcome.moved_sizes(),
            checkpoints,
            structure_after,
            volume_after,
        );
        if let Some(history) = self.history.as_mut() {
            history.push(OpRecord {
                kind,
                request_size,
                allocated,
                moved_sizes: outcome.moved_sizes().collect(),
                checkpoints,
                structure_after,
                peak_during: outcome.peak_structure_size.max(structure_after),
                volume_after,
                delta_after,
            });
        }
    }

    /// Appends a pre-built record. Requests go through
    /// [`record`](Self::record); a migration's arrival and a defrag pass
    /// build their own [`OpRecord`]s (their move accounting is not derivable
    /// from a single [`Outcome`] — the arrival adds the transferred object
    /// itself to `moved_sizes`, and a defrag pass has no `Outcome`) and
    /// push them here. The summary counts it like any other record.
    pub fn push(&mut self, record: OpRecord) {
        self.tally(
            record.kind,
            record.allocated,
            record.moved_sizes.iter().copied(),
            record.checkpoints,
            record.structure_after,
            record.volume_after,
        );
        if let Some(history) = self.history.as_mut() {
            history.push(record);
        }
    }

    /// Folds one record into the summary.
    #[inline]
    fn tally(
        &mut self,
        kind: OpKind,
        allocated: Option<u64>,
        moved_sizes: impl Iterator<Item = u64>,
        checkpoints: u32,
        structure_after: u64,
        volume_after: u64,
    ) {
        self.kinds[kind as usize] += 1;
        if let Some(w) = allocated {
            self.allocated.add(w);
        }
        let (mut moves, mut moved_volume) = (0u64, 0u64);
        for w in moved_sizes {
            self.moved.add(w);
            moves += 1;
            moved_volume += w;
        }
        if moves > 0 {
            self.requests_with_moves += 1;
        }
        self.max_op_moved_volume = self.max_op_moved_volume.max(moved_volume);
        self.checkpoints += u64::from(checkpoints);
        self.max_op_checkpoints = self.max_op_checkpoints.max(checkpoints);
        if volume_after > 0 {
            let ratio = structure_after as f64 / volume_after as f64;
            self.max_settled_space_ratio = self.max_settled_space_ratio.max(ratio);
        }
    }

    /// The per-request history, or a panic naming the opt-in.
    fn history(&self, query: &str) -> &[OpRecord] {
        match &self.history {
            Some(history) => history,
            None => panic!(
                "Ledger::{query} needs the per-request history: build the ledger with \
                 Ledger::with_history (an engine: EngineConfig::with_ledger_history)"
            ),
        }
    }

    /// All records in request order.
    ///
    /// # Panics
    /// Panics unless the ledger was built [`with_history`](Self::with_history).
    pub fn records(&self) -> &[OpRecord] {
        self.history("records")
    }

    /// Number of entries recorded: requests, migration halves, defrag
    /// passes and drains.
    pub fn len(&self) -> usize {
        self.kinds.iter().sum::<u64>() as usize
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records of `kind` — e.g. how many cross-shard transfers
    /// this instance received (`OpKind::MigrateIn`) or handed off
    /// (`OpKind::MigrateOut`); a fleet is consistent when the two totals
    /// agree across its union of ledgers.
    pub fn count_kind(&self, kind: OpKind) -> usize {
        self.kinds[kind as usize] as usize
    }

    /// `Σ f(w)` over every inserted object — the paper's lower bound on any
    /// algorithm's cost and the denominator of its competitive cost ratio.
    pub fn total_alloc_cost(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        self.allocated.price(f)
    }

    /// `Σ f(w)` over every reallocation performed in the run.
    pub fn total_realloc_cost(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        self.moved.price(f)
    }

    /// The paper's cost competitive ratio `b`: reallocation cost divided by
    /// total allocation cost. Returns 0 when nothing was allocated.
    pub fn cost_ratio(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        let alloc = self.total_alloc_cost(f);
        if alloc == 0.0 {
            0.0
        } else {
            self.total_realloc_cost(f) / alloc
        }
    }

    /// Largest reallocation cost charged to a single request (the worst-case
    /// bound of Lemma 3.6 / Lemma 3.7).
    ///
    /// # Panics
    /// Panics unless the ledger was built [`with_history`](Self::with_history).
    pub fn max_op_realloc_cost(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        self.history("max_op_realloc_cost")
            .iter()
            .map(|r| r.moved_sizes.iter().map(|&w| f(w)).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Largest volume moved by a single request.
    pub fn max_op_moved_volume(&self) -> u64 {
        self.max_op_moved_volume
    }

    /// Total volume moved across the run.
    pub fn total_moved_volume(&self) -> u64 {
        self.moved.iter().map(|(w, n)| w * n).sum()
    }

    /// Total number of reallocations across the run.
    pub fn total_moves(&self) -> usize {
        self.moved.iter().map(|(_, n)| n).sum::<u64>() as usize
    }

    /// Max over requests of `structure_after / volume_after` — the
    /// steady-state footprint competitive ratio `a` (Lemma 2.5).
    pub fn max_settled_space_ratio(&self) -> f64 {
        self.max_settled_space_ratio
    }

    /// Max over requests of `(peak_during - slack·∆) / volume` style ratios
    /// is experiment-specific; expose the raw worst additive form instead:
    /// the max of `peak_during` minus `(1+eps_bound)·V`, in cells. Used to
    /// verify Lemma 3.1's `(1 + O(ε'))V + ∆` envelope.
    ///
    /// # Panics
    /// Panics unless the ledger was built [`with_history`](Self::with_history).
    pub fn max_peak_excess(&self, space_factor: f64) -> f64 {
        self.history("max_peak_excess")
            .iter()
            .filter(|r| r.volume_after > 0)
            .map(|r| r.peak_during as f64 - space_factor * r.volume_after as f64)
            .fold(f64::MIN, f64::max)
    }

    /// Largest number of checkpoint barriers in a single request.
    pub fn max_op_checkpoints(&self) -> u32 {
        self.max_op_checkpoints
    }

    /// Total checkpoint barriers across the run.
    pub fn total_checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Number of requests that flushed (moved at least one object).
    pub fn requests_with_moves(&self) -> usize {
        self.requests_with_moves as usize
    }

    /// Max over requests of `moved_volume / (pump_rate·w + ∆)` — 1.0 or
    /// less means the Lemma 3.6 worst-case volume bound held with pump rate
    /// `pump_rate = 4/ε′`.
    ///
    /// # Panics
    /// Panics unless the ledger was built [`with_history`](Self::with_history).
    pub fn max_worst_case_utilization(&self, pump_rate: f64) -> f64 {
        self.history("max_worst_case_utilization")
            .iter()
            .map(|r| {
                r.moved_volume() as f64
                    / (pump_rate * r.request_size as f64 + r.delta_after as f64).max(1.0)
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Extent, ObjectId, StorageOp};
    use proptest::prelude::*;

    fn outcome_with_moves(moves: &[u64], checkpoints: u32, peak: u64) -> Outcome {
        let mut ops = Vec::new();
        let mut at = 0;
        for (i, &w) in moves.iter().enumerate() {
            ops.push(StorageOp::Move {
                id: ObjectId(i as u64),
                from: Extent::new(1000 + at, w),
                to: Extent::new(at, w),
            });
            at += w;
        }
        for _ in 0..checkpoints {
            ops.push(StorageOp::CheckpointBarrier);
        }
        Outcome {
            ops,
            flushed: !moves.is_empty(),
            peak_structure_size: peak,
        }
    }

    fn sample_ledger() -> Ledger {
        let mut ledger = Ledger::with_history();
        // insert of size 4, no moves
        ledger.record(
            OpKind::Insert,
            4,
            Some(4),
            &outcome_with_moves(&[], 0, 4),
            4,
            4,
            4,
        );
        // insert of size 8 that flushed, moving a 4 and an 8
        ledger.record(
            OpKind::Insert,
            8,
            Some(8),
            &outcome_with_moves(&[4, 8], 2, 20),
            13,
            12,
            8,
        );
        // delete, no moves
        ledger.record(
            OpKind::Delete,
            8,
            None,
            &outcome_with_moves(&[], 0, 13),
            13,
            8,
            8,
        );
        ledger
    }

    #[test]
    fn alloc_and_realloc_costs_linear() {
        let ledger = sample_ledger();
        let linear = |w: u64| w as f64;
        assert_eq!(ledger.total_alloc_cost(&linear), 12.0);
        assert_eq!(ledger.total_realloc_cost(&linear), 12.0);
        assert_eq!(ledger.cost_ratio(&linear), 1.0);
    }

    #[test]
    fn alloc_and_realloc_costs_unit() {
        let ledger = sample_ledger();
        let unit = |_w: u64| 1.0;
        assert_eq!(ledger.total_alloc_cost(&unit), 2.0);
        assert_eq!(ledger.total_realloc_cost(&unit), 2.0);
        assert_eq!(ledger.max_op_realloc_cost(&unit), 2.0);
    }

    #[test]
    fn space_telemetry() {
        let ledger = sample_ledger();
        assert_eq!(ledger.max_op_moved_volume(), 12);
        assert_eq!(ledger.total_moved_volume(), 12);
        assert_eq!(ledger.total_moves(), 2);
        // ratios: 4/4, 13/12, 13/8
        assert!((ledger.max_settled_space_ratio() - 13.0 / 8.0).abs() < 1e-12);
        assert_eq!(ledger.max_op_checkpoints(), 2);
        assert_eq!(ledger.total_checkpoints(), 2);
        assert_eq!(ledger.requests_with_moves(), 1);
    }

    #[test]
    fn empty_ledger_is_benign() {
        let ledger = Ledger::new();
        assert!(ledger.is_empty());
        assert_eq!(ledger.cost_ratio(&|w| w as f64), 0.0);
        assert_eq!(ledger.max_op_moved_volume(), 0);
        assert_eq!(ledger.max_settled_space_ratio(), 0.0);
    }

    #[test]
    fn pushed_migration_records_price_as_reallocations() {
        let mut ledger = sample_ledger();
        // A migrated-in 6-cell object: the transfer is a move, not an
        // allocation, so it lands in realloc cost only.
        ledger.push(OpRecord {
            kind: OpKind::MigrateIn,
            request_size: 6,
            allocated: None,
            moved_sizes: vec![6],
            checkpoints: 0,
            structure_after: 19,
            peak_during: 19,
            volume_after: 14,
            delta_after: 8,
        });
        let linear = |w: u64| w as f64;
        assert_eq!(ledger.total_alloc_cost(&linear), 12.0, "alloc unchanged");
        assert_eq!(ledger.total_realloc_cost(&linear), 18.0);
        assert_eq!(ledger.total_moved_volume(), 18);
        assert_eq!(ledger.len(), 4);
        assert_eq!(ledger.count_kind(OpKind::MigrateIn), 1);
        assert_eq!(ledger.count_kind(OpKind::MigrateOut), 0);
        assert_eq!(ledger.count_kind(OpKind::Insert), 2);
    }

    #[test]
    fn peak_excess_uses_peak_during() {
        let ledger = sample_ledger();
        // record 2: peak 20, V 12 → excess over 1.0·V is 8.
        assert!((ledger.max_peak_excess(1.0) - 8.0).abs() < 1e-12);
    }

    /// Without the history, the per-request queries refuse to answer (an
    /// empty slice or a 0 would let a forgotten opt-in pass as "no
    /// records"), while the summary queries still do.
    #[test]
    fn history_queries_panic_without_history() {
        let mut ledger = Ledger::new();
        ledger.record(
            OpKind::Insert,
            8,
            Some(8),
            &outcome_with_moves(&[4, 8], 1, 20),
            13,
            12,
            8,
        );
        assert_eq!(ledger.total_moved_volume(), 12);
        fn panic_message<T: std::fmt::Debug>(query: impl FnOnce() -> T) -> String {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(query))
                .expect_err("answered without a history");
            *payload.downcast::<String>().expect("formatted message")
        }
        let linear = |w: u64| w as f64;
        for (name, message) in [
            ("records", panic_message(|| ledger.records())),
            (
                "max_op_realloc_cost",
                panic_message(|| ledger.max_op_realloc_cost(&linear)),
            ),
            (
                "max_peak_excess",
                panic_message(|| ledger.max_peak_excess(1.0)),
            ),
            (
                "max_worst_case_utilization",
                panic_message(|| ledger.max_worst_case_utilization(12.0)),
            ),
        ] {
            assert!(
                message.contains(name) && message.contains("Ledger::with_history"),
                "{name}: {message}"
            );
        }
    }

    const KIND_LIST: [OpKind; KINDS] = [
        OpKind::Insert,
        OpKind::Delete,
        OpKind::MigrateOut,
        OpKind::MigrateIn,
        OpKind::Defrag,
        OpKind::Drain,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The summary is the per-request history folded: every summary
        /// query on a history ledger equals its recomputation from the
        /// records (the pre-summary formulas), pushed `MigrateIn` and
        /// `Defrag` records included, and a ledger without history
        /// answers the same. Sizes straddle the direct-indexed range.
        #[test]
        fn summary_equals_history_recomputation(
            steps in prop::collection::vec(
                (
                    (0usize..KINDS, 1u64..2048),
                    prop::collection::vec(1u64..2048, 0..6),
                    (0u32..4, 0u64..5000, 0u64..5000),
                ),
                0..80,
            ),
        ) {
            let mut full = Ledger::with_history();
            let mut summary = Ledger::new();
            for ((kind, size), moves, (checkpoints, structure, volume)) in steps {
                let kind = KIND_LIST[kind];
                let outcome = outcome_with_moves(&moves, checkpoints, structure + 3);
                for ledger in [&mut full, &mut summary] {
                    match kind {
                        OpKind::MigrateIn | OpKind::Defrag => ledger.push(OpRecord {
                            kind,
                            request_size: size,
                            allocated: None,
                            moved_sizes: moves.clone(),
                            checkpoints,
                            structure_after: structure,
                            peak_during: structure + 3,
                            volume_after: volume,
                            delta_after: size,
                        }),
                        _ => {
                            let allocated = (kind == OpKind::Insert).then_some(size);
                            ledger.record(kind, size, allocated, &outcome, structure, volume, size);
                        }
                    }
                }
            }
            let records = full.records();
            let moved = || records.iter().flat_map(|r| r.moved_sizes.iter().copied());
            let allocated = || records.iter().filter_map(|r| r.allocated);
            let linear = |w: u64| w as f64;
            let unit = |_: u64| 1.0;
            let sqrt = |w: u64| (w as f64).sqrt();
            for ledger in [&full, &summary] {
                prop_assert_eq!(ledger.len(), records.len());
                for kind in KIND_LIST {
                    let n = records.iter().filter(|r| r.kind == kind).count();
                    prop_assert_eq!(ledger.count_kind(kind), n);
                }
                // Integer-valued costs price bit for bit; others up to
                // float association.
                for f in [&linear as &dyn Fn(u64) -> f64, &unit] {
                    prop_assert_eq!(ledger.total_alloc_cost(f), allocated().map(f).sum::<f64>());
                    prop_assert_eq!(ledger.total_realloc_cost(f), moved().map(f).sum::<f64>());
                }
                let (alloc, realloc) = (allocated().map(sqrt).sum::<f64>(), moved().map(sqrt).sum::<f64>());
                prop_assert!((ledger.total_alloc_cost(&sqrt) - alloc).abs() <= 1e-9 * alloc.max(1.0));
                prop_assert!((ledger.total_realloc_cost(&sqrt) - realloc).abs() <= 1e-9 * realloc.max(1.0));
                prop_assert_eq!(ledger.total_moved_volume(), moved().sum::<u64>());
                prop_assert_eq!(ledger.total_moves(), moved().count());
                prop_assert_eq!(
                    ledger.max_op_moved_volume(),
                    records.iter().map(OpRecord::moved_volume).max().unwrap_or(0)
                );
                prop_assert_eq!(
                    ledger.max_settled_space_ratio(),
                    records
                        .iter()
                        .filter(|r| r.volume_after > 0)
                        .map(|r| r.structure_after as f64 / r.volume_after as f64)
                        .fold(0.0, f64::max)
                );
                prop_assert_eq!(
                    ledger.max_op_checkpoints(),
                    records.iter().map(|r| r.checkpoints).max().unwrap_or(0)
                );
                prop_assert_eq!(
                    ledger.total_checkpoints(),
                    records.iter().map(|r| u64::from(r.checkpoints)).sum::<u64>()
                );
                prop_assert_eq!(
                    ledger.requests_with_moves(),
                    records.iter().filter(|r| !r.moved_sizes.is_empty()).count()
                );
            }
        }
    }
}

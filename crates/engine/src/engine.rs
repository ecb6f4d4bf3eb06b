//! The engine handle: [`Engine<T>`](Engine) is one type over two shard
//! transports. `Engine` (over [`Threads`]) is the sync handle;
//! [`AsyncEngine`](crate::AsyncEngine) (over the fleet's
//! [`Cores`](crate::fleet::Cores)) is a fleet tenant. Observation,
//! barriers, rebalancing (barrier, online and the auto policy), fault
//! injection, shutdown and crash are written once for both; the sync
//! handle alone adds whole-workload replay, live shard-count resizing and
//! crash recovery (see [`crate::recover`]).

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};

use realloc_common::{
    block_on, BoxedReallocator, Extent, ObjectId, ReallocError, Router, TableRouter,
};
use realloc_telemetry::{EventJournal, Histogram};
use workload_gen::{Request, Workload};

use crate::async_facade::Ack;
use crate::frontend::{
    aggregate, collect, prepare_wal_dir, reply, surface, Pending, Threads, Transport,
};
use crate::metrics::{DeviceProfile, MetricsSnapshot};
use crate::rebalance::{
    plan_rebalance, Migration, OnlinePlan, RebalanceMode, RebalanceOptions, RebalancePolicy,
    RebalanceReport, ResizeReport,
};
use crate::shard::{Command, ShardError, ShardFinal, ShardWorker};
use crate::stats::EngineStats;
use crate::substrate::{ShardBytes, SubstrateConfig, SubstrateReport, Transfer};

/// Sizing knobs for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of shards (worker threads). Each owns an independent
    /// reallocator, so the aggregate footprint bound is `(1+ε)·Σ V_i`.
    /// Changes at runtime through [`Engine::resize_shards`].
    pub shards: usize,
    /// Requests per channel message. Larger batches amortize channel
    /// overhead; smaller ones reduce barrier latency. One channel round
    /// trip per `batch` requests is the same amortization play the paper's
    /// buffer segments make for moves.
    pub batch: usize,
    /// Bounded channel depth, in batches. A full queue blocks the
    /// enqueueing caller — backpressure, not unbounded buffering.
    pub queue_depth: usize,
    /// Give every shard a byte-carrying storage substrate over its own
    /// disjoint address window (see [`crate::substrate`]): each worker
    /// replays its physical ops into a
    /// [`DataStore`](storage_sim::DataStore), cross-shard migrations ship
    /// and checksum real bytes, and barriers verify extents + bytes at the
    /// configured cadence. `None` (the default) keeps the accounting-only
    /// fast path.
    pub substrate: Option<SubstrateConfig>,
    /// Record the observability surface ([`Engine::metrics`]): per-shard
    /// latency/stall/commit histograms, the structural event journal, and —
    /// with a [`device`](Self::device) — simulated device time. On by
    /// default; [`without_telemetry`](Self::without_telemetry) turns it off
    /// for overhead-sensitive runs (scrapes then return zeroed metrics).
    pub telemetry: bool,
    /// Price every shard's physical op stream against this simulated
    /// device ([`DeviceProfile::build`] runs inside each worker thread).
    /// `None` (the default) records counts and wall-clock only.
    pub device: Option<DeviceProfile>,
    /// Fold every batch through the intra-batch coalescing planner
    /// ([`crate::plan`]) before it touches the reallocator: delete +
    /// reinsert chains collapse to a single resize (or nothing, at an
    /// unchanged size) and insert + delete chains are cancelled outright.
    /// Off by default — coalescing elides work, so each shard's ledger
    /// records the *planned* stream, not the raw one.
    pub coalesce: bool,
    /// Keep every shard's per-request [`OpRecord`](realloc_common::OpRecord)
    /// history in its [`Ledger`](realloc_common::Ledger), for
    /// [`Ledger::records`](realloc_common::Ledger::records) and the
    /// per-request maxima. Off by default: a shard's ledger then keeps only
    /// the cost-oblivious summary, whose memory follows the number of
    /// distinct sizes, not the number of requests served.
    pub ledger_history: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            batch: 256,
            queue_depth: 4,
            substrate: None,
            telemetry: true,
            device: None,
            coalesce: false,
            ledger_history: false,
        }
    }
}

impl EngineConfig {
    /// The default configuration with `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "engine needs at least one shard");
        EngineConfig {
            shards,
            ..EngineConfig::default()
        }
    }

    /// This configuration with per-shard substrates enabled.
    pub fn with_substrate(mut self, substrate: SubstrateConfig) -> Self {
        self.substrate = Some(substrate);
        self
    }

    /// This configuration with telemetry recording disabled.
    pub fn without_telemetry(mut self) -> Self {
        self.telemetry = false;
        self
    }

    /// This configuration with intra-batch coalescing enabled (see
    /// [`coalesce`](Self::coalesce)).
    pub fn coalescing(mut self) -> Self {
        self.coalesce = true;
        self
    }

    /// This configuration with per-request ledger histories kept (see
    /// [`ledger_history`](Self::ledger_history)).
    pub fn with_ledger_history(mut self) -> Self {
        self.ledger_history = true;
        self
    }
}

/// Errors surfaced by the engine's handle API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A shard's reallocator rejected a request. Reported at the first
    /// barrier after it happened; `index` counts the shard's own stream.
    Request {
        /// Shard that rejected the request.
        shard: usize,
        /// Index in that shard's request stream (0-based).
        index: u64,
        /// The underlying rejection.
        error: ReallocError,
    },
    /// A shard's executor is gone: its worker thread died (its channel
    /// disconnected), or, on a fleet tenant, the fleet was torn down.
    ShardDown {
        /// The dead shard.
        shard: usize,
    },
    /// [`Engine::rebalance_online`] was called while a previous online
    /// session is still draining. Step the active session to completion
    /// (serving traffic does so automatically) before planning a new one.
    RebalanceInProgress,
    /// A shard's substrate failed: a physical write violated the storage
    /// rules (overlap, freed-space reuse, a write escaping the shard's
    /// address window), or a verification scan found extents diverging
    /// from the reallocator or bytes failing their checksum. Sticky, like
    /// request errors: it keeps surfacing at barriers — an integrity
    /// violation does not heal.
    Substrate {
        /// The shard whose substrate failed.
        shard: usize,
        /// Human-readable description of the first failure.
        detail: String,
    },
    /// The durability layer failed: a write-ahead log or checkpoint could
    /// not be opened or written, or [`Engine::recover`] found logs whose
    /// surviving records are inconsistent (a digest that does not match the
    /// object's regenerated content, a corrupt checkpoint).
    Wal {
        /// Human-readable description of the failure.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Request {
                shard,
                index,
                error,
            } => {
                write!(f, "shard {shard} rejected its request #{index}: {error}")
            }
            EngineError::ShardDown { shard } => write!(f, "shard {shard} worker is gone"),
            EngineError::RebalanceInProgress => {
                write!(f, "an online rebalance session is already in progress")
            }
            EngineError::Substrate { shard, detail } => {
                write!(f, "shard {shard} substrate failure: {detail}")
            }
            EngineError::Wal { detail } => write!(f, "durability failure: {detail}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Internal result of executing a migration plan (see [`Engine::migrate`]).
#[derive(Default)]
struct MigrationOutcome {
    /// `(id, size, target)` of every transfer whose outbound *and* inbound
    /// halves completed. `size` is the size the source *acked*, which in
    /// online mode may differ from the planner's snapshot (the object can
    /// be deleted and re-inserted at a new size while the session drains).
    completed: Vec<(ObjectId, u64, usize)>,
    /// `(id, source)` of every transfer whose source refused to release the
    /// object — it still physically lives there, and callers that changed
    /// the routing basis must re-pin it.
    stranded: Vec<(ObjectId, usize)>,
    /// First rejection observed across both phases (if any). Surfaced by
    /// the caller only after the routing table matches physical ownership.
    first_error: Option<(usize, ShardError)>,
}

impl MigrationOutcome {
    fn note_error(&mut self, shard: usize, error: Option<ShardError>) {
        if self.first_error.is_none() {
            if let Some(err) = error {
                self.first_error = Some((shard, err));
            }
        }
    }

    fn surface(&self) -> Result<(), EngineError> {
        match self.first_error {
            Some((shard, err)) => Err(EngineError::Request {
                shard,
                index: err.index,
                error: err.error,
            }),
            None => Ok(()),
        }
    }

    fn totals(&self) -> (u64, u64) {
        (
            self.completed.len() as u64,
            self.completed.iter().map(|&(_, size, _)| size).sum(),
        )
    }
}

/// State of one in-progress online rebalance (see
/// [`Engine::rebalance_online`]): the remaining migration plan plus the
/// telemetry the completion report needs.
struct OnlineSession {
    /// Migrations not yet executed, in plan order.
    plan: VecDeque<Migration>,
    /// Most objects one step migrates.
    batch_objects: usize,
    /// Defrag slack to apply at completion (`RebalanceOptions::defrag_eps`).
    defrag_eps: Option<f64>,
    /// Aggregate stats at planning time.
    before: EngineStats,
    batches: u64,
    migrated_objects: u64,
    migrated_volume: u64,
}

/// A sharded reallocation service: one handle type over two shard
/// [`Transport`]s.
///
/// `Engine` — that is, `Engine<Threads>` — runs each shard on a dedicated
/// thread behind a bounded channel; its `insert`/`delete`/`flush`/
/// `quiesce` return `Result`s. [`AsyncEngine`](crate::AsyncEngine), or
/// `Engine<Cores>`, is a [`Fleet`](crate::Fleet) tenant whose shards run
/// on the fleet's worker pool; those four calls return futures instead.
/// Everything else is one piece of code for both. Only the sync handle
/// replays whole workloads ([`drive`](Engine::drive)), resizes
/// ([`resize_shards`](Engine::resize_shards)) and recovers
/// ([`recover`](Engine::recover)), and only on it does serving pace an
/// online session.
///
/// See the [crate docs](crate) for the architecture. Construct with
/// [`Engine::new`] (or [`Engine::with_wal`] for durability), feed with
/// [`insert`](Engine::insert) /
/// [`delete`](Engine::delete) (or [`drive`](Engine::drive) for a whole
/// workload), observe with [`snapshot`](Engine::snapshot) /
/// [`quiesce`](Engine::quiesce), re-home volume with
/// [`rebalance`](Engine::rebalance) /
/// [`rebalance_online`](Engine::rebalance_online) /
/// [`resize_shards`](Engine::resize_shards) (or let a
/// [`RebalancePolicy`] trigger that automatically — see
/// [`set_auto_rebalance`](Engine::set_auto_rebalance)), and finish with
/// [`shutdown`](Engine::shutdown) to collect per-shard ledgers. Dropping an
/// engine without `shutdown` joins its workers and discards results.
///
/// # Quickstart
///
/// Build a fleet, drive a workload, rebalance it online while serving, and
/// shut down:
///
/// ```
/// use alloc_baselines::{FitStrategy, FreeListAllocator};
/// use realloc_common::ObjectId;
/// use realloc_engine::{Engine, EngineConfig, RebalanceOptions};
/// use workload_gen::{Request, Workload};
///
/// // Build: four first-fit shards (every id re-homeable).
/// let mut engine = Engine::new(EngineConfig::with_shards(4), |_shard| {
///     Box::new(FreeListAllocator::new(FitStrategy::FirstFit))
/// });
///
/// // Drive: replay a workload (or trickle insert/delete directly).
/// let requests = (0..256)
///     .map(|i| Request::Insert { id: ObjectId(i), size: 1 + i % 16 })
///     .collect();
/// engine.drive(&Workload::new("quickstart", requests)).unwrap();
///
/// // Rebalance online: plan once, then migrate in bounded batches — serving
/// // continues between steps (here we just step the session dry).
/// let plan = engine.rebalance_online(RebalanceOptions::default()).unwrap();
/// while engine.rebalance_step().unwrap() {}
/// let report = engine.take_rebalance_report().unwrap();
/// assert_eq!(report.migrated_objects, plan.objects);
/// assert!(report.after.imbalance_ratio() <= report.before.imbalance_ratio());
///
/// // Shutdown: collect per-shard stats and ledgers.
/// let finals = engine.shutdown().unwrap();
/// assert_eq!(finals.len(), 4);
/// assert_eq!(finals.iter().map(|f| f.stats.live_count).sum::<usize>(), 256);
/// ```
pub struct Engine<T: Transport = Threads> {
    /// The handle's configuration (`shards` reflects any resize).
    pub(crate) config: EngineConfig,
    pub(crate) router: Box<dyn Router>,
    pub(crate) transport: T,
    /// One batch under construction per live shard (runs ahead of
    /// `config.shards` mid-resize).
    pub(crate) pending: Vec<Pending>,
    /// How long shipping blocked on each shard's full intake (empty with
    /// telemetry off).
    pub(crate) stalls: Vec<Histogram>,
    pub(crate) wal_dir: Option<PathBuf>,
    /// Rebalance/resize spans and recovery stages; scraped, never drained.
    pub(crate) events: EventJournal,
    scrapes: u64,
    last_metrics: Option<MetricsSnapshot>,
    /// Finals of shards retired by a shrinking resize, so their ledgers and
    /// stats survive until [`shutdown`](Engine::shutdown).
    retired: Vec<ShardFinal>,
    /// The in-progress online rebalance, if any.
    session: Option<OnlineSession>,
    /// Report of the most recently *completed* online session, until
    /// claimed by [`take_rebalance_report`](Engine::take_rebalance_report).
    finished: Option<RebalanceReport>,
    /// The auto-rebalance policy and the options its triggers use.
    auto: Option<(RebalancePolicy, RebalanceOptions)>,
    /// Fault injection (testing): damage one byte of the next transfer
    /// payload that passes through [`Engine::migrate`], after the source
    /// acked it. See [`Engine::inject_transfer_corruption`].
    corrupt_next_transfer: bool,
    /// Next cross-shard transfer sequence number. Every planned migration
    /// consumes one; the source journals it in its `MigrateOut` and the
    /// target in its `MigrateIn`/`RouteFlip`, so recovery can pair the two
    /// halves of a transfer across independently truncated logs (and seeds
    /// it past everything a replayed log consumed).
    pub(crate) xfer_seq: u64,
}

impl<T: Transport> Engine<T> {
    /// The constructor every handle shares: builds one worker per shard
    /// (journaling into `wal_dir`, with `recoveries` seeding each recovery
    /// counter — 1 when [`Engine::recover`] rebuilds a fleet, 0 otherwise)
    /// and hands them, with the intake depth, to `transport`.
    ///
    /// # Panics
    /// Panics if `config.shards` or `config.batch` is zero, or if the
    /// router targets a different shard count.
    pub(crate) fn build<F>(
        config: EngineConfig,
        router: Box<dyn Router>,
        mut factory: F,
        wal_dir: Option<PathBuf>,
        recoveries: u64,
        transport: impl FnOnce(Vec<ShardWorker>, usize) -> T,
    ) -> Result<Engine<T>, EngineError>
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        assert!(config.shards > 0, "engine needs at least one shard");
        assert!(config.batch > 0, "batch size must be positive");
        assert_eq!(
            router.shards(),
            config.shards,
            "router and config disagree on the shard count"
        );
        let dir = wal_dir.as_deref();
        let workers = (0..config.shards)
            .map(|shard| ShardWorker::build(&config, shard, factory(shard), dir, recoveries))
            .collect::<Result<_, _>>()?;
        let mut engine = Engine {
            transport: transport(workers, config.queue_depth.max(1)),
            config,
            router,
            pending: Vec::new(),
            stalls: Vec::new(),
            wal_dir,
            events: EventJournal::new(512),
            scrapes: 0,
            last_metrics: None,
            retired: Vec::new(),
            session: None,
            finished: None,
            auto: None,
            corrupt_next_transfer: false,
            xfer_seq: 1,
        };
        (0..config.shards).for_each(|_| engine.add_pending());
        Ok(engine)
    }

    /// The write-ahead-log directory, when durability is on.
    pub fn wal_dir(&self) -> Option<&Path> {
        self.wal_dir.as_deref()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The handle's configuration (reflects any resize).
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The routing layer, for inspection (`name`, `assignments`, …).
    pub fn router(&self) -> &dyn Router {
        self.router.as_ref()
    }

    /// The shard that owns `id` right now. Stable between barriers; a
    /// [`rebalance`](Engine::rebalance) or
    /// [`resize_shards`](Engine::resize_shards) may re-home the id.
    pub fn shard_of(&self, id: ObjectId) -> usize {
        self.router.route(id)
    }

    /// Waits until every enqueued request has been served and returns the
    /// aggregated stats, without forcing deferred work. Surfaces the first
    /// request-level error, if any shard saw one. Like the sync
    /// [`quiesce`](Engine::quiesce), feeds the [auto-rebalance
    /// policy](Engine::set_auto_rebalance), if one is set.
    pub fn snapshot(&mut self) -> Result<EngineStats, EngineError> {
        let stats = self.snapshot_barrier()?;
        self.policy_observe(&stats)?;
        Ok(stats)
    }

    /// Current placements of all live objects, per shard, sorted by id.
    /// (A barrier, like `snapshot`.)
    pub fn extents(&mut self) -> Result<Vec<Vec<(ObjectId, Extent)>>, EngineError> {
        self.barrier(|_, reply| Command::Extents(reply))
    }

    /// Scrapes the cumulative observability surface (a barrier, like
    /// [`snapshot`](Engine::snapshot)): aggregate [`EngineStats`], every
    /// shard's latency/stall/commit histograms and sim-time lanes, the
    /// retained tail of the structural event journal, and — on a fleet
    /// tenant — its [`StealStats`](crate::metrics::StealStats).
    ///
    /// Unlike the stats barriers, this does **not** surface sticky
    /// request/substrate errors — a metrics scrape must be able to observe
    /// a degraded fleet. `Err` here only ever means a shard is down.
    /// Scraping does not feed the auto-rebalance policy.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, EngineError> {
        let replies = self.barrier(|_, reply| Command::Metrics(reply))?;
        let (stats, per_shard) = replies
            .into_iter()
            .map(|(reply, mut metrics)| {
                if let Some(stall) = self.stalls.get(metrics.shard) {
                    metrics.intake_stall_ns = stall.snapshot();
                }
                (reply.stats, metrics)
            })
            .unzip();
        self.scrapes += 1;
        let snapshot = MetricsSnapshot {
            scrape: self.scrapes,
            device: self.config.device.filter(|_| self.config.telemetry),
            stats: EngineStats { per_shard: stats },
            per_shard,
            events: self.events.snapshot(),
            events_dropped: self.events.dropped(),
            steal: self.transport.steal(),
        };
        self.last_metrics = Some(snapshot.clone());
        Ok(snapshot)
    }

    /// [`metrics`](Engine::metrics), reported as the change since the
    /// previous scrape: counters, histograms, and sim time subtract; gauges
    /// keep their current values (see [`MetricsSnapshot::delta_since`]).
    /// The first scrape — and any scrape after a
    /// [`resize`](Engine::resize_shards) adds shards — reports full values
    /// for shards with no prior reading.
    pub fn metrics_delta(&mut self) -> Result<MetricsSnapshot, EngineError> {
        let prev = self.last_metrics.take();
        let current = self.metrics()?;
        Ok(match prev {
            Some(prev) => current.delta_since(&prev),
            None => current,
        })
    }

    /// Whether every shard runs a byte-carrying substrate
    /// ([`EngineConfig::substrate`]).
    pub fn substrate_enabled(&self) -> bool {
        self.config.substrate.is_some()
    }

    /// Barrier: every shard runs its full substrate verification scan
    /// *now*, regardless of the configured cadence — extents checked
    /// against the reallocator, every live object's bytes re-checksummed.
    /// Surfaces the first failure as [`EngineError::Substrate`]; with no
    /// substrate configured, returns an empty report list.
    pub fn verify_substrate(&mut self) -> Result<Vec<SubstrateReport>, EngineError> {
        if self.config.substrate.is_none() {
            return Ok(Vec::new());
        }
        let reports: Vec<SubstrateReport> = self
            .barrier(|_, reply| Command::VerifySubstrate(reply))?
            .into_iter()
            .flatten()
            .collect();
        surface(reports.iter().map(|r| (r.shard, &None, &r.error)))?;
        Ok(reports)
    }

    /// Barrier: every live object's physical bytes, per shard, sorted by
    /// id, as read from the shard substrates. Empty inner lists without a
    /// substrate. A test/debug aid — it copies `O(V)` bytes across the
    /// channels; byte-level *checking* should go through
    /// [`verify_substrate`](Engine::verify_substrate) instead.
    pub fn substrate_contents(&mut self) -> Result<Vec<ShardBytes>, EngineError> {
        self.barrier(|_, reply| Command::DumpSubstrate(reply))
    }

    /// Fault injection for durability/integrity testing: flip one byte of
    /// the lowest-id live object's substrate cells on `shard` (checksum
    /// left stale, so the next verification scan must fail — and, being
    /// sticky, keep failing). Returns the damaged id, or `None` when the
    /// shard has no substrate or no live objects. Recovery rebuilds the
    /// shard's bytes from scratch, which is how the sticky error is
    /// legitimately cleared.
    pub fn inject_substrate_corruption(
        &mut self,
        shard: usize,
    ) -> Result<Option<ObjectId>, EngineError> {
        self.flush_shard(shard)?;
        let rx = self.request(shard, Command::CorruptSubstrate, None);
        reply(shard, rx)
    }

    /// Fault injection for integrity testing: damage one byte of the next
    /// cross-shard transfer payload *after* its source acks it, so the
    /// receiving shard's checksum verification must refuse the object and
    /// the active migration (barrier or online session) must abort with
    /// routing still matching physical ownership. One-shot: the armed
    /// fault fires on the next migration batch that ships a payload and
    /// disarms. No effect without a substrate (there is no payload to
    /// damage).
    pub fn inject_transfer_corruption(&mut self) {
        self.corrupt_next_transfer = true;
    }

    /// The quiesce barrier, without feeding the auto-rebalance policy (so
    /// internal machinery, the policy trigger included, can never
    /// recursively trigger another observation).
    fn quiesce_barrier(&mut self) -> Result<EngineStats, EngineError> {
        aggregate(collect(self.start_quiesce(None))?)
    }

    /// The stats barrier, without feeding the auto-rebalance policy.
    fn snapshot_barrier(&mut self) -> Result<EngineStats, EngineError> {
        aggregate(self.barrier(|_, reply| Command::Snapshot(reply))?)
    }

    /// Cross-shard rebalance: quiesces, measures per-shard live volumes,
    /// plans migrations that equalize them (greedy largest-first from over-
    /// to under-full shards — see [`crate::rebalance`]), executes them as
    /// migrate-out/migrate-in barriers, updates the routing table for every
    /// moved id at the closing barrier, then optionally has each shard run
    /// the Theorem 2.7 defragmenter over its post-migration layout. The
    /// defrag pass *plans and prices*: it computes the cost-oblivious
    /// compaction schedule (the moves a substrate replay would apply),
    /// records those moves in the shard ledger, and reports the
    /// `(1+ε)V + ∆` space bound in [`RebalanceReport::defrag`] — the
    /// serving structure itself stays as Theorem 2.1 maintains it, so
    /// [`EngineStats::footprint`] does not shrink from the pass.
    ///
    /// Per-object request order is preserved: the engine is quiesced
    /// throughout, and requests arriving after the rebalance route to the
    /// object's new owner.
    ///
    /// An active [online session](Engine::rebalance_online) is stepped to
    /// completion first (its report stays claimable via
    /// [`take_rebalance_report`](Engine::take_rebalance_report)), so the
    /// barrier plan never fights a half-executed online plan.
    ///
    /// # Panics
    /// Panics if `opts.defrag_eps` is outside the paper's `0 < ε ≤ 1/2`.
    pub fn rebalance(&mut self, opts: RebalanceOptions) -> Result<RebalanceReport, EngineError> {
        validate_defrag_eps(&opts);
        while self.rebalance_step()? {}
        let (before, plan) = self.plan_migrations(true)?;
        self.events
            .begin(None, "rebalance.barrier", plan.len() as u64);
        let outcome = self.migrate(&plan)?;
        // The routing-table update is atomic with respect to serving: the
        // engine is quiesced, so no request can observe a half-applied map.
        // Only completed transfers are pinned, and pinning happens before
        // any error surfaces, so routing always matches physical ownership
        // even if a broken reallocator rejects one transfer mid-plan.
        for &(id, _, to) in &outcome.completed {
            self.router.assign(id, to);
        }
        outcome.surface()?;
        let (migrated_objects, migrated_volume) = outcome.totals();
        let defrag = match opts.defrag_eps {
            Some(eps) => self.barrier(|_, reply| Command::Defrag { eps, reply })?,
            None => Vec::new(),
        };
        let after = self.quiesce_barrier()?;
        self.events.end(None, "rebalance.barrier", migrated_volume);
        Ok(RebalanceReport {
            before,
            after,
            migrated_objects,
            migrated_volume,
            defrag,
            mode: RebalanceMode::Barrier,
            batches: 1,
        })
    }

    /// The shared front half of both rebalance modes: barrier (quiesce or
    /// snapshot) for the opening stats, scan extents, and plan the greedy
    /// largest-first migration set.
    fn plan_migrations(
        &mut self,
        quiesce: bool,
    ) -> Result<(EngineStats, Vec<Migration>), EngineError> {
        let before = if quiesce {
            self.quiesce_barrier()?
        } else {
            self.snapshot_barrier()?
        };
        let extents = self.extents()?;
        let shards: Vec<Vec<(ObjectId, u64)>> = extents
            .iter()
            .map(|list| list.iter().map(|&(id, e)| (id, e.len)).collect())
            .collect();
        Ok((before, plan_rebalance(&shards)))
    }

    /// Online (incremental) rebalance: plans the same greedy largest-first
    /// migration set as [`rebalance`](Engine::rebalance), but executes it
    /// in bounded batches (at most `opts.batch_objects` objects each)
    /// *interleaved with serving* instead of inside one fleet-wide quiesce.
    /// Each object follows a two-phase protocol:
    ///
    /// 1. **freeze** — a `MigrateOut` joins the source shard's FIFO command
    ///    stream (pending batches are flushed first), so every request
    ///    enqueued before it is served before the object leaves;
    /// 2. **copy** — the source acks the released `(id, size)`, the target
    ///    adopts it via `MigrateIn`;
    /// 3. **flip** — the [`TableRouter`] assignment is updated, only for
    ///    acked transfers;
    /// 4. **resume** — subsequent requests route to the new owner and
    ///    queue behind the `MigrateIn`.
    ///
    /// No id is ever live on two shards, and a mid-session failure leaves
    /// routing consistent with physical ownership (exactly as in barrier
    /// mode: completed transfers are pinned before any error surfaces;
    /// everything else stays home).
    ///
    /// This call only *plans* (two barriers: a stats snapshot and an
    /// extents scan) and returns the [`OnlinePlan`]. On the sync handle the
    /// session then drains as a side effect of serving — every dispatched
    /// serving batch (and every [`drive`](Engine::drive) round) migrates
    /// one bounded batch; on either handle,
    /// [`rebalance_step`](Engine::rebalance_step) drains it explicitly.
    /// When the last batch lands (plus the optional defrag pass), the
    /// completion [`RebalanceReport`] becomes claimable via
    /// [`take_rebalance_report`](Engine::take_rebalance_report).
    ///
    /// Fails with [`EngineError::RebalanceInProgress`] if a session is
    /// already active.
    ///
    /// # Panics
    /// Panics if `opts.defrag_eps` is outside the paper's `0 < ε ≤ 1/2`.
    pub fn rebalance_online(&mut self, opts: RebalanceOptions) -> Result<OnlinePlan, EngineError> {
        validate_defrag_eps(&opts);
        if self.session.is_some() {
            return Err(EngineError::RebalanceInProgress);
        }
        let (before, plan) = self.plan_migrations(false)?;
        let batch_objects = opts.batch_objects.max(1);
        let summary = OnlinePlan {
            objects: plan.len() as u64,
            volume: plan.iter().map(|m| m.size).sum(),
            batches: (plan.len() as u64).div_ceil(batch_objects as u64),
        };
        self.session = Some(OnlineSession {
            plan: plan.into(),
            batch_objects,
            defrag_eps: opts.defrag_eps,
            before,
            batches: 0,
            migrated_objects: 0,
            migrated_volume: 0,
        });
        self.events
            .begin(None, "rebalance.session", summary.objects);
        Ok(summary)
    }

    /// Whether an [online rebalance](Engine::rebalance_online) session is
    /// currently draining.
    pub fn rebalance_active(&self) -> bool {
        self.session.is_some()
    }

    /// Advances the active online session by one bounded migration batch,
    /// finishing it (defrag pass, closing stats, report parking, policy
    /// back-off) when the plan runs dry. Returns whether a session is
    /// still active afterwards (`false` also when there was none). Serving
    /// traffic on the sync handle steps the session implicitly; call this
    /// directly to drain a session faster than traffic would, or to finish
    /// it during an idle period:
    ///
    /// ```no_run
    /// # fn demo(engine: &mut realloc_engine::Engine) -> Result<(), realloc_engine::EngineError> {
    /// while engine.rebalance_step()? {}
    /// let report = engine.take_rebalance_report().expect("session completed");
    /// # Ok(()) }
    /// ```
    ///
    /// On a migration failure the session is aborted: completed transfers
    /// are already pinned, unexecuted plan entries are dropped (their
    /// objects simply stay home), and the error surfaces.
    pub fn rebalance_step(&mut self) -> Result<bool, EngineError> {
        let Some(mut session) = self.session.take() else {
            return Ok(false);
        };
        let batch: Vec<Migration> = {
            let take = session.batch_objects.min(session.plan.len());
            session.plan.drain(..take).collect()
        };
        if !batch.is_empty() {
            // FIFO is the freeze: any buffered request for a migrating
            // object must reach its source ahead of the MigrateOut. Only
            // the batch's *source* shards need it — a migrating id still
            // routes to its source until the flip, so no other shard's
            // buffer can hold a request for one — and flushing just those
            // keeps the rest of the fleet's channel batching intact.
            let mut sources: Vec<usize> = batch.iter().map(|m| m.from).collect();
            sources.sort_unstable();
            sources.dedup();
            for shard in sources {
                self.flush_shard(shard)?;
            }
            // One span per freeze → copy → flip → resume round.
            self.events
                .begin(None, "rebalance.batch", batch.len() as u64);
            let outcome = self.migrate(&batch)?;
            for &(id, _, to) in &outcome.completed {
                self.router.assign(id, to);
            }
            session.batches += 1;
            let (objects, volume) = outcome.totals();
            session.migrated_objects += objects;
            session.migrated_volume += volume;
            self.events.end(None, "rebalance.batch", volume);
            if let Err(err) = outcome.surface() {
                // Abort: the session is not restored, so the remaining
                // plan is dropped with routing consistent. Back the policy
                // off so it does not immediately re-fire into a broken
                // fleet. The session span stays unmatched; the abort event
                // carries what was left undone.
                self.events
                    .instant(None, "rebalance.abort", session.plan.len() as u64);
                if let Some((policy, _)) = &mut self.auto {
                    policy.note_rebalanced();
                }
                return Err(err);
            }
        }
        if !session.plan.is_empty() {
            self.session = Some(session);
            return Ok(true);
        }
        let defrag = match session.defrag_eps {
            Some(eps) => self.barrier(|_, reply| Command::Defrag { eps, reply })?,
            None => Vec::new(),
        };
        let after = self.snapshot_barrier()?;
        self.events
            .end(None, "rebalance.session", session.migrated_volume);
        self.finished = Some(RebalanceReport {
            before: session.before,
            after,
            migrated_objects: session.migrated_objects,
            migrated_volume: session.migrated_volume,
            defrag,
            mode: RebalanceMode::Online,
            batches: session.batches,
        });
        if let Some((policy, _)) = &mut self.auto {
            policy.note_rebalanced();
        }
        Ok(false)
    }

    /// The report of the most recently completed
    /// [online session](Engine::rebalance_online), if one finished since
    /// the last call. (Sessions complete inside serving calls, so the
    /// report is parked here rather than returned from any one of them.)
    pub fn take_rebalance_report(&mut self) -> Option<RebalanceReport> {
        self.finished.take()
    }

    /// Installs an auto-rebalance policy: every stats barrier that feeds
    /// it — [`snapshot`](Engine::snapshot) on either handle, and the sync
    /// [`quiesce`](Engine::quiesce) — hands it the imbalance ratio, and
    /// when the policy fires the engine starts an
    /// [online session](Engine::rebalance_online) with `opts` by itself.
    /// Observations are skipped while a session is draining, and the
    /// policy's hysteresis starts counting when one completes.
    pub fn set_auto_rebalance(&mut self, policy: RebalancePolicy, opts: RebalanceOptions) {
        validate_defrag_eps(&opts);
        self.auto = Some((policy, opts));
    }

    /// Removes the auto-rebalance policy (an active session still drains),
    /// returning it — its streak/cooldown state can be inspected or
    /// re-installed later.
    pub fn clear_auto_rebalance(&mut self) -> Option<RebalancePolicy> {
        self.auto.take().map(|(policy, _)| policy)
    }

    /// The installed auto-rebalance policy, if any.
    pub fn auto_rebalance(&self) -> Option<&RebalancePolicy> {
        self.auto.as_ref().map(|(policy, _)| policy)
    }

    /// Feeds one barrier's stats to the auto-rebalance policy and starts an
    /// online session if it fires.
    fn policy_observe(&mut self, stats: &EngineStats) -> Result<(), EngineError> {
        if self.session.is_some() {
            return Ok(());
        }
        let Some((policy, opts)) = &mut self.auto else {
            return Ok(());
        };
        if policy.observe(stats.imbalance_ratio()) {
            let opts = *opts;
            self.rebalance_online(opts)?;
        }
        Ok(())
    }

    /// Executes a migration plan: all migrate-outs first (each source shard
    /// drains before replying, so no id is ever live on two shards), then
    /// migrate-ins for exactly the objects their sources released — at the
    /// sizes their sources *acked*, not the sizes the planner snapshotted,
    /// so an object resized by serving traffic mid-session transfers
    /// faithfully. Both halves are barriers with per-object acks, so one
    /// broken reallocator cannot desync the fleet: unreleased objects stay
    /// home (reported as `stranded`, so callers that changed the routing
    /// basis can re-pin them), and everything else completes. The first
    /// rejection is remembered in the outcome — the caller surfaces it only
    /// *after* making the routing table match physical ownership.
    fn migrate(&mut self, plan: &[Migration]) -> Result<MigrationOutcome, EngineError> {
        let mut outcome = MigrationOutcome::default();
        if plan.is_empty() {
            return Ok(outcome);
        }
        let n = self.pending.len();
        let mut outs: Vec<Vec<(ObjectId, u64)>> = vec![Vec::new(); n];
        for m in plan {
            // One globally unique sequence number per planned transfer,
            // journaled by both halves — recovery pairs them across logs.
            let xfer = self.xfer_seq;
            self.xfer_seq += 1;
            outs[m.from].push((m.id, xfer));
        }
        let mut waiting = Vec::new();
        for (shard, ids) in outs.into_iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let rx = self.request(shard, |reply| Command::MigrateOut { ids, reply }, None);
            waiting.push((shard, rx));
        }
        let mut released: HashMap<ObjectId, Transfer> = HashMap::new();
        for (shard, rx) in waiting {
            let (state, acks) = reply(shard, rx)?;
            outcome.note_error(shard, state.first_error);
            released.extend(acks.into_iter().map(|t| (t.id, t)));
        }
        let released_sizes: HashMap<ObjectId, u64> =
            released.values().map(|t| (t.id, t.size)).collect();

        // Armed fault injection: damage one byte of one in-flight payload
        // (lowest id, for determinism) after its source acked it — the
        // receiving shard's checksum verification must refuse the object.
        if self.corrupt_next_transfer {
            if let Some(transfer) = released
                .values_mut()
                .filter(|t| t.payload.as_ref().is_some_and(|p| !p.bytes.is_empty()))
                .min_by_key(|t| t.id)
            {
                let payload = transfer.payload.as_mut().expect("filtered above");
                payload.bytes[0] ^= 0x01;
                self.corrupt_next_transfer = false;
            }
        }

        let mut ins: Vec<Vec<Transfer>> = vec![Vec::new(); n];
        for m in plan {
            if let Some(transfer) = released.remove(&m.id) {
                ins[m.to].push(transfer);
            }
        }
        let mut waiting = Vec::new();
        for (shard, objects) in ins.into_iter().enumerate() {
            if objects.is_empty() {
                continue;
            }
            let rx = self.request(shard, |reply| Command::MigrateIn { objects, reply }, None);
            waiting.push((shard, rx));
        }
        let mut adopted = HashSet::new();
        for (shard, rx) in waiting {
            let (state, ids) = reply(shard, rx)?;
            outcome.note_error(shard, state.first_error);
            adopted.extend(ids);
        }

        for m in plan {
            if adopted.contains(&m.id) {
                outcome.completed.push((m.id, released_sizes[&m.id], m.to));
            } else if !released_sizes.contains_key(&m.id) {
                outcome.stranded.push((m.id, m.from));
            }
        }
        Ok(outcome)
    }

    /// Final barrier: serves everything still queued, stops every shard
    /// (a WAL'd shard checkpoints first), releases the transport, and
    /// returns each shard's stats *and full ledger* — the per-shard move
    /// logs that post-hoc cost pricing needs. Shards retired by a
    /// shrinking [`resize_shards`](Engine::resize_shards) follow the live
    /// shards, so no history is lost. Surfaces the first request-level
    /// error instead, if any shard saw one. An active
    /// [online session](Engine::rebalance_online) is stepped to completion
    /// first — a shutdown must not strand half a migration plan.
    pub fn shutdown(mut self) -> Result<Vec<ShardFinal>, EngineError> {
        while self.rebalance_step()? {}
        let mut pins = self.router_pins();
        let mut finals = self.barrier(|shard, reply| Command::Finish {
            reply,
            pins: std::mem::take(&mut pins[shard]),
        })?;
        self.transport.close();
        finals.append(&mut self.retired);
        let sticky = finals.iter();
        surface(sticky.map(|f| (f.stats.shard, &f.first_error, &f.first_substrate_error)))?;
        Ok(finals)
    }

    /// Simulated `kill -9` (testing): partially filled batches drop unsent
    /// (resolving their acks), everything already shipped is applied, and
    /// nothing else happens — no quiesce, no checkpoint, no truncation —
    /// so the WAL'd crash point is exact: state the WAL group-committed
    /// survives, everything after it is lost. Pair with
    /// [`Engine::recover`] on the same directory to rebuild.
    pub fn crash(mut self) {
        self.pending.fill_with(Pending::default);
        block_on(Ack(self.fence()));
        self.transport.close();
    }
}

/// Checks `opts.defrag_eps` against the paper's `0 < ε ≤ 1/2`.
fn validate_defrag_eps(opts: &RebalanceOptions) {
    if let Some(eps) = opts.defrag_eps {
        assert!(
            eps > 0.0 && eps <= 0.5,
            "the paper requires 0 < ε ≤ 1/2, got {eps}"
        );
    }
}

impl Engine<Threads> {
    /// Spawns `config.shards` worker threads behind a fresh
    /// [`TableRouter`]; `factory(shard)` builds each shard's reallocator
    /// (any `Reallocator + Send` — paper variants, baselines, or a mix).
    ///
    /// # Panics
    /// Panics if `config.shards` or `config.batch` is zero.
    pub fn new<F>(config: EngineConfig, factory: F) -> Engine
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        assert!(config.shards > 0, "engine needs at least one shard");
        Engine::with_router(config, Box::new(TableRouter::new(config.shards)), factory)
    }

    /// Like [`Engine::new`], but routing through `router` (whose shard
    /// count must match `config.shards`).
    ///
    /// # Panics
    /// Panics if `config.shards` or `config.batch` is zero, or if the
    /// router targets a different shard count.
    pub fn with_router<F>(config: EngineConfig, router: Box<dyn Router>, factory: F) -> Engine
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        Engine::build(config, router, factory, None, 0, Threads::new)
            .expect("spawning shards without a WAL cannot fail")
    }

    /// Like [`Engine::with_router`], but with durability: each shard
    /// journals its physical ops and route flips into a write-ahead log
    /// under `wal_dir` (one group commit per command), checkpoints at
    /// quiesce/shutdown barriers, and a crashed fleet can be rebuilt with
    /// [`Engine::recover`]. Stale `*.wal`/`*.ckpt` files under `wal_dir`
    /// are removed first — a fresh engine's history starts now; to resume
    /// from existing logs, call [`Engine::recover`] instead.
    ///
    /// # Errors
    /// [`EngineError::Wal`] if the directory or a shard's log cannot be
    /// created.
    ///
    /// # Panics
    /// Panics like [`Engine::with_router`] on a zero shard/batch count or a
    /// router/config shard-count mismatch.
    pub fn with_wal<F>(
        config: EngineConfig,
        router: Box<dyn Router>,
        factory: F,
        wal_dir: impl AsRef<Path>,
    ) -> Result<Engine, EngineError>
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        let dir = prepare_wal_dir(wal_dir.as_ref())?;
        Engine::build(config, router, factory, Some(dir), 0, Threads::new)
    }

    /// Enqueues `〈INSERTOBJECT, id, size〉` on the owning shard.
    ///
    /// `Ok` means *accepted for serving*, not *served*: a rejection by the
    /// shard's reallocator (e.g. a duplicate id) surfaces at the next
    /// barrier. `Err` here only ever means the shard is down.
    pub fn insert(&mut self, id: ObjectId, size: u64) -> Result<(), EngineError> {
        self.submit(Request::Insert { id, size })
    }

    /// Enqueues `〈DELETEOBJECT, id〉` on the owning shard. Same contract as
    /// [`insert`](Engine::insert).
    pub fn delete(&mut self, id: ObjectId) -> Result<(), EngineError> {
        self.submit(Request::Delete { id })
    }

    fn submit(&mut self, req: Request) -> Result<(), EngineError> {
        let shard = self.router.route(req.id());
        // Online rebalancing rides the serving cadence: one bounded
        // migration batch per dispatched serving batch, so per-call latency
        // stays bounded and migration bandwidth scales with traffic instead
        // of stalling it.
        if self.enqueue(shard, req)? && self.session.is_some() {
            self.rebalance_step()?;
        }
        Ok(())
    }

    /// Pushes every partially filled batch to its shard, reporting the
    /// first shard found down (the others are still flushed). Called
    /// implicitly by all barriers; only needed directly to cap latency
    /// when trickling requests below the batch size.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        (0..self.pending.len())
            .map(|shard| self.flush_shard(shard))
            .fold(Ok(()), Result::and)
    }

    /// Waits until every enqueued request has been served and all deferred
    /// work is complete (each shard runs `Reallocator::quiesce`, draining
    /// e.g. the deamortized structure's in-progress flush), then returns
    /// the aggregated stats. Surfaces the first request-level error, if
    /// any shard saw one. An [auto-rebalance
    /// policy](Engine::set_auto_rebalance) observes the stats produced
    /// here and may start an online session before this returns.
    pub fn quiesce(&mut self) -> Result<EngineStats, EngineError> {
        let stats = self.quiesce_barrier()?;
        self.policy_observe(&stats)?;
        Ok(stats)
    }

    /// Replays a whole workload: splits it into per-shard streams with
    /// [`workload_gen::shard::split_with`] under the engine's router
    /// (per-object request order is preserved — an object's requests all
    /// route to the same shard, in sequence order) and feeds the streams
    /// round-robin, one batch per shard per round, so every queue stays
    /// busy instead of one shard draining while the rest idle.
    ///
    /// Returns when everything is *enqueued*; follow with
    /// [`quiesce`](Engine::quiesce) or [`snapshot`](Engine::snapshot) to
    /// wait for completion and check for request errors.
    ///
    /// While an [online rebalance](Engine::rebalance_online) is active the
    /// pre-split fast path is unsound (a migration step may re-home an id
    /// after its stream was split), so requests are routed one at a time at
    /// enqueue — which also paces the session: one bounded migration batch
    /// per dispatched serving batch.
    pub fn drive(&mut self, workload: &Workload) -> Result<(), EngineError> {
        if self.session.is_some() {
            for &req in &workload.requests {
                self.submit(req)?;
            }
            return Ok(());
        }
        // Order wrt. anything already trickled in via insert/delete.
        self.flush()?;
        let shards = self.pending.len();
        let router = self.router.as_ref();
        let parts = workload_gen::shard::split_with(workload, shards, |id| router.route(id));
        self.drive_streams(parts.into_iter().map(|p| p.requests).collect())
    }

    /// Feeds pre-split per-shard request streams (`streams[s]` belongs to
    /// shard `s`, in order): one full batch per shard per round, each round
    /// dispatched deepest-backlog-first, so the stream with the most work
    /// left hits its queue soonest and no worker idles while another's
    /// stream drains. Shared by [`drive`](Engine::drive) and the
    /// crash-recovery reseed, which splits by journaled ownership instead
    /// of routing.
    ///
    /// # Panics
    /// Panics if there are more streams than shards.
    pub(crate) fn drive_streams(&mut self, streams: Vec<Vec<Request>>) -> Result<(), EngineError> {
        assert!(
            streams.len() <= self.pending.len(),
            "more streams than shards"
        );
        let batch = self.config.batch;
        let mut cursor = vec![0usize; streams.len()];
        let mut order: Vec<usize> = (0..streams.len()).collect();
        loop {
            order.sort_by_key(|&s| std::cmp::Reverse(streams[s].len() - cursor[s]));
            let mut done = true;
            for &shard in &order {
                let reqs = &streams[shard];
                if cursor[shard] < reqs.len() {
                    done = false;
                    let end = (cursor[shard] + batch).min(reqs.len());
                    let cmd = Command::Batch(reqs[cursor[shard]..end].to_vec());
                    self.ship(shard, cmd, None)?;
                    cursor[shard] = end;
                }
            }
            if done {
                return Ok(());
            }
        }
    }

    /// Resizes the live engine to `shards` shards, reusing the rebalance
    /// migration machinery: quiesces, spawns workers for any new shards
    /// (built by `factory`, like at construction), migrates every object
    /// whose route changes under the new shard count (the rendezvous
    /// fallback keeps that near `1/n` of the population on grows, and to
    /// the dying shards' objects on shrinks), re-targets the router, and
    /// retires drained workers on shrinks — their stats and ledgers are
    /// returned by the eventual [`shutdown`](Engine::shutdown).
    ///
    /// Per-object request order is preserved: everything happens inside
    /// one quiesce barrier. An active
    /// [online session](Engine::rebalance_online) is stepped to completion
    /// first, so the resize plan sees settled routing.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn resize_shards<F>(
        &mut self,
        shards: usize,
        mut factory: F,
    ) -> Result<ResizeReport, EngineError>
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        assert!(shards > 0, "engine needs at least one shard");
        while self.rebalance_step()? {}
        let from = self.config.shards;
        self.quiesce_barrier()?;
        if shards == from {
            return Ok(ResizeReport {
                from,
                to: shards,
                migrated_objects: 0,
                migrated_volume: 0,
            });
        }
        self.events.begin(None, "resize", shards as u64);
        let extents = self.extents()?;
        let mut plan = Vec::new();
        for (shard, list) in extents.iter().enumerate() {
            for &(id, e) in list {
                let to = self.router.route_at(id, shards);
                debug_assert!(to < shards, "router resize preview out of range");
                if to != shard {
                    plan.push(Migration {
                        id,
                        size: e.len,
                        from: shard,
                        to,
                    });
                }
            }
        }
        for shard in from..shards {
            let dir = self.wal_dir.as_deref();
            let worker = ShardWorker::build(&self.config, shard, factory(shard), dir, 0)?;
            self.transport.spawn(worker);
            self.add_pending();
        }
        let outcome = self.migrate(&plan)?;
        if outcome.first_error.is_some() {
            // Partial failure (only possible with a broken reallocator):
            // routing must be made to match physical ownership before the
            // error surfaces, and the fleet cannot shrink — a dying shard
            // may still hold what it refused to release. Adopt the larger
            // of the two counts so every owner stays routable, then pin
            // both the transfers that landed (to their targets) and the
            // objects whose source refused to let go (back to it, since
            // the re-targeted fallback may now point elsewhere).
            let keep = shards.max(from);
            self.router.set_shards(keep);
            self.config.shards = keep;
            let landed = outcome.completed.iter().map(|&(id, _, to)| (id, to));
            for (id, owner) in landed.chain(outcome.stranded.iter().copied()) {
                self.router.assign(id, owner);
            }
            outcome.surface()?;
        }
        self.router.set_shards(shards);
        for &(id, _, to) in &outcome.completed {
            // A no-op wherever the new fallback already agrees, so a fresh
            // table stays assignment-free.
            self.router.assign(id, to);
        }
        let (migrated_objects, migrated_volume) = outcome.totals();
        // Retire drained workers, highest shard first.
        for _ in shards..from {
            let fin = self.retire_shard()?;
            debug_assert_eq!(fin.stats.live_count, 0, "retired shard still holds objects");
            self.retired.push(fin);
        }
        self.config.shards = shards;
        self.events.end(None, "resize", migrated_volume);
        Ok(ResizeReport {
            from,
            to: shards,
            migrated_objects,
            migrated_volume,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_common::{Outcome, Reallocator};
    use std::collections::HashMap;

    /// A minimal in-test reallocator: bump allocation, never moves, never
    /// reuses space. Enough to exercise every engine path deterministically.
    #[derive(Default)]
    struct Bump {
        extents: HashMap<ObjectId, Extent>,
        end: u64,
        volume: u64,
        delta: u64,
    }

    impl Reallocator for Bump {
        fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
            if size == 0 {
                return Err(ReallocError::ZeroSize);
            }
            if self.extents.contains_key(&id) {
                return Err(ReallocError::DuplicateId(id));
            }
            self.extents.insert(id, Extent::new(self.end, size));
            self.end += size;
            self.volume += size;
            self.delta = self.delta.max(size);
            Ok(Outcome::empty())
        }
        fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
            let e = self
                .extents
                .remove(&id)
                .ok_or(ReallocError::UnknownId(id))?;
            self.volume -= e.len;
            Ok(Outcome::empty())
        }
        fn extent_of(&self, id: ObjectId) -> Option<Extent> {
            self.extents.get(&id).copied()
        }
        fn live_extents(&self) -> Vec<(ObjectId, Extent)> {
            self.extents.iter().map(|(&id, &e)| (id, e)).collect()
        }
        fn live_volume(&self) -> u64 {
            self.volume
        }
        fn structure_size(&self) -> u64 {
            self.end
        }
        fn footprint(&self) -> u64 {
            self.end
        }
        fn max_object_size(&self) -> u64 {
            self.delta
        }
        fn name(&self) -> &'static str {
            "bump"
        }
        fn live_count(&self) -> usize {
            self.extents.len()
        }
    }

    fn bump_engine(shards: usize) -> Engine {
        Engine::new(EngineConfig::with_shards(shards), |_| {
            Box::new(Bump::default())
        })
    }

    /// Like [`bump_engine`], but routed through a router built under the
    /// `HashRouter` name that older callers still use.
    fn hash_engine(shards: usize) -> Engine {
        let router = Box::new(realloc_common::HashRouter::new(shards));
        Engine::with_router(EngineConfig::with_shards(shards), router, |_| {
            Box::new(Bump::default())
        })
    }

    #[test]
    fn serves_and_aggregates() {
        let mut e = bump_engine(3);
        for i in 0..100u64 {
            e.insert(ObjectId(i), 1 + i % 7).unwrap();
        }
        for i in 0..50u64 {
            e.delete(ObjectId(i)).unwrap();
        }
        let stats = e.quiesce().unwrap();
        assert_eq!(stats.shards(), 3);
        assert_eq!(stats.requests(), 150);
        assert_eq!(stats.live_count(), 50);
        let expect: u64 = (50..100).map(|i| 1 + i % 7).sum();
        assert_eq!(stats.live_volume(), expect);
        assert_eq!(stats.errors(), 0);
        // Every request landed on the shard its id hashes to.
        let per_shard_requests: u64 = stats.per_shard.iter().map(|s| s.requests).sum();
        assert_eq!(per_shard_requests, 150);
    }

    #[test]
    fn small_batches_flush_at_barriers() {
        // 5 requests with batch=256 stay pending until the barrier.
        let mut e = bump_engine(2);
        for i in 0..5u64 {
            e.insert(ObjectId(i), 8).unwrap();
        }
        let stats = e.snapshot().unwrap();
        assert_eq!(stats.requests(), 5);
        assert_eq!(stats.live_volume(), 40);
    }

    #[test]
    fn request_errors_surface_at_barriers_and_do_not_kill_shards() {
        let mut e = bump_engine(2);
        e.insert(ObjectId(1), 8).unwrap();
        e.insert(ObjectId(1), 8).unwrap(); // duplicate — same shard by hash
        e.insert(ObjectId(2), 4).unwrap();
        let err = e.snapshot().unwrap_err();
        match err {
            EngineError::Request {
                error: ReallocError::DuplicateId(id),
                ..
            } => {
                assert_eq!(id, ObjectId(1));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The shard kept serving past the bad request.
        let shard1 = e.shard_of(ObjectId(1));
        let finals = e.shutdown().unwrap_err();
        assert!(matches!(finals, EngineError::Request { shard, .. } if shard == shard1));
    }

    #[test]
    fn extents_match_routing() {
        let mut e = bump_engine(4);
        for i in 0..40u64 {
            e.insert(ObjectId(i), 4).unwrap();
        }
        let extents = e.extents().unwrap();
        assert_eq!(extents.len(), 4);
        let mut seen = 0;
        for (shard, list) in extents.iter().enumerate() {
            for &(id, extent) in list {
                assert_eq!(e.shard_of(id), shard, "{id} listed on wrong shard");
                assert_eq!(extent.len, 4);
                seen += 1;
            }
            // Sorted by id within the shard.
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0));
        }
        assert_eq!(seen, 40, "every live object listed exactly once");
    }

    #[test]
    fn shutdown_returns_per_shard_ledgers() {
        let mut e = bump_engine(2);
        for i in 0..20u64 {
            e.insert(ObjectId(i), 2).unwrap();
        }
        let finals = e.shutdown().unwrap();
        assert_eq!(finals.len(), 2);
        let total: usize = finals.iter().map(|f| f.ledger.len()).sum();
        assert_eq!(total, 20, "every request ledgered on exactly one shard");
        for f in &finals {
            assert_eq!(f.ledger.len() as u64, f.stats.requests);
        }
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.shards > 0 && c.batch > 0 && c.queue_depth > 0);
        assert_eq!(EngineConfig::with_shards(7).shards, 7);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        EngineConfig::with_shards(0);
    }

    #[test]
    fn error_display() {
        let e = EngineError::Request {
            shard: 2,
            index: 7,
            error: ReallocError::UnknownId(ObjectId(9)),
        };
        assert_eq!(
            e.to_string(),
            "shard 2 rejected its request #7: obj#9 is not active"
        );
        assert_eq!(
            EngineError::ShardDown { shard: 1 }.to_string(),
            "shard 1 worker is gone"
        );
        assert_eq!(
            EngineError::RebalanceInProgress.to_string(),
            "an online rebalance session is already in progress"
        );
    }

    /// Loads shard 0 far above the others by deleting everything routed
    /// elsewhere.
    fn skew_toward_shard_zero(e: &mut Engine, ids: u64) {
        for i in 0..ids {
            e.insert(ObjectId(i), 8).unwrap();
        }
        let doomed: Vec<ObjectId> = (0..ids)
            .map(ObjectId)
            .filter(|&id| e.shard_of(id) != 0)
            .collect();
        for id in doomed {
            e.delete(id).unwrap();
        }
    }

    /// Asserts that every live object routes to the shard that holds it
    /// and lives on no other; returns how many there are.
    fn routed_to_owners(e: &mut Engine) -> usize {
        let mut seen = std::collections::HashSet::new();
        for (shard, list) in e.extents().unwrap().iter().enumerate() {
            for &(id, _) in list {
                assert_eq!(e.shard_of(id), shard, "{id} routed to a stale shard");
                assert!(seen.insert(id), "{id} live on two shards");
            }
        }
        seen.len()
    }

    #[test]
    fn rebalance_equalizes_table_routed_volumes() {
        let mut e = bump_engine(4);
        skew_toward_shard_zero(&mut e, 400);
        let before = e.quiesce().unwrap();
        assert!(
            before.imbalance_ratio() > 2.0,
            "skew failed: {}",
            before.imbalance_ratio()
        );
        let live_before = before.live_count();

        let report = e.rebalance(RebalanceOptions::default()).unwrap();
        assert!(report.migrated_objects > 0);
        assert!(
            report.after.imbalance_ratio() < 1.25,
            "imbalance after rebalance: {}",
            report.after.imbalance_ratio()
        );
        assert_eq!(report.after.live_count(), live_before, "objects conserved");
        assert_eq!(report.after.live_volume(), before.live_volume());
        assert_eq!(report.after.migrations(), report.migrated_objects);
        assert!(e.router().assignments() > 0, "migrated ids are pinned");

        // Routing follows the moved objects: deleting everything must
        // succeed, which requires every id to route to its current owner.
        let extents = e.extents().unwrap();
        for list in &extents {
            for &(id, _) in list {
                e.delete(id).unwrap();
            }
        }
        let empty = e.quiesce().unwrap();
        assert_eq!(empty.live_count(), 0);
        assert_eq!(empty.errors(), 0, "a migrated id routed to a stale shard");
    }

    /// `HashRouter` names the assignment table, so a barrier rebalance on
    /// a `HashRouter` engine is not refused: it repairs the skew, pins the
    /// moved ids and leaves the engine serving.
    #[test]
    fn rebalance_on_hash_router_is_rejected() {
        let mut e = hash_engine(3);
        skew_toward_shard_zero(&mut e, 300);
        let before = e.quiesce().unwrap();
        assert!(before.imbalance_ratio() > 2.0);
        let report = e.rebalance(RebalanceOptions::default()).unwrap();
        assert_eq!(report.mode, RebalanceMode::Barrier);
        assert!(report.migrated_objects > 0);
        assert!(
            report.after.imbalance_ratio() < 1.25,
            "imbalance after rebalance: {}",
            report.after.imbalance_ratio()
        );
        assert!(e.router().assignments() > 0, "migrated ids are pinned");
        assert_eq!(routed_to_owners(&mut e), before.live_count());
        e.insert(ObjectId(10_000), 4).unwrap();
        assert_eq!(e.quiesce().unwrap().errors(), 0);
    }

    #[test]
    fn balanced_engine_rebalance_is_a_no_op_even_on_hash() {
        // One shard: the plan is empty.
        let mut e = bump_engine(1);
        e.insert(ObjectId(1), 8).unwrap();
        let report = e.rebalance(RebalanceOptions::default()).unwrap();
        assert_eq!(report.migrated_objects, 0);
    }

    #[test]
    fn resize_grow_and_shrink_conserve_objects() {
        let mut e = bump_engine(2);
        for i in 0..200u64 {
            e.insert(ObjectId(i), 1 + i % 9).unwrap();
        }
        let before = e.quiesce().unwrap();

        let grow = e.resize_shards(5, |_| Box::new(Bump::default())).unwrap();
        assert_eq!((grow.from, grow.to), (2, 5));
        assert_eq!(e.shards(), 5);
        let grown = e.quiesce().unwrap();
        assert_eq!(grown.shards(), 5);
        assert_eq!(grown.live_count(), before.live_count());
        assert_eq!(grown.live_volume(), before.live_volume());
        // The rendezvous fallback keeps a grow from reshuffling everything.
        assert!(
            grow.migrated_objects < 200,
            "grow re-homed {} of 200",
            grow.migrated_objects
        );

        let shrink = e.resize_shards(3, |_| Box::new(Bump::default())).unwrap();
        assert_eq!((shrink.from, shrink.to), (5, 3));
        let shrunk = e.quiesce().unwrap();
        assert_eq!(shrunk.shards(), 3);
        assert_eq!(shrunk.live_count(), before.live_count());
        assert_eq!(shrunk.live_volume(), before.live_volume());

        // Every id routes to a live shard that actually owns it.
        assert_eq!(routed_to_owners(&mut e), before.live_count());

        // Retired shards' ledgers survive to shutdown.
        let finals = e.shutdown().unwrap();
        assert_eq!(finals.len(), 3 + 2, "3 live + 2 retired shards");
        let requests: u64 = finals.iter().map(|f| f.stats.requests).sum();
        assert_eq!(requests, 200, "client requests served exactly once");
    }

    #[test]
    fn resize_same_count_is_a_no_op() {
        let mut e = bump_engine(3);
        e.insert(ObjectId(7), 4).unwrap();
        let report = e.resize_shards(3, |_| Box::new(Bump::default())).unwrap();
        assert_eq!(report.migrated_objects, 0);
        assert_eq!(e.shards(), 3);
    }

    #[test]
    fn resize_hash_router_engine_works_by_mass_migration() {
        use realloc_common::rendezvous_shard;
        let mut e = bump_engine(2);
        for i in 0..100u64 {
            e.insert(ObjectId(i), 4).unwrap();
        }
        let report = e.resize_shards(4, |_| Box::new(Bump::default())).unwrap();
        let stats = e.quiesce().unwrap();
        assert_eq!(stats.shards(), 4);
        assert_eq!(stats.live_count(), 100);
        // A grow migrates exactly the ids the rendezvous fallback re-homes
        // and pins none of them: routing afterwards is rendezvous at 4.
        let rehomed = (0..100u64)
            .map(ObjectId)
            .filter(|&id| rendezvous_shard(id, 2) != rendezvous_shard(id, 4))
            .count();
        assert_eq!(report.migrated_objects as usize, rehomed);
        assert_eq!(e.router().assignments(), 0);
        let extents = e.extents().unwrap();
        for (shard, list) in extents.iter().enumerate() {
            for &(id, _) in list {
                assert_eq!(rendezvous_shard(id, 4), shard);
            }
        }
    }

    #[test]
    fn migrations_are_ledgered_as_migrations() {
        use realloc_common::OpKind;
        let config = EngineConfig::with_shards(2).with_ledger_history();
        let mut e = Engine::new(config, |_| Box::new(Bump::default()));
        skew_toward_shard_zero(&mut e, 60);
        e.rebalance(RebalanceOptions::default()).unwrap();
        let finals = e.shutdown().unwrap();
        let (mut ins, mut outs) = (0u64, 0u64);
        for f in &finals {
            for r in f.ledger.records() {
                match r.kind {
                    OpKind::MigrateIn => {
                        ins += 1;
                        assert_eq!(r.allocated, None, "a transfer is not an allocation");
                        assert_eq!(r.moved_sizes.first(), Some(&r.request_size));
                    }
                    OpKind::MigrateOut => outs += 1,
                    _ => {}
                }
            }
            assert_eq!(f.stats.migrations_in, {
                f.ledger
                    .records()
                    .iter()
                    .filter(|r| r.kind == OpKind::MigrateIn)
                    .count() as u64
            });
        }
        assert!(ins > 0, "rebalance must have migrated something");
        assert_eq!(ins, outs, "every transfer has both halves");
    }

    /// A Bump whose inserts can be switched off — stands in for a
    /// broken reallocator rejecting migrate-ins mid-rebalance.
    struct FlakyBump {
        inner: Bump,
        fail_inserts: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }
    impl Reallocator for FlakyBump {
        fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
            if self.fail_inserts.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(ReallocError::ZeroSize);
            }
            self.inner.insert(id, size)
        }
        fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
            self.inner.delete(id)
        }
        fn extent_of(&self, id: ObjectId) -> Option<Extent> {
            self.inner.extent_of(id)
        }
        fn live_extents(&self) -> Vec<(ObjectId, Extent)> {
            self.inner.live_extents()
        }
        fn live_volume(&self) -> u64 {
            self.inner.live_volume()
        }
        fn structure_size(&self) -> u64 {
            self.inner.structure_size()
        }
        fn footprint(&self) -> u64 {
            self.inner.footprint()
        }
        fn max_object_size(&self) -> u64 {
            self.inner.max_object_size()
        }
        fn name(&self) -> &'static str {
            "flaky-bump"
        }
        fn live_count(&self) -> usize {
            self.inner.live_count()
        }
    }

    /// An engine whose shard 1 rejects inserts whenever the returned switch
    /// is flipped on.
    fn flaky_engine(shards: usize) -> (Engine, std::sync::Arc<std::sync::atomic::AtomicBool>) {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let fail = Arc::new(AtomicBool::new(false));
        let fail_factory = Arc::clone(&fail);
        let engine = Engine::new(EngineConfig::with_shards(shards), move |shard| {
            if shard == 1 {
                Box::new(FlakyBump {
                    inner: Bump::default(),
                    fail_inserts: Arc::clone(&fail_factory),
                })
            } else {
                Box::new(Bump::default())
            }
        });
        (engine, fail)
    }

    #[test]
    fn partial_migration_failure_keeps_routing_consistent() {
        use std::sync::atomic::Ordering;

        let (mut e, fail) = flaky_engine(2);
        // Skew all volume onto shard 0, so the rebalance plan targets the
        // (soon to be broken) shard 1.
        skew_toward_shard_zero(&mut e, 60);
        let before = e.quiesce().unwrap();
        assert!(before.imbalance_ratio() > 1.5);

        fail.store(true, Ordering::Relaxed);
        let err = e.rebalance(RebalanceOptions::default()).unwrap_err();
        assert!(
            matches!(err, EngineError::Request { shard: 1, .. }),
            "expected shard 1's rejection, got {err:?}"
        );

        // The objects shard 1 rejected are lost (their sources released
        // them), but nothing is desynced: every surviving object routes to
        // the shard that actually owns it, and no id is on two shards.
        let survivors = routed_to_owners(&mut e);
        assert!(survivors < before.live_count(), "rejections lose objects");
        assert!(survivors > 0, "unaffected objects survive");
        // The sticky shard error keeps surfacing at barriers, as for any
        // rejected request.
        assert!(matches!(
            e.quiesce().unwrap_err(),
            EngineError::Request { shard: 1, .. }
        ));
    }

    #[test]
    fn resize_partial_failure_keeps_routing_consistent() {
        use std::sync::atomic::Ordering;

        // Shrink 3 → 2 while the surviving shard 1 refuses every arrival:
        // shard 2's objects bound for shard 0 land, the ones bound for
        // shard 1 are lost, and the fleet keeps its third shard.
        let (mut e, fail) = flaky_engine(3);
        for i in 0..300u64 {
            e.insert(ObjectId(i), 4).unwrap();
        }
        let before = e.quiesce().unwrap();
        fail.store(true, Ordering::Relaxed);
        let err = e
            .resize_shards(2, |_| Box::new(Bump::default()))
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Request { shard: 1, .. }),
            "expected shard 1's rejection, got {err:?}"
        );
        assert_eq!(e.shards(), 3, "a failed shrink keeps every owner");

        // The landed objects are pinned to shard 0, although the fallback
        // at three shards still points them at shard 2.
        let survivors = routed_to_owners(&mut e);
        assert!(survivors < before.live_count(), "rejections lose objects");
        assert!(e.router().assignments() > 0, "landed transfers are pinned");
    }

    #[test]
    fn online_partial_failure_aborts_session_with_consistent_routing() {
        use std::sync::atomic::Ordering;

        let (mut e, fail) = flaky_engine(2);
        skew_toward_shard_zero(&mut e, 60);
        let before = e.quiesce().unwrap();
        let plan = e
            .rebalance_online(RebalanceOptions::default().batched(2))
            .unwrap();
        assert!(plan.batches > 1);

        // First step succeeds, then shard 1 starts rejecting adoptions.
        assert!(e.rebalance_step().unwrap());
        fail.store(true, Ordering::Relaxed);
        let err = loop {
            match e.rebalance_step() {
                Ok(true) => {}
                Ok(false) => panic!("session completed through a broken shard"),
                Err(err) => break err,
            }
        };
        assert!(matches!(err, EngineError::Request { shard: 1, .. }));
        assert!(!e.rebalance_active(), "failed session must abort");
        assert!(e.take_rebalance_report().is_none(), "no completion report");

        // The batch that hit the broken shard is lost (its source released
        // it), but routing matches physical ownership everywhere: every
        // survivor routes to the shard that holds it, unexecuted plan
        // entries simply stayed home.
        let survivors = routed_to_owners(&mut e);
        assert!(survivors > 0 && survivors < before.live_count());
    }

    #[test]
    fn online_rebalance_equalizes_while_serving() {
        let mut e = bump_engine(4);
        skew_toward_shard_zero(&mut e, 400);
        let before = e.quiesce().unwrap();
        assert!(before.imbalance_ratio() > 2.0);

        let plan = e
            .rebalance_online(RebalanceOptions::default().batched(8))
            .unwrap();
        assert!(plan.objects > 0);
        assert_eq!(plan.batches, plan.objects.div_ceil(8));
        assert!(e.rebalance_active());

        // Serve fresh traffic while the session drains; every dispatched
        // batch steps the migration (batch size is 256, so trickle plenty).
        let mut extra = 0u64;
        while e.rebalance_active() {
            for i in 0..600u64 {
                e.insert(ObjectId(1_000_000 + extra * 1_000 + i), 2)
                    .unwrap();
            }
            extra += 1;
            assert!(extra < 100, "session never drained");
        }
        let report = e.take_rebalance_report().expect("completed session");
        assert_eq!(report.mode, RebalanceMode::Online);
        assert!(report.batches > 1, "one big batch is not incremental");
        assert_eq!(report.migrated_objects, plan.objects);
        assert!(
            report.after.imbalance_ratio() < 1.25,
            "imbalance {} after online rebalance",
            report.after.imbalance_ratio()
        );

        // Mid-serving migration lost nothing: every id routes to its owner.
        let stats = e.quiesce().unwrap();
        assert_eq!(stats.errors(), 0);
        assert_eq!(routed_to_owners(&mut e), stats.live_count());
    }

    #[test]
    fn online_rebalance_steps_explicitly_and_reports_once() {
        let mut e = bump_engine(3);
        skew_toward_shard_zero(&mut e, 300);
        e.rebalance_online(RebalanceOptions::default().batched(16))
            .unwrap();
        // A second plan while draining is refused.
        assert!(matches!(
            e.rebalance_online(RebalanceOptions::default()),
            Err(EngineError::RebalanceInProgress)
        ));
        let mut steps = 0;
        while e.rebalance_step().unwrap() {
            steps += 1;
            assert!(steps < 1_000, "stuck session");
        }
        let report = e.take_rebalance_report().unwrap();
        assert!(report.after.imbalance_ratio() < 1.25);
        assert!(e.take_rebalance_report().is_none(), "report claimed twice");
        // Stepping an idle engine is a no-op.
        assert!(!e.rebalance_step().unwrap());
    }

    /// An online session on a `HashRouter` engine is not refused either:
    /// it drains batch by batch and repairs the skew.
    #[test]
    fn online_rebalance_on_hash_router_is_rejected() {
        let mut e = hash_engine(3);
        skew_toward_shard_zero(&mut e, 300);
        let live = e.quiesce().unwrap().live_count();
        let plan = e
            .rebalance_online(RebalanceOptions::default().batched(16))
            .unwrap();
        assert!(plan.objects > 16, "plan spans several batches");
        assert!(e.rebalance_active());
        let mut steps = 0;
        while e.rebalance_step().unwrap() {
            steps += 1;
            assert!(steps < 1_000, "stuck session");
        }
        let report = e.take_rebalance_report().unwrap();
        assert_eq!(report.mode, RebalanceMode::Online);
        assert!(report.batches > 1);
        assert!(report.after.imbalance_ratio() < 1.25);
        assert_eq!(routed_to_owners(&mut e), live);
    }

    #[test]
    fn balanced_online_rebalance_completes_with_empty_plan() {
        let mut e = bump_engine(1);
        e.insert(ObjectId(1), 8).unwrap();
        let plan = e.rebalance_online(RebalanceOptions::default()).unwrap();
        assert_eq!(plan.objects, 0);
        assert!(!e.rebalance_step().unwrap());
        let report = e.take_rebalance_report().unwrap();
        assert_eq!(report.migrated_objects, 0);
        assert_eq!(report.batches, 0);
    }

    #[test]
    fn online_rebalance_survives_planned_objects_being_deleted() {
        let mut e = bump_engine(4);
        skew_toward_shard_zero(&mut e, 400);
        let plan = e
            .rebalance_online(RebalanceOptions::default().batched(4))
            .unwrap();
        assert!(plan.objects > 4);
        // Delete *everything* the plan could touch before it executes:
        // every planned migrate-out must skip silently, not error.
        let extents = e.extents().unwrap();
        for list in &extents {
            for &(id, _) in list {
                e.delete(id).unwrap();
            }
        }
        while e.rebalance_step().unwrap() {}
        let report = e.take_rebalance_report().unwrap();
        let stats = e.quiesce().unwrap();
        assert_eq!(stats.errors(), 0, "deleted plan entries must not error");
        assert_eq!(stats.live_count(), 0);
        assert!(report.migrated_objects <= plan.objects);
    }

    #[test]
    fn online_rebalance_transfers_resized_reinserts_faithfully() {
        // Between planning and execution, delete a planned object and
        // re-insert the id at a different size: the transfer must carry
        // the *current* size (the source's ack), not the planner's.
        let mut e = bump_engine(2);
        skew_toward_shard_zero(&mut e, 60);
        let plan = e
            .rebalance_online(RebalanceOptions::default().batched(1))
            .unwrap();
        assert!(plan.objects > 0);
        let survivors: Vec<ObjectId> = e
            .extents()
            .unwrap()
            .iter()
            .flatten()
            .map(|&(id, _)| id)
            .collect();
        let total_before: u64 = e.quiesce().unwrap().live_volume();
        let victim = survivors[0];
        e.delete(victim).unwrap();
        e.insert(victim, 123).unwrap();
        while e.rebalance_step().unwrap() {}
        let stats = e.quiesce().unwrap();
        assert_eq!(stats.errors(), 0);
        // 8 cells (skew inserts) swapped for 123: volume moved with it.
        assert_eq!(stats.live_volume(), total_before - 8 + 123);
        let extents = e.extents().unwrap();
        let found: Vec<u64> = extents
            .iter()
            .flatten()
            .filter(|&&(id, _)| id == victim)
            .map(|&(_, ext)| ext.len)
            .collect();
        assert_eq!(found, vec![123], "resized object lost or duplicated");
    }

    #[test]
    fn auto_rebalance_policy_fires_at_barriers_and_drains_via_serving() {
        let mut e = bump_engine(4);
        e.set_auto_rebalance(
            RebalancePolicy::new(1.5, 2, 1),
            RebalanceOptions::default().batched(32),
        );
        skew_toward_shard_zero(&mut e, 400);

        // First breach observation: no trigger yet (k = 2).
        let s1 = e.quiesce().unwrap();
        assert!(s1.imbalance_ratio() > 1.5);
        assert!(!e.rebalance_active());
        // Second consecutive breach: the engine starts a session itself.
        e.quiesce().unwrap();
        assert!(e.rebalance_active(), "policy should have fired");

        // Serving drains it.
        let mut round = 0u64;
        while e.rebalance_active() {
            for i in 0..600u64 {
                e.insert(ObjectId(2_000_000 + round * 1_000 + i), 1)
                    .unwrap();
            }
            round += 1;
            assert!(round < 100, "session never drained");
        }
        let report = e.take_rebalance_report().expect("auto session report");
        assert_eq!(report.mode, RebalanceMode::Online);
        assert!(report.after.imbalance_ratio() < 1.5);
        assert_eq!(e.auto_rebalance().unwrap().cooldown(), 1, "hysteresis");

        // The cooldown observation is swallowed even if skew returns.
        e.quiesce().unwrap();
        assert!(!e.rebalance_active());
        let policy = e.clear_auto_rebalance().unwrap();
        assert_eq!(policy.cooldown(), 0);
        e.quiesce().unwrap();
        assert!(!e.rebalance_active(), "cleared policy must not fire");
    }

    /// Behind a `HashRouter` the policy fires on skew; once the repair
    /// lands it stays silent, with no cooldown doing the silencing.
    #[test]
    fn auto_rebalance_stays_silent_behind_a_hash_router() {
        let mut e = hash_engine(2);
        e.set_auto_rebalance(RebalancePolicy::new(1.1, 1, 0), RebalanceOptions::default());
        skew_toward_shard_zero(&mut e, 200);
        let stats = e.quiesce().unwrap();
        assert!(stats.imbalance_ratio() > 1.1);
        assert!(e.rebalance_active(), "policy should have fired");
        let mut steps = 0;
        while e.rebalance_step().unwrap() {
            steps += 1;
            assert!(steps < 1_000, "stuck session");
        }
        let report = e.take_rebalance_report().expect("auto session report");
        assert!(report.after.imbalance_ratio() < 1.1);
        for _ in 0..3 {
            e.quiesce().unwrap();
            assert!(!e.rebalance_active(), "a balanced fleet must not fire");
        }
        assert!(e.take_rebalance_report().is_none());
    }

    #[test]
    fn barrier_ops_complete_an_active_session_first() {
        let mut e = bump_engine(4);
        skew_toward_shard_zero(&mut e, 400);
        e.rebalance_online(RebalanceOptions::default().batched(4))
            .unwrap();
        assert!(e.rebalance_active());
        // A barrier rebalance finishes the online plan, then re-plans.
        let report = e.rebalance(RebalanceOptions::default()).unwrap();
        assert!(!e.rebalance_active());
        assert_eq!(report.mode, RebalanceMode::Barrier);
        let online = e.take_rebalance_report().expect("online report parked");
        assert_eq!(online.mode, RebalanceMode::Online);
        assert!(online.migrated_objects > 0);
        assert!(report.after.imbalance_ratio() < 1.25);

        // Same for resize and shutdown (fresh skew on fresh ids).
        for list in &e.extents().unwrap() {
            for &(id, _) in list {
                e.delete(id).unwrap();
            }
        }
        for i in 0..800u64 {
            e.insert(ObjectId(10_000 + i), 8).unwrap();
        }
        let doomed: Vec<ObjectId> = (0..800u64)
            .map(|i| ObjectId(10_000 + i))
            .filter(|&id| e.shard_of(id) != 0)
            .collect();
        for id in doomed {
            e.delete(id).unwrap();
        }
        e.rebalance_online(RebalanceOptions::default().batched(4))
            .unwrap();
        e.resize_shards(5, |_| Box::new(Bump::default())).unwrap();
        assert!(!e.rebalance_active());
        assert!(e.take_rebalance_report().is_some());
        e.rebalance_online(RebalanceOptions::default().batched(4))
            .unwrap();
        let finals = e.shutdown().unwrap();
        assert_eq!(finals.len(), 5);
    }

    /// A substrate-backed engine over the real §2 reallocator (the
    /// substrate replays physical ops, so the toy `Bump` — which reports
    /// no ops — cannot back one).
    fn substrate_engine(shards: usize, substrate: crate::SubstrateConfig) -> Engine {
        Engine::new(
            EngineConfig::with_shards(shards).with_substrate(substrate),
            |_| Box::new(realloc_core::CostObliviousReallocator::new(0.25)),
        )
    }

    #[test]
    fn substrate_backed_engine_serves_verifies_and_counts_bytes() {
        let mut e = substrate_engine(3, crate::SubstrateConfig::default());
        assert!(e.substrate_enabled());
        for i in 0..200u64 {
            e.insert(ObjectId(i), 1 + i % 16).unwrap();
        }
        for i in 0..100u64 {
            e.delete(ObjectId(i)).unwrap();
        }
        let stats = e.quiesce().unwrap();
        assert_eq!(stats.errors(), 0);
        // Every allocation physically wrote its cells (flush copies add
        // more on top).
        let inserted: u64 = (0..200).map(|i| 1 + i % 16).sum();
        assert!(
            stats.bytes_written() >= inserted,
            "{} cells written < {} inserted",
            stats.bytes_written(),
            inserted
        );
        // The quiesce cadence ran one scan per shard at the barrier.
        assert!(stats.substrate_verifications() >= 3);

        let reports = e.verify_substrate().unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.error.is_none());
            // Disjoint windows, in shard order.
            assert_eq!(r.window.base, r.shard as u64 * r.window.span);
        }
        assert_eq!(
            reports.iter().map(|r| r.bytes).sum::<u64>(),
            stats.live_volume()
        );

        // The dump exposes each live object's pattern bytes.
        let contents = e.substrate_contents().unwrap();
        let mut seen = 0;
        for list in &contents {
            for (id, bytes) in list {
                assert_eq!(
                    bytes,
                    &storage_sim::pattern_for(*id, bytes.len() as u64),
                    "{id} holds foreign bytes"
                );
                seen += 1;
            }
        }
        assert_eq!(seen, stats.live_count());
        e.shutdown().unwrap();
    }

    #[test]
    fn substrate_rebalance_ships_real_bytes_across_windows() {
        let mut e = substrate_engine(4, crate::SubstrateConfig::default());
        skew_toward_shard_zero(&mut e, 400);
        let report = e.rebalance(RebalanceOptions::default()).unwrap();
        assert!(report.migrated_objects > 0);
        let stats = e.quiesce().unwrap();
        // Physical bytes copied across address spaces == ledgered migrate
        // volume, on both ends of the transfer.
        assert_eq!(stats.bytes_migrated_out(), report.migrated_volume);
        assert_eq!(stats.bytes_migrated_in(), report.migrated_volume);
        // Migrated objects' bytes survived the hop (quiesce verification
        // already checksummed them; the dump double-checks the pattern).
        for list in &e.substrate_contents().unwrap() {
            for (id, bytes) in list {
                assert_eq!(bytes, &storage_sim::pattern_for(*id, bytes.len() as u64));
            }
        }
        e.shutdown().unwrap();
    }

    #[test]
    fn corrupted_transfer_fails_ack_and_aborts_with_routing_consistent() {
        let mut e = substrate_engine(2, crate::SubstrateConfig::default());
        skew_toward_shard_zero(&mut e, 80);
        let before = e.quiesce().unwrap();

        e.inject_transfer_corruption();
        let err = e.rebalance(RebalanceOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Request {
                    error: ReallocError::CorruptTransfer(_),
                    ..
                }
            ),
            "expected a refused transfer, got {err:?}"
        );

        // Exactly the damaged object is lost; every survivor routes to the
        // shard that physically owns it, and its bytes still verify.
        assert_eq!(routed_to_owners(&mut e), before.live_count() - 1);
        for r in e.verify_substrate().unwrap() {
            assert!(r.error.is_none(), "substrate damaged: {:?}", r.error);
        }
        // The sticky request error keeps surfacing, like any rejection.
        assert!(matches!(
            e.quiesce().unwrap_err(),
            EngineError::Request {
                error: ReallocError::CorruptTransfer(_),
                ..
            }
        ));
    }

    #[test]
    fn substrate_defrag_pass_performs_the_schedule_on_real_bytes() {
        let mut e = substrate_engine(2, crate::SubstrateConfig::default());
        skew_toward_shard_zero(&mut e, 80);
        let report = e.rebalance(RebalanceOptions::with_defrag(0.5)).unwrap();
        assert_eq!(report.defrag.len(), 2);
        for d in &report.defrag {
            assert!(d.error.is_none());
            assert_eq!(
                d.substrate_ok,
                Some(true),
                "shard {}: schedule replay failed",
                d.shard
            );
        }
        e.shutdown().unwrap();
    }

    #[test]
    fn rebalance_defrag_pass_reports_space_bounds() {
        let mut e = bump_engine(2);
        skew_toward_shard_zero(&mut e, 80);
        let report = e.rebalance(RebalanceOptions::with_defrag(0.5)).unwrap();
        assert_eq!(report.defrag.len(), 2);
        for d in &report.defrag {
            assert!(d.error.is_none(), "shard {}: {:?}", d.shard, d.error);
            assert!(d.within_budget, "shard {} blew (1+ε)V + ∆", d.shard);
        }
        assert!(report.after.defrag_moves() > 0);
    }
}

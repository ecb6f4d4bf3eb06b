//! The engine's observability surface: device profiles, per-shard
//! telemetry, and the [`MetricsSnapshot`] scrape.
//!
//! # The determinism contract
//!
//! The engine guarantees that two runs of the same workload over the same
//! shard count produce identical [`EngineStats`] — the equivalence suites
//! compare them with `==`. Telemetry adds two kinds of quantity, and the
//! contract splits exactly between them:
//!
//! * **Deterministic**: request/byte counters and *simulated* device time.
//!   Sim time is a pure function of each shard's op stream (the
//!   [`DeviceModel`] prices ops in a fixed per-shard order), so its three
//!   lanes on [`ShardMetrics`] join the equality surface. They live there
//!   only: [`EngineStats`] is the same whether telemetry or pricing is on
//!   or off.
//! * **Wall-clock observations**: batch service latency, commit latency,
//!   intake stalls, and event timestamps. These differ between identical
//!   runs by scheduler noise, so they are *excluded* from every `==`:
//!   [`ShardMetrics`] and [`MetricsSnapshot`] implement [`PartialEq`] by
//!   hand over the deterministic projection only.
//!
//! Scrape with [`Engine::metrics`](crate::Engine::metrics) (cumulative) or
//! [`Engine::metrics_delta`](crate::Engine::metrics_delta)
//! (since-last-scrape); export with [`MetricsSnapshot::to_json`].

use realloc_telemetry::{Histogram, HistogramSnapshot, Json, TraceEvent};
use storage_sim::DeviceModel;

use crate::stats::{EngineStats, ShardStats};

/// A named, parameterless device model the engine can price op streams
/// against. Parameterless on purpose: [`EngineConfig`](crate::EngineConfig)
/// derives `Copy + Eq`, so profiles are canonical presets rather than
/// free-floating floats (time unit: microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceProfile {
    /// Counts operations: every allocate/move costs 1 µs, commits sync in
    /// 1 µs. The profile to use when "how many" matters more than "how
    /// long".
    Unit,
    /// Seek-dominated rotating disk: 4 ms seek + 50 ns/cell transfer,
    /// 5 ms sync latency.
    Disk,
    /// Erase-block flash: 64-cell blocks at 300 µs/erase + 1 µs/cell
    /// program, 50 µs sync latency.
    Ssd,
}

impl DeviceProfile {
    /// Every built-in profile.
    pub const ALL: [DeviceProfile; 3] =
        [DeviceProfile::Unit, DeviceProfile::Disk, DeviceProfile::Ssd];

    /// Stable lowercase name (CLI flag value and JSON field).
    pub fn name(self) -> &'static str {
        match self {
            DeviceProfile::Unit => "unit",
            DeviceProfile::Disk => "disk",
            DeviceProfile::Ssd => "ssd",
        }
    }

    /// Parses a [`name`](Self::name) back into a profile.
    pub fn parse(text: &str) -> Option<DeviceProfile> {
        DeviceProfile::ALL.into_iter().find(|p| p.name() == text)
    }

    /// Builds the priced model. Called inside each worker thread —
    /// [`DeviceModel`] boxes a cost function and is neither `Clone` nor
    /// `Send`, so the profile (which is both) is what crosses the spawn.
    pub fn build(self) -> DeviceModel {
        match self {
            DeviceProfile::Unit => DeviceModel::new(Box::new(cost_model::Unit), 1.0),
            DeviceProfile::Disk => {
                DeviceModel::new(Box::new(cost_model::Affine::disk(4000.0, 0.05)), 5000.0)
            }
            DeviceProfile::Ssd => {
                DeviceModel::new(Box::new(cost_model::SsdErase::new(64, 300.0, 1.0)), 50.0)
            }
        }
    }
}

/// Which accumulator an op stream's simulated time lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimLane {
    /// Ordinary request serving (inserts, deletes, quiesce drains).
    Serve,
    /// Cross-shard migration work (departures, arrivals, their drains).
    Migrate,
}

/// The worker-side telemetry state: histograms the shard records into and
/// the optional device model that prices its op stream. Owned by the
/// worker thread, snapshotted at barriers.
pub(crate) struct ShardTelemetry {
    pub device: Option<DeviceModel>,
    /// Wall nanoseconds per `Command::Batch` (serve + verify + commit).
    pub batch_service_ns: Histogram,
    /// Simulated microseconds of op time per `Command::Batch` (empty
    /// without a device profile).
    pub batch_sim_us: Histogram,
    /// Wall nanoseconds per non-empty WAL group commit.
    pub commit_latency_ns: Histogram,
    /// Records per non-empty WAL group commit (the coalescing factor).
    pub commit_records: Histogram,
    /// Raw requests per `Command::Batch`, before batch planning.
    pub batch_raw_requests: Histogram,
    /// Requests actually applied per `Command::Batch` after the planner
    /// folded the batch (equal to the raw count with coalescing off).
    pub batch_planned_requests: Histogram,
    pub serve_sim_us: f64,
    pub migrate_sim_us: f64,
    pub wal_commit_sim_us: f64,
    /// Sim time accrued by serve-lane ops since the current batch began.
    pub batch_sim_accum: f64,
}

impl ShardTelemetry {
    pub(crate) fn new(device: Option<DeviceProfile>) -> ShardTelemetry {
        ShardTelemetry {
            device: device.map(DeviceProfile::build),
            batch_service_ns: Histogram::new(),
            batch_sim_us: Histogram::new(),
            commit_latency_ns: Histogram::new(),
            commit_records: Histogram::new(),
            batch_raw_requests: Histogram::new(),
            batch_planned_requests: Histogram::new(),
            serve_sim_us: 0.0,
            migrate_sim_us: 0.0,
            wal_commit_sim_us: 0.0,
            batch_sim_accum: 0.0,
        }
    }

    /// Prices `ops` into `lane` (no-op without a device model).
    pub(crate) fn price_ops(&mut self, ops: &[realloc_common::StorageOp], lane: SimLane) {
        let Some(device) = self.device.as_ref() else {
            return;
        };
        let us = device.time_of_stream(ops);
        match lane {
            SimLane::Serve => {
                self.serve_sim_us += us;
                self.batch_sim_accum += us;
            }
            SimLane::Migrate => self.migrate_sim_us += us,
        }
    }

    pub(crate) fn snapshot(&self, shard: usize) -> ShardMetrics {
        ShardMetrics {
            shard,
            serve_sim_us: self.serve_sim_us,
            migrate_sim_us: self.migrate_sim_us,
            wal_commit_sim_us: self.wal_commit_sim_us,
            batch_sim_us: self.batch_sim_us.snapshot(),
            commit_records: self.commit_records.snapshot(),
            batch_raw_requests: self.batch_raw_requests.snapshot(),
            batch_planned_requests: self.batch_planned_requests.snapshot(),
            batch_service_ns: self.batch_service_ns.snapshot(),
            commit_latency_ns: self.commit_latency_ns.snapshot(),
            intake_stall_ns: HistogramSnapshot::empty(),
        }
    }
}

/// One shard's telemetry at a scrape.
///
/// Equality covers the deterministic projection only — see the
/// [module docs](crate::metrics) for the contract. The wall-clock fields
/// ([`batch_service_ns`](Self::batch_service_ns),
/// [`commit_latency_ns`](Self::commit_latency_ns),
/// [`intake_stall_ns`](Self::intake_stall_ns)) never participate in `==`.
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Simulated µs of device time serving requests (allocates, moves, and
    /// checkpoint barriers from inserts/deletes/quiesce drains). 0 without
    /// a [`DeviceProfile`].
    pub serve_sim_us: f64,
    /// Simulated µs of device time on cross-shard migration work
    /// (departures, arrivals, and their drains). 0 without a profile.
    pub migrate_sim_us: f64,
    /// Simulated µs of device time syncing WAL group commits
    /// ([`DeviceModel::time_of_commit`] over each frame's bytes). 0
    /// without a profile or without a WAL.
    pub wal_commit_sim_us: f64,
    /// Per-batch simulated service time, in µs (deterministic; empty
    /// without a profile).
    pub batch_sim_us: HistogramSnapshot,
    /// Records per non-empty WAL group commit (deterministic; the
    /// group-commit coalescing factor is its mean).
    pub commit_records: HistogramSnapshot,
    /// Raw requests per served batch, before planning (deterministic).
    pub batch_raw_requests: HistogramSnapshot,
    /// Requests applied per served batch after the coalescing planner
    /// folded it (deterministic; the planned-vs-raw gap is the batch
    /// pipeline's win — equal to [`batch_raw_requests`] with coalescing
    /// off).
    ///
    /// [`batch_raw_requests`]: Self::batch_raw_requests
    pub batch_planned_requests: HistogramSnapshot,
    /// Wall-clock nanoseconds per served batch (observation).
    pub batch_service_ns: HistogramSnapshot,
    /// Wall-clock nanoseconds per non-empty WAL group commit
    /// (observation).
    pub commit_latency_ns: HistogramSnapshot,
    /// Wall-clock nanoseconds the engine spent blocked pushing a batch
    /// into this shard's full channel — one observation per send that
    /// found the queue full (observation; recorded engine-side).
    pub intake_stall_ns: HistogramSnapshot,
}

impl PartialEq for ShardMetrics {
    /// Deterministic projection only: wall-clock histograms are
    /// observations and differ between identical runs by scheduler noise.
    fn eq(&self, other: &Self) -> bool {
        self.shard == other.shard
            && self.serve_sim_us == other.serve_sim_us
            && self.migrate_sim_us == other.migrate_sim_us
            && self.wal_commit_sim_us == other.wal_commit_sim_us
            && self.batch_sim_us == other.batch_sim_us
            && self.commit_records == other.commit_records
            && self.batch_raw_requests == other.batch_raw_requests
            && self.batch_planned_requests == other.batch_planned_requests
    }
}

impl ShardMetrics {
    /// An all-zero scrape for a shard running with telemetry disabled
    /// ([`EngineConfig::without_telemetry`](crate::EngineConfig)).
    pub fn empty(shard: usize) -> ShardMetrics {
        ShardMetrics {
            shard,
            serve_sim_us: 0.0,
            migrate_sim_us: 0.0,
            wal_commit_sim_us: 0.0,
            batch_sim_us: HistogramSnapshot::empty(),
            commit_records: HistogramSnapshot::empty(),
            batch_raw_requests: HistogramSnapshot::empty(),
            batch_planned_requests: HistogramSnapshot::empty(),
            batch_service_ns: HistogramSnapshot::empty(),
            commit_latency_ns: HistogramSnapshot::empty(),
            intake_stall_ns: HistogramSnapshot::empty(),
        }
    }

    /// Total simulated device time, µs.
    pub fn sim_time_us(&self) -> f64 {
        self.serve_sim_us + self.migrate_sim_us + self.wal_commit_sim_us
    }

    /// This scrape minus `prev` (histograms and sim-time accumulators
    /// subtract; see [`HistogramSnapshot::delta_since`] for the min/max
    /// caveat).
    pub fn delta_since(&self, prev: &ShardMetrics) -> ShardMetrics {
        ShardMetrics {
            shard: self.shard,
            serve_sim_us: (self.serve_sim_us - prev.serve_sim_us).max(0.0),
            migrate_sim_us: (self.migrate_sim_us - prev.migrate_sim_us).max(0.0),
            wal_commit_sim_us: (self.wal_commit_sim_us - prev.wal_commit_sim_us).max(0.0),
            batch_sim_us: self.batch_sim_us.delta_since(&prev.batch_sim_us),
            commit_records: self.commit_records.delta_since(&prev.commit_records),
            batch_raw_requests: self
                .batch_raw_requests
                .delta_since(&prev.batch_raw_requests),
            batch_planned_requests: self
                .batch_planned_requests
                .delta_since(&prev.batch_planned_requests),
            batch_service_ns: self.batch_service_ns.delta_since(&prev.batch_service_ns),
            commit_latency_ns: self.commit_latency_ns.delta_since(&prev.commit_latency_ns),
            intake_stall_ns: self.intake_stall_ns.delta_since(&prev.intake_stall_ns),
        }
    }
}

/// Fleet work-stealing observations: how many queued batches idle
/// workers executed on behalf of a backlogged home worker, how many
/// steal attempts lost the race (both conflict edges — core lock held,
/// or an earlier batch of the same core still in flight), and how long
/// stolen batches had waited in their queue before a thief picked them
/// up.
///
/// All three are scheduling-dependent (a steal only happens when a
/// worker *happens* to be idle), so like the wall-clock histograms they
/// are excluded from [`MetricsSnapshot`]'s deterministic `==`. A sync
/// [`Engine`](crate::Engine) — which has no thieves — always reports
/// zeros here.
#[derive(Debug, Clone, Default)]
pub struct StealStats {
    /// Queued batches executed by a non-home worker.
    pub batches_stolen: u64,
    /// Steal attempts that hit either conflict edge. With the
    /// peek-before-take protocol the batch never leaves its owner's
    /// queue on a conflict — the thief walks away and the home worker
    /// runs it in order.
    pub steal_conflicts: u64,
    /// Nanoseconds a stolen batch spent queued before the thief applied
    /// it (observation; one entry per successful steal).
    pub steal_wait_ns: HistogramSnapshot,
}

impl StealStats {
    /// This scrape minus `prev` (counters and the histogram subtract).
    pub fn delta_since(&self, prev: &StealStats) -> StealStats {
        StealStats {
            batches_stolen: self.batches_stolen.saturating_sub(prev.batches_stolen),
            steal_conflicts: self.steal_conflicts.saturating_sub(prev.steal_conflicts),
            steal_wait_ns: self.steal_wait_ns.delta_since(&prev.steal_wait_ns),
        }
    }

    /// Folds another tenant's observations into this one — what a fleet
    /// roll-up does to check that per-tenant scrapes sum to the totals.
    pub fn absorb(&mut self, other: &StealStats) {
        self.batches_stolen += other.batches_stolen;
        self.steal_conflicts += other.steal_conflicts;
        self.steal_wait_ns.merge(&other.steal_wait_ns);
    }
}

/// Everything [`Engine::metrics`](crate::Engine::metrics) scrapes:
/// aggregate stats, per-shard telemetry, the engine-side intake-stall
/// observations, and the recent event journal.
///
/// Equality covers the deterministic projection only (stats, counters,
/// sim time, deterministic histograms); wall-clock observations, the
/// steal counters, and the event journal (whose timestamps are
/// wall-clock) are excluded.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// 1-based scrape ordinal (how many times `metrics()` has run).
    pub scrape: u64,
    /// The device profile pricing sim time, if any.
    pub device: Option<DeviceProfile>,
    /// The same aggregate stats a [`snapshot`](crate::Engine::snapshot)
    /// barrier returns (deterministic).
    pub stats: EngineStats,
    /// Per-shard telemetry, in shard order.
    pub per_shard: Vec<ShardMetrics>,
    /// The retained tail of the engine's structural event journal
    /// (rebalance batches, recovery stages). Timestamps are wall-clock.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the bounded journal before this scrape.
    pub events_dropped: u64,
    /// Work-stealing observations (always zero for a sync
    /// [`Engine`](crate::Engine); populated by the async facade's
    /// per-tenant scrape). Excluded from `==` — steals are
    /// scheduling-dependent.
    pub steal: StealStats,
}

impl PartialEq for MetricsSnapshot {
    /// Deterministic projection only: events carry wall-clock timestamps
    /// and are excluded along with the wall-clock histograms (via
    /// [`ShardMetrics`]'s own equality).
    fn eq(&self, other: &Self) -> bool {
        self.scrape == other.scrape
            && self.device == other.device
            && self.stats == other.stats
            && self.per_shard == other.per_shard
    }
}

impl MetricsSnapshot {
    /// Total simulated device time across shards, µs.
    pub fn sim_time_us(&self) -> f64 {
        self.per_shard.iter().map(ShardMetrics::sim_time_us).sum()
    }

    /// All shards' intake-stall observations merged.
    pub fn intake_stall_ns(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for shard in &self.per_shard {
            merged.merge(&shard.intake_stall_ns);
        }
        merged
    }

    /// This scrape minus `prev`: counters, histograms, and sim time
    /// subtract; gauges (live volume, footprint, ratios) keep their
    /// current values; events keep this scrape's tail. Shards `prev` did
    /// not have (a grow-resize between scrapes) keep their full values.
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            scrape: self.scrape,
            device: self.device,
            stats: EngineStats {
                per_shard: self
                    .stats
                    .per_shard
                    .iter()
                    .map(
                        |s| match prev.stats.per_shard.iter().find(|p| p.shard == s.shard) {
                            Some(p) => s.delta_since(p),
                            None => s.clone(),
                        },
                    )
                    .collect(),
            },
            per_shard: self
                .per_shard
                .iter()
                .map(
                    |m| match prev.per_shard.iter().find(|p| p.shard == m.shard) {
                        Some(p) => m.delta_since(p),
                        None => m.clone(),
                    },
                )
                .collect(),
            events: self.events.clone(),
            events_dropped: self.events_dropped,
            steal: self.steal.delta_since(&prev.steal),
        }
    }

    /// The machine export behind `realloc-sim engine --metrics-json`.
    ///
    /// Schema (`"schema": 3`): `counters` are fleet-wide sums,
    /// `gauges` current values, `sim_time_us` the device-priced totals,
    /// `per_shard` one object per shard with its histograms (each with
    /// `count`/`sum`/`min`/`max`, `p50`–`p999`, and raw log₂ `buckets`
    /// trimmed of trailing zeros), `steal` the work-stealing block
    /// (`batches_stolen` / `steal_conflicts` counters and the
    /// `steal_wait_ns` histogram), `events` the journal tail.
    ///
    /// Schema history: 3 added the work-stealing surface (the `steal`
    /// block); 2 added the batch-pipeline surface — the
    /// `batch_requests_coalesced` / `batch_requests_cancelled` counters and
    /// the per-shard `batch_raw_requests` / `batch_planned_requests`
    /// histograms; 1 was the original export.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.set("schema", 3u64);
        root.set(
            "device",
            match self.device {
                Some(p) => Json::from(p.name()),
                None => Json::Null,
            },
        );
        root.set("scrape", self.scrape);
        root.set("shards", self.stats.shards());

        let mut counters = Json::obj();
        counters.set("requests", self.stats.requests());
        counters.set("batches", self.stats.batches());
        counters.set("batch_requests_coalesced", self.stats.requests_coalesced());
        counters.set("batch_requests_cancelled", self.stats.requests_cancelled());
        counters.set("errors", self.stats.errors());
        counters.set("total_moves", self.stats.total_moves());
        counters.set("total_moved_volume", self.stats.total_moved_volume());
        counters.set("migrations_in", self.stats.migrations());
        counters.set("migrations_out", self.stats.migrations_out());
        counters.set("defrag_moves", self.stats.defrag_moves());
        counters.set("substrate_bytes_written", self.stats.bytes_written());
        counters.set("wal_records", self.stats.wal_records());
        counters.set("wal_bytes", self.stats.wal_bytes());
        counters.set("group_commits", self.stats.group_commits());
        counters.set("recoveries", self.stats.recoveries());
        counters.set("events_dropped", self.events_dropped);
        root.set("counters", counters);

        let mut gauges = Json::obj();
        gauges.set("live_count", self.stats.live_count());
        gauges.set("live_volume", self.stats.live_volume());
        gauges.set("footprint", self.stats.footprint());
        gauges.set("structure_size", self.stats.structure_size());
        gauges.set("max_object_size", self.stats.max_object_size());
        gauges.set("imbalance_ratio", self.stats.imbalance_ratio());
        gauges.set("settled_ratio", self.stats.settled_ratio());
        root.set("gauges", gauges);

        let mut sim = Json::obj();
        sim.set(
            "serve",
            self.per_shard.iter().map(|s| s.serve_sim_us).sum::<f64>(),
        );
        sim.set(
            "migrate",
            self.per_shard.iter().map(|s| s.migrate_sim_us).sum::<f64>(),
        );
        sim.set(
            "wal_commit",
            self.per_shard
                .iter()
                .map(|s| s.wal_commit_sim_us)
                .sum::<f64>(),
        );
        sim.set("total", self.sim_time_us());
        root.set("sim_time_us", sim);

        let mut steal = Json::obj();
        steal.set("batches_stolen", self.steal.batches_stolen);
        steal.set("steal_conflicts", self.steal.steal_conflicts);
        steal.set("steal_wait_ns", histogram_json(&self.steal.steal_wait_ns));
        root.set("steal", steal);

        let shards = self
            .per_shard
            .iter()
            .zip(&self.stats.per_shard)
            .map(|(m, s)| {
                let mut shard = Json::obj();
                shard.set("shard", m.shard);
                shard.set("algorithm", s.algorithm);
                shard.set("requests", s.requests);
                shard.set("live_volume", s.live_volume);
                shard.set("serve_sim_us", m.serve_sim_us);
                shard.set("migrate_sim_us", m.migrate_sim_us);
                shard.set("wal_commit_sim_us", m.wal_commit_sim_us);
                shard.set("batch_sim_us", histogram_json(&m.batch_sim_us));
                shard.set("commit_records", histogram_json(&m.commit_records));
                shard.set("batch_raw_requests", histogram_json(&m.batch_raw_requests));
                shard.set(
                    "batch_planned_requests",
                    histogram_json(&m.batch_planned_requests),
                );
                shard.set("batch_service_ns", histogram_json(&m.batch_service_ns));
                shard.set("commit_latency_ns", histogram_json(&m.commit_latency_ns));
                shard.set("intake_stall_ns", histogram_json(&m.intake_stall_ns));
                shard
            })
            .collect::<Vec<_>>();
        root.set("per_shard", shards);

        let events = self
            .events
            .iter()
            .map(|e| {
                let mut event = Json::obj();
                event.set("seq", e.seq);
                event.set("at_us", e.at_us);
                event.set(
                    "shard",
                    match e.shard {
                        Some(s) => Json::from(s),
                        None => Json::Null,
                    },
                );
                event.set("label", e.label);
                event.set("phase", e.phase.name());
                event.set("payload", e.payload);
                event
            })
            .collect::<Vec<_>>();
        root.set("events", events);
        root
    }
}

/// Serializes one histogram snapshot, trimming trailing zero buckets.
fn histogram_json(h: &HistogramSnapshot) -> Json {
    let mut out = Json::obj();
    out.set("count", h.count);
    out.set("sum", h.sum);
    out.set("min", h.min);
    out.set("max", h.max);
    out.set("p50", h.p50());
    out.set("p90", h.p90());
    out.set("p99", h.p99());
    out.set("p999", h.p999());
    let keep = h.buckets.iter().rposition(|&n| n != 0).map_or(0, |i| i + 1);
    out.set(
        "buckets",
        h.buckets[..keep]
            .iter()
            .map(|&n| Json::from(n))
            .collect::<Vec<_>>(),
    );
    out
}

impl ShardStats {
    /// This snapshot minus `prev` (same shard, earlier scrape): monotonic
    /// counters subtract; gauges — live count/volume, footprint, structure
    /// size, `∆`, recoveries, and the settled-ratio high-water mark — keep
    /// their current values, because "change since last scrape" is not a
    /// meaningful reading of a level.
    pub fn delta_since(&self, prev: &ShardStats) -> ShardStats {
        ShardStats {
            shard: self.shard,
            algorithm: self.algorithm,
            requests: self.requests.saturating_sub(prev.requests),
            batches: self.batches.saturating_sub(prev.batches),
            requests_coalesced: self
                .requests_coalesced
                .saturating_sub(prev.requests_coalesced),
            requests_cancelled: self
                .requests_cancelled
                .saturating_sub(prev.requests_cancelled),
            errors: self.errors.saturating_sub(prev.errors),
            live_count: self.live_count,
            live_volume: self.live_volume,
            footprint: self.footprint,
            structure_size: self.structure_size,
            max_object_size: self.max_object_size,
            total_moves: self.total_moves.saturating_sub(prev.total_moves),
            total_moved_volume: self
                .total_moved_volume
                .saturating_sub(prev.total_moved_volume),
            migrations_in: self.migrations_in.saturating_sub(prev.migrations_in),
            migrations_out: self.migrations_out.saturating_sub(prev.migrations_out),
            migrated_volume_in: self
                .migrated_volume_in
                .saturating_sub(prev.migrated_volume_in),
            migrated_volume_out: self
                .migrated_volume_out
                .saturating_sub(prev.migrated_volume_out),
            defrag_runs: self.defrag_runs.saturating_sub(prev.defrag_runs),
            defrag_moves: self.defrag_moves.saturating_sub(prev.defrag_moves),
            substrate_bytes_written: self
                .substrate_bytes_written
                .saturating_sub(prev.substrate_bytes_written),
            substrate_bytes_in: self
                .substrate_bytes_in
                .saturating_sub(prev.substrate_bytes_in),
            substrate_bytes_out: self
                .substrate_bytes_out
                .saturating_sub(prev.substrate_bytes_out),
            substrate_verifications: self
                .substrate_verifications
                .saturating_sub(prev.substrate_verifications),
            wal_records: self.wal_records.saturating_sub(prev.wal_records),
            wal_bytes: self.wal_bytes.saturating_sub(prev.wal_bytes),
            group_commits: self.group_commits.saturating_sub(prev.group_commits),
            recoveries: self.recoveries,
            max_settled_ratio: self.max_settled_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_roundtrip_names_and_build() {
        for profile in DeviceProfile::ALL {
            assert_eq!(DeviceProfile::parse(profile.name()), Some(profile));
            // Every profile prices a 1-cell allocate at a positive time.
            let model = profile.build();
            let op = realloc_common::StorageOp::Allocate {
                id: realloc_common::ObjectId(1),
                to: realloc_common::Extent::new(0, 1),
            };
            assert!(model.time_of(&op) > 0.0, "{}", profile.name());
            assert!(model.time_of_commit(64) > 0.0, "{}", profile.name());
        }
        assert_eq!(DeviceProfile::parse("floppy"), None);
    }

    #[test]
    fn wall_clock_fields_do_not_affect_equality() {
        let telemetry = ShardTelemetry::new(Some(DeviceProfile::Unit));
        let mut a = telemetry.snapshot(0);
        let mut b = a.clone();
        // Perturb only wall-clock observations: still equal.
        b.batch_service_ns.count = 99;
        b.commit_latency_ns.max = 123;
        b.intake_stall_ns.sum = 7;
        assert_eq!(a, b);
        // Perturb a deterministic quantity: no longer equal.
        a.serve_sim_us = 1.0;
        assert_ne!(a, b);
    }

    #[test]
    fn sim_time_sums_across_shards_and_lanes() {
        let lanes = |shard, serve_sim_us, migrate_sim_us, wal_commit_sim_us| ShardMetrics {
            serve_sim_us,
            migrate_sim_us,
            wal_commit_sim_us,
            ..ShardMetrics::empty(shard)
        };
        let snapshot = MetricsSnapshot {
            scrape: 1,
            device: Some(DeviceProfile::Unit),
            stats: EngineStats { per_shard: vec![] },
            per_shard: vec![lanes(0, 10.0, 2.0, 1.0), lanes(1, 5.0, 0.0, 0.5)],
            events: Vec::new(),
            events_dropped: 0,
            steal: StealStats::default(),
        };
        assert_eq!(snapshot.per_shard[0].sim_time_us(), 13.0);
        assert_eq!(snapshot.sim_time_us(), 18.5);
        let json = snapshot.to_json();
        let sim = json.get("sim_time_us").unwrap();
        let lane = |name| sim.get(name).and_then(Json::as_f64).unwrap();
        assert_eq!(lane("serve"), 15.0);
        assert_eq!(lane("migrate"), 2.0);
        assert_eq!(lane("wal_commit"), 1.5);
        assert_eq!(lane("total"), 18.5);
    }
}

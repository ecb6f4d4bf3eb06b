//! Per-shard and aggregate serving statistics.

/// Telemetry for one shard, captured at a barrier
/// ([`Engine::quiesce`](crate::Engine::quiesce) /
/// [`Engine::snapshot`](crate::Engine::snapshot)).
///
/// Everything here is a pure function of the shard's request stream, so two
/// runs over the same workload with the same shard count produce identical
/// values — the engine's determinism tests compare whole [`EngineStats`]
/// with `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// `Reallocator::name()` of the algorithm this shard runs.
    pub algorithm: &'static str,
    /// Requests served (including failed ones).
    pub requests: u64,
    /// Batches received over the channel.
    pub batches: u64,
    /// Requests the batch planner merged within surviving chains (a
    /// delete + reinsert collapsed into one resize, or elided entirely at
    /// an unchanged size). Zero unless the engine runs
    /// [`coalescing`](crate::EngineConfig::coalescing).
    pub requests_coalesced: u64,
    /// Requests the batch planner cancelled outright: insert + delete
    /// chains of an object that never existed outside its batch, which
    /// therefore never touched the reallocator, substrate, or WAL.
    pub requests_cancelled: u64,
    /// Requests rejected by the reallocator (duplicate/unknown id, zero
    /// size). The first one is surfaced as an [`crate::EngineError`].
    pub errors: u64,
    /// Number of active objects.
    pub live_count: usize,
    /// Total volume `V_i` of active objects.
    pub live_volume: u64,
    /// One past the largest address currently storing an object.
    pub footprint: u64,
    /// End of the shard structure's last segment (`≥ footprint`).
    pub structure_size: u64,
    /// `∆_i`: largest object this shard has seen.
    pub max_object_size: u64,
    /// Reallocations performed (including quiesce-time drains and the
    /// cross-shard transfers this shard received — a migration *is* a
    /// reallocation of the object).
    pub total_moves: u64,
    /// Volume moved by those reallocations, in cells.
    pub total_moved_volume: u64,
    /// Objects this shard received from rebalance/resize migrations.
    pub migrations_in: u64,
    /// Objects this shard handed off to rebalance/resize migrations.
    pub migrations_out: u64,
    /// Volume received via migrations, in cells.
    pub migrated_volume_in: u64,
    /// Volume handed off via migrations, in cells.
    pub migrated_volume_out: u64,
    /// Theorem 2.7 defrag passes run on this shard.
    pub defrag_runs: u64,
    /// Moves across those defrag schedules.
    pub defrag_moves: u64,
    /// Cells physically written into this shard's substrate (allocations,
    /// flush copies, and adopted transfers). Zero without a substrate.
    pub substrate_bytes_written: u64,
    /// Cells that arrived via verified cross-shard transfers.
    pub substrate_bytes_in: u64,
    /// Cells shipped out to other shards' address spaces.
    pub substrate_bytes_out: u64,
    /// Full extent + byte verification scans this shard has run.
    pub substrate_verifications: u64,
    /// WAL records committed by this shard (one per applied physical op,
    /// transfer half, or route flip). Zero without a WAL.
    pub wal_records: u64,
    /// Frame bytes this shard's WAL has written (headers included).
    pub wal_bytes: u64,
    /// Group commits (framed fsyncs) this shard's WAL has performed — the
    /// commit-coalescing counter: `wal_records / group_commits` is the
    /// batch's amortization factor, and
    /// [`DeviceModel::time_of_commit`](storage_sim::DeviceModel::time_of_commit)
    /// prices the schedule.
    pub group_commits: u64,
    /// How many times this worker's state was rebuilt by
    /// [`Engine::recover`](crate::Engine::recover) (0 for a worker that
    /// never crashed).
    pub recoveries: u64,
    /// Max over requests of `structure_after / volume_after` (the ledger's
    /// settled-space competitive ratio for this shard).
    pub max_settled_ratio: f64,
}

/// Aggregated view over all shards, as returned by the engine's barriers.
///
/// Per-shard rows are kept verbatim in [`per_shard`](Self::per_shard); the
/// methods fold them into the global quantities. Volumes, footprints, moves
/// and request counts *add* across shards (disjoint address spaces and
/// disjoint object populations); `∆` and competitive ratios take the *max*
/// (the worst shard bounds the aggregate guarantee).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ShardStats>,
}

impl EngineStats {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.per_shard.len()
    }

    /// Total requests served across shards.
    pub fn requests(&self) -> u64 {
        self.per_shard.iter().map(|s| s.requests).sum()
    }

    /// Total batches delivered across shards.
    pub fn batches(&self) -> u64 {
        self.per_shard.iter().map(|s| s.batches).sum()
    }

    /// Total requests merged by batch planners across shards.
    pub fn requests_coalesced(&self) -> u64 {
        self.per_shard.iter().map(|s| s.requests_coalesced).sum()
    }

    /// Total requests cancelled by batch planners across shards.
    pub fn requests_cancelled(&self) -> u64 {
        self.per_shard.iter().map(|s| s.requests_cancelled).sum()
    }

    /// Total rejected requests across shards.
    pub fn errors(&self) -> u64 {
        self.per_shard.iter().map(|s| s.errors).sum()
    }

    /// Total active objects across shards.
    pub fn live_count(&self) -> usize {
        self.per_shard.iter().map(|s| s.live_count).sum()
    }

    /// Global live volume `Σ V_i`.
    pub fn live_volume(&self) -> u64 {
        self.per_shard.iter().map(|s| s.live_volume).sum()
    }

    /// Global footprint `Σ footprint_i` (shards own disjoint address
    /// spaces, so footprints add).
    pub fn footprint(&self) -> u64 {
        self.per_shard.iter().map(|s| s.footprint).sum()
    }

    /// Global structure size `Σ structure_i`.
    pub fn structure_size(&self) -> u64 {
        self.per_shard.iter().map(|s| s.structure_size).sum()
    }

    /// Global `∆ = max_i ∆_i`.
    pub fn max_object_size(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.max_object_size)
            .max()
            .unwrap_or(0)
    }

    /// Total reallocations across shards.
    pub fn total_moves(&self) -> u64 {
        self.per_shard.iter().map(|s| s.total_moves).sum()
    }

    /// Total moved volume across shards, in cells.
    pub fn total_moved_volume(&self) -> u64 {
        self.per_shard.iter().map(|s| s.total_moved_volume).sum()
    }

    /// Largest per-shard live volume `max_i V_i` — the quantity a skewed
    /// delete pattern inflates and a rebalance pushes back toward the mean.
    pub fn max_shard_volume(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.live_volume)
            .max()
            .unwrap_or(0)
    }

    /// Mean per-shard live volume `Σ V_i / N` (0.0 with no shards).
    pub fn mean_shard_volume(&self) -> f64 {
        if self.per_shard.is_empty() {
            0.0
        } else {
            self.live_volume() as f64 / self.per_shard.len() as f64
        }
    }

    /// The volume imbalance ratio `max_i V_i / mean V_i` — 1.0 is perfectly
    /// balanced; `N` means one shard holds everything. Defined as 1.0 for
    /// an empty engine (no volume is vacuously balanced). This is the
    /// observable [`Engine::rebalance`](crate::Engine::rebalance) drives
    /// down.
    pub fn imbalance_ratio(&self) -> f64 {
        let mean = self.mean_shard_volume();
        if mean == 0.0 {
            1.0
        } else {
            self.max_shard_volume() as f64 / mean
        }
    }

    /// Total objects received via cross-shard migrations. (Every migration
    /// is counted once, on the receiving side; `migrations_out` sums to the
    /// same total across a rebalance.)
    pub fn migrations(&self) -> u64 {
        self.per_shard.iter().map(|s| s.migrations_in).sum()
    }

    /// Total volume received via cross-shard migrations, in cells.
    pub fn migrated_volume(&self) -> u64 {
        self.per_shard.iter().map(|s| s.migrated_volume_in).sum()
    }

    /// Total objects handed off to cross-shard migrations. Equal to
    /// [`migrations`](Self::migrations) once every transfer's inbound half
    /// has landed; during an [online
    /// rebalance](crate::Engine::rebalance_online) the difference between
    /// the two is the in-flight batch (and a broken reallocator rejecting
    /// adoptions leaves it permanently positive — a desync telltale).
    pub fn migrations_out(&self) -> u64 {
        self.per_shard.iter().map(|s| s.migrations_out).sum()
    }

    /// Total volume handed off via cross-shard migrations, in cells.
    pub fn migrated_volume_out(&self) -> u64 {
        self.per_shard.iter().map(|s| s.migrated_volume_out).sum()
    }

    /// Total moves across all shards' Theorem 2.7 defrag schedules.
    pub fn defrag_moves(&self) -> u64 {
        self.per_shard.iter().map(|s| s.defrag_moves).sum()
    }

    /// Total cells physically written across all shard substrates
    /// (allocations + flush copies + adopted transfers). Zero when the
    /// engine runs without substrates.
    pub fn bytes_written(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.substrate_bytes_written)
            .sum()
    }

    /// Total cells that crossed shard address spaces, counted on arrival
    /// (each verified against its shipped checksum). Equals the ledger's
    /// migrate-in volume when every transfer landed.
    pub fn bytes_migrated_in(&self) -> u64 {
        self.per_shard.iter().map(|s| s.substrate_bytes_in).sum()
    }

    /// Total cells read out of shard substrates for cross-shard transfers.
    /// Equals the ledger's migrate-out volume: every released object's
    /// bytes were physically copied out of its source address space.
    pub fn bytes_migrated_out(&self) -> u64 {
        self.per_shard.iter().map(|s| s.substrate_bytes_out).sum()
    }

    /// Total full verification scans run across shards.
    pub fn substrate_verifications(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.substrate_verifications)
            .sum()
    }

    /// Total WAL records committed across shards. Zero without a WAL.
    pub fn wal_records(&self) -> u64 {
        self.per_shard.iter().map(|s| s.wal_records).sum()
    }

    /// Total WAL frame bytes written across shards.
    pub fn wal_bytes(&self) -> u64 {
        self.per_shard.iter().map(|s| s.wal_bytes).sum()
    }

    /// Total group commits (framed fsyncs) across shards. With group
    /// commit, many records share one frame:
    /// `wal_records() / group_commits()` is the fleet's amortization
    /// factor.
    pub fn group_commits(&self) -> u64 {
        self.per_shard.iter().map(|s| s.group_commits).sum()
    }

    /// How many times the fleet has been recovered (max over shards: every
    /// shard of a recovered fleet carries the same count).
    pub fn recoveries(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.recoveries)
            .max()
            .unwrap_or(0)
    }

    /// The worst per-shard settled-space ratio — the aggregate's effective
    /// footprint competitive ratio, since `Σ structure_i ≤ (max_i a_i)·Σ V_i`.
    pub fn worst_settled_ratio(&self) -> f64 {
        self.per_shard
            .iter()
            .map(|s| s.max_settled_ratio)
            .fold(0.0, f64::max)
    }

    /// Global settled ratio right now: `Σ structure_i / Σ V_i` (1.0 when
    /// empty).
    pub fn settled_ratio(&self) -> f64 {
        let v = self.live_volume();
        if v == 0 {
            1.0
        } else {
            self.structure_size() as f64 / v as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(i: usize, volume: u64, structure: u64, delta: u64) -> ShardStats {
        ShardStats {
            shard: i,
            algorithm: "test",
            requests: 10,
            batches: 2,
            live_count: 3,
            live_volume: volume,
            footprint: structure - 1,
            structure_size: structure,
            max_object_size: delta,
            total_moves: 5,
            total_moved_volume: 50,
            max_settled_ratio: structure as f64 / volume as f64,
            ..ShardStats::default()
        }
    }

    #[test]
    fn aggregates_sum_and_max() {
        let stats = EngineStats {
            per_shard: vec![shard(0, 100, 140, 32), shard(1, 50, 60, 64)],
        };
        assert_eq!(stats.shards(), 2);
        assert_eq!(stats.requests(), 20);
        assert_eq!(stats.live_volume(), 150);
        assert_eq!(stats.structure_size(), 200);
        assert_eq!(stats.footprint(), 198);
        assert_eq!(stats.max_object_size(), 64);
        assert_eq!(stats.total_moves(), 10);
        assert_eq!(stats.total_moved_volume(), 100);
        assert!((stats.worst_settled_ratio() - 1.4).abs() < 1e-12);
        assert!((stats.settled_ratio() - 200.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn empty_engine_is_benign() {
        let stats = EngineStats { per_shard: vec![] };
        assert_eq!(stats.live_volume(), 0);
        assert_eq!(stats.max_object_size(), 0);
        assert_eq!(stats.settled_ratio(), 1.0);
        assert_eq!(stats.worst_settled_ratio(), 0.0);
        assert_eq!(stats.imbalance_ratio(), 1.0);
        assert_eq!(stats.max_shard_volume(), 0);
        assert_eq!(stats.migrations(), 0);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let stats = EngineStats {
            per_shard: vec![
                shard(0, 300, 310, 8),
                shard(1, 50, 60, 8),
                shard(2, 50, 60, 8),
            ],
        };
        // mean = 400/3, max = 300 → ratio = 2.25.
        assert_eq!(stats.max_shard_volume(), 300);
        assert!((stats.mean_shard_volume() - 400.0 / 3.0).abs() < 1e-12);
        assert!((stats.imbalance_ratio() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn zero_volume_engine_counts_as_balanced() {
        let stats = EngineStats {
            per_shard: vec![shard(0, 0, 1, 0), shard(1, 0, 1, 0)],
        };
        assert_eq!(stats.imbalance_ratio(), 1.0);
    }

    #[test]
    fn migration_counters_aggregate() {
        let mut a = shard(0, 100, 140, 32);
        a.migrations_in = 3;
        a.migrated_volume_in = 30;
        a.defrag_moves = 7;
        a.substrate_bytes_written = 130;
        a.substrate_bytes_in = 30;
        a.substrate_verifications = 2;
        let mut b = shard(1, 50, 60, 64);
        b.migrations_out = 3;
        b.migrated_volume_out = 30;
        b.substrate_bytes_written = 50;
        b.substrate_bytes_out = 30;
        b.substrate_verifications = 2;
        let stats = EngineStats {
            per_shard: vec![a, b],
        };
        assert_eq!(stats.migrations(), 3);
        assert_eq!(stats.migrated_volume(), 30);
        assert_eq!(stats.migrations_out(), 3);
        assert_eq!(stats.migrated_volume_out(), 30);
        assert_eq!(stats.defrag_moves(), 7);
        assert_eq!(stats.bytes_written(), 180);
        assert_eq!(stats.bytes_migrated_in(), 30);
        assert_eq!(stats.bytes_migrated_out(), 30);
        assert_eq!(stats.substrate_verifications(), 4);
    }

    #[test]
    fn wal_counters_sum_and_recoveries_take_the_max() {
        let mut a = shard(0, 100, 140, 32);
        a.wal_records = 12;
        a.wal_bytes = 400;
        a.group_commits = 3;
        a.recoveries = 1;
        let mut b = shard(1, 50, 60, 64);
        b.wal_records = 4;
        b.wal_bytes = 120;
        b.group_commits = 2;
        b.recoveries = 1;
        let stats = EngineStats {
            per_shard: vec![a, b],
        };
        assert_eq!(stats.wal_records(), 16);
        assert_eq!(stats.wal_bytes(), 520);
        assert_eq!(stats.group_commits(), 5);
        // One fleet recovery shows as 1, not shards × 1.
        assert_eq!(stats.recoveries(), 1);
    }
}

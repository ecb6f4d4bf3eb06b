//! Pins the shard worker end to end on both front-ends: one seeded churn
//! stream per paper variant, served through a WAL'd, coalescing,
//! substrate-backed `Engine` (with a barrier rebalance, an online session,
//! a grow/shrink resize and a crash/recover along the way) and through a
//! WAL'd fleet tenant. Everything the worker reports is folded into one
//! FNV-1a digest per (front-end, variant): extents, every `ShardStats`
//! field, the sim-time lanes, every ledger record, the WAL and checkpoint
//! bytes at the crash, the recovery counts and the routing table. At
//! every observation point the shards count exactly the objects they list.
//!
//! The digests were recorded before the worker was rebuilt around the
//! reallocator's own object index; a refactor of the worker must leave
//! every one unchanged, and a deliberate behaviour change re-records them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use storage_realloc::prelude::*;
use storage_realloc::workloads::churn::{churn, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

const SHARDS: usize = 3;
const EPS: f64 = 0.25;
/// Requests between two folded observation points.
const EVERY: usize = 200;
/// Where the scripted engine events happen, in served requests.
const REBALANCE_AT: usize = 1_000;
const ONLINE_AT: usize = 2_000;
const QUIESCE_AT: usize = 3_000;
const GROW_AT: usize = 3_400;
const SHRINK_AT: usize = 3_800;
const CRASH_AT: usize = 4_400;

/// A 64-bit FNV-1a digest, folded one field at a time.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// A named field: the name, then the value.
    fn field(&mut self, name: &str, value: u64) {
        self.bytes(name.as_bytes());
        self.u64(value);
    }

    fn extents(&mut self, extents: &[Vec<(ObjectId, Extent)>]) {
        for (shard, list) in extents.iter().enumerate() {
            self.field("shard", shard as u64);
            for &(id, e) in list {
                self.u64(id.0);
                self.u64(e.offset);
                self.u64(e.len);
            }
        }
    }

    fn stats(&mut self, stats: &EngineStats) {
        for s in &stats.per_shard {
            self.shard_stats(s);
        }
    }

    /// Every `ShardStats` field by name, except the sim-time lanes (those
    /// are folded from the metrics scrape).
    fn shard_stats(&mut self, s: &ShardStats) {
        macro_rules! fields {
            ($($f:ident),*) => { $( self.field(stringify!($f), s.$f); )* };
        }
        self.field("shard", s.shard as u64);
        self.field("live_count", s.live_count as u64);
        fields!(
            requests,
            batches,
            requests_coalesced,
            requests_cancelled,
            errors,
            live_volume,
            footprint,
            structure_size,
            max_object_size,
            total_moves,
            total_moved_volume,
            migrations_in,
            migrations_out,
            migrated_volume_in,
            migrated_volume_out,
            defrag_runs,
            defrag_moves,
            substrate_bytes_written,
            substrate_bytes_in,
            substrate_bytes_out,
            substrate_verifications,
            wal_records,
            wal_bytes,
            group_commits,
            recoveries
        );
        self.bytes(b"algorithm");
        self.bytes(s.algorithm.as_bytes());
        self.bytes(b"max_settled_ratio");
        self.f64(s.max_settled_ratio);
    }

    fn sim_lanes(&mut self, metrics: &MetricsSnapshot) {
        for m in &metrics.per_shard {
            self.field("shard", m.shard as u64);
            self.f64(m.serve_sim_us);
            self.f64(m.migrate_sim_us);
            self.f64(m.wal_commit_sim_us);
        }
    }

    fn finals(&mut self, finals: &[storage_realloc::engine::ShardFinal]) {
        for f in finals {
            self.shard_stats(&f.stats);
            for r in f.ledger.records() {
                self.u64(match r.kind {
                    OpKind::Insert => 1,
                    OpKind::Delete => 2,
                    OpKind::MigrateOut => 3,
                    OpKind::MigrateIn => 4,
                    OpKind::Defrag => 5,
                    OpKind::Drain => 6,
                });
                self.u64(r.request_size);
                self.u64(r.allocated.map_or(u64::MAX, |a| a));
                self.u64(r.moved_sizes.len() as u64);
                for &m in &r.moved_sizes {
                    self.u64(m);
                }
                self.u64(u64::from(r.checkpoints));
                self.u64(r.structure_after);
                self.u64(r.peak_during);
                self.u64(r.volume_after);
                self.u64(r.delta_after);
            }
        }
    }

    fn assigned(&mut self, router: &dyn Router) {
        let mut ids = router.assigned_ids();
        ids.sort_unstable();
        self.field("assigned", ids.len() as u64);
        for (id, shard) in ids {
            self.u64(id.0);
            self.u64(shard as u64);
        }
    }

    /// Every file under `dir`, in name order: name, then bytes.
    fn files(&mut self, dir: &Path) {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        for path in paths {
            self.bytes(path.file_name().unwrap().to_str().unwrap().as_bytes());
            self.bytes(&std::fs::read(&path).unwrap());
        }
    }

    fn recovery(&mut self, report: &RecoveryReport) {
        self.field("shards", report.shards as u64);
        self.field("checkpoint_objects", report.checkpoint_objects);
        self.field("replayed_groups", report.replayed_groups);
        self.field("replayed_records", report.replayed_records);
        self.field("objects", report.objects);
        self.field("volume", report.volume);
        self.field("resurrected", report.resurrected.len() as u64);
        self.field("dropped_duplicates", report.dropped_duplicates.len() as u64);
        self.field("route_assignments", report.route_assignments);
        self.field("substrate", report.substrate.len() as u64);
    }
}

fn stream() -> Vec<Request> {
    churn(&ChurnConfig {
        dist: SizeDist::Uniform { lo: 1, hi: 64 },
        target_volume: 20_000,
        churn_ops: 5_400,
        seed: 16,
    })
    .requests
}

fn config(variant: &str) -> EngineConfig {
    let substrate = if variant_is_strict_safe(variant) {
        SubstrateConfig::strict()
    } else {
        SubstrateConfig::relaxed()
    };
    let mut config = EngineConfig::with_shards(SHARDS)
        .with_substrate(substrate)
        .coalescing()
        .with_ledger_history();
    config.batch = 32;
    config.device = Some(DeviceProfile::Unit);
    config
}

fn factory(variant: &'static str) -> impl Fn(usize) -> BoxedReallocator + Copy {
    move |_| build_variant(variant, EPS).expect("registry name")
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("engine-pin-{tag}-{}", std::process::id()))
}

/// The request-history model: id → size of every object inserted and not
/// deleted.
fn apply(model: &mut BTreeMap<ObjectId, u64>, req: Request) {
    match req {
        Request::Insert { id, size } => {
            model.insert(id, size);
        }
        Request::Delete { id } => {
            model.remove(&id);
        }
    }
}

/// One sync-engine run's digest and request-history state.
struct EngineRun {
    variant: &'static str,
    d: Digest,
    /// Requests served so far.
    served: usize,
    model: BTreeMap<ObjectId, u64>,
}

impl EngineRun {
    /// Serves `requests`, folding an observation every [`EVERY`] requests
    /// and running the scripted engine events at their request counts.
    fn serve(&mut self, engine: &mut Engine, requests: &[Request]) {
        let (variant, d) = (self.variant, &mut self.d);
        for &req in requests {
            match req {
                Request::Insert { id, size } => engine.insert(id, size).unwrap(),
                Request::Delete { id } => engine.delete(id).unwrap(),
            }
            apply(&mut self.model, req);
            self.served += 1;
            if self.served.is_multiple_of(EVERY) {
                let extents = engine.extents().unwrap();
                let stats = engine.snapshot().unwrap();
                d.extents(&extents);
                d.stats(&stats);
                d.assigned(engine.router());
                let listed: usize = extents.iter().map(Vec::len).sum();
                assert_eq!(
                    stats.live_count(),
                    listed,
                    "{variant}: the shards count objects they do not list"
                );
                if let Some(report) = engine.take_rebalance_report() {
                    d.field("online_objects", report.migrated_objects);
                    d.field("online_volume", report.migrated_volume);
                    d.field("online_batches", report.batches);
                }
            }
            match self.served {
                REBALANCE_AT => {
                    let report = engine
                        .rebalance(RebalanceOptions::with_defrag(EPS))
                        .unwrap();
                    assert!(report.migrated_objects > 0, "{variant}: nothing migrated");
                    d.field("rebalance_objects", report.migrated_objects);
                    d.field("rebalance_volume", report.migrated_volume);
                    for defrag in &report.defrag {
                        d.field("defrag_moves", defrag.total_moves);
                        d.field("defrag_peak", defrag.peak_space);
                    }
                }
                ONLINE_AT => {
                    let plan = engine
                        .rebalance_online(RebalanceOptions::default().batched(4))
                        .unwrap();
                    assert!(plan.objects > 0, "{variant}: empty online plan");
                    d.field("plan_objects", plan.objects);
                    d.field("plan_volume", plan.volume);
                }
                QUIESCE_AT => d.stats(&engine.quiesce().unwrap()),
                GROW_AT => {
                    let report = engine.resize_shards(SHARDS + 1, factory(variant)).unwrap();
                    d.field("grow_objects", report.migrated_objects);
                }
                SHRINK_AT => {
                    let report = engine.resize_shards(SHARDS, factory(variant)).unwrap();
                    d.field("shrink_objects", report.migrated_objects);
                    d.stats(&engine.quiesce().unwrap());
                }
                _ => {}
            }
        }
    }
}

/// The sync engine's digest for `variant`.
fn engine_digest(variant: &'static str) -> u64 {
    let requests = stream();
    let dir = temp_dir(variant);
    let mut run = EngineRun {
        variant,
        d: Digest::new(),
        served: 0,
        model: BTreeMap::new(),
    };
    let mut engine = Engine::with_wal(
        config(variant),
        Box::new(TableRouter::new(SHARDS)),
        factory(variant),
        &dir,
    )
    .unwrap();
    run.serve(&mut engine, &requests[..CRASH_AT]);
    engine.flush().unwrap();
    engine.crash();
    run.d.files(&dir);

    let (mut engine, report) = Engine::recover(config(variant), &dir, factory(variant)).unwrap();
    run.d.recovery(&report);
    run.d.assigned(engine.router());
    let live: BTreeMap<ObjectId, u64> = engine
        .extents()
        .unwrap()
        .into_iter()
        .flatten()
        .map(|(id, e)| (id, e.len))
        .collect();
    assert_eq!(live, run.model, "{variant}: recovery lost acked state");

    run.serve(&mut engine, &requests[CRASH_AT..]);
    run.d.sim_lanes(&engine.metrics().unwrap());
    run.d.finals(&engine.shutdown().unwrap());
    std::fs::remove_dir_all(&dir).ok();
    run.d.0
}

/// The fleet tenant's digest for `variant`: the same stream, observed at
/// the same points, without the engine-only operations.
fn fleet_digest(variant: &'static str) -> u64 {
    let requests = stream();
    let dir = temp_dir(&format!("fleet-{variant}"));
    let mut d = Digest::new();
    let fleet = Fleet::new(FleetConfig::with_workers(2));
    let mut tenant = fleet
        .register_with_wal(
            config(variant),
            Box::new(TableRouter::new(SHARDS)),
            factory(variant),
            &dir,
        )
        .unwrap();
    for (i, &req) in requests.iter().enumerate() {
        match req {
            Request::Insert { id, size } => drop(tenant.insert(id, size)),
            Request::Delete { id } => drop(tenant.delete(id)),
        }
        if (i + 1).is_multiple_of(EVERY) {
            tenant.flush().wait();
            d.extents(&tenant.extents().unwrap());
        }
    }
    d.stats(&tenant.quiesce().wait().unwrap());
    d.sim_lanes(&tenant.metrics().unwrap());
    d.finals(&tenant.shutdown().unwrap());
    fleet.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    d.0
}

/// Runs `digest` for every variant, one thread each.
fn per_variant<T: Send>(digest: fn(&'static str) -> T) -> Vec<(&'static str, T)> {
    std::thread::scope(|s| {
        let runs: Vec<_> = VARIANTS
            .iter()
            .map(|&variant| (variant, s.spawn(move || digest(variant))))
            .collect();
        runs.into_iter()
            .map(|(variant, run)| (variant, run.join().expect("pin thread panicked")))
            .collect()
    })
}

fn check(front: &str, observed: &[(&'static str, u64)], pinned: &[(&str, u64)]) {
    let listing: String = observed
        .iter()
        .map(|(v, d)| format!("    ({v:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        observed, pinned,
        "{front} digests changed; all digests:\n{listing}"
    );
}

#[test]
fn sync_engine_is_pinned() {
    check("engine", &per_variant(engine_digest), &ENGINE_PINS);
}

#[test]
fn fleet_tenant_is_pinned() {
    check("fleet", &per_variant(fleet_digest), &FLEET_PINS);
}

/// `sync_engine_is_pinned`'s digests, one per `VARIANTS` entry.
const ENGINE_PINS: [(&str, u64); 4] = [
    ("cost-oblivious", 0x6e21197122102fbc),
    ("checkpointed", 0xcc595b28a0699ab3),
    ("deamortized", 0x9052b993a3af75c8),
    ("nearly-quadratic", 0xb7511d834abe46c2),
];

/// `fleet_tenant_is_pinned`'s digests, one per `VARIANTS` entry.
const FLEET_PINS: [(&str, u64); 4] = [
    ("cost-oblivious", 0x5036eca230165c60),
    ("checkpointed", 0xe60a6726052daf6a),
    ("deamortized", 0x5fe7f9a5907ef0e6),
    ("nearly-quadratic", 0x9007215e7eb46b3c),
];

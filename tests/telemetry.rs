//! The observability layer's contracts.
//!
//! Telemetry must be a pure *observer*: turning it on (or pricing against
//! a device) must not change what the engine computes, and the parts of a
//! scrape that join the determinism surface must be bitwise-identical
//! across repeat runs, while wall-clock observations are excluded from
//! every `==`. These tests pin all of that down, plus the delta-scrape
//! semantics and the agreement between sim-time and ledger pricing.

use proptest::prelude::*;
use storage_realloc::engine::SpanPhase;
use storage_realloc::prelude::*;

const VARIANTS: [&str; 3] = ["cost-oblivious", "checkpointed", "deamortized"];

fn build(variant: &str, eps: f64) -> Box<dyn Reallocator + Send> {
    match variant {
        "cost-oblivious" => Box::new(CostObliviousReallocator::new(eps)),
        "checkpointed" => Box::new(CheckpointedReallocator::new(eps)),
        "deamortized" => Box::new(DeamortizedReallocator::new(eps)),
        other => panic!("unknown variant {other}"),
    }
}

fn churn(volume: u64, ops: usize, seed: u64) -> Workload {
    storage_realloc::workloads::churn::churn(&storage_realloc::workloads::churn::ChurnConfig {
        dist: storage_realloc::workloads::dist::SizeDist::ClassPowerLaw {
            classes: 8,
            decay: 0.7,
        },
        target_volume: volume,
        churn_ops: ops,
        seed,
    })
}

fn run_with(config: EngineConfig, workload: &Workload) -> (MetricsSnapshot, Vec<ShardFinal>) {
    let mut engine = Engine::new(config, |_| build("cost-oblivious", 0.25));
    engine.drive(workload).unwrap();
    engine.quiesce().unwrap();
    let metrics = engine.metrics().unwrap();
    let finals = engine.shutdown().unwrap();
    (metrics, finals)
}

use storage_realloc::engine::ShardFinal;

/// The tentpole determinism regression: the same workload run twice must
/// produce equal `EngineStats` *and* equal `MetricsSnapshot`s under the
/// deterministic projection — even though the wall-clock histograms in
/// the two snapshots inevitably differ.
#[test]
fn repeat_runs_scrape_identically() {
    let workload = churn(30_000, 6_000, 7);
    for device in [None, Some(DeviceProfile::Disk)] {
        let mut config = EngineConfig::with_shards(3);
        config.device = device;
        let (a, fa) = run_with(config, &workload);
        let (b, fb) = run_with(config, &workload);
        assert_eq!(a, b, "metrics snapshots diverged (device {device:?})");
        assert_eq!(a.stats, b.stats);
        // The wall-clock side really did record something — the equality
        // above is a projection, not emptiness.
        assert!(a.per_shard.iter().any(|m| m.batch_service_ns.count > 0));
        let stats = |f: &[ShardFinal]| EngineStats {
            per_shard: f.iter().map(|s| s.stats.clone()).collect(),
        };
        assert_eq!(stats(&fa), stats(&fb));
    }
}

/// Telemetry off ≡ telemetry on, for every paper variant: identical
/// extents, identical stats, identical ledger contents.
#[test]
fn telemetry_is_a_pure_observer() {
    let workload = churn(20_000, 4_000, 11);
    for variant in VARIANTS {
        let run = |telemetry: bool| {
            let mut config = EngineConfig::with_shards(2).with_ledger_history();
            config.telemetry = telemetry;
            let mut engine = Engine::new(config, |_| build(variant, 0.25));
            engine.drive(&workload).unwrap();
            engine.quiesce().unwrap();
            let extents = engine.extents().unwrap();
            let finals = engine.shutdown().unwrap();
            (extents, finals)
        };
        let (ext_on, fin_on) = run(true);
        let (ext_off, fin_off) = run(false);
        assert_eq!(ext_on, ext_off, "{variant}: extents diverged");
        for (a, b) in fin_on.iter().zip(&fin_off) {
            assert_eq!(a.stats, b.stats, "{variant}: stats diverged");
            assert_eq!(
                a.ledger.records(),
                b.ledger.records(),
                "{variant}: ledgers diverged"
            );
        }
    }
}

/// A device profile prices — it must not perturb the computation either:
/// the whole `EngineStats` is equal with pricing on and off, and the sim
/// time lives only in the metrics scrape.
#[test]
fn device_pricing_is_a_pure_observer() {
    let workload = churn(15_000, 3_000, 13);
    let run = |device: Option<DeviceProfile>| {
        let mut config = EngineConfig::with_shards(2);
        config.device = device;
        let mut engine = Engine::new(config, |_| build("deamortized", 0.25));
        engine.drive(&workload).unwrap();
        engine.quiesce().unwrap();
        let extents = engine.extents().unwrap();
        let stats = engine.snapshot().unwrap();
        let sim_time = engine.metrics().unwrap().sim_time_us();
        (extents, stats, sim_time)
    };
    let (ext_none, stats_none, sim_none) = run(None);
    for profile in DeviceProfile::ALL {
        let (ext, stats, sim) = run(Some(profile));
        assert_eq!(ext, ext_none, "{}: extents diverged", profile.name());
        assert_eq!(stats, stats_none, "{}: stats diverged", profile.name());
        assert!(sim > 0.0, "{}: nothing priced", profile.name());
    }
    assert_eq!(sim_none, 0.0);
}

/// Sim time must agree with pricing the shard ledgers through the same
/// cost function: serve+migrate lanes ≈ alloc cost + realloc cost +
/// checkpoint barriers × checkpoint latency, for every variant. Serving
/// quiesces every 500 requests, and a barrier's drain (§3.3 finishes its
/// flush there) is ledgered like a request, so the agreement is exact up
/// to float association order, and each shard's ledger counts exactly the
/// moves its stats count.
#[test]
fn sim_time_agrees_with_ledger_pricing() {
    let workload = churn(25_000, 5_000, 17);
    for variant in storage_realloc::harness::VARIANTS {
        for profile in [DeviceProfile::Unit, DeviceProfile::Disk, DeviceProfile::Ssd] {
            let mut config = EngineConfig::with_shards(2);
            config.device = Some(profile);
            let mut engine = Engine::new(config, |_| {
                build_variant(variant, 0.25).expect("registry name")
            });
            for (i, req) in workload.requests.iter().enumerate() {
                match *req {
                    Request::Insert { id, size } => engine.insert(id, size).unwrap(),
                    Request::Delete { id } => engine.delete(id).unwrap(),
                }
                if (i + 1) % 500 == 0 {
                    engine.quiesce().unwrap();
                }
            }
            engine.quiesce().unwrap();
            let metrics = engine.metrics().unwrap();
            let finals = engine.shutdown().unwrap();

            let device = profile.build();
            let price = |w: u64| {
                device.time_of(&StorageOp::Allocate {
                    id: ObjectId(0),
                    to: Extent::new(0, w),
                })
            };
            let checkpoint_latency = device.time_of(&StorageOp::CheckpointBarrier);
            let mut ledger_time = 0.0;
            for f in &finals {
                ledger_time += f.ledger.total_alloc_cost(&price);
                ledger_time += f.ledger.total_realloc_cost(&price);
                ledger_time += f.ledger.total_checkpoints() as f64 * checkpoint_latency;
                assert_eq!(
                    f.ledger.total_moved_volume(),
                    f.stats.total_moved_volume,
                    "{variant}: shard {} ledgered moved volume",
                    f.stats.shard
                );
                assert_eq!(
                    f.ledger.total_moves() as u64,
                    f.stats.total_moves,
                    "{variant}: shard {} ledgered moves",
                    f.stats.shard
                );
            }
            let sim: f64 = metrics
                .per_shard
                .iter()
                .map(|m| m.serve_sim_us + m.migrate_sim_us)
                .sum();
            let rel = (sim - ledger_time).abs() / ledger_time.max(1.0);
            assert!(
                rel < 1e-9,
                "{variant}, {}: sim {sim} vs ledger {ledger_time} (rel {rel})",
                profile.name()
            );
        }
    }
}

/// Delta scrapes: counters and histograms subtract, gauges stay current.
#[test]
fn delta_scrape_subtracts_counters_and_keeps_gauges() {
    let mut config = EngineConfig::with_shards(2);
    config.device = Some(DeviceProfile::Unit);
    let mut engine = Engine::new(config, |_| build("cost-oblivious", 0.25));

    engine.drive(&churn(10_000, 2_000, 23)).unwrap();
    engine.quiesce().unwrap();
    let first = engine.metrics_delta().unwrap();
    // First scrape: no baseline, full values.
    assert_eq!(first.scrape, 1);
    assert!(first.stats.requests() > 0);

    // No traffic between scrapes: every counter delta must be zero, while
    // gauges keep reporting the current level.
    let idle = engine.metrics_delta().unwrap();
    assert_eq!(idle.scrape, 2);
    assert_eq!(idle.stats.requests(), 0);
    assert_eq!(idle.stats.wal_records(), 0);
    assert_eq!(idle.sim_time_us(), 0.0);
    assert_eq!(idle.stats.live_volume(), first.stats.live_volume());
    assert!(idle.per_shard.iter().all(|m| m.batch_sim_us.count == 0));

    // More traffic (fresh ids, disjoint from the churn run): the delta
    // counts only the new work, the cumulative scrape keeps growing.
    let more: Vec<Request> = (0..500)
        .map(|i| Request::Insert {
            id: ObjectId(1_000_000 + i),
            size: 64,
        })
        .collect();
    engine.drive(&Workload::new("more", more)).unwrap();
    engine.quiesce().unwrap();
    let delta = engine.metrics_delta().unwrap();
    let total = engine.metrics().unwrap();
    assert!(delta.stats.requests() > 0);
    assert!(total.stats.requests() > delta.stats.requests());
    engine.shutdown().unwrap();
}

/// The wall-clock exclusion holds end-to-end: a real scrape compared with
/// a doctored copy whose observation histograms are wiped is still equal.
#[test]
fn scrape_equality_ignores_wall_clock_observations() {
    let mut config = EngineConfig::with_shards(2);
    config.device = Some(DeviceProfile::Ssd);
    let mut engine = Engine::new(config, |_| build("cost-oblivious", 0.25));
    engine.drive(&churn(10_000, 2_000, 31)).unwrap();
    engine.quiesce().unwrap();
    let real = engine.metrics().unwrap();
    engine.shutdown().unwrap();

    let mut doctored = real.clone();
    for m in &mut doctored.per_shard {
        m.batch_service_ns = HistogramSnapshot::empty();
        m.commit_latency_ns = HistogramSnapshot::empty();
        m.intake_stall_ns = HistogramSnapshot::empty();
    }
    doctored.events.clear();
    assert_eq!(real, doctored);

    // Deterministic fields do participate.
    let mut perturbed = real.clone();
    perturbed.per_shard[0].serve_sim_us += 1.0;
    assert_ne!(real, perturbed);
}

/// Rebalance sessions journal one span per migration batch, and the JSON
/// export carries them.
#[test]
fn rebalance_batches_emit_spans() {
    let mut config = EngineConfig::with_shards(2);
    config.device = Some(DeviceProfile::Unit);
    let mut engine = Engine::new(config, |_| build("cost-oblivious", 0.25));
    // Skewed population: everything hashes wherever it lands, then a
    // rebalance moves some of it.
    for i in 0..200u64 {
        engine.insert(ObjectId(i), 64 + i % 32).unwrap();
    }
    engine.quiesce().unwrap();
    engine
        .rebalance_online(RebalanceOptions {
            batch_objects: 8,
            ..Default::default()
        })
        .unwrap();
    while engine.rebalance_step().unwrap() {}
    engine.take_rebalance_report().unwrap();

    let metrics = engine.metrics().unwrap();
    let begins = metrics
        .events
        .iter()
        .filter(|e| e.label == "rebalance.batch" && matches!(e.phase, SpanPhase::Begin))
        .count();
    let ends = metrics
        .events
        .iter()
        .filter(|e| e.label == "rebalance.batch" && matches!(e.phase, SpanPhase::End))
        .count();
    assert!(begins > 0, "no batch spans journaled");
    assert_eq!(begins, ends, "unmatched batch spans");
    assert!(metrics
        .events
        .iter()
        .any(|e| e.label == "rebalance.session"));

    let json = metrics.to_json().to_string();
    let parsed = Json::parse(&json).expect("export must round-trip");
    let events = parsed.get("events").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), metrics.events.len());
    engine.shutdown().unwrap();
}

/// Recovery installs one span per stage into the rebuilt engine.
#[test]
fn recovery_emits_stage_spans() {
    let dir = std::env::temp_dir().join(format!("realloc-telemetry-rec-{}", std::process::id()));
    let config = EngineConfig::with_shards(2);
    let mut engine = Engine::with_wal(
        config,
        Box::new(TableRouter::new(2)),
        |_| build("cost-oblivious", 0.25),
        &dir,
    )
    .unwrap();
    for i in 0..100u64 {
        engine.insert(ObjectId(i), 32 + i % 16).unwrap();
    }
    engine.quiesce().unwrap();
    engine.crash();

    let (mut rebuilt, report) =
        Engine::recover(config, &dir, |_| build("cost-oblivious", 0.25)).unwrap();
    assert_eq!(report.objects, 100);
    let metrics = rebuilt.metrics().unwrap();
    for stage in [
        "recover.fold",
        "recover.reconcile",
        "recover.routing",
        "recover.reseed",
    ] {
        let begin = metrics
            .events
            .iter()
            .any(|e| e.label == stage && matches!(e.phase, SpanPhase::Begin));
        let end = metrics
            .events
            .iter()
            .any(|e| e.label == stage && matches!(e.phase, SpanPhase::End));
        assert!(begin && end, "missing span pair for {stage}");
    }
    rebuilt.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// WAL commit sim time only exists with both a WAL and a device, and the
/// commit histograms record the group-commit coalescing.
#[test]
fn wal_commit_pricing_requires_wal_and_device() {
    let dir = std::env::temp_dir().join(format!("realloc-telemetry-wal-{}", std::process::id()));
    let mut config = EngineConfig::with_shards(2);
    config.device = Some(DeviceProfile::Disk);
    let mut engine = Engine::with_wal(
        config,
        Box::new(TableRouter::new(2)),
        |_| build("cost-oblivious", 0.25),
        &dir,
    )
    .unwrap();
    engine.drive(&churn(10_000, 2_000, 37)).unwrap();
    engine.quiesce().unwrap();
    let metrics = engine.metrics().unwrap();
    assert!(metrics.per_shard.iter().any(|m| m.wal_commit_sim_us > 0.0));
    assert!(metrics.per_shard.iter().any(|m| m.commit_records.count > 0));
    // Coalescing: a group commit carries more than one record on average.
    let recs = metrics
        .per_shard
        .iter()
        .map(|m| m.commit_records.clone())
        .fold(HistogramSnapshot::empty(), |mut acc, h| {
            acc.merge(&h);
            acc
        });
    assert!(recs.mean() > 1.0, "group commits are not coalescing");
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Without a WAL the lane stays zero even with a device.
    let mut config = EngineConfig::with_shards(2);
    config.device = Some(DeviceProfile::Disk);
    let mut engine = Engine::new(config, |_| build("cost-oblivious", 0.25));
    engine.drive(&churn(5_000, 1_000, 41)).unwrap();
    engine.quiesce().unwrap();
    let metrics = engine.metrics().unwrap();
    assert!(metrics.per_shard.iter().all(|m| m.wal_commit_sim_us == 0.0));
    assert!(metrics.per_shard.iter().any(|m| m.serve_sim_us > 0.0));
    engine.shutdown().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for random small workloads, metrics-on and metrics-off
    /// runs agree on extents, stats, and ledger contents for all three
    /// paper variants.
    #[test]
    fn prop_metrics_do_not_perturb(seed in 0u64..1_000, ops in 200usize..800) {
        let workload = churn(8_000, ops, seed);
        for variant in VARIANTS {
            let run = |telemetry: bool| {
                let mut config = EngineConfig::with_shards(2);
                config.telemetry = telemetry;
                config.device = telemetry.then_some(DeviceProfile::Unit);
                let mut engine = Engine::new(config, |_| build(variant, 0.25));
                engine.drive(&workload).unwrap();
                engine.quiesce().unwrap();
                let extents = engine.extents().unwrap();
                let finals = engine.shutdown().unwrap();
                (extents, finals)
            };
            let (ext_on, fin_on) = run(true);
            let (ext_off, fin_off) = run(false);
            prop_assert_eq!(ext_on, ext_off, "{}: extents diverged", variant);
            for (a, b) in fin_on.iter().zip(&fin_off) {
                prop_assert_eq!(a.stats.requests, b.stats.requests);
                prop_assert_eq!(a.stats.live_volume, b.stats.live_volume);
                prop_assert_eq!(a.stats.footprint, b.stats.footprint);
                prop_assert_eq!(a.stats.total_moves, b.stats.total_moves);
                prop_assert_eq!(a.ledger.len(), b.ledger.len());
            }
        }
    }
}

//! Observational equivalence of the async facade.
//!
//! `AsyncEngine` replicates the sync handle's client-side batching law
//! and runs the *same* shard state machines on fleet workers, so for any
//! request sequence the two must agree on everything deterministic:
//! extents, physical substrate bytes, aggregated stats (batch counts
//! included), per-shard ledgers, and the metrics projection that
//! participates in `MetricsSnapshot`'s `==`. These tests pin that for
//! all four registry variants — with stealing both off and on (a steal
//! moves *where* a batch runs, never *what* it computes), with futures
//! dropped before they resolve, and with futures awaited out of order.

use proptest::prelude::*;
use storage_realloc::common::block_on;
use storage_realloc::prelude::*;

fn build(variant: &str, eps: f64) -> Box<dyn Reallocator + Send> {
    build_variant(variant, eps).unwrap_or_else(|| panic!("unknown variant {variant}"))
}

/// Compact request-sequence encoding shared with `engine_equivalence`:
/// positive numbers insert an object of that size, zero deletes the
/// oldest live object.
fn op_sequence() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 1u64..=600,
            1 => Just(0u64),
        ],
        1..150,
    )
}

fn materialize(ops: &[u64]) -> Vec<Request> {
    let mut requests = Vec::new();
    let mut live = std::collections::VecDeque::new();
    let mut next = 0u64;
    for &op in ops {
        if op == 0 {
            if let Some(id) = live.pop_front() {
                requests.push(Request::Delete { id });
            }
        } else {
            let id = ObjectId(next);
            next += 1;
            live.push_back(id);
            requests.push(Request::Insert { id, size: op });
        }
    }
    requests
}

/// Everything deterministic a run exposes, for side-by-side comparison.
struct Observed {
    stats: EngineStats,
    extents: Vec<Vec<(ObjectId, Extent)>>,
    bytes: Vec<Vec<(ObjectId, Vec<u8>)>>,
    metrics: MetricsSnapshot,
    ledgers: Vec<Vec<storage_realloc::common::OpRecord>>,
}

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        batch: 32,
        queue_depth: 2,
        ..EngineConfig::with_shards(shards)
    }
    .with_substrate(SubstrateConfig::default())
    .with_ledger_history()
}

fn run_sync(variant: &str, eps: f64, shards: usize, requests: &[Request]) -> Observed {
    let mut engine = Engine::new(config(shards), |_| build(variant, eps));
    for req in requests {
        match *req {
            Request::Insert { id, size } => engine.insert(id, size).expect("insert"),
            Request::Delete { id } => engine.delete(id).expect("delete"),
        }
    }
    let stats = engine.quiesce().expect("quiesce");
    let extents = engine.extents().expect("extents");
    let bytes = engine.substrate_contents().expect("contents");
    let metrics = engine.metrics().expect("metrics");
    let finals = engine.shutdown().expect("shutdown");
    Observed {
        stats,
        extents,
        bytes,
        metrics,
        ledgers: finals
            .into_iter()
            .map(|f| f.ledger.records().to_vec())
            .collect(),
    }
}

/// Drives the same sequence through an async tenant. Two thirds of the
/// returned futures are dropped on the spot (dropped-before-resolved
/// must be a no-op); the rest are awaited *in reverse enqueue order*
/// after a `flush` has shipped the tail batch (an [`Ack`] resolves at
/// batch completion, and a partial batch only ships at a flush point).
fn run_async(
    fleet: &Fleet,
    variant: &str,
    eps: f64,
    shards: usize,
    requests: &[Request],
) -> Observed {
    let mut tenant = fleet.register(config(shards), Box::new(HashRouter::new(shards)), |_| {
        build(variant, eps)
    });
    let mut kept = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let ack = match *req {
            Request::Insert { id, size } => tenant.insert(id, size),
            Request::Delete { id } => tenant.delete(id),
        };
        if i % 3 == 0 {
            kept.push(ack);
        }
    }
    let flushed = tenant.flush();
    kept.reverse();
    for ack in kept {
        ack.wait();
    }
    flushed.wait();
    let stats = block_on(tenant.quiesce()).expect("quiesce");
    let extents = tenant.extents().expect("extents");
    let bytes = tenant.substrate_contents().expect("contents");
    let metrics = tenant.metrics().expect("metrics");
    let finals = tenant.shutdown().expect("shutdown");
    Observed {
        stats,
        extents,
        bytes,
        metrics,
        ledgers: finals
            .into_iter()
            .map(|f| f.ledger.records().to_vec())
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Async facade ≡ sync handle for every registry variant: same
    /// extents, same bytes, same stats (including batch counts), same
    /// ledgers, same deterministic metrics projection — stealing on or
    /// off, futures dropped or awaited out of order.
    #[test]
    fn async_facade_equals_sync_handle(
        ops in op_sequence(),
        eps in 0.1f64..=0.5,
        shards in 1usize..=4,
        steal in prop_oneof![1 => Just(false), 1 => Just(true)],
    ) {
        let requests = materialize(&ops);
        let fleet = Fleet::new(FleetConfig::with_workers(2).stealing(steal));
        for variant in VARIANTS {
            let sync = run_sync(variant, eps, shards, &requests);
            let asynced = run_async(&fleet, variant, eps, shards, &requests);

            prop_assert_eq!(&sync.stats, &asynced.stats, "{}: stats diverge", variant);
            prop_assert_eq!(
                &sync.extents, &asynced.extents,
                "{}: placements diverge", variant
            );
            prop_assert_eq!(&sync.bytes, &asynced.bytes, "{}: bytes diverge", variant);
            prop_assert_eq!(
                &sync.ledgers, &asynced.ledgers,
                "{}: ledgers diverge", variant
            );
            // MetricsSnapshot's == is exactly the deterministic
            // projection (stats + sim time + deterministic histograms);
            // wall-clock and steal blocks are excluded by design.
            prop_assert_eq!(
                &sync.metrics, &asynced.metrics,
                "{}: metrics projection diverges", variant
            );
        }
        fleet.shutdown();
    }
}

/// A dropped `QuiesceFuture` must not wedge its cores: the quiesce still
/// runs (its reply send becomes a no-op), and the next barrier sees the
/// drained state.
#[test]
fn dropped_quiesce_future_is_harmless() {
    let fleet = Fleet::new(FleetConfig::with_workers(2).stealing(true));
    let mut tenant = fleet.register(config(2), Box::new(HashRouter::new(2)), |_| {
        build("cost-oblivious", 0.25)
    });
    for i in 0..100u64 {
        drop(tenant.insert(ObjectId(i), 64));
    }
    drop(tenant.quiesce());
    let stats = tenant.snapshot().expect("snapshot after dropped quiesce");
    assert_eq!(stats.live_count(), 100);
    assert_eq!(stats.live_volume(), 6400);
    tenant.shutdown().expect("shutdown");
    fleet.shutdown();
}

/// Request-level errors surface at the async barriers exactly like the
/// sync ones: a duplicate insert is counted, reported by `quiesce`, and
/// the error is the lowest-shard first rejection.
#[test]
fn async_barriers_surface_request_errors() {
    let fleet = Fleet::new(FleetConfig::default());
    let mut tenant = fleet.register(config(1), Box::new(HashRouter::new(1)), |_| {
        build("cost-oblivious", 0.25)
    });
    let first = tenant.insert(ObjectId(7), 32);
    tenant.flush().wait(); // ships the partial batch so the ack can resolve
    first.wait();
    drop(tenant.insert(ObjectId(7), 32)); // duplicate: rejected at serve time
    let err = block_on(tenant.quiesce()).expect_err("duplicate must surface");
    match err {
        EngineError::Request { shard, .. } => assert_eq!(shard, 0),
        other => panic!("unexpected error {other:?}"),
    }
    fleet.shutdown();
}

/// Many tenants on one fleet stay isolated: interleaved traffic against
/// ten tenants gives each exactly its own objects, stats, and volumes.
#[test]
fn tenants_are_isolated() {
    let fleet = Fleet::new(FleetConfig::with_workers(3).stealing(true));
    let mut tenants: Vec<AsyncEngine> = (0..10)
        .map(|_| {
            fleet.register(config(2), Box::new(HashRouter::new(2)), |_| {
                build("cost-oblivious", 0.3)
            })
        })
        .collect();
    for round in 0..50u64 {
        for (t, tenant) in tenants.iter_mut().enumerate() {
            drop(tenant.insert(ObjectId(round), 10 + t as u64));
        }
    }
    let mut waits = Vec::new();
    for tenant in &mut tenants {
        waits.push(tenant.quiesce());
    }
    for (t, wait) in waits.into_iter().enumerate() {
        let stats = block_on(wait).expect("quiesce");
        assert_eq!(stats.live_count(), 50, "tenant {t}");
        assert_eq!(stats.live_volume(), 50 * (10 + t as u64), "tenant {t}");
    }
    for tenant in tenants {
        tenant.shutdown().expect("shutdown");
    }
    fleet.shutdown();
}

/// A tenant handle that outlives its fleet fails soft, as `Fleet`
/// documents: its `flush` ack resolves and its `quiesce` reports the
/// shard down — neither hangs on work no worker will ever run.
#[test]
fn tenant_outliving_its_fleet_resolves_instead_of_hanging() {
    let fleet = Fleet::new(FleetConfig::with_workers(2));
    let mut tenant = fleet.register(config(1), Box::new(HashRouter::new(1)), |_| {
        build("cost-oblivious", 0.25)
    });
    let unshipped = tenant.insert(ObjectId(1), 8);
    drop(fleet);
    tenant.flush().wait();
    unshipped.wait();
    match tenant.quiesce().wait() {
        Err(EngineError::ShardDown { shard: 0 }) => {}
        other => panic!("expected shard 0 down, got {other:?}"),
    }
}

/// `crash` drops only what never shipped: a batch already queued is
/// applied before `crash` returns — here it waits out a paused worker —
/// so a WAL'd tenant's crash point is exact.
#[test]
fn crash_waits_for_queued_batches() {
    let fleet = Fleet::new(FleetConfig::with_workers(1));
    let mut tenant = fleet.register(
        EngineConfig {
            batch: 1,
            ..config(1)
        },
        Box::new(HashRouter::new(1)),
        |_| build("cost-oblivious", 0.25),
    );
    fleet.pause_worker(0);
    let mut queued = tenant.insert(ObjectId(1), 8); // ships at once, stays queued
    std::thread::scope(|s| {
        // The delay only keeps the worker paused while `crash` starts; a
        // correct crash passes for any delay.
        s.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(100));
            fleet.resume_worker(0);
        });
        tenant.crash();
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        let applied = std::future::Future::poll(std::pin::Pin::new(&mut queued), &mut cx);
        assert!(
            applied.is_ready(),
            "crash returned with a batch still queued"
        );
    });
}

/// Inserts for `ids`, then deletes of every one of them that `route`
/// homes off shard `home`: a stream that piles its volume onto one shard.
fn skewed(
    ids: std::ops::Range<u64>,
    home: usize,
    route: impl Fn(ObjectId) -> usize,
) -> Vec<Request> {
    let inserts = ids.clone().map(|i| Request::Insert {
        id: ObjectId(i),
        size: 1 + (i * 37) % 200,
    });
    let deletes = ids
        .map(ObjectId)
        .filter(|&id| route(id) != home)
        .map(|id| Request::Delete { id });
    inserts.chain(deletes).collect()
}

fn serve_sync(engine: &mut Engine, requests: &[Request]) {
    for req in requests {
        match *req {
            Request::Insert { id, size } => engine.insert(id, size).expect("insert"),
            Request::Delete { id } => engine.delete(id).expect("delete"),
        }
    }
}

fn serve_async(tenant: &mut AsyncEngine, requests: &[Request]) {
    for req in requests {
        drop(match *req {
            Request::Insert { id, size } => tenant.insert(id, size),
            Request::Delete { id } => tenant.delete(id),
        });
    }
}

/// Asserts two rebalance reports agree on everything they carry.
fn assert_same_report(sync: &RebalanceReport, asynced: &RebalanceReport, what: &str) {
    assert_eq!(sync.mode, asynced.mode, "{what}: mode");
    assert_eq!(sync.before, asynced.before, "{what}: opening stats");
    assert_eq!(sync.after, asynced.after, "{what}: closing stats");
    assert_eq!(
        (sync.migrated_objects, sync.migrated_volume, sync.batches),
        (
            asynced.migrated_objects,
            asynced.migrated_volume,
            asynced.batches
        ),
        "{what}: totals"
    );
    assert_eq!(sync.defrag, asynced.defrag, "{what}: defrag summaries");
}

/// A tenant rebalances through the same code as the sync engine, so the
/// two agree after a barrier rebalance with defrag, more serving, and an
/// online session stepped dry: same extents, bytes, stats, ledgers and
/// reports, for every variant, with stealing off and on.
#[test]
fn tenant_rebalancing_equals_sync_rebalancing() {
    const SHARDS: usize = 3;
    for steal in [false, true] {
        let fleet = Fleet::new(FleetConfig::with_workers(2).stealing(steal));
        for variant in VARIANTS {
            let what = format!("{variant}, stealing {steal}");
            let mut sync = Engine::new(config(SHARDS), |_| build(variant, 0.25));
            let mut tenant =
                fleet.register(config(SHARDS), Box::new(TableRouter::new(SHARDS)), |_| {
                    build(variant, 0.25)
                });

            let fresh = TableRouter::new(SHARDS);
            let first = skewed(0..300, 0, |id| fresh.route(id));
            serve_sync(&mut sync, &first);
            serve_async(&mut tenant, &first);
            let barrier = RebalanceOptions::with_defrag(0.25);
            let sync_barrier = sync.rebalance(barrier).expect("sync rebalance");
            let async_barrier = tenant.rebalance(barrier).expect("tenant rebalance");
            assert!(
                sync_barrier.migrated_objects > 0,
                "{what}: nothing migrated"
            );
            assert_same_report(&sync_barrier, &async_barrier, &format!("{what} barrier"));

            let second = skewed(1_000..1_300, 1, |id| sync.shard_of(id));
            serve_sync(&mut sync, &second);
            serve_async(&mut tenant, &second);
            let online = RebalanceOptions::default().batched(8);
            let sync_plan = sync.rebalance_online(online).expect("sync plan");
            let async_plan = tenant.rebalance_online(online).expect("tenant plan");
            assert!(sync_plan.batches > 1, "{what}: the session must take steps");
            assert_eq!(sync_plan, async_plan, "{what}: online plans");
            while sync.rebalance_step().expect("sync step") {}
            while tenant.rebalance_step().expect("tenant step") {}
            let sync_online = sync.take_rebalance_report().expect("sync report");
            let async_online = tenant.take_rebalance_report().expect("tenant report");
            assert_same_report(&sync_online, &async_online, &format!("{what} online"));

            assert_eq!(
                sync.extents().unwrap(),
                tenant.extents().unwrap(),
                "{what}: extents"
            );
            assert_eq!(
                sync.substrate_contents().unwrap(),
                tenant.substrate_contents().unwrap(),
                "{what}: bytes"
            );
            assert_eq!(
                sync.quiesce().unwrap(),
                tenant.quiesce().wait().unwrap(),
                "{what}: stats"
            );
            let ledgers = |finals: Vec<storage_realloc::engine::ShardFinal>| {
                let ledgers = finals.into_iter().map(|f| f.ledger.records().to_vec());
                ledgers.collect::<Vec<_>>()
            };
            assert_eq!(
                ledgers(sync.shutdown().unwrap()),
                ledgers(tenant.shutdown().unwrap()),
                "{what}: ledgers"
            );
        }
        fleet.shutdown();
    }
}

/// A tenant's `snapshot` feeds an installed auto-rebalance policy exactly
/// as the sync handle's does: both fire on the same skew and drain to the
/// same report.
#[test]
fn tenant_snapshot_fires_the_auto_rebalance_policy() {
    const SHARDS: usize = 3;
    let fleet = Fleet::new(FleetConfig::with_workers(2));
    let mut sync = Engine::new(config(SHARDS), |_| build("cost-oblivious", 0.25));
    let mut tenant = fleet.register(config(SHARDS), Box::new(TableRouter::new(SHARDS)), |_| {
        build("cost-oblivious", 0.25)
    });
    let policy = RebalancePolicy::new(1.5, 1, 1);
    let opts = RebalanceOptions::default().batched(8);
    sync.set_auto_rebalance(policy.clone(), opts);
    tenant.set_auto_rebalance(policy, opts);

    let fresh = TableRouter::new(SHARDS);
    let requests = skewed(0..300, 0, |id| fresh.route(id));
    serve_sync(&mut sync, &requests);
    serve_async(&mut tenant, &requests);
    let sync_stats = sync.snapshot().unwrap();
    let async_stats = tenant.snapshot().unwrap();
    assert_eq!(sync_stats, async_stats);
    assert!(sync_stats.imbalance_ratio() > 1.5, "the stream must skew");
    assert!(sync.rebalance_active(), "the sync policy must fire");
    assert!(tenant.rebalance_active(), "the tenant policy must fire");

    while sync.rebalance_step().unwrap() {}
    while tenant.rebalance_step().unwrap() {}
    let sync_report = sync.take_rebalance_report().expect("sync report");
    let async_report = tenant.take_rebalance_report().expect("tenant report");
    assert_same_report(&sync_report, &async_report, "auto session");
    assert!(sync_report.migrated_objects > 0);
    assert_eq!(
        sync.auto_rebalance().map(RebalancePolicy::cooldown),
        tenant.auto_rebalance().map(RebalancePolicy::cooldown),
        "both policies back off after the session"
    );
    assert_eq!(sync.extents().unwrap(), tenant.extents().unwrap());
    sync.shutdown().unwrap();
    tenant.shutdown().unwrap();
    fleet.shutdown();
}

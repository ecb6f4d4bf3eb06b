//! The routing layer's contract under rebalancing and resizing.
//!
//! Three levels of assurance:
//!
//! * Property tests: an engine with *interleaved*
//!   `rebalance()` / `resize_shards()` calls between workload segments —
//!   and, separately, with an *online* rebalance session stepped between
//!   serving segments — is observationally equivalent to an unsharded
//!   standalone replay: no object lost or duplicated, every live id routed
//!   to the shard that actually owns it, identical final object set (ids
//!   and sizes), identical object *bytes* (every engine is substrate-backed,
//!   so each quiesce also byte-verifies every shard, and migrations are real
//!   checksummed cross-window copies), and the aggregate footprint within
//!   `(1+ε)·Σ V_i + N·∆` (checked at *every batch boundary* in the online
//!   test) — for all three paper variants.
//! * The acceptance scenarios: a skewed-delete workload drives the shard
//!   imbalance of a default `Engine::new` engine above 2×; it is repaired
//!   to below 1.25× by one barrier `rebalance()` — and by an online
//!   session that migrates in bounded batches while serving continues.
//! * The driver loop: an auto-rebalance policy installed on the engine
//!   fires by itself once imbalance has breached τ for k observations and
//!   repairs the fleet without any explicit rebalance call.

use std::collections::BTreeMap;

use proptest::prelude::*;
use storage_realloc::engine::rendezvous_shard;
use storage_realloc::prelude::*;
use storage_realloc::workloads::churn::{skewed_churn, skewed_churn_release, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

const VARIANTS: [&str; 3] = ["cost-oblivious", "checkpointed", "deamortized"];

fn build(variant: &str, eps: f64) -> Box<dyn Reallocator + Send> {
    match variant {
        "cost-oblivious" => Box::new(CostObliviousReallocator::new(eps)),
        "checkpointed" => Box::new(CheckpointedReallocator::new(eps)),
        "deamortized" => Box::new(DeamortizedReallocator::new(eps)),
        other => panic!("unknown variant {other}"),
    }
}

/// Compact request-sequence encoding shared with the other proptest suites:
/// positive numbers insert an object of that size, zero deletes the oldest
/// live object.
fn op_sequence() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 1u64..=600,
            1 => Just(0u64),
        ],
        1..200,
    )
}

fn materialize(ops: &[u64]) -> Workload {
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
    Workload::new("prop sequence", requests)
}

/// The unsharded truth: the final live object set of a request sequence.
fn reference_set(workload: &Workload) -> BTreeMap<ObjectId, u64> {
    let mut reference = BTreeMap::new();
    for req in &workload.requests {
        match *req {
            Request::Insert { id, size } => {
                reference.insert(id, size);
            }
            Request::Delete { id } => {
                reference.remove(&id);
            }
        }
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Interleaving rebalances and resizes with serving must not change
    /// what the engine *is*: the same object set as an unsharded replay,
    /// correctly routed, within the aggregate footprint bound.
    #[test]
    fn interleaved_rebalance_resize_is_observationally_equivalent(
        ops in op_sequence(),
        eps in 0.1f64..=0.5,
        shards in 1usize..=3,
        actions in prop::collection::vec(0u8..4u8, 1..4),
    ) {
        let workload = materialize(&ops);
        let reference = reference_set(&workload);

        for variant in VARIANTS {
            let mut engine = Engine::new(
                EngineConfig {
                    batch: 16,
                    queue_depth: 2,
                    ..EngineConfig::with_shards(shards)
                }
                .with_substrate(SubstrateConfig::default()),
                |_| build(variant, eps),
            );

            // Serve in segments with a rebalance or resize between each.
            let segments = actions.len() + 1;
            let chunk = workload.len().div_ceil(segments).max(1);
            let mut chunks = workload.requests.chunks(chunk);
            if let Some(first) = chunks.next() {
                engine.drive(&Workload::new("seg", first.to_vec())).expect("drive");
            }
            for (&action, seg) in actions.iter().zip(&mut chunks) {
                match action {
                    0 => {
                        engine.rebalance(RebalanceOptions::default()).expect("rebalance");
                    }
                    1 => {
                        engine.rebalance(RebalanceOptions::with_defrag(eps)).expect("rebalance+defrag");
                    }
                    2 => {
                        let to = engine.shards() + 1;
                        engine.resize_shards(to, |_| build(variant, eps)).expect("grow");
                    }
                    _ => {
                        let to = engine.shards().saturating_sub(1).max(1);
                        engine.resize_shards(to, |_| build(variant, eps)).expect("shrink");
                    }
                }
                engine.drive(&Workload::new("seg", seg.to_vec())).expect("drive");
            }
            // Any chunks left (when a drained iterator had fewer segments).
            for seg in chunks {
                engine.drive(&Workload::new("seg", seg.to_vec())).expect("drive");
            }

            let stats = engine.quiesce().expect("quiesce");
            let extents = engine.extents().expect("extents");

            // Same final object set as the unsharded replay: every id on
            // exactly one shard, with its original size, nothing extra.
            let mut seen = BTreeMap::new();
            for (shard, list) in extents.iter().enumerate() {
                for &(id, extent) in list {
                    prop_assert!(
                        seen.insert(id, extent.len).is_none(),
                        "{variant}: {id} lives on two shards"
                    );
                    prop_assert_eq!(
                        engine.shard_of(id), shard,
                        "{}: {} owned by shard {} but routed elsewhere", variant, id, shard
                    );
                }
            }
            prop_assert_eq!(&seen, &reference, "{}: object set diverged", variant);
            // Same bytes as an unsharded replay would hold: every object's
            // substrate cells are its deterministic pattern, even after
            // arbitrary interleavings of migrations and resizes.
            for list in &engine.substrate_contents().expect("contents") {
                for (id, bytes) in list {
                    prop_assert_eq!(
                        bytes, &pattern_for(*id, bytes.len() as u64),
                        "{}: {} holds foreign bytes", variant, id
                    );
                }
            }
            prop_assert_eq!(stats.live_count(), reference.len(), "{}", variant);
            prop_assert_eq!(
                stats.live_volume(),
                reference.values().sum::<u64>(),
                "{}", variant
            );

            // The aggregate footprint bound survives migration traffic.
            let n = stats.shards() as u64;
            let bound = (1.0 + eps) * stats.live_volume() as f64
                + (n * stats.max_object_size()) as f64;
            prop_assert!(
                stats.footprint() as f64 <= bound + 1e-9,
                "{}: footprint {} > (1+ε)·ΣV + N·∆ = {}", variant, stats.footprint(), bound
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Online rebalancing interleaved with serving must not change what
    /// the engine *is* either — and because the session advances in
    /// bounded batches, the aggregate footprint bound is checked at
    /// *every batch boundary*, not just at the end.
    #[test]
    fn interleaved_online_rebalance_is_observationally_equivalent(
        ops in op_sequence(),
        eps in 0.1f64..=0.5,
        shards in 2usize..=4,
        batch_objects in 1usize..=8,
    ) {
        // (The vendored proptest caps strategies at 4-tuples; vary the
        // trigger point with the batch bound instead of a 5th parameter.)
        let start_segment = batch_objects % 3;
        let workload = materialize(&ops);
        let reference = reference_set(&workload);

        for variant in VARIANTS {
            let mut engine = Engine::new(
                EngineConfig {
                    batch: 16,
                    queue_depth: 2,
                    ..EngineConfig::with_shards(shards)
                }
                .with_substrate(SubstrateConfig::default()),
                |_| build(variant, eps),
            );

            let segments = 4;
            let chunk = workload.len().div_ceil(segments).max(1);
            let bound_holds = |engine: &mut Engine| -> Result<(), TestCaseError> {
                let stats = engine.quiesce().expect("quiesce");
                let n = stats.shards() as u64;
                let bound = (1.0 + eps) * stats.live_volume() as f64
                    + (n * stats.max_object_size()) as f64;
                prop_assert!(
                    stats.footprint() as f64 <= bound + 1e-9,
                    "footprint {} > (1+ε)·ΣV + N·∆ = {}", stats.footprint(), bound
                );
                Ok(())
            };

            let mut started = false;
            for (i, seg) in workload.requests.chunks(chunk).enumerate() {
                // While the session is active, drive() serves through the
                // route-at-enqueue path and advances the migration itself —
                // serving and migrating genuinely interleave here.
                engine.drive(&Workload::new("seg", seg.to_vec())).expect("drive");
                if i == start_segment {
                    let plan = engine
                        .rebalance_online(
                            RebalanceOptions::default().batched(batch_objects),
                        )
                        .expect("plan");
                    prop_assert_eq!(
                        plan.batches,
                        plan.objects.div_ceil(batch_objects as u64)
                    );
                    started = true;
                }
                // One explicit step per segment, with the footprint bound
                // checked at the batch boundary; the rest of the plan
                // drains inside the following segments' serving.
                if engine.rebalance_step().expect("step") {
                    bound_holds(&mut engine)?;
                }
            }
            // Drain whatever is left, still checking every batch boundary.
            while engine.rebalance_step().expect("step") {
                bound_holds(&mut engine)?;
            }
            if started {
                let report = engine.take_rebalance_report().expect("completed session");
                prop_assert_eq!(report.mode, RebalanceMode::Online, "{}", variant);
            }
            bound_holds(&mut engine)?;

            // Same final object set as the unsharded replay.
            let extents = engine.extents().expect("extents");
            let mut seen = BTreeMap::new();
            for (shard, list) in extents.iter().enumerate() {
                for &(id, extent) in list {
                    prop_assert!(
                        seen.insert(id, extent.len).is_none(),
                        "{variant}: {id} lives on two shards"
                    );
                    prop_assert_eq!(
                        engine.shard_of(id), shard,
                        "{}: {} owned by shard {} but routed elsewhere", variant, id, shard
                    );
                }
            }
            prop_assert_eq!(&seen, &reference, "{}: object set diverged", variant);
            for list in &engine.substrate_contents().expect("contents") {
                for (id, bytes) in list {
                    prop_assert_eq!(
                        bytes, &pattern_for(*id, bytes.len() as u64),
                        "{}: {} corrupted by an online migration", variant, id
                    );
                }
            }
        }
    }
}

/// The acceptance scenario: skewed deletes push the imbalance of a default
/// engine — hash-routed until something is pinned — past 2×; one barrier
/// rebalance pulls it under 1.25, and so does an online session.
#[test]
fn skewed_deletes_hash_imbalance_repaired_by_table_rebalance() {
    const SHARDS: usize = 4;
    const EPS: f64 = 0.25;
    let config = ChurnConfig {
        dist: SizeDist::Uniform { lo: 1, hi: 64 },
        target_volume: 6_000,
        churn_ops: 3_000,
        seed: 20_140_623,
    };
    let workload = skewed_churn(&config, |id| rendezvous_shard(id, SHARDS) == 0);

    for (variant, online) in VARIANTS.into_iter().flat_map(|v| [(v, false), (v, true)]) {
        let mut engine = Engine::new(EngineConfig::with_shards(SHARDS), |_| build(variant, EPS));
        engine.drive(&workload).expect("drive");
        let before = engine.quiesce().expect("quiesce");
        assert!(
            before.imbalance_ratio() > 2.0,
            "{variant}: skew too weak ({})",
            before.imbalance_ratio()
        );

        let report = if online {
            engine
                .rebalance_online(RebalanceOptions::default())
                .expect("plan");
            while engine.rebalance_step().expect("step") {}
            engine.take_rebalance_report().expect("report")
        } else {
            engine
                .rebalance(RebalanceOptions::default())
                .expect("rebalance")
        };
        assert!(
            report.after.imbalance_ratio() < 1.25,
            "{variant} ({} mode): imbalance {} after rebalance",
            report.mode,
            report.after.imbalance_ratio()
        );
        assert!(report.migrated_objects > 0);
        assert_eq!(
            report.after.live_volume(),
            before.live_volume(),
            "{variant}: rebalance changed the live volume"
        );
        assert_eq!(report.after.live_count(), before.live_count());

        // The re-homed population is still fully servable: delete it all.
        let extents = engine.extents().expect("extents");
        for list in &extents {
            for &(id, _) in list {
                engine.delete(id).expect("delete");
            }
        }
        let empty = engine.quiesce().expect("final quiesce");
        assert_eq!(
            empty.errors(),
            0,
            "{variant}: stale routing after rebalance"
        );
        assert_eq!(empty.live_count(), 0);
    }
}

/// The online acceptance scenario: the same skew repaired to < 1.25× by a
/// rebalance that never quiesces the fleet — the migration drains in
/// bounded batches while a whole second phase of (released, neutral) churn
/// is being served, and nothing is lost.
#[test]
fn skewed_deletes_repaired_by_online_rebalance_while_serving() {
    const SHARDS: usize = 4;
    const EPS: f64 = 0.25;
    let config = ChurnConfig {
        dist: SizeDist::Uniform { lo: 1, hi: 64 },
        target_volume: 6_000,
        churn_ops: 6_000,
        seed: 20_140_623,
    };
    // Skew for the first half of the churn, neutral traffic after — the
    // rebalance runs during the neutral phase.
    let workload = skewed_churn_release(&config, |id| rendezvous_shard(id, SHARDS) == 0, 3_000);
    let reference = reference_set(&workload);
    let skew_requests = workload.len() - 3_000;

    for variant in VARIANTS {
        let mut engine = Engine::new(
            EngineConfig::with_shards(SHARDS).with_substrate(SubstrateConfig::default()),
            |_| build(variant, EPS),
        );
        engine
            .drive(&Workload::new(
                "skew",
                workload.requests[..skew_requests].to_vec(),
            ))
            .expect("drive skew phase");
        let before = engine.quiesce().expect("quiesce");
        assert!(
            before.imbalance_ratio() > 2.0,
            "{variant}: skew too weak ({})",
            before.imbalance_ratio()
        );

        let plan = engine
            .rebalance_online(RebalanceOptions::default().batched(16))
            .expect("plan");
        assert!(plan.objects > 16, "{variant}: trivial plan");
        // Serve the whole neutral phase while the session drains.
        engine
            .drive(&Workload::new(
                "neutral",
                workload.requests[skew_requests..].to_vec(),
            ))
            .expect("drive neutral phase");
        while engine.rebalance_step().expect("step") {}
        let report = engine.take_rebalance_report().expect("report");
        assert_eq!(report.mode, RebalanceMode::Online);
        assert!(report.batches > 1, "{variant}: not incremental");
        assert!(
            report.after.imbalance_ratio() < 1.25,
            "{variant}: imbalance {} after online rebalance",
            report.after.imbalance_ratio()
        );

        // Observational equivalence with the unsharded replay, after a
        // rebalance raced an entire churn phase.
        let stats = engine.quiesce().expect("quiesce");
        assert_eq!(stats.errors(), 0, "{variant}: online migration errored");
        let extents = engine.extents().expect("extents");
        let mut seen = BTreeMap::new();
        for (shard, list) in extents.iter().enumerate() {
            for &(id, extent) in list {
                assert!(seen.insert(id, extent.len).is_none(), "{id} on two shards");
                assert_eq!(engine.shard_of(id), shard, "{variant}: {id} misrouted");
            }
        }
        assert_eq!(seen, reference, "{variant}: object set diverged");
        // The migration physically moved the bytes: ledger volume equals
        // cells copied across address spaces, and everything verifies.
        assert_eq!(stats.bytes_migrated_out(), stats.bytes_migrated_in());
        assert!(stats.bytes_migrated_in() >= report.migrated_volume);
        for r in engine.verify_substrate().expect("verify") {
            assert!(r.error.is_none(), "{variant}: {:?}", r.error);
        }
    }
}

/// The driver loop closed: an installed policy notices the skew at barrier
/// observations, fires an online session on its own, and the fleet
/// converges — no explicit rebalance call anywhere.
#[test]
fn auto_rebalance_policy_repairs_skew_without_explicit_calls() {
    const SHARDS: usize = 4;
    const EPS: f64 = 0.25;
    const OBSERVE_EVERY: usize = 1_024;
    let config = ChurnConfig {
        dist: SizeDist::Uniform { lo: 1, hi: 64 },
        target_volume: 6_000,
        churn_ops: 6_000,
        seed: 7,
    };
    let workload = skewed_churn_release(&config, |id| rendezvous_shard(id, SHARDS) == 0, 3_000);

    let mut engine = Engine::new(EngineConfig::with_shards(SHARDS), |_| {
        build("cost-oblivious", EPS)
    });
    engine.set_auto_rebalance(
        RebalancePolicy::new(1.5, 2, 2),
        RebalanceOptions::default().batched(32),
    );

    let mut fired = 0u32;
    let mut completed = 0u32;
    for chunk in workload.requests.chunks(OBSERVE_EVERY) {
        engine
            .drive(&Workload::new("chunk", chunk.to_vec()))
            .expect("drive");
        let was_active = engine.rebalance_active();
        engine.snapshot().expect("snapshot");
        if !was_active && engine.rebalance_active() {
            fired += 1;
        }
        if let Some(report) = engine.take_rebalance_report() {
            assert_eq!(report.mode, RebalanceMode::Online);
            assert!(report.migrated_objects > 0, "policy fired a no-op");
            completed += 1;
        }
    }
    while engine.rebalance_step().expect("step") {}
    if engine.take_rebalance_report().is_some() {
        completed += 1;
    }
    assert!(fired >= 1, "the policy never fired on a >2x skew");
    assert_eq!(completed, fired, "every fired session must complete");

    let stats = engine.quiesce().expect("quiesce");
    assert!(
        stats.imbalance_ratio() < 1.5,
        "fleet still imbalanced ({}) after auto-rebalance",
        stats.imbalance_ratio()
    );
    assert_eq!(stats.errors(), 0);
}

/// Resizing reuses the migration machinery and leaves an unpinned table
/// unpinned: a default engine grows and shrinks by moving exactly the ids
/// whose rendezvous shard changes.
#[test]
fn hash_routed_engine_resizes_by_mass_migration() {
    let workload = realloc_bench::standard_churn(8_000, 2_000, 3);
    let reference = reference_set(&workload);
    let mut engine = Engine::new(EngineConfig::with_shards(2), |_| {
        build("cost-oblivious", 0.25)
    });
    engine.drive(&workload).expect("drive");
    engine
        .resize_shards(5, |_| build("cost-oblivious", 0.25))
        .expect("grow");
    engine
        .resize_shards(3, |_| build("cost-oblivious", 0.25))
        .expect("shrink");
    let stats = engine.quiesce().expect("quiesce");
    assert_eq!(stats.shards(), 3);
    assert_eq!(stats.live_count(), reference.len());
    assert_eq!(engine.router().assignments(), 0);
    let extents = engine.extents().expect("extents");
    for (shard, list) in extents.iter().enumerate() {
        for &(id, extent) in list {
            assert_eq!(rendezvous_shard(id, 3), shard, "{id} not on its hash shard");
            assert_eq!(reference.get(&id), Some(&extent.len));
        }
    }
    // Retired shards' request history survives to shutdown.
    let finals = engine.shutdown().expect("shutdown");
    assert_eq!(finals.len(), 3 + 2);
    let served: u64 = finals.iter().map(|f| f.stats.requests).sum();
    assert_eq!(served as usize, workload.len());
}

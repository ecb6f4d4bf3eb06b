//! Observational equivalence of the sharded engine.
//!
//! Because requests for one object always hash to the same shard, a
//! sharded run is — by construction — the same computation as replaying
//! each shard's sub-sequence on a standalone reallocator. These tests
//! check that the construction actually holds for every paper variant in
//! the [`VARIANTS`] registry: same extents per shard, same space telemetry,
//! the same *physical bytes* (each shard runs a byte-carrying substrate,
//! compared against an unsharded `DataStore` replay of its sub-sequence),
//! no object lost or duplicated after `quiesce`, and bitwise-identical
//! `EngineStats` across repeat runs.

use proptest::prelude::*;
use storage_realloc::engine::rendezvous_shard;
use storage_realloc::prelude::*;
use storage_realloc::workloads::shard::split_with;

fn build(variant: &str, eps: f64) -> Box<dyn Reallocator + Send> {
    build_variant(variant, eps).unwrap_or_else(|| panic!("unknown variant {variant}"))
}

/// Compact request-sequence encoding shared with `prop_invariants`:
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

/// Replays `part` on a standalone reallocator — with every physical op
/// mirrored into an unsharded byte-carrying `DataStore`, the reference a
/// substrate-backed shard must match byte for byte — quiesces, and returns
/// the live-object placements (sorted by id), the reallocator, and the
/// byte store.
fn standalone_replay(
    variant: &str,
    eps: f64,
    part: &Workload,
) -> (
    Vec<(ObjectId, Extent)>,
    Box<dyn Reallocator + Send>,
    DataStore,
) {
    let mut r = build(variant, eps);
    let mut data = DataStore::new(Mode::Relaxed);
    let mut live = std::collections::BTreeSet::new();
    for req in &part.requests {
        let outcome = match *req {
            Request::Insert { id, size } => {
                let out = r.insert(id, size).expect("valid workload insert");
                live.insert(id);
                out
            }
            Request::Delete { id } => {
                let out = r.delete(id).expect("valid workload delete");
                live.remove(&id);
                out
            }
        };
        data.apply_all(&outcome.ops).expect("reference replay");
    }
    data.apply_all(&r.quiesce().ops).expect("reference drain");
    let extents = live
        .into_iter()
        .filter_map(|id| r.extent_of(id).map(|e| (id, e)))
        .collect();
    (extents, r, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A sharded engine is observationally equivalent to replaying each
    /// shard's sub-sequence standalone: identical placements, identical
    /// space telemetry, every object on exactly one shard.
    #[test]
    fn engine_equals_standalone_per_shard(
        ops in op_sequence(),
        eps in 0.1f64..=0.5,
        shards in 1usize..=4,
    ) {
        let workload = materialize(&ops);
        let parts = split_with(&workload, shards, |id| rendezvous_shard(id, shards));

        for variant in VARIANTS {
            let mut engine = Engine::new(
                EngineConfig {
                    batch: 32,
                    queue_depth: 2,
                    ..EngineConfig::with_shards(shards)
                }
                .with_substrate(SubstrateConfig::default()),
                |_| build(variant, eps),
            );
            engine.drive(&workload).expect("drive");
            // The quiesce barrier also runs each shard's substrate scan
            // (extents against the reallocator, bytes against checksums).
            let stats = engine.quiesce().expect("quiesce");
            let engine_extents = engine.extents().expect("extents");
            let engine_bytes = engine.substrate_contents().expect("contents");

            let mut total_objects = 0usize;
            for (s, part) in parts.iter().enumerate() {
                let (expected_extents, standalone, reference_bytes) =
                    standalone_replay(variant, eps, part);
                prop_assert_eq!(
                    &engine_extents[s], &expected_extents,
                    "{}: shard {} placements diverge", variant, s
                );
                // Same *bytes*, not just the same extents: the shard's
                // substrate holds exactly what the unsharded DataStore
                // replay of its sub-sequence holds.
                prop_assert_eq!(
                    engine_bytes[s].len(), expected_extents.len(),
                    "{}: shard {} byte population diverges", variant, s
                );
                for (id, bytes) in &engine_bytes[s] {
                    prop_assert_eq!(
                        Some(&bytes[..]), reference_bytes.bytes_of(*id),
                        "{}: {} bytes diverge on shard {}", variant, id, s
                    );
                }
                total_objects += expected_extents.len();

                let row = &stats.per_shard[s];
                prop_assert_eq!(row.requests as usize, part.len(), "{} shard {}", variant, s);
                prop_assert_eq!(row.live_count, standalone.live_count(), "{} shard {}", variant, s);
                prop_assert_eq!(row.live_volume, standalone.live_volume(), "{} shard {}", variant, s);
                prop_assert_eq!(row.footprint, standalone.footprint(), "{} shard {}", variant, s);
                prop_assert_eq!(
                    row.structure_size, standalone.structure_size(),
                    "{} shard {}", variant, s
                );
                prop_assert_eq!(
                    row.max_object_size, standalone.max_object_size(),
                    "{} shard {}", variant, s
                );
            }

            // No lost or duplicated objects: the union of per-shard
            // populations is exactly the reference live set.
            let mut reference = std::collections::BTreeMap::new();
            for req in &workload.requests {
                match *req {
                    Request::Insert { id, size } => { reference.insert(id, size); }
                    Request::Delete { id } => { reference.remove(&id); }
                }
            }
            prop_assert_eq!(total_objects, reference.len(), "{}: object count", variant);
            let mut seen = std::collections::BTreeSet::new();
            for (s, list) in engine_extents.iter().enumerate() {
                for &(id, extent) in list {
                    prop_assert!(seen.insert(id), "{}: {} on two shards", variant, id);
                    prop_assert_eq!(
                        Some(extent.len), reference.get(&id).copied(),
                        "{}: {} wrong size on shard {}", variant, id, s
                    );
                }
            }
        }
    }
}

/// Same seed + same shard count ⇒ bitwise-identical `EngineStats`,
/// whether the workload arrives via `drive` or request-by-request through
/// the handle API.
#[test]
fn engine_stats_are_deterministic() {
    let workload = realloc_bench::standard_churn(20_000, 5_000, 7);

    let run_drive = || {
        let mut engine = Engine::new(EngineConfig::with_shards(4), |_| {
            Box::new(CostObliviousReallocator::new(0.3)) as Box<dyn Reallocator + Send>
        });
        engine.drive(&workload).expect("drive");
        engine.quiesce().expect("quiesce")
    };
    let first = run_drive();
    let second = run_drive();
    assert_eq!(
        first, second,
        "same seed + shard count must give identical stats"
    );

    // The handle path batches differently (request arrival order instead of
    // round-robin over pre-split streams), so batch counts may differ — but
    // every per-shard serving outcome must match.
    let mut engine = Engine::new(EngineConfig::with_shards(4), |_| {
        Box::new(CostObliviousReallocator::new(0.3)) as Box<dyn Reallocator + Send>
    });
    for req in &workload.requests {
        match *req {
            Request::Insert { id, size } => engine.insert(id, size).expect("insert"),
            Request::Delete { id } => engine.delete(id).expect("delete"),
        }
    }
    let third = engine.quiesce().expect("quiesce");
    for (a, b) in first.per_shard.iter().zip(&third.per_shard) {
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.live_count, b.live_count);
        assert_eq!(a.live_volume, b.live_volume);
        assert_eq!(a.footprint, b.footprint);
        assert_eq!(a.structure_size, b.structure_size);
        assert_eq!(a.max_object_size, b.max_object_size);
        assert_eq!(a.total_moves, b.total_moves);
        assert_eq!(a.total_moved_volume, b.total_moved_volume);
    }
}

/// The engine serves a mixed fleet: different algorithms on different
/// shards (e.g. migrating a service variant by variant) still satisfy
/// per-shard guarantees and exact liveness.
#[test]
fn mixed_variant_fleet_serves_correctly() {
    let workload = realloc_bench::standard_churn(10_000, 2_000, 11);
    let mut engine = Engine::new(EngineConfig::with_shards(VARIANTS.len()), |shard| {
        build(VARIANTS[shard % VARIANTS.len()], 0.25)
    });
    engine.drive(&workload).expect("drive");
    let stats = engine.quiesce().expect("quiesce");

    let mut reference_volume = 0u64;
    let mut reference_count = 0usize;
    {
        let mut sizes = std::collections::HashMap::new();
        for req in &workload.requests {
            match *req {
                Request::Insert { id, size } => {
                    sizes.insert(id, size);
                }
                Request::Delete { id } => {
                    sizes.remove(&id);
                }
            }
        }
        for &size in sizes.values() {
            reference_volume += size;
            reference_count += 1;
        }
    }
    assert_eq!(stats.live_volume(), reference_volume);
    assert_eq!(stats.live_count(), reference_count);
    let names: Vec<&str> = stats.per_shard.iter().map(|s| s.algorithm).collect();
    assert_eq!(
        names,
        vec![
            "cost-oblivious",
            "cost-oblivious-ckpt",
            "cost-oblivious-deamortized",
            "nearly-quadratic"
        ]
    );
    for row in &stats.per_shard {
        assert!(
            row.structure_size as f64 <= 1.25 * row.live_volume as f64 + row.max_object_size as f64,
            "shard {} ({}): structure {} vs volume {}",
            row.shard,
            row.algorithm,
            row.structure_size,
            row.live_volume
        );
    }
}

//! Property-based durability tests: the §3 op streams replayed against the
//! strict substrate with crashes at arbitrary points, plus substrate
//! self-checks on randomly generated valid op streams.

use std::collections::BTreeMap;

use proptest::prelude::*;
use storage_realloc::prelude::*;

fn op_sequence() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 1u64..=400,
            1 => Just(0u64),
        ],
        1..180,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The checkpointed reallocator's stream passes the strict rules and a
    /// crash after a random prefix of *ops* (not just requests) recovers
    /// every durably-mapped object.
    #[test]
    fn crash_at_any_op_boundary_is_recoverable(
        ops in op_sequence(),
        crash_at in 0usize..10_000,
    ) {
        let mut r = CheckpointedReallocator::new(0.25);
        let mut stream = Vec::new();
        for req in materialize(&ops) {
            let outcome = match req {
                Request::Insert { id, size } => r.insert(id, size).unwrap(),
                Request::Delete { id } => r.delete(id).unwrap(),
            };
            stream.extend(outcome.ops);
        }
        let cut = crash_at % (stream.len() + 1);
        let mut sim = SimStore::new(Mode::Strict);
        sim.apply_all(&stream[..cut]).unwrap();
        let report = sim.crash_and_recover();
        prop_assert!(
            report.is_durable(),
            "crash after op {cut}/{} lost {:?}",
            stream.len(),
            report.lost
        );
    }

    /// Same property for the deamortized structure, whose flushes span many
    /// requests.
    #[test]
    fn deamortized_crash_recovery(ops in op_sequence(), crash_at in 0usize..10_000) {
        let mut r = DeamortizedReallocator::new(0.25);
        let mut stream = Vec::new();
        for req in materialize(&ops) {
            let outcome = match req {
                Request::Insert { id, size } => r.insert(id, size).unwrap(),
                Request::Delete { id } => r.delete(id).unwrap(),
            };
            stream.extend(outcome.ops);
        }
        let cut = crash_at % (stream.len() + 1);
        let mut sim = SimStore::new(Mode::Strict);
        sim.apply_all(&stream[..cut]).unwrap();
        prop_assert!(sim.crash_and_recover().is_durable());
    }

    /// The incremental checkpoint is exact: after every barrier in a strict
    /// variant's stream, the durable map equals the live map at that
    /// barrier and no ghost survives it.
    #[test]
    fn checkpoint_makes_the_live_map_durable(ops in op_sequence()) {
        for variant in VARIANTS.into_iter().filter(|v| variant_is_strict_safe(v)) {
            let mut r = build_variant(variant, 0.25).unwrap();
            let mut sim = SimStore::new(Mode::Strict);
            for req in materialize(&ops) {
                let outcome = match req {
                    Request::Insert { id, size } => r.insert(id, size).unwrap(),
                    Request::Delete { id } => r.delete(id).unwrap(),
                };
                for op in &outcome.ops {
                    let live: Option<BTreeMap<ObjectId, Extent>> =
                        matches!(op, StorageOp::CheckpointBarrier).then(|| {
                            sim.live_spans().into_iter().map(|(e, id)| (id, e)).collect()
                        });
                    sim.apply(op).unwrap();
                    if let Some(live) = live {
                        let durable: BTreeMap<ObjectId, Extent> =
                            sim.durable_btl().iter().map(|(&id, &e)| (id, e)).collect();
                        prop_assert_eq!(durable, live, "{} at barrier {}", variant, sim.epoch());
                        prop_assert!(sim.ghost_spans().is_empty(), "{}", variant);
                    }
                }
            }
        }
    }

    /// Substrate self-check: ghosts never overlap live spans, and the
    /// footprint never exceeds the peak physical end.
    #[test]
    fn substrate_span_accounting(ops in op_sequence()) {
        let mut r = CheckpointedReallocator::new(0.5);
        let mut sim = SimStore::new(Mode::Strict);
        for req in materialize(&ops) {
            let outcome = match req {
                Request::Insert { id, size } => r.insert(id, size).unwrap(),
                Request::Delete { id } => r.delete(id).unwrap(),
            };
            sim.apply_all(&outcome.ops).unwrap();
            let mut spans: Vec<Extent> = sim.live_spans().iter().map(|&(e, _)| e).collect();
            spans.extend(sim.ghost_spans().iter().map(|&(e, _, _)| e));
            spans.sort_by_key(|e| e.offset);
            for pair in spans.windows(2) {
                prop_assert!(!pair[0].overlaps(&pair[1]));
            }
            prop_assert!(sim.footprint() <= sim.peak_physical_end());
        }
        sim.verify_matches(|id| r.extent_of(id)).unwrap();
    }
}

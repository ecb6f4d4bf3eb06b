//! Property-based durability tests: the §3 op streams replayed against the
//! strict substrate with crashes at arbitrary points, substrate self-checks
//! on randomly generated valid op streams, and the byte-carrying store's
//! one-bit-per-cell occupancy index checked against the bare store's span
//! index on random valid and invalid ops.

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

/// One random op step: `(kind, pick, offset, len)`, decoded by [`decode`].
type Step = (u8, u64, u64, u64);

/// Op steps on a small address range (offsets below 512, lengths 0–130),
/// so extents straddle word edges and clash often.
fn op_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..13, 0u64..12, 0u64..512, 0u64..=130), 1..200)
}

/// Turns a step into an op against `sim`'s current placements: valid ops
/// mixed with duplicate allocations, wrong sources, self-overlapping,
/// clobbering and resizing moves, writes into freed space or past the
/// window, and checkpoints.
fn decode(sim: &SimStore, (kind, pick, offset, len): Step) -> StorageOp {
    let random = Extent::new(offset, len);
    // Moves and frees name a live object (any id while none is live).
    let live = sim.live_spans();
    let (source, id) = match live.len() {
        0 => (random, ObjectId(pick)),
        n => live[pick as usize % n],
    };
    match kind {
        0..=2 => StorageOp::Allocate {
            id: ObjectId(pick),
            to: random,
        },
        3..=5 => StorageOp::Move {
            id,
            from: source,
            to: source.at(offset),
        },
        // A target within 32 cells of the source: usually self-overlapping.
        6 => StorageOp::Move {
            id,
            from: source,
            to: source.at((source.offset + offset % 64).saturating_sub(32)),
        },
        7 => StorageOp::Move {
            id,
            from: source.at(source.offset + 1),
            to: source.at(offset),
        },
        8 | 9 => StorageOp::Free { id, at: source },
        10 => StorageOp::Free {
            id,
            at: Extent::new(source.offset, source.len + 1),
        },
        // A target of a random length: usually not the source's.
        11 => StorageOp::Move {
            id,
            from: source,
            to: random,
        },
        _ => StorageOp::CheckpointBarrier,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A byte-carrying store's cell index and a bare store's span index
    /// give the same verdict on every op and leave the same state behind,
    /// in both modes, windowed or not.
    #[test]
    fn cell_index_matches_span_index(
        steps in op_steps(),
        strict in 0u8..2,
        window_span in prop_oneof![Just(0u64), 200u64..=700],
    ) {
        let mode = if strict == 1 { Mode::Strict } else { Mode::Relaxed };
        let (mut sim, mut data) = match window_span {
            0 => (SimStore::new(mode), DataStore::new(mode)),
            span => {
                let window = AddressWindow::new(1 << 40, span);
                (SimStore::windowed(mode, window), DataStore::windowed(mode, window))
            }
        };
        for (i, &step) in steps.iter().enumerate() {
            let op = decode(&sim, step);
            prop_assert_eq!(sim.apply(&op), data.apply(&op), "op {}: {:?}", i, op);
            let rules = data.rules();
            prop_assert_eq!(sim.live_spans(), rules.live_spans(), "op {}", i);
            prop_assert_eq!(sim.ghost_spans(), rules.ghost_spans(), "op {}", i);
            prop_assert_eq!(sim.durable_btl(), rules.durable_btl(), "op {}", i);
            prop_assert_eq!(sim.peak_physical_end(), rules.peak_physical_end(), "op {}", i);
            let (bare, cells) = (sim.crash_and_recover(), rules.crash_and_recover());
            prop_assert_eq!(bare.recovered, cells.recovered, "op {}", i);
            prop_assert_eq!(bare.lost, cells.lost, "op {}", i);
            prop_assert_eq!(data.verify_all(), Ok(()), "op {}", i);
        }
    }

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

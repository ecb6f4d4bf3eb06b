//! The batch planner changes *how* a batch executes, never *what* it
//! computes: a coalescing engine must be observationally equivalent to the
//! same engine replaying the raw request stream.
//!
//! Three proofs:
//!
//! * a property test drives randomized coalescible traffic (same-id
//!   delete+reinsert touches, insert-then-delete transients, plain churn)
//!   through a coalescing and an uncoalesced engine for every paper
//!   variant in the [`VARIANTS`] registry, and demands the same object
//!   population, the same per-object substrate bytes, the same space
//!   telemetry, and the same ack count at *every* quiesce barrier — not
//!   just at the end;
//! * predicted errors: the planner simulates batch liveness to report
//!   request errors at their raw stream offsets, so an invalid stream
//!   must fail the barrier under coalescing exactly as it does without;
//! * a crash-matrix-style cut *inside* the WAL group of a heavily
//!   coalesced batch: the WAL logs the planned ops (elided requests never
//!   reach it), group commit is atomic, and recovery from a cut at the
//!   previous boundary and a torn cut mid-group land in the identical
//!   pre-batch state.
//!
//! Placements within a shard may legitimately differ between the two
//! engines (elision changes the physical op sequence), so equivalence is
//! the object population and its bytes, not extent addresses.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use storage_realloc::prelude::*;
use storage_realloc::sim::read_wal;
use storage_realloc::sim::wal::wal_path;
use storage_realloc::sim::WalRecord;
use storage_realloc::workloads::churn::{coalescible_churn, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

fn build(variant: &str, eps: f64) -> Box<dyn Reallocator + Send> {
    build_variant(variant, eps).unwrap_or_else(|| panic!("unknown variant {variant}"))
}

/// Op encoding for the property strategy: `(kind, size)` where kind 0
/// inserts fresh, 1 deletes the oldest live object, 2 *touches* the oldest
/// live object (delete + reinsert of the same id at `size`), 3 inserts a
/// transient object and deletes it on the very next request.
fn op_sequence() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..4, 1u64..=400), 1..150)
}

/// Materializes the op encoding.
fn materialize(ops: &[(u8, u64)]) -> Workload {
    let mut requests = Vec::new();
    let mut live = std::collections::VecDeque::new();
    let mut next = 0u64;
    let fresh = |requests: &mut Vec<Request>,
                 live: &mut std::collections::VecDeque<ObjectId>,
                 next: &mut u64,
                 size: u64| {
        let id = ObjectId(*next);
        *next += 1;
        live.push_back(id);
        requests.push(Request::Insert { id, size });
    };
    for &(kind, size) in ops {
        match kind {
            0 => fresh(&mut requests, &mut live, &mut next, size),
            1 => {
                if let Some(id) = live.pop_front() {
                    requests.push(Request::Delete { id });
                }
            }
            2 => {
                if let Some(id) = live.pop_front() {
                    requests.push(Request::Delete { id });
                    requests.push(Request::Insert { id, size });
                    live.push_back(id);
                } else {
                    fresh(&mut requests, &mut live, &mut next, size);
                }
            }
            _ => {
                let id = ObjectId(next);
                next += 1;
                requests.push(Request::Insert { id, size });
                requests.push(Request::Delete { id });
            }
        }
    }
    Workload::new("coalescible prop sequence", requests)
}

fn engine_for(variant: &str, shards: usize, coalesce: bool) -> Engine {
    let mut config = EngineConfig {
        batch: 16,
        queue_depth: 2,
        ..EngineConfig::with_shards(shards)
    }
    .with_substrate(SubstrateConfig::default());
    if coalesce {
        config = config.coalescing();
    }
    Engine::new(config, |_| build(variant, 0.25))
}

/// The observable state both engines must agree on at a barrier: every
/// live object's size and bytes (union over shards — both engines route
/// identically, so shard-local populations agree iff the unions do).
fn observe(engine: &mut Engine) -> BTreeMap<ObjectId, (u64, Vec<u8>)> {
    let extents = engine.extents().expect("extents");
    let contents = engine.substrate_contents().expect("contents");
    let mut state = BTreeMap::new();
    for (shard, list) in extents.into_iter().enumerate() {
        let bytes: BTreeMap<ObjectId, Vec<u8>> = contents[shard].iter().cloned().collect();
        for (id, extent) in list {
            let body = bytes.get(&id).expect("live object has bytes").clone();
            assert!(state.insert(id, (extent.len, body)).is_none());
        }
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Coalescing engine ≡ uncoalesced replay, for every variant, at every
    /// quiesce: same object set, same sizes, same substrate bytes, same
    /// telemetry, every request acked.
    #[test]
    fn coalescing_is_observationally_equivalent(
        ops in op_sequence(),
        shards in 1usize..=3,
    ) {
        for variant in VARIANTS {
            let workload = materialize(&ops);
            let mut raw = engine_for(variant, shards, false);
            let mut planned = engine_for(variant, shards, true);
            // Two segments, a barrier after each: equivalence must hold at
            // intermediate quiesces, not just after the full stream.
            let mid = workload.len() / 2;
            for segment in [&workload.requests[..mid], &workload.requests[mid..]] {
                let part = Workload::new("segment", segment.to_vec());
                raw.drive(&part).expect("raw drive");
                planned.drive(&part).expect("planned drive");
                let raw_stats = raw.quiesce().expect("raw quiesce");
                let planned_stats = planned.quiesce().expect("planned quiesce");
                prop_assert_eq!(
                    observe(&mut raw), observe(&mut planned),
                    "{}: object population diverges", variant
                );
                prop_assert_eq!(
                    raw_stats.live_volume(), planned_stats.live_volume(),
                    "{}: volume diverges", variant
                );
                prop_assert_eq!(
                    raw_stats.live_count(), planned_stats.live_count(),
                    "{}: count diverges", variant
                );
                // Ack semantics: every raw request is acked and counted,
                // coalesced or not.
                prop_assert_eq!(
                    raw_stats.requests(), planned_stats.requests(),
                    "{}: ack count diverges", variant
                );
            }
            raw.shutdown().expect("raw shutdown");
            planned.shutdown().expect("planned shutdown");
        }
    }
}

/// The planner predicts request errors by simulating batch liveness, so an
/// invalid stream fails the barrier under coalescing exactly like the raw
/// path — at the same request indices.
#[test]
fn predicted_errors_match_raw_errors() {
    for coalesce in [false, true] {
        let mut engine = engine_for("cost-oblivious", 1, coalesce);
        engine.insert(ObjectId(1), 8).unwrap();
        engine.insert(ObjectId(1), 8).unwrap(); // duplicate
        engine.delete(ObjectId(2)).unwrap(); // unknown
        engine.insert(ObjectId(3), 16).unwrap(); // fine
        let err = engine
            .quiesce()
            .expect_err("invalid stream must fail the barrier");
        match err {
            EngineError::Request { shard, index, .. } => {
                assert_eq!(shard, 0, "coalesce={coalesce}");
                assert_eq!(
                    index, 1,
                    "coalesce={coalesce}: first error at the wrong raw offset"
                );
            }
            other => panic!("coalesce={coalesce}: unexpected error {other}"),
        }
        // A metrics scrape observes the degraded fleet without failing:
        // both error counts, every request acked, the valid state intact.
        let scrape = engine.metrics().expect("scrape survives errors");
        assert_eq!(scrape.stats.errors(), 2, "coalesce={coalesce}");
        assert_eq!(
            scrape.stats.requests(),
            4,
            "coalesce={coalesce}: every request acked"
        );
        assert_eq!(scrape.stats.live_count(), 2, "coalesce={coalesce}");
        // Shutdown's own barrier re-surfaces the sticky error; the fleet
        // still tears down.
        let _ = engine.shutdown();
    }
}

const WAL_SHARDS: usize = 2;

fn wal_config() -> EngineConfig {
    let mut config = EngineConfig::with_shards(WAL_SHARDS)
        .with_substrate(SubstrateConfig::default())
        .coalescing();
    config.batch = 64;
    config
}

fn wal_factory(_: usize) -> BoxedReallocator {
    Box::new(CheckpointedReallocator::new(0.25))
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("realloc-bpipe-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A WAL cut *inside* the group of a coalesced batch: the group logs the
/// planned ops (elided requests never reach it), commits atomically, and a
/// torn cut mid-group recovers to the identical state as a clean cut at
/// the previous boundary — the whole batch either survives or vanishes.
#[test]
fn wal_cut_inside_coalesced_group_recovers_identically() {
    let pristine = temp_dir("pristine");
    let mut engine = Engine::with_wal(
        wal_config(),
        Box::new(TableRouter::new(WAL_SHARDS)),
        wal_factory,
        &pristine,
    )
    .unwrap();

    // Ids that all route to shard 0, so the final flush is one batch (and
    // one WAL group) on one shard.
    let router = TableRouter::new(WAL_SHARDS);
    let mut on_zero = (0u64..)
        .map(ObjectId)
        .filter(|&id| storage_realloc::common::Router::route(&router, id) == 0);
    let x = on_zero.next().unwrap();
    let y = on_zero.next().unwrap();
    let t = on_zero.next().unwrap();

    // Durable pre-batch state: X live at size 10, checkpointed, logs
    // truncated — the final batch's group is the only thing in the log.
    engine.insert(x, 10).unwrap();
    engine.quiesce().unwrap();

    // One heavily coalescible batch: a resize chain on X (4 requests →
    // delete + insert), a transient T (2 requests → nothing), a fresh Y.
    engine.delete(x).unwrap();
    engine.insert(x, 20).unwrap();
    engine.delete(x).unwrap();
    engine.insert(x, 30).unwrap();
    engine.insert(t, 5).unwrap();
    engine.delete(t).unwrap();
    engine.insert(y, 7).unwrap();
    engine.flush().unwrap();
    engine.crash();

    // The group must hold the *planned* stream: one allocation of X (at
    // its final size), none of T.
    let groups = read_wal(&wal_path(&pristine, 0)).unwrap();
    let last = groups.last().expect("the batch committed a group");
    let mut x_allocs = 0;
    for record in &last.records {
        match *record {
            WalRecord::Allocate { id, len, .. } if id == x => {
                x_allocs += 1;
                assert_eq!(len, 30, "X must be logged at its coalesced size");
            }
            WalRecord::Allocate { id, .. } | WalRecord::Free { id, .. } => {
                assert_ne!(id, t, "cancelled transient reached the WAL");
            }
            _ => {}
        }
    }
    assert_eq!(x_allocs, 1, "resize chain must log exactly one allocation");
    let boundary = groups[..groups.len() - 1]
        .last()
        .map_or(0, |g| g.end_offset);
    assert!(last.end_offset > boundary + 1, "group too small to tear");

    // Cut A: the whole last group gone. Cut B: torn one byte into it —
    // the reader discards the partial frame. Same recovered state.
    let mut states = Vec::new();
    for (tag, cut) in [("boundary", boundary), ("torn", boundary + 1)] {
        let work = temp_dir(tag);
        copy_dir(&pristine, &work);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(wal_path(&work, 0))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        let (mut recovered, report) = Engine::recover(wal_config(), &work, wal_factory)
            .unwrap_or_else(|e| panic!("{tag} cut: {e}"));
        assert_eq!(report.objects, 1, "{tag}: only pre-batch X survives");
        let state = observe(&mut recovered);
        assert_eq!(
            state.get(&x).map(|(len, _)| *len),
            Some(10),
            "{tag}: X must recover at its pre-batch size"
        );
        assert!(!state.contains_key(&y), "{tag}: Y predates no checkpoint");
        assert!(!state.contains_key(&t), "{tag}: transient T must not exist");
        states.push(state);
        recovered.shutdown().unwrap();
        std::fs::remove_dir_all(&work).unwrap();
    }
    assert_eq!(states[0], states[1], "both cuts must land identically");

    // And recovery of the *uncut* directory replays the committed group:
    // the coalesced batch is durable as planned.
    let (mut recovered, _) = Engine::recover(wal_config(), &pristine, wal_factory).unwrap();
    let state = observe(&mut recovered);
    assert_eq!(state.get(&x).map(|(len, _)| *len), Some(30));
    assert_eq!(state.get(&y).map(|(len, _)| *len), Some(7));
    assert!(!state.contains_key(&t));
    recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&pristine).unwrap();
}

/// The bench scenario in miniature: coalescible churn on the strict
/// substrate writes measurably fewer physical bytes than the raw replay of
/// the same stream, while landing the same state.
#[test]
fn coalescing_saves_substrate_writes_on_coalescible_churn() {
    let workload = coalescible_churn(&ChurnConfig {
        dist: SizeDist::Uniform { lo: 4, hi: 64 },
        target_volume: 8_000,
        churn_ops: 6_000,
        seed: 13,
    });
    assert!(workload.validate_reuse().is_ok());

    let run = |coalesce: bool| {
        let mut config = EngineConfig::with_shards(2).with_substrate(SubstrateConfig {
            mode: Mode::Strict,
            ..SubstrateConfig::default()
        });
        if coalesce {
            config = config.coalescing();
        }
        let mut engine = Engine::new(config, |_| {
            Box::new(CheckpointedReallocator::new(0.25)) as Box<dyn Reallocator + Send>
        });
        engine.drive(&workload).expect("drive");
        let stats = engine.quiesce().expect("quiesce");
        let state = observe(&mut engine);
        engine.shutdown().expect("shutdown");
        (stats, state)
    };
    let (raw_stats, raw_state) = run(false);
    let (planned_stats, planned_state) = run(true);

    assert_eq!(raw_state, planned_state, "same observable state");
    assert_eq!(raw_stats.requests(), planned_stats.requests());
    assert!(
        planned_stats.requests_coalesced() > 0,
        "the workload must actually coalesce"
    );
    assert!(
        planned_stats.requests_cancelled() > 0,
        "the workload must actually cancel"
    );
    assert!(
        planned_stats.bytes_written() < raw_stats.bytes_written(),
        "coalescing must save physical writes: {} vs {}",
        planned_stats.bytes_written(),
        raw_stats.bytes_written()
    );
}

//! Cross-algorithm consistency: every allocator in the repository — the
//! paper-variant registry ([`VARIANTS`]) and all baselines — driven over
//! the same workloads through the same harness, with accounting sanity
//! checks and a pairwise-equivalence proptest matrix over the registry, so
//! any future fifth variant is covered by construction.

use proptest::prelude::*;
use storage_realloc::prelude::*;
use storage_realloc::workloads::adversarial::{compaction_killer, deamortized_burst, lemma_3_7};
use storage_realloc::workloads::churn::{churn, coalescible_churn, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

fn full_roster() -> Vec<Box<dyn Reallocator>> {
    let mut roster: Vec<Box<dyn Reallocator>> = VARIANTS
        .iter()
        .map(|name| -> Box<dyn Reallocator> {
            build_variant(name, 0.5).expect("registry names build")
        })
        .collect();
    roster.extend(storage_realloc::baselines::baseline_roster());
    roster
}

fn small_churn(seed: u64) -> Workload {
    churn(&ChurnConfig {
        dist: SizeDist::Uniform { lo: 1, hi: 100 },
        target_volume: 5_000,
        churn_ops: 2_000,
        seed,
    })
}

/// Every algorithm ends the run with identical liveness.
#[test]
fn identical_final_liveness_across_all_algorithms() {
    let w = small_churn(31);
    let stats = w.stats();
    for mut r in full_roster() {
        let result = run_workload(r.as_mut(), &w, RunConfig::plain())
            .unwrap_or_else(|e| panic!("{}: {e}", r.name()));
        assert_eq!(result.final_volume, stats.final_volume, "{}", r.name());
        assert_eq!(
            r.live_count(),
            stats.inserts - stats.deletes,
            "{}",
            r.name()
        );
    }
}

/// No-move allocators never emit Move ops; reallocators do.
#[test]
fn move_emission_matches_algorithm_class() {
    let w = small_churn(32);
    for mut r in full_roster() {
        let name = r.name();
        let result = run_workload(r.as_mut(), &w, RunConfig::plain()).unwrap();
        let moves = result.ledger.total_moves();
        match name {
            "first-fit" | "best-fit" | "next-fit" | "buddy" => {
                assert_eq!(moves, 0, "{name} must never move objects");
            }
            _ => assert!(moves > 0, "{name} should have moved something"),
        }
    }
}

/// Ledger accounting: total allocation cost under linear f equals the sum
/// of inserted sizes, for every algorithm (it's workload-determined).
#[test]
fn allocation_cost_is_algorithm_independent() {
    let w = small_churn(33);
    let expected: u64 = w
        .requests
        .iter()
        .filter_map(|r| match r {
            Request::Insert { size, .. } => Some(*size),
            _ => None,
        })
        .sum();
    for mut r in full_roster() {
        let result = run_workload(r.as_mut(), &w, RunConfig::plain()).unwrap();
        let measured = result.ledger.total_alloc_cost(&|x| x as f64);
        assert!(
            (measured - expected as f64).abs() < 1e-6,
            "{}: alloc cost {measured} != {expected}",
            r.name()
        );
    }
}

/// The Lemma 3.7 dichotomy holds across the whole roster: every algorithm
/// either pays Ω(f(∆)) in one request or exceeds the (3/2)V footprint.
#[test]
fn lemma_3_7_dichotomy() {
    let delta = 512;
    let w = lemma_3_7(delta);
    for mut r in full_roster() {
        let name = r.name();
        let result = run_workload(r.as_mut(), &w, RunConfig::plain()).unwrap();
        let worst_linear = result.ledger.max_op_realloc_cost(&|x| x as f64);
        let worst_space = result.ledger.max_settled_space_ratio();
        let pays_moves = worst_linear >= delta as f64 / 2.0;
        let pays_space = worst_space > 1.5;
        assert!(
            pays_moves || pays_space,
            "{name}: dodged the lower bound (moves {worst_linear}, space {worst_space})"
        );
    }
}

/// A compact random request encoding (positive = insert of that size,
/// zero = delete the oldest live object), mirroring `prop_invariants.rs`.
fn op_sequence() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 1u64..=600,
            1 => Just(0u64),
        ],
        1..200,
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

/// Observable state of a variant after serving a request stream: the live
/// map plus the workload-determined cost totals.
fn observe(name: &str, requests: &[Request]) -> (Vec<(ObjectId, u64)>, u64, f64) {
    let mut r = build_variant(name, 0.4).expect("registry names build");
    let mut alloc_cost = 0.0;
    let mut live: Vec<ObjectId> = Vec::new();
    for req in requests {
        match *req {
            Request::Insert { id, size } => {
                r.insert(id, size).unwrap();
                alloc_cost += size as f64;
                live.push(id);
            }
            Request::Delete { id } => {
                r.delete(id).unwrap();
                live.retain(|&x| x != id);
            }
        }
    }
    let mut map: Vec<(ObjectId, u64)> = live
        .iter()
        .map(|&id| (id, r.extent_of(id).expect("live object indexed").len))
        .collect();
    map.sort();
    (map, r.live_volume(), alloc_cost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Four-way pairwise equivalence over the [`VARIANTS`] registry: every
    /// pair of paper variants serves the same stream to the same observable
    /// state (live ids, sizes, volume) at the same allocation cost. Written
    /// over the registry, not hand-picked pairs, so a fifth variant joins
    /// the matrix by being added to [`VARIANTS`] alone.
    #[test]
    fn pairwise_equivalence_matrix(ops in op_sequence()) {
        let requests = materialize(&ops);
        let observed: Vec<_> = VARIANTS
            .iter()
            .map(|name| (name, observe(name, &requests)))
            .collect();
        for i in 0..observed.len() {
            for j in i + 1..observed.len() {
                let (a, (map_a, vol_a, cost_a)) = &observed[i];
                let (b, (map_b, vol_b, cost_b)) = &observed[j];
                prop_assert_eq!(map_a, map_b, "{} vs {}: live maps differ", a, b);
                prop_assert_eq!(vol_a, vol_b, "{} vs {}: volumes differ", a, b);
                prop_assert!(
                    (cost_a - cost_b).abs() < 1e-6,
                    "{} vs {}: alloc cost {} != {}", a, b, cost_a, cost_b
                );
            }
        }
    }
}

/// Rejecting malformed requests is uniform across the roster.
#[test]
fn uniform_error_behaviour() {
    for mut r in full_roster() {
        let name = r.name();
        r.insert(ObjectId(1), 10).unwrap();
        assert!(
            matches!(r.insert(ObjectId(1), 5), Err(ReallocError::DuplicateId(_))),
            "{name}"
        );
        assert!(
            matches!(r.delete(ObjectId(99)), Err(ReallocError::UnknownId(_))),
            "{name}"
        );
        assert!(
            matches!(r.insert(ObjectId(2), 0), Err(ReallocError::ZeroSize)),
            "{name}"
        );
        // The failed requests must not have corrupted anything.
        assert_eq!(r.live_count(), 1, "{name}");
        assert_eq!(r.live_volume(), 10, "{name}");
    }
}

/// An id-reuse stream over a 24-id space: inserts of ids that may still be
/// live (`DuplicateId`), zero sizes (`ZeroSize`), deletes of ids that may
/// not be live (`UnknownId`), and reinserts of deleted ids. A fixed LCG
/// drives it, so it is the same stream on every run.
fn id_reuse_stream() -> Vec<Request> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    (0..1_500)
        .map(|_| {
            let id = ObjectId(next() % 24);
            match next() % 8 {
                0..=2 => Request::Delete { id },
                3 => Request::Insert { id, size: 0 },
                _ => Request::Insert {
                    id,
                    size: 1 + next() % 300,
                },
            }
        })
        .collect()
}

/// A 64-bit FNV-1a digest folded one `u64` field at a time (a word per
/// step instead of a byte: the pin below hashes tens of millions of fields
/// in a debug build).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, fields: &[u64]) {
        for &x in fields {
            self.0 = (self.0 ^ x).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn outcome(&mut self, out: &Outcome) {
        for op in &out.ops {
            match *op {
                StorageOp::Allocate { id, to } => self.fold(&[1, id.0, to.offset, to.len]),
                StorageOp::Move { id, from, to } => {
                    self.fold(&[2, id.0, from.offset, from.len, to.offset, to.len])
                }
                StorageOp::Free { id, at } => self.fold(&[3, id.0, at.offset, at.len]),
                StorageOp::CheckpointBarrier => self.fold(&[4]),
            }
        }
        self.fold(&[
            u64::from(out.flushed),
            out.peak_structure_size,
            u64::from(out.checkpoints()),
        ]);
    }

    fn state(&mut self, r: &dyn Reallocator) {
        self.fold(&[
            r.live_volume(),
            r.structure_size(),
            r.footprint(),
            r.max_object_size(),
            r.live_count() as u64,
        ]);
    }
}

/// Digest of everything `variant` emits and reports while serving
/// `requests` and then quiescing: every op field, every outcome field,
/// every error, and the space accounting after each request.
fn op_stream_digest(variant: &str, eps: f64, requests: &[Request]) -> u64 {
    let mut r = build_variant(variant, eps).expect("registry names build");
    let mut d = Digest::new();
    for req in requests {
        let result = match *req {
            Request::Insert { id, size } => r.insert(id, size),
            Request::Delete { id } => r.delete(id),
        };
        match result {
            Ok(out) => d.outcome(&out),
            Err(ReallocError::DuplicateId(id)) => d.fold(&[5, id.0]),
            Err(ReallocError::UnknownId(id)) => d.fold(&[6, id.0]),
            Err(ReallocError::ZeroSize) => d.fold(&[7]),
            Err(e) => panic!("{variant}: a reallocator raised {e}"),
        }
        d.state(r.as_ref());
    }
    d.outcome(&r.quiesce());
    d.state(r.as_ref());
    d.0
}

/// One pinned run: `(variant, ε, workload, digest)`.
type Pin = (&'static str, f64, &'static str, u64);

/// `variant`'s digests over `workloads` at each pinned ε.
fn variant_digests(variant: &'static str, workloads: &[(&'static str, Vec<Request>)]) -> Vec<Pin> {
    let mut pins = Vec::new();
    for eps in [0.25, 0.0625] {
        for (name, requests) in workloads {
            pins.push((
                variant,
                eps,
                *name,
                op_stream_digest(variant, eps, requests),
            ));
        }
    }
    pins
}

/// Pins every variant's op stream bit for bit: each entry is the digest of
/// one (variant, ε, workload) run, recorded before the variants were
/// rebuilt from shared steps. A refactor of the reallocators must leave
/// every digest unchanged; a deliberate behaviour change re-records them.
#[test]
fn op_streams_are_pinned() {
    let small = |dist: SizeDist, churn_ops: usize, seed: u64| ChurnConfig {
        dist,
        target_volume: 20_000,
        churn_ops,
        seed,
    };
    let uniform = || SizeDist::Uniform { lo: 1, hi: 100 };
    let classes = SizeDist::ClassPowerLaw {
        classes: 10,
        decay: 0.7,
    };
    let workloads: [(&str, Vec<Request>); 7] = [
        ("churn", churn(&small(uniform(), 5_000, 1)).requests),
        ("churn-classes", churn(&small(classes, 1_500, 2)).requests),
        (
            "coalescible",
            coalescible_churn(&small(uniform(), 5_000, 3)).requests,
        ),
        ("compaction-killer", compaction_killer(64, 6).requests),
        ("lemma-3.7", lemma_3_7(256).requests),
        ("deamortized-burst", deamortized_burst(128, 40).requests),
        ("id-reuse", id_reuse_stream()),
    ];
    // One thread per variant keeps the debug-build run to a few seconds.
    let observed: Vec<Pin> = std::thread::scope(|s| {
        let runs: Vec<_> = VARIANTS
            .iter()
            .map(|&variant| s.spawn(|| variant_digests(variant, &workloads)))
            .collect();
        runs.into_iter()
            .flat_map(|run| run.join().expect("digest thread panicked"))
            .collect()
    });
    let listing: String = observed
        .iter()
        .map(|(v, e, w, d)| format!("    ({v:?}, {e}, {w:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        observed.len(),
        PINNED_DIGESTS.len(),
        "pinned table is out of date:\n{listing}"
    );
    for (got, want) in observed.iter().zip(PINNED_DIGESTS.iter()) {
        assert_eq!(got, want, "op stream changed; all digests:\n{listing}");
    }
}

/// Every pinned run, in the order `op_streams_are_pinned` makes them.
#[rustfmt::skip]
const PINNED_DIGESTS: [Pin; 56] = [
    ("cost-oblivious", 0.25, "churn", 0x661cb9f4ee3d1878),
    ("cost-oblivious", 0.25, "churn-classes", 0x03b359ce372971ed),
    ("cost-oblivious", 0.25, "coalescible", 0x839618954481018a),
    ("cost-oblivious", 0.25, "compaction-killer", 0x4fc961e6906aeaba),
    ("cost-oblivious", 0.25, "lemma-3.7", 0xf066aaf61d384b6b),
    ("cost-oblivious", 0.25, "deamortized-burst", 0x455752ba4cb1de5c),
    ("cost-oblivious", 0.25, "id-reuse", 0xb03d77f4b97667a7),
    ("cost-oblivious", 0.0625, "churn", 0x81cc0416a2375d93),
    ("cost-oblivious", 0.0625, "churn-classes", 0x6ed2574fb6e87fef),
    ("cost-oblivious", 0.0625, "coalescible", 0x84ca01932737f20d),
    ("cost-oblivious", 0.0625, "compaction-killer", 0x0c9bb348e5b50528),
    ("cost-oblivious", 0.0625, "lemma-3.7", 0x426397bb6df74c80),
    ("cost-oblivious", 0.0625, "deamortized-burst", 0x1ae40fae906ace18),
    ("cost-oblivious", 0.0625, "id-reuse", 0xb6a669ae1092808c),
    ("checkpointed", 0.25, "churn", 0xb58d53bfc50c21c1),
    ("checkpointed", 0.25, "churn-classes", 0x4a269a83188959f7),
    ("checkpointed", 0.25, "coalescible", 0xf8da5f13289286ac),
    ("checkpointed", 0.25, "compaction-killer", 0x4418803360196408),
    ("checkpointed", 0.25, "lemma-3.7", 0xc79180292fc980a9),
    ("checkpointed", 0.25, "deamortized-burst", 0x93a77db5e6698b53),
    ("checkpointed", 0.25, "id-reuse", 0x020b2693f8f9b8c3),
    ("checkpointed", 0.0625, "churn", 0x071846e17a5330fe),
    ("checkpointed", 0.0625, "churn-classes", 0xe73e2d027b5e308e),
    ("checkpointed", 0.0625, "coalescible", 0xbb0e6ce5a453549c),
    ("checkpointed", 0.0625, "compaction-killer", 0x7343062679286397),
    ("checkpointed", 0.0625, "lemma-3.7", 0xea25baa3c267307b),
    ("checkpointed", 0.0625, "deamortized-burst", 0xd722f0cb09cd2d07),
    ("checkpointed", 0.0625, "id-reuse", 0x2d05edd8284690f2),
    ("deamortized", 0.25, "churn", 0x7adfafc8ff2f3013),
    ("deamortized", 0.25, "churn-classes", 0x7d0fa9aec24b6c09),
    ("deamortized", 0.25, "coalescible", 0x97c819f2bb219f14),
    ("deamortized", 0.25, "compaction-killer", 0xf98547a140cff087),
    ("deamortized", 0.25, "lemma-3.7", 0x3cb118a838724afb),
    ("deamortized", 0.25, "deamortized-burst", 0xf2d1732443c880a5),
    ("deamortized", 0.25, "id-reuse", 0x5499c30c5694dba1),
    ("deamortized", 0.0625, "churn", 0xbfef104004fe3c20),
    ("deamortized", 0.0625, "churn-classes", 0x39e6a496db4c997c),
    ("deamortized", 0.0625, "coalescible", 0x1d3d12354e502642),
    ("deamortized", 0.0625, "compaction-killer", 0x8fff25b16bcb4dca),
    ("deamortized", 0.0625, "lemma-3.7", 0x670be922ad3d049a),
    ("deamortized", 0.0625, "deamortized-burst", 0x0784fa7c30f2f5e0),
    ("deamortized", 0.0625, "id-reuse", 0x6e8bf01e7d8d6c66),
    ("nearly-quadratic", 0.25, "churn", 0xad0c641fa9fb5dcc),
    ("nearly-quadratic", 0.25, "churn-classes", 0xcea10384d08c0040),
    ("nearly-quadratic", 0.25, "coalescible", 0x5c621a7ef129b804),
    ("nearly-quadratic", 0.25, "compaction-killer", 0x4418803360196408),
    ("nearly-quadratic", 0.25, "lemma-3.7", 0xc79180292fc980a9),
    ("nearly-quadratic", 0.25, "deamortized-burst", 0x93a77db5e6698b53),
    ("nearly-quadratic", 0.25, "id-reuse", 0xca953d22058aaf70),
    ("nearly-quadratic", 0.0625, "churn", 0xb5492951c43051a5),
    ("nearly-quadratic", 0.0625, "churn-classes", 0xd0e1befffe6b160a),
    ("nearly-quadratic", 0.0625, "coalescible", 0x58138b0cf3071100),
    ("nearly-quadratic", 0.0625, "compaction-killer", 0x7343062679286397),
    ("nearly-quadratic", 0.0625, "lemma-3.7", 0xea25baa3c267307b),
    ("nearly-quadratic", 0.0625, "deamortized-burst", 0xd722f0cb09cd2d07),
    ("nearly-quadratic", 0.0625, "id-reuse", 0x2d05edd8284690f2),
];

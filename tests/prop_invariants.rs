//! Property-based tests: arbitrary request sequences against every
//! reallocator variant, checking the paper's invariants after each request.

use std::collections::HashMap;

use proptest::prelude::*;
use storage_realloc::prelude::*;

/// A compact encoding of a random request sequence, one `(kind, size)`
/// per op: kind 0 inserts a fresh object of `size`, 1 deletes the oldest
/// live object, and 2 *touches* it: deletes it and inserts its id again
/// at `size`.
fn op_sequence() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec(
        prop_oneof![
            3 => (Just(0u8), 1u64..=600), // sizes spanning ~10 classes
            1 => (Just(1u8), Just(0u64)),
            1 => (Just(2u8), 1u64..=600),
        ],
        1..250,
    )
}

/// Replays the encoded sequence, returning the requests actually issued.
fn materialize(ops: &[(u8, u64)]) -> Vec<Request> {
    let mut requests = Vec::new();
    let mut live = std::collections::VecDeque::new();
    let mut next = 0u64;
    for &(kind, size) in ops {
        if kind == 0 {
            let id = ObjectId(next);
            next += 1;
            live.push_back(id);
            requests.push(Request::Insert { id, size });
            continue;
        }
        let Some(id) = live.pop_front() else { continue };
        requests.push(Request::Delete { id });
        if kind == 2 {
            requests.push(Request::Insert { id, size });
            live.push_back(id);
        }
    }
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// §2 algorithm: structural invariants (2.2–2.4) and the (1+ε) footprint
    /// bound hold after every request, and all placements stay disjoint. A
    /// flush moves an object twice only if it lay in a buffer segment before
    /// the request (to the overflow and back); a payload survivor moves at
    /// most once. Lemma 2.5: no request's peak space passes
    /// `(1+ε)(1+ε′)·max(V before, V after) + ∆`.
    #[test]
    fn amortized_invariants_hold(ops in op_sequence(), eps in 0.05f64..=0.5) {
        let mut r = CostObliviousReallocator::new(eps);
        let prime = r.eps().prime();
        for req in materialize(&ops) {
            let views = r.region_views();
            let before: HashMap<ObjectId, Extent> = r.live_extents().into_iter().collect();
            let volume_before = r.live_volume();
            let outcome = match req {
                Request::Insert { id, size } => r.insert(id, size).unwrap(),
                Request::Delete { id } => r.delete(id).unwrap(),
            };
            let volume = volume_before.max(r.live_volume()) as f64;
            let peak_bound = (1.0 + eps) * (1.0 + prime) * volume + r.max_object_size() as f64;
            prop_assert!(
                outcome.peak_structure_size as f64 <= peak_bound,
                "peak {} > (1+ε)(1+ε′)·max(V) + ∆ = {peak_bound}",
                outcome.peak_structure_size
            );
            let mut moves: HashMap<ObjectId, u32> = HashMap::new();
            for op in &outcome.ops {
                if let StorageOp::Move { id, .. } = op {
                    *moves.entry(*id).or_default() += 1;
                }
            }
            prop_assert!(outcome.flushed || moves.is_empty());
            for (id, n) in moves {
                prop_assert!(n <= 2, "{id} moved {n} times in one flush");
                let buffered = before.get(&id).is_some_and(|at| {
                    views.iter().any(|v| {
                        let start = v.start + v.payload_space;
                        start <= at.offset && at.end() <= start + v.buffer_space
                    })
                });
                prop_assert!(n < 2 || buffered, "{id} moved twice from {:?}", before.get(&id));
            }
            r.validate().unwrap();
            if r.live_volume() > 0 {
                let ratio = r.structure_size() as f64 / r.live_volume() as f64;
                prop_assert!(ratio <= 1.0 + eps + 1e-9, "ratio {ratio} > 1+ε");
            }
        }
    }

    /// §3.2 algorithm: same invariants, plus every emitted move is
    /// nonoverlapping (checked per op; the full rules are substrate tests).
    #[test]
    fn checkpointed_invariants_hold(ops in op_sequence(), eps in 0.05f64..=0.5) {
        let mut r = CheckpointedReallocator::new(eps);
        for req in materialize(&ops) {
            let outcome = match req {
                Request::Insert { id, size } => r.insert(id, size).unwrap(),
                Request::Delete { id } => r.delete(id).unwrap(),
            };
            for op in &outcome.ops {
                if let StorageOp::Move { from, to, .. } = op {
                    prop_assert!(!from.overlaps(to), "overlapping move {from} -> {to}");
                }
            }
            r.validate().unwrap();
            if r.live_volume() > 0 {
                let ratio = r.structure_size() as f64 / r.live_volume() as f64;
                prop_assert!(ratio <= 1.0 + eps + 1e-9, "ratio {ratio} > 1+ε");
            }
        }
    }

    /// §3.3 algorithm: the worst-case volume bound holds for every single
    /// request, and the mid-flush index stays disjoint throughout.
    #[test]
    fn deamortized_worst_case_holds(ops in op_sequence(), eps in 0.05f64..=0.5) {
        let mut r = DeamortizedReallocator::new(eps);
        for req in materialize(&ops) {
            let (w, outcome) = match req {
                Request::Insert { id, size } => (size, r.insert(id, size).unwrap()),
                Request::Delete { id } => {
                    let w = r.extent_of(id).map_or(1, |e| e.len);
                    (w, r.delete(id).unwrap())
                }
            };
            let bound = r.eps().pump_quota(w) + r.max_object_size();
            prop_assert!(
                outcome.moved_volume() <= bound,
                "moved {} > bound {bound}",
                outcome.moved_volume()
            );
            r.validate().unwrap();
        }
    }

    /// The 2024 nearly-quadratic variant: §2 structural invariants plus the
    /// hole book-keeping hold after every request, the (1+ε) footprint
    /// bound never breaks (hole recycling must not degrade it), and every
    /// emitted move is nonoverlapping (it shares the §3.2 flush machinery).
    #[test]
    fn nearly_quadratic_invariants_hold(ops in op_sequence(), eps in 0.05f64..=0.5) {
        let mut r = NearlyQuadraticReallocator::new(eps);
        for req in materialize(&ops) {
            let outcome = match req {
                Request::Insert { id, size } => r.insert(id, size).unwrap(),
                Request::Delete { id } => r.delete(id).unwrap(),
            };
            for op in &outcome.ops {
                if let StorageOp::Move { from, to, .. } = op {
                    prop_assert!(!from.overlaps(to), "overlapping move {from} -> {to}");
                }
            }
            r.validate().unwrap();
            if r.live_volume() > 0 {
                let ratio = r.structure_size() as f64 / r.live_volume() as f64;
                prop_assert!(ratio <= 1.0 + eps + 1e-9, "ratio {ratio} > 1+ε");
            }
        }
    }

    /// Every registry variant agrees with a trivial reference model on
    /// liveness: same live ids, same sizes, same total volume.
    #[test]
    fn variants_agree_with_reference_model(ops in op_sequence()) {
        let requests = materialize(&ops);
        let mut reference = HashMap::new();
        for req in &requests {
            match *req {
                Request::Insert { id, size } => { reference.insert(id, size); }
                Request::Delete { id } => { reference.remove(&id); }
            }
        }
        for name in VARIANTS {
            let mut r = build_variant(name, 0.3).expect("registry names build");
            for req in &requests {
                match *req {
                    Request::Insert { id, size } => { r.insert(id, size).unwrap(); }
                    Request::Delete { id } => { r.delete(id).unwrap(); }
                }
            }
            prop_assert_eq!(r.live_count(), reference.len(), "{}", name);
            prop_assert_eq!(r.live_volume(), reference.values().sum::<u64>(), "{}", name);
            for (&id, &size) in &reference {
                let e = r.extent_of(id);
                prop_assert!(e.map(|e| e.len) == Some(size), "{}: {id} wrong", name);
            }
        }
    }

    /// Baselines also maintain exact liveness and disjoint placements.
    #[test]
    fn baselines_maintain_disjoint_placements(ops in op_sequence()) {
        let requests = materialize(&ops);
        for mut r in storage_realloc::baselines::baseline_roster() {
            let mut live = std::collections::HashSet::new();
            for req in &requests {
                match *req {
                    Request::Insert { id, size } => { r.insert(id, size).unwrap(); live.insert(id); }
                    Request::Delete { id } => { r.delete(id).unwrap(); live.remove(&id); }
                }
            }
            let mut extents: Vec<Extent> =
                live.iter().map(|&id| r.extent_of(id).unwrap()).collect();
            extents.sort_by_key(|e| e.offset);
            for pair in extents.windows(2) {
                prop_assert!(
                    !pair[0].overlaps(&pair[1]),
                    "{}: {} overlaps {}",
                    r.name(),
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}

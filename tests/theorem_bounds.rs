//! End-to-end verification of the paper's headline bounds on realistic
//! workloads, across every reallocator variant in the [`VARIANTS`]
//! registry and the ε range — the PODS'14 theorems plus the 2024
//! nearly-quadratic movement-cost bound.

use storage_realloc::prelude::*;
use storage_realloc::workloads::churn::{churn, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;
use storage_realloc::workloads::trace::{block_rewrites, sawtooth};

fn churn_workload(seed: u64) -> Workload {
    churn(&ChurnConfig {
        dist: SizeDist::ClassPowerLaw {
            classes: 9,
            decay: 0.7,
        },
        target_volume: 20_000,
        churn_ops: 8_000,
        seed,
    })
}

/// Lemma 2.5: the settled footprint is within (1+ε)·V after every request,
/// for every ε in the legal range.
#[test]
fn footprint_bound_over_eps_range() {
    let w = churn_workload(11);
    for eps in [0.5, 0.25, 0.125, 0.0625, 0.03125] {
        let mut r = CostObliviousReallocator::new(eps);
        let result = run_workload(&mut r, &w, RunConfig::plain()).unwrap();
        let ratio = result.ledger.max_settled_space_ratio();
        assert!(
            ratio <= 1.0 + eps + 1e-9,
            "ε={eps}: settled ratio {ratio} exceeds bound"
        );
    }
}

/// Theorem 2.1: the cost ratio is within c·(1/ε′)ln(1/ε′) for every cost
/// function in the suite simultaneously — one run, priced post-hoc.
#[test]
fn cost_ratio_bounded_for_every_subadditive_f() {
    let w = churn_workload(12);
    for eps in [0.5, 0.125] {
        let mut r = CostObliviousReallocator::new(eps);
        let result = run_workload(&mut r, &w, RunConfig::plain()).unwrap();
        let eps_p = eps / 3.0;
        let theory = (1.0 / eps_p) * (1.0 / eps_p).ln();
        for f in storage_realloc::cost::standard_suite() {
            let b = result.ledger.cost_ratio(&|x| f.cost(x));
            assert!(
                b <= 4.0 * theory,
                "ε={eps}, f={}: ratio {b} too far above theory {theory}",
                f.name()
            );
        }
    }
}

/// The same guarantees hold for the checkpointed variant (its move plan
/// differs but the move count per object does not).
#[test]
fn checkpointed_variant_keeps_both_bounds() {
    let w = churn_workload(13);
    let eps = 0.25;
    let mut r = CheckpointedReallocator::new(eps);
    let result = run_workload(&mut r, &w, RunConfig::strict()).unwrap();
    assert!(result.ledger.max_settled_space_ratio() <= 1.0 + eps + 1e-9);
    let eps_p = eps / 3.0;
    let theory = (1.0 / eps_p) * (1.0 / eps_p).ln();
    for f in storage_realloc::cost::standard_suite() {
        let b = result.ledger.cost_ratio(&|x| f.cost(x));
        assert!(b <= 6.0 * theory, "f={}: {b} vs theory {theory}", f.name());
    }
}

/// Lemma 3.6: the deamortized variant's per-request moved volume never
/// exceeds (4/ε′)·w + ∆, on churn and on database-shaped traces.
#[test]
fn deamortized_worst_case_bound_on_traces() {
    let eps = 0.5;
    let pump_rate = 4.0 / (eps / 3.0);
    let dist = SizeDist::Uniform { lo: 1, hi: 256 };
    for w in [
        churn_workload(14),
        block_rewrites(500, 3_000, &dist, 15),
        sawtooth(5_000, 20_000, 3, &dist, 16),
    ] {
        let mut r = DeamortizedReallocator::new(eps);
        let result = run_workload(&mut r, &w, RunConfig::plain()).unwrap();
        let util = result.ledger.max_worst_case_utilization(pump_rate);
        assert!(util <= 1.0 + 1e-9, "{}: utilization {util} > 1", w.name);
    }
}

/// Lemma 3.5 (quiescent half): when no flush is in progress the deamortized
/// structure's space is (1+O(ε′))·V.
#[test]
fn deamortized_quiescent_footprint() {
    let w = churn_workload(17);
    let mut r = DeamortizedReallocator::new(0.5);
    run_workload(&mut r, &w, RunConfig::plain()).unwrap();
    r.drain();
    let ratio = r.structure_size() as f64 / r.live_volume() as f64;
    assert!(ratio <= 1.5 + 1e-9, "quiescent ratio {ratio}");
    r.validate().unwrap();
}

/// Lemma 3.3's shape: checkpoints per flush grow at most linearly in 1/ε.
#[test]
fn checkpoints_scale_linearly_in_inverse_eps() {
    let w = churn_workload(18);
    let max_cp = |eps: f64| -> f64 {
        let mut r = CheckpointedReallocator::new(eps);
        let result = run_workload(&mut r, &w, RunConfig::plain()).unwrap();
        result.ledger.max_op_checkpoints() as f64
    };
    let loose = max_cp(0.5);
    let tight = max_cp(0.0625);
    assert!(loose >= 1.0);
    // 8x tighter ε may use at most ~8x more checkpoints (3x slack).
    assert!(
        tight <= loose * 8.0 * 3.0,
        "checkpoints grew superlinearly: {loose} -> {tight}"
    );
}

/// Chained-flush stress: a stream of ever-larger new-largest-class inserts
/// arriving mid-flush forces the deamortized structure through repeated
/// chain-flushes (the documented §3.3 fallback). Every bound must survive.
#[test]
fn deamortized_survives_escalating_class_chains() {
    let eps = 0.25;
    let mut r = DeamortizedReallocator::new(eps);
    let mut next_id = 0u64;
    let mut insert = |r: &mut DeamortizedReallocator, size: u64| {
        let out = r.insert(ObjectId(next_id), size).unwrap();
        next_id += 1;
        out
    };
    // Base population of small objects.
    for n in 0..200u64 {
        insert(&mut r, 1 + (n % 16));
    }
    // Escalate through 10 brand-new largest classes, each arriving while
    // the previous flush may still be draining, interleaved with smalls.
    for k in 5..15u32 {
        let out = insert(&mut r, 1u64 << k);
        let bound = r.eps().pump_quota(1 << k) + r.max_object_size();
        assert!(
            out.moved_volume() <= bound,
            "class {k}: worst-case bound broken"
        );
        for _ in 0..5 {
            insert(&mut r, 3);
        }
        r.validate().unwrap();
    }
    r.drain();
    r.validate().unwrap();
    let ratio = r.structure_size() as f64 / r.live_volume() as f64;
    assert!(ratio <= 1.0 + eps + 1e-9, "post-drain ratio {ratio}");
    // All the big objects are addressable with exact sizes.
    let total = next_id;
    for k in 5..15u32 {
        let size = 1u64 << k;
        assert!(
            (0..total).any(|n| r.extent_of(ObjectId(n)).is_some_and(|e| e.len == size)),
            "lost the class-{k} object"
        );
    }
}

/// Every object remains addressable with its exact size through heavy
/// churn, for every registry variant.
#[test]
fn no_object_is_ever_lost() {
    let w = churn_workload(19);
    let mut live = std::collections::HashMap::new();
    for req in &w.requests {
        match *req {
            Request::Insert { id, size } => {
                live.insert(id, size);
            }
            Request::Delete { id } => {
                live.remove(&id);
            }
        }
    }
    for mut r in VARIANTS
        .iter()
        .map(|name| build_variant(name, 0.5).expect("registry names build"))
    {
        run_workload(r.as_mut(), &w, RunConfig::plain()).unwrap();
        for (&id, &size) in &live {
            let e = r
                .extent_of(id)
                .unwrap_or_else(|| panic!("{} lost {id}", r.name()));
            assert_eq!(e.len, size, "{}: {id} changed size", r.name());
        }
        assert_eq!(r.live_count(), live.len());
        assert_eq!(r.live_volume(), live.values().sum::<u64>());
    }
}

// ---------------------------------------------------------------------------
// The 2024 nearly-quadratic bounds (Farach-Colton & Sheffield).
// ---------------------------------------------------------------------------

/// Drives `r` through a cancelling-churn regime — a standing same-class
/// population, then `rounds` of delete-oldest + reinsert-same-size — and
/// returns `(moved, churned)`: total moved volume across the churn phase
/// (population warm-up excluded) and the volume the churn itself touched.
fn cancelling_churn_moved(
    r: &mut dyn Reallocator,
    objects: u64,
    rounds: u64,
    size: u64,
) -> (u64, u64) {
    let mut live = std::collections::VecDeque::new();
    let mut next = 0u64;
    for _ in 0..objects {
        let id = ObjectId(next);
        next += 1;
        r.insert(id, size).unwrap();
        live.push_back(id);
    }
    r.quiesce();
    let mut moved = 0u64;
    let mut churned = 0u64;
    for _ in 0..rounds {
        let victim = live.pop_front().unwrap();
        moved += r.delete(victim).unwrap().moved_volume();
        let id = ObjectId(next);
        next += 1;
        moved += r.insert(id, size).unwrap().moved_volume();
        live.push_back(id);
        churned += 2 * size;
    }
    moved += r.quiesce().moved_volume();
    (moved, churned)
}

/// The 2024 movement-cost bound on its target regime: under cancelling
/// churn the nearly-quadratic variant's amortized moved volume per churned
/// byte stays within C·√(1/ε′)·ln(1/ε′+e) — the Õ(ε^{-1/2}) shape — while
/// still being measured over the same driver the 2014 variants run.
#[test]
fn nearly_quadratic_movement_bound_on_cancelling_churn() {
    for eps in [0.5, 0.25, 0.125, 0.0625] {
        let mut r = NearlyQuadraticReallocator::new(eps);
        let (moved, churned) = cancelling_churn_moved(&mut r, 400, 2_000, 64);
        let ratio = moved as f64 / churned as f64;
        let eps_p = eps / 3.0;
        let bound = (1.0 / eps_p).sqrt() * (1.0 / eps_p + std::f64::consts::E).ln();
        assert!(
            ratio <= bound,
            "ε={eps}: churn movement ratio {ratio} above the 2024 shape {bound}"
        );
        r.validate().unwrap();
    }
}

/// Head-to-head on the same cancelling churn: hole recycling plus tombstone
/// cancellation stops the flush clock, so the 2024 variant moves an order
/// of magnitude less volume than every 2014 variant (measured: ~0–51 kB vs
/// 3.1–6.0 MB at ε=0.25).
#[test]
fn nearly_quadratic_beats_2014_variants_on_cancelling_churn() {
    let eps = 0.25;
    let mut nq = NearlyQuadraticReallocator::new(eps);
    let (moved_nq, _) = cancelling_churn_moved(&mut nq, 400, 2_000, 64);
    for name in ["cost-oblivious", "checkpointed", "deamortized"] {
        let mut r = build_variant(name, eps).unwrap();
        let (moved_2014, _) = cancelling_churn_moved(r.as_mut(), 400, 2_000, 64);
        assert!(
            (moved_nq as f64) <= 0.1 * moved_2014 as f64,
            "vs {name}: {moved_nq} not below 0.1 × {moved_2014}"
        );
    }
}

/// Outside its target regime the 2024 variant inherits the PODS'14
/// guarantees wholesale: the (1+ε) footprint bound and the Theorem 2.1
/// cost ratio, on the same strict substrate run the checkpointed variant
/// is held to.
#[test]
fn nearly_quadratic_keeps_the_2014_bounds() {
    let w = churn_workload(20);
    let eps = 0.25;
    let mut r = NearlyQuadraticReallocator::new(eps);
    let result = run_workload(&mut r, &w, RunConfig::strict()).unwrap();
    assert!(result.ledger.max_settled_space_ratio() <= 1.0 + eps + 1e-9);
    let eps_p = eps / 3.0;
    let theory = (1.0 / eps_p) * (1.0 / eps_p).ln();
    for f in storage_realloc::cost::standard_suite() {
        let b = result.ledger.cost_ratio(&|x| f.cost(x));
        assert!(b <= 6.0 * theory, "f={}: {b} vs theory {theory}", f.name());
    }
}

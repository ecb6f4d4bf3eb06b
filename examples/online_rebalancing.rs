//! A self-healing fleet: auto-rebalance policy + online migration.
//!
//! `examples/rebalancing_service.rs` repairs a skew storm with an explicit
//! barrier `Engine::rebalance` — correct, but the whole fleet stalls while
//! the migration runs. This example closes the loop the way a production
//! driver would:
//!
//! 1. a `RebalancePolicy { τ, k, hysteresis }` is installed on the engine
//!    ([`Engine::set_auto_rebalance`]), so every barrier observation feeds
//!    the trigger — no human watches the imbalance ratio;
//! 2. a skewed delete storm drives `max V_i / mean V_i` past τ; after `k`
//!    consecutive breaches the policy fires an **online** rebalance
//!    session by itself;
//! 3. the storm ends (the skew "releases") and ordinary churn keeps
//!    arriving while the session migrates in bounded batches — freeze →
//!    copy → flip route → resume, never a fleet-wide quiesce;
//! 4. the footprint bound `Σ footprint_i ≤ (1+ε)·Σ V_i + N·∆` holds at
//!    every observation, the fleet converges under τ, and both halves of
//!    every transfer are in the ledgers.
//!
//! Run with `cargo run --release --example online_rebalancing`.

use storage_realloc::prelude::*;
use storage_realloc::workloads::churn::{skewed_churn_release, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

const SHARDS: usize = 4;
const EPS: f64 = 0.25;
/// Requests between policy observations (one snapshot barrier each).
const OBSERVE_EVERY: usize = 2_048;
const TAU: f64 = 1.5;

fn factory(_shard: usize) -> Box<dyn Reallocator + Send> {
    Box::new(CostObliviousReallocator::new(EPS))
}

fn check_footprint(stats: &EngineStats) {
    let bound = (1.0 + EPS) * stats.live_volume() as f64
        + (stats.shards() as u64 * stats.max_object_size()) as f64;
    assert!(
        (stats.footprint() as f64) <= bound,
        "footprint {} exceeds (1+ε)·ΣV + N·∆ = {bound:.0}",
        stats.footprint()
    );
}

fn main() {
    // The storm: deletes spare shard 0's objects for the first 20k churn
    // ops, then the skew releases and the last 20k ops churn uniformly —
    // the window in which the policy-fired session drains.
    let probe = TableRouter::new(SHARDS);
    let workload = skewed_churn_release(
        &ChurnConfig {
            dist: SizeDist::Uniform { lo: 4, hi: 128 },
            target_volume: 40_000,
            churn_ops: 40_000,
            seed: 4242,
        },
        |id| probe.route(id) == 0,
        20_000,
    );
    println!("workload: {} ({} requests)", workload.name, workload.len());
    println!(
        "engine:   cost-oblivious × {SHARDS} shards, ε = {EPS}\n\
         policy:   τ = {TAU}, k = 2, hysteresis = 2, batches of 48 objects\n"
    );

    let mut engine = Engine::new(EngineConfig::with_shards(SHARDS), factory);
    engine.set_auto_rebalance(
        RebalancePolicy::new(TAU, 2, 2),
        RebalanceOptions::default().batched(48),
    );

    let mut served = 0usize;
    let mut peak_imbalance: f64 = 0.0;
    let mut fired = 0u32;
    let mut reports: Vec<RebalanceReport> = Vec::new();
    for chunk in workload.requests.chunks(OBSERVE_EVERY) {
        engine
            .drive(&Workload::new("chunk", chunk.to_vec()))
            .expect("drive");
        served += chunk.len();
        let was_active = engine.rebalance_active();
        let stats = engine.snapshot().expect("snapshot"); // policy observes here
        check_footprint(&stats);
        peak_imbalance = peak_imbalance.max(stats.imbalance_ratio());
        if !was_active && engine.rebalance_active() {
            fired += 1;
            println!(
                "@{served:>6}  imbalance {:.2} > τ for 2 observations -> online session fired",
                stats.imbalance_ratio()
            );
        }
        if let Some(report) = engine.take_rebalance_report() {
            println!(
                "@{served:>6}  session complete ({} mode): {} objects / {} cells in {} batches, \
                 imbalance {:.2} -> {:.2}",
                report.mode,
                report.migrated_objects,
                report.migrated_volume,
                report.batches,
                report.before.imbalance_ratio(),
                report.after.imbalance_ratio()
            );
            reports.push(report);
        }
    }
    // Drain anything still migrating at workload end.
    while engine.rebalance_step().expect("step") {}
    reports.extend(engine.take_rebalance_report());

    assert!(fired >= 1, "the storm must trip the policy");
    assert_eq!(reports.len() as u32, fired, "every session completes");
    assert!(
        peak_imbalance > 2.0,
        "storm too weak ({peak_imbalance:.2}) to demonstrate anything"
    );
    for report in &reports {
        assert_eq!(report.mode, RebalanceMode::Online);
        assert!(report.batches > 1, "bounded batches, not one big stall");
    }

    let stats = engine.quiesce().expect("no request errors");
    check_footprint(&stats);
    assert!(
        stats.imbalance_ratio() < TAU,
        "fleet still above τ ({:.2}) after auto-repair",
        stats.imbalance_ratio()
    );
    println!(
        "\nfinal:    imbalance {:.2} (peak {peak_imbalance:.2}), {} objects / {} cells live",
        stats.imbalance_ratio(),
        stats.live_count(),
        stats.live_volume()
    );

    // Both halves of every transfer are first-class ledger records.
    let finals = engine.shutdown().expect("clean shutdown");
    let (mut ins, mut outs) = (0usize, 0usize);
    for f in &finals {
        ins += f.ledger.count_kind(OpKind::MigrateIn);
        outs += f.ledger.count_kind(OpKind::MigrateOut);
    }
    let migrated: u64 = reports.iter().map(|r| r.migrated_objects).sum();
    assert_eq!(ins as u64, migrated, "every adoption ledgered");
    assert_eq!(ins, outs, "every transfer has both halves");
    println!("ledgers:  {ins} migrate-ins = {outs} migrate-outs across {fired} session(s)");
    println!("detected the storm, repaired it online, never stalled the fleet ✓");
}

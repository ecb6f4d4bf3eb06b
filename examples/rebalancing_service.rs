//! A reallocation service surviving a skewed delete storm.
//!
//! Hash routing keeps shard volumes balanced *on average*, but an adversary
//! (or an unlucky tenant mix) that deletes only objects routed away from
//! one shard drives `max V_i / mean V_i` toward `N`. The engine's router
//! pins re-homed ids in an assignment table over its hash, so it can
//! repair that. This example runs the storm and shows the full repair
//! loop:
//!
//! 1. skewed churn pushes the imbalance past 2×,
//! 2. `Engine::rebalance` migrates volume back to the mean (with the
//!    per-shard Theorem 2.7 defrag pass reporting its space bound),
//! 3. `Engine::resize_shards` grows the fleet 4 → 6 live (the rendezvous
//!    fallback keeps most objects in place) and shrinks it back to 3,
//! 4. the aggregate footprint bound `Σ footprint_i ≤ (1+ε)·Σ V_i + N·∆`
//!    holds at every step, and no object is ever lost.
//!
//! Run with `cargo run --release --example rebalancing_service`.

use storage_realloc::prelude::*;
use storage_realloc::workloads::churn::{skewed_churn, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

const SHARDS: usize = 4;
const EPS: f64 = 0.25;

fn factory(_shard: usize) -> Box<dyn Reallocator + Send> {
    Box::new(CostObliviousReallocator::new(EPS))
}

fn check_footprint(stats: &EngineStats, label: &str) {
    let bound = (1.0 + EPS) * stats.live_volume() as f64
        + (stats.shards() as u64 * stats.max_object_size()) as f64;
    assert!(
        (stats.footprint() as f64) <= bound,
        "{label}: footprint {} exceeds (1+ε)·ΣV + N·∆ = {bound:.0}",
        stats.footprint()
    );
    println!(
        "{label:<28} shards={} volume={:>7} footprint={:>7} imbalance={:.2}",
        stats.shards(),
        stats.live_volume(),
        stats.footprint(),
        stats.imbalance_ratio()
    );
}

fn main() {
    // Skew keyed to the router's own map: deletes spare shard 0's objects.
    let probe = TableRouter::new(SHARDS);
    let workload = skewed_churn(
        &ChurnConfig {
            dist: SizeDist::Uniform { lo: 4, hi: 128 },
            target_volume: 40_000,
            churn_ops: 20_000,
            seed: 4242,
        },
        |id| probe.route(id) == 0,
    );
    println!("workload: {} ({} requests)", workload.name, workload.len());
    println!("engine:   cost-oblivious × {SHARDS} shards, ε = {EPS}\n");

    let mut engine = Engine::new(EngineConfig::with_shards(SHARDS), factory);

    // 1. The storm: volume piles up on shard 0.
    engine.drive(&workload).expect("shards healthy");
    let skewed = engine.quiesce().expect("no request errors");
    check_footprint(&skewed, "after skewed churn");
    assert!(
        skewed.imbalance_ratio() > 2.0,
        "the storm should unbalance the fleet"
    );
    let population = skewed.live_count();

    // 2. The repair: one rebalance, defrag pass included.
    let report = engine
        .rebalance(RebalanceOptions::with_defrag(EPS))
        .expect("rebalance");
    println!(
        "\nrebalance: {} objects / {} cells migrated, {} assignments pinned",
        report.migrated_objects,
        report.migrated_volume,
        engine.router().assignments()
    );
    for d in &report.defrag {
        assert!(
            d.within_budget,
            "defrag blew its budget on shard {}",
            d.shard
        );
        println!(
            "  defrag shard {}: {} objects sorted in {} moves, peak {} ≤ budget {} + ∆",
            d.shard, d.objects, d.total_moves, d.peak_space, d.budget
        );
    }
    check_footprint(&report.after, "after rebalance");
    assert!(
        report.after.imbalance_ratio() < 1.25,
        "rebalance must equalize the fleet"
    );
    assert_eq!(report.after.live_count(), population, "no object lost");

    // 3. Live resizes, both directions.
    let grow = engine.resize_shards(6, factory).expect("grow");
    println!(
        "\nresize 4 -> 6: {} of {} objects migrated (rendezvous keeps the rest in place)",
        grow.migrated_objects, population
    );
    assert!(
        (grow.migrated_objects as usize) < population / 2,
        "a grow should re-home a minority of objects"
    );
    check_footprint(&engine.quiesce().expect("grown"), "after growing to 6");

    let shrink = engine.resize_shards(3, factory).expect("shrink");
    println!(
        "\nresize 6 -> 3: {} objects migrated off the retired shards",
        shrink.migrated_objects
    );
    check_footprint(&engine.quiesce().expect("shrunk"), "after shrinking to 3");

    // 4. Wrap up: every object is still there, on the shard that owns it.
    let extents = engine.extents().expect("extents");
    let mut survivors = 0usize;
    for (shard, list) in extents.iter().enumerate() {
        for &(id, _) in list {
            assert_eq!(engine.shard_of(id), shard, "{id} routed to a stale shard");
            survivors += 1;
        }
    }
    assert_eq!(survivors, population, "objects conserved through it all");

    let finals = engine.shutdown().expect("clean shutdown");
    let migrations: u64 = finals.iter().map(|f| f.stats.migrations_in).sum();
    println!(
        "\nshutdown: {} shard ledgers ({} live + {} retired), {migrations} migrations ledgered",
        finals.len(),
        3,
        finals.len() - 3
    );
    println!("balanced, resized, and never lost an object ✓");
}

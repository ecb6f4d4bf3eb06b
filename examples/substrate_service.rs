//! Substrate-backed shards: every byte is real, every transfer verified.
//!
//! The other engine examples account costs; this one makes the storage
//! *physical*. Each shard owns a byte-carrying `DataStore` over its own
//! disjoint address window (shard *i* gets `[i·2³², (i+1)·2³²)`), so:
//!
//! 1. serving replays every physical op — inserts write the object's
//!    pattern bytes, buffer flushes perform their scheduled copies,
//!    deletes free — with overlap and window containment checked on every
//!    single write;
//! 2. a skewed delete storm is repaired by an **online** rebalance whose
//!    migrations are genuine cross-address-space copies: the source reads
//!    the object's bytes out of its window, the target re-checksums them
//!    on arrival and writes exactly what was shipped;
//! 3. every quiesce barrier byte-verifies every shard (the `Quiesce`
//!    cadence), and the ledgered migrate volume is shown equal to the
//!    cells physically copied between windows;
//! 4. finally, a fault is injected: one byte of one in-flight transfer is
//!    flipped. The receiving shard refuses the damaged payload, the
//!    session aborts *after* pinning completed transfers, and routing
//!    still matches physical ownership — the paper's "names are immutable,
//!    addresses are not" contract survives a corrupted wire.
//!
//! Run with `cargo run --release --example substrate_service`.

use storage_realloc::prelude::*;

const SHARDS: usize = 4;
const EPS: f64 = 0.25;

fn factory(_shard: usize) -> Box<dyn Reallocator + Send> {
    Box::new(CostObliviousReallocator::new(EPS))
}

fn build_engine() -> Engine {
    Engine::new(
        EngineConfig::with_shards(SHARDS).with_substrate(SubstrateConfig::default()),
        factory,
    )
}

/// Loads shard 0 far above the others: insert everywhere, delete whatever
/// routes elsewhere (the classic skewed-survivor storm).
fn storm(engine: &mut Engine, ids: u64) {
    for i in 0..ids {
        engine.insert(ObjectId(i), 8 + i % 57).unwrap();
    }
    let doomed: Vec<ObjectId> = (0..ids)
        .map(ObjectId)
        .filter(|&id| engine.shard_of(id) != 0)
        .collect();
    for id in doomed {
        engine.delete(id).unwrap();
    }
}

fn main() {
    // ---- 1. a substrate-backed fleet under a skew storm -----------------
    let mut engine = build_engine();
    storm(&mut engine, 4_000);
    // This quiesce is also a fleet-wide byte verification: every shard
    // checks its store's extents against its reallocator and re-checksums
    // every live object.
    let before = engine.quiesce().expect("byte-verified quiesce");
    println!(
        "storm:     imbalance {:.2}, {} objects / {} cells live, {} cells physically written",
        before.imbalance_ratio(),
        before.live_count(),
        before.live_volume(),
        before.bytes_written(),
    );
    assert!(before.imbalance_ratio() > 2.0, "storm failed to skew");

    // ---- 2. online repair with real cross-window copies -----------------
    let plan = engine
        .rebalance_online(RebalanceOptions::default().batched(32))
        .expect("plan");
    println!(
        "plan:      {} objects / {} cells to re-home in {} bounded batches",
        plan.objects, plan.volume, plan.batches
    );
    // Fresh traffic drains the session; every dispatched batch migrates
    // one bounded batch of real bytes.
    let mut extra = 0u64;
    while engine.rebalance_active() {
        for i in 0..600 {
            engine
                .insert(ObjectId(1_000_000 + extra * 1_000 + i), 4)
                .unwrap();
        }
        extra += 1;
        assert!(extra < 100, "session never drained");
    }
    let report = engine.take_rebalance_report().expect("completed session");
    let after = engine.quiesce().expect("byte-verified quiesce");
    println!(
        "repaired:  imbalance {:.2} -> {:.2} ({} mode, {} batches)",
        report.before.imbalance_ratio(),
        report.after.imbalance_ratio(),
        report.mode,
        report.batches
    );
    assert!(report.after.imbalance_ratio() < 1.25);

    // ---- 3. physical bytes == ledgered volume ---------------------------
    println!(
        "transfers: {} cells copied out of source windows, {} adopted (checksummed) \
         — ledger says {} out / {} in",
        after.bytes_migrated_out(),
        after.bytes_migrated_in(),
        after.migrated_volume_out(),
        after.migrated_volume(),
    );
    assert_eq!(after.bytes_migrated_out(), report.migrated_volume);
    assert_eq!(after.bytes_migrated_in(), report.migrated_volume);
    for r in engine.verify_substrate().expect("verify") {
        println!(
            "verify:    shard {} window {} — {} objects / {} cells byte-verified",
            r.shard, r.window, r.objects, r.bytes
        );
        assert!(r.error.is_none());
    }
    engine.shutdown().expect("clean shutdown");

    // ---- 4. a corrupted transfer cannot slip through --------------------
    let mut engine = build_engine();
    storm(&mut engine, 1_000);
    let before = engine.quiesce().expect("quiesce");
    engine
        .rebalance_online(RebalanceOptions::default().batched(8))
        .expect("plan");
    engine.rebalance_step().expect("first batch lands clean");
    engine.inject_transfer_corruption(); // flip one byte in flight
    let err = loop {
        match engine.rebalance_step() {
            Ok(true) => {}
            Ok(false) => unreachable!("a damaged transfer must not be adopted"),
            Err(err) => break err,
        }
    };
    println!("fault:     {err}");
    assert!(matches!(
        err,
        EngineError::Request {
            error: ReallocError::CorruptTransfer(_),
            ..
        }
    ));
    // The session aborted with completed transfers pinned: every survivor
    // routes to the shard that physically owns it, bytes intact.
    let extents = engine.extents().expect("extents");
    let mut survivors = 0usize;
    for (shard, list) in extents.iter().enumerate() {
        for &(id, _) in list {
            assert_eq!(engine.shard_of(id), shard, "{id} routed to a stale shard");
            survivors += 1;
        }
    }
    assert_eq!(
        survivors,
        before.live_count() - 1,
        "exactly one object lost"
    );
    for r in engine.verify_substrate().expect("verify") {
        assert!(r.error.is_none(), "surviving bytes must verify");
    }
    println!(
        "aborted:   exactly 1 object refused, {} survivors all routed to their \
         physical owners, bytes verified — routing never desyncs",
        survivors
    );
    println!(
        "\nevery byte accounted for: the sharded path now runs the same \
             data-integrity rules as the unsharded harness."
    );
}

//! A shard's ledger memory follows the distinct sizes it has seen, not the
//! number of requests it has served: by default the ledger keeps the
//! cost-oblivious summary (size → count multisets and running maxima), so a
//! service can run forever.
//!
//! Heap use is measured with a counting global allocator. Its counters are
//! per thread, so the tests in this binary can run in parallel without
//! polluting each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use storage_realloc::prelude::*;
use storage_realloc::workloads::churn::{churn, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

/// The system allocator, counting the current thread's allocations and
/// the bytes it frees.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static FREED_BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over. The counters are
// const-initialized thread-locals with no destructor, so touching them never
// allocates, and `try_with` skips counting during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREED_BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = FREED_BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn freed_bytes() -> u64 {
    FREED_BYTES.with(Cell::get)
}

/// Stationary churn: a fill to the target volume, then `ops` requests
/// holding it there. The fill does not depend on `ops`.
fn stationary(ops: usize) -> Workload {
    churn(&ChurnConfig {
        dist: SizeDist::ClassPowerLaw {
            classes: 8,
            decay: 0.7,
        },
        target_volume: 20_000,
        churn_ops: ops,
        seed: 5,
    })
}

/// Heap bytes released by dropping a default engine's `ShardFinal`s after
/// it served `workload`.
fn ledger_bytes_after(workload: &Workload) -> u64 {
    let mut engine = Engine::new(EngineConfig::default(), |_| {
        build_variant("cost-oblivious", 0.25).expect("registry name")
    });
    engine.drive(workload).expect("drive");
    let finals = engine.shutdown().expect("shutdown");
    let requests: u64 = finals.iter().map(|f| f.stats.requests).sum();
    assert_eq!(requests as usize, workload.len());
    let before = freed_bytes();
    drop(finals);
    freed_bytes() - before
}

/// Ten times the requests, the same ledger memory: the summary a shard
/// hands back grows with distinct sizes only.
#[test]
fn shard_ledger_memory_is_bounded_by_distinct_sizes() {
    const N: usize = 10_000;
    let short = ledger_bytes_after(&stationary(N));
    let long = ledger_bytes_after(&stationary(10 * N));
    assert!(
        long.abs_diff(short) < 64 * 1024,
        "ledger memory grew with requests: {short} B after {N} churn requests, \
         {long} B after {}",
        10 * N
    );
}

/// Once every size it sees has been counted, a summary ledger records
/// without touching the heap.
#[test]
fn warm_summary_ledger_records_without_allocating() {
    let outcome = |sizes: &[u64], checkpoints: u32| Outcome {
        ops: sizes
            .iter()
            .enumerate()
            .map(|(i, &w)| StorageOp::Move {
                id: ObjectId(i as u64),
                from: Extent::new(10_000 + 5_000 * i as u64, w),
                to: Extent::new(5_000 * i as u64, w),
            })
            .chain((0..checkpoints).map(|_| StorageOp::CheckpointBarrier))
            .collect(),
        flushed: !sizes.is_empty(),
        peak_structure_size: 30_000,
        checkpoints,
    };
    // Small sizes, a size past the direct-indexed range, and a request
    // that moves nothing.
    let outcomes = [
        outcome(&[3, 17, 900], 1),
        outcome(&[4_000, 12], 2),
        outcome(&[], 0),
    ];
    let mut ledger = Ledger::new();
    let record = |ledger: &mut Ledger, i: usize| {
        let kind = [OpKind::Insert, OpKind::Delete, OpKind::Drain][i % 3];
        let allocated = (kind == OpKind::Insert).then_some(4_000);
        ledger.record(
            kind,
            4_000,
            allocated,
            &outcomes[i % 3],
            25_000,
            20_000,
            4_000,
        );
    };
    for i in 0..3 {
        record(&mut ledger, i);
    }
    let before = allocations();
    for i in 0..10_000 {
        record(&mut ledger, i);
    }
    assert_eq!(allocations() - before, 0, "Ledger::record allocated");
    assert_eq!(ledger.len(), 10_003);
    assert_eq!(ledger.count_kind(OpKind::Drain), 3_334);
}

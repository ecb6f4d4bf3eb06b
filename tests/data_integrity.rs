//! Byte-level end-to-end integrity: the reallocators' op streams replayed
//! against a device that carries *actual data* with per-object checksums.
//! Every object's bytes must survive arbitrary moves, and after a crash
//! every durably-mapped object's bytes must be intact at the mapped
//! address — the strongest form of the paper's §3 durability argument.

use storage_realloc::prelude::*;
use storage_realloc::sim::DataStore;
use storage_realloc::workloads::churn::{churn, coalescible_churn, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

fn drive_through(
    r: &mut dyn Reallocator,
    store: &mut DataStore,
    workload: &Workload,
    verify_every: usize,
) {
    for (i, req) in workload.requests.iter().enumerate() {
        let outcome = match *req {
            Request::Insert { id, size } => r.insert(id, size).unwrap(),
            Request::Delete { id } => r.delete(id).unwrap(),
        };
        store
            .apply_all(&outcome.ops)
            .unwrap_or_else(|v| panic!("{}: request {i}: {v}", r.name()));
        if i % verify_every == 0 {
            store
                .verify_all()
                .unwrap_or_else(|e| panic!("{}: request {i}: {e}", r.name()));
        }
    }
    store.verify_all().unwrap();
}

fn small_config(seed: u64) -> ChurnConfig {
    ChurnConfig {
        dist: SizeDist::Uniform { lo: 1, hi: 150 },
        target_volume: 6_000,
        churn_ops: 2_500,
        seed,
    }
}

fn small_churn(seed: u64) -> Workload {
    churn(&small_config(seed))
}

/// The §2 algorithm's self-overlapping compaction moves are memmove-safe:
/// no byte of any object is ever lost under relaxed replay.
#[test]
fn amortized_preserves_bytes_through_overlapping_moves() {
    let w = small_churn(41);
    let mut r = CostObliviousReallocator::new(0.25);
    let mut store = DataStore::new(Mode::Relaxed);
    drive_through(&mut r, &mut store, &w, 100);
}

/// The §3.2 algorithm under the full database rules, with byte-level crash
/// verification after every request. The coalescible stream frees ids and
/// allocates them again, often at a new size, before the next checkpoint:
/// each durable copy must verify against the checksum of the copy the
/// checkpoint made durable, not against the live one's.
#[test]
fn checkpointed_bytes_survive_crashes() {
    for w in [small_churn(42), coalescible_churn(&small_config(42))] {
        let mut r = CheckpointedReallocator::new(0.25);
        let mut store = DataStore::new(Mode::Strict);
        for (i, req) in w.requests.iter().enumerate() {
            let outcome = match *req {
                Request::Insert { id, size } => r.insert(id, size).unwrap(),
                Request::Delete { id } => r.delete(id).unwrap(),
            };
            store.apply_all(&outcome.ops).unwrap();
            let report = store.crash_and_verify();
            assert!(
                report.is_durable(),
                "{}: request {i} of {}: crash would corrupt {:?}",
                w.name,
                w.requests.len(),
                report.corrupted
            );
        }
        store.verify_all().unwrap();
    }
}

/// The §3.3 structure: bytes stay correct through incremental flushes, log
/// placement, and drains.
#[test]
fn deamortized_bytes_survive_incremental_flushes() {
    let w = small_churn(43);
    let mut r = DeamortizedReallocator::new(0.25);
    let mut store = DataStore::new(Mode::Strict);
    drive_through(&mut r, &mut store, &w, 50);
    let out = r.drain();
    store.apply_all(&out.ops).unwrap();
    store.verify_all().unwrap();
    assert!(store.crash_and_verify().is_durable());
}

/// The defragmenter's schedule preserves every byte.
#[test]
fn defrag_preserves_bytes() {
    // Build a fragmented layout through the relaxed store.
    let mut store = DataStore::new(Mode::Relaxed);
    let mut objects = Vec::new();
    let mut at = 0u64;
    for i in 0..300u64 {
        let size = 1 + (i * 17) % 200;
        let e = Extent::new(at, size);
        store
            .apply(&StorageOp::Allocate {
                id: ObjectId(i),
                to: e,
            })
            .unwrap();
        objects.push((ObjectId(i), e));
        at += size + (i % 13);
    }
    let report = defragment(&objects, 0.25, |a, b| a.0.cmp(&b.0)).unwrap();
    store.apply_all(&report.ops).unwrap();
    store.verify_all().unwrap();
}

//! The layer ladder of a traced run: the workload's stream replayed
//! through each layer's public functions on the benchmark's own thread,
//! each call timed on its own.
//!
//! The stream is routed and split into per-shard streams exactly as the
//! front-end would. Each shard stream then runs on a fresh `build_variant`
//! instance (core), and every outcome is ledgered (ledger), applied to a
//! byte-carrying `DataStore` (substrate), journaled as WAL records that
//! are group-committed every `BATCH` requests to a real file (wal), and
//! priced on the disk device profile (device). Every layer runs on every
//! workload, so a layer's figures can be compared across workloads; the
//! front-end decides which of them a workload's end-to-end run pays for.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use storage_realloc::common::{HashRouter, Ledger, OpKind, Router, StorageOp, TableRouter};
use storage_realloc::engine::{DeviceProfile, Engine, EngineConfig};
use storage_realloc::prelude::{build_variant, variant_is_strict_safe};
use storage_realloc::sim::wal::wal_path;
use storage_realloc::sim::{checksum, pattern_for, DataStore, Mode, WalRecord, WalWriter};
use storage_realloc::workloads::shard::split_with;
use storage_realloc::workloads::{Request, Workload};

use crate::frontend::{stage_ms, DirGuard, Recovery};
use crate::spec::{Expected, Kind, Spec, BATCH, EPS, TENANTS};

#[derive(Default)]
pub struct Ladder {
    pub router_ns_per_req: f64,
    pub split_ns_per_req: f64,
    pub core_ns: u64,
    pub core_allocs: u64,
    /// Latency of each insert/delete call that flushed.
    pub flush_us: Vec<f64>,
    pub flushes: u64,
    pub ops: u64,
    pub moved_volume: u64,
    pub ledger_ns: u64,
    pub substrate_ns: u64,
    pub cells_written: u64,
    pub verify_ms: f64,
    pub wal_record_ns: u64,
    pub wal_append_ns: u64,
    pub wal_records: u64,
    pub wal_commit_us: Vec<f64>,
    pub wal_bytes: u64,
    pub sim_us: f64,
    /// Recovery of the ladder's journal (skipped when the front-end
    /// recovers its own).
    pub recovery: Option<Recovery>,
    pub problems: Vec<String>,
}

/// The counts a second, untimed core replay must reproduce exactly.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CoreCounts {
    pub flushes: u64,
    pub ops: u64,
    pub moved_volume: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The router the workload's front-end routes with (a tenant's own
/// single-shard router on `tenants`), and the per-shard streams.
fn route_and_split(spec: &Spec, workload: &Workload, ladder: &mut Ladder) -> Vec<Workload> {
    let router: Box<dyn Router> = match spec.kind {
        Kind::Churn => Box::new(HashRouter::new(spec.shards)),
        Kind::Durable => Box::new(TableRouter::new(spec.shards)),
        Kind::Tenants => Box::new(HashRouter::new(1)),
    };
    let n = workload.len() as f64;
    let reps = 5;
    ladder.router_ns_per_req = crate::median(
        &(0..reps)
            .map(|_| {
                let t = Instant::now();
                for req in &workload.requests {
                    black_box(router.route(black_box(req.id())));
                }
                elapsed_ns(t) as f64 / n
            })
            .collect::<Vec<f64>>(),
    );
    let split = || match spec.kind {
        Kind::Tenants => split_with(workload, TENANTS, |id| (id.0 % TENANTS as u64) as usize),
        _ => split_with(workload, spec.shards, |id| router.route(id)),
    };
    let mut parts = Vec::new();
    ladder.split_ns_per_req = crate::median(
        &(0..reps)
            .map(|_| {
                let t = Instant::now();
                parts = black_box(split());
                elapsed_ns(t) as f64 / n
            })
            .collect::<Vec<f64>>(),
    );
    parts
}

/// The WAL records a shard journals for `ops` (digests, not payloads).
fn wal_records(ops: &[StorageOp]) -> Vec<WalRecord> {
    ops.iter()
        .filter_map(|op| match *op {
            StorageOp::Allocate { id, to } => Some(WalRecord::Allocate {
                id,
                offset: to.offset,
                len: to.len,
                digest: checksum(&pattern_for(id, to.len)),
            }),
            StorageOp::Move { id, from, to } => Some(WalRecord::Move {
                id,
                from: from.offset,
                to: to.offset,
                len: to.len,
            }),
            StorageOp::Free { id, at } => Some(WalRecord::Free {
                id,
                offset: at.offset,
                len: at.len,
            }),
            StorageOp::CheckpointBarrier => None,
        })
        .collect()
}

/// Runs the ladder; `recover` also rebuilds an engine from the ladder's
/// journal with `Engine::recover`. `scratch` holds the journal.
pub fn run(
    spec: &Spec,
    workload: &Workload,
    expected: &Expected,
    scratch: &Path,
    recover: bool,
) -> Result<Ladder, String> {
    let mut ladder = Ladder::default();
    let streams = route_and_split(spec, workload, &mut ladder);
    let dir = scratch.join("ladder-wal");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let guard = DirGuard(dir);
    let mode = if variant_is_strict_safe(spec.variant) {
        Mode::Strict
    } else {
        Mode::Relaxed
    };
    let device = DeviceProfile::Disk.build();
    for (shard, stream) in streams.iter().enumerate() {
        let first = replay_shard(
            spec,
            &stream.requests,
            shard,
            mode,
            &device,
            &guard.0,
            &mut ladder,
        )?;
        let again = core_counts(spec.variant, &stream.requests)?;
        if again != first {
            ladder.problems.push(format!(
                "shard {shard}: core replays disagree: {first:?} vs {again:?}"
            ));
        }
    }
    if recover {
        let t = Instant::now();
        let (mut engine, report) =
            Engine::recover(EngineConfig::with_shards(streams.len()), &guard.0, |_| {
                build_variant(spec.variant, EPS).expect("registered variant")
            })
            .map_err(|e| format!("recover the ladder's journal: {e}"))?;
        let seconds = t.elapsed().as_secs_f64();
        let metrics = engine.metrics().map_err(|e| e.to_string())?;
        let found = engine
            .extents()
            .map_err(|e| e.to_string())?
            .into_iter()
            .flatten()
            .map(|(id, extent)| (id, extent.len))
            .collect();
        let lost = expected.mismatches(&found);
        if lost > 0 {
            ladder
                .problems
                .push(format!("ladder recovery lost or changed {lost} objects"));
        }
        ladder.recovery = Some(Recovery {
            seconds,
            replayed_records: report.replayed_records,
            stage_ms: stage_ms(&metrics),
        });
    }
    Ok(ladder)
}

/// One shard stream through core, ledger, substrate, WAL and device.
fn replay_shard(
    spec: &Spec,
    stream: &[Request],
    shard: usize,
    mode: Mode,
    device: &storage_realloc::sim::DeviceModel,
    dir: &Path,
    ladder: &mut Ladder,
) -> Result<CoreCounts, String> {
    let mut counts = CoreCounts::default();
    let mut realloc = build_variant(spec.variant, EPS).expect("registered variant");
    let mut ledger = Ledger::new();
    let mut store = DataStore::new(mode);
    let mut wal = WalWriter::open(&wal_path(dir, shard), 0).map_err(|e| e.to_string())?;
    for (i, &req) in stream.iter().enumerate() {
        let (kind, size, allocated) = match req {
            Request::Insert { size, .. } => (OpKind::Insert, size, Some(size)),
            Request::Delete { id } => (
                OpKind::Delete,
                realloc.extent_of(id).map_or(0, |e| e.len),
                None,
            ),
        };
        let allocs = crate::thread_allocs();
        let t = Instant::now();
        let served = match req {
            Request::Insert { id, size } => realloc.insert(id, size),
            Request::Delete { id } => realloc.delete(id),
        };
        let core_ns = elapsed_ns(t);
        ladder.core_allocs += crate::thread_allocs() - allocs;
        ladder.core_ns += core_ns;
        let outcome = served.map_err(|e| format!("shard {shard} request {i}: {e}"))?;
        if outcome.flushed {
            counts.flushes += 1;
            ladder.flush_us.push(core_ns as f64 / 1e3);
        }
        counts.ops += outcome.ops.len() as u64;
        counts.moved_volume += outcome.moved_volume();

        let (structure, volume, delta) = (
            realloc.structure_size(),
            realloc.live_volume(),
            realloc.max_object_size(),
        );
        let t = Instant::now();
        ledger.record(kind, size, allocated, &outcome, structure, volume, delta);
        ladder.ledger_ns += elapsed_ns(t);

        let t = Instant::now();
        store
            .apply_all(&outcome.ops)
            .map_err(|e| format!("shard {shard} substrate: {e:?}"))?;
        ladder.substrate_ns += elapsed_ns(t);
        ladder.cells_written += outcome
            .ops
            .iter()
            .map(StorageOp::cells_written)
            .sum::<u64>();

        let t = Instant::now();
        let records = wal_records(&outcome.ops);
        ladder.wal_record_ns += elapsed_ns(t);
        ladder.wal_records += records.len() as u64;
        let t = Instant::now();
        for record in records {
            wal.append(record);
        }
        ladder.wal_append_ns += elapsed_ns(t);
        if (i + 1) % BATCH == 0 || i + 1 == stream.len() {
            let t = Instant::now();
            let bytes = wal
                .commit()
                .map_err(|e| format!("shard {shard} wal: {e}"))?;
            if bytes > 0 {
                ladder.wal_commit_us.push(t.elapsed().as_secs_f64() * 1e6);
                ladder.wal_bytes += bytes;
            }
        }

        ladder.sim_us += device.time_of_stream(&outcome.ops);
    }
    let t = Instant::now();
    store
        .verify_all()
        .map_err(|e| format!("shard {shard} substrate verification: {e}"))?;
    ladder.verify_ms += t.elapsed().as_secs_f64() * 1e3;
    black_box(ledger);
    ladder.flushes += counts.flushes;
    ladder.ops += counts.ops;
    ladder.moved_volume += counts.moved_volume;
    Ok(counts)
}

/// An untimed core-only replay.
fn core_counts(variant: &str, stream: &[Request]) -> Result<CoreCounts, String> {
    let mut realloc = build_variant(variant, EPS).expect("registered variant");
    let mut counts = CoreCounts::default();
    for &req in stream {
        let outcome = match req {
            Request::Insert { id, size } => realloc.insert(id, size),
            Request::Delete { id } => realloc.delete(id),
        }
        .map_err(|e| e.to_string())?;
        counts.flushes += u64::from(outcome.flushed);
        counts.ops += outcome.ops.len() as u64;
        counts.moved_volume += outcome.moved_volume();
    }
    Ok(counts)
}

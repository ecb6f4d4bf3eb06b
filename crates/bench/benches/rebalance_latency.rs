//! E15 — rebalance *tail latency*: barrier vs online execution of the same
//! migration plan under sustained churn (our addition; the paper has no
//! serving layer).
//!
//! Rebalancing repairs a skew-driven imbalance above 2× to below 1.25×
//! (`tests/router_rebalance.rs` asserts both). This experiment asks the
//! question a serving front-end actually cares about: *how long does
//! request intake stall while the fleet rebalances?* The workload is a
//! skewed-churn storm that releases halfway — phase one manufactures a >2×
//! imbalance, phase two is sustained neutral churn during which the repair
//! runs. Requests arrive in fixed service batches ("chunks"); the per-chunk
//! wall time is the intake stall a client would see.
//!
//! * **barrier** — `Engine::rebalance` at the trigger chunk: the fleet
//!   quiesces and the whole migration executes inside that one chunk. Its
//!   stall *is* the migration.
//! * **online** — `Engine::rebalance_online` at the same trigger: the plan
//!   drains in bounded batches piggybacked on the following chunks'
//!   serving; each chunk absorbs at most a batch of migrations.
//!
//! The acceptance bar (ISSUE 4): online's worst chunk stall during an
//! active rebalance is **< 10% of the barrier-mode quiesce stall**, while
//! both modes converge to imbalance ≤ 1.25. Both numbers are printed with
//! a PASS/FAIL verdict.

use std::time::{Duration, Instant};

use realloc_bench::{fmt2, fmt_u64, Table};
use realloc_common::{rendezvous_shard, Reallocator};
use realloc_core::CostObliviousReallocator;
use realloc_engine::{Engine, EngineConfig, RebalanceMode, RebalanceOptions};
use workload_gen::churn::{skewed_churn_release, ChurnConfig};
use workload_gen::dist::SizeDist;
use workload_gen::Workload;

const EPS: f64 = 0.125;
const SHARDS: usize = 4;
/// Requests per service batch (the intake granularity being timed).
const CHUNK: usize = 128;
/// Online mode: objects migrated per bounded batch.
const BATCH_OBJECTS: usize = 64;
/// Engine batching, both modes: small channel batches and a shallow queue
/// keep the per-shard in-flight window short — a migrate-out only waits for
/// that window to drain, so this is the knob that bounds an online step's
/// freeze latency (and it costs barrier mode nothing: its stall is the
/// migration itself).
const ENGINE_BATCH: usize = 64;
const QUEUE_DEPTH: usize = 2;
/// Independent runs per mode; the table reports the median-worst run.
const RUNS: usize = 5;
/// Churn ops after the skew releases (the neutral window the repair runs
/// in); the preceding `SKEW_OPS` build the imbalance first.
const NEUTRAL_OPS: usize = 20_000;
const SKEW_OPS: usize = 150_000;

fn workload() -> Workload {
    skewed_churn_release(
        &ChurnConfig {
            dist: SizeDist::Uniform { lo: 1, hi: 64 },
            // ~30k live objects: the trigger-time migration plan is several
            // thousand objects, so barrier mode's single stall dwarfs one
            // chunk's serving — the regime the comparison is about.
            target_volume: 1_000_000,
            churn_ops: SKEW_OPS + NEUTRAL_OPS,
            seed: 77,
        },
        |id| rendezvous_shard(id, SHARDS) == 0,
        SKEW_OPS,
    )
}

fn engine() -> Engine {
    let factory =
        |_shard: usize| Box::new(CostObliviousReallocator::new(EPS)) as Box<dyn Reallocator + Send>;
    Engine::new(
        EngineConfig {
            batch: ENGINE_BATCH,
            queue_depth: QUEUE_DEPTH,
            ..EngineConfig::with_shards(SHARDS)
        },
        factory,
    )
}

struct RunResult {
    /// Worst chunk stall inside the rebalance window (trigger chunk through
    /// the chunk in which the migration completed).
    worst_stall: Duration,
    /// p99 chunk stall over the whole run.
    p99: Duration,
    /// Chunks in the rebalance window.
    window_chunks: usize,
    /// Imbalance when the rebalance completed (the convergence target).
    imbalance_after: f64,
    imbalance_before: f64,
    migrated_objects: u64,
    batches: u64,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Serves the workload in CHUNK-request service batches, triggering one
/// rebalance at the first chunk boundary past the skew phase. Each chunk's
/// wall time includes whatever rebalance work rode on it.
fn run(workload: &Workload, mode: RebalanceMode) -> RunResult {
    let mut e = engine();
    // First chunk boundary at/after the end of the skew phase (the release
    // point is `len - NEUTRAL_OPS` requests in).
    let trigger_chunk = (workload.len() - NEUTRAL_OPS).div_ceil(CHUNK);
    let opts = RebalanceOptions::default().batched(BATCH_OBJECTS);

    let mut stalls: Vec<Duration> = Vec::new();
    let mut window = None; // (first_chunk, last_chunk) of the rebalance
    let mut report = None;
    for (i, chunk) in workload.requests.chunks(CHUNK).enumerate() {
        let seg = Workload::new("chunk", chunk.to_vec());
        let start = Instant::now();
        e.drive(&seg).expect("drive");
        if i == trigger_chunk {
            match mode {
                RebalanceMode::Barrier => {
                    report = Some(e.rebalance(opts).expect("rebalance"));
                    window = Some((i, i));
                }
                RebalanceMode::Online => {
                    e.rebalance_online(opts).expect("plan");
                    window = Some((i, i));
                }
            }
        }
        stalls.push(start.elapsed());
        if report.is_none() {
            if let Some(done) = e.take_rebalance_report() {
                report = Some(done);
                if let Some((_, last)) = &mut window {
                    *last = i;
                }
            }
        }
    }
    // A session still draining at workload end finishes on idle steps, each
    // timed as its own (bounded) stall.
    while report.is_none() {
        let start = Instant::now();
        let active = e.rebalance_step().expect("step");
        stalls.push(start.elapsed());
        if let Some((_, last)) = &mut window {
            *last = stalls.len() - 1;
        }
        if !active {
            report = e.take_rebalance_report();
        }
    }
    let report = report.expect("one rebalance per run");
    let (first, last) = window.expect("trigger inside the workload");
    let worst_stall = stalls[first..=last].iter().copied().max().unwrap();
    let mut sorted = stalls.clone();
    sorted.sort();
    let result = RunResult {
        worst_stall,
        p99: percentile(&sorted, 0.99),
        window_chunks: last - first + 1,
        imbalance_after: report.after.imbalance_ratio(),
        imbalance_before: report.before.imbalance_ratio(),
        migrated_objects: report.migrated_objects,
        batches: report.batches,
    };
    drop(e.shutdown().expect("clean shutdown"));
    result
}

/// Median-by-worst-stall of `RUNS` runs (timings vary; the comparison
/// should not ride on one noisy outlier in either direction).
fn run_many(workload: &Workload, mode: RebalanceMode) -> RunResult {
    let mut results: Vec<RunResult> = (0..RUNS).map(|_| run(workload, mode)).collect();
    results.sort_by_key(|r| r.worst_stall);
    results.remove(RUNS / 2)
}

fn micros(d: Duration) -> String {
    fmt_u64(d.as_micros() as u64)
}

fn main() {
    let workload = workload();
    println!("workload: {} ({} requests)", workload.name, workload.len());
    println!(
        "engine:   cost-oblivious × {SHARDS} shards (ε = {EPS}); \
         {CHUNK}-request service batches, online batches of {BATCH_OBJECTS} objects, \
         median of {RUNS} runs\n"
    );

    let barrier = run_many(&workload, RebalanceMode::Barrier);
    let online = run_many(&workload, RebalanceMode::Online);

    let mut table = Table::new(
        "rebalance intake stalls (µs)".to_string(),
        &[
            "mode",
            "worst stall",
            "p99 chunk",
            "window chunks",
            "batches",
            "migrated",
            "imbalance before",
            "imbalance after",
        ],
    );
    for (name, r) in [("barrier", &barrier), ("online", &online)] {
        table.row(vec![
            name.to_string(),
            micros(r.worst_stall),
            micros(r.p99),
            fmt_u64(r.window_chunks as u64),
            fmt_u64(r.batches),
            fmt_u64(r.migrated_objects),
            fmt2(r.imbalance_before),
            fmt2(r.imbalance_after),
        ]);
    }
    table.print();

    let ratio = online.worst_stall.as_secs_f64() / barrier.worst_stall.as_secs_f64();
    let converged = barrier.imbalance_after <= 1.25 && online.imbalance_after <= 1.25;
    println!(
        "\n  online worst stall = {:.1}% of the barrier quiesce stall \
         (target < 10%); imbalance after: barrier {:.2}, online {:.2} \
         (target ≤ 1.25 both) {}",
        100.0 * ratio,
        barrier.imbalance_after,
        online.imbalance_after,
        realloc_bench::verdict(ratio < 0.10 && converged),
    );
}

//! E13 — serving throughput of the sharded engine across shard counts
//! (our addition; the paper has no serving layer).
//!
//! Requests/second for the amortized (§2) variant on the standard churn
//! workload behind a 1/2/4/8-shard engine, plus the un-sharded direct-call
//! baseline for reference: the mean of 10 timed runs after one warm-up,
//! per configuration. The regime is flush-heavy (tight ε = 1/16,
//! V ≈ 200k): buffer flushes dominate, and a flush rebuilds a suffix of the
//! shard's structure — so `N` shards each rebuild a structure `N×` smaller
//! with far better cache locality, a win that needs no second core (and
//! stacks with real parallelism on multi-core hosts). The final summary
//! interleaves 1-shard and 4-shard runs so slow machine-load drift cancels
//! out of the reported ratio.

use std::time::Instant;

use realloc_bench::{fmt2, fmt_u64, mean_secs, Table};
use realloc_common::Reallocator;
use realloc_core::CostObliviousReallocator;
use realloc_engine::{Engine, EngineConfig};
use workload_gen::{Request, Workload};

const EPS: f64 = 0.0625;
const SAMPLES: u32 = 10;

fn direct(w: &Workload) -> u64 {
    let mut r = CostObliviousReallocator::new(EPS);
    for req in &w.requests {
        match *req {
            Request::Insert { id, size } => {
                r.insert(id, size).expect("insert");
            }
            Request::Delete { id } => {
                r.delete(id).expect("delete");
            }
        }
    }
    r.live_volume()
}

fn sharded(w: &Workload, shards: usize) -> u64 {
    let mut engine = Engine::new(EngineConfig::with_shards(shards), |_| {
        Box::new(CostObliviousReallocator::new(EPS)) as Box<dyn Reallocator + Send>
    });
    engine.drive(w).expect("drive");
    engine.quiesce().expect("quiesce").live_volume()
}

fn main() {
    let workload = realloc_bench::standard_churn(200_000, 20_000, 1234);
    let n = workload.len() as u64;

    let mut table = Table::new(
        format!("engine_churn: mean of {SAMPLES} runs"),
        &["config", "ms/run", "requests/sec"],
    );
    let mut row = |config: String, secs: f64| {
        table.row(vec![
            config,
            fmt2(secs * 1e3),
            fmt_u64((n as f64 / secs) as u64),
        ]);
    };
    row(
        "direct".into(),
        mean_secs(SAMPLES, &mut || direct(&workload)),
    );
    for shards in [1usize, 2, 4, 8] {
        let secs = mean_secs(SAMPLES, &mut || sharded(&workload, shards));
        row(format!("engine, shards={shards}"), secs);
    }
    table.print();

    // Head-to-head: alternate the two configurations so slow drift in
    // background load hits both equally, then report the mean ratio.
    let (mut t1, mut t4) = (0.0f64, 0.0f64);
    sharded(&workload, 1); // warm-up
    sharded(&workload, 4);
    const ROUNDS: usize = 5;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        sharded(&workload, 1);
        t1 += t.elapsed().as_secs_f64();
        let t = Instant::now();
        sharded(&workload, 4);
        t4 += t.elapsed().as_secs_f64();
    }
    // Verdict-style reporting, matching the exp_* targets: visible
    // regression signal without a timing-flaky hard failure.
    let speedup = t1 / t4;
    println!(
        "  engine_churn summary: 4-shard speedup over 1 shard = {speedup:.2}x \
         ({:.0} vs {:.0} requests/sec, mean of {ROUNDS} interleaved rounds) \
         [target >= 1.8x: {}]",
        ROUNDS as f64 * n as f64 / t1,
        ROUNDS as f64 * n as f64 / t4,
        realloc_bench::verdict(speedup >= 1.8),
    );
}

//! E12 — CPU throughput of the reallocators themselves (our addition; the
//! paper's model counts movement cost, not planning time).
//!
//! Requests/second over the standard churn workload for each algorithm,
//! plus the flush-heavy small-ε case: the mean of 10 timed runs after one
//! warm-up, per configuration.

use alloc_baselines::{
    FitStrategy, FreeListAllocator, LogCompactAllocator, SizeClassGapsAllocator,
};
use realloc_bench::{fmt2, fmt_u64, mean_secs, Table};
use realloc_common::Reallocator;
use realloc_core::{CheckpointedReallocator, CostObliviousReallocator, DeamortizedReallocator};
use workload_gen::{Request, Workload};

const SAMPLES: u32 = 10;

/// Builds a fresh allocator for one timed run.
type Build = fn() -> Box<dyn Reallocator>;

fn drive(mut r: Box<dyn Reallocator>, w: &Workload) -> u64 {
    let mut moved = 0;
    for req in &w.requests {
        let out = match *req {
            Request::Insert { id, size } => r.insert(id, size).expect("insert"),
            Request::Delete { id } => r.delete(id).expect("delete"),
        };
        moved += out.moved_volume();
    }
    moved
}

fn main() {
    let workload = realloc_bench::standard_churn(20_000, 10_000, 1234);
    let n = workload.len() as f64;
    let configs: [(&str, &str, Build); 7] = [
        ("cost-oblivious", "eps=0.5", || {
            Box::new(CostObliviousReallocator::new(0.5))
        }),
        ("cost-oblivious", "eps=0.0625", || {
            Box::new(CostObliviousReallocator::new(0.0625))
        }),
        ("checkpointed", "eps=0.5", || {
            Box::new(CheckpointedReallocator::new(0.5))
        }),
        ("deamortized", "eps=0.5", || {
            Box::new(DeamortizedReallocator::new(0.5))
        }),
        ("first-fit", "baseline", || {
            Box::new(FreeListAllocator::new(FitStrategy::FirstFit))
        }),
        ("log-compact", "baseline", || {
            Box::new(LogCompactAllocator::new())
        }),
        ("size-class-gaps", "baseline", || {
            Box::new(SizeClassGapsAllocator::new())
        }),
    ];
    let mut table = Table::new(
        format!("churn_requests: mean of {SAMPLES} runs"),
        &["algorithm", "config", "ms/run", "requests/sec"],
    );
    for (name, config, build) in configs {
        let secs = mean_secs(SAMPLES, &mut || drive(build(), &workload));
        table.row(vec![
            name.into(),
            config.into(),
            fmt2(secs * 1e3),
            fmt_u64((n / secs) as u64),
        ]);
    }
    table.print();
}

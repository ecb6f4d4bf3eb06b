//! E10 — related-work bound (Robson; Luby, Naor, Orda): without
//! reallocation, the footprint competitive ratio grows with the ratio of
//! largest to smallest request — logarithmically many doubling levels each
//! waste Θ(V). The paper's reallocators hold 1+ε on the same adversary.
//!
//! The fragmentation adversary inserts a row of size-2^l objects per level
//! and deletes every other one; the next level's objects fit none of the
//! holes.

use std::process::ExitCode;

use alloc_baselines::{BuddyAllocator, FitStrategy, FreeListAllocator};
use realloc_common::Reallocator;
use realloc_core::CostObliviousReallocator;
use storage_realloc::harness::{run_workload, RunConfig};
use workload_gen::adversarial::nomove_fragmenter;

use realloc_bench::{banner, fmt2, Gate, Table};

fn main() -> ExitCode {
    let mut gate = Gate::default();
    banner(
        "E10 (exp_nomove_ratio)",
        "§1 related work (memory-allocation lower bound)",
        "no-move footprint ratio grows with log(∆); reallocation holds 1+ε flat",
    );

    let mut table = Table::new(
        "final footprint ratio vs number of doubling levels (∆ = 2^(levels-1))",
        &[
            "levels",
            "first-fit",
            "best-fit",
            "next-fit",
            "buddy",
            "cost-oblivious(ε=.5)",
            "realloc ≤ 1.5",
        ],
    );

    let mut gap_series = Vec::new();
    for levels in [2u32, 4, 6, 8, 10] {
        let w = nomove_fragmenter(levels, 1 << 12);
        let mut row = vec![levels.to_string()];
        let mut realloc_ok = true;
        let algs: Vec<Box<dyn Reallocator>> = vec![
            Box::new(FreeListAllocator::new(FitStrategy::FirstFit)),
            Box::new(FreeListAllocator::new(FitStrategy::BestFit)),
            Box::new(FreeListAllocator::new(FitStrategy::NextFit)),
            Box::new(BuddyAllocator::new()),
            Box::new(CostObliviousReallocator::new(0.5)),
        ];
        let mut first_fit_ratio = 0.0;
        let mut realloc_ratio = 0.0;
        for (i, mut alg) in algs.into_iter().enumerate() {
            let result = run_workload(alg.as_mut(), &w, RunConfig::plain()).expect("run");
            // Ratio at the end of the run, when the live volume is the full
            // surviving blocker set (mid-run transitions drop V to near zero
            // and would make every ratio look equally terrible).
            let ratio = result.final_space_ratio();
            if i == 0 {
                first_fit_ratio = ratio;
            }
            if i == 4 {
                realloc_ratio = ratio;
                realloc_ok = ratio <= 1.5 + 1e-9;
            }
            row.push(fmt2(ratio));
        }
        gap_series.push(first_fit_ratio / realloc_ratio);
        row.push(gate.verdict(realloc_ok));
        table.row(row);
    }
    table.print();

    let separated = gap_series.iter().all(|&g| g >= 4.0);
    println!(
        "\nno-move allocators waste ≥ 4x more space than the reallocator at every ∆: {}",
        gate.verdict(separated)
    );
    println!(
        "reading: each doubling level strands Θ(V) of blocker-pinned holes that no-move\n\
         allocators can never reuse, while the reallocator compacts them away and never\n\
         leaves 1+ε. (The full Ω(log ∆) *lower-bound* witness against first-fit — Robson\n\
         1974 — is more intricate than this demonstrative adversary: first-fit recycles\n\
         our later levels' blockers into old holes, capping the measured ratio at a\n\
         large constant. Next-fit, which cannot, keeps growing.)"
    );
    gate.exit_code()
}

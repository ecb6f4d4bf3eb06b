//! E1 — Figure 1: moving previously allocated blocks into holes left by
//! deallocations reduces the footprint; allocators that cannot move are
//! stuck with the holes.
//!
//! We run the same fragmentation-heavy workload through a no-move first-fit
//! allocator and the paper's cost-oblivious reallocator and report the
//! footprint over time and at the end. The reallocator's footprint tracks
//! `(1+ε)V`; first-fit's keeps the high-water mark.

use std::process::ExitCode;

use alloc_baselines::{FitStrategy, FreeListAllocator};
use realloc_common::Reallocator;
use realloc_core::CostObliviousReallocator;
use storage_realloc::harness::{run_workload, RunConfig};
use workload_gen::dist::SizeDist;
use workload_gen::trace::sawtooth;

use realloc_bench::{banner, fmt2, fmt_u64, Gate, Table};

fn main() -> ExitCode {
    let mut gate = Gate::default();
    banner(
        "E1 (exp_fig1_footprint)",
        "Figure 1",
        "reallocation squeezes out holes: footprint ≈ V, vs the no-move high-water mark",
    );

    let dist = SizeDist::Uniform { lo: 4, hi: 512 };
    let workload = sawtooth(20_000, 100_000, 3, &dist, 17);
    println!("workload: {} ({} requests)", workload.name, workload.len());

    let mut table = Table::new(
        "footprint summary (cells)",
        &[
            "algorithm",
            "peak",
            "final footprint",
            "final V",
            "final ratio",
            "ratio ≤ 1.5",
        ],
    );

    let mut series: Vec<(&str, Vec<u64>)> = Vec::new();
    let cases: Vec<(Box<dyn Reallocator>, RunConfig, bool)> = vec![
        (
            Box::new(FreeListAllocator::new(FitStrategy::FirstFit)),
            RunConfig::plain(),
            false,
        ),
        (
            Box::new(CostObliviousReallocator::new(0.5)),
            RunConfig::relaxed(),
            true,
        ),
    ];
    for (mut r, config, is_realloc) in cases {
        let result = run_workload(r.as_mut(), &workload, config).expect("run");
        let ratio = result.final_space_ratio();
        let peak = result
            .ledger
            .records()
            .iter()
            .map(|rec| rec.structure_after)
            .max()
            .unwrap_or(0);
        let step = (workload.len() / 20).max(1);
        let samples: Vec<u64> = result
            .ledger
            .records()
            .iter()
            .step_by(step)
            .map(|rec| rec.structure_after)
            .collect();
        series.push((result.name, samples));
        table.row(vec![
            result.name.to_string(),
            fmt_u64(peak),
            fmt_u64(result.final_structure),
            fmt_u64(result.final_volume),
            fmt2(ratio),
            gate.verdict(!is_realloc || ratio <= 1.5 + 1e-9),
        ]);
    }
    table.print();

    println!("\nfootprint over time (one sample per 5% of the run):");
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    for (name, samples) in &series {
        let max = *samples.iter().max().unwrap_or(&1) as f64;
        print!("{name:>14}: ");
        for &s in samples {
            let level = (s as f64 / max * 8.0).round() as usize;
            print!("{}", BARS[level.clamp(1, 8) - 1]);
        }
        println!("  (peak {})", fmt_u64(*samples.iter().max().unwrap_or(&0)));
    }
    println!(
        "\nshape check: the reallocator's footprint falls with V on every shrink phase;\n\
         the no-move allocator's footprint only grows (holes are never squeezed out)."
    );
    gate.exit_code()
}

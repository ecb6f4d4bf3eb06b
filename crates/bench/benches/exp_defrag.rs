//! E6 — Theorem 2.7: the cost-oblivious defragmenter sorts a set of
//! objects by an arbitrary comparison function using at most `(1+ε)V + ∆`
//! space and `O((1/ε) log(1/ε))` moves per object amortized.
//!
//! Compared against the naive two-pass defragmenter, which needs `2V`
//! working space. Move costs are priced under the whole cost-function
//! suite (the machinery is the cost-oblivious reallocator, so one schedule
//! serves all functions).

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use realloc_common::{Extent, ObjectId};
use realloc_core::defragment;

use realloc_bench::{banner, fmt2, fmt_u64, Gate, Table};

/// Builds a fragmented allocation: `n` objects, sizes 1..=max_size, holes
/// so the input occupies ~(1+slack)·V.
fn fragmented_input(n: usize, max_size: u64, slack: f64, seed: u64) -> Vec<(ObjectId, Extent)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes: Vec<u64> = (0..n).map(|_| rng.random_range(1..=max_size)).collect();
    let volume: u64 = sizes.iter().sum();
    let hole_budget = (volume as f64 * slack) as u64;
    let mut at = 0;
    sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let e = Extent::new(at, s);
            at += s + (hole_budget / n as u64).min(hole_budget);
            (ObjectId(i as u64), e)
        })
        .collect()
}

fn main() -> ExitCode {
    let mut gate = Gate::default();
    banner(
        "E6 (exp_defrag)",
        "Theorem 2.7",
        "sort with (1+ε)V + ∆ space (naive needs 2V) and O((1/ε)log(1/ε)) moves per object",
    );

    let suite = cost_model::standard_suite();
    let mut table = Table::new(
        "defragmentation sweep (sort by size)",
        &[
            "n",
            "ε",
            "V",
            "∆",
            "peak space",
            "(1+ε)V+∆ bound",
            "naive 2V",
            "avg moves/obj",
            "max moves/obj",
            "in budget",
        ],
    );
    let mut cost_table = Table::new(
        "defrag cost ratio (move cost / one-allocation-each cost) per cost function",
        &{
            let mut h = vec!["n", "ε"];
            h.extend(suite.iter().map(|f| f.name()));
            h
        },
    );

    for &n in &[200usize, 1_000] {
        for &eps in &[0.5, 0.25, 0.125] {
            let input = fragmented_input(n, 256, eps * 0.9, 7);
            let volume: u64 = input.iter().map(|(_, e)| e.len).sum();
            let delta: u64 = input.iter().map(|(_, e)| e.len).max().unwrap();
            let sizes: std::collections::HashMap<ObjectId, u64> =
                input.iter().map(|&(id, e)| (id, e.len)).collect();

            let report = defragment(&input, eps, |a, b| {
                sizes[&a].cmp(&sizes[&b]).then(a.0.cmp(&b.0))
            })
            .expect("valid input");

            let bound = report.budget + delta;
            let in_budget = report.peak_space <= bound && !report.prefix_suffix_collision;
            // Sorted check.
            let sorted_ok = report
                .sorted
                .windows(2)
                .all(|w| sizes[&w[0].0] <= sizes[&w[1].0]);

            table.row(vec![
                n.to_string(),
                fmt2(eps),
                fmt_u64(volume),
                fmt_u64(delta),
                fmt_u64(report.peak_space),
                fmt_u64(bound),
                fmt_u64(2 * volume),
                fmt2(report.avg_moves_per_object()),
                report.max_moves_per_object.to_string(),
                gate.verdict(in_budget && sorted_ok),
            ]);

            // Price the schedule: numerator = cost of all defrag moves,
            // denominator = cost of allocating each object once.
            let mut row = vec![n.to_string(), fmt2(eps)];
            for f in &suite {
                let moves: f64 = report
                    .ops
                    .iter()
                    .filter_map(|op| match op {
                        realloc_common::StorageOp::Move { to, .. } => Some(f.cost(to.len)),
                        _ => None,
                    })
                    .sum();
                let allocs: f64 = input.iter().map(|(_, e)| f.cost(e.len)).sum();
                row.push(fmt2(moves / allocs));
            }
            cost_table.row(row);
        }
    }
    table.print();
    cost_table.print();

    println!(
        "\nreading: peak space always within (1+ε)V + ∆ — beating the naive 2V even at\n\
         ε = 1/8 — and the per-function cost ratios grow only mildly as ε tightens,\n\
         consistent with O((1/ε)log(1/ε))."
    );
    gate.exit_code()
}

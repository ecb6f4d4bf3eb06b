//! E8 — Lemmas 3.4–3.6: the deamortized structure bounds the *worst-case*
//! cost of a single update by `O((1/ε)·w·f(1) + f(∆))` without hurting the
//! amortized bounds.
//!
//! Reported, against the amortized algorithm on identical workloads:
//!
//! * the worst single-request moved volume, normalized by the bound
//!   `(4/ε′)·w + ∆` (utilization ≤ 1 ⇔ Lemma 3.6 holds);
//! * the amortized cost ratios under unit/linear cost (Lemma 3.6's second
//!   half: deamortization keeps them);
//! * the footprint ratio at quiescence (Lemma 3.5).

use std::process::ExitCode;

use realloc_common::Reallocator;
use realloc_core::{CostObliviousReallocator, DeamortizedReallocator};
use storage_realloc::harness::{run_workload, RunConfig};
use workload_gen::adversarial::deamortized_burst;

use realloc_bench::{banner, fmt2, fmt3, fmt_u64, standard_churn, Gate, Table};

fn main() -> ExitCode {
    let mut gate = Gate::default();
    banner(
        "E8 (exp_deamortized)",
        "Lemmas 3.4, 3.5, 3.6",
        "worst-case per-update volume ≤ (4/ε')·w + ∆, amortized cost and footprint unchanged",
    );

    let eps = 0.5;
    let workloads = vec![
        standard_churn(40_000, 15_000, 5),
        deamortized_burst(1024, 4_000),
    ];

    let mut table = Table::new(
        "amortized vs deamortized (ε = 1/2)",
        &[
            "workload",
            "algorithm",
            "worst op volume",
            "bound utilization",
            "b(unit)",
            "b(linear)",
            "max extent ratio*",
            "quiescent ratio",
            "Lemma 3.6",
        ],
    );

    for w in &workloads {
        // Amortized reference.
        {
            let mut r = CostObliviousReallocator::new(eps);
            let result = run_workload(&mut r, w, RunConfig::plain()).expect("run");
            let pump_rate = 4.0 / (eps / 3.0);
            table.row(vec![
                w.name.chars().take(28).collect(),
                result.name.to_string(),
                fmt_u64(result.ledger.max_op_moved_volume()),
                fmt3(result.ledger.max_worst_case_utilization(pump_rate)),
                fmt2(result.ledger.cost_ratio(&|_| 1.0)),
                fmt2(result.ledger.cost_ratio(&|x| x as f64)),
                fmt2(result.ledger.max_settled_space_ratio()),
                fmt2(result.final_space_ratio()),
                "n/a".into(),
            ]);
        }
        // Deamortized: drive to quiescence at the end so the Lemma 3.5
        // "flush not in progress" ratio is measured cleanly.
        {
            let mut r = DeamortizedReallocator::new(eps);
            let result = run_workload(&mut r, w, RunConfig::plain()).expect("run");
            let pump_rate = 4.0 / (eps / 3.0);
            let util = result.ledger.max_worst_case_utilization(pump_rate);
            r.drain();
            let quiescent = r.structure_size() as f64 / r.live_volume() as f64;
            table.row(vec![
                w.name.chars().take(28).collect(),
                result.name.to_string(),
                fmt_u64(result.ledger.max_op_moved_volume()),
                fmt3(util),
                fmt2(result.ledger.cost_ratio(&|_| 1.0)),
                fmt2(result.ledger.cost_ratio(&|x| x as f64)),
                fmt2(result.ledger.max_settled_space_ratio()),
                fmt2(quiescent),
                gate.verdict(util <= 1.0 + 1e-9 && quiescent <= 1.0 + eps + 1e-9),
            ]);
        }
    }
    table.print();
    println!(
        "* for the deamortized structure this includes mid-flush staging/log working\n\
          space, bounded by Lemma 3.5's (1+O(ε'))V + ∆ envelope rather than 1+ε;\n\
          the quiescent column is the Lemma 3.5 no-flush-in-progress ratio."
    );

    // Latency-profile view: distribution of per-request moved volume.
    let mut profile = Table::new(
        "per-request moved volume distribution (standard churn)",
        &["algorithm", "p50", "p99", "p99.9", "max"],
    );
    for mut r in [
        Box::new(CostObliviousReallocator::new(eps)) as Box<dyn Reallocator>,
        Box::new(DeamortizedReallocator::new(eps)),
    ] {
        let result = run_workload(r.as_mut(), &workloads[0], RunConfig::plain()).expect("run");
        let mut vols: Vec<u64> = result
            .ledger
            .records()
            .iter()
            .map(|rec| rec.moved_volume())
            .collect();
        vols.sort_unstable();
        let pct = |p: f64| vols[((vols.len() - 1) as f64 * p) as usize];
        profile.row(vec![
            result.name.to_string(),
            fmt_u64(pct(0.50)),
            fmt_u64(pct(0.99)),
            fmt_u64(pct(0.999)),
            fmt_u64(*vols.last().unwrap()),
        ]);
    }
    profile.print();

    println!(
        "\nreading: the amortized structure shows rare huge spikes (a flush can move\n\
         everything); the deamortized structure's worst request stays under its\n\
         (4/ε')·w + ∆ budget (utilization ≤ 1) at identical amortized cost ratios."
    );
    gate.exit_code()
}

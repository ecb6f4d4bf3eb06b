//! E11 — ablations over the design constants ARCHITECTURE.md §3 documents.
//!
//! * **Buffer fraction ε′** (default ε/3): smaller buffers flush more often
//!   (higher cost, tighter space); larger buffers flush lazily (cheaper,
//!   looser space). The `(1+ε)` guarantee needs `ε′ ≤ ε/(2+ε)`; the sweep
//!   shows the footprint bound breaking when ε′ is pushed past it.
//! * **Deamortized pump factor** (default 4): how much flush work each
//!   update performs. Lemma 3.4 needs ≥ 4; the sweep shows the worst-case
//!   volume budget utilization falling as the factor grows.

use realloc_core::layout::Eps;
use realloc_core::{CostObliviousReallocator, DeamortizedReallocator};
use storage_realloc::harness::{run_workload, RunConfig};

use realloc_bench::{banner, fmt2, fmt3, standard_churn, Table};

fn main() {
    banner(
        "E11 (exp_ablation)",
        "design constants (ARCHITECTURE.md §3)",
        "ε′ trades footprint vs flush cost; pump factor trades worst-case latency vs slack",
    );

    let eps = 0.5;
    let workload = standard_churn(60_000, 25_000, 314);
    println!("workload: {} ({} requests)", workload.name, workload.len());

    // --- ε′ sweep ---
    let mut table = Table::new(
        "A: buffer fraction ε′ at fixed ε = 1/2 (default ε/3 ≈ 0.167; guarantee needs ≤ 0.2)",
        &[
            "ε′",
            "max settled ratio",
            "≤ 1+ε?",
            "flushes",
            "b(unit)",
            "b(linear)",
        ],
    );
    for eps_prime in [0.05, 0.1, 1.0 / 6.0, 0.2, 0.3, 0.45] {
        let mut r = CostObliviousReallocator::with_eps(Eps::custom(eps, eps_prime, 4.0));
        let result = run_workload(&mut r, &workload, RunConfig::plain()).expect("run");
        let ratio = result.ledger.max_settled_space_ratio();
        table.row(vec![
            fmt3(eps_prime),
            fmt3(ratio),
            if ratio <= 1.0 + eps + 1e-9 {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
            r.flush_count().to_string(),
            fmt2(result.ledger.cost_ratio(&|_| 1.0)),
            fmt2(result.ledger.cost_ratio(&|x| x as f64)),
        ]);
    }
    table.print();

    // --- pump factor sweep ---
    let mut table = Table::new(
        "B: deamortized pump factor (Lemma 3.4 requires ≥ 4 for the log to drain in time)",
        &[
            "factor",
            "worst op volume / ((4/ε')w+∆)",
            "max op volume",
            "b(linear)",
            "flushes",
        ],
    );
    for factor in [2.0, 4.0, 8.0, 16.0] {
        let mut r = DeamortizedReallocator::with_eps(Eps::custom(eps, eps / 3.0, factor));
        let result = run_workload(&mut r, &workload, RunConfig::plain()).expect("run");
        // Normalize against the *paper's* budget (factor 4) so the columns
        // are comparable.
        let util = result.ledger.max_worst_case_utilization(4.0 / (eps / 3.0));
        table.row(vec![
            fmt2(factor),
            fmt3(util),
            result.ledger.max_op_moved_volume().to_string(),
            fmt2(result.ledger.cost_ratio(&|x| x as f64)),
            r.flush_count().to_string(),
        ]);
    }
    table.print();

    println!(
        "\nreading: (A) cost falls and footprint rises with ε′, and the 1+ε bound fails\n\
         once ε′ exceeds ε/(2+ε) = 0.2 — ε/3 sits safely inside with near-minimal cost.\n\
         (B) factor 2 under-drains (utilization can exceed 1 only transiently via the\n\
         chained-flush fallback); factor ≥ 4 keeps every update inside the paper's\n\
         budget, and larger factors only re-amortize the work."
    );
}

//! E2 — Figure 2: the steady-state layout of the data structure — one
//! region per size class, each a payload segment followed by a small
//! buffer segment.
//!
//! We fill the structure with a mixed-size workload, print the rendered
//! layout (the ASCII analogue of the paper's figure), and verify the
//! figure's structural claims: regions in ascending class order, payload
//! space equal to `V(i)` as of the class's last flush, and buffers sized
//! `⌊ε′·V(i)⌋`.

use std::process::ExitCode;

use realloc_common::Reallocator;
use realloc_core::render::render_regions;
use realloc_core::CostObliviousReallocator;
use storage_realloc::harness::{run_workload, RunConfig};

use realloc_bench::{banner, fmt_u64, standard_churn, Gate, Table};

fn main() -> ExitCode {
    let mut gate = Gate::default();
    banner(
        "E2 (exp_fig2_layout)",
        "Figure 2",
        "layout = ascending size-class regions, each payload + ⌊ε′·V(i)⌋ buffer",
    );

    let eps = 0.5;
    let workload = standard_churn(60_000, 5_000, 23);
    let mut r = CostObliviousReallocator::new(eps);
    run_workload(&mut r, &workload, RunConfig::relaxed()).expect("run");

    println!(
        "\nlayout after {} requests (ε = {eps}, ε′ = {:.3}):\n",
        workload.len(),
        r.eps().prime()
    );
    print!("{}", render_regions(&r.region_views(), 64));

    let mut table = Table::new(
        "figure claims vs structure",
        &[
            "class",
            "start",
            "payload",
            "buffer",
            "buffer ≤ ⌊ε′·payload⌋",
            "ascending start",
        ],
    );
    let views = r.region_views();
    let mut prev_start = 0;
    let mut all_ok = true;
    for v in views
        .iter()
        .filter(|v| v.payload_space > 0 || v.buffer_space > 0)
    {
        let quota_ok = v.buffer_space <= (r.eps().prime() * v.payload_space as f64) as u64 + 1;
        let asc_ok = v.start >= prev_start;
        all_ok &= quota_ok && asc_ok;
        table.row(vec![
            v.class.to_string(),
            fmt_u64(v.start),
            fmt_u64(v.payload_space),
            fmt_u64(v.buffer_space),
            gate.verdict(quota_ok),
            gate.verdict(asc_ok),
        ]);
        prev_start = v.start;
    }
    table.print();

    println!(
        "\ninvariants 2.2–2.4: {}",
        gate.verdict(r.validate().is_ok() && all_ok)
    );
    println!(
        "structure {} cells over V = {} live cells (ratio {:.3} ≤ 1+ε = {:.1})",
        fmt_u64(r.structure_size()),
        fmt_u64(r.live_volume()),
        r.structure_size() as f64 / r.live_volume() as f64,
        1.0 + eps
    );
    gate.exit_code()
}

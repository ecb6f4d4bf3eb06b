//! Smoke coverage for the bench utilities (`realloc-bench`), so the table
//! formatter, standard workloads, and the workload splitter the engine
//! benches lean on are exercised by tier-1 `cargo test` instead of only by
//! `cargo bench`.

use realloc_bench::{banner, fmt2, fmt3, fmt_u64, standard_churn, verdict, Table};
use storage_realloc::engine::rendezvous_shard;
use storage_realloc::prelude::*;
use storage_realloc::workloads::shard::split_with;

/// `standard_churn` produces a well-formed workload that every variant can
/// serve end to end, with deterministic output per seed.
#[test]
fn standard_churn_drives_all_variants() {
    let w = standard_churn(5_000, 2_000, 42);
    assert!(!w.is_empty());
    w.validate().expect("workload must be well-formed");

    // Deterministic per seed, different across seeds.
    let w2 = standard_churn(5_000, 2_000, 42);
    assert_eq!(w.requests, w2.requests);
    let w3 = standard_churn(5_000, 2_000, 43);
    assert_ne!(w.requests, w3.requests);

    let mut algs: Vec<Box<dyn Reallocator + Send>> = VARIANTS
        .iter()
        .map(|name| build_variant(name, 0.5).expect("registry name"))
        .collect();
    for r in &mut algs {
        let result = run_workload(r.as_mut(), &w, RunConfig::plain()).unwrap();
        assert_eq!(result.ledger.len(), w.len(), "{}", result.name);
        assert!(result.final_volume > 0, "{}", result.name);
    }
}

/// The table formatter renders every experiment's shape: title, aligned
/// columns, and the helper formatters' exact output.
#[test]
fn table_and_formatters_render() {
    let mut t = Table::new("smoke", &["algorithm", "ratio", "moves"]);
    t.row(vec![
        "cost-oblivious".into(),
        fmt2(1.004),
        fmt_u64(1_234_567),
    ]);
    t.row(vec!["first-fit".into(), fmt3(2.5), verdict(false)]);
    let s = t.render();
    assert!(s.contains("== smoke =="));
    assert!(s.contains("1.00"));
    assert!(s.contains("1,234,567"));
    assert!(s.contains("2.500"));
    assert!(s.contains("FAIL"));
    let data_lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
    assert_eq!(data_lines.len(), 4, "header + separator + 2 rows");
    // Header and rows align; the separator line (index 1) has its own shape.
    assert_eq!(data_lines[0].len(), data_lines[2].len(), "aligned");
    assert_eq!(data_lines[2].len(), data_lines[3].len(), "aligned");

    // The banner prints without panicking (output itself is cosmetic).
    banner("E0", "smoke test", "bench utilities are covered by tier-1");
}

/// The splitter behind `Engine::drive` (and the E13 engine bench): every
/// request lands on exactly one shard, each per-shard stream is the
/// original sequence filtered to that shard — which is precisely
/// per-object order preservation — and each stream is independently
/// well-formed (inserts before deletes, no duplicate ids).
#[test]
fn workload_splitter_preserves_per_object_order() {
    let w = standard_churn(5_000, 2_000, 42);
    for shards in [1usize, 3, 8] {
        let parts = split_with(&w, shards, |id| rendezvous_shard(id, shards));
        assert_eq!(parts.len(), shards);
        assert_eq!(parts.iter().map(Workload::len).sum::<usize>(), w.len());
        for (s, part) in parts.iter().enumerate() {
            part.validate()
                .unwrap_or_else(|i| panic!("shard {s}/{shards}: bad request at {i}"));
            let filtered: Vec<Request> = w
                .requests
                .iter()
                .copied()
                .filter(|r| rendezvous_shard(r.id(), shards) == s)
                .collect();
            assert_eq!(
                part.requests, filtered,
                "shard {s}/{shards} reordered requests"
            );
        }
    }
}

//! The `realloc-sim` command line turns bad input into a usage error
//! (exit 1 with the usage text), never a panic.

use std::process::Command;

/// Runs `realloc-sim` with `args`; returns its exit code and standard
/// error.
fn realloc_sim(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_realloc-sim"))
        .args(args)
        .output()
        .expect("realloc-sim starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs `realloc-sim` on a small churn workload; returns its exit code and
/// standard error.
fn run(mode: &str, eps: &str) -> (Option<i32>, String) {
    realloc_sim(&[mode, "--eps", eps, "--churn", "2000", "500"])
}

#[test]
fn eps_outside_the_papers_range_is_a_usage_error() {
    for mode in ["cost-oblivious", "engine"] {
        for eps in ["0.6", "0.7", "0", "-1", "nan"] {
            let (code, stderr) = run(mode, eps);
            assert_eq!(code, Some(1), "{mode} --eps {eps}: {stderr}");
            assert!(
                stderr.contains("--eps") && stderr.contains("usage:"),
                "{mode} --eps {eps}: {stderr}"
            );
        }
    }
}

#[test]
fn eps_one_half_runs_clean() {
    for mode in ["cost-oblivious", "engine"] {
        let (code, stderr) = run(mode, "0.5");
        assert_eq!(code, Some(0), "{mode} --eps 0.5: {stderr}");
    }
}

#[test]
fn tau_not_above_one_is_a_usage_error() {
    for tau in ["1.0", "0.5", "-2", "nan"] {
        let (code, stderr) = realloc_sim(&[
            "engine",
            "--auto-rebalance",
            "--tau",
            tau,
            "--churn",
            "2000",
            "500",
        ]);
        assert_eq!(code, Some(1), "--tau {tau}: {stderr}");
        assert!(
            stderr.contains("--tau") && stderr.contains("usage:"),
            "--tau {tau}: {stderr}"
        );
    }
}

/// Writes `text` to a fresh trace file, runs `realloc-sim <args> --trace`
/// on it, and removes the file; returns the exit code and standard error.
fn run_trace(args: &[&str], name: &str, text: &str) -> (Option<i32>, String) {
    let path =
        std::env::temp_dir().join(format!("realloc-sim-{name}-{}.trace", std::process::id()));
    std::fs::write(&path, text).expect("trace file is writable");
    let trace = ["--trace", path.to_str().expect("utf-8 path")];
    let out = realloc_sim(&[args, &trace].concat());
    std::fs::remove_file(&path).expect("trace file is removable");
    out
}

#[test]
fn trace_past_the_volume_cap_is_refused() {
    // 2^63 + 2^63 wraps `u64`: the trace is refused before any reallocator
    // sees it, naming the rule.
    let text = "I 1 9223372036854775808\nI 2 9223372036854775808\n";
    let (code, stderr) = run_trace(&["cost-oblivious"], "past-cap", text);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("live volume past 2^60 cells"), "{stderr}");
}

#[test]
fn trace_at_the_volume_cap_runs_clean() {
    // Two 2^59-cell inserts reach the cap and force a flush; the delete and
    // reinsert flush again at the cap. Replay checks the rules on a bare
    // store, whose span index takes addresses this large.
    let half = 1u64 << 59;
    let text = format!("I 1 {half}\nI 2 {half}\nD 1\nI 3 {half}\n");
    let clean: [&[&str]; 8] = [
        &["cost-oblivious"],
        &["checkpointed"],
        &["deamortized"],
        &["nearly-quadratic"],
        &["checkpointed", "--strict", "--crash-check"],
        &["deamortized", "--strict", "--crash-check"],
        &["nearly-quadratic", "--strict", "--crash-check"],
        &["cost-oblivious", "--relaxed"],
    ];
    for args in clean {
        let (code, stderr) = run_trace(args, &args.concat(), &text);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
    // The §2 negative control: cost-oblivious rewrites freed space before
    // a checkpoint.
    let (code, stderr) = run_trace(&["cost-oblivious", "--strict"], "negative-control", &text);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("reuses space freed at epoch 0"), "{stderr}");
}

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

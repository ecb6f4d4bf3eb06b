//! Shared utilities for the experiment bench targets.
//!
//! Each `benches/exp_*.rs` target (all `harness = false`) regenerates one
//! figure or theorem-derived experiment of the paper and prints its
//! table/series to stdout; `cargo bench --workspace` therefore reproduces
//! the whole evaluation. This crate holds the table formatter and the
//! standard workloads so every experiment reports numbers the same way,
//! and the one timing helper the throughput targets share. The
//! deterministic experiments tally their verdicts in a [`Gate`] and exit
//! non-zero on a FAIL row, so CI gates on them.

use std::process::ExitCode;

/// A fixed-width text table. Columns are sized to content; numeric cells
/// should be pre-formatted by the caller (`fmt2`/`fmt_u64` help).
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("| ");
            for (cell, w) in cells.iter().zip(widths) {
                s.push_str(&format!("{cell:>w$} | ", w = w));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.headers, &widths));
        out.push_str(&format!(
            "|{}\n",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2) + "|")
                .collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with two decimals (negative zero normalized).
pub fn fmt2(x: f64) -> String {
    let x = if x.abs() < 5e-3 { 0.0 } else { x };
    format!("{x:.2}")
}

/// Formats a float with three decimals.
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a u64 with thousands separators.
pub fn fmt_u64(x: u64) -> String {
    let s = x.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A PASS/FAIL verdict cell.
pub fn verdict(ok: bool) -> String {
    if ok { "PASS" } else { "FAIL" }.to_string()
}

/// The verdicts of a deterministic experiment, tallied so that its exit
/// status matches what it prints: one FAIL cell fails the bench.
#[derive(Debug, Default)]
pub struct Gate {
    failed: bool,
}

impl Gate {
    /// A [`verdict`] cell that counts toward the exit status.
    pub fn verdict(&mut self, ok: bool) -> String {
        self.failed |= !ok;
        verdict(ok)
    }

    /// `FAILURE` once any verdict failed, else `SUCCESS`.
    pub fn exit_code(&self) -> ExitCode {
        if self.failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// The standard churn workload used by several experiments.
pub fn standard_churn(target_volume: u64, ops: usize, seed: u64) -> workload_gen::Workload {
    workload_gen::churn::churn(&workload_gen::churn::ChurnConfig {
        dist: workload_gen::dist::SizeDist::ClassPowerLaw {
            classes: 10,
            decay: 0.7,
        },
        target_volume,
        churn_ops: ops,
        seed,
    })
}

/// Mean wall-clock seconds of `samples` timed runs of `f`, after one
/// untimed warm-up run. Results pass through [`std::hint::black_box`] so
/// the measured work cannot be optimized away.
pub fn mean_secs(samples: u32, f: &mut dyn FnMut() -> u64) -> f64 {
    std::hint::black_box(f());
    let start = std::time::Instant::now();
    for _ in 0..samples {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / f64::from(samples)
}

/// Prints the experiment banner (consistent headings in bench output).
pub fn banner(id: &str, paper_artifact: &str, claim: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{id} — reproduces {paper_artifact}");
    println!("claim: {claim}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["10".into(), "2000".into(), "x".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(lines.len(), 4);
        // All data lines have equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt2(1.005), "1.00");
        assert_eq!(fmt_u64(1234567), "1,234,567");
        assert_eq!(fmt_u64(999), "999");
        assert_eq!(verdict(true), "PASS");
    }

    #[test]
    fn one_failed_verdict_fails_the_gate() {
        let mut gate = Gate::default();
        assert_eq!(gate.verdict(true), "PASS");
        assert_eq!(gate.exit_code(), ExitCode::SUCCESS);
        assert_eq!(gate.verdict(false), "FAIL");
        assert_eq!(gate.verdict(true), "PASS");
        assert_eq!(gate.exit_code(), ExitCode::FAILURE);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}

//! The experiment harness: drives a [`Workload`] through any
//! [`Reallocator`], accounts every request in a [`Ledger`], and (optionally)
//! replays the emitted op stream against a [`SimStore`] that enforces the
//! database rules and cross-checks placements.
//!
//! Every bench target, example, and integration test goes through this one
//! driver, so an algorithm bug, an accounting bug, or a rules violation
//! surfaces identically everywhere.

use realloc_common::{BoxedReallocator, Ledger, OpKind, Reallocator};
use realloc_core::{
    CheckpointedReallocator, CostObliviousReallocator, DeamortizedReallocator,
    NearlyQuadraticReallocator,
};
use storage_sim::{Mode, SimStore, Violation};
use workload_gen::{Request, Workload};

/// Canonical registry names of the paper-variant reallocators, in
/// chronological order: §2 amortized, §3.2 checkpointed, §3.3 deamortized,
/// and the 2024 nearly-quadratic adaptation. Every variant-parameterized
/// test suite, bench, and the CLI iterate or resolve against this one list,
/// so adding a fifth variant here enrolls it everywhere at once.
pub const VARIANTS: [&str; 4] = [
    "cost-oblivious",
    "checkpointed",
    "deamortized",
    "nearly-quadratic",
];

/// Builds the named variant at footprint slack `eps`, or `None` for an
/// unknown name. The one constructor shared by the CLI, the test gauntlet,
/// and the benches.
pub fn build_variant(name: &str, eps: f64) -> Option<BoxedReallocator> {
    Some(match name {
        "cost-oblivious" => Box::new(CostObliviousReallocator::new(eps)),
        "checkpointed" => Box::new(CheckpointedReallocator::new(eps)),
        "deamortized" => Box::new(DeamortizedReallocator::new(eps)),
        "nearly-quadratic" => Box::new(NearlyQuadraticReallocator::new(eps)),
        _ => return None,
    })
}

/// Whether the named variant's op streams obey the §3.1 database rules
/// (nonoverlapping moves, the freed-space rule) and may therefore run on a
/// strict substrate. The §2 amortized variant uses memmove semantics.
pub fn variant_is_strict_safe(name: &str) -> bool {
    matches!(name, "checkpointed" | "deamortized" | "nearly-quadratic")
}

/// What the driver should do besides accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunConfig {
    /// Replay ops against a `SimStore` in this mode, validating every write
    /// and cross-checking placements after every request.
    pub replay: Option<Mode>,
    /// Simulate a crash after every request and require full recovery
    /// (only meaningful with `replay = Some(Mode::Strict)`). Quadratic-ish:
    /// use on small workloads.
    pub crash_check: bool,
}

impl RunConfig {
    /// Accounting only.
    pub fn plain() -> Self {
        RunConfig::default()
    }

    /// Replay with memmove semantics (§2 algorithms).
    pub fn relaxed() -> Self {
        RunConfig {
            replay: Some(Mode::Relaxed),
            ..RunConfig::default()
        }
    }

    /// Replay under the full database rules (§3 algorithms).
    pub fn strict() -> Self {
        RunConfig {
            replay: Some(Mode::Strict),
            ..RunConfig::default()
        }
    }

    /// Strict replay plus a crash/recovery check after every request.
    pub fn strict_with_crashes() -> Self {
        RunConfig {
            replay: Some(Mode::Strict),
            crash_check: true,
        }
    }
}

/// Errors the driver can surface.
#[derive(Debug)]
pub enum RunError {
    /// The reallocator rejected a request the workload generator produced.
    Realloc(usize, realloc_common::ReallocError),
    /// The op stream violated the substrate rules.
    Substrate(usize, Violation),
    /// The substrate and the reallocator disagree about a placement.
    Divergence(usize, String),
    /// A simulated crash lost durably-mapped objects.
    DurabilityLoss(usize, Vec<realloc_common::ObjectId>),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Realloc(i, e) => write!(f, "request {i}: {e}"),
            RunError::Substrate(i, v) => write!(f, "request {i}: {v}"),
            RunError::Divergence(i, d) => write!(f, "request {i}: divergence: {d}"),
            RunError::DurabilityLoss(i, ids) => {
                write!(f, "request {i}: crash would lose {} objects", ids.len())
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Everything measured over one run.
pub struct RunResult {
    /// Algorithm name.
    pub name: &'static str,
    /// Per-request cost/space accounting (with its history, for the
    /// experiments' per-request maxima).
    pub ledger: Ledger,
    /// Final structure size.
    pub final_structure: u64,
    /// Final live volume.
    pub final_volume: u64,
    /// `∆` observed.
    pub delta: u64,
    /// The substrate, if replay was requested.
    pub sim: Option<SimStore>,
}

impl RunResult {
    /// Footprint competitive ratio at the end of the run.
    pub fn final_space_ratio(&self) -> f64 {
        if self.final_volume == 0 {
            1.0
        } else {
            self.final_structure as f64 / self.final_volume as f64
        }
    }
}

/// Runs `workload` through `realloc` under `config`.
pub fn run_workload(
    realloc: &mut dyn Reallocator,
    workload: &Workload,
    config: RunConfig,
) -> Result<RunResult, RunError> {
    let mut ledger = Ledger::with_history();
    let mut sim = config.replay.map(SimStore::new);

    for (i, req) in workload.requests.iter().enumerate() {
        let (kind, request_size, allocated, outcome) = match *req {
            Request::Insert { id, size } => {
                let out = realloc
                    .insert(id, size)
                    .map_err(|e| RunError::Realloc(i, e))?;
                (OpKind::Insert, size, Some(size), out)
            }
            Request::Delete { id } => {
                let size = realloc.extent_of(id).map_or(0, |e| e.len);
                let out = realloc.delete(id).map_err(|e| RunError::Realloc(i, e))?;
                (OpKind::Delete, size, None, out)
            }
        };

        if let Some(sim) = sim.as_mut() {
            sim.apply_all(&outcome.ops)
                .map_err(|v| RunError::Substrate(i, v))?;
            sim.verify_matches(|id| realloc.extent_of(id))
                .map_err(|d| RunError::Divergence(i, d))?;
            if config.crash_check {
                let lost = sim.crash_and_recover().lost;
                if !lost.is_empty() {
                    return Err(RunError::DurabilityLoss(i, lost));
                }
            }
        }

        ledger.record(
            kind,
            request_size,
            allocated,
            &outcome,
            realloc.structure_size(),
            realloc.live_volume(),
            realloc.max_object_size(),
        );
    }

    Ok(RunResult {
        name: realloc.name(),
        ledger,
        final_structure: realloc.structure_size(),
        final_volume: realloc.live_volume(),
        delta: realloc.max_object_size(),
        sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use realloc_core::{CheckpointedReallocator, CostObliviousReallocator};
    use workload_gen::churn::{churn, ChurnConfig};
    use workload_gen::dist::SizeDist;

    fn small_churn(seed: u64) -> Workload {
        churn(&ChurnConfig {
            dist: SizeDist::Uniform { lo: 1, hi: 64 },
            target_volume: 2_000,
            churn_ops: 500,
            seed,
        })
    }

    #[test]
    fn amortized_replays_relaxed() {
        let w = small_churn(1);
        let mut r = CostObliviousReallocator::new(0.5);
        let result = run_workload(&mut r, &w, RunConfig::relaxed()).unwrap();
        assert!(result.ledger.len() == w.len());
        assert!(result.final_space_ratio() <= 1.5 + 1e-9);
    }

    #[test]
    fn checkpointed_replays_strict_with_crashes() {
        let w = small_churn(2);
        let mut r = CheckpointedReallocator::new(0.5);
        let result = run_workload(&mut r, &w, RunConfig::strict_with_crashes()).unwrap();
        let sim = result.sim.unwrap();
        assert!(sim.checkpoints() > 0, "flushes must have checkpointed");
    }

    #[test]
    fn amortized_under_strict_rules_fails() {
        // Negative control: the §2 algorithm violates the database rules
        // (overlapping compaction moves / freed-space reuse), which is the
        // entire reason §3 exists.
        let w = small_churn(3);
        let mut r = CostObliviousReallocator::new(0.5);
        let err = run_workload(&mut r, &w, RunConfig::strict());
        assert!(
            matches!(err, Err(RunError::Substrate(..))),
            "expected a rules violation"
        );
    }

    #[test]
    fn plain_run_has_no_sim() {
        let w = small_churn(4);
        let mut r = CostObliviousReallocator::new(0.25);
        let result = run_workload(&mut r, &w, RunConfig::plain()).unwrap();
        assert!(result.sim.is_none());
    }
}

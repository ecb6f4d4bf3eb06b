//! The three workloads: what each generates from its seed, and the
//! configuration of the front-end it runs on.

use std::collections::HashMap;

use storage_realloc::common::ObjectId;
use storage_realloc::workloads::churn::{churn, coalescible_churn, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;
use storage_realloc::workloads::{Request, Workload};

/// Footprint slack of every variant.
pub const EPS: f64 = 0.25;
/// Requests per channel batch (the engine default).
pub const BATCH: usize = 256;
/// Tenants of the `tenants` workload; request `id` goes to tenant `id mod TENANTS`.
pub const TENANTS: usize = 32;
/// Worker threads of the `tenants` fleet.
pub const FLEET_WORKERS: usize = 2;
/// `durable`: every this many windows the barrier is a checkpointing
/// `quiesce` instead of a `snapshot`; the crash comes half an interval
/// after the last checkpoint.
pub const CHECKPOINT_EVERY: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Churn,
    Durable,
    Tenants,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Churn, Kind::Durable, Kind::Tenants];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Churn => "churn",
            Kind::Durable => "durable",
            Kind::Tenants => "tenants",
        }
    }
}

/// One workload at one scale.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    /// Registry name of the reallocator every shard runs.
    pub variant: &'static str,
    pub target_volume: u64,
    pub churn_ops: usize,
    /// Requests per commit window.
    pub window: usize,
    /// Reallocator instances: engine shards, or tenants.
    pub shards: usize,
}

impl Spec {
    pub fn new(kind: Kind, smoke: bool) -> Spec {
        // Full scale: V≈1M live cells, then churn sized so one repetition
        // is 250-300 windows of 1024 requests; a run pools the windows of
        // at least four repetitions (>= 1000, so a p99 has >= 10 samples
        // beyond it). A window of 1024 holds several buffer flushes on
        // average, so the median window is not split between windows that
        // flush and windows that do not.
        let (target_volume, churn_ops, window) = if smoke {
            (40_000, 6_000, 64)
        } else {
            match kind {
                Kind::Churn => (1_000_000, 276_000, 1024),
                Kind::Durable => (1_000_000, 140_000, 1024),
                Kind::Tenants => (1_000_000, 170_000, 1024),
            }
        };
        let (variant, shards) = match kind {
            Kind::Churn => ("cost-oblivious", 4),
            Kind::Durable => ("checkpointed", 4),
            Kind::Tenants => ("nearly-quadratic", TENANTS),
        };
        Spec {
            kind,
            variant,
            target_volume,
            churn_ops,
            window,
            shards,
        }
    }

    /// The request stream; the same seed always gives the same stream.
    pub fn generate(&self, seed: u64) -> Workload {
        match self.kind {
            Kind::Churn => churn(&ChurnConfig {
                dist: SizeDist::ClassPowerLaw {
                    classes: 10,
                    decay: 0.7,
                },
                target_volume: self.target_volume,
                churn_ops: self.churn_ops,
                seed,
            }),
            Kind::Durable | Kind::Tenants => coalescible_churn(&ChurnConfig {
                dist: SizeDist::Uniform { lo: 16, hi: 128 },
                target_volume: self.target_volume,
                churn_ops: self.churn_ops,
                seed,
            }),
        }
    }
}

/// What serving a stream must leave behind, derived from the stream alone.
pub struct Expected {
    /// Live objects and their sizes after the last request.
    pub live: HashMap<ObjectId, u64>,
    pub volume: u64,
    /// Cells the stream's inserts ask for.
    pub requested_cells: u64,
    /// Largest object size in the stream (`∆`).
    pub max_size: u64,
}

impl Expected {
    pub fn of(workload: &Workload) -> Expected {
        let mut live = HashMap::new();
        let mut requested_cells = 0;
        let mut max_size = 0;
        for req in &workload.requests {
            match *req {
                Request::Insert { id, size } => {
                    live.insert(id, size);
                    requested_cells += size;
                    max_size = max_size.max(size);
                }
                Request::Delete { id } => {
                    live.remove(&id);
                }
            }
        }
        Expected {
            volume: live.values().sum(),
            live,
            requested_cells,
            max_size,
        }
    }

    /// Objects that are live in `found` but not here (or at another size),
    /// plus objects live here but missing from `found`.
    pub fn mismatches(&self, found: &HashMap<ObjectId, u64>) -> u64 {
        let wrong = found
            .iter()
            .filter(|(id, size)| self.live.get(id) != Some(size))
            .count();
        let missing = self
            .live
            .keys()
            .filter(|id| !found.contains_key(id))
            .count();
        (wrong + missing) as u64
    }
}

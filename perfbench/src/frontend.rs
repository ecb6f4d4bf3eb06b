//! The closed client loop over commit windows, run through the public
//! front-ends: the sync `Engine` (`churn`), `Engine::with_wal` plus
//! `Engine::recover` (`durable`), and `AsyncEngine` tenants on a `Fleet`
//! (`tenants`).
//!
//! One client thread submits a window of requests, then waits for the
//! window to complete: the sync engine with `snapshot()` (a checkpointing
//! `quiesce()` every `CHECKPOINT_EVERY` windows on `durable`), the fleet
//! with every tenant's `flush()` ack. A window's latency runs from its
//! first submit to its barrier returning.
//!
//! With `trace` on, the loop also times its calls into the front-end
//! (submit, barrier, sampled per-request acks) and scrapes the public
//! metrics surface afterwards. Nothing inside the program is traced.

use std::collections::HashMap;
use std::future::Future;
use std::path::{Path, PathBuf};
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Wake, Waker};
use std::time::Instant;

use storage_realloc::common::{BoxedReallocator, Extent, HashRouter, ObjectId, TableRouter};
use storage_realloc::engine::{
    Ack, AsyncEngine, Engine, EngineConfig, EngineError, EngineStats, Fleet, FleetConfig,
    HistogramSnapshot, MetricsSnapshot, ShardFinal, SpanPhase, StealStats, SubstrateConfig,
    VerifyCadence,
};
use storage_realloc::prelude::build_variant;
use storage_realloc::workloads::{Request, Workload};

use crate::spec::{Expected, Kind, Spec, CHECKPOINT_EVERY, EPS, FLEET_WORKERS, TENANTS};

/// Every `ACK_SAMPLE`-th fleet request has its ack latency recorded in a
/// traced pass.
const ACK_SAMPLE: u64 = 16;

/// What the program served and how it measured, for one pass of the loop.
#[derive(Default)]
pub struct Pass {
    pub requests: u64,
    /// First submit to the last barrier returning.
    pub elapsed_s: f64,
    pub window_ms: Vec<f64>,
    /// Worst per-shard settled footprint ÷ live volume.
    pub space_ratio: f64,
    /// Σ allocation and Σ reallocation cost at f(w) = w.
    pub alloc_cost: f64,
    pub realloc_cost: f64,
    /// Cells written to storage (the substrate's count, or allocated +
    /// moved cells where there is no substrate).
    pub written_cells: u64,
    /// `durable`: bytes the engine's WAL wrote.
    pub wal_bytes: u64,
    pub recovery: Option<Recovery>,
    /// Requests rejected or lost, plus one per other failed check.
    pub failed: u64,
    pub problems: Vec<String>,
    pub trace: FrontTrace,
}

impl Pass {
    fn fail(&mut self, count: u64, problem: String) {
        self.failed += count;
        self.problems.push(problem);
    }

    pub fn throughput_rps(&self) -> f64 {
        self.requests as f64 / self.elapsed_s
    }
}

/// `durable`: the crash → recover step.
#[derive(Default, Clone)]
pub struct Recovery {
    pub seconds: f64,
    pub replayed_records: u64,
    /// `recover.fold`, `.reconcile`, `.routing`, `.reseed` span lengths.
    pub stage_ms: [f64; 4],
}

pub const RECOVER_STAGES: [&str; 4] = ["fold", "reconcile", "routing", "reseed"];

/// Reads the recovery stage spans out of a recovered engine's journal.
pub fn stage_ms(metrics: &MetricsSnapshot) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (slot, stage) in out.iter_mut().zip(RECOVER_STAGES) {
        let label = format!("recover.{stage}");
        let at = |phase| {
            metrics
                .events
                .iter()
                .find(|e| e.label == label && e.phase == phase)
                .map(|e| e.at_us as f64)
        };
        if let (Some(begin), Some(end)) = (at(SpanPhase::Begin), at(SpanPhase::End)) {
            *slot = (end - begin) / 1e3;
        }
    }
    out
}

/// What a traced pass saw at the front-end boundary.
#[derive(Default)]
pub struct FrontTrace {
    /// Time spent inside insert/delete calls.
    pub submit_ns: u64,
    pub barrier_us: Vec<f64>,
    /// Sampled submit → ack-resolved latencies (fleet only).
    pub ack_us: Vec<f64>,
    pub intake_stall_ns: HistogramSnapshot,
    pub batch_service_ns: HistogramSnapshot,
    pub raw_requests: u64,
    pub planned_requests: u64,
    pub coalesced: u64,
    pub cancelled: u64,
    pub steal: StealStats,
}

impl FrontTrace {
    fn absorb(&mut self, metrics: &MetricsSnapshot) {
        for shard in &metrics.per_shard {
            self.intake_stall_ns.merge(&shard.intake_stall_ns);
            self.batch_service_ns.merge(&shard.batch_service_ns);
            self.raw_requests += shard.batch_raw_requests.sum;
            self.planned_requests += shard.batch_planned_requests.sum;
        }
        self.coalesced += metrics.stats.requests_coalesced();
        self.cancelled += metrics.stats.requests_cancelled();
    }
}

/// Removes a directory when dropped, so a failed run leaves no WAL behind.
pub struct DirGuard(pub PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn factory(variant: &'static str) -> impl FnMut(usize) -> BoxedReallocator {
    move |_| build_variant(variant, EPS).expect("registered variant")
}

fn sync_config(spec: &Spec) -> EngineConfig {
    let config = EngineConfig::with_shards(spec.shards);
    match spec.kind {
        Kind::Durable => config
            .with_substrate(SubstrateConfig::strict().cadence(VerifyCadence::Final))
            .coalescing(),
        _ => config,
    }
}

/// A constructed front-end, ready to serve. (One per repetition, so its
/// size does not matter.)
#[allow(clippy::large_enum_variant)]
pub enum Front {
    Sync {
        engine: Engine,
        wal: Option<DirGuard>,
    },
    Fleet {
        tenants: Vec<AsyncEngine>,
        fleet: Fleet,
    },
}

/// Builds the workload's front-end (`scratch` holds the WAL directory).
pub fn build(spec: &Spec, scratch: &Path) -> Result<Front, String> {
    Ok(match spec.kind {
        Kind::Churn => Front::Sync {
            engine: Engine::new(sync_config(spec), factory(spec.variant)),
            wal: None,
        },
        Kind::Durable => {
            let dir = scratch.join("wal");
            let guard = DirGuard(dir.clone());
            let engine = Engine::with_wal(
                sync_config(spec),
                Box::new(TableRouter::new(spec.shards)),
                factory(spec.variant),
                &dir,
            )
            .map_err(|e| format!("open WAL: {e}"))?;
            Front::Sync {
                engine,
                wal: Some(guard),
            }
        }
        Kind::Tenants => fleet_front(spec.variant),
    })
}

/// `TENANTS` single-shard tenants on a stealing fleet of `FLEET_WORKERS`.
pub fn fleet_front(variant: &'static str) -> Front {
    let fleet = Fleet::new(FleetConfig::with_workers(FLEET_WORKERS).stealing(true));
    let tenants = (0..TENANTS)
        .map(|_| {
            fleet.register(
                EngineConfig::with_shards(1),
                Box::new(HashRouter::new(1)),
                factory(variant),
            )
        })
        .collect();
    Front::Fleet { tenants, fleet }
}

/// Serves `workload` through `front` and checks the result.
pub fn run(
    spec: &Spec,
    front: Front,
    workload: &Workload,
    expected: &Expected,
    trace: bool,
) -> Result<Pass, String> {
    let mut pass = match front {
        Front::Sync { engine, wal } => run_sync(spec, engine, wal, workload, expected, trace),
        Front::Fleet { tenants, fleet } => {
            run_fleet(spec, tenants, fleet, workload, expected, trace)
        }
    }?;
    pass.requests = workload.len() as u64;
    Ok(pass)
}

fn submit(engine: &mut Engine, req: Request) -> Result<(), EngineError> {
    match req {
        Request::Insert { id, size } => engine.insert(id, size),
        Request::Delete { id } => engine.delete(id),
    }
}

fn live_map<'a>(
    shards: impl IntoIterator<Item = &'a Vec<(ObjectId, Extent)>>,
) -> HashMap<ObjectId, u64> {
    shards
        .into_iter()
        .flatten()
        .map(|&(id, extent)| (id, extent.len))
        .collect()
}

/// The final-state checks every workload shares: the live set equals the
/// stream's, and `Σ footprint ≤ (1+ε)·ΣV + N·∆`.
fn check_final(
    pass: &mut Pass,
    found: &HashMap<ObjectId, u64>,
    expected: &Expected,
    footprint: u64,
    volume: u64,
    shards: usize,
) {
    let mismatched = expected.mismatches(found);
    if mismatched > 0 || volume != expected.volume {
        pass.fail(
            mismatched.max(1),
            format!(
                "live set differs from the stream's: {mismatched} objects, volume {volume} vs {}",
                expected.volume
            ),
        );
    }
    let bound = (1.0 + EPS) * volume as f64 + (shards as u64 * expected.max_size) as f64;
    if footprint as f64 > bound {
        pass.fail(
            1,
            format!("footprint {footprint} exceeds (1+ε)·V + N·∆ = {bound}"),
        );
    }
}

fn ledger_costs(pass: &mut Pass, finals: &[ShardFinal]) {
    let f = |w: u64| w as f64;
    for fin in finals {
        pass.alloc_cost += fin.ledger.total_alloc_cost(&f);
        pass.realloc_cost += fin.ledger.total_realloc_cost(&f);
    }
    pass.written_cells = (pass.alloc_cost + pass.realloc_cost) as u64;
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn run_sync(
    spec: &Spec,
    mut engine: Engine,
    wal: Option<DirGuard>,
    workload: &Workload,
    expected: &Expected,
    trace: bool,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut stats: Option<EngineStats> = None;
    let windows = workload.len().div_ceil(spec.window);
    let start = Instant::now();
    for (w, chunk) in workload.requests.chunks(spec.window).enumerate() {
        let opened = Instant::now();
        for &req in chunk {
            if trace {
                let t = Instant::now();
                submit(&mut engine, req).map_err(|e| e.to_string())?;
                pass.trace.submit_ns += t.elapsed().as_nanos() as u64;
            } else {
                submit(&mut engine, req).map_err(|e| e.to_string())?;
            }
        }
        let barrier = Instant::now();
        // Checkpoints are spaced back from the last window, so the crash
        // always lands half an interval after the last one.
        let checkpoint = spec.kind == Kind::Durable
            && (windows - 1 - w) % CHECKPOINT_EVERY == CHECKPOINT_EVERY / 2;
        let served = if checkpoint {
            engine.quiesce()
        } else {
            engine.snapshot()
        };
        stats = Some(served.map_err(|e| format!("window {w}: {e}"))?);
        pass.window_ms.push(ms(opened.elapsed().as_secs_f64()));
        if trace {
            pass.trace
                .barrier_us
                .push(barrier.elapsed().as_secs_f64() * 1e6);
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    let stats = stats.ok_or("empty workload")?;
    pass.space_ratio = stats.worst_settled_ratio();

    let found = live_map(&engine.extents().map_err(|e| e.to_string())?);
    check_final(
        &mut pass,
        &found,
        expected,
        stats.footprint(),
        stats.live_volume(),
        spec.shards,
    );
    if trace {
        let metrics = engine.metrics().map_err(|e| e.to_string())?;
        pass.trace.absorb(&metrics);
    }

    let Some(wal) = wal else {
        let finals = engine.shutdown().map_err(|e| e.to_string())?;
        ledger_costs(&mut pass, &finals);
        return Ok(pass);
    };

    // Durable: the ledgers die with the crash, so the costs come from the
    // substrate's counters — it writes every allocated and moved cell once.
    if let Err(e) = engine.verify_substrate() {
        pass.fail(1, format!("substrate verification: {e}"));
    }
    pass.realloc_cost = stats.total_moved_volume() as f64;
    pass.alloc_cost = (stats.bytes_written() - stats.total_moved_volume()) as f64;
    pass.written_cells = stats.bytes_written();
    pass.wal_bytes = stats.wal_bytes();

    engine.crash();
    let t = Instant::now();
    let (mut recovered, report) = Engine::recover(sync_config(spec), &wal.0, factory(spec.variant))
        .map_err(|e| format!("recover: {e}"))?;
    let seconds = t.elapsed().as_secs_f64();
    let metrics = recovered.metrics().map_err(|e| e.to_string())?;
    pass.recovery = Some(Recovery {
        seconds,
        replayed_records: report.replayed_records,
        stage_ms: stage_ms(&metrics),
    });
    let found = live_map(&recovered.extents().map_err(|e| e.to_string())?);
    let lost = expected.mismatches(&found);
    if lost > 0 {
        pass.fail(
            lost,
            format!("recovery lost or changed {lost} acked objects"),
        );
    }
    drop(recovered);
    drop(wal);
    Ok(pass)
}

/// Records when the waker of a polled-once ack fires.
struct AckProbe {
    submitted: Instant,
    resolved: Mutex<Option<Instant>>,
}

impl Wake for AckProbe {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let mut slot = self.resolved.lock().expect("ack probe poisoned");
        slot.get_or_insert_with(Instant::now);
    }
}

/// Polls `ack` once with a timestamp-recording waker.
fn probe(mut ack: Ack, submitted: Instant) -> (Arc<AckProbe>, Ack) {
    let probe = Arc::new(AckProbe {
        submitted,
        resolved: Mutex::new(None),
    });
    let waker = Waker::from(Arc::clone(&probe));
    if Pin::new(&mut ack)
        .poll(&mut Context::from_waker(&waker))
        .is_ready()
    {
        probe.wake_by_ref();
    }
    (probe, ack)
}

fn run_fleet(
    spec: &Spec,
    mut tenants: Vec<AsyncEngine>,
    fleet: Fleet,
    workload: &Workload,
    expected: &Expected,
    trace: bool,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut sampled: Vec<(Arc<AckProbe>, Ack)> = Vec::new();
    let mut submitted = 0u64;
    let start = Instant::now();
    for chunk in workload.requests.chunks(spec.window) {
        let opened = Instant::now();
        for &req in chunk {
            let tenant = &mut tenants[(req.id().0 % TENANTS as u64) as usize];
            let t = trace.then(Instant::now);
            let ack = match req {
                Request::Insert { id, size } => tenant.insert(id, size),
                Request::Delete { id } => tenant.delete(id),
            };
            if let Some(t) = t {
                pass.trace.submit_ns += t.elapsed().as_nanos() as u64;
                if submitted.is_multiple_of(ACK_SAMPLE) {
                    sampled.push(probe(ack, t));
                }
            }
            submitted += 1;
        }
        let barrier = Instant::now();
        let flushes: Vec<Ack> = tenants.iter_mut().map(AsyncEngine::flush).collect();
        flushes.into_iter().for_each(Ack::wait);
        pass.window_ms.push(ms(opened.elapsed().as_secs_f64()));
        if trace {
            pass.trace
                .barrier_us
                .push(barrier.elapsed().as_secs_f64() * 1e6);
            for (probe, ack) in sampled.drain(..) {
                // Everything submitted before the flush has been applied;
                // a missing wake-up would be a lost notification.
                ack.wait();
                let resolved = *probe.resolved.lock().expect("ack probe poisoned");
                match resolved {
                    Some(at) => pass
                        .trace
                        .ack_us
                        .push((at - probe.submitted).as_secs_f64() * 1e6),
                    None => pass.fail(1, "an ack resolved without waking its waker".into()),
                }
            }
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();

    let mut found = HashMap::new();
    let (mut footprint, mut volume) = (0, 0);
    for tenant in &mut tenants {
        let stats = tenant.snapshot().map_err(|e| e.to_string())?;
        footprint += stats.footprint();
        volume += stats.live_volume();
        pass.space_ratio = pass.space_ratio.max(stats.worst_settled_ratio());
        found.extend(live_map(&tenant.extents().map_err(|e| e.to_string())?));
        if trace {
            pass.trace
                .absorb(&tenant.metrics().map_err(|e| e.to_string())?);
        }
    }
    check_final(&mut pass, &found, expected, footprint, volume, TENANTS);
    if trace {
        pass.trace.steal = fleet.steal_totals();
    }
    let mut finals = Vec::new();
    for tenant in tenants {
        finals.extend(tenant.shutdown().map_err(|e| e.to_string())?);
    }
    ledger_costs(&mut pass, &finals);
    drop(fleet);
    Ok(pass)
}

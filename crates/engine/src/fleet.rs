//! The multi-tenant execution substrate behind the async facade: a small
//! pool of worker threads serving *every* registered tenant's shard
//! cores, with optional work stealing between the workers' queues.
//!
//! ## Shape
//!
//! A [`Fleet`] owns `W` worker threads, each with its own FIFO of
//! `Task`s. A tenant registered via [`Fleet::register`] gets an
//! [`AsyncEngine`] handle: `Engine<Cores>`, the sync handle's own type
//! shipping over [`Cores`] instead of dedicated threads. Its shard cores
//! are plain `ShardWorker` state machines (the *same* type a sync shard
//! thread runs) parked inside `CoreCell`s; each core is *homed* on one
//! worker queue. Thousands of tenants therefore cost thousands of
//! heap-allocated cores, not thousands of threads. A task carries a
//! share of its completion (the shipped batch's, which every request ack
//! in it shares), dropped once the task has been applied — or with the
//! task if the fleet is torn down first.
//!
//! ## The steal protocol (queues, not objects)
//!
//! When stealing is on, an idle worker takes the *front task* of the
//! most backlogged other queue and tries to run it on the owning core.
//! Whole queued batches move, never individual objects, so shard
//! affinity is untouched and per-object request order survives — order
//! is enforced by a per-core apply sequence: every task carries the
//! `seq` it was enqueued with, and a core only applies task `n` after
//! task `n-1`. The thief *peeks before it takes*: it wins the core's
//! lock first and only then removes the batch from the owner's queue,
//! so on either conflict edge the batch simply stays queued at its
//! owner — a failed attempt costs two lock probes and disturbs neither
//! the queue nor the order:
//!
//! 1. **lock conflict** — the core is mid-batch on another worker
//!    (`try_lock` fails; thieves never block on a core), and
//! 2. **seq conflict** — an *earlier* batch of the same core is in
//!    another worker's hands (popped but not yet locked), so applying
//!    this one would reorder.
//!
//! Successful steals bump `batches_stolen` (and observe how long the
//! batch waited queued); both conflict edges bump `steal_conflicts`.
//! Counters accumulate per tenant (so each tenant's
//! [`MetricsSnapshot`](crate::MetricsSnapshot) scrape carries its own
//! [`StealStats`]) and fleet-wide
//! ([`Fleet::steal_totals`]); per-tenant scrapes sum to the totals.
//!
//! ## Why this cannot deadlock or reorder
//!
//! A worker holds at most one core-side lock at a time (one core's
//! state lock, *or* one core's inflight counter), and thieves only ever
//! `try_lock` a core — the one nested hold (a thief probing a core
//! while holding the victim's queue lock) can therefore never wait.
//! Removal is what makes order trivial: a task leaves a queue only on
//! its home worker (which applies tasks one at a time, in pop order) or
//! under its core's lock with the sequence check already passed, so at
//! most one same-core task is ever un-applied outside the queue and the
//! apply sequence admits tasks in enqueue order exactly. The home
//! worker never blocks on its own core either: if a thief holds the
//! lock, the home re-enqueues the task (before its core's next task, so
//! core order is preserved) and serves its other tenants first. The
//! seq-gap arm of that home path survives only as a defensive check —
//! with peek-before-take it is unreachable.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use realloc_common::{BoxedReallocator, Router};
use realloc_telemetry::Histogram;

use crate::async_facade::{AsyncEngine, Completer};
use crate::engine::{Engine, EngineConfig, EngineError};
use crate::frontend::{prepare_wal_dir, sealed, Shipment, Transport};
use crate::metrics::StealStats;
use crate::shard::{Command, ShardWorker};

/// How a [`Fleet`] is shaped: worker-thread count and whether idle
/// workers steal queued batches from backlogged peers.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Worker threads (and steal-able task queues). Every registered
    /// tenant's cores are multiplexed over these.
    pub workers: usize,
    /// Whether idle workers steal whole queued batches from the most
    /// backlogged other queue. Off, the fleet is a plain multiplexer.
    pub steal: bool,
}

impl FleetConfig {
    /// `workers` threads, stealing off.
    pub fn with_workers(workers: usize) -> FleetConfig {
        FleetConfig {
            workers,
            steal: false,
        }
    }

    /// Enables (or disables) batch stealing.
    pub fn stealing(mut self, steal: bool) -> FleetConfig {
        self.steal = steal;
        self
    }
}

impl Default for FleetConfig {
    /// Four workers, stealing off.
    fn default() -> FleetConfig {
        FleetConfig::with_workers(4)
    }
}

/// Per-tenant work-stealing accumulators, shared by the tenant's cores
/// and every thief that serves them. Scraped into
/// [`StealStats`](crate::metrics::StealStats) by the tenant's metrics
/// barrier.
#[derive(Default)]
struct StealTelemetry {
    batches_stolen: AtomicU64,
    steal_conflicts: AtomicU64,
    steal_wait_ns: Histogram,
}

impl StealTelemetry {
    fn snapshot(&self) -> StealStats {
        StealStats {
            batches_stolen: self.batches_stolen.load(Ordering::Relaxed),
            steal_conflicts: self.steal_conflicts.load(Ordering::Relaxed),
            steal_wait_ns: self.steal_wait_ns.snapshot(),
        }
    }
}

/// One unit of queued work: a command against one core (the same
/// [`Command`]s a sync shard thread serves), its position in that core's
/// apply sequence, and its completion share, dropped once it has been
/// applied. Fields drop in order, so an unapplied task hangs up its
/// command's reply channel before its completion can fire.
struct Task {
    core: Arc<CoreCell>,
    seq: u64,
    cmd: Command,
    enqueued: Instant,
    done: Option<Completer>,
}

/// The part of a core only its current executor may touch.
pub(crate) struct CoreState {
    /// The shard state machine; `None` after its `Finish` barrier.
    pub(crate) worker: Option<ShardWorker>,
    /// Seq of the next task this core may apply — the order guard that
    /// makes stealing invisible to per-object request order.
    pub(crate) next_apply: u64,
}

/// One tenant shard parked in the fleet: the worker state machine, its
/// apply-sequence guard, and the bounded-intake counter that gives the
/// async facade the same backpressure as the sync engine's
/// `sync_channel(queue_depth)`.
struct CoreCell {
    /// Index of the worker queue this core's tasks are enqueued on.
    home: usize,
    /// Admission bound: tasks admitted but not yet applied.
    depth: usize,
    state: Mutex<CoreState>,
    inflight: Mutex<usize>,
    freed: Condvar,
    /// The owning tenant's steal accumulators.
    steal: Arc<StealTelemetry>,
}

impl CoreCell {
    /// Blocks until the core has an admission slot free, then takes it.
    /// Mirrors the sync engine's blocking `send` on a full shard channel,
    /// including its stall accounting: only an admit that actually found
    /// the core full pays a clock read and records an observation.
    fn admit(&self, stall: Option<&Histogram>) {
        let mut inflight = self.inflight.lock().expect("core inflight poisoned");
        if *inflight >= self.depth {
            let started = stall.map(|_| Instant::now());
            while *inflight >= self.depth {
                inflight = self.freed.wait(inflight).expect("core inflight poisoned");
            }
            if let (Some(stall), Some(started)) = (stall, started) {
                stall.record(started.elapsed().as_nanos() as u64);
            }
        }
        *inflight += 1;
    }

    /// Returns an admission slot after a task has been applied.
    fn release(&self) {
        let mut inflight = self.inflight.lock().expect("core inflight poisoned");
        *inflight -= 1;
        drop(inflight);
        self.freed.notify_all();
    }
}

/// The fleet transport behind an [`AsyncEngine`]: one tenant's shard
/// cores, reached through their home worker queues. Admission blocks at
/// the sync engine's `queue_depth` bound, and every task takes the next
/// seq of its core's apply sequence.
pub struct Cores {
    shared: Arc<FleetShared>,
    cores: Vec<Arc<CoreCell>>,
    /// Next apply-sequence number per core (one enqueuing handle per
    /// tenant, so a plain counter is the whole ordering story).
    next_seq: Vec<u64>,
    steal: Arc<StealTelemetry>,
    /// The fleet-assigned tenant ordinal (registration order).
    pub(crate) tenant: usize,
}

impl Cores {
    fn new(
        shared: &Arc<FleetShared>,
        workers: Vec<ShardWorker>,
        homes: &[usize],
        depth: usize,
        tenant: usize,
    ) -> Cores {
        let steal = Arc::new(StealTelemetry::default());
        let cores: Vec<_> = workers
            .into_iter()
            .zip(homes)
            .map(|(worker, &home)| {
                Arc::new(CoreCell {
                    home,
                    depth,
                    state: Mutex::new(CoreState {
                        worker: Some(worker),
                        next_apply: 0,
                    }),
                    inflight: Mutex::new(0),
                    freed: Condvar::new(),
                    steal: Arc::clone(&steal),
                })
            })
            .collect();
        Cores {
            shared: Arc::clone(shared),
            next_seq: vec![0; cores.len()],
            cores,
            steal,
            tenant,
        }
    }

    /// Locks core `shard`'s state (the `hold_core` testing hook).
    pub(crate) fn lock_core(&self, shard: usize) -> MutexGuard<'_, CoreState> {
        self.cores[shard].state.lock().expect("core state poisoned")
    }
}

impl Transport for Cores {}

impl sealed::Ship for Cores {
    fn ship(
        &mut self,
        shard: usize,
        shipment: Shipment,
        stall: Option<&Histogram>,
    ) -> Result<(), EngineError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            // Fleet already torn down (tenants should shut down first):
            // the shipment drops — its command hanging up its reply
            // channel, then its completion share resolving its waiters
            // instead of hanging them.
            return Ok(());
        }
        let Shipment { cmd, done } = shipment;
        let core = &self.cores[shard];
        core.admit(stall);
        let seq = self.next_seq[shard];
        self.next_seq[shard] += 1;
        let task = Task {
            core: Arc::clone(core),
            seq,
            cmd,
            enqueued: Instant::now(),
            done,
        };
        let queue = &self.shared.queues[core.home];
        queue
            .tasks
            .lock()
            .expect("fleet queue poisoned")
            .push_back(task);
        queue.ready.notify_one();
        Ok(())
    }

    fn steal(&self) -> StealStats {
        self.steal.snapshot()
    }
}

/// One worker's FIFO plus its wakeup signal.
#[derive(Default)]
struct WorkerQueue {
    tasks: Mutex<VecDeque<Task>>,
    ready: Condvar,
}

/// Everything worker threads and tenant handles share.
struct FleetShared {
    queues: Vec<WorkerQueue>,
    steal: bool,
    shutdown: AtomicBool,
    paused: Vec<AtomicBool>,
    totals: StealTelemetry,
}

/// The tenant registry and worker pool. Register tenants with
/// [`register`](Fleet::register) (or the WAL'd/pinned variants), drive
/// them through their [`AsyncEngine`] handles, shut
/// the tenants down, then drop (or [`shutdown`](Fleet::shutdown)) the
/// fleet. Tenant handles should not outlive the fleet: once it is gone,
/// new work is silently dropped — acks resolve at once and barriers
/// report [`EngineError::ShardDown`].
pub struct Fleet {
    shared: Arc<FleetShared>,
    threads: Vec<JoinHandle<()>>,
    next_home: AtomicUsize,
    next_tenant: AtomicUsize,
}

impl Fleet {
    /// Spawns the worker pool.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn new(config: FleetConfig) -> Fleet {
        assert!(config.workers > 0, "a fleet needs at least one worker");
        let shared = Arc::new(FleetShared {
            queues: (0..config.workers)
                .map(|_| WorkerQueue::default())
                .collect(),
            steal: config.steal,
            shutdown: AtomicBool::new(false),
            paused: (0..config.workers)
                .map(|_| AtomicBool::new(false))
                .collect(),
            totals: StealTelemetry::default(),
        });
        let threads = (0..config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("realloc-fleet-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn fleet worker")
            })
            .collect();
        Fleet {
            shared,
            threads,
            next_home: AtomicUsize::new(0),
            next_tenant: AtomicUsize::new(0),
        }
    }

    /// Registers a tenant: builds its shard cores (any `Reallocator +
    /// Send` per shard, like [`Engine::with_router`](crate::Engine)),
    /// homes them round-robin over the worker queues, and returns the
    /// async handle.
    ///
    /// # Panics
    /// Panics like the sync constructors on a zero shard/batch count or
    /// a router/config shard-count mismatch.
    pub fn register<F>(
        &self,
        config: EngineConfig,
        router: Box<dyn Router>,
        factory: F,
    ) -> AsyncEngine
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        self.build_tenant(config, router, factory, None, None)
            .expect("spawning cores without a WAL cannot fail")
    }

    /// [`register`](Fleet::register), but every core homed on one
    /// specific worker queue. Deterministic placement for tests and the
    /// tail-latency bench (e.g. co-locating a hot tenant with its
    /// victims so only stealing can spread the load).
    ///
    /// # Panics
    /// Panics if `worker` is out of range, plus the
    /// [`register`](Fleet::register) panics.
    pub fn register_pinned<F>(
        &self,
        config: EngineConfig,
        router: Box<dyn Router>,
        factory: F,
        worker: usize,
    ) -> AsyncEngine
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        assert!(
            worker < self.shared.queues.len(),
            "pinned worker {worker} out of range ({} workers)",
            self.shared.queues.len()
        );
        self.build_tenant(config, router, factory, None, Some(worker))
            .expect("spawning cores without a WAL cannot fail")
    }

    /// [`register`](Fleet::register) with durability: each core journals
    /// into `wal_dir` exactly like [`Engine::with_wal`](crate::Engine),
    /// so a crashed tenant is rebuilt with the ordinary sync
    /// [`Engine::recover`](crate::Engine) on the same directory. Give
    /// every tenant its own directory.
    ///
    /// # Errors
    /// [`EngineError::Wal`] if the directory or a shard's log cannot be
    /// created.
    pub fn register_with_wal<F>(
        &self,
        config: EngineConfig,
        router: Box<dyn Router>,
        factory: F,
        wal_dir: impl AsRef<Path>,
    ) -> Result<AsyncEngine, EngineError>
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        let dir = prepare_wal_dir(wal_dir.as_ref())?;
        self.build_tenant(config, router, factory, Some(dir), None)
    }

    /// Builds a tenant whose cores are homed on `pinned`, or round-robin
    /// over the worker queues.
    fn build_tenant<F>(
        &self,
        config: EngineConfig,
        router: Box<dyn Router>,
        factory: F,
        wal_dir: Option<PathBuf>,
        pinned: Option<usize>,
    ) -> Result<AsyncEngine, EngineError>
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        let tenant = self.next_tenant.fetch_add(1, Ordering::Relaxed);
        let workers = self.shared.queues.len();
        let homes: Vec<usize> = (0..config.shards)
            .map(|_| {
                pinned.unwrap_or_else(|| self.next_home.fetch_add(1, Ordering::Relaxed) % workers)
            })
            .collect();
        Engine::build(config, router, factory, wal_dir, 0, |workers, depth| {
            Cores::new(&self.shared, workers, &homes, depth, tenant)
        })
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Whether batch stealing is on.
    pub fn stealing(&self) -> bool {
        self.shared.steal
    }

    /// Fleet-wide steal counters (every tenant's observations summed —
    /// per-tenant scrapes reconcile against this).
    pub fn steal_totals(&self) -> StealStats {
        self.shared.totals.snapshot()
    }

    /// Testing/bench hook: parks worker `w` — it applies nothing (own
    /// tasks *or* steals) until [`resume_worker`](Fleet::resume_worker).
    /// With stealing on, a paused home worker makes every one of its
    /// queued batches a forced steal; with stealing off it simulates a
    /// flush-bound shard. Shutdown resumes all workers.
    pub fn pause_worker(&self, w: usize) {
        self.shared.paused[w].store(true, Ordering::Release);
    }

    /// Un-parks a worker paused by [`pause_worker`](Fleet::pause_worker).
    pub fn resume_worker(&self, w: usize) {
        self.shared.paused[w].store(false, Ordering::Release);
        self.shared.queues[w].ready.notify_all();
    }

    /// Stops the worker pool: each worker drains its own queue, then
    /// exits. Call after the tenants have been shut down (dropping the
    /// fleet does the same).
    pub fn shutdown(self) {}
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for paused in &self.shared.paused {
            paused.store(false, Ordering::Release);
        }
        for queue in &self.shared.queues {
            queue.ready.notify_all();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One worker: drain own queue, steal if idle, park briefly otherwise.
fn worker_loop(shared: &FleetShared, me: usize) {
    loop {
        if shared.paused[me].load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        let task = {
            let mut tasks = shared.queues[me]
                .tasks
                .lock()
                .expect("fleet queue poisoned");
            tasks.pop_front()
        };
        if let Some(task) = task {
            run_own(shared, task);
            continue;
        }
        if shared.steal {
            match steal_once(shared, me) {
                Steal::Applied => continue,
                Steal::Conflict => {
                    // The contended core is mid-apply on another thread —
                    // probably deep in the very spike the steal patience
                    // waited out. Retrying hot only taxes the thread doing
                    // the work (it may share this CPU); nap a real interval.
                    std::thread::sleep(Duration::from_micros(250));
                    continue;
                }
                Steal::Empty => {}
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let tasks = shared.queues[me]
            .tasks
            .lock()
            .expect("fleet queue poisoned");
        if tasks.is_empty() {
            // Timed wait: steal candidates and the pause flag live outside
            // this queue's condvar, so re-scan a few thousand times a second.
            let _ = shared.queues[me]
                .ready
                .wait_timeout(tasks, Duration::from_micros(500))
                .expect("fleet queue poisoned");
        }
    }
}

/// Runs a task popped from its home queue. A locked core means a thief
/// is mid-apply on it — don't stand blocked while other cores' work
/// queues behind; put the task back in core order and serve someone
/// else. A seq gap likewise means a thief holds an *earlier* batch.
fn run_own(shared: &FleetShared, task: Task) {
    let core = Arc::clone(&task.core);
    let state = match core.state.try_lock() {
        Ok(state) => state,
        Err(TryLockError::WouldBlock) => {
            // Not a steal conflict — nothing was attempted, the home
            // just declines to idle against a thief's lock.
            requeue(shared, task);
            std::thread::yield_now();
            return;
        }
        Err(TryLockError::Poisoned(e)) => panic!("core state poisoned: {e}"),
    };
    if state.next_apply != task.seq {
        drop(state);
        conflict(shared, task);
        std::thread::yield_now();
        return;
    }
    apply(&core, state, task);
}

/// How one steal attempt ended.
enum Steal {
    /// A batch was stolen and applied.
    Applied,
    /// A conflict edge fired; the batch stayed at its owner. Worth
    /// retrying soon — the contended core frees within one batch.
    Conflict,
    /// Nothing to steal anywhere.
    Empty,
}

/// One steal attempt: peek the front of the most backlogged other
/// queue, win its core's lock *first*, and only then take the batch.
/// Never blocks on a core, and never removes a batch it cannot apply —
/// a conflict leaves the owner's queue byte-untouched.
fn steal_once(shared: &FleetShared, me: usize) -> Steal {
    let Some(victim) = best_victim(shared, me) else {
        return Steal::Empty;
    };
    let mut tasks = shared.queues[victim]
        .tasks
        .lock()
        .expect("fleet queue poisoned");
    let Some(front) = tasks.front() else {
        return Steal::Empty; // drained between the length probe and here
    };
    if !shared.paused[victim].load(Ordering::Acquire) && front.enqueued.elapsed() < STEAL_PATIENCE {
        // The home is live and the wait is still short — let it keep
        // its cache-hot core. Not a conflict: nothing contended, the
        // batch just is not worth taking yet.
        return Steal::Empty;
    }
    let core = Arc::clone(&front.core);
    let seq = front.seq;
    let state = match core.state.try_lock() {
        Ok(state) => state,
        Err(TryLockError::WouldBlock) => {
            // Conflict edge 1: the core is busy on another worker.
            drop(tasks);
            mark_conflict(shared, &core);
            return Steal::Conflict;
        }
        Err(TryLockError::Poisoned(e)) => panic!("core state poisoned: {e}"),
    };
    if state.next_apply != seq {
        // Conflict edge 2: an earlier batch of this core is in another
        // worker's hands (popped, not yet locked); applying now would
        // reorder.
        drop(state);
        drop(tasks);
        mark_conflict(shared, &core);
        return Steal::Conflict;
    }
    let task = tasks
        .pop_front()
        .expect("peeked front vanished under the queue lock");
    drop(tasks);
    let waited = task.enqueued.elapsed().as_nanos() as u64;
    core.steal.batches_stolen.fetch_add(1, Ordering::Relaxed);
    core.steal.steal_wait_ns.record(waited);
    shared.totals.batches_stolen.fetch_add(1, Ordering::Relaxed);
    shared.totals.steal_wait_ns.record(waited);
    apply(&core, state, task);
    Steal::Applied
}

/// How long a live home's front task must have waited before thieves
/// move in.
///
/// Stealing is not free: a stolen apply drags the core's cache-hot
/// reallocator state to another thread (on another CPU when there is
/// one), and the home declines into requeue churn whenever it meets the
/// thief's lock. A home that is merely mid-apply frees its front task
/// within tens of microseconds — cheaper to let it. A front task older
/// than this has its home genuinely stuck — most likely inside one
/// core's monolithic rebuild spike, which runs milliseconds at the
/// ≈10⁵-byte volumes a loaded core carries — and the queue wait already
/// dwarfs anything a steal can waste. Paused homes are exempt:
/// everything they hold is stranded until a thief takes it.
pub(crate) const STEAL_PATIENCE: Duration = Duration::from_millis(2);

/// The most backlogged queue other than `me`, if any has work.
fn best_victim(shared: &FleetShared, me: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (w, queue) in shared.queues.iter().enumerate() {
        if w == me {
            continue;
        }
        let len = queue.tasks.lock().expect("fleet queue poisoned").len();
        if len > 0 && best.is_none_or(|(_, blen)| len > blen) {
            best = Some((w, len));
        }
    }
    best.map(|(w, _)| w)
}

/// Applies a task whose turn has come on a locked core (a core retired
/// by `Finish` just drops the command), then — with the core lock
/// released — returns the admission slot and drops the completion
/// share, so an awaiting client observes an unlocked core with capacity
/// free.
fn apply<'a>(core: &'a Arc<CoreCell>, mut state: MutexGuard<'a, CoreState>, task: Task) {
    let Task { cmd, done, .. } = task;
    if state
        .worker
        .as_mut()
        .is_some_and(|worker| worker.handle(cmd))
    {
        state.worker = None;
    }
    state.next_apply += 1;
    drop(state);
    core.release();
    drop(done);
}

/// Counts a conflict against the core's tenant and the fleet totals.
/// The batch itself is untouched — with peek-before-take it never left
/// its owner's queue.
fn mark_conflict(shared: &FleetShared, core: &CoreCell) {
    core.steal.steal_conflicts.fetch_add(1, Ordering::Relaxed);
    shared
        .totals
        .steal_conflicts
        .fetch_add(1, Ordering::Relaxed);
}

/// The home worker's defensive conflict arm: count, then hand the batch
/// back to its own queue in core order. Unreachable by construction
/// (see the module docs) but kept so a future protocol change fails
/// soft instead of reordering.
fn conflict(shared: &FleetShared, task: Task) {
    mark_conflict(shared, &task.core);
    requeue(shared, task);
}

/// Re-enqueues a task on its home queue, directly in front of the first
/// queued task of the same core: anything queued for this core was
/// enqueued later (higher seq), so this restores seq order among
/// same-core tasks. Cross-core order carries no semantics, so with no
/// same-core task queued it goes to the back — the home works through
/// other cores before coming back to the contended one.
fn requeue(shared: &FleetShared, task: Task) {
    let queue = &shared.queues[task.core.home];
    let mut tasks = queue.tasks.lock().expect("fleet queue poisoned");
    match tasks.iter().position(|t| Arc::ptr_eq(&t.core, &task.core)) {
        Some(pos) => tasks.insert(pos, task),
        None => tasks.push_back(task),
    }
    drop(tasks);
    queue.ready.notify_one();
}

//! The one client-side front-end both handles are made of.
//!
//! [`Engine`](crate::Engine) and [`AsyncEngine`](crate::AsyncEngine) are
//! each a [`Frontend`] plus what only that handle does. The front-end owns
//! everything between a client call and `ShardWorker::handle` except the
//! shard executors: the router, the per-shard pending buffers and the
//! batching law, barriers, checkpoint router pins, the error-surfacing
//! rule, intake-stall accounting, the metrics scrape, shutdown and crash.
//! The executors sit behind a [`Transport`] — [`Threads`] for the sync
//! engine, the fleet's `Cores` for async tenants. Both apply a shard's
//! commands in shipping order, so a call sequence yields the same
//! per-shard command streams (hence the same extents, bytes, stats and
//! ledgers) through either handle.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use realloc_common::{block_on, BoxedReallocator, Extent, ObjectId, Router};
use realloc_telemetry::{EventJournal, Histogram};
use workload_gen::Request;

use crate::async_facade::{Ack, Completer, Completion};
use crate::engine::{EngineConfig, EngineError};
use crate::metrics::{MetricsSnapshot, StealStats};
use crate::shard::{Command, ShardError, ShardFinal, ShardReply, ShardWorker};
use crate::stats::EngineStats;
use crate::substrate::{ShardBytes, SubstrateReport};

/// How shipped commands reach the shard state machines.
pub(crate) trait Transport {
    /// Hands `cmd` to `shard`'s executor behind everything shipped to it
    /// before. `done` drops once `cmd` has been applied, or with `cmd` if
    /// it never will be. Blocks while the shard's intake is full, timing
    /// the wait into `stall`. `Err` only ever means the shard is down.
    fn ship(
        &mut self,
        shard: usize,
        cmd: Command,
        done: Option<Completer>,
        stall: Option<&Histogram>,
    ) -> Result<(), EngineError>;

    /// Work-stealing counters (zero where nothing steals).
    fn steal(&self) -> StealStats {
        StealStats::default()
    }

    /// Releases the executors once everything shipped has been applied.
    fn close(&mut self) {}
}

/// One shard's batch under construction, plus the completion every ack
/// handed out against it shares (created by the first ack asked for).
#[derive(Default)]
struct Pending {
    reqs: Vec<Request>,
    done: Option<Completer>,
}

/// Router, batching, barriers and scrape over a shard [`Transport`].
pub(crate) struct Frontend<T> {
    /// The handle's configuration (`shards` reflects any resize).
    pub(crate) config: EngineConfig,
    pub(crate) router: Box<dyn Router>,
    pub(crate) transport: T,
    pending: Vec<Pending>,
    /// How long shipping blocked on each shard's full intake (empty with
    /// telemetry off).
    stalls: Vec<Histogram>,
    wal_dir: Option<PathBuf>,
    /// Rebalance/resize spans and recovery stages; scraped, never drained.
    pub(crate) events: EventJournal,
    scrapes: u64,
    last_metrics: Option<MetricsSnapshot>,
}

impl<T: Transport> Frontend<T> {
    /// Builds one worker per shard (journaling into `wal_dir`, with
    /// `recoveries` seeding each recovery counter) and hands them, with
    /// the intake depth, to `transport`.
    ///
    /// # Panics
    /// Panics if `config.shards` or `config.batch` is zero, or if the
    /// router targets a different shard count.
    pub(crate) fn build<F>(
        config: EngineConfig,
        router: Box<dyn Router>,
        mut factory: F,
        wal_dir: Option<PathBuf>,
        recoveries: u64,
        transport: impl FnOnce(Vec<ShardWorker>, usize) -> T,
    ) -> Result<Frontend<T>, EngineError>
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        assert!(config.shards > 0, "engine needs at least one shard");
        assert!(config.batch > 0, "batch size must be positive");
        assert_eq!(
            router.shards(),
            config.shards,
            "router and config disagree on the shard count"
        );
        let dir = wal_dir.as_deref();
        let workers = (0..config.shards)
            .map(|shard| ShardWorker::build(&config, shard, factory(shard), dir, recoveries))
            .collect::<Result<_, _>>()?;
        let mut front = Frontend {
            transport: transport(workers, config.queue_depth.max(1)),
            config,
            router,
            pending: Vec::new(),
            stalls: Vec::new(),
            wal_dir,
            events: EventJournal::new(512),
            scrapes: 0,
            last_metrics: None,
        };
        (0..config.shards).for_each(|_| front.add_pending());
        Ok(front)
    }

    fn add_pending(&mut self) {
        self.pending.push(Pending::default());
        if self.config.telemetry {
            self.stalls.push(Histogram::new());
        }
    }

    /// Live shard count (runs ahead of `config.shards` mid-resize).
    pub(crate) fn shards(&self) -> usize {
        self.pending.len()
    }

    pub(crate) fn wal_dir(&self) -> Option<&Path> {
        self.wal_dir.as_deref()
    }

    /// Ships `cmd` to `shard`, accounting any intake stall.
    pub(crate) fn ship(
        &mut self,
        shard: usize,
        cmd: Command,
        done: Option<Completer>,
    ) -> Result<(), EngineError> {
        self.transport
            .ship(shard, cmd, done, self.stalls.get(shard))
    }

    /// The completion shared by every request buffered on `shard` until
    /// its batch ships.
    pub(crate) fn batch_completion(&mut self, shard: usize) -> Arc<Completion> {
        let done = self.pending[shard].done.get_or_insert_with(Completer::new);
        done.completion()
    }

    /// Buffers `req` on `shard` (its route) under the batching law: a full
    /// buffer ships whole; otherwise the planned-flush watermark decides.
    /// Returns whether a batch shipped.
    pub(crate) fn enqueue(&mut self, shard: usize, req: Request) -> Result<bool, EngineError> {
        self.pending[shard].reqs.push(req);
        if self.pending[shard].reqs.len() >= self.config.batch {
            self.ship_pending(shard)?;
            return Ok(true);
        }
        self.plan_flush()
    }

    /// Planned flush scheduling across the whole pending set — the Bε-tree
    /// `plan_flush` idiom applied to shard buffers: nothing ships while
    /// total buffered work is below the watermark (half the fleet's batch
    /// capacity); past it, the *fullest* buffer ships whole, unless it
    /// holds less than half a batch. Skewed traffic thus stops hoarding its
    /// backlog until the full-batch fast path triggers, while uniform
    /// trickles still build usefully sized batches instead of degenerating
    /// to per-request sends.
    fn plan_flush(&mut self) -> Result<bool, EngineError> {
        let batch = self.config.batch;
        let total: usize = self.pending.iter().map(|p| p.reqs.len()).sum();
        if total < (self.shards() * batch / 2).max(1) {
            return Ok(false);
        }
        let lens = self.pending.iter().map(|p| p.reqs.len());
        let Some((shard, fullest)) = lens.enumerate().max_by_key(|&(_, len)| len) else {
            return Ok(false);
        };
        // The fast path has shipped every buffer that reached a batch.
        debug_assert!(fullest < batch, "a full buffer escaped the fast path");
        if fullest < batch / 2 {
            return Ok(false);
        }
        self.ship_pending(shard)?;
        Ok(true)
    }

    /// Ships `shard`'s buffer whole, with its completion if one was handed
    /// out.
    fn ship_pending(&mut self, shard: usize) -> Result<(), EngineError> {
        let fresh = Vec::with_capacity(self.config.batch);
        let reqs = std::mem::replace(&mut self.pending[shard].reqs, fresh);
        let done = self.pending[shard].done.take();
        self.ship(shard, Command::Batch(reqs), done)
    }

    /// Ships one shard's partially filled batch, if any.
    pub(crate) fn flush_shard(&mut self, shard: usize) -> Result<(), EngineError> {
        if self.pending[shard].reqs.is_empty() {
            return Ok(());
        }
        self.ship_pending(shard)
    }

    /// Ships every partially filled batch; reports the first shard found
    /// down, still flushing the others.
    pub(crate) fn flush(&mut self) -> Result<(), EngineError> {
        (0..self.shards())
            .map(|shard| self.flush_shard(shard))
            .fold(Ok(()), Result::and)
    }

    /// One fence per shard: the returned completion fires once everything
    /// shipped before it has been applied.
    pub(crate) fn fence(&mut self) -> Arc<Completion> {
        let done = Completer::new();
        for shard in 0..self.shards() {
            // A fence that cannot ship drops its share at once.
            let _ = self.ship(shard, Command::Fence, Some(done.clone()));
        }
        done.completion()
    }

    /// Ships a reply-carrying command to `shard`. One that cannot be
    /// shipped drops its reply sender, so the receiver reports the shard
    /// down instead.
    pub(crate) fn request<R>(
        &mut self,
        shard: usize,
        make: impl FnOnce(Sender<R>) -> Command,
        done: Option<Completer>,
    ) -> Receiver<R> {
        let (tx, rx) = mpsc::channel();
        let _ = self.ship(shard, make(tx), done);
        rx
    }

    /// Flushes, then ships one reply-carrying command per shard (`make`
    /// sees the shard index, for per-shard payloads like checkpoint pins),
    /// each holding a share of `done`. A shard too far gone to take its
    /// batch cannot take the command either; its receiver reports it.
    fn broadcast<R>(
        &mut self,
        mut make: impl FnMut(usize, Sender<R>) -> Command,
        done: Option<&Completer>,
    ) -> Vec<Receiver<R>> {
        let _ = self.flush();
        (0..self.shards())
            .map(|shard| self.request(shard, |reply| make(shard, reply), done.cloned()))
            .collect()
    }

    /// [`broadcast`](Self::broadcast), then await every reply.
    pub(crate) fn barrier<R>(
        &mut self,
        make: impl FnMut(usize, Sender<R>) -> Command,
    ) -> Result<Vec<R>, EngineError> {
        collect(self.broadcast(make, None))
    }

    /// Per-shard lists of the ids the routing table explicitly assigns
    /// (empty everywhere without a WAL — nothing would persist them). Sent
    /// with checkpoint barriers so each shard's checkpoint records which of
    /// its objects sit off the router's rendezvous fallback; recovery can
    /// then rebuild the assignment table from the shard files alone.
    fn router_pins(&self) -> Vec<Vec<ObjectId>> {
        let mut pins = vec![Vec::new(); self.shards()];
        if self.wal_dir.is_some() {
            for (id, shard) in self.router.assigned_ids() {
                if shard < pins.len() {
                    pins[shard].push(id);
                }
            }
        }
        pins
    }

    /// Ships the quiesce barrier (a WAL'd shard checkpoints, with its
    /// router pins), each command holding a share of `done`.
    pub(crate) fn start_quiesce(&mut self, done: Option<&Completer>) -> Vec<Receiver<ShardReply>> {
        let mut pins = self.router_pins();
        self.broadcast(
            |shard, reply| Command::Quiesce {
                reply,
                pins: std::mem::take(&mut pins[shard]),
            },
            done,
        )
    }

    pub(crate) fn quiesce(&mut self) -> Result<EngineStats, EngineError> {
        aggregate(collect(self.start_quiesce(None))?)
    }

    pub(crate) fn snapshot(&mut self) -> Result<EngineStats, EngineError> {
        aggregate(self.barrier(|_, reply| Command::Snapshot(reply))?)
    }

    pub(crate) fn extents(&mut self) -> Result<Vec<Vec<(ObjectId, Extent)>>, EngineError> {
        self.barrier(|_, reply| Command::Extents(reply))
    }

    pub(crate) fn verify_substrate(&mut self) -> Result<Vec<SubstrateReport>, EngineError> {
        if self.config.substrate.is_none() {
            return Ok(Vec::new());
        }
        let reports: Vec<SubstrateReport> = self
            .barrier(|_, reply| Command::VerifySubstrate(reply))?
            .into_iter()
            .flatten()
            .collect();
        surface(reports.iter().map(|r| (r.shard, &None, &r.error)))?;
        Ok(reports)
    }

    pub(crate) fn substrate_contents(&mut self) -> Result<Vec<ShardBytes>, EngineError> {
        self.barrier(|_, reply| Command::DumpSubstrate(reply))
    }

    /// The scrape (a barrier). Sticky errors do not surface here — a
    /// scrape must be able to observe a degraded fleet.
    pub(crate) fn metrics(&mut self) -> Result<MetricsSnapshot, EngineError> {
        let replies = self.barrier(|_, reply| Command::Metrics(reply))?;
        let (stats, per_shard) = replies
            .into_iter()
            .map(|(reply, mut metrics)| {
                if let Some(stall) = self.stalls.get(metrics.shard) {
                    metrics.intake_stall_ns = stall.snapshot();
                }
                (reply.stats, metrics)
            })
            .unzip();
        self.scrapes += 1;
        let snapshot = MetricsSnapshot {
            scrape: self.scrapes,
            device: self.config.device.filter(|_| self.config.telemetry),
            stats: EngineStats { per_shard: stats },
            per_shard,
            events: self.events.snapshot(),
            events_dropped: self.events.dropped(),
            steal: self.transport.steal(),
        };
        self.last_metrics = Some(snapshot.clone());
        Ok(snapshot)
    }

    pub(crate) fn metrics_delta(&mut self) -> Result<MetricsSnapshot, EngineError> {
        let prev = self.last_metrics.take();
        let current = self.metrics()?;
        Ok(match prev {
            Some(prev) => current.delta_since(&prev),
            None => current,
        })
    }

    /// Final barrier: every shard checkpoints (when WAL'd) and hands back
    /// its stats and ledger, then the transport closes. Shards a resize
    /// already `retired` follow the live ones into the error surfacing.
    pub(crate) fn shutdown(
        &mut self,
        retired: Vec<ShardFinal>,
    ) -> Result<Vec<ShardFinal>, EngineError> {
        let mut pins = self.router_pins();
        let mut finals = self.barrier(|shard, reply| Command::Finish {
            reply,
            pins: std::mem::take(&mut pins[shard]),
        })?;
        self.transport.close();
        finals.extend(retired);
        let sticky = finals.iter();
        surface(sticky.map(|f| (f.stats.shard, &f.first_error, &f.first_substrate_error)))?;
        Ok(finals)
    }

    /// Simulated `kill -9`: partially filled batches drop unsent
    /// (resolving their acks), everything already shipped is applied, and
    /// nothing else happens — no quiesce, no checkpoint, no truncation —
    /// so the WAL'd crash point is exact.
    pub(crate) fn crash(&mut self) {
        for pending in &mut self.pending {
            *pending = Pending::default();
        }
        block_on(Ack(self.fence()));
        self.transport.close();
    }
}

impl Frontend<Threads> {
    /// Starts one more shard (a growing resize).
    pub(crate) fn add_shard(&mut self, worker: ShardWorker) {
        self.transport.spawn(worker);
        self.add_pending();
    }

    /// Retires the highest shard (a shrinking resize), returning its
    /// final stats and ledger.
    pub(crate) fn retire_shard(&mut self) -> Result<ShardFinal, EngineError> {
        let shard = self.shards() - 1;
        // A retired shard is drained, so its closing checkpoint pins
        // nothing and records an empty layout.
        let finish = |reply| Command::Finish {
            reply,
            pins: Vec::new(),
        };
        let rx = self.request(shard, finish, None);
        let fin = reply(shard, rx)?;
        self.transport.retire();
        self.stalls.truncate(shard);
        let leftover = self.pending.pop();
        debug_assert!(leftover.is_none_or(|p| p.reqs.is_empty()));
        Ok(fin)
    }
}

/// Awaits `shard`'s reply.
pub(crate) fn reply<R>(shard: usize, rx: Receiver<R>) -> Result<R, EngineError> {
    rx.recv().map_err(|_| EngineError::ShardDown { shard })
}

/// Awaits one reply per shard, in shard order.
pub(crate) fn collect<R>(replies: Vec<Receiver<R>>) -> Result<Vec<R>, EngineError> {
    let replies = replies.into_iter().enumerate();
    replies.map(|(shard, rx)| reply(shard, rx)).collect()
}

/// Aggregates barrier replies into [`EngineStats`], surfacing errors.
pub(crate) fn aggregate(replies: Vec<ShardReply>) -> Result<EngineStats, EngineError> {
    let sticky = replies.iter();
    surface(sticky.map(|r| (r.stats.shard, &r.first_error, &r.first_substrate_error)))?;
    let per_shard = replies.into_iter().map(|r| r.stats).collect();
    Ok(EngineStats { per_shard })
}

/// The error-surfacing rule every barrier shares, over `(shard, first
/// rejected request, first substrate failure)`: the lowest-numbered
/// shard's rejection wins; failing that, the lowest-numbered shard's
/// substrate failure. Integrity failures rank below rejections only
/// because both are sticky — whichever exists keeps surfacing until
/// shutdown.
fn surface<'a, I>(mut sticky: I) -> Result<(), EngineError>
where
    I: Iterator<Item = (usize, &'a Option<ShardError>, &'a Option<String>)> + Clone,
{
    let rejected = sticky.clone().find_map(|(shard, first, _)| {
        first.map(|ShardError { index, error }| EngineError::Request {
            shard,
            index,
            error,
        })
    });
    let damaged = || {
        sticky.find_map(|(shard, _, detail)| {
            let detail = detail.clone()?;
            Some(EngineError::Substrate { shard, detail })
        })
    };
    rejected.or_else(damaged).map_or(Ok(()), Err)
}

/// Readies a fresh handle's write-ahead-log directory: creates it and
/// removes stale `*.wal`/`*.ckpt` files — a fresh handle's history starts
/// now (resuming from existing logs is
/// [`Engine::recover`](crate::Engine::recover)'s job).
pub(crate) fn prepare_wal_dir(dir: &Path) -> Result<PathBuf, EngineError> {
    let wal_err = |what: &str, path: &Path, e: std::io::Error| EngineError::Wal {
        detail: format!("{what} {}: {e}", path.display()),
    };
    std::fs::create_dir_all(dir).map_err(|e| wal_err("create", dir, e))?;
    let entries = std::fs::read_dir(dir).map_err(|e| wal_err("scan", dir, e))?;
    for path in entries.flatten().map(|entry| entry.path()) {
        if path.extension().is_some_and(|e| e == "wal" || e == "ckpt") {
            std::fs::remove_file(&path).map_err(|e| wal_err("remove stale", &path, e))?;
        }
    }
    Ok(dir.to_path_buf())
}

/// The dedicated-thread transport behind [`Engine`](crate::Engine): one
/// thread per shard, fed through a bounded channel of `depth` commands.
pub(crate) struct Threads {
    depth: usize,
    senders: Vec<SyncSender<(Command, Option<Completer>)>>,
    workers: Vec<JoinHandle<()>>,
}

impl Threads {
    pub(crate) fn new(workers: Vec<ShardWorker>, depth: usize) -> Threads {
        let mut threads = Threads {
            depth,
            senders: Vec::new(),
            workers: Vec::new(),
        };
        workers.into_iter().for_each(|worker| threads.spawn(worker));
        threads
    }

    /// Starts the next shard's thread.
    fn spawn(&mut self, mut worker: ShardWorker) {
        let (tx, rx) = mpsc::sync_channel(self.depth);
        let handle = std::thread::Builder::new()
            .name(format!("realloc-shard-{}", self.senders.len()))
            .spawn(move || {
                // Each command's completion share drops after it is applied.
                for (cmd, _done) in rx {
                    if worker.handle(cmd) {
                        return;
                    }
                }
            })
            .expect("spawn shard worker");
        self.senders.push(tx);
        self.workers.push(handle);
    }

    /// Joins the highest shard's thread (after its `Finish`).
    fn retire(&mut self) {
        self.senders.pop();
        if let Some(worker) = self.workers.pop() {
            let _ = worker.join();
        }
    }
}

impl Transport for Threads {
    fn ship(
        &mut self,
        shard: usize,
        cmd: Command,
        done: Option<Completer>,
        stall: Option<&Histogram>,
    ) -> Result<(), EngineError> {
        // Fast path first: only a ship that finds the queue full pays a
        // clock read, so stall count == number of blocked ships.
        let msg = match self.senders[shard].try_send((cmd, done)) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Full(msg)) => msg,
            Err(TrySendError::Disconnected(_)) => return Err(EngineError::ShardDown { shard }),
        };
        let started = stall.map(|_| Instant::now());
        let sent = self.senders[shard].send(msg);
        if let (Some(stall), Some(started)) = (stall, started) {
            stall.record(started.elapsed().as_nanos() as u64);
        }
        sent.map_err(|_| EngineError::ShardDown { shard })
    }

    fn close(&mut self) {
        // Disconnected channels let the workers fall out of their loops
        // once drained.
        self.senders.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        self.close();
    }
}

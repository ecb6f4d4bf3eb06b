//! How an [`Engine`] ships work to its shards, whichever [`Transport`]
//! carries it.
//!
//! The shipping half of the handle is written here once, as
//! crate-private methods on `Engine<T>`: the per-shard pending buffers and
//! the batching law, fences and barriers, checkpoint router pins and the
//! error-surfacing rule every barrier shares. The executors sit behind a
//! [`Transport`] — [`Threads`] for the sync handle, the fleet's
//! [`Cores`](crate::fleet::Cores) for async tenants. Both apply a shard's
//! commands in shipping order, so a call sequence yields the same
//! per-shard command streams (hence the same extents, bytes, stats and
//! ledgers) over either transport.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use realloc_common::ObjectId;
use realloc_telemetry::Histogram;
use workload_gen::Request;

use crate::async_facade::{Completer, Completion};
use crate::engine::{Engine, EngineError};
use crate::shard::{Command, ShardError, ShardFinal, ShardReply, ShardWorker};
use crate::stats::EngineStats;

/// The crate-private half of [`Transport`], which seals it.
pub(crate) mod sealed {
    use realloc_telemetry::Histogram;

    use super::Shipment;
    use crate::engine::EngineError;
    use crate::metrics::StealStats;

    /// How shipped commands reach the shard state machines.
    pub trait Ship {
        /// Hands the shipment to `shard`'s executor behind everything
        /// shipped to it before. Its completion share drops once the
        /// command has been applied, or with the command if it never will
        /// be. Blocks while the shard's intake is full, timing the wait
        /// into `stall`. `Err` only ever means the shard is down.
        fn ship(
            &mut self,
            shard: usize,
            shipment: Shipment,
            stall: Option<&Histogram>,
        ) -> Result<(), EngineError>;

        /// Work-stealing counters (zero where nothing steals).
        fn steal(&self) -> StealStats {
            StealStats::default()
        }

        /// Releases the executors once everything shipped has been applied.
        fn close(&mut self) {}
    }
}

/// How an [`Engine`] reaches its shards: [`Threads`] (one dedicated
/// thread per shard, the sync handle) or the fleet's
/// [`Cores`](crate::fleet::Cores) (async tenants). Sealed — this crate's
/// two transports are the only ones.
pub trait Transport: sealed::Ship {}

impl Transport for Threads {}

/// A command bound for one shard, with the completion share it carries
/// (fields drop in order, so an unapplied command hangs up its reply
/// channel before its completion can fire). Opaque outside this crate.
pub struct Shipment {
    pub(crate) cmd: Command,
    pub(crate) done: Option<Completer>,
}

/// One shard's batch under construction, plus the completion every ack
/// handed out against it shares (created by the first ack asked for).
#[derive(Default)]
pub(crate) struct Pending {
    reqs: Vec<Request>,
    done: Option<Completer>,
}

impl<T: Transport> Engine<T> {
    /// Opens one more shard's pending buffer (and stall histogram).
    pub(crate) fn add_pending(&mut self) {
        self.pending.push(Pending::default());
        if self.config.telemetry {
            self.stalls.push(Histogram::new());
        }
    }

    /// Ships `cmd` to `shard`, accounting any intake stall.
    pub(crate) fn ship(
        &mut self,
        shard: usize,
        cmd: Command,
        done: Option<Completer>,
    ) -> Result<(), EngineError> {
        let shipment = Shipment { cmd, done };
        self.transport.ship(shard, shipment, self.stalls.get(shard))
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
        if total < (self.pending.len() * batch / 2).max(1) {
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

    /// Ships every partially filled batch ahead of a barrier or fence. A
    /// shard too far gone to take its batch cannot take what follows
    /// either, and that is where it gets reported.
    pub(crate) fn ship_buffers(&mut self) {
        for shard in 0..self.pending.len() {
            let _ = self.flush_shard(shard);
        }
    }

    /// One fence per shard: the returned completion fires once everything
    /// shipped before it has been applied.
    pub(crate) fn fence(&mut self) -> Arc<Completion> {
        let done = Completer::new();
        for shard in 0..self.pending.len() {
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

    /// Ships the pending buffers, then one reply-carrying command per
    /// shard (`make` sees the shard index, for per-shard payloads like
    /// checkpoint pins), each holding a share of `done`. A shard that is
    /// down reports it through its receiver.
    fn broadcast<R>(
        &mut self,
        mut make: impl FnMut(usize, Sender<R>) -> Command,
        done: Option<&Completer>,
    ) -> Vec<Receiver<R>> {
        self.ship_buffers();
        (0..self.pending.len())
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
    pub(crate) fn router_pins(&self) -> Vec<Vec<ObjectId>> {
        let mut pins = vec![Vec::new(); self.pending.len()];
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
}

impl Engine<Threads> {
    /// Retires the highest shard (a shrinking resize), returning its
    /// final stats and ledger.
    pub(crate) fn retire_shard(&mut self) -> Result<ShardFinal, EngineError> {
        let shard = self.pending.len() - 1;
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
pub(crate) fn surface<'a, I>(mut sticky: I) -> Result<(), EngineError>
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

/// The dedicated-thread transport behind the sync [`Engine`]: one thread
/// per shard, fed through a bounded channel of `depth` commands.
pub struct Threads {
    depth: usize,
    senders: Vec<SyncSender<Shipment>>,
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
    pub(crate) fn spawn(&mut self, mut worker: ShardWorker) {
        let (tx, rx) = mpsc::sync_channel(self.depth);
        let handle = std::thread::Builder::new()
            .name(format!("realloc-shard-{}", self.senders.len()))
            .spawn(move || {
                // Each command's completion share drops after it is applied.
                for Shipment { cmd, done: _done } in rx {
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
    pub(crate) fn retire(&mut self) {
        self.senders.pop();
        if let Some(worker) = self.workers.pop() {
            let _ = worker.join();
        }
    }
}

impl sealed::Ship for Threads {
    fn ship(
        &mut self,
        shard: usize,
        shipment: Shipment,
        stall: Option<&Histogram>,
    ) -> Result<(), EngineError> {
        // Fast path first: only a ship that finds the queue full pays a
        // clock read, so stall count == number of blocked ships.
        let shipment = match self.senders[shard].try_send(shipment) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Full(shipment)) => shipment,
            Err(TrySendError::Disconnected(_)) => return Err(EngineError::ShardDown { shard }),
        };
        let started = stall.map(|_| Instant::now());
        let sent = self.senders[shard].send(shipment);
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
        sealed::Ship::close(self);
    }
}

//! The shard worker: one reallocator, one ledger.
//!
//! A worker applies the commands its engine ships, in order — on a
//! dedicated thread behind a channel (the sync engine) or on whichever
//! fleet worker runs its core (a fleet tenant). `Command::Batch` carries
//! a run of requests (the engine batches to amortize shipping
//! overhead); the other commands are *barriers* — the engine ships
//! them after flushing its pending batches, so by the time a reply
//! arrives every earlier request has been served. Workers never panic on
//! bad requests: a rejected insert/delete is counted, remembered (first
//! occurrence), and serving continues, mirroring how a real service would
//! 400 one request without tearing down the shard.
//!
//! The migration commands (`Command::MigrateOut` / `Command::MigrateIn`)
//! are the shard half of the engine's cross-shard rebalance protocol. In
//! barrier mode they arrive at a quiesce barrier; in online mode they arrive
//! in the ordinary command stream, where channel FIFO order *is* the freeze:
//! every request enqueued before the migrate-out is served before the object
//! leaves. Either way a migrate-out drains the reallocator before replying,
//! so the object is fully gone from this shard before the engine re-inserts
//! it elsewhere (no instant at which one id is live on two shards).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::mpsc::Sender;

use realloc_common::{
    Extent, Ledger, ObjectId, OpKind, OpRecord, Outcome, ReallocError, Reallocator, StorageOp,
};
use storage_sim::wal::{checkpoint_path, read_checkpoint, wal_path, write_checkpoint};
use storage_sim::{pattern_digest, Checkpoint, CheckpointEntry, WalRecord, WalWriter};
use workload_gen::Request;

use crate::metrics::{ShardMetrics, ShardTelemetry, SimLane};
use crate::plan::BatchPlan;
use crate::rebalance::DefragSummary;
use crate::stats::ShardStats;
use crate::substrate::{ShardSubstrate, SubstrateReport, Transfer, TransferPayload};

/// One shard's durability state: the write-ahead log appender plus the
/// path of the checkpoint file that truncates it. Owned by the worker
/// thread — journaling happens where the ops are applied, so the log's
/// record order is exactly the shard's apply order.
pub(crate) struct ShardJournal {
    pub writer: WalWriter,
    pub ckpt: PathBuf,
}

impl ShardJournal {
    /// Opens shard `shard`'s log under `dir`, resuming at the epoch of its
    /// current checkpoint (0 when none exists — a fresh shard).
    pub(crate) fn open(dir: &Path, shard: usize) -> std::io::Result<ShardJournal> {
        let ckpt = checkpoint_path(dir, shard);
        let epoch = read_checkpoint(&ckpt)?.map_or(0, |c| c.epoch);
        let writer = WalWriter::open(&wal_path(dir, shard), epoch)?;
        Ok(ShardJournal { writer, ckpt })
    }
}

/// The first request a shard's reallocator rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the request in the shard's own stream (0-based). Migration
    /// failures (which are not client requests) reuse the index of the next
    /// client request.
    pub index: u64,
    /// The rejection.
    pub error: ReallocError,
}

/// Barrier reply: a stats snapshot plus any remembered errors.
#[derive(Debug, Clone)]
pub(crate) struct ShardReply {
    pub stats: ShardStats,
    pub first_error: Option<ShardError>,
    /// First substrate rule/verification failure (sticky, like
    /// `first_error`): a write that violated the store's rules, or a
    /// cadence-triggered scan that found a divergence or damaged bytes.
    pub first_substrate_error: Option<String>,
}

/// Everything a shard hands back when the engine shuts it down.
#[derive(Debug, Clone)]
pub struct ShardFinal {
    /// Final stats snapshot.
    pub stats: ShardStats,
    /// The shard's cost ledger, priceable post hoc under any cost function
    /// (the whole point of cost obliviousness). It carries the per-request
    /// history only under
    /// [`EngineConfig::ledger_history`](crate::EngineConfig::ledger_history).
    pub ledger: Ledger,
    /// First rejected request, if any.
    pub first_error: Option<ShardError>,
    /// First substrate rule/verification failure, if any (always `None`
    /// without a substrate; the final scan runs at every cadence).
    pub first_substrate_error: Option<String>,
}

/// What an engine ships to a shard.
pub(crate) enum Command {
    /// Serve a run of requests in order.
    Batch(Vec<Request>),
    /// A pure ordering barrier: touches no shard state; its completion
    /// fires only after everything shipped before it has been applied.
    Fence,
    /// Complete deferred work (`Reallocator::quiesce`), then reply. A
    /// WAL'd shard also writes a checkpoint (live extents + the `pins` —
    /// the ids the routing table explicitly assigns to this shard, so the
    /// tiny assignment table rides inside the shard checkpoints) and
    /// truncates its log before replying.
    Quiesce {
        /// Barrier reply.
        reply: Sender<ShardReply>,
        /// Ids the router assigns to this shard off the rendezvous
        /// fallback (always empty without a WAL — nothing persists them).
        pins: Vec<ObjectId>,
    },
    /// Reply with current stats (no state change).
    Snapshot(Sender<ShardReply>),
    /// Reply with current stats plus the telemetry snapshot (histograms and
    /// sim-time accumulators). Unlike the other stats barriers, the caller
    /// does **not** surface sticky errors from this reply — a metrics
    /// scrape observes a degraded fleet instead of failing on it.
    Metrics(Sender<(ShardReply, ShardMetrics)>),
    /// Reply with the placements of all live objects, sorted by id.
    Extents(Sender<Vec<(ObjectId, Extent)>>),
    /// Rebalance protocol, outbound half: delete `ids` (they are being
    /// re-homed, not destroyed — ledgered as `MigrateOut`), then reply with
    /// the `(id, size)` of every object actually released. Per-object acks
    /// let the engine skip the inbound half for anything a broken
    /// reallocator refused to give up, and the acked *size* (not the
    /// planner's snapshot) is what the target shard inserts — so a
    /// delete + re-insert that changed an object's size between planning
    /// and execution (possible in online mode, where serving continues)
    /// cannot corrupt the transfer. Ids this shard no longer considers live are
    /// skipped silently: under a quiesce barrier that cannot happen, but an
    /// online rebalance races ordinary deletes, and a legitimately deleted
    /// object is not an error.
    MigrateOut {
        /// Objects leaving this shard, each with the globally unique
        /// transfer sequence number the engine assigned (journaled on both
        /// ends so recovery can pair a transfer's halves).
        ids: Vec<(ObjectId, u64)>,
        /// Barrier reply: shard state plus the released transfers (each an
        /// `(id, size)` ack, carrying the object's physical bytes and their
        /// checksum when this shard is substrate-backed).
        reply: Sender<(ShardReply, Vec<Transfer>)>,
    },
    /// Rebalance protocol, inbound half: insert `objects` (ledgered as
    /// `MigrateIn`; the transfer itself is priced as a reallocation), then
    /// reply with the ids actually adopted. A substrate-backed shard
    /// verifies each transfer's bytes against its shipped checksum *before*
    /// inserting; a damaged payload is refused
    /// ([`ReallocError::CorruptTransfer`]) so the ack fails and the engine's
    /// abort-after-pin machinery keeps routing consistent.
    MigrateIn {
        /// The arriving objects.
        objects: Vec<Transfer>,
        /// Barrier reply: shard state plus the adopted ids.
        reply: Sender<(ShardReply, Vec<ObjectId>)>,
    },
    /// Compute the Theorem 2.7 defrag schedule over this shard's live
    /// objects (sorted by id) at slack `eps`, ledger its moves, reply with
    /// the space/movement summary.
    Defrag {
        /// Footprint slack `ε` for the defragmenter (`0 < ε ≤ 1/2`).
        eps: f64,
        /// Summary reply.
        reply: Sender<DefragSummary>,
    },
    /// Run the full substrate verification scan now, regardless of the
    /// configured cadence, and reply with the summary (`None` when this
    /// shard has no substrate).
    VerifySubstrate(Sender<Option<SubstrateReport>>),
    /// Reply with every live object's physical bytes from the substrate,
    /// sorted by id (shards without a substrate reply with an empty list).
    /// A debugging/testing barrier — `O(V)`.
    DumpSubstrate(Sender<crate::ShardBytes>),
    /// Fault injection (testing): flip one byte of the lowest-id live
    /// object's substrate cells, checksum left intact, and reply with the
    /// damaged id (`None` without a substrate or live objects). The next
    /// verification scan must fail — and stay failed, since integrity
    /// violations are sticky.
    CorruptSubstrate(Sender<Option<ObjectId>>),
    /// Final barrier: reply with stats + ledger and exit the thread. Like
    /// `Quiesce`, a WAL'd shard checkpoints (with the same router `pins`)
    /// before replying, so a cleanly shut down fleet recovers from its
    /// checkpoints alone.
    Finish {
        /// Final reply.
        reply: Sender<ShardFinal>,
        /// Ids the router assigns to this shard (empty without a WAL).
        pins: Vec<ObjectId>,
    },
}

/// Worker-thread state. The reallocator is the shard's only object index:
/// liveness, placements and the gauges in [`ShardStats`] are read from it,
/// and the worker's own counters are kept in the `stats` it reports.
pub(crate) struct ShardWorker {
    realloc: Box<dyn Reallocator + Send>,
    /// The optional byte-carrying substrate this shard replays into (see
    /// [`crate::substrate`]); `None` keeps the accounting-only fast path.
    substrate: Option<ShardSubstrate>,
    /// The optional write-ahead log this shard journals into. Records are
    /// buffered per command and written as one group commit at the command
    /// boundary — always *before* a barrier reply, so an acked command is
    /// a durable command.
    journal: Option<ShardJournal>,
    /// First substrate failure, sticky like `first_error`.
    first_substrate_error: Option<String>,
    /// Telemetry recording (histograms, sim-time pricing); `None` when the
    /// engine runs with telemetry off — every hook below degrades to a
    /// single `Option` check.
    telemetry: Option<ShardTelemetry>,
    /// Fold every batch through the coalescing planner
    /// ([`crate::plan::BatchPlan`]) before touching the reallocator.
    coalesce: bool,
    ledger: Ledger,
    first_error: Option<ShardError>,
    /// The counters this worker keeps (requests, moves, migrations, the
    /// settled-ratio high-water mark, …); [`ShardWorker::snapshot`] fills
    /// in the gauges and the substrate and WAL counters around them.
    stats: ShardStats,
}

impl ShardWorker {
    /// Builds a worker from the handle's configuration — the one wiring
    /// point for substrate, journal, and telemetry setup, so the sync
    /// engine's threads and the fleet's cores run identical workers.
    pub(crate) fn build(
        config: &crate::EngineConfig,
        shard: usize,
        realloc: Box<dyn Reallocator + Send>,
        wal_dir: Option<&Path>,
        recoveries: u64,
    ) -> Result<ShardWorker, crate::EngineError> {
        let journal = wal_dir
            .map(|dir| ShardJournal::open(dir, shard))
            .transpose()
            .map_err(|e| crate::EngineError::Wal {
                detail: format!("open shard {shard} journal: {e}"),
            })?;
        Ok(ShardWorker {
            stats: ShardStats {
                shard,
                algorithm: realloc.name(),
                recoveries,
                ..ShardStats::default()
            },
            realloc,
            substrate: config.substrate.map(|s| s.build(shard)),
            journal,
            first_substrate_error: None,
            telemetry: config.telemetry.then(|| ShardTelemetry::new(config.device)),
            coalesce: config.coalesce,
            ledger: if config.ledger_history {
                Ledger::with_history()
            } else {
                Ledger::new()
            },
            first_error: None,
        })
    }

    /// Applies one command against this worker's state — the single entry
    /// point both a dedicated shard thread and a fleet worker (possibly a
    /// *thief* applying a stolen batch) use, so stealing can never change
    /// what a command does, only where it runs.
    /// Returns `true` once [`Command::Finish`] has been served; the worker
    /// must not be handed further commands after that.
    pub(crate) fn handle(&mut self, cmd: Command) -> bool {
        {
            match cmd {
                Command::Batch(reqs) => {
                    self.stats.batches += 1;
                    let started = self.telemetry.as_mut().map(|t| {
                        t.batch_sim_accum = 0.0;
                        std::time::Instant::now()
                    });
                    let raw = reqs.len() as u64;
                    let applied = if self.coalesce {
                        self.serve_planned(reqs)
                    } else {
                        for req in reqs {
                            self.serve(req);
                        }
                        raw
                    };
                    if self
                        .substrate
                        .as_ref()
                        .is_some_and(|s| s.cadence().at_batches())
                    {
                        self.verify_substrate();
                    }
                    // Group commit: the whole batch's records become one
                    // durable frame — one fsync per batch, not per op.
                    self.wal_commit();
                    if let (Some(t), Some(start)) = (self.telemetry.as_mut(), started) {
                        t.batch_raw_requests.record(raw);
                        t.batch_planned_requests.record(applied);
                        t.batch_service_ns.record(start.elapsed().as_nanos() as u64);
                        if t.device.is_some() {
                            t.batch_sim_us.record(t.batch_sim_accum.round() as u64);
                        }
                    }
                }
                Command::Fence => {}
                Command::Quiesce { reply, pins } => {
                    let outcome = self.realloc.quiesce();
                    self.absorb(&outcome, SimLane::Serve);
                    self.ledger_drain(&outcome);
                    self.verify_substrate_at_barrier();
                    self.wal_checkpoint(&pins);
                    let _ = reply.send(self.reply());
                }
                Command::Snapshot(reply) => {
                    self.verify_substrate_at_barrier();
                    let _ = reply.send(self.reply());
                }
                Command::Metrics(reply) => {
                    let _ = reply.send((self.reply(), self.metrics()));
                }
                Command::Extents(reply) => {
                    let _ = reply.send(self.live_extents());
                }
                Command::MigrateOut { ids, reply } => {
                    let mut released = Vec::with_capacity(ids.len());
                    for (id, xfer) in ids {
                        if self.realloc.extent_of(id).is_none() {
                            // Deleted by serving traffic since the plan was
                            // drawn (online mode only) — nothing to re-home.
                            continue;
                        }
                        if let Some(transfer) = self.migrate_out(id, xfer) {
                            released.push(transfer);
                        }
                    }
                    // Ordered commit, source half: the `MigrateOut` records
                    // are durable *before* the ack reaches the engine, so
                    // no transfer can arrive anywhere whose departure a
                    // crash could un-write.
                    self.wal_commit();
                    let _ = reply.send((self.reply(), released));
                }
                Command::MigrateIn { objects, reply } => {
                    let mut adopted = Vec::with_capacity(objects.len());
                    for transfer in objects {
                        let id = transfer.id;
                        if self.migrate_in(transfer) {
                            adopted.push(id);
                        }
                    }
                    // Ordered commit, target half: `MigrateIn` and its
                    // `RouteFlip` share this frame, so a recovered fleet
                    // never sees an adopted object without its flip (or
                    // vice versa) — the id is live on exactly one shard
                    // after replay, whichever instant the crash hit.
                    self.wal_commit();
                    let _ = reply.send((self.reply(), adopted));
                }
                Command::Defrag { eps, reply } => {
                    let _ = reply.send(self.defrag(eps));
                }
                Command::VerifySubstrate(reply) => {
                    let _ = reply.send(self.substrate_report());
                }
                Command::DumpSubstrate(reply) => {
                    let dump = self
                        .substrate
                        .as_ref()
                        .map(|s| s.contents())
                        .unwrap_or_default();
                    let _ = reply.send(dump);
                }
                Command::CorruptSubstrate(reply) => {
                    let _ = reply.send(
                        self.substrate
                            .as_mut()
                            .and_then(|s| s.corrupt_first_object()),
                    );
                }
                Command::Finish { reply, pins } => {
                    // The final scan runs at every cadence (including
                    // `Final`, whose whole point it is).
                    if self.substrate.is_some() {
                        self.verify_substrate();
                    }
                    self.wal_checkpoint(&pins);
                    let _ = reply.send(ShardFinal {
                        stats: self.snapshot(),
                        ledger: std::mem::take(&mut self.ledger),
                        first_error: self.first_error,
                        first_substrate_error: self.first_substrate_error.clone(),
                    });
                    return true;
                }
            }
        }
        false
    }

    /// Runs the full substrate scan if the cadence includes barriers.
    fn verify_substrate_at_barrier(&mut self) {
        if self
            .substrate
            .as_ref()
            .is_some_and(|s| s.cadence().at_barriers())
        {
            self.verify_substrate();
        }
    }

    /// Runs the full substrate scan, remembering the first failure.
    fn verify_substrate(&mut self) {
        let Some(substrate) = self.substrate.as_mut() else {
            return;
        };
        let realloc = &*self.realloc;
        if let Err(e) = substrate.verify(|id| realloc.extent_of(id), realloc.live_count()) {
            self.first_substrate_error.get_or_insert(e.to_string());
        }
    }

    /// The explicit-verification barrier's summary (always scans).
    fn substrate_report(&mut self) -> Option<SubstrateReport> {
        let window = self.substrate.as_ref()?.window();
        self.verify_substrate();
        Some(SubstrateReport {
            shard: self.stats.shard,
            window,
            objects: self.realloc.live_count(),
            bytes: self.realloc.live_volume(),
            error: self.first_substrate_error.clone(),
        })
    }

    /// Counts an outcome's moves *and* replays its physical ops into the
    /// substrate (when one is configured). Every serving-path outcome goes
    /// through here; the one exception is a migrate-in, whose arrival
    /// `Allocate` must write the transferred bytes rather than a fresh
    /// pattern (see [`ShardWorker::migrate_in`]).
    ///
    /// `lane` attributes the outcome's physical ops to the serving or
    /// migration side of the simulated-device clock (a no-op without a
    /// configured [`DeviceProfile`](crate::DeviceProfile)).
    fn absorb(&mut self, outcome: &Outcome, lane: SimLane) {
        self.note_moves(outcome);
        self.journal_ops(&outcome.ops);
        self.replay_ops(&outcome.ops);
        if let Some(t) = self.telemetry.as_mut() {
            t.price_ops(&outcome.ops, lane);
        }
    }

    /// Appends one WAL record per physical op to the journal's pending
    /// buffer. Nothing hits disk here — the records become durable at the
    /// next [`ShardWorker::wal_commit`] (a batch boundary or a barrier),
    /// which is what makes the append a *group* commit.
    ///
    /// The log stores digests, not payloads: a live object's bytes are
    /// always `pattern_for(id, len)` (allocations write the pattern, moves
    /// and transfers preserve it byte-for-byte), so recovery can regenerate
    /// content and prove it against the journaled digest.
    fn journal_ops(&mut self, ops: &[StorageOp]) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        for op in ops {
            match *op {
                StorageOp::Allocate { id, to } => journal.writer.append(WalRecord::Allocate {
                    id,
                    offset: to.offset,
                    len: to.len,
                    digest: pattern_digest(id, to.len),
                }),
                StorageOp::Move { id, from, to } => journal.writer.append(WalRecord::Move {
                    id,
                    from: from.offset,
                    to: to.offset,
                    len: to.len,
                }),
                StorageOp::Free { id, at } => journal.writer.append(WalRecord::Free {
                    id,
                    offset: at.offset,
                    len: at.len,
                }),
                StorageOp::CheckpointBarrier => {}
            }
        }
    }

    /// Flushes the journal's pending records as one checksummed frame (the
    /// group commit). A write failure is sticky, surfacing through the same
    /// channel as substrate violations — a shard that cannot promise
    /// durability must not keep acking as if it could.
    fn wal_commit(&mut self) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        let pending = journal.writer.pending_records() as u64;
        let started = std::time::Instant::now();
        match journal.writer.commit() {
            Ok(frame_bytes) => {
                // Empty commits write no frame and pay no device time; only
                // real group commits count toward the commit histograms.
                if frame_bytes > 0 {
                    if let Some(t) = self.telemetry.as_mut() {
                        t.commit_records.record(pending);
                        t.commit_latency_ns
                            .record(started.elapsed().as_nanos() as u64);
                        if let Some(device) = t.device.as_ref() {
                            t.wal_commit_sim_us += device.time_of_commit(frame_bytes);
                        }
                    }
                }
            }
            Err(e) => {
                self.first_substrate_error
                    .get_or_insert(format!("wal commit: {e}"));
            }
        }
    }

    /// Checkpoint-then-truncate: persists the full live layout (plus which
    /// ids the router explicitly pins here) at `epoch + 1`, then discards
    /// the log prefix that checkpoint subsumes. The order is crash-safe —
    /// a kill between the atomic checkpoint rename and the truncate leaves
    /// stale frames whose epoch predates the checkpoint, and replay skips
    /// them.
    fn wal_checkpoint(&mut self, pins: &[ObjectId]) {
        if self.journal.is_none() {
            return;
        }
        self.wal_commit();
        let pinned: HashSet<ObjectId> = pins.iter().copied().collect();
        let entries = self
            .live_extents()
            .into_iter()
            .map(|(id, e)| CheckpointEntry {
                id,
                offset: e.offset,
                len: e.len,
                digest: pattern_digest(id, e.len),
                assigned: pinned.contains(&id),
            })
            .collect();
        let journal = self.journal.as_mut().expect("checked above");
        let epoch = journal.writer.epoch() + 1;
        let result = write_checkpoint(&journal.ckpt, &Checkpoint { epoch, entries })
            .and_then(|()| journal.writer.truncate_to_epoch(epoch));
        if let Err(e) = result {
            self.first_substrate_error
                .get_or_insert(format!("wal checkpoint: {e}"));
        }
    }

    /// Journals a migrate-in outcome: the arriving object's `Allocate`
    /// becomes a `MigrateIn` carrying the payload's checksum and the
    /// transfer's sequence number, and the record is chased by a
    /// `RouteFlip` in the *same* pending group — so the two are committed
    /// (and survive a crash) atomically. Side-effect ops from the insert
    /// (flush moves) journal normally.
    fn journal_arrival(
        &mut self,
        ops: &[StorageOp],
        arriving: ObjectId,
        payload: Option<&TransferPayload>,
        xfer: u64,
    ) {
        if self.journal.is_none() {
            return;
        }
        for op in ops {
            match *op {
                StorageOp::Allocate { id, to } if id == arriving => {
                    let digest = payload.map_or_else(|| pattern_digest(id, to.len), |p| p.checksum);
                    self.journal.as_mut().expect("checked above").writer.append(
                        WalRecord::MigrateIn {
                            id,
                            offset: to.offset,
                            len: to.len,
                            digest,
                            xfer,
                        },
                    );
                }
                _ => self.journal_ops(std::slice::from_ref(op)),
            }
        }
        self.journal
            .as_mut()
            .expect("checked above")
            .writer
            .append(WalRecord::RouteFlip {
                id: arriving,
                shard: self.stats.shard as u64,
                xfer,
            });
    }

    /// Replays physical ops into the substrate, remembering the first
    /// violation.
    fn replay_ops(&mut self, ops: &[StorageOp]) {
        let Some(substrate) = self.substrate.as_mut() else {
            return;
        };
        if let Err(e) = substrate.apply_ops(ops) {
            self.first_substrate_error.get_or_insert(e.to_string());
        }
    }

    /// Replays a migrate-in outcome: the arriving object's `Allocate`
    /// adopts the transferred payload (bytes re-checksummed by the store);
    /// every other op — e.g. moves from a flush the insert triggered —
    /// applies normally.
    fn replay_arrival(
        &mut self,
        ops: &[StorageOp],
        arriving: ObjectId,
        payload: Option<&TransferPayload>,
    ) {
        let Some(substrate) = self.substrate.as_mut() else {
            return;
        };
        for op in ops {
            let result = match (op, payload) {
                (StorageOp::Allocate { id, to }, Some(p)) if *id == arriving => {
                    substrate.adopt(arriving, *to, p)
                }
                _ => substrate.apply_ops(std::slice::from_ref(op)),
            };
            if let Err(e) = result {
                self.first_substrate_error.get_or_insert(e.to_string());
                return;
            }
        }
    }

    /// Every live object's placement, sorted by id.
    fn live_extents(&self) -> Vec<(ObjectId, Extent)> {
        let mut extents = self.realloc.live_extents();
        extents.sort_unstable_by_key(|&(id, _)| id);
        extents
    }

    /// Folds one batch through the coalescing planner and serves only the
    /// net requests (see [`crate::plan`]). Every raw request is still
    /// counted and error-checked at its own stream index — the planner
    /// simulates liveness, so rejections land exactly where an uncoalesced
    /// run would report them — but merged and cancelled requests never
    /// reach the reallocator, the substrate, or the WAL. Returns the number
    /// of planned requests actually applied.
    fn serve_planned(&mut self, reqs: Vec<Request>) -> u64 {
        let base = self.stats.requests;
        self.stats.requests += reqs.len() as u64;
        let realloc = &*self.realloc;
        let plan = BatchPlan::build(&reqs, |id| realloc.extent_of(id).map(|e| e.len));
        for predicted in &plan.errors {
            self.stats.errors += 1;
            self.first_error.get_or_insert(ShardError {
                index: base + predicted.offset,
                error: predicted.error,
            });
        }
        self.stats.requests_coalesced += plan.coalesced;
        self.stats.requests_cancelled += plan.cancelled;
        let applied = plan.applied();
        for (offset, req) in plan.planned {
            self.serve_at(base + offset, req);
        }
        applied
    }

    /// Serves one request at the next stream index.
    fn serve(&mut self, req: Request) {
        let index = self.stats.requests;
        self.stats.requests += 1;
        self.serve_at(index, req);
    }

    /// Serves one request at stream index `index`, mirroring the
    /// single-threaded harness's ledger accounting exactly (same fields,
    /// same query points) so a sharded run is priceable the same way as a
    /// standalone one.
    fn serve_at(&mut self, index: u64, req: Request) {
        let (kind, request_size, allocated, result) = match req {
            Request::Insert { id, size } => (
                OpKind::Insert,
                size,
                Some(size),
                self.realloc.insert(id, size),
            ),
            Request::Delete { id } => {
                let size = self.realloc.extent_of(id).map_or(0, |e| e.len);
                (OpKind::Delete, size, None, self.realloc.delete(id))
            }
        };
        match result {
            Ok(outcome) => {
                self.absorb(&outcome, SimLane::Serve);
                let structure = self.observe_space();
                self.ledger.record(
                    kind,
                    request_size,
                    allocated,
                    &outcome,
                    structure,
                    self.realloc.live_volume(),
                    self.realloc.max_object_size(),
                );
            }
            Err(error) => {
                self.stats.errors += 1;
                self.first_error.get_or_insert(ShardError { index, error });
            }
        }
    }

    /// Ledgers the deferred work a barrier's drain completed as one
    /// `OpKind::Drain` entry, so its moves and checkpoints are priced like
    /// the requests that deferred them. A drain with nothing to do is not
    /// ledgered. Reads the structure size directly, as a defrag pass does,
    /// so the shard's settled-ratio stat sees requests only.
    fn ledger_drain(&mut self, outcome: &Outcome) {
        if outcome.ops.is_empty() {
            return;
        }
        self.ledger.record(
            OpKind::Drain,
            0,
            None,
            outcome,
            self.realloc.structure_size(),
            self.realloc.live_volume(),
            self.realloc.max_object_size(),
        );
    }

    /// The outbound half of one cross-shard transfer: a delete that is
    /// ledgered as `MigrateOut` (the object lives on elsewhere) and counted
    /// in the migration telemetry, not in `requests`. Returns the released
    /// transfer — carrying the object's physical bytes and checksum when
    /// this shard is substrate-backed — or `None` if the reallocator
    /// refused to let go.
    fn migrate_out(&mut self, id: ObjectId, xfer: u64) -> Option<Transfer> {
        let size = self.realloc.extent_of(id).map_or(0, |e| e.len);
        // Read the departing bytes *before* the delete frees the extent.
        let payload = self.substrate.as_mut().and_then(|s| s.release(id));
        match self.realloc.delete(id) {
            Ok(outcome) => {
                self.absorb(&outcome, SimLane::Migrate);
                // The departure is journaled under the transfer's sequence
                // number so recovery can pair it with the target's
                // `MigrateIn` — an unpaired departure means the object died
                // in flight and must be resurrected here.
                if let Some(journal) = self.journal.as_mut() {
                    journal
                        .writer
                        .append(WalRecord::MigrateOut { id, size, xfer });
                }
                self.stats.migrations_out += 1;
                self.stats.migrated_volume_out += size;
                // Count the physical copy-out only now that the object has
                // actually left — a refused delete must not inflate the
                // ledger-vs-bytes accounting.
                if let (Some(substrate), Some(p)) = (self.substrate.as_mut(), payload.as_ref()) {
                    substrate.note_released(p);
                }
                let structure = self.observe_space();
                self.ledger.record(
                    OpKind::MigrateOut,
                    size,
                    None,
                    &outcome,
                    structure,
                    self.realloc.live_volume(),
                    self.realloc.max_object_size(),
                );
                Some(Transfer {
                    id,
                    size,
                    xfer,
                    payload,
                })
            }
            Err(error) => {
                self.note_migration_error(error);
                None
            }
        }
    }

    /// The inbound half: an insert ledgered as `MigrateIn`. The transfer
    /// itself is a *reallocation* of the object (it was allocated once, on
    /// its original shard), so its size joins `moved_sizes` and the shard's
    /// move telemetry — cost functions price it like any other move.
    ///
    /// A substrate-backed shard first proves the shipped bytes match their
    /// checksum; a damaged payload is refused *before* touching the
    /// reallocator ([`ReallocError::CorruptTransfer`]), so the failed ack
    /// reaches the engine with this shard's serving structure clean. On
    /// success the arrival `Allocate` writes the transferred bytes — not a
    /// fresh pattern — so the migration is byte-faithful end to end.
    /// Returns whether the object was adopted.
    fn migrate_in(&mut self, transfer: Transfer) -> bool {
        let Transfer {
            id,
            size,
            xfer,
            payload,
        } = transfer;
        if let (Some(_), Some(payload)) = (self.substrate.as_ref(), payload.as_ref()) {
            if !ShardSubstrate::payload_intact(payload, size) {
                self.note_migration_error(ReallocError::CorruptTransfer(id));
                return false;
            }
        }
        match self.realloc.insert(id, size) {
            Ok(outcome) => {
                self.journal_arrival(&outcome.ops, id, payload.as_ref(), xfer);
                self.replay_arrival(&outcome.ops, id, payload.as_ref());
                self.note_moves(&outcome);
                if let Some(t) = self.telemetry.as_mut() {
                    t.price_ops(&outcome.ops, SimLane::Migrate);
                }
                self.stats.total_moves += 1;
                self.stats.total_moved_volume += size;
                self.stats.migrations_in += 1;
                self.stats.migrated_volume_in += size;
                let structure = self.observe_space();
                let mut moved_sizes = vec![size];
                moved_sizes.extend(outcome.moved_sizes());
                self.ledger.push(OpRecord {
                    kind: OpKind::MigrateIn,
                    request_size: size,
                    allocated: None,
                    moved_sizes,
                    checkpoints: outcome.checkpoints,
                    structure_after: structure,
                    peak_during: outcome.peak_structure_size.max(structure),
                    volume_after: self.realloc.live_volume(),
                    delta_after: self.realloc.max_object_size(),
                });
                true
            }
            Err(error) => {
                self.note_migration_error(error);
                false
            }
        }
    }

    /// Computes (and ledgers) the Theorem 2.7 compaction schedule over this
    /// shard's live objects, sorted by id. A substrate-backed shard also
    /// *performs* the scheduled copies on real bytes — in a sandbox seeded
    /// from its store, so the serving structure stays as Theorem 2.1
    /// maintains it — and reports whether every object landed byte-intact
    /// at its promised placement ([`DefragSummary::substrate_ok`]).
    fn defrag(&mut self, eps: f64) -> DefragSummary {
        let extents = self.live_extents();
        let delta = self.realloc.max_object_size();
        match realloc_core::defragment(&extents, eps, |a, b| a.cmp(&b)) {
            Ok(report) => {
                self.stats.defrag_runs += 1;
                self.stats.defrag_moves += report.total_moves as u64;
                let substrate_ok = self
                    .substrate
                    .as_ref()
                    .map(|s| s.validate_schedule(&extents, &report.ops, &report.sorted));
                if let Some(Err(e)) = &substrate_ok {
                    self.first_substrate_error
                        .get_or_insert(format!("defrag schedule: {e}"));
                }
                let structure = self.realloc.structure_size();
                self.ledger.push(OpRecord {
                    kind: OpKind::Defrag,
                    request_size: 0,
                    allocated: None,
                    moved_sizes: report
                        .ops
                        .iter()
                        .filter_map(|op| match op {
                            realloc_common::StorageOp::Move { to, .. } => Some(to.len),
                            _ => None,
                        })
                        .collect(),
                    checkpoints: 0,
                    structure_after: structure,
                    peak_during: report.peak_space.max(structure),
                    volume_after: self.realloc.live_volume(),
                    delta_after: delta,
                });
                DefragSummary {
                    shard: self.stats.shard,
                    objects: extents.len(),
                    total_moves: report.total_moves as u64,
                    peak_space: report.peak_space,
                    budget: report.budget,
                    within_budget: report.peak_space <= report.budget + delta
                        && !report.prefix_suffix_collision,
                    substrate_ok: substrate_ok.map(|r| r.is_ok()),
                    error: None,
                }
            }
            Err(e) => DefragSummary {
                shard: self.stats.shard,
                objects: extents.len(),
                total_moves: 0,
                peak_space: 0,
                budget: 0,
                within_budget: false,
                substrate_ok: None,
                error: Some(e.to_string()),
            },
        }
    }

    fn note_migration_error(&mut self, error: ReallocError) {
        self.stats.errors += 1;
        self.first_error.get_or_insert(ShardError {
            index: self.stats.requests,
            error,
        });
    }

    fn note_moves(&mut self, outcome: &Outcome) {
        self.stats.total_moves += outcome.move_count() as u64;
        self.stats.total_moved_volume += outcome.moved_volume();
    }

    /// Folds the current space telemetry into `max_settled_ratio` and
    /// returns the structure size.
    fn observe_space(&mut self) -> u64 {
        let structure = self.realloc.structure_size();
        let volume = self.realloc.live_volume();
        if volume > 0 {
            let ratio = structure as f64 / volume as f64;
            self.stats.max_settled_ratio = self.stats.max_settled_ratio.max(ratio);
        }
        structure
    }

    fn snapshot(&self) -> ShardStats {
        let realloc = &*self.realloc;
        let substrate = self.substrate.as_ref();
        let wal = self.journal.as_ref().map(|j| &j.writer);
        ShardStats {
            live_count: realloc.live_count(),
            live_volume: realloc.live_volume(),
            footprint: realloc.footprint(),
            structure_size: realloc.structure_size(),
            max_object_size: realloc.max_object_size(),
            substrate_bytes_written: substrate.map_or(0, |s| s.bytes_written),
            substrate_bytes_in: substrate.map_or(0, |s| s.bytes_migrated_in),
            substrate_bytes_out: substrate.map_or(0, |s| s.bytes_migrated_out),
            substrate_verifications: substrate.map_or(0, |s| s.verifications),
            wal_records: wal.map_or(0, WalWriter::records),
            wal_bytes: wal.map_or(0, WalWriter::bytes),
            group_commits: wal.map_or(0, WalWriter::commits),
            ..self.stats
        }
    }

    /// The wall-clock-and-histogram side of this shard's observability —
    /// the deterministic counters live in [`ShardStats`]; this carries the
    /// latency/stall/commit distributions and the sim-time lanes.
    fn metrics(&self) -> ShardMetrics {
        self.telemetry.as_ref().map_or_else(
            || ShardMetrics::empty(self.stats.shard),
            |t| t.snapshot(self.stats.shard),
        )
    }

    fn reply(&self) -> ShardReply {
        ShardReply {
            stats: self.snapshot(),
            first_error: self.first_error,
            first_substrate_error: self.first_substrate_error.clone(),
        }
    }
}

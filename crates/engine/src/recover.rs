//! Crash recovery: rebuild a fleet from its per-shard checkpoints and
//! write-ahead logs.
//!
//! [`Engine::recover`] is the read side of the durability protocol the
//! shard workers write (see [`crate::shard`] and [`storage_sim::wal`]).
//! Each shard's durable state is a checkpoint (its full live layout at
//! some epoch) plus a log suffix (every group-committed op since). The
//! logs are *independent* — each shard truncates its own at its own
//! barriers, and a crash tears them at different points — so recovery has
//! to reconcile a fleet-wide logical state from per-shard files that need
//! not agree on how far a cross-shard migration got:
//!
//! 1. **Fold** each shard's checkpoint + replayable log suffix into its
//!    last durable live set — every shard with files in the directory,
//!    including any at or past `config.shards` (a shrink leaves its
//!    retired shards' emptied files behind). One thread per shard, since
//!    the logs are independent; the per-shard folds are merged in shard
//!    index order, keeping the result byte-identical to a sequential
//!    fold. Frames whose epoch predates the checkpoint are skipped (they
//!    survive only when a crash hit between the checkpoint rename and the
//!    log truncation — the checkpoint already subsumes them); a torn tail
//!    was already discarded by the frame reader.
//! 2. **Reconcile** migrations across shards by transfer sequence number.
//!    An id live on two shards (source log truncated below its
//!    `MigrateOut`, target log kept its `MigrateIn`) keeps the copy with
//!    the higher claim — the later arrival — and drops the rest. A
//!    `MigrateOut` with no matching `MigrateIn` anywhere and its id live
//!    nowhere is a transfer that died in flight: the object is
//!    resurrected on its source shard (content is regenerable — see
//!    below). Either way every id ends live on exactly one shard — and
//!    if that shard is past `config.shards`, recovery refuses with
//!    [`EngineError::Wal`] instead of dropping the object.
//! 3. **Prove** content. The log stores digests, not payloads: a live
//!    object's bytes are always `pattern_for(id, len)` (allocations write
//!    the pattern; moves and transfers are byte-faithful), so recovery
//!    regenerates each object's content and requires its checksum to
//!    equal the journaled digest. A mismatch is a hard
//!    [`EngineError::Wal`] — the log is lying about what was stored.
//! 4. **Re-derive routing** from physical ownership: a fresh
//!    [`TableRouter`] gets an assignment exactly where its rendezvous
//!    fallback disagrees with the shard that owns the id. Routing
//!    therefore *provably* matches ownership — it is computed from it.
//! 5. **Reseed** a fresh fleet through the normal insert path (the
//!    derived router lands every object on its owner), then quiesce —
//!    which checkpoints the rebuilt state and truncates the logs — and,
//!    when substrates are on, run the full byte-verification scan.
//!
//! Placements within a shard may differ from the pre-crash layout (the
//! reallocator re-allocates); the guarantee is *logical* state plus byte
//! fidelity, not placement stability. Recovery journals its own reseeding
//! appends before its closing checkpoint, so a crash *during* recovery
//! recovers again.

use std::collections::BTreeMap;
use std::path::Path;

use realloc_common::{BoxedReallocator, ObjectId, TableRouter};
use realloc_telemetry::EventJournal;
use storage_sim::wal::{checkpoint_path, read_checkpoint, read_wal, wal_path};
use storage_sim::{pattern_digest, WalRecord};

use crate::engine::{Engine, EngineConfig, EngineError};
use crate::frontend::Threads;
use crate::substrate::SubstrateReport;

/// What [`Engine::recover`] rebuilt, and from what.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Shards recovered.
    pub shards: usize,
    /// Objects restored from checkpoints (before log replay).
    pub checkpoint_objects: u64,
    /// Group-commit frames replayed across all logs.
    pub replayed_groups: u64,
    /// WAL records replayed across all logs.
    pub replayed_records: u64,
    /// Live objects in the rebuilt fleet.
    pub objects: u64,
    /// Live volume of the rebuilt fleet.
    pub volume: u64,
    /// Objects whose transfer died in flight (a journaled `MigrateOut`
    /// with no surviving `MigrateIn`), restored on their source shard.
    pub resurrected: Vec<ObjectId>,
    /// Ids found live on more than one shard (per-log truncation skew
    /// around a migration); the stale copies were dropped in favor of the
    /// latest arrival.
    pub dropped_duplicates: Vec<ObjectId>,
    /// Routing-table assignments the recovered fleet needed — ids whose
    /// owning shard differs from the fresh router's rendezvous fallback.
    pub route_assignments: u64,
    /// Per-shard byte-verification reports (empty without substrates).
    pub substrate: Vec<SubstrateReport>,
}

/// One object's folded durable state on one shard.
struct Tracked {
    size: u64,
    digest: u64,
    /// Transfer sequence number that brought the object here (0 for a
    /// plain allocation). When truncation skew leaves an id live on two
    /// shards, the higher claim — the later arrival — wins.
    claim: u64,
}

fn wal_err(detail: String) -> EngineError {
    EngineError::Wal { detail }
}

/// One shard's Phase-1 fold: its durable live set plus everything the
/// cross-shard reconcile needs. Produced independently per shard — logs
/// never reference each other — so the folds run on parallel threads
/// and are merged in shard index order, which keeps recovery
/// byte-deterministic (same owner map, same report, same ordering of
/// duplicates and resurrections as the old sequential fold).
struct ShardFold {
    live: BTreeMap<ObjectId, Tracked>,
    /// Every journaled `MigrateOut` as (xfer, id, size, source shard).
    outs: Vec<(u64, ObjectId, u64, usize)>,
    /// Transfer sequence numbers whose arrival survived in this log.
    arrived: Vec<u64>,
    max_xfer: u64,
    checkpoint_objects: u64,
    replayed_groups: u64,
    replayed_records: u64,
}

/// Folds shard `shard`'s checkpoint + replayable log suffix into its
/// last durable live set (Phase 1 of [`Engine::recover`], for one
/// shard). Frames whose epoch predates the checkpoint are skipped; a
/// torn tail was already discarded by the frame reader.
fn fold_shard(dir: &Path, shard: usize) -> Result<ShardFold, EngineError> {
    let mut fold = ShardFold {
        live: BTreeMap::new(),
        outs: Vec::new(),
        arrived: Vec::new(),
        max_xfer: 0,
        checkpoint_objects: 0,
        replayed_groups: 0,
        replayed_records: 0,
    };
    let ckpt = read_checkpoint(&checkpoint_path(dir, shard))
        .map_err(|e| wal_err(format!("shard {shard} checkpoint: {e}")))?;
    let epoch = ckpt.as_ref().map_or(0, |c| c.epoch);
    for entry in ckpt.into_iter().flat_map(|c| c.entries) {
        fold.checkpoint_objects += 1;
        fold.live.insert(
            entry.id,
            Tracked {
                size: entry.len,
                digest: entry.digest,
                claim: 0,
            },
        );
    }
    let groups =
        read_wal(&wal_path(dir, shard)).map_err(|e| wal_err(format!("shard {shard} wal: {e}")))?;
    for group in groups {
        if group.epoch < epoch {
            // Pre-checkpoint frames survive only a crash between the
            // checkpoint rename and the truncation; the checkpoint
            // subsumes them.
            continue;
        }
        fold.replayed_groups += 1;
        for record in group.records {
            fold.replayed_records += 1;
            match record {
                WalRecord::Allocate {
                    id, len, digest, ..
                } => {
                    fold.live.insert(
                        id,
                        Tracked {
                            size: len,
                            digest,
                            claim: 0,
                        },
                    );
                }
                // Moves relocate within the shard; the logical live set
                // (and the regenerable content) is unchanged.
                WalRecord::Move { .. } => {}
                WalRecord::Free { id, .. } => {
                    fold.live.remove(&id);
                }
                WalRecord::MigrateOut { id, size, xfer } => {
                    fold.live.remove(&id);
                    fold.outs.push((xfer, id, size, shard));
                    fold.max_xfer = fold.max_xfer.max(xfer);
                }
                WalRecord::MigrateIn {
                    id,
                    len,
                    digest,
                    xfer,
                    ..
                } => {
                    fold.live.insert(
                        id,
                        Tracked {
                            size: len,
                            digest,
                            claim: xfer,
                        },
                    );
                    fold.arrived.push(xfer);
                    fold.max_xfer = fold.max_xfer.max(xfer);
                }
                WalRecord::RouteFlip { xfer, .. } => {
                    fold.max_xfer = fold.max_xfer.max(xfer);
                }
            }
        }
    }
    Ok(fold)
}

/// The shards whose files recovery folds, ascending: `0..shards`, plus
/// every `k ≥ shards` that left a `shard-k.{wal,ckpt}` in `dir`.
fn shards_on_disk(dir: &Path, shards: usize) -> Result<Vec<usize>, EngineError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0..shards).collect()),
        Err(e) => return Err(wal_err(format!("scan {}: {e}", dir.display()))),
    };
    let mut past: Vec<usize> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let stem = name.strip_suffix(".wal").or(name.strip_suffix(".ckpt"))?;
            stem.strip_prefix("shard-")?.parse::<usize>().ok()
        })
        .filter(|&k| k >= shards)
        .collect();
    past.sort_unstable();
    past.dedup();
    Ok((0..shards).chain(past).collect())
}

impl Engine {
    /// Rebuilds a crashed (or cleanly stopped) fleet from the write-ahead
    /// logs and checkpoints under `wal_dir`, returning the recovered
    /// engine — journaling into the same directory — and a report of what
    /// replay found. See the [module docs](crate::recover) for the
    /// algorithm and its guarantees.
    ///
    /// `config.shards` must cover every shard that still owns an object:
    /// the files of shards past it (a shrink leaves its retired shards'
    /// emptied files behind) are folded too, and recovery refuses rather
    /// than drop what they hold. `factory` builds each shard's reallocator
    /// like at construction. The engine's
    /// router is a fresh [`TableRouter`] re-derived from physical
    /// ownership (any router the old fleet used is superseded — its
    /// durable assignments live in the checkpoints' pin flags and, more
    /// fundamentally, in where the objects physically are).
    ///
    /// # Errors
    /// [`EngineError::Wal`] when a log or checkpoint cannot be read, a
    /// replayed digest does not match the object's regenerated content,
    /// or a shard past `config.shards` still holds an object (or a
    /// departure recovery would resurrect there);
    /// any barrier error the reseeding quiesce or the closing
    /// byte-verification surfaces.
    pub fn recover<F>(
        config: EngineConfig,
        wal_dir: impl AsRef<Path>,
        factory: F,
    ) -> Result<(Engine, RecoveryReport), EngineError>
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        let dir = wal_dir.as_ref().to_path_buf();
        let mut report = RecoveryReport {
            shards: config.shards,
            ..RecoveryReport::default()
        };
        // One span per recovery stage, recorded standalone (the engine does
        // not exist yet) and installed into the rebuilt fleet's journal so
        // the first metrics scrape shows how recovery spent its time.
        let mut spans = EventJournal::new(512);

        // Phase 1: fold each shard's checkpoint + log suffix — on one
        // thread per shard, since the logs are independent by
        // construction (each shard journals only its own ops; even a
        // migration is two records in two logs). The folds are merged
        // in shard index order, so the owner map, the report, and the
        // duplicate/resurrection ordering are byte-identical to the old
        // sequential fold — `crash_matrix` pins this.
        // Shards past `config.shards` fold too: a shrink leaves its retired
        // shards' emptied files behind, and a short shard count must not
        // silently drop what a larger fleet journaled.
        let on_disk = shards_on_disk(&dir, config.shards)?;
        spans.begin(None, "recover.fold", on_disk.len() as u64);
        let folds: Vec<Result<ShardFold, EngineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = on_disk
                .iter()
                .map(|&shard| {
                    let dir = &dir;
                    scope.spawn(move || fold_shard(dir, shard))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("suffix-fold thread panicked"))
                .collect()
        });
        let mut live: Vec<BTreeMap<ObjectId, Tracked>> = Vec::with_capacity(on_disk.len());
        // Every journaled MigrateOut as (xfer, id, size, source shard).
        let mut outs: Vec<(u64, ObjectId, u64, usize)> = Vec::new();
        // Transfer sequence numbers whose arrival survived in some log.
        let mut arrived: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut max_xfer = 0u64;
        for fold in folds {
            let fold = fold?;
            report.checkpoint_objects += fold.checkpoint_objects;
            report.replayed_groups += fold.replayed_groups;
            report.replayed_records += fold.replayed_records;
            outs.extend(fold.outs);
            arrived.extend(fold.arrived);
            max_xfer = max_xfer.max(fold.max_xfer);
            live.push(fold.live);
        }
        spans.end(None, "recover.fold", report.replayed_records);

        // Phase 2a: duplicates. An id live on two shards means the source
        // log was truncated below its MigrateOut while the target kept the
        // MigrateIn; the later arrival (higher claim) is the durable truth.
        spans.begin(None, "recover.reconcile", 0);
        let mut owner: BTreeMap<ObjectId, (usize, u64, u64)> = BTreeMap::new();
        for (&shard, map) in on_disk.iter().zip(live) {
            for (id, t) in map {
                // Digests are proven here, once per surviving copy: the
                // content invariant says the bytes must regenerate.
                if t.digest != pattern_digest(id, t.size) {
                    return Err(wal_err(format!(
                        "shard {shard}: {id} digest does not match its regenerated \
                         content at size {} — the log is inconsistent",
                        t.size
                    )));
                }
                match owner.get(&id) {
                    Some(&(_, _, claim)) if claim >= t.claim => {
                        report.dropped_duplicates.push(id);
                    }
                    Some(_) => {
                        report.dropped_duplicates.push(id);
                        owner.insert(id, (shard, t.size, t.claim));
                    }
                    None => {
                        owner.insert(id, (shard, t.size, t.claim));
                    }
                }
            }
        }

        // Phase 2b: transfers that died in flight. The source durably gave
        // the object up, no arrival survived anywhere, and the id is live
        // nowhere — resurrect it on its source (content regenerates from
        // the pattern). Latest departure first, so an object migrated
        // twice resurrects at its most recent home.
        outs.sort_by_key(|&(xfer, ..)| std::cmp::Reverse(xfer));
        for (xfer, id, size, shard) in outs {
            if !arrived.contains(&xfer) && !owner.contains_key(&id) {
                owner.insert(id, (shard, size, xfer));
                report.resurrected.push(id);
            }
        }

        // Only an emptied shard may sit past the recovered count.
        if let Some((id, &(shard, ..))) = owner.iter().find(|(_, o)| o.0 >= config.shards) {
            return Err(wal_err(format!(
                "shard {shard} still holds {id}, but only {} shards are being recovered",
                config.shards
            )));
        }

        report.objects = owner.len() as u64;
        report.volume = owner.values().map(|&(_, size, _)| size).sum();
        spans.end(None, "recover.reconcile", report.objects);

        // Phase 3: routing re-derived from ownership — assign exactly
        // where the fresh rendezvous fallback disagrees.
        spans.begin(None, "recover.routing", 0);
        let mut router = TableRouter::new(config.shards);
        for (&id, &(shard, ..)) in &owner {
            if realloc_common::Router::route(&router, id) != shard {
                realloc_common::Router::assign(&mut router, id, shard);
                report.route_assignments += 1;
            }
        }
        spans.end(None, "recover.routing", report.route_assignments);

        // Phase 4: reseed a fresh fleet through the normal serving path.
        // The derived router lands every insert on its owner, workers
        // journal the reseeding appends (a crash mid-recovery just
        // recovers again), and the closing quiesce checkpoints the rebuilt
        // state and truncates the logs. Ownership is already known, so the
        // inserts are pre-split into per-shard streams and dispatched a
        // batch per shard per round — every worker reseeds in parallel
        // instead of one object at a time through the router.
        spans.begin(None, "recover.reseed", report.objects);
        let mut streams: Vec<Vec<workload_gen::Request>> = vec![Vec::new(); config.shards];
        for (&id, &(shard, size, _)) in &owner {
            streams[shard].push(workload_gen::Request::Insert { id, size });
        }
        let router = Box::new(router);
        let mut engine = Engine::build(config, router, factory, Some(dir), 1, Threads::new)?;
        engine.xfer_seq = max_xfer + 1;
        engine.drive_streams(streams)?;
        engine.quiesce()?;
        report.substrate = engine.verify_substrate()?;
        spans.end(None, "recover.reseed", report.volume);
        // The stages ran before the engine existed, so their spans were
        // recorded standalone; they become the rebuilt fleet's journal.
        engine.events = spans;
        Ok((engine, report))
    }
}

//! Per-shard storage substrates: real byte-carrying replay behind the
//! sharded engine.
//!
//! Without a substrate the engine's workers do *accounting*: a request's
//! [`Outcome`](realloc_common::Outcome) updates the ledger and is discarded,
//! so the `storage-sim` data-integrity rules (checksummed object bytes,
//! non-overlapping placements, no lost writes) are only ever checked on the
//! unsharded `run_workload` path. A [`SubstrateConfig`] closes that gap:
//! every worker owns a [`DataStore`] over a disjoint
//! [`AddressWindow`] (shard *i*'s slice of one global device) and replays
//! every physical op it performs — inserts write the object's pattern
//! bytes, deletes free, buffer flushes perform their scheduled copies, and
//! a cross-shard migration becomes a genuine cross-address-space transfer
//! whose bytes are checksummed on arrival. A corrupted or truncated
//! transfer fails the receiving shard's ack, which drives the engine's
//! existing abort-after-pin path: completed transfers stay pinned, the
//! rest of the plan stays home, and routing still matches physical
//! ownership.
//!
//! Verification (extent agreement with the shard's reallocator, plus a
//! checksum pass over every live object's bytes) runs at the configured
//! [`VerifyCadence`]; overlap and address-window containment are enforced
//! by the store on every single write regardless of cadence.

use realloc_common::{Extent, ObjectId, StorageOp};
use storage_sim::{checksum, AddressWindow, DataStore, Mode};

/// How often a substrate-backed shard re-verifies its full state (extent
/// agreement with the reallocator + a checksum pass over every live
/// object's bytes — an `O(V)` scan).
///
/// Per-write rule checking (overlap, freed-space, window containment) is
/// *always* on; the cadence only controls the full scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyCadence {
    /// Verify only at shutdown (and on an explicit
    /// [`Engine::verify_substrate`](crate::Engine::verify_substrate)):
    /// one `O(V)` scan per shard for the whole run — cheapest, but a
    /// divergence is only pinpointed to "somewhere before the end".
    Final,
    /// Additionally verify at every `quiesce`/`snapshot` barrier: one
    /// `O(V)` scan per shard per barrier. The default — barriers are
    /// already fleet-wide synchronization points, so the scan hides in
    /// their shadow.
    #[default]
    Quiesce,
    /// Additionally verify after every served request batch: one `O(V)`
    /// scan per shard per channel batch. Orders of magnitude more scans
    /// than `Quiesce` — a debugging cadence that localizes a divergence to
    /// one batch, not a serving configuration.
    Batch,
}

impl VerifyCadence {
    /// Whether this cadence verifies at quiesce/snapshot barriers.
    pub fn at_barriers(self) -> bool {
        matches!(self, VerifyCadence::Quiesce | VerifyCadence::Batch)
    }

    /// Whether this cadence verifies after every served batch.
    pub fn at_batches(self) -> bool {
        matches!(self, VerifyCadence::Batch)
    }
}

impl std::fmt::Display for VerifyCadence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VerifyCadence::Final => "final",
            VerifyCadence::Quiesce => "quiesce",
            VerifyCadence::Batch => "batch",
        })
    }
}

/// Cells in each shard's address window: shard *i* owns
/// `[i·WINDOW_SPAN, (i+1)·WINDOW_SPAN)` of one global device. A shard whose
/// structure (including transient staging space) outgrows its window fails
/// verification rather than silently bleeding into a neighbour's
/// addresses.
pub const WINDOW_SPAN: u64 = 1 << 32;

/// Declarative factory for per-shard substrates: how each worker's
/// [`DataStore`] is built (shard *i* gets the *i*-th [`WINDOW_SPAN`]-cell
/// address window) and how often it fully re-verifies. Install it with
/// [`EngineConfig::substrate`](crate::EngineConfig) (see
/// [`EngineConfig::with_substrate`](crate::EngineConfig::with_substrate)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstrateConfig {
    /// Rule mode every shard store enforces. [`Mode::Relaxed`] (memmove
    /// semantics) suits any variant; [`Mode::Strict`] (database rules)
    /// suits the §3 checkpointed/deamortized variants — the §2 amortized
    /// variant legitimately violates strict rules, which is the reason §3
    /// exists.
    pub mode: Mode,
    /// When each shard runs its full extent + byte verification scan.
    pub verify: VerifyCadence,
}

impl Default for SubstrateConfig {
    /// Relaxed rules, verification at every barrier.
    fn default() -> Self {
        SubstrateConfig {
            mode: Mode::Relaxed,
            verify: VerifyCadence::Quiesce,
        }
    }
}

impl SubstrateConfig {
    /// The default configuration (relaxed rules — valid for every
    /// variant).
    pub fn relaxed() -> Self {
        SubstrateConfig::default()
    }

    /// The default configuration under the full §3.1 database rules
    /// (nonoverlapping moves, freed-space rule). Only the checkpointed and
    /// deamortized variants obey them.
    pub fn strict() -> Self {
        SubstrateConfig {
            mode: Mode::Strict,
            ..SubstrateConfig::default()
        }
    }

    /// This configuration with the given verification cadence.
    pub fn cadence(mut self, verify: VerifyCadence) -> Self {
        self.verify = verify;
        self
    }

    /// Builds shard `shard`'s substrate — its store owns the `shard`-th
    /// disjoint window of the global device.
    pub(crate) fn build(&self, shard: usize) -> ShardSubstrate {
        ShardSubstrate {
            store: DataStore::windowed(self.mode, AddressWindow::for_shard(shard, WINDOW_SPAN)),
            verify: self.verify,
            bytes_written: 0,
            bytes_migrated_in: 0,
            bytes_migrated_out: 0,
            verifications: 0,
        }
    }
}

/// One shard's substrate verification summary, as returned by
/// [`Engine::verify_substrate`](crate::Engine::verify_substrate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstrateReport {
    /// The shard that verified.
    pub shard: usize,
    /// The address window its store owns.
    pub window: AddressWindow,
    /// Live objects whose extents and bytes were checked.
    pub objects: usize,
    /// Total volume of those objects, in cells.
    pub bytes: u64,
    /// The first verification failure, if any (also surfaced as
    /// [`EngineError::Substrate`](crate::EngineError::Substrate)).
    pub error: Option<String>,
}

/// One shard's live objects with their physical bytes, sorted by id — the
/// per-shard element of
/// [`Engine::substrate_contents`](crate::Engine::substrate_contents).
pub type ShardBytes = Vec<(ObjectId, Vec<u8>)>;

/// The payload of one cross-shard transfer: the object's bytes as read
/// from the source shard's store, plus the checksum the source computed
/// over them. The receiving store re-checksums on arrival
/// ([`DataStore::adopt`]), so any in-flight damage fails the ack.
#[derive(Debug, Clone)]
pub(crate) struct TransferPayload {
    pub bytes: Vec<u8>,
    pub checksum: u64,
}

/// One object handed from a source shard to a target shard: the migrate-out
/// ack (`id` + released size), carrying the physical bytes when the fleet
/// is substrate-backed.
#[derive(Debug, Clone)]
pub(crate) struct Transfer {
    pub id: ObjectId,
    pub size: u64,
    /// Globally unique transfer sequence number, assigned by the engine
    /// when the plan is dispatched. The WAL journals it on both ends
    /// (`MigrateOut` on the source, `MigrateIn` + `RouteFlip` on the
    /// target), so recovery can pair the halves of a transfer that a crash
    /// cut in two.
    pub xfer: u64,
    /// `Some` iff the source shard runs a substrate.
    pub payload: Option<TransferPayload>,
}

/// A worker's substrate state: the windowed byte store plus the physical
/// I/O counters that feed [`ShardStats`](crate::ShardStats).
pub(crate) struct ShardSubstrate {
    store: DataStore,
    verify: VerifyCadence,
    pub bytes_written: u64,
    pub bytes_migrated_in: u64,
    pub bytes_migrated_out: u64,
    pub verifications: u64,
}

impl ShardSubstrate {
    pub fn cadence(&self) -> VerifyCadence {
        self.verify
    }

    pub fn window(&self) -> AddressWindow {
        self.store.window().expect("shard substrates are windowed")
    }

    /// Replays one request's (or drain's) physical ops, counting the cells
    /// written. Any rule violation — overlap, freed-space reuse, a write
    /// escaping the shard's window — surfaces as the error.
    pub fn apply_ops(&mut self, ops: &[StorageOp]) -> Result<(), String> {
        for op in ops {
            self.store.apply(op).map_err(|v| v.to_string())?;
            if let Some(written) = op.written_extent() {
                self.bytes_written += written.len;
            }
        }
        Ok(())
    }

    /// Reads a departing object's bytes (and their checksum) for a
    /// cross-shard transfer. Must run *before* the reallocator deletes the
    /// object — afterwards the store has freed the extent. Does NOT count
    /// `bytes_migrated_out`: the release may still be refused by the
    /// reallocator, so the caller counts via
    /// [`note_released`](Self::note_released) only once the object has
    /// actually left.
    pub fn release(&mut self, id: ObjectId) -> Option<TransferPayload> {
        let bytes = self.store.bytes_of(id)?.to_vec();
        let sum = checksum(&bytes);
        Some(TransferPayload {
            bytes,
            checksum: sum,
        })
    }

    /// Counts a successfully released transfer's cells as physically
    /// copied out of this window. Keeping the counter here (rather than in
    /// [`release`](Self::release)) keeps `bytes_migrated_out` equal to the
    /// ledgered migrate-out volume even when a reallocator refuses a
    /// delete after the bytes were read.
    pub fn note_released(&mut self, payload: &TransferPayload) {
        self.bytes_migrated_out += payload.bytes.len() as u64;
    }

    /// The adopting half of a transfer: writes the *shipped* bytes at the
    /// extent the reallocator chose, after the store re-verifies their
    /// checksum. (Callers verify the payload before inserting into the
    /// reallocator at all; this second check is the store's own guarantee.)
    pub fn adopt(
        &mut self,
        id: ObjectId,
        to: Extent,
        payload: &TransferPayload,
    ) -> Result<(), String> {
        self.store
            .adopt(id, to, &payload.bytes, payload.checksum)
            .map_err(|v| v.to_string())?;
        self.bytes_written += to.len;
        self.bytes_migrated_in += to.len;
        Ok(())
    }

    /// Whether a payload would survive adoption at `size` — checked before
    /// the reallocator inserts, so a damaged transfer is refused without
    /// polluting the serving structure. Same
    /// [`transfer_checksum`](storage_sim::transfer_checksum) the store
    /// itself re-checks in [`DataStore::adopt`].
    pub fn payload_intact(payload: &TransferPayload, size: u64) -> bool {
        storage_sim::transfer_checksum(&payload.bytes, size) == payload.checksum
    }

    /// The full verification scan: every reallocator-live object present in
    /// the store at the same extent (and vice versa — same live count), and
    /// every live object's bytes matching its registered checksum. Overlap
    /// and window containment need no scan: the store enforced them on
    /// every write.
    pub fn verify(
        &mut self,
        extent_of: impl Fn(ObjectId) -> Option<Extent>,
        physical_live: usize,
    ) -> Result<(), String> {
        self.verifications += 1;
        self.store.rules().verify_matches(&extent_of)?;
        let in_store = self.store.rules().live_count();
        if in_store != physical_live {
            return Err(format!(
                "store holds {in_store} live objects, reallocator holds {physical_live}"
            ));
        }
        self.store.verify_all()
    }

    /// Fault injection (testing): flips one byte of the lowest-id live
    /// object's cells, checksum left intact, so the next verification
    /// scan must fail. Returns the damaged id, or `None` for an empty
    /// store. See [`Engine::inject_substrate_corruption`](crate::Engine::inject_substrate_corruption).
    pub fn corrupt_first_object(&mut self) -> Option<ObjectId> {
        let id = self
            .store
            .rules()
            .live_spans()
            .into_iter()
            .map(|(_, id)| id)
            .min()?;
        self.store.corrupt_object(id).then_some(id)
    }

    /// Live object bytes, sorted by id (the
    /// [`Engine::substrate_contents`](crate::Engine::substrate_contents)
    /// debugging barrier).
    pub fn contents(&self) -> Vec<(ObjectId, Vec<u8>)> {
        let mut objects: Vec<(ObjectId, Vec<u8>)> = self
            .store
            .rules()
            .live_spans()
            .into_iter()
            .map(|(_, id)| (id, self.store.bytes_of(id).unwrap_or_default().to_vec()))
            .collect();
        objects.sort_by_key(|&(id, _)| id);
        objects
    }

    /// Validates a defrag schedule by *performing* its copies on real
    /// bytes: a sandbox store is seeded with the schedule's input objects
    /// (bytes lifted from this store), the schedule replays under memmove
    /// semantics, and every object must land byte-intact at its sorted
    /// placement. The serving structure is untouched — this proves the
    /// schedule a substrate would apply is physically executable.
    pub fn validate_schedule(
        &self,
        input: &[(ObjectId, Extent)],
        ops: &[StorageOp],
        sorted: &[(ObjectId, Extent)],
    ) -> Result<(), String> {
        let mut sandbox = DataStore::new(Mode::Relaxed);
        for &(id, ext) in input {
            let bytes = self
                .store
                .bytes_of(id)
                .ok_or_else(|| format!("{id} scheduled but not in the store"))?;
            let sum = checksum(bytes);
            sandbox
                .adopt(id, ext, bytes, sum)
                .map_err(|v| format!("seeding sandbox: {v}"))?;
        }
        sandbox
            .apply_all(ops)
            .map_err(|v| format!("schedule replay: {v}"))?;
        sandbox.verify_all()?;
        for &(id, ext) in sorted {
            match sandbox.rules().extent_of(id) {
                Some(e) if e == ext => {}
                other => return Err(format!("{id} ended at {other:?}, schedule promised {ext}")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_ladder() {
        assert!(!VerifyCadence::Final.at_barriers());
        assert!(!VerifyCadence::Final.at_batches());
        assert!(VerifyCadence::Quiesce.at_barriers());
        assert!(!VerifyCadence::Quiesce.at_batches());
        assert!(VerifyCadence::Batch.at_barriers());
        assert!(VerifyCadence::Batch.at_batches());
        assert_eq!(VerifyCadence::default(), VerifyCadence::Quiesce);
        assert_eq!(VerifyCadence::Batch.to_string(), "batch");
    }

    #[test]
    fn config_builders() {
        let cfg = SubstrateConfig::strict().cadence(VerifyCadence::Batch);
        assert_eq!(cfg.mode, Mode::Strict);
        assert_eq!(cfg.verify, VerifyCadence::Batch);
        assert_eq!(SubstrateConfig::relaxed().mode, Mode::Relaxed);
    }

    #[test]
    fn shard_windows_are_disjoint_and_ordered() {
        let cfg = SubstrateConfig::default();
        let a = cfg.build(0).window();
        let b = cfg.build(1).window();
        assert_eq!(a.span, WINDOW_SPAN);
        assert_eq!(a.base + a.span, b.base);
    }

    #[test]
    fn release_adopt_round_trip_counts_bytes() {
        let cfg = SubstrateConfig::default();
        let mut source = cfg.build(0);
        source
            .apply_ops(&[StorageOp::Allocate {
                id: ObjectId(1),
                to: Extent::new(0, 64),
            }])
            .unwrap();
        assert_eq!(source.bytes_written, 64);

        let payload = source.release(ObjectId(1)).unwrap();
        // Reading the bytes is not yet a migration — only a release the
        // reallocator actually honoured counts.
        assert_eq!(source.bytes_migrated_out, 0);
        source.note_released(&payload);
        assert_eq!(source.bytes_migrated_out, 64);
        assert!(ShardSubstrate::payload_intact(&payload, 64));
        assert!(!ShardSubstrate::payload_intact(&payload, 63));

        let mut target = cfg.build(1);
        target
            .adopt(ObjectId(1), Extent::new(0, 64), &payload)
            .unwrap();
        assert_eq!(target.bytes_migrated_in, 64);
        assert_eq!(target.bytes_written, 64);

        // Damage en route: both the pre-check and the store refuse.
        let mut damaged = payload.clone();
        damaged.bytes[7] ^= 0xff;
        assert!(!ShardSubstrate::payload_intact(&damaged, 64));
        assert!(target
            .adopt(ObjectId(2), Extent::new(100, 64), &damaged)
            .is_err());
    }
}

//! A byte-carrying device: the same rule checking as [`SimStore`], but the
//! cells hold actual data, so corruption — not just rule violations — is
//! detectable end to end.
//!
//! Every object's content is summarized by a [`checksum`] registered at
//! allocation. Moves physically copy bytes (memmove semantics in relaxed
//! mode); [`DataStore::verify_object`] recomputes the checksum at the
//! current location, and [`DataStore::crash_and_verify`] checks that every
//! durably mapped object's bytes are intact at the mapped address — the
//! strongest form of the paper's durability argument. A durable copy is
//! checked against its own checksum: an id freed and allocated again since
//! the last checkpoint has a live copy with other bytes.
//!
//! Both kernels here work a 64-bit word at a time. The checksum reads
//! little-endian words (the last one zero-padded) into four independent
//! [`mix64`] chains, so a change confined to one word always changes it;
//! an object's pattern is one xorshift64 step per word, and an allocation
//! writes each word into the cells and checksums it in the same pass.
//!
//! [`SimStore`]: crate::SimStore

use realloc_common::hash::mix64;
use realloc_common::{Extent, IdMap, ObjectId, StorageOp};

use crate::store::{AddressWindow, Mode, SimStore, Violation};

/// The checksum of `len` bytes given as their little-endian words, the
/// last one zero-padded: word k steps lane k mod 4 by `lane = mix64(lane ^
/// word)`, the four lanes are folded with [`mix64`], then `len` is.
///
/// Every step is a bijection of the lane it steps, so two inputs of one
/// length that differ in one word always hash apart. Four lanes keep four
/// multiply chains in flight instead of one.
#[inline]
fn checksum_words(mut words: impl Iterator<Item = u64>, len: usize) -> u64 {
    let mut lanes = [0, 1, 2, 3];
    'words: loop {
        for lane in &mut lanes {
            let Some(word) = words.next() else {
                break 'words;
            };
            *lane = mix64(*lane ^ word);
        }
    }
    let folded = lanes.into_iter().fold(0, |h, lane| mix64(h ^ lane));
    mix64(folded ^ len as u64)
}

/// Up to 8 bytes as a little-endian word, zero-padded.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The workspace's object-content checksum: four [`mix64`] lanes over the
/// little-endian words of `bytes`, with the byte length folded in (see
/// the [module docs](self)).
///
/// This is what [`DataStore`] registers at allocation, what
/// [`DataStore::verify_object`] recomputes, what a cross-shard transfer
/// ships alongside its payload so the receiver can prove the bytes arrived
/// intact (see [`DataStore::adopt`]), and the CRC of every WAL frame and
/// checkpoint.
pub fn checksum(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let tail = (!words.remainder().is_empty()).then(|| le_word(words.remainder()));
    let whole = words.map(|word| u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")));
    checksum_words(whole.chain(tail), bytes.len())
}

/// The verification value for a cross-address-space transfer expected to
/// be `expected_len` cells: the content [`checksum`] with the payload
/// length folded against the expectation, so a truncated payload cannot
/// pass by checksumming its own prefix. Equal to `checksum(bytes)` exactly
/// when `bytes.len() == expected_len` — a sender therefore ships the plain
/// checksum, and every receiver-side check ([`DataStore::adopt`], and any
/// pre-insertion check a serving layer runs) goes through this one
/// function so the two can never disagree.
pub fn transfer_checksum(bytes: &[u8], expected_len: u64) -> u64 {
    checksum(bytes) ^ (bytes.len() as u64 ^ expected_len)
}

/// The little-endian words of [`pattern_for`], the last one zero-padded:
/// one xorshift64 step per word, cheap, well-distributed test data.
fn pattern_words(id: ObjectId, len: u64) -> impl Iterator<Item = u64> {
    let mut state = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(len);
    (0..len.div_ceil(8)).map(move |word| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // The last word keeps only the bytes left of the pattern.
        let left = len - 8 * word;
        if left >= 8 {
            state
        } else {
            state & (u64::MAX >> (64 - 8 * left))
        }
    })
}

/// Writes `id`'s pattern over `cells` a word at a time as the returned
/// iterator is drawn, yielding each word as [`checksum`] reads it.
fn write_pattern(id: ObjectId, cells: &mut [u8]) -> impl Iterator<Item = u64> + '_ {
    let words = pattern_words(id, cells.len() as u64);
    cells.chunks_mut(8).zip(words).map(|(cell, word)| {
        // A whole word is one 8-byte store, not a copy of a runtime length.
        match <&mut [u8; 8]>::try_from(&mut *cell) {
            Ok(whole) => *whole = word.to_le_bytes(),
            Err(_) => cell.copy_from_slice(&word.to_le_bytes()[..cell.len()]),
        }
        word
    })
}

/// Deterministic content for an object: a byte pattern derived from its id,
/// different for every (id, length) pair.
pub fn pattern_for(id: ObjectId, len: u64) -> Vec<u8> {
    let mut bytes = vec![0; len as usize];
    write_pattern(id, &mut bytes).for_each(drop);
    bytes
}

/// `checksum(&pattern_for(id, len))`, computed in one pass without
/// materializing the pattern — the digest a journal records for an
/// allocation and recovery proves against.
pub fn pattern_digest(id: ObjectId, len: u64) -> u64 {
    checksum_words(pattern_words(id, len), len as usize)
}

/// Outcome of a crash with byte-level verification.
#[derive(Debug, Default)]
pub struct DataRecoveryReport {
    /// Objects whose durable bytes verified correctly.
    pub intact: Vec<ObjectId>,
    /// Objects whose durable location no longer holds their bytes.
    pub corrupted: Vec<ObjectId>,
}

impl DataRecoveryReport {
    /// Whether no object was corrupted.
    pub fn is_durable(&self) -> bool {
        self.corrupted.is_empty()
    }
}

/// A [`SimStore`] plus an actual byte array and per-object checksums.
///
/// Its rule layer ([`rules`](Self::rules)) indexes occupancy with one bit
/// per cell, grown like the cells to the highest one written (an eighth of
/// their memory): a write tests and sets O(len / 64) words next to the
/// O(len) bytes it copies, and a checkpoint clears each ghost's bits. Only
/// a rejected write searches the live map and the ghost list for the span
/// it hit, so the [`Violation`]s are those a bare [`SimStore`] reports.
///
/// # Example: a round-trip with checksum verification
///
/// Allocate an object, move it, and prove the bytes survived both hops:
///
/// ```
/// use realloc_common::{Extent, ObjectId, StorageOp};
/// use storage_sim::{checksum, pattern_for, DataStore, Mode};
///
/// let mut store = DataStore::new(Mode::Strict);
/// let id = ObjectId(7);
/// store.apply(&StorageOp::Allocate { id, to: Extent::new(0, 64) }).unwrap();
///
/// // The cells now hold the object's deterministic pattern bytes.
/// let expected = checksum(&pattern_for(id, 64));
/// assert_eq!(store.checksum_of(id), Some(expected));
/// store.verify_object(id).unwrap();
///
/// // A (nonoverlapping) move physically copies the bytes; the checksum
/// // still verifies at the new address.
/// store.apply(&StorageOp::Move {
///     id,
///     from: Extent::new(0, 64),
///     to: Extent::new(100, 64),
/// }).unwrap();
/// assert_eq!(store.bytes_of(id).map(checksum), Some(expected));
/// store.verify_all().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct DataStore {
    rules: SimStore,
    cells: Vec<u8>,
    /// The checksum of each live object.
    checksums: IdMap<u64>,
    /// The checksum each durably mapped object had when its first free
    /// since the last checkpoint ended the copy that checkpoint made
    /// durable. Emptied by every checkpoint, so it never outgrows the
    /// durable map.
    freed: IdMap<u64>,
}

impl DataStore {
    /// An empty byte-carrying store in the given mode.
    pub fn new(mode: Mode) -> Self {
        DataStore {
            rules: SimStore::carrying_bytes(mode, None),
            cells: Vec::new(),
            checksums: IdMap::default(),
            freed: IdMap::default(),
        }
    }

    /// An empty byte-carrying store owning the address window `window`
    /// (see [`SimStore::windowed`]): writes reaching `window.span` are
    /// rejected, making per-shard stores provably disjoint slices of one
    /// global device.
    pub fn windowed(mode: Mode, window: AddressWindow) -> Self {
        DataStore {
            rules: SimStore::carrying_bytes(mode, Some(window)),
            cells: Vec::new(),
            checksums: IdMap::default(),
            freed: IdMap::default(),
        }
    }

    /// The underlying rule-checking store.
    pub fn rules(&self) -> &SimStore {
        &self.rules
    }

    /// The address window this store owns, if it is windowed.
    pub fn window(&self) -> Option<AddressWindow> {
        self.rules.window()
    }

    /// The bytes of a live object at its current placement.
    pub fn bytes_of(&self, id: ObjectId) -> Option<&[u8]> {
        self.rules.extent_of(id).map(|e| self.read(e))
    }

    /// The checksum registered for a live object (what its bytes *should*
    /// hash to; [`verify_object`](Self::verify_object) compares against the
    /// cells).
    pub fn checksum_of(&self, id: ObjectId) -> Option<u64> {
        self.checksums.get(&id).copied()
    }

    fn ensure_capacity(&mut self, end: u64) {
        if self.cells.len() < end as usize {
            self.cells.resize(end as usize, 0);
        }
    }

    /// The cells of `at`, grown into existence if needed.
    fn cells_mut(&mut self, at: Extent) -> &mut [u8] {
        self.ensure_capacity(at.end());
        &mut self.cells[at.offset as usize..at.end() as usize]
    }

    fn read(&self, at: Extent) -> &[u8] {
        &self.cells[at.offset as usize..at.end() as usize]
    }

    /// Replays one op: rule checking first, then the physical byte work.
    /// Allocations write the object's deterministic pattern straight into
    /// the cells a word at a time, checksumming each word on the way. A
    /// free drops the object's checksum, or keeps it until the next
    /// checkpoint while the durable map still names the copy it describes.
    /// O(1) hash operations per op, and per checkpoint one per object freed
    /// since the previous one.
    pub fn apply(&mut self, op: &StorageOp) -> Result<(), Violation> {
        self.rules.apply(op)?;
        match *op {
            StorageOp::Allocate { id, to } => {
                let digest = checksum_words(write_pattern(id, self.cells_mut(to)), to.len as usize);
                self.checksums.insert(id, digest);
            }
            StorageOp::Move { from, to, .. } => {
                // memmove semantics: correct even for self-overlapping
                // relaxed-mode moves.
                self.ensure_capacity(to.end().max(from.end()));
                self.cells.copy_within(
                    from.offset as usize..from.end() as usize,
                    to.offset as usize,
                );
            }
            StorageOp::Free { id, .. } => {
                if let Some(sum) = self.checksums.remove(&id) {
                    if self.rules.durable_btl().contains_key(&id) {
                        self.freed.entry(id).or_insert(sum);
                    }
                }
            }
            StorageOp::CheckpointBarrier => self.freed.clear(),
        }
        Ok(())
    }

    /// Replays a whole op stream, stopping at the first violation.
    pub fn apply_all(&mut self, ops: &[StorageOp]) -> Result<(), Violation> {
        ops.iter().try_for_each(|op| self.apply(op))
    }

    /// The receiving half of a cross-address-space transfer: place `id` at
    /// `to` holding `bytes` shipped from another store, after proving they
    /// arrived intact against the `expected` checksum the sender computed.
    ///
    /// A corrupted or truncated payload fails with
    /// [`Violation::DamagedTransfer`] *before* anything is written — the
    /// store is untouched, so the caller can refuse the transfer and leave
    /// the object with its sender. On success the transferred bytes (not a
    /// freshly generated pattern) are what lands in the cells, and
    /// `expected` is what later verification checks against — the transfer
    /// is byte-faithful end to end.
    pub fn adopt(
        &mut self,
        id: ObjectId,
        to: Extent,
        bytes: &[u8],
        expected: u64,
    ) -> Result<(), Violation> {
        let actual = transfer_checksum(bytes, to.len);
        if actual != expected {
            return Err(Violation::DamagedTransfer {
                id,
                expected,
                actual,
            });
        }
        self.rules.apply(&StorageOp::Allocate { id, to })?;
        self.checksums.insert(id, expected);
        self.cells_mut(to).copy_from_slice(bytes);
        Ok(())
    }

    /// Recomputes the checksum of a live object at its current location.
    pub fn verify_object(&self, id: ObjectId) -> Result<(), String> {
        let ext = self
            .rules
            .extent_of(id)
            .ok_or_else(|| format!("{id} is not live"))?;
        let expected = self
            .checksums
            .get(&id)
            .ok_or_else(|| format!("{id} has no checksum"))?;
        let actual = checksum(self.read(ext));
        if actual == *expected {
            Ok(())
        } else {
            Err(format!(
                "{id} corrupted at {ext}: checksum {actual:#x} != {expected:#x}"
            ))
        }
    }

    /// Verifies every live object's bytes.
    pub fn verify_all(&self) -> Result<(), String> {
        self.rules
            .live_ids()
            .try_for_each(|id| self.verify_object(id))
    }

    /// Fault injection (testing): flips one byte of a live object's cells
    /// *without* touching its registered checksum, so the next
    /// verification of the object fails. Returns whether the object was
    /// live (nothing is corrupted otherwise). This models silent media
    /// corruption — the rule-level state stays consistent; only the bytes
    /// lie.
    pub fn corrupt_object(&mut self, id: ObjectId) -> bool {
        match self.rules.extent_of(id) {
            Some(ext) if ext.len > 0 => {
                self.cells[ext.offset as usize] ^= 0x01;
                true
            }
            _ => false,
        }
    }

    /// Simulates a crash: for every object in the durable translation map,
    /// recompute the checksum of the bytes at the *mapped* address and
    /// compare it with the checksum of the copy the last checkpoint made
    /// durable. This is stronger than [`SimStore::crash_and_recover`]: it
    /// detects a stale map entry whose cells were physically overwritten,
    /// not only rule-level violations.
    pub fn crash_and_verify(&self) -> DataRecoveryReport {
        let mut report = DataRecoveryReport::default();
        for (&id, &ext) in self.rules.durable_btl() {
            let durable = self.freed.get(&id).or_else(|| self.checksums.get(&id));
            let intact = self.cells.len() >= ext.end() as usize
                && durable == Some(&checksum(self.read(ext)));
            if intact {
                report.intact.push(id);
            } else {
                report.corrupted.push(id);
            }
        }
        report.intact.sort_unstable();
        report.corrupted.sort_unstable();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }
    fn ext(o: u64, l: u64) -> Extent {
        Extent::new(o, l)
    }

    #[test]
    fn pattern_is_deterministic_and_id_specific() {
        assert_eq!(pattern_for(id(1), 64), pattern_for(id(1), 64));
        assert_ne!(pattern_for(id(1), 64), pattern_for(id(2), 64));
        assert_eq!(pattern_for(id(1), 64).len(), 64);
    }

    #[test]
    fn checksum_catches_one_word_changes_and_the_length() {
        // 25 whole words and a 3-byte tail.
        let bytes = pattern_for(id(5), 203);
        let sum = checksum(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&flipped), sum, "bit {bit} flipped");
        }
        // Bit 63 of two whole words: neighbours (two lanes) and words four
        // apart (one lane).
        let whole = bytes.len() / 8;
        for (k, j) in (0..whole).flat_map(|k| [(k, k + 1), (k, k + 4)]) {
            if j < whole {
                let mut flipped = bytes.clone();
                flipped[8 * k + 7] ^= 0x80;
                flipped[8 * j + 7] ^= 0x80;
                assert_ne!(checksum(&flipped), sum, "bit 63 of words {k} and {j}");
            }
        }
        // One more zero byte: the ragged buffer pads to the same words, so
        // only the folded length tells them apart.
        for b in [&bytes[..], &bytes[..200]] {
            let longer = [b, &[0]].concat();
            assert_ne!(checksum(&longer), checksum(b), "{} bytes", b.len());
            assert_ne!(transfer_checksum(&longer, b.len() as u64), checksum(b));
        }
    }

    #[test]
    fn pattern_digest_matches_the_materialized_pattern() {
        let ids = (0..64).chain([u64::MAX, u64::MAX / 3, 0x9E37_79B9_7F4A_7C15]);
        for raw in ids {
            for len in 0..=300 {
                assert_eq!(
                    pattern_digest(id(raw), len),
                    checksum(&pattern_for(id(raw), len)),
                    "id {raw}, len {len}"
                );
            }
        }
    }

    #[test]
    fn allocation_registers_the_pattern_digest() {
        let mut store = DataStore::new(Mode::Strict);
        for n in 1..=50 {
            let to = ext(n * 200, n * 3);
            store.apply(&StorageOp::Allocate { id: id(n), to }).unwrap();
            assert_eq!(
                store.checksum_of(id(n)),
                Some(pattern_digest(id(n), to.len))
            );
            assert_eq!(store.bytes_of(id(n)), Some(&pattern_for(id(n), to.len)[..]));
        }
    }

    #[test]
    fn bytes_survive_moves() {
        let mut store = DataStore::new(Mode::Strict);
        store
            .apply(&StorageOp::Allocate {
                id: id(1),
                to: ext(0, 100),
            })
            .unwrap();
        store.verify_object(id(1)).unwrap();
        store
            .apply(&StorageOp::Move {
                id: id(1),
                from: ext(0, 100),
                to: ext(200, 100),
            })
            .unwrap();
        store.verify_object(id(1)).unwrap();
    }

    #[test]
    fn self_overlapping_relaxed_move_is_memmove_correct() {
        let mut store = DataStore::new(Mode::Relaxed);
        store
            .apply(&StorageOp::Allocate {
                id: id(1),
                to: ext(50, 100),
            })
            .unwrap();
        // Shift left by less than the length: memcpy would corrupt this.
        store
            .apply(&StorageOp::Move {
                id: id(1),
                from: ext(50, 100),
                to: ext(10, 100),
            })
            .unwrap();
        store.verify_object(id(1)).unwrap();
        // And right again.
        store
            .apply(&StorageOp::Move {
                id: id(1),
                from: ext(10, 100),
                to: ext(60, 100),
            })
            .unwrap();
        store.verify_object(id(1)).unwrap();
    }

    #[test]
    fn crash_verification_reads_durable_copies() {
        let mut store = DataStore::new(Mode::Strict);
        store
            .apply(&StorageOp::Allocate {
                id: id(1),
                to: ext(0, 40),
            })
            .unwrap();
        store.apply(&StorageOp::CheckpointBarrier).unwrap();
        // Move after the checkpoint: durable map still points at [0, 40).
        store
            .apply(&StorageOp::Move {
                id: id(1),
                from: ext(0, 40),
                to: ext(100, 40),
            })
            .unwrap();
        let report = store.crash_and_verify();
        assert!(report.is_durable(), "old copy must still hold the bytes");
    }

    #[test]
    fn corruption_detected_if_rules_bypassed() {
        // Relaxed mode allows immediate reuse; the durable copy gets
        // physically overwritten and the byte-level check must catch it.
        let mut store = DataStore::new(Mode::Relaxed);
        store
            .apply(&StorageOp::Allocate {
                id: id(1),
                to: ext(0, 40),
            })
            .unwrap();
        store.apply(&StorageOp::CheckpointBarrier).unwrap();
        store
            .apply(&StorageOp::Move {
                id: id(1),
                from: ext(0, 40),
                to: ext(100, 40),
            })
            .unwrap();
        store
            .apply(&StorageOp::Allocate {
                id: id(2),
                to: ext(0, 40),
            })
            .unwrap();
        let report = store.crash_and_verify();
        assert_eq!(report.corrupted, vec![id(1)]);
    }

    #[test]
    fn adopt_is_byte_faithful_and_rejects_damage() {
        // Source store: object 1's pattern bytes at some address.
        let mut source = DataStore::windowed(Mode::Relaxed, AddressWindow::for_shard(0, 1 << 16));
        source
            .apply(&StorageOp::Allocate {
                id: id(1),
                to: ext(40, 64),
            })
            .unwrap();
        let payload = source.bytes_of(id(1)).unwrap().to_vec();
        let sum = source.checksum_of(id(1)).unwrap();
        assert_eq!(sum, checksum(&payload));

        // Target store (a different window): adoption verifies and lands
        // the *transferred* bytes.
        let mut target = DataStore::windowed(Mode::Relaxed, AddressWindow::for_shard(1, 1 << 16));
        target.adopt(id(1), ext(0, 64), &payload, sum).unwrap();
        assert_eq!(target.bytes_of(id(1)), Some(&payload[..]));
        target.verify_object(id(1)).unwrap();

        // One flipped byte: refused before anything is written.
        let mut damaged = payload.clone();
        damaged[13] ^= 0x40;
        let mut t2 = DataStore::new(Mode::Relaxed);
        let err = t2.adopt(id(2), ext(0, 64), &damaged, sum).unwrap_err();
        assert!(matches!(err, Violation::DamagedTransfer { .. }));
        assert_eq!(t2.rules().live_count(), 0, "failed adoption wrote state");

        // A truncated payload is damage too, even with its own checksum.
        let truncated = &payload[..32];
        let err = t2
            .adopt(id(2), ext(0, 64), truncated, checksum(truncated))
            .unwrap_err();
        assert!(matches!(err, Violation::DamagedTransfer { .. }));
    }

    #[test]
    fn a_durable_copy_verifies_against_its_own_checksum() {
        let mut store = DataStore::new(Mode::Strict);
        let x = id(1);
        let apply = |store: &mut DataStore, op: StorageOp| store.apply(&op).unwrap();
        apply(
            &mut store,
            StorageOp::Allocate {
                id: x,
                to: ext(0, 10),
            },
        );
        apply(&mut store, StorageOp::CheckpointBarrier);
        // X comes back at a new size before the next checkpoint: the
        // durable map still names the old copy at [0, 10).
        apply(
            &mut store,
            StorageOp::Free {
                id: x,
                at: ext(0, 10),
            },
        );
        apply(
            &mut store,
            StorageOp::Allocate {
                id: x,
                to: ext(20, 16),
            },
        );
        assert_eq!(store.crash_and_verify().intact, vec![x]);
        store.verify_object(x).unwrap();
        // A second life within the same epoch never became durable.
        apply(
            &mut store,
            StorageOp::Free {
                id: x,
                at: ext(20, 16),
            },
        );
        apply(
            &mut store,
            StorageOp::Allocate {
                id: x,
                to: ext(40, 5),
            },
        );
        assert_eq!(store.crash_and_verify().intact, vec![x]);
        apply(&mut store, StorageOp::CheckpointBarrier);
        assert_eq!(store.rules().durable_btl().get(&x), Some(&ext(40, 5)));
        assert_eq!(store.crash_and_verify().intact, vec![x]);
        // The durable copy's own bytes are still checked.
        assert!(store.corrupt_object(x));
        assert_eq!(store.crash_and_verify().corrupted, vec![x]);
    }

    #[test]
    fn checksums_are_kept_for_live_and_durable_copies_only() {
        // Distinct ids, each allocated, freed and gone: with a checkpoint
        // around every free, and with none (where nothing is durable).
        for (mode, checkpoints) in [
            (Mode::Strict, true),
            (Mode::Relaxed, true),
            (Mode::Strict, false),
            (Mode::Relaxed, false),
        ] {
            let mut store = DataStore::new(mode);
            let mut at = 0;
            for n in 0..10_000 {
                let to = ext(at, 8);
                store.apply(&StorageOp::Allocate { id: id(n), to }).unwrap();
                if checkpoints {
                    store.apply(&StorageOp::CheckpointBarrier).unwrap();
                }
                store.apply(&StorageOp::Free { id: id(n), at: to }).unwrap();
                assert!(store.freed.len() <= 1, "{mode:?}: op {n}");
                if checkpoints {
                    store.apply(&StorageOp::CheckpointBarrier).unwrap();
                } else if mode == Mode::Strict {
                    // Freed cells stay unwritable until a checkpoint.
                    at += 8;
                }
            }
            assert_eq!(store.rules().live_count(), 0);
            assert_eq!((store.checksums.len(), store.freed.len()), (0, 0));
        }
        // One checkpoint, then every durable object freed and reallocated
        // twice: at most one checksum per durable copy is kept aside.
        let mut store = DataStore::new(Mode::Strict);
        for n in 0..100 {
            let to = ext(n * 8, 8);
            store.apply(&StorageOp::Allocate { id: id(n), to }).unwrap();
        }
        store.apply(&StorageOp::CheckpointBarrier).unwrap();
        let mut at = 800;
        for _ in 0..2 {
            for n in 0..100 {
                let from = store.rules().extent_of(id(n)).unwrap();
                store
                    .apply(&StorageOp::Free {
                        id: id(n),
                        at: from,
                    })
                    .unwrap();
                let to = ext(at, 4);
                store.apply(&StorageOp::Allocate { id: id(n), to }).unwrap();
                at += 4;
            }
        }
        assert_eq!((store.checksums.len(), store.freed.len()), (100, 100));
        assert!(store.crash_and_verify().is_durable());
        store.verify_all().unwrap();
        store.apply(&StorageOp::CheckpointBarrier).unwrap();
        assert_eq!((store.checksums.len(), store.freed.len()), (100, 0));
        assert!(store.crash_and_verify().is_durable());
    }

    #[test]
    fn verify_all_covers_every_live_object() {
        let mut store = DataStore::new(Mode::Strict);
        for n in 0..20 {
            store
                .apply(&StorageOp::Allocate {
                    id: id(n),
                    to: ext(n * 50, 30 + n),
                })
                .unwrap();
        }
        store.verify_all().unwrap();
    }
}

//! Per-shard write-ahead log with group commit, plus the checkpoint file
//! that truncates it.
//!
//! Each shard worker journals a [`WalRecord`] for every *applied* physical
//! op (allocations, flush copies, frees, cross-shard transfers) and every
//! route flip, buffering records in memory and writing them as **one framed
//! group commit per command boundary** — the WAL analogue of the engine's
//! channel batching, and the reason a WAL'd shard writes one frame per
//! batch instead of one per op. A commit reaches the OS page cache; none
//! syncs the device yet. Records that were appended but never committed
//! are exactly the work a crash is allowed to lose; everything inside a
//! committed frame is recovered.
//!
//! ## Frame format
//!
//! ```text
//!   [ magic "WAL1" u32 ][ crc u64 ][ epoch u32 ][ payload_len u32 ]
//!   [ payload: records, each tag u8 + fields as u64 LE ]
//! ```
//!
//! The CRC is the substrate's object [`checksum`] over every byte after
//! itself: the epoch, the payload length and the payload. Replay stops at
//! the first frame whose header is short, whose payload is truncated, or
//! whose CRC disagrees — a torn tail from a crash mid-commit, or a frame
//! whose epoch or length was damaged, is *discarded*, never half-applied.
//! A checkpoint file has the same header, with its entry count in place
//! of the payload length.
//!
//! ## Checkpoint / truncate protocol
//!
//! A checkpoint captures the shard's full durable state (live extents with
//! byte digests + which ids the routing table assigns to this shard) under
//! `epoch + 1`, written to a temp file and atomically renamed; only then is
//! the log truncated and the writer's epoch advanced. Replay skips frames
//! whose epoch is *older* than the checkpoint's, so a crash between the
//! rename and the truncate is safe: the stale frames describe state the
//! checkpoint already contains.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use realloc_common::ObjectId;

use crate::data::checksum;

/// Frame magic: `b"WAL1"`.
const WAL_MAGIC: u32 = u32::from_le_bytes(*b"WAL1");
/// Checkpoint magic: `b"CKP1"`.
const CKPT_MAGIC: u32 = u32::from_le_bytes(*b"CKP1");
/// Frame and checkpoint header: magic + crc + epoch + payload_len (a
/// checkpoint's entry count).
const FRAME_HEADER: usize = 4 + 8 + 4 + 4;
/// Where the CRC's coverage starts: right after the CRC itself.
const COVERED: usize = 12;

/// Fills the header gap at the front of `buf`, a frame or checkpoint whose
/// payload follows [`FRAME_HEADER`] zero bytes: the CRC goes in last, over
/// every byte after itself.
fn seal(buf: &mut [u8], magic: u32, epoch: u32, count: u32) {
    buf[0..4].copy_from_slice(&magic.to_le_bytes());
    buf[12..16].copy_from_slice(&epoch.to_le_bytes());
    buf[16..FRAME_HEADER].copy_from_slice(&count.to_le_bytes());
    let crc = checksum(&buf[COVERED..]);
    buf[4..COVERED].copy_from_slice(&crc.to_le_bytes());
}

/// The CRC, epoch and count of the header at the front of `bytes` (at
/// least [`FRAME_HEADER`] long), or `None` if its magic is not `magic`.
/// None of them is checked yet: the caller checksums what the CRC covers.
fn header(bytes: &[u8], magic: u32) -> Option<(u64, u32, u32)> {
    let word = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("a 4-byte field"));
    let crc = u64::from_le_bytes(bytes[4..COVERED].try_into().expect("an 8-byte field"));
    (word(0) == magic).then(|| (crc, word(12), word(16)))
}

/// One journaled event. Everything a shard does that affects durable state
/// maps to exactly one record; replaying the committed records over the
/// last checkpoint reproduces the shard's live set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord {
    /// An object was allocated (insert or migrate-arrival) at `offset`
    /// with `len` cells whose bytes hash to `digest`.
    Allocate {
        /// The object.
        id: ObjectId,
        /// Start address inside the shard's window.
        offset: u64,
        /// Cells.
        len: u64,
        /// [`checksum`] of the object's bytes at allocation time.
        digest: u64,
    },
    /// A flush copy moved an object inside the shard (bytes unchanged).
    Move {
        /// The object.
        id: ObjectId,
        /// Old start address.
        from: u64,
        /// New start address.
        to: u64,
        /// Cells.
        len: u64,
    },
    /// An object was freed (delete or post-move release).
    Free {
        /// The object.
        id: ObjectId,
        /// Start address of the freed extent.
        offset: u64,
        /// Cells.
        len: u64,
    },
    /// The object left this shard in cross-shard transfer `xfer`.
    MigrateOut {
        /// The object.
        id: ObjectId,
        /// Cells shipped.
        size: u64,
        /// Globally unique transfer sequence number (pairs this record
        /// with the target's [`WalRecord::MigrateIn`]).
        xfer: u64,
    },
    /// The object arrived on this shard in cross-shard transfer `xfer`.
    MigrateIn {
        /// The object.
        id: ObjectId,
        /// Start address inside this shard's window.
        offset: u64,
        /// Cells.
        len: u64,
        /// [`checksum`] of the shipped payload bytes, verified on arrival.
        digest: u64,
        /// The transfer this arrival completes.
        xfer: u64,
    },
    /// The routing table now assigns `id` to `shard` (journaled by the
    /// *target* shard of transfer `xfer`, after its `MigrateIn`).
    RouteFlip {
        /// The re-homed object.
        id: ObjectId,
        /// Its new owner.
        shard: u64,
        /// The transfer that earned the flip.
        xfer: u64,
    },
}

impl WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut put = |tag: u8, fields: &[u64]| {
            out.push(tag);
            for f in fields {
                out.extend_from_slice(&f.to_le_bytes());
            }
        };
        match *self {
            WalRecord::Allocate {
                id,
                offset,
                len,
                digest,
            } => put(1, &[id.0, offset, len, digest]),
            WalRecord::Move { id, from, to, len } => put(2, &[id.0, from, to, len]),
            WalRecord::Free { id, offset, len } => put(3, &[id.0, offset, len]),
            WalRecord::MigrateOut { id, size, xfer } => put(4, &[id.0, size, xfer]),
            WalRecord::MigrateIn {
                id,
                offset,
                len,
                digest,
                xfer,
            } => put(5, &[id.0, offset, len, digest, xfer]),
            WalRecord::RouteFlip { id, shard, xfer } => put(6, &[id.0, shard, xfer]),
        }
    }

    fn decode(buf: &[u8], at: &mut usize) -> Option<WalRecord> {
        let tag = *buf.get(*at)?;
        *at += 1;
        let mut field = || -> Option<u64> {
            let bytes = buf.get(*at..*at + 8)?;
            *at += 8;
            Some(u64::from_le_bytes(bytes.try_into().unwrap()))
        };
        Some(match tag {
            1 => WalRecord::Allocate {
                id: ObjectId(field()?),
                offset: field()?,
                len: field()?,
                digest: field()?,
            },
            2 => WalRecord::Move {
                id: ObjectId(field()?),
                from: field()?,
                to: field()?,
                len: field()?,
            },
            3 => WalRecord::Free {
                id: ObjectId(field()?),
                offset: field()?,
                len: field()?,
            },
            4 => WalRecord::MigrateOut {
                id: ObjectId(field()?),
                size: field()?,
                xfer: field()?,
            },
            5 => WalRecord::MigrateIn {
                id: ObjectId(field()?),
                offset: field()?,
                len: field()?,
                digest: field()?,
                xfer: field()?,
            },
            6 => WalRecord::RouteFlip {
                id: ObjectId(field()?),
                shard: field()?,
                xfer: field()?,
            },
            _ => return None,
        })
    }
}

/// The log file for shard `shard` under `dir`.
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

/// The checkpoint file for shard `shard` under `dir`.
pub fn checkpoint_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.ckpt"))
}

/// An appender over one shard's log: [`append`](Self::append) buffers,
/// [`commit`](Self::commit) writes everything buffered as one frame. The
/// log stays open (in append mode) for the writer's lifetime.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    epoch: u32,
    pending: Vec<WalRecord>,
    /// The frame being built, reused across commits.
    frame: Vec<u8>,
    records: u64,
    bytes: u64,
    commits: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `path`, stamping future frames
    /// with `epoch` — pass the epoch of the checkpoint recovery loaded, or
    /// 0 for a fresh shard.
    pub fn open(path: &Path, epoch: u32) -> std::io::Result<WalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter {
            file,
            epoch,
            pending: Vec::new(),
            frame: Vec::new(),
            records: 0,
            bytes: 0,
            commits: 0,
        })
    }

    /// Buffers one record for the next group commit. Nothing is durable
    /// until [`commit`](Self::commit).
    pub fn append(&mut self, record: WalRecord) {
        self.pending.push(record);
    }

    /// Writes every buffered record as one framed group commit. Returns the
    /// frame bytes written (0 if nothing was pending — an empty batch costs
    /// no I/O).
    ///
    /// The frame reaches the OS page cache, not the device: `File::flush`
    /// is a no-op, and nothing calls `sync_data` yet (ROADMAP direction 3).
    pub fn commit(&mut self) -> std::io::Result<u64> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        // Encode the payload behind a header-sized gap, then fill the gap.
        let frame = &mut self.frame;
        frame.clear();
        frame.resize(FRAME_HEADER, 0);
        for rec in &self.pending {
            rec.encode(frame);
        }
        let payload_len = (frame.len() - FRAME_HEADER) as u32;
        seal(frame, WAL_MAGIC, self.epoch, payload_len);

        self.file.write_all(frame)?;
        self.file.flush()?;

        let written = frame.len() as u64;
        self.records += self.pending.len() as u64;
        self.bytes += written;
        self.commits += 1;
        self.pending.clear();
        Ok(written)
    }

    /// Truncates the log and advances the writer to `epoch` — call only
    /// *after* the checkpoint carrying `epoch` is durably renamed. The log
    /// is opened in append mode, so the next frame lands at offset 0.
    pub fn truncate_to_epoch(&mut self, epoch: u32) -> std::io::Result<()> {
        debug_assert!(self.pending.is_empty(), "commit before checkpointing");
        self.file.set_len(0)?;
        self.epoch = epoch;
        Ok(())
    }

    /// The epoch future frames will carry.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Records buffered but not yet committed (lost if the process dies).
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// Records committed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Frame bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Group commits (frames) written so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }
}

/// One committed frame read back from a log, with the byte offset of its
/// end — the kill-point matrix truncates a log at exactly these offsets to
/// simulate a crash after each group commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalGroup {
    /// The epoch the frame was stamped with.
    pub epoch: u32,
    /// The records the group committed, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset one past this frame in the file.
    pub end_offset: u64,
}

/// Reads every intact committed group from the log at `path`. A missing
/// file is an empty log. A torn or corrupt tail (short header, truncated
/// payload, CRC mismatch over the epoch, length or payload, bad magic,
/// malformed record) ends the scan at the last intact frame — exactly the
/// crash-discard semantics replay wants.
pub fn read_wal(path: &Path) -> std::io::Result<Vec<WalGroup>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }

    let mut groups = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= FRAME_HEADER {
        let frame = &bytes[at..];
        let Some((crc, epoch, payload_len)) = header(frame, WAL_MAGIC) else {
            break;
        };
        let end = FRAME_HEADER + payload_len as usize;
        let Some(covered) = frame.get(COVERED..end) else {
            break; // torn tail: frame promised more payload than exists
        };
        if checksum(covered) != crc {
            break; // corrupt frame: treat it (and everything after) as lost
        }
        let payload = &frame[FRAME_HEADER..end];
        let mut records = Vec::new();
        let mut pos = 0usize;
        let mut intact = true;
        while pos < payload.len() {
            match WalRecord::decode(payload, &mut pos) {
                Some(rec) => records.push(rec),
                None => {
                    intact = false;
                    break;
                }
            }
        }
        if !intact {
            break;
        }
        at += end;
        groups.push(WalGroup {
            epoch,
            records,
            end_offset: at as u64,
        });
    }
    Ok(groups)
}

/// One live object (or routing assignment) in a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The object.
    pub id: ObjectId,
    /// Start address inside the shard's window at checkpoint time.
    pub offset: u64,
    /// Cells.
    pub len: u64,
    /// [`checksum`] of the object's bytes at checkpoint time.
    pub digest: u64,
    /// Whether the routing table explicitly assigns this id to the shard
    /// (true for ids living off the rendezvous fallback — the tiny
    /// assignment table rides inside the shard checkpoint).
    pub assigned: bool,
}

/// A shard's durable state at a quiesce barrier.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// The epoch this checkpoint begins; log frames stamped with an older
    /// epoch predate it and are skipped on replay.
    pub epoch: u32,
    /// Every live object, with its routing-assignment flag.
    pub entries: Vec<CheckpointEntry>,
}

/// Writes `ckpt` to `path` atomically (temp file + rename), so a crash
/// mid-checkpoint leaves the previous checkpoint intact.
pub fn write_checkpoint(path: &Path, ckpt: &Checkpoint) -> std::io::Result<()> {
    let mut bytes = vec![0; FRAME_HEADER];
    bytes.reserve(ckpt.entries.len() * 33);
    for e in &ckpt.entries {
        bytes.extend_from_slice(&e.id.0.to_le_bytes());
        bytes.extend_from_slice(&e.offset.to_le_bytes());
        bytes.extend_from_slice(&e.len.to_le_bytes());
        bytes.extend_from_slice(&e.digest.to_le_bytes());
        bytes.push(e.assigned as u8);
    }
    let count = ckpt.entries.len() as u32;
    seal(&mut bytes, CKPT_MAGIC, ckpt.epoch, count);

    let tmp = path.with_extension("ckpt.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.flush()?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads the checkpoint at `path`; `Ok(None)` if none was ever written.
/// Unlike the log (whose tail may legitimately be torn), a checkpoint is
/// renamed into place atomically, so corruption here is a hard error.
pub fn read_checkpoint(path: &Path) -> std::io::Result<Option<Checkpoint>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    let corrupt = || std::io::Error::new(std::io::ErrorKind::InvalidData, "corrupt checkpoint");
    if bytes.len() < FRAME_HEADER {
        return Err(corrupt());
    }
    let Some((crc, epoch, count)) = header(&bytes, CKPT_MAGIC) else {
        return Err(corrupt());
    };
    let count = count as usize;
    let payload = &bytes[FRAME_HEADER..];
    if payload.len() != count * 33 || checksum(&bytes[COVERED..]) != crc {
        return Err(corrupt());
    }
    let mut entries = Vec::with_capacity(count);
    for chunk in payload.chunks_exact(33) {
        let field = |o: usize| u64::from_le_bytes(chunk[o..o + 8].try_into().unwrap());
        entries.push(CheckpointEntry {
            id: ObjectId(field(0)),
            offset: field(8),
            len: field(16),
            digest: field(24),
            assigned: chunk[32] != 0,
        });
    }
    Ok(Some(Checkpoint { epoch, entries }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("realloc-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Allocate {
                id: ObjectId(7),
                offset: 0,
                len: 16,
                digest: 0xdead,
            },
            WalRecord::Move {
                id: ObjectId(7),
                from: 0,
                to: 32,
                len: 16,
            },
            WalRecord::Free {
                id: ObjectId(9),
                offset: 64,
                len: 8,
            },
            WalRecord::MigrateOut {
                id: ObjectId(7),
                size: 16,
                xfer: 3,
            },
            WalRecord::MigrateIn {
                id: ObjectId(11),
                offset: 128,
                len: 4,
                digest: 0xbeef,
                xfer: 4,
            },
            WalRecord::RouteFlip {
                id: ObjectId(11),
                shard: 2,
                xfer: 4,
            },
        ]
    }

    #[test]
    fn group_commit_round_trips_every_record_kind() {
        let dir = tmpdir("roundtrip");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::open(&path, 5).unwrap();
        for rec in sample_records() {
            w.append(rec);
        }
        assert_eq!(w.pending_records(), 6);
        assert_eq!(w.commits(), 0, "append alone must not touch the file");
        assert!(read_wal(&path).unwrap().is_empty());

        let frame = w.commit().unwrap();
        assert!(frame > 0);
        assert_eq!((w.records(), w.commits(), w.bytes()), (6, 1, frame));

        let groups = read_wal(&path).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].epoch, 5);
        assert_eq!(groups[0].records, sample_records());
        assert_eq!(groups[0].end_offset, frame);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_follow_the_documented_layout() {
        let dir = tmpdir("layout");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::open(&path, 9).unwrap();
        let mut frames = Vec::new();
        for n in 1..=3u64 {
            w.append(WalRecord::Free {
                id: ObjectId(n),
                offset: 8 * n,
                len: 8,
            });
            w.commit().unwrap();
            // The CRC covers the epoch, the payload length and the payload.
            let mut covered = 9u32.to_le_bytes().to_vec();
            covered.extend_from_slice(&25u32.to_le_bytes());
            covered.push(3);
            for field in [n, 8 * n, 8] {
                covered.extend_from_slice(&field.to_le_bytes());
            }
            frames.extend_from_slice(b"WAL1");
            frames.extend_from_slice(&checksum(&covered).to_le_bytes());
            frames.extend_from_slice(&covered);
        }
        assert_eq!(std::fs::read(&path).unwrap(), frames);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_commit_is_free() {
        let dir = tmpdir("empty");
        let mut w = WalWriter::open(&wal_path(&dir, 0), 0).unwrap();
        assert_eq!(w.commit().unwrap(), 0);
        assert_eq!((w.commits(), w.bytes()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_at_every_cut() {
        let dir = tmpdir("torn");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::open(&path, 1).unwrap();
        w.append(WalRecord::Allocate {
            id: ObjectId(1),
            offset: 0,
            len: 8,
            digest: 1,
        });
        w.commit().unwrap();
        let first = read_wal(&path).unwrap()[0].end_offset;
        w.append(WalRecord::Free {
            id: ObjectId(1),
            offset: 0,
            len: 8,
        });
        w.commit().unwrap();
        let whole = std::fs::read(&path).unwrap();

        // Cut the file at every byte inside the second frame: the first
        // group always survives, the torn second is always discarded.
        for cut in first as usize..whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let groups = read_wal(&path).unwrap();
            assert_eq!(groups.len(), 1, "cut at {cut}");
            assert_eq!(groups[0].end_offset, first);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_ends_the_scan() {
        let dir = tmpdir("corrupt");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::open(&path, 0).unwrap();
        w.append(WalRecord::Allocate {
            id: ObjectId(1),
            offset: 0,
            len: 8,
            digest: 1,
        });
        w.commit().unwrap();
        w.append(WalRecord::Allocate {
            id: ObjectId(2),
            offset: 8,
            len: 8,
            digest: 2,
        });
        w.commit().unwrap();
        let whole = std::fs::read(&path).unwrap();
        let first_end = read_wal(&path).unwrap()[0].end_offset;
        // Every byte of frame 2, header included: its epoch and length are
        // as much the CRC's as its payload.
        for at in first_end as usize..whole.len() {
            let mut bytes = whole.clone();
            bytes[at] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let groups = read_wal(&path).unwrap();
            assert_eq!(groups.len(), 1, "byte {at} flipped");
            assert_eq!(groups[0].end_offset, first_end);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_is_empty() {
        let dir = tmpdir("missing");
        assert!(read_wal(&wal_path(&dir, 3)).unwrap().is_empty());
        assert!(read_checkpoint(&checkpoint_path(&dir, 3))
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_advances_epoch_and_clears_log() {
        let dir = tmpdir("truncate");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::open(&path, 0).unwrap();
        w.append(WalRecord::Allocate {
            id: ObjectId(1),
            offset: 0,
            len: 8,
            digest: 1,
        });
        w.commit().unwrap();
        w.truncate_to_epoch(1).unwrap();
        assert_eq!(w.epoch(), 1);
        assert!(read_wal(&path).unwrap().is_empty());
        w.append(WalRecord::Free {
            id: ObjectId(1),
            offset: 0,
            len: 8,
        });
        w.commit().unwrap();
        let groups = read_wal(&path).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].epoch, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_round_trips_and_is_atomic() {
        let dir = tmpdir("ckpt");
        let path = checkpoint_path(&dir, 2);
        let ckpt = Checkpoint {
            epoch: 4,
            entries: vec![
                CheckpointEntry {
                    id: ObjectId(1),
                    offset: 0,
                    len: 16,
                    digest: 0xaa,
                    assigned: false,
                },
                CheckpointEntry {
                    id: ObjectId(2),
                    offset: 16,
                    len: 4,
                    digest: 0xbb,
                    assigned: true,
                },
            ],
        };
        write_checkpoint(&path, &ckpt).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().unwrap(), ckpt);
        assert!(
            !path.with_extension("ckpt.tmp").exists(),
            "temp file must be renamed away"
        );

        // Overwriting is atomic too: the new checkpoint fully replaces it.
        let newer = Checkpoint {
            epoch: 5,
            entries: Vec::new(),
        };
        write_checkpoint(&path, &newer).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().unwrap(), newer);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_a_hard_error() {
        let dir = tmpdir("ckpt-corrupt");
        let path = checkpoint_path(&dir, 0);
        let ckpt = Checkpoint {
            epoch: 1,
            entries: vec![CheckpointEntry {
                id: ObjectId(1),
                offset: 0,
                len: 8,
                digest: 9,
                assigned: false,
            }],
        };
        write_checkpoint(&path, &ckpt).unwrap();
        let whole = std::fs::read(&path).unwrap();
        for at in 0..whole.len() {
            let mut bytes = whole.clone();
            bytes[at] ^= 1;
            std::fs::write(&path, &bytes).unwrap();
            assert!(read_checkpoint(&path).is_err(), "byte {at} flipped");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#![warn(missing_docs)]
//! Simulated database storage substrate.
//!
//! The paper (Section 3.1) abstracts a database's storage engine — modelled
//! on TokuDB's *block translation layer* — to three rules:
//!
//! 1. **Names are immutable, addresses are not.** Requests refer to objects
//!    by name; a translation layer maps names to physical extents and is
//!    written out durably at every checkpoint.
//! 2. **Nonoverlapping moves.** Object writes are not atomic, so an object's
//!    new location must be disjoint from its old one.
//! 3. **The freed-space rule.** Space freed after the last checkpoint may
//!    not be rewritten until the next checkpoint completes; otherwise a
//!    crash could lose the only durable copy of an object.
//!
//! [`SimStore`] replays a reallocator's [`StorageOp`] stream while enforcing
//! whichever of these rules the selected [`Mode`] demands, maintains the
//! durable translation map, and can simulate a crash at any instant to
//! verify that recovery from the last checkpoint finds every mapped object
//! intact. [`DataStore`] layers actual bytes (and per-object [`checksum`]s)
//! on top, so corruption — not only rule violations — is detectable, and
//! [`AddressWindow`]-bounded stores give a sharded engine provably disjoint
//! per-shard slices of one global device, with
//! [`DataStore::adopt`] verifying every cross-window transfer's bytes on
//! arrival.
//!
//! Each write asks one question of an occupancy index: does its target
//! touch a live object or a space freed since the last checkpoint? A bare
//! [`SimStore`] indexes occupied spans by offset, so its addresses may be
//! as large as the workload's volume cap; a [`DataStore`], whose cells
//! already bound its addresses, keeps one bit per cell and answers in
//! O(len / 64) words. The rest of the rule layer is shared, so both give
//! the same [`Violation`] for every op.
//!
//! [`StorageOp`]: realloc_common::StorageOp

pub mod data;
pub mod device;
pub mod store;
pub mod wal;

pub use data::{
    checksum, pattern_digest, pattern_for, transfer_checksum, DataRecoveryReport, DataStore,
};
pub use device::DeviceModel;
pub use store::{AddressWindow, Mode, RecoveryReport, SimStore, SpanState, Violation};
pub use wal::{
    read_checkpoint, read_wal, write_checkpoint, Checkpoint, CheckpointEntry, WalGroup, WalRecord,
    WalWriter,
};

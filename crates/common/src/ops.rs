//! Externally visible actions a reallocator takes while serving a request.

use crate::{Extent, ObjectId};

/// One physical action emitted while serving an insert or delete request.
///
/// A substrate (see the `storage-sim` crate) replays these against real
/// storage; a [`crate::Ledger`] prices them under cost functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageOp {
    /// First physical placement of a new object. Priced as *allocation* cost
    /// `f(len)` — the denominator of the paper's competitive ratio.
    Allocate {
        /// The object being placed.
        id: ObjectId,
        /// Its first physical location.
        to: Extent,
    },
    /// Reallocation of an existing object. Priced as *reallocation* cost
    /// `f(len)` — the numerator of the competitive ratio.
    Move {
        /// The object being moved.
        id: ObjectId,
        /// Its current location (must match the substrate's view).
        from: Extent,
        /// Its new location.
        to: Extent,
    },
    /// The object's cells become free (delete completed). Free of charge; the
    /// checkpointing substrate tracks the epoch in which it happened.
    Free {
        /// The object being freed.
        id: ObjectId,
        /// Its final location.
        at: Extent,
    },
    /// Block until the system performs a checkpoint (Section 3 of the paper).
    /// After the barrier, space freed before it becomes writable again.
    CheckpointBarrier,
}

impl StorageOp {
    /// The number of cells written by this op (0 for frees/barriers).
    pub fn cells_written(&self) -> u64 {
        match self {
            StorageOp::Allocate { to, .. } => to.len,
            StorageOp::Move { to, .. } => to.len,
            StorageOp::Free { .. } | StorageOp::CheckpointBarrier => 0,
        }
    }

    /// Whether this op is a reallocation (move) of an existing object.
    pub fn is_move(&self) -> bool {
        matches!(self, StorageOp::Move { .. })
    }

    /// The extent this op writes, if it writes one (allocations and moves).
    /// A substrate accounting physical bytes written sums the lengths of
    /// exactly these extents.
    pub fn written_extent(&self) -> Option<Extent> {
        match self {
            StorageOp::Allocate { to, .. } | StorageOp::Move { to, .. } => Some(*to),
            StorageOp::Free { .. } | StorageOp::CheckpointBarrier => None,
        }
    }
}

/// Everything a reallocator reports about one completed request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Physical actions, in execution order.
    pub ops: Vec<StorageOp>,
    /// Whether this request triggered (or pumped, for the deamortized
    /// structure) a buffer flush.
    pub flushed: bool,
    /// Largest structure size reached *while* serving the request, including
    /// any transient overflow/staging space. Lemmas 2.5 / 3.1 / 3.5 bound
    /// this quantity.
    pub peak_structure_size: u64,
}

impl Outcome {
    /// An outcome with no physical actions.
    pub fn empty() -> Self {
        Outcome::default()
    }

    /// Total volume (cells) moved by reallocations in this request.
    pub fn moved_volume(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                StorageOp::Move { to, .. } => Some(to.len),
                _ => None,
            })
            .sum()
    }

    /// Number of reallocations in this request.
    pub fn move_count(&self) -> usize {
        self.ops.iter().filter(|op| op.is_move()).count()
    }

    /// Number of checkpoint barriers the request blocked on.
    pub fn checkpoints(&self) -> u32 {
        let barriers = self
            .ops
            .iter()
            .filter(|op| **op == StorageOp::CheckpointBarrier);
        barriers.count() as u32
    }

    /// Sizes of all moved objects (for post-hoc pricing).
    pub fn moved_sizes(&self) -> impl Iterator<Item = u64> + '_ {
        self.ops.iter().filter_map(|op| match op {
            StorageOp::Move { to, .. } => Some(to.len),
            _ => None,
        })
    }

    /// The extent where a newly inserted object ended up, if this request
    /// was an insert.
    pub fn placement_of(&self, id: ObjectId) -> Option<Extent> {
        // The final position is the last op touching `id`.
        self.ops.iter().rev().find_map(|op| match op {
            StorageOp::Allocate { id: oid, to } if *oid == id => Some(*to),
            StorageOp::Move { id: oid, to, .. } if *oid == id => Some(*to),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(o: u64, l: u64) -> Extent {
        Extent::new(o, l)
    }

    #[test]
    fn moved_volume_counts_only_moves() {
        let out = Outcome {
            ops: vec![
                StorageOp::Allocate {
                    id: ObjectId(1),
                    to: ext(0, 4),
                },
                StorageOp::Move {
                    id: ObjectId(2),
                    from: ext(10, 6),
                    to: ext(4, 6),
                },
                StorageOp::Move {
                    id: ObjectId(3),
                    from: ext(20, 2),
                    to: ext(10, 2),
                },
                StorageOp::Free {
                    id: ObjectId(4),
                    at: ext(30, 9),
                },
                StorageOp::CheckpointBarrier,
            ],
            ..Outcome::default()
        };
        assert_eq!(out.moved_volume(), 8);
        assert_eq!(out.move_count(), 2);
        assert_eq!(out.moved_sizes().collect::<Vec<_>>(), vec![6, 2]);
        assert_eq!(out.checkpoints(), 1);
    }

    #[test]
    fn placement_takes_last_touch() {
        let out = Outcome {
            ops: vec![
                StorageOp::Allocate {
                    id: ObjectId(1),
                    to: ext(100, 4),
                },
                StorageOp::Move {
                    id: ObjectId(1),
                    from: ext(100, 4),
                    to: ext(0, 4),
                },
            ],
            ..Outcome::default()
        };
        assert_eq!(out.placement_of(ObjectId(1)), Some(ext(0, 4)));
        assert_eq!(out.placement_of(ObjectId(9)), None);
    }

    #[test]
    fn cells_written() {
        assert_eq!(
            StorageOp::Allocate {
                id: ObjectId(1),
                to: ext(0, 7)
            }
            .cells_written(),
            7
        );
        assert_eq!(
            StorageOp::Free {
                id: ObjectId(1),
                at: ext(0, 7)
            }
            .cells_written(),
            0
        );
        assert_eq!(StorageOp::CheckpointBarrier.cells_written(), 0);
    }
}

//! The size-class reallocator that serves the §2, §3.2 and FS'24 variants.
//!
//! §3.2 keeps §2's regions, buffers and dummy records and changes only how
//! a flush moves objects (Lemmas 3.1–3.3); the FS'24 port is §3.2 plus hole
//! recycling. So one struct, [`SizeClassReallocator`], owns the layout,
//! the counters and §2's insert and delete rules, and a sealed [`Schedule`]
//! supplies what differs: the flush, and three hooks that only FS'24 fills
//! in. Each variant is an alias:
//!
//! | alias | schedule | its file adds |
//! |---|---|---|
//! | [`CostObliviousReallocator`](crate::CostObliviousReallocator) | [`Memmove`] | the §2 memmove flush |
//! | [`CheckpointedReallocator`](crate::CheckpointedReallocator) | [`Phased`] | the §3.2 phased flush |
//! | [`NearlyQuadraticReallocator`](crate::NearlyQuadraticReallocator) | [`Recycling`] | hole recycling |

use realloc_common::{Extent, ObjectId, Outcome, ReallocError, Reallocator, StorageOp};

use crate::amortized::Memmove;
use crate::checkpointed::Phased;
use crate::layout::{Admitted, Entry, Eps, Layout, Place, RegionView};
use crate::nearly_quadratic::Recycling;
use crate::validate::{check_invariants, InvariantViolation};

mod sealed {
    /// Closes [`Schedule`](super::Schedule) to the three schedules below.
    pub trait Sealed {}
    impl Sealed for super::Memmove {}
    impl Sealed for super::Phased {}
    impl Sealed for super::Recycling {}
}

/// What a size-class variant adds to §2's serving steps. Sealed: its only
/// implementations are [`Memmove`] (§2), [`Phased`] (§3.2) and
/// [`Recycling`] (FS'24).
pub trait Schedule: sealed::Sealed + Default {
    /// The variant's [`Reallocator::name`].
    const NAME: &'static str;

    /// Rebuilds the suffix of regions that a request of `trigger_class`
    /// found no buffer room for, after `pre_ops`: places `trigger` (an
    /// insert's object; `None` for a delete) and empties every rebuilt
    /// buffer. The outcome counts the checkpoint barriers it emitted.
    fn flush(
        &mut self,
        layout: &mut Layout,
        trigger: Option<Admitted>,
        trigger_class: u32,
        pre_ops: Vec<StorageOp>,
    ) -> Outcome;

    /// Serves an admitted insert that does not open a class, before §2
    /// buffers it; `None` leaves it to the buffers.
    fn recycle(&mut self, _layout: &mut Layout, _obj: Admitted) -> Option<Outcome> {
        None
    }

    /// A delete was served without a flush; `entry` is where the object
    /// was.
    fn released(&mut self, _entry: &Entry) {}

    /// Checks the invariants of the state the schedule keeps.
    fn check(&self, _layout: &Layout) -> Result<(), InvariantViolation> {
        Ok(())
    }
}

/// The size-class reallocator of §2, flushing with schedule `S`. Name it
/// through its aliases; construct with [`new`](Self::new) and drive
/// through the [`Reallocator`] trait.
#[derive(Debug, Clone)]
pub struct SizeClassReallocator<S> {
    layout: Layout,
    pub(crate) schedule: S,
    flushes: u64,
    checkpoints: u64,
}

impl<S: Schedule> SizeClassReallocator<S> {
    /// Creates a reallocator with footprint slack `ε` (`0 < ε ≤ 1/2`).
    pub fn new(eps: f64) -> Self {
        Self::with_eps(Eps::new(eps))
    }

    /// Creates a reallocator from a pre-built (possibly ablated) [`Eps`].
    pub fn with_eps(eps: Eps) -> Self {
        SizeClassReallocator {
            layout: Layout::new(eps),
            schedule: S::default(),
            flushes: 0,
            checkpoints: 0,
        }
    }

    /// The footprint parameter.
    pub fn eps(&self) -> Eps {
        self.layout.eps()
    }

    /// Number of buffer flushes performed so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Total checkpoint barriers emitted: one after every phase of a §3.2
    /// flush, and one before FS'24 reuses a hole freed since the last
    /// barrier. Always 0 for §2.
    pub fn checkpoints_waited(&self) -> u64 {
        self.checkpoints
    }

    /// Read-only view of the region layout (paper Figure 2).
    pub fn region_views(&self) -> Vec<RegionView> {
        self.layout.region_views()
    }

    /// Checks the paper's structural invariants and the schedule's own
    /// (FS'24's holes); tests call this after every request.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        check_invariants(&self.layout)?;
        self.schedule.check(&self.layout)
    }

    fn flush(
        &mut self,
        trigger: Option<Admitted>,
        trigger_class: u32,
        pre_ops: Vec<StorageOp>,
    ) -> Outcome {
        let outcome = self
            .schedule
            .flush(&mut self.layout, trigger, trigger_class, pre_ops);
        self.flushes += 1;
        self.checkpoints += u64::from(outcome.checkpoints());
        outcome
    }
}

impl<S: Schedule> Reallocator for SizeClassReallocator<S> {
    fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
        let (obj, new_largest) = self.layout.admit(id, size)?;
        if new_largest {
            return Ok(self.layout.open_class(obj));
        }
        if let Some(outcome) = self.schedule.recycle(&mut self.layout, obj) {
            self.checkpoints += u64::from(outcome.checkpoints());
            return Ok(outcome);
        }
        match self.layout.buffer_object(obj) {
            Some(offset) => Ok(self.layout.served(StorageOp::Allocate {
                id,
                to: Extent::new(offset, size),
            })),
            None => Ok(self.flush(Some(obj), obj.class, Vec::new())),
        }
    }

    fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
        let entry = self.layout.release(id)?;
        let free_op = StorageOp::Free {
            id,
            at: entry.extent(),
        };
        // An object deleted from a buffer becomes its own dummy record; a
        // payload delete must charge a dummy record to some buffer, and
        // flushes when none has room (§3.2 without placing the dummy).
        if entry.place == Place::Payload && !self.layout.buffer_tombstone(entry.class, entry.size) {
            return Ok(self.flush(None, entry.class, vec![free_op]));
        }
        self.schedule.released(&entry);
        Ok(self.layout.served(free_op))
    }

    fn extent_of(&self, id: ObjectId) -> Option<Extent> {
        self.layout.extent_of(id)
    }

    fn live_extents(&self) -> Vec<(ObjectId, Extent)> {
        self.layout.live_extents()
    }

    fn live_volume(&self) -> u64 {
        self.layout.live_volume()
    }

    fn structure_size(&self) -> u64 {
        self.layout.regions_end()
    }

    fn footprint(&self) -> u64 {
        self.layout.last_object_end()
    }

    fn max_object_size(&self) -> u64 {
        self.layout.delta()
    }

    fn name(&self) -> &'static str {
        S::NAME
    }

    fn live_count(&self) -> usize {
        self.layout.live_count()
    }
}

#![warn(missing_docs)]
//! # Cost-oblivious storage reallocation
//!
//! A faithful implementation of *Cost-Oblivious Storage Reallocation*
//! (Bender, Farach-Colton, Fekete, Fineman, Gilbert — PODS 2014).
//!
//! Storage reallocation generalizes memory allocation by letting the
//! allocator *move* previously allocated objects at a cost given by an
//! **unknown** monotonically increasing subadditive function `f(w)` of the
//! object size. The algorithms here are *cost oblivious*: they never consult
//! `f`, yet simultaneously achieve, for every such `f`:
//!
//! * footprint at most `(1+ε)` times the total volume of active objects, and
//! * total reallocation cost at most `O((1/ε) log(1/ε))` times the total
//!   allocation cost (Theorem 2.1).
//!
//! ## The four variants
//!
//! | Type | Paper | Guarantee added |
//! |------|-------|-----------------|
//! | [`CostObliviousReallocator`] | §2 | the baseline amortized algorithm |
//! | [`CheckpointedReallocator`] | §3.2 | durability: nonoverlapping moves, the freed-space rule, `O(1/ε)` checkpoints per flush, `+∆` space |
//! | [`DeamortizedReallocator`] | §3.3 | worst-case per-update cost `O((1/ε)·w·f(1) + f(∆))` |
//! | [`NearlyQuadraticReallocator`] | FS 2024 | hole recycling: cancelling updates move nothing, `Õ(ε^{-1/2})`-shaped overhead on churn |
//!
//! plus [`defrag::defragment`], the Theorem 2.7 cost-oblivious defragmenter
//! (sort objects by an arbitrary comparison function in `(1+ε)V + ∆` space).
//!
//! The four variants serve requests with one set of §2 steps, each written
//! once: [`layout`] holds the region layout plus admission, buffering,
//! dummy records and deletes; [`plan`] holds the two flush schedules and
//! the whole §3.2 flush. The §2, §3.2 and FS'24 variants are aliases of
//! one [`size_class::SizeClassReallocator`], which holds their serving
//! path, counters and `Reallocator` impl. Each variant module keeps only
//! what it adds: the §2 memmove flush, the §3.2 phased flush, hole
//! recycling, or where the deamortized tail sits, the log and the pump
//! (§3.3 defers work across requests and keeps its own serving path; its
//! tail is a buffer like every region's).
//!
//! ## How it works (one paragraph)
//!
//! Objects are bucketed into power-of-two size classes. The address space is
//! a sequence of *regions*, one per class in increasing order; each region
//! is a *payload segment* (only that class) followed by a small *buffer
//! segment* (an `ε′` fraction, holding recent inserts of that class or
//! smaller, plus *dummy records* for recent deletes). When an update finds
//! no buffer space, a *buffer flush* rebuilds a suffix of regions: because
//! buffers admit only same-or-smaller classes, the `Θ(1/ε′)` flushes a
//! buffered object can pay for only ever move *larger* (cheaper per unit
//! size, by subadditivity) objects — that single ordering trick is what
//! makes one algorithm optimal for every subadditive cost function at once.

pub mod amortized;
pub mod checkpointed;
pub mod deamortized;
pub mod defrag;
pub mod layout;
pub mod nearly_quadratic;
pub mod plan;
pub mod render;
pub mod size_class;
pub mod validate;

pub use amortized::CostObliviousReallocator;
pub use checkpointed::CheckpointedReallocator;
pub use deamortized::DeamortizedReallocator;
pub use defrag::{defragment, DefragReport};
pub use layout::{Eps, RegionView};
pub use nearly_quadratic::NearlyQuadraticReallocator;
pub use validate::InvariantViolation;

// Every paper variant must stay `Send` so the sharded serving layer
// (`realloc-engine`) can own one per worker thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CostObliviousReallocator>();
    assert_send::<CheckpointedReallocator>();
    assert_send::<DeamortizedReallocator>();
    assert_send::<NearlyQuadraticReallocator>();
};

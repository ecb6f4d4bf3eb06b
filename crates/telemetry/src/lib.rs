//! Telemetry primitives for the reallocation workspace.
//!
//! The paper's algorithms are *cost-oblivious* — they never consult the
//! cost function — but evaluating them is not: every layer of the engine
//! wants to report how long things took, how large batches were, and when
//! structural events (rebalance batches, recovery stages) happened. This
//! crate supplies the three primitives those layers share, with zero
//! dependencies so every crate in the workspace can afford them:
//!
//! * [`Histogram`] — a fixed-size log₂-bucket histogram recordable from
//!   `&self` (atomics throughout), snapshotted into the plain-data
//!   [`HistogramSnapshot`] that knows percentiles, merge, and
//!   delta-since-last-scrape.
//! * [`EventJournal`] — a bounded ring of typed [`TraceEvent`] span
//!   records ([`SpanPhase::Begin`]/[`SpanPhase::End`] pairs or point
//!   [`SpanPhase::Instant`] marks) with a dropped-count when the ring
//!   wraps.
//! * [`Json`] — a minimal JSON value with a writer and a
//!   recursive-descent parser, so the CLI's `--metrics-json` export and
//!   the CI checker that validates it share one codec without pulling in
//!   serde (this workspace builds offline).
//!
//! A deliberate design split runs through the whole crate: *what* is
//! recorded may be wall-clock (nondeterministic across runs) or
//! simulated/deterministic, but the primitives themselves never decide —
//! the engine's snapshot type partitions fields into a deterministic
//! equality surface and wall-clock observations. See
//! `realloc_engine::metrics` for that contract.

#![warn(missing_docs)]

mod events;
mod histogram;
pub mod json;

pub use events::{EventJournal, SpanPhase, TraceEvent};
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use json::Json;

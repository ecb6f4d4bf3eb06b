#![warn(missing_docs)]
//! # realloc-engine — a sharded, multi-threaded reallocation service
//!
//! The algorithm crates serve one request at a time on the caller's thread.
//! This crate turns any of them into a *service*: an [`Engine`] routes
//! requests through a [`Router`] across `N` *shards*, each a
//! dedicated worker thread owning one boxed
//! [`Reallocator`](realloc_common::Reallocator) and its own
//! [`Ledger`](realloc_common::Ledger), fed through a bounded channel in
//! *batches* (amortizing channel overhead the way buffer flushes amortize
//! moves).
//!
//! ## The routing layer
//!
//! Every engine routes through a [`TableRouter`] ([`Engine::new`] builds
//! one): an explicit id → shard assignment table over the
//! [`rendezvous_shard`] hash fallback. A fresh table is empty, so routing
//! starts as a pure, stable hash. The table is what makes objects
//! *re-homeable*: [`Engine::rebalance`] migrates objects between shards
//! (delete-on-source / insert-on-target at a quiesce barrier, each landed
//! transfer pinned in the table) to equalize per-shard volumes `V_i`,
//! optionally followed by the per-shard Theorem 2.7 defrag pass;
//! [`Engine::resize_shards`] reuses the same migration machinery to split
//! or merge live shards (the rendezvous fallback keeps a grow from
//! re-homing more than `~1/n` of the ids). A migration is one more move,
//! ledgered and priced like any other reallocation.
//!
//! ## Rebalancing: barrier or online
//!
//! The same greedy largest-first migration plan executes two ways:
//!
//! * [`Engine::rebalance`] — **barrier**: quiesce the fleet, execute the
//!   whole plan, return. Simple and immediately converged, but the caller
//!   stalls for the entire migration.
//! * [`Engine::rebalance_online`] — **online**: plan once, then migrate in
//!   bounded batches *interleaved with serving* (each object: freeze →
//!   copy → flip route → resume, so no id is ever live on two shards).
//!   On the sync handle serving traffic paces the session — one batch
//!   per dispatched serving batch; on either handle
//!   [`Engine::rebalance_step`] drains it explicitly. The
//!   completion [`RebalanceReport`] is claimed with
//!   [`Engine::take_rebalance_report`].
//!
//! Watch the [`EngineStats::imbalance_ratio`] observable
//! (`max V_i / mean V_i`) to decide when to rebalance — or install a
//! [`RebalancePolicy`] with [`Engine::set_auto_rebalance`] and let the
//! engine trigger online sessions itself when the ratio has exceeded `τ`
//! for `k` consecutive barrier observations (with hysteresis after each
//! run). Migrations are ledgered as first-class ops
//! (`MigrateIn` / `MigrateOut`) and priced as reallocations, so
//! rebalancing is as cost-accountable as serving.
//!
//! ## Why sharding preserves the paper's guarantees
//!
//! Theorem 2.1's bounds are *per instance*: each shard keeps its footprint
//! within `(1+ε)·V_i` and its reallocation cost within
//! `O((1/ε) log(1/ε))` of its allocation cost. Requests for one object
//! always route to the shard that holds it, so shards never interact (a
//! migration is an ordinary delete on one shard and insert on another),
//! and the
//! aggregate footprint obeys `Σ footprint_i ≤ (1+ε)·Σ V_i` — the same
//! competitive ratio as one instance. (The memory-reallocation follow-up
//! line of work treats instances in isolation for exactly this reason.)
//! Sharding also helps *throughput* twice over: shards serve in parallel,
//! and each flush rebuilds a suffix of a structure `N×` smaller.
//!
//! ## Shape of the API
//!
//! ```
//! use realloc_engine::{Engine, EngineConfig};
//! use realloc_common::ObjectId;
//! # use realloc_common::{Extent, Outcome, ReallocError, Reallocator};
//! # #[derive(Default)] struct Toy(std::collections::HashMap<ObjectId, u64>, u64);
//! # impl Reallocator for Toy {
//! #     fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
//! #         self.0.insert(id, size); self.1 += size; Ok(Outcome::empty())
//! #     }
//! #     fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
//! #         self.1 -= self.0.remove(&id).unwrap_or(0); Ok(Outcome::empty())
//! #     }
//! #     fn extent_of(&self, _: ObjectId) -> Option<Extent> { None }
//! #     fn live_extents(&self) -> Vec<(ObjectId, Extent)> { Vec::new() }
//! #     fn live_volume(&self) -> u64 { self.1 }
//! #     fn structure_size(&self) -> u64 { self.1 }
//! #     fn footprint(&self) -> u64 { self.1 }
//! #     fn max_object_size(&self) -> u64 { 0 }
//! #     fn name(&self) -> &'static str { "toy" }
//! #     fn live_count(&self) -> usize { self.0.len() }
//! # }
//!
//! let mut engine = Engine::new(EngineConfig::with_shards(2), |_shard| {
//!     Box::new(Toy::default())
//! });
//! engine.insert(ObjectId(1), 64).unwrap();
//! engine.insert(ObjectId(2), 32).unwrap();
//! engine.delete(ObjectId(1)).unwrap();
//! let stats = engine.quiesce().unwrap();
//! assert_eq!(stats.live_volume(), 32);
//! assert_eq!(stats.live_count(), 1);
//! ```
//!
//! ## One handle, two transports
//!
//! There is one handle type, [`Engine<T>`](Engine), over two shard
//! [`Transport`]s. `Engine` (over [`Threads`]) runs each shard on a
//! dedicated thread behind a bounded channel. [`AsyncEngine`] is
//! `Engine<`[`Cores`]`>`: a tenant of a [`Fleet`] — a small worker pool
//! multiplexing thousands of lightweight engines, optionally stealing
//! whole queued batches from backlogged peers (see the [`fleet`] module
//! docs for the steal protocol and its order guarantees). On a tenant,
//! `insert`/`delete`/`flush`/`quiesce` return lightweight completion
//! futures (one completion per shipped batch, shared by every request
//! ack in it; driven by `realloc-common`'s `block_on` or any runtime — no
//! tokio anywhere). Everything else — router, batching law, barriers,
//! error surfacing, metrics scrape, rebalancing (barrier, online and the
//! auto policy), fault injection, shutdown and crash — is one piece of
//! code for both. Only resizing ([`Engine::resize_shards`]) and recovery
//! ([`Engine::recover`]) stay sync-only, with whole-workload replay.
//!
//! [`Engine::drive`] replays a whole [`Workload`](workload_gen::Workload)
//! by splitting it into per-shard streams (preserving per-object request
//! order) and feeding all shards round-robin so every queue stays busy.
//!
//! Request-level errors ([`ReallocError`](realloc_common::ReallocError))
//! surface at the next barrier ([`Engine::quiesce`], [`Engine::snapshot`],
//! [`Engine::shutdown`]) rather than at the enqueueing call — the price of
//! pipelining. Worker threads never panic on bad requests; they count the
//! error and keep serving.

pub mod async_facade;
pub mod engine;
pub mod fleet;
mod frontend;
pub mod metrics;
pub mod plan;
pub mod rebalance;
pub mod recover;
pub mod shard;
pub mod stats;
pub mod substrate;

pub use async_facade::{Ack, AsyncEngine, QuiesceFuture};
pub use engine::{Engine, EngineConfig, EngineError};
pub use fleet::{Cores, Fleet, FleetConfig};
pub use frontend::{Threads, Transport};
pub use metrics::{DeviceProfile, MetricsSnapshot, ShardMetrics, StealStats};
pub use realloc_common::router::{self, rendezvous_shard, Router, TableRouter};
pub use realloc_telemetry::{
    EventJournal, Histogram, HistogramSnapshot, Json, SpanPhase, TraceEvent,
};
pub use rebalance::{
    DefragSummary, OnlinePlan, RebalanceMode, RebalanceOptions, RebalancePolicy, RebalanceReport,
    ResizeReport,
};
pub use recover::RecoveryReport;
pub use shard::ShardFinal;
pub use stats::{EngineStats, ShardStats};
pub use storage_sim::{AddressWindow, Mode as SubstrateRules};
pub use substrate::{ShardBytes, SubstrateConfig, SubstrateReport, VerifyCadence, WINDOW_SPAN};

//! Object-id → shard routing, as a first-class pluggable layer.
//!
//! A sharded serving layer needs one decision per request: which shard owns
//! this [`ObjectId`]? The [`Router`] trait makes that decision swappable:
//!
//! * [`HashRouter`] — the stateless default: a fixed SplitMix64 hash
//!   ([`shard_of`]). Zero per-object state, perfectly reproducible, but the
//!   map is frozen — no object can ever be re-homed, so a skewed delete
//!   pattern can leave shard volumes arbitrarily unbalanced.
//! * [`TableRouter`] — an explicit id → shard assignment table over a
//!   *consistent-hash-style* fallback ([`rendezvous_shard`], highest-random-
//!   weight hashing) for ids with no assignment. Assignments are what a
//!   cross-shard rebalancer mutates; the rendezvous fallback is what keeps a
//!   shard-count resize from re-homing more than `~1/n` of the unassigned
//!   ids.
//!
//! The trait lives in `realloc-common` (not the engine crate) so the
//! workload splitter can take a `&dyn Router` without a dependency cycle.

use std::collections::HashMap;

use crate::hash::mix64;
use crate::ObjectId;

/// The shard in `0..shards` that owns `id` under the stateless hash route.
///
/// A SplitMix64 finalizer over the raw id, reduced by Lemire's multiply-shift
/// trick. Two properties matter to callers:
///
/// * **Stability** — the map is a pure function of `(id, shards)`, fixed for
///   all time (no per-process seed, unlike `DefaultHasher`), so replaying a
///   workload yields byte-identical per-shard streams across runs and
///   builds. The engine's determinism tests rely on this.
/// * **Diffusion** — sequential ids (the common case: workload generators
///   hand them out in order) spread uniformly, so shard volumes stay
///   balanced and the aggregate `(1+ε)Σ V_i` bound is tight in practice,
///   not just in the worst case.
///
/// # Panics
/// Panics if `shards` is zero.
#[inline]
pub fn shard_of(id: ObjectId, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    let z = mix64(id.0);
    // Multiply-shift maps the hash to [0, shards) without modulo bias.
    (((z as u128) * (shards as u128)) >> 64) as usize
}

/// The shard in `0..shards` that owns `id` under highest-random-weight
/// (rendezvous) hashing: `argmax_s mix64(id ⊕ salt(s))`.
///
/// Unlike [`shard_of`], growing `shards` from `n` to `n+1` re-homes each id
/// with probability only `1/(n+1)` — the consistent-hashing property a
/// live shard-count resize wants, at `O(shards)` per lookup (shard counts
/// are small; routing is not the hot path).
///
/// # Panics
/// Panics if `shards` is zero.
#[inline]
pub fn rendezvous_shard(id: ObjectId, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    (0..shards)
        .max_by_key(|&s| mix64(id.0 ^ mix64(s as u64 + 1)))
        .expect("non-empty shard range")
}

/// A pluggable id → shard map.
///
/// Implementors must be deterministic between mutations: two `route` calls
/// with no intervening `assign`/`unassign`/`set_shards` return the same
/// shard. The serving layer only mutates a router at quiesce barriers, so
/// both requests touching an object (its insert and its delete) route to
/// the same shard and per-object request order is preserved.
pub trait Router: Send {
    /// Number of shards this router targets.
    fn shards(&self) -> usize;

    /// The shard in `0..self.shards()` that owns `id`.
    fn route(&self, id: ObjectId) -> usize;

    /// Where `id` *would* live if the router targeted `shards` shards —
    /// the hypothetical a resize planner asks before committing to
    /// [`set_shards`](Router::set_shards). Must agree with `route` when
    /// `shards == self.shards()`.
    fn route_at(&self, id: ObjectId, shards: usize) -> usize;

    /// Whether [`assign`](Router::assign) can pin ids (i.e. whether a
    /// rebalancer can re-home objects through this router).
    fn supports_assignment(&self) -> bool {
        false
    }

    /// Pins `id` to `shard`, overriding the fallback. Returns `false` for
    /// routers without assignment state (the pin is not recorded).
    ///
    /// # Panics
    /// Implementations with assignment state panic if
    /// `shard >= self.shards()`.
    fn assign(&mut self, id: ObjectId, shard: usize) -> bool {
        let _ = (id, shard);
        false
    }

    /// Drops any explicit assignment for `id` (it reverts to the fallback).
    fn unassign(&mut self, id: ObjectId) {
        let _ = id;
    }

    /// Re-targets the router at `shards` shards. Explicit assignments to
    /// shards `>= shards` are dropped (the caller must have migrated those
    /// objects first).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    fn set_shards(&mut self, shards: usize);

    /// Number of explicit assignments currently held (0 for stateless
    /// routers).
    fn assignments(&self) -> usize {
        0
    }

    /// Every explicit `(id, shard)` assignment currently held, in
    /// unspecified order (empty for stateless routers). This is the state a
    /// durability layer checkpoints: the fallback is a pure function, so
    /// the assignment table *is* the router.
    fn assigned_ids(&self) -> Vec<(ObjectId, usize)> {
        Vec::new()
    }

    /// Short human-readable router name for tables.
    fn name(&self) -> &'static str;
}

/// The stateless default router: [`shard_of`] — a fixed SplitMix64 hash.
///
/// Routing is a pure function of `(id, shards)`, so an engine built on this
/// router behaves byte-identically to the pre-router serving layer. The
/// price of statelessness: no object can be re-homed, so cross-shard
/// rebalancing is not available ([`supports_assignment`](Router::supports_assignment)
/// is `false`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashRouter {
    shards: usize,
}

impl HashRouter {
    /// A hash router over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        HashRouter { shards }
    }
}

impl Router for HashRouter {
    fn shards(&self) -> usize {
        self.shards
    }

    fn route(&self, id: ObjectId) -> usize {
        shard_of(id, self.shards)
    }

    fn route_at(&self, id: ObjectId, shards: usize) -> usize {
        shard_of(id, shards)
    }

    fn set_shards(&mut self, shards: usize) {
        assert!(shards > 0, "shard count must be positive");
        self.shards = shards;
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// An explicit id → shard assignment table over a rendezvous-hash fallback.
///
/// Ids without an assignment route via [`rendezvous_shard`], so a fresh
/// `TableRouter` is as balanced as a hash router; assignments are added by
/// the serving layer's rebalancer (and by resizes) to re-home specific
/// objects. The table is the router's only state — dropping an assignment
/// returns the id to the fallback.
#[derive(Debug, Clone)]
pub struct TableRouter {
    shards: usize,
    table: HashMap<ObjectId, usize>,
}

impl TableRouter {
    /// An empty-table router over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        TableRouter {
            shards,
            table: HashMap::new(),
        }
    }

    /// The explicit assignment for `id`, if any.
    pub fn assignment(&self, id: ObjectId) -> Option<usize> {
        self.table.get(&id).copied().filter(|&s| s < self.shards)
    }
}

impl Router for TableRouter {
    fn shards(&self) -> usize {
        self.shards
    }

    fn route(&self, id: ObjectId) -> usize {
        self.route_at(id, self.shards)
    }

    fn route_at(&self, id: ObjectId, shards: usize) -> usize {
        match self.table.get(&id) {
            Some(&s) if s < shards => s,
            _ => rendezvous_shard(id, shards),
        }
    }

    fn supports_assignment(&self) -> bool {
        true
    }

    fn assign(&mut self, id: ObjectId, shard: usize) -> bool {
        assert!(
            shard < self.shards,
            "assignment to shard {shard} of {}",
            self.shards
        );
        // An assignment that matches the fallback is pure table bloat.
        if rendezvous_shard(id, self.shards) == shard {
            self.table.remove(&id);
        } else {
            self.table.insert(id, shard);
        }
        true
    }

    fn unassign(&mut self, id: ObjectId) {
        self.table.remove(&id);
    }

    fn set_shards(&mut self, shards: usize) {
        assert!(shards > 0, "shard count must be positive");
        self.shards = shards;
        // Assignments to dead shards are gone; assignments that now match
        // the (changed) fallback are redundant.
        self.table
            .retain(|&id, &mut s| s < shards && rendezvous_shard(id, shards) != s);
    }

    fn assignments(&self) -> usize {
        self.table.len()
    }

    fn assigned_ids(&self) -> Vec<(ObjectId, usize)> {
        self.table.iter().map(|(&id, &s)| (id, s)).collect()
    }

    fn name(&self) -> &'static str {
        "table"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in 1..=9 {
            for raw in (0..1_000).chain([u64::MAX - 1, u64::MAX]) {
                let s = shard_of(ObjectId(raw), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(ObjectId(raw), shards));
            }
        }
    }

    /// The exact mapping is frozen: changing the hash silently re-homes
    /// every stored object of every deployed engine, so lock a few values.
    /// (Moved here from the deprecated `realloc_engine::route` shim.)
    #[test]
    fn shard_of_mapping_is_frozen() {
        let snapshot: Vec<usize> = (0..16).map(|raw| shard_of(ObjectId(raw), 4)).collect();
        assert_eq!(
            snapshot,
            vec![3, 2, 2, 0, 1, 1, 2, 1, 2, 2, 0, 1, 2, 3, 1, 2]
        );
    }

    #[test]
    fn sequential_ids_balance_under_both_hashes() {
        let shards = 8;
        let (mut hash_counts, mut rdv_counts) = (vec![0usize; shards], vec![0usize; shards]);
        for raw in 0..8_000u64 {
            hash_counts[shard_of(ObjectId(raw), shards)] += 1;
            rdv_counts[rendezvous_shard(ObjectId(raw), shards)] += 1;
        }
        for s in 0..shards {
            assert!(
                (800..1_200).contains(&hash_counts[s]),
                "hash shard {s} got {} of 8000",
                hash_counts[s]
            );
            assert!(
                (800..1_200).contains(&rdv_counts[s]),
                "rendezvous shard {s} got {} of 8000",
                rdv_counts[s]
            );
        }
    }

    #[test]
    fn rendezvous_resize_moves_about_one_nth() {
        // The consistent-hashing property: growing 4 → 5 shards re-homes
        // roughly 1/5 of ids. The multiply-shift hash re-homes every id
        // whose contiguous hash bucket shifts — ~half of them at 4 → 5.
        let n = 10_000u64;
        let mut rdv_moved = 0;
        let mut hash_moved = 0;
        for raw in 0..n {
            let id = ObjectId(raw);
            if rendezvous_shard(id, 4) != rendezvous_shard(id, 5) {
                rdv_moved += 1;
            }
            if shard_of(id, 4) != shard_of(id, 5) {
                hash_moved += 1;
            }
        }
        assert!(
            (1_500..2_500).contains(&rdv_moved),
            "rendezvous re-homed {rdv_moved} of {n} (expected ~2000)"
        );
        assert!(
            hash_moved > 2 * rdv_moved,
            "hash re-homed {hash_moved} of {n}, rendezvous {rdv_moved} — \
             rendezvous should move far fewer"
        );
    }

    #[test]
    fn rendezvous_grow_only_moves_to_the_new_shard() {
        // HRW's defining property: ids re-homed by a grow all land on the
        // newly added shard.
        for raw in 0..5_000u64 {
            let id = ObjectId(raw);
            let (old, new) = (rendezvous_shard(id, 6), rendezvous_shard(id, 7));
            if old != new {
                assert_eq!(new, 6, "{id} re-homed to an existing shard");
            }
        }
    }

    #[test]
    fn hash_router_is_the_stateless_hash() {
        let mut r = HashRouter::new(4);
        for raw in 0..100 {
            let id = ObjectId(raw);
            assert_eq!(r.route(id), shard_of(id, 4));
            assert_eq!(r.route_at(id, 7), shard_of(id, 7));
        }
        assert!(!r.supports_assignment());
        assert!(!r.assign(ObjectId(1), 2), "hash router cannot pin");
        assert_eq!(r.assignments(), 0);
        r.set_shards(2);
        assert_eq!(r.shards(), 2);
        assert_eq!(r.name(), "hash");
    }

    #[test]
    fn table_router_fallback_is_rendezvous() {
        let r = TableRouter::new(5);
        for raw in 0..200 {
            let id = ObjectId(raw);
            assert_eq!(r.route(id), rendezvous_shard(id, 5));
        }
        assert!(r.supports_assignment());
        assert_eq!(r.name(), "table");
    }

    #[test]
    fn assignments_override_and_revert() {
        let mut r = TableRouter::new(4);
        let id = ObjectId(42);
        let fallback = r.route(id);
        let other = (fallback + 1) % 4;
        assert!(r.assign(id, other));
        assert_eq!(r.route(id), other);
        assert_eq!(r.assignment(id), Some(other));
        assert_eq!(r.assignments(), 1);
        assert_eq!(r.assigned_ids(), vec![(id, other)]);
        r.unassign(id);
        assert_eq!(r.route(id), fallback);
        assert_eq!(r.assignments(), 0);
        assert!(r.assigned_ids().is_empty());
    }

    #[test]
    fn assigning_the_fallback_keeps_the_table_empty() {
        let mut r = TableRouter::new(4);
        let id = ObjectId(7);
        assert!(r.assign(id, r.route(id)));
        assert_eq!(r.assignments(), 0, "fallback assignment is not stored");
    }

    #[test]
    fn set_shards_drops_dead_and_redundant_assignments() {
        let mut r = TableRouter::new(6);
        // Pin 100 ids to shard 5, which dies in the resize.
        for raw in 0..100 {
            if r.route(ObjectId(raw)) != 5 {
                r.assign(ObjectId(raw), 5);
            }
        }
        assert!(r.assignments() > 0);
        r.set_shards(4);
        assert_eq!(r.shards(), 4);
        assert_eq!(r.assignments(), 0, "assignments to dead shards dropped");
        for raw in 0..100 {
            let id = ObjectId(raw);
            assert_eq!(r.route(id), rendezvous_shard(id, 4));
        }
    }

    #[test]
    fn route_at_previews_a_resize() {
        let mut r = TableRouter::new(4);
        let id = ObjectId(9);
        let other = (r.route(id) + 1) % 4;
        r.assign(id, other);
        // The assignment survives a preview that keeps its shard alive...
        assert_eq!(r.route_at(id, 6), other);
        // ...but a preview that kills it falls back to rendezvous.
        if other >= 1 {
            assert_eq!(r.route_at(id, 1), 0);
        }
        assert_eq!(r.route_at(id, r.shards()), r.route(id));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_rejected() {
        shard_of(ObjectId(1), 0);
    }

    #[test]
    #[should_panic(expected = "assignment to shard 9")]
    fn out_of_range_assignment_rejected() {
        TableRouter::new(4).assign(ObjectId(1), 9);
    }
}

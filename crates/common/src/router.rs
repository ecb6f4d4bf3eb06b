//! Object-id → shard routing.
//!
//! A sharded serving layer needs one decision per request: which shard owns
//! this [`ObjectId`]? [`TableRouter`] makes it: an explicit id → shard
//! assignment table over a consistent-hash fallback ([`rendezvous_shard`],
//! highest-random-weight hashing) for ids with no assignment. Assignments
//! are what a cross-shard rebalancer mutates; the rendezvous fallback is
//! what keeps a shard-count resize from re-homing more than `~1/n` of the
//! unassigned ids. A fresh router has an empty table, so it routes every id
//! by the pure fallback.
//!
//! The [`Router`] trait lives in `realloc-common` (not the engine crate) so
//! the workload splitter can take a `&dyn Router` without a dependency
//! cycle.

use std::collections::HashMap;

use crate::hash::mix64;
use crate::ObjectId;

/// The shard in `0..shards` that owns `id` under highest-random-weight
/// (rendezvous) hashing: `argmax_s mix64(id ⊕ mix64(s + 1))`.
///
/// Two properties matter to callers:
///
/// * **Stability** — the map is a pure function of `(id, shards)`, fixed
///   for all time (no per-process seed, unlike `DefaultHasher`), so
///   replaying a workload yields byte-identical per-shard streams across
///   runs and builds. The engine's determinism tests rely on this.
/// * **Consistency** — growing `shards` from `n` to `n+1` re-homes each id
///   with probability only `1/(n+1)`, and every re-homed id lands on the
///   new shard; dropping the top shard re-homes only the ids it owned.
///   That is what a live shard-count resize wants, at `O(shards)` per
///   lookup (shard counts are small).
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

/// An id → shard map the serving layer routes with.
///
/// Implementors must be deterministic between mutations: two `route` calls
/// with no intervening `assign`/`set_shards` return the same shard. The
/// serving layer only mutates a router at quiesce barriers or migration
/// flips, so both requests touching an object (its insert and its delete)
/// route to the same shard and per-object request order is preserved.
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

    /// Pins `id` to `shard`, overriding the fallback.
    ///
    /// # Panics
    /// Panics if `shard >= self.shards()`.
    fn assign(&mut self, id: ObjectId, shard: usize);

    /// Re-targets the router at `shards` shards. Explicit assignments to
    /// shards `>= shards` are dropped (the caller must have migrated those
    /// objects first).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    fn set_shards(&mut self, shards: usize);

    /// Number of explicit assignments currently held.
    fn assignments(&self) -> usize;

    /// Every explicit `(id, shard)` assignment currently held, in
    /// unspecified order. This is the state a durability layer checkpoints:
    /// the fallback is a pure function, so the assignment table *is* the
    /// router.
    fn assigned_ids(&self) -> Vec<(ObjectId, usize)>;
}

/// An explicit id → shard assignment table over a rendezvous-hash fallback.
///
/// Ids without an assignment route via [`rendezvous_shard`], so a fresh
/// `TableRouter` is a pure, balanced hash; assignments are added by the
/// serving layer's rebalancer (and by resizes) to re-home specific
/// objects. The table is the router's only state, and it holds only the
/// ids whose owner differs from the fallback.
#[derive(Debug, Clone)]
pub struct TableRouter {
    shards: usize,
    table: HashMap<ObjectId, usize>,
}

/// The default router under the name callers that predate the assignment
/// table still use: a [`TableRouter`], whose empty table routes every id
/// by [`rendezvous_shard`].
pub type HashRouter = TableRouter;

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

    fn assign(&mut self, id: ObjectId, shard: usize) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::IdHasher;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in 1..=9 {
            let router = TableRouter::new(shards);
            for raw in (0..1_000).chain([u64::MAX - 1, u64::MAX]) {
                let s = router.route(ObjectId(raw));
                assert!(s < shards);
                assert_eq!(s, rendezvous_shard(ObjectId(raw), shards));
            }
        }
    }

    /// The exact mapping is frozen: changing the hash silently re-homes
    /// every stored object of every deployed engine, so lock a few values
    /// of the route a fresh router (and so a fresh engine) takes.
    #[test]
    fn shard_of_mapping_is_frozen() {
        let router = TableRouter::new(4);
        let snapshot: Vec<usize> = (0..16).map(|raw| router.route(ObjectId(raw))).collect();
        assert_eq!(
            snapshot,
            vec![2, 2, 0, 2, 1, 3, 1, 2, 1, 3, 1, 3, 3, 0, 1, 0]
        );
    }

    #[test]
    fn sequential_ids_balance_under_both_hashes() {
        // Workload generators hand out ids in order; both hashes built on
        // the SplitMix64 finalizer — the shard route and the `IdMap`
        // bucket index (the hash's low bits) — must spread them evenly.
        let shards = 8;
        let ids = BuildHasherDefault::<IdHasher>::default();
        let (mut rdv_counts, mut bucket_counts) = (vec![0usize; shards], vec![0usize; shards]);
        for raw in 0..8_000u64 {
            rdv_counts[rendezvous_shard(ObjectId(raw), shards)] += 1;
            bucket_counts[(ids.hash_one(ObjectId(raw)) % shards as u64) as usize] += 1;
        }
        for s in 0..shards {
            assert!(
                (800..1_200).contains(&rdv_counts[s]),
                "rendezvous shard {s} got {} of 8000",
                rdv_counts[s]
            );
            assert!(
                (800..1_200).contains(&bucket_counts[s]),
                "IdMap bucket {s} got {} of 8000",
                bucket_counts[s]
            );
        }
    }

    #[test]
    fn rendezvous_resize_moves_about_one_nth() {
        // The consistent-hashing property: growing 4 → 5 shards re-homes
        // roughly 1/5 of ids (a modulo or multiply-shift hash re-homes
        // about half of them at 4 → 5).
        let n = 10_000u64;
        let moved = (0..n)
            .map(ObjectId)
            .filter(|&id| rendezvous_shard(id, 4) != rendezvous_shard(id, 5))
            .count();
        assert!(
            (1_500..2_500).contains(&moved),
            "rendezvous re-homed {moved} of {n} (expected ~2000)"
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
    fn table_router_fallback_is_rendezvous() {
        let r = TableRouter::new(5);
        for raw in 0..200 {
            let id = ObjectId(raw);
            assert_eq!(r.route(id), rendezvous_shard(id, 5));
        }
        assert_eq!(r.assignments(), 0);
    }

    #[test]
    fn assignments_override_and_revert() {
        let mut r = TableRouter::new(4);
        let id = ObjectId(42);
        let fallback = r.route(id);
        let other = (fallback + 1) % 4;
        r.assign(id, other);
        assert_eq!(r.route(id), other);
        assert_eq!(r.assignments(), 1);
        assert_eq!(r.assigned_ids(), vec![(id, other)]);
        // Pinning an id back to its fallback shard drops the assignment.
        r.assign(id, fallback);
        assert_eq!(r.route(id), fallback);
        assert_eq!(r.assignments(), 0);
        assert!(r.assigned_ids().is_empty());
    }

    #[test]
    fn assigning_the_fallback_keeps_the_table_empty() {
        let mut r = TableRouter::new(4);
        let id = ObjectId(7);
        r.assign(id, r.route(id));
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
        rendezvous_shard(ObjectId(1), 0);
    }

    #[test]
    #[should_panic(expected = "assignment to shard 9")]
    fn out_of_range_assignment_rejected() {
        TableRouter::new(4).assign(ObjectId(1), 9);
    }
}

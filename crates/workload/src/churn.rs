//! Steady-state churn workloads: grow to a target volume, then hold it
//! there with a randomized insert/delete mix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use realloc_common::ObjectId;

use crate::dist::SizeDist;
use crate::{IdSource, Request, Workload};

/// Parameters for [`churn`].
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Object size distribution.
    pub dist: SizeDist,
    /// Volume the warm-up phase grows to (and churn hovers around).
    pub target_volume: u64,
    /// Number of requests issued after warm-up.
    pub churn_ops: usize,
    /// RNG seed (workloads are deterministic per seed).
    pub seed: u64,
}

/// Generates a churn workload: inserts until `target_volume` is reached,
/// then issues `churn_ops` requests that insert when below target and
/// delete a uniformly random live object when at/above it.
pub fn churn(config: &ChurnConfig) -> Workload {
    // `keep` nothing: the uniform delete draw is untouched (the predicate
    // check spends no RNG), so this is byte-identical to the historical
    // generator, seed for seed.
    generate(config, |_| false, None, "churn")
}

/// Churn whose deletes *spare* the objects matched by `keep`: inserts are
/// drawn like [`churn`]'s, but a delete always removes a random live object
/// with `keep(id) == false` (falling back to any object only when none
/// remain). Route-aware `keep` predicates turn this into the shard-skew
/// adversary: with `keep = |id| route(id) == hot`, every churn cycle drains
/// volume from the other shards while the hot shard only ever grows —
/// exactly the pattern no fixed hash can repair and a cross-shard
/// rebalancer exists for.
pub fn skewed_churn(config: &ChurnConfig, keep: impl FnMut(ObjectId) -> bool) -> Workload {
    generate(config, keep, None, "skewed-churn")
}

/// [`skewed_churn`] whose skew *lets go* partway through: for the first
/// `skew_ops` churn ops deletes spare the kept objects (driving imbalance
/// up, exactly like `skewed_churn`), then the kept pool is released and the
/// remaining `churn_ops - skew_ops` ops churn uniformly over everything.
///
/// This is the rebalance-measurement workload: phase one manufactures the
/// imbalance, phase two is sustained *neutral* traffic during which a
/// rebalance (barrier or online) can be triggered and its serving stalls
/// and convergence measured without the adversary still fighting the
/// repair. (Under never-ending skew, imbalance climbs again no matter how
/// often the fleet rebalances — real hot-tenant storms end.)
pub fn skewed_churn_release(
    config: &ChurnConfig,
    keep: impl FnMut(ObjectId) -> bool,
    skew_ops: usize,
) -> Workload {
    generate(config, keep, Some(skew_ops), "skewed-churn-release")
}

/// The shared churn loop behind [`churn`], [`skewed_churn`], and
/// [`skewed_churn_release`]. The live population is partitioned into
/// deletable/kept pools *at insert time* (`keep` is evaluated once per id),
/// so a delete is one uniform draw from the deletable pool — O(1)
/// amortized, instead of rescanning the live set whenever kept objects
/// dominate. With an empty predicate the deletable pool *is* the live set
/// in the same order, so [`churn`]'s request streams are unchanged, seed
/// for seed. At churn op `release_after` (if given) the kept pool is
/// appended to the deletable pool and the predicate stops applying —
/// deletes are uniform over everything from there on.
fn generate(
    config: &ChurnConfig,
    mut keep: impl FnMut(ObjectId) -> bool,
    release_after: Option<usize>,
    family: &str,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut ids = IdSource::new();
    let mut requests = Vec::new();
    let mut deletable: Vec<(ObjectId, u64)> = Vec::new();
    let mut kept: Vec<(ObjectId, u64)> = Vec::new();
    let mut volume = 0u64;

    let mut insert = |rng: &mut StdRng,
                      requests: &mut Vec<Request>,
                      deletable: &mut Vec<(ObjectId, u64)>,
                      kept: &mut Vec<(ObjectId, u64)>,
                      volume: &mut u64,
                      ids: &mut IdSource,
                      sparing: bool| {
        let size = config.dist.sample(rng);
        let id = ids.fresh();
        requests.push(Request::Insert { id, size });
        if sparing && keep(id) {
            kept.push((id, size));
        } else {
            deletable.push((id, size));
        }
        *volume += size;
    };

    while volume < config.target_volume {
        insert(
            &mut rng,
            &mut requests,
            &mut deletable,
            &mut kept,
            &mut volume,
            &mut ids,
            release_after != Some(0),
        );
    }

    for op in 0..config.churn_ops {
        let sparing = release_after.is_none_or(|release| op < release);
        if release_after == Some(op) {
            // The skew lets go: everything spared so far churns uniformly
            // from here on.
            deletable.append(&mut kept);
        }
        let any_live = !deletable.is_empty() || !kept.is_empty();
        if volume >= config.target_volume && any_live {
            // Deletes spare the kept pool while anything else remains.
            let pool = if deletable.is_empty() {
                &mut kept
            } else {
                &mut deletable
            };
            let idx = rng.random_range(0..pool.len());
            let (id, size) = pool.swap_remove(idx);
            requests.push(Request::Delete { id });
            volume -= size;
        } else {
            insert(
                &mut rng,
                &mut requests,
                &mut deletable,
                &mut kept,
                &mut volume,
                &mut ids,
                sparing,
            );
        }
    }

    Workload::new(
        format!(
            "{family}({}, V≈{}, {} ops, seed {})",
            config.dist.label(),
            config.target_volume,
            config.churn_ops,
            config.seed
        ),
        requests,
    )
}

/// Churn built to *coalesce*: most ops touch a live object by deleting it
/// and immediately reinserting the **same id** (new size three times out
/// of four, the old size otherwise), and a slice of the traffic inserts a
/// transient object it deletes on the very next request. A batch planner
/// folds a touch into one resize (or nothing, when the size is unchanged)
/// and cancels a transient outright; the remaining ops are plain churn so
/// the population still drifts. Op mix per churn op: 50% touch, 20%
/// transient, 30% plain insert-or-delete toward `target_volume`.
///
/// Reusing an id after its delete violates [`Workload::validate`]'s
/// fresh-ids rule by design — check these workloads with
/// [`Workload::validate_reuse`], which only demands liveness correctness.
pub fn coalescible_churn(config: &ChurnConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut ids = IdSource::new();
    let mut requests = Vec::new();
    let mut live: Vec<(ObjectId, u64)> = Vec::new();
    let mut volume = 0u64;

    let fresh = |rng: &mut StdRng,
                 requests: &mut Vec<Request>,
                 live: &mut Vec<(ObjectId, u64)>,
                 volume: &mut u64,
                 ids: &mut IdSource| {
        let size = config.dist.sample(rng);
        let id = ids.fresh();
        requests.push(Request::Insert { id, size });
        live.push((id, size));
        *volume += size;
    };

    while volume < config.target_volume {
        fresh(&mut rng, &mut requests, &mut live, &mut volume, &mut ids);
    }

    for _ in 0..config.churn_ops {
        let roll = rng.random_range(0u32..10);
        if roll < 5 && !live.is_empty() {
            // Touch: delete + reinsert of one live id, back to back.
            let idx = rng.random_range(0..live.len());
            let (id, old) = live.swap_remove(idx);
            requests.push(Request::Delete { id });
            let size = if rng.random_range(0u32..4) == 0 {
                old
            } else {
                config.dist.sample(&mut rng)
            };
            requests.push(Request::Insert { id, size });
            live.push((id, size));
            volume = volume - old + size;
        } else if roll < 7 {
            // Transient: born and gone within two requests.
            let size = config.dist.sample(&mut rng);
            let id = ids.fresh();
            requests.push(Request::Insert { id, size });
            requests.push(Request::Delete { id });
        } else if volume >= config.target_volume && !live.is_empty() {
            let idx = rng.random_range(0..live.len());
            let (id, size) = live.swap_remove(idx);
            requests.push(Request::Delete { id });
            volume -= size;
        } else {
            fresh(&mut rng, &mut requests, &mut live, &mut volume, &mut ids);
        }
    }

    Workload::new(
        format!(
            "coalescible-churn({}, V≈{}, {} ops, seed {})",
            config.dist.label(),
            config.target_volume,
            config.churn_ops,
            config.seed
        ),
        requests,
    )
}

/// A pure growth workload: `count` inserts, no deletes.
pub fn grow_only(dist: &SizeDist, count: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = IdSource::new();
    let requests = (0..count)
        .map(|_| Request::Insert {
            id: ids.fresh(),
            size: dist.sample(&mut rng),
        })
        .collect();
    Workload::new(format!("grow({}, {count} inserts)", dist.label()), requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> ChurnConfig {
        ChurnConfig {
            dist: SizeDist::Uniform { lo: 1, hi: 64 },
            target_volume: 4_000,
            churn_ops: 2_000,
            seed,
        }
    }

    #[test]
    fn churn_is_wellformed() {
        let w = churn(&cfg(1));
        assert!(w.validate().is_ok());
        assert!(w.len() > 2_000);
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        assert_eq!(churn(&cfg(7)).requests, churn(&cfg(7)).requests);
        assert_ne!(churn(&cfg(7)).requests, churn(&cfg(8)).requests);
    }

    #[test]
    fn churn_hovers_near_target() {
        let w = churn(&cfg(3));
        let stats = w.stats();
        assert!(stats.peak_volume >= 4_000);
        // Volume can exceed target only by one object (< 64 cells) at a time,
        // and deletes pull it back under; the peak stays close to target.
        assert!(stats.peak_volume < 4_200, "peak {}", stats.peak_volume);
        assert!(stats.final_volume > 3_000);
    }

    #[test]
    fn skewed_churn_spares_kept_objects() {
        use realloc_common::rendezvous_shard;
        // Short enough that the non-kept pool never drains (a longer run
        // eventually holds only kept volume and falls back to deleting it).
        let config = ChurnConfig {
            churn_ops: 600,
            ..cfg(5)
        };
        let w = skewed_churn(&config, |id| rendezvous_shard(id, 4) == 0);
        assert!(w.validate().is_ok());
        for req in &w.requests {
            if let Request::Delete { id } = *req {
                assert_ne!(rendezvous_shard(id, 4), 0, "deleted a kept object");
            }
        }
        // The kept shard's share of the final volume dominates: imbalance.
        let mut per_shard = [0u64; 4];
        let mut sizes = std::collections::HashMap::new();
        for req in &w.requests {
            match *req {
                Request::Insert { id, size } => {
                    sizes.insert(id, size);
                }
                Request::Delete { id } => {
                    sizes.remove(&id);
                }
            }
        }
        for (&id, &size) in &sizes {
            per_shard[rendezvous_shard(id, 4)] += size;
        }
        let total: u64 = per_shard.iter().sum();
        let mean = total as f64 / 4.0;
        assert!(
            per_shard[0] as f64 / mean > 1.5,
            "skew too weak: {per_shard:?}"
        );
    }

    #[test]
    fn churn_is_skewed_churn_with_nothing_kept() {
        // The two generators share one loop; with an empty predicate the
        // RNG sequences (and so the requests) must coincide exactly.
        assert_eq!(
            churn(&cfg(4)).requests,
            skewed_churn(&cfg(4), |_| false).requests
        );
    }

    #[test]
    fn skewed_churn_release_deletes_kept_objects_after_the_phase() {
        use realloc_common::rendezvous_shard;
        let config = ChurnConfig {
            churn_ops: 2_000,
            ..cfg(5)
        };
        let keep = |id: ObjectId| rendezvous_shard(id, 4) == 0;
        let w = skewed_churn_release(&config, keep, 600);
        assert!(w.validate().is_ok());
        // Count churn-phase deletes of kept objects before/after release.
        // Warm-up is insert-only, so deletes index the churn phase directly.
        let mut churn_ops_seen = 0usize;
        let mut kept_deleted_before = 0;
        let mut kept_deleted_after = 0;
        let mut warmed = false;
        let mut inserts_seen = 0usize;
        let warmup_inserts = {
            // Warm-up length: inserts until volume first reaches target.
            let mut vol = 0u64;
            let mut count = 0usize;
            for req in &w.requests {
                if let Request::Insert { size, .. } = *req {
                    count += 1;
                    vol += size;
                    if vol >= config.target_volume {
                        break;
                    }
                }
            }
            count
        };
        for req in &w.requests {
            if !warmed {
                if let Request::Insert { .. } = req {
                    inserts_seen += 1;
                    if inserts_seen == warmup_inserts {
                        warmed = true;
                    }
                }
                continue;
            }
            if let Request::Delete { id } = *req {
                if rendezvous_shard(id, 4) == 0 {
                    if churn_ops_seen < 600 {
                        kept_deleted_before += 1;
                    } else {
                        kept_deleted_after += 1;
                    }
                }
            }
            churn_ops_seen += 1;
        }
        assert_eq!(kept_deleted_before, 0, "skew phase must spare kept ids");
        assert!(kept_deleted_after > 0, "release phase must churn kept ids");
    }

    #[test]
    fn skewed_churn_release_matches_skewed_churn_through_the_skew_phase() {
        // The release variant is byte-identical to plain skewed churn up to
        // the release point (same RNG draws, same pools).
        let config = ChurnConfig {
            churn_ops: 800,
            ..cfg(11)
        };
        let keep = |id: ObjectId| id.0.is_multiple_of(4);
        let all = skewed_churn(&config, keep);
        let released = skewed_churn_release(&config, keep, 500);
        let warmup = all.requests.len() - 800;
        assert_eq!(
            all.requests[..warmup + 500],
            released.requests[..warmup + 500]
        );
        assert_ne!(all.requests, released.requests);
    }

    #[test]
    fn skewed_churn_is_deterministic_per_seed() {
        let keep = |id: ObjectId| id.0.is_multiple_of(3);
        assert_eq!(
            skewed_churn(&cfg(9), keep).requests,
            skewed_churn(&cfg(9), keep).requests
        );
    }

    #[test]
    fn skewed_churn_with_everything_kept_still_churns() {
        // Degenerate predicate: the fallback deletes kept objects rather
        // than stalling, so the workload stays well-formed and target-sized.
        let w = skewed_churn(&cfg(2), |_| true);
        assert!(w.validate().is_ok());
        assert!(w.stats().deletes > 0);
    }

    #[test]
    fn coalescible_churn_is_liveness_correct_and_reuses_ids() {
        let w = coalescible_churn(&cfg(6));
        assert!(w.validate_reuse().is_ok());
        // The whole point is id reuse, which the strict rule must reject.
        assert!(w.validate().is_err());
    }

    #[test]
    fn coalescible_churn_is_deterministic_per_seed() {
        assert_eq!(
            coalescible_churn(&cfg(7)).requests,
            coalescible_churn(&cfg(7)).requests
        );
        assert_ne!(
            coalescible_churn(&cfg(7)).requests,
            coalescible_churn(&cfg(8)).requests
        );
    }

    #[test]
    fn coalescible_churn_has_adjacent_foldable_pairs() {
        let w = coalescible_churn(&cfg(9));
        // Count back-to-back Delete{id}, Insert{id} pairs (touches) and
        // Insert{id}, Delete{id} pairs (transients): the generator exists
        // to produce them, so they must dominate the churn phase.
        let mut touches = 0usize;
        let mut transients = 0usize;
        for pair in w.requests.windows(2) {
            match (pair[0], pair[1]) {
                (Request::Delete { id }, Request::Insert { id: re, .. }) if id == re => {
                    touches += 1;
                }
                (Request::Insert { id, .. }, Request::Delete { id: gone }) if id == gone => {
                    transients += 1;
                }
                _ => {}
            }
        }
        assert!(touches > 2_000 / 4, "only {touches} touches");
        assert!(transients > 2_000 / 10, "only {transients} transients");
    }

    #[test]
    fn grow_only_has_no_deletes() {
        let w = grow_only(&SizeDist::Fixed(8), 100, 5);
        assert!(w.validate().is_ok());
        let stats = w.stats();
        assert_eq!(stats.inserts, 100);
        assert_eq!(stats.deletes, 0);
        assert_eq!(stats.final_volume, 800);
    }
}

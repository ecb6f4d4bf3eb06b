//! Partitioning a workload into per-shard sub-workloads.
//!
//! A sharded serving layer (the `realloc-engine` crate) routes each request
//! by a pure function of its [`ObjectId`]. Because both requests touching
//! an object (its insert and its delete) carry the same id, filtering a
//! sequence by `route(id) == s` yields per-shard streams that preserve
//! **per-object request order** — each sub-sequence is a well-formed
//! workload in its own right, replayable on a standalone reallocator. That
//! observation is what makes sharded and standalone runs comparable
//! shard-for-shard (the engine's equivalence tests are built on it).

use realloc_common::ObjectId;

use crate::{Request, Workload};

/// Splits `workload` into `shards` sub-workloads, sending each request to
/// `route(id)`. Relative order *within* each sub-workload matches the
/// original sequence, so per-object insert-before-delete order is
/// preserved; order *across* shards is intentionally unconstrained (shards
/// are independent instances). To split under a router, pass its `route`;
/// the router must stay quiescent for the duration, so that the split
/// matches the map the serving layer will route with.
///
/// # Panics
/// Panics if `shards` is zero or `route` returns an out-of-range shard.
pub fn split_with(
    workload: &Workload,
    shards: usize,
    mut route: impl FnMut(ObjectId) -> usize,
) -> Vec<Workload> {
    assert!(shards > 0, "cannot split into zero shards");
    let mut parts: Vec<Vec<Request>> = vec![Vec::new(); shards];
    for req in &workload.requests {
        let shard = route(req.id());
        assert!(
            shard < shards,
            "router sent {} to shard {shard} of {shards}",
            req.id()
        );
        parts[shard].push(*req);
    }
    parts
        .into_iter()
        .enumerate()
        .map(|(shard, requests)| {
            Workload::new(
                format!("{}[shard {shard}/{shards}]", workload.name),
                requests,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{churn, ChurnConfig};
    use crate::dist::SizeDist;

    fn sample() -> Workload {
        churn(&ChurnConfig {
            dist: SizeDist::Uniform { lo: 1, hi: 64 },
            target_volume: 3_000,
            churn_ops: 1_000,
            seed: 7,
        })
    }

    fn mod_route(id: ObjectId, shards: usize) -> usize {
        (id.0 % shards as u64) as usize
    }

    #[test]
    fn parts_are_wellformed_and_cover_everything() {
        let w = sample();
        let parts = split_with(&w, 3, |id| mod_route(id, 3));
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(Workload::len).sum::<usize>(), w.len());
        for part in &parts {
            part.validate().expect("sub-workload must stay well-formed");
        }
    }

    #[test]
    fn per_shard_stream_equals_filtered_original() {
        // The defining property: shard s's stream is exactly the original
        // sequence filtered to route(id) == s, in the original order.
        let w = sample();
        let shards = 4;
        let parts = split_with(&w, shards, |id| mod_route(id, shards));
        for (s, part) in parts.iter().enumerate() {
            let filtered: Vec<Request> = w
                .requests
                .iter()
                .copied()
                .filter(|r| mod_route(r.id(), shards) == s)
                .collect();
            assert_eq!(part.requests, filtered, "shard {s} stream diverges");
        }
    }

    #[test]
    fn split_follows_the_router() {
        use realloc_common::{rendezvous_shard, Router, TableRouter};
        let w = sample();
        // A fresh router reproduces split_with over its hash fallback...
        let mut table = TableRouter::new(3);
        let by_router = split_with(&w, 3, |id| table.route(id));
        let by_hash = split_with(&w, 3, |id| rendezvous_shard(id, 3));
        for (a, b) in by_router.iter().zip(&by_hash) {
            assert_eq!(a.requests, b.requests);
        }
        // ...and its assignments redirect whole objects.
        let victim = w.requests[0].id();
        let target = (table.route(victim) + 1) % 3;
        table.assign(victim, target);
        let parts = split_with(&w, 3, |id| table.route(id));
        assert!(parts[target].requests.iter().any(|r| r.id() == victim));
        for (s, part) in parts.iter().enumerate() {
            if s != target {
                assert!(part.requests.iter().all(|r| r.id() != victim));
            }
            part.validate().expect("router split stays well-formed");
        }
    }

    #[test]
    fn one_shard_is_identity() {
        let w = sample();
        let parts = split_with(&w, 1, |_| 0);
        assert_eq!(parts[0].requests, w.requests);
    }

    #[test]
    fn part_names_mention_shard() {
        let w = Workload::new("demo", vec![]);
        let parts = split_with(&w, 2, |_| 0);
        assert!(parts[1].name.contains("[shard 1/2]"), "{}", parts[1].name);
    }

    #[test]
    #[should_panic(expected = "zero shards")]
    fn zero_shards_rejected() {
        split_with(&Workload::new("w", vec![]), 0, |_| 0);
    }

    #[test]
    #[should_panic(expected = "shard 5 of 2")]
    fn out_of_range_route_rejected() {
        let w = Workload::new(
            "w",
            vec![Request::Insert {
                id: ObjectId(1),
                size: 4,
            }],
        );
        split_with(&w, 2, |_| 5);
    }
}

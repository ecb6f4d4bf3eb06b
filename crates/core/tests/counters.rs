//! The counters a variant keeps agree with the outcomes it returned:
//! `flush_count()` with the outcomes marked `flushed`, and
//! `checkpoints_waited()` with the `CheckpointBarrier` ops emitted. The
//! stream reuses ids, so the FS'24 variant recycles holes, some of them
//! fresh, and emits barriers outside any flush as well.

use realloc_common::{Reallocator, StorageOp};
use realloc_core::{CheckpointedReallocator, CostObliviousReallocator, NearlyQuadraticReallocator};
use workload_gen::churn::{coalescible_churn, ChurnConfig};
use workload_gen::dist::SizeDist;
use workload_gen::{Request, Workload};

/// What a variant's outcomes reported over a stream.
#[derive(Debug, Default)]
struct Tally {
    flushes: u64,
    barriers: u64,
    /// Barriers emitted by requests that did not flush.
    unflushed_barriers: u64,
}

fn serve(r: &mut dyn Reallocator, w: &Workload) -> Tally {
    let mut tally = Tally::default();
    for req in &w.requests {
        let out = match *req {
            Request::Insert { id, size } => r.insert(id, size),
            Request::Delete { id } => r.delete(id),
        }
        .unwrap_or_else(|e| panic!("{}: {e}", r.name()));
        let barriers = out
            .ops
            .iter()
            .filter(|op| matches!(op, StorageOp::CheckpointBarrier))
            .count() as u64;
        assert_eq!(u64::from(out.checkpoints), barriers, "{}", r.name());
        tally.barriers += barriers;
        if out.flushed {
            tally.flushes += 1;
        } else {
            tally.unflushed_barriers += barriers;
        }
    }
    tally
}

fn stream() -> Workload {
    coalescible_churn(&ChurnConfig {
        dist: SizeDist::Uniform { lo: 1, hi: 150 },
        target_volume: 20_000,
        churn_ops: 10_000,
        seed: 7,
    })
}

#[test]
fn flush_and_checkpoint_counters_match_the_outcomes() {
    let w = stream();

    let mut r = CostObliviousReallocator::new(0.25);
    let tally = serve(&mut r, &w);
    assert!(tally.flushes > 0);
    assert_eq!(r.flush_count(), tally.flushes);
    assert_eq!(tally.barriers, 0, "§2 emits no barrier");
    assert_eq!(r.checkpoints_waited(), 0);

    let mut r = CheckpointedReallocator::new(0.25);
    let tally = serve(&mut r, &w);
    assert!(tally.flushes > 0);
    assert_eq!(r.flush_count(), tally.flushes);
    assert_eq!(r.checkpoints_waited(), tally.barriers);
    assert_eq!(tally.unflushed_barriers, 0, "§3.2 blocks only in flushes");

    let mut r = NearlyQuadraticReallocator::new(0.25);
    let tally = serve(&mut r, &w);
    assert!(tally.flushes > 0);
    assert_eq!(r.flush_count(), tally.flushes);
    assert_eq!(r.checkpoints_waited(), tally.barriers);
    assert!(
        tally.unflushed_barriers > 0,
        "the stream must make FS'24 recycle a fresh hole"
    );
}

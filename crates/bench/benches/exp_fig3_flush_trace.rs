//! E3 — Figure 3: a worked buffer-flush example.
//!
//! The figure's scenario: starting from a settled two-class layout, the
//! sequence *insert A, delete B, insert C, insert D, delete E* fills the
//! buffers, and *insert F* triggers a flush of the top size classes. We
//! replay an equivalent sequence, print the layout at each step, and check
//! the figure's observable properties: the flush moves each object at most
//! twice, and the flushed classes' buffers are empty afterwards. The paper
//! compacts payload survivors left and then unpacks them right; this flush
//! moves each survivor straight to its slot, so it also checks that no
//! payload survivor moves more than once.

use std::collections::HashMap;
use std::process::ExitCode;

use realloc_common::{Extent, ObjectId, Reallocator, StorageOp};
use realloc_core::render::render_regions;
use realloc_core::CostObliviousReallocator;

use realloc_bench::{banner, Gate, Table};

fn main() -> ExitCode {
    let mut gate = Gate::default();
    banner(
        "E3 (exp_fig3_flush_trace)",
        "Figure 3",
        "a flush moves each object ≤ 2 times (each payload survivor ≤ 1 here) and leaves the flushed buffers empty",
    );

    let mut r = CostObliviousReallocator::new(0.5);
    // Settle a structure whose top-class buffer is roomy enough to hold the
    // figure's update burst (buffers are an ε′ fraction of the payload, so
    // the resident objects must dwarf the burst objects).
    for (n, size) in [(1u64, 480u64), (2, 900), (3, 400), (4, 70), (5, 330)] {
        r.insert(ObjectId(n), size).unwrap();
    }
    println!("\n(i) settled layout:");
    print!("{}", render_regions(&r.region_views(), 8));

    // The figure's update burst. Sizes chosen to land in the two classes'
    // buffers; E = object 4 from the initial set.
    let a = ObjectId(10);
    let b = ObjectId(11);
    let c = ObjectId(12);
    let d = ObjectId(13);

    r.insert(a, 34).unwrap(); // insert A
    r.insert(b, 35).unwrap(); // (B enters so it can be deleted)
    r.delete(b).unwrap(); // delete B -> tombstone in a buffer
    r.insert(c, 40).unwrap(); // insert C
    r.insert(d, 36).unwrap(); // insert D
    r.delete(ObjectId(4)).unwrap(); // delete E -> dummy record

    println!("(ii) after insert A, delete B, insert C, insert D, delete E:");
    print!("{}", render_regions(&r.region_views(), 8));

    // Keep inserting until F triggers the flush, noting each object's
    // extent and the payload segments just before it.
    let mut f_id = 20u64;
    let (flush_outcome, before, views) = loop {
        let before: HashMap<ObjectId, Extent> = r.live_extents().into_iter().collect();
        let views = r.region_views();
        let out = r.insert(ObjectId(f_id), 38).unwrap();
        if out.flushed {
            break (out, before, views);
        }
        f_id += 1;
        assert!(f_id < 40, "flush never triggered");
    };

    println!("(iii-v) insert F (obj#{f_id}) triggers the flush:");
    print!("{}", render_regions(&r.region_views(), 8));

    // Per-object move counts within the flush.
    let mut per_object = HashMap::new();
    for op in &flush_outcome.ops {
        if let StorageOp::Move { id, .. } = op {
            *per_object.entry(*id).or_insert(0usize) += 1;
        }
    }
    let max_moves = per_object.values().copied().max().unwrap_or(0);
    let in_payload = |at: &Extent| {
        views
            .iter()
            .any(|v| v.start <= at.offset && at.end() <= v.start + v.payload_space)
    };
    let max_survivor_moves = per_object
        .iter()
        .filter(|(id, _)| before.get(id).is_some_and(in_payload))
        .map(|(_, &n)| n)
        .max()
        .unwrap_or(0);
    let buffers_empty = r.region_views().iter().all(|v| v.buffer_used == 0);

    let mut table = Table::new(
        "flush properties (paper: ≤ 2 moves per object; here ≤ 1 per payload survivor; buffers empty after)",
        &["property", "measured", "verdict"],
    );
    table.row(vec![
        "objects moved by flush".into(),
        per_object.len().to_string(),
        "-".into(),
    ]);
    table.row(vec![
        "max moves per object".into(),
        max_moves.to_string(),
        gate.verdict(max_moves <= 2),
    ]);
    table.row(vec![
        "payload survivors moved at most once".into(),
        max_survivor_moves.to_string(),
        gate.verdict(max_survivor_moves <= 1),
    ]);
    table.row(vec![
        "flushed buffers empty".into(),
        buffers_empty.to_string(),
        gate.verdict(buffers_empty),
    ]);
    table.row(vec![
        "invariants 2.2-2.4".into(),
        r.validate().is_ok().to_string(),
        gate.verdict(r.validate().is_ok()),
    ]);
    table.print();

    println!("\nflush ops in order:");
    for op in &flush_outcome.ops {
        match op {
            StorageOp::Move { id, from, to } => println!("  move  {id}: {from} -> {to}"),
            StorageOp::Allocate { id, to } => println!("  alloc {id} at {to}  (trigger F)"),
            StorageOp::Free { id, at } => println!("  free  {id} at {at}"),
            StorageOp::CheckpointBarrier => println!("  checkpoint barrier"),
        }
    }
    gate.exit_code()
}

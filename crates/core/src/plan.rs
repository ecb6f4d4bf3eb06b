//! Buffer-flush planning — the heart of both Section 2 and Section 3.
//!
//! A flush of the size classes `>= b` redistributes a suffix of the layout
//! so that payload `i` takes exactly `V_t(i)` space and buffer `i` takes
//! `⌊ε′·V_t(i)⌋`, with all buffers left empty (Invariant 2.4). Two movement
//! schedules produce that same final state:
//!
//! * `plan_amortized` — §2: buffered objects hop to an *overflow segment*,
//!   payload survivors move **straight** to their final offsets (left-movers
//!   ascending, then right-movers descending), buffered objects drop into
//!   payload tails. A buffered object moves twice, a survivor at most once;
//!   moves may overlap their own source (memmove semantics).
//! * `plan_checkpointed` — §3.2: buffered objects hop to a *staging area*
//!   placed `B + ∆` past everything, survivors pack **right** against it and
//!   then unpack **left**, in *phases* of more than `B` (at most `B + ∆`)
//!   moved volume with a checkpoint barrier after each. Lemma 3.2's gap
//!   invariant keeps every phase's sources and targets disjoint, so no move
//!   overlaps and no write touches space freed since the last checkpoint.
//!
//! `flush_checkpointed` runs a whole §3.2 flush at once for the
//! checkpointed and nearly-quadratic variants; the deamortized variant
//! executes `plan_checkpointed`'s phases a few moves per request instead.
//!
//! Two documented deviations (listed with the others in ARCHITECTURE.md §3,
//! "Documented deviations from the paper"). §2 compacts survivors left and
//! then unpacks them right; `plan_amortized` fuses the two steps into one
//! move per survivor (see its docs). And §3.2 starts staging at
//! `max{L, L′} + B + ∆`; we use `max{L, L′, old structure end} + B + ∆`
//! because holes freed by deletes *since the last checkpoint* may lie
//! between `L` and the old structure end, and writing staging there would
//! break the freed-space rule the paper itself imposes. The old structure
//! end is at most `(1 + O(ε′))·V` (Lemma 2.5), so Lemma 3.1's space envelope
//! is preserved.

use realloc_common::{Extent, ObjectId, Outcome, StorageOp};

use crate::layout::{Admitted, Layout, Place};

/// An object participating in a flush: identity and index handle, plus its
/// current position.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlushObj {
    pub id: ObjectId,
    pub handle: u32,
    pub size: u64,
    pub class: u32,
    pub offset: u64,
}

/// One planned reallocation. `dest` is where the object logically lands so
/// incremental executors (the deamortized structure) can keep their index
/// coherent mid-flush, writing through `handle`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedMove {
    pub id: ObjectId,
    pub handle: u32,
    pub from: Extent,
    pub to: Extent,
    pub dest: Place,
}

impl PlannedMove {
    pub fn op(&self) -> StorageOp {
        StorageOp::Move {
            id: self.id,
            from: self.from,
            to: self.to,
        }
    }
}

/// Everything a flush needs to know, gathered in one pass.
#[derive(Debug, Clone)]
pub(crate) struct FlushInputs {
    pub b: u32,
    /// Absolute start of region `b` (regions below are untouched).
    pub base: u64,
    /// End of the last region before the flush.
    pub old_end: u64,
    /// Live buffered objects in buffers `>= b` (collection order).
    pub buffered: Vec<FlushObj>,
    /// Payload survivors of classes `>= b` in (class, offset) order.
    pub survivors: Vec<FlushObj>,
    /// Per class `b..`: new payload space `V_t(i)`.
    pub new_payload: Vec<u64>,
    /// Per class `b..`: new buffer space `⌊ε′·V_t(i)⌋`.
    pub new_buffer: Vec<u64>,
    /// Σ new payload+buffer — the new suffix size.
    pub s_new: u64,
    /// Total buffer space devoted to flushed buffers before the flush
    /// (the paper's `B`; the deamortized tail is added by its owner).
    pub old_buffer_space: u64,
}

impl FlushInputs {
    /// Absolute start of class `i`'s rebuilt region (`i >= b`).
    pub fn new_region_start(&self, i: u32) -> u64 {
        let rel = (i - self.b) as usize;
        self.base
            + self.new_payload[..rel].iter().sum::<u64>()
            + self.new_buffer[..rel].iter().sum::<u64>()
    }
}

/// Gathers flush inputs for boundary class `b`. `class_volume` must already
/// reflect the triggering update (insert accounted, delete removed), and
/// `extra_buffered` lets the deamortized structure feed its tail-buffer
/// occupants and logged inserts into the plan, after the live objects of
/// buffers `>= b` in (region, offset) order.
pub(crate) fn gather(
    layout: &Layout,
    b: u32,
    extra_buffered: impl IntoIterator<Item = FlushObj>,
) -> FlushInputs {
    let buffered = layout.regions[b as usize..]
        .iter()
        .flat_map(|region| region.buffer.objects())
        .chain(extra_buffered)
        .collect();
    let survivors = layout.survivors_from(b);

    let classes = layout.class_count() as u32;
    let mut new_payload = Vec::with_capacity((classes - b) as usize);
    let mut new_buffer = Vec::with_capacity((classes - b) as usize);
    for i in b..classes {
        let v = layout.class_volume[i as usize];
        new_payload.push(v);
        new_buffer.push(layout.eps().buffer_quota(v));
    }
    let s_new = new_payload.iter().sum::<u64>() + new_buffer.iter().sum::<u64>();
    let old_buffer_space = (b..classes)
        .map(|i| layout.regions[i as usize].buffer.space)
        .sum();

    FlushInputs {
        b,
        base: layout.region_start(b),
        old_end: layout.regions_end(),
        buffered,
        survivors,
        new_payload,
        new_buffer,
        s_new,
        old_buffer_space,
    }
}

/// Computes every object's final offset: survivors pack to the front of
/// their class's payload (original order preserved), buffered objects fill
/// the tail, and the trigger object — if of class `i` — takes the very last
/// slot of payload `i`.
///
/// Returns `(survivor_finals, buffered_finals, trigger_final)`, the first
/// two parallel to `inputs.survivors` / `inputs.buffered`.
pub(crate) fn final_offsets(
    inputs: &FlushInputs,
    trigger: Option<(u32, u64)>,
) -> (Vec<u64>, Vec<u64>, Option<u64>) {
    let classes = inputs.b + inputs.new_payload.len() as u32;
    // Per-class cursors start at each payload's base.
    let mut cursor: Vec<u64> = (inputs.b..classes)
        .map(|i| inputs.new_region_start(i))
        .collect();

    let mut survivor_finals = Vec::with_capacity(inputs.survivors.len());
    for s in &inputs.survivors {
        let c = &mut cursor[(s.class - inputs.b) as usize];
        survivor_finals.push(*c);
        *c += s.size;
    }
    let mut buffered_finals = Vec::with_capacity(inputs.buffered.len());
    for o in &inputs.buffered {
        let c = &mut cursor[(o.class - inputs.b) as usize];
        buffered_finals.push(*c);
        *c += o.size;
    }
    let trigger_final = trigger.map(|(class, size)| {
        let c = &mut cursor[(class - inputs.b) as usize];
        let at = *c;
        *c += size;
        at
    });

    // Exact fit: each cursor must land exactly at the end of its payload.
    debug_assert!((inputs.b..classes).all(|i| {
        cursor[(i - inputs.b) as usize]
            == inputs.new_region_start(i) + inputs.new_payload[(i - inputs.b) as usize]
    }));

    (survivor_finals, buffered_finals, trigger_final)
}

/// Output of a fully planned flush.
#[derive(Debug, Clone)]
pub(crate) struct FlushPlan {
    pub b: u32,
    pub new_payload: Vec<u64>,
    pub new_buffer: Vec<u64>,
    /// Move schedule; each inner vector is one phase. The amortized plan has
    /// a single phase; the checkpointed plan expects a checkpoint barrier
    /// after every phase.
    pub phases: Vec<Vec<PlannedMove>>,
    /// Final placement of every object in the flushed suffix (movers and
    /// stayers alike), used to rebuild the regions.
    pub finals: Vec<FlushObj>,
    /// Where the trigger object ends up (`None` for delete-triggered
    /// flushes).
    pub trigger_final: Option<FlushObj>,
    /// Peak structure size reached while executing the plan.
    pub peak: u64,
}

/// Section 2's flush, one phase with memmove semantics: buffered objects hop
/// to the overflow segment, payload survivors move straight to their final
/// offsets, and the overflow drops into the payload tails. A buffered object
/// moves exactly twice and a survivor at most once.
///
/// The paper compacts survivors left and then unpacks them right, writing a
/// survivor whose slot changes twice; moving each once reaches the same final
/// state and `peak` at no more than the paper's cost (a documented deviation,
/// ARCHITECTURE.md §3).
///
/// `trigger` is the admitted insert that triggered the flush, if any; the
/// object is *not yet placed* (§2 defers placement until after the flush)
/// and `trigger_final` tells the caller where to allocate it.
pub(crate) fn plan_amortized(inputs: &FlushInputs, trigger: Option<Admitted>) -> FlushPlan {
    let (survivor_finals, buffered_finals, trigger_final) =
        final_offsets(inputs, trigger.map(|t| (t.class, t.size)));

    let overflow_start = (inputs.base + inputs.s_new).max(inputs.old_end);
    let mut moves = Vec::new();

    // Step 1: buffered objects -> overflow segment (always real moves:
    // the overflow lies beyond both old and new suffixes).
    let mut staged_at = Vec::with_capacity(inputs.buffered.len());
    let mut overflow_cursor = overflow_start;
    for o in &inputs.buffered {
        moves.push(PlannedMove {
            id: o.id,
            handle: o.handle,
            from: Extent::new(o.offset, o.size),
            to: Extent::new(overflow_cursor, o.size),
            dest: Place::Staging,
        });
        staged_at.push(overflow_cursor);
        overflow_cursor += o.size;
    }
    let peak = (inputs.base + inputs.s_new)
        .max(overflow_cursor)
        .max(inputs.old_end);

    // Step 2: each survivor whose slot changes moves straight to its final
    // offset: left-movers ascending, then right-movers descending. Sources
    // and finals both ascend and are pairwise disjoint, so a left-mover's
    // target can only cover sources of earlier left-movers and a
    // right-mover's only sources of later right-movers, all moved by then;
    // the overlap with its own source is memmove's.
    let survivor_move = |s: &FlushObj, to: u64| PlannedMove {
        id: s.id,
        handle: s.handle,
        from: Extent::new(s.offset, s.size),
        to: Extent::new(to, s.size),
        dest: Place::Payload,
    };
    let with_finals = || inputs.survivors.iter().zip(&survivor_finals);
    moves.extend(
        with_finals()
            .filter(|&(s, &to)| to < s.offset)
            .map(|(s, &to)| survivor_move(s, to)),
    );
    moves.extend(
        with_finals()
            .rev()
            .filter(|&(s, &to)| to > s.offset)
            .map(|(s, &to)| survivor_move(s, to)),
    );

    // Step 3: overflow objects -> payload tails.
    for (idx, o) in inputs.buffered.iter().enumerate() {
        moves.push(PlannedMove {
            id: o.id,
            handle: o.handle,
            from: Extent::new(staged_at[idx], o.size),
            to: Extent::new(buffered_finals[idx], o.size),
            dest: Place::Payload,
        });
    }

    let finals = collect_finals(inputs, &survivor_finals, &buffered_finals);
    let trigger_final = trigger.map(|t| FlushObj {
        id: t.id,
        handle: t.handle,
        size: t.size,
        class: t.class,
        offset: trigger_final.expect("computed with trigger"),
    });

    FlushPlan {
        b: inputs.b,
        new_payload: inputs.new_payload.clone(),
        new_buffer: inputs.new_buffer.clone(),
        phases: vec![moves],
        finals,
        trigger_final,
        peak,
    }
}

/// Section 3.2's phased flush under the database rules.
///
/// Unlike `plan_amortized`, survivors keep the paper's two moves (pack right,
/// then unpack left): §3.1 forbids a move that overlaps its own source and a
/// write onto cells vacated since the last checkpoint, and a survivor moved
/// straight to its final slot may do either. §3.3 and FS'24 run this plan
/// too.
///
/// `trigger` is the insert that triggered the flush, at its current offset:
/// the checkpointed variant *pre-places* the trigger at the end of the last
/// buffer before flushing, so it participates as a staged object.
/// `extra_buffer_space` adds the deamortized tail buffer to the paper's `B`.
pub(crate) fn plan_checkpointed(
    inputs: &FlushInputs,
    trigger: Option<FlushObj>,
    extra_buffer_space: u64,
    delta: u64,
) -> FlushPlan {
    let (survivor_finals, buffered_finals, trigger_final) =
        final_offsets(inputs, trigger.map(|t| (t.class, t.size)));

    let b_space = inputs.old_buffer_space + extra_buffer_space;
    let s_prime = inputs.base + inputs.s_new;
    let trigger_w = trigger.map_or(0, |t| t.size);
    // L' = S' - w. Staging starts B + 2∆ past everything: the paper uses
    // B + ∆, but its unpack-gap argument silently assumes the trigger slot
    // is the very last allocated address; one extra ∆ makes the Lemma 3.2
    // gap invariant (gap ≥ every phase's address span) unconditional. See
    // the module docs for why old_end joins the max.
    let l_prime = s_prime.saturating_sub(trigger_w);
    let staging_start = l_prime.max(inputs.old_end) + b_space + 2 * delta;

    let mut phases: Vec<Vec<PlannedMove>> = Vec::new();

    // Step A: buffered objects (trigger included) -> staging. One phase.
    let mut step_a = Vec::new();
    let mut staged_at = Vec::with_capacity(inputs.buffered.len());
    let mut cursor = staging_start;
    for o in &inputs.buffered {
        step_a.push(PlannedMove {
            id: o.id,
            handle: o.handle,
            from: Extent::new(o.offset, o.size),
            to: Extent::new(cursor, o.size),
            dest: Place::Staging,
        });
        staged_at.push(cursor);
        cursor += o.size;
    }
    let trigger_staged = trigger.map(|t| {
        let staged = cursor;
        step_a.push(PlannedMove {
            id: t.id,
            handle: t.handle,
            from: Extent::new(t.offset, t.size),
            to: Extent::new(staged, t.size),
            dest: Place::Staging,
        });
        cursor += t.size;
        staged
    });
    let staging_end = cursor;
    // Step A is pushed even when empty: the executor places a checkpoint
    // barrier after every phase, and the flush *needs* one before its first
    // pack phase so that holes freed by deletes since the last checkpoint
    // become writable (the freed-space rule).
    phases.push(step_a);

    // Step B: pack survivors right against the staging area, in phases of
    // more than `B` (at most `B + ∆`) moved volume.
    let total_survivor_vol: u64 = inputs.survivors.iter().map(|s| s.size).sum();
    let pack_base = staging_start - total_survivor_vol;
    let mut packed = Vec::with_capacity(inputs.survivors.len());
    let mut acc = pack_base;
    for s in &inputs.survivors {
        packed.push(acc);
        acc += s.size;
    }
    let mut phase = Vec::new();
    let mut phase_vol = 0u64;
    for idx in (0..inputs.survivors.len()).rev() {
        let s = &inputs.survivors[idx];
        if s.offset == packed[idx] {
            continue;
        }
        phase.push(PlannedMove {
            id: s.id,
            handle: s.handle,
            from: Extent::new(s.offset, s.size),
            to: Extent::new(packed[idx], s.size),
            dest: Place::Payload,
        });
        phase_vol += s.size;
        if phase_vol > b_space {
            phases.push(std::mem::take(&mut phase));
            phase_vol = 0;
        }
    }
    if !phase.is_empty() {
        phases.push(std::mem::take(&mut phase));
    }

    // Step C: unpack survivors left to their final positions (ascending).
    // Phases are bounded by *target-address span* (the paper's "next B+1 to
    // B+∆ target locations"), not by moved volume: final positions are
    // interspersed with empty buffer segments and reserved staged/trigger
    // slots, so a phase's span exceeds its volume.
    let mut phase_target_start: Option<u64> = None;
    for idx in 0..inputs.survivors.len() {
        let s = &inputs.survivors[idx];
        if packed[idx] == survivor_finals[idx] {
            continue;
        }
        let to = Extent::new(survivor_finals[idx], s.size);
        // Close the phase early if this move would stretch its span past
        // B + ∆ (address gaps between targets can exceed the move's size).
        if let Some(start) = phase_target_start {
            if to.end() - start > b_space + delta {
                phases.push(std::mem::take(&mut phase));
                phase_target_start = None;
            }
        }
        let start = *phase_target_start.get_or_insert(to.offset);
        phase.push(PlannedMove {
            id: s.id,
            handle: s.handle,
            from: Extent::new(packed[idx], s.size),
            to,
            dest: Place::Payload,
        });
        if to.end() - start > b_space {
            phases.push(std::mem::take(&mut phase));
            phase_target_start = None;
        }
    }
    if !phase.is_empty() {
        phases.push(std::mem::take(&mut phase));
    }

    // Step D: staged objects -> payload tails; trigger takes its class's
    // last slot. Single phase (staging and targets are disjoint).
    let mut step_d = Vec::new();
    for (idx, o) in inputs.buffered.iter().enumerate() {
        step_d.push(PlannedMove {
            id: o.id,
            handle: o.handle,
            from: Extent::new(staged_at[idx], o.size),
            to: Extent::new(buffered_finals[idx], o.size),
            dest: Place::Payload,
        });
    }
    if let (Some(t), Some(staged), Some(fin)) = (trigger, trigger_staged, trigger_final) {
        step_d.push(PlannedMove {
            id: t.id,
            handle: t.handle,
            from: Extent::new(staged, t.size),
            to: Extent::new(fin, t.size),
            dest: Place::Payload,
        });
    }
    if !step_d.is_empty() {
        phases.push(step_d);
    }

    let finals = collect_finals(inputs, &survivor_finals, &buffered_finals);
    let trigger_final = trigger.map(|t| FlushObj {
        offset: trigger_final.expect("computed with trigger"),
        ..t
    });

    FlushPlan {
        b: inputs.b,
        new_payload: inputs.new_payload.clone(),
        new_buffer: inputs.new_buffer.clone(),
        phases,
        finals,
        trigger_final,
        peak: staging_end.max(s_prime).max(inputs.old_end),
    }
}

/// Runs a §3.2 flush to completion on `layout`, after `pre_ops` (a
/// delete-triggered flush's `Free`): pre-places an insert's `trigger`, plans
/// the phases for the boundary of `trigger_class`, emits one checkpoint
/// barrier after every phase, and applies the final state. Returns the
/// request's outcome and the boundary class `b`.
pub(crate) fn flush_checkpointed(
    layout: &mut Layout,
    trigger: Option<Admitted>,
    trigger_class: u32,
    pre_ops: Vec<StorageOp>,
) -> (Outcome, u32) {
    let mut ops = pre_ops;

    // §3.2 inserts *before* flushing, unlike §2: the trigger is pre-placed
    // at the end of the last buffer's used space and rides the plan through
    // staging to its final slot. That is past all used space, never on
    // freed cells: buffer space is consumed monotonically between flushes
    // and every flush ends with a barrier.
    let planned_trigger = trigger.map(|t| {
        let last = layout.class_count() as u32 - 1;
        let at = layout.buffer_start(last) + layout.regions[last as usize].buffer.used;
        ops.push(StorageOp::Allocate {
            id: t.id,
            to: Extent::new(at, t.size),
        });
        FlushObj {
            id: t.id,
            handle: t.handle,
            size: t.size,
            class: t.class,
            offset: at,
        }
    });

    let b = layout.boundary_class(trigger_class);
    let inputs = gather(layout, b, []);
    let plan = plan_checkpointed(&inputs, planned_trigger, 0, layout.delta());
    for phase in &plan.phases {
        ops.extend(phase.iter().map(PlannedMove::op));
        // One barrier after every phase; the last doubles as the
        // end-of-flush checkpoint that makes vacated space reusable.
        ops.push(StorageOp::CheckpointBarrier);
    }

    let trigger_end = planned_trigger.map_or(0, |t| t.offset + t.size);
    apply_final_state(layout, &plan);
    let outcome = Outcome {
        ops,
        flushed: true,
        peak_structure_size: plan.peak.max(trigger_end).max(layout.regions_end()),
    };
    (outcome, b)
}

fn collect_finals(
    inputs: &FlushInputs,
    survivor_finals: &[u64],
    buffered_finals: &[u64],
) -> Vec<FlushObj> {
    inputs
        .survivors
        .iter()
        .zip(survivor_finals)
        .chain(inputs.buffered.iter().zip(buffered_finals))
        .map(|(&o, &offset)| FlushObj { offset, ..o })
        .collect()
}

/// Applies a plan's final state to the layout: resizes regions `>= b`,
/// rebuilds their payload segments, empties buffers, and rewrites every
/// object's index entry (trigger included, if any) in place through its
/// handle, hashing nothing. Within each class the finals ascend in offset
/// order (survivors, then buffered objects, then the trigger, as
/// `final_offsets` hands them out), so every rebuilt object is an append.
pub(crate) fn apply_final_state(layout: &mut Layout, plan: &FlushPlan) {
    let b = plan.b as usize;
    // Size classes created *after* the plan was computed (deamortized
    // mid-flush inserts) lie beyond the plan's suffix; they are zero-sized
    // and untouched here — the next flush will size them.
    let planned = b + plan.new_payload.len();
    for (rel, region) in layout.regions[b..planned].iter_mut().enumerate() {
        region.payload_space = plan.new_payload[rel];
        region.payload.clear();
        region.payload_live = 0;
        region.buffer.clear();
        region.buffer.space = plan.new_buffer[rel];
    }
    for f in plan.finals.iter().chain(plan.trigger_final.iter()) {
        let obj = Admitted {
            id: f.id,
            handle: f.handle,
            size: f.size,
            class: f.class,
        };
        layout.attach_payload(obj, f.offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{BufKind, Eps, Layout};

    /// Builds a layout with two classes: class 2 (sizes 4..8) and class 3
    /// (sizes 8..16), a hole in payload 2, and an object buffered in
    /// buffer 3.
    fn scenario() -> Layout {
        let mut l = Layout::new(Eps::new(0.5 * 3.0 / 3.0)); // ε=0.5, ε′=1/6
                                                            // class 2: objects 1 (size 4) and 2 (size 5); class 3: object 3 (size 8).
        let (o1, _) = l.admit(ObjectId(1), 4).unwrap();
        let (o2, _) = l.admit(ObjectId(2), 5).unwrap();
        let (o3, _) = l.admit(ObjectId(3), 8).unwrap();
        assert_eq!((o1.class, o2.class, o3.class), (2, 2, 3));
        l.regions[2].payload_space = 14;
        l.regions[2].buffer.space = 2;
        l.regions[3].payload_space = 8;
        l.regions[3].buffer.space = 6;
        l.attach_payload(o1, 0);
        // Hole at [4, 9) left by some earlier delete.
        l.attach_payload(o2, 9);
        l.attach_payload(o3, 16);
        // Object 4 (class 2, size 4) parked in buffer 3 at its start (24+8=... )
        let (o4, _) = l.admit(ObjectId(4), 4).unwrap();
        assert_eq!(o4.class, 2);
        let start = l.buffer_start(3);
        let kind = BufKind::Obj(o4.id, o4.handle);
        let off = l.regions[3].buffer.push(start, 4, 2, kind).unwrap();
        l.attach_buffered(o4, 3, off);
        l
    }

    #[test]
    fn gather_collects_suffix() {
        let l = scenario();
        let inputs = gather(&l, 2, []);
        assert_eq!(inputs.base, 0);
        assert_eq!(inputs.old_end, 30);
        assert_eq!(inputs.survivors.len(), 3);
        assert_eq!(inputs.buffered.len(), 1);
        // V_t(2) = 4+5+4 = 13, V_t(3) = 8; ε′ = 1/6 → buffers 2 and 1.
        assert_eq!(inputs.new_payload, vec![13, 8]);
        assert_eq!(inputs.new_buffer, vec![2, 1]);
        assert_eq!(inputs.s_new, 24);
        assert_eq!(inputs.old_buffer_space, 8);
    }

    #[test]
    fn final_offsets_pack_exactly() {
        let l = scenario();
        let inputs = gather(&l, 2, []);
        let (sf, bf, tf) = final_offsets(&inputs, None);
        // Survivors of class 2 at 0 and 4; buffered class-2 object at 9;
        // class-3 region starts at 13+2=15.
        assert_eq!(sf, vec![0, 4, 15]);
        assert_eq!(bf, vec![9]);
        assert_eq!(tf, None);
    }

    #[test]
    fn final_offsets_reserve_trigger_slot_last() {
        let mut l = scenario();
        // Trigger: class-2 insert of size 6.
        let k = l.account_insert(6);
        assert_eq!(k, 2);
        let inputs = gather(&l, 2, []);
        assert_eq!(inputs.new_payload, vec![19, 8]);
        let (_sf, bf, tf) = final_offsets(&inputs, Some((2, 6)));
        assert_eq!(bf, vec![9]);
        assert_eq!(tf, Some(13), "trigger takes the last class-2 payload slot");
    }

    #[test]
    fn amortized_plan_two_moves_per_object_max() {
        let l = scenario();
        let inputs = gather(&l, 2, []);
        let plan = plan_amortized(&inputs, None);
        assert_eq!(plan.phases.len(), 1);
        let mut per_object = std::collections::HashMap::new();
        for m in &plan.phases[0] {
            *per_object.entry(m.id).or_insert(0) += 1;
        }
        // Buffered objects move exactly twice (to overflow and back), and
        // payload survivors at most once.
        for o in &inputs.buffered {
            assert_eq!(per_object.get(&o.id), Some(&2), "{:?}", o.id);
        }
        for s in &inputs.survivors {
            assert!(per_object.get(&s.id).is_none_or(|&n| n == 1), "{:?}", s.id);
        }
        // Object 3 moves straight to its slot; compacting left and then
        // unpacking right would take it 16 -> 9 -> 15.
        let obj3: Vec<_> = plan.phases[0]
            .iter()
            .filter(|m| m.id == ObjectId(3))
            .map(|m| (m.from, m.to))
            .collect();
        assert_eq!(obj3, [(Extent::new(16, 8), Extent::new(15, 8))]);
    }

    #[test]
    fn amortized_plan_is_replayable_and_lands_on_finals() {
        // Replay the move stream against a simple position tracker and check
        // the final positions match `finals`.
        let l = scenario();
        let inputs = gather(&l, 2, []);
        let plan = plan_amortized(&inputs, None);
        let mut pos: std::collections::HashMap<ObjectId, Extent> =
            l.entries().map(|(id, e)| (id, e.extent())).collect();
        for m in &plan.phases[0] {
            assert_eq!(pos[&m.id], m.from, "chained from-extents must match");
            pos.insert(m.id, m.to);
        }
        for f in &plan.finals {
            assert_eq!(pos[&f.id], Extent::new(f.offset, f.size), "{:?}", f.id);
        }
        // Invariant 2.4: class-2 payload exactly V_t = 13, buffer 2.
        assert_eq!(plan.new_payload[0], 13);
        assert_eq!(plan.new_buffer[0], 2);
    }

    #[test]
    fn checkpointed_plan_moves_never_self_overlap() {
        let l = scenario();
        let inputs = gather(&l, 2, []);
        let plan = plan_checkpointed(&inputs, None, 0, l.delta());
        for phase in &plan.phases {
            for m in phase {
                assert!(
                    !m.from.overlaps(&m.to),
                    "{:?}: {} -> {}",
                    m.id,
                    m.from,
                    m.to
                );
            }
        }
    }

    #[test]
    fn checkpointed_phases_bounded_by_b_plus_delta() {
        let l = scenario();
        let inputs = gather(&l, 2, []);
        let delta = l.delta();
        let b_space = inputs.old_buffer_space;
        let plan = plan_checkpointed(&inputs, None, 0, delta);
        for phase in &plan.phases {
            let vol: u64 = phase.iter().map(|m| m.to.len).sum();
            assert!(vol <= b_space + delta, "phase volume {vol} > B+∆");
        }
    }

    #[test]
    fn checkpointed_phase_sources_and_targets_disjoint() {
        // Lemma 3.2: within each phase, every source extent is disjoint from
        // every target extent.
        let l = scenario();
        let inputs = gather(&l, 2, []);
        let plan = plan_checkpointed(&inputs, None, 0, l.delta());
        for phase in &plan.phases {
            for a in phase {
                for b in phase {
                    assert!(
                        !a.from.overlaps(&b.to),
                        "{:?} source {} overlaps {:?} target {}",
                        a.id,
                        a.from,
                        b.id,
                        b.to
                    );
                }
            }
        }
    }

    #[test]
    fn checkpointed_plan_includes_preplaced_trigger() {
        let mut l = scenario();
        let (t, _) = l.admit(ObjectId(9), 6).unwrap();
        let inputs = gather(&l, 2, []);
        // Trigger pre-placed at the end of the last object (30 is past all).
        let trigger = FlushObj {
            id: t.id,
            handle: t.handle,
            size: t.size,
            class: t.class,
            offset: 30,
        };
        let plan = plan_checkpointed(&inputs, Some(trigger), 0, l.delta());
        let trig = plan.trigger_final.expect("trigger placed");
        assert_eq!(trig.offset, 13);
        // The trigger moves exactly twice: to staging, then to its slot.
        let trig_moves: usize = plan
            .phases
            .iter()
            .flatten()
            .filter(|m| m.id == ObjectId(9))
            .count();
        assert_eq!(trig_moves, 2);
    }

    #[test]
    fn apply_final_state_rebuilds_regions() {
        let mut l = scenario();
        let inputs = gather(&l, 2, []);
        let plan = plan_amortized(&inputs, None);
        apply_final_state(&mut l, &plan);
        assert_eq!(l.regions[2].payload_space, 13);
        assert_eq!(l.regions[2].payload_live, 13);
        assert_eq!(l.regions[2].buffer.space, 2);
        assert!(l.regions[2].buffer.entries.is_empty());
        assert_eq!(l.regions[3].payload_space, 8);
        crate::validate::check_invariants(&l).unwrap();
    }

    #[test]
    fn empty_flush_is_wellformed() {
        // A flush with no survivors and no buffered objects (everything was
        // deleted) just resizes regions.
        let mut l = Layout::new(Eps::new(0.5));
        l.ensure_class(2);
        l.regions[2].payload_space = 20;
        l.regions[2].buffer.space = 3;
        let inputs = gather(&l, 0, []);
        let plan = plan_amortized(&inputs, None);
        assert!(plan.phases[0].is_empty());
        apply_final_state(&mut l, &plan);
        assert_eq!(l.regions_end(), 0);
        crate::validate::check_invariants(&l).unwrap();
    }
}

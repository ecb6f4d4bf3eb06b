//! Runtime checks of the paper's structural invariants (Invariant 2.2 and
//! friends), used pervasively by tests and property tests.

use realloc_common::{Extent, ObjectId};

use crate::layout::{BufKind, Buffer, Entry, Layout, Place};

/// A violated structural invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// Invariant 2.2(3): payload segment holds a foreign-class object.
    ForeignPayloadObject {
        /// The offending payload's region (= class) index.
        region: u32,
        /// The foreign object.
        id: ObjectId,
        /// The object's actual class.
        class: u32,
    },
    /// Invariant 2.2(4): buffer holds an object of a *larger* class.
    OversizedBufferObject {
        /// The offending buffer's region index.
        region: u32,
        /// The entry's (larger) class.
        class: u32,
    },
    /// An object lies (partly) outside its segment.
    OutOfSegment {
        /// The escaping object.
        id: ObjectId,
        /// Its placement.
        extent: Extent,
        /// The segment that should contain it.
        segment: Extent,
    },
    /// Two live extents overlap.
    Overlap {
        /// First object.
        a: ObjectId,
        /// Second object.
        b: ObjectId,
        /// The shared cells.
        at: Extent,
    },
    /// The index and the segments disagree about an object.
    IndexMismatch {
        /// The inconsistent object.
        id: ObjectId,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// Cached volume/usage counters diverge from recomputed truth.
    BadAccounting {
        /// Human-readable description of the drift.
        detail: String,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::ForeignPayloadObject { region, id, class } => {
                write!(f, "payload {region} holds {id} of class {class}")
            }
            InvariantViolation::OversizedBufferObject { region, class } => {
                write!(f, "buffer {region} holds an entry of larger class {class}")
            }
            InvariantViolation::OutOfSegment {
                id,
                extent,
                segment,
            } => {
                write!(f, "{id} at {extent} escapes segment {segment}")
            }
            InvariantViolation::Overlap { a, b, at } => write!(f, "{a} overlaps {b} at {at}"),
            InvariantViolation::IndexMismatch { id, detail } => write!(f, "{id}: {detail}"),
            InvariantViolation::BadAccounting { detail } => write!(f, "accounting: {detail}"),
        }
    }
}

/// Checks every structural invariant of the layout:
///
/// * Invariant 2.2(3): payload segments only store their own size class;
/// * every buffer passes the buffer check, which includes Invariant 2.2(4):
///   buffer segments only store classes `<= theirs`;
/// * segment containment (objects inside their declared segments; §3.3's
///   staging and log cells have their own geometry, and §3.3 runs the
///   buffer check on its tail itself);
/// * index handles name their objects: the index map, the entry slab and
///   its free list agree, and every payload slot and buffer entry carries
///   the handle the index holds for its object;
/// * index/segment agreement and cached-counter correctness;
/// * global pairwise disjointness of the indexed extents.
pub fn check_invariants(layout: &Layout) -> Result<(), InvariantViolation> {
    check_handles(layout)?;

    // Segment-side walk: match every payload and buffer object to its
    // index entry.
    let mut in_segments = 0;
    for (k, region) in layout.regions.iter().enumerate() {
        let k = k as u32;
        let payload_seg = Extent::new(layout.region_start(k), region.payload_space);
        let mut payload_live = 0;
        for slot in region.payload.iter() {
            let (offset, id, size) = (slot.offset, slot.id, slot.size);
            let ext = Extent::new(offset, size);
            let entry = indexed(layout, id, slot.handle, "payload")?;
            if entry.class != k {
                return Err(InvariantViolation::ForeignPayloadObject {
                    region: k,
                    id,
                    class: entry.class,
                });
            }
            if entry.place != Place::Payload || entry.offset != offset || entry.size != size {
                return Err(InvariantViolation::IndexMismatch {
                    id,
                    detail: format!("payload slot {ext} vs index {:?}", entry.place),
                });
            }
            if !payload_seg.contains(&ext) {
                return Err(InvariantViolation::OutOfSegment {
                    id,
                    extent: ext,
                    segment: payload_seg,
                });
            }
            payload_live += size;
            in_segments += 1;
        }
        if payload_live != region.payload_live {
            return Err(InvariantViolation::BadAccounting {
                detail: format!(
                    "region {k} payload_live {} != {payload_live}",
                    region.payload_live
                ),
            });
        }
        // The checkpointed trigger intentionally overflows the last buffer
        // momentarily, but never *between* requests — when invariants are
        // checked.
        let buffer_seg = Extent::new(payload_seg.end(), region.buffer.space);
        in_segments += check_buffer(layout, &region.buffer, buffer_seg, Place::Buffer(k))?;
    }
    let segment_indexed = layout
        .entries()
        .filter(|(_, e)| matches!(e.place, Place::Payload | Place::Buffer(_)))
        .count();
    if segment_indexed != in_segments {
        return Err(InvariantViolation::BadAccounting {
            detail: "index has payload/buffer objects the segments lack".into(),
        });
    }

    // Volume accounting: class_volume over every indexed object.
    let mut recomputed = vec![0u64; layout.class_volume.len()];
    for (_, entry) in layout.entries() {
        recomputed[entry.class as usize] += entry.size;
    }
    if recomputed != layout.class_volume {
        return Err(InvariantViolation::BadAccounting {
            detail: format!(
                "class_volume {:?} != recomputed {recomputed:?}",
                layout.class_volume
            ),
        });
    }
    if layout.volume != recomputed.iter().sum::<u64>() {
        return Err(InvariantViolation::BadAccounting {
            detail: "total volume drifted".into(),
        });
    }

    // The incrementally tracked footprint cache must agree with a full
    // scan over the index (the cache may be pending a rescan, but what it
    // surfaces must be the true maximum).
    let scanned_footprint = layout
        .entries()
        .map(|(_, e)| e.extent().end())
        .max()
        .unwrap_or(0);
    if layout.last_object_end() != scanned_footprint {
        return Err(InvariantViolation::BadAccounting {
            detail: format!(
                "footprint index drifted: cached {} vs scanned {scanned_footprint}",
                layout.last_object_end()
            ),
        });
    }

    // The walk matched every payload and buffer object to its index entry,
    // so the index's extents are every object's.
    check_disjoint(layout)
}

/// Checks one buffer, a region's or §3.3's tail, laid out at `segment`:
/// each entry lies inside the segment, `used` is the entries' sum, each
/// object's index entry names `place` at the entry's offset and size, and
/// a region `k`'s buffer (`place` is `Place::Buffer(k)`) holds no class
/// above `k` (Invariant 2.2(4)). Returns how many objects it holds.
pub(crate) fn check_buffer(
    layout: &Layout,
    buffer: &Buffer,
    segment: Extent,
    place: Place,
) -> Result<usize, InvariantViolation> {
    let (mut used, mut objects) = (0, 0);
    for entry in &buffer.entries {
        if let Place::Buffer(k) = place {
            if entry.class > k {
                return Err(InvariantViolation::OversizedBufferObject {
                    region: k,
                    class: entry.class,
                });
            }
        }
        let ext = Extent::new(entry.offset, entry.size);
        if !segment.contains(&ext) {
            return Err(InvariantViolation::OutOfSegment {
                id: match entry.kind {
                    BufKind::Obj(id, _) => id,
                    BufKind::Tombstone => ObjectId(u64::MAX),
                },
                extent: ext,
                segment,
            });
        }
        used += entry.size;
        if let BufKind::Obj(id, handle) = entry.kind {
            let idx = indexed(layout, id, handle, "buffer")?;
            if idx.place != place || idx.offset != entry.offset || idx.size != entry.size {
                return Err(InvariantViolation::IndexMismatch {
                    id,
                    detail: format!(
                        "{place:?} slot {ext} vs index {:?}@{}",
                        idx.place, idx.offset
                    ),
                });
            }
            objects += 1;
        }
    }
    if used != buffer.used {
        return Err(InvariantViolation::BadAccounting {
            detail: format!("{place:?} used {} != {used}", buffer.used),
        });
    }
    Ok(objects)
}

/// Global pairwise disjointness of the indexed extents, by sorting them
/// and checking neighbours. Mid-flush (§3.3), when the segments are
/// transitional, this is the whole check.
pub(crate) fn check_disjoint(layout: &Layout) -> Result<(), InvariantViolation> {
    let mut extents: Vec<(u64, u64, ObjectId)> = layout
        .entries()
        .map(|(id, e)| (e.offset, e.size, id))
        .collect();
    extents.sort_unstable();
    for pair in extents.windows(2) {
        let ((ao, al, a), (bo, _, b)) = (pair[0], pair[1]);
        if ao + al > bo {
            return Err(InvariantViolation::Overlap {
                a,
                b,
                at: Extent::new(bo, ao + al - bo),
            });
        }
    }
    Ok(())
}

/// The index map, the entry slab and its free list agree: the map sends
/// each id to an occupied slot naming it (so to distinct slots), and every
/// other slot is vacant and on the free list exactly once.
fn check_handles(layout: &Layout) -> Result<(), InvariantViolation> {
    for (&id, &handle) in &layout.index {
        match layout.slab.get(handle as usize) {
            Some((named, e)) if *named == id && e.size != 0 => {}
            _ => {
                return Err(InvariantViolation::IndexMismatch {
                    id,
                    detail: format!("index handle {handle} does not name it"),
                })
            }
        }
    }
    let mut listed = vec![false; layout.slab.len()];
    for &handle in &layout.free {
        match layout.slab.get(handle as usize) {
            Some((_, e)) if e.size == 0 && !listed[handle as usize] => {
                listed[handle as usize] = true;
            }
            _ => {
                return Err(InvariantViolation::BadAccounting {
                    detail: format!("free handle {handle} is out of range, occupied or repeated"),
                })
            }
        }
    }
    if layout.index.len() + layout.free.len() != layout.slab.len() {
        return Err(InvariantViolation::BadAccounting {
            detail: format!(
                "{} indexed + {} free handles != {} slab slots",
                layout.index.len(),
                layout.free.len(),
                layout.slab.len()
            ),
        });
    }
    Ok(())
}

/// The entry of an object a `segment` holds under `handle`; the index must
/// map the object's id to that same handle.
fn indexed(
    layout: &Layout,
    id: ObjectId,
    handle: u32,
    segment: &str,
) -> Result<Entry, InvariantViolation> {
    let (indexed, entry) = layout
        .lookup(id)
        .ok_or_else(|| InvariantViolation::IndexMismatch {
            id,
            detail: format!("in {segment} but not indexed"),
        })?;
    if indexed != handle {
        return Err(InvariantViolation::IndexMismatch {
            id,
            detail: format!("{segment} slot carries handle {handle}, the index {indexed}"),
        });
    }
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Admitted, Eps, Layout};

    fn base_layout() -> Layout {
        let mut l = Layout::new(Eps::new(0.3));
        l.ensure_class(2);
        l.regions[2].payload_space = 12;
        l.regions[2].buffer.space = 1;
        l
    }

    /// Admits object `id` of `size` (indexed under a handle, not placed).
    fn admit(l: &mut Layout, id: u64, size: u64) -> Admitted {
        l.admit(ObjectId(id), size).unwrap().0
    }

    #[test]
    fn empty_layout_is_valid() {
        let l = Layout::new(Eps::new(0.3));
        assert!(check_invariants(&l).is_ok());
    }

    #[test]
    fn wellformed_layout_passes() {
        let mut l = base_layout();
        let a = admit(&mut l, 1, 5);
        assert_eq!(a.class, 2);
        l.attach_payload(a, 0);
        let b = admit(&mut l, 2, 6);
        l.attach_payload(b, 5);
        assert!(check_invariants(&l).is_ok());
    }

    #[test]
    fn detects_overlap() {
        let mut l = base_layout();
        let a = admit(&mut l, 1, 5);
        l.attach_payload(a, 0);
        let b = admit(&mut l, 2, 5);
        l.attach_payload(b, 3);
        assert!(matches!(
            check_invariants(&l),
            Err(InvariantViolation::Overlap { .. })
        ));
    }

    #[test]
    fn detects_foreign_payload_object() {
        let mut l = base_layout();
        let a = admit(&mut l, 1, 2); // class 1
                                     // Wrongly stuffed into payload 2.
        l.regions[2].payload.insert(0, a.id, a.handle, 2);
        l.regions[2].payload_live = 2;
        l.write_entry(
            a.id,
            a.handle,
            crate::layout::Entry {
                size: 2,
                class: 1,
                offset: 0,
                place: Place::Payload,
            },
        );
        assert!(matches!(
            check_invariants(&l),
            Err(InvariantViolation::ForeignPayloadObject { .. })
        ));
    }

    #[test]
    fn detects_escape_from_segment() {
        let mut l = base_layout();
        let a = admit(&mut l, 1, 5);
        // Payload space is 12 at [0,12); placing at 10 escapes.
        l.attach_payload(a, 10);
        assert!(matches!(
            check_invariants(&l),
            Err(InvariantViolation::OutOfSegment { .. })
        ));
    }

    #[test]
    fn detects_volume_drift() {
        let mut l = base_layout();
        let a = admit(&mut l, 1, 5);
        l.attach_payload(a, 0);
        l.class_volume[2] = 99;
        assert!(matches!(
            check_invariants(&l),
            Err(InvariantViolation::BadAccounting { .. })
        ));
    }

    #[test]
    fn detects_oversized_buffer_entry() {
        let mut l = base_layout();
        l.regions[1].buffer.space = 16;
        // Class-2 entry in buffer 1 violates Invariant 2.2(4).
        let a = admit(&mut l, 1, 5);
        let start = l.buffer_start(1);
        let kind = BufKind::Obj(a.id, a.handle);
        let off = l.regions[1].buffer.push(start, 5, 2, kind).unwrap();
        l.attach_buffered(a, 1, off);
        assert!(matches!(
            check_invariants(&l),
            Err(InvariantViolation::OversizedBufferObject { .. })
        ));
    }

    #[test]
    fn buffered_object_wellformed() {
        let mut l = base_layout();
        let a = admit(&mut l, 3, 2);
        assert_eq!(a.class, 1);
        l.regions[2].buffer.space = 4;
        let start = l.buffer_start(2);
        let kind = BufKind::Obj(a.id, a.handle);
        let off = l.regions[2].buffer.push(start, 2, 1, kind).unwrap();
        l.attach_buffered(a, 2, off);
        assert!(check_invariants(&l).is_ok());
    }

    #[test]
    fn detects_a_payload_slot_carrying_another_objects_handle() {
        let mut l = base_layout();
        let a = admit(&mut l, 1, 5);
        l.attach_payload(a, 0);
        let b = admit(&mut l, 2, 6);
        l.attach_payload(b, 5);
        assert!(check_invariants(&l).is_ok());
        // Object 1's slot now carries object 2's handle.
        l.regions[2].payload.insert(0, a.id, b.handle, a.size);
        assert!(matches!(
            check_invariants(&l),
            Err(InvariantViolation::IndexMismatch { id, .. }) if id == a.id
        ));
    }

    #[test]
    fn detects_an_indexed_handle_on_the_free_list() {
        let mut l = base_layout();
        let a = admit(&mut l, 1, 5);
        l.attach_payload(a, 0);
        let b = admit(&mut l, 2, 6);
        l.attach_payload(b, 5);
        l.release(b.id).unwrap();
        assert!(check_invariants(&l).is_ok());
        // The free list names object 1's slot instead of object 2's; the
        // counts still add up.
        l.free = vec![a.handle];
        assert!(matches!(
            check_invariants(&l),
            Err(InvariantViolation::BadAccounting { .. })
        ));
    }
}

//! Half-open ranges of the (unbounded) storage address space.

/// A half-open extent `[offset, offset + len)` of the address space.
///
/// The address space is measured in abstract unit-size *cells* (the paper's
/// integral object lengths); a cell could be a byte, a 4 KiB page, or a disk
/// block — the algorithms never care.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Extent {
    /// First cell of the extent.
    pub offset: u64,
    /// Number of cells; always positive for a placed object.
    pub len: u64,
}

impl Extent {
    /// Creates an extent at `offset` spanning `len` cells.
    #[inline]
    pub fn new(offset: u64, len: u64) -> Self {
        Extent { offset, len }
    }

    /// One past the last cell.
    #[inline]
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Whether the two extents share at least one cell. An empty extent
    /// shares none, even strictly inside another.
    #[inline]
    pub fn overlaps(&self, other: &Extent) -> bool {
        self.offset.max(other.offset) < self.end().min(other.end())
    }

    /// Whether `other` lies entirely within `self`.
    #[inline]
    pub fn contains(&self, other: &Extent) -> bool {
        self.offset <= other.offset && other.end() <= self.end()
    }

    /// Whether the cell `addr` lies within the extent.
    #[inline]
    pub fn contains_addr(&self, addr: u64) -> bool {
        self.offset <= addr && addr < self.end()
    }

    /// The extent shifted so it starts at `offset` (same length).
    #[inline]
    pub fn at(&self, offset: u64) -> Extent {
        Extent {
            offset,
            len: self.len,
        }
    }

    /// Number of shared cells between the two extents.
    pub fn intersection_len(&self, other: &Extent) -> u64 {
        let lo = self.offset.max(other.offset);
        let hi = self.end().min(other.end());
        hi.saturating_sub(lo)
    }
}

impl std::fmt::Display for Extent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.offset, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_and_contains() {
        let e = Extent::new(10, 5);
        assert_eq!(e.end(), 15);
        assert!(e.contains_addr(10));
        assert!(e.contains_addr(14));
        assert!(!e.contains_addr(15));
        assert!(!e.contains_addr(9));
        assert!(e.contains(&Extent::new(11, 3)));
        assert!(e.contains(&Extent::new(10, 5)));
        assert!(!e.contains(&Extent::new(11, 5)));
    }

    #[test]
    fn overlap_cases() {
        let a = Extent::new(0, 10);
        assert!(a.overlaps(&Extent::new(9, 1)));
        assert!(!a.overlaps(&Extent::new(10, 1)));
        assert!(a.overlaps(&Extent::new(0, 1)));
        assert!(!Extent::new(5, 5).overlaps(&Extent::new(0, 5)));
        // The overlap that makes nonoverlapping reallocation interesting:
        // an object moved by less than its own length.
        let big = Extent::new(100, 50);
        assert!(big.overlaps(&big.at(120)));
        assert!(!big.overlaps(&big.at(150)));
        // An empty extent shares no cell: at either edge, strictly inside,
        // or against another empty one, in either order.
        for empty in [Extent::new(0, 0), Extent::new(5, 0), Extent::new(10, 0)] {
            assert!(!a.overlaps(&empty), "{a} vs {empty}");
            assert!(!empty.overlaps(&a), "{empty} vs {a}");
            assert!(!empty.overlaps(&empty), "{empty}");
        }
        assert!(!Extent::new(13, 0).overlaps(&Extent::new(12, 4)));
    }

    #[test]
    fn intersection_lengths() {
        let a = Extent::new(0, 10);
        assert_eq!(a.intersection_len(&Extent::new(5, 10)), 5);
        assert_eq!(a.intersection_len(&Extent::new(10, 10)), 0);
        assert_eq!(a.intersection_len(&Extent::new(2, 3)), 3);
    }

    #[test]
    fn display_formats_half_open() {
        assert_eq!(Extent::new(3, 4).to_string(), "[3, 7)");
    }
}

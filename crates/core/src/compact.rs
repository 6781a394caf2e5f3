//! Compact, borrowed views of processing sets.
//!
//! The paper's structured families (interval, nested, inclusive,
//! disjoint — Th. 3–10) are all built from machine *ranges*: an interval
//! set is `{lo, …, hi}`, an inclusive set is a prefix `{0, …, k−1}` up
//! to renaming, a ring-placement replica set is one or two contiguous
//! runs. Materializing such a set as a sorted `Vec<usize>` (what
//! [`ProcSet`] stores) costs O(|Mᵢ|) memory and bandwidth per task —
//! precisely the term the structured families make avoidable.
//!
//! [`ProcSetRef`] is the compact counterpart: a `Copy` description of a
//! set as an interval, wrapping ring segment, prefix, or (fallback) a
//! borrowed sorted slice. Arrival streams yield it instead of
//! `&ProcSet`, so generators for structured workloads never build the
//! member vector at all, and the indexed dispatch kernel
//! (`flowsched_algos::indexed`) can answer range-min queries over it in
//! O(log m) instead of scanning members.
//!
//! Membership semantics are identical across variants: every view
//! denotes a finite set of machine indices, iterated in strictly
//! increasing order. Equality (including against [`ProcSet`]) compares
//! the denoted sets, not the representation.

use std::fmt;

use crate::procset::ProcSet;

/// A borrowed, compactly-described processing set.
///
/// The first three variants are O(1)-sized descriptions of the shapes
/// structured workloads produce; [`Explicit`](ProcSetRef::Explicit)
/// borrows a sorted strictly-increasing slice for everything else.
///
/// `Ring` is kept in *wrapping* form only: [`ProcSetRef::ring`]
/// normalizes non-wrapping and full rings to `Interval`, so kernels can
/// match `Ring` and rely on it splitting into exactly two nonempty
/// runs.
///
/// ```
/// use flowsched_core::{ProcSet, ProcSetRef};
///
/// let ring = ProcSetRef::ring(4, 3, 6); // {4,5,0} on a 6-ring
/// assert_eq!(ring.iter().collect::<Vec<_>>(), vec![0, 4, 5]);
/// assert_eq!(ring, ProcSet::ring_interval(4, 3, 6));
/// assert_eq!(ProcSetRef::ring(1, 3, 6), ProcSetRef::interval(1, 3));
/// ```
#[derive(Debug, Clone, Copy)]
pub enum ProcSetRef<'a> {
    /// The contiguous interval `{lo, …, hi}` (inclusive, `lo ≤ hi`).
    Interval {
        /// Smallest member.
        lo: usize,
        /// Largest member.
        hi: usize,
    },
    /// A *wrapping* ring segment `{start, …, m−1} ∪ {0, …, start+len−m−1}`
    /// on a ring of `m` machines. Invariant: `start + len > m` and
    /// `len < m` (non-wrapping and full segments are `Interval`s).
    Ring {
        /// First machine of the segment (before wrapping).
        start: usize,
        /// Number of machines in the segment.
        len: usize,
        /// Ring size.
        m: usize,
    },
    /// The prefix `{0, …, len−1}` — the canonical inclusive-family
    /// shape (`len ≥ 1`).
    Prefix {
        /// Number of machines in the prefix.
        len: usize,
    },
    /// Fallback: a borrowed sorted, strictly-increasing member slice.
    Explicit(&'a [usize]),
}

impl<'a> ProcSetRef<'a> {
    /// The contiguous interval `{lo, …, hi}`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn interval(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "interval requires lo <= hi, got {lo} > {hi}");
        ProcSetRef::Interval { lo, hi }
    }

    /// The prefix `{0, …, len−1}`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn prefix(len: usize) -> Self {
        assert!(len >= 1, "prefix requires len >= 1");
        ProcSetRef::Prefix { len }
    }

    /// The ring segment of `len` machines starting at `start` on a ring
    /// of `m` machines — the paper's overlapping replication `I_k(u)`.
    /// Non-wrapping and full segments are normalized to
    /// [`Interval`](ProcSetRef::Interval).
    ///
    /// # Panics
    /// Panics if `len == 0`, `len > m` or `start >= m`.
    pub fn ring(start: usize, len: usize, m: usize) -> Self {
        assert!(
            len >= 1 && len <= m,
            "ring interval length must be in 1..=m"
        );
        assert!(start < m, "ring interval start must be < m");
        if len == m {
            ProcSetRef::Interval { lo: 0, hi: m - 1 }
        } else if start + len <= m {
            ProcSetRef::Interval {
                lo: start,
                hi: start + len - 1,
            }
        } else {
            ProcSetRef::Ring { start, len, m }
        }
    }

    /// The full machine set `{0, …, m−1}`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn full(m: usize) -> Self {
        ProcSetRef::prefix(m)
    }

    /// Number of machines in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            ProcSetRef::Interval { lo, hi } => hi - lo + 1,
            ProcSetRef::Ring { len, .. } => len,
            ProcSetRef::Prefix { len } => len,
            ProcSetRef::Explicit(s) => s.len(),
        }
    }

    /// True when the set is empty (only possible for `Explicit`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(*self, ProcSetRef::Explicit(s) if s.is_empty())
    }

    /// Smallest member, if any.
    pub fn min(&self) -> Option<usize> {
        match *self {
            ProcSetRef::Interval { lo, .. } => Some(lo),
            // Wrapping segments always contain machine 0.
            ProcSetRef::Ring { .. } => Some(0),
            ProcSetRef::Prefix { .. } => Some(0),
            ProcSetRef::Explicit(s) => s.first().copied(),
        }
    }

    /// Largest member, if any.
    pub fn max(&self) -> Option<usize> {
        match *self {
            ProcSetRef::Interval { hi, .. } => Some(hi),
            // Wrapping segments always contain machine m−1.
            ProcSetRef::Ring { m, .. } => Some(m - 1),
            ProcSetRef::Prefix { len } => Some(len - 1),
            ProcSetRef::Explicit(s) => s.last().copied(),
        }
    }

    /// Membership test — O(1) for compact variants, binary search for
    /// `Explicit`.
    pub fn contains(&self, machine: usize) -> bool {
        match *self {
            ProcSetRef::Interval { lo, hi } => lo <= machine && machine <= hi,
            ProcSetRef::Ring { start, len, m } => {
                machine < m && (machine >= start || machine < start + len - m)
            }
            ProcSetRef::Prefix { len } => machine < len,
            ProcSetRef::Explicit(s) => s.binary_search(&machine).is_ok(),
        }
    }

    /// The `i`-th member in increasing order — O(1) for every variant.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn nth(&self, i: usize) -> usize {
        assert!(i < self.len(), "member index {i} out of range");
        match *self {
            ProcSetRef::Interval { lo, .. } => lo + i,
            ProcSetRef::Ring { start, len, m } => {
                // Ascending order lists the wrapped low run first.
                let wrapped = start + len - m;
                if i < wrapped {
                    i
                } else {
                    start + (i - wrapped)
                }
            }
            ProcSetRef::Prefix { .. } => i,
            ProcSetRef::Explicit(s) => s[i],
        }
    }

    /// Iterates the members in strictly increasing order.
    pub fn iter(&self) -> ProcSetRefIter<'a> {
        match *self {
            ProcSetRef::Interval { lo, hi } => ProcSetRefIter::Ranges {
                first: lo..hi + 1,
                second: 0..0,
            },
            ProcSetRef::Ring { start, len, m } => ProcSetRefIter::Ranges {
                first: 0..start + len - m,
                second: start..m,
            },
            ProcSetRef::Prefix { len } => ProcSetRefIter::Ranges {
                first: 0..len,
                second: 0..0,
            },
            ProcSetRef::Explicit(s) => ProcSetRefIter::Slice(s.iter()),
        }
    }

    /// If the set is a contiguous interval `{lo, …, hi}`, returns
    /// `Some((lo, hi))` — the compact twin of
    /// [`ProcSet::as_contiguous`].
    pub fn as_contiguous(&self) -> Option<(usize, usize)> {
        match *self {
            ProcSetRef::Interval { lo, hi } => Some((lo, hi)),
            ProcSetRef::Ring { .. } => None,
            ProcSetRef::Prefix { len } => Some((0, len - 1)),
            ProcSetRef::Explicit(s) => {
                let (&lo, &hi) = (s.first()?, s.last()?);
                (hi - lo + 1 == s.len()).then_some((lo, hi))
            }
        }
    }

    /// Materializes the view as an owned [`ProcSet`].
    pub fn to_procset(&self) -> ProcSet {
        ProcSet::from_sorted(self.iter().collect())
    }
}

/// An owned [`ProcSetRef`]: the same four compact shapes, with the
/// explicit fallback owning its member slice.
///
/// `ProcSetRef` borrows from its stream and dies at the next pull,
/// which is exactly right on the hot dispatch path but useless for
/// keeping a set past it. `CompactProcSet` is the owned counterpart the
/// fault-injection stream holds its lookahead and deferred arrivals in:
/// compact shapes stay allocation-free `Copy`-sized payloads, and only
/// explicit sets pay for a boxed slice. Equality is semantic, matching
/// [`ProcSetRef`].
#[derive(Debug, Clone)]
pub enum CompactProcSet {
    /// The contiguous interval `{lo, …, hi}` (inclusive, `lo ≤ hi`).
    Interval {
        /// Smallest member.
        lo: usize,
        /// Largest member.
        hi: usize,
    },
    /// A wrapping ring segment — same invariants as
    /// [`ProcSetRef::Ring`].
    Ring {
        /// First machine of the segment (before wrapping).
        start: usize,
        /// Number of machines in the segment.
        len: usize,
        /// Ring size.
        m: usize,
    },
    /// The prefix `{0, …, len−1}` (`len ≥ 1`).
    Prefix {
        /// Number of machines in the prefix.
        len: usize,
    },
    /// Fallback: an owned sorted, strictly-increasing member slice.
    Explicit(Box<[usize]>),
}

impl CompactProcSet {
    /// Lends the set back as a borrowed view.
    pub fn as_view(&self) -> ProcSetRef<'_> {
        match *self {
            CompactProcSet::Interval { lo, hi } => ProcSetRef::Interval { lo, hi },
            CompactProcSet::Ring { start, len, m } => ProcSetRef::Ring { start, len, m },
            CompactProcSet::Prefix { len } => ProcSetRef::Prefix { len },
            CompactProcSet::Explicit(ref s) => ProcSetRef::Explicit(s),
        }
    }
}

impl From<ProcSetRef<'_>> for CompactProcSet {
    fn from(v: ProcSetRef<'_>) -> Self {
        match v {
            ProcSetRef::Interval { lo, hi } => CompactProcSet::Interval { lo, hi },
            ProcSetRef::Ring { start, len, m } => CompactProcSet::Ring { start, len, m },
            ProcSetRef::Prefix { len } => CompactProcSet::Prefix { len },
            ProcSetRef::Explicit(s) => CompactProcSet::Explicit(s.into()),
        }
    }
}

impl PartialEq for CompactProcSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_view() == other.as_view()
    }
}

impl Eq for CompactProcSet {}

/// Iterator over a [`ProcSetRef`]'s members in increasing order.
#[derive(Debug, Clone)]
pub enum ProcSetRefIter<'a> {
    /// Up to two contiguous runs, yielded first-then-second.
    Ranges {
        /// Low run (possibly empty).
        first: std::ops::Range<usize>,
        /// High run (possibly empty).
        second: std::ops::Range<usize>,
    },
    /// Members borrowed from an explicit sorted slice.
    Slice(std::slice::Iter<'a, usize>),
}

impl Iterator for ProcSetRefIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            ProcSetRefIter::Ranges { first, second } => first.next().or_else(|| second.next()),
            ProcSetRefIter::Slice(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            ProcSetRefIter::Ranges { first, second } => first.len() + second.len(),
            ProcSetRefIter::Slice(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for ProcSetRefIter<'_> {}

impl PartialEq for ProcSetRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for ProcSetRef<'_> {}

impl PartialEq<ProcSet> for ProcSetRef<'_> {
    fn eq(&self, other: &ProcSet) -> bool {
        self.iter().eq(other.as_slice().iter().copied())
    }
}

impl PartialEq<ProcSetRef<'_>> for ProcSet {
    fn eq(&self, other: &ProcSetRef<'_>) -> bool {
        other == self
    }
}

impl PartialEq<&ProcSet> for ProcSetRef<'_> {
    fn eq(&self, other: &&ProcSet) -> bool {
        *self == **other
    }
}

impl fmt::Display for ProcSetRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, j) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "M{}", j + 1)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_view_matches_procset() {
        let v = ProcSetRef::interval(2, 5);
        assert_eq!(v.len(), 4);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        assert_eq!(v, ProcSet::interval(2, 5));
        assert_eq!(v.as_contiguous(), Some((2, 5)));
        assert_eq!(v.min(), Some(2));
        assert_eq!(v.max(), Some(5));
    }

    #[test]
    fn ring_normalizes_non_wrapping_to_interval() {
        assert_eq!(
            ProcSetRef::ring(1, 3, 6),
            ProcSetRef::Interval { lo: 1, hi: 3 }
        );
        assert_eq!(
            ProcSetRef::ring(0, 6, 6),
            ProcSetRef::Interval { lo: 0, hi: 5 }
        );
        // Full set from a nonzero start also normalizes.
        assert!(matches!(
            ProcSetRef::ring(3, 6, 6),
            ProcSetRef::Interval { lo: 0, hi: 5 }
        ));
    }

    #[test]
    fn wrapping_ring_iterates_ascending() {
        let v = ProcSetRef::ring(4, 3, 6); // {4,5,0}
        assert!(matches!(v, ProcSetRef::Ring { .. }));
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![0, 4, 5]);
        assert_eq!(v, ProcSet::ring_interval(4, 3, 6));
        assert_eq!(v.min(), Some(0));
        assert_eq!(v.max(), Some(5));
        assert_eq!(v.as_contiguous(), None);
        assert!(v.contains(0) && v.contains(4) && v.contains(5));
        assert!(!v.contains(1) && !v.contains(3) && !v.contains(6));
    }

    #[test]
    fn prefix_is_an_initial_segment() {
        let v = ProcSetRef::prefix(3);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(v, ProcSet::interval(0, 2));
        assert_eq!(v.as_contiguous(), Some((0, 2)));
        assert_eq!(ProcSetRef::full(4), ProcSet::full(4));
    }

    #[test]
    fn explicit_view_borrows_the_slice() {
        let s = ProcSet::new(vec![1, 4, 9]);
        let v = ProcSetRef::Explicit(s.as_slice());
        assert_eq!(v.len(), 3);
        assert_eq!(v, s);
        assert!(v.contains(4) && !v.contains(3));
        assert_eq!(v.as_contiguous(), None);
        assert_eq!(
            ProcSetRef::Explicit(&[5, 6, 7]).as_contiguous(),
            Some((5, 7))
        );
    }

    #[test]
    fn nth_agrees_with_iteration_order() {
        for v in [
            ProcSetRef::interval(3, 7),
            ProcSetRef::ring(5, 4, 7),
            ProcSetRef::prefix(5),
            ProcSetRef::Explicit(&[0, 2, 9]),
        ] {
            let members: Vec<usize> = v.iter().collect();
            for (i, &j) in members.iter().enumerate() {
                assert_eq!(v.nth(i), j, "{v:?} at {i}");
            }
        }
    }

    #[test]
    fn equality_is_semantic_across_variants() {
        assert_eq!(ProcSetRef::prefix(4), ProcSetRef::interval(0, 3));
        assert_eq!(
            ProcSetRef::interval(1, 2),
            ProcSetRef::Explicit(&[1, 2][..])
        );
        assert_ne!(ProcSetRef::prefix(4), ProcSetRef::interval(0, 4));
    }

    #[test]
    fn to_procset_round_trips() {
        let v = ProcSetRef::ring(4, 4, 6); // {4,5,0,1}
        assert_eq!(v.to_procset(), ProcSet::ring_interval(4, 4, 6));
        assert_eq!(v.to_procset().compact_view(6), ProcSetRef::ring(4, 4, 6));
    }

    #[test]
    fn display_matches_procset_style() {
        assert_eq!(ProcSetRef::interval(2, 4).to_string(), "{M3,M4,M5}");
        assert_eq!(
            ProcSetRef::ring(4, 3, 6).to_string(),
            ProcSet::ring_interval(4, 3, 6).to_string()
        );
    }

    #[test]
    fn empty_explicit_view() {
        let v = ProcSetRef::Explicit(&[]);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.min(), None);
        assert_eq!(v.iter().next(), None);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn interval_rejects_inverted_bounds() {
        let _ = ProcSetRef::interval(3, 2);
    }

    #[test]
    fn compact_procset_round_trips_every_variant() {
        for v in [
            ProcSetRef::interval(3, 7),
            ProcSetRef::ring(5, 4, 7),
            ProcSetRef::prefix(5),
            ProcSetRef::Explicit(&[0, 2, 9]),
        ] {
            let owned = CompactProcSet::from(v);
            assert_eq!(owned.as_view(), v, "{v:?}");
            assert_eq!(owned, CompactProcSet::from(owned.as_view()));
        }
    }

    #[test]
    fn compact_procset_equality_is_semantic() {
        assert_eq!(
            CompactProcSet::Prefix { len: 3 },
            CompactProcSet::from(ProcSetRef::interval(0, 2))
        );
        assert_ne!(
            CompactProcSet::Prefix { len: 3 },
            CompactProcSet::Interval { lo: 0, hi: 3 }
        );
    }
}

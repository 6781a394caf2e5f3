//! Processing sets (eligibility constraints).
//!
//! A processing set `Mᵢ ⊆ M` lists the machines allowed to run task `Tᵢ`.
//! In replicated key-value stores, `Mᵢ` is the set of replicas holding the
//! key that `Tᵢ` requests. The paper's structured families (interval,
//! nested, inclusive, disjoint) are predicates over *families* of sets and
//! live in [`crate::structure`]; this module provides the individual-set
//! operations they build on.

use std::fmt;

use crate::compact::ProcSetRef;
use crate::machine::MachineId;

/// A set of machine indices, stored sorted and deduplicated.
///
/// Machine indices are zero-based. Construction enforces the invariant
/// that indices are strictly increasing, so set operations are linear
/// merges.
///
/// ```
/// use flowsched_core::ProcSet;
///
/// let ring = ProcSet::ring_interval(4, 3, 6); // {M5, M6, M1} on a 6-ring
/// assert_eq!(ring.as_slice(), &[0, 4, 5]);
/// assert_eq!(ring.as_ring_interval(6), Some((4, 3)));
/// assert!(ring.contains(5) && !ring.contains(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcSet {
    machines: Vec<usize>,
}

impl ProcSet {
    /// Builds a processing set from arbitrary machine indices
    /// (duplicates are removed, order is normalized).
    ///
    /// Input that is already strictly increasing — the common case from
    /// generators — is taken as-is without the sort/dedup pass.
    pub fn new(mut machines: Vec<usize>) -> Self {
        if !machines.windows(2).all(|w| w[0] < w[1]) {
            machines.sort_unstable();
            machines.dedup();
        }
        ProcSet { machines }
    }

    /// Builds a processing set from indices already sorted strictly
    /// increasing.
    ///
    /// # Panics
    /// Panics in debug builds if the input is not strictly increasing.
    pub fn from_sorted(machines: Vec<usize>) -> Self {
        debug_assert!(
            machines.windows(2).all(|w| w[0] < w[1]),
            "from_sorted requires strictly increasing indices"
        );
        ProcSet { machines }
    }

    /// The empty set. Invalid in instances (a task must be runnable
    /// somewhere) but useful as an accumulator.
    pub fn empty() -> Self {
        ProcSet {
            machines: Vec::new(),
        }
    }

    /// The full machine set `{0, …, m−1}` — "no restriction".
    pub fn full(m: usize) -> Self {
        ProcSet {
            machines: (0..m).collect(),
        }
    }

    /// A single machine, as with unreplicated key-value data.
    pub fn singleton(machine: usize) -> Self {
        ProcSet {
            machines: vec![machine],
        }
    }

    /// The contiguous interval `{lo, …, hi}` (inclusive, zero-based).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn interval(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "interval requires lo <= hi, got {lo} > {hi}");
        ProcSet {
            machines: (lo..=hi).collect(),
        }
    }

    /// The *circular* interval of length `len` starting at `start` on a
    /// ring of `m` machines: `{start, start+1, …} mod m`. This is the
    /// paper's overlapping replication strategy `I_k(u)` (Section 7.2),
    /// mimicking Dynamo/Cassandra ring placement.
    ///
    /// # Panics
    /// Panics if `len == 0`, `len > m` or `start >= m`.
    pub fn ring_interval(start: usize, len: usize, m: usize) -> Self {
        assert!(
            len >= 1 && len <= m,
            "ring interval length must be in 1..=m"
        );
        assert!(start < m, "ring interval start must be < m");
        let mut machines: Vec<usize> = (0..len).map(|o| (start + o) % m).collect();
        machines.sort_unstable();
        ProcSet { machines }
    }

    /// Number of machines in the set (`|Mᵢ| = k` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True when the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Sorted slice of zero-based machine indices.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.machines
    }

    /// Iterates the member machines as [`MachineId`]s in increasing order.
    pub fn machines(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.machines.iter().copied().map(MachineId)
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, machine: usize) -> bool {
        self.machines.binary_search(&machine).is_ok()
    }

    /// Smallest member, if any.
    pub fn min(&self) -> Option<usize> {
        self.machines.first().copied()
    }

    /// Largest member, if any.
    pub fn max(&self) -> Option<usize> {
        self.machines.last().copied()
    }

    /// True when `self ⊆ other` (linear merge).
    pub fn is_subset_of(&self, other: &ProcSet) -> bool {
        let mut it = other.machines.iter();
        'outer: for &x in &self.machines {
            for &y in it.by_ref() {
                if y == x {
                    continue 'outer;
                }
                if y > x {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// True when the two sets share no machine.
    pub fn is_disjoint_from(&self, other: &ProcSet) -> bool {
        let (mut a, mut b) = (
            self.machines.iter().peekable(),
            other.machines.iter().peekable(),
        );
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => {
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    b.next();
                }
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ProcSet) -> ProcSet {
        let (mut a, mut b) = (
            self.machines.iter().peekable(),
            other.machines.iter().peekable(),
        );
        let mut out = Vec::new();
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => {
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    out.push(x);
                    a.next();
                    b.next();
                }
            }
        }
        ProcSet { machines: out }
    }

    /// Set union.
    pub fn union(&self, other: &ProcSet) -> ProcSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        out.extend_from_slice(&self.machines);
        out.extend_from_slice(&other.machines);
        ProcSet::new(out)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &ProcSet) -> ProcSet {
        let out = self
            .machines
            .iter()
            .copied()
            .filter(|&x| !other.contains(x))
            .collect();
        ProcSet { machines: out }
    }

    /// If the set is a contiguous interval `{lo, …, hi}`, returns
    /// `Some((lo, hi))`.
    pub fn as_contiguous_interval(&self) -> Option<(usize, usize)> {
        let (lo, hi) = (self.min()?, self.max()?);
        if hi - lo + 1 == self.machines.len() {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// Alias of [`as_contiguous_interval`](ProcSet::as_contiguous_interval),
    /// named for kernel selection: a `Some` answer means the indexed
    /// dispatch kernel can serve this set with one range-min query.
    #[inline]
    pub fn as_contiguous(&self) -> Option<(usize, usize)> {
        self.as_contiguous_interval()
    }

    /// Borrows the set as an explicit [`ProcSetRef`] view (no shape
    /// detection — see [`compact_view`](ProcSet::compact_view)).
    #[inline]
    pub fn view(&self) -> ProcSetRef<'_> {
        ProcSetRef::Explicit(&self.machines)
    }

    /// Borrows the set as the most compact [`ProcSetRef`] on `m`
    /// machines: an `Interval` when the members are contiguous, a `Ring`
    /// when they wrap around from `m − 1` to 0 (one binary search finds
    /// the break; any other set costs O(1)), otherwise the explicit slice.
    #[inline]
    pub fn compact_view(&self, m: usize) -> ProcSetRef<'_> {
        if let Some((lo, hi)) = self.as_contiguous_interval() {
            return ProcSetRef::Interval { lo, hi };
        }
        let (s, k) = (&self.machines, self.machines.len());
        if k > 1 && s[0] == 0 && s[k - 1] + 1 == m {
            // The low run is the prefix where `s[i] == i`; the high run
            // after it must reach m − 1 without a gap.
            let (mut lo, mut hi) = (0, k);
            while lo < hi {
                let mid = (lo + hi) / 2;
                (lo, hi) = if s[mid] == mid {
                    (mid + 1, hi)
                } else {
                    (lo, mid)
                };
            }
            if s[lo] + (k - lo) == m {
                return ProcSetRef::ring(s[lo], k, m);
            }
        }
        ProcSetRef::Explicit(s)
    }

    /// If the set is a *circular* interval on a ring of `m` machines —
    /// either contiguous or of the wrap-around form
    /// `{j : j ≤ a} ∪ {j : j ≥ b}` from the paper's interval definition —
    /// returns the `(start, len)` of the ring segment.
    ///
    /// The full set is reported with `start = 0`. Returns `None` if some
    /// member index is `≥ m`.
    pub fn as_ring_interval(&self, m: usize) -> Option<(usize, usize)> {
        if self.is_empty() || self.max()? >= m {
            return None;
        }
        if let Some((lo, hi)) = self.as_contiguous_interval() {
            return Some((lo, hi - lo + 1));
        }
        // Wrap-around case: the *complement* within 0..m must be a
        // contiguous interval not touching either edge.
        let mut gap_start = None;
        let mut gap_len = 0usize;
        let mut prev_in = true;
        for j in 0..m {
            let inside = self.contains(j);
            if !inside {
                if prev_in {
                    if gap_start.is_some() {
                        return None; // second gap: not a ring interval
                    }
                    gap_start = Some(j);
                }
                gap_len += 1;
            }
            prev_in = inside;
        }
        let gs = gap_start?;
        if gs == 0 || gs + gap_len >= m {
            // The gap touches an edge, so the set would have been a
            // contiguous interval — handled above. Reaching here means the
            // membership pattern is not a single ring segment.
            return None;
        }
        Some((gs + gap_len, m - gap_len))
    }
}

impl fmt::Display for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, &j) in self.machines.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "M{}", j + 1)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for ProcSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        ProcSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let s = ProcSet::new(vec![3, 1, 3, 2]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn new_keeps_already_sorted_input_verbatim() {
        let s = ProcSet::new(vec![0, 3, 7]);
        assert_eq!(s.as_slice(), &[0, 3, 7]);
        // Non-strict (duplicate) input still goes through the slow path.
        let d = ProcSet::new(vec![0, 3, 3, 7]);
        assert_eq!(d.as_slice(), &[0, 3, 7]);
    }

    #[test]
    fn views_borrow_compact_shapes() {
        let iv = ProcSet::interval(2, 4);
        assert_eq!(iv.as_contiguous(), Some((2, 4)));
        assert!(matches!(
            iv.compact_view(6),
            ProcSetRef::Interval { lo: 2, hi: 4 }
        ));
        assert_eq!(iv.view(), iv.compact_view(6));

        let gap = ProcSet::new(vec![0, 2, 4]);
        assert_eq!(gap.as_contiguous(), None);
        assert!(matches!(gap.compact_view(6), ProcSetRef::Explicit(_)));
        assert_eq!(gap.compact_view(6), gap);
    }

    #[test]
    fn compact_view_detects_wrapping_ring_segments() {
        let ring = ProcSet::ring_interval(4, 3, 6); // {0, 4, 5}
        assert!(matches!(
            ring.compact_view(6),
            ProcSetRef::Ring {
                start: 4,
                len: 3,
                m: 6
            }
        ));
        assert_eq!(ring.compact_view(6), ring);
        // On 7 machines the same members miss machine 6: no wrap.
        assert!(matches!(ring.compact_view(7), ProcSetRef::Explicit(_)));
        for members in [vec![0, 1, 4], vec![0, 2, 5]] {
            let set = ProcSet::new(members);
            assert!(
                matches!(set.compact_view(6), ProcSetRef::Explicit(_)),
                "{set:?}"
            );
        }
        // Every wrapping segment of an 8-ring, at every start and length.
        for start in 1..8 {
            for len in (9 - start)..8 {
                let set = ProcSet::ring_interval(start, len, 8);
                assert!(
                    matches!(set.compact_view(8), ProcSetRef::Ring { .. }),
                    "start {start} len {len}"
                );
                assert_eq!(set.compact_view(8), ProcSetRef::ring(start, len, 8));
            }
        }
    }

    #[test]
    fn interval_constructor() {
        let s = ProcSet::interval(2, 4);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        assert_eq!(s.as_contiguous_interval(), Some((2, 4)));
    }

    #[test]
    fn ring_interval_wraps() {
        // start=4, len=3 on m=6 → {4,5,0}
        let s = ProcSet::ring_interval(4, 3, 6);
        assert_eq!(s.as_slice(), &[0, 4, 5]);
        assert_eq!(s.as_ring_interval(6), Some((4, 3)));
    }

    #[test]
    fn ring_interval_full_set() {
        let s = ProcSet::ring_interval(3, 6, 6);
        assert_eq!(s, ProcSet::full(6));
        assert_eq!(s.as_ring_interval(6), Some((0, 6)));
    }

    #[test]
    fn non_interval_detected() {
        let s = ProcSet::new(vec![0, 2, 4]);
        assert_eq!(s.as_contiguous_interval(), None);
        assert_eq!(s.as_ring_interval(6), None);
    }

    #[test]
    fn two_gap_pattern_is_not_ring() {
        // {0, 2, 4} on m=5 has gaps {1} and {3}.
        let s = ProcSet::new(vec![0, 2, 4]);
        assert_eq!(s.as_ring_interval(5), None);
    }

    #[test]
    fn contiguous_is_also_ring() {
        let s = ProcSet::interval(1, 3);
        assert_eq!(s.as_ring_interval(6), Some((1, 3)));
    }

    #[test]
    fn subset_and_disjoint() {
        let a = ProcSet::new(vec![1, 2]);
        let b = ProcSet::new(vec![0, 1, 2, 3]);
        let c = ProcSet::new(vec![4, 5]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_disjoint_from(&c));
        assert!(!a.is_disjoint_from(&b));
        assert!(ProcSet::empty().is_subset_of(&a));
        assert!(ProcSet::empty().is_disjoint_from(&a));
    }

    #[test]
    fn intersection_union_difference() {
        let a = ProcSet::new(vec![0, 1, 2]);
        let b = ProcSet::new(vec![2, 3]);
        assert_eq!(a.intersection(&b).as_slice(), &[2]);
        assert_eq!(a.union(&b).as_slice(), &[0, 1, 2, 3]);
        assert_eq!(a.difference(&b).as_slice(), &[0, 1]);
    }

    #[test]
    fn contains_uses_membership() {
        let s = ProcSet::new(vec![1, 4, 9]);
        assert!(s.contains(4));
        assert!(!s.contains(3));
    }

    #[test]
    fn display_is_paper_style() {
        assert_eq!(ProcSet::new(vec![2, 3, 4]).to_string(), "{M3,M4,M5}");
    }

    #[test]
    fn from_iterator() {
        let s: ProcSet = [5usize, 1, 5].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 5]);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn interval_rejects_inverted_bounds() {
        let _ = ProcSet::interval(3, 2);
    }

    #[test]
    fn ring_interval_of_len_one() {
        let s = ProcSet::ring_interval(5, 1, 6);
        assert_eq!(s.as_slice(), &[5]);
        assert_eq!(s.as_ring_interval(6), Some((5, 1)));
    }

    #[test]
    fn as_ring_interval_rejects_out_of_range() {
        let s = ProcSet::new(vec![0, 7]);
        assert_eq!(s.as_ring_interval(6), None);
    }
}

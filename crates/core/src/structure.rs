//! Structured processing-set families (Section 3 of the paper).
//!
//! The paper studies four structures over the *family* of processing sets
//! `{M₁, …, Mₙ}`:
//!
//! - **interval**: every set is a contiguous interval of machine indices,
//!   or a wrap-around ring segment `{j ≤ a} ∪ {j ≥ b}`;
//! - **nested**: any two sets are disjoint or one contains the other
//!   (a laminar family);
//! - **inclusive**: any two sets are comparable by inclusion (a chain);
//! - **disjoint**: any two sets are equal or disjoint (a partition-like
//!   family).
//!
//! The reduction graph (paper Figure 1) is:
//!
//! ```text
//! inclusive ─┐
//!            ├─> nested ──> interval ──> general
//! disjoint ──┘
//! ```
//!
//! inclusive and disjoint families are nested; every nested family can be
//! turned into an interval family by reordering machines
//! ([`nested_to_interval_order`] computes such a permutation).
//!
//! Each structure is a property of the whole family, so it is known
//! before the first arrival or not at all. [`classify`] reports every
//! predicate of a materialized family at once. A stream states the same
//! report up front as its promise
//! ([`structure_hint`](crate::stream::ArrivalStream::structure_hint));
//! nothing classifies sets as they arrive.

use std::collections::HashSet;

use crate::procset::ProcSet;

/// The structure classes of the paper, ordered from most to least
/// constrained along the Figure 1 reduction graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcSetStructure {
    /// Any two sets comparable by inclusion (`Mᵢ ⊆ Mⱼ` or `Mⱼ ⊆ Mᵢ`).
    Inclusive,
    /// Any two sets equal or disjoint.
    Disjoint,
    /// Any two sets disjoint or one included in the other (laminar).
    Nested,
    /// Every set is a (possibly wrap-around) interval of machine indices.
    Interval,
    /// No detected structure.
    General,
}

impl std::fmt::Display for ProcSetStructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProcSetStructure::Inclusive => "inclusive",
            ProcSetStructure::Disjoint => "disjoint",
            ProcSetStructure::Nested => "nested",
            ProcSetStructure::Interval => "interval",
            ProcSetStructure::General => "general",
        };
        f.write_str(s)
    }
}

/// Full classification of a family: which structure predicates hold.
///
/// Several predicates can hold simultaneously (e.g. a family of identical
/// sets is inclusive *and* disjoint *and* nested). [`StructureReport::most_specific`]
/// picks the strongest label for display.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StructureReport {
    /// All sets pairwise comparable by inclusion.
    pub inclusive: bool,
    /// All sets pairwise equal-or-disjoint.
    pub disjoint: bool,
    /// Laminar family.
    pub nested: bool,
    /// All sets are contiguous intervals (no machine reordering applied).
    pub interval: bool,
    /// All sets are contiguous or wrap-around ring intervals.
    pub ring_interval: bool,
    /// No set has more members; 0 for an empty family.
    pub max_size: usize,
}

impl StructureReport {
    /// The strongest structure label that applies (Figure 1 order).
    pub fn most_specific(&self) -> ProcSetStructure {
        if self.inclusive {
            ProcSetStructure::Inclusive
        } else if self.disjoint {
            ProcSetStructure::Disjoint
        } else if self.nested {
            ProcSetStructure::Nested
        } else if self.interval || self.ring_interval {
            ProcSetStructure::Interval
        } else {
            ProcSetStructure::General
        }
    }
}

/// True when any two sets of the family are comparable by inclusion.
/// `O(n log n + n·m)` after sorting by size: on a chain, sorting by size
/// makes each set a subset of the next equal-or-larger one.
pub fn is_inclusive(sets: &[ProcSet]) -> bool {
    let mut order: Vec<&ProcSet> = sets.iter().collect();
    order.sort_by_key(|s| s.len());
    order.windows(2).all(|w| w[0].is_subset_of(w[1]))
}

/// The distinct sets of a family, each at its first occurrence, in
/// input order. Families repeat sets heavily (every key-value workload
/// does), and the family predicates work on the distinct sets; one hash
/// lookup per set keeps this O(total set size).
pub fn distinct_sets(sets: &[ProcSet]) -> Vec<&ProcSet> {
    let mut seen = HashSet::with_capacity(sets.len());
    sets.iter().filter(|s| seen.insert(*s)).collect()
}

/// True when any two sets of the family are equal or disjoint.
pub fn is_disjoint_family(sets: &[ProcSet]) -> bool {
    // Check pairwise disjointness of the distinct sets via a machine
    // ownership map: each machine may belong to at most one distinct set.
    let distinct = distinct_sets(sets);
    let mut owner: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for (i, s) in distinct.iter().enumerate() {
        for &j in s.as_slice() {
            if let Some(&prev) = owner.get(&j) {
                if prev != i {
                    return false;
                }
            }
            owner.insert(j, i);
        }
    }
    true
}

/// True when the family is laminar: any two sets are disjoint or one
/// contains the other.
pub fn is_nested(sets: &[ProcSet]) -> bool {
    // Sort by decreasing size; each set must be contained in, or disjoint
    // from, every earlier (larger-or-equal) set. Pairwise check is O(n²·m)
    // worst case but families are deduplicated first, and distinct laminar
    // families over m machines have at most 2m sets.
    let mut distinct = distinct_sets(sets);
    distinct.sort_by_key(|s| std::cmp::Reverse(s.len()));
    for i in 0..distinct.len() {
        for j in (i + 1)..distinct.len() {
            let (big, small) = (distinct[i], distinct[j]);
            if !small.is_subset_of(big) && !small.is_disjoint_from(big) {
                return false;
            }
        }
    }
    true
}

/// True when every set is a contiguous interval of machine indices
/// (no wrap-around).
pub fn is_interval_family(sets: &[ProcSet]) -> bool {
    sets.iter().all(|s| s.as_contiguous_interval().is_some())
}

/// True when every set is a contiguous or wrap-around ring interval on a
/// ring of `m` machines (the paper's full interval definition).
pub fn is_ring_interval_family(sets: &[ProcSet], m: usize) -> bool {
    sets.iter().all(|s| s.as_ring_interval(m).is_some())
}

/// If all sets have the same size `k`, returns `Some(k)`.
pub fn fixed_size(sets: &[ProcSet]) -> Option<usize> {
    let first = sets.first()?.len();
    sets.iter().all(|s| s.len() == first).then_some(first)
}

/// Classifies a family against every predicate at once.
///
/// ```
/// use flowsched_core::ProcSet;
/// use flowsched_core::structure::{classify, ProcSetStructure};
///
/// let fam = [ProcSet::new(vec![0]), ProcSet::new(vec![0, 1])];
/// let report = classify(&fam, 4);
/// assert!(report.inclusive && report.nested); // Figure 1 edge
/// assert_eq!(report.most_specific(), ProcSetStructure::Inclusive);
/// ```
pub fn classify(sets: &[ProcSet], m: usize) -> StructureReport {
    StructureReport {
        inclusive: is_inclusive(sets),
        disjoint: is_disjoint_family(sets),
        nested: is_nested(sets),
        interval: is_interval_family(sets),
        ring_interval: is_ring_interval_family(sets, m),
        max_size: sets.iter().map(ProcSet::len).max().unwrap_or(0),
    }
}

/// Computes a machine permutation `perm` (new index = `perm[old index]`)
/// under which every set of a *nested* family becomes a contiguous
/// interval — the constructive content of the paper's remark that nested
/// (hence inclusive and disjoint) families are special cases of interval
/// families.
///
/// The laminar forest is traversed depth-first; machines inside each node
/// are laid out consecutively. Machines not mentioned by any set keep
/// arbitrary trailing positions.
///
/// Returns `None` if the family is not nested.
pub fn nested_to_interval_order(sets: &[ProcSet], m: usize) -> Option<Vec<usize>> {
    if !is_nested(sets) {
        return None;
    }
    // Distinct sets, sorted by decreasing size → parents before children.
    let mut distinct = distinct_sets(sets);
    distinct.sort_by_key(|s| std::cmp::Reverse(s.len()));

    // Build the laminar forest: parent of a set is the smallest strict
    // superset among the distinct sets.
    let n = distinct.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots: Vec<usize> = Vec::new();
    for i in 0..n {
        // Candidate parents appear earlier in the size-sorted order; the
        // closest (smallest) strict superset is the last one that contains
        // set i, scanning from i-1 down to 0.
        let mut parent = None;
        for j in (0..i).rev() {
            if distinct[i].is_subset_of(distinct[j]) && distinct[i] != distinct[j] {
                parent = Some(j);
                break;
            }
        }
        // Equal-size duplicates were removed; equal sets cannot appear.
        match parent {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }

    let mut perm = vec![usize::MAX; m];
    let mut next = 0usize;

    // Depth-first layout: assign children's machines first (each child is
    // a sub-interval), then the machines owned directly by this node.
    fn layout(
        node: usize,
        distinct: &[&ProcSet],
        children: &[Vec<usize>],
        perm: &mut [usize],
        next: &mut usize,
    ) {
        for &c in &children[node] {
            layout(c, distinct, children, perm, next);
        }
        for &machine in distinct[node].as_slice() {
            if perm[machine] == usize::MAX {
                perm[machine] = *next;
                *next += 1;
            }
        }
    }
    for &r in &roots {
        layout(r, &distinct, &children, &mut perm, &mut next);
    }
    // Unmentioned machines go last.
    for slot in perm.iter_mut() {
        if *slot == usize::MAX {
            *slot = next;
            next += 1;
        }
    }
    debug_assert_eq!(next, m);
    Some(perm)
}

/// Applies a machine permutation (`new = perm[old]`) to a family,
/// producing the renamed sets.
pub fn apply_machine_permutation(sets: &[ProcSet], perm: &[usize]) -> Vec<ProcSet> {
    sets.iter()
        .map(|s| s.as_slice().iter().map(|&j| perm[j]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: &[usize]) -> ProcSet {
        ProcSet::new(v.to_vec())
    }

    #[test]
    fn inclusive_chain_detected() {
        let fam = [ps(&[0]), ps(&[0, 1]), ps(&[0, 1, 2, 3])];
        assert!(is_inclusive(&fam));
        assert!(is_nested(&fam));
    }

    #[test]
    fn non_inclusive_detected() {
        let fam = [ps(&[0, 1]), ps(&[2, 3])];
        assert!(!is_inclusive(&fam));
        assert!(is_disjoint_family(&fam));
        assert!(is_nested(&fam));
    }

    #[test]
    fn disjoint_allows_repeats() {
        let fam = [ps(&[0, 1]), ps(&[0, 1]), ps(&[2])];
        assert!(is_disjoint_family(&fam));
    }

    #[test]
    fn overlapping_not_disjoint() {
        let fam = [ps(&[0, 1]), ps(&[1, 2])];
        assert!(!is_disjoint_family(&fam));
        assert!(!is_nested(&fam));
    }

    #[test]
    fn nested_laminar_family() {
        let fam = [
            ps(&[0, 1, 2, 3]),
            ps(&[0, 1]),
            ps(&[2, 3]),
            ps(&[0]),
            ps(&[2]),
        ];
        assert!(is_nested(&fam));
        assert!(!is_inclusive(&fam));
        assert!(!is_disjoint_family(&fam));
    }

    #[test]
    fn interval_family_detection() {
        let fam = [ps(&[0, 1, 2]), ps(&[3, 4])];
        assert!(is_interval_family(&fam));
        let fam2 = [ps(&[0, 2])];
        assert!(!is_interval_family(&fam2));
    }

    #[test]
    fn ring_family_accepts_wraparound() {
        let fam = [
            ProcSet::ring_interval(4, 3, 6),
            ProcSet::ring_interval(0, 3, 6),
        ];
        assert!(is_ring_interval_family(&fam, 6));
        assert!(!is_interval_family(&fam)); // {4,5,0} is not contiguous
    }

    #[test]
    fn fixed_size_detection() {
        assert_eq!(fixed_size(&[ps(&[0, 1]), ps(&[2, 3])]), Some(2));
        assert_eq!(fixed_size(&[ps(&[0, 1]), ps(&[2])]), None);
        assert_eq!(fixed_size(&[]), None);
    }

    #[test]
    fn classify_reports_reduction_graph() {
        // Inclusive families are nested (Figure 1 edge).
        let fam = [ps(&[0]), ps(&[0, 1])];
        let rep = classify(&fam, 4);
        assert!(rep.inclusive && rep.nested);
        assert_eq!(rep.most_specific(), ProcSetStructure::Inclusive);

        // Disjoint families are nested.
        let fam = [ps(&[0, 1]), ps(&[2, 3, 4])];
        let rep = classify(&fam, 5);
        assert!(rep.disjoint && rep.nested);
        assert_eq!(rep.most_specific(), ProcSetStructure::Disjoint);
        assert_eq!(rep.max_size, 3);

        // General family.
        let fam = [ps(&[0, 2]), ps(&[1, 2])];
        let rep = classify(&fam, 4);
        assert_eq!(rep.most_specific(), ProcSetStructure::General);
    }

    #[test]
    fn nested_to_interval_reorders() {
        // A laminar family over 6 machines that is NOT an interval family
        // under the identity order.
        let fam = [ps(&[0, 3, 5]), ps(&[0, 5]), ps(&[1, 2]), ps(&[2])];
        assert!(is_nested(&fam));
        assert!(!is_interval_family(&fam));
        let perm = nested_to_interval_order(&fam, 6).unwrap();
        let renamed = apply_machine_permutation(&fam, &perm);
        assert!(
            is_interval_family(&renamed),
            "renamed family {renamed:?} not intervals"
        );
        // The permutation must be a bijection on 0..6.
        let mut seen = [false; 6];
        for &p in &perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn nested_to_interval_rejects_non_nested() {
        let fam = [ps(&[0, 1]), ps(&[1, 2])];
        assert!(nested_to_interval_order(&fam, 3).is_none());
    }

    #[test]
    fn nested_to_interval_handles_duplicates_and_unused_machines() {
        let fam = [ps(&[4, 2]), ps(&[4, 2]), ps(&[4])];
        let perm = nested_to_interval_order(&fam, 7).unwrap();
        let renamed = apply_machine_permutation(&fam, &perm);
        assert!(is_interval_family(&renamed));
    }

    #[test]
    fn distinct_sets_keeps_first_occurrences_in_order() {
        let fam = [
            ps(&[2, 3]),
            ps(&[0]),
            ps(&[2, 3]),
            ps(&[1, 4]),
            ps(&[0]),
            ps(&[0, 1]),
        ];
        let distinct = distinct_sets(&fam);
        assert_eq!(distinct, [&fam[0], &fam[1], &fam[3], &fam[5]]);
        // First occurrences, not equal later copies.
        assert!(std::ptr::eq(distinct[0], &fam[0]));
        assert!(std::ptr::eq(distinct[1], &fam[1]));
        assert!(distinct_sets(&[]).is_empty());
    }

    #[test]
    fn empty_family_is_everything() {
        let fam: [ProcSet; 0] = [];
        assert!(is_inclusive(&fam));
        assert!(is_disjoint_family(&fam));
        assert!(is_nested(&fam));
        assert!(is_interval_family(&fam));
        assert_eq!(classify(&fam, 4).max_size, 0);
    }
}

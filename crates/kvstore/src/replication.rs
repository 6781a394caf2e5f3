//! Replication strategies (paper Section 7.2).
//!
//! Starting from unreplicated data (`Mᵢ = {M_u}`, the owner), a strategy
//! widens each processing set to an interval `I_k(u)` of `k` machines:
//!
//! - **Overlapping**: `m` distinct ring intervals — machine `u`'s data is
//!   replicated on its `k − 1` clockwise successors, as in Dynamo,
//!   Cassandra, Riak and Voldemort. Good load spreading, but EFT's
//!   competitive ratio degrades to `m − k + 1` (Theorems 8–10).
//! - **Disjoint**: the cluster is split into `⌈m/k⌉` fixed blocks; data is
//!   replicated within the owner's block. EFT stays
//!   `(3 − 2/k)`-competitive (Corollary 1), but hot blocks cannot shed
//!   load.

use flowsched_core::compact::ProcSetRef;
use flowsched_core::fault::FaultPlan;
use flowsched_core::procset::ProcSet;

/// The two replication shapes compared throughout Section 7, plus one
/// candidate answer to the paper's concluding open question ("devising a
/// … replication strategy that would provide efficient performance on
/// average and in the worst case").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicationStrategy {
    /// Ring intervals `I_k(u) = {u, u+1, …, u+k−1 mod m}`.
    Overlapping,
    /// Disjoint blocks `I_k(u) = {k⌊u/k⌋, …, min(m, k⌊u/k⌋+k)−1}`.
    Disjoint,
    /// *Staggered blocks* (this workspace's exploration of the open
    /// question): two block layouts on the ring — layout A aligned at 0,
    /// layout B shifted by `⌊k/2⌋` — with even owners replicating in
    /// their layout-A block and odd owners in their layout-B block.
    /// Only `≤ 2⌈m/k⌉` distinct replica sets exist (vs `m` for the ring),
    /// yet adjacent blocks overlap by half, letting hot spots shed load
    /// across block boundaries.
    Staggered,
}

impl std::fmt::Display for ReplicationStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicationStrategy::Overlapping => write!(f, "Overlapping"),
            ReplicationStrategy::Disjoint => write!(f, "Disjoint"),
            ReplicationStrategy::Staggered => write!(f, "Staggered"),
        }
    }
}

impl ReplicationStrategy {
    /// The replica set `I_k(u)` for data owned by machine `u`
    /// (zero-based) with replication factor `k` on `m` machines.
    ///
    /// ```
    /// use flowsched_kvstore::replication::ReplicationStrategy;
    ///
    /// // Paper Figure 9 (m = 6, k = 3): data owned by M3 is replicated on
    /// // {M3, M4, M5} with the ring, {M1, M2, M3} with disjoint blocks.
    /// let ring = ReplicationStrategy::Overlapping.replica_set(2, 3, 6);
    /// assert_eq!(ring.as_slice(), &[2, 3, 4]);
    /// let block = ReplicationStrategy::Disjoint.replica_set(2, 3, 6);
    /// assert_eq!(block.as_slice(), &[0, 1, 2]);
    /// ```
    ///
    /// # Panics
    /// Panics unless `u < m` and `1 ≤ k ≤ m`.
    pub fn replica_set(self, owner: usize, k: usize, m: usize) -> ProcSet {
        self.replica_ref(owner, k, m).to_procset()
    }

    /// The replica set `I_k(u)` as a compact [`ProcSetRef`] — every
    /// strategy is a (possibly wrapping) interval on the ring, so the
    /// member vector never needs to exist.
    /// [`ReplicationStrategy::replica_set`] materializes this view;
    /// streams lend it to the engines at O(1) per request.
    ///
    /// # Panics
    /// Panics unless `u < m` and `1 ≤ k ≤ m`.
    pub fn replica_ref(self, owner: usize, k: usize, m: usize) -> ProcSetRef<'static> {
        assert!(owner < m, "owner machine out of range");
        assert!(k >= 1 && k <= m, "replication factor must be in 1..=m");
        match self {
            ReplicationStrategy::Overlapping => ProcSetRef::ring(owner, k, m),
            ReplicationStrategy::Disjoint => {
                let base = k * (owner / k);
                ProcSetRef::interval(base, (base + k - 1).min(m - 1))
            }
            ReplicationStrategy::Staggered => {
                let offset = if owner.is_multiple_of(2) { 0 } else { k / 2 };
                let pos = (owner + m - offset % m) % m;
                let start = (offset + k * (pos / k)) % m;
                ProcSetRef::ring(start, k, m)
            }
        }
    }

    /// The replica set `I_k(u)` shrunk to the replicas alive at time
    /// `at` under `plan` — the kv-store view of machine failure: a
    /// request for `u`'s data can only be served by replicas whose
    /// machines are up, so crashes temporarily shrink the effective
    /// replication factor. Returns `None` when *every* replica is down
    /// (the request must wait for a recovery; see
    /// [`FaultPlan::next_alive_in`]).
    ///
    /// ```
    /// use flowsched_core::fault::FaultPlan;
    /// use flowsched_core::procset::ProcSet;
    /// use flowsched_kvstore::replication::ReplicationStrategy;
    ///
    /// // Owner M3's disjoint block {0, 1, 2} with machine 1 down over
    /// // [2, 5): requests at t = 3 fall back to the surviving pair.
    /// let plan = FaultPlan::none(6).with_outage(1, 2.0, 5.0);
    /// let s = ReplicationStrategy::Disjoint.alive_replica_set(2, 3, 6, &plan, 3.0);
    /// assert_eq!(s, Some(ProcSet::new(vec![0, 2])));
    /// ```
    ///
    /// # Panics
    /// Panics unless `u < m`, `1 ≤ k ≤ m`, and `plan` covers `m`
    /// machines.
    pub fn alive_replica_set(
        self,
        owner: usize,
        k: usize,
        m: usize,
        plan: &FaultPlan,
        at: f64,
    ) -> Option<ProcSet> {
        assert!(
            plan.machines() >= m,
            "fault plan covers {} machines, replica sets need {m}",
            plan.machines()
        );
        let full = self.replica_set(owner, k, m);
        let alive: Vec<usize> = full
            .as_slice()
            .iter()
            .copied()
            .filter(|&j| plan.is_alive(j, at))
            .collect();
        if alive.is_empty() {
            None
        } else {
            Some(ProcSet::new(alive))
        }
    }

    /// All `m` replica sets as plain index lists — the `allowed` input of
    /// the max-load solvers (the `flowsched_solver::loadflow` shape).
    pub fn allowed_sets(self, k: usize, m: usize) -> Vec<Vec<usize>> {
        (0..m)
            .map(|u| self.replica_set(u, k, m).as_slice().to_vec())
            .collect()
    }

    /// The paper's two strategies, for sweeps reproducing its figures.
    pub fn all() -> [ReplicationStrategy; 2] {
        [
            ReplicationStrategy::Overlapping,
            ReplicationStrategy::Disjoint,
        ]
    }

    /// The paper's strategies plus this workspace's staggered candidate
    /// (open-question exploration).
    pub fn extended() -> [ReplicationStrategy; 3] {
        [
            ReplicationStrategy::Overlapping,
            ReplicationStrategy::Disjoint,
            ReplicationStrategy::Staggered,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_core::structure;

    #[test]
    fn overlapping_matches_paper_figure_9() {
        // Figure 9: m = 6, k = 3, owner M3 (zero-based 2) → {M3, M4, M5}.
        let s = ReplicationStrategy::Overlapping.replica_set(2, 3, 6);
        assert_eq!(s, ProcSet::new(vec![2, 3, 4]));
        // Owner M5 (zero-based 4) wraps: {M5, M6, M1}.
        let s = ReplicationStrategy::Overlapping.replica_set(4, 3, 6);
        assert_eq!(s, ProcSet::new(vec![0, 4, 5]));
    }

    #[test]
    fn disjoint_matches_paper_figure_9() {
        // Figure 9: m = 6, k = 3, owner M3 (zero-based 2) → {M1, M2, M3}.
        let s = ReplicationStrategy::Disjoint.replica_set(2, 3, 6);
        assert_eq!(s, ProcSet::new(vec![0, 1, 2]));
        let s = ReplicationStrategy::Disjoint.replica_set(3, 3, 6);
        assert_eq!(s, ProcSet::new(vec![3, 4, 5]));
    }

    #[test]
    fn disjoint_last_block_may_be_short() {
        // m = 7, k = 3: blocks {0,1,2}, {3,4,5}, {6}.
        let s = ReplicationStrategy::Disjoint.replica_set(6, 3, 7);
        assert_eq!(s, ProcSet::singleton(6));
    }

    #[test]
    fn owner_is_always_a_replica() {
        for strategy in ReplicationStrategy::extended() {
            for m in [1usize, 2, 5, 6, 15] {
                for k in 1..=m {
                    for u in 0..m {
                        let s = strategy.replica_set(u, k, m);
                        assert!(
                            s.contains(u),
                            "{strategy} m={m} k={k}: owner {u} missing from {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn overlapping_sets_have_size_k() {
        for k in 1..=6 {
            for u in 0..6 {
                assert_eq!(
                    ReplicationStrategy::Overlapping.replica_set(u, k, 6).len(),
                    k
                );
            }
        }
    }

    #[test]
    fn disjoint_family_is_disjoint_structured() {
        let sets: Vec<ProcSet> = (0..15)
            .map(|u| ReplicationStrategy::Disjoint.replica_set(u, 3, 15))
            .collect();
        assert!(structure::is_disjoint_family(&sets));
    }

    #[test]
    fn overlapping_family_is_ring_interval_structured() {
        let sets: Vec<ProcSet> = (0..15)
            .map(|u| ReplicationStrategy::Overlapping.replica_set(u, 3, 15))
            .collect();
        assert!(structure::is_ring_interval_family(&sets, 15));
        assert!(!structure::is_disjoint_family(&sets));
    }

    #[test]
    fn k1_reduces_to_no_replication() {
        for strategy in ReplicationStrategy::extended() {
            for u in 0..5 {
                assert_eq!(strategy.replica_set(u, 1, 5), ProcSet::singleton(u));
            }
        }
    }

    #[test]
    fn k_equals_m_is_full_replication() {
        for strategy in ReplicationStrategy::extended() {
            for u in 0..5 {
                assert_eq!(strategy.replica_set(u, 5, 5), ProcSet::full(5));
            }
        }
    }

    #[test]
    fn staggered_has_few_distinct_sets_and_size_k() {
        let (m, k) = (12usize, 4usize);
        let mut distinct: Vec<ProcSet> = Vec::new();
        for u in 0..m {
            let s = ReplicationStrategy::Staggered.replica_set(u, k, m);
            assert_eq!(s.len(), k, "owner {u}");
            if !distinct.contains(&s) {
                distinct.push(s);
            }
        }
        assert!(
            distinct.len() <= 2 * m.div_ceil(k),
            "{} distinct sets",
            distinct.len()
        );
        // Strictly more than the disjoint partition's block count: the
        // two layouts genuinely interleave.
        assert!(distinct.len() > m.div_ceil(k));
    }

    #[test]
    fn staggered_even_and_odd_owners_use_different_layouts() {
        let (m, k) = (12usize, 4usize);
        // Even owner 0 → aligned block {0..3}; odd owner 3 → shifted
        // layout (blocks at 2, 6, 10) → block {2..5}; odd owner 1 falls
        // in the shifted layout's wrap-around block {10, 11, 0, 1}.
        assert_eq!(
            ReplicationStrategy::Staggered.replica_set(0, k, m),
            ProcSet::interval(0, 3)
        );
        assert_eq!(
            ReplicationStrategy::Staggered.replica_set(3, k, m),
            ProcSet::interval(2, 5)
        );
        assert_eq!(
            ReplicationStrategy::Staggered.replica_set(1, k, m),
            ProcSet::new(vec![0, 1, 10, 11])
        );
    }

    #[test]
    fn staggered_is_ring_interval_structured() {
        use flowsched_core::structure;
        for (m, k) in [(15usize, 3usize), (12, 4), (7, 3), (9, 2)] {
            let sets: Vec<ProcSet> = (0..m)
                .map(|u| ReplicationStrategy::Staggered.replica_set(u, k, m))
                .collect();
            assert!(
                structure::is_ring_interval_family(&sets, m),
                "m={m} k={k}: {sets:?}"
            );
        }
    }

    #[test]
    fn replica_ref_matches_replica_set_everywhere() {
        for strategy in ReplicationStrategy::extended() {
            for m in [1usize, 2, 5, 6, 7, 12, 15] {
                for k in 1..=m {
                    for u in 0..m {
                        let owned = strategy.replica_set(u, k, m);
                        let compact = strategy.replica_ref(u, k, m);
                        assert_eq!(
                            compact, owned,
                            "{strategy} m={m} k={k} u={u}: {compact} vs {owned}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn alive_replica_set_shrinks_and_recovers() {
        use flowsched_core::fault::FaultPlan;
        let plan = FaultPlan::none(6)
            .with_outage(1, 2.0, 5.0)
            .with_outage(0, 2.0, 4.0);
        let s = ReplicationStrategy::Disjoint;
        // Fault-free instant: the full block.
        assert_eq!(
            s.alive_replica_set(2, 3, 6, &plan, 0.0),
            Some(ProcSet::new(vec![0, 1, 2]))
        );
        // Two of three replicas down.
        assert_eq!(
            s.alive_replica_set(2, 3, 6, &plan, 3.0),
            Some(ProcSet::singleton(2))
        );
        // Recovery restores membership (outages are closed-open).
        assert_eq!(
            s.alive_replica_set(2, 3, 6, &plan, 5.0),
            Some(ProcSet::new(vec![0, 1, 2]))
        );
        // A block that is entirely down yields None.
        let dark = FaultPlan::none(3)
            .with_outage(0, 0.0, 1.0)
            .with_outage(1, 0.0, 1.0)
            .with_outage(2, 0.0, 1.0);
        assert_eq!(s.alive_replica_set(0, 3, 3, &dark, 0.5), None);
        assert_eq!(
            s.alive_replica_set(0, 3, 3, &dark, 1.0),
            Some(ProcSet::full(3))
        );
    }

    #[test]
    fn allowed_sets_align_with_replica_sets() {
        let allowed = ReplicationStrategy::Overlapping.allowed_sets(3, 6);
        assert_eq!(allowed.len(), 6);
        assert_eq!(allowed[4], vec![0, 4, 5]);
    }
}

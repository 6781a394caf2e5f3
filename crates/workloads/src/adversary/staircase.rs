//! Generalized staircase adversary for arbitrary interval families.
//!
//! Theorem 8's stream is a *staircase*: at each step, one task per
//! interval in decreasing-start order (each lands on its interval's
//! first machine under EFT-Min), then `k` extra tasks on the lowest
//! interval that stack up. The construction only uses the family of
//! distinct replica sets, so it generalizes to any interval-structured
//! replication strategy — including the staggered-blocks candidate and
//! the plain disjoint blocks — and gives a *principled* empirical lower
//! bound on EFT's competitive ratio under that strategy.
//!
//! For the overlapping ring family this reduces exactly to the Theorem 8
//! stream (tested); for disjoint blocks it collapses to independent
//! per-block FIFO workloads (EFT stays near-optimal, as Corollary 1
//! predicts); staggered blocks land in between.

use flowsched_algos::eft::ImmediateDispatcher;
use flowsched_core::procset::ProcSet;
use flowsched_core::task::Task;

use crate::outcome::{AdversaryOutcome, ReleaseLog};

/// The per-step release sequence for a family of distinct interval sets:
/// one task per set in decreasing order of interval start (ties: larger
/// end first), then `extra` additional tasks on the lowest-starting set.
pub fn staircase_round(sets: &[ProcSet], extra: usize) -> Vec<ProcSet> {
    assert!(!sets.is_empty(), "need at least one set");
    let mut distinct: Vec<ProcSet> = Vec::new();
    for s in sets {
        assert!(!s.is_empty(), "sets must be non-empty");
        if !distinct.contains(s) {
            distinct.push(s.clone());
        }
    }
    distinct.sort_by(|a, b| b.min().cmp(&a.min()).then(b.max().cmp(&a.max())));
    let lowest = distinct.last().expect("non-empty family").clone();
    let mut round = distinct;
    round.extend(std::iter::repeat_n(lowest, extra));
    round
}

/// Drives an immediate-dispatch algorithm through `rounds` staircase
/// steps over the given family. `extra` controls how many stacking tasks
/// hit the lowest set each step (Theorem 8 uses `k − 1` extras beyond
/// the staircase's own type-1 task, i.e. `extra = k − 1`).
///
/// The recorded optimum is the trivial bound 1, valid for unit tasks, so
/// [`AdversaryOutcome::ratio`] can only over-report;
/// [`run_staircase_with_exact_opt`] records the exact optimum of the
/// whole run instead.
pub fn run_staircase<D: ImmediateDispatcher>(
    algo: &mut D,
    sets: &[ProcSet],
    extra: usize,
    rounds: usize,
) -> AdversaryOutcome {
    let round = staircase_round(sets, extra);
    let mut log = ReleaseLog::new(algo.machine_count());
    for t in 0..rounds {
        for set in &round {
            log.release(algo, Task::unit(t as f64), set.clone());
        }
    }
    // The trivial bound: every unit task flows at least 1.
    log.finish(1.0)
}

/// Like [`run_staircase`], but records the exact offline optimum of the
/// whole run, from the matching solver (the tasks are unit tasks). When
/// a round overloads its sets the optimum grows with the number of
/// rounds, so no prefix of the run bounds it.
pub fn run_staircase_with_exact_opt<D: ImmediateDispatcher>(
    algo: &mut D,
    sets: &[ProcSet],
    extra: usize,
    rounds: usize,
) -> AdversaryOutcome {
    let mut out = run_staircase(algo, sets, extra, rounds);
    out.opt_fmax = flowsched_algos::offline::optimal_unit_fmax(&out.instance);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::interval::{interval_adversary_instance, round_types};
    use flowsched_algos::eft::EftState;
    use flowsched_algos::tiebreak::TieBreak;
    use flowsched_kvstore::replication::ReplicationStrategy;

    /// Distinct replica sets of a strategy.
    fn family(strategy: ReplicationStrategy, m: usize, k: usize) -> Vec<ProcSet> {
        let mut out: Vec<ProcSet> = Vec::new();
        for u in 0..m {
            let s = strategy.replica_set(u, k, m);
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn reduces_to_theorem8_on_the_contiguous_interval_family() {
        // The family of contiguous type intervals (types 1..=m−k+1) with
        // extra = k − 1 reproduces the Theorem 8 round exactly.
        let (m, k) = (6usize, 3usize);
        let sets: Vec<ProcSet> = (1..=m - k + 1)
            .map(|lambda| ProcSet::interval(lambda - 1, lambda + k - 2))
            .collect();
        let round = staircase_round(&sets, k - 1);
        let expected: Vec<ProcSet> = round_types(m, k)
            .into_iter()
            .map(|lambda| ProcSet::interval(lambda - 1, lambda + k - 2))
            .collect();
        assert_eq!(round, expected);

        // And driving EFT-Min with it matches the dedicated adversary.
        let mut algo = EftState::new(m, TieBreak::Min);
        let out = run_staircase(&mut algo, &sets, k - 1, m * m);
        let reference = interval_adversary_instance(m, k, m * m);
        let ref_schedule = flowsched_algos::eft::eft(&reference, TieBreak::Min);
        assert_eq!(out.fmax(), ref_schedule.fmax(&reference));
    }

    #[test]
    fn disjoint_blocks_resist_the_staircase() {
        // Corollary 1 predicts EFT stays well-behaved on disjoint blocks:
        // the staircase cannot build the m − k + 1 pile.
        let (m, k) = (12usize, 3usize);
        let sets = family(ReplicationStrategy::Disjoint, m, k);
        let mut algo = EftState::new(m, TieBreak::Min);
        let out = run_staircase_with_exact_opt(&mut algo, &sets, k - 1, m * m);
        out.validate().unwrap();
        assert!(
            out.ratio() <= 3.0 - 2.0 / k as f64 + 1e-9,
            "disjoint staircase ratio {} exceeds Corollary 1",
            out.ratio()
        );
    }

    #[test]
    fn exact_opt_covers_every_round() {
        // Two extras overload {0, 1}: three tasks a round on two machines
        // pile up, so the optimum grows with the rounds (a three-round
        // prefix reads 3). EFT-Min reaches the whole run's optimum.
        let sets: Vec<ProcSet> = (0..3)
            .map(|b| ProcSet::interval(2 * b, 2 * b + 1))
            .collect();
        let mut algo = EftState::new(6, TieBreak::Min);
        let out = run_staircase_with_exact_opt(&mut algo, &sets, 2, 12);
        out.validate().unwrap();
        assert_eq!(out.opt_fmax, 7.0);
        assert_eq!(out.ratio(), 1.0);
    }

    #[test]
    fn overlapping_ring_suffers_most() {
        // Ranking under the same staircase pressure: ring ≥ staggered ≥
        // disjoint (the open-question trade-off, adversarial axis).
        let (m, k) = (12usize, 3usize);
        let fmax_of = |strategy: ReplicationStrategy| {
            let sets = family(strategy, m, k);
            let mut algo = EftState::new(m, TieBreak::Min);
            run_staircase(&mut algo, &sets, k - 1, m * m).fmax()
        };
        let ring = fmax_of(ReplicationStrategy::Overlapping);
        let staggered = fmax_of(ReplicationStrategy::Staggered);
        let disjoint = fmax_of(ReplicationStrategy::Disjoint);
        assert!(
            ring >= staggered && staggered >= disjoint,
            "expected ring ≥ staggered ≥ disjoint, got {ring} / {staggered} / {disjoint}"
        );
        assert!(ring > disjoint, "the staircase must separate the extremes");
    }

    #[test]
    fn round_deduplicates_and_orders() {
        let sets = vec![
            ProcSet::interval(2, 4),
            ProcSet::interval(0, 2),
            ProcSet::interval(2, 4), // duplicate
            ProcSet::interval(4, 5),
        ];
        let round = staircase_round(&sets, 1);
        assert_eq!(round.len(), 4); // 3 distinct + 1 extra
        assert_eq!(round[0], ProcSet::interval(4, 5));
        assert_eq!(round[1], ProcSet::interval(2, 4));
        assert_eq!(round[2], ProcSet::interval(0, 2));
        assert_eq!(round[3], ProcSet::interval(0, 2)); // extra on lowest
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn empty_family_rejected() {
        let _ = staircase_round(&[], 1);
    }
}

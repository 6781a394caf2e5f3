//! Theorem 3 adversary: inclusive processing sets vs. immediate dispatch.
//!
//! Forces any immediate-dispatch algorithm to a competitive ratio of at
//! least `⌊log₂(m) + 1⌋` on `P | online-rᵢ, pᵢ=p, Mᵢ(inclusive) | Fmax`.
//!
//! Construction (for `m` a power of two; other sizes are rounded down):
//! at each level `ℓ = 1..log₂ m`, release `m/2^ℓ` tasks of length
//! `p > log₂ m` at time `ℓ − 1`, restricted to the current machine set
//! `M(ℓ)`; then shrink `M(ℓ+1)` to the most-loaded half of `M(ℓ)` — which
//! provably carries at least `ℓ·m/2^ℓ` of the tasks released so far. A
//! final task released at time `log₂ m` on the single surviving most-
//! loaded machine then waits behind at least `log₂ m` tasks. The optimal
//! schedule runs each level on `M(ℓ) \ M(ℓ+1)` for a max-flow of `p`.

use flowsched_algos::eft::ImmediateDispatcher;
use flowsched_core::procset::ProcSet;
use flowsched_core::task::Task;
use flowsched_core::time::Time;

use crate::outcome::{AdversaryOutcome, ReleaseLog};

/// Runs the Theorem 3 adversary against `algo`.
///
/// `p` is the common processing time; the theorem requires
/// `p > log₂(m)` and the ratio approaches `⌊log₂ m + 1⌋` as `p → ∞`.
///
/// # Panics
/// Panics if the cluster has fewer than 2 machines or `p ≤ log₂ m`.
pub fn inclusive_adversary<D: ImmediateDispatcher>(algo: &mut D, p: Time) -> AdversaryOutcome {
    let m_actual = algo.machine_count();
    assert!(m_actual >= 2, "the adversary needs at least two machines");
    let levels = m_actual.ilog2() as usize; // ⌊log₂ m'⌋
    let m = 1usize << levels; // power-of-two working set
    assert!(
        p > levels as Time,
        "Theorem 3 requires p > log2(m); got p = {p} for {levels} levels"
    );

    let mut log = ReleaseLog::new(m_actual);
    let mut current: Vec<usize> = (0..m).collect();
    let mut task_count = vec![0usize; m_actual];

    for level in 1..=levels {
        let batch = m >> level; // m / 2^level tasks
        let release = (level - 1) as Time;
        let set = ProcSet::new(current.clone());
        for _ in 0..batch {
            let a = log.release(algo, Task::new(release, p), set.clone());
            task_count[a.machine.index()] += 1;
        }
        // Shrink to the most-loaded half; stable by machine index among
        // equal counts so runs are deterministic.
        let keep = m >> level;
        current.sort_by(|&a, &b| task_count[b].cmp(&task_count[a]).then(a.cmp(&b)));
        current.truncate(keep);
        current.sort_unstable();
    }

    // One machine survives; it carries at least log2(m) waiting tasks.
    debug_assert_eq!(current.len(), 1);
    let last_set = ProcSet::singleton(current[0]);
    log.release(algo, Task::new(levels as Time, p), last_set);
    log.finish(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::eft::EftState;
    use flowsched_algos::tiebreak::TieBreak;
    use flowsched_core::structure;

    #[test]
    fn construction_is_inclusive() {
        let mut algo = EftState::new(8, TieBreak::Min);
        let out = inclusive_adversary(&mut algo, 10.0);
        out.validate().unwrap();
        assert!(structure::is_inclusive(out.instance.sets()));
    }

    #[test]
    fn forces_logarithmic_ratio_on_eft() {
        // m = 8 → bound ⌊log2 8 + 1⌋ = 4; with p large the ratio should
        // approach it: Fmax ≥ (log2 m + 1)p − log2 m.
        let p = 1000.0;
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 5 }] {
            let mut algo = EftState::new(8, tb);
            let out = inclusive_adversary(&mut algo, p);
            out.validate().unwrap();
            let expected = 4.0 * p - 3.0;
            assert!(
                out.fmax() >= expected - 1e-9,
                "{tb}: Fmax {f} < {expected}",
                f = out.fmax()
            );
            assert!(out.ratio() >= 3.9, "{tb}: ratio {r}", r = out.ratio());
        }
    }

    #[test]
    fn task_counts_match_construction() {
        // Levels release m/2 + m/4 + … + 1 tasks, plus the final one.
        let mut algo = EftState::new(16, TieBreak::Min);
        let out = inclusive_adversary(&mut algo, 100.0);
        assert_eq!(out.instance.len(), 8 + 4 + 2 + 1 + 1);
    }

    #[test]
    fn non_power_of_two_machines_rounded_down() {
        let mut algo = EftState::new(12, TieBreak::Min);
        let out = inclusive_adversary(&mut algo, 100.0);
        out.validate().unwrap();
        // Working set is 8 machines → bound 4, ratio close to it.
        assert!(out.ratio() > 3.5);
    }

    #[test]
    fn optimum_is_achievable() {
        // Cross-check the paper's claimed OPT on a small case with the
        // exact brute-force solver (p small enough that F* = p).
        let mut algo = EftState::new(4, TieBreak::Min);
        let out = inclusive_adversary(&mut algo, 3.0);
        let exact = flowsched_algos::offline::brute_force_fmax(&out.instance);
        assert!((exact - 3.0).abs() < 1e-9, "claimed OPT 3.0, exact {exact}");
    }

    #[test]
    #[should_panic(expected = "p > log2(m)")]
    fn small_p_rejected() {
        let mut algo = EftState::new(8, TieBreak::Min);
        let _ = inclusive_adversary(&mut algo, 2.0);
    }
}

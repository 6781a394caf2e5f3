//! Theorem 4 adversary: unstructured size-`k` sets vs. immediate dispatch.
//!
//! Forces any immediate-dispatch algorithm to a ratio of at least
//! `⌊log_k(m)⌋` on `P | online-rᵢ, pᵢ=p, Mᵢ, |Mᵢ|=k | Fmax`.
//!
//! Construction (for `m` a power of `k`): at level `ℓ`, partition the
//! surviving machine set `M(ℓ−1)` into `|M(ℓ−1)|/k` disjoint sets of
//! size `k` and release one task per set at time `ℓ − 1`. The algorithm
//! must pick one machine per set; those choices form `M(ℓ)`, which
//! therefore accumulates `ℓ` stacked tasks per machine. After
//! `log_k m` levels a machine holds `log_k m` tasks, for a flow of
//! `log_k(m)·p − (log_k(m) − 1)`, while the optimum is `p` (run each
//! level on the `k − 1` machines per set that were not chosen).

use flowsched_algos::eft::ImmediateDispatcher;
use flowsched_core::procset::ProcSet;
use flowsched_core::task::Task;
use flowsched_core::time::Time;

use crate::outcome::{AdversaryOutcome, ReleaseLog};

/// Runs the Theorem 4 adversary with set size `k` against `algo`.
///
/// # Panics
/// Panics unless `2 ≤ k ≤ m` and `p > log_k(m)`.
pub fn fixed_size_adversary<D: ImmediateDispatcher>(
    algo: &mut D,
    k: usize,
    p: Time,
) -> AdversaryOutcome {
    let m_actual = algo.machine_count();
    assert!(k >= 2, "set size k must be at least 2");
    assert!(k <= m_actual, "set size k cannot exceed the machine count");
    // Largest power of k that fits: levels = ⌊log_k m'⌋.
    let mut levels = 0usize;
    let mut m = 1usize;
    while m * k <= m_actual {
        m *= k;
        levels += 1;
    }
    assert!(levels >= 1, "need at least k machines");
    assert!(
        p > levels as Time,
        "Theorem 4 requires p > log_k(m); got p = {p} for {levels} levels"
    );

    let mut log = ReleaseLog::new(m_actual);
    let mut current: Vec<usize> = (0..m).collect();

    for level in 1..=levels {
        let release = (level - 1) as Time;
        let mut chosen: Vec<usize> = Vec::with_capacity(current.len() / k);
        for chunk in current.chunks(k) {
            debug_assert_eq!(chunk.len(), k, "machine set sizes are powers of k");
            let set = ProcSet::new(chunk.to_vec());
            let a = log.release(algo, Task::new(release, p), set);
            chosen.push(a.machine.index());
        }
        chosen.sort_unstable();
        current = chosen;
    }
    debug_assert_eq!(current.len(), 1);
    log.finish(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::eft::EftState;
    use flowsched_algos::tiebreak::TieBreak;
    use flowsched_core::structure;

    #[test]
    fn sets_have_fixed_size_and_are_disjoint_per_level() {
        let mut algo = EftState::new(8, TieBreak::Min);
        let out = fixed_size_adversary(&mut algo, 2, 10.0);
        out.validate().unwrap();
        assert_eq!(structure::fixed_size(out.instance.sets()), Some(2));
    }

    #[test]
    fn forces_log_k_ratio_on_eft() {
        // m = 8, k = 2 → 3 levels; Fmax ≥ 3p − 2; ratio → 3.
        let p = 1000.0;
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 1 }] {
            let mut algo = EftState::new(8, tb);
            let out = fixed_size_adversary(&mut algo, 2, p);
            out.validate().unwrap();
            assert!(
                out.fmax() >= 3.0 * p - 2.0 - 1e-9,
                "{tb}: Fmax {f}",
                f = out.fmax()
            );
            assert!(out.ratio() >= 2.9);
        }
    }

    #[test]
    fn k3_on_nine_machines() {
        let p = 500.0;
        let mut algo = EftState::new(9, TieBreak::Min);
        let out = fixed_size_adversary(&mut algo, 3, p);
        out.validate().unwrap();
        // 2 levels → Fmax ≥ 2p − 1.
        assert!(out.fmax() >= 2.0 * p - 1.0 - 1e-9);
        assert_eq!(out.instance.len(), 3 + 1);
    }

    #[test]
    fn optimum_matches_brute_force_on_small_case() {
        let mut algo = EftState::new(4, TieBreak::Min);
        let out = fixed_size_adversary(&mut algo, 2, 3.0);
        let exact = flowsched_algos::offline::brute_force_fmax(&out.instance);
        assert!((exact - 3.0).abs() < 1e-9, "claimed OPT 3.0, exact {exact}");
    }

    #[test]
    fn task_count_is_geometric_series() {
        let mut algo = EftState::new(16, TieBreak::Min);
        let out = fixed_size_adversary(&mut algo, 2, 100.0);
        // 8 + 4 + 2 + 1 tasks.
        assert_eq!(out.instance.len(), 15);
    }

    #[test]
    #[should_panic(expected = "k must be at least 2")]
    fn k1_rejected() {
        let mut algo = EftState::new(4, TieBreak::Min);
        let _ = fixed_size_adversary(&mut algo, 1, 10.0);
    }
}

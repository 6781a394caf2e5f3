//! Theorem 8/9 adversary: fixed-size intervals vs. EFT.
//!
//! The oblivious instance driving EFT-Min (and, almost surely, EFT-Rand)
//! to a competitive ratio of `m − k + 1` on
//! `P | online-rᵢ, pᵢ=1, Mᵢ(interval), |Mᵢ|=k | Fmax`.
//!
//! At every integer time `t` the adversary releases `m` unit tasks, in
//! order (one-based task index `i`, one-based machine types):
//!
//! - for `1 ≤ i ≤ m − k`: task `i` is of type `m − k − i + 2`, i.e. its
//!   interval starts at machine `M_{m−k−i+2}` — a descending staircase of
//!   intervals covering `M₂ … Mₘ`;
//! - for `m − k < i ≤ m`: task `i` is of type 1 (interval `M₁ … M_k`).
//!
//! EFT-Min greedily fills low indices; the profile `w_t` provably climbs
//! to the stable profile `w_τ(j) = min(m−j, m−k)`, after which the `k`
//! trailing type-1 tasks stack on the first machines and some task flows
//! `m − k + 1`. The optimum schedules every type-`≥ k+1` task on the
//! *last* machine of its interval, keeping all flows at 1.

use flowsched_algos::eft::ImmediateDispatcher;
use flowsched_core::instance::{Instance, InstanceBuilder};
use flowsched_core::procset::ProcSet;
use flowsched_core::task::Task;

use crate::outcome::{AdversaryOutcome, ReleaseLog};

/// The processing interval of a task of one-based type `λ` with interval
/// size `k`: machines `M_λ … M_{λ+k−1}` (zero-based `[λ−1, λ+k−2]`).
fn type_interval(lambda: usize, k: usize, m: usize) -> ProcSet {
    debug_assert!(lambda >= 1 && lambda + k - 1 <= m);
    ProcSet::interval(lambda - 1, lambda + k - 2)
}

/// The type sequence of the `m` tasks released at each step (one-based
/// types, in release order).
pub fn round_types(m: usize, k: usize) -> Vec<usize> {
    let mut types = Vec::with_capacity(m);
    for i in 1..=m - k {
        types.push(m - k - i + 2);
    }
    types.extend(std::iter::repeat_n(1, k));
    types
}

/// Builds the oblivious Theorem 8 instance: `rounds` integer steps of `m`
/// unit tasks each.
///
/// # Panics
/// Panics unless `1 < k < m` (the theorem's hypothesis).
pub fn interval_adversary_instance(m: usize, k: usize, rounds: usize) -> Instance {
    assert!(k > 1 && k < m, "Theorem 8 requires 1 < k < m");
    let mut b = InstanceBuilder::new(m);
    let types = round_types(m, k);
    for t in 0..rounds {
        for &lambda in &types {
            b.push_unit(t as f64, type_interval(lambda, k, m));
        }
    }
    b.build().expect("adversary instance is valid")
}

/// Drives an immediate-dispatch algorithm through the Theorem 8 stream
/// for `rounds` steps. The offline optimum of the construction is 1
/// (every task can run with unit flow).
///
/// ```
/// use flowsched_algos::{EftState, TieBreak};
/// use flowsched_workloads::adversary::interval::run_interval_adversary;
///
/// let (m, k) = (6, 3);
/// let mut algo = EftState::new(m, TieBreak::Min);
/// let out = run_interval_adversary(&mut algo, k, m * m);
/// assert_eq!(out.fmax(), (m - k + 1) as f64); // Theorem 8, exactly
/// assert_eq!(out.opt_fmax, 1.0);
/// ```
///
/// # Panics
/// Panics unless `1 < k < m`.
pub fn run_interval_adversary<D: ImmediateDispatcher>(
    algo: &mut D,
    k: usize,
    rounds: usize,
) -> AdversaryOutcome {
    let m = algo.machine_count();
    assert!(k > 1 && k < m, "Theorem 8 requires 1 < k < m");
    let types = round_types(m, k);
    let mut log = ReleaseLog::new(m);
    for t in 0..rounds {
        for &lambda in &types {
            log.release(algo, Task::unit(t as f64), type_interval(lambda, k, m));
        }
    }
    log.finish(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::eft::EftState;
    use flowsched_algos::tiebreak::TieBreak;
    use flowsched_core::profile::{profile_at, stable_profile};
    use flowsched_core::structure;

    #[test]
    fn round_type_sequence_matches_paper() {
        // m = 6, k = 3: type 4 covers M4–M6, down to type 2, then three
        // type-1 tasks (paper Figure 3).
        assert_eq!(round_types(6, 3), vec![4, 3, 2, 1, 1, 1]);
    }

    #[test]
    fn instance_is_fixed_size_interval_structured() {
        let inst = interval_adversary_instance(6, 3, 4);
        assert!(structure::is_interval_family(inst.sets()));
        assert_eq!(structure::fixed_size(inst.sets()), Some(3));
        assert_eq!(inst.len(), 24);
        assert!(inst.is_unit());
    }

    #[test]
    fn eft_min_reaches_m_minus_k_plus_1() {
        // Theorem 8: EFT-Min's max flow reaches m − k + 1 while OPT = 1.
        for (m, k) in [(6, 3), (8, 2), (10, 4), (5, 2)] {
            let rounds = m * m; // comfortably beyond convergence
            let mut algo = EftState::new(m, TieBreak::Min);
            let out = run_interval_adversary(&mut algo, k, rounds);
            out.validate().unwrap();
            let target = (m - k + 1) as f64;
            assert!(
                out.fmax() >= target,
                "m={m} k={k}: Fmax {f} < {target}",
                f = out.fmax()
            );
            assert!(out.ratio() >= target);
        }
    }

    #[test]
    fn eft_rand_reaches_the_bound_almost_surely() {
        // Theorem 9: with a tie-break that never discards a candidate, the
        // bound is reached with probability 1; a long run should exhibit it.
        let (m, k) = (6, 3);
        let mut algo = EftState::new(m, TieBreak::Rand { seed: 123 });
        let out = run_interval_adversary(&mut algo, k, 400);
        out.validate().unwrap();
        assert!(
            out.fmax() >= (m - k + 1) as f64,
            "EFT-Rand Fmax {f}",
            f = out.fmax()
        );
    }

    #[test]
    fn profile_converges_to_stable_profile_under_eft_min() {
        // Lemma 3/4: the EFT-Min profile reaches w_τ(j) = min(m−j, m−k).
        let (m, k) = (6, 3);
        let rounds = m * m;
        let mut algo = EftState::new(m, TieBreak::Min);
        let out = run_interval_adversary(&mut algo, k, rounds);
        let expected = stable_profile(m, k);
        let reached =
            (1..rounds).any(|t| profile_at(&out.schedule, &out.instance, t as f64) == expected);
        assert!(reached, "stable profile never reached in {rounds} rounds");
    }

    #[test]
    fn profiles_stay_non_increasing_under_eft_min() {
        // Lemma 2: w_t is non-increasing in the machine index at each step.
        let (m, k) = (7, 3);
        let mut algo = EftState::new(m, TieBreak::Min);
        let out = run_interval_adversary(&mut algo, k, 30);
        for t in 0..30 {
            let w = profile_at(&out.schedule, &out.instance, t as f64);
            assert!(
                flowsched_core::profile::is_non_increasing(&w),
                "t={t}: profile {w:?} increases"
            );
        }
    }

    #[test]
    fn optimum_is_one_on_small_prefix() {
        // Verify OPT = 1 exactly with the matching solver on a short run.
        let inst = interval_adversary_instance(6, 3, 3);
        let opt = flowsched_algos::offline::optimal_unit_fmax(&inst);
        assert_eq!(opt, 1.0);
    }

    #[test]
    fn eft_max_is_not_fooled_by_this_stream() {
        // EFT-Max schedules staircase tasks onto their last machines
        // naturally, so it should stay well below EFT-Min's flow here —
        // the asymmetry the tie-break ablation (Fig. 11) explores.
        let (m, k) = (6, 3);
        let mut min_algo = EftState::new(m, TieBreak::Min);
        let min_out = run_interval_adversary(&mut min_algo, k, m * m);
        let mut max_algo = EftState::new(m, TieBreak::Max);
        let max_out = run_interval_adversary(&mut max_algo, k, m * m);
        assert!(
            max_out.fmax() < min_out.fmax(),
            "EFT-Max {mx} should beat EFT-Min {mn} on the oblivious stream",
            mx = max_out.fmax(),
            mn = min_out.fmax()
        );
    }

    #[test]
    fn weighted_distance_is_non_increasing_under_any_tiebreak() {
        // Lemma 5: Φ_{t+1} ≤ Φ_t on the adversary stream, for EFT with
        // any tie-break — the potential argument behind Theorem 9.
        use flowsched_core::profile::weighted_distance;
        let (m, k) = (6, 3);
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 5 }] {
            let mut algo = EftState::new(m, tb);
            let out = run_interval_adversary(&mut algo, k, 60);
            let mut prev = f64::INFINITY;
            for t in 0..60 {
                let w = profile_at(&out.schedule, &out.instance, t as f64);
                let phi = weighted_distance(&w, m, k);
                assert!(
                    phi <= prev + 1e-9,
                    "{tb}: Φ increased at t={t}: {phi} > {prev}"
                );
                prev = phi;
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 < k < m")]
    fn k_equal_m_rejected() {
        let _ = interval_adversary_instance(4, 4, 1);
    }
}

//! Theorem 7 adversary: size-`k` intervals vs. any online algorithm.
//!
//! Shows that no online algorithm beats ratio 2 on
//! `P | online-rᵢ, pᵢ=p, Mᵢ(interval), |Mᵢ|=k | Fmax`.
//!
//! The adversary releases one task `T₁` of length `p` at time 0 with
//! interval `{M₂, M₃}` and watches where it lands:
//!
//! - if the algorithm delays it past `p`, its flow alone is `≥ 2p`;
//! - if it runs on `M₂`, two more length-`p` tasks arrive at `σ₁ + 1`
//!   restricted to `{M₁, M₂}` — one of them must wait for `M₂`;
//! - symmetrically, if it runs on `M₃`, the follow-ups target `{M₃, M₄}`.
//!
//! Either way some task flows `≥ 2p − 1`, while the optimum (placing `T₁`
//! on the other machine) keeps every flow at `p`, giving ratio → 2.

use flowsched_algos::eft::ImmediateDispatcher;
use flowsched_core::procset::ProcSet;
use flowsched_core::task::Task;
use flowsched_core::time::Time;

use crate::outcome::{AdversaryOutcome, ReleaseLog};

/// Runs the Theorem 7 adversary against `algo` with processing time `p`.
/// The construction uses interval size `k = 2` on (at least) 4 machines.
///
/// # Panics
/// Panics if the cluster has fewer than 4 machines or `p < 1`.
pub fn theorem7_adversary<D: ImmediateDispatcher>(algo: &mut D, p: Time) -> AdversaryOutcome {
    let m = algo.machine_count();
    assert!(m >= 4, "Theorem 7 needs at least 4 machines");
    assert!(p >= 1.0, "the follow-up release at σ₁ + 1 needs p ≥ 1");

    let mut log = ReleaseLog::new(m);
    // T1 on {M2, M3} (zero-based {1, 2}).
    let a1 = log.release(algo, Task::new(0.0, p), ProcSet::new(vec![1, 2]));

    if a1.start < p {
        // Case analysis on the chosen machine.
        let followup_set = if a1.machine.index() == 1 {
            ProcSet::new(vec![0, 1]) // {M1, M2}
        } else {
            ProcSet::new(vec![2, 3]) // {M3, M4}
        };
        let t = a1.start + 1.0;
        log.release(algo, Task::new(t, p), followup_set.clone());
        log.release(algo, Task::new(t, p), followup_set);
    }
    // If σ₁ ≥ p the single task already flows ≥ 2p; no follow-up needed.
    log.finish(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::eft::EftState;
    use flowsched_algos::tiebreak::TieBreak;
    use flowsched_core::structure;

    #[test]
    fn forces_ratio_approaching_two_on_eft() {
        let p = 1000.0;
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 9 }] {
            let mut algo = EftState::new(4, tb);
            let out = theorem7_adversary(&mut algo, p);
            out.validate().unwrap();
            assert!(
                out.fmax() >= 2.0 * p - 1.0 - 1e-9,
                "{tb}: Fmax {f}",
                f = out.fmax()
            );
            assert!(
                out.ratio() >= 2.0 - 2.0 / p,
                "{tb}: ratio {r}",
                r = out.ratio()
            );
        }
    }

    #[test]
    fn sets_are_fixed_size_intervals() {
        let mut algo = EftState::new(4, TieBreak::Min);
        let out = theorem7_adversary(&mut algo, 10.0);
        assert!(structure::is_interval_family(out.instance.sets()));
        assert_eq!(structure::fixed_size(out.instance.sets()), Some(2));
    }

    #[test]
    fn optimum_claim_verified_by_brute_force() {
        let p = 10.0;
        let mut algo = EftState::new(4, TieBreak::Min);
        let out = theorem7_adversary(&mut algo, p);
        let exact = flowsched_algos::offline::brute_force_fmax(&out.instance);
        assert!((exact - p).abs() < 1e-9, "claimed OPT {p}, exact {exact}");
    }

    #[test]
    fn follow_up_targets_the_committed_machine() {
        // EFT-Min puts T1 on M2 (index 1) → follow-ups on {M1, M2};
        // EFT-Max puts it on M3 (index 2) → follow-ups on {M3, M4}.
        let mut min_algo = EftState::new(4, TieBreak::Min);
        let out_min = theorem7_adversary(&mut min_algo, 5.0);
        assert_eq!(out_min.instance.sets()[1], ProcSet::new(vec![0, 1]));

        let mut max_algo = EftState::new(4, TieBreak::Max);
        let out_max = theorem7_adversary(&mut max_algo, 5.0);
        assert_eq!(out_max.instance.sets()[1], ProcSet::new(vec![2, 3]));
    }

    #[test]
    #[should_panic(expected = "at least 4 machines")]
    fn too_few_machines_rejected() {
        let mut algo = EftState::new(3, TieBreak::Min);
        let _ = theorem7_adversary(&mut algo, 5.0);
    }
}

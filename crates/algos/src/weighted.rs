//! Weighted-EFT dispatch for the weighted max flow time objective
//! `max wᵢ·Fᵢ` (Azar–Touitou, arXiv:1712.10273): a start rule of the
//! EFT core.
//!
//! Plain EFT is weight-blind: a flood of throwaway `w = 1` tasks spreads
//! across every machine and a subsequent `w = W` task inherits the full
//! backlog, paying `W ×` its flow in the weighted objective. Azar–Touitou
//! separate jobs by weight class so that heavy jobs never queue behind
//! light ones. The `weft@θ` policy is the immediate-dispatch rendition
//! of that idea as a *budget-scaled packing* rule:
//!
//! 1. compute the earliest achievable start over the processing set,
//!    `t'ᵢ = max(rᵢ, min_{j∈Mᵢ} C_j)` — exactly EFT's Equation (2)
//!    minimum (under a fault plan, the least fitting start);
//! 2. a task of weight `wᵢ` may start up to `θ / wᵢ` later than that
//!    without moving the weighted objective by more than `θ` (its
//!    weighted flow grows by at most `wᵢ·(θ/wᵢ)`), so every machine with
//!    candidate start `≤ t'ᵢ + θ/wᵢ` is *eligible*;
//! 3. dispatch to the **most loaded** eligible machine (largest
//!    candidate start, ascending tie set through the usual
//!    [`Breaker`](crate::tiebreak::Breaker)) — light tasks pack onto
//!    already-busy machines and the lightly-loaded machines stay in
//!    reserve for heavy arrivals, whose budget `θ/wᵢ → 0` forces strict
//!    EFT placement.
//!
//! On the EFT core (`eft` module docs) step 1 is EFT's own tie set and
//! steps 2–3 are one collect of `{j : C_j ≤ t'ᵢ + θ/wᵢ}` from the index
//! or the scan and a max. With `θ = 0` the eligible set collapses to
//! EFT's tie set `U'ᵢ = {j : C_j ≤ t'ᵢ}` and one `Breaker::pick` is
//! drawn per task, so `weft@0` reproduces EFT **bitwise** (schedule and
//! RNG draws) at any weight assignment — pinned by
//! `tests/policy_registry.rs`. This is not Azar–Touitou's algorithm
//! (theirs is preemptive with explicit weight-class queues); it is the
//! non-preemptive immediate-dispatch analogue their weight-separation
//! argument suggests, measured empirically against the exact weighted
//! oracle in `flowsched_algos::offline`.

#[cfg(test)]
mod tests {
    use crate::eft::{EftState, ImmediateDispatcher};
    use crate::registry::{PolicyId, PolicySpec, PolicyState};
    use crate::tiebreak::TieBreak;
    use flowsched_core::procset::ProcSet;
    use flowsched_core::task::Task;

    fn weft(m: usize, tie: TieBreak, slack: f64) -> PolicyState {
        PolicySpec::new(PolicyId::WeightedEft { tie, slack }).build(m)
    }

    #[test]
    fn zero_slack_matches_plain_eft_bitwise() {
        for policy in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 5 }] {
            let m = 6;
            let mut eft = EftState::new(m, policy);
            let mut weighted = weft(m, policy, 0.0);
            let full = ProcSet::full(m);
            for i in 0..200 {
                // Mixed weights: the rule must still ignore them at θ=0.
                let w = if i % 7 == 0 { 16.0 } else { 1.0 };
                let task = Task::weighted((i / 4) as f64 * 0.5, 1.0 + (i % 3) as f64 * 0.25, w);
                assert_eq!(
                    eft.dispatch_ref(task, full.view()),
                    weighted.dispatch_task(task, full.view()),
                    "{policy:?} dispatch {i} diverged"
                );
            }
            assert_eq!(eft.completions(), weighted.machine_completions());
        }
    }

    #[test]
    fn light_tasks_pack_and_leave_reserve_for_heavy() {
        // 3 machines, slack 10: three light unit tasks at t=0 all pack
        // onto one machine (their budget tolerates waiting); a heavy
        // task then starts immediately on an idle machine.
        let mut st = weft(3, TieBreak::Min, 10.0);
        let full = ProcSet::full(3);
        for _ in 0..3 {
            let a = st.dispatch_task(Task::weighted(0.0, 1.0, 1.0), full.view());
            assert_eq!(a.machine.index(), 0, "light tasks pack onto M1");
        }
        let heavy = st.dispatch_task(Task::weighted(0.0, 1.0, 1000.0), full.view());
        assert_eq!(heavy.start, 0.0, "heavy task must not queue");
        assert_ne!(heavy.machine.index(), 0);
    }

    #[test]
    fn budget_scales_inversely_with_weight() {
        // Slack 2: a w=1 task tolerates start ≤ t' + 2 (packs onto the
        // busy machine), a w=4 task only ≤ t' + 0.5 (goes idle).
        let mk = || {
            let mut st = weft(2, TieBreak::Min, 2.0);
            st.dispatch_task(Task::new(0.0, 1.5), ProcSet::full(2).view()); // M1 busy to 1.5
            st
        };
        let a = mk().dispatch_task(Task::weighted(0.0, 1.0, 1.0), ProcSet::full(2).view());
        assert_eq!(a.machine.index(), 0, "light task packs");
        let b = mk().dispatch_task(Task::weighted(0.0, 1.0, 4.0), ProcSet::full(2).view());
        assert_eq!(b.machine.index(), 1, "heavy task takes the idle machine");
    }

    #[test]
    fn respects_processing_sets() {
        let mut st = weft(4, TieBreak::Min, 5.0);
        for i in 0..20 {
            let a = st.dispatch_task(
                Task::weighted(i as f64 * 0.25, 1.0, 1.0 + (i % 3) as f64),
                ProcSet::interval(1, 2).view(),
            );
            assert!((1..=2).contains(&a.machine.index()));
        }
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn rejects_non_positive_weights() {
        let mut st = weft(2, TieBreak::Min, 1.0);
        st.dispatch_task(Task::weighted(0.0, 1.0, 0.0), ProcSet::full(2).view());
    }
}

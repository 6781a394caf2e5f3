//! Availability-aware dispatch: every policy under a [`FaultPlan`].
//!
//! The fault layer is two halves. `flowsched_core::fault` owns the
//! *stream* half: [`FaultyStream`] shifts releases by the dispatch
//! latency, stretches processing times by the slowest alive member's
//! speed factor, restricts each arrival's set to the machines alive at
//! its release, and re-queues stranded tasks in arrival order. The
//! *dispatch* half is a parameter of every dispatcher: a start on
//! machine `j` is the earliest instant `≥` the rule's start whose whole
//! service window `[s, s + pᵢ)` avoids `j`'s outages
//! ([`FaultPlan::earliest_fit`]), so no task ever starts on, or runs
//! across, a dead machine (the checkpoint-free model: the dispatcher
//! knows the fault trace and schedules around it, the way a cluster
//! manager drains a machine ahead of planned maintenance).
//!
//! - The EFT family (`eft`, `weft@θ`, `setup@c`, `setup-obl@c`) maps
//!   every member's start key through the fit and takes the rule's
//!   argmin on the EFT core, which evaluates EFT's tie set first and
//!   widens only when none of its members fits at `t'min` (`eft` module
//!   docs).
//! - Random, power-of-d and round-robin keep their pick and start at
//!   the earliest fit on the picked machine.
//!
//! **Fault-free equivalence.** With no outages `earliest_fit(j, t, p) =
//! t`, so every start is the rule's own and one `Breaker::pick` per
//! dispatch keeps RNG draw counts identical: a fault-free [`FaultPlan`]
//! reproduces the plain engine *bitwise* — schedule and recorder trace
//! — as `tests/fault_injection.rs` pins for every policy.
//!
//! [`Run::with_faults`](crate::engine::Run::with_faults) composes the
//! halves on both of the engine's paths: it replays the plan's
//! crash/recover transitions into the recorder, wraps the stream in a
//! [`FaultyStream`], and builds each dispatcher over the
//! [`FaultPlan::slice`] of its machines — the whole plan on the
//! sequential path, each shard's block on the sharded path, where
//! commits replay through the engine's shared `CommitTracker` so
//! sequential and sharded runs stay bitwise-equal for deterministic
//! tie-breaks.
//!
//! [`FaultyStream`]: flowsched_core::fault::FaultyStream

#[cfg(doc)]
use flowsched_core::fault::FaultPlan;

use crate::registry::PolicyState;

/// What [`PolicySpec::build_faulty`](crate::registry::PolicySpec::build_faulty)
/// returns: a [`PolicyState`] over a fault plan, now that every policy
/// takes one. Kept as a name because the performance ledger
/// (`perf_ledger/`) builds against it.
pub type FaultyEftState = PolicyState;

#[cfg(test)]
mod tests {
    use crate::eft::EftState;
    use crate::engine::Run;
    use crate::registry::PolicySpec;
    use crate::tiebreak::TieBreak;
    use flowsched_core::fault::FaultPlan;
    use flowsched_core::instance::InstanceBuilder;
    use flowsched_core::procset::ProcSet;
    use flowsched_core::stream::InstanceStream;
    use flowsched_obs::{MemoryRecorder, NoopRecorder};

    fn small_instance() -> flowsched_core::Instance {
        let mut b = InstanceBuilder::new(3);
        for i in 0..24 {
            let lo = i % 3;
            b.push_unit(i as f64 * 0.4, ProcSet::interval(lo, (lo + 1).min(2)));
        }
        b.build().unwrap()
    }

    fn faulty_run(plan: &FaultPlan, tie: TieBreak) -> Run<'_> {
        Run::new(PolicySpec::eft(tie, crate::indexed::DispatchKernel::Auto)).with_faults(plan)
    }

    #[test]
    fn fault_free_plan_matches_plain_eft_bitwise() {
        let inst = small_instance();
        let plan = FaultPlan::none(3);
        for policy in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 7 }] {
            let mut rec_a = MemoryRecorder::with_defaults(3);
            let faulty = faulty_run(&plan, policy).schedule(InstanceStream::new(&inst), &mut rec_a);
            let mut rec_b = MemoryRecorder::with_defaults(3);
            let mut state = EftState::new(3, policy);
            let plain = crate::engine::immediate_schedule(
                InstanceStream::new(&inst),
                &mut state,
                &mut rec_b,
            );
            assert_eq!(faulty, plain);
            assert_eq!(rec_a.trace().to_vec(), rec_b.trace().to_vec());
        }
    }

    #[test]
    fn dispatch_never_starts_inside_an_outage() {
        let inst = small_instance();
        let plan = FaultPlan::none(3)
            .with_outage(0, 1.0, 4.0)
            .with_outage(1, 2.0, 3.0)
            .with_outage(2, 0.5, 6.0);
        let sched = faulty_run(&plan, TieBreak::Min)
            .schedule(InstanceStream::new(&inst), &mut NoopRecorder);
        for (t, a) in inst.tasks().iter().zip(sched.assignments()) {
            let j = a.machine.index();
            assert!(
                plan.earliest_fit(j, a.start, t.ptime) == a.start,
                "task on machine {j} starts at {} inside an outage",
                a.start
            );
        }
    }

    #[test]
    fn stranded_work_waits_for_recovery() {
        // One machine, down [0, 5): the t=0 task must start at 5.
        let mut b = InstanceBuilder::new(1);
        b.push_unit(0.0, ProcSet::full(1));
        let inst = b.build().unwrap();
        let plan = FaultPlan::none(1).with_outage(0, 0.0, 5.0);
        let sched = faulty_run(&plan, TieBreak::Min)
            .schedule(InstanceStream::new(&inst), &mut NoopRecorder);
        assert_eq!(sched.assignments()[0].start, 5.0);
    }
}

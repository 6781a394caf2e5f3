//! Availability-aware EFT dispatch: the dispatcher a faulty run builds.
//!
//! The fault layer is two halves. `flowsched_core::fault` owns the
//! *stream* half: [`FaultyStream`] shifts releases by the dispatch
//! latency, stretches processing times by the slowest alive member's
//! speed factor, restricts each arrival's set to the machines alive at
//! its release, and re-queues stranded tasks in arrival order. This
//! module owns the *dispatch* half: [`FaultyEftState`] answers the
//! paper's Equation (2) against machine availability — the candidate
//! start on machine `j` is the earliest instant `≥ max(rᵢ, C_j)` whose
//! whole service window `[s, s + pᵢ)` avoids `j`'s outages
//! ([`FaultPlan::earliest_fit`]) — so no task ever starts on, or runs
//! across, a dead machine (the checkpoint-free model: the dispatcher
//! knows the fault trace and schedules around it, the way a cluster
//! manager drains a machine ahead of planned maintenance).
//!
//! **Fault-free equivalence.** With no outages `earliest_fit(j, t, p) =
//! t`, so the candidate start is `max(rᵢ, C_j)` and the argmin tie set
//! collapses to exactly the set `eft::scan_ties` computes: when every
//! `C_j > rᵢ` the candidates are the `C_j` themselves (argmin-C mode),
//! and once any `C_j ≤ rᵢ` the minimum is `rᵢ` and the ties are all
//! `{j : C_j ≤ rᵢ}` in ascending order (release mode). One
//! [`Breaker::pick`](crate::tiebreak::Breaker) call per dispatch keeps
//! RNG draw counts identical too, which is why a fault-free
//! [`FaultPlan`] reproduces the plain engine *bitwise* — schedule and
//! recorder trace — as `tests/fault_injection.rs` pins.
//!
//! [`Run::with_faults`](crate::engine::Run::with_faults) composes the
//! halves on both of the engine's paths: it replays the plan's
//! crash/recover transitions into the recorder, wraps the stream in a
//! [`FaultyStream`], and builds one [`FaultyEftState`] per dispatcher
//! over the [`FaultPlan::slice`] of its machines — the whole plan on
//! the sequential path, each shard's block on the sharded path, where
//! commits replay through the engine's shared `CommitTracker` so
//! sequential and sharded runs stay bitwise-equal for deterministic
//! tie-breaks.
//!
//! [`FaultyStream`]: flowsched_core::fault::FaultyStream

use flowsched_core::compact::ProcSetRef;
use flowsched_core::fault::{FaultCursor, FaultPlan};
use flowsched_core::machine::MachineId;
use flowsched_core::schedule::Assignment;
use flowsched_core::task::Task;
use flowsched_core::time::Time;

use crate::eft::ImmediateDispatcher;
use crate::soa::CompletionBank;
use crate::tiebreak::{Breaker, TieBreak};

/// Incremental EFT state that schedules around a [`FaultPlan`]'s
/// outages (see the module docs for the model and the fault-free
/// equivalence argument). Owns its plan so per-shard instances can move
/// onto worker threads.
#[derive(Debug)]
pub struct FaultyEftState {
    /// Fit queries at `max(release, C_j)`, which never decreases per
    /// machine: releases are non-decreasing and `C_j` only grows.
    cursor: FaultCursor<FaultPlan>,
    completions: CompletionBank,
    breaker: Breaker,
    /// Scratch buffer for the tie set, reused across dispatches.
    ties: Vec<usize>,
}

impl FaultyEftState {
    /// Fresh state for the machines of `plan`, all idle at time 0.
    ///
    /// # Panics
    /// Panics when the plan covers zero machines.
    pub fn new(plan: FaultPlan, policy: TieBreak) -> Self {
        let m = plan.machines();
        assert!(m > 0, "need at least one machine");
        FaultyEftState {
            cursor: FaultCursor::new(plan),
            completions: CompletionBank::new(m),
            breaker: policy.breaker(),
            ties: Vec::new(),
        }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.completions.len()
    }

    /// Current completion time of each machine under the commitments
    /// made so far.
    pub fn completions(&self) -> &[Time] {
        self.completions.values()
    }

    /// Dispatches one task: for each member `j` the candidate start is
    /// `earliest_fit(j, max(release, C_j), ptime)`; the argmin tie set
    /// (ascending machine order) goes to the tie-break, exactly one RNG
    /// draw for `Rand`.
    ///
    /// # Panics
    /// Panics on an empty set or a member outside the plan.
    pub fn dispatch(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        assert!(!set.is_empty(), "processing sets are non-empty");
        self.ties.clear();
        let mut best = Time::INFINITY;
        let completions = self.completions.values();
        for j in set.iter() {
            let ready = if task.release > completions[j] {
                task.release
            } else {
                completions[j]
            };
            let s = self.cursor.earliest_fit(j, ready, task.ptime);
            if s < best {
                best = s;
                self.ties.clear();
                self.ties.push(j);
            } else if s == best {
                self.ties.push(j);
            }
        }
        let u = self.breaker.pick(&self.ties);
        self.completions.set(u, best + task.ptime);
        Assignment::new(MachineId(u), best)
    }
}

impl ImmediateDispatcher for FaultyEftState {
    fn machine_count(&self) -> usize {
        self.machines()
    }

    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        self.dispatch(task, set)
    }

    fn machine_completions(&self) -> &[Time] {
        self.completions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eft::EftState;
    use crate::engine::Run;
    use crate::registry::PolicySpec;
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

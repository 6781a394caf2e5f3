//! FIFO — centralized-queue scheduling (paper Algorithm 1).
//!
//! A single global FIFO queue holds released tasks; whenever machines are
//! idle, the earliest queued task is pulled by one of them (the tie-break
//! policy selects which idle machine runs first). Unlike EFT, FIFO is
//! *not* an immediate-dispatch algorithm — a task may wait in the central
//! queue — and the paper notes it does not extend naturally to processing
//! set restrictions, so this implementation requires an unrestricted
//! instance.
//!
//! The implementation — [`crate::engine::run_fifo`] — is a faithful
//! discrete-event simulation (a machine-free event heap merged with the
//! lazy arrival stream), deliberately *not* sharing its loop with the
//! immediate-dispatch engine behind [`crate::eft()`], so the
//! equivalence of Proposition 1 is validated by running two independent
//! engines over the same stream.

use flowsched_core::instance::Instance;
use flowsched_core::schedule::Schedule;
use flowsched_core::stream::{ArrivalStream, InstanceStream};
use flowsched_obs::{NoopRecorder, Recorder};

use crate::engine;
use crate::tiebreak::TieBreak;

/// Runs FIFO (Algorithm 1) over an unrestricted instance.
///
/// ```
/// use flowsched_algos::{TieBreak, eft, fifo};
/// use flowsched_core::prelude::*;
///
/// let inst = Instance::unrestricted(
///     3,
///     vec![Task::new(0.0, 2.0), Task::new(0.5, 1.0), Task::new(0.5, 1.0)],
/// ).unwrap();
/// // Proposition 1: FIFO and EFT produce the same schedule.
/// assert_eq!(fifo(&inst, TieBreak::Min), eft(&inst, TieBreak::Min));
/// ```
///
/// # Panics
/// Panics if any task carries a real processing-set restriction — FIFO's
/// central queue has no notion of eligibility (see module docs).
pub fn fifo(inst: &Instance, policy: TieBreak) -> Schedule {
    fifo_stream(InstanceStream::new(inst), policy, &mut NoopRecorder)
}

/// Runs FIFO over an arbitrary unrestricted [`ArrivalStream`] — the
/// canonical entry point. The central-queue event loop
/// ([`engine::run_fifo`]) pulls arrivals lazily, so memory is bounded by
/// the machines plus the live queue, never the stream length. Unlike
/// the immediate-dispatch trace, the FIFO event loop knows transition
/// times exactly, so `rec` sees *actual* busy/idle transitions: a
/// machine goes busy when it pulls a task and idle at every completion
/// (even when it re-fills in the same instant — the pair shares a
/// timestamp and still alternates). Task sequence numbers are arrival
/// ordinals (instance `TaskId`s when replaying an instance).
///
/// # Panics
/// Panics if any arrival carries a real processing-set restriction —
/// FIFO's central queue has no notion of eligibility (see module docs).
pub fn fifo_stream<S: ArrivalStream, R: Recorder>(
    stream: S,
    policy: TieBreak,
    rec: &mut R,
) -> Schedule {
    // The central queue dispatches in arrival order, so assignments
    // reach the sink in task order and collect directly.
    let mut assignments = Vec::with_capacity(stream.len_hint().unwrap_or(0));
    engine::run_fifo(stream, policy, rec, &mut assignments);
    Schedule::new(assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eft::eft;
    use flowsched_core::instance::InstanceBuilder;
    use flowsched_core::machine::MachineId;
    use flowsched_core::procset::ProcSet;
    use flowsched_core::task::{Task, TaskId};

    #[test]
    fn single_machine_fifo_is_release_order() {
        let mut b = InstanceBuilder::new(1);
        b.push_unrestricted(Task::new(0.0, 2.0));
        b.push_unrestricted(Task::new(0.5, 1.0));
        b.push_unrestricted(Task::new(1.0, 1.0));
        let inst = b.build().unwrap();
        let s = fifo(&inst, TieBreak::Min);
        s.validate(&inst).unwrap();
        assert_eq!(s.start(TaskId(0)), 0.0);
        assert_eq!(s.start(TaskId(1)), 2.0);
        assert_eq!(s.start(TaskId(2)), 3.0);
    }

    #[test]
    fn tasks_wait_in_central_queue() {
        // 3 simultaneous tasks, 2 machines: third waits for first finisher.
        let mut b = InstanceBuilder::new(2);
        b.push_unrestricted(Task::new(0.0, 2.0));
        b.push_unrestricted(Task::new(0.0, 1.0));
        b.push_unrestricted(Task::new(0.0, 1.0));
        let inst = b.build().unwrap();
        let s = fifo(&inst, TieBreak::Min);
        s.validate(&inst).unwrap();
        // Task 2 (p=1) finishes first at t=1 on M2; task 3 starts there.
        assert_eq!(s.start(TaskId(2)), 1.0);
        assert_eq!(s.machine(TaskId(2)), MachineId(1));
        assert_eq!(s.fmax(&inst), 2.0);
    }

    #[test]
    fn proposition_1_fifo_equals_eft_on_deterministic_policies() {
        // Structure-free instances: FIFO and EFT must produce identical
        // schedules under the same tie-break (Proposition 1).
        for seed_shift in 0..5u64 {
            let mut b = InstanceBuilder::new(4);
            // A deterministic but irregular stream of tasks.
            for i in 0..60u64 {
                let x = flowsched_stats::rng::splitmix64(i + 1000 * seed_shift);
                let release = (x % 40) as f64 * 0.5;
                let ptime = 0.5 + ((x >> 8) % 8) as f64 * 0.25;
                b.push_unrestricted(Task::new(release, ptime));
            }
            let inst = b.build().unwrap();
            for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 42 }] {
                let sf = fifo(&inst, tb);
                let se = eft(&inst, tb);
                sf.validate(&inst).unwrap();
                se.validate(&inst).unwrap();
                assert_eq!(
                    sf, se,
                    "Proposition 1 violated for {tb} (shift {seed_shift})"
                );
            }
        }
    }

    #[test]
    fn fifo_never_idles_with_waiting_work() {
        let mut b = InstanceBuilder::new(2);
        for i in 0..10 {
            b.push_unrestricted(Task::new(i as f64 * 0.1, 3.0));
        }
        let inst = b.build().unwrap();
        let s = fifo(&inst, TieBreak::Min);
        s.validate(&inst).unwrap();
        // 10 tasks × 3.0 on 2 machines: last completion ≥ 15; and no
        // machine should idle once the queue is saturated, so makespan is
        // close to the work bound.
        assert!(s.makespan(&inst) <= 16.0);
    }

    #[test]
    #[should_panic(expected = "unrestricted")]
    fn restricted_instance_rejected() {
        let mut b = InstanceBuilder::new(2);
        b.push_unit(0.0, ProcSet::singleton(0));
        let inst = b.build().unwrap();
        let _ = fifo(&inst, TieBreak::Min);
    }

    #[test]
    fn recorded_fifo_matches_plain_fifo_and_counts_real_transitions() {
        use flowsched_obs::{Counter, MemoryRecorder};
        let mut b = InstanceBuilder::new(2);
        b.push_unrestricted(Task::new(0.0, 2.0));
        b.push_unrestricted(Task::new(0.0, 1.0));
        b.push_unrestricted(Task::new(0.0, 1.0));
        let inst = b.build().unwrap();
        let mut rec = MemoryRecorder::with_defaults(2);
        let recorded = fifo_stream(InstanceStream::new(&inst), TieBreak::Min, &mut rec);
        assert_eq!(recorded, fifo(&inst, TieBreak::Min));
        assert_eq!(rec.counters().get(Counter::TasksArrived), 3);
        assert_eq!(rec.counters().get(Counter::TasksDispatched), 3);
        // FIFO emits every actual completion as a busy→idle transition.
        assert_eq!(rec.counters().get(Counter::MachineIdleTransitions), 3);
        assert_eq!(rec.counters().get(Counter::MachineBusyTransitions), 3);
        assert_eq!(rec.makespan_seen(), 2.0);
    }

    #[test]
    fn empty_instance_gives_empty_schedule() {
        let inst = Instance::unrestricted(3, vec![]).unwrap();
        let s = fifo(&inst, TieBreak::Min);
        assert!(s.is_empty());
    }
}

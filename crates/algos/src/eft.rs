//! EFT — Earliest Finish Time scheduling (paper Algorithm 2).
//!
//! EFT is an *immediate dispatch* algorithm: each task is irrevocably
//! assigned to a machine the instant it is released. The chosen machine
//! is one that can finish the task the earliest; among machines tied for
//! the earliest start (`U'ᵢ` of Equation (2)), a [`TieBreak`] policy
//! decides. With identical machines and no restrictions this is
//! equivalent to FIFO (Proposition 1) and therefore `(3 − 2/m)`-
//! competitive; with size-`k` disjoint processing sets it is
//! `(3 − 2/k)`-competitive (Corollary 1); with size-`k` overlapping
//! intervals its competitive ratio degrades to at least `m − k + 1`
//! (Theorems 8–10).

use flowsched_core::compact::ProcSetRef;
use flowsched_core::instance::Instance;
use flowsched_core::machine::MachineId;
use flowsched_core::procset::ProcSet;
use flowsched_core::schedule::{Assignment, Schedule};
use flowsched_core::stream::{ArrivalStream, InstanceStream};
use flowsched_core::task::Task;
use flowsched_core::time::Time;
use flowsched_obs::{NoopRecorder, Recorder};

use crate::engine::Run;
use crate::indexed::DispatchKernel;
use crate::registry::PolicySpec;
use crate::soa::{scan_ties_simd, CompletionBank, ScanImpl};
use crate::tiebreak::{Breaker, TieBreak};

/// Equation (2) in one pass: computes the tie set
/// `U'ᵢ = {j ∈ Mᵢ : C_j ≤ t'min}` with `t'min = max(rᵢ, min_j C_j)` while
/// folding the minimum, instead of a min-fold followed by a collection
/// scan. The pass starts in argmin mode (all completions seen so far
/// exceed the release, so the tie set is the running argmin set) and
/// switches permanently to release mode the first time some
/// `C_j ≤ rᵢ` — from then on `t'min = rᵢ` and every machine with
/// `C_j ≤ rᵢ` qualifies. Members must arrive in increasing machine
/// order; `ties` comes back in that same order, as `Breaker::pick`
/// requires.
///
/// This is the scalar oracle behind [`ScanImpl::Scalar`]; the default
/// [`ScanImpl::Simd`] path runs the two-pass vectorized
/// [`scan_ties_simd`] over the padded SoA bank, which produces the
/// bitwise-identical tie set (proof sketch in the [`soa`](crate::soa)
/// module docs, pinned by `tests/simd_scan.rs`).
pub fn scan_ties(
    completions: &[Time],
    members: impl Iterator<Item = usize>,
    release: Time,
    ties: &mut Vec<usize>,
) {
    ties.clear();
    let mut released = false;
    let mut min_c = f64::INFINITY;
    for j in members {
        let c = completions[j];
        if released {
            if c <= release {
                ties.push(j);
            }
        } else if c <= release {
            released = true;
            ties.clear();
            ties.push(j);
        } else if c < min_c {
            min_c = c;
            ties.clear();
            ties.push(j);
        } else if c == min_c {
            ties.push(j);
        }
    }
}

/// Incremental EFT state: per-machine completion times plus the tie-break
/// policy. Dispatch tasks in release order; the state is what a real
/// immediate-dispatch load balancer would keep.
#[derive(Debug)]
pub struct EftState {
    completions: CompletionBank,
    breaker: Breaker,
    /// Which tie-scan implementation runs (bitwise-equivalent choices).
    scan: ScanImpl,
    /// Scratch buffer for the tie set, reused across dispatches.
    ties: Vec<usize>,
}

impl EftState {
    /// Fresh state for `m` idle machines, on the default (SIMD) scan.
    pub fn new(m: usize, policy: TieBreak) -> Self {
        EftState::with_scan(m, policy, ScanImpl::default())
    }

    /// Fresh state with the tie-scan implementation forced — `Scalar`
    /// keeps the one-pass member scan reachable as the oracle.
    pub fn with_scan(m: usize, policy: TieBreak, scan: ScanImpl) -> Self {
        assert!(m > 0, "need at least one machine");
        EftState {
            completions: CompletionBank::new(m),
            breaker: policy.breaker(),
            scan,
            ties: Vec::new(),
        }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.completions.len()
    }

    /// Current completion time `C_{j,i−1}` of each machine.
    pub fn completions(&self) -> &[Time] {
        self.completions.values()
    }

    /// Decomposes the state into the parts a mid-stream kernel switch
    /// must carry over: the completion bank and the breaker (with its
    /// RNG state — rebuilt breakers would replay draws and break
    /// bitwise transparency).
    pub(crate) fn into_parts(self) -> (CompletionBank, Breaker) {
        (self.completions, self.breaker)
    }

    /// Rebuilds a state from carried-over parts (inverse of
    /// [`into_parts`](Self::into_parts)).
    pub(crate) fn from_parts(
        completions: CompletionBank,
        breaker: Breaker,
        scan: ScanImpl,
    ) -> Self {
        EftState {
            completions,
            breaker,
            scan,
            ties: Vec::new(),
        }
    }

    /// Dispatches one task (Equation (2)): computes
    /// `t'min = max(rᵢ, min_{j∈Mᵢ} C_j)`, collects the tie set
    /// `U'ᵢ = {j ∈ Mᵢ : C_j ≤ t'min}`, picks a machine, and commits.
    ///
    /// Tasks must be dispatched in non-decreasing release order for the
    /// schedule to be meaningful (this mirrors the online arrival order).
    ///
    /// # Panics
    /// Panics if the processing set is empty or references a machine out
    /// of range.
    pub fn dispatch(&mut self, task: Task, set: &ProcSet) -> Assignment {
        self.dispatch_ref(task, set.view())
    }

    /// [`dispatch`](Self::dispatch) over a compact [`ProcSetRef`] view —
    /// what the streaming engine feeds. Identical semantics; the view's
    /// ascending member iterator replaces the slice walk.
    ///
    /// # Panics
    /// Panics if the processing set is empty or references a machine out
    /// of range.
    pub fn dispatch_ref(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        assert!(!set.is_empty(), "task has an empty processing set");
        // The padded bank holds +∞ past the live machines, which would
        // silently swallow out-of-range members under min — reject them
        // up front instead (matching the indexed kernel's guard).
        assert!(
            set.max().is_some_and(|j| j < self.completions.len()),
            "processing set references a machine out of range"
        );
        match self.scan {
            ScanImpl::Simd => {
                scan_ties_simd(self.completions.padded(), set, task.release, &mut self.ties)
            }
            ScanImpl::Scalar => scan_ties(
                self.completions.values(),
                set.iter(),
                task.release,
                &mut self.ties,
            ),
        }
        let u = self.breaker.pick(&self.ties);
        let start = task.release.max(self.completions.get(u));
        self.completions.set(u, start + task.ptime);
        Assignment::new(MachineId(u), start)
    }

    /// The machines' waiting work at time `t` (`w_t` when sampled just
    /// before the next batch): `max(0, C_j − t)` per machine.
    pub fn backlog_at(&self, t: Time) -> Vec<Time> {
        let mut out = Vec::with_capacity(self.completions.len());
        self.backlog_into(t, &mut out);
        out
    }

    /// [`backlog_at`](Self::backlog_at) into a caller-provided buffer
    /// (cleared first). Trace loops that sample the backlog repeatedly
    /// keep one buffer instead of allocating a fresh `Vec` per sample.
    pub fn backlog_into(&self, t: Time, out: &mut Vec<Time>) {
        out.clear();
        out.extend(self.completions.values().iter().map(|&c| (c - t).max(0.0)));
    }

    /// Signed slack `t − C_j` per machine into a caller-provided buffer
    /// (cleared first): positive means the machine has been idle since
    /// `C_j`, negative means `−slack` units of backlog remain. The
    /// allocation-free companion of [`backlog_into`](Self::backlog_into)
    /// for trace loops that need the idle side too.
    pub fn slack_into(&self, t: Time, out: &mut Vec<Time>) {
        out.clear();
        out.extend(self.completions.values().iter().map(|&c| t - c));
    }
}

/// Abstraction over immediate-dispatch online schedulers: a task arrives,
/// an assignment is irrevocably returned. The paper's adaptive adversaries
/// (Theorems 3–5, 7, 10) are written against this trait so they can drive
/// any immediate-dispatch algorithm, not just EFT.
pub trait ImmediateDispatcher {
    /// Number of machines.
    fn machine_count(&self) -> usize;
    /// Irrevocably dispatches one released task.
    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment;
    /// Current completion time of each machine under the commitments made
    /// so far (what an adaptive adversary may observe).
    fn machine_completions(&self) -> &[Time];
    /// Decision counters for index-backed kernels
    /// ([`KernelStats`](crate::indexed::KernelStats)); `None` for
    /// dispatchers with no index. The engine flushes `Some` stats into
    /// the recorder's kernel counters at the end of sequential runs.
    #[inline(always)]
    fn kernel_stats(&self) -> Option<crate::indexed::KernelStats> {
        None
    }
}

impl ImmediateDispatcher for EftState {
    fn machine_count(&self) -> usize {
        self.machines()
    }

    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        self.dispatch_ref(task, set)
    }

    fn machine_completions(&self) -> &[Time] {
        self.completions()
    }
}

/// Runs EFT over a complete instance, returning the schedule.
///
/// ```
/// use flowsched_algos::{TieBreak, eft};
/// use flowsched_core::prelude::*;
///
/// let mut b = InstanceBuilder::new(2);
/// b.push_unit(0.0, ProcSet::full(2));
/// b.push_unit(0.0, ProcSet::full(2));
/// b.push_unit(0.0, ProcSet::singleton(0)); // must queue behind a task on M1
/// let inst = b.build().unwrap();
///
/// let schedule = eft(&inst, TieBreak::Min);
/// schedule.validate(&inst).unwrap();
/// assert_eq!(schedule.fmax(&inst), 2.0);
/// ```
pub fn eft(inst: &Instance, policy: TieBreak) -> Schedule {
    eft_stream(InstanceStream::new(inst), policy, &mut NoopRecorder)
}

/// Runs EFT over an arbitrary [`ArrivalStream`] on the automatic
/// kernel: the shorthand for a sequential, fault-free [`Run`] of
/// [`PolicySpec::eft`], kept because most tests, bins and experiments
/// run plain EFT this way. The engine pulls arrivals lazily, so memory
/// stays O(machines) regardless of stream length, and `rec` sees
/// arrivals, dispatches, and machine transitions for the whole run
/// (with [`NoopRecorder`] the hooks compile away). Feeding an
/// [`InstanceStream`] reproduces the batch [`eft`] schedule exactly.
pub fn eft_stream<S: ArrivalStream, R: Recorder>(
    stream: S,
    policy: TieBreak,
    rec: &mut R,
) -> Schedule {
    Run::new(PolicySpec::eft(policy, DispatchKernel::Auto)).schedule(stream, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_core::instance::InstanceBuilder;
    use flowsched_core::task::TaskId;

    #[test]
    fn unrestricted_tasks_balance_across_machines() {
        // 4 simultaneous unit tasks on 4 machines: one each, Fmax = 1.
        let mut b = InstanceBuilder::new(4);
        for _ in 0..4 {
            b.push_unit(0.0, ProcSet::full(4));
        }
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        s.validate(&inst).unwrap();
        assert_eq!(s.fmax(&inst), 1.0);
        let mut machines: Vec<usize> = (0..4).map(|i| s.machine(TaskId(i)).index()).collect();
        machines.sort_unstable();
        assert_eq!(machines, vec![0, 1, 2, 3]);
    }

    #[test]
    fn min_and_max_pick_opposite_ends() {
        let mut b = InstanceBuilder::new(3);
        b.push_unit(0.0, ProcSet::full(3));
        let inst = b.build().unwrap();
        let smin = eft(&inst, TieBreak::Min);
        let smax = eft(&inst, TieBreak::Max);
        assert_eq!(smin.machine(TaskId(0)), MachineId(0));
        assert_eq!(smax.machine(TaskId(0)), MachineId(2));
    }

    #[test]
    fn respects_processing_sets() {
        // Machine 0 is heavily loaded but the restricted task may only use
        // machine 0, so it must wait there.
        let mut b = InstanceBuilder::new(2);
        b.push(Task::new(0.0, 5.0), ProcSet::singleton(0));
        b.push(Task::new(0.0, 1.0), ProcSet::singleton(0));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        s.validate(&inst).unwrap();
        assert_eq!(s.machine(TaskId(1)), MachineId(0));
        assert_eq!(s.start(TaskId(1)), 5.0);
        assert_eq!(s.fmax(&inst), 6.0);
    }

    #[test]
    fn eft_prefers_earliest_finishing_machine() {
        // M1 busy until 3, M2 until 1; new task goes to M2.
        let mut b = InstanceBuilder::new(2);
        b.push(Task::new(0.0, 3.0), ProcSet::singleton(0));
        b.push(Task::new(0.0, 1.0), ProcSet::singleton(1));
        b.push(Task::new(0.5, 1.0), ProcSet::full(2));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        assert_eq!(s.machine(TaskId(2)), MachineId(1));
        assert_eq!(s.start(TaskId(2)), 1.0);
    }

    #[test]
    fn tie_set_requires_c_le_tmin() {
        // M1 free at 2, M2 free at 0; task released at 2: both are in the
        // tie set (C_j ≤ 2) → Min picks M1.
        let mut b = InstanceBuilder::new(2);
        b.push(Task::new(0.0, 2.0), ProcSet::singleton(0));
        b.push(Task::new(2.0, 1.0), ProcSet::full(2));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        assert_eq!(s.machine(TaskId(1)), MachineId(0));
        assert_eq!(s.start(TaskId(1)), 2.0);
    }

    #[test]
    fn immediate_dispatch_starts_at_release_when_idle() {
        let mut b = InstanceBuilder::new(3);
        b.push(Task::new(1.5, 2.0), ProcSet::full(3));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Max);
        assert_eq!(s.start(TaskId(0)), 1.5);
    }

    #[test]
    fn backlog_into_reuses_buffer_and_matches_backlog_at() {
        let mut st = EftState::new(3, TieBreak::Min);
        st.dispatch(Task::new(0.0, 2.0), &ProcSet::full(3));
        st.dispatch(Task::new(0.0, 1.0), &ProcSet::full(3));
        let mut buf = vec![99.0; 7]; // stale contents must be cleared
        for t in [0.0, 0.5, 1.5, 10.0] {
            st.backlog_into(t, &mut buf);
            assert_eq!(buf, st.backlog_at(t), "t = {t}");
        }
    }

    #[test]
    fn slack_into_reports_signed_idle_and_backlog() {
        let mut st = EftState::new(2, TieBreak::Min);
        st.dispatch(Task::new(0.0, 3.0), &ProcSet::full(2));
        st.dispatch(Task::new(0.0, 1.0), &ProcSet::full(2));
        let mut buf = vec![42.0; 5]; // stale contents must be cleared
        st.slack_into(2.0, &mut buf);
        assert_eq!(buf, vec![-1.0, 1.0]);
        st.slack_into(0.0, &mut buf);
        assert_eq!(buf, vec![-3.0, -1.0]);
    }

    #[test]
    fn scalar_scan_matches_default_simd_scan() {
        let mut b = InstanceBuilder::new(6);
        for i in 0..60 {
            b.push_unit(i as f64 * 0.3, ProcSet::interval(i % 4, (i % 4) + 2));
        }
        let inst = b.build().unwrap();
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 5 }] {
            let mut simd = EftState::with_scan(6, tb, ScanImpl::Simd);
            let mut scalar = EftState::with_scan(6, tb, ScanImpl::Scalar);
            for (_, task, set) in inst.iter() {
                assert_eq!(
                    simd.dispatch(task, set),
                    scalar.dispatch(task, set),
                    "tb {tb:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dispatch_rejects_out_of_range_sets() {
        let mut st = EftState::new(2, TieBreak::Min);
        st.dispatch_ref(Task::new(0.0, 1.0), ProcSetRef::interval(1, 2));
    }

    #[test]
    fn state_backlog_reports_waiting_work() {
        let mut st = EftState::new(2, TieBreak::Min);
        st.dispatch(Task::new(0.0, 3.0), &ProcSet::full(2));
        st.dispatch(Task::new(0.0, 1.0), &ProcSet::full(2));
        assert_eq!(st.backlog_at(0.5), vec![2.5, 0.5]);
        assert_eq!(st.backlog_at(10.0), vec![0.0, 0.0]);
    }

    #[test]
    fn rand_policy_produces_valid_schedules() {
        let mut b = InstanceBuilder::new(4);
        for i in 0..40 {
            b.push_unit(i as f64 * 0.25, ProcSet::interval(i % 3, (i % 3) + 1));
        }
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Rand { seed: 11 });
        s.validate(&inst).unwrap();
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut b = InstanceBuilder::new(5);
        for i in 0..30 {
            b.push_unit((i / 5) as f64, ProcSet::full(5));
        }
        let inst = b.build().unwrap();
        let a = eft(&inst, TieBreak::Rand { seed: 4 });
        let c = eft(&inst, TieBreak::Rand { seed: 4 });
        assert_eq!(a, c);
    }

    #[test]
    fn recorded_dispatch_matches_plain_dispatch_and_traces_transitions() {
        use flowsched_obs::{Counter, Event, MemoryRecorder};
        let mut b = InstanceBuilder::new(2);
        b.push(Task::new(0.0, 2.0), ProcSet::singleton(0)); // M1 busy [0,2)
        b.push(Task::new(3.0, 1.0), ProcSet::singleton(0)); // idle gap [2,3)
        b.push(Task::new(4.0, 1.0), ProcSet::singleton(0)); // contiguous at 4
        let inst = b.build().unwrap();
        let mut rec = MemoryRecorder::with_defaults(2);
        let recorded = eft_stream(InstanceStream::new(&inst), TieBreak::Min, &mut rec);
        assert_eq!(
            recorded,
            eft(&inst, TieBreak::Min),
            "recording must not alter schedules"
        );
        assert_eq!(rec.counters().get(Counter::TasksDispatched), 3);
        // M1: busy@0, idle@2, busy@3 — then 4.0 == completion, contiguous.
        let transitions: Vec<Event> = rec
            .trace()
            .iter()
            .filter(|e| matches!(e, Event::MachineBusy { .. } | Event::MachineIdle { .. }))
            .copied()
            .collect();
        assert_eq!(
            transitions,
            vec![
                Event::MachineBusy {
                    machine: 0,
                    at: 0.0
                },
                Event::MachineIdle {
                    machine: 0,
                    at: 2.0
                },
                Event::MachineBusy {
                    machine: 0,
                    at: 3.0
                },
            ]
        );
        assert_eq!(rec.busy_time(), &[4.0, 0.0]);
        assert_eq!(rec.makespan_seen(), 5.0);
    }

    #[test]
    fn recording_does_not_perturb_the_rand_policy() {
        use flowsched_obs::MemoryRecorder;
        let mut b = InstanceBuilder::new(5);
        for i in 0..40 {
            b.push_unit((i / 5) as f64, ProcSet::full(5));
        }
        let inst = b.build().unwrap();
        let tb = TieBreak::Rand { seed: 9 };
        let mut rec = MemoryRecorder::with_defaults(5);
        assert_eq!(
            eft_stream(InstanceStream::new(&inst), tb, &mut rec),
            eft(&inst, tb)
        );
    }

    #[test]
    fn work_conserving_on_single_machine() {
        // On one machine EFT is FIFO and leaves no unforced idle.
        let mut b = InstanceBuilder::new(1);
        b.push(Task::new(0.0, 1.0), ProcSet::full(1));
        b.push(Task::new(0.5, 1.0), ProcSet::full(1));
        b.push(Task::new(3.0, 1.0), ProcSet::full(1));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        assert_eq!(s.start(TaskId(0)), 0.0);
        assert_eq!(s.start(TaskId(1)), 1.0);
        assert_eq!(s.start(TaskId(2)), 3.0); // idle 2→3 is forced
    }
}

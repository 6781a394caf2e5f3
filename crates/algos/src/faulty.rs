//! Availability-aware EFT dispatch and the faulty engine entry points.
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
//! [`run_immediate_faulty`] composes the halves and first replays the
//! plan's crash/recover transitions into the recorder
//! ([`Recorder::machine_crash`]/[`machine_recover`]), so outage spans
//! reach exported traces; [`run_immediate_faulty_sharded`] is the
//! cluster-parallel form, handing each shard the [`FaultPlan::slice`]
//! of its machine block and committing through the engine's shared
//! `CommitTracker` so sequential and sharded runs stay bitwise-equal
//! for deterministic tie-breaks.
//!
//! [`machine_recover`]: Recorder::machine_recover

use flowsched_core::compact::ProcSetRef;
use flowsched_core::fault::{FaultCursor, FaultEventKind, FaultPlan, FaultyStream};
use flowsched_core::machine::MachineId;
use flowsched_core::schedule::{Assignment, Schedule};
use flowsched_core::shard::ShardPlan;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::task::Task;
use flowsched_core::time::Time;
use flowsched_obs::Recorder;
use flowsched_parallel::sharded::run_sharded;

use crate::eft::ImmediateDispatcher;
use crate::engine::{run_immediate, CommitTracker, DispatchSink, ShardedConfig};
use crate::registry::{PolicyId, PolicySpec};
use crate::soa::CompletionBank;
use crate::tiebreak::{Breaker, TieBreak};

/// Replays the plan's crash/recover transitions into the recorder, so
/// outage spans appear in exported traces. The trace is record-ordered,
/// not time-ordered (the same convention projected completions already
/// use), so emitting the whole fault timeline up front is sound.
fn record_lifecycle<R: Recorder>(plan: &FaultPlan, rec: &mut R) {
    if R::ENABLED {
        for ev in plan.events() {
            match ev.kind {
                FaultEventKind::Crash => rec.machine_crash(ev.machine as u32, ev.at),
                FaultEventKind::Recover => rec.machine_recover(ev.machine as u32, ev.at),
            }
        }
    }
}

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

/// Drives availability-aware EFT over `stream` under `plan`: replays
/// the plan's lifecycle events into the recorder, wraps the stream in a
/// [`FaultyStream`], and runs the standard immediate engine with a
/// [`FaultyEftState`]. With a fault-free plan this is bitwise-identical
/// to `run_immediate` over the bare stream with a plain
/// [`EftState`](crate::eft::EftState).
///
/// # Panics
/// Panics when the stream and plan disagree on the machine count, plus
/// everything [`run_immediate`] panics on.
pub fn run_immediate_faulty<S, R, K>(
    stream: S,
    plan: &FaultPlan,
    policy: TieBreak,
    rec: &mut R,
    sink: &mut K,
) where
    S: ArrivalStream,
    R: Recorder,
    K: DispatchSink,
{
    assert_eq!(
        stream.machines(),
        plan.machines(),
        "stream and fault plan disagree on machine count"
    );
    record_lifecycle(plan, rec);
    let mut disp = PolicySpec::new(PolicyId::Eft { tie: policy }).build_faulty(plan.clone());
    run_immediate(FaultyStream::new(stream, plan), &mut disp, rec, sink);
}

/// [`run_immediate_faulty`] collecting the full [`Schedule`].
pub fn faulty_schedule<S, R>(stream: S, plan: &FaultPlan, policy: TieBreak, rec: &mut R) -> Schedule
where
    S: ArrivalStream,
    R: Recorder,
{
    let mut assignments = Vec::with_capacity(stream.len_hint().unwrap_or(0));
    run_immediate_faulty(stream, plan, policy, rec, &mut assignments);
    Schedule::new(assignments)
}

/// The cluster-parallel form of [`run_immediate_faulty`]: the faulty
/// stream runs on the calling thread (restriction and re-queueing are
/// part of routing), each shard's worker owns a [`FaultyEftState`] over
/// the [`FaultPlan::slice`] of its machine block, and commits replay in
/// global arrival order through the engine's shared commit path —
/// bitwise-identical to the sequential faulty run for `Min`/`Max`
/// tie-breaks at every thread count ([`TieBreak::for_shard`] gives
/// multi-shard `Rand` runs per-shard streams, deterministic and
/// thread-count invariant but distinct from the sequential draw order).
///
/// # Panics
/// Panics when the stream and plan disagree on the machine count, if an
/// arrival's restricted set straddles a shard boundary, or if a worker
/// dies.
pub fn run_immediate_faulty_sharded<S, R, K>(
    stream: S,
    plan: &FaultPlan,
    policy: TieBreak,
    shard_plan: &ShardPlan,
    cfg: &ShardedConfig,
    rec: &mut R,
    sink: &mut K,
) where
    S: ArrivalStream,
    R: Recorder,
    K: DispatchSink,
{
    assert_eq!(
        stream.machines(),
        plan.machines(),
        "stream and fault plan disagree on machine count"
    );
    record_lifecycle(plan, rec);
    let mut tracker = CommitTracker::new(R::ENABLED, stream.machines());
    run_sharded(
        FaultyStream::new(stream, plan),
        shard_plan,
        cfg,
        |s| {
            let local = plan.slice(shard_plan.start_of(s), shard_plan.len_of(s));
            let mut state = PolicySpec::new(PolicyId::Eft { tie: policy })
                .for_shard(s)
                .build_faulty(local);
            move |task: Task, set: ProcSetRef<'_>| state.dispatch_task(task, set)
        },
        |seq, task, a| tracker.commit(seq, task, a, rec, sink),
    );
}

/// [`run_immediate_faulty_sharded`] collecting the full [`Schedule`].
pub fn faulty_schedule_sharded<S, R>(
    stream: S,
    plan: &FaultPlan,
    policy: TieBreak,
    shard_plan: &ShardPlan,
    cfg: &ShardedConfig,
    rec: &mut R,
) -> Schedule
where
    S: ArrivalStream,
    R: Recorder,
{
    let mut assignments = Vec::with_capacity(stream.len_hint().unwrap_or(0));
    run_immediate_faulty_sharded(stream, plan, policy, shard_plan, cfg, rec, &mut assignments);
    Schedule::new(assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eft::EftState;
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

    #[test]
    fn fault_free_plan_matches_plain_eft_bitwise() {
        let inst = small_instance();
        let plan = FaultPlan::none(3);
        for policy in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 7 }] {
            let mut rec_a = MemoryRecorder::with_defaults(3);
            let faulty = faulty_schedule(InstanceStream::new(&inst), &plan, policy, &mut rec_a);
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
        let sched = faulty_schedule(
            InstanceStream::new(&inst),
            &plan,
            TieBreak::Min,
            &mut NoopRecorder,
        );
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
        let sched = faulty_schedule(
            InstanceStream::new(&inst),
            &plan,
            TieBreak::Min,
            &mut NoopRecorder,
        );
        assert_eq!(sched.assignments()[0].start, 5.0);
    }
}

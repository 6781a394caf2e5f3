//! The streaming scheduler core: two discrete-event engines over one
//! [`ArrivalStream`].
//!
//! Everything that schedules in this workspace now funnels through this
//! module. [`run_immediate`] drives any [`ImmediateDispatcher`] (EFT
//! under every tie-break, random, power-of-d-choices, round-robin) one
//! arrival at a time; [`run_fifo`] drives the paper's Algorithm 1
//! central queue. Both are generic over
//!
//! - the **stream** (`S:` [`ArrivalStream`]) — a materialized
//!   [`Instance`](flowsched_core::Instance) via
//!   [`InstanceStream`](flowsched_core::InstanceStream), or a lazy
//!   generator from `flowsched-workloads` that never holds more than one
//!   arrival;
//! - the **recorder** (`R:` [`Recorder`]) — instrumentation hooks that
//!   fold away entirely under
//!   [`NoopRecorder`](flowsched_obs::NoopRecorder);
//! - the **sink** (`K:` [`DispatchSink`]) — what to do with each
//!   committed assignment: collect a [`Schedule`], or fold it into a
//!   streaming report without materializing anything.
//!
//! This collapses the old plain/`*_recorded` twin entry points into one
//! generic function per engine, and bounds engine memory by the number
//! of machines plus the live queue — a million-task Poisson stream runs
//! in constant memory.
//!
//! The two engines stay deliberately independent — [`run_fifo`] is a
//! real event-heap simulation, not a wrapper over [`run_immediate`] —
//! so Proposition 1 (FIFO ≡ EFT on unrestricted instances) is still
//! validated by two separate mechanisms consuming the same stream.
//!
//! [`Run`] describes one immediate-dispatch run of a registry
//! [`PolicySpec`]: the policy, an optional fault plan, and an optional
//! shard plan. It has one sequential path (build the dispatcher, call
//! [`run_immediate`]) and one sharded path: when the stream's
//! processing sets partition the machines into clusters
//! ([`ArrivalStream::shard_plan`]), each cluster runs its own
//! dispatcher on a worker thread ([`run_sharded_probed`]) while the
//! calling thread routes arrivals and replays the decisions in arrival
//! order through the same `CommitTracker` commit path —
//! bitwise-identical output for deterministic tie-breaks at any thread
//! count. A fault plan enters both paths the same way. See `DESIGN.md`,
//! "Sharded engine" and "Fault injection".
//!
//! # Transition convention
//!
//! [`run_immediate`] emits the busy/idle transitions itself, from the
//! per-machine previous completion it tracks: per machine, busy/idle
//! strictly alternate starting with busy; the idle at a machine's
//! previous completion is emitted lazily once the gap's end is known;
//! the trailing idle is never emitted. Because the engine — not the
//! dispatcher — owns this, the convention holds uniformly for every
//! immediate-dispatch rule. [`run_fifo`] knows transition times
//! exactly and emits *actual* transitions: idle at every completion,
//! busy at every pull, equal timestamps allowed.
//!
//! The telemetry pipeline in `flowsched-obs` is built on this
//! convention. `task_spans` pairs each `TaskDispatch` with the
//! *projected* `TaskCompletion` the immediate engines emit at dispatch
//! time (recovering release, wait, service, and flow per task), and
//! `machine_spans` folds the alternating busy/idle transitions into
//! closed busy intervals — the strict alternation plus the
//! never-emitted trailing idle is exactly what lets it close the last
//! open span at the observed makespan. Windowed recorders
//! (`flowsched_obs::WindowedMetrics`) likewise rely on `task_dispatch`
//! carrying `(release, start, ptime)` so one hook yields arrival,
//! start, completion, queue-time, and busy-time attribution without a
//! second pass over the schedule.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use flowsched_core::compact::ProcSetRef;
use flowsched_core::fault::{FaultEventKind, FaultPlan, FaultyStream};
use flowsched_core::machine::MachineId;
use flowsched_core::schedule::{Assignment, Schedule};
use flowsched_core::shard::ShardPlan;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::task::Task;
use flowsched_core::time::Time;
use flowsched_obs::pipeline::{NoopPipeline, PipelineProbe};
use flowsched_obs::{Counter, Recorder};
use flowsched_parallel::sharded::run_sharded_probed;
pub use flowsched_parallel::sharded::ShardedConfig;

use crate::eft::ImmediateDispatcher;
use crate::indexed::KernelStats;
use crate::registry::{PolicySpec, PolicyState};
use crate::tiebreak::TieBreak;

/// Consumer of committed assignments, called in task (sequence) order.
///
/// `seq` is the arrival sequence number (== instance `TaskId` when the
/// stream replays an instance). Implementations either materialize
/// (`Vec<Assignment>`) or fold (`flowsched_sim::ReportBuilder`).
pub trait DispatchSink {
    /// One task has been irrevocably placed.
    fn accept(&mut self, seq: u64, task: Task, assignment: Assignment);
}

/// Materializing sink: collects assignments in task order.
impl DispatchSink for Vec<Assignment> {
    fn accept(&mut self, seq: u64, _task: Task, assignment: Assignment) {
        debug_assert_eq!(
            self.len() as u64,
            seq,
            "assignments arrive in sequence order"
        );
        self.push(assignment);
    }
}

/// Discarding sink, for runs measured purely through a [`Recorder`] or
/// through dispatcher state inspected afterwards.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl DispatchSink for NullSink {
    fn accept(&mut self, _seq: u64, _task: Task, _assignment: Assignment) {}
}

/// The engine's commitment bookkeeping: turns each `(seq, task,
/// assignment)` into the recorder events of the module-level transition
/// convention, then hands the assignment to the sink.
///
/// This is the *single* definition of that convention — the sequential
/// [`run_immediate`] and the sharded path of [`Run`] both commit
/// through it, which is what makes their recorder traces (and
/// order-sensitive sink folds) bitwise-identical rather than merely
/// equivalent.
pub(crate) struct CommitTracker {
    /// Per-machine completion before the current dispatch — only needed
    /// to reconstruct idle gaps for the trace.
    prev_done: Vec<Time>,
}

impl CommitTracker {
    pub(crate) fn new(enabled: bool, m: usize) -> Self {
        CommitTracker {
            prev_done: if enabled { vec![0.0; m] } else { Vec::new() },
        }
    }

    #[inline]
    pub(crate) fn commit<R, K>(
        &mut self,
        seq: u64,
        task: Task,
        a: Assignment,
        rec: &mut R,
        sink: &mut K,
    ) where
        R: Recorder,
        K: DispatchSink,
    {
        if R::ENABLED {
            rec.task_arrival(seq, task.release);
            let u = a.machine.index();
            let prev = self.prev_done[u];
            if a.start > prev {
                // The gap [prev, start) was idle; a machine that never
                // ran (prev == 0) is idle implicitly, not via an event.
                if prev > 0.0 {
                    rec.machine_idle(u as u32, prev);
                }
                rec.machine_busy(u as u32, a.start);
            } else if prev == 0.0 {
                // First task of the machine, starting at t = 0.
                rec.machine_busy(u as u32, a.start);
            }
            rec.task_dispatch(seq, u as u32, task.release, a.start, task.ptime);
            self.prev_done[u] = a.start + task.ptime;
        }
        sink.accept(seq, task, a);
    }
}

/// Drives an immediate-dispatch scheduler over an arrival stream.
///
/// Pulls arrivals one at a time (asserting non-decreasing releases),
/// lets `disp` commit each task, emits the observability events for the
/// commitment, and hands the assignment to `sink`. Memory: O(m) on top
/// of whatever the stream and dispatcher hold — nothing per task.
///
/// # Panics
/// Panics if the stream and dispatcher disagree on the machine count,
/// if releases ever decrease, or if a processing set is empty or out of
/// range (propagated from the dispatcher).
pub fn run_immediate<S, D, R, K>(mut stream: S, disp: &mut D, rec: &mut R, sink: &mut K)
where
    S: ArrivalStream,
    D: ImmediateDispatcher + ?Sized,
    R: Recorder,
    K: DispatchSink,
{
    let m = stream.machines();
    assert_eq!(
        m,
        disp.machine_count(),
        "stream and dispatcher disagree on machine count"
    );
    let mut tracker = CommitTracker::new(R::ENABLED, m);
    let mut last_release = f64::NEG_INFINITY;
    let mut seq: u64 = 0;
    while let Some((task, set)) = stream.next_arrival() {
        assert!(
            task.release >= last_release,
            "arrival stream must be in non-decreasing release order \
             ({} after {last_release})",
            task.release
        );
        last_release = task.release;
        let a = disp.dispatch_task(task, set);
        tracker.commit(seq, task, a, rec, sink);
        seq += 1;
    }
    if R::ENABLED {
        flush_kernel_stats(disp.kernel_stats(), rec);
    }
}

/// Adds a run's kernel decision counters to `rec`; a run whose kernels
/// kept none (`None`) adds nothing.
fn flush_kernel_stats<R: Recorder>(stats: Option<KernelStats>, rec: &mut R) {
    if let Some(ks) = stats {
        rec.add(Counter::IndexedDescents, ks.indexed_descents);
        rec.add(Counter::ScalarFallbackScans, ks.scalar_fallback_scans);
    }
}

/// [`run_immediate`] collecting the full [`Schedule`] — the batch-shaped
/// convenience the `eft` wrappers use.
pub fn immediate_schedule<S, D, R>(stream: S, disp: &mut D, rec: &mut R) -> Schedule
where
    S: ArrivalStream,
    D: ImmediateDispatcher + ?Sized,
    R: Recorder,
{
    let mut assignments = Vec::with_capacity(stream.len_hint().unwrap_or(0));
    run_immediate(stream, disp, rec, &mut assignments);
    Schedule::new(assignments)
}

/// One immediate-dispatch run: the policy that decides Equation (2),
/// the faults it schedules around, and the shards it dispatches on.
/// [`execute`](Run::execute) has exactly two paths, and they are the
/// only code that builds dispatchers from a [`PolicySpec`].
///
/// Both paths resolve an `Auto` kernel once, against the stream's
/// structure hint
/// ([`resolve_for_stream`](crate::indexed::DispatchKernel::resolve_for_stream)),
/// before they build any dispatcher.
///
/// - **Sequential** (`shards: None`): one dispatcher for the whole
///   machine range, driven by [`run_immediate`].
/// - **Sharded** (`shards: Some`): each cluster of the [`ShardPlan`]
///   dispatches on its own worker ([`run_sharded_probed`]) with a
///   shard-local dispatcher ([`PolicySpec::for_shard`]) on the run's one
///   kernel, and the calling thread commits the decisions in arrival
///   order through the same `CommitTracker` as the sequential path.
///   Kernel counters from every shard sum into the recorder after the
///   run, as [`run_immediate`] flushes its own.
///
/// A fault plan is an input to both paths and to every policy. Its
/// machine count is checked against the stream's, its crash/recover
/// transitions are replayed into the recorder (so outage spans reach
/// exported traces), the stream is wrapped in a [`FaultyStream`], and
/// each dispatcher is built by [`PolicySpec::build_faulty`] over the
/// plan's slice of its machines ([`FaultPlan::slice`]).
///
/// **Equivalence.** For `Min`/`Max` tie-breaks (and `Rand` on a
/// single-shard plan) the sharded schedule, recorder trace and every
/// order-sensitive sink fold are bitwise-identical to the sequential
/// run's, with or without faults, at every thread count: a decision
/// reads only its own shard's completions, each shard sees its
/// sequential subsequence, and commits replay in arrival order. A
/// multi-shard `Rand` run is deterministic and thread-count invariant
/// but draws per-shard streams ([`TieBreak::for_shard`]), so it
/// differs from the sequential single-stream schedule.
///
/// # Panics
/// Panics if the stream and a plan disagree on the machine count, if an
/// arrival's set straddles a shard boundary, if releases decrease, or if
/// a worker dies.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// The dispatch policy.
    pub policy: PolicySpec,
    /// Outages, speed factors and dispatch latency to schedule around.
    pub faults: Option<&'a FaultPlan>,
    /// The machine partition and transport settings of the sharded
    /// path; `None` runs sequentially.
    pub shards: Option<(&'a ShardPlan, &'a ShardedConfig)>,
}

impl<'a> Run<'a> {
    /// A sequential, fault-free run of `policy`.
    pub fn new(policy: PolicySpec) -> Self {
        Run {
            policy,
            faults: None,
            shards: None,
        }
    }

    /// This run scheduling around `plan`'s faults.
    pub fn with_faults(self, plan: &'a FaultPlan) -> Self {
        Run {
            faults: Some(plan),
            ..self
        }
    }

    /// This run on the sharded path over `plan`.
    pub fn sharded(self, plan: &'a ShardPlan, cfg: &'a ShardedConfig) -> Self {
        Run {
            shards: Some((plan, cfg)),
            ..self
        }
    }

    /// Runs the description over `stream`, committing into `rec` and
    /// `sink` in arrival order.
    pub fn execute<S, R, K>(&self, stream: S, rec: &mut R, sink: &mut K)
    where
        S: ArrivalStream,
        R: Recorder,
        K: DispatchSink,
    {
        self.execute_probed(stream, rec, sink, NoopPipeline);
    }

    /// [`execute`](Run::execute) with a wall-clock [`PipelineProbe`]
    /// observing the sharded transport (see [`run_sharded_probed`] for
    /// the stage map). The probe never changes routing, dispatch or
    /// merge order; a sequential run has no transport, so it sees no
    /// spans.
    pub fn execute_probed<S, R, K, P>(&self, stream: S, rec: &mut R, sink: &mut K, probe: P)
    where
        S: ArrivalStream,
        R: Recorder,
        K: DispatchSink,
        P: PipelineProbe,
    {
        let Some(faults) = self.faults else {
            return self.dispatch(stream, build_policy, rec, sink, probe);
        };
        assert_eq!(
            stream.machines(),
            faults.machines(),
            "stream and fault plan disagree on machine count"
        );
        if R::ENABLED {
            // The trace is record-ordered, not time-ordered (projected
            // completions use the same convention), so the whole fault
            // timeline can go in up front.
            for ev in faults.events() {
                match ev.kind {
                    FaultEventKind::Crash => rec.machine_crash(ev.machine as u32, ev.at),
                    FaultEventKind::Recover => rec.machine_recover(ev.machine as u32, ev.at),
                }
            }
        }
        self.dispatch(
            FaultyStream::new(stream, faults),
            |spec, start, len| spec.build_faulty(faults.slice(start, len)),
            rec,
            sink,
            probe,
        );
    }

    /// [`execute`](Run::execute) collecting the full [`Schedule`].
    pub fn schedule<S, R>(&self, stream: S, rec: &mut R) -> Schedule
    where
        S: ArrivalStream,
        R: Recorder,
    {
        let mut assignments = Vec::with_capacity(stream.len_hint().unwrap_or(0));
        self.execute(stream, rec, &mut assignments);
        Schedule::new(assignments)
    }

    /// The two paths. `build(spec, start, len)` makes the dispatcher of
    /// machines `start..start + len`.
    fn dispatch<S, D, B, R, K, P>(&self, stream: S, build: B, rec: &mut R, sink: &mut K, probe: P)
    where
        S: ArrivalStream,
        D: ImmediateDispatcher + Send,
        B: Fn(PolicySpec, usize, usize) -> D,
        R: Recorder,
        K: DispatchSink,
        P: PipelineProbe,
    {
        if let Some((plan, cfg)) = self.shards {
            return sharded(stream, self.policy, plan, cfg, build, rec, sink, probe);
        }
        let spec = self
            .policy
            .with_kernel(self.policy.kernel.resolve_for_stream(&stream));
        let mut disp = build(spec, 0, stream.machines());
        run_immediate(stream, &mut disp, rec, sink);
    }
}

/// The fault-free dispatcher builder: `policy` built for `len` machines.
fn build_policy(policy: PolicySpec, _start: usize, len: usize) -> PolicyState {
    policy.build(len)
}

/// [`Run`]'s sharded path: one dispatcher per shard of `plan`, built by
/// `build` from the shard-local policy and lent to the transport,
/// commits in arrival order through the shared `CommitTracker`, and the
/// shards' kernel counters summed into `rec` after the run.
#[allow(clippy::too_many_arguments)]
fn sharded<S, D, B, R, K, P>(
    stream: S,
    policy: PolicySpec,
    plan: &ShardPlan,
    cfg: &ShardedConfig,
    build: B,
    rec: &mut R,
    sink: &mut K,
    probe: P,
) where
    S: ArrivalStream,
    D: ImmediateDispatcher + Send,
    B: Fn(PolicySpec, usize, usize) -> D,
    R: Recorder,
    K: DispatchSink,
    P: PipelineProbe,
{
    let mut tracker = CommitTracker::new(R::ENABLED, stream.machines());
    let spec = policy.with_kernel(policy.kernel.resolve_for_stream(&stream));
    let mut states: Vec<D> = (0..plan.shards())
        .map(|s| build(spec.for_shard(s), plan.start_of(s), plan.len_of(s)))
        .collect();
    let mut closures: Vec<_> = states
        .iter_mut()
        .map(|state| move |task: Task, set: ProcSetRef<'_>| state.dispatch_task(task, set))
        .collect();
    run_sharded_probed(
        stream,
        plan,
        cfg,
        &mut closures,
        |seq, task, a| tracker.commit(seq, task, a, rec, sink),
        probe,
    );
    if R::ENABLED {
        let stats = states.iter().filter_map(|state| state.kernel_stats());
        let sum = stats.reduce(|mut sum, ks| {
            sum.merge(ks);
            sum
        });
        flush_kernel_stats(sum, rec);
    }
}

/// A fault-free [`Run`] on the sharded path. A forward kept because
/// the performance ledger (`perf_ledger/`) builds against it.
pub fn run_policy_sharded<S, R, K>(
    stream: S,
    spec: &PolicySpec,
    plan: &ShardPlan,
    cfg: &ShardedConfig,
    rec: &mut R,
    sink: &mut K,
) where
    S: ArrivalStream,
    R: Recorder,
    K: DispatchSink,
{
    run_policy_sharded_probed(stream, spec, plan, cfg, rec, sink, NoopPipeline);
}

/// [`run_policy_sharded`] with a [`PipelineProbe`], as
/// [`Run::execute_probed`] runs it. A forward kept because the
/// performance ledger (`perf_ledger/`) builds against it; it enters the
/// sharded path directly, so the ledger's binary holds no fault-plan or
/// sequential code it never runs.
#[allow(clippy::too_many_arguments)]
pub fn run_policy_sharded_probed<S, R, K, P>(
    stream: S,
    spec: &PolicySpec,
    plan: &ShardPlan,
    cfg: &ShardedConfig,
    rec: &mut R,
    sink: &mut K,
    probe: P,
) where
    S: ArrivalStream,
    R: Recorder,
    K: DispatchSink,
    P: PipelineProbe,
{
    sharded(stream, *spec, plan, cfg, build_policy, rec, sink, probe);
}

/// A machine-free event in the FIFO heap, ordered by time then machine
/// index (machines freeing simultaneously pop in index order, matching
/// the tie-set convention below).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FreeEvent {
    time: Time,
    machine: usize,
}

impl Eq for FreeEvent {}

impl Ord for FreeEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are never NaN")
            .then_with(|| self.machine.cmp(&other.machine))
    }
}

impl PartialOrd for FreeEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Drives FIFO (paper Algorithm 1) over an arrival stream.
///
/// A single global FIFO queue holds released tasks; whenever machines
/// are idle, the earliest queued task is pulled by one of them (the
/// tie-break picks which idle machine runs first). The event heap holds
/// only machine-free events — arrivals are pulled lazily from the
/// stream — so memory is O(m + queued tasks): on a stream whose queue
/// stays short, arbitrarily long runs are constant-memory.
///
/// All events at one timestamp are applied before the dispatch loop
/// (machine frees in index order, then arrivals in stream order), so
/// machines freeing simultaneously form one tie set, as in the paper.
/// `rec` sees *actual* transitions: idle at every completion, busy at
/// every pull, even when both share a timestamp.
///
/// # Panics
/// Panics if any arrival carries a real processing-set restriction —
/// FIFO's central queue has no notion of eligibility — or if releases
/// ever decrease.
pub fn run_fifo<S, R, K>(mut stream: S, policy: TieBreak, rec: &mut R, sink: &mut K)
where
    S: ArrivalStream,
    R: Recorder,
    K: DispatchSink,
{
    let m = stream.machines();
    assert!(m > 0, "need at least one machine");
    let mut breaker = policy.breaker();
    let mut events: BinaryHeap<Reverse<FreeEvent>> = BinaryHeap::new();
    let mut idle: Vec<bool> = vec![true; m];
    let mut queue: VecDeque<(u64, Task)> = VecDeque::new();

    let mut next_seq: u64 = 0;
    let mut last_release = f64::NEG_INFINITY;
    let mut pull = |stream: &mut S, last_release: &mut f64| -> Option<(u64, Task)> {
        let (task, set) = stream.next_arrival()?;
        assert!(
            set.len() == m,
            "FIFO requires an unrestricted stream (P | online-ri | Fmax); \
             use EFT for processing set restrictions"
        );
        assert!(
            task.release >= *last_release,
            "arrival stream must be in non-decreasing release order \
             ({} after {last_release})",
            task.release
        );
        *last_release = task.release;
        let seq = next_seq;
        next_seq += 1;
        Some((seq, task))
    };
    let mut pending = pull(&mut stream, &mut last_release);

    loop {
        // The next timestamp with any event: a machine freeing, a task
        // arriving, or both.
        let now = match (events.peek(), &pending) {
            (None, None) => break,
            (Some(&Reverse(f)), None) => f.time,
            (None, Some((_, t))) => t.release,
            (Some(&Reverse(f)), Some((_, t))) => f.time.min(t.release),
        };
        // Apply every event at this timestamp before dispatching, so
        // that machines freeing simultaneously form one tie set (as in
        // the paper, where ties are "broken when at least 2 machines are
        // idle at the same time").
        while let Some(&Reverse(ev)) = events.peek() {
            if ev.time != now {
                break;
            }
            events.pop();
            if R::ENABLED {
                rec.machine_idle(ev.machine as u32, now);
            }
            idle[ev.machine] = true;
        }
        while let Some(&(seq, task)) = pending.as_ref() {
            if task.release != now {
                break;
            }
            if R::ENABLED {
                rec.task_arrival(seq, now);
            }
            queue.push_back((seq, task));
            pending = pull(&mut stream, &mut last_release);
        }
        // Dispatch loop: idle machines pull from the queue head.
        loop {
            if queue.is_empty() {
                break;
            }
            let idle_set: Vec<usize> = (0..m).filter(|&j| idle[j]).collect();
            if idle_set.is_empty() {
                break;
            }
            let u = breaker.pick(&idle_set);
            let (seq, task) = queue.pop_front().unwrap();
            idle[u] = false;
            if R::ENABLED {
                rec.machine_busy(u as u32, now);
                rec.task_dispatch(seq, u as u32, task.release, now, task.ptime);
            }
            events.push(Reverse(FreeEvent {
                time: now + task.ptime,
                machine: u,
            }));
            sink.accept(seq, task, Assignment::new(MachineId(u), now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eft::EftState;
    use flowsched_core::instance::InstanceBuilder;
    use flowsched_core::procset::ProcSet;
    use flowsched_core::stream::{FnStream, InstanceStream};
    use flowsched_obs::NoopRecorder;

    #[test]
    fn immediate_engine_matches_direct_state_dispatch() {
        let mut b = InstanceBuilder::new(3);
        for i in 0..30 {
            b.push_unit(
                i as f64 * 0.25,
                ProcSet::interval(i % 3, (i % 3).min(1) + 1),
            );
        }
        let inst = b.build().unwrap();
        let mut state = EftState::new(3, TieBreak::Min);
        let via_engine =
            immediate_schedule(InstanceStream::new(&inst), &mut state, &mut NoopRecorder);
        let mut direct = EftState::new(3, TieBreak::Min);
        let expected = Schedule::new(inst.iter().map(|(_, t, s)| direct.dispatch(t, s)).collect());
        assert_eq!(via_engine, expected);
    }

    #[test]
    #[should_panic(expected = "non-decreasing release order")]
    fn immediate_engine_rejects_time_travel() {
        let releases = std::cell::Cell::new(2);
        let stream = FnStream::new(2, move || {
            let left = releases.get();
            if left == 0 {
                return None;
            }
            releases.set(left - 1);
            // Second arrival releases *earlier* than the first.
            Some((Task::unit(left as f64), ProcSet::full(2)))
        });
        let mut state = EftState::new(2, TieBreak::Min);
        run_immediate(stream, &mut state, &mut NoopRecorder, &mut NullSink);
    }

    #[test]
    #[should_panic(expected = "unrestricted")]
    fn fifo_engine_rejects_restricted_arrivals() {
        let fired = std::cell::Cell::new(false);
        let stream = FnStream::new(2, move || {
            if fired.replace(true) {
                return None;
            }
            Some((Task::unit(0.0), ProcSet::singleton(0)))
        });
        run_fifo(stream, TieBreak::Min, &mut NoopRecorder, &mut NullSink);
    }

    #[test]
    fn fifo_engine_handles_empty_streams() {
        let stream = FnStream::new(3, || None);
        let s = crate::fifo::fifo_stream(stream, TieBreak::Min, &mut NoopRecorder);
        assert!(s.is_empty());
    }

    #[test]
    fn kernel_counters_flush_into_the_recorder() {
        use crate::indexed::DispatchKernel;
        use flowsched_obs::{Counter, MemoryRecorder};
        let mut b = InstanceBuilder::new(4);
        for i in 0..10 {
            b.push_unit(i as f64, ProcSet::interval(0, 3));
        }
        let inst = b.build().unwrap();
        let mut state = EftState::new(4, TieBreak::Min).with_kernel(DispatchKernel::Indexed);
        let mut rec = MemoryRecorder::with_defaults(4);
        run_immediate(
            InstanceStream::new(&inst),
            &mut state,
            &mut rec,
            &mut NullSink,
        );
        assert_eq!(rec.counters().get(Counter::IndexedDescents), 10);
        assert_eq!(rec.counters().get(Counter::ScalarFallbackScans), 0);
    }

    #[test]
    fn sharded_runs_flush_kernel_counters_from_workers() {
        use crate::indexed::DispatchKernel;
        use flowsched_obs::{Counter, MemoryRecorder};
        let m = 8;
        let mut b = InstanceBuilder::new(m);
        for i in 0..40 {
            let lo = if i % 2 == 0 { 0 } else { 4 };
            b.push_unit(i as f64 * 0.5, ProcSet::interval(lo, lo + 3));
        }
        // Then per block two explicit sets, {lo+1, lo+3} and {lo, lo+3},
        // which the member scan serves on the indexed kernel too.
        for i in 40..60 {
            let lo = if i % 2 == 0 { 0 } else { 4 };
            let first = if (i / 2) % 2 == 0 { lo + 1 } else { lo };
            b.push_unit(i as f64 * 0.5, ProcSet::new(vec![first, lo + 3]));
        }
        let inst = b.build().unwrap();
        let spec = PolicySpec::eft(TieBreak::Min, DispatchKernel::Indexed);
        let counters = |run: Run<'_>| {
            let mut rec = MemoryRecorder::with_defaults(m);
            run.execute(InstanceStream::new(&inst), &mut rec, &mut NullSink);
            [Counter::IndexedDescents, Counter::ScalarFallbackScans].map(|c| rec.counters().get(c))
        };
        let sequential = counters(Run::new(spec));
        assert_eq!(sequential, [40, 20], "descents, fallback scans");
        let plan = ShardPlan::blocks(m, 4, 16);
        assert_eq!(plan.shards(), 2);
        for threads in 1..=4 {
            // One thread runs inline, more on workers; either way the
            // shards' counters sum to the sequential engine's.
            let cfg = ShardedConfig::with_threads(threads);
            let sharded = counters(Run::new(spec).sharded(&plan, &cfg));
            assert_eq!(sharded, sequential, "threads={threads}");
        }
    }

    #[test]
    fn null_sink_runs_discard_nothing_but_still_drive_state() {
        let mut b = InstanceBuilder::new(2);
        b.push_unit(0.0, ProcSet::full(2));
        b.push_unit(0.0, ProcSet::full(2));
        let inst = b.build().unwrap();
        let mut state = EftState::new(2, TieBreak::Min);
        run_immediate(
            InstanceStream::new(&inst),
            &mut state,
            &mut NoopRecorder,
            &mut NullSink,
        );
        assert_eq!(state.completions(), &[1.0, 1.0]);
    }
}

//! Property tests for the observability layer: no-op transparency
//! (recording hooks never change a schedule), counter monotonicity,
//! histogram mass conservation, and trace-ordering invariants.

use proptest::prelude::*;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use flowsched::algos::eft::{eft, eft_stream, EftState};
use flowsched::algos::engine::{run_immediate, NullSink, Run, ShardedConfig};
use flowsched::algos::fifo::{fifo, fifo_stream};
use flowsched::algos::indexed::DispatchKernel;
use flowsched::algos::registry::PolicySpec;
use flowsched::algos::tiebreak::TieBreak;
use flowsched::core::fault::FaultEventKind;
use flowsched::core::shard::DEFAULT_MAX_SHARDS;
use flowsched::core::stream::{ArrivalStream, InstanceStream};
use flowsched::core::task::TaskId;
use flowsched::obs::{
    Counter, Event, MemoryRecorder, NoopRecorder, ObsConfig, ProbeKind, Recorder, Tee,
    WindowConfig, WindowedMetrics,
};
use flowsched::sim::driver::{simulate, simulate_with, SimConfig};
use flowsched::workloads::faults::{random_fault_plan, FaultPlanConfig};
use flowsched::workloads::random::{
    random_instance, PoissonStream, PoissonStreamConfig, RandomInstanceConfig, StructureKind,
};

fn any_structure() -> impl Strategy<Value = StructureKind> {
    prop_oneof![
        Just(StructureKind::Unrestricted),
        (1usize..=6).prop_map(StructureKind::IntervalFixed),
        (1usize..=6).prop_map(StructureKind::RingFixed),
        (1usize..=6).prop_map(StructureKind::DisjointBlocks),
        Just(StructureKind::InclusiveChain),
        Just(StructureKind::NestedLaminar),
        Just(StructureKind::General),
    ]
}

fn any_tiebreak() -> impl Strategy<Value = TieBreak> {
    prop_oneof![
        Just(TieBreak::Min),
        Just(TieBreak::Max),
        any::<u64>().prop_map(|seed| TieBreak::Rand { seed }),
    ]
}

/// A recorder big enough to retain every event of an `n`-task run (a
/// dispatch emits at most 4 events: arrival, busy/idle, dispatch,
/// completion).
fn lossless_recorder(m: usize, n: usize) -> MemoryRecorder {
    MemoryRecorder::new(&ObsConfig {
        trace_capacity: 8 * n.max(1),
        ..ObsConfig::defaults(m)
    })
}

/// Forwards every hook to a [`MemoryRecorder`] and snapshots its counter
/// bank after each one, so a test sees every counter at every step of
/// the run.
struct CounterSnapshots {
    inner: MemoryRecorder,
    snapshots: Vec<Vec<u64>>,
}

impl CounterSnapshots {
    fn snap(&mut self) {
        let counters = self.inner.counters();
        self.snapshots
            .push(Counter::ALL.iter().map(|&c| counters.get(c)).collect());
    }
}

impl Recorder for CounterSnapshots {
    fn task_arrival(&mut self, task: u64, at: f64) {
        self.inner.task_arrival(task, at);
        self.snap();
    }

    fn task_dispatch(&mut self, task: u64, machine: u32, release: f64, start: f64, ptime: f64) {
        self.inner
            .task_dispatch(task, machine, release, start, ptime);
        self.snap();
    }

    fn machine_busy(&mut self, machine: u32, at: f64) {
        self.inner.machine_busy(machine, at);
        self.snap();
    }

    fn machine_idle(&mut self, machine: u32, at: f64) {
        self.inner.machine_idle(machine, at);
        self.snap();
    }

    fn machine_crash(&mut self, machine: u32, at: f64) {
        self.inner.machine_crash(machine, at);
        self.snap();
    }

    fn machine_recover(&mut self, machine: u32, at: f64) {
        self.inner.machine_recover(machine, at);
        self.snap();
    }

    fn slo_breach(&mut self, at: f64, ratio: f64, bound: f64) {
        self.inner.slo_breach(at, ratio, bound);
        self.snap();
    }

    fn probe(&mut self, kind: ProbeKind, iterations: u64, value: f64) {
        self.inner.probe(kind, iterations, value);
        self.snap();
    }

    fn add(&mut self, c: Counter, delta: u64) {
        self.inner.add(c, delta);
        self.snap();
    }
}

fn instance_of(
    kind: StructureKind,
    n: usize,
    unit: bool,
    seed: u64,
) -> flowsched::core::instance::Instance {
    let cfg = RandomInstanceConfig {
        m: 6,
        n,
        structure: kind,
        release_span: 12,
        unit,
        ptime_steps: 6,
    };
    random_instance(&cfg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Neither the no-op recorder nor a real in-memory recorder may
    /// perturb the schedule — including under the `Rand` tie-break,
    /// where an extra RNG draw in the hook path would diverge.
    #[test]
    fn recording_never_changes_the_schedule(
        kind in any_structure(),
        tb in any_tiebreak(),
        n in 1usize..80,
        unit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let inst = instance_of(kind, n, unit, seed);
        let plain = eft(&inst, tb);
        prop_assert_eq!(
            &plain,
            &eft_stream(InstanceStream::new(&inst), tb, &mut NoopRecorder)
        );
        let mut rec = lossless_recorder(inst.machines(), inst.len());
        prop_assert_eq!(&plain, &eft_stream(InstanceStream::new(&inst), tb, &mut rec));
        let (sim_plain, report_plain) = simulate(&inst, &SimConfig::default());
        let mut rec = lossless_recorder(inst.machines(), inst.len());
        let (sim_rec, report_rec) = simulate_with(&inst, &SimConfig::default(), &mut rec);
        prop_assert_eq!(&sim_plain, &sim_rec);
        prop_assert_eq!(report_plain, report_rec);
    }

    /// FIFO's recorded engine is likewise transparent (unrestricted
    /// instances only — FIFO rejects processing-set restrictions).
    #[test]
    fn recording_never_changes_fifo(
        tb in any_tiebreak(),
        n in 1usize..60,
        seed in any::<u64>(),
    ) {
        let inst = instance_of(StructureKind::Unrestricted, n, false, seed);
        let plain = fifo(&inst, tb);
        prop_assert_eq!(
            &plain,
            &fifo_stream(InstanceStream::new(&inst), tb, &mut NoopRecorder)
        );
        let mut rec = lossless_recorder(inst.machines(), inst.len());
        prop_assert_eq!(&plain, &fifo_stream(InstanceStream::new(&inst), tb, &mut rec));
    }

    /// Counters are monotone over the run: snapshotting the bank after
    /// every recorder hook must never show any counter decreasing.
    #[test]
    fn counters_are_monotone(
        kind in any_structure(),
        tb in any_tiebreak(),
        seed in any::<u64>(),
    ) {
        let inst = instance_of(kind, 50, true, seed);
        let mut state = EftState::new(inst.machines(), tb);
        let mut rec = CounterSnapshots {
            inner: lossless_recorder(inst.machines(), inst.len()),
            snapshots: Vec::new(),
        };
        run_immediate(InstanceStream::new(&inst), &mut state, &mut rec, &mut NullSink);
        let mut prev = vec![0u64; Counter::ALL.len()];
        for snapshot in &rec.snapshots {
            for ((slot, &c), &now) in prev.iter_mut().zip(Counter::ALL.iter()).zip(snapshot) {
                prop_assert!(now >= *slot, "{} decreased: {} -> {now}", c.name(), *slot);
                *slot = now;
            }
        }
        let rec = rec.inner;
        prop_assert_eq!(rec.counters().get(Counter::TasksDispatched), inst.len() as u64);
    }

    /// Histogram mass conservation: every dispatched task contributes
    /// exactly one observation (bins + underflow + overflow).
    #[test]
    fn histogram_mass_equals_observation_count(
        kind in any_structure(),
        tb in any_tiebreak(),
        n in 1usize..80,
        unit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let inst = instance_of(kind, n, unit, seed);
        let mut rec = lossless_recorder(inst.machines(), inst.len());
        let _ = eft_stream(InstanceStream::new(&inst), tb, &mut rec);
        prop_assert_eq!(rec.flow_histogram().total(), inst.len() as u64);
        prop_assert_eq!(
            rec.counters().get(Counter::TasksDispatched),
            rec.flow_histogram().total()
        );
    }

    /// Trace-ordering invariants of the immediate-dispatch trace:
    /// dispatch events appear in task order with the schedule's exact
    /// start times; per machine, busy/idle transitions strictly
    /// alternate starting with busy, at non-decreasing timestamps.
    #[test]
    fn trace_is_consistent_with_the_schedule(
        kind in any_structure(),
        tb in any_tiebreak(),
        n in 1usize..80,
        seed in any::<u64>(),
    ) {
        let inst = instance_of(kind, n, true, seed);
        let mut rec = lossless_recorder(inst.machines(), inst.len());
        let schedule = eft_stream(InstanceStream::new(&inst), tb, &mut rec);
        prop_assert_eq!(rec.trace().dropped(), 0, "lossless ring must not drop");

        let mut next_task = 0usize;
        let mut machine_state: Vec<(Option<bool>, f64)> =
            vec![(None, 0.0); inst.machines()]; // (last transition, its time)
        for ev in rec.trace().iter() {
            match *ev {
                Event::TaskDispatch { task, machine, start, ptime } => {
                    // EFT feeds tasks in release order: seq == TaskId.
                    prop_assert_eq!(task, next_task as u64);
                    let id = TaskId(next_task);
                    prop_assert_eq!(start, schedule.start(id));
                    prop_assert_eq!(machine as usize, schedule.machine(id).index());
                    prop_assert_eq!(ptime, inst.tasks()[next_task].ptime);
                    next_task += 1;
                }
                Event::MachineBusy { machine, at } => {
                    let (last, t) = machine_state[machine as usize];
                    prop_assert!(last != Some(true), "machine {machine}: busy twice");
                    prop_assert!(at >= t, "machine {machine}: time went backwards");
                    machine_state[machine as usize] = (Some(true), at);
                }
                Event::MachineIdle { machine, at } => {
                    let (last, t) = machine_state[machine as usize];
                    prop_assert_eq!(last, Some(true), "idle without a preceding busy");
                    prop_assert!(at >= t, "machine {machine}: time went backwards");
                    machine_state[machine as usize] = (Some(false), at);
                }
                _ => {}
            }
        }
        prop_assert_eq!(next_task, inst.len());
    }

    /// Sharded telemetry is independent of worker interleaving: running
    /// a batch of simulation jobs with per-job recorder shards and
    /// merging the shards in job order yields *the same* snapshot for
    /// every thread count — counters exact, histogram (counts, sum,
    /// per-bin extremes via the quantiles they feed) exact, busy time
    /// and makespan exact, and the merged trace equal to the
    /// single-recorder sequential trace (job-order concatenation is a
    /// valid deterministic interleaving).
    #[test]
    fn sharded_telemetry_is_thread_count_invariant(
        kind in any_structure(),
        tb in any_tiebreak(),
        jobs in 1usize..9,
        threads in 2usize..5,
        unit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let instances: Vec<_> = (0..jobs)
            .map(|j| instance_of(kind, 10 + 7 * j, unit, seed ^ (j as u64) << 4))
            .collect();
        let per_job = |inst: &flowsched::core::instance::Instance| {
            let cfg = ObsConfig {
                trace_capacity: 8 * inst.len().max(1),
                ..ObsConfig::defaults(6)
            };
            let mut rec = Tee(
                MemoryRecorder::new(&cfg),
                WindowedMetrics::new(WindowConfig::defaults(6, 4.0)),
            );
            let _ = simulate_with(inst, &SimConfig { policy: tb, ..Default::default() }, &mut rec);
            (rec.0, rec.1)
        };

        // Single-threaded sharded run: jobs in order, one shard each.
        let seq: Vec<_> = instances.iter().map(per_job).collect();

        // Parallel sharded run, `par_map`'s exact work-stealing shape:
        // workers claim job indices off a shared cursor, results land
        // back in job order.
        let par: Vec<_> = {
            let mut slots: Vec<Mutex<Option<(MemoryRecorder, WindowedMetrics)>>> =
                Vec::with_capacity(jobs);
            slots.resize_with(jobs, || Mutex::new(None));
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(inst) = instances.get(i) else { break };
                        *slots[i].lock().unwrap() = Some(per_job(inst));
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.into_inner().unwrap().expect("every job ran"))
                .collect()
        };

        // Merge both shard sets in job order; a big enough target ring
        // keeps the concatenated trace lossless.
        let total: usize = instances.iter().map(|i| i.len()).sum();
        let merge_cfg = ObsConfig {
            trace_capacity: 8 * total.max(1),
            ..ObsConfig::defaults(6)
        };
        let window_cfg = WindowConfig::defaults(6, 4.0);
        let merge = |shards: Vec<(MemoryRecorder, WindowedMetrics)>| {
            let mut merged = MemoryRecorder::new(&merge_cfg);
            let mut windows = WindowedMetrics::new(window_cfg.clone());
            for (rec, wins) in &shards {
                merged.merge(rec);
                windows.merge(wins);
            }
            (merged, windows)
        };
        let (seq_rec, seq_win) = merge(seq);
        let (par_rec, par_win) = merge(par);

        // The merged snapshots are identical — bitwise, not approximately:
        // per-job shards are deterministic, so thread count cannot leak in.
        for c in Counter::ALL {
            prop_assert_eq!(seq_rec.counters().get(c), par_rec.counters().get(c), "{}", c.name());
        }
        prop_assert_eq!(seq_rec.flow_histogram().counts(), par_rec.flow_histogram().counts());
        prop_assert_eq!(seq_rec.flow_histogram().sum(), par_rec.flow_histogram().sum());
        prop_assert_eq!(seq_rec.flow_histogram().quantile(0.95), par_rec.flow_histogram().quantile(0.95));
        prop_assert_eq!(seq_rec.busy_time(), par_rec.busy_time());
        prop_assert_eq!(seq_rec.makespan_seen(), par_rec.makespan_seen());
        let seq_trace: Vec<Event> = seq_rec.trace().iter().copied().collect();
        let par_trace: Vec<Event> = par_rec.trace().iter().copied().collect();
        prop_assert_eq!(&seq_trace, &par_trace);
        for (a, b) in seq_win.windows().iter().zip(par_win.windows().iter()) {
            prop_assert_eq!(a.arrivals, b.arrivals);
            prop_assert_eq!(a.starts, b.starts);
            prop_assert_eq!(a.completions, b.completions);
            prop_assert_eq!(a.queue_time, b.queue_time);
            prop_assert_eq!(&a.busy, &b.busy);
        }
        prop_assert_eq!(seq_win.windows().len(), par_win.windows().len());

        // And the merged shards agree with one recorder that saw every
        // job sequentially: the trace is the job-order concatenation
        // (so the merge is a *valid* interleaving), counters and
        // histogram mass are conserved.
        let mut single = MemoryRecorder::new(&merge_cfg);
        for inst in &instances {
            let _ = simulate_with(inst, &SimConfig { policy: tb, ..Default::default() }, &mut single);
        }
        for c in Counter::ALL {
            prop_assert_eq!(single.counters().get(c), seq_rec.counters().get(c), "{}", c.name());
        }
        prop_assert_eq!(single.flow_histogram().counts(), seq_rec.flow_histogram().counts());
        let single_trace: Vec<Event> = single.trace().iter().copied().collect();
        prop_assert_eq!(&single_trace, &seq_trace);
    }

    /// Crash/recover lifecycle events survive the sharded-recorder
    /// merge at every thread count: each job runs the faulty sharded
    /// engine into its own recorder shard; merging the shards in job
    /// order yields the same `MachineCrashes`/`MachineRecoveries`
    /// counters (exactly the plans' event totals), the same full trace,
    /// and a crash/recover subsequence identical to the sequential
    /// faulty engine's — lifecycle replay happens before any dispatch,
    /// so worker interleaving cannot reorder or drop it.
    #[test]
    fn faulty_sharded_lifecycle_is_thread_count_invariant(
        jobs in 1usize..4,
        k_idx in 0usize..3,
        n in 1usize..60,
        rate in 0.02f64..0.4,
        tb in any_tiebreak(),
        seed in any::<u64>(),
    ) {
        let m = 6usize;
        let k = [1usize, 2, 3][k_idx]; // k | m: genuine multi-shard plans
        let fault_cfg = FaultPlanConfig {
            horizon: 30.0,
            crash_rate: rate,
            mean_downtime: 2.0,
            degraded_fraction: 0.0,
            min_speed: 0.25,
            dispatch_latency: 0.0,
        };
        let plans: Vec<_> = (0..jobs)
            .map(|j| random_fault_plan(m, &fault_cfg, seed ^ ((j as u64) << 7)))
            .collect();
        let stream_of = |j: usize| {
            let cfg = PoissonStreamConfig::unit_tasks(
                m,
                n + 5 * j,
                m as f64 / 2.0,
                StructureKind::DisjointBlocks(k),
            );
            PoissonStream::new(&cfg, seed ^ (j as u64))
        };

        // One ring big enough for every job's dispatch events plus the
        // injected lifecycle, so the merged trace stays lossless.
        let total_events: usize = plans.iter().map(|p| p.events().len()).sum();
        let total_tasks: usize = (0..jobs).map(|j| n + 5 * j).sum();
        let cfg = ObsConfig {
            trace_capacity: 8 * (total_tasks + total_events).max(1),
            ..ObsConfig::defaults(m)
        };

        let run_merged = |threads: usize| {
            let shards: Vec<MemoryRecorder> = (0..jobs)
                .map(|j| {
                    let mut rec = MemoryRecorder::new(&cfg);
                    let stream = stream_of(j);
                    let shard_plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
                    Run::new(PolicySpec::eft(tb, DispatchKernel::Auto))
                        .with_faults(&plans[j])
                        .sharded(&shard_plan, &ShardedConfig::with_threads(threads))
                        .execute(stream, &mut rec, &mut NullSink);
                    rec
                })
                .collect();
            let mut merged = MemoryRecorder::new(&cfg);
            for shard in &shards {
                merged.merge(shard);
            }
            merged
        };
        let one = run_merged(1); // inline path
        let four = run_merged(4); // threaded path

        // Lifecycle counters are exactly the plans' event totals.
        let count_kind = |kind: FaultEventKind| -> u64 {
            plans
                .iter()
                .flat_map(|p| p.events())
                .filter(|e| e.kind == kind)
                .count() as u64
        };
        let crashes = count_kind(FaultEventKind::Crash);
        let recoveries = count_kind(FaultEventKind::Recover);
        for rec in [&one, &four] {
            prop_assert_eq!(rec.trace().dropped(), 0, "lossless ring must not drop");
            prop_assert_eq!(rec.counters().get(Counter::MachineCrashes), crashes);
            prop_assert_eq!(rec.counters().get(Counter::MachineRecoveries), recoveries);
        }

        // Bitwise thread-count invariance of the merged snapshot.
        for c in Counter::ALL {
            prop_assert_eq!(one.counters().get(c), four.counters().get(c), "{}", c.name());
        }
        let trace_one: Vec<Event> = one.trace().iter().copied().collect();
        let trace_four: Vec<Event> = four.trace().iter().copied().collect();
        prop_assert_eq!(&trace_one, &trace_four);

        // The crash/recover subsequence matches the sequential faulty
        // engine job for job (the full trace already matches for
        // Min/Max; Rand shards draw per-shard RNG streams, but the
        // lifecycle replay is dispatch-independent).
        let lifecycle = |trace: &[Event]| -> Vec<Event> {
            trace
                .iter()
                .filter(|e| {
                    matches!(e, Event::MachineCrash { .. } | Event::MachineRecover { .. })
                })
                .copied()
                .collect()
        };
        let mut seq_lifecycle = Vec::new();
        for (j, plan) in plans.iter().enumerate() {
            let mut rec = MemoryRecorder::new(&cfg);
            Run::new(PolicySpec::eft(tb, DispatchKernel::Auto))
                .with_faults(plan)
                .execute(stream_of(j), &mut rec, &mut NullSink);
            let trace: Vec<Event> = rec.trace().iter().copied().collect();
            seq_lifecycle.extend(lifecycle(&trace));
        }
        prop_assert_eq!(lifecycle(&trace_one), seq_lifecycle);
    }
}

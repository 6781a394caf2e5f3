//! Fault-injection guarantees, end to end (ISSUE 7's headline suite).
//!
//! The faulty engine (`flowsched_algos::faulty` over a
//! `flowsched_core::fault::FaultPlan`) must keep every structural
//! contract of the fault-free engine while machines crash, recover, run
//! degraded, and dispatch decisions arrive late. Four properties are
//! pinned by proptest over randomly sampled fault plans:
//!
//! 1. **Schedule validity under any plan** — every task dispatches
//!    exactly once, never before its (latency-shifted) release, and no
//!    two tasks overlap on a machine.
//! 2. **No task touches a dead machine** — under every registry
//!    policy, each task's whole service window `[start, start + p)`
//!    fits inside one alive window of its machine (`earliest_fit` is a
//!    fixed point at the chosen start).
//! 3. **Determinism** — the sharded faulty engine is bitwise
//!    thread-count invariant under a fixed seed, for every tie-break
//!    and transport configuration, and for `Min`/`Max` reproduces the
//!    sequential faulty run's schedule and recorder trace.
//! 4. **Fault-free plans are free** — for every registry policy,
//!    `FaultPlan::none` reproduces the plain engine bitwise, schedule
//!    *and* recorder trace.
//!
//! On top of those, `guarantee_degradation_envelope` sweeps crash rates
//! on a disjoint-cluster workload and asserts the measured `Fmax/OPT`
//! stays inside a recorded envelope of the paper's `3 − 2/k` guarantee
//! (Corollary 1): faults inflate flow times, but boundedly so at low
//! crash rates, and the inflation is *measured and pinned* rather than
//! assumed. Flow is measured from each task's first dispatchable
//! instant (its latency-shifted, recovery-deferred release): the
//! envelope tracks scheduling-induced inflation on the work that *can*
//! run, not the unavoidable wait while every eligible machine is down —
//! which no online algorithm can beat either.
//!
//! The suite also holds the fault layer's two sweeps to the stateless
//! `FaultPlan` queries: `faulty_stream_matches_stateless_reference`
//! replays `FaultyStream` (shift, down-set restriction, deferral,
//! stretch, re-entry order) against a reference built from per-member
//! queries, bit for bit; `restrict_alive_matches_explicit_oracle` checks
//! one arrival's restricted view, shape by shape, across several words
//! of machines; and `fault_cursor_matches_stateless_queries` holds the
//! EFT core's outage cursor to the stateless `earliest_fit`. Beside
//! them sit the re-queue arrival-order regression, the report-balance
//! invariant, an out-of-order release the down-set must restart for,
//! and two NaN-release tests: under a plan such a release aborts the
//! run as it does without one, never hangs it.

use proptest::prelude::*;
use rand::Rng;

use flowsched::algos::engine::{DispatchSink, Run, ShardedConfig};
use flowsched::algos::indexed::DispatchKernel;
use flowsched::algos::offline::optimal_unit_fmax;
use flowsched::algos::registry::{PolicyId, PolicySpec};
use flowsched::algos::tiebreak::TieBreak;
use flowsched::core::compact::ProcSetRef;
use flowsched::core::fault::{FaultCursor, FaultPlan, FaultyStream};
use flowsched::core::instance::Instance;
use flowsched::core::procset::ProcSet;
use flowsched::core::schedule::Assignment;
use flowsched::core::shard::DEFAULT_MAX_SHARDS;
use flowsched::core::stream::{ArrivalStream, FnStream, InstanceStream};
use flowsched::core::task::Task;
use flowsched::obs::{Counter, MemoryRecorder, NoopRecorder};
use flowsched::sim::driver::simulate_run;
use flowsched::sim::report::ReportConfig;
use flowsched::stats::rng::derive_rng;
use flowsched::workloads::faults::{random_fault_plan, FaultPlanConfig};
use flowsched::workloads::random::{
    random_instance, PoissonStream, PoissonStreamConfig, RandomInstanceConfig, StructureKind,
};

/// Collects the dispatched `(task, assignment)` pairs in commit order —
/// the ground truth the properties below inspect (the emitted task
/// carries the latency-shifted release and speed-stretched ptime the
/// engine actually scheduled).
#[derive(Default)]
struct PairSink {
    pairs: Vec<(Task, Assignment)>,
}

impl DispatchSink for PairSink {
    fn accept(&mut self, _seq: u64, task: Task, a: Assignment) {
        self.pairs.push((task, a));
    }
}

/// Availability-aware EFT under `plan`, sequential until `.sharded`.
fn faulty(plan: &FaultPlan, tb: TieBreak) -> Run<'_> {
    Run::new(PolicySpec::eft(tb, DispatchKernel::Auto)).with_faults(plan)
}

/// Registry family `idx` (every family takes a fault plan): EFT and its
/// weight-budget and setup rules under `tie`, then the random,
/// power-of-d and round-robin rules seeded by `seed`.
fn policy_for(idx: usize, tie: TieBreak, seed: u64) -> PolicySpec {
    PolicySpec::new(match idx {
        0 => PolicyId::Eft { tie },
        1 => PolicyId::WeightedEft { tie, slack: 2.0 },
        2 => PolicyId::SetupEft {
            tie,
            cost: 0.5,
            aware: true,
        },
        3 => PolicyId::SetupEft {
            tie,
            cost: 0.5,
            aware: false,
        },
        4 => PolicyId::Random { seed },
        5 => PolicyId::Choices { d: 2, seed },
        _ => PolicyId::RoundRobin,
    })
}

/// `(batch, queue_cap)` from one task per batch over depth-1 queues up
/// to 256 × 4 and the default batch of 1024 (as in
/// `tests/sharded_equivalence.rs`): small batches send every worker
/// recycled batches even on a short stream, and at the two large sizes
/// the tasks go out in partial batches that the tail's `force_head`
/// flushes.
fn transport_config() -> impl Strategy<Value = (usize, usize)> {
    (
        prop_oneof![
            Just(1usize),
            Just(2usize),
            Just(3usize),
            Just(7usize),
            Just(256usize),
            Just(1024usize)
        ],
        prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    )
}

fn kind_for(idx: usize, k: usize) -> StructureKind {
    match idx {
        0 => StructureKind::DisjointBlocks(k),
        1 => StructureKind::RingFixed(k),
        2 => StructureKind::InclusivePrefix,
        _ => StructureKind::Unrestricted,
    }
}

fn stream_for(kind: StructureKind, m: usize, n: usize, seed: u64) -> PoissonStream {
    let cfg = PoissonStreamConfig::unit_tasks(m, n, m as f64 / 2.0, kind);
    PoissonStream::new(&cfg, seed)
}

/// A busy plan: crashes, degraded machines, and dispatch latency all on.
fn plan_for(m: usize, crash_rate: f64, latency: f64, degraded: bool, seed: u64) -> FaultPlan {
    let cfg = FaultPlanConfig {
        horizon: 50.0,
        crash_rate,
        mean_downtime: 2.0,
        degraded_fraction: if degraded { 0.5 } else { 0.0 },
        min_speed: 0.25,
        dispatch_latency: latency,
    };
    random_fault_plan(m, &cfg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: under *any* fault plan the dispatch stream is a valid
    /// schedule — nothing lost, nothing early, nothing overlapping.
    #[test]
    fn any_fault_plan_yields_a_valid_schedule(
        family in 0usize..4,
        m in 2usize..14,
        n in 1usize..150,
        k_raw in 1usize..6,
        rate in 0.0f64..0.3,
        latency_idx in 0usize..3,
        degraded in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m;
        let latency = [0.0, 0.25, 1.0][latency_idx];
        let plan = plan_for(m, rate, latency, degraded, seed);
        let mut sink = PairSink::default();
        faulty(&plan, TieBreak::Min).execute(
            stream_for(kind_for(family, k), m, n, seed),
            &mut NoopRecorder,
            &mut sink,
        );
        prop_assert_eq!(sink.pairs.len(), n, "tasks lost or duplicated");

        let mut per_machine: Vec<Vec<(f64, f64)>> = vec![Vec::new(); m];
        for (task, a) in &sink.pairs {
            prop_assert!(
                a.start >= task.release - 1e-9,
                "task released {} started {}", task.release, a.start
            );
            per_machine[a.machine.index()].push((a.start, task.ptime));
        }
        for (j, slots) in per_machine.iter_mut().enumerate() {
            slots.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in slots.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].0 + w[0].1 - 1e-9,
                    "machine {j}: [{} + {}) overlaps next start {}",
                    w[0].0, w[0].1, w[1].0
                );
            }
        }
    }

    /// Property 2: the full service window of every task avoids every
    /// outage of its machine — `earliest_fit` at the committed start is
    /// a fixed point, so the task neither starts on a dead machine nor
    /// runs across a crash.
    #[test]
    fn no_task_starts_or_runs_inside_an_outage(
        family in 0usize..4,
        m in 2usize..14,
        n in 1usize..150,
        k_raw in 1usize..6,
        rate in 0.01f64..0.4,
        (policy, seed) in (0usize..7, any::<u64>()),
    ) {
        let k = 1 + k_raw % m;
        let plan = plan_for(m, rate, 0.0, false, seed);
        let mut sink = PairSink::default();
        let spec = policy_for(policy, TieBreak::Min, seed);
        Run::new(spec).with_faults(&plan).execute(
            stream_for(kind_for(family, k), m, n, seed),
            &mut NoopRecorder,
            &mut sink,
        );
        for (task, a) in &sink.pairs {
            let j = a.machine.index();
            prop_assert!(plan.is_alive(j, a.start), "start {} on dead machine {j}", a.start);
            prop_assert_eq!(
                plan.earliest_fit(j, a.start, task.ptime),
                a.start,
                "service [{} + {}) crosses an outage of machine {j}",
                a.start, task.ptime
            );
        }
    }

    /// Property 3: the sharded faulty engine is bitwise thread-count
    /// invariant under a fixed seed — schedule and recorder trace,
    /// including `Rand`, whose per-shard RNGs are seeded by shard index,
    /// not by worker — at every thread count and transport
    /// configuration, and for `Min` and `Max` equals the sequential
    /// engine, whose single outage cursor must answer as the per-shard
    /// cursors over plan slices do.
    #[test]
    fn faulty_schedule_is_thread_count_invariant(
        m_raw in 2usize..20,
        n in 1usize..200,
        k_raw in 1usize..6,
        rate in 0.0f64..0.3,
        tb_idx in 0usize..3,
        threads in 1usize..5,
        (batch, queue_cap) in transport_config(),
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m_raw;
        let m = (m_raw / k).max(1) * k; // k | m: genuine multi-shard plans
        let tb = [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 7 }][tb_idx];
        let plan = plan_for(m, rate, 0.0, true, seed);
        let kind = StructureKind::DisjointBlocks(k);

        let run = |cfg: &ShardedConfig| {
            let stream = stream_for(kind, m, n, seed);
            let shard_plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
            let mut rec = MemoryRecorder::with_defaults(m);
            let schedule = faulty(&plan, tb).sharded(&shard_plan, cfg).schedule(stream, &mut rec);
            (schedule, rec.trace().to_vec())
        };
        let (one, one_trace) = run(&ShardedConfig::with_threads(1));
        let (many, many_trace) = run(&ShardedConfig { threads, batch, queue_cap });
        prop_assert_eq!(
            &one, &many,
            "{:?} threads={} batch={} queue_cap={}: schedules differ across thread counts",
            tb, threads, batch, queue_cap
        );
        prop_assert_eq!(
            &one_trace, &many_trace,
            "{:?} threads={} batch={} queue_cap={}: traces differ across thread counts",
            tb, threads, batch, queue_cap
        );
        if !matches!(tb, TieBreak::Rand { .. }) {
            let mut seq_rec = MemoryRecorder::with_defaults(m);
            let seq = faulty(&plan, tb).schedule(stream_for(kind, m, n, seed), &mut seq_rec);
            prop_assert_eq!(&many, &seq, "{:?}: sharded differs from sequential", tb);
            prop_assert_eq!(
                &many_trace, &seq_rec.trace().to_vec(),
                "{:?} threads={} batch={} queue_cap={}: sharded trace differs from sequential",
                tb, threads, batch, queue_cap
            );
        }
    }

    /// Property 4: a fault-free plan reproduces the plain engine bitwise
    /// — same schedule, same recorder trace, same RNG draws.
    #[test]
    fn fault_free_plan_reproduces_plain_engine_bitwise(
        family in 0usize..4,
        m in 2usize..14,
        n in 1usize..150,
        k_raw in 1usize..6,
        (tb_idx, policy) in (0usize..3, 0usize..7),
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m;
        let kind = kind_for(family, k);
        let tb = [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 11 }][tb_idx];
        let spec = policy_for(policy, tb, seed);

        let mut plain_rec = MemoryRecorder::with_defaults(m);
        let plain = Run::new(spec).schedule(stream_for(kind, m, n, seed), &mut plain_rec);

        let plan = FaultPlan::none(m);
        let mut faulty_rec = MemoryRecorder::with_defaults(m);
        let faulty = Run::new(spec)
            .with_faults(&plan)
            .schedule(stream_for(kind, m, n, seed), &mut faulty_rec);

        prop_assert_eq!(&plain, &faulty, "{} {:?}: schedules differ", spec, kind);
        prop_assert_eq!(
            plain_rec.trace().to_vec(),
            faulty_rec.trace().to_vec(),
            "{} {:?}: recorder traces differ", spec, kind
        );
    }

    /// Satellite: `FaultCursor` answers `earliest_fit` bitwise like the
    /// stateless `FaultPlan` search — on sampled plans
    /// (which include touching chains) and on hand-built `[a,b)+[b,c)`
    /// chains, at outage endpoints, inside outages and between them,
    /// with zero, tiny and positive durations and durations that end
    /// exactly at the next crash, along per-machine query times that
    /// mostly advance but sometimes step back, where the cursor must
    /// re-seek rather than answer from its stale window.
    #[test]
    fn fault_cursor_matches_stateless_queries(
        m in 1usize..6,
        hand_built in any::<bool>(),
        rate in 0.05f64..0.6,
        steps in 1usize..400,
        seed in any::<u64>(),
    ) {
        let mut rng = derive_rng(seed, 0xC5);
        let plan = if hand_built {
            // Dyadic lengths keep every endpoint exact. Each group is a
            // chain of one to three touching outages; a zero gap joins
            // it to the previous group.
            let mut plan = FaultPlan::none(m);
            for j in 0..m {
                let mut t = 0.0;
                for _ in 0..rng.random_range(0..12usize) {
                    t += [0.0, 0.5, 1.0, 3.0][rng.random_range(0..4usize)];
                    for _ in 0..rng.random_range(1..4usize) {
                        let len = [0.25, 0.5, 1.0, 2.0][rng.random_range(0..4usize)];
                        plan = plan.with_outage(j, t, t + len);
                        t += len;
                    }
                }
            }
            plan
        } else {
            plan_for(m, rate, 0.0, false, seed)
        };
        // Per machine, sorted candidate query times: every endpoint, the
        // middle of every outage and of every gap, and random instants.
        let times: Vec<Vec<f64>> = (0..m)
            .map(|j| {
                let mut ts = vec![0.0];
                let mut prev_up = 0.0;
                for o in plan.faults(j).outages() {
                    ts.extend([o.down, o.up, (o.down + o.up) / 2.0, (prev_up + o.down) / 2.0]);
                    prev_up = o.up;
                }
                ts.extend((0..8).map(|_| rng.random_range(0.0..prev_up + 5.0)));
                ts.sort_by(f64::total_cmp);
                ts
            })
            .collect();
        let mut at = vec![0usize; m];
        let mut cursor = FaultCursor::new(plan.clone());
        for _ in 0..steps {
            let j = rng.random_range(0..m);
            at[j] = if rng.random_bool(0.125) {
                rng.random_range(0..at[j] + 1)
            } else {
                (at[j] + rng.random_range(0..3usize)).min(times[j].len() - 1)
            };
            let t = times[j][at[j]];
            let outages = plan.faults(j).outages();
            let to_next_down = outages.iter().find(|o| o.down > t).map_or(1.0, |o| o.down - t);
            let d = [0.0, f64::MIN_POSITIVE, 0.5, 2.5, to_next_down][rng.random_range(0..5usize)];
            prop_assert_eq!(
                cursor.earliest_fit(j, t, d).to_bits(),
                plan.earliest_fit(j, t, d).to_bits(),
                "earliest_fit({j}, {t}, {d})"
            );
        }
    }

    /// Satellite: a one-arrival `FaultyStream` restricts every compact
    /// view shape as the explicit-set oracle does, keeps the shape when
    /// every member is alive, and its restricted view honours the O(1)
    /// `contains`/`nth`/`len` contracts. Down machines spread over up to
    /// four words of the down-set, at densities from one half to one
    /// sixteenth.
    #[test]
    fn restrict_alive_matches_explicit_oracle(
        m in 1usize..200,
        shape_idx in 0usize..5,
        a64 in any::<u64>(),
        b64 in any::<u64>(),
        down_words in proptest::collection::vec(any::<u64>(), 0..5),
        thin in 0usize..4,
        probe_dead in any::<bool>(),
    ) {
        let (a_raw, b_raw) = (a64 as usize, b64 as usize);
        // A plan where machine j is down over [0, 2) iff its bit is set
        // and j is a multiple of 2^thin.
        let mut plan = FaultPlan::none(m);
        for j in 0..m {
            let word = down_words.get(j / 64).copied().unwrap_or(0);
            if word >> (j % 64) & 1 == 1 && j % (1 << thin) == 0 {
                plan = plan.with_outage(j, 0.0, 2.0);
            }
        }
        let t = if probe_dead { 1.0 } else { 2.0 };

        let explicit: Vec<usize>;
        let view = match shape_idx {
            0 => {
                let lo = a_raw % m;
                ProcSetRef::interval(lo, lo + b_raw % (m - lo))
            }
            1 => ProcSetRef::ring(a_raw % m, 1 + b_raw % m, m),
            2 => ProcSetRef::prefix(1 + a_raw % m),
            3 => ProcSetRef::full(m),
            _ => {
                // Arbitrary sorted subset of 0..m (never empty).
                let mut v: Vec<usize> =
                    (0..m).filter(|j| (a_raw ^ (b_raw >> (j % 64))) >> (j % 17) & 1 == 1).collect();
                if v.is_empty() {
                    v.push(a_raw % m);
                }
                explicit = v;
                ProcSetRef::Explicit(&explicit)
            }
        };

        let oracle: Vec<usize> = view.iter().filter(|&j| plan.is_alive(j, t)).collect();
        let arrival = Some((Task::new(t, 1.0), view));
        let mut stream = FaultyStream::new(OneArrival { m, arrival }, &plan);
        let (task, restricted) = stream.next_arrival().expect("one arrival");
        if oracle.is_empty() {
            // Stranded: the task re-enters whole when its machines recover.
            prop_assert_eq!(task.release, 2.0);
            prop_assert_eq!(restricted, view);
            return Ok(());
        }
        prop_assert_eq!(task.release, t);
        prop_assert_eq!(restricted.len(), oracle.len());
        prop_assert_eq!(restricted.iter().collect::<Vec<_>>(), oracle.clone());
        if oracle.len() == view.len() {
            prop_assert_eq!(shape(restricted), shape(view), "an all-alive set keeps its shape");
        }
        for j in 0..m {
            prop_assert_eq!(
                restricted.contains(j),
                oracle.binary_search(&j).is_ok(),
                "contains({j}) disagrees with the oracle"
            );
        }
        for (i, &want) in oracle.iter().enumerate() {
            prop_assert_eq!(restricted.nth(i), want, "nth({i})");
        }
    }

    /// Satellite: the online report balances under every fault plan —
    /// every arrival folds into the report exactly once (no task is
    /// dropped in the deferral heap, none counted twice on re-entry).
    #[test]
    fn report_totals_balance_under_any_fault_plan(
        m in 2usize..12,
        n in 1usize..200,
        k_raw in 1usize..6,
        rate in 0.0f64..0.3,
        degraded in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m;
        let plan = plan_for(m, rate, 0.0, degraded, seed);
        let report = simulate_run(
            stream_for(StructureKind::DisjointBlocks(k), m, n, seed),
            &faulty(&plan, TieBreak::Min),
            &ReportConfig::default(),
            &mut NoopRecorder,
        );
        prop_assert_eq!(report.n_measured, n, "arrivals != completions");
        prop_assert!(report.fmax.is_finite() && report.fmax >= 0.0);
    }
}

/// Satellite regression: crash-displaced tasks re-enter in arrival
/// order — on a release tie at the recovery instant, deferred tasks go
/// first (they arrived earlier), among themselves oldest-first, and a
/// fresh arrival at the same instant goes last.
#[test]
fn displaced_tasks_reenter_in_arrival_order() {
    // Machine 0 down over [0, 10); machine 1 healthy. Tasks are tagged
    // by distinct ptimes so the emission order is observable.
    let plan = FaultPlan::none(2).with_outage(0, 0.0, 10.0);
    let tasks = vec![
        (Task::new(0.0, 1.0), ProcSet::singleton(0)), // deferred (seq 0)
        (Task::new(0.5, 5.0), ProcSet::singleton(1)), // sails through
        (Task::new(1.0, 2.0), ProcSet::singleton(0)), // deferred (seq 2)
        (Task::new(2.0, 3.0), ProcSet::singleton(0)), // deferred (seq 3)
        (Task::new(10.0, 4.0), ProcSet::singleton(0)), // fresh tie at 10
    ];
    let mut it = tasks.into_iter();
    let mut sink = PairSink::default();
    faulty(&plan, TieBreak::Min).execute(
        FnStream::new(2, move || it.next()),
        &mut NoopRecorder,
        &mut sink,
    );

    let ptimes: Vec<f64> = sink.pairs.iter().map(|(t, _)| t.ptime).collect();
    assert_eq!(
        ptimes,
        vec![5.0, 1.0, 2.0, 3.0, 4.0],
        "re-entry order is not arrival order"
    );
    // Displaced tasks surface at the recovery instant and FIFO through
    // the recovered machine: 10, 11, 13, then the fresh task at 16.
    let starts: Vec<f64> = sink.pairs[1..].iter().map(|(_, a)| a.start).collect();
    assert_eq!(starts, vec![10.0, 11.0, 13.0, 16.0]);
}

/// Lends one arrival's view as given, so every compact shape reaches
/// the stream (an `FnStream` re-derives the shape from members).
struct OneArrival<'v> {
    m: usize,
    arrival: Option<(Task, ProcSetRef<'v>)>,
}

impl ArrivalStream for OneArrival<'_> {
    fn machines(&self) -> usize {
        self.m
    }

    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        self.arrival.take()
    }
}

/// The compact shape a view leaves in: interval, ring, prefix, explicit.
fn shape(view: ProcSetRef<'_>) -> u8 {
    match view {
        ProcSetRef::Interval { .. } => 0,
        ProcSetRef::Ring { .. } => 1,
        ProcSetRef::Prefix { .. } => 2,
        ProcSetRef::Explicit(_) => 3,
    }
}

/// One arrival, owned: the task, its members and its shape.
type Arrival = (Task, Vec<usize>, u8);

fn drain<S: ArrivalStream>(mut stream: S) -> Vec<Arrival> {
    let mut out = Vec::new();
    while let Some((task, set)) = stream.next_arrival() {
        out.push((task, set.iter().collect(), shape(set)));
    }
    out
}

/// `FaultyStream` spelled out with stateless `FaultPlan` queries: shift
/// each release by the latency, restrict the set to the members alive
/// at it, park a stranded task at its set's first recovery, re-enter
/// parked tasks in (ready, arrival rank) order ahead of a fresh arrival
/// at the same instant, and stretch by the slowest alive member. A set
/// with every member alive keeps its shape; any other is explicit.
fn reference_faulty_stream(plan: &FaultPlan, inner: Vec<Arrival>) -> Vec<Arrival> {
    let mut parked: Vec<(f64, usize, Arrival)> = Vec::new();
    let mut fresh = inner.into_iter().enumerate().peekable();
    let mut out = Vec::new();
    loop {
        let fresh_release = fresh.peek().map(|(_, a)| a.0.release + plan.latency());
        let (release, rank, (task, set, kind)) = match (parked.first(), fresh_release) {
            (Some(p), Some(r)) if p.0 <= r => parked.remove(0),
            (Some(_), None) => parked.remove(0),
            (_, Some(r)) => {
                let (rank, arrival) = fresh.next().expect("peeked above");
                (r, rank, arrival)
            }
            (None, None) => return out,
        };
        let alive: Vec<usize> = set
            .iter()
            .copied()
            .filter(|&j| plan.is_alive(j, release))
            .collect();
        if alive.is_empty() {
            let ready = plan
                .next_alive_in(ProcSetRef::Explicit(&set), release)
                .expect("sets are non-empty");
            let at = parked.partition_point(|p| p.0.total_cmp(&ready).then(p.1.cmp(&rank)).is_lt());
            parked.insert(at, (ready, rank, (task, set, kind)));
            continue;
        }
        let speed = plan
            .min_speed_in(ProcSetRef::Explicit(&alive))
            .expect("alive is non-empty");
        let kind = if alive.len() == set.len() { kind } else { 3 };
        let ptime = task.ptime / speed;
        out.push((
            Task {
                release,
                ptime,
                ..task
            },
            alive,
            kind,
        ));
    }
}

/// Holds `FaultyStream` over `inner` to the stateless reference, bit
/// for bit, arrival by arrival.
fn assert_matches_reference<S: ArrivalStream>(plan: &FaultPlan, make: impl Fn() -> S, case: &str) {
    let got = drain(FaultyStream::new(make(), plan));
    let want = reference_faulty_stream(plan, drain(make()));
    assert_eq!(got.len(), want.len(), "{case}: arrival counts differ");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let bits = |t: &Task| (t.release.to_bits(), t.ptime.to_bits(), t.weight.to_bits());
        assert_eq!(
            bits(&g.0),
            bits(&w.0),
            "{case}: arrival {i}: {:?} vs {:?}",
            g.0,
            w.0
        );
        assert_eq!(g.1, w.1, "{case}: arrival {i} at {}: members", w.0.release);
        assert_eq!(g.2, w.2, "{case}: arrival {i} at {}: shape", w.0.release);
    }
}

/// `FaultyStream` emits exactly what per-member stateless queries say:
/// under sampled plans (touching chains included) over every structure
/// kind, across one to four words of machines, and under hand-built
/// dyadic plans whose releases land exactly on outage endpoints.
#[test]
fn faulty_stream_matches_stateless_reference() {
    const N: usize = 150;
    const SPAN: f64 = 30.0;
    let kinds = |m: usize, seed: u64| {
        let k = 1 + (seed as usize) % m;
        [
            StructureKind::Unrestricted,
            StructureKind::IntervalFixed(k),
            StructureKind::RingFixed((m / 2).max(1)),
            StructureKind::DisjointBlocks(k.min(16)),
            StructureKind::InclusiveChain,
            StructureKind::InclusivePrefix,
            StructureKind::NestedLaminar,
            StructureKind::General,
        ]
    };
    let mut seed = 0u64;
    for m in [1usize, 7, 63, 64, 65, 130, 200] {
        for rate in [0.01, 0.2, 1.0, 3.0] {
            for (latency, degraded) in [(0.0, false), (0.5, false), (0.25, true)] {
                for kind in kinds(m, seed) {
                    seed += 1;
                    let cfg = FaultPlanConfig {
                        horizon: SPAN,
                        crash_rate: rate,
                        mean_downtime: 2.0,
                        degraded_fraction: if degraded { 0.5 } else { 0.0 },
                        min_speed: 0.25,
                        dispatch_latency: latency,
                    };
                    let plan = random_fault_plan(m, &cfg, seed);
                    let stream = PoissonStreamConfig {
                        ptime_steps: 8,
                        unit: false,
                        ..PoissonStreamConfig::unit_tasks(m, N, N as f64 / SPAN, kind)
                    };
                    let case = format!("m={m} rate={rate} latency={latency} {kind:?} seed={seed}");
                    assert_matches_reference(&plan, || PoissonStream::new(&stream, seed), &case);
                }
            }
        }
    }

    for seed in 0..100u64 {
        let mut rng = derive_rng(seed, 0xD7);
        let m = [1usize, 2, 5, 64, 65, 130][seed as usize % 6];
        // Dyadic lengths keep every endpoint exact. Each machine's first
        // group may start at 0; a zero gap joins a group to the last.
        let mut plan = FaultPlan::none(m);
        let mut endpoints = vec![0.0];
        for j in 0..m {
            let mut t = 0.0;
            for _ in 0..rng.random_range(0..8usize) {
                t += [0.0, 0.5, 1.0, 3.0][rng.random_range(0..4usize)];
                for _ in 0..rng.random_range(1..4usize) {
                    let len = [0.25, 0.5, 1.0, 2.0][rng.random_range(0..4usize)];
                    plan = plan.with_outage(j, t, t + len);
                    endpoints.extend([t, t + len]);
                    t += len;
                }
            }
        }
        if seed % 3 == 1 {
            plan = plan.with_speed(rng.random_range(0..m), 0.5);
        }
        let latency = [0.0, 0.25][seed as usize % 2];
        plan = plan.with_latency(latency);
        // Shifted releases land on endpoints, with a few in between.
        let mut releases: Vec<f64> = (0..N)
            .map(|_| {
                let e = endpoints[rng.random_range(0..endpoints.len())];
                let e = if rng.random_bool(0.2) { e + 0.125 } else { e };
                (e - latency).max(0.0)
            })
            .collect();
        releases.sort_by(f64::total_cmp);
        let sets: Vec<ProcSet> = (0..N)
            .map(|_| {
                let (a, b) = (rng.random_range(0..m), rng.random_range(0..m));
                match rng.random_range(0..4usize) {
                    0 => ProcSet::interval(a.min(b), a.max(b)),
                    1 => ProcSet::ring_interval(a, 1 + b, m),
                    2 => ProcSet::interval(0, a),
                    _ => {
                        let v: Vec<usize> = (0..m).filter(|_| rng.random_bool(0.3)).collect();
                        if v.is_empty() {
                            ProcSet::singleton(a)
                        } else {
                            ProcSet::new(v)
                        }
                    }
                }
            })
            .collect();
        let tasks = releases
            .iter()
            .map(|&r| Task::weighted(r, 0.25 * rng.random_range(1..8u32) as f64, 1.5))
            .collect();
        let inst = Instance::new(m, tasks, sets).expect("valid instance");
        let case = format!("hand-built m={m} latency={latency} seed={seed}");
        assert_matches_reference(&plan, || InstanceStream::new(&inst), &case);
    }
}

/// A release before one the stream already swept past — possible when
/// the later task was stranded, so the engine's order check never saw
/// it — is still restricted at its own instant: the down-set restarts
/// its sweep, and the stream matches the stateless reference.
#[test]
fn out_of_order_release_is_restricted_at_its_own_time() {
    let plan = FaultPlan::none(2)
        .with_outage(0, 4.0, 6.0)
        .with_outage(1, 5.0, 6.0);
    let tasks = vec![
        (Task::new(1.0, 1.0), ProcSet::new(vec![0, 1])),
        (Task::new(5.0, 1.0), ProcSet::singleton(0)), // stranded until 6
        (Task::new(3.0, 1.0), ProcSet::new(vec![0, 1])), // both alive at 3
        (Task::new(5.5, 1.0), ProcSet::new(vec![0, 1])), // stranded until 6
    ];
    let make = || {
        let mut it = tasks.clone().into_iter();
        FnStream::new(2, move || it.next())
    };
    assert_matches_reference(&plan, make, "out of order");
    assert_eq!(drain(FaultyStream::new(make(), &plan))[1].1, vec![0, 1]);
}

/// A NaN release under a fault plan aborts as it does without one: when
/// its members were up at the last release, it passes restriction and
/// reaches the engine's release-order check.
#[test]
#[should_panic(expected = "non-decreasing release order")]
fn nan_release_with_live_members_aborts_at_the_release_order_check() {
    let plan = FaultPlan::none(2).with_outage(0, 5.0, 6.0);
    let tasks = vec![
        (Task::new(1.0, 1.0), ProcSet::singleton(0)),
        (Task::new(f64::NAN, 1.0), ProcSet::singleton(0)),
    ];
    let mut it = tasks.into_iter();
    faulty(&plan, TieBreak::Min).schedule(FnStream::new(2, move || it.next()), &mut NoopRecorder);
}

/// A NaN release whose members an earlier arrival swept down is
/// stranded, and no recovery instant lies at or after NaN: it re-enters
/// stranded and panics rather than re-deferring forever.
#[test]
#[should_panic(expected = "re-entering task is stranded again")]
fn nan_release_with_down_members_panics_instead_of_re_deferring_forever() {
    let plan = FaultPlan::none(2).with_outage(0, 1.0, 10.0);
    let tasks = vec![
        (Task::new(2.0, 1.0), ProcSet::singleton(1)),
        (Task::new(f64::NAN, 1.0), ProcSet::singleton(0)),
    ];
    let mut it = tasks.into_iter();
    faulty(&plan, TieBreak::Min).schedule(FnStream::new(2, move || it.next()), &mut NoopRecorder);
}

/// `Auto` decides once, from the stream's structure promise. Outages
/// void the promise (`FaultyStream::structure_hint` is `None`), so a
/// faulty run over hinted 16-wide disjoint blocks at m = 256 dispatches
/// on the member scan from its first arrival: the indexed kernel's
/// counters stay at zero.
#[test]
fn faulty_auto_scans_from_the_first_arrival() {
    const M: usize = 256;
    const N: usize = 2_000;
    const LOAD: f64 = 0.9;
    let cfg =
        PoissonStreamConfig::unit_tasks(M, N, LOAD * M as f64, StructureKind::DisjointBlocks(16));
    let stream = PoissonStream::new(&cfg, 0x5EED);
    assert!(stream.structure_hint().is_some(), "the source promises");
    let horizon = N as f64 / (LOAD * M as f64);
    let plan = random_fault_plan(M, &FaultPlanConfig::crashes(horizon, 0.01, 2.0), 0x5EED);
    assert!(!plan.events().is_empty(), "the plan must crash something");
    let mut rec = MemoryRecorder::with_defaults(M);
    faulty(&plan, TieBreak::Min).execute(stream, &mut rec, &mut PairSink::default());
    let counters = rec.counters();
    assert_eq!(counters.get(Counter::TasksDispatched), N as u64);
    assert_eq!(counters.get(Counter::IndexedDescents), 0);
    assert_eq!(counters.get(Counter::ScalarFallbackScans), 0);
}

/// The empirical guarantee-degradation envelope (the headline sweep).
///
/// On a disjoint-cluster unit-task workload (`m = 8`, `k = 4`), EFT is
/// `(3 − 2/k)`-competitive fault-free (Corollary 1 — on unit tasks it
/// is in fact optimal, Theorems 2 + 6). Crashes void the theorem's
/// premises, so instead of a proof we pin *measurements*: the max over
/// seeds of `Fmax / OPT(fault-free)` at each crash rate, with ~2×
/// headroom against sampling noise. The envelope constants below were
/// recorded on this workload; a regression that inflates flow times
/// under faults (lost re-queues, pessimal fit scans) trips them long
/// before correctness tests notice.
#[test]
fn guarantee_degradation_envelope() {
    const M: usize = 8;
    const K: usize = 4;
    const N: usize = 2_000;
    const SPAN: u64 = 400;
    let bound = 3.0 - 2.0 / K as f64; // 2.5

    // (crash rate per machine per unit time, envelope on max Fmax/OPT).
    // Measured on this exact seeded workload: 1.000 / 2.000 / 2.500 /
    // 9.668 — fault-free EFT is optimal here (Th. 2 + 6), and the
    // degradation grows smoothly with the crash rate.
    let envelope = [(0.0, bound), (0.01, 4.0), (0.03, 6.0), (0.1, 14.0)];

    // The fault-free instances and their exact optima, shared by every
    // rate of the sweep.
    let cases: Vec<_> = (0..5u64)
        .map(|seed| {
            let inst = random_instance(
                &RandomInstanceConfig {
                    m: M,
                    n: N,
                    structure: StructureKind::DisjointBlocks(K),
                    release_span: SPAN,
                    unit: true,
                    ptime_steps: 1,
                },
                seed,
            );
            let opt = optimal_unit_fmax(&inst);
            assert!(opt >= 1.0, "unit tasks have OPT >= 1");
            (seed, inst, opt)
        })
        .collect();

    for &(rate, ceiling) in &envelope {
        let mut worst = 0.0f64;
        for (seed, inst, opt) in &cases {
            let fcfg = FaultPlanConfig::crashes(SPAN as f64 + 20.0, rate, 2.0);
            let plan = random_fault_plan(M, &fcfg, seed ^ 0xFA17);
            let mut sink = PairSink::default();
            faulty(&plan, TieBreak::Min).execute(
                InstanceStream::new(inst),
                &mut NoopRecorder,
                &mut sink,
            );
            assert_eq!(sink.pairs.len(), N);
            let fmax = sink
                .pairs
                .iter()
                .map(|(t, a)| a.start + t.ptime - t.release)
                .fold(0.0f64, f64::max);
            worst = worst.max(fmax / opt);
        }
        eprintln!("crash rate {rate}: worst Fmax/OPT = {worst:.3} (envelope {ceiling})");
        assert!(
            worst <= ceiling + 1e-9,
            "crash rate {rate}: measured Fmax/OPT {worst} escapes the \
             recorded envelope {ceiling}"
        );
    }
}

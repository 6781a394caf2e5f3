//! The five workloads: their inputs, their set-up, and one run of each,
//! untraced or traced.
//!
//! Every workload drives the online dispatch path through the public
//! entry points of `workloads` (the Poisson stream and the fault plan),
//! `algos` (the policy registry, the faulty dispatcher, the sequential
//! and sharded engines), `obs` (recorders and exporters) and `sim` (the
//! `ReportBuilder` fold). The program under test only ever sees the
//! generated inputs; the seed stays with the ledger.

use std::hint::black_box;
use std::time::Instant;

use flowsched_algos::eft::ImmediateDispatcher;
use flowsched_algos::engine::{
    run_immediate, run_policy_sharded, run_policy_sharded_probed, ShardedConfig,
};
use flowsched_algos::faulty::FaultyEftState;
use flowsched_algos::indexed::{DispatchKernel, EftKernelState};
use flowsched_algos::registry::{PolicySpec, PolicyState};
use flowsched_algos::tiebreak::TieBreak;
use flowsched_core::fault::{FaultPlan, FaultyStream};
use flowsched_core::shard::{ShardPlan, DEFAULT_MAX_SHARDS};
use flowsched_core::stream::ArrivalStream;
use flowsched_obs::{
    breach_marks, chrome_trace_full, machine_spans, outage_spans, prometheus_text_with, task_spans,
    windows_to_csv, MemoryRecorder, NoopRecorder, PipelineMetrics, PromOptions, Recorder, Stage,
    Tee, WindowConfig, WindowedMetrics,
};
use flowsched_sim::report::{ReportBuilder, ReportConfig};
use flowsched_workloads::faults::{random_fault_plan, FaultPlanConfig};
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

use crate::sink::LedgerSink;
use crate::stats::{mean, quantile};
use crate::trace::{
    calibrate, layer_times, spans_json, TimedDispatcher, TimedRecorder, TimedSink, TimedStream,
    Tracer,
};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x5EED;
/// Seed kept out of development, for confirming a claim.
pub const HELD_OUT_SEED: u64 = 0xC0FFEE;
/// Tasks per workload under `--smoke`.
pub const SMOKE_TASKS: usize = 20_000;

const DISJOINT_M: usize = 256;
const BLOCK: usize = 16;
/// Large enough that the indexed kernel's bank and tree (about 100 KiB)
/// outgrow L1, small enough that they stay in L2: a working set that
/// spills to the shared last-level cache makes every timing follow the
/// neighbours' load on a shared host.
const PREFIX_M: usize = 1 << 12;
const LOAD: f64 = 0.9;
/// Mean processing time of the prefix workload's quarter-step ptimes.
const PREFIX_MEAN_P: f64 = 1.125;
const CRASH_RATE: f64 = 0.01;
const MEAN_DOWNTIME: f64 = 2.0;
const SHARD_THREADS: usize = 2;
const WINDOW_WIDTH: f64 = 64.0;
/// Set-up timings taken per child; the child reports the fastest.
const SETUP_SAMPLES: usize = 21;
/// A set-up faster than this is timed 64 constructions at a time.
const SETUP_BATCH_BELOW_S: f64 = 100e-6;

/// Schedule hashes at full size, pinned at the default and held-out
/// seeds. A change that alters any schedule must update these.
const PINS: &[(Workload, u64, u64)] = &[
    (Workload::DisjointM256, DEFAULT_SEED, 0xbb86_1d6b_dcbe_9e3f),
    (Workload::PrefixM4k, DEFAULT_SEED, 0x016f_24b5_5b5b_1ec7),
    (Workload::FaultyM256, DEFAULT_SEED, 0x1b1e_e338_5108_4683),
    (Workload::DisjointM256, HELD_OUT_SEED, 0x5965_b2a2_b179_dce9),
    (Workload::PrefixM4k, HELD_OUT_SEED, 0x16a1_7432_d3de_952b),
    (Workload::FaultyM256, HELD_OUT_SEED, 0x6fe5_4564_c058_a943),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DisjointM256,
    PrefixM4k,
    ObservedM256,
    FaultyM256,
    ShardedM256T2,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DisjointM256,
        Workload::PrefixM4k,
        Workload::ObservedM256,
        Workload::FaultyM256,
        Workload::ShardedM256T2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DisjointM256 => "disjoint_m256",
            Workload::PrefixM4k => "prefix_m4k",
            Workload::ObservedM256 => "observed_m256",
            Workload::FaultyM256 => "faulty_m256",
            Workload::ShardedM256T2 => "sharded_m256_t2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tasks per child process of a full-size run: 1.5 to 5 seconds of
    /// work each on a 2-core x86-64 VM, as the neighbours' load varies,
    /// and at least 1 900 batches of [`crate::sink::BATCH`] commits.
    pub fn tasks(self) -> usize {
        match self {
            Workload::DisjointM256 => 16_000_000,
            Workload::PrefixM4k => 6_000_000,
            Workload::ObservedM256 => 16_000_000,
            Workload::FaultyM256 => 2_000_000,
            Workload::ShardedM256T2 => 16_000_000,
        }
    }

    pub fn machines(self) -> usize {
        match self {
            Workload::PrefixM4k => PREFIX_M,
            _ => DISJOINT_M,
        }
    }

    fn stream_config(self, n: usize) -> PoissonStreamConfig {
        match self {
            Workload::PrefixM4k => PoissonStreamConfig {
                m: PREFIX_M,
                n,
                structure: StructureKind::InclusivePrefix,
                lambda: LOAD * PREFIX_M as f64 / PREFIX_MEAN_P,
                unit: false,
                ptime_steps: 8,
            },
            _ => PoissonStreamConfig::unit_tasks(
                DISJOINT_M,
                n,
                LOAD * DISJOINT_M as f64,
                StructureKind::DisjointBlocks(BLOCK),
            ),
        }
    }

    /// The workload whose schedule this one must reproduce: the
    /// recorder and the sharded engine see `disjoint_m256`'s inputs and
    /// may not change its decisions.
    pub fn schedule_twin(self) -> Workload {
        match self {
            Workload::ObservedM256 | Workload::ShardedM256T2 => Workload::DisjointM256,
            w => w,
        }
    }

    /// The pinned schedule hash for a full-size run at `seed`, if any.
    pub fn pinned_hash(self, seed: u64, n: usize) -> Option<u64> {
        if n != self.tasks() {
            return None;
        }
        let twin = self.schedule_twin();
        PINS.iter()
            .find(|&&(w, s, _)| w == twin && s == seed)
            .map(|&(_, _, h)| h)
    }
}

/// `eft:min` with the kernel left to `Auto`.
pub fn spec() -> PolicySpec {
    PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto)
}

/// Worker threads of the sharded workload: two, or fewer on a smaller
/// machine, so the engine never uses more threads than there are cores.
pub fn shard_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(SHARD_THREADS))
}

type Observed = Tee<MemoryRecorder, WindowedMetrics>;

/// Which engine a workload runs.
enum Engine<D> {
    Immediate(D),
    Sharded(ShardPlan),
}

/// Everything a run builds before its first arrival.
struct Setup {
    stream: PoissonStream,
    plan: Option<FaultPlan>,
    engine: Engine<Dispatcher>,
    recorder: Option<Observed>,
    report: ReportBuilder,
}

enum Dispatcher {
    Policy(PolicyState),
    Faulty(FaultyEftState),
}

/// Seconds spent building each layer's part of the set-up.
#[derive(Debug, Default, Clone, Copy)]
struct SetupParts {
    workloads: f64,
    algos: f64,
    obs: f64,
    sim: f64,
}

impl SetupParts {
    fn total(&self) -> f64 {
        self.workloads + self.algos + self.obs + self.sim
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = black_box(f());
    *acc += t0.elapsed().as_secs_f64();
    out
}

fn build(w: Workload, n: usize, seed: u64, parts: &mut SetupParts) -> Setup {
    let (stream, plan) = timed(&mut parts.workloads, || {
        let stream = PoissonStream::new(&w.stream_config(n), seed);
        let plan = (w == Workload::FaultyM256).then(|| {
            let horizon = n as f64 / (LOAD * DISJOINT_M as f64);
            let cfg = FaultPlanConfig::crashes(horizon, CRASH_RATE, MEAN_DOWNTIME);
            random_fault_plan(DISJOINT_M, &cfg, seed)
        });
        (stream, plan)
    });
    let engine = timed(&mut parts.algos, || match (w, &plan) {
        (Workload::ShardedM256T2, _) => Engine::Sharded(stream.shard_plan(DEFAULT_MAX_SHARDS)),
        (_, Some(plan)) => Engine::Immediate(Dispatcher::Faulty(spec().build_faulty(plan.clone()))),
        (_, None) => Engine::Immediate(Dispatcher::Policy(spec().build_for_stream(&stream))),
    });
    let recorder = timed(&mut parts.obs, || {
        (w == Workload::ObservedM256).then(|| {
            Tee(
                MemoryRecorder::with_defaults(DISJOINT_M),
                WindowedMetrics::new(WindowConfig::defaults(DISJOINT_M, WINDOW_WIDTH)),
            )
        })
    });
    let report = timed(&mut parts.sim, || {
        ReportBuilder::new(w.machines(), &ReportConfig::default())
    });
    Setup {
        stream,
        plan,
        engine,
        recorder,
        report,
    }
}

/// Set-up time of a child, overall and per layer.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    pub total_s: f64,
    pub workloads_us: f64,
    pub algos_us: f64,
    pub obs_us: f64,
    pub sim_us: f64,
}

/// Times [`SETUP_SAMPLES`] warm constructions of everything the program
/// builds before the first arrival — the stream, the fault plan, the
/// dispatcher or shard plan, the recorder and the `ReportBuilder` —
/// batching 64 constructions per sample when one is under 100 µs, and
/// returns the fastest sample: on a shared host a sample can lose part
/// of its length to the neighbours, never gain. The ledger's own sink is
/// not timed.
pub fn time_setup(w: Workload, n: usize, seed: u64) -> SetupTiming {
    let once = |parts: &mut SetupParts| drop(build(w, n, seed, parts));
    let mut warm = SetupParts::default();
    once(&mut warm);
    let reps = if warm.total() < SETUP_BATCH_BELOW_S {
        64
    } else {
        1
    };
    let fastest = (0..SETUP_SAMPLES)
        .map(|_| {
            let mut parts = SetupParts::default();
            for _ in 0..reps {
                once(&mut parts);
            }
            let r = reps as f64;
            SetupParts {
                workloads: parts.workloads / r,
                algos: parts.algos / r,
                obs: parts.obs / r,
                sim: parts.sim / r,
            }
        })
        .min_by(|a, b| a.total().total_cmp(&b.total()))
        .expect("at least one set-up sample");
    SetupTiming {
        total_s: fastest.total(),
        workloads_us: fastest.workloads * 1e6,
        algos_us: fastest.algos * 1e6,
        obs_us: fastest.obs * 1e6,
        sim_us: fastest.sim * 1e6,
    }
}

/// What one run produced: its checks, its hash, and its raw metrics.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub tasks: u64,
    pub hash: u64,
    /// Hash of the first `min(n, PREFIX_TASKS)` tasks.
    pub prefix_hash: u64,
    pub kernel: String,
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    /// Wall time of each batch of [`crate::sink::BATCH`] commits, in ns.
    pub batch_ns: Vec<u64>,
    /// The traced run's spans, as the span file renders them.
    pub spans_json: Option<String>,
}

impl RunOutput {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

fn kernel_name(d: &Dispatcher) -> &'static str {
    match d {
        Dispatcher::Policy(PolicyState::Eft(k)) => match **k {
            EftKernelState::Scalar(_) => "scalar",
            EftKernelState::Indexed(_) => "indexed",
            EftKernelState::Adaptive(_) => "adaptive",
        },
        Dispatcher::Policy(_) => "other",
        Dispatcher::Faulty(_) => "faulty",
    }
}

/// One run of `w` over `n` tasks from `seed`; `traced` wraps every layer
/// in its timing wrapper and adds the per-layer metrics.
pub fn run(w: Workload, n: usize, seed: u64, traced: bool) -> RunOutput {
    let Setup {
        stream,
        plan,
        engine,
        recorder,
        report,
    } = build(w, n, seed, &mut SetupParts::default());
    let mut out = RunOutput {
        kernel: match &engine {
            Engine::Immediate(d) => kernel_name(d).to_string(),
            Engine::Sharded(p) => format!("{} shards x auto", p.shards()),
        },
        ..RunOutput::default()
    };
    let sink = LedgerSink::new(report, w.machines(), n, plan.as_ref());
    let tracer = traced.then(|| Tracer::new(n));
    let tracer = tracer.as_ref();
    match (engine, recorder, &plan) {
        (Engine::Immediate(Dispatcher::Policy(d)), Some(rec), _) => {
            let rec = execute(stream, Engine::Immediate(d), rec, sink, tracer, n, &mut out);
            export(&rec, &mut out);
        }
        (Engine::Immediate(Dispatcher::Policy(d)), None, _) => {
            let engine = Engine::Immediate(d);
            execute(stream, engine, NoopRecorder, sink, tracer, n, &mut out);
        }
        (Engine::Immediate(Dispatcher::Faulty(d)), None, Some(plan)) => {
            let stream = FaultyStream::new(stream, plan);
            let engine = Engine::Immediate(d);
            execute(stream, engine, NoopRecorder, sink, tracer, n, &mut out);
        }
        (Engine::Sharded(p), None, _) => {
            let engine = Engine::<PolicyState>::Sharded(p);
            execute(stream, engine, NoopRecorder, sink, tracer, n, &mut out);
        }
        _ => unreachable!("{} pairs its engine with no such recorder", w.name()),
    }
    if out.tasks != n as u64 {
        out.errors
            .push(format!("committed {} tasks, expected {n}", out.tasks));
    }
    out
}

/// Drives one engine over the stream and folds the outcome into `out`.
/// Timed from the engine call through `ReportBuilder::finish`.
fn execute<S, D, R>(
    stream: S,
    engine: Engine<D>,
    rec: R,
    mut sink: LedgerSink<'_, ReportBuilder>,
    tracer: Option<&Tracer>,
    n: usize,
    out: &mut RunOutput,
) -> R
where
    S: ArrivalStream,
    D: ImmediateDispatcher,
    R: Recorder,
{
    let (allocs0, bytes0) = (crate::allocations(), crate::allocated_bytes());
    let t0 = Instant::now();
    let mut kernel = None;
    let (mut sink, rec) = match tracer {
        None => {
            let mut rec = rec;
            sink.start_clock();
            match engine {
                Engine::Immediate(mut d) => {
                    run_immediate(stream, &mut d, &mut rec, &mut sink);
                    kernel = d.kernel_stats();
                }
                Engine::Sharded(plan) => run_policy_sharded(
                    stream,
                    &spec(),
                    &plan,
                    &ShardedConfig::with_threads(shard_threads()),
                    &mut rec,
                    &mut sink,
                ),
            }
            (sink, rec)
        }
        Some(t) => {
            let stream = TimedStream::new(stream, t);
            let mut rec = TimedRecorder::new(rec, t);
            let mut sink = sink.wrap(|k| TimedSink::new(k, t));
            sink.start_clock();
            match engine {
                Engine::Immediate(d) => {
                    let mut d = TimedDispatcher::new(d, t);
                    run_immediate(stream, &mut d, &mut rec, &mut sink);
                    kernel = d.kernel_stats();
                    out.put("algos.allocs_per_task", d.allocs() as f64 / n as f64);
                }
                Engine::Sharded(plan) => {
                    let probe = PipelineMetrics::new();
                    run_policy_sharded_probed(
                        stream,
                        &spec(),
                        &plan,
                        &ShardedConfig::with_threads(shard_threads()),
                        &mut rec,
                        &mut sink,
                        probe.clone(),
                    );
                    pipeline_metrics(&probe, n, out);
                }
            }
            out.put("obs.events_per_task", rec.calls() as f64 / n as f64);
            (sink.wrap(TimedSink::into_inner), rec.into_inner())
        }
    };
    out.tasks = sink.count();
    out.hash = sink.hash().0;
    out.prefix_hash = sink.prefix_hash().0;
    out.errors = sink.errors();
    out.batch_ns = sink.take_batch_ns();
    let finish_t0 = Instant::now();
    let report = sink.into_inner().finish();
    let finish_s = finish_t0.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = crate::allocations() - allocs0;
    let bytes = crate::allocated_bytes() - bytes0;

    if report.looks_saturated() {
        out.errors
            .push(format!("report looks saturated (drift {})", report.drift));
    }
    let batch_us: Vec<f64> = out.batch_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    out.put("ledger.wall_s", wall_s);
    out.put("ledger.run_tasks_per_s", n as f64 / wall_s);
    out.put("ledger.batches", batch_us.len() as f64);
    out.put("ledger.batch_us_p50", quantile(&batch_us, 0.5));
    out.put("ledger.batch_us_p99", quantile(&batch_us, 0.99));
    out.put("fmax", report.fmax);
    out.put("p99_flow", report.p99);
    out.put("sim.finish_us", finish_s * 1e6);
    out.put("proc.allocs_per_task", allocs as f64 / n as f64);
    out.put("proc.alloc_bytes_per_task", bytes as f64 / n as f64);
    let ks = kernel.unwrap_or_default();
    out.put(
        "algos.indexed_descents_per_task",
        ks.indexed_descents as f64 / n as f64,
    );
    out.put(
        "algos.scalar_fallback_scans_per_task",
        ks.scalar_fallback_scans as f64 / n as f64,
    );
    out.put(
        "algos.heap_self_heals_per_task",
        ks.heap_self_heals as f64 / n as f64,
    );
    if let Some(t) = tracer {
        layer_metrics(t, out);
    }
    rec
}

/// The `observed_m256` exports: Prometheus text, the windowed CSV, the
/// snapshot JSON and the full Chrome trace of the retained events.
fn export(rec: &Observed, out: &mut RunOutput) {
    let t0 = Instant::now();
    let mem = &rec.0;
    let horizon = mem.makespan_seen();
    let prom = prometheus_text_with(
        mem,
        &PromOptions {
            policy: Some("eft:min"),
            ..PromOptions::default()
        },
    );
    let csv = windows_to_csv(&rec.1);
    let snapshot = mem.snapshot().to_json();
    let chrome = chrome_trace_full(
        &task_spans(mem.trace().iter()),
        &machine_spans(mem.trace().iter(), horizon),
        &outage_spans(mem.trace().iter(), horizon),
        &breach_marks(mem.trace().iter()),
    );
    let bytes = black_box(prom.len() + csv.len() + snapshot.len() + chrome.len());
    out.put("obs.export_ms", t0.elapsed().as_secs_f64() * 1e3);
    out.put("obs.export_bytes", bytes as f64);
    out.put("obs.trace_dropped", mem.trace().dropped() as f64);
}

fn pipeline_metrics(probe: &PipelineMetrics, n: usize, out: &mut RunOutput) {
    let per_task = |s: Stage| probe.stage(s).total_ns as f64 / n as f64;
    out.put("parallel.route_ns_per_task", per_task(Stage::Route));
    out.put("parallel.dispatch_ns_per_task", per_task(Stage::Dispatch));
    out.put("parallel.merge_ns_per_task", per_task(Stage::Merge));
    out.put(
        "parallel.enqueue_wait_ms",
        probe.stage(Stage::EnqueueWait).total_ns as f64 / 1e6,
    );
    out.put(
        "parallel.dequeue_wait_ms",
        probe.stage(Stage::DequeueWait).total_ns as f64 / 1e6,
    );
    out.put(
        "parallel.queue_depth_high_water",
        probe.depth_high_water() as f64,
    );
    out.put("parallel.stalls", probe.stalls() as f64);
    out.put("parallel.forced_flushes", probe.forced_flushes() as f64);
    out.put("algos.dispatch_ns", per_task(Stage::Dispatch));
}

/// Mean, median and 99th percentile of one layer's self times.
fn put3(out: &mut RunOutput, name: &str, values: &[f64]) {
    out.put(name, mean(values));
    out.put(&format!("{name}_p50"), quantile(values, 0.5));
    out.put(&format!("{name}_p99"), quantile(values, 0.99));
}

/// Per-layer self-time statistics from the traced run's spans.
///
/// A bare task's loop turn is split into the layers' self times, taken
/// from the layered tasks, and what is left: the engine loop (with the
/// ledger's own checks) on the sequential engines, the rest of the
/// router's turn on the sharded one.
fn layer_metrics(tracer: &Tracer, out: &mut RunOutput) {
    let cal = calibrate();
    let spans = tracer.take_spans();
    let lt = layer_times(&spans, &cal);
    let turn = mean(&lt.turn);
    put3(out, "workloads.next_arrival_ns", &lt.next_arrival);
    let accept = mean(&lt.accept);
    out.put("sim.accept_ns", accept);
    let (named, rest) = match out.get("parallel.route_ns_per_task") {
        Some(route) => {
            // The router's turn: the stream, routing, merging (which
            // holds the accepts) and blocking on full worker queues.
            let merge = out.get("parallel.merge_ns_per_task").unwrap_or(0.0);
            let wait = out.get("parallel.enqueue_wait_ms").unwrap_or(0.0) * 1e6;
            let named = mean(&lt.next_arrival) + route + merge + wait / out.tasks.max(1) as f64;
            (named, "parallel.router_other_ns")
        }
        None => {
            put3(out, "algos.dispatch_ns", &lt.dispatch);
            let record = mean(&lt.record);
            out.put("obs.record_ns", record);
            let named = mean(&lt.next_arrival) + mean(&lt.dispatch) + record + accept;
            (named, "engine.loop_ns")
        }
    };
    out.put(rest, turn - named);
    let wall_ns_per_task = 1e9 / out.get("ledger.run_tasks_per_s").unwrap_or(f64::INFINITY);
    out.put("trace.clock_ns", cal.span_ns);
    out.put("trace.layered_tasks", lt.layered as f64);
    out.put("trace.bare_tasks", lt.turn.len() as f64);
    out.put("trace.turn_ns", turn);
    out.put("trace.attributed_pct", 100.0 * turn / wall_ns_per_task);
    out.spans_json = Some(spans_json(&spans, cal.ns_per_tick));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_runs_match_untraced_runs() {
        for w in Workload::ALL {
            let plain = run(w, SMOKE_TASKS, DEFAULT_SEED, false);
            let traced = run(w, SMOKE_TASKS, DEFAULT_SEED, true);
            assert!(plain.errors.is_empty(), "{}: {:?}", w.name(), plain.errors);
            assert!(
                traced.errors.is_empty(),
                "{}: {:?}",
                w.name(),
                traced.errors
            );
            assert_eq!(plain.tasks, SMOKE_TASKS as u64, "{}", w.name());
            assert_eq!(
                plain.hash,
                traced.hash,
                "{}: tracing changed the schedule",
                w.name()
            );
            for name in [
                "algos.indexed_descents_per_task",
                "algos.scalar_fallback_scans_per_task",
                "algos.heap_self_heals_per_task",
            ] {
                assert_eq!(plain.get(name), traced.get(name), "{}: {name}", w.name());
            }
            assert!(traced.spans_json.is_some() && plain.spans_json.is_none());
        }
    }

    #[test]
    fn sharded_and_observed_runs_match_the_sequential_schedule() {
        let seq = run(Workload::DisjointM256, SMOKE_TASKS, HELD_OUT_SEED, false);
        for w in [Workload::ShardedM256T2, Workload::ObservedM256] {
            let other = run(w, SMOKE_TASKS, HELD_OUT_SEED, false);
            assert_eq!(
                seq.hash,
                other.hash,
                "{} diverged from disjoint_m256",
                w.name()
            );
        }
        let faulty = run(Workload::FaultyM256, SMOKE_TASKS, HELD_OUT_SEED, false);
        assert_ne!(
            seq.hash, faulty.hash,
            "the crash plan should move some tasks"
        );
    }

    #[test]
    fn a_prefix_of_a_run_hashes_like_a_shorter_run() {
        let n = crate::sink::PREFIX_TASKS as usize;
        let short = run(Workload::DisjointM256, n, DEFAULT_SEED, false);
        let long = run(Workload::ShardedM256T2, n + 1000, DEFAULT_SEED, false);
        assert_eq!(long.prefix_hash, short.hash);
        assert_eq!(short.prefix_hash, short.hash);
        let shorter = run(Workload::DisjointM256, 1000, DEFAULT_SEED, false);
        assert_eq!(shorter.prefix_hash, shorter.hash);
        assert_ne!(long.prefix_hash, long.hash);
    }

    #[test]
    fn timed_stream_keeps_auto_resolving_to_the_same_kernel() {
        let tracer = Tracer::new(0);
        for (w, kernel) in [
            (Workload::DisjointM256, DispatchKernel::Scalar),
            (Workload::PrefixM4k, DispatchKernel::Indexed),
        ] {
            let stream = PoissonStream::new(&w.stream_config(100), 1);
            let timed = TimedStream::new(stream.clone(), &tracer);
            assert_eq!(DispatchKernel::Auto.resolve_for_stream(&stream), kernel);
            assert_eq!(DispatchKernel::Auto.resolve_for_stream(&timed), kernel);
            assert_eq!(
                timed.shard_plan(DEFAULT_MAX_SHARDS),
                stream.shard_plan(DEFAULT_MAX_SHARDS)
            );
            assert_eq!(timed.len_hint(), Some(100));
            let built = Dispatcher::Policy(spec().build_for_stream(&timed));
            assert_eq!(kernel_name(&built), format!("{kernel:?}").to_lowercase());
        }
    }

    #[test]
    fn setup_timing_reports_every_part() {
        let t = time_setup(Workload::FaultyM256, SMOKE_TASKS, DEFAULT_SEED);
        assert!(t.total_s > 0.0);
        assert!(t.workloads_us > 0.0 && t.algos_us > 0.0 && t.sim_us > 0.0);
        let parts = (t.workloads_us + t.algos_us + t.obs_us + t.sim_us) / 1e6;
        assert!(
            parts <= 2.0 * t.total_s && t.total_s <= 2.0 * parts,
            "{t:?}"
        );
    }
}

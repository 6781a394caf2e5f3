//! Telemetry timeline export: run one workload/algorithm combo with
//! full telemetry and write every export format.
//!
//! ```text
//! cargo run --release -p flowsched-bench --bin timeline -- \
//!     [--workload kv|poisson|adversary] [--policy min|max] \
//!     [--window <width>] [--timeline <dir>] [--paper] [--seed <u64>]
//! ```
//!
//! One streaming pass (`simulate_stream` under a `Tee` of a
//! `MemoryRecorder` and a `WindowedMetrics`) produces the `SimReport`,
//! the aggregate recorder, and the tumbling-window time series; the
//! spans derived from the trace are then written as:
//!
//! - `trace.json` — Chrome trace-event JSON; open in
//!   <https://ui.perfetto.dev> (or `chrome://tracing`) to see per-machine
//!   busy spans and per-task service spans with wait/flow args.
//! - `metrics.prom` — Prometheus text exposition of the aggregates.
//! - `windows.csv` — the windowed time series (queue depth, rates,
//!   utilization, flow percentiles per window).
//! - `snapshot.json` — the ordinary observability snapshot.
//!
//! The source is built first and the trace ring is sized from its own
//! task count (the adversary builds an instance of its own size, not of
//! the scale's task count), so the timeline is lossless. The summary
//! printed at the end reports any dropped event; `scripts/ci_check.sh`
//! runs every workload and fails unless it reads `0 dropped`.

use std::path::PathBuf;

use flowsched_algos::indexed::DispatchKernel;
use flowsched_algos::registry::PolicySpec;
use flowsched_algos::tiebreak::TieBreak;
use flowsched_core::stream::{ArrivalStream, InstanceStream};
use flowsched_kvstore::cluster::{ClusterConfig, KvCluster};
use flowsched_kvstore::replication::ReplicationStrategy;
use flowsched_obs::{
    chrome_trace, machine_spans, prometheus_text_with, render_summary, task_spans, windows_to_csv,
    ExtraGauge, MemoryRecorder, ObsConfig, PromOptions, Tee, WindowConfig, WindowedMetrics,
};
use flowsched_sim::driver::simulate_stream;
use flowsched_sim::report::{ReportConfig, SimReport};
use flowsched_stats::zipf::BiasCase;
use flowsched_workloads::adversary::interval::interval_adversary_instance;
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};
use rand::SeedableRng;

fn main() {
    // Peel off the bin-specific flags, forward the rest to the shared
    // harness parser.
    let mut workload = String::from("kv");
    let mut policy = TieBreak::Min;
    let mut width = 1.0f64;
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                workload = it.next().expect("--workload requires kv|poisson|adversary");
            }
            "--policy" => {
                policy = match it.next().expect("--policy requires min|max").as_str() {
                    "min" => TieBreak::Min,
                    "max" => TieBreak::Max,
                    other => panic!("--policy takes min|max, got {other:?}"),
                };
            }
            "--window" => {
                let v = it.next().expect("--window requires a width");
                width = v
                    .parse()
                    .unwrap_or_else(|_| panic!("--window takes a positive f64, got {v:?}"));
            }
            other => rest.push(other.to_string()),
        }
    }
    let args = flowsched_bench::parse_from(rest);
    let scale = args.scale;
    let dir = args
        .timeline
        .unwrap_or_else(|| PathBuf::from("target/timeline"));

    let (report, rec, n) = match workload.as_str() {
        "kv" => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(scale.seed);
            let cluster = KvCluster::new(
                ClusterConfig {
                    m: scale.m,
                    k: scale.k,
                    strategy: ReplicationStrategy::Overlapping,
                    s: 1.0,
                    case: BiasCase::Shuffled,
                },
                &mut rng,
            );
            // 70% offered load: busy enough for visible queueing, stable
            // enough that the timeline has an end.
            let inst = cluster.requests(scale.tasks, 0.7 * scale.m as f64, &mut rng);
            observe(InstanceStream::new(&inst), policy, width)
        }
        "poisson" => {
            let cfg = PoissonStreamConfig {
                m: scale.m,
                n: scale.tasks,
                structure: StructureKind::RingFixed(scale.k),
                lambda: 0.7 * scale.m as f64,
                unit: true,
                ptime_steps: 4,
            };
            observe(PoissonStream::new(&cfg, scale.seed), policy, width)
        }
        "adversary" => {
            let inst = interval_adversary_instance(scale.m, scale.k, scale.m * scale.m);
            observe(InstanceStream::new(&inst), policy, width)
        }
        other => panic!("unknown --workload {other:?}; supported: kv, poisson, adversary"),
    };

    let Tee(rec, windows) = &rec;
    let tasks = task_spans(rec.trace().iter());
    let machines = machine_spans(rec.trace().iter(), rec.makespan_seen());

    std::fs::create_dir_all(&dir).expect("create timeline output directory");
    let write = |name: &str, contents: String| {
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write timeline export");
        println!("wrote {}", path.display());
    };
    // Label every Prometheus series with the registry form of the policy
    // this run dispatched under, and export the report-level weighted
    // objective next to the recorder aggregates.
    let policy_id = PolicySpec::eft(policy, DispatchKernel::Auto).to_string();
    let prom_opts = PromOptions {
        policy: Some(&policy_id),
        extra_gauges: vec![ExtraGauge {
            name: "weighted_fmax",
            help: "Maximum weighted flow time max w_i*F_i of the run",
            value: report.weighted_fmax,
        }],
    };
    write("trace.json", chrome_trace(&tasks, &machines));
    write("metrics.prom", prometheus_text_with(rec, &prom_opts));
    write("windows.csv", windows_to_csv(windows));
    write("snapshot.json", rec.snapshot().to_json());

    println!(
        "timeline: {workload}/{policy:?} — m={}, n={n}, window width {width}, seed={:#x}",
        scale.m, scale.seed
    );
    println!(
        "SimReport: fmax={:.4} mean_flow={:.4} p95={:.4} p99={:.4}",
        report.fmax, report.mean_flow, report.p95, report.p99
    );
    println!(
        "spans: {} task spans, {} machine busy spans over {} windows",
        tasks.len(),
        machines.len(),
        windows.windows().len()
    );
    print!("{}", render_summary(rec));
}

/// Runs `source` under a `Tee` of a `MemoryRecorder` and a
/// `WindowedMetrics`, and returns the report, the recorders and the
/// task count. The trace ring is sized from the source's own length, so
/// it keeps every event: ~5 per task (arrival, dispatch, projected
/// completion, amortized busy/idle) plus slack.
fn observe<S: ArrivalStream>(
    source: S,
    policy: TieBreak,
    width: f64,
) -> (SimReport, Tee<MemoryRecorder, WindowedMetrics>, usize) {
    let m = source.machines();
    let n = source
        .len_hint()
        .expect("timeline sources know their length");
    let mut obs = ObsConfig::defaults(m);
    obs.trace_capacity = 6 * n + 64;
    let mut rec = Tee(
        MemoryRecorder::new(&obs),
        WindowedMetrics::new(WindowConfig::defaults(m, width)),
    );
    let report = simulate_stream(source, policy, &ReportConfig::default(), &mut rec);
    (report, rec, n)
}

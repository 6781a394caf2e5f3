//! Regenerates the paper's Figure 11 (Fmax vs average load).
//!
//! With `--timeline <dir>` the sweep runs instrumented: every curve job
//! records into a per-job telemetry shard, the shards merge into one
//! snapshot (identical to a sequential run — see
//! `fig11::run_instrumented`), and the directory receives the merged
//! windowed time series (`windows.csv`), Prometheus aggregates
//! (`metrics.prom`), the JSON snapshot (`snapshot.json`), and a Chrome
//! trace of the retained span tail (`trace.json`; see EXPERIMENTS.md
//! for how to read it in Perfetto — jobs are concatenated, so machine
//! tracks interleave spans from different load points). It then prints
//! the recorder's summary, whose `trace:` line counts the events the
//! ring retained and dropped.

use flowsched_experiments::fig11;
use flowsched_obs::{
    chrome_trace, machine_spans, render_summary, task_spans, windows_to_csv, ObsConfig,
    WindowConfig,
};

fn main() {
    let args = flowsched_bench::parse_args();
    let Some(dir) = args.timeline else {
        let out = fig11::run(&args.scale);
        print!("{}", fig11::render(&out));
        return;
    };

    let scale = args.scale;
    let mut obs = ObsConfig::defaults(scale.m);
    // The ring keeps the sweep's most recent 2^18 events. The default
    // scale records about 2.6M (a lossless ring would take ~100 MiB),
    // so the span exports cover the tail, and the summary printed last
    // counts the dropped events and warns.
    obs.trace_capacity = obs.trace_capacity.max(1 << 18);
    let window = WindowConfig::defaults(scale.m, 8.0);
    let telemetry = fig11::run_instrumented(&scale, &obs, &window);

    let rec = &telemetry.recorder;
    let prom = flowsched_obs::prometheus_text(rec);
    let tasks = task_spans(rec.trace().iter());
    let machines = machine_spans(rec.trace().iter(), rec.makespan_seen());

    std::fs::create_dir_all(&dir).expect("create timeline output directory");
    for (name, contents) in [
        ("trace.json", chrome_trace(&tasks, &machines)),
        ("metrics.prom", prom),
        ("windows.csv", windows_to_csv(&telemetry.windows)),
        ("snapshot.json", rec.snapshot().to_json()),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write timeline export");
        eprintln!("wrote {}", path.display());
    }

    print!("{}", fig11::render(&telemetry.output));
    print!("{}", render_summary(rec));
}

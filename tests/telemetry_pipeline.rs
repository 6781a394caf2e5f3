//! End-to-end acceptance for the telemetry pipeline: one instrumented
//! streaming run produces a structurally valid Chrome trace (what the
//! `timeline` binary writes), a well-formed Prometheus exposition, and
//! a windowed CSV time series — and all three agree with the recorder
//! they were derived from.

use flowsched::algos::tiebreak::TieBreak;
use flowsched::obs::{
    breach_marks, chrome_trace, chrome_trace_full, machine_spans, outage_spans, prometheus_text,
    prometheus_text_with, task_spans, windows_to_csv, Counter, MemoryRecorder, NoopRecorder,
    ObsConfig, PromOptions, Tee, WindowConfig, WindowedMetrics,
};
use flowsched::sim::driver::simulate_stream;
use flowsched::sim::report::{ReportConfig, SimReport};
use flowsched::workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};
use serde_json::Value;

const M: usize = 8;
const N: usize = 400;

/// The deterministic stream every check below runs.
fn stream() -> PoissonStream {
    let cfg = PoissonStreamConfig {
        m: M,
        n: N,
        structure: StructureKind::RingFixed(3),
        lambda: 0.6 * M as f64,
        unit: false,
        ptime_steps: 5,
    };
    PoissonStream::new(&cfg, 1234)
}

/// One instrumented run shared by every check below: its report, and
/// the aggregate recorder and time series teed over the one pass.
fn pipeline_run() -> (SimReport, MemoryRecorder, WindowedMetrics) {
    run_with_windows(WindowConfig::defaults(M, 2.0))
}

/// [`pipeline_run`] with the time series cut by `windows`.
fn run_with_windows(windows: WindowConfig) -> (SimReport, MemoryRecorder, WindowedMetrics) {
    let mut obs = ObsConfig::defaults(M);
    obs.trace_capacity = 8 * N; // lossless, like `timeline`
    let mut rec = Tee(MemoryRecorder::new(&obs), WindowedMetrics::new(windows));
    let report = simulate_stream(stream(), TieBreak::Min, &ReportConfig::default(), &mut rec);
    let Tee(recorder, windows) = rec;
    (report, recorder, windows)
}

/// Recording both layers in one pass changes nothing the run reports,
/// and the windows count every dispatch.
#[test]
fn teed_recorders_leave_the_report_unchanged() {
    let (report, recorder, windows) = pipeline_run();
    let plain = simulate_stream(
        stream(),
        TieBreak::Min,
        &ReportConfig::default(),
        &mut NoopRecorder,
    );
    assert_eq!(report, plain);
    assert_eq!(recorder.counters().get(Counter::TasksDispatched), N as u64);
    let starts: u64 = windows.windows().iter().map(|w| w.starts).sum();
    assert_eq!(starts, N as u64);
}

fn as_array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected JSON array, got {other:?}"),
    }
}

#[test]
fn chrome_trace_is_structurally_valid_and_complete() {
    let (_, recorder, _) = pipeline_run();
    assert_eq!(recorder.trace().dropped(), 0, "ring sized to be lossless");
    let tasks = task_spans(recorder.trace().iter());
    let machines = machine_spans(recorder.trace().iter(), recorder.makespan_seen());
    assert_eq!(tasks.len(), N, "one lifecycle span per task");

    let json = chrome_trace(&tasks, &machines);
    let root: Value = serde_json::from_str(&json).expect("trace is valid JSON");
    assert_eq!(
        root.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = as_array(root.get("traceEvents").expect("traceEvents key"));

    let mut machine_tracks = Vec::new();
    let mut process_names = Vec::new();
    let mut x_count = 0usize;
    let mut last_ts = f64::NEG_INFINITY;
    for ev in events {
        match ev.get("ph").and_then(Value::as_str) {
            Some("M") => {
                let name = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .expect("metadata events carry a name");
                match ev.get("name").and_then(Value::as_str) {
                    Some("process_name") => process_names.push(name.to_string()),
                    Some("thread_name") => machine_tracks.push(name.to_string()),
                    other => panic!("unexpected metadata record {other:?}"),
                }
            }
            Some("X") => {
                // Complete events only (no unbalanced B/E pairs), sorted
                // by timestamp with non-negative durations.
                let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
                let dur = ev.get("dur").and_then(Value::as_f64).expect("dur");
                assert!(ts >= last_ts, "trace not sorted: {ts} after {last_ts}");
                assert!(dur >= 0.0);
                last_ts = ts;
                x_count += 1;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // Machine and task process tracks, one named thread per machine per
    // process.
    assert!(process_names.contains(&"machines".to_string()));
    assert!(process_names.contains(&"tasks".to_string()));
    for m in 0..M {
        let label = format!("machine {m}");
        assert_eq!(
            machine_tracks.iter().filter(|t| **t == label).count(),
            2,
            "one {label} track in each process"
        );
    }
    assert_eq!(x_count, tasks.len() + machines.len());

    // Task spans carry the flow decomposition Perfetto shows on click.
    let any_task = events
        .iter()
        .find(|e| {
            e.get("ph").and_then(Value::as_str) == Some("X")
                && e.get("pid").and_then(Value::as_f64) == Some(2.0)
        })
        .expect("at least one task event");
    for key in ["release", "wait", "flow"] {
        assert!(
            any_task.get("args").and_then(|a| a.get(key)).is_some(),
            "task args missing {key}"
        );
    }
}

#[test]
fn prometheus_exposition_matches_the_recorder() {
    let (_, recorder, _) = pipeline_run();
    let text = prometheus_text(&recorder);

    // Every counter appears with its exact value.
    for (c, v) in [
        (Counter::TasksArrived, N as u64),
        (Counter::TasksDispatched, N as u64),
        (Counter::TasksCompleted, N as u64),
    ] {
        assert_eq!(recorder.counters().get(c), v);
        let line = format!("flowsched_{}_total {v}", c.name());
        assert!(text.contains(&line), "missing {line:?} in exposition");
    }

    // One utilization gauge per machine, histogram count equal to the
    // recorded mass, cumulative buckets ending in +Inf.
    for m in 0..M {
        assert!(text.contains(&format!("flowsched_machine_utilization{{machine=\"{m}\"}}")));
    }
    let count_line = format!(
        "flowsched_flow_time_count {}",
        recorder.flow_histogram().total()
    );
    assert!(text.contains(&count_line), "missing {count_line:?}");
    let buckets: Vec<f64> = text
        .lines()
        .filter(|l| l.starts_with("flowsched_flow_time_bucket"))
        .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
        .collect();
    assert!(!buckets.is_empty());
    assert!(
        buckets.windows(2).all(|w| w[0] <= w[1]),
        "buckets must be cumulative"
    );
    assert!(text.contains("le=\"+Inf\""));
    assert_eq!(
        *buckets.last().unwrap() as u64,
        recorder.flow_histogram().total()
    );
}

#[test]
fn csv_time_series_conserves_the_run() {
    let (_, _, windows) = pipeline_run();
    let csv = windows_to_csv(&windows);
    let mut lines = csv.lines();
    let header = lines.next().expect("header row");
    assert!(header.starts_with(
        "window,t_start,t_end,arrivals,starts,completions,arrival_rate,completion_rate"
    ));
    let cols = header.split(',').count();
    assert_eq!(cols, 13 + M, "13 fixed columns plus one per machine");

    let mut arrivals = 0u64;
    let mut completions = 0u64;
    let mut rows = 0usize;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), cols, "ragged CSV row: {line:?}");
        arrivals += fields[3].parse::<u64>().expect("arrivals column");
        completions += fields[5].parse::<u64>().expect("completions column");
        rows += 1;
    }
    assert_eq!(rows, windows.windows().len());
    assert_eq!(
        arrivals, N as u64,
        "every arrival lands in exactly one window"
    );
    assert_eq!(completions, N as u64);
}

#[test]
fn spans_agree_with_the_aggregate_recorder() {
    let (report, recorder, _) = pipeline_run();
    let tasks = task_spans(recorder.trace().iter());
    let machines = machine_spans(recorder.trace().iter(), recorder.makespan_seen());

    // Total busy time from machine spans == the recorder's busy vector.
    let span_busy: f64 = machines.iter().map(|s| s.end - s.start).sum();
    let rec_busy: f64 = recorder.busy_time().iter().sum();
    assert!(
        (span_busy - rec_busy).abs() < 1e-6,
        "busy spans {span_busy} vs recorder {rec_busy}"
    );

    // Flow recomputed from spans matches the report's maximum exactly.
    let span_fmax = tasks.iter().map(|s| s.flow()).fold(0.0, f64::max);
    assert!((span_fmax - report.fmax).abs() < 1e-9);
}

/// 64-bit FNV-1a. Pinned digests need a hash that is fixed across Rust
/// releases, which `DefaultHasher` is not.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every export of one run, byte for byte, and the report's `Debug`
/// text, as FNV-1a digests: Prometheus, windowed CSV, snapshot JSON,
/// Chrome trace, report.
fn export_digests(windows: WindowConfig) -> [u64; 5] {
    let (report, rec, series) = run_with_windows(windows);
    let horizon = rec.makespan_seen();
    let prom = prometheus_text_with(
        &rec,
        &PromOptions {
            policy: Some("eft:min"),
            ..PromOptions::default()
        },
    );
    let chrome = chrome_trace_full(
        &task_spans(rec.trace().iter()),
        &machine_spans(rec.trace().iter(), horizon),
        &outage_spans(rec.trace().iter(), horizon),
        &breach_marks(rec.trace().iter()),
    );
    [
        prom,
        windows_to_csv(&series),
        rec.snapshot().to_json(),
        chrome,
        format!("{report:?}"),
    ]
    .map(|text| fnv1a(text.as_bytes()))
}

/// The exports are pinned byte for byte, so a change to the recording
/// or folding arithmetic that moves any exported bit fails here: the
/// pipeline run's width 2, a width of 0.7 that is not dyadic and that
/// the quarter-step services cross, and a cap of 3 windows whose last
/// one absorbs every later span.
#[test]
fn exports_are_byte_stable() {
    let capped = WindowConfig {
        max_windows: 3,
        ..WindowConfig::defaults(M, 2.0)
    };
    let runs = [
        ("width 2", WindowConfig::defaults(M, 2.0), WIDTH_2),
        ("width 0.7", WindowConfig::defaults(M, 0.7), WIDTH_0_7),
        ("3 windows", capped, CAPPED),
    ];
    let exports = ["prometheus", "csv", "snapshot", "chrome trace", "report"];
    for (run, cfg, pinned) in runs {
        let got = export_digests(cfg);
        for ((name, got), want) in exports.iter().zip(got).zip(pinned) {
            assert_eq!(got, want, "{run}: {name} digest {got:#018x} moved");
        }
    }
}

// The window cut reaches only the CSV, so the other four digests are
// the same in every run.
const WIDTH_2: [u64; 5] = [
    0xbaa7_e9ff_f843_450f,
    0xf0c6_e087_58e8_714e,
    0x7565_f1c9_26c7_9a17,
    0xa757_9d58_bd5e_497c,
    0x5395_568e_bb6c_7764,
];
const WIDTH_0_7: [u64; 5] = [
    0xbaa7_e9ff_f843_450f,
    0x3b6a_6f21_8504_6d59,
    0x7565_f1c9_26c7_9a17,
    0xa757_9d58_bd5e_497c,
    0x5395_568e_bb6c_7764,
];
const CAPPED: [u64; 5] = [
    0xbaa7_e9ff_f843_450f,
    0x883f_1bc1_558f_937c,
    0x7565_f1c9_26c7_9a17,
    0xa757_9d58_bd5e_497c,
    0x5395_568e_bb6c_7764,
];

//! Exporters: Chrome trace-event JSON, Prometheus text exposition, and
//! CSV time series.
//!
//! Three sinks for the three shapes the telemetry pipeline produces:
//!
//! - [`chrome_trace`] — the span layer as Chrome trace-event JSON
//!   (`{"traceEvents": [...]}` with `"ph": "X"` complete events),
//!   loadable in Perfetto / `chrome://tracing`. Machines are threads of
//!   pid 1 ("machines"), tasks are threads of pid 2 ("tasks") keyed by
//!   the machine they ran on — task spans on one machine never overlap,
//!   so each machine row renders as a clean service timeline with wait
//!   and flow in the event args. Timestamps scale engine time to
//!   microseconds (×1e6), the unit the format mandates.
//! - [`prometheus_text`] — the aggregate recorder in Prometheus text
//!   exposition: every counter as a `_total`, busy time / utilization as
//!   per-machine labelled gauges, and the flow histogram as cumulative
//!   `le` buckets with `_sum` and `_count`. Every series carries proper
//!   `# HELP` / `# TYPE` lines. Bucket lines are emitted only where the
//!   cumulative count changes (plus `+Inf`), keeping a 4096-bin dump
//!   readable; scrape semantics are unaffected because cumulative
//!   buckets are monotone. [`prometheus_text_with`] additionally labels
//!   every series with the `PolicySpec` registry string (e.g.
//!   `policy="eft:min:indexed"`) and appends caller-supplied gauges
//!   (e.g. `weighted_fmax` out of a `SimReport`), so scraped runs stay
//!   distinguishable.
//! - [`windows_to_csv`] — the windowed time series as one CSV row per
//!   window: counts, rates, time-averaged queue depth, windowed flow
//!   percentiles, and per-machine utilization columns.

use serde::Value;

use crate::counters::Counter;
use crate::memory::MemoryRecorder;
use crate::span::{BreachMark, MachineSpan, OutageSpan, TaskSpan};
use crate::window::WindowedMetrics;

/// Seconds of engine time → microseconds of trace time.
const TRACE_US: f64 = 1e6;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

/// Renders task and machine spans as Chrome trace-event JSON (see the
/// module docs for the track layout). Events are sorted by timestamp as
/// Perfetto's JSON importer expects.
pub fn chrome_trace(tasks: &[TaskSpan], machines: &[MachineSpan]) -> String {
    chrome_trace_full(tasks, machines, &[], &[])
}

/// [`chrome_trace`] plus fault-injection outages and SLO breach marks.
/// Each [`OutageSpan`] renders as a `"down"` complete event on the
/// machine's pid-1 row, so crash windows appear inline with the busy
/// intervals they interrupt. Each [`BreachMark`] renders as a global
/// `"ph": "i"` instant event named `"slo_breach"` carrying the ratio
/// and the crossed bound in its args, so breaches show up as flagpoles
/// across the whole Perfetto timeline.
pub fn chrome_trace_full(
    tasks: &[TaskSpan],
    machines: &[MachineSpan],
    outages: &[OutageSpan],
    breaches: &[BreachMark],
) -> String {
    let mut events: Vec<Value> = Vec::new();
    // Track-naming metadata first (ph "M" events are position-free).
    for (pid, name) in [(1.0, "machines"), (2.0, "tasks")] {
        events.push(obj(vec![
            ("ph", s("M")),
            ("pid", num(pid)),
            ("tid", num(0.0)),
            ("name", s("process_name")),
            ("args", obj(vec![("name", s(name))])),
        ]));
    }
    let mut seen_machines: Vec<u32> = tasks
        .iter()
        .map(|t| t.machine)
        .chain(machines.iter().map(|m| m.machine))
        .chain(outages.iter().map(|o| o.machine))
        .collect();
    seen_machines.sort_unstable();
    seen_machines.dedup();
    for &m in &seen_machines {
        for pid in [1.0, 2.0] {
            events.push(obj(vec![
                ("ph", s("M")),
                ("pid", num(pid)),
                ("tid", num(m as f64)),
                ("name", s("thread_name")),
                ("args", obj(vec![("name", s(&format!("machine {m}")))])),
            ]));
        }
    }

    let mut spans: Vec<Value> = Vec::new();
    for m in machines {
        spans.push(obj(vec![
            ("ph", s("X")),
            ("pid", num(1.0)),
            ("tid", num(m.machine as f64)),
            ("name", s("busy")),
            ("ts", num(m.start * TRACE_US)),
            ("dur", num((m.end - m.start) * TRACE_US)),
        ]));
    }
    for o in outages {
        spans.push(obj(vec![
            ("ph", s("X")),
            ("pid", num(1.0)),
            ("tid", num(o.machine as f64)),
            ("name", s("down")),
            ("ts", num(o.start * TRACE_US)),
            ("dur", num((o.end - o.start) * TRACE_US)),
        ]));
    }
    for t in tasks {
        spans.push(obj(vec![
            ("ph", s("X")),
            ("pid", num(2.0)),
            ("tid", num(t.machine as f64)),
            ("name", s(&format!("task {}", t.task))),
            ("ts", num(t.start * TRACE_US)),
            ("dur", num(t.service() * TRACE_US)),
            (
                "args",
                obj(vec![
                    ("release", num(t.release)),
                    ("wait", num(t.wait())),
                    ("flow", num(t.flow())),
                ]),
            ),
        ]));
    }
    for b in breaches {
        spans.push(obj(vec![
            ("ph", s("i")),
            ("pid", num(1.0)),
            ("tid", num(0.0)),
            ("name", s("slo_breach")),
            ("ts", num(b.at * TRACE_US)),
            ("s", s("g")),
            (
                "args",
                obj(vec![("ratio", num(b.ratio)), ("bound", num(b.bound))]),
            ),
        ]));
    }
    spans.sort_by(|a, b| {
        let ts = |v: &Value| v.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
        ts(a).total_cmp(&ts(b))
    });
    events.extend(spans);

    let root = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", s("ms")),
    ]);
    serde_json::to_string(&root).expect("trace serialization is infallible")
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One caller-supplied gauge appended to the exposition — how run-level
/// metrics that live outside the recorder (e.g. a `SimReport`'s
/// `weighted_fmax`) join the scrape.
#[derive(Debug, Clone)]
pub struct ExtraGauge<'a> {
    /// Series name without the `flowsched_` prefix (snake_case).
    pub name: &'a str,
    /// `# HELP` text.
    pub help: &'a str,
    /// Gauge value.
    pub value: f64,
}

/// Options for [`prometheus_text_with`].
#[derive(Debug, Clone, Default)]
pub struct PromOptions<'a> {
    /// When set, every series carries a `policy="<spec>"` label (the
    /// `PolicySpec` registry string, e.g. `eft:min:indexed`).
    pub policy: Option<&'a str>,
    /// Extra gauges appended after the recorder's own families.
    pub extra_gauges: Vec<ExtraGauge<'a>>,
}

/// Renders the recorder's aggregates in Prometheus text exposition
/// format, `flowsched_`-prefixed (see the module docs for the families).
/// Every series gets `# HELP` and `# TYPE` lines.
pub fn prometheus_text(rec: &MemoryRecorder) -> String {
    prometheus_text_with(rec, &PromOptions::default())
}

/// `{policy="…",extra…}` / `{extra…}` / `` label rendering.
fn label_set(policy: Option<&str>, extra: &str) -> String {
    match (policy, extra.is_empty()) {
        (None, true) => String::new(),
        (None, false) => format!("{{{extra}}}"),
        (Some(p), true) => format!("{{policy=\"{p}\"}}"),
        (Some(p), false) => format!("{{policy=\"{p}\",{extra}}}"),
    }
}

/// [`prometheus_text`] with a policy label and extra gauges (see
/// [`PromOptions`]). The `trace_events_dropped` counter is sourced from
/// the event ring itself ([`EventRing::dropped`](crate::EventRing)), the
/// authoritative overwrite count, so silent trace truncation is always
/// observable in a scrape even when the counter bank missed a bump.
pub fn prometheus_text_with(rec: &MemoryRecorder, opts: &PromOptions<'_>) -> String {
    let mut out = String::new();
    let lbl = |extra: &str| label_set(opts.policy, extra);

    for (c, v) in rec.counters().iter() {
        let name = format!("flowsched_{}_total", c.name());
        // The ring knows its own losses better than the counter bank
        // (events can be pushed by paths that never touch the bank).
        let v = if c == Counter::TraceEventsDropped {
            v.max(rec.trace().dropped())
        } else {
            v
        };
        out.push_str(&format!(
            "# HELP {name} {}\n# TYPE {name} counter\n{name}{} {v}\n",
            c.help(),
            lbl("")
        ));
    }

    out.push_str(
        "# HELP flowsched_machine_busy_time Accumulated busy time per machine.\n\
         # TYPE flowsched_machine_busy_time gauge\n",
    );
    for (m, b) in rec.busy_time().iter().enumerate() {
        out.push_str(&format!(
            "flowsched_machine_busy_time{} {}\n",
            lbl(&format!("machine=\"{m}\"")),
            fmt_value(*b)
        ));
    }
    out.push_str(
        "# HELP flowsched_machine_utilization Busy time over recorded makespan per machine.\n\
         # TYPE flowsched_machine_utilization gauge\n",
    );
    for (m, u) in rec.utilization().iter().enumerate() {
        out.push_str(&format!(
            "flowsched_machine_utilization{} {}\n",
            lbl(&format!("machine=\"{m}\"")),
            fmt_value(*u)
        ));
    }
    out.push_str(&format!(
        "# HELP flowsched_makespan Largest completion timestamp recorded.\n\
         # TYPE flowsched_makespan gauge\nflowsched_makespan{} {}\n",
        lbl(""),
        fmt_value(rec.makespan_seen())
    ));

    let h = rec.flow_histogram();
    out.push_str(
        "# HELP flowsched_flow_time Flow time (completion minus release) of dispatched tasks.\n\
         # TYPE flowsched_flow_time histogram\n",
    );
    // Values below the range are ≤ every finite bucket bound, so the
    // underflow mass seeds the cumulative count.
    let mut cum = h.underflow();
    let mut last_emitted = u64::MAX;
    for (i, &c) in h.counts().iter().enumerate() {
        cum += c;
        if cum != last_emitted && (c > 0 || i + 1 == h.counts().len()) {
            let (_, upper) = h.bin_edges(i);
            out.push_str(&format!(
                "flowsched_flow_time_bucket{} {cum}\n",
                lbl(&format!("le=\"{}\"", fmt_value(upper)))
            ));
            last_emitted = cum;
        }
    }
    out.push_str(&format!(
        "flowsched_flow_time_bucket{} {}\n",
        lbl("le=\"+Inf\""),
        h.total()
    ));
    out.push_str(&format!(
        "flowsched_flow_time_sum{} {}\n",
        lbl(""),
        fmt_value(h.sum())
    ));
    out.push_str(&format!(
        "flowsched_flow_time_count{} {}\n",
        lbl(""),
        h.total()
    ));

    for g in &opts.extra_gauges {
        let name = format!("flowsched_{}", g.name);
        out.push_str(&format!(
            "# HELP {name} {}\n# TYPE {name} gauge\n{name}{} {}\n",
            g.help,
            lbl(""),
            fmt_value(g.value)
        ));
    }
    out
}

/// Renders the windowed time series as CSV: one row per window with
/// counts, rates, queue depth, flow percentiles, and one
/// `utilization_m<i>` column per machine.
pub fn windows_to_csv(series: &WindowedMetrics) -> String {
    let machines = series.config().machines;
    let width = series.width();
    let mut out = String::from(
        "window,t_start,t_end,arrivals,starts,completions,\
         arrival_rate,completion_rate,mean_queue_depth,mean_utilization,\
         flow_p50,flow_p95,flow_p99",
    );
    for m in 0..machines {
        out.push_str(&format!(",utilization_m{m}"));
    }
    out.push('\n');
    for (k, w) in series.windows().iter().enumerate() {
        let q = |level: f64| {
            w.flow_hist
                .quantile(level)
                .map(fmt_value)
                .unwrap_or_default()
        };
        out.push_str(&format!(
            "{k},{},{},{},{},{},{},{},{},{},{},{},{}",
            fmt_value(k as f64 * width),
            fmt_value((k + 1) as f64 * width),
            w.arrivals,
            w.starts,
            w.completions,
            fmt_value(w.arrivals as f64 / width),
            fmt_value(w.completions as f64 / width),
            fmt_value(w.mean_queue_depth(width)),
            fmt_value(w.mean_utilization(width)),
            q(0.5),
            q(0.95),
            q(0.99),
        ));
        for u in w.utilization(width) {
            out.push_str(&format!(",{}", fmt_value(u)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::span::{machine_spans, task_spans};
    use crate::window::{WindowConfig, WindowedMetrics};

    fn populated() -> MemoryRecorder {
        let mut r = MemoryRecorder::with_defaults(2);
        r.task_arrival(0, 0.0);
        r.task_dispatch(0, 0, 0.0, 0.0, 2.0);
        r.machine_busy(0, 0.0);
        r.task_arrival(1, 0.5);
        r.task_dispatch(1, 1, 0.5, 1.0, 1.5);
        r.machine_busy(1, 1.0);
        r
    }

    #[test]
    fn chrome_trace_is_valid_json_with_sorted_complete_events() {
        let rec = populated();
        let tasks = task_spans(rec.trace().iter());
        let machines = machine_spans(rec.trace().iter(), rec.makespan_seen());
        let json = chrome_trace(&tasks, &machines);
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = match v.get("traceEvents").expect("traceEvents key") {
            Value::Array(items) => items.clone(),
            _ => panic!("traceEvents is an array"),
        };
        let mut last_ts = f64::NEG_INFINITY;
        let mut xs = 0;
        for e in &events {
            match e.get("ph").and_then(|p| p.as_str()) {
                Some("M") => {}
                Some("X") => {
                    xs += 1;
                    let ts = e.get("ts").and_then(Value::as_f64).unwrap();
                    let dur = e.get("dur").and_then(Value::as_f64).unwrap();
                    assert!(ts >= last_ts, "X events sorted by ts");
                    assert!(dur >= 0.0);
                    last_ts = ts;
                }
                other => panic!("unexpected ph {other:?}"),
            }
        }
        assert_eq!(xs, tasks.len() + machines.len());
    }

    #[test]
    fn outage_spans_render_as_down_events_on_machine_rows() {
        let rec = populated();
        let tasks = task_spans(rec.trace().iter());
        let machines = machine_spans(rec.trace().iter(), rec.makespan_seen());
        let outages = [OutageSpan {
            machine: 1,
            start: 0.25,
            end: 0.75,
        }];
        let json = chrome_trace_full(&tasks, &machines, &outages, &[]);
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = match v.get("traceEvents").expect("traceEvents key") {
            Value::Array(items) => items.clone(),
            _ => panic!("traceEvents is an array"),
        };
        let down: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("down"))
            .collect();
        assert_eq!(down.len(), 1);
        assert_eq!(down[0].get("pid").and_then(Value::as_f64), Some(1.0));
        assert_eq!(down[0].get("tid").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            down[0].get("dur").and_then(Value::as_f64),
            Some(0.5 * TRACE_US)
        );
    }

    #[test]
    fn prometheus_text_has_counters_gauges_and_histogram() {
        let text = prometheus_text(&populated());
        assert!(text.contains("flowsched_tasks_dispatched_total 2"));
        assert!(text.contains("flowsched_machine_utilization{machine=\"1\"}"));
        assert!(text.contains("# TYPE flowsched_flow_time histogram"));
        assert!(text.contains("flowsched_flow_time_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("flowsched_flow_time_count 2"));
        // flows are 2.0 and 2.0 → sum 4.
        assert!(text.contains("flowsched_flow_time_sum 4"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_monotone() {
        let text = prometheus_text(&populated());
        let mut last = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("flowsched_flow_time_bucket{le=\"") {
                let count: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(count >= last, "cumulative buckets are monotone");
                last = count;
            }
        }
        assert_eq!(last, 2);
    }

    #[test]
    fn every_prometheus_series_has_help_and_type() {
        let text = prometheus_text(&populated());
        let mut typed: Vec<&str> = Vec::new();
        let mut helped: Vec<&str> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.push(rest.split_whitespace().next().unwrap());
            } else if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.push(rest.split_whitespace().next().unwrap());
            } else if !line.is_empty() {
                let name = line.split(['{', ' ']).next().unwrap();
                let family = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .filter(|f| typed.contains(f))
                    .unwrap_or(name);
                assert!(typed.contains(&family), "{name} has no # TYPE");
                assert!(helped.contains(&family), "{name} has no # HELP");
            }
        }
    }

    #[test]
    fn policy_label_lands_on_every_series() {
        let opts = PromOptions {
            policy: Some("eft:min:indexed"),
            extra_gauges: vec![],
        };
        let text = prometheus_text_with(&populated(), &opts);
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            assert!(
                line.contains("policy=\"eft:min:indexed\""),
                "unlabelled series line: {line}"
            );
        }
        assert!(text.contains("flowsched_tasks_dispatched_total{policy=\"eft:min:indexed\"} 2"));
        assert!(text
            .contains("flowsched_machine_utilization{policy=\"eft:min:indexed\",machine=\"1\"}"));
        assert!(text.contains("flowsched_flow_time_bucket{policy=\"eft:min:indexed\",le=\"+Inf\"}"));
    }

    #[test]
    fn extra_gauges_are_appended_with_help_and_type() {
        let opts = PromOptions {
            policy: None,
            extra_gauges: vec![ExtraGauge {
                name: "weighted_fmax",
                help: "Maximum weighted flow time of the run.",
                value: 12.5,
            }],
        };
        let text = prometheus_text_with(&populated(), &opts);
        assert!(text.contains("# HELP flowsched_weighted_fmax Maximum weighted flow time"));
        assert!(text.contains("# TYPE flowsched_weighted_fmax gauge"));
        assert!(text.contains("flowsched_weighted_fmax 12.5"));
    }

    #[test]
    fn lifecycle_counters_and_slo_breaches_are_exported() {
        let mut rec = populated();
        rec.machine_crash(0, 0.5);
        rec.machine_recover(0, 0.75);
        rec.slo_breach(4.0, 2.5, 2.0);
        let text = prometheus_text(&rec);
        assert!(text.contains("# HELP flowsched_machine_crashes_total"));
        assert!(text.contains("flowsched_machine_crashes_total 1"));
        assert!(text.contains("flowsched_machine_recoveries_total 1"));
        assert!(text.contains("# TYPE flowsched_slo_breaches_total counter"));
        assert!(text.contains("flowsched_slo_breaches_total 1"));
    }

    #[test]
    fn ring_overwrites_reach_the_prometheus_counter() {
        let mut cfg = crate::memory::ObsConfig::defaults(1);
        cfg.trace_capacity = 2;
        let mut rec = MemoryRecorder::new(&cfg);
        for i in 0..6 {
            rec.task_arrival(i, i as f64);
        }
        assert_eq!(rec.trace().dropped(), 4);
        let text = prometheus_text(&rec);
        assert!(text.contains("flowsched_trace_events_dropped_total 4"));
    }

    #[test]
    fn breach_marks_render_as_instant_events() {
        let rec = populated();
        let tasks = task_spans(rec.trace().iter());
        let machines = machine_spans(rec.trace().iter(), rec.makespan_seen());
        let marks = [BreachMark {
            at: 1.5,
            ratio: 2.5,
            bound: 2.0,
        }];
        let json = chrome_trace_full(&tasks, &machines, &[], &marks);
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = match v.get("traceEvents").expect("traceEvents key") {
            Value::Array(items) => items.clone(),
            _ => panic!("traceEvents is an array"),
        };
        let instants: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(
            instants[0].get("name").and_then(|n| n.as_str()),
            Some("slo_breach")
        );
        assert_eq!(
            instants[0].get("ts").and_then(Value::as_f64),
            Some(1.5 * TRACE_US)
        );
        assert_eq!(instants[0].get("s").and_then(|x| x.as_str()), Some("g"));
        let args = instants[0].get("args").unwrap();
        assert_eq!(args.get("ratio").and_then(Value::as_f64), Some(2.5));
        assert_eq!(args.get("bound").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn csv_has_one_row_per_window_and_machine_columns() {
        let mut w = WindowedMetrics::new(WindowConfig::defaults(2, 1.0));
        w.task_arrival(0, 0.1);
        w.task_dispatch(0, 0, 0.1, 0.1, 2.2);
        let csv = windows_to_csv(&w);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("window,t_start,t_end,arrivals"));
        assert!(lines[0].ends_with("utilization_m0,utilization_m1"));
        // Service [0.1, 2.3) touches windows 0, 1, 2.
        assert_eq!(lines.len(), 1 + 3);
        assert!(lines[1].starts_with("0,0,1,1,1,0,"));
        let cols: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cols.len(), 13 + 2);
    }
}

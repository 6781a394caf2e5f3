//! Structural lint for the Prometheus text exposition
//! (`flowsched::obs::prometheus_text{,_with}`): every sample belongs to
//! a family that declared `# HELP` and `# TYPE` *before* its first
//! sample, no family declares them twice, no series (name + label set)
//! repeats, histogram buckets are cumulative with ascending `le` bounds
//! and a `+Inf` bucket equal to `_count`, and when a policy label is
//! requested every sample carries it first. The lint parses the real
//! exposition line by line — the same checks a scrape-side
//! `promtool check metrics` would make — so format regressions fail
//! here rather than in a dashboard.

use std::collections::{HashMap, HashSet};

use flowsched::algos::engine::Run;
use flowsched::algos::indexed::DispatchKernel;
use flowsched::algos::registry::PolicySpec;
use flowsched::algos::tiebreak::TieBreak;
use flowsched::core::fault::FaultPlan;
use flowsched::core::instance::InstanceBuilder;
use flowsched::core::stream::InstanceStream;
use flowsched::core::ProcSet;
use flowsched::obs::{
    prometheus_text, prometheus_text_with, Counter, ExtraGauge, MemoryRecorder, ObsConfig,
    PromOptions,
};

/// A run busy enough to populate every family: dispatches on all
/// machines, crash/recover lifecycle, and a deliberately tiny event
/// ring so `trace_events_dropped` is non-zero.
fn recorded_run(trace_capacity: usize) -> MemoryRecorder {
    let m = 4;
    let mut b = InstanceBuilder::new(m);
    for i in 0..40 {
        let lo = i % m;
        let task = flowsched::core::task::Task::new(i as f64 * 0.3, 1.0 + (i % 3) as f64);
        b.push(task, ProcSet::interval(lo, (lo + 1).min(m - 1)));
    }
    let inst = b.build().unwrap();
    let plan = FaultPlan::none(m)
        .with_outage(0, 2.0, 4.0)
        .with_outage(2, 1.0, 3.0);
    let mut rec = MemoryRecorder::new(&ObsConfig {
        trace_capacity,
        ..ObsConfig::defaults(m)
    });
    Run::new(PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto))
        .with_faults(&plan)
        .schedule(InstanceStream::new(&inst), &mut rec);
    rec
}

/// Splits a sample line into `(name, label_set, value)`.
fn parse_sample(line: &str) -> (String, String, f64) {
    let (series, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = value.parse().unwrap_or_else(|_| {
        if value == "+Inf" {
            f64::INFINITY
        } else {
            panic!("unparseable sample value {value:?} in {line:?}")
        }
    });
    let (name, labels) = match series.split_once('{') {
        Some((n, rest)) => {
            assert!(rest.ends_with('}'), "unterminated label set in {line:?}");
            (n.to_string(), rest[..rest.len() - 1].to_string())
        }
        None => (series.to_string(), String::new()),
    };
    (name, labels, value)
}

/// The family a sample belongs to: histogram samples share one declared
/// family name without the `_bucket`/`_sum`/`_count` suffix.
fn family_of<'a>(name: &'a str, typed: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if typed.get(stem).map(String::as_str) == Some("histogram") {
                return stem;
            }
        }
    }
    name
}

/// The structural lint proper. Returns the set of family names seen so
/// callers can make presence assertions on top.
fn lint(text: &str, expect_policy: Option<&str>) -> HashSet<String> {
    let mut helped: HashMap<String, String> = HashMap::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    let mut families = HashSet::new();
    // Histogram bucket state, reset per family: (last le, last cum).
    let mut bucket_state: HashMap<String, (f64, f64)> = HashMap::new();
    let mut hist_totals: HashMap<String, (Option<f64>, Option<f64>)> = HashMap::new(); // (+Inf, _count)

    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has text");
            assert!(!help.is_empty(), "{name}: empty HELP text");
            assert!(
                helped.insert(name.to_string(), help.to_string()).is_none(),
                "{name}: duplicate # HELP"
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest.split_once(' ').expect("TYPE has a kind");
            assert!(
                matches!(ty, "counter" | "gauge" | "histogram"),
                "{name}: unknown type {ty:?}"
            );
            assert!(
                typed.insert(name.to_string(), ty.to_string()).is_none(),
                "{name}: duplicate # TYPE"
            );
            assert!(helped.contains_key(name), "{name}: # TYPE before # HELP");
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment line {line:?}");

        let (name, labels, value) = parse_sample(line);
        assert!(
            name.starts_with("flowsched_"),
            "{name}: missing flowsched_ prefix"
        );
        let family = family_of(&name, &typed).to_string();
        assert!(
            helped.contains_key(&family) && typed.contains_key(&family),
            "{name}: sample before # HELP/# TYPE of family {family}"
        );
        families.insert(family.clone());
        assert!(
            seen_series.insert(format!("{name}{{{labels}}}")),
            "duplicate series {name}{{{labels}}}"
        );
        match expect_policy {
            Some(p) => assert!(
                labels.starts_with(&format!("policy=\"{p}\"")),
                "{name}: policy label missing or not first in {labels:?}"
            ),
            None => assert!(
                !labels.contains("policy="),
                "{name}: unexpected policy label"
            ),
        }
        if typed.get(&family).map(String::as_str) == Some("counter") {
            assert!(
                name.ends_with("_total"),
                "{name}: counter without _total suffix"
            );
            assert!(value >= 0.0, "{name}: negative counter");
        }
        if name.ends_with("_bucket") {
            let le = labels
                .split(',')
                .find_map(|l| l.strip_prefix("le=\""))
                .and_then(|v| v.strip_suffix('"'))
                .expect("bucket has an le label");
            if le == "+Inf" {
                hist_totals.entry(family.clone()).or_default().0 = Some(value);
                if let Some(&(_, cum)) = bucket_state.get(&family) {
                    assert!(value >= cum, "{family}: +Inf bucket below last cumulative");
                }
            } else {
                let le: f64 = le.parse().expect("finite le bound");
                let (last_le, last_cum) = bucket_state
                    .get(&family)
                    .copied()
                    .unwrap_or((f64::NEG_INFINITY, 0.0));
                assert!(le > last_le, "{family}: le bounds not ascending");
                assert!(value >= last_cum, "{family}: bucket counts not cumulative");
                bucket_state.insert(family.clone(), (le, value));
            }
        }
        if name.ends_with("_count") && typed.get(&family).map(String::as_str) == Some("histogram") {
            hist_totals.entry(family.clone()).or_default().1 = Some(value);
        }
    }

    for (family, (inf, count)) in &hist_totals {
        assert_eq!(
            inf.expect("histogram has a +Inf bucket"),
            count.expect("histogram has a _count"),
            "{family}: +Inf bucket != _count"
        );
    }
    families
}

#[test]
fn plain_exposition_is_structurally_valid() {
    let rec = recorded_run(4096);
    let families = lint(&prometheus_text(&rec), None);
    // Every counter family is present, including the PR 9 additions.
    for c in Counter::ALL {
        assert!(
            families.contains(&format!("flowsched_{}_total", c.name())),
            "counter family {} missing from exposition",
            c.name()
        );
    }
    for f in [
        "flowsched_machine_busy_time",
        "flowsched_machine_utilization",
        "flowsched_makespan",
        "flowsched_flow_time",
    ] {
        assert!(families.contains(f), "{f} missing from exposition");
    }
}

#[test]
fn policy_labeled_exposition_is_structurally_valid() {
    let rec = recorded_run(4096);
    let opts = PromOptions {
        policy: Some("eft:min:indexed"),
        extra_gauges: vec![ExtraGauge {
            name: "weighted_fmax",
            help: "Maximum weighted flow time of the run.",
            value: 17.25,
        }],
    };
    let families = lint(&prometheus_text_with(&rec, &opts), Some("eft:min:indexed"));
    assert!(families.contains("flowsched_weighted_fmax"));
}

#[test]
fn dropped_events_counter_reports_ring_losses() {
    // A 16-slot ring under a 40-task run must overwrite; the exposition
    // sources the counter from the ring itself, so the scrape sees it.
    let rec = recorded_run(16);
    assert!(rec.trace().dropped() > 0, "test needs a lossy ring");
    let text = prometheus_text(&rec);
    let line = text
        .lines()
        .find(|l| l.starts_with("flowsched_trace_events_dropped_total"))
        .expect("dropped counter exported");
    let (_, _, value) = parse_sample(line);
    assert_eq!(value as u64, rec.trace().dropped());
}

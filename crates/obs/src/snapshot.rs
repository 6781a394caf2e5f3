//! Serializable observability snapshots and the human-readable summary.
//!
//! A snapshot is the frozen aggregate state of a [`MemoryRecorder`]
//! (counters, histogram, probe stats, utilization) — everything except
//! the individual trace events, which the Chrome trace exporter
//! ([`chrome_trace`](crate::export::chrome_trace)) writes out because
//! traces can be large and are usually only wanted for debugging.

use serde::Serialize;

use crate::memory::MemoryRecorder;

/// One named counter value.
#[derive(Debug, Clone, Serialize)]
pub struct CounterSnapshot {
    /// Counter identifier (see `Counter::name`).
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Frozen flow-time histogram.
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSnapshot {
    /// Range lower edge.
    pub lo: f64,
    /// Range upper edge.
    pub hi: f64,
    /// Per-bin counts.
    pub counts: Vec<u64>,
    /// Mass below the range.
    pub underflow: u64,
    /// Mass at or above the range end.
    pub overflow: u64,
    /// Total observations (bins + underflow + overflow).
    pub total: u64,
    /// Sum of every observation (what a Prometheus histogram calls
    /// `_sum`).
    pub sum: f64,
}

/// Aggregated probe statistics for one probe kind.
#[derive(Debug, Clone, Serialize)]
pub struct ProbeSnapshot {
    /// Probe kind identifier (see `ProbeKind::name`).
    pub kind: String,
    /// Probes of this kind.
    pub count: u64,
    /// Iterations summed over all probes of this kind.
    pub total_iterations: u64,
    /// Value carried by the most recent probe.
    pub last_value: f64,
    /// Largest value seen.
    pub max_value: f64,
}

/// The full serializable snapshot of a recorder.
#[derive(Debug, Clone, Serialize)]
pub struct ObsSnapshot {
    /// Counters that fired, in declaration order.
    pub counters: Vec<CounterSnapshot>,
    /// The flow-time histogram.
    pub flow_histogram: HistogramSnapshot,
    /// Per-kind probe aggregates (only kinds that fired).
    pub probes: Vec<ProbeSnapshot>,
    /// Accumulated busy time per machine.
    pub busy_time: Vec<f64>,
    /// Busy time / recorded makespan per machine.
    pub utilization: Vec<f64>,
    /// Largest completion timestamp recorded.
    pub makespan: f64,
    /// Events retained in the trace ring.
    pub trace_len: usize,
    /// Events overwritten because the ring was full.
    pub trace_dropped: u64,
}

impl ObsSnapshot {
    /// Pretty JSON rendering of the snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }
}

/// Renders a compact terminal summary of a recorder: counters, probe
/// aggregates, utilization, and the flow-time histogram sparkline.
/// This is what `flowsched-bench --bin obs` prints next to `SimReport`.
pub fn render_summary(rec: &MemoryRecorder) -> String {
    let mut out = String::new();
    out.push_str("observability summary\n");
    out.push_str("  counters:\n");
    let mut any = false;
    for (c, v) in rec.counters().iter_nonzero() {
        any = true;
        out.push_str(&format!("    {:<26} {v}\n", c.name()));
    }
    if !any {
        out.push_str("    (none fired)\n");
    }
    let snap = rec.snapshot();
    if !snap.probes.is_empty() {
        out.push_str("  solver probes:\n");
        for p in &snap.probes {
            out.push_str(&format!(
                "    {:<18} count={} iterations={} last={:.6} max={:.6}\n",
                p.kind, p.count, p.total_iterations, p.last_value, p.max_value
            ));
        }
    }
    let util = rec.utilization();
    if !util.is_empty() {
        let mean_util: f64 = util.iter().sum::<f64>() / util.len() as f64;
        out.push_str(&format!(
            "  utilization: mean {:.3} over {} machines (makespan {:.3})\n",
            mean_util,
            util.len(),
            rec.makespan_seen()
        ));
    }
    let h = rec.flow_histogram();
    out.push_str(&format!(
        "  flow histogram [{:.1}, {:.1}): {}  (n={}, under={}, over={})\n",
        snap.flow_histogram.lo,
        snap.flow_histogram.hi,
        h.sparkline(),
        h.total(),
        h.underflow(),
        h.overflow()
    ));
    out.push_str(&format!(
        "  trace: {} events retained, {} dropped\n",
        rec.trace().len(),
        rec.trace().dropped()
    ));
    if rec.trace().dropped() > 0 {
        out.push_str(&format!(
            "  WARNING: trace truncated — the ring (capacity {}) overwrote \
             the oldest events; span exports cover the retained tail only\n",
            rec.trace().capacity()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProbeKind;
    use crate::recorder::Recorder;
    use serde::Value;

    fn populated() -> MemoryRecorder {
        let mut r = MemoryRecorder::with_defaults(2);
        r.task_arrival(0, 0.0);
        r.task_dispatch(0, 0, 0.0, 0.0, 2.0);
        r.machine_busy(0, 0.0);
        r.probe(ProbeKind::LoadFeasibility, 5, 1.25);
        r
    }

    #[test]
    fn snapshot_json_round_trips_through_the_vendored_parser() {
        let json = populated().snapshot().to_json();
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(v.get("counters").is_some());
        assert!(v.get("flow_histogram").is_some());
        let hist = v.get("flow_histogram").unwrap();
        assert!(hist.get("counts").is_some());
        assert!(v
            .get("probes")
            .unwrap()
            .get_index(0)
            .unwrap()
            .get("kind")
            .is_some());
    }

    #[test]
    fn summary_mentions_counters_histogram_and_trace() {
        let s = render_summary(&populated());
        assert!(s.contains("tasks_dispatched"));
        assert!(s.contains("flow histogram"));
        assert!(s.contains("load_feasibility"));
        assert!(s.contains("trace: 5 events"));
    }

    #[test]
    fn empty_summary_does_not_panic() {
        let s = render_summary(&MemoryRecorder::with_defaults(0));
        assert!(s.contains("(none fired)"));
    }
}

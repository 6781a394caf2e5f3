//! Flow-time metrics extracted from simulated schedules — batch
//! ([`SimReport::from_schedule`]) or folded online from a streaming run
//! ([`ReportBuilder`]) without ever materializing the flows.

use std::collections::VecDeque;

use flowsched_algos::engine::DispatchSink;
use flowsched_core::instance::Instance;
use flowsched_core::schedule::{Assignment, Schedule};
use flowsched_core::task::{Task, TaskId};
use flowsched_core::time::Time;
use flowsched_stats::descriptive::{mean, quantile};
use flowsched_stats::histogram::Histogram;

/// Aggregated metrics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Number of tasks included in the metrics (after warm-up exclusion).
    pub n_measured: usize,
    /// Maximum flow time (the paper's objective).
    pub fmax: Time,
    /// Maximum *weighted* flow time `max wᵢ·Fᵢ` (Azar–Touitou's
    /// objective); equals [`fmax`](Self::fmax) when every weight is 1.
    pub weighted_fmax: Time,
    /// Mean flow time.
    pub mean_flow: Time,
    /// Median flow time.
    pub p50: Time,
    /// 95th percentile flow time.
    pub p95: Time,
    /// 99th percentile flow time (the "tail latency" of the introduction).
    pub p99: Time,
    /// Maximum stretch `max Fᵢ/pᵢ` (slowdown), Bender et al.'s companion
    /// metric.
    pub max_stretch: Time,
    /// Mean stretch.
    pub mean_stretch: Time,
    /// Per-machine busy-time fraction of the makespan.
    pub utilization: Vec<f64>,
    /// Saturation heuristic: mean flow of the last quarter of tasks
    /// divided by the mean flow of the first quarter (after warm-up).
    /// Values ≫ 1 indicate an unstable (overloaded) system where flow
    /// grows with time.
    pub drift: f64,
}

impl SimReport {
    /// Computes the report from a schedule, ignoring the first
    /// `warmup_tasks` tasks in the flow statistics (utilization still
    /// covers the whole run).
    ///
    /// # Panics
    /// Panics if warm-up excludes every task of a non-empty instance.
    pub fn from_schedule(schedule: &Schedule, inst: &Instance, warmup_tasks: usize) -> Self {
        let n = inst.len();
        if n == 0 {
            return SimReport {
                n_measured: 0,
                fmax: 0.0,
                weighted_fmax: 0.0,
                mean_flow: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max_stretch: 0.0,
                mean_stretch: 0.0,
                utilization: vec![0.0; inst.machines()],
                drift: 1.0,
            };
        }
        assert!(warmup_tasks < n, "warm-up excludes every task");
        let flows: Vec<Time> = (warmup_tasks..n)
            .map(|i| schedule.flow_time(TaskId(i), inst))
            .collect();
        let weighted_fmax = (warmup_tasks..n)
            .map(|i| inst.task(TaskId(i)).weight * schedule.flow_time(TaskId(i), inst))
            .fold(0.0, f64::max);
        let stretches: Vec<Time> = (warmup_tasks..n)
            .map(|i| schedule.stretch(TaskId(i), inst))
            .collect();

        let makespan = schedule.makespan(inst);
        let mut busy = vec![0.0_f64; inst.machines()];
        for (id, task, _) in inst.iter() {
            busy[schedule.machine(id).index()] += task.ptime;
        }
        let utilization = busy
            .iter()
            .map(|&b| if makespan > 0.0 { b / makespan } else { 0.0 })
            .collect();

        let quarter = (flows.len() / 4).max(1);
        let head = mean(&flows[..quarter]);
        let tail = mean(&flows[flows.len() - quarter..]);
        // A degenerate schedule (all-zero or non-finite flows) has no
        // meaningful trend; report the neutral drift of 1.0 rather than
        // NaN/inf so `looks_saturated` stays well-defined.
        let drift = if head.is_finite() && head > 0.0 {
            tail / head
        } else {
            1.0
        };

        SimReport {
            n_measured: flows.len(),
            fmax: flows.iter().cloned().fold(0.0, f64::max),
            weighted_fmax,
            mean_flow: mean(&flows),
            p50: quantile(&flows, 0.5),
            p95: quantile(&flows, 0.95),
            p99: quantile(&flows, 0.99),
            max_stretch: stretches.iter().cloned().fold(0.0, f64::max),
            mean_stretch: mean(&stretches),
            utilization,
            drift,
        }
    }

    /// True when the drift heuristic indicates an overloaded system.
    pub fn looks_saturated(&self) -> bool {
        self.drift > 2.0
    }
}

/// How a [`ReportBuilder`] folds a stream into a [`SimReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReportConfig {
    /// Tasks excluded from the flow statistics, counted from the front
    /// of the stream (warmup by prefix count — the streaming analogue
    /// of [`SimConfig::warmup_fraction`](crate::SimConfig)).
    pub warmup_tasks: usize,
    /// Expected number of *measured* (post-warmup) tasks, when known.
    /// Sizes the drift quarters so that a hinted run reproduces the
    /// batch drift exactly; `None` falls back to a fixed 1024-task
    /// window (drift stays exact up to ~4k measured tasks, then becomes
    /// a bounded-window approximation).
    pub expected_measured: Option<usize>,
}

/// Streaming [`SimReport`] fold: a [`DispatchSink`] that consumes
/// `(task, assignment)` pairs straight from an engine and maintains
/// every report field online. Memory is O(machines + histogram bins +
/// drift window) — independent of the number of tasks, which is what
/// lets a million-task stream produce a full report without a schedule
/// ever existing.
///
/// Exactness contract versus [`SimReport::from_schedule`] on the same
/// run: `n_measured`, `fmax`, `weighted_fmax`, `mean_flow`, `max_stretch`,
/// `mean_stretch`, `utilization` are bit-identical (same fold order);
/// `drift` is bit-identical while the quarter window fits (see
/// [`ReportConfig::expected_measured`]); `p50/p95/p99` are bit-identical
/// whenever flows sit on histogram bin edges, and within one bin width
/// otherwise. `tests/streaming_equivalence.rs` pins this.
#[derive(Debug, Clone)]
pub struct ReportBuilder {
    warmup: usize,
    seen: usize,
    n: usize,
    sum_flow: f64,
    fmax: f64,
    weighted_fmax: f64,
    sum_stretch: f64,
    max_stretch: f64,
    hist: Histogram,
    /// First `window` measured flows (head of the drift ratio).
    head: Vec<f64>,
    /// Last ≤ `window` measured flows (tail of the drift ratio).
    tail: VecDeque<f64>,
    window: usize,
    busy: Vec<f64>,
    makespan: f64,
}

impl ReportBuilder {
    /// Flow histogram range `[lo, hi)` backing the online percentile
    /// estimates. Flows outside it clamp to the nearest edge.
    const HIST_RANGE: (f64, f64) = (0.0, 1024.0);
    /// Histogram bins, a quarter time unit wide: percentiles are exact
    /// when flows land on bin lower edges (quarter-integer flows) and
    /// off by at most a bin width otherwise.
    const HIST_BINS: usize = 4096;

    /// Fresh fold for a run on `m` machines.
    pub fn new(m: usize, config: &ReportConfig) -> Self {
        let window = config.expected_measured.map_or(1024, |n| (n / 4).max(1));
        ReportBuilder {
            warmup: config.warmup_tasks,
            seen: 0,
            n: 0,
            sum_flow: 0.0,
            fmax: 0.0,
            weighted_fmax: 0.0,
            sum_stretch: 0.0,
            max_stretch: 0.0,
            hist: Histogram::new(Self::HIST_RANGE.0, Self::HIST_RANGE.1, Self::HIST_BINS),
            head: Vec::new(),
            tail: VecDeque::new(),
            window,
            busy: vec![0.0; m],
            makespan: 0.0,
        }
    }

    /// Tasks folded in so far (including warmup).
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Finalizes the fold.
    ///
    /// # Panics
    /// Panics if warm-up excluded every task of a non-empty run
    /// (mirroring [`SimReport::from_schedule`]).
    pub fn finish(self) -> SimReport {
        if self.seen == 0 {
            return SimReport {
                n_measured: 0,
                fmax: 0.0,
                weighted_fmax: 0.0,
                mean_flow: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max_stretch: 0.0,
                mean_stretch: 0.0,
                utilization: vec![0.0; self.busy.len()],
                drift: 1.0,
            };
        }
        assert!(self.n > 0, "warm-up excludes every task");
        let utilization = self
            .busy
            .iter()
            .map(|&b| {
                if self.makespan > 0.0 {
                    b / self.makespan
                } else {
                    0.0
                }
            })
            .collect();
        // The same quarter the batch report uses, clamped to what the
        // bounded windows retained.
        let quarter = (self.n / 4).max(1).min(self.window);
        let head = mean(&self.head[..quarter.min(self.head.len())]);
        let tail_flows: Vec<f64> = self
            .tail
            .iter()
            .copied()
            .skip(self.tail.len().saturating_sub(quarter))
            .collect();
        let tail = mean(&tail_flows);
        let drift = if head.is_finite() && head > 0.0 {
            tail / head
        } else {
            1.0
        };
        SimReport {
            n_measured: self.n,
            fmax: self.fmax,
            weighted_fmax: self.weighted_fmax,
            mean_flow: self.sum_flow / self.n as f64,
            p50: self.hist.quantile(0.5).unwrap_or(0.0),
            p95: self.hist.quantile(0.95).unwrap_or(0.0),
            p99: self.hist.quantile(0.99).unwrap_or(0.0),
            max_stretch: self.max_stretch,
            mean_stretch: self.sum_stretch / self.n as f64,
            utilization,
            drift,
        }
    }
}

impl DispatchSink for ReportBuilder {
    fn accept(&mut self, _seq: u64, task: Task, assignment: Assignment) {
        let completion = assignment.start + task.ptime;
        // Utilization and makespan cover the whole run, warmup included,
        // exactly as the batch report does.
        self.busy[assignment.machine.index()] += task.ptime;
        self.makespan = self.makespan.max(completion);
        self.seen += 1;
        if self.seen <= self.warmup {
            return;
        }
        let flow = completion - task.release;
        let stretch = flow / task.ptime;
        self.n += 1;
        self.sum_flow += flow;
        self.fmax = self.fmax.max(flow);
        self.weighted_fmax = self.weighted_fmax.max(task.weight * flow);
        self.sum_stretch += stretch;
        self.max_stretch = self.max_stretch.max(stretch);
        self.hist.record(flow);
        if self.head.len() < self.window {
            self.head.push(flow);
        }
        if self.tail.len() == self.window {
            self.tail.pop_front();
        }
        self.tail.push_back(flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::{eft, TieBreak};
    use flowsched_core::instance::InstanceBuilder;
    use flowsched_core::procset::ProcSet;

    fn light_instance() -> Instance {
        // One task per step on 2 machines: flow 1 for everyone.
        let mut b = InstanceBuilder::new(2);
        for t in 0..40 {
            b.push_unit(t as f64, ProcSet::full(2));
        }
        b.build().unwrap()
    }

    #[test]
    fn light_load_report() {
        let inst = light_instance();
        let s = eft(&inst, TieBreak::Min);
        let r = SimReport::from_schedule(&s, &inst, 0);
        assert_eq!(r.n_measured, 40);
        assert_eq!(r.fmax, 1.0);
        assert_eq!(r.p50, 1.0);
        assert!((r.drift - 1.0).abs() < 1e-9);
        assert!(!r.looks_saturated());
    }

    #[test]
    fn weighted_fmax_tracks_weights() {
        use flowsched_core::task::Task;
        let inst = light_instance();
        let s = eft(&inst, TieBreak::Min);
        let r = SimReport::from_schedule(&s, &inst, 0);
        // All weights default to 1 → the two maxima coincide.
        assert_eq!(r.weighted_fmax, r.fmax);

        // A weighted task dominates even with a modest flow.
        let mut b = InstanceBuilder::new(1);
        b.push(Task::new(0.0, 2.0), ProcSet::full(1));
        b.push(Task::unit(0.0).with_weight(10.0), ProcSet::full(1));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        let r = SimReport::from_schedule(&s, &inst, 0);
        // Weighted task completes at 3 (flow 3, weight 10).
        assert_eq!(r.fmax, 3.0);
        assert_eq!(r.weighted_fmax, 30.0);
    }

    #[test]
    fn stretch_matches_flow_for_unit_tasks() {
        let inst = light_instance();
        let s = eft(&inst, TieBreak::Min);
        let r = SimReport::from_schedule(&s, &inst, 0);
        // Unit tasks: stretch == flow.
        assert_eq!(r.max_stretch, r.fmax);
        assert_eq!(r.mean_stretch, r.mean_flow);
    }

    #[test]
    fn short_tasks_dominate_stretch() {
        use flowsched_core::task::Task;
        // A short task stuck behind a long one has huge stretch but small
        // flow relative to the long task's.
        let mut b = InstanceBuilder::new(1);
        b.push(Task::new(0.0, 10.0), ProcSet::full(1));
        b.push(Task::new(0.0, 0.25), ProcSet::full(1));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        let r = SimReport::from_schedule(&s, &inst, 0);
        // Short task completes at 10.25: flow 10.25, stretch 41.
        assert_eq!(r.max_stretch, 41.0);
        assert!((r.fmax - 10.25).abs() < 1e-12);
    }

    #[test]
    fn overload_shows_drift() {
        // 3 tasks per step on 1 machine: backlog grows linearly.
        let mut b = InstanceBuilder::new(1);
        for t in 0..30 {
            for _ in 0..3 {
                b.push_unit(t as f64, ProcSet::full(1));
            }
        }
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        let r = SimReport::from_schedule(&s, &inst, 0);
        assert!(r.drift > 2.0, "drift {d}", d = r.drift);
        assert!(r.looks_saturated());
        assert!(r.fmax > 30.0);
    }

    #[test]
    fn warmup_excludes_initial_tasks() {
        // A pathological first task, calm afterwards.
        let mut b = InstanceBuilder::new(1);
        for _ in 0..5 {
            b.push_unit(0.0, ProcSet::full(1));
        }
        for t in 10..30 {
            b.push_unit(t as f64, ProcSet::full(1));
        }
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        let all = SimReport::from_schedule(&s, &inst, 0);
        let warm = SimReport::from_schedule(&s, &inst, 5);
        assert!(all.fmax >= 5.0);
        assert_eq!(warm.fmax, 1.0);
        assert_eq!(warm.n_measured, 20);
    }

    #[test]
    fn utilization_reflects_assignment() {
        let inst = light_instance();
        let s = eft(&inst, TieBreak::Min);
        let r = SimReport::from_schedule(&s, &inst, 0);
        // All tasks land on M1 (always idle when the next arrives).
        assert!(r.utilization[0] > 0.9);
        assert_eq!(r.utilization[1], 0.0);
    }

    #[test]
    fn empty_instance_report() {
        let inst = Instance::unrestricted(2, vec![]).unwrap();
        let s = eft(&inst, TieBreak::Min);
        let r = SimReport::from_schedule(&s, &inst, 0);
        assert_eq!(r.n_measured, 0);
        assert_eq!(r.fmax, 0.0);
    }

    #[test]
    fn all_zero_flows_give_neutral_drift_not_nan() {
        use flowsched_core::machine::MachineId;
        use flowsched_core::schedule::Assignment;
        use flowsched_core::task::Task;
        // Valid instances always have positive flows (ptime > 0), so the
        // degenerate head == 0.0 case needs a hand-built schedule whose
        // starts pre-date the releases: flow = start + p − r = 0 for all.
        let inst =
            Instance::unrestricted(1, (0..8).map(|_| Task::new(1.0, 1.0)).collect()).unwrap();
        let s = Schedule::new((0..8).map(|_| Assignment::new(MachineId(0), 0.0)).collect());
        let r = SimReport::from_schedule(&s, &inst, 0);
        assert!(r.drift.is_finite(), "drift must not be NaN/inf");
        assert_eq!(r.drift, 1.0);
        assert!(!r.looks_saturated());
    }

    #[test]
    #[should_panic(expected = "warm-up excludes")]
    fn oversized_warmup_rejected() {
        let inst = light_instance();
        let s = eft(&inst, TieBreak::Min);
        let _ = SimReport::from_schedule(&s, &inst, 40);
    }
}

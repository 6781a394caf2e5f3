//! Live SLO monitoring against the paper's competitive-ratio envelopes.
//!
//! The paper gives exact online targets: EFT is `3 − 2/k`-competitive
//! for disjoint processing sets of size `k` (Corollary 1), and interval
//! processing sets admit an `m − k + 1` adversary lower bound
//! (Theorem 8), so a live run whose max-flow ratio crosses those
//! envelopes is either off-model or mis-configured. [`SloMonitor`] is a
//! [`Recorder`] that rides along any instrumented run (typically one
//! half of a [`Tee`](crate::recorder::Tee)), folds the dispatch stream
//! into [`WindowedMetrics`] tumbling windows, tracks the per-window
//! observed `Fmax` and a running OPT proxy, and flags every window whose
//! `Fmax / OPT-proxy` ratio crosses the configured [`SloEnvelope`].
//!
//! The default OPT proxy is the largest processing time seen so far: any
//! schedule's max flow is at least its largest `ptime` (a task's flow is
//! at least its service time), so the proxy is a certified lower bound
//! on OPT and the reported ratio an *upper* bound on the true
//! competitive ratio — breaches may be conservative false alarms, never
//! silent misses relative to the proxy. When the exact offline optimum
//! is known (tests, replayed traces) [`SloMonitor::with_exact_opt`]
//! replaces the proxy.
//!
//! Breaches flow back through the ordinary recorder machinery:
//! [`SloMonitor::emit_into`] calls
//! [`Recorder::slo_breach`] per
//! breached window, which a [`MemoryRecorder`](crate::MemoryRecorder)
//! turns into a [`Counter::SloBreaches`](crate::Counter) bump and an
//! [`Event::SloBreach`](crate::Event) trace row — so breaches appear in
//! Chrome traces and Prometheus text alongside everything else.

use crate::counters::Counter;
use crate::event::ProbeKind;
use crate::recorder::Recorder;
use crate::window::{WindowConfig, WindowedMetrics};

/// Which theoretical envelope a monitor alarms against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloEnvelope {
    /// Corollary 1: with disjoint processing sets of size `k`, EFT is
    /// `(3 − 2/k)`-competitive — the envelope every healthy disjoint-set
    /// run must stay inside.
    DisjointSets {
        /// Common processing-set size.
        k: usize,
    },
    /// Theorem 8: with interval processing sets of size `k` over `m`
    /// machines, *no* online algorithm beats `m − k + 1`; the monitor
    /// uses it as an adversary anchor — ratios above it mean the run is
    /// doing worse than even the adversarial lower bound.
    IntervalSets {
        /// Machine count.
        m: usize,
        /// Interval length.
        k: usize,
    },
    /// A fixed custom bound (operational SLOs that are tighter or looser
    /// than the theory).
    Fixed(
        /// The ratio above which windows are flagged.
        f64,
    ),
}

impl SloEnvelope {
    /// The ratio bound this envelope flags above.
    pub fn bound(&self) -> f64 {
        match *self {
            SloEnvelope::DisjointSets { k } => 3.0 - 2.0 / k.max(1) as f64,
            SloEnvelope::IntervalSets { m, k } => (m.saturating_sub(k) + 1).max(1) as f64,
            SloEnvelope::Fixed(b) => b,
        }
    }
}

/// One breached window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloBreach {
    /// Window index in the monitor's tumbling series.
    pub window: usize,
    /// End of the breached window (the event timestamp).
    pub at: f64,
    /// Observed `Fmax / OPT-proxy` ratio in the window.
    pub ratio: f64,
    /// The envelope bound that was crossed.
    pub bound: f64,
}

/// The theory-aware SLO monitor (see the module docs).
#[derive(Debug, Clone)]
pub struct SloMonitor {
    envelope: SloEnvelope,
    metrics: WindowedMetrics,
    /// Exact max flow completed per window (same indexing as `metrics`).
    window_fmax: Vec<f64>,
    /// Running max flow over the whole run.
    fmax: f64,
    /// Running max ptime — a certified lower bound on OPT's Fmax.
    max_ptime: f64,
    exact_opt: Option<f64>,
}

impl SloMonitor {
    /// A monitor with [`WindowConfig::defaults`] windows of `width` over
    /// `machines` machines.
    pub fn new(machines: usize, width: f64, envelope: SloEnvelope) -> Self {
        SloMonitor::with_config(WindowConfig::defaults(machines, width), envelope)
    }

    /// A monitor over an explicit window configuration.
    ///
    /// # Panics
    /// Panics on the same degenerate configs [`WindowedMetrics::new`]
    /// rejects.
    pub fn with_config(cfg: WindowConfig, envelope: SloEnvelope) -> Self {
        SloMonitor {
            envelope,
            metrics: WindowedMetrics::new(cfg),
            window_fmax: Vec::new(),
            fmax: 0.0,
            max_ptime: 0.0,
            exact_opt: None,
        }
    }

    /// Replaces the running OPT proxy with a known exact optimum.
    pub fn with_exact_opt(mut self, opt: f64) -> Self {
        self.exact_opt = Some(opt);
        self
    }

    /// The envelope this monitor alarms against.
    pub fn envelope(&self) -> SloEnvelope {
        self.envelope
    }

    /// The underlying tumbling-window series.
    pub fn metrics(&self) -> &WindowedMetrics {
        &self.metrics
    }

    /// Largest flow time observed so far.
    pub fn fmax(&self) -> f64 {
        self.fmax
    }

    /// The OPT lower bound ratios divide by: the exact optimum when
    /// supplied, else the largest processing time seen.
    pub fn opt_proxy(&self) -> f64 {
        self.exact_opt.unwrap_or(self.max_ptime)
    }

    /// Whole-run `Fmax / OPT-proxy` ratio (0 before any dispatch).
    pub fn ratio(&self) -> f64 {
        let opt = self.opt_proxy();
        if opt > 0.0 {
            self.fmax / opt
        } else {
            0.0
        }
    }

    /// Per-window ratios: `(window, Fmax_window / OPT-proxy)` for every
    /// window in which at least one task completed.
    pub fn window_ratios(&self) -> Vec<(usize, f64)> {
        let opt = self.opt_proxy();
        if opt <= 0.0 {
            return Vec::new();
        }
        self.window_fmax
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0.0)
            .map(|(k, &f)| (k, f / opt))
            .collect()
    }

    /// Every window whose ratio strictly exceeds the envelope bound.
    ///
    /// Note the OPT proxy is *global* (monotone over the run) while the
    /// window `Fmax` is local, so a breach list computed mid-run can
    /// only shrink as a later, larger `ptime` raises the proxy — the
    /// final call after the run is the authoritative one.
    pub fn breaches(&self) -> Vec<SloBreach> {
        let bound = self.envelope.bound();
        let width = self.metrics.width();
        self.window_ratios()
            .into_iter()
            .filter(|&(_, ratio)| ratio > bound)
            .map(|(window, ratio)| SloBreach {
                window,
                at: (window + 1) as f64 * width,
                ratio,
                bound,
            })
            .collect()
    }

    /// Emits every breached window into `rec` via
    /// [`Recorder::slo_breach`] and returns the breach count. Call once
    /// after the run (or at checkpoint boundaries) so the breaches land
    /// in the same trace/counter machinery as the engine events.
    pub fn emit_into<R: Recorder>(&self, rec: &mut R) -> usize {
        let breaches = self.breaches();
        if R::ENABLED {
            for b in &breaches {
                rec.slo_breach(b.at, b.ratio, b.bound);
            }
        }
        breaches.len()
    }
}

impl Recorder for SloMonitor {
    #[inline]
    fn task_arrival(&mut self, task: u64, at: f64) {
        self.metrics.task_arrival(task, at);
    }

    fn task_dispatch(&mut self, task: u64, machine: u32, release: f64, start: f64, ptime: f64) {
        let completion = start + ptime;
        let flow = completion - release;
        if ptime > self.max_ptime {
            self.max_ptime = ptime;
        }
        if flow > self.fmax {
            self.fmax = flow;
        }
        let k = self.metrics.index_of(completion);
        if self.window_fmax.len() <= k {
            self.window_fmax.resize(k + 1, 0.0);
        }
        if flow > self.window_fmax[k] {
            self.window_fmax[k] = flow;
        }
        self.metrics
            .task_dispatch(task, machine, release, start, ptime);
    }

    #[inline]
    fn machine_busy(&mut self, _machine: u32, _at: f64) {}

    #[inline]
    fn machine_idle(&mut self, _machine: u32, _at: f64) {}

    #[inline]
    fn probe(&mut self, _kind: ProbeKind, _iterations: u64, _value: f64) {}

    #[inline]
    fn add(&mut self, _c: Counter, _delta: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::memory::MemoryRecorder;

    #[test]
    fn envelope_bounds_match_the_paper() {
        assert_eq!(SloEnvelope::DisjointSets { k: 1 }.bound(), 1.0);
        assert_eq!(SloEnvelope::DisjointSets { k: 2 }.bound(), 2.0);
        assert_eq!(SloEnvelope::DisjointSets { k: 4 }.bound(), 2.5);
        assert_eq!(SloEnvelope::IntervalSets { m: 6, k: 2 }.bound(), 5.0);
        assert_eq!(SloEnvelope::IntervalSets { m: 3, k: 3 }.bound(), 1.0);
        assert_eq!(SloEnvelope::Fixed(1.75).bound(), 1.75);
    }

    #[test]
    fn healthy_run_has_no_breaches() {
        let mut mon = SloMonitor::new(2, 4.0, SloEnvelope::DisjointSets { k: 2 });
        // Unit tasks dispatched immediately: every flow equals ptime, so
        // every ratio is 1.0 < 2.0.
        for i in 0..10u64 {
            let r = i as f64 * 0.5;
            mon.task_arrival(i, r);
            mon.task_dispatch(i, (i % 2) as u32, r, r, 1.0);
        }
        assert_eq!(mon.ratio(), 1.0);
        assert!(mon.breaches().is_empty());
        let mut rec = MemoryRecorder::with_defaults(2);
        assert_eq!(mon.emit_into(&mut rec), 0);
        assert_eq!(rec.counters().get(Counter::SloBreaches), 0);
    }

    #[test]
    fn queueing_past_the_envelope_is_flagged_and_emitted() {
        let mut mon = SloMonitor::new(1, 4.0, SloEnvelope::DisjointSets { k: 2 });
        // Unit ptimes (OPT proxy 1.0) but one task waits 3 units: flow
        // 4.0 → ratio 4.0 > bound 2.0, completing at t=7 (window 1).
        mon.task_dispatch(0, 0, 0.0, 0.0, 1.0);
        mon.task_dispatch(1, 0, 3.0, 6.0, 1.0);
        assert_eq!(mon.fmax(), 4.0);
        assert_eq!(mon.opt_proxy(), 1.0);
        let breaches = mon.breaches();
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].window, 1);
        assert_eq!(breaches[0].at, 8.0);
        assert_eq!(breaches[0].ratio, 4.0);
        assert_eq!(breaches[0].bound, 2.0);

        let mut rec = MemoryRecorder::with_defaults(1);
        assert_eq!(mon.emit_into(&mut rec), 1);
        assert_eq!(rec.counters().get(Counter::SloBreaches), 1);
        assert_eq!(
            rec.trace().to_vec(),
            vec![Event::SloBreach {
                at: 8.0,
                ratio: 4.0,
                bound: 2.0
            }]
        );
    }

    #[test]
    fn exact_opt_overrides_the_proxy() {
        let mut mon = SloMonitor::new(1, 4.0, SloEnvelope::Fixed(3.0)).with_exact_opt(2.0);
        mon.task_dispatch(0, 0, 0.0, 0.0, 1.0);
        mon.task_dispatch(1, 0, 0.0, 5.0, 1.0);
        // Fmax 6.0 over exact OPT 2.0 → ratio 3.0, not 6.0.
        assert_eq!(mon.ratio(), 3.0);
        assert!(mon.breaches().is_empty(), "3.0 is not strictly above 3.0");
    }

    #[test]
    fn empty_monitor_reports_zero_ratio() {
        let mon = SloMonitor::new(2, 1.0, SloEnvelope::DisjointSets { k: 3 });
        assert_eq!(mon.ratio(), 0.0);
        assert!(mon.window_ratios().is_empty());
        assert!(mon.breaches().is_empty());
    }

    #[test]
    fn later_larger_ptime_raises_the_proxy_and_clears_false_alarms() {
        let mut mon = SloMonitor::new(1, 4.0, SloEnvelope::Fixed(2.0));
        mon.task_dispatch(0, 0, 0.0, 2.5, 1.0); // flow 3.5, proxy 1.0 → ratio 3.5
        assert_eq!(mon.breaches().len(), 1);
        mon.task_dispatch(1, 0, 3.5, 3.5, 4.0); // proxy jumps to 4.0
        assert!(mon.breaches().is_empty(), "proxy growth absolves window 0");
    }
}

//! Tumbling-window time-series metrics.
//!
//! The aggregate recorders answer "how did the run end up?"; this module
//! answers "when did it happen?". [`WindowedMetrics`] is a [`Recorder`]
//! that folds the hook stream into tumbling windows of width
//! [`WindowConfig::width`]: per-window arrival / start / completion
//! counts, time-averaged queue depth, per-machine utilization, and a
//! small per-window flow histogram for windowed percentiles.
//!
//! Memory is `O(#windows × (#machines + flow_bins))` and completely
//! independent of the task count, so a million-task stream with windowed
//! telemetry stays inside the `tests/streaming_memory.rs` RSS bound. The
//! window bank grows on demand (amortized, geometric — the only
//! allocation recording ever does) and is hard-capped at
//! [`WindowConfig::max_windows`]; past the cap the final window absorbs
//! the remainder of time, so a pathological makespan degrades resolution
//! instead of memory.
//!
//! Everything is derived from `task_dispatch` alone (plus `task_arrival`
//! for arrival counts): immediate-dispatch engines project completions
//! at dispatch time, so the span `[start, start + ptime)` is attributed
//! to busy time and `[release, start)` to queueing the moment the task
//! is placed — out-of-order window writes are fine because windows are
//! indexed by time, not visit order. `machine_busy`/`machine_idle`
//! transitions and solver probes are intentionally ignored; they carry
//! no information the dispatch span does not.

use flowsched_stats::histogram::Histogram;

use crate::counters::Counter;
use crate::event::ProbeKind;
use crate::recorder::Recorder;

/// Construction parameters for [`WindowedMetrics`].
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Machines the run uses (sizes each window's busy-time bank).
    pub machines: usize,
    /// Tumbling-window width in engine time units.
    pub width: f64,
    /// Per-window flow histogram lower edge.
    pub flow_lo: f64,
    /// Per-window flow histogram upper edge.
    pub flow_hi: f64,
    /// Per-window flow histogram bin count (kept small — windows are
    /// many, so each histogram should be cheap).
    pub flow_bins: usize,
    /// Hard cap on the number of windows; the last window covers
    /// `[(max_windows − 1) × width, ∞)` so late events degrade
    /// resolution, never memory.
    pub max_windows: usize,
}

impl WindowConfig {
    /// Sensible defaults: 32 flow bins over `[0, 64)`, 65 536 windows.
    pub fn defaults(machines: usize, width: f64) -> Self {
        WindowConfig {
            machines,
            width,
            flow_lo: 0.0,
            flow_hi: 64.0,
            flow_bins: 32,
            max_windows: 1 << 16,
        }
    }
}

/// Aggregates for one tumbling window `[k·width, (k+1)·width)`.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Tasks released in the window.
    pub arrivals: u64,
    /// Tasks whose service started in the window.
    pub starts: u64,
    /// Tasks whose (projected) completion falls in the window.
    pub completions: u64,
    /// Task-time spent waiting (released but not yet started) inside the
    /// window; divide by the width for the time-averaged queue depth.
    pub queue_time: f64,
    /// Busy time accumulated inside the window, per machine.
    pub busy: Vec<f64>,
    /// Flow times of the completions that fell in this window.
    pub flow_hist: Histogram,
}

impl WindowStats {
    fn new(cfg: &WindowConfig) -> Self {
        WindowStats {
            arrivals: 0,
            starts: 0,
            completions: 0,
            queue_time: 0.0,
            busy: vec![0.0; cfg.machines],
            flow_hist: Histogram::new(cfg.flow_lo, cfg.flow_hi, cfg.flow_bins),
        }
    }

    /// Time-averaged number of waiting tasks over the window.
    pub fn mean_queue_depth(&self, width: f64) -> f64 {
        self.queue_time / width
    }

    /// Per-machine busy fraction of the window.
    pub fn utilization(&self, width: f64) -> Vec<f64> {
        self.busy.iter().map(|&b| b / width).collect()
    }

    /// Busy fraction averaged over machines.
    pub fn mean_utilization(&self, width: f64) -> f64 {
        if self.busy.is_empty() {
            return 0.0;
        }
        self.busy.iter().sum::<f64>() / (width * self.busy.len() as f64)
    }

    fn merge(&mut self, other: &WindowStats) {
        self.arrivals += other.arrivals;
        self.starts += other.starts;
        self.completions += other.completions;
        self.queue_time += other.queue_time;
        for (b, o) in self.busy.iter_mut().zip(&other.busy) {
            *b += o;
        }
        self.flow_hist.merge(&other.flow_hist);
    }
}

/// The tumbling-window time-series recorder (see the module docs).
///
/// Windows are created lazily up to the highest timestamp seen, so
/// [`WindowedMetrics::windows`] always covers `[0, windows·width)` with
/// no holes.
#[derive(Debug, Clone)]
pub struct WindowedMetrics {
    cfg: WindowConfig,
    windows: Vec<WindowStats>,
}

impl WindowedMetrics {
    /// Builds an empty time series.
    ///
    /// # Panics
    /// Panics unless the width is positive and finite and
    /// `max_windows ≥ 1`.
    pub fn new(cfg: WindowConfig) -> Self {
        assert!(
            cfg.width.is_finite() && cfg.width > 0.0,
            "window width must be positive"
        );
        assert!(cfg.max_windows >= 1, "need at least one window");
        WindowedMetrics {
            cfg,
            windows: Vec::new(),
        }
    }

    /// The configuration this series was built with.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Window width in engine time units.
    pub fn width(&self) -> f64 {
        self.cfg.width
    }

    /// The windows materialized so far (index `k` covers
    /// `[k·width, (k+1)·width)`).
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// Which window a timestamp falls in (clamped to the cap).
    pub fn index_of(&self, t: f64) -> usize {
        ((t.max(0.0) / self.cfg.width) as usize).min(self.cfg.max_windows - 1)
    }

    /// Folds another series into this one window-by-window.
    ///
    /// # Panics
    /// Panics when the two series disagree on width, machine count,
    /// window cap, or flow-histogram shape.
    pub fn merge(&mut self, other: &WindowedMetrics) {
        let shape = |w: &Self| (w.cfg.width.to_bits(), w.cfg.machines, w.cfg.max_windows);
        assert_eq!(
            shape(self),
            shape(other),
            "windowed merge requires identical width, machine count and window cap"
        );
        if let Some(last) = other.windows.len().checked_sub(1) {
            self.ensure(last);
        }
        for (w, o) in self.windows.iter_mut().zip(&other.windows) {
            w.merge(o);
        }
    }

    /// Materialises every window up to `k`.
    fn ensure(&mut self, k: usize) {
        while self.windows.len() <= k {
            self.windows.push(WindowStats::new(&self.cfg));
        }
    }

    /// Hands each window that `[from, to)` overlaps, from `k =
    /// index_of(from)` on, its overlap length; the capped final window
    /// absorbs everything past the cap. Windows up to `index_of(to)`
    /// must exist: a positive overlap needs `to > k·width`.
    fn spread(&mut self, k: usize, from: f64, to: f64, mut f: impl FnMut(&mut WindowStats, f64)) {
        // `partial_cmp` so NaN endpoints bail out instead of looping.
        if to.partial_cmp(&from) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let width = self.cfg.width;
        let last = self.cfg.max_windows - 1;
        for k in k..=last {
            let win_start = k as f64 * width;
            let win_end = if k == last {
                f64::INFINITY
            } else {
                win_start + width
            };
            let overlap = to.min(win_end) - from.max(win_start);
            if overlap > 0.0 {
                f(&mut self.windows[k], overlap);
            }
            if to <= win_end {
                break;
            }
        }
    }
}

impl Recorder for WindowedMetrics {
    #[inline]
    fn task_arrival(&mut self, _task: u64, at: f64) {
        let k = self.index_of(at);
        self.ensure(k);
        self.windows[k].arrivals += 1;
    }

    #[inline]
    fn task_dispatch(&mut self, _task: u64, machine: u32, release: f64, start: f64, ptime: f64) {
        let completion = start + ptime;
        let (ks, kc) = (self.index_of(start), self.index_of(completion));
        self.ensure(ks.max(kc));
        self.windows[ks].starts += 1;
        let w = &mut self.windows[kc];
        w.completions += 1;
        w.flow_hist.record(completion - release);
        if start > release {
            let kr = self.index_of(release);
            self.spread(kr, release, start, |w, dt| w.queue_time += dt);
        }
        let m = machine as usize;
        self.spread(ks, start, completion, |w, dt| {
            if let Some(b) = w.busy.get_mut(m) {
                *b += dt;
            }
        });
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

    fn series(width: f64) -> WindowedMetrics {
        WindowedMetrics::new(WindowConfig::defaults(2, width))
    }

    #[test]
    fn dispatch_splits_busy_time_across_windows() {
        let mut w = series(1.0);
        // Service [0.5, 2.5) on machine 0: 0.5 in window 0, 1.0 in
        // window 1, 0.5 in window 2.
        w.task_dispatch(0, 0, 0.5, 0.5, 2.0);
        assert_eq!(w.windows().len(), 3);
        assert_eq!(w.windows()[0].busy, vec![0.5, 0.0]);
        assert_eq!(w.windows()[1].busy, vec![1.0, 0.0]);
        assert_eq!(w.windows()[2].busy, vec![0.5, 0.0]);
        assert_eq!(w.windows()[0].starts, 1);
        assert_eq!(w.windows()[2].completions, 1);
        assert_eq!(w.windows()[2].flow_hist.total(), 1);
    }

    #[test]
    fn waiting_time_lands_in_queue_depth() {
        let mut w = series(1.0);
        // Released at 0, starts at 2: waits through windows 0 and 1.
        w.task_arrival(0, 0.0);
        w.task_dispatch(0, 1, 0.0, 2.0, 0.5);
        assert_eq!(w.windows()[0].arrivals, 1);
        assert_eq!(w.windows()[0].mean_queue_depth(1.0), 1.0);
        assert_eq!(w.windows()[1].mean_queue_depth(1.0), 1.0);
        assert_eq!(w.windows()[2].mean_queue_depth(1.0), 0.0);
        assert_eq!(w.windows()[2].busy, vec![0.0, 0.5]);
    }

    #[test]
    fn busy_time_is_conserved_across_the_split() {
        let mut w = series(0.7);
        let jobs = [(0.0, 0.3, 2.0), (1.1, 1.5, 3.3), (2.0, 2.0, 0.1)];
        for (i, &(rel, start, p)) in jobs.iter().enumerate() {
            w.task_dispatch(i as u64, 0, rel, start, p);
        }
        let total: f64 = w.windows().iter().map(|win| win.busy[0]).sum();
        let expected: f64 = jobs.iter().map(|&(_, _, p)| p).sum();
        assert!((total - expected).abs() < 1e-9);
        let queued: f64 = w.windows().iter().map(|win| win.queue_time).sum();
        let expected_wait: f64 = jobs.iter().map(|&(r, s, _)| s - r).sum();
        assert!((queued - expected_wait).abs() < 1e-9);
    }

    #[test]
    fn capped_final_window_absorbs_late_events() {
        let mut cfg = WindowConfig::defaults(1, 1.0);
        cfg.max_windows = 4;
        let mut w = WindowedMetrics::new(cfg);
        // Service [2.0, 100.0) would need 100 windows; everything past
        // window 3 collapses into window 3.
        w.task_dispatch(0, 0, 2.0, 2.0, 98.0);
        assert_eq!(w.windows().len(), 4);
        assert_eq!(w.windows()[2].busy, vec![1.0]);
        assert!((w.windows()[3].busy[0] - 97.0).abs() < 1e-9);
        assert_eq!(w.index_of(1e12), 3);
        assert_eq!(w.windows()[3].completions, 1);
    }

    #[test]
    fn merge_equals_one_series_that_saw_every_hook() {
        let drive_a = |w: &mut WindowedMetrics| {
            w.task_arrival(0, 0.2);
            w.task_dispatch(0, 0, 0.2, 0.4, 1.7);
        };
        let drive_b = |w: &mut WindowedMetrics| {
            w.task_arrival(1, 1.0);
            w.task_dispatch(1, 1, 1.0, 2.5, 0.25);
        };
        let mut a = series(1.0);
        drive_a(&mut a);
        let mut b = series(1.0);
        drive_b(&mut b);
        a.merge(&b);

        let mut whole = series(1.0);
        drive_a(&mut whole);
        drive_b(&mut whole);

        assert_eq!(a.windows().len(), whole.windows().len());
        for (x, y) in a.windows().iter().zip(whole.windows()) {
            assert_eq!(x.arrivals, y.arrivals);
            assert_eq!(x.starts, y.starts);
            assert_eq!(x.completions, y.completions);
            assert_eq!(x.busy, y.busy);
            assert_eq!(x.queue_time, y.queue_time);
            assert_eq!(x.flow_hist.counts(), y.flow_hist.counts());
        }
    }

    /// Merged series keep every window either one opened, summed cell
    /// by cell: `b`'s completion at exactly 1.0 opens window 1.
    #[test]
    fn merge_keeps_the_windows_either_series_opened() {
        let cfg = WindowConfig::defaults(1, 1.0);
        let mut a = WindowedMetrics::new(cfg.clone());
        a.task_dispatch(0, 0, 0.0, 0.0, 0.5);
        let mut b = WindowedMetrics::new(cfg);
        b.task_dispatch(1, 0, 0.2, 0.5, 0.5);
        a.merge(&b);
        assert_eq!(a.windows().len(), 2);
        assert_eq!(a.windows()[0].starts, 2);
        assert_eq!(a.windows()[1].completions, 1);
        assert!((a.windows()[0].busy[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "identical width")]
    fn merge_rejects_mismatched_widths() {
        let mut a = series(1.0);
        let b = series(2.0);
        a.merge(&b);
    }

    /// `index_of` rounds one ulp below `5·0.7` up into window 5; the
    /// overlap still starts at that window's edge, so the service is not
    /// added to it whole.
    #[test]
    fn service_rounded_into_a_window_starts_at_its_edge() {
        let mut w = series(0.7);
        let edge = 5.0 * 0.7_f64;
        let start = f64::from_bits(edge.to_bits() - 1);
        assert_eq!(w.index_of(start), 5);
        w.task_dispatch(0, 0, start, start, 0.5);
        assert_eq!(w.windows()[4].busy[0], 0.0);
        assert_eq!(w.windows()[5].busy[0], (start + 0.5) - edge);
        assert_ne!(w.windows()[5].busy[0], (start + 0.5) - start);
    }

    /// A cap-2 series must not take in a cap-8 one's later windows: its
    /// own later tasks would clamp into window 1 while the merged ones
    /// sat past the cap.
    #[test]
    #[should_panic(expected = "window cap")]
    fn merge_rejects_mismatched_caps() {
        let capped = |max_windows| {
            WindowedMetrics::new(WindowConfig {
                max_windows,
                ..WindowConfig::defaults(1, 1.0)
            })
        };
        let mut a = capped(2);
        let mut b = capped(8);
        b.task_dispatch(0, 0, 5.0, 5.0, 1.0);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = series(0.0);
    }

    /// The per-hook reference fold: every hook, and every window
    /// `spread` visits, finds its window through `at`.
    /// `WindowedMetrics`, which places each timestamp once, must match
    /// it bit for bit.
    struct PerHookFold(WindowedMetrics);

    impl PerHookFold {
        fn at(&mut self, t: f64) -> &mut WindowStats {
            let k = self.0.index_of(t);
            while self.0.windows.len() <= k {
                self.0.windows.push(WindowStats::new(&self.0.cfg));
            }
            &mut self.0.windows[k]
        }

        fn spread(&mut self, from: f64, to: f64, mut f: impl FnMut(&mut WindowStats, f64)) {
            if to.partial_cmp(&from) != Some(std::cmp::Ordering::Greater) {
                return;
            }
            let (width, last) = (self.0.cfg.width, self.0.cfg.max_windows - 1);
            let mut k = self.0.index_of(from);
            loop {
                let win_start = k as f64 * width;
                let win_end = if k == last {
                    f64::INFINITY
                } else {
                    win_start + width
                };
                let overlap = to.min(win_end) - from.max(win_start);
                if overlap > 0.0 {
                    self.at(win_start.max(from));
                    f(&mut self.0.windows[k], overlap);
                }
                if to <= win_end || k == last {
                    break;
                }
                k += 1;
            }
        }

        fn task_dispatch(&mut self, machine: u32, release: f64, start: f64, ptime: f64) {
            let completion = start + ptime;
            let flow = completion - release;
            self.at(start).starts += 1;
            let w = self.at(completion);
            w.completions += 1;
            w.flow_hist.record(flow);
            self.spread(release, start, |w, dt| w.queue_time += dt);
            let m = machine as usize;
            self.spread(start, completion, |w, dt| {
                if let Some(b) = w.busy.get_mut(m) {
                    *b += dt;
                }
            });
        }
    }

    /// A timestamp on a window edge `k·width`, one ulp either side of
    /// it, or on the quarter grid the services step by.
    fn stamp(code: u32, k: u32, width: f64) -> f64 {
        let edge = k as f64 * width;
        match code {
            0 => edge,
            1 if edge > 0.0 => f64::from_bits(edge.to_bits() - 1),
            2 => f64::from_bits(edge.to_bits() + 1),
            _ => k as f64 * 0.25,
        }
    }

    /// Every field of every window, floats by their bits. The flow
    /// histogram compares by its `Debug` text, which prints each float
    /// in the shortest form that reads back to the same bits.
    fn window_bits(w: &WindowedMetrics) -> Vec<(Vec<u64>, String)> {
        w.windows()
            .iter()
            .map(|s| {
                let mut v = vec![s.arrivals, s.starts, s.completions, s.queue_time.to_bits()];
                v.extend(s.busy.iter().map(|b| b.to_bits()));
                (v, format!("{:?}", s.flow_hist))
            })
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Placing each timestamp once and spreading from a known index
        /// folds every hook sequence into the same windows as the
        /// per-hook fold: widths that are and are not dyadic, caps of 1
        /// to 8 windows, `start == release`, zero-length services and
        /// services across many windows.
        #[test]
        fn one_placement_fold_matches_the_per_hook_fold(
            width in prop_oneof![Just(0.1), Just(0.7), Just(1.0), Just(3.0), Just(64.0)],
            max_windows in 1usize..=8,
            hooks in prop::collection::vec(
                ((0u32..4, 0u32..12), (0u32..5, 0u32..12), (0u32..4, 0u32..12), 0u32..3),
                1..30,
            ),
        ) {
            let cfg = WindowConfig { max_windows, ..WindowConfig::defaults(2, width) };
            let mut fold = WindowedMetrics::new(cfg.clone());
            let mut reference = PerHookFold(WindowedMetrics::new(cfg));
            for (task, ((rc, rk), (sc, sk), (pc, pk), machine)) in hooks.into_iter().enumerate() {
                let release = stamp(rc, rk, width);
                // Code 4 starts on release; the others wait until a stamp.
                let start = if sc == 4 { release } else { release.max(stamp(sc, sk, width)) };
                let ptime = match pc {
                    0 => 0.0,
                    1 => pk as f64 * 0.25,
                    2 => (stamp(0, pk, width) - start).max(0.0),
                    _ => pk as f64 * width,
                };
                fold.task_arrival(task as u64, release);
                reference.at(release).arrivals += 1;
                fold.task_dispatch(task as u64, machine, release, start, ptime);
                reference.task_dispatch(machine, release, start, ptime);
            }
            let (got, want) = (window_bits(&fold), window_bits(&reference.0));
            prop_assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g, w, "window {}: {:?} != {:?}", k, g, w);
            }
        }
    }
}

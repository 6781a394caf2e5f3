//! Wall-clock pipeline instrumentation for the sharded engine.
//!
//! Everything else in this crate records *simulated* time — release,
//! start, completion timestamps the engines compute. This module records
//! *wall-clock* time: how many nanoseconds the sharded dispatch pipeline
//! (`flowsched_parallel::sharded`) actually spends in each of its
//! stages — router batch assembly, waits on the bounded queues, per-shard
//! worker dispatch, and the arrival-order merge — plus queue-depth
//! high-water marks and backpressure-stall counts. It exists to answer
//! ROADMAP item 1's routing-tax question with measurements instead of
//! end-to-end median subtraction.
//!
//! The probe contract mirrors [`Recorder`](crate::recorder::Recorder):
//! hot paths are generic over `P: PipelineProbe` and guard every
//! `Instant::now()` behind `P::ENABLED`, so with [`NoopPipeline`]
//! monomorphization deletes the clock reads along with the hook calls —
//! the probed engine is the unprobed engine (the `pipeline` bench gates
//! this within noise). Unlike `Recorder`, hooks take `&self` and probes
//! must be `Clone + Send`: the sharded engine's workers run on other
//! threads, so a live probe is a handle onto shared atomics
//! ([`PipelineMetrics`]), cloned once per worker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The instrumented stages of the sharded dispatch pipeline, in
/// pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Router-side batch assembly: restricting the arrival's processing
    /// set to its shard and appending the `TaskMsg` to the output batch.
    Route,
    /// Router-side blocking inside `flush` while a worker's input queue is
    /// full (every span here is a backpressure stall).
    EnqueueWait,
    /// Worker-side blocking on an empty input queue (waiting for the
    /// router to produce the next batch).
    DequeueWait,
    /// Worker-side dispatch: running the shard's kernel over one batch.
    Dispatch,
    /// Router-side arrival-order merge: draining result messages into
    /// the reorder buffer and committing the ready prefix.
    Merge,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Route,
        Stage::EnqueueWait,
        Stage::DequeueWait,
        Stage::Dispatch,
        Stage::Merge,
    ];

    /// Stable snake_case identifier used in tables and exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Route => "route",
            Stage::EnqueueWait => "enqueue_wait",
            Stage::DequeueWait => "dequeue_wait",
            Stage::Dispatch => "dispatch",
            Stage::Merge => "merge",
        }
    }

    fn index(self) -> usize {
        Stage::ALL
            .iter()
            .position(|&s| s == self)
            .expect("every stage is in ALL")
    }
}

/// Sink for wall-clock pipeline hooks.
///
/// `Clone + Send` because the sharded engine moves a clone into every
/// worker thread; implementations share state internally (see
/// [`PipelineMetrics`]) or have none (see [`NoopPipeline`]).
pub trait PipelineProbe: Clone + Send {
    /// `false` only for the no-op probe: lets hot paths skip the
    /// monotonic-clock reads entirely (`if P::ENABLED { … }` folds to
    /// nothing, same contract as `Recorder::ENABLED`).
    const ENABLED: bool = true;

    /// One timed span of `stage` took `ns` nanoseconds and covered
    /// `items` tasks (0 for pure waits).
    fn span_ns(&self, stage: Stage, ns: u64, items: u64);

    /// Observed reorder-buffer / queue depth (the probe keeps the
    /// high-water mark).
    fn queue_depth(&self, depth: u64);

    /// The router hit a full input queue and had to stall.
    fn backpressure_stall(&self);

    /// The router force-flushed a partial batch because the reorder
    /// buffer crossed its high-water mark.
    fn forced_flush(&self);
}

/// The probe that probes nothing, at no cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopPipeline;

impl PipelineProbe for NoopPipeline {
    const ENABLED: bool = false;

    #[inline(always)]
    fn span_ns(&self, _stage: Stage, _ns: u64, _items: u64) {}

    #[inline(always)]
    fn queue_depth(&self, _depth: u64) {}

    #[inline(always)]
    fn backpressure_stall(&self) {}

    #[inline(always)]
    fn forced_flush(&self) {}
}

/// A started wall-clock span; [`StageTimer::stop`] records it.
///
/// With a disabled probe the constructor never reads the clock and the
/// struct is a `None` the optimizer deletes, preserving the zero-cost
/// contract at every call site without per-site `if P::ENABLED` noise.
#[derive(Debug)]
pub struct StageTimer {
    start: Option<Instant>,
}

impl StageTimer {
    /// Starts a span (a no-op for disabled probes).
    #[inline(always)]
    pub fn start<P: PipelineProbe>(_probe: &P) -> Self {
        StageTimer {
            start: if P::ENABLED {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Ends the span, attributing it to `stage` with an item count.
    #[inline(always)]
    pub fn stop<P: PipelineProbe>(self, probe: &P, stage: Stage, items: u64) {
        if let Some(t0) = self.start {
            probe.span_ns(stage, t0.elapsed().as_nanos() as u64, items);
        }
    }
}

/// Number of log₂ duration buckets per stage (covers the full `u64`
/// nanosecond range: bucket `b` holds spans with `⌊log₂ ns⌋ = b`).
pub const NS_BUCKETS: usize = 64;

#[derive(Debug)]
struct StageAtomics {
    spans: AtomicU64,
    total_ns: AtomicU64,
    total_items: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; NS_BUCKETS],
}

impl StageAtomics {
    fn new() -> Self {
        StageAtomics {
            spans: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            total_items: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Which log₂ bucket a nanosecond duration falls in.
#[inline]
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

#[derive(Debug)]
struct MetricsInner {
    stages: [StageAtomics; Stage::ALL.len()],
    depth_high_water: AtomicU64,
    stalls: AtomicU64,
    forced_flushes: AtomicU64,
}

/// Frozen per-stage statistics read out of a [`PipelineMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Timed spans recorded.
    pub spans: u64,
    /// Nanoseconds summed over all spans.
    pub total_ns: u64,
    /// Items (tasks) summed over all spans.
    pub total_items: u64,
    /// Longest single span.
    pub max_ns: u64,
    /// log₂ nanosecond histogram (`buckets[b]` counts spans with
    /// `⌊log₂ ns⌋ = b`; zero-duration spans land in bucket 0).
    pub buckets: Vec<u64>,
}

impl StageStats {
    /// Mean nanoseconds per span (0 when nothing was recorded).
    pub fn ns_per_span(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.spans as f64
        }
    }

    /// Mean nanoseconds per item — the per-task cost of this stage
    /// (0 when the stage carried no items, e.g. pure waits).
    pub fn ns_per_item(&self) -> f64 {
        if self.total_items == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.total_items as f64
        }
    }
}

/// The live pipeline probe: a cheap cloneable handle onto a shared bank
/// of atomics, safe to hammer from the router and every worker thread
/// concurrently. All updates are `Relaxed` — stages are independent
/// monotone counters and the readers only run after the pipeline joins.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    inner: Arc<MetricsInner>,
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        PipelineMetrics::new()
    }
}

impl PipelineMetrics {
    /// A fresh all-zero metrics bank.
    pub fn new() -> Self {
        PipelineMetrics {
            inner: Arc::new(MetricsInner {
                stages: std::array::from_fn(|_| StageAtomics::new()),
                depth_high_water: AtomicU64::new(0),
                stalls: AtomicU64::new(0),
                forced_flushes: AtomicU64::new(0),
            }),
        }
    }

    /// Frozen statistics for one stage.
    pub fn stage(&self, stage: Stage) -> StageStats {
        let s = &self.inner.stages[stage.index()];
        StageStats {
            spans: s.spans.load(Ordering::Relaxed),
            total_ns: s.total_ns.load(Ordering::Relaxed),
            total_items: s.total_items.load(Ordering::Relaxed),
            max_ns: s.max_ns.load(Ordering::Relaxed),
            buckets: s
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Highest queue/reorder-buffer depth observed.
    pub fn depth_high_water(&self) -> u64 {
        self.inner.depth_high_water.load(Ordering::Relaxed)
    }

    /// Backpressure stalls (router blocked on a full input queue).
    pub fn stalls(&self) -> u64 {
        self.inner.stalls.load(Ordering::Relaxed)
    }

    /// Forced partial-batch flushes (reorder buffer crossed high water).
    pub fn forced_flushes(&self) -> u64 {
        self.inner.forced_flushes.load(Ordering::Relaxed)
    }

    /// Renders the per-stage breakdown table the `pipeline_profile` bin
    /// prints: one row per stage with span count, total milliseconds,
    /// mean ns/span, mean ns/item, and the max span — the ns/item column
    /// is the per-task routing tax of that stage.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<14} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
            "stage", "spans", "total_ms", "ns/span", "ns/task", "max_ns"
        ));
        for stage in Stage::ALL {
            let s = self.stage(stage);
            out.push_str(&format!(
                "  {:<14} {:>10} {:>12.3} {:>12.1} {:>12.1} {:>12}\n",
                stage.name(),
                s.spans,
                s.total_ns as f64 / 1e6,
                s.ns_per_span(),
                s.ns_per_item(),
                s.max_ns
            ));
        }
        out.push_str(&format!(
            "  queue_depth_high_water={} backpressure_stalls={} forced_flushes={}\n",
            self.depth_high_water(),
            self.stalls(),
            self.forced_flushes()
        ));
        out
    }
}

impl PipelineProbe for PipelineMetrics {
    #[inline]
    fn span_ns(&self, stage: Stage, ns: u64, items: u64) {
        let s = &self.inner.stages[stage.index()];
        s.spans.fetch_add(1, Ordering::Relaxed);
        s.total_ns.fetch_add(ns, Ordering::Relaxed);
        s.total_items.fetch_add(items, Ordering::Relaxed);
        s.max_ns.fetch_max(ns, Ordering::Relaxed);
        s.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn queue_depth(&self, depth: u64) {
        self.inner
            .depth_high_water
            .fetch_max(depth, Ordering::Relaxed);
    }

    #[inline]
    fn backpressure_stall(&self) {
        self.inner.stalls.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn forced_flush(&self) {
        self.inner.forced_flushes.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_of<P: PipelineProbe>(_p: &P) -> bool {
        P::ENABLED
    }

    #[test]
    fn noop_is_disabled_and_timer_skips_the_clock() {
        assert!(!enabled_of(&NoopPipeline));
        let t = StageTimer::start(&NoopPipeline);
        assert!(t.start.is_none(), "disabled probe must not read the clock");
        t.stop(&NoopPipeline, Stage::Route, 10);
    }

    #[test]
    fn spans_accumulate_per_stage() {
        let m = PipelineMetrics::new();
        m.span_ns(Stage::Dispatch, 100, 4);
        m.span_ns(Stage::Dispatch, 300, 12);
        m.span_ns(Stage::Merge, 50, 16);
        let d = m.stage(Stage::Dispatch);
        assert_eq!(d.spans, 2);
        assert_eq!(d.total_ns, 400);
        assert_eq!(d.total_items, 16);
        assert_eq!(d.max_ns, 300);
        assert_eq!(d.ns_per_span(), 200.0);
        assert_eq!(d.ns_per_item(), 25.0);
        assert_eq!(m.stage(Stage::Merge).total_items, 16);
        assert_eq!(m.stage(Stage::Route).spans, 0);
        assert_eq!(m.stage(Stage::Route).ns_per_item(), 0.0);
    }

    #[test]
    fn log2_buckets_place_durations_correctly() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        let m = PipelineMetrics::new();
        m.span_ns(Stage::Route, 1000, 1);
        let s = m.stage(Stage::Route);
        assert_eq!(s.buckets[9], 1, "1000 ns is in bucket ⌊log₂ 1000⌋ = 9");
        assert_eq!(s.buckets.iter().sum::<u64>(), 1);
    }

    #[test]
    fn gauges_keep_high_water_and_counts() {
        let m = PipelineMetrics::new();
        m.queue_depth(3);
        m.queue_depth(9);
        m.queue_depth(5);
        m.backpressure_stall();
        m.forced_flush();
        m.forced_flush();
        assert_eq!(m.depth_high_water(), 9);
        assert_eq!(m.stalls(), 1);
        assert_eq!(m.forced_flushes(), 2);
    }

    #[test]
    fn clones_share_the_same_bank_across_threads() {
        let m = PipelineMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.span_ns(Stage::Dispatch, 7, 1);
                    }
                });
            }
        });
        let d = m.stage(Stage::Dispatch);
        assert_eq!(d.spans, 4000);
        assert_eq!(d.total_ns, 28000);
    }

    #[test]
    fn table_lists_every_stage() {
        let m = PipelineMetrics::new();
        m.span_ns(Stage::EnqueueWait, 42, 0);
        let t = m.render_table();
        for stage in Stage::ALL {
            assert!(
                t.contains(stage.name()),
                "table is missing {}",
                stage.name()
            );
        }
        assert!(t.contains("backpressure_stalls=0"));
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    #[test]
    fn live_timer_records_a_span() {
        let m = PipelineMetrics::new();
        let t = StageTimer::start(&m);
        std::hint::black_box(0u64);
        t.stop(&m, Stage::Route, 3);
        let s = m.stage(Stage::Route);
        assert_eq!(s.spans, 1);
        assert_eq!(s.total_items, 3);
    }
}

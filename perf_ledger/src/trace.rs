//! Tracing from outside: wrappers around each layer's public trait that
//! record wall-clock spans for one task in [`SAMPLE_EVERY`].
//!
//! A traced task's root span is one turn of the engine loop on the
//! thread that drives the stream: from the start of its `next_arrival`
//! to the start of the next one. For the sequential engines that covers
//! the task's dispatch, its recorder hooks and its `accept`; for the
//! sharded engine it is one turn of the router.
//!
//! Traced tasks alternate between two kinds. A *layered* task also gets
//! a child span for each of its calls into a layer; those give the
//! per-layer self times. A *bare* task gets only its root; those give
//! the time of one loop turn, undisturbed by the cost of recording child
//! spans. What is left of a loop turn once the layers' self times are
//! taken out is the engine's own time (`engine.loop_ns`).
//!
//! Spans live in a preallocated, pre-touched `Vec` and are analysed (and
//! written out) after the run. Every span, less the calibrated length of
//! an empty one ([`calibrate`]), is the self time of its call.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use flowsched_algos::eft::ImmediateDispatcher;
use flowsched_algos::engine::DispatchSink;
use flowsched_algos::indexed::KernelStats;
use flowsched_core::compact::ProcSetRef;
use flowsched_core::schedule::Assignment;
use flowsched_core::shard::ShardPlan;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::structure::StructureReport;
use flowsched_core::task::Task;
use flowsched_core::time::Time;
use flowsched_obs::{Counter, ProbeKind, Recorder};

use crate::stats::median;

/// One task in this many is traced, chosen by arrival sequence number.
pub const SAMPLE_EVERY: u64 = 256;

/// Spans reserved per traced task (root, stream, dispatch, up to four
/// recorder hooks, accept — with headroom).
const SPANS_PER_TASK: usize = 10;

/// `parent` of a span with none.
pub const NO_PARENT: u32 = u32::MAX;

/// The span clock: the time-stamp counter, read without a fence. A
/// `std::time::Instant` read costs about 40 ns on a 2-core x86-64 VM and
/// serialises the pipeline around layers that take 30–50 ns; `rdtsc`
/// costs under half that and lets the measured code overlap as it does
/// untraced. Ticks convert to ns with [`ns_per_tick`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` is in the x86-64 baseline instruction set, has no
    // preconditions, and only reads the time-stamp counter.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per [`ticks`] unit, measured against `Instant` over 20 ms.
pub fn ns_per_tick() -> f64 {
    let (i0, t0) = (Instant::now(), ticks());
    while i0.elapsed() < Duration::from_millis(20) {
        std::hint::spin_loop();
    }
    let (t1, elapsed) = (ticks(), i0.elapsed());
    elapsed.as_nanos() as f64 / t1.saturating_sub(t0).max(1) as f64
}

#[inline(always)]
fn sampled(seq: u64) -> bool {
    seq.is_multiple_of(SAMPLE_EVERY)
}

/// Traced tasks with even index are layered, odd ones bare.
#[inline(always)]
fn layered(seq: u64) -> bool {
    seq.is_multiple_of(2 * SAMPLE_EVERY)
}

/// Which call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Root of a layered task.
    Task,
    /// Root of a bare task.
    BareTask,
    /// `ArrivalStream::next_arrival` (workloads).
    NextArrival,
    /// `ImmediateDispatcher::dispatch_task` (algos).
    Dispatch,
    /// One `Recorder` hook (obs).
    Record,
    /// `DispatchSink::accept` of the `ReportBuilder` (sim).
    Accept,
}

impl Layer {
    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Task => "task",
            Layer::BareTask => "task.bare",
            Layer::NextArrival => "workloads.next_arrival",
            Layer::Dispatch => "algos.dispatch",
            Layer::Record => "obs.record",
            Layer::Accept => "sim.accept",
        }
    }

    fn is_root(self) -> bool {
        matches!(self, Layer::Task | Layer::BareTask)
    }
}

/// One recorded span; times are [`ticks`] since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub seq: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    const EMPTY: Span = Span {
        layer: Layer::Task,
        seq: 0,
        parent: NO_PARENT,
        start: 0,
        end: 0,
    };

    fn ticks(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64
    }

    fn is_open_root(&self) -> bool {
        self.layer.is_root() && self.end <= self.start
    }
}

/// A root whose slot is reserved but not yet written.
#[derive(Debug, Clone, Copy)]
struct OpenRoot {
    layer: Layer,
    seq: u64,
    idx: u32,
    start: u64,
}

/// The shared span store. Single-threaded: every wrapped call runs on
/// the thread that drives the stream and the sink.
pub struct Tracer {
    epoch: u64,
    /// Filled with placeholders up front, so that recording a span
    /// neither allocates nor takes a page fault.
    spans: RefCell<Vec<Span>>,
    len: Cell<usize>,
    /// The root waiting for the next `next_arrival` to close it. Its
    /// slot is written only then, after the closing clock read, so the
    /// root's own interval holds one clock read and two `Cell` updates.
    open: Cell<Option<OpenRoot>>,
}

impl Tracer {
    /// A tracer with room for every span of an `n`-task run.
    pub fn new(n: usize) -> Self {
        Tracer {
            epoch: ticks(),
            spans: RefCell::new(vec![
                Span::EMPTY;
                (n / SAMPLE_EVERY as usize + 2) * SPANS_PER_TASK
            ]),
            len: Cell::new(0),
            open: Cell::new(None),
        }
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        ticks().wrapping_sub(self.epoch)
    }

    /// Reserves the next slot; `None` once the reserved room is used up
    /// (later spans are dropped).
    fn reserve(&self) -> Option<u32> {
        let idx = self.len.get();
        (idx < self.spans.borrow().len()).then(|| {
            self.len.set(idx + 1);
            idx as u32
        })
    }

    fn push(&self, layer: Layer, seq: u64, parent: u32, start: u64, end: u64) {
        if let Some(idx) = self.reserve() {
            self.spans.borrow_mut()[idx as usize] = Span {
                layer,
                seq,
                parent,
                start,
                end,
            };
        }
    }

    fn open_root(&self, layer: Layer, seq: u64, start: u64) -> Option<u32> {
        let idx = self.reserve()?;
        self.open.set(Some(OpenRoot {
            layer,
            seq,
            idx,
            start,
        }));
        Some(idx)
    }

    /// Writes the open root, if any, ending at `end`.
    fn close_root(&self, end: u64) {
        if let Some(r) = self.open.take() {
            self.spans.borrow_mut()[r.idx as usize] = Span {
                layer: r.layer,
                seq: r.seq,
                parent: NO_PARENT,
                start: r.start,
                end,
            };
        }
    }

    /// Runs `f` as a child span of layered task `seq`. The parent is the
    /// task's root while that is open (on the sharded engine a task's
    /// `accept` comes after its root has closed).
    #[inline(always)]
    fn child<T>(&self, layer: Layer, seq: u64, f: impl FnOnce() -> T) -> T {
        if !layered(seq) {
            return f();
        }
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        let parent = match self.open.get() {
            Some(r) if r.seq == seq => r.idx,
            _ => NO_PARENT,
        };
        self.push(layer, seq, parent, t0, t1);
        out
    }

    /// Takes every span recorded so far; a root never closed reads as
    /// an empty placeholder.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.borrow_mut());
        spans.truncate(self.len.replace(0));
        spans
    }
}

/// Times `ArrivalStream::next_arrival` and opens and closes each traced
/// task's root. Forwards every provided method, so `Auto` kernel
/// resolution and shard planning see the wrapped stream unchanged.
pub struct TimedStream<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    seq: u64,
}

impl<'t, S> TimedStream<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        TimedStream {
            inner,
            tracer,
            seq: 0,
        }
    }
}

impl<S: ArrivalStream> ArrivalStream for TimedStream<'_, S> {
    fn machines(&self) -> usize {
        self.inner.machines()
    }

    #[inline]
    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        let seq = self.seq;
        if !sampled(seq) && self.tracer.open.get().is_none() {
            let out = self.inner.next_arrival();
            self.seq += out.is_some() as u64;
            return out;
        }
        let t0 = self.tracer.now();
        self.tracer.close_root(t0);
        let out = self.inner.next_arrival();
        if out.is_some() {
            self.seq += 1;
            if layered(seq) {
                let t1 = self.tracer.now();
                if let Some(root) = self.tracer.open_root(Layer::Task, seq, t0) {
                    self.tracer.push(Layer::NextArrival, seq, root, t0, t1);
                }
            } else if sampled(seq) {
                self.tracer.open_root(Layer::BareTask, seq, t0);
            }
        }
        out
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn structure_hint(&self) -> Option<StructureReport> {
        self.inner.structure_hint()
    }

    fn shard_plan(&self, max_shards: usize) -> ShardPlan {
        self.inner.shard_plan(max_shards)
    }
}

/// Times `ImmediateDispatcher::dispatch_task` and counts the heap
/// allocations made inside every dispatch (exact, not sampled).
pub struct TimedDispatcher<'t, D> {
    inner: D,
    tracer: &'t Tracer,
    seq: u64,
    allocs: u64,
}

impl<'t, D> TimedDispatcher<'t, D> {
    pub fn new(inner: D, tracer: &'t Tracer) -> Self {
        TimedDispatcher {
            inner,
            tracer,
            seq: 0,
            allocs: 0,
        }
    }

    /// Allocations made inside `dispatch_task` calls so far.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

impl<D: ImmediateDispatcher> ImmediateDispatcher for TimedDispatcher<'_, D> {
    fn machine_count(&self) -> usize {
        self.inner.machine_count()
    }

    #[inline]
    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        let seq = self.seq;
        self.seq += 1;
        let before = crate::allocations();
        let inner = &mut self.inner;
        let a = self
            .tracer
            .child(Layer::Dispatch, seq, || inner.dispatch_task(task, set));
        self.allocs += crate::allocations() - before;
        a
    }

    fn machine_completions(&self) -> &[Time] {
        self.inner.machine_completions()
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        self.inner.kernel_stats()
    }
}

/// Times every `Recorder` hook; `ENABLED` is the wrapped recorder's, so
/// wrapping a `NoopRecorder` leaves the engine's hook sites compiled out.
pub struct TimedRecorder<'t, R> {
    inner: R,
    tracer: &'t Tracer,
    /// Task whose commit is being recorded (hooks without a task id fire
    /// between its `task_arrival` and `task_dispatch`).
    current: u64,
    calls: u64,
}

impl<'t, R> TimedRecorder<'t, R> {
    pub fn new(inner: R, tracer: &'t Tracer) -> Self {
        TimedRecorder {
            inner,
            tracer,
            current: u64::MAX,
            calls: 0,
        }
    }

    /// Hook calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    pub fn into_inner(self) -> R {
        self.inner
    }

    #[inline(always)]
    fn hook(&mut self, f: impl FnOnce(&mut R)) {
        self.calls += 1;
        let inner = &mut self.inner;
        self.tracer.child(Layer::Record, self.current, || f(inner));
    }
}

impl<R: Recorder> Recorder for TimedRecorder<'_, R> {
    const ENABLED: bool = R::ENABLED;

    fn task_arrival(&mut self, task: u64, at: f64) {
        self.current = task;
        self.hook(|r| r.task_arrival(task, at));
    }

    fn task_dispatch(&mut self, task: u64, machine: u32, release: f64, start: f64, ptime: f64) {
        self.current = task;
        self.hook(|r| r.task_dispatch(task, machine, release, start, ptime));
    }

    fn machine_busy(&mut self, machine: u32, at: f64) {
        self.hook(|r| r.machine_busy(machine, at));
    }

    fn machine_idle(&mut self, machine: u32, at: f64) {
        self.hook(|r| r.machine_idle(machine, at));
    }

    fn machine_crash(&mut self, machine: u32, at: f64) {
        self.hook(|r| r.machine_crash(machine, at));
    }

    fn machine_recover(&mut self, machine: u32, at: f64) {
        self.hook(|r| r.machine_recover(machine, at));
    }

    fn slo_breach(&mut self, at: f64, ratio: f64, bound: f64) {
        self.hook(|r| r.slo_breach(at, ratio, bound));
    }

    fn probe(&mut self, kind: ProbeKind, iterations: u64, value: f64) {
        self.hook(|r| r.probe(kind, iterations, value));
    }

    fn add(&mut self, c: Counter, delta: u64) {
        self.hook(|r| r.add(c, delta));
    }
}

/// Times `DispatchSink::accept`.
pub struct TimedSink<'t, K> {
    inner: K,
    tracer: &'t Tracer,
}

impl<'t, K> TimedSink<'t, K> {
    pub fn new(inner: K, tracer: &'t Tracer) -> Self {
        TimedSink { inner, tracer }
    }

    pub fn into_inner(self) -> K {
        self.inner
    }
}

impl<K: DispatchSink> DispatchSink for TimedSink<'_, K> {
    #[inline]
    fn accept(&mut self, seq: u64, task: Task, assignment: Assignment) {
        let inner = &mut self.inner;
        self.tracer
            .child(Layer::Accept, seq, || inner.accept(seq, task, assignment));
    }
}

/// The clock's unit and what a span's own clock reads add to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    pub ns_per_tick: f64,
    /// Length of an empty span: two back-to-back clock reads. Every span
    /// holds this much of its own measurement, child and root alike.
    pub span_ns: f64,
}

/// Measures [`Calibration`]: the median over 64 batches of the mean of
/// 1024 empty spans each.
pub fn calibrate() -> Calibration {
    let ns_per_tick = ns_per_tick();
    let tracer = Tracer::new(0);
    let batches: Vec<f64> = (0..64)
        .map(|_| {
            let mut total = 0u64;
            for _ in 0..1024 {
                let t0 = tracer.now();
                let t1 = std::hint::black_box(tracer.now());
                total += t1.wrapping_sub(t0);
            }
            total as f64 / 1024.0
        })
        .collect();
    Calibration {
        ns_per_tick,
        span_ns: median(&batches) * ns_per_tick,
    }
}

/// Per-task self times of each layer, in ns.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Layered tasks whose root closed.
    pub layered: usize,
    pub next_arrival: Vec<f64>,
    pub dispatch: Vec<f64>,
    /// Per layered task, the sum over its recorder hooks (0 when none
    /// fired).
    pub record: Vec<f64>,
    pub accept: Vec<f64>,
    /// One loop turn per bare task.
    pub turn: Vec<f64>,
}

/// Groups the spans by layer, less the calibrated clock cost.
pub fn layer_times(spans: &[Span], cal: &Calibration) -> LayerTimes {
    let mut record_of_root = vec![0.0; spans.len()];
    let mut out = LayerTimes::default();
    for s in spans {
        let own = s.ticks() * cal.ns_per_tick - cal.span_ns;
        match s.layer {
            Layer::Task | Layer::BareTask if s.is_open_root() => {}
            Layer::Task => out.layered += 1,
            Layer::BareTask => out.turn.push(own),
            Layer::NextArrival => out.next_arrival.push(own),
            Layer::Dispatch => out.dispatch.push(own),
            Layer::Accept => out.accept.push(own),
            Layer::Record if s.parent != NO_PARENT => record_of_root[s.parent as usize] += own,
            Layer::Record => {}
        }
    }
    out.record = spans
        .iter()
        .zip(&record_of_root)
        .filter(|(s, _)| s.layer == Layer::Task && !s.is_open_root())
        .map(|(_, &r)| r)
        .collect();
    out
}

/// The span file: a JSON array of `{name, seq, parent, start_ns,
/// end_ns}`, `parent` being an index into the array or -1, times in ns
/// since the run began.
pub fn spans_json(spans: &[Span], ns_per_tick: f64) -> String {
    let ns = |t: u64| (t as f64 * ns_per_tick).round() as u64;
    let mut out = String::with_capacity(spans.len() * 90 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"seq\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.layer.name(),
            s.seq,
            parent,
            ns(s.start),
            ns(s.end)
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start: u64, end: u64) -> Span {
        Span {
            layer,
            seq: 0,
            parent,
            start,
            end,
        }
    }

    const CAL: Calibration = Calibration {
        ns_per_tick: 0.5,
        span_ns: 2.0,
    };

    #[test]
    fn layer_times_subtract_the_recording_cost() {
        let spans = [
            span(Layer::Task, NO_PARENT, 0, 200),
            span(Layer::NextArrival, 0, 0, 60),
            span(Layer::Dispatch, 0, 80, 140),
            span(Layer::Record, 0, 140, 150),
            span(Layer::Record, 0, 150, 160),
            span(Layer::Accept, 0, 160, 200),
            span(Layer::BareTask, NO_PARENT, 300, 420),
        ];
        let layers = layer_times(&spans, &CAL);
        assert_eq!(layers.layered, 1);
        assert_eq!(layers.next_arrival, vec![28.0]);
        assert_eq!(layers.dispatch, vec![28.0]);
        assert_eq!(layers.record, vec![6.0]);
        assert_eq!(layers.accept, vec![18.0]);
        assert_eq!(layers.turn, vec![58.0]);
    }

    #[test]
    fn open_roots_are_skipped() {
        let spans = [
            span(Layer::Task, NO_PARENT, 10, 10),
            span(Layer::BareTask, NO_PARENT, 30, 30),
        ];
        let layers = layer_times(&spans, &CAL);
        assert_eq!(layers.layered, 0);
        assert!(layers.turn.is_empty());
    }

    #[test]
    fn tasks_alternate_between_layered_and_bare() {
        let tracer = Tracer::new(4 * SAMPLE_EVERY as usize);
        let tasks = (0..4 * SAMPLE_EVERY).map(|i| {
            (
                Task::unit(i as f64),
                flowsched_core::procset::ProcSet::full(1),
            )
        });
        let mut tasks = tasks.collect::<Vec<_>>().into_iter();
        let mut stream = TimedStream::new(
            flowsched_core::stream::FnStream::new(1, move || tasks.next()),
            &tracer,
        );
        while stream.next_arrival().is_some() {}
        let roots: Vec<(Layer, u64)> = tracer
            .take_spans()
            .iter()
            .filter(|s| s.layer.is_root())
            .map(|s| (s.layer, s.seq))
            .collect();
        assert_eq!(
            roots,
            vec![
                (Layer::Task, 0),
                (Layer::BareTask, 256),
                (Layer::Task, 512),
                (Layer::BareTask, 768)
            ]
        );
    }

    #[test]
    fn calibration_is_positive_and_small() {
        let cal = calibrate();
        assert!(cal.ns_per_tick > 0.0, "{cal:?}");
        assert!(cal.span_ns > 0.0 && cal.span_ns < 10_000.0, "{cal:?}");
    }

    #[test]
    fn a_full_span_buffer_drops_spans_instead_of_growing() {
        let tracer = Tracer::new(0);
        let room = tracer.spans.borrow().len();
        for seq in 0..room as u64 {
            tracer.push(Layer::Accept, seq, NO_PARENT, 1, 2);
        }
        assert_eq!(tracer.open_root(Layer::Task, 0, 1), None);
        assert_eq!(tracer.take_spans().len(), room);
    }
}

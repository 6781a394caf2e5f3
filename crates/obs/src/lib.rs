//! # flowsched-obs — observability for the scheduling engine
//!
//! An always-available, zero-cost-when-disabled instrumentation layer
//! in the spirit of dslab's event-trace recorders: the paper's claims
//! (tail flow time, backlog growth, per-machine load — Figures 10/11,
//! Theorems 1/6) are all distributional, so a run needs a window beyond
//! the post-hoc `SimReport`.
//!
//! The layer has three pieces:
//!
//! - **[`Recorder`]** — the hook trait instrumented engines are generic
//!   over. [`NoopRecorder`] has empty bodies and a compile-time
//!   `ENABLED = false`, so uninstrumented call sites monomorphize to the
//!   exact pre-instrumentation code: no calls, no argument preparation,
//!   no allocation.
//! - **[`MemoryRecorder`]** — the real implementation: monotonic
//!   [`Counters`], a flow-time [`Histogram`](flowsched_stats::histogram::Histogram)
//!   (via the snapshot), per-machine busy time, per-kind solver-probe
//!   aggregates, and a ring-buffered structured [`Event`] trace
//!   ([`EventRing`]) where the newest events win.
//! - **Snapshots** — [`ObsSnapshot`] freezes the aggregates into a
//!   serde-serializable record ([`ObsSnapshot::to_json`]);
//!   [`render_summary`] prints the terminal summary that
//!   `flowsched-bench --bin obs` shows next to `SimReport`.
//!
//! On top of the recorders sits the telemetry pipeline:
//!
//! - **[`window`]** — [`WindowedMetrics`], a tumbling-window time-series
//!   recorder (queue depth, per-machine utilization, arrival/completion
//!   rates, windowed flow percentiles) whose memory scales with windows,
//!   not tasks.
//! - **[`span`]** — task lifecycle spans (release→start→finish) and
//!   machine busy intervals reconstructed from the event trace.
//! - **[`export`]** — Chrome trace-event JSON (Perfetto), Prometheus
//!   text exposition, and CSV time series; driven end-to-end by
//!   `flowsched-bench --bin timeline`.
//! - **[`pipeline`]** — *wall-clock* stage spans, nanosecond histograms,
//!   and backpressure gauges for the sharded dispatch pipeline
//!   ([`PipelineMetrics`] / [`NoopPipeline`], same zero-cost contract as
//!   the recorders but over `std::time::Instant`).
//! - **Breach rows** — [`Recorder::slo_breach`] reports a run whose
//!   flow-time ratio crossed a paper envelope (`3 − 2/k` per
//!   Corollary 1, `m − k + 1` for interval adversaries); a
//!   [`MemoryRecorder`] counts it and traces an [`Event::SloBreach`],
//!   which [`breach_marks`] turns into Perfetto instant events; the
//!   Prometheus text exports the count as
//!   `flowsched_slo_breaches_total`. No engine in the
//!   workspace reports breaches yet: the ratio needs a certified lower
//!   bound on the optimum, which only the offline solvers compute.
//!
//! [`Tee`] fans one hook stream into two recorders (aggregates + time
//! series in one pass) and preserves the zero-cost contract.
//!
//! ## Hook sites
//!
//! - `flowsched_algos::engine::run_immediate` — the shared streaming
//!   engine behind `eft_stream` and every `Run`: arrivals,
//!   dispatches, projected completions, machine busy/idle transitions
//!   (the engine, not the dispatcher, emits transitions — one
//!   convention for every immediate rule).
//! - `flowsched_algos::engine::run_fifo` (via `fifo_stream`) — the same
//!   events with *actual* transition times from the event loop.
//! - `flowsched_sim::driver::{simulate_with, simulate_stream}` —
//!   whole-run tracing, batch or constant-memory streaming.
//! - `flowsched_solver::loadflow` (λ-probes and LP solves) and
//!   `flowsched_solver::matching::BipartiteMatcher::solve_recorded` —
//!   solver probe events with iteration counts.
//!
//! ## Event-trace conventions
//!
//! Immediate-dispatch engines emit `TaskCompletion` and `MachineIdle`
//! events *projected* at dispatch time, so the trace is ordered by
//! record (dispatch) order; **per-machine** timestamps are monotone and
//! busy/idle events strictly alternate starting with busy, which
//! `tests/obs_invariants.rs` pins as an invariant. The trailing idle
//! transition after a machine's final completion is never emitted.

#![warn(missing_docs)]

pub mod counters;
pub mod event;
pub mod export;
pub mod memory;
pub mod pipeline;
pub mod recorder;
pub mod snapshot;
pub mod span;
pub mod window;

pub use counters::{Counter, Counters};
pub use event::{Event, EventRing, ProbeKind};
pub use export::{
    chrome_trace, chrome_trace_full, prometheus_text, prometheus_text_with, windows_to_csv,
    ExtraGauge, PromOptions,
};
pub use memory::{MemoryRecorder, ObsConfig};
pub use pipeline::{NoopPipeline, PipelineMetrics, PipelineProbe, Stage, StageStats, StageTimer};
pub use recorder::{NoopRecorder, Recorder, Tee};
pub use snapshot::{render_summary, ObsSnapshot};
pub use span::{
    breach_marks, machine_spans, outage_spans, task_spans, BreachMark, MachineSpan, OutageSpan,
    TaskSpan,
};
pub use window::{WindowConfig, WindowStats, WindowedMetrics};

/// Convenience re-exports for instrumented engines and tests.
pub mod prelude {
    pub use crate::counters::Counter;
    pub use crate::event::{Event, ProbeKind};
    pub use crate::memory::{MemoryRecorder, ObsConfig};
    pub use crate::pipeline::{NoopPipeline, PipelineMetrics, PipelineProbe, Stage, StageTimer};
    pub use crate::recorder::{NoopRecorder, Recorder, Tee};
    pub use crate::window::{WindowConfig, WindowedMetrics};
}

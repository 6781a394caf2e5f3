//! # flowsched-sim
//!
//! Simulation driver for the paper's Section 7.4 experiments and for the
//! profile-dynamics illustrations of Theorem 8 (Figures 4–6). EFT runs,
//! the adversaries' synchronous unit batches included, dispatch through
//! the one EFT core ([`EftState`](flowsched_algos::eft::EftState)).
//!
//! - [`driver`]: runs an online scheduler over an instance (batch) or
//!   folds any [`Run`](flowsched_algos::engine::Run) over an
//!   [`ArrivalStream`](flowsched_core::ArrivalStream) into a report in
//!   constant memory ([`simulate_run`]), with optional warm-up
//!   exclusion, and samples the schedule profile `w_t` over time.
//! - [`report`]: flow-time metrics (max, mean, tail percentiles),
//!   per-machine utilization, and a saturation heuristic (when the
//!   offered load exceeds the cluster's theoretical max load, flow times
//!   grow without bound and medians stop being meaningful — the paper's
//!   Figure 11 curves end at the LP max-load line for the same reason).
//!   Reports come in two shapes: batch from a materialized schedule, or
//!   folded online by [`ReportBuilder`] while the stream runs.
//!
//! For full telemetry, run [`simulate_stream`] under a
//! [`Tee`](flowsched_obs::Tee) of a `MemoryRecorder` (aggregates and
//! event trace) and a `WindowedMetrics` (tumbling-window time series),
//! as `flowsched-bench --bin timeline` does: one pass over the stream,
//! and a report equal to an uninstrumented run's.

pub mod driver;
pub mod report;

pub use driver::{
    profile_trace, simulate, simulate_run, simulate_stream, simulate_with, SimConfig,
};
pub use report::{ReportBuilder, ReportConfig, SimReport};

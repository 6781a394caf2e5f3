//! One-call telemetry: a streaming run with aggregates *and* time
//! series recorded in a single pass.
//!
//! [`simulate_stream`] is recorder-generic; this module packages the
//! common full-telemetry choice — a [`MemoryRecorder`] (counters, flow
//! histogram, event trace) teed with a [`WindowedMetrics`]
//! (tumbling-window time series) — so callers like `flowsched-bench
//! --bin timeline` and the instrumented experiment sweeps don't each
//! rebuild the [`Tee`] plumbing. The stream is still consumed exactly
//! once and the report fold is unchanged, so the [`SimReport`] equals
//! an uninstrumented run's bit for bit (`tests/obs_invariants.rs` pins
//! recording transparency).

use flowsched_core::stream::ArrivalStream;
use flowsched_obs::{MemoryRecorder, ObsConfig, Tee, WindowConfig, WindowedMetrics};

use flowsched_algos::tiebreak::TieBreak;

use crate::driver::simulate_stream;
use crate::report::{ReportConfig, SimReport};

/// Configuration for a fully-telemetered run.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Aggregate-recorder parameters (trace ring, flow histogram).
    pub obs: ObsConfig,
    /// Time-series parameters (window width, per-window flow bins).
    pub window: WindowConfig,
}

impl TelemetryConfig {
    /// Defaults for `machines` machines and `window_width` time units
    /// per tumbling window.
    pub fn defaults(machines: usize, window_width: f64) -> Self {
        TelemetryConfig {
            obs: ObsConfig::defaults(machines),
            window: WindowConfig::defaults(machines, window_width),
        }
    }
}

/// Everything one telemetered run produces.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The ordinary streaming report (identical to an uninstrumented
    /// run's).
    pub report: SimReport,
    /// Aggregates + event trace, ready for span derivation and the
    /// Chrome-trace / Prometheus exporters.
    pub recorder: MemoryRecorder,
    /// The tumbling-window time series, ready for the CSV exporter.
    pub windows: WindowedMetrics,
}

/// Runs EFT over the stream with full telemetry in one pass.
pub fn simulate_stream_telemetry<S: ArrivalStream>(
    stream: S,
    policy: TieBreak,
    report: &ReportConfig,
    telemetry: &TelemetryConfig,
) -> Telemetry {
    let mut rec = Tee(
        MemoryRecorder::new(&telemetry.obs),
        WindowedMetrics::new(telemetry.window.clone()),
    );
    let report = simulate_stream(stream, policy, report, &mut rec);
    let Tee(recorder, windows) = rec;
    Telemetry {
        report,
        recorder,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_core::stream::InstanceStream;
    use flowsched_obs::prelude::*;
    use flowsched_obs::NoopRecorder;
    use flowsched_workloads::adversary::interval::interval_adversary_instance;

    #[test]
    fn telemetry_run_matches_uninstrumented_report() {
        let inst = interval_adversary_instance(6, 3, 12);
        let cfg = ReportConfig::default();
        let plain = simulate_stream(
            InstanceStream::new(&inst),
            TieBreak::Min,
            &cfg,
            &mut NoopRecorder,
        );
        let telemetry = simulate_stream_telemetry(
            InstanceStream::new(&inst),
            TieBreak::Min,
            &cfg,
            &TelemetryConfig::defaults(inst.machines(), 1.0),
        );
        assert_eq!(plain, telemetry.report);
        assert_eq!(
            telemetry.recorder.counters().get(Counter::TasksDispatched),
            inst.len() as u64
        );
        assert!(!telemetry.windows.windows().is_empty());
        let dispatched: u64 = telemetry.windows.windows().iter().map(|w| w.starts).sum();
        assert_eq!(dispatched, inst.len() as u64);
    }
}

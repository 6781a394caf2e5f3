//! Simulation entry points — batch ([`simulate`], materializing a
//! [`Schedule`]) and streaming ([`simulate_run`], folding a report
//! straight off an [`ArrivalStream`] in O(machines + window) memory for
//! any [`Run`]: any registry policy, sequential or sharded, with or
//! without a fault plan).

use flowsched_algos::eft::EftState;
use flowsched_algos::engine::Run;
use flowsched_algos::indexed::DispatchKernel;
use flowsched_algos::registry::PolicySpec;
use flowsched_algos::tiebreak::TieBreak;
use flowsched_core::instance::Instance;
use flowsched_core::schedule::Schedule;
use flowsched_core::stream::{ArrivalStream, InstanceStream};
use flowsched_core::time::Time;
use flowsched_obs::{NoopRecorder, Recorder};

use crate::report::{ReportBuilder, ReportConfig, SimReport};

/// Simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Tie-break policy of the EFT scheduler under test.
    pub policy: TieBreak,
    /// Fraction of initial tasks excluded from flow statistics (the
    /// paper's runs are long enough "to reach a steady state"; excluding
    /// the ramp-up makes short runs comparable).
    pub warmup_fraction: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            policy: TieBreak::Min,
            warmup_fraction: 0.0,
        }
    }
}

/// Runs EFT over the instance and reports flow metrics.
///
/// # Panics
/// Panics if `warmup_fraction` is outside `[0, 1)`.
pub fn simulate(inst: &Instance, config: &SimConfig) -> (Schedule, SimReport) {
    simulate_with(inst, config, &mut NoopRecorder)
}

/// [`simulate`] with the run traced into `rec` — the canonical
/// recorder-generic batch entry point. Every task arrival, dispatch,
/// projected completion, and machine transition flows through the
/// recorder (see `flowsched_obs`), alongside the usual
/// `(Schedule, SimReport)` result. With [`NoopRecorder`] this is
/// exactly [`simulate`] — the hooks compile away, which
/// `tests/obs_invariants.rs` pins by comparing schedules and
/// `tests/report_consistency.rs` exploits to cross-check `SimReport`
/// against trace-derived aggregates.
///
/// # Panics
/// Panics if `warmup_fraction` is outside `[0, 1)`.
pub fn simulate_with<R: Recorder>(
    inst: &Instance,
    config: &SimConfig,
    rec: &mut R,
) -> (Schedule, SimReport) {
    assert!(
        (0.0..1.0).contains(&config.warmup_fraction),
        "warmup fraction must be in [0, 1)"
    );
    let schedule = flowsched_algos::eft::eft_stream(InstanceStream::new(inst), config.policy, rec);
    let warmup = (inst.len() as f64 * config.warmup_fraction) as usize;
    let report =
        SimReport::from_schedule(&schedule, inst, warmup.min(inst.len().saturating_sub(1)));
    (schedule, report)
}

/// Runs EFT over an arbitrary [`ArrivalStream`] on the automatic
/// kernel and folds the report online: the shorthand for
/// [`simulate_run`] of a sequential, fault-free EFT [`Run`], kept
/// because most experiments and tests simulate plain EFT this way.
pub fn simulate_stream<S: ArrivalStream, R: Recorder>(
    stream: S,
    policy: TieBreak,
    report: &ReportConfig,
    rec: &mut R,
) -> SimReport {
    simulate_run(
        stream,
        &Run::new(PolicySpec::eft(policy, DispatchKernel::Auto)),
        report,
        rec,
    )
}

/// Executes `run` over `stream` and folds the report online — no
/// `Instance`, no `Schedule`, no per-task allocation. Memory is bounded
/// by machines + histogram bins + drift window (see [`ReportBuilder`]),
/// so million-task streams run in constant space, on either of the
/// run's paths and under any fault plan. The report folds on the
/// calling thread in arrival order, so a sharded run's report equals
/// the sequential one's wherever their schedules agree (pinned by
/// `tests/sharded_equivalence.rs`).
///
/// When `report.expected_measured` is `None` and the stream knows its
/// length, the drift window is sized from `len_hint() − warmup`, so a
/// replayed instance reproduces the batch drift exactly. A fault plan
/// never drops tasks, so the hint still counts every eventual arrival.
pub fn simulate_run<S: ArrivalStream, R: Recorder>(
    stream: S,
    run: &Run<'_>,
    report: &ReportConfig,
    rec: &mut R,
) -> SimReport {
    let mut cfg = *report;
    if cfg.expected_measured.is_none() {
        cfg.expected_measured = stream
            .len_hint()
            .map(|n| n.saturating_sub(cfg.warmup_tasks));
    }
    let mut builder = ReportBuilder::new(stream.machines(), &cfg);
    run.execute(stream, rec, &mut builder);
    builder.finish()
}

/// Replays the instance through an incremental [`EftState`], snapshotting
/// the machine backlog (`w_t`) at each requested sample time. Sample
/// times must be sorted ascending; each snapshot reflects all tasks
/// released strictly before the sample time (matching
/// [`flowsched_core::profile::profile_at`]).
pub fn profile_trace(inst: &Instance, policy: TieBreak, sample_times: &[Time]) -> Vec<Vec<Time>> {
    assert!(
        sample_times.windows(2).all(|w| w[0] <= w[1]),
        "sample times must be sorted"
    );
    let mut state = EftState::new(inst.machines(), policy);
    let mut snapshots = Vec::with_capacity(sample_times.len());
    let mut next_sample = 0usize;
    // Snapshots are filled through `backlog_into` so each output row is
    // allocated exactly once at machine-count capacity.
    let take_snapshot = |state: &EftState, t: Time, out: &mut Vec<Vec<Time>>| {
        let mut snap = Vec::with_capacity(state.machines());
        state.backlog_into(t, &mut snap);
        out.push(snap);
    };
    for (_, task, set) in inst.iter() {
        while next_sample < sample_times.len() && sample_times[next_sample] <= task.release {
            take_snapshot(&state, sample_times[next_sample], &mut snapshots);
            next_sample += 1;
        }
        state.dispatch(task, set);
    }
    while next_sample < sample_times.len() {
        take_snapshot(&state, sample_times[next_sample], &mut snapshots);
        next_sample += 1;
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_core::instance::InstanceBuilder;
    use flowsched_core::procset::ProcSet;
    use flowsched_workloads::adversary::interval::interval_adversary_instance;

    #[test]
    fn simulate_produces_valid_schedule_and_report() {
        let inst = interval_adversary_instance(6, 3, 10);
        let (schedule, report) = simulate(&inst, &SimConfig::default());
        schedule.validate(&inst).unwrap();
        assert_eq!(report.n_measured, inst.len());
        assert!(report.fmax >= 1.0);
    }

    #[test]
    fn profile_trace_matches_offline_profile() {
        use flowsched_core::profile::profile_at;
        let inst = interval_adversary_instance(6, 3, 8);
        let times: Vec<f64> = (0..8).map(|t| t as f64).collect();
        let trace = profile_trace(&inst, TieBreak::Min, &times);
        let schedule = flowsched_algos::eft::eft(&inst, TieBreak::Min);
        for (i, &t) in times.iter().enumerate() {
            let offline = profile_at(&schedule, &inst, t);
            assert_eq!(trace[i], offline, "t = {t}");
        }
    }

    #[test]
    fn trailing_samples_after_all_tasks() {
        let mut b = InstanceBuilder::new(2);
        b.push_unit(0.0, ProcSet::full(2));
        let inst = b.build().unwrap();
        let trace = profile_trace(&inst, TieBreak::Min, &[0.5, 10.0]);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0], vec![0.5, 0.0]);
        assert_eq!(trace[1], vec![0.0, 0.0]);
    }

    #[test]
    fn warmup_fraction_trims_metrics() {
        let inst = interval_adversary_instance(6, 3, 20);
        let (_, full) = simulate(&inst, &SimConfig::default());
        let (_, trimmed) = simulate(
            &inst,
            &SimConfig {
                warmup_fraction: 0.5,
                ..Default::default()
            },
        );
        assert!(trimmed.n_measured < full.n_measured);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_samples_rejected() {
        let inst = interval_adversary_instance(6, 3, 2);
        let _ = profile_trace(&inst, TieBreak::Min, &[2.0, 1.0]);
    }
}

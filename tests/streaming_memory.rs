//! The acceptance proof for the streaming core: a 1,000,000-task
//! Poisson workload runs through the streaming engine without the task
//! vector ever existing — peak RSS growth stays bounded by machines +
//! histogram bins + drift window, far below what materializing a
//! million `(Task, ProcSet)` pairs would commit.

#![cfg(target_os = "linux")]

use flowsched::algos::tiebreak::TieBreak;
use flowsched::obs::{
    Counter, MemoryRecorder, NoopRecorder, ObsConfig, Tee, WindowConfig, WindowedMetrics,
};
use flowsched::sim::driver::simulate_stream;
use flowsched::sim::report::ReportConfig;
use flowsched::workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

/// Peak resident set size of this process, in kibibytes, from
/// `/proc/self/status` (`VmHWM` is a monotonic high-water mark).
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs available on linux");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line present")
}

#[test]
fn million_task_poisson_stream_runs_in_bounded_memory() {
    let cfg = PoissonStreamConfig {
        m: 16,
        n: 1_000_000,
        structure: StructureKind::RingFixed(3),
        lambda: 8.0,
        unit: true,
        ptime_steps: 4,
    };

    let before = peak_rss_kib();
    let report = simulate_stream(
        PoissonStream::new(&cfg, 404),
        TieBreak::Min,
        &ReportConfig::default(),
        &mut NoopRecorder,
    );
    let after = peak_rss_kib();

    // The full report came out of the fold...
    assert_eq!(report.n_measured, 1_000_000);
    assert!(report.fmax >= 1.0);
    assert!(report.utilization.iter().any(|&u| u > 0.0));

    // ...and the run's footprint stayed flat. Live state is the RNG,
    // one scratch set, 16 machine slots, 4096 histogram bins, and the
    // 250k-entry drift window (~4 MiB) — materializing the instance
    // instead would hold 10^6 tasks plus 10^6 three-machine sets
    // (≳ 80 MiB). 32 MiB of headroom keeps the bound meaningful while
    // tolerating allocator slack.
    let grown_kib = after.saturating_sub(before);
    assert!(
        grown_kib < 32 * 1024,
        "streaming run grew peak RSS by {grown_kib} KiB — the task vector \
         is being materialized somewhere"
    );
}

#[test]
fn million_task_stream_with_windowed_telemetry_stays_bounded() {
    // The full telemetry pipeline rides the same stream: aggregate
    // recorder (bounded ring, 64-bin histogram) plus the tumbling-window
    // time series. At λ = 8 the horizon is ≈ 125k time units, so
    // 16-unit windows give ≈ 7.8k WindowStats (~1 KiB each with 16
    // machines and a 32-bin flow histogram) — telemetry must stay
    // O(#windows × #machines), far under the same 32 MiB bound the
    // uninstrumented run honours, not O(tasks).
    let cfg = PoissonStreamConfig {
        m: 16,
        n: 1_000_000,
        structure: StructureKind::RingFixed(3),
        lambda: 8.0,
        unit: true,
        ptime_steps: 4,
    };

    let before = peak_rss_kib();
    let mut rec = Tee(
        MemoryRecorder::new(&ObsConfig::defaults(16)),
        WindowedMetrics::new(WindowConfig::defaults(16, 16.0)),
    );
    let report = simulate_stream(
        PoissonStream::new(&cfg, 404),
        TieBreak::Min,
        &ReportConfig::default(),
        &mut rec,
    );
    let after = peak_rss_kib();

    let Tee(recorder, windows) = rec;
    assert_eq!(report.n_measured, 1_000_000);
    let starts: u64 = windows.windows().iter().map(|w| w.starts).sum();
    assert_eq!(starts, 1_000_000, "every dispatch lands in some window");
    assert_eq!(recorder.counters().get(Counter::TasksDispatched), 1_000_000);

    let grown_kib = after.saturating_sub(before);
    assert!(
        grown_kib < 32 * 1024,
        "windowed telemetry grew peak RSS by {grown_kib} KiB — per-task \
         state is leaking into the window layer"
    );
}

#[test]
fn ten_million_task_sharded_run_stays_bounded() {
    // The PR-6 regime: the 10M-task cluster-partitioned trace from
    // BENCH_PR6 runs through the sharded engine with real worker
    // threads and bounded `std::sync::mpsc::sync_channel` queues. Memory
    // must stay O(machines + queues + report fold): in-flight tasks are
    // capped at (queue_cap + 2) × batch × workers (12,288 at the default
    // on four workers), 88 bytes each (a 48-byte task message and a
    // 40-byte result; ≈ 1.1 MiB), so a 10× longer trace than the
    // sequential tests still fits the same 32 MiB envelope — if the
    // router buffered the stream (or a worker stopped draining),
    // 10M × 88 B ≈ 880 MiB would blow it instantly.
    // The drift window is pinned to the fixed 1024-task fallback
    // (`expected_measured: None` is overridden below): auto-sizing it
    // from the 10M-task hint would alone hold n/4-entry head and tail
    // buffers (~64 MiB), drowning the engine bound this test is about.
    use flowsched::algos::engine::{Run, ShardedConfig};
    use flowsched::algos::indexed::DispatchKernel;
    use flowsched::algos::registry::PolicySpec;
    use flowsched::core::shard::DEFAULT_MAX_SHARDS;
    use flowsched::core::stream::ArrivalStream;
    use flowsched::sim::driver::simulate_run;

    let cfg = PoissonStreamConfig {
        m: 256,
        n: 10_000_000,
        structure: StructureKind::DisjointBlocks(16),
        lambda: 128.0,
        unit: true,
        ptime_steps: 4,
    };

    let before = peak_rss_kib();
    let stream = PoissonStream::new(&cfg, 2026);
    let plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
    assert!(plan.shards() > 1, "the disjoint trace must actually shard");
    let report_cfg = ReportConfig {
        expected_measured: Some(4096), // 1024-entry drift quarters
        ..ReportConfig::default()
    };
    let report = simulate_run(
        stream,
        &Run::new(PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto))
            .sharded(&plan, &ShardedConfig::with_threads(4)),
        &report_cfg,
        &mut NoopRecorder,
    );
    let after = peak_rss_kib();

    assert_eq!(report.n_measured, 10_000_000);
    assert!(report.fmax >= 1.0);
    assert!(report.utilization.iter().any(|&u| u > 0.0));

    let grown_kib = after.saturating_sub(before);
    assert!(
        grown_kib < 32 * 1024,
        "sharded 10M-task run grew peak RSS by {grown_kib} KiB — the \
         router or a queue is accumulating in-flight tasks"
    );
}

#[test]
fn million_wide_inclusive_tasks_never_materialize_machine_vectors() {
    // The PR-5 regime: m = 10,000 machines with inclusive-prefix sets
    // averaging m/2 ≈ 5,000 machines per task. The stream lends each set
    // as an O(1) `ProcSetRef::Prefix` and the auto-selected indexed
    // kernel dispatches through the lane index, so a million such
    // tasks must not allocate a single per-task machine vector —
    // materializing them would commit ≈ 1M × 5k × 8 B ≈ 40 GiB.
    let m = 10_000;
    let cfg = PoissonStreamConfig {
        m,
        n: 1_000_000,
        structure: StructureKind::InclusivePrefix,
        lambda: m as f64 / 2.0,
        unit: true,
        ptime_steps: 4,
    };

    let before = peak_rss_kib();
    let report = simulate_stream(
        PoissonStream::new(&cfg, 1105),
        TieBreak::Min,
        &ReportConfig::default(),
        &mut NoopRecorder,
    );
    let after = peak_rss_kib();

    assert_eq!(report.n_measured, 1_000_000);
    assert!(report.fmax >= 1.0);

    // Live state: the RNG, 10k machine completions, the ~1.4k-slot
    // lane index above them (≈ 11 KiB), the report fold (10k utilization slots,
    // 4096 histogram bins, 250k-entry drift window ≈ 4 MiB). The same
    // 32 MiB headroom as the narrow-set runs keeps the bound meaningful:
    // even one wide set retained per thousand tasks would blow it.
    let grown_kib = after.saturating_sub(before);
    assert!(
        grown_kib < 32 * 1024,
        "wide-inclusive streaming run grew peak RSS by {grown_kib} KiB — \
         per-task machine vectors are being materialized somewhere"
    );
}

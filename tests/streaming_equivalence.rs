//! The streaming path is the batch path: for every engine and every
//! tie-break, driving a generator-backed [`ArrivalStream`] through the
//! shared engine produces exactly the schedule (and report) that
//! materializing the same stream into an `Instance` and running the
//! batch entry point does. Plus Proposition 1 on streams: FIFO's
//! central-queue engine and EFT's immediate-dispatch engine — two
//! independent loops — agree on unrestricted arrival streams.

use proptest::prelude::*;

use flowsched::algos::eft::{eft, eft_stream};
use flowsched::algos::engine::Run;
use flowsched::algos::fifo::{fifo, fifo_stream};
use flowsched::algos::registry::{PolicyId, PolicySpec};
use flowsched::algos::tiebreak::TieBreak;
use flowsched::core::stream::{collect_stream, InstanceStream};
use flowsched::obs::NoopRecorder;
use flowsched::sim::driver::{simulate, simulate_stream, SimConfig};
use flowsched::sim::report::ReportConfig;
use flowsched::workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

fn any_structure() -> impl Strategy<Value = StructureKind> {
    prop_oneof![
        Just(StructureKind::Unrestricted),
        (1usize..=6).prop_map(StructureKind::IntervalFixed),
        (1usize..=6).prop_map(StructureKind::RingFixed),
        (1usize..=6).prop_map(StructureKind::DisjointBlocks),
        Just(StructureKind::InclusiveChain),
        Just(StructureKind::NestedLaminar),
        Just(StructureKind::General),
    ]
}

fn any_tiebreak() -> impl Strategy<Value = TieBreak> {
    prop_oneof![
        Just(TieBreak::Min),
        Just(TieBreak::Max),
        any::<u64>().prop_map(|seed| TieBreak::Rand { seed }),
    ]
}

fn any_rule() -> impl Strategy<Value = PolicyId> {
    prop_oneof![
        any_tiebreak().prop_map(|tie| PolicyId::Eft { tie }),
        any::<u64>().prop_map(|seed| PolicyId::Random { seed }),
        (1usize..=3, any::<u64>()).prop_map(|(d, seed)| PolicyId::Choices { d, seed }),
        Just(PolicyId::RoundRobin),
    ]
}

fn stream_config(
    m: usize,
    n: usize,
    structure: StructureKind,
    lambda: f64,
    unit: bool,
) -> PoissonStreamConfig {
    PoissonStreamConfig {
        m,
        n,
        structure,
        lambda,
        unit,
        ptime_steps: 6,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// EFT over the live stream == EFT over the materialized instance,
    /// for every structure and tie-break (including `Rand`, where a
    /// single extra RNG draw anywhere in the streaming path would
    /// diverge).
    #[test]
    fn eft_streaming_equals_batch(
        structure in any_structure(),
        tb in any_tiebreak(),
        m in 2usize..8,
        n in 1usize..120,
        lambda in 0.5f64..8.0,
        unit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = structure_bound(structure, m);
        let cfg = stream_config(m, n, k, lambda, unit);
        let inst = collect_stream(PoissonStream::new(&cfg, seed)).unwrap();
        let batch = eft(&inst, tb);
        let streamed = eft_stream(PoissonStream::new(&cfg, seed), tb, &mut NoopRecorder);
        prop_assert_eq!(&streamed, &batch);
        streamed.validate(&inst).unwrap();
    }

    /// The load-oblivious dispatch rules ride the same engine: streaming
    /// == batch for RandomMachine, TwoChoices, RoundRobin, and Eft-by-rule.
    #[test]
    fn dispatch_rules_streaming_equals_batch(
        structure in any_structure(),
        rule in any_rule(),
        m in 2usize..8,
        n in 1usize..120,
        lambda in 0.5f64..8.0,
        seed in any::<u64>(),
    ) {
        let k = structure_bound(structure, m);
        let cfg = stream_config(m, n, k, lambda, true);
        let inst = collect_stream(PoissonStream::new(&cfg, seed)).unwrap();
        let run = Run::new(PolicySpec::new(rule));
        let batch = run.schedule(InstanceStream::new(&inst), &mut NoopRecorder);
        let streamed = run.schedule(PoissonStream::new(&cfg, seed), &mut NoopRecorder);
        prop_assert_eq!(&streamed, &batch);
        streamed.validate(&inst).unwrap();
    }

    /// FIFO's central-queue engine consumes the same stream the batch
    /// wrapper replays — byte-identical schedules (unrestricted only;
    /// FIFO rejects processing-set restrictions).
    #[test]
    fn fifo_streaming_equals_batch(
        tb in any_tiebreak(),
        m in 2usize..8,
        n in 1usize..120,
        lambda in 0.5f64..8.0,
        unit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = stream_config(m, n, StructureKind::Unrestricted, lambda, unit);
        let inst = collect_stream(PoissonStream::new(&cfg, seed)).unwrap();
        let batch = fifo(&inst, tb);
        let streamed = fifo_stream(PoissonStream::new(&cfg, seed), tb, &mut NoopRecorder);
        prop_assert_eq!(&streamed, &batch);
    }

    /// Proposition 1 on live streams: the two *independent* engines —
    /// FIFO's event loop and EFT's immediate dispatch — produce the same
    /// schedule from one unrestricted arrival stream, under every common
    /// tie-break.
    #[test]
    fn fifo_equals_eft_on_unrestricted_streams(
        tb in any_tiebreak(),
        m in 2usize..8,
        n in 1usize..120,
        lambda in 0.5f64..8.0,
        unit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = stream_config(m, n, StructureKind::Unrestricted, lambda, unit);
        let sf = fifo_stream(PoissonStream::new(&cfg, seed), tb, &mut NoopRecorder);
        let se = eft_stream(PoissonStream::new(&cfg, seed), tb, &mut NoopRecorder);
        prop_assert_eq!(sf, se);
    }

    /// The streaming report fold reproduces the batch report: exact on
    /// every field the [`ReportBuilder`] exactness contract promises,
    /// within one histogram bin on the online percentile estimates.
    #[test]
    fn streaming_report_equals_batch_report(
        structure in any_structure(),
        tb in any_tiebreak(),
        m in 2usize..8,
        n in 2usize..120,
        lambda in 0.5f64..8.0,
        unit in any::<bool>(),
        warmup_fraction in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let k = structure_bound(structure, m);
        let cfg = stream_config(m, n, k, lambda, unit);
        let inst = collect_stream(PoissonStream::new(&cfg, seed)).unwrap();
        let (schedule, batch) =
            simulate(&inst, &SimConfig { policy: tb, warmup_fraction });
        // The batch warmup count, replicated by prefix count.
        let warmup = ((n as f64 * warmup_fraction) as usize).min(n - 1);
        let streamed = simulate_stream(
            PoissonStream::new(&cfg, seed),
            tb,
            &ReportConfig { warmup_tasks: warmup, ..Default::default() },
            &mut NoopRecorder,
        );
        prop_assert_eq!(streamed.n_measured, batch.n_measured);
        prop_assert_eq!(streamed.fmax, batch.fmax);
        prop_assert_eq!(streamed.mean_flow, batch.mean_flow);
        prop_assert_eq!(streamed.max_stretch, batch.max_stretch);
        prop_assert_eq!(streamed.mean_stretch, batch.mean_stretch);
        prop_assert_eq!(&streamed.utilization, &batch.utilization);
        prop_assert_eq!(streamed.drift, batch.drift);
        // Online percentiles come from the histogram, which tracks
        // per-bin sample extremes and interpolates the rank within the
        // bin. That makes the streaming estimate *exact* whenever the
        // bins holding the relevant order statistics contain at most
        // two samples (or all-equal ones), and otherwise pins it within
        // the spread of the samples sharing that bin — strictly tighter
        // than the old one-bin-width bound.
        let mut flows: Vec<f64> = schedule.flow_times(&inst);
        let warm = inst.len() - batch.n_measured;
        flows.drain(..warm);
        flows.sort_by(f64::total_cmp);
        for (q, p_s, p_b) in [
            (0.50, streamed.p50, batch.p50),
            (0.95, streamed.p95, batch.p95),
            (0.99, streamed.p99, batch.p99),
        ] {
            let h = (flows.len() - 1) as f64 * q;
            let tol = [h.floor() as usize, h.ceil() as usize]
                .into_iter()
                .map(|r| bin_slack(&flows, flows[r]))
                .fold(0.0, f64::max);
            prop_assert!(
                (p_s - p_b).abs() <= tol + 1e-9,
                "percentile q={} drifted past the in-bin spread {}: {} vs {}",
                q,
                tol,
                p_s,
                p_b
            );
        }
    }
}

/// Worst-case streaming error for recovering the order statistic `x`
/// from the default report histogram ([0, 1024), 4096 bins): zero when
/// `x`'s bin holds ≤ 2 samples (the per-bin extremes recover them
/// exactly), else the spread of the samples sharing the bin.
fn bin_slack(sorted: &[f64], x: f64) -> f64 {
    const LO: f64 = 0.0;
    const HI: f64 = 1024.0;
    const BINS: f64 = 4096.0;
    let width = (HI - LO) / BINS;
    // Out-of-range samples land in the under/overflow buckets, which
    // track their own extremes; same spread rule applies.
    let (lo, hi) = if x < LO {
        (f64::NEG_INFINITY, LO)
    } else if x >= HI {
        (HI, f64::INFINITY)
    } else {
        let i = ((x - LO) / width).floor();
        (LO + i * width, LO + (i + 1.0) * width)
    };
    let in_bin: Vec<f64> = sorted
        .iter()
        .copied()
        .filter(|v| *v >= lo && *v < hi)
        .collect();
    if in_bin.len() <= 2 {
        0.0
    } else {
        in_bin[in_bin.len() - 1] - in_bin[0]
    }
}

/// Clamps structure parameters to the sampled machine count (the `k` in
/// `IntervalFixed(k)` etc. must satisfy `1 ≤ k ≤ m`).
fn structure_bound(structure: StructureKind, m: usize) -> StructureKind {
    match structure {
        StructureKind::IntervalFixed(k) => StructureKind::IntervalFixed(k.min(m)),
        StructureKind::RingFixed(k) => StructureKind::RingFixed(k.min(m)),
        StructureKind::DisjointBlocks(k) => StructureKind::DisjointBlocks(k.min(m)),
        other => other,
    }
}

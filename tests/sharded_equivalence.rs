//! Equivalence of the sharded dispatch engine with the sequential
//! streaming engine.
//!
//! The sharded engine (`flowsched_parallel::sharded` driven through the
//! sharded path of `engine::Run`) partitions the machines by cluster,
//! dispatches each shard on its own worker, and merges the decisions
//! back in arrival order. These tests pin the contract from ISSUE 6:
//! for `Min`/`Max` tie-breaks the schedule, the `SimReport`, and the
//! full recorder trace are **bitwise-identical** to the sequential run
//! across every structure family and thread count — including odd
//! thread counts that leave workers with uneven shard loads, and tiny
//! batch/queue configurations that force the backpressure paths.
//! `Rand` is pinned to its documented weaker contract: identical to
//! sequential on single-shard plans, thread-count invariant (but
//! per-shard seeded) on multi-shard plans.

use proptest::prelude::*;

use flowsched::algos::eft::eft_stream;
use flowsched::algos::engine::{Run, ShardedConfig};
use flowsched::algos::indexed::DispatchKernel;
use flowsched::algos::registry::PolicySpec;
use flowsched::algos::tiebreak::TieBreak;
use flowsched::core::shard::{ShardPlan, DEFAULT_MAX_SHARDS};
use flowsched::core::stream::ArrivalStream;
use flowsched::obs::{MemoryRecorder, NoopRecorder};
use flowsched::sim::driver::{simulate_run, simulate_stream};
use flowsched::sim::report::ReportConfig;
use flowsched::workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

/// The families exercised: the disjoint kinds produce genuine
/// multi-shard plans; the spanning kinds collapse to a single shard
/// (pinning that the engine costs nothing and changes nothing there).
fn kind_for(idx: usize, k: usize) -> StructureKind {
    match idx {
        0 => StructureKind::DisjointBlocks(k),
        1 => StructureKind::IntervalFixed(k),
        2 => StructureKind::RingFixed(k),
        3 => StructureKind::InclusivePrefix,
        4 => StructureKind::Unrestricted,
        _ => StructureKind::General,
    }
}

/// `(batch, queue_cap)` from one task per batch over depth-1 queues up
/// to 256 × 4 and the default batch of 1024. The small batches send
/// every worker many recycled batches even on a short stream, and force
/// the full-queue and high-water paths; at the two large sizes these
/// short streams rarely fill a batch, so the tasks go out in partial
/// batches that the tail's `force_head` flushes.
fn transport_config() -> impl Strategy<Value = (usize, usize)> {
    (
        prop_oneof![
            Just(1usize),
            Just(2usize),
            Just(3usize),
            Just(7usize),
            Just(256usize),
            Just(1024usize)
        ],
        prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    )
}

fn stream_for(kind: StructureKind, m: usize, n: usize, seed: u64) -> PoissonStream {
    let cfg = PoissonStreamConfig::unit_tasks(m, n, m as f64 / 2.0, kind);
    PoissonStream::new(&cfg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Schedule + recorder-trace equality, sequential vs sharded, for
    /// the deterministic tie-breaks across families × thread counts.
    #[test]
    fn sharded_schedule_and_trace_match_sequential(
        family in 0usize..6,
        tb_max in any::<bool>(),
        m in 2usize..32,
        n in 1usize..200,
        k_raw in 1usize..32,
        threads in 1usize..5,
        (batch, queue_cap) in transport_config(),
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m;
        let kind = kind_for(family, k);
        let tb = if tb_max { TieBreak::Max } else { TieBreak::Min };

        let mut seq_rec = MemoryRecorder::with_defaults(m);
        let sequential = eft_stream(stream_for(kind, m, n, seed), tb, &mut seq_rec);

        let stream = stream_for(kind, m, n, seed);
        let plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
        let mut shard_rec = MemoryRecorder::with_defaults(m);
        let sharded = Run::new(PolicySpec::eft(tb, DispatchKernel::Auto))
            .sharded(&plan, &ShardedConfig { threads, batch, queue_cap })
            .schedule(stream, &mut shard_rec);

        prop_assert_eq!(
            &sequential, &sharded,
            "{:?} {:?} threads={} batch={} queue_cap={} shards={}: schedules differ",
            kind, tb, threads, batch, queue_cap, plan.shards()
        );
        prop_assert_eq!(
            seq_rec.trace().to_vec(),
            shard_rec.trace().to_vec(),
            "{:?} {:?} threads={} batch={} queue_cap={}: recorder traces differ",
            kind, tb, threads, batch, queue_cap
        );
    }

    /// The online-folded `SimReport` (order-sensitive float sums) is
    /// bitwise-identical too, including under stressed backpressure:
    /// small batches and depth-1 queues force the block/flush paths.
    #[test]
    fn sharded_sim_report_matches_sequential(
        m_raw in 2usize..24,
        n in 1usize..300,
        k_raw in 1usize..8,
        threads in 1usize..5,
        (batch, queue_cap) in transport_config(),
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m_raw;
        let m = (m_raw / k).max(1) * k; // k | m: every block is full width
        let kind = StructureKind::DisjointBlocks(k);
        let report_cfg = ReportConfig::default();

        let baseline = simulate_stream(
            stream_for(kind, m, n, seed),
            TieBreak::Min,
            &report_cfg,
            &mut NoopRecorder,
        );

        let stream = stream_for(kind, m, n, seed);
        let plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
        let cfg = ShardedConfig { threads, batch, queue_cap };
        let sharded = simulate_run(
            stream,
            &Run::new(PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto)).sharded(&plan, &cfg),
            &report_cfg,
            &mut NoopRecorder,
        );

        prop_assert_eq!(
            format!("{baseline:?}"),
            format!("{sharded:?}"),
            "m={} k={} threads={} batch={} queue_cap={}: reports differ",
            m, k, threads, batch, queue_cap
        );
    }

    /// `Rand` on a single-shard plan consumes the same RNG stream as the
    /// sequential engine (shard 0 keeps the seed), so spanning families
    /// reproduce the sequential schedule exactly.
    #[test]
    fn rand_single_shard_matches_sequential(
        m in 2usize..24,
        n in 1usize..200,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let kind = StructureKind::Unrestricted;
        let tb = TieBreak::Rand { seed: seed ^ 0x7ea5 };
        let sequential = eft_stream(stream_for(kind, m, n, seed), tb, &mut NoopRecorder);

        let stream = stream_for(kind, m, n, seed);
        let plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
        prop_assert!(plan.is_single(), "unrestricted sets must not shard");
        let sharded = Run::new(PolicySpec::eft(tb, DispatchKernel::Auto))
            .sharded(&plan, &ShardedConfig::with_threads(threads))
            .schedule(stream, &mut NoopRecorder);
        prop_assert_eq!(sequential, sharded);
    }

    /// `Rand` on a multi-shard plan is deterministic and thread-count
    /// invariant: the per-shard streams depend on `(seed, shard)` only,
    /// so 1, 2, and 4 workers all produce the same schedule.
    #[test]
    fn rand_multi_shard_is_thread_count_invariant(
        m_raw in 2usize..24,
        n in 1usize..200,
        k_raw in 1usize..6,
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m_raw;
        let m = (m_raw / k).max(2) * k;
        let kind = StructureKind::DisjointBlocks(k);
        let tb = TieBreak::Rand { seed: seed ^ 0x0DD5 };
        let run = |threads: usize| {
            let stream = stream_for(kind, m, n, seed);
            let plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
            Run::new(PolicySpec::eft(tb, DispatchKernel::Auto))
                .sharded(&plan, &ShardedConfig::with_threads(threads))
                .schedule(stream, &mut NoopRecorder)
        };
        let inline = run(1);
        prop_assert_eq!(&inline, &run(2), "2 workers diverged from inline");
        prop_assert_eq!(&inline, &run(4), "4 workers diverged from inline");
        prop_assert_eq!(&inline, &run(3), "3 workers diverged from inline");
    }
}

/// A set that straddles a shard boundary is a routing bug, not a silent
/// misassignment — the engine must panic with the straddle message.
#[test]
#[should_panic(expected = "straddles")]
fn straddling_set_panics_instead_of_misrouting() {
    use flowsched::core::instance::InstanceBuilder;
    use flowsched::core::procset::ProcSet;
    use flowsched::core::stream::InstanceStream;

    let mut b = InstanceBuilder::new(4);
    b.push_unit(0.0, ProcSet::interval(1, 2)); // spans the cut at 2
    let inst = b.build().unwrap();
    let plan = ShardPlan::blocks(4, 2, DEFAULT_MAX_SHARDS);
    assert_eq!(plan.shards(), 2);
    let _ = Run::new(PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto))
        .sharded(&plan, &ShardedConfig::with_threads(2))
        .schedule(InstanceStream::new(&inst), &mut NoopRecorder);
}

/// `InstanceStream` derives its plan from the merged set hulls, so a
/// disjoint-block instance shards and reproduces the sequential run
/// end-to-end through the hull-derived plan (not just the generator's
/// analytic one).
#[test]
fn instance_stream_hull_plan_round_trips() {
    use flowsched::core::stream::InstanceStream;
    use flowsched::workloads::random::{random_instance, RandomInstanceConfig};

    let config = RandomInstanceConfig::unit_tasks(24, 500, StructureKind::DisjointBlocks(4));
    let inst = random_instance(&config, 0xB10C);
    let plan = InstanceStream::new(&inst).shard_plan(DEFAULT_MAX_SHARDS);
    assert!(plan.shards() > 1, "hulls of disjoint blocks must shard");

    for tb in [TieBreak::Min, TieBreak::Max] {
        let sequential = eft_stream(InstanceStream::new(&inst), tb, &mut NoopRecorder);
        for threads in [1, 3] {
            let sharded = Run::new(PolicySpec::eft(tb, DispatchKernel::Auto))
                .sharded(&plan, &ShardedConfig::with_threads(threads))
                .schedule(InstanceStream::new(&inst), &mut NoopRecorder);
            assert_eq!(sequential, sharded, "{tb:?} threads={threads}");
        }
        sequential.validate(&inst).unwrap();
    }
}

/// `Auto` resolves once per run, against the stream's promise, and
/// every shard runs that kernel: 128-wide disjoint blocks at m = 512
/// make four shards that descend the lane index once per task, 16-wide
/// blocks at m = 256 make sixteen that never descend, and either way
/// the kernel counters equal the sequential run's.
#[test]
fn sharded_and_sequential_runs_resolve_auto_alike() {
    use flowsched::algos::engine::NullSink;
    use flowsched::obs::Counter;

    const N: usize = 1_000;
    for (m, block, descents) in [(512, 128, N as u64), (256, 16, 0)] {
        let counters = |sharded: bool| {
            let stream = stream_for(StructureKind::DisjointBlocks(block), m, N, 7);
            let plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
            assert_eq!(plan.shards(), m / block);
            let cfg = ShardedConfig::with_threads(2);
            let run = Run::new(PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto));
            let run = if sharded {
                run.sharded(&plan, &cfg)
            } else {
                run
            };
            let mut rec = MemoryRecorder::with_defaults(m);
            run.execute(stream, &mut rec, &mut NullSink);
            [
                Counter::TasksDispatched,
                Counter::IndexedDescents,
                Counter::ScalarFallbackScans,
            ]
            .map(|c| rec.counters().get(c))
        };
        let sequential = counters(false);
        assert_eq!(sequential, [N as u64, descents, 0], "blocks of {block}");
        assert_eq!(counters(true), sequential, "blocks of {block}");
    }
}

//! Criterion benchmarks: sequential vs sharded EFT dispatch on a
//! cluster-partitioned Poisson trace (the PR-6 scaling ladder, recorded
//! into `BENCH_PR6.json`).
//!
//! The workload is the shardable shape from the paper's Section 7
//! experiments: `m = 256` machines split into 16 disjoint blocks of 16
//! (`StructureKind::DisjointBlocks`), the partitioned-cluster analogue
//! of a key-value store whose replica groups never span partitions.
//! Tasks arrive as one Poisson stream (λ = m/2, unit service) and each
//! task names one block. `ArrivalStream::shard_plan` turns the block
//! structure into a 16-shard plan, so the sharded engine runs one EFT
//! kernel per block on the worker pool while the sequential baseline
//! dispatches every task on one thread.
//!
//! The ladder holds the trace fixed (`FLOWSCHED_BENCH_TASKS` tasks,
//! default 10 million) and sweeps the worker count through
//! `ShardedConfig::with_threads` ∈ {1, 2, 4, 8}; `seq` is
//! `simulate_stream` on the unsharded path. `t1` runs the sharded
//! engine inline (no threads, no channels), so `seq` vs `t1` isolates
//! the routing overhead and `t1` vs `tN` isolates the scaling.
//!
//! **Reading the numbers**: speedup is wall-clock `seq` ÷ `tN`. The
//! curve is only meaningful on a machine with ≥ N physical cores —
//! on a single-core container every `tN` point degenerates to `t1`
//! plus channel overhead (see EXPERIMENTS.md, "Sharded scaling").

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use flowsched_algos::engine::{Run, ShardedConfig};
use flowsched_algos::indexed::DispatchKernel;
use flowsched_algos::registry::PolicySpec;
use flowsched_algos::tiebreak::TieBreak;
use flowsched_core::stream::ArrivalStream;
use flowsched_obs::NoopRecorder;
use flowsched_sim::driver::{simulate_run, simulate_stream};
use flowsched_sim::report::ReportConfig;
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

const MACHINES: usize = 256;
const BLOCK: usize = 16;
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Trace length: 10M tasks by default (the PR-6 acceptance trace);
/// `FLOWSCHED_BENCH_TASKS` overrides for quick local runs — but
/// medians from a shortened run are not comparable to the committed
/// baseline.
fn tasks() -> usize {
    std::env::var("FLOWSCHED_BENCH_TASKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(10_000_000)
}

fn trace(n: usize) -> PoissonStream {
    let cfg = PoissonStreamConfig::unit_tasks(
        MACHINES,
        n,
        MACHINES as f64 / 2.0,
        StructureKind::DisjointBlocks(BLOCK),
    );
    PoissonStream::new(&cfg, 7)
}

fn bench_sharded_scale(c: &mut Criterion) {
    let n = tasks();
    let mut g = c.benchmark_group("sharded_scale");
    let label = |suffix: &str| format!("disjoint_10m/{suffix}");

    g.bench_function(label("seq"), |b| {
        b.iter(|| {
            black_box(simulate_stream(
                trace(n),
                TieBreak::Min,
                &ReportConfig::default(),
                &mut NoopRecorder,
            ))
        })
    });

    for threads in THREAD_LADDER {
        let cfg = ShardedConfig::with_threads(threads);
        g.bench_function(label(&format!("t{threads}")), |b| {
            b.iter(|| {
                let stream = trace(n);
                let plan = stream.shard_plan(flowsched_core::shard::DEFAULT_MAX_SHARDS);
                black_box(simulate_run(
                    stream,
                    &Run::new(PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto))
                        .sharded(&plan, &cfg),
                    &ReportConfig::default(),
                    &mut NoopRecorder,
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sharded_scale);
criterion_main!(benches);

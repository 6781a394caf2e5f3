//! Pipeline wall-clock profile: where does a sharded dispatch cycle
//! actually spend its nanoseconds?
//!
//! ```text
//! cargo run --release -p flowsched-bench --bin pipeline_profile -- \
//!     [--tasks <n>] [--threads <t>] [--seed <u64>]
//! ```
//!
//! Runs the same cluster-partitioned Poisson trace twice:
//!
//! 1. sequentially ([`Run::execute`], no transport at all) — the floor
//!    any routing overhead is measured against;
//! 2. sharded with a live [`PipelineMetrics`] probe
//!    ([`Run::execute_probed`]) — every stage span, queue gauge, and
//!    stall counter of the transport.
//!
//! It prints both runs' wall-clock, verifies the two schedules hash
//! identically (the probe must never perturb dispatch), and renders the
//! per-stage table: spans, total ms, ns/span, **ns/task** — the last
//! column is the per-task routing tax of each stage, the measurement
//! ROADMAP item 1 asks for. `dequeue_wait`/`enqueue_wait` rows are pure
//! waits (0 items), so read their cost from `total_ms` against the
//! run's wall-clock instead.
//!
//! The dispatch policy is the registry string in `FLOWSCHED_POLICY`
//! (default `eft:min`). `ci_check.sh` runs a bounded `--tasks` smoke of
//! this binary; `scripts/bench_gate.sh` separately gates the
//! noop-probe overhead (`benches/pipeline.rs`).

use std::time::Instant;

use flowsched_algos::engine::{Run, ShardedConfig};
use flowsched_algos::registry::PolicySpec;
use flowsched_bench::HashSink;
use flowsched_core::stream::ArrivalStream;
use flowsched_obs::{NoopRecorder, PipelineMetrics};
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

const MACHINES: usize = 256;
const BLOCK: usize = 16;

fn main() {
    let mut tasks: usize = 500_000;
    let mut threads = flowsched_parallel::default_threads();
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tasks" => {
                let v = it.next().expect("--tasks requires a count");
                tasks = v
                    .parse()
                    .unwrap_or_else(|_| panic!("--tasks takes a usize, got {v:?}"));
            }
            "--threads" => {
                let v = it.next().expect("--threads requires a count");
                threads = v
                    .parse()
                    .unwrap_or_else(|_| panic!("--threads takes a usize, got {v:?}"));
            }
            other => rest.push(other.to_string()),
        }
    }
    let args = flowsched_bench::parse_from(rest);
    let seed = args.scale.seed;

    let policy = std::env::var("FLOWSCHED_POLICY").unwrap_or_else(|_| "eft:min".into());
    let spec: PolicySpec = policy
        .parse()
        .unwrap_or_else(|e| panic!("FLOWSCHED_POLICY: {e}"));
    let cfg = PoissonStreamConfig::unit_tasks(
        MACHINES,
        tasks,
        MACHINES as f64 / 2.0,
        StructureKind::DisjointBlocks(BLOCK),
    );

    // Pass 1: the sequential engine — the no-transport floor.
    let mut seq_sink = HashSink::new();
    let t0 = Instant::now();
    Run::new(spec).execute(
        PoissonStream::new(&cfg, seed),
        &mut NoopRecorder,
        &mut seq_sink,
    );
    let seq_elapsed = t0.elapsed();

    // Pass 2: the sharded engine with the live probe.
    let stream = PoissonStream::new(&cfg, seed);
    let plan = stream.shard_plan(flowsched_core::shard::DEFAULT_MAX_SHARDS);
    let shards = plan.shards();
    let metrics = PipelineMetrics::new();
    let mut shard_sink = HashSink::new();
    let t0 = Instant::now();
    Run::new(spec)
        .sharded(&plan, &ShardedConfig::with_threads(threads))
        .execute_probed(stream, &mut NoopRecorder, &mut shard_sink, metrics.clone());
    let shard_elapsed = t0.elapsed();

    assert_eq!(seq_sink.count, tasks as u64, "sequential run lost tasks");
    assert_eq!(shard_sink.count, tasks as u64, "sharded run lost tasks");
    assert_eq!(
        seq_sink.hash, shard_sink.hash,
        "probed sharded schedule diverged from the sequential engine"
    );

    println!(
        "pipeline_profile: m = {MACHINES}, n = {tasks}, shards = {shards}, \
         threads = {threads}, policy = {spec}, seed = {seed:#x}"
    );
    println!(
        "schedule_hash=0x{:016x} (sequential == sharded)",
        seq_sink.hash
    );
    println!(
        "sequential: {:.3} ms ({:.1} ns/task)",
        seq_elapsed.as_secs_f64() * 1e3,
        seq_elapsed.as_nanos() as f64 / tasks as f64
    );
    println!(
        "sharded:    {:.3} ms ({:.1} ns/task)",
        shard_elapsed.as_secs_f64() * 1e3,
        shard_elapsed.as_nanos() as f64 / tasks as f64
    );
    println!("per-stage wall-clock breakdown (router thread + workers):");
    print!("{}", metrics.render_table());
}

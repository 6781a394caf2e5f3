//! Sharded-engine smoke run (CI stage): dispatches a cluster-partitioned
//! Poisson trace through a sharded [`Run`] and prints an FNV-1a
//! hash of the full schedule (sequence, machine, start per task).
//!
//! `ci_check.sh` runs this twice — `FLOWSCHED_THREADS=1` and `=4` — and
//! asserts the printed `schedule_hash` lines are identical, pinning the
//! engine's thread-count invariance end-to-end on a real workload (the
//! proptests in `tests/sharded_equivalence.rs` pin it on small shapes).
//! The hash folds every bit of every assignment, so any reordering,
//! dropped task, or perturbed start time changes the output.
//!
//! The dispatch policy is the registry string in `FLOWSCHED_POLICY`
//! (default `eft:min`), built through
//! [`flowsched_algos::registry::PolicySpec`] — so the smoke also covers
//! registry parsing and the one shared construction path end-to-end.

use flowsched_algos::engine::{Run, ShardedConfig};
use flowsched_algos::registry::PolicySpec;
use flowsched_bench::HashSink;
use flowsched_core::stream::ArrivalStream;
use flowsched_obs::NoopRecorder;
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

const MACHINES: usize = 256;
const BLOCK: usize = 16;
const TASKS: usize = 500_000;

fn main() {
    let cfg = PoissonStreamConfig::unit_tasks(
        MACHINES,
        TASKS,
        MACHINES as f64 / 2.0,
        StructureKind::DisjointBlocks(BLOCK),
    );
    let stream = PoissonStream::new(&cfg, 0x5AAD);
    let plan = stream.shard_plan(flowsched_core::shard::DEFAULT_MAX_SHARDS);
    let threads = flowsched_parallel::default_threads();
    let policy = std::env::var("FLOWSCHED_POLICY").unwrap_or_else(|_| "eft:min".into());
    let spec: PolicySpec = policy
        .parse()
        .unwrap_or_else(|e| panic!("FLOWSCHED_POLICY: {e}"));
    let mut sink = HashSink::new();
    Run::new(spec)
        .sharded(&plan, &ShardedConfig::with_threads(threads))
        .execute(stream, &mut NoopRecorder, &mut sink);
    assert_eq!(sink.count, TASKS as u64, "tasks went missing");
    println!(
        "sharded_smoke: m = {MACHINES}, n = {TASKS}, shards = {}, threads = {threads}, policy = {spec}",
        plan.shards()
    );
    println!("schedule_hash=0x{:016x}", sink.hash);
}

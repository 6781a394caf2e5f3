//! Sharded-engine smoke run (CI stage): dispatches a cluster-partitioned
//! Poisson trace through a sharded [`Run`] and prints an FNV-1a
//! hash of the full schedule (sequence, machine, start per task).
//!
//! The bin runs the trace twice: over the default transport, and over
//! three-task batches on depth-1 queues, where every worker cycles
//! through full queues, recycled batches and the high-water flush. It
//! asserts the two hashes are equal and prints one `schedule_hash`
//! line. `ci_check.sh` runs it under `FLOWSCHED_THREADS=1`, `=2` and
//! `=4` and asserts every printed hash equals the pinned one, pinning
//! the engine's thread-count and batch-size invariance end-to-end on a
//! real workload (the proptests in `tests/sharded_equivalence.rs` pin
//! it on small shapes). The hash folds every bit of every assignment,
//! so any reordering, dropped task, or perturbed start time changes the
//! output.
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
const SEED: u64 = 0x5AAD;

fn main() {
    let cfg = PoissonStreamConfig::unit_tasks(
        MACHINES,
        TASKS,
        MACHINES as f64 / 2.0,
        StructureKind::DisjointBlocks(BLOCK),
    );
    let plan = PoissonStream::new(&cfg, SEED).shard_plan(flowsched_core::shard::DEFAULT_MAX_SHARDS);
    let threads = flowsched_parallel::default_threads();
    let policy = std::env::var("FLOWSCHED_POLICY").unwrap_or_else(|_| "eft:min".into());
    let spec: PolicySpec = policy
        .parse()
        .unwrap_or_else(|e| panic!("FLOWSCHED_POLICY: {e}"));
    let transports = [
        ShardedConfig::with_threads(threads),
        ShardedConfig {
            threads,
            batch: 3,
            queue_cap: 1,
        },
    ];
    let hashes: Vec<u64> = transports
        .iter()
        .map(|transport| {
            let mut sink = HashSink::new();
            Run::new(spec).sharded(&plan, transport).execute(
                PoissonStream::new(&cfg, SEED),
                &mut NoopRecorder,
                &mut sink,
            );
            assert_eq!(sink.count, TASKS as u64, "tasks went missing");
            sink.hash
        })
        .collect();
    assert_eq!(
        hashes[0], hashes[1],
        "the schedule changed with the transport's batch size"
    );
    println!(
        "sharded_smoke: m = {MACHINES}, n = {TASKS}, shards = {}, threads = {threads}, policy = {spec}, \
         batches = {} and 3",
        plan.shards(),
        transports[0].batch
    );
    println!("schedule_hash=0x{:016x}", hashes[0]);
}

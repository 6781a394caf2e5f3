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

use flowsched_algos::engine::{DispatchSink, Run, ShardedConfig};
use flowsched_algos::registry::PolicySpec;
use flowsched_core::schedule::Assignment;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::task::Task;
use flowsched_obs::NoopRecorder;
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

const MACHINES: usize = 256;
const BLOCK: usize = 16;
const TASKS: usize = 500_000;

/// FNV-1a over the dispatch stream: order-sensitive, so the hash also
/// certifies that commits arrive in arrival order.
struct HashSink {
    hash: u64,
    count: u64,
}

impl HashSink {
    fn new() -> Self {
        HashSink {
            hash: 0xcbf2_9ce4_8422_2325,
            count: 0,
        }
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl DispatchSink for HashSink {
    fn accept(&mut self, seq: u64, task: Task, a: Assignment) {
        self.fold(&seq.to_le_bytes());
        self.fold(&task.release.to_bits().to_le_bytes());
        self.fold(&task.ptime.to_bits().to_le_bytes());
        self.fold(&(a.machine.index() as u64).to_le_bytes());
        self.fold(&a.start.to_bits().to_le_bytes());
        self.count += 1;
    }
}

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

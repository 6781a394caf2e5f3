//! Fault-injection soak run (CI stage): dispatches a cluster-partitioned
//! million-task Poisson trace through a sharded [`Run`] under a 1%
//! crash-rate fault plan and prints an FNV-1a hash of the full schedule
//! plus the run's peak-RSS growth.
//!
//! `ci_check.sh` runs this three times — `FLOWSCHED_THREADS=1`, `=2` and
//! `=4` — and asserts the printed `schedule_hash` lines are identical,
//! pinning the faulty engine's thread-count invariance end-to-end on a
//! real workload (the proptests in `tests/fault_injection.rs` pin it on
//! small shapes), and equal to the hash pinned there, so a schedule
//! change fails even when it is the same at every thread count.
//! The bin itself asserts bounded memory: the faulty stream's deferral
//! heap and the fault plan must not grow the footprint past 32 MiB on a
//! workload whose materialized form would be ≳ 80 MiB (the
//! `tests/streaming_memory.rs` VmHWM methodology).

use flowsched_algos::engine::Run;
use flowsched_algos::indexed::DispatchKernel;
use flowsched_algos::registry::PolicySpec;
use flowsched_algos::tiebreak::TieBreak;
use flowsched_algos::ShardedConfig;
use flowsched_bench::HashSink;
use flowsched_core::stream::ArrivalStream;
use flowsched_obs::NoopRecorder;
use flowsched_workloads::faults::{random_fault_plan, FaultPlanConfig};
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

const MACHINES: usize = 256;
const BLOCK: usize = 16;
const TASKS: usize = 1_000_000;
const CRASH_RATE: f64 = 0.01;
const MEM_BOUND_KIB: u64 = 32 * 1024;

/// Peak resident set size of this process, in kibibytes, from
/// `/proc/self/status` (`VmHWM` is a monotonic high-water mark).
#[cfg(target_os = "linux")]
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs available on linux");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line present")
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_kib() -> u64 {
    0
}

fn main() {
    let cfg = PoissonStreamConfig::unit_tasks(
        MACHINES,
        TASKS,
        MACHINES as f64 / 2.0,
        StructureKind::DisjointBlocks(BLOCK),
    );
    // Arrivals span ≈ n / λ ≈ 7 800 time units; crashes cover the whole
    // trace. 1% per machine per unit time ≈ 80 outages per machine.
    let fcfg = FaultPlanConfig::crashes(8_000.0, CRASH_RATE, 2.0);
    let plan = random_fault_plan(MACHINES, &fcfg, 0xFA17);
    let n_outages: usize = (0..MACHINES).map(|j| plan.faults(j).outages().len()).sum();

    let stream = PoissonStream::new(&cfg, 0x5AAD);
    let shard_plan = stream.shard_plan(flowsched_core::shard::DEFAULT_MAX_SHARDS);
    let threads = flowsched_parallel::default_threads();
    let mut sink = HashSink::new();

    let before = peak_rss_kib();
    Run::new(PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto))
        .with_faults(&plan)
        .sharded(&shard_plan, &ShardedConfig::with_threads(threads))
        .execute(stream, &mut NoopRecorder, &mut sink);
    let after = peak_rss_kib();

    assert_eq!(sink.count, TASKS as u64, "tasks went missing");
    let grown_kib = after.saturating_sub(before);
    assert!(
        !cfg!(target_os = "linux") || grown_kib < MEM_BOUND_KIB,
        "fault soak grew VmHWM by {grown_kib} KiB (bound {MEM_BOUND_KIB} KiB)"
    );
    println!(
        "fault_soak: m = {MACHINES}, n = {TASKS}, outages = {n_outages}, \
         shards = {}, threads = {threads}, rss_growth = {grown_kib} KiB",
        shard_plan.shards()
    );
    println!("schedule_hash=0x{:016x}", sink.hash);
}

//! Soak tests: large-scale runs guarding against quadratic blow-ups in
//! the hot paths. The heavier ones are `#[ignore]`d by default — run with
//! `cargo test --release --test soak -- --ignored` — while a moderate one
//! always runs to keep the guard active in CI.

use flowsched::kvstore::cluster::{ClusterConfig, KvCluster};
use flowsched::kvstore::replication::ReplicationStrategy;
use flowsched::prelude::*;
use flowsched::sim::driver::{simulate, SimConfig};
use flowsched::stats::rng::seeded_rng;
use flowsched::stats::zipf::BiasCase;

fn big_run(n: usize) -> f64 {
    let mut rng = seeded_rng(0x50AC);
    let cluster = KvCluster::new(
        ClusterConfig {
            m: 15,
            k: 3,
            strategy: ReplicationStrategy::Overlapping,
            s: 1.0,
            case: BiasCase::Shuffled,
        },
        &mut rng,
    );
    let inst = cluster.requests(n, 7.5, &mut rng);
    let (schedule, report) = simulate(
        &inst,
        &SimConfig {
            policy: TieBreak::Min,
            warmup_fraction: 0.05,
        },
    );
    schedule.validate(&inst).expect("feasible at scale");
    report.fmax
}

#[test]
fn twenty_thousand_requests_stay_fast() {
    // Dispatching is O(n·k) and validation O(n log n); 20k tasks must be
    // comfortable even in debug builds (< a few seconds).
    let start = std::time::Instant::now();
    let fmax = big_run(20_000);
    assert!(fmax >= 1.0);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "20k-task simulation took {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "heavy: run with --release -- --ignored"]
fn two_hundred_thousand_requests() {
    let fmax = big_run(200_000);
    assert!(fmax >= 1.0);
}

#[test]
#[ignore = "heavy: run with --release -- --ignored"]
fn adversary_at_m64() {
    use flowsched::workloads::adversary::interval::run_interval_adversary;
    let (m, k) = (64usize, 8usize);
    let mut algo = EftState::new(m, TieBreak::Min);
    let out = run_interval_adversary(&mut algo, k, m * m);
    assert!(out.fmax() >= (m - k + 1) as f64, "Fmax {}", out.fmax());
}

#[test]
fn eft_core_handles_long_theorem8_streams() {
    use flowsched::obs::NoopRecorder;
    use flowsched::workloads::adversary::interval::interval_adversary_instance;
    // 10 000 rounds × 15 tasks = 150k dispatches of 3-wide sets, which
    // take the core's one-pass scan.
    let (m, k) = (15, 3);
    let inst = interval_adversary_instance(m, k, 10_000);
    let schedule = eft_stream(InstanceStream::new(&inst), TieBreak::Min, &mut NoopRecorder);
    assert_eq!(inst.len(), 150_000);
    assert_eq!(schedule.fmax(&inst), (m - k + 1) as f64);
}

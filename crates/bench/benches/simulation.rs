//! Criterion benchmarks: end-to-end simulation throughput (one Figure 11
//! point, the Theorem 8 stream) and the parallel sweep utilities
//! (DESIGN.md ablation 4).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use flowsched_kvstore::cluster::{ClusterConfig, KvCluster};
use flowsched_kvstore::replication::ReplicationStrategy;
use flowsched_parallel::par_map;
use flowsched_sim::driver::{simulate, SimConfig};
use flowsched_stats::rng::seeded_rng;
use flowsched_stats::zipf::BiasCase;

fn bench_fig11_point(c: &mut Criterion) {
    let mut rng = seeded_rng(1);
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
    let inst = cluster.requests(10_000, 7.5, &mut rng);
    c.bench_function("simulate_fig11_point_10k_tasks", |b| {
        b.iter(|| black_box(simulate(black_box(&inst), &SimConfig::default())))
    });
}

fn bench_request_generation(c: &mut Criterion) {
    let mut rng = seeded_rng(2);
    let cluster = KvCluster::new(
        ClusterConfig {
            m: 15,
            k: 3,
            strategy: ReplicationStrategy::Disjoint,
            s: 1.0,
            case: BiasCase::WorstCase,
        },
        &mut rng,
    );
    c.bench_function("generate_10k_requests", |b| {
        let mut rng = seeded_rng(3);
        b.iter(|| black_box(cluster.requests(10_000, 7.5, &mut rng)))
    });
}

fn bench_par_map_grain(c: &mut Criterion) {
    // How the sweep scales: the same work as 64 LP-ish units, serial vs
    // parallel map.
    let work = |x: &u64| -> u64 {
        let mut acc = *x;
        for i in 0..200_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    };
    let items: Vec<u64> = (0..64).collect();
    let mut g = c.benchmark_group("par_map_64_heavy_items");
    g.bench_function("serial", |b| {
        b.iter(|| black_box(items.iter().map(work).collect::<Vec<_>>()))
    });
    g.bench_function("par_map", |b| b.iter(|| black_box(par_map(&items, work))));
    g.finish();
}

fn bench_theorem8_stream(c: &mut Criterion) {
    // DESIGN.md ablation 3: the event-driven EFT core on the Theorem 8
    // stream, whose 3-wide sets take the core's one-pass scan.
    use flowsched_algos::eft::EftState;
    use flowsched_algos::tiebreak::TieBreak;
    use flowsched_workloads::adversary::interval::run_interval_adversary;

    let (m, k, rounds) = (15usize, 3usize, 225usize);
    let mut g = c.benchmark_group("theorem8_stream_m15_225steps");
    g.bench_function("event_driven", |b| {
        b.iter(|| {
            let mut algo = EftState::new(m, TieBreak::Min);
            black_box(run_interval_adversary(&mut algo, k, rounds))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig11_point,
    bench_request_generation,
    bench_par_map_grain,
    bench_theorem8_stream
);
criterion_main!(benches);

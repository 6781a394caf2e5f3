//! Criterion benchmarks: scalar vs indexed EFT dispatch kernels across
//! machine counts (the PR-5 scaling sweep, recorded into
//! `BENCH_PR5.json`).
//!
//! Each benchmark streams the same 4,096-task Poisson workload through
//! `simulate_run` with the kernel forced, so the measured
//! difference is dispatch cost alone: the scalar oracle scans every
//! member of each processing set, the indexed kernel answers the same
//! Equation (2) query through the 8-ary lane index over the completion
//! bank in O(log m). Three set shapes at m ∈ {2⁶, 2⁸, 2¹⁰, 2¹², 2¹⁴, 2¹⁶}:
//!
//! - `interval`: fixed intervals of width m/2 — the Theorem 8 family,
//!   and the worst case for the scalar scan;
//! - `inclusive`: random prefixes (average width m/2) — the Theorem 6
//!   inclusive regime;
//! - `disjoint`: blocks of width m/16 — the Corollary 1 family.
//!
//! Acceptance (ISSUE 5): ≥ 5× at m = 4096 on `interval`, with the
//! indexed per-task cost staying near-flat from m = 2⁶ to 2¹⁶.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use flowsched_algos::engine::Run;
use flowsched_algos::indexed::DispatchKernel;
use flowsched_algos::registry::PolicySpec;
use flowsched_algos::tiebreak::TieBreak;
use flowsched_obs::NoopRecorder;
use flowsched_sim::driver::simulate_run;
use flowsched_sim::report::ReportConfig;
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

const TASKS: usize = 4096;
const MACHINE_COUNTS: [usize; 6] = [64, 256, 1024, 4096, 16384, 65536];

fn run(cfg: &PoissonStreamConfig, kernel: DispatchKernel) -> f64 {
    simulate_run(
        PoissonStream::new(cfg, 7),
        &Run::new(PolicySpec::eft(TieBreak::Min, kernel)),
        &ReportConfig::default(),
        &mut NoopRecorder,
    )
    .fmax
}

fn sweep(c: &mut Criterion, shape: &str, structure: impl Fn(usize) -> StructureKind) {
    let mut g = c.benchmark_group(format!("dispatch_{shape}"));
    for m in MACHINE_COUNTS {
        let cfg = PoissonStreamConfig {
            m,
            n: TASKS,
            structure: structure(m),
            lambda: m as f64,
            unit: true,
            ptime_steps: 4,
        };
        for (kernel, name) in [
            (DispatchKernel::Scalar, "scalar"),
            (DispatchKernel::Indexed, "indexed"),
        ] {
            g.bench_function(format!("m{m}_{name}"), |b| {
                b.iter(|| black_box(run(black_box(&cfg), kernel)))
            });
        }
    }
    g.finish();
}

fn bench_interval(c: &mut Criterion) {
    sweep(c, "interval", |m| StructureKind::IntervalFixed(m / 2));
}

fn bench_inclusive(c: &mut Criterion) {
    sweep(c, "inclusive", |_| StructureKind::InclusivePrefix);
}

fn bench_disjoint(c: &mut Criterion) {
    sweep(c, "disjoint", |m| StructureKind::DisjointBlocks(m / 16));
}

criterion_group!(benches, bench_interval, bench_inclusive, bench_disjoint);
criterion_main!(benches);

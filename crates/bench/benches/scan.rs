//! Criterion microbenchmarks: the scalar one-pass tie scan vs the
//! vectorized two-pass SoA scan, plus the m = 2²⁰ dispatch sweep
//! (ISSUE 10, recorded into `BENCH_PR10.json`).
//!
//! The `scan_*` groups time one Equation (2) tie scan in isolation —
//! same completion array, same set, same release — so the measured
//! ratio is pure scan implementation: the scalar oracle makes one
//! adaptive pass (argmin mode until the first `C_j ≤ release`, then
//! release mode for good), the SIMD path min-reduces the cache-aligned
//! padded [`CompletionBank`] in 8-wide chunks and then collects
//! `C_j ≤ max(release, min)` members in ascending order. Completions
//! are quantized onto a handful of values so tie runs are long — the
//! regime the scan exists for. Two families at
//! m ∈ {2⁸, 2¹⁰, 2¹², 2¹⁴, 2¹⁶, 2¹⁸}:
//!
//! - `scan_interval`: a width-m/2 interval (the Theorem 8 shape);
//! - `scan_inclusive`: a width-m/2 prefix (the Theorem 6 shape).
//!
//! Acceptance (ISSUE 10): SIMD ≥ 2× over scalar at m ≥ 1024 on both.
//!
//! `dispatch_m20` streams 512 tasks over m = 2²⁰ machines per kernel —
//! the hardware-limit end of the PR-5 scaling sweep, pinning per-kernel
//! ns/task where the scalar scan visits half a million machines per
//! dispatch and the indexed kernel answers in O(log m).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use flowsched_algos::engine::Run;
use flowsched_algos::indexed::DispatchKernel;
use flowsched_algos::registry::PolicySpec;
use flowsched_algos::soa::{scan_ties, scan_ties_simd, CompletionBank};
use flowsched_algos::tiebreak::TieBreak;
use flowsched_core::compact::ProcSetRef;
use flowsched_obs::NoopRecorder;
use flowsched_sim::driver::simulate_run;
use flowsched_sim::report::ReportConfig;
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

const MACHINE_COUNTS: [usize; 6] = [256, 1024, 4096, 16384, 65536, 262144];

/// Completions quantized onto 5 values: long exact-tie runs, idle
/// machines (0.0) included.
fn completions(m: usize) -> Vec<f64> {
    (0..m)
        .map(|j| ((j * 7 + j / 13) % 5) as f64 * 0.5)
        .collect()
}

fn scan_sweep(c: &mut Criterion, shape: &str, set_for: impl Fn(usize) -> ProcSetRef<'static>) {
    let mut g = c.benchmark_group(format!("scan_{shape}"));
    for m in MACHINE_COUNTS {
        let vals = completions(m);
        let bank = CompletionBank::from_completions(&vals);
        let set = set_for(m);
        let release = 0.5;
        let mut ties = Vec::with_capacity(m);
        g.bench_function(format!("m{m}_scalar"), |b| {
            b.iter(|| {
                scan_ties(
                    black_box(&vals),
                    black_box(set).iter(),
                    black_box(release),
                    &mut ties,
                );
                black_box(ties.len())
            })
        });
        g.bench_function(format!("m{m}_simd"), |b| {
            b.iter(|| {
                scan_ties_simd(
                    black_box(bank.padded()),
                    black_box(set),
                    black_box(release),
                    &mut ties,
                );
                black_box(ties.len())
            })
        });
    }
    g.finish();
}

fn bench_scan_interval(c: &mut Criterion) {
    scan_sweep(c, "interval", |m| {
        ProcSetRef::interval(m / 8, m / 8 + m / 2)
    });
}

fn bench_scan_inclusive(c: &mut Criterion) {
    scan_sweep(c, "inclusive", |m| ProcSetRef::prefix(m / 2));
}

fn bench_dispatch_m20(c: &mut Criterion) {
    const M: usize = 1 << 20;
    const TASKS: usize = 512;
    let mut g = c.benchmark_group("dispatch_m20");
    let cfg = PoissonStreamConfig {
        m: M,
        n: TASKS,
        structure: StructureKind::IntervalFixed(M / 2),
        lambda: M as f64,
        unit: true,
        ptime_steps: 4,
    };
    for (kernel, name) in [
        (DispatchKernel::Scalar, "scalar"),
        (DispatchKernel::Indexed, "indexed"),
        (DispatchKernel::Auto, "auto"),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    simulate_run(
                        PoissonStream::new(black_box(&cfg), 7),
                        &Run::new(PolicySpec::eft(TieBreak::Min, kernel)),
                        &ReportConfig::default(),
                        &mut NoopRecorder,
                    )
                    .fmax,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scan_interval,
    bench_scan_inclusive,
    bench_dispatch_m20
);
criterion_main!(benches);

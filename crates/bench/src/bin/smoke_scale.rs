//! Large-m smoke run for the indexed dispatch kernel (CI stage).
//!
//! Streams 200,000 tasks over 100,000 machines — the fig11 shape pushed
//! three orders of magnitude past the paper's m ≈ 10² — once per
//! structured family that the compact-set / lane-index path serves
//! (wide intervals, inclusive prefixes, disjoint blocks, replication
//! rings). `DispatchKernel::Auto` selects the indexed kernel for the
//! intervals, prefixes and blocks, whose widest sets hold far more than
//! its 96-member cut, and the member scan for the 3-wide rings; the run
//! exists to prove the whole pipeline (generator → compact `ProcSetRef`
//! views → lane-index dispatch → report fold) completes in seconds and
//! constant memory where the scalar scan would need ~10¹⁰ machine
//! visits. Prints one line per family under EFT-Min, and one more for
//! the prefixes under EFT-Max, each ending in the FNV-1a
//! `schedule_hash=0x…` of its whole schedule, and fails loudly (panics)
//! if any report comes back degenerate. `scripts/ci_check.sh` holds the
//! printed hashes to pinned ones at both scales it runs, so the six-
//! and seven-level lane indexes are pinned schedule for schedule.
//!
//! `FLOWSCHED_SMOKE_M` / `FLOWSCHED_SMOKE_N` override the machine and
//! task counts — CI runs the same binary at m = 2²⁰ to smoke the SoA
//! bank and the seven-level lane index at the hardware-limit scale.

use std::time::Instant;

use flowsched_algos::engine::{DispatchSink, Run};
use flowsched_algos::indexed::DispatchKernel;
use flowsched_algos::registry::PolicySpec;
use flowsched_algos::tiebreak::TieBreak;
use flowsched_bench::HashSink;
use flowsched_core::schedule::Assignment;
use flowsched_core::task::Task;
use flowsched_obs::NoopRecorder;
use flowsched_sim::report::{ReportBuilder, ReportConfig};
use flowsched_workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

const M: usize = 100_000;
const N: usize = 200_000;

/// Feeds every commit to the report fold and to the schedule hash.
struct Both<'a>(&'a mut ReportBuilder, &'a mut HashSink);

impl DispatchSink for Both<'_> {
    fn accept(&mut self, seq: u64, task: Task, a: Assignment) {
        self.0.accept(seq, task, a);
        self.1.accept(seq, task, a);
    }
}

/// Reads a positive usize override from the environment, falling back
/// to `default`; rejects malformed values loudly rather than silently
/// smoking the wrong scale.
fn env_scale(var: &str, default: usize) -> usize {
    match std::env::var(var) {
        Ok(s) => {
            let v: usize = s
                .parse()
                .unwrap_or_else(|_| panic!("{var} must be a positive integer, got `{s}`"));
            assert!(v > 0, "{var} must be positive");
            v
        }
        Err(_) => default,
    }
}

fn main() {
    let m = env_scale("FLOWSCHED_SMOKE_M", M);
    let n = env_scale("FLOWSCHED_SMOKE_N", N);
    let (min, max) = (TieBreak::Min, TieBreak::Max);
    let runs = [
        ("interval_m/2", StructureKind::IntervalFixed(m / 2), min),
        ("inclusive_prefix", StructureKind::InclusivePrefix, min),
        (
            "disjoint_blocks",
            StructureKind::DisjointBlocks(m / 100),
            min,
        ),
        ("ring_k3", StructureKind::RingFixed(3), min),
        ("inclusive_prefix", StructureKind::InclusivePrefix, max),
    ];
    println!("smoke_scale: m = {m}, n = {n} tasks per run");
    for (name, structure, tie) in runs {
        let cfg = PoissonStreamConfig {
            m,
            n,
            structure,
            lambda: m as f64 / 2.0,
            unit: true,
            ptime_steps: 4,
        };
        let spec = PolicySpec::eft(tie, DispatchKernel::Auto);
        let (mut report, mut hash) = (
            ReportBuilder::new(m, &ReportConfig::default()),
            HashSink::new(),
        );
        let start = Instant::now();
        Run::new(spec).execute(
            PoissonStream::new(&cfg, 0x5CA1E),
            &mut NoopRecorder,
            &mut Both(&mut report, &mut hash),
        );
        let elapsed = start.elapsed();
        let report = report.finish();
        assert_eq!(report.n_measured, n, "{name}: tasks went missing");
        assert!(
            report.fmax >= 1.0,
            "{name}: degenerate Fmax {}",
            report.fmax
        );
        println!(
            "  {name:<18} {:<8} fmax {:>8.1}  mean flow {:>8.3}  {:>7.0} tasks/ms  schedule_hash=0x{:016x}",
            spec.to_string(),
            report.fmax,
            report.mean_flow,
            n as f64 / elapsed.as_secs_f64() / 1e3,
            hash.hash,
        );
    }
    println!("smoke_scale: ok");
}

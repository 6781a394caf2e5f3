//! Figure 11 — maximum flow time vs. average cluster load.
//!
//! Simulates EFT-Min and EFT-Max on `m = 15` machines with replication
//! factor `k = 3`, for both strategies and the three popularity cases
//! (Uniform s=0; Shuffled and Worst-case at s=1); 10 000 unit tasks per
//! run with Poisson(λ) arrivals, median `Fmax` over repetitions. The
//! theoretical max-load of each (case, strategy) — the red vertical lines
//! of the paper's figure — is computed with the LP.

use flowsched_algos::tiebreak::TieBreak;
use flowsched_kvstore::cluster::{ClusterConfig, KvCluster};
use flowsched_kvstore::replication::ReplicationStrategy;
use flowsched_obs::{
    MemoryRecorder, NoopRecorder, ObsConfig, Recorder, Tee, WindowConfig, WindowedMetrics,
};
use flowsched_parallel::par_map;
use flowsched_sim::driver::{simulate_with, SimConfig};
use flowsched_solver::loadflow::max_load_lp_with;
use flowsched_solver::simplex::SimplexScratch;
use flowsched_stats::descriptive::median;
use flowsched_stats::rng::derive_rng;
use flowsched_stats::zipf::{BiasCase, Zipf};
use serde::Serialize;

use crate::scale::Scale;
use crate::table::TableBuilder;

/// One point of a Figure 11 curve.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Point {
    /// Case label (Uniform / Shuffled / Worst-case).
    pub case: String,
    /// Strategy label.
    pub strategy: String,
    /// Scheduler label (EFT-Min / EFT-Max).
    pub policy: String,
    /// Average cluster load in % (λ/m × 100).
    pub load_pct: f64,
    /// Median maximum flow time over the repetitions.
    pub fmax_median: f64,
}

/// One of the red vertical lines: the LP max-load for a (case, strategy).
#[derive(Debug, Clone, Serialize)]
pub struct Fig11MaxLoad {
    /// Case label.
    pub case: String,
    /// Strategy label.
    pub strategy: String,
    /// Theoretical maximum load in %.
    pub max_load_pct: f64,
}

/// Output of the Figure 11 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Output {
    /// Curve points.
    pub points: Vec<Fig11Point>,
    /// LP max-load lines.
    pub max_loads: Vec<Fig11MaxLoad>,
}

/// The load grid (in % of capacity) swept for a case, as in the paper's
/// facets: up to 100% for Uniform, up to 60% under bias.
pub fn load_grid(case: BiasCase) -> Vec<f64> {
    match case {
        BiasCase::Uniform => (2..=10).map(|x| x as f64 * 10.0).collect(),
        _ => (1..=12).map(|x| x as f64 * 5.0).collect(),
    }
}

fn zipf_shape(case: BiasCase) -> f64 {
    match case {
        BiasCase::Uniform => 0.0,
        _ => 1.0,
    }
}

/// One (case, strategy, policy, load) curve point to simulate.
#[derive(Clone, Copy)]
struct Job {
    case: BiasCase,
    strategy: ReplicationStrategy,
    policy: TieBreak,
    load_pct: f64,
    id: u64,
}

/// Enumerates every curve point, id'd in a fixed order so per-job RNG
/// derivation (and therefore every sample) is independent of how the
/// jobs are later distributed over workers.
fn curve_jobs() -> Vec<Job> {
    let cases = [BiasCase::Uniform, BiasCase::Shuffled, BiasCase::WorstCase];
    let policies = [TieBreak::Min, TieBreak::Max];
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for case in cases {
        for strategy in ReplicationStrategy::all() {
            for policy in policies {
                for load_pct in load_grid(case) {
                    jobs.push(Job {
                        case,
                        strategy,
                        policy,
                        load_pct,
                        id,
                    });
                    id += 1;
                }
            }
        }
    }
    jobs
}

/// Simulates one curve point (all repetitions), tracing every run into
/// `rec`.
fn run_job<R: Recorder>(job: &Job, scale: &Scale, rec: &mut R) -> Fig11Point {
    let lambda = job.load_pct / 100.0 * scale.m as f64;
    let samples: Vec<f64> = (0..scale.repetitions)
        .map(|rep| {
            let mut rng = derive_rng(scale.seed, job.id << 8 | rep as u64);
            let cluster = KvCluster::new(
                ClusterConfig {
                    m: scale.m,
                    k: scale.k,
                    strategy: job.strategy,
                    s: zipf_shape(job.case),
                    case: job.case,
                },
                &mut rng,
            );
            let inst = cluster.requests(scale.tasks, lambda, &mut rng);
            let (_, report) = simulate_with(
                &inst,
                &SimConfig {
                    policy: job.policy,
                    warmup_fraction: 0.0,
                },
                rec,
            );
            report.fmax
        })
        .collect();
    Fig11Point {
        case: job.case.to_string(),
        strategy: job.strategy.to_string(),
        policy: job.policy.to_string(),
        load_pct: job.load_pct,
        fmax_median: median(&samples),
    }
}

/// Red lines: LP max load per (case, strategy); Shuffled takes the
/// median over the permutation population. One tableau arena serves
/// every LP solve in this sequential sweep.
fn lp_max_loads(scale: &Scale) -> Vec<Fig11MaxLoad> {
    let cases = [BiasCase::Uniform, BiasCase::Shuffled, BiasCase::WorstCase];
    let mut scratch = SimplexScratch::new();
    let mut max_loads = Vec::new();
    for case in cases {
        for strategy in ReplicationStrategy::all() {
            let allowed = strategy.allowed_sets(scale.k, scale.m);
            let pct = match case {
                BiasCase::Uniform => {
                    let w = Zipf::new(scale.m, 0.0);
                    max_load_lp_with(w.probs(), &allowed, &mut scratch) / scale.m as f64 * 100.0
                }
                BiasCase::WorstCase => {
                    let w = Zipf::new(scale.m, 1.0);
                    max_load_lp_with(w.probs(), &allowed, &mut scratch) / scale.m as f64 * 100.0
                }
                BiasCase::Shuffled => {
                    let samples: Vec<f64> = (0..scale.permutations)
                        .map(|p| {
                            let mut rng = derive_rng(scale.seed, 0xF11 << 32 | p as u64);
                            let w = Zipf::new(scale.m, 1.0).shuffled(&mut rng);
                            max_load_lp_with(w.probs(), &allowed, &mut scratch) / scale.m as f64
                                * 100.0
                        })
                        .collect();
                    median(&samples)
                }
            };
            max_loads.push(Fig11MaxLoad {
                case: case.to_string(),
                strategy: strategy.to_string(),
                max_load_pct: pct,
            });
        }
    }
    max_loads
}

/// Runs the Figure 11 experiment.
pub fn run(scale: &Scale) -> Fig11Output {
    let jobs = curve_jobs();
    let points: Vec<Fig11Point> = par_map(&jobs, |job| run_job(job, scale, &mut NoopRecorder));
    Fig11Output {
        points,
        max_loads: lp_max_loads(scale),
    }
}

/// Output of an instrumented Figure 11 sweep: the ordinary result plus
/// the merged telemetry of every simulated run.
#[derive(Debug, Clone)]
pub struct Fig11Telemetry {
    /// Curve points and LP max-load lines, identical to [`run`]'s.
    pub output: Fig11Output,
    /// Aggregate recorder merged across all jobs in job order.
    pub recorder: MemoryRecorder,
    /// Tumbling-window time series merged across all jobs.
    pub windows: WindowedMetrics,
}

/// [`run`] with full telemetry: each `par_map` job records into its own
/// recorder and windowed series, and these are merged in job order
/// ([`MemoryRecorder::merge`], [`WindowedMetrics::merge`]) — so the
/// merged snapshot is byte-identical to a sequential sweep's
/// ([`run_instrumented_sequential`]) regardless of worker interleaving,
/// the acceptance property `fig11` tests pin.
///
/// # Panics
/// Panics when `obs.machines` or `window.machines` disagree with
/// `scale.m`.
pub fn run_instrumented(scale: &Scale, obs: &ObsConfig, window: &WindowConfig) -> Fig11Telemetry {
    run_instrumented_impl(scale, obs, window, true)
}

/// The sequential reference for [`run_instrumented`]: same jobs, same
/// shards, no thread pool. Exists so tests (and suspicious users) can
/// pin parallel == sequential on a fixed seed.
pub fn run_instrumented_sequential(
    scale: &Scale,
    obs: &ObsConfig,
    window: &WindowConfig,
) -> Fig11Telemetry {
    run_instrumented_impl(scale, obs, window, false)
}

fn run_instrumented_impl(
    scale: &Scale,
    obs: &ObsConfig,
    window: &WindowConfig,
    parallel: bool,
) -> Fig11Telemetry {
    assert_eq!(obs.machines, scale.m, "recorder sized for the cluster");
    assert_eq!(window.machines, scale.m, "windows sized for the cluster");
    let jobs = curve_jobs();
    let sim_job = |job: &Job| {
        let mut rec = Tee(
            MemoryRecorder::new(obs),
            WindowedMetrics::new(window.clone()),
        );
        let point = run_job(job, scale, &mut rec);
        (point, rec.0, rec.1)
    };
    let results: Vec<(Fig11Point, MemoryRecorder, WindowedMetrics)> = if parallel {
        par_map(&jobs, sim_job)
    } else {
        jobs.iter().map(sim_job).collect()
    };
    let mut points = Vec::with_capacity(results.len());
    let mut recorder = MemoryRecorder::new(obs);
    let mut windows = WindowedMetrics::new(window.clone());
    for (point, rec, wins) in results {
        points.push(point);
        recorder.merge(&rec);
        windows.merge(&wins);
    }
    Fig11Telemetry {
        output: Fig11Output {
            points,
            max_loads: lp_max_loads(scale),
        },
        recorder,
        windows,
    }
}

/// Renders the experiment as one table per case.
pub fn render(out: &Fig11Output) -> String {
    let mut text =
        String::from("Figure 11 — median Fmax vs average load (m = 15, k = 3, unit tasks)\n\n");
    for case in ["Uniform", "Shuffled", "Worst-case"] {
        let mut t = TableBuilder::new(&[
            "load %",
            "Overlap/Min",
            "Overlap/Max",
            "Disjoint/Min",
            "Disjoint/Max",
        ]);
        let loads: Vec<f64> = {
            let mut v: Vec<f64> = out
                .points
                .iter()
                .filter(|p| p.case == case)
                .map(|p| p.load_pct)
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v.dedup();
            v
        };
        for load in loads {
            let get = |strategy: &str, policy: &str| -> String {
                out.points
                    .iter()
                    .find(|p| {
                        p.case == case
                            && p.strategy == strategy
                            && p.policy == policy
                            && p.load_pct == load
                    })
                    .map(|p| format!("{:.1}", p.fmax_median))
                    .unwrap_or_else(|| "-".into())
            };
            t.row(vec![
                format!("{load:.0}"),
                get("Overlapping", "EFT-Min"),
                get("Overlapping", "EFT-Max"),
                get("Disjoint", "EFT-Min"),
                get("Disjoint", "EFT-Max"),
            ]);
        }
        let lines: Vec<String> = out
            .max_loads
            .iter()
            .filter(|l| l.case == case)
            .map(|l| format!("{}: {:.0}%", l.strategy, l.max_load_pct))
            .collect();
        text.push_str(&format!(
            "[{case} case]  LP max-load: {}\n{}\n",
            lines.join(", "),
            t.render()
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            m: 6,
            k: 3,
            permutations: 4,
            repetitions: 2,
            tasks: 400,
            bias_step: 1.0,
            seed: 3,
        }
    }

    #[test]
    fn covers_all_curves() {
        let out = run(&tiny());
        // 3 cases × 2 strategies × 2 policies, grid sizes 9 (uniform) / 12.
        let expected = 2 * 2 * (9 + 12 + 12);
        assert_eq!(out.points.len(), expected);
        assert_eq!(out.max_loads.len(), 6);
    }

    #[test]
    fn uniform_max_load_is_full_capacity() {
        let out = run(&tiny());
        for l in out.max_loads.iter().filter(|l| l.case == "Uniform") {
            assert!((l.max_load_pct - 100.0).abs() < 1e-6, "{l:?}");
        }
    }

    #[test]
    fn biased_max_load_is_below_uniform_and_overlapping_wins() {
        let out = run(&tiny());
        let get = |case: &str, strategy: &str| {
            out.max_loads
                .iter()
                .find(|l| l.case == case && l.strategy == strategy)
                .unwrap()
                .max_load_pct
        };
        for case in ["Shuffled", "Worst-case"] {
            assert!(get(case, "Overlapping") <= 100.0 + 1e-9);
            assert!(
                get(case, "Overlapping") >= get(case, "Disjoint") - 1e-9,
                "{case}: overlapping should dominate"
            );
        }
        // At m = 6, k = 3 the disjoint worst case caps at 3/w({M1..M3}):
        // strictly below full capacity (the paper's m = 15 figure shows
        // 36%; the exact value depends on m).
        assert!(get("Worst-case", "Disjoint") < get("Worst-case", "Overlapping") - 1e-6);
    }

    #[test]
    fn fmax_grows_with_load() {
        let out = run(&tiny());
        // Compare the lowest and highest stable load of one curve.
        let curve: Vec<&Fig11Point> = out
            .points
            .iter()
            .filter(|p| p.case == "Uniform" && p.strategy == "Overlapping" && p.policy == "EFT-Min")
            .collect();
        let lo = curve.iter().find(|p| p.load_pct == 20.0).unwrap();
        let hi = curve.iter().find(|p| p.load_pct == 90.0).unwrap();
        assert!(hi.fmax_median >= lo.fmax_median);
    }

    #[test]
    fn overlapping_beats_disjoint_under_high_uniform_load() {
        // The paper's headline simulation observation (90% load, Uniform:
        // Fmax ≈ 5 overlapping vs ≈ 10 disjoint).
        let scale = Scale {
            repetitions: 3,
            tasks: 2000,
            ..tiny()
        };
        let out = run(&scale);
        let get = |strategy: &str| {
            out.points
                .iter()
                .find(|p| {
                    p.case == "Uniform"
                        && p.strategy == strategy
                        && p.policy == "EFT-Min"
                        && p.load_pct == 90.0
                })
                .unwrap()
                .fmax_median
        };
        assert!(
            get("Overlapping") <= get("Disjoint"),
            "overlapping {o} vs disjoint {d}",
            o = get("Overlapping"),
            d = get("Disjoint")
        );
    }

    #[test]
    fn instrumented_parallel_merge_matches_sequential() {
        // The acceptance property: a parallel instrumented sweep merged
        // in job order is identical (counters, histograms, busy time,
        // time series) to the sequential sweep on the same seed.
        let scale = tiny();
        let obs = ObsConfig::defaults(scale.m);
        let window = WindowConfig::defaults(scale.m, 8.0);
        let par = run_instrumented(&scale, &obs, &window);
        let seq = run_instrumented_sequential(&scale, &obs, &window);

        for (c, v) in seq.recorder.counters().iter() {
            assert_eq!(par.recorder.counters().get(c), v, "counter {}", c.name());
        }
        assert_eq!(
            par.recorder.flow_histogram().counts(),
            seq.recorder.flow_histogram().counts()
        );
        assert_eq!(
            par.recorder.flow_histogram().sum(),
            seq.recorder.flow_histogram().sum()
        );
        assert_eq!(par.recorder.busy_time(), seq.recorder.busy_time());
        assert_eq!(par.recorder.makespan_seen(), seq.recorder.makespan_seen());
        assert_eq!(par.recorder.trace().to_vec(), seq.recorder.trace().to_vec());
        assert_eq!(par.windows.windows().len(), seq.windows.windows().len());
        for (a, b) in par.windows.windows().iter().zip(seq.windows.windows()) {
            assert_eq!(a.starts, b.starts);
            assert_eq!(a.completions, b.completions);
            assert_eq!(a.busy, b.busy);
        }

        // The curve points are the uninstrumented run's, bit for bit
        // (recording transparency through the sharded path).
        let plain = run(&scale);
        for (a, b) in par.output.points.iter().zip(&plain.points) {
            assert_eq!(a.fmax_median, b.fmax_median, "{} {}", a.case, a.load_pct);
        }
        // Every dispatched task landed in the merged histogram: jobs ×
        // repetitions × tasks.
        let expected =
            par.output.points.len() as u64 * scale.repetitions as u64 * scale.tasks as u64;
        assert_eq!(par.recorder.flow_histogram().total(), expected);
    }

    #[test]
    fn render_mentions_every_case() {
        let out = run(&tiny());
        let s = render(&out);
        for case in ["Uniform", "Shuffled", "Worst-case"] {
            assert!(s.contains(case));
        }
    }
}

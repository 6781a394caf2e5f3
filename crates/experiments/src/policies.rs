//! Other immediate-dispatch algorithms (paper conclusion: "the current
//! bound on the competitive ratio of EFT with interval processing sets
//! could be extended to other immediate dispatch algorithms").
//!
//! This experiment aims the Theorem 8 interval stream at each
//! immediate-dispatch [`PolicyId`] and also scores the rules on the stochastic key-value
//! workload, separating *adversarial exposure* from *average behaviour*:
//! load-oblivious random dispatch shrugs off the adversary but pays a
//! heavy average-case price; sampled two-choices sits in between.

use flowsched_algos::engine::Run;
use flowsched_algos::registry::{PolicyId, PolicySpec};
use flowsched_algos::tiebreak::TieBreak;
use flowsched_core::stream::InstanceStream;
use flowsched_kvstore::cluster::{ClusterConfig, KvCluster};
use flowsched_kvstore::replication::ReplicationStrategy;
use flowsched_obs::NoopRecorder;
use flowsched_parallel::par_map;
use flowsched_sim::report::SimReport;
use flowsched_stats::descriptive::median;
use flowsched_stats::rng::derive_rng;
use flowsched_stats::zipf::BiasCase;
use flowsched_workloads::adversary::interval::run_interval_adversary;
use serde::Serialize;

use crate::scale::Scale;
use crate::table::TableBuilder;

/// One dispatch rule's scores.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyRow {
    /// Rule label.
    pub rule: String,
    /// `Fmax` on the Theorem 8 interval stream (OPT = 1, so this is the
    /// achieved competitive ratio; the EFT bound is `m − k + 1`).
    pub adversary_fmax: f64,
    /// Median `Fmax` on the stochastic workload (Shuffled s=1, 50% load,
    /// overlapping replication).
    pub kv_fmax_median: f64,
    /// Median p99 flow on the stochastic workload.
    pub kv_p99_median: f64,
}

/// The compared rules, each with its row label.
fn rules(seed: u64) -> Vec<(String, PolicyId)> {
    let eft = |tie: TieBreak| (tie.to_string(), PolicyId::Eft { tie });
    vec![
        eft(TieBreak::Min),
        eft(TieBreak::Max),
        eft(TieBreak::Rand { seed }),
        ("Choices(2)".into(), PolicyId::Choices { d: 2, seed }),
        ("Random".into(), PolicyId::Random { seed }),
        ("RoundRobin".into(), PolicyId::RoundRobin),
    ]
}

/// Runs the comparison.
pub fn run(scale: &Scale) -> Vec<PolicyRow> {
    let rules = rules(scale.seed ^ 0x90);
    par_map(&rules, |(label, rule)| {
        let (m, k) = (scale.m, scale.k);

        // Adversarial axis: the oblivious Theorem 8 stream.
        let mut d = PolicySpec::new(*rule).build(m);
        let adversary = run_interval_adversary(&mut d, k, m * m);
        let adversary_fmax = adversary.fmax();

        // Average axis: stochastic workload.
        let mut fmaxes = Vec::new();
        let mut p99s = Vec::new();
        for rep in 0..scale.repetitions {
            let mut rng = derive_rng(scale.seed, 0x90AC ^ (rep as u64) << 5);
            let cluster = KvCluster::new(
                ClusterConfig {
                    m,
                    k,
                    strategy: ReplicationStrategy::Overlapping,
                    s: 1.0,
                    case: BiasCase::Shuffled,
                },
                &mut rng,
            );
            let inst = cluster.requests(scale.tasks, 0.5 * m as f64, &mut rng);
            let schedule = Run::new(PolicySpec::new(*rule))
                .schedule(InstanceStream::new(&inst), &mut NoopRecorder);
            let warmup = inst.len() / 10;
            let report = SimReport::from_schedule(&schedule, &inst, warmup);
            fmaxes.push(report.fmax);
            p99s.push(report.p99);
        }

        PolicyRow {
            rule: label.clone(),
            adversary_fmax,
            kv_fmax_median: median(&fmaxes),
            kv_p99_median: median(&p99s),
        }
    })
}

/// Renders the comparison.
pub fn render(rows: &[PolicyRow], scale: &Scale) -> String {
    let mut t = TableBuilder::new(&["rule", "Th.8 stream Fmax", "kv Fmax (50% load)", "kv p99"]);
    for r in rows {
        t.row(vec![
            r.rule.clone(),
            format!("{:.0}", r.adversary_fmax),
            format!("{:.1}", r.kv_fmax_median),
            format!("{:.1}", r.kv_p99_median),
        ]);
    }
    format!(
        "Immediate-dispatch rules — adversarial vs average behaviour\n\
         (m = {}, k = {}; EFT bound on the stream is m − k + 1 = {}):\n\n{}",
        scale.m,
        scale.k,
        scale.m - scale.k + 1,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            m: 8,
            k: 3,
            permutations: 4,
            repetitions: 2,
            tasks: 600,
            bias_step: 1.0,
            seed: 4,
        }
    }

    #[test]
    fn all_rules_scored() {
        let rows = run(&tiny());
        assert_eq!(rows.len(), 6);
        for label in [
            "EFT-Min",
            "EFT-Max",
            "EFT-Rand",
            "Choices(2)",
            "Random",
            "RoundRobin",
        ] {
            assert!(rows.iter().any(|r| r.rule == label), "missing {label}");
        }
    }

    #[test]
    fn eft_min_is_trapped_by_the_stream() {
        let scale = tiny();
        let rows = run(&scale);
        let min = rows.iter().find(|r| r.rule == "EFT-Min").unwrap();
        assert!(
            min.adversary_fmax >= (scale.m - scale.k + 1) as f64,
            "{min:?}"
        );
    }

    #[test]
    fn eft_max_escapes_but_load_oblivious_rules_diverge() {
        // The stream offers exactly 100% load, so load-*aware* rules with
        // a favourable bias (EFT-Max) keep flows at O(1), while
        // load-*oblivious* rules (Random, RoundRobin on overlapping sets)
        // accumulate random-walk backlog far beyond EFT-Min's m − k + 1 —
        // the adversary is not even needed to break them.
        let rows = run(&tiny());
        let get = |n: &str| rows.iter().find(|r| r.rule == n).unwrap();
        assert!(
            get("EFT-Max").adversary_fmax < get("EFT-Min").adversary_fmax,
            "EFT-Max {x} should escape the stream (EFT-Min {e})",
            x = get("EFT-Max").adversary_fmax,
            e = get("EFT-Min").adversary_fmax
        );
        assert!(
            get("Random").adversary_fmax > get("EFT-Min").adversary_fmax,
            "load-oblivious random {r} should diverge past EFT-Min {e}",
            r = get("Random").adversary_fmax,
            e = get("EFT-Min").adversary_fmax
        );
        // On the stochastic workload, full EFT beats random dispatch.
        assert!(
            get("Random").kv_fmax_median >= get("EFT-Min").kv_fmax_median,
            "random {r} vs eft-min {e}",
            r = get("Random").kv_fmax_median,
            e = get("EFT-Min").kv_fmax_median
        );
    }

    #[test]
    fn two_choices_interpolates() {
        let rows = run(&tiny());
        let get = |n: &str| rows.iter().find(|r| r.rule == n).unwrap();
        assert!(
            get("Choices(2)").kv_fmax_median <= get("Random").kv_fmax_median + 1e-9,
            "sampling two must not be worse than sampling one"
        );
    }

    #[test]
    fn render_shows_the_bound() {
        let scale = tiny();
        let s = render(&run(&scale), &scale);
        assert!(s.contains("m − k + 1 = 6"));
    }
}

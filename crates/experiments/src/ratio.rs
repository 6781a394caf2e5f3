//! Empirical competitive-ratio ladder for the registry's policy
//! frontier: every policy is named by its registry string, run through
//! [`flowsched_sim::simulate_run`] over the adversarial
//! stream built to punish its oblivious baseline, and scored against an
//! offline reference.
//!
//! | family | policies | objective | reference |
//! |---|---|---|---|
//! | `interval-adversary` | `eft:min` | `Fmax` | exact matching OPT |
//! | `weighted-burst` | `eft:min`, `weft@θ:min` | `max wᵢ·Fᵢ` | exact weighted matching OPT |
//! | `setup-thrash` | `setup-obl@c:min`, `setup@c:min` | `Fmax` (setups included) | setup-free OPT (lower bound) |
//!
//! The weighted reference is exact (Azar–Touitou's objective, solved by
//! [`optimal_unit_weighted_fmax`]); the setup reference relaxes the
//! setups away (any schedule that pays setups is no faster than one
//! that doesn't), so those ratios are upper bounds on the true
//! competitive ratio. `ci_check.sh` runs the `ratio_ladder` bin, which
//! asserts every measured ratio stays inside the envelope recorded in
//! `EXPERIMENTS.md` — a drift in any dispatcher, oracle, or stream
//! moves a ratio and trips the gate.

use flowsched_algos::engine::Run;
use flowsched_algos::offline::{optimal_unit_fmax, optimal_unit_weighted_fmax};
use flowsched_algos::registry::PolicySpec;
use flowsched_core::instance::Instance;
use flowsched_core::stream::{collect_stream, InstanceStream};
use flowsched_obs::NoopRecorder;
use flowsched_sim::{simulate_run, ReportConfig, SimReport};
use flowsched_workloads::adversary::interval::interval_adversary_instance;
use flowsched_workloads::{SetupThrashStream, WeightedBurstStream};
use serde::Serialize;

use crate::scale::Scale;
use crate::table::TableBuilder;

/// One rung of the ladder: a policy on its adversarial family.
#[derive(Debug, Clone, Serialize)]
pub struct RatioPoint {
    /// Workload family name.
    pub family: String,
    /// Registry string of the policy under test.
    pub policy: String,
    /// Achieved objective value (the family's column above).
    pub measured: f64,
    /// Offline reference value.
    pub opt: f64,
    /// `measured / opt` — the empirical competitive ratio.
    pub ratio: f64,
    /// `true` when the reference is the exact optimum, `false` when it
    /// is a lower bound (ratio is then an upper bound).
    pub opt_exact: bool,
}

fn point(family: &str, policy: &str, measured: f64, opt: f64, opt_exact: bool) -> RatioPoint {
    assert!(opt > 0.0, "{family}: degenerate reference {opt}");
    RatioPoint {
        family: family.to_string(),
        policy: policy.to_string(),
        measured,
        opt,
        ratio: measured / opt,
        opt_exact,
    }
}

/// Runs one registry policy over an instance replay and returns the
/// online report.
fn replay(inst: &Instance, policy: &str) -> SimReport {
    let spec: PolicySpec = policy.parse().expect("ladder policy strings are valid");
    simulate_run(
        InstanceStream::new(inst),
        &Run::new(spec),
        &ReportConfig::default(),
        &mut NoopRecorder,
    )
}

/// Runs the ladder. Geometry is fixed small (the matching oracles are
/// exact but polynomial); `scale` only stretches the round counts, and
/// the paper scale caps them so the references stay tractable.
pub fn run(scale: &Scale) -> Vec<RatioPoint> {
    let mut out = Vec::new();

    // Anchor: EFT on the Theorem 8 interval adversary vs the exact
    // matching optimum — the ladder's connection to the source paper.
    let (m, k) = (8usize, 3usize);
    let rounds = (scale.tasks / (10 * m)).clamp(4, 16);
    let inst = interval_adversary_instance(m, k, rounds);
    out.push(point(
        "interval-adversary",
        "eft:min",
        replay(&inst, "eft:min").fmax,
        optimal_unit_fmax(&inst),
        true,
    ));

    // Weighted bursts: weight-oblivious EFT vs the weighted-EFT packing
    // rule, both scored on max wᵢ·Fᵢ against the exact weighted OPT.
    let (wm, lights, heavy) = (4usize, 8usize, 16.0);
    let wrounds = (scale.repetitions).clamp(2, 4);
    let winst = collect_stream(WeightedBurstStream::new(wm, lights, heavy, wrounds))
        .expect("weighted burst stream is a valid instance");
    let wopt = optimal_unit_weighted_fmax(&winst);
    for policy in ["eft:min", &format!("weft@{lights}:min")] {
        out.push(point(
            "weighted-burst",
            policy,
            replay(&winst, policy).weighted_fmax,
            wopt,
            true,
        ));
    }

    // Setup thrash: the oblivious dispatcher pays the switch on nearly
    // every task; the reference relaxes setups away entirely. The
    // geometry is pinned (not scaled) — the aware-vs-oblivious gap is a
    // property of this cost/overlap shape, and the ladder wants a
    // stable number to gate on.
    let (sm, clusters, width, stride, cost) = (5usize, 2usize, 4usize, 1usize, 2.0);
    let steps = 30;
    let sinst = collect_stream(SetupThrashStream::new(sm, clusters, width, stride, steps))
        .expect("setup thrash stream is a valid instance");
    let sopt = optimal_unit_fmax(&sinst);
    for policy in [format!("setup-obl@{cost}:min"), format!("setup@{cost}:min")] {
        out.push(point(
            "setup-thrash",
            &policy,
            replay(&sinst, &policy).fmax,
            sopt,
            false,
        ));
    }

    out
}

/// Renders the ladder as a terminal table.
pub fn render(rows: &[RatioPoint]) -> String {
    let mut t = TableBuilder::new(&["family", "policy", "measured", "reference", "ratio", "ref"]);
    for r in rows {
        t.row(vec![
            r.family.clone(),
            r.policy.clone(),
            format!("{:.3}", r.measured),
            format!("{:.3}", r.opt),
            format!("{:.3}", r.ratio),
            if r.opt_exact {
                "exact".into()
            } else {
                "lower bound".into()
            },
        ]);
    }
    format!(
        "Competitive-ratio ladder — registry policies vs offline references\n\
         (weighted reference per Azar-Touitou arXiv:1712.10273; setup model per\n\
         Maecker et al. arXiv:1709.05896; see EXPERIMENTS.md for the envelopes)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_shape_and_sanity() {
        let rows = run(&Scale::quick());
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.ratio >= 1.0 - 1e-9,
                "{}/{}: ratio {}",
                r.family,
                r.policy,
                r.ratio
            );
            assert!(r.ratio.is_finite());
        }
    }

    #[test]
    fn aware_policies_beat_their_oblivious_baselines() {
        let rows = run(&Scale::quick());
        let get = |family: &str, policy_prefix: &str| -> f64 {
            rows.iter()
                .find(|r| r.family == family && r.policy.starts_with(policy_prefix))
                .unwrap_or_else(|| panic!("missing {family}/{policy_prefix}"))
                .ratio
        };
        assert!(get("weighted-burst", "weft@") < get("weighted-burst", "eft:min"));
        assert!(get("setup-thrash", "setup@") < get("setup-thrash", "setup-obl@"));
    }

    #[test]
    fn weighted_rows_use_the_exact_reference() {
        let rows = run(&Scale::quick());
        for r in rows.iter().filter(|r| r.family == "weighted-burst") {
            assert!(r.opt_exact);
        }
        for r in rows.iter().filter(|r| r.family == "setup-thrash") {
            assert!(!r.opt_exact);
        }
    }

    #[test]
    fn render_names_every_policy() {
        let rows = run(&Scale::quick());
        let s = render(&rows);
        for r in &rows {
            assert!(s.contains(&r.policy), "render missing {}", r.policy);
        }
    }
}

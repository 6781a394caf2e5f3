//! Theorem 5 adversary: nested processing sets vs. any online algorithm.
//!
//! Forces a competitive ratio of at least `⅓·⌊log₂(m) + 2⌋` on
//! `P | online-rᵢ, pᵢ=1, Mᵢ(nested) | Fmax`, *without* assuming immediate
//! dispatch (the proof adapts Anand et al.'s unstructured construction).
//!
//! Construction: phases `κ = 0, 1, …, log₂ m` of length `F = log₂(m)+2`.
//! Phase `κ` works on a machine interval `I(u_κ, s_κ)` with
//! `s_κ = m/2^κ`; it releases `G₁`: `s_κ` unit tasks eligible on the whole
//! interval, and `G₂`: for every machine of the interval, one unit task
//! *per time step* of the phase, eligible on that machine only. The next
//! interval is the half of the current one holding the most uncompleted
//! single-machine tasks — provably at least `(κ+1)·s_{κ+1}` of them. When
//! the interval shrinks to one machine, that machine has `log₂ m`
//! uncompleted tasks plus the new `G₁`/`G₂` arrivals: some task flows
//! `≥ log₂(m) + 2`. The optimum keeps every flow `≤ 3` by running `G₁` on
//! the half that will be dropped.
//!
//! This implementation drives an
//! [`flowsched_algos::eft::ImmediateDispatcher`]
//! (EFT in our experiments, which is one particular online algorithm);
//! "uncompleted at `t`" is read off the committed assignments.

use flowsched_algos::eft::ImmediateDispatcher;
use flowsched_core::procset::ProcSet;
use flowsched_core::task::Task;
use flowsched_core::time::Time;

use crate::outcome::{AdversaryOutcome, ReleaseLog};

/// Runs the Theorem 5 adversary against `algo` (unit tasks).
///
/// # Panics
/// Panics if the cluster has fewer than 2 machines.
pub fn nested_adversary<D: ImmediateDispatcher>(algo: &mut D) -> AdversaryOutcome {
    let m_actual = algo.machine_count();
    assert!(m_actual >= 2, "the adversary needs at least two machines");
    let levels = m_actual.ilog2() as usize;
    let m = 1usize << levels;
    let phase_len = levels + 2; // F = log2(m) + 2

    let mut log = ReleaseLog::new(m_actual);
    // Per released singleton task: (machine, completion time).
    let mut singletons: Vec<(usize, Time)> = Vec::new();

    let mut u = 0usize; // interval start (zero-based)
    let mut s = m; // interval size
    for phase in 0..=levels {
        let t0 = (phase * phase_len) as Time;
        let interval = ProcSet::interval(u, u + s - 1);
        // G1: s interval-wide unit tasks at t0.
        for _ in 0..s {
            log.release(algo, Task::unit(t0), interval.clone());
        }
        // G2: one unit task per machine per step of the phase.
        for step in 0..phase_len {
            let t = t0 + step as Time;
            for j in u..u + s {
                let a = log.release(algo, Task::unit(t), ProcSet::singleton(j));
                singletons.push((j, a.start + 1.0));
            }
        }
        if s == 1 {
            break;
        }
        // Choose the half with the most uncompleted singleton tasks at the
        // start of the next phase.
        let t_next = ((phase + 1) * phase_len) as Time;
        let half = s / 2;
        let count = |lo: usize, hi: usize| -> usize {
            singletons
                .iter()
                .filter(|&&(j, c)| j >= lo && j < hi && c > t_next)
                .count()
        };
        let left = count(u, u + half);
        let right = count(u + half, u + s);
        if right > left {
            u += half;
        }
        s = half;
    }
    log.finish(3.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::eft::EftState;
    use flowsched_algos::tiebreak::TieBreak;
    use flowsched_core::structure;

    #[test]
    fn construction_is_nested_and_unit() {
        let mut algo = EftState::new(8, TieBreak::Min);
        let out = nested_adversary(&mut algo);
        out.validate().unwrap();
        assert!(structure::is_nested(out.instance.sets()));
        assert!(out.instance.is_unit());
        // Intervals are also interval-structured by construction.
        assert!(structure::is_interval_family(out.instance.sets()));
    }

    #[test]
    fn forces_logarithmic_flow_on_eft() {
        // m = 8: the bound promises Fmax ≥ log2(m) + 2 = 5 against any
        // online algorithm.
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 2 }] {
            let mut algo = EftState::new(8, tb);
            let out = nested_adversary(&mut algo);
            out.validate().unwrap();
            assert!(
                out.fmax() >= 5.0 - 1e-9,
                "{tb}: Fmax {f} < log2(m)+2",
                f = out.fmax()
            );
        }
    }

    #[test]
    fn bound_grows_with_machines() {
        let fmax_at = |m: usize| {
            let mut algo = EftState::new(m, TieBreak::Min);
            let out = nested_adversary(&mut algo);
            out.fmax()
        };
        assert!(fmax_at(16) >= 6.0 - 1e-9); // log2(16)+2
        assert!(fmax_at(32) >= 7.0 - 1e-9);
    }

    #[test]
    fn claimed_optimum_is_close_for_small_m() {
        // For m = 2 the instance is small enough to audit: OPT ≤ 3 per the
        // paper (G1 on the dropped half, singletons with flow ≤ 3). We
        // check the exact optimum of a prefix-limited instance stays ≤ 3.
        let mut algo = EftState::new(2, TieBreak::Min);
        let out = nested_adversary(&mut algo);
        out.validate().unwrap();
        // The exact optimum requires the matching solver (integer
        // releases, unit tasks — it applies).
        let opt = flowsched_algos::offline::optimal_unit_fmax(&out.instance);
        assert!(opt <= 3.0 + 1e-9, "OPT {opt} exceeds the paper's claim");
        assert!(out.fmax() >= 3.0 - 1e-9, "m=2: Fmax {}", out.fmax());
    }

    #[test]
    fn phase_count_and_task_count() {
        // m = 4: phases κ=0,1,2 with F = 4. Tasks: Σ (s + F·s) over
        // s ∈ {4,2,1} = 5·(4+2+1) = 35.
        let mut algo = EftState::new(4, TieBreak::Min);
        let out = nested_adversary(&mut algo);
        assert_eq!(out.instance.len(), 35);
    }
}

//! Theorem 10 adversary: the small-task padding that defeats EFT under
//! *any* tie-break policy.
//!
//! Theorem 8's bound relies on EFT-Min's bias toward low machine indices.
//! Theorem 10 removes that assumption: before the `m` regular tasks of
//! each step, the adversary injects two rounds of tiny tasks that leave
//! every idle machine `Mᵢ` (one-based `i`) busy until exactly `t + i·δ`.
//! Machine completion times are then pairwise distinct forever, EFT never
//! faces a tie, and the unique earliest-finishing machine is always the
//! lowest-indexed candidate — i.e. EFT with any tie-break replays
//! EFT-Min's trajectory (delayed by at most `m·δ`), and the flow again
//! reaches `m − k + 1` (up to `O(m·δ)`).
//!
//! Per the paper: with `midle` idle machines at step `t`, round 1 releases
//! tasks `T¹_c` of length `c·ε` (`c = 1..midle`), each covering the
//! smallest still-idle machine; round 2 releases, for each `T¹_c`
//! allocated on machine `Mᵢ`, a task `T²_{c,i}` of length `i·δ − c·ε`
//! covering `Mᵢ` — which EFT provably must place on `Mᵢ`, completing at
//! `t + i·δ`. We use dyadic `δ` and `ε = δ/2^⌈log₂ 2m⌉ < δ/(2m)` so all
//! arithmetic is exact in `f64`.

use flowsched_algos::eft::ImmediateDispatcher;
use flowsched_core::procset::ProcSet;
use flowsched_core::task::Task;

use crate::adversary::interval::round_types;
use crate::outcome::{AdversaryOutcome, ReleaseLog};

/// The dyadic delay unit `δ` (2⁻¹⁰). Requires `m·δ < 1`, i.e. `m < 1024`.
pub const DELTA: f64 = 1.0 / 1024.0;

/// Dyadic `ε < δ/(2m)` for `m ≤ 64`: `ε = δ / 256`.
pub const EPSILON: f64 = DELTA / 256.0;

/// The interval of size `k` covering machine `i` (zero-based): `[i, i+k)`
/// when it fits, else the last `k` machines (as in the paper's
/// construction).
fn covering_interval(i: usize, k: usize, m: usize) -> ProcSet {
    if i + k <= m {
        ProcSet::interval(i, i + k - 1)
    } else {
        ProcSet::interval(m - k, m - 1)
    }
}

/// Runs the Theorem 10 padded adversary for `rounds` integer steps.
///
/// Works against any [`ImmediateDispatcher`]; with EFT the flow of some
/// regular task reaches at least `m − k + 1` regardless of the tie-break
/// policy. The recorded optimum is the *asymptotic* value 1: the paper
/// shows the true optimum of the padded instance is `1 + o(1)` as
/// `δ → 0` (regular tasks keep flow 1 as in Theorem 8; the small-task
/// volume is negligible in that limit), so ratios reported against it
/// overshoot the exact finite-δ ratio by only `O(m²δ)`.
///
/// # Panics
/// Panics unless `1 < k < m ≤ 64` (the `ε`/`δ` constants assume `m ≤ 64`).
pub fn padded_interval_adversary<D: ImmediateDispatcher>(
    algo: &mut D,
    k: usize,
    rounds: usize,
) -> AdversaryOutcome {
    let m = algo.machine_count();
    assert!(k > 1 && k < m, "Theorem 10 requires 1 < k < m");
    assert!(m <= 64, "ε constant sized for m ≤ 64");

    let types = round_types(m, k);
    let mut log = ReleaseLog::new(m);

    for t in 0..rounds {
        let now = t as f64;

        // ---- Round 1: one tiny task per idle machine. ----
        // `first_alloc[c-1]` = machine that received T¹_c.
        let mut first_alloc: Vec<usize> = Vec::new();
        loop {
            let completions = algo.machine_completions();
            // Smallest still-idle machine.
            let Some(ic) = (0..m).find(|&j| completions[j] <= now) else {
                break;
            };
            let c = first_alloc.len() + 1;
            let a = log.release(
                algo,
                Task::new(now, c as f64 * EPSILON),
                covering_interval(ic, k, m),
            );
            first_alloc.push(a.machine.index());
        }

        // ---- Round 2: pin each first-round machine until t + i·δ. ----
        for (c0, &i) in first_alloc.iter().enumerate() {
            let c = c0 + 1;
            let duration = (i + 1) as f64 * DELTA - c as f64 * EPSILON;
            debug_assert!(duration > 0.0);
            let a = log.release(algo, Task::new(now, duration), covering_interval(i, k, m));
            debug_assert_eq!(
                a.machine.index(),
                i,
                "the paper's Property 1 forces T² onto its target machine"
            );
        }

        // ---- Regular tasks: the Theorem 8 staircase + type-1 batch. ----
        for &lambda in &types {
            log.release(
                algo,
                Task::new(now, 1.0),
                ProcSet::interval(lambda - 1, lambda + k - 2),
            );
        }
    }
    log.finish(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::eft::EftState;
    use flowsched_algos::tiebreak::TieBreak;

    #[test]
    fn every_tiebreak_reaches_the_theorem8_bound() {
        // The whole point of Theorem 10: Max and Rand no longer escape.
        let (m, k) = (6, 3);
        let target = (m - k + 1) as f64;
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 77 }] {
            let mut algo = EftState::new(m, tb);
            let out = padded_interval_adversary(&mut algo, k, m * m);
            out.validate().unwrap();
            assert!(
                out.fmax() >= target,
                "{tb}: Fmax {f} < {target} on the padded instance",
                f = out.fmax()
            );
        }
    }

    #[test]
    fn contrast_with_unpadded_stream() {
        // Without padding EFT-Max stays low (see interval.rs); with
        // padding it is forced up — measure both to document the effect.
        let (m, k) = (6, 3);
        let mut plain = EftState::new(m, TieBreak::Max);
        let plain_out = crate::adversary::interval::run_interval_adversary(&mut plain, k, m * m);
        let mut padded = EftState::new(m, TieBreak::Max);
        let padded_out = padded_interval_adversary(&mut padded, k, m * m);
        assert!(
            padded_out.fmax() > plain_out.fmax(),
            "padding must hurt EFT-Max: padded {p} vs plain {q}",
            p = padded_out.fmax(),
            q = plain_out.fmax()
        );
    }

    #[test]
    fn small_tasks_leave_machines_staggered() {
        // After the first step's padding, machine completions must be
        // exactly t + i·δ for idle machines (Property 1).
        let (m, k) = (5, 2);
        let mut algo = EftState::new(m, TieBreak::Rand { seed: 3 });
        // One full round drives padding + regulars; inspect completions
        // after padding of step 0 by replaying manually.
        let out = padded_interval_adversary(&mut algo, k, 1);
        out.validate().unwrap();
        // All small tasks of step 0 completed before 0 + m·δ.
        for (id, task, _) in out.instance.iter() {
            if task.ptime < 1.0 {
                let c = out.schedule.completion(id, &out.instance);
                assert!(
                    c <= (m as f64 + 1.0) * DELTA,
                    "small task completes late: {c}"
                );
            }
        }
    }

    #[test]
    fn ratio_approaches_m_minus_k_plus_1() {
        let (m, k) = (8, 3);
        let mut algo = EftState::new(m, TieBreak::Max);
        let out = padded_interval_adversary(&mut algo, k, m * m * 2);
        let ratio = out.ratio();
        let target = (m - k + 1) as f64;
        assert!(
            ratio >= target * 0.95,
            "ratio {ratio} far below the asymptotic bound {target}"
        );
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn constants_satisfy_paper_constraints() {
        // ε < δ/(2m) for every supported m.
        assert!(EPSILON < DELTA / (2.0 * 64.0));
        // m·δ < 1 so per-step delays never leak into the next step.
        assert!(64.0 * DELTA < 1.0);
    }
}

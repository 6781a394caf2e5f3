//! Schedule profiles (`w_t` in the paper's Theorem 8 analysis).
//!
//! For an immediate-dispatch schedule, the *profile* at time `t` is the
//! vector `w_t(j) = max(0, C_{j}(t) − t)`: the amount of allocated work on
//! machine `Mⱼ` still to be processed at time `t`, counting only tasks
//! released strictly before `t`. The proof of Theorem 8 shows the
//! EFT-Min profile under the interval adversary converges to the *stable
//! profile* `w_τ(j) = min(m − j, m − k)` (one-based `j`), at which point
//! some task necessarily suffers flow `m − k + 1`.

use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::time::{time_lt, Time};

/// Computes the profile `w_t(j)` for all machines, counting tasks with
/// `rᵢ < t` (strictly: the paper inspects the profile *just before* the
/// adversary releases the batch at `t`).
pub fn profile_at(schedule: &Schedule, inst: &Instance, t: Time) -> Vec<Time> {
    let mut completion = vec![0.0_f64; inst.machines()];
    for (id, task, _) in inst.iter() {
        if time_lt(task.release, t) {
            let a = schedule.assignment(id);
            let c = a.start + task.ptime;
            let j = a.machine.index();
            if c > completion[j] {
                completion[j] = c;
            }
        }
    }
    completion.iter().map(|&c| (c - t).max(0.0)).collect()
}

/// The stable profile `w_τ` of Theorem 8 for `m` machines and interval
/// size `k`: `w_τ(j) = min(m − j, m − k)` with one-based `j` — a plateau of
/// height `m − k` on machines `M₁ … M_k`, then a staircase decreasing to 0
/// on `Mₘ`.
pub fn stable_profile(m: usize, k: usize) -> Vec<Time> {
    assert!(k >= 1 && k <= m, "need 1 <= k <= m");
    (1..=m).map(|j| ((m - j).min(m - k)) as Time).collect()
}

/// Pointwise comparison of two profiles with the paper's Definition 1:
/// returns `Less` when `a` is strictly behind `b` (`a ≤ b` pointwise with
/// at least one strict), `Equal` when identical, `Greater` when `a`
/// strictly ahead, and `None` when incomparable.
pub fn compare_profiles(a: &[Time], b: &[Time]) -> Option<std::cmp::Ordering> {
    assert_eq!(a.len(), b.len(), "profiles must cover the same machines");
    let mut le = true;
    let mut ge = true;
    for (&x, &y) in a.iter().zip(b) {
        if x < y {
            ge = false;
        }
        if x > y {
            le = false;
        }
    }
    match (le, ge) {
        (true, true) => Some(std::cmp::Ordering::Equal),
        (true, false) => Some(std::cmp::Ordering::Less),
        (false, true) => Some(std::cmp::Ordering::Greater),
        (false, false) => None,
    }
}

/// The *weighted distance* of the paper's Theorem 9 analysis:
/// `ϕ_t(j) = 2^{w_τ(j)} · (m − k + 1 − w_t(j))`, summed over machines.
/// Lemma 5 shows Φ is non-increasing under the interval adversary and
/// strictly decreases whenever some staircase task misses its last
/// machine; once `Φ ≤ 0`, some machine holds at least `m − k + 1` of
/// waiting work.
pub fn weighted_distance(profile: &[Time], m: usize, k: usize) -> f64 {
    assert_eq!(profile.len(), m, "profile must cover all machines");
    let tau = stable_profile(m, k);
    profile
        .iter()
        .zip(&tau)
        .map(|(&w, &wt)| 2.0_f64.powf(wt) * ((m - k + 1) as f64 - w))
        .sum()
}

/// True when a profile is non-increasing in the machine index —
/// the invariant of the paper's Lemma 2 for EFT-Min under the
/// Theorem 8 adversary.
pub fn is_non_increasing(profile: &[Time]) -> bool {
    profile
        .windows(2)
        .all(|w| w[1] <= w[0] + crate::time::TIME_EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineId;
    use crate::procset::ProcSet;
    use crate::schedule::Assignment;
    use crate::task::Task;

    #[test]
    fn stable_profile_matches_paper_shape() {
        // m=6, k=3 → w_τ = [3,3,3,2,1,0] (plateau then staircase).
        assert_eq!(stable_profile(6, 3), vec![3.0, 3.0, 3.0, 2.0, 1.0, 0.0]);
        // k=1 → pure staircase m-j.
        assert_eq!(stable_profile(4, 1), vec![3.0, 2.0, 1.0, 0.0]);
        // k=m → all zero.
        assert_eq!(stable_profile(4, 4), vec![0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn profile_counts_only_earlier_releases() {
        // M1 runs T1 [0,2); T2 released at 1 on M2 [1,2).
        let inst = Instance::new(
            2,
            vec![Task::new(0.0, 2.0), Task::new(1.0, 1.0)],
            vec![ProcSet::full(2), ProcSet::full(2)],
        )
        .unwrap();
        let s = Schedule::new(vec![
            Assignment::new(MachineId(0), 0.0),
            Assignment::new(MachineId(1), 1.0),
        ]);
        // At t=1, only T1 counts (released at 0 < 1): w = [1, 0].
        assert_eq!(profile_at(&s, &inst, 1.0), vec![1.0, 0.0]);
        // At t=1.5 both count: w = [0.5, 0.5].
        assert_eq!(profile_at(&s, &inst, 1.5), vec![0.5, 0.5]);
        // At t=5 everything finished.
        assert_eq!(profile_at(&s, &inst, 5.0), vec![0.0, 0.0]);
    }

    #[test]
    fn compare_profiles_follows_definition_1() {
        use std::cmp::Ordering::*;
        assert_eq!(compare_profiles(&[1.0, 2.0], &[1.0, 2.0]), Some(Equal));
        assert_eq!(compare_profiles(&[0.0, 2.0], &[1.0, 2.0]), Some(Less));
        assert_eq!(compare_profiles(&[2.0, 2.0], &[1.0, 2.0]), Some(Greater));
        assert_eq!(compare_profiles(&[0.0, 3.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn non_increasing_check() {
        assert!(is_non_increasing(&[3.0, 3.0, 1.0, 0.0]));
        assert!(!is_non_increasing(&[1.0, 2.0]));
        assert!(is_non_increasing(&[]));
    }

    #[test]
    #[should_panic(expected = "1 <= k <= m")]
    fn stable_profile_rejects_bad_k() {
        let _ = stable_profile(3, 0);
    }

    #[test]
    fn weighted_distance_zero_profile() {
        // Empty machines: ϕ(j) = 2^{w_τ(j)}·(m−k+1); for m=6, k=3:
        // Σ 2^{[3,3,3,2,1,0]}·4 = (8+8+8+4+2+1)·4 = 124.
        let w = vec![0.0; 6];
        assert_eq!(weighted_distance(&w, 6, 3), 124.0);
    }

    #[test]
    fn weighted_distance_at_stable_profile_is_positive() {
        // At w_τ itself, each term is 2^{w_τ}·(m−k+1−w_τ) > 0.
        let m = 6;
        let k = 3;
        let tau = stable_profile(m, k);
        let phi = weighted_distance(&tau, m, k);
        assert!(phi > 0.0);
        // Hand value: Σ 2^{[3,3,3,2,1,0]}·(4−[3,3,3,2,1,0])
        //            = 8+8+8+4·2+2·3+1·4 = 42.
        assert_eq!(phi, 42.0);
    }

    #[test]
    fn weighted_distance_nonpositive_implies_deep_backlog() {
        // If Φ ≤ 0, some w(j) ≥ m−k+1 (contrapositive of all-below).
        let m = 4;
        let k = 2;
        let w = vec![3.0, 3.0, 3.0, 3.0]; // all at m−k+1
        assert!(weighted_distance(&w, m, k) <= 0.0);
    }

    #[test]
    #[should_panic(expected = "cover all machines")]
    fn weighted_distance_checks_length() {
        let _ = weighted_distance(&[0.0; 3], 4, 2);
    }
}

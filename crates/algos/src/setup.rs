//! Setup-aware dispatch for batch-by-key serving (Mäcker et al.,
//! arXiv:1709.05896): a start rule of the EFT core.
//!
//! In the KV-serving model every request targets a key whose replica
//! set *is* its processing set — requests for the same key carry the
//! same member list, and `flowsched-kvstore` streams emit exactly that.
//! Mäcker et al. study machines that pay a **setup time** whenever they
//! switch between job classes (here: key clusters); a machine that keeps
//! serving one cluster amortizes the setup away, while a machine that
//! thrashes between clusters pays it on every switch.
//!
//! The rule keeps a per-machine *current cluster* fingerprint
//! ([`cluster_fingerprint`]) and charges a configurable setup cost `c`
//! on every switch (including the machine's very first task — a cold
//! cache is a real setup). The machine occupies `[free, free + setup)`
//! with the switch and serves the task in `[start, start + p)` with
//! `start = free + setup`; the reported
//! [`Assignment::start`](flowsched_core::schedule::Assignment) is the
//! *service* start, so flow times include the setup the task induced
//! and per-machine service intervals stay disjoint for the validator.
//!
//! Two variants (registry names `setup@c` and `setup-obl@c`):
//!
//! - **aware**: the start key on machine `j` is
//!   `max(rᵢ, C_j) + setup_j` with `setup_j ∈ {0, c}` depending on
//!   whether `j` is already on the task's cluster, and the least key
//!   wins. The dispatcher *sees* the setup and learns to dedicate
//!   machines to clusters. Keys are compared in start space: adding the
//!   common `pᵢ` would be the same rule in exact arithmetic, but its
//!   rounding can merge distinct starts.
//! - **oblivious**: the machine is chosen as plain EFT, ignoring
//!   setups, but the chosen machine still pays the switch. This is the
//!   thrashing baseline the adversarial stream in `flowsched-workloads`
//!   punishes.
//!
//! Both run on the EFT core's kernels (`eft` module docs). With `c = 0`
//! both reduce to plain EFT **bitwise** (same tie sets, same single RNG
//! draw per task) — pinned by `tests/policy_registry.rs`.

use flowsched_core::compact::ProcSetRef;
use flowsched_core::time::Time;

/// "No cluster yet" sentinel for the per-machine cluster state.
const NO_CLUSTER: u64 = u64::MAX;

/// Fingerprint identifying a task's key cluster: FNV-1a over the
/// processing-set members. Two tasks share a cluster exactly when they
/// share a replica set, which is how the kvstore streams encode keys.
/// (The sentinel value is remapped so a fingerprint never collides with
/// "no cluster yet".)
pub fn cluster_fingerprint(set: ProcSetRef<'_>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for j in set.iter() {
        let mut x = j as u64;
        for _ in 0..8 {
            h ^= x & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            x >>= 8;
        }
    }
    if h == NO_CLUSTER {
        0
    } else {
        h
    }
}

/// The setup rule's parameters and per-machine state.
#[derive(Debug)]
pub(crate) struct SetupRule {
    /// Setup cost `c ≥ 0` charged on every cluster switch.
    pub(crate) cost: Time,
    /// `true` = setup-aware machine choice, `false` = EFT-oblivious
    /// choice that still pays the switch.
    pub(crate) aware: bool,
    /// Cluster fingerprint each machine is currently configured for.
    pub(crate) last: Vec<u64>,
}

impl SetupRule {
    /// The rule for `m` machines, none configured for any cluster yet.
    ///
    /// # Panics
    /// Panics when `cost < 0`.
    pub(crate) fn new(m: usize, cost: Time, aware: bool) -> Self {
        assert!(cost >= 0.0, "setup cost must be non-negative");
        SetupRule {
            cost,
            aware,
            last: vec![NO_CLUSTER; m],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eft::{EftState, ImmediateDispatcher};
    use crate::registry::{PolicyId, PolicySpec, PolicyState};
    use crate::tiebreak::TieBreak;
    use flowsched_core::procset::ProcSet;
    use flowsched_core::task::Task;

    fn setup(m: usize, tie: TieBreak, cost: Time, aware: bool) -> PolicyState {
        PolicySpec::new(PolicyId::SetupEft { tie, cost, aware }).build(m)
    }

    #[test]
    fn zero_cost_matches_plain_eft_bitwise() {
        for aware in [true, false] {
            for policy in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 3 }] {
                let m = 5;
                let mut eft = EftState::new(m, policy);
                let mut st = setup(m, policy, 0.0, aware);
                for i in 0..300 {
                    let lo = i % m;
                    let set = ProcSet::interval(lo, (lo + 2).min(m - 1));
                    let task = Task::new((i / 3) as f64 * 0.25, 0.5 + (i % 4) as f64 * 0.5);
                    assert_eq!(
                        eft.dispatch_ref(task, set.view()),
                        st.dispatch_task(task, set.view()),
                        "aware={aware} {policy:?} dispatch {i} diverged"
                    );
                }
                assert_eq!(eft.completions(), st.machine_completions());
            }
        }
    }

    /// Starts, not completions, are compared: `1 + 2⁻⁵²` and `1` are
    /// distinct starts, but `+ 1024` rounds both completions to 1025,
    /// which would merge them into one tie set that `Max` resolves to
    /// the later machine. `setup@0` must stay bitwise plain EFT.
    #[test]
    fn zero_cost_compares_starts_where_adding_p_rounds() {
        let tasks = [
            (Task::new(0.0, 1.0), ProcSet::singleton(0)),
            (Task::new(0.0, 1.0 + f64::EPSILON), ProcSet::singleton(1)),
            (Task::new(0.5, 1024.0), ProcSet::interval(0, 1)),
        ];
        for aware in [true, false] {
            let mut eft = EftState::new(2, TieBreak::Max);
            let mut st = setup(2, TieBreak::Max, 0.0, aware);
            for (task, set) in &tasks {
                assert_eq!(
                    st.dispatch_task(*task, set.view()),
                    eft.dispatch(*task, set),
                    "aware={aware}"
                );
            }
            assert_eq!(
                eft.completions()[0],
                1025.0,
                "task 2 runs on machine 0 from 1.0"
            );
        }
    }

    #[test]
    fn staying_on_a_cluster_skips_the_setup() {
        let mut st = setup(1, TieBreak::Min, 2.0, true);
        let set = ProcSet::full(1);
        // First task: cold machine pays the setup.
        let a = st.dispatch_task(Task::unit(0.0), set.view());
        assert_eq!(a.start, 2.0);
        // Same cluster again: no setup, contiguous service.
        let b = st.dispatch_task(Task::unit(0.0), set.view());
        assert_eq!(b.start, 3.0);
    }

    #[test]
    fn switching_clusters_pays_again() {
        let mut st = setup(2, TieBreak::Min, 1.0, true);
        let a_only = ProcSet::singleton(0);
        let b_only = ProcSet::singleton(1);
        let ab = ProcSet::interval(0, 1);
        // Park M2 on its own cluster for a long time.
        st.dispatch_task(Task::new(0.0, 10.0), b_only.view());
        // M1 configures for {M1}: setup 1, service [1,2).
        assert_eq!(st.dispatch_task(Task::unit(0.0), a_only.view()).start, 1.0);
        // Cluster {M1,M2}: M1 switching (start 2+1=3) still beats the
        // busy M2 (10+1=11), so M1 leaves its cluster.
        let b = st.dispatch_task(Task::unit(0.0), ab.view());
        assert_eq!(b.machine.index(), 0);
        assert_eq!(b.start, 3.0);
        // Back to {M1}: M1 must reconfigure, paying the cost again.
        let c = st.dispatch_task(Task::unit(0.0), a_only.view());
        assert_eq!(c.start, 5.0); // free at 4, setup 1
    }

    #[test]
    fn aware_choice_prefers_the_configured_machine() {
        // Warm M1 on the cluster (cold machines tie, Min picks M1;
        // service [2,3) under cost 2). At r=2.5, M1 is still busy but
        // warm: start 3 beats the cold idle M2 at 2.5+2=4.5 — the aware
        // rule waits for the configured machine, while oblivious EFT
        // grabs the idle one and pays the switch.
        let cluster = ProcSet::interval(0, 1);
        let mut aware = setup(2, TieBreak::Min, 2.0, true);
        aware.dispatch_task(Task::new(0.0, 1.0), cluster.view());
        let pick = aware.dispatch_task(Task::unit(2.5), cluster.view());
        assert_eq!(pick.machine.index(), 0);

        let mut obl = setup(2, TieBreak::Min, 2.0, false);
        obl.dispatch_task(Task::new(0.0, 1.0), cluster.view());
        let pick = obl.dispatch_task(Task::unit(2.5), cluster.view());
        assert_eq!(
            pick.machine.index(),
            1,
            "oblivious EFT takes the cold idle machine"
        );
    }

    #[test]
    fn fingerprints_distinguish_distinct_sets_and_shapes_agree() {
        let a = ProcSet::interval(0, 3);
        let b = ProcSet::interval(4, 7);
        assert_ne!(cluster_fingerprint(a.view()), cluster_fingerprint(b.view()));
        // The same member list through different representations must
        // fingerprint identically (interval vs explicit).
        let explicit: Vec<usize> = vec![0, 1, 2, 3];
        assert_eq!(
            cluster_fingerprint(a.view()),
            cluster_fingerprint(ProcSetRef::Explicit(&explicit))
        );
    }
}

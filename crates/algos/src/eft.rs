//! EFT — Earliest Finish Time scheduling (paper Algorithm 2), and the
//! one dispatch core every EFT-family policy runs on.
//!
//! EFT is an *immediate dispatch* algorithm: each task is irrevocably
//! assigned to a machine the instant it is released. The chosen machine
//! is one that can finish the task the earliest; among machines tied for
//! the earliest start (`U'ᵢ` of Equation (2)), a [`TieBreak`] policy
//! decides. With identical machines and no restrictions this is
//! equivalent to FIFO (Proposition 1) and therefore `(3 − 2/m)`-
//! competitive; with size-`k` disjoint processing sets it is
//! `(3 − 2/k)`-competitive (Corollary 1); with size-`k` overlapping
//! intervals its competitive ratio degrades to at least `m − k + 1`
//! (Theorems 8–10).
//!
//! # One core, start rules as parameters
//!
//! [`EftState`] owns the machine state of every EFT-family dispatcher:
//! the [`CompletionBank`] (the leaf level of the lane index), the
//! [`Breaker`] with its RNG state, the tie scratch and the
//! [`KernelStats`]. Two parameters set what it computes.
//!
//! - The **kernel** ([`DispatchKernel`]) finds Equation (2)'s tie set
//!   `T = {j ∈ Mᵢ : C_j ≤ t'min}`: the member scan
//!   ([`scan_ties_simd`], one pass over sets of fewer than 8 members
//!   and two SIMD passes over wider ones) or the lane index
//!   ([`indexed`](crate::indexed)), which answers interval, prefix and
//!   ring sets and leaves explicit sets to the scan. It is fixed when
//!   the core is built; `Auto` resolves there, from the source's
//!   structure promise ([`DispatchKernel::resolve`]), to the index only
//!   for interval and ring families whose widest set has at least 96
//!   members. Every kernel yields the same `T` in the same ascending
//!   order, so the kernel is a performance choice only.
//! - The **start rule** decides which member's start wins: plain EFT,
//!   weighted EFT's weight budget ([`weighted`](crate::weighted)), or
//!   the setup penalty of setup-aware dispatch ([`setup`](crate::setup)).
//!   A fault plan ([`faulty`](crate::faulty)) is not a rule of its own:
//!   it maps every rule's start through the plan's earliest fit.
//!
//! **Why every rule runs on the EFT kernel.** Each rule computes a start
//! key per member with `key_j ≥ ready_j = max(rᵢ, C_j)`, exactly in
//! floats: plain EFT's key is `ready_j`; setup-aware dispatch adds the
//! member's setup `≥ 0`; a fault plan maps the key through
//! [`FaultCursor::earliest_fit`], which returns its input or an
//! outage's end. The members of `T` are exactly those with
//! `ready_j = t'min`, the least any key can be. So:
//!
//! 1. if some `j ∈ T` has `key_j = t'min`, the argmin over `Mᵢ` is
//!    `{j ∈ T : key_j = t'min}` — no other member can reach `t'min`;
//! 2. otherwise let `b = min_{j∈T} key_j`. Every member with
//!    `key_j ≤ b` has `C_j ≤ b`, so the argmin over
//!    `{j ∈ Mᵢ : C_j ≤ b}` — one collect from the index or the scan —
//!    is the argmin over `Mᵢ`.
//!
//! Weighted EFT finds the least key `k*` this way; the members with the
//! largest key within its budget `k* + θ/wᵢ` lie in
//! `{j : C_j ≤ k* + θ/wᵢ}` — one more collect and a max. The tie set
//! stays in ascending order and one `Breaker::pick` is drawn per
//! dispatch, so with a zero parameter and no outages every rule
//! reproduces plain EFT bitwise (`tests/policy_registry.rs` holds every
//! rule to per-member reference loops).

use flowsched_core::compact::ProcSetRef;
use flowsched_core::fault::{FaultCursor, FaultPlan};
use flowsched_core::instance::Instance;
use flowsched_core::machine::MachineId;
use flowsched_core::procset::ProcSet;
use flowsched_core::schedule::{Assignment, Schedule};
use flowsched_core::stream::{ArrivalStream, InstanceStream};
use flowsched_core::task::Task;
use flowsched_core::time::Time;
use flowsched_obs::{NoopRecorder, Recorder};

use crate::engine::Run;
use crate::indexed::{ranges, DispatchKernel, IndexRange, KernelStats, LaneIndex};
use crate::registry::PolicySpec;
use crate::setup::{cluster_fingerprint, SetupRule};
use crate::soa::{collect_members_le, scan_ties_simd, CompletionBank};
use crate::tiebreak::{Breaker, TieBreak};

/// Which member's start wins a dispatch (module docs).
#[derive(Debug)]
pub(crate) enum StartRule {
    /// Plain EFT: the least `ready_j`.
    Plain,
    /// Weighted EFT: the latest start within `θ/wᵢ` of the least
    /// ([`weighted`](crate::weighted)).
    Weighted {
        /// The packing budget `θ ≥ 0`.
        slack: Time,
    },
    /// Setup-aware or setup-oblivious dispatch ([`setup`](crate::setup)).
    Setup(SetupRule),
}

/// The EFT dispatch core: per-machine completion times, the tie-break,
/// the kernel that finds Equation (2)'s tie set and the start rule that
/// decides among the members (module docs). Dispatch tasks in release
/// order; the state is what a real immediate-dispatch load balancer
/// would keep.
#[derive(Debug)]
pub struct EftState {
    /// The completion bank as the lane index's leaf; the levels above
    /// it exist only on the indexed kernel.
    index: LaneIndex,
    /// The kernel, fixed when the core is built: `Scalar` or `Indexed`,
    /// never `Auto`.
    kernel: DispatchKernel,
    breaker: Breaker,
    rule: StartRule,
    /// The outages every start skips; queries at `max(rᵢ, C_j)` and
    /// above mostly advance per machine.
    faults: Option<FaultCursor>,
    /// Scratch buffer for the tie set, reused across dispatches.
    ties: Vec<usize>,
    stats: KernelStats,
}

impl EftState {
    /// Plain EFT for `m` idle machines, on the member scan.
    pub fn new(m: usize, policy: TieBreak) -> Self {
        assert!(m > 0, "need at least one machine");
        EftState {
            index: LaneIndex::leaf(CompletionBank::new(m)),
            kernel: DispatchKernel::Scalar,
            breaker: policy.breaker(),
            rule: StartRule::Plain,
            faults: None,
            ties: Vec::new(),
            stats: KernelStats::default(),
        }
    }

    /// This fresh core on `kernel`, for the rest of its life. A core
    /// has no stream to read a structure promise from, so `Auto` is the
    /// member scan here ([`DispatchKernel::resolve`] with no hint); a
    /// caller with a stream resolves it first
    /// ([`DispatchKernel::resolve_for_stream`]).
    pub fn with_kernel(mut self, kernel: DispatchKernel) -> Self {
        self.kernel = kernel.resolve(None);
        if self.kernel == DispatchKernel::Indexed {
            self.index.build_levels();
        }
        self
    }

    /// This core under `rule`.
    pub(crate) fn with_rule(self, rule: StartRule) -> Self {
        EftState { rule, ..self }
    }

    /// This core scheduling around `plan`'s outages.
    ///
    /// # Panics
    /// Panics when the plan covers another machine count.
    pub(crate) fn with_faults(self, plan: FaultPlan) -> Self {
        assert_eq!(
            plan.machines(),
            self.machines(),
            "fault plan and dispatcher disagree on machine count"
        );
        EftState {
            faults: Some(FaultCursor::new(plan)),
            ..self
        }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.index.bank().len()
    }

    /// Current completion time `C_{j,i−1}` of each machine.
    pub fn completions(&self) -> &[Time] {
        self.index.bank().values()
    }

    /// The kernel the core runs: `Scalar` or `Indexed`.
    pub fn kernel(&self) -> DispatchKernel {
        self.kernel
    }

    /// Decision counters (see [`KernelStats`]); `Some` iff the core runs
    /// the indexed kernel.
    pub fn kernel_stats(&self) -> Option<KernelStats> {
        (self.kernel == DispatchKernel::Indexed).then_some(self.stats)
    }

    /// Dispatches one task (Equation (2)): computes
    /// `t'min = max(rᵢ, min_{j∈Mᵢ} C_j)`, collects the tie set
    /// `U'ᵢ = {j ∈ Mᵢ : C_j ≤ t'min}`, picks a machine under the start
    /// rule, and commits.
    ///
    /// Tasks must be dispatched in non-decreasing release order for the
    /// schedule to be meaningful (this mirrors the online arrival order).
    ///
    /// # Panics
    /// Panics if the processing set is empty or references a machine out
    /// of range.
    pub fn dispatch(&mut self, task: Task, set: &ProcSet) -> Assignment {
        self.dispatch_ref(task, set.view())
    }

    /// [`dispatch`](Self::dispatch) over a compact [`ProcSetRef`] view —
    /// what the streaming engine feeds. Identical semantics; the view's
    /// ascending member iterator replaces the slice walk.
    ///
    /// # Panics
    /// Panics if the processing set is empty or references a machine out
    /// of range, or under weighted EFT on a non-positive weight.
    pub fn dispatch_ref(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        assert!(!set.is_empty(), "task has an empty processing set");
        // The padded bank holds +∞ past the live machines, which would
        // silently swallow out-of-range members under min — reject them
        // up front instead.
        assert!(
            set.max().is_some_and(|j| j < self.machines()),
            "processing set references a machine out of range"
        );
        let (u, start) = match (&self.rule, &self.faults) {
            (StartRule::Plain, None) => {
                let u = self.pick(task.release, set);
                (u, task.release.max(self.index.bank().get(u)))
            }
            _ => self.pick_by_rule(task, set),
        };
        self.index.set(u, start + task.ptime);
        Assignment::new(MachineId(u), start)
    }

    /// Plain EFT's pick: the member scan's tie set, or the index on the
    /// indexed kernel.
    #[inline]
    fn pick(&mut self, release: Time, set: ProcSetRef<'_>) -> usize {
        if self.kernel == DispatchKernel::Indexed {
            return self.index_pick(release, set);
        }
        self.scan_tie_set(release, set);
        self.breaker.pick(&self.ties)
    }

    /// Plain EFT's pick on the indexed kernel: `Min` and `Max` over
    /// compact ranges take the extreme tie by one walk per range and one
    /// descent ([`LaneIndex::pick`]) and never build the tie set;
    /// everything else picks from the tie set. Out of line, so the
    /// scan's path inlines.
    #[inline(never)]
    fn index_pick(&mut self, release: Time, set: ProcSetRef<'_>) -> usize {
        if let (Some((low, high)), Breaker::Min | Breaker::Max) = (ranges(set), &self.breaker) {
            self.stats.indexed_descents += 1;
            return match self.breaker {
                Breaker::Min => self.index.pick::<false>(low, high, release),
                _ => self.index.pick::<true>(low, high, release),
            };
        }
        self.tie_set(release, set);
        self.breaker.pick(&self.ties)
    }

    /// Equation (2)'s tie set `{j ∈ Mᵢ : C_j ≤ t'min}` into `ties`, in
    /// ascending order, from the kernel: on the indexed kernel the lane
    /// index over compact ranges, the member scan otherwise — and for
    /// explicit sets, which the index cannot answer.
    fn tie_set(&mut self, release: Time, set: ProcSetRef<'_>) {
        if self.kernel == DispatchKernel::Indexed {
            if let Some((low, high)) = ranges(set) {
                self.stats.indexed_descents += 1;
                let t_min = release.max(range_min(&self.index, low, high));
                self.ties.clear();
                collect_ranges(&self.index, low, high, t_min, &mut self.ties);
                return;
            }
            // The counter name predates the SIMD scan it now counts.
            self.stats.scalar_fallback_scans += 1;
        }
        self.scan_tie_set(release, set);
    }

    /// The member scan's tie set: plain EFT's hot path, always inlined.
    #[inline(always)]
    fn scan_tie_set(&mut self, release: Time, set: ProcSetRef<'_>) {
        scan_ties_simd(self.index.bank().padded(), set, release, &mut self.ties);
    }

    /// The machine and start under a start rule or a fault plan (module
    /// docs): EFT's tie set first, widened only when none of its members
    /// reaches `t'min`. Out of line, so plain EFT's path stays small.
    #[inline(never)]
    fn pick_by_rule(&mut self, task: Task, set: ProcSetRef<'_>) -> (usize, Time) {
        self.tie_set(task.release, set);
        let EftState {
            index,
            kernel,
            breaker,
            rule,
            faults,
            ties,
            ..
        } = self;
        // T's first member has C_j ≤ t'min, and C_j = t'min unless the
        // release is the larger of the two.
        let t_min = task.release.max(index.bank().get(ties[0]));
        let widen = |bound: Time, out: &mut Vec<usize>| match ranges(set) {
            Some((low, high)) if *kernel == DispatchKernel::Indexed => {
                collect_ranges(index, low, high, bound, out);
            }
            _ => collect_members_le(index.bank().padded(), set, bound, out),
        };
        let mut keys = StartKeys {
            bank: index.bank(),
            faults: faults.as_mut(),
            setup: None,
            task,
        };
        match rule {
            StartRule::Plain => {
                let start = argmin(&mut keys, ties, t_min, &widen);
                (breaker.pick(ties), start)
            }
            StartRule::Weighted { slack } => {
                assert!(task.weight > 0.0, "task weights must be positive");
                let least = argmin(&mut keys, ties, t_min, &widen);
                let budget = least + *slack / task.weight;
                ties.clear();
                widen(budget, ties);
                let start = latest_within(&mut keys, ties, budget);
                (breaker.pick(ties), start)
            }
            StartRule::Setup(setup) => {
                let fp = cluster_fingerprint(set);
                let penalty = (setup.last.as_slice(), fp, setup.cost);
                // The aware rule chooses on the setup it will pay; the
                // oblivious one chooses as plain EFT, then pays it.
                keys.setup = setup.aware.then_some(penalty);
                let least = argmin(&mut keys, ties, t_min, &widen);
                let u = breaker.pick(ties);
                let start = if setup.aware {
                    least
                } else {
                    keys.setup = Some(penalty);
                    keys.key(u)
                };
                setup.last[u] = fp;
                (u, start)
            }
        }
    }

    /// The machines' waiting work at time `t` (`w_t` when sampled just
    /// before the next batch): `max(0, C_j − t)` per machine.
    pub fn backlog_at(&self, t: Time) -> Vec<Time> {
        let mut out = Vec::with_capacity(self.machines());
        self.backlog_into(t, &mut out);
        out
    }

    /// [`backlog_at`](Self::backlog_at) into a caller-provided buffer
    /// (cleared first). Trace loops that sample the backlog repeatedly
    /// keep one buffer instead of allocating a fresh `Vec` per sample.
    pub fn backlog_into(&self, t: Time, out: &mut Vec<Time>) {
        out.clear();
        out.extend(self.completions().iter().map(|&c| (c - t).max(0.0)));
    }
}

/// `min C_j` over one or two index ranges.
#[inline]
fn range_min(index: &LaneIndex, low: Option<IndexRange>, high: IndexRange) -> Time {
    low.map_or(Time::INFINITY, |(lo, hi)| index.range_min(lo, hi))
        .min(index.range_min(high.0, high.1))
}

/// Appends `{j : C_j ≤ bound}` over one or two index ranges, ascending.
#[inline]
fn collect_ranges(
    index: &LaneIndex,
    low: Option<IndexRange>,
    high: IndexRange,
    bound: Time,
    out: &mut Vec<usize>,
) {
    if let Some((lo, hi)) = low {
        index.collect_le(0, lo, hi, bound, out);
    }
    index.collect_le(0, high.0, high.1, bound, out);
}

/// The start keys of one dispatch: `key_j = fit_j(ready_j + setup_j)`,
/// where `setup_j` is the setup penalty when one applies and `fit_j` the
/// fault plan's earliest fit when there is a plan.
struct StartKeys<'a> {
    bank: &'a CompletionBank,
    faults: Option<&'a mut FaultCursor>,
    /// Each machine's configured cluster, the task's cluster, the cost.
    setup: Option<(&'a [u64], u64, Time)>,
    task: Task,
}

impl StartKeys<'_> {
    #[inline]
    fn key(&mut self, j: usize) -> Time {
        let mut start = self.task.release.max(self.bank.get(j));
        if let Some((last, fp, cost)) = self.setup {
            if last[j] != fp {
                start += cost;
            }
        }
        match &mut self.faults {
            Some(cursor) => cursor.earliest_fit(j, start, self.task.ptime),
            None => start,
        }
    }
}

/// Narrows `ties` — EFT's tie set at `t_min`, ascending — to the
/// ascending argmin of the keys over the whole set, and returns the
/// least key (module docs, steps 1 and 2). `widen(b, out)` appends
/// `{j ∈ Mᵢ : C_j ≤ b}`.
fn argmin(
    keys: &mut StartKeys<'_>,
    ties: &mut Vec<usize>,
    t_min: Time,
    widen: &impl Fn(Time, &mut Vec<usize>),
) -> Time {
    let (mut bound, mut kept) = (Time::INFINITY, 0);
    for i in 0..ties.len() {
        let j = ties[i];
        let key = keys.key(j);
        if key == t_min {
            ties[kept] = j;
            kept += 1;
        }
        bound = bound.min(key);
    }
    if kept > 0 {
        ties.truncate(kept);
        return t_min;
    }
    ties.clear();
    widen(bound, ties);
    let mut least = Time::INFINITY;
    for i in 0..ties.len() {
        let j = ties[i];
        let key = keys.key(j);
        if key < least {
            least = key;
            kept = 0;
        }
        if key == least {
            ties[kept] = j;
            kept += 1;
        }
    }
    ties.truncate(kept);
    least
}

/// Narrows `cands` (ascending) to the members with the largest key
/// within `budget` and returns that key.
fn latest_within(keys: &mut StartKeys<'_>, cands: &mut Vec<usize>, budget: Time) -> Time {
    let (mut latest, mut kept) = (Time::NEG_INFINITY, 0);
    for i in 0..cands.len() {
        let j = cands[i];
        let key = keys.key(j);
        if key > budget {
            continue;
        }
        if key > latest {
            latest = key;
            kept = 0;
        }
        if key == latest {
            cands[kept] = j;
            kept += 1;
        }
    }
    cands.truncate(kept);
    latest
}

/// Abstraction over immediate-dispatch online schedulers: a task arrives,
/// an assignment is irrevocably returned. The paper's adaptive adversaries
/// (Theorems 3–5, 7, 10) are written against this trait so they can drive
/// any immediate-dispatch algorithm, not just EFT.
pub trait ImmediateDispatcher {
    /// Number of machines.
    fn machine_count(&self) -> usize;
    /// Irrevocably dispatches one released task.
    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment;
    /// Current completion time of each machine under the commitments made
    /// so far (what an adaptive adversary may observe).
    fn machine_completions(&self) -> &[Time];
    /// Decision counters for index-backed kernels ([`KernelStats`]);
    /// `None` for dispatchers with no index. The engine flushes `Some`
    /// stats into the recorder's kernel counters at the end of
    /// sequential runs.
    #[inline(always)]
    fn kernel_stats(&self) -> Option<KernelStats> {
        None
    }
}

impl ImmediateDispatcher for EftState {
    fn machine_count(&self) -> usize {
        self.machines()
    }

    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        self.dispatch_ref(task, set)
    }

    fn machine_completions(&self) -> &[Time] {
        self.completions()
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        self.kernel_stats()
    }
}

/// Runs EFT over a complete instance, returning the schedule.
///
/// ```
/// use flowsched_algos::{TieBreak, eft};
/// use flowsched_core::prelude::*;
///
/// let mut b = InstanceBuilder::new(2);
/// b.push_unit(0.0, ProcSet::full(2));
/// b.push_unit(0.0, ProcSet::full(2));
/// b.push_unit(0.0, ProcSet::singleton(0)); // must queue behind a task on M1
/// let inst = b.build().unwrap();
///
/// let schedule = eft(&inst, TieBreak::Min);
/// schedule.validate(&inst).unwrap();
/// assert_eq!(schedule.fmax(&inst), 2.0);
/// ```
pub fn eft(inst: &Instance, policy: TieBreak) -> Schedule {
    eft_stream(InstanceStream::new(inst), policy, &mut NoopRecorder)
}

/// Runs EFT over an arbitrary [`ArrivalStream`] on the automatic
/// kernel: the shorthand for a sequential, fault-free [`Run`] of
/// [`PolicySpec::eft`], kept because most tests, bins and experiments
/// run plain EFT this way. The engine pulls arrivals lazily, so memory
/// stays O(machines) regardless of stream length, and `rec` sees
/// arrivals, dispatches, and machine transitions for the whole run
/// (with [`NoopRecorder`] the hooks compile away). Feeding an
/// [`InstanceStream`] reproduces the batch [`eft`] schedule exactly.
pub fn eft_stream<S: ArrivalStream, R: Recorder>(
    stream: S,
    policy: TieBreak,
    rec: &mut R,
) -> Schedule {
    Run::new(PolicySpec::eft(policy, DispatchKernel::Auto)).schedule(stream, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::scan_ties;
    use flowsched_core::instance::InstanceBuilder;
    use flowsched_core::task::TaskId;

    #[test]
    fn unrestricted_tasks_balance_across_machines() {
        // 4 simultaneous unit tasks on 4 machines: one each, Fmax = 1.
        let mut b = InstanceBuilder::new(4);
        for _ in 0..4 {
            b.push_unit(0.0, ProcSet::full(4));
        }
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        s.validate(&inst).unwrap();
        assert_eq!(s.fmax(&inst), 1.0);
        let mut machines: Vec<usize> = (0..4).map(|i| s.machine(TaskId(i)).index()).collect();
        machines.sort_unstable();
        assert_eq!(machines, vec![0, 1, 2, 3]);
    }

    #[test]
    fn min_and_max_pick_opposite_ends() {
        let mut b = InstanceBuilder::new(3);
        b.push_unit(0.0, ProcSet::full(3));
        let inst = b.build().unwrap();
        let smin = eft(&inst, TieBreak::Min);
        let smax = eft(&inst, TieBreak::Max);
        assert_eq!(smin.machine(TaskId(0)), MachineId(0));
        assert_eq!(smax.machine(TaskId(0)), MachineId(2));
    }

    #[test]
    fn respects_processing_sets() {
        // Machine 0 is heavily loaded but the restricted task may only use
        // machine 0, so it must wait there.
        let mut b = InstanceBuilder::new(2);
        b.push(Task::new(0.0, 5.0), ProcSet::singleton(0));
        b.push(Task::new(0.0, 1.0), ProcSet::singleton(0));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        s.validate(&inst).unwrap();
        assert_eq!(s.machine(TaskId(1)), MachineId(0));
        assert_eq!(s.start(TaskId(1)), 5.0);
        assert_eq!(s.fmax(&inst), 6.0);
    }

    #[test]
    fn eft_prefers_earliest_finishing_machine() {
        // M1 busy until 3, M2 until 1; new task goes to M2.
        let mut b = InstanceBuilder::new(2);
        b.push(Task::new(0.0, 3.0), ProcSet::singleton(0));
        b.push(Task::new(0.0, 1.0), ProcSet::singleton(1));
        b.push(Task::new(0.5, 1.0), ProcSet::full(2));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        assert_eq!(s.machine(TaskId(2)), MachineId(1));
        assert_eq!(s.start(TaskId(2)), 1.0);
    }

    #[test]
    fn tie_set_requires_c_le_tmin() {
        // M1 free at 2, M2 free at 0; task released at 2: both are in the
        // tie set (C_j ≤ 2) → Min picks M1.
        let mut b = InstanceBuilder::new(2);
        b.push(Task::new(0.0, 2.0), ProcSet::singleton(0));
        b.push(Task::new(2.0, 1.0), ProcSet::full(2));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        assert_eq!(s.machine(TaskId(1)), MachineId(0));
        assert_eq!(s.start(TaskId(1)), 2.0);
    }

    #[test]
    fn immediate_dispatch_starts_at_release_when_idle() {
        let mut b = InstanceBuilder::new(3);
        b.push(Task::new(1.5, 2.0), ProcSet::full(3));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Max);
        assert_eq!(s.start(TaskId(0)), 1.5);
    }

    #[test]
    fn backlog_into_reuses_buffer_and_matches_backlog_at() {
        let mut st = EftState::new(3, TieBreak::Min);
        st.dispatch(Task::new(0.0, 2.0), &ProcSet::full(3));
        st.dispatch(Task::new(0.0, 1.0), &ProcSet::full(3));
        let mut buf = vec![99.0; 7]; // stale contents must be cleared
        for t in [0.0, 0.5, 1.5, 10.0] {
            st.backlog_into(t, &mut buf);
            assert_eq!(buf, st.backlog_at(t), "t = {t}");
        }
    }

    /// The core's member scan, on both sides of its width cut (3- and
    /// 9-wide sets), against the one-pass oracle loop: `scan_ties`, one
    /// `Breaker::pick`, commit. Equal assignments and completions under
    /// `Rand` mean equal tie sets and RNG draws.
    #[test]
    fn scalar_scan_matches_default_simd_scan() {
        let m = 12;
        let mut b = InstanceBuilder::new(m);
        for i in 0..60 {
            let width = if i % 2 == 0 { 3 } else { 9 };
            b.push_unit(
                i as f64 * 0.3,
                ProcSet::interval(i % 4, (i % 4) + width - 1),
            );
        }
        let inst = b.build().unwrap();
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 5 }] {
            let mut core = EftState::new(m, tb);
            let mut breaker = tb.breaker();
            let (mut completions, mut ties) = (vec![0.0; m], Vec::new());
            for (_, task, set) in inst.iter() {
                scan_ties(&completions, set.view().iter(), task.release, &mut ties);
                let u = breaker.pick(&ties);
                let start = task.release.max(completions[u]);
                completions[u] = start + task.ptime;
                let want = Assignment::new(MachineId(u), start);
                assert_eq!(core.dispatch(task, set), want, "tb {tb:?}");
            }
            assert_eq!(core.completions(), &completions[..], "tb {tb:?}");
        }
    }

    /// Every rule shares the padded bank, whose `+∞` tail would silently
    /// swallow an out-of-range member under `min`: each one, on every
    /// kernel and with or without a fault plan, must reject the set.
    #[test]
    fn dispatch_rejects_out_of_range_sets() {
        use crate::indexed::DispatchKernel;
        use crate::registry::PolicySpec;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut st = EftState::new(2, TieBreak::Min);
        let err = catch_unwind(AssertUnwindSafe(|| {
            st.dispatch_ref(Task::new(0.0, 1.0), ProcSetRef::interval(1, 2))
        }));
        assert!(err.is_err(), "the plain core accepted machine 2 of 2");
        let outside = [0, 2];
        for rule in ["eft:max", "weft@1", "setup@1", "setup-obl@1"] {
            for kernel in [
                DispatchKernel::Auto,
                DispatchKernel::Scalar,
                DispatchKernel::Indexed,
            ] {
                let spec = rule.parse::<PolicySpec>().unwrap().with_kernel(kernel);
                for faulty in [false, true] {
                    for set in [ProcSetRef::interval(1, 2), ProcSetRef::Explicit(&outside)] {
                        let mut st = if faulty {
                            spec.build_faulty(FaultPlan::none(2).with_outage(0, 0.0, 1.0))
                        } else {
                            spec.build(2)
                        };
                        let err = catch_unwind(AssertUnwindSafe(|| {
                            st.dispatch_task(Task::new(0.0, 1.0), set)
                        }))
                        .expect_err("an out-of-range member must panic");
                        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
                        assert!(
                            msg.contains("out of range"),
                            "{spec} faulty={faulty} {set:?}: `{msg}`"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn state_backlog_reports_waiting_work() {
        let mut st = EftState::new(2, TieBreak::Min);
        st.dispatch(Task::new(0.0, 3.0), &ProcSet::full(2));
        st.dispatch(Task::new(0.0, 1.0), &ProcSet::full(2));
        assert_eq!(st.backlog_at(0.5), vec![2.5, 0.5]);
        assert_eq!(st.backlog_at(10.0), vec![0.0, 0.0]);
    }

    #[test]
    fn rand_policy_produces_valid_schedules() {
        let mut b = InstanceBuilder::new(4);
        for i in 0..40 {
            b.push_unit(i as f64 * 0.25, ProcSet::interval(i % 3, (i % 3) + 1));
        }
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Rand { seed: 11 });
        s.validate(&inst).unwrap();
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut b = InstanceBuilder::new(5);
        for i in 0..30 {
            b.push_unit((i / 5) as f64, ProcSet::full(5));
        }
        let inst = b.build().unwrap();
        let a = eft(&inst, TieBreak::Rand { seed: 4 });
        let c = eft(&inst, TieBreak::Rand { seed: 4 });
        assert_eq!(a, c);
    }

    #[test]
    fn recorded_dispatch_matches_plain_dispatch_and_traces_transitions() {
        use flowsched_obs::{Counter, Event, MemoryRecorder};
        let mut b = InstanceBuilder::new(2);
        b.push(Task::new(0.0, 2.0), ProcSet::singleton(0)); // M1 busy [0,2)
        b.push(Task::new(3.0, 1.0), ProcSet::singleton(0)); // idle gap [2,3)
        b.push(Task::new(4.0, 1.0), ProcSet::singleton(0)); // contiguous at 4
        let inst = b.build().unwrap();
        let mut rec = MemoryRecorder::with_defaults(2);
        let recorded = eft_stream(InstanceStream::new(&inst), TieBreak::Min, &mut rec);
        assert_eq!(
            recorded,
            eft(&inst, TieBreak::Min),
            "recording must not alter schedules"
        );
        assert_eq!(rec.counters().get(Counter::TasksDispatched), 3);
        // M1: busy@0, idle@2, busy@3 — then 4.0 == completion, contiguous.
        let transitions: Vec<Event> = rec
            .trace()
            .iter()
            .filter(|e| matches!(e, Event::MachineBusy { .. } | Event::MachineIdle { .. }))
            .copied()
            .collect();
        assert_eq!(
            transitions,
            vec![
                Event::MachineBusy {
                    machine: 0,
                    at: 0.0
                },
                Event::MachineIdle {
                    machine: 0,
                    at: 2.0
                },
                Event::MachineBusy {
                    machine: 0,
                    at: 3.0
                },
            ]
        );
        assert_eq!(rec.busy_time(), &[4.0, 0.0]);
        assert_eq!(rec.makespan_seen(), 5.0);
    }

    #[test]
    fn recording_does_not_perturb_the_rand_policy() {
        use flowsched_obs::MemoryRecorder;
        let mut b = InstanceBuilder::new(5);
        for i in 0..40 {
            b.push_unit((i / 5) as f64, ProcSet::full(5));
        }
        let inst = b.build().unwrap();
        let tb = TieBreak::Rand { seed: 9 };
        let mut rec = MemoryRecorder::with_defaults(5);
        assert_eq!(
            eft_stream(InstanceStream::new(&inst), tb, &mut rec),
            eft(&inst, tb)
        );
    }

    #[test]
    fn work_conserving_on_single_machine() {
        // On one machine EFT is FIFO and leaves no unforced idle.
        let mut b = InstanceBuilder::new(1);
        b.push(Task::new(0.0, 1.0), ProcSet::full(1));
        b.push(Task::new(0.5, 1.0), ProcSet::full(1));
        b.push(Task::new(3.0, 1.0), ProcSet::full(1));
        let inst = b.build().unwrap();
        let s = eft(&inst, TieBreak::Min);
        assert_eq!(s.start(TaskId(0)), 0.0);
        assert_eq!(s.start(TaskId(1)), 1.0);
        assert_eq!(s.start(TaskId(2)), 3.0); // idle 2→3 is forced
    }
}

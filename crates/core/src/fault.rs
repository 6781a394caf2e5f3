//! Fault injection: deterministic machine failure plans and the
//! [`FaultyStream`] arrival adapter.
//!
//! The paper proves its guarantees (Prop. 1, Th. 6 / Cor. 1) for perfect,
//! static machines. The motivating key-value-store deployment has
//! replicas that crash, recover, and degrade — which changes `Mᵢ` under
//! the scheduler. This module models that as a *trace-driven* fault
//! layer: a [`FaultPlan`] fixes, ahead of time and deterministically,
//! each machine's outage intervals `[down, up)`, a per-machine speed
//! factor in `(0, 1]`, and a constant dispatcher→machine dispatch
//! latency. Determinism is the point — the same plan and the same
//! arrival stream reproduce the same faulty schedule bit for bit, across
//! thread counts, which is what makes the fault layer testable.
//!
//! The injection itself is a stream adapter, not a sim fork:
//! [`FaultyStream`] wraps any [`ArrivalStream`] and
//!
//! * shifts every release by the dispatch latency,
//! * stretches every processing time by the slowest alive member of the
//!   task's (rewritten) processing set,
//! * rewrites each arrival's [`ProcSetRef`] against the machines alive
//!   at its (shifted) release, and
//! * re-queues tasks stranded by a crash (no member alive) at the
//!   earliest instant a member recovers, merged back in arrival order.
//!
//! Downstream, availability-aware dispatchers (see
//! `flowsched_algos::faulty`) consult the same plan so no task ever
//! *starts* — or runs — inside an outage window: service must fit in a
//! single alive window (a checkpoint-free model; a crash never kills an
//! in-flight task because the dispatcher schedules around the outage it
//! already knows about).
//!
//! A plan with no outages, all speeds `1.0`, and zero latency is
//! *fault-free*: [`FaultyStream`] then forwards the inner stream
//! untouched (zero-copy), which is what makes the "fault-free plan ≡
//! existing engine, bitwise" property in `tests/fault_injection.rs`
//! possible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::compact::{CompactProcSet, ProcSetRef, ProcSetRefIter};
use crate::shard::ShardPlan;
use crate::stream::ArrivalStream;
use crate::structure::StructureReport;
use crate::task::Task;
use crate::time::Time;

/// A closed-open unavailability interval `[down, up)` of one machine.
///
/// The machine is dead at `down` and alive again exactly at `up`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Instant the machine crashes (inclusive).
    pub down: Time,
    /// Instant the machine recovers (exclusive end of the outage).
    pub up: Time,
}

impl Outage {
    /// Creates an outage, panicking unless `0 ≤ down < up` and both are
    /// finite.
    pub fn new(down: Time, up: Time) -> Self {
        assert!(
            down.is_finite() && up.is_finite() && down >= 0.0 && down < up,
            "outage requires 0 <= down < up (got [{down}, {up}))"
        );
        Outage { down, up }
    }

    /// Whether `t` falls inside the outage (`down ≤ t < up`).
    #[inline]
    pub fn covers(&self, t: Time) -> bool {
        self.down <= t && t < self.up
    }
}

/// Per-machine fault state: sorted disjoint outages plus a speed factor.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineFaults {
    /// Outage intervals, sorted by `down`, pairwise disjoint
    /// (`outages[i].up ≤ outages[i+1].down`).
    outages: Vec<Outage>,
    /// Relative speed in `(0, 1]`; a task of processing time `p` takes
    /// `p / speed` wall-clock time on this machine.
    speed: f64,
}

impl MachineFaults {
    /// A healthy machine: no outages, full speed.
    pub fn healthy() -> Self {
        MachineFaults {
            outages: Vec::new(),
            speed: 1.0,
        }
    }

    /// The machine's outage intervals, sorted and disjoint.
    #[inline]
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// The machine's speed factor in `(0, 1]`.
    #[inline]
    pub fn speed(&self) -> f64 {
        self.speed
    }
}

/// The kind of a machine lifecycle transition in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// The machine goes down.
    Crash,
    /// The machine comes back up.
    Recover,
}

/// One machine lifecycle transition, for recorder/trace wiring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Instant of the transition.
    pub at: Time,
    /// Machine index.
    pub machine: usize,
    /// Crash or recover.
    pub kind: FaultEventKind,
}

/// A deterministic, ahead-of-time fault trace for `m` machines.
///
/// Construct with [`FaultPlan::none`] and grow via [`with_outage`],
/// [`with_speed`], and [`with_latency`] (each validates its invariant),
/// or generate seeded random plans with
/// `flowsched_workloads::faults::random_fault_plan`.
///
/// [`with_outage`]: FaultPlan::with_outage
/// [`with_speed`]: FaultPlan::with_speed
/// [`with_latency`]: FaultPlan::with_latency
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    machines: Vec<MachineFaults>,
    dispatch_latency: Time,
}

impl FaultPlan {
    /// The fault-free plan for `m` machines: no outages, unit speeds,
    /// zero dispatch latency.
    pub fn none(m: usize) -> Self {
        FaultPlan {
            machines: vec![MachineFaults::healthy(); m],
            dispatch_latency: 0.0,
        }
    }

    /// Adds the outage `[down, up)` to machine `j` (builder style).
    ///
    /// Panics if `j` is out of range or the interval overlaps an
    /// existing outage of `j` (touching endpoints are allowed — the
    /// machine is then down contiguously).
    pub fn with_outage(mut self, j: usize, down: Time, up: Time) -> Self {
        let o = Outage::new(down, up);
        let list = &mut self.machines[j].outages;
        let pos = list.partition_point(|e| e.down < o.down);
        if pos > 0 {
            assert!(
                list[pos - 1].up <= o.down,
                "outage [{down}, {up}) of machine {j} overlaps [{}, {})",
                list[pos - 1].down,
                list[pos - 1].up
            );
        }
        if pos < list.len() {
            assert!(
                o.up <= list[pos].down,
                "outage [{down}, {up}) of machine {j} overlaps [{}, {})",
                list[pos].down,
                list[pos].up
            );
        }
        list.insert(pos, o);
        self
    }

    /// Replaces machine `j`'s outages with `outages` (builder style), in
    /// one allocation where a loop of [`with_outage`](Self::with_outage)
    /// searches and grows the list once per outage.
    ///
    /// Panics if `j` is out of range or `outages` is not sorted and
    /// pairwise disjoint (touching endpoints are allowed).
    pub fn with_outages(mut self, j: usize, outages: &[Outage]) -> Self {
        for w in outages.windows(2) {
            assert!(
                w[0].up <= w[1].down,
                "outages of machine {j} must be sorted and disjoint: [{}, {}) then [{}, {})",
                w[0].down,
                w[0].up,
                w[1].down,
                w[1].up
            );
        }
        self.machines[j].outages = outages.to_vec();
        self
    }

    /// Sets machine `j`'s speed factor (builder style). Panics unless
    /// `0 < speed ≤ 1`.
    pub fn with_speed(mut self, j: usize, speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0 && speed <= 1.0,
            "speed factor must be in (0, 1] (got {speed})"
        );
        self.machines[j].speed = speed;
        self
    }

    /// Sets the constant dispatcher→machine dispatch latency (builder
    /// style). Panics unless `latency ≥ 0` and finite.
    pub fn with_latency(mut self, latency: Time) -> Self {
        assert!(
            latency.is_finite() && latency >= 0.0,
            "dispatch latency must be finite and >= 0 (got {latency})"
        );
        self.dispatch_latency = latency;
        self
    }

    /// Number of machines the plan covers.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines.len()
    }

    /// Per-machine fault state of machine `j`.
    #[inline]
    pub fn faults(&self, j: usize) -> &MachineFaults {
        &self.machines[j]
    }

    /// Machine `j`'s speed factor in `(0, 1]`.
    #[inline]
    pub fn speed(&self, j: usize) -> f64 {
        self.machines[j].speed
    }

    /// The constant dispatcher→machine dispatch latency.
    #[inline]
    pub fn latency(&self) -> Time {
        self.dispatch_latency
    }

    /// `true` when the plan changes nothing: no outages, all speeds
    /// `1.0`, zero latency. [`FaultyStream`] forwards the inner stream
    /// untouched for such plans.
    pub fn is_fault_free(&self) -> bool {
        self.dispatch_latency == 0.0
            && self
                .machines
                .iter()
                .all(|f| f.outages.is_empty() && f.speed == 1.0)
    }

    /// Whether machine `j` is alive at instant `t` (outages are
    /// closed-open: dead at `down`, alive at `up`).
    #[inline]
    pub fn is_alive(&self, j: usize, t: Time) -> bool {
        let list = &self.machines[j].outages;
        let pos = list.partition_point(|o| o.down <= t);
        pos == 0 || list[pos - 1].up <= t
    }

    /// The earliest instant `≥ t` at which machine `j` is alive: `t`
    /// itself when alive, else the end of the outage chain covering it.
    /// This is [`earliest_fit`](FaultPlan::earliest_fit) with a zero
    /// duration, so the returned instant always satisfies `is_alive`.
    #[inline]
    pub fn next_alive(&self, j: usize, t: Time) -> Time {
        self.earliest_fit(j, t, 0.0)
    }

    /// The earliest start `s ≥ t` such that machine `j` is alive for
    /// the whole service window `[s, s + duration)` — the
    /// checkpoint-free fit used by availability-aware dispatchers.
    ///
    /// Always terminates with a finite answer: the outage list is
    /// finite, so the machine is alive forever after its last outage.
    pub fn earliest_fit(&self, j: usize, t: Time, duration: Time) -> Time {
        let list = &self.machines[j].outages;
        fit(&list[list.partition_point(|o| o.up <= t)..], t, duration)
    }

    /// The earliest instant `≥ t` at which *some* member of `set` is
    /// alive, or `None` for an empty set. Used to re-queue stranded
    /// tasks: at the returned instant the restriction of `set` to alive
    /// machines is guaranteed non-empty.
    pub fn next_alive_in(&self, set: ProcSetRef<'_>, t: Time) -> Option<Time> {
        set.iter()
            .map(|j| self.next_alive(j, t))
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The minimum speed factor over the members of `set` (the
    /// conservative stretch applied to a task that may land on any of
    /// them), or `None` for an empty set.
    pub fn min_speed_in(&self, set: ProcSetRef<'_>) -> Option<f64> {
        set.iter()
            .map(|j| self.machines[j].speed)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// All crash/recover transitions of the plan, sorted by time (ties
    /// broken by machine index, recover before crash — so exactly-
    /// touching outages `[a, b) + [b, c)` replay as a well-nested
    /// `recover@b, crash@b` and span pairing stays balanced). Feed these
    /// to a recorder up front so outage spans appear in exported traces.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut evs = Vec::new();
        for (j, f) in self.machines.iter().enumerate() {
            for o in &f.outages {
                evs.push(FaultEvent {
                    at: o.down,
                    machine: j,
                    kind: FaultEventKind::Crash,
                });
                evs.push(FaultEvent {
                    at: o.up,
                    machine: j,
                    kind: FaultEventKind::Recover,
                });
            }
        }
        evs.sort_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then(a.machine.cmp(&b.machine))
                .then((a.kind == FaultEventKind::Crash).cmp(&(b.kind == FaultEventKind::Crash)))
        });
        evs
    }

    /// The sub-plan covering machines `[start, start + len)`, re-indexed
    /// to local indices `0..len`. Dispatch latency is preserved. Used by
    /// the sharded engine to hand each shard its own machine block.
    pub fn slice(&self, start: usize, len: usize) -> FaultPlan {
        FaultPlan {
            machines: self.machines[start..start + len].to_vec(),
            dispatch_latency: self.dispatch_latency,
        }
    }
}

/// The seek-and-fit tail of every availability query: the earliest
/// start `s ≥ t` whose window `[s, s + duration)` meets none of
/// `ahead`, one machine's outages with `up > t` in order. An outage
/// blocks when it covers `s` or begins before the window ends; the
/// covering test skips a chain of exactly-touching outages
/// (`[a, b) + [b, c)`) even for a zero duration.
fn fit(ahead: &[Outage], mut s: Time, duration: Time) -> Time {
    for o in ahead {
        if o.covers(s) || o.down < s + duration {
            s = o.up;
        } else {
            break;
        }
    }
    s
}

/// Availability queries over an owned [`FaultPlan`], in amortized O(1)
/// when each machine's query times never decrease — the EFT core's
/// start fit.
///
/// Per machine it keeps the index of the first outage with `up > t` for
/// the last query `t`, and lanes hold the alive window `[floor,
/// next_down)` before it: a query inside costs two loads. In any call
/// order, answers are bitwise the stateless ones (for non-NaN `t`).
#[derive(Debug)]
pub struct FaultCursor {
    plan: FaultPlan,
    next: Vec<usize>,
    floor: Vec<Time>,
    next_down: Vec<Time>,
}

impl FaultCursor {
    /// A cursor over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let m = plan.machines();
        FaultCursor {
            plan,
            next: vec![0; m],
            floor: vec![Time::INFINITY; m],
            next_down: vec![Time::NEG_INFINITY; m],
        }
    }

    /// [`FaultPlan::earliest_fit`]; a task fits at `t` in the window
    /// when `t + duration ≤ next_down`.
    #[inline]
    pub fn earliest_fit(&mut self, j: usize, t: Time, duration: Time) -> Time {
        let next_down = self.next_down[j];
        if self.floor[j] <= t && t < next_down && t + duration <= next_down {
            return t;
        }
        self.refit(j, t, duration)
    }

    /// Outside the window: walks to the first outage with `up > t` (a
    /// binary search when `t < floor`), refreshes the lanes (`±∞` past
    /// the list's ends) and fits; out of line, so the fast path inlines.
    #[inline(never)]
    fn refit(&mut self, j: usize, t: Time, duration: Time) -> Time {
        let list = &self.plan.machines[j].outages;
        let mut pos = self.next[j];
        if t < self.floor[j] {
            pos = list.partition_point(|o| o.up <= t);
        }
        while list.get(pos).is_some_and(|o| o.up <= t) {
            pos += 1;
        }
        self.next[j] = pos;
        self.floor[j] = list[..pos].last().map_or(Time::NEG_INFINITY, |o| o.up);
        self.next_down[j] = list.get(pos).map_or(Time::INFINITY, |o| o.down);
        fit(&list[pos..], t, duration)
    }
}

/// The machines down at a sweep time that never decreases: one bit per
/// machine, flipped only when the sweep passes its next crash or
/// recovery, so a run of members costs one masked test per 64 machines.
#[derive(Debug)]
struct DownSet {
    /// The last sweep time.
    now: Time,
    /// Per machine, its first outage with `up > now`.
    next: Vec<usize>,
    /// Bit `j % 64` of word `j / 64` is set iff machine `j` is down at
    /// `now` (`FaultPlan::is_alive`'s closed-open rule).
    down: Vec<u64>,
    /// Each machine's next crash or recovery after `now`, if any.
    due: BinaryHeap<Due>,
}

/// A machine's next transition `(at, machine)`, earliest on top.
#[derive(Debug, PartialEq)]
struct Due(Time, usize);

impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, as for `Deferred`; `total_cmp` puts an outage at
        // `-0.0` (which `Outage::new` accepts) first.
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl DownSet {
    /// Every machine up, each due at its first crash.
    fn new(plan: &FaultPlan) -> Self {
        let m = plan.machines();
        let first = |j: usize| Some(Due(plan.machines[j].outages.first()?.down, j));
        DownSet {
            now: Time::NEG_INFINITY,
            next: vec![0; m],
            down: vec![0; m.div_ceil(64)],
            due: (0..m).filter_map(first).collect(),
        }
    }

    /// Moves the sweep to `t`, flipping the machines whose transitions
    /// it passes. A NaN `t` passes none. A `t` before the last sweep (a
    /// stream out of release order) restarts the sweep from the top, so
    /// the answers stay `is_alive`'s in any order.
    fn advance(&mut self, plan: &FaultPlan, t: Time) {
        if t < self.now {
            *self = DownSet::new(plan);
        }
        self.now = t;
        while self.due.peek().is_some_and(|d| d.0 <= t) {
            let Due(_, j) = self.due.pop().expect("peeked above");
            let list = &plan.machines[j].outages;
            while list.get(self.next[j]).is_some_and(|o| o.up <= t) {
                self.next[j] += 1;
            }
            let next = list.get(self.next[j]);
            let down = next.is_some_and(|o| o.down <= t);
            let word = self.down[j / 64] & !(1 << (j % 64));
            self.down[j / 64] = word | u64::from(down) << (j % 64);
            if let Some(o) = next {
                let at = if down { o.up } else { o.down };
                debug_assert!(at > t, "transition {at} of {j} is not after {t}");
                self.due.push(Due(at, j));
            }
        }
    }

    #[inline]
    fn is_up(&self, j: usize) -> bool {
        self.down[j / 64] >> (j % 64) & 1 == 0
    }

    /// Whether no machine of `run` is down: one masked test per word,
    /// the first and last words masked to the run.
    #[inline]
    fn run_is_up(&self, run: Range<usize>) -> bool {
        (run.start / 64..run.end.div_ceil(64)).all(|w| {
            let below = run.start.saturating_sub(w * 64);
            let above = (w * 64 + 64).saturating_sub(run.end);
            self.down[w] & (!0 << below) & (!0 >> above) == 0
        })
    }

    /// `true` when every member of `set` is up; otherwise `false` with
    /// the up members in `scratch`, ascending — possibly none, meaning
    /// the task is stranded. Interval, prefix and ring sets are one or
    /// two runs of machines; an explicit set tests one bit per member.
    fn restrict(&self, set: ProcSetRef<'_>, scratch: &mut Vec<usize>) -> bool {
        let all_up = match set.iter() {
            ProcSetRefIter::Ranges { first, second } => {
                self.run_is_up(first) && self.run_is_up(second)
            }
            ProcSetRefIter::Slice(mut members) => members.all(|&j| self.is_up(j)),
        };
        if !all_up {
            scratch.clear();
            scratch.extend(set.iter().filter(|&j| self.is_up(j)));
        }
        all_up
    }
}

/// A stranded task parked until a member of its set recovers.
#[derive(Debug)]
struct Deferred {
    /// Re-entry instant: earliest time some member of `set` is alive.
    ready: Time,
    /// Original arrival rank — ties at `ready` re-enter in this order.
    seq: u64,
    /// The task as it arrived: unstretched, with its latency-shifted
    /// release (superseded by `ready`) and its weight.
    task: Task,
    /// The task's *original* processing set (restriction happens again
    /// at re-entry).
    set: CompactProcSet,
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        self.ready == other.ready && self.seq == other.seq
    }
}
impl Eq for Deferred {}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (ready, seq) on top.
        other
            .ready
            .total_cmp(&self.ready)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Wraps an [`ArrivalStream`], injecting the faults of a [`FaultPlan`].
///
/// For fault-free plans every call forwards to the inner stream
/// untouched. Otherwise each arrival's release is shifted by the
/// dispatch latency, its set is restricted to the machines alive at the
/// shifted release, and its processing time is stretched by the slowest
/// alive member's speed factor. Arrivals whose whole set is dead are
/// deferred to the earliest recovery of any member and merged back in
/// `(release, arrival rank)` order, so displaced tasks re-enter under
/// the engine's existing arrival-order convention. Releases remain
/// non-decreasing (the engines assert this), so one sweep of the plan
/// answers every restriction.
pub struct FaultyStream<'p, S> {
    inner: S,
    plan: &'p FaultPlan,
    /// The machines down at the shifted release, which never decreases.
    down: DownSet,
    fault_free: bool,
    /// Some machine runs below full speed; otherwise `p / 1.0 == p` and
    /// the per-member speed scan is skipped.
    degraded: bool,
    /// Next inner arrival (already latency-shifted), not yet emitted.
    lookahead: Option<(Task, CompactProcSet)>,
    inner_done: bool,
    deferred: BinaryHeap<Deferred>,
    next_seq: u64,
    /// Owned copy of the set being emitted this pull (lent to the caller).
    current: CompactProcSet,
    /// Alive members when the original set is partially dead.
    scratch: Vec<usize>,
}

impl<'p, S: ArrivalStream> FaultyStream<'p, S> {
    /// Wraps `inner`, injecting the faults of `plan`. Panics unless the
    /// plan covers exactly the stream's machines.
    pub fn new(inner: S, plan: &'p FaultPlan) -> Self {
        assert_eq!(
            inner.machines(),
            plan.machines(),
            "fault plan covers {} machines but the stream has {}",
            plan.machines(),
            inner.machines()
        );
        FaultyStream {
            fault_free: plan.is_fault_free(),
            degraded: plan.machines.iter().any(|f| f.speed < 1.0),
            inner,
            plan,
            down: DownSet::new(plan),
            lookahead: None,
            inner_done: false,
            deferred: BinaryHeap::new(),
            next_seq: 0,
            current: CompactProcSet::Prefix { len: 1 },
            scratch: Vec::new(),
        }
    }

    /// Pulls the next inner arrival into `lookahead` (latency-shifted).
    fn refill(&mut self) {
        if self.lookahead.is_none() && !self.inner_done {
            match self.inner.next_arrival() {
                Some((t, set)) => {
                    let release = t.release + self.plan.latency();
                    let shifted = Task { release, ..t };
                    self.lookahead = Some((shifted, CompactProcSet::from(set)));
                }
                None => self.inner_done = true,
            }
        }
    }
}

impl<S: ArrivalStream> ArrivalStream for FaultyStream<'_, S> {
    fn machines(&self) -> usize {
        self.inner.machines()
    }

    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        if self.fault_free {
            return self.inner.next_arrival();
        }
        loop {
            self.refill();
            // Merge deferred re-entries with fresh arrivals in
            // (release, arrival rank) order. A deferred task always has
            // a smaller rank than any fresh one (it was pulled from the
            // inner stream earlier), so deferred-first on release ties
            // is exactly arrival order.
            let take_deferred = match (self.deferred.peek(), &self.lookahead) {
                (Some(d), Some((t, _))) => d.ready <= t.release,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            let (task, seq) = if take_deferred {
                let d = self.deferred.pop().expect("peeked above");
                self.current = d.set;
                let task = Task {
                    release: d.ready,
                    ..d.task
                };
                (task, d.seq)
            } else {
                let (t, set) = self.lookahead.take().expect("peeked above");
                let seq = self.next_seq;
                self.next_seq += 1;
                self.current = set;
                (t, seq)
            };
            // Restrict to the machines alive at the (shifted) release.
            self.down.advance(self.plan, task.release);
            let all_alive = self
                .down
                .restrict(self.current.as_view(), &mut self.scratch);
            if !all_alive && self.scratch.is_empty() {
                // Stranded: every member is down. Park until the first
                // recovery of any member; at that instant the
                // restriction is non-empty by construction, so a
                // deferred task is never re-deferred (a NaN release,
                // which no recovery follows, panics here instead).
                assert!(
                    !take_deferred,
                    "a re-entering task is stranded again at {}",
                    task.release
                );
                let ready = self
                    .plan
                    .next_alive_in(self.current.as_view(), task.release)
                    .expect("processing sets are non-empty");
                let set = std::mem::replace(&mut self.current, CompactProcSet::Prefix { len: 1 });
                self.deferred.push(Deferred {
                    ready,
                    seq,
                    task,
                    set,
                });
                continue;
            }
            let view = if all_alive {
                self.current.as_view()
            } else {
                ProcSetRef::Explicit(&self.scratch)
            };
            let mut ptime = task.ptime;
            if self.degraded {
                ptime /= self
                    .plan
                    .min_speed_in(view)
                    .expect("restricted set is non-empty");
            }
            return Some((Task { ptime, ..task }, view));
        }
    }

    fn len_hint(&self) -> Option<usize> {
        // Nothing is ever dropped: deferred and lookahead tasks are all
        // eventually emitted.
        self.inner
            .len_hint()
            .map(|n| n + self.deferred.len() + usize::from(self.lookahead.is_some()))
    }

    fn structure_hint(&self) -> Option<StructureReport> {
        // Restriction to alive machines breaks the inner stream's
        // family promises (an interval with a dead middle machine is no
        // longer an interval), so a faulty stream advertises nothing.
        if self.fault_free {
            self.inner.structure_hint()
        } else {
            None
        }
    }

    fn shard_plan(&self, max_shards: usize) -> ShardPlan {
        // Restricted sets are subsets of the originals, so any plan
        // whose shard hulls cover the inner stream's sets also covers
        // the faulty stream's.
        self.inner.shard_plan(max_shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procset::ProcSet;
    use crate::stream::FnStream;

    fn plan3() -> FaultPlan {
        FaultPlan::none(3)
            .with_outage(1, 2.0, 5.0)
            .with_outage(1, 8.0, 9.0)
            .with_speed(2, 0.5)
    }

    #[test]
    fn alive_queries_respect_closed_open_intervals() {
        let p = plan3();
        assert!(p.is_alive(1, 1.9));
        assert!(!p.is_alive(1, 2.0));
        assert!(!p.is_alive(1, 4.9));
        assert!(p.is_alive(1, 5.0));
        assert!(p.is_alive(0, 2.0));
        assert_eq!(p.next_alive(1, 3.0), 5.0);
        assert_eq!(p.next_alive(1, 5.0), 5.0);
        assert_eq!(p.next_alive(1, 8.5), 9.0);
    }

    #[test]
    fn earliest_fit_skips_windows_too_small() {
        let p = FaultPlan::none(1)
            .with_outage(0, 2.0, 3.0)
            .with_outage(0, 4.0, 10.0);
        // [3, 4) is a 1-wide alive window: a 1-long task fits at 3…
        assert_eq!(p.earliest_fit(0, 0.0, 1.0), 0.0);
        assert_eq!(p.earliest_fit(0, 2.5, 1.0), 3.0);
        // …but a 2-long task must wait for the recovery at 10.
        assert_eq!(p.earliest_fit(0, 2.5, 2.0), 10.0);
        assert_eq!(p.earliest_fit(0, 11.0, 100.0), 11.0);
    }

    #[test]
    fn touching_outages_are_contiguously_down() {
        // [1,2) + [2,3) + [3,4): down through [1,4), alive exactly at 4
        // (insertion order shuffled to exercise the sorted insert).
        let p = FaultPlan::none(1)
            .with_outage(0, 2.0, 3.0)
            .with_outage(0, 1.0, 2.0)
            .with_outage(0, 3.0, 4.0);
        assert!(!p.is_alive(0, 2.0));
        assert!(!p.is_alive(0, 3.0));
        assert!(p.is_alive(0, 4.0));
        for t in [1.0, 1.5, 2.0, 2.5, 3.0, 3.9] {
            let s = p.next_alive(0, t);
            assert_eq!(s, 4.0, "next_alive(0, {t})");
            assert!(
                p.is_alive(0, s),
                "next_alive(0, {t}) returned a dead instant"
            );
        }
        // earliest_fit must clear the whole chain, not stop at a shared
        // endpoint…
        assert_eq!(p.earliest_fit(0, 1.5, 0.5), 4.0);
        assert_eq!(p.earliest_fit(0, 0.5, 1.0), 4.0);
        // …while a service window ending exactly at the chain still fits.
        assert_eq!(p.earliest_fit(0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn events_order_recover_before_crash_on_ties() {
        let evs = FaultPlan::none(1)
            .with_outage(0, 1.0, 2.0)
            .with_outage(0, 2.0, 3.0)
            .events();
        let kinds: Vec<_> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultEventKind::Crash,
                FaultEventKind::Recover,
                FaultEventKind::Crash,
                FaultEventKind::Recover,
            ],
            "touching outages must replay well-nested"
        );
        assert_eq!(evs[1].at, 2.0);
        assert_eq!(evs[2].at, 2.0);
    }

    #[test]
    fn deferred_task_skips_touching_outage_chain() {
        // Machine 0 is down over [0,2)+[2,5): the stranded task re-enters
        // at 5, never at the dead shared endpoint 2 (which would
        // re-defer it).
        let plan = FaultPlan::none(1)
            .with_outage(0, 0.0, 2.0)
            .with_outage(0, 2.0, 5.0);
        let tasks = vec![(Task::new(0.0, 1.0), ProcSet::singleton(0))];
        let mut it = tasks.into_iter();
        let mut s = FaultyStream::new(FnStream::new(1, move || it.next()), &plan);
        let (t, set) = s.next_arrival().unwrap();
        assert_eq!(t.release, 5.0);
        assert!(plan.is_alive(0, t.release));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0]);
        assert!(s.next_arrival().is_none());
    }

    #[test]
    fn overlapping_outages_panic() {
        let r = std::panic::catch_unwind(|| {
            let _ = FaultPlan::none(1)
                .with_outage(0, 2.0, 5.0)
                .with_outage(0, 4.0, 6.0);
        });
        assert!(r.is_err());
    }

    #[test]
    fn with_outages_matches_one_at_a_time_and_rejects_overlaps() {
        let one_by_one = FaultPlan::none(2)
            .with_outage(1, 0.0, 2.0)
            .with_outage(1, 2.0, 5.0)
            .with_outage(1, 7.0, 8.0);
        let outages = [
            Outage::new(0.0, 2.0),
            Outage::new(2.0, 5.0),
            Outage::new(7.0, 8.0),
        ];
        assert_eq!(FaultPlan::none(2).with_outages(1, &outages), one_by_one);
        for bad in [
            [outages[1], outages[0]],
            [outages[1], Outage::new(4.0, 6.0)],
        ] {
            let r = std::panic::catch_unwind(|| FaultPlan::none(2).with_outages(1, &bad));
            assert!(r.is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn fault_free_detection() {
        assert!(FaultPlan::none(4).is_fault_free());
        assert!(!FaultPlan::none(4).with_speed(0, 0.9).is_fault_free());
        assert!(!FaultPlan::none(4).with_latency(0.1).is_fault_free());
        assert!(!FaultPlan::none(4).with_outage(2, 1.0, 2.0).is_fault_free());
    }

    #[test]
    fn faulty_stream_keeps_view_when_all_alive() {
        let p = plan3();
        let tasks = vec![
            (Task::new(1.0, 1.0), ProcSet::interval(0, 2)),
            (Task::new(3.0, 1.0), ProcSet::interval(0, 2)),
        ];
        let mut it = tasks.into_iter();
        let mut s = FaultyStream::new(FnStream::new(3, move || it.next()), &p);
        let (_, set) = s.next_arrival().unwrap();
        assert!(matches!(set, ProcSetRef::Interval { lo: 0, hi: 2 }));
        let (_, set) = s.next_arrival().unwrap();
        assert!(matches!(set, ProcSetRef::Explicit(&[0, 2])));
    }

    #[test]
    fn events_are_time_sorted_pairs() {
        let evs = plan3().events();
        assert_eq!(evs.len(), 4);
        assert!(evs.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(evs[0].kind, FaultEventKind::Crash);
        assert_eq!(evs[1].kind, FaultEventKind::Recover);
    }

    #[test]
    fn slice_reindexes_machines() {
        let p = plan3();
        let s = p.slice(1, 2);
        assert_eq!(s.machines(), 2);
        assert!(!s.is_alive(0, 3.0)); // global machine 1
        assert_eq!(s.speed(1), 0.5); // global machine 2
    }

    fn three_task_stream() -> impl ArrivalStream {
        let tasks = vec![
            (Task::new(0.0, 1.0), ProcSet::new(vec![0, 1])),
            (Task::new(2.5, 1.0), ProcSet::new(vec![1])),
            (Task::new(3.0, 1.0), ProcSet::new(vec![0, 2])),
        ];
        let mut it = tasks.into_iter();
        FnStream::new(3, move || it.next())
    }

    #[test]
    fn faulty_stream_defers_stranded_tasks_in_arrival_order() {
        let plan = plan3();
        let mut s = FaultyStream::new(three_task_stream(), &plan);
        // Task 0 at 0.0 on {0,1}: both alive.
        let (t, set) = s.next_arrival().unwrap();
        assert_eq!(t.release, 0.0);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 1]);
        // Task 1 at 2.5 on {1}: machine 1 is down [2,5) → deferred to 5.
        // Task 2 at 3.0 on {0,2}: alive, stretched by machine 2's 0.5.
        let (t, set) = s.next_arrival().unwrap();
        assert_eq!(t.release, 3.0);
        assert_eq!(t.ptime, 2.0);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 2]);
        // Deferred task re-enters at the recovery instant.
        let (t, set) = s.next_arrival().unwrap();
        assert_eq!(t.release, 5.0);
        assert_eq!(t.ptime, 1.0);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![1]);
        assert!(s.next_arrival().is_none());
    }

    #[test]
    fn faulty_stream_keeps_task_weights() {
        // Shifted, stretched and deferred tasks all keep their weight,
        // which weighted dispatch under a plan budgets by.
        let plan = plan3().with_latency(0.25);
        let tasks = vec![
            (Task::weighted(2.5, 1.0, 4.0), ProcSet::new(vec![1])),
            (Task::weighted(3.0, 1.0, 2.0), ProcSet::new(vec![0, 2])),
        ];
        let mut it = tasks.into_iter();
        let mut s = FaultyStream::new(FnStream::new(3, move || it.next()), &plan);
        let mut seen = Vec::new();
        while let Some((t, _)) = s.next_arrival() {
            seen.push((t.release, t.ptime, t.weight));
        }
        assert_eq!(seen, vec![(3.25, 2.0, 2.0), (5.0, 1.0, 4.0)]);
    }

    #[test]
    fn faulty_stream_shifts_releases_by_latency() {
        let plan = FaultPlan::none(3).with_latency(0.75);
        let mut s = FaultyStream::new(three_task_stream(), &plan);
        let mut releases = Vec::new();
        while let Some((t, _)) = s.next_arrival() {
            releases.push(t.release);
        }
        assert_eq!(releases, vec![0.75, 3.25, 3.75]);
    }

    #[test]
    fn fault_free_plan_forwards_inner_stream() {
        let plan = FaultPlan::none(3);
        let mut faulty = FaultyStream::new(three_task_stream(), &plan);
        let mut plain = three_task_stream();
        loop {
            match (faulty.next_arrival(), plain.next_arrival()) {
                (Some((a, sa)), Some((b, sb))) => {
                    assert_eq!(a, b);
                    assert!(sa.iter().eq(sb.iter()));
                }
                (None, None) => break,
                _ => panic!("stream lengths differ"),
            }
        }
    }
}

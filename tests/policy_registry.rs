//! The policy registry's contracts, pinned (ISSUE 8):
//!
//! 1. **One construction path, zero drift**: a registry-built policy
//!    produces the *bitwise-identical* schedule and recorder trace to
//!    the dispatcher it names, built outside the registry — across
//!    workload families, tie-breaks, kernels, and sequential vs sharded
//!    engines. The EFT-family rules (`eft`, `weft@θ`, `setup@c`,
//!    `setup-obl@c`) are held to test-local reference dispatchers that
//!    evaluate every member once per dispatch, with and without fault
//!    plans, so the registry is never compared with itself.
//! 2. **Names are total**: every [`PolicySpec`] round-trips through its
//!    registry string (`spec.to_string().parse() == spec`), for random
//!    specs and for the curated [`PolicySpec::examples`].
//! 3. **The frontier degenerates cleanly**: `weft@0` and `setup@0`
//!    (both variants) reproduce plain scalar EFT bitwise, including the
//!    tie-break RNG draws.

use proptest::prelude::*;
use rand::Rng;

use flowsched::algos::eft::ImmediateDispatcher;
use flowsched::algos::engine::{immediate_schedule, Run, ShardedConfig};
use flowsched::algos::indexed::DispatchKernel;
use flowsched::algos::policies::Dispatcher;
use flowsched::algos::registry::{PolicyId, PolicySpec};
use flowsched::algos::setup::cluster_fingerprint;
use flowsched::algos::tiebreak::{Breaker, TieBreak};
use flowsched::core::compact::ProcSetRef;
use flowsched::core::fault::{FaultEventKind, FaultPlan, FaultyStream};
use flowsched::core::machine::MachineId;
use flowsched::core::procset::ProcSet;
use flowsched::core::schedule::{Assignment, Schedule};
use flowsched::core::shard::DEFAULT_MAX_SHARDS;
use flowsched::core::stream::ArrivalStream;
use flowsched::core::structure::{classify, StructureReport};
use flowsched::core::task::Task;
use flowsched::obs::{MemoryRecorder, NoopRecorder, Recorder};
use flowsched::stats::rng::derive_rng;
use flowsched::workloads::random::{PoissonStream, PoissonStreamConfig, StructureKind};

fn kind_for(idx: usize, k: usize) -> StructureKind {
    match idx {
        0 => StructureKind::DisjointBlocks(k),
        1 => StructureKind::IntervalFixed(k),
        2 => StructureKind::RingFixed(k),
        3 => StructureKind::InclusivePrefix,
        4 => StructureKind::Unrestricted,
        _ => StructureKind::General,
    }
}

fn stream_for(kind: StructureKind, m: usize, n: usize, seed: u64) -> PoissonStream {
    let cfg = PoissonStreamConfig::unit_tasks(m, n, m as f64 / 2.0, kind);
    PoissonStream::new(&cfg, seed)
}

fn arb_tie() -> impl Strategy<Value = TieBreak> {
    prop_oneof![
        Just(TieBreak::Min),
        Just(TieBreak::Max),
        any::<u64>().prop_map(|seed| TieBreak::Rand { seed }),
    ]
}

fn arb_kernel() -> impl Strategy<Value = DispatchKernel> {
    prop_oneof![
        Just(DispatchKernel::Auto),
        Just(DispatchKernel::Scalar),
        Just(DispatchKernel::Indexed),
    ]
}

fn arb_id() -> impl Strategy<Value = PolicyId> {
    prop_oneof![
        arb_tie().prop_map(|tie| PolicyId::Eft { tie }),
        any::<u64>().prop_map(|seed| PolicyId::Random { seed }),
        (1usize..5, any::<u64>()).prop_map(|(d, seed)| PolicyId::Choices { d, seed }),
        Just(PolicyId::RoundRobin),
        (arb_tie(), 0u32..40).prop_map(|(tie, s)| PolicyId::WeightedEft {
            tie,
            slack: s as f64 * 0.25,
        }),
        (arb_tie(), 0u32..40, any::<bool>()).prop_map(|(tie, c, aware)| PolicyId::SetupEft {
            tie,
            cost: c as f64 * 0.25,
            aware,
        }),
    ]
}

fn arb_spec() -> impl Strategy<Value = PolicySpec> {
    (arb_id(), arb_kernel()).prop_map(|(id, kernel)| PolicySpec { id, kernel })
}

/// The dispatcher each spec names, built outside the registry and run
/// on the shared engine: the reference loops for the EFT family, the
/// rule dispatcher for the others. The registry must never drift from
/// this.
fn direct_schedule<S: ArrivalStream, R: Recorder>(
    stream: S,
    spec: &PolicySpec,
    rec: &mut R,
) -> Schedule {
    let m = stream.machines();
    match spec.id {
        id @ (PolicyId::Random { .. } | PolicyId::Choices { .. } | PolicyId::RoundRobin) => {
            immediate_schedule(stream, &mut Dispatcher::new(m, id), rec)
        }
        id => immediate_schedule(stream, &mut Reference::new(m, id, None), rec),
    }
}

/// Test-local reference for the EFT-family start rules: every member's
/// candidate start, once per dispatch, then one `Breaker::pick` over
/// the ascending tie set. With a plan, every candidate start goes
/// through `FaultPlan::earliest_fit`.
struct Reference {
    id: PolicyId,
    plan: Option<FaultPlan>,
    breaker: Breaker,
    completions: Vec<f64>,
    /// Cluster fingerprint each machine last served (setup rules).
    last: Vec<u64>,
}

impl Reference {
    fn new(m: usize, id: PolicyId, plan: Option<FaultPlan>) -> Self {
        let tie = match id {
            PolicyId::Eft { tie }
            | PolicyId::WeightedEft { tie, .. }
            | PolicyId::SetupEft { tie, .. } => tie,
            other => panic!("{other} is not an EFT-family policy"),
        };
        Reference {
            id,
            plan,
            breaker: tie.breaker(),
            completions: vec![0.0; m],
            last: vec![u64::MAX; m],
        }
    }
}

impl ImmediateDispatcher for Reference {
    fn machine_count(&self) -> usize {
        self.completions.len()
    }

    fn machine_completions(&self) -> &[f64] {
        &self.completions
    }

    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        let fp = cluster_fingerprint(set);
        let (completions, last, plan) = (&self.completions, &self.last, &self.plan);
        let fit = |j: usize, s: f64| {
            plan.as_ref()
                .map_or(s, |p| p.earliest_fit(j, s, task.ptime))
        };
        let ready = |j: usize| task.release.max(completions[j]);
        let setup = |j: usize| match self.id {
            PolicyId::SetupEft { cost, .. } if last[j] != fp => cost,
            _ => 0.0,
        };
        // Setup-aware dispatch sees the setup; every other rule chooses
        // on the plain start.
        let aware = matches!(self.id, PolicyId::SetupEft { aware: true, .. });
        let starts: Vec<(usize, f64)> = set
            .iter()
            .map(|j| {
                (
                    j,
                    fit(j, if aware { ready(j) + setup(j) } else { ready(j) }),
                )
            })
            .collect();
        let min = starts.iter().fold(f64::INFINITY, |a, &(_, s)| a.min(s));
        // Weighted EFT takes the latest start within the weight budget;
        // the others take the earliest.
        let target = match self.id {
            PolicyId::WeightedEft { slack, .. } => {
                assert!(task.weight > 0.0, "task weights must be positive");
                let budget = min + slack / task.weight;
                starts
                    .iter()
                    .map(|&(_, s)| s)
                    .filter(|&s| s <= budget)
                    .fold(f64::NEG_INFINITY, f64::max)
            }
            _ => min,
        };
        let ties: Vec<usize> = starts
            .iter()
            .filter(|&&(_, s)| s == target)
            .map(|&(j, _)| j)
            .collect();
        let u = self.breaker.pick(&ties);
        // The oblivious variant pays the setup it did not look at.
        let start = match self.id {
            PolicyId::SetupEft { aware: false, .. } => fit(u, ready(u) + setup(u)),
            _ => target,
        };
        self.completions[u] = start + task.ptime;
        if matches!(self.id, PolicyId::SetupEft { .. }) {
            self.last[u] = fp;
        }
        Assignment::new(MachineId(u), start)
    }
}

/// A set shape the reference suite lends, so every view the kernels
/// special-case (interval, prefix, wrapping ring, explicit) reaches them.
#[derive(Debug, Clone)]
enum Shape {
    Interval(usize, usize),
    Prefix(usize),
    Ring(usize, usize),
    Explicit(Vec<usize>),
}

impl Shape {
    fn view(&self, m: usize) -> ProcSetRef<'_> {
        match self {
            Shape::Interval(lo, hi) => ProcSetRef::interval(*lo, *hi),
            Shape::Prefix(len) => ProcSetRef::prefix(*len),
            Shape::Ring(start, len) => ProcSetRef::ring(*start, *len, m),
            Shape::Explicit(members) => ProcSetRef::Explicit(members),
        }
    }
}

/// A replayable stream of shaped arrivals, with or without a structure
/// hint (so `Auto` resolves up front, or adapts live).
struct ShapedStream {
    m: usize,
    arrivals: Vec<(Task, Shape)>,
    next: usize,
    hint: Option<StructureReport>,
}

impl ShapedStream {
    /// Quantised arrivals: release gaps and processing times are
    /// multiples of 0.25, so exact ties and machines idle at 0 occur.
    fn new(m: usize, raw: &[(u32, u32, u32, u32, u64)], hinted: bool) -> Self {
        let mut release = 0.0;
        let arrivals = raw
            .iter()
            .map(|&(gap, p, w, shape, bits)| {
                release += gap as f64 * 0.25;
                let task =
                    Task::weighted(release, p as f64 * 0.25, [1.0, 2.0, 4.0, 16.0][w as usize]);
                let (a, b) = (
                    (bits % m as u64) as usize,
                    ((bits >> 20) % m as u64) as usize,
                );
                let shape = match shape {
                    0 => Shape::Interval(a.min(b), a.max(b)),
                    1 => Shape::Prefix(1 + a),
                    2 => Shape::Ring(a, 1 + b),
                    _ => Shape::Explicit(
                        (0..m)
                            .filter(|&j| j == a || (bits >> (j % 40 + 24)) & 1 == 1)
                            .collect(),
                    ),
                };
                (task, shape)
            })
            .collect();
        let mut stream = ShapedStream {
            m,
            arrivals,
            next: 0,
            hint: None,
        };
        if hinted {
            let sets: Vec<ProcSet> = stream
                .arrivals
                .iter()
                .map(|(_, shape)| ProcSet::new(shape.view(m).iter().collect()))
                .collect();
            stream.hint = Some(classify(&sets, m));
        }
        stream
    }
}

impl ArrivalStream for ShapedStream {
    fn machines(&self) -> usize {
        self.m
    }

    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        self.next += 1;
        let (task, shape) = self.arrivals.get(self.next - 1)?;
        Some((*task, shape.view(self.m)))
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.arrivals.len() - self.next)
    }

    fn structure_hint(&self) -> Option<StructureReport> {
        self.hint
    }
}

/// A random plan of outage chains: one to three exactly-touching
/// outages per group, groups joined by gaps that may be zero, dyadic
/// endpoints throughout; some machines run at half speed, and dispatch
/// decisions may arrive a quarter late.
fn chained_plan(m: usize, seed: u64) -> FaultPlan {
    let mut rng = derive_rng(seed, 0xC4A1);
    let mut plan = FaultPlan::none(m).with_latency([0.0, 0.25][rng.random_range(0..2usize)]);
    for j in 0..m {
        if rng.random_bool(0.25) {
            plan = plan.with_speed(j, 0.5);
        }
        let mut t = 0.0;
        for _ in 0..rng.random_range(0..6usize) {
            t += [0.0, 0.5, 1.0, 3.0][rng.random_range(0..4usize)];
            for _ in 0..rng.random_range(1..4usize) {
                let len = [0.25, 0.5, 1.0, 2.0][rng.random_range(0..4usize)];
                plan = plan.with_outage(j, t, t + len);
                t += len;
            }
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Contract 2: registry strings are lossless names.
    #[test]
    fn spec_round_trips_through_its_string(spec in arb_spec()) {
        let s = spec.to_string();
        let parsed: PolicySpec = s.parse()
            .unwrap_or_else(|e| panic!("`{s}` failed to re-parse: {e}"));
        prop_assert_eq!(parsed, spec, "string form `{}` was lossy", s);
    }

    /// Contract 1, sequential: schedule + trace bitwise equality with
    /// the direct construction across families × kernels × policies.
    #[test]
    fn registry_matches_direct_construction(
        spec in arb_spec(),
        family in 0usize..6,
        m in 2usize..24,
        n in 1usize..150,
        k_raw in 1usize..8,
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m;
        let kind = kind_for(family, k);

        let mut direct_rec = MemoryRecorder::with_defaults(m);
        let direct = direct_schedule(stream_for(kind, m, n, seed), &spec, &mut direct_rec);

        let mut reg_rec = MemoryRecorder::with_defaults(m);
        let registry = Run::new(spec).schedule(stream_for(kind, m, n, seed), &mut reg_rec);

        prop_assert_eq!(&direct, &registry, "{} on {:?}: schedules differ", spec, kind);
        prop_assert_eq!(
            direct_rec.trace().to_vec(),
            reg_rec.trace().to_vec(),
            "{} on {:?}: recorder traces differ", spec, kind
        );
    }

    /// Contract 1 for the EFT-family start rules at nonzero parameters:
    /// `eft`, `weft@θ`, `setup@c` and `setup-obl@c`, on every kernel
    /// and tie-break, over hinted and hint-less streams of every
    /// set shape, with and without a fault plan of touching outage
    /// chains, match the reference loops on schedule and recorder trace.
    #[test]
    fn eft_family_rules_match_references(
        (rule, param, tie) in (0usize..4, 1u32..12, arb_tie()),
        (kernel, hinted) in (arb_kernel(), any::<bool>()),
        m in prop_oneof![1usize..12, 60usize..72],
        raw in prop::collection::vec((0u32..3, 1u32..8, 0u32..4, 0u32..4, any::<u64>()), 1..140),
        faults in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
    ) {
        let param = param as f64 * 0.25;
        let id = match rule {
            0 => PolicyId::Eft { tie },
            1 => PolicyId::WeightedEft { tie, slack: param },
            2 => PolicyId::SetupEft { tie, cost: param, aware: true },
            _ => PolicyId::SetupEft { tie, cost: param, aware: false },
        };
        let spec = PolicySpec { id, kernel };
        let plan = faults.map(|seed| chained_plan(m, seed));
        let stream = || ShapedStream::new(m, &raw, hinted);

        let mut reg_rec = MemoryRecorder::with_defaults(m);
        let run = Run::new(spec);
        let registry = match &plan {
            Some(plan) => run.with_faults(plan).schedule(stream(), &mut reg_rec),
            None => run.schedule(stream(), &mut reg_rec),
        };

        let mut ref_rec = MemoryRecorder::with_defaults(m);
        let mut reference = Reference::new(m, id, plan.clone());
        let expected = match &plan {
            Some(plan) => {
                for ev in plan.events() {
                    match ev.kind {
                        FaultEventKind::Crash => ref_rec.machine_crash(ev.machine as u32, ev.at),
                        FaultEventKind::Recover => ref_rec.machine_recover(ev.machine as u32, ev.at),
                    }
                }
                immediate_schedule(FaultyStream::new(stream(), plan), &mut reference, &mut ref_rec)
            }
            None => immediate_schedule(stream(), &mut reference, &mut ref_rec),
        };

        let faulty = plan.is_some();
        prop_assert_eq!(&registry, &expected, "{} (faults: {}): schedules differ", spec, faulty);
        prop_assert_eq!(
            reg_rec.trace().to_vec(),
            ref_rec.trace().to_vec(),
            "{} (faults: {}): recorder traces differ", spec, faulty
        );
    }

    /// Contract 1, sharded: for deterministic tie-breaks the registry's
    /// sharded run (shard-local builds via `for_shard`) reproduces its
    /// own sequential run bitwise — for the new families too.
    #[test]
    fn registry_sharded_matches_sequential(
        policy in 0usize..4,
        tb_max in any::<bool>(),
        m_raw in 2usize..24,
        n in 1usize..150,
        k_raw in 1usize..8,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let k = 1 + k_raw % m_raw;
        let m = (m_raw / k).max(1) * k;
        let tie = if tb_max { TieBreak::Max } else { TieBreak::Min };
        let id = match policy {
            0 => PolicyId::Eft { tie },
            1 => PolicyId::WeightedEft { tie, slack: 2.0 },
            2 => PolicyId::SetupEft { tie, cost: 0.5, aware: true },
            _ => PolicyId::SetupEft { tie, cost: 0.5, aware: false },
        };
        let spec = PolicySpec::new(id);
        let kind = StructureKind::DisjointBlocks(k);

        let sequential =
            Run::new(spec).schedule(stream_for(kind, m, n, seed), &mut NoopRecorder);

        let stream = stream_for(kind, m, n, seed);
        let plan = stream.shard_plan(DEFAULT_MAX_SHARDS);
        let sharded = Run::new(spec)
            .sharded(&plan, &ShardedConfig::with_threads(threads))
            .schedule(stream, &mut NoopRecorder);
        prop_assert_eq!(
            &sequential, &sharded,
            "{} threads={} shards={}: sharded diverged", spec, threads, plan.shards()
        );
    }

    /// Contract 3: the frontier's zero-parameter degenerations are
    /// plain scalar EFT, bitwise, RNG draws included.
    #[test]
    fn zero_parameter_policies_reduce_to_eft(
        variant in 0usize..3,
        tie_idx in 0usize..3,
        m in 2usize..16,
        n in 1usize..120,
        seed in any::<u64>(),
    ) {
        let tie = ["min", "max", "rand@77"][tie_idx];
        let policy = match variant {
            0 => format!("weft@0:{tie}"),
            1 => format!("setup@0:{tie}"),
            _ => format!("setup-obl@0:{tie}"),
        };
        let spec: PolicySpec = policy.parse().expect("valid policy string");
        let eft: PolicySpec = format!("eft:{tie}:scalar").parse().expect("valid eft string");
        let kind = StructureKind::General;

        let frontier =
            Run::new(spec).schedule(stream_for(kind, m, n, seed), &mut NoopRecorder);
        let baseline =
            Run::new(eft).schedule(stream_for(kind, m, n, seed), &mut NoopRecorder);
        prop_assert_eq!(frontier, baseline, "{} is not scalar EFT", policy);
    }
}

/// The curated examples cover every family and survive both the
/// round-trip and a real build.
#[test]
fn examples_round_trip_and_build() {
    let examples = PolicySpec::examples();
    assert!(
        examples.len() >= 10,
        "examples() shrank: {}",
        examples.len()
    );
    for spec in examples {
        let reparsed: PolicySpec = spec.to_string().parse().expect("example must re-parse");
        assert_eq!(reparsed, spec);
        let state = spec.build(8);
        use flowsched::algos::eft::ImmediateDispatcher;
        assert_eq!(state.machine_count(), 8, "{spec}: wrong machine count");
    }
}

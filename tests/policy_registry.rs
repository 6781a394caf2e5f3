//! The policy registry's contracts, pinned (ISSUE 8):
//!
//! 1. **One construction path, zero drift**: a registry-built policy
//!    produces the *bitwise-identical* schedule and recorder trace to
//!    the directly-constructed dispatcher it names — across workload
//!    families, tie-breaks, kernels, and sequential vs sharded engines.
//! 2. **Names are total**: every [`PolicySpec`] round-trips through its
//!    registry string (`spec.to_string().parse() == spec`), for random
//!    specs and for the curated [`PolicySpec::examples`].
//! 3. **The frontier degenerates cleanly**: `weft@0` and `setup@0`
//!    (both variants) reproduce plain scalar EFT bitwise, including the
//!    tie-break RNG draws.

use proptest::prelude::*;

use flowsched::algos::engine::{immediate_schedule, Run, ShardedConfig};
use flowsched::algos::indexed::{DispatchKernel, EftKernelState};
use flowsched::algos::policies::{DispatchRule, Dispatcher};
use flowsched::algos::registry::{PolicyId, PolicySpec};
use flowsched::algos::setup::SetupEftState;
use flowsched::algos::soa::ScanImpl;
use flowsched::algos::tiebreak::TieBreak;
use flowsched::algos::weighted::WeightedEftState;
use flowsched::core::schedule::Schedule;
use flowsched::core::shard::DEFAULT_MAX_SHARDS;
use flowsched::core::stream::ArrivalStream;
use flowsched::obs::{MemoryRecorder, NoopRecorder, Recorder};
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

fn arb_scan() -> impl Strategy<Value = ScanImpl> {
    prop_oneof![Just(ScanImpl::Simd), Just(ScanImpl::Scalar)]
}

fn arb_spec() -> impl Strategy<Value = PolicySpec> {
    (arb_id(), arb_kernel(), arb_scan()).prop_map(|(id, kernel, scan)| PolicySpec {
        id,
        kernel,
        scan,
    })
}

/// The pre-registry construction path, reproduced literally: resolve
/// the kernel against the stream, build the concrete dispatcher state,
/// run the shared engine. The registry must never drift from this.
fn direct_schedule<S: ArrivalStream, R: Recorder>(
    stream: S,
    spec: &PolicySpec,
    rec: &mut R,
) -> Schedule {
    let kernel = spec.kernel.resolve_for_stream(&stream);
    let m = stream.machines();
    match spec.id {
        PolicyId::Eft { tie } => {
            let mut state = EftKernelState::with_scan(m, tie, kernel, spec.scan);
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::Random { seed } => {
            let mut state =
                Dispatcher::with_kernel(m, DispatchRule::RandomMachine { seed }, kernel);
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::Choices { d, seed } => {
            let mut state =
                Dispatcher::with_kernel(m, DispatchRule::TwoChoices { d, seed }, kernel);
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::RoundRobin => {
            let mut state = Dispatcher::with_kernel(m, DispatchRule::RoundRobin, kernel);
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::WeightedEft { tie, slack } => {
            let mut state = WeightedEftState::new(m, tie, slack);
            immediate_schedule(stream, &mut state, rec)
        }
        PolicyId::SetupEft { tie, cost, aware } => {
            let mut state = SetupEftState::new(m, tie, cost, aware);
            immediate_schedule(stream, &mut state, rec)
        }
    }
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

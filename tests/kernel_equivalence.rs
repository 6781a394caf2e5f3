//! Equivalence of the optimized solver kernels with the seed
//! implementations preserved in `flowsched::solver::reference`.
//!
//! The flat-tableau simplex (with and without a shared
//! [`SimplexScratch`]), the persistent-network max-flow prober, and the
//! warm-started offline `Fmax` search replaced allocation-heavy seed
//! kernels. These tests pin the optimized and seed paths together to
//! 1e-6 over hundreds of randomized `(weights, allowed-sets)` and LP
//! configurations — explicitly exercising the reuse/warm-start paths
//! (one scratch, one prober, one matcher carried across many solves).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, SeedableRng};

use flowsched::prelude::*;
use flowsched::solver::loadflow::{max_load_lp, max_load_lp_with, MaxLoadProber};
use flowsched::solver::reference;
use flowsched::solver::simplex::{LinearProgram, LpOutcome, Relation, SimplexScratch};

/// Random replication-like configurations: weights + one allowed set per
/// origin that always contains the origin.
fn load_configs() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
    (2usize..8).prop_flat_map(|m| {
        let weights = prop::collection::vec(1u32..100, m..=m)
            .prop_map(|v| v.into_iter().map(|x| x as f64 / 100.0).collect::<Vec<_>>());
        let masks = prop::collection::vec(0u32..(1 << m), m..=m).prop_map(move |ms| {
            ms.into_iter()
                .enumerate()
                .map(|(j, mask)| {
                    let mut set: Vec<usize> = (0..m).filter(|i| mask & (1 << i) != 0).collect();
                    if !set.contains(&j) {
                        set.push(j);
                        set.sort_unstable();
                    }
                    set
                })
                .collect::<Vec<_>>()
        });
        (weights, masks)
    })
}

/// `(coefficients, relation, rhs)` rows of a randomly drawn program.
type LpRows = Vec<(Vec<i32>, u8, i32)>;

/// Random small LPs over up to 5 variables and 6 constraints.
fn random_lps() -> impl Strategy<Value = (usize, Vec<i32>, LpRows)> {
    (
        1usize..6,
        prop::collection::vec(-4i32..6, 5..=5),
        prop::collection::vec(
            (prop::collection::vec(-5i32..6, 5), 0u8..3, -10i32..20),
            1..7,
        ),
    )
}

fn build_lp(n: usize, obj: &[i32], rows: &[(Vec<i32>, u8, i32)]) -> LinearProgram {
    let objective: Vec<f64> = obj.iter().take(n).map(|&c| c as f64).collect();
    let mut lp = LinearProgram::maximize(n, objective);
    for (coeffs, rel, rhs) in rows {
        let c: Vec<f64> = coeffs.iter().take(n).map(|&x| x as f64).collect();
        let rel = match rel {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        lp.constraint(c, rel, *rhs as f64);
    }
    lp
}

/// Outcome agreement to 1e-6 (objective and point for Optimal, same
/// variant otherwise).
fn assert_outcomes_agree(opt: &LpOutcome, seed: &LpOutcome) -> Result<(), TestCaseError> {
    match (opt, seed) {
        (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
            prop_assert!(
                (a.objective - b.objective).abs() < 1e-6,
                "objective {a_obj} vs seed {b_obj}",
                a_obj = a.objective,
                b_obj = b.objective
            );
            prop_assert_eq!(a.x.len(), b.x.len());
            for (i, (xa, xb)) in a.x.iter().zip(&b.x).enumerate() {
                prop_assert!((xa - xb).abs() < 1e-6, "x[{i}]: {xa} vs seed {xb}");
            }
        }
        (a, b) => prop_assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "outcome kind diverged: {a:?} vs seed {b:?}",
            a = a,
            b = b
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn flat_simplex_matches_seed_simplex((n, obj, rows) in random_lps()) {
        let lp = build_lp(n, &obj, &rows);
        let optimized = lp.solve();
        let seed = reference::solve_lp(&lp);
        assert_outcomes_agree(&optimized, &seed)?;
        // The scratch-reuse path must not change the result either: solve
        // an unrelated program first so the arena arrives dirty and
        // differently shaped.
        let mut scratch = SimplexScratch::new();
        let mut decoy = LinearProgram::maximize(2, vec![1.0, 2.0]);
        decoy.constraint(vec![1.0, 1.0], Relation::Le, 3.0);
        let _ = decoy.solve_with(&mut scratch);
        assert_outcomes_agree(&lp.solve_with(&mut scratch), &seed)?;
    }

    #[test]
    fn persistent_prober_matches_seed_feasibility((weights, allowed) in load_configs()) {
        // One persistent network probed at many λ (including repeats and
        // reversals) versus the seed's rebuild-per-probe oracle.
        let mut prober = MaxLoadProber::new(&weights, &allowed);
        let total: f64 = weights.iter().sum();
        let hi = weights.len() as f64 / total;
        for frac in [0.0, 0.9, 0.3, 1.0, 0.6, 0.3, 1.1, 0.99] {
            let lambda = hi * frac;
            prop_assert_eq!(
                prober.is_feasible(lambda),
                reference::load_is_feasible(&weights, &allowed, lambda),
                "λ = {lambda}",
                lambda = lambda
            );
        }
    }

    #[test]
    fn optimized_max_load_matches_seed_search((weights, allowed) in load_configs()) {
        // LP (15) through the flat simplex vs the seed rebuild-per-probe
        // bisection, and the persistent-prober bisection vs the same.
        let lp = max_load_lp(&weights, &allowed);
        let seed_bs = reference::max_load_binary_search(&weights, &allowed, 1e-9);
        prop_assert!((lp - seed_bs).abs() < 1e-6, "lp {lp} vs seed bisect {seed_bs}");
        let warm_bs = MaxLoadProber::new(&weights, &allowed).max_load(1e-9);
        prop_assert!(
            (warm_bs - seed_bs).abs() < 1e-6,
            "persistent bisect {warm_bs} vs seed bisect {seed_bs}"
        );
    }
}

/// 240 configurations sharing ONE simplex scratch across the entire
/// sweep (the Figure 10 job shape): results must be identical to
/// fresh-storage solves and within 1e-6 of the seed flow search.
#[test]
fn shared_scratch_sweep_agrees_with_seed_kernels_on_240_configs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1A7);
    let mut scratch = SimplexScratch::new();
    for trial in 0..240 {
        let m: usize = rng.random_range(2..=8);
        let weights: Vec<f64> = (0..m).map(|_| rng.random_range(0.01..1.0)).collect();
        let allowed: Vec<Vec<usize>> = (0..m)
            .map(|j| {
                let mut set: Vec<usize> = (0..m).filter(|_| rng.random_bool(0.4)).collect();
                if !set.contains(&j) {
                    set.push(j);
                    set.sort_unstable();
                }
                set
            })
            .collect();
        let reused = max_load_lp_with(&weights, &allowed, &mut scratch);
        let fresh = max_load_lp(&weights, &allowed);
        assert_eq!(
            reused, fresh,
            "trial {trial}: scratch reuse changed the result"
        );
        let seed = reference::max_load_binary_search(&weights, &allowed, 1e-9);
        assert!(
            (reused - seed).abs() < 1e-6,
            "trial {trial}: optimized {reused} vs seed {seed}"
        );
    }
}

/// 200 random unit instances: the warm-started incremental budget search
/// must return exactly the seed's binary-search optimum (budgets are
/// integers, so agreement is exact, well within 1e-6).
#[test]
fn warm_started_unit_fmax_matches_seed_binary_search_on_200_instances() {
    use flowsched::algos::offline::{optimal_unit_fmax, unit_budget_feasible};

    /// The seed search: geometric doubling + bisection, one from-scratch
    /// Hopcroft–Karp per probe via `unit_budget_feasible`.
    fn seed_optimal_unit_fmax(inst: &Instance) -> f64 {
        if inst.is_empty() {
            return 0.0;
        }
        let mut hi = 1usize;
        while !unit_budget_feasible(inst, hi) {
            hi *= 2;
            assert!(hi <= 2 * inst.len() + 2, "oracle bug");
        }
        let mut lo = hi / 2;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if unit_budget_feasible(inst, mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi as f64
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0F7A);
    for trial in 0..200 {
        let m: usize = rng.random_range(1..=5);
        let n: usize = rng.random_range(1..=25);
        let mut b = InstanceBuilder::new(m);
        for _ in 0..n {
            let r = rng.random_range(0..12) as f64;
            let lo = rng.random_range(0..m);
            let hi = rng.random_range(lo..m);
            b.push_unit(r, ProcSet::interval(lo, hi));
        }
        let inst = b.build().unwrap();
        let warm = optimal_unit_fmax(&inst);
        let seed = seed_optimal_unit_fmax(&inst);
        assert_eq!(warm, seed, "trial {trial}: warm {warm} vs seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Dispatch kernels: the indexed (lane-index) EFT state against the
// scalar linear-scan oracle.
// ---------------------------------------------------------------------------

use flowsched::algos::eft::{EftState, ImmediateDispatcher};
use flowsched::algos::engine::Run;
use flowsched::algos::indexed::DispatchKernel;
use flowsched::algos::registry::PolicySpec;
use flowsched::algos::tiebreak::TieBreak;
use flowsched::obs::MemoryRecorder;
use flowsched::workloads::random::{random_instance, RandomInstanceConfig, StructureKind};

/// The structured families of the paper (plus General, whose explicit
/// slices take the member scan on either kernel).
fn kind_for(idx: usize, k: usize) -> StructureKind {
    match idx {
        0 => StructureKind::IntervalFixed(k),
        1 => StructureKind::RingFixed(k),
        2 => StructureKind::DisjointBlocks(k),
        3 => StructureKind::InclusivePrefix,
        4 => StructureKind::InclusiveChain,
        5 => StructureKind::NestedLaminar,
        _ => StructureKind::General,
    }
}

fn tiebreak_for(idx: usize, seed: u64) -> TieBreak {
    match idx {
        0 => TieBreak::Min,
        1 => TieBreak::Max,
        _ => TieBreak::Rand { seed },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dispatch-for-dispatch equivalence: the indexed kernel must pick
    /// the same machine at the same start time as the scalar oracle on
    /// every task, across all structured families × all tie-breaks —
    /// including `Rand`, whose agreement hinges on both kernels
    /// enumerating identical tie sets (same RNG draw per dispatch).
    #[test]
    fn indexed_dispatch_matches_scalar_oracle(
        family in 0usize..7,
        tb_idx in 0usize..3,
        // Up to one level above an 8-wide bank, then the two-, three- and
        // four-level lane indexes.
        m in prop_oneof![2usize..48, 60usize..80, 500usize..530, 4090usize..4100],
        n in 1usize..160,
        k_raw in 1usize..4100,
        unit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The inclusive-chain skeleton costs O(m²) to build (seconds per
        // instance at m = 4096 in debug builds), and its explicit sets
        // take the member scan on either kernel, not the lane index.
        let m = if family == 4 { m.min(530) } else { m };
        let k = 1 + k_raw % m;
        let mut config = RandomInstanceConfig::unit_tasks(m, n, kind_for(family, k));
        config.unit = unit;
        let inst = random_instance(&config, seed);
        let tb = tiebreak_for(tb_idx, seed ^ 0x7ea5);

        let mut scalar = EftState::new(m, tb);
        let mut indexed = EftState::new(m, tb).with_kernel(DispatchKernel::Indexed);
        // The indexed side gets each set's compact view, as instance
        // streams lend it: interval and wrapping ring sets reach its
        // lane index, the rest its member scan. The scalar side scans
        // every set.
        for (id, task, set) in inst.iter() {
            let a = scalar.dispatch(task, set);
            let b = indexed.dispatch_task(task, set.compact_view(m));
            prop_assert_eq!(a, b, "task {} diverged ({:?})", id.0, tb);
        }
        prop_assert_eq!(scalar.completions(), indexed.machine_completions());

        // RNG-consumption contract: if the kernels had drawn a different
        // number of randoms (only possible under Rand), a shared tail of
        // all-machines tasks would desynchronize immediately.
        let tail_release = inst.iter().map(|(_, t, _)| t.release).fold(0.0, f64::max);
        let everyone = ProcSet::full(m);
        for _ in 0..32 {
            let task = Task::unit(tail_release);
            prop_assert_eq!(
                scalar.dispatch(task, &everyone),
                indexed.dispatch_task(task, everyone.compact_view(m)),
                "RNG streams desynchronized after the structured prefix"
            );
        }
    }
}

/// Full-pipeline equivalence: an EFT [`Run`] forced to
/// `Scalar` vs forced to `Indexed` must produce the same [`Schedule`]
/// *and* the same recorder event trace — the engine derives busy/idle
/// transitions from assignments, so identical schedules must leave
/// identical observability behind.
#[test]
fn stream_kernels_produce_identical_schedules_and_traces() {
    use flowsched::core::stream::InstanceStream;
    for (m, n, family, k) in [
        (24, 400, 0usize, 5usize),
        (24, 400, 1, 7),
        (24, 400, 2, 4),
        (24, 400, 3, 1),
        (24, 400, 4, 1),
        (24, 400, 5, 1),
        (24, 400, 6, 1),
        // Four-level lane indexes: inclusive prefixes, wide intervals and
        // wrapping rings (two ranges per pick) at the ledger's prefix_m4k
        // machine count.
        (4096, 4000, 3, 1),
        (4096, 4000, 0, 1500),
        (4096, 4000, 1, 512),
    ] {
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 42 }] {
            let mut config = RandomInstanceConfig::unit_tasks(m, n, kind_for(family, k));
            config.unit = false;
            let inst = random_instance(&config, 0xD15);

            let mut rec_scalar = MemoryRecorder::with_defaults(m);
            let scalar = Run::new(PolicySpec::eft(tb, DispatchKernel::Scalar))
                .schedule(InstanceStream::new(&inst), &mut rec_scalar);
            let mut rec_indexed = MemoryRecorder::with_defaults(m);
            let indexed = Run::new(PolicySpec::eft(tb, DispatchKernel::Indexed))
                .schedule(InstanceStream::new(&inst), &mut rec_indexed);

            assert_eq!(scalar, indexed, "family {family} {tb:?}: schedules differ");
            scalar.validate(&inst).unwrap();
            assert_eq!(
                rec_scalar.trace().to_vec(),
                rec_indexed.trace().to_vec(),
                "family {family} {tb:?}: recorder traces differ"
            );
        }
    }
}

/// `Auto` must agree with the forced scan on either side of the width
/// cut (it is a selection rule, not a third algorithm): 64-wide
/// intervals resolve to the scan, 128-wide ones to the index.
#[test]
fn auto_kernel_is_always_one_of_the_two_paths() {
    use flowsched::core::stream::InstanceStream;
    let m = 256;
    for k in [64, 128] {
        let config = RandomInstanceConfig::unit_tasks(m, 300, StructureKind::IntervalFixed(k));
        let inst = random_instance(&config, 9);
        let auto = Run::new(PolicySpec::eft(TieBreak::Min, DispatchKernel::Auto)).schedule(
            InstanceStream::new(&inst),
            &mut flowsched::obs::NoopRecorder,
        );
        let forced = Run::new(PolicySpec::eft(TieBreak::Min, DispatchKernel::Scalar)).schedule(
            InstanceStream::new(&inst),
            &mut flowsched::obs::NoopRecorder,
        );
        assert_eq!(auto, forced, "k = {k}");
    }
}

/// An explicit disjoint family — 64-wide blocks cut from a seeded
/// shuffle of 1,024 machines — lends explicit sets, which the lane index
/// cannot answer. `Auto` resolves to the member scan, a forced `Indexed`
/// kernel answers every dispatch by the scan, and all three kernels give
/// the same schedule and recorder trace.
#[test]
fn explicit_disjoint_blocks_take_the_member_scan() {
    use flowsched::core::stream::{ArrivalStream, InstanceStream};
    use flowsched::obs::Counter;
    let (m, k, n) = (1024, 64, 4000);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB10C);
    let mut order: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let blocks: Vec<ProcSet> = order.chunks(k).map(|c| ProcSet::new(c.to_vec())).collect();
    let mut b = InstanceBuilder::new(m);
    for i in 0..n {
        // 64 arrivals every 0.07 time units: load ~0.9 on 1,024 machines.
        let block = &blocks[rng.random_range(0..blocks.len())];
        b.push_unit((i / 64) as f64 * 0.07, block.clone());
    }
    let inst = b.build().unwrap();
    let hint = InstanceStream::new(&inst)
        .structure_hint()
        .expect("instance streams classify");
    assert!(hint.disjoint && !hint.interval && !hint.ring_interval);
    assert_eq!(hint.max_size, k);
    assert_eq!(
        DispatchKernel::Auto.resolve_for_stream(&InstanceStream::new(&inst)),
        DispatchKernel::Scalar
    );
    for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 0x5CA }] {
        let [scalar, auto, indexed] = [
            DispatchKernel::Scalar,
            DispatchKernel::Auto,
            DispatchKernel::Indexed,
        ]
        .map(|kernel| {
            let mut rec = MemoryRecorder::with_defaults(m);
            let schedule = Run::new(PolicySpec::eft(tb, kernel))
                .schedule(InstanceStream::new(&inst), &mut rec);
            (schedule, rec)
        });
        scalar.0.validate(&inst).unwrap();
        for (kernel, (schedule, rec)) in [("Auto", &auto), ("Indexed", &indexed)] {
            assert_eq!(*schedule, scalar.0, "{kernel} {tb:?}: schedules differ");
            assert_eq!(
                rec.trace().to_vec(),
                scalar.1.trace().to_vec(),
                "{kernel} {tb:?}: recorder traces differ"
            );
        }
        let counters = indexed.1.counters();
        assert_eq!(
            counters.get(Counter::ScalarFallbackScans),
            n as u64,
            "{tb:?}"
        );
        assert_eq!(counters.get(Counter::IndexedDescents), 0, "{tb:?}");
    }
}

/// A ring family lends its wrapping sets as compact `Ring` views, so
/// the lane index answers every dispatch: on 128-wide ring segments of
/// 256 machines `Auto` resolves to the index, which descends once per
/// task and never falls back to the member scan, and the schedule and
/// recorder trace equal the forced scan's.
#[test]
fn wrapping_ring_sets_reach_the_lane_index() {
    use flowsched::core::stream::InstanceStream;
    use flowsched::obs::Counter;
    let (m, n) = (256, 20_000);
    let inst = random_instance(
        &RandomInstanceConfig::unit_tasks(m, n, StructureKind::RingFixed(128)),
        7,
    );
    assert_eq!(
        DispatchKernel::Auto.resolve_for_stream(&InstanceStream::new(&inst)),
        DispatchKernel::Indexed
    );
    let [auto, scalar] = [DispatchKernel::Auto, DispatchKernel::Scalar].map(|kernel| {
        let mut rec = MemoryRecorder::with_defaults(m);
        let schedule = Run::new(PolicySpec::eft(TieBreak::Min, kernel))
            .schedule(InstanceStream::new(&inst), &mut rec);
        (schedule, rec)
    });
    let counters = auto.1.counters();
    assert_eq!(counters.get(Counter::IndexedDescents), n as u64);
    assert_eq!(counters.get(Counter::ScalarFallbackScans), 0);
    assert_eq!(auto.0, scalar.0, "schedules differ");
    assert_eq!(auto.1.trace().to_vec(), scalar.1.trace().to_vec());
}

/// A narrow interval family whose sets are not all one width — 3-wide
/// blocks on 256 machines, the last of which holds one machine — takes
/// the member scan, where the lane index reads about twice the scan's
/// time per task. Its widest set decides, whether the instance's
/// classification or the generator's promise reports it, and `Auto`
/// schedules as the forced index does.
#[test]
fn narrow_families_without_a_fixed_width_take_the_scan() {
    use flowsched::core::stream::InstanceStream;
    use flowsched::workloads::random::{PoissonStream, PoissonStreamConfig};
    let (m, n) = (256, 20_000);
    let kind = StructureKind::DisjointBlocks(3);
    let inst = random_instance(&RandomInstanceConfig::unit_tasks(m, n, kind), 7);
    assert_eq!(
        DispatchKernel::Auto.resolve_for_stream(&InstanceStream::new(&inst)),
        DispatchKernel::Scalar
    );
    let poisson = PoissonStream::new(&PoissonStreamConfig::unit_tasks(m, n, 200.0, kind), 7);
    assert_eq!(
        DispatchKernel::Auto.resolve_for_stream(&poisson),
        DispatchKernel::Scalar
    );
    let [auto, indexed] = [DispatchKernel::Auto, DispatchKernel::Indexed].map(|kernel| {
        Run::new(PolicySpec::eft(TieBreak::Min, kernel)).schedule(
            InstanceStream::new(&inst),
            &mut flowsched::obs::NoopRecorder,
        )
    });
    assert_eq!(auto, indexed, "schedules differ");
}

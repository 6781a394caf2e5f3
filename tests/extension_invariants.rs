//! Property tests across the extension modules: solver ladder ordering,
//! JSON round-trips, dispatch-rule feasibility, and local-search
//! dominance.

use proptest::prelude::*;

use flowsched::algos::exact::exact_fmax;
use flowsched::algos::localsearch::improve;
use flowsched::algos::offline::fmax_lower_bound;
use flowsched::algos::preemptive::optimal_preemptive_fmax;
use flowsched::algos::registry::{PolicyId, PolicySpec};
use flowsched::core::io::{
    instance_from_json, instance_to_json, schedule_from_json, schedule_to_json,
};
use flowsched::prelude::*;
use flowsched::workloads::random::{random_instance, RandomInstanceConfig, StructureKind};

fn small_instances() -> impl Strategy<Value = Instance> {
    (
        1usize..4,
        prop::collection::vec((0u32..4, 1u32..7, 0u32..16), 1..9),
    )
        .prop_map(|(m, raw)| {
            let mut b = InstanceBuilder::new(m);
            for (r, p, bits) in raw {
                let lo = bits as usize % m;
                let hi = (lo + (bits as usize / m)) % m;
                let (lo, hi) = (lo.min(hi), lo.max(hi));
                b.push(
                    Task::new(r as f64, p as f64 * 0.5),
                    ProcSet::interval(lo, hi),
                );
            }
            b.build().unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn solver_ladder_is_ordered(inst in small_instances()) {
        // LB ≤ preemptive OPT ≤ exact OPT ≤ local search ≤ EFT.
        let lb = fmax_lower_bound(&inst);
        let pre = optimal_preemptive_fmax(&inst, 1e-6);
        let exact = exact_fmax(&inst, u64::MAX);
        prop_assert!(exact.is_optimal());
        let opt = exact.value();
        let seed = eft(&inst, TieBreak::Min);
        let polished = improve(&inst, &seed, 100).fmax(&inst);
        let online = seed.fmax(&inst);
        prop_assert!(lb <= pre + 1e-4, "LB {lb} > preemptive {pre}");
        prop_assert!(pre <= opt + 1e-4, "preemptive {pre} > exact {opt}");
        prop_assert!(opt <= polished + 1e-9, "exact {opt} > polished {polished}");
        prop_assert!(polished <= online + 1e-9, "polished {polished} > EFT {online}");
    }

    #[test]
    fn instance_json_round_trips(inst in small_instances()) {
        let json = instance_to_json(&inst);
        let back = instance_from_json(&json).unwrap();
        prop_assert_eq!(back, inst);
    }

    #[test]
    fn schedule_json_round_trips(inst in small_instances()) {
        let s = eft(&inst, TieBreak::Min);
        let json = schedule_to_json(&s);
        let back = schedule_from_json(&json, &inst).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn every_dispatch_rule_is_feasible(
        inst in small_instances(),
        rule_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let rule = match rule_pick {
            0 => PolicyId::Eft { tie: TieBreak::Max },
            1 => PolicyId::Random { seed },
            2 => PolicyId::Choices { d: 2, seed },
            _ => PolicyId::RoundRobin,
        };
        let s = Run::new(PolicySpec::new(rule))
            .schedule(InstanceStream::new(&inst), &mut flowsched::obs::NoopRecorder);
        prop_assert!(s.validate(&inst).is_ok());
    }

    #[test]
    fn compose_equals_restricted_eft_on_disjoint_blocks(
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        use flowsched::algos::compose::compose_disjoint;
        let m = 2 * k.max(1);
        let cfg = RandomInstanceConfig {
            m,
            n: 4 * m,
            structure: StructureKind::DisjointBlocks(k),
            release_span: 5,
            unit: false,
            ptime_steps: 4,
        };
        let inst = random_instance(&cfg, seed);
        let composed =
            compose_disjoint(&inst, |sub| eft(sub, TieBreak::Min)).unwrap();
        prop_assert_eq!(composed, eft(&inst, TieBreak::Min));
    }
}

//! Seeded random workload generation over every structure class, for
//! property tests and benchmarks — as materialized instances
//! ([`random_instance`]) or as a constant-memory Poisson arrival stream
//! ([`PoissonStream`]).

use flowsched_core::compact::ProcSetRef;
use flowsched_core::instance::{Instance, InstanceBuilder};
use flowsched_core::procset::ProcSet;
use flowsched_core::shard::ShardPlan;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::structure::StructureReport;
use flowsched_core::task::Task;
use flowsched_stats::poisson::PoissonProcess;
use flowsched_stats::rng::derive_rng;
use rand::rngs::StdRng;
use rand::Rng;

/// Which processing-set structure the generated family follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureKind {
    /// Every task may run anywhere (`P | online-rᵢ | Fmax`).
    Unrestricted,
    /// Contiguous intervals of size `k` at random positions.
    IntervalFixed(usize),
    /// Ring (wrap-around) intervals of size `k` at random positions — the
    /// key-value-store replication shape.
    RingFixed(usize),
    /// The cluster split into fixed disjoint blocks of size `k`; each task
    /// picks one block.
    DisjointBlocks(usize),
    /// A random chain `S₁ ⊆ S₂ ⊆ … ⊆ M`; each task picks a chain element.
    InclusiveChain,
    /// Inclusive prefixes `{0, …, len−1}` with a fresh random `len` per
    /// task — the canonical inclusive shape without the `O(m²)` chain
    /// skeleton, so it scales to very large `m` (and wide sets stream as
    /// O(1) [`ProcSetRef::Prefix`] views).
    InclusivePrefix,
    /// A random laminar family; each task picks one node.
    NestedLaminar,
    /// Arbitrary random non-empty subsets.
    General,
}

/// Configuration for [`random_instance`].
#[derive(Debug, Clone)]
pub struct RandomInstanceConfig {
    /// Machine count.
    pub m: usize,
    /// Task count.
    pub n: usize,
    /// Structure family.
    pub structure: StructureKind,
    /// Releases are uniform integers in `[0, release_span]`.
    pub release_span: u64,
    /// `true` → all processing times are 1; otherwise uniform in
    /// `{0.25, 0.5, …, ptime_steps/4}`.
    pub unit: bool,
    /// Number of quarter-unit steps for non-unit processing times.
    pub ptime_steps: u32,
}

impl RandomInstanceConfig {
    /// A reasonable default: unit tasks, releases over `2n/m` steps
    /// (load ≈ m/2).
    pub fn unit_tasks(m: usize, n: usize, structure: StructureKind) -> Self {
        RandomInstanceConfig {
            m,
            n,
            structure,
            release_span: (2 * n as u64 / m.max(1) as u64).max(1),
            unit: true,
            ptime_steps: 4,
        }
    }
}

/// Generates a random instance; identical `(config, seed)` pairs produce
/// identical instances.
///
/// # Panics
/// Panics on degenerate configurations (zero machines/tasks, `k` out of
/// `1..=m`).
pub fn random_instance(config: &RandomInstanceConfig, seed: u64) -> Instance {
    assert!(config.m >= 1 && config.n >= 1, "need machines and tasks");
    let m = config.m;
    let mut rng = derive_rng(seed, 0x5EED);
    let chain = structure_skeleton(config.structure, m, &mut rng);

    let mut b = InstanceBuilder::new(m);
    for _ in 0..config.n {
        let release = rng.random_range(0..=config.release_span) as f64;
        let ptime = if config.unit {
            1.0
        } else {
            0.25 * rng.random_range(1..=config.ptime_steps.max(1)) as f64
        };
        let set = sample_set(config.structure, m, &chain, &mut rng);
        b.push(Task::new(release, ptime), set);
    }
    b.build()
        .expect("random instances are valid by construction")
}

/// Pre-builds the structured family skeleton a [`StructureKind`] samples
/// from (the chain / laminar family); empty for memoryless kinds.
fn structure_skeleton(structure: StructureKind, m: usize, rng: &mut impl Rng) -> Vec<ProcSet> {
    match structure {
        StructureKind::InclusiveChain => {
            // Random nested prefix sizes 1 ≤ s₁ < s₂ < … ≤ m over a random
            // machine order.
            let order = flowsched_stats::permutation::random_permutation(m, rng);
            let mut sizes: Vec<usize> = (1..=m).collect();
            // Keep a random subset of sizes, always including m.
            sizes.retain(|&s| s == m || rng.random_bool(0.5));
            sizes
                .iter()
                .map(|&s| ProcSet::new(order[..s].to_vec()))
                .collect()
        }
        StructureKind::NestedLaminar => laminar_family(m, rng),
        _ => Vec::new(),
    }
}

/// Samples one processing set of the given structure. `chain` is the
/// skeleton from [`structure_skeleton`] (consulted only by the chain and
/// laminar kinds). Shared by [`random_instance`] and [`PoissonStream`] so
/// both draw sets with identical per-task RNG consumption.
fn sample_set(
    structure: StructureKind,
    m: usize,
    chain: &[ProcSet],
    rng: &mut impl Rng,
) -> ProcSet {
    match structure {
        StructureKind::Unrestricted => ProcSet::full(m),
        StructureKind::IntervalFixed(k) => {
            assert!((1..=m).contains(&k), "interval size out of range");
            let lo = rng.random_range(0..=m - k);
            ProcSet::interval(lo, lo + k - 1)
        }
        StructureKind::RingFixed(k) => {
            assert!((1..=m).contains(&k), "ring size out of range");
            let start = rng.random_range(0..m);
            ProcSet::ring_interval(start, k, m)
        }
        StructureKind::DisjointBlocks(k) => {
            assert!((1..=m).contains(&k), "block size out of range");
            let blocks = m.div_ceil(k);
            let blk = rng.random_range(0..blocks);
            let lo = blk * k;
            ProcSet::interval(lo, (lo + k - 1).min(m - 1))
        }
        StructureKind::InclusivePrefix => {
            let len = rng.random_range(1..=m);
            ProcSet::interval(0, len - 1)
        }
        StructureKind::InclusiveChain | StructureKind::NestedLaminar => {
            chain[rng.random_range(0..chain.len())].clone()
        }
        StructureKind::General => {
            let mut members: Vec<usize> = (0..m).filter(|_| rng.random_bool(0.5)).collect();
            if members.is_empty() {
                members.push(rng.random_range(0..m));
            }
            ProcSet::new(members)
        }
    }
}

/// Configuration for [`PoissonStream`].
#[derive(Debug, Clone)]
pub struct PoissonStreamConfig {
    /// Machine count.
    pub m: usize,
    /// Number of tasks the stream emits before ending.
    pub n: usize,
    /// Structure family (same sampling as [`random_instance`]).
    pub structure: StructureKind,
    /// Poisson arrival rate λ (Section 7.1's release model).
    pub lambda: f64,
    /// `true` → all processing times are 1; otherwise uniform in
    /// `{0.25, 0.5, …, ptime_steps/4}`.
    pub unit: bool,
    /// Number of quarter-unit steps for non-unit processing times.
    pub ptime_steps: u32,
}

impl PoissonStreamConfig {
    /// Unit tasks at arrival rate `lambda`.
    pub fn unit_tasks(m: usize, n: usize, lambda: f64, structure: StructureKind) -> Self {
        PoissonStreamConfig {
            m,
            n,
            structure,
            lambda,
            unit: true,
            ptime_steps: 4,
        }
    }
}

/// A seeded, constant-memory [`ArrivalStream`] of random tasks: Poisson
/// releases (cumulative exponential gaps, so arrivals are natively in
/// non-decreasing order), processing times and sets drawn exactly as in
/// [`random_instance`]. Live state is the RNG, the structure skeleton
/// (`O(m)` sets at most), and one scratch set — independent of `n`, which
/// is what lets million-task runs stream through the engines without an
/// `Instance` ever existing.
///
/// Structured kinds (interval, ring, disjoint blocks, prefix,
/// unrestricted) emit compact [`ProcSetRef`] views natively — the member
/// vector is never built, so even `m`-wide sets cost O(1) per arrival.
/// The per-task RNG draws are byte-identical to `sample_set`'s, so the
/// emitted sets equal the batch generator's for the same RNG state.
#[derive(Debug, Clone)]
pub struct PoissonStream {
    m: usize,
    structure: StructureKind,
    unit: bool,
    ptime_steps: u32,
    chain: Vec<ProcSet>,
    arrivals: PoissonProcess,
    rng: StdRng,
    remaining: usize,
    scratch: ProcSet,
}

impl PoissonStream {
    /// Creates the stream; identical `(config, seed)` pairs produce
    /// identical arrival sequences.
    ///
    /// # Panics
    /// Panics on degenerate configurations (zero machines/tasks,
    /// non-positive `lambda`, `k` out of `1..=m`).
    pub fn new(config: &PoissonStreamConfig, seed: u64) -> Self {
        assert!(config.m >= 1 && config.n >= 1, "need machines and tasks");
        let mut rng = derive_rng(seed, 0x57EA);
        let chain = structure_skeleton(config.structure, config.m, &mut rng);
        PoissonStream {
            m: config.m,
            structure: config.structure,
            unit: config.unit,
            ptime_steps: config.ptime_steps,
            chain,
            arrivals: PoissonProcess::new(config.lambda),
            rng,
            remaining: config.n,
            scratch: ProcSet::full(1),
        }
    }
}

impl ArrivalStream for PoissonStream {
    fn machines(&self) -> usize {
        self.m
    }

    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Per-task draw order mirrors `random_instance`:
        // release, then ptime, then set.
        let release = self.arrivals.next_arrival(&mut self.rng);
        let ptime = if self.unit {
            1.0
        } else {
            0.25 * self.rng.random_range(1..=self.ptime_steps.max(1)) as f64
        };
        // Structured kinds describe the set compactly with the same RNG
        // draws `sample_set` would make; only the chain kinds (which lend
        // a skeleton element) and General (which needs the member vector
        // anyway) touch owned sets.
        let m = self.m;
        let set = match self.structure {
            StructureKind::Unrestricted => ProcSetRef::full(m),
            StructureKind::IntervalFixed(k) => {
                assert!((1..=m).contains(&k), "interval size out of range");
                let lo = self.rng.random_range(0..=m - k);
                ProcSetRef::interval(lo, lo + k - 1)
            }
            StructureKind::RingFixed(k) => {
                assert!((1..=m).contains(&k), "ring size out of range");
                let start = self.rng.random_range(0..m);
                ProcSetRef::ring(start, k, m)
            }
            StructureKind::DisjointBlocks(k) => {
                assert!((1..=m).contains(&k), "block size out of range");
                let blocks = m.div_ceil(k);
                let blk = self.rng.random_range(0..blocks);
                let lo = blk * k;
                ProcSetRef::interval(lo, (lo + k - 1).min(m - 1))
            }
            StructureKind::InclusivePrefix => {
                let len = self.rng.random_range(1..=m);
                ProcSetRef::prefix(len)
            }
            StructureKind::InclusiveChain | StructureKind::NestedLaminar => {
                let i = self.rng.random_range(0..self.chain.len());
                self.chain[i].compact_view(m)
            }
            StructureKind::General => {
                self.scratch = sample_set(StructureKind::General, m, &self.chain, &mut self.rng);
                self.scratch.compact_view(m)
            }
        };
        Some((Task::new(release, ptime), set))
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }

    /// Analytic structure report — the generator knows its family by
    /// construction, so no sampling or classification pass is needed
    /// (the stream is lazy; there is nothing to classify yet).
    fn structure_hint(&self) -> Option<StructureReport> {
        let m = self.m;
        let mut r = StructureReport {
            max_size: m,
            ..StructureReport::default()
        };
        match self.structure {
            StructureKind::Unrestricted => {
                r.inclusive = true;
                r.disjoint = true;
                r.nested = true;
                r.interval = true;
                r.ring_interval = true;
            }
            StructureKind::IntervalFixed(k) => {
                r.interval = true;
                r.ring_interval = true;
                r.max_size = k;
                if k == m {
                    r.inclusive = true;
                    r.disjoint = true;
                    r.nested = true;
                }
            }
            StructureKind::RingFixed(k) => {
                r.ring_interval = true;
                r.max_size = k;
                // Width-m rings degenerate to the full set; width-1 rings
                // never wrap. Either way every set is a plain interval.
                if k == m || k == 1 {
                    r.interval = true;
                }
                if k == m {
                    r.inclusive = true;
                    r.disjoint = true;
                    r.nested = true;
                }
            }
            StructureKind::DisjointBlocks(k) => {
                r.disjoint = true;
                r.nested = true;
                r.interval = true;
                r.ring_interval = true;
                // The last block is short when k ∤ m, so k bounds the
                // widths without being every set's.
                r.max_size = k;
            }
            StructureKind::InclusiveChain | StructureKind::InclusivePrefix => {
                r.inclusive = true;
                r.nested = true;
                // Prefixes are intervals anchored at 0; a random chain
                // permutes machines, so it is not interval in general.
                if matches!(self.structure, StructureKind::InclusivePrefix) {
                    r.interval = true;
                    r.ring_interval = true;
                }
            }
            StructureKind::NestedLaminar => {
                r.nested = true;
                // Laminar nodes are machine-range intervals by
                // construction ([`laminar_family`]).
                r.interval = true;
                r.ring_interval = true;
            }
            StructureKind::General => {}
        }
        Some(r)
    }

    /// [`StructureKind::DisjointBlocks`] is the one family whose sets
    /// partition the machines by construction, so it shards at the block
    /// boundaries; every other kind draws sets that may span the whole
    /// range and stays on a single shard.
    fn shard_plan(&self, max_shards: usize) -> ShardPlan {
        match self.structure {
            StructureKind::DisjointBlocks(k) => ShardPlan::blocks(self.m, k, max_shards),
            _ => ShardPlan::single(self.m),
        }
    }
}

/// A random laminar family over `m` machines: recursively split the
/// machine range, keeping each node with probability 1/2 (the root is
/// always kept so the family is non-empty).
fn laminar_family(m: usize, rng: &mut impl Rng) -> Vec<ProcSet> {
    let mut fam = vec![ProcSet::full(m)];
    split(0, m, rng, &mut fam);
    fam
}

fn split(lo: usize, hi: usize, rng: &mut impl Rng, fam: &mut Vec<ProcSet>) {
    if hi - lo <= 1 {
        return;
    }
    let mid = rng.random_range(lo + 1..hi);
    for (a, b) in [(lo, mid), (mid, hi)] {
        if rng.random_bool(0.6) {
            fam.push(ProcSet::interval(a, b - 1));
        }
        split(a, b, rng, fam);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_core::structure;

    fn gen(kind: StructureKind, seed: u64) -> Instance {
        random_instance(&RandomInstanceConfig::unit_tasks(8, 60, kind), seed)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen(StructureKind::General, 5);
        let b = gen(StructureKind::General, 5);
        assert_eq!(a, b);
        let c = gen(StructureKind::General, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn interval_structure_holds() {
        for seed in 0..10 {
            let inst = gen(StructureKind::IntervalFixed(3), seed);
            assert!(structure::is_interval_family(inst.sets()));
            assert_eq!(structure::fixed_size(inst.sets()), Some(3));
        }
    }

    #[test]
    fn ring_structure_holds() {
        for seed in 0..10 {
            let inst = gen(StructureKind::RingFixed(3), seed);
            assert!(structure::is_ring_interval_family(inst.sets(), 8));
        }
    }

    #[test]
    fn disjoint_structure_holds() {
        for seed in 0..10 {
            let inst = gen(StructureKind::DisjointBlocks(4), seed);
            assert!(structure::is_disjoint_family(inst.sets()));
        }
    }

    #[test]
    fn inclusive_structure_holds() {
        for seed in 0..10 {
            let inst = gen(StructureKind::InclusiveChain, seed);
            assert!(structure::is_inclusive(inst.sets()), "seed {seed}");
        }
    }

    #[test]
    fn inclusive_prefix_structure_holds() {
        for seed in 0..10 {
            let inst = gen(StructureKind::InclusivePrefix, seed);
            assert!(structure::is_inclusive(inst.sets()), "seed {seed}");
            for set in inst.sets() {
                assert_eq!(set.min(), Some(0), "seed {seed}: not a prefix");
                assert!(set.as_contiguous().is_some(), "seed {seed}: not a prefix");
            }
        }
    }

    #[test]
    fn nested_structure_holds() {
        for seed in 0..10 {
            let inst = gen(StructureKind::NestedLaminar, seed);
            assert!(structure::is_nested(inst.sets()), "seed {seed}");
        }
    }

    #[test]
    fn unrestricted_is_full_sets() {
        let inst = gen(StructureKind::Unrestricted, 1);
        assert!(inst.is_unrestricted());
    }

    #[test]
    fn non_unit_ptimes_are_quarter_steps() {
        let cfg = RandomInstanceConfig {
            m: 4,
            n: 50,
            structure: StructureKind::Unrestricted,
            release_span: 10,
            unit: false,
            ptime_steps: 8,
        };
        let inst = random_instance(&cfg, 3);
        for t in inst.tasks() {
            assert!(t.ptime > 0.0 && t.ptime <= 2.0);
            assert_eq!((t.ptime * 4.0).fract(), 0.0);
        }
    }

    #[test]
    fn poisson_stream_is_sorted_deterministic_and_structured() {
        use flowsched_core::stream::collect_stream;
        for kind in [
            StructureKind::Unrestricted,
            StructureKind::IntervalFixed(3),
            StructureKind::RingFixed(3),
            StructureKind::DisjointBlocks(4),
            StructureKind::InclusiveChain,
            StructureKind::InclusivePrefix,
            StructureKind::NestedLaminar,
            StructureKind::General,
        ] {
            let cfg = PoissonStreamConfig::unit_tasks(8, 200, 4.0, kind);
            let a = collect_stream(PoissonStream::new(&cfg, 11)).unwrap();
            let b = collect_stream(PoissonStream::new(&cfg, 11)).unwrap();
            assert_eq!(a, b, "{kind:?}: not deterministic per seed");
            assert_eq!(a.len(), 200);
            let releases: Vec<f64> = a.tasks().iter().map(|t| t.release).collect();
            assert!(
                releases.windows(2).all(|w| w[0] <= w[1]),
                "{kind:?}: arrivals out of order"
            );
        }
    }

    #[test]
    fn poisson_stream_draws_sets_like_random_instance() {
        // Interval sets from the stream satisfy the same structural
        // invariants the batch generator guarantees.
        let cfg = PoissonStreamConfig::unit_tasks(8, 300, 2.0, StructureKind::IntervalFixed(3));
        let inst = flowsched_core::stream::collect_stream(PoissonStream::new(&cfg, 7)).unwrap();
        assert!(structure::is_interval_family(inst.sets()));
        assert_eq!(structure::fixed_size(inst.sets()), Some(3));
        let nested = PoissonStreamConfig::unit_tasks(8, 300, 2.0, StructureKind::NestedLaminar);
        let inst = flowsched_core::stream::collect_stream(PoissonStream::new(&nested, 7)).unwrap();
        assert!(structure::is_nested(inst.sets()));
    }

    #[test]
    fn poisson_stream_len_hint_counts_down() {
        let cfg = PoissonStreamConfig::unit_tasks(4, 3, 1.0, StructureKind::Unrestricted);
        let mut s = PoissonStream::new(&cfg, 1);
        use flowsched_core::stream::ArrivalStream;
        assert_eq!(s.len_hint(), Some(3));
        s.next_arrival().unwrap();
        assert_eq!(s.len_hint(), Some(2));
        s.next_arrival().unwrap();
        s.next_arrival().unwrap();
        assert_eq!(s.len_hint(), Some(0));
        assert!(s.next_arrival().is_none());
    }

    #[test]
    fn poisson_stream_feeds_the_engine_directly() {
        use flowsched_algos::{eft_stream, TieBreak};
        use flowsched_obs::NoopRecorder;
        let cfg = PoissonStreamConfig::unit_tasks(6, 400, 3.0, StructureKind::RingFixed(3));
        let inst = flowsched_core::stream::collect_stream(PoissonStream::new(&cfg, 21)).unwrap();
        let streamed = eft_stream(
            PoissonStream::new(&cfg, 21),
            TieBreak::Min,
            &mut NoopRecorder,
        );
        let batch = flowsched_algos::eft(&inst, TieBreak::Min);
        assert_eq!(streamed, batch);
        streamed.validate(&inst).unwrap();
    }

    #[test]
    fn structure_hint_is_sound_against_the_classifier() {
        // The analytic hint may under-claim (a random draw can be
        // accidentally more structured than the family guarantees) but
        // must never over-claim: every predicate the hint asserts must
        // hold on a collected sample, and no sampled set may be wider
        // than the claimed maximum (the fixed-width kinds claim exactly
        // their width).
        for (kind, m) in [
            (StructureKind::Unrestricted, 8),
            (StructureKind::IntervalFixed(3), 8),
            (StructureKind::RingFixed(3), 8),
            (StructureKind::RingFixed(1), 8),
            (StructureKind::DisjointBlocks(4), 8),
            (StructureKind::DisjointBlocks(3), 8), // 3 ∤ 8: ragged tail
            (StructureKind::InclusiveChain, 8),
            (StructureKind::InclusivePrefix, 8),
            (StructureKind::NestedLaminar, 8),
            (StructureKind::General, 8),
        ] {
            let cfg = PoissonStreamConfig::unit_tasks(m, 300, 4.0, kind);
            let stream = PoissonStream::new(&cfg, 13);
            let hint = stream.structure_hint().expect("generator knows its family");
            let inst = flowsched_core::stream::collect_stream(stream).unwrap();
            let actual = structure::classify(inst.sets(), m);
            let claims = [
                ("inclusive", hint.inclusive, actual.inclusive),
                ("disjoint", hint.disjoint, actual.disjoint),
                ("nested", hint.nested, actual.nested),
                ("interval", hint.interval, actual.interval),
                ("ring_interval", hint.ring_interval, actual.ring_interval),
            ];
            for (name, claimed, holds) in claims {
                assert!(!claimed || holds, "{kind:?}: hint claims {name} falsely");
            }
            assert!(hint.max_size >= actual.max_size, "{kind:?}: max size");
            if matches!(
                kind,
                StructureKind::IntervalFixed(_)
                    | StructureKind::RingFixed(_)
                    | StructureKind::DisjointBlocks(_)
            ) {
                assert_eq!(hint.max_size, actual.max_size, "{kind:?}: max size");
            }
        }
    }

    #[test]
    fn shard_plan_splits_disjoint_blocks_only() {
        let blocks = PoissonStreamConfig::unit_tasks(16, 10, 4.0, StructureKind::DisjointBlocks(4));
        let plan = PoissonStream::new(&blocks, 1).shard_plan(16);
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.len_of(0), 4);
        for kind in [
            StructureKind::Unrestricted,
            StructureKind::IntervalFixed(4),
            StructureKind::RingFixed(4),
            StructureKind::General,
        ] {
            let cfg = PoissonStreamConfig::unit_tasks(16, 10, 4.0, kind);
            assert!(
                PoissonStream::new(&cfg, 1).shard_plan(16).is_single(),
                "{kind:?} must not shard"
            );
        }
    }

    #[test]
    fn instances_are_schedulable_by_eft() {
        use flowsched_algos::{eft, TieBreak};
        for kind in [
            StructureKind::Unrestricted,
            StructureKind::IntervalFixed(2),
            StructureKind::RingFixed(3),
            StructureKind::DisjointBlocks(2),
            StructureKind::InclusiveChain,
            StructureKind::InclusivePrefix,
            StructureKind::NestedLaminar,
            StructureKind::General,
        ] {
            let inst = gen(kind, 9);
            let s = eft(&inst, TieBreak::Min);
            s.validate(&inst).unwrap();
        }
    }
}

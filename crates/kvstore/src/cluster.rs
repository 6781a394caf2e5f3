//! A replicated cluster generating scheduling instances (Section 7.4's
//! workload: unit tasks, Poisson(λ) arrivals, popularity-biased owners,
//! replica processing sets).

use flowsched_core::instance::{Instance, InstanceBuilder};
use flowsched_core::task::Task;
use flowsched_stats::poisson::PoissonProcess;
use flowsched_stats::service::ServiceDist;
use flowsched_stats::zipf::{BiasCase, Zipf};
use rand::Rng;

use crate::replication::ReplicationStrategy;

/// Static description of a simulated key-value cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Machine count (the paper uses `m = 15`).
    pub m: usize,
    /// Replication factor (the paper's realistic default is `k = 3`).
    pub k: usize,
    /// Replication strategy.
    pub strategy: ReplicationStrategy,
    /// Zipf shape `s` of the popularity bias.
    pub s: f64,
    /// Bias case (Uniform / Worst-case / Shuffled).
    pub case: BiasCase,
}

/// A cluster with a materialized popularity distribution, ready to
/// generate request streams.
#[derive(Debug, Clone)]
pub struct KvCluster {
    config: ClusterConfig,
    popularity: Zipf,
}

impl KvCluster {
    /// Materializes the cluster; `Shuffled` popularity consumes `rng`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ m` and `m ≥ 1`.
    pub fn new(config: ClusterConfig, rng: &mut impl Rng) -> Self {
        assert!(config.m >= 1, "need machines");
        assert!(
            config.k >= 1 && config.k <= config.m,
            "replication factor must be in 1..=m"
        );
        let popularity = Zipf::bias_case(config.m, config.s, config.case, rng);
        KvCluster { config, popularity }
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Machine-level popularity `P(Eⱼ)`.
    pub fn popularity(&self) -> &Zipf {
        &self.popularity
    }

    /// The replica sets as plain lists (for the max-load solvers).
    pub fn allowed_sets(&self) -> Vec<Vec<usize>> {
        self.config
            .strategy
            .allowed_sets(self.config.k, self.config.m)
    }

    /// Generates `n` unit-task requests arriving as a Poisson process of
    /// rate `lambda`: each request samples an owner machine from the
    /// popularity distribution and is eligible on the owner's replica set.
    ///
    /// `lambda / m` is the average cluster load (1.0 = 100%).
    pub fn requests(&self, n: usize, lambda: f64, rng: &mut impl Rng) -> Instance {
        self.requests_with_service(n, lambda, ServiceDist::unit(), rng)
    }

    /// Like [`requests`](Self::requests) but with service times drawn
    /// from `dist` — real stores serve requests of varying size ("requests
    /// vary in size", Section 1). With `dist.mean() = 1`,
    /// `lambda / m` remains the average cluster load.
    pub fn requests_with_service(
        &self,
        n: usize,
        lambda: f64,
        dist: ServiceDist,
        rng: &mut impl Rng,
    ) -> Instance {
        let mut arrivals = PoissonProcess::new(lambda);
        let mut b = InstanceBuilder::new(self.config.m);
        for _ in 0..n {
            let t = arrivals.next_arrival(rng);
            let owner = self.popularity.sample(rng);
            let set = self
                .config
                .strategy
                .replica_set(owner, self.config.k, self.config.m);
            b.push(Task::new(t, dist.sample(rng)), set);
        }
        b.build().expect("generated requests are a valid instance")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_core::structure;
    use flowsched_stats::rng::seeded_rng;

    fn cluster(strategy: ReplicationStrategy, case: BiasCase) -> KvCluster {
        let mut rng = seeded_rng(1);
        KvCluster::new(
            ClusterConfig {
                m: 15,
                k: 3,
                strategy,
                s: 1.0,
                case,
            },
            &mut rng,
        )
    }

    #[test]
    fn requests_form_valid_unit_instances() {
        let c = cluster(ReplicationStrategy::Overlapping, BiasCase::Shuffled);
        let mut rng = seeded_rng(2);
        let inst = c.requests(500, 10.0, &mut rng);
        assert_eq!(inst.len(), 500);
        assert!(inst.is_unit());
        assert_eq!(inst.machines(), 15);
        // Arrivals strictly increasing with probability 1.
        for w in inst.tasks().windows(2) {
            assert!(w[0].release < w[1].release);
        }
    }

    #[test]
    fn overlapping_requests_are_ring_intervals() {
        let c = cluster(ReplicationStrategy::Overlapping, BiasCase::Uniform);
        let mut rng = seeded_rng(3);
        let inst = c.requests(200, 5.0, &mut rng);
        assert!(structure::is_ring_interval_family(inst.sets(), 15));
        assert_eq!(structure::fixed_size(inst.sets()), Some(3));
    }

    #[test]
    fn disjoint_requests_are_disjoint_blocks() {
        let c = cluster(ReplicationStrategy::Disjoint, BiasCase::Uniform);
        let mut rng = seeded_rng(4);
        let inst = c.requests(200, 5.0, &mut rng);
        assert!(structure::is_disjoint_family(inst.sets()));
    }

    #[test]
    fn arrival_rate_matches_lambda() {
        let c = cluster(ReplicationStrategy::Overlapping, BiasCase::Uniform);
        let mut rng = seeded_rng(5);
        let inst = c.requests(20_000, 10.0, &mut rng);
        let span = inst.horizon();
        let rate = inst.len() as f64 / span;
        assert!((rate - 10.0).abs() < 0.5, "empirical rate {rate}");
    }

    #[test]
    fn reproducible_per_seed() {
        let c = cluster(ReplicationStrategy::Disjoint, BiasCase::Shuffled);
        let mut r1 = seeded_rng(6);
        let mut r2 = seeded_rng(6);
        assert_eq!(c.requests(100, 3.0, &mut r1), c.requests(100, 3.0, &mut r2));
    }

    #[test]
    fn service_distribution_drives_processing_times() {
        let c = cluster(ReplicationStrategy::Overlapping, BiasCase::Uniform);
        let mut rng = seeded_rng(8);
        let inst = c.requests_with_service(2000, 5.0, ServiceDist::mice_and_elephants(), &mut rng);
        assert!(!inst.is_unit());
        let mean_p = inst.total_work() / inst.len() as f64;
        assert!((mean_p - 1.0).abs() < 0.1, "mean service {mean_p}");
        // Only the two modal values appear.
        for t in inst.tasks() {
            assert!(t.ptime == 0.5 || t.ptime == 5.5, "{}", t.ptime);
        }
    }

    #[test]
    fn single_machine_cluster_works() {
        let mut rng = seeded_rng(9);
        let c = KvCluster::new(
            ClusterConfig {
                m: 1,
                k: 1,
                strategy: ReplicationStrategy::Disjoint,
                s: 2.0,
                case: BiasCase::WorstCase,
            },
            &mut rng,
        );
        let inst = c.requests(50, 0.5, &mut rng);
        assert_eq!(inst.machines(), 1);
        for set in inst.sets() {
            assert_eq!(set.len(), 1);
        }
    }

    #[test]
    fn extreme_bias_concentrates_owners() {
        let mut rng = seeded_rng(10);
        let c = KvCluster::new(
            ClusterConfig {
                m: 10,
                k: 2,
                strategy: ReplicationStrategy::Overlapping,
                s: 6.0,
                case: BiasCase::WorstCase,
            },
            &mut rng,
        );
        let inst = c.requests(2000, 5.0, &mut rng);
        // With s = 6 nearly every request targets owner 0's replica set
        // {M1, M2}.
        let hot = inst
            .sets()
            .iter()
            .filter(|s| s.as_slice() == [0, 1])
            .count();
        assert!(
            hot as f64 > 0.95 * inst.len() as f64,
            "hot fraction {hot}/2000"
        );
    }

    #[test]
    #[should_panic(expected = "1..=m")]
    fn oversized_replication_rejected() {
        let mut rng = seeded_rng(7);
        let _ = KvCluster::new(
            ClusterConfig {
                m: 3,
                k: 5,
                strategy: ReplicationStrategy::Overlapping,
                s: 0.0,
                case: BiasCase::Uniform,
            },
            &mut rng,
        );
    }
}

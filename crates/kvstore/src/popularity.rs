//! Machine-level popularity and load distributions (Sections 7.1, Fig. 8).

use flowsched_stats::zipf::{BiasCase, Zipf};
use rand::Rng;

/// Builds the machine popularity `P(Eⱼ)` for one of the paper's bias
/// cases (`Shuffled` consumes randomness for the permutation).
pub fn machine_popularity(m: usize, s: f64, case: BiasCase, rng: &mut impl Rng) -> Zipf {
    Zipf::bias_case(m, s, case, rng)
}

/// The load distribution of Figure 8: `λ·P(Eⱼ)` per machine. Values above
/// 1.0 mean the machine saturates without replication.
pub fn load_distribution(lambda: f64, popularity: &Zipf) -> Vec<f64> {
    popularity.probs().iter().map(|&p| lambda * p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_stats::rng::seeded_rng;

    #[test]
    fn uniform_case_loads_are_flat() {
        let mut rng = seeded_rng(1);
        let pop = machine_popularity(6, 1.0, BiasCase::Uniform, &mut rng);
        let loads = load_distribution(6.0, &pop);
        for &l in &loads {
            assert!(
                (l - 1.0).abs() < 1e-12,
                "expected 100% per machine, got {l}"
            );
        }
    }

    #[test]
    fn worst_case_loads_decrease() {
        let mut rng = seeded_rng(2);
        let pop = machine_popularity(6, 1.0, BiasCase::WorstCase, &mut rng);
        let loads = load_distribution(6.0, &pop);
        for w in loads.windows(2) {
            assert!(w[0] > w[1]);
        }
        // Figure 8b: with s = 1, λ = m = 6, the hottest machine exceeds
        // 100% load (≈ 2.45 for m = 6).
        assert!(loads[0] > 1.0);
    }

    #[test]
    fn shuffled_case_is_a_permutation_of_worst_case() {
        let mut rng = seeded_rng(3);
        let worst = machine_popularity(6, 1.0, BiasCase::WorstCase, &mut rng);
        let shuffled = machine_popularity(6, 1.0, BiasCase::Shuffled, &mut rng);
        let mut a: Vec<f64> = worst.probs().to_vec();
        let mut b: Vec<f64> = shuffled.probs().to_vec();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}

//! Tie-break policies for EFT and FIFO.
//!
//! When several machines can finish a task at the same earliest time
//! (the tie set `Uᵢ` of the paper's Equation (1)/(2)), a policy picks one.
//! The choice matters enormously under interval restrictions: the paper's
//! Theorem 8 lower bound (`m − k + 1`) is driven by EFT-Min's preference
//! for low indices, Theorem 9 extends it to any randomized policy that
//! never systematically discards a candidate, and Figure 11 shows
//! EFT-Max beating EFT-Min under worst-case popularity bias.

use flowsched_stats::rng::derive_rng;
use rand::rngs::StdRng;
use rand::Rng;

/// A tie-break policy (declarative form, used in public APIs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Choose the candidate with the smallest index (EFT-Min,
    /// Algorithm 3).
    Min,
    /// Choose the candidate with the largest index (EFT-Max).
    Max,
    /// Choose uniformly at random among candidates (EFT-Rand,
    /// Algorithm 4), seeded for reproducibility.
    Rand {
        /// Seed of the policy's private random stream.
        seed: u64,
    },
}

impl TieBreak {
    /// Instantiates the stateful breaker.
    pub fn breaker(self) -> Breaker {
        match self {
            TieBreak::Min => Breaker::Min,
            TieBreak::Max => Breaker::Max,
            TieBreak::Rand { seed } => Breaker::Rand(Box::new(derive_rng(seed, 0xBEEF))),
        }
    }

    /// The policy a sharded engine's shard `s` dispatcher runs.
    ///
    /// `Min`/`Max` are stateless and pass through. `Rand` keeps its seed
    /// on shard 0 — so a single-shard sharded run consumes the *same*
    /// random stream as a sequential run and reproduces it exactly — and
    /// mixes the shard index into the seed elsewhere, giving every shard
    /// an independent stream that depends only on `(seed, s)`, never on
    /// thread count. (A multi-shard `Rand` run therefore differs from
    /// the sequential schedule — the sequential engine draws one global
    /// stream across shards — but is itself fully deterministic and
    /// thread-count invariant.)
    pub fn for_shard(self, shard: usize) -> TieBreak {
        match self {
            TieBreak::Rand { seed } => TieBreak::Rand {
                seed: shard_seed(seed, shard),
            },
            other => other,
        }
    }
}

/// The seed shard `shard` of a sharded run draws from: shard 0 keeps
/// `seed`, the others XOR in the shard index times SplitMix64's
/// golden-ratio increment, which decorrelates consecutive indices.
/// Every seeded policy derives its shard-local seed here.
pub(crate) fn shard_seed(seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        seed
    } else {
        seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl std::fmt::Display for TieBreak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TieBreak::Min => write!(f, "EFT-Min"),
            TieBreak::Max => write!(f, "EFT-Max"),
            TieBreak::Rand { .. } => write!(f, "EFT-Rand"),
        }
    }
}

/// Stateful tie breaker. `Rand` owns its RNG so repeated runs with the
/// same seed reproduce exactly.
#[derive(Debug)]
pub enum Breaker {
    /// Smallest index.
    Min,
    /// Largest index.
    Max,
    /// Uniform among candidates.
    Rand(Box<StdRng>),
}

impl Breaker {
    /// Picks one machine among the (non-empty, strictly increasing)
    /// candidate indices.
    ///
    /// # Panics
    /// Panics on an empty candidate set.
    pub fn pick(&mut self, candidates: &[usize]) -> usize {
        assert!(
            !candidates.is_empty(),
            "tie-break requires at least one candidate"
        );
        match self {
            Breaker::Min => candidates[0],
            Breaker::Max => *candidates.last().unwrap(),
            Breaker::Rand(rng) => candidates[rng.random_range(0..candidates.len())],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_picks_first() {
        let mut b = TieBreak::Min.breaker();
        assert_eq!(b.pick(&[2, 5, 9]), 2);
    }

    #[test]
    fn max_picks_last() {
        let mut b = TieBreak::Max.breaker();
        assert_eq!(b.pick(&[2, 5, 9]), 9);
    }

    #[test]
    fn rand_is_reproducible() {
        let mut a = TieBreak::Rand { seed: 7 }.breaker();
        let mut b = TieBreak::Rand { seed: 7 }.breaker();
        for _ in 0..50 {
            assert_eq!(a.pick(&[0, 1, 2, 3]), b.pick(&[0, 1, 2, 3]));
        }
    }

    #[test]
    fn rand_covers_all_candidates() {
        // Theorem 9's hypothesis: no candidate is systematically
        // discarded — every machine must be picked with positive
        // probability.
        let mut b = TieBreak::Rand { seed: 3 }.breaker();
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[b.pick(&[0, 1, 2, 3])] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "some candidate never chosen: {seen:?}"
        );
    }

    #[test]
    fn singleton_candidate_is_forced() {
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 1 }] {
            assert_eq!(tb.breaker().pick(&[4]), 4);
        }
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_rejected() {
        TieBreak::Min.breaker().pick(&[]);
    }

    #[test]
    fn for_shard_keeps_shard_zero_and_decorrelates_the_rest() {
        assert_eq!(TieBreak::Min.for_shard(3), TieBreak::Min);
        assert_eq!(TieBreak::Max.for_shard(1), TieBreak::Max);
        let base = TieBreak::Rand { seed: 42 };
        assert_eq!(base.for_shard(0), base);
        let one = base.for_shard(1);
        let two = base.for_shard(2);
        assert_ne!(one, base);
        assert_ne!(one, two);
        // Deterministic: same (seed, shard) → same derived policy.
        assert_eq!(base.for_shard(1), one);
    }

    #[test]
    fn display_names() {
        assert_eq!(TieBreak::Min.to_string(), "EFT-Min");
        assert_eq!(TieBreak::Max.to_string(), "EFT-Max");
        assert_eq!(TieBreak::Rand { seed: 0 }.to_string(), "EFT-Rand");
    }
}

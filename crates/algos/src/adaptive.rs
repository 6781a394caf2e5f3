//! Live kernel re-resolution for [`DispatchKernel::Auto`].
//!
//! When a stream carries a
//! [`structure_hint`](flowsched_core::stream::ArrivalStream::structure_hint),
//! `Auto` resolves once, up front. On hint-less streams the EFT core
//! replaces a blind machine-count guess with measurement: an incremental
//! [`StructureClassifier`] folds every observed [`ProcSetRef`] into a
//! running classification, and after a warmup window
//! ([`ADAPTIVE_WARMUP_ARRIVALS`]) — and again on every later
//! classification change — the kernel is re-resolved through
//! [`DispatchKernel::for_structure`]. The core then switches its kernel
//! in place: it builds the lane index's levels over its completion
//! bank, or drops them and the cluster cache.
//!
//! **Why mid-stream switches are bitwise-transparent.** Both kernels
//! compute the identical tie set for any completion state and arrival
//! (pinned by `tests/kernel_equivalence.rs` and the mixed-shape oracle
//! tests), and a switch keeps the bank, the
//! [`Breaker`](crate::tiebreak::Breaker) — *including its RNG state* —
//! and the counters, rebuilding only derived index structures. The
//! dispatch sequence after a switch is indistinguishable from never
//! having switched; `tests/simd_scan.rs` pins this end to end across
//! families and tie-breaks.
//!
//! Settling: flags in the classifier only ever fall, so once the family
//! is unstructured (every pairwise and shape predicate false) the
//! resolution can never leave `Scalar` again — the classifier stops
//! observing and the core runs at raw scan cost. Below
//! `AUTO_INDEXED_MIN_MACHINES`, where `for_structure` returns `Scalar`
//! regardless of structure, the core settles on the scan at
//! construction and builds no classifier at all. A *structured* verdict
//! is deliberately not absorbing: `fixed_size` can move `Some(k) → None`
//! when a second width appears, flipping a too-narrow-for-the-tree
//! verdict back to `Indexed`, so upgrades after warmup stay possible.

use flowsched_core::compact::ProcSetRef;
use flowsched_core::structure::StructureClassifier;

use crate::indexed::DispatchKernel;

/// Arrivals observed before the first structure-based re-resolution.
/// Long enough for the classifier to see the family's palette of sets,
/// short enough that a 1M-task stream spends <0.01% of its arrivals on
/// the pre-verdict kernel.
pub const ADAPTIVE_WARMUP_ARRIVALS: u64 = 64;

/// `Auto`'s live classification of the arriving sets, owned by the EFT
/// core while its verdict can still change.
#[derive(Debug)]
pub(crate) struct Reclassifier {
    m: usize,
    classifier: StructureClassifier,
    /// Classifier revision at the last re-resolution.
    last_revision: u64,
    /// True once the resolution can provably never change again.
    settled: bool,
    /// Mid-stream kernel switches asked for so far.
    pub(crate) switches: u32,
}

impl Reclassifier {
    /// A fresh classifier for `m` machines.
    pub(crate) fn new(m: usize) -> Self {
        Reclassifier {
            m,
            classifier: StructureClassifier::new(m),
            last_revision: 0,
            settled: false,
            switches: 0,
        }
    }

    /// Folds `set` into the classification. At warmup and on every later
    /// classification change it re-resolves the kernel, and returns the
    /// verdict when it differs from the core's `current` kernel.
    pub(crate) fn observe(
        &mut self,
        set: ProcSetRef<'_>,
        current: DispatchKernel,
    ) -> Option<DispatchKernel> {
        if self.settled {
            return None;
        }
        self.classifier.observe(set);
        let n = self.classifier.arrivals();
        let due = n == ADAPTIVE_WARMUP_ARRIVALS
            || (n > ADAPTIVE_WARMUP_ARRIVALS && self.classifier.revision() != self.last_revision);
        if !due {
            return None;
        }
        let report = self.classifier.report();
        self.last_revision = self.classifier.revision();
        // Unstructured is absorbing (flags only fall), so a Scalar
        // verdict with no surviving structure can never flip back —
        // stop observing. A structured-but-narrow Scalar verdict stays
        // live: fixed_size may widen to None and re-enable the index.
        self.settled = !(report.interval
            || report.ring_interval
            || report.inclusive
            || report.nested
            || report.disjoint);
        let verdict = DispatchKernel::for_structure(&report, self.m);
        (verdict != current).then(|| {
            self.switches += 1;
            verdict
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eft::EftState;
    use crate::tiebreak::TieBreak;
    use flowsched_core::task::Task;

    /// Interval prefix (classifier sees structure), then scattered
    /// two-member sets that break every predicate.
    fn mixed_stream_sets(m: usize, n: usize) -> Vec<(Task, Vec<usize>)> {
        let mut out = Vec::new();
        for i in 0..n {
            let release = i as f64 * 0.125;
            let task = Task::new(release, 0.5 + (i % 3) as f64 * 0.25);
            let set: Vec<usize> = if i < n / 2 {
                let lo = (i * 7) % (m / 2);
                (lo..lo + m / 4).collect()
            } else {
                let a = (i * 13) % m;
                let b = (a + m / 3) % m;
                let mut s = vec![a.min(b), a.max(b)];
                s.dedup();
                s
            };
            out.push((task, set));
        }
        out
    }

    #[test]
    fn adaptive_matches_forced_kernels_and_actually_switches() {
        let m = 128;
        let sets = mixed_stream_sets(m, 400);
        for tb in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 77 }] {
            let mut adaptive = EftState::new(m, tb).with_kernel(DispatchKernel::Auto);
            let mut scalar = EftState::new(m, tb);
            let mut indexed = EftState::new(m, tb).with_kernel(DispatchKernel::Indexed);
            for (i, (task, set)) in sets.iter().enumerate() {
                let view = ProcSetRef::Explicit(set);
                let a = adaptive.dispatch_ref(*task, view);
                assert_eq!(a, scalar.dispatch_ref(*task, view), "{tb:?} scalar @{i}");
                assert_eq!(a, indexed.dispatch_ref(*task, view), "{tb:?} indexed @{i}");
            }
            // The structured prefix keeps the index through warmup; the
            // scattered tail must have forced a downgrade to Scalar.
            assert!(adaptive.switches() > 0, "{tb:?}: no mid-stream switch");
            assert_eq!(adaptive.kernel(), DispatchKernel::Scalar, "{tb:?}");
        }
    }

    #[test]
    fn small_machine_counts_settle_to_scalar_immediately() {
        let mut s = EftState::new(4, TieBreak::Min).with_kernel(DispatchKernel::Auto);
        assert_eq!(s.kernel(), DispatchKernel::Scalar);
        for i in 0..200 {
            s.dispatch_ref(Task::unit(i as f64 * 0.1), ProcSetRef::prefix(4));
        }
        assert_eq!(s.switches(), 0);
        assert_eq!(s.kernel_stats(), None, "the scan never counts");
    }

    #[test]
    fn structured_streams_keep_the_index_and_report_stats() {
        let m = 256;
        let mut s = EftState::new(m, TieBreak::Min).with_kernel(DispatchKernel::Auto);
        for i in 0..300 {
            let lo = (i * 11) % (m / 2);
            s.dispatch_ref(
                Task::unit(i as f64 * 0.05),
                ProcSetRef::interval(lo, lo + m / 2 - 1),
            );
        }
        assert_eq!(s.kernel(), DispatchKernel::Indexed);
        assert_eq!(s.switches(), 0);
        let stats = s.kernel_stats().expect("indexed core reports stats");
        assert_eq!(stats.indexed_descents, 300);
    }

    #[test]
    fn unstructured_families_settle_and_stop_observing() {
        let m = 96;
        let mut auto = Reclassifier::new(m);
        let mut kernel = DispatchKernel::Indexed;
        for i in 0..ADAPTIVE_WARMUP_ARRIVALS as usize + 10 {
            let (a, b) = ((i * 13) % m, (i * 13 + m / 3) % m);
            let set = [a.min(b), a.max(b)];
            if let Some(k) = auto.observe(ProcSetRef::Explicit(&set), kernel) {
                kernel = k;
            }
        }
        assert_eq!(kernel, DispatchKernel::Scalar);
        assert!(auto.settled);
        let seen = auto.classifier.arrivals();
        auto.observe(ProcSetRef::prefix(m), kernel);
        assert_eq!(
            auto.classifier.arrivals(),
            seen,
            "settled state must not observe"
        );
    }
}

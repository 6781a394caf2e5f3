//! Live kernel re-resolution for [`DispatchKernel::Auto`].
//!
//! When a stream carries a
//! [`structure_hint`](flowsched_core::stream::ArrivalStream::structure_hint),
//! `Auto` resolves once, up front. Hint-less streams used to fall back
//! to a blind machine-count rule; [`AdaptiveEftState`] replaces that
//! guess with measurement: an incremental
//! [`StructureClassifier`] folds every observed
//! [`ProcSetRef`] into a running classification, and after a warmup
//! window ([`ADAPTIVE_WARMUP_ARRIVALS`]) — and again on every later
//! classification change — the kernel is re-resolved through
//! [`DispatchKernel::for_structure`], switching the live core between
//! the scalar and the indexed kernel mid-stream.
//!
//! **Why mid-stream switches are bitwise-transparent.** Both cores
//! implement the identical dispatch function: for any completion state
//! and arrival they produce the same assignment and consume the same
//! number of RNG draws (pinned by `tests/kernel_equivalence.rs` and the
//! mixed-shape oracle tests). A switch moves the completion bank and
//! the [`Breaker`](crate::tiebreak::Breaker) — *including its RNG
//! state* — into the other core and rebuilds only derived index
//! structures, so the dispatch sequence after a switch is
//! indistinguishable from never having switched.
//! `tests/simd_scan.rs` pins this end to end across families and
//! tie-breaks.
//!
//! Settling: flags in the classifier only ever fall, so once the family
//! is unstructured (every pairwise and shape predicate false) the
//! resolution can never leave `Scalar` again — the wrapper stops
//! observing entirely and runs at raw scalar-kernel cost. The same
//! applies from the start when `m < AUTO_INDEXED_MIN_MACHINES`, where
//! `for_structure` returns `Scalar` regardless of structure. A
//! *structured* verdict is deliberately not absorbing: `fixed_size` can
//! move `Some(k) → None` when a second width appears, flipping a
//! too-narrow-for-the-tree verdict back to `Indexed`, so upgrades after
//! warmup stay possible.

use flowsched_core::compact::ProcSetRef;
use flowsched_core::schedule::Assignment;
use flowsched_core::structure::StructureClassifier;
use flowsched_core::task::Task;
use flowsched_core::time::Time;

use crate::eft::{EftState, ImmediateDispatcher};
use crate::indexed::{DispatchKernel, IndexedEftState, KernelStats, AUTO_INDEXED_MIN_MACHINES};
use crate::soa::ScanImpl;
use crate::tiebreak::TieBreak;

/// Arrivals observed before the first structure-based re-resolution.
/// Long enough for the classifier to see the family's palette of sets,
/// short enough that a 1M-task stream spends <0.01% of its arrivals on
/// the pre-verdict kernel.
pub const ADAPTIVE_WARMUP_ARRIVALS: u64 = 64;

/// The live dispatch core — a two-variant mirror of the non-adaptive
/// [`EftKernelState`](crate::indexed::EftKernelState) arms.
#[derive(Debug)]
enum Core {
    Scalar(EftState),
    Indexed(IndexedEftState),
}

/// An EFT dispatcher that re-resolves its kernel from live structure
/// classification — what [`DispatchKernel::Auto`] builds when no stream
/// hint settled the choice up front.
#[derive(Debug)]
pub struct AdaptiveEftState {
    m: usize,
    core: Core,
    classifier: StructureClassifier,
    /// Classifier revision at the last re-resolution.
    last_revision: u64,
    /// True once the resolution can provably never change again.
    settled: bool,
    scan: ScanImpl,
    /// Mid-stream kernel switches performed so far.
    switches: u32,
    /// Counters inherited from retired indexed cores.
    retired_stats: KernelStats,
}

impl AdaptiveEftState {
    /// Fresh adaptive state for `m` idle machines, on the default
    /// (SIMD) tie scan.
    pub fn new(m: usize, policy: TieBreak) -> Self {
        AdaptiveEftState::with_scan(m, policy, ScanImpl::default())
    }

    /// Fresh adaptive state with the tie-scan implementation forced.
    pub fn with_scan(m: usize, policy: TieBreak, scan: ScanImpl) -> Self {
        // The initial core follows the machine-count rule; below the
        // auto threshold the verdict is Scalar for every structure, so
        // the wrapper settles immediately and never pays for observing.
        let small = m < AUTO_INDEXED_MIN_MACHINES;
        let core = if small {
            Core::Scalar(EftState::with_scan(m, policy, scan))
        } else {
            Core::Indexed(IndexedEftState::with_scan(m, policy, scan))
        };
        AdaptiveEftState {
            m,
            core,
            classifier: StructureClassifier::new(m),
            last_revision: 0,
            settled: small,
            scan,
            switches: 0,
            retired_stats: KernelStats::default(),
        }
    }

    /// The kernel the live core currently runs.
    pub fn current_kernel(&self) -> DispatchKernel {
        match self.core {
            Core::Scalar(_) => DispatchKernel::Scalar,
            Core::Indexed(_) => DispatchKernel::Indexed,
        }
    }

    /// Mid-stream kernel switches performed so far.
    pub fn switches(&self) -> u32 {
        self.switches
    }

    /// Current completion time of each machine.
    pub fn completions(&self) -> &[Time] {
        match &self.core {
            Core::Scalar(s) => s.completions(),
            Core::Indexed(s) => s.completions(),
        }
    }

    /// Dispatches one task, folding its set into the classifier and
    /// re-resolving the kernel at warmup and on classification changes.
    pub fn dispatch_ref(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        if !self.settled {
            self.classifier.observe(set);
            let n = self.classifier.arrivals();
            let due = n == ADAPTIVE_WARMUP_ARRIVALS
                || (n > ADAPTIVE_WARMUP_ARRIVALS
                    && self.classifier.revision() != self.last_revision);
            if due {
                self.re_resolve();
            }
        }
        match &mut self.core {
            Core::Scalar(s) => s.dispatch_ref(task, set),
            Core::Indexed(s) => s.dispatch_ref(task, set),
        }
    }

    /// Decision counters: retired cores' stats plus the live core's.
    /// `None` only when no indexed core was ever involved.
    pub fn kernel_stats(&self) -> Option<KernelStats> {
        let mut stats = self.retired_stats;
        match &self.core {
            Core::Indexed(s) => {
                stats.merge(s.kernel_stats());
                Some(stats)
            }
            Core::Scalar(_) => (stats != KernelStats::default()).then_some(stats),
        }
    }

    /// Re-resolves the kernel from the current classification and
    /// switches the core when the verdict changed.
    fn re_resolve(&mut self) {
        let report = self.classifier.report();
        let desired = DispatchKernel::for_structure(&report, self.m);
        self.last_revision = self.classifier.revision();
        // Unstructured is absorbing (flags only fall), so a Scalar
        // verdict with no surviving structure can never flip back —
        // stop observing. A structured-but-narrow Scalar verdict stays
        // live: fixed_size may widen to None and re-enable the index.
        let structured = report.interval
            || report.ring_interval
            || report.inclusive
            || report.nested
            || report.disjoint;
        if !structured {
            self.settled = true;
        }
        if desired != self.current_kernel() {
            self.switch_to(desired);
        }
    }

    /// Moves the machine state (completion bank + breaker, with RNG
    /// state) into a fresh core of the other kernel. Index structures
    /// are derived state and rebuild from the bank; dispatch behavior
    /// is bitwise-unchanged (see module docs).
    fn switch_to(&mut self, desired: DispatchKernel) {
        self.switches += 1;
        let old = std::mem::replace(
            &mut self.core,
            Core::Scalar(EftState::new(1, TieBreak::Min)),
        );
        self.core = match (old, desired) {
            (Core::Scalar(s), DispatchKernel::Indexed) => {
                let (bank, breaker) = s.into_parts();
                Core::Indexed(IndexedEftState::from_parts(bank, breaker, self.scan))
            }
            (Core::Indexed(s), DispatchKernel::Scalar) => {
                let (bank, breaker, stats) = s.into_parts();
                self.retired_stats.merge(stats);
                Core::Scalar(EftState::from_parts(bank, breaker, self.scan))
            }
            // `switch_to` is only called when the verdict differs from
            // the current core, so same-kernel pairs are unreachable.
            (core, _) => {
                self.switches -= 1;
                core
            }
        };
    }
}

impl ImmediateDispatcher for AdaptiveEftState {
    fn machine_count(&self) -> usize {
        self.m
    }

    fn dispatch_task(&mut self, task: Task, set: ProcSetRef<'_>) -> Assignment {
        self.dispatch_ref(task, set)
    }

    fn machine_completions(&self) -> &[Time] {
        self.completions()
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        self.kernel_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut adaptive = AdaptiveEftState::new(m, tb);
            let mut scalar = EftState::new(m, tb);
            let mut indexed = IndexedEftState::new(m, tb);
            for (i, (task, set)) in sets.iter().enumerate() {
                let view = ProcSetRef::Explicit(set);
                let a = adaptive.dispatch_ref(*task, view);
                assert_eq!(a, scalar.dispatch_ref(*task, view), "{tb:?} scalar @{i}");
                assert_eq!(a, indexed.dispatch_ref(*task, view), "{tb:?} indexed @{i}");
            }
            // The structured prefix keeps the index through warmup; the
            // scattered tail must have forced a downgrade to Scalar.
            assert!(adaptive.switches() > 0, "{tb:?}: no mid-stream switch");
            assert_eq!(adaptive.current_kernel(), DispatchKernel::Scalar, "{tb:?}");
        }
    }

    #[test]
    fn small_machine_counts_settle_to_scalar_immediately() {
        let mut s = AdaptiveEftState::new(4, TieBreak::Min);
        assert_eq!(s.current_kernel(), DispatchKernel::Scalar);
        for i in 0..200 {
            s.dispatch_ref(Task::unit(i as f64 * 0.1), ProcSetRef::prefix(4));
        }
        assert_eq!(s.switches(), 0);
        assert_eq!(s.classifier.arrivals(), 0, "settled state must not observe");
    }

    #[test]
    fn structured_streams_keep_the_index_and_report_stats() {
        let m = 256;
        let mut s = AdaptiveEftState::new(m, TieBreak::Min);
        for i in 0..300 {
            let lo = (i * 11) % (m / 2);
            s.dispatch_ref(
                Task::unit(i as f64 * 0.05),
                ProcSetRef::interval(lo, lo + m / 2 - 1),
            );
        }
        assert_eq!(s.current_kernel(), DispatchKernel::Indexed);
        assert_eq!(s.switches(), 0);
        let stats = s.kernel_stats().expect("indexed core reports stats");
        assert_eq!(stats.indexed_descents, 300);
    }
}

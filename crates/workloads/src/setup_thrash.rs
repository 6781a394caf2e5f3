//! Adversarial workload for **setup-aware** dispatch (Mäcker et al.,
//! arXiv:1709.05896): interleaved requests from overlapping key
//! clusters that force a setup-oblivious dispatcher to thrash.
//!
//! The stream cycles through `clusters` overlapping replica sets —
//! interval `[c·stride, c·stride + width)` for cluster `c`, one unit
//! task per cluster per time step. Because consecutive clusters share
//! `width − stride` machines, a setup-oblivious EFT (the
//! [`setup`](flowsched_algos::setup) rule's `setup-obl@c`) happily
//! routes alternating clusters onto the shared machines — paying the
//! switch cost on almost every dispatch — while the aware variant
//! settles each cluster onto its exclusive machines and amortizes the
//! setup away. The stream is the empirical teeth behind the `setup@c`
//! vs `setup-obl@c` rows of the competitive-ratio ladder.

use flowsched_core::compact::ProcSetRef;
use flowsched_core::procset::ProcSet;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::task::Task;

/// The cluster-interleaving adversarial stream (module docs).
#[derive(Debug, Clone)]
pub struct SetupThrashStream {
    m: usize,
    sets: Vec<ProcSet>,
    steps: usize,
    t: usize,
    i: usize,
}

impl SetupThrashStream {
    /// `steps` rounds of one unit task per cluster, clusters being the
    /// overlapping intervals `[c·stride, c·stride + width)` over `m`
    /// machines.
    ///
    /// # Panics
    /// Panics when the geometry is degenerate: no clusters, zero
    /// width/stride, non-overlapping clusters (`stride ≥ width` — there
    /// would be nothing to thrash), or clusters falling off the machine
    /// range.
    pub fn new(m: usize, clusters: usize, width: usize, stride: usize, steps: usize) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        assert!(width > 0 && stride > 0, "need a positive cluster geometry");
        assert!(
            stride < width,
            "clusters must overlap (stride < width) to induce thrashing"
        );
        let sets: Vec<ProcSet> = (0..clusters)
            .map(|c| ProcSet::interval(c * stride, c * stride + width - 1))
            .collect();
        assert!(
            sets.iter().all(|s| s.max().is_some_and(|hi| hi < m)),
            "clusters must fit the machine range"
        );
        SetupThrashStream {
            m,
            sets,
            steps,
            t: 0,
            i: 0,
        }
    }

    /// The cluster replica sets, in release order within a step.
    pub fn clusters(&self) -> &[ProcSet] {
        &self.sets
    }
}

impl ArrivalStream for SetupThrashStream {
    fn machines(&self) -> usize {
        self.m
    }

    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        if self.t >= self.steps {
            return None;
        }
        let task = Task::unit(self.t as f64);
        let i = self.i;
        self.i += 1;
        if self.i == self.sets.len() {
            self.i = 0;
            self.t += 1;
        }
        Some((task, self.sets[i].compact_view(self.m)))
    }

    fn len_hint(&self) -> Option<usize> {
        Some((self.steps - self.t) * self.sets.len() - self.i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::eft::ImmediateDispatcher;
    use flowsched_algos::registry::{PolicyId, PolicySpec};
    use flowsched_algos::tiebreak::TieBreak;

    fn fmax<D: ImmediateDispatcher>(mut stream: SetupThrashStream, d: &mut D) -> f64 {
        let mut worst: f64 = 0.0;
        while let Some((task, set)) = stream.next_arrival() {
            let a = d.dispatch_task(task, set);
            worst = worst.max(a.start + task.ptime - task.release);
        }
        worst
    }

    #[test]
    fn stream_shape_and_hint() {
        let mut s = SetupThrashStream::new(6, 3, 3, 1, 4);
        assert_eq!(s.clusters().len(), 3);
        assert_eq!(s.len_hint(), Some(12));
        let mut count = 0;
        while let Some((task, set)) = s.next_arrival() {
            assert_eq!(set.len(), 3);
            assert_eq!(task.release, (count / 3) as f64);
            count += 1;
        }
        assert_eq!(count, 12);
    }

    #[test]
    fn oblivious_dispatch_thrashes_and_aware_does_not() {
        // Two width-4 clusters overlapping in 3 machines on m=5: the
        // oblivious EFT choice keeps landing alternating clusters on
        // shared machines (a switch — and a setup — almost every time),
        // while the aware variant parks each cluster on its exclusive
        // machine and stops paying after warm-up.
        let stream = || SetupThrashStream::new(5, 2, 4, 1, 30);
        let cost = 2.0;
        let setup = |aware| {
            let tie = TieBreak::Min;
            PolicySpec::new(PolicyId::SetupEft { tie, cost, aware }).build(5)
        };
        let mut obl = setup(false);
        let thrashed = fmax(stream(), &mut obl);
        let mut aware = setup(true);
        let settled = fmax(stream(), &mut aware);
        assert!(
            settled < thrashed,
            "aware {settled} should beat oblivious {thrashed}"
        );
        // Once settled, the aware flow is setup-free: bounded by the
        // cold-start cost plus the service backlog of one cluster.
        assert!(settled <= cost + 2.0, "settled flow {settled}");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn disjoint_clusters_rejected() {
        let _ = SetupThrashStream::new(8, 2, 2, 4, 1);
    }
}

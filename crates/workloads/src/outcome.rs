//! Shared plumbing for adversary constructions.
//!
//! Every adversary releases its tasks through a [`ReleaseLog`], which
//! hands each one to the attacked algorithm and records the commitment,
//! then assembles the `(Instance, Schedule)` pair of an
//! [`AdversaryOutcome`] for structural assertions and exact-OPT
//! cross-checks.

use flowsched_core::instance::Instance;
use flowsched_core::procset::ProcSet;
use flowsched_core::schedule::{Assignment, Schedule};
use flowsched_core::task::Task;
use flowsched_core::time::Time;

use flowsched_algos::eft::ImmediateDispatcher;

/// Result of running an adversary against an online algorithm.
#[derive(Debug, Clone)]
pub struct AdversaryOutcome {
    /// The instance the adversary constructed (possibly adaptively).
    pub instance: Instance,
    /// The schedule the algorithm produced on it.
    pub schedule: Schedule,
    /// Offline optimal `F*max` of the instance, as established by the
    /// paper's construction (not recomputed).
    pub opt_fmax: Time,
}

impl AdversaryOutcome {
    /// The algorithm's maximum flow time on the adversarial instance.
    pub fn fmax(&self) -> Time {
        self.schedule.fmax(&self.instance)
    }

    /// Achieved competitive ratio `Fmax / F*max`.
    pub fn ratio(&self) -> f64 {
        self.fmax() / self.opt_fmax
    }

    /// Validates the produced schedule against the instance.
    pub fn validate(&self) -> Result<(), flowsched_core::CoreError> {
        self.schedule.validate(&self.instance)
    }
}

/// Records tasks as an adaptive adversary releases them, together with
/// the assignments the algorithm commits to, and assembles the final
/// `(Instance, Schedule)` pair.
#[derive(Debug, Default)]
pub struct ReleaseLog {
    m: usize,
    tasks: Vec<Task>,
    sets: Vec<ProcSet>,
    assignments: Vec<Assignment>,
    last_release: Time,
}

impl ReleaseLog {
    /// Starts a log for an `m`-machine cluster.
    pub fn new(m: usize) -> Self {
        ReleaseLog {
            m,
            tasks: Vec::new(),
            sets: Vec::new(),
            assignments: Vec::new(),
            last_release: 0.0,
        }
    }

    /// Releases a task to the algorithm and records the commitment.
    /// Releases must be non-decreasing (online arrival order).
    pub fn release<D: ImmediateDispatcher + ?Sized>(
        &mut self,
        algo: &mut D,
        task: Task,
        set: ProcSet,
    ) -> Assignment {
        assert!(
            task.release >= self.last_release,
            "adversary must release tasks in non-decreasing time order"
        );
        self.last_release = task.release;
        let a = algo.dispatch_task(task, set.view());
        self.tasks.push(task);
        self.sets.push(set);
        self.assignments.push(a);
        a
    }

    /// Number of tasks released so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when nothing was released.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Finalizes into an outcome with the paper-provided optimum.
    pub fn finish(self, opt_fmax: Time) -> AdversaryOutcome {
        let instance = Instance::new(self.m, self.tasks, self.sets)
            .expect("adversary constructions are valid instances");
        let schedule = Schedule::new(self.assignments);
        AdversaryOutcome {
            instance,
            schedule,
            opt_fmax,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::eft::EftState;
    use flowsched_algos::tiebreak::TieBreak;

    #[test]
    fn log_assembles_consistent_outcome() {
        let mut algo = EftState::new(2, TieBreak::Min);
        let mut log = ReleaseLog::new(2);
        log.release(&mut algo, Task::unit(0.0), ProcSet::full(2));
        log.release(&mut algo, Task::unit(0.0), ProcSet::full(2));
        log.release(&mut algo, Task::unit(1.0), ProcSet::singleton(0));
        assert_eq!(log.len(), 3);
        let out = log.finish(1.0);
        out.validate().unwrap();
        assert_eq!(out.fmax(), 1.0);
        assert_eq!(out.ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_release_rejected() {
        let mut algo = EftState::new(1, TieBreak::Min);
        let mut log = ReleaseLog::new(1);
        log.release(&mut algo, Task::unit(5.0), ProcSet::full(1));
        log.release(&mut algo, Task::unit(1.0), ProcSet::full(1));
    }
}

//! Scheduling instances: machines + released tasks + processing sets.

use crate::error::CoreError;
use crate::procset::ProcSet;
use crate::task::{Task, TaskId};
use crate::time::{time_cmp, Time};

/// A complete instance of `P | online-rᵢ, Mᵢ | Fmax`.
///
/// Tasks are indexed `0..n` and sorted by non-decreasing release time
/// (the paper's convention `i < j ⇒ rᵢ ≤ rⱼ`); online schedulers consume
/// them in index order. Each task has a processing set; an instance built
/// without explicit sets uses the full machine set (no restriction,
/// plain `P | online-rᵢ | Fmax`).
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    m: usize,
    tasks: Vec<Task>,
    sets: Vec<ProcSet>,
}

impl Instance {
    /// Builds and validates an instance.
    ///
    /// Validation enforces: at least one machine, finite non-negative
    /// releases sorted non-decreasingly, strictly positive processing
    /// times, and non-empty in-range processing sets (`sets.len()` must
    /// equal `tasks.len()`).
    pub fn new(m: usize, tasks: Vec<Task>, sets: Vec<ProcSet>) -> Result<Self, CoreError> {
        if m == 0 {
            return Err(CoreError::NoMachines);
        }
        assert_eq!(
            tasks.len(),
            sets.len(),
            "each task needs exactly one processing set"
        );
        for (i, t) in tasks.iter().enumerate() {
            if !t.release.is_finite() || t.release < 0.0 {
                return Err(CoreError::InvalidReleaseTime {
                    task: TaskId(i),
                    r: t.release,
                });
            }
            if !t.ptime.is_finite() || t.ptime <= 0.0 {
                return Err(CoreError::NonPositiveProcessingTime {
                    task: TaskId(i),
                    p: t.ptime,
                });
            }
            if i > 0 && t.release < tasks[i - 1].release {
                return Err(CoreError::UnsortedReleases {
                    first_violation: TaskId(i),
                });
            }
        }
        for (i, s) in sets.iter().enumerate() {
            if s.is_empty() {
                return Err(CoreError::EmptyProcessingSet { task: TaskId(i) });
            }
            if let Some(max) = s.max() {
                if max >= m {
                    return Err(CoreError::MachineOutOfRange {
                        task: TaskId(i),
                        machine: max,
                        m,
                    });
                }
            }
        }
        Ok(Instance { m, tasks, sets })
    }

    /// Builds an unrestricted instance (every task may run anywhere).
    pub fn unrestricted(m: usize, tasks: Vec<Task>) -> Result<Self, CoreError> {
        let full = ProcSet::full(m);
        let sets = vec![full; tasks.len()];
        Instance::new(m, tasks, sets)
    }

    /// Number of machines `m`.
    #[inline]
    pub fn machines(&self) -> usize {
        self.m
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the instance has no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks, in release order.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The processing sets, aligned with [`tasks`](Self::tasks).
    #[inline]
    pub fn sets(&self) -> &[ProcSet] {
        &self.sets
    }

    /// Task accessor.
    #[inline]
    pub fn task(&self, id: TaskId) -> Task {
        self.tasks[id.0]
    }

    /// Processing-set accessor.
    #[inline]
    pub fn set(&self, id: TaskId) -> &ProcSet {
        &self.sets[id.0]
    }

    /// Iterates `(TaskId, Task, &ProcSet)` triples in release order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, Task, &ProcSet)> {
        self.tasks
            .iter()
            .zip(self.sets.iter())
            .enumerate()
            .map(|(i, (&t, s))| (TaskId(i), t, s))
    }

    /// Total work `Σ pᵢ`.
    pub fn total_work(&self) -> Time {
        self.tasks.iter().map(|t| t.ptime).sum()
    }

    /// Maximum processing time `p_max` over all tasks (0 for empty).
    pub fn pmax(&self) -> Time {
        self.tasks
            .iter()
            .map(|t| t.ptime)
            .max_by(|a, b| time_cmp(*a, *b))
            .unwrap_or(0.0)
    }

    /// True when all tasks are unit tasks (`pᵢ = 1`).
    pub fn is_unit(&self) -> bool {
        self.tasks.iter().all(|t| t.ptime == 1.0)
    }

    /// True when no task is actually restricted (all sets are the full
    /// machine set).
    pub fn is_unrestricted(&self) -> bool {
        self.sets.iter().all(|s| s.len() == self.m)
    }

    /// Largest release time (0 for an empty instance).
    pub fn horizon(&self) -> Time {
        self.tasks.last().map(|t| t.release).unwrap_or(0.0)
    }

    /// The instance under a machine renaming (`new index = perm[old]`).
    /// Tasks and releases are untouched; only processing sets are
    /// renamed. Together with
    /// [`structure::nested_to_interval_order`](crate::structure::nested_to_interval_order)
    /// this realizes the paper's Figure 1 reduction constructively:
    /// scheduling a nested instance is scheduling an interval instance
    /// under the right machine names.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..m`.
    pub fn remap_machines(&self, perm: &[usize]) -> Instance {
        assert_eq!(perm.len(), self.m, "permutation must cover all machines");
        let mut seen = vec![false; self.m];
        for &p in perm {
            assert!(p < self.m && !seen[p], "not a permutation of 0..m");
            seen[p] = true;
        }
        let sets = crate::structure::apply_machine_permutation(&self.sets, perm);
        Instance::new(self.m, self.tasks.clone(), sets)
            .expect("renaming machines preserves validity")
    }
}

/// Incremental builder for [`Instance`]. Tasks may be pushed in any order;
/// [`build`](InstanceBuilder::build) sorts them by release time (stably,
/// preserving submission order among equal releases, which matters for
/// adversary constructions where same-instant ordering is significant).
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    m: usize,
    tasks: Vec<Task>,
    sets: Vec<ProcSet>,
}

impl InstanceBuilder {
    /// Starts a builder for an `m`-machine cluster.
    pub fn new(m: usize) -> Self {
        InstanceBuilder {
            m,
            tasks: Vec::new(),
            sets: Vec::new(),
        }
    }

    /// Adds a task with an explicit processing set.
    pub fn push(&mut self, task: Task, set: ProcSet) -> &mut Self {
        self.tasks.push(task);
        self.sets.push(set);
        self
    }

    /// Adds an unrestricted task.
    pub fn push_unrestricted(&mut self, task: Task) -> &mut Self {
        let full = ProcSet::full(self.m);
        self.push(task, full)
    }

    /// Adds a unit task restricted to `set`, released at `release`.
    pub fn push_unit(&mut self, release: Time, set: ProcSet) -> &mut Self {
        self.push(Task::unit(release), set)
    }

    /// Number of tasks pushed so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task has been pushed.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Finalizes the instance: stable-sorts by release time and validates.
    pub fn build(self) -> Result<Instance, CoreError> {
        let mut order: Vec<usize> = (0..self.tasks.len()).collect();
        order.sort_by(|&a, &b| time_cmp(self.tasks[a].release, self.tasks[b].release));
        let tasks: Vec<Task> = order.iter().map(|&i| self.tasks[i]).collect();
        let sets: Vec<ProcSet> = order.iter().map(|&i| self.sets[i].clone()).collect();
        Instance::new(self.m, tasks, sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(r: Time, p: Time) -> Task {
        Task::new(r, p)
    }

    #[test]
    fn unrestricted_instance_builds() {
        let inst = Instance::unrestricted(3, vec![t(0.0, 1.0), t(1.0, 2.0)]).unwrap();
        assert_eq!(inst.machines(), 3);
        assert_eq!(inst.len(), 2);
        assert!(inst.is_unrestricted());
        assert_eq!(inst.total_work(), 3.0);
        assert_eq!(inst.pmax(), 2.0);
        assert_eq!(inst.horizon(), 1.0);
    }

    #[test]
    fn rejects_zero_machines() {
        assert_eq!(
            Instance::unrestricted(0, vec![]).unwrap_err(),
            CoreError::NoMachines
        );
    }

    #[test]
    fn rejects_unsorted_releases() {
        let e = Instance::unrestricted(2, vec![t(1.0, 1.0), t(0.5, 1.0)]).unwrap_err();
        assert_eq!(
            e,
            CoreError::UnsortedReleases {
                first_violation: TaskId(1)
            }
        );
    }

    #[test]
    fn rejects_nonpositive_ptime() {
        let e = Instance::unrestricted(2, vec![t(0.0, 0.0)]).unwrap_err();
        assert!(matches!(e, CoreError::NonPositiveProcessingTime { .. }));
    }

    #[test]
    fn rejects_negative_release() {
        let e = Instance::unrestricted(2, vec![t(-1.0, 1.0)]).unwrap_err();
        assert!(matches!(e, CoreError::InvalidReleaseTime { .. }));
    }

    #[test]
    fn rejects_empty_set() {
        let e = Instance::new(2, vec![t(0.0, 1.0)], vec![ProcSet::empty()]).unwrap_err();
        assert!(matches!(e, CoreError::EmptyProcessingSet { .. }));
    }

    #[test]
    fn rejects_out_of_range_machine() {
        let e = Instance::new(2, vec![t(0.0, 1.0)], vec![ProcSet::singleton(5)]).unwrap_err();
        assert!(matches!(
            e,
            CoreError::MachineOutOfRange {
                machine: 5,
                m: 2,
                ..
            }
        ));
    }

    #[test]
    fn builder_sorts_stably() {
        let mut b = InstanceBuilder::new(4);
        // Two tasks at the same release, pushed in a meaningful order, plus
        // one earlier task pushed last.
        b.push_unit(2.0, ProcSet::singleton(0));
        b.push_unit(2.0, ProcSet::singleton(1));
        b.push_unit(1.0, ProcSet::singleton(2));
        let inst = b.build().unwrap();
        assert_eq!(inst.task(TaskId(0)).release, 1.0);
        assert_eq!(inst.set(TaskId(0)), &ProcSet::singleton(2));
        // Stability: among the 2.0 releases, push order preserved.
        assert_eq!(inst.set(TaskId(1)), &ProcSet::singleton(0));
        assert_eq!(inst.set(TaskId(2)), &ProcSet::singleton(1));
    }

    #[test]
    fn is_unit_detects_unit_instances() {
        let inst = Instance::unrestricted(2, vec![t(0.0, 1.0), t(3.0, 1.0)]).unwrap();
        assert!(inst.is_unit());
        let inst2 = Instance::unrestricted(2, vec![t(0.0, 1.5)]).unwrap();
        assert!(!inst2.is_unit());
    }

    #[test]
    fn iter_yields_aligned_triples() {
        let inst = Instance::new(
            3,
            vec![t(0.0, 1.0), t(1.0, 2.0)],
            vec![ProcSet::singleton(0), ProcSet::interval(1, 2)],
        )
        .unwrap();
        let v: Vec<_> = inst.iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].0, TaskId(0));
        assert_eq!(v[1].2, &ProcSet::interval(1, 2));
    }

    #[test]
    fn remap_machines_renames_sets_only() {
        let inst = Instance::new(
            3,
            vec![t(0.0, 1.0), t(1.0, 2.0)],
            vec![ProcSet::singleton(0), ProcSet::interval(1, 2)],
        )
        .unwrap();
        // 0→2, 1→0, 2→1.
        let renamed = inst.remap_machines(&[2, 0, 1]);
        assert_eq!(renamed.tasks(), inst.tasks());
        assert_eq!(renamed.set(TaskId(0)), &ProcSet::singleton(2));
        assert_eq!(renamed.set(TaskId(1)), &ProcSet::new(vec![0, 1]));
    }

    #[test]
    fn remap_makes_nested_instances_interval() {
        use crate::structure;
        // A scattered laminar family becomes contiguous intervals under
        // the computed permutation — the Figure 1 edge, end to end.
        let sets = vec![
            ProcSet::new(vec![0, 3, 5]),
            ProcSet::new(vec![0, 5]),
            ProcSet::new(vec![1, 2]),
        ];
        let inst = Instance::new(6, vec![t(0.0, 1.0), t(0.0, 1.0), t(0.0, 1.0)], sets).unwrap();
        assert!(!structure::is_interval_family(inst.sets()));
        let perm = structure::nested_to_interval_order(inst.sets(), 6).unwrap();
        let renamed = inst.remap_machines(&perm);
        assert!(structure::is_interval_family(renamed.sets()));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn remap_rejects_non_permutation() {
        let inst = Instance::unrestricted(2, vec![t(0.0, 1.0)]).unwrap();
        let _ = inst.remap_machines(&[0, 0]);
    }

    #[test]
    fn empty_instance_ok() {
        let inst = Instance::unrestricted(1, vec![]).unwrap();
        assert!(inst.is_empty());
        assert_eq!(inst.pmax(), 0.0);
        assert_eq!(inst.total_work(), 0.0);
    }
}

//! Schedules and their metrics.
//!
//! A schedule `Π` maps each task `Tᵢ` to `(μᵢ, σᵢ)`: the machine running it
//! and its start time. Completion is `Cᵢ = σᵢ + pᵢ` and the flow time is
//! `Fᵢ = Cᵢ − rᵢ`. Validation checks the three feasibility conditions:
//! starts after release, machine inside the processing set, and no two
//! tasks overlapping on a machine (no preemption, unit capacity).

use crate::error::CoreError;
use crate::instance::Instance;
use crate::machine::MachineId;
use crate::task::TaskId;
use crate::time::{time_cmp, Time};

/// One task's placement: machine and start time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Machine `μᵢ` executing the task.
    pub machine: MachineId,
    /// Start time `σᵢ ≥ rᵢ`.
    pub start: Time,
}

impl Assignment {
    /// Creates an assignment.
    pub fn new(machine: MachineId, start: Time) -> Self {
        Assignment { machine, start }
    }
}

/// A complete schedule: one assignment per task, aligned with the
/// instance's task indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    assignments: Vec<Assignment>,
}

impl Schedule {
    /// Wraps a vector of assignments (index `i` = task `Tᵢ`).
    pub fn new(assignments: Vec<Assignment>) -> Self {
        Schedule { assignments }
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no task is scheduled.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The raw assignments.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Assignment of one task.
    pub fn assignment(&self, id: TaskId) -> Assignment {
        self.assignments[id.0]
    }

    /// Start time `σᵢ`.
    pub fn start(&self, id: TaskId) -> Time {
        self.assignments[id.0].start
    }

    /// Machine `μᵢ`.
    pub fn machine(&self, id: TaskId) -> MachineId {
        self.assignments[id.0].machine
    }

    /// Completion time `Cᵢ = σᵢ + pᵢ`.
    pub fn completion(&self, id: TaskId, inst: &Instance) -> Time {
        self.assignments[id.0].start + inst.task(id).ptime
    }

    /// Flow time `Fᵢ = Cᵢ − rᵢ`.
    pub fn flow_time(&self, id: TaskId, inst: &Instance) -> Time {
        self.completion(id, inst) - inst.task(id).release
    }

    /// Stretch of a task: `Fᵢ / pᵢ` — the slowdown factor relative to
    /// running alone (Bender et al.'s companion metric to max-flow).
    pub fn stretch(&self, id: TaskId, inst: &Instance) -> Time {
        self.flow_time(id, inst) / inst.task(id).ptime
    }

    /// Maximum stretch over all tasks (0 for empty schedules).
    pub fn max_stretch(&self, inst: &Instance) -> Time {
        (0..self.len())
            .map(|i| self.stretch(TaskId(i), inst))
            .max_by(|a, b| time_cmp(*a, *b))
            .unwrap_or(0.0)
    }

    /// All flow times, aligned with task indices.
    pub fn flow_times(&self, inst: &Instance) -> Vec<Time> {
        (0..self.len())
            .map(|i| self.flow_time(TaskId(i), inst))
            .collect()
    }

    /// Maximum flow time `Fmax = maxᵢ Fᵢ` (the paper's objective).
    /// Returns 0 for empty schedules.
    pub fn fmax(&self, inst: &Instance) -> Time {
        (0..self.len())
            .map(|i| self.flow_time(TaskId(i), inst))
            .max_by(|a, b| time_cmp(*a, *b))
            .unwrap_or(0.0)
    }

    /// Weighted maximum flow time `maxᵢ wᵢ·Fᵢ` — the Azar–Touitou
    /// objective. Equal to [`fmax`](Schedule::fmax) when every task has
    /// the default weight 1. Returns 0 for empty schedules.
    pub fn weighted_fmax(&self, inst: &Instance) -> Time {
        (0..self.len())
            .map(|i| inst.task(TaskId(i)).weight * self.flow_time(TaskId(i), inst))
            .max_by(|a, b| time_cmp(*a, *b))
            .unwrap_or(0.0)
    }

    /// The task attaining `Fmax`, if any.
    pub fn argmax_flow(&self, inst: &Instance) -> Option<TaskId> {
        (0..self.len())
            .map(TaskId)
            .max_by(|&a, &b| time_cmp(self.flow_time(a, inst), self.flow_time(b, inst)))
    }

    /// Mean flow time (0 for empty schedules).
    pub fn mean_flow(&self, inst: &Instance) -> Time {
        if self.is_empty() {
            return 0.0;
        }
        let total: Time = (0..self.len())
            .map(|i| self.flow_time(TaskId(i), inst))
            .sum();
        total / self.len() as Time
    }

    /// Makespan `Cmax = maxᵢ Cᵢ` (0 for empty schedules).
    pub fn makespan(&self, inst: &Instance) -> Time {
        (0..self.len())
            .map(|i| self.completion(TaskId(i), inst))
            .max_by(|a, b| time_cmp(*a, *b))
            .unwrap_or(0.0)
    }

    /// Tasks grouped per machine, each group sorted by start time.
    /// Index `j` of the result holds machine `Mⱼ₊₁`'s tasks.
    pub fn machine_timelines(&self, inst: &Instance) -> Vec<Vec<TaskId>> {
        let mut lanes: Vec<Vec<TaskId>> = vec![Vec::new(); inst.machines()];
        for (i, a) in self.assignments.iter().enumerate() {
            lanes[a.machine.index()].push(TaskId(i));
        }
        for lane in &mut lanes {
            lane.sort_by(|&a, &b| time_cmp(self.start(a), self.start(b)));
        }
        lanes
    }

    /// Validates the schedule against its instance. Checks, in order:
    /// assignment count, release-time respect, processing-set membership,
    /// and per-machine non-overlap.
    pub fn validate(&self, inst: &Instance) -> Result<(), CoreError> {
        if self.assignments.len() != inst.len() {
            if self.assignments.len() < inst.len() {
                return Err(CoreError::UnscheduledTask {
                    task: TaskId(self.assignments.len()),
                });
            }
            return Err(CoreError::ExtraAssignments {
                expected: inst.len(),
                got: self.assignments.len(),
            });
        }
        for (id, task, set) in inst.iter() {
            let a = self.assignments[id.0];
            if a.start < task.release - crate::time::TIME_EPS {
                return Err(CoreError::StartedBeforeRelease {
                    task: id,
                    start: a.start,
                    release: task.release,
                });
            }
            if !set.contains(a.machine.index()) {
                return Err(CoreError::OutsideProcessingSet {
                    task: id,
                    machine: a.machine,
                });
            }
        }
        for (j, lane) in self.machine_timelines(inst).into_iter().enumerate() {
            for w in lane.windows(2) {
                let (a, b) = (w[0], w[1]);
                let a_end = self.completion(a, inst);
                if self.start(b) < a_end - crate::time::TIME_EPS {
                    return Err(CoreError::MachineOverlap {
                        machine: MachineId(j),
                        first: a,
                        second: b,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procset::ProcSet;
    use crate::task::Task;

    fn small_instance() -> Instance {
        // 2 machines; T1 (r=0,p=2) anywhere, T2 (r=0,p=1) only M2,
        // T3 (r=1,p=1) anywhere.
        Instance::new(
            2,
            vec![
                Task::new(0.0, 2.0),
                Task::new(0.0, 1.0),
                Task::new(1.0, 1.0),
            ],
            vec![ProcSet::full(2), ProcSet::singleton(1), ProcSet::full(2)],
        )
        .unwrap()
    }

    fn valid_schedule() -> Schedule {
        Schedule::new(vec![
            Assignment::new(MachineId(0), 0.0), // T1 on M1 [0,2)
            Assignment::new(MachineId(1), 0.0), // T2 on M2 [0,1)
            Assignment::new(MachineId(1), 1.0), // T3 on M2 [1,2)
        ])
    }

    #[test]
    fn metrics_on_valid_schedule() {
        let inst = small_instance();
        let s = valid_schedule();
        s.validate(&inst).unwrap();
        assert_eq!(s.completion(TaskId(0), &inst), 2.0);
        assert_eq!(s.flow_time(TaskId(0), &inst), 2.0);
        assert_eq!(s.flow_time(TaskId(2), &inst), 1.0);
        assert_eq!(s.fmax(&inst), 2.0);
        assert_eq!(s.makespan(&inst), 2.0);
        assert_eq!(s.argmax_flow(&inst), Some(TaskId(0)));
        assert!((s.mean_flow(&inst) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_fmax_reduces_to_fmax_at_unit_weight() {
        let inst = small_instance();
        let s = valid_schedule();
        assert_eq!(s.weighted_fmax(&inst), s.fmax(&inst));
        // Boost T3 (flow 1) to weight 5: it now dominates T1 (flow 2).
        let weighted = Instance::new(
            2,
            vec![
                Task::new(0.0, 2.0),
                Task::new(0.0, 1.0),
                Task::weighted(1.0, 1.0, 5.0),
            ],
            vec![ProcSet::full(2), ProcSet::singleton(1), ProcSet::full(2)],
        )
        .unwrap();
        assert_eq!(s.weighted_fmax(&weighted), 5.0);
    }

    #[test]
    fn stretch_is_flow_over_processing_time() {
        let inst = small_instance();
        let s = valid_schedule();
        // T1: flow 2, p 2 → stretch 1. T3: flow 1, p 1 → 1.
        assert_eq!(s.stretch(TaskId(0), &inst), 1.0);
        assert_eq!(s.max_stretch(&inst), 1.0);
        // Delay T3 to start at 3: flow 3, stretch 3.
        let mut delayed = valid_schedule();
        delayed.assignments[2].start = 3.0;
        assert_eq!(delayed.stretch(TaskId(2), &inst), 3.0);
        assert_eq!(delayed.max_stretch(&inst), 3.0);
    }

    #[test]
    fn validate_rejects_early_start() {
        let inst = small_instance();
        let mut s = valid_schedule();
        s.assignments[2].start = 0.5; // T3 released at 1.0
        assert!(matches!(
            s.validate(&inst),
            Err(CoreError::StartedBeforeRelease {
                task: TaskId(2),
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_wrong_machine() {
        let inst = small_instance();
        let mut s = valid_schedule();
        s.assignments[1].machine = MachineId(0); // T2 restricted to M2
        assert!(matches!(
            s.validate(&inst),
            Err(CoreError::OutsideProcessingSet {
                task: TaskId(1),
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_overlap() {
        let inst = small_instance();
        let mut s = valid_schedule();
        s.assignments[2] = Assignment::new(MachineId(1), 0.5); // overlaps T2 — and starts before release
                                                               // move release check out of the way by putting start at exactly 1.0
                                                               // but on the same machine as the long task on M1:
        s.assignments[2] = Assignment::new(MachineId(0), 1.0); // overlaps T1 [0,2)
        assert!(matches!(
            s.validate(&inst),
            Err(CoreError::MachineOverlap {
                first: TaskId(0),
                second: TaskId(2),
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_missing_assignment() {
        let inst = small_instance();
        let s = Schedule::new(vec![Assignment::new(MachineId(0), 0.0)]);
        assert!(matches!(
            s.validate(&inst),
            Err(CoreError::UnscheduledTask { .. })
        ));
    }

    #[test]
    fn validate_rejects_extra_assignments() {
        let inst = small_instance();
        let mut asg = valid_schedule().assignments().to_vec();
        asg.push(Assignment::new(MachineId(0), 5.0));
        let s = Schedule::new(asg);
        assert!(matches!(
            s.validate(&inst),
            Err(CoreError::ExtraAssignments { .. })
        ));
    }

    #[test]
    fn back_to_back_tasks_do_not_overlap() {
        // Completion exactly equals next start: legal.
        let inst =
            Instance::unrestricted(1, vec![Task::new(0.0, 1.0), Task::new(0.0, 1.0)]).unwrap();
        let s = Schedule::new(vec![
            Assignment::new(MachineId(0), 0.0),
            Assignment::new(MachineId(0), 1.0),
        ]);
        s.validate(&inst).unwrap();
    }

    #[test]
    fn machine_timelines_sorted() {
        let inst = small_instance();
        let s = valid_schedule();
        let lanes = s.machine_timelines(&inst);
        assert_eq!(lanes[0], vec![TaskId(0)]);
        assert_eq!(lanes[1], vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn empty_schedule_metrics() {
        let inst = Instance::unrestricted(2, vec![]).unwrap();
        let s = Schedule::new(vec![]);
        s.validate(&inst).unwrap();
        assert_eq!(s.fmax(&inst), 0.0);
        assert_eq!(s.mean_flow(&inst), 0.0);
        assert_eq!(s.argmax_flow(&inst), None);
    }
}

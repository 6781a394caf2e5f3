//! Lifecycle spans derived from the event trace.
//!
//! The recorders store flat [`Event`]s; exporters and timeline viewers
//! want *intervals*. This module pairs events back up into:
//!
//! - [`TaskSpan`] — one per task, `release → start → finish`, built from
//!   the `TaskDispatch`/`TaskCompletion` pair the recorder emits
//!   together at dispatch time (dispatch carries `start`/`ptime`,
//!   completion carries `flow`, so `release = finish − flow` without
//!   needing the arrival event — which may have been overwritten in a
//!   truncated ring).
//! - [`MachineSpan`] — one per busy interval, from the engine's
//!   busy/idle alternation convention (PR 3): per machine, transitions
//!   strictly alternate starting with busy and the trailing idle is
//!   never emitted, so an unclosed busy interval ends at that machine's
//!   last service completion (recovered from its dispatch events), with
//!   the caller-supplied horizon as fallback.
//!
//! Truncated traces degrade gracefully: a task missing either half of
//! its pair produces no span, and a machine whose `MachineBusy` was
//! overwritten contributes no interval — downstream consumers should
//! check `EventRing::dropped` (surfaced as the `trace_events_dropped`
//! counter) before treating spans as complete.

use std::collections::HashMap;

use crate::event::Event;

/// One task's lifecycle: released, waited, served, finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpan {
    /// Engine-assigned task sequence number.
    pub task: u64,
    /// Machine the task ran on.
    pub machine: u32,
    /// Release time.
    pub release: f64,
    /// Start of service.
    pub start: f64,
    /// Completion time.
    pub finish: f64,
}

impl TaskSpan {
    /// Time spent waiting for service.
    pub fn wait(&self) -> f64 {
        self.start - self.release
    }

    /// Time spent in service.
    pub fn service(&self) -> f64 {
        self.finish - self.start
    }

    /// Flow time `finish − release`.
    pub fn flow(&self) -> f64 {
        self.finish - self.release
    }
}

/// One contiguous busy interval of a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpan {
    /// Machine index.
    pub machine: u32,
    /// When the machine went busy.
    pub start: f64,
    /// When it went idle again (for a final unclosed span: the
    /// machine's last service completion, or the horizon if unknown).
    pub end: f64,
}

/// One outage interval of a machine (fault injection), paired from
/// `MachineCrash`/`MachineRecover` lifecycle events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageSpan {
    /// Machine index.
    pub machine: u32,
    /// Crash time.
    pub start: f64,
    /// Recovery time (the horizon for a crash with no recovery in the
    /// trace).
    pub end: f64,
}

/// One SLO breach instant extracted from the trace, ready to render as
/// a Perfetto instant event (see `export::chrome_trace_full`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreachMark {
    /// When the breach was evaluated.
    pub at: f64,
    /// Observed `Fmax` over a lower bound on the optimum.
    pub ratio: f64,
    /// The envelope that was crossed.
    pub bound: f64,
}

/// Extracts every `SloBreach` event as a [`BreachMark`], in trace order.
pub fn breach_marks<'a>(events: impl IntoIterator<Item = &'a Event>) -> Vec<BreachMark> {
    events
        .into_iter()
        .filter_map(|ev| match *ev {
            Event::SloBreach { at, ratio, bound } => Some(BreachMark { at, ratio, bound }),
            _ => None,
        })
        .collect()
}

/// Pairs `TaskDispatch` and `TaskCompletion` events into [`TaskSpan`]s,
/// sorted by `(start, task)`. Tasks missing either event (overwritten
/// in a truncated ring) are skipped.
pub fn task_spans<'a>(events: impl IntoIterator<Item = &'a Event>) -> Vec<TaskSpan> {
    // (machine, start, ptime) from dispatch; flow arrives separately.
    let mut dispatched: HashMap<u64, (u32, f64, f64)> = HashMap::new();
    let mut spans = Vec::new();
    for ev in events {
        match *ev {
            Event::TaskDispatch {
                task,
                machine,
                start,
                ptime,
            } => {
                dispatched.insert(task, (machine, start, ptime));
            }
            Event::TaskCompletion { task, at, flow, .. } => {
                if let Some((machine, start, _)) = dispatched.remove(&task) {
                    spans.push(TaskSpan {
                        task,
                        machine,
                        release: at - flow,
                        start,
                        finish: at,
                    });
                }
            }
            _ => {}
        }
    }
    spans.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then_with(|| a.task.cmp(&b.task))
    });
    spans
}

/// Pairs busy/idle transitions into [`MachineSpan`]s, sorted by
/// `(machine, start)`. A machine still busy at the end of the trace
/// (the trailing idle is never emitted) is closed at the last service
/// completion *on that machine* — recovered from the `TaskDispatch`
/// events' `start + ptime` — so trailing spans don't absorb another
/// machine's makespan. `horizon` is the fallback when the trace holds
/// no dispatch evidence for the machine (e.g. transitions-only slices
/// or a truncated ring).
pub fn machine_spans<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    horizon: f64,
) -> Vec<MachineSpan> {
    let mut open: HashMap<u32, f64> = HashMap::new();
    let mut last_service_end: HashMap<u32, f64> = HashMap::new();
    let mut spans = Vec::new();
    for ev in events {
        match *ev {
            Event::MachineBusy { machine, at } => {
                // The alternation invariant forbids busy-while-busy; a
                // truncated ring can still surface one, in which case the
                // earlier (possibly headless) interval is dropped.
                open.insert(machine, at);
            }
            Event::MachineIdle { machine, at } => {
                if let Some(start) = open.remove(&machine) {
                    spans.push(MachineSpan {
                        machine,
                        start,
                        end: at,
                    });
                }
            }
            Event::TaskDispatch {
                machine,
                start,
                ptime,
                ..
            } => {
                let end = last_service_end.entry(machine).or_insert(f64::NEG_INFINITY);
                *end = end.max(start + ptime);
            }
            _ => {}
        }
    }
    for (machine, start) in open {
        let end = last_service_end
            .get(&machine)
            .copied()
            .unwrap_or(horizon)
            .max(start);
        spans.push(MachineSpan {
            machine,
            start,
            end,
        });
    }
    spans.sort_by(|a, b| {
        a.machine
            .cmp(&b.machine)
            .then_with(|| a.start.total_cmp(&b.start))
    });
    spans
}

/// Pairs crash/recover lifecycle events into [`OutageSpan`]s, sorted by
/// `(machine, start)`. A crash with no matching recovery (the machine
/// stays down) closes at `horizon`; a headless recovery (its crash was
/// overwritten in a truncated ring) is dropped, mirroring
/// [`machine_spans`]'s degradation contract. Well-formed traces
/// alternate per machine (`FaultPlan::events` orders recover before
/// crash on ties, so even exactly-touching outages replay well-nested);
/// should a second crash still arrive while one is open (a truncated
/// ring), the earlier outage is closed at the new crash instant rather
/// than silently lost.
pub fn outage_spans<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    horizon: f64,
) -> Vec<OutageSpan> {
    let mut open: HashMap<u32, f64> = HashMap::new();
    let mut spans = Vec::new();
    for ev in events {
        match *ev {
            Event::MachineCrash { machine, at } => {
                if let Some(start) = open.insert(machine, at) {
                    if start < at {
                        spans.push(OutageSpan {
                            machine,
                            start,
                            end: at,
                        });
                    }
                }
            }
            Event::MachineRecover { machine, at } => {
                if let Some(start) = open.remove(&machine) {
                    spans.push(OutageSpan {
                        machine,
                        start,
                        end: at,
                    });
                }
            }
            _ => {}
        }
    }
    for (machine, start) in open {
        spans.push(OutageSpan {
            machine,
            start,
            end: horizon.max(start),
        });
    }
    spans.sort_by(|a, b| {
        a.machine
            .cmp(&b.machine)
            .then_with(|| a.start.total_cmp(&b.start))
    });
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryRecorder;
    use crate::recorder::Recorder;

    #[test]
    fn spans_reconstruct_release_wait_and_service() {
        let mut r = MemoryRecorder::with_defaults(2);
        r.task_arrival(0, 1.0);
        r.task_dispatch(0, 1, 1.0, 2.5, 2.0);
        r.task_arrival(1, 2.0);
        r.task_dispatch(1, 0, 2.0, 2.0, 1.0);
        let spans = task_spans(r.trace().iter());
        assert_eq!(spans.len(), 2);
        // Sorted by start: task 1 (start 2.0) before task 0 (start 2.5).
        assert_eq!(spans[0].task, 1);
        assert_eq!(spans[1].task, 0);
        assert_eq!(spans[1].release, 1.0);
        assert_eq!(spans[1].wait(), 1.5);
        assert_eq!(spans[1].service(), 2.0);
        assert_eq!(spans[1].flow(), 3.5);
        assert_eq!(spans[1].machine, 1);
    }

    #[test]
    fn truncated_pairs_are_skipped_not_fabricated() {
        // A completion whose dispatch was overwritten yields no span.
        let events = [Event::TaskCompletion {
            task: 7,
            machine: 0,
            at: 5.0,
            flow: 2.0,
        }];
        assert!(task_spans(events.iter()).is_empty());
    }

    #[test]
    fn machine_spans_pair_transitions_and_close_at_horizon() {
        let events = [
            Event::MachineBusy {
                machine: 0,
                at: 0.0,
            },
            Event::MachineIdle {
                machine: 0,
                at: 2.0,
            },
            Event::MachineBusy {
                machine: 1,
                at: 1.0,
            },
            Event::MachineBusy {
                machine: 0,
                at: 3.0,
            },
        ];
        let spans = machine_spans(events.iter(), 10.0);
        assert_eq!(
            spans,
            vec![
                MachineSpan {
                    machine: 0,
                    start: 0.0,
                    end: 2.0
                },
                MachineSpan {
                    machine: 0,
                    start: 3.0,
                    end: 10.0
                },
                MachineSpan {
                    machine: 1,
                    start: 1.0,
                    end: 10.0
                },
            ]
        );
    }

    #[test]
    fn trailing_busy_closes_at_the_machines_own_last_completion() {
        // Machine 0 finishes its last task at 6.0; the global horizon is
        // 10.0 (some other machine runs longer). The trailing busy span
        // must not stretch to the horizon.
        let events = [
            Event::MachineBusy {
                machine: 0,
                at: 3.0,
            },
            Event::TaskDispatch {
                task: 0,
                machine: 0,
                start: 3.0,
                ptime: 3.0,
            },
        ];
        let spans = machine_spans(events.iter(), 10.0);
        assert_eq!(
            spans,
            vec![MachineSpan {
                machine: 0,
                start: 3.0,
                end: 6.0
            }]
        );
    }

    #[test]
    fn outage_spans_pair_crash_and_recover() {
        let events = [
            Event::MachineCrash {
                machine: 1,
                at: 2.0,
            },
            Event::MachineRecover {
                machine: 1,
                at: 5.0,
            },
            Event::MachineCrash {
                machine: 0,
                at: 4.0,
            },
            // Headless recovery: crash overwritten, must be dropped.
            Event::MachineRecover {
                machine: 2,
                at: 6.0,
            },
        ];
        let spans = outage_spans(events.iter(), 9.0);
        assert_eq!(
            spans,
            vec![
                OutageSpan {
                    machine: 0,
                    start: 4.0,
                    end: 9.0
                },
                OutageSpan {
                    machine: 1,
                    start: 2.0,
                    end: 5.0
                },
            ]
        );
    }

    #[test]
    fn touching_outages_pair_into_two_spans() {
        // FaultPlan::events() replays [1,2)+[2,3) as crash@1, recover@2,
        // crash@2, recover@3 (recover-before-crash on ties).
        let events = [
            Event::MachineCrash {
                machine: 0,
                at: 1.0,
            },
            Event::MachineRecover {
                machine: 0,
                at: 2.0,
            },
            Event::MachineCrash {
                machine: 0,
                at: 2.0,
            },
            Event::MachineRecover {
                machine: 0,
                at: 3.0,
            },
        ];
        let spans = outage_spans(events.iter(), 9.0);
        assert_eq!(
            spans,
            vec![
                OutageSpan {
                    machine: 0,
                    start: 1.0,
                    end: 2.0
                },
                OutageSpan {
                    machine: 0,
                    start: 2.0,
                    end: 3.0
                },
            ]
        );
    }

    #[test]
    fn crash_while_open_closes_the_earlier_outage() {
        // A truncated ring can drop the recover between two crashes; the
        // earlier outage closes at the second crash instead of vanishing.
        let events = [
            Event::MachineCrash {
                machine: 0,
                at: 1.0,
            },
            Event::MachineCrash {
                machine: 0,
                at: 4.0,
            },
            Event::MachineRecover {
                machine: 0,
                at: 6.0,
            },
        ];
        let spans = outage_spans(events.iter(), 9.0);
        assert_eq!(
            spans,
            vec![
                OutageSpan {
                    machine: 0,
                    start: 1.0,
                    end: 4.0
                },
                OutageSpan {
                    machine: 0,
                    start: 4.0,
                    end: 6.0
                },
            ]
        );
    }

    #[test]
    fn breach_marks_extract_slo_events_only() {
        let events = [
            Event::TaskArrival { task: 0, at: 0.0 },
            Event::SloBreach {
                at: 4.0,
                ratio: 2.5,
                bound: 2.0,
            },
            Event::SloBreach {
                at: 8.0,
                ratio: 3.0,
                bound: 2.0,
            },
        ];
        let marks = breach_marks(events.iter());
        assert_eq!(marks.len(), 2);
        assert_eq!(
            marks[0],
            BreachMark {
                at: 4.0,
                ratio: 2.5,
                bound: 2.0
            }
        );
    }

    #[test]
    fn headless_idle_is_dropped() {
        let events = [Event::MachineIdle {
            machine: 3,
            at: 4.0,
        }];
        assert!(machine_spans(events.iter(), 5.0).is_empty());
    }
}

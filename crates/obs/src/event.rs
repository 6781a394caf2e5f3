//! Structured trace events and the fixed-capacity ring that stores them.
//!
//! Events use only primitive payloads (`u64` task sequence numbers,
//! `u32` machine indices, `f64` times) so the recorder crate stays free
//! of scheduling-domain dependencies and an event is a small `Copy`
//! value — pushing one is a couple of stores into a pre-allocated ring.
//!
//! Immediate-dispatch engines know a task's completion the instant it is
//! placed, so `TaskCompletion` events are *projected*: they are recorded
//! at dispatch time carrying the future completion timestamp. The trace
//! is therefore ordered by **record order** (dispatch order), and
//! per-machine timestamps are monotone, but global timestamps need not
//! be — the same convention dslab's event traces use for planned events.

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A task was released.
    TaskArrival {
        /// Engine-assigned sequence number (dispatch order; equals the
        /// instance `TaskId` when tasks are fed in release order).
        task: u64,
        /// Release time.
        at: f64,
    },
    /// A task was irrevocably placed on a machine.
    TaskDispatch {
        /// Sequence number (see [`Event::TaskArrival::task`]).
        task: u64,
        /// Chosen machine.
        machine: u32,
        /// Start of service.
        start: f64,
        /// Processing time.
        ptime: f64,
    },
    /// A task finished (projected at dispatch for immediate dispatch).
    TaskCompletion {
        /// Sequence number.
        task: u64,
        /// Machine it ran on.
        machine: u32,
        /// Completion time.
        at: f64,
        /// Flow time `completion − release`.
        flow: f64,
    },
    /// A machine went idle→busy.
    MachineBusy {
        /// Machine index.
        machine: u32,
        /// Transition time.
        at: f64,
    },
    /// A machine went busy→idle.
    MachineIdle {
        /// Machine index.
        machine: u32,
        /// Transition time.
        at: f64,
    },
    /// A machine crashed (fault injection): it leaves every processing
    /// set until the matching [`Event::MachineRecover`].
    MachineCrash {
        /// Machine index.
        machine: u32,
        /// Crash time.
        at: f64,
    },
    /// A machine recovered from a crash (fault injection).
    MachineRecover {
        /// Machine index.
        machine: u32,
        /// Recovery time.
        at: f64,
    },
    /// The run's flow-time ratio crossed a paper envelope, as reported
    /// through [`Recorder::slo_breach`](crate::Recorder::slo_breach).
    SloBreach {
        /// Sim-time at which the breach was evaluated.
        at: f64,
        /// Observed `Fmax` over a lower bound on the optimum.
        ratio: f64,
        /// The envelope that was crossed (e.g. `3 − 2/k`).
        bound: f64,
    },
    /// A solver probe ran (λ-feasibility check, LP solve, matching solve).
    SolverProbe {
        /// What kind of probe.
        kind: ProbeKind,
        /// Iteration count the probe spent (augmentations, pivots, phases).
        iterations: u64,
        /// Probe argument or result (λ for feasibility probes, objective
        /// for LP solves, matching size for matching solves).
        value: f64,
    },
}

impl Event {
    /// The timestamp the event carries (`NaN`-free by construction);
    /// solver probes are timeless and report 0.
    pub fn time(&self) -> f64 {
        match *self {
            Event::TaskArrival { at, .. }
            | Event::TaskCompletion { at, .. }
            | Event::MachineBusy { at, .. }
            | Event::MachineIdle { at, .. }
            | Event::MachineCrash { at, .. }
            | Event::MachineRecover { at, .. }
            | Event::SloBreach { at, .. } => at,
            Event::TaskDispatch { start, .. } => start,
            Event::SolverProbe { .. } => 0.0,
        }
    }
}

/// Which solver emitted a [`Event::SolverProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// Max-flow λ-feasibility probe (`loadflow::MaxLoadProber`).
    LoadFeasibility,
    /// Two-phase simplex LP solve (`loadflow::max_load_lp`).
    SimplexSolve,
    /// Hopcroft–Karp matching solve (`matching::BipartiteMatcher`).
    MatchingSolve,
}

impl ProbeKind {
    /// Every kind, in snapshot order.
    pub const ALL: [ProbeKind; 3] = [
        ProbeKind::LoadFeasibility,
        ProbeKind::SimplexSolve,
        ProbeKind::MatchingSolve,
    ];

    /// Stable snake_case identifier.
    pub fn name(self) -> &'static str {
        match self {
            ProbeKind::LoadFeasibility => "load_feasibility",
            ProbeKind::SimplexSolve => "simplex_solve",
            ProbeKind::MatchingSolve => "matching_solve",
        }
    }
}

/// Fixed-capacity event ring: the newest `capacity` events win, the
/// oldest are overwritten (and counted as dropped). The buffer is
/// allocated once at construction; `push` never allocates.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<Event>,
    /// Index of the oldest retained event when the ring has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring retaining the newest `capacity` events.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring needs a positive capacity");
        EventRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting the oldest when full. Returns
    /// `true` when an old event was overwritten (dropped), so callers
    /// that keep a loss counter (e.g. `Counter::TraceEventsDropped`)
    /// can bump it without re-reading [`EventRing::dropped`].
    #[inline]
    pub fn push(&mut self, ev: Event) -> bool {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            let next = self.head + 1;
            self.head = if next == self.capacity { 0 } else { next };
            self.dropped += 1;
            true
        }
    }

    /// Appends every event `other` retained (oldest → newest) and folds
    /// `other`'s already-dropped count into this ring's, so the merged
    /// ring reports the union's total loss. Returns how many events were
    /// *freshly* overwritten by the appends themselves (the carried
    /// losses are `other.dropped()`).
    pub fn extend_from(&mut self, other: &EventRing) -> u64 {
        let mut fresh = 0;
        for &ev in other.iter() {
            if self.push(ev) {
                fresh += 1;
            }
        }
        self.dropped += other.dropped;
        fresh
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates retained events oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + '_ {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// Retained events oldest → newest as an owned vector.
    pub fn to_vec(&self) -> Vec<Event> {
        self.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(task: u64) -> Event {
        Event::TaskArrival {
            task,
            at: task as f64,
        }
    }

    #[test]
    fn retains_everything_below_capacity() {
        let mut r = EventRing::new(8);
        for i in 0..5 {
            r.push(arrival(i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let tasks: Vec<u64> = r
            .iter()
            .map(|e| match e {
                Event::TaskArrival { task, .. } => *task,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tasks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut r = EventRing::new(3);
        for i in 0..7 {
            r.push(arrival(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 4);
        let tasks: Vec<u64> = r
            .to_vec()
            .iter()
            .map(|e| match e {
                Event::TaskArrival { task, .. } => *task,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tasks, vec![4, 5, 6]);
    }

    #[test]
    fn wraps_repeatedly_in_order() {
        for capacity in [1, 2, 3] {
            let mut r = EventRing::new(capacity);
            for i in 0..100 {
                r.push(arrival(i));
                let tasks: Vec<u64> = r
                    .iter()
                    .map(|e| match e {
                        Event::TaskArrival { task, .. } => *task,
                        _ => unreachable!(),
                    })
                    .collect();
                let newest: Vec<u64> = ((i + 1).saturating_sub(capacity as u64)..=i).collect();
                assert_eq!(
                    tasks, newest,
                    "capacity {capacity}: the newest events, oldest first"
                );
            }
            assert_eq!(r.dropped(), 100 - capacity as u64);
        }
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = EventRing::new(0);
    }

    #[test]
    fn push_reports_overwrites() {
        let mut r = EventRing::new(2);
        assert!(!r.push(arrival(0)));
        assert!(!r.push(arrival(1)));
        assert!(r.push(arrival(2)));
    }

    #[test]
    fn extend_from_concatenates_and_carries_losses() {
        let mut a = EventRing::new(8);
        a.push(arrival(0));
        let mut b = EventRing::new(2);
        for i in 10..15 {
            b.push(arrival(i)); // retains 13, 14; drops 3
        }
        let fresh = a.extend_from(&b);
        assert_eq!(fresh, 0, "capacity 8 absorbs both retained events");
        assert_eq!(a.len(), 3);
        assert_eq!(a.dropped(), 3, "b's losses carry over");
        let tasks: Vec<u64> = a
            .iter()
            .map(|e| match e {
                Event::TaskArrival { task, .. } => *task,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tasks, vec![0, 13, 14]);
    }
}

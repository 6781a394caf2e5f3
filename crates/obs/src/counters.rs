//! Monotonic event counters.
//!
//! A fixed, closed set of counters keeps the storage a flat array — one
//! add is an indexed `u64` increment, no hashing, no allocation — while
//! staying self-describing through [`Counter::name`] for snapshots and
//! summaries. Counters only ever increase; `tests/obs_invariants.rs`
//! pins that monotonicity through the public recorder API.

/// Everything the instrumented engines count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Tasks released to a scheduling engine.
    TasksArrived,
    /// Tasks irrevocably placed on a machine.
    TasksDispatched,
    /// Task completions (projected at dispatch time for immediate-dispatch
    /// engines, actual for the FIFO event loop).
    TasksCompleted,
    /// Idle→busy machine transitions.
    MachineBusyTransitions,
    /// Busy→idle machine transitions.
    MachineIdleTransitions,
    /// Machine crashes injected by a fault plan.
    MachineCrashes,
    /// Machine recoveries injected by a fault plan.
    MachineRecoveries,
    /// λ-feasibility probes answered by the max-flow oracle.
    LoadProbes,
    /// Dinic augmenting-path searches across all load probes.
    FlowAugmentations,
    /// Simplex pivots across all LP solves.
    SimplexPivots,
    /// Hopcroft–Karp BFS phases across all matching solves.
    MatchingPhases,
    /// Successful augmenting paths across all matching solves.
    MatchingAugmentations,
    /// Trace events overwritten because the ring buffer was full.
    TraceEventsDropped,
    /// Dispatches the indexed EFT kernel answered from its lane index
    /// (interval, prefix and ring sets).
    IndexedDescents,
    /// Dispatches the indexed EFT kernel left to the member scan
    /// (explicit sets, which the lane index cannot answer).
    ScalarFallbackScans,
    /// SLO envelope breaches reported through
    /// [`Recorder::slo_breach`](crate::Recorder::slo_breach).
    SloBreaches,
}

impl Counter {
    /// Every counter, in snapshot order.
    pub const ALL: [Counter; 16] = [
        Counter::TasksArrived,
        Counter::TasksDispatched,
        Counter::TasksCompleted,
        Counter::MachineBusyTransitions,
        Counter::MachineIdleTransitions,
        Counter::MachineCrashes,
        Counter::MachineRecoveries,
        Counter::LoadProbes,
        Counter::FlowAugmentations,
        Counter::SimplexPivots,
        Counter::MatchingPhases,
        Counter::MatchingAugmentations,
        Counter::TraceEventsDropped,
        Counter::IndexedDescents,
        Counter::ScalarFallbackScans,
        Counter::SloBreaches,
    ];

    /// Stable snake_case identifier used in snapshots and summaries.
    pub fn name(self) -> &'static str {
        match self {
            Counter::TasksArrived => "tasks_arrived",
            Counter::TasksDispatched => "tasks_dispatched",
            Counter::TasksCompleted => "tasks_completed",
            Counter::MachineBusyTransitions => "machine_busy_transitions",
            Counter::MachineIdleTransitions => "machine_idle_transitions",
            Counter::MachineCrashes => "machine_crashes",
            Counter::MachineRecoveries => "machine_recoveries",
            Counter::LoadProbes => "load_probes",
            Counter::FlowAugmentations => "flow_augmentations",
            Counter::SimplexPivots => "simplex_pivots",
            Counter::MatchingPhases => "matching_phases",
            Counter::MatchingAugmentations => "matching_augmentations",
            Counter::TraceEventsDropped => "trace_events_dropped",
            Counter::IndexedDescents => "indexed_descents",
            Counter::ScalarFallbackScans => "scalar_fallback_scans",
            Counter::SloBreaches => "slo_breaches",
        }
    }

    /// One-line Prometheus `# HELP` text for the exposition format.
    pub fn help(self) -> &'static str {
        match self {
            Counter::TasksArrived => "Tasks released to a scheduling engine.",
            Counter::TasksDispatched => "Tasks irrevocably placed on a machine.",
            Counter::TasksCompleted => {
                "Task completions (projected at dispatch for immediate-dispatch engines)."
            }
            Counter::MachineBusyTransitions => "Idle-to-busy machine transitions.",
            Counter::MachineIdleTransitions => "Busy-to-idle machine transitions.",
            Counter::MachineCrashes => "Machine crashes injected by a fault plan.",
            Counter::MachineRecoveries => "Machine recoveries injected by a fault plan.",
            Counter::LoadProbes => "Lambda-feasibility probes answered by the max-flow oracle.",
            Counter::FlowAugmentations => "Dinic augmenting-path searches across all load probes.",
            Counter::SimplexPivots => "Simplex pivots across all LP solves.",
            Counter::MatchingPhases => "Hopcroft-Karp BFS phases across all matching solves.",
            Counter::MatchingAugmentations => {
                "Successful augmenting paths across all matching solves."
            }
            Counter::TraceEventsDropped => {
                "Trace events overwritten because the ring buffer was full."
            }
            Counter::IndexedDescents => {
                "Dispatches the indexed EFT kernel answered from its lane index."
            }
            Counter::ScalarFallbackScans => {
                "Explicit-set dispatches the indexed EFT kernel left to the member scan."
            }
            Counter::SloBreaches => "SLO envelope breaches reported to the recorder.",
        }
    }

    fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|&c| c == self)
            .expect("every counter is in ALL")
    }
}

/// A flat bank of monotonic counters.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    values: [u64; Counter::ALL.len()],
}

impl Counters {
    /// All-zero counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `delta` to a counter (saturating; counters never wrap back
    /// down, preserving monotonicity even in pathological runs).
    #[inline]
    pub fn add(&mut self, c: Counter, delta: u64) {
        let v = &mut self.values[c.index()];
        *v = v.saturating_add(delta);
    }

    /// Current value of a counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c.index()]
    }

    /// Iterates `(counter, value)` in snapshot order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Iterates only the counters that fired.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        self.iter().filter(|&(_, v)| v > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_accumulate() {
        let mut c = Counters::new();
        for (_, v) in c.iter() {
            assert_eq!(v, 0);
        }
        c.add(Counter::TasksArrived, 3);
        c.add(Counter::TasksArrived, 2);
        assert_eq!(c.get(Counter::TasksArrived), 5);
        assert_eq!(c.get(Counter::TasksDispatched), 0);
    }

    #[test]
    fn saturating_add_never_wraps() {
        let mut c = Counters::new();
        c.add(Counter::SimplexPivots, u64::MAX);
        c.add(Counter::SimplexPivots, 10);
        assert_eq!(c.get(Counter::SimplexPivots), u64::MAX);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn nonzero_iteration_skips_untouched() {
        let mut c = Counters::new();
        c.add(Counter::LoadProbes, 7);
        let fired: Vec<_> = c.iter_nonzero().collect();
        assert_eq!(fired, vec![(Counter::LoadProbes, 7)]);
    }
}

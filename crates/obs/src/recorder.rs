//! The [`Recorder`] trait and its zero-cost no-op implementation.
//!
//! Instrumented hot paths are generic over `R: Recorder` and guard any
//! non-trivial argument computation behind `R::ENABLED`. With
//! [`NoopRecorder`] every hook body is empty and `ENABLED` is a
//! compile-time `false`, so monomorphization deletes both the calls and
//! the guarded argument computation — the instrumented code is the
//! uninstrumented code. `tests/obs_invariants.rs` pins the behavioural
//! half of that claim (identical schedules). On the performance ledger,
//! `observed_m256` minus `disjoint_m256` (the same inputs under a real
//! recorder and under `NoopRecorder`) is the recorder's cost.

use crate::counters::Counter;
use crate::event::ProbeKind;

/// Sink for instrumentation hooks.
///
/// All payloads are primitives the engines already have in registers;
/// hooks must be cheap and must not influence engine behaviour (in
/// particular they see tie-break outcomes, never alter them).
pub trait Recorder {
    /// `false` only for the no-op recorder: lets hot paths skip argument
    /// preparation entirely (`if R::ENABLED { … }` folds to nothing).
    const ENABLED: bool = true;

    /// A task was released. `task` is the engine's dispatch sequence
    /// number (== instance `TaskId` when fed in release order).
    fn task_arrival(&mut self, task: u64, at: f64);

    /// A task was placed on `machine`, starting service at `start`.
    fn task_dispatch(&mut self, task: u64, machine: u32, release: f64, start: f64, ptime: f64);

    /// `machine` transitioned idle→busy at `at`.
    fn machine_busy(&mut self, machine: u32, at: f64);

    /// `machine` transitioned busy→idle at `at`.
    fn machine_idle(&mut self, machine: u32, at: f64);

    /// `machine` crashed at `at` (fault injection). Defaulted to a no-op
    /// so recorders that predate the fault layer keep compiling; trace
    /// recorders override it to emit lifecycle events.
    #[inline(always)]
    fn machine_crash(&mut self, machine: u32, at: f64) {
        let _ = (machine, at);
    }

    /// `machine` recovered at `at` (fault injection). Defaulted like
    /// [`machine_crash`](Recorder::machine_crash).
    #[inline(always)]
    fn machine_recover(&mut self, machine: u32, at: f64) {
        let _ = (machine, at);
    }

    /// The run's flow-time `ratio` (its `Fmax` over a lower bound on the
    /// optimum) crossed the paper envelope `bound` at sim-time `at`. No
    /// engine in the workspace calls it yet. Defaulted to a no-op like
    /// [`machine_crash`](Recorder::machine_crash); trace recorders
    /// override it to count the breach and emit an
    /// [`Event::SloBreach`](crate::Event::SloBreach).
    #[inline(always)]
    fn slo_breach(&mut self, at: f64, ratio: f64, bound: f64) {
        let _ = (at, ratio, bound);
    }

    /// A solver probe finished after `iterations` units of work with
    /// result/argument `value`.
    fn probe(&mut self, kind: ProbeKind, iterations: u64, value: f64);

    /// Bumps a counter.
    fn add(&mut self, c: Counter, delta: u64);
}

/// The recorder that records nothing, at no cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn task_arrival(&mut self, _task: u64, _at: f64) {}

    #[inline(always)]
    fn task_dispatch(
        &mut self,
        _task: u64,
        _machine: u32,
        _release: f64,
        _start: f64,
        _ptime: f64,
    ) {
    }

    #[inline(always)]
    fn machine_busy(&mut self, _machine: u32, _at: f64) {}

    #[inline(always)]
    fn machine_idle(&mut self, _machine: u32, _at: f64) {}

    #[inline(always)]
    fn probe(&mut self, _kind: ProbeKind, _iterations: u64, _value: f64) {}

    #[inline(always)]
    fn add(&mut self, _c: Counter, _delta: u64) {}
}

/// Fans every hook out to two recorders, so one instrumented run can
/// feed e.g. a [`MemoryRecorder`](crate::memory::MemoryRecorder)
/// (aggregates + trace) and a
/// [`WindowedMetrics`](crate::window::WindowedMetrics) (time series)
/// simultaneously. `ENABLED` is the OR of the halves, so
/// `Tee<NoopRecorder, NoopRecorder>` keeps the zero-cost contract and a
/// half that is a no-op costs nothing beyond the other half.
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(
    /// First recorder; hooks reach it before the second.
    pub A,
    /// Second recorder.
    pub B,
);

impl<A: Recorder, B: Recorder> Recorder for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn task_arrival(&mut self, task: u64, at: f64) {
        self.0.task_arrival(task, at);
        self.1.task_arrival(task, at);
    }

    #[inline]
    fn task_dispatch(&mut self, task: u64, machine: u32, release: f64, start: f64, ptime: f64) {
        self.0.task_dispatch(task, machine, release, start, ptime);
        self.1.task_dispatch(task, machine, release, start, ptime);
    }

    #[inline]
    fn machine_busy(&mut self, machine: u32, at: f64) {
        self.0.machine_busy(machine, at);
        self.1.machine_busy(machine, at);
    }

    #[inline]
    fn machine_idle(&mut self, machine: u32, at: f64) {
        self.0.machine_idle(machine, at);
        self.1.machine_idle(machine, at);
    }

    #[inline]
    fn machine_crash(&mut self, machine: u32, at: f64) {
        self.0.machine_crash(machine, at);
        self.1.machine_crash(machine, at);
    }

    #[inline]
    fn machine_recover(&mut self, machine: u32, at: f64) {
        self.0.machine_recover(machine, at);
        self.1.machine_recover(machine, at);
    }

    #[inline]
    fn slo_breach(&mut self, at: f64, ratio: f64, bound: f64) {
        self.0.slo_breach(at, ratio, bound);
        self.1.slo_breach(at, ratio, bound);
    }

    #[inline]
    fn probe(&mut self, kind: ProbeKind, iterations: u64, value: f64) {
        self.0.probe(kind, iterations, value);
        self.1.probe(kind, iterations, value);
    }

    #[inline]
    fn add(&mut self, c: Counter, delta: u64) {
        self.0.add(c, delta);
        self.1.add(c, delta);
    }
}

/// Forwarding through `&mut R` so engines can take `rec: &mut R` and
/// hand it down to helpers without re-borrow gymnastics. `ENABLED`
/// propagates, so `&mut NoopRecorder` is just as free as `NoopRecorder`.
impl<R: Recorder> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    #[inline(always)]
    fn task_arrival(&mut self, task: u64, at: f64) {
        (**self).task_arrival(task, at);
    }

    #[inline(always)]
    fn task_dispatch(&mut self, task: u64, machine: u32, release: f64, start: f64, ptime: f64) {
        (**self).task_dispatch(task, machine, release, start, ptime);
    }

    #[inline(always)]
    fn machine_busy(&mut self, machine: u32, at: f64) {
        (**self).machine_busy(machine, at);
    }

    #[inline(always)]
    fn machine_idle(&mut self, machine: u32, at: f64) {
        (**self).machine_idle(machine, at);
    }

    #[inline(always)]
    fn machine_crash(&mut self, machine: u32, at: f64) {
        (**self).machine_crash(machine, at);
    }

    #[inline(always)]
    fn machine_recover(&mut self, machine: u32, at: f64) {
        (**self).machine_recover(machine, at);
    }

    #[inline(always)]
    fn slo_breach(&mut self, at: f64, ratio: f64, bound: f64) {
        (**self).slo_breach(at, ratio, bound);
    }

    #[inline(always)]
    fn probe(&mut self, kind: ProbeKind, iterations: u64, value: f64) {
        (**self).probe(kind, iterations, value);
    }

    #[inline(always)]
    fn add(&mut self, c: Counter, delta: u64) {
        (**self).add(c, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_of<R: Recorder>(_r: &R) -> bool {
        R::ENABLED
    }

    #[test]
    fn noop_is_disabled_at_compile_time() {
        assert!(!enabled_of(&NoopRecorder));
        // Calls are accepted and do nothing.
        let mut r = NoopRecorder;
        r.task_arrival(0, 0.0);
        r.task_dispatch(0, 0, 0.0, 0.0, 1.0);
        r.machine_busy(0, 0.0);
        r.machine_idle(0, 1.0);
        r.probe(ProbeKind::SimplexSolve, 3, 1.5);
        r.add(Counter::TasksArrived, 1);
    }

    #[test]
    fn tee_reaches_both_recorders_and_ors_enabled() {
        use crate::memory::MemoryRecorder;
        let mut tee = Tee(MemoryRecorder::with_defaults(1), NoopRecorder);
        assert!(enabled_of(&tee));
        assert!(!enabled_of(&Tee(NoopRecorder, NoopRecorder)));
        tee.task_arrival(0, 0.0);
        tee.add(Counter::TasksArrived, 4);
        assert_eq!(tee.0.counters().get(Counter::TasksArrived), 5);
    }

    #[test]
    fn mut_ref_forwarding_reaches_the_recorder() {
        use crate::memory::MemoryRecorder;
        // Drive through a generic parameter so the `&mut R` blanket impl
        // (not the base impl via auto-deref) is the one exercised.
        fn drive<R: Recorder>(mut r: R) {
            r.task_arrival(0, 0.0);
            r.add(Counter::TasksArrived, 2);
        }
        let mut rec = MemoryRecorder::with_defaults(2);
        drive(&mut rec);
        assert!(enabled_of(&&mut rec));
        assert_eq!(rec.counters().get(Counter::TasksArrived), 3);
    }
}

//! The ledger's dispatch sink: validates every committed assignment,
//! folds a schedule hash, clocks batches of commits, and hands each
//! assignment on to the sink under test (the `sim` layer's
//! `ReportBuilder`, possibly wrapped for tracing).

use std::time::Instant;

use flowsched_algos::engine::DispatchSink;
use flowsched_core::fault::FaultPlan;
use flowsched_core::schedule::Assignment;
use flowsched_core::task::Task;

/// Commits per batch-clock sample (`batch_us_p50` is per this many).
pub const BATCH: u64 = 1024;

/// Tasks after which the running hash is remembered, so a long sharded
/// run can be checked against a short sequential reference: an online
/// schedule's first `PREFIX_TASKS` decisions do not depend on later
/// arrivals.
pub const PREFIX_TASKS: u64 = 1 << 16;

/// Most violations kept verbatim; later ones are only counted.
const KEPT_ERRORS: usize = 8;

/// Order-sensitive 64-bit schedule hash, one multiply per word.
///
/// Every step (xor, odd multiply, rotate) is a bijection of the state,
/// so changing any single word of the schedule changes the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleHash(pub u64);

impl Default for ScheduleHash {
    fn default() -> Self {
        ScheduleHash(0x243F_6A88_85A3_08D3)
    }
}

impl ScheduleHash {
    #[inline(always)]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }

    /// Folds one committed task: `(seq, release, ptime, machine, start)`.
    #[inline(always)]
    pub fn fold(&mut self, seq: u64, task: &Task, a: &Assignment) {
        self.mix(seq);
        self.mix(task.release.to_bits());
        self.mix(task.ptime.to_bits());
        self.mix(a.machine.index() as u64);
        self.mix(a.start.to_bits());
    }
}

/// Validating, hashing, batch-clocking sink wrapper.
///
/// Per task it checks that the machine index is below `m`, that the
/// task starts no earlier than its release and than the machine's
/// previous completion, and — when a fault plan is given — that the
/// whole service window avoids the machine's outages.
pub struct LedgerSink<'p, K> {
    inner: K,
    prev_done: Vec<f64>,
    plan: Option<&'p FaultPlan>,
    hash: ScheduleHash,
    prefix_hash: Option<ScheduleHash>,
    count: u64,
    violations: u64,
    errors: Vec<String>,
    batch_start: Instant,
    batch_ns: Vec<u64>,
}

impl<'p, K: DispatchSink> LedgerSink<'p, K> {
    /// A sink for a run of `n` tasks on `m` machines.
    pub fn new(inner: K, m: usize, n: usize, plan: Option<&'p FaultPlan>) -> Self {
        LedgerSink {
            inner,
            prev_done: vec![0.0; m],
            plan,
            hash: ScheduleHash::default(),
            prefix_hash: None,
            count: 0,
            violations: 0,
            errors: Vec::new(),
            batch_start: Instant::now(),
            batch_ns: Vec::with_capacity(n / BATCH as usize + 1),
        }
    }

    /// The same sink around a different inner sink (how the traced pass
    /// slips a timing wrapper in front of the `ReportBuilder`).
    pub fn wrap<K2>(self, f: impl FnOnce(K) -> K2) -> LedgerSink<'p, K2> {
        LedgerSink {
            inner: f(self.inner),
            prev_done: self.prev_done,
            plan: self.plan,
            hash: self.hash,
            prefix_hash: self.prefix_hash,
            count: self.count,
            violations: self.violations,
            errors: self.errors,
            batch_start: self.batch_start,
            batch_ns: self.batch_ns,
        }
    }

    /// Restarts the batch clock; call right before the run starts.
    pub fn start_clock(&mut self) {
        self.batch_start = Instant::now();
    }

    /// Tasks committed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Hash over every committed task.
    pub fn hash(&self) -> ScheduleHash {
        self.hash
    }

    /// Hash over the first [`PREFIX_TASKS`] tasks, or over every task
    /// while fewer have run.
    pub fn prefix_hash(&self) -> ScheduleHash {
        self.prefix_hash.unwrap_or(self.hash)
    }

    /// Takes the wall time of each full batch of [`BATCH`] commits so
    /// far, in ns.
    pub fn take_batch_ns(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.batch_ns)
    }

    /// Every check that failed (the first few verbatim, then a count).
    pub fn errors(&self) -> Vec<String> {
        let mut out = self.errors.clone();
        if self.violations > self.errors.len() as u64 {
            out.push(format!(
                "{} more violations",
                self.violations - self.errors.len() as u64
            ));
        }
        out
    }

    /// The sink under test.
    pub fn into_inner(self) -> K {
        self.inner
    }

    fn violation(&mut self, msg: impl FnOnce() -> String) {
        self.violations += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(msg());
        }
    }
}

impl<K: DispatchSink> DispatchSink for LedgerSink<'_, K> {
    #[inline]
    fn accept(&mut self, seq: u64, task: Task, a: Assignment) {
        let j = a.machine.index();
        if j >= self.prev_done.len() {
            let m = self.prev_done.len();
            self.violation(|| format!("task {seq}: machine {j} is not below m = {m}"));
            return;
        }
        if a.start < task.release {
            self.violation(|| {
                format!(
                    "task {seq}: starts at {} before its release {}",
                    a.start, task.release
                )
            });
        }
        let prev = self.prev_done[j];
        if a.start < prev {
            self.violation(|| {
                format!(
                    "task {seq}: starts at {} on machine {j}, busy until {prev}",
                    a.start
                )
            });
        }
        if let Some(plan) = self.plan {
            if plan.earliest_fit(j, a.start, task.ptime) != a.start {
                self.violation(|| {
                    format!(
                        "task {seq}: service [{}, {}) on machine {j} crosses an outage",
                        a.start,
                        a.start + task.ptime
                    )
                });
            }
        }
        self.prev_done[j] = a.start + task.ptime;
        self.hash.fold(seq, &task, &a);
        self.count += 1;
        if self.count == PREFIX_TASKS {
            self.prefix_hash = Some(self.hash);
        }
        if self.count.is_multiple_of(BATCH) {
            let now = Instant::now();
            self.batch_ns
                .push((now - self.batch_start).as_nanos() as u64);
            self.batch_start = now;
        }
        self.inner.accept(seq, task, a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::engine::NullSink;
    use flowsched_core::machine::MachineId;

    fn commit(sink: &mut LedgerSink<'_, NullSink>, seq: u64, r: f64, p: f64, j: usize, s: f64) {
        sink.accept(seq, Task::new(r, p), Assignment::new(MachineId(j), s));
    }

    #[test]
    fn a_valid_schedule_passes() {
        let mut sink = LedgerSink::new(NullSink, 2, 4, None);
        commit(&mut sink, 0, 0.0, 1.0, 0, 0.0);
        commit(&mut sink, 1, 0.0, 1.0, 1, 0.0);
        commit(&mut sink, 2, 0.5, 1.0, 0, 1.0);
        assert!(sink.errors().is_empty(), "{:?}", sink.errors());
        assert_eq!(sink.count(), 3);
    }

    #[test]
    fn rejects_an_injected_overlap() {
        let mut sink = LedgerSink::new(NullSink, 2, 4, None);
        commit(&mut sink, 0, 0.0, 2.0, 0, 0.0);
        commit(&mut sink, 1, 0.5, 1.0, 0, 1.0);
        let errors = sink.errors();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("busy until 2"), "{errors:?}");
    }

    #[test]
    fn rejects_a_start_before_release_and_a_bad_machine() {
        let mut sink = LedgerSink::new(NullSink, 2, 4, None);
        commit(&mut sink, 0, 3.0, 1.0, 1, 2.0);
        commit(&mut sink, 1, 3.0, 1.0, 2, 3.0);
        let errors = sink.errors();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("before its release"));
        assert!(errors[1].contains("not below m = 2"));
    }

    #[test]
    fn rejects_an_injected_start_inside_an_outage() {
        let plan = FaultPlan::none(2).with_outage(1, 2.0, 5.0);
        let mut sink = LedgerSink::new(NullSink, 2, 4, Some(&plan));
        // Ends exactly as the outage begins: allowed.
        commit(&mut sink, 0, 0.0, 2.0, 1, 0.0);
        // Starts inside [2, 5): rejected.
        commit(&mut sink, 1, 0.0, 1.0, 1, 3.0);
        // After recovery: allowed.
        commit(&mut sink, 2, 5.5, 1.0, 1, 5.5);
        let errors = sink.errors();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("crosses an outage"));

        // Starts while alive but runs into the outage: rejected.
        let mut sink = LedgerSink::new(NullSink, 2, 4, Some(&plan));
        commit(&mut sink, 0, 0.0, 3.0, 1, 0.0);
        assert_eq!(sink.errors().len(), 1);
    }

    #[test]
    fn hash_is_order_and_value_sensitive() {
        let t = Task::new(0.0, 1.0);
        let a = Assignment::new(MachineId(0), 0.0);
        let b = Assignment::new(MachineId(1), 0.0);
        let mut h1 = ScheduleHash::default();
        h1.fold(0, &t, &a);
        h1.fold(1, &t, &b);
        let mut h2 = ScheduleHash::default();
        h2.fold(0, &t, &b);
        h2.fold(1, &t, &a);
        assert_ne!(h1, h2);
        let mut h3 = ScheduleHash::default();
        h3.fold(0, &t, &a);
        h3.fold(1, &t, &b);
        assert_eq!(h1, h3);
    }
}

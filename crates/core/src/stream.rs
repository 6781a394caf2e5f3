//! Lazy arrival streams — the online view of an instance.
//!
//! The paper's setting is genuinely online (`P | online-rᵢ, Mᵢ | Fmax`):
//! tasks are revealed only at their release times. [`ArrivalStream`] is
//! the pull-based contract for that model — a source of `(Task, ProcSet)`
//! pairs in non-decreasing release order, consumed one arrival at a time.
//! Engines that drive a stream (see `flowsched_algos::engine`) hold state
//! bounded by the number of machines plus a live window, never by the
//! total number of tasks, which is what unlocks million-task
//! constant-memory runs.
//!
//! The trait is *lending*: [`next_arrival`](ArrivalStream::next_arrival)
//! returns the processing set as a borrowed [`ProcSetRef`] view, valid
//! until the next pull. Structured generators (interval, ring, prefix
//! sets) describe the set in O(1) without materializing members at all;
//! fallback generators keep one scratch [`ProcSet`] and lend its view,
//! and the [`InstanceStream`] adapter hands out views straight into the
//! backing [`Instance`], so replaying a materialized instance through a
//! streaming engine costs no per-task allocation.

use crate::compact::ProcSetRef;
use crate::error::CoreError;
use crate::instance::Instance;
use crate::procset::ProcSet;
use crate::shard::ShardPlan;
use crate::structure::{classify, StructureReport};
use crate::task::{Task, TaskId};

/// A pull-based source of task arrivals in non-decreasing release order.
///
/// Implementors must yield tasks with `release` values that never
/// decrease from one pull to the next; engines assert this (it is the
/// online arrival order the whole paper assumes, `i < j ⇒ rᵢ ≤ rⱼ`).
/// The returned set borrow ends at the next call, which lets generators
/// reuse a single scratch set — or lend a compact O(1) shape
/// description — instead of allocating per task.
pub trait ArrivalStream {
    /// Number of machines the arrivals' processing sets refer to.
    fn machines(&self) -> usize;

    /// Pulls the next arrival, or `None` when the stream is exhausted.
    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)>;

    /// Exact number of arrivals remaining, when the source knows it
    /// (bounded generators and instance adapters do; adaptive adversary
    /// streams may not). Used by streaming folds to size warmup windows.
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// What the source knows *a priori* about the structure of every
    /// set it will ever yield (the paper's families — Figure 1), or
    /// `None` when it cannot promise anything. The EFT dispatch kernel is
    /// chosen from this once, when the dispatcher is built, and never
    /// revised: no hint means the member scan. The hint must hold for
    /// the whole stream, so adaptive sources should stay with the
    /// default.
    fn structure_hint(&self) -> Option<StructureReport> {
        None
    }

    /// A machine partition (at most `max_shards` shards) that every
    /// future arrival's processing set fits inside — the contract the
    /// sharded engine routes by. The default is the always-valid
    /// single-shard plan; sources that know their family decomposes
    /// (disjoint blocks, bounded-hull intervals) override this to
    /// unlock parallel dispatch.
    fn shard_plan(&self, max_shards: usize) -> ShardPlan {
        let _ = max_shards;
        ShardPlan::single(self.machines())
    }
}

/// Forwarding impl so engines can take streams by value while callers
/// keep ownership (`run(&mut stream, …)`).
impl<S: ArrivalStream + ?Sized> ArrivalStream for &mut S {
    fn machines(&self) -> usize {
        (**self).machines()
    }

    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        (**self).next_arrival()
    }

    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }

    fn structure_hint(&self) -> Option<StructureReport> {
        (**self).structure_hint()
    }

    fn shard_plan(&self, max_shards: usize) -> ShardPlan {
        (**self).shard_plan(max_shards)
    }
}

/// Replays a materialized [`Instance`] as an arrival stream.
///
/// This is the backward-compatibility adapter: every batch entry point
/// (`eft(&inst, …)`, `fifo(&inst, …)`, `simulate(&inst, …)`) is now a
/// thin wrapper that wires an `InstanceStream` into the shared engine.
/// Sets are lent straight from the instance (as their compact views) —
/// no clones, no allocation.
#[derive(Debug, Clone)]
pub struct InstanceStream<'a> {
    inst: &'a Instance,
    next: usize,
}

impl<'a> InstanceStream<'a> {
    /// Streams `inst` from its first task.
    pub fn new(inst: &'a Instance) -> Self {
        InstanceStream { inst, next: 0 }
    }
}

impl ArrivalStream for InstanceStream<'_> {
    fn machines(&self) -> usize {
        self.inst.machines()
    }

    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        if self.next >= self.inst.len() {
            return None;
        }
        let id = TaskId(self.next);
        self.next += 1;
        let set = self.inst.set(id).compact_view(self.inst.machines());
        Some((self.inst.task(id), set))
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.inst.len() - self.next)
    }

    fn structure_hint(&self) -> Option<StructureReport> {
        // The whole instance is in hand, so the classifier's verdict is
        // exact. It is paid once per stream: a hashing pass over the sets,
        // then pairwise checks over the distinct ones only.
        Some(classify(self.inst.sets(), self.inst.machines()))
    }

    fn shard_plan(&self, max_shards: usize) -> ShardPlan {
        // Hull-connected components over the materialized family: valid
        // for any set shapes (an empty-set instance cannot exist, so
        // every hull is well-formed).
        ShardPlan::from_hulls(
            self.inst.machines(),
            self.inst.sets().iter().map(|s| {
                (
                    s.min().expect("instance sets are nonempty"),
                    s.max().unwrap(),
                )
            }),
            max_shards,
        )
    }
}

/// An arrival stream backed by a closure, for ad-hoc generators.
///
/// The closure returns owned `(Task, ProcSet)` pairs; `FnStream` parks
/// the set in its scratch slot and lends it out, satisfying the lending
/// contract without the closure having to manage a buffer.
pub struct FnStream<F> {
    m: usize,
    gen: F,
    scratch: ProcSet,
}

impl<F> FnStream<F>
where
    F: FnMut() -> Option<(Task, ProcSet)>,
{
    /// Wraps `gen` as a stream over `m` machines.
    pub fn new(m: usize, gen: F) -> Self {
        assert!(m > 0, "need at least one machine");
        FnStream {
            m,
            gen,
            scratch: ProcSet::full(1),
        }
    }
}

impl<F> ArrivalStream for FnStream<F>
where
    F: FnMut() -> Option<(Task, ProcSet)>,
{
    fn machines(&self) -> usize {
        self.m
    }

    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        let (task, set) = (self.gen)()?;
        self.scratch = set;
        Some((task, self.scratch.compact_view(self.m)))
    }
}

/// Drains a stream into a materialized [`Instance`] (clones every set).
///
/// The inverse of [`InstanceStream`] — useful in tests that compare the
/// streaming path against the batch path, and as an escape hatch for
/// analyses that genuinely need random access. This is the O(n)-memory
/// operation the streaming engines exist to avoid; prefer feeding the
/// stream to an engine directly.
pub fn collect_stream<S: ArrivalStream>(mut stream: S) -> Result<Instance, CoreError> {
    let m = stream.machines();
    let mut tasks = Vec::new();
    let mut sets = Vec::new();
    while let Some((task, set)) = stream.next_arrival() {
        tasks.push(task);
        sets.push(set.to_procset());
    }
    Instance::new(m, tasks, sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn sample() -> Instance {
        let mut b = InstanceBuilder::new(3);
        b.push(Task::new(0.0, 1.0), ProcSet::full(3));
        b.push(Task::new(0.5, 2.0), ProcSet::singleton(1));
        b.push(Task::new(2.0, 0.25), ProcSet::interval(0, 1));
        b.build().unwrap()
    }

    #[test]
    fn instance_stream_replays_the_instance_in_order() {
        let inst = sample();
        let mut s = InstanceStream::new(&inst);
        assert_eq!(s.machines(), 3);
        assert_eq!(s.len_hint(), Some(3));
        for (id, task, set) in inst.iter() {
            let (t, sref) = s.next_arrival().expect("stream ended early");
            assert_eq!((t.release, t.ptime), (task.release, task.ptime), "{id:?}");
            assert_eq!(sref, set);
        }
        assert!(s.next_arrival().is_none());
        assert_eq!(s.len_hint(), Some(0));
    }

    #[test]
    fn collect_round_trips_through_the_adapter() {
        let inst = sample();
        let back = collect_stream(InstanceStream::new(&inst)).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn fn_stream_lends_the_scratch_set() {
        let mut left = 4;
        let mut s = FnStream::new(2, move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            Some((Task::unit((4 - left) as f64), ProcSet::singleton(left % 2)))
        });
        let mut n = 0;
        let mut last = f64::NEG_INFINITY;
        while let Some((task, set)) = s.next_arrival() {
            assert!(task.release >= last);
            last = task.release;
            assert_eq!(set.len(), 1);
            n += 1;
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn instance_stream_hints_reflect_the_family() {
        // Two disjoint blocks {0,1} and {2}: disjoint + interval, and
        // the hull plan cuts between machines 1 and 2.
        let mut b = InstanceBuilder::new(3);
        b.push(Task::new(0.0, 1.0), ProcSet::interval(0, 1));
        b.push(Task::new(1.0, 1.0), ProcSet::singleton(2));
        let inst = b.build().unwrap();
        let s = InstanceStream::new(&inst);
        let hint = s
            .structure_hint()
            .expect("instance streams always classify");
        assert!(hint.disjoint && hint.interval);
        let plan = s.shard_plan(16);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.shard_of(1), 0);
        assert_eq!(plan.shard_of(2), 1);

        // The overlapping sample() family collapses to a single shard,
        // matching the trait default for sources with no knowledge.
        let inst = sample();
        assert!(InstanceStream::new(&inst).shard_plan(16).is_single());
        let mut left = 1;
        let f = FnStream::new(2, move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            Some((Task::unit(0.0), ProcSet::singleton(0)))
        });
        assert!(f.structure_hint().is_none());
        assert!(f.shard_plan(16).is_single());
    }

    #[test]
    fn mut_ref_forwarding_preserves_position() {
        fn pull_one<S: ArrivalStream>(mut s: S) {
            s.next_arrival().unwrap();
        }
        let inst = sample();
        let mut s = InstanceStream::new(&inst);
        pull_one(&mut s);
        assert_eq!(s.len_hint(), Some(2));
    }
}

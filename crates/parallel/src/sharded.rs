//! The sharded dispatch runtime: route arrivals to per-shard
//! dispatchers over bounded queues, merge results in arrival order.
//!
//! [`run_sharded_probed`] is the transport layer of the parallel
//! streaming engine. It owns everything concurrent — routing, batching,
//! backpressure, the in-order merge — and nothing algorithmic: the
//! caller lends one dispatcher closure per shard (in practice an EFT
//! kernel from `flowsched-algos`, which this crate must not depend on)
//! and a merge closure that sees `(seq, task, assignment)` in **strict
//! arrival order**, exactly as the sequential engine's sink does.
//!
//! # Ownership protocol
//!
//! A [`ShardPlan`] fixes a contiguous machine range per shard; shard
//! `s` runs on worker `s % workers` and its dispatcher sees machines
//! renumbered to `0..len_of(s)` (sets are rebased on the way in, the
//! chosen machine is rebased back on the way out). Workers are scoped
//! threads that borrow their shards' dispatchers for the call, so the
//! caller owns every dispatcher before and after it. Because the plan
//! guarantees every processing set fits inside one shard, no two
//! workers ever touch the same machine's state and no cross-shard
//! synchronization exists at all.
//!
//! # Why the merged run is bitwise-identical to sequential
//!
//! - The plan is a function of the *family*, never of the thread count,
//!   so routing is deterministic.
//! - Each worker processes its batches in send order, so shard `s`'s
//!   dispatcher sees exactly the subsequence of arrivals it would see
//!   sequentially, in the same order — and EFT's decision for a task
//!   depends only on its own shard's completion state (the paper's
//!   Equation (2) restricted to `Mᵢ`).
//! - The merge closure runs on the calling thread in arrival order, so
//!   order-sensitive folds (float summation in `SimReport`, recorder
//!   traces) observe the sequential event order. No message carries a
//!   sequence number: the router logs each routed task's worker in a
//!   FIFO, each worker returns its batches in send order with their
//!   results in task order, so the FIFO's front names the worker whose
//!   next unmerged result is the next in arrival order, and the merge
//!   passes the count of results merged so far as `seq`.
//!
//! # Backpressure and deadlock-freedom
//!
//! Every link is a bounded [`sync_channel`] of `queue_cap` batches, one
//! each way per worker. A batch makes a round trip: the worker turns
//! its tasks into results in place and sends it back, the router
//! merges straight out of it and recycles it through a free list, so
//! steady-state transport neither allocates nor copies. A task travels
//! as a 48-byte message whose set is `u32` fields (an explicit set is a
//! range of a member pool the batch carries and the worker lends from)
//! and comes back as a 40-byte result holding its task and assignment.
//! The round trip, not the bytes, is the cost: a worker that drains
//! its queue parks, and the router pays to wake it, so the default
//! sends 1024 tasks a trip over depth-1 queues. The router
//! polls for results once per batch it sends, and only ever *blocks*
//! on a worker that provably has work in flight (its input queue is
//! full, or the merge head was already flushed to it), so every
//! blocking wait is matched by a worker that will produce; a worker
//! that dies mid-run drops its result sender on unwind and the router
//! panics instead of hanging. The router lives inside the thread
//! scope: on return and on unwind alike it drops before the scope
//! joins, which closes every queue, so the workers exit, and the scope
//! then re-raises the router's own panic. In-flight state is capped at
//! the high-water mark of `(queue_cap + 2) · batch · workers` unmerged
//! tasks, 88 bytes each plus any explicit members — 6,144 tasks
//! (~0.5 MiB) at the default on two workers — and the free list holds
//! only batches that were once in flight, so the constant-memory
//! property of the streaming core survives.
//!
//! # Wall-clock observability
//!
//! A [`PipelineProbe`] is threaded through every stage: router batch
//! assembly ([`Stage::Route`]), blocking on a full queue
//! ([`Stage::EnqueueWait`], which also covers the result-draining done
//! while waiting), worker blocking on an empty input queue
//! ([`Stage::DequeueWait`]), per-batch kernel execution
//! ([`Stage::Dispatch`]), and the in-order merge ([`Stage::Merge`]) —
//! plus reorder-buffer depth, backpressure-stall, and forced-flush
//! gauges. [`NoopPipeline`](flowsched_obs::pipeline::NoopPipeline)'s
//! `ENABLED = false` folds every probe (including the clock reads)
//! away, so an unprobed run is the bare engine and schedules are never
//! perturbed.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

use flowsched_core::compact::ProcSetRef;
use flowsched_core::machine::MachineId;
use flowsched_core::schedule::Assignment;
use flowsched_core::shard::ShardPlan;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::task::Task;

use flowsched_obs::pipeline::{PipelineProbe, Stage, StageTimer};

/// Tuning knobs for [`run_sharded_probed`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Worker thread budget; the engine uses `min(threads, shards)`
    /// and runs inline (no threads at all) when that is ≤ 1.
    pub threads: usize,
    /// Tasks per routed batch. A batch's cost is its round trip, not its
    /// queue operations: a worker that empties its queue parks, and the
    /// router pays to wake it for the next batch, ~12 µs of CPU a trip on
    /// a 2-core host. On `sharded_m256_t2`, 1024 tasks a trip over
    /// depth-1 queues ran ~1.3× as fast as 256 × 4; 2048 grew peak RSS
    /// by ~19 % and ran no faster (EXPERIMENTS.md, "Fewer shard round
    /// trips", the sweep).
    pub batch: usize,
    /// Batches each bounded queue holds before its producer blocks.
    pub queue_cap: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            threads: crate::default_threads(),
            batch: 1024,
            queue_cap: 1,
        }
    }
}

impl ShardedConfig {
    /// The default configuration with an explicit thread budget.
    pub fn with_threads(threads: usize) -> Self {
        ShardedConfig {
            threads,
            ..ShardedConfig::default()
        }
    }
}

/// A routed arrival's set, pre-rebased to its shard's local machine
/// numbering so the worker does no plan arithmetic. Machine numbers
/// fit `u32` (checked once per run); an explicit set is the range
/// `from..to` of its batch's `members` pool.
#[derive(Clone, Copy)]
enum LocalSet {
    Interval { lo: u32, hi: u32 },
    Ring { start: u32, len: u32, m: u32 },
    Prefix { len: u32 },
    Explicit { from: u32, to: u32 },
}

impl LocalSet {
    /// `set` renumbered to the shard starting at `base`; an explicit
    /// set's members are appended to `members`.
    ///
    /// Only intervals and explicit sets can live in a shard with
    /// `base > 0`: prefixes and wrapping rings both contain machine 0,
    /// so they always route to the first shard.
    fn rebase(set: &ProcSetRef<'_>, base: usize, members: &mut Vec<usize>) -> LocalSet {
        match *set {
            ProcSetRef::Interval { lo, hi } => LocalSet::Interval {
                lo: (lo - base) as u32,
                hi: (hi - base) as u32,
            },
            ProcSetRef::Explicit(s) => {
                let from = members.len() as u32;
                members.extend(s.iter().map(|&j| j - base));
                let to = u32::try_from(members.len()).expect("a batch's explicit members fit u32");
                LocalSet::Explicit { from, to }
            }
            ProcSetRef::Prefix { len } if base == 0 => LocalSet::Prefix { len: len as u32 },
            ProcSetRef::Ring { start, len, m } if base == 0 => LocalSet::Ring {
                start: start as u32,
                len: len as u32,
                m: m as u32,
            },
            ProcSetRef::Prefix { .. } | ProcSetRef::Ring { .. } => {
                unreachable!("prefix/ring sets contain machine 0 and route to the base-0 shard")
            }
        }
    }

    /// Lends the set as a view, explicit members borrowed from `members`.
    fn view(self, members: &[usize]) -> ProcSetRef<'_> {
        match self {
            LocalSet::Interval { lo, hi } => ProcSetRef::Interval {
                lo: lo as usize,
                hi: hi as usize,
            },
            LocalSet::Ring { start, len, m } => ProcSetRef::Ring {
                start: start as usize,
                len: len as usize,
                m: m as usize,
            },
            LocalSet::Prefix { len } => ProcSetRef::Prefix { len: len as usize },
            LocalSet::Explicit { from, to } => {
                ProcSetRef::Explicit(&members[from as usize..to as usize])
            }
        }
    }
}

/// One routed arrival, 48 bytes. It carries no sequence number: the
/// router's `pending` FIFO and per-worker cursors fix where its result
/// merges.
struct TaskMsg {
    shard: u32,
    task: Task,
    set: LocalSet,
}

/// One dispatch decision, already rebased back to global machine ids,
/// with its task, so the merge reads one stream: 40 bytes.
struct ResultMsg {
    task: Task,
    assignment: Assignment,
}

/// The unit of transport, sent on a round trip: the router fills
/// `tasks` and, for explicit sets, `members`; the worker drains the
/// tasks into `results` in place, clears `members` and sends the same
/// batch back; and the router merges straight out of `results` before
/// it recycles the batch through its free list.
#[derive(Default)]
struct Batch {
    tasks: Vec<TaskMsg>,
    members: Vec<usize>,
    results: Vec<ResultMsg>,
}

/// Rebases a shard-local assignment to global machine numbering.
fn globalize(a: Assignment, base: usize) -> Assignment {
    Assignment::new(MachineId(a.machine.index() + base), a.start)
}

/// [`ShardPlan::route`] through a machine → shard table: two loads in
/// place of a binary search over the cuts. A set whose ends fall in
/// different shards, or outside the table, goes to `plan.route`, which
/// panics on it.
fn route_by_table(table: &[u32], plan: &ShardPlan, set: &ProcSetRef<'_>) -> usize {
    let shard = |end: Option<usize>| end.and_then(|j| table.get(j));
    match (shard(set.min()), shard(set.max())) {
        (Some(a), Some(b)) if a == b => *a as usize,
        _ => plan.route(set),
    }
}

/// Borrowed counterpart of [`LocalSet::rebase`] for the inline path, using
/// `scratch` to renumber explicit sets without allocating per task.
fn rebase_view<'a>(
    set: ProcSetRef<'a>,
    base: usize,
    scratch: &'a mut Vec<usize>,
) -> ProcSetRef<'a> {
    if base == 0 {
        return set;
    }
    match set {
        ProcSetRef::Interval { lo, hi } => ProcSetRef::Interval {
            lo: lo - base,
            hi: hi - base,
        },
        ProcSetRef::Explicit(s) => {
            scratch.clear();
            scratch.extend(s.iter().map(|&j| j - base));
            ProcSetRef::Explicit(scratch)
        }
        ProcSetRef::Prefix { .. } | ProcSetRef::Ring { .. } => {
            unreachable!("prefix/ring sets contain machine 0 and route to the base-0 shard")
        }
    }
}

/// Routes every arrival of `stream` to its shard's dispatcher and
/// replays the decisions to `merge` in strict arrival order, with a
/// wall-clock [`PipelineProbe`] observing every stage of the transport
/// (see the module docs for the stage map).
///
/// `dispatchers[s]` serves shard `s` in local machine numbering
/// `0..plan.len_of(s)`; `merge` sees global machine ids. The caller
/// builds the dispatchers, in shard order whatever the thread budget,
/// so their construction (including any per-shard RNG seeding) is
/// deterministic, and keeps them: whatever state they hold is theirs
/// to read once the call returns.
///
/// With one worker (or a single-shard plan) everything runs inline on
/// the calling thread — same dispatchers, same per-shard subsequences,
/// same merge order, so the output is identical at every thread count,
/// including zero extra threads.
///
/// The probe never influences routing, batching, or merge order: a
/// probed run produces the identical assignment sequence, and with
/// [`NoopPipeline`](flowsched_obs::pipeline::NoopPipeline) the whole
/// function monomorphizes to the unprobed engine — every
/// `Instant::now()` sits behind `P::ENABLED`. The probe is cloned once
/// per worker; implementations share state through the clones (e.g.
/// `PipelineMetrics` is an `Arc` of atomics), so one handle retained
/// by the caller sees all threads' spans.
///
/// # Panics
/// Panics if `dispatchers` does not hold one dispatcher per shard, if
/// the stream and plan disagree on the machine count, if releases
/// decrease, if an arrival's set straddles a shard boundary (the plan
/// does not cover the family), or if a worker thread panics.
pub fn run_sharded_probed<S, D, M, P>(
    mut stream: S,
    plan: &ShardPlan,
    cfg: &ShardedConfig,
    dispatchers: &mut [D],
    mut merge: M,
    probe: P,
) where
    S: ArrivalStream,
    D: FnMut(Task, ProcSetRef<'_>) -> Assignment + Send,
    M: FnMut(u64, Task, Assignment),
    P: PipelineProbe,
{
    assert_eq!(
        stream.machines(),
        plan.machines(),
        "stream and shard plan disagree on machine count"
    );
    assert_eq!(dispatchers.len(), plan.shards(), "one dispatcher per shard");
    assert!(cfg.batch >= 1, "batch size must be positive");
    assert!(cfg.queue_cap >= 1, "queue capacity must be positive");
    let shards = plan.shards();
    let workers = cfg.threads.min(shards);

    if workers <= 1 {
        // Inline path: no threads, no copies — but the exact same
        // dispatchers, routing, and merge order as the threaded path.
        let mut scratch: Vec<usize> = Vec::new();
        let mut last_release = f64::NEG_INFINITY;
        let mut seq: u64 = 0;
        while let Some((task, set)) = stream.next_arrival() {
            assert!(
                task.release >= last_release,
                "arrival stream must be in non-decreasing release order \
                 ({} after {last_release})",
                task.release
            );
            last_release = task.release;
            let t = StageTimer::start(&probe);
            let s = plan.route(&set);
            let base = plan.start_of(s);
            let local = rebase_view(set, base, &mut scratch);
            t.stop(&probe, Stage::Route, 1);
            let t = StageTimer::start(&probe);
            let a = dispatchers[s](task, local);
            t.stop(&probe, Stage::Dispatch, 1);
            let t = StageTimer::start(&probe);
            merge(seq, task, globalize(a, base));
            t.stop(&probe, Stage::Merge, 1);
            seq += 1;
        }
        return;
    }

    // Threaded path. Dispatchers are dealt round-robin: worker w
    // borrows shards {w, w+workers, …}, so a shard's local index on its
    // worker is s / workers.
    let mut per_worker: Vec<Vec<(usize, &mut D)>> = (0..workers).map(|_| Vec::new()).collect();
    for (s, disp) in dispatchers.iter_mut().enumerate() {
        per_worker[s % workers].push((plan.start_of(s), disp));
    }
    // Shard indices, and the machine numbers in a `LocalSet`, are `u32`.
    assert!(
        u32::try_from(plan.machines()).is_ok(),
        "the threaded path numbers machines in u32"
    );
    let shard_of: Vec<u32> = (0..plan.machines())
        .map(|j| plan.shard_of(j) as u32)
        .collect();

    // If `pending` ever reaches this, the merge head is stuck behind a
    // not-yet-flushed batch (e.g. one hot worker racing ahead while the
    // head's owner trickles); force the head through to keep in-flight
    // state bounded.
    let high_water = (cfg.queue_cap + 2) * cfg.batch * workers;

    std::thread::scope(|scope| {
        // The router holds every queue end the calling thread owns; it
        // is dropped, on return or unwind, before the scope joins.
        let mut router = Router::default();
        for mut dispatchers in per_worker {
            let (in_tx, in_rx) = sync_channel::<Batch>(cfg.queue_cap);
            let (out_tx, out_rx) = sync_channel::<Batch>(cfg.queue_cap);
            router.in_txs.push(in_tx);
            router.out_rxs.push(out_rx);
            router.fill.push(Batch::default());
            router.back.push(VecDeque::new());
            router.cursor.push(0);
            let wprobe = probe.clone();
            scope.spawn(move || loop {
                let t = StageTimer::start(&wprobe);
                let Ok(mut batch) = in_rx.recv() else { break };
                t.stop(&wprobe, Stage::DequeueWait, 0);
                let t = StageTimer::start(&wprobe);
                let items = batch.tasks.len() as u64;
                let Batch {
                    tasks,
                    members,
                    results,
                } = &mut batch;
                for msg in tasks.drain(..) {
                    let (base, disp) = &mut dispatchers[msg.shard as usize / workers];
                    let a = disp(msg.task, msg.set.view(members));
                    results.push(ResultMsg {
                        task: msg.task,
                        assignment: globalize(a, *base),
                    });
                }
                members.clear();
                t.stop(&wprobe, Stage::Dispatch, items);
                if out_tx.send(batch).is_err() {
                    // Router gone (it panicked and dropped the receiver) —
                    // abandon quietly so the scope can join us.
                    return;
                }
            });
        }

        let mut last_release = f64::NEG_INFINITY;
        while let Some((task, set)) = stream.next_arrival() {
            assert!(
                task.release >= last_release,
                "arrival stream must be in non-decreasing release order \
                 ({} after {last_release})",
                task.release
            );
            last_release = task.release;
            let t = StageTimer::start(&probe);
            let s = route_by_table(&shard_of, plan, &set);
            let w = s % workers;
            let fill = &mut router.fill[w];
            let set = LocalSet::rebase(&set, plan.start_of(s), &mut fill.members);
            fill.tasks.push(TaskMsg {
                shard: s as u32,
                task,
                set,
            });
            t.stop(&probe, Stage::Route, 1);
            router.pending.push_back(w as u32);
            if P::ENABLED {
                probe.queue_depth(router.pending.len() as u64);
            }
            if router.fill[w].tasks.len() >= cfg.batch {
                router.flush(w, &probe);
                router.merge_ready(&mut merge, &probe);
            }
            while router.pending.len() >= high_water {
                // Results may be back but not yet merged; only a head that
                // is still out forces a flush.
                router.merge_ready(&mut merge, &probe);
                if router.pending.len() >= high_water {
                    probe.forced_flush();
                    router.force_head(&probe);
                }
            }
        }

        // End of stream: merge the tail in order, sending each partial
        // batch once it holds the head.
        while !router.pending.is_empty() {
            router.force_head(&probe);
            router.merge_ready(&mut merge, &probe);
        }
    });
}

/// The calling thread's end of the threaded path.
#[derive(Default)]
struct Router {
    in_txs: Vec<SyncSender<Batch>>,
    out_rxs: Vec<Receiver<Batch>>,
    /// `fill[w]`: the batch being filled for worker w.
    fill: Vec<Batch>,
    /// `back[w]`: worker w's returned batches, none fully merged; the
    /// front one is merged from `cursor[w]` on.
    back: Vec<VecDeque<Batch>>,
    cursor: Vec<usize>,
    /// Merged batches, emptied for refilling.
    free: Vec<Batch>,
    /// The worker owning each unmerged task, in arrival order.
    pending: VecDeque<u32>,
    /// The arrival index of `pending`'s front, which the merge passes on.
    next_merge: u64,
}

impl Router {
    /// Sends worker w's batch, if it holds tasks, and refills `fill[w]`
    /// from the free list. While w's input queue is full it blocks on
    /// w's results: a full queue proves w has batches to process, so w
    /// will produce.
    fn flush<P: PipelineProbe>(&mut self, w: usize, probe: &P) {
        if self.fill[w].tasks.is_empty() {
            return;
        }
        let refill = self.free.pop().unwrap_or_default();
        let mut batch = std::mem::replace(&mut self.fill[w], refill);
        // The stall span covers the whole retry loop, including the
        // result-draining done while waiting for capacity.
        let mut stall = None;
        loop {
            match self.in_txs[w].try_send(batch) {
                Ok(()) => break,
                Err(TrySendError::Full(b)) => batch = b,
                Err(TrySendError::Disconnected(_)) => worker_died(w),
            }
            stall.get_or_insert_with(|| StageTimer::start(probe));
            probe.backpressure_stall();
            self.recv(w);
        }
        if let Some(t) = stall {
            t.stop(probe, Stage::EnqueueWait, 0);
        }
    }

    /// Blocking receive of worker w's next result batch.
    fn recv(&mut self, w: usize) {
        match self.out_rxs[w].recv() {
            Ok(b) => self.back[w].push_back(b),
            Err(_) => worker_died(w),
        }
    }

    /// Sends the merge head's batch if it is still filling, then blocks
    /// until its result is back: once sent, its worker will produce it.
    fn force_head<P: PipelineProbe>(&mut self, probe: &P) {
        let head = *self.pending.front().expect("an unmerged task") as usize;
        self.flush(head, probe);
        if self.back[head].is_empty() {
            self.recv(head);
        }
    }

    /// Polls every worker for returned batches without blocking, then
    /// merges every result that is next in arrival order straight out
    /// of them; a batch whose last result is merged goes to the free
    /// list. A worker returns its batches in send order, and each batch
    /// holds its results in its tasks' order, so `pending`'s front
    /// names the worker whose cursor points at the next result.
    fn merge_ready<M, P>(&mut self, merge: &mut M, probe: &P)
    where
        M: FnMut(u64, Task, Assignment),
        P: PipelineProbe,
    {
        for (rx, back) in self.out_rxs.iter().zip(&mut self.back) {
            while let Ok(b) = rx.try_recv() {
                back.push_back(b);
            }
        }
        let t = StageTimer::start(probe);
        let before = self.next_merge;
        while let Some(&w) = self.pending.front() {
            let w = w as usize;
            let Some(b) = self.back[w].front() else { break };
            let r = &b.results[self.cursor[w]];
            merge(self.next_merge, r.task, r.assignment);
            self.next_merge += 1;
            self.pending.pop_front();
            self.cursor[w] += 1;
            if self.cursor[w] == b.results.len() {
                self.cursor[w] = 0;
                let mut done = self.back[w].pop_front().expect("the front batch");
                done.results.clear();
                self.free.push(done);
            }
        }
        let merged = self.next_merge - before;
        if merged > 0 {
            t.stop(probe, Stage::Merge, merged);
        }
    }
}

fn worker_died(w: usize) -> ! {
    panic!("sharded worker {w} terminated before finishing its tasks")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_obs::pipeline::NoopPipeline;

    /// A miniature EFT: earliest completion over the set, lowest index
    /// wins — enough to make results depend on the full per-shard
    /// dispatch history, which is what the equivalence tests need.
    fn mini_eft(machines: usize) -> impl FnMut(Task, ProcSetRef<'_>) -> Assignment + Send {
        let mut done = vec![0.0f64; machines];
        move |task, set| {
            let u = set
                .iter()
                .min_by(|&a, &b| done[a].partial_cmp(&done[b]).unwrap())
                .expect("nonempty set");
            let start = done[u].max(task.release);
            done[u] = start + task.ptime;
            Assignment::new(MachineId(u), start)
        }
    }

    /// One [`mini_eft`] per shard of `plan`, in shard order.
    fn mini_efts(plan: &ShardPlan) -> Vec<impl FnMut(Task, ProcSetRef<'_>) -> Assignment + Send> {
        (0..plan.shards())
            .map(|s| mini_eft(plan.len_of(s)))
            .collect()
    }

    /// A deterministic blocked workload: `n` tasks round-robining over
    /// `m / block` disjoint blocks with drifting releases and varied
    /// processing times. With `explicit`, every odd block's sets arrive
    /// as explicit subsets of the block (always holding one member, the
    /// rest varying with the task), so shards past the first rebase
    /// explicit sets.
    struct Blocked {
        m: usize,
        block: usize,
        n: usize,
        next: usize,
        explicit: bool,
        members: Vec<usize>,
    }

    impl ArrivalStream for Blocked {
        fn machines(&self) -> usize {
            self.m
        }
        fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
            if self.next >= self.n {
                return None;
            }
            let i = self.next;
            self.next += 1;
            let blocks = self.m / self.block;
            let b = (i * 7 + i / 3) % blocks;
            let task = Task::new(i as f64 * 0.25, 1.0 + (i % 5) as f64 * 0.5);
            let lo = b * self.block;
            if self.explicit && b % 2 == 1 {
                let keep = lo + i % self.block;
                self.members.clear();
                self.members.extend(
                    (lo..lo + self.block).filter(|&j| j == keep || !(i + j).is_multiple_of(3)),
                );
                return Some((task, ProcSetRef::Explicit(&self.members)));
            }
            Some((task, ProcSetRef::interval(lo, lo + self.block - 1)))
        }
        fn len_hint(&self) -> Option<usize> {
            Some(self.n - self.next)
        }
    }

    fn blocked_stream(m: usize, block: usize, n: usize) -> Blocked {
        Blocked {
            m,
            block,
            n,
            next: 0,
            explicit: false,
            members: Vec::new(),
        }
    }

    /// [`blocked_stream`] with explicit sets in every odd block.
    fn mixed_stream(m: usize, block: usize, n: usize) -> Blocked {
        Blocked {
            explicit: true,
            ..blocked_stream(m, block, n)
        }
    }

    /// Every `(seq, task, assignment)` the merge sees, in merge order.
    fn run_collect(
        plan: &ShardPlan,
        cfg: &ShardedConfig,
        stream: impl ArrivalStream,
    ) -> Vec<(u64, Task, Assignment)> {
        let mut out = Vec::new();
        run_sharded_probed(
            stream,
            plan,
            cfg,
            &mut mini_efts(plan),
            |seq, task, a| out.push((seq, task, a)),
            NoopPipeline,
        );
        out
    }

    /// `cfg` with one thread: the inline path, which merges each task
    /// as it dispatches it, so its output is in arrival order by
    /// construction. A threaded run holds its merge order by equalling it.
    fn inline(cfg: &ShardedConfig) -> ShardedConfig {
        ShardedConfig {
            threads: 1,
            ..cfg.clone()
        }
    }

    #[test]
    fn threaded_matches_inline_at_every_thread_count() {
        let (m, block, n) = (16, 4, 4000);
        let plan = ShardPlan::blocks(m, block, 16);
        assert_eq!(plan.shards(), 4);
        let baseline = run_collect(
            &plan,
            &ShardedConfig::with_threads(1),
            blocked_stream(m, block, n),
        );
        assert_eq!(baseline.len(), n);
        for threads in [2, 3, 4, 7] {
            let cfg = ShardedConfig::with_threads(threads);
            assert_eq!(
                run_collect(&plan, &cfg, blocked_stream(m, block, n)),
                baseline,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn tiny_batches_exercise_backpressure_without_reordering() {
        let (m, block, n) = (8, 2, 2000);
        let plan = ShardPlan::blocks(m, block, 16);
        let cfg = ShardedConfig {
            threads: 4,
            batch: 3,
            queue_cap: 1,
        };
        assert_eq!(
            run_collect(&plan, &cfg, mixed_stream(m, block, n)),
            run_collect(&plan, &inline(&cfg), mixed_stream(m, block, n)),
        );
    }

    #[test]
    fn default_config_matches_inline_around_batch_boundaries() {
        // Eight shards of four machines; the odd ones take explicit
        // sets. The last length runs one task past the high water of
        // the default transport.
        let (m, block) = (32, 4);
        let plan = ShardPlan::blocks(m, block, 16);
        assert_eq!(plan.shards(), 8);
        let batch = ShardedConfig::default().batch;
        for workers in [2, 3] {
            let cfg = ShardedConfig::with_threads(workers);
            for n in [batch - 1, batch, batch + 1, 3 * batch * workers + 1] {
                let merged = run_collect(&plan, &cfg, mixed_stream(m, block, n));
                assert_eq!(merged.len(), n);
                assert_eq!(
                    merged,
                    run_collect(&plan, &inline(&cfg), mixed_stream(m, block, n)),
                    "workers={workers} n={n}"
                );
            }
        }
    }

    #[test]
    fn skewed_load_hits_the_high_water_path() {
        // Everything lands in shard 0 except one final task for shard 1,
        // so the merge head starves until the flow-control flush kicks in.
        struct Skew {
            next: usize,
        }
        impl ArrivalStream for Skew {
            fn machines(&self) -> usize {
                4
            }
            fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
                if self.next >= 5000 {
                    return None;
                }
                let i = self.next;
                self.next += 1;
                // Task 0 goes to shard 1 and then sits unflushed in the
                // router buffer while shard 0 floods.
                let lo = if i == 0 { 2 } else { 0 };
                Some((Task::new(i as f64, 1.0), ProcSetRef::interval(lo, lo + 1)))
            }
        }
        let plan = ShardPlan::from_cuts(4, vec![0, 2]);
        let cfg = ShardedConfig {
            threads: 2,
            batch: 4,
            queue_cap: 1,
        };
        let metrics = flowsched_obs::pipeline::PipelineMetrics::new();
        let mut merged = Vec::new();
        run_sharded_probed(
            Skew { next: 0 },
            &plan,
            &cfg,
            &mut mini_efts(&plan),
            |seq, task, a| merged.push((seq, task, a)),
            metrics.clone(),
        );
        assert_eq!(merged.len(), 5000);
        assert_eq!(merged, run_collect(&plan, &inline(&cfg), Skew { next: 0 }));
        // Task 0's batch for shard 1 never fills, so `pending` reaches
        // the high water (1 + 2) · 4 · 2 = 24 whatever the timing.
        assert!(
            metrics.forced_flushes() >= 1,
            "the high-water flush never ran"
        );
    }

    #[test]
    fn messages_stay_lean() {
        assert!(std::mem::size_of::<TaskMsg>() <= 48);
        assert!(std::mem::size_of::<ResultMsg>() <= 40);
    }

    #[test]
    fn table_routing_matches_the_plan() {
        let plan = ShardPlan::from_cuts(10, vec![0, 3, 4, 8]);
        let table: Vec<u32> = (0..10).map(|j| plan.shard_of(j) as u32).collect();
        for lo in 0..10 {
            for hi in (lo..10).filter(|&hi| plan.shard_of(hi) == plan.shard_of(lo)) {
                let set = ProcSetRef::interval(lo, hi);
                assert_eq!(route_by_table(&table, &plan, &set), plan.route(&set));
            }
        }
        let explicit = ProcSetRef::Explicit(&[4, 6, 7]);
        assert_eq!(route_by_table(&table, &plan, &explicit), 2);
        assert_eq!(
            route_by_table(&table, &plan, &ProcSetRef::Prefix { len: 3 }),
            0
        );
    }

    #[test]
    #[should_panic(expected = "straddles")]
    fn straddling_set_panics_not_hangs() {
        struct Bad {
            fired: bool,
        }
        impl ArrivalStream for Bad {
            fn machines(&self) -> usize {
                4
            }
            fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
                if self.fired {
                    return None;
                }
                self.fired = true;
                Some((Task::unit(0.0), ProcSetRef::interval(1, 2)))
            }
        }
        let plan = ShardPlan::from_cuts(4, vec![0, 2]);
        run_sharded_probed(
            Bad { fired: false },
            &plan,
            &ShardedConfig::with_threads(2),
            &mut mini_efts(&plan),
            |_, _, _| {},
            NoopPipeline,
        );
    }

    #[test]
    #[should_panic(expected = "straddles")]
    fn straddle_with_batches_in_flight_panics_not_hangs() {
        // Shard 0 takes FLOOD arrivals over queues of one one-task batch
        // each way, then a set straddles the cut. Worker 0 holds the
        // last shard-0 task in dispatch until the stream hands out the
        // straddler, so the router unwinds with that batch in flight
        // and must still close the queues and join both workers.
        const FLOOD: usize = 1000;
        struct Flood {
            next: usize,
            gate: Option<std::sync::mpsc::Sender<()>>,
        }
        impl ArrivalStream for Flood {
            fn machines(&self) -> usize {
                4
            }
            fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
                let i = self.next;
                self.next += 1;
                let lo = match i.cmp(&FLOOD) {
                    std::cmp::Ordering::Less => 0,
                    std::cmp::Ordering::Equal => {
                        // Dropping the sender releases worker 0.
                        self.gate = None;
                        1
                    }
                    std::cmp::Ordering::Greater => return None,
                };
                Some((Task::new(i as f64, 1.0), ProcSetRef::interval(lo, lo + 1)))
            }
        }
        let plan = ShardPlan::from_cuts(4, vec![0, 2]);
        let cfg = ShardedConfig {
            threads: 2,
            batch: 1,
            queue_cap: 1,
        };
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let mut gate_rx = Some(gate_rx);
        let mut dispatchers: Vec<_> = (0..plan.shards())
            .map(|s| {
                let mut eft = mini_eft(plan.len_of(s));
                let gate = if s == 0 { gate_rx.take() } else { None };
                let mut count = 0usize;
                move |task: Task, set: ProcSetRef<'_>| {
                    count += 1;
                    if let (FLOOD, Some(gate)) = (count, &gate) {
                        // Returns once the stream drops the sender.
                        let _ = gate.recv();
                    }
                    eft(task, set)
                }
            })
            .collect();
        run_sharded_probed(
            Flood {
                next: 0,
                gate: Some(gate_tx),
            },
            &plan,
            &cfg,
            &mut dispatchers,
            |_, _, _| {},
            NoopPipeline,
        );
    }

    #[test]
    fn worker_panic_propagates_to_the_router() {
        let plan = ShardPlan::from_cuts(4, vec![0, 2]);
        let cfg = ShardedConfig {
            threads: 2,
            batch: 1,
            queue_cap: 1,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut failing: Vec<_> = (0..plan.shards())
                .map(|_| {
                    let mut count = 0usize;
                    move |task: Task, set: ProcSetRef<'_>| {
                        count += 1;
                        if count > 3 {
                            panic!("injected dispatcher failure");
                        }
                        Assignment::new(MachineId(set.min().unwrap()), task.release)
                    }
                })
                .collect();
            run_sharded_probed(
                blocked_stream(4, 2, 1000),
                &plan,
                &cfg,
                &mut failing,
                |_, _, _| {},
                NoopPipeline,
            )
        }));
        assert!(result.is_err(), "router must notice the dead worker");
    }

    #[test]
    fn probed_run_matches_unprobed_and_records_spans() {
        use flowsched_obs::pipeline::PipelineMetrics;
        let (m, block, n) = (16, 4, 4000);
        let plan = ShardPlan::blocks(m, block, 16);
        let baseline = run_collect(
            &plan,
            &ShardedConfig::with_threads(4),
            blocked_stream(m, block, n),
        );
        let metrics = PipelineMetrics::new();
        let mut probed = Vec::new();
        run_sharded_probed(
            blocked_stream(m, block, n),
            &plan,
            &ShardedConfig::with_threads(4),
            &mut mini_efts(&plan),
            |seq, task, a| probed.push((seq, task, a)),
            metrics.clone(),
        );
        assert_eq!(probed, baseline, "the probe must not perturb the schedule");
        let nu = n as u64;
        assert_eq!(metrics.stage(Stage::Route).total_items, nu);
        assert_eq!(metrics.stage(Stage::Dispatch).total_items, nu);
        assert_eq!(metrics.stage(Stage::Merge).total_items, nu);
        assert!(metrics.stage(Stage::DequeueWait).spans > 0);
        assert!(metrics.depth_high_water() >= 1);
    }

    #[test]
    fn probed_inline_path_records_per_task_spans() {
        use flowsched_obs::pipeline::PipelineMetrics;
        let plan = ShardPlan::single(4);
        let metrics = PipelineMetrics::new();
        let mut n = 0u64;
        run_sharded_probed(
            blocked_stream(4, 4, 100),
            &plan,
            &ShardedConfig::with_threads(1),
            &mut mini_efts(&plan),
            |_, _, _| n += 1,
            metrics.clone(),
        );
        assert_eq!(n, 100);
        for stage in [Stage::Route, Stage::Dispatch, Stage::Merge] {
            let s = metrics.stage(stage);
            assert_eq!(s.spans, 100, "inline {} spans", stage.name());
            assert_eq!(s.total_items, 100);
        }
        assert_eq!(metrics.stage(Stage::EnqueueWait).spans, 0);
        assert_eq!(metrics.stage(Stage::DequeueWait).spans, 0);
    }

    #[test]
    fn single_shard_plan_runs_inline() {
        let plan = ShardPlan::single(4);
        // threads > 1 but one shard → workers = 1 → inline path.
        let mut n = 0u64;
        run_sharded_probed(
            blocked_stream(4, 4, 100),
            &plan,
            &ShardedConfig::with_threads(8),
            &mut mini_efts(&plan),
            |seq, _, _| {
                assert_eq!(seq, n);
                n += 1;
            },
            NoopPipeline,
        );
        assert_eq!(n, 100);
    }
}

//! The indexed kernel of the EFT core: O(log m) tie sets over compact
//! processing sets.
//!
//! The member scan evaluates Equation (2) by reading every member of
//! `Mᵢ` — O(|Mᵢ|) per task, which on the paper's interval families
//! (and every nested family, after the Figure 1 machine reordering) is
//! exactly the cost the structure makes avoidable. When
//! [`EftState`] runs the [`DispatchKernel::Indexed`] kernel it serves
//! the compact [`ProcSetRef`] shapes arrival streams lend:
//!
//! - **Interval / prefix / ring sets** are one or two index ranges, so a
//!   *lane index* over the machine completion times — the
//!   [`CompletionBank`] as its leaf level, and above it one level of
//!   8-wide lane minima after another — finds plain `Min`/`Max` EFT's
//!   machine by one bottom-up walk and a bitmask descent, O(log₈ m)
//!   lanes per task. When the whole tie set is needed (`Rand`, whose
//!   `Breaker::pick` draws `random_range(0..|U'ᵢ|)`, and every start
//!   rule), a range-min walk gives `t'min` and a collect the tie set,
//!   O(|U'ᵢ| log₈ m).
//! - **Explicit sets** are not ranges, so the member scan answers them
//!   on this kernel too. Per-set heaps once served them, and measured
//!   2–16× slower than the scan on their own disjoint-block traffic
//!   (EXPERIMENTS.md, "Explicit sets take the member scan").
//!
//! Every path computes the exact tie set `U'ᵢ` in ascending machine
//! order, so schedules (and, via the engine's recorder convention,
//! event traces) are bitwise-identical to the scan — pinned by
//! `tests/kernel_equivalence.rs`. The lane index is updated eagerly on
//! every commit.
//!
//! `Auto` resolves to this kernel only for interval and ring families
//! whose widest set has at least 96 members
//! ([`DispatchKernel::for_structure`]); narrower sets scan faster.

use flowsched_core::compact::ProcSetRef;
use flowsched_core::structure::StructureReport;
use flowsched_core::time::Time;

use crate::eft::EftState;
use crate::soa::{CompletionBank, LANE};

/// Decision counters of the indexed kernel — which path served each
/// dispatch.
///
/// Monotone over a run; the engine flushes them into the recorder's
/// `IndexedDescents` / `ScalarFallbackScans` counters at the end of a
/// run. After a sharded run the engine sums its shard dispatchers'
/// counters with [`merge`](KernelStats::merge) and flushes the sum, so
/// the recorder sees the same counters as after a sequential run. A
/// high `scalar_fallback_scans` share means the workload lends explicit
/// sets, which the index cannot answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Dispatches answered by the lane index.
    pub indexed_descents: u64,
    /// Explicit-set dispatches answered by the member scan.
    pub scalar_fallback_scans: u64,
    /// Always 0: nothing self-heals since the per-set heaps went. Kept
    /// because the performance ledger (`perf_ledger/`) reads it, like
    /// the [`EftKernelState`] labels.
    pub heap_self_heals: u64,
}

impl KernelStats {
    /// Accumulates another counter snapshot into this one — how the
    /// engine sums the shards of a sharded run.
    pub fn merge(&mut self, other: KernelStats) {
        self.indexed_descents += other.indexed_descents;
        self.scalar_fallback_scans += other.scalar_fallback_scans;
        self.heap_self_heals += other.heap_self_heals;
    }
}

/// Widest-set size from which [`for_structure`](DispatchKernel::for_structure)
/// gives an interval or ring family the lane index. A sweep of both
/// forced kernels over contiguous w-wide blocks (EXPERIMENTS.md, "One
/// measured width decides `Auto`") put the crossover between 64 and 128
/// members at every m from 256 to 16,384: the scan read faster at
/// w ≤ 64 and the index at w ≥ 128, whatever the machine count.
const INDEX_FROM_WIDTH: usize = 96;

/// Which EFT dispatch kernel to run. All choices produce
/// bitwise-identical schedules; the choice is purely a performance
/// decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchKernel {
    /// Decide once, when the dispatcher is built
    /// ([`resolve`](DispatchKernel::resolve)):
    /// [`for_structure`](DispatchKernel::for_structure) of the source's
    /// [`structure_hint`](flowsched_core::stream::ArrivalStream::structure_hint),
    /// or the member scan when the source promises nothing.
    #[default]
    Auto,
    /// Force the member scan.
    Scalar,
    /// Force the lane index; explicit sets still take the member scan.
    Indexed,
}

impl DispatchKernel {
    /// Resolves `Auto` for a dispatcher whose source promises `hint`:
    /// [`for_structure`](DispatchKernel::for_structure) of the promise,
    /// or of the empty report when there is none, which is `Scalar`.
    /// Explicit kernels pass through.
    pub fn resolve(self, hint: Option<&StructureReport>) -> DispatchKernel {
        match self {
            DispatchKernel::Auto => {
                DispatchKernel::for_structure(&hint.copied().unwrap_or_default())
            }
            other => other,
        }
    }

    /// Kernel suggested by a family classification
    /// ([`flowsched_core::structure::classify`]): the lane index for an
    /// interval or ring family — the only sets it answers — whose widest
    /// set has at least 96 members, and the member scan otherwise.
    /// Below that width the scan reads a set's members faster than the
    /// index descends, at every machine count measured. Inclusive,
    /// nested or disjoint families that are not intervals in the machine
    /// order they arrive in (a chain over a shuffled machine order,
    /// disjoint blocks of scattered machines) lend explicit sets, so
    /// they get the scan.
    pub fn for_structure(report: &StructureReport) -> DispatchKernel {
        if (report.interval || report.ring_interval) && report.max_size >= INDEX_FROM_WIDTH {
            DispatchKernel::Indexed
        } else {
            DispatchKernel::Scalar
        }
    }

    /// [`resolve`](DispatchKernel::resolve) for the dispatchers of a run
    /// over `stream`, whole or sharded: `Auto` reads the stream's
    /// [`structure_hint`](flowsched_core::stream::ArrivalStream::structure_hint)
    /// (which covers the whole stream) and never stays `Auto`; a source
    /// that promises nothing gets `Scalar`. Explicit choices pass
    /// through without reading the hint.
    pub fn resolve_for_stream<S>(self, stream: &S) -> DispatchKernel
    where
        S: flowsched_core::stream::ArrivalStream + ?Sized,
    {
        match self {
            DispatchKernel::Auto => self.resolve(stream.structure_hint().as_ref()),
            other => other,
        }
    }
}

/// A lane index over the completion bank, the min index of the indexed
/// kernel. `levels[0]` *is* the bank; entry `i` of `levels[k + 1]` is
/// the minimum of lane `i` (entries `8i .. 8i + 8`) of `levels[k]`, up
/// to a level of one lane. The member scan keeps the leaf alone. Every level is a lane-aligned,
/// `+∞`-padded [`CompletionBank`]: at m = 4096, three levels of 512, 64
/// and 8 entries (4.6 KiB) above the 32 KiB bank; at m = 2²⁰, 1.1 MiB
/// above an 8 MiB bank.
///
/// Every query walks the levels bottom-up ([`walk`](Self::walk)). At
/// each level the range has two edge lanes, each read under one window
/// of [`WINDOWS`], and the lanes strictly between them are the range
/// one level up. The lane addresses depend only on `lo` and `hi`, so the
/// loads of all levels issue at once and no branch depends on their
/// bits.
#[derive(Debug, Clone)]
pub(crate) struct LaneIndex {
    levels: Vec<CompletionBank>,
}

impl LaneIndex {
    /// The leaf level `bank` alone.
    pub(crate) fn leaf(bank: CompletionBank) -> Self {
        LaneIndex { levels: vec![bank] }
    }

    /// Builds the levels above the leaf from its current values.
    pub(crate) fn build_levels(&mut self) {
        self.levels.truncate(1);
        while let Some(top) = self.levels.last().filter(|top| top.padded().len() > LANE) {
            let lanes = top.padded().len() / LANE;
            let mins: Vec<Time> = (0..lanes).map(|i| lane_min(*top.lane(i))).collect();
            self.levels.push(CompletionBank::from_completions(&mins));
        }
    }

    /// The completion bank (the leaf level).
    #[inline]
    pub(crate) fn bank(&self) -> &CompletionBank {
        &self.levels[0]
    }

    /// Sets machine `j`'s completion to `v` and refreshes one slot per
    /// level, with no early exit.
    ///
    /// A bank with no levels (the member scan's) takes one scalar store:
    /// a whole-lane store there read slower (EXPERIMENTS.md, "Lane index
    /// without store-forwarding stalls"). Above that, each level loads
    /// its lane and raises the updated slot to `+∞` by a `max` against a
    /// constant `±∞` window of [`ONE_SLOT`], which gives the minimum of
    /// the other seven slots. A `min` of that lane against `v` under the
    /// opposite window puts `v` in the slot, exactly for every non-NaN
    /// value, and the lane is stored whole. So no load of the commit
    /// reads one of its own stores, and the next query's lane loads, as
    /// wide as these stores, forward from them. A store into the lane's
    /// slot, or into a copy of the lane that is then reloaded, is
    /// narrower than the loads after it, and they wait until it retires.
    /// The minimum of the other seven slots does not wait for `v`, so the
    /// chain across levels is one `min` per level.
    #[inline]
    pub(crate) fn set(&mut self, j: usize, v: Time) {
        if let [bank] = &mut self.levels[..] {
            return bank.set(j, v);
        }
        let len = self.bank().len();
        assert!(j < len, "machine index {j} out of range for {len} machines");
        let (mut pos, mut v) = (j, v);
        for level in &mut self.levels {
            let (lane, slot) = (pos / LANE, pos % LANE);
            let hide = &ONE_SLOT[LANE - 1 - slot..][..LANE];
            let old = *level.lane(lane);
            let others: [Time; LANE] = std::array::from_fn(|s| fmax(old[s], hide[s]));
            *level.lane_mut(lane) = std::array::from_fn(|s| fmin(others[s], fmax(v, -hide[s])));
            v = fmin(v, lane_min(others));
            pos = lane;
        }
    }

    /// The bottom-up walk over `[lo, hi]` that every query shares: each
    /// level's [`Span`], level 0 first. The loop body stays in the
    /// caller, so nothing of it goes out of line.
    #[inline(always)]
    fn walk(&self, lo: usize, hi: usize) -> impl Iterator<Item = Span<'_>> {
        let (mut l, mut h) = (lo, hi);
        self.levels.iter().map(move |level| {
            let span = Span::new(level, l, h);
            (l, h) = (span.a + 1, span.b.saturating_sub(1));
            span
        })
    }

    /// `min_{lo ≤ j ≤ hi} C_j` (inclusive bounds): each level's two
    /// windowed edge lanes fold pairwise into one accumulator lane,
    /// reduced once at the end.
    pub(crate) fn range_min(&self, lo: usize, hi: usize) -> Time {
        let mut acc = [f64::INFINITY; LANE];
        for span in self.walk(lo, hi) {
            let (left, right) = (span.clipped(span.a), span.clipped(span.b));
            for ((m, &l), &r) in acc.iter_mut().zip(&left).zip(&right) {
                *m = fmin(*m, fmin(l, r));
            }
        }
        lane_min(acc)
    }

    /// EFT-Min's machine over one range, or two ascending ones (a
    /// wrapping ring): the first `j` in ascending member order with
    /// `C_j ≤ t'min = max(release, min C_j)`; with `RIGHT`, EFT-Max's,
    /// the last. One walk per range marks its edge lanes
    /// ([`marks`](Self::marks)). Whether `t'min` is the release or the
    /// minimum decides which marks name the tie set's lanes, and the
    /// descent starts from the first (last) of them. A range whose own
    /// minimum is above the pair's holds no tie at `t'min`, so its
    /// `= min` marks are dropped. The tie set is never empty, so neither
    /// is the pick.
    pub(crate) fn pick<const RIGHT: bool>(
        &self,
        low: Option<IndexRange>,
        high: IndexRange,
        release: Time,
    ) -> usize {
        let high_marks = self.marks(high, release);
        let low_marks = low.map(|range| (range, self.marks(range, release)));
        let min = low_marks.map_or(high_marks.min, |(_, m)| fmin(m.min, high_marks.min));
        let released = min <= release;
        let ties = |marks: Marks| match (released, marks.min == min) {
            (true, _) => marks.le,
            (false, true) => marks.eq,
            (false, false) => [0; 2],
        };
        let high = (high, ties(high_marks));
        let any = |(_, [left, right]): (IndexRange, [u32; 2])| left | right != 0;
        // In ascending member order the low range comes first: EFT-Min
        // picks in it if it holds a tie, EFT-Max only if the high one
        // holds none.
        let (range, marks) = match low_marks.map(|(range, marks)| (range, ties(marks))) {
            Some(low) if (if RIGHT { !any(high) } else { any(low) }) => low,
            _ => high,
        };
        self.descend::<RIGHT>(range, marks, release.max(min))
    }

    /// One walk over `[lo, hi]` for a pick at `release`: the range's
    /// minimum, and two bits per level and edge lane. The `≤ release`
    /// bit is set iff the lane holds a value `≤ release`; the `= min`
    /// bit iff the lane holds the running minimum, and every `= min` bit
    /// is cleared when a higher level lowers it, so at the end they mark
    /// the lanes that hold the range's minimum. Each level shifts its
    /// bits in from below, so level `k`'s bit is bit `top − k` (`top`
    /// the highest level; a `u32` holds the 22 levels of 2⁶⁴ machines).
    #[inline(always)]
    fn marks(&self, (lo, hi): IndexRange, release: Time) -> Marks {
        let mut marks = Marks {
            min: f64::INFINITY,
            le: [0; 2],
            eq: [0; 2],
        };
        for span in self.walk(lo, hi) {
            let edges = [
                lane_min(span.clipped(span.a)),
                lane_min(span.clipped(span.b)),
            ];
            let level_min = fmin(edges[0], edges[1]);
            let lowered = level_min < marks.min;
            marks.min = fmin(marks.min, level_min);
            let sides = edges.iter().zip(&mut marks.le).zip(&mut marks.eq);
            for ((&edge, le), eq) in sides {
                *le = *le << 1 | (edge <= release) as u32;
                *eq = if lowered { 0 } else { *eq } << 1 | (edge == marks.min) as u32;
            }
        }
        marks
    }

    /// The smallest `j ∈ [lo, hi]` with `C_j ≤ bound` (largest with
    /// `RIGHT`), given which edge lanes of the walk over `[lo, hi]` hold
    /// one, as [`marks`](Self::marks) numbers them: bit `top − k` of
    /// `marks[0]` (`marks[1]`) for level `k`'s left (right) edge lane, at
    /// least one bit set. In position order the edge lanes run left lanes
    /// bottom-up, then right lanes top-down: the leftmost hit lies in the
    /// lowest marked left lane, else in the highest marked right lane
    /// (mirrored for `RIGHT`). The descent builds a lane's `≤ bound`
    /// bitmask only in that lane and below it.
    fn descend<const RIGHT: bool>(
        &self,
        (lo, hi): IndexRange,
        [left, right]: [u32; 2],
        bound: Time,
    ) -> usize {
        let (near, far) = if RIGHT { (right, left) } else { (left, right) };
        debug_assert_ne!(near | far, 0, "a tie set is never empty");
        let top = self.levels.len() - 1;
        let (k, on_left) = match near {
            0 => (top - far.trailing_zeros() as usize, RIGHT),
            _ => (top - near.ilog2() as usize, !RIGHT),
        };
        let span = self.walk(lo, hi).nth(k).expect("level k is on the walk");
        let lane = if on_left { span.a } else { span.b };
        // Slot of the first hit in a nonempty lane mask.
        let pick =
            |mask: u32| [mask.trailing_zeros(), 31 ^ mask.leading_zeros()][RIGHT as usize] as usize;
        let mut pos = lane * LANE + pick(span.hits(lane, bound));
        for level in self.levels[..k].iter().rev() {
            pos = pos * LANE + pick(le_mask(level.lane(pos), bound));
        }
        pos
    }

    /// Appends every `j ∈ [l, h]` of level `k` (level 0 from callers) with
    /// `C_j ≤ bound` to `out`, ascending: the left edge lane, the levels
    /// above, then the right edge lane — O(|result| · depth).
    pub(crate) fn collect_le(
        &self,
        k: usize,
        l: usize,
        h: usize,
        bound: Time,
        out: &mut Vec<usize>,
    ) {
        let span = Span::new(&self.levels[k], l, h);
        self.expand(k, span.a, span.hits(span.a, bound), bound, out);
        if span.a < span.b {
            self.collect_le(k + 1, span.a + 1, span.b - 1, bound, out);
            self.expand(k, span.b, span.hits(span.b, bound), bound, out);
        }
    }

    /// Appends, in increasing order, every machine with `C_j ≤ bound`
    /// under the slots of `mask` in lane `lane` of level `k`.
    fn expand(&self, k: usize, lane: usize, mut mask: u32, bound: Time, out: &mut Vec<usize>) {
        while mask != 0 {
            let pos = lane * LANE + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if k == 0 {
                out.push(pos);
            } else {
                let below = le_mask(self.levels[k - 1].lane(pos), bound);
                self.expand(k - 1, pos, below, bound, out);
            }
        }
    }
}

/// What one walk learns about a range for [`LaneIndex::pick`]: its
/// minimum, and per side (left, right edge lanes) one bit per level for
/// `≤ release` and one for `= min` ([`LaneIndex::marks`]).
#[derive(Clone, Copy)]
struct Marks {
    min: Time,
    le: [u32; 2],
    eq: [u32; 2],
}

/// One level of the bottom-up walk: the level, its share `[l, h]` of the
/// query range (empty once `l > h`), and the edge lanes `a ≤ b` holding
/// `l` and `h`, which stay valid lanes when the range is empty.
#[derive(Clone, Copy)]
struct Span<'a> {
    level: &'a CompletionBank,
    l: usize,
    h: usize,
    a: usize,
    b: usize,
}

impl<'a> Span<'a> {
    #[inline(always)]
    fn new(level: &'a CompletionBank, l: usize, h: usize) -> Self {
        let b = h / LANE;
        let a = (l / LANE).min(b);
        Span { level, l, h, a, b }
    }

    /// Slots `[from, to]` of `lane` inside `[l, h]` (none if `from > to`).
    #[inline(always)]
    fn slots(&self, lane: usize) -> (usize, usize) {
        let base = lane * LANE;
        let from = self.l.saturating_sub(base).min(LANE);
        (from, (self.h - base).min(LANE - 1))
    }

    /// `lane` with every slot outside `[l, h]` raised to `+∞`, by one
    /// branch-free `max` against a window of [`WINDOWS`].
    #[inline(always)]
    fn clipped(&self, lane: usize) -> [Time; LANE] {
        let (from, to) = self.slots(lane);
        let window = &WINDOWS[(to + 1).saturating_sub(from)][LANE - from..][..LANE];
        let mut vals = *self.level.lane(lane);
        for (v, &w) in vals.iter_mut().zip(window) {
            *v = fmax(*v, w);
        }
        vals
    }

    /// Bit `s` set iff slot `s` of `lane` lies inside `[l, h]` and holds
    /// a value `≤ bound`.
    #[inline(always)]
    fn hits(&self, lane: usize, bound: Time) -> u32 {
        let (from, to) = self.slots(lane);
        le_mask(self.level.lane(lane), bound) & (0xFF << from) & (0xFF >> (LANE - 1 - to))
    }
}

/// Row `n` is `+∞` × 8, `−∞` × `n`, then `+∞`: its 8-wide window at
/// `8 − from` is `−∞` exactly on the `n` slots from `from` on, so one
/// window keeps slots `from ..= to` with `n = to + 1 − from`, and row 0
/// keeps none.
const WINDOWS: [[Time; 2 * LANE]; LANE + 1] = {
    let mut rows = [[f64::INFINITY; 2 * LANE]; LANE + 1];
    let mut n = 1;
    while n <= LANE {
        let mut i = LANE;
        while i < LANE + n {
            rows[n][i] = f64::NEG_INFINITY;
            i += 1;
        }
        n += 1;
    }
    rows
};

/// `−∞` × 7, `+∞`, `−∞` × 7: the 8-wide window at `7 − slot` is `+∞` on
/// `slot` alone. A commit hides its slot under it.
const ONE_SLOT: [Time; 2 * LANE - 1] = {
    let mut window = [f64::NEG_INFINITY; 2 * LANE - 1];
    window[LANE - 1] = f64::INFINITY;
    window
};

/// Bit `s` set iff `lane[s] ≤ bound`. LLVM compiles the fold to one
/// scalar compare per slot, so a pick tests lanes by their minimum and
/// builds a mask only where it descends.
#[inline(always)]
fn le_mask(lane: &[Time; LANE], bound: Time) -> u32 {
    (0..LANE).fold(0, |mask, s| mask | ((lane[s] <= bound) as u32) << s)
}

/// `min` over a lane as a tree of depth 3, not a dependent chain of 8.
#[inline(always)]
fn lane_min([a, b, c, d, e, f, g, h]: [Time; LANE]) -> Time {
    fmin(fmin(fmin(a, b), fmin(c, d)), fmin(fmin(e, f), fmin(g, h)))
}

/// `min` for the index's non-NaN values, one `minsd`/`minpd` each.
#[inline(always)]
fn fmin(a: Time, b: Time) -> Time {
    if a < b {
        a
    } else {
        b
    }
}

/// `max` counterpart of [`fmin`].
#[inline(always)]
fn fmax(a: Time, b: Time) -> Time {
    if a > b {
        a
    } else {
        b
    }
}

/// An inclusive range `(lo, hi)` of machine indices.
pub(crate) type IndexRange = (usize, usize);

/// The one or two index ranges of a compact view in ascending order,
/// `(low, high)` with `low` set only for a wrapping ring; `None` for an
/// explicit slice.
#[inline]
pub(crate) fn ranges(set: ProcSetRef<'_>) -> Option<(Option<IndexRange>, IndexRange)> {
    match set {
        ProcSetRef::Interval { lo, hi } => Some((None, (lo, hi))),
        ProcSetRef::Prefix { len } => Some((None, (0, len - 1))),
        // Wrapping segment: ascending members are the wrapped low run
        // [0, start+len−m−1] then the high run [start, m−1].
        ProcSetRef::Ring { start, len, m } => {
            Some((Some((0, start + len - m - 1)), (start, m - 1)))
        }
        ProcSetRef::Explicit(_) => None,
    }
}

/// The kernel [`PolicySpec::build`](crate::registry::PolicySpec::build)
/// built an EFT-family core for, as a label over the one [`EftState`].
/// Kept because the performance ledger (`perf_ledger/`) matches its
/// three variants to name a run's kernel; only `PolicySpec::build`
/// constructs it, and the core's own [`kernel`](EftState::kernel) is
/// what dispatch consults.
#[derive(Debug)]
pub enum EftKernelState {
    /// Built for [`DispatchKernel::Scalar`].
    Scalar(EftState),
    /// Built for [`DispatchKernel::Indexed`].
    Indexed(EftState),
    /// Built for [`DispatchKernel::Auto`].
    Adaptive(EftState),
}

impl EftKernelState {
    /// The core the label names.
    pub(crate) fn core(&self) -> &EftState {
        let (EftKernelState::Scalar(core)
        | EftKernelState::Indexed(core)
        | EftKernelState::Adaptive(core)) = self;
        core
    }

    /// Mutable access to the core.
    pub(crate) fn core_mut(&mut self) -> &mut EftState {
        let (EftKernelState::Scalar(core)
        | EftKernelState::Indexed(core)
        | EftKernelState::Adaptive(core)) = self;
        core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::min_in;
    use crate::tiebreak::TieBreak;
    use flowsched_core::task::Task;
    use rand::{Rng, SeedableRng};

    /// An index with every level built over `bank`.
    fn built(bank: CompletionBank) -> LaneIndex {
        let mut index = LaneIndex::leaf(bank);
        index.build_levels();
        index
    }

    /// The core on the indexed kernel.
    fn indexed(m: usize, policy: TieBreak) -> EftState {
        EftState::new(m, policy).with_kernel(DispatchKernel::Indexed)
    }

    /// Machine counts at and around every lane and level boundary, up to
    /// a four-level index.
    const INDEX_SIZES: [usize; 11] = [1, 7, 8, 9, 63, 64, 65, 511, 512, 513, 4097];

    /// Query ranges over `m` machines: a random one, one inside a single
    /// lane, one whose ends sit on lane (or level) boundaries, and the
    /// full range.
    fn index_ranges(rng: &mut rand::rngs::StdRng, m: usize) -> [(usize, usize); 4] {
        let lo = rng.random_range(0..m);
        let random = (lo, rng.random_range(lo..m));
        let one_lane = (lo, rng.random_range(lo..=(lo | (LANE - 1)).min(m - 1)));
        let span = LANE.pow(rng.random_range(1..4));
        let start = lo / span * span;
        let end = (rng.random_range(lo..m) / span + 1) * span;
        [random, one_lane, (start, end.min(m) - 1), (0, m - 1)]
    }

    /// EFT's pick over ascending `members` by a scan of `vals`: the first
    /// (`RIGHT`: last) member with `C_j ≤ max(release, min C_j)`.
    fn scan_pick<const RIGHT: bool>(vals: &[Time], members: &[usize], release: Time) -> usize {
        let min = members
            .iter()
            .map(|&j| vals[j])
            .fold(f64::INFINITY, f64::min);
        let mut ties = members
            .iter()
            .copied()
            .filter(|&j| vals[j] <= release.max(min));
        let pick = if RIGHT { ties.next_back() } else { ties.next() };
        pick.expect("a tie set is never empty")
    }

    /// Every level above the bank holds the lane minima of the level
    /// below, and `+∞` past them; the top level is one lane.
    fn assert_lane_minima(index: &LaneIndex, at: &str) {
        let top = index.levels.last().map(|top| top.padded().len());
        assert_eq!(top, Some(LANE), "{at}");
        for pair in index.levels.windows(2) {
            let mins: Vec<Time> = pair[0].padded().chunks(LANE).map(min_in).collect();
            assert_eq!(pair[1].values(), &mins[..], "{at}");
            assert!(
                pair[1].padded()[mins.len()..]
                    .iter()
                    .all(|&v| v == f64::INFINITY),
                "{at}"
            );
        }
    }

    /// The lane index against plain scans of its own bank, after rounds
    /// of random non-decreasing updates: `range_min`; EFT-Min's and
    /// EFT-Max's pick over one range and over a wrapping ring's two, at
    /// releases below, at and above the minimum; and the ascending
    /// collect at bounds below, at and between the completions.
    #[test]
    fn lane_index_matches_scans_after_updates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for m in INDEX_SIZES {
            let mut index = built(CompletionBank::new(m));
            for round in 0..30 {
                for _ in 0..m.div_ceil(3) {
                    let j = rng.random_range(0..m);
                    let v = index.bank().get(j) + rng.random_range(0..3) as f64;
                    index.set(j, v);
                }
                let vals = index.bank().values();
                let mut picks: Vec<(Option<IndexRange>, IndexRange)> = index_ranges(&mut rng, m)
                    .into_iter()
                    .map(|range| (None, range))
                    .collect();
                if m > 2 {
                    let start = rng.random_range(2..m);
                    let len = rng.random_range(m - start + 1..m);
                    let set = ProcSetRef::ring(start, len, m);
                    picks.extend(ranges(set).filter(|(low, _)| low.is_some()));
                }
                for (low, high) in picks {
                    let members: Vec<usize> = low
                        .into_iter()
                        .chain([high])
                        .flat_map(|(lo, hi)| lo..=hi)
                        .collect();
                    let min = members
                        .iter()
                        .map(|&j| vals[j])
                        .fold(f64::INFINITY, f64::min);
                    let above = min + rng.random_range(0..4) as f64 + 0.5;
                    for release in [min - 0.5, min, above] {
                        let at = format!("m={m} round {round} {low:?} {high:?} r={release}");
                        assert_eq!(
                            index.pick::<false>(low, high, release),
                            scan_pick::<false>(vals, &members, release),
                            "EFT-Min {at}"
                        );
                        assert_eq!(
                            index.pick::<true>(low, high, release),
                            scan_pick::<true>(vals, &members, release),
                            "EFT-Max {at}"
                        );
                    }
                    if low.is_some() {
                        continue;
                    }
                    let (lo, hi) = high;
                    assert_eq!(
                        index.range_min(lo, hi),
                        min,
                        "m={m} round {round} [{lo},{hi}]"
                    );
                    for bound in [min, min - 0.5, min + rng.random_range(0..4) as f64 + 0.5] {
                        let expect: Vec<usize> = (lo..=hi).filter(|&j| vals[j] <= bound).collect();
                        let mut got = vec![usize::MAX];
                        index.collect_le(0, lo, hi, bound, &mut got);
                        assert_eq!(
                            got[1..],
                            expect[..],
                            "collect m={m} round {round} [{lo},{hi}] ≤{bound}"
                        );
                    }
                }
            }
        }
    }

    /// Every level above the bank holds the lane minima of the one
    /// below, whether the index was built over a seeded bank or updated
    /// into the same state.
    #[test]
    fn lane_index_levels_hold_lane_minima() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for m in INDEX_SIZES {
            let vals: Vec<Time> = (0..m).map(|_| rng.random_range(0..50) as f64).collect();
            let seeded = built(CompletionBank::from_completions(&vals));
            let mut updated = built(CompletionBank::new(m));
            for (j, &v) in vals.iter().enumerate() {
                updated.set(j, v);
            }
            assert_lane_minima(&seeded, &format!("seeded m={m}"));
            assert_lane_minima(&updated, &format!("updated m={m}"));
            assert_eq!(updated.bank().values(), &vals[..]);
        }
    }

    /// A commit writes one whole lane per level. Setting every slot of
    /// one lane of every level in turn, to values below and above the
    /// rest, must keep each level the lane minima of the one below and
    /// the bank the values set.
    #[test]
    fn commits_to_every_slot_of_a_lane_keep_the_lane_minima() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for m in INDEX_SIZES {
            let mut index = built(CompletionBank::new(m));
            let mut vals = vec![0.0; m];
            for k in 0..index.levels.len() {
                // Machines `(LANE·lane + slot)·under ..` lie under `slot` of
                // `lane` on level k; a slot with none is padding.
                let under = LANE.pow(k as u32);
                let lane = rng.random_range(0..index.levels[k].padded().len() / LANE);
                for slot in 0..LANE {
                    let first = (lane * LANE + slot) * under;
                    if first >= m {
                        continue;
                    }
                    for _ in 0..3 {
                        let j = rng.random_range(first..(first + under).min(m));
                        let v = rng.random_range(-20..40) as f64;
                        index.set(j, v);
                        vals[j] = v;
                        assert_lane_minima(&index, &format!("m={m} level {k} slot {slot} j={j}"));
                        assert_eq!(index.bank().values(), &vals[..], "m={m} j={j}");
                    }
                }
            }
        }
    }

    /// Random mixed-shape dispatch sequences: the indexed kernel must
    /// agree with the scalar oracle assignment-for-assignment. (The
    /// public streaming suites re-pin this through the engine; this is
    /// the direct state-level check.)
    #[test]
    fn indexed_matches_scalar_on_mixed_shapes() {
        for policy in [TieBreak::Min, TieBreak::Max, TieBreak::Rand { seed: 21 }] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15);
            let m = 24;
            let mut scalar = EftState::new(m, policy);
            let mut indexed = indexed(m, policy);
            let mut release = 0.0;
            let blocks: Vec<Vec<usize>> = (0..4).map(|b| (6 * b..6 * b + 6).collect()).collect();
            for i in 0..600 {
                release += rng.random_range(0..3) as f64 * 0.25;
                let task = Task::new(release, 0.25 * rng.random_range(1..5) as f64);
                let pick = rng.random_range(0..4);
                let (a, b) = match pick {
                    0 => {
                        let lo = rng.random_range(0..m);
                        let hi = rng.random_range(lo..m);
                        let set = ProcSetRef::interval(lo, hi);
                        (
                            scalar.dispatch_ref(task, set),
                            indexed.dispatch_ref(task, set),
                        )
                    }
                    1 => {
                        let len = rng.random_range(1..=m);
                        let set = ProcSetRef::prefix(len);
                        (
                            scalar.dispatch_ref(task, set),
                            indexed.dispatch_ref(task, set),
                        )
                    }
                    2 => {
                        let start = rng.random_range(0..m);
                        let len = rng.random_range(1..=m);
                        let set = ProcSetRef::ring(start, len, m);
                        (
                            scalar.dispatch_ref(task, set),
                            indexed.dispatch_ref(task, set),
                        )
                    }
                    _ => {
                        let set = ProcSetRef::Explicit(&blocks[rng.random_range(0..4)]);
                        (
                            scalar.dispatch_ref(task, set),
                            indexed.dispatch_ref(task, set),
                        )
                    }
                };
                assert_eq!(a, b, "{policy:?} dispatch {i} diverged");
                assert_eq!(scalar.completions(), indexed.completions(), "after {i}");
            }
        }
    }

    #[test]
    fn kernel_stats_track_decision_paths() {
        let mut s = indexed(10, TieBreak::Min);
        let block: Vec<usize> = vec![0, 2, 4];
        let overlapping: Vec<usize> = vec![2, 3];
        s.dispatch_ref(Task::unit(0.0), ProcSetRef::interval(0, 9));
        s.dispatch_ref(Task::unit(0.0), ProcSetRef::Explicit(&block));
        s.dispatch_ref(Task::unit(0.0), ProcSetRef::Explicit(&overlapping));
        let ks = s.kernel_stats().expect("the index served");
        assert_eq!(ks.indexed_descents, 1, "the interval");
        assert_eq!(ks.scalar_fallback_scans, 2, "both explicit sets");
        assert_eq!(ks.heap_self_heals, 0);
    }

    #[test]
    fn kernel_state_resolves_auto_to_the_adaptive_wrapper() {
        // A core built without a stream has no structure promise, so
        // Auto is the member scan at any machine count; forced kernels
        // stay as asked.
        let kernel = |m: usize, kernel: DispatchKernel| {
            let core = EftState::new(m, TieBreak::Min).with_kernel(kernel);
            (core.kernel(), core.kernel_stats().is_some())
        };
        assert_eq!(
            kernel(4, DispatchKernel::Auto),
            (DispatchKernel::Scalar, false)
        );
        assert_eq!(
            kernel(256, DispatchKernel::Auto),
            (DispatchKernel::Scalar, false)
        );
        assert_eq!(
            kernel(4, DispatchKernel::Indexed),
            (DispatchKernel::Indexed, true)
        );
        assert_eq!(
            kernel(256, DispatchKernel::Scalar),
            (DispatchKernel::Scalar, false)
        );
    }

    #[test]
    fn for_structure_prefers_the_index_on_structured_families() {
        use flowsched_core::procset::ProcSet;
        use flowsched_core::structure::classify;
        let m = 256;
        let intervals: Vec<ProcSet> = (0..8).map(|i| ProcSet::interval(i, i + 96)).collect();
        let rep = classify(&intervals, m);
        assert_eq!(DispatchKernel::for_structure(&rep), DispatchKernel::Indexed);
        let narrow: Vec<ProcSet> = (0..8).map(|i| ProcSet::interval(i, i + 16)).collect();
        assert_eq!(
            DispatchKernel::for_structure(&classify(&narrow, m)),
            DispatchKernel::Scalar
        );
        // Disjoint 128-wide blocks of scattered machines (block b holds
        // every machine j with j % 2 == b) lend explicit sets, which the
        // index cannot answer: the scan, although they are disjoint and
        // wide enough.
        let scattered: Vec<ProcSet> = (0..2)
            .map(|b| ProcSet::new((b..m).step_by(2).collect()))
            .collect();
        let rep = classify(&scattered, m);
        assert!(rep.disjoint && rep.nested && !rep.interval && !rep.ring_interval);
        assert_eq!(rep.max_size, 128);
        assert_eq!(DispatchKernel::for_structure(&rep), DispatchKernel::Scalar);
    }

    /// Pins the width cut to the lane-index sweep (EXPERIMENTS.md, "One
    /// measured width decides `Auto`"): on contiguous w-wide blocks the
    /// scan read faster at w = 64 and the index at w = 128, at every
    /// machine count from 256 to 16,384, and the cut sits between them.
    /// It reads no machine count, so below 96 machines no set reaches
    /// it: 64 full-width intervals on 64 machines scan, although the
    /// index read faster there — an accepted cost, since nothing runs
    /// `Auto` at that size.
    #[test]
    fn width_cut_matches_the_lane_index_sweep() {
        use flowsched_core::procset::ProcSet;
        use flowsched_core::structure::classify;
        let blocks = |m: usize, w: usize| {
            let sets: Vec<ProcSet> = (0..m / w)
                .map(|b| ProcSet::interval(b * w, b * w + w - 1))
                .collect();
            classify(&sets, m)
        };
        for m in [256, 1024, 4096, 16_384] {
            for (w, winner) in [
                (64, DispatchKernel::Scalar),
                (96, DispatchKernel::Indexed),
                (128, DispatchKernel::Indexed),
            ] {
                let rep = blocks(m, w);
                assert_eq!(rep.max_size, w);
                assert_eq!(DispatchKernel::for_structure(&rep), winner, "m={m} w={w}");
            }
        }
        assert_eq!(
            DispatchKernel::for_structure(&blocks(64, 64)),
            DispatchKernel::Scalar
        );
    }

    #[test]
    fn resolve_for_stream_uses_the_hint_when_present() {
        use flowsched_core::instance::InstanceBuilder;
        use flowsched_core::procset::ProcSet;
        use flowsched_core::stream::{FnStream, InstanceStream};
        // Narrow disjoint blocks on many machines: the promise says
        // Scalar.
        let m = 256;
        let mut b = InstanceBuilder::new(m);
        for i in 0..32 {
            let blk = (i * 5) % (m / 4);
            b.push(
                Task::new(i as f64, 1.0),
                ProcSet::interval(blk * 4, blk * 4 + 3),
            );
        }
        let inst = b.build().unwrap();
        assert_eq!(
            DispatchKernel::Auto.resolve_for_stream(&InstanceStream::new(&inst)),
            DispatchKernel::Scalar
        );
        // A hint-less source promises nothing, so it gets the scan…
        let hintless = FnStream::new(m, || None);
        assert_eq!(
            DispatchKernel::Auto.resolve_for_stream(&hintless),
            DispatchKernel::Scalar
        );
        // …and explicit choices always pass through.
        assert_eq!(
            DispatchKernel::Scalar.resolve_for_stream(&InstanceStream::new(&inst)),
            DispatchKernel::Scalar
        );
    }

    #[test]
    #[should_panic(expected = "empty processing set")]
    fn indexed_rejects_empty_sets() {
        let mut s = indexed(2, TieBreak::Min);
        s.dispatch_ref(Task::unit(0.0), ProcSetRef::Explicit(&[]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexed_rejects_out_of_range_sets() {
        let mut s = indexed(2, TieBreak::Min);
        s.dispatch_ref(Task::unit(0.0), ProcSetRef::interval(1, 4));
    }
}

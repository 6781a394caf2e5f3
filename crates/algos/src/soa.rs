//! Structure-of-arrays machine state for the hot dispatch path.
//!
//! The per-arrival argmin of the paper's Equation (2) is a pure sweep
//! over machine completion times, and its throughput is bounded by how
//! fast those times stream out of the cache. This module owns the
//! layout that feeds the sweep:
//!
//! - [`CompletionBank`]: the per-machine completion times in a
//!   cache-line-aligned, `+∞`-padded lane array. Each [`LANE`]-wide
//!   block occupies exactly one 64-byte cache line, the flat view is a
//!   plain `&[f64]` whose length is a multiple of [`LANE`], and the
//!   padding is `+∞` — neutral under `min` — so vectorized reductions
//!   never need a tail guard when they run over whole lanes.
//! - The 8-wide scan kernels ([`min_in`], [`collect_le`],
//!   [`gather_min`], [`gather_collect_le`]) and the member scan
//!   [`scan_ties_simd`] built from them. These are *portable* SIMD:
//!   explicit 8-element chunks with independent accumulators that LLVM
//!   autovectorizes to `vminpd`-class code on stable Rust — no nightly
//!   `std::simd`, no intrinsics, no target-feature gates.
//! - The scalar one-pass scan [`scan_ties`]. Every kernel and start
//!   rule reaches the member scan through [`scan_ties_simd`], which
//!   takes the one-pass scan for sets narrower than one lane (the
//!   two-pass scan's reduction only pays off from 8 members) and the
//!   two-pass scan from there up. Called directly, [`scan_ties`] is
//!   the oracle that `tests/simd_scan.rs` and `benches/scan.rs` hold
//!   the two-pass arm to.
//!
//! **Tie-order equivalence** (why the two-pass vectorized scan is
//! bitwise-identical to the one-pass scalar scan): Equation (2)'s tie
//! set is `U'ᵢ = {j ∈ Mᵢ : C_j ≤ t'min}` with
//! `t'min = max(rᵢ, min_j C_j)`. The scalar scan folds the minimum and
//! the collection into one pass with a "released-mode" switch; but in
//! *either* mode its final contents are exactly the members with
//! `C_j ≤ t'min`, in ascending member order (argmin mode: `t'min` is
//! the running minimum; release mode: `t'min = rᵢ`). So computing
//! `min_j C_j` first (vectorized, order-free — `min` is associative and
//! commutative over non-NaN floats, and `+∞` padding is neutral) and
//! then collecting `C_j ≤ max(rᵢ, min)` in member order reproduces the
//! identical tie vector, hence identical `Breaker::pick` behavior and
//! RNG draw counts. `tests/simd_scan.rs` pins this property.

use flowsched_core::compact::ProcSetRef;
use flowsched_core::time::Time;

/// Lane width of the SoA layout: 8 × `f64` = one 64-byte cache line.
pub const LANE: usize = 8;

/// One cache line of completion times. `repr(C)` over `[f64; LANE]`
/// (no padding: 8 × 8 bytes fills the 64-byte alignment exactly), so a
/// slice of lanes reinterprets as a flat `f64` slice.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Lane([Time; LANE]);

/// Machine completion times `C_j` in structure-of-arrays form: a
/// cache-line-aligned `f64` array padded to a multiple of [`LANE`] with
/// `+∞` (neutral under `min`). The first [`len`](CompletionBank::len)
/// entries are the live machines.
#[derive(Debug, Clone)]
pub struct CompletionBank {
    lanes: Vec<Lane>,
    len: usize,
}

impl CompletionBank {
    /// Bank for `m` idle machines (all completions 0), padding `+∞`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "need at least one machine");
        let lanes = m.div_ceil(LANE);
        let mut bank = CompletionBank {
            lanes: vec![Lane([f64::INFINITY; LANE]); lanes],
            len: m,
        };
        for v in &mut bank.padded_mut()[..m] {
            *v = 0.0;
        }
        bank
    }

    /// Bank seeded from an existing completion slice (used by tests and
    /// benches to drive the scan kernels on arbitrary data).
    pub fn from_completions(vals: &[Time]) -> Self {
        let mut bank = CompletionBank::new(vals.len());
        bank.padded_mut()[..vals.len()].copy_from_slice(vals);
        bank
    }

    /// Number of live machines.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bank covers zero machines (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live completion times — first `len` entries of the flat view.
    #[inline]
    pub fn values(&self) -> &[Time] {
        &self.padded()[..self.len]
    }

    /// The full padded flat view: length a multiple of [`LANE`], tail
    /// filled with `+∞`, start 64-byte aligned.
    #[inline]
    pub fn padded(&self) -> &[Time] {
        // SAFETY: `Lane` is `repr(C)` over `[Time; LANE]` with size
        // LANE * 8 = 64 bytes (the alignment raises only the start
        // address, not the stride), so `self.lanes` is layout-compatible
        // with `lanes.len() * LANE` contiguous `Time`s.
        unsafe {
            std::slice::from_raw_parts(self.lanes.as_ptr().cast::<Time>(), self.lanes.len() * LANE)
        }
    }

    /// Mutable counterpart of [`padded`](CompletionBank::padded).
    #[inline]
    fn padded_mut(&mut self) -> &mut [Time] {
        // SAFETY: as in `padded`.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.lanes.as_mut_ptr().cast::<Time>(),
                self.lanes.len() * LANE,
            )
        }
    }

    /// Completion time of machine `j`.
    ///
    /// # Panics
    /// Panics if `j >= len`.
    #[inline]
    pub fn get(&self, j: usize) -> Time {
        self.values()[j]
    }

    /// Sets machine `j`'s completion time.
    ///
    /// # Panics
    /// Panics if `j >= len`.
    #[inline]
    pub fn set(&mut self, j: usize, v: Time) {
        let len = self.len;
        assert!(j < len, "machine index {j} out of range for {len} machines");
        self.padded_mut()[j] = v;
    }

    /// Lane `i` of the padded view (panics past the last lane).
    #[inline]
    pub(crate) fn lane(&self, i: usize) -> &[Time; LANE] {
        &self.lanes[i].0
    }

    /// Mutable lane `i` of the padded view (panics past the last lane).
    #[inline]
    pub(crate) fn lane_mut(&mut self, i: usize) -> &mut [Time; LANE] {
        &mut self.lanes[i].0
    }
}

/// `min` over a completion slice, 8-wide: independent per-position
/// accumulators over exact chunks (LLVM lowers the inner loop to packed
/// `min`), scalar tail. `+∞` on an empty slice.
#[inline]
pub fn min_in(vals: &[Time]) -> Time {
    let mut acc = [f64::INFINITY; LANE];
    let mut chunks = vals.chunks_exact(LANE);
    for c in &mut chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a = a.min(v);
        }
    }
    let mut best = chunks
        .remainder()
        .iter()
        .fold(f64::INFINITY, |b, &v| b.min(v));
    for a in acc {
        best = best.min(a);
    }
    best
}

/// Appends `base + offset` for every `vals[offset] ≤ bound`, in
/// ascending order — the collection half of the two-pass tie scan.
///
/// Branchless compaction: every candidate index is stored
/// unconditionally and the write cursor advances by the predicate, so
/// the loop carries no data-dependent branch (the `C_j ≤ bound` hit
/// pattern is effectively random in tie-heavy workloads, and a
/// mispredicting `push` loop costs more than the stores it saves).
#[inline]
pub fn collect_le(vals: &[Time], base: usize, bound: Time, out: &mut Vec<usize>) {
    let start = out.len();
    out.reserve(vals.len());
    // SAFETY: `reserve` guarantees capacity for `start + vals.len()`
    // entries; the cursor `k` never exceeds `start + offset + 1`, every
    // slot below `k` is initialized by the unconditional store before
    // the cursor can move past it, and `set_len(k)` only exposes those
    // initialized slots.
    unsafe {
        let ptr = out.as_mut_ptr();
        let mut k = start;
        for (offset, &v) in vals.iter().enumerate() {
            *ptr.add(k) = base + offset;
            k += (v <= bound) as usize;
        }
        out.set_len(k);
    }
}

/// `min` over the gathered completions of an explicit member slice,
/// 8-wide unrolled so the loads pipeline.
#[inline]
pub fn gather_min(vals: &[Time], members: &[usize]) -> Time {
    let mut acc = [f64::INFINITY; LANE];
    let mut chunks = members.chunks_exact(LANE);
    for c in &mut chunks {
        for (a, &j) in acc.iter_mut().zip(c) {
            *a = a.min(vals[j]);
        }
    }
    let mut best = chunks
        .remainder()
        .iter()
        .fold(f64::INFINITY, |b, &j| b.min(vals[j]));
    for a in acc {
        best = best.min(a);
    }
    best
}

/// Appends every member `j` with `vals[j] ≤ bound`, in slice (=
/// ascending) order. Branchless compaction as in [`collect_le`].
#[inline]
pub fn gather_collect_le(vals: &[Time], members: &[usize], bound: Time, out: &mut Vec<usize>) {
    let start = out.len();
    out.reserve(members.len());
    // SAFETY: as in `collect_le` — capacity reserved up front, the
    // cursor trails the unconditional stores, `set_len` exposes only
    // initialized slots.
    unsafe {
        let ptr = out.as_mut_ptr();
        let mut k = start;
        for &j in members {
            *ptr.add(k) = j;
            k += (vals[j] <= bound) as usize;
        }
        out.set_len(k);
    }
}

/// Equation (2) in one pass: computes the tie set
/// `U'ᵢ = {j ∈ Mᵢ : C_j ≤ t'min}` with `t'min = max(rᵢ, min_j C_j)` while
/// folding the minimum, instead of a min-fold followed by a collection
/// scan. The pass starts in argmin mode (all completions seen so far
/// exceed the release, so the tie set is the running argmin set) and
/// switches permanently to release mode the first time some
/// `C_j ≤ rᵢ` — from then on `t'min = rᵢ` and every machine with
/// `C_j ≤ rᵢ` qualifies. Members must arrive in increasing machine
/// order; `ties` comes back in that same order, as `Breaker::pick`
/// requires.
///
/// [`scan_ties_simd`] runs this scan for sets narrower than one lane;
/// called directly, it is the oracle the two-pass arm is held to (proof
/// sketch in the module docs, pinned by `tests/simd_scan.rs`).
pub fn scan_ties(
    completions: &[Time],
    members: impl Iterator<Item = usize>,
    release: Time,
    ties: &mut Vec<usize>,
) {
    ties.clear();
    let mut released = false;
    let mut min_c = f64::INFINITY;
    for j in members {
        let c = completions[j];
        if released {
            if c <= release {
                ties.push(j);
            }
        } else if c <= release {
            released = true;
            ties.clear();
            ties.push(j);
        } else if c < min_c {
            min_c = c;
            ties.clear();
            ties.push(j);
        } else if c == min_c {
            ties.push(j);
        }
    }
}

/// Sets with fewer members than this take the one-pass [`scan_ties`]
/// inside [`scan_ties_simd`]: below one lane the two-pass scan's 8-wide
/// reduction has nothing to vectorize and its second pass re-reads the
/// set. The cut is measured, not derived: EXPERIMENTS.md ("Stepped fast
/// path against the float engine") holds the width sweep behind it,
/// where, through the streaming engine, the one-pass scan reads faster
/// at every width below 8 and a cut at 16 reads slower at widths 8
/// and 12.
const ONE_PASS_BELOW: usize = 8;

/// The member scan: Equation (2)'s tie set, in ascending member order.
/// Sets of fewer than 8 members take the one-pass [`scan_ties`]; wider
/// ones take two passes over the padded lane array — an 8-wide min
/// reduction, then an ascending collection of
/// `{j ∈ Mᵢ : C_j ≤ max(release, min)}`. Both arms return the same tie
/// vector (module docs sketch the proof; the proptest in
/// `tests/simd_scan.rs` pins it), so the width decides speed only.
///
/// `padded` is the bank's [`CompletionBank::padded`] view; members of
/// `set` must lie below the bank's live length.
pub fn scan_ties_simd(padded: &[Time], set: ProcSetRef<'_>, release: Time, ties: &mut Vec<usize>) {
    if set.len() < ONE_PASS_BELOW {
        return scan_ties(padded, set.iter(), release, ties);
    }
    ties.clear();
    let min = match set {
        ProcSetRef::Interval { lo, hi } => min_in(&padded[lo..=hi]),
        ProcSetRef::Prefix { len } => min_in(&padded[..len]),
        ProcSetRef::Ring { start, len, m } => {
            min_in(&padded[..start + len - m]).min(min_in(&padded[start..m]))
        }
        ProcSetRef::Explicit(members) => gather_min(padded, members),
    };
    collect_members_le(padded, set, release.max(min), ties);
}

/// Appends every member `j` of `set` with `padded[j] ≤ bound` to `out`,
/// in ascending member order: the collection pass of
/// [`scan_ties_simd`], and the widening step of the EFT core's start
/// rules (`eft` module docs).
#[inline]
pub(crate) fn collect_members_le(
    padded: &[Time],
    set: ProcSetRef<'_>,
    bound: Time,
    out: &mut Vec<usize>,
) {
    match set {
        ProcSetRef::Interval { lo, hi } => collect_le(&padded[lo..=hi], lo, bound, out),
        ProcSetRef::Prefix { len } => collect_le(&padded[..len], 0, bound, out),
        ProcSetRef::Ring { start, len, m } => {
            // Ascending members: the wrapped low run [0, start+len−m−1],
            // then the high run [start, m−1].
            collect_le(&padded[..start + len - m], 0, bound, out);
            collect_le(&padded[start..m], start, bound, out);
        }
        ProcSetRef::Explicit(members) => gather_collect_le(padded, members, bound, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bank_is_lane_aligned_and_padded_with_infinity() {
        for m in [1usize, 7, 8, 9, 63, 64, 100] {
            let bank = CompletionBank::new(m);
            assert_eq!(bank.len(), m);
            assert_eq!(bank.padded().len() % LANE, 0);
            assert_eq!(bank.padded().as_ptr() as usize % 64, 0, "m={m}");
            assert!(bank.values().iter().all(|&v| v == 0.0));
            assert!(bank.padded()[m..].iter().all(|&v| v == f64::INFINITY));
        }
    }

    #[test]
    fn bank_get_set_round_trip() {
        let mut bank = CompletionBank::new(5);
        bank.set(3, 2.5);
        assert_eq!(bank.get(3), 2.5);
        assert_eq!(bank.values(), &[0.0, 0.0, 0.0, 2.5, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bank_set_rejects_out_of_range() {
        CompletionBank::new(3).set(3, 1.0);
    }

    #[test]
    fn lane_min_matches_scalar_fold_on_random_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for n in [0usize, 1, 7, 8, 9, 64, 100, 1000] {
            let vals: Vec<Time> = (0..n)
                .map(|_| rng.random_range(0..40) as f64 * 0.5)
                .collect();
            let expect = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(min_in(&vals), expect, "n={n}");
        }
    }

    #[test]
    fn gather_min_matches_scalar_fold_on_random_subsets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let vals: Vec<Time> = (0..200).map(|_| rng.random_range(0..30) as f64).collect();
        for k in [1usize, 3, 8, 17, 100] {
            let members: Vec<usize> = (0..k).map(|i| i * 200 / k).collect();
            let expect = members
                .iter()
                .map(|&j| vals[j])
                .fold(f64::INFINITY, f64::min);
            assert_eq!(gather_min(&vals, &members), expect, "k={k}");
        }
    }

    #[test]
    fn simd_scan_matches_scalar_oracle_on_every_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let m = 50;
        for _ in 0..200 {
            let vals: Vec<Time> = (0..m).map(|_| rng.random_range(0..5) as f64).collect();
            let bank = CompletionBank::from_completions(&vals);
            let release = rng.random_range(0..5) as f64 - 0.5;
            let members: Vec<usize> = (0..m).filter(|_| rng.random_bool(0.4)).collect();
            let sets = [
                ProcSetRef::interval(10, 39),
                ProcSetRef::prefix(17),
                ProcSetRef::ring(40, 20, m),
                ProcSetRef::Explicit(&members),
            ];
            for set in sets {
                if set.is_empty() {
                    continue;
                }
                let mut simd = Vec::new();
                scan_ties_simd(bank.padded(), set, release, &mut simd);
                let mut scalar = Vec::new();
                scan_ties(&vals, set.iter(), release, &mut scalar);
                assert_eq!(simd, scalar, "set {set:?} release {release}");
            }
        }
    }
}

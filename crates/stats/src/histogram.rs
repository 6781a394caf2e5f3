//! Fixed-bin histograms for flow-time distributions and experiment
//! diagnostics.

/// A histogram over `[lo, hi)` with equal-width bins. Values outside the
//  range are counted in saturating edge bins.
///
/// Beyond plain counts, every bin (and both edge bins) tracks the
/// minimum and maximum value it received, and the histogram keeps the
/// running sum of all recorded values. That is what lets
/// [`Histogram::quantile`] interpolate *within* a bin — the r-th order
/// statistic in a bin of known `[min, max]` spread is pinned exactly
/// whenever the bin holds ≤ 2 samples or all-equal samples — and what a
/// Prometheus-style exporter needs (`_sum` next to the cumulative
/// buckets).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    /// Bin width `(hi − lo) / bins`, computed once.
    width: f64,
    counts: Vec<u64>,
    /// Smallest value recorded in each bin (meaningless where count 0).
    mins: Vec<f64>,
    /// Largest value recorded in each bin (meaningless where count 0).
    maxs: Vec<f64>,
    total: u64,
    sum: f64,
    underflow: u64,
    overflow: u64,
    /// `[min, max]` of the underflow mass (meaningless when empty).
    under_range: (f64, f64),
    /// `[min, max]` of the overflow mass (meaningless when empty).
    over_range: (f64, f64),
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and `bins ≥ 1`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(bins >= 1, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            mins: vec![f64::INFINITY; bins],
            maxs: vec![f64::NEG_INFINITY; bins],
            total: 0,
            sum: 0.0,
            underflow: 0,
            overflow: 0,
            under_range: (f64::INFINITY, f64::NEG_INFINITY),
            over_range: (f64::INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Records a value.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        self.sum += x;
        if x < self.lo {
            self.underflow += 1;
            self.under_range = (self.under_range.0.min(x), self.under_range.1.max(x));
            return;
        }
        if x >= self.hi {
            self.overflow += 1;
            self.over_range = (self.over_range.0.min(x), self.over_range.1.max(x));
            return;
        }
        let idx = (((x - self.lo) / self.width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.mins[idx] = self.mins[idx].min(x);
        self.maxs[idx] = self.maxs[idx].max(x);
    }

    /// Records many values.
    pub fn record_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.record(x);
        }
    }

    /// Folds another histogram into this one. Counts add, per-bin ranges
    /// widen, the sum accumulates — merging shard histograms in any
    /// grouping yields the same result as recording every value into one
    /// histogram (up to float summation order in [`Histogram::sum`]).
    ///
    /// # Panics
    /// Panics if the two histograms disagree on range or bin count.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            (self.lo, self.hi, self.counts.len()),
            (other.lo, other.hi, other.counts.len()),
            "histogram merge requires identical ranges and bin counts"
        );
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
            self.mins[i] = self.mins[i].min(other.mins[i]);
            self.maxs[i] = self.maxs[i].max(other.maxs[i]);
        }
        self.total += other.total;
        self.sum += other.sum;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.under_range = (
            self.under_range.0.min(other.under_range.0),
            self.under_range.1.max(other.under_range.1),
        );
        self.over_range = (
            self.over_range.0.min(other.over_range.0),
            self.over_range.1.max(other.over_range.1),
        );
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded values (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of every recorded value (out-of-range included).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Count of values below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of values at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// `(low_edge, high_edge)` of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let width = self.width;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }

    /// `(min, max)` of the values recorded in bin `i`, `None` when the
    /// bin is empty.
    pub fn bin_range(&self, i: usize) -> Option<(f64, f64)> {
        (self.counts[i] > 0).then(|| (self.mins[i], self.maxs[i]))
    }

    /// The `[lo, hi)` range the bins cover.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Smallest value recorded, `None` when empty.
    pub fn min_value(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        if self.underflow > 0 {
            return Some(self.under_range.0);
        }
        self.mins
            .iter()
            .zip(&self.counts)
            .find(|&(_, &c)| c > 0)
            .map(|(&v, _)| v)
            .or(Some(self.over_range.0))
    }

    /// Largest value recorded, `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        if self.overflow > 0 {
            return Some(self.over_range.1);
        }
        self.maxs
            .iter()
            .zip(&self.counts)
            .rev()
            .find(|&(_, &c)| c > 0)
            .map(|(&v, _)| v)
            .or(Some(self.under_range.1))
    }

    /// The value of the `r`-th order statistic (0-based), interpolated
    /// linearly within the bin it falls in between the bin's recorded
    /// minimum and maximum. Exact whenever the bin holds one sample, two
    /// samples (the min and the max *are* the order statistics), or
    /// all-equal samples — which covers edge-aligned integer workloads
    /// and sparse continuous ones alike; off by at most the bin's
    /// observed spread (≤ one bin width) otherwise. Underflow and
    /// overflow interpolate within their own recorded `[min, max]`, so
    /// the extreme ranks (e.g. `quantile(1.0)` = the true maximum) are
    /// exact even out of range.
    fn value_at_rank(&self, r: u64) -> f64 {
        debug_assert!(r < self.total);
        let interp = |pos: u64, count: u64, min: f64, max: f64| -> f64 {
            if count <= 1 || max <= min {
                min
            } else {
                min + (max - min) * pos as f64 / (count - 1) as f64
            }
        };
        let mut cum = self.underflow;
        if r < cum {
            return interp(r, self.underflow, self.under_range.0, self.under_range.1);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if r < cum + c {
                return interp(r - cum, c, self.mins[i], self.maxs[i]);
            }
            cum += c;
        }
        interp(r - cum, self.overflow, self.over_range.0, self.over_range.1)
    }

    /// Quantile `q ∈ [0,1]` with linear interpolation between order
    /// statistics (type-7, mirroring
    /// [`descriptive::quantile`](crate::descriptive::quantile)), read
    /// from the bins instead of a sorted sample. Each order statistic is
    /// resolved by within-bin interpolation (`value_at_rank`): the
    /// result is bit-exact against the sorted-sample quantile whenever
    /// every bin the ranks touch holds ≤ 2 samples or all-equal samples,
    /// and within the touched bins' observed spread (≤ one bin width)
    /// otherwise. Returns `None` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
        if self.total == 0 {
            return None;
        }
        let h = q * (self.total - 1) as f64;
        let lo = h.floor() as u64;
        let hi = h.ceil() as u64;
        let vlo = self.value_at_rank(lo);
        Some(if lo == hi {
            vlo
        } else {
            let vhi = self.value_at_rank(hi);
            vlo + (h - lo as f64) * (vhi - vlo)
        })
    }

    /// A terminal sparkline of the histogram (one char per bin).
    pub fn sparkline(&self) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return " ".repeat(self.counts.len());
        }
        self.counts
            .iter()
            .map(|&c| {
                let lvl = ((c as f64 / max as f64) * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[lvl]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5); // bin 0
        h.record(9.99); // bin 9
        h.record(5.0); // bin 5
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.total(), 3);
        assert_eq!(h.sum(), 0.5 + 9.99 + 5.0);
        assert_eq!(h.bin_range(5), Some((5.0, 5.0)));
        assert_eq!(h.bin_range(1), None);
    }

    #[test]
    fn out_of_range_saturates() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(-5.0);
        h.record(99.0);
        h.record(1.0); // hi edge counts as overflow
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts().iter().sum::<u64>(), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.min_value(), Some(-5.0));
        assert_eq!(h.max_value(), Some(99.0));
    }

    /// One division by the stored width bins every value as the rule
    /// that divided twice, `(x − lo) / ((hi − lo) / bins)`, did: on and
    /// up to two ulps beside each edge of ranges whose width 0.1 is not
    /// dyadic, and out of range. The edges stay bit for bit.
    #[test]
    fn record_bins_like_the_two_division_rule() {
        let beside =
            |x: f64| (-2i64..=2).map(move |d| f64::from_bits(x.to_bits().wrapping_add_signed(d)));
        for (lo, hi, bins) in [(0.0, 1.0, 10), (-0.3, 0.4, 7)] {
            let width = (hi - lo) / bins as f64;
            let two_divisions = |x: f64| -> Option<usize> {
                if x < lo || x >= hi {
                    return None;
                }
                let width = (hi - lo) / bins as f64;
                Some((((x - lo) / width) as usize).min(bins - 1))
            };
            let h = Histogram::new(lo, hi, bins);
            let mut xs = vec![-1.0, -f64::MIN_POSITIVE, 2.5, f64::INFINITY, f64::NAN];
            for i in 0..=bins {
                xs.extend(beside(lo + i as f64 * width));
                xs.extend(beside(lo + i as f64 / 10.0));
            }
            for i in 0..bins {
                let edges = (lo + i as f64 * width, lo + (i + 1) as f64 * width);
                assert_eq!(h.bin_edges(i), edges);
            }
            for x in xs {
                let mut h = h.clone();
                h.record(x);
                let bin = h.counts().iter().position(|&c| c == 1);
                assert_eq!(
                    bin,
                    two_divisions(x),
                    "[{lo}, {hi}) in {bins} bins, x = {x:e}"
                );
            }
        }
    }

    #[test]
    fn bin_edges_partition_range() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_edges(0), (0.0, 2.0));
        assert_eq!(h.bin_edges(4), (8.0, 10.0));
    }

    #[test]
    fn sparkline_has_one_char_per_bin() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        h.record_all(&[0.5, 0.6, 2.5]);
        let s = h.sparkline();
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn empty_sparkline_is_blank() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.sparkline(), "    ");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_range_rejected() {
        let _ = Histogram::new(1.0, 0.0, 3);
    }

    #[test]
    fn quantile_is_exact_for_edge_aligned_samples() {
        use crate::descriptive::quantile;
        // Integer samples in a unit-width histogram sit exactly on bin
        // lower edges, so the histogram quantile must equal the sorted
        // sample quantile bit for bit, interpolation included.
        let samples = [3.0, 1.0, 1.0, 7.0, 2.0, 2.0, 2.0, 5.0];
        let mut h = Histogram::new(0.0, 16.0, 16);
        h.record_all(&samples);
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(quantile(&samples, q)), "q = {q}");
        }
    }

    #[test]
    fn quantile_is_exact_when_bins_hold_at_most_two_samples() {
        use crate::descriptive::quantile;
        // Continuous samples, no two more than a pair per bin: within-bin
        // interpolation recovers every order statistic exactly, so the
        // histogram quantile matches the sorted-sample quantile bit for
        // bit even though nothing sits on a bin edge.
        let samples = [0.31, 0.37, 1.62, 2.85, 2.91, 5.44, 7.03, 9.76];
        let mut h = Histogram::new(0.0, 16.0, 16);
        h.record_all(&samples);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(quantile(&samples, q)), "q = {q}");
        }
    }

    #[test]
    fn crowded_bin_quantile_stays_within_the_bin_spread() {
        use crate::descriptive::quantile;
        // Five samples crowd one bin: interior ranks interpolate between
        // the bin's min and max, so the error is bounded by the observed
        // spread, not the full bin width.
        let samples = [1.1, 1.15, 1.2, 1.3, 1.45, 6.5];
        let mut h = Histogram::new(0.0, 8.0, 8);
        h.record_all(&samples);
        for q in [0.2, 0.4, 0.6, 0.8] {
            let est = h.quantile(q).unwrap();
            let exact = quantile(&samples, q);
            assert!(
                (est - exact).abs() <= 1.45 - 1.1 + 1e-12,
                "q = {q}: {est} vs {exact}"
            );
        }
        // Bin boundaries of the crowd are exact (rank min / rank max).
        assert_eq!(h.quantile(0.0), Some(1.1));
        assert_eq!(h.quantile(1.0), Some(6.5));
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantile_of_out_of_range_samples_is_exact() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.record(-3.0);
        h.record(99.0);
        // Out-of-range mass keeps its observed [min, max]: the extreme
        // ranks report the true values instead of clamping to the range.
        assert_eq!(h.quantile(0.0), Some(-3.0));
        assert_eq!(h.quantile(1.0), Some(99.0));
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let samples_a = [0.5, 1.5, 1.6, 3.25, -1.0];
        let samples_b = [0.75, 9.0, 12.0, 1.55];
        let mut merged = Histogram::new(0.0, 8.0, 8);
        merged.record_all(&samples_a);
        let mut other = Histogram::new(0.0, 8.0, 8);
        other.record_all(&samples_b);
        merged.merge(&other);

        let mut whole = Histogram::new(0.0, 8.0, 8);
        whole.record_all(&samples_a);
        whole.record_all(&samples_b);

        assert_eq!(merged.counts(), whole.counts());
        assert_eq!(merged.total(), whole.total());
        assert_eq!(merged.underflow(), whole.underflow());
        assert_eq!(merged.overflow(), whole.overflow());
        for i in 0..8 {
            assert_eq!(merged.bin_range(i), whole.bin_range(i), "bin {i}");
        }
        assert_eq!(merged.min_value(), whole.min_value());
        assert_eq!(merged.max_value(), whole.max_value());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q = {q}");
        }
    }

    #[test]
    #[should_panic(expected = "identical ranges")]
    fn merge_rejects_mismatched_shapes() {
        let mut a = Histogram::new(0.0, 8.0, 8);
        let b = Histogram::new(0.0, 8.0, 4);
        a.merge(&b);
    }
}

//! Order statistics and the `--compare` verdict rule.

use flowsched_stats::descriptive;

pub use descriptive::mean;

/// The `p`-quantile by linear interpolation between order statistics;
/// 0 when there are no values (no run of a workload succeeded).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        descriptive::quantile(values, p)
    }
}

/// Median; 0 when there are no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let q = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Outcome of comparing one metric of one workload across two ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How to judge one metric: its direction, its bound (a share of the
/// base median), and whether it is exact (compared by equality).
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub lower_is_better: bool,
    pub bound: f64,
    pub exact: bool,
}

/// The `--compare` verdict for one metric, from every run of each side.
///
/// Exact metrics compare medians by equality. Otherwise the verdict is
/// `unresolved` when either side's interquartile range is wider than the
/// bound, unless every run of one side beats every run of the other;
/// then the median change decides: beyond the bound `better` or
/// `worse`, within it `same`.
pub fn verdict(base: &[f64], new: &[f64], rule: Rule) -> Verdict {
    if base.is_empty() || new.is_empty() {
        return Verdict::Unresolved;
    }
    let (bm, nm) = (median(base), median(new));
    let better = |x: f64, y: f64| {
        if rule.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    if rule.exact {
        return if nm == bm {
            Verdict::Same
        } else if better(nm, bm) {
            Verdict::Better
        } else {
            Verdict::Worse
        };
    }
    let spread = |v: &[f64], med: f64| {
        let (q1, q3) = quartiles(v);
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        }
    };
    let dominates = |a: &[f64], b: &[f64]| a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    let wide = spread(base, bm) > rule.bound || spread(new, nm) > rule.bound;
    if wide && !dominates(base, new) && !dominates(new, base) {
        return Verdict::Unresolved;
    }
    let worse_by = if rule.lower_is_better {
        (nm - bm) / bm.abs()
    } else {
        (bm - nm) / bm.abs()
    };
    if worse_by > rule.bound {
        Verdict::Worse
    } else if worse_by < -rule.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    const TPUT: Rule = Rule {
        lower_is_better: false,
        bound: 0.08,
        exact: false,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [98.0, 99.0, 97.0, 99.5, 98.5];
        assert_eq!(verdict(&base, &same, TPUT), Verdict::Same);
        // Every run slower, but by less than the bound.
        let slightly = [97.0, 97.5, 98.0, 98.2, 98.4];
        assert_eq!(verdict(&base, &slightly, TPUT), Verdict::Same);
        let slower = [90.0, 91.0, 89.0, 92.0, 90.5];
        assert_eq!(verdict(&base, &slower, TPUT), Verdict::Worse);
        assert_eq!(verdict(&slower, &base, TPUT), Verdict::Better);
        // Overlapping runs and a wide spread: no verdict.
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&base, &noisy, TPUT), Verdict::Unresolved);
        // A wide spread, but every run of one side beats the other's.
        let fast = [200.0, 210.0, 220.0, 230.0, 240.0];
        assert_eq!(verdict(&noisy, &fast, TPUT), Verdict::Better);
    }

    #[test]
    fn exact_metrics_compare_by_equality() {
        let rule = Rule {
            lower_is_better: true,
            bound: 0.0,
            exact: true,
        };
        assert_eq!(verdict(&[7.5], &[7.5], rule), Verdict::Same);
        assert_eq!(verdict(&[7.5], &[7.0], rule), Verdict::Better);
        assert_eq!(verdict(&[7.5], &[8.0], rule), Verdict::Worse);
    }
}

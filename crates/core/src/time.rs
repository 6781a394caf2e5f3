//! Time representation and floating-point comparison helpers.
//!
//! Times are `f64`. The paper's constructions only involve dyadic rationals
//! (integers for unit-task adversaries; powers of two for the `δ`/`ε`
//! padding of Theorem 10), for which `f64` arithmetic on sums is exact, so
//! tie detection in EFT (`C_{j,i−1} ≤ t_min`) is reliable with plain
//! comparisons. Stochastic workloads (Poisson arrivals) produce ties with
//! probability zero. A small tolerance is still provided for validation
//! code that accumulates long sums.

/// Scheduling time. Non-negative finite `f64` by convention.
pub type Time = f64;

/// Absolute tolerance used by validation helpers when comparing
/// accumulated times.
pub const TIME_EPS: Time = 1e-9;

/// Returns `true` when `a` and `b` are equal up to [`TIME_EPS`],
/// relative to their magnitude for large values.
#[inline]
pub fn time_eq(a: Time, b: Time) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= TIME_EPS * scale
}

/// Returns `true` when `a < b` strictly beyond the tolerance.
#[inline]
pub fn time_lt(a: Time, b: Time) -> bool {
    a < b && !time_eq(a, b)
}

/// Total order for times, treating NaN as an error.
///
/// # Panics
/// Panics if either value is NaN — times in this crate are always finite.
#[inline]
pub fn time_cmp(a: Time, b: Time) -> std::cmp::Ordering {
    a.partial_cmp(&b)
        .expect("times must not be NaN in scheduling computations")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn eq_within_tolerance() {
        assert!(time_eq(1.0, 1.0 + 1e-12));
        assert!(!time_eq(1.0, 1.0 + 1e-6));
    }

    #[test]
    fn eq_scales_with_magnitude() {
        // 1e9 + 1e-4 is within 1e-9 relative tolerance of 1e9.
        assert!(time_eq(1e9, 1e9 + 1e-4));
        assert!(!time_eq(1e9, 1e9 + 10.0));
    }

    #[test]
    fn lt_is_strict_beyond_the_tolerance() {
        assert!(!time_lt(1.0, 1.0 + 1e-12));
        assert!(time_lt(1.0, 1.1));
    }

    #[test]
    fn cmp_orders_times() {
        assert_eq!(time_cmp(1.0, 2.0), Ordering::Less);
        assert_eq!(time_cmp(2.0, 1.0), Ordering::Greater);
        assert_eq!(time_cmp(1.5, 1.5), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cmp_rejects_nan() {
        let _ = time_cmp(f64::NAN, 1.0);
    }
}

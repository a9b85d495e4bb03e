//! Order statistics over host-time samples (nanoseconds).
//!
//! The gated number is always a *best-of* (see the README's timing
//! protocol); medians, quartiles and IQR are noise indicators.

use hera_trace::nearest_rank;

/// The fastest sample; 0 for an empty slice.
pub fn best_of(ns: &[u64]) -> u64 {
    ns.iter().copied().min().unwrap_or(0)
}

/// Nearest-rank median.
pub fn median(ns: &[u64]) -> u64 {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, 500)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `pairs` prints the numbers the driver
/// computes. Needs at least two samples; fewer yield the sample itself.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2 * 100.0
    }
}

/// The line through two `(x, y)` points, as `(intercept, slope)`: the
/// fixed and per-unit cost of an operation measured at two sizes.
pub fn two_point_fit(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    if a.0 == b.0 {
        return (a.1, 0.0);
    }
    let slope = (b.1 - a.1) / (b.0 - a.0);
    (a.1 - slope * a.0, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_is_the_minimum() {
        assert_eq!(best_of(&[141, 128, 186]), 128);
        assert_eq!(best_of(&[]), 0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[5, 1, 3]), 3);
        // Even count: nearest rank takes the lower middle, never a mean.
        assert_eq!(median(&[4, 1, 3, 2]), 2);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((iqr_pct(&v) - 100.0).abs() < 1e-9);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn two_point_fit_recovers_fixed_and_unit_cost() {
        // 500 fixed + 3 per request.
        let (fixed, unit) = two_point_fit((25_000.0, 75_500.0), (100_000.0, 300_500.0));
        assert!((fixed - 500.0).abs() < 1e-6);
        assert!((unit - 3.0).abs() < 1e-9);
        assert_eq!(two_point_fit((1.0, 7.0), (1.0, 9.0)), (7.0, 0.0));
    }
}

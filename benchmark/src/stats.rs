//! Order statistics over small samples of measurements.

/// Sorts ascending; measurements are never NaN.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of an ascending slice
/// (0 for an empty one).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median (0 when the median is 0).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    let m = quantile_sorted(&v, 0.5);
    if m == 0.0 {
        0.0
    } else {
        (quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25)) / m.abs()
    }
}

/// Geometric mean of positive values (0 for an empty sample).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}

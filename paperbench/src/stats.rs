//! Order statistics for the benchmark's samples.

/// Median of `xs` (mean of the middle pair for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`); NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentile the sample supports: p99 when at least ten samples
/// lie beyond it, otherwise the highest percentile that still has ten
/// samples beyond it (never below the median). Returns `(value, q)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let q = (1.0 - 10.0 / n).clamp(0.5, 0.99);
    (quantile(xs, q), q)
}

/// Sum of `xs`.
pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// `|a - b| / max(|a|, |b|, tiny)`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
    (a - b).abs() / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let xs: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&xs).1, 0.99);
        let few: Vec<f64> = (0..100).map(f64::from).collect();
        assert!((tail(&few).1 - 0.9).abs() < 1e-12);
        let tiny = [1.0, 2.0, 3.0];
        assert_eq!(tail(&tiny).1, 0.5);
    }
}

//! Statistics helpers for the figures: percentiles, means, summary rows.

use std::cmp::Ordering;

/// The `p`-quantile (0 ≤ p ≤ 1) by nearest-rank interpolation.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p));
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    let idx = ((v.len() - 1) as f64 * p).round() as usize;
    v[idx]
}

/// Arithmetic mean (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sample standard deviation (0 for fewer than two values).
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Format a duration in seconds with adaptive units for table output.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{:.2}s", s)
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_extremes() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn fmt_units() {
        assert!(fmt_secs(0.0000005).ends_with("us"));
        assert!(fmt_secs(0.005).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
        assert!(fmt_secs(300.0).ends_with("min"));
    }
}

//! Summary statistics shared by every workload, and the metric-name rule.

/// Ascending copy of `values` (NaN-free by construction: every sample is
/// a duration or a finite loss).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of an ascending slice (mean of the middle pair for even `n`).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `q` quantile of an ascending slice, reported only
/// when at least ten samples lie beyond it; fewer make a tail estimate
/// that one outlier can move.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, q);
    (n - r >= 10).then(|| sorted[r - 1])
}

/// Samples needed before [`tail`] reports quantile `q`.
pub fn samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| n - rank(n, q) >= 10)
        .expect("some n qualifies")
}

/// Mean of a slice; 0 for an empty one.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A metric or workload name: starts with a letter or digit, at most 64
/// characters, each from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some(990.0));
        assert_eq!(tail(&v[..999], 0.99), None, "only 9 samples beyond p99");
        assert_eq!(tail(&v[..100], 0.9), Some(90.0));
        assert_eq!(tail(&v[..99], 0.9), None);
        assert_eq!(tail(&v[..50], 0.8), Some(40.0));
        assert_eq!(tail(&v[..49], 0.8), None);
        assert_eq!(tail(&[], 0.5), None);
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.9), 100);
        assert_eq!(samples_for_tail(0.8), 50);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(sorted(&[3.0, -1.0, 2.0]), vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn names_are_limited_to_the_allowed_characters() {
        for ok in [
            "setup_s",
            "tensor.gru_bwd_ms",
            "p50-ms",
            "9lives",
            &"a".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "a b",
            "a/b",
            "cpu%",
            "ms\n",
            "é",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
    }
}

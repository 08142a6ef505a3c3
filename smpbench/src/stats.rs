//! Order statistics for timing samples.

/// Sorts `samples` and returns the value at quantile `p` in `[0, 1]`, by
/// linear interpolation between the two nearest ranks.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// The median of `samples` (sorts them).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The percentiles a tail may be reported at, lowest first, each with the
/// share of samples beyond it in thousandths (integers: `100 * (1 - 0.9)`
/// is not 10 in floating point).
const TAIL_LADDER: [(f64, usize); 5] = [(0.5, 500), (0.9, 100), (0.95, 50), (0.99, 10), (0.999, 1)];

/// The highest percentile of the ladder that still has at least ten of `n`
/// samples beyond it: a tail read from fewer samples is one outlier's
/// latency, not a percentile.  Falls back to the median.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .filter(|(_, beyond)| n * beyond >= 10_000)
        .map(|(p, _)| *p)
        .fold(0.5, f64::max)
}

/// First quartile, median and third quartile with the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`, which is what the driver
/// computes spreads from.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(3), 0.5);
        assert_eq!(tail_percentile(19), 0.5);
        assert_eq!(tail_percentile(20), 0.5);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(199), 0.9);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(3000), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
        let mut one = vec![7.0];
        assert_eq!(percentile(&mut one, 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }
}

//! Small statistics and numerical-analysis helpers.
//!
//! These are shared by the discrete-event simulator (sample moments, confidence
//! intervals), the experiment harnesses (density/CDF post-processing) and the tests
//! (comparing analytic curves against simulated ones).

/// Running mean / variance accumulator using Welford's online algorithm.
///
/// Welford's recurrence is numerically stable for very long simulation runs where a
/// naive sum-of-squares accumulator would cancel catastrophically.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of an asymptotic normal confidence interval for the mean at
    /// roughly 95% coverage (z = 1.96).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return f64::INFINITY;
        }
        1.96 * self.std_dev() / (self.count as f64).sqrt()
    }
}

/// Linear interpolation of `y(x)` in a table of (x, y) samples sorted by `x`.
///
/// Values outside the table are clamped to the end-point values, which is the right
/// behaviour for CDF tables (0 before the first sample, 1 after the last).
pub fn lerp_table(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "mismatched table lengths");
    assert!(!xs.is_empty(), "empty interpolation table");
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    // Binary search for the bracketing interval.
    let idx = match xs.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
        Ok(i) => return ys[i],
        Err(i) => i,
    };
    let (x0, x1) = (xs[idx - 1], xs[idx]);
    let (y0, y1) = (ys[idx - 1], ys[idx]);
    let w = (x - x0) / (x1 - x0);
    y0 + w * (y1 - y0)
}

/// Composite trapezoidal integration of samples `ys` taken at points `xs`.
pub fn trapezoid(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
    if xs.len() < 2 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 1..xs.len() {
        acc += 0.5 * (ys[i] + ys[i - 1]) * (xs[i] - xs[i - 1]);
    }
    acc
}

/// Generates `n` equally spaced points covering `[lo, hi]` inclusive.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

/// Inverts a monotone CDF table: returns the smallest tabulated `x` at which the CDF
/// reaches probability `p`, interpolating linearly between samples.
///
/// This is how the suite extracts passage-time *quantiles* (e.g. the paper's
/// "P(system 5 processes 175 voters in under 440 s) = 0.9858" read the other way
/// round) from an inverted CDF curve.
pub fn quantile_from_cdf(ts: &[f64], cdf: &[f64], p: f64) -> Option<f64> {
    assert_eq!(ts.len(), cdf.len());
    if !(0.0..=1.0).contains(&p) || ts.is_empty() {
        return None;
    }
    if p <= cdf[0] {
        return Some(ts[0]);
    }
    for i in 1..ts.len() {
        if cdf[i] >= p {
            let (c0, c1) = (cdf[i - 1], cdf[i]);
            if (c1 - c0).abs() < f64::EPSILON {
                return Some(ts[i]);
            }
            let w = (p - c0) / (c1 - c0);
            return Some(ts[i - 1] + w * (ts[i] - ts[i - 1]));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small = RunningStats::new();
        let mut large = RunningStats::new();
        for i in 0..10 {
            small.push(i as f64);
        }
        for i in 0..1000 {
            large.push((i % 10) as f64);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn lerp_table_interior_and_clamping() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 40.0];
        assert_eq!(lerp_table(&xs, &ys, -1.0), 0.0);
        assert_eq!(lerp_table(&xs, &ys, 3.0), 40.0);
        assert_eq!(lerp_table(&xs, &ys, 0.5), 5.0);
        assert_eq!(lerp_table(&xs, &ys, 1.5), 25.0);
        assert_eq!(lerp_table(&xs, &ys, 1.0), 10.0);
    }

    #[test]
    fn trapezoid_integrates_linear_exactly() {
        let xs = linspace(0.0, 2.0, 21);
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        // ∫ (3x+1) dx over [0,2] = 6 + 2 = 8
        assert!((trapezoid(&xs, &ys) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn trapezoid_density_close_to_one() {
        // Exponential density integrates to ~1 over a long enough window.
        let xs = linspace(0.0, 40.0, 4001);
        let ys: Vec<f64> = xs.iter().map(|x| 0.5 * (-0.5 * x).exp()).collect();
        assert!((trapezoid(&xs, &ys) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(1.0, 3.0, 5);
        assert_eq!(v, vec![1.0, 1.5, 2.0, 2.5, 3.0]);
    }

    #[test]
    fn quantile_from_cdf_interpolates() {
        let ts = [0.0, 1.0, 2.0, 3.0];
        let cdf = [0.0, 0.5, 0.75, 1.0];
        assert_eq!(quantile_from_cdf(&ts, &cdf, 0.5), Some(1.0));
        assert_eq!(quantile_from_cdf(&ts, &cdf, 0.25), Some(0.5));
        assert_eq!(quantile_from_cdf(&ts, &cdf, 1.0), Some(3.0));
        assert_eq!(quantile_from_cdf(&ts, &cdf, 0.0), Some(0.0));
        assert_eq!(quantile_from_cdf(&ts, &cdf, 2.0), None);
    }
}

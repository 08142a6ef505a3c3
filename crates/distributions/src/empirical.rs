//! Empirical distributions estimated from simulation output.
//!
//! The paper validates every analytic curve against a discrete-event simulation of
//! the same high-level model (Figs. 4 and 6).  The simulator produces raw passage-time
//! samples; this module turns them into density estimates (histogram with optional
//! smoothing), cumulative distribution functions and quantiles that can be compared
//! point-by-point with the numerically inverted transforms.

use smp_numeric::stats::RunningStats;

/// An empirical distribution built from observed samples.
#[derive(Debug, Clone)]
pub struct EmpiricalDistribution {
    sorted: Vec<f64>,
    stats: RunningStats,
}

impl EmpiricalDistribution {
    /// Builds an empirical distribution from raw samples (NaNs are rejected).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "samples must be finite"
        );
        let mut stats = RunningStats::new();
        for &x in &samples {
            stats.push(x);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        EmpiricalDistribution {
            sorted: samples,
            stats,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The samples, sorted ascending.  Exposed so consumers (the simulation
    /// measure engine, determinism tests) can compare or re-aggregate the raw
    /// data without round-tripping through summary statistics.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// The raw sample moment `mean(Xᵏ)` and the 95% confidence half-width of
    /// that mean.  `raw_moment(1)` is `(mean(), ci95_half_width())`.
    pub fn raw_moment(&self, order: u32) -> (f64, f64) {
        let mut stats = RunningStats::new();
        for &x in &self.sorted {
            stats.push(x.powi(order as i32));
        }
        (stats.mean(), stats.ci95_half_width())
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        self.stats.variance()
    }

    /// Half-width of the 95% confidence interval on the mean.
    pub fn ci95_half_width(&self) -> f64 {
        self.stats.ci95_half_width()
    }

    /// Smallest observed sample.
    pub fn min(&self) -> f64 {
        self.stats.min()
    }

    /// Largest observed sample.
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// Empirical CDF `P̂(X ≤ t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // Index of the first sample strictly greater than t.
        let count = self.sorted.partition_point(|&x| x <= t);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile: smallest sample `x` with `P̂(X ≤ x) ≥ p`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&p) {
            return None;
        }
        if p == 0.0 {
            return Some(self.sorted[0]);
        }
        let rank = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// Histogram-based density estimate evaluated at the centres of `bins` equal-width
    /// bins spanning `[lo, hi]`.  Returns `(centres, densities)`; densities integrate
    /// to the fraction of samples falling inside the window.
    pub fn density(&self, lo: f64, hi: f64, bins: usize) -> (Vec<f64>, Vec<f64>) {
        assert!(bins > 0 && hi > lo, "invalid histogram window");
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0usize; bins];
        for &x in &self.sorted {
            if x < lo || x >= hi {
                continue;
            }
            let idx = (((x - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        let n = self.sorted.len().max(1) as f64;
        let centres = (0..bins).map(|i| lo + (i as f64 + 0.5) * width).collect();
        let densities = counts.iter().map(|&c| c as f64 / (n * width)).collect();
        (centres, densities)
    }

    /// Density estimate at arbitrary points using a Gaussian kernel with Silverman's
    /// robust rule-of-thumb bandwidth, `0.9·min(σ, IQR/1.34)·n^(−1/5)`.  Smoother than
    /// a histogram for comparison plots with moderate sample counts.  The
    /// interquartile range keeps a heavy tail — a rare, slow repair branch
    /// inflating `σ` a hundredfold — from smoothing the body's peak flat; the
    /// spread falls back to `σ` when the IQR is 0, and the bandwidth to 1 when
    /// both are.
    pub fn kernel_density(&self, points: &[f64]) -> Vec<f64> {
        let (Some(q1), Some(q3)) = (self.quantile(0.25), self.quantile(0.75)) else {
            return vec![0.0; points.len()];
        };
        let n = self.sorted.len() as f64;
        let sigma = self.stats.std_dev();
        let iqr = q3 - q1;
        let spread = if iqr > 0.0 {
            sigma.min(iqr / 1.34)
        } else {
            sigma
        };
        let bandwidth = if spread > 0.0 {
            0.9 * spread * n.powf(-0.2)
        } else {
            1.0
        };
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * bandwidth * n);
        points
            .iter()
            .map(|&t| {
                let mut acc = 0.0;
                for &x in &self.sorted {
                    let z = (t - x) / bandwidth;
                    acc += (-0.5 * z * z).exp();
                }
                acc * norm
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::Dist;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exponential_samples(n: usize, rate: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Dist::exponential(rate);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn cdf_and_quantile_basics() {
        let e = EmpiricalDistribution::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(2.0), 0.5);
        assert_eq!(e.cdf(10.0), 1.0);
        assert_eq!(e.quantile(0.5), Some(2.0));
        assert_eq!(e.quantile(1.0), Some(4.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.5), None);
        assert_eq!(e.len(), 4);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
    }

    #[test]
    fn empty_distribution() {
        let e = EmpiricalDistribution::from_samples(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.cdf(1.0), 0.0);
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.kernel_density(&[1.0, 2.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn cdf_matches_analytic_for_large_sample() {
        let samples = exponential_samples(100_000, 1.0, 7);
        let e = EmpiricalDistribution::from_samples(samples);
        for &t in &[0.25f64, 0.5, 1.0, 2.0, 4.0] {
            let analytic = 1.0 - (-t).exp();
            assert!(
                (e.cdf(t) - analytic).abs() < 0.01,
                "cdf({t}) = {} vs {}",
                e.cdf(t),
                analytic
            );
        }
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let samples = exponential_samples(50_000, 2.0, 9);
        let e = EmpiricalDistribution::from_samples(samples);
        let (centres, dens) = e.density(0.0, 8.0, 160);
        let width = centres[1] - centres[0];
        let integral: f64 = dens.iter().map(|d| d * width).sum();
        assert!((integral - 1.0).abs() < 0.01, "integral {integral}");
        // Density near zero should approach rate = 2.
        assert!(
            (dens[0] - 2.0).abs() < 0.25,
            "density at origin {}",
            dens[0]
        );
    }

    #[test]
    fn kernel_density_tracks_histogram() {
        let samples = exponential_samples(20_000, 1.0, 11);
        let e = EmpiricalDistribution::from_samples(samples);
        let pts = vec![0.5, 1.0, 2.0];
        let kd = e.kernel_density(&pts);
        for (t, d) in pts.iter().zip(kd) {
            let analytic = (-t).exp();
            assert!((d - analytic).abs() < 0.1, "kde({t}) = {d} vs {analytic}");
        }
    }

    /// A body on (1.5, 10) holding 80% of the mass beside a 0.2-weight
    /// Erlang(0.001, 5) tail with mean 5,000: the tail makes σ about 1,000, and
    /// a σ-only bandwidth of about 300 smears the body's 0.8/8.5 flat.
    #[test]
    fn kernel_density_keeps_the_body_of_a_heavy_tailed_sample() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Dist::mixture(vec![
            (0.8, Dist::uniform(1.5, 10.0)),
            (0.2, Dist::erlang(0.001, 5)),
        ]);
        let samples = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let e = EmpiricalDistribution::from_samples(samples);
        let expect = 0.8 / 8.5;
        let kd = e.kernel_density(&[5.0])[0];
        assert!(
            (kd - expect).abs() < 0.15 * expect,
            "kde(5) = {kd} vs {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_samples() {
        EmpiricalDistribution::from_samples(vec![1.0, f64::NAN]);
    }

    #[test]
    fn samples_accessor_and_raw_moments() {
        let e = EmpiricalDistribution::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(e.samples(), &[1.0, 2.0, 3.0]);
        let (m1, _) = e.raw_moment(1);
        assert!((m1 - 2.0).abs() < 1e-12);
        let (m2, ci2) = e.raw_moment(2);
        assert!((m2 - (1.0 + 4.0 + 9.0) / 3.0).abs() < 1e-12);
        assert!(ci2 > 0.0);
        // Second raw moment of Exp(2) is 2/λ² = 0.5.
        let samples = exponential_samples(50_000, 2.0, 13);
        let e = EmpiricalDistribution::from_samples(samples);
        let (m2, ci2) = e.raw_moment(2);
        assert!((m2 - 0.5).abs() < 4.0 * ci2, "E[X²] = {m2} ± {ci2}");
    }

    proptest! {
        /// The empirical CDF is monotone and quantile() inverts it.
        #[test]
        fn prop_cdf_monotone_and_quantile_consistent(
            mut samples in proptest::collection::vec(0.0f64..100.0, 1..200),
            p in 0.01f64..1.0)
        {
            samples.retain(|x| x.is_finite());
            prop_assume!(!samples.is_empty());
            let e = EmpiricalDistribution::from_samples(samples.clone());
            let q = e.quantile(p).unwrap();
            prop_assert!(e.cdf(q) + 1e-12 >= p);
            // Monotonicity on a few probes.
            let probes = [0.0, 25.0, 50.0, 75.0, 100.0];
            for w in probes.windows(2) {
                prop_assert!(e.cdf(w[1]) + 1e-12 >= e.cdf(w[0]));
            }
        }
    }
}

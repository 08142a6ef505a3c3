//! Cumulative distribution curves from Laplace-domain densities.
//!
//! If `L(s)` is the transform of a passage-time *density* then `L(s)/s` is the
//! transform of its *cumulative distribution function*; the paper obtains the
//! response-time quantile curve of Fig. 5 by inverting exactly that.  [`CdfCurve`]
//! wraps the inverted samples with the clamping, monotonicity repair and quantile
//! extraction needed to read probabilities and percentiles off the curve.

use crate::splan::{InversionMethod, SPointPlan, TransformValues};
use smp_distributions::LaplaceTransform;
use smp_numeric::stats::{lerp_table, quantile_from_cdf};
use smp_numeric::Complex64;

/// Repairs raw inverted CDF samples in place: each is clamped into `[0, 1]`
/// and raised to the running maximum of the samples at earlier times, so
/// inversion noise can neither leave `[0, 1]` nor make the curve step down.
/// The maximum runs in ascending-`t` order whatever the grid's order, so a
/// sample never takes the value of a later time listed before it; ties keep
/// grid order.  A NaN sample takes the running maximum.  The one CDF repair:
/// every CDF curve, inverted or read off a uniformized chain, goes through
/// it.
///
/// # Panics
/// When `t_points` and `values` differ in length.
pub fn repair_cdf(t_points: &[f64], values: &mut [f64]) {
    assert_eq!(t_points.len(), values.len(), "one sample per t-point");
    let mut order: Vec<usize> = (0..values.len()).collect();
    if !t_points.is_sorted() {
        order.sort_by(|&a, &b| t_points[a].total_cmp(&t_points[b]));
    }
    let mut running_max: f64 = 0.0;
    for i in order {
        running_max = running_max.max(values[i].clamp(0.0, 1.0));
        values[i] = running_max;
    }
}

/// A sampled cumulative distribution function `F(t)` on a grid of `t`-points.
#[derive(Debug, Clone)]
pub struct CdfCurve {
    t_points: Vec<f64>,
    values: Vec<f64>,
}

impl CdfCurve {
    /// Builds a CDF curve by numerically inverting `L(s)/s` where `transform` is the
    /// Laplace transform of the density.
    pub fn from_density_transform<L: LaplaceTransform + ?Sized>(
        method: InversionMethod,
        transform: &L,
        t_points: &[f64],
    ) -> Self {
        let cdf_transform = |s: Complex64| transform.lst(s) / s;
        let plan = SPointPlan::new(method, t_points);
        let values = TransformValues::compute(&plan, &cdf_transform);
        let raw = plan.invert(&values);
        CdfCurve::from_samples(t_points.to_vec(), raw)
    }

    /// Wraps raw inverted samples, clamping them to `[0, 1]` and repairing tiny
    /// non-monotonicities caused by numerical inversion noise ([`repair_cdf`]).
    pub fn from_samples(t_points: Vec<f64>, mut values: Vec<f64>) -> Self {
        assert_eq!(t_points.len(), values.len(), "mismatched sample lengths");
        assert!(
            t_points.windows(2).all(|w| w[0] < w[1]),
            "t-points must be strictly increasing"
        );
        repair_cdf(&t_points, &mut values);
        CdfCurve { t_points, values }
    }

    /// The time grid.
    pub fn t_points(&self) -> &[f64] {
        &self.t_points
    }

    /// The CDF values on the grid.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `P(T ≤ t)` by linear interpolation on the grid (clamped outside it).
    pub fn probability_at(&self, t: f64) -> f64 {
        lerp_table(&self.t_points, &self.values, t)
    }

    /// The `p`-quantile: the smallest gridded time by which the probability reaches
    /// `p`, or `None` if the curve never gets there.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        quantile_from_cdf(&self.t_points, &self.values, p)
    }

    /// Iterates over `(t, F(t))` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.t_points
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_distributions::Dist;
    use smp_numeric::stats::linspace;

    /// Samples are clamped into `[0, 1]`, never fall below one at an
    /// earlier time, and a NaN sample reads the running maximum; a reversed
    /// grid repairs to the reversed ascending repair.
    #[test]
    fn repair_cdf_clamps_and_keeps_the_running_maximum() {
        let ts = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let raw = [-0.25, 0.5, 0.25, f64::NAN, 1.5, 0.75];
        let mut values = raw;
        repair_cdf(&ts, &mut values);
        assert_eq!(values, [0.0, 0.5, 0.5, 0.5, 1.0, 1.0]);
        let (mut reversed_ts, mut reversed) = (ts, raw);
        reversed_ts.reverse();
        reversed.reverse();
        repair_cdf(&reversed_ts, &mut reversed);
        reversed.reverse();
        assert_eq!(reversed, values);
    }

    #[test]
    fn exponential_cdf_curve() {
        let d = Dist::exponential(0.5);
        let ts = linspace(0.1, 12.0, 60);
        let curve = CdfCurve::from_density_transform(InversionMethod::euler(), &d, &ts);
        for (t, v) in curve.iter() {
            let expect = 1.0 - (-0.5 * t).exp();
            assert!((v - expect).abs() < 1e-6, "F({t}) = {v} vs {expect}");
        }
    }

    #[test]
    fn quantile_extraction_matches_analytic() {
        let d = Dist::exponential(1.0);
        let ts = linspace(0.05, 10.0, 400);
        let curve = CdfCurve::from_density_transform(InversionMethod::euler(), &d, &ts);
        // Median of Exp(1) is ln 2.
        let median = curve.quantile(0.5).unwrap();
        assert!(
            (median - std::f64::consts::LN_2).abs() < 0.02,
            "median {median}"
        );
        let p90 = curve.quantile(0.9).unwrap();
        assert!((p90 - 10f64.ln()).abs() < 0.02, "p90 {p90}");
    }

    #[test]
    fn curve_is_monotone_and_clamped() {
        // Erlang CDF inverted with Laguerre (smooth) must remain within [0,1] and
        // non-decreasing even in the presence of numerical wiggle.
        let d = Dist::erlang(1.0, 3);
        let ts = linspace(0.1, 20.0, 100);
        let curve = CdfCurve::from_density_transform(InversionMethod::laguerre(), &d, &ts);
        let vals = curve.values();
        for w in vals.windows(2) {
            assert!(w[1] + 1e-12 >= w[0]);
        }
        assert!(vals.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn probability_at_clamps_outside_grid() {
        let curve = CdfCurve::from_samples(vec![1.0, 2.0, 3.0], vec![0.2, 0.5, 0.9]);
        assert_eq!(curve.probability_at(0.0), 0.2);
        assert_eq!(curve.probability_at(10.0), 0.9);
        assert_eq!(curve.probability_at(2.5), 0.7);
        assert_eq!(curve.quantile(0.95), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_grid() {
        CdfCurve::from_samples(vec![1.0, 1.0], vec![0.1, 0.2]);
    }
}

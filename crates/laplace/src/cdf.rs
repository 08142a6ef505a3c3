//! The repair of sampled cumulative distribution curves.
//!
//! If `L(s)` is the transform of a passage-time *density* then `L(s)/s` is the
//! transform of its *cumulative distribution function*; the paper obtains the
//! response-time quantile curve of Fig. 5 by inverting exactly that
//! ([`crate::MeasureKind::Cdf`]).  Inversion noise can leave the samples
//! outside `[0, 1]` or make them step down; [`repair_cdf`] takes both out.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InversionMethod, MeasureKind, TransformValues};
    use smp_distributions::Dist;
    use smp_numeric::stats::{lerp_table, linspace, quantile_from_cdf};

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

    /// `F(t)` of a closed-form density transform on `ts`, read as every
    /// CDF is read: [`MeasureKind::Cdf`] over the transform's values.
    fn cdf_of(method: InversionMethod, d: &Dist, ts: &[f64]) -> Vec<f64> {
        let plan = MeasureKind::Cdf.plan(method, ts);
        MeasureKind::Cdf.postprocess(&plan, &TransformValues::compute(&plan, d))
    }

    #[test]
    fn exponential_cdf_curve() {
        let d = Dist::exponential(0.5);
        let ts = linspace(0.1, 12.0, 60);
        let curve = cdf_of(InversionMethod::euler(), &d, &ts);
        for (t, v) in ts.iter().zip(curve) {
            let expect = 1.0 - (-0.5 * t).exp();
            assert!((v - expect).abs() < 1e-6, "F({t}) = {v} vs {expect}");
        }
    }

    #[test]
    fn quantile_extraction_matches_analytic() {
        let d = Dist::exponential(1.0);
        let ts = linspace(0.05, 10.0, 400);
        let curve = cdf_of(InversionMethod::euler(), &d, &ts);
        // Median of Exp(1) is ln 2.
        let median = quantile_from_cdf(&ts, &curve, 0.5).unwrap();
        assert!(
            (median - std::f64::consts::LN_2).abs() < 0.02,
            "median {median}"
        );
        let p90 = quantile_from_cdf(&ts, &curve, 0.9).unwrap();
        assert!((p90 - 10f64.ln()).abs() < 0.02, "p90 {p90}");
    }

    #[test]
    fn curve_is_monotone_and_clamped() {
        // Erlang CDF inverted with Laguerre (smooth) must remain within [0,1] and
        // non-decreasing even in the presence of numerical wiggle.
        let d = Dist::erlang(1.0, 3);
        let ts = linspace(0.1, 20.0, 100);
        let vals = cdf_of(InversionMethod::laguerre(), &d, &ts);
        for w in vals.windows(2) {
            assert!(w[1] + 1e-12 >= w[0]);
        }
        assert!(vals.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn probability_at_clamps_outside_grid() {
        let ts = [1.0, 2.0, 3.0];
        let mut values = [0.2, 0.5, 0.9];
        repair_cdf(&ts, &mut values);
        assert_eq!(lerp_table(&ts, &values, 0.0), 0.2);
        assert_eq!(lerp_table(&ts, &values, 10.0), 0.9);
        assert_eq!(lerp_table(&ts, &values, 2.5), 0.7);
        assert_eq!(quantile_from_cdf(&ts, &values, 0.95), None);
    }
}

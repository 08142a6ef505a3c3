//! The Euler inversion algorithm of Abate & Whitt (1995).
//!
//! The method approximates the Bromwich inversion integral by the trapezoidal rule
//! along a vertical contour `Re(s) = A / (2t)` and accelerates the resulting slowly
//! converging alternating series with Euler summation (binomially weighted averages
//! of the last `m + 1` partial sums).
//!
//! For a transform `L(s)` of a real-valued function `f(t)`, the approximation is
//!
//! ```text
//!   f(t) ≈ (e^{A/2} / 2t)·Re L(A/2t)
//!        + (e^{A/2} / t)·Σ_{k≥1} (-1)^k Re L((A + 2kπi) / 2t)
//! ```
//!
//! truncated at `n + m` terms and Euler-summed over the last `m + 1` partial sums.
//! The discretisation-error parameter `A` bounds the aliasing error by roughly
//! `e^{-A}`; the default `A = 19.1` targets ~10⁻⁸, matching the convergence
//! tolerance used elsewhere in the suite.
//!
//! As the paper notes (Section 4), the number of transform evaluations is
//! `n + m + 1` per `t`-point — `k` "typically varies between 15 and 50, depending on
//! the accuracy of the inversion required".

use smp_distributions::LaplaceTransform;
use smp_numeric::kahan::KahanSum;
use smp_numeric::special::binomial_row;
use smp_numeric::Complex64;

/// Tuning parameters for the Euler algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EulerParams {
    /// Discretisation-error parameter `A`; the aliasing error is `O(e^{-A})`.
    pub a: f64,
    /// Number of leading terms `n` summed exactly before Euler acceleration starts.
    pub terms: usize,
    /// Number of extra terms `m` averaged by Euler summation.
    pub euler_terms: usize,
}

impl Default for EulerParams {
    fn default() -> Self {
        // 33 + 12 + 1 = 46 transform evaluations per t-point — comfortably inside the
        // paper's quoted 15–50 range and accurate to ~1e-8 on smooth densities.
        EulerParams {
            a: 19.1,
            terms: 33,
            euler_terms: 12,
        }
    }
}

impl EulerParams {
    /// Total number of transform evaluations needed per `t`-point.
    pub fn evaluations_per_t(&self) -> usize {
        self.terms + self.euler_terms + 1
    }
}

/// The Euler inversion operator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Euler {
    params: EulerParams,
}

impl Euler {
    /// Creates an inverter with the given parameters.
    pub fn new(params: EulerParams) -> Self {
        assert!(params.a > 0.0, "Euler parameter A must be positive");
        assert!(params.terms >= 1, "Euler needs at least one series term");
        Euler { params }
    }

    /// Creates an inverter with default parameters (A = 19.1, n = 33, m = 12).
    pub fn standard() -> Self {
        Euler::new(EulerParams::default())
    }

    /// The `s`-points at which the transform must be evaluated to invert at time `t`.
    ///
    /// `t` must be strictly positive — the algorithm evaluates on the vertical line
    /// `Re(s) = A / (2t)`.
    pub fn s_points(&self, t: f64) -> Vec<Complex64> {
        assert!(t > 0.0, "Euler inversion requires t > 0, got {t}");
        let n_eval = self.params.evaluations_per_t();
        let re = self.params.a / (2.0 * t);
        (0..n_eval)
            .map(|k| Complex64::new(re, k as f64 * std::f64::consts::PI / t))
            .collect()
    }

    /// Inverts from precomputed transform values laid out in the order returned by
    /// [`Euler::s_points`] for the same `t`.
    pub fn invert_values(&self, values: &[Complex64], t: f64) -> f64 {
        assert!(t > 0.0, "Euler inversion requires t > 0, got {t}");
        let n = self.params.terms;
        let m = self.params.euler_terms;
        assert_eq!(
            values.len(),
            n + m + 1,
            "expected {} transform values, got {}",
            n + m + 1,
            values.len()
        );

        // Partial sums of the alternating series.
        let mut partial = Vec::with_capacity(n + m + 1);
        let mut acc = KahanSum::with_initial(0.5 * values[0].re);
        partial.push(acc.value());
        for (k, v) in values.iter().enumerate().skip(1) {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            acc.add(sign * v.re);
            partial.push(acc.value());
        }

        // Euler summation: binomially weighted average of partial sums S_n ... S_{n+m}.
        let weights = binomial_row(m as u32);
        let scale = 0.5f64.powi(m as i32);
        let mut avg = KahanSum::new();
        for (j, w) in weights.iter().enumerate() {
            avg.add(w * scale * partial[n + j]);
        }

        (self.params.a / 2.0).exp() / t * avg.value()
    }

    /// Inverts a transform directly (evaluating it at the required points).
    pub fn invert<L: LaplaceTransform + ?Sized>(&self, transform: &L, t: f64) -> f64 {
        self.invert_many_with(|s| transform.lst(s), &[t])[0]
    }

    /// Inverts a transform at many `t`-points.
    pub fn invert_many<L: LaplaceTransform + ?Sized>(&self, transform: &L, ts: &[f64]) -> Vec<f64> {
        self.invert_many_with(|s| transform.lst(s), ts)
    }

    /// Inverts at many `t`-points, asking `value_at` for the transform value
    /// at each required `s`-point, in [`Euler::s_points`] order per `t` — the
    /// one inversion loop behind the transform-, cache- and lookup-driven
    /// entry points.
    pub fn invert_many_with(
        &self,
        mut value_at: impl FnMut(Complex64) -> Complex64,
        ts: &[f64],
    ) -> Vec<f64> {
        ts.iter()
            .map(|&t| {
                let values: Vec<Complex64> =
                    self.s_points(t).into_iter().map(&mut value_at).collect();
                self.invert_values(&values, t)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_distributions::Dist;

    #[test]
    fn default_params_within_paper_range() {
        let p = EulerParams::default();
        assert!(p.evaluations_per_t() >= 15 && p.evaluations_per_t() <= 51);
    }

    #[test]
    fn s_points_lie_on_vertical_line() {
        let euler = Euler::standard();
        let t = 2.5;
        let pts = euler.s_points(t);
        assert_eq!(pts.len(), EulerParams::default().evaluations_per_t());
        let re = 19.1 / (2.0 * t);
        for (k, s) in pts.iter().enumerate() {
            assert!((s.re - re).abs() < 1e-14);
            assert!((s.im - k as f64 * std::f64::consts::PI / t).abs() < 1e-12);
        }
    }

    #[test]
    fn inverts_exponential_density() {
        let euler = Euler::standard();
        let d = Dist::exponential(1.0);
        for &t in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            let f = euler.invert(&d, t);
            let expect = (-t).exp();
            assert!((f - expect).abs() < 1e-7, "f({t}) = {f} vs {expect}");
        }
    }

    #[test]
    fn inverts_erlang_density() {
        let euler = Euler::standard();
        let d = Dist::erlang(2.0, 3);
        for &t in &[0.2, 0.5, 1.0, 1.5, 3.0, 6.0] {
            let f = euler.invert(&d, t);
            // Erlang(λ=2, k=3) pdf: λ^k t^{k-1} e^{-λt} / (k-1)!
            let expect = 8.0 * t * t * (-2.0 * t).exp() / 2.0;
            assert!((f - expect).abs() < 1e-7, "f({t}) = {f} vs {expect}");
        }
    }

    #[test]
    fn inverts_uniform_density_with_discontinuities() {
        // Uniform densities have jump discontinuities — exactly the case the paper
        // says requires Euler rather than Laguerre.
        // Accuracy is necessarily lower than for smooth densities (the periodised
        // Fourier series behind the method converges like 1/k at jump points), so
        // the tolerance here is looser; the high-accuracy configuration below
        // demonstrates that the error is controllable.
        let euler = Euler::standard();
        let d = Dist::uniform(1.0, 3.0);
        for &(t, expect) in &[(0.5, 0.0), (1.5, 0.5), (2.5, 0.5), (3.5, 0.0)] {
            let f = euler.invert(&d, t);
            assert!((f - expect).abs() < 0.03, "f({t}) = {f} vs {expect}");
        }
        let fine = Euler::new(EulerParams {
            a: 19.1,
            terms: 400,
            euler_terms: 40,
        });
        for &(t, expect) in &[(0.5, 0.0), (1.5, 0.5), (2.5, 0.5), (3.5, 0.0)] {
            let f = fine.invert(&d, t);
            assert!((f - expect).abs() < 3e-3, "fine f({t}) = {f} vs {expect}");
        }
    }

    #[test]
    fn inverts_deterministic_cdf() {
        // Invert L(s)/s for a point mass at 2: the CDF step function.
        let euler = Euler::standard();
        let d = Dist::deterministic(2.0);
        let cdf_transform = |s: Complex64| Dist::lst(&d, s) / s;
        // Away from the jump at t = 2 the step values are recovered; close to the
        // discontinuity the Gibbs oscillation only dies down with more series terms,
        // so the default configuration is checked far from the jump and the fine
        // configuration close to it.
        assert!(euler.invert(&cdf_transform, 1.0).abs() < 0.01);
        assert!((euler.invert(&cdf_transform, 5.0) - 1.0).abs() < 0.01);
        let fine = Euler::new(EulerParams {
            a: 19.1,
            terms: 400,
            euler_terms: 40,
        });
        assert!((fine.invert(&cdf_transform, 3.0) - 1.0).abs() < 1e-3);
        assert!(fine.invert(&cdf_transform, 1.9).abs() < 0.01);
    }

    #[test]
    fn inverts_mixture_from_paper_fig3() {
        // The t5 firing distribution: 0.8·U(1.5,10) + 0.2·Erlang(0.001,5).
        let euler = Euler::standard();
        let d = Dist::mixture(vec![
            (0.8, Dist::uniform(1.5, 10.0)),
            (0.2, Dist::erlang(0.001, 5)),
        ]);
        // Inside the uniform's support the density is dominated by 0.8/8.5.
        let f = euler.invert(&d, 5.0);
        assert!((f - 0.8 / 8.5).abs() < 1e-3, "f(5) = {f}");
        // Far outside the uniform support, only the (very long) Erlang tail remains.
        let f = euler.invert(&d, 20.0);
        assert!(f.abs() < 1e-3);
    }

    #[test]
    fn invert_values_matches_invert() {
        let euler = Euler::standard();
        let d = Dist::erlang(1.0, 2);
        let t = 1.7;
        let values: Vec<Complex64> = euler
            .s_points(t)
            .iter()
            .map(|&s| Dist::lst(&d, s))
            .collect();
        assert_eq!(euler.invert_values(&values, t), euler.invert(&d, t));
    }

    #[test]
    fn invert_many_matches_pointwise() {
        let euler = Euler::standard();
        let d = Dist::exponential(0.5);
        let ts = [0.5, 1.0, 2.0];
        let many = euler.invert_many(&d, &ts);
        for (&t, &v) in ts.iter().zip(&many) {
            assert_eq!(v, euler.invert(&d, t));
        }
    }

    #[test]
    #[should_panic(expected = "requires t > 0")]
    fn zero_time_rejected() {
        Euler::standard().s_points(0.0);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn wrong_value_count_rejected() {
        Euler::standard().invert_values(&[Complex64::ONE; 3], 1.0);
    }

    #[test]
    fn higher_accuracy_with_more_terms() {
        let coarse = Euler::new(EulerParams {
            a: 15.0,
            terms: 10,
            euler_terms: 5,
        });
        let fine = Euler::new(EulerParams {
            a: 22.0,
            terms: 45,
            euler_terms: 14,
        });
        let d = Dist::erlang(3.0, 4);
        let t: f64 = 1.2;
        // Erlang(λ=3, k=4) pdf: λ^k t^{k-1} e^{-λt} / (k-1)!
        let analytic = 81.0 * t.powi(3) * (-3.0 * t).exp() / 6.0;
        let err_coarse = (coarse.invert(&d, t) - analytic).abs();
        let err_fine = (fine.invert(&d, t) - analytic).abs();
        assert!(err_fine <= err_coarse + 1e-12);
        assert!(err_fine < 1e-9);
    }
}

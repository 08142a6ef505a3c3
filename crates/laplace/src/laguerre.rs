//! The Laguerre inversion algorithm of Abate, Choudhury & Whitt (1996).
//!
//! The target function is expanded in Laguerre functions
//!
//! ```text
//!   f(t) = Σ_{n≥0} q_n · l_n(t),     l_n(t) = e^{-t/2} L_n(t)
//! ```
//!
//! whose coefficient generating function is
//!
//! ```text
//!   Q(z) = Σ_{n≥0} q_n zⁿ = (1 − z)⁻¹ · L( (1 + z) / (2 (1 − z)) ).
//! ```
//!
//! The coefficients `q_n` are recovered from `Q` by a Cauchy contour integral on a
//! circle of radius `r < 1`, discretised with the trapezoidal rule over `2N` points.
//! Crucially — and this is why the paper's pipeline offers it as an alternative to
//! Euler — the transform evaluation points `(1 + z_j) / (2 (1 − z_j))` depend only on
//! the algorithm parameters, *not* on the output time `t`: the default configuration
//! evaluates the transform at 400 points total, "independent of m" (the number of
//! `t`-points).
//!
//! The method requires `f` to be smooth (continuous with continuous derivatives); for
//! densities with jumps (deterministic or uniform firing delays) use
//! [`crate::Euler`] instead — the paper makes the same recommendation.

use smp_distributions::LaplaceTransform;
use smp_numeric::special::laguerre_functions_upto;
use smp_numeric::Complex64;

/// Tuning parameters for the Laguerre algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaguerreParams {
    /// Number of Laguerre expansion terms retained (`n_max`).
    pub terms: usize,
    /// Half the number of trapezoidal quadrature points on the contour (the total
    /// number of transform evaluations is `2 × half_points`).
    pub half_points: usize,
    /// Radius of the Cauchy contour, `0 < r < 1`.  Smaller radii damp round-off
    /// amplification at high coefficient indices at the cost of aliasing error.
    pub contour_radius: f64,
}

impl Default for LaguerreParams {
    fn default() -> Self {
        // 2 × 200 = 400 transform evaluations, exactly the figure quoted in the paper.
        LaguerreParams {
            terms: 200,
            half_points: 200,
            contour_radius: (1e-8f64).powf(1.0 / (2.0 * 200.0)),
        }
    }
}

/// The Laguerre inversion operator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Laguerre {
    params: LaguerreParams,
}

impl Laguerre {
    /// Creates an inverter with the given parameters.
    pub fn new(params: LaguerreParams) -> Self {
        assert!(params.terms >= 1, "need at least one expansion term");
        assert!(
            params.terms <= params.half_points,
            "terms must not exceed half_points (aliasing)"
        );
        assert!(
            params.contour_radius > 0.0 && params.contour_radius < 1.0,
            "contour radius must lie in (0, 1)"
        );
        Laguerre { params }
    }

    /// Creates an inverter with the default 400-point configuration.
    pub fn standard() -> Self {
        Laguerre::new(LaguerreParams::default())
    }

    /// The contour points `z_j = r·e^{iπj/N}` for `j = 0 … 2N−1`.
    fn contour_points(&self) -> Vec<Complex64> {
        let n = self.params.half_points;
        let r = self.params.contour_radius;
        (0..2 * n)
            .map(|j| Complex64::from_polar(r, std::f64::consts::PI * j as f64 / n as f64))
            .collect()
    }

    /// The `s`-points at which the transform must be evaluated.  Independent of the
    /// output `t`-points.
    pub fn s_points(&self) -> Vec<Complex64> {
        self.contour_points()
            .into_iter()
            .map(|z| (Complex64::ONE + z) / ((Complex64::ONE - z) * 2.0))
            .collect()
    }

    /// Computes the Laguerre expansion coefficients `q_0 … q_{terms−1}` from transform
    /// values laid out in the order returned by [`Laguerre::s_points`].
    pub fn coefficients(&self, values: &[Complex64]) -> Vec<f64> {
        let n = self.params.half_points;
        let r = self.params.contour_radius;
        assert_eq!(
            values.len(),
            2 * n,
            "expected {} transform values, got {}",
            2 * n,
            values.len()
        );
        let contour = self.contour_points();
        // Q(z_j) = L(s_j) / (1 − z_j)
        let q_on_contour: Vec<Complex64> = values
            .iter()
            .zip(&contour)
            .map(|(&v, &z)| v / (Complex64::ONE - z))
            .collect();

        let mut coeffs = Vec::with_capacity(self.params.terms);
        for k in 0..self.params.terms {
            // Trapezoidal rule for the Cauchy integral:
            //   q_k = (1 / (2N r^k)) Σ_j Q(z_j)·e^{-iπjk/N}
            let mut acc = Complex64::ZERO;
            for (j, &q) in q_on_contour.iter().enumerate() {
                let angle = -std::f64::consts::PI * (j * k) as f64 / n as f64;
                acc += q * Complex64::from_polar(1.0, angle);
            }
            let qk = acc.scale(1.0 / (2.0 * n as f64 * r.powi(k as i32)));
            coeffs.push(qk.re);
        }
        coeffs
    }

    /// Evaluates the expansion `Σ q_n l_n(t)` at time `t`.
    pub fn evaluate(&self, coefficients: &[f64], t: f64) -> f64 {
        assert!(t >= 0.0, "Laguerre inversion requires t >= 0");
        let basis = laguerre_functions_upto(coefficients.len() as u32 - 1, t);
        coefficients.iter().zip(&basis).map(|(q, l)| q * l).sum()
    }

    /// Inverts a transform at a single `t`-point.
    pub fn invert<L: LaplaceTransform + ?Sized>(&self, transform: &L, t: f64) -> f64 {
        self.invert_many_with(|s| transform.lst(s), &[t])[0]
    }

    /// Inverts a transform at many `t`-points, evaluating the transform only once.
    pub fn invert_many<L: LaplaceTransform + ?Sized>(&self, transform: &L, ts: &[f64]) -> Vec<f64> {
        self.invert_many_with(|s| transform.lst(s), ts)
    }

    /// Inverts at many `t`-points, asking `value_at` once for the transform
    /// value at each of [`Laguerre::s_points`], in order — the one inversion
    /// loop behind the transform-, cache- and lookup-driven entry points.
    pub(crate) fn invert_many_with(
        &self,
        value_at: impl FnMut(Complex64) -> Complex64,
        ts: &[f64],
    ) -> Vec<f64> {
        let values: Vec<Complex64> = self.s_points().into_iter().map(value_at).collect();
        let coeffs = self.coefficients(&values);
        ts.iter().map(|&t| self.evaluate(&coeffs, t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_distributions::Dist;

    #[test]
    fn default_uses_400_points() {
        let laguerre = Laguerre::new(LaguerreParams::default());
        assert_eq!(laguerre.s_points().len(), 400);
    }

    #[test]
    fn s_points_count_independent_of_t() {
        let laguerre = Laguerre::standard();
        assert_eq!(laguerre.s_points().len(), 400);
    }

    #[test]
    fn inverts_exponential_density() {
        let laguerre = Laguerre::standard();
        let d = Dist::exponential(1.0);
        for &t in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let f = laguerre.invert(&d, t);
            let expect = (-t).exp();
            assert!((f - expect).abs() < 1e-5, "f({t}) = {f} vs {expect}");
        }
    }

    #[test]
    fn inverts_erlang_density_smooth() {
        let laguerre = Laguerre::standard();
        let d = Dist::erlang(1.0, 4);
        for &t in &[0.5, 1.0, 2.0, 4.0, 8.0] {
            let f = laguerre.invert(&d, t);
            let expect = t.powi(3) * (-t).exp() / 6.0;
            assert!((f - expect).abs() < 1e-5, "f({t}) = {f} vs {expect}");
        }
    }

    #[test]
    fn invert_many_shares_transform_evaluations() {
        let laguerre = Laguerre::standard();
        let d = Dist::erlang(0.8, 2);
        let ts: Vec<f64> = (1..=10).map(|k| k as f64 * 0.5).collect();
        let batch = laguerre.invert_many(&d, &ts);
        for (&t, &v) in ts.iter().zip(&batch) {
            assert!((v - laguerre.invert(&d, t)).abs() < 1e-12);
        }
    }

    #[test]
    fn euler_and_laguerre_agree_on_smooth_density() {
        let laguerre = Laguerre::standard();
        let euler = crate::Euler::standard();
        let d = Dist::mixture(vec![
            (0.5, Dist::erlang(2.0, 3)),
            (0.5, Dist::exponential(0.5)),
        ]);
        for &t in &[0.5, 1.0, 2.0, 4.0] {
            let a = laguerre.invert(&d, t);
            let b = euler.invert(&d, t);
            assert!((a - b).abs() < 1e-4, "t={t}: laguerre {a} vs euler {b}");
        }
    }

    #[test]
    fn coefficients_decay_for_smooth_transform() {
        let laguerre = Laguerre::standard();
        let d = Dist::exponential(1.0);
        let values: Vec<Complex64> = laguerre
            .s_points()
            .iter()
            .map(|&s| Dist::lst(&d, s))
            .collect();
        let coeffs = laguerre.coefficients(&values);
        // For Exp(1), q_n = (1/2)(1/3)^n ... more precisely decays geometrically.
        assert!(coeffs[0].abs() > coeffs[20].abs().max(1e-12));
        assert!(coeffs[150].abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "terms must not exceed")]
    fn too_many_terms_rejected() {
        Laguerre::new(LaguerreParams {
            terms: 300,
            half_points: 100,
            contour_radius: 0.9,
        });
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn wrong_value_count_rejected() {
        Laguerre::standard().coefficients(&[Complex64::ONE; 3]);
    }
}

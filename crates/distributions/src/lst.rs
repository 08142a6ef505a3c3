//! The Laplace–Stieltjes transform abstraction.
//!
//! Everything the passage-time engine needs from a holding-time distribution is the
//! ability to evaluate its LST
//!
//! ```text
//!   r*(s) = ∫₀^∞ e^{-st} dH(t)
//! ```
//!
//! at arbitrary complex points `s`.  [`LaplaceTransform`] captures exactly that; it is
//! implemented by the closed-form distribution library ([`crate::Dist`]) and by the
//! passage-time results themselves (a passage-time transform `L_ij(s)` is just
//! another transform that can be composed or inverted).  The paper's constant-space
//! representation — each distribution held as its values at the planned `s`-points
//! only — is `smp_core`'s pooled-LST recipe table, filled once per `s`-point.

use smp_numeric::Complex64;

/// A function of a complex Laplace variable, `s ↦ F(s)`.
pub trait LaplaceTransform {
    /// Evaluates the transform at the complex point `s`.
    fn lst(&self, s: Complex64) -> Complex64;

    /// Evaluates the transform at a batch of points (default: point-wise).
    fn lst_batch(&self, points: &[Complex64]) -> Vec<Complex64> {
        points.iter().map(|&s| self.lst(s)).collect()
    }
}

/// Blanket implementation for closures, used heavily in tests and by the inversion
/// algorithms (`|s| transform_of_known_density(s)`).
impl<F> LaplaceTransform for F
where
    F: Fn(Complex64) -> Complex64,
{
    fn lst(&self, s: Complex64) -> Complex64 {
        self(s)
    }
}

/// Boxed dynamic transform, convenient for heterogeneous collections.
impl LaplaceTransform for Box<dyn LaplaceTransform + Send + Sync> {
    fn lst(&self, s: Complex64) -> Complex64 {
        (**self).lst(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_implements_transform() {
        // LST of Exp(2): 2 / (2 + s)
        let f = |s: Complex64| Complex64::real(2.0) / (Complex64::real(2.0) + s);
        let v = f.lst(Complex64::real(1.0));
        assert!((v.re - 2.0 / 3.0).abs() < 1e-14);
        assert_eq!(v.im, 0.0);
    }

    #[test]
    fn batch_matches_pointwise() {
        let f = |s: Complex64| (Complex64::real(-1.0) * s).exp();
        let pts = [
            Complex64::new(0.5, 0.0),
            Complex64::new(1.0, 2.0),
            Complex64::new(0.0, -3.0),
        ];
        let batch = f.lst_batch(&pts);
        for (s, v) in pts.iter().zip(batch) {
            assert_eq!(f.lst(*s), v);
        }
    }

    #[test]
    fn boxed_transform_dispatches() {
        let boxed: Box<dyn LaplaceTransform + Send + Sync> =
            Box::new(|s: Complex64| s * Complex64::real(2.0));
        assert_eq!(boxed.lst(Complex64::ONE), Complex64::real(2.0));
    }
}

//! Scalar abstraction shared by the real and complex sparse matrices.
//!
//! The suite needs exactly two element types: `f64` for the embedded DTMC and
//! probability matrices, and [`Complex64`] for the Laplace-domain matrices `U` and
//! `U'`.  A small local trait keeps [`crate::CsrMatrix`] generic over both without
//! dragging in a full numerical-traits dependency.

use smp_numeric::Complex64;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Element type usable in a sparse matrix.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Magnitude used for convergence tests and zero-pruning.
    fn magnitude(self) -> f64;

    /// Multiplies by a real scalar.
    fn scale(self, k: f64) -> Self;

    /// True when the value is exactly zero (`±0` in every component).
    ///
    /// Every kernel loop asks this once per row, so each type states its own
    /// exact component test — there is deliberately no default body through
    /// [`Scalar::magnitude`], which for [`Complex64`] is a libm `hypot` call.
    fn is_zero(self) -> bool;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn scale(self, k: f64) -> f64 {
        self * k
    }

    #[inline]
    fn is_zero(self) -> bool {
        self == 0.0
    }
}

impl Scalar for Complex64 {
    const ZERO: Complex64 = Complex64::ZERO;
    const ONE: Complex64 = Complex64::ONE;

    #[inline]
    fn magnitude(self) -> f64 {
        self.norm()
    }

    #[inline]
    fn scale(self, k: f64) -> Complex64 {
        Complex64::new(self.re * k, self.im * k)
    }

    /// The same predicate as `magnitude() == 0.0` for every input: `hypot` is
    /// zero only when both components are, and a NaN compares false either
    /// way.
    #[inline]
    fn is_zero(self) -> bool {
        self.re == 0.0 && self.im == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_scalar_impl() {
        assert_eq!(<f64 as Scalar>::ZERO, 0.0);
        assert_eq!(<f64 as Scalar>::ONE, 1.0);
        assert_eq!((-3.0f64).magnitude(), 3.0);
        assert_eq!(2.0f64.scale(4.0), 8.0);
        assert!(0.0f64.is_zero());
        assert!(!1.0f64.is_zero());
    }

    #[test]
    fn complex_scalar_impl() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.magnitude(), 5.0);
        assert_eq!(z.scale(2.0), Complex64::new(6.0, 8.0));
        assert!(Complex64::ZERO.is_zero());
        assert!(!Complex64::I.is_zero());
    }

    /// `is_zero` is the component test, and the component test is the old
    /// `magnitude() == 0.0` on every class of input a kernel can meet.
    #[test]
    fn is_zero_is_the_old_magnitude_test() {
        let components = [
            0.0,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            1e-200, // squares underflow; hypot does not
            1.0,
            -3.5,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &re in &components {
            assert_eq!(re.is_zero(), re.magnitude() == 0.0, "f64 {re:?}");
            for &im in &components {
                let z = Complex64::new(re, im);
                assert_eq!(z.is_zero(), z.magnitude() == 0.0, "{re:?} + {im:?}i");
            }
        }
    }
}

//! Double-precision complex numbers.
//!
//! The Laplace-transform machinery of the suite works almost exclusively on the
//! complex plane: every Laplace–Stieltjes transform `r*_ij(s)` is sampled at complex
//! `s`-points dictated by the numerical inversion algorithm, and the iterative
//! passage-time algorithm performs sparse linear algebra over those samples.
//!
//! [`Complex64`] is a plain `#[repr(C)]` pair of `f64`s with value semantics and a
//! complete set of arithmetic operators (including mixed `f64` operands), the
//! elementary transcendental functions needed by the Euler and Laguerre inversion
//! algorithms (`exp`, `ln`, `sqrt`, `powi`, `powf`), and polar helpers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` stored as two `f64`s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Modulus `|z|`, computed with `hypot` for robustness against overflow.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses Smith's algorithm to avoid intermediate overflow/underflow when the
    /// real and imaginary parts differ greatly in magnitude.
    #[inline]
    pub(crate) fn inv(self) -> Self {
        Complex64::ONE / self
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex64::from_polar(self.re.exp(), self.im)
    }

    /// Principal natural logarithm.
    #[inline]
    pub fn ln(self) -> Self {
        Complex64::new(self.norm().ln(), self.arg())
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        if self.im == 0.0 {
            if self.re >= 0.0 {
                return Complex64::new(self.re.sqrt(), 0.0);
            }
            return Complex64::new(0.0, (-self.re).sqrt().copysign(1.0));
        }
        let r = self.norm();
        // Half-angle formulae, numerically stable for all quadrants.
        let re = ((r + self.re) / 2.0).sqrt();
        let im = ((r - self.re) / 2.0).sqrt() * self.im.signum();
        Complex64::new(re, im)
    }

    /// Integer power by repeated squaring; handles negative exponents via `inv`.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Complex64::ONE;
        }
        let mut base = if n < 0 { self.inv() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Complex64::ONE;
        let mut e = n as u32;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// Real power `z^p` via the principal branch.
    pub fn powf(self, p: f64) -> Self {
        if self == Complex64::ZERO {
            if p == 0.0 {
                return Complex64::ONE;
            }
            return Complex64::ZERO;
        }
        (self.ln().scale(p)).exp()
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

impl From<(f64, f64)> for Complex64 {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Complex64::new(re, im)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        // Smith's algorithm: scale by the larger component to avoid overflow.
        if rhs.re.abs() >= rhs.im.abs() {
            if rhs.re == 0.0 && rhs.im == 0.0 {
                return Complex64::new(self.re / rhs.re, self.im / rhs.re);
            }
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex64::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex64::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

macro_rules! impl_assign {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Complex64 {
            #[inline]
            fn $method(&mut self, rhs: Complex64) {
                *self = *self $op rhs;
            }
        }
        impl $trait<f64> for Complex64 {
            #[inline]
            fn $method(&mut self, rhs: f64) {
                *self = *self $op Complex64::real(rhs);
            }
        }
    };
}

impl_assign!(AddAssign, add_assign, +);
impl_assign!(SubAssign, sub_assign, -);
impl_assign!(MulAssign, mul_assign, *);
impl_assign!(DivAssign, div_assign, /);

macro_rules! impl_mixed {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<f64> for Complex64 {
            type Output = Complex64;
            #[inline]
            fn $method(self, rhs: f64) -> Complex64 {
                self $op Complex64::real(rhs)
            }
        }
        impl $trait<Complex64> for f64 {
            type Output = Complex64;
            #[inline]
            fn $method(self, rhs: Complex64) -> Complex64 {
                Complex64::real(self) $op rhs
            }
        }
    };
}

impl_mixed!(Add, add, +);
impl_mixed!(Sub, sub, -);
impl_mixed!(Mul, mul, *);
impl_mixed!(Div, div, /);

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).norm() < tol
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        assert_eq!(a + b, Complex64::new(4.0, -2.0));
        assert_eq!(a - b, Complex64::new(-2.0, 6.0));
        assert_eq!(a * b, Complex64::new(11.0, 2.0));
        assert!(close(a / b, Complex64::new(-0.2, 0.4), 1e-14));
    }

    #[test]
    fn mixed_real_operands() {
        let a = Complex64::new(1.0, 2.0);
        assert_eq!(a + 1.0, Complex64::new(2.0, 2.0));
        assert_eq!(2.0 * a, Complex64::new(2.0, 4.0));
        assert_eq!(a - 1.0, Complex64::new(0.0, 2.0));
        assert!(close(1.0 / Complex64::I, -Complex64::I, 1e-15));
    }

    #[test]
    fn division_by_tiny_and_huge_components() {
        // Smith's algorithm should not overflow here.
        let a = Complex64::new(1e150, 1e150);
        let b = Complex64::new(1e150, 1e-150);
        let q = a / b;
        assert!(q.is_finite());
        assert!(close(q * b, a, 1e135));
    }

    #[test]
    fn conj_norm_arg() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.norm(), 5.0);
        assert!((Complex64::I.arg() - PI / 2.0).abs() < 1e-15);
    }

    #[test]
    fn exp_and_ln_roundtrip() {
        let z = Complex64::new(0.3, -1.2);
        assert!(close(z.exp().ln(), z, 1e-14));
        // Euler's identity e^{iπ} = -1.
        assert!(close(
            Complex64::new(0.0, PI).exp(),
            Complex64::real(-1.0),
            1e-14
        ));
    }

    #[test]
    fn sqrt_branches() {
        assert_eq!(Complex64::real(4.0).sqrt(), Complex64::real(2.0));
        let m = Complex64::real(-4.0).sqrt();
        assert!(close(m * m, Complex64::real(-4.0), 1e-12));
        let z = Complex64::new(-3.0, -4.0);
        let r = z.sqrt();
        assert!(close(r * r, z, 1e-12));
    }

    #[test]
    fn integer_powers() {
        let z = Complex64::new(1.0, 1.0);
        assert!(close(z.powi(2), Complex64::new(0.0, 2.0), 1e-14));
        assert!(close(z.powi(0), Complex64::ONE, 1e-15));
        assert!(close(z.powi(-1), z.inv(), 1e-15));
        assert!(close(z.powi(8), Complex64::real(16.0), 1e-12));
    }

    #[test]
    fn real_and_complex_powers() {
        let z = Complex64::new(2.0, 0.0);
        assert!(close(z.powf(0.5), Complex64::real(2f64.sqrt()), 1e-14));
        assert_eq!(Complex64::ZERO.powf(2.0), Complex64::ZERO);
        assert_eq!(Complex64::ZERO.powf(0.0), Complex64::ONE);
    }

    #[test]
    fn from_polar_roundtrip() {
        let z = Complex64::from_polar(2.0, PI / 3.0);
        assert!((z.norm() - 2.0).abs() < 1e-14);
        assert!((z.arg() - PI / 3.0).abs() < 1e-14);
    }

    #[test]
    fn sum_iterator() {
        let xs = [
            Complex64::new(1.0, 1.0),
            Complex64::new(2.0, -1.0),
            Complex64::new(-3.0, 0.5),
        ];
        let s: Complex64 = xs.iter().sum();
        assert!(close(s, Complex64::new(0.0, 0.5), 1e-15));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.5, 2.0).to_string(), "1.5+2i");
        assert_eq!(Complex64::new(1.5, -2.0).to_string(), "1.5-2i");
    }

    #[test]
    fn nan_and_finite_predicates() {
        assert!(Complex64::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex64::ONE.is_nan());
        assert!(Complex64::ONE.is_finite());
        assert!(!Complex64::new(f64::INFINITY, 0.0).is_finite());
    }
}

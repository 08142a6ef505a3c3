//! Compensated summation.
//!
//! The Euler inversion algorithm sums a long, slowly converging alternating series of
//! transform samples; the iterative passage-time algorithm accumulates thousands of
//! sparse matrix-vector products.  Both benefit from compensated summation, which
//! bounds the rounding error independently of the number of terms.
//!
//! [`KahanSum`] implements Neumaier's improved variant of the classic Kahan algorithm
//! (it also handles the case where the next term is larger than the running sum);
//! [`KahanComplex`] applies it component-wise to [`Complex64`].

use crate::Complex64;

/// Neumaier compensated accumulator for `f64`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// Creates an empty accumulator.
    #[inline]
    pub fn new() -> Self {
        KahanSum::default()
    }

    /// Creates an accumulator primed with an initial value.
    #[inline]
    pub fn with_initial(value: f64) -> Self {
        KahanSum {
            sum: value,
            compensation: 0.0,
        }
    }

    /// Adds a term.
    #[inline]
    pub fn add(&mut self, value: f64) {
        let t = self.sum + value;
        if self.sum.abs() >= value.abs() {
            self.compensation += (self.sum - t) + value;
        } else {
            self.compensation += (value - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated value of the sum.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl std::iter::FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = KahanSum::new();
        for x in iter {
            acc.add(x);
        }
        acc
    }
}

/// Compensated accumulator for [`Complex64`], applied component-wise.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanComplex {
    re: KahanSum,
    im: KahanSum,
}

impl KahanComplex {
    /// Creates an empty accumulator.
    #[inline]
    pub fn new() -> Self {
        KahanComplex::default()
    }

    /// Adds a complex term.
    #[inline]
    pub fn add(&mut self, value: Complex64) {
        self.re.add(value.re);
        self.im.add(value.im);
    }

    /// Current compensated value.
    #[inline]
    pub fn value(&self) -> Complex64 {
        Complex64::new(self.re.value(), self.im.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_beats_naive_on_pathological_series() {
        // 1 + 1e100 - 1e100 + small terms: naive summation loses the 1.
        let terms = [1.0, 1e100, 1.0, -1e100];
        let naive: f64 = terms.iter().sum();
        let kahan = terms.iter().copied().collect::<KahanSum>().value();
        assert_eq!(naive, 0.0);
        assert_eq!(kahan, 2.0);
    }

    #[test]
    fn kahan_many_small_terms() {
        let n = 1_000_000;
        let kahan = (0..n).map(|_| 0.1).collect::<KahanSum>().value();
        assert!((kahan - 0.1 * n as f64).abs() < 1e-6);
    }

    #[test]
    fn with_initial_and_incremental() {
        let mut acc = KahanSum::with_initial(10.0);
        acc.add(1.0);
        acc.add(2.0);
        assert_eq!(acc.value(), 13.0);
    }

    #[test]
    fn from_iterator_impl() {
        let acc: KahanSum = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(acc.value(), 6.0);
    }

    #[test]
    fn complex_accumulator() {
        let terms = vec![
            Complex64::new(1.0, 1e100),
            Complex64::new(1e100, 1.0),
            Complex64::new(1.0, -1e100),
            Complex64::new(-1e100, 1.0),
        ];
        let mut acc = KahanComplex::new();
        for term in terms {
            acc.add(term);
        }
        assert_eq!(acc.value(), Complex64::new(2.0, 2.0));
    }

    #[test]
    fn alternating_series_pi() {
        // pi/4 = 1 - 1/3 + 1/5 - ... ; check compensated summation is at least as
        // accurate as the analytic tail bound.
        let n = 200_000usize;
        let val = (0..n)
            .map(|k| {
                let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                sign / (2 * k + 1) as f64
            })
            .collect::<KahanSum>()
            .value();
        let err = (4.0 * val - std::f64::consts::PI).abs();
        assert!(err < 2.0 / (2.0 * n as f64));
    }
}

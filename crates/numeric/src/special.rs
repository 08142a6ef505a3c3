//! Special functions.
//!
//! The Laguerre inversion algorithm of Abate, Choudhury & Whitt expands the target
//! density in (generalised) Laguerre functions; the Euler algorithm needs binomial
//! coefficients for its terminating Euler-summation stage; the distribution library
//! needs `ln Γ` for Erlang/Weibull moments.  This module collects those functions with
//! implementations that are accurate over the parameter ranges the suite actually
//! uses (orders up to a few thousand).

/// Natural logarithm of the gamma function, `ln Γ(x)` for `x > 0`.
///
/// Lanczos approximation (g = 7, 9 coefficients); absolute error below `1e-13` over
/// the positive real axis, which is far more accuracy than the surrounding numerical
/// inversion can exploit.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + G + 0.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Gamma function `Γ(x)` for moderate positive `x` (overflows above ~171).
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Binomial coefficient `C(n, k)` as `f64`, computed multiplicatively so that values
/// up to the `f64` range are exact to machine precision.
pub fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// Row `n` of Pascal's triangle: `[C(n,0), …, C(n,n)]`.
///
/// The Euler-summation stage of the Euler inversion algorithm averages the last
/// `m + 1` partial sums with binomial weights `C(m, k) 2^{-m}`; precomputing the row
/// once per inversion keeps that stage allocation-free per term.
pub fn binomial_row(n: u32) -> Vec<f64> {
    let mut row = Vec::with_capacity(n as usize + 1);
    let mut value = 1.0f64;
    row.push(value);
    for k in 0..n {
        value = value * (n - k) as f64 / (k + 1) as f64;
        row.push(value);
    }
    row
}

/// Evaluates all Laguerre functions `l_0(t) … l_n(t)` in one pass of the recurrence.
///
/// Returns a vector of length `n + 1`.  This is the hot path of Laguerre inversion
/// (one evaluation per output `t`-point), so a single sweep is preferred over
/// one recurrence per order.
pub fn laguerre_functions_upto(n: u32, t: f64) -> Vec<f64> {
    let scale = (-t / 2.0).exp();
    let mut out = Vec::with_capacity(n as usize + 1);
    let mut lm1 = 1.0;
    out.push(scale * lm1);
    if n == 0 {
        return out;
    }
    let mut l = 1.0 - t;
    out.push(scale * l);
    for k in 1..n {
        let kf = k as f64;
        let next = ((2.0 * kf + 1.0 - t) * l - kf * lm1) / (kf + 1.0);
        lm1 = l;
        l = next;
        out.push(scale * l);
    }
    out
}

/// Regularised lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Used for Erlang cumulative distribution functions (the CDF of an Erlang-`n`
/// with rate `λ` is `P(n, λ t)`).  Series expansion for `x < a + 1`, continued
/// fraction otherwise (Numerical Recipes style).
pub fn regularised_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "invalid arguments P({a}, {x})");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-16 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q(a, x); P = 1 - Q.
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-16 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        1.0 - q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates the (standard) Laguerre polynomial `L_n(x)` by the three-term
    /// recurrence `(k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}`.
    fn laguerre(n: u32, x: f64) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let mut lm1 = 1.0; // L_0
        let mut l = 1.0 - x; // L_1
        for k in 1..n {
            let kf = k as f64;
            let next = ((2.0 * kf + 1.0 - x) * l - kf * lm1) / (kf + 1.0);
            lm1 = l;
            l = next;
        }
        l
    }

    /// The Laguerre function `l_n(t) = e^{-t/2} L_n(t)`, one order at a time.
    fn laguerre_function(n: u32, t: f64) -> f64 {
        (-t / 2.0).exp() * laguerre(n, t)
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u32..20 {
            let expect: f64 = (2..n).map(|k| (k as f64).ln()).sum();
            assert!(
                (ln_gamma(n as f64) - expect).abs() < 1e-10,
                "ln_gamma({n}) mismatch"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-12);
        // Γ(3/2) = sqrt(pi)/2
        assert!((gamma(1.5) - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive argument")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn binomial_symmetry_and_pascal() {
        for n in 0u32..30 {
            for k in 0..=n {
                let c = binomial(n, k);
                assert_eq!(c, binomial(n, n - k));
                if k > 0 && n > 0 {
                    let pascal = binomial(n - 1, k - 1) + binomial(n - 1, k);
                    assert!((c - pascal).abs() < 1e-6 * c.max(1.0));
                }
            }
        }
        assert_eq!(binomial(5, 7), 0.0);
    }

    #[test]
    fn binomial_row_matches_binomial() {
        let row = binomial_row(12);
        assert_eq!(row.len(), 13);
        for (k, &v) in row.iter().enumerate() {
            assert!((v - binomial(12, k as u32)).abs() < 1e-9);
        }
        let total: f64 = row.iter().sum();
        assert!((total - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn laguerre_known_values() {
        // L_0 = 1, L_1 = 1 - x, L_2 = (x^2 - 4x + 2)/2
        assert_eq!(laguerre(0, 3.7), 1.0);
        assert!((laguerre(1, 3.7) - (1.0 - 3.7)).abs() < 1e-14);
        let x = 1.3;
        assert!((laguerre(2, x) - (x * x - 4.0 * x + 2.0) / 2.0).abs() < 1e-13);
        // L_n(0) = 1 for all n.
        for n in 0..50 {
            assert!((laguerre(n, 0.0) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn laguerre_functions_sweep_consistent() {
        let t = 2.4;
        let all = laguerre_functions_upto(25, t);
        assert_eq!(all.len(), 26);
        for (n, &v) in all.iter().enumerate() {
            assert!((v - laguerre_function(n as u32, t)).abs() < 1e-11);
        }
    }

    #[test]
    fn regularised_gamma_known_values() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            assert!((regularised_gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
        }
        // P(2, x) = 1 - e^{-x}(1 + x)  (Erlang-2 CDF with rate 1)
        let x = 2.5f64;
        let expect = 1.0 - (-x).exp() * (1.0 + x);
        assert!((regularised_gamma_p(2.0, x) - expect).abs() < 1e-12);
        assert_eq!(regularised_gamma_p(3.0, 0.0), 0.0);
    }

    #[test]
    fn regularised_gamma_monotone_in_x() {
        let mut last = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.2;
            let p = regularised_gamma_p(4.0, x);
            assert!(p >= last - 1e-14);
            assert!((0.0..=1.0 + 1e-12).contains(&p));
            last = p;
        }
    }
}

//! Closed-form holding-time distributions and their compositions.
//!
//! The SM-SPN formalism attaches an arbitrary firing-time distribution to every
//! transition (the paper's `\sojourntimeLT{...}` pragma); the voting model uses
//! weighted mixtures of uniform and Erlang distributions.  [`Dist`] covers the
//! distribution families that appear in the paper plus the compositions needed to
//! express "with probability 0.8 uniform(1.5, 10), otherwise Erlang(0.001, 5)".

use crate::lst::LaplaceTransform;
use rand::Rng;
use smp_numeric::special::regularised_gamma_p;
use smp_numeric::Complex64;

/// A general, composable holding-time distribution on `[0, ∞)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Exponential with rate `λ > 0`; LST `λ / (λ + s)`.
    Exponential { rate: f64 },
    /// Erlang with rate `λ > 0` and `n ≥ 1` phases; LST `(λ / (λ + s))ⁿ`.
    Erlang { rate: f64, phases: u32 },
    /// Continuous uniform on `[a, b]`, `0 ≤ a < b`; LST `(e^{-as} − e^{-bs}) / (s(b−a))`.
    Uniform { lower: f64, upper: f64 },
    /// Deterministic (point mass) at `d ≥ 0`; LST `e^{-ds}`.
    Deterministic { value: f64 },
    /// Weibull with shape `k > 0` and scale `λ > 0`.  The LST has no closed form and
    /// is evaluated by numerical quadrature — accurate for the moderate `|Im s|`
    /// range used by the inversion algorithms, and primarily intended for the
    /// simulator and for stress-testing the pipeline with "awkward" distributions.
    Weibull { shape: f64, scale: f64 },
    /// Probabilistic choice: with probability `wᵢ` (normalised) the delay is drawn
    /// from the `i`-th branch.  LST `Σ wᵢ Lᵢ(s)`.
    Mixture(Vec<(f64, Dist)>),
    /// Sum of independent delays; LST `Π Lᵢ(s)`.
    Convolution(Vec<Dist>),
}

impl Dist {
    /// Exponential distribution with the given rate.
    pub fn exponential(rate: f64) -> Dist {
        Dist::Exponential { rate }.asserted()
    }

    /// Erlang distribution with `phases` exponential phases of the given rate.
    ///
    /// Matches the paper's `erlangLT(λ, n)`.
    pub fn erlang(rate: f64, phases: u32) -> Dist {
        Dist::Erlang { rate, phases }.asserted()
    }

    /// Uniform distribution on `[lower, upper]`.
    ///
    /// Matches the paper's `uniformLT(a, b)`.
    pub fn uniform(lower: f64, upper: f64) -> Dist {
        Dist::Uniform { lower, upper }.asserted()
    }

    /// Deterministic delay of exactly `value` time units.
    pub fn deterministic(value: f64) -> Dist {
        Dist::Deterministic { value }.asserted()
    }

    /// Instantaneous firing (zero delay) — used for immediate transitions.
    pub fn immediate() -> Dist {
        Dist::Deterministic { value: 0.0 }
    }

    /// Weibull distribution with the given shape and scale.
    pub fn weibull(shape: f64, scale: f64) -> Dist {
        Dist::Weibull { shape, scale }.asserted()
    }

    /// Probabilistic mixture; weights are normalised and must be non-negative with a
    /// positive sum.
    pub fn mixture(branches: Vec<(f64, Dist)>) -> Dist {
        Dist::Mixture(branches).asserted()
    }

    /// Sum of independent delays.
    pub fn convolution(parts: Vec<Dist>) -> Dist {
        Dist::Convolution(parts).asserted()
    }

    /// The distribution these parameters make, or why they make none — the
    /// one judge of a parameter set.  Every parameter must be finite and in
    /// its family's domain: a positive rate, shape and scale, at least one
    /// phase, `0 ≤ lower < upper`, a non-negative delay.  A mixture needs
    /// non-negative weights with a positive total and comes back normalised;
    /// a mixture's branches and a convolution's parts must be distributions
    /// themselves.  The constructors above assert it; front ends that read
    /// parameters from outside the program return its error instead.
    pub fn checked(self) -> Result<Dist, String> {
        self.check()?;
        Ok(match self {
            Dist::Mixture(branches) => {
                let total: f64 = branches.iter().map(|(w, _)| *w).sum();
                Dist::Mixture(branches.into_iter().map(|(w, d)| (w / total, d)).collect())
            }
            dist => dist,
        })
    }

    fn asserted(self) -> Dist {
        self.checked().unwrap_or_else(|e| panic!("{e}"))
    }

    fn check(&self) -> Result<(), String> {
        fn require(holds: bool, why: impl FnOnce() -> String) -> Result<(), String> {
            if holds {
                Ok(())
            } else {
                Err(why())
            }
        }
        let positive = |what: &str, v: f64| {
            require(v.is_finite() && v > 0.0, || {
                format!("{what} must be positive and finite, got {v}")
            })
        };
        match self {
            Dist::Exponential { rate } => positive("exponential rate", *rate),
            Dist::Erlang { rate, phases } => {
                positive("erlang rate", *rate)?;
                require(*phases >= 1, || "erlang needs at least one phase".into())
            }
            Dist::Uniform { lower, upper } => {
                require(upper.is_finite() && *lower >= 0.0 && upper > lower, || {
                    format!("uniform requires finite 0 <= lower < upper, got [{lower}, {upper}]")
                })
            }
            Dist::Deterministic { value } => require(value.is_finite() && *value >= 0.0, || {
                format!("deterministic delay must be non-negative and finite, got {value}")
            }),
            Dist::Weibull { shape, scale } => {
                positive("weibull shape", *shape)?;
                positive("weibull scale", *scale)
            }
            Dist::Mixture(branches) => {
                require(!branches.is_empty(), || {
                    "mixture needs at least one branch".into()
                })?;
                let total: f64 = branches.iter().map(|(w, _)| *w).sum();
                let weights = branches.iter().all(|(w, _)| *w >= 0.0);
                require(weights && total.is_finite() && total > 0.0, || {
                    format!(
                        "mixture weights must be non-negative with a positive finite sum, \
                         got a sum of {total}"
                    )
                })?;
                branches.iter().try_for_each(|(_, d)| d.check())
            }
            Dist::Convolution(parts) => {
                require(!parts.is_empty(), || {
                    "convolution needs at least one part".into()
                })?;
                parts.iter().try_for_each(Dist::check)
            }
        }
    }

    /// `Some(rate)` iff this distribution **is** the exponential variant, i.e.
    /// it was built with [`Dist::exponential`].
    ///
    /// The probe is deliberately structural, not distributional: a one-phase
    /// Erlang, a single-branch mixture over an exponential, or a one-part
    /// convolution are all *distributionally* exponential but return `None`.
    /// Callers (the uniformization backend's all-exponential detection) rely
    /// on this strictness so that the memoryless-reduction precondition is
    /// visible in the model text rather than inferred by numeric accident.
    pub fn is_exponential(&self) -> Option<f64> {
        match self {
            Dist::Exponential { rate } => Some(*rate),
            _ => None,
        }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Exponential { rate } => 1.0 / rate,
            Dist::Erlang { rate, phases } => *phases as f64 / rate,
            Dist::Uniform { lower, upper } => 0.5 * (lower + upper),
            Dist::Deterministic { value } => *value,
            Dist::Weibull { shape, scale } => {
                scale * smp_numeric::special::gamma(1.0 + 1.0 / shape)
            }
            Dist::Mixture(branches) => branches.iter().map(|(w, d)| w * d.mean()).sum(),
            Dist::Convolution(parts) => parts.iter().map(|d| d.mean()).sum(),
        }
    }

    /// Raw second moment `E[X²]`.
    pub fn second_moment(&self) -> f64 {
        match self {
            Dist::Exponential { rate } => 2.0 / (rate * rate),
            Dist::Erlang { rate, phases } => {
                let n = *phases as f64;
                n * (n + 1.0) / (rate * rate)
            }
            Dist::Uniform { lower, upper } => {
                (upper.powi(3) - lower.powi(3)) / (3.0 * (upper - lower))
            }
            Dist::Deterministic { value } => value * value,
            Dist::Weibull { shape, scale } => {
                scale * scale * smp_numeric::special::gamma(1.0 + 2.0 / shape)
            }
            Dist::Mixture(branches) => branches.iter().map(|(w, d)| w * d.second_moment()).sum(),
            Dist::Convolution(parts) => {
                // E[(ΣX)²] = Σ E[X²] + 2 Σ_{i<j} E[X_i]E[X_j]
                let mut acc = 0.0;
                let means: Vec<f64> = parts.iter().map(|d| d.mean()).collect();
                for (i, d) in parts.iter().enumerate() {
                    acc += d.second_moment();
                    for mj in means.iter().skip(i + 1) {
                        acc += 2.0 * means[i] * mj;
                    }
                }
                acc
            }
        }
    }

    /// Variance of the distribution.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        (self.second_moment() - m * m).max(0.0)
    }

    /// Cumulative distribution function `P(X ≤ t)`.
    ///
    /// Returns `None` for compositions without a closed form (convolutions of
    /// non-Erlang parts); all paper-relevant distributions have closed-form CDFs.
    pub fn cdf(&self, t: f64) -> Option<f64> {
        if t < 0.0 {
            return Some(0.0);
        }
        match self {
            Dist::Exponential { rate } => Some(1.0 - (-rate * t).exp()),
            Dist::Erlang { rate, phases } => Some(regularised_gamma_p(*phases as f64, rate * t)),
            Dist::Uniform { lower, upper } => Some(((t - lower) / (upper - lower)).clamp(0.0, 1.0)),
            Dist::Deterministic { value } => Some(if t >= *value { 1.0 } else { 0.0 }),
            Dist::Weibull { shape, scale } => Some(1.0 - (-(t / scale).powf(*shape)).exp()),
            Dist::Mixture(branches) => {
                let mut acc = 0.0;
                for (w, d) in branches {
                    acc += w * d.cdf(t)?;
                }
                Some(acc)
            }
            Dist::Convolution(_) => None,
        }
    }

    /// Draws one sample using the supplied random number generator.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Dist::Exponential { rate } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() / rate
            }
            Dist::Erlang { rate, phases } => {
                let mut acc = 0.0;
                for _ in 0..*phases {
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    acc -= u.ln();
                }
                acc / rate
            }
            Dist::Uniform { lower, upper } => rng.gen_range(*lower..*upper),
            Dist::Deterministic { value } => *value,
            Dist::Weibull { shape, scale } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                scale * (-u.ln()).powf(1.0 / shape)
            }
            Dist::Mixture(branches) => {
                let mut u: f64 = rng.gen_range(0.0..1.0);
                for (w, d) in branches {
                    if u < *w {
                        return d.sample(rng);
                    }
                    u -= w;
                }
                // Floating-point slack: fall back to the last branch.
                branches.last().expect("non-empty mixture").1.sample(rng)
            }
            Dist::Convolution(parts) => parts.iter().map(|d| d.sample(rng)).sum(),
        }
    }

    /// Evaluates the Laplace–Stieltjes transform at `s`.
    pub fn lst(&self, s: Complex64) -> Complex64 {
        match self {
            Dist::Exponential { rate } => {
                let lambda = Complex64::real(*rate);
                lambda / (lambda + s)
            }
            Dist::Erlang { rate, phases } => {
                let lambda = Complex64::real(*rate);
                (lambda / (lambda + s)).powi(*phases as i32)
            }
            Dist::Uniform { lower, upper } => uniform_lst(*lower, *upper, s),
            Dist::Deterministic { value } => (-s * *value).exp(),
            Dist::Weibull { shape, scale } => weibull_lst_numeric(*shape, *scale, s),
            Dist::Mixture(branches) => branches
                .iter()
                .map(|(w, d)| d.lst(s).scale(*w))
                .fold(Complex64::ZERO, |a, b| a + b),
            Dist::Convolution(parts) => parts
                .iter()
                .map(|d| d.lst(s))
                .fold(Complex64::ONE, |a, b| a * b),
        }
    }
}

impl LaplaceTransform for Dist {
    fn lst(&self, s: Complex64) -> Complex64 {
        Dist::lst(self, s)
    }
}

/// LST of Uniform(a, b): `(e^{-as} − e^{-bs}) / (s (b − a))`, with a series expansion
/// around `s = 0` where the closed form is numerically indeterminate (0/0).
fn uniform_lst(a: f64, b: f64, s: Complex64) -> Complex64 {
    let width = b - a;
    if s.norm() * width < 1e-6 {
        // e^{-as}(1 - s w/2 + s² w²/6 - ...) expansion of the difference quotient.
        let sw = s * width;
        let series = Complex64::ONE - sw.scale(0.5) + (sw * sw).scale(1.0 / 6.0)
            - (sw * sw * sw).scale(1.0 / 24.0);
        return (-s * a).exp() * series;
    }
    ((-s * a).exp() - (-s * b).exp()) / (s * width)
}

/// Numerical LST of a Weibull distribution by composite Simpson quadrature of
/// `∫ e^{-st} f(t) dt`.  The integration window covers the quantile range
/// `[0, F⁻¹(1 − 1e-12)]` and the resolution adapts to the oscillation frequency
/// `|Im s|` so that each period is sampled at least 16 times.
fn weibull_lst_numeric(shape: f64, scale: f64, s: Complex64) -> Complex64 {
    // Upper integration limit: essentially all the probability mass.
    let t_max = scale * (27.63f64).powf(1.0 / shape); // -ln(1e-12) ≈ 27.63
    let min_points = 2048usize;
    let oscillation = (s.im.abs() * t_max / std::f64::consts::TAU).ceil() as usize;
    let n = (min_points.max(oscillation * 16) | 1).max(3); // odd number of intervals+1
    let h = t_max / (n - 1) as f64;
    let pdf = |t: f64| -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        if t == 0.0 {
            // Limit of the density at the origin: 0 for shape > 1, λ for shape = 1.
            // For shape < 1 the density diverges; clamp to the first interior value
            // so the quadrature stays finite (accuracy is documented as reduced for
            // shape < 1, which the suite does not use analytically).
            return match shape.partial_cmp(&1.0).expect("shape is finite") {
                std::cmp::Ordering::Greater => 0.0,
                std::cmp::Ordering::Equal => 1.0 / scale,
                std::cmp::Ordering::Less => {
                    let z = (h * 0.5) / scale;
                    (shape / scale) * z.powf(shape - 1.0) * (-z.powf(shape)).exp()
                }
            };
        }
        let z = t / scale;
        (shape / scale) * z.powf(shape - 1.0) * (-z.powf(shape)).exp()
    };
    let mut acc = Complex64::ZERO;
    for i in 0..n {
        let t = i as f64 * h;
        let weight = if i == 0 || i == n - 1 {
            1.0
        } else if i % 2 == 1 {
            4.0
        } else {
            2.0
        };
        acc += ((-s * t).exp()).scale(weight * pdf(t));
    }
    acc.scale(h / 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smp_numeric::stats::RunningStats;

    fn assert_close(a: Complex64, b: Complex64, tol: f64) {
        assert!(
            (a - b).norm() < tol,
            "expected {b}, got {a} (diff {})",
            (a - b).norm()
        );
    }

    #[test]
    fn exponential_lst_and_moments() {
        let d = Dist::exponential(2.0);
        assert_close(
            d.lst(Complex64::real(1.0)),
            Complex64::real(2.0 / 3.0),
            1e-14,
        );
        assert_eq!(d.mean(), 0.5);
        assert_eq!(d.variance(), 0.25);
        assert!((d.cdf(1.0).unwrap() - (1.0 - (-2.0f64).exp())).abs() < 1e-14);
    }

    #[test]
    fn erlang_lst_is_power_of_exponential() {
        let e1 = Dist::exponential(3.0);
        let e3 = Dist::erlang(3.0, 3);
        let s = Complex64::new(0.7, 1.3);
        assert_close(e3.lst(s), e1.lst(s).powi(3), 1e-13);
        assert!((e3.mean() - 1.0).abs() < 1e-14);
        assert!((e3.variance() - 1.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn erlang_matches_paper_example() {
        // erlangLT(0.001, 5) from Fig. 3 of the paper: (0.001 / (0.001 + s))^5.
        let d = Dist::erlang(0.001, 5);
        let s = Complex64::real(0.002);
        let expect = (0.001f64 / 0.003).powi(5);
        assert_close(d.lst(s), Complex64::real(expect), 1e-12);
    }

    #[test]
    fn uniform_lst_matches_closed_form_and_limit() {
        // uniformLT(1.5, 10) from Fig. 3.
        let d = Dist::uniform(1.5, 10.0);
        let s = Complex64::new(0.4, -0.9);
        let expect = ((-s * 1.5).exp() - (-s * 10.0).exp()) / (s * 8.5);
        assert_close(d.lst(s), expect, 1e-12);
        // At s = 0 every LST equals 1.
        assert_close(d.lst(Complex64::ZERO), Complex64::ONE, 1e-12);
        // Tiny s uses the series branch and must stay continuous with the closed form.
        let tiny = Complex64::real(1e-8);
        assert_close(d.lst(tiny), Complex64::ONE - tiny * d.mean(), 1e-9);
    }

    #[test]
    fn deterministic_lst_is_pure_phase() {
        let d = Dist::deterministic(2.0);
        let s = Complex64::new(0.0, 3.0);
        let v = d.lst(s);
        assert!((v.norm() - 1.0).abs() < 1e-14);
        assert_close(v, Complex64::from_polar(1.0, -6.0), 1e-13);
        assert_eq!(
            Dist::immediate().lst(Complex64::new(5.0, 2.0)),
            Complex64::ONE
        );
    }

    #[test]
    fn mixture_matches_paper_t5_distribution() {
        // 0.8 * uniformLT(1.5,10,s) + 0.2 * erlangLT(0.001,5,s) — transition t5.
        let d = Dist::mixture(vec![
            (0.8, Dist::uniform(1.5, 10.0)),
            (0.2, Dist::erlang(0.001, 5)),
        ]);
        let s = Complex64::new(0.05, 0.3);
        let expect =
            Dist::uniform(1.5, 10.0).lst(s).scale(0.8) + Dist::erlang(0.001, 5).lst(s).scale(0.2);
        assert_close(d.lst(s), expect, 1e-13);
        let expect_mean = 0.8 * 5.75 + 0.2 * 5000.0;
        assert!((d.mean() - expect_mean).abs() < 1e-9);
    }

    #[test]
    fn mixture_weights_are_normalised() {
        let d = Dist::mixture(vec![
            (2.0, Dist::exponential(1.0)),
            (2.0, Dist::deterministic(3.0)),
        ]);
        assert!((d.mean() - 0.5 * (1.0 + 3.0)).abs() < 1e-14);
        assert_close(d.lst(Complex64::ZERO), Complex64::ONE, 1e-14);
    }

    #[test]
    fn convolution_lst_is_product() {
        let d = Dist::convolution(vec![Dist::exponential(1.0), Dist::deterministic(2.0)]);
        let s = Complex64::new(0.3, 0.4);
        let expect = Dist::exponential(1.0).lst(s) * Dist::deterministic(2.0).lst(s);
        assert_close(d.lst(s), expect, 1e-13);
        assert_eq!(d.mean(), 3.0);
        // Var(X+c) = Var(X)
        assert!((d.variance() - 1.0).abs() < 1e-12);
        assert!(d.cdf(1.0).is_none());
    }

    #[test]
    fn convolution_of_exponentials_equals_erlang() {
        let conv = Dist::convolution(vec![Dist::exponential(2.0); 4]);
        let erl = Dist::erlang(2.0, 4);
        for &sv in &[0.1, 1.0, 5.0] {
            let s = Complex64::new(sv, sv / 2.0);
            assert_close(conv.lst(s), erl.lst(s), 1e-12);
        }
        assert!((conv.mean() - erl.mean()).abs() < 1e-12);
        assert!((conv.second_moment() - erl.second_moment()).abs() < 1e-10);
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        // Weibull(k=1, scale) is Exp(1/scale); the numerical LST should agree.
        let w = Dist::weibull(1.0, 2.0);
        let e = Dist::exponential(0.5);
        for &s in &[
            Complex64::real(0.1),
            Complex64::new(0.5, 0.4),
            Complex64::new(1.0, -2.0),
        ] {
            assert_close(w.lst(s), e.lst(s), 1e-6);
        }
        assert!((w.mean() - 2.0).abs() < 1e-10);
    }

    #[test]
    fn weibull_moments_and_cdf() {
        let w = Dist::weibull(2.0, 1.0);
        // mean = Γ(1.5) = sqrt(pi)/2
        assert!((w.mean() - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-10);
        assert!((w.cdf(1.0).unwrap() - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let dists = vec![
            Dist::exponential(0.5),
            Dist::erlang(2.0, 3),
            Dist::uniform(1.0, 4.0),
            Dist::deterministic(2.5),
            Dist::weibull(1.5, 2.0),
            Dist::mixture(vec![
                (0.8, Dist::uniform(1.5, 10.0)),
                (0.2, Dist::erlang(0.001, 5)),
            ]),
            Dist::convolution(vec![Dist::exponential(1.0), Dist::uniform(0.0, 2.0)]),
        ];
        for d in dists {
            let mut stats = RunningStats::new();
            for _ in 0..60_000 {
                let x = d.sample(&mut rng);
                assert!(x >= 0.0, "negative sample from {d:?}");
                stats.push(x);
            }
            let tol = 4.0 * stats.ci95_half_width() + 1e-9;
            assert!(
                (stats.mean() - d.mean()).abs() < tol,
                "{d:?}: sample mean {} vs analytic {} (tol {tol})",
                stats.mean(),
                d.mean()
            );
        }
    }

    #[test]
    fn cdf_clamps_below_zero() {
        assert_eq!(Dist::exponential(1.0).cdf(-1.0), Some(0.0));
        assert_eq!(Dist::deterministic(0.0).cdf(0.0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn invalid_exponential_rejected() {
        Dist::exponential(0.0);
    }

    #[test]
    #[should_panic(expected = "lower < upper")]
    fn invalid_uniform_rejected() {
        Dist::uniform(3.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn empty_mixture_rejected() {
        Dist::mixture(vec![]);
    }

    #[test]
    fn checked_refuses_non_finite_and_degenerate_parameters() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let refused = [
            Dist::Exponential { rate: nan },
            Dist::Exponential { rate: inf },
            Dist::Erlang {
                rate: nan,
                phases: 2,
            },
            Dist::Erlang {
                rate: 2.0,
                phases: 0,
            },
            Dist::Uniform {
                lower: 0.0,
                upper: inf,
            },
            Dist::Uniform {
                lower: nan,
                upper: 1.0,
            },
            Dist::Deterministic { value: inf },
            Dist::Weibull {
                shape: 1.5,
                scale: inf,
            },
            Dist::Mixture(vec![(0.0, Dist::exponential(2.0))]),
            Dist::Mixture(vec![
                (1.0, Dist::exponential(1.0)),
                (inf, Dist::immediate()),
            ]),
            Dist::Mixture(vec![(1.0, Dist::Exponential { rate: -1.0 })]),
            Dist::Convolution(vec![Dist::immediate(), Dist::Deterministic { value: nan }]),
            Dist::Convolution(vec![]),
        ];
        for dist in refused {
            assert!(dist.clone().checked().is_err(), "{dist:?}");
        }
        let mixture = Dist::Mixture(vec![
            (2.0, Dist::exponential(1.0)),
            (6.0, Dist::immediate()),
        ]);
        assert_eq!(
            mixture.checked().unwrap(),
            Dist::mixture(vec![
                (0.25, Dist::exponential(1.0)),
                (0.75, Dist::immediate())
            ])
        );
    }

    #[test]
    fn is_exponential_is_structural_not_distributional() {
        assert_eq!(Dist::exponential(2.5).is_exponential(), Some(2.5));
        // Lookalikes that are distributionally exponential (or degenerate
        // wrappers around one) must NOT pass the probe.
        assert_eq!(Dist::erlang(2.5, 1).is_exponential(), None);
        assert_eq!(
            Dist::mixture(vec![(1.0, Dist::exponential(2.5))]).is_exponential(),
            None
        );
        assert_eq!(
            Dist::convolution(vec![Dist::exponential(2.5)]).is_exponential(),
            None
        );
        // Plainly non-exponential shapes.
        assert_eq!(Dist::deterministic(0.4).is_exponential(), None);
        assert_eq!(Dist::uniform(0.0, 1.0).is_exponential(), None);
        assert_eq!(Dist::weibull(2.0, 1.0).is_exponential(), None);
    }

    proptest! {
        /// Every LST satisfies |L(s)| ≤ 1 for Re(s) ≥ 0 and L(0) = 1.
        #[test]
        fn prop_lst_bounded_on_right_half_plane(
            which in 0usize..5,
            a in 0.1f64..5.0,
            b in 0.5f64..6.0,
            re in 0.0f64..10.0,
            im in -20.0f64..20.0)
        {
            let d = match which {
                0 => Dist::exponential(a),
                1 => Dist::erlang(a, 1 + (b as u32 % 5)),
                2 => Dist::uniform(a, a + b),
                3 => Dist::deterministic(a),
                _ => Dist::mixture(vec![(0.3, Dist::exponential(a)), (0.7, Dist::uniform(0.0, b))]),
            };
            let s = Complex64::new(re, im);
            let v = d.lst(s);
            prop_assert!(v.norm() <= 1.0 + 1e-9, "|L({s})| = {} for {d:?}", v.norm());
            let at_zero = d.lst(Complex64::ZERO);
            prop_assert!((at_zero - Complex64::ONE).norm() < 1e-9);
        }

        /// The derivative identity −L'(0) = E[X] holds (finite differences).
        #[test]
        fn prop_lst_derivative_gives_mean(
            which in 0usize..4,
            a in 0.2f64..4.0,
            b in 0.5f64..5.0)
        {
            let d = match which {
                0 => Dist::exponential(a),
                1 => Dist::erlang(a, 3),
                2 => Dist::uniform(a, a + b),
                _ => Dist::convolution(vec![Dist::exponential(a), Dist::deterministic(b)]),
            };
            let h = 1e-6;
            let derivative = (d.lst(Complex64::real(h)).re - d.lst(Complex64::real(-h)).re) / (2.0 * h);
            prop_assert!(
                (-derivative - d.mean()).abs() < 1e-3 * (1.0 + d.mean()),
                "-L'(0) = {} vs mean {}", -derivative, d.mean()
            );
        }

        /// `is_exponential` returns `Some(rate)` exactly for values built via
        /// `Dist::exponential`, and `None` for every lookalike — including a
        /// one-phase Erlang with the same rate, a Weibull with shape 1 (also
        /// distributionally exponential), and trivial mixture/convolution
        /// wrappers around an exponential.
        #[test]
        fn prop_is_exponential_iff_built_as_exponential(
            rate in 0.05f64..50.0,
            which in 0usize..5)
        {
            let built = Dist::exponential(rate);
            prop_assert_eq!(built.is_exponential(), Some(rate));

            let lookalike = match which {
                0 => Dist::erlang(rate, 1),
                1 => Dist::weibull(1.0, 1.0 / rate),
                2 => Dist::mixture(vec![(1.0, Dist::exponential(rate))]),
                3 => Dist::convolution(vec![Dist::exponential(rate)]),
                _ => Dist::deterministic(1.0 / rate),
            };
            prop_assert_eq!(lookalike.is_exponential(), None);
        }

        /// CDFs are monotone non-decreasing and land in [0, 1].
        #[test]
        fn prop_cdf_monotone(
            a in 0.2f64..4.0,
            b in 0.5f64..5.0,
            t1 in 0.0f64..20.0,
            dt in 0.0f64..10.0)
        {
            let dists = [
                Dist::exponential(a),
                Dist::erlang(a, 4),
                Dist::uniform(a, a + b),
                Dist::weibull(1.0 + a, b),
                Dist::mixture(vec![(0.5, Dist::deterministic(a)), (0.5, Dist::exponential(b))]),
            ];
            for d in dists {
                let c1 = d.cdf(t1).unwrap();
                let c2 = d.cdf(t1 + dt).unwrap();
                prop_assert!((0.0..=1.0 + 1e-12).contains(&c1));
                prop_assert!(c2 + 1e-12 >= c1);
            }
        }
    }
}

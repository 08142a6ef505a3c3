//! Uniformization backend for the all-exponential special case.
//!
//! When **every** holding-time distribution of a semi-Markov process is
//! exponential (structurally — see [`smp_distributions::Dist::is_exponential`]),
//! the process admits an exact continuous-time Markov chain representation and
//! transient/passage quantities can be computed by *uniformization*
//! (Poisson-weighted power iteration, Grassmann / Gross & Miller) instead of
//! numerical Laplace inversion — orders of magnitude cheaper, and with an
//! **a-priori truncation error bound** (the neglected Poisson tail mass).
//!
//! ## The phase-space reduction
//!
//! The SMP kernel `R(i,j,t) = p_ij · H_ij(t)` *preselects* the successor `j`
//! (probability `p_ij`) and then holds for `H_ij ~ Exp(λ_ij)`.  Because the
//! rate depends on the chosen successor, the state process itself is **not**
//! Markov on the original state space (the sojourn in `i` is a mixture of
//! exponentials).  The exact reduction takes one CTMC state per kernel
//! transition: phase `(i, j)` means "sitting in `i`, committed to jump to
//! `j`".  Its sojourn is `Exp(λ_ij)`, after which the chain enters phase
//! `(j, k)` with probability `p_jk`:
//!
//! ```text
//! Q[(i,j), (j,k)] = λ_ij · p_jk        Q[(i,j), (i,j)] = -λ_ij
//! ```
//!
//! The occupied SMP state of phase `(i, j)` is `i`, so transient state
//! probabilities aggregate phases by their source state.  First-passage
//! measures into a target set `T` route the full rate of every phase
//! `(i, j)` with `j ∈ T` into an extra absorbing phase (matching the
//! iterative solver's semantics: the passage completes on the first jump
//! *into* `T` after time 0, i.e. first-return when the initial state is
//! already in `T`).
//!
//! ## Uniformization
//!
//! With `q ≥ max_φ λ_φ` and `P = I + Q/q` (a stochastic matrix),
//!
//! ```text
//! π(t) = Σ_{k≥0}  e^{-qt} (qt)^k / k!  ·  π(0) Pᵏ
//! ```
//!
//! Truncating the series at `K` discards at most the Poisson tail mass
//! `1 - Σ_{k≤K} e^{-qt}(qt)^k/k!` (times the largest weight being
//! accumulated), which is the bound surfaced through
//! [`Expectation::truncation_bound`] and, at the engine layer, through
//! `Provenance::error_bound`.  Poisson weights are generated in log space so
//! large `q·t` products cannot underflow the running term.
//!
//! Passage-time **moments** need no series at all: on the absorbing chain the
//! raw moments solve the nested linear systems `A mₖ = -k mₖ₋₁` (`A` the
//! transient sub-generator, `m₀ = 1`), handled here by Jacobi iteration —
//! the iteration matrix is substochastic whenever absorption is reachable.

use crate::smp::{SemiMarkovProcess, StateSet};
use smp_sparse::{CsrMatrix, TripletMatrix};
use std::fmt;

/// Default Poisson truncation tolerance: the series is summed until at most
/// this much Poisson mass remains beyond the last term, for every requested
/// time point.
pub const DEFAULT_TOLERANCE: f64 = 1e-12;

/// Relative convergence threshold for the Jacobi moment solves.
const JACOBI_TOLERANCE: f64 = 1e-13;
/// Iteration cap for the Jacobi moment solves.
const JACOBI_MAX_ITERATIONS: usize = 500_000;

/// Errors from the uniformization backend.
#[derive(Debug, Clone, PartialEq)]
pub enum UniformError {
    /// The model has a holding-time distribution that is not structurally
    /// exponential, so the CTMC reduction does not apply.
    NotExponential {
        /// Debug rendering of the offending distribution.
        distribution: String,
    },
    /// A requested time point was negative.
    NegativeTime {
        /// The offending time point.
        t: f64,
    },
    /// The Poisson series failed to accumulate `1 - tol` mass within the
    /// iteration cap (numerically degenerate `q·t`).
    TruncationOverflow {
        /// Number of power-iteration terms taken before giving up.
        iterations: usize,
    },
    /// The Jacobi solve for a passage moment did not converge — the target is
    /// unreachable from some phase, so the moment diverges.
    MomentDiverged {
        /// The moment order being solved.
        order: u32,
        /// Number of Jacobi sweeps performed.
        iterations: usize,
    },
}

impl fmt::Display for UniformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniformError::NotExponential { distribution } => write!(
                f,
                "holding-time distribution {distribution} is not exponential; \
                 uniformization requires every holding time to be built as \
                 Dist::exponential"
            ),
            UniformError::NegativeTime { t } => {
                write!(
                    f,
                    "uniformization requires non-negative time points, got {t}"
                )
            }
            UniformError::TruncationOverflow { iterations } => write!(
                f,
                "Poisson series did not reach the requested mass within \
                 {iterations} terms"
            ),
            UniformError::MomentDiverged { order, iterations } => write!(
                f,
                "moment of order {order} diverges: the absorbing target is not \
                 reached from every phase (Jacobi did not converge in \
                 {iterations} sweeps)"
            ),
        }
    }
}

impl std::error::Error for UniformError {}

/// Per-distribution exponential rates, or the reduction-blocking error.
///
/// Returns one rate per pooled distribution id iff **every** distribution in
/// the pool passes [`smp_distributions::Dist::is_exponential`]; otherwise the
/// error names the first offending distribution.
pub fn exponential_rates(smp: &SemiMarkovProcess) -> Result<Vec<f64>, UniformError> {
    let mut rates = Vec::with_capacity(smp.num_distributions());
    for id in 0..smp.num_distributions() {
        let dist = smp.distribution(id as u32);
        match dist.is_exponential() {
            Some(rate) => rates.push(rate),
            None => {
                return Err(UniformError::NotExponential {
                    distribution: format!("{dist:?}"),
                })
            }
        }
    }
    Ok(rates)
}

/// `true` iff the CTMC reduction applies to `smp` (every pooled holding-time
/// distribution is structurally exponential).
pub fn is_all_exponential(smp: &SemiMarkovProcess) -> bool {
    exponential_rates(smp).is_ok()
}

/// The result of a Poisson-weighted power iteration: one value per requested
/// time point plus the a-priori truncation bound.
#[derive(Debug, Clone)]
pub struct Expectation {
    /// The accumulated values, one per time point, in request order.
    pub values: Vec<f64>,
    /// A-priori bound on the absolute truncation error of every value: the
    /// largest neglected Poisson tail mass across the time points, scaled by
    /// the largest weight magnitude.
    pub truncation_bound: f64,
    /// Number of power-iteration terms (sparse vector–matrix products) taken.
    pub iterations: usize,
}

/// A passage-time moment from the absorbing-chain linear systems.
#[derive(Debug, Clone, Copy)]
pub struct Moment {
    /// The raw moment `E[Tᵏ]`.
    pub value: f64,
    /// Max-norm residual of the final Jacobi iterate (a convergence
    /// indicator, not a rigorous forward-error bound).
    pub residual: f64,
    /// Total Jacobi sweeps across the nested solves.
    pub iterations: usize,
}

/// The phase-space CTMC of an all-exponential semi-Markov process.
///
/// Build with [`PhaseCtmc::transient`] (occupancy queries) or
/// [`PhaseCtmc::passage`] (absorbing first-passage queries); both fail with
/// [`UniformError::NotExponential`] unless every holding-time distribution is
/// structurally exponential.
#[derive(Debug, Clone)]
pub struct PhaseCtmc {
    /// SMP state occupied during each phase (`phase_state[φ] = i` for
    /// phase `φ = (i, j)`).  The absorbing phase, when present, is absent
    /// from this mapping (index `== num_phases`).
    phase_state: Vec<usize>,
    /// Rate routed directly into the absorbing phase (passage chains only;
    /// `λ_ij` when the committed successor is a target, else 0).
    phase_absorb_rate: Vec<f64>,
    /// The CTMC generator `Q` (including the all-zero absorbing row on
    /// passage chains).
    generator: CsrMatrix<f64>,
    /// The uniformized jump matrix `P = I + Q/q`.
    p: CsrMatrix<f64>,
    /// The uniformization rate `q` (strictly above every exit rate).
    uniformization_rate: f64,
    /// Initial phase distribution: mass `p_{i₀,j}` on each phase `(i₀, j)`.
    initial: Vec<f64>,
    /// Index of the absorbing phase, for passage chains.
    absorbing: Option<usize>,
}

impl PhaseCtmc {
    /// Builds the phase-space CTMC for transient (occupancy) queries.
    pub fn transient(smp: &SemiMarkovProcess, initial_state: usize) -> Result<Self, UniformError> {
        Self::build(smp, initial_state, None)
    }

    /// Builds the absorbing phase-space CTMC for first-passage queries into
    /// `targets` (first-return when `initial_state` is itself a target).
    pub fn passage(
        smp: &SemiMarkovProcess,
        initial_state: usize,
        targets: &StateSet,
    ) -> Result<Self, UniformError> {
        Self::build(smp, initial_state, Some(targets))
    }

    fn build(
        smp: &SemiMarkovProcess,
        initial_state: usize,
        targets: Option<&StateSet>,
    ) -> Result<Self, UniformError> {
        assert!(
            initial_state < smp.num_states(),
            "initial state {initial_state} out of range ({} states)",
            smp.num_states()
        );
        let rates = exponential_rates(smp)?;
        let n = smp.num_states();

        // Phases are grouped by source state, in transition order, so phase
        // (i, j) for the k-th transition of i sits at `first_phase[i] + k`.
        let mut first_phase = vec![0usize; n + 1];
        for i in 0..n {
            first_phase[i + 1] = first_phase[i] + smp.transitions(i).len();
        }
        let num_phases = first_phase[n];
        let absorbing = targets.map(|_| num_phases);
        let dim = num_phases + usize::from(absorbing.is_some());

        let mut phase_state = Vec::with_capacity(num_phases);
        let mut max_rate = 0.0f64;
        let mut phase_absorb_rate = vec![0.0; dim];
        let mut triplets = TripletMatrix::with_capacity(dim, dim, smp.num_transitions() * 3);
        for i in 0..n {
            for (k, tr) in smp.transitions(i).iter().enumerate() {
                let phi = first_phase[i] + k;
                let lambda = rates[tr.dist as usize];
                phase_state.push(i);
                max_rate = max_rate.max(lambda);
                triplets.push(phi, phi, -lambda);
                let j = tr.target as usize;
                if targets.is_some_and(|t| t.contains(j)) {
                    triplets.push(phi, num_phases, lambda);
                    phase_absorb_rate[phi] = lambda;
                } else {
                    for (k2, tr2) in smp.transitions(j).iter().enumerate() {
                        triplets.push(phi, first_phase[j] + k2, lambda * tr2.probability);
                    }
                }
            }
        }
        let generator = triplets.to_csr();

        // q strictly above the largest exit rate keeps every diagonal of P
        // strictly positive (the 1.1 factor follows the classic recipe).
        let q = 1.1 * max_rate;
        let mut p_triplets = TripletMatrix::with_capacity(dim, dim, generator.nnz() + dim);
        for (r, c, v) in generator.iter() {
            p_triplets.push(r, c, v / q);
        }
        for d in 0..dim {
            p_triplets.push(d, d, 1.0);
        }
        let p = p_triplets.to_csr();

        let mut initial = vec![0.0; dim];
        for (k, tr) in smp.transitions(initial_state).iter().enumerate() {
            initial[first_phase[initial_state] + k] = tr.probability;
        }

        Ok(PhaseCtmc {
            phase_state,
            phase_absorb_rate,
            generator,
            p,
            uniformization_rate: q,
            initial,
            absorbing,
        })
    }

    /// Number of phases, including the absorbing phase on passage chains.
    pub(crate) fn num_phases(&self) -> usize {
        self.p.rows()
    }

    /// Transient occupancy `P(Z(t) ∈ targets)` at each time point.
    ///
    /// Only meaningful on chains built with [`PhaseCtmc::transient`]; panics
    /// on passage chains (whose occupancy is distorted by absorption).
    pub fn transient_probability(
        &self,
        targets: &StateSet,
        t_points: &[f64],
        tolerance: f64,
    ) -> Result<Expectation, UniformError> {
        assert!(
            self.absorbing.is_none(),
            "transient occupancy must be queried on a transient-mode chain"
        );
        let weights: Vec<f64> = self
            .phase_state
            .iter()
            .map(|&i| if targets.contains(i) { 1.0 } else { 0.0 })
            .collect();
        self.poisson_expectation(&weights, t_points, tolerance)
    }

    /// First-passage CDF `F(t) = P(T ≤ t)` at each time point (the absorbed
    /// mass).  Panics unless built with [`PhaseCtmc::passage`].
    pub fn cdf(&self, t_points: &[f64], tolerance: f64) -> Result<Expectation, UniformError> {
        let a = self.require_absorbing();
        let mut weights = vec![0.0; self.num_phases()];
        weights[a] = 1.0;
        self.poisson_expectation(&weights, t_points, tolerance)
    }

    /// First-passage density `f(t)` at each time point: the probability flux
    /// into the absorbing phase, `Σ_φ π_φ(t) · λ_φ→absorbing`.  Panics unless
    /// built with [`PhaseCtmc::passage`].
    pub fn density(&self, t_points: &[f64], tolerance: f64) -> Result<Expectation, UniformError> {
        self.require_absorbing();
        self.poisson_expectation(&self.phase_absorb_rate, t_points, tolerance)
    }

    /// Raw passage-time moment `E[Tᵏ]` from the nested linear systems
    /// `A mₖ = -k mₖ₋₁` on the transient sub-generator (no series
    /// truncation).  Panics unless built with [`PhaseCtmc::passage`].
    pub fn moment(&self, order: u32) -> Result<Moment, UniformError> {
        let a = self.require_absorbing();
        assert!(order >= 1, "moment order must be at least 1");
        let n = a; // transient phases are 0..a
        let mut prev = vec![1.0; n]; // m₀ = 1
        let mut x = vec![0.0; n];
        let mut next = vec![0.0; n];
        let mut total_sweeps = 0usize;
        let mut residual = 0.0f64;
        for k in 1..=order {
            // Solve (-D + N) m = -k·prev  ⇔  m = D⁻¹(k·prev + N m), where D is
            // the (positive) diagonal exit rate and N the off-diagonal rates
            // into transient phases.
            x.iter_mut().for_each(|v| *v = 0.0);
            let mut converged = false;
            for _sweep in 0..JACOBI_MAX_ITERATIONS {
                total_sweeps += 1;
                let mut diff = 0.0f64;
                let mut scale = 1.0f64;
                for r in 0..n {
                    let mut acc = k as f64 * prev[r];
                    let mut diag = 0.0;
                    for (c, v) in self.generator.row(r) {
                        if c == r {
                            diag = v;
                        } else if c != a {
                            acc += v * x[c];
                        }
                    }
                    if diag >= 0.0 {
                        // A phase with no way out (pure self-loop) can never
                        // absorb: the moment is infinite.
                        return Err(UniformError::MomentDiverged {
                            order: k,
                            iterations: total_sweeps,
                        });
                    }
                    let value = acc / -diag;
                    diff = diff.max((value - x[r]).abs());
                    scale = scale.max(value.abs());
                    next[r] = value;
                }
                std::mem::swap(&mut x, &mut next);
                if diff <= JACOBI_TOLERANCE * scale {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(UniformError::MomentDiverged {
                    order: k,
                    iterations: total_sweeps,
                });
            }
            // Residual of the final iterate: max_r |A·m + k·prev|_r.
            for (r, &prev_r) in prev.iter().enumerate().take(n) {
                let mut acc = k as f64 * prev_r;
                for (c, v) in self.generator.row(r) {
                    if c != a {
                        acc += v * x[c];
                    }
                }
                residual = residual.max(acc.abs());
            }
            prev.copy_from_slice(&x);
        }
        let value = self
            .initial
            .iter()
            .take(n)
            .zip(&prev)
            .map(|(pi, m)| pi * m)
            .sum();
        Ok(Moment {
            value,
            residual,
            iterations: total_sweeps,
        })
    }

    fn require_absorbing(&self) -> usize {
        self.absorbing
            .expect("passage queries require a chain built with PhaseCtmc::passage")
    }

    /// Core uniformization: `values[t] = Σ_k Poisson(qt; k) · (π₀ Pᵏ) · w`,
    /// truncated once every time point has accumulated `1 - tolerance` of its
    /// Poisson mass.  Weights are an arbitrary per-phase vector, so the same
    /// loop serves occupancies (0/1), CDFs (absorbing indicator) and
    /// densities (absorption rates).
    fn poisson_expectation(
        &self,
        weights: &[f64],
        t_points: &[f64],
        tolerance: f64,
    ) -> Result<Expectation, UniformError> {
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "truncation tolerance must be in (0, 1), got {tolerance}"
        );
        assert_eq!(weights.len(), self.num_phases());
        if let Some(&t) = t_points.iter().find(|&&t| t < 0.0 || t.is_nan()) {
            return Err(UniformError::NegativeTime { t });
        }

        let q = self.uniformization_rate;
        let qts: Vec<f64> = t_points.iter().map(|&t| q * t).collect();
        let qt_max = qts.iter().copied().fold(0.0, f64::max);
        // A-priori cap: the Poisson(qt) distribution has essentially all its
        // mass below qt + O(√qt); the slack covers tiny tolerances.
        let cap = (qt_max + 50.0 * qt_max.sqrt() + 200.0).ceil() as usize;

        let weight_scale = weights.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        let mut v = self.initial.clone();
        let mut scratch = vec![0.0; v.len()];
        // Per time point: log of the current Poisson term, accumulated mass,
        // accumulated weighted value.  Log space keeps e^{-qt} representable
        // for arbitrarily large qt.
        let mut log_term: Vec<f64> = qts.iter().map(|&qt| -qt).collect();
        let mut mass = vec![0.0f64; qts.len()];
        let mut values = vec![0.0f64; qts.len()];

        let mut k = 0usize;
        loop {
            let d: f64 = v.iter().zip(weights).map(|(p, w)| p * w).sum();
            let mut done = true;
            for ((&lt, value), m) in log_term.iter().zip(&mut values).zip(&mut mass) {
                let term = lt.exp();
                *value += term * d;
                *m += term;
                if *m < 1.0 - tolerance {
                    done = false;
                }
            }
            if done {
                break;
            }
            if k >= cap {
                return Err(UniformError::TruncationOverflow { iterations: k });
            }
            k += 1;
            let logk = (k as f64).ln();
            for (lt, &qt) in log_term.iter_mut().zip(&qts) {
                *lt += qt.ln() - logk;
            }
            self.p.vec_mul_into(&v, &mut scratch);
            std::mem::swap(&mut v, &mut scratch);
        }

        let tail = mass.iter().map(|&m| (1.0 - m).max(0.0)).fold(0.0, f64::max);
        Ok(Expectation {
            values,
            truncation_bound: tail * weight_scale,
            iterations: k,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::SmpBuilder;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use smp_distributions::Dist;

    const TOL: f64 = 1e-12;

    fn two_state(lambda: f64, mu: f64) -> SemiMarkovProcess {
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::exponential(lambda));
        b.add_transition(1, 0, 1.0, Dist::exponential(mu));
        b.build().unwrap()
    }

    #[test]
    fn non_exponential_models_are_rejected() {
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::erlang(2.0, 1)); // exponential lookalike
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        assert!(!is_all_exponential(&smp));
        let err = PhaseCtmc::transient(&smp, 0).unwrap_err();
        assert!(matches!(err, UniformError::NotExponential { .. }), "{err}");
    }

    #[test]
    fn two_state_transient_matches_closed_form() {
        let (lambda, mu) = (2.0, 3.0);
        let smp = two_state(lambda, mu);
        let chain = PhaseCtmc::transient(&smp, 0).unwrap();
        // One transition per state, so the SMP *is* a CTMC here and
        // P(Z(t) = 1 | Z(0) = 0) has the textbook closed form.
        let targets = StateSet::new(2, &[1]).unwrap();
        let ts = [0.1, 0.5, 1.0, 2.0, 5.0];
        let out = chain.transient_probability(&targets, &ts, TOL).unwrap();
        for (&t, &got) in ts.iter().zip(&out.values) {
            let expect = lambda / (lambda + mu) * (1.0 - (-(lambda + mu) * t).exp());
            assert!(
                (got - expect).abs() <= out.truncation_bound + 1e-12,
                "t = {t}: {got} vs {expect} (bound {})",
                out.truncation_bound
            );
        }
    }

    #[test]
    fn two_state_passage_is_exponential() {
        let lambda = 1.7;
        let smp = two_state(lambda, 0.9);
        let targets = StateSet::new(2, &[1]).unwrap();
        let chain = PhaseCtmc::passage(&smp, 0, &targets).unwrap();
        let ts = [0.25, 1.0, 3.0];
        let cdf = chain.cdf(&ts, TOL).unwrap();
        let density = chain.density(&ts, TOL).unwrap();
        for (i, &t) in ts.iter().enumerate() {
            assert!((cdf.values[i] - (1.0 - (-lambda * t).exp())).abs() < 1e-10);
            assert!((density.values[i] - lambda * (-lambda * t).exp()).abs() < 1e-9);
        }
        let mean = chain.moment(1).unwrap();
        assert!((mean.value - 1.0 / lambda).abs() < 1e-10, "{}", mean.value);
        let m2 = chain.moment(2).unwrap();
        assert!((m2.value - 2.0 / (lambda * lambda)).abs() < 1e-9);
    }

    #[test]
    fn ring_passage_is_hypoexponential() {
        // 0 → 1 → 2 → 0 with rates r1, r2, r3; the passage 0 → {2} is the sum
        // of two independent exponentials (hypoexponential).
        let (r1, r2) = (2.0, 1.0);
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::exponential(r1));
        b.add_transition(1, 2, 1.0, Dist::exponential(r2));
        b.add_transition(2, 0, 1.0, Dist::exponential(3.0));
        let smp = b.build().unwrap();
        let targets = StateSet::new(3, &[2]).unwrap();
        let chain = PhaseCtmc::passage(&smp, 0, &targets).unwrap();

        let ts = [0.3, 1.0, 2.5, 6.0];
        let cdf = chain.cdf(&ts, TOL).unwrap();
        for (&t, &got) in ts.iter().zip(&cdf.values) {
            let expect = 1.0 - r2 / (r2 - r1) * (-r1 * t).exp() + r1 / (r2 - r1) * (-r2 * t).exp();
            assert!(
                (got - expect).abs() <= cdf.truncation_bound + 1e-11,
                "t = {t}: {got} vs {expect}"
            );
        }
        let mean = chain.moment(1).unwrap();
        assert!((mean.value - (1.0 / r1 + 1.0 / r2)).abs() < 1e-9);
        // E[T²] = Var + mean² = (1/r1² + 1/r2²) + (1/r1 + 1/r2)².
        let m2 = chain.moment(2).unwrap();
        let expect_m2 = 1.0 / (r1 * r1) + 1.0 / (r2 * r2) + (1.0 / r1 + 1.0 / r2).powi(2);
        assert!((m2.value - expect_m2).abs() < 1e-8, "{}", m2.value);
    }

    #[test]
    fn truncation_bound_shrinks_with_tolerance() {
        let smp = two_state(4.0, 1.0);
        let chain = PhaseCtmc::transient(&smp, 0).unwrap();
        let targets = StateSet::new(2, &[1]).unwrap();
        let loose = chain.transient_probability(&targets, &[2.0], 1e-4).unwrap();
        let tight = chain
            .transient_probability(&targets, &[2.0], 1e-13)
            .unwrap();
        assert!(loose.truncation_bound <= 1e-4);
        assert!(tight.truncation_bound <= 1e-13);
        assert!(tight.iterations > loose.iterations);
        assert!((loose.values[0] - tight.values[0]).abs() <= loose.truncation_bound + 1e-13);
    }

    /// Builds a random strongly-exploitable all-exponential SMP: every state
    /// has 1–3 outgoing transitions with random weights, targets and rates.
    fn random_exponential_smp(seed: u64, n: usize) -> SemiMarkovProcess {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = SmpBuilder::new(n);
        for i in 0..n {
            let fanout = rng.gen_range(1..=3usize);
            for _ in 0..fanout {
                let target = rng.gen_range(0..n);
                let weight = rng.gen_range(0.1..4.0);
                let rate = rng.gen_range(0.05..20.0);
                b.add_transition(i, target, weight, Dist::exponential(rate));
            }
        }
        b.build().unwrap()
    }

    proptest! {
        /// The CTMC reduction round-trips generator row sums to 0 within a
        /// 1-ulp-scale tolerance: each transient row sums to
        /// `λ·(Σ p_jk − 1)`, and the normalised jump probabilities sum to 1
        /// up to a few ulps per summand.
        #[test]
        fn prop_generator_row_sums_vanish(seed in 0u64..150, n in 2usize..8) {
            let smp = random_exponential_smp(seed, n);
            let chain = PhaseCtmc::transient(&smp, 0).unwrap();
            let q = &chain.generator;
            // Phase (i, j) leaves at the rate of transition i → j's distribution.
            let rates = exponential_rates(&smp).unwrap();
            let phase_rate: Vec<f64> = (0..n)
                .flat_map(|i| smp.transitions(i).iter().map(|tr| rates[tr.dist as usize]))
                .collect();
            prop_assert_eq!(phase_rate.len(), chain.num_phases());
            for (r, &rate) in phase_rate.iter().enumerate() {
                let sum: f64 = q.row(r).map(|(_, v)| v).sum();
                let fanout = q.row(r).count() as f64;
                prop_assert!(
                    sum.abs() <= 32.0 * f64::EPSILON * rate * fanout.max(1.0),
                    "row {r}: sum {sum:e} vs rate {rate}"
                );
            }
        }

        /// On random all-exponential models the uniformized occupancy is a
        /// probability and the reported truncation bound honours the
        /// requested tolerance.
        #[test]
        fn prop_transient_values_are_probabilities(seed in 0u64..60, n in 2usize..6) {
            let smp = random_exponential_smp(seed, n);
            let chain = PhaseCtmc::transient(&smp, 0).unwrap();
            let even: Vec<usize> = (0..n).step_by(2).collect();
            let targets = StateSet::new(n, &even).unwrap();
            let out = chain.transient_probability(&targets, &[0.1, 1.0, 7.5], 1e-10).unwrap();
            prop_assert!(out.truncation_bound <= 1e-10);
            for &v in &out.values {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "occupancy {v}");
            }
        }
    }
}

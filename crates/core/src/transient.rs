//! Transient state distributions by the paper's own iteration (Eqs. 6–7 in
//! renewal form).
//!
//! Pyke's relations link the transient distribution `T_ij(t) = P(Z(t) = j | Z(0) = i)`
//! to passage-time and sojourn-time transforms:
//!
//! ```text
//!   T*_ij(s) = (1/s) · (1 − h*_i(s)) / (1 − L_ii(s))          if i = j    (Eq. 6)
//!   T*_ij(s) = L_ij(s) · T*_jj(s)                              if i ≠ j
//! ```
//!
//! and Eq. 7 assembles a target *set* `j` from the `2|j| − 1` passage
//! quantities `L_ik(s)`, `L_kk(s)`, `k ∈ j` — one absorbing-`k` passage solve
//! per target state.  Those relations are a rearrangement of the Markov
//! renewal equation — in `[0, t]` the process either never leaves `i`, or
//! makes a first transition and starts afresh —
//!
//! ```text
//!   T*(s) = diag((1 − h*_k(s)) / s) + U(s) · T*(s)
//!         = (I − U(s))⁻¹ · diag((1 − h*_k(s)) / s)
//! ```
//!
//! because `(I − U)⁻¹_ik` counts visits to `k`: `1 / (1 − L_kk)` of them from
//! `k` itself (a geometric number of cycles), `L_ik / (1 − L_kk)` from
//! `i ≠ k`.  Eq. 7 sums the visits to each `k` by *cycle*; expanding
//! `(I − U)⁻¹ = Σ_r U^r` sums the same visits by *transition count*, for the
//! whole target set at once:
//!
//! ```text
//!   T*_{α→j}(s) = (1/s) · Σ_{r ≥ 0} Σ_{k ∈ j} (1 − h*_k(s)) · (α U^r)_k
//! ```
//!
//! That is Eq. 10's row iteration with **no** absorbing row and a weighted
//! `ẽ`, so it runs on the passage kernel as it stands (`crate::workspace`: an
//! occupancy skeleton masks nothing and reads `Σ_k (1 − h*_k) · term_k`) under
//! the passage's convergence driver — one row pass per `s`-point whatever
//! `|j|` is.  No `1 − L_kk(s)` is ever formed: nothing is divided but the one
//! final `/s`, so the truncation error of the series reaches the answer
//! unamplified, where Eq. 7 divides each of its `|j|` truncated series by a
//! quantity that tends to zero with `s`.
//!
//! **Cost.**  The term vector `α U^r` decays like `E[e^{−s·S_r}]`, `S_r` the
//! time of the `r`-th transition, so at the Euler inversion's `Re(s) ≈ 9.2/t`
//! a point takes about `2t ÷ (mean sojourn time)` rounds to fall below
//! `ε = 1e-8`.  Eq. 7's absorbing passages stop as soon as every path has
//! met `k`; for a single target state that is re-entered every few
//! transitions, observed many cycles out, that is fewer rounds than the
//! series here needs.  No second path is kept for that case.

use crate::error::SmpError;
use crate::passage::{nonzero_weights, solve_chunk, start_weights, IterationOptions};
use crate::smp::{SemiMarkovProcess, StateSet};
use crate::workspace::{HotPathStats, PassageSkeleton, WorkspacePool};
use smp_distributions::LaplaceTransform;
use smp_numeric::Complex64;
use std::sync::Arc;

/// Evaluates transient state-distribution transforms `T*_{i→j}(s)`.
///
/// Construction builds the occupancy skeleton of the target set over the
/// process's memoized `U` structure; every `s`-point then refills a pooled
/// workspace and runs one unmasked row iteration (see the module docs).
#[derive(Debug, Clone)]
pub struct TransientSolver<'a> {
    smp: &'a SemiMarkovProcess,
    /// The non-zero start-of-observation weights, `(state, weight)` by
    /// ascending state (a δ-vector for a single source, α-weights of Eq. (5)
    /// for a steady-state-weighted set of sources).
    starts: Vec<(usize, f64)>,
    sources: StateSet,
    targets: StateSet,
    options: IterationOptions,
    /// Reusable numeric workspaces over the occupancy skeleton.
    pool: Arc<WorkspacePool>,
}

impl<'a> TransientSolver<'a> {
    /// Creates a transient solver observing the probability of being in `targets` at
    /// time `t`, having started in the single state `source` at time 0.
    pub fn new(
        smp: &'a SemiMarkovProcess,
        source: usize,
        targets: &[usize],
    ) -> Result<Self, SmpError> {
        Self::with_options(smp, &[source], targets, IterationOptions::default())
    }

    /// Creates a transient solver with several equally-or-α-weighted source states
    /// and explicit iteration options.
    pub fn with_options(
        smp: &'a SemiMarkovProcess,
        sources: &[usize],
        targets: &[usize],
        options: IterationOptions,
    ) -> Result<Self, SmpError> {
        let (sources, targets, alpha) = start_weights(smp, sources, targets)?;
        let skeleton = PassageSkeleton::occupancy(smp, &targets);
        Ok(TransientSolver {
            smp,
            starts: nonzero_weights(&alpha),
            sources,
            targets,
            options,
            pool: Arc::new(WorkspacePool::over(skeleton)),
        })
    }

    /// The target state set.
    pub fn targets(&self) -> &StateSet {
        &self.targets
    }

    /// The source state set.
    pub fn sources(&self) -> &StateSet {
        &self.sources
    }

    /// The convergence options in use.
    pub fn options(&self) -> &IterationOptions {
        &self.options
    }

    /// Aggregate symbolic/numeric-split counters of this solver's workspace
    /// pool (see `PassageTimeSolver::hotpath_stats`): one refill per
    /// `s`-point, like a passage over the same points.
    pub fn hotpath_stats(&self) -> HotPathStats {
        self.pool.stats()
    }

    /// Evaluates `T*_{i→j}(s)` at one complex point: one refill, one row
    /// iteration, one division by `s`.
    pub fn transform_at(&self, s: Complex64) -> Result<Complex64, SmpError> {
        let mut one = self.transform_many(&[s]);
        one.pop().expect("one result per point")
    }

    /// Evaluates the transform at every point of a chunk, one result per
    /// point in order — each bit for bit what
    /// [`TransientSolver::transform_at`] returns for that point alone (a lone
    /// point takes the single-lane kernel wherever it falls in a chunk).  The
    /// points are the lanes of the kernel's lockstep blocks, exactly as for
    /// `PassageTimeSolver::transform_many`.
    pub fn transform_many(&self, points: &[Complex64]) -> Vec<Result<Complex64, SmpError>> {
        let mut ws = self.pool.checkout();
        let sums = solve_chunk(self.smp, &mut ws, &self.starts, self.options, points);
        self.pool.give_back(ws);
        sums.into_iter()
            .zip(points)
            .map(|(sum, &s)| Ok(sum?.value / s))
            .collect()
    }
}

impl LaplaceTransform for TransientSolver<'_> {
    /// Evaluating the solver as a transform runs the iteration at `s`.
    ///
    /// # Panics
    /// Panics if the iteration fails to converge; use
    /// [`TransientSolver::transform_at`] for explicit error handling.
    fn lst(&self, s: Complex64) -> Complex64 {
        self.transform_at(s)
            .unwrap_or_else(|e| panic!("transient transform failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::SmpBuilder;
    use crate::steady::smp_steady_state;
    use smp_distributions::Dist;
    use smp_laplace::Euler;

    /// Two-state CTMC with rates λ (0→1) and μ (1→0); transient probabilities have
    /// the classical closed form used as ground truth.
    fn two_state_ctmc(lambda: f64, mu: f64) -> SemiMarkovProcess {
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::exponential(lambda));
        b.add_transition(1, 0, 1.0, Dist::exponential(mu));
        b.build().unwrap()
    }

    fn ctmc_p00(lambda: f64, mu: f64, t: f64) -> f64 {
        mu / (lambda + mu) + lambda / (lambda + mu) * (-(lambda + mu) * t).exp()
    }

    fn ctmc_p01(lambda: f64, mu: f64, t: f64) -> f64 {
        1.0 - ctmc_p00(lambda, mu, t)
    }

    #[test]
    fn matches_two_state_ctmc_closed_form() {
        let (lambda, mu) = (2.0, 1.0);
        let smp = two_state_ctmc(lambda, mu);
        let euler = Euler::standard();

        let stay = TransientSolver::new(&smp, 0, &[0]).unwrap();
        let move_ = TransientSolver::new(&smp, 0, &[1]).unwrap();
        for &t in &[0.1, 0.3, 0.7, 1.5, 3.0] {
            let p00 = euler.invert(&stay, t);
            let p01 = euler.invert(&move_, t);
            assert!(
                (p00 - ctmc_p00(lambda, mu, t)).abs() < 1e-5,
                "P00({t}) = {p00} vs {}",
                ctmc_p00(lambda, mu, t)
            );
            assert!(
                (p01 - ctmc_p01(lambda, mu, t)).abs() < 1e-5,
                "P01({t}) = {p01} vs {}",
                ctmc_p01(lambda, mu, t)
            );
        }
    }

    #[test]
    fn transient_probabilities_sum_to_one_over_all_states() {
        // Σ_j T_ij(t) = 1 for any t: check in the transform domain at a probe point
        // (Σ_j T*_ij(s) = 1/s) and in the time domain after inversion.
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::erlang(2.0, 2));
        b.add_transition(1, 2, 2.0, Dist::uniform(0.1, 0.9));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        b.add_transition(2, 0, 1.0, Dist::deterministic(0.4));
        let smp = b.build().unwrap();
        let s = Complex64::new(0.8, 1.3);
        let mut total = Complex64::ZERO;
        for j in 0..3 {
            let solver = TransientSolver::new(&smp, 0, &[j]).unwrap();
            total += solver.transform_at(s).unwrap();
        }
        assert!((total - Complex64::ONE / s).norm() < 1e-6, "sum = {total}");

        let euler = Euler::standard();
        let t = 1.7;
        let sum_t: f64 = (0..3)
            .map(|j| euler.invert(&TransientSolver::new(&smp, 0, &[j]).unwrap(), t))
            .sum();
        assert!((sum_t - 1.0).abs() < 1e-4, "sum at t={t}: {sum_t}");
    }

    #[test]
    fn set_target_equals_sum_of_singletons() {
        let mut b = SmpBuilder::new(4);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.5));
        b.add_transition(1, 2, 1.0, Dist::erlang(2.0, 2));
        b.add_transition(2, 3, 1.0, Dist::uniform(0.2, 1.2));
        b.add_transition(3, 0, 1.0, Dist::exponential(0.7));
        let smp = b.build().unwrap();
        let s = Complex64::new(0.5, -0.8);
        let set = TransientSolver::new(&smp, 0, &[1, 3]).unwrap();
        let single1 = TransientSolver::new(&smp, 0, &[1]).unwrap();
        let single3 = TransientSolver::new(&smp, 0, &[3]).unwrap();
        let lhs = set.transform_at(s).unwrap();
        let rhs = single1.transform_at(s).unwrap() + single3.transform_at(s).unwrap();
        assert!((lhs - rhs).norm() < 1e-7);
    }

    #[test]
    fn transient_approaches_smp_steady_state() {
        // As t → ∞ the transient probability of a target set approaches its SMP
        // steady-state probability (Fig. 7's asymptote).
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::uniform(0.5, 1.5));
        b.add_transition(1, 2, 1.0, Dist::erlang(4.0, 2));
        b.add_transition(2, 0, 1.0, Dist::exponential(2.0));
        let smp = b.build().unwrap();
        let steady = smp_steady_state(&smp).unwrap();
        let solver = TransientSolver::new(&smp, 0, &[1]).unwrap();
        let euler = Euler::standard();
        let late = euler.invert(&solver, 200.0);
        assert!(
            (late - steady[1]).abs() < 5e-3,
            "T(200) = {late} vs steady {}",
            steady[1]
        );
    }

    #[test]
    fn source_inside_target_set_counts_initial_sojourn() {
        // Starting inside the target set, T(t) must start at 1 for small t.
        let smp = two_state_ctmc(1.0, 1.0);
        let solver = TransientSolver::new(&smp, 0, &[0]).unwrap();
        let euler = Euler::standard();
        let early = euler.invert(&solver, 1e-3);
        assert!((early - 1.0).abs() < 1e-3, "T(0+) = {early}");
    }

    #[test]
    fn multiple_sources_are_weighted() {
        let smp = two_state_ctmc(1.0, 3.0);
        // Sources {0, 1}: embedded chain of the 2-cycle has π = (0.5, 0.5).
        let solver =
            TransientSolver::with_options(&smp, &[0, 1], &[0], IterationOptions::default())
                .unwrap();
        let s = Complex64::new(0.6, 0.4);
        let from0 = TransientSolver::new(&smp, 0, &[0])
            .unwrap()
            .transform_at(s)
            .unwrap();
        let from1 = TransientSolver::new(&smp, 1, &[0])
            .unwrap()
            .transform_at(s)
            .unwrap();
        let combined = solver.transform_at(s).unwrap();
        assert!((combined - (from0 + from1).scale(0.5)).norm() < 1e-8);
    }

    #[test]
    fn rejects_empty_sets() {
        let smp = two_state_ctmc(1.0, 1.0);
        assert!(matches!(
            TransientSolver::with_options(&smp, &[], &[0], IterationOptions::default()),
            Err(SmpError::EmptyStateSet { which: "source" })
        ));
        assert!(matches!(
            TransientSolver::with_options(&smp, &[0], &[], IterationOptions::default()),
            Err(SmpError::EmptyStateSet { which: "target" })
        ));
    }
}

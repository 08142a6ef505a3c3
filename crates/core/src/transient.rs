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
//! `|j|` is.  The solver is the passage's own:
//! [`PassageTimeSolver::transient`](crate::PassageTimeSolver::transient)
//! builds it over the occupancy skeleton, and every value it returns is the
//! converged sum divided by `s`.  No `1 − L_kk(s)` is ever formed: nothing is divided but the one
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

#[cfg(test)]
mod tests {
    use crate::error::SmpError;
    use crate::passage::{IterationOptions, PassageTimeSolver};
    use crate::smp::{SemiMarkovProcess, SmpBuilder};
    use crate::steady::smp_steady_state;
    use smp_distributions::{Dist, LaplaceTransform};
    use smp_laplace::Euler;
    use smp_numeric::Complex64;

    /// The transient solver from one source state with default options.
    fn transient<'a>(
        smp: &'a SemiMarkovProcess,
        source: usize,
        targets: &[usize],
    ) -> Result<PassageTimeSolver<'a>, SmpError> {
        PassageTimeSolver::transient(smp, &[source], targets, IterationOptions::default())
    }

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

        let stay = transient(&smp, 0, &[0]).unwrap();
        let move_ = transient(&smp, 0, &[1]).unwrap();
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
            let solver = transient(&smp, 0, &[j]).unwrap();
            total += solver.transform_at(s).unwrap().value;
        }
        assert!((total - Complex64::ONE / s).norm() < 1e-6, "sum = {total}");

        let euler = Euler::standard();
        let t = 1.7;
        let sum_t: f64 = (0..3)
            .map(|j| euler.invert(&transient(&smp, 0, &[j]).unwrap(), t))
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
        let set = transient(&smp, 0, &[1, 3]).unwrap();
        let single1 = transient(&smp, 0, &[1]).unwrap();
        let single3 = transient(&smp, 0, &[3]).unwrap();
        let lhs = set.transform_at(s).unwrap().value;
        let rhs = single1.transform_at(s).unwrap().value + single3.transform_at(s).unwrap().value;
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
        let solver = transient(&smp, 0, &[1]).unwrap();
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
        let solver = transient(&smp, 0, &[0]).unwrap();
        let euler = Euler::standard();
        let early = euler.invert(&solver, 1e-3);
        assert!((early - 1.0).abs() < 1e-3, "T(0+) = {early}");
    }

    #[test]
    fn multiple_sources_are_weighted() {
        let smp = two_state_ctmc(1.0, 3.0);
        // Sources {0, 1}: embedded chain of the 2-cycle has π = (0.5, 0.5).
        let solver =
            PassageTimeSolver::transient(&smp, &[0, 1], &[0], IterationOptions::default()).unwrap();
        let s = Complex64::new(0.6, 0.4);
        let from0 = transient(&smp, 0, &[0])
            .unwrap()
            .transform_at(s)
            .unwrap()
            .value;
        let from1 = transient(&smp, 1, &[0])
            .unwrap()
            .transform_at(s)
            .unwrap()
            .value;
        let combined = solver.transform_at(s).unwrap().value;
        assert!((combined - (from0 + from1).scale(0.5)).norm() < 1e-8);
    }

    /// An occupancy solver answers through every entry point of the solver:
    /// an explicit workspace gives `transform_at`'s value and iteration
    /// count, a chunk gives each point's bits, and the truncated series
    /// reaches the converged value (all of them divided by `s`).
    #[test]
    fn an_occupancy_solver_answers_through_every_entry_point() {
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::uniform(0.5, 1.5));
        b.add_transition(1, 2, 1.0, Dist::erlang(4.0, 2));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        b.add_transition(2, 0, 1.0, Dist::exponential(2.0));
        let smp = b.build().unwrap();
        let solver = transient(&smp, 0, &[1, 2]).unwrap();
        let points = [
            Complex64::new(0.8, 1.3),
            Complex64::new(1.5, -2.0),
            Complex64::new(0.4, 6.0),
        ];
        let mut ws = solver.checkout_workspace();
        let with: Vec<_> = points
            .iter()
            .map(|&s| solver.transform_at_with(&mut ws, s).unwrap())
            .collect();
        solver.give_back(ws);
        let many = solver.transform_many(&points);
        for ((&s, with), many) in points.iter().zip(with).zip(many) {
            let alone = solver.transform_at(s).unwrap();
            assert_eq!(with, alone, "transform_at_with at {s}");
            assert_eq!(many.unwrap(), alone, "transform_many at {s}");
            assert_eq!(solver.lst(s), alone.value, "lst at {s}");
            let truncated = solver.r_transition_transform(s, 4 * alone.iterations);
            assert!(
                (truncated - alone.value).norm() < 1e-7,
                "r-transition transform at {s}: {truncated} vs {}",
                alone.value
            );
        }
    }

    #[test]
    fn rejects_empty_sets() {
        let smp = two_state_ctmc(1.0, 1.0);
        assert!(matches!(
            PassageTimeSolver::transient(&smp, &[], &[0], IterationOptions::default()),
            Err(SmpError::EmptyStateSet { which: "source" })
        ));
        assert!(matches!(
            PassageTimeSolver::transient(&smp, &[0], &[], IterationOptions::default()),
            Err(SmpError::EmptyStateSet { which: "target" })
        ));
    }
}

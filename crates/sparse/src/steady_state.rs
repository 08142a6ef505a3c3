//! Stationary distributions of discrete-time Markov chains.
//!
//! The passage-time algorithm needs the steady-state vector `π` of the *embedded*
//! DTMC of the semi-Markov process in two places:
//!
//! * the α-weights of Eq. (5) — the probability of being in each source state at the
//!   starting instant of a passage when there are multiple source states;
//! * the SMP steady-state probabilities plotted as the horizontal asymptote of the
//!   transient distribution in Fig. 7 (π weighted by mean sojourn times).
//!
//! The solver is **Gauss–Seidel**: it solves `π(P - I) = 0` in place, converges in
//! few sweeps on stiff chains, and — because it uses the freshest values within a
//! sweep — also on periodic ones (the embedded chain of the voting model has strong
//! periodic structure because every transition moves tokens deterministically).

use crate::csr::CsrMatrix;

/// Options controlling the iterative steady-state solvers.
#[derive(Debug, Clone, Copy)]
pub struct SteadyStateOptions {
    /// Maximum number of iterations / sweeps before giving up.
    pub max_iterations: usize,
    /// Convergence tolerance on the L1 change between successive iterates.
    pub tolerance: f64,
}

impl Default for SteadyStateOptions {
    fn default() -> Self {
        SteadyStateOptions {
            max_iterations: 20_000,
            tolerance: 1e-12,
        }
    }
}

/// Result of a steady-state computation.
#[derive(Debug, Clone)]
pub struct SteadyStateResult {
    /// The stationary probability vector (sums to 1).
    pub pi: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// L1 change of the final iteration.
    pub residual: f64,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
}

fn normalise(v: &mut [f64]) {
    let total: f64 = v.iter().sum();
    if total > 0.0 {
        for x in v.iter_mut() {
            *x /= total;
        }
    }
}

fn l1_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Gauss–Seidel iteration for `π P = π`.
///
/// Works on the transposed system `Pᵀ πᵀ = πᵀ`: for each state `j`,
/// `π_j ← (Σ_{i≠j} π_i P_ij) / (1 − P_jj)`, sweeping states in order and using the
/// freshest available values.  The vector is re-normalised after every sweep.
pub fn gauss_seidel_steady_state(
    p: &CsrMatrix<f64>,
    options: &SteadyStateOptions,
) -> SteadyStateResult {
    assert_eq!(p.rows(), p.cols(), "transition matrix must be square");
    let n = p.rows();
    if n == 0 {
        return SteadyStateResult {
            pi: vec![],
            iterations: 0,
            residual: 0.0,
            converged: true,
        };
    }
    // Column access pattern: build Pᵀ once.
    let pt = p.transpose();
    let mut pi = vec![1.0 / n as f64; n];
    let mut prev = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for iter in 1..=options.max_iterations {
        prev.copy_from_slice(&pi);
        for j in 0..n {
            let mut acc = 0.0;
            let mut diag = 0.0;
            for (i, v) in pt.row(j) {
                if i == j {
                    diag = v;
                } else {
                    acc += pi[i] * v;
                }
            }
            let denom = 1.0 - diag;
            // A state with a self-loop probability of 1 is absorbing; its stationary
            // probability is determined by normalisation, so leave it untouched.
            if denom > 1e-14 {
                pi[j] = acc / denom;
            }
        }
        normalise(&mut pi);
        residual = l1_diff(&prev, &pi);
        if residual < options.tolerance {
            return SteadyStateResult {
                pi,
                iterations: iter,
                residual,
                converged: true,
            };
        }
    }
    SteadyStateResult {
        pi,
        iterations: options.max_iterations,
        residual,
        converged: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;
    use proptest::prelude::*;

    /// A CSR matrix from its dense rows (zeros not stored).
    fn dense(rows: &[&[f64]]) -> CsrMatrix<f64> {
        let mut t = TripletMatrix::new(rows.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    t.push(i, j, v);
                }
            }
        }
        t.to_csr()
    }

    fn two_state_chain(a: f64, b: f64) -> CsrMatrix<f64> {
        // P = [[1-a, a], [b, 1-b]]  =>  pi = (b, a) / (a + b)
        dense(&[&[1.0 - a, a], &[b, 1.0 - b]])
    }

    #[test]
    fn two_state_analytic_solution() {
        let p = two_state_chain(0.3, 0.1);
        let expect = [0.25, 0.75];
        let result = gauss_seidel_steady_state(&p, &SteadyStateOptions::default());
        assert!(result.converged);
        for (x, e) in result.pi.iter().zip(expect) {
            assert!((x - e).abs() < 1e-9, "got {:?}", result.pi);
        }
    }

    #[test]
    fn periodic_chain_converges_with_damping() {
        // Pure 2-cycle: undamped power iteration would oscillate forever;
        // Gauss–Seidel's in-sweep updates settle it.
        let p = dense(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let gs = gauss_seidel_steady_state(&p, &SteadyStateOptions::default());
        assert!(gs.converged);
        assert!((gs.pi[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn three_state_ring_uniform() {
        let p = dense(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0]]);
        let result = gauss_seidel_steady_state(&p, &SteadyStateOptions::default());
        for x in &result.pi {
            assert!((x - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn birth_death_chain_matches_detailed_balance() {
        // Random walk on 0..5 with up-probability 0.4, down 0.6 (reflecting ends).
        let n = 6;
        let up = 0.4;
        let down = 0.6;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            if i == 0 {
                t.push(0, 1, up);
                t.push(0, 0, 1.0 - up);
            } else if i == n - 1 {
                t.push(i, i - 1, down);
                t.push(i, i, 1.0 - down);
            } else {
                t.push(i, i + 1, up);
                t.push(i, i - 1, down);
            }
        }
        let p = t.to_csr();
        // Detailed balance: pi_{i+1} / pi_i = up / down.
        let result = gauss_seidel_steady_state(&p, &SteadyStateOptions::default());
        assert!(result.converged);
        let rho = up / down;
        for i in 0..n - 1 {
            let ratio = result.pi[i + 1] / result.pi[i];
            assert!((ratio - rho).abs() < 1e-7, "ratio {ratio}");
        }
        let total: f64 = result.pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorbing_state_chain_handled() {
        // State 1 is absorbing; stationary mass should concentrate there.
        let p = dense(&[&[0.5, 0.5], &[0.0, 1.0]]);
        let result = gauss_seidel_steady_state(&p, &SteadyStateOptions::default());
        assert!(result.pi[1] > 0.999);
    }

    #[test]
    fn empty_chain() {
        let p = dense(&[]);
        let r = gauss_seidel_steady_state(&p, &SteadyStateOptions::default());
        assert!(r.converged);
        assert!(r.pi.is_empty());
    }

    proptest! {
        /// For random *irreducible* stochastic matrices (the paper's SMPs are finite
        /// and irreducible) both solvers produce a probability vector satisfying
        /// ||πP − π||₁ ≈ 0.
        #[test]
        fn prop_fixed_point_property(seed in 0u64..500) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..12);
            let mut t = TripletMatrix::new(n, n);
            for i in 0..n {
                let k = rng.gen_range(1..=n);
                let mut weights = vec![0.0; n];
                for _ in 0..k {
                    weights[rng.gen_range(0..n)] += rng.gen_range(0.05..1.0);
                }
                // Guarantee irreducibility with a ring edge i -> (i+1) mod n.
                weights[(i + 1) % n] += 0.2;
                let total: f64 = weights.iter().sum();
                for (j, w) in weights.iter().enumerate() {
                    if *w > 0.0 {
                        t.push(i, j, w / total);
                    }
                }
            }
            let p = t.to_csr();
            let result = gauss_seidel_steady_state(&p, &SteadyStateOptions::default());
            let repi = p.vec_mul(&result.pi);
            let defect: f64 = repi.iter().zip(&result.pi).map(|(a, b)| (a - b).abs()).sum();
            prop_assert!(defect < 1e-6, "defect {defect}");
            let total: f64 = result.pi.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(result.pi.iter().all(|&x| x >= -1e-12));
        }
    }
}

//! The embedded DTMC and the multiple-source α-weights of Eq. (5).
//!
//! When a passage has several source states `i`, the paper weights each source
//! state's passage-time transform by the probability `α_k` of the SMP being in state
//! `k ∈ i` *at the starting instant of the passage*, computed from the stationary
//! vector `π` of the embedded discrete-time Markov chain:
//!
//! ```text
//!   α_k = π_k / Σ_{j ∈ i} π_j     for k ∈ i,   0 otherwise.
//! ```

use crate::error::SmpError;
use crate::smp::{SemiMarkovProcess, StateSet};
use smp_sparse::steady_state::{gauss_seidel_steady_state, SteadyStateOptions};

/// The stationary vector of the embedded DTMC, cached so that repeated passage /
/// transient queries against the same process do not re-solve it.
#[derive(Debug, Clone)]
pub struct EmbeddedChain {
    pi: Vec<f64>,
    iterations: usize,
}

impl EmbeddedChain {
    /// Solves `π P = π` for the embedded chain of the process.
    ///
    /// Memoized per process: the first call over a given
    /// [`SemiMarkovProcess`] runs the solver, later calls (from any solver or
    /// clone of the process) reuse the shared result — see
    /// [`SemiMarkovProcess::embedded_chain`], which returns the cached value
    /// without cloning the stationary vector.
    pub fn solve(smp: &SemiMarkovProcess) -> Result<Self, SmpError> {
        Ok((*smp.embedded_chain()?).clone())
    }

    /// Solves `π P = π` without consulting or filling the per-process cache.
    pub(crate) fn solve_uncached(smp: &SemiMarkovProcess) -> Result<Self, SmpError> {
        Self::solve_with(smp, &SteadyStateOptions::default())
    }

    /// Solves the stationary vector with explicit solver options.
    pub(crate) fn solve_with(
        smp: &SemiMarkovProcess,
        options: &SteadyStateOptions,
    ) -> Result<Self, SmpError> {
        let p = smp.embedded_dtmc();
        let result = gauss_seidel_steady_state(&p, options);
        if !result.converged {
            return Err(SmpError::SteadyStateFailure {
                residual: result.residual,
            });
        }
        Ok(EmbeddedChain {
            pi: result.pi,
            iterations: result.iterations,
        })
    }

    /// The stationary probability vector of the embedded DTMC.
    pub fn pi(&self) -> &[f64] {
        &self.pi
    }

    /// Number of solver iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The α-weights of Eq. (5) for a set of source states: the conditional
    /// stationary probability of each source state given that the process is in the
    /// source set, expressed as a full-length vector (zero outside the set).
    pub fn alpha_weights(&self, sources: &StateSet) -> Result<Vec<f64>, SmpError> {
        if sources.is_empty() {
            return Err(SmpError::EmptyStateSet { which: "source" });
        }
        let total: f64 = sources.indices().iter().map(|&k| self.pi[k]).sum();
        let mut alpha = vec![0.0; self.pi.len()];
        if total <= 0.0 {
            // The source states have zero stationary probability (e.g. transient
            // states of a reducible chain).  Fall back to a uniform distribution over
            // the source set so that the passage is still well defined — this matches
            // the behaviour of conditioning on an arbitrary start within the set.
            let w = 1.0 / sources.len() as f64;
            for &k in sources.indices() {
                alpha[k] = w;
            }
            return Ok(alpha);
        }
        for &k in sources.indices() {
            alpha[k] = self.pi[k] / total;
        }
        Ok(alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::SmpBuilder;
    use smp_distributions::Dist;

    fn ring_smp(n: usize) -> SemiMarkovProcess {
        let mut b = SmpBuilder::new(n);
        for i in 0..n {
            b.add_transition(i, (i + 1) % n, 1.0, Dist::exponential(1.0 + i as f64));
        }
        b.build().unwrap()
    }

    #[test]
    fn ring_has_uniform_embedded_stationary_vector() {
        // The embedded chain of a ring visits every state equally often regardless of
        // the sojourn times.
        let smp = ring_smp(5);
        let chain = EmbeddedChain::solve(&smp).unwrap();
        for &p in chain.pi() {
            assert!((p - 0.2).abs() < 1e-9);
        }
        assert!(chain.iterations() > 0);
    }

    #[test]
    fn alpha_weights_normalise_over_source_set() {
        let smp = ring_smp(4);
        let chain = EmbeddedChain::solve(&smp).unwrap();
        let sources = StateSet::new(4, &[0, 2]).unwrap();
        let alpha = chain.alpha_weights(&sources).unwrap();
        assert!((alpha[0] - 0.5).abs() < 1e-9);
        assert!((alpha[2] - 0.5).abs() < 1e-9);
        assert_eq!(alpha[1], 0.0);
        assert_eq!(alpha[3], 0.0);
        let total: f64 = alpha.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_weights_follow_stationary_ratios() {
        // Two-state chain with asymmetric probabilities.
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 3.0, Dist::exponential(1.0));
        b.add_transition(0, 2, 1.0, Dist::exponential(1.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        b.add_transition(2, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let chain = EmbeddedChain::solve(&smp).unwrap();
        // π = (0.5, 0.375, 0.125): state 0 every other step, 1 and 2 split 3:1.
        let sources = StateSet::new(3, &[1, 2]).unwrap();
        let alpha = chain.alpha_weights(&sources).unwrap();
        assert!((alpha[1] - 0.75).abs() < 1e-6, "alpha = {alpha:?}");
        assert!((alpha[2] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn empty_source_set_rejected() {
        let smp = ring_smp(3);
        let chain = EmbeddedChain::solve(&smp).unwrap();
        let empty = StateSet::new(3, &[]).unwrap();
        assert!(matches!(
            chain.alpha_weights(&empty),
            Err(SmpError::EmptyStateSet { .. })
        ));
    }

    #[test]
    fn zero_probability_sources_fall_back_to_uniform() {
        // States 2 is transient (never returned to once left), so π_2 = 0.
        let mut b = SmpBuilder::new(3);
        b.add_transition(2, 0, 1.0, Dist::exponential(1.0));
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let chain = EmbeddedChain::solve(&smp).unwrap();
        let sources = StateSet::new(3, &[2]).unwrap();
        let alpha = chain.alpha_weights(&sources).unwrap();
        assert!((alpha[2] - 1.0).abs() < 1e-12);
    }
}

//! Steady-state probabilities of a semi-Markov process.
//!
//! The SMP spends, in the long run, a fraction of time in state `j` proportional to
//! `π_j · m_j`, where `π` is the stationary vector of the embedded DTMC and `m_j` the
//! mean sojourn time in `j`.  Fig. 7 of the paper plots exactly this value as the
//! horizontal asymptote that the transient distribution approaches as `t → ∞`.

use crate::embedded::EmbeddedChain;
use crate::error::SmpError;
use crate::smp::{SemiMarkovProcess, StateSet};

/// Long-run (time-average) state probabilities of the SMP.
pub(crate) fn smp_steady_state(smp: &SemiMarkovProcess) -> Result<Vec<f64>, SmpError> {
    let chain = EmbeddedChain::solve(smp)?;
    Ok(weight_by_sojourn(smp, chain.pi()))
}

/// Long-run probability of being in any state of `targets`: the asymptote a
/// transient of `targets` approaches as `t → ∞`.
pub fn steady_state_probability(
    smp: &SemiMarkovProcess,
    targets: &StateSet,
) -> Result<f64, SmpError> {
    let probs = smp_steady_state(smp)?;
    Ok(targets.indices().iter().map(|&j| probs[j]).sum())
}

/// Converts an embedded-DTMC stationary vector into SMP time-average probabilities
/// by weighting with mean sojourn times and renormalising.
pub(crate) fn weight_by_sojourn(smp: &SemiMarkovProcess, pi: &[f64]) -> Vec<f64> {
    assert_eq!(pi.len(), smp.num_states());
    let weighted: Vec<f64> = pi
        .iter()
        .enumerate()
        .map(|(j, &p)| p * smp.mean_sojourn(j))
        .collect();
    let total: f64 = weighted.iter().sum();
    if total <= 0.0 {
        return vec![0.0; pi.len()];
    }
    weighted.into_iter().map(|w| w / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::SmpBuilder;
    use smp_distributions::Dist;

    #[test]
    fn two_state_alternating_process() {
        // Alternating renewal process: sojourn in 0 has mean 2, in 1 has mean 1;
        // time-average probabilities are 2/3 and 1/3 regardless of the shapes.
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::uniform(1.0, 3.0)); // mean 2
        b.add_transition(1, 0, 1.0, Dist::erlang(2.0, 2)); // mean 1
        let smp = b.build().unwrap();
        let p = smp_steady_state(&smp).unwrap();
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn markov_chain_special_case() {
        // With exponential sojourns the SMP is a CTMC; check against the CTMC's
        // balance equations for a 2-state chain with rates λ = 3 (0→1), μ = 1 (1→0):
        // p_0 = μ/(λ+μ) = 0.25.
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::exponential(3.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let p = smp_steady_state(&smp).unwrap();
        assert!((p[0] - 0.25).abs() < 1e-9);
        assert!((p[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn set_probability_sums_members() {
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::deterministic(1.0));
        b.add_transition(1, 2, 1.0, Dist::deterministic(2.0));
        b.add_transition(2, 0, 1.0, Dist::deterministic(3.0));
        let smp = b.build().unwrap();
        let p = smp_steady_state(&smp).unwrap();
        // Deterministic cycle: probabilities proportional to the sojourn durations.
        assert!((p[0] - 1.0 / 6.0).abs() < 1e-9);
        assert!((p[2] - 0.5).abs() < 1e-9);
        let set = StateSet::new(3, &[1, 2]).unwrap();
        let prob = steady_state_probability(&smp, &set).unwrap();
        assert!((prob - 5.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut b = SmpBuilder::new(4);
        b.add_transition(0, 1, 2.0, Dist::exponential(1.0));
        b.add_transition(0, 2, 1.0, Dist::uniform(0.0, 4.0));
        b.add_transition(1, 3, 1.0, Dist::erlang(3.0, 2));
        b.add_transition(2, 3, 1.0, Dist::deterministic(0.5));
        b.add_transition(3, 0, 1.0, Dist::exponential(2.0));
        let smp = b.build().unwrap();
        let p = smp_steady_state(&smp).unwrap();
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x >= 0.0));
    }
}

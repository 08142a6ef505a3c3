//! Simulation driven directly off a generated semi-Markov process.
//!
//! Simulating the SM-SPN and simulating the SMP produced by its reachability
//! analysis must give statistically identical answers; running both is a strong
//! end-to-end check on the state-space generator and is also useful when a model is
//! specified directly at the state level.

use rand::Rng;
use smp_core::{SemiMarkovProcess, StateSet};
use smp_distributions::EmpiricalDistribution;

/// Simulates one passage from `source` into `targets`, returning the elapsed time.
///
/// Returns `None` if the passage has not completed within `max_steps` transitions.
pub(crate) fn sample_passage<R: Rng + ?Sized>(
    smp: &SemiMarkovProcess,
    source: usize,
    targets: &StateSet,
    max_steps: u64,
    rng: &mut R,
) -> Option<f64> {
    let mut state = source;
    let mut clock = 0.0;
    for _ in 0..max_steps {
        let (next, delay) = smp.sample_step(state, rng);
        clock += delay;
        state = next;
        if targets.contains(state) {
            return Some(clock);
        }
    }
    None
}

/// Estimates the passage-time distribution from `source` into `targets` with
/// `replications` independent passages.
pub fn simulate_smp_passage_times<R: Rng + ?Sized>(
    smp: &SemiMarkovProcess,
    source: usize,
    targets: &StateSet,
    replications: usize,
    max_steps: u64,
    rng: &mut R,
) -> EmpiricalDistribution {
    let mut samples = Vec::with_capacity(replications);
    for _ in 0..replications {
        if let Some(t) = sample_passage(smp, source, targets, max_steps, rng) {
            samples.push(t);
        }
    }
    EmpiricalDistribution::from_samples(samples)
}

/// Estimates `P(Z(t) ∈ targets | Z(0) = source)` on a time grid.
pub fn simulate_smp_transient<R: Rng + ?Sized>(
    smp: &SemiMarkovProcess,
    source: usize,
    targets: &StateSet,
    t_points: &[f64],
    replications: usize,
    rng: &mut R,
) -> Vec<f64> {
    assert!(t_points.windows(2).all(|w| w[0] < w[1]));
    let horizon = *t_points.last().expect("non-empty grid");
    let mut hits = vec![0u64; t_points.len()];
    for _ in 0..replications {
        let mut state = source;
        let mut clock = 0.0;
        let mut grid_index = 0usize;
        while grid_index < t_points.len() && clock <= horizon {
            let (next, delay) = smp.sample_step(state, rng);
            let new_clock = clock + delay;
            while grid_index < t_points.len() && new_clock > t_points[grid_index] {
                if targets.contains(state) {
                    hits[grid_index] += 1;
                }
                grid_index += 1;
            }
            state = next;
            clock = new_clock;
        }
    }
    hits.into_iter()
        .map(|h| h as f64 / replications as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smp_core::SmpBuilder;
    use smp_distributions::Dist;

    fn chain() -> SemiMarkovProcess {
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::exponential(2.0));
        b.add_transition(1, 2, 1.0, Dist::exponential(2.0));
        b.add_transition(2, 0, 1.0, Dist::exponential(1.0));
        b.build().unwrap()
    }

    #[test]
    fn smp_passage_matches_erlang() {
        let smp = chain();
        let targets = StateSet::new(3, &[2]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let d = simulate_smp_passage_times(&smp, 0, &targets, 30_000, 1_000, &mut rng);
        assert_eq!(d.len(), 30_000);
        assert!((d.mean() - 1.0).abs() < 4.0 * d.ci95_half_width());
        let analytic = Dist::erlang(2.0, 2).cdf(1.0).unwrap();
        assert!((d.cdf(1.0) - analytic).abs() < 0.02);
    }

    #[test]
    fn unreachable_passage_returns_empty() {
        // Two disjoint cycles.
        let mut b = SmpBuilder::new(4);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        b.add_transition(2, 3, 1.0, Dist::exponential(1.0));
        b.add_transition(3, 2, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let targets = StateSet::new(4, &[2]).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        assert!(sample_passage(&smp, 0, &targets, 500, &mut rng).is_none());
        let d = simulate_smp_passage_times(&smp, 0, &targets, 20, 200, &mut rng);
        assert!(d.is_empty());
    }

    #[test]
    fn smp_transient_matches_analytic_ctmc() {
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::exponential(2.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let targets = StateSet::new(2, &[0]).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let ts = vec![0.3, 0.8, 2.0];
        let probs = simulate_smp_transient(&smp, 0, &targets, &ts, 40_000, &mut rng);
        for (&t, &p) in ts.iter().zip(&probs) {
            let expect = 1.0 / 3.0 + 2.0 / 3.0 * (-3.0f64 * t).exp();
            assert!((p - expect).abs() < 0.02, "P({t}) = {p} vs {expect}");
        }
    }
}

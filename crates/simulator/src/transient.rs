//! Transient state-probability estimation by independent replications.
//!
//! Like [`crate::passage`], replication `i` draws from its own RNG stream
//! derived from `(seed, i)`, so for a fixed seed the estimates are
//! bitwise-identical across runs and thread counts.

use crate::engine::SimulationEngine;
use crate::passage::{fan_out, replication_seed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smp_smspn::reachability::ReachabilityError;
use smp_smspn::{Marking, SmSpn};

/// Options for transient simulation.
#[derive(Debug, Clone, Copy)]
pub struct TransientSimulationOptions {
    /// Number of independent replications.
    pub replications: usize,
    /// Per-replication cap on the number of firings.
    pub max_steps: u64,
    /// Base RNG seed for the per-replication streams.
    pub seed: u64,
    /// Number of worker threads (1 = run in the calling thread).  The thread
    /// count never changes the estimates.
    pub threads: usize,
}

impl Default for TransientSimulationOptions {
    fn default() -> Self {
        TransientSimulationOptions {
            replications: 10_000,
            max_steps: 10_000_000,
            seed: 0xd1ce,
            threads: 1,
        }
    }
}

/// Estimates `P(Z(t) ∈ target)` at each time of `t_points` by simulating
/// `replications` independent trajectories from the net's initial marking and
/// recording, for each grid time, whether the trajectory's marking satisfied the
/// target predicate at that instant.
///
/// `t_points` must be sorted in increasing order.  A firing whose pieces cannot
/// be evaluated fails the simulation as in
/// [`crate::passage::simulate_passage_times`].
pub fn simulate_transient(
    net: &SmSpn,
    target: impl Fn(&Marking) -> bool + Send + Sync,
    t_points: &[f64],
    options: &TransientSimulationOptions,
) -> Result<Vec<f64>, ReachabilityError> {
    assert!(!t_points.is_empty(), "at least one t-point is required");
    assert!(
        t_points.windows(2).all(|w| w[0] < w[1]),
        "t-points must be strictly increasing"
    );
    // Integer hit counts: summation order cannot change the result.
    let mut hits = vec![0u64; t_points.len()];
    let runs = fan_out(options.replications, options.threads, |range| {
        run_transient_replications(net, &target, t_points, range, options)
    });
    for run in runs {
        for (slot, h) in hits.iter_mut().zip(run?) {
            *slot += h;
        }
    }
    Ok(hits
        .into_iter()
        .map(|h| h as f64 / options.replications as f64)
        .collect())
}

/// Runs the replications of one index range, returning per-grid-point hit
/// counts.
fn run_transient_replications(
    net: &SmSpn,
    target: &(impl Fn(&Marking) -> bool + ?Sized),
    t_points: &[f64],
    range: std::ops::Range<usize>,
    options: &TransientSimulationOptions,
) -> Result<Vec<u64>, ReachabilityError> {
    let horizon = *t_points.last().expect("non-empty");
    let mut hits = vec![0u64; t_points.len()];
    for index in range {
        let mut rng = StdRng::seed_from_u64(replication_seed(options.seed, index as u64));
        let mut engine = SimulationEngine::new(net);
        let mut grid_index = 0usize;
        let mut previous_marking = engine.marking().clone();
        // Walk the trajectory; whenever the clock passes grid points, the state that
        // was occupied across each of them is the marking *before* the jump.
        while grid_index < t_points.len()
            && engine.clock() <= horizon
            && engine.steps() < options.max_steps
        {
            previous_marking = engine.marking().clone();
            if engine.step(&mut rng)?.is_none() {
                break;
            }
            while grid_index < t_points.len() && engine.clock() > t_points[grid_index] {
                if target(&previous_marking) {
                    hits[grid_index] += 1;
                }
                grid_index += 1;
            }
        }
        // If the trajectory ended (deadlock or step cap) before the horizon, the
        // last marking persists for all remaining grid points.
        while grid_index < t_points.len() {
            if target(&previous_marking) {
                hits[grid_index] += 1;
            }
            grid_index += 1;
        }
    }
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_distributions::Dist;
    use smp_numeric::stats::linspace;
    use smp_smspn::TransitionSpec;

    /// Two-state CTMC as an SM-SPN: rates λ = 2 (a→b), μ = 1 (b→a).
    fn two_state_net() -> SmSpn {
        let mut net = SmSpn::with_places(&[("a", 1), ("b", 0)]);
        net.add_transition(
            TransitionSpec::new("ab")
                .consumes(0, 1)
                .produces(1, 1)
                .distribution(Dist::exponential(2.0)),
        );
        net.add_transition(
            TransitionSpec::new("ba")
                .consumes(1, 1)
                .produces(0, 1)
                .distribution(Dist::exponential(1.0)),
        );
        net
    }

    #[test]
    fn matches_ctmc_closed_form() {
        let net = two_state_net();
        let ts = vec![0.25, 0.5, 1.0, 2.0, 4.0];
        let probs = simulate_transient(
            &net,
            |m| m.get(0) == 1,
            &ts,
            &TransientSimulationOptions {
                replications: 40_000,
                ..Default::default()
            },
        )
        .unwrap();
        for (&t, &p) in ts.iter().zip(&probs) {
            let expect = 1.0 / 3.0 + 2.0 / 3.0 * (-3.0f64 * t).exp();
            assert!((p - expect).abs() < 0.02, "P(a at {t}) = {p} vs {expect}");
        }
    }

    #[test]
    fn probabilities_start_at_one_for_initial_state() {
        let net = two_state_net();
        let probs = simulate_transient(
            &net,
            |m| m.get(0) == 1,
            &[1e-6],
            &TransientSimulationOptions {
                replications: 2_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(probs[0] > 0.99);
    }

    #[test]
    fn complementary_targets_sum_to_one() {
        let net = two_state_net();
        let ts = linspace(0.2, 3.0, 8);
        let opts = TransientSimulationOptions {
            replications: 5_000,
            ..Default::default()
        };
        let in_a = simulate_transient(&net, |m| m.get(0) == 1, &ts, &opts).unwrap();
        let in_b = simulate_transient(&net, |m| m.get(1) == 1, &ts, &opts).unwrap();
        for (pa, pb) in in_a.iter().zip(&in_b) {
            // Per-replication seeding means both runs walk the *same* trajectories,
            // so complementary targets partition every hit exactly (up to the
            // two divisions' rounding).
            assert!((pa + pb - 1.0).abs() < 1e-12, "{pa} + {pb}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_estimate() {
        let net = two_state_net();
        let ts = linspace(0.2, 3.0, 6);
        let single = simulate_transient(
            &net,
            |m| m.get(0) == 1,
            &ts,
            &TransientSimulationOptions {
                replications: 4_000,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let multi = simulate_transient(
            &net,
            |m| m.get(0) == 1,
            &ts,
            &TransientSimulationOptions {
                replications: 4_000,
                threads: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(single, multi);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_grid_rejected() {
        let net = two_state_net();
        simulate_transient(
            &net,
            |_| true,
            &[1.0, 0.5],
            &TransientSimulationOptions::default(),
        )
        .unwrap();
    }
}

//! Passage-time estimation by independent replications.
//!
//! Replication `i` draws from its own RNG stream derived from `(seed, i)`
//! (see [`replication_seed`]), so for a fixed seed the estimates are
//! **bitwise-identical across runs and across thread counts** — the worker
//! split only decides who executes a replication, never which random numbers
//! it sees.

use crate::engine::SimulationEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smp_distributions::EmpiricalDistribution;
use smp_smspn::reachability::ReachabilityError;
use smp_smspn::{Marking, SmSpn};
use std::ops::Range;

/// The RNG seed of replication `index` under a base `seed`: a SplitMix64-style
/// mix, so per-replication streams are decorrelated and, crucially,
/// independent of how replications are partitioned across threads.
pub fn replication_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Options for passage-time simulation.
#[derive(Debug, Clone, Copy)]
pub struct PassageSimulationOptions {
    /// Number of independent replications.
    pub replications: usize,
    /// Per-replication time horizon; replications that have not reached the target
    /// by then are counted as censored and dropped (with a warning in the result).
    pub max_time: f64,
    /// Per-replication cap on the number of firings.
    pub max_steps: u64,
    /// Number of worker threads (1 = run in the calling thread).  The thread
    /// count never changes the estimates: replication `i` always draws from
    /// the stream seeded by [`replication_seed`]`(seed, i)`.
    pub threads: usize,
    /// Base RNG seed for the per-replication streams.
    pub seed: u64,
}

impl Default for PassageSimulationOptions {
    fn default() -> Self {
        PassageSimulationOptions {
            replications: 10_000,
            max_time: 1e9,
            max_steps: 10_000_000,
            threads: 1,
            seed: 0x5eed,
        }
    }
}

/// The result of a passage-time simulation.
#[derive(Debug)]
pub struct PassageSimulationResult {
    /// Empirical distribution of the observed passage times.
    pub distribution: EmpiricalDistribution,
    /// Number of replications that hit the cut-offs before reaching the target.
    pub censored: usize,
}

/// Estimates the distribution of the time to reach a target marking set from the
/// net's initial marking.
///
/// `target` is an arbitrary marking predicate (e.g. "all voters have voted" or "all
/// polling units have failed").  A firing whose pieces cannot be evaluated
/// fails the simulation with the error of the lowest-numbered replication that
/// met one, whatever the thread count.
pub fn simulate_passage_times(
    net: &SmSpn,
    target: impl Fn(&Marking) -> bool + Send + Sync,
    options: &PassageSimulationOptions,
) -> Result<PassageSimulationResult, ReachabilityError> {
    let runs = fan_out(options.replications, options.threads, |range| {
        run_replications(net, &target, range, options)
    });
    let mut samples = Vec::with_capacity(options.replications);
    let mut censored = 0;
    for run in runs {
        let (s, c) = run?;
        samples.extend(s);
        censored += c;
    }
    Ok(PassageSimulationResult {
        distribution: EmpiricalDistribution::from_samples(samples),
        censored,
    })
}

/// Runs `replications` as contiguous index ranges, one per thread (in the
/// calling thread when there is one), and returns each range's result in
/// range order: folded in order, they are the single-thread result.
pub(crate) fn fan_out<T: Send>(
    replications: usize,
    threads: usize,
    run: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    if threads <= 1 {
        return vec![run(0..replications)];
    }
    let per_thread = replications.div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (0..replications)
            .step_by(per_thread)
            .map(|start| scope.spawn(move || run(start..(start + per_thread).min(replications))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulation worker panicked"))
            .collect()
    })
}

fn run_replications(
    net: &SmSpn,
    target: &(impl Fn(&Marking) -> bool + ?Sized),
    range: Range<usize>,
    options: &PassageSimulationOptions,
) -> Result<(Vec<f64>, usize), ReachabilityError> {
    let mut samples = Vec::with_capacity(range.len());
    let mut censored = 0usize;
    for index in range {
        let mut rng = StdRng::seed_from_u64(replication_seed(options.seed, index as u64));
        let mut engine = SimulationEngine::new(net);
        match engine.run_until(&mut rng, |m| target(m), options.max_time, options.max_steps)? {
            Some(t) => samples.push(t),
            None => censored += 1,
        }
    }
    Ok((samples, censored))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_distributions::Dist;
    use smp_smspn::TransitionSpec;

    fn erlang_chain(stages: usize, rate: f64) -> SmSpn {
        // A token moves through `stages` places, each with an Exp(rate) delay; the
        // passage to the last place is Erlang(rate, stages).
        let mut places: Vec<(String, u32)> = (0..=stages).map(|i| (format!("s{i}"), 0)).collect();
        places[0].1 = 1;
        let mut net = SmSpn::new(places);
        for i in 0..stages {
            net.add_transition(
                TransitionSpec::new(format!("t{i}"))
                    .consumes(i, 1)
                    .produces(i + 1, 1)
                    .distribution(Dist::exponential(rate)),
            );
        }
        // Return transition keeps the model deadlock-free.
        net.add_transition(
            TransitionSpec::new("reset")
                .consumes(stages, 1)
                .produces(0, 1)
                .distribution(Dist::exponential(1.0)),
        );
        net
    }

    #[test]
    fn erlang_passage_mean_and_cdf() {
        let net = erlang_chain(3, 2.0);
        let options = PassageSimulationOptions {
            replications: 30_000,
            threads: 1,
            ..Default::default()
        };
        let result = simulate_passage_times(&net, |m| m.get(3) == 1, &options).unwrap();
        assert_eq!(result.censored, 0);
        let d = &result.distribution;
        assert_eq!(d.len(), 30_000);
        // Erlang(2, 3): mean 1.5, CDF known in closed form.
        assert!((d.mean() - 1.5).abs() < 4.0 * d.ci95_half_width());
        let analytic_cdf = Dist::erlang(2.0, 3).cdf(1.5).unwrap();
        assert!((d.cdf(1.5) - analytic_cdf).abs() < 0.02);
    }

    #[test]
    fn multithreaded_is_bitwise_identical_to_single_thread() {
        // Per-replication seeding makes the thread count an execution detail:
        // the multi-threaded run is *the same* estimate, not merely a
        // statistically compatible one.
        let net = erlang_chain(2, 1.0);
        let single = simulate_passage_times(
            &net,
            |m| m.get(2) == 1,
            &PassageSimulationOptions {
                replications: 20_000,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let multi = simulate_passage_times(
            &net,
            |m| m.get(2) == 1,
            &PassageSimulationOptions {
                replications: 20_000,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(multi.distribution.len(), 20_000);
        assert_eq!(single.distribution.samples(), multi.distribution.samples());
        assert_eq!(single.censored, multi.censored);
    }

    #[test]
    fn censoring_counts_unreached_targets() {
        let net = erlang_chain(2, 1.0);
        let result = simulate_passage_times(
            &net,
            |m| m.get(2) == 5, // impossible: only one token
            &PassageSimulationOptions {
                replications: 50,
                max_steps: 100,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.censored, 50);
        assert!(result.distribution.is_empty());
    }

    #[test]
    fn immediate_target_gives_zero_passage() {
        let net = erlang_chain(2, 1.0);
        let result = simulate_passage_times(
            &net,
            |m| m.get(0) == 1, // already true in the initial marking
            &PassageSimulationOptions {
                replications: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.distribution.len(), 10);
        assert_eq!(result.distribution.max(), 0.0);
    }
}

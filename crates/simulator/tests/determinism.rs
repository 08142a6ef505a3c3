//! Seed-determinism regression tests: the simulator is the reference the
//! analytic engines are validated against, so its estimates must be exactly
//! reproducible — same seed ⇒ bitwise-identical passage and transient
//! estimates across runs *and across thread counts*.

use smp_distributions::Dist;
use smp_numeric::stats::linspace;
use smp_simulator::passage::replication_seed;
use smp_simulator::{
    simulate_passage_times, simulate_transient, PassageSimulationOptions,
    TransientSimulationOptions,
};
use smp_smspn::{SmSpn, TransitionSpec};

/// A small open-ended net: a token walks a 3-stage chain with mixed
/// distributions and resets, so trajectories have real branching and
/// non-exponential holding times.
fn mixed_chain() -> SmSpn {
    let mut net = SmSpn::with_places(&[("s0", 1), ("s1", 0), ("s2", 0), ("s3", 0)]);
    net.add_transition(
        TransitionSpec::new("t0")
            .consumes(0, 1)
            .produces(1, 1)
            .distribution(Dist::erlang(2.0, 2)),
    );
    net.add_transition(
        TransitionSpec::new("t1")
            .consumes(1, 1)
            .produces(2, 1)
            .distribution(Dist::uniform(0.2, 1.0)),
    );
    net.add_transition(
        TransitionSpec::new("t1-back")
            .consumes(1, 1)
            .produces(0, 1)
            .distribution(Dist::exponential(0.5)),
    );
    net.add_transition(
        TransitionSpec::new("t2")
            .consumes(2, 1)
            .produces(3, 1)
            .distribution(Dist::exponential(1.5)),
    );
    net.add_transition(
        TransitionSpec::new("reset")
            .consumes(3, 1)
            .produces(0, 1)
            .distribution(Dist::deterministic(0.3)),
    );
    net
}

#[test]
fn passage_estimates_are_bitwise_identical_across_runs_and_thread_counts() {
    let net = mixed_chain();
    let mut reference: Option<(Vec<f64>, usize)> = None;
    // Two repeats at each thread count: identical across *runs* and across
    // *threads* (including a count that does not divide the replications).
    for &threads in &[1usize, 1, 2, 3, 4] {
        let result = simulate_passage_times(
            &net,
            |m| m.get(3) == 1,
            &PassageSimulationOptions {
                replications: 5_000,
                threads,
                seed: 0xfeed,
                ..Default::default()
            },
        )
        .unwrap();
        let key = (result.distribution.samples().to_vec(), result.censored);
        match &reference {
            None => reference = Some(key),
            Some(expect) => {
                assert_eq!(expect.0, key.0, "samples differ with {threads} thread(s)");
                assert_eq!(
                    expect.1, key.1,
                    "censoring differs with {threads} thread(s)"
                );
            }
        }
    }
    // A different seed genuinely changes the draw.
    let other = simulate_passage_times(
        &net,
        |m| m.get(3) == 1,
        &PassageSimulationOptions {
            replications: 5_000,
            threads: 2,
            seed: 0xbeef,
            ..Default::default()
        },
    )
    .unwrap();
    assert_ne!(reference.unwrap().0, other.distribution.samples());
}

#[test]
fn transient_estimates_are_bitwise_identical_across_runs_and_thread_counts() {
    let net = mixed_chain();
    let ts = linspace(0.25, 8.0, 12);
    let mut reference: Option<Vec<f64>> = None;
    for &threads in &[1usize, 1, 2, 5] {
        let probs = simulate_transient(
            &net,
            |m| m.get(0) == 1,
            &ts,
            &TransientSimulationOptions {
                replications: 3_000,
                threads,
                seed: 0xfeed,
                ..Default::default()
            },
        )
        .unwrap();
        match &reference {
            None => reference = Some(probs),
            Some(expect) => assert_eq!(expect, &probs, "differs with {threads} thread(s)"),
        }
    }
    let other = simulate_transient(
        &net,
        |m| m.get(0) == 1,
        &ts,
        &TransientSimulationOptions {
            replications: 3_000,
            threads: 2,
            seed: 0xbeef,
            ..Default::default()
        },
    )
    .unwrap();
    assert_ne!(reference.unwrap(), other);
}

#[test]
fn replication_seed_is_a_pure_decorrelating_mix() {
    // Deterministic…
    assert_eq!(replication_seed(7, 42), replication_seed(7, 42));
    // …distinct across replications and base seeds…
    assert_ne!(replication_seed(7, 0), replication_seed(7, 1));
    assert_ne!(replication_seed(7, 0), replication_seed(8, 0));
    // …and not trivially sequential (adjacent indices land far apart).
    let a = replication_seed(7, 1);
    let b = replication_seed(7, 2);
    assert!(a.abs_diff(b) > 1 << 32, "{a} vs {b}");
}

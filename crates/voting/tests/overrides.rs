//! `VotingSystem::build_with` gives every transition of the text the weight
//! and firing-time distribution it is handed, not the text's own.

use smp_distributions::Dist;
use smp_smspn::ReachabilityOptions;
use smp_voting::model::VotingDistributions;
use smp_voting::{VotingConfig, VotingSystem};

#[test]
fn every_transition_fires_with_the_given_distribution_and_weight() {
    // Between them every kind of `Dist`; weights unlike the defaults.
    let dists = VotingDistributions {
        vote: Dist::weibull(1.5, 0.8),
        register: Dist::deterministic(0.3),
        polling_failure: Dist::exponential(0.5),
        central_failure: Dist::erlang(1.5, 3),
        polling_full_repair: Dist::convolution(vec![
            Dist::deterministic(1.0),
            Dist::uniform(1.0, 2.0),
        ]),
        central_full_repair: Dist::mixture(vec![
            (0.3, Dist::exponential(1.0)),
            (0.7, Dist::weibull(2.0, 1.0)),
        ]),
        polling_self_recovery: Dist::uniform(0.1, 0.9),
        central_self_recovery: Dist::erlang(3.0, 4),
        voter_return: Dist::uniform(2.0, 3.0),
        weights: [3.0, 5.0, 1.5, 2.5, 0.7, 0.9, 4.0, 6.0, 1.1],
    };
    let options = ReachabilityOptions::default();
    let sys = VotingSystem::build_with(VotingConfig::new(3, 2, 2), &dists, &options).unwrap();
    let smp = sys.smp();

    // t1 … t9's effect on (p1, …, p7) at MM = NN = 2, and its distribution.
    let effects: [([i64; 7], &Dist); 9] = [
        ([-1, 1, -1, 1, 0, 0, 0], &dists.vote),
        ([0, 0, 1, -1, 0, 0, 0], &dists.register),
        ([0, 0, -1, 0, 0, 0, 1], &dists.polling_failure),
        ([0, 0, 0, 0, -1, 1, 0], &dists.central_failure),
        ([0, 0, 2, 0, 0, 0, -2], &dists.polling_full_repair),
        ([0, 0, 0, 0, 2, -2, 0], &dists.central_full_repair),
        ([0, 0, 1, 0, 0, 0, -1], &dists.polling_self_recovery),
        ([0, 0, 0, 0, 1, -1, 0], &dists.central_self_recovery),
        ([1, -1, 0, 0, 0, 0, 0], &dists.voter_return),
    ];
    // The transition that moves state `from` to state `to`.
    let fired = |from: usize, to: u32| {
        let (a, b) = (sys.marking(from), sys.marking(to as usize));
        let delta: [i64; 7] = std::array::from_fn(|p| i64::from(b.get(p)) - i64::from(a.get(p)));
        effects
            .iter()
            .position(|(e, _)| *e == delta)
            .expect("a transition's effect")
    };
    let mut seen = [false; 9];
    for state in 0..sys.num_states() {
        for edge in smp.transitions(state) {
            let t = fired(state, edge.target);
            assert_eq!(smp.distribution(edge.dist), effects[t].1, "t{}", t + 1);
            seen[t] = true;
        }
    }
    assert_eq!(seen, [true; 9]);

    // Fully operational, nobody voted: t1, t3 and t4 are chosen by weight.
    let initial = sys.initial_state();
    let total = dists.weights[0] + dists.weights[2] + dists.weights[3];
    let mut chosen: Vec<(usize, f64)> = smp
        .transitions(initial)
        .iter()
        .map(|e| (fired(initial, e.target), e.probability))
        .collect();
    chosen.sort_by_key(|&(t, _)| t);
    let expected = [0, 2, 3].map(|t| (t, dists.weights[t] / total));
    assert_eq!(chosen.len(), expected.len(), "{chosen:?}");
    for ((t, p), (want_t, want_p)) in chosen.into_iter().zip(expected) {
        assert_eq!(t, want_t);
        assert!((p - want_p).abs() <= 1e-12, "t{}: {p} != {want_p}", t + 1);
    }
}

//! The textual (DNAmaca) and programmatic routes into the tool chain must agree:
//! same state space, same kernel, same passage-time transforms.

use smp_suite::core::PassageTimeSolver;
use smp_suite::numeric::Complex64;
use smp_suite::smspn::StateSpace;
use smp_suite::voting::{spec, VotingConfig, VotingSystem};

#[test]
fn parsed_and_programmatic_models_have_identical_state_spaces() {
    let config = VotingConfig::new(3, 2, 2);
    let net = smp_suite::dnamaca::parse_model(&spec::dnamaca_source(config)).unwrap();
    let parsed = StateSpace::explore(&net).unwrap();
    let programmatic = VotingSystem::build(config).unwrap();

    assert_eq!(parsed.num_states(), programmatic.num_states());
    assert_eq!(parsed.num_edges(), programmatic.state_space().num_edges());
    // Every marking reachable in one is reachable in the other.
    for s in 0..parsed.num_states() {
        let marking = parsed.marking(s);
        assert!(
            programmatic.state_space().state_of(marking).is_some(),
            "marking {marking} missing from the programmatic state space"
        );
    }
}

#[test]
fn parsed_and_programmatic_passage_transforms_agree() {
    let config = VotingConfig::new(3, 2, 2);
    let net = smp_suite::dnamaca::parse_model(&spec::dnamaca_source(config)).unwrap();
    let parsed = StateSpace::explore(&net).unwrap();
    let programmatic = VotingSystem::build(config).unwrap();

    // Passage: all voters voted, starting from the initial marking.
    let p2_parsed = net.place_index("p2").unwrap();
    let parsed_targets = parsed.states_where(|m| m.get(p2_parsed) >= 3);
    let prog_targets = programmatic.states_with_voted_at_least(3);
    assert_eq!(parsed_targets.len(), prog_targets.len());

    let parsed_solver =
        PassageTimeSolver::new(parsed.smp(), &[parsed.initial_state()], &parsed_targets).unwrap();
    let prog_solver = PassageTimeSolver::new(
        programmatic.smp(),
        &[programmatic.initial_state()],
        &prog_targets,
    )
    .unwrap();

    for &s in &[
        Complex64::new(0.5, 0.0),
        Complex64::new(0.2, 1.5),
        Complex64::new(1.0, -3.0),
    ] {
        let a = parsed_solver.transform_at(s).unwrap().value;
        let b = prog_solver.transform_at(s).unwrap().value;
        assert!(
            (a - b).norm() < 1e-9,
            "transform mismatch at {s}: parsed {a} vs programmatic {b}"
        );
    }
}

#[test]
fn fig3_excerpt_parses_inside_a_complete_model() {
    // The paper's Fig. 3 excerpt, embedded verbatim (modulo the surrounding places)
    // in a minimal complete model.
    let source = r#"
        \constant{MM}{3}
        \place{p3}{0}
        \place{p7}{MM}
        \transition{t5}{
            \condition{p7 > MM-1}
            \action{
                next->p3 = p3 + MM;
                next->p7 = p7 - MM;
            }
            \weight{1.0}
            \priority{2}
            \sojourntimeLT{
                return (0.8 * uniformLT(1.5,10,s)
                + 0.2 * erlangLT(0.001,5,s));
            }
        }
        \transition{fail}{
            \condition{p3 > 0}
            \action{ next->p3 = p3 - 1; next->p7 = p7 + 1; }
            \sojourntimeLT{ return expLT(0.1, s); }
        }
    "#;
    let net = smp_suite::dnamaca::parse_model(source).unwrap();
    let space = StateSpace::explore(&net).unwrap();
    assert_eq!(space.num_states(), 4); // p7 ∈ {0, 1, 2, 3}
    let t5 = net.transition_index("t5").unwrap();
    let all_failed = net.initial_marking();
    assert_eq!(net.transitions()[t5].is_net_enabled(all_failed), Ok(true));
}

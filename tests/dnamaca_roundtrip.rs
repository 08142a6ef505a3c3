//! The paper's Fig. 3 DNAmaca excerpt parses, explores and fires inside a
//! complete model.  (The voting net itself is written once, as text:
//! `exploration_digest` pins what it explores to, both as parsed and as
//! `VotingSystem` re-times it.)

use smp_suite::smspn::StateSpace;

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

//! Assembling an executable SM-SPN from a parsed model.
//!
//! Each parsed transition becomes an `smp_smspn::TransitionSpec` whose guard, action,
//! weight, priority and distribution closures interpret the corresponding AST
//! fragments against the current marking.  Constants, initial markings and
//! sojourn-time distributions that read no place are evaluated eagerly (they
//! cannot depend on a marking).

use crate::ast::ModelAst;
use crate::eval::Environment;
use smp_smspn::{Marking, SmSpn, TransitionSpec};
use std::sync::Arc;

/// Builds an SM-SPN from a parsed model.
///
/// Returns a descriptive error for semantic problems: duplicate or unknown names,
/// non-integer initial markings, assignments to unknown places, and so on.
pub fn build_net(model: &ModelAst) -> Result<SmSpn, String> {
    let mut env = Environment::new();

    // Constants first (they may reference earlier constants only).
    for (name, expr) in &model.constants {
        let value = env
            .eval(expr, None)
            .map_err(|e| format!("constant '{name}': {e}"))?;
        env.define_constant(name.clone(), value);
    }

    // Places and initial markings.
    if model.places.is_empty() {
        return Err("the model declares no places".into());
    }
    let mut places = Vec::with_capacity(model.places.len());
    for (index, (name, expr)) in model.places.iter().enumerate() {
        if env.place_index(name).is_some() {
            return Err(format!("duplicate place '{name}'"));
        }
        let tokens = env
            .eval(expr, None)
            .map_err(|e| format!("initial marking of '{name}': {e}"))?;
        if tokens < 0.0 || tokens.fract() != 0.0 {
            return Err(format!(
                "initial marking of '{name}' must be a non-negative integer, got {tokens}"
            ));
        }
        env.define_place(name.clone(), index);
        places.push((name.clone(), tokens as u32));
    }

    let env = Arc::new(env);
    let mut net = SmSpn::new(places);

    if model.transitions.is_empty() {
        return Err("the model declares no transitions".into());
    }

    for t in &model.transitions {
        // Validate action targets eagerly so that typos fail at build time, not
        // during state-space exploration.
        for assignment in &t.action {
            if env.place_index(&assignment.place).is_none() {
                return Err(format!(
                    "transition '{}' assigns to unknown place '{}'",
                    t.name, assignment.place
                ));
            }
        }
        // Validate the marking-independent pieces once against the initial marking
        // so that obviously broken expressions are reported early.
        let probe = net.initial_marking().clone();
        if let Some(cond) = &t.condition {
            env.eval_bool(cond, Some(&probe))
                .map_err(|e| format!("transition '{}' condition: {e}", t.name))?;
        }

        let mut spec = TransitionSpec::new(t.name.clone());

        if let Some(cond) = t.condition.clone() {
            let env_c = Arc::clone(&env);
            spec = spec.guard(move |m| {
                env_c
                    .eval_bool(&cond, Some(m))
                    .unwrap_or_else(|e| panic!("condition evaluation failed: {e}"))
            });
        }

        if !t.action.is_empty() {
            let action = t.action.clone();
            let env_c = Arc::clone(&env);
            spec = spec.action(move |m| {
                let mut next = m.clone();
                // All right-hand sides are evaluated against the *current* marking,
                // matching the `next->p = expr;` semantics of the language.
                let mut updates = Vec::with_capacity(action.len());
                for assignment in &action {
                    let value = env_c
                        .eval(&assignment.value, Some(m))
                        .unwrap_or_else(|e| panic!("action evaluation failed: {e}"));
                    assert!(
                        value >= 0.0 && value.fract() == 0.0,
                        "action assigns non-integer or negative token count {value} to '{}'",
                        assignment.place
                    );
                    let index = env_c
                        .place_index(&assignment.place)
                        .expect("validated at build time");
                    updates.push((index, value as u32));
                }
                for (index, value) in updates {
                    next.set(index, value);
                }
                next
            });
        }

        if let Some(weight) = t.weight.clone() {
            let env_c = Arc::clone(&env);
            spec = spec.weight_fn(move |m| {
                env_c
                    .eval(&weight, Some(m))
                    .unwrap_or_else(|e| panic!("weight evaluation failed: {e}"))
            });
        }

        if let Some(priority) = t.priority.clone() {
            let env_c = Arc::clone(&env);
            spec = spec.priority_fn(move |m| {
                let value = env_c
                    .eval(&priority, Some(m))
                    .unwrap_or_else(|e| panic!("priority evaluation failed: {e}"));
                assert!(
                    value >= 0.0 && value.fract() == 0.0,
                    "priority must be a non-negative integer, got {value}"
                );
                value as u32
            });
        }

        if let Some(sojourn) = t.sojourn.clone() {
            if env.dist_reads_marking(&sojourn) {
                let env_c = Arc::clone(&env);
                spec = spec.distribution_fn(move |m: &Marking| {
                    env_c
                        .eval_dist(&sojourn, Some(m))
                        .unwrap_or_else(|e| panic!("sojourn-time evaluation failed: {e}"))
                });
            } else {
                // One distribution in every marking: built once, here, so
                // that parameters making no distribution are a model error
                // rather than a panic in the middle of exploration.
                let dist = env
                    .eval_dist(&sojourn, None)
                    .map_err(|e| format!("transition '{}' sojourn time: {e}", t.name))?;
                spec = spec.distribution(dist);
            }
        }

        net.add_transition(spec);
    }

    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use smp_distributions::Dist;
    use smp_smspn::StateSpace;

    fn build(src: &str) -> Result<SmSpn, String> {
        build_net(&parse(src).expect("parse"))
    }

    #[test]
    fn constants_feed_initial_markings() {
        let net = build("\\constant{N}{3} \\place{p}{N + 1} \\place{q}{0} \\transition{t}{ \\condition{p > 0} \\action{ next->p = p - 1; next->q = q + 1; } \\sojourntimeLT{expLT(1,s)} } \\transition{back}{ \\condition{q > 0} \\action{ next->p = p + 1; next->q = q - 1; } \\sojourntimeLT{expLT(1,s)} }").unwrap();
        assert_eq!(net.initial_marking().as_slice(), &[4, 0]);
        let space = StateSpace::explore(&net).unwrap();
        assert_eq!(space.num_states(), 5);
    }

    #[test]
    fn full_voting_style_transition_round_trips() {
        let src = r#"
            \constant{MM}{2}
            \place{p3}{0}
            \place{p7}{MM}
            \transition{t5}{
                \condition{p7 > MM - 1}
                \action{ next->p3 = p3 + MM; next->p7 = p7 - MM; }
                \weight{1.0}
                \priority{2}
                \sojourntimeLT{ return (0.8*uniformLT(1.5,10,s) + 0.2*erlangLT(0.001,5,s)); }
            }
            \transition{fail}{
                \condition{p3 > 0}
                \action{ next->p3 = p3 - 1; next->p7 = p7 + 1; }
                \sojourntimeLT{ expLT(0.1, s) }
            }
        "#;
        let net = build(src).unwrap();
        let space = StateSpace::explore(&net).unwrap();
        // States: p7 = 0, 1, 2 (p3 = MM - p7).
        assert_eq!(space.num_states(), 3);
        let smp = space.smp();
        // In the all-failed state only t5 is enabled (priority 2) and it carries the
        // Fig. 3 mixture.
        let all_failed = space
            .states_where(|m| m.get(1) == 2)
            .into_iter()
            .next()
            .unwrap();
        let out = smp.transitions(all_failed);
        assert_eq!(out.len(), 1);
        assert_eq!(
            smp.distribution(out[0].dist),
            &Dist::mixture(vec![
                (0.8, Dist::uniform(1.5, 10.0)),
                (0.2, Dist::erlang(0.001, 5)),
            ])
        );
    }

    #[test]
    fn duplicate_place_rejected() {
        let err =
            build("\\place{p}{1} \\place{p}{2} \\transition{t}{ \\sojourntimeLT{expLT(1,s)} }")
                .unwrap_err();
        assert!(err.contains("duplicate place"));
    }

    #[test]
    fn unknown_place_in_action_rejected() {
        let err = build(
            "\\place{p}{1} \\transition{t}{ \\action{ next->zzz = 1; } \\sojourntimeLT{expLT(1,s)} }",
        )
        .unwrap_err();
        assert!(err.contains("unknown place 'zzz'"));
    }

    #[test]
    fn fractional_initial_marking_rejected() {
        let err =
            build("\\place{p}{0.5} \\transition{t}{ \\sojourntimeLT{expLT(1,s)} }").unwrap_err();
        assert!(err.contains("non-negative integer"));
    }

    #[test]
    fn empty_models_rejected() {
        assert!(build("\\constant{X}{1}").unwrap_err().contains("no places"));
        assert!(build("\\place{p}{1}")
            .unwrap_err()
            .contains("no transitions"));
    }

    #[test]
    fn constant_sojourn_making_no_distribution_is_a_build_error() {
        let err =
            build("\\place{p}{1} \\transition{t}{ \\sojourntimeLT{ return 0 * expLT(2.0, s); } }")
                .unwrap_err();
        assert!(err.contains("transition 't' sojourn time"), "{err}");
    }

    #[test]
    fn bad_condition_reported_at_build_time() {
        let err = build(
            "\\place{p}{1} \\transition{t}{ \\condition{ghost > 0} \\sojourntimeLT{expLT(1,s)} }",
        )
        .unwrap_err();
        assert!(err.contains("ghost"));
    }

    #[test]
    fn weights_and_priorities_are_marking_dependent() {
        let src = r#"
            \place{tokens}{2}
            \place{a}{0}
            \place{b}{0}
            \transition{to_a}{
                \condition{tokens > 0}
                \action{ next->tokens = tokens - 1; next->a = a + 1; }
                \weight{tokens}
                \sojourntimeLT{expLT(1,s)}
            }
            \transition{to_b}{
                \condition{tokens > 0}
                \action{ next->tokens = tokens - 1; next->b = b + 1; }
                \weight{1}
                \sojourntimeLT{expLT(1,s)}
            }
            \transition{reset}{
                \condition{tokens == 0}
                \action{ next->tokens = 2; next->a = 0; next->b = 0; }
                \sojourntimeLT{detLT(1, s)}
            }
        "#;
        let net = build(src).unwrap();
        let space = StateSpace::explore(&net).unwrap();
        let smp = space.smp();
        // In the initial state tokens = 2, so P(to_a) = 2/3.
        let initial = space.initial_state();
        let to_a_prob = smp
            .transitions(initial)
            .iter()
            .map(|t| t.probability)
            .fold(0.0f64, f64::max);
        assert!((to_a_prob - 2.0 / 3.0).abs() < 1e-12);
    }
}

//! Assembling an executable SM-SPN from a parsed model.
//!
//! Every expression is resolved once, here (see [`crate::eval`]): constants
//! and initial markings are evaluated on the spot, and each parsed transition
//! becomes an `smp_smspn::TransitionSpec` whose guard, action, weight, priority
//! and sojourn closures evaluate resolved trees against the marking's token
//! counts.  A sojourn that reads no place is built once, here, so parameters
//! that make no distribution are a model error; a piece that fails in some
//! reachable marking is reported by the explorer, naming the transition and
//! the marking.

use crate::ast::ModelAst;
use crate::eval::{Resolved, Scope};
use smp_smspn::{SmSpn, TransitionSpec};

/// Builds an SM-SPN from a parsed model.
///
/// Returns a descriptive error for semantic problems: duplicate or unknown names,
/// non-integer initial markings, assignments to unknown places, and so on.
pub(crate) fn build_net(model: &ModelAst) -> Result<SmSpn, String> {
    let mut scope = Scope::new();

    // Constants first (they may reference earlier constants only).
    for (name, expr) in &model.constants {
        let value = scope
            .resolve_constant(expr)
            .and_then(|e| e.eval(&[]))
            .map_err(|e| format!("constant '{name}': {e}"))?;
        scope.define_constant(name.clone(), value);
    }

    // Places and initial markings.
    if model.places.is_empty() {
        return Err("the model declares no places".into());
    }
    let mut places = Vec::with_capacity(model.places.len());
    for (index, (name, expr)) in model.places.iter().enumerate() {
        if scope.place_index(name).is_some() {
            return Err(format!("duplicate place '{name}'"));
        }
        let tokens = scope
            .resolve_constant(expr)
            .and_then(|e| e.eval(&[]))
            .map_err(|e| format!("initial marking of '{name}': {e}"))?;
        if tokens < 0.0 || tokens.fract() != 0.0 {
            return Err(format!(
                "initial marking of '{name}' must be a non-negative integer, got {tokens}"
            ));
        }
        scope.define_place(name.clone(), index);
        places.push((name.clone(), tokens as u32));
    }

    let mut net = SmSpn::new(places);

    if model.transitions.is_empty() {
        return Err("the model declares no transitions".into());
    }

    for t in &model.transitions {
        let piece = |what: &str, e: String| format!("transition '{}' {what}: {e}", t.name);
        let mut spec = TransitionSpec::new(t.name.clone());

        if let Some(cond) = &t.condition {
            let cond = scope.resolve(cond).map_err(|e| piece("condition", e))?;
            spec = spec.guard(move |m| cond.eval_bool(m.as_slice()));
        }

        if !t.action.is_empty() {
            // `(place index, place name, value)`; every right-hand side reads
            // the *current* marking, matching the `next->p = expr;` semantics
            // of the language, and writes `next` in statement order.
            let mut assignments: Vec<(usize, String, Resolved)> = Vec::new();
            for assignment in &t.action {
                let index = scope.place_index(&assignment.place).ok_or_else(|| {
                    format!(
                        "transition '{}' assigns to unknown place '{}'",
                        t.name, assignment.place
                    )
                })?;
                let value = scope
                    .resolve(&assignment.value)
                    .map_err(|e| piece("action", e))?;
                assignments.push((index, assignment.place.clone(), value));
            }
            spec = spec.action(move |m, next| {
                for (index, place, value) in &assignments {
                    let value = value.eval(m.as_slice())?;
                    let tokens = whole(value).ok_or_else(|| {
                        format!("assigns {value} to '{place}', which is not a token count")
                    })?;
                    next.set(*index, tokens);
                }
                Ok(())
            });
        }

        if let Some(weight) = &t.weight {
            let weight = scope.resolve(weight).map_err(|e| piece("weight", e))?;
            spec = spec.weight_fn(move |m| weight.eval(m.as_slice()));
        }

        if let Some(priority) = &t.priority {
            let priority = scope.resolve(priority).map_err(|e| piece("priority", e))?;
            spec = spec.priority_fn(move |m| {
                let value = priority.eval(m.as_slice())?;
                whole(value).ok_or_else(|| format!("must be a non-negative integer, got {value}"))
            });
        }

        if let Some(sojourn) = &t.sojourn {
            let sojourn = scope
                .resolve_dist(sojourn)
                .map_err(|e| piece("sojourn time", e))?;
            if sojourn.reads_marking() {
                spec = spec.distribution_fn(move |m| sojourn.eval(m.as_slice()));
            } else {
                // One distribution in every marking: built once, here, so
                // that parameters making no distribution are a model error
                // rather than a failure in the middle of exploration.
                let dist = sojourn.eval(&[]).map_err(|e| piece("sojourn time", e))?;
                spec = spec.distribution(dist);
            }
        }

        net.add_transition(spec);
    }

    Ok(net)
}

/// `value` as a count, when it is a non-negative whole number.
fn whole(value: f64) -> Option<u32> {
    (value >= 0.0 && value.fract() == 0.0).then_some(value as u32)
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

        // `q` names both a constant and a place: the constant wins, in the
        // initial marking and in every marking-dependent piece alike.
        let net = build("\\constant{q}{2} \\place{p}{q} \\place{q}{0} \\transition{t}{ \\condition{p > 0} \\action{ next->p = p - 1; next->q = q + 3; } \\weight{q} \\sojourntimeLT{erlangLT(1, q, s)} } \\transition{back}{ \\condition{p == 0} \\action{ next->p = 2; next->q = 0; } \\sojourntimeLT{expLT(1,s)} }").unwrap();
        assert_eq!(net.initial_marking().as_slice(), &[2, 0]);
        let space = StateSpace::explore(&net).unwrap();
        // The place `q` is written as the constant plus 3, never read: it is 5
        // after every `t`.
        assert_eq!(space.marking(1).as_slice(), &[1, 5]);
        assert_eq!(space.marking(2).as_slice(), &[0, 5]);
        let smp = space.smp();
        for state in 0..2 {
            let out = smp.transitions(state);
            assert_eq!(smp.distribution(out[0].dist), &Dist::erlang(1.0, 2));
        }
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
    fn a_piece_failing_in_a_reachable_marking_is_a_typed_exploration_error() {
        use smp_smspn::reachability::ReachabilityError;
        let two_places = |ab: &str| {
            format!(
                "\\place{{a}}{{1}} \\place{{b}}{{0}} \\transition{{ab}}{{ {ab} }} \\transition{{ba}}{{ \\condition{{b > 0}} \\action{{ next->b = b - 1; next->a = a + 1; }} \\sojourntimeLT{{expLT(1,s)}} }}"
            )
        };
        for (ab, expect) in [
            (
                "\\condition{a > 0} \\action{ next->a = a - 1; next->b = b + 1; } \\weight{1 / b}",
                "weight: division by zero",
            ),
            (
                "\\condition{a > 0} \\action{ next->a = a - 1; next->b = b + 1; } \\sojourntimeLT{ expLT(b, s) }",
                "sojourn time: expLT: exponential rate must be positive and finite, got 0",
            ),
            (
                "\\condition{a > 0} \\action{ next->a = a - 1; next->b = b + 1; } \\priority{a / 2}",
                "priority: must be a non-negative integer, got 0.5",
            ),
            (
                "\\condition{a > 0} \\action{ next->a = a - 2; next->b = b + 1; }",
                "action: assigns -1 to 'a', which is not a token count",
            ),
            (
                "\\condition{a > 0} \\action{ next->a = a - 1; next->b = b + 0.5; }",
                "action: assigns 0.5 to 'b', which is not a token count",
            ),
            ("\\condition{ 1 / b > 0 }", "guard: division by zero"),
        ] {
            let net = build(&two_places(ab)).unwrap();
            match StateSpace::explore(&net) {
                Err(ReachabilityError::Evaluation {
                    transition,
                    marking,
                    message,
                }) => {
                    assert_eq!(transition, "ab", "{ab}");
                    assert_eq!(marking, vec![1, 0], "{ab}");
                    assert_eq!(message, expect, "{ab}");
                }
                other => panic!("{ab}: expected an evaluation error, got {other:?}"),
            }
        }
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

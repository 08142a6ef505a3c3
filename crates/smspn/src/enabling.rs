//! Net-enabling and priority-enabling functions.
//!
//! The paper defines two enabling functions over a marking `m` (Section 5.1):
//!
//! * `EN(m)` — the transitions whose input arcs and guards are satisfied;
//! * `EP(m)` — the subset of `EN(m)` carrying the *highest* priority in `m`.
//!
//! Only priority-enabled transitions can fire, and the choice among them is made
//! probabilistically by weight — not by racing firing-time samples — so the
//! reachability graph maps directly onto a semi-Markov chain.

use crate::marking::Marking;
use crate::net::SmSpn;

/// A transition whose guard, priority or weight could not be evaluated in a
/// marking, or a priority-enabled set whose weights do not sum to a positive
/// total (then `transition` is the set's first member).
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationError {
    /// Index of the transition in `net.transitions()`.
    pub transition: usize,
    /// What failed, prefixed with the piece it came from.
    pub message: String,
}

/// Firing probabilities of the priority-enabled transitions in `m`, as
/// `(transition index, probability)` pairs — the paper's
/// `P(t fires) = w_t(m) / Σ_{t'∈EP(m)} w_{t'}(m)`.
pub fn firing_probabilities(
    net: &SmSpn,
    m: &Marking,
) -> Result<Vec<(usize, f64)>, EvaluationError> {
    let mut firings = Vec::new();
    firing_probabilities_into(net, m, &mut firings)?;
    Ok(firings)
}

/// [`firing_probabilities`] into a caller-owned buffer, so a state-space walk
/// allocates nothing per marking.
pub fn firing_probabilities_into(
    net: &SmSpn,
    m: &Marking,
    out: &mut Vec<(usize, f64)>,
) -> Result<(), EvaluationError> {
    fill_priority_enabled(net, m, out)?;
    for (i, weight) in out.iter_mut() {
        *weight = net.transitions()[*i]
            .weight_in(m)
            .map_err(|message| EvaluationError {
                transition: *i,
                message,
            })?;
    }
    let total: f64 = out.iter().map(|&(_, w)| w).sum();
    if let Some(&(first, _)) = out.first() {
        if total.is_nan() || total <= 0.0 {
            return Err(EvaluationError {
                transition: first,
                message: format!("priority-enabled transitions have total weight {total}"),
            });
        }
    }
    for (_, weight) in out.iter_mut() {
        *weight /= total;
    }
    Ok(())
}

/// Fills `out` with `EP(m)` in transition order, each paired with its
/// priority (exact in an `f64`), evaluating every guard and priority once.
fn fill_priority_enabled(
    net: &SmSpn,
    m: &Marking,
    out: &mut Vec<(usize, f64)>,
) -> Result<(), EvaluationError> {
    out.clear();
    let mut max_priority = 0;
    for (i, t) in net.transitions().iter().enumerate() {
        let fail = |message| EvaluationError {
            transition: i,
            message,
        };
        if !t.is_net_enabled(m).map_err(fail)? {
            continue;
        }
        let priority = t.priority_in(m).map_err(fail)?;
        if out.is_empty() || priority > max_priority {
            max_priority = priority;
        }
        out.push((i, f64::from(priority)));
    }
    let max_priority = f64::from(max_priority);
    out.retain(|&(_, priority)| priority == max_priority);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::TransitionSpec;
    use smp_distributions::Dist;

    /// `EP(m)`'s transition indices, as the state-space walk computes them.
    fn priority_enabled(net: &SmSpn, m: &Marking) -> Result<Vec<usize>, EvaluationError> {
        let mut enabled = Vec::new();
        fill_priority_enabled(net, m, &mut enabled)?;
        Ok(enabled.into_iter().map(|(i, _)| i).collect())
    }

    fn priority_net() -> SmSpn {
        // Three transitions competing for the same token with different priorities
        // and weights.
        let mut net = SmSpn::with_places(&[("p", 1), ("a", 0), ("b", 0), ("c", 0)]);
        net.add_transition(
            TransitionSpec::new("low")
                .consumes(0, 1)
                .produces(1, 1)
                .priority(1)
                .weight(10.0)
                .distribution(Dist::exponential(1.0)),
        );
        net.add_transition(
            TransitionSpec::new("high_a")
                .consumes(0, 1)
                .produces(2, 1)
                .priority(3)
                .weight(1.0)
                .distribution(Dist::exponential(1.0)),
        );
        net.add_transition(
            TransitionSpec::new("high_b")
                .consumes(0, 1)
                .produces(3, 1)
                .priority(3)
                .weight(3.0)
                .distribution(Dist::exponential(1.0)),
        );
        net
    }

    #[test]
    fn priority_enabled_keeps_only_highest() {
        let net = priority_net();
        let m = net.initial_marking().clone();
        assert_eq!(priority_enabled(&net, &m), Ok(vec![1, 2]));
    }

    #[test]
    fn firing_probabilities_normalise_weights() {
        let net = priority_net();
        let m = net.initial_marking().clone();
        let probs = firing_probabilities(&net, &m).unwrap();
        assert_eq!(probs.len(), 2);
        assert_eq!(probs[0].0, 1);
        assert!((probs[0].1 - 0.25).abs() < 1e-12);
        assert!((probs[1].1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_marking_enables_nothing() {
        let net = priority_net();
        let m = crate::Marking::new(vec![0, 0, 0, 0]);
        assert_eq!(priority_enabled(&net, &m), Ok(vec![]));
        assert_eq!(firing_probabilities(&net, &m), Ok(vec![]));
    }

    #[test]
    fn marking_dependent_priority_switches_winner() {
        let mut net = SmSpn::with_places(&[("p", 2), ("out", 0)]);
        net.add_transition(
            TransitionSpec::new("normal")
                .consumes(0, 1)
                .produces(1, 1)
                .priority(1)
                .distribution(Dist::exponential(1.0)),
        );
        net.add_transition(
            TransitionSpec::new("urgent_when_two")
                .consumes(0, 1)
                .produces(1, 1)
                .priority_fn(|m| Ok(if m.get(0) >= 2 { 5 } else { 1 }))
                .distribution(Dist::exponential(1.0)),
        );
        let two = crate::Marking::new(vec![2, 0]);
        let one = crate::Marking::new(vec![1, 0]);
        assert_eq!(priority_enabled(&net, &two), Ok(vec![1]));
        assert_eq!(priority_enabled(&net, &one), Ok(vec![0, 1]));
    }

    #[test]
    fn evaluation_failures_name_the_transition() {
        let mut net = SmSpn::with_places(&[("p", 1)]);
        net.add_transition(TransitionSpec::new("fine").consumes(0, 1));
        net.add_transition(
            TransitionSpec::new("broken")
                .consumes(0, 1)
                .weight_fn(|_| Err("division by zero".into())),
        );
        let m = net.initial_marking().clone();
        let err = firing_probabilities(&net, &m).unwrap_err();
        assert_eq!(err.transition, 1);
        assert_eq!(err.message, "weight: division by zero");

        let mut zero = SmSpn::with_places(&[("p", 1)]);
        zero.add_transition(TransitionSpec::new("nothing").weight_fn(|_| Ok(0.0)));
        let err = firing_probabilities(&zero, &m).unwrap_err();
        assert_eq!(err.transition, 0);
        assert!(err.message.contains("total weight 0"), "{}", err.message);
    }
}

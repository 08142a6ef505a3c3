//! The SM-SPN structure: places and marking-dependent transitions.
//!
//! Formally an SM-SPN is a 4-tuple `(PN, P, W, D)` (Section 5.1 of the paper) where
//! `PN` is an ordinary place-transition net and `P`, `W`, `D` attach a
//! marking-dependent priority, weight and firing-time distribution to every
//! transition.  [`TransitionSpec`] captures one transition; the enabling condition
//! and firing effect can be given either through classic input/output arcs or through
//! arbitrary guard/action closures — the latter is what the DNAmaca-style
//! `\condition{...}` / `\action{...}` blocks compile into.
//!
//! Every marking-dependent piece may fail to evaluate (a division by zero, a
//! sojourn whose parameters make no distribution), so its closure returns
//! `Result<_, String>`, and the evaluation methods return the failure,
//! prefixed with the piece it came from, for the caller to name the
//! transition and the marking.

use crate::marking::Marking;
use smp_distributions::Dist;
use std::fmt;
use std::sync::Arc;

/// A marking-dependent value; `Err` says why it has none in that marking.
pub(crate) type MarkingFn<T> = Arc<dyn Fn(&Marking) -> Result<T, String> + Send + Sync>;

/// A firing effect: writes the successor of the first marking into the
/// second, which enters holding a copy of the first.
pub(crate) type ActionFn = Arc<dyn Fn(&Marking, &mut Marking) -> Result<(), String> + Send + Sync>;

/// A transition's firing-time distribution: one for every marking, or a
/// function of the marking.
#[derive(Clone)]
enum Sojourn {
    Fixed(Dist),
    Marking(MarkingFn<Dist>),
}

/// One transition of an SM-SPN.
#[derive(Clone)]
pub struct TransitionSpec {
    name: String,
    /// Tokens consumed from each place (the backward incidence function `I⁻`).
    consume: Vec<(usize, u32)>,
    /// Tokens produced into each place (the forward incidence function `I⁺`).
    produce: Vec<(usize, u32)>,
    /// Extra enabling condition evaluated on top of the arc requirements.
    guard: Option<MarkingFn<bool>>,
    /// Optional replacement firing effect; when present it overrides the arc-based
    /// consume/produce effect entirely (used by DNAmaca `\action` blocks that assign
    /// arbitrary expressions to places).
    action: Option<ActionFn>,
    priority: MarkingFn<u32>,
    weight: MarkingFn<f64>,
    sojourn: Sojourn,
}

impl fmt::Debug for TransitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransitionSpec")
            .field("name", &self.name)
            .field("consume", &self.consume)
            .field("produce", &self.produce)
            .field("has_guard", &self.guard.is_some())
            .field("has_action", &self.action.is_some())
            .finish()
    }
}

impl TransitionSpec {
    /// Starts building a transition with the given name.  Defaults: no arcs, no
    /// guard, priority 1, weight 1.0, and an immediate (zero-delay) distribution —
    /// every builder method overrides one piece.
    pub fn new(name: impl Into<String>) -> Self {
        TransitionSpec {
            name: name.into(),
            consume: Vec::new(),
            produce: Vec::new(),
            guard: None,
            action: None,
            priority: Arc::new(|_| Ok(1)),
            weight: Arc::new(|_| Ok(1.0)),
            sojourn: Sojourn::Fixed(Dist::immediate()),
        }
    }

    /// Adds an input arc: the transition consumes `count` tokens from `place`.
    pub fn consumes(mut self, place: usize, count: u32) -> Self {
        self.consume.push((place, count));
        self
    }

    /// Adds an output arc: the transition produces `count` tokens into `place`.
    pub fn produces(mut self, place: usize, count: u32) -> Self {
        self.produce.push((place, count));
        self
    }

    /// Sets an additional marking-dependent enabling condition.
    pub fn guard(
        mut self,
        guard: impl Fn(&Marking) -> Result<bool, String> + Send + Sync + 'static,
    ) -> Self {
        self.guard = Some(Arc::new(guard));
        self
    }

    /// Replaces the arc-based firing effect with an arbitrary marking
    /// transformer: `action(m, next)` writes the successor of `m` into `next`,
    /// which enters holding a copy of `m`.
    pub fn action(
        mut self,
        action: impl Fn(&Marking, &mut Marking) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        self.action = Some(Arc::new(action));
        self
    }

    /// Sets a constant priority.
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = Arc::new(move |_| Ok(priority));
        self
    }

    /// Sets a marking-dependent priority.
    pub fn priority_fn(
        mut self,
        f: impl Fn(&Marking) -> Result<u32, String> + Send + Sync + 'static,
    ) -> Self {
        self.priority = Arc::new(f);
        self
    }

    /// Sets a constant weight.
    pub fn weight(mut self, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weight must be positive"
        );
        self.weight = Arc::new(move |_| Ok(weight));
        self
    }

    /// Sets a marking-dependent weight.
    pub fn weight_fn(
        mut self,
        f: impl Fn(&Marking) -> Result<f64, String> + Send + Sync + 'static,
    ) -> Self {
        self.weight = Arc::new(f);
        self
    }

    /// Sets a constant firing-time distribution.
    pub fn distribution(mut self, dist: Dist) -> Self {
        self.sojourn = Sojourn::Fixed(dist);
        self
    }

    /// Sets a marking-dependent firing-time distribution (the paper's
    /// `\sojourntimeLT{...}` pragma with marking-dependent parameters).
    pub fn distribution_fn(
        mut self,
        f: impl Fn(&Marking) -> Result<Dist, String> + Send + Sync + 'static,
    ) -> Self {
        self.sojourn = Sojourn::Marking(Arc::new(f));
        self
    }

    /// The transition's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True when the transition is *net-enabled* in `m`: all input arcs are covered
    /// and the guard (if any) holds.
    pub fn is_net_enabled(&self, m: &Marking) -> Result<bool, String> {
        for &(place, count) in &self.consume {
            if !m.has_at_least(place, count) {
                return Ok(false);
            }
        }
        match &self.guard {
            Some(g) => g(m).map_err(|e| format!("guard: {e}")),
            None => Ok(true),
        }
    }

    /// Writes the marking reached by firing the transition in `m` into `next`
    /// (any marking with as many places; its old tokens are overwritten).
    ///
    /// # Panics
    /// Panics when fired in a marking where it is not enabled (token underflow).
    pub fn fire(&self, m: &Marking, next: &mut Marking) -> Result<(), String> {
        next.copy_from(m.as_slice());
        if let Some(action) = &self.action {
            return action(m, next).map_err(|e| format!("action: {e}"));
        }
        for &(place, count) in &self.consume {
            next.remove(place, count);
        }
        for &(place, count) in &self.produce {
            next.add(place, count);
        }
        Ok(())
    }

    /// The transition's priority in `m`.
    pub(crate) fn priority_in(&self, m: &Marking) -> Result<u32, String> {
        (self.priority)(m).map_err(|e| format!("priority: {e}"))
    }

    /// The transition's weight in `m`.
    pub(crate) fn weight_in(&self, m: &Marking) -> Result<f64, String> {
        (self.weight)(m).map_err(|e| format!("weight: {e}"))
    }

    /// The transition's firing-time distribution in `m`.
    pub fn distribution_in(&self, m: &Marking) -> Result<Dist, String> {
        match &self.sojourn {
            Sojourn::Fixed(dist) => Ok(dist.clone()),
            Sojourn::Marking(f) => f(m).map_err(|e| format!("sojourn time: {e}")),
        }
    }

    /// The distribution the transition fires with in every marking, when it
    /// does not depend on the marking.
    pub(crate) fn fixed_distribution(&self) -> Option<&Dist> {
        match &self.sojourn {
            Sojourn::Fixed(dist) => Some(dist),
            Sojourn::Marking(_) => None,
        }
    }
}

/// A complete semi-Markov stochastic Petri net.
#[derive(Debug, Clone)]
pub struct SmSpn {
    place_names: Vec<String>,
    initial_marking: Marking,
    transitions: Vec<TransitionSpec>,
}

impl SmSpn {
    /// Creates a net with the given places (name, initial tokens).
    pub fn new(places: Vec<(String, u32)>) -> Self {
        let initial = Marking::new(places.iter().map(|(_, t)| *t).collect());
        SmSpn {
            place_names: places.into_iter().map(|(n, _)| n).collect(),
            initial_marking: initial,
            transitions: Vec::new(),
        }
    }

    /// Convenience constructor from `&str` place names.
    pub fn with_places(places: &[(&str, u32)]) -> Self {
        SmSpn::new(places.iter().map(|(n, t)| (n.to_string(), *t)).collect())
    }

    /// Adds a transition to the net.
    pub fn add_transition(&mut self, spec: TransitionSpec) {
        self.transitions.push(spec);
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Looks up a place index by name.
    pub fn place_index(&self, name: &str) -> Option<usize> {
        self.place_names.iter().position(|n| n == name)
    }

    /// The initial marking `M₀`.
    pub fn initial_marking(&self) -> &Marking {
        &self.initial_marking
    }

    /// The transitions of the net.
    pub fn transitions(&self) -> &[TransitionSpec] {
        &self.transitions
    }

    /// The transitions of the net, to re-time or re-weight in place (through
    /// the [`TransitionSpec`] builders) after the net is built.
    pub fn transitions_mut(&mut self) -> &mut [TransitionSpec] {
        &mut self.transitions
    }

    /// Looks up a transition index by name.
    pub fn transition_index(&self, name: &str) -> Option<usize> {
        self.transitions.iter().position(|t| t.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_net() -> SmSpn {
        // p0 --t0--> p1 --t1--> p0 (a token ping-pong)
        let mut net = SmSpn::with_places(&[("p0", 1), ("p1", 0)]);
        net.add_transition(
            TransitionSpec::new("t0")
                .consumes(0, 1)
                .produces(1, 1)
                .distribution(Dist::exponential(1.0)),
        );
        net.add_transition(
            TransitionSpec::new("t1")
                .consumes(1, 1)
                .produces(0, 1)
                .distribution(Dist::uniform(0.5, 1.5)),
        );
        net
    }

    #[test]
    fn net_structure_accessors() {
        let net = simple_net();
        assert_eq!(net.num_places(), 2);
        assert_eq!(net.num_transitions(), 2);
        assert_eq!(net.place_index("p1"), Some(1));
        assert_eq!(net.place_index("nope"), None);
        assert_eq!(net.transition_index("t1"), Some(1));
        assert_eq!(net.initial_marking().as_slice(), &[1, 0]);
        assert_eq!(net.place_names, ["p0", "p1"]);
    }

    #[test]
    fn arc_based_enabling_and_firing() {
        let net = simple_net();
        let m0 = net.initial_marking().clone();
        let t0 = &net.transitions()[0];
        let t1 = &net.transitions()[1];
        assert_eq!(t0.is_net_enabled(&m0), Ok(true));
        assert_eq!(t1.is_net_enabled(&m0), Ok(false));
        let mut m1 = Marking::new(vec![0; 2]);
        t0.fire(&m0, &mut m1).unwrap();
        assert_eq!(m1.as_slice(), &[0, 1]);
        assert_eq!(t1.is_net_enabled(&m1), Ok(true));
        let mut back = Marking::new(vec![0; 2]);
        t1.fire(&m1, &mut back).unwrap();
        assert_eq!(back.as_slice(), &[1, 0]);
    }

    #[test]
    fn guard_restricts_enabling() {
        let mut net = SmSpn::with_places(&[("p", 5)]);
        net.add_transition(
            TransitionSpec::new("drain")
                .consumes(0, 1)
                .guard(|m| Ok(m.get(0) > 3))
                .distribution(Dist::exponential(1.0)),
        );
        let t = &net.transitions()[0];
        assert_eq!(t.is_net_enabled(&Marking::new(vec![5])), Ok(true));
        assert_eq!(t.is_net_enabled(&Marking::new(vec![3])), Ok(false));
        // Arc requirement still applies even if the guard would pass.
        let mut net2 = SmSpn::with_places(&[("p", 0)]);
        net2.add_transition(TransitionSpec::new("x").consumes(0, 1).guard(|_| Ok(true)));
        assert_eq!(
            net2.transitions()[0].is_net_enabled(&Marking::new(vec![0])),
            Ok(false)
        );
    }

    #[test]
    fn action_overrides_arcs() {
        let mut net = SmSpn::with_places(&[("p3", 0), ("p7", 6)]);
        // Mirrors the paper's t5: move MM tokens from p7 back to p3 in one firing.
        const MM: u32 = 6;
        net.add_transition(
            TransitionSpec::new("t5")
                .guard(|m| Ok(m.get(1) > MM - 1))
                .action(|m, next| {
                    next.set(0, m.get(0) + MM);
                    next.set(1, m.get(1) - MM);
                    Ok(())
                })
                .weight(1.0)
                .priority(2)
                .distribution(Dist::mixture(vec![
                    (0.8, Dist::uniform(1.5, 10.0)),
                    (0.2, Dist::erlang(0.001, 5)),
                ])),
        );
        let t5 = &net.transitions()[0];
        let m = net.initial_marking().clone();
        assert_eq!(t5.is_net_enabled(&m), Ok(true));
        let mut next = Marking::new(vec![0; 2]);
        t5.fire(&m, &mut next).unwrap();
        assert_eq!(next.as_slice(), &[6, 0]);
        assert_eq!(t5.is_net_enabled(&next), Ok(false));
        assert_eq!(t5.priority_in(&m), Ok(2));
        assert_eq!(t5.weight_in(&m), Ok(1.0));
        assert!(t5.fixed_distribution().is_some());
    }

    #[test]
    fn marking_dependent_weight_and_distribution() {
        let mut net = SmSpn::with_places(&[("queue", 4)]);
        net.add_transition(
            TransitionSpec::new("serve")
                .consumes(0, 1)
                .weight_fn(|m| Ok(m.get(0) as f64))
                .priority_fn(|m| Ok(if m.get(0) > 2 { 5 } else { 1 }))
                .distribution_fn(|m| Ok(Dist::erlang(1.0, m.get(0).max(1)))),
        );
        let t = &net.transitions()[0];
        let m = Marking::new(vec![4]);
        assert_eq!(t.weight_in(&m), Ok(4.0));
        assert_eq!(t.priority_in(&m), Ok(5));
        assert_eq!(t.distribution_in(&m), Ok(Dist::erlang(1.0, 4)));
        assert!(t.fixed_distribution().is_none());
        let low = Marking::new(vec![1]);
        assert_eq!(t.priority_in(&low), Ok(1));
    }

    #[test]
    fn evaluation_failures_name_their_piece() {
        let t = TransitionSpec::new("t")
            .guard(|_| Err("no guard".into()))
            .action(|_, _| Err("no action".into()))
            .priority_fn(|_| Err("no priority".into()))
            .weight_fn(|_| Err("no weight".into()))
            .distribution_fn(|_| Err("no sojourn".into()));
        let m = Marking::new(vec![1]);
        let mut next = Marking::new(vec![0; 1]);
        assert_eq!(t.is_net_enabled(&m), Err("guard: no guard".into()));
        assert_eq!(t.fire(&m, &mut next), Err("action: no action".into()));
        assert_eq!(t.priority_in(&m), Err("priority: no priority".into()));
        assert_eq!(t.weight_in(&m), Err("weight: no weight".into()));
        assert_eq!(
            t.distribution_in(&m),
            Err("sojourn time: no sojourn".into())
        );
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        TransitionSpec::new("bad").weight(0.0);
    }

    #[test]
    fn debug_formatting_mentions_name() {
        let t = TransitionSpec::new("fire")
            .consumes(0, 1)
            .guard(|_| Ok(true));
        let dbg = format!("{t:?}");
        assert!(dbg.contains("fire") && dbg.contains("has_guard"));
    }
}

//! Single-trajectory execution of an SM-SPN.

use rand::Rng;
use smp_smspn::enabling::firing_probabilities;
use smp_smspn::reachability::ReachabilityError;
use smp_smspn::{Marking, SmSpn};

/// One executed firing.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Index of the transition that fired.
    pub transition: usize,
    /// The sampled holding time before the firing.
    pub delay: f64,
    /// The marking reached after the firing.
    pub marking: Marking,
}

/// Executes one trajectory of an SM-SPN.
///
/// The engine follows the SM-SPN semantics of the paper exactly: in each marking the
/// *priority-enabled* transitions compete by weight (probabilistic choice, not a
/// race), and the sojourn in the marking is drawn from the *chosen* transition's
/// firing-time distribution evaluated in that marking.
#[derive(Debug)]
pub struct SimulationEngine<'a> {
    net: &'a SmSpn,
    marking: Marking,
    clock: f64,
    steps: u64,
}

impl<'a> SimulationEngine<'a> {
    /// Starts a trajectory from the net's initial marking.
    pub fn new(net: &'a SmSpn) -> Self {
        SimulationEngine {
            net,
            marking: net.initial_marking().clone(),
            clock: 0.0,
            steps: 0,
        }
    }

    /// The current marking.
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// The current simulation time.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The number of firings executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Executes one firing.  Returns `Ok(None)` when no transition is enabled
    /// (the net deadlocks), leaving the state unchanged.
    ///
    /// A guard, priority, weight, action or sojourn time of the net that
    /// cannot be evaluated in the current marking fails the step with the
    /// error exploring the net reports for it
    /// ([`ReachabilityError::Evaluation`]), and leaves the state unchanged too.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<Option<Step>, ReachabilityError> {
        let net = self.net;
        let current = &self.marking;
        let failed = |transition: usize, message: String| ReachabilityError::Evaluation {
            transition: net.transitions()[transition].name().to_string(),
            marking: current.as_slice().to_vec(),
            message,
        };
        let choices =
            firing_probabilities(net, current).map_err(|e| failed(e.transition, e.message))?;
        if choices.is_empty() {
            return Ok(None);
        }
        // Probabilistic choice by weight.
        let mut u: f64 = rng.gen_range(0.0..1.0);
        let mut chosen = choices[choices.len() - 1].0;
        for (transition, probability) in &choices {
            if u < *probability {
                chosen = *transition;
                break;
            }
            u -= probability;
        }
        let spec = &net.transitions()[chosen];
        let delay = spec
            .distribution_in(current)
            .map_err(|message| failed(chosen, message))?
            .sample(rng);
        let mut next = current.clone();
        spec.fire(current, &mut next)
            .map_err(|message| failed(chosen, message))?;
        self.clock += delay;
        self.marking = next;
        self.steps += 1;
        Ok(Some(Step {
            transition: chosen,
            delay,
            marking: self.marking.clone(),
        }))
    }

    /// Runs until `predicate` holds on the current marking, the clock passes
    /// `max_time`, or `max_steps` firings have happened.  Returns the clock value at
    /// which the predicate first held, or `None` if the run was cut off (or
    /// deadlocked) first; a step that fails ends the run with its error.
    pub fn run_until<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        mut predicate: impl FnMut(&Marking) -> bool,
        max_time: f64,
        max_steps: u64,
    ) -> Result<Option<f64>, ReachabilityError> {
        if predicate(&self.marking) {
            return Ok(Some(self.clock));
        }
        while self.clock <= max_time && self.steps < max_steps {
            if self.step(rng)?.is_none() {
                return Ok(None);
            }
            if predicate(&self.marking) {
                return Ok(Some(self.clock));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smp_distributions::Dist;
    use smp_numeric::stats::RunningStats;
    use smp_smspn::TransitionSpec;

    fn ping_pong() -> SmSpn {
        let mut net = SmSpn::with_places(&[("a", 1), ("b", 0)]);
        net.add_transition(
            TransitionSpec::new("go")
                .consumes(0, 1)
                .produces(1, 1)
                .distribution(Dist::exponential(2.0)),
        );
        net.add_transition(
            TransitionSpec::new("back")
                .consumes(1, 1)
                .produces(0, 1)
                .distribution(Dist::deterministic(0.5)),
        );
        net
    }

    #[test]
    fn steps_advance_clock_and_marking() {
        let net = ping_pong();
        let mut rng = StdRng::seed_from_u64(1);
        let mut engine = SimulationEngine::new(&net);
        assert_eq!(engine.clock(), 0.0);
        let s1 = engine.step(&mut rng).unwrap().unwrap();
        assert_eq!(s1.transition, 0);
        assert_eq!(engine.marking().as_slice(), &[0, 1]);
        assert!(engine.clock() > 0.0);
        let s2 = engine.step(&mut rng).unwrap().unwrap();
        assert_eq!(s2.transition, 1);
        assert_eq!(s2.delay, 0.5);
        assert_eq!(engine.marking().as_slice(), &[1, 0]);
        assert_eq!(engine.steps(), 2);
    }

    #[test]
    fn run_until_returns_hitting_time() {
        let net = ping_pong();
        let mut rng = StdRng::seed_from_u64(2);
        let mut stats = RunningStats::new();
        for _ in 0..20_000 {
            let mut engine = SimulationEngine::new(&net);
            let t = engine
                .run_until(&mut rng, |m| m.get(1) == 1, 1e9, 1_000)
                .unwrap()
                .unwrap();
            stats.push(t);
        }
        // Hitting time of "token in b" is Exp(2): mean 0.5.
        assert!((stats.mean() - 0.5).abs() < 4.0 * stats.ci95_half_width());
    }

    #[test]
    fn run_until_respects_cutoffs() {
        let net = ping_pong();
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = SimulationEngine::new(&net);
        // Impossible predicate with tiny step budget.
        assert_eq!(
            engine.run_until(&mut rng, |m| m.get(0) == 99, 1e9, 10),
            Ok(None)
        );
        assert_eq!(engine.steps(), 10);
    }

    #[test]
    fn deadlocked_net_returns_none() {
        let mut net = SmSpn::with_places(&[("p", 1), ("q", 0)]);
        net.add_transition(
            TransitionSpec::new("once")
                .consumes(0, 1)
                .produces(1, 1)
                .distribution(Dist::deterministic(1.0)),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let mut engine = SimulationEngine::new(&net);
        assert!(engine.step(&mut rng).unwrap().is_some());
        assert!(engine.step(&mut rng).unwrap().is_none());
        assert_eq!(engine.marking().as_slice(), &[0, 1]);
    }

    #[test]
    fn weights_respected_in_choice() {
        let mut net = SmSpn::with_places(&[("src", 1), ("a", 0), ("b", 0)]);
        net.add_transition(
            TransitionSpec::new("to_a")
                .consumes(0, 1)
                .produces(1, 1)
                .weight(1.0)
                .distribution(Dist::exponential(1.0)),
        );
        net.add_transition(
            TransitionSpec::new("to_b")
                .consumes(0, 1)
                .produces(2, 1)
                .weight(4.0)
                .distribution(Dist::exponential(1.0)),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut to_b = 0;
        let n = 50_000;
        for _ in 0..n {
            let mut engine = SimulationEngine::new(&net);
            engine.step(&mut rng).unwrap().unwrap();
            if engine.marking().get(2) == 1 {
                to_b += 1;
            }
        }
        let frac = to_b as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.01, "fraction to b: {frac}");
    }

    /// A piece that has no value in the marking the trajectory reaches fails
    /// the step with the error exploration reports, and the run with it.
    #[test]
    fn a_piece_failing_in_a_reached_marking_is_a_typed_error() {
        let mut net = ping_pong();
        net.add_transition(
            TransitionSpec::new("odd")
                .consumes(1, 1)
                .produces(0, 1)
                .weight_fn(|m| Err(format!("no weight with {} tokens", m.get(1)))),
        );
        let mut rng = StdRng::seed_from_u64(6);
        let mut engine = SimulationEngine::new(&net);
        engine.step(&mut rng).unwrap().unwrap();
        let err = engine.step(&mut rng).unwrap_err();
        assert_eq!(
            err.to_string(),
            "transition 'odd' in reachable marking [0, 1]: weight: no weight with 1 tokens"
        );
        assert_eq!(engine.marking().as_slice(), &[0, 1], "state unchanged");
        let mut engine = SimulationEngine::new(&net);
        let run = engine.run_until(&mut rng, |m| m.get(0) == 99, 1e9, 10);
        assert_eq!(run, Err(err));
    }
}

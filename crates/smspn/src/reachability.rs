//! Reachability analysis: from an SM-SPN to its underlying semi-Markov process.
//!
//! A breadth-first exploration from the initial marking enumerates every reachable
//! marking.  Because the SM-SPN's firing rule resolves choice by weight (not by a
//! race of firing-time samples), each explored marking contributes one SMP state
//! whose outgoing kernel entries are `(probability = normalised weight, holding-time
//! distribution = the firing transition's distribution in that marking)` — the
//! direct mapping onto a semi-Markov chain the paper relies on.
//!
//! The walk keeps one copy of everything it learns:
//!
//! * **States are numbered in FIFO order**, so the queue *is* the marking matrix:
//!   state `k` is expanded `k`-th, and a marking is numbered when first reached
//!   (level by level, parent by parent, successor by successor).
//! * **Each marking is stored once**, as a row of one row-major `u32` matrix
//!   (`places` token counts a state, no allocation per state).  The index from
//!   marking to state is an open-addressing table of `u32` state ids hashed by
//!   token row with a fixed hasher; it answers lookups only and is never
//!   iterated, so no hash order reaches a state number (`smp-lint` D002).  It
//!   numbers new markings only, so it is dropped when exploration ends, and
//!   [`StateSpace::state_of`] scans the matrix instead.
//! * **Transitions stream into the [`SmpBuilder`]** as each state is expanded,
//!   straight into the process's flat transition array — no edge list is
//!   kept — and a successor is fired into one scratch marking, which is
//!   copied into the matrix only when it is new.
//! * **A marking-independent sojourn is interned once**, at its transition's
//!   first firing; a marking-dependent one is evaluated and interned per
//!   firing.  Interning runs in firing order either way, so the distribution
//!   pool keeps its first-appearance numbering.
//!
//! A guard, priority, weight, action or sojourn time that fails to evaluate
//! stops the walk with [`ReachabilityError::Evaluation`], naming the transition
//! and the marking.

use crate::enabling::firing_probabilities_into;
use crate::marking::MarkingView;
use crate::net::SmSpn;
use smp_core::smp::DistId;
use smp_core::{SemiMarkovProcess, SmpBuilder, SmpError};

/// Options controlling the state-space exploration.
#[derive(Debug, Clone, Copy)]
pub struct ReachabilityOptions {
    /// Hard cap on the number of markings explored; exceeded ⇒ error (guards
    /// against accidentally exploding models).
    pub max_states: usize,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            max_states: 5_000_000,
        }
    }
}

/// Errors produced by state-space generation.
#[derive(Debug, Clone, PartialEq)]
pub enum ReachabilityError {
    /// The exploration exceeded [`ReachabilityOptions::max_states`].
    StateSpaceTooLarge {
        /// The configured limit.
        limit: usize,
    },
    /// A reachable marking enables no transition at all (the SMP would deadlock).
    DeadlockMarking {
        /// The deadlocked marking (token counts).
        marking: Vec<u32>,
    },
    /// A transition's guard, priority, weight, action or sojourn time could
    /// not be evaluated in a reachable marking, or its action assigned a count
    /// that is not a token count.
    Evaluation {
        /// The transition's name.
        transition: String,
        /// The marking it was evaluated in (token counts).
        marking: Vec<u32>,
        /// What failed, prefixed with the piece it came from.
        message: String,
    },
    /// Converting the reachability graph into an SMP failed.
    Smp(SmpError),
}

impl std::fmt::Display for ReachabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReachabilityError::StateSpaceTooLarge { limit } => {
                write!(
                    f,
                    "state space exceeds the configured limit of {limit} markings"
                )
            }
            ReachabilityError::DeadlockMarking { marking } => {
                write!(
                    f,
                    "reachable marking {marking:?} enables no transition (deadlock)"
                )
            }
            ReachabilityError::Evaluation {
                transition,
                marking,
                message,
            } => write!(
                f,
                "transition '{transition}' in reachable marking {marking:?}: {message}"
            ),
            ReachabilityError::Smp(e) => write!(f, "SMP construction failed: {e}"),
        }
    }
}

impl std::error::Error for ReachabilityError {}

impl From<SmpError> for ReachabilityError {
    fn from(e: SmpError) -> Self {
        ReachabilityError::Smp(e)
    }
}

/// The markings of the states found so far, one row of token counts a state,
/// row-major in one allocation.
#[derive(Debug)]
struct MarkingMatrix {
    tokens: Vec<u32>,
    places: usize,
    len: usize,
}

impl MarkingMatrix {
    fn row(&self, state: usize) -> &[u32] {
        &self.tokens[state * self.places..][..self.places]
    }

    fn push(&mut self, tokens: &[u32]) {
        self.tokens.extend_from_slice(tokens);
        self.len += 1;
    }
}

/// The marking → state index: open addressing with linear probing over `u32`
/// state ids, keyed by the markings' token rows (which live only in the
/// marking matrix).  Lookup only; never iterated.
#[derive(Debug)]
struct MarkingIndex {
    /// `EMPTY` or a state id; the length is a power of two, at most half full.
    slots: Vec<u32>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl MarkingIndex {
    fn new() -> Self {
        MarkingIndex {
            slots: vec![EMPTY; 16],
            len: 0,
        }
    }

    /// A fixed multiplicative hash of the token counts (no per-process seed).
    fn hash(tokens: &[u32]) -> u64 {
        let mut h: u64 = 0;
        for &t in tokens {
            h = (h.rotate_left(5) ^ u64::from(t)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        h
    }

    fn home(&self, tokens: &[u32]) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (Self::hash(tokens) >> (64 - bits)) as usize
    }

    /// The state holding `tokens`, or the empty slot where it would go.
    fn find(&self, markings: &MarkingMatrix, tokens: &[u32]) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(tokens);
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if markings.row(id as usize) == tokens => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Files `id` (whose marking is `markings.row(id)`) in the empty `slot`
    /// that [`Self::find`] returned, growing the table when it passes half
    /// full.
    fn insert(&mut self, slot: usize, id: u32, markings: &MarkingMatrix) {
        self.slots[slot] = id;
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let grown = vec![EMPTY; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            for id in old.into_iter().filter(|&id| id != EMPTY) {
                let tokens = markings.row(id as usize);
                let slot = self.find(markings, tokens).expect_err("ids are distinct");
                self.slots[slot] = id;
            }
        }
    }
}

/// The explored state space of an SM-SPN.
#[derive(Debug)]
pub struct StateSpace {
    markings: MarkingMatrix,
    place_names: Vec<String>,
    smp: SemiMarkovProcess,
}

impl StateSpace {
    /// Explores the net from its initial marking and builds the underlying SMP.
    pub fn explore(net: &SmSpn) -> Result<Self, ReachabilityError> {
        Self::explore_with(net, &ReachabilityOptions::default())
    }

    /// Explores with explicit options.
    pub fn explore_with(
        net: &SmSpn,
        options: &ReachabilityOptions,
    ) -> Result<Self, ReachabilityError> {
        let transitions = net.transitions();
        let limit = options.max_states.min(EMPTY as usize);
        let m0 = net.initial_marking().clone();
        let mut markings = MarkingMatrix {
            tokens: Vec::new(),
            places: m0.len(),
            len: 0,
        };
        let mut index = MarkingIndex::new();
        let slot = index
            .find(&markings, m0.as_slice())
            .expect_err("empty index");
        markings.push(m0.as_slice());
        index.insert(slot, 0, &markings);

        let mut builder = SmpBuilder::new(0);
        // Each transition's pool id, once a marking-independent sojourn has
        // been interned.
        let mut fixed_ids: Vec<Option<DistId>> = vec![None; transitions.len()];
        let mut current = m0.clone();
        let mut next = m0;
        let mut firings: Vec<(usize, f64)> = Vec::new();
        let mut row: Vec<(usize, f64, DistId)> = Vec::new();

        // FIFO order is state order: state `k` is the `k`-th expanded.
        let mut state = 0;
        while state < markings.len {
            current.copy_from(markings.row(state));
            let failed = |transition: usize, message: String| ReachabilityError::Evaluation {
                transition: transitions[transition].name().to_string(),
                marking: current.as_slice().to_vec(),
                message,
            };
            firing_probabilities_into(net, &current, &mut firings)
                .map_err(|e| failed(e.transition, e.message))?;
            if firings.is_empty() {
                return Err(ReachabilityError::DeadlockMarking {
                    marking: current.as_slice().to_vec(),
                });
            }
            row.clear();
            for &(t, probability) in &firings {
                let spec = &transitions[t];
                spec.fire(&current, &mut next)
                    .map_err(|message| failed(t, message))?;
                let target = match index.find(&markings, next.as_slice()) {
                    Ok(id) => id as usize,
                    Err(slot) => {
                        let id = markings.len;
                        if id >= limit {
                            return Err(ReachabilityError::StateSpaceTooLarge {
                                limit: options.max_states,
                            });
                        }
                        markings.push(next.as_slice());
                        index.insert(slot, id as u32, &markings);
                        id
                    }
                };
                // The holding time of a firing is the transition's distribution
                // in the *source* marking.
                let dist = match (fixed_ids[t], spec.fixed_distribution()) {
                    (Some(id), _) => id,
                    (None, Some(fixed)) => {
                        let id = builder.intern_distribution(fixed.clone());
                        fixed_ids[t] = Some(id);
                        id
                    }
                    (None, None) => builder.intern_distribution(
                        spec.distribution_in(&current)
                            .map_err(|message| failed(t, message))?,
                    ),
                };
                row.push((target, probability, dist));
            }
            builder.push_state(&row);
            state += 1;
        }
        // The index only numbers new markings: once every state is expanded
        // it has nothing left to do.
        drop(index);
        markings.tokens.shrink_to_fit();
        let smp = builder.build()?;

        Ok(StateSpace {
            markings,
            place_names: net.place_names().to_vec(),
            smp,
        })
    }

    /// Number of reachable markings (= SMP states).
    pub fn num_states(&self) -> usize {
        self.markings.len
    }

    /// Number of reachability-graph edges (= SMP kernel entries before merging).
    pub fn num_edges(&self) -> usize {
        self.smp.num_transitions()
    }

    /// The marking of a state index.
    pub fn marking(&self, state: usize) -> MarkingView<'_> {
        MarkingView::new(self.markings.row(state))
    }

    /// The state index of a marking, if reachable.  A linear scan of the
    /// marking matrix: the index exploration numbered states with is not
    /// kept.
    pub fn state_of<'m>(&self, marking: impl Into<MarkingView<'m>>) -> Option<usize> {
        let tokens = marking.into().as_slice();
        (0..self.num_states()).find(|&state| self.markings.row(state) == tokens)
    }

    /// The index of the initial marking (always 0).
    pub fn initial_state(&self) -> usize {
        0
    }

    /// The place names of the originating net (indices match marking positions).
    pub fn place_names(&self) -> &[String] {
        &self.place_names
    }

    /// The underlying semi-Markov process.
    pub fn smp(&self) -> &SemiMarkovProcess {
        &self.smp
    }

    /// All state indices whose marking satisfies a predicate — the way experiment
    /// harnesses express target sets such as "all polling units failed".
    pub fn states_where(&self, mut predicate: impl FnMut(MarkingView<'_>) -> bool) -> Vec<usize> {
        (0..self.num_states())
            .filter(|&state| predicate(self.marking(state)))
            .collect()
    }

    /// Heap bytes of the explored model, from lengths and capacities: the
    /// marking matrix, the place names and the process's
    /// [`SemiMarkovProcess::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        let names: usize = self.place_names.iter().map(String::capacity).sum();
        self.markings.tokens.capacity() * std::mem::size_of::<u32>()
            + self.place_names.capacity() * std::mem::size_of::<String>()
            + names
            + self.smp.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::Marking;
    use crate::net::TransitionSpec;
    use smp_distributions::Dist;

    fn ping_pong() -> SmSpn {
        let mut net = SmSpn::with_places(&[("p0", 1), ("p1", 0)]);
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
                .distribution(Dist::uniform(0.0, 1.0)),
        );
        net
    }

    /// The paper's voting net (places p1…p7 as in `smp-voting`), with
    /// exponential holding times: the shape, not the timing, matters here.
    fn voting(cc: u32, mm: u32, nn: u32) -> SmSpn {
        let mut net = SmSpn::with_places(&[
            ("p1", cc),
            ("p2", 0),
            ("p3", mm),
            ("p4", 0),
            ("p5", nn),
            ("p6", 0),
            ("p7", 0),
        ]);
        let exp = Dist::exponential(1.0);
        let arcs = |name: &str, from: &[usize], to: &[usize]| {
            let mut t = TransitionSpec::new(name).distribution(exp.clone());
            for &p in from {
                t = t.consumes(p, 1);
            }
            for &p in to {
                t = t.produces(p, 1);
            }
            t
        };
        net.add_transition(arcs("vote", &[0, 2], &[1, 3]));
        net.add_transition(arcs("register", &[3], &[2]).guard(|m| Ok(m.get(4) >= 1)));
        net.add_transition(arcs("polling_failure", &[2], &[6]));
        net.add_transition(arcs("central_failure", &[4], &[5]));
        net.add_transition(
            TransitionSpec::new("polling_repair")
                .guard(move |m| Ok(m.get(6) > mm - 1))
                .action(move |m, next| {
                    next.set(2, m.get(2) + mm);
                    next.set(6, m.get(6) - mm);
                    Ok(())
                })
                .priority(2)
                .distribution(exp.clone()),
        );
        net.add_transition(
            TransitionSpec::new("central_repair")
                .guard(move |m| Ok(m.get(5) > nn - 1))
                .action(move |m, next| {
                    next.set(4, m.get(4) + nn);
                    next.set(5, m.get(5) - nn);
                    Ok(())
                })
                .priority(2)
                .distribution(exp.clone()),
        );
        net.add_transition(arcs("polling_recovery", &[6], &[2]).guard(move |m| Ok(m.get(6) < mm)));
        net.add_transition(arcs("central_recovery", &[5], &[4]).guard(move |m| Ok(m.get(5) < nn)));
        net.add_transition(arcs("voter_return", &[1], &[0]));
        net
    }

    #[test]
    fn ping_pong_has_two_states() {
        let space = StateSpace::explore(&ping_pong()).unwrap();
        assert_eq!(space.num_states(), 2);
        assert_eq!(space.num_edges(), 2);
        assert_eq!(space.initial_state(), 0);
        assert_eq!(space.marking(0).as_slice(), &[1, 0]);
        assert_eq!(space.marking(1).as_slice(), &[0, 1]);
        assert_eq!(space.state_of(&Marking::new(vec![0, 1])), Some(1));
        assert_eq!(space.state_of(&Marking::new(vec![2, 0])), None);

        // Voting 5,2,2 grows the marking index past its first table four
        // times; every marking still finds its own state.
        let space = StateSpace::explore(&voting(5, 2, 2)).unwrap();
        assert_eq!(space.num_states(), 102);
        assert_eq!(space.num_edges(), 308);
        for state in 0..space.num_states() {
            assert_eq!(space.state_of(space.marking(state)), Some(state));
        }
        // Voters are conserved (p1 + p2 = 5), and so are polling units.
        assert_eq!(
            space.state_of(&Marking::new(vec![4, 0, 2, 0, 2, 0, 0])),
            None
        );
        assert_eq!(
            space.state_of(&Marking::new(vec![5, 0, 2, 0, 2, 0, 1])),
            None
        );
        assert_eq!(space.state_of(&Marking::new(vec![5, 0, 2])), None);
    }

    /// The explored model is stored flat: 16 bytes a transition and 4 a row
    /// offset in the process, `4 × places` bytes a marking beside it, and
    /// nothing allocated per state.
    #[test]
    fn the_explored_model_is_stored_flat() {
        use std::mem::size_of;
        let space = StateSpace::explore(&voting(10, 4, 2)).unwrap();
        let smp = space.smp();
        let (states, places) = (space.num_states(), space.place_names().len());
        assert_eq!(size_of::<smp_core::smp::Transition>(), 16);
        let pool = smp.num_distributions() * size_of::<Dist>();
        assert_eq!(
            smp.heap_bytes(),
            16 * smp.num_transitions() + 4 * (states + 1) + pool
        );
        let names: usize = space
            .place_names()
            .iter()
            .map(|name| size_of::<String>() + name.capacity())
            .sum();
        assert_eq!(
            space.heap_bytes() - smp.heap_bytes() - names,
            4 * places * states
        );
    }

    #[test]
    fn smp_kernel_reflects_weights_and_distributions() {
        // One token, two competing transitions with weights 1 and 3.
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
                .weight(3.0)
                .distribution(Dist::deterministic(2.0)),
        );
        net.add_transition(
            TransitionSpec::new("reset_a")
                .consumes(1, 1)
                .produces(0, 1)
                .distribution(Dist::exponential(1.0)),
        );
        net.add_transition(
            TransitionSpec::new("reset_b")
                .consumes(2, 1)
                .produces(0, 1)
                .distribution(Dist::exponential(1.0)),
        );
        let space = StateSpace::explore(&net).unwrap();
        assert_eq!(space.num_states(), 3);
        let smp = space.smp();
        let from0 = smp.transitions(0);
        assert_eq!(from0.len(), 2);
        let a_state = space.state_of(&Marking::new(vec![0, 1, 0])).unwrap();
        let b_state = space.state_of(&Marking::new(vec![0, 0, 1])).unwrap();
        for tr in from0 {
            if tr.target as usize == a_state {
                assert!((tr.probability - 0.25).abs() < 1e-12);
                assert_eq!(smp.distribution(tr.dist), &Dist::exponential(1.0));
            } else {
                assert_eq!(tr.target as usize, b_state);
                assert!((tr.probability - 0.75).abs() < 1e-12);
                assert_eq!(smp.distribution(tr.dist), &Dist::deterministic(2.0));
            }
        }
    }

    #[test]
    fn marking_dependent_distribution_varies_by_state() {
        // Tokens drain one at a time; the firing distribution depends on the count.
        let mut net = SmSpn::with_places(&[("tokens", 3), ("done", 0)]);
        net.add_transition(
            TransitionSpec::new("drain")
                .consumes(0, 1)
                .produces(1, 1)
                .distribution_fn(|m| Ok(Dist::erlang(1.0, m.get(0)))),
        );
        net.add_transition(
            TransitionSpec::new("refill")
                .guard(|m| Ok(m.get(0) == 0))
                .action(|_, next| {
                    next.set(0, 3);
                    next.set(1, 0);
                    Ok(())
                })
                .distribution(Dist::exponential(5.0)),
        );
        let space = StateSpace::explore(&net).unwrap();
        assert_eq!(space.num_states(), 4);
        let smp = space.smp();
        // State with 3 tokens uses Erlang-3, with 1 token Erlang-1.
        let s3 = space.state_of(&Marking::new(vec![3, 0])).unwrap();
        let s1 = space.state_of(&Marking::new(vec![1, 2])).unwrap();
        assert_eq!(
            smp.distribution(smp.transitions(s3)[0].dist),
            &Dist::erlang(1.0, 3)
        );
        assert_eq!(
            smp.distribution(smp.transitions(s1)[0].dist),
            &Dist::erlang(1.0, 1)
        );
    }

    #[test]
    fn tandem_counts_match_closed_form() {
        // K tokens circulating through 3 places: number of markings is C(K+2, 2).
        let k = 4u32;
        let mut net = SmSpn::with_places(&[("a", k), ("b", 0), ("c", 0)]);
        for (name, from, to) in [("ab", 0usize, 1usize), ("bc", 1, 2), ("ca", 2, 0)] {
            net.add_transition(
                TransitionSpec::new(name)
                    .consumes(from, 1)
                    .produces(to, 1)
                    .distribution(Dist::exponential(1.0)),
            );
        }
        let space = StateSpace::explore(&net).unwrap();
        let expect = (k + 2) * (k + 1) / 2;
        assert_eq!(space.num_states(), expect as usize);
        // Every state has between 1 and 3 outgoing edges and the SMP is well formed.
        for s in 0..space.num_states() {
            let d = space.smp().transitions(s).len();
            assert!((1..=3).contains(&d));
        }
    }

    #[test]
    fn states_where_selects_by_predicate() {
        let space = StateSpace::explore(&ping_pong()).unwrap();
        let with_token_in_p1 = space.states_where(|m| m.get(1) > 0);
        assert_eq!(with_token_in_p1, vec![1]);
    }

    #[test]
    fn deadlock_marking_detected() {
        let mut net = SmSpn::with_places(&[("p", 1), ("sink", 0)]);
        net.add_transition(
            TransitionSpec::new("once")
                .consumes(0, 1)
                .produces(1, 1)
                .distribution(Dist::exponential(1.0)),
        );
        let err = StateSpace::explore(&net).unwrap_err();
        assert!(matches!(err, ReachabilityError::DeadlockMarking { .. }));
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn a_piece_failing_in_a_reachable_marking_is_a_typed_error() {
        // The weight fails only once the token has moved: in marking (0,1).
        let mut net = ping_pong();
        net.add_transition(
            TransitionSpec::new("odd")
                .consumes(1, 1)
                .produces(0, 1)
                .weight_fn(|m| Err(format!("no weight with {} tokens", m.get(1)))),
        );
        let err = StateSpace::explore(&net).unwrap_err();
        assert_eq!(
            err,
            ReachabilityError::Evaluation {
                transition: "odd".into(),
                marking: vec![0, 1],
                message: "weight: no weight with 1 tokens".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "transition 'odd' in reachable marking [0, 1]: weight: no weight with 1 tokens"
        );

        let mut net = ping_pong();
        net.add_transition(
            TransitionSpec::new("sojourn")
                .consumes(0, 1)
                .produces(1, 1)
                .distribution_fn(|_| Err("rate 0".into())),
        );
        let err = StateSpace::explore(&net).unwrap_err();
        assert!(
            matches!(&err, ReachabilityError::Evaluation { transition, marking, message }
                if transition == "sojourn" && marking == &[1, 0] && message == "sojourn time: rate 0"),
            "{err}"
        );
    }

    #[test]
    fn state_space_limit_enforced() {
        // An unbounded counter: exploring must stop at the limit.
        let mut net = SmSpn::with_places(&[("p", 0)]);
        net.add_transition(
            TransitionSpec::new("grow")
                .produces(0, 1)
                .distribution(Dist::exponential(1.0)),
        );
        let err =
            StateSpace::explore_with(&net, &ReachabilityOptions { max_states: 100 }).unwrap_err();
        assert!(matches!(
            err,
            ReachabilityError::StateSpaceTooLarge { limit: 100 }
        ));
    }

    #[test]
    fn priorities_prune_the_state_space() {
        // A high-priority "repair" transition masks degradation whenever any unit is
        // failed, so the fully-failed marking is never reached.
        let mut net = SmSpn::with_places(&[("ok", 1), ("failed", 1)]);
        net.add_transition(
            TransitionSpec::new("degrade")
                .consumes(0, 1)
                .produces(1, 1)
                .priority(1)
                .distribution(Dist::exponential(1.0)),
        );
        net.add_transition(
            TransitionSpec::new("repair")
                .consumes(1, 1)
                .produces(0, 1)
                .priority(2)
                .distribution(Dist::deterministic(1.0)),
        );
        let space = StateSpace::explore(&net).unwrap();
        // In (1,1) only "repair" may fire (priority 2), so the fully-degraded
        // marking (0,2) — reachable only through the masked "degrade" — never
        // appears, while (2,0) does.
        assert_eq!(space.num_states(), 2);
        assert!(space.state_of(&Marking::new(vec![0, 2])).is_none());
        assert!(space.state_of(&Marking::new(vec![2, 0])).is_some());
    }
}

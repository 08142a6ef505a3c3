//! The SM-SPN of the distributed voting system (Fig. 2 of the paper).
//!
//! Places (indices in parentheses):
//!
//! | place | meaning                                   | initial tokens |
//! |-------|-------------------------------------------|----------------|
//! | `p1` (0) | voting agents still to vote            | `CC`           |
//! | `p2` (1) | voting agents that have voted          | 0              |
//! | `p3` (2) | operational, idle polling units        | `MM`           |
//! | `p4` (3) | polling units busy processing a vote   | 0              |
//! | `p5` (4) | operational central voting units       | `NN`           |
//! | `p6` (5) | failed central voting units            | 0              |
//! | `p7` (6) | failed polling units                   | 0              |
//!
//! Transitions:
//!
//! * `t1` — a voter casts a vote: `p1 → p2`, claiming an idle polling unit `p3 → p4`;
//! * `t2` — the polling unit registers the vote with the operational central units
//!   (requires at least one in `p5`) and becomes idle again: `p4 → p3`;
//! * `t3` — an idle polling unit breaks down: `p3 → p7`;
//! * `t4` — a central voting unit breaks down: `p5 → p6`;
//! * `t5` — *high-priority* full repair of the polling units, enabled when **all**
//!   `MM` have failed: moves `MM` tokens `p7 → p3` (this is the transition whose
//!   DNAmaca definition is printed in Fig. 3 of the paper, firing distribution
//!   `0.8·uniform(1.5,10) + 0.2·Erlang(0.001,5)`);
//! * `t6` — high-priority full repair of the central units when all `NN` have failed;
//! * `t7` / `t8` — low-priority self-recovery of a single failed polling / central
//!   unit, enabled only while *some but not all* units of that kind are failed;
//! * `t9` — a voter that has voted eventually re-enters the queue (`p2 → p1`),
//!   modelling successive polls; this keeps the SMP irreducible so that
//!   steady-state and transient quantities (Fig. 7) are well defined.
//!
//! The paper prints only `t5`'s firing distribution; the others are configurable
//! through [`VotingDistributions`] with defaults chosen to give the same qualitative
//! behaviour (see the substitution note in the workspace `README.md`, which gives
//! the resulting gap to the paper's numbers).

use smp_distributions::Dist;
use smp_smspn::{MarkingView, ReachabilityOptions, SmSpn, StateSpace, TransitionSpec};

/// Place indices of the voting net, for readability.
pub mod places {
    /// Voters still to vote.
    pub const P1_WAITING: usize = 0;
    /// Voters that have voted.
    pub const P2_VOTED: usize = 1;
    /// Operational idle polling units.
    pub const P3_POLLING_IDLE: usize = 2;
    /// Polling units busy processing a vote.
    pub const P4_POLLING_BUSY: usize = 3;
    /// Operational central voting units.
    pub const P5_CENTRAL_OK: usize = 4;
    /// Failed central voting units.
    pub const P6_CENTRAL_FAILED: usize = 5;
    /// Failed polling units.
    pub const P7_POLLING_FAILED: usize = 6;
}

/// Sizing parameters of a voting system instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VotingConfig {
    /// `CC` — number of voting agents.
    pub voters: u32,
    /// `MM` — number of polling units.
    pub polling_units: u32,
    /// `NN` — number of central voting units.
    pub central_units: u32,
}

impl VotingConfig {
    /// Creates a configuration, validating that every population is non-empty.
    pub fn new(voters: u32, polling_units: u32, central_units: u32) -> Self {
        assert!(
            voters >= 1 && polling_units >= 1 && central_units >= 1,
            "voting system needs at least one voter, polling unit and central unit"
        );
        VotingConfig {
            voters,
            polling_units,
            central_units,
        }
    }

    /// Upper bound on the reachable state count implied by the three token
    /// invariants `p1+p2 = CC`, `p3+p4+p7 = MM`, `p5+p6 = NN`:
    /// `(CC+1) · C(MM+2, 2) · (NN+1)`.
    pub fn state_count_upper_bound(&self) -> u64 {
        let cc = self.voters as u64;
        let mm = self.polling_units as u64;
        let nn = self.central_units as u64;
        (cc + 1) * ((mm + 2) * (mm + 1) / 2) * (nn + 1)
    }
}

/// Firing-time distributions of the voting net's transitions.
#[derive(Debug, Clone)]
pub struct VotingDistributions {
    /// `t1` — time for a voting agent to cast a vote at a polling unit.
    pub vote: Dist,
    /// `t2` — time for a polling unit to register a vote with the central units.
    pub register: Dist,
    /// `t3` — time to failure of an idle polling unit.
    pub polling_failure: Dist,
    /// `t4` — time to failure of a central voting unit.
    pub central_failure: Dist,
    /// `t5` — full repair of all polling units (the distribution of Fig. 3).
    pub polling_full_repair: Dist,
    /// `t6` — full repair of all central voting units.
    pub central_full_repair: Dist,
    /// `t7` — self-recovery of a single polling unit.
    pub polling_self_recovery: Dist,
    /// `t8` — self-recovery of a single central voting unit.
    pub central_self_recovery: Dist,
    /// `t9` — a voter re-enters the queue for the next poll.
    pub voter_return: Dist,
    /// Probabilistic-choice weights of the nine transitions, in the order
    /// `(t1, …, t9)`.  The SM-SPN semantics resolves the choice among concurrently
    /// enabled transitions by weight (not by racing firing-time samples), so these
    /// weights control how often voting, breakdown, recovery and voter-return events
    /// are selected; the defaults make voting dominant and breakdowns rare, giving
    /// the qualitative behaviour of the paper's figures.
    pub weights: [f64; 9],
}

impl Default for VotingDistributions {
    fn default() -> Self {
        VotingDistributions {
            vote: Dist::uniform(0.2, 1.2),
            register: Dist::erlang(4.0, 2),
            polling_failure: Dist::exponential(0.02),
            central_failure: Dist::exponential(0.01),
            // Fig. 3 of the paper: 0.8·uniformLT(1.5, 10) + 0.2·erlangLT(0.001, 5).
            polling_full_repair: Dist::mixture(vec![
                (0.8, Dist::uniform(1.5, 10.0)),
                (0.2, Dist::erlang(0.001, 5)),
            ]),
            central_full_repair: Dist::mixture(vec![
                (0.8, Dist::uniform(1.5, 10.0)),
                (0.2, Dist::erlang(0.001, 5)),
            ]),
            polling_self_recovery: Dist::erlang(2.0, 2),
            central_self_recovery: Dist::uniform(0.5, 1.5),
            voter_return: Dist::exponential(0.05),
            // (t1 vote, t2 register, t3 poll-fail, t4 central-fail, t5 full repair,
            //  t6 full repair, t7 self-recover, t8 self-recover, t9 voter return)
            weights: [20.0, 20.0, 0.2, 0.1, 1.0, 1.0, 2.0, 2.0, 0.5],
        }
    }
}

/// A fully built voting system: the SM-SPN, its explored state space and the
/// underlying SMP, plus helpers naming the paper's source/target sets.
#[derive(Debug)]
pub struct VotingSystem {
    config: VotingConfig,
    state_space: StateSpace,
}

impl VotingSystem {
    /// Builds the SM-SPN for a configuration with the default distributions.
    pub fn build(config: VotingConfig) -> Result<Self, Box<dyn std::error::Error>> {
        Self::build_with(
            config,
            &VotingDistributions::default(),
            &ReachabilityOptions::default(),
        )
    }

    /// Builds with explicit distributions and exploration options.
    pub fn build_with(
        config: VotingConfig,
        dists: &VotingDistributions,
        options: &ReachabilityOptions,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let net = build_net(config, dists);
        let state_space = StateSpace::explore_with(&net, options)?;
        Ok(VotingSystem {
            config,
            state_space,
        })
    }

    /// The sizing parameters.
    pub fn config(&self) -> VotingConfig {
        self.config
    }

    /// The explored state space.
    pub fn state_space(&self) -> &StateSpace {
        &self.state_space
    }

    /// The underlying semi-Markov process.
    pub fn smp(&self) -> &smp_core::SemiMarkovProcess {
        self.state_space.smp()
    }

    /// The state index of the fully-operational initial marking.
    pub fn initial_state(&self) -> usize {
        self.state_space.initial_state()
    }

    /// Target set for "at least `k` voters have voted" (the voter-throughput
    /// passage of Figs. 4, 5 and 7 uses `k = CC` or `k = 5`).
    pub fn states_with_voted_at_least(&self, k: u32) -> Vec<usize> {
        self.state_space
            .states_where(|m| m.get(places::P2_VOTED) >= k)
    }

    /// Target set for the failure mode of Fig. 6: *all* polling units failed or
    /// *all* central voting units failed.
    pub fn failure_mode_states(&self) -> Vec<usize> {
        let mm = self.config.polling_units;
        let nn = self.config.central_units;
        self.state_space.states_where(|m| {
            m.get(places::P7_POLLING_FAILED) >= mm || m.get(places::P6_CENTRAL_FAILED) >= nn
        })
    }

    /// Convenience: the marking of a state.
    pub fn marking(&self, state: usize) -> MarkingView<'_> {
        self.state_space.marking(state)
    }

    /// Number of reachable states (compare against Table 1 of the paper).
    pub fn num_states(&self) -> usize {
        self.state_space.num_states()
    }
}

/// Builds the SM-SPN of Fig. 2 for a configuration.
pub fn build_net(config: VotingConfig, dists: &VotingDistributions) -> SmSpn {
    use places::*;
    let cc = config.voters;
    let mm = config.polling_units;
    let nn = config.central_units;

    let mut net = SmSpn::with_places(&[
        ("p1", cc),
        ("p2", 0),
        ("p3", mm),
        ("p4", 0),
        ("p5", nn),
        ("p6", 0),
        ("p7", 0),
    ]);

    // t1: a voter casts a vote, claiming an idle polling unit.
    net.add_transition(
        TransitionSpec::new("t1_vote")
            .consumes(P1_WAITING, 1)
            .consumes(P3_POLLING_IDLE, 1)
            .produces(P2_VOTED, 1)
            .produces(P4_POLLING_BUSY, 1)
            .weight(dists.weights[0])
            .priority(1)
            .distribution(dists.vote.clone()),
    );

    // t2: the polling unit registers the vote with the operational central units
    // (needs at least one) and becomes idle again.
    net.add_transition(
        TransitionSpec::new("t2_register")
            .consumes(P4_POLLING_BUSY, 1)
            .produces(P3_POLLING_IDLE, 1)
            .guard(|m| Ok(m.get(P5_CENTRAL_OK) >= 1))
            .weight(dists.weights[1])
            .priority(1)
            .distribution(dists.register.clone()),
    );

    // t3: an idle polling unit fails.
    net.add_transition(
        TransitionSpec::new("t3_polling_failure")
            .consumes(P3_POLLING_IDLE, 1)
            .produces(P7_POLLING_FAILED, 1)
            .weight(dists.weights[2])
            .priority(1)
            .distribution(dists.polling_failure.clone()),
    );

    // t4: a central voting unit fails.
    net.add_transition(
        TransitionSpec::new("t4_central_failure")
            .consumes(P5_CENTRAL_OK, 1)
            .produces(P6_CENTRAL_FAILED, 1)
            .weight(dists.weights[3])
            .priority(1)
            .distribution(dists.central_failure.clone()),
    );

    // t5: high-priority full repair of the polling units — the transition whose
    // DNAmaca definition appears in Fig. 3 of the paper.
    net.add_transition(
        TransitionSpec::new("t5_polling_full_repair")
            .guard(move |m| Ok(m.get(P7_POLLING_FAILED) > mm - 1))
            .action(move |m, next| {
                next.set(P3_POLLING_IDLE, m.get(P3_POLLING_IDLE) + mm);
                next.set(P7_POLLING_FAILED, m.get(P7_POLLING_FAILED) - mm);
                Ok(())
            })
            .weight(dists.weights[4])
            .priority(2)
            .distribution(dists.polling_full_repair.clone()),
    );

    // t6: high-priority full repair of the central voting units.
    net.add_transition(
        TransitionSpec::new("t6_central_full_repair")
            .guard(move |m| Ok(m.get(P6_CENTRAL_FAILED) > nn - 1))
            .action(move |m, next| {
                next.set(P5_CENTRAL_OK, m.get(P5_CENTRAL_OK) + nn);
                next.set(P6_CENTRAL_FAILED, m.get(P6_CENTRAL_FAILED) - nn);
                Ok(())
            })
            .weight(dists.weights[5])
            .priority(2)
            .distribution(dists.central_full_repair.clone()),
    );

    // t7: self-recovery of a single polling unit (only while not all have failed —
    // complete failure is handled by the high-priority t5).
    net.add_transition(
        TransitionSpec::new("t7_polling_self_recovery")
            .consumes(P7_POLLING_FAILED, 1)
            .produces(P3_POLLING_IDLE, 1)
            .guard(move |m| Ok(m.get(P7_POLLING_FAILED) < mm))
            .weight(dists.weights[6])
            .priority(1)
            .distribution(dists.polling_self_recovery.clone()),
    );

    // t8: self-recovery of a single central voting unit.
    net.add_transition(
        TransitionSpec::new("t8_central_self_recovery")
            .consumes(P6_CENTRAL_FAILED, 1)
            .produces(P5_CENTRAL_OK, 1)
            .guard(move |m| Ok(m.get(P6_CENTRAL_FAILED) < nn))
            .weight(dists.weights[7])
            .priority(1)
            .distribution(dists.central_self_recovery.clone()),
    );

    // t9: a voter that has voted eventually re-enters the queue for the next poll.
    net.add_transition(
        TransitionSpec::new("t9_voter_return")
            .consumes(P2_VOTED, 1)
            .produces(P1_WAITING, 1)
            .weight(dists.weights[8])
            .priority(1)
            .distribution(dists.voter_return.clone()),
    );

    net
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> VotingSystem {
        // A deliberately small instance for fast unit tests.
        VotingSystem::build(VotingConfig::new(3, 2, 2)).unwrap()
    }

    #[test]
    fn invariants_hold_in_every_reachable_marking() {
        let sys = tiny();
        let cfg = sys.config();
        for s in 0..sys.num_states() {
            let m = sys.marking(s);
            assert_eq!(
                m.get(places::P1_WAITING) + m.get(places::P2_VOTED),
                cfg.voters,
                "voter invariant violated in {m}"
            );
            assert_eq!(
                m.get(places::P3_POLLING_IDLE)
                    + m.get(places::P4_POLLING_BUSY)
                    + m.get(places::P7_POLLING_FAILED),
                cfg.polling_units,
                "polling invariant violated in {m}"
            );
            assert_eq!(
                m.get(places::P5_CENTRAL_OK) + m.get(places::P6_CENTRAL_FAILED),
                cfg.central_units,
                "central invariant violated in {m}"
            );
        }
    }

    #[test]
    fn state_count_within_upper_bound() {
        let sys = tiny();
        let bound = sys.config().state_count_upper_bound();
        assert!(sys.num_states() as u64 <= bound);
        // The bound is tight to within a few percent (unreachable markings are rare).
        assert!((sys.num_states() as u64) * 100 >= bound * 90);
    }

    #[test]
    fn initial_state_is_fully_operational() {
        let sys = tiny();
        let m = sys.marking(sys.initial_state());
        assert_eq!(m.get(places::P1_WAITING), 3);
        assert_eq!(m.get(places::P3_POLLING_IDLE), 2);
        assert_eq!(m.get(places::P5_CENTRAL_OK), 2);
        assert_eq!(m.get(places::P2_VOTED), 0);
    }

    #[test]
    fn target_sets_are_non_empty_and_consistent() {
        let sys = tiny();
        let all_voted = sys.states_with_voted_at_least(3);
        assert!(!all_voted.is_empty());
        for &s in &all_voted {
            assert_eq!(sys.marking(s).get(places::P2_VOTED), 3);
        }
        let some_voted = sys.states_with_voted_at_least(1);
        assert!(some_voted.len() > all_voted.len());
        let failures = sys.failure_mode_states();
        assert!(!failures.is_empty());
        for &s in &failures {
            let m = sys.marking(s);
            assert!(m.get(places::P7_POLLING_FAILED) == 2 || m.get(places::P6_CENTRAL_FAILED) == 2);
        }
        // The initial state is in neither target set.
        assert!(!all_voted.contains(&sys.initial_state()));
        assert!(!failures.contains(&sys.initial_state()));
    }

    #[test]
    fn smp_is_well_formed() {
        let sys = tiny();
        let smp = sys.smp();
        assert_eq!(smp.num_states(), sys.num_states());
        let p = smp.embedded_dtmc();
        smp_sparse_assert_stochastic(&p);
        // A transition out of the initial state uses the `vote` distribution.
        let uses_vote = smp
            .transitions(sys.initial_state())
            .iter()
            .any(|t| smp.distribution(t.dist) == &VotingDistributions::default().vote);
        assert!(uses_vote);
    }

    fn smp_sparse_assert_stochastic(p: &smp_sparse::CsrMatrix<f64>) {
        assert_eq!(p.rows(), p.cols(), "transition matrix must be square");
        for r in 0..p.rows() {
            let sum: f64 = p.row(r).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() <= 1e-9, "row {r} sums to {sum}, not 1");
        }
    }

    #[test]
    fn full_repair_uses_paper_distribution() {
        let sys = tiny();
        let smp = sys.smp();
        // Find a state where all polling units have failed: its only outgoing
        // transition (priority 2 full repair) must carry the Fig. 3 mixture.
        let failed = sys
            .state_space()
            .states_where(|m| m.get(places::P7_POLLING_FAILED) == 2);
        assert!(!failed.is_empty());
        let expected = VotingDistributions::default().polling_full_repair;
        for &s in &failed {
            let out = smp.transitions(s);
            assert_eq!(out.len(), 1, "full repair must mask all other transitions");
            assert_eq!(smp.distribution(out[0].dist), &expected);
        }
    }

    #[test]
    fn paper_state_counts_small_configs() {
        // Scaled-down sanity check of the Table 1 structure: count grows with each
        // parameter and stays near the invariant bound.
        let small = VotingSystem::build(VotingConfig::new(2, 2, 1)).unwrap();
        let bigger_voters = VotingSystem::build(VotingConfig::new(4, 2, 1)).unwrap();
        let bigger_polling = VotingSystem::build(VotingConfig::new(2, 4, 1)).unwrap();
        assert!(bigger_voters.num_states() > small.num_states());
        assert!(bigger_polling.num_states() > small.num_states());
    }

    #[test]
    #[should_panic(expected = "at least one voter")]
    fn zero_population_rejected() {
        VotingConfig::new(0, 1, 1);
    }

    #[test]
    fn state_count_formula() {
        let cfg = VotingConfig::new(18, 6, 3);
        assert_eq!(cfg.state_count_upper_bound(), 19 * 28 * 4);
    }
}

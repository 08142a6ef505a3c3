//! The lane width a model runs at moves no bit: a chunk of any length, cut
//! into blocks of the model's width (`workspace::lanes_for`) with its
//! remainder in the narrowest block that holds it, returns for every point
//! the value bits and the iteration count of the one-lane kernel evaluating
//! that point alone.
//!
//! Plans of 1 to 17 points meet every remainder rule at both widths: at
//! eight lanes a padded eight-lane block (5–7 left), a four-lane block
//! (2–4 left) and the single-lane kernel (1 left); at four lanes a four-lane
//! block and the single-lane kernel.

use smp_core::workspace::{lanes_for, BLOCK_LANES};
use smp_core::{PassageTimeSolver, SemiMarkovProcess, SmpBuilder};
use smp_distributions::Dist;
use smp_laplace::{InversionMethod, SPointPlan};
use smp_numeric::Complex64;
use smp_voting::{VotingConfig, VotingSystem};

/// Seventeen `s`-points spread over the Euler plan of one `t`-point: the
/// plan's first point, where iterations are many, to its last, where they
/// are few.
fn points() -> Vec<Complex64> {
    let plan = SPointPlan::new(InversionMethod::euler(), &[20.0]);
    let all = plan.s_points();
    (0..17).map(|i| all[i * (all.len() - 1) / 16]).collect()
}

/// Every prefix of `points` through `transform_many` against each point
/// through `transform_at`: value bits and iteration count.
fn every_plan_answers_with_the_one_lane_bits(solver: &PassageTimeSolver<'_>, width: usize) {
    assert_eq!(lanes_for(solver.smp().num_states()), width);
    let points = points();
    let alone: Vec<_> = points
        .iter()
        .map(|&s| solver.transform_at(s).expect("a point converges alone"))
        .collect();
    for n in 1..=points.len() {
        let chunk = solver.transform_many(&points[..n]);
        assert_eq!(chunk.len(), n);
        for (l, (got, want)) in chunk.iter().zip(&alone).enumerate() {
            let got = got.as_ref().expect("a point converges in a block");
            assert_eq!(
                (got.value.re.to_bits(), got.value.im.to_bits()),
                (want.value.re.to_bits(), want.value.im.to_bits()),
                "width {width}, plan of {n}, point {l}"
            );
            assert_eq!(
                got.iterations, want.iterations,
                "width {width}, plan of {n}, point {l}"
            );
        }
    }
}

/// The paper's system 0 (voting 18,6,3: 2,109 states) runs eight lanes.
#[test]
fn system_0_answers_alike_at_eight_lanes() {
    let system = VotingSystem::build(VotingConfig::new(18, 6, 3)).unwrap();
    let targets = system.states_with_voted_at_least(18);
    let solver = PassageTimeSolver::new(system.smp(), &[system.initial_state()], &targets).unwrap();
    every_plan_answers_with_the_one_lane_bits(&solver, BLOCK_LANES);
}

/// A fan of `spokes` states between a hub and an absorbing target, padded
/// with `idle` states to a given size: the hub picks a spoke, and a spoke
/// finishes or falls back to the hub.  Spokes carry four holding-time
/// distributions and finishing probabilities, so the points' iteration
/// counts differ.  The idle states lead to the hub but nothing leads to
/// them, so they size the iterate vectors without adding rounds' work.
fn fan(spokes: usize, idle: usize) -> SemiMarkovProcess {
    let (hub, target) = (0, spokes + 1);
    let mut b = SmpBuilder::new(spokes + 2 + idle);
    let timings = [
        (0.9, Dist::exponential(2.0)),
        (0.8, Dist::erlang(3.0, 2)),
        (0.85, Dist::uniform(0.2, 0.9)),
        (0.75, Dist::deterministic(0.3)),
    ];
    for spoke in 1..=spokes {
        b.add_transition(hub, spoke, 1.0, Dist::exponential(5.0));
        let (finish, sojourn) = &timings[spoke % timings.len()];
        b.add_transition(spoke, target, *finish, sojourn.clone());
        b.add_transition(spoke, hub, 1.0 - finish, sojourn.clone());
    }
    b.add_transition(target, hub, 1.0, Dist::exponential(1.0));
    for state in target + 1..target + 1 + idle {
        b.add_transition(state, hub, 1.0, Dist::exponential(1.0));
    }
    b.build().unwrap()
}

/// A model one state past the budget of eight lanes runs four.  Its 4,200
/// spokes are more than a quarter of its states, so the steps go dense.
#[test]
fn a_model_past_the_budget_answers_alike_at_four_lanes() {
    let smp = fan(4_200, 12_183);
    assert_eq!(smp.num_states(), 16_385);
    let solver = PassageTimeSolver::new(&smp, &[0], &[4_201]).unwrap();
    every_plan_answers_with_the_one_lane_bits(&solver, 4);
}

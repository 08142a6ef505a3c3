//! End-to-end integration tests on the voting model: SM-SPN → state space → SMP →
//! iterative passage-time analysis → numerical inversion, cross-validated against
//! discrete-event simulation (the paper's own validation methodology).

use rand::rngs::StdRng;
use rand::SeedableRng;
use smp_suite::core::query::{Engine, MeasureRequest};
use smp_suite::core::{steady_state_probability, IterationOptions, PassageTimeSolver, StateSet};
use smp_suite::laplace::{InversionMethod, MeasureKind};
use smp_suite::numeric::stats::{lerp_table, linspace};
use smp_suite::pipeline::{
    AnalyticEngine, DistributedEngine, ModelSpec, PipelineOptions, TargetSpec,
};
use smp_suite::simulator::smp_sim::{simulate_smp_passage_times, simulate_smp_transient};
use smp_suite::voting::{VotingConfig, VotingSystem};

fn tiny_system() -> VotingSystem {
    VotingSystem::build(VotingConfig::new(4, 2, 2)).expect("build tiny voting system")
}

fn transient_solver<'a>(
    smp: &'a smp_suite::core::SemiMarkovProcess,
    source: usize,
    targets: &[usize],
) -> PassageTimeSolver<'a> {
    PassageTimeSolver::transient(smp, &[source], targets, IterationOptions::default()).unwrap()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn analytic_voter_passage_matches_simulation() {
    let system = tiny_system();
    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(4);

    let solver = PassageTimeSolver::new(smp, &[source], &targets).unwrap();
    let mean = solver
        .measure(MeasureKind::MEAN, InversionMethod::euler(), &[])
        .unwrap()[0];
    assert!(mean > 0.0);

    // Analytic CDF over a window covering most of the mass.
    let ts = linspace(mean * 0.2, mean * 3.0, 40);
    let cdf = solver
        .measure(MeasureKind::Cdf, InversionMethod::euler(), &ts)
        .unwrap();

    // Simulation of the same passage.
    let target_set = StateSet::new(smp.num_states(), &targets).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let sim = simulate_smp_passage_times(smp, source, &target_set, 30_000, 5_000_000, &mut rng);

    // Means agree within the simulation's confidence interval (plus numerical slack).
    assert!(
        (sim.mean() - mean).abs() < 5.0 * sim.ci95_half_width() + 0.02 * mean,
        "analytic mean {mean} vs simulated {}",
        sim.mean()
    );
    // CDF values agree pointwise to a few percent.
    for (&t, analytic) in ts.iter().zip(cdf).step_by(5) {
        let simulated = sim.cdf(t);
        assert!(
            (analytic - simulated).abs() < 0.03,
            "F({t}): analytic {analytic} vs simulated {simulated}"
        );
    }
}

#[test]
fn pipeline_and_sequential_solver_agree() {
    let system = tiny_system();
    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(3);
    let ts = linspace(1.0, 20.0, 10);

    let sequential = PassageTimeSolver::new(smp, &[source], &targets)
        .unwrap()
        .measure(MeasureKind::Density, InversionMethod::euler(), &ts)
        .unwrap();

    // The pipeline's workers rebuild the same model from its spec.
    let model = ModelSpec::Voting {
        voters: 4,
        polling: 2,
        central: 2,
    };
    let engine = DistributedEngine::in_process(
        model,
        InversionMethod::euler(),
        PipelineOptions::with_workers(4),
    );
    let request = MeasureRequest::density(TargetSpec::parse("p2>=3").unwrap(), &ts);
    let distributed = engine.solve(&[request]).unwrap().remove(0);

    assert_eq!(bits(&sequential), bits(&distributed.values));
}

#[test]
fn transient_matches_simulation_and_steady_state() {
    let system = tiny_system();
    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(2);

    let solver = transient_solver(smp, source, &targets);
    let ts = linspace(2.0, 80.0, 8);
    let curve = solver
        .measure(MeasureKind::Transient, InversionMethod::euler(), &ts)
        .unwrap();

    let target_set = StateSet::new(smp.num_states(), &targets).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let simulated = simulate_smp_transient(smp, source, &target_set, &ts, 30_000, &mut rng);
    for ((t, analytic), sim) in ts.iter().zip(&curve).zip(&simulated) {
        assert!(
            (analytic - sim).abs() < 0.03,
            "T({t}): analytic {analytic} vs simulated {sim}"
        );
    }

    // The transient keeps climbing towards the SMP steady-state probability without
    // overshooting it.  (Full convergence takes thousands of seconds here because
    // the paper's full-repair distribution has a 0.2-weight Erlang branch with a
    // mean of 5 000 s; the asymptote itself is checked at t = 20 000 below.)
    let steady = steady_state_probability(smp, solver.targets()).unwrap();
    let early = *curve.first().unwrap();
    let tail = solver
        .measure(MeasureKind::Transient, InversionMethod::euler(), &[600.0])
        .unwrap()[0];
    assert!(
        tail > early && tail <= steady + 0.03,
        "transient at t=600 ({tail}) should lie between T(2)={early} and the steady state {steady}"
    );

    // Fig. 7's asymptote, many repair cycles out: the transient of "all six
    // voters have voted" on voting 6,2,2 has reached its steady-state line
    // (0.968149) by t = 20 000.  This far out `s` is ~5e-4, where dividing a
    // truncated series by `1 − L_kk(s)` would amplify its truncation error
    // past this tolerance; the renewal form divides by nothing but `s`.
    let system = VotingSystem::build(VotingConfig::new(6, 2, 2)).expect("build voting 6,2,2");
    let targets = system.states_with_voted_at_least(6);
    let solver = transient_solver(system.smp(), system.initial_state(), &targets);
    let steady = steady_state_probability(system.smp(), solver.targets()).unwrap();
    let asymptote = solver
        .measure(
            MeasureKind::Transient,
            InversionMethod::euler(),
            &[20_000.0],
        )
        .unwrap()[0];
    assert!(
        (asymptote - steady).abs() < 5e-4,
        "T(20000) = {asymptote} vs steady state {steady}"
    );
}

#[test]
fn failure_mode_target_reachable_and_analysable() {
    let system = tiny_system();
    let smp = system.smp();
    let source = system.initial_state();
    let failures = system.failure_mode_states();
    assert!(!failures.is_empty());

    let solver = PassageTimeSolver::new(smp, &[source], &failures).unwrap();
    let mttf = solver
        .measure(MeasureKind::MEAN, InversionMethod::euler(), &[])
        .unwrap()[0];
    assert!(mttf > 0.0 && mttf.is_finite());

    // The completion probability grows with the deadline: F at the end of a
    // 16-point grid ending there.
    let completion_by = |deadline: f64| {
        let ts = linspace(deadline / 16.0, deadline, 16);
        let cdf = solver
            .measure(MeasureKind::Cdf, InversionMethod::euler(), &ts)
            .unwrap();
        lerp_table(&ts, &cdf, deadline)
    };
    let p_short = completion_by(mttf * 0.2);
    let p_long = completion_by(mttf * 2.0);
    assert!(p_long > p_short);
    assert!((0.0..=1.0).contains(&p_short) && (0.0..=1.0).contains(&p_long));
}

/// The single-process readout and the analytic engine are one readout of one
/// transform: on voting 4,2,2 the density, CDF, transient and mean that
/// `PassageTimeSolver::measure` reads off the SMP equal `AnalyticEngine`'s
/// bit for bit.
#[test]
fn the_solver_readout_is_the_analytic_engines_bits() {
    let system = tiny_system();
    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(3);
    let ts = linspace(1.0, 20.0, 10);
    let euler = InversionMethod::euler;

    let passage = PassageTimeSolver::new(smp, &[source], &targets).unwrap();
    let transient = transient_solver(smp, source, &targets);
    let readout = [
        passage.measure(MeasureKind::Density, euler(), &ts).unwrap(),
        passage.measure(MeasureKind::Cdf, euler(), &ts).unwrap(),
        transient
            .measure(MeasureKind::Transient, euler(), &ts)
            .unwrap(),
        passage.measure(MeasureKind::MEAN, euler(), &[]).unwrap(),
    ];

    let engine = AnalyticEngine::new(
        ModelSpec::Voting {
            voters: 4,
            polling: 2,
            central: 2,
        },
        euler(),
    );
    let target = TargetSpec::parse("p2>=3").unwrap();
    let reports = engine
        .solve(&[
            MeasureRequest::density(target.clone(), &ts),
            MeasureRequest::cdf(target.clone(), &ts),
            MeasureRequest::transient(target.clone(), &ts),
            MeasureRequest::mean(target),
        ])
        .unwrap();
    assert_eq!(reports.len(), readout.len());
    for (values, report) in readout.iter().zip(&reports) {
        assert_eq!(
            bits(values),
            bits(&report.values),
            "{}: {values:?} vs {:?}",
            report.name,
            report.values
        );
    }
}

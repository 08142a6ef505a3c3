//! End-to-end integration tests on the voting model: SM-SPN → state space → SMP →
//! iterative passage-time analysis → numerical inversion, cross-validated against
//! discrete-event simulation (the paper's own validation methodology).

use rand::rngs::StdRng;
use rand::SeedableRng;
use smp_suite::core::{PassageTimeAnalysis, StateSet, TransientAnalysis};
use smp_suite::laplace::InversionMethod;
use smp_suite::numeric::stats::linspace;
use smp_suite::pipeline::{
    BatchJob, DistributedPipeline, InProcess, MeasureKind, MeasureSpec, ModelSpec, PipelineOptions,
    TargetSpec, TransformSpec,
};
use smp_suite::simulator::smp_sim::{simulate_smp_passage_times, simulate_smp_transient};
use smp_suite::voting::{VotingConfig, VotingSystem};

fn tiny_system() -> VotingSystem {
    VotingSystem::build(VotingConfig::new(4, 2, 2)).expect("build tiny voting system")
}

#[test]
fn analytic_voter_passage_matches_simulation() {
    let system = tiny_system();
    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(4);

    let analysis = PassageTimeAnalysis::new(smp, &[source], &targets).unwrap();
    let mean = analysis.mean_from_transform(1e-6).unwrap();
    assert!(mean > 0.0);

    // Analytic CDF over a window covering most of the mass.
    let ts = linspace(mean * 0.2, mean * 3.0, 40);
    let cdf = analysis.cdf(InversionMethod::euler(), &ts).unwrap();

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
    for (t, analytic) in cdf.iter().step_by(5) {
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

    let analysis = PassageTimeAnalysis::new(smp, &[source], &targets).unwrap();
    let sequential = analysis.density(InversionMethod::euler(), &ts).unwrap();

    // The pipeline's workers rebuild the same model from its spec.
    let passage = TransformSpec::passage(
        ModelSpec::Voting {
            voters: 4,
            polling: 2,
            central: 2,
        },
        TargetSpec::parse("p2>=3").unwrap(),
    );
    let pipeline =
        DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::with_workers(4));
    let measure = MeasureSpec::from_spec("passage", MeasureKind::Density, &ts, passage);
    let distributed = pipeline
        .execute(BatchJob::new().with_measure(measure), &InProcess::new(4))
        .unwrap();

    for (a, b) in sequential
        .values()
        .iter()
        .zip(&distributed.measures[0].values)
    {
        assert!((a - b).abs() < 1e-10, "sequential {a} vs pipeline {b}");
    }
}

#[test]
fn transient_matches_simulation_and_steady_state() {
    let system = tiny_system();
    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(2);

    let analysis = TransientAnalysis::new(smp, source, &targets).unwrap();
    let ts = linspace(2.0, 80.0, 8);
    let curve = analysis
        .distribution(InversionMethod::euler(), &ts)
        .unwrap();

    let target_set = StateSet::new(smp.num_states(), &targets).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let simulated = simulate_smp_transient(smp, source, &target_set, &ts, 30_000, &mut rng);
    for ((t, analytic), sim) in curve.iter().zip(&simulated) {
        assert!(
            (analytic - sim).abs() < 0.03,
            "T({t}): analytic {analytic} vs simulated {sim}"
        );
    }

    // The transient keeps climbing towards the SMP steady-state probability without
    // overshooting it.  (Full convergence takes thousands of seconds here because
    // the paper's full-repair distribution has a 0.2-weight Erlang branch with a
    // mean of 5 000 s; the asymptote itself is checked at t = 20 000 below.)
    let steady = analysis.steady_state_value().unwrap();
    let early = *curve.values().first().unwrap();
    let late = analysis
        .distribution(InversionMethod::euler(), &[600.0])
        .unwrap();
    let tail = late.values()[0];
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
    let analysis = TransientAnalysis::new(system.smp(), system.initial_state(), &targets).unwrap();
    let steady = analysis.steady_state_value().unwrap();
    let asymptote = analysis
        .distribution(InversionMethod::euler(), &[20_000.0])
        .unwrap()
        .values()[0];
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

    let analysis = PassageTimeAnalysis::new(smp, &[source], &failures).unwrap();
    let mttf = analysis.mean_from_transform(1e-6).unwrap();
    assert!(mttf > 0.0 && mttf.is_finite());

    // The completion probability grows with the deadline.
    let p_short = analysis
        .completion_probability(InversionMethod::euler(), mttf * 0.2, 16)
        .unwrap();
    let p_long = analysis
        .completion_probability(InversionMethod::euler(), mttf * 2.0, 16)
        .unwrap();
    assert!(p_long > p_short);
    assert!((0.0..=1.0).contains(&p_short) && (0.0..=1.0).contains(&p_long));
}

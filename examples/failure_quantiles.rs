//! Reliability analysis of the voting system: the time from a fully operational
//! start to a complete failure mode (all polling units down, or all central voting
//! units down) — the rare-event setting of Fig. 6, where analytic passage-time
//! computation beats simulation.
//!
//! ```text
//! cargo run --release --example failure_quantiles
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use smp_suite::core::query::{Engine, MeasureRequest, TargetSpec};
use smp_suite::core::{PassageTimeSolver, StateSet};
use smp_suite::distributions::Dist;
use smp_suite::laplace::{InversionMethod, MeasureKind};
use smp_suite::numeric::stats::{lerp_table, linspace, quantile_from_cdf};
use smp_suite::pipeline::{AnalyticEngine, ModelSpec, SimulationEngine, SimulationOptions};
use smp_suite::simulator::smp_sim::simulate_smp_passage_times;
use smp_suite::smspn::ReachabilityOptions;
use smp_suite::voting::model::VotingDistributions;
use smp_suite::voting::{VotingConfig, VotingSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Make the units failure-prone so the event is observable on a small time scale
    // (the paper's own failure/repair parameters are not printed; see the README).
    let dists = VotingDistributions {
        polling_failure: Dist::exponential(0.6),
        central_failure: Dist::exponential(0.4),
        polling_self_recovery: Dist::uniform(1.0, 4.0),
        central_self_recovery: Dist::uniform(1.0, 4.0),
        ..VotingDistributions::default()
    };
    let system = VotingSystem::build_with(
        VotingConfig::new(6, 3, 2),
        &dists,
        &ReachabilityOptions::default(),
    )?;
    println!(
        "voting system with failure-prone units: {} states",
        system.num_states()
    );

    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.failure_mode_states();
    println!("complete-failure target set: {} states", targets.len());

    // The failure-mode disjunction is a target set no single `PLACE OP N`
    // predicate names, so the SMP's own solver answers it.
    let solver = PassageTimeSolver::new(smp, &[source], &targets)?;
    let mttf = solver.measure(MeasureKind::MEAN, InversionMethod::euler(), &[])?[0];
    println!("analytic mean time to complete failure: {mttf:.2} s");

    // Reliability quantiles from the inverted CDF.
    let ts = linspace(mttf * 0.02, mttf * 4.0, 160);
    let cdf = solver.measure(MeasureKind::Cdf, InversionMethod::euler(), &ts)?;
    println!("\nreliability quantiles (time by which failure has occurred with probability p):");
    for p in [0.01, 0.1, 0.5, 0.9, 0.99] {
        match quantile_from_cdf(&ts, &cdf, p) {
            Some(t) => println!("  p = {p:<5} ->  t = {t:8.2} s"),
            None => println!("  p = {p:<5} ->  beyond the analysed window"),
        }
    }
    println!(
        "\nP(complete failure within {:.0} s) = {:.4}",
        mttf / 2.0,
        lerp_table(&ts, &cdf, mttf / 2.0)
    );

    // The same question put to the simulator: with rarer failures this is where a
    // simulator would need rare-event techniques, as the paper observes.
    let target_set = StateSet::new(smp.num_states(), &targets)?;
    let mut rng = StdRng::seed_from_u64(7);
    let sim = simulate_smp_passage_times(smp, source, &target_set, 5_000, 5_000_000, &mut rng);
    println!(
        "simulation: {} replications observed the failure, sample mean {:.2} s",
        sim.len(),
        sim.mean()
    );

    // ---------------------------------------------------------------------
    // The same quantiles through the unified measure-engine API: one typed
    // MeasureRequest answered by the analytic engine and cross-checked by the
    // simulation engine — what `smpq --measure quantile:... --validate-sim`
    // does behind one flag.
    // ---------------------------------------------------------------------
    let model = ModelSpec::Voting {
        voters: 5,
        polling: 2,
        central: 2,
    };
    let request = MeasureRequest::quantile(TargetSpec::parse("p2>=3")?, &[0.5, 0.9, 0.99])
        .with_t_points(&linspace(2.0, 60.0, 8));
    println!("\nunified engine API: {} on voting(5,2,2)", request.name());

    let analytic = AnalyticEngine::new(model.clone(), InversionMethod::euler())
        .solve(std::slice::from_ref(&request))?
        .remove(0);
    let simulated = SimulationEngine::new(
        model,
        SimulationOptions {
            replications: 10_000,
            threads: 4,
            ..Default::default()
        },
    )
    .solve(std::slice::from_ref(&request))?
    .remove(0);

    let ci = simulated.provenance.error_bound.unwrap_or(0.0);
    println!("  p        analytic t      simulated t   (sim 95% band ±{ci:.3})");
    for ((p, qa), (_, qs)) in analytic.iter().zip(simulated.iter()) {
        println!("  {p:<5}  {qa:>12.3} s  {qs:>12.3} s");
    }
    println!(
        "  [{} engine: {} evaluations, {:?}; {} engine: {} replications]",
        analytic.provenance.engine,
        analytic.provenance.evaluations,
        analytic.provenance.wall,
        simulated.provenance.engine,
        simulated.provenance.evaluations,
    );
    Ok(())
}

//! The paper's headline workload at laptop scale: build a distributed voting system
//! as an SM-SPN, generate its semi-Markov state space, and compute the density of
//! the time for all voters to cast their votes — through the distributed
//! master–worker pipeline — validated against a discrete-event simulation of the
//! same model (the set-up of Figs. 4 and 5).
//!
//! ```text
//! cargo run --release --example voting_passage
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use smp_suite::core::query::{Engine, MeasureRequest};
use smp_suite::core::StateSet;
use smp_suite::laplace::InversionMethod;
use smp_suite::numeric::stats::linspace;
use smp_suite::pipeline::{DistributedEngine, ModelSpec, PipelineOptions, TargetSpec};
use smp_suite::simulator::smp_sim::simulate_smp_passage_times;
use smp_suite::voting::{VotingConfig, VotingSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down voting system: 10 voters, 4 polling units, 2 central units.
    let system = VotingSystem::build(VotingConfig::new(10, 4, 2))?;
    println!(
        "voting system: {} reachable markings ({} would be the paper's system 0)",
        system.num_states(),
        2061
    );

    // The analytic side runs through the distributed pipeline (4 workers,
    // Euler inversion).  The pipeline's workers rebuild the same model from
    // its spec: the voting model's DNAmaca form, passage into "all 10 voted".
    let engine = DistributedEngine::in_process(
        ModelSpec::Voting {
            voters: 10,
            polling: 4,
            central: 2,
        },
        InversionMethod::euler(),
        PipelineOptions::with_workers(4),
    );
    let all_voted = TargetSpec::parse("p2>=10")?;

    // Where to look: centre the time window on the analytic mean.
    let mean = engine.solve(&[MeasureRequest::mean(all_voted.clone())])?[0].values[0];
    println!("analytic mean time to process all 10 voters: {mean:.2} s");
    let ts = linspace(mean * 0.3, mean * 2.0, 24);

    // One solve, three measures over one target and so one transform: the
    // CDF of Fig. 5 reuses every s-point the density evaluates, and the
    // response-time quantile's search starts at the window's end and widens
    // its horizon until the CDF reaches 95%.
    let [density, cdf, quantile] = <[_; 3]>::try_from(engine.solve(&[
        MeasureRequest::density(all_voted.clone(), &ts),
        MeasureRequest::cdf(all_voted.clone(), &ts),
        MeasureRequest::quantile(all_voted, &[0.95]).with_t_points(&ts),
    ])?)
    .expect("one report per request");
    println!(
        "pipeline evaluated {} s-points in {:.2} s on 4 workers",
        density.provenance.evaluations
            + cdf.provenance.evaluations
            + quantile.provenance.evaluations,
        quantile.provenance.wall.as_secs_f64()
    );

    // Validate against simulation of the same SMP.
    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(10);
    let target_set = StateSet::new(smp.num_states(), &targets)?;
    let mut rng = StdRng::seed_from_u64(42);
    let sim = simulate_smp_passage_times(smp, source, &target_set, 20_000, 10_000_000, &mut rng);
    let sim_density = sim.kernel_density(&ts);
    println!(
        "simulated mean: {:.2} s over {} replications",
        sim.mean(),
        sim.len()
    );

    println!("\n    t      f analytic  f simulated   F analytic  F simulated");
    for (((t, f), s), big_f) in ts
        .iter()
        .zip(&density.values)
        .zip(&sim_density)
        .zip(&cdf.values)
    {
        println!(
            "{t:7.2}  {:11.5}  {s:11.5}  {big_f:11.5}  {:11.5}",
            f.max(0.0),
            sim.cdf(*t)
        );
    }

    // And the response-time quantile of Fig. 5.
    println!(
        "\n95% of runs finish within {:.2} s (simulation says {:.2} s)",
        quantile.values[0],
        sim.quantile(0.95).unwrap()
    );
    Ok(())
}

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
use smp_suite::core::{PassageTimeAnalysis, StateSet};
use smp_suite::laplace::{CdfCurve, InversionMethod};
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

    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(10);

    // Where to look: centre the time window on the analytic mean.
    let analysis = PassageTimeAnalysis::new(smp, &[source], &targets)?;
    let mean = analysis.mean_from_transform(1e-6)?;
    println!("analytic mean time to process all 10 voters: {mean:.2} s");
    let ts = linspace(mean * 0.3, mean * 2.0, 24);

    // Analytic density via the distributed pipeline (4 workers, Euler
    // inversion).  The pipeline's workers rebuild the same model from its
    // spec: the voting model's DNAmaca form, passage into "all 10 voted".
    let engine = DistributedEngine::in_process(
        ModelSpec::Voting {
            voters: 10,
            polling: 4,
            central: 2,
        },
        InversionMethod::euler(),
        PipelineOptions::with_workers(4),
    );
    // One solve, two measures over one target and so one transform: the
    // CDF of Fig. 5 reuses every s-point the density evaluates.
    let all_voted = TargetSpec::parse("p2>=10")?;
    let [density, cdf] = <[_; 2]>::try_from(engine.solve(&[
        MeasureRequest::density(all_voted.clone(), &ts),
        MeasureRequest::cdf(all_voted, &ts),
    ])?)
    .expect("one report per request");
    println!(
        "pipeline evaluated {} s-points in {:.2} s on 4 workers",
        density.provenance.evaluations + cdf.provenance.evaluations,
        cdf.provenance.wall.as_secs_f64()
    );

    // Validate against simulation of the same SMP.
    let target_set = StateSet::new(smp.num_states(), &targets)?;
    let mut rng = StdRng::seed_from_u64(42);
    let sim = simulate_smp_passage_times(smp, source, &target_set, 20_000, 10_000_000, &mut rng);
    let sim_density = sim.kernel_density(&ts);
    println!(
        "simulated mean: {:.2} s over {} replications",
        sim.mean(),
        sim.len()
    );

    println!("\n    t      analytic   simulated");
    for ((t, a), s) in ts.iter().zip(&density.values).zip(&sim_density) {
        println!("{t:7.2}  {:9.5}  {s:9.5}", a.max(0.0));
    }

    // And the response-time quantile of Fig. 5.
    let cdf = CdfCurve::from_samples(ts.clone(), cdf.values);
    if let Some(q) = cdf.quantile(0.95) {
        println!(
            "\n95% of runs finish within {q:.2} s (simulation says {:.2} s)",
            sim.quantile(0.95).unwrap()
        );
    }
    Ok(())
}

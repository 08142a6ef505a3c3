//! Fig. 6 — density of the time from the fully-operational initial marking to a
//! complete failure mode (all polling units failed or all central voting units
//! failed), analytic against simulation, on system 0 (2 061 states).
//!
//! The paper notes that for the larger systems "the probabilities ... were so small
//! that the simulator was not able to register any meaningful distribution", which
//! is why the failure-mode experiment uses the smallest system — analytic
//! techniques shine exactly where rare events starve a simulator.  The harness
//! reproduces that set-up; because the paper does not print its failure/repair
//! distribution parameters, a failure-prone parameter set
//! (`failure_prone_distributions` below) is used so that both the analytic and
//! the simulated curve are visible on the same axes.
//!
//! ```text
//! cargo run -p smp-bench --release --bin fig6 [--system 0] [--points P]
//!     [--replications R]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use smp_bench::{grid_around_mean, print_columns, Args};
use smp_core::{PassageTimeSolver, StateSet};
use smp_distributions::Dist;
use smp_laplace::{InversionMethod, MeasureKind};
use smp_simulator::smp_sim::simulate_smp_passage_times;
use smp_smspn::ReachabilityOptions;
use smp_voting::model::VotingDistributions;
use smp_voting::{configs, VotingSystem};

fn failure_prone_distributions() -> VotingDistributions {
    VotingDistributions {
        // Units fail often and self-recover slowly, so that complete failure happens
        // on the tens-of-seconds scale of the paper's Fig. 6.
        polling_failure: Dist::exponential(0.6),
        central_failure: Dist::exponential(0.4),
        polling_self_recovery: Dist::uniform(1.0, 4.0),
        central_self_recovery: Dist::uniform(1.0, 4.0),
        // Breakdown transitions are also *selected* more often (weights of t3/t4
        // raised relative to the voting traffic).
        weights: [20.0, 20.0, 6.0, 4.0, 1.0, 1.0, 2.0, 2.0, 0.5],
        ..VotingDistributions::default()
    }
}

fn main() {
    let args = Args::from_env();
    let id = args.value_or("system", 0u32);
    let points = args.value_or("points", 30usize);
    let replications = args.value_or("replications", 20_000usize);

    let paper = configs::paper_system(id).expect("unknown system id");
    let system = VotingSystem::build_with(
        paper.config,
        &failure_prone_distributions(),
        &ReachabilityOptions::default(),
    )
    .expect("state-space generation failed");
    println!(
        "# Fig 6: failure-mode passage density, system {id} ({} states, paper reports {})",
        system.num_states(),
        paper.paper_states
    );

    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.failure_mode_states();
    println!("# failure-mode target set: {} states", targets.len());

    let solver = PassageTimeSolver::new(smp, &[source], &targets).expect("solver setup");
    let mean = solver
        .measure(MeasureKind::MEAN, InversionMethod::euler(), &[])
        .expect("mean time to failure")[0];
    println!("# analytic mean time to complete failure: {mean:.3}");
    let t_points = grid_around_mean(mean, 0.05, 3.0, points);

    let density = solver
        .measure(MeasureKind::Density, InversionMethod::euler(), &t_points)
        .expect("analytic density");

    let target_set = StateSet::new(smp.num_states(), &targets).expect("target set");
    let mut rng = StdRng::seed_from_u64(1926);
    let simulated =
        simulate_smp_passage_times(smp, source, &target_set, replications, 10_000_000, &mut rng);
    println!(
        "# simulation: {} replications registered, sample mean {:.3}",
        simulated.len(),
        simulated.mean()
    );
    let sim_density = simulated.kernel_density(&t_points);

    let rows: Vec<Vec<f64>> = t_points
        .iter()
        .zip(&density)
        .zip(sim_density.iter())
        .map(|((t, a), s)| vec![*t, a.max(0.0), *s])
        .collect();
    print_columns(&["t", "analytic_density", "simulated_density"], &rows);
}

//! Fig. 4 — density of the time taken for the voters to pass from p1 to p2,
//! analytic (iterative passage-time algorithm + Euler inversion) against
//! simulation.
//!
//! ```text
//! cargo run -p smp-bench --release --bin fig4 [--system N] [--voters K]
//!     [--points P] [--replications R] [--quick]
//! ```
//!
//! The paper plots system 5 (1.1 million states, 175 voters); that instance is
//! supported (`--system 5`), but it holds about 1 GB, and a two-point CDF of it,
//! exploration included, takes about 1.5 minutes on a 2-core host — this
//! figure asks for many more points plus a simulation.  So the default is a
//! scaled-down instance that exercises exactly the same code path.

use rand::rngs::StdRng;
use rand::SeedableRng;
use smp_bench::{build_paper_system, build_scaled_system, grid_around_mean, print_columns, Args};
use smp_core::{PassageTimeAnalysis, StateSet};
use smp_laplace::InversionMethod;
use smp_simulator::smp_sim::simulate_smp_passage_times;

fn main() {
    let args = Args::from_env();
    let system = if args.flag("scaled") || args.value_or("system", -1i64) < 0 {
        build_scaled_system()
    } else {
        build_paper_system(args.value_or("system", 0u32))
    };
    let config = system.config();
    let voters = args.value_or("voters", config.voters);
    let points = if args.flag("quick") {
        12
    } else {
        args.value_or("points", 30usize)
    };
    let replications = args.value_or("replications", 20_000usize);

    println!(
        "# Fig 4: density of the time for {voters} voters to pass p1 -> p2 ({} states)",
        system.num_states()
    );

    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(voters);
    assert!(!targets.is_empty(), "no target states: lower --voters");

    // Centre the time grid on the analytic mean passage time (from L'(0)).
    let analysis = PassageTimeAnalysis::new(smp, &[source], &targets).expect("analysis setup");
    let mean = analysis
        .mean_from_transform(1e-6)
        .expect("mean passage time");
    println!("# analytic mean passage time: {mean:.3}");
    let t_points = grid_around_mean(mean, 0.3, 2.0, points);

    // Analytic curve (Euler inversion).
    let density = analysis
        .density(InversionMethod::euler(), &t_points)
        .expect("analytic density");

    // Simulation of the same passage on the generated SMP.
    let target_set = StateSet::new(smp.num_states(), &targets).expect("target set");
    let mut rng = StdRng::seed_from_u64(2003);
    let simulated =
        simulate_smp_passage_times(smp, source, &target_set, replications, 50_000_000, &mut rng);
    let sim_density = simulated.kernel_density(&t_points);
    println!(
        "# simulation: {} replications, sample mean {:.3}",
        simulated.len(),
        simulated.mean()
    );

    let rows: Vec<Vec<f64>> = t_points
        .iter()
        .zip(density.values())
        .zip(sim_density.iter())
        .map(|((t, a), s)| vec![*t, a.max(0.0), *s])
        .collect();
    print_columns(&["t", "analytic_density", "simulated_density"], &rows);
}

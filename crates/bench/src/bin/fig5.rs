//! Fig. 5 — cumulative distribution function of the voter-throughput passage and
//! the response-time quantile read off it (the paper quotes
//! `P(system 5 processes 175 voters in under 440 s) = 0.9858`).
//!
//! ```text
//! cargo run -p smp-bench --release --bin fig5 [--system N] [--voters K]
//!     [--points P] [--quantile Q]
//! ```

use smp_bench::{build_paper_system, build_scaled_system, grid_around_mean, print_columns, Args};
use smp_core::PassageTimeAnalysis;
use smp_laplace::InversionMethod;

fn main() {
    let args = Args::from_env();
    let system = if args.flag("scaled") || args.value_or("system", -1i64) < 0 {
        build_scaled_system()
    } else {
        build_paper_system(args.value_or("system", 0u32))
    };
    let config = system.config();
    let voters = args.value_or("voters", config.voters);
    let points = args.value_or("points", 40usize);
    let quantile_level = args.value_or("quantile", 0.9858f64);

    println!(
        "# Fig 5: cumulative passage-time distribution for {voters} voters ({} states)",
        system.num_states()
    );

    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(voters);
    let analysis = PassageTimeAnalysis::new(smp, &[source], &targets).expect("analysis setup");
    let mean = analysis
        .mean_from_transform(1e-6)
        .expect("mean passage time");
    let t_points = grid_around_mean(mean, 0.3, 2.5, points);

    let curve = analysis
        .cdf(InversionMethod::euler(), &t_points)
        .expect("analytic CDF");
    let rows: Vec<Vec<f64>> = curve.iter().map(|(t, p)| vec![t, p]).collect();
    print_columns(&["t", "cdf"], &rows);

    if let Some(q) = curve.quantile(quantile_level) {
        println!("# P(passage completes in under {q:.3}) = {quantile_level}");
    } else {
        println!("# quantile {quantile_level} not reached within the plotted window");
    }
    let deadline = *t_points.last().unwrap();
    println!(
        "# P(passage completes in under {deadline:.3}) = {:.4}",
        curve.probability_at(deadline)
    );
}

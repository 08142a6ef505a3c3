//! Fig. 7 — transient distribution for the transit of 5 voters from the initial
//! marking into place p2, plotted against its steady-state value.
//!
//! ```text
//! cargo run -p smp-bench --release --bin fig7 [--system 0 | --scaled]
//!     [--voters K] [--points P] [--horizon T]
//! ```
//!
//! A transient `s`-point is one unmasked row pass of the passage kernel whatever
//! the size of the target set (Eq. 7 in renewal form, see `smp_core::transient`).
//! The default is the scaled-down instance; `--system 0` runs the paper's
//! 2 061-state configuration.

use smp_bench::{build_paper_system, build_scaled_system, print_columns, Args};
use smp_core::TransientAnalysis;
use smp_laplace::InversionMethod;
use smp_numeric::stats::linspace;

fn main() {
    let args = Args::from_env();
    let system = if args.value_or("system", -1i64) >= 0 && !args.flag("scaled") {
        build_paper_system(args.value_or("system", 0u32))
    } else {
        build_scaled_system()
    };
    let voters = args.value_or("voters", 5u32);
    let points = args.value_or("points", 14usize);
    let horizon = args.value_or("horizon", 80.0f64);

    println!(
        "# Fig 7: transient distribution of 'at least {voters} voters have voted' ({} states)",
        system.num_states()
    );

    let smp = system.smp();
    let source = system.initial_state();
    let targets = system.states_with_voted_at_least(voters);
    println!("# target set: {} states", targets.len());

    let analysis = TransientAnalysis::new(smp, source, &targets).expect("analysis setup");
    let steady = analysis.steady_state_value().expect("steady-state value");
    let t_points = linspace(horizon / points as f64, horizon, points);
    let curve = analysis
        .distribution(InversionMethod::euler(), &t_points)
        .expect("transient inversion failed");

    let rows: Vec<Vec<f64>> = curve.iter().map(|(t, p)| vec![t, p, steady]).collect();
    print_columns(&["t", "transient_probability", "steady_state"], &rows);
    println!("# steady-state probability of the target set: {steady:.6}");
    println!(
        "# transient at t = {horizon}: {:.6} (should approach the steady-state line)",
        curve.values().last().unwrap()
    );
}

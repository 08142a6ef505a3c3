//! Fig. 5 — cumulative distribution function of the voter-throughput passage and
//! the response-time quantile read off it.  The paper quotes
//! `P(system 5 processes 175 voters in under 440 s) = 0.9858`; that value does
//! not reproduce with the substituted firing distributions (this workspace
//! gets 0.492 at 440 s — see the substitution note in the workspace
//! `README.md`).
//!
//! ```text
//! cargo run -p smp-bench --release --bin fig5 [--system N] [--voters K]
//!     [--points P] [--quantile Q]
//! ```

use smp_bench::{build_paper_system, build_scaled_system, grid_around_mean, print_columns, Args};
use smp_core::PassageTimeSolver;
use smp_laplace::{InversionMethod, MeasureKind};
use smp_numeric::stats::{lerp_table, quantile_from_cdf};

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
    let solver = PassageTimeSolver::new(smp, &[source], &targets).expect("solver setup");
    let mean = solver
        .measure(MeasureKind::MEAN, InversionMethod::euler(), &[])
        .expect("mean passage time")[0];
    let t_points = grid_around_mean(mean, 0.3, 2.5, points);

    let cdf = solver
        .measure(MeasureKind::Cdf, InversionMethod::euler(), &t_points)
        .expect("analytic CDF");
    let rows: Vec<Vec<f64>> = t_points
        .iter()
        .zip(&cdf)
        .map(|(t, p)| vec![*t, *p])
        .collect();
    print_columns(&["t", "cdf"], &rows);

    if let Some(q) = quantile_from_cdf(&t_points, &cdf, quantile_level) {
        println!("# P(passage completes in under {q:.3}) = {quantile_level}");
    } else {
        println!("# quantile {quantile_level} not reached within the plotted window");
    }
    let deadline = *t_points.last().unwrap();
    println!(
        "# P(passage completes in under {deadline:.3}) = {:.4}",
        lerp_table(&t_points, &cdf, deadline)
    );
}

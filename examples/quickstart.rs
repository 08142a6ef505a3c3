//! Quickstart: build a small semi-Markov process, compute a passage-time density,
//! CDF and quantile, and a transient state distribution.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use smp_suite::core::{steady_state_probability, IterationOptions, PassageTimeSolver, SmpBuilder};
use smp_suite::distributions::Dist;
use smp_suite::laplace::{InversionMethod, MeasureKind};
use smp_suite::numeric::stats::{lerp_table, linspace, quantile_from_cdf, trapezoid};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A four-state repair model:
    //   0 = healthy, 1 = degraded, 2 = failed, 3 = under repair
    // with generally-distributed holding times (this is exactly what plain Markov
    // chains cannot express).
    let mut builder = SmpBuilder::new(4);
    builder.add_transition(0, 1, 1.0, Dist::weibull(1.5, 10.0)); // wear-out
    builder.add_transition(1, 0, 3.0, Dist::uniform(0.5, 2.0)); // self-healing
    builder.add_transition(1, 2, 1.0, Dist::erlang(2.0, 2)); // degradation to failure
    builder.add_transition(2, 3, 1.0, Dist::deterministic(1.0)); // failure detection
    builder.add_transition(
        3,
        0,
        1.0,
        Dist::mixture(vec![
            (0.9, Dist::uniform(2.0, 6.0)), // ordinary repair
            (0.1, Dist::erlang(0.05, 3)),   // spare part on back-order
        ]),
    );
    let smp = builder.build()?;
    println!(
        "model: {} states, {} transitions",
        smp.num_states(),
        smp.num_transitions()
    );

    // Passage time from healthy (0) to failed (2).
    let solver = PassageTimeSolver::new(&smp, &[0], &[2])?;
    let mean = solver.measure(MeasureKind::MEAN, InversionMethod::euler(), &[])?[0];
    println!("mean time to failure: {mean:.2}");

    let ts = linspace(mean * 0.05, mean * 3.0, 40);
    let density = solver.measure(MeasureKind::Density, InversionMethod::euler(), &ts)?;
    println!("\n   t        f(t)");
    for (t, f) in ts.iter().zip(&density).step_by(5) {
        println!("{t:8.2}  {f:10.6}");
    }
    println!(
        "(density mass covered by the window: {:.3})",
        trapezoid(&ts, &density)
    );

    let cdf = solver.measure(MeasureKind::Cdf, InversionMethod::euler(), &ts)?;
    if let Some(q90) = quantile_from_cdf(&ts, &cdf, 0.9) {
        println!("\n90% of failures happen within {q90:.2} time units");
    }
    println!(
        "P(failure within {:.1}) = {:.4}",
        mean,
        lerp_table(&ts, &cdf, mean)
    );

    // Transient probability of being failed-or-under-repair at time t.
    let transient = PassageTimeSolver::transient(&smp, &[0], &[2, 3], IterationOptions::default())?;
    let steady = steady_state_probability(&smp, transient.targets())?;
    let grid = linspace(1.0, mean * 4.0, 12);
    let curve = transient.measure(MeasureKind::Transient, InversionMethod::euler(), &grid)?;
    println!("\n   t        P(down at t)    (steady state = {steady:.4})");
    for (t, p) in grid.iter().zip(&curve) {
        println!("{t:8.2}  {p:12.4}");
    }
    Ok(())
}

//! Drive the whole tool chain from a textual model: parse an extended-DNAmaca
//! specification (the language of the paper's Fig. 3), generate the semi-Markov
//! state space, and compute a transient state distribution.
//!
//! ```text
//! cargo run --release --example dnamaca_spec
//! ```

use smp_suite::core::{steady_state_probability, IterationOptions, PassageTimeSolver};
use smp_suite::laplace::{InversionMethod, MeasureKind};
use smp_suite::numeric::stats::linspace;
use smp_suite::smspn::StateSpace;
use smp_suite::voting::{spec, VotingConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The complete voting model in the extended DNAmaca language (the same text a
    // modeller would keep in a .mod file).  A small configuration keeps the example
    // quick; spec::dnamaca_source scales to any (CC, MM, NN).
    let source = spec::dnamaca_source(VotingConfig::new(5, 2, 2));
    println!("--- model source (first lines) ---");
    for line in source.lines().take(12) {
        println!("{line}");
    }
    println!("... ({} lines total)\n", source.lines().count());

    // Parse and build the SM-SPN, then its state space.
    let net = smp_suite::dnamaca::parse_model(&source)?;
    println!(
        "parsed net: {} places, {} transitions",
        net.num_places(),
        net.num_transitions()
    );
    let space = StateSpace::explore(&net)?;
    println!("reachable markings: {}", space.num_states());

    // Transient probability that at least 3 voters have voted by time t, plus the
    // steady-state value it settles to (the structure of the paper's Fig. 7).
    let p2 = net.place_index("p2").expect("place p2 exists");
    let targets = space.states_where(|m| m.get(p2) >= 3);
    println!("target markings (p2 >= 3): {}", targets.len());

    let solver = PassageTimeSolver::transient(
        space.smp(),
        &[space.initial_state()],
        &targets,
        IterationOptions::default(),
    )?;
    let steady = steady_state_probability(space.smp(), solver.targets())?;
    let ts = linspace(2.0, 60.0, 12);
    let curve = solver.measure(MeasureKind::Transient, InversionMethod::euler(), &ts)?;

    println!("\n    t    P(p2 >= 3 at t)   steady state {steady:.4}");
    for (t, p) in ts.iter().zip(curve) {
        println!("{t:7.1}  {p:12.4}");
    }
    Ok(())
}

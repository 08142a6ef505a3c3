//! Table 1 — sizes of the underlying SMP for voting-system configurations 0–5.
//!
//! ```text
//! cargo run -p smp-bench --release --bin table1 [--full] [--systems 0,1,2]
//! ```
//!
//! By default systems 0–2 are generated end-to-end (reachability analysis of the
//! SM-SPN) and systems 3–5 are reported through the structural bound only; `--full`
//! generates all six (system 5 has ~1.1 million states; all six took 4 s on a
//! 2-core host, 1.4 s of it system 5).

use smp_bench::Args;
use smp_voting::{configs, VotingSystem};
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let explore: Vec<usize> = if args.flag("full") {
        vec![0, 1, 2, 3, 4, 5]
    } else {
        args.list_or("systems", &[0, 1, 2])
    };

    println!("# Table 1: voting system state-space sizes (paper vs generated)");
    println!(
        "{:<8}{:>6}{:>6}{:>6}{:>14}{:>14}{:>14}{:>10}{:>10}",
        "system", "CC", "MM", "NN", "paper", "generated", "bound", "diff%", "secs"
    );
    for system in configs::paper_systems() {
        let cfg = system.config;
        let bound = system.structural_bound();
        if explore.contains(&(system.id as usize)) {
            let started = Instant::now();
            let built = VotingSystem::build(cfg).expect("state-space generation failed");
            let elapsed = started.elapsed().as_secs_f64();
            let generated = built.num_states() as u64;
            let diff = 100.0 * (generated as f64 - system.paper_states as f64)
                / system.paper_states as f64;
            println!(
                "{:<8}{:>6}{:>6}{:>6}{:>14}{:>14}{:>14}{:>10.2}{:>10.2}",
                system.id,
                cfg.voters,
                cfg.polling_units,
                cfg.central_units,
                system.paper_states,
                generated,
                bound,
                diff,
                elapsed
            );
        } else {
            println!(
                "{:<8}{:>6}{:>6}{:>6}{:>14}{:>14}{:>14}{:>10}{:>10}",
                system.id,
                cfg.voters,
                cfg.polling_units,
                cfg.central_units,
                system.paper_states,
                "(skipped)",
                bound,
                "-",
                "-"
            );
        }
    }
    println!("# 'bound' is the invariant-based count (CC+1)*C(MM+2,2)*(NN+1); pass --full to generate systems 3-5 too");
}

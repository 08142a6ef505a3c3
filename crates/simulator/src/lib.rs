//! # smp-simulator
//!
//! Discrete-event simulation of SM-SPNs and semi-Markov processes.
//!
//! The paper validates every analytic result against "a simulation derived from the
//! same high-level model" (the "Simulation" curves of Figs. 4 and 6).  This crate is
//! that simulator: it executes the SM-SPN semantics directly — priority-enabled
//! transitions chosen probabilistically by weight, holding times sampled from the
//! chosen transition's firing distribution — and estimates passage-time densities,
//! CDFs and transient state probabilities from independent replications.
//!
//! * `engine` — a single trajectory stepper over an `SmSpn`;
//! * [`passage`] — passage-time sampling (optionally multi-threaded) producing an
//!   [`smp_distributions::EmpiricalDistribution`];
//! * `transient` — transient state-probability estimation on a time grid;
//! * [`smp_sim`] — the same measurements driven directly off a `SemiMarkovProcess`
//!   (used to cross-validate the state-space generator: simulating the net and
//!   simulating its generated SMP must agree).

mod engine;
pub mod passage;
pub mod smp_sim;
mod transient;

pub use engine::{SimulationEngine, Step};
pub use passage::{simulate_passage_times, PassageSimulationOptions};
pub use transient::{simulate_transient, TransientSimulationOptions};

//! # smp-suite
//!
//! Umbrella crate for the reproduction of *"Distributed Computation of Passage Time
//! Quantiles and Transient State Distributions in Large Semi-Markov Models"*
//! (Bradley, Dingle, Harrison & Knottenbelt, IPDPS 2003).
//!
//! The workspace is organised as a set of focused crates; this crate simply
//! re-exports them under stable names so that the examples and integration tests can
//! use a single dependency (`smp-sparse`, the sparse matrices under `core`, is
//! reached through `core` and not re-exported):
//!
//! | Re-export | Crate | Purpose |
//! |-----------|-------|---------|
//! | [`numeric`] | `smp-numeric` | complex arithmetic, compensated summation, special functions |
//! | [`distributions`] | `smp-distributions` | general distributions with LSTs, sampling and moments |
//! | [`laplace`] | `smp-laplace` | numerical Laplace transform inversion (Euler, Laguerre) |
//! | [`core`] | `smp-core` | semi-Markov processes and the iterative passage-time algorithm |
//! | [`smspn`] | `smp-smspn` | semi-Markov stochastic Petri nets and state-space generation |
//! | [`dnamaca`] | `smp-dnamaca` | the extended DNAmaca model specification language |
//! | [`simulator`] | `smp-simulator` | discrete-event simulation used for validation |
//! | [`pipeline`] | `smp-pipeline` | distributed master–worker analysis pipeline |
//! | [`voting`] | `smp-voting` | the distributed voting system model of the paper |
//!
//! See `README.md` for a quickstart, the workspace table and build/verify
//! commands; each member crate's `//!` header documents its own subsystem.
//!
//! ## Quickstart
//!
//! The density of the passage from state 0 into state 2 of a three-state SMP
//! (`0 --Erlang(2,2)--> 1 --Exp(1)--> 2 --Det(1)--> 0`), through the re-exports:
//!
//! ```
//! use smp_suite::core::{PassageTimeAnalysis, SmpBuilder};
//! use smp_suite::distributions::Dist;
//! use smp_suite::laplace::InversionMethod;
//!
//! let mut builder = SmpBuilder::new(3);
//! builder.add_transition(0, 1, 1.0, Dist::erlang(2.0, 2));
//! builder.add_transition(1, 2, 1.0, Dist::exponential(1.0));
//! builder.add_transition(2, 0, 1.0, Dist::deterministic(1.0));
//! let smp = builder.build().unwrap();
//!
//! let analysis = PassageTimeAnalysis::new(&smp, &[0], &[2]).unwrap();
//! let t: Vec<f64> = (1..=20).map(|k| k as f64 * 0.35).collect();
//! let density = analysis.density(InversionMethod::euler(), &t).unwrap();
//! assert!(density.values().iter().all(|f| f.is_finite() && *f >= -1e-9));
//! ```

pub use smp_core as core;
pub use smp_distributions as distributions;
pub use smp_dnamaca as dnamaca;
pub use smp_laplace as laplace;
pub use smp_numeric as numeric;
pub use smp_pipeline as pipeline;
pub use smp_simulator as simulator;
pub use smp_smspn as smspn;
pub use smp_voting as voting;

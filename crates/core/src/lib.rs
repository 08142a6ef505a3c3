//! # smp-core
//!
//! Semi-Markov processes and the iterative passage-time / transient analysis
//! algorithm — the primary contribution of Bradley, Dingle, Harrison & Knottenbelt,
//! *"Distributed Computation of Passage Time Quantiles and Transient State
//! Distributions in Large Semi-Markov Models"* (IPDPS 2003).
//!
//! ## What lives here
//!
//! * [`SemiMarkovProcess`] — the time-homogeneous SMP kernel
//!   `R(i,j,t) = p_ij · H_ij(t)`, stored sparsely with a de-duplicated pool of
//!   holding-time distributions, plus the Laplace-domain matrices `U` (and its
//!   absorbing-target variant `U'`) evaluated at any complex `s`-point.
//! * [`embedded`] — the embedded DTMC, its stationary vector and the α-weights of
//!   Eq. (5) for passages starting from multiple source states at steady state.
//! * [`passage`] — the iterative `r`-transition passage-time algorithm of
//!   Section 3 (Eqs. 8–11): repeated sparse vector–matrix products with a vector
//!   accumulator, converging to `L_ij(s)` without ever factorising a matrix, plus a
//!   dense Gaussian-elimination reference solver (the `O(N³)` baseline the paper
//!   compares against).
//! * [`workspace`] — the symbolic/numeric split behind the per-`s`-point hot
//!   path: build the CSR skeleton of `U` and its de-duplicated fill recipes
//!   once per (model, target set), refill a small value table per point,
//!   apply `U'` as a row mask, and advance up to four points in lockstep
//!   lanes over one pass of the index arrays — bitwise identical, lane by
//!   lane, to the build-per-point reference oracle (exact-zero kernel
//!   entries included) at a fraction of the cost.
//! * [`shard`] — row-sharded slices of the same iteration (the paper's
//!   distributed memory model): deterministic contiguous state blocks,
//!   per-shard sub-skeletons with halo subscriptions, and an in-process
//!   lockstep [`ShardedSolver`] that is the bitwise-identical executable
//!   spec for the distributed SpMV transport in `smp-pipeline`.
//! * [`transient`] — transient state distributions from passage-time transforms via
//!   Pyke's relations (Eqs. 6–7).
//! * `steady` — SMP steady-state probabilities (embedded-chain stationary vector
//!   weighted by mean sojourn times), the asymptote shown in Fig. 7.
//! * [`solver`] — a high-level, single-process driver that goes from an SMP +
//!   source/target sets straight to densities, CDFs, quantiles and transients.
//!   (The distributed work-queue version of the same computation lives in
//!   `smp-pipeline`.)
//! * [`query`] — the typed measure-query layer: [`query::MeasureRequest`] /
//!   [`query::MeasureReport`] and the [`query::Engine`] trait that the analytic, simulation,
//!   distributed and uniformization engines in `smp-pipeline` all implement,
//!   so every consumer-facing quantity (densities, CDFs, transients,
//!   quantiles, moments) is served through one front door.
//! * [`uniform`] — the all-exponential special case: when every holding time
//!   is structurally exponential the SMP reduces exactly to a phase-space
//!   CTMC ([`PhaseCtmc`]) and transients / passage distributions come from
//!   Poisson-weighted power iteration (uniformization) with an a-priori
//!   truncation bound, no Laplace inversion involved.
//!
//! ## Quick example
//!
//! ```
//! use smp_core::{PassageTimeAnalysis, SmpBuilder};
//! use smp_distributions::Dist;
//! use smp_laplace::InversionMethod;
//!
//! // A three-state SMP: 0 --Erlang(2,2)--> 1 --Exp(1)--> 2 --Det(1)--> 0
//! let mut builder = SmpBuilder::new(3);
//! builder.add_transition(0, 1, 1.0, Dist::erlang(2.0, 2));
//! builder.add_transition(1, 2, 1.0, Dist::exponential(1.0));
//! builder.add_transition(2, 0, 1.0, Dist::deterministic(1.0));
//! let smp = builder.build().unwrap();
//!
//! // Density of the passage from state 0 into state 2.
//! let analysis = PassageTimeAnalysis::new(&smp, &[0], &[2]).unwrap();
//! let t_points: Vec<f64> = (1..=20).map(|k| k as f64 * 0.35).collect();
//! let density = analysis.density(InversionMethod::euler(), &t_points).unwrap();
//! let total: f64 = smp_numeric::stats::trapezoid(&t_points, density.values());
//! assert!((total - 0.95).abs() < 0.1); // most of the probability mass is covered
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod embedded;
mod error;
pub mod passage;
pub mod query;
pub mod shard;
pub mod smp;
pub mod solver;
mod steady;
pub mod transient;
pub mod uniform;
pub mod workspace;

pub use error::SmpError;
pub use passage::{ConvergenceFold, FoldStatus, IterationOptions, PassageTimeSolver};
pub use query::{CompareOp, MeasureKind, TargetSpec};
pub use shard::{plan_exchange, ShardWorkspace, ShardedSkeleton, ShardedSolver};
pub use smp::{SemiMarkovProcess, SmpBuilder, StateSet};
pub use solver::{PassageTimeAnalysis, TransientAnalysis};
pub use uniform::PhaseCtmc;
pub use workspace::{HotPathStats, PassageSkeleton, PassageWorkspace};

/// A lock's guard whether or not an earlier holder panicked: every lock in
/// this crate guards a memo or a free list that is whole between statements.
pub(crate) fn unpoisoned<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

//! # smp-sparse
//!
//! Sparse linear algebra over ℝ and ℂ for the semi-Markov passage-time suite.
//!
//! The iterative passage-time algorithm of the paper (Section 3, Eq. 9–10) reduces
//! every `s`-point evaluation to a sequence of sparse **row-vector × matrix**
//! products with complex entries, and the multiple-source weighting (Eq. 5) and the
//! transient/steady-state comparisons need the stationary vector of the embedded
//! DTMC, i.e. sparse **real** computations.  This crate provides both through a
//! single generic compressed-sparse-row matrix type:
//!
//! * [`TripletMatrix`] — a coordinate-format builder that tolerates duplicate and
//!   unsorted insertions (the natural output of state-space exploration).
//! * [`CsrMatrix`] — compressed sparse row storage with row access, row-vector
//!   products, row zeroing, and transposition.  The row-*masked*
//!   products (`vec_mul_into_masked` and its column-range form) compute against
//!   `U'` — `U` with target rows absorbed — without ever materialising it,
//!   and `values_mut` lets a prebuilt skeleton be refilled per transform
//!   point (the symbolic/numeric split of `smp_core::workspace`).
//! * [`steady_state`] — the Gauss–Seidel solver for `π P = π`,
//!   used for the α-weights of Eq. (5) and the steady-state comparison of Fig. 7.
//!
//! Indices are `u32` internally (state spaces of ~10⁶–10⁸ states fit comfortably)
//! which keeps the per-nonzero footprint at 12 bytes for real and 20 bytes for
//! complex matrices.

#![forbid(unsafe_code)]

mod csr;
mod scalar;
pub mod steady_state;
mod triplet;

pub use csr::CsrMatrix;
pub use scalar::Scalar;
pub use triplet::TripletMatrix;

//! # smp-numeric
//!
//! Numerical foundations for the semi-Markov passage-time analysis suite.
//!
//! This crate provides the low-level numerical building blocks used throughout the
//! workspace:
//!
//! * [`Complex64`] — a self-contained double-precision complex number type with the
//!   full arithmetic, exponential and polar tool-kit required for Laplace-transform
//!   manipulation.  The suite deliberately implements its own complex type instead of
//!   pulling in an external crate so that the numerical behaviour (and the dependency
//!   footprint) stays under our control.
//! * [`kahan`] — compensated (Kahan/Neumaier) summation for long alternating series
//!   such as the Euler-summation stage of numerical Laplace inversion.
//! * [`special`] — special functions: log-gamma, binomial coefficients, the
//!   incomplete gamma function and the Laguerre functions needed by the Laguerre
//!   inversion algorithm.
//! * [`stats`] — small statistics helpers (running moments, histogram bins, linear
//!   interpolation, trapezoidal integration) shared by the simulator and the
//!   experiment harnesses.

pub mod complex;
pub mod kahan;
pub mod special;
pub mod stats;

pub use complex::Complex64;
pub use kahan::{KahanComplex, KahanSum};

/// Default numerical tolerance used across the suite when comparing floating point
/// quantities produced by analytic manipulation (e.g. convergence of the iterative
/// passage-time sum, Eq. (11) of the paper).
pub const DEFAULT_EPSILON: f64 = 1e-8;

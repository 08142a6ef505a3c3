//! # smp-laplace
//!
//! Numerical inversion of Laplace transforms.
//!
//! The passage-time and transient results of the paper are all obtained by computing
//! a Laplace transform `L(s)` at a set of complex points and then inverting it
//! numerically to recover `f(t)` at user-chosen `t`-points.  Two inversion algorithms
//! are implemented, matching Section 4 of the paper:
//!
//! * [`Euler`] — the Euler algorithm of Abate & Whitt (1995).  Robust for densities
//!   with discontinuities or discontinuous derivatives (deterministic / uniform
//!   firing delays), at the cost of `O(k)` transform evaluations *per* `t`-point
//!   (`k` typically 15–50).
//! * [`Laguerre`] — the Laguerre method of Abate, Choudhury & Whitt (1996).  Uses a
//!   fixed set of ~400 transform evaluations *independent of the number of
//!   `t`-points*, but requires the target function to be smooth.
//!
//! The third piece, [`SPointPlan`], captures the paper's key implementation idea:
//! the master process works out *in advance* every `s`-point at which transform
//! values will be needed, deduplicates them, and farms exactly those evaluations out
//! to the workers.  Storing a distribution as its values at the planned points is
//! then a complete, constant-space representation (see `smp-core`'s pooled-LST
//! recipe table, which evaluates each pooled distribution once per `s`-point).
//!
//! Finally `cdf` and [`mod@quantile`] post-process inverted values into cumulative
//! distribution curves, reliability quantiles and percentile look-ups (Fig. 5 of the
//! paper).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cdf;
pub mod euler;
pub mod laguerre;
pub mod quantile;
mod splan;

pub use cdf::{repair_cdf, CdfCurve};
pub use euler::Euler;
pub use laguerre::Laguerre;
pub use quantile::{probability_of_completion_by, quantile, quantiles_from_cdf};
pub use splan::{union_s_points, InversionMethod, SPointPlan, TransformValues};

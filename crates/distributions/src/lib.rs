//! # smp-distributions
//!
//! General (non-exponential) holding-time distributions for semi-Markov models.
//!
//! Semi-Markov processes owe their expressiveness to arbitrarily distributed sojourn
//! times; the price is that every distribution must be carried through the analysis
//! pipeline as a *Laplace–Stieltjes transform* (LST) that can be evaluated at the
//! complex `s`-points demanded by numerical inversion (Section 4 of the paper).
//!
//! The crate provides:
//!
//! * [`Dist`] — a composable distribution value: exponential, Erlang, uniform,
//!   deterministic, Weibull, phase-free *mixtures* (probabilistic choice) and
//!   *convolutions* (sums of independent delays).  Every variant knows how to
//!   - evaluate its LST at a complex point ([`Dist::lst`]),
//!   - draw samples for the validation simulator ([`Dist::sample`]),
//!   - report exact moments ([`Dist::mean`], [`Dist::variance`]) and its CDF.
//! * `empirical` — empirical distribution estimation (histograms / densities /
//!   CDFs) used to post-process simulator output into the curves plotted in
//!   Figs. 4 and 6.

#![forbid(unsafe_code)]

mod continuous;
mod empirical;
mod lst;

pub use continuous::Dist;
pub use empirical::EmpiricalDistribution;
pub use lst::LaplaceTransform;

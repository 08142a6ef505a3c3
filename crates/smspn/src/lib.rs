//! # smp-smspn
//!
//! Semi-Markov stochastic Petri nets (SM-SPNs) and state-space generation.
//!
//! The paper introduces SM-SPNs (Section 5.1) as its high-level modelling formalism:
//! an extension of GSPNs in which every transition carries a marking-dependent
//! *priority*, *weight* and *firing-time distribution*.  The choice among
//! priority-enabled transitions is probabilistic (by weight), **not** a race between
//! sampled firing times — which is precisely what lets the reachability graph map
//! directly onto a semi-Markov chain.
//!
//! This crate provides:
//!
//! * [`Marking`] — a token vector over the net's places;
//! * [`SmSpn`] / [`TransitionSpec`] — the 4-tuple `(PN, P, W, D)` with
//!   marking-dependent priority, weight and distribution functions, supporting both
//!   classic arc-based (consume/produce) transitions and arbitrary guard/action
//!   closures (the shape produced by the DNAmaca-style `\condition`/`\action`
//!   blocks);
//! * [`enabling`] — the net-enabling function `EN` and the stricter
//!   priority-enabling function `EP` of the paper;
//! * [`StateSpace`] — breadth-first reachability analysis producing the underlying
//!   semi-Markov process together with marking⇄state-index maps and predicate-based
//!   state-set selection (used to express "all polling units failed" as a target
//!   set).

#![forbid(unsafe_code)]

pub mod enabling;
mod marking;
mod net;
pub mod reachability;

pub use marking::{Marking, MarkingView};
pub use net::{SmSpn, TransitionSpec};
pub use reachability::{ReachabilityOptions, StateSpace};

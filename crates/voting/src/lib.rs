//! # smp-voting
//!
//! The distributed voting system model of the paper (Section 5.2, Figs. 1–3).
//!
//! Voting agents queue to vote; polling units receive their votes and register them
//! with every currently operational central voting unit (for fault tolerance and to
//! prevent multiple-vote fraud); polling and central units break down and are
//! repaired — by low-priority self-recovery when only some units have failed, or by
//! a high-priority full repair when *all* units of a kind have failed.
//!
//! The crate provides
//!
//! * [`spec`] — the model's one description, written in the extended DNAmaca
//!   language accepted by `smp-dnamaca`, for any `(CC, MM, NN)` (number of voters,
//!   polling units, central voting units);
//! * [`VotingConfig`] / [`VotingSystem`] — the SM-SPN of Fig. 2 parsed from that
//!   text, with each transition's firing-time distribution and weight overridable
//!   (transition `t5`'s distribution is the one printed in Fig. 3 of the paper; the
//!   remaining distributions are documented substitutions — see the workspace `README.md`);
//! * [`configs`] — the six configurations of Table 1 (2 061 … 1 140 050 states);
//! * helpers to express the paper's source/target sets (voters voted, failure
//!   modes) as SMP state sets.

#![forbid(unsafe_code)]

pub mod configs;
pub mod model;
pub mod spec;

pub use model::{VotingConfig, VotingSystem};

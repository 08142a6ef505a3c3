//! Error types for semi-Markov analysis.

use std::fmt;

/// Errors produced while building or analysing a semi-Markov process.
#[derive(Debug, Clone, PartialEq)]
pub enum SmpError {
    /// A state index was outside `0..num_states`.
    StateOutOfRange {
        /// The offending state index.
        state: usize,
        /// The number of states in the process.
        num_states: usize,
    },
    /// A state has no outgoing transitions; the SMP kernel would not be stochastic.
    DeadlockState {
        /// The state with no outgoing transitions.
        state: usize,
    },
    /// A transition weight was non-positive or non-finite.
    InvalidWeight {
        /// Source state of the transition.
        from: usize,
        /// Destination state of the transition.
        to: usize,
        /// The offending weight.
        weight: f64,
    },
    /// The requested source or target state set was empty.
    EmptyStateSet {
        /// Which set was empty ("source" or "target").
        which: &'static str,
    },
    /// The iterative algorithm failed to converge within the iteration budget.
    ConvergenceFailure {
        /// The `s`-point at which convergence failed (real, imaginary parts).
        s: (f64, f64),
        /// Number of iterations performed.
        iterations: usize,
        /// Magnitude of the last increment.
        last_delta: f64,
    },
    /// The embedded DTMC steady-state computation did not converge.
    SteadyStateFailure {
        /// Residual at the final iteration.
        residual: f64,
    },
    /// The model has no states at all.
    EmptyModel,
    /// The model has more states or transitions than its `u32` state numbers
    /// and row offsets can number.
    TooLarge {
        /// What overflowed ("states" or "transitions").
        what: &'static str,
        /// How many the model has.
        count: usize,
        /// The most a process may have.
        limit: usize,
    },
}

impl fmt::Display for SmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmpError::StateOutOfRange { state, num_states } => {
                write!(f, "state {state} out of range (model has {num_states} states)")
            }
            SmpError::DeadlockState { state } => {
                write!(f, "state {state} has no outgoing transitions (deadlock)")
            }
            SmpError::InvalidWeight { from, to, weight } => {
                write!(f, "invalid weight {weight} on transition {from} -> {to}")
            }
            SmpError::EmptyStateSet { which } => write!(f, "{which} state set is empty"),
            SmpError::ConvergenceFailure {
                s,
                iterations,
                last_delta,
            } => write!(
                f,
                "iterative passage-time sum did not converge at s = {}+{}i after {} iterations (last delta {})",
                s.0, s.1, iterations, last_delta
            ),
            SmpError::SteadyStateFailure { residual } => {
                write!(f, "embedded DTMC steady-state solve did not converge (residual {residual})")
            }
            SmpError::EmptyModel => write!(f, "the model has no states"),
            SmpError::TooLarge { what, count, limit } => {
                write!(f, "the model has {count} {what}, more than the {limit} a process can number")
            }
        }
    }
}

impl std::error::Error for SmpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(SmpError, &str)> = vec![
            (
                SmpError::StateOutOfRange {
                    state: 7,
                    num_states: 3,
                },
                "state 7",
            ),
            (SmpError::DeadlockState { state: 2 }, "deadlock"),
            (
                SmpError::InvalidWeight {
                    from: 0,
                    to: 1,
                    weight: -1.0,
                },
                "invalid weight",
            ),
            (SmpError::EmptyStateSet { which: "target" }, "target"),
            (
                SmpError::ConvergenceFailure {
                    s: (1.0, 2.0),
                    iterations: 10,
                    last_delta: 0.5,
                },
                "did not converge",
            ),
            (
                SmpError::SteadyStateFailure { residual: 0.1 },
                "steady-state",
            ),
            (SmpError::EmptyModel, "no states"),
            (
                SmpError::TooLarge {
                    what: "states",
                    count: 1 << 32,
                    limit: u32::MAX as usize,
                },
                "4294967296 states",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} does not mention {needle}"
            );
        }
    }

    #[test]
    fn error_implements_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(SmpError::EmptyModel);
        assert!(e.to_string().contains("no states"));
    }
}

//! # smp-dnamaca
//!
//! A parser and evaluator for the extended, semi-Markovian DNAmaca-style model
//! specification language used by the paper (Section 5, Fig. 3).
//!
//! The language describes an SM-SPN textually.  A model is a sequence of top-level
//! declarations:
//!
//! ```text
//! \constant{MM}{6}                  % named integer/float constants
//! \place{p3}{MM}                    % a place and its initial marking
//! \transition{t5}{                  % a transition...
//!    \condition{p7 > MM - 1}        %   ...its enabling condition,
//!    \action{                       %   ...its firing effect,
//!       next->p3 = p3 + MM;
//!       next->p7 = p7 - MM;
//!    }
//!    \weight{1.0}                   %   ...probabilistic-choice weight,
//!    \priority{2}                   %   ...priority,
//!    \sojourntimeLT{                %   ...and firing-time distribution, written as
//!       return (0.8 * uniformLT(1.5,10,s)     % a Laplace-transform expression
//!             + 0.2 * erlangLT(0.001,5,s));   % exactly as in Fig. 3.
//!    }
//! }
//! ```
//!
//! Conditions, actions, weights, priorities and distribution parameters are all
//! *marking-dependent*: they may mention place names (evaluating to the current
//! token count) and constants.  `%` starts a comment that runs to the end of line.
//!
//! The crate is organised as a conventional pipeline:
//! [`lexer`] → [`parser`] (producing the [`ast`]) → `eval` (resolving every
//! identifier of an expression, once, to a constant value or a place index) →
//! `build` (assembling an `smp_smspn::SmSpn` whose closures evaluate the
//! resolved expressions against a marking's token counts).  [`parse_model`] runs
//! the whole pipeline.

#![forbid(unsafe_code)]

pub mod ast;
mod build;
mod eval;
pub mod lexer;
pub mod parser;

use parser::{parse, ParseError};

/// Parses a model source text and builds the corresponding SM-SPN.
pub fn parse_model(source: &str) -> Result<smp_smspn::SmSpn, ParseError> {
    let ast = parse(source)?;
    build::build_net(&ast).map_err(ParseError::Semantic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_minimal_model() {
        let src = r#"
            % minimal two-place ping-pong
            \place{left}{1}
            \place{right}{0}
            \transition{go}{
                \condition{left > 0}
                \action{ next->left = left - 1; next->right = right + 1; }
                \weight{1.0}
                \priority{1}
                \sojourntimeLT{ return expLT(2.0, s); }
            }
            \transition{back}{
                \condition{right > 0}
                \action{ next->left = left + 1; next->right = right - 1; }
                \sojourntimeLT{ return uniformLT(0.5, 1.5, s); }
            }
        "#;
        let net = parse_model(src).unwrap();
        assert_eq!(net.num_places(), 2);
        assert_eq!(net.num_transitions(), 2);
        let space = smp_smspn::StateSpace::explore(&net).unwrap();
        assert_eq!(space.num_states(), 2);
    }

    #[test]
    fn syntax_errors_are_reported_with_position() {
        let err = parse_model("\\place{p}{1} \\transition{t}{").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line"), "error should cite a position: {msg}");
    }
}

//! The voting model written in the extended DNAmaca language.
//!
//! The paper specifies its model "textually ... in an extended semi-Markovian version
//! of the high-level DNAmaca Markov chain specification language" and prints the
//! definition of transition `t5` (Fig. 3).  [`dnamaca_source`] emits the complete
//! model in that language for any configuration.  It is the model's only
//! description: [`crate::model::VotingSystem`] parses it and overrides nothing but
//! the transitions' weights and firing-time distributions.

use crate::model::VotingConfig;

/// Renders the complete DNAmaca-style specification of the voting system for a
/// configuration.  Distribution parameters match [`crate::model::VotingDistributions::default`].
pub fn dnamaca_source(config: VotingConfig) -> String {
    let cc = config.voters;
    let mm = config.polling_units;
    let nn = config.central_units;
    format!(
        r#"% Distributed voting system (Bradley et al., IPDPS 2003, Fig. 2)
\constant{{CC}}{{{cc}}}
\constant{{MM}}{{{mm}}}
\constant{{NN}}{{{nn}}}

\place{{p1}}{{CC}}   % voting agents still to vote
\place{{p2}}{{0}}    % voting agents that have voted
\place{{p3}}{{MM}}   % operational idle polling units
\place{{p4}}{{0}}    % polling units processing a vote
\place{{p5}}{{NN}}   % operational central voting units
\place{{p6}}{{0}}    % failed central voting units
\place{{p7}}{{0}}    % failed polling units

\transition{{t1_vote}}{{
    \condition{{p1 > 0 && p3 > 0}}
    \action{{
        next->p1 = p1 - 1;
        next->p2 = p2 + 1;
        next->p3 = p3 - 1;
        next->p4 = p4 + 1;
    }}
    \weight{{20.0}}
    \priority{{1}}
    \sojourntimeLT{{ return uniformLT(0.2, 1.2, s); }}
}}

\transition{{t2_register}}{{
    \condition{{p4 > 0 && p5 > 0}}
    \action{{
        next->p4 = p4 - 1;
        next->p3 = p3 + 1;
    }}
    \weight{{20.0}}
    \priority{{1}}
    \sojourntimeLT{{ return erlangLT(4.0, 2, s); }}
}}

\transition{{t3_polling_failure}}{{
    \condition{{p3 > 0}}
    \action{{
        next->p3 = p3 - 1;
        next->p7 = p7 + 1;
    }}
    \weight{{0.2}}
    \priority{{1}}
    \sojourntimeLT{{ return expLT(0.02, s); }}
}}

\transition{{t4_central_failure}}{{
    \condition{{p5 > 0}}
    \action{{
        next->p5 = p5 - 1;
        next->p6 = p6 + 1;
    }}
    \weight{{0.1}}
    \priority{{1}}
    \sojourntimeLT{{ return expLT(0.01, s); }}
}}

\transition{{t5_polling_full_repair}}{{
    \condition{{p7 > MM-1}}
    \action{{
        next->p3 = p3 + MM;
        next->p7 = p7 - MM;
    }}
    \weight{{1.0}}
    \priority{{2}}
    \sojourntimeLT{{
        return (0.8 * uniformLT(1.5,10,s)
              + 0.2 * erlangLT(0.001,5,s));
    }}
}}

\transition{{t6_central_full_repair}}{{
    \condition{{p6 > NN-1}}
    \action{{
        next->p5 = p5 + NN;
        next->p6 = p6 - NN;
    }}
    \weight{{1.0}}
    \priority{{2}}
    \sojourntimeLT{{
        return (0.8 * uniformLT(1.5,10,s)
              + 0.2 * erlangLT(0.001,5,s));
    }}
}}

\transition{{t7_polling_self_recovery}}{{
    \condition{{p7 > 0 && p7 < MM}}
    \action{{
        next->p7 = p7 - 1;
        next->p3 = p3 + 1;
    }}
    \weight{{2.0}}
    \priority{{1}}
    \sojourntimeLT{{ return erlangLT(2.0, 2, s); }}
}}

\transition{{t8_central_self_recovery}}{{
    \condition{{p6 > 0 && p6 < NN}}
    \action{{
        next->p6 = p6 - 1;
        next->p5 = p5 + 1;
    }}
    \weight{{2.0}}
    \priority{{1}}
    \sojourntimeLT{{ return uniformLT(0.5, 1.5, s); }}
}}

\transition{{t9_voter_return}}{{
    \condition{{p2 > 0}}
    \action{{
        next->p2 = p2 - 1;
        next->p1 = p1 + 1;
    }}
    \weight{{0.5}}
    \priority{{1}}
    \sojourntimeLT{{ return expLT(0.05, s); }}
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VotingConfig;

    #[test]
    fn spec_embeds_paper_fig3_distribution() {
        let source = dnamaca_source(VotingConfig::new(18, 6, 3));
        assert!(source.contains("0.8 * uniformLT(1.5,10,s)"));
        assert!(source.contains("0.2 * erlangLT(0.001,5,s)"));
        assert!(source.contains("\\priority{2}"));
        assert!(source.contains("\\condition{p7 > MM-1}"));
    }

    #[test]
    fn spec_scales_with_configuration() {
        let small = dnamaca_source(VotingConfig::new(2, 1, 1));
        let large = dnamaca_source(VotingConfig::new(175, 45, 5));
        assert!(small.contains("\\constant{CC}{2}"));
        assert!(large.contains("\\constant{CC}{175}"));
        assert!(large.contains("\\constant{MM}{45}"));
        assert!(large.contains("\\constant{NN}{5}"));
    }
}

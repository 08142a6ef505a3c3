//! D003 — wall clocks and OS entropy never influence result values.
//!
//! A passage-time analysis is a pure function of (model, measure, parameters).
//! `SystemTime::now()` / `Instant::now()` readings or OS-seeded randomness
//! feeding anything that reaches a result value makes runs unreproducible —
//! the simulator must draw from an explicitly seeded generator, and planners
//! must never key decisions off the clock.  Wall-clock *provenance* (an
//! elapsed-time field recorded next to a result, never inside it) is a
//! legitimate exception, recorded per call site in `lint.toml`.
//!
//! Fires on `SystemTime::now`, `Instant::now`, and entropy-seeded generator
//! constructors (`from_entropy`, `thread_rng`, `OsRng`, `from_os_rng`,
//! `getrandom`) in non-test code of the computation and pipeline crates.
//! `transport.rs` is out of scope: it holds the socket timeouts, accept
//! windows and dispatch deadlines, which are genuinely about wall time and
//! never touch values.  The fault schedule and the retry backoff
//! (`fault.rs`) and the link layer (`link.rs`) are *in* scope — they must
//! stay pure functions of a seed and a counter.

use super::Finding;
use crate::analysis::SourceFile;
use crate::lexer::TokenKind;

/// Crates whose code computes or transports result values.
const SCOPE_CRATES: &[&str] = &[
    "core",
    "laplace",
    "sparse",
    "numeric",
    "distributions",
    "dnamaca",
    "voting",
    "smspn",
    "sim",
    "pipeline",
    "suite",
];

/// File stems exempt wholesale: socket-timeout plumbing, not value
/// computation.
const EXEMPT_STEMS: &[&str] = &["transport"];

/// Entropy-seeded generator constructors.
const ENTROPY_CALLS: &[&str] = &[
    "from_entropy",
    "thread_rng",
    "OsRng",
    "from_os_rng",
    "getrandom",
];

/// Runs D003 over the file set.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !SCOPE_CRATES.contains(&file.crate_name()) || EXEMPT_STEMS.contains(&file.stem()) {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if toks[i].kind != TokenKind::Ident || file.in_test_code(i) {
                continue;
            }
            // `SystemTime::now` / `Instant::now`.
            let clock = matches!(toks[i].text.as_str(), "SystemTime" | "Instant")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(":"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(":"))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("now"));
            // Entropy-seeded construction (either a call or a unit-struct
            // RNG handed to a seeding API).
            let entropy = ENTROPY_CALLS.contains(&toks[i].text.as_str());
            if !clock && !entropy {
                continue;
            }
            let what = if clock {
                format!("{}::now()", toks[i].text)
            } else {
                toks[i].text.clone()
            };
            findings.push(Finding {
                rule: "D003",
                path: file.path.clone(),
                line: toks[i].line,
                message: format!(
                    "`{what}` in result-bearing code; results must be a pure function of \
                     (model, measure, parameters) — seed RNGs explicitly and keep wall-clock \
                     readings out of values (provenance-only readings go in lint.toml)"
                ),
            });
        }
    }
    findings
}

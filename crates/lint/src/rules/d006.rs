//! D006 — every `pub fn` of a library crate has a caller.
//!
//! A public function that nothing calls is surface with no user: it is read,
//! documented, tested and kept compiling for nobody.  The rule flags each
//! `pub fn` / `pub const fn` in a library crate's `src/` (binaries — `main.rs`
//! and `src/bin/` — are not libraries) whose name no other code mentions as a
//! call or as a value.  The callers it counts are:
//!
//! * every non-test line of `src/` and `crates/*/src`, binaries included;
//! * the caller-only files: `examples/`, `smpbench/src`, `smpbench/tests`
//!   and the integration tests under `tests/` and `crates/*/tests`.
//!
//! Integration tests count because they reach only `pub` items: an oracle a
//! bitwise suite compares against stays public, and so does what the
//! benchmark times.  A mention inside a `use` item is not a call, and neither
//! is `#[cfg(test)]` code.  Matching is by name through the same call tokens
//! D004 walks ([`SourceFile::calls_in`]), so a name shared with any called
//! function (`new`, `len`, `merge`) keeps every function of that name alive:
//! D006 never flags a function whose name is called.

use super::Finding;
use crate::analysis::SourceFile;
use crate::lexer::TokenKind;
use std::collections::BTreeSet;

/// Runs D006: `linted` are the workspace's own sources (the candidates come
/// from their library files), `callers` the files read only for their calls.
pub fn check(linted: &[SourceFile], callers: &[SourceFile]) -> Vec<Finding> {
    let called: BTreeSet<String> = linted.iter().chain(callers).flat_map(live_calls).collect();
    let mut findings = Vec::new();
    for file in linted.iter().filter(|f| !is_binary(&f.path)) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("pub") || file.in_test_code(i) {
                continue;
            }
            let at = if toks.get(i + 1).is_some_and(|t| t.is_ident("const")) {
                i + 2
            } else {
                i + 1
            };
            if !toks.get(at).is_some_and(|t| t.is_ident("fn")) {
                continue;
            }
            let Some(name) = toks.get(at + 1).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            if called.contains(&name.text) {
                continue;
            }
            findings.push(Finding {
                rule: "D006",
                path: file.path.clone(),
                line: toks[i].line,
                message: format!(
                    "`pub fn {}` has no caller: no non-test code, example, smpbench source or \
                     integration test calls it or passes it as a value; delete it",
                    name.text
                ),
            });
        }
    }
    findings
}

/// True for a binary target's source (`main.rs` or a file under `src/bin/`).
fn is_binary(path: &str) -> bool {
    path.ends_with("/main.rs") || path.contains("/src/bin/")
}

/// The names a file calls or passes as values, outside `#[cfg(test)]` code
/// and `use` items.
fn live_calls(file: &SourceFile) -> Vec<String> {
    let toks = &file.tokens;
    let mut calls = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while i < toks.len() {
        let skip_to = if let Some(&(_, end)) = file.test_ranges.iter().find(|r| r.0 == i) {
            Some(end)
        } else if toks[i].is_ident("use") {
            let semi = (i..toks.len()).find(|&j| toks[j].is_punct(";"));
            Some(semi.map_or(toks.len(), |j| j + 1))
        } else {
            None
        };
        match skip_to {
            Some(end) => {
                calls.extend(file.calls_in((start, i)));
                start = end;
                i = end;
            }
            None => i += 1,
        }
    }
    calls.extend(file.calls_in((start, toks.len())));
    calls
}

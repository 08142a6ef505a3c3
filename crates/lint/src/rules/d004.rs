//! D004 — code reachable from untrusted-input decoders never panics.
//!
//! The wire decoder parses bytes from a TCP peer; the checkpoint loader
//! parses a file that may be truncated, hand-edited, or written by another
//! version.  A stray `.unwrap()` on those paths turns one malformed record
//! into a dead worker (or a master that loses the whole run), when the
//! protocol is designed to *skip* or *reject* bad input via typed errors.
//!
//! The rule builds a name-based call graph over the pipeline crate, seeds it
//! with the decode roots (`decode*` in `wire.rs`, `server.rs` and
//! `client.rs`, the request resolver `resolve_request` in `server.rs`,
//! `load*` in `checkpoint.rs` for the checkpoint file and its `.shard`
//! sidecar, every `Link::recv` implementation in `link.rs`, the worker's
//! frame loop `serve_link` in `worker.rs`, `read_frame` anywhere), walks
//! reachability (a function passed as a value counts as called), and flags
//! every `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` /
//! `unimplemented!` inside a reachable non-test function.  The command line
//! is the other way untrusted text gets in, so `crates/cli` is a second
//! scope with a graph of its own, rooted at the argv scanner `scan` and the
//! five `parse_*_args`.

use super::Finding;
use crate::analysis::{FnDef, SourceFile};
use crate::lexer::TokenKind;
use std::collections::{BTreeMap, BTreeSet};

/// Picks a scope's roots: the functions (file stem, name) that first touch
/// untrusted input.
type IsRoot = fn(&str, &str) -> bool;

/// The crates that take untrusted input, each with its roots.
const SCOPES: [(&str, IsRoot); 2] = [
    ("pipeline", |stem, name| {
        (stem == "wire" && name.starts_with("decode"))
            || (stem == "checkpoint" && name.starts_with("load"))
            || ((stem == "server" || stem == "client") && name.starts_with("decode"))
            || (stem == "server" && name == "resolve_request")
            || (stem == "link" && name == "recv")
            || (stem == "worker" && name == "serve_link")
            || name == "read_frame"
    }),
    ("cli", |_, name| {
        name == "scan" || (name.starts_with("parse_") && name.ends_with("_args"))
    }),
];

/// Runs D004 over the file set, one call graph per scope.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let findings = |&(scope, is_root)| check_scope(files, scope, is_root);
    SCOPES.iter().flat_map(findings).collect()
}

fn check_scope(files: &[SourceFile], scope: &str, is_root: fn(&str, &str) -> bool) -> Vec<Finding> {
    // Gather every non-test fn in the scope's crate, with its calls.
    struct Node<'a> {
        file: &'a SourceFile,
        def: FnDef,
        calls: Vec<String>,
    }
    let mut nodes: Vec<Node<'_>> = Vec::new();
    for file in files {
        if file.crate_name() != scope {
            continue;
        }
        for def in file.functions() {
            if def.in_test {
                continue;
            }
            let calls = file.calls_in(def.tokens);
            nodes.push(Node { file, def, calls });
        }
    }

    // Name-indexed reachability: calling `foo` may land in any `fn foo` in
    // the crate (method receivers are not resolved — conservative by design).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.def.name.as_str()).or_default().push(i);
    }
    let mut reachable: BTreeSet<usize> = BTreeSet::new();
    let mut frontier: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| is_root(n.file.stem(), &n.def.name))
        .map(|(i, _)| i)
        .collect();
    while let Some(i) = frontier.pop() {
        if !reachable.insert(i) {
            continue;
        }
        for call in &nodes[i].calls {
            if let Some(targets) = by_name.get(call.as_str()) {
                frontier.extend(targets.iter().copied());
            }
        }
    }

    // Flag panic sites inside reachable functions.
    let mut findings = Vec::new();
    for &i in &reachable {
        let n = &nodes[i];
        let toks = &n.file.tokens;
        for j in n.def.tokens.0..n.def.tokens.1.min(toks.len()) {
            if toks[j].kind != TokenKind::Ident {
                continue;
            }
            let name = toks[j].text.as_str();
            let method_panic = matches!(name, "unwrap" | "expect")
                && j >= 1
                && toks[j - 1].is_punct(".")
                && toks.get(j + 1).is_some_and(|t| t.is_punct("("));
            let macro_panic = matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                && toks.get(j + 1).is_some_and(|t| t.is_punct("!"));
            if method_panic || macro_panic {
                let rendered = if method_panic {
                    format!(".{name}()")
                } else {
                    format!("{name}!")
                };
                findings.push(Finding {
                    rule: "D004",
                    path: n.file.path.clone(),
                    line: toks[j].line,
                    message: format!(
                        "`{rendered}` in `{}`, which is reachable from the untrusted-input \
                         decoders; malformed wire/checkpoint/command-line data must surface \
                         as a typed error, never a panic",
                        n.def.name
                    ),
                });
            }
        }
    }
    findings
}

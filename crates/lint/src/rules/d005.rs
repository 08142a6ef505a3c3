//! D005 — no lock guard held across a channel send or socket I/O.
//!
//! In the master/transport layer a mutex or rwlock guard held across a
//! blocking `send`/`recv`/socket write couples lock hold time to network and
//! scheduling latency: one slow worker connection can stall every thread
//! contending for the same shard, and two locks acquired in opposite order
//! around blocking calls deadlock outright.  The discipline is: copy what you
//! need out of the guard, drop it (end of scope or explicit `drop`), *then*
//! perform the blocking operation.
//!
//! Fires in `transport.rs`, `link.rs`, `worker.rs`, `shard.rs`, `master.rs`,
//! `server.rs` and `client.rs` when a guard bound from a
//! zero-argument `.lock()` / `.read()` / `.write()` call is still live
//! (same block, not yet `drop`ped) at a `.send(` / `.recv(` /
//! `.write_all(` / `.read_exact(` / `.flush(` / `.accept(` call.  A std
//! guard still counts when its `LockResult` is unwrapped (`.unwrap()`,
//! `.expect(..)`, `.unwrap_or_else(..)`) or passed through a call
//! (`unpoisoned(state.lock())`, `Some(shard.read())`).

use super::Finding;
use crate::analysis::SourceFile;
use crate::lexer::{Token, TokenKind};

/// File stems patrolled by D005.
const SCOPE_STEMS: &[&str] = &[
    "transport",
    "link",
    "worker",
    "shard",
    "master",
    "server",
    "client",
];

/// Guard-producing methods (zero-argument distinguishes the lock APIs from
/// `io::Read::read(&mut buf)` / `io::Write::write(&buf)`).
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// The `LockResult` adapters that hand the guard on.
const RESULT_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Blocking channel/socket operations.
const BLOCKING_CALLS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "write_all",
    "read_exact",
    "flush",
    "accept",
];

/// Runs D005 over the file set.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !SCOPE_STEMS.contains(&file.stem()) {
            continue;
        }
        for def in file.functions() {
            if def.in_test {
                continue;
            }
            scan_fn(file, def.tokens, &mut findings);
        }
    }
    findings
}

/// Walks one function body tracking live guards by lexical scope.
fn scan_fn(file: &SourceFile, range: (usize, usize), findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    // (name, depth at which the guard's `let` lives)
    let mut live: Vec<(String, u32)> = Vec::new();
    let mut i = range.0;
    let end = range.1.min(toks.len());
    while i < end {
        let t = &toks[i];
        // Leaving a block kills guards bound inside it.
        if t.is_punct("}") {
            let depth_after = file.depth[i];
            live.retain(|&(_, d)| d <= depth_after);
        }
        // `drop(name)` kills the guard explicitly.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
            && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
        {
            let name = &toks[i + 2].text;
            live.retain(|(n, _)| n != name);
        }
        // `let [mut] name = … .lock() … ;` binds a guard.
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let (Some(name_tok), Some(eq_tok)) = (toks.get(j), toks.get(j + 1)) {
                if name_tok.kind == TokenKind::Ident && eq_tok.is_punct("=") {
                    // A guard binding is a *trailing* zero-argument guard
                    // method call, followed only by `LockResult` adapters
                    // and wrapping calls' `)`s — `let g = shard.lock();`,
                    // `let g = unpoisoned(shard.lock());`.  A chained call
                    // (`.lock().clone()`) makes the guard a temporary,
                    // dropped at the end of the statement; a `{` means a
                    // block expression whose inner `let`s are scanned on
                    // their own.
                    let mut k = j + 2;
                    while k < end && !toks[k].is_punct(";") && !toks[k].is_punct("{") {
                        if toks[k].is_punct(".")
                            && toks
                                .get(k + 1)
                                .is_some_and(|t| GUARD_METHODS.contains(&t.text.as_str()))
                            && toks.get(k + 2).is_some_and(|t| t.is_punct("("))
                            && toks.get(k + 3).is_some_and(|t| t.is_punct(")"))
                            && ends_in_hand(toks, k + 4)
                        {
                            live.push((name_tok.text.clone(), file.depth[i]));
                            break;
                        }
                        k += 1;
                    }
                }
            }
        }
        // A blocking call while any guard is live is the violation.
        if t.is_punct(".")
            && toks
                .get(i + 1)
                .is_some_and(|t| BLOCKING_CALLS.contains(&t.text.as_str()))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
            && !live.is_empty()
        {
            let (guard, _) = &live[live.len() - 1];
            findings.push(Finding {
                rule: "D005",
                path: file.path.clone(),
                line: toks[i + 1].line,
                message: format!(
                    "`.{}()` while lock guard `{guard}` is live; copy data out, drop the \
                     guard, then block — a held guard couples lock hold time to network \
                     latency and invites deadlock",
                    toks[i + 1].text
                ),
            });
        }
        i += 1;
    }
}

/// Whether the guard is still in hand when the statement reaches its `;`,
/// reading from `from` (just past the guard method's `()`): nothing but the
/// `)`s of calls that wrap it and [`RESULT_ADAPTERS`] calls comes first.
fn ends_in_hand(toks: &[Token], from: usize) -> bool {
    let mut depth = 0usize; // inside an adapter's argument list
    for t in &toks[from.min(toks.len())..] {
        if t.is_punct(";") {
            return depth == 0;
        } else if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && !t.is_punct(".") && !RESULT_ADAPTERS.contains(&t.text.as_str()) {
            return false;
        }
    }
    false
}

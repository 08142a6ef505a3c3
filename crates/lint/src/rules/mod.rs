//! The rules, D001–D006: five determinism invariants and one on dead surface.
//!
//! Each rule inspects the analyzed [`SourceFile`]s and reports [`Finding`]s.
//! Rules are *module-path aware*: every rule declares which crates/file stems
//! it patrols, so e.g. D001 only fires in the wire/checkpoint/cache layer
//! where decimal float formatting would corrupt bit-exactness, while a CLI
//! table printer may format floats freely.
//!
//! | Code | Invariant |
//! |------|-----------|
//! | D001 | floats cross serialization boundaries as 16-hex-digit bit patterns, never decimal text |
//! | D002 | nothing ordered (wire records, checkpoints, work queues) iterates a Hash map/set |
//! | D003 | wall clocks and OS entropy never influence result values |
//! | D004 | code reachable from untrusted-input decoders returns errors, never panics |
//! | D005 | no lock guard is held across channel sends or socket I/O |
//! | D006 | every `pub fn` of a library crate has a caller outside `#[cfg(test)]` code |
//!
//! D001–D005 patrol the workspace's own sources.  D006 also reads the
//! caller-only files (examples, integration tests, the benchmark) for the
//! names they call, and reports nothing in them.

pub mod d001;
pub mod d002;
pub mod d003;
pub mod d004;
pub mod d005;
pub mod d006;

use crate::analysis::SourceFile;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule code (`D001`…`D006`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// Renders in the canonical `file:line: [CODE] message` form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Runs every rule over the linted files (D006 also reads `callers` for
/// their calls) and returns all findings, sorted by path, line, then rule
/// code.
pub fn run_all(files: &[SourceFile], callers: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(d001::check(files));
    findings.extend(d002::check(files));
    findings.extend(d003::check(files));
    findings.extend(d004::check(files));
    findings.extend(d005::check(files));
    findings.extend(d006::check(files, callers));
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

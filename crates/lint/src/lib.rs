//! `smp-lint` — a repo-specific static analyzer for the semi-Markov
//! passage-time workspace.
//!
//! Generic linters can say a `HashMap` iteration exists; only this workspace
//! knows that iteration order feeding a checkpoint file breaks the
//! distributed pipeline's bit-exact restart guarantee.  `smp-lint` encodes
//! those *repo-specific determinism invariants* as five rules, and a sixth
//! that narrows the public surface to what other crates name (see
//! [`rules`]), built on a hand-rolled lexer (`lexer`) and token-level
//! structure pass (`analysis`) — the build container has no crates.io
//! access, so there is deliberately no `syn`/`proc-macro2` in sight.
//!
//! Invocation:
//!
//! ```text
//! cargo run -p smp-lint            # report findings
//! cargo run -p smp-lint -- --deny  # exit nonzero on any finding (CI mode)
//! ```
//!
//! Findings render as `file:line: [CODE] message`.  Intentional exceptions
//! live in the workspace-root `lint.toml` (see [`config`]), each with a
//! mandatory recorded reason.

#![forbid(unsafe_code)]

mod analysis;
pub mod config;
mod lexer;
pub mod rules;

use analysis::SourceFile;
use config::Config;
use rules::Finding;
use std::path::{Path, PathBuf};

/// Analyzes in-memory `(path, source)` pairs and applies the allowlist.
///
/// This is the testable core: fixtures hand it synthetic paths such as
/// `crates/pipeline/src/wire.rs` so the module-scoping logic engages without
/// touching the real tree.  A file outside `src/` and `crates/*/src`
/// (`examples/…`, `tests/…`, `smpbench/…`) is read only for the names it
/// mentions (D006) and is never itself a finding's site.
pub fn analyze_files(files: &[(String, String)], config: &Config) -> Vec<Finding> {
    let (parsed, callers): (Vec<SourceFile>, Vec<SourceFile>) = files
        .iter()
        .map(|(path, src)| SourceFile::parse(path, src))
        .partition(|f| is_linted(&f.path));
    rules::run_all(&parsed, &callers)
        .into_iter()
        .filter(|f| {
            let line_text = parsed
                .iter()
                .find(|p| p.path == f.path)
                .map(|p| p.line_text(f.line).to_string())
                .unwrap_or_default();
            !config.allows(f.rule, &f.path, &line_text)
        })
        .collect()
}

/// Result of analyzing a workspace on disk.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// Findings that survived the allowlist, sorted by path/line/rule.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// True for a workspace source the rules patrol: `src/…` or
/// `crates/<name>/src/…`.
fn is_linted(path: &str) -> bool {
    path.starts_with("src/")
        || path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

/// Walks a workspace root (`src/` plus every `crates/*/src/`), lints all Rust
/// sources, and applies the root `lint.toml` if present.  The caller-only
/// trees — `examples/`, `tests/`, `crates/*/tests`, `smpbench/src` and
/// `smpbench/tests` — are read for D006.
///
/// Skipped subtrees: `crates/lint` (its fixtures and rule-pattern strings are
/// violations *by construction*), `vendor/` (external stand-ins), and
/// `target/`.
pub fn analyze_workspace(root: &Path) -> Result<WorkspaceReport, String> {
    let config = load_config(root)?;
    let mut sources = Vec::new();
    let mut roots: Vec<PathBuf> = ["src", "examples", "tests", "smpbench/src", "smpbench/tests"]
        .iter()
        .map(|dir| root.join(dir))
        .collect();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "lint"))
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            roots.push(dir.join("src"));
            roots.push(dir.join("tests"));
        }
    }
    for dir in roots {
        collect_rs_files(&dir, &mut sources)?;
    }
    sources.sort();
    let mut files = Vec::new();
    for path in &sources {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("{} is outside the workspace root", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        files.push((rel, text));
    }
    let files_scanned = files.len();
    Ok(WorkspaceReport {
        findings: analyze_files(&files, &config),
        files_scanned,
    })
}

/// Loads `<root>/lint.toml`, or an empty config when absent.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => Config::parse(&text).map_err(|e| e.to_string()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

/// Recursively collects `.rs` files under `dir` (missing dirs are fine).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("reading {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_suppresses_matching_finding() {
        let src = "fn f() { let started = Instant::now(); }\n";
        let files = vec![("crates/pipeline/src/engine.rs".to_string(), src.to_string())];
        // Without an allowlist the D003 finding fires…
        let found = analyze_files(&files, &Config::default());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "D003");
        // …and the lint.toml entry silences exactly it.
        let cfg = Config::parse(
            r#"
[[allow]]
rule = "D003"
file = "crates/pipeline/src/engine.rs"
context = "let started = Instant::now"
reason = "elapsed-time provenance only"
"#,
        )
        .unwrap();
        assert!(analyze_files(&files, &cfg).is_empty());
        // A different line in the same file is NOT covered.
        let other = vec![(
            "crates/pipeline/src/engine.rs".to_string(),
            "fn g() { let t = SystemTime::now(); }\n".to_string(),
        )];
        assert_eq!(analyze_files(&other, &cfg).len(), 1);
    }

    #[test]
    fn finding_renders_canonical_form() {
        let f = Finding {
            rule: "D001",
            path: "crates/pipeline/src/wire.rs".to_string(),
            line: 42,
            message: "msg".to_string(),
        };
        assert_eq!(f.render(), "crates/pipeline/src/wire.rs:42: [D001] msg");
    }
}

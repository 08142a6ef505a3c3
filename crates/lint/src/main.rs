//! The `smp-lint` binary: lint the workspace's determinism invariants.
//!
//! ```text
//! cargo run -p smp-lint                 # report findings, exit 0
//! cargo run -p smp-lint -- --deny       # exit 1 when findings remain (CI)
//! cargo run -p smp-lint -- --root DIR   # lint a tree other than cwd
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("smp-lint: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "smp-lint: static analyzer for the workspace's determinism invariants\n\
                     \n\
                     usage: smp-lint [--deny] [--root DIR]\n\
                     \n\
                     rules: D001 float-as-text on wire paths, D002 hash iteration feeding\n\
                     ordered sinks, D003 wall-clock/entropy in results, D004 panics on\n\
                     untrusted-decode paths, D005 lock guard across blocking I/O, D006\n\
                     `pub` item of a library crate that nothing outside the crate names\n\
                     (make it `pub(crate)`; clippy's dead_code then judges it).\n\
                     exceptions live in <root>/lint.toml ([[allow]] entries with reasons)."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("smp-lint: unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let report = match smp_lint::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("smp-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for finding in &report.findings {
        println!("{}", finding.render());
    }
    if report.findings.is_empty() {
        eprintln!(
            "smp-lint: {} files scanned, no findings",
            report.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "smp-lint: {} files scanned, {} finding(s)",
            report.files_scanned,
            report.findings.len()
        );
        if deny {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

//! Fixture self-tests: every rule fires on its bad fixture and stays quiet
//! on its good twin.
//!
//! Fixtures are analyzed under *synthetic* workspace paths so the rules'
//! module scoping engages (e.g. D001 only patrols the pipeline crate's
//! wire/checkpoint/cache stems) without touching the real tree.

use smp_lint::analyze_files;
use smp_lint::config::Config;

/// Runs the analyzer on one fixture under the given synthetic path.
fn findings(path: &str, source: &str) -> Vec<smp_lint::rules::Finding> {
    analyze_files(
        &[(path.to_string(), source.to_string())],
        &Config::default(),
    )
}

/// Asserts the bad fixture yields findings, all of them `rule`, and the good
/// fixture yields none at all (from any rule).
fn assert_rule(rule: &str, path: &str, bad: &str, good: &str) {
    let bad_findings = findings(path, bad);
    assert!(
        !bad_findings.is_empty(),
        "{rule}: bad fixture produced no findings"
    );
    for f in &bad_findings {
        assert_eq!(
            f.rule,
            rule,
            "{rule}: bad fixture tripped an unexpected rule: {}",
            f.render()
        );
        assert!(f.line > 0, "{rule}: finding without a line: {}", f.render());
        assert_eq!(f.path, path);
    }
    let good_findings = findings(path, good);
    assert!(
        good_findings.is_empty(),
        "{rule}: good fixture is not clean: {:?}",
        good_findings.iter().map(|f| f.render()).collect::<Vec<_>>()
    );
}

#[test]
fn d001_float_to_text_on_wire_paths() {
    let bad = include_str!("../fixtures/d001_bad.rs");
    let good = include_str!("../fixtures/d001_good.rs");
    assert_rule("D001", "crates/pipeline/src/wire.rs", bad, good);
    // Expect one finding per offending fn: plain {}, inline captures,
    // precision spec, and an `as f64` cast.
    assert_eq!(findings("crates/pipeline/src/wire.rs", bad).len(), 4);
    // The same source outside the wire/checkpoint/cache scope is no finding:
    // a CLI table printer may format floats freely.
    assert!(findings("crates/cli/src/lib.rs", bad).is_empty());
}

#[test]
fn d002_hash_iteration_feeding_ordered_sinks() {
    let bad = include_str!("../fixtures/d002_bad.rs");
    let good = include_str!("../fixtures/d002_good.rs");
    assert_rule("D002", "crates/pipeline/src/checkpoint.rs", bad, good);
    assert_eq!(findings("crates/pipeline/src/checkpoint.rs", bad).len(), 3);
}

#[test]
fn d003_wall_clock_and_entropy_in_results() {
    let bad = include_str!("../fixtures/d003_bad.rs");
    let good = include_str!("../fixtures/d003_good.rs");
    assert_rule("D003", "crates/core/src/passage.rs", bad, good);
    assert_eq!(findings("crates/core/src/passage.rs", bad).len(), 3);
    // transport.rs is exempt wholesale: timeouts are genuinely about wall time.
    assert!(findings("crates/pipeline/src/transport.rs", bad).is_empty());
    // The fault schedule, the backoff and the link layer are not.
    assert_eq!(findings("crates/pipeline/src/fault.rs", bad).len(), 3);
    assert_eq!(findings("crates/pipeline/src/link.rs", bad).len(), 3);
}

#[test]
fn d004_panics_reachable_from_decoders() {
    let bad = include_str!("../fixtures/d004_bad.rs");
    let good = include_str!("../fixtures/d004_good.rs");
    assert_rule("D004", "crates/pipeline/src/wire.rs", bad, good);
    // unwrap in the root, expect in a callee, panic! in a transitive callee.
    assert_eq!(findings("crates/pipeline/src/wire.rs", bad).len(), 3);
    // In checkpoint.rs the roots are the loaders, the `.shard` sidecar's
    // `load` among them.
    assert_eq!(findings("crates/pipeline/src/checkpoint.rs", bad).len(), 1);
    // The link layer's roots: a `Link::recv` implementation and the
    // worker's frame loop.
    let link = "pub fn recv() -> u64 { helper() }\nfn helper() -> u64 { None::<u64>.unwrap() }";
    let worker = link.replace("recv", "serve_link");
    assert_eq!(findings("crates/pipeline/src/link.rs", link).len(), 1);
    assert_eq!(findings("crates/pipeline/src/worker.rs", &worker).len(), 1);
    assert!(findings("crates/pipeline/src/shard.rs", link).is_empty());
    // The request resolver reads strings straight off the wire.
    let resolver = link.replace("recv", "resolve_request");
    assert_eq!(
        findings("crates/pipeline/src/server.rs", &resolver).len(),
        1
    );
    // The command line is untrusted text too: the argv scanner and the five
    // `parse_*_args` root a second graph over the cli crate.
    for root in ["scan", "parse_args", "parse_query_args"] {
        let cli = link.replace("recv", root);
        assert_eq!(findings("crates/cli/src/lib.rs", &cli).len(), 1, "{root}");
    }
    assert!(findings("crates/cli/src/lib.rs", &link.replace("recv", "run_query")).is_empty());
}

#[test]
fn d005_guard_across_blocking_calls() {
    let bad = include_str!("../fixtures/d005_bad.rs");
    let good = include_str!("../fixtures/d005_good.rs");
    assert_rule("D005", "crates/pipeline/src/transport.rs", bad, good);
    // Three under bare guards, three under std's `LockResult` forms
    // (`unwrap_or_else`, `expect`, the poison-recovery helper).
    let fired = findings("crates/pipeline/src/transport.rs", bad);
    let lines: Vec<u32> = fired.iter().map(|f| f.line).collect();
    assert_eq!(lines, [8, 14, 15, 22, 28, 33]);
    assert_eq!(findings("crates/pipeline/src/link.rs", bad).len(), 6);
    assert_eq!(findings("crates/pipeline/src/worker.rs", bad).len(), 6);
    // Outside the master/link/worker layer the same code is not D005's business.
    assert!(findings("crates/pipeline/src/work.rs", bad).is_empty());
}

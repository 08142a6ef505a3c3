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
    let link = "fn recv() -> u64 { helper() }\nfn helper() -> u64 { None::<u64>.unwrap() }";
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

/// Runs the analyzer over several synthetic files at once.
fn findings_in(files: &[(&str, &str)]) -> Vec<smp_lint::rules::Finding> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|&(path, source)| (path.to_string(), source.to_string()))
        .collect();
    analyze_files(&files, &Config::default())
}

/// `(path, line, message)` of each finding, all of which must be D006's.
fn d006(fired: &[smp_lint::rules::Finding]) -> Vec<(&str, u32, &str)> {
    for f in fired {
        assert_eq!(f.rule, "D006", "unexpected rule: {}", f.render());
    }
    fired
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.message.as_str()))
        .collect()
}

#[test]
fn d006_pub_fn_named_only_by_its_own_unit_test() {
    let lonely = "pub fn lonely() -> u32 { 1 }\n\
                  #[cfg(test)]\n\
                  mod tests { use super::*; #[test] fn t() { assert_eq!(lonely(), 1); } }\n";
    let fired = findings("crates/numeric/src/stats.rs", lonely);
    let fired = d006(&fired);
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(fired[0].1, 1);
    assert!(fired[0].2.contains("`pub fn lonely`"), "{}", fired[0].2);
    // Another crate's unit tests do not count either.
    let other_tests =
        "#[cfg(test)]\nmod tests { #[test] fn t() { smp_numeric::stats::lonely(); } }\n";
    let fired = findings_in(&[
        ("crates/numeric/src/stats.rs", lonely),
        ("crates/core/src/solver.rs", other_tests),
    ]);
    assert_eq!(d006(&fired).len(), 1);
}

#[test]
fn d006_pub_fn_named_only_in_use_items() {
    // `exported` sits mid-list in a `pub use` and is imported by another
    // crate, but nothing calls it; its neighbours are called by an example.
    let special = "pub fn kept() {}\npub fn exported() {}\npub const fn kept_too() {}\n";
    let reexport = "pub mod special;\npub use special::{kept, exported, kept_too};\n";
    let importer = "use smp_numeric::special::{exported, kept};\nfn f() { kept() }\n";
    let example = "fn main() { kept_too(); }\n";
    let fired = findings_in(&[
        ("crates/numeric/src/special.rs", special),
        ("crates/numeric/src/lib.rs", reexport),
        ("crates/core/src/solver.rs", importer),
        ("examples/demo.rs", example),
    ]);
    let fired = d006(&fired);
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(fired[0].0, "crates/numeric/src/special.rs");
    assert_eq!(fired[0].1, 2);
}

#[test]
fn d006_counts_every_caller_outside_test_code() {
    let lib = "pub fn by_crate() {}\n\
               pub fn by_example() {}\n\
               pub fn by_bench() {}\n\
               pub fn by_bench_test() {}\n\
               pub fn by_test() {}\n\
               pub fn by_crate_test() {}\n\
               pub fn as_value(x: u32) -> u32 { x }\n\
               pub fn by_binary() {}\n\
               pub fn by_figure() {}\n\
               pub struct A;\n\
               impl A { pub fn len(&self) -> usize { 0 } }\n";
    // Each caller file, with the function only it names.
    let callers = [
        (
            "crates/core/src/solver.rs",
            "fn f() { smp_numeric::by_crate(); }\n",
            "by_crate",
        ),
        (
            "crates/voting/src/model.rs",
            "fn g(v: &[u32]) -> Vec<u32> { v.iter().copied().map(as_value).collect() }\n",
            "as_value",
        ),
        // A different `len` is called: the shared name keeps `A::len` alive.
        (
            "crates/dnamaca/src/eval.rs",
            "fn h(v: &[u8]) -> usize { v.len() }\n",
            "len",
        ),
        // A binary is a caller, never a candidate: its own uncalled `pub fn`
        // is no finding.
        (
            "crates/cli/src/main.rs",
            "fn main() { by_binary() }\npub fn usage() {}\n",
            "by_binary",
        ),
        (
            "crates/bench/src/bin/fig9.rs",
            "fn main() { by_figure() }\npub fn usage() {}\n",
            "by_figure",
        ),
        (
            "examples/demo.rs",
            "fn main() { by_example() }\n",
            "by_example",
        ),
        (
            "smpbench/src/layers.rs",
            "pub fn probe() { by_bench() }\n",
            "by_bench",
        ),
        (
            "smpbench/tests/smoke.rs",
            "#[test]\nfn t() { by_bench_test() }\n",
            "by_bench_test",
        ),
        (
            "tests/end_to_end.rs",
            "#[test]\nfn t() { smp_numeric::by_test() }\n",
            "by_test",
        ),
        (
            "crates/core/tests/oracle.rs",
            "#[test]\nfn t() { by_crate_test() }\n",
            "by_crate_test",
        ),
    ];
    let with_all = |dropped: &str| {
        let mut files = vec![("crates/numeric/src/lib.rs", lib)];
        files.extend(
            callers
                .iter()
                .filter(|(path, _, _)| *path != dropped)
                .map(|&(path, source, _)| (path, source)),
        );
        findings_in(&files)
    };
    let fired = with_all("");
    assert!(fired.is_empty(), "{:?}", d006(&fired));
    // Without its one caller each function is flagged, so every caller counts.
    for (path, _, name) in callers {
        let fired = with_all(path);
        let fired = d006(&fired);
        assert_eq!(fired.len(), 1, "{path}: {fired:?}");
        assert!(
            fired[0].2.contains(&format!("`pub fn {name}`")),
            "{path}: {fired:?}"
        );
    }
}

#[test]
fn d006_reads_caller_only_files_for_nothing_else() {
    // The benchmark, examples and integration tests are read for their calls
    // only: their own uncalled `pub fn`s, clocks and unwraps are no finding.
    let bench = "use std::time::Instant;\n\
                 pub fn unused_helper() { let t = Instant::now(); None::<u8>.unwrap(); }\n";
    for path in [
        "smpbench/src/main.rs",
        "examples/demo.rs",
        "tests/checkpoint.rs",
        "crates/pipeline/tests/wire.rs",
    ] {
        assert!(findings(path, bench).is_empty(), "{path}");
    }
    // The same source in the core crate trips D003 and D006.
    let mut rules: Vec<&str> = findings("crates/core/src/passage.rs", bench)
        .iter()
        .map(|f| f.rule)
        .collect();
    rules.dedup();
    assert_eq!(rules, ["D003", "D006"]);
}

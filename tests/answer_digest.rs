//! The analytic engine's answers pinned bit for bit, across builds.
//!
//! `workspace_equivalence` holds the kernel against its oracle inside one
//! binary, so a build setting that moves both sides alike (a target CPU level,
//! a fused multiply-add, a reassociated sum) passes it.  This suite folds the
//! bits of every value the analytic engine returns for the conformance corpus
//! and two voting systems into two FNV-1a digests per model — one over the
//! curves and the mean, one over the quantile search — and compares them
//! with the digests recorded on the portable `x86-64` build, so any build or
//! kernel rewrite that moves one answer by one ulp fails here, and a change
//! to the quantile search shows that it moved no curve bit.

mod corpus;

use smp_suite::core::query::{Engine, MeasureReport, MeasureRequest, TargetSpec};
use smp_suite::laplace::InversionMethod;
use smp_suite::numeric::stats::linspace;
use smp_suite::pipeline::{AnalyticEngine, ModelSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The battery: every measure kind whose value the analytic engine computes
/// from its own transform points.
fn battery(target: &str, ts: &[f64]) -> Vec<MeasureRequest> {
    let target = TargetSpec::parse(target).unwrap();
    vec![
        MeasureRequest::cdf(target.clone(), ts),
        MeasureRequest::density(target.clone(), ts),
        MeasureRequest::transient(target.clone(), ts),
        MeasureRequest::mean(target.clone()),
        MeasureRequest::quantile(target, &[0.5, 0.9]).with_t_points(ts),
    ]
}

/// One FNV-1a digest over `reports`: each report's name, then the bits of
/// its points and values.  Returns `(values, digest)`.
fn fold(reports: &[MeasureReport]) -> (usize, u64) {
    let mut h = Fnv::new();
    let mut values = 0;
    for report in reports {
        h.bytes(report.name.as_bytes());
        h.u64(report.values.len() as u64);
        for (point, value) in report.iter() {
            h.u64(point.to_bits());
            h.u64(value.to_bits());
        }
        values += report.values.len();
    }
    (values, h.0)
}

/// The battery solved by the analytic engine, digested twice: the curves
/// and the mean, which read fixed plans, and the quantile, which reads
/// whatever points its search asks for — so a change to the search moves
/// only the second.
fn digest(spec: ModelSpec, target: &str, ts: &[f64]) -> Digests {
    let engine = AnalyticEngine::new(spec, InversionMethod::euler());
    let reports = engine
        .solve(&battery(target, ts))
        .expect("the battery solves");
    let (curves, quantiles) = reports.split_at(reports.len() - 1);
    Digests {
        curves: fold(curves),
        quantiles: fold(quantiles),
    }
}

/// A model's two digests, each `(values, digest)`.
#[derive(Debug, PartialEq)]
struct Digests {
    curves: (usize, u64),
    quantiles: (usize, u64),
}

fn voting(voters: u32, polling: u32, central: u32) -> ModelSpec {
    ModelSpec::Voting {
        voters,
        polling,
        central,
    }
}

/// The recorded curve digests, `(model, values, digest)`.  The Erlang
/// lookalike's `erlangLT(2.0, 1, s)` evaluates to the bits of `expLT(2.0, s)`,
/// so it answers exactly as the exponential ring does.
const CURVES: &[(&str, usize, u64)] = &[
    ("ring-exp", 19, 0x4b086389b2f9227a),
    ("voting-exp", 19, 0xc79d72393f705614),
    ("ring-erlang-lookalike", 19, 0x4b086389b2f9227a),
    ("voting-3-1-1", 19, 0x90445dd1ef9c1106),
    ("voting 5,2,2", 13, 0x22b44a3005aee80a),
    ("voting 18,6,3", 10, 0xf865d87bb2b275cb),
];

/// The recorded quantile digests, `(model, values, digest)`.
const QUANTILES: &[(&str, usize, u64)] = &[
    ("ring-exp", 2, 0x6e056759116f6562),
    ("voting-exp", 2, 0x3abcd19b70cc2fa7),
    ("ring-erlang-lookalike", 2, 0x6e056759116f6562),
    ("voting-3-1-1", 2, 0xcc74bcf52263644b),
    ("voting 5,2,2", 2, 0xfdb92cff734a8178),
    ("voting 18,6,3", 2, 0x2b7a955530b15b93),
];

/// `got` as rows of the recorded table it is checked against.
fn table(got: &[(&'static str, (usize, u64))]) -> String {
    got.iter()
        .map(|(n, (v, d))| format!("    ({n:?}, {v}, {d:#018x}),\n"))
        .collect()
}

#[test]
fn analytic_answers_match_the_recorded_digests() {
    let mut got: Vec<(&str, Digests)> = Vec::new();
    for model in corpus::corpus() {
        let ts = linspace(model.t_start, model.t_stop, 6);
        got.push((model.name, digest(model.spec, model.target, &ts)));
    }
    let d = digest(voting(5, 2, 2), "p2>=5", &linspace(2.0, 40.0, 4));
    got.push(("voting 5,2,2", d));
    let d = digest(voting(18, 6, 3), "p2>=18", &linspace(10.0, 100.0, 3));
    got.push(("voting 18,6,3", d));

    let flat = |recorded: &[(&'static str, usize, u64)]| -> Vec<(&'static str, (usize, u64))> {
        recorded.iter().map(|&(n, v, d)| (n, (v, d))).collect()
    };
    // The curves first: a moved curve bit is a kernel or plan change, which
    // no change to the quantile search may hide behind.
    let curves: Vec<_> = got.iter().map(|(n, d)| (*n, d.curves)).collect();
    assert_eq!(curves, flat(CURVES), "curve digests:\n{}", table(&curves));
    let quantiles: Vec<_> = got.iter().map(|(n, d)| (*n, d.quantiles)).collect();
    assert_eq!(
        quantiles,
        flat(QUANTILES),
        "quantile digests:\n{}",
        table(&quantiles)
    );
}

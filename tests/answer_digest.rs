//! The analytic engine's answers pinned bit for bit, across builds.
//!
//! `workspace_equivalence` holds the kernel against its oracle inside one
//! binary, so a build setting that moves both sides alike (a target CPU level,
//! a fused multiply-add, a reassociated sum) passes it.  This suite folds the
//! bits of every value the analytic engine returns for the conformance corpus
//! and two voting systems into one FNV-1a digest per model, and compares them
//! with the digests recorded on the portable `x86-64` build, so any build or
//! kernel rewrite that moves one answer by one ulp fails here.

mod corpus;

use smp_suite::core::query::{Engine, MeasureRequest, TargetSpec};
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

/// `(values, digest)` of the battery solved by the analytic engine: each
/// report's name, then the bits of its points and values.
fn digest(spec: ModelSpec, target: &str, ts: &[f64]) -> (usize, u64) {
    let engine = AnalyticEngine::new(spec, InversionMethod::euler());
    let reports = engine
        .solve(&battery(target, ts))
        .expect("the battery solves");
    let mut h = Fnv::new();
    let mut values = 0;
    for report in &reports {
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

fn voting(voters: u32, polling: u32, central: u32) -> ModelSpec {
    ModelSpec::Voting {
        voters,
        polling,
        central,
    }
}

/// The recorded digests: `(model, values, digest)`.  The Erlang lookalike's
/// `erlangLT(2.0, 1, s)` evaluates to the bits of `expLT(2.0, s)`, so it
/// answers exactly as the exponential ring does.
const RECORDED: &[(&str, usize, u64)] = &[
    ("ring-exp", 21, 0xa587b9455283bf4e),
    ("voting-exp", 21, 0x4ef07e583da8307f),
    ("ring-erlang-lookalike", 21, 0xa587b9455283bf4e),
    ("voting-3-1-1", 21, 0xa11b0f3274253386),
    ("voting 5,2,2", 15, 0x35df2e43f57caaf9),
    ("voting 18,6,3", 12, 0x5b766fd77c40f031),
];

#[test]
fn analytic_answers_match_the_recorded_digests() {
    let mut got: Vec<(&str, usize, u64)> = Vec::new();
    for model in corpus::corpus() {
        let ts = linspace(model.t_start, model.t_stop, 6);
        let (values, d) = digest(model.spec, model.target, &ts);
        got.push((model.name, values, d));
    }
    let (values, d) = digest(voting(5, 2, 2), "p2>=5", &linspace(2.0, 40.0, 4));
    got.push(("voting 5,2,2", values, d));
    let (values, d) = digest(voting(18, 6, 3), "p2>=18", &linspace(10.0, 100.0, 3));
    got.push(("voting 18,6,3", values, d));

    let table: String = got
        .iter()
        .map(|(n, v, d)| format!("    ({n:?}, {v}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, RECORDED, "answer digests:\n{table}");
}

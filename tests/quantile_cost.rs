//! What the quantile search costs and what it may not lose for it.
//!
//! `smp_laplace::quantiles_from_cdf` reads the CDF and the density on 16
//! `t`-points per horizon level plus one per Newton round (at most 8 per
//! probability), and the engines never evaluate a transform point twice
//! inside one search.  These tests lock both numbers, the accuracy the
//! cheaper search still has to deliver — also behind a density that is
//! wrong — and the property that makes sharing it safe: a batched search
//! returns exactly the bits of its single-probability searches on every
//! provider, including the one that is not pointwise.

mod corpus;

use smp_suite::core::query::{Engine, MeasureReport, MeasureRequest, TargetSpec};
use smp_suite::distributions::Dist;
use smp_suite::laplace::{
    quantile, quantiles_from_cdf, CdfCurve, InversionMethod, SPointPlan, TransformValues,
};
use smp_suite::pipeline::{
    AnalyticEngine, DistributedEngine, ModelSpec, PipelineOptions, UniformizationEngine,
};
use std::convert::Infallible;

/// `s`-points Euler inversion plans per `t`-point.
const EULER_POINTS_PER_T: usize = 46;

/// The paper's voting model at 8 voters, 3 polling units, 2 central units
/// (261 markings); the passage until all 8 have voted has its median at 9.19,
/// its 0.9-quantile at 51.0 and its 0.99-quantile past 100.
fn voting() -> ModelSpec {
    ModelSpec::Voting {
        voters: 8,
        polling: 3,
        central: 2,
    }
}

fn all_voted() -> TargetSpec {
    TargetSpec::parse("p2>=8").unwrap()
}

/// A quantile request whose search starts at `horizon`.
fn quantile_request(target: TargetSpec, probs: &[f64], horizon: f64) -> MeasureRequest {
    MeasureRequest::quantile(target, probs).with_t_points(&[horizon / 2.0, horizon])
}

fn solve_one(engine: &dyn Engine, request: &MeasureRequest) -> MeasureReport {
    engine
        .solve(std::slice::from_ref(request))
        .unwrap()
        .remove(0)
}

/// Runs the policy over `curve`, `t ↦ (F(t), f(t))`, returning what it found
/// and every grid it asked for.
fn search_counting(
    probs: &[f64],
    initial: f64,
    max: f64,
    curve: impl Fn(f64) -> (f64, f64),
) -> (Vec<Option<f64>>, Vec<Vec<f64>>) {
    let mut calls = Vec::new();
    let found = quantiles_from_cdf::<Infallible>(probs, initial, max, &mut |ts: &[f64]| {
        calls.push(ts.to_vec());
        Ok(ts.iter().map(|&t| curve(t)).collect())
    })
    .unwrap();
    (found, calls)
}

// --- (a) cost lock ---------------------------------------------------------

#[test]
fn a_search_reads_16_points_per_level_and_one_per_newton_round() {
    // Exp(1): the quartile (0.29) and median (0.69) sit inside the first
    // level (horizon 1), the 0.9-quantile (2.30) needs horizon 4, the
    // 0.999-quantile (6.9) horizon 8 — four levels.
    let probs = [0.25, 0.5, 0.9, 0.999];
    let (found, calls) = search_counting(&probs, 1.0, 64.0, |t| (1.0 - (-t).exp(), (-t).exp()));
    assert!(found.iter().all(Option::is_some), "{found:?}");
    // Two or three Newton rounds per probability.
    let (levels, rounds) = (4, 10);
    assert_eq!(calls.len(), levels + rounds);
    let t_points: usize = calls.iter().map(Vec::len).sum();
    assert_eq!(t_points, 16 * levels + rounds);
    for ts in &calls {
        assert!(ts.len() == 16 || ts.len() == 1, "{ts:?}");
        assert!(ts[0] > 0.0, "the origin is never probed: {ts:?}");
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "{ts:?}");
    }
    // A doubled level's first eight points are the previous level's even
    // points, bit for bit — what lets a remembering provider skip them.
    let grids: Vec<&Vec<f64>> = calls.iter().filter(|ts| ts.len() == 16).collect();
    for pair in grids.windows(2) {
        let evens: Vec<u64> = pair[0]
            .iter()
            .skip(1)
            .step_by(2)
            .map(|t| t.to_bits())
            .collect();
        let firsts: Vec<u64> = pair[1][..8].iter().map(|t| t.to_bits()).collect();
        assert_eq!(evens, firsts);
    }
}

#[test]
fn two_quantiles_on_the_first_level_cost_1058_euler_evaluations() {
    // Both resolve on the first level (horizon 60), in different cells:
    // (16 + 4 + 3 Newton probes) t-points × 46 s-points.
    let request = quantile_request(all_voted(), &[0.5, 0.9], 60.0);
    let report = solve_one(
        &AnalyticEngine::new(voting(), InversionMethod::euler()),
        &request,
    );
    assert!(report.values[0] < 60.0 / 16.0 * 3.0 && report.values[1] > 60.0 / 16.0 * 13.0);
    assert_eq!(
        report.provenance.evaluations,
        (16 + 4 + 3) * EULER_POINTS_PER_T
    );
    assert_eq!(report.provenance.evaluations, 1_058);
}

// --- (b) accuracy lock -----------------------------------------------------

#[test]
fn closed_form_quantiles_are_met_within_a_ten_thousandth_of_the_horizon() {
    let horizon = 8.0;
    // Exponential: q(p) = −ln(1 − p)/λ.
    let exp = Dist::exponential(1.5);
    for p in [0.1, 0.5, 0.9, 0.99] {
        let q = quantile(InversionMethod::euler(), &exp, p, horizon, horizon).unwrap();
        let exact = -(1.0f64 - p).ln() / 1.5;
        assert!(
            (q - exact).abs() <= horizon / 10_000.0,
            "exp q({p}) = {q} vs {exact}"
        );
    }
    // Erlang(2, 3): bisect the closed-form CDF.
    let erlang = Dist::erlang(2.0, 3);
    for p in [0.1, 0.5, 0.9, 0.99] {
        let q = quantile(InversionMethod::euler(), &erlang, p, horizon, horizon).unwrap();
        let (mut lo, mut hi) = (0.0, horizon);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if erlang.cdf(mid).unwrap() < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        assert!(
            (q - hi).abs() <= horizon / 10_000.0,
            "erlang q({p}) = {q} vs {hi}"
        );
    }
}

#[test]
fn the_cdf_read_back_at_a_voting_quantile_recovers_p_to_5e_6() {
    // 0.99 forces a doubled horizon, i.e. a final cell twice as wide.
    let probs = [0.5, 0.9, 0.99];
    let engine = AnalyticEngine::new(voting(), InversionMethod::euler());
    let report = solve_one(&engine, &quantile_request(all_voted(), &probs, 60.0));
    assert!(report.values[2] > 60.0, "{:?}", report.values);
    for (&p, &q) in probs.iter().zip(&report.values) {
        // An independent request: F on a two-point grid ending at q.
        let cdf = solve_one(&engine, &MeasureRequest::cdf(all_voted(), &[q / 2.0, q]));
        let f = cdf.values[1];
        assert!((f - p).abs() <= 5e-6, "F({q}) = {f} vs p = {p}");
    }
}

// --- (c) batching invariance -----------------------------------------------

#[test]
fn a_batched_search_equals_its_single_probability_searches_bit_for_bit() {
    let ring = corpus::corpus()
        .into_iter()
        .find(|m| m.name == "ring-exp")
        .unwrap();
    let ring_target = TargetSpec::parse(ring.target).unwrap();
    let cases: Vec<(Box<dyn Engine>, TargetSpec, f64)> = vec![
        (
            Box::new(AnalyticEngine::new(voting(), InversionMethod::euler())),
            all_voted(),
            15.0,
        ),
        // Uniformization sums every time of a call to the depth its largest
        // needs: the provider whose values depend on what shares a call.
        (
            Box::new(UniformizationEngine::new(ring.spec)),
            ring_target,
            1.0,
        ),
    ];
    let probs = [0.25, 0.5, 0.9];
    for (engine, target, horizon) in cases {
        let batched = solve_one(&*engine, &quantile_request(target.clone(), &probs, horizon));
        for (&p, &q) in probs.iter().zip(&batched.values) {
            let alone = solve_one(&*engine, &quantile_request(target.clone(), &[p], horizon));
            assert_eq!(
                alone.values[0].to_bits(),
                q.to_bits(),
                "{}: q({p}) alone {} vs batched {q}",
                engine.name(),
                alone.values[0]
            );
        }
        // The probabilities resolve at different horizon levels, or the
        // batch would share nothing worth checking.
        assert!(batched.values[0] < horizon && batched.values[2] > horizon);
    }
}

// --- (d) no transform point is evaluated twice ------------------------------

fn in_process(method: InversionMethod) -> DistributedEngine {
    DistributedEngine::in_process(voting(), method, PipelineOptions::with_workers(2))
}

#[test]
fn a_laguerre_search_evaluates_one_plan() {
    // Laguerre's s-points do not depend on t: the first level grid evaluates
    // them and every later run — a doubled level, thirteen Newton rounds —
    // finds them all.
    let one_plan = SPointPlan::new(InversionMethod::laguerre(), &[1.0]).len();
    let request = quantile_request(all_voted(), &[0.5, 0.9], 40.0);
    let analytic = solve_one(
        &AnalyticEngine::new(voting(), InversionMethod::laguerre()),
        &request,
    );
    assert_eq!(analytic.provenance.evaluations, one_plan);
    let distributed = solve_one(&in_process(InversionMethod::laguerre()), &request);
    assert_eq!(distributed.provenance.evaluations, one_plan);
    // 2 levels + 8 + 5 rounds, all but the first answered from the search's
    // cache.  (Laguerre's noisier CDF keeps the median's steps above the
    // tolerance until the 8-probe cap.)
    assert_eq!(distributed.provenance.cache_hits, 14 * one_plan);
    assert_eq!(analytic.values, distributed.values);
    assert!(analytic.values[0] < 40.0 && analytic.values[1] > 40.0);
}

#[test]
fn a_doubled_euler_level_costs_eight_new_points() {
    // The 0.9-quantile (51.0) from horizon 15: levels 15, 30 and 60 — the
    // second and third share half their points with the one before.
    let request = quantile_request(all_voted(), &[0.9], 15.0);
    let expected = (16 + 8 + 8 + 3) * EULER_POINTS_PER_T;
    let analytic = solve_one(
        &AnalyticEngine::new(voting(), InversionMethod::euler()),
        &request,
    );
    assert_eq!(analytic.provenance.evaluations, expected);
    let distributed = solve_one(&in_process(InversionMethod::euler()), &request);
    assert_eq!(distributed.provenance.evaluations, expected);
    assert_eq!(
        distributed.provenance.cache_hits,
        (8 + 8) * EULER_POINTS_PER_T
    );
    assert_eq!(analytic.values, distributed.values);
}

// --- (e) the verdicts a cheaper search keeps --------------------------------

#[test]
fn unreachable_and_edge_probabilities_keep_their_verdicts() {
    let ramp = |t: f64| if t < 2.0 { (t / 2.0, 0.5) } else { (1.0, 0.0) };

    // Defective: tops out at 0.4.  The reachable quartile resolves; 0.9 is
    // None after every level up to the cap (1, 2, …, 16) and no probe; the
    // quartile takes two Newton rounds.
    let (found, calls) = search_counting(&[0.25, 0.9], 1.0, 16.0, |t| {
        (0.4 * (1.0 - (-t).exp()), 0.4 * (-t).exp())
    });
    assert!(found[0].is_some());
    assert_eq!(found[1], None);
    assert_eq!(calls.len(), 5 + 2);

    // max == initial below the quantile: None, not a clamp to the horizon.
    let (found, calls) = search_counting(&[0.9], 0.25, 0.25, ramp);
    assert_eq!(found, [None]);
    assert_eq!(calls.len(), 1);

    // p = 0 and p → 0 resolve to the search floor horizon/11,664: positive,
    // and never a probe at the origin.
    let (found, _) = search_counting(&[0.0, 1e-12], 1.0, 16.0, ramp);
    for q in found {
        let q = q.expect("tiny probabilities resolve on the first level");
        assert!((q * 11_664.0 - 1.0).abs() < 1e-12, "floor {q}");
    }

    // p = 1 is reached where the CDF equals 1 exactly …
    let (found, _) = search_counting(&[1.0], 1.0, 16.0, ramp);
    assert!((found[0].unwrap() - 2.0).abs() < 1e-3, "{found:?}");
    // … and is unreachable on a CDF that only tends to 1.
    let (found, _) = search_counting(&[1.0], 1.0, 16.0, |t| (1.0 - (-t).exp(), (-t).exp()));
    assert_eq!(found, [None]);

    // Through an engine an unreachable probability is an error that names it.
    let engine = AnalyticEngine::new(voting(), InversionMethod::euler());
    // (horizon 0.01 may grow 4,096-fold, to 40.96 — short of the 0.9-quantile.)
    let far = quantile_request(all_voted(), &[0.9], 0.01);
    let error = engine.solve(&[far]).unwrap_err().to_string();
    assert!(
        error.contains("not reached within the search horizon"),
        "{error}"
    );
}

/// `(F(t), f(t))` of `dist` on `ts` by Euler inversion of `L(s)/s` and `L(s)`.
fn inverted(dist: &Dist, ts: &[f64]) -> Vec<(f64, f64)> {
    let cdf = CdfCurve::from_density_transform(InversionMethod::euler(), dist, ts);
    let plan = SPointPlan::new(InversionMethod::euler(), ts);
    let density = plan.invert(&TransformValues::compute(&plan, dist));
    cdf.values().iter().copied().zip(density).collect()
}

#[test]
fn a_wrong_density_still_meets_the_closed_form_lock_within_the_probe_cap() {
    // Each wrong density trips a safeguard: one that is not positive and
    // finite, or 10x too small, sends the step out of the bracket; one 10x
    // too large makes steps that stop halving.  The Illinois chord takes
    // over, and the answer still meets (b)'s lock on one level in at most 8
    // probes.
    let horizon = 8.0;
    type Corruption = (&'static str, fn(f64) -> f64);
    let wrong: [Corruption; 5] = [
        ("zero", |_| 0.0),
        ("negative", |f| -f),
        ("NaN", |_| f64::NAN),
        ("10x too large", |f| 10.0 * f),
        ("10x too small", |f| f / 10.0),
    ];
    for dist in [Dist::exponential(1.5), Dist::erlang(2.0, 3)] {
        for (name, corrupt) in wrong {
            for p in [0.1, 0.5, 0.9, 0.99] {
                let mut calls = 0usize;
                let found = quantiles_from_cdf::<Infallible>(
                    &[p],
                    horizon,
                    horizon,
                    &mut |ts: &[f64]| {
                        calls += 1;
                        Ok(inverted(&dist, ts)
                            .into_iter()
                            .map(|(cdf, f)| (cdf, corrupt(f)))
                            .collect())
                    },
                )
                .unwrap();
                let q = found[0].expect("reached on the one level");
                let (mut lo, mut hi) = (0.0, horizon);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    if dist.cdf(mid).unwrap() < p {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                assert!(
                    (q - hi).abs() <= horizon / 10_000.0,
                    "{dist:?}, {name} density: q({p}) = {q} vs {hi}"
                );
                assert!(calls <= 1 + 8, "{dist:?}, {name}: {calls} calls");
            }
        }
    }

    // A ramp whose density drops to 0 on its flat top: p = 1 is first reached
    // at t = 2, where no Newton step can start, and the chord lands on it.
    let ramp = |t: f64| if t < 2.0 { (t / 2.0, 0.5) } else { (1.0, 0.0) };
    let (found, _) = search_counting(&[1.0], 1.0, 16.0, ramp);
    assert_eq!(found, [Some(2.0)]);
}

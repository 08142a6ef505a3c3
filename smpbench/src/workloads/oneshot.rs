//! `oneshot_sys1`: the analytic engine, one thread, on the paper's system 1
//! (voting 60,25,4: 106,994 states).  A fresh engine per repetition, because
//! a one-shot user pays the state-space exploration on every run.

use super::{repeat, timed_setup, voting, Counts, Problem, RunConfig, RunResult};
use crate::stats;
use crate::trace::Tracer;
use smp_core::query::{Engine, MeasureReport, MeasureRequest, TargetSpec};
use smp_core::PassageTimeSolver;
use smp_laplace::{InversionMethod, SPointPlan, TransformValues};
use smp_pipeline::{AnalyticEngine, MeasureKind as CurveKind, ResolveTarget};
use smp_smspn::reachability::StateSpace;
use std::time::Instant;

/// `F(t)` of system 1 as recorded by `smpbench --record-expected`.
const EXPECTED: &str = include_str!("../../expected/oneshot_sys1.tsv");
const EXPECTED_STATES: usize = 106_994;
const TOLERANCE: f64 = 1e-9;
/// Grid points of the warm-up solve on system 0: about half a second, long
/// enough for `setup_s` to be read steadily.
const WARM_UP_POINTS: usize = 10;

pub fn problem(smoke: bool) -> Problem {
    let (model, target, t_points) = if smoke {
        (voting(5, 2, 2), "p2>=5", vec![10.0, 20.0])
    } else {
        (voting(60, 25, 4), "p2>=60", vec![100.0, 200.0])
    };
    let target = TargetSpec::parse(target).expect("target predicate");
    Problem {
        requests: vec![MeasureRequest::cdf(target.clone(), &t_points)],
        model,
        target,
        t_points,
    }
}

/// The recorded `(t, F(t))` pairs, from their hex bit patterns.
fn expected_table() -> Result<Vec<(f64, f64)>, String> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let mut fields = line.split('\t');
            let mut hex = || {
                fields
                    .next()
                    .and_then(|f| u64::from_str_radix(f, 16).ok())
                    .map(f64::from_bits)
                    .ok_or_else(|| format!("bad expected line '{line}'"))
            };
            Ok((hex()?, hex()?))
        })
        .collect()
}

pub fn record_expected() -> Result<String, String> {
    let problem = problem(false);
    let reports = AnalyticEngine::new(problem.model, InversionMethod::euler())
        .solve(&problem.requests)
        .map_err(|e| e.to_string())?;
    let mut out = String::from(
        "# F(t) = P(passage into p2>=60 by t) of voting 60,25,4, AnalyticEngine + Euler.\n\
         # t bits\tF bits\tt\tF  (written by `smpbench --record-expected`)\n",
    );
    for (t, f) in reports[0].iter() {
        out.push_str(&format!(
            "{:016x}\t{:016x}\t{t}\t{f}\n",
            t.to_bits(),
            f.to_bits()
        ));
    }
    Ok(out)
}

/// What is wrong with one solve's answer, if anything.
fn check(
    reports: &[MeasureReport],
    problem: &Problem,
    expected: Option<&[(f64, f64)]>,
) -> Option<String> {
    let [report] = reports else {
        return Some(format!("{} reports for one request", reports.len()));
    };
    let plan = SPointPlan::new(InversionMethod::euler(), &problem.t_points);
    if report.provenance.evaluations != plan.len() {
        return Some(format!(
            "{} evaluations for a plan of {}",
            report.provenance.evaluations,
            plan.len()
        ));
    }
    let values = &report.values;
    if values.len() != problem.t_points.len()
        || values.iter().any(|v| !(0.0..=1.0).contains(v))
        || values.windows(2).any(|w| w[0] > w[1])
    {
        return Some(format!("{values:?} is not a CDF on the grid"));
    }
    if let Some(expected) = expected {
        if report.provenance.states != Some(EXPECTED_STATES) {
            return Some(format!("{:?} states", report.provenance.states));
        }
        for ((t, f), (want_t, want_f)) in report.iter().zip(expected) {
            if t != *want_t || (f - want_f).abs() > TOLERANCE {
                return Some(format!("F({t}) = {f}, recorded F({want_t}) = {want_f}"));
            }
        }
    }
    None
}

/// The analytic path again, stage by stage from public pieces, one span per
/// stage and per `s`-point.  Returns the CDF table and the iteration count.
fn replay(problem: &Problem, tracer: &mut Tracer, req: u64) -> Result<(Vec<f64>, usize), String> {
    let root = tracer.begin("replay", None, req);
    let net = tracer.span("parse", root, req, || {
        smp_dnamaca::parse_model(&problem.model.source()).map_err(|e| e.to_string())
    })?;
    let space = tracer.span("explore", root, req, || {
        StateSpace::explore(&net).map_err(|e| e.to_string())
    })?;
    let compile = tracer.begin("compile", root, req);
    let targets = problem
        .target
        .resolve(&net, &space)
        .map_err(|e| e.to_string())?;
    let solver = PassageTimeSolver::new(space.smp(), &[space.initial_state()], &targets)
        .map_err(|e| e.to_string())?;
    let mut workspace = solver.checkout_workspace();
    tracer.end(compile);
    let plan = tracer.span("plan", root, req, || {
        SPointPlan::new(InversionMethod::euler(), &problem.t_points)
    });
    let evaluate = tracer.begin("evaluate", root, req);
    let mut values = TransformValues::new();
    let mut iterations = 0;
    for &s in plan.s_points() {
        let spoint = tracer.begin("spoint", evaluate, req);
        let point = solver
            .transform_at_with(&mut workspace, s)
            .map_err(|e| e.to_string())?;
        tracer.end(spoint);
        iterations += point.iterations;
        values.insert(s, point.value);
    }
    tracer.end(evaluate);
    let table = tracer.span("invert", root, req, || {
        CurveKind::Cdf.postprocess(&plan, &values)
    });
    tracer.end(root);
    Ok((table, iterations))
}

pub fn run(config: &RunConfig, tracer: &mut Tracer) -> Result<RunResult, String> {
    let mut result = RunResult::default();

    // Set-up: the request, the recorded answer, and one small solve that
    // pages the engine's code in before anything is timed.
    let ((problem, expected), setup_s) = timed_setup(config.seconds, || {
        let problem = problem(config.smoke);
        let mut expected = if config.smoke {
            None
        } else {
            Some(expected_table()?)
        };
        if config.corrupt_reference {
            expected = Some(vec![(problem.t_points[0], 2.0)]);
        }
        let warm = super::fanout::problem(config.smoke);
        AnalyticEngine::new(warm.model, InversionMethod::euler())
            .solve(&[MeasureRequest::cdf(
                warm.target,
                &warm.t_points[..WARM_UP_POINTS.min(warm.t_points.len())],
            )])
            .map_err(|e| format!("warm-up solve: {e}"))?;
        Ok((problem, expected))
    })?;
    result.setup_s = setup_s;

    // The traced pass solves once and then spends its second repetition on
    // the replay, so what `repeat` records as tracing overhead is the replay
    // over `Engine::solve`.
    let mut last = Vec::new();
    let mut replayed = None;
    let mut walls = repeat(
        config,
        config.seconds,
        tracer,
        &mut result,
        |spans, index, result| {
            let t0 = Instant::now();
            if config.trace && index == 1 {
                replayed = Some(replay(&problem, spans, index)?);
                return Ok(Some(t0.elapsed().as_secs_f64()));
            }
            let reports = AnalyticEngine::new(problem.model.clone(), InversionMethod::euler())
                .solve(&problem.requests)
                .map_err(|e| e.to_string());
            let wall = t0.elapsed().as_secs_f64();
            match reports {
                Ok(reports) => {
                    result.operation(check(&reports, &problem, expected.as_deref()));
                    last = reports;
                }
                Err(e) => result.operation(Some(e)),
            }
            Ok(Some(wall))
        },
    )?;
    if replayed.is_some() {
        walls.pop();
    }
    result.solve_s = stats::median(&mut walls);
    result.walls = walls;
    let counts = Counts::of(&last);
    result.work_per_s = counts.evaluations as f64 / result.solve_s;
    result.peak_rss_kb = crate::proc::self_hwm_kb();
    counts.record(&mut result.layers);

    if let Some((table, iterations)) = replayed {
        // A replay that does not reproduce the engine's table bit for bit
        // has traced some other computation.
        let same = last.first().is_some_and(|r| {
            r.values
                .iter()
                .map(|v| v.to_bits())
                .eq(table.iter().map(|v| v.to_bits()))
        });
        result.operation(
            (!same).then(|| format!("the replay's table {table:?} is not the engine's")),
        );
        result.extra("replay.iters_total", iterations as f64, "count");
        for (stage, ns) in tracer.self_times() {
            result.extra(format!("replay.{stage}_self_ms"), ns as f64 / 1e6, "ms");
        }
    }
    result.probe = Some(problem);
    Ok(result)
}

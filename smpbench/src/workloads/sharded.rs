//! `sharded_sys0`: the state space row-sharded over two shard-holder
//! processes, every iteration of every `s`-point a halo exchange over TCP.

use super::{
    mismatch, reference, repeat, tcp_solve, timed_setup, voting, Counts, Problem, RunConfig,
    RunResult,
};
use crate::stats;
use crate::trace::Tracer;
use smp_core::query::{MeasureRequest, TargetSpec};
use smp_numeric::stats::linspace;

pub const SHARDS: usize = 2;

pub fn problem(smoke: bool) -> Problem {
    let (model, target, t_points) = if smoke {
        (voting(5, 2, 2), "p2>=5", linspace(2.0, 40.0, 3))
    } else {
        (voting(18, 6, 3), "p2>=18", linspace(10.0, 100.0, 2))
    };
    let target = TargetSpec::parse(target).expect("target predicate");
    Problem {
        requests: vec![MeasureRequest::cdf(target.clone(), &t_points)],
        model,
        target,
        t_points,
    }
}

pub fn run(config: &RunConfig, tracer: &mut Tracer) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let ((problem, reference), setup_s) = timed_setup(config.seconds, || {
        Ok((problem(config.smoke), reference("sharded_sys0", config)?))
    })?;
    result.setup_s = setup_s;

    let mut counts = Counts::default();
    let mut walls = repeat(
        config,
        config.seconds,
        tracer,
        &mut result,
        |spans, index, result| match tcp_solve(&problem, SHARDS, true, spans, index) {
            Ok((reports, wall, hwm_kb)) => {
                result.operation(mismatch(&reports, &reference));
                result.peak_rss_kb = result.peak_rss_kb.max(hwm_kb);
                counts = Counts::of(&reports);
                Ok(Some(wall))
            }
            Err(e) => {
                result.operation(Some(e));
                Ok(None)
            }
        },
    )?;
    result.solve_s = stats::median(&mut walls);
    result.walls = walls;
    result.work_per_s = counts.evaluations as f64 / result.solve_s;
    result.peak_rss_kb = result.peak_rss_kb.max(crate::proc::self_hwm_kb());
    counts.record(&mut result.layers);
    // Base: the wall the analytic engine reported for the same table in the
    // reference child (its evaluation and inversion; exploring system 0 adds
    // a few milliseconds).
    let unsharded_s: f64 = reference
        .iter()
        .map(|r| r.provenance.wall.as_secs_f64())
        .sum();
    result
        .layers
        .insert("shard.slowdown_vs_unsharded", result.solve_s / unsharded_s);
    result.extra("shard.unsharded_solve_s", unsharded_s, "s");
    if counts.exchange_rounds > 0 {
        result.extra(
            "shard.us_per_round",
            result.solve_s * 1e6 / counts.exchange_rounds as f64,
            "us",
        );
    }
    result.probe = Some(problem);
    Ok(result)
}

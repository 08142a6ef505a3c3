//! `fanout_sys0`: the master–worker pipeline of the paper's Table 2 on real
//! sockets.  Two worker processes dial in per repetition and are farmed the
//! `s`-points of a CDF and a density over one target (every point is shared
//! between the two measures).  The traced pass also runs the job on one
//! worker, which is the base of the scaling efficiency.

use super::{
    mismatch, reference, repeat, tcp_solve, timed_setup, voting, Counts, Problem, RunConfig,
    RunResult,
};
use crate::stats;
use crate::trace::Tracer;
use smp_core::query::{MeasureRequest, TargetSpec};
use smp_numeric::stats::linspace;

pub fn problem(smoke: bool) -> Problem {
    let (model, target, t_points) = if smoke {
        (voting(3, 1, 1), "p2>=3", linspace(2.0, 40.0, 6))
    } else {
        (voting(18, 6, 3), "p2>=18", linspace(10.0, 100.0, 40))
    };
    let target = TargetSpec::parse(target).expect("target predicate");
    Problem {
        requests: vec![
            MeasureRequest::cdf(target.clone(), &t_points),
            MeasureRequest::density(target.clone(), &t_points),
        ],
        model,
        target,
        t_points,
    }
}

pub fn run(config: &RunConfig, tracer: &mut Tracer) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let ((problem, reference), setup_s) = timed_setup(config.seconds, || {
        Ok((problem(config.smoke), reference("fanout_sys0", config)?))
    })?;
    result.setup_s = setup_s;

    let worker_counts: &[usize] = if config.trace { &[2, 1] } else { &[2] };
    let mut one = Vec::new();
    let mut counts = Counts::default();
    let mut two = repeat(
        config,
        config.seconds,
        tracer,
        &mut result,
        |spans, index, result| {
            let mut walls = [None, None];
            for (wall, &workers) in walls.iter_mut().zip(worker_counts) {
                match tcp_solve(&problem, workers, false, spans, index) {
                    Ok((reports, solve_wall, hwm_kb)) => {
                        result.operation(mismatch(&reports, &reference));
                        result.peak_rss_kb = result.peak_rss_kb.max(hwm_kb);
                        counts = Counts::of(&reports);
                        *wall = Some(solve_wall);
                    }
                    Err(e) => result.operation(Some(e)),
                }
            }
            one.extend(walls[1]);
            Ok(walls[0])
        },
    )?;
    result.solve_s = stats::median(&mut two);
    result.walls = two;
    result.work_per_s = counts.evaluations as f64 / result.solve_s;
    // The master is this process.
    result.peak_rss_kb = result.peak_rss_kb.max(crate::proc::self_hwm_kb());
    counts.record(&mut result.layers);
    if !one.is_empty() {
        // Base: the one-worker solve of the same job, same transport.
        let w1 = stats::median(&mut one);
        result
            .layers
            .insert("fanout.efficiency_w2", w1 / (2.0 * result.solve_s));
        result.extra("fanout.w1_solve_s", w1, "s");
    }
    result.probe = Some(problem);
    Ok(result)
}

//! The master process: planning, distribution, checkpointing and final inversion.

use crate::batch::MeasureKind;
use crate::cache::ResultCache;
use crate::checkpoint::{load_checkpoint_by_measure, CheckpointWriter};
use crate::transform::{CompileError, TransformSpec};
use crate::transport::{ExecutionPlan, Transport, TransportReport};
use crate::work::WorkItem;
use smp_core::workspace::BLOCK_LANES;
use smp_laplace::{union_s_points, InversionMethod, SPointPlan, TransformValues};
use smp_numeric::Complex64;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// Threads of [`crate::DistributedEngine::in_process`], its one reader;
    /// kept while the benchmark harness and a determinism suite set it.
    pub workers: usize,
    /// When set, computed values are appended to this file and reloaded on the next
    /// run (checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Number of work items dispatched to a worker per queue request and
    /// answered with a single result message.  `0` picks a size automatically
    /// (enough chunks for ~4 per worker, capped at 64 items, rounded up to a
    /// multiple of the kernel's widest lane block, `BLOCK_LANES` = 8, so a
    /// chunk is whole blocks at either lane width a model runs).
    pub chunk_size: usize,
    /// A result cache that outlives single runs.  When set, the pipeline
    /// dedupes against and deposits into this cache instead of building a
    /// run-local one, so values computed by one run are warm for the next —
    /// this is how the query server makes repeated/overlapping grids
    /// near-free.  Checkpoint *restore* is skipped (the shared cache **is**
    /// the restored state); checkpoint *writes* still happen when a path is
    /// configured.
    pub shared_cache: Option<Arc<ResultCache>>,
}

impl PipelineOptions {
    /// A convenience constructor for "N workers, nothing else".
    pub fn with_workers(workers: usize) -> Self {
        PipelineOptions {
            workers,
            ..Default::default()
        }
    }

    /// Sets the dispatch chunk size (builder style); `0` means automatic.
    pub fn chunked(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    fn resolve_chunk_size(&self, outstanding: usize, workers: usize) -> usize {
        if self.chunk_size > 0 {
            return self.chunk_size;
        }
        // Aim for ~4 chunks per worker so the tail of the run stays balanced,
        // while capping the per-message payload; whole lane blocks, so no
        // chunk ends in a partly filled one.
        (outstanding / (workers * 4))
            .clamp(1, 64)
            .next_multiple_of(BLOCK_LANES)
    }

    /// The cache runs under these options deposit into: the shared cache,
    /// else a fresh one restored from the checkpoint, if any.  A sequence of
    /// runs against one such cache — a quantile search's rounds — never
    /// evaluates a point twice.
    pub(crate) fn run_cache(&self) -> Result<Arc<ResultCache>, PipelineError> {
        if let Some(shared) = &self.shared_cache {
            return Ok(Arc::clone(shared));
        }
        let restored = match &self.checkpoint_path {
            Some(path) => load_checkpoint_by_measure(path)?,
            None => Default::default(),
        };
        Ok(Arc::new(ResultCache::from_shards(restored)))
    }
}

/// Errors produced by a pipeline run.
#[derive(Debug)]
pub enum PipelineError {
    /// A worker failed to evaluate the transform at some point.
    Evaluation {
        /// The failing `s`-point.
        s: Complex64,
        /// Description of the failure (typically a convergence report).
        message: String,
    },
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
    /// A measure's plan was left with unevaluated points (e.g. a worker died
    /// without reporting a value).
    Incomplete {
        /// Name of the measure whose plan is not fully covered.
        measure: String,
    },
    /// A spec's model does not parse or build, or its state space cannot be
    /// explored.
    Model {
        /// Description of the model's fault.
        message: String,
    },
    /// The transport backend itself failed: a spec would not compile or
    /// encode, or every worker was lost with work outstanding.
    Transport {
        /// Description of the backend failure.
        message: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Evaluation { s, message } => {
                write!(f, "evaluation failed at s = {s}: {message}")
            }
            PipelineError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            PipelineError::Incomplete { measure } => {
                write!(f, "measure '{measure}' has unevaluated transform points")
            }
            PipelineError::Model { message } => write!(f, "model error: {message}"),
            PipelineError::Transport { message } => write!(f, "transport error: {message}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        match e {
            CompileError::Model(message) => PipelineError::Model { message },
            CompileError::Spec(message) => PipelineError::Transport { message },
        }
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Io(e)
    }
}

/// One measure of a run: its name (for errors), how its values are read
/// off its transform, the time grid they are read on, and the transform.
#[derive(Debug)]
pub(crate) struct Measure<'a> {
    pub(crate) name: String,
    pub(crate) kind: MeasureKind,
    pub(crate) t_points: &'a [f64],
    pub(crate) spec: TransformSpec,
}

/// What a run found for one measure: its values — on its grid, or the one
/// moment — and where its planned `s`-points came from.
#[derive(Debug, Default)]
pub(crate) struct Solved {
    pub(crate) values: Vec<f64>,
    /// Points this measure caused to be evaluated in this run.
    pub(crate) evaluations: usize,
    /// Points found in the cache (restored from the checkpoint, or left by
    /// an earlier run).
    pub(crate) cache_hits: usize,
    /// Points another measure of the run evaluated under the same transform
    /// key (union planning).
    pub(crate) shared_hits: usize,
}

/// One run of the distributed analysis pipeline of Section 4 of the paper:
/// `measures` — curves over shared or distinct grids, moments over their
/// stencils — solved over any [`Transport`] backend, against `cache`.
///
/// The master plans the `s`-points of every measure, takes the union per
/// transform key (so measures sharing a transform never evaluate a point
/// twice), dedupes the union against the measure-keyed cache, and
/// dispatches the remaining points in chunks through the global work queue.
/// Each worker answers a chunk with one message; every value is cached and
/// checkpointed (when `options` name a checkpoint) under its measure's
/// transform key; once all values have arrived the master inverts each
/// measure on its own time grid with [`MeasureKind::postprocess`].  When
/// points fail, the error names the first failure in plan order, whichever
/// worker reported it first.  Returns the measures' results in order and
/// the transport's report, all zero for a fully warm run, which never
/// touches the transport.
pub(crate) fn run(
    method: &InversionMethod,
    options: &PipelineOptions,
    cache: &ResultCache,
    measures: &[Measure<'_>],
    transport: &dyn Transport,
) -> Result<(Vec<Solved>, TransportReport), PipelineError> {
    let plans: Vec<SPointPlan> = measures
        .iter()
        .map(|m| m.kind.plan(method.clone(), m.t_points))
        .collect();
    let keys: Vec<String> = measures.iter().map(|m| m.spec.transform_key()).collect();

    // Group measures by transform key, preserving first-appearance order.
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for (mi, key) in keys.iter().enumerate() {
        match groups.iter_mut().find(|(k, _)| k == key) {
            Some((_, members)) => members.push(mi),
            None => groups.push((key, vec![mi])),
        }
    }

    // Per key group: the union of the members' planned s-points, deduped
    // against one snapshot of the group's cached values.  The first
    // member needing an uncached point owns its evaluation; other members
    // count it as a shared hit.  A lone member's plan *is* the union, and
    // every point of it is wanted by that member.
    let mut items: Vec<WorkItem> = Vec::new();
    let mut solved: Vec<Solved> = measures.iter().map(|_| Solved::default()).collect();
    let mut cached: Vec<TransformValues> = Vec::with_capacity(groups.len());
    for (key, members) in &groups {
        // `wanted` stays empty for a lone member, which wants every point.
        let (union, wanted);
        let union: &[Complex64] = if let [only] = members[..] {
            wanted = Vec::new();
            plans[only].s_points()
        } else {
            union = union_s_points(members.iter().map(|&mi| &plans[mi]));
            wanted = members
                .iter()
                .map(|&mi| {
                    plans[mi]
                        .s_points()
                        .iter()
                        .map(|s| (s.re.to_bits(), s.im.to_bits()))
                        .collect::<HashSet<(u64, u64)>>()
                })
                .collect();
            &union
        };
        let snapshot = cache.snapshot(key, union);
        for &s in union {
            let bits = (s.re.to_bits(), s.im.to_bits());
            let mut needing = members
                .iter()
                .enumerate()
                .filter(|(member, _)| wanted.get(*member).is_none_or(|set| set.contains(&bits)))
                .map(|(_, &mi)| mi);
            if snapshot.contains(s) {
                for mi in needing {
                    solved[mi].cache_hits += 1;
                }
            } else {
                let owner = needing.next().expect("union point wanted by someone");
                solved[owner].evaluations += 1;
                for mi in needing {
                    solved[mi].shared_hits += 1;
                }
                items.push(WorkItem {
                    measure: owner,
                    index: items.len(),
                    s,
                });
            }
        }
        cached.push(snapshot);
    }

    let mut checkpoint = match &options.checkpoint_path {
        Some(path) => Some(CheckpointWriter::open(path)?),
        None => None,
    };

    let chunk_size = options.resolve_chunk_size(items.len(), transport.parallelism().max(1));
    let plan = ExecutionPlan {
        specs: measures.iter().map(|m| &m.spec).collect(),
        items,
        chunk_size,
        method: method.name().to_string(),
    };

    // The transport drains the plan; the master caches and checkpoints
    // every arriving value under its measure's transform key inside the
    // collection callback (this is the code path a multi-host deployment
    // runs when messages come off the network).  Of several failures the
    // run keeps the one of the lowest work-item index — the first in plan
    // order — so the error does not depend on which worker was faster.
    let mut first_error: Option<(usize, PipelineError)> = None;
    let mut fail = |index: usize, error: PipelineError| {
        if first_error.as_ref().is_none_or(|(first, _)| index < *first) {
            first_error = Some((index, error));
        }
    };
    // A fully-warm run has nothing to dispatch: skip the transport
    // entirely rather than (for the TCP backend) blocking on a worker
    // rendezvous that no worker has any reason to attend.
    let fully_warm = plan.items.is_empty();
    if !fully_warm {
        // About to go stale, and not worth holding through the dispatch.
        cached.clear();
    }
    let transport_result = if fully_warm {
        Ok(TransportReport::default())
    } else {
        transport.execute(plan, &mut |message| {
            for outcome in message.results {
                // The measure index ultimately comes off the wire for the
                // TCP backend; an out-of-range echo must fail the run,
                // not panic it (handlers already reject mismatched
                // echoes — this is the transport-independent backstop).
                let index = outcome.item.index;
                let Some(key) = keys.get(outcome.item.measure) else {
                    fail(
                        index,
                        PipelineError::Transport {
                            message: format!(
                                "result references measure {} but the run has {}",
                                outcome.item.measure,
                                keys.len()
                            ),
                        },
                    );
                    continue;
                };
                match outcome.outcome {
                    Ok(value) => {
                        cache.insert(key, outcome.item.s, value);
                        if let Some(writer) = checkpoint.as_mut() {
                            if let Err(e) = writer.record_tagged(key, outcome.item.s, value) {
                                fail(index, PipelineError::Io(e));
                            }
                        }
                    }
                    Err(message) => fail(
                        index,
                        PipelineError::Evaluation {
                            s: outcome.item.s,
                            message,
                        },
                    ),
                }
            }
        })
    };

    // A per-point evaluation failure is more specific than a transport
    // failure it may have caused; report it first.
    if let Some((_, error)) = first_error {
        return Err(error);
    }
    let report = transport_result?;

    // Invert each measure on its own grid with kind-specific
    // post-processing (the /s trick for CDFs and the moment fold live in
    // `MeasureKind::postprocess`).  A fully warm run found every planned
    // point in its group's snapshot a moment ago and reads it from there;
    // otherwise the values are looked up afresh, now that the transport
    // has deposited them.
    for (mi, m) in measures.iter().enumerate() {
        let fresh;
        let shard = if fully_warm {
            let group = groups.iter().position(|(_, members)| members.contains(&mi));
            &cached[group.expect("every measure is in a group")]
        } else {
            fresh = cache.snapshot(&keys[mi], plans[mi].s_points());
            if !plans[mi].is_satisfied_by(&fresh) {
                return Err(PipelineError::Incomplete {
                    measure: m.name.clone(),
                });
            }
            &fresh
        };
        solved[mi].values = m.kind.postprocess(&plans[mi], shard);
    }
    Ok((solved, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_stage;
    use crate::transform::{ModelSpec, TargetSpec};
    use crate::transport::InProcess;
    use crate::worker::{WorkItemOutcome, WorkerMessage};
    use smp_distributions::Dist;
    use smp_laplace::Euler;
    use smp_numeric::stats::linspace;
    use std::cell::Cell;

    /// The passage of a one-stage net with an Erlang holding time: its
    /// values are exactly `Dist::erlang(rate, phases).lst(s)`, so the tests
    /// can recompute them.
    fn erlang(rate: f64, phases: u32) -> TransformSpec {
        one_stage::passage(&format!("erlangLT({rate:?}, {phases}, s)"))
    }

    fn measure<'a>(
        name: &str,
        kind: MeasureKind,
        ts: &'a [f64],
        spec: TransformSpec,
    ) -> Measure<'a> {
        Measure {
            name: name.to_string(),
            kind,
            t_points: ts,
            spec,
        }
    }

    fn density<'a>(name: &str, ts: &'a [f64], spec: TransformSpec) -> Measure<'a> {
        measure(name, MeasureKind::Density, ts, spec)
    }

    fn cdf<'a>(name: &str, ts: &'a [f64], spec: TransformSpec) -> Measure<'a> {
        measure(name, MeasureKind::Cdf, ts, spec)
    }

    /// A run's results, its transport's name and report, and what the run
    /// handed that transport: the chunk size and how many result messages
    /// came back.
    struct Ran {
        solved: Vec<Solved>,
        backend: &'static str,
        report: TransportReport,
        chunk_size: usize,
        chunks: usize,
    }

    impl Ran {
        fn evaluations(&self) -> usize {
            self.solved.iter().map(|m| m.evaluations).sum()
        }

        fn cache_hits(&self) -> usize {
            self.solved.iter().map(|m| m.cache_hits).sum()
        }
    }

    /// In-process threads, recording the plan's chunk size and counting
    /// the result messages they deliver to the run.
    struct Counting {
        threads: InProcess,
        chunk_size: Cell<usize>,
        chunks: Cell<usize>,
    }

    impl Transport for Counting {
        fn name(&self) -> &'static str {
            self.threads.name()
        }

        fn parallelism(&self) -> usize {
            self.threads.parallelism()
        }

        fn execute(
            &self,
            plan: ExecutionPlan<'_>,
            on_message: &mut dyn FnMut(WorkerMessage),
        ) -> Result<TransportReport, PipelineError> {
            self.chunk_size.set(plan.chunk_size);
            self.threads.execute(plan, &mut |message| {
                self.chunks.set(self.chunks.get() + 1);
                on_message(message);
            })
        }
    }

    /// One run over as many worker threads as `options` ask, against the
    /// cache they name (a fresh one restored from their checkpoint, else).
    fn run_on(options: &PipelineOptions, measures: &[Measure<'_>]) -> Result<Ran, PipelineError> {
        let backend = Counting {
            threads: InProcess::new(options.workers),
            chunk_size: Cell::new(0),
            chunks: Cell::new(0),
        };
        let cache = options.run_cache()?;
        let (solved, report) = run(
            &InversionMethod::euler(),
            options,
            &cache,
            measures,
            &backend,
        )?;
        Ok(Ran {
            solved,
            backend: backend.name(),
            report,
            chunk_size: backend.chunk_size.get(),
            chunks: backend.chunks.get(),
        })
    }

    fn solve_density(options: &PipelineOptions, spec: TransformSpec, ts: &[f64]) -> Ran {
        run_on(options, &[density("single", ts, spec)]).unwrap()
    }

    #[test]
    fn pipeline_matches_direct_inversion() {
        let d = Dist::erlang(2.0, 3);
        let ts = linspace(0.2, 5.0, 25);
        let result = solve_density(&PipelineOptions::with_workers(4), erlang(2.0, 3), &ts);
        let reference = Euler::standard().invert_many(&d, &ts);
        assert_eq!(result.solved[0].values.len(), reference.len());
        for (a, b) in result.solved[0].values.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_eq!(result.cache_hits(), 0);
        assert!(result.evaluations() > 0);
        let total_by_workers: usize = result.report.worker_stats.iter().map(|w| w.evaluated).sum();
        assert_eq!(total_by_workers, result.evaluations());
    }

    #[test]
    fn worker_count_does_not_change_the_answer() {
        let uniform = one_stage::passage("uniformLT(0.5, 2.0, s)");
        let ts = linspace(0.25, 4.0, 12);
        let mut previous: Option<Vec<f64>> = None;
        for workers in [1, 2, 8] {
            let options = PipelineOptions::with_workers(workers);
            let mut result = solve_density(&options, uniform.clone(), &ts);
            let values = result.solved.remove(0).values;
            if let Some(prev) = &previous {
                for (a, b) in values.iter().zip(prev) {
                    assert!((a - b).abs() < 1e-12);
                }
            }
            previous = Some(values);
        }
    }

    #[test]
    fn the_automatic_chunk_size_is_whole_lane_blocks() {
        let automatic = PipelineOptions::default();
        assert_eq!(automatic.resolve_chunk_size(46, 2), 8);
        assert_eq!(automatic.resolve_chunk_size(1_840, 2), 64);
        assert_eq!(automatic.resolve_chunk_size(3, 4), 8);
        // An explicit size is taken as given.
        assert_eq!(automatic.chunked(5).resolve_chunk_size(46, 2), 5);
    }

    #[test]
    fn chunk_size_does_not_change_the_answer() {
        let ts = linspace(0.25, 4.0, 10);
        let mut previous: Option<Vec<f64>> = None;
        for chunk_size in [1, 7, 64] {
            let options = PipelineOptions::with_workers(3).chunked(chunk_size);
            let mut result = solve_density(&options, erlang(1.5, 2), &ts);
            assert_eq!(result.chunk_size, chunk_size);
            let values = result.solved.remove(0).values;
            if let Some(prev) = &previous {
                assert_eq!(&values, prev);
            }
            previous = Some(values);
        }
    }

    #[test]
    fn checkpoint_restart_skips_evaluations() {
        let ts = linspace(0.5, 3.0, 6);
        let mut path = std::env::temp_dir();
        path.push(format!("smp-pipeline-ckpt-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let options = PipelineOptions {
            workers: 2,
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let first = solve_density(&options, erlang(1.0, 2), &ts);
        assert_eq!(first.cache_hits(), 0);
        assert!(first.evaluations() > 0);

        let second = solve_density(&options, erlang(1.0, 2), &ts);
        assert_eq!(second.evaluations(), 0);
        assert_eq!(second.cache_hits(), first.evaluations());
        for (a, b) in first.solved[0].values.iter().zip(&second.solved[0].values) {
            assert!((a - b).abs() < 1e-12);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shared_cache_makes_second_run_fully_warm() {
        let ts = linspace(0.5, 4.0, 9);
        let shared = Arc::new(ResultCache::new());
        let options = PipelineOptions {
            workers: 2,
            shared_cache: Some(Arc::clone(&shared)),
            ..Default::default()
        };
        let first = solve_density(&options, erlang(2.0, 2), &ts);
        assert!(first.evaluations() > 0);
        assert_eq!(first.cache_hits(), 0);
        assert!(!shared.is_empty(), "values deposited into the shared cache");

        // A run on *different* options holding the same cache is fully warm:
        // zero evaluations, every planned point a cache hit, identical values.
        let options = PipelineOptions {
            workers: 5,
            shared_cache: Some(Arc::clone(&shared)),
            ..Default::default()
        };
        let second = solve_density(&options, erlang(2.0, 2), &ts);
        assert_eq!(second.evaluations(), 0);
        assert_eq!(second.cache_hits(), first.evaluations());
        assert_eq!(
            second.solved[0].values, first.solved[0].values,
            "bitwise identical"
        );
    }

    /// A fully warm re-run — nothing dispatched, values read from the group
    /// snapshots the dedup pass took — reports the counts and the value bits
    /// of a run that looks every point up one by one, for a lone measure and
    /// for two measures sharing a key over overlapping grids.
    #[test]
    fn fully_warm_rerun_keeps_counts_and_value_bits() {
        let d = Dist::erlang(2.0, 2);
        let contour = SPointPlan::new(InversionMethod::euler(), &[1.0]).len();
        let options_over = |shared: &Arc<ResultCache>| PipelineOptions {
            workers: 2,
            shared_cache: Some(Arc::clone(shared)),
            ..Default::default()
        };
        // The CDF as it was computed before the lookup-driven inversion: `/s`
        // into a derived copy, invert the copy, clamp, monotone sweep.
        let cdf_by_copy = |ts: &[f64]| {
            let plan = SPointPlan::new(InversionMethod::euler(), ts);
            let mut derived = TransformValues::new();
            for &s in plan.s_points() {
                derived.insert(s, d.lst(s) / s);
            }
            let mut running_max: f64 = 0.0;
            let mut values = plan.invert(&derived);
            for v in values.iter_mut() {
                *v = v.clamp(0.0, 1.0).max(running_max);
                running_max = *v;
            }
            values
        };
        let counts = |run: &Ran| -> Vec<(usize, usize, usize)> {
            run.solved
                .iter()
                .map(|m| (m.evaluations, m.cache_hits, m.shared_hits))
                .collect()
        };

        // One-member group.
        let shared = Arc::new(ResultCache::new());
        let ts = [0.5, 1.0, 2.5];
        let job = || [cdf("F", &ts, erlang(2.0, 2))];
        let cold = run_on(&options_over(&shared), &job()).unwrap();
        let warm = run_on(&options_over(&shared), &job()).unwrap();
        assert_eq!(counts(&cold), [(3 * contour, 0, 0)]);
        assert_eq!(counts(&warm), [(0, 3 * contour, 0)]);
        assert_eq!(warm.chunks, 0);
        assert_eq!(cold.solved[0].values, cdf_by_copy(&ts));
        assert_eq!(warm.solved[0].values, cold.solved[0].values);

        // Two-member group over overlapping grids: the density on {1, 2},
        // the CDF on {2, 3}, one spec and so one transform key.
        let shared = Arc::new(ResultCache::new());
        let (ts_d, ts_f) = ([1.0, 2.0], [2.0, 3.0]);
        let job = || {
            [
                density("d", &ts_d, erlang(2.0, 2)),
                cdf("F", &ts_f, erlang(2.0, 2)),
            ]
        };
        let cold = run_on(&options_over(&shared), &job()).unwrap();
        let warm = run_on(&options_over(&shared), &job()).unwrap();
        assert_eq!(
            counts(&cold),
            [(2 * contour, 0, 0), (contour, 0, contour)],
            "the density owns the shared contour, the CDF its own"
        );
        assert_eq!(
            counts(&warm),
            [(0, 2 * contour, 0), (0, 2 * contour, 0)],
            "warm, every planned point of either member is a cache hit"
        );
        let shared_hits: usize = warm.solved.iter().map(|m| m.shared_hits).sum();
        assert_eq!(
            (warm.evaluations(), warm.cache_hits(), shared_hits),
            (0, 4 * contour, 0)
        );
        assert_eq!(
            cold.solved[0].values,
            Euler::standard().invert_many(&d, &ts_d)
        );
        assert_eq!(cold.solved[1].values, cdf_by_copy(&ts_f));
        for (cold, warm) in cold.solved.iter().zip(&warm.solved) {
            assert_eq!(warm.values, cold.values, "bitwise identical");
        }

        // Partly warm: a wider grid re-uses what is cached and evaluates
        // (and afterwards looks up afresh) only the new contour.
        let wider_grid = [2.0, 3.0, 4.0];
        let wider = run_on(
            &options_over(&shared),
            &[cdf("F", &wider_grid, erlang(2.0, 2))],
        )
        .unwrap();
        assert_eq!(counts(&wider), [(contour, 2 * contour, 0)]);
        assert_eq!(wider.solved[0].values, cdf_by_copy(&wider_grid));
    }

    /// A test-double backend whose every evaluation fails to converge.  It
    /// answers the plan as two chunks, the later one first, as a faster
    /// worker holding the tail of the queue would.
    struct NeverConverges;

    impl Transport for NeverConverges {
        fn name(&self) -> &'static str {
            "never-converges"
        }

        fn parallelism(&self) -> usize {
            2
        }

        fn execute(
            &self,
            plan: ExecutionPlan<'_>,
            on_message: &mut dyn FnMut(WorkerMessage),
        ) -> Result<TransportReport, PipelineError> {
            let mut head = plan.items;
            let tail = head.split_off(head.len() / 2);
            for (worker, chunk) in [tail, head].into_iter().enumerate() {
                let results = chunk.into_iter().map(|item| WorkItemOutcome {
                    item,
                    outcome: Err(format!(
                        "synthetic convergence failure of item {}",
                        item.index
                    )),
                });
                on_message(WorkerMessage {
                    worker,
                    results: results.collect(),
                });
            }
            Ok(TransportReport::default())
        }
    }

    /// A run of `measures` over [`NeverConverges`].
    fn never_converges(measures: &[Measure<'_>]) -> Result<Vec<Solved>, PipelineError> {
        let (method, options) = (InversionMethod::euler(), PipelineOptions::with_workers(3));
        let cache = ResultCache::new();
        run(&method, &options, &cache, measures, &NeverConverges).map(|(solved, _)| solved)
    }

    #[test]
    fn evaluation_errors_are_reported() {
        match never_converges(&[density("single", &[1.0], erlang(1.0, 1))]) {
            Err(PipelineError::Evaluation { message, .. }) => {
                assert!(message.contains("synthetic"));
            }
            other => panic!("expected an evaluation error, got {other:?}"),
        }
    }

    /// Failures arriving out of plan order — the tail chunk's first — still
    /// report the first failure in plan order.
    #[test]
    fn the_first_failure_in_plan_order_is_reported() {
        let ts = [1.0, 2.0];
        match never_converges(&[density("single", &ts, erlang(1.0, 1))]) {
            Err(PipelineError::Evaluation { s, message }) => {
                assert!(message.ends_with("of item 0"), "{message}");
                let first = SPointPlan::new(InversionMethod::euler(), &ts).s_points()[0];
                assert_eq!(s, first);
            }
            other => panic!("expected an evaluation error, got {other:?}"),
        }
    }

    #[test]
    fn cdf_run_is_monotone_and_bounded() {
        let ts = linspace(0.25, 8.0, 30);
        let exponential = one_stage::passage("expLT(0.8, s)");
        let options = PipelineOptions::with_workers(2);
        let result = run_on(&options, &[cdf("single", &ts, exponential)]).unwrap();
        let values = &result.solved[0].values;
        for w in values.windows(2) {
            assert!(w[1] + 1e-12 >= w[0]);
        }
        for (t, v) in ts.iter().zip(values) {
            let expect = 1.0 - (-0.8 * t).exp();
            assert!((v - expect).abs() < 1e-5, "F({t}) = {v} vs {expect}");
        }
    }

    #[test]
    fn passage_time_solver_through_the_pipeline() {
        // Two exponential stages: passage density is Erlang(2, 2).
        let ring = r"\place{a}{1} \place{b}{0} \place{c}{0}
            \transition{ab}{ \condition{a > 0} \action{ next->a = a - 1; next->b = b + 1; }
                \sojourntimeLT{ return expLT(2.0, s); } }
            \transition{bc}{ \condition{b > 0} \action{ next->b = b - 1; next->c = c + 1; }
                \sojourntimeLT{ return expLT(2.0, s); } }
            \transition{ca}{ \condition{c > 0} \action{ next->c = c - 1; next->a = a + 1; }
                \sojourntimeLT{ return expLT(1.0, s); } }";
        let spec = TransformSpec::passage(
            ModelSpec::Dnamaca(ring.to_string()),
            TargetSpec::parse("c>=1").unwrap(),
        );
        let ts = linspace(0.2, 4.0, 16);
        let result = solve_density(&PipelineOptions::with_workers(4), spec, &ts);
        for (t, v) in ts.iter().zip(&result.solved[0].values) {
            let expect = 4.0 * t * (-2.0 * t).exp();
            assert!((v - expect).abs() < 1e-5, "f({t}) = {v} vs {expect}");
        }
    }

    #[test]
    fn batch_of_three_kinds_matches_single_measure_runs() {
        let ts = linspace(0.3, 5.0, 14);
        let options = PipelineOptions::with_workers(4);

        // A density, a CDF over the same transform (shared key), and a
        // transient measure over another model: a one-stage net with unit
        // exponential holding times both ways, which is in `a` at time `t`
        // with probability (1 + e^{-2t}) / 2.
        let decay = TransformSpec::transient(
            one_stage::net(r"\sojourntimeLT{ return expLT(1.0, s); }"),
            TargetSpec::parse("a>=1").unwrap(),
        );
        let batch = run_on(
            &options,
            &[
                density("d", &ts, erlang(2.0, 2)),
                cdf("F", &ts, erlang(2.0, 2)),
                measure("p", MeasureKind::Transient, &ts, decay),
            ],
        )
        .unwrap();
        let [d, cdf_values, p] = &batch.solved[..] else {
            panic!("three measures in, {} out", batch.solved.len());
        };

        // Density matches a single-measure run.
        let reference = solve_density(&options, erlang(2.0, 2), &ts);
        assert_eq!(d.values, reference.solved[0].values);

        // CDF matches a single-measure CDF run.
        let cdf_reference = run_on(&options, &[cdf("single", &ts, erlang(2.0, 2))]).unwrap();
        for (a, b) in cdf_values
            .values
            .iter()
            .zip(&cdf_reference.solved[0].values)
        {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        // The CDF shared every point with the density measure.
        assert_eq!(cdf_values.evaluations, 0);
        assert_eq!(cdf_values.shared_hits, d.evaluations);

        // Transient values are (1 + e^{-2t}) / 2, clamped into [0, 1].
        for (t, &v) in ts.iter().zip(&p.values) {
            let expect = (1.0 + (-2.0 * t).exp()) / 2.0;
            assert!((v - expect).abs() < 1e-6, "p({t}) = {v} vs {expect}");
            assert!((0.0..=1.0).contains(&v));
        }

        // Totals are consistent.
        let by_workers: usize = batch.report.worker_stats.iter().map(|w| w.evaluated).sum();
        assert_eq!(by_workers, batch.evaluations());
        let messages: usize = batch.report.worker_stats.iter().map(|w| w.messages).sum();
        assert_eq!(messages, batch.chunks);
        assert!(batch.chunk_size >= 1);
    }

    #[test]
    fn batch_reports_backend_and_protocol_counters() {
        let ts = linspace(0.5, 3.0, 5);
        let options = PipelineOptions::with_workers(2);
        let batch = run_on(&options, &[density("d", &ts, erlang(1.0, 2))]).unwrap();
        assert_eq!(batch.backend, "in-process");
        assert_eq!(batch.report.bytes_on_wire, 0);
        assert_eq!(batch.report.disconnects, 0);
        assert_eq!(batch.report.messages, batch.chunks);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let batch = run_on(&PipelineOptions::with_workers(2), &[]).unwrap();
        assert!(batch.solved.is_empty());
        assert_eq!(batch.evaluations(), 0);
        assert_eq!(batch.chunks, 0);
    }

    #[test]
    fn distinct_keys_do_not_share_even_with_identical_grids() {
        let a = one_stage::passage("expLT(1.0, s)");
        let b = one_stage::passage("expLT(3.0, s)");
        let ts = linspace(0.5, 4.0, 8);
        let options = PipelineOptions::with_workers(2);
        let batch = run_on(&options, &[density("a", &ts, a), density("b", &ts, b)]).unwrap();
        let union = SPointPlan::new(InversionMethod::euler(), &ts).len();
        // Distinct specs key distinctly: no sharing, |union| evaluations each.
        for m in &batch.solved {
            assert_eq!(m.evaluations, union);
            assert_eq!(m.shared_hits, 0);
            assert_eq!(m.cache_hits, 0);
        }
        assert_eq!(batch.evaluations(), 2 * union);
    }
}

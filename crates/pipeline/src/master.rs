//! The master process: planning, distribution, checkpointing and final inversion.

use crate::batch::{BatchJob, BatchResult, MeasureResult};
use crate::cache::ResultCache;
use crate::checkpoint::{load_checkpoint_by_measure, CheckpointWriter};
use crate::transform::CompileError;
use crate::transport::{ExecutionPlan, Transport, TransportReport};
use crate::work::WorkItem;
use smp_core::workspace::BLOCK_LANES;
use smp_laplace::{union_s_points, InversionMethod, SPointPlan, TransformValues};
use smp_numeric::Complex64;
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

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

/// The distributed analysis pipeline of Section 4 of the paper.
#[derive(Debug, Clone)]
pub struct DistributedPipeline {
    method: InversionMethod,
    options: PipelineOptions,
}

impl DistributedPipeline {
    /// Creates a pipeline with the given inversion method and options.
    pub fn new(method: InversionMethod, options: PipelineOptions) -> Self {
        DistributedPipeline { method, options }
    }

    /// The configured options.
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// The cache a run without a shared one starts from: the checkpoint's
    /// values, or nothing.
    fn restored_cache(&self) -> Result<ResultCache, PipelineError> {
        let restored = match &self.options.checkpoint_path {
            Some(path) => load_checkpoint_by_measure(path)?,
            None => BTreeMap::new(),
        };
        Ok(ResultCache::from_shards(restored))
    }

    /// This pipeline over a cache that outlives its runs — the configured
    /// shared cache, else one of the copy's own, restored from the checkpoint
    /// once — so that a sequence of runs through the copy (a quantile
    /// search's rounds) never evaluates a point twice.
    pub(crate) fn caching_across_runs(&self) -> Result<DistributedPipeline, PipelineError> {
        let mut pipeline = self.clone();
        if pipeline.options.shared_cache.is_none() {
            pipeline.options.shared_cache = Some(Arc::new(self.restored_cache()?));
        }
        Ok(pipeline)
    }

    /// Solves a whole [`BatchJob`] — N measures over shared or distinct time
    /// grids — in one distributed run over **any** [`Transport`] backend.
    ///
    /// The master plans the `s`-points of every measure, takes the union per
    /// transform key (so measures sharing a transform never evaluate a point
    /// twice), dedupes the union against the measure-keyed cache restored from
    /// the checkpoint, and dispatches the remaining points in chunks through
    /// the global work queue.  Each worker answers a chunk with one message;
    /// every value is cached and checkpointed under its measure's transform
    /// key; once all values have arrived the master inverts each measure on
    /// its own time grid, applying the kind-specific post-processing
    /// (`/s` + monotone clamp for CDFs, `[0, 1]` clamp for transients) — or,
    /// for a moment measure, folds its stencil's values into one number.
    ///
    /// This is the one solve path: every [`crate::DistributedEngine`]
    /// deployment — the analytic engine's cores included — calls it with its
    /// own backend.  Pass [`crate::InProcess`] for worker threads, a
    /// [`crate::transport::TcpTransport`] (from the `smpq` CLI:
    /// `--workers tcp:ADDR,...`) to farm the evaluations out to worker
    /// *processes*, or a row-sharded backend (`ShardedTransport`, behind
    /// [`crate::DistributedEngine::sharded`]) to run every point row-sharded.  When points fail, the error names the first
    /// failure in plan order, whichever worker reported it first.
    ///
    /// # Example
    ///
    /// A two-measure batch — the density *and* the CDF of the same Erlang
    /// passage — over one spec, so they share its transform key and the CDF
    /// costs no extra transform evaluations.  The model is a one-stage net: a
    /// token moves `a → b` after an Erlang(2, 3) holding time and back after
    /// an exponential one, so the passage into `b` is that Erlang time.
    ///
    /// ```
    /// use smp_pipeline::{
    ///     BatchJob, DistributedPipeline, InProcess, MeasureKind, MeasureSpec, ModelSpec,
    ///     PipelineOptions, TargetSpec, TransformSpec,
    /// };
    /// use smp_laplace::InversionMethod;
    ///
    /// let net = r"\place{a}{1} \place{b}{0}
    ///     \transition{ab}{ \condition{a > 0} \action{ next->a = a - 1; next->b = b + 1; }
    ///         \sojourntimeLT{ return erlangLT(2.0, 3, s); } }
    ///     \transition{ba}{ \condition{b > 0} \action{ next->b = b - 1; next->a = a + 1; }
    ///         \sojourntimeLT{ return expLT(1.0, s); } }";
    /// let erlang = TransformSpec::passage(
    ///     ModelSpec::Dnamaca(net.to_string()),
    ///     TargetSpec::parse("b>=1").unwrap(),
    /// );
    /// let ts: Vec<f64> = (1..=8).map(|k| k as f64 * 0.5).collect();
    ///
    /// let job = BatchJob::new()
    ///     .with_measure(MeasureSpec::from_spec(
    ///         "erlang:density",
    ///         MeasureKind::Density,
    ///         &ts,
    ///         erlang.clone(),
    ///     ))
    ///     .with_measure(MeasureSpec::from_spec("erlang:cdf", MeasureKind::Cdf, &ts, erlang));
    ///
    /// let pipeline = DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::default());
    /// let result = pipeline.execute(job, &InProcess::new(4)).unwrap();
    ///
    /// let density = result.measure("erlang:density").unwrap();
    /// let cdf = result.measure("erlang:cdf").unwrap();
    /// // The shared key means the CDF reused every one of the density's points.
    /// assert_eq!(cdf.evaluations, 0);
    /// assert_eq!(cdf.shared_hits, density.evaluations);
    /// // The CDF is monotone and ends near 1.
    /// assert!(cdf.values.windows(2).all(|w| w[1] >= w[0]));
    /// assert!(*cdf.values.last().unwrap() > 0.95);
    /// ```
    pub fn execute(
        &self,
        job: BatchJob,
        transport: &dyn Transport,
    ) -> Result<BatchResult, PipelineError> {
        let started = Instant::now();
        let backend = transport.name();
        let measures = job.into_measures();
        if measures.is_empty() {
            return Ok(BatchResult {
                measures: Vec::new(),
                elapsed: started.elapsed(),
                evaluations: 0,
                cache_hits: 0,
                shared_hits: 0,
                chunk_size: self.options.chunk_size.max(1),
                chunks_dispatched: 0,
                backend,
                report: TransportReport::default(),
            });
        }
        let plans: Vec<SPointPlan> = measures
            .iter()
            .map(|m| m.kind().plan(self.method.clone(), m.t_points()))
            .collect();

        // Restore any checkpointed values into their measure shards — unless a
        // long-lived shared cache is injected, which already holds every value
        // deposited by earlier runs.
        let local_cache;
        let cache: &ResultCache = match &self.options.shared_cache {
            Some(shared) => shared.as_ref(),
            None => {
                local_cache = self.restored_cache()?;
                &local_cache
            }
        };

        // Group measures by transform key, preserving first-appearance order.
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        for (mi, m) in measures.iter().enumerate() {
            match groups.iter_mut().find(|(k, _)| *k == m.transform_key()) {
                Some((_, members)) => members.push(mi),
                None => groups.push((m.transform_key(), vec![mi])),
            }
        }

        // Per key group: the union of the members' planned s-points, deduped
        // against one snapshot of the group's cached values.  The first
        // member needing an uncached point owns its evaluation; other members
        // count it as a shared hit.  A lone member's plan *is* the union, and
        // every point of it is wanted by that member.
        let mut items: Vec<WorkItem> = Vec::new();
        let mut cache_hits = vec![0usize; measures.len()];
        let mut shared_hits = vec![0usize; measures.len()];
        let mut evaluations = vec![0usize; measures.len()];
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
                        cache_hits[mi] += 1;
                    }
                } else {
                    let owner = needing.next().expect("union point wanted by someone");
                    evaluations[owner] += 1;
                    for mi in needing {
                        shared_hits[mi] += 1;
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

        let mut checkpoint = match &self.options.checkpoint_path {
            Some(path) => Some(CheckpointWriter::open(path)?),
            None => None,
        };

        let chunk_size = self
            .options
            .resolve_chunk_size(items.len(), transport.parallelism().max(1));
        let plan = ExecutionPlan {
            specs: measures.iter().map(|m| m.spec()).collect(),
            items,
            chunk_size,
            method: self.method.name().to_string(),
        };
        let keys: Vec<&str> = measures.iter().map(|m| m.transform_key()).collect();

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
        let mut chunks_dispatched = 0usize;
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
                chunks_dispatched += 1;
                for outcome in message.results {
                    // The measure index ultimately comes off the wire for the
                    // TCP backend; an out-of-range echo must fail the run,
                    // not panic it (handlers already reject mismatched
                    // echoes — this is the transport-independent backstop).
                    let index = outcome.item.index;
                    let Some(key) = keys.get(outcome.item.measure).copied() else {
                        fail(
                            index,
                            PipelineError::Transport {
                                message: format!(
                                    "result references measure {} but the batch has {}",
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
        let mut measure_results = Vec::with_capacity(measures.len());
        for (mi, m) in measures.iter().enumerate() {
            let fresh;
            let shard = if fully_warm {
                let group = groups.iter().position(|(_, members)| members.contains(&mi));
                &cached[group.expect("every measure is in a group")]
            } else {
                fresh = cache.snapshot(m.transform_key(), plans[mi].s_points());
                if !plans[mi].is_satisfied_by(&fresh) {
                    return Err(PipelineError::Incomplete {
                        measure: m.name().to_string(),
                    });
                }
                &fresh
            };
            measure_results.push(MeasureResult {
                name: m.name().to_string(),
                kind: m.kind(),
                t_points: m.t_points().to_vec(),
                values: m.kind().postprocess(&plans[mi], shard),
                evaluations: evaluations[mi],
                cache_hits: cache_hits[mi],
                shared_hits: shared_hits[mi],
            });
        }

        Ok(BatchResult {
            measures: measure_results,
            elapsed: started.elapsed(),
            evaluations: evaluations.iter().sum(),
            cache_hits: cache_hits.iter().sum(),
            shared_hits: shared_hits.iter().sum(),
            chunk_size,
            chunks_dispatched,
            backend,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{MeasureKind, MeasureSpec};
    use crate::one_stage;
    use crate::transform::{ModelSpec, TargetSpec, TransformSpec};
    use crate::transport::InProcess;
    use crate::worker::{WorkItemOutcome, WorkerMessage};
    use smp_distributions::Dist;
    use smp_laplace::Euler;
    use smp_numeric::stats::linspace;

    /// The passage of a one-stage net with an Erlang holding time: its
    /// values are exactly `Dist::erlang(rate, phases).lst(s)`, so the tests
    /// can recompute them.
    fn erlang(rate: f64, phases: u32) -> TransformSpec {
        one_stage::passage(&format!("erlangLT({rate:?}, {phases}, s)"))
    }

    fn density(name: &str, ts: &[f64], spec: TransformSpec) -> MeasureSpec {
        MeasureSpec::from_spec(name, MeasureKind::Density, ts, spec)
    }

    fn cdf(name: &str, ts: &[f64], spec: TransformSpec) -> MeasureSpec {
        MeasureSpec::from_spec(name, MeasureKind::Cdf, ts, spec)
    }

    /// A batch over worker threads, as many as the pipeline's options ask.
    fn run(pipeline: &DistributedPipeline, job: BatchJob) -> Result<BatchResult, PipelineError> {
        pipeline.execute(job, &InProcess::new(pipeline.options().workers))
    }

    /// A one-measure batch over worker threads.
    fn solve_one(
        pipeline: &DistributedPipeline,
        measure: MeasureSpec,
    ) -> Result<BatchResult, PipelineError> {
        run(pipeline, BatchJob::new().with_measure(measure))
    }

    fn solve_density(
        pipeline: &DistributedPipeline,
        spec: TransformSpec,
        ts: &[f64],
    ) -> BatchResult {
        solve_one(pipeline, density("single", ts, spec)).unwrap()
    }

    #[test]
    fn pipeline_matches_direct_inversion() {
        let d = Dist::erlang(2.0, 3);
        let ts = linspace(0.2, 5.0, 25);
        let pipeline =
            DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::with_workers(4));
        let result = solve_density(&pipeline, erlang(2.0, 3), &ts);
        let reference = Euler::standard().invert_many(&d, &ts);
        assert_eq!(result.measures[0].values.len(), reference.len());
        for (a, b) in result.measures[0].values.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_eq!(result.cache_hits, 0);
        assert!(result.evaluations > 0);
        let total_by_workers: usize = result.report.worker_stats.iter().map(|w| w.evaluated).sum();
        assert_eq!(total_by_workers, result.evaluations);
    }

    #[test]
    fn worker_count_does_not_change_the_answer() {
        let uniform = one_stage::passage("uniformLT(0.5, 2.0, s)");
        let ts = linspace(0.25, 4.0, 12);
        let mut previous: Option<Vec<f64>> = None;
        for workers in [1, 2, 8] {
            let pipeline = DistributedPipeline::new(
                InversionMethod::euler(),
                PipelineOptions::with_workers(workers),
            );
            let mut result = solve_density(&pipeline, uniform.clone(), &ts);
            let values = result.measures.remove(0).values;
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
            let pipeline = DistributedPipeline::new(
                InversionMethod::euler(),
                PipelineOptions::with_workers(3).chunked(chunk_size),
            );
            let mut result = solve_density(&pipeline, erlang(1.5, 2), &ts);
            let values = result.measures.remove(0).values;
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
        let pipeline = DistributedPipeline::new(InversionMethod::euler(), options);
        let first = solve_density(&pipeline, erlang(1.0, 2), &ts);
        assert_eq!(first.cache_hits, 0);
        assert!(first.evaluations > 0);

        let second = solve_density(&pipeline, erlang(1.0, 2), &ts);
        assert_eq!(second.evaluations, 0);
        assert_eq!(second.cache_hits, first.evaluations);
        for (a, b) in first.measures[0]
            .values
            .iter()
            .zip(&second.measures[0].values)
        {
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
        let pipeline = DistributedPipeline::new(InversionMethod::euler(), options);
        let first = solve_density(&pipeline, erlang(2.0, 2), &ts);
        assert!(first.evaluations > 0);
        assert_eq!(first.cache_hits, 0);
        assert!(!shared.is_empty(), "values deposited into the shared cache");

        // A *different* pipeline holding the same cache is fully warm: zero
        // evaluations, every planned point a cache hit, identical values.
        let options = PipelineOptions {
            workers: 5,
            shared_cache: Some(Arc::clone(&shared)),
            ..Default::default()
        };
        let pipeline = DistributedPipeline::new(InversionMethod::euler(), options);
        let second = solve_density(&pipeline, erlang(2.0, 2), &ts);
        assert_eq!(second.evaluations, 0);
        assert_eq!(second.cache_hits, first.evaluations);
        assert_eq!(
            second.measures[0].values, first.measures[0].values,
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
        let pipeline_over = |shared: &Arc<ResultCache>| {
            let options = PipelineOptions {
                workers: 2,
                shared_cache: Some(Arc::clone(shared)),
                ..Default::default()
            };
            DistributedPipeline::new(InversionMethod::euler(), options)
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
        let counts = |batch: &BatchResult| -> Vec<(usize, usize, usize)> {
            batch
                .measures
                .iter()
                .map(|m| (m.evaluations, m.cache_hits, m.shared_hits))
                .collect()
        };

        // One-member group.
        let shared = Arc::new(ResultCache::new());
        let ts = [0.5, 1.0, 2.5];
        let job = || BatchJob::new().with_measure(cdf("F", &ts, erlang(2.0, 2)));
        let cold = run(&pipeline_over(&shared), job()).unwrap();
        let warm = run(&pipeline_over(&shared), job()).unwrap();
        assert_eq!(counts(&cold), [(3 * contour, 0, 0)]);
        assert_eq!(counts(&warm), [(0, 3 * contour, 0)]);
        assert_eq!(warm.chunks_dispatched, 0);
        assert_eq!(cold.measures[0].values, cdf_by_copy(&ts));
        assert_eq!(warm.measures[0].values, cold.measures[0].values);

        // Two-member group over overlapping grids: the density on {1, 2},
        // the CDF on {2, 3}, one spec and so one transform key.
        let shared = Arc::new(ResultCache::new());
        let (ts_d, ts_f) = ([1.0, 2.0], [2.0, 3.0]);
        let job = || {
            BatchJob::new()
                .with_measure(density("d", &ts_d, erlang(2.0, 2)))
                .with_measure(cdf("F", &ts_f, erlang(2.0, 2)))
        };
        let cold = run(&pipeline_over(&shared), job()).unwrap();
        let warm = run(&pipeline_over(&shared), job()).unwrap();
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
        assert_eq!(
            (warm.evaluations, warm.cache_hits, warm.shared_hits),
            (0, 4 * contour, 0)
        );
        assert_eq!(
            cold.measures[0].values,
            Euler::standard().invert_many(&d, &ts_d)
        );
        assert_eq!(cold.measures[1].values, cdf_by_copy(&ts_f));
        for (cold, warm) in cold.measures.iter().zip(&warm.measures) {
            assert_eq!(warm.values, cold.values, "bitwise identical");
        }

        // Partly warm: a wider grid re-uses what is cached and evaluates
        // (and afterwards looks up afresh) only the new contour.
        let wider = solve_one(
            &pipeline_over(&shared),
            cdf("F", &[2.0, 3.0, 4.0], erlang(2.0, 2)),
        )
        .unwrap();
        assert_eq!(counts(&wider), [(contour, 2 * contour, 0)]);
        assert_eq!(wider.measures[0].values, cdf_by_copy(&[2.0, 3.0, 4.0]));
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

    #[test]
    fn evaluation_errors_are_reported() {
        let pipeline =
            DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::with_workers(3));
        let job = BatchJob::new().with_measure(density("single", &[1.0], erlang(1.0, 1)));
        match pipeline.execute(job, &NeverConverges) {
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
        let pipeline =
            DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::default());
        let ts = [1.0, 2.0];
        let job = BatchJob::new().with_measure(density("single", &ts, erlang(1.0, 1)));
        match pipeline.execute(job, &NeverConverges) {
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
        let pipeline =
            DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::with_workers(2));
        let exponential = one_stage::passage("expLT(0.8, s)");
        let result = solve_one(&pipeline, cdf("single", &ts, exponential)).unwrap();
        let values = &result.measures[0].values;
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
        let pipeline =
            DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::with_workers(4));
        let result = solve_density(&pipeline, spec, &ts);
        for (t, v) in ts.iter().zip(&result.measures[0].values) {
            let expect = 4.0 * t * (-2.0 * t).exp();
            assert!((v - expect).abs() < 1e-5, "f({t}) = {v} vs {expect}");
        }
    }

    #[test]
    fn batch_of_three_kinds_matches_single_measure_runs() {
        let ts = linspace(0.3, 5.0, 14);
        let pipeline =
            DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::with_workers(4));

        // A density, a CDF over the same transform (shared key), and a
        // transient measure over another model: a one-stage net with unit
        // exponential holding times both ways, which is in `a` at time `t`
        // with probability (1 + e^{-2t}) / 2.
        let decay = TransformSpec::transient(
            one_stage::net(r"\sojourntimeLT{ return expLT(1.0, s); }"),
            TargetSpec::parse("a>=1").unwrap(),
        );
        let job = BatchJob::new()
            .with_measure(density("d", &ts, erlang(2.0, 2)))
            .with_measure(cdf("F", &ts, erlang(2.0, 2)))
            .with_measure(MeasureSpec::from_spec(
                "p",
                MeasureKind::Transient,
                &ts,
                decay,
            ));
        let batch = run(&pipeline, job).unwrap();
        assert_eq!(batch.measures.len(), 3);

        // Density matches a single-measure run.
        let reference = solve_density(&pipeline, erlang(2.0, 2), &ts);
        assert_eq!(
            batch.measure("d").unwrap().values,
            reference.measures[0].values
        );

        // CDF matches a single-measure CDF run.
        let cdf_reference = solve_one(&pipeline, cdf("single", &ts, erlang(2.0, 2))).unwrap();
        let cdf = batch.measure("F").unwrap();
        for (a, b) in cdf.values.iter().zip(&cdf_reference.measures[0].values) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        // The CDF shared every point with the density measure.
        assert_eq!(cdf.evaluations, 0);
        assert_eq!(cdf.shared_hits, batch.measure("d").unwrap().evaluations);

        // Transient values are (1 + e^{-2t}) / 2, clamped into [0, 1].
        let p = batch.measure("p").unwrap();
        for (t, v) in p.iter() {
            let expect = (1.0 + (-2.0 * t).exp()) / 2.0;
            assert!((v - expect).abs() < 1e-6, "p({t}) = {v} vs {expect}");
            assert!((0.0..=1.0).contains(&v));
        }

        // Totals are consistent.
        assert_eq!(
            batch.evaluations,
            batch.measures.iter().map(|m| m.evaluations).sum::<usize>()
        );
        let by_workers: usize = batch.report.worker_stats.iter().map(|w| w.evaluated).sum();
        assert_eq!(by_workers, batch.evaluations);
        let messages: usize = batch.report.worker_stats.iter().map(|w| w.messages).sum();
        assert_eq!(messages, batch.chunks_dispatched);
        assert!(batch.chunk_size >= 1);
    }

    #[test]
    fn batch_reports_backend_and_protocol_counters() {
        let ts = linspace(0.5, 3.0, 5);
        let pipeline =
            DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::with_workers(2));
        let job = BatchJob::new().with_measure(density("d", &ts, erlang(1.0, 2)));
        let batch = run(&pipeline, job).unwrap();
        assert_eq!(batch.backend, "in-process");
        assert_eq!(batch.report.bytes_on_wire, 0);
        assert_eq!(batch.report.disconnects, 0);
        assert_eq!(batch.report.messages, batch.chunks_dispatched);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pipeline =
            DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::with_workers(2));
        let batch = run(&pipeline, BatchJob::new()).unwrap();
        assert!(batch.measures.is_empty());
        assert_eq!(batch.evaluations, 0);
        assert_eq!(batch.chunks_dispatched, 0);
    }

    #[test]
    fn distinct_keys_do_not_share_even_with_identical_grids() {
        let a = one_stage::passage("expLT(1.0, s)");
        let b = one_stage::passage("expLT(3.0, s)");
        let ts = linspace(0.5, 4.0, 8);
        let pipeline =
            DistributedPipeline::new(InversionMethod::euler(), PipelineOptions::with_workers(2));
        let job = BatchJob::new()
            .with_measure(density("a", &ts, a))
            .with_measure(density("b", &ts, b));
        let batch = run(&pipeline, job).unwrap();
        let union = SPointPlan::new(InversionMethod::euler(), &ts).len();
        // Distinct specs key distinctly: no sharing, |union| evaluations each.
        for m in &batch.measures {
            assert_eq!(m.evaluations, union);
            assert_eq!(m.shared_hits, 0);
            assert_eq!(m.cache_hits, 0);
        }
        assert_eq!(batch.evaluations, 2 * union);
    }
}

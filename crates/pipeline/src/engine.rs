//! The measure engines behind the typed query layer.
//!
//! `smp_core::query` defines *what* can be asked ([`MeasureRequest`]) and what
//! comes back ([`MeasureReport`]); this module supplies the implementations
//! of its [`Engine`] trait — the paper's full validation triangle behind one
//! call, plus a third independent oracle for the all-exponential special
//! case:
//!
//! * [`DistributedEngine`] — Laplace inversion through the master–worker
//!   pipeline over any [`Transport`] (worker threads, TCP worker processes,
//!   row shards over loopback or TCP, the query server's standing pool):
//!   every deployment obtains its values through
//!   [`DistributedPipeline::execute`], and every deployment reports the same
//!   bits.
//! * [`AnalyticEngine`] — the single-machine reference, which is not a code
//!   path of its own but the distributed engine deployed over [`InProcess`](crate::InProcess)
//!   on every core, handing out chunks of [`BLOCK_LANES`] points — one
//!   eight-lane block, or two four-lane blocks on a model too large for
//!   eight (`smp_core::workspace::lanes_for`): the paper's one-processor run
//!   is the same program as its cluster run.
//! * [`SimulationEngine`] — discrete-event simulation of the same high-level
//!   model (wrapping `smp-simulator` with seed, replication and thread
//!   control), reporting confidence bounds so the deterministic engines can be
//!   cross-validated against it — the paper's "Simulation" curves of Figs. 4
//!   and 6 as an API, and the substance of `smpq --validate-sim`.
//! * [`UniformizationEngine`] — the all-exponential special case: when every
//!   holding time is structurally exponential the SMP reduces exactly to a
//!   phase-space CTMC (`smp_core::uniform`) and every measure kind is
//!   answered by Poisson-weighted power iteration (plus exact linear solves
//!   for moments) — no Laplace inversion, and an a-priori truncation bound in
//!   `Provenance::error_bound`.  Models with any non-exponential holding time
//!   are rejected with an `Unsupported` error.
//!
//! Derived measure kinds are layered on shared machinery so engines cannot
//! drift apart: quantiles run `smp_laplace::quantiles_from_cdf` over a
//! CDF-and-density provider (one pipeline run per search grid for the
//! inversion engine, Poisson sums for the uniformization engine —
//! `search_quantiles` is the one call site), and means/moments are a batch
//! measure kind like the curves — the stencil's nodes are its plan, the
//! finite-difference fold its post-processing
//! ([`crate::batch::MomentStencil`]) — so they ride the same batch, and share
//! points, as the curves over their transform.

use crate::batch::{BatchJob, BatchResult, MeasureKind as CurveKind, MeasureSpec, MomentStencil};
use crate::cache::{LruMemo, ResultCache};
use crate::master::{DistributedPipeline, PipelineError, PipelineOptions};
use crate::server::EngineChoice;
use crate::shard::ShardedTransport;
use crate::transform::{ModelCache, ModelSpec, TargetResolveError, TransformSpec};
use crate::transport::{transport_over, PoolSpec, TcpTransport, Transport, TransportReport};
use smp_core::query::{
    Engine, EngineError, MeasureKind, MeasureReport, MeasureRequest, Provenance,
};
use smp_core::uniform::{self, PhaseCtmc, DEFAULT_TOLERANCE as TOLERANCE};
use smp_core::workspace::BLOCK_LANES;
use smp_core::StateSet;
use smp_laplace::quantile::CdfOnGrid;
use smp_laplace::{quantiles_from_cdf, repair_cdf, InversionMethod};
use smp_simulator::{
    simulate_passage_times, simulate_transient, PassageSimulationOptions,
    TransientSimulationOptions,
};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// A model that does not parse, explore or fire is at fault whatever is asked
/// of it, on every engine alike.
fn model_error(e: impl std::fmt::Display) -> EngineError {
    EngineError::Model(e.to_string())
}

/// Parses the model without exploring it: what an engine that explores on
/// the far side of a transport, or never, needs of it on the master, and
/// what the distributed engine validates against when its transport's model
/// cache does not hold the model.
fn parse_net(model: &ModelSpec) -> Result<smp_smspn::SmSpn, EngineError> {
    smp_dnamaca::parse_model(&model.source()).map_err(model_error)
}

/// Checks every request's time grid: every point finite, and — on an engine
/// that inverts Laplace transforms (`laplace`), whose plans exist only for
/// `t > 0` — every point of a curve's grid positive.  These checks need no
/// net, so the query server runs them before it looks an answer up.
pub(crate) fn validate_grids(
    requests: &[MeasureRequest],
    laplace: bool,
) -> Result<(), EngineError> {
    for request in requests {
        let curve = request.kind.is_curve();
        if curve && request.t_points.len() < 2 {
            return Err(EngineError::Analysis(format!(
                "curve measure '{}' needs a time grid of at least two points",
                request.name()
            )));
        }
        for &t in &request.t_points {
            if !t.is_finite() {
                return Err(EngineError::Analysis(format!(
                    "time point t = {t} of measure '{}' is not finite",
                    request.name()
                )));
            }
            if laplace && curve && t <= 0.0 {
                return Err(EngineError::Analysis(format!(
                    "time point t = {t} of curve measure '{}' is not positive; \
                     Laplace inversion needs t > 0",
                    request.name()
                )));
            }
        }
    }
    Ok(())
}

/// Checks every request's target place against the parsed net, so that a bad
/// place name fails as a *model* error before any engine work (and before a
/// TCP job ships).
fn validate_places(net: &smp_smspn::SmSpn, requests: &[MeasureRequest]) -> Result<(), EngineError> {
    match requests
        .iter()
        .find(|request| net.place_index(&request.target.place).is_none())
    {
        Some(request) => Err(EngineError::Model(format!(
            "place '{}' does not exist in the model",
            request.target.place
        ))),
        None => Ok(()),
    }
}

/// The serializable transform spec a request's values derive from.
fn transform_spec_for(model: &ModelSpec, request: &MeasureRequest) -> TransformSpec {
    if request.kind.uses_passage_transform() {
        TransformSpec::passage(model.clone(), request.target.clone())
    } else {
        TransformSpec::transient(model.clone(), request.target.clone())
    }
}

/// The batch measure kind that answers a request from one fixed plan — the
/// curve kinds on the request's grid, mean/moment on the stencil's nodes —
/// or `None` for a quantile, whose grids depend on the values found.
pub(crate) fn batch_kind_of(kind: &MeasureKind) -> Result<Option<CurveKind>, EngineError> {
    let moment = |order: u32| {
        MomentStencil::new(order)
            .map(|stencil| Some(CurveKind::Moment(stencil)))
            .ok_or_else(|| {
                EngineError::Unsupported(format!(
                    "moment order {order} is out of range (supported: 1..=4)"
                ))
            })
    };
    match kind {
        MeasureKind::Density => Ok(Some(CurveKind::Density)),
        MeasureKind::Cdf => Ok(Some(CurveKind::Cdf)),
        MeasureKind::Transient => Ok(Some(CurveKind::Transient)),
        MeasureKind::Quantile { .. } => Ok(None),
        MeasureKind::Mean => moment(1),
        MeasureKind::Moment { order } => moment(*order),
    }
}

/// The abscissae a report's values sit on: the time grid of a curve, the
/// probabilities of a quantile, the order of a mean/moment.
fn report_points(request: &MeasureRequest) -> Vec<f64> {
    match &request.kind {
        MeasureKind::Quantile { probs } => probs.clone(),
        MeasureKind::Mean => vec![1.0],
        MeasureKind::Moment { order } => vec![f64::from(*order)],
        _ => request.t_points.clone(),
    }
}

/// The quantile search horizons of a request: start at the request grid's last
/// point (the caller's idea of the interesting time scale) and allow a
/// 2¹²-fold expansion before giving up.
pub(crate) fn quantile_horizons(request: &MeasureRequest) -> (f64, f64) {
    let initial = request
        .t_points
        .last()
        .copied()
        .filter(|t| *t > 0.0)
        .unwrap_or(1.0);
    (initial, initial * 4096.0)
}

/// A quantile request's whole search: the shared policy of
/// `smp_laplace::quantiles_from_cdf` from the request's horizons over
/// `cdf_on_grid`, failing loudly on a probability the CDF never reaches.  The
/// engines differ only in the provider they pass.
fn search_quantiles(
    request: &MeasureRequest,
    probs: &[f64],
    cdf_on_grid: &mut CdfOnGrid<'_, EngineError>,
) -> Result<Vec<f64>, EngineError> {
    let (initial, max_horizon) = quantile_horizons(request);
    let found = quantiles_from_cdf(probs, initial, max_horizon, cdf_on_grid)?;
    probs
        .iter()
        .zip(found)
        .map(|(&p, q)| {
            q.ok_or_else(|| {
                EngineError::Analysis(format!(
                    "quantile p = {p} of '{}' not reached within the search horizon \
                     {max_horizon:.3} (defective or very heavy-tailed passage)",
                    request.name()
                ))
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// AnalyticEngine
// ---------------------------------------------------------------------------

/// The threads the process may run on: the analytic engine's thread count
/// and the default `--workers` of a one-shot run and of `smpq serve`.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// In-process Laplace inversion: the single-machine reference engine, built
/// as the [`DistributedEngine`] over [`InProcess`](crate::InProcess).
///
/// The engine runs one thread per core.  Each pipeline run plans, dedupes
/// and caches like any distributed run, and its threads pull chunks of
/// [`BLOCK_LANES`] points from the work queue, whole lane blocks at the
/// model's width.  Its reports name the engine
/// `analytic` and the backend `in-process`.  The type has no values: it
/// names the constructors, so `AnalyticEngine::new(model, method)` reads as
/// the engine it builds.
#[derive(Debug)]
pub enum AnalyticEngine {}

impl AnalyticEngine {
    /// The analytic engine over `model`, planning with `method`, on every
    /// core.
    #[allow(clippy::new_ret_no_self)] // the engine is a `DistributedEngine`
    pub fn new(model: ModelSpec, method: InversionMethod) -> DistributedEngine {
        Self::over(model, method, &Arc::new(ModelCache::new(1)), None)
    }

    /// The analytic engine looking its model up in `models`, the cache the
    /// routing probe read, and running against `shared_cache`, a result cache
    /// that outlives it (the query server's), when given one.
    fn over(
        model: ModelSpec,
        method: InversionMethod,
        models: &Arc<ModelCache>,
        shared_cache: Option<Arc<ResultCache>>,
    ) -> DistributedEngine {
        let options = PipelineOptions {
            shared_cache,
            ..PipelineOptions::default().chunked(BLOCK_LANES)
        };
        let threads = PoolSpec::InProcess(available_cores());
        let backend = transport_over(&threads, None, Arc::clone(models), None);
        DistributedEngine {
            name: "analytic",
            ..DistributedEngine::with_transport(model, method, options, backend)
        }
    }
}

// ---------------------------------------------------------------------------
// DistributedEngine
// ---------------------------------------------------------------------------

/// The distributed pipeline behind the typed query layer: one engine, one
/// evaluation path, any [`Transport`].
///
/// Every transform value this engine reports was obtained through
/// [`DistributedPipeline::execute`].  The measures with a fixed plan — curves
/// on their grid, means/moments on their stencil — are planned as a single
/// [`BatchJob`], so shared transform keys, union `s`-point planning, the
/// measure-keyed cache and the checkpoint apply to all of them.  Quantiles
/// run the shared search of `smp_laplace::quantiles_from_cdf` with one
/// *pipeline run per grid the search asks for*, every run of a search against
/// one result cache, so no round evaluates a point an earlier one has; a
/// configured checkpoint or shared cache also warms any later run.  Every
/// transport keeps its workers between runs — threads are respawned over a
/// kept explored model, chunk and slice links stay seated until the
/// engine drops — so a multi-round solve pays its rendezvous once.
pub struct DistributedEngine {
    /// The engine name reports carry: `distributed`, or `analytic` for the
    /// deployment [`AnalyticEngine`] builds.
    name: &'static str,
    model: ModelSpec,
    pipeline: DistributedPipeline,
    transport: Box<dyn Transport>,
}

impl std::fmt::Debug for DistributedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedEngine")
            .field("name", &self.name)
            .field("model", &self.model)
            .field("backend", &self.transport.name())
            .finish()
    }
}

impl DistributedEngine {
    /// A distributed engine over the in-process thread backend — the default
    /// deployment.
    pub fn in_process(model: ModelSpec, method: InversionMethod, options: PipelineOptions) -> Self {
        let threads = PoolSpec::InProcess(options.workers);
        let transport = transport_over(&threads, None, Arc::new(ModelCache::new(1)), None);
        Self::with_transport(model, method, options, transport)
    }

    /// A distributed engine over an explicit transport (e.g. a bound
    /// [`crate::TcpTransport`] whose rendezvous addresses worker processes
    /// dial).
    pub fn with_transport(
        model: ModelSpec,
        method: InversionMethod,
        options: PipelineOptions,
        transport: Box<dyn Transport>,
    ) -> Self {
        DistributedEngine {
            name: "distributed",
            model,
            pipeline: DistributedPipeline::new(method, options),
            transport,
        }
    }

    /// A row-sharded engine over in-process loopback slice workers: the state
    /// space is split into `shards` contiguous row blocks and every passage
    /// measure runs as lockstep distributed SpMV with boundary exchange —
    /// bitwise identical to the unsharded engines for any shard count.
    pub fn sharded(
        model: ModelSpec,
        method: InversionMethod,
        options: PipelineOptions,
        shards: usize,
    ) -> Self {
        let checkpoint = options.checkpoint_path.as_deref();
        let slices = PoolSpec::Loopback(shards);
        let transport = transport_over(&slices, None, Arc::new(ModelCache::new(1)), checkpoint);
        Self::with_transport(model, method, options, transport)
    }

    /// A row-sharded engine whose slice workers are `smpq worker` processes
    /// dialing the rendezvous addresses of `transport` — one shard per
    /// address, each iterating only its own row slice of the model.  Each
    /// explores the whole model before it carves that slice, so a holder's
    /// peak memory is the whole explored model's.
    pub fn sharded_tcp(
        model: ModelSpec,
        method: InversionMethod,
        options: PipelineOptions,
        transport: TcpTransport,
    ) -> Self {
        let checkpoint = options.checkpoint_path.as_deref();
        let transport = ShardedTransport::new(transport, Arc::new(ModelCache::new(1)), checkpoint);
        Self::with_transport(model, method, options, Box::new(transport))
    }

    /// One run of `pipeline` — the engine's own, or a quantile search's copy
    /// of it — over the engine's transport: the only way this engine obtains
    /// a transform value.
    fn execute(
        &self,
        pipeline: &DistributedPipeline,
        job: BatchJob,
    ) -> Result<BatchResult, EngineError> {
        pipeline
            .execute(job, self.transport.as_ref())
            .map_err(|e| match e {
                PipelineError::Model { message } => EngineError::Model(message),
                e => EngineError::Analysis(e.to_string()),
            })
    }
}

/// Folds one pipeline run into the provenance of the report it is attributed
/// to (the first measure of a batch; the quantile a refinement round belongs
/// to), so summing a solve's reports gives true totals.
fn absorb_run(provenance: &mut Provenance, run: &TransportReport) {
    provenance.messages += run.messages;
    provenance.bytes_on_wire += run.bytes_on_wire;
    provenance.matrix_rebuilds_avoided += run.hotpath.matrix_rebuilds_avoided;
    provenance.pooled_lst_evaluations += run.hotpath.pooled_lst_evaluations;
    provenance.halo_bytes += run.halo_bytes;
    provenance.exchange_rounds += run.exchange_rounds;
    if run.shards > 0 {
        provenance.shard_states.clone_from(&run.shard_states);
    }
    provenance.retries += run.retries;
    provenance.recovered_faults += run.recovered_faults;
    provenance.resumed_rounds += run.resumed_rounds;
    provenance.model_cache_hits += run.model_cache_hits;
    provenance.model_cache_misses += run.model_cache_misses;
}

impl Engine for DistributedEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn solve(&self, requests: &[MeasureRequest]) -> Result<Vec<MeasureReport>, EngineError> {
        let started = Instant::now();
        validate_grids(requests, true)?;
        // The net of the model the transport already holds explored, if it
        // does — looked at, not looked up, so no counter or recency moves —
        // else a parse.
        let resident = self
            .transport
            .model_cache()
            .and_then(|models| models.resident(&self.model));
        match &resident {
            Some(explored) => validate_places(explored.net(), requests)?,
            None => validate_places(&parse_net(&self.model)?, requests)?,
        }
        let backend = self.transport.name();
        let mut reports: Vec<Option<MeasureReport>> = requests.iter().map(|_| None).collect();

        // 1. Every measure with a fixed plan goes through the pipeline as one
        //    batch: shared transform keys mean a density, a CDF and a mean
        //    over one target share every evaluation they have in common.
        let mut job = BatchJob::new();
        let mut batched = Vec::new();
        for (ri, request) in requests.iter().enumerate() {
            if let Some(kind) = batch_kind_of(&request.kind)? {
                let spec = transform_spec_for(&self.model, request);
                job.push(MeasureSpec::from_spec(
                    request.name(),
                    kind,
                    &request.t_points,
                    spec,
                ));
                batched.push(ri);
            }
        }
        if !batched.is_empty() {
            let batch = self.execute(&self.pipeline, job)?;
            let wall = started.elapsed();
            for (slot, (&ri, result)) in batched.iter().zip(batch.measures).enumerate() {
                let mut provenance = Provenance::local(self.name, backend);
                provenance.workers = self.transport.parallelism();
                provenance.shards = batch.report.shards;
                provenance.states = batch.report.states;
                if slot == 0 {
                    absorb_run(&mut provenance, &batch.report);
                }
                provenance.evaluations = result.evaluations;
                provenance.cache_hits = result.cache_hits;
                provenance.shared_hits = result.shared_hits;
                provenance.wall = wall;
                reports[ri] = Some(MeasureReport {
                    name: result.name,
                    kind: requests[ri].kind.clone(),
                    points: report_points(&requests[ri]),
                    values: result.values,
                    provenance,
                });
            }
        }

        // 2. Quantiles search through repeated pipeline runs: one Cdf +
        //    Density batch per grid the search asks for (the density's points
        //    are the CDF's, so it evaluates nothing), all against one result
        //    cache so that no round evaluates a point an earlier round
        //    already has — the configured shared cache (which warms any
        //    later run too), else one that lives as long as the search.
        for (ri, request) in requests.iter().enumerate() {
            let MeasureKind::Quantile { probs } = &request.kind else {
                continue;
            };
            let spec = transform_spec_for(&self.model, request);
            let name = request.name();
            let mut provenance = Provenance::local(self.name, backend);
            let pipeline = self
                .pipeline
                .caching_across_runs()
                .map_err(|e| EngineError::Analysis(e.to_string()))?;
            let values = search_quantiles(request, probs, &mut |ts| {
                // The density over the same transform and grid: every point
                // it needs is the CDF's, a shared hit.
                let measure = |kind| MeasureSpec::from_spec(name.clone(), kind, ts, spec.clone());
                let job = BatchJob::new()
                    .with_measure(measure(CurveKind::Cdf))
                    .with_measure(measure(CurveKind::Density));
                let batch = self.execute(&pipeline, job)?;
                absorb_run(&mut provenance, &batch.report);
                provenance.shards = provenance.shards.max(batch.report.shards);
                provenance.states = provenance.states.or(batch.report.states);
                let [cdf, density]: [_; 2] = batch.measures.try_into().expect("two measures");
                provenance.evaluations += cdf.evaluations;
                provenance.cache_hits += cdf.cache_hits;
                Ok(cdf.values.into_iter().zip(density.values).collect())
            })?;
            provenance.workers = self.transport.parallelism();
            provenance.wall = started.elapsed();
            reports[ri] = Some(MeasureReport {
                name,
                kind: request.kind.clone(),
                points: report_points(request),
                values,
                provenance,
            });
        }

        Ok(reports
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect())
    }
}

// ---------------------------------------------------------------------------
// SimulationEngine
// ---------------------------------------------------------------------------

/// Replication control for the [`SimulationEngine`].
#[derive(Debug, Clone, Copy)]
pub struct SimulationOptions {
    /// Independent replications per distinct passage/transient target.
    pub replications: usize,
    /// Base RNG seed; fixed seed ⇒ bitwise-reproducible estimates regardless
    /// of thread count (see `smp_simulator::passage::replication_seed`).
    pub seed: u64,
    /// Worker threads for the replications.
    pub threads: usize,
    /// Per-replication passage-time horizon; later hits count as censored.
    pub max_time: f64,
    /// Per-replication cap on the number of transition firings.
    pub max_steps: u64,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            replications: 10_000,
            seed: 0x5eed,
            threads: 1,
            max_time: 1e9,
            max_steps: 10_000_000,
        }
    }
}

/// Discrete-event simulation of the same high-level model — the paper's
/// validation reference, wrapped as an [`Engine`].
///
/// Passage-based kinds (density, CDF, quantiles, mean, moments) are all read
/// off one empirical distribution per distinct target, so a request batch
/// costs one set of replications per target, not per measure.  Reports carry
/// a 95% confidence bound in [`Provenance::error_bound`] where the estimator
/// has one, which is what `--validate-sim` compares against.
#[derive(Debug, Clone)]
pub struct SimulationEngine {
    model: ModelSpec,
    options: SimulationOptions,
}

impl SimulationEngine {
    /// A simulation engine over `model` with the given replication control.
    pub fn new(model: ModelSpec, options: SimulationOptions) -> Self {
        SimulationEngine { model, options }
    }
}

impl Engine for SimulationEngine {
    fn name(&self) -> &'static str {
        "simulation"
    }

    fn solve(&self, requests: &[MeasureRequest]) -> Result<Vec<MeasureReport>, EngineError> {
        let started = Instant::now();
        let net = parse_net(&self.model)?;
        validate_places(&net, requests)?;
        validate_grids(requests, false)?;
        let n = self.options.replications.max(1) as f64;
        let backend = format!(
            "monte-carlo r={} seed={:#x}",
            self.options.replications, self.options.seed
        );
        // One empirical passage distribution per distinct target.
        let mut passage_cache: Vec<(String, smp_simulator::passage::PassageSimulationResult)> =
            Vec::new();
        let mut reports = Vec::with_capacity(requests.len());
        for request in requests {
            let place = net
                .place_index(&request.target.place)
                .expect("validated above");
            let target = request.target.clone();
            let mut provenance = Provenance::local("simulation", backend.clone());
            provenance.workers = self.options.threads.max(1);
            provenance.evaluations = self.options.replications;

            let (points, values) =
                if request.kind.is_curve() && !request.kind.uses_passage_transform() {
                    // Transient probabilities: fresh replications on the grid.
                    let probs = simulate_transient(
                        &net,
                        |m| target.matches(m.get(place)),
                        &request.t_points,
                        &TransientSimulationOptions {
                            replications: self.options.replications,
                            max_steps: self.options.max_steps,
                            seed: self.options.seed,
                            threads: self.options.threads,
                        },
                    )
                    .map_err(model_error)?;
                    // Worst-case binomial half-width over the grid.
                    let band = probs
                        .iter()
                        .map(|p| 1.96 * (p * (1.0 - p) / n).sqrt())
                        .fold(0.0, f64::max);
                    provenance.error_bound = Some(band);
                    (request.t_points.clone(), probs)
                } else {
                    // Passage-based kinds share one simulated distribution.
                    let key = target.to_string();
                    if !passage_cache.iter().any(|(k, _)| *k == key) {
                        let initial = smp_simulator::SimulationEngine::new(&net).marking().clone();
                        if target.matches(initial.get(place)) {
                            return Err(EngineError::Unsupported(format!(
                                "the initial marking already satisfies '{target}': the simulated \
                             first-passage time is identically zero and not comparable with \
                             the analytic first-return semantics"
                            )));
                        }
                        let result = simulate_passage_times(
                            &net,
                            |m| target.matches(m.get(place)),
                            &PassageSimulationOptions {
                                replications: self.options.replications,
                                max_time: self.options.max_time,
                                max_steps: self.options.max_steps,
                                threads: self.options.threads,
                                seed: self.options.seed,
                            },
                        )
                        .map_err(model_error)?;
                        if result.distribution.is_empty() {
                            return Err(EngineError::Analysis(format!(
                                "no replication reached '{target}' within the simulation limits \
                             (max_time {}, max_steps {})",
                                self.options.max_time, self.options.max_steps
                            )));
                        }
                        passage_cache.push((key.clone(), result));
                    } else {
                        // Reused distribution: no fresh replications were spent.
                        provenance.evaluations = 0;
                        provenance.shared_hits = self.options.replications;
                    }
                    let result = &passage_cache
                        .iter()
                        .find(|(k, _)| *k == key)
                        .expect("just inserted")
                        .1;
                    let dist = &result.distribution;
                    if result.censored > 0 {
                        // Censored replications bias every passage estimator;
                        // surface it through the error bound being unavailable.
                        provenance.error_bound = None;
                    }
                    match &request.kind {
                        MeasureKind::Density => {
                            let values = dist.kernel_density(&request.t_points);
                            (request.t_points.clone(), values)
                        }
                        MeasureKind::Cdf => {
                            let values: Vec<f64> =
                                request.t_points.iter().map(|&t| dist.cdf(t)).collect();
                            if result.censored == 0 {
                                let band = values
                                    .iter()
                                    .map(|p| 1.96 * (p * (1.0 - p) / n).sqrt())
                                    .fold(0.0, f64::max);
                                provenance.error_bound = Some(band);
                            }
                            (request.t_points.clone(), values)
                        }
                        MeasureKind::Quantile { probs } => {
                            let mut values = Vec::with_capacity(probs.len());
                            let mut bound: f64 = 0.0;
                            for &p in probs {
                                let q = dist.quantile(p).ok_or_else(|| {
                                    EngineError::Analysis(format!(
                                        "quantile p = {p} of '{}' is beyond the simulated samples",
                                        request.name()
                                    ))
                                })?;
                                values.push(q);
                                // Order-statistic band: quantiles at p ± the
                                // binomial CDF half-width bracket the estimate.
                                let band = 1.96 * (p * (1.0 - p) / n).sqrt();
                                let lo = dist.quantile((p - band).max(1e-9)).unwrap_or(q);
                                let hi = dist.quantile((p + band).min(1.0)).unwrap_or(q);
                                bound = bound.max((hi - lo) / 2.0);
                            }
                            if result.censored == 0 {
                                provenance.error_bound = Some(bound);
                            }
                            (probs.clone(), values)
                        }
                        MeasureKind::Mean => {
                            let (mean, ci) = dist.raw_moment(1);
                            if result.censored == 0 {
                                provenance.error_bound = Some(ci);
                            }
                            (vec![1.0], vec![mean])
                        }
                        MeasureKind::Moment { order } => {
                            let (moment, ci) = dist.raw_moment(*order);
                            if result.censored == 0 {
                                provenance.error_bound = Some(ci);
                            }
                            (vec![f64::from(*order)], vec![moment])
                        }
                        MeasureKind::Transient => unreachable!("handled above"),
                    }
                };
            provenance.wall = started.elapsed();
            reports.push(MeasureReport {
                name: request.name(),
                kind: request.kind.clone(),
                points,
                values,
                provenance,
            });
        }
        Ok(reports)
    }
}

// ---------------------------------------------------------------------------
// UniformizationEngine
// ---------------------------------------------------------------------------

/// `true` iff the uniformization engine can solve `model`: the model parses,
/// its state space explores, and every pooled holding-time distribution is
/// structurally exponential.
///
/// This performs a full state-space exploration (distribution parameters may
/// be marking-dependent, so the check cannot be purely syntactic) and keeps
/// nothing.  A caller that goes on to solve routes `auto` with [`route`]
/// instead, which probes the model in its [`ModelCache`], so the engine it
/// builds reuses the exploration.
pub fn uniformization_applies(model: &ModelSpec) -> bool {
    let routed = route(EngineChoice::Auto, model, &ModelCache::new(1), None);
    routed.is_ok_and(|(engine, ..)| engine == EngineChoice::Uniform)
}

/// A bounded, thread-safe LRU cache of uniformization phase-chain
/// reductions, keyed by model fingerprint plus chain kind (`transient`, or
/// `passage` plus the target predicate).
///
/// Reducing an all-exponential SMP to its phase-space CTMC walks the full
/// kernel once per chain; the query server keeps one of these caches so a
/// repeated uniformization query reuses the reduction instead of rebuilding
/// it.  Keys fold in [`crate::transform::model_fingerprint`], so an edited model misses rather
/// than reading a stale chain.  Eviction is least-recently-used with a
/// monotonic clock, mirroring [`ModelCache`].
pub(crate) type PhaseChainCache = LruMemo<String, Arc<PhaseCtmc>>;

/// Uniformization over the phase-space CTMC of an all-exponential model.
///
/// Solves every [`MeasureKind`] without Laplace inversion: transients and
/// passage CDFs/densities by Poisson-weighted power iteration (truncation
/// bound in `Provenance::error_bound`), quantiles through the shared
/// `smp_laplace::quantiles_from_cdf` search over uniformized CDF and density
/// sums, and means/moments from the absorbing chain's exact linear systems.
/// Models with any non-exponential holding time fail with
/// [`EngineError::Unsupported`] naming the offending distribution.  The
/// explored model is kept in a [`ModelCache`] (its own one-entry cache
/// unless given one), so repeat solves do not explore it again.
#[derive(Debug, Clone)]
pub struct UniformizationEngine {
    model: ModelSpec,
    models: Arc<ModelCache>,
    phase_cache: Option<Arc<PhaseChainCache>>,
}

impl UniformizationEngine {
    /// A uniformization engine over `model` with the default Poisson
    /// truncation tolerance ([`smp_core::uniform::DEFAULT_TOLERANCE`]).
    pub fn new(model: ModelSpec) -> Self {
        UniformizationEngine {
            model,
            models: Arc::new(ModelCache::new(1)),
            phase_cache: None,
        }
    }
}

/// Maps a target-resolution failure onto the engine error taxonomy the other
/// engines use: unknown places are *model* errors, an unsatisfiable predicate
/// is an *analysis* error.
fn resolve_error(e: TargetResolveError) -> EngineError {
    match e {
        TargetResolveError::UnknownPlace { .. } => model_error(e),
        TargetResolveError::NoMatchingMarking { .. } => EngineError::Analysis(e.to_string()),
    }
}

fn uniform_error(e: uniform::UniformError) -> EngineError {
    EngineError::Analysis(e.to_string())
}

impl Engine for UniformizationEngine {
    fn name(&self) -> &'static str {
        "uniformization"
    }

    fn solve(&self, requests: &[MeasureRequest]) -> Result<Vec<MeasureReport>, EngineError> {
        let started = Instant::now();
        validate_grids(requests, false)?;
        let (explored, hit) = self.models.explored(&self.model).map_err(model_error)?;
        validate_places(explored.net(), requests)?;
        let space = explored.space();
        let smp = space.smp();
        if let Err(e) = uniform::exponential_rates(smp) {
            // Not an analysis failure: the model is simply outside this
            // engine's scenario family.
            return Err(EngineError::Unsupported(format!(
                "{e}; use the analytic, distributed or simulation engine for \
                 general holding-time distributions"
            )));
        }
        let initial = space.initial_state();
        let states = Some(space.num_states());

        // One transient chain serves every occupancy request; passage chains
        // are kept per distinct target predicate so e.g. density + cdf +
        // quantile over one target share a single reduction.  With a
        // configured [`PhaseChainCache`] the reductions also survive across
        // solves, keyed by model fingerprint so edits miss instead of
        // reading a stale chain.
        let fingerprint = self.model.fingerprint();
        let mut chains: Vec<(String, Arc<PhaseCtmc>)> = Vec::new();
        let mut chain_for = |key: String,
                             build: &dyn Fn() -> Result<PhaseCtmc, uniform::UniformError>|
         -> Result<Arc<PhaseCtmc>, EngineError> {
            if let Some((_, chain)) = chains.iter().find(|(k, _)| *k == key) {
                return Ok(Arc::clone(chain));
            }
            let build = || build().map(Arc::new).map_err(uniform_error);
            let (chain, _) = match &self.phase_cache {
                Some(cache) => cache.get_or_insert_with(format!("{fingerprint}:{key}"), build)?,
                None => (build()?, false),
            };
            chains.push((key, Arc::clone(&chain)));
            Ok(chain)
        };

        let mut reports = Vec::with_capacity(requests.len());
        for request in requests {
            let target_states = explored.resolve(&request.target).map_err(resolve_error)?;
            let targets = StateSet::new(smp.num_states(), &target_states)
                .map_err(|e| EngineError::Analysis(e.to_string()))?;

            let mut provenance = Provenance::local("uniformization", "poisson");
            provenance.states = states;

            let (points, values) = match &request.kind {
                MeasureKind::Transient => {
                    let chain =
                        chain_for("transient".into(), &|| PhaseCtmc::transient(smp, initial))?;
                    let out = chain
                        .transient_probability(&targets, &request.t_points, TOLERANCE)
                        .map_err(uniform_error)?;
                    provenance.evaluations = out.iterations;
                    provenance.error_bound = Some(out.truncation_bound);
                    let values = out.values.iter().map(|v| v.clamp(0.0, 1.0)).collect();
                    (request.t_points.clone(), values)
                }
                kind => {
                    let key = format!("passage:{}", request.target);
                    let chain = chain_for(key, &|| PhaseCtmc::passage(smp, initial, &targets))?;
                    match kind {
                        MeasureKind::Cdf => {
                            let out = chain
                                .cdf(&request.t_points, TOLERANCE)
                                .map_err(uniform_error)?;
                            provenance.evaluations = out.iterations;
                            provenance.error_bound = Some(out.truncation_bound);
                            // Same monotone repair the inversion engines apply
                            // to their CDF curves.
                            let mut values = out.values;
                            repair_cdf(&mut values);
                            (request.t_points.clone(), values)
                        }
                        MeasureKind::Density => {
                            let out = chain
                                .density(&request.t_points, TOLERANCE)
                                .map_err(uniform_error)?;
                            provenance.evaluations = out.iterations;
                            provenance.error_bound = Some(out.truncation_bound);
                            let values = out.values.iter().map(|v| v.max(0.0)).collect();
                            (request.t_points.clone(), values)
                        }
                        MeasureKind::Quantile { probs } => {
                            let mut iterations = 0usize;
                            let mut bound = 0.0f64;
                            let values = search_quantiles(request, probs, &mut |ts| {
                                let cdf = chain.cdf(ts, TOLERANCE).map_err(uniform_error)?;
                                let density =
                                    chain.density(ts, TOLERANCE).map_err(uniform_error)?;
                                iterations += cdf.iterations + density.iterations;
                                bound = bound.max(cdf.truncation_bound);
                                Ok(cdf.values.into_iter().zip(density.values).collect())
                            })?;
                            provenance.evaluations = iterations;
                            // The bound is on the CDF values the search read,
                            // not on the inverted time axis.
                            provenance.error_bound = Some(bound);
                            (probs.clone(), values)
                        }
                        MeasureKind::Mean => {
                            let m = chain.moment(1).map_err(uniform_error)?;
                            provenance.evaluations = m.iterations;
                            provenance.error_bound = Some(m.residual);
                            (vec![1.0], vec![m.value])
                        }
                        MeasureKind::Moment { order } => {
                            let m = chain.moment(*order).map_err(uniform_error)?;
                            provenance.evaluations = m.iterations;
                            provenance.error_bound = Some(m.residual);
                            (vec![f64::from(*order)], vec![m.value])
                        }
                        MeasureKind::Transient => unreachable!("handled above"),
                    }
                }
            };
            provenance.wall = started.elapsed();
            reports.push(MeasureReport {
                name: request.name(),
                kind: request.kind.clone(),
                points,
                values,
                provenance,
            });
        }
        // The model lookup is solve-level: attribute it to the first report,
        // like every other engine's model-cache counters.
        if let Some(first) = reports.first_mut() {
            first.provenance.model_cache_hits = usize::from(hit);
            first.provenance.model_cache_misses = usize::from(!hit);
        }
        Ok(reports)
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// The engine `choice` routes to over `model`, with the (hits, misses) of
/// the model-cache lookup that routed it: the one routing policy of one-shot
/// runs and the query server.  `auto` probes the explored model in `models`
/// — uniformization when every holding time is exponential, the distributed
/// pipeline otherwise — asking the server's `memo` (keyed by the model's
/// fingerprint) first when given one, where a hit counts as a hit.  Other
/// choices pass through unprobed.  A model that fails to explore is a model
/// error, not a route.
pub fn route(
    choice: EngineChoice,
    model: &ModelSpec,
    models: &ModelCache,
    memo: Option<(&LruMemo<String, EngineChoice>, &str)>,
) -> Result<(EngineChoice, usize, usize), EngineError> {
    if choice != EngineChoice::Auto {
        return Ok((choice, 0, 0));
    }
    let mut probed_hit = true;
    let mut probe = || {
        let (explored, hit) = models.explored(model).map_err(model_error)?;
        probed_hit = hit;
        let exponential = uniform::is_all_exponential(explored.space().smp());
        Ok(if exponential {
            EngineChoice::Uniform
        } else {
            EngineChoice::Distributed
        })
    };
    let routed = match memo {
        Some((memo, fingerprint)) => memo.get_or_insert_with(fingerprint.to_string(), probe)?.0,
        None => probe()?,
    };
    Ok((routed, usize::from(probed_hit), usize::from(!probed_hit)))
}

/// Builds the engine [`route`] chose, one-shot or served, looking the model
/// up in `models`, the cache the routing probe read.  `analytic` runs on
/// every core in process against `options`' shared result cache, if any;
/// `uniform` keeps its phase chains in `phase_chains`, if given; any other
/// choice is the distributed pipeline with `options` over the transport
/// `transport` makes — called only then, so a caller binds sockets only for
/// a distributed solve.  (`sim` is the caller's own.)
pub fn build_engine<E>(
    routed: EngineChoice,
    model: ModelSpec,
    method: InversionMethod,
    models: &Arc<ModelCache>,
    phase_chains: Option<&Arc<PhaseChainCache>>,
    options: PipelineOptions,
    transport: impl FnOnce() -> Result<Box<dyn Transport>, E>,
) -> Result<Box<dyn Engine>, E> {
    Ok(match routed {
        EngineChoice::Uniform => Box::new(UniformizationEngine {
            models: Arc::clone(models),
            phase_cache: phase_chains.cloned(),
            ..UniformizationEngine::new(model)
        }),
        EngineChoice::Analytic => Box::new(AnalyticEngine::over(
            model,
            method,
            models,
            options.shared_cache,
        )),
        _ => {
            let transport = transport()?;
            Box::new(DistributedEngine::with_transport(
                model, method, options, transport,
            ))
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::batch::BatchResult;
    use crate::cache::ResultCache;
    use crate::master::PipelineError;
    use crate::one_stage;
    use crate::transform::CompiledModelSet;
    use crate::transport::{ExecutionPlan, InProcess};
    use crate::worker::WorkerMessage;
    use smp_core::query::TargetSpec;
    use smp_laplace::euler::EulerParams;
    use smp_laplace::{Euler, SPointPlan, TransformValues};
    use smp_numeric::stats::linspace;
    use smp_numeric::Complex64;

    fn voting() -> ModelSpec {
        ModelSpec::Voting {
            voters: 3,
            polling: 1,
            central: 1,
        }
    }

    fn target(text: &str) -> TargetSpec {
        TargetSpec::parse(text).unwrap()
    }

    fn full_request_set() -> Vec<MeasureRequest> {
        let ts = linspace(1.0, 14.0, 6);
        vec![
            MeasureRequest::density(target("p2>=2"), &ts),
            MeasureRequest::cdf(target("p2>=2"), &ts),
            MeasureRequest::transient(target("p2>=2"), &ts),
            MeasureRequest::quantile(target("p2>=2"), &[0.5, 0.9]).with_t_points(&ts),
            MeasureRequest::mean(target("p2>=2")).with_t_points(&ts),
            MeasureRequest::moment(target("p2>=2"), 2).with_t_points(&ts),
        ]
    }

    #[test]
    fn analytic_and_distributed_agree_bitwise_on_every_kind() {
        let requests = full_request_set();
        let analytic = AnalyticEngine::new(voting(), InversionMethod::euler())
            .solve(&requests)
            .unwrap();
        let distributed = DistributedEngine::in_process(
            voting(),
            InversionMethod::euler(),
            PipelineOptions::with_workers(3),
        )
        .solve(&requests)
        .unwrap();
        assert_eq!(analytic.len(), requests.len());
        for (a, d) in analytic.iter().zip(&distributed) {
            assert_eq!(a.name, d.name);
            assert_eq!(a.points, d.points);
            assert_eq!(a.values, d.values, "{} differs between engines", a.name);
            assert_eq!(a.provenance.engine, "analytic");
            assert_eq!(d.provenance.engine, "distributed");
        }
        // Worker count does not change distributed values either.
        let more_workers = DistributedEngine::in_process(
            voting(),
            InversionMethod::euler(),
            PipelineOptions::with_workers(7),
        )
        .solve(&requests)
        .unwrap();
        for (a, b) in distributed.iter().zip(&more_workers) {
            assert_eq!(a.values, b.values);
        }
    }

    /// Measures over one transform share its points in the analytic engine
    /// as they do in the distributed engine's batch: the first to need a
    /// point evaluates it and the others count it as shared.
    #[test]
    fn analytic_and_distributed_count_shared_points_alike() {
        let mut requests = full_request_set();
        requests.push(MeasureRequest::cdf(target("p2>=2"), &linspace(2.0, 9.0, 3)));
        let analytic = AnalyticEngine::new(voting(), InversionMethod::euler())
            .solve(&requests)
            .unwrap();
        let distributed = DistributedEngine::in_process(
            voting(),
            InversionMethod::euler(),
            PipelineOptions::with_workers(1),
        )
        .solve(&requests)
        .unwrap();
        let spent = |r: &MeasureReport| (r.provenance.evaluations, r.provenance.shared_hits);
        for (a, d) in analytic.iter().zip(&distributed) {
            assert_eq!(spent(a), spent(d), "{}", a.name);
            let bits = |r: &MeasureReport| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(d), "{}", a.name);
            assert_eq!(a.provenance.backend, "in-process", "{}", a.name);
        }
        // The CDF over the density's grid evaluates nothing of its own.
        assert_eq!(spent(&analytic[1]), (0, analytic[0].provenance.evaluations));
        // The batch's passage and transient specs and every quantile round
        // are one model: explored once, found in the model cache after.
        for reports in [&analytic, &distributed] {
            let lookups = |count: fn(&Provenance) -> usize| -> usize {
                reports.iter().map(|r| count(&r.provenance)).sum()
            };
            assert_eq!(lookups(|p| p.model_cache_misses), 1);
            assert!(lookups(|p| p.model_cache_hits) >= 2);
        }
        // The batch's points went out as lane blocks, one result message
        // each, counted on the batch's first report.
        let batched: usize = analytic
            .iter()
            .filter(|r| !matches!(r.kind, MeasureKind::Quantile { .. }))
            .map(|r| r.provenance.evaluations)
            .sum();
        assert_eq!(
            analytic[0].provenance.messages,
            batched.div_ceil(BLOCK_LANES)
        );
    }

    /// The in-process backend evaluating `points` in place of the plan's
    /// `s`-points, item by item: how a test puts points no inversion contour
    /// reaches (the left half-plane) through the pipeline.
    struct AtPoints<'a> {
        points: &'a [Complex64],
        threads: InProcess,
    }

    impl Transport for AtPoints<'_> {
        fn name(&self) -> &'static str {
            "at-points"
        }

        fn parallelism(&self) -> usize {
            self.threads.parallelism()
        }

        fn execute(
            &self,
            mut plan: ExecutionPlan<'_>,
            on_message: &mut dyn FnMut(WorkerMessage),
        ) -> Result<TransportReport, PipelineError> {
            for item in &mut plan.items {
                item.s = self.points[item.index];
            }
            self.threads.execute(plan, on_message)
        }
    }

    /// The fan-out's thread count changes neither a value bit nor an
    /// evaluation, nor which failure is reported: plans of 7 points (a short
    /// last block) and 9 (a single-lane tail), passage and transient alike,
    /// through the pipeline over one, two and three in-process threads.
    #[test]
    fn a_plan_answers_alike_on_any_thread_count() {
        // Euler at one `t`-point with n + m + 1 = 7 or 9 terms.
        let euler = |n: usize| {
            let params = EulerParams {
                terms: n - 3,
                euler_terms: 2,
                ..EulerParams::default()
            };
            InversionMethod::Euler(Euler::new(params))
        };
        let run = |spec: &TransformSpec, n, backend: &dyn Transport| {
            let job = BatchJob::new().with_measure(MeasureSpec::from_spec(
                "f",
                CurveKind::Cdf,
                &[1.0],
                spec.clone(),
            ));
            let cache = Arc::new(ResultCache::new());
            let options = PipelineOptions {
                shared_cache: Some(Arc::clone(&cache)),
                ..PipelineOptions::default().chunked(BLOCK_LANES)
            };
            let batch = DistributedPipeline::new(euler(n), options).execute(job, backend);
            (batch, cache)
        };
        let specs = [
            TransformSpec::passage(voting(), target("p2>=2")),
            TransformSpec::transient(voting(), target("p2>=2")),
        ];
        for spec in &specs {
            for n in [7, 9] {
                let plan = SPointPlan::new(euler(n), &[1.0]);
                assert_eq!(plan.len(), n);
                let table = |threads| {
                    let (batch, cache) = run(spec, n, &InProcess::new(threads));
                    let batch: BatchResult = batch.unwrap();
                    assert_eq!(batch.evaluations, n);
                    assert_eq!(batch.chunks_dispatched, n.div_ceil(BLOCK_LANES));
                    assert_eq!(batch.report.worker_stats.len(), threads);
                    let values = cache.snapshot(&spec.transform_key(), plan.s_points());
                    let bits: Vec<_> = plan
                        .s_points()
                        .iter()
                        .map(|&s| values.get(s).map(|v| (v.re.to_bits(), v.im.to_bits())))
                        .collect();
                    (bits, batch.report.hotpath.pooled_lst_evaluations)
                };
                let one = table(1);
                assert!(one.0.iter().all(Option::is_some));
                assert_eq!(table(2), one, "{n} points on 2 threads");
                assert_eq!(table(3), one, "{n} points on 3 threads");
            }
        }

        // Points on the LST poles of a ring's holding times (rates 2 and 1)
        // fail on the round their total goes non-finite, within the default
        // budget; the error names the first of them in plan order.
        let ring = TransformSpec::passage(exp_ring(), target("c>=1"));
        let mut points: Vec<Complex64> = (0..7)
            .map(|k| Complex64::new(0.2 + 0.1 * k as f64, k as f64 - 4.0))
            .collect();
        points[2] = Complex64::new(-2.0, 0.0);
        points[5] = Complex64::new(-1.0, 0.0);
        let failure = |threads| {
            let backend = AtPoints {
                points: &points,
                threads: InProcess::new(threads),
            };
            match run(&ring, 7, &backend).0 {
                Err(error @ PipelineError::Evaluation { .. }) => error.to_string(),
                other => panic!("expected a failure, got {other:?}"),
            }
        };
        let first = failure(1);
        assert!(first.contains("at s = -2"), "{first}");
        assert!(first.contains(" after 1 iterations"), "{first}");
        assert_eq!(failure(2), first);
        assert_eq!(failure(3), first);
    }

    #[test]
    fn provenance_is_populated() {
        let requests = full_request_set();
        let reports = DistributedEngine::in_process(
            voting(),
            InversionMethod::euler(),
            PipelineOptions::with_workers(2),
        )
        .solve(&requests)
        .unwrap();
        let density = &reports[0];
        assert_eq!(density.provenance.backend, "in-process");
        assert_eq!(density.provenance.workers, 2);
        assert!(density.provenance.states.is_some());
        assert!(density.provenance.evaluations > 0);
        // The symbolic/numeric split's savings are surfaced (attributed to
        // the first measure of the shared run, like the wire counters).
        assert!(density.provenance.matrix_rebuilds_avoided > 0);
        assert!(density.provenance.pooled_lst_evaluations > 0);
        // The CDF shares every evaluation with the density (one transform key).
        let cdf = &reports[1];
        assert_eq!(cdf.provenance.evaluations, 0);
        assert_eq!(cdf.provenance.shared_hits, density.provenance.evaluations);
        // Quantile rounds accumulate evaluations of their own.
        let quantile = &reports[3];
        assert!(quantile.provenance.evaluations > 0);
        assert_eq!(quantile.provenance.workers, 2);
    }

    #[test]
    fn sharded_engine_matches_the_analytic_engine_bitwise_for_any_shard_count() {
        let requests = full_request_set();
        let analytic = AnalyticEngine::new(voting(), InversionMethod::euler())
            .solve(&requests)
            .unwrap();
        for shards in 1..=4 {
            let reports = DistributedEngine::sharded(
                voting(),
                InversionMethod::euler(),
                PipelineOptions::with_workers(1),
                shards,
            )
            .solve(&requests)
            .unwrap();
            for (a, d) in analytic.iter().zip(&reports) {
                assert_eq!(a.points, d.points);
                assert_eq!(a.values, d.values, "{} differs at {shards} shards", a.name);
            }
            // The memory claim: per-shard states partition the full space
            // and the largest slice is the ⌈N/shards⌉ block ceiling.
            let first = &reports[0].provenance;
            assert_eq!(first.backend, "sharded-loopback");
            assert_eq!(first.shards, shards);
            assert_eq!(first.shard_states.len(), shards);
            let total: usize = first.shard_states.iter().sum();
            assert_eq!(first.states, Some(total));
            let ceiling = total.div_ceil(shards);
            assert!(first.shard_states.iter().all(|&n| n <= ceiling));
            if shards > 1 {
                assert!(first.halo_bytes > 0, "boundary exchange must be real");
                assert!(first.exchange_rounds > 0);
            }
            // The CDF memoizes every s-point the density already drove
            // through the fleet (one passage transform per target).
            assert_eq!(reports[1].provenance.evaluations, 0);
            assert_eq!(
                reports[1].provenance.shared_hits,
                reports[0].provenance.evaluations
            );
            // Transient curves ride the same batch (evaluated by the fleet's
            // fallback evaluator); the mean's two stencil nodes are passage
            // points like any other and run on the slices.
            assert_eq!(reports[2].provenance.backend, "sharded-loopback");
            assert_eq!(reports[4].provenance.backend, "sharded-loopback");
            assert_eq!(reports[4].provenance.evaluations, 2);
        }
    }

    #[test]
    fn quantile_refinement_accumulates_wire_traffic_across_rounds() {
        // Regression lock: the quantile path's provenance sums evaluations,
        // messages and bytes over *every* refinement round; a bug that kept
        // only the last round's counters would under-report.
        let ts = linspace(1.0, 14.0, 6);
        let probs = [0.5, 0.9];
        let request = MeasureRequest::quantile(target("p2>=2"), &probs).with_t_points(&ts);

        // Replay the shared search sequentially to learn how many rounds it
        // drives and how many grid points they evaluate in total.
        let spec = TransformSpec::passage(voting(), target("p2>=2"));
        let set = CompiledModelSet::compile(std::slice::from_ref(&spec)).unwrap();
        let evaluator = set.evaluator(0).unwrap();
        let (initial, max_horizon) = quantile_horizons(&request);
        let mut rounds = 0usize;
        let mut grid_points = 0usize;
        quantiles_from_cdf(&probs, initial, max_horizon, &mut |ts: &[f64]| {
            rounds += 1;
            let plan = SPointPlan::new(InversionMethod::euler(), ts);
            grid_points += plan.s_points().len();
            let mut shard = TransformValues::new();
            for (&s, value) in plan
                .s_points()
                .iter()
                .zip(evaluator.eval_many(plan.s_points()))
            {
                shard.insert(s, value.unwrap());
            }
            let cdf = CurveKind::Cdf.postprocess(&plan, &shard);
            let density = CurveKind::Density.postprocess(&plan, &shard);
            Ok::<_, EngineError>(cdf.into_iter().zip(density).collect())
        })
        .unwrap();
        assert!(rounds >= 2, "the search must refine for this lock to bite");

        // Loopback shards account the bytes their frames would ship.
        let options = PipelineOptions::with_workers(2);
        let report = DistributedEngine::sharded(voting(), InversionMethod::euler(), options, 2)
            .solve(std::slice::from_ref(&request))
            .unwrap()
            .remove(0);
        let p = &report.provenance;
        assert_eq!(
            p.evaluations + p.cache_hits,
            grid_points,
            "every round's grid points must be accounted, not just the last round's"
        );
        assert!(
            p.messages >= rounds,
            "at least one message per pipeline run"
        );
        assert!(p.bytes_on_wire > 0);
    }

    #[test]
    fn stencil_points_are_result_cached_like_any_other_point() {
        let requests = [
            MeasureRequest::mean(target("p2>=2")),
            MeasureRequest::moment(target("p2>=2"), 3),
        ];
        let options = PipelineOptions {
            workers: 2,
            shared_cache: Some(Arc::new(crate::cache::ResultCache::new())),
            ..Default::default()
        };
        let engine = DistributedEngine::in_process(voting(), InversionMethod::euler(), options);
        let cold = engine.solve(&requests).unwrap();
        let warm = engine.solve(&requests).unwrap();
        for ((c, w), order) in cold.iter().zip(&warm).zip([1, 3]) {
            assert_eq!(c.provenance.evaluations, order + 1, "{}", c.name);
            assert_eq!(c.values, w.values, "{}", c.name);
            assert_eq!(w.provenance.evaluations, 0, "{}", w.name);
            assert_eq!(w.provenance.cache_hits, order + 1, "{}", w.name);
            assert_eq!(
                w.provenance.messages, 0,
                "a warm stencil dispatches nothing"
            );
        }
        match engine.solve(&[MeasureRequest::moment(target("p2>=2"), 5)]) {
            Err(EngineError::Unsupported(m)) => assert!(m.contains("1..=4"), "{m}"),
            other => panic!("expected unsupported, got {other:?}"),
        }
    }

    #[test]
    fn quantile_round_trips_through_the_cdf() {
        // F(q_p) == p up to grid resolution: read the CDF at the reported
        // quantiles off a fine analytic curve.
        let probs = [0.5, 0.9];
        let requests = vec![MeasureRequest::quantile(target("p2>=2"), &probs)
            .with_t_points(&linspace(1.0, 14.0, 6))];
        let engine = AnalyticEngine::new(voting(), InversionMethod::euler());
        let quantiles = engine.solve(&requests).unwrap().remove(0);
        assert!(quantiles.provenance.matrix_rebuilds_avoided > 0);
        let grid = linspace(0.05, 60.0, 600);
        let cdf = engine
            .solve(&[MeasureRequest::cdf(target("p2>=2"), &grid)])
            .unwrap()
            .remove(0);
        for (&p, &q) in probs.iter().zip(&quantiles.values) {
            // Interpolate the CDF at q.
            let f = smp_numeric::stats::lerp_table(&cdf.points, &cdf.values, q);
            assert!((f - p).abs() < 0.01, "F({q}) = {f} vs p = {p}");
        }
    }

    #[test]
    fn simulation_agrees_with_analytic_within_tolerance() {
        let ts = linspace(2.0, 16.0, 5);
        let requests = vec![
            MeasureRequest::cdf(target("p2>=2"), &ts),
            MeasureRequest::transient(target("p2>=2"), &ts),
            MeasureRequest::quantile(target("p2>=2"), &[0.5]).with_t_points(&ts),
            MeasureRequest::mean(target("p2>=2")),
        ];
        let analytic = AnalyticEngine::new(voting(), InversionMethod::euler())
            .solve(&requests)
            .unwrap();
        let sim = SimulationEngine::new(
            voting(),
            SimulationOptions {
                replications: 20_000,
                threads: 2,
                ..Default::default()
            },
        )
        .solve(&requests)
        .unwrap();
        for (a, s) in analytic.iter().zip(&sim) {
            assert_eq!(a.points, s.points);
            let bound = s.provenance.error_bound.expect("sim reports a bound");
            for (&va, &vs) in a.values.iter().zip(&s.values) {
                let allowed = 0.02 * va.abs().max(1.0) + bound;
                assert!(
                    (va - vs).abs() <= allowed,
                    "{}: analytic {va} vs sim {vs} (allowed {allowed})",
                    a.name
                );
            }
        }
        // Same seed, different thread count: bitwise-reproducible simulation.
        let sim_again = SimulationEngine::new(
            voting(),
            SimulationOptions {
                replications: 20_000,
                threads: 5,
                ..Default::default()
            },
        )
        .solve(&requests)
        .unwrap();
        for (a, b) in sim.iter().zip(&sim_again) {
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn simulation_shares_replications_across_passage_measures() {
        let ts = linspace(2.0, 16.0, 4);
        let requests = vec![
            MeasureRequest::cdf(target("p2>=2"), &ts),
            MeasureRequest::mean(target("p2>=2")),
        ];
        let reports = SimulationEngine::new(
            voting(),
            SimulationOptions {
                replications: 2_000,
                ..Default::default()
            },
        )
        .solve(&requests)
        .unwrap();
        assert_eq!(reports[0].provenance.evaluations, 2_000);
        assert_eq!(reports[1].provenance.evaluations, 0);
        assert_eq!(reports[1].provenance.shared_hits, 2_000);
    }

    /// Three one-stage nets whose state spaces cannot be explored: a constant
    /// sojourn that is a zero-weight mixture, a weight `1/b` with `b = 0`,
    /// and a sojourn `expLT(b, s)` with `b = 0`.  Every engine refuses each
    /// as a model error.
    pub(crate) fn hostile_models() -> [ModelSpec; 3] {
        [
            one_stage::net(r"\sojourntimeLT{ return 0 * expLT(2.0, s); }"),
            one_stage::net(r"\weight{1 / b} \sojourntimeLT{ return expLT(2.0, s); }"),
            one_stage::net(r"\sojourntimeLT{ return expLT(b, s); }"),
        ]
    }

    /// A trajectory that reaches a marking where a piece has no value is the
    /// model's fault on the simulation engine too, not a panic.
    #[test]
    fn simulation_refuses_hostile_models_as_model_errors() {
        let requests = [MeasureRequest::density(target("b>=1"), &[1.0, 2.0])];
        let options = SimulationOptions {
            replications: 50,
            ..SimulationOptions::default()
        };
        for model in hostile_models() {
            match SimulationEngine::new(model.clone(), options).solve(&requests) {
                Err(EngineError::Model(m)) => assert!(m.contains("transition 'ab'"), "{m}"),
                other => panic!("{model:?}: expected a model error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_place_is_a_model_error_on_every_engine() {
        let requests = vec![MeasureRequest::mean(target("nosuch>=1"))];
        let engines: Vec<Box<dyn Engine>> = vec![
            Box::new(AnalyticEngine::new(voting(), InversionMethod::euler())),
            Box::new(DistributedEngine::in_process(
                voting(),
                InversionMethod::euler(),
                PipelineOptions::with_workers(2),
            )),
            Box::new(SimulationEngine::new(
                voting(),
                SimulationOptions::default(),
            )),
            Box::new(UniformizationEngine::new(voting())),
        ];
        for engine in engines {
            match engine.solve(&requests) {
                Err(EngineError::Model(m)) => assert!(m.contains("nosuch"), "{m}"),
                other => panic!("{}: expected a model error, got {other:?}", engine.name()),
            }
        }
    }

    /// A one-token three-state ring with exponential holding times: the
    /// passage a → {c} is hypoexponential(2, 1), so the engines have a shared
    /// closed-form anchor.
    fn exp_ring() -> ModelSpec {
        ModelSpec::Dnamaca(
            r"
\place{a}{1}
\place{b}{0}
\place{c}{0}

\transition{ab}{
    \condition{a > 0}
    \action{ next->a = a - 1; next->b = b + 1; }
    \weight{1.0}
    \sojourntimeLT{ return expLT(2.0, s); }
}
\transition{bc}{
    \condition{b > 0}
    \action{ next->b = b - 1; next->c = c + 1; }
    \weight{1.0}
    \sojourntimeLT{ return expLT(1.0, s); }
}
\transition{ca}{
    \condition{c > 0}
    \action{ next->c = c - 1; next->a = a + 1; }
    \weight{1.0}
    \sojourntimeLT{ return expLT(3.0, s); }
}
"
            .to_string(),
        )
    }

    #[test]
    fn uniformization_agrees_with_analytic_on_every_kind() {
        let ts = linspace(0.5, 8.0, 6);
        let requests = vec![
            MeasureRequest::cdf(target("c>=1"), &ts),
            MeasureRequest::transient(target("c>=1"), &ts),
            MeasureRequest::density(target("c>=1"), &ts),
            MeasureRequest::quantile(target("c>=1"), &[0.5, 0.9]).with_t_points(&ts),
            MeasureRequest::mean(target("c>=1")),
            MeasureRequest::moment(target("c>=1"), 2),
        ];
        let uniform = UniformizationEngine::new(exp_ring())
            .solve(&requests)
            .unwrap();
        let analytic = AnalyticEngine::new(exp_ring(), InversionMethod::euler())
            .solve(&requests)
            .unwrap();
        for (u, a) in uniform.iter().zip(&analytic) {
            assert_eq!(u.name, a.name);
            assert_eq!(u.provenance.engine, "uniformization");
            let bound = u
                .provenance
                .error_bound
                .expect("uniformization reports a bound");
            // The dominant discrepancy is the analytic engine's inversion
            // error (the uniformization bound is ~1e-12); quantiles also see
            // the shared search's grid resolution.
            let slack = match &u.kind {
                MeasureKind::Quantile { .. } => 2e-2,
                _ => 1e-4,
            };
            for (x, y) in u.values.iter().zip(&a.values) {
                assert!(
                    (x - y).abs() <= bound + slack * x.abs().max(y.abs()).max(1.0),
                    "{}: uniformization {x} vs analytic {y} (bound {bound})",
                    u.name
                );
            }
        }
        // The closed-form hypoexponential mean: 1/2 + 1/1.
        let mean = &uniform[4];
        assert!((mean.values[0] - 1.5).abs() < 1e-9, "{}", mean.values[0]);
    }

    #[test]
    fn phase_chain_cache_serves_repeat_solves_bitwise() {
        let ts = linspace(0.5, 8.0, 6);
        let requests = vec![
            MeasureRequest::cdf(target("c>=1"), &ts),
            MeasureRequest::transient(target("c>=1"), &ts),
            MeasureRequest::mean(target("c>=1")),
        ];
        let cache = Arc::new(PhaseChainCache::new(4));
        let engine = UniformizationEngine {
            phase_cache: Some(Arc::clone(&cache)),
            ..UniformizationEngine::new(exp_ring())
        };
        let cold = engine.solve(&requests).unwrap();
        // First solve builds one passage chain (cdf + mean share the target)
        // and one transient chain, over the one model it explores.
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cold[0].provenance.model_cache_hits, 0);
        assert_eq!(cold[0].provenance.model_cache_misses, 1);
        assert_eq!(cache.len(), 2);
        // The repeat reuses both chains and the explored model.
        let warm = engine.solve(&requests).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert_eq!(warm[0].provenance.model_cache_hits, 1);
        assert_eq!(warm[0].provenance.model_cache_misses, 0);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.values, w.values, "{} changed under the cache", c.name);
        }
        // The cache changes nothing about the values: an uncached engine
        // reports the same numbers bitwise.
        let uncached = UniformizationEngine::new(exp_ring())
            .solve(&requests)
            .unwrap();
        for (c, u) in cold.iter().zip(&uncached) {
            assert_eq!(c.values, u.values);
        }
        assert_eq!(uncached[0].provenance.model_cache_misses, 1);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    /// `Provenance::wall` has one meaning on every engine: time from the top
    /// of `solve`.  A cheap measure after an expensive curve therefore
    /// reports a wall no shorter than the curve's, where a clock per measure
    /// would report the cheap measure's own few microseconds.
    #[test]
    fn every_engine_times_walls_from_the_top_of_solve() {
        let sim_requests = vec![
            MeasureRequest::cdf(target("p2>=2"), &linspace(2.0, 16.0, 8)),
            MeasureRequest::mean(target("p2>=2")),
        ];
        let sim_options = SimulationOptions {
            replications: 2_000,
            ..Default::default()
        };
        let uniform_requests = vec![
            MeasureRequest::cdf(target("c>=1"), &linspace(0.5, 200.0, 400)),
            MeasureRequest::mean(target("c>=1")),
        ];
        let engines: [(Box<dyn Engine>, &[MeasureRequest]); 2] = [
            (
                Box::new(SimulationEngine::new(voting(), sim_options)),
                &sim_requests,
            ),
            (
                Box::new(UniformizationEngine::new(exp_ring())),
                &uniform_requests,
            ),
        ];
        for (engine, requests) in engines {
            let reports = engine.solve(requests).unwrap();
            let (curve, mean) = (reports[0].provenance.wall, reports[1].provenance.wall);
            assert!(
                mean >= curve,
                "{}: the mean's wall {mean:?} is shorter than the curve's {curve:?}",
                engine.name()
            );
        }
    }

    #[test]
    fn uniformization_rejects_non_exponential_models() {
        let requests = vec![MeasureRequest::cdf(
            target("p2>=2"),
            &linspace(1.0, 10.0, 4),
        )];
        match UniformizationEngine::new(voting()).solve(&requests) {
            Err(EngineError::Unsupported(m)) => {
                assert!(m.contains("exponential"), "{m}");
            }
            other => panic!("expected unsupported, got {other:?}"),
        }
    }

    #[test]
    fn uniformization_applies_detects_the_scenario_family() {
        assert!(uniformization_applies(&exp_ring()));
        assert!(!uniformization_applies(&voting()));
    }

    #[test]
    fn simulation_rejects_degenerate_passage_targets() {
        // p1 starts with all voters, so p1>=1 holds initially.
        let requests = vec![MeasureRequest::mean(target("p1>=1"))];
        match SimulationEngine::new(voting(), SimulationOptions::default()).solve(&requests) {
            Err(EngineError::Unsupported(m)) => assert!(m.contains("initial marking"), "{m}"),
            other => panic!("expected unsupported, got {other:?}"),
        }
    }

    #[test]
    fn moment_one_matches_mean_and_known_values() {
        let model = voting();
        let engine = AnalyticEngine::new(model, InversionMethod::euler());
        let mean = engine
            .solve(&[MeasureRequest::mean(target("p2>=2"))])
            .unwrap()
            .remove(0);
        let m1 = engine
            .solve(&[MeasureRequest::moment(target("p2>=2"), 1)])
            .unwrap()
            .remove(0);
        assert_eq!(mean.values, m1.values);
        let m2 = engine
            .solve(&[MeasureRequest::moment(target("p2>=2"), 2)])
            .unwrap()
            .remove(0);
        // E[T²] ≥ E[T]² always; sanity-check the stencil is in a plausible range.
        let (mu, mu2) = (mean.values[0], m2.values[0]);
        assert!(
            mu > 0.0 && mu2 >= mu * mu * 0.99,
            "E[T] = {mu}, E[T²] = {mu2}"
        );
    }
}

//! Batch jobs: families of measures solved in one pipeline run.
//!
//! Realistic studies rarely ask for a single curve — they ask for *families* of
//! quantities: passage-time densities and CDFs for several source/target pairs,
//! transient probabilities for several state sets, all over shared (or
//! overlapping) time grids, and the moments of the same passages.  A
//! [`BatchJob`] is that workload: an ordered list of [`MeasureSpec`]s, each
//! pairing a [`TransformSpec`] with a time grid and a kind that says
//! which `s`-points it needs ([`MeasureKind::plan`]) and how its values are
//! read off them ([`MeasureKind::postprocess`]).
//! `DistributedPipeline::execute` plans the union of required `s`-points per
//! transform, dedupes against the measure-keyed cache and checkpoint, and
//! solves everything through one shared work queue — the paper's "cache
//! results both within and across successive queries" realised as an API.

use crate::transform::TransformSpec;
use crate::transport::TransportReport;
use smp_laplace::{repair_cdf, InversionMethod, SPointPlan, TransformValues};
use smp_numeric::Complex64;
use std::time::Duration;

/// How a measure's values are derived from its transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureKind {
    /// Invert the transform directly — a passage-time *density* `f(t)`.
    Density,
    /// Invert `L(s)/s` (the "/s trick"), then clamp into `[0, 1]` and make
    /// monotone — a passage-time *CDF* `F(t)`.  The cached values are the raw
    /// density transform, so a CDF measure can share evaluations with a density
    /// measure over the same transform key.
    Cdf,
    /// Invert directly, then clamp into `[0, 1]` — a transient state
    /// probability `P(Z(t) ∈ targets)`.
    Transient,
    /// A raw passage-time moment `E[Tᵏ]`, read off the density transform at
    /// the stencil's nodes — no inversion and no time grid.  The nodes are
    /// ordinary `s`-points: queued, shared, cached and checkpointed under
    /// the transform key like any curve's.
    Moment(MomentStencil),
}

/// `E[Tᵏ] = (−1)ᵏ L⁽ᵏ⁾(0)`: the k-th central finite difference of a
/// passage-time density transform at the origin, for `k` in `1..=4`.  The one
/// definition of the nodes and of the fold, so every engine that evaluates
/// the transform at [`MeasureKind::plan`]'s points and folds them with
/// [`MeasureKind::postprocess`] reports the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MomentStencil {
    order: u32,
}

impl MomentStencil {
    /// The stencil of the given moment order; `None` outside `1..=4`.
    pub fn new(order: u32) -> Option<MomentStencil> {
        (1..=4).contains(&order).then_some(MomentStencil { order })
    }

    /// The step size, balancing truncation against cancellation per order.
    fn step(&self) -> f64 {
        match self.order {
            1 => 1e-5,
            2 => 1e-4,
            3 => 1e-3,
            _ => 3e-3,
        }
    }

    /// The `order + 1` real nodes, in the fold's accumulation order.
    fn nodes(&self) -> Vec<Complex64> {
        (0..=self.order)
            .map(|j| (f64::from(self.order) / 2.0 - f64::from(j)) * self.step())
            .map(Complex64::real)
            .collect()
    }

    /// The signed binomial fold of the transform values at the nodes.
    fn fold(&self, shard: &TransformValues) -> f64 {
        let binomial = |k: u32| {
            (1..=k).fold(1.0, |acc, i| {
                acc * f64::from(self.order - k + i) / f64::from(i)
            })
        };
        let mut acc = 0.0;
        for (j, s) in (0..=self.order).zip(self.nodes()) {
            let coeff = if j % 2 == 0 { 1.0 } else { -1.0 } * binomial(j);
            acc += coeff * shard.get(s).expect("plan satisfied by shard").re;
        }
        let derivative = acc / self.step().powi(self.order as i32);
        if self.order.is_multiple_of(2) {
            derivative
        } else {
            -derivative
        }
    }
}

impl MeasureKind {
    /// Short lower-case name (used in reports and by the `smpq` CLI).
    pub fn name(&self) -> &'static str {
        match self {
            MeasureKind::Density => "density",
            MeasureKind::Cdf => "cdf",
            MeasureKind::Transient => "transient",
            MeasureKind::Moment(_) => "moment",
        }
    }

    /// The `s`-points a measure of this kind needs: the inversion contour of
    /// every `t`-point for the curve kinds, the stencil's nodes (whatever the
    /// grid) for a moment.
    ///
    /// # Panics
    /// As [`SPointPlan::new`], for a curve kind over an empty or non-positive
    /// grid.
    pub fn plan(&self, method: InversionMethod, t_points: &[f64]) -> SPointPlan {
        match self {
            MeasureKind::Moment(stencil) => SPointPlan::at_points(method, stencil.nodes()),
            _ => SPointPlan::new(method, t_points),
        }
    }

    /// Derives a measure's values from its cached transform shard: inversion
    /// on the plan's time grid with the kind-specific post-processing for the
    /// curve kinds, the finite-difference fold (one value) for a moment.
    /// This is the *only* place the `/s`
    /// trick's inversion side lives: a CDF measure's shard holds the **raw**
    /// density values (so they stay sharable with density measures over the
    /// same transform key), and the division happens here, as the inversion
    /// reads each value, followed by the `[0, 1]` clamp and the monotone sweep.
    ///
    /// # Panics
    /// Panics when the shard does not cover the plan (callers check
    /// `plan.is_satisfied_by(shard)` first).
    pub fn postprocess(&self, plan: &SPointPlan, shard: &TransformValues) -> Vec<f64> {
        match self {
            MeasureKind::Density => plan.invert(shard),
            MeasureKind::Cdf => {
                let mut values =
                    plan.invert_with(|s| shard.get(s).expect("plan satisfied by shard") / s);
                repair_cdf(&mut values);
                values
            }
            MeasureKind::Transient => plan
                .invert(shard)
                .into_iter()
                .map(|p| p.clamp(0.0, 1.0))
                .collect(),
            MeasureKind::Moment(stencil) => vec![stencil.fold(shard)],
        }
    }
}

/// One measure of a batch job: a named transform spec, the time grid to
/// invert it on, and the post-processing kind.
#[derive(Debug)]
pub struct MeasureSpec {
    name: String,
    kind: MeasureKind,
    t_points: Vec<f64>,
    transform_key: String,
    spec: TransformSpec,
}

impl MeasureSpec {
    /// Creates a measure over a serializable [`TransformSpec`] — for
    /// [`MeasureKind::Density`], [`MeasureKind::Cdf`] and moments the
    /// *passage* transform `L(s)` (the `/s` division happens at inversion),
    /// for [`MeasureKind::Transient`] the transient transform.  Every
    /// transport backend, including a worker on the other end of a socket,
    /// rebuilds the spec into an evaluator.
    pub fn from_spec(
        name: impl Into<String>,
        kind: MeasureKind,
        t_points: &[f64],
        spec: TransformSpec,
    ) -> MeasureSpec {
        MeasureSpec {
            name: name.into(),
            kind,
            t_points: t_points.to_vec(),
            transform_key: spec.transform_key(),
            spec,
        }
    }

    /// The measure's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The measure's post-processing kind.
    pub fn kind(&self) -> MeasureKind {
        self.kind
    }

    /// The measure's output time grid.
    pub fn t_points(&self) -> &[f64] {
        &self.t_points
    }

    /// The cache/checkpoint key this measure's transform values live under:
    /// its spec's [`TransformSpec::transform_key`], which folds the model
    /// fingerprint in.  Measures over equal specs share cache entries,
    /// checkpoint records and work-queue evaluations.
    pub fn transform_key(&self) -> &str {
        &self.transform_key
    }

    pub(crate) fn spec(&self) -> &TransformSpec {
        &self.spec
    }
}

/// An ordered collection of measures solved together in one pipeline run.
#[derive(Debug, Default)]
pub struct BatchJob {
    measures: Vec<MeasureSpec>,
}

impl BatchJob {
    /// Creates an empty job.
    pub fn new() -> Self {
        BatchJob::default()
    }

    /// Adds a measure (builder style).
    pub fn with_measure(mut self, measure: MeasureSpec) -> Self {
        self.measures.push(measure);
        self
    }

    /// Adds a measure in place.
    pub fn push(&mut self, measure: MeasureSpec) {
        self.measures.push(measure);
    }

    /// The measures in submission order.
    pub fn measures(&self) -> &[MeasureSpec] {
        &self.measures
    }

    /// Number of measures in the job.
    pub fn len(&self) -> usize {
        self.measures.len()
    }

    /// True when the job has no measures.
    pub fn is_empty(&self) -> bool {
        self.measures.is_empty()
    }

    pub(crate) fn into_measures(self) -> Vec<MeasureSpec> {
        self.measures
    }
}

/// The outcome of one measure of a batch run.
#[derive(Debug, Clone)]
pub struct MeasureResult {
    /// The measure's name, copied from its [`MeasureSpec`].
    pub name: String,
    /// The measure's post-processing kind.
    pub kind: MeasureKind,
    /// The measure's output time grid (unused by a moment measure).
    pub t_points: Vec<f64>,
    /// The inverted (and kind-specific post-processed) values on that grid;
    /// for a moment measure, the one moment.
    pub values: Vec<f64>,
    /// Number of `s`-points this measure caused to be evaluated in this run.
    pub evaluations: usize,
    /// Number of this measure's planned `s`-points satisfied from the restored
    /// cache/checkpoint without any new evaluation.
    pub cache_hits: usize,
    /// Number of planned `s`-points satisfied by another measure of the *same
    /// batch* that shares this measure's transform key (union planning).
    pub shared_hits: usize,
}

impl MeasureResult {
    /// Iterates over `(t, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.t_points
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }
}

/// The outcome of a whole batch run.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-measure results, in the job's submission order.
    pub measures: Vec<MeasureResult>,
    /// Wall-clock duration of the whole run (planning to inversion).
    pub elapsed: Duration,
    /// Total number of `s`-points evaluated in this run.
    pub evaluations: usize,
    /// Total number of planned `s`-points satisfied from the restored
    /// cache/checkpoint (sum of the per-measure `cache_hits`).
    pub cache_hits: usize,
    /// Total number of planned `s`-points shared between measures of this
    /// batch (sum of the per-measure `shared_hits`).
    pub shared_hits: usize,
    /// The chunk size the work queue dispensed items with.
    pub chunk_size: usize,
    /// Number of chunks dispatched (equals the number of worker messages).
    pub chunks_dispatched: usize,
    /// Name of the transport backend that ran the evaluations.
    pub backend: &'static str,
    /// Everything the transport reported about the run: wire traffic, lost
    /// workers, state-space size, hot-path and model-cache counters, and —
    /// for row-sharded backends — the shard layout, halo traffic and
    /// recovery counters.  All zero for a fully-warm run, which never touches
    /// the transport.
    pub report: TransportReport,
}

impl BatchResult {
    /// Looks a measure's result up by name.
    pub fn measure(&self, name: &str) -> Option<&MeasureResult> {
        self.measures.iter().find(|m| m.name == name)
    }
}

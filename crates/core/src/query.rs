//! The typed measure-query layer: one front door over every solution engine.
//!
//! The paper's headline deliverables are passage-time **quantiles** and
//! transient state distributions, *validated* by cross-checking the distributed
//! numerical results against a simulation of the same high-level model.  This
//! module is the API seam that serves those quantities uniformly:
//!
//! * a [`MeasureRequest`] says *what* is wanted — a measure [`MeasureKind`]
//!   (density, CDF, transient probability, quantiles, mean, higher moment), a
//!   [`TargetSpec`] predicate selecting the target markings, and an evaluation
//!   grid;
//! * a [`MeasureReport`] says what came back — the values plus a [`Provenance`]
//!   record of *how* they were computed (engine, backend, messages and bytes on
//!   the wire, wall time, statistical error bound);
//! * the [`Engine`] trait executes batches of requests.  Implementations live
//!   in `smp-pipeline` (`DistributedEngine` — whose in-process deployment
//!   `AnalyticEngine` builds — `SimulationEngine`, `UniformizationEngine`) so
//!   that Laplace inversion, discrete-event simulation and CTMC
//!   uniformization all sit behind the same call — the `smpq` CLI's `--engine` flag and `--validate-sim`
//!   cross-check are thin wrappers over [`Engine::solve`].
//!
//! Everything here is plain data with no solver dependencies, which is why it
//! lives in `smp-core`: any future backend (async, GPU, multi-master) plugs in
//! by implementing [`Engine`] against these types.

use std::time::Duration;

// ---------------------------------------------------------------------------
// Target predicates
// ---------------------------------------------------------------------------

/// Comparison operators accepted in a target predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CompareOp {
    Ge,
    Le,
    Gt,
    Lt,
    Eq,
    Ne,
}

impl CompareOp {
    /// The operator's source form, e.g. `>=`.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            CompareOp::Ge => ">=",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Lt => "<",
            CompareOp::Eq => "==",
            CompareOp::Ne => "!=",
        }
    }

    /// Every operator with its symbol, in parse-precedence order
    /// (two-character symbols first so `p>=3` is never read as `p > =3`).
    pub(crate) const ALL: [(&'static str, CompareOp); 6] = [
        (">=", CompareOp::Ge),
        ("<=", CompareOp::Le),
        ("==", CompareOp::Eq),
        ("!=", CompareOp::Ne),
        (">", CompareOp::Gt),
        ("<", CompareOp::Lt),
    ];
}

/// A token-count predicate `PLACE OP N` selecting a model's target markings —
/// the serializable form of "the set of states the passage ends in".
///
/// The predicate is pure syntax at this level; resolving it against an
/// explored state space happens in `smp-pipeline` (which re-exports this type
/// for backward compatibility).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSpec {
    /// The place whose marking is compared.
    pub place: String,
    /// The comparison operator.
    pub op: CompareOp,
    /// The right-hand token count.
    pub count: u32,
}

impl TargetSpec {
    /// True when a token count satisfies the predicate.
    pub fn matches(&self, tokens: u32) -> bool {
        match self.op {
            CompareOp::Ge => tokens >= self.count,
            CompareOp::Le => tokens <= self.count,
            CompareOp::Gt => tokens > self.count,
            CompareOp::Lt => tokens < self.count,
            CompareOp::Eq => tokens == self.count,
            CompareOp::Ne => tokens != self.count,
        }
    }

    /// Parses the source form, e.g. `p2>=3`.  Errors name the offending token
    /// and list the valid operators.
    pub fn parse(text: &str) -> Result<TargetSpec, String> {
        for (symbol, op) in CompareOp::ALL {
            if let Some(pos) = text.find(symbol) {
                let place = text[..pos].trim();
                let count = text[pos + symbol.len()..].trim();
                if place.is_empty() {
                    return Err(format!("predicate '{text}' is missing a place name"));
                }
                let count = count.parse().map_err(|_| {
                    format!(
                        "predicate '{text}' needs an integer token count after '{symbol}' \
                         (got '{count}')"
                    )
                })?;
                return Ok(TargetSpec {
                    place: place.to_string(),
                    op,
                    count,
                });
            }
        }
        Err(format!(
            "predicate '{text}' has no comparison operator \
             (expected PLACE OP N, e.g. p2>=3; valid operators: >= <= > < == !=)"
        ))
    }
}

impl std::fmt::Display for TargetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}{}", self.place, self.op.symbol(), self.count)
    }
}

// ---------------------------------------------------------------------------
// Measure kinds and requests
// ---------------------------------------------------------------------------

/// What quantity a measure request asks for.
///
/// `Density`, `Cdf` and `Transient` are *curve* kinds evaluated on the
/// request's time grid.  `Quantile`, `Mean` and `Moment` are *derived* kinds
/// layered on the same passage-time transform: quantiles invert the CDF, the
/// mean and higher moments read the transform's derivatives at the origin
/// (`E[Tᵏ] = (−1)ᵏ L⁽ᵏ⁾(0)`).
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureKind {
    /// The passage-time density `f(t)` on the time grid.
    Density,
    /// The passage-time cumulative distribution `F(t)` on the time grid.
    Cdf,
    /// The transient state probability `P(Z(t) ∈ targets)` on the time grid.
    Transient,
    /// Passage-time quantiles: for each probability `p`, the earliest time by
    /// which the completion probability reaches `p`.
    Quantile {
        /// The requested probabilities, each in `(0, 1)`.
        probs: Vec<f64>,
    },
    /// The mean passage time `E[T]`.
    Mean,
    /// A raw passage-time moment `E[Tᵏ]` of the given order (`1..=4`).
    Moment {
        /// The moment order `k`.
        order: u32,
    },
}

/// The valid measure-kind names, for error messages and help text.
pub(crate) const MEASURE_KIND_NAMES: &str = "density, cdf, transient, quantile, mean, moment";

impl MeasureKind {
    /// Short lower-case name (used in reports and by the `smpq` CLI).
    pub fn name(&self) -> &'static str {
        match self {
            MeasureKind::Density => "density",
            MeasureKind::Cdf => "cdf",
            MeasureKind::Transient => "transient",
            MeasureKind::Quantile { .. } => "quantile",
            MeasureKind::Mean => "mean",
            MeasureKind::Moment { .. } => "moment",
        }
    }

    /// True for the kinds whose values live on the request's time grid.
    pub fn is_curve(&self) -> bool {
        matches!(
            self,
            MeasureKind::Density | MeasureKind::Cdf | MeasureKind::Transient
        )
    }

    /// True for the kinds derived from the first-passage transform (everything
    /// except `Transient`, which uses the transient transform).
    pub fn uses_passage_transform(&self) -> bool {
        !matches!(self, MeasureKind::Transient)
    }
}

/// One typed measure query: kind × target × evaluation grid.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureRequest {
    /// What to compute.
    pub kind: MeasureKind,
    /// The target-marking predicate.
    pub target: TargetSpec,
    /// The evaluation time grid.  Curve kinds are evaluated on it; quantile
    /// searches use its last point as the initial search horizon; mean/moment
    /// ignore it.
    pub t_points: Vec<f64>,
}

impl MeasureRequest {
    /// A density request (grid filled in later with
    /// [`MeasureRequest::with_t_points`] or at construction).
    pub fn density(target: TargetSpec, t_points: &[f64]) -> Self {
        MeasureRequest {
            kind: MeasureKind::Density,
            target,
            t_points: t_points.to_vec(),
        }
    }

    /// A CDF request.
    pub fn cdf(target: TargetSpec, t_points: &[f64]) -> Self {
        MeasureRequest {
            kind: MeasureKind::Cdf,
            target,
            t_points: t_points.to_vec(),
        }
    }

    /// A transient state-probability request.
    pub fn transient(target: TargetSpec, t_points: &[f64]) -> Self {
        MeasureRequest {
            kind: MeasureKind::Transient,
            target,
            t_points: t_points.to_vec(),
        }
    }

    /// A quantile request for the given probabilities.
    pub fn quantile(target: TargetSpec, probs: &[f64]) -> Self {
        MeasureRequest {
            kind: MeasureKind::Quantile {
                probs: probs.to_vec(),
            },
            target,
            t_points: Vec::new(),
        }
    }

    /// A mean passage-time request.
    pub fn mean(target: TargetSpec) -> Self {
        MeasureRequest {
            kind: MeasureKind::Mean,
            target,
            t_points: Vec::new(),
        }
    }

    /// A raw-moment request of the given order.
    pub fn moment(target: TargetSpec, order: u32) -> Self {
        MeasureRequest {
            kind: MeasureKind::Moment { order },
            target,
            t_points: Vec::new(),
        }
    }

    /// Replaces the evaluation grid (builder style).  The CLI parses measures
    /// before it knows the grid flags, so requests are built grid-less and
    /// filled in here.
    pub fn with_t_points(mut self, t_points: &[f64]) -> Self {
        self.t_points = t_points.to_vec();
        self
    }

    /// The request's display name, e.g. `density:p2>=3` or
    /// `quantile:p2>=3@0.5,0.9,0.99`.
    pub fn name(&self) -> String {
        match &self.kind {
            MeasureKind::Quantile { probs } => {
                let list: Vec<String> = probs.iter().map(|p| format!("{p}")).collect();
                format!("quantile:{}@{}", self.target, list.join(","))
            }
            MeasureKind::Moment { order } => format!("moment:{}@{order}", self.target),
            kind => format!("{}:{}", kind.name(), self.target),
        }
    }

    /// Parses the `smpq` measure syntax `KIND:TARGET[@ARGS]`:
    ///
    /// * `density:p2>=3`, `cdf:p2>=3`, `transient:p6==0`
    /// * `quantile:p2>=3@0.5,0.9,0.99` — probabilities after `@`
    /// * `mean:p2>=3`
    /// * `moment:p2>=3@2` — the moment order after `@`
    ///
    /// The returned request has an empty time grid; callers fill it in with
    /// [`MeasureRequest::with_t_points`].  Errors name the offending token and
    /// list the valid kinds and operators.
    pub fn parse(text: &str) -> Result<MeasureRequest, String> {
        Self::parse_impl(text, None)
    }

    /// Like [`MeasureRequest::parse`], but an unknown kind is reported in the
    /// words of the engine the request selected ("kinds supported by the
    /// uniform engine").  Every engine answers every kind, so the list is
    /// always `MEASURE_KIND_NAMES`.
    pub fn parse_for_engine(text: &str, engine: &str) -> Result<MeasureRequest, String> {
        Self::parse_impl(text, Some(engine))
    }

    fn parse_impl(text: &str, engine: Option<&str>) -> Result<MeasureRequest, String> {
        let Some((kind_text, rest)) = text.split_once(':') else {
            return Err(format!(
                "measure '{text}' is missing its kind prefix \
                 (expected KIND:TARGET, where KIND is one of {MEASURE_KIND_NAMES})"
            ));
        };
        // Split the optional @ARGS suffix off the target predicate.
        let (target_text, args) = match rest.split_once('@') {
            Some((target, args)) => (target, Some(args)),
            None => (rest, None),
        };
        let reject_args = |kind: &str| -> Result<(), String> {
            match args {
                Some(extra) => Err(format!(
                    "measure kind '{kind}' takes no '@' arguments (got '@{extra}' in '{text}')"
                )),
                None => Ok(()),
            }
        };
        let target = TargetSpec::parse(target_text)?;
        let kind = match kind_text {
            "density" => {
                reject_args("density")?;
                MeasureKind::Density
            }
            "cdf" => {
                reject_args("cdf")?;
                MeasureKind::Cdf
            }
            "transient" => {
                reject_args("transient")?;
                MeasureKind::Transient
            }
            "mean" => {
                reject_args("mean")?;
                MeasureKind::Mean
            }
            "quantile" => {
                let Some(args) = args else {
                    return Err(format!(
                        "quantile measure '{text}' is missing its probabilities \
                         (expected quantile:TARGET@P1,P2,..., e.g. quantile:{target}@0.5,0.9)"
                    ));
                };
                let mut probs = Vec::new();
                for token in args.split(',') {
                    let token = token.trim();
                    let p: f64 = token.parse().map_err(|_| {
                        format!("quantile probability '{token}' in '{text}' is not a number")
                    })?;
                    if !(p > 0.0 && p < 1.0) {
                        return Err(format!(
                            "quantile probability '{token}' in '{text}' must lie strictly \
                             between 0 and 1"
                        ));
                    }
                    probs.push(p);
                }
                if probs.is_empty() {
                    return Err(format!(
                        "quantile measure '{text}' lists no probabilities after '@'"
                    ));
                }
                MeasureKind::Quantile { probs }
            }
            "moment" => {
                let Some(args) = args else {
                    return Err(format!(
                        "moment measure '{text}' is missing its order \
                         (expected moment:TARGET@K, e.g. moment:{target}@2)"
                    ));
                };
                let order: u32 = args
                    .trim()
                    .parse()
                    .map_err(|_| format!("moment order '{args}' in '{text}' is not an integer"))?;
                if !(1..=4).contains(&order) {
                    return Err(format!(
                        "moment order {order} in '{text}' is out of range (supported: 1..=4)"
                    ));
                }
                MeasureKind::Moment { order }
            }
            other => {
                return Err(match engine {
                    Some(engine) => format!(
                        "unknown measure kind '{other}' in '{text}' \
                         (kinds supported by the {engine} engine: {MEASURE_KIND_NAMES})"
                    ),
                    None => format!(
                        "unknown measure kind '{other}' in '{text}' \
                         (valid kinds: {MEASURE_KIND_NAMES})"
                    ),
                })
            }
        };
        Ok(MeasureRequest {
            kind,
            target,
            t_points: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------------
// Reports and provenance
// ---------------------------------------------------------------------------

/// Where a report's numbers came from: the audit trail of one measure.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// The engine that produced the values (`analytic`, `distributed`,
    /// `simulation`, `uniformization`).
    pub engine: &'static str,
    /// The engine's backend: transport name for the distributed engine and
    /// the analytic engine, its in-process deployment (`in-process`, `tcp`,
    /// `sharded-loopback`, …), a replication/seed summary for the simulation
    /// engine.
    pub backend: String,
    /// Workers (threads, processes or replication threads) that contributed.
    pub workers: usize,
    /// Reachable markings of the explored state space, when the engine
    /// explored it in-process (`None` when workers explored it remotely, or
    /// for the simulation engine which never builds the state space).
    pub states: Option<usize>,
    /// Protocol messages exchanged with workers (0 for purely local engines).
    pub messages: usize,
    /// Bytes shipped (or accounted) on the wire; 0 for purely local engines.
    pub bytes_on_wire: u64,
    /// Work spent on this measure: transform evaluations
    /// (analytic/distributed); Poisson power-iteration terms, or Jacobi
    /// sweeps for a mean or moment (uniformization); replications
    /// (simulation).  Zero on a reply the query server remembered.
    pub evaluations: usize,
    /// Kernel-matrix constructions the symbolic/numeric split avoided: one
    /// per `s`-point served by refilling a prebuilt CSR skeleton instead of
    /// rebuilding the `(U, U')` pair (see `smp_core::workspace`).  Zero for
    /// engines that never ran a local evaluator (e.g. TCP workers count on
    /// their side of the wire).
    pub matrix_rebuilds_avoided: u64,
    /// Pooled Laplace–Stieltjes transform evaluations spent: one per
    /// *distinct* holding-time distribution per `s`-point, never one per
    /// transition.
    pub pooled_lst_evaluations: u64,
    /// Evaluation-grid points satisfied from a warm cache or checkpoint.
    /// A reply the query server remembered reports every grid point the
    /// answer read (a Laplace engine's evaluations, cache hits and shared
    /// hits when it was found; none for uniformization, which reads no
    /// transform grid), as a re-run over the warm cache would.
    pub cache_hits: usize,
    /// Evaluation-grid points shared with other measures of the same solve.
    pub shared_hits: usize,
    /// Wall-clock time from the top of the engine's `solve` until this
    /// measure's report was complete: validation, any model parse or lookup
    /// and the work on every measure before it are in it.  So the walls of
    /// one solve never decrease in request order; the measures of one
    /// distributed batch report one wall, and a quantile's includes the
    /// batch before it.  A reply the query server remembered reports the
    /// time from the start of answering the request to the reply.
    pub wall: Duration,
    /// An error bound on the values, when the engine has one: the
    /// simulation engine's 95% confidence half-width; uniformization's
    /// Poisson truncation bound (for a quantile, the largest over the CDF
    /// values its search read) or, for a mean or moment, the Jacobi
    /// iterate's max-norm residual.  The Laplace-inversion engines report
    /// `None`.  A reply the query server remembered carries the bound its
    /// answer was found with.
    pub error_bound: Option<f64>,
    /// Time the request spent queued behind the admission controller before a
    /// solve slot opened (always zero outside the query server).
    pub queue_wait: Duration,
    /// Explored-model lookups served without exploring: the model was in the
    /// engine's model cache (the query server's, shared by every request, or
    /// an engine's own, kept across the runs of a solve), or the query
    /// server's `auto` routing memo held the model's verdict.  Zero for
    /// engines that explore on the far side of a wire, or never.
    pub model_cache_hits: usize,
    /// Explored-model lookups that had to explore: each miss is one parse
    /// plus state-space exploration, the `auto` routing probe's included.
    pub model_cache_misses: usize,
    /// Contiguous row shards the state space was partitioned into (0 when the
    /// solve was not row-sharded).
    pub shards: usize,
    /// Reachable markings owned per shard (empty when not sharded).  The
    /// entries sum to `states`; the largest is the per-worker memory
    /// high-water mark of the run.
    pub shard_states: Vec<usize>,
    /// Bytes of boundary (halo) vector entries shipped between shards during
    /// lockstep sparse matrix–vector rounds.
    pub halo_bytes: u64,
    /// Boundary-exchange rounds driven across all sharded evaluation points.
    pub exchange_rounds: u64,
    /// Connection or admission attempts retried with backoff (worker dials,
    /// client reconnects) before the run succeeded.
    pub retries: u64,
    /// Injected or real faults the run absorbed and recovered from without
    /// changing a value: requeued chunks after a worker loss, resharded
    /// sessions, refused-and-recovered corrupt frames.
    pub recovered_faults: u64,
    /// Lockstep rounds *skipped* because a solve resumed mid-point from a
    /// per-shard iterate checkpoint instead of redoing them (0 for cold
    /// runs).
    pub resumed_rounds: u64,
}

impl Provenance {
    /// A provenance skeleton for a purely local, deterministic engine.
    pub fn local(engine: &'static str, backend: impl Into<String>) -> Self {
        Provenance {
            engine,
            backend: backend.into(),
            workers: 1,
            states: None,
            messages: 0,
            bytes_on_wire: 0,
            evaluations: 0,
            matrix_rebuilds_avoided: 0,
            pooled_lst_evaluations: 0,
            cache_hits: 0,
            shared_hits: 0,
            wall: Duration::ZERO,
            error_bound: None,
            queue_wait: Duration::ZERO,
            model_cache_hits: 0,
            model_cache_misses: 0,
            shards: 0,
            shard_states: Vec::new(),
            halo_bytes: 0,
            exchange_rounds: 0,
            retries: 0,
            recovered_faults: 0,
            resumed_rounds: 0,
        }
    }
}

/// The outcome of one [`MeasureRequest`]: values plus provenance.
#[derive(Debug, Clone)]
pub struct MeasureReport {
    /// The request's display name ([`MeasureRequest::name`]).
    pub name: String,
    /// The request's kind (echoed back).
    pub kind: MeasureKind,
    /// The abscissae the values live on: the time grid for curve kinds, the
    /// requested probabilities for quantiles, `[order]` for mean/moment.
    pub points: Vec<f64>,
    /// The computed values, aligned with `points`.
    pub values: Vec<f64>,
    /// How the values were computed.
    pub provenance: Provenance,
}

impl MeasureReport {
    /// Iterates over `(point, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points.iter().copied().zip(self.values.iter().copied())
    }

    /// The single value of a scalar report (mean/moment), if that is what
    /// this is.
    pub fn scalar(&self) -> Option<f64> {
        match self.kind {
            MeasureKind::Mean | MeasureKind::Moment { .. } => self.values.first().copied(),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The engine trait
// ---------------------------------------------------------------------------

/// Why an engine could not answer a batch of requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The model is unreadable, unparsable, or a request names a place the
    /// model does not have.
    Model(String),
    /// The engine (or its current backend) cannot compute this kind of
    /// measure.
    Unsupported(String),
    /// The computation itself failed (solver divergence, transport loss,
    /// unreachable quantile, …).
    Analysis(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Model(m) => write!(f, "model error: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported measure: {m}"),
            EngineError::Analysis(m) => write!(f, "analysis error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A measure engine: anything that can answer a batch of [`MeasureRequest`]s
/// with [`MeasureReport`]s.
///
/// The contract every implementation honours:
///
/// * reports come back **in request order**, one per request;
/// * deterministic engines (analytic inversion, the distributed pipeline)
///   return **bitwise-identical** values for the same requests regardless of
///   backend, worker count or chunking;
/// * stochastic engines (simulation) are deterministic for a fixed seed and
///   populate [`Provenance::error_bound`] so callers can cross-validate — the
///   paper's analytic-vs-simulation check as an API property.
pub trait Engine {
    /// The engine's short name (`analytic`, `simulation`, `distributed`,
    /// `uniformization`).
    fn name(&self) -> &'static str;

    /// Answers a batch of requests, in order.
    fn solve(&self, requests: &[MeasureRequest]) -> Result<Vec<MeasureReport>, EngineError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(text: &str) -> TargetSpec {
        TargetSpec::parse(text).unwrap()
    }

    #[test]
    fn target_parse_and_match_round_trip() {
        let cases = [
            ("p>=3", 3, true),
            ("p>=3", 2, false),
            ("p<=1", 1, true),
            ("p>0", 0, false),
            ("p<5", 4, true),
            ("p==2", 2, true),
            ("p!=2", 2, false),
        ];
        for (text, tokens, expect) in cases {
            let spec = target(text);
            assert_eq!(spec.matches(tokens), expect, "{text} with {tokens}");
            assert_eq!(spec.to_string(), text);
        }
    }

    #[test]
    fn target_parse_errors_name_the_token_and_list_operators() {
        let no_op = TargetSpec::parse("p2").unwrap_err();
        assert!(no_op.contains("'p2'"), "{no_op}");
        assert!(no_op.contains(">= <= > < == !="), "{no_op}");
        let bad_count = TargetSpec::parse("p2>=x").unwrap_err();
        assert!(bad_count.contains("'x'"), "{bad_count}");
        let no_place = TargetSpec::parse(">=3").unwrap_err();
        assert!(no_place.contains("place name"), "{no_place}");
    }

    #[test]
    fn measure_parse_all_kinds() {
        let d = MeasureRequest::parse("density:p2>=3").unwrap();
        assert_eq!(d.kind, MeasureKind::Density);
        assert_eq!(d.name(), "density:p2>=3");

        let q = MeasureRequest::parse("quantile:p2>=3@0.5,0.9,0.99").unwrap();
        assert_eq!(
            q.kind,
            MeasureKind::Quantile {
                probs: vec![0.5, 0.9, 0.99]
            }
        );
        assert_eq!(q.name(), "quantile:p2>=3@0.5,0.9,0.99");

        let m = MeasureRequest::parse("mean:p2>=3").unwrap();
        assert_eq!(m.kind, MeasureKind::Mean);

        let mm = MeasureRequest::parse("moment:p2>=3@2").unwrap();
        assert_eq!(mm.kind, MeasureKind::Moment { order: 2 });
        assert_eq!(mm.name(), "moment:p2>=3@2");

        let t = MeasureRequest::parse("transient:p6==0").unwrap();
        assert_eq!(t.kind, MeasureKind::Transient);
        assert!(!t.kind.uses_passage_transform());
        assert!(t.kind.is_curve());
        assert!(!mm.kind.is_curve());
    }

    #[test]
    fn measure_parse_errors_are_specific() {
        let missing_kind = MeasureRequest::parse("p2>=3").unwrap_err();
        assert!(
            missing_kind.contains("missing its kind prefix"),
            "{missing_kind}"
        );
        assert!(missing_kind.contains(MEASURE_KIND_NAMES), "{missing_kind}");

        let unknown = MeasureRequest::parse("meen:p2>=3").unwrap_err();
        assert!(unknown.contains("'meen'"), "{unknown}");
        assert!(unknown.contains(MEASURE_KIND_NAMES), "{unknown}");

        let no_probs = MeasureRequest::parse("quantile:p2>=3").unwrap_err();
        assert!(no_probs.contains("missing its probabilities"), "{no_probs}");

        let bad_prob = MeasureRequest::parse("quantile:p2>=3@0.5,two").unwrap_err();
        assert!(bad_prob.contains("'two'"), "{bad_prob}");

        let out_of_range = MeasureRequest::parse("quantile:p2>=3@1.5").unwrap_err();
        assert!(out_of_range.contains("between 0 and 1"), "{out_of_range}");

        let stray_args = MeasureRequest::parse("density:p2>=3@0.5").unwrap_err();
        assert!(
            stray_args.contains("takes no '@' arguments"),
            "{stray_args}"
        );

        let bad_order = MeasureRequest::parse("moment:p2>=3@9").unwrap_err();
        assert!(bad_order.contains("out of range"), "{bad_order}");

        let no_order = MeasureRequest::parse("moment:p2>=3").unwrap_err();
        assert!(no_order.contains("missing its order"), "{no_order}");
    }

    #[test]
    fn engine_scoped_parse_errors_name_the_engines_kinds() {
        // Unknown kind: the error speaks for the named engine.
        let unknown = MeasureRequest::parse_for_engine("meen:p2>=3", "uniform").unwrap_err();
        assert_eq!(
            unknown,
            format!(
                "unknown measure kind 'meen' in 'meen:p2>=3' \
                 (kinds supported by the uniform engine: {MEASURE_KIND_NAMES})"
            )
        );

        // Known kinds parse exactly as the plain parser would.
        let ok = MeasureRequest::parse_for_engine("cdf:p2>=1", "uniform").unwrap();
        assert_eq!(ok, MeasureRequest::parse("cdf:p2>=1").unwrap());

        // Every engine accepts every kind.
        for text in ["density:p>=1", "transient:p>=1", "quantile:p>=1@0.5"] {
            MeasureRequest::parse_for_engine(text, "analytic").unwrap();
        }
    }

    #[test]
    fn request_builders_and_grid_fill() {
        let ts = [1.0, 2.0, 3.0];
        let r = MeasureRequest::parse("cdf:p2>=3")
            .unwrap()
            .with_t_points(&ts);
        assert_eq!(r.t_points, ts);
        assert_eq!(r, MeasureRequest::cdf(target("p2>=3"), &ts));
        assert_eq!(
            MeasureRequest::quantile(target("p2>=3"), &[0.5]).name(),
            "quantile:p2>=3@0.5"
        );
        assert_eq!(MeasureRequest::mean(target("p2>=3")).name(), "mean:p2>=3");
        assert_eq!(
            MeasureRequest::moment(target("p2>=3"), 3).name(),
            "moment:p2>=3@3"
        );
    }

    #[test]
    fn report_scalar_accessor() {
        let report = MeasureReport {
            name: "mean:p>=1".into(),
            kind: MeasureKind::Mean,
            points: vec![1.0],
            values: vec![4.2],
            provenance: Provenance::local("analytic", "sequential"),
        };
        assert_eq!(report.scalar(), Some(4.2));
        assert_eq!(report.iter().count(), 1);
        let curve = MeasureReport {
            name: "cdf:p>=1".into(),
            kind: MeasureKind::Cdf,
            points: vec![1.0, 2.0],
            values: vec![0.1, 0.2],
            provenance: Provenance::local("analytic", "sequential"),
        };
        assert_eq!(curve.scalar(), None);
    }
}

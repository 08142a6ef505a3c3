//! Serializable transform specifications — *descriptions* of evaluators.
//!
//! A [`TransformSpec`] is the one way a measure names its transform, on every
//! backend: the paper's slave processors rebuild `U` and `U'` from the model
//! for each `s`-value they are handed, so the unit the master distributes is
//! "model plus target set".  A spec says which model (a built-in voting
//! configuration or raw extended-DNAmaca source), which target markings (a
//! token-count predicate), and which transform (the passage density, a
//! transient row, or a named analytic distribution's LST for testing and
//! calibration).  A CDF is the passage density's spec too: its `/s` division
//! happens at inversion ([`crate::MeasureKind::Cdf`]).
//!
//! A spec has a **canonical single-line wire encoding**
//! ([`TransformSpec::encode`] / [`TransformSpec::decode`]) in the field
//! grammar of [`crate::wire`], and a **transform key**
//! ([`TransformSpec::transform_key`]) that folds the model source's FNV-1a
//! fingerprint in, so cache shards and checkpoint records written against one
//! model can never be replayed against another.
//!
//! Workers turn a spec back into a running evaluator in two steps that mirror
//! the life cycle of the paper's slave processors: [`CompiledModelSet::compile`]
//! parses the model and explores its state space once per *distinct* model
//! (several measures over one model share the exploration), and
//! [`CompiledModelSet::evaluator`] builds the per-measure solver borrowing that
//! shared state space.

use crate::cache::LruMemo;
use crate::wire::{self, encode_finite_f64, encode_str, malformed, Fields, Line, WireError};
use smp_core::transient::TransientSolver;
use smp_core::PassageTimeSolver;
use smp_distributions::Dist;
use smp_numeric::Complex64;
use smp_smspn::{Marking, StateSpace};

/// Wire-format version of the spec encoding (first field of every spec line).
pub const SPEC_VERSION: u32 = 1;

/// A 64-bit FNV-1a fingerprint of a model's source text, rendered as 16 hex
/// digits.  Folded into every transform key so that a checkpoint file reused
/// with a different (or since-edited) model misses the cache instead of
/// feeding it stale transform values.
pub fn model_fingerprint(source: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in source.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

// ---------------------------------------------------------------------------
// Model specification
// ---------------------------------------------------------------------------

/// Where the model a transform is evaluated over comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSpec {
    /// The built-in voting model for `(voters, polling units, central units)`
    /// — the paper's case study, generated on the worker.
    Voting {
        /// Number of voters `CC`.
        voters: u32,
        /// Number of polling units `MM`.
        polling: u32,
        /// Number of central voting units `NN`.
        central: u32,
    },
    /// Raw extended-DNAmaca model source, shipped verbatim.
    Dnamaca(String),
}

impl ModelSpec {
    /// The extended-DNAmaca source text of the model (generated for
    /// [`ModelSpec::Voting`]).
    pub fn source(&self) -> String {
        match self {
            ModelSpec::Voting {
                voters,
                polling,
                central,
            } => smp_voting::spec::dnamaca_source(smp_voting::VotingConfig::new(
                *voters, *polling, *central,
            )),
            ModelSpec::Dnamaca(source) => source.clone(),
        }
    }

    /// The FNV-1a fingerprint of [`ModelSpec::source`].
    pub fn fingerprint(&self) -> String {
        model_fingerprint(&self.source())
    }

    /// Encodes the model as one wire-format field (the `model=` value of a
    /// spec line).  Also used verbatim by the query protocol's model line.
    pub fn encode(&self) -> String {
        match self {
            ModelSpec::Voting {
                voters,
                polling,
                central,
            } => format!("voting:{voters},{polling},{central}"),
            ModelSpec::Dnamaca(source) => format!("dnamaca:{}", encode_str(source)),
        }
    }

    /// Decodes a wire-format model field back into a spec.
    pub fn decode(field: &str) -> Result<ModelSpec, WireError> {
        if let Some(counts) = field.strip_prefix("voting:") {
            return Fields::split(counts, ',').all(|counts| {
                Ok(ModelSpec::Voting {
                    voters: counts.parse("voters")?,
                    polling: counts.parse("polling")?,
                    central: counts.parse("central")?,
                })
            });
        }
        if let Some(source) = field.strip_prefix("dnamaca:") {
            return Ok(ModelSpec::Dnamaca(wire::text(source, "DNAmaca source")?));
        }
        Err(malformed(format!("unknown model spec '{field}'")))
    }
}

// ---------------------------------------------------------------------------
// Target specification
// ---------------------------------------------------------------------------

// The predicate *syntax* (place, operator, count, parsing, matching) moved
// into the typed query layer in `smp-core` so that `MeasureRequest`s can carry
// targets without depending on this crate; re-exported here under the names
// this crate has always used.  The state-space *resolution* below is
// pipeline-side: it needs an explored `StateSpace`.
pub use smp_core::query::{CompareOp, TargetSpec};

/// Pipeline-side extension of [`TargetSpec`]: resolving the predicate against
/// an explored state space.  (The syntax type lives in `smp_core::query`; a
/// trait is how this crate keeps `targets.resolve(&net, &space)` callable.)
pub trait ResolveTarget {
    /// Resolves the predicate against an explored state space, returning the
    /// indices of the matching markings.
    fn resolve(
        &self,
        net: &smp_smspn::SmSpn,
        space: &StateSpace,
    ) -> Result<Vec<usize>, TargetResolveError>;
}

impl ResolveTarget for TargetSpec {
    fn resolve(
        &self,
        net: &smp_smspn::SmSpn,
        space: &StateSpace,
    ) -> Result<Vec<usize>, TargetResolveError> {
        let place =
            net.place_index(&self.place)
                .ok_or_else(|| TargetResolveError::UnknownPlace {
                    place: self.place.clone(),
                })?;
        let targets = space.states_where(|m: &Marking| self.matches(m.get(place)));
        if targets.is_empty() {
            return Err(TargetResolveError::NoMatchingMarking {
                predicate: self.to_string(),
            });
        }
        Ok(targets)
    }
}

/// Why a [`TargetSpec`] failed to resolve against a state space.  A typed
/// error, so callers can distinguish a model problem (unknown place) from an
/// analysis problem (predicate matches nothing) without matching on message
/// text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetResolveError {
    /// The predicate names a place the model does not have.
    UnknownPlace {
        /// The offending place name.
        place: String,
    },
    /// The predicate is well-formed but matches no reachable marking.
    NoMatchingMarking {
        /// The predicate's source form.
        predicate: String,
    },
}

impl std::fmt::Display for TargetResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetResolveError::UnknownPlace { place } => {
                write!(f, "place '{place}' does not exist in the model")
            }
            TargetResolveError::NoMatchingMarking { predicate } => {
                write!(f, "predicate {predicate} matches no reachable marking")
            }
        }
    }
}

impl std::error::Error for TargetResolveError {}

// ---------------------------------------------------------------------------
// Analytic distribution specification
// ---------------------------------------------------------------------------

/// A named analytic distribution whose Laplace–Stieltjes transform serves as
/// the evaluator — exact references for calibrating a distributed deployment
/// without shipping a model.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum DistSpec {
    Exponential { rate: f64 },
    Erlang { rate: f64, phases: u32 },
    Uniform { lower: f64, upper: f64 },
    Deterministic { value: f64 },
    Weibull { shape: f64, scale: f64 },
}

impl DistSpec {
    /// Builds the concrete distribution, or says why these parameters make
    /// none ([`Dist::checked`]) — a spec off the wire is outside input.
    pub fn to_dist(&self) -> Result<Dist, String> {
        match *self {
            DistSpec::Exponential { rate } => Dist::Exponential { rate },
            DistSpec::Erlang { rate, phases } => Dist::Erlang { rate, phases },
            DistSpec::Uniform { lower, upper } => Dist::Uniform { lower, upper },
            DistSpec::Deterministic { value } => Dist::Deterministic { value },
            DistSpec::Weibull { shape, scale } => Dist::Weibull { shape, scale },
        }
        .checked()
    }

    fn encode(&self) -> Result<String, WireError> {
        let f = |v: f64| encode_finite_f64(v, "distribution parameter");
        Ok(match *self {
            DistSpec::Exponential { rate } => format!("exponential:{}", f(rate)?),
            DistSpec::Erlang { rate, phases } => format!("erlang:{}:{phases}", f(rate)?),
            DistSpec::Uniform { lower, upper } => format!("uniform:{}:{}", f(lower)?, f(upper)?),
            DistSpec::Deterministic { value } => format!("deterministic:{}", f(value)?),
            DistSpec::Weibull { shape, scale } => format!("weibull:{}:{}", f(shape)?, f(scale)?),
        })
    }

    fn decode(field: &str) -> Result<DistSpec, WireError> {
        Fields::split(field, ':').all(|parts| {
            Ok(match parts.token("distribution")? {
                "exponential" => DistSpec::Exponential {
                    rate: parts.finite("rate")?,
                },
                "erlang" => DistSpec::Erlang {
                    rate: parts.finite("rate")?,
                    phases: parts.parse("phases")?,
                },
                "uniform" => DistSpec::Uniform {
                    lower: parts.finite("lower")?,
                    upper: parts.finite("upper")?,
                },
                "deterministic" => DistSpec::Deterministic {
                    value: parts.finite("value")?,
                },
                "weibull" => DistSpec::Weibull {
                    shape: parts.finite("shape")?,
                    scale: parts.finite("scale")?,
                },
                other => return Err(malformed(format!("unknown distribution '{other}'"))),
            })
        })
    }
}

// ---------------------------------------------------------------------------
// TransformSpec
// ---------------------------------------------------------------------------

/// A complete, serializable description of a Laplace-domain evaluator.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformSpec {
    /// The first-passage transform `L(s)` from a model's initial marking into
    /// the predicate's markings.
    Passage {
        /// The model the passage is measured on.
        model: ModelSpec,
        /// The target-marking predicate.
        targets: TargetSpec,
    },
    /// The transient state-distribution transform: the probability of being in
    /// the predicate's markings at time `t`, started from the initial marking.
    Transient {
        /// The model the probability is measured on.
        model: ModelSpec,
        /// The target-marking predicate.
        targets: TargetSpec,
    },
    /// A named analytic distribution's LST.
    Analytic(DistSpec),
}

impl TransformSpec {
    /// Convenience constructor for a passage spec.
    pub fn passage(model: ModelSpec, targets: TargetSpec) -> Self {
        TransformSpec::Passage { model, targets }
    }

    /// Convenience constructor for a transient spec.
    pub fn transient(model: ModelSpec, targets: TargetSpec) -> Self {
        TransformSpec::Transient { model, targets }
    }

    /// The model the spec is evaluated over, if any (analytic specs have none).
    pub fn model(&self) -> Option<&ModelSpec> {
        match self {
            TransformSpec::Passage { model, .. } | TransformSpec::Transient { model, .. } => {
                Some(model)
            }
            TransformSpec::Analytic(_) => None,
        }
    }

    /// The canonical cache/checkpoint transform key of the spec, with the
    /// model fingerprint folded in: `m<fingerprint>:passage:<pred>`,
    /// `m<fingerprint>:transient:<pred>` or `analytic:<dist>`.  An analytic
    /// spec whose parameters do not encode keys as bare `analytic:`; such a
    /// spec never compiles ([`DistSpec::to_dist`]), so it never evaluates
    /// under that key.
    pub fn transform_key(&self) -> String {
        match self {
            TransformSpec::Passage { model, targets } => {
                Self::passage_key(&model.fingerprint(), targets)
            }
            TransformSpec::Transient { model, targets } => {
                Self::transient_key(&model.fingerprint(), targets)
            }
            TransformSpec::Analytic(dist) => {
                format!("analytic:{}", dist.encode().unwrap_or_default())
            }
        }
    }

    /// The canonical passage transform key for a model fingerprint and target
    /// predicate — the one format every backend's cache and checkpoint
    /// records are keyed by, so that a checkpoint warms across backends.
    pub fn passage_key(fingerprint: &str, targets: &TargetSpec) -> String {
        format!("m{fingerprint}:passage:{targets}")
    }

    /// The canonical transient transform key (see
    /// [`TransformSpec::passage_key`]).
    pub fn transient_key(fingerprint: &str, targets: &TargetSpec) -> String {
        format!("m{fingerprint}:transient:{targets}")
    }

    /// Encodes the spec as one canonical line of the wire format.
    pub fn encode(&self) -> Result<String, WireError> {
        Ok(match self {
            TransformSpec::Passage { model, targets } => format!(
                "passage v={SPEC_VERSION} model={} targets={}",
                model.encode(),
                encode_str(&targets.to_string())
            ),
            TransformSpec::Transient { model, targets } => format!(
                "transient v={SPEC_VERSION} model={} targets={}",
                model.encode(),
                encode_str(&targets.to_string())
            ),
            TransformSpec::Analytic(dist) => {
                format!("analytic v={SPEC_VERSION} dist={}", dist.encode()?)
            }
        })
    }

    /// Decodes one wire line back into a spec.
    pub fn decode(line: &str) -> Result<TransformSpec, WireError> {
        Line::new(line).all(|line| {
            let tag = line.token("spec tag")?;
            if !matches!(tag, "passage" | "transient" | "analytic") {
                return Err(malformed(format!("unknown spec tag '{tag}'")));
            }
            line.version(SPEC_VERSION)?;
            if tag == "analytic" {
                let dist = DistSpec::decode(line.value("dist")?)?;
                return Ok(TransformSpec::Analytic(dist));
            }
            let model = ModelSpec::decode(line.value("model")?)?;
            let targets = TargetSpec::parse(&line.text("targets")?).map_err(malformed)?;
            Ok(if tag == "passage" {
                TransformSpec::Passage { model, targets }
            } else {
                TransformSpec::Transient { model, targets }
            })
        })
    }
}

// ---------------------------------------------------------------------------
// Compilation: spec → evaluator
// ---------------------------------------------------------------------------

/// Everything of a spec that needs the model: which solver to build.
/// `targets` holds the *resolved* state indices — the predicate is matched
/// against the state space exactly once, at compile time.
struct ResolvedSpec {
    /// Index into [`CompiledModelSet::models`], or `None` for analytic specs.
    model: Option<usize>,
    targets: Option<Vec<usize>>,
    transient: bool,
    dist: Option<Dist>,
}

/// A set of parsed-and-explored models shared by the evaluators of one job.
///
/// Workers compile the measures' specs in two steps: this set owns the heavy
/// state (one [`StateSpace`] per *distinct* model source), then
/// [`CompiledModelSet::evaluator`] builds cheap per-measure solvers that borrow
/// it.  The two-step split is what lets several measures over one model share
/// a single state-space exploration, exactly as the in-process CLI shares its
/// solvers.
pub struct CompiledModelSet {
    models: Vec<(String, smp_smspn::SmSpn, StateSpace)>,
    resolved: Vec<ResolvedSpec>,
}

impl std::fmt::Debug for CompiledModelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledModelSet")
            .field("models", &self.models.len())
            .field("specs", &self.resolved.len())
            .finish()
    }
}

impl CompiledModelSet {
    /// Parses and explores every distinct model among `specs`, in order.
    /// Returns an error naming the first spec that fails to compile.
    pub fn compile(specs: &[TransformSpec]) -> Result<CompiledModelSet, String> {
        let mut models: Vec<(String, smp_smspn::SmSpn, StateSpace)> = Vec::new();
        let mut resolved = Vec::with_capacity(specs.len());
        for spec in specs {
            resolved.push(Self::resolve(spec, &mut models)?);
        }
        Ok(CompiledModelSet { models, resolved })
    }

    fn resolve(
        spec: &TransformSpec,
        models: &mut Vec<(String, smp_smspn::SmSpn, StateSpace)>,
    ) -> Result<ResolvedSpec, String> {
        match spec {
            TransformSpec::Analytic(dist) => Ok(ResolvedSpec {
                model: None,
                targets: None,
                transient: false,
                dist: Some(dist.to_dist()?),
            }),
            TransformSpec::Passage { model, targets }
            | TransformSpec::Transient { model, targets } => {
                let fingerprint = model.fingerprint();
                let index = match models.iter().position(|(fp, _, _)| *fp == fingerprint) {
                    Some(index) => index,
                    None => {
                        let source = model.source();
                        let net = smp_dnamaca::parse_model(&source)
                            .map_err(|e| format!("model parse error: {e}"))?;
                        let space = StateSpace::explore(&net)
                            .map_err(|e| format!("state-space exploration failed: {e}"))?;
                        models.push((fingerprint, net, space));
                        models.len() - 1
                    }
                };
                // Resolving the predicate here both validates it (a bad spec
                // fails at compile time, not at the first s-point) and does
                // the full state-space scan exactly once.
                let (_, net, space) = &models[index];
                let target_states = targets.resolve(net, space).map_err(|e| e.to_string())?;
                Ok(ResolvedSpec {
                    model: Some(index),
                    targets: Some(target_states),
                    transient: matches!(spec, TransformSpec::Transient { .. }),
                    dist: None,
                })
            }
        }
    }

    /// Number of distinct models compiled.
    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    /// Total reachable markings across the compiled models (engines compile a
    /// single model, so this is simply its state-space size — reported in
    /// [`smp_core::query::Provenance::states`]).
    pub fn num_states(&self) -> usize {
        self.models
            .iter()
            .map(|(_, _, space)| space.num_states())
            .sum()
    }

    /// Builds the evaluator of the `index`-th compiled spec, borrowing the
    /// model set.
    pub fn evaluator(&self, index: usize) -> Result<CompiledEvaluator<'_>, String> {
        let resolved = self
            .resolved
            .get(index)
            .ok_or_else(|| format!("no compiled spec at index {index}"))?;
        let kind = match (&resolved.dist, resolved.model) {
            (Some(dist), _) => EvaluatorKind::Analytic(dist.clone()),
            (None, Some(model)) => {
                let (_, _net, space) = &self.models[model];
                let targets = resolved
                    .targets
                    .as_deref()
                    .ok_or("model spec carries no resolved targets")?;
                let smp = space.smp();
                let initial = space.initial_state();
                if resolved.transient {
                    EvaluatorKind::Transient(
                        TransientSolver::new(smp, initial, targets).map_err(|e| e.to_string())?,
                    )
                } else {
                    EvaluatorKind::Passage(
                        PassageTimeSolver::new(smp, &[initial], targets)
                            .map_err(|e| e.to_string())?,
                    )
                }
            }
            (None, None) => {
                return Err("resolved spec has neither model nor distribution".to_string())
            }
        };
        Ok(CompiledEvaluator { kind })
    }

    /// Builds all evaluators, in spec order.
    pub fn evaluators(&self) -> Result<Vec<CompiledEvaluator<'_>>, String> {
        (0..self.resolved.len())
            .map(|i| self.evaluator(i))
            .collect()
    }
}

/// A bounded, thread-safe LRU cache of [`CompiledModelSet`]s keyed by the
/// canonical wire encoding of their spec lists.
///
/// Compiling a model set parses the model and explores its state space — by
/// far the most expensive part of answering a repeated query. The query
/// server keeps one of these caches so that a second request against the same
/// (model, target-set) list reuses the explored state space instead of
/// re-exploring it. Keys are the joined [`TransformSpec::encode`] lines, so
/// two spec lists collide only when they would compile to identical sets; a
/// spec that cannot be encoded (impossible for specs built from parsed
/// models) falls back to an uncached compile.
///
/// Eviction is least-recently-used with a monotonic clock, so the entry set
/// after any sequence of operations is deterministic.
pub type CompiledSetCache = LruMemo<String, std::sync::Arc<CompiledModelSet>>;

impl CompiledSetCache {
    /// Returns the cached set for `specs`, compiling (and caching) it on a
    /// miss. The boolean is `true` when the set was served from the cache
    /// without compiling. The compile itself runs outside the cache lock, so
    /// concurrent misses on different keys do not serialize; two concurrent
    /// misses on the *same* key may both compile, but only one result is
    /// retained.
    pub fn get_or_compile(
        &self,
        specs: &[TransformSpec],
    ) -> Result<(std::sync::Arc<CompiledModelSet>, bool), String> {
        let compile = || CompiledModelSet::compile(specs).map(std::sync::Arc::new);
        let mut key = String::new();
        for spec in specs {
            match spec.encode() {
                Ok(line) => {
                    key.push_str(&line);
                    key.push('\n');
                }
                // Unkeyable spec: compile without touching the cache.
                Err(_) => return Ok((compile()?, false)),
            }
        }
        self.get_or_insert_with(key, compile)
    }
}

enum EvaluatorKind<'a> {
    Passage(PassageTimeSolver<'a>),
    Transient(TransientSolver<'a>),
    Analytic(Dist),
}

/// A ready-to-run evaluator reconstructed from a [`TransformSpec`], borrowing
/// its [`CompiledModelSet`].
pub struct CompiledEvaluator<'a> {
    kind: EvaluatorKind<'a>,
}

impl std::fmt::Debug for CompiledEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            EvaluatorKind::Passage(_) => "passage",
            EvaluatorKind::Transient(_) => "transient",
            EvaluatorKind::Analytic(_) => "analytic",
        };
        f.debug_struct("CompiledEvaluator")
            .field("kind", &kind)
            .finish()
    }
}

impl CompiledEvaluator<'_> {
    /// Aggregate symbolic/numeric-split counters of the underlying solver
    /// (matrix rebuilds avoided, pooled LST evaluations) — zero for analytic
    /// distribution evaluators, which have no kernel matrix at all.
    pub fn hotpath_stats(&self) -> smp_core::HotPathStats {
        match &self.kind {
            EvaluatorKind::Passage(solver) => solver.hotpath_stats(),
            EvaluatorKind::Transient(solver) => solver.hotpath_stats(),
            EvaluatorKind::Analytic(_) => smp_core::HotPathStats::default(),
        }
    }

    /// Evaluates the transform at one `s`-point: the solver's converged
    /// value, or its error as text.
    pub fn eval(&self, s: Complex64) -> Result<Complex64, String> {
        match &self.kind {
            EvaluatorKind::Passage(solver) => solver
                .transform_at(s)
                .map(|p| p.value)
                .map_err(|e| e.to_string()),
            EvaluatorKind::Transient(solver) => solver.transform_at(s).map_err(|e| e.to_string()),
            EvaluatorKind::Analytic(dist) => Ok(dist.lst(s)),
        }
    }

    /// Evaluates the transform at every point of a chunk: one result per
    /// point, in order, each bit for bit what [`CompiledEvaluator::eval`]
    /// returns for that point — so one failing point fails alone.  A passage
    /// or transient transform gets the chunk whole and advances its points in
    /// lockstep blocks (`PassageTimeSolver::transform_many`,
    /// `TransientSolver::transform_many`); a closed-form distribution has no
    /// cross-point work to share and maps `eval`.
    pub fn eval_many(&self, points: &[Complex64]) -> Vec<Result<Complex64, String>> {
        let text = |e: smp_core::SmpError| e.to_string();
        match &self.kind {
            EvaluatorKind::Passage(solver) => solver
                .transform_many(points)
                .into_iter()
                .map(|point| point.map(|point| point.value).map_err(text))
                .collect(),
            EvaluatorKind::Transient(solver) => solver
                .transform_many(points)
                .into_iter()
                .map(|value| value.map_err(text))
                .collect(),
            EvaluatorKind::Analytic(_) => points.iter().map(|&s| self.eval(s)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voting() -> ModelSpec {
        ModelSpec::Voting {
            voters: 3,
            polling: 1,
            central: 1,
        }
    }

    fn pred(text: &str) -> TargetSpec {
        TargetSpec::parse(text).unwrap()
    }

    #[test]
    fn spec_encoding_round_trips() {
        let specs = vec![
            TransformSpec::passage(voting(), pred("p2>=2")),
            TransformSpec::transient(ModelSpec::Dnamaca("\\place{p}{1}".into()), pred("p==0")),
            TransformSpec::Analytic(DistSpec::Erlang {
                rate: 2.0,
                phases: 3,
            }),
            TransformSpec::Analytic(DistSpec::Weibull {
                shape: 1.5,
                scale: 0.5,
            }),
        ];
        for spec in specs {
            let line = spec.encode().unwrap();
            assert!(!line.contains('\n'), "one line per spec: {line:?}");
            assert_eq!(TransformSpec::decode(&line).unwrap(), spec, "{line}");
        }
    }

    #[test]
    fn awkward_dnamaca_source_survives_the_wire() {
        let source = "\\place{p}{1}\n% naïve comment with spaces + 100%\n".to_string();
        let spec = TransformSpec::transient(ModelSpec::Dnamaca(source.clone()), pred("p>=1"));
        let decoded = TransformSpec::decode(&spec.encode().unwrap()).unwrap();
        assert_eq!(decoded.model().unwrap().source(), source);
    }

    #[test]
    fn non_finite_distribution_parameters_are_rejected() {
        let spec = TransformSpec::Analytic(DistSpec::Exponential { rate: f64::NAN });
        assert!(matches!(spec.encode(), Err(WireError::NonFinite { .. })));
        let inf = TransformSpec::Analytic(DistSpec::Uniform {
            lower: 0.0,
            upper: f64::INFINITY,
        });
        assert!(matches!(inf.encode(), Err(WireError::NonFinite { .. })));
    }

    #[test]
    fn transform_keys_fold_the_model_fingerprint_in() {
        let a = TransformSpec::passage(voting(), pred("p2>=2")).transform_key();
        let b = TransformSpec::passage(
            ModelSpec::Voting {
                voters: 4,
                polling: 1,
                central: 1,
            },
            pred("p2>=2"),
        )
        .transform_key();
        assert_ne!(a, b, "different models must never share cache shards");
        let fingerprint = voting().fingerprint();
        assert_eq!(a, format!("m{fingerprint}:passage:p2>=2"));
        // Transient and passage transforms are distinct even on one model.
        let t = TransformSpec::transient(voting(), pred("p2>=2")).transform_key();
        assert_ne!(t, a);
    }

    #[test]
    fn fingerprint_matches_the_cli_convention() {
        // Deterministic, 16 hex digits, sensitive to single-character edits.
        let a = model_fingerprint("\\place{p}{1}");
        assert_eq!(a.len(), 16);
        assert_eq!(a, model_fingerprint("\\place{p}{1}"));
        assert_ne!(a, model_fingerprint("\\place{p}{2}"));
    }

    #[test]
    fn compile_shares_state_spaces_between_specs() {
        let specs = vec![
            TransformSpec::passage(voting(), pred("p2>=2")),
            TransformSpec::passage(voting(), pred("p2>=3")),
            TransformSpec::transient(voting(), pred("p2>=2")),
            TransformSpec::Analytic(DistSpec::Exponential { rate: 1.0 }),
        ];
        let compiled = CompiledModelSet::compile(&specs).unwrap();
        assert_eq!(compiled.num_models(), 1, "one exploration for one model");
        let evaluators = compiled.evaluators().unwrap();
        assert_eq!(evaluators.len(), 4);
        // The analytic evaluator reproduces the LST exactly.
        let s = Complex64::new(0.7, 1.3);
        let expect = Dist::exponential(1.0).lst(s);
        assert_eq!(evaluators[3].eval(s).unwrap(), expect);
    }

    #[test]
    fn compiled_passage_matches_a_hand_built_solver() {
        let spec = TransformSpec::passage(voting(), pred("p2>=2"));
        let compiled = CompiledModelSet::compile(std::slice::from_ref(&spec)).unwrap();
        let evaluator = compiled.evaluator(0).unwrap();

        // Reference: the CLI's construction path.
        let source = voting().source();
        let net = smp_dnamaca::parse_model(&source).unwrap();
        let space = StateSpace::explore(&net).unwrap();
        let targets = pred("p2>=2").resolve(&net, &space).unwrap();
        let solver =
            PassageTimeSolver::new(space.smp(), &[space.initial_state()], &targets).unwrap();

        for k in 1..=4 {
            let s = Complex64::new(0.5 * k as f64, 0.3 * k as f64);
            let expect = solver.transform_at(s).unwrap().value;
            assert_eq!(evaluator.eval(s).unwrap(), expect, "bitwise at {s}");
        }
    }

    /// `eval_many` is `map(eval)`, bit for bit, for every evaluator kind:
    /// passage transforms (whose chunk runs as lockstep blocks, here of every
    /// shape up to two blocks and a lone remainder), transient transforms and
    /// closed-form LSTs.
    #[test]
    fn eval_many_is_map_eval_bitwise() {
        let specs = [
            TransformSpec::passage(voting(), pred("p2>=2")),
            TransformSpec::transient(voting(), pred("p2>=2")),
            TransformSpec::Analytic(DistSpec::Erlang {
                rate: 2.0,
                phases: 3,
            }),
            TransformSpec::Analytic(DistSpec::Uniform {
                lower: 0.5,
                upper: 2.0,
            }),
        ];
        let compiled = CompiledModelSet::compile(&specs).unwrap();
        let points: Vec<Complex64> = (1..=9)
            .map(|k| Complex64::new(0.1 * k as f64, 1.7 * k as f64 - 6.0))
            .collect();
        for (spec, evaluator) in specs.iter().zip(compiled.evaluators().unwrap()) {
            for shape in [0, 1, 2, 3, 4, 5, 8, 9] {
                let chunk = &points[..shape];
                let many = evaluator.eval_many(chunk);
                assert_eq!(many.len(), shape);
                for (&s, got) in chunk.iter().zip(many) {
                    let (got, want) = (got.unwrap(), evaluator.eval(s).unwrap());
                    assert_eq!(
                        (got.re.to_bits(), got.im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits()),
                        "{spec:?} shape {shape} s={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_specs_fail_at_compile_time() {
        let missing_place = TransformSpec::passage(voting(), pred("nosuch>=1"));
        let err = CompiledModelSet::compile(std::slice::from_ref(&missing_place)).unwrap_err();
        assert!(err.contains("nosuch"), "{err}");

        let empty = TransformSpec::passage(voting(), pred("p2>=99"));
        let err = CompiledModelSet::compile(std::slice::from_ref(&empty)).unwrap_err();
        assert!(err.contains("no reachable marking"), "{err}");

        let unparsable =
            TransformSpec::passage(ModelSpec::Dnamaca("\\bogus{".into()), pred("p>=1"));
        let err = CompiledModelSet::compile(std::slice::from_ref(&unparsable)).unwrap_err();
        assert!(err.contains("parse"), "{err}");

        // Distribution parameters that decode but make no distribution.
        for dist in [
            DistSpec::Erlang {
                rate: 2.0,
                phases: 0,
            },
            DistSpec::Exponential { rate: -1.0 },
            DistSpec::Uniform {
                lower: 2.0,
                upper: 1.0,
            },
            DistSpec::Weibull {
                shape: 1.5,
                scale: f64::INFINITY,
            },
        ] {
            let spec = TransformSpec::Analytic(dist);
            let compiled = CompiledModelSet::compile(std::slice::from_ref(&spec));
            assert!(compiled.is_err(), "{spec:?}");
        }
    }

    #[test]
    fn compiled_set_cache_hits_on_identical_spec_lists() {
        let cache = CompiledSetCache::new(4);
        let specs = vec![
            TransformSpec::passage(voting(), pred("p2>=2")),
            TransformSpec::transient(voting(), pred("p2>=2")),
        ];
        let (first, hit) = cache.get_or_compile(&specs).unwrap();
        assert!(!hit, "cold lookup must compile");
        let (second, hit) = cache.get_or_compile(&specs).unwrap();
        assert!(hit, "identical spec list must be served from cache");
        assert!(
            std::sync::Arc::ptr_eq(&first, &second),
            "both holders share one compiled set"
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn compiled_set_cache_distinguishes_spec_lists_and_evicts_lru() {
        let cache = CompiledSetCache::new(2);
        let a = vec![TransformSpec::passage(voting(), pred("p2>=2"))];
        let b = vec![TransformSpec::passage(voting(), pred("p2>=3"))];
        let c = vec![TransformSpec::transient(voting(), pred("p2>=2"))];
        cache.get_or_compile(&a).unwrap();
        cache.get_or_compile(&b).unwrap();
        // Touch `a` so `b` is the least recently used, then overflow.
        let (_, hit) = cache.get_or_compile(&a).unwrap();
        assert!(hit);
        cache.get_or_compile(&c).unwrap();
        assert_eq!(cache.len(), 2, "capacity bound holds");
        let (_, hit) = cache.get_or_compile(&a).unwrap();
        assert!(hit, "recently-touched entry survived eviction");
        let (_, hit) = cache.get_or_compile(&b).unwrap();
        assert!(!hit, "least-recently-used entry was evicted");
    }

    #[test]
    fn compiled_set_cache_propagates_compile_errors_without_caching() {
        let cache = CompiledSetCache::new(2);
        let bad = vec![TransformSpec::passage(voting(), pred("nosuch>=1"))];
        assert!(cache.get_or_compile(&bad).is_err());
        assert!(cache.is_empty(), "failed compiles are not cached");
    }

    #[test]
    fn decode_rejects_future_versions_and_junk() {
        assert!(matches!(
            TransformSpec::decode("passage v=99 model=voting:1,1,1 targets=p%3e%3d1"),
            Err(WireError::Version { got: 99 })
        ));
        assert!(TransformSpec::decode("passage v=1 model=voting:1,1").is_err());
        assert!(TransformSpec::decode("frob v=1").is_err());
        assert!(TransformSpec::decode("").is_err());
        assert!(TransformSpec::decode("analytic v=1 dist=erlang:xx:3").is_err());
        // 700 KB of nested prefixes once recursed the decoder off its stack;
        // `cdf-of` is no tag at all now.
        let nested = "cdf-of ".repeat(100_000) + "analytic v=1 dist=exponential:3ff0000000000000";
        assert!(matches!(
            TransformSpec::decode(&nested),
            Err(WireError::Malformed { .. })
        ));
    }
}

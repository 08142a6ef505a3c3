//! Serializable transform specifications — *descriptions* of evaluators.
//!
//! A [`TransformSpec`] is the one way a measure names its transform, on every
//! backend: the paper's slave processors rebuild `U` and `U'` from the model
//! for each `s`-value they are handed, so the unit the master distributes is
//! "model plus target set".  A spec says which model (a built-in voting
//! configuration or raw extended-DNAmaca source), which target markings (a
//! token-count predicate), and which transform (the passage density or a
//! transient row).  A CDF is the passage density's spec too: its `/s` division
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
//! the life cycle of the paper's slave processors: the model is parsed and
//! explored once ([`ExploredModel`], kept in a [`ModelCache`] keyed by the
//! model's fingerprint), and every run resolves its specs against it into a
//! [`CompiledModelSet`] and builds the per-measure solvers borrowing that
//! shared state space ([`CompiledModelSet::evaluator`]).

use crate::cache::LruMemo;
use crate::wire::{self, append_str, malformed, Fields, Line, WireError};
use smp_core::{IterationOptions, PassageTimeSolver};
use smp_smspn::{SmSpn, StateSpace};
use std::fmt::Write as _;
use std::sync::Arc;

/// Wire-format version of the spec encoding (first field of every spec line).
pub(crate) const SPEC_VERSION: u32 = 1;

/// A 64-bit FNV-1a fingerprint of a model's source text, rendered as 16 hex
/// digits.  Folded into every transform key so that a checkpoint file reused
/// with a different (or since-edited) model misses the cache instead of
/// feeding it stale transform values.
pub(crate) fn model_fingerprint(source: &str) -> String {
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
        let mut out = String::new();
        self.append(&mut out);
        out
    }

    /// Appends the model's wire-format field (see [`ModelSpec::encode`]).
    pub(crate) fn append(&self, out: &mut String) {
        match self {
            ModelSpec::Voting {
                voters,
                polling,
                central,
            } => {
                let _ = write!(out, "voting:{voters},{polling},{central}");
            }
            ModelSpec::Dnamaca(source) => {
                out.push_str("dnamaca:");
                append_str(out, source);
            }
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
    fn resolve(&self, net: &SmSpn, space: &StateSpace) -> Result<Vec<usize>, TargetResolveError>;
}

impl ResolveTarget for TargetSpec {
    fn resolve(&self, net: &SmSpn, space: &StateSpace) -> Result<Vec<usize>, TargetResolveError> {
        let place =
            net.place_index(&self.place)
                .ok_or_else(|| TargetResolveError::UnknownPlace {
                    place: self.place.clone(),
                })?;
        let targets = space.states_where(|m| self.matches(m.get(place)));
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

    /// The model the spec is evaluated over.
    pub fn model(&self) -> &ModelSpec {
        match self {
            TransformSpec::Passage { model, .. } | TransformSpec::Transient { model, .. } => model,
        }
    }

    /// The canonical cache/checkpoint transform key of the spec, with the
    /// model fingerprint folded in: `m<fingerprint>:passage:<pred>` or
    /// `m<fingerprint>:transient:<pred>`.
    pub fn transform_key(&self) -> String {
        match self {
            TransformSpec::Passage { model, targets } => {
                Self::passage_key(&model.fingerprint(), targets)
            }
            TransformSpec::Transient { model, targets } => {
                Self::transient_key(&model.fingerprint(), targets)
            }
        }
    }

    /// The canonical passage transform key for a model fingerprint and target
    /// predicate — the one format every backend's cache and checkpoint
    /// records are keyed by, so that a checkpoint warms across backends.
    pub(crate) fn passage_key(fingerprint: &str, targets: &TargetSpec) -> String {
        format!("m{fingerprint}:passage:{targets}")
    }

    /// The canonical transient transform key (see
    /// [`TransformSpec::passage_key`]).
    pub(crate) fn transient_key(fingerprint: &str, targets: &TargetSpec) -> String {
        format!("m{fingerprint}:transient:{targets}")
    }

    /// Encodes the spec as one canonical line of the wire format.
    pub fn encode(&self) -> String {
        let (tag, model, targets) = match self {
            TransformSpec::Passage { model, targets } => ("passage", model, targets),
            TransformSpec::Transient { model, targets } => ("transient", model, targets),
        };
        let mut out = format!("{tag} v={SPEC_VERSION} model=");
        model.append(&mut out);
        out.push_str(" targets=");
        append_str(&mut out, &targets.to_string());
        out
    }

    /// Decodes one wire line back into a spec.
    pub fn decode(line: &str) -> Result<TransformSpec, WireError> {
        Line::new(line).all(|line| {
            let tag = line.token("spec tag")?;
            if !matches!(tag, "passage" | "transient") {
                return Err(malformed(format!("unknown spec tag '{tag}'")));
            }
            line.version(SPEC_VERSION)?;
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

/// A parsed model and its explored state space: the heavy state every
/// evaluator over the model borrows, built once per model.
pub struct ExploredModel {
    net: SmSpn,
    space: StateSpace,
}

impl std::fmt::Debug for ExploredModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploredModel")
            .field("states", &self.space.num_states())
            .finish()
    }
}

impl ExploredModel {
    /// Parses and explores `model`: the one place the pipeline explores a
    /// state space.  Either failure is the model's fault, whatever is asked
    /// of it ([`CompileError::Model`]).
    pub(crate) fn explore(model: &ModelSpec) -> Result<ExploredModel, CompileError> {
        let source = model.source();
        let net = smp_dnamaca::parse_model(&source)
            .map_err(|e| CompileError::Model(format!("model parse error: {e}")))?;
        let space = StateSpace::explore(&net)
            .map_err(|e| CompileError::Model(format!("state-space exploration failed: {e}")))?;
        Ok(ExploredModel { net, space })
    }

    /// The parsed net.
    pub(crate) fn net(&self) -> &SmSpn {
        &self.net
    }

    /// The explored state space.
    pub(crate) fn space(&self) -> &StateSpace {
        &self.space
    }

    /// The indices of the markings `targets` matches.
    pub(crate) fn resolve(&self, targets: &TargetSpec) -> Result<Vec<usize>, TargetResolveError> {
        targets.resolve(&self.net, &self.space)
    }
}

/// A bounded, thread-safe LRU cache of [`ExploredModel`]s keyed by
/// [`ModelSpec::fingerprint`] — the one place an explored model is kept.
///
/// Exploring the state space is by far the most expensive part of answering
/// a query that is not already in the result cache.  Every holder of a model
/// looks it up here: the in-process backend's runs, the TCP worker's jobs,
/// the slice fleet's master-side evaluations, the uniformization engine, and
/// the `--engine auto` probe.  A passage and a transient over one model are
/// one entry, so they cost one exploration; specs are resolved against the
/// cached model on every run.  A failed exploration is not kept.
///
/// Eviction is least-recently-used with a monotonic clock, so the entry set
/// after any sequence of operations is deterministic.
pub type ModelCache = LruMemo<String, Arc<ExploredModel>>;

impl ModelCache {
    /// The explored `model`, exploring (and keeping) it on a miss.  The
    /// boolean is `true` when it was served without exploring.  The
    /// exploration runs outside the cache lock (see [`LruMemo`]).
    pub fn explored(&self, model: &ModelSpec) -> Result<(Arc<ExploredModel>, bool), CompileError> {
        self.get_or_insert_with(model.fingerprint(), || {
            ExploredModel::explore(model).map(Arc::new)
        })
    }

    /// The explored `model` if the cache holds it, found without exploring,
    /// counting a lookup or restamping its recency (see [`LruMemo::peek`]).
    pub(crate) fn resident(&self, model: &ModelSpec) -> Option<Arc<ExploredModel>> {
        self.peek(&model.fingerprint())
    }
}

/// Everything of a spec that needs the model: which solver to build.
/// `targets` holds the *resolved* state indices — the predicate is matched
/// against the state space exactly once per compile.
struct ResolvedSpec {
    /// Index into [`CompiledModelSet::models`].
    model: usize,
    targets: Vec<usize>,
    transient: bool,
}

/// Why a spec list would not compile.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A model does not parse or build, or its state space cannot be
    /// explored: the model itself is at fault, whatever is asked of it.
    Model(String),
    /// A spec does not fit its model: its target names no place of the
    /// model, or no reachable marking matches it.
    Spec(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Model(message) | CompileError::Spec(message) => f.write_str(message),
        }
    }
}

impl From<CompileError> for String {
    fn from(e: CompileError) -> String {
        e.to_string()
    }
}

/// The specs of one run, resolved against their explored models.
///
/// Workers compile the measures' specs in two steps: this set holds the
/// heavy state (one shared [`ExploredModel`] per *distinct* model), then
/// [`CompiledModelSet::evaluator`] builds cheap per-measure solvers that
/// borrow it.  The two-step split is what lets several measures over one
/// model share a single state-space exploration.
pub struct CompiledModelSet {
    models: Vec<(String, Arc<ExploredModel>)>,
    /// How many of `models` the cache served without exploring.
    cache_hits: usize,
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
    pub fn compile(specs: &[TransformSpec]) -> Result<CompiledModelSet, CompileError> {
        Self::compile_cached(specs, &ModelCache::new(specs.len()))
    }

    /// Compiles `specs` against the models in `models`, looking each
    /// distinct model up once and exploring only the ones it lacks.
    pub(crate) fn compile_cached<'a>(
        specs: impl IntoIterator<Item = &'a TransformSpec>,
        models: &ModelCache,
    ) -> Result<CompiledModelSet, CompileError> {
        let mut set = CompiledModelSet {
            models: Vec::new(),
            cache_hits: 0,
            resolved: Vec::new(),
        };
        for spec in specs {
            let resolved = set.resolve(spec, models)?;
            set.resolved.push(resolved);
        }
        Ok(set)
    }

    fn resolve(
        &mut self,
        spec: &TransformSpec,
        cache: &ModelCache,
    ) -> Result<ResolvedSpec, CompileError> {
        let (TransformSpec::Passage { model, targets }
        | TransformSpec::Transient { model, targets }) = spec;
        let fingerprint = model.fingerprint();
        let index = match self.models.iter().position(|(fp, _)| *fp == fingerprint) {
            Some(index) => index,
            None => {
                let (explored, hit) = cache.explored(model)?;
                self.cache_hits += usize::from(hit);
                self.models.push((fingerprint, explored));
                self.models.len() - 1
            }
        };
        // Resolving the predicate here both validates it (a bad spec fails
        // at compile time, not at the first s-point) and does the full
        // state-space scan exactly once.
        let targets = self.models[index]
            .1
            .resolve(targets)
            .map_err(|e| CompileError::Spec(e.to_string()))?;
        Ok(ResolvedSpec {
            model: index,
            targets,
            transient: matches!(spec, TransformSpec::Transient { .. }),
        })
    }

    /// Number of distinct models compiled.
    pub(crate) fn num_models(&self) -> usize {
        self.models.len()
    }

    /// Distinct models the compile found in its [`ModelCache`].
    pub(crate) fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Distinct models the compile had to explore.
    pub(crate) fn cache_misses(&self) -> usize {
        self.models.len() - self.cache_hits
    }

    /// Total reachable markings across the compiled models (engines compile a
    /// single model, so this is simply its state-space size — reported in
    /// [`smp_core::query::Provenance::states`]).
    pub fn num_states(&self) -> usize {
        self.models
            .iter()
            .map(|(_, model)| model.space.num_states())
            .sum()
    }

    /// Builds the solver of the `index`-th compiled spec, borrowing the
    /// model set: a passage solver, or the transient build of the same
    /// solver for a transient spec.
    pub fn evaluator(&self, index: usize) -> Result<PassageTimeSolver<'_>, String> {
        let resolved = self
            .resolved
            .get(index)
            .ok_or_else(|| format!("no compiled spec at index {index}"))?;
        let space = &self.models[resolved.model].1.space;
        let build = if resolved.transient {
            PassageTimeSolver::transient
        } else {
            PassageTimeSolver::with_options
        };
        let sources = [space.initial_state()];
        build(
            space.smp(),
            &sources,
            &resolved.targets,
            IterationOptions::default(),
        )
        .map_err(|e| e.to_string())
    }

    /// Builds all evaluators, in spec order.
    pub(crate) fn evaluators(&self) -> Result<Vec<PassageTimeSolver<'_>>, String> {
        (0..self.resolved.len())
            .map(|i| self.evaluator(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_stage;
    use smp_distributions::Dist;
    use smp_numeric::Complex64;

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
            one_stage::passage("weibullLT(1.5, 0.5, s)"),
        ];
        for spec in specs {
            let line = spec.encode();
            assert!(!line.contains('\n'), "one line per spec: {line:?}");
            assert_eq!(TransformSpec::decode(&line).unwrap(), spec, "{line}");
        }
    }

    #[test]
    fn awkward_dnamaca_source_survives_the_wire() {
        let source = "\\place{p}{1}\n% naïve comment with spaces + 100%\n".to_string();
        let spec = TransformSpec::transient(ModelSpec::Dnamaca(source.clone()), pred("p>=1"));
        let decoded = TransformSpec::decode(&spec.encode()).unwrap();
        assert_eq!(decoded.model().source(), source);
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
            one_stage::passage("expLT(1.0, s)"),
        ];
        let compiled = CompiledModelSet::compile(&specs).unwrap();
        assert_eq!(
            compiled.num_models(),
            2,
            "one exploration per distinct model"
        );
        let evaluators = compiled.evaluators().unwrap();
        assert_eq!(evaluators.len(), 4);
        // The one-stage passage is its sojourn's LST.
        let s = Complex64::new(0.7, 1.3);
        let expect = Dist::exponential(1.0).lst(s);
        assert_eq!(evaluators[3].transform_at(s).unwrap().value, expect);
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
            assert_eq!(
                evaluator.transform_at(s).unwrap().value,
                expect,
                "bitwise at {s}"
            );
        }
    }

    /// `transform_many` is `map(transform_at)`, bit for bit, for both
    /// measures: passage transforms (whose chunk runs as lockstep blocks,
    /// here of every shape up to two blocks and a lone remainder) and
    /// transient transforms, over the voting model and one-stage nets.
    #[test]
    fn eval_many_is_map_eval_bitwise() {
        let specs = [
            TransformSpec::passage(voting(), pred("p2>=2")),
            TransformSpec::transient(voting(), pred("p2>=2")),
            one_stage::passage("erlangLT(2.0, 3, s)"),
            one_stage::passage("uniformLT(0.5, 2.0, s)"),
        ];
        let compiled = CompiledModelSet::compile(&specs).unwrap();
        let points: Vec<Complex64> = (1..=9)
            .map(|k| Complex64::new(0.1 * k as f64, 1.7 * k as f64 - 6.0))
            .collect();
        for (spec, evaluator) in specs.iter().zip(compiled.evaluators().unwrap()) {
            for shape in [0, 1, 2, 3, 4, 5, 8, 9] {
                let chunk = &points[..shape];
                let many = evaluator.transform_many(chunk);
                assert_eq!(many.len(), shape);
                for (&s, got) in chunk.iter().zip(many) {
                    let (got, want) =
                        (got.unwrap().value, evaluator.transform_at(s).unwrap().value);
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
        assert!(err.to_string().contains("nosuch"), "{err}");

        let empty = TransformSpec::passage(voting(), pred("p2>=99"));
        let err = CompiledModelSet::compile(std::slice::from_ref(&empty)).unwrap_err();
        assert!(err.to_string().contains("no reachable marking"), "{err}");

        let unparsable =
            TransformSpec::passage(ModelSpec::Dnamaca("\\bogus{".into()), pred("p>=1"));
        let err = CompiledModelSet::compile(std::slice::from_ref(&unparsable)).unwrap_err();
        assert!(
            matches!(&err, CompileError::Model(m) if m.contains("parse")),
            "{err}"
        );

        // A model that parses but fails to explore is the model's fault too.
        let divides_by_zero = ModelSpec::Dnamaca(
            "\\place{p}{0} \\transition{t}{ \\weight{1 / p} \\action{ next->p = 1; } }".into(),
        );
        let spec = TransformSpec::passage(divides_by_zero, pred("p>=1"));
        let err = CompiledModelSet::compile(std::slice::from_ref(&spec)).unwrap_err();
        assert!(
            matches!(&err, CompileError::Model(m) if m.contains("division by zero")),
            "{err}"
        );

        // A sojourn whose parameters make no distribution.
        for lst in [
            "erlangLT(2.0, 0, s)",
            "expLT(-1.0, s)",
            "uniformLT(2.0, 1.0, s)",
            "weibullLT(1.5, 1 / b, s)",
        ] {
            let spec = one_stage::passage(lst);
            let err = CompiledModelSet::compile(std::slice::from_ref(&spec)).unwrap_err();
            assert!(matches!(err, CompileError::Model(_)), "{lst}: {err}");
        }
    }

    /// A passage and a transient over one model are one cache entry: the
    /// first compile explores it, a later compile of other specs over the
    /// same model resolves them against the kept model.
    #[test]
    fn model_cache_explores_each_model_once() {
        let cache = ModelCache::new(4);
        let specs = [
            TransformSpec::passage(voting(), pred("p2>=2")),
            TransformSpec::transient(voting(), pred("p2>=2")),
        ];
        let first = CompiledModelSet::compile_cached(&specs, &cache).unwrap();
        assert_eq!((first.cache_hits(), first.cache_misses()), (0, 1));
        let other = [TransformSpec::transient(voting(), pred("p2>=3"))];
        let second = CompiledModelSet::compile_cached(&other, &cache).unwrap();
        assert_eq!((second.cache_hits(), second.cache_misses()), (1, 0));
        assert!(
            Arc::ptr_eq(&first.models[0].1, &second.models[0].1),
            "both sets share one explored model"
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn model_cache_keys_by_fingerprint_and_evicts_lru() {
        let cache = ModelCache::new(2);
        let model = |voters| ModelSpec::Voting {
            voters,
            polling: 1,
            central: 1,
        };
        let hit = |voters| cache.explored(&model(voters)).unwrap().1;
        assert!(!hit(2));
        assert!(!hit(3));
        // Touch 2 so 3 is the least recently used, then overflow.
        assert!(hit(2));
        assert!(!hit(4));
        assert_eq!(cache.len(), 2, "capacity bound holds");
        assert!(hit(2), "recently-touched entry survived eviction");
        assert!(!hit(3), "least-recently-used entry was evicted");
    }

    #[test]
    fn model_cache_keeps_no_failed_exploration() {
        let cache = ModelCache::new(2);
        let hostile = ModelSpec::Dnamaca(
            "\\place{p}{0} \\transition{t}{ \\weight{1 / p} \\action{ next->p = 1; } }".into(),
        );
        let spec = [TransformSpec::passage(hostile, pred("p>=1"))];
        let err = CompiledModelSet::compile_cached(&spec, &cache).unwrap_err();
        assert!(matches!(err, CompileError::Model(_)), "{err}");
        assert!(cache.is_empty(), "a failed exploration is not kept");
        // A spec that does not fit its model fails after a good exploration,
        // which is kept for the next spec.
        let bad = [TransformSpec::passage(voting(), pred("nosuch>=1"))];
        let err = CompiledModelSet::compile_cached(&bad, &cache).unwrap_err();
        assert!(matches!(err, CompileError::Spec(_)), "{err}");
        assert_eq!(cache.len(), 1);
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

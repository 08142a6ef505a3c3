//! The cross-engine conformance matrix: every (model × measure × engine)
//! cell of the `tests/corpus/` library is solved and compared pairwise.
//!
//! * `analytic` vs `distributed` — bitwise identical across two deployments
//!   that really differ: the analytic engine is the pipeline over in-process
//!   threads, each taking whole `s`-points, while the `distributed` column
//!   row-shards every passage point over two loopback slice workers that
//!   exchange boundary rows each round;
//! * `analytic` vs `uniformization` — agreement within the sum of the two
//!   engines' reported error bounds plus a small relative slack for the
//!   Laplace-inversion side (whose Euler error is not surfaced as a bound);
//! * `analytic` vs `simulation` — agreement within the simulation's reported
//!   95% confidence bound plus a relative tolerance; density cells are
//!   advisory only (kernel estimates carry smoothing bias).
//!
//! Skipped cells are a *reported* outcome, not an omission: the only allowed
//! skip is the uniformization engine refusing a model with a non-exponential
//! holding time, and the refusal message must say so.  The run writes every
//! cell's worst deviation to `target/conformance_deltas.tsv`, which CI
//! uploads as an artifact.

mod corpus;

use corpus::{corpus, measures, CorpusModel};
use smp_suite::core::query::{Engine, EngineError, MeasureKind, MeasureReport};
use smp_suite::laplace::InversionMethod;
use smp_suite::numeric::stats::linspace;
use smp_suite::pipeline::{
    AnalyticEngine, DistributedEngine, PipelineOptions, SimulationEngine, SimulationOptions,
    UniformizationEngine,
};
use std::fmt::Write as _;

const ENGINE_NAMES: [&str; 4] = ["analytic", "distributed", "simulation", "uniformization"];

fn build_engine(name: &str, model: &CorpusModel) -> Box<dyn Engine> {
    let spec = model.spec.clone();
    match name {
        "analytic" => Box::new(AnalyticEngine::new(spec, InversionMethod::euler())),
        "distributed" => Box::new(DistributedEngine::sharded(
            spec,
            InversionMethod::euler(),
            PipelineOptions::with_workers(2),
            2,
        )),
        "simulation" => Box::new(SimulationEngine::new(
            spec,
            SimulationOptions {
                replications: 3000,
                threads: 2,
                ..Default::default()
            },
        )),
        "uniformization" => Box::new(UniformizationEngine::new(spec)),
        other => panic!("unknown engine {other}"),
    }
}

/// One matrix cell outcome, flattened into the deltas artifact.
struct Cell {
    model: &'static str,
    engine: &'static str,
    measure: String,
    /// `None` = solved; `Some(reason)` = reported skip.
    skipped: Option<String>,
}

/// One pairwise comparison row for the artifact.
struct DeltaRow {
    model: &'static str,
    pair: String,
    measure: String,
    max_delta: f64,
    allowed: f64,
    advisory: bool,
}

/// Worst absolute deviation between two reports and the allowance at that
/// point: `bound + slack · max(1, |a|, |b|)`.
fn compare(a: &MeasureReport, b: &MeasureReport, bound: f64, slack: f64) -> (f64, f64, bool) {
    assert_eq!(a.name, b.name, "batch order must match");
    assert_eq!(a.values.len(), b.values.len(), "{}", a.name);
    let mut worst = (0.0f64, bound, true);
    for (&x, &y) in a.values.iter().zip(&b.values) {
        let delta = (x - y).abs();
        let allowed = bound + slack * x.abs().max(y.abs()).max(1.0);
        if delta > worst.0 {
            worst = (delta, allowed, delta <= allowed);
        }
    }
    worst
}

#[test]
fn conformance_matrix_covers_every_cell() {
    let models = corpus();
    assert!(models.len() >= 3, "the corpus must span at least 3 models");

    let mut cells: Vec<Cell> = Vec::new();
    let mut deltas: Vec<DeltaRow> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for model in &models {
        let ts = linspace(model.t_start, model.t_stop, 6);
        let requests = measures(model.target, &ts);
        assert!(
            requests
                .iter()
                .map(|r| r.kind.name())
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                >= 4,
            "the battery must span at least 4 measure kinds"
        );

        // Solve the whole battery on every engine; record solved/skipped per
        // cell.
        let mut solved: Vec<(&'static str, Vec<MeasureReport>)> = Vec::new();
        for engine_name in ENGINE_NAMES {
            let engine = build_engine(engine_name, model);
            match engine.solve(&requests) {
                Ok(reports) => {
                    assert_eq!(reports.len(), requests.len());
                    for request in &requests {
                        cells.push(Cell {
                            model: model.name,
                            engine: engine_name,
                            measure: request.name(),
                            skipped: None,
                        });
                    }
                    solved.push((engine_name, reports));
                }
                // The ONLY legitimate skip: uniformization refusing a model
                // with a structurally non-exponential holding time.
                Err(EngineError::Unsupported(reason))
                    if engine_name == "uniformization" && !model.all_exponential =>
                {
                    assert!(
                        reason.contains("not exponential"),
                        "the refusal must name the precondition: {reason}"
                    );
                    for request in &requests {
                        cells.push(Cell {
                            model: model.name,
                            engine: engine_name,
                            measure: request.name(),
                            skipped: Some(reason.clone()),
                        });
                    }
                }
                Err(e) => panic!("{} on {}: {e:?}", engine_name, model.name),
            }
        }

        // The uniformization engine must accept every all-exponential model.
        let uniform = solved.iter().find(|(name, _)| *name == "uniformization");
        assert_eq!(
            uniform.is_some(),
            model.all_exponential,
            "uniformization availability on {}",
            model.name
        );

        let analytic = &solved
            .iter()
            .find(|(name, _)| *name == "analytic")
            .expect("analytic always solves")
            .1;
        let distributed = &solved
            .iter()
            .find(|(name, _)| *name == "distributed")
            .expect("distributed always solves")
            .1;
        let simulation = &solved
            .iter()
            .find(|(name, _)| *name == "simulation")
            .expect("simulation always solves")
            .1;

        // analytic vs distributed: bitwise.
        for (a, d) in analytic.iter().zip(distributed.iter()) {
            let (delta, _, _) = compare(a, d, 0.0, 0.0);
            deltas.push(DeltaRow {
                model: model.name,
                pair: "analytic~distributed".into(),
                measure: a.name.clone(),
                max_delta: delta,
                allowed: 0.0,
                advisory: false,
            });
            if a.values != d.values {
                failures.push(format!(
                    "{}: analytic vs distributed differ bitwise on {} (max |Δ| {delta:e})",
                    model.name, a.name
                ));
            }
        }

        // analytic vs uniformization: within the summed reported bounds.
        // This is the acceptance gate for the uniformization backend — the
        // transient and cdf cells especially must land inside the truncation
        // bound it reports (the slack covers the analytic side's unreported
        // Euler inversion error and, for quantiles, grid resolution).
        if let Some((_, uniform)) = uniform {
            for (a, u) in analytic.iter().zip(uniform.iter()) {
                let bound = a.provenance.error_bound.unwrap_or(0.0)
                    + u.provenance.error_bound.unwrap_or(0.0);
                let slack = match a.kind {
                    MeasureKind::Quantile { .. } => 2e-2,
                    _ => 1e-4,
                };
                let (delta, allowed, ok) = compare(a, u, bound, slack);
                deltas.push(DeltaRow {
                    model: model.name,
                    pair: "analytic~uniformization".into(),
                    measure: a.name.clone(),
                    max_delta: delta,
                    allowed,
                    advisory: false,
                });
                if !ok {
                    failures.push(format!(
                        "{}: analytic vs uniformization disagree on {} \
                         (max |Δ| {delta:e} > allowed {allowed:e})",
                        model.name, a.name
                    ));
                }
            }
        }

        // analytic vs simulation: within the simulation's confidence bound
        // plus a relative tolerance; density is advisory (kernel bias).
        for (a, s) in analytic.iter().zip(simulation.iter()) {
            let bound = s.provenance.error_bound.unwrap_or(0.0);
            let (slack, advisory) = match a.kind {
                MeasureKind::Density => (5e-2, true),
                MeasureKind::Quantile { .. } => (1e-1, false),
                MeasureKind::Moment { .. } => (1e-1, false),
                _ => (5e-2, false),
            };
            let (delta, allowed, ok) = compare(a, s, bound, slack);
            deltas.push(DeltaRow {
                model: model.name,
                pair: "analytic~simulation".into(),
                measure: a.name.clone(),
                max_delta: delta,
                allowed,
                advisory,
            });
            if !ok && !advisory {
                failures.push(format!(
                    "{}: analytic vs simulation disagree on {} \
                     (max |Δ| {delta:e} > allowed {allowed:e})",
                    model.name, a.name
                ));
            }
        }
    }

    // Coverage bookkeeping: every cell of the full matrix is accounted for,
    // and every skip is reported with a reason.
    let kinds_per_model = measures("p>=1", &[1.0, 2.0]).len();
    let expected_cells = models.len() * ENGINE_NAMES.len() * kinds_per_model;
    assert_eq!(
        cells.len(),
        expected_cells,
        "every (model × measure × engine) cell must be recorded"
    );
    let skipped: Vec<&Cell> = cells.iter().filter(|c| c.skipped.is_some()).collect();
    let expected_skips = models.iter().filter(|m| !m.all_exponential).count() * kinds_per_model;
    assert_eq!(
        skipped.len(),
        expected_skips,
        "only uniformization-on-non-exponential cells may be skipped"
    );
    for cell in &skipped {
        assert_eq!(
            cell.engine, "uniformization",
            "{}: {}",
            cell.model, cell.measure
        );
    }

    // The per-cell agreement artifact CI uploads.
    let mut tsv = String::from("model\tpair\tmeasure\tmax_delta\tallowed\tstatus\n");
    for row in &deltas {
        let status = if row.advisory {
            "advisory"
        } else if row.max_delta <= row.allowed {
            "ok"
        } else {
            "FAIL"
        };
        let _ = writeln!(
            tsv,
            "{}\t{}\t{}\t{:e}\t{:e}\t{status}",
            row.model, row.pair, row.measure, row.max_delta, row.allowed
        );
    }
    for cell in &skipped {
        let _ = writeln!(
            tsv,
            "{}\tuniformization\t{}\tNaN\tNaN\tskipped: {}",
            cell.model,
            cell.measure,
            cell.skipped.as_deref().unwrap_or("")
        );
    }
    let target_dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let artifact = std::path::Path::new(&target_dir).join("conformance_deltas.tsv");
    std::fs::write(&artifact, &tsv).expect("write the deltas artifact");

    assert!(
        failures.is_empty(),
        "conformance failures (full deltas in {}):\n  {}",
        artifact.display(),
        failures.join("\n  ")
    );
}

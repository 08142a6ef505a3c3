//! High-level, single-process analysis drivers.
//!
//! [`PassageTimeAnalysis`] and [`TransientAnalysis`] wire together the pieces that
//! the rest of the crate exposes individually: they plan the `s`-points demanded by
//! the chosen numerical inversion algorithm, evaluate the passage-time / transient
//! transform at each of them with the iterative algorithm, and invert the results
//! into densities, CDFs, quantiles and transient curves.
//!
//! Everything here runs sequentially in the calling thread.  The distributed
//! master–worker version of the same computation — with a shared work queue,
//! checkpointing and scalability instrumentation — lives in the `smp-pipeline`
//! crate; the two produce identical numbers because they share this crate's
//! one transform solver, [`PassageTimeSolver`] (a transient is its
//! [`PassageTimeSolver::transient`] build).

use crate::error::SmpError;
use crate::passage::{IterationOptions, PassageTimeSolver};
use crate::smp::SemiMarkovProcess;
use crate::steady::steady_state_probability;
use smp_laplace::{CdfCurve, InversionMethod, SPointPlan, TransformValues};
use smp_numeric::stats::trapezoid;
use smp_numeric::Complex64;

/// A sampled passage-time (or transient) curve on a grid of `t`-points.
#[derive(Debug, Clone)]
pub struct Curve {
    t_points: Vec<f64>,
    values: Vec<f64>,
}

impl Curve {
    pub(crate) fn new(t_points: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(t_points.len(), values.len());
        Curve { t_points, values }
    }

    /// The time grid.
    pub fn t_points(&self) -> &[f64] {
        &self.t_points
    }

    /// The curve values on the grid.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(t, f(t))` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.t_points
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Trapezoidal integral of the curve over its grid — for a density curve that
    /// covers the support this is close to 1.
    pub fn integral(&self) -> f64 {
        trapezoid(&self.t_points, &self.values)
    }
}

/// End-to-end passage-time analysis for one (source set, target set) pair.
#[derive(Debug, Clone)]
pub struct PassageTimeAnalysis<'a> {
    solver: PassageTimeSolver<'a>,
}

impl<'a> PassageTimeAnalysis<'a> {
    /// Creates an analysis of the passage from `sources` into `targets`.
    pub fn new(
        smp: &'a SemiMarkovProcess,
        sources: &[usize],
        targets: &[usize],
    ) -> Result<Self, SmpError> {
        Ok(PassageTimeAnalysis {
            solver: PassageTimeSolver::new(smp, sources, targets)?,
        })
    }

    /// Creates an analysis with explicit iteration options.
    pub fn with_options(
        smp: &'a SemiMarkovProcess,
        sources: &[usize],
        targets: &[usize],
        options: IterationOptions,
    ) -> Result<Self, SmpError> {
        Ok(PassageTimeAnalysis {
            solver: PassageTimeSolver::with_options(smp, sources, targets, options)?,
        })
    }

    /// The underlying per-`s`-point solver.
    pub fn solver(&self) -> &PassageTimeSolver<'a> {
        &self.solver
    }

    /// The passage-time *density* `f(t)` on the given time grid.
    pub fn density(&self, method: InversionMethod, t_points: &[f64]) -> Result<Curve, SmpError> {
        let plan = SPointPlan::new(method, t_points);
        let values = compute_transform_values(&self.solver, &plan)?;
        Ok(Curve::new(t_points.to_vec(), plan.invert(&values)))
    }

    /// The passage-time *cumulative distribution* `F(t)` on the given time grid,
    /// obtained by inverting `L(s)/s` (Fig. 5 of the paper).
    pub fn cdf(&self, method: InversionMethod, t_points: &[f64]) -> Result<CdfCurve, SmpError> {
        let plan = SPointPlan::new(method, t_points);
        let values = compute_transform_values(&self.solver, &plan)?;
        let inverted = plan.invert_with(|s| values.get(s).expect("every planned point") / s);
        Ok(CdfCurve::from_samples(t_points.to_vec(), inverted))
    }

    /// The probability that the passage completes within `deadline` (a reliability
    /// quantile read off the CDF, e.g. the paper's
    /// "P(system 5 processes 175 voters in under 440 s) = 0.9858").
    pub fn completion_probability(
        &self,
        method: InversionMethod,
        deadline: f64,
        grid_points: usize,
    ) -> Result<f64, SmpError> {
        assert!(deadline > 0.0 && grid_points >= 2);
        let ts = smp_numeric::stats::linspace(deadline / grid_points as f64, deadline, grid_points);
        let curve = self.cdf(method, &ts)?;
        Ok(curve.probability_at(deadline))
    }

    /// Mean passage time obtained from the transform derivative at the origin,
    /// `E[T] = −L'(0)`, by central finite differences.  Cheap sanity check used by
    /// tests and the experiment harnesses (no inversion needed).
    pub fn mean_from_transform(&self, h: f64) -> Result<f64, SmpError> {
        assert!(h > 0.0);
        let plus = self.solver.transform_at(Complex64::real(h))?.value;
        let minus = self.solver.transform_at(Complex64::real(-h))?.value;
        Ok(-(plus.re - minus.re) / (2.0 * h))
    }
}

/// Evaluates a solver's transform at every point of a plan, returning the
/// filled value cache (this is the sequential analogue of the distributed
/// pipeline's work queue).  The plan is one chunk through one workspace: its
/// points advance in lockstep blocks, and the first failure in plan order is
/// the one reported.
fn compute_transform_values(
    solver: &PassageTimeSolver<'_>,
    plan: &SPointPlan,
) -> Result<TransformValues, SmpError> {
    let mut values = TransformValues::new();
    let points = plan.s_points();
    for (&s, point) in points.iter().zip(solver.transform_many(points)) {
        values.insert(s, point?.value);
    }
    Ok(values)
}

/// End-to-end transient-state-distribution analysis.
#[derive(Debug, Clone)]
pub struct TransientAnalysis<'a> {
    solver: PassageTimeSolver<'a>,
}

impl<'a> TransientAnalysis<'a> {
    /// Creates an analysis of `P(Z(t) ∈ targets | Z(0) = source)`.
    pub fn new(
        smp: &'a SemiMarkovProcess,
        source: usize,
        targets: &[usize],
    ) -> Result<Self, SmpError> {
        Ok(TransientAnalysis {
            solver: PassageTimeSolver::transient(
                smp,
                &[source],
                targets,
                IterationOptions::default(),
            )?,
        })
    }

    /// The underlying per-`s`-point transient solver.
    pub fn solver(&self) -> &PassageTimeSolver<'a> {
        &self.solver
    }

    /// The transient distribution `P(Z(t) ∈ targets)` on the given time grid.
    pub fn distribution(
        &self,
        method: InversionMethod,
        t_points: &[f64],
    ) -> Result<Curve, SmpError> {
        let plan = SPointPlan::new(method, t_points);
        let raw = plan.invert(&compute_transform_values(&self.solver, &plan)?);
        // Probabilities: clamp the inversion noise into [0, 1].
        let clamped = raw.into_iter().map(|p| p.clamp(0.0, 1.0)).collect();
        Ok(Curve::new(t_points.to_vec(), clamped))
    }

    /// The steady-state probability of the target set — the asymptote the transient
    /// curve approaches as `t → ∞` (the horizontal line of Fig. 7).
    pub fn steady_state_value(&self) -> Result<f64, SmpError> {
        steady_state_probability(self.solver.smp(), self.solver.targets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::SmpBuilder;
    use smp_distributions::Dist;
    use smp_numeric::stats::linspace;

    fn tandem_smp() -> SemiMarkovProcess {
        // 0 -> 1 -> 2 -> 3 -> 0 with a mix of distribution types.
        let mut b = SmpBuilder::new(4);
        b.add_transition(0, 1, 1.0, Dist::erlang(2.0, 2));
        b.add_transition(1, 2, 1.0, Dist::uniform(0.2, 1.0));
        b.add_transition(2, 3, 1.0, Dist::exponential(1.5));
        b.add_transition(3, 0, 1.0, Dist::deterministic(0.3));
        b.build().unwrap()
    }

    #[test]
    fn density_integrates_to_one() {
        let smp = tandem_smp();
        let analysis = PassageTimeAnalysis::new(&smp, &[0], &[3]).unwrap();
        let ts = linspace(0.05, 15.0, 300);
        let density = analysis.density(InversionMethod::euler(), &ts).unwrap();
        let mass = density.integral();
        assert!((mass - 1.0).abs() < 0.02, "total mass {mass}");
        assert!(density.values().iter().all(|&v| v > -1e-3));
        assert_eq!(density.iter().count(), 300);
    }

    #[test]
    fn density_matches_known_convolution() {
        // Passage 0 -> 2 across two exponential stages with equal rates is Erlang-2.
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::exponential(2.0));
        b.add_transition(1, 2, 1.0, Dist::exponential(2.0));
        b.add_transition(2, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let analysis = PassageTimeAnalysis::new(&smp, &[0], &[2]).unwrap();
        let ts = linspace(0.1, 6.0, 40);
        let density = analysis.density(InversionMethod::euler(), &ts).unwrap();
        for (t, v) in density.iter() {
            let expect = 4.0 * t * (-2.0 * t).exp();
            assert!((v - expect).abs() < 1e-5, "f({t}) = {v} vs {expect}");
        }
    }

    #[test]
    fn cdf_and_completion_probability() {
        let smp = tandem_smp();
        let analysis = PassageTimeAnalysis::new(&smp, &[0], &[3]).unwrap();
        let ts = linspace(0.1, 12.0, 120);
        let cdf = analysis.cdf(InversionMethod::euler(), &ts).unwrap();
        // Monotone, bounded, reaching essentially 1 by the end of the window.
        assert!(cdf.values().windows(2).all(|w| w[1] + 1e-12 >= w[0]));
        assert!(cdf.values().last().unwrap() > &0.99);
        let p = analysis
            .completion_probability(InversionMethod::euler(), 12.0, 48)
            .unwrap();
        assert!((p - cdf.probability_at(12.0)).abs() < 1e-3);
    }

    #[test]
    fn mean_from_transform_matches_sum_of_means() {
        let smp = tandem_smp();
        let analysis = PassageTimeAnalysis::new(&smp, &[0], &[3]).unwrap();
        let mean = analysis.mean_from_transform(1e-5).unwrap();
        // Passage 0 -> 3 visits states 0, 1, 2: mean sojourns 1.0 + 0.6 + 2/3.
        let expect = 1.0 + 0.6 + 1.0 / 1.5;
        assert!((mean - expect).abs() < 1e-3, "mean {mean} vs {expect}");
    }

    #[test]
    fn transient_analysis_curve_and_asymptote() {
        let smp = tandem_smp();
        let analysis = TransientAnalysis::new(&smp, 0, &[2]).unwrap();
        let ts = linspace(0.25, 40.0, 80);
        let curve = analysis
            .distribution(InversionMethod::euler(), &ts)
            .unwrap();
        assert!(curve.values().iter().all(|&p| (0.0..=1.0).contains(&p)));
        let steady = analysis.steady_state_value().unwrap();
        let tail = *curve.values().last().unwrap();
        assert!(
            (tail - steady).abs() < 0.02,
            "transient tail {tail} vs steady state {steady}"
        );
    }

    #[test]
    fn transform_values_computed_for_whole_plan() {
        let smp = tandem_smp();
        let analysis = PassageTimeAnalysis::new(&smp, &[0], &[2]).unwrap();
        let plan = SPointPlan::new(InversionMethod::euler(), &[1.0, 2.0]);
        let values = compute_transform_values(analysis.solver(), &plan).unwrap();
        assert!(plan.is_satisfied_by(&values));
        assert_eq!(values.len(), plan.len());
    }
}

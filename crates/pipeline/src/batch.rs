//! Measure kinds: which `s`-points a measure needs and how its values are
//! read off them.
//!
//! Realistic studies rarely ask for a single curve — they ask for *families* of
//! quantities: passage-time densities and CDFs for several targets, transient
//! probabilities, all over shared (or overlapping) time grids, and the
//! moments of the same passages.  Every such measure of one
//! `DistributedEngine` solve is one row of a single run: its kind says which
//! `s`-points it needs ([`MeasureKind::plan`]) and how its values are read off
//! them ([`MeasureKind::postprocess`]).  The run plans the union of required
//! `s`-points per transform, dedupes against the measure-keyed cache and
//! checkpoint, and solves everything through one shared work queue — the
//! paper's "cache results both within and across successive queries".

use smp_laplace::{repair_cdf, InversionMethod, SPointPlan, TransformValues};
use smp_numeric::Complex64;

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
                repair_cdf(plan.t_points(), &mut values);
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

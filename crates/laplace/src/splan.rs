//! `s`-point planning — the interface between inversion and distribution.
//!
//! In the paper's architecture (Section 4) the master processor "computes in advance
//! the values of `s` at which it will need to know the value of `L_ij(s)` in order to
//! perform the inversion", places them in a global work queue, and the slaves return
//! one transform value per `s`-point.  [`SPointPlan`] is that up-front computation:
//! given an inversion method and the user's `t`-points it produces the de-duplicated
//! list of required `s`-points, and [`TransformValues`] is the resulting cache of
//! `s ↦ L(s)` values from which the master performs the final inversion.

use crate::euler::Euler;
use crate::laguerre::Laguerre;
use smp_numeric::Complex64;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Which numerical inversion algorithm drives the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum InversionMethod {
    /// Euler inversion — robust to discontinuities, `s`-points depend on each `t`.
    Euler(Euler),
    /// Laguerre inversion — smooth functions only, fixed `s`-point set.
    Laguerre(Laguerre),
}

impl InversionMethod {
    /// Default Euler configuration.
    pub fn euler() -> Self {
        InversionMethod::Euler(Euler::standard())
    }

    /// Default Laguerre configuration.
    pub fn laguerre() -> Self {
        InversionMethod::Laguerre(Laguerre::standard())
    }

    /// Human-readable name (used by the pipeline's progress reports and
    /// carried in transport job frames).
    pub fn name(&self) -> &'static str {
        match self {
            InversionMethod::Euler(_) => "euler",
            InversionMethod::Laguerre(_) => "laguerre",
        }
    }

    /// Parses a name produced by [`InversionMethod::name`] back into that
    /// method's standard configuration — the inverse a worker or CLI needs
    /// when a method arrives as a string.  Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<InversionMethod> {
        match name {
            "euler" => Some(InversionMethod::euler()),
            "laguerre" => Some(InversionMethod::laguerre()),
            _ => None,
        }
    }
}

/// Bit-exact key for a complex point.  `Ord` (over the raw bit patterns) lets
/// [`TransformValues`] live in a `BTreeMap`, so iterating a value cache visits
/// points in a platform- and insertion-order-independent order — nothing
/// downstream of an iteration can accidentally depend on hash-map ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct PointKey(u64, u64);

impl PointKey {
    fn of(s: Complex64) -> Self {
        PointKey(s.re.to_bits(), s.im.to_bits())
    }
}

/// A pre-computed evaluation plan: every `s`-point needed to invert at the given
/// `t`-points, de-duplicated.
#[derive(Debug, Clone)]
pub struct SPointPlan {
    method: InversionMethod,
    t_points: Vec<f64>,
    s_points: Vec<Complex64>,
}

impl SPointPlan {
    /// Builds the plan for a set of output `t`-points.
    ///
    /// # Panics
    /// Panics when `t_points` is empty or contains non-positive times (passage-time
    /// densities and transients are only defined for `t > 0`).
    pub fn new(method: InversionMethod, t_points: &[f64]) -> Self {
        assert!(!t_points.is_empty(), "at least one t-point is required");
        assert!(
            t_points.iter().all(|&t| t > 0.0 && t.is_finite()),
            "all t-points must be positive and finite"
        );
        let mut seen = HashMap::new();
        let mut s_points = Vec::new();
        let mut push_point = |s: Complex64, out: &mut Vec<Complex64>| {
            if seen.insert(PointKey::of(s), true).is_none() {
                out.push(s);
            }
        };
        match &method {
            InversionMethod::Euler(euler) => {
                for &t in t_points {
                    for s in euler.s_points(t) {
                        push_point(s, &mut s_points);
                    }
                }
            }
            InversionMethod::Laguerre(laguerre) => {
                for s in laguerre.s_points() {
                    push_point(s, &mut s_points);
                }
            }
        }
        SPointPlan {
            method,
            t_points: t_points.to_vec(),
            s_points,
        }
    }

    /// A plan over explicitly given, distinct evaluation points and no time
    /// grid — for a measure read off the transform itself rather than off an
    /// inversion (a finite-difference stencil at the origin).  Such a plan is
    /// queued, cached and checkpointed like any other; [`SPointPlan::invert`]
    /// on it returns no values.
    pub(crate) fn at_points(method: InversionMethod, s_points: Vec<Complex64>) -> Self {
        SPointPlan {
            method,
            t_points: Vec::new(),
            s_points,
        }
    }

    /// The inversion method of the plan.
    pub fn method(&self) -> &InversionMethod {
        &self.method
    }

    /// The user-requested output times.
    pub fn t_points(&self) -> &[f64] {
        &self.t_points
    }

    /// The de-duplicated transform evaluation points (the work queue content).
    pub fn s_points(&self) -> &[Complex64] {
        &self.s_points
    }

    /// Number of transform evaluations required.
    pub fn len(&self) -> usize {
        self.s_points.len()
    }

    /// True when no evaluations are required (never happens for a valid plan).
    pub fn is_empty(&self) -> bool {
        self.s_points.is_empty()
    }

    /// Performs the final inversion given a complete set of transform values.
    ///
    /// Returns `f(t)` for every planned `t`-point, in order.
    pub fn invert(&self, values: &TransformValues) -> Vec<f64> {
        self.invert_with(|s| values.get(s).expect("missing planned s-point value"))
    }

    /// [`SPointPlan::invert`] reading each planned point's value through
    /// `value_at` — for values derived on the fly from a cache (the `/s` of a
    /// CDF) without building a second cache to hold them.
    pub(crate) fn invert_with(&self, value_at: impl FnMut(Complex64) -> Complex64) -> Vec<f64> {
        match &self.method {
            InversionMethod::Euler(euler) => euler.invert_many_with(value_at, &self.t_points),
            InversionMethod::Laguerre(laguerre) => {
                laguerre.invert_many_with(value_at, &self.t_points)
            }
        }
    }

    /// Verifies that a value cache covers every planned point (used before
    /// attempting inversion after a checkpoint restore).
    pub fn is_satisfied_by(&self, values: &TransformValues) -> bool {
        self.s_points.iter().all(|&s| values.get(s).is_some())
    }
}

/// Computes the de-duplicated union of the `s`-points of several plans, in
/// first-seen order.
///
/// This is the batch-job generalisation of the paper's up-front planning: when a
/// master solves *several* measures whose transforms coincide (for example the
/// density and the CDF of the same passage, or transient measures sharing a time
/// grid), the work queue should contain each required `s`-point **once**, not
/// once per measure.  The batched pipeline groups its measures by transform and
/// evaluates exactly this union per group.
pub fn union_s_points<'a>(plans: impl IntoIterator<Item = &'a SPointPlan>) -> Vec<Complex64> {
    let mut seen = HashSet::new();
    let mut union = Vec::new();
    for plan in plans {
        for &s in plan.s_points() {
            if seen.insert(PointKey::of(s)) {
                union.push(s);
            }
        }
    }
    union
}

/// A cache of computed transform values keyed by their (bit-exact) `s`-point.
///
/// Backed by a `BTreeMap` ordered on the raw bit patterns so that
/// [`TransformValues::iter`] (and anything built on it — snapshots,
/// serializers) is deterministic regardless of insertion order.
#[derive(Debug, Clone, Default)]
pub struct TransformValues {
    map: BTreeMap<PointKey, Complex64>,
}

impl TransformValues {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TransformValues::default()
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts (or overwrites) the value for an `s`-point.
    pub fn insert(&mut self, s: Complex64, value: Complex64) {
        self.map.insert(PointKey::of(s), value);
    }

    /// Looks up the value computed for an `s`-point, if any.
    pub fn get(&self, s: Complex64) -> Option<Complex64> {
        self.map.get(&PointKey::of(s)).copied()
    }

    /// Returns true when a value for the point is present.
    pub fn contains(&self, s: Complex64) -> bool {
        self.map.contains_key(&PointKey::of(s))
    }

    /// Iterates over stored `(s, value)` pairs in ascending bit-pattern order
    /// of `s` (deterministic for any insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (Complex64, Complex64)> + '_ {
        self.map
            .iter()
            .map(|(k, v)| (Complex64::new(f64::from_bits(k.0), f64::from_bits(k.1)), *v))
    }

    /// Populates the cache by evaluating a transform at every planned point
    /// (single-process convenience path; the distributed pipeline fills the cache
    /// from worker results instead).
    pub fn compute<L: smp_distributions::LaplaceTransform + ?Sized>(
        plan: &SPointPlan,
        transform: &L,
    ) -> Self {
        let mut values = TransformValues::new();
        for &s in plan.s_points() {
            values.insert(s, transform.lst(s));
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_distributions::Dist;

    #[test]
    fn euler_plan_scales_with_t_points_and_dedups() {
        let plan1 = SPointPlan::new(InversionMethod::euler(), &[1.0]);
        let plan5 = SPointPlan::new(InversionMethod::euler(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(plan1.len(), 46);
        // Distinct t-points need distinct contour points: n = k·m evaluations total,
        // the structure behind the paper's "165 s-point evaluations for 5 t-points".
        assert_eq!(plan5.len(), 5 * 46);
        // Repeated t-points are de-duplicated, so re-running a plan with overlapping
        // time grids does not grow the work queue.
        let plan_dup = SPointPlan::new(InversionMethod::euler(), &[1.0, 2.0, 1.0, 2.0]);
        assert_eq!(plan_dup.len(), 2 * 46);
    }

    #[test]
    fn laguerre_plan_constant_size() {
        let plan1 = SPointPlan::new(InversionMethod::laguerre(), &[1.0]);
        let plan9 = SPointPlan::new(
            InversionMethod::laguerre(),
            &(1..=9).map(|k| k as f64).collect::<Vec<_>>(),
        );
        assert_eq!(plan1.len(), 400);
        assert_eq!(plan9.len(), 400);
    }

    #[test]
    fn plan_invert_matches_direct_inversion() {
        let d = Dist::erlang(2.0, 3);
        let ts = [0.4, 0.9, 1.7, 2.5];
        for method in [InversionMethod::euler(), InversionMethod::laguerre()] {
            let plan = SPointPlan::new(method, &ts);
            let values = TransformValues::compute(&plan, &d);
            assert!(plan.is_satisfied_by(&values));
            let inverted = plan.invert(&values);
            for (&t, &f) in ts.iter().zip(&inverted) {
                let expect = 8.0 * t * t * (-2.0 * t).exp() / 2.0;
                assert!(
                    (f - expect).abs() < 1e-5,
                    "{}: f({t}) = {f} vs {expect}",
                    plan.method().name()
                );
            }
        }
    }

    #[test]
    fn incomplete_cache_detected() {
        let plan = SPointPlan::new(InversionMethod::euler(), &[1.0]);
        let mut values = TransformValues::new();
        assert!(!plan.is_satisfied_by(&values));
        for &s in &plan.s_points()[..10] {
            values.insert(s, Complex64::ONE);
        }
        assert!(!plan.is_satisfied_by(&values));
    }

    #[test]
    fn cache_merge_and_lookup() {
        let mut a = TransformValues::new();
        let s1 = Complex64::new(1.0, 2.0);
        let s2 = Complex64::new(3.0, -4.0);
        a.insert(s1, Complex64::ONE);
        a.insert(s2, Complex64::I);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(s1), Some(Complex64::ONE));
        assert_eq!(a.get(s2), Some(Complex64::I));
        assert!(!a.contains(Complex64::ZERO));
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_non_positive_t() {
        SPointPlan::new(InversionMethod::euler(), &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one t-point")]
    fn rejects_empty_t() {
        SPointPlan::new(InversionMethod::euler(), &[]);
    }

    #[test]
    fn union_of_plans_dedups_across_overlapping_grids() {
        let shared = SPointPlan::new(InversionMethod::euler(), &[1.0, 2.0]);
        let overlap = SPointPlan::new(InversionMethod::euler(), &[2.0, 3.0]);
        // Identical grids union to a single grid's points...
        let same = union_s_points([&shared, &shared]);
        assert_eq!(same.len(), shared.len());
        assert_eq!(same, shared.s_points());
        // ...overlapping grids only pay for the new t-point's contour...
        let merged = union_s_points([&shared, &overlap]);
        assert_eq!(merged.len(), 3 * 46);
        // ...and first-seen order preserves the first plan's prefix.
        assert_eq!(&merged[..shared.len()], shared.s_points());
        // A Laguerre plan contributes its fixed point set exactly once.
        let lag = SPointPlan::new(InversionMethod::laguerre(), &[1.0]);
        let lag_twice = union_s_points([&lag, &lag]);
        assert_eq!(lag_twice.len(), 400);
    }

    #[test]
    fn method_names_round_trip_through_from_name() {
        for method in [InversionMethod::euler(), InversionMethod::laguerre()] {
            let name = method.name();
            let parsed = InversionMethod::from_name(name).unwrap();
            assert_eq!(parsed.name(), name);
        }
        assert!(InversionMethod::from_name("talbot").is_none());
    }
}

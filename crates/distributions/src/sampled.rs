//! The constant-space distribution representation of Section 4.
//!
//! > *"calculating sᵢ, 1 ≤ i ≤ n and storing all the distribution transform
//! > functions, sampled at these points, will be sufficient to provide a complete
//! > inversion."*
//!
//! A [`SampledLst`] stores nothing but the LST values of a distribution at the
//! `s`-points planned by the inversion algorithm.  Its three advantages, quoted from
//! the paper, are encoded directly in the API:
//!
//! 1. **constant storage** independent of the distribution type — the struct is a
//!    plain vector with one complex number per planned point;
//! 2. **closure under composition** — [`SampledLst::pointwise_mul`] (convolution),
//!    [`SampledLst::weighted_sum`] (probabilistic choice) and scalar operations
//!    return another `SampledLst` of exactly the same size;
//! 3. **sufficiency** — the stored values are precisely what the inversion needs,
//!    no more, so a completed passage-time computation can be checkpointed and
//!    inverted later without access to the original model.

use crate::lst::LaplaceTransform;
use smp_numeric::Complex64;

/// A distribution (or any Laplace-domain function) reduced to its values at a fixed,
/// ordered set of planned `s`-points.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledLst {
    points: Vec<Complex64>,
    values: Vec<Complex64>,
}

impl SampledLst {
    /// Samples an arbitrary transform at the given points.
    pub fn from_transform<L: LaplaceTransform + ?Sized>(
        points: &[Complex64],
        transform: &L,
    ) -> Self {
        SampledLst {
            points: points.to_vec(),
            values: points.iter().map(|&s| transform.lst(s)).collect(),
        }
    }

    /// Builds directly from parallel `(point, value)` vectors.
    pub fn from_parts(points: Vec<Complex64>, values: Vec<Complex64>) -> Self {
        assert_eq!(points.len(), values.len(), "points/values length mismatch");
        SampledLst { points, values }
    }

    /// The planned evaluation points.
    pub fn points(&self) -> &[Complex64] {
        &self.points
    }

    /// The stored transform values (same order as [`Self::points`]).
    pub fn values(&self) -> &[Complex64] {
        &self.values
    }

    /// Number of stored samples — the "constant space" of the representation.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Looks up the value at a planned point (exact match on the complex value).
    pub fn value_at(&self, s: Complex64) -> Option<Complex64> {
        self.points
            .iter()
            .position(|&p| p == s)
            .map(|i| self.values[i])
    }

    /// Point-wise product — the Laplace-domain equivalent of convolving the two
    /// underlying distributions (summing independent delays).
    ///
    /// # Panics
    /// Panics when the two representations were planned over different point sets;
    /// composition is only meaningful within a single inversion plan.
    pub fn pointwise_mul(&self, other: &SampledLst) -> SampledLst {
        assert_eq!(self.points, other.points, "mismatched s-point plans");
        SampledLst {
            points: self.points.clone(),
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Weighted sum `Σ wᵢ·Lᵢ` — the Laplace-domain equivalent of probabilistic choice
    /// between the underlying distributions.
    pub fn weighted_sum(parts: &[(f64, &SampledLst)]) -> SampledLst {
        assert!(!parts.is_empty(), "weighted_sum needs at least one part");
        let points = parts[0].1.points.clone();
        for (_, p) in parts {
            assert_eq!(p.points, points, "mismatched s-point plans");
        }
        let n = points.len();
        let mut values = vec![Complex64::ZERO; n];
        for (w, part) in parts {
            for (acc, v) in values.iter_mut().zip(&part.values) {
                *acc += v.scale(*w);
            }
        }
        SampledLst { points, values }
    }

    /// Scales every stored value by a real factor (e.g. branching probability).
    pub fn scale(&self, k: f64) -> SampledLst {
        SampledLst {
            points: self.points.clone(),
            values: self.values.iter().map(|v| v.scale(k)).collect(),
        }
    }

    /// Transforms every value as `v ↦ v / s` — turns a density transform into the
    /// transform of the corresponding cumulative distribution function, which is how
    /// the paper obtains Fig. 5 from Fig. 4.
    pub fn integrate(&self) -> SampledLst {
        SampledLst {
            points: self.points.clone(),
            values: self
                .values
                .iter()
                .zip(&self.points)
                .map(|(&v, &s)| v / s)
                .collect(),
        }
    }

    /// Approximate storage footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        2 * self.points.len() * std::mem::size_of::<Complex64>()
    }
}

impl LaplaceTransform for SampledLst {
    /// Evaluation is only defined at planned points; anything else is a logic error
    /// in the caller (it means the inversion is requesting points that were never
    /// computed/checkpointed).
    fn lst(&self, s: Complex64) -> Complex64 {
        self.value_at(s)
            .unwrap_or_else(|| panic!("s-point {s} was not part of the sampling plan"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::Dist;

    fn plan() -> Vec<Complex64> {
        (1..=8)
            .map(|k| Complex64::new(0.2 * k as f64, 0.5 * k as f64))
            .collect()
    }

    #[test]
    fn sampling_matches_direct_evaluation() {
        let d = Dist::mixture(vec![
            (0.8, Dist::uniform(1.5, 10.0)),
            (0.2, Dist::erlang(0.001, 5)),
        ]);
        let pts = plan();
        let sampled = SampledLst::from_transform(&pts, &d);
        assert_eq!(sampled.len(), pts.len());
        for (i, &s) in pts.iter().enumerate() {
            assert_eq!(sampled.values()[i], d.lst(s));
            assert_eq!(sampled.value_at(s), Some(d.lst(s)));
            assert_eq!(LaplaceTransform::lst(&sampled, s), d.lst(s));
        }
    }

    #[test]
    fn storage_is_constant_under_composition() {
        let pts = plan();
        let a = SampledLst::from_transform(&pts, &Dist::exponential(1.0));
        let b = SampledLst::from_transform(&pts, &Dist::erlang(2.0, 7));
        let product = a.pointwise_mul(&b);
        let mix = SampledLst::weighted_sum(&[(0.3, &a), (0.7, &b)]);
        assert_eq!(product.memory_bytes(), a.memory_bytes());
        assert_eq!(mix.memory_bytes(), a.memory_bytes());
        // And composing a composition keeps the size constant too.
        let nested = product.pointwise_mul(&mix).scale(0.5).integrate();
        assert_eq!(nested.len(), a.len());
    }

    #[test]
    fn pointwise_mul_equals_convolution_transform() {
        let pts = plan();
        let a = Dist::exponential(1.5);
        let b = Dist::uniform(0.5, 2.0);
        let sa = SampledLst::from_transform(&pts, &a);
        let sb = SampledLst::from_transform(&pts, &b);
        let conv = Dist::convolution(vec![a, b]);
        let direct = SampledLst::from_transform(&pts, &conv);
        let composed = sa.pointwise_mul(&sb);
        for (x, y) in composed.values().iter().zip(direct.values()) {
            assert!((*x - *y).norm() < 1e-13);
        }
    }

    #[test]
    fn weighted_sum_equals_mixture_transform() {
        let pts = plan();
        let a = Dist::deterministic(2.0);
        let b = Dist::erlang(0.8, 3);
        let sa = SampledLst::from_transform(&pts, &a);
        let sb = SampledLst::from_transform(&pts, &b);
        let mixture = Dist::mixture(vec![(0.25, a), (0.75, b)]);
        let direct = SampledLst::from_transform(&pts, &mixture);
        let composed = SampledLst::weighted_sum(&[(0.25, &sa), (0.75, &sb)]);
        for (x, y) in composed.values().iter().zip(direct.values()) {
            assert!((*x - *y).norm() < 1e-13);
        }
    }

    #[test]
    fn integrate_divides_by_s() {
        let pts = plan();
        let d = Dist::exponential(2.0);
        let s = SampledLst::from_transform(&pts, &d).integrate();
        for (i, &p) in pts.iter().enumerate() {
            assert!((s.values()[i] - d.lst(p) / p).norm() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "mismatched s-point plans")]
    fn composition_requires_same_plan() {
        let a = SampledLst::from_transform(&plan(), &Dist::exponential(1.0));
        let other: Vec<Complex64> = vec![Complex64::ONE];
        let b = SampledLst::from_transform(&other, &Dist::exponential(1.0));
        let _ = a.pointwise_mul(&b);
    }

    #[test]
    #[should_panic(expected = "not part of the sampling plan")]
    fn unplanned_point_panics() {
        let a = SampledLst::from_transform(&plan(), &Dist::exponential(1.0));
        let _ = LaplaceTransform::lst(&a, Complex64::new(123.0, 456.0));
    }

    #[test]
    fn empty_plan_is_supported() {
        let a = SampledLst::from_parts(vec![], vec![]);
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        assert_eq!(a.value_at(Complex64::ONE), None);
    }
}

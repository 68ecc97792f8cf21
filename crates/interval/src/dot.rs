//! Sound reductions: dot products, sums and forward-error bounds.
//!
//! These slice-level helpers back the CPU baselines and the concrete-bound
//! ("candidate") evaluations of backsubstitution. The batched, tiled variants
//! used by the simulated GPU live in `gpupoly-device`; both are built from
//! the same [`crate::round`] primitives and therefore carry the same
//! soundness guarantee.
//!
//! # Example
//!
//! ```
//! use gpupoly_interval::{dot, Itv};
//!
//! let coeffs = vec![Itv::point(1.0_f32), Itv::point(-2.0)];
//! let bounds = vec![Itv::new(0.0, 1.0), Itv::new(-1.0, 1.0)];
//! // upper bound of 1*x0 - 2*x1 over the box: 1*1 - 2*(-1) = 3
//! let hi = dot::concretize_upper(&coeffs, &bounds, Itv::zero());
//! assert!(hi >= 3.0);
//! let lo = dot::concretize_lower(&coeffs, &bounds, Itv::zero());
//! assert!(lo <= -2.0);
//! ```

use crate::round;
use crate::wide::{WideAcc, WideMag, WideTerm};
use crate::{Fp, Itv};

/// Sound dot product of interval coefficients with scalar values: the wide
/// rule of [`crate::wide`] for [`Fp::EXACT_IN_F64`] (one directed rounding
/// for the whole sum), the per-step [`Itv::mul_add_f`] chain otherwise and
/// when an operand is not finite.
///
/// # Panics
///
/// Panics when the slices have different lengths.
#[inline]
pub fn dot_itv_f<F: Fp>(coeffs: &[Itv<F>], xs: &[F]) -> Itv<F> {
    assert_eq!(coeffs.len(), xs.len(), "dot length mismatch");
    if F::EXACT_IN_F64 {
        let mut mag = WideMag::new::<F>(&[]);
        let mut acc = WideAcc::<1>::new::<F>(&[]);
        for (&a, &x) in coeffs.iter().zip(xs) {
            let a = WideTerm::new(a);
            // The one weight of the term is its own bound, non-finite if
            // it is; a zero coefficient just counts as one more addition.
            mag.add(a, x.to_f64().abs());
            acc.mul_add(a, &[x]);
        }
        if let Some(e) = mag.finish() {
            return acc.finish(0, e);
        }
    }
    let mut acc = Itv::zero();
    for (a, &x) in coeffs.iter().zip(xs) {
        acc = a.mul_add_f(x, acc);
    }
    acc
}

/// Outward-rounded dot product of interval coefficients with interval values.
///
/// # Panics
///
/// Panics when the slices have different lengths.
#[inline]
pub fn dot_itv_itv<F: Fp>(coeffs: &[Itv<F>], xs: &[Itv<F>]) -> Itv<F> {
    assert_eq!(coeffs.len(), xs.len(), "dot length mismatch");
    let mut acc = Itv::zero();
    for (a, x) in coeffs.iter().zip(xs) {
        acc = a.mul_add(*x, acc);
    }
    acc
}

/// Outward-rounded sum of intervals.
#[inline]
pub fn sum_itv<F: Fp>(xs: &[Itv<F>]) -> Itv<F> {
    let mut acc = Itv::zero();
    for x in xs {
        acc = acc.add(*x);
    }
    acc
}

/// Sound upper bound of `Σ coeffs[j]·x_j + cst` over the box `x_j ∈
/// bounds[j]` — one "candidate" of the backsubstitution algorithm (§2).
///
/// # Panics
///
/// Panics when the slices have different lengths.
#[inline]
pub fn concretize_upper<F: Fp>(coeffs: &[Itv<F>], bounds: &[Itv<F>], cst: Itv<F>) -> F {
    assert_eq!(coeffs.len(), bounds.len(), "concretize length mismatch");
    let mut hi = cst.hi;
    for (a, b) in coeffs.iter().zip(bounds) {
        hi = round::add_up(hi, a.mul(*b).hi);
    }
    hi
}

/// Sound lower bound of `Σ coeffs[j]·x_j + cst` over the box `x_j ∈
/// bounds[j]`.
///
/// # Panics
///
/// Panics when the slices have different lengths.
#[inline]
pub fn concretize_lower<F: Fp>(coeffs: &[Itv<F>], bounds: &[Itv<F>], cst: Itv<F>) -> F {
    assert_eq!(coeffs.len(), bounds.len(), "concretize length mismatch");
    let mut lo = cst.lo;
    for (a, b) in coeffs.iter().zip(bounds) {
        lo = round::add_down(lo, a.mul(*b).lo);
    }
    lo
}

/// The classical forward-error factor `γ_n = n·ε / (1 − n·ε)` (Higham),
/// evaluated with upward rounding.
///
/// A float dot product of length `n`, computed in *any* summation order under
/// *any* IEEE rounding mode, differs from the exact result by at most
/// `γ_{n+1} · Σ|a_i·x_i|`. GPUPoly (§4.1, following Miné 2004) widens the
/// constant term of affine transformers by this bound so that the certificate
/// also covers the round-off of the network's own inference.
///
/// # Panics
///
/// Panics when `n·ε >= 1` (the bound is meaningless for such huge `n`).
#[inline]
pub fn gamma<F: Fp>(n: usize) -> F {
    let ne = round::mul_up(F::from_usize(n), F::EPSILON);
    assert!(ne < F::ONE, "gamma(n) undefined: n too large");
    round::div_up(ne, round::sub_down(F::ONE, ne))
}

/// Upper bound on `Σ |w_i| · mag_i` with upward rounding, the magnitude term
/// of the inference-error widening.
///
/// # Panics
///
/// Panics when the slices have different lengths.
#[inline]
pub fn abs_dot_up<F: Fp>(ws: &[F], mags: &[F]) -> F {
    assert_eq!(ws.len(), mags.len(), "abs_dot length mismatch");
    let mut acc = F::ZERO;
    for (&w, &m) in ws.iter().zip(mags) {
        acc = round::fma_up(w.abs(), m, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_itv_f_contains_exact_f64_dot() {
        let coeffs: Vec<Itv<f32>> = vec![
            Itv::point(0.1),
            Itv::point(-0.3),
            Itv::point(2.5),
            Itv::point(1e-4),
        ];
        let xs = [0.7_f32, 0.11, -0.9, 1e4];
        let exact: f64 = coeffs
            .iter()
            .zip(&xs)
            .map(|(a, &x)| a.lo as f64 * x as f64)
            .sum();
        let d = dot_itv_f(&coeffs, &xs);
        assert!((d.lo as f64) <= exact && exact <= (d.hi as f64));
    }

    #[test]
    fn dot_itv_itv_contains_endpoint_samples() {
        let coeffs = vec![Itv::new(-1.0_f32, 1.0), Itv::new(0.5, 0.75)];
        let xs = vec![Itv::new(2.0_f32, 3.0), Itv::new(-4.0, -2.0)];
        let d = dot_itv_itv(&coeffs, &xs);
        // sample extreme combination: -1*3 + 0.5*-4 = -5
        assert!(d.contains(-5.0));
        // 1*3 + 0.75*-2 = 1.5
        assert!(d.contains(1.5));
    }

    #[test]
    fn sum_itv_adds_componentwise() {
        let xs = vec![
            Itv::new(0.0_f32, 1.0),
            Itv::new(-2.0, -1.0),
            Itv::point(3.0),
        ];
        let s = sum_itv(&xs);
        assert!(s.contains(1.0 - 1.5 + 3.0));
        assert!(s.lo <= 1.0 && s.hi >= 2.0);
    }

    #[test]
    fn concretize_matches_sign_split() {
        // upper of a·x with a > 0 takes x.hi, with a < 0 takes x.lo
        let coeffs = vec![Itv::point(2.0_f32), Itv::point(-3.0)];
        let bounds = vec![Itv::new(-1.0_f32, 1.0), Itv::new(-1.0, 1.0)];
        let hi = concretize_upper(&coeffs, &bounds, Itv::point(0.5));
        assert!(hi >= 2.0 + 3.0 + 0.5);
        let lo = concretize_lower(&coeffs, &bounds, Itv::point(0.5));
        assert!(lo <= -2.0 - 3.0 + 0.5);
    }

    #[test]
    fn concretize_with_empty_terms_is_constant() {
        let hi = concretize_upper::<f32>(&[], &[], Itv::new(-1.0, 2.0));
        assert_eq!(hi, 2.0);
        let lo = concretize_lower::<f32>(&[], &[], Itv::new(-1.0, 2.0));
        assert_eq!(lo, -1.0);
    }

    #[test]
    fn gamma_grows_with_n() {
        let g1: f32 = gamma(1);
        let g100: f32 = gamma(100);
        assert!(g1 > 0.0 && g100 > g1);
        assert!(g100 < 1e-4);
    }

    #[test]
    fn abs_dot_up_dominates_exact() {
        let ws = [0.5_f32, -2.0, 0.25];
        let mags = [1.0_f32, 3.0, 8.0];
        let exact = 0.5 + 6.0 + 2.0;
        assert!(abs_dot_up(&ws, &mags) >= exact);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = dot_itv_f::<f32>(&[Itv::point(1.0)], &[]);
    }
}

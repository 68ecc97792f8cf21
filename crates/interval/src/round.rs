//! Outward-rounded scalar operations.
//!
//! Every `*_down` function returns a value `<=` the exact real result of the
//! operation and every `*_up` function a value `>=` it, for all finite
//! inputs. This is the portable stand-in for CUDA's directed-rounding
//! intrinsics (GPUPoly §4.1): the round-to-nearest result is within half an
//! ulp of the exact result, so stepping it one representable value towards
//! the wanted direction yields a correct directed bound.
//!
//! Operations that are exact in IEEE arithmetic (adding zero, multiplying by
//! zero or one) skip the nudge, which keeps the ubiquitous sparse
//! coefficients of convolutional backsubstitution exact.
//!
//! # Example
//!
//! ```
//! use gpupoly_interval::round;
//!
//! let lo = round::add_down(0.1_f32, 0.2);
//! let hi = round::add_up(0.1_f32, 0.2);
//! assert!(lo <= hi);
//! // The true sum of the two representable values lies inside.
//! let exact = 0.1_f32 as f64 + 0.2_f32 as f64;
//! assert!((lo as f64) <= exact && exact <= (hi as f64));
//! ```

use crate::Fp;

/// `a + b` rounded towards `-inf`.
#[inline(always)]
pub fn add_down<F: Fp>(a: F, b: F) -> F {
    if a == F::ZERO {
        return b;
    }
    if b == F::ZERO {
        return a;
    }
    (a + b).next_down()
}

/// `a + b` rounded towards `+inf`.
#[inline(always)]
pub fn add_up<F: Fp>(a: F, b: F) -> F {
    if a == F::ZERO {
        return b;
    }
    if b == F::ZERO {
        return a;
    }
    (a + b).next_up()
}

/// `a - b` rounded towards `-inf`.
#[inline(always)]
pub fn sub_down<F: Fp>(a: F, b: F) -> F {
    if b == F::ZERO {
        return a;
    }
    (a - b).next_down()
}

/// `a - b` rounded towards `+inf`.
#[inline(always)]
pub fn sub_up<F: Fp>(a: F, b: F) -> F {
    if b == F::ZERO {
        return a;
    }
    (a - b).next_up()
}

/// `a * b` rounded towards `-inf`.
#[inline(always)]
pub fn mul_down<F: Fp>(a: F, b: F) -> F {
    if a == F::ZERO || b == F::ZERO {
        return F::ZERO;
    }
    if a == F::ONE {
        return b;
    }
    if b == F::ONE {
        return a;
    }
    (a * b).next_down()
}

/// `a * b` rounded towards `+inf`.
#[inline(always)]
pub fn mul_up<F: Fp>(a: F, b: F) -> F {
    if a == F::ZERO || b == F::ZERO {
        return F::ZERO;
    }
    if a == F::ONE {
        return b;
    }
    if b == F::ONE {
        return a;
    }
    (a * b).next_up()
}

/// `a / b` rounded towards `-inf`.
///
/// # Panics
///
/// Debug builds panic when `b == 0`.
#[inline(always)]
pub fn div_down<F: Fp>(a: F, b: F) -> F {
    debug_assert!(b != F::ZERO, "division by zero in directed rounding");
    if b == F::ONE {
        return a;
    }
    (a / b).next_down()
}

/// `a / b` rounded towards `+inf`.
///
/// # Panics
///
/// Debug builds panic when `b == 0`.
#[inline(always)]
pub fn div_up<F: Fp>(a: F, b: F) -> F {
    debug_assert!(b != F::ZERO, "division by zero in directed rounding");
    if b == F::ONE {
        return a;
    }
    (a / b).next_up()
}

/// `acc + a * b` rounded towards `-inf` — the multiply-add at the heart of
/// the interval GEMM kernels.
#[inline(always)]
pub fn fma_down<F: Fp>(a: F, b: F, acc: F) -> F {
    add_down(acc, mul_down(a, b))
}

/// `acc + a * b` rounded towards `+inf`.
#[inline(always)]
pub fn fma_up<F: Fp>(a: F, b: F, acc: F) -> F {
    add_up(acc, mul_up(a, b))
}

/// Converts an `f64` to `F` rounded towards `-inf`. Overflow saturates
/// outward-soundly: a value above `F::MAX` gives `F::MAX`, one below
/// `F::MIN` gives `-inf`. Whether round-to-nearest landed above `x` is a coin
/// toss per value, so the step is taken without a branch
/// ([`Fp::next_down_if`]): every epilogue of [`crate::wide`] ends here.
#[inline(always)]
pub fn from_f64_down<F: Fp>(x: f64) -> F {
    let r = F::from_f64(x);
    r.next_down_if(r.to_f64() > x)
}

/// Converts an `f64` to `F` rounded towards `+inf` (the mirror image of
/// [`from_f64_down`]).
#[inline(always)]
pub fn from_f64_up<F: Fp>(x: f64) -> F {
    let r = F::from_f64(x);
    r.next_up_if(r.to_f64() < x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrowing_conversions_round_outward() {
        let x = 0.1_f64; // not an f32
        let (lo, hi): (f32, f32) = (from_f64_down(x), from_f64_up(x));
        assert!((lo as f64) < x && x < (hi as f64));
        assert_eq!(lo.next_up(), hi);
        // Representable values (either sign of zero included) pass through.
        assert_eq!(from_f64_down::<f32>(0.25), 0.25);
        assert_eq!(from_f64_up::<f32>(-0.0).to_bits(), (-0.0_f32).to_bits());
        // Overflow saturates on the sound side, never NaN.
        assert_eq!(from_f64_down::<f32>(1e300), f32::MAX);
        assert_eq!(from_f64_up::<f32>(1e300), f32::INFINITY);
        assert_eq!(from_f64_down::<f32>(-1e300), f32::NEG_INFINITY);
        assert_eq!(from_f64_up::<f32>(-1e300), f32::MIN);
        // Below the smallest subnormal the bounds straddle zero.
        assert_eq!(from_f64_down::<f32>(1e-60), 0.0);
        assert!(from_f64_up::<f32>(1e-60) > 0.0);
        // f64 -> f64 is the identity.
        assert_eq!(from_f64_down::<f64>(x), x);
    }

    #[test]
    fn down_below_up() {
        let pairs: &[(f32, f32)] = &[
            (0.1, 0.2),
            (-1.5, 3.25),
            (1e30, 1e30),
            (-1e-30, 1e-30),
            (7.0, -0.3),
        ];
        for &(a, b) in pairs {
            assert!(add_down(a, b) <= add_up(a, b), "add {a} {b}");
            assert!(sub_down(a, b) <= sub_up(a, b), "sub {a} {b}");
            assert!(mul_down(a, b) <= mul_up(a, b), "mul {a} {b}");
            if b != 0.0 {
                assert!(div_down(a, b) <= div_up(a, b), "div {a} {b}");
            }
        }
    }

    #[test]
    fn brackets_exact_result_via_f64() {
        let pairs: &[(f32, f32)] = &[(0.1, 0.2), (1.0 / 3.0, 3.0), (1e-8, 1e8), (-2.5, 1e-3)];
        for &(a, b) in pairs {
            let (ad, bd) = (a as f64, b as f64);
            assert!((add_down(a, b) as f64) <= ad + bd);
            assert!((add_up(a, b) as f64) >= ad + bd);
            assert!((sub_down(a, b) as f64) <= ad - bd);
            assert!((sub_up(a, b) as f64) >= ad - bd);
            assert!((mul_down(a, b) as f64) <= ad * bd);
            assert!((mul_up(a, b) as f64) >= ad * bd);
            assert!((div_down(a, b) as f64) <= ad / bd);
            assert!((div_up(a, b) as f64) >= ad / bd);
        }
    }

    #[test]
    fn exact_fast_paths_do_not_nudge() {
        assert_eq!(add_down(1.25_f32, 0.0), 1.25);
        assert_eq!(add_up(0.0_f32, -7.5), -7.5);
        assert_eq!(mul_down(4.0_f32, 0.0), 0.0);
        assert_eq!(mul_up(0.0_f32, -4.0), 0.0);
        assert_eq!(mul_down(1.0_f32, 0.3), 0.3);
        assert_eq!(mul_up(0.3_f32, 1.0), 0.3);
        assert_eq!(sub_down(2.5_f32, 0.0), 2.5);
        assert_eq!(div_up(0.7_f32, 1.0), 0.7);
    }

    #[test]
    fn fma_brackets_exact() {
        let (a, b, acc) = (0.1_f32, 0.3_f32, 0.7_f32);
        let exact = (a as f64) * (b as f64) + acc as f64;
        assert!((fma_down(a, b, acc) as f64) <= exact);
        assert!((fma_up(a, b, acc) as f64) >= exact);
    }

    #[test]
    fn overflow_rounds_to_finite_lower_bound() {
        // Round-to-nearest overflows to +inf only when the exact result is
        // beyond the largest representable midpoint, so MAX stays a sound
        // lower bound.
        let d = add_down(f32::MAX, f32::MAX);
        assert!(d.is_finite());
        assert_eq!(d, f32::MAX);
        let u = add_up(f32::MAX, f32::MAX);
        assert_eq!(u, f32::INFINITY);
    }

    #[test]
    fn works_for_f64_too() {
        let exact = 0.1f64 + 0.2f64; // representable inputs, inexact sum
        assert!(add_down(0.1_f64, 0.2) <= exact);
        assert!(add_up(0.1_f64, 0.2) >= exact);
        assert!(mul_down(1.0_f64 / 3.0, 3.0) <= 1.0);
        assert!(mul_up(1.0_f64 / 3.0, 3.0) >= 1.0 - 1e-15);
    }
}

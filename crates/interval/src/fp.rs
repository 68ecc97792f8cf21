//! The float abstraction used throughout the verifier.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point scalar usable for sound verification.
///
/// Implemented for `f32` and `f64`. The two essential members are
/// [`Fp::next_up`] and [`Fp::next_down`], which step to the adjacent
/// representable values and underpin all directed rounding in
/// [`crate::round`]. Everything else mirrors the inherent `f32`/`f64` API so
/// generic code reads like ordinary float code.
///
/// # Example
///
/// ```
/// use gpupoly_interval::Fp;
///
/// fn mag<F: Fp>(x: F) -> F { x.abs() }
/// assert_eq!(mag(-2.5_f32), 2.5);
/// assert!(1.0_f64.next_up() > 1.0);
/// ```
pub trait Fp:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialOrd
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Negative one.
    const NEG_ONE: Self;
    /// One half.
    const HALF: Self;
    /// Positive infinity.
    const INFINITY: Self;
    /// Negative infinity.
    const NEG_INFINITY: Self;
    /// Machine epsilon (distance from 1.0 to the next float).
    const EPSILON: Self;
    /// Largest finite value.
    const MAX: Self;
    /// Smallest finite value (most negative).
    const MIN: Self;
    /// Smallest positive normal value.
    const MIN_POSITIVE: Self;
    /// `true` when the product of any two finite values of this type is
    /// exactly representable in `f64` — the precondition of the wide
    /// accumulation in [`crate::wide`]. Holds for `f32` (a 48-bit
    /// significand fits `f64`'s 53, and the smallest non-zero product,
    /// `2⁻²⁹⁸`, is far above `f64`'s underflow threshold); not for `f64`.
    const EXACT_IN_F64: bool;

    /// The next representable value towards `+inf`.
    fn next_up(self) -> Self;
    /// The next representable value towards `-inf`.
    fn next_down(self) -> Self;
    /// [`Fp::next_up`] when `step`, `self` otherwise — bit for bit, for every
    /// value (`±0` step to the smallest positive subnormal; `+inf` and NaN
    /// stay) — and without a branch: one integer addition to the bit
    /// pattern, of a step that is masked to zero when there is none to take.
    /// The narrowing conversions of [`crate::round`] and the epilogue of
    /// [`crate::wide`] step on a comparison of data, which a branch
    /// predictor gets wrong every other time.
    fn next_up_if(self, step: bool) -> Self;
    /// [`Fp::next_down`] when `step`, `self` otherwise; the mirror image of
    /// [`Fp::next_up_if`].
    fn next_down_if(self, step: bool) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE maximum (NaN-ignoring, like `f32::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum (NaN-ignoring, like `f32::min`).
    fn min(self, other: Self) -> Self;
    /// `true` when neither infinite nor NaN.
    fn is_finite(self) -> bool;
    /// `true` when NaN.
    fn is_nan(self) -> bool;
    /// `self * a + b` using the platform FMA when available.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Square root (used by training utilities, never by the sound core).
    fn sqrt(self) -> Self;
    /// Lossless widening to `f64` (f64 -> f64 is identity).
    fn to_f64(self) -> f64;
    /// Conversion from `f64` with round-to-nearest.
    fn from_f64(x: f64) -> Self;
    /// Conversion from a count.
    fn from_usize(n: usize) -> Self;
    /// Raw IEEE-754 bit pattern widened to 64 bits — a total key for exact
    /// value identity (analysis caching, hashing); distinguishes `-0.0`
    /// from `0.0` and every NaN payload.
    fn bits(self) -> u64;

    /// A conservative round-off envelope for a bound threaded through a
    /// `depth`-layer verification walk: roughly `64 · depth` ulps at the
    /// scale of `magnitude` (plus one, so tiny magnitudes still get an
    /// absolute floor of `64 · depth · EPSILON`).
    ///
    /// A precision-tiered verifier uses this as its *escalation* band: a
    /// fast-precision margin whose distance from the decision threshold is
    /// within the envelope is re-run at full precision instead of being
    /// trusted, because at that distance the two precisions' relaxation
    /// choices (which depend on the computed bounds themselves) can
    /// plausibly diverge. The constant is deliberately generous — directed
    /// rounding loses at most one ulp per accumulation step, so `64·depth`
    /// ulps dominates any realistic per-layer fan-in error growth while
    /// still leaving comfortably-proven margins to the fast tier.
    fn escalation_envelope(depth: usize, magnitude: Self) -> Self {
        Self::EPSILON * Self::from_usize(64 * depth.max(1)) * (Self::ONE + magnitude.abs())
    }
}

macro_rules! impl_fp {
    ($t:ty, $bits:ty, $exact_in_f64:expr) => {
        impl Fp for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const NEG_ONE: Self = -1.0;
            const HALF: Self = 0.5;
            const INFINITY: Self = <$t>::INFINITY;
            const NEG_INFINITY: Self = <$t>::NEG_INFINITY;
            const EPSILON: Self = <$t>::EPSILON;
            const MAX: Self = <$t>::MAX;
            const MIN: Self = <$t>::MIN;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;
            const EXACT_IN_F64: bool = $exact_in_f64;

            #[inline(always)]
            fn next_up(self) -> Self {
                self.next_up()
            }
            #[inline(always)]
            fn next_down(self) -> Self {
                self.next_down()
            }
            #[inline(always)]
            fn next_up_if(self, step: bool) -> Self {
                let bits = self.to_bits();
                // Either zero steps as `+0` does: its pattern is cleared
                // first (all ones here at a zero, to mask with).
                let zero = ((self == 0.0) as $bits).wrapping_neg();
                // Towards `+inf` the pattern of a positive value counts up
                // and that of a negative one down: `1 - 2 * sign`.
                let delta = (1 as $bits).wrapping_sub((bits & !zero) >> (<$bits>::BITS - 1) << 1);
                // Nothing lies above `+inf`, and a NaN stays what it is:
                // both fail `self < +inf`. The tests on the value are float
                // comparisons, one instruction in any vector build, where
                // those on the pattern would be 64-bit integer comparisons,
                // which baseline x86-64 (SSE2) does not have for vectors.
                let go = ((step & (self < <$t>::INFINITY)) as $bits).wrapping_neg();
                // One addition to the pattern, of zero when there is no step
                // to take: written as a choice between two *values* the
                // compiler picks between two floats, which on x86-64 is a
                // jump.
                <$t>::from_bits(bits.wrapping_add(delta.wrapping_sub(bits & zero) & go))
            }
            #[inline(always)]
            fn next_down_if(self, step: bool) -> Self {
                // Negation flips one bit and nothing else, NaN payloads kept.
                -(-self).next_up_if(step)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                self.is_nan()
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.mul_add(a, b)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn from_usize(n: usize) -> Self {
                n as $t
            }
            #[inline(always)]
            fn bits(self) -> u64 {
                self.to_bits() as u64
            }
        }
    };
}

impl_fp!(f32, u32, true);
impl_fp!(f64, u64, false);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_up_down_are_adjacent() {
        let x = 1.0_f32;
        assert!(x.next_up() > x);
        assert!(x.next_down() < x);
        assert_eq!(x.next_up().next_down(), x);
    }

    #[test]
    fn next_up_down_at_zero_cross_sign() {
        assert!(0.0_f32.next_up() > 0.0);
        assert!(0.0_f32.next_down() < 0.0);
        assert!(0.0_f64.next_down() < 0.0);
    }

    #[test]
    fn next_down_of_infinity_is_max() {
        assert_eq!(<f32 as Fp>::INFINITY.next_down(), f32::MAX);
        assert_eq!(<f64 as Fp>::NEG_INFINITY.next_up(), f64::MIN);
    }

    /// `next_up_if` / `next_down_if` against `std`'s `next_up` / `next_down`
    /// on one bit pattern, stepping and not.
    macro_rules! assert_steps_match_std {
        ($t:ty, $bits:expr) => {{
            let x = <$t>::from_bits($bits);
            assert_eq!(
                x.next_up_if(true).to_bits(),
                x.next_up().to_bits(),
                "up {x:e}"
            );
            assert_eq!(
                x.next_down_if(true).to_bits(),
                x.next_down().to_bits(),
                "down {x:e}"
            );
            assert_eq!(x.next_up_if(false).to_bits(), $bits, "up, not taken {x:e}");
            assert_eq!(
                x.next_down_if(false).to_bits(),
                $bits,
                "down, not taken {x:e}"
            );
        }};
    }

    #[test]
    fn conditional_steps_match_std_bit_for_bit() {
        // Where the pattern arithmetic changes regime: both zeros, the
        // subnormal and normal thresholds, one, the largest finite value and
        // the infinities (the one a step can leave and the one it cannot),
        // and a NaN of either sign.
        for x in [
            0.0_f32,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ] {
            assert_steps_match_std!(f32, x.to_bits());
            assert_steps_match_std!(f32, (-x).to_bits());
        }
        for x in [
            0.0_f64,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_steps_match_std!(f64, x.to_bits());
            assert_steps_match_std!(f64, (-x).to_bits());
        }
        // A million patterns of each width (splitmix64): every exponent,
        // either sign, NaN payloads included.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..1 << 20 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            assert_steps_match_std!(f32, z as u32);
            assert_steps_match_std!(f64, z);
        }
    }

    #[test]
    fn constants_match_std() {
        assert_eq!(<f32 as Fp>::EPSILON, f32::EPSILON);
        assert_eq!(<f64 as Fp>::MAX, f64::MAX);
        assert_eq!(<f32 as Fp>::HALF, 0.5);
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(f32::from_f64(0.25), 0.25_f32);
        assert_eq!(0.25_f32.to_f64(), 0.25_f64);
        assert_eq!(f64::from_usize(7), 7.0);
    }

    #[test]
    fn escalation_envelope_scales_with_depth_and_magnitude() {
        let base = f32::escalation_envelope(1, 0.0);
        assert_eq!(base, 64.0 * f32::EPSILON);
        // Deeper walks and larger magnitudes widen the band.
        assert!(f32::escalation_envelope(8, 0.0) > base);
        assert!(f32::escalation_envelope(1, 100.0) > base);
        // Sign of the magnitude is irrelevant.
        assert_eq!(
            f32::escalation_envelope(3, -2.5),
            f32::escalation_envelope(3, 2.5)
        );
        // Depth zero clamps to one (an envelope of zero would trust every
        // fast-tier margin, however marginal).
        assert_eq!(
            f32::escalation_envelope(0, 1.0),
            f32::escalation_envelope(1, 1.0)
        );
        // The f64 envelope at equal depth/magnitude is vastly tighter.
        assert!(f64::escalation_envelope(8, 1.0) < f32::escalation_envelope(8, 1.0) as f64);
    }

    #[test]
    fn generic_code_compiles_for_both_widths() {
        fn sum3<F: Fp>(a: F, b: F, c: F) -> F {
            a + b + c
        }
        assert_eq!(sum3(1.0_f32, 2.0, 3.0), 6.0);
        assert_eq!(sum3(1.0_f64, 2.0, 3.0), 6.0);
    }
}

//! Wide accumulation: interval×scalar dot products at round-to-nearest
//! speed, one directed rounding per result.
//!
//! [`Itv::mul_add_f`] buys soundness by stepping every multiply and every
//! add one representable value outward — two branches and four nudges per
//! term, and a result that is `2k` ulps wide after `k` terms. When the
//! scalar type satisfies [`Fp::EXACT_IN_F64`] (i.e. `f32`) there is a
//! cheaper and tighter route: every product `a·w` is **exact** in `f64`, so
//! the only round-off left is that of the `f64` additions, which a single
//! a-priori bound covers. [`WideAcc`] accumulates `N` independent dot
//! products that way (the lanes are the columns of a GEMM register block;
//! the layout is struct-of-arrays so the lane loop vectorizes).
//!
//! # The rule (what every backend must reproduce, bit for bit)
//!
//! For one output with initial value `c` (zero for a fresh product),
//! coefficient intervals `a_1 … a_t` (exact-zero coefficients already
//! skipped by the caller) and scalars `w_1 … w_t`, all in `f64`
//! round-to-nearest and in the order the terms are fed:
//!
//! ```text
//! lo = c.lo;  hi = c.hi;  T = max(|c.lo|, |c.hi|)
//! for i in 1..=t:
//!     p = a_i.lo · w_i;  q = a_i.hi · w_i          // both exact
//!     lo = lo + (p < q ? p : q)
//!     hi = hi + (p > q ? p : q)
//!     T  = T + max(|a_i.lo|, |a_i.hi|) · |w_i|     // product exact
//! adds = max(#{i : w_i ≠ 0} − 1 + [c ≠ 0], 0)      // inexact additions
//! e    = up(T · adds · 2⁻⁵²)                       // zero when adds = 0
//! result = [ down_F(down(lo − e)), up_F(up(hi + e)) ]
//! ```
//!
//! `up`/`down` are the nudged `f64` operations of [`crate::round`],
//! `down_F`/`up_F` the directed narrowing conversions
//! [`round::from_f64_down`]/[`round::from_f64_up`]. When `T` is not finite —
//! which happens exactly when some participating operand is `±inf` or NaN —
//! there is no result ([`WideAcc::finish`] returns `None`) and the caller
//! recomputes that output with the per-step [`Itv::mul_add_f`] chain.
//!
//! # Soundness
//!
//! Let `x_0 = c.lo` and `x_i = min(a_i.lo·w_i, a_i.hi·w_i)`, the exact
//! lower endpoint of `a_i·w_i`; the exact lower bound is `S = Σ x_i`.
//!
//! 1. *Products are exact.* Two `f32` significands multiply to at most 48
//!    bits and the exponent stays within `[−298, 256]`, so `p`, `q` and the
//!    magnitude product are computed without error and `|x_i| ≤ T_i`, the
//!    `i`-th summand of `T`.
//! 2. *Additions.* `lo` is the recursive `f64` sum of `x_0 … x_t`. Adding
//!    an exact zero (`w_i = 0`) or adding to one (the first non-zero
//!    summand) is exact, and `f64` addition cannot underflow, so at most
//!    `adds` of the additions round, each with relative error at most
//!    `u = 2⁻⁵³`. The classical bound (Higham, *Accuracy and Stability*,
//!    §4.2) gives `|lo − S| ≤ γ·Σ|x_i| ≤ γ·T*` with
//!    `γ = adds·u / (1 − adds·u)` and `T*` the exact value of `Σ T_i`.
//! 3. *`T` is itself rounded.* It is a sum of non-negative terms with the
//!    same additions, so the computed `T ≥ T*·(1 − adds·u)`. Hence
//!    `e ≥ T · 2·adds·u ≥ 2·adds·u·(1 − adds·u)·T* ≥ γ·T*` whenever
//!    `(1 − adds·u)² ≥ ½`, i.e. `adds ≤ 0.29·2⁵³`; [`WideAcc::finish`]
//!    asserts a far smaller limit.
//! 4. *Final steps are directed.* `e` is rounded up, the subtraction down
//!    and the narrowing conversion down, so the result's lower bound is
//!    `≤ lo − e ≤ S`. The upper bound is symmetric.
//!
//! Outputs with at most one non-zero product have `adds = 0` and are
//! therefore exact up to the final conversion: multiplying by an identity
//! matrix returns its input bit for bit.
//!
//! # Interval × interval: one directed bound ([`WideBound`])
//!
//! Concretization substitutes *interval* bounds `b_i` for the variables of an
//! expression with interval coefficients `a_i` and keeps one side of the
//! result: the lower bound of the lower expression, the upper bound of the
//! upper one. Both operands are `F` intervals, so all four endpoint products
//! are exact in `f64` and the rule carries over with the interval product in
//! place of `a_i · w_i`. For the lower bound, from a scalar start `c`
//! (exact-zero coefficients `a_i` already skipped by the caller):
//!
//! ```text
//! s = c;  T = |c|
//! for i in 1..=t:
//!     p1 = a_i.lo · b_i.lo;  p2 = a_i.lo · b_i.hi       // all four exact
//!     p3 = a_i.hi · b_i.lo;  p4 = a_i.hi · b_i.hi
//!     s = s + m(m(p1, p2), m(p3, p4))                   // m(p, q) = p < q ? p : q
//!     T = T + max(|a_i.lo|, |a_i.hi|) · max(|b_i.lo|, |b_i.hi|)
//! adds = max(t − 1 + [c ≠ 0], 0)
//! e    = up(T · adds · 2⁻⁵²)                            // zero when adds = 0
//! result = down_F(down(s − e))
//! ```
//!
//! The upper bound is the mirror image: `m(p, q) = p > q ? p : q` and
//! `result = up_F(up(s + e))`. `T` not finite — a `±inf` or NaN coefficient,
//! bound or start — again means no result.
//!
//! *Soundness.* A product `x · y` over a box attains its extrema at the
//! corners, so `x_i = min(p1, p2, p3, p4)` is the exact lower endpoint of
//! `a_i · b_i` and `|x_i| ≤ max|a_i| · max|b_i| = T_i`. Two `f32` operands make
//! every `p` and the magnitude product exact (step 1 above); steps 2–4 use
//! nothing else about the summands and hold as written. Every fed term counts
//! towards `adds`, including one whose bound is `[0, 0]` and whose addition
//! is therefore exact: over-counting only widens.
//!
//! # Example
//!
//! ```
//! use gpupoly_interval::wide::{WideAcc, WideTerm};
//! use gpupoly_interval::Itv;
//!
//! // Two dot products at once: [0.1, 0.2]·3 + [-1, 1]·w for w ∈ {2, -4}.
//! let mut acc = WideAcc::<2>::new::<f32>(&[]);
//! acc.mul_add(WideTerm::new(Itv::new(0.1_f32, 0.2)), &[3.0, 3.0]);
//! acc.mul_add(WideTerm::new(Itv::new(-1.0_f32, 1.0)), &[2.0, -4.0]);
//! let y: Itv<f32> = acc.finish(1).expect("finite operands");
//! assert!(y.lo <= 0.3 - 4.0 && y.hi >= 0.6 + 4.0);
//! assert!(y.hi - y.lo < 8.31);
//! ```

use crate::{round, Fp, Itv};

/// `max(|lo|, |hi|)`, or `+inf` when either bound is not finite — NaN
/// included, which a plain `max` would drop — so a bad operand always makes
/// the magnitude sum non-finite.
#[inline(always)]
fn mag_or_inf(lo: f64, hi: f64) -> f64 {
    if lo.is_finite() && hi.is_finite() {
        lo.abs().max(hi.abs())
    } else {
        f64::INFINITY
    }
}

/// One interval coefficient widened to `f64`, prepared once per `(row, k)`
/// term and reused across every lane of the register block.
#[derive(Copy, Clone, Debug)]
pub struct WideTerm {
    lo: f64,
    hi: f64,
    mag: f64,
}

impl WideTerm {
    /// Widens `a` (lossless: `F` → `f64` is exact).
    #[inline(always)]
    pub fn new<F: Fp>(a: Itv<F>) -> Self {
        let (lo, hi) = (a.lo.to_f64(), a.hi.to_f64());
        Self {
            lo,
            hi,
            mag: mag_or_inf(lo, hi),
        }
    }

    /// `true` for an exact-zero coefficient (`lo == 0 && hi == 0`, either
    /// sign of zero): the term the kernels' mandatory zero-skip drops.
    #[inline(always)]
    pub fn is_zero(&self) -> bool {
        self.mag == 0.0
    }
}

/// The a-priori round-off bound `up(T · adds · 2⁻⁵²)` of `adds ≥ 1` inexact
/// `f64` additions whose summands have magnitude sum `T` (step 3 of the
/// proof, which needs `adds · 2⁻⁵³ ≤ 0.29`).
///
/// # Panics
///
/// Panics when `adds` exceeds `2³²`.
#[inline]
fn widening(t: f64, adds: usize) -> f64 {
    assert!(
        adds as u64 <= 1 << 32,
        "wide accumulation over too many terms"
    );
    round::mul_up(t, adds as f64 * f64::EPSILON)
}

/// `N` interval×scalar dot products accumulated in `f64`; see the module
/// docs for the rule and its soundness proof. The fields are private: the
/// term count that the error bound depends on is maintained here, not by
/// the caller.
#[derive(Copy, Clone, Debug)]
pub struct WideAcc<const N: usize> {
    lo: [f64; N],
    hi: [f64; N],
    mag: [f64; N],
    /// Lanes whose initial value was non-zero: their first addition rounds.
    seeded: [bool; N],
    /// Per lane, the terms whose weight was zero: those additions are exact.
    zero_w: [u32; N],
    terms: usize,
}

impl<const N: usize> WideAcc<N> {
    /// Starts lane `j` at `init[j]` (the accumulating GEMM's `C` entry);
    /// lanes past `init.len()` start at exact zero.
    ///
    /// # Panics
    ///
    /// Panics when `init` is longer than `N`.
    #[inline(always)]
    pub fn new<F: Fp>(init: &[Itv<F>]) -> Self {
        debug_assert!(F::EXACT_IN_F64, "wide accumulation needs exact products");
        assert!(init.len() <= N, "more initial values than lanes");
        let mut acc = Self {
            lo: [0.0; N],
            hi: [0.0; N],
            mag: [0.0; N],
            seeded: [false; N],
            zero_w: [0; N],
            terms: 0,
        };
        for (j, c) in init.iter().enumerate() {
            let (lo, hi) = (c.lo.to_f64(), c.hi.to_f64());
            acc.lo[j] = lo;
            acc.hi[j] = hi;
            acc.mag[j] = mag_or_inf(lo, hi);
            acc.seeded[j] = lo != 0.0 || hi != 0.0;
        }
        acc
    }

    /// Lane `j` accumulates `a · w[j]`. The caller skips exact-zero
    /// coefficients *before* calling (the GEMM contract's mandatory
    /// zero-skip): every call counts as a term of the error bound.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // one index over five lane arrays
    pub fn mul_add<F: Fp>(&mut self, a: WideTerm, w: &[F; N]) {
        self.terms += 1;
        for j in 0..N {
            let wj = w[j].to_f64();
            let (p, q) = (a.lo * wj, a.hi * wj);
            self.lo[j] += if p < q { p } else { q };
            self.hi[j] += if p > q { p } else { q };
            self.mag[j] += a.mag * wj.abs();
            self.zero_w[j] += u32::from(w[j] == F::ZERO);
        }
    }

    /// The sound enclosure of lane `j`, or `None` when an operand of that
    /// lane was not finite (the caller then falls back to the per-step
    /// [`Itv::mul_add_f`] chain for this output).
    ///
    /// # Panics
    ///
    /// Panics when more than `2³²` terms were accumulated.
    #[inline]
    pub fn finish<F: Fp>(&self, j: usize) -> Option<Itv<F>> {
        let t = self.mag[j];
        if !t.is_finite() {
            return None;
        }
        let rounded = self.terms - self.zero_w[j] as usize + usize::from(self.seeded[j]);
        let adds = rounded.saturating_sub(1);
        let (mut lo, mut hi) = (self.lo[j], self.hi[j]);
        if adds > 0 {
            let e = widening(t, adds);
            lo = round::sub_down(lo, e);
            hi = round::add_up(hi, e);
        }
        Some(Itv {
            lo: round::from_f64_down(lo),
            hi: round::from_f64_up(hi),
        })
    }
}

/// One directed bound of `c + Σ a_i · b_i` over interval coefficients *and*
/// interval operands, accumulated in `f64`: the lower bound for
/// `UPPER = false`, the upper bound for `UPPER = true`. See the module docs
/// ("Interval × interval") for the rule and why it is sound. As with
/// [`WideAcc`], the term count the error bound depends on is kept here.
#[derive(Copy, Clone, Debug)]
pub struct WideBound<const UPPER: bool> {
    sum: f64,
    mag: f64,
    /// Additions that can round: every fed term, plus a non-zero start.
    rounded: usize,
}

impl<const UPPER: bool> WideBound<UPPER> {
    /// Starts the sum at the scalar `c` (an expression's constant bound).
    #[inline(always)]
    pub fn new<F: Fp>(c: F) -> Self {
        debug_assert!(F::EXACT_IN_F64, "wide accumulation needs exact products");
        let c = c.to_f64();
        Self {
            sum: c,
            mag: mag_or_inf(c, c),
            rounded: usize::from(c != 0.0),
        }
    }

    /// Accumulates this side's endpoint of the interval product `a · b`. The
    /// caller skips exact-zero coefficients `a` *before* calling: every call
    /// counts as a term of the error bound.
    #[inline(always)]
    pub fn mul_add(&mut self, a: WideTerm, b: WideTerm) {
        let pick = |p: f64, q: f64| {
            if UPPER {
                if p > q {
                    p
                } else {
                    q
                }
            } else if p < q {
                p
            } else {
                q
            }
        };
        self.rounded += 1;
        self.sum += pick(
            pick(a.lo * b.lo, a.lo * b.hi),
            pick(a.hi * b.lo, a.hi * b.hi),
        );
        self.mag += a.mag * b.mag;
    }

    /// The sound bound, or `None` when an operand was not finite (the caller
    /// then falls back to the per-step chain).
    ///
    /// # Panics
    ///
    /// Panics when more than `2³²` terms were accumulated.
    #[inline]
    pub fn finish<F: Fp>(&self) -> Option<F> {
        if !self.mag.is_finite() {
            return None;
        }
        let adds = self.rounded.saturating_sub(1);
        let mut s = self.sum;
        if adds > 0 {
            let e = widening(self.mag, adds);
            s = if UPPER {
                round::add_up(s, e)
            } else {
                round::sub_down(s, e)
            };
        }
        Some(if UPPER {
            round::from_f64_up(s)
        } else {
            round::from_f64_down(s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(init: Option<Itv<f32>>, terms: &[(Itv<f32>, f32)]) -> Option<Itv<f32>> {
        let mut acc = WideAcc::<1>::new(init.as_slice());
        for &(a, w) in terms {
            acc.mul_add(WideTerm::new(a), &[w]);
        }
        acc.finish(0)
    }

    #[test]
    fn empty_and_single_term_outputs_are_exact() {
        assert_eq!(dot(None, &[]), Some(Itv::zero()));
        let c = Itv::new(-0.3_f32, 0.7);
        assert_eq!(dot(Some(c), &[]), Some(c));
        let a = Itv::new(0.1_f32, 0.2);
        assert_eq!(dot(None, &[(a, 1.0)]), Some(a));
        assert_eq!(dot(None, &[(a, -1.0)]), Some(a.neg()));
        // A product that is not an f32 rounds outward by exactly one step.
        let y = dot(None, &[(Itv::point(0.1), 0.3)]).unwrap();
        assert!((y.lo as f64) < 0.1_f32 as f64 * 0.3_f32 as f64);
        assert_eq!(y.lo.next_up(), y.hi);
    }

    #[test]
    fn zero_weights_do_not_count_as_additions() {
        // An identity column: one unit weight among zeros returns its
        // coefficient bit for bit, whichever sign the zeros have.
        let (a, b) = (Itv::new(0.1_f32, 0.2), Itv::point(0.7_f32));
        assert_eq!(dot(None, &[(b, 0.0), (a, 1.0), (b, -0.0)]), Some(a));
        // Two non-zero weights do round.
        let y = dot(None, &[(b, 0.0), (a, 1.0), (b, 1.0)]).unwrap();
        assert!(y.lo < 0.1_f32 + 0.7 && 0.2_f32 + 0.7 < y.hi);
    }

    #[test]
    fn negative_zero_survives_an_untouched_lane() {
        let c = Itv::point(-0.0_f32);
        let y = dot(Some(c), &[]).unwrap();
        assert_eq!(y.lo.to_bits(), (-0.0_f32).to_bits());
        assert_eq!(y.hi.to_bits(), (-0.0_f32).to_bits());
    }

    #[test]
    fn sign_of_the_weight_selects_the_endpoint() {
        let a = Itv::new(1.0_f32, 2.0);
        let y = dot(None, &[(a, 3.0), (a, -5.0)]).unwrap();
        // exact: [1·3 + 2·(−5), 2·3 + 1·(−5)] = [−7, 1]
        assert!(y.lo <= -7.0 && y.hi >= 1.0);
        assert!(y.lo >= (-7.0_f32).next_down() && y.hi <= 1.0_f32.next_up());
    }

    #[test]
    fn non_finite_operands_have_no_result() {
        let one = Itv::point(1.0_f32);
        assert_eq!(dot(None, &[(Itv::new(0.0, f32::INFINITY), 2.0)]), None);
        assert_eq!(dot(None, &[(Itv::new(0.0, f32::INFINITY), 0.0)]), None);
        assert_eq!(dot(None, &[(one, f32::NEG_INFINITY)]), None);
        assert_eq!(dot(None, &[(one, f32::NAN)]), None);
        assert_eq!(dot(Some(Itv::top()), &[(one, 1.0)]), None);
        let nan_lo = Itv {
            lo: f32::NAN,
            hi: 1.0,
        };
        assert_eq!(dot(None, &[(nan_lo, 1.0)]), None);
    }

    fn bounds(c: f32, terms: &[(Itv<f32>, Itv<f32>)]) -> Option<(f32, f32)> {
        let mut lo = WideBound::<false>::new(c);
        let mut hi = WideBound::<true>::new(c);
        for &(a, b) in terms {
            lo.mul_add(WideTerm::new(a), WideTerm::new(b));
            hi.mul_add(WideTerm::new(a), WideTerm::new(b));
        }
        lo.finish().zip(hi.finish())
    }

    #[test]
    fn bounds_pick_the_extreme_corner_of_each_interval_product() {
        let (a, b) = (Itv::new(-1.0_f32, 2.0), Itv::new(-3.0_f32, 0.5));
        // corners: 3, -0.5, -6, 1 — alone, a term is exact.
        assert_eq!(bounds(0.0, &[(a, b)]), Some((-6.0, 3.0)));
        // exact: [-6 - 2, 3 + 2] from 2 · [-1, 1]; two terms round once.
        let (lo, hi) = bounds(0.0, &[(a, b), (Itv::point(2.0), Itv::new(-1.0, 1.0))]).unwrap();
        assert!(lo <= -8.0 && 5.0 <= hi);
        assert!(lo >= (-8.0_f32).next_down() && hi <= 5.0_f32.next_up());
    }

    #[test]
    fn bounds_without_an_inexact_addition_are_exact() {
        assert_eq!(bounds(-0.3, &[]), Some((-0.3, -0.3)));
        let z = bounds(-0.0, &[]).unwrap();
        assert_eq!(z.0.to_bits(), (-0.0_f32).to_bits());
        assert_eq!(z.1.to_bits(), (-0.0_f32).to_bits());
        // A product that is not an f32 rounds outward by exactly one step.
        let (lo, hi) = bounds(0.0, &[(Itv::point(0.1), Itv::point(0.3))]).unwrap();
        assert!((lo as f64) < 0.1_f32 as f64 * 0.3_f32 as f64);
        assert_eq!(lo.next_up(), hi);
        // A non-zero start makes the first addition round.
        let (lo, hi) = bounds(1.0, &[(Itv::point(0.5), Itv::point(0.5))]).unwrap();
        assert!(lo < 1.25 && 1.25 < hi);
    }

    #[test]
    fn bounds_have_no_result_for_non_finite_operands() {
        let one = Itv::point(1.0_f32);
        assert_eq!(bounds(0.0, &[(one, Itv::top())]), None);
        assert_eq!(bounds(0.0, &[(Itv::new(0.0, f32::INFINITY), one)]), None);
        assert_eq!(bounds(0.0, &[(Itv::top(), Itv::zero())]), None);
        assert_eq!(bounds(f32::INFINITY, &[]), None);
        assert_eq!(bounds(f32::NAN, &[(one, one)]), None);
    }

    #[test]
    fn lanes_are_independent() {
        let a = Itv::new(0.25_f32, 0.5);
        let b = Itv::point(-3.0_f32);
        let mut wide = WideAcc::<4>::new::<f32>(&[Itv::point(1.0)]);
        wide.mul_add(WideTerm::new(a), &[2.0, -2.0, 0.0, f32::INFINITY]);
        wide.mul_add(WideTerm::new(b), &[0.5, 0.5, 0.5, 0.5]);
        let lane0 = dot(Some(Itv::point(1.0)), &[(a, 2.0), (b, 0.5)]);
        let lane1 = dot(None, &[(a, -2.0), (b, 0.5)]);
        assert_eq!(wide.finish::<f32>(0), lane0);
        assert_eq!(wide.finish::<f32>(1), lane1);
        assert!(wide.finish::<f32>(2).is_some());
        assert_eq!(wide.finish::<f32>(3), None);
    }
}

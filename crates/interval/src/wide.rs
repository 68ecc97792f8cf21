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
//! the layout is struct-of-arrays so the lane loop vectorizes), and the
//! magnitude sum the bound needs is taken **once per term list**
//! ([`WideMag`]) for every output that shares the list — it never enters
//! the lane loop. [`WideRow`] is the same accumulator with its lanes in
//! memory, as many as a kernel's row has outputs, and the lists' magnitude
//! sums beside them, for kernels that *scatter*: a term is visited once and
//! added to every output it reaches, a fixed-width block of lanes at a time,
//! instead of every output walking its own term list. [`WideBounds`] and
//! [`WideDots`] turn the lanes the other way: each lane is one output over
//! its own term list, with its own magnitude sum — a row of a *row block*,
//! whose rows step through their term lists together; [`RowSums`] keeps a
//! launch's blocks in memory for one pass that finishes every row.
//!
//! # The rule (what every backend must reproduce, bit for bit)
//!
//! A *term list* is a sequence of coefficient intervals `a_1 … a_t`
//! (exact-zero coefficients already skipped by the caller) shared by a set
//! `J` of outputs: the columns of one GEMM row, the `c_in` channels of one
//! GBC position, the lanes of one forward-pass block, or a single output.
//! Output `j` has its own scalars `w_1j … w_tj` and its own initial value
//! `c_j` (zero for a fresh product). Let `wmax_i = max_j |w_ij|` and
//! `cmax = max_j max(|c_j.lo|, |c_j.hi|)`, each `+inf` as soon as one of its
//! operands is `±inf` or NaN ([`max_mag`]). All in `f64` round-to-nearest
//! and in the order the terms are fed:
//!
//! ```text
//! T = cmax                                         // once per list
//! for i in 1..=t:
//!     T = T + max(|a_i.lo|, |a_i.hi|) · wmax_i     // product exact
//! adds = max(t − 1 + [cmax ≠ 0], 0)                // inexact additions
//! e    = up(T · adds · 2⁻⁵²)                       // zero when adds = 0
//!
//! lo = c_j.lo;  hi = c_j.hi                        // per output j
//! for i in 1..=t:
//!     p = a_i.lo · w_ij;  q = a_i.hi · w_ij        // both exact
//!     lo = lo + (p < q ? p : q)
//!     hi = hi + (p > q ? p : q)
//! result_j = [ down_F(down(lo − e)), up_F(up(hi + e)) ]
//! ```
//!
//! `up`/`down` are the nudged `f64` operations of [`crate::round`],
//! `down_F`/`up_F` the directed narrowing conversions
//! [`round::from_f64_down`]/[`round::from_f64_up`]. When `T` is not finite —
//! some coefficient of the list, or some weight or initial value of one of
//! its outputs, is `±inf` or NaN — the list has no result
//! ([`WideMag::finish`] returns `None`) and the caller recomputes **every**
//! output of the list with the per-step [`Itv::mul_add_f`] chain.
//!
//! # Soundness
//!
//! Fix an output `j`. Let `x_0 = c_j.lo` and
//! `x_i = min(a_i.lo·w_ij, a_i.hi·w_ij)`, the exact lower endpoint of
//! `a_i·w_ij`; the exact lower bound is `S = Σ x_i`.
//!
//! 1. *Products are exact.* Two `f32` significands multiply to at most 48
//!    bits and the exponent stays within `[−298, 256]`, so `p`, `q` and the
//!    magnitude product are computed without error, and
//!    `|x_i| ≤ max|a_i|·|w_ij| ≤ T_i`, the `i`-th summand of `T`
//!    (`|x_0| ≤ cmax = T_0`). `T` therefore bounds `Σ|x_i|` for every
//!    output of the list at once; that is all the proof asks of it.
//! 2. *Additions.* `lo` is the recursive `f64` sum of `x_0 … x_t`. Adding
//!    to an exact zero (the first summand when `c_j = 0`) is exact, and
//!    `f64` addition cannot underflow, so at most `adds` of the additions
//!    round, each with relative error at most `u = 2⁻⁵³`. The classical
//!    bound (Higham, *Accuracy and Stability*, §4.2) gives
//!    `|lo − S| ≤ γ·Σ|x_i| ≤ γ·T*` with `γ = adds·u / (1 − adds·u)` and
//!    `T*` the exact value of `Σ T_i`.
//! 3. *`T` is itself rounded.* It is a sum of non-negative terms in which
//!    at most `adds` additions round, so the computed `T ≥ T*·(1 − adds·u)`.
//!    Hence `e ≥ T · 2·adds·u ≥ 2·adds·u·(1 − adds·u)·T* ≥ γ·T*` whenever
//!    `(1 − adds·u)² ≥ ½`, i.e. `adds ≤ 0.29·2⁵³`; [`WideMag::finish`]
//!    asserts a far smaller limit.
//! 4. *Final steps are directed.* `e` is rounded up, the subtraction down
//!    and the narrowing conversion down, so the result's lower bound is
//!    `≤ lo − e ≤ S`. The upper bound is symmetric.
//!
//! Sharing `T` costs tightness, not soundness: `e` grows by about
//! `wmax_i / |w_ij|` over the bound an output would get from its own
//! weights — a factor of 3–4 on trained layers, from about `2⁻⁴⁰` relative
//! to the sum against an `f32` half-ulp of `2⁻²⁵`, so the rounded result
//! almost never moves. What it gives up is exactness for outputs that meet
//! a single *non-zero weight* inside a longer list (a column of an identity
//! matrix): those are now one `f32` step wide of the exact product. Lists
//! with at most one term have `adds = 0` and stay exact up to the final
//! conversion.
//!
//! `J` is every output that *could* share the list, not only those that are
//! computed: when a GEMM computes only a row's live columns (the outputs
//! over ReLU neurons that are not stably off), `wmax_i` still spans the whole
//! row `i` of `B`. A bound over fewer weights would be sound too, and
//! tighter, but every live output would then differ, bit for bit, from the
//! same output of the full product — and a non-finite weight in a column
//! nobody computes would no longer send the list to the chain.
//!
//! # Covering the network's own arithmetic ([`WideRun`])
//!
//! The sums above are expression algebra: their exact value is what has to
//! be enclosed. The forward interval pass is different — its sum
//! `b + Σ w_i·x_i` is a layer of the network, which inference evaluates in
//! `F` itself, and the bounds of a *float* network (paper §4.1) have to hold
//! what that evaluation returns. Inference is the recursion
//! `ŝ_0 = b`, `ŝ_i = fl(ŝ_{i−1} + w_i·x̂_i)` — terms in feeding order, one
//! fused multiply-add each, round-to-nearest — for a point `x̂` of the box.
//! **That recursion is all the rule covers**: not another summation order,
//! not a product rounded on its own before the addition (whose `u·|w_i·x̂_i|`
//! is in no term below), not a directed rounding mode. The per-step chain
//! this replaces enclosed all of those; what it bought with that is in the
//! last paragraph.
//!
//! Each step errs by at most `u·|ŝ_i| + η` (`u = F::EPSILON / 2`, `η` half
//! the smallest subnormal, for a result that underflows), so the *drift*
//! `D = |ŝ_t − s_t|` from the exact sum at the same point obeys Higham's
//! *running error bound* (§4.3) `D ≤ u·Σ|ŝ_i| + t·η`, and `|ŝ_i| ≤ M_i + D`
//! with `M_i = max(|lo_i|, |hi_i|)` over the exact prefix interval sums —
//! which are this accumulator's lanes after term `i`, to within `e`.
//! [`WideRun`] keeps `R = Σ_i max(|lo_i|, |hi_i|)` per lane and bounds the
//! drift by
//!
//! ```text
//! D = up( up(u · up(R + t·e)) / down(1 − 2·t·u) ) + t · 2η      // zero when R = 0
//! ```
//!
//! which widens the enclosure on top of `e`, and which [`WideRun::finish`]
//! also returns on its own (the layer's *round-off*: what an expression owes
//! when it is substituted through the layer as if the layer were exact).
//! Solving `D ≤ u·(R* + t·D) + t·η` gives `D ≤ (u·R* + t·η) / (1 − t·u)`; the
//! computed `R + t·e` falls short of `R*` by at most its own `t` additions'
//! `t·2⁻⁵³`, which the second `t·u` in the denominator more than returns, and
//! `t·u ≤ ¼` is asserted. A term the caller skipped (exact-zero input) is an
//! exact step of inference too, and `R = 0` means every product was an exact
//! zero.
//!
//! *Overflow.* One relative error per step describes a step whose result is
//! finite. Every prefix has `|ŝ_i| ≤ M_i + D ≤ R + D`, so while
//! `up(R + t·e) + D ≤ F::MAX` none overflows (by induction: the exact value
//! of step `i`, computed from a finite `ŝ_{i−1}`, is below `F::MAX`, and
//! rounding to nearest does not carry it past). Beyond that the lane has no
//! result — inference may sit at an infinity that the exact sums came back
//! from — and the caller takes the per-step chain, whose directed `F`
//! arithmetic saturates where inference does. The test is on `R`, the sum of
//! the prefix magnitudes the accumulator has anyway, not on the largest of
//! them: it gives up early by a factor of at most `t`, at magnitudes no
//! trained layer comes near.
//!
//! Against the classical a-priori bound `γ_t·T` this is tighter by the
//! cancellation in the sum — `Σ M_i` grows like the partial sums, `t·T` like
//! their absolute values — and on the sums the forward pass meets (more than
//! a few terms, boxes that are narrow where round-off matters) it keeps the
//! enclosure inside the per-step chain's. That is measured, not proven: a
//! sum of one or two terms can come out a step wider than the chain's, whose
//! first steps are exact, and on a wide box each side pays for the larger of
//! the two prefix magnitudes.
//!
//! # Interval × interval: one directed bound ([`WideBound`])
//!
//! Concretization substitutes *interval* bounds `b_i` for the variables of an
//! expression with interval coefficients `a_i` and keeps one side of the
//! result: the lower bound of the lower expression, the upper bound of the
//! upper one. Both operands are `F` intervals, so all four endpoint products
//! are exact in `f64` and the rule carries over with the interval product in
//! place of `a_i · w_i` and the list's one output owning its `T`. For the
//! lower bound, from a scalar start `c` (exact-zero coefficients `a_i`
//! already skipped by the caller):
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
//! # Both sides of one sum ([`WideSum`])
//!
//! The ReLU substitution step adds, into one interval constant `c`, interval
//! products `a_i · b_i` and — for a coefficient that straddles zero — a
//! single endpoint of such a product, the same number on both sides.
//! [`WideSum`] is [`WideBound`] kept two-sided for that: `lo` starts at
//! `c.lo` and takes the `min` of the four corner products of every term,
//! `hi` starts at `c.hi` and takes the `max`; an *endpoint* term adds the
//! `min` (or, on request, the `max`) to both. `T` starts at
//! `max(|c.lo|, |c.hi|)` and takes `max|a_i| · max|b_i|` for either kind of
//! term, `adds = max(t − 1 + [c ≠ 0], 0)`, and the result is
//! `[down_F(down(lo − e)), up_F(up(hi + e))]`. The argument above applies to
//! each side as written: an endpoint is a corner product, exact and bounded
//! by the same `T_i`.
//!
//! *The masked add.* Whether a product is a term at all can be a property of
//! its operands that a branch predictor gets wrong every other time — the
//! ReLU step skips a term whose intercept is an exact zero.
//! [`WideSum::mul_add_if`] takes the decision as data: `lo += take ? min :
//! −0.0`, `hi += take ? max : −0.0`, `T += take ? max|a| · max|b| : +0.0`,
//! count `+= take`. Both constants are the identity of the addition they
//! enter, bit for bit: `x + (−0.0)` is `x` for every `x` under
//! round-to-nearest — `−0.0` itself included, which `+0.0` would turn into
//! `+0.0` — and `T`, a sum of magnitudes from a magnitude, is never `−0.0`,
//! so `T + (+0.0)` is `T`. A term that is not taken therefore leaves the two
//! sums, `T` and `adds` as the branching form leaves them, whatever its
//! operands (its products are computed and dropped, a NaN among them
//! included), and the result is the same interval.
//!
//! # Example
//!
//! ```
//! use gpupoly_interval::wide::{max_mag, WideAcc, WideMag, WideTerm};
//! use gpupoly_interval::Itv;
//!
//! // Two dot products at once: [0.1, 0.2]·3 + [-1, 1]·w for w ∈ {2, -4}.
//! let terms = [
//!     (WideTerm::new(Itv::new(0.1_f32, 0.2)), [3.0_f32, 3.0]),
//!     (WideTerm::new(Itv::new(-1.0_f32, 1.0)), [2.0, -4.0]),
//! ];
//! let mut mag = WideMag::new::<f32>(&[]);
//! let mut acc = WideAcc::<2>::new::<f32>(&[]);
//! for (a, w) in &terms {
//!     mag.add(*a, max_mag(w)); // once per term, for both outputs
//!     acc.mul_add(*a, w);
//! }
//! let e = mag.finish().expect("finite operands");
//! let y: Itv<f32> = acc.finish(1, e);
//! assert!(y.lo <= 0.3 - 4.0 && y.hi >= 0.6 + 4.0);
//! assert!(y.hi - y.lo < 8.31);
//! ```

use crate::{round, Fp, Itv};

/// `max(|lo|, |hi|)`, or `+inf` when either bound is not finite — NaN
/// included, which a plain `max` would drop — so a bad operand always makes
/// the magnitude sum non-finite.
#[inline(always)]
fn mag_or_inf(lo: f64, hi: f64) -> f64 {
    let (lo, hi) = (lo.abs(), hi.abs());
    // One test for both: the sum is `+inf` or NaN exactly when a bound is
    // (the operands are widened `F` values: two of them cannot overflow).
    if lo + hi < f64::INFINITY {
        lo.max(hi) // not a compare-and-pick: that compiles to a data-dependent branch
    } else {
        f64::INFINITY
    }
}

/// The largest magnitude among `ws`, or `+inf` when one of them is `±inf` or
/// NaN (zero for an empty slice): the `wmax` of a term whose weights, one
/// per output sharing the term list, are `ws`.
#[inline]
pub fn max_mag<F: Fp>(ws: &[F]) -> f64 {
    // A GEMM launch takes this over every row of `B`, so it is written for
    // the vector unit: `K` independent lanes instead of one running maximum
    // (a chain of dependent compares), and no test inside the loop. `max`
    // keeps an infinity but drops a NaN; `poison` keeps both: `w · 0` is NaN
    // for either and a zero for every finite `w`.
    const K: usize = 8;
    let (mut max, mut poison) = ([F::ZERO; K], [F::ZERO; K]);
    let mut take = |j: usize, w: F| {
        let w = w.abs();
        max[j] = if w > max[j] { w } else { max[j] };
        poison[j] += w * F::ZERO;
    };
    let blocks = ws.chunks_exact(K);
    for (j, &w) in blocks.remainder().iter().enumerate() {
        take(j, w);
    }
    for block in blocks {
        for (j, &w) in block.iter().enumerate() {
            take(j, w);
        }
    }
    max_of_lanes(max, poison)
}

/// The end of [`max_mag`] and [`max_mag_blocked`]: the largest of the lanes'
/// maxima, or `+inf` when a lane met an infinity or a NaN.
#[inline(always)]
fn max_of_lanes<F: Fp, const K: usize>(max: [F; K], poison: [F; K]) -> f64 {
    let (mut all, mut bad) = (F::ZERO, F::ZERO);
    for j in 0..K {
        all = if max[j] > all { max[j] } else { all };
        bad += poison[j];
    }
    if bad.is_nan() || !all.is_finite() {
        f64::INFINITY
    } else {
        all.to_f64()
    }
}

/// [`max_mag`] written for long runs — a row of a GEMM's `B` — and for any
/// vector width: `K` lanes, and the remainder as one more block padded with
/// zeros, which change neither the maximum nor the poison, so that the loop
/// has one shape and a kernel compiled for a wider instruction set scans at
/// its width (it is always inlined). The same value as [`max_mag`]: the
/// largest magnitude does not depend on the lane that held it. On a short
/// run the padded block costs more than [`max_mag`]'s remainder loop.
#[inline(always)]
pub fn max_mag_blocked<F: Fp, const K: usize>(ws: &[F]) -> f64 {
    let (mut max, mut poison) = ([F::ZERO; K], [F::ZERO; K]);
    let (blocks, rest) = ws.as_chunks::<K>();
    let mut last = [F::ZERO; K];
    last[..rest.len()].copy_from_slice(rest);
    for block in blocks.iter().chain([&last]) {
        for j in 0..K {
            let w = block[j].abs();
            max[j] = if w > max[j] { w } else { max[j] };
            poison[j] += w * F::ZERO;
        }
    }
    max_of_lanes(max, poison)
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

    /// `true` when both bounds are finite.
    #[inline(always)]
    pub fn is_finite(&self) -> bool {
        self.mag.is_finite()
    }

    /// The exact endpoints `(min, max)` of the interval product `self · b`:
    /// the extreme corner products, spelled `p < q ? p : q` and
    /// `p > q ? p : q`. Meaningful for finite operands only.
    #[inline(always)]
    pub fn product(self, b: WideTerm) -> (f64, f64) {
        let min = |p: f64, q: f64| if p < q { p } else { q };
        let max = |p: f64, q: f64| if p > q { p } else { q };
        let (p1, p2) = (self.lo * b.lo, self.lo * b.hi);
        let (p3, p4) = (self.hi * b.lo, self.hi * b.hi);
        (min(min(p1, p2), min(p3, p4)), max(max(p1, p2), max(p3, p4)))
    }
}

/// `v` for `take`, `idle` otherwise, chosen on the bit patterns. Written
/// `if take { v } else { idle }` the same function compiles to a jump on
/// `take` — x86-64 has no conditional move between float registers — which
/// is what the masked adds are there to avoid.
#[inline(always)]
fn keep_if(take: bool, v: f64, idle: f64) -> f64 {
    let keep = u64::from(take).wrapping_neg();
    f64::from_bits((v.to_bits() & keep) | (idle.to_bits() & !keep))
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

/// Terms one list may count: the limit [`widening`] asserts, plus the one
/// addition that does not round.
const MAX_TERMS: f64 = ((1u64 << 32) + 1) as f64;

/// [`WideMag::finish`]'s bound for a *finite* `T` over `terms` fed terms
/// (a count, exact in `f64`), bit for bit, written without a branch so that
/// a loop over lists vectorizes: `up(T · adds · 2⁻⁵²)` as [`round::mul_up`] takes it — zero
/// for a zero factor, the other factor for a factor of one, the product one
/// step up otherwise, which for a product that is `+0` or positive and
/// finite is the next bit pattern. (`adds · 2⁻⁵²` is never one under
/// [`MAX_TERMS`].)
#[inline(always)]
fn bound_of(t: f64, terms: f64) -> f64 {
    let adds = if terms > 1.0 { terms - 1.0 } else { 0.0 };
    let factor = adds * f64::EPSILON;
    let up = f64::from_bits((t * factor).to_bits() + 1);
    let up = if t == 1.0 { factor } else { up };
    if adds == 0.0 || t == 0.0 {
        0.0
    } else {
        up
    }
}

/// The error bound of one term list, shared by every output summed over it:
/// how far [`WideAcc::finish`] moves both sums outward before narrowing.
/// Only [`WideMag::finish`] makes one.
#[derive(Copy, Clone, Debug)]
pub struct Widening(f64);

impl Widening {
    /// The rule's epilogue, `[down_F(down(lo − e)), up_F(up(hi + e))]`, for
    /// the two sums of one output of the list this bound was made for; a
    /// zero bound — no addition rounded, or only zeros were summed — moves
    /// nothing before the narrowing, the sign of a zero included.
    #[inline(always)]
    fn enclose<F: Fp>(self, lo: f64, hi: f64) -> Itv<F> {
        // `round::sub_down(lo, e)` and `round::add_up(hi, e)` for an `e` that
        // is `+0` or positive, bit for bit, without their branches — the one
        // `std`'s `next_down` takes on the sign of its argument is as good
        // as random here. Subtracting `+0` moves nothing, the sign of a zero
        // included, which adding it to `-0` would; hence the upper side as
        // the mirror image of the lower, `up(hi + e) = -down(-hi - e)`. A
        // zero sum plus `e` is exact and takes no step (`add_up`'s rule).
        let e = self.0;
        let lo = (lo - e).next_down_if(e > 0.0);
        let hi = -(-hi - e).next_down_if((e > 0.0) & (hi != 0.0));
        Itv {
            lo: round::from_f64_down(lo),
            hi: round::from_f64_up(hi),
        }
    }

    /// The rule's epilogue of `lo[j]` and `hi[j]` into `out[j]` for every
    /// lane of `out`, in one loop: a GEMM row's over its blocks' sums
    /// ([`WideAcc::into_sums`]). Panics when `lo` or `hi` is shorter.
    #[inline(always)]
    pub fn enclose_lanes<F: Fp>(self, lo: &[f64], hi: &[f64], out: &mut [Itv<F>]) {
        let (lo, hi) = (&lo[..out.len()], &hi[..out.len()]);
        for ((v, &lo), &hi) in out.iter_mut().zip(lo).zip(hi) {
            *v = self.enclose(lo, hi);
        }
    }
}

/// The magnitude sum `T` of one term list and the count of its additions —
/// the half of the rule that is taken once per list, whatever the number of
/// outputs ([`WideAcc`] lanes) that stream the list afterwards. Feed it the
/// list's terms exactly as the accumulators get them; see the module docs.
#[derive(Copy, Clone, Debug)]
pub struct WideMag {
    t: f64,
    /// Additions that can round: every fed term, plus a non-zero start.
    rounded: usize,
}

impl WideMag {
    /// Starts `T` at the largest magnitude among `init`, the initial values
    /// of the outputs sharing the list (the accumulating GEMM's `C` row;
    /// empty for outputs that start at exact zero).
    #[inline]
    pub fn new<F: Fp>(init: &[Itv<F>]) -> Self {
        debug_assert!(F::EXACT_IN_F64, "wide accumulation needs exact products");
        let t = init.iter().fold(0.0, |m, c| {
            mag_or_inf(m, mag_or_inf(c.lo.to_f64(), c.hi.to_f64()))
        });
        Self {
            t,
            rounded: usize::from(t != 0.0),
        }
    }

    /// Counts the term `a`, which no output multiplies by a weight larger in
    /// magnitude than `wmax`: [`max_mag`] of its weights — or, when there is
    /// one, its plain magnitude, since an infinite or NaN `wmax` leaves `T`
    /// not finite either way. The caller skips exact-zero coefficients
    /// *before* calling (the kernels' mandatory zero-skip): every call counts
    /// as a term of the error bound.
    #[inline(always)]
    pub fn add(&mut self, a: WideTerm, wmax: f64) {
        self.t += a.mag * wmax;
        self.rounded += 1;
    }

    /// [`WideMag::add`] for `take`, nothing otherwise — as a select
    /// ([`keep_if`]), not a branch: `T` takes the product or `+0.0`, which
    /// leaves it as it is (it is never negative, so never `-0.0`), and the
    /// count takes `take`.
    #[inline(always)]
    fn add_if(&mut self, take: bool, a: WideTerm, wmax: f64) {
        self.t += keep_if(take, a.mag * wmax, 0.0);
        self.rounded += usize::from(take);
    }

    /// The list's error bound, or `None` when an operand was not finite (the
    /// caller then falls back to the per-step [`Itv::mul_add_f`] chain for
    /// every output of the list).
    ///
    /// # Panics
    ///
    /// Panics when more than `2³²` terms were counted.
    #[inline]
    pub fn finish(&self) -> Option<Widening> {
        if !self.t.is_finite() {
            return None;
        }
        let adds = self.rounded.saturating_sub(1);
        Some(Widening(if adds > 0 {
            widening(self.t, adds)
        } else {
            0.0
        }))
    }
}

/// `N` interval×scalar dot products over one term list, accumulated in
/// `f64`; see the module docs for the rule and its soundness proof. The
/// error bound is not kept per lane: it comes from the list's [`WideMag`].
#[derive(Copy, Clone, Debug)]
pub struct WideAcc<const N: usize> {
    lo: [f64; N],
    hi: [f64; N],
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
        };
        for (j, c) in init.iter().enumerate() {
            acc.lo[j] = c.lo.to_f64();
            acc.hi[j] = c.hi.to_f64();
        }
        acc
    }

    /// Lane `j` accumulates `a · w[j]`.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // one index over three lane arrays
    pub fn mul_add<F: Fp>(&mut self, a: WideTerm, w: &[F; N]) {
        for j in 0..N {
            let wj = w[j].to_f64();
            let (p, q) = (a.lo * wj, a.hi * wj);
            self.lo[j] += if p < q { p } else { q };
            self.hi[j] += if p > q { p } else { q };
        }
    }

    /// [`WideAcc::mul_add`] over weights that come widened (`F` → `f64` is
    /// exact), so a launch converts its weights once: the same operations
    /// per lane, so the same bits.
    #[inline(always)]
    pub fn mul_add_wide(&mut self, a: WideTerm, w: &[f64; N]) {
        for (j, &w) in w.iter().enumerate() {
            let (p, q) = (a.lo * w, a.hi * w);
            self.lo[j] += if p < q { p } else { q };
            self.hi[j] += if p > q { p } else { q };
        }
    }

    /// The sound enclosure of lane `j` under the error bound `e` of the term
    /// list the lane was fed.
    // Never inlined: next to a lane loop it pairs a lane's `lo` and `hi`.
    #[inline(never)]
    pub fn finish<F: Fp>(&self, j: usize, e: Widening) -> Itv<F> {
        e.enclose(self.lo[j], self.hi[j])
    }

    /// The lanes' sums, lower and upper, by value ([`Widening::enclose_lanes`]).
    #[inline(always)]
    pub fn into_sums(self) -> ([f64; N], [f64; N]) {
        (self.lo, self.hi)
    }
}

/// [`WideAcc`] with its lanes in memory and their number chosen at run time,
/// for kernels that *scatter*: the sums of every output of one kernel row,
/// `group` consecutive lanes to a term list, and beside them each list's
/// half of [`WideMag`] — its `T` and its count of terms. The caller owns the
/// mapping from outputs to lanes and feeds each lane, and each list, its
/// terms in the list's order; between two lanes the order is free, which is
/// what lets a kernel visit a *term* once and add it to every output it
/// reaches.
///
/// Terms go in as fixed-width blocks — `N` consecutive lanes held in
/// registers over a run of terms ([`WideRow::mul_add`]), `M` consecutive
/// lists ([`WideRow::count`]) — so that a kernel's lane loop has one shape
/// however its runs fall. A block may reach `reach` lanes and lists past
/// the row's last (they are storage only). What a block adds to a lane
/// outside the caller's run must change nothing, and `a · 0.0` for a finite
/// term does not: it is `±0.0`, and a sum starts at `+0.0` and is never
/// `-0.0` after an addition (round-to-nearest gives `x + (-x) = +0.0`), so
/// `x ± 0.0` is `x`. Hence blocks take finite terms only; a term that is not
/// finite leaves its lists without a bound ([`WideRow::unbind`]). Per lane
/// the operations are [`WideAcc::mul_add`]'s, per list [`WideMag::add`]'s,
/// so the bits are.
#[derive(Clone, Debug)]
pub struct WideRow {
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Per list, `T` and the terms fed (a count, exact in `f64`).
    t: Vec<f64>,
    terms: Vec<f64>,
    /// Scratch of [`WideRow::finish`]: every output lane's bound, one output
    /// row's lists' bounds, and the output lists without one.
    e: Vec<f64>,
    bounds: Vec<f64>,
    unbounded: Vec<usize>,
    group: usize,
}

impl WideRow {
    /// `lists` term lists of `group` lanes each, every sum at exact zero,
    /// blocks reaching up to `reach` lanes (or lists) past the last.
    pub fn new(lists: usize, group: usize, reach: usize) -> Self {
        let lanes = lists * group;
        Self {
            lo: vec![0.0; lanes + reach],
            hi: vec![0.0; lanes + reach],
            t: vec![0.0; lists + reach],
            terms: vec![0.0; lists + reach],
            e: Vec::new(),
            bounds: Vec::new(),
            unbounded: Vec::new(),
            group,
        }
    }

    /// Lanes `at..at + N` take `terms` in order, lane `at + j` accumulating
    /// `a · w[j]` for every term `(a, w)`, with the block held in registers
    /// across the run. The weights come widened (`F` → `f64` is exact), so a
    /// launch converts its weights once. The terms must be finite.
    ///
    /// # Panics
    ///
    /// Panics when the block leaves the row's lanes and their reach.
    #[inline(always)]
    pub fn mul_add<'w, const N: usize>(
        &mut self,
        at: usize,
        terms: impl IntoIterator<Item = (WideTerm, &'w [f64; N])>,
    ) {
        let lo = self.lo[at..].first_chunk_mut::<N>().expect("a lane block");
        let hi = self.hi[at..].first_chunk_mut::<N>().expect("a lane block");
        let mut acc = WideAcc { lo: *lo, hi: *hi };
        for (a, w) in terms {
            debug_assert!(a.is_finite(), "a block takes finite terms");
            acc.mul_add_wide(a, w);
        }
        (*lo, *hi) = (acc.lo, acc.hi);
    }

    /// Lists `at..at + M` count `terms` in order: list `at + j` adds the
    /// term `(a, wmax)` with `wmax[j]` ([`WideMag::add`]) where `real[j]` is
    /// one, and nothing where it is zero (there `wmax[j]` must be zero too).
    /// The terms must be finite.
    ///
    /// # Panics
    ///
    /// Panics when the block leaves the row's lists and their reach.
    #[inline(always)]
    pub fn count<'w, const M: usize>(
        &mut self,
        at: usize,
        terms: impl IntoIterator<Item = (WideTerm, &'w [f64; M])>,
        real: &[f64; M],
    ) {
        let t = self.t[at..].first_chunk_mut::<M>().expect("a list block");
        let counts = self.terms[at..]
            .first_chunk_mut::<M>()
            .expect("a list block");
        let (mut sum, mut fed) = (*t, 0.0);
        for (a, wmax) in terms {
            for j in 0..M {
                sum[j] += a.mag * wmax[j];
            }
            fed += 1.0;
        }
        *t = sum;
        for j in 0..M {
            counts[j] += fed * real[j];
        }
    }

    /// Lists `at..at + lists` have met a term that is not finite: they have
    /// no bound, whatever else they are fed.
    ///
    /// # Panics
    ///
    /// Panics when the lists leave the row's.
    #[inline]
    pub fn unbind(&mut self, at: usize, lists: usize) {
        self.t[at..at + lists].fill(f64::INFINITY);
    }

    /// The sound enclosures of the row's lists into `out`, and the row back
    /// at exact zero for the next. `out` holds rows of `width` lists, row
    /// `r`'s list `b` being the row's list `r·stride + first + b` — the lists
    /// between, and `first` more after the last row, are the caller's
    /// scratch and are dropped (and zeroed with the rest). First every list's
    /// bound — [`WideMag::finish`]'s, bit for bit, computed without a branch
    /// so that the loop over a row's lists vectorizes — then every lane's
    /// enclosure under its list's bound, lane after lane. A list nobody fed
    /// has the bound zero
    /// over sums at `+0.0`, so its lanes are exact `[+0, +0]`. The lists of
    /// `out` whose `T` is not finite are handed to `unbounded(list, lanes)`
    /// last, to be recomputed on the per-step chain.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not whole rows, or they leave the row's lists.
    #[inline(always)]
    pub fn finish<F: Fp>(
        &mut self,
        out: &mut [Itv<F>],
        (width, stride, first): (usize, usize, usize),
        mut unbounded: impl FnMut(usize, &mut [Itv<F>]),
    ) {
        let group = self.group;
        assert!(
            out.len().is_multiple_of(width * group),
            "whole rows of lists"
        );
        let rows = out.len() / (width * group);
        self.e.resize(out.len(), 0.0);
        self.bounds.resize(width, 0.0);
        self.unbounded.clear();
        for (r, e) in self.e.chunks_exact_mut(width * group).enumerate() {
            let at = r * stride + first;
            let (t, terms) = (&self.t[at..at + width], &self.terms[at..at + width]);
            // Lane-wise over the row's lists, so without a branch.
            let (mut finite, mut counted) = (true, true);
            for ((bound, &t), &terms) in self.bounds.iter_mut().zip(t).zip(terms) {
                *bound = bound_of(t, terms);
                finite &= t.is_finite();
                counted &= terms <= MAX_TERMS;
            }
            assert!(counted, "wide accumulation over too many terms");
            if !finite {
                let unbounded = t.iter().enumerate().filter(|(_, t)| !t.is_finite());
                self.unbounded.extend(unbounded.map(|(b, _)| r * width + b));
            }
            if group == 1 {
                e.copy_from_slice(&self.bounds);
            } else {
                for (e, &bound) in e.chunks_exact_mut(group).zip(&self.bounds) {
                    e.fill(bound);
                }
            }
        }
        let lanes = width * group;
        for (r, (out, e)) in out
            .chunks_exact_mut(lanes)
            .zip(self.e.chunks_exact(lanes))
            .enumerate()
        {
            let at = (r * stride + first) * group;
            let (lo, hi) = (&self.lo[at..at + lanes], &self.hi[at..at + lanes]);
            for (((v, &lo), &hi), &e) in out.iter_mut().zip(lo).zip(hi).zip(e) {
                *v = Widening(e).enclose(lo, hi);
            }
        }
        let lists = rows * stride + first;
        self.t[..lists].fill(0.0);
        self.terms[..lists].fill(0.0);
        self.lo[..lists * group].fill(0.0);
        self.hi[..lists * group].fill(0.0);
        for &q in &self.unbounded {
            unbounded(q, &mut out[q * group..(q + 1) * group]);
        }
    }
}

/// [`WideAcc`] for sums the network itself evaluates in `F`: the layers of
/// the forward interval pass. Besides the exact sums it keeps, per lane, the
/// running sum of their magnitudes after every term, and its enclosure also
/// holds the result of the `F` recursion `fl(ŝ + w·x̂)` — fused, rounded to
/// nearest — from the same start over the same terms in the same order, for
/// every point `x̂` of the box, and of nothing else; see the module docs
/// ("Covering the network's own arithmetic").
#[derive(Copy, Clone, Debug)]
pub struct WideRun<const N: usize> {
    acc: WideAcc<N>,
    run: [f64; N],
    terms: usize,
}

impl<const N: usize> WideRun<N> {
    /// Starts lane `j` at `init[j]` (a layer's bias); lanes past
    /// `init.len()` start at exact zero.
    ///
    /// # Panics
    ///
    /// Panics when `init` is longer than `N`.
    #[inline(always)]
    pub fn new<F: Fp>(init: &[Itv<F>]) -> Self {
        Self {
            acc: WideAcc::new(init),
            run: [0.0; N],
            terms: 0,
        }
    }

    /// Lane `j` accumulates `a · w[j]`.
    #[inline(always)]
    pub fn mul_add<F: Fp>(&mut self, a: WideTerm, w: &[F; N]) {
        self.acc.mul_add(a, w);
        self.terms += 1;
        for j in 0..N {
            let (lo, hi) = (self.acc.lo[j].abs(), self.acc.hi[j].abs());
            self.run[j] += if lo > hi { lo } else { hi };
        }
    }

    /// The sound enclosure of lane `j` — of its exact sums and of what `F`
    /// inference makes of them — under the error bound `e` of the term list
    /// the lane was fed (finite operands, then: `e` exists), and next to it
    /// the bound `D` itself, rounded up: how far inference's result can lie
    /// from the exact sum over the point of the box it was given. `None`
    /// when the bound on the recursion's prefixes exceeds `F::MAX`: a prefix
    /// that overflows is not within a relative `u` of its exact value, the
    /// rule does not describe it, and the caller takes the per-step chain,
    /// whose `F` arithmetic saturates with inference's.
    ///
    /// # Panics
    ///
    /// Panics when the terms fed, times `F::EPSILON`, exceed one half.
    #[inline]
    pub fn finish<F: Fp>(&self, j: usize, e: Widening) -> Option<(Itv<F>, F)> {
        let mut drift = 0.0;
        if self.run[j] > 0.0 {
            let (t, u) = (self.terms as f64, F::EPSILON.to_f64() / 2.0);
            let tu = round::mul_up(t, u);
            assert!(tu <= 0.25, "float round-off bound over too many terms");
            let partials = round::add_up(self.run[j], round::mul_up(t, e.0));
            let relative =
                round::div_up(round::mul_up(u, partials), round::sub_down(1.0, 2.0 * tu));
            let smallest = F::MIN_POSITIVE.to_f64() * F::EPSILON.to_f64();
            drift = round::add_up(relative, round::mul_up(t, smallest));
            // `|ŝ_i| ≤ M_i + D ≤ R + D` for every prefix (finite operands:
            // the sums are).
            if round::add_up(partials, drift) > F::MAX.to_f64() {
                return None;
            }
        }
        let y = Widening(round::add_up(e.0, drift)).enclose(self.acc.lo[j], self.acc.hi[j]);
        Some((y, round::from_f64_up(drift)))
    }
}

/// One directed bound of `c + Σ a_i · b_i` over interval coefficients *and*
/// interval operands, accumulated in `f64`: the lower bound for
/// `UPPER = false`, the upper bound for `UPPER = true`. See the module docs
/// ("Interval × interval") for the rule and why it is sound. The sum is its
/// term list's only output, so it owns the list's [`WideMag`].
#[derive(Copy, Clone, Debug)]
pub struct WideBound<const UPPER: bool> {
    sum: f64,
    mag: WideMag,
}

impl<const UPPER: bool> WideBound<UPPER> {
    /// Starts the sum at the scalar `c` (an expression's constant bound).
    #[inline(always)]
    pub fn new<F: Fp>(c: F) -> Self {
        Self {
            sum: c.to_f64(),
            mag: WideMag::new(&[Itv { lo: c, hi: c }]),
        }
    }

    /// Accumulates this side's endpoint of the interval product `a · b`. The
    /// caller skips exact-zero coefficients `a` *before* calling: every call
    /// counts as a term of the error bound.
    #[inline(always)]
    pub fn mul_add(&mut self, a: WideTerm, b: WideTerm) {
        let (min, max) = a.product(b);
        self.sum += if UPPER { max } else { min };
        self.mag.add(a, b.mag);
    }

    /// The sound bound, or `None` when an operand was not finite (the caller
    /// then falls back to the per-step chain).
    ///
    /// # Panics
    ///
    /// Panics when more than `2³²` terms were accumulated.
    #[inline]
    pub fn finish<F: Fp>(&self) -> Option<F> {
        let y: Itv<F> = self.mag.finish()?.enclose(self.sum, self.sum);
        Some(if UPPER { y.hi } else { y.lo })
    }
}

/// Both sides of `c + Σ a_i · b_i` at once — [`WideBound`] kept two-sided,
/// for the constant of the ReLU substitution step. See the module docs
/// ("Both sides of one sum").
#[derive(Copy, Clone, Debug)]
pub struct WideSum {
    lo: f64,
    hi: f64,
    mag: WideMag,
}

impl WideSum {
    /// Starts the sum at the interval `c`.
    #[inline(always)]
    pub fn new<F: Fp>(c: Itv<F>) -> Self {
        Self {
            lo: c.lo.to_f64(),
            hi: c.hi.to_f64(),
            mag: WideMag::new(&[c]),
        }
    }

    /// Adds the interval product `a · b`: its exact lower endpoint below,
    /// its exact upper endpoint above.
    #[inline(always)]
    pub fn mul_add(&mut self, a: WideTerm, b: WideTerm) {
        let (min, max) = a.product(b);
        self.lo += min;
        self.hi += max;
        self.mag.add(a, b.mag);
    }

    /// [`WideSum::mul_add`] for `take`, nothing otherwise — as selects, not
    /// a branch, for callers whose mask is as good as random: both sums take
    /// their endpoint or `-0.0`, the additive identity of round-to-nearest
    /// (`x + -0.0` is `x` for every `x`, either zero included), and the
    /// magnitude sum takes its product or `+0.0` and the count takes `take`.
    /// A term that is not taken leaves no trace, whatever its operands.
    #[inline(always)]
    pub fn mul_add_if(&mut self, take: bool, a: WideTerm, b: WideTerm) {
        let (min, max) = a.product(b);
        self.lo += keep_if(take, min, -0.0);
        self.hi += keep_if(take, max, -0.0);
        self.mag.add_if(take, a, b.mag);
    }

    /// Adds one exact endpoint of `a · b` — the upper one for `upper`, else
    /// the lower — to both sides: a point, not an interval, enters the sum.
    #[inline(always)]
    pub fn add_endpoint(&mut self, a: WideTerm, b: WideTerm, upper: bool) {
        let (min, max) = a.product(b);
        let v = if upper { max } else { min };
        self.lo += v;
        self.hi += v;
        self.mag.add(a, b.mag);
    }

    /// The sound enclosure, or `None` when an operand was not finite (the
    /// caller then falls back to the per-step chain).
    ///
    /// # Panics
    ///
    /// Panics when more than `2³²` terms were accumulated.
    #[inline]
    pub fn finish<F: Fp>(&self) -> Option<Itv<F>> {
        Some(self.mag.finish()?.enclose(self.lo, self.hi))
    }
}

/// A lane's `max(|lo|, |hi|)` — [`mag_or_inf`] for finite bounds, bit for
/// bit — and NaN where [`mag_or_inf`] gives `+inf`, so that a sum it enters
/// is not finite either way. Written for a row block's lane loop: a packed
/// `max`, an add, a multiply and an add, no select (`s · 0` is `+0.0` for a
/// finite `s ≥ 0` and NaN otherwise, and adding `+0.0` to a magnitude
/// changes no bit).
#[inline(always)]
fn lane_mag(lo: f64, hi: f64) -> f64 {
    let (lo, hi) = (lo.abs(), hi.abs());
    (if lo > hi { lo } else { hi }) + (lo + hi) * 0.0
}

/// Per lane, the count `rounded += take` of [`WideMag::add_if`], in `f64` so
/// that it sits in a vector register beside the sums (exact below `2⁵³`).
#[inline(always)]
fn count_if(take: bool) -> f64 {
    keep_if(take, 1.0, 0.0)
}

/// `L` [`WideBound`]s side by side, one term list a lane: the lanes of a
/// *row block*, whose rows step through their coefficients together, lane
/// `j` adding its own row's term at each step. Nothing is shared between
/// lanes — each has its own sum, `T` and count — so a lane's result is
/// [`WideBound`]'s over the same list, bit for bit, whatever its neighbours
/// hold; and a lane has no result exactly where [`WideBound`] has none. The
/// caller's zero-skip is a mask ([`WideBounds::mul_add_nonzero`]), as in
/// [`WideSum::mul_add_if`], so that a step has one shape for every lane.
#[derive(Copy, Clone, Debug)]
pub struct WideBounds<const L: usize, const UPPER: bool> {
    sum: [f64; L],
    t: [f64; L],
    /// Additions that can round, per lane: a non-zero start, then every
    /// term taken.
    rounded: [f64; L],
}

impl<const L: usize, const UPPER: bool> WideBounds<L, UPPER> {
    /// Starts lane `j` at the scalar `c[j]` ([`WideBound::new`]).
    #[inline(always)]
    pub fn new<F: Fp>(c: [F; L]) -> Self {
        let mut lanes = Self {
            sum: [0.0; L],
            t: [0.0; L],
            rounded: [0.0; L],
        };
        for (j, c) in c.into_iter().enumerate() {
            let mag = WideMag::new(&[Itv { lo: c, hi: c }]);
            (lanes.sum[j], lanes.t[j]) = (c.to_f64(), mag.t);
            lanes.rounded[j] = mag.rounded as f64;
        }
        lanes
    }

    /// Lane `j` accumulates this side's endpoint of `a[j] · b[j]`
    /// ([`WideBound::mul_add`]) where `a[j]` is not an exact zero, and
    /// nothing where it is: the sum takes `-0.0`, `T` takes `+0.0` and the
    /// count `0` — selects, not a branch, which leave no trace whatever the
    /// operands (module docs, "The masked add"). One loop over the lanes,
    /// widening included, so that it compiles to one packed operation per
    /// step of the rule.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // one index over the lane arrays
    pub fn mul_add_nonzero<F: Fp>(&mut self, a: &[Itv<F>; L], b: &[Itv<F>; L]) {
        for j in 0..L {
            let (lo, hi) = (a[j].lo.to_f64(), a[j].hi.to_f64());
            let (b_lo, b_hi) = (b[j].lo.to_f64(), b[j].hi.to_f64());
            let mag = lane_mag(lo, hi);
            let take = mag != 0.0;
            let (p1, p2) = (lo * b_lo, lo * b_hi);
            let (p3, p4) = (hi * b_lo, hi * b_hi);
            let v = if UPPER {
                let max = |p: f64, q: f64| if p > q { p } else { q };
                max(max(p1, p2), max(p3, p4))
            } else {
                let min = |p: f64, q: f64| if p < q { p } else { q };
                min(min(p1, p2), min(p3, p4))
            };
            self.sum[j] += keep_if(take, v, -0.0);
            self.t[j] += keep_if(take, mag * lane_mag(b_lo, b_hi), 0.0);
            self.rounded[j] += count_if(take);
        }
    }

    /// Lane `j` as row `at + j` of `rows`, this side: [`WideBound`]'s.
    #[inline(always)]
    pub fn store(self, rows: &mut RowSums, at: usize) {
        rows.put(usize::from(UPPER), at, [self.sum, self.t, self.rounded]);
    }
}

/// `L` interval×scalar dot products side by side, one term list and one
/// output a lane — [`WideAcc::<1>`](WideAcc) with its own [`WideMag`], `L`
/// times, for the rows of a row block (see [`WideBounds`]). At each step
/// every lane takes its own coefficient against one weight, the same for all
/// of them, and the caller's zero-skip is a mask.
#[derive(Copy, Clone, Debug)]
pub struct WideDots<const L: usize> {
    lo: [f64; L],
    hi: [f64; L],
    t: [f64; L],
    rounded: [f64; L],
}

impl<const L: usize> WideDots<L> {
    /// Starts lane `j` at `c[j]`, its magnitude sum at `c[j]`'s magnitude.
    #[inline(always)]
    pub fn new<F: Fp>(c: [Itv<F>; L]) -> Self {
        let mut lanes = Self {
            lo: [0.0; L],
            hi: [0.0; L],
            t: [0.0; L],
            rounded: [0.0; L],
        };
        for (j, c) in c.into_iter().enumerate() {
            let mag = WideMag::new(&[c]);
            (lanes.lo[j], lanes.hi[j]) = (c.lo.to_f64(), c.hi.to_f64());
            (lanes.t[j], lanes.rounded[j]) = (mag.t, mag.rounded as f64);
        }
        lanes
    }

    /// Lane `j` accumulates `a[j] · w` — [`WideAcc::mul_add`], and
    /// [`WideMag::add`] against `|w|` — where `a[j]` is not an exact zero,
    /// and nothing where it is, as [`WideBounds::mul_add_nonzero`] does.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // one index over the lane arrays
    pub fn mul_add_nonzero<F: Fp>(&mut self, a: &[Itv<F>; L], w: F) {
        let w = w.to_f64();
        for j in 0..L {
            let (lo, hi) = (a[j].lo.to_f64(), a[j].hi.to_f64());
            let mag = lane_mag(lo, hi);
            let take = mag != 0.0;
            let (p, q) = (lo * w, hi * w);
            self.lo[j] += keep_if(take, if p < q { p } else { q }, -0.0);
            self.hi[j] += keep_if(take, if p > q { p } else { q }, -0.0);
            self.t[j] += keep_if(take, mag * w.abs(), 0.0);
            self.rounded[j] += count_if(take);
        }
    }

    /// Lane `j` as row `at + j` of `rows`, both sides: [`WideAcc::finish`]'s.
    #[inline(always)]
    pub fn store(self, rows: &mut RowSums, at: usize) {
        rows.put(0, at, [self.lo, self.t, self.rounded]);
        rows.put(1, at, [self.hi, self.t, self.rounded]);
    }
}

/// The lanes of a launch's row blocks ([`WideBounds`], [`WideDots`]), each
/// side of a row with its own sum, `T` and count, for one lane-wise pass
/// apart from the lane loops, whose registers it would lay out.
#[derive(Clone, Debug)]
pub struct RowSums {
    /// Per side, the rows' sums, then their `T`, then their counts.
    lanes: Vec<f64>,
    rows: usize,
}

impl RowSums {
    /// `rows` rows, every side at exact zero with no term.
    pub fn new(rows: usize) -> Self {
        let lanes = vec![0.0; 6 * rows];
        Self { lanes, rows }
    }

    #[inline(always)]
    fn put<const L: usize>(&mut self, side: usize, at: usize, lanes: [[f64; L]; 3]) {
        for (k, lanes) in (3 * side..).zip(lanes) {
            let run = &mut self.lanes[k * self.rows..][..self.rows][at..];
            *run.first_chunk_mut().expect("lanes in the rows") = lanes;
        }
    }

    /// Row `r`'s enclosure into `out[r]` for every row of `out`, each side
    /// under its own bound ([`WideMag::finish`]'s, taken without a branch).
    /// Returns the rows with a side whose `T` is `+inf` or NaN: they have
    /// none. Panics when `out` has more rows than this, or a side with a
    /// bound took more than `2³²` terms.
    #[inline(always)]
    pub fn finish<F: Fp>(&self, out: &mut [Itv<F>]) -> impl Iterator<Item = usize> + '_ {
        let rows = out.len();
        let run = |k: usize| &self.lanes[k * self.rows..][..rows];
        let (lo, t_lo, n_lo, hi, t_hi, n_hi) = (run(0), run(1), run(2), run(3), run(4), run(5));
        let mut counted = true;
        for (r, v) in out.iter_mut().enumerate() {
            let lo = Widening(bound_of(t_lo[r], n_lo[r])).enclose::<F>(lo[r], lo[r]);
            let hi = Widening(bound_of(t_hi[r], n_hi[r])).enclose::<F>(hi[r], hi[r]);
            (v.lo, v.hi) = (lo.lo, hi.hi);
            counted &= !t_lo[r].is_finite() | (n_lo[r] <= MAX_TERMS);
            counted &= !t_hi[r].is_finite() | (n_hi[r] <= MAX_TERMS);
        }
        assert!(counted, "wide accumulation over too many terms");
        // `T` is never negative: the sum is finite exactly when both are.
        let finite = t_lo.iter().zip(t_hi).map(|(lo, hi)| (lo + hi).is_finite());
        (0..rows).zip(finite).filter(|&(_, f)| !f).map(|(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One output over its own term list, the way `dot_itv_f` drives the
    /// pair: exact-zero coefficients are the caller's to skip.
    fn dot(init: Option<Itv<f32>>, terms: &[(Itv<f32>, f32)]) -> Option<Itv<f32>> {
        let mut mag = WideMag::new(init.as_slice());
        let mut acc = WideAcc::<1>::new(init.as_slice());
        for &(a, w) in terms {
            mag.add(WideTerm::new(a), max_mag(&[w]));
            acc.mul_add(WideTerm::new(a), &[w]);
        }
        mag.finish().map(|e| acc.finish(0, e))
    }

    #[test]
    fn the_blocked_scan_is_max_mag_at_any_length_and_width() {
        let mut x = 7u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0
        };
        for len in [0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 33, 100, 784] {
            let mut ws: Vec<f32> = (0..len).map(|_| next()).collect();
            let mut cases = vec![ws.clone(), vec![-0.0; len]];
            for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                if let Some(w) = ws.last_mut() {
                    *w = bad;
                    cases.push(ws.clone());
                }
            }
            for ws in &cases {
                let want = max_mag(ws).to_bits();
                assert_eq!(max_mag_blocked::<f32, 4>(ws).to_bits(), want, "{ws:?}");
                assert_eq!(max_mag_blocked::<f32, 16>(ws).to_bits(), want, "{ws:?}");
            }
        }
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
    fn every_fed_term_counts_whatever_its_weight() {
        // One unit weight among zeros: the sum is exact, but the list has
        // three terms, so the result is one step wide of it on either side.
        let (a, b) = (Itv::new(0.1_f32, 0.2), Itv::point(0.7_f32));
        let y = dot(None, &[(b, 0.0), (a, 1.0), (b, -0.0)]).unwrap();
        assert_eq!((y.lo, y.hi), (a.lo.next_down(), a.hi.next_up()));
        // Zero magnitude sum: nothing to widen by, however many terms.
        assert_eq!(dot(None, &[(b, 0.0), (a, 0.0)]), Some(Itv::zero()));
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

    /// Sums to enclose: both zeros, subnormal edges, values past `f32::MAX`.
    #[rustfmt::skip]
    const SUMS: [f64; 16] = [
        0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 1e-300, -1e-300, 5e-324, -5e-324, 3.5e38, -3.5e38,
        f64::MAX, f64::MIN,
        1.401298464324817e-45, -7.006492321624085e-46, // 2⁻¹⁴⁹, -2⁻¹⁵⁰
    ];

    /// Bounds to enclose them under, zero first.
    const BOUNDS: [f64; 6] = [0.0, 5e-324, 1e-30, 0.25, 1e300, f64::MAX];

    #[test]
    fn the_epilogue_is_the_directed_operations_it_stands_for() {
        // `enclose` spells `sub_down`, `add_up` and their exact shortcuts
        // without branches; here they are with them.
        for e in BOUNDS {
            for lo in SUMS {
                for hi in SUMS {
                    let got: Itv<f32> = Widening(e).enclose(lo, hi);
                    // A zero bound moves nothing, the sign of a zero included.
                    let (down, up) = if e > 0.0 {
                        (round::sub_down(lo, e), round::add_up(hi, e))
                    } else {
                        (lo, hi)
                    };
                    let want: Itv<f32> = Itv {
                        lo: round::from_f64_down(down),
                        hi: round::from_f64_up(up),
                    };
                    assert_eq!(
                        (got.lo.to_bits(), got.hi.to_bits()),
                        (want.lo.to_bits(), want.hi.to_bits()),
                        "[{lo:e}, {hi:e}] widened by {e:e}: {got} != {want}"
                    );
                }
            }
        }
    }

    /// [`Widening::enclose_lanes`] over the sums of a `WideAcc<N>`, every
    /// pair of [`SUMS`] in every lane under every bound of [`BOUNDS`], the
    /// other lanes holding other pairs and `out` as long as the lanes up to
    /// it: each lane is the scalar epilogue's, bit for bit.
    fn lanes_are_the_scalar_epilogue<const N: usize>() {
        let pairs: Vec<(f64, f64)> = SUMS
            .iter()
            .flat_map(|&lo| SUMS.map(|hi| (lo, hi)))
            .collect();
        for e in BOUNDS.map(Widening) {
            for (p, &pair) in pairs.iter().enumerate() {
                for at in 0..N {
                    let lane = |j| match j == at {
                        true => pair,
                        false => pairs[(p + 7 * j + 1) % pairs.len()],
                    };
                    let acc = WideAcc::<N> {
                        lo: std::array::from_fn(|j| lane(j).0),
                        hi: std::array::from_fn(|j| lane(j).1),
                    };
                    let (lo, hi) = acc.into_sums();
                    let mut out = [Itv::point(9.0_f32); N];
                    e.enclose_lanes(&lo, &hi, &mut out[..=at]);
                    for (j, y) in out.iter().enumerate() {
                        let want: Itv<f32> = match j <= at {
                            true => e.enclose(lane(j).0, lane(j).1),
                            false => Itv::point(9.0),
                        };
                        assert_eq!(
                            (y.lo.to_bits(), y.hi.to_bits()),
                            (want.lo.to_bits(), want.hi.to_bits()),
                            "N {N}, lane {j} of {at}, {:?} under {e:?}",
                            lane(j)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_lane_wise_epilogue_is_the_scalar_one_in_every_lane() {
        lanes_are_the_scalar_epilogue::<1>();
        lanes_are_the_scalar_epilogue::<4>();
        lanes_are_the_scalar_epilogue::<8>();
        lanes_are_the_scalar_epilogue::<16>();
    }

    /// The rows `store` leaves in a [`RowSums`], finished: `None` if handed back.
    fn finished<const L: usize>(store: impl FnOnce(&mut RowSums)) -> [Option<Itv<f32>>; L] {
        let (mut sums, mut out) = (RowSums::new(L), [Itv::point(9.0); L]);
        store(&mut sums);
        let unbounded: Vec<usize> = sums.finish(&mut out).collect();
        std::array::from_fn(|r| (!unbounded.contains(&r)).then_some(out[r]))
    }

    /// Rows of a row block's lanes, `L` at a time, over every side from a
    /// grid of sums, `T` (`+inf` and NaN among them) and counts, finished by
    /// [`RowSums::finish`]: each side of a [`WideBounds`] lane is
    /// [`WideBound::finish`]'s over the same sum, `T` and count, each
    /// [`WideDots`] lane [`WideMag::finish`] and [`WideAcc::finish`]'s, and a
    /// row is handed back exactly where one of them has no result.
    fn row_lanes_are_their_lists<const L: usize>() {
        let ts = [0.0, 5e-324, 0.5, 1.0, 1.5, 1e300, f64::INFINITY, f64::NAN];
        let counts = [0.0, 1.0, 2.0, 3.0, 1000.0, MAX_TERMS];
        let sides: Vec<[f64; 3]> = (SUMS.iter().step_by(2))
            .flat_map(|&s| ts.iter().flat_map(move |&t| counts.map(|n| [s, t, n])))
            .collect();
        let side = |r: usize, upper: bool| sides[(r * if upper { 37 } else { 1 }) % sides.len()];
        let bits = |y: Option<f32>| y.map(f32::to_bits);
        for r0 in (0..sides.len()).step_by(L) {
            let lanes = |k: usize, upper| std::array::from_fn(|j| side(r0 + j, upper)[k]);
            let bounds = finished::<L>(|rows| {
                let lower = WideBounds::<L, false> {
                    sum: lanes(0, false),
                    t: lanes(1, false),
                    rounded: lanes(2, false),
                };
                let upper = WideBounds::<L, true> {
                    sum: lanes(0, true),
                    t: lanes(1, true),
                    rounded: lanes(2, true),
                };
                lower.store(rows, 0);
                upper.store(rows, 0);
            });
            let dots = finished::<L>(|rows| {
                let dots = WideDots::<L> {
                    lo: lanes(0, false),
                    hi: lanes(0, true),
                    t: lanes(1, false),
                    rounded: lanes(2, false),
                };
                dots.store(rows, 0)
            });
            for j in 0..L {
                let one = |upper: bool| {
                    let [sum, t, n] = side(r0 + j, upper);
                    let mag = WideMag {
                        t,
                        rounded: n as usize,
                    };
                    (
                        WideBound::<false> { sum, mag },
                        WideBound::<true> { sum, mag },
                        mag,
                    )
                };
                let (lower, upper) = (one(false).0.finish::<f32>(), one(true).1.finish::<f32>());
                let want = lower
                    .zip(upper)
                    .map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
                let got = bounds[j].map(|y| (y.lo.to_bits(), y.hi.to_bits()));
                assert_eq!(
                    got,
                    want,
                    "L {L}, row {}: {:?}",
                    r0 + j,
                    (bits(lower), bits(upper))
                );
                let (lo, hi) = (side(r0 + j, false)[0], side(r0 + j, true)[0]);
                let acc = WideAcc::<1> { lo: [lo], hi: [hi] };
                let want = one(false).2.finish().map(|e| acc.finish::<f32>(0, e));
                let got = dots[j].map(|y| (y.lo.to_bits(), y.hi.to_bits()));
                assert_eq!(
                    got,
                    want.map(|y| (y.lo.to_bits(), y.hi.to_bits())),
                    "L {L}, row {}: dot",
                    r0 + j
                );
            }
        }
    }

    #[test]
    fn row_sums_finish_each_lane_as_its_own_list() {
        row_lanes_are_their_lists::<1>();
        row_lanes_are_their_lists::<4>();
        row_lanes_are_their_lists::<8>();
        row_lanes_are_their_lists::<16>();
    }

    #[test]
    #[should_panic(expected = "wide accumulation over too many terms")]
    fn row_sums_panic_past_two_to_the_32_terms() {
        // Without a bound the count does not matter, as in `WideMag::finish`.
        let mut out = [Itv::<f32>::zero(); 1];
        let over = MAX_TERMS + 1.0;
        let mut rows = RowSums::new(1);
        rows.put(0, 0, [[1.0], [f64::INFINITY], [over]]);
        assert_eq!(rows.finish(&mut out).collect::<Vec<_>>(), [0]);
        rows.put(0, 0, [[1.0], [1.0], [over]]);
        let _ = rows.finish(&mut out).count();
    }

    #[test]
    fn the_branch_free_bound_is_the_lists_bound() {
        for t in [
            0.0,
            f64::MIN_POSITIVE * f64::EPSILON,
            1e-300,
            0.5,
            1.0,
            1.5,
            3e7,
            1e300,
        ] {
            for terms in [0.0, 1.0, 2.0, 3.0, 1000.0, 1048576.0, MAX_TERMS] {
                let want = WideMag {
                    t,
                    rounded: terms as usize,
                }
                .finish()
                .expect("finite");
                assert_eq!(
                    bound_of(t, terms).to_bits(),
                    want.0.to_bits(),
                    "T {t:e}, {terms} terms"
                );
            }
        }
    }

    #[test]
    fn a_row_of_lanes_sums_like_register_lanes() {
        let terms = [
            (Itv::new(0.1_f32, 0.2), [3.0_f32, -3.0, 0.0, 1e-3]),
            (Itv::new(-1.0_f32, 1.0), [2.0, -4.0, 0.5, -0.0]),
            (Itv::point(-0.7_f32), [1e10, 0.3, -0.25, 7.0]),
        ];
        let mut mag = WideMag::new::<f32>(&[]);
        let mut acc = WideAcc::<4>::new::<f32>(&[]);
        // Six lists of two lanes, read back as two rows of two lists three
        // apart from list 1 (lists 0 and 3 are scratch). List 1 and 2 — lanes
        // 2..6 — take the terms through a block of eight lanes whose last
        // four weights are zeros, so list 4 sees `±0.0` added; list 5 is
        // unbound, so it is handed back.
        let mut row = WideRow::new(6, 2, 8);
        let wide: Vec<[f64; 8]> = terms
            .iter()
            .map(|(_, w)| {
                let mut wide = [0.0; 8];
                wide[..4].copy_from_slice(&w.map(f64::from));
                wide
            })
            .collect();
        let wmax: Vec<[f64; 4]> = terms
            .iter()
            .map(|(_, w)| [max_mag(w), max_mag(w), 0.0, 0.0])
            .collect();
        for (a, w) in &terms {
            let a = WideTerm::new(*a);
            mag.add(a, max_mag(w));
            acc.mul_add(a, w);
        }
        let fed = || terms.iter().map(|&(a, _)| WideTerm::new(a));
        row.mul_add::<8>(2, fed().zip(&wide));
        row.count::<4>(1, fed().zip(&wmax), &[1.0, 1.0, 0.0, 0.0]);
        row.unbind(5, 1);
        let e = mag.finish().expect("finite operands");
        let mut got = [Itv::point(9.0_f32); 8];
        let mut handed = Vec::new();
        row.finish(&mut got, (2, 3, 1), |list, out| {
            handed.push((list, out.len()));
            out.fill(Itv::point(7.0));
        });
        assert_eq!(handed, [(3, 2)]);
        for (j, y) in got.iter().enumerate() {
            let want: Itv<f32> = match j {
                0..=3 => acc.finish(j, e),
                6.. => Itv::point(7.0),
                _ => Itv::zero(),
            };
            assert_eq!(
                (y.lo.to_bits(), y.hi.to_bits()),
                (want.lo.to_bits(), want.hi.to_bits()),
                "lane {j}"
            );
        }
        // A finished row is exact zeros again, whatever it held.
        let mut zeros = [Itv::point(9.0_f32); 8];
        row.finish(&mut zeros, (2, 3, 1), |list, _| {
            panic!("list {list} has no terms")
        });
        assert!(zeros
            .iter()
            .all(|z| z.lo.to_bits() == 0 && z.hi.to_bits() == 0));
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

    #[test]
    fn a_running_bound_holds_the_sum_as_f32_inference_computes_it() {
        // 1 + 8 · 2⁻²⁵ = 1 + 2⁻²², two steps above 1 — where f32 inference
        // stays, every increment being a quarter of its step.
        let start = Itv::point(1.0_f32);
        let terms = [(2f32.powi(-25), 1.0_f32); 8];
        let mut mag = WideMag::new(&[start]);
        let mut acc = WideAcc::<1>::new(&[start]);
        let mut run = WideRun::<1>::new(&[start]);
        for &(a, w) in &terms {
            mag.add(WideTerm::new(Itv::point(a)), max_mag(&[w]));
            acc.mul_add(WideTerm::new(Itv::point(a)), &[w]);
            run.mul_add(WideTerm::new(Itv::point(a)), &[w]);
        }
        let e = mag.finish().unwrap();
        let tight: Itv<f32> = acc.finish(0, e);
        let (float, drift): (Itv<f32>, f32) = run.finish(0, e).unwrap();
        assert!(float.contains_itv(tight) && float.width() < 10.0 * f32::EPSILON);
        let inference = terms.iter().fold(start.lo, |s, &(a, w)| a.mul_add(w, s));
        assert_eq!(inference, 1.0);
        assert!(float.contains(inference), "{float} misses {inference}");
        assert!(
            !tight.contains(inference),
            "the example should need the wider bound"
        );
        // The drift alone: inference is 2⁻²² short of the exact sum.
        assert!(2f32.powi(-22) <= drift && drift < 5.0 * f32::EPSILON);
        // Nothing summed, or nothing but exact zeros: nothing to cover.
        let e = WideMag::new(&[start]).finish().unwrap();
        let idle = WideRun::<1>::new(&[start]);
        assert_eq!(idle.finish::<f32>(0, e), Some((start, 0.0)));
        let mut run = WideRun::<1>::new::<f32>(&[]);
        run.mul_add(WideTerm::new(Itv::point(0.7_f32)), &[0.0_f32]);
        run.mul_add(WideTerm::new(Itv::point(0.1_f32)), &[-0.0_f32]);
        assert_eq!(run.finish::<f32>(0, e), Some((Itv::zero(), 0.0)));
    }

    #[test]
    fn a_running_bound_has_no_result_where_inference_could_overflow_on_the_way() {
        // MAX + MAX − MAX − MAX: the exact sums are finite and end at zero,
        // the f32 recursion is at +inf after the second term and stays.
        let terms = [
            (f32::MAX, 1.0_f32),
            (f32::MAX, 1.0),
            (f32::MAX, -1.0),
            (f32::MAX, -1.0),
        ];
        let run_over = |terms: &[(f32, f32)]| {
            let mut mag = WideMag::new::<f32>(&[]);
            let mut run = WideRun::<1>::new::<f32>(&[]);
            for &(a, w) in terms {
                mag.add(WideTerm::new(Itv::point(a)), max_mag(&[w]));
                run.mul_add(WideTerm::new(Itv::point(a)), &[w]);
            }
            run.finish::<f32>(0, mag.finish().expect("finite operands"))
        };
        let inference = terms.iter().fold(0.0_f32, |s, &(a, w)| a.mul_add(w, s));
        assert_eq!(inference, f32::INFINITY);
        assert_eq!(run_over(&terms), None);
        // Prefixes whose magnitudes sum to less than MAX are safe (the test
        // is on that sum, which the accumulator has, not on the largest).
        let (y, _) = run_over(&[(f32::MAX, 0.25), (f32::MAX, 0.25), (f32::MAX, -0.5)]).unwrap();
        assert!(y.contains(0.0) && y.width() < f32::MAX * f32::EPSILON);
    }

    #[test]
    fn max_mag_keeps_what_a_plain_max_drops() {
        assert_eq!(max_mag::<f32>(&[]), 0.0);
        assert_eq!(max_mag(&[0.5_f32, -2.0, 1.0]), 2.0);
        assert_eq!(max_mag(&[-0.0_f32, 0.0]), 0.0);
        // Long enough for the blocked path, with a remainder: the largest
        // magnitude wherever it sits, and any bad value anywhere.
        let long: Vec<f32> = (0..37).map(|i| (i as f32 - 20.0) * 0.25).collect();
        assert_eq!(max_mag(&long), 5.0);
        for at in 0..long.len() {
            let mut ws = long.clone();
            ws[at] = -7.5;
            assert_eq!(max_mag(&ws), 7.5, "at {at}");
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                ws[at] = bad;
                assert_eq!(max_mag(&ws), f64::INFINITY, "{bad} at {at}");
            }
        }
        // NaN first, last and in between; either infinity.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in 0..3 {
                let mut ws = [0.5_f32, -2.0, 1.0];
                ws[at] = bad;
                assert_eq!(max_mag(&ws), f64::INFINITY, "{ws:?}");
            }
        }
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
    fn a_two_sided_sum_is_its_two_bounds_and_an_endpoint_is_a_point() {
        let c = Itv::new(-0.25_f32, 0.5);
        let (a, b) = (Itv::new(-1.0_f32, 2.0), Itv::new(-3.0_f32, 0.5));
        let mut sum = WideSum::new(c);
        sum.mul_add(WideTerm::new(a), WideTerm::new(b));
        let y: Itv<f32> = sum.finish().unwrap();
        // corners: 3, -0.5, -6, 1.
        assert!(y.lo <= -6.25 && 3.5 <= y.hi);
        assert!(y.lo >= (-6.25_f32).next_down() && y.hi <= 3.5_f32.next_up());
        // The same product as an endpoint moves both sides by one number.
        for (upper, v) in [(false, -6.0_f32), (true, 3.0)] {
            let mut sum = WideSum::new(Itv::<f32>::zero());
            sum.add_endpoint(WideTerm::new(a), WideTerm::new(b), upper);
            assert_eq!(sum.finish::<f32>(), Some(Itv::point(v)));
        }
        // Non-finite operands: no result, a zero factor notwithstanding.
        let mut sum = WideSum::new(Itv::<f32>::zero());
        sum.add_endpoint(
            WideTerm::new(Itv::<f32>::top()),
            WideTerm::new(Itv::<f32>::zero()),
            true,
        );
        assert_eq!(sum.finish::<f32>(), None);
        assert_eq!(WideSum::new(Itv::<f32>::top()).finish::<f32>(), None);
    }

    /// splitmix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An `f32` from the corners of the format as often as from its middle:
    /// both zeros, subnormals, `MAX`, the infinities, NaN, and any pattern.
    fn wild(state: &mut u64) -> f32 {
        const NAMED: [f32; 12] = [
            0.0,
            -0.0,
            1e-45,
            -1e-40,
            f32::MIN_POSITIVE,
            1.0,
            -1.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let z = next(state);
        match z % 3 {
            0 => NAMED[(z >> 8) as usize % NAMED.len()],
            1 => ((z >> 40) as f32 / (1u64 << 23) as f32) - 1.0, // [-1, 1)
            _ => f32::from_bits((z >> 32) as u32),
        }
    }

    /// Bit for bit, except that a NaN is a NaN (payloads are no contract).
    fn same(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    #[test]
    fn masked_adds_are_the_branching_adds_bit_for_bit() {
        let mut state = 0x5eed_u64;
        let wild_itv = |state: &mut u64| {
            let (lo, hi) = (wild(state), wild(state));
            // Ordered when they can be, as they are not when one is a NaN.
            Itv {
                lo: if hi < lo { hi } else { lo },
                hi: if hi < lo { lo } else { hi },
            }
        };
        for case in 0..20_000 {
            let c = match case % 4 {
                0 => Itv::point(-0.0_f32),
                1 => Itv::<f32>::zero(),
                _ => wild_itv(&mut state),
            };
            let (mut masked, mut branching) = (WideSum::new(c), WideSum::new(c));
            let (mut mag_masked, mut mag_branching) = (WideMag::new(&[c]), WideMag::new(&[c]));
            for term in 0..next(&mut state) % 24 {
                let a = WideTerm::new(wild_itv(&mut state));
                let b = WideTerm::new(wild_itv(&mut state));
                let take = next(&mut state) & 1 == 0;
                masked.mul_add_if(take, a, b);
                mag_masked.add_if(take, a, b.mag);
                if take {
                    branching.mul_add(a, b);
                    mag_branching.add(a, b.mag);
                }
                assert!(
                    same(masked.lo, branching.lo)
                        && same(masked.hi, branching.hi)
                        && same(masked.mag.t, branching.mag.t)
                        && masked.mag.rounded == branching.mag.rounded,
                    "case {case}, term {term} (taken: {take}): {masked:?} != {branching:?}"
                );
                assert!(
                    same(mag_masked.t, mag_branching.t)
                        && mag_masked.rounded == mag_branching.rounded,
                    "case {case}, term {term} (taken: {take}): {mag_masked:?} != {mag_branching:?}"
                );
            }
            let (got, want) = (masked.finish::<f32>(), branching.finish::<f32>());
            assert_eq!(got.is_some(), want.is_some(), "case {case}");
            if let (Some(got), Some(want)) = (got, want) {
                assert_eq!(
                    (got.lo.to_bits(), got.hi.to_bits()),
                    (want.lo.to_bits(), want.hi.to_bits()),
                    "case {case}: {got} != {want}"
                );
            }
        }
    }

    /// The lanes of a row block against the one-list accumulators they
    /// stand for, over operands from every corner of the format: each lane
    /// of [`WideBounds`] is [`WideBound`] over its own non-zero terms, each
    /// lane of [`WideDots`] is [`WideAcc::<1>`](WideAcc) with its own
    /// [`WideMag`], bit for bit, and a lane has no result exactly where they
    /// have none — whatever the other lanes hold.
    #[test]
    fn row_block_lanes_are_their_own_lists_bit_for_bit() {
        const L: usize = 8;
        let mut state = 0xb10c_u64;
        let itv = |state: &mut u64| {
            let z = next(state);
            match z % 4 {
                0 => Itv::point(if z & 16 == 0 { 0.0_f32 } else { -0.0 }),
                1 => {
                    let lo = wild(state);
                    let hi = lo + (wild(state) * 0.5).abs();
                    Itv { lo, hi } // ordered, or NaN
                }
                _ => Itv {
                    lo: wild(state),
                    hi: wild(state),
                },
            }
        };
        let bits = |y: Option<f32>| y.map(f32::to_bits);
        let (mut unbounded, mut bounded) = (0, 0);
        for case in 0..4000 {
            let starts: [Itv<f32>; L] = std::array::from_fn(|_| match next(&mut state) % 4 {
                0 => Itv::point(-0.0),
                1 => Itv::zero(),
                _ => itv(&mut state),
            });
            let steps = (next(&mut state) % 12) as usize;
            // Per step, every lane's coefficient and bound, and the weight.
            type Step = ([Itv<f32>; L], [Itv<f32>; L], f32);
            let terms: Vec<Step> = (0..steps)
                .map(|_| {
                    let a = std::array::from_fn(|_| itv(&mut state));
                    let b = std::array::from_fn(|_| itv(&mut state));
                    (a, b, wild(&mut state))
                })
                .collect();
            let mut lo = WideBounds::<L, false>::new(starts.map(|c| c.lo));
            let mut hi = WideBounds::<L, true>::new(starts.map(|c| c.hi));
            let mut dots = WideDots::<L>::new(starts);
            for (a, b, w) in &terms {
                lo.mul_add_nonzero(a, b);
                hi.mul_add_nonzero(a, b);
                dots.mul_add_nonzero(a, *w);
            }
            let lo = finished::<L>(|rows| lo.store(rows, 0)).map(|y| y.map(|y| y.lo));
            let hi = finished::<L>(|rows| hi.store(rows, 0)).map(|y| y.map(|y| y.hi));
            let dots = finished::<L>(|rows| dots.store(rows, 0));
            for (j, c) in starts.into_iter().enumerate() {
                let mut one_lo = WideBound::<false>::new(c.lo);
                let mut one_hi = WideBound::<true>::new(c.hi);
                let (mut mag, mut acc) = (WideMag::new(&[c]), WideAcc::<1>::new(&[c]));
                for (a, b, w) in &terms {
                    let (a, b) = (WideTerm::new(a[j]), WideTerm::new(b[j]));
                    if !a.is_zero() {
                        one_lo.mul_add(a, b);
                        one_hi.mul_add(a, b);
                        mag.add(a, w.to_f64().abs());
                        acc.mul_add(a, &[*w]);
                    }
                }
                let what = format!("case {case}, lane {j}");
                assert_eq!(bits(lo[j]), bits(one_lo.finish()), "{what}: lower");
                assert_eq!(bits(hi[j]), bits(one_hi.finish()), "{what}: upper");
                let want = mag.finish().map(|e| acc.finish::<f32>(0, e));
                let got = dots[j];
                assert_eq!(
                    got.map(|y| (y.lo.to_bits(), y.hi.to_bits())),
                    want.map(|y| (y.lo.to_bits(), y.hi.to_bits())),
                    "{what}: dot"
                );
                match got {
                    Some(_) => bounded += 1,
                    None => unbounded += 1,
                }
            }
        }
        assert!(
            bounded > 1000 && unbounded > 1000,
            "{bounded} / {unbounded}"
        );
    }

    #[test]
    fn a_masked_term_leaves_no_trace() {
        // The two ways to get the identity wrong, each on the sum it shows
        // on: `+0.0` would turn a `-0.0` sum into `+0.0`, and a counted term
        // would widen a sum that has rounded nothing.
        let (a, b) = (Itv::point(0.5_f32), Itv::point(0.25_f32));
        let mut sum = WideSum::new(Itv::point(-0.0_f32));
        sum.mul_add_if(false, WideTerm::new(a), WideTerm::new(b));
        sum.mul_add_if(false, WideTerm::new(Itv::<f32>::top()), WideTerm::new(b));
        let y: Itv<f32> = sum.finish().expect("nothing was added");
        assert_eq!(y.lo.to_bits(), (-0.0_f32).to_bits());
        assert_eq!(y.hi.to_bits(), (-0.0_f32).to_bits());
        // One term on an exact zero: no addition rounds, the sum is exact.
        let mut sum = WideSum::new(Itv::<f32>::zero());
        sum.mul_add_if(false, WideTerm::new(a), WideTerm::new(b));
        sum.mul_add_if(true, WideTerm::new(a), WideTerm::new(b));
        sum.mul_add_if(false, WideTerm::new(b), WideTerm::new(b));
        assert_eq!(sum.finish::<f32>(), Some(Itv::point(0.125)));
    }

    #[test]
    fn widened_weights_sum_like_narrow_ones() {
        let terms = [
            (Itv::new(0.1_f32, 0.2), [3.0_f32, -3.0]),
            (Itv::new(-1.0_f32, 1.0), [-0.0, 1e-3]),
            (Itv::point(-0.7_f32), [1e10, f32::MIN_POSITIVE]),
        ];
        let init = [Itv::point(-0.0_f32), Itv::new(-1.0, 2.0)];
        let (mut narrow, mut wide) = (WideAcc::<2>::new(&init), WideAcc::<2>::new(&init));
        let mut mag = WideMag::new(&init);
        for (a, w) in &terms {
            let a = WideTerm::new(*a);
            mag.add(a, max_mag(w));
            narrow.mul_add(a, w);
            wide.mul_add_wide(a, &w.map(f64::from));
        }
        let e = mag.finish().expect("finite operands");
        for j in 0..2 {
            let (got, want): (Itv<f32>, Itv<f32>) = (wide.finish(j, e), narrow.finish(j, e));
            assert_eq!(
                (got.lo.to_bits(), got.hi.to_bits()),
                (want.lo.to_bits(), want.hi.to_bits()),
                "lane {j}"
            );
        }
    }

    #[test]
    fn lanes_are_independent() {
        let a = Itv::new(0.25_f32, 0.5);
        let b = Itv::point(-3.0_f32);
        let init = [Itv::point(2.0_f32)];
        let list = [(a, [2.0_f32, -2.0, 0.0]), (b, [0.5, 0.5, 0.5])];
        let mut mag = WideMag::new(&init);
        let mut wide = WideAcc::<3>::new(&init);
        for (a, w) in &list {
            mag.add(WideTerm::new(*a), max_mag(w));
            wide.mul_add(WideTerm::new(*a), w);
        }
        let e = mag.finish().unwrap();
        // exact lane sums: 2 + [.5, 1] − 1.5, [−1, −.5] − 1.5, −1.5.
        let want = [(1.0_f32, 1.5_f32), (-2.5, -2.0), (-1.5, -1.5)];
        for (j, (lo, hi)) in want.into_iter().enumerate() {
            let y: Itv<f32> = wide.finish(j, e);
            assert!(y.lo <= lo && hi <= y.hi, "lane {j}: {y}");
            assert!(
                y.lo >= lo.next_down() && y.hi <= hi.next_up(),
                "lane {j}: {y}"
            );
        }
        // One non-finite weight in any lane takes the whole list along.
        let mut mag = WideMag::new::<f32>(&[]);
        mag.add(WideTerm::new(a), max_mag(&[2.0_f32, f32::INFINITY]));
        assert!(mag.finish().is_none());
    }
}

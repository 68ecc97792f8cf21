//! Property-based soundness tests: every interval operation must contain the
//! result of the corresponding real operation on any members of its operand
//! intervals. We use f64 arithmetic as the (much more precise) reference for
//! f32 intervals, and exact rational reasoning where cheap.

use gpupoly_interval::wide::{WideAcc, WideBound, WideTerm};
use gpupoly_interval::{dot, round, Itv};
use proptest::prelude::*;

/// Finite, moderately sized floats — the regime verification operates in.
fn small_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1e6f32..1e6f32,
        -1.0f32..1.0f32,
        Just(0.0f32),
        Just(1.0f32),
        Just(-1.0f32),
    ]
}

fn itv_f32() -> impl Strategy<Value = Itv<f32>> {
    (small_f32(), small_f32()).prop_map(|(a, b)| Itv::new(a.min(b), a.max(b)))
}

/// A point inside an interval, parameterized by t in [0,1].
fn pick(i: Itv<f32>, t: f32) -> f32 {
    let x = i.lo as f64 + (i.hi as f64 - i.lo as f64) * t as f64;
    (x as f32).clamp(i.lo, i.hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scalar_directed_ops_bracket_f64(a in small_f32(), b in small_f32()) {
        let (ad, bd) = (a as f64, b as f64);
        prop_assert!((round::add_down(a, b) as f64) <= ad + bd);
        prop_assert!((round::add_up(a, b) as f64) >= ad + bd);
        prop_assert!((round::sub_down(a, b) as f64) <= ad - bd);
        prop_assert!((round::sub_up(a, b) as f64) >= ad - bd);
        prop_assert!((round::mul_down(a, b) as f64) <= ad * bd);
        prop_assert!((round::mul_up(a, b) as f64) >= ad * bd);
        if b != 0.0 {
            prop_assert!((round::div_down(a, b) as f64) <= ad / bd);
            prop_assert!((round::div_up(a, b) as f64) >= ad / bd);
        }
    }

    #[test]
    fn add_contains_member_sums(a in itv_f32(), b in itv_f32(), ta in 0.0f32..1.0, tb in 0.0f32..1.0) {
        let (x, y) = (pick(a, ta), pick(b, tb));
        let s = a + b;
        prop_assert!(s.to_f64().contains(x as f64 + y as f64),
            "{a}+{b}={s} misses {x}+{y}");
    }

    #[test]
    fn sub_contains_member_differences(a in itv_f32(), b in itv_f32(), ta in 0.0f32..1.0, tb in 0.0f32..1.0) {
        let (x, y) = (pick(a, ta), pick(b, tb));
        let d = a - b;
        prop_assert!(d.to_f64().contains(x as f64 - y as f64));
    }

    #[test]
    fn mul_contains_member_products(a in itv_f32(), b in itv_f32(), ta in 0.0f32..1.0, tb in 0.0f32..1.0) {
        let (x, y) = (pick(a, ta), pick(b, tb));
        let p = a * b;
        prop_assert!(p.to_f64().contains(x as f64 * y as f64),
            "{a}*{b}={p} misses {x}*{y}");
    }

    #[test]
    fn mul_f_contains_member_products(a in itv_f32(), f in small_f32(), t in 0.0f32..1.0) {
        let x = pick(a, t);
        let p = a.mul_f(f);
        prop_assert!(p.to_f64().contains(x as f64 * f as f64));
    }

    #[test]
    fn mul_add_f_contains_member_fma(a in itv_f32(), f in small_f32(), acc in itv_f32(),
                                     ta in 0.0f32..1.0, tc in 0.0f32..1.0) {
        let (x, c) = (pick(a, ta), pick(acc, tc));
        let r = a.mul_add_f(f, acc);
        prop_assert!(r.to_f64().contains(x as f64 * f as f64 + c as f64));
    }

    #[test]
    fn intervals_stay_ordered(a in itv_f32(), b in itv_f32()) {
        for r in [a + b, a - b, a * b, a.mul_f(b.lo), a.hull(b), -a] {
            prop_assert!(r.lo <= r.hi, "inverted result {r}");
        }
    }

    #[test]
    fn hull_contains_both(a in itv_f32(), b in itv_f32()) {
        let h = a.hull(b);
        prop_assert!(h.contains_itv(a) && h.contains_itv(b));
    }

    #[test]
    fn intersect_is_tightest(a in itv_f32(), b in itv_f32()) {
        if let Some(m) = a.intersect(b) {
            prop_assert!(a.contains_itv(m) && b.contains_itv(m));
            prop_assert!(m.lo == a.lo.max(b.lo) && m.hi == a.hi.min(b.hi));
        } else {
            prop_assert!(a.hi < b.lo || b.hi < a.lo);
        }
    }

    #[test]
    fn dot_contains_f64_reference(
        ws in prop::collection::vec(small_f32(), 0..32),
        xs in prop::collection::vec(small_f32(), 0..32),
    ) {
        let n = ws.len().min(xs.len());
        let coeffs: Vec<Itv<f32>> = ws[..n].iter().map(|&w| Itv::point(w)).collect();
        let exact: f64 = ws[..n].iter().zip(&xs[..n]).map(|(&w, &x)| w as f64 * x as f64).sum();
        let d = dot::dot_itv_f(&coeffs, &xs[..n]);
        prop_assert!(d.to_f64().contains(exact), "dot {d} misses {exact}");
    }

    #[test]
    fn concretize_brackets_box_samples(
        pairs in prop::collection::vec((small_f32(), itv_f32(), 0.0f32..1.0), 0..16),
        cst in small_f32(),
    ) {
        let coeffs: Vec<Itv<f32>> = pairs.iter().map(|&(w, _, _)| Itv::point(w)).collect();
        let bounds: Vec<Itv<f32>> = pairs.iter().map(|&(_, b, _)| b).collect();
        let sample: f64 = pairs
            .iter()
            .map(|&(w, b, t)| w as f64 * pick(b, t) as f64)
            .sum::<f64>() + cst as f64;
        let hi = dot::concretize_upper(&coeffs, &bounds, Itv::point(cst));
        let lo = dot::concretize_lower(&coeffs, &bounds, Itv::point(cst));
        prop_assert!((lo as f64) <= sample && sample <= (hi as f64),
            "[{lo}, {hi}] misses sample {sample}");
    }

    #[test]
    fn widen_grows(a in itv_f32(), d in 0.0f32..100.0) {
        let w = a.widen(d);
        prop_assert!(w.contains_itv(a));
    }

    #[test]
    fn f64_ops_bracket_too(a in -1e9f64..1e9, b in -1e9f64..1e9) {
        // For f64 we at least check ordering and 1-ulp adjacency.
        let lo = round::mul_down(a, b);
        let hi = round::mul_up(a, b);
        prop_assert!(lo <= a * b && a * b <= hi);
        prop_assert!(hi == lo || hi == lo.next_up() || hi == lo.next_up().next_up());
    }
}

// ---------------------------------------------------------------------------
// The wide accumulator (`gpupoly_interval::wide`) against an error-free
// oracle. Products of two f32 are exact in f64 and, like every f32, integer
// multiples of 2⁻³⁵²; their sums are therefore exact in a fixed-point
// integer wide enough for 4096 terms of magnitude up to 2²⁵⁶.
// ---------------------------------------------------------------------------

/// An exact sum of finite f64 values that are multiples of `2⁻³⁵²`:
/// `Σ limb[i] · 2^(32·i − 352)`, carries left unpropagated until compared.
#[derive(Clone)]
struct Exact([i128; 24]);

impl Exact {
    const ZERO: Exact = Exact([0; 24]);

    /// Adds `sign · x`.
    fn add(&mut self, x: f64, sign: i128) {
        assert!(x.is_finite());
        if x == 0.0 {
            return;
        }
        let bits = x.to_bits();
        let field = ((bits >> 52) & 0x7ff) as i32;
        let frac = (bits & ((1 << 52) - 1)) as i128;
        // x = ±mant · 2^exp
        let (mant, exp) = if field == 0 {
            (frac, -1074)
        } else {
            (frac | (1 << 52), field - 1075)
        };
        let (mant, exp) = {
            let tz = mant.trailing_zeros() as i32;
            (mant >> tz, exp + tz)
        };
        let shift = exp + 352;
        assert!(shift >= 0, "{x} is not a multiple of 2^-352");
        let (limb, off) = ((shift / 32) as usize, shift % 32);
        let signed = if x < 0.0 { -sign } else { sign };
        self.0[limb] += signed * (mant << off);
    }

    /// `-1`, `0` or `1`.
    fn signum(&self) -> i32 {
        let mut limbs = self.0;
        for i in 0..limbs.len() - 1 {
            let carry = limbs[i] >> 32;
            limbs[i] -= carry << 32;
            limbs[i + 1] += carry;
        }
        // Every limb below the top now lies in [0, 2³²): the top decides.
        match limbs[limbs.len() - 1] {
            t if t < 0 => -1,
            0 if limbs.iter().all(|&l| l == 0) => 0,
            _ => 1,
        }
    }

    /// Sign of `self − bound` (`bound` may be infinite, never NaN).
    fn signum_minus(&self, bound: f32) -> i32 {
        assert!(!bound.is_nan(), "NaN bound");
        if bound.is_infinite() {
            return if bound > 0.0 { -1 } else { 1 };
        }
        let mut d = self.clone();
        d.add(bound as f64, -1);
        d.signum()
    }

    /// `true` when `bound ≤ self`.
    fn at_least(&self, bound: f32) -> bool {
        self.signum_minus(bound) >= 0
    }

    /// `true` when `self ≤ bound`.
    fn at_most(&self, bound: f32) -> bool {
        self.signum_minus(bound) <= 0
    }
}

/// One dot product the way the GEMM kernels drive the accumulator: start
/// from `init`, skip exact-zero coefficients, feed the rest in order.
fn wide_dot(init: Itv<f32>, terms: &[(Itv<f32>, f32)]) -> Option<Itv<f32>> {
    let mut acc = WideAcc::<1>::new(&[init]);
    for &(a, w) in terms {
        if a.lo == 0.0 && a.hi == 0.0 {
            continue;
        }
        acc.mul_add(WideTerm::new(a), &[w]);
    }
    acc.finish(0)
}

/// The per-step chain the accumulator replaces, driven the same way.
fn chain_dot(init: Itv<f32>, terms: &[(Itv<f32>, f32)]) -> Itv<f32> {
    terms
        .iter()
        .filter(|(a, _)| !(a.lo == 0.0 && a.hi == 0.0))
        .fold(init, |acc, &(a, w)| a.mul_add_f(w, acc))
}

/// Exact `[Σ min, Σ max]` of `init + Σ a·w`.
fn exact_dot(init: Itv<f32>, terms: &[(Itv<f32>, f32)]) -> (Exact, Exact) {
    let (mut lo, mut hi) = (Exact::ZERO, Exact::ZERO);
    lo.add(init.lo as f64, 1);
    hi.add(init.hi as f64, 1);
    for &(a, w) in terms {
        let (p, q) = (a.lo as f64 * w as f64, a.hi as f64 * w as f64);
        lo.add(p.min(q), 1);
        hi.add(p.max(q), 1);
    }
    (lo, hi)
}

fn assert_encloses(init: Itv<f32>, terms: &[(Itv<f32>, f32)]) -> Result<Itv<f32>, TestCaseError> {
    let y = wide_dot(init, terms).expect("finite operands have a result");
    let (lo, hi) = exact_dot(init, terms);
    prop_assert!(!y.lo.is_nan() && !y.hi.is_nan(), "NaN bound in {y}");
    prop_assert!(y.lo <= y.hi, "inverted result {y}");
    prop_assert!(
        lo.at_least(y.lo),
        "lower bound {} above the exact sum",
        y.lo
    );
    prop_assert!(hi.at_most(y.hi), "upper bound {} below the exact sum", y.hi);
    Ok(y)
}

/// Any finite f32: every exponent from the subnormals to 2¹²⁷, either sign.
fn wild_f32() -> impl Strategy<Value = f32> {
    (any::<bool>(), 0u32..255, 0u32..(1 << 23))
        .prop_map(|(neg, exp, frac)| f32::from_bits((neg as u32) << 31 | exp << 23 | frac))
}

fn wild_itv() -> impl Strategy<Value = Itv<f32>> {
    prop_oneof![
        wild_f32().prop_map(Itv::point),
        (wild_f32(), wild_f32()).prop_map(|(a, b)| Itv::new(a.min(b), a.max(b))),
        // An endpoint on zero: one of the two products is an exact zero.
        wild_f32().prop_map(|a| Itv::new(a.min(0.0), a.max(0.0))),
    ]
}

/// Weights with the special values the per-step chain fast-paths.
fn wild_weight() -> impl Strategy<Value = f32> {
    prop_oneof![
        wild_f32(),
        wild_f32(),
        Just(0.0f32),
        Just(-0.0f32),
        Just(1.0f32),
        Just(-1.0f32),
    ]
}

/// Coefficients and weights away from the chain's exact fast paths (zero
/// and one) and of comparable endpoint magnitude — the regime in which the
/// chain pays its one-ulp step on every operation.
fn generic_term() -> impl Strategy<Value = (Itv<f32>, f32)> {
    let mag = || prop_oneof![1e-3f32..1.0f32, 1.0f32..1e3f32];
    (any::<bool>(), mag(), 0.0f32..0.1, any::<bool>(), mag()).prop_map(|(an, c, r, wn, w)| {
        let (lo, hi) = (c * (1.0 - r), c * (1.0 + r));
        let a = if an {
            Itv::new(-hi, -lo)
        } else {
            Itv::new(lo, hi)
        };
        let w = if w == 1.0 { 1.5 } else { w };
        (a, if wn { -w } else { w })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wide_dot_encloses_exact_sum_on_mixed_magnitudes(
        init in prop_oneof![Just(Itv::zero()), wild_itv()],
        terms in prop::collection::vec((wild_itv(), wild_weight()), 0..64),
    ) {
        // 2⁻¹⁴⁹ … 2¹²⁷ operands: sums that overflow f32 saturate outward
        // (MAX / inf), tiny ones straddle the subnormals.
        assert_encloses(init, &terms)?;
    }

    #[test]
    fn wide_dot_encloses_exact_sum_at_k_up_to_4096(
        k in 0usize..4097,
        seed in prop::collection::vec((wild_itv(), wild_weight()), 1..32),
    ) {
        // Long rows from a short random motif, rescaled so they do not all
        // overflow: term i is the motif entry i mod len.
        let terms: Vec<(Itv<f32>, f32)> = (0..k)
            .map(|i| {
                let (a, w) = seed[i % seed.len()];
                (a, if w.abs() > 1e10 { w * 1e-20 } else { w })
            })
            .collect();
        assert_encloses(Itv::zero(), &terms)?;
    }

    #[test]
    fn wide_dot_encloses_exact_sum_under_massive_cancellation(
        big in prop::collection::vec((wild_itv(), wild_weight()), 1..24),
        small in prop::collection::vec((-1e-20f32..1e-20f32, -1.0f32..1.0f32), 0..8),
    ) {
        // Every large term followed (eventually) by its negation: the exact
        // sum is the small tail, the magnitude sum is astronomically larger.
        let mut terms = big.clone();
        terms.extend(big.iter().map(|&(a, w)| (a, -w)));
        terms.extend(small.iter().map(|&(a, w)| (Itv::point(a), w)));
        let y = assert_encloses(Itv::zero(), &terms)?;
        // With point coefficients the two bounds bracket one real number.
        if big.iter().all(|(a, _)| a.is_point()) {
            let tail: f64 = small.iter().map(|&(a, w)| a as f64 * w as f64).sum();
            prop_assert!((y.lo as f64) <= tail + 1e-50 && tail - 1e-50 <= (y.hi as f64));
        }
    }

    #[test]
    fn wide_dot_is_inside_the_per_step_chain(
        init in prop_oneof![Just(Itv::zero()), generic_term().prop_map(|(a, _)| a)],
        terms in prop::collection::vec(generic_term(), 0..256),
    ) {
        let wide = assert_encloses(init, &terms)?;
        let chain = chain_dot(init, &terms);
        prop_assert!(chain.contains_itv(wide), "{wide} not inside the chain's {chain}");
    }
}

// ---------------------------------------------------------------------------
// The two kernels that joined the GEMM on the accumulator: GBC feeds it short
// term lists that are mostly exact zeros, concretize uses the interval ×
// interval rule (`WideBound`).
// ---------------------------------------------------------------------------

/// A term as the GBC gather meets it: ulp-wide coefficients left by earlier
/// steps, about half of them exact zeros of either sign (dependence-set
/// padding, stably dead ReLUs), and filter weights that are sometimes `±0`.
fn gbc_term() -> impl Strategy<Value = (Itv<f32>, f32)> {
    // (The shim's `prop_oneof!` is uniform: repeats are the weights.)
    let live = || {
        (-4.0f32..4.0f32, 0u32..3).prop_map(|(c, ulps)| {
            let hi = (0..ulps).fold(c, |x, _| x.next_up());
            Itv::new(c, hi)
        })
    };
    let coeff = prop_oneof![
        Just(Itv::zero()),
        Just(Itv::zero()),
        Just(Itv::point(-0.0f32)),
        Just(Itv::new(-0.0f32, 0.0)),
        live(),
        live(),
        live(),
        live(),
    ];
    let weight = || -1.0f32..1.0f32;
    let weight = prop_oneof![
        weight(),
        weight(),
        weight(),
        weight(),
        weight(),
        weight(),
        Just(0.0f32),
        Just(-0.0f32),
    ];
    (coeff, weight)
}

/// Both directed bounds of `c + Σ a·b` the way `concretize_row` drives
/// [`WideBound`]: exact-zero coefficients skipped, the rest in order.
fn wide_bounds(c: f32, terms: &[(Itv<f32>, Itv<f32>)]) -> Option<(f32, f32)> {
    let mut lo = WideBound::<false>::new(c);
    let mut hi = WideBound::<true>::new(c);
    for &(a, b) in terms {
        if a.lo == 0.0 && a.hi == 0.0 {
            continue;
        }
        lo.mul_add(WideTerm::new(a), WideTerm::new(b));
        hi.mul_add(WideTerm::new(a), WideTerm::new(b));
    }
    lo.finish().zip(hi.finish())
}

/// The per-step chain `concretize_row` falls back to, driven the same way.
fn chain_bounds(c: f32, terms: &[(Itv<f32>, Itv<f32>)]) -> (f32, f32) {
    terms
        .iter()
        .filter(|(a, _)| !(a.lo == 0.0 && a.hi == 0.0))
        .fold((c, c), |(lo, hi), &(a, b)| {
            let p = a * b;
            (round::add_down(lo, p.lo), round::add_up(hi, p.hi))
        })
}

/// The four exact corner products of `a · b`.
fn corners(a: Itv<f32>, b: Itv<f32>) -> [f64; 4] {
    [(a.lo, b.lo), (a.lo, b.hi), (a.hi, b.lo), (a.hi, b.hi)].map(|(x, y)| x as f64 * y as f64)
}

/// Checks `wide_bounds` against the exact `c + Σ min₄` and `c + Σ max₄`.
fn assert_bounds_enclose(
    c: f32,
    terms: &[(Itv<f32>, Itv<f32>)],
) -> Result<(f32, f32), TestCaseError> {
    let (lo, hi) = wide_bounds(c, terms).expect("finite operands have a result");
    let (mut exact_lo, mut exact_hi) = (Exact::ZERO, Exact::ZERO);
    exact_lo.add(c as f64, 1);
    exact_hi.add(c as f64, 1);
    for &(a, b) in terms {
        let p = corners(a, b);
        exact_lo.add(p.into_iter().fold(f64::INFINITY, f64::min), 1);
        exact_hi.add(p.into_iter().fold(f64::NEG_INFINITY, f64::max), 1);
    }
    prop_assert!(!lo.is_nan() && !hi.is_nan(), "NaN bound in [{lo}, {hi}]");
    prop_assert!(
        exact_lo.at_least(lo),
        "lower bound {lo} above the exact sum"
    );
    prop_assert!(exact_hi.at_most(hi), "upper bound {hi} below the exact sum");
    Ok((lo, hi))
}

/// Bounds as concretize meets them: any finite interval, and `[0, 0]` of
/// either sign (a stably dead ReLU's output).
fn wild_bound() -> impl Strategy<Value = Itv<f32>> {
    prop_oneof![
        wild_itv(),
        wild_itv(),
        wild_itv(),
        wild_itv(),
        Just(Itv::zero()),
        Just(Itv::point(-0.0f32)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wide_dot_encloses_exact_sum_on_gbc_shaped_term_lists(
        // At most ⌈3/1⌉² taps × 8 output channels contribute to an element.
        terms in prop::collection::vec(gbc_term(), 0..73),
    ) {
        let y = assert_encloses(Itv::zero(), &terms)?;
        // Elements with at most one non-zero product are exact up to the
        // final conversion: the tightest f32 enclosure of that product.
        let live: Vec<_> = terms
            .iter()
            .filter(|(a, w)| !(a.lo == 0.0 && a.hi == 0.0) && *w != 0.0)
            .collect();
        if let [(a, w)] = live[..] {
            let (p, q) = (a.lo as f64 * *w as f64, a.hi as f64 * *w as f64);
            prop_assert_eq!(y.lo, round::from_f64_down::<f32>(p.min(q)));
            prop_assert_eq!(y.hi, round::from_f64_up::<f32>(p.max(q)));
        }
        if live.is_empty() {
            prop_assert!(y.lo == 0.0 && y.hi == 0.0, "no product, yet {y}");
        }
    }

    #[test]
    fn wide_bounds_enclose_exact_sum_on_mixed_magnitudes(
        c in prop_oneof![Just(0.0f32), Just(-0.0f32), wild_f32()],
        terms in prop::collection::vec((wild_itv(), wild_bound()), 0..64),
    ) {
        assert_bounds_enclose(c, &terms)?;
    }

    #[test]
    fn wide_bounds_enclose_exact_sum_under_massive_cancellation(
        big in prop::collection::vec((wild_f32(), wild_f32()), 1..24),
        small in prop::collection::vec((-1e-20f32..1e-20f32, -1.0f32..1.0f32), 0..8),
    ) {
        // Point coefficients on point bounds, each large product followed
        // (eventually) by its negation: both exact sums are the small tail.
        let point = |&(a, b): &(f32, f32)| (Itv::point(a), Itv::point(b));
        let mut terms: Vec<_> = big.iter().map(point).collect();
        terms.extend(big.iter().map(|&(a, b)| (Itv::point(a), Itv::point(-b))));
        terms.extend(small.iter().map(point));
        let (lo, hi) = assert_bounds_enclose(0.0, &terms)?;
        let tail: f64 = small.iter().map(|&(a, b)| a as f64 * b as f64).sum();
        prop_assert!((lo as f64) <= tail + 1e-50 && tail - 1e-50 <= (hi as f64));
    }

    #[test]
    fn wide_bounds_are_inside_the_per_step_chain(
        c in prop_oneof![Just(0.0f32), -1e3f32..1e3f32],
        terms in prop::collection::vec(
            (generic_term(), generic_term()).prop_map(|((a, _), (b, _))| (a, b)),
            0..256,
        ),
    ) {
        let (lo, hi) = assert_bounds_enclose(c, &terms)?;
        let (chain_lo, chain_hi) = chain_bounds(c, &terms);
        prop_assert!(
            chain_lo <= lo && hi <= chain_hi,
            "[{lo}, {hi}] not inside the chain's [{chain_lo}, {chain_hi}]"
        );
    }
}

#[test]
fn wide_bounds_have_no_result_for_non_finite_operands() {
    let one = Itv::point(1.0_f32);
    assert!(wide_bounds(0.0, &[(one, one)]).is_some());
    assert_eq!(wide_bounds(0.0, &[(one, Itv::top())]), None);
    assert_eq!(
        wide_bounds(0.0, &[(one, Itv::new(0.5, f32::INFINITY))]),
        None
    );
    assert_eq!(
        wide_bounds(0.0, &[(Itv::new(1.0, f32::INFINITY), one)]),
        None
    );
    assert_eq!(wide_bounds(0.0, &[(Itv::top(), Itv::zero())]), None);
    assert_eq!(wide_bounds(f32::NEG_INFINITY, &[(one, one)]), None);
    assert_eq!(wide_bounds(f32::NAN, &[]), None);
    // A skipped (exact-zero) coefficient never meets its bound.
    assert_eq!(
        wide_bounds(0.25, &[(Itv::zero(), Itv::top())]),
        Some((0.25, 0.25))
    );
}

#[test]
fn exact_oracle_resolves_what_f64_cannot() {
    // 1 + 2⁻³⁰⁰ is not an f64; the oracle still orders it against f32s.
    let mut above_one = Exact::ZERO;
    above_one.add(1.0, 1);
    above_one.add(2f64.powi(-300), 1);
    assert!(above_one.at_least(1.0) && !above_one.at_most(1.0));
    assert!(above_one.at_most(1.0_f32.next_up()) && !above_one.at_least(1.0_f32.next_up()));
    let mut below_minus_one = Exact::ZERO;
    below_minus_one.add(1.0, -1);
    below_minus_one.add(2f64.powi(-300), -1);
    assert!(below_minus_one.at_most(-1.0) && !below_minus_one.at_least(-1.0));
    // Cancellation across limbs down to an exact zero.
    let mut zero = Exact::ZERO;
    for x in [3e38, 1e-40, -3e38, -1e-40] {
        zero.add(x as f32 as f64, 1);
    }
    assert_eq!(zero.signum(), 0);
    assert!(zero.at_least(0.0) && zero.at_most(-0.0));
}

#[test]
fn wide_dot_saturates_outward_when_the_sum_overflows_f32() {
    let max = Itv::point(f32::MAX);
    let y = wide_dot(Itv::zero(), &[(max, 1.0), (max, 1.0), (max, 1.0)]).unwrap();
    assert_eq!((y.lo, y.hi), (f32::MAX, f32::INFINITY));
    let y = wide_dot(Itv::zero(), &[(max, -2.0), (max, -2.0)]).unwrap();
    assert_eq!((y.lo, y.hi), (f32::NEG_INFINITY, f32::MIN));
    // Products beyond f32 on their own that cancel back into range are
    // not an overflow: the sum never left f64.
    let y = wide_dot(Itv::zero(), &[(max, 4.0), (max, -3.5)]).unwrap();
    assert!(y.lo <= f32::MAX / 2.0 && f32::MAX / 2.0 <= y.hi && y.hi.is_finite());
    // Subnormal operands: the product 2⁻²⁹⁸ is far below f32, not lost.
    let tiny = Itv::point(f32::from_bits(1));
    let y = wide_dot(Itv::zero(), &[(tiny, f32::from_bits(1))]).unwrap();
    assert_eq!((y.lo, y.hi), (0.0, f32::from_bits(1)));
}

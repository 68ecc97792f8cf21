//! Property-based soundness tests: every interval operation must contain the
//! result of the corresponding real operation on any members of its operand
//! intervals. We use f64 arithmetic as the (much more precise) reference for
//! f32 intervals, and exact rational reasoning where cheap.

use gpupoly_interval::wide::{max_mag, WideAcc, WideBound, WideMag, WideRun, WideSum, WideTerm};
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

/// `N` outputs over one term list the way the GEMM kernels drive the pair:
/// start from `init`, skip exact-zero coefficients, feed the rest in order —
/// once, with the largest of its weights, to the list's magnitude sum, and
/// to every lane with the lane's own weight.
fn wide_lanes<const N: usize>(
    init: [Itv<f32>; N],
    terms: &[(Itv<f32>, [f32; N])],
) -> Option<[Itv<f32>; N]> {
    let mut mag = WideMag::new(&init);
    let mut acc = WideAcc::<N>::new(&init);
    for (a, w) in terms {
        if a.lo == 0.0 && a.hi == 0.0 {
            continue;
        }
        mag.add(WideTerm::new(*a), max_mag(w));
        acc.mul_add(WideTerm::new(*a), w);
    }
    let e = mag.finish()?;
    Some(std::array::from_fn(|j| acc.finish(j, e)))
}

/// One dot product: a list with a single output, whose `wmax` is its `|w|`.
fn wide_dot(init: Itv<f32>, terms: &[(Itv<f32>, f32)]) -> Option<Itv<f32>> {
    let terms: Vec<_> = terms.iter().map(|&(a, w)| (a, [w])).collect();
    wide_lanes([init], &terms).map(|[y]| y)
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

/// Checks `y` against the exact `[Σ min, Σ max]` of `init + Σ a·w`.
fn assert_encloses_exact(
    y: Itv<f32>,
    init: Itv<f32>,
    terms: &[(Itv<f32>, f32)],
) -> Result<(), TestCaseError> {
    let (lo, hi) = exact_dot(init, terms);
    prop_assert!(!y.lo.is_nan() && !y.hi.is_nan(), "NaN bound in {y}");
    prop_assert!(y.lo <= y.hi, "inverted result {y}");
    prop_assert!(
        lo.at_least(y.lo),
        "lower bound {} above the exact sum",
        y.lo
    );
    prop_assert!(hi.at_most(y.hi), "upper bound {} below the exact sum", y.hi);
    Ok(())
}

fn assert_encloses(init: Itv<f32>, terms: &[(Itv<f32>, f32)]) -> Result<Itv<f32>, TestCaseError> {
    let y = wide_dot(init, terms).expect("finite operands have a result");
    assert_encloses_exact(y, init, terms)?;
    Ok(y)
}

/// Lane `j`'s own view of a shared term list.
fn lane<const N: usize>(terms: &[(Itv<f32>, [f32; N])], j: usize) -> Vec<(Itv<f32>, f32)> {
    terms.iter().map(|&(a, w)| (a, w[j])).collect()
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
        // A list of one term is exact up to the final conversion: the
        // tightest f32 enclosure of its product.
        let list: Vec<_> = terms
            .iter()
            .filter(|(a, _)| !(a.lo == 0.0 && a.hi == 0.0))
            .collect();
        if let [(a, w)] = list[..] {
            let (p, q) = (a.lo as f64 * *w as f64, a.hi as f64 * *w as f64);
            prop_assert_eq!(y.lo, round::from_f64_down::<f32>(p.min(q)));
            prop_assert_eq!(y.hi, round::from_f64_up::<f32>(p.max(q)));
        }
        // No non-zero product: nothing to sum and nothing to widen by.
        if list.iter().all(|(_, w)| *w == 0.0) {
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

// ---------------------------------------------------------------------------
// One magnitude sum per term list: the outputs that share a list (a GEMM
// row's columns, a GBC position's channels, a forward-pass block) share the
// bound taken against the largest weight any of them multiplies a term by.
// ---------------------------------------------------------------------------

/// Three lanes whose weights for one term differ by up to 2⁶⁰ in magnitude,
/// and are sometimes zero in one lane only.
fn lane_weights() -> impl Strategy<Value = [f32; 3]> {
    let scale = || prop_oneof![Just(1.0f32), Just(1e-18f32), Just(0.0f32), Just(-1.0f32)];
    (wild_weight(), scale(), scale()).prop_map(|(w, s1, s2)| [w, w * s1, w * s2])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn shared_bound_encloses_every_lanes_exact_sum_on_mixed_magnitudes(
        init in prop_oneof![Just([Itv::zero(); 3]), (wild_itv(), wild_itv()).prop_map(|(a, b)| [a, Itv::zero(), b])],
        terms in prop::collection::vec((wild_itv(), lane_weights()), 0..64),
    ) {
        let ys = wide_lanes(init, &terms).expect("finite operands have a result");
        for (j, y) in ys.into_iter().enumerate() {
            assert_encloses_exact(y, init[j], &lane(&terms, j))?;
        }
    }

    #[test]
    fn shared_bound_encloses_every_lanes_exact_sum_under_massive_cancellation(
        big in prop::collection::vec((wild_itv(), wild_weight()), 1..24),
        small in prop::collection::vec((-1e-20f32..1e-20f32, -1.0f32..1.0f32), 0..8),
    ) {
        // Lane 0 sums every large term and, eventually, its negation; lane 1
        // the same at 2⁻⁶⁰ of the weight; lane 2 meets zeros there. The
        // round-off of lane 0 is what the shared bound has to cover: a bound
        // from any smaller weight than the largest would not.
        let shrink = |w: f32| if w.abs() > 1e-10 { w * 2f32.powi(-60) } else { 0.0 };
        let mut terms: Vec<(Itv<f32>, [f32; 3])> =
            big.iter().map(|&(a, w)| (a, [w, shrink(w), 0.0])).collect();
        terms.extend(big.iter().map(|&(a, w)| (a, [-w, -shrink(w), -0.0])));
        terms.extend(small.iter().map(|&(a, w)| (Itv::point(a), [w, w, w])));
        let ys = wide_lanes([Itv::zero(); 3], &terms).expect("finite operands have a result");
        for (j, y) in ys.into_iter().enumerate() {
            assert_encloses_exact(y, Itv::zero(), &lane(&terms, j))?;
        }
    }

    #[test]
    fn shared_bound_is_inside_the_per_step_chain(
        init in prop_oneof![Just(Itv::zero()), generic_term().prop_map(|(a, _)| a)],
        terms in prop::collection::vec(
            (generic_term(), generic_term(), generic_term())
                .prop_map(|((a, w0), (_, w1), (_, w2))| (a, [w0, w1, w2])),
            0..256,
        ),
    ) {
        // Weights within 10⁶ of each other, as a layer's are: the shared
        // bound stays far below the f32 step the chain pays per operation.
        let ys = wide_lanes([init; 3], &terms).expect("finite operands have a result");
        for (j, y) in ys.into_iter().enumerate() {
            let chain = chain_dot(init, &lane(&terms, j));
            prop_assert!(chain.contains_itv(y), "lane {j}: {y} not inside the chain's {chain}");
        }
    }

    #[test]
    fn a_non_finite_operand_anywhere_leaves_the_whole_list_without_a_result(
        terms in prop::collection::vec((wild_itv(), lane_weights()), 1..16),
        at in 0usize..16,
        lane_at in 0usize..3,
        bad in prop_oneof![Just(f32::NAN), Just(f32::INFINITY), Just(f32::NEG_INFINITY)],
    ) {
        let at = at % terms.len();
        let live = |a: Itv<f32>| !(a.lo == 0.0 && a.hi == 0.0);
        // A bad weight, in one lane of one term.
        let mut poisoned = terms.clone();
        poisoned[at].1[lane_at] = bad;
        prop_assert_eq!(
            wide_lanes([Itv::zero(); 3], &poisoned).is_none(),
            live(poisoned[at].0),
            "a skipped coefficient never meets its weights; any other must"
        );
        // A bad coefficient bound.
        let mut poisoned = terms.clone();
        poisoned[at].0 = Itv { lo: poisoned[at].0.lo, hi: bad };
        prop_assert!(wide_lanes([Itv::zero(); 3], &poisoned).is_none());
        // A bad initial value, in one lane.
        let mut init = [Itv::zero(); 3];
        init[lane_at] = Itv { lo: bad, hi: f32::INFINITY };
        prop_assert!(wide_lanes(init, &terms).is_none());
    }
}

// ---------------------------------------------------------------------------
// `dot::dot_itv_f`, the public primitive: the wide rule over its own list,
// the per-step chain when an operand is not finite.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn dot_itv_f_encloses_exact_sum_on_mixed_magnitudes(
        terms in prop::collection::vec((wild_itv(), wild_weight()), 0..64),
    ) {
        let (coeffs, xs): (Vec<_>, Vec<_>) = terms.iter().copied().unzip();
        assert_encloses_exact(dot::dot_itv_f(&coeffs, &xs), Itv::zero(), &terms)?;
    }

    #[test]
    fn dot_itv_f_encloses_exact_sum_under_massive_cancellation(
        big in prop::collection::vec((wild_itv(), wild_weight()), 1..24),
        small in prop::collection::vec((-1e-20f32..1e-20f32, -1.0f32..1.0f32), 0..8),
    ) {
        let mut terms = big.clone();
        terms.extend(big.iter().map(|&(a, w)| (a, -w)));
        terms.extend(small.iter().map(|&(a, w)| (Itv::point(a), w)));
        let (coeffs, xs): (Vec<_>, Vec<_>) = terms.iter().copied().unzip();
        assert_encloses_exact(dot::dot_itv_f(&coeffs, &xs), Itv::zero(), &terms)?;
    }

    #[test]
    fn dot_itv_f_is_inside_the_per_step_chain_and_is_the_chain_for_non_finite_operands(
        terms in prop::collection::vec(generic_term(), 0..256),
        at in 0usize..256,
        bad in prop_oneof![Just(f32::INFINITY), Just(f32::NEG_INFINITY)],
    ) {
        let (coeffs, mut xs): (Vec<_>, Vec<_>) = terms.iter().copied().unzip();
        let y = dot::dot_itv_f(&coeffs, &xs);
        let chain = chain_dot(Itv::zero(), &terms);
        prop_assert!(chain.contains_itv(y), "{y} not inside the chain's {chain}");
        if !terms.is_empty() {
            xs[at % terms.len()] = bad;
            let terms: Vec<_> = coeffs.iter().copied().zip(xs.iter().copied()).collect();
            let (y, chain) = (dot::dot_itv_f(&coeffs, &xs), chain_dot(Itv::zero(), &terms));
            prop_assert_eq!((y.lo.to_bits(), y.hi.to_bits()), (chain.lo.to_bits(), chain.hi.to_bits()));
        }
    }
}

// ---------------------------------------------------------------------------
// The ReLU step's constant (`WideSum`): interval × interval products on both
// sides of one sum, and single endpoints of such products as points.
// ---------------------------------------------------------------------------

/// One summand of the constant: `a · b` as an interval, or — for `Some(upper)`
/// — only its upper (lower) endpoint, on both sides.
type Summand = (Itv<f32>, Itv<f32>, Option<bool>);

/// The constant the way `relu_step_row` drives [`WideSum`].
fn wide_sum(c: Itv<f32>, terms: &[Summand]) -> Option<Itv<f32>> {
    let mut sum = WideSum::new(c);
    for &(a, b, endpoint) in terms {
        match endpoint {
            None => sum.mul_add(WideTerm::new(a), WideTerm::new(b)),
            Some(upper) => sum.add_endpoint(WideTerm::new(a), WideTerm::new(b), upper),
        }
    }
    sum.finish()
}

/// The per-step chain `relu_step_row` falls back to, driven the same way.
fn chain_sum(c: Itv<f32>, terms: &[Summand]) -> Itv<f32> {
    terms.iter().fold(c, |acc, &(a, b, endpoint)| {
        let p = a * b;
        acc + match endpoint {
            None => p,
            Some(true) => Itv::point(p.hi),
            Some(false) => Itv::point(p.lo),
        }
    })
}

/// Checks `wide_sum` against the exact two-sided sum.
fn assert_sum_encloses(c: Itv<f32>, terms: &[Summand]) -> Result<Itv<f32>, TestCaseError> {
    let y = wide_sum(c, terms).expect("finite operands have a result");
    let (mut exact_lo, mut exact_hi) = (Exact::ZERO, Exact::ZERO);
    exact_lo.add(c.lo as f64, 1);
    exact_hi.add(c.hi as f64, 1);
    for &(a, b, endpoint) in terms {
        let p = corners(a, b);
        let min = p.into_iter().fold(f64::INFINITY, f64::min);
        let max = p.into_iter().fold(f64::NEG_INFINITY, f64::max);
        exact_lo.add(if endpoint == Some(true) { max } else { min }, 1);
        exact_hi.add(if endpoint == Some(false) { min } else { max }, 1);
    }
    prop_assert!(!y.lo.is_nan() && !y.hi.is_nan(), "NaN bound in {y}");
    prop_assert!(
        exact_lo.at_least(y.lo),
        "lower bound {} above the exact sum",
        y.lo
    );
    prop_assert!(
        exact_hi.at_most(y.hi),
        "upper bound {} below the exact sum",
        y.hi
    );
    Ok(y)
}

fn endpoint() -> impl Strategy<Value = Option<bool>> {
    prop_oneof![Just(None), Just(None), Just(Some(false)), Just(Some(true))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wide_sum_encloses_exact_sum_on_mixed_magnitudes(
        c in prop_oneof![Just(Itv::zero()), Just(Itv::point(-0.0f32)), wild_itv()],
        terms in prop::collection::vec((wild_itv(), wild_bound(), endpoint()), 0..64),
    ) {
        assert_sum_encloses(c, &terms)?;
    }

    #[test]
    fn wide_sum_encloses_exact_sum_under_massive_cancellation(
        big in prop::collection::vec((wild_f32(), wild_f32(), endpoint()), 1..24),
        small in prop::collection::vec((-1e-20f32..1e-20f32, -1.0f32..1.0f32), 0..8),
    ) {
        // Point factors, each large product followed (eventually) by its
        // negation, as intervals and as endpoints alike: both exact sums are
        // the small tail.
        let mut terms: Vec<Summand> =
            big.iter().map(|&(a, b, e)| (Itv::point(a), Itv::point(b), e)).collect();
        terms.extend(big.iter().map(|&(a, b, e)| (Itv::point(a), Itv::point(-b), e)));
        terms.extend(small.iter().map(|&(a, b)| (Itv::point(a), Itv::point(b), None)));
        let y = assert_sum_encloses(Itv::zero(), &terms)?;
        let tail: f64 = small.iter().map(|&(a, b)| a as f64 * b as f64).sum();
        prop_assert!((y.lo as f64) <= tail + 1e-50 && tail - 1e-50 <= (y.hi as f64));
    }

    #[test]
    fn wide_sum_is_inside_the_per_step_chain(
        c in prop_oneof![Just(Itv::zero()), generic_term().prop_map(|(a, _)| a)],
        terms in prop::collection::vec(
            (generic_term(), generic_term(), endpoint()).prop_map(|((a, _), (b, _), e)| (a, b, e)),
            0..256,
        ),
    ) {
        let y = assert_sum_encloses(c, &terms)?;
        let chain = chain_sum(c, &terms);
        prop_assert!(chain.contains_itv(y), "{y} not inside the chain's {chain}");
    }
}

// ---------------------------------------------------------------------------
// The forward pass' accumulator (`WideRun`): its enclosure must hold the
// exact sums like every other rule — and what f32 inference makes of them,
// the recursion `ŝ = fl(ŝ + w·x̂)` with one fused, nearest-rounded operation
// per term from the same start in the same order, for every point `x̂` of the
// box; the drift it reports must bound the distance between the two.
// ---------------------------------------------------------------------------

/// One output the way the forward pass drives the accumulator: the bias as
/// a point start, exact-zero inputs skipped, the rest in order. `None` when
/// the list has no result (a prefix of the recursion could overflow).
fn run_dot(bias: f32, terms: &[(Itv<f32>, f32)]) -> Option<(Itv<f32>, f32)> {
    let start = [Itv::point(bias)];
    let mut mag = WideMag::new(&start);
    let mut run = WideRun::<1>::new(&start);
    for &(x, w) in terms {
        if x.lo == 0.0 && x.hi == 0.0 {
            continue;
        }
        mag.add(WideTerm::new(x), max_mag(&[w]));
        run.mul_add(WideTerm::new(x), &[w]);
    }
    run.finish(0, mag.finish().expect("finite operands"))
}

/// Points of the box: both corners, the corners alternating, and `t` of the
/// way through every interval.
fn box_points(terms: &[(Itv<f32>, f32)], t: f32) -> [Vec<f32>; 4] {
    let at = |f: &dyn Fn(usize, Itv<f32>) -> f32| -> Vec<f32> {
        terms
            .iter()
            .enumerate()
            .map(|(i, &(x, _))| f(i, x))
            .collect()
    };
    [
        at(&|_, x| x.lo),
        at(&|_, x| x.hi),
        at(&|i, x| if i % 2 == 0 { x.lo } else { x.hi }),
        at(&|_, x| pick(x, t)),
    ]
}

/// Checks a [`run_dot`] result against the oracle and against inference at
/// the points of [`box_points`]; a list without a result against the chain
/// that then takes over. Returns the result.
fn assert_run_encloses(
    bias: f32,
    terms: &[(Itv<f32>, f32)],
    t: f32,
) -> Result<Option<(Itv<f32>, f32)>, TestCaseError> {
    let result = run_dot(bias, terms);
    if let Some((y, _)) = result {
        assert_encloses_exact(y, Itv::point(bias), terms)?;
    }
    let chain = chain_dot(Itv::point(bias), terms);
    for point in box_points(terms, t) {
        // Inference, and the exact value of the same sum at the same point.
        let mut computed = bias;
        let mut exact = Exact::ZERO;
        exact.add(bias as f64, 1);
        for (&(_, w), &x) in terms.iter().zip(&point) {
            computed = w.mul_add(x, computed);
            exact.add(w as f64 * x as f64, 1);
        }
        prop_assert!(!computed.is_nan());
        match result {
            Some((y, drift)) => {
                prop_assert!(y.contains(computed), "{y} misses inference's {computed}");
                // |computed − exact| ≤ drift, exactly.
                prop_assert!(computed.is_finite());
                exact.add(computed as f64, -1);
                prop_assert!(
                    exact.at_most(drift) && exact.at_least(-drift),
                    "inference's {computed} is further than {drift} from the exact sum"
                );
            }
            None => prop_assert!(
                chain.contains(computed),
                "the chain's {chain} misses inference's {computed}"
            ),
        }
    }
    Ok(result)
}

/// Inputs and weights whose sums stay far from f32's range on the way.
fn tame_term() -> impl Strategy<Value = (Itv<f32>, f32)> {
    let tame = || wild_f32().prop_map(|v| if v.abs() > 1e15 { v * 1e-25 } else { v });
    (wild_itv(), tame()).prop_map(|(x, w)| {
        let shrink = |v: f32| if v.abs() > 1e15 { v * 1e-25 } else { v };
        (
            Itv::new(
                shrink(x.lo).min(shrink(x.hi)),
                shrink(x.lo).max(shrink(x.hi)),
            ),
            w,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn running_bound_holds_exact_sum_and_f32_inference_on_mixed_magnitudes(
        bias in prop_oneof![Just(0.0f32), wild_f32()],
        terms in prop::collection::vec((wild_itv(), wild_weight()), 0..64),
        t in 0.0f32..1.0,
    ) {
        // 2⁻¹⁴⁹ … 2¹²⁷ operands: most lists could overflow on the way and
        // have no result — then the chain has to hold inference instead.
        assert_run_encloses(bias, &terms, t)?;
    }

    #[test]
    fn running_bound_holds_exact_sum_and_f32_inference_away_from_overflow(
        bias in prop_oneof![Just(0.0f32), tame_term().prop_map(|(_, w)| w)],
        terms in prop::collection::vec(tame_term(), 0..256),
        t in 0.0f32..1.0,
    ) {
        // Still 2⁻¹⁴⁹ … 2⁵⁰, but every prefix fits f32: always a result.
        prop_assert!(assert_run_encloses(bias, &terms, t)?.is_some());
    }

    #[test]
    fn running_bound_holds_f32_inference_under_massive_cancellation(
        big in prop::collection::vec(tame_term(), 1..24),
        small in prop::collection::vec((-1e-20f32..1e-20f32, -1.0f32..1.0f32), 0..8),
        t in 0.0f32..1.0,
    ) {
        // Every large term followed (eventually) by its negation: inference
        // is left with the round-off of the large prefixes, many orders of
        // magnitude above the exact sum — the small tail.
        let mut terms = big.clone();
        terms.extend(big.iter().map(|&(x, w)| (x, -w)));
        terms.extend(small.iter().map(|&(x, w)| (Itv::point(x), w)));
        prop_assert!(assert_run_encloses(0.0, &terms, t)?.is_some());
    }

    #[test]
    fn running_bound_holds_f32_inference_among_the_subnormals(
        bias in prop_oneof![Just(0.0f32), (0u32..(1 << 24)).prop_map(f32::from_bits)],
        terms in prop::collection::vec(
            ((0u32..(1 << 24), 0u32..(1 << 24), any::<bool>()), -1.0f32..1.0f32),
            1..48,
        ),
        t in 0.0f32..1.0,
    ) {
        // Inputs below 2⁻¹²⁵, weights below one: every step of inference
        // underflows, and errs by an absolute half of the smallest subnormal
        // rather than by a relative u.
        let terms: Vec<(Itv<f32>, f32)> = terms
            .iter()
            .map(|&((a, b, neg), w)| {
                let (a, b) = (f32::from_bits(a), f32::from_bits(b));
                let x = Itv::new(a.min(b), a.max(b));
                (if neg { Itv::new(-x.hi, -x.lo) } else { x }, w)
            })
            .collect();
        let (y, drift) = assert_run_encloses(bias, &terms, t)?.expect("tiny sums");
        prop_assert!(drift < f32::MIN_POSITIVE && y.mag() < 1e-33);
    }

    #[test]
    fn running_bound_is_inside_the_per_step_chain_on_narrow_boxes(
        bias in prop_oneof![Just(0.0f32), generic_term().prop_map(|(_, w)| w)],
        terms in prop::collection::vec((generic_term(), 0.0f32..1e-4), 8..256),
    ) {
        // Not a theorem, but the regime the forward pass runs in: sums of
        // more than a few terms (below that the chain's exact first steps
        // win by a step) over points and intervals a few steps wide (on a
        // wide box each side pays for the larger magnitude of the two prefix
        // sums, the chain for its own side's).
        let terms: Vec<(Itv<f32>, f32)> = terms
            .iter()
            .map(|&((x, w), r)| (Itv::new(x.lo, x.lo + x.lo.abs() * r), w))
            .collect();
        let (y, _) = run_dot(bias, &terms).expect("moderate operands");
        let chain = chain_dot(Itv::point(bias), &terms);
        prop_assert!(chain.contains_itv(y), "{y} not inside the chain's {chain}");
    }
}

#[test]
fn running_bound_pays_for_every_step_that_underflows() {
    // Eight times half the smallest subnormal: each step of inference is a
    // tie that rounds back to the zero it started from, the exact sum is
    // four subnormal steps — an absolute error no relative `u` accounts for.
    let tiny = f32::from_bits(1);
    let terms = [(Itv::point(tiny), 0.5_f32); 8];
    let inference = terms.iter().fold(0.0_f32, |s, &(x, w)| w.mul_add(x.lo, s));
    assert_eq!(inference, 0.0);
    let (y, drift) = assert_run_encloses(0.0, &terms, 0.5)
        .unwrap()
        .expect("tiny sums");
    assert!(y.contains(0.0) && y.contains(4.0 * tiny));
    assert!((4.0 * tiny..=16.0 * tiny).contains(&drift));
}

#[test]
fn wide_sum_has_no_result_for_non_finite_operands() {
    let one = Itv::point(1.0_f32);
    assert!(wide_sum(Itv::zero(), &[(one, one, None), (one, one, Some(true))]).is_some());
    for endpoint in [None, Some(false), Some(true)] {
        assert_eq!(wide_sum(Itv::zero(), &[(one, Itv::top(), endpoint)]), None);
        assert_eq!(
            wide_sum(
                Itv::zero(),
                &[(Itv::new(1.0, f32::INFINITY), one, endpoint)]
            ),
            None
        );
        // inf · 0 is not a zero the sum may keep.
        assert_eq!(
            wide_sum(Itv::zero(), &[(Itv::top(), Itv::zero(), endpoint)]),
            None
        );
    }
    assert_eq!(wide_sum(Itv::new(f32::NEG_INFINITY, 0.0), &[]), None);
    assert_eq!(
        wide_sum(
            Itv {
                lo: f32::NAN,
                hi: 1.0
            },
            &[(one, one, None)]
        ),
        None
    );
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

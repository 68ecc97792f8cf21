//! The backend conformance suite.
//!
//! Any [`Backend`] implementation — including a future CUDA/wgpu port —
//! must pass [`assert_backend_conformance`] unmodified. The suite pins the
//! whole kernel contract of the [`crate::backend`] module docs:
//!
//! * **GEMM bit-reproducibility** — every kernel of the GEMM family matches
//!   a straight-line scalar oracle *bit for bit* (for `f32` intervals:
//!   exact products accumulated in round-to-nearest `f64` in ascending `k`,
//!   one a-priori widening per row — from one magnitude sum against the
//!   largest weight of each `B` row — and one directed rounding per output;
//!   the per-step directed chain for rows with a non-finite operand), over a
//!   matrix of shapes that includes empty, single-element, non-square and
//!   block-boundary cases;
//! * **the prepared GEMM** — [`gemm::gemm_itv_f_prepared`] over a layer's
//!   [`DenseWeights`] equals the full product over raw slices, bit for bit
//!   and meter for meter, and with its segments' [`LivePanel`]s — the live
//!   GEMM — equals the full product's oracle in every live column and is an
//!   exact zero in every other, per segment, non-finite operands in live and
//!   dead columns included, metered by its live outputs;
//! * **concretize through a dense layer** —
//!   [`gemm::concretize_dense`] equals, candidate for candidate and bit for
//!   bit, the same device's two products without panels and concretize
//!   over them, and the straight-line oracles of both, non-finite operands
//!   and segments without rows included;
//! * **GEMM soundness** — interval results contain the exact (`f64`)
//!   product, and the outputs of single-term rows are the tightest
//!   enclosure;
//! * **scan / compaction / gather exactness** against serial oracles;
//! * **walk-step kernels** — GBC transpose convolution, bias fold, the
//!   ReLU substitution step (including its stable-zero column guarantee),
//!   densify, residual merge and concretize each match an independent
//!   straight-line oracle bit for bit over cuboid/full windows on every
//!   border of their layer and fused multi-segment batches (concretize and
//!   the bias fold also across the edges of row blocks of four and eight);
//!   for GBC (its oracle written in the layers' absolute coordinates, over
//!   destination windows that were clipped, slid and moved; one bound per
//!   destination position), bias fold, the ReLU step and concretize that
//!   oracle is the contract's wide rule restated per output in plain `f64`
//!   (per-step chain for non-finite operands), with the corners random data
//!   does not reach pinned separately;
//! * **host↔device and device↔device copies** round-trip bit-exactly;
//! * **launch accounting** — every kernel wrapper records its launch label;
//! * **memory accounting** — allocations charge and release capacity
//!   correctly, out-of-memory is reported (not panicked), and the buffer
//!   pool honors the backend's [`Backend::pooling`] policy.
//!
//! The granular `check_*` functions are public so property tests can drive
//! them with externally generated cases (see `tests/device_props.rs`);
//! `assert_backend_conformance` runs everything over a deterministic
//! internal case matrix.
//!
//! # Example
//!
//! The full run is multi-second work and already executed by
//! `tests/backend_conformance.rs`, so the example only compiles:
//!
//! ```no_run
//! use gpupoly_device::{conformance, Device, DeviceConfig, ReferenceBackend};
//!
//! conformance::assert_backend_conformance(|cfg| Device::new(cfg));
//! conformance::assert_backend_conformance(|cfg| Device::with_backend(ReferenceBackend, cfg));
//! ```

use gpupoly_interval::{round, Fp, Itv};

use crate::backend::{Backend, ExprGeom, GbcShape};
use crate::gemm::{DenseWeights, LivePanel};
use crate::relax::{ReluRelax, ReluTable};
use crate::{gemm, kernels, scan, Device, DeviceBuffer, DeviceConfig, DeviceError};

/// Deterministic splitmix64 stream for generating test data without
/// depending on an RNG crate.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[-1, 1)`.
    fn next_f32(&mut self) -> f32 {
        // 24 uniform bits scaled into [0, 1), then mapped to [-1, 1).
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }

    fn next_range(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }
}

fn bit_eq<F: Fp>(a: Itv<F>, b: Itv<F>) -> bool {
    a.lo.bits() == b.lo.bits() && a.hi.bits() == b.hi.bits()
}

/// `max(|lo|, |hi|)` in plain `f64` (finite operands only).
fn oracle_mag<F: Fp>(x: Itv<F>) -> f64 {
    x.lo.to_f64().abs().max(x.hi.to_f64().abs())
}

/// The contract's `wmax` of one term: the largest magnitude among the
/// weights `ws` its outputs multiply it by, `+inf` if any is `±inf` or NaN.
fn oracle_wmax<F: Fp>(ws: &[F]) -> f64 {
    if !ws.iter().all(|w| w.is_finite()) {
        return f64::INFINITY;
    }
    ws.iter().map(|w| w.to_f64().abs()).fold(0.0, f64::max)
}

/// The shared half of the wide rule of the [`crate::backend`] contract,
/// spelled out in plain `f64` arithmetic (deliberately not through
/// `gpupoly_interval::wide`, which the backends use): the error bound `e` of
/// one term list whose outputs start at `starts` and whose non-skipped terms
/// are `terms`, in order — each coefficient with the magnitude that bounds
/// what any output multiplies it by (`wmax`; the other factor's magnitude
/// for an interval×interval term). `None` when the rule does not apply: `F`
/// is not `f32`, or an operand is not finite.
fn oracle_widening<F: Fp>(starts: &[Itv<F>], terms: &[(Itv<F>, f64)]) -> Option<f64> {
    if !F::EXACT_IN_F64
        || !starts.iter().all(|c| c.is_finite())
        || !terms.iter().all(|(a, w)| a.is_finite() && w.is_finite())
    {
        return None;
    }
    let mut t = starts.iter().map(|&c| oracle_mag(c)).fold(0.0, f64::max);
    // Additions that can round: every term, plus a non-zero start.
    let adds = (terms.len() + usize::from(t != 0.0)).saturating_sub(1);
    for &(a, w) in terms {
        t += oracle_mag(a) * w;
    }
    Some(if adds > 0 {
        round::mul_up(t, adds as f64 * 2f64.powi(-52))
    } else {
        0.0
    })
}

/// `[down_F(down(lo − e)), up_F(up(hi + e))]`; a zero `e` moves nothing.
fn oracle_outward<F: Fp>(mut lo: f64, mut hi: f64, e: f64) -> Itv<F> {
    if e > 0.0 {
        lo = round::sub_down(lo, e);
        hi = round::add_up(hi, e);
    }
    Itv {
        lo: round::from_f64_down(lo),
        hi: round::from_f64_up(hi),
    }
}

/// The per-output half of the wide rule, in plain `f64` like
/// [`oracle_widening`], which supplies `e`: the output that starts at `c0`
/// and sums `terms`, the list's non-skipped `(coefficient, weight)` pairs in
/// order.
fn oracle_wide<F: Fp>(c0: Itv<F>, terms: &[(Itv<F>, F)], e: f64) -> Itv<F> {
    let (mut lo, mut hi) = (c0.lo.to_f64(), c0.hi.to_f64());
    for &(a, w) in terms {
        let w = w.to_f64();
        let (p, q) = (a.lo.to_f64() * w, a.hi.to_f64() * w);
        lo += if p < q { p } else { q };
        hi += if p > q { p } else { q };
    }
    oracle_outward(lo, hi, e)
}

/// The exact endpoints `(min, max)` of `a · b`: its extreme corner products
/// in plain `f64`, `min`/`max` spelled as the contract spells them.
fn oracle_corners<F: Fp>(a: Itv<F>, b: Itv<F>) -> (f64, f64) {
    let min = |p: f64, q: f64| if p < q { p } else { q };
    let max = |p: f64, q: f64| if p > q { p } else { q };
    let (al, ah) = (a.lo.to_f64(), a.hi.to_f64());
    let (bl, bh) = (b.lo.to_f64(), b.hi.to_f64());
    let (p1, p2, p3, p4) = (al * bl, al * bh, ah * bl, ah * bh);
    (min(min(p1, p2), min(p3, p4)), max(max(p1, p2), max(p3, p4)))
}

/// The interval×interval rule of the [`crate::backend`] contract for one
/// directed bound of `c + Σ a·b`, spelled out in plain `f64` arithmetic.
/// `terms` are the non-skipped `(coefficient, bound)` pairs in window order.
/// `None` when the rule does not apply: `F` is not `f32`, or an operand is
/// not finite.
fn oracle_wide_bound<F: Fp>(c: F, terms: &[(Itv<F>, Itv<F>)], upper: bool) -> Option<F> {
    if !terms.iter().all(|(_, b)| b.is_finite()) {
        return None;
    }
    let shared: Vec<(Itv<F>, f64)> = terms.iter().map(|&(a, b)| (a, oracle_mag(b))).collect();
    let e = oracle_widening(&[Itv { lo: c, hi: c }], &shared)?;
    let sum = terms.iter().fold(c.to_f64(), |sum, &(a, b)| {
        let (min, max) = oracle_corners(a, b);
        sum + if upper { max } else { min }
    });
    let y: Itv<F> = oracle_outward(sum, sum, e);
    Some(if upper { y.hi } else { y.lo })
}

/// Straight-line oracle for the interval×scalar GEMM family, starting from
/// `init` (or zero), one row of `C` — one term list — at a time. Exact-zero
/// coefficients are skipped, as the contract mandates: they neither count as
/// terms of the error bound nor — on the per-step chain — get to rewrite a
/// `-0.0` accumulator bound to `+0.0`. The row's `n` outputs share the bound
/// of [`oracle_widening`] over `wmax[k] = max_j |B[k][j]|`; a row it does not
/// cover takes the ascending-`k` [`Itv::mul_add_f`] chain, every element.
fn oracle_gemm_itv_f<F: Fp>(
    a: &[Itv<F>],
    b: &[F],
    init: Option<&[Itv<F>]>,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<Itv<F>> {
    let mut c = vec![Itv::zero(); m * n];
    for i in 0..m {
        let row: Vec<(usize, Itv<F>)> = (0..k)
            .map(|kk| (kk, a[i * k + kk]))
            .filter(|(_, aik)| !(aik.lo == F::ZERO && aik.hi == F::ZERO))
            .collect();
        let starts = init.map_or(&[][..], |c0| &c0[i * n..(i + 1) * n]);
        let shared: Vec<(Itv<F>, f64)> = row
            .iter()
            .map(|&(kk, aik)| (aik, oracle_wmax(&b[kk * n..(kk + 1) * n])))
            .collect();
        let e = oracle_widening(starts, &shared);
        for j in 0..n {
            let c0 = init.map_or(Itv::zero(), |c0| c0[i * n + j]);
            let terms: Vec<(Itv<F>, F)> =
                row.iter().map(|&(kk, aik)| (aik, b[kk * n + j])).collect();
            c[i * n + j] = match e {
                Some(e) => oracle_wide(c0, &terms, e),
                None => terms
                    .iter()
                    .fold(c0, |acc, &(aik, w)| aik.mul_add_f(w, acc)),
            };
        }
    }
    c
}

/// Straight-line oracle for the unsound scalar GEMM.
fn oracle_gemm_f_f<F: Fp>(a: &[F], b: &[F], m: usize, k: usize, n: usize) -> Vec<F> {
    let mut c = vec![F::ZERO; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = F::ZERO;
            for kk in 0..k {
                acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Checks the full GEMM family on one `f32` shape: bit-identical to the
/// scalar oracle, interval results contain the exact `f64` product, and the
/// launch/flop counters advance. Interval inputs mix points, genuinely
/// wide intervals and exact zeros of both signs (which backends must
/// skip), and some `acc` inits are `-0.0` — the inputs that make the
/// mandatory zero-skip observable.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_gemm_against_oracle<B: Backend>(
    device: &Device<B>,
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
) {
    let label = device.backend().label();
    let mut s = Stream::new(seed);
    let a: Vec<Itv<f32>> = (0..m * k)
        .map(|_| match s.next_range(6) {
            0 => Itv::zero(),          // exercise the mandatory zero-skip
            1 => Itv::point(-0.0_f32), // negative zero is a zero term too
            2 => {
                let lo = s.next_f32();
                Itv::new(lo, lo + s.next_f32().abs())
            }
            _ => Itv::point(s.next_f32()),
        })
        .collect();
    let b: Vec<f32> = (0..k * n).map(|_| s.next_f32()).collect();

    // gemm_itv_f: bit-identical to the straight-line oracle.
    let mut c = vec![Itv::new(9.0f32, 9.0); m * n]; // poisoned: must be overwritten
    let flops0 = device.stats().flops();
    let launches0 = device.stats().kernel_launches("gemm_itv_f");
    gemm::gemm_itv_f(device, &a, &b, &mut c, m, k, n);
    assert_eq!(
        device.stats().kernel_launches("gemm_itv_f"),
        launches0 + 1,
        "[{label}] gemm_itv_f must record its launch"
    );
    assert!(
        device.stats().flops() - flops0 >= gemm::flops_itv_f(m, k, n),
        "[{label}] gemm_itv_f must account its flops"
    );
    let want = oracle_gemm_itv_f(&a, &b, None, m, k, n);
    for (i, (got, want)) in c.iter().zip(&want).enumerate() {
        assert!(
            bit_eq(*got, *want),
            "[{label}] gemm_itv_f[{i}] ({m}x{k}x{n}): {got} != oracle {want}"
        );
    }

    // Soundness: the interval result contains the exact f64 product of the
    // interval endpoints' midpoints (a point inside every input interval).
    for i in 0..m {
        for j in 0..n {
            let exact: f64 = (0..k)
                .map(|kk| {
                    let av = a[i * k + kk];
                    let mid = (av.lo as f64 + av.hi as f64) / 2.0;
                    mid * b[kk * n + j] as f64
                })
                .sum();
            let got = c[i * n + j];
            assert!(
                (got.lo as f64) <= exact && exact <= (got.hi as f64),
                "[{label}] gemm_itv_f[{i},{j}] {got} misses exact {exact}"
            );
        }
    }

    // gemm_itv_f_acc: bit-identical to the oracle seeded with the init.
    // Some accumulators start at -0.0: the case where skipping vs
    // accumulating a zero term differ bitwise, pinning the mandatory skip.
    let init: Vec<Itv<f32>> = (0..m * n)
        .map(|_| {
            if s.next_range(5) == 0 {
                Itv::point(-0.0_f32)
            } else {
                Itv::point(s.next_f32())
            }
        })
        .collect();
    let mut acc = init.clone();
    gemm::gemm_itv_f_acc(device, &a, &b, &mut acc, m, k, n);
    let want = oracle_gemm_itv_f(&a, &b, Some(&init), m, k, n);
    for (i, (got, want)) in acc.iter().zip(&want).enumerate() {
        assert!(
            bit_eq(*got, *want),
            "[{label}] gemm_itv_f_acc[{i}] ({m}x{k}x{n}): {got} != oracle {want}"
        );
    }

    // gemm_f_f: bit-identical to the oracle.
    let af: Vec<f32> = (0..m * k).map(|_| s.next_f32()).collect();
    let mut cf = vec![9.0f32; m * n];
    gemm::gemm_f_f(device, &af, &b, &mut cf, m, k, n);
    let wantf = oracle_gemm_f_f(&af, &b, m, k, n);
    for (i, (got, want)) in cf.iter().zip(&wantf).enumerate() {
        assert!(
            got.to_bits() == want.to_bits(),
            "[{label}] gemm_f_f[{i}] ({m}x{k}x{n}): {got} != oracle {want}"
        );
    }
}

/// Pins the GEMM blocking rule (see the [`crate::backend`] module docs):
/// shapes that land just short of, exactly on and just past register-block
/// widths of 4, 8 and 16 columns and the per-worker row split must be
/// bit-identical to the straight-line oracle, and a launch must leave no
/// device memory behind (accumulators and term lists are kernel-local, not
/// device buffers).
///
/// `make` builds a device of the backend under test from a configuration.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_gemm_blocking<B: Backend>(make: &impl Fn(DeviceConfig) -> Device<B>) {
    let shapes = [
        (1usize, 1usize, 1usize),
        (3, 5, 7),
        (4, 4, 8),
        (5, 9, 9),
        (6, 10, 16),
        (7, 3, 17), // three workers get 3 + 3 + 1 rows
        (2, 7, 15),
        (3, 6, 31),
        (2, 5, 32),
        (3, 4, 33),
        (2, 9, 47),
        (9, 16, 130),
        (2, 3, 519),
    ];
    let device = make(DeviceConfig::new().workers(3));
    let label = device.backend().label();
    device.buffer_pool_retain();
    for (ci, &(m, k, n)) in shapes.iter().enumerate() {
        check_gemm_against_oracle(&device, m, k, n, 101 + ci as u64);
    }
    assert_eq!(
        device.stats().bytes_allocated(),
        0,
        "[{label}] GEMM launches must not allocate device memory"
    );
    device.buffer_pool_release();
}

/// Pins the corners of the interval GEMM contract that random data does not
/// reach: a coefficient row holding `±inf` and a weight that is `−inf`
/// (exactly the rows whose term list meets one take the per-step chain, all
/// of each; a row whose coefficient on the bad weight is zero keeps the wide
/// rule, in that weight's column too), all-zero rows (the accumulating kernel
/// must leave `C` untouched, `-0.0` included), and single-term rows (no
/// addition, so the result is the tightest enclosure of the one exact
/// product).
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_gemm_special_rows<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    let mut s = Stream::new(0x1f);
    let (m, k, n) = (6usize, 11usize, 19usize);
    let mut a: Vec<Itv<f32>> = (0..m * k)
        .map(|_| {
            let lo = s.next_f32();
            Itv::new(lo, lo + s.next_f32().abs() * 0.125)
        })
        .collect();
    let mut b: Vec<f32> = (0..k * n).map(|_| s.next_f32()).collect();
    // One non-finite entry per row / column, so no `inf − inf` arises and
    // the expected bits hold no NaN.
    a[3] = Itv::new(1.0, f32::INFINITY); // row 0
    a[k + 7] = Itv::top(); // row 1
    a[2 * k..3 * k].fill(Itv::zero()); // row 2: nothing to accumulate
    a[2 * k + 4] = Itv::point(-0.0);
    a[3 * k..4 * k].fill(Itv::zero()); // row 3: a single term
    a[3 * k + 5] = Itv::new(0.1, 0.3);
    b[2 * n + 6] = f32::NEG_INFINITY; // weight row 2: met by row 5 ...
    a[4 * k + 2] = Itv::point(-0.0); // ... but not by row 4
    b[4 * n..5 * n].fill(0.0); // a zero weight row: exact-zero products
    b[4 * n + 1] = -0.0;
    let init: Vec<Itv<f32>> = (0..m * n)
        .map(|i| match i % 4 {
            0 => Itv::point(-0.0),
            1 => Itv::zero(),
            _ => Itv::point(s.next_f32()),
        })
        .collect();

    let mut fresh = vec![Itv::point(9.0_f32); m * n];
    gemm::gemm_itv_f(device, &a, &b, &mut fresh, m, k, n);
    let want = oracle_gemm_itv_f(&a, &b, None, m, k, n);
    assert_planes_bit_eq(label, "gemm_itv_f (special rows)", &fresh, &want);
    let mut acc = init.clone();
    gemm::gemm_itv_f_acc(device, &a, &b, &mut acc, m, k, n);
    let want = oracle_gemm_itv_f(&a, &b, Some(&init), m, k, n);
    assert_planes_bit_eq(label, "gemm_itv_f_acc (special rows)", &acc, &want);

    // The corners did what they are there for.
    assert!(
        fresh[..2 * n].iter().all(|v| !v.is_finite()),
        "[{label}] non-finite rows lost"
    );
    assert!(
        fresh[4 * n..5 * n].iter().all(|v| v.is_finite()) && !fresh[5 * n + 6].is_finite(),
        "[{label}] the -inf weight must reach row 5 and only row 5"
    );
    for j in 0..n {
        assert!(
            bit_eq(acc[2 * n + j], init[2 * n + j]),
            "[{label}] all-zero row must leave C[2,{j}] untouched"
        );
        // Row 5 is on the chain in every column, not only the bad one.
        let chain = a[5 * k..6 * k]
            .iter()
            .enumerate()
            .filter(|(_, v)| !(v.lo == 0.0 && v.hi == 0.0))
            .fold(Itv::zero(), |c, (kk, v)| v.mul_add_f(b[kk * n + j], c));
        assert!(
            bit_eq(fresh[5 * n + j], chain),
            "[{label}] row 5 meets a -inf weight: [5,{j}] {} is not the chain's {chain}",
            fresh[5 * n + j]
        );
        let w = b[5 * n + j] as f64;
        let (p, q) = (0.1_f32 as f64 * w, 0.3_f32 as f64 * w);
        let tight = Itv::<f32> {
            lo: round::from_f64_down(p.min(q)),
            hi: round::from_f64_up(p.max(q)),
        };
        assert!(
            bit_eq(fresh[3 * n + j], tight),
            "[{label}] single-term output [3,{j}] {} is not the tightest enclosure {tight}",
            fresh[3 * n + j]
        );
    }
}

/// The contract of [`Backend::gemm_itv_f_prepared`] with panels in
/// straight-line form: the [`oracle_gemm_itv_f`] product, every column
/// outside row `i`'s list `live_per_seg[seg[i]]` an exact `[+0, +0]`.
fn oracle_gemm_live(
    a: &[Itv<f32>],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    seg: &[u32],
    live_per_seg: &[Vec<u32>],
) -> Vec<Itv<f32>> {
    let mut c = oracle_gemm_itv_f(a, b, None, m, k, n);
    for i in 0..m {
        for j in 0..n {
            if !live_per_seg[seg[i] as usize].contains(&(j as u32)) {
                c[i * n + j] = Itv::zero();
            }
        }
    }
    c
}

/// The `gemm_itv_f` meter of `device`: launches and flops.
fn gemm_meter<B: Backend>(device: &Device<B>) -> (u64, u64) {
    (
        device.stats().kernel_launches("gemm_itv_f"),
        device.stats().kernel_flops("gemm_itv_f"),
    )
}

/// Runs [`gemm::gemm_itv_f_prepared`] over `B`'s [`DenseWeights`] and one
/// [`LivePanel`] per list of `live_per_seg` — twice, as a panel serves every
/// launch through its layer — into a poisoned `C`, and holds each launch to
/// [`oracle_gemm_live`] — bit for bit, or with `nan` but for a NaN's
/// payload — and its meter to one `gemm_itv_f` launch of `4·k` flops per
/// live output. Returns `C`.
#[allow(clippy::too_many_arguments)]
fn assert_gemm_live_matches_oracle<B: Backend>(
    device: &Device<B>,
    tag: &str,
    (a, b): (&[Itv<f32>], &[f32]),
    (m, k, n): (usize, usize, usize),
    seg: &[u32],
    live_per_seg: &[Vec<u32>],
    nan: bool,
) -> Vec<Itv<f32>> {
    let label = device.backend().label();
    let wmax = gemm::layer_wmax(b, k, n);
    let weights = DenseWeights::new(b, &wmax, k, n);
    let panels: Vec<LivePanel<f32>> = live_per_seg
        .iter()
        .map(|l| LivePanel::new(&weights, l))
        .collect();
    let panels: Vec<&LivePanel<f32>> = panels.iter().collect();
    let outputs: usize = seg.iter().map(|&s| live_per_seg[s as usize].len()).sum();
    let want = oracle_gemm_live(a, b, (m, k, n), seg, live_per_seg);
    let what = format!("gemm_itv_f_prepared ({tag}, panels)");
    let mut c = Vec::new();
    for _ in 0..2 {
        c = vec![Itv::new(9.0f32, 9.0); m * n];
        let before = gemm_meter(device);
        gemm::gemm_itv_f_prepared(device, a, &weights, &mut c, m, seg, Some(&panels));
        let after = gemm_meter(device);
        assert_eq!(
            after.0,
            before.0 + 1,
            "[{label}] {what}: one gemm_itv_f launch"
        );
        assert_eq!(
            after.1 - before.1,
            4 * (k * outputs) as u64,
            "[{label}] {what}: metered by its live outputs only"
        );
        match nan {
            true => assert_planes_bit_eq_or_nan(label, &what, &c, &want),
            false => assert_planes_bit_eq(label, &what, &c, &want),
        }
    }
    c
}

/// Checks [`gemm::gemm_itv_f_prepared`] with panels against its oracle over
/// random shapes — block-boundary and remainder ones among them — with rows
/// dealt to up to four segments in no particular order, each segment's live
/// list empty, full, a random subset of the columns, or one of 7, 8, 9, 15,
/// 16 or 17 random columns (either side of blocks of 8 and 16 live columns).
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_gemm_live_against_oracle<B: Backend>(device: &Device<B>, seed: u64) {
    let mut s = Stream::new(seed ^ 0x11fe);
    let shapes = [
        (1usize, 1usize, 1usize),
        (7, 3, 17),
        (5, 7, 33),
        (9, 16, 130),
        (2, 3, 519),
        (
            s.next_range(12) + 1,
            s.next_range(23) + 1,
            s.next_range(40) + 1,
        ),
    ];
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let a: Vec<Itv<f32>> = (0..m * k)
            .map(|_| match s.next_range(5) {
                0 => Itv::zero(),
                1 => Itv::point(-0.0),
                2 => {
                    let lo = s.next_f32();
                    Itv::new(lo, lo + s.next_f32().abs())
                }
                _ => Itv::point(s.next_f32()),
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|_| s.next_f32()).collect();
        let segments = s.next_range(4) + 1;
        let seg: Vec<u32> = (0..m).map(|_| s.next_range(segments) as u32).collect();
        let live: Vec<Vec<u32>> = (0..segments)
            .map(|_| match s.next_range(5) {
                0 => Vec::new(),
                1 => (0..n as u32).collect(),
                2 => {
                    // `len` of the columns: drop random ones until it is.
                    let len = [7, 8, 9, 15, 16, 17][s.next_range(6)].min(n);
                    let mut cols: Vec<u32> = (0..n as u32).collect();
                    while cols.len() > len {
                        cols.remove(s.next_range(cols.len()));
                    }
                    cols
                }
                _ => (0..n as u32).filter(|_| s.next_range(2) == 0).collect(),
            })
            .collect();
        let tag = format!("{m}x{k}x{n}, case {case}");
        assert_gemm_live_matches_oracle(device, &tag, (&a, &b), (m, k, n), &seg, &live, false);
    }
}

/// Pins the corners of [`gemm::gemm_itv_f_prepared`] with panels that random
/// data does not reach. A `-inf` weight in a column one segment has dead and
/// another live: a row that meets its `B` row goes to the per-step chain in
/// its live columns either way (`wmax` spans the whole row), and the dead
/// column is still an exact zero. A row with a non-finite coefficient takes the chain
/// over its live columns; under an empty list it is all zeros. And the
/// empty dimensions: `k = 0` writes zeros, `m = 0` and `n = 0` nothing.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_gemm_live_special_cases<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    let mut s = Stream::new(0x11fe5);
    let (m, k, n) = (6usize, 11usize, 19usize);
    let mut a: Vec<Itv<f32>> = (0..m * k)
        .map(|_| {
            let lo = s.next_f32();
            Itv::new(lo, lo + s.next_f32().abs() * 0.125)
        })
        .collect();
    let mut b: Vec<f32> = (0..k * n).map(|_| s.next_f32()).collect();
    a[3] = Itv::new(1.0, f32::INFINITY); // row 0, segment 0: nothing live
    a[k + 7] = Itv::top(); // row 1, segment 1: every column live
    b[2 * n + 6] = f32::NEG_INFINITY; // column 6: live in segment 1, dead in 2
    a[4 * k + 2] = Itv::point(-0.0); // row 4 (segment 1) does not meet it
    let seg = [0u32, 1, 2, 0, 1, 2];
    let live = vec![
        Vec::new(),
        (0..n as u32).collect(),
        (0..n as u32).filter(|j| j % 3 != 0).collect::<Vec<_>>(),
    ];
    assert!(!live[2].contains(&6));
    let c =
        assert_gemm_live_matches_oracle(device, "special", (&a, &b), (m, k, n), &seg, &live, false);
    let zero = Itv::<f32>::zero();
    assert!(
        c[..n]
            .iter()
            .chain(&c[3 * n..4 * n])
            .all(|v| bit_eq(*v, zero)),
        "[{label}] rows without live columns must be exact zeros, a non-finite one too"
    );
    assert!(
        c[n..2 * n].iter().all(|v| !v.is_finite()),
        "[{label}] row 1's unbounded coefficient must reach its live columns"
    );
    assert!(
        c[4 * n..5 * n].iter().all(|v| v.is_finite()),
        "[{label}] row 4 does not meet the -inf weight"
    );
    // Row 5 meets the -inf weight in a column it has dead: the column is an
    // exact zero, and its live columns are the per-step chain's, every one.
    assert!(bit_eq(c[5 * n + 6], zero), "[{label}] dead -inf column");
    for &j in &live[2] {
        let j = j as usize;
        let chain = (0..k)
            .map(|kk| (kk, a[5 * k + kk]))
            .filter(|(_, v)| !(v.lo == 0.0 && v.hi == 0.0))
            .fold(Itv::zero(), |c, (kk, v)| v.mul_add_f(b[kk * n + j], c));
        assert!(
            bit_eq(c[5 * n + j], chain),
            "[{label}] row 5 meets a -inf weight: [5,{j}] {} is not the chain's {chain}",
            c[5 * n + j]
        );
    }
    // Empty dimensions.
    let lists = [vec![0, 1, 2, 3], vec![1, 3]];
    let k0 = assert_gemm_live_matches_oracle(
        device,
        "k = 0",
        (&[], &[]),
        (3, 0, 4),
        &[0, 1, 0],
        &lists,
        false,
    );
    assert!(k0.iter().all(|v| bit_eq(*v, zero)), "[{label}] k = 0");
    let none: Vec<Vec<u32>> = vec![vec![0, 2]];
    assert_gemm_live_matches_oracle(
        device,
        "m = 0",
        (&[], &b[..2 * 3]),
        (0, 2, 3),
        &[],
        &none,
        false,
    );
    assert_gemm_live_matches_oracle(
        device,
        "n = 0",
        (&a[..4], &[]),
        (2, 2, 0),
        &[0, 0],
        &[Vec::new()],
        false,
    );
}

/// Holds [`Backend::gemm_itv_f_prepared`] without panels to the launch
/// over raw slices it is defined by, [`gemm::gemm_itv_f`] — bit for bit, on
/// the same device (so an override is held to the provided body), and meter
/// for meter: one `gemm_itv_f` launch of the same flops — and both to the
/// straight-line oracle; and with panels to its oracle, as
/// [`check_gemm_live_against_oracle`] holds it. Over random shapes, among
/// them the special rows of [`check_gemm_live_special_cases`] (a `-inf`
/// weight in a column one segment has dead and another live, an unbounded
/// coefficient, rows without live columns), with `±0`, subnormals, `±inf`
/// and NaN among the coefficients and weights, live lists empty, full and
/// random, and every operand read by two launches.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_gemm_prepared<B: Backend>(device: &Device<B>, seed: u64) {
    let label = device.backend().label();
    let mut s = Stream::new(seed ^ 0x9e9a);
    let special = [
        0.0f32,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(0x7f_ffff),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let shapes = [
        (1usize, 1usize, 1usize),
        (6, 11, 19),
        (9, 16, 130),
        (2, 3, 519),
        (4, 0, 5),
        (0, 3, 4),
        (
            s.next_range(12) + 1,
            s.next_range(40) + 1,
            s.next_range(40) + 1,
        ),
    ];
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        // Every fourth case holds no special value, and is held to the
        // oracle bit for bit; the others to the oracle but for NaN's bits.
        let odd = case % 4 != 0;
        let value = |s: &mut Stream| match odd && s.next_range(10) == 0 {
            true => special[s.next_range(special.len())],
            false => s.next_f32(),
        };
        let mut a: Vec<Itv<f32>> = (0..m * k)
            .map(|_| match s.next_range(5) {
                0 => Itv::zero(),
                1 => Itv::point(-0.0),
                2 => {
                    let (x, y) = (value(&mut s), value(&mut s));
                    Itv {
                        lo: x.min(y),
                        hi: x.max(y),
                    }
                }
                _ => {
                    let x = value(&mut s);
                    Itv { lo: x, hi: x }
                }
            })
            .collect();
        let mut b: Vec<f32> = (0..k * n).map(|_| value(&mut s)).collect();
        let segments = 3;
        let mut seg: Vec<u32> = (0..m).map(|_| s.next_range(segments) as u32).collect();
        let mut live: Vec<Vec<u32>> = vec![
            Vec::new(),
            (0..n as u32).collect(),
            (0..n as u32).filter(|_| s.next_range(2) == 0).collect(),
        ];
        if (m, k, n) == (6, 11, 19) {
            // `check_gemm_live_special_cases`' rows, on finite operands.
            a = a
                .iter()
                .map(|v| if v.is_finite() { *v } else { Itv::point(0.5) })
                .collect();
            b = b
                .iter()
                .map(|w| if w.is_finite() { *w } else { -0.25 })
                .collect();
            a[3] = Itv::new(1.0, f32::INFINITY);
            a[k + 7] = Itv::top();
            b[2 * n + 6] = f32::NEG_INFINITY;
            a[4 * k + 2] = Itv::point(-0.0);
            seg = vec![0, 1, 2, 0, 1, 2];
            live[2] = (0..n as u32).filter(|j| j % 3 != 0).collect();
        }
        let tag = format!("{m}x{k}x{n}, case {case}");
        let wmax = gemm::layer_wmax(&b, k, n);
        let weights = DenseWeights::new(&b, &wmax, k, n);
        let mut want = vec![Itv::new(9.0f32, 9.0); m * n];
        let before = gemm_meter(device);
        gemm::gemm_itv_f(device, &a, &b, &mut want, m, k, n);
        let raw = gemm_meter(device);
        let oracle = oracle_gemm_itv_f(&a, &b, None, m, k, n);
        let what = format!("gemm_itv_f_prepared ({tag})");
        for _ in 0..2 {
            let mut got = vec![Itv::new(7.0f32, 7.0); m * n];
            let before_prepared = gemm_meter(device);
            gemm::gemm_itv_f_prepared(device, &a, &weights, &mut got, m, &seg, None);
            let after = gemm_meter(device);
            assert_eq!(
                (after.0 - before_prepared.0, after.1 - before_prepared.1),
                (raw.0 - before.0, raw.1 - before.1),
                "[{label}] {what}: one gemm_itv_f launch of the raw launch's flops"
            );
            assert_planes_bit_eq(label, &what, &got, &want);
            assert_planes_bit_eq_or_nan(label, &what, &got, &oracle);
        }
        assert_gemm_live_matches_oracle(device, &tag, (&a, &b), (m, k, n), &seg, &live, odd);
    }
}

/// Checks [`gemm::concretize_dense`] — a walk's last dense step and the
/// input's candidate in one launch — on a spread of shapes (`m` across row
/// blocks of four and eight, `n` 784 and the edges of column blocks, empty
/// dimensions) with three segments, one of them without rows: its candidates
/// equal, bit for bit, those of the same device's unfused launches — two
/// [`gemm::gemm_itv_f_prepared`] without panels and [`kernels::concretize`]
/// over the products, flat and, where `n` is `2·3·c`, as a `2×3×c` window
/// — and the straight-line oracles' (the GEMM family's, then
/// concretize's); and it records one `concretize_dense` launch.
/// Every third case mixes `±0`, subnormals, `±inf` and NaN into the planes,
/// the weights, the constants and the bounds (`top` bounds included), and
/// is held to the oracles but for NaN payloads; one holds a non-finite
/// weight met by some rows only, and a row whose magnitude sum against the
/// bounds is not finite.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_concretize_dense<B: Backend>(device: &Device<B>, seed: u64) {
    let label = device.backend().label();
    let mut s = Stream::new(seed ^ 0xcdd5);
    let special = [
        0.0f32,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(0x7f_ffff),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let shapes = [
        (1usize, 1usize, 1usize),
        (10, 25, 784),
        (9, 16, 131),
        (8, 7, 12),
        (17, 5, 30),
        (3, 0, 6),
        (0, 4, 5),
        (5, 3, 0),
        (
            s.next_range(20) + 1,
            s.next_range(30) + 1,
            s.next_range(60) + 1,
        ),
    ];
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let odd = case % 3 == 2;
        let value = |s: &mut Stream| match odd && s.next_range(8) == 0 {
            true => special[s.next_range(special.len())],
            false => s.next_f32(),
        };
        let itv = |s: &mut Stream| match s.next_range(5) {
            0 => Itv::zero(),
            1 => Itv::point(-0.0),
            2 => {
                let (x, y) = (value(s), value(s));
                Itv {
                    lo: x.min(y),
                    hi: x.max(y),
                }
            }
            _ => {
                let x = value(s);
                Itv { lo: x, hi: x }
            }
        };
        let mut lo: Vec<Itv<f32>> = (0..m * k).map(|_| itv(&mut s)).collect();
        let hi: Vec<Itv<f32>> = (0..m * k).map(|_| itv(&mut s)).collect();
        let mut b: Vec<f32> = (0..k * n).map(|_| value(&mut s)).collect();
        let cst_lo: Vec<Itv<f32>> = (0..m).map(|_| itv(&mut s)).collect();
        let cst_hi: Vec<Itv<f32>> = (0..m).map(|_| itv(&mut s)).collect();
        // Segment 1 has no rows.
        let seg: Vec<u32> = (0..m).map(|_| 2 * s.next_range(2) as u32).collect();
        let mut bounds: Vec<Vec<Itv<f32>>> = (0..3)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let (x, y) = (value(&mut s), value(&mut s));
                        Itv {
                            lo: x.min(y),
                            hi: x.max(y),
                        }
                    })
                    .collect()
            })
            .collect();
        if (m, k, n) == (17, 5, 30) {
            // Row 0's lower plane meets an infinite weight, which sends its
            // product to the chain; no other row's lower plane has a term in
            // that row of B. Rows of segment 2 meet a `top` bound, which
            // sends their candidates to the chain.
            b[2 * n + 4] = f32::INFINITY;
            lo[2] = Itv::point(0.5);
            for r in 1..m {
                lo[r * k + 2] = Itv::zero();
            }
            bounds[2][7] = Itv::top();
        }
        let bref: Vec<&[Itv<f32>]> = bounds.iter().map(Vec::as_slice).collect();
        let wmax = gemm::layer_wmax(&b, k, n);
        let weights = DenseWeights::new(&b, &wmax, k, n);
        let tag = format!("concretize_dense ({m}x{k}x{n}, case {case})");

        // The same device's unfused launches.
        let (mut lo_in, mut hi_in) = (vec![Itv::zero(); m * n], vec![Itv::zero(); m * n]);
        gemm::gemm_itv_f_prepared(device, &lo, &weights, &mut lo_in, m, &seg, None);
        gemm::gemm_itv_f_prepared(device, &hi, &weights, &mut hi_in, m, &seg, None);
        let flat_origins = vec![(0, 0); m];
        let flat = ExprGeom {
            win_h: 1,
            win_w: n,
            shape_h: 1,
            shape_w: n,
            chans: 1,
            origins: &flat_origins,
            seg: &seg,
        };
        let mut want = vec![Itv::point(9.0f32); m];
        kernels::concretize(
            device, &lo_in, &hi_in, &cst_lo, &cst_hi, &flat, &bref, &mut want,
        );
        if n % 6 == 0 && n > 0 {
            let windowed = ExprGeom {
                win_h: 2,
                win_w: 3,
                shape_h: 2,
                shape_w: 3,
                chans: n / 6,
                ..flat
            };
            let mut got = vec![Itv::point(9.0f32); m];
            kernels::concretize(
                device, &lo_in, &hi_in, &cst_lo, &cst_hi, &windowed, &bref, &mut got,
            );
            assert_planes_bit_eq(label, &format!("{tag}: a 2x3 window"), &got, &want);
        }
        let oracle = oracle_concretize(
            &oracle_gemm_itv_f(&lo, &b, None, m, k, n),
            &oracle_gemm_itv_f(&hi, &b, None, m, k, n),
            &cst_lo,
            &cst_hi,
            &flat,
            &bref,
        );
        for _ in 0..2 {
            let mut got = vec![Itv::point(7.0f32); m];
            let launches0 = device.stats().kernel_launches("concretize_dense");
            gemm::concretize_dense(
                device, &lo, &hi, &weights, &cst_lo, &cst_hi, &seg, &bref, &mut got,
            );
            assert_eq!(
                device.stats().kernel_launches("concretize_dense"),
                launches0 + 1,
                "[{label}] {tag} must record one launch"
            );
            assert_planes_bit_eq(
                label,
                &format!("{tag} against the unfused launches"),
                &got,
                &want,
            );
            match odd {
                true => assert_planes_bit_eq_or_nan(label, &tag, &got, &oracle),
                false => assert_planes_bit_eq(label, &tag, &got, &oracle),
            }
        }
        if (m, k, n) == (17, 5, 30) {
            assert!(
                want.iter()
                    .zip(&seg)
                    .all(|(c, &g)| g != 2 || !c.is_finite()),
                "[{label}] {tag}: a top bound must reach every row of its segment"
            );
        }
    }
}

/// Checks [`scan::exclusive_scan`] against the serial oracle on one input.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_scan_against_oracle<B: Backend>(device: &Device<B>, xs: &[u32]) {
    let label = device.backend().label();
    let launches0 = device.stats().kernel_launches("exclusive_scan");
    let (got, total) = scan::exclusive_scan(device, xs);
    assert_eq!(
        device.stats().kernel_launches("exclusive_scan"),
        launches0 + 1,
        "[{label}] exclusive_scan must record its launch"
    );
    let mut acc = 0u32;
    for (i, &x) in xs.iter().enumerate() {
        assert_eq!(
            got[i],
            acc,
            "[{label}] exclusive_scan[{i}] wrong (n={})",
            xs.len()
        );
        acc += x;
    }
    assert_eq!(got.len(), xs.len(), "[{label}] scan length mismatch");
    assert_eq!(total, acc, "[{label}] scan total mismatch");
}

/// Checks compaction and row gather against serial oracles on one keep
/// mask: `compact_indices` equals the filtered index list, `compact_rows`
/// is a stable row filter, and `gather_rows_into` handles repeated and
/// out-of-order indices.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_compaction_against_oracle<B: Backend>(
    device: &Device<B>,
    keep: &[bool],
    row_len: usize,
) {
    let label = device.backend().label();
    let idx = scan::compact_indices(device, keep);
    let want: Vec<u32> = keep
        .iter()
        .enumerate()
        .filter_map(|(i, &k)| k.then_some(i as u32))
        .collect();
    assert_eq!(idx, want, "[{label}] compact_indices mismatch");

    let row_len = row_len.max(1);
    let src: Vec<u64> = (0..keep.len() * row_len).map(|i| i as u64).collect();
    let (mat, idx2) = scan::compact_rows(device, &src, row_len, keep);
    assert_eq!(idx2, want, "[{label}] compact_rows index mismatch");
    for (j, &orig) in idx2.iter().enumerate() {
        assert_eq!(
            &mat[j * row_len..(j + 1) * row_len],
            &src[orig as usize * row_len..(orig as usize + 1) * row_len],
            "[{label}] compact_rows row {j} content mismatch"
        );
    }

    // Gather with repeated, out-of-order indices (a permutation the
    // compaction path never produces but the gather contract allows).
    if !keep.is_empty() {
        let n = keep.len() as u32;
        let index: Vec<u32> = (0..keep.len().min(17) as u32)
            .map(|i| (i * 7 + 3) % n)
            .collect();
        let mut dst = vec![0u64; index.len() * row_len];
        scan::gather_rows_into(device, &src, row_len, &index, &mut dst);
        for (j, &orig) in index.iter().enumerate() {
            assert_eq!(
                &dst[j * row_len..(j + 1) * row_len],
                &src[orig as usize * row_len..(orig as usize + 1) * row_len],
                "[{label}] gather_rows row {j} mismatch"
            );
        }
    }
}

/// A deterministic test geometry for the walk-step kernels: `rows` cuboid
/// windows (`win_h × win_w × chans`) inside a `shape_h × shape_w × chans`
/// frontier, with origins spread across the extent, its borders included,
/// and rows alternating between `segments` query segments.
struct GeomCase {
    win_h: usize,
    win_w: usize,
    shape_h: usize,
    shape_w: usize,
    chans: usize,
    origins: Vec<(i32, i32)>,
    seg: Vec<u32>,
}

impl GeomCase {
    #[allow(clippy::too_many_arguments)]
    fn new(
        rows: usize,
        win_h: usize,
        win_w: usize,
        shape_h: usize,
        shape_w: usize,
        chans: usize,
        segments: usize,
        s: &mut Stream,
    ) -> Self {
        let origins = (0..rows)
            .map(|_| {
                (
                    s.next_range(shape_h - win_h + 1) as i32,
                    s.next_range(shape_w - win_w + 1) as i32,
                )
            })
            .collect();
        let seg = (0..rows).map(|r| (r % segments.max(1)) as u32).collect();
        Self {
            win_h,
            win_w,
            shape_h,
            shape_w,
            chans,
            origins,
            seg,
        }
    }

    fn geom(&self) -> ExprGeom<'_> {
        ExprGeom {
            win_h: self.win_h,
            win_w: self.win_w,
            shape_h: self.shape_h,
            shape_w: self.shape_w,
            chans: self.chans,
            origins: &self.origins,
            seg: &self.seg,
        }
    }

    fn rows(&self) -> usize {
        self.origins.len()
    }

    fn cols(&self) -> usize {
        self.win_h * self.win_w * self.chans
    }

    fn frontier_len(&self) -> usize {
        self.shape_h * self.shape_w * self.chans
    }

    /// A coefficient plane mixing exact zeros (both signs), stable-sign and
    /// straddling intervals.
    fn plane(&self, s: &mut Stream) -> Vec<Itv<f32>> {
        (0..self.rows() * self.cols())
            .map(|_| match s.next_range(6) {
                0 => Itv::zero(),
                1 => Itv::point(-0.0_f32),
                2 => {
                    let v = s.next_f32().abs() + 1e-3;
                    Itv::new(-v, v * 0.5) // straddles zero
                }
                3 => Itv::point(-(s.next_f32().abs()) - 1e-3),
                _ => Itv::point(s.next_f32().abs() + 1e-3),
            })
            .collect()
    }

    fn csts(&self, s: &mut Stream) -> Vec<Itv<f32>> {
        (0..self.rows())
            .map(|_| {
                if s.next_range(5) == 0 {
                    Itv::point(-0.0_f32)
                } else {
                    Itv::point(s.next_f32())
                }
            })
            .collect()
    }
}

fn assert_planes_bit_eq<F: Fp>(label: &str, kernel: &str, got: &[Itv<F>], want: &[Itv<F>]) {
    assert_eq!(got.len(), want.len(), "[{label}] {kernel} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(bit_eq(*g, *w), "[{label}] {kernel}[{i}]: {g} != oracle {w}");
    }
}

/// [`assert_planes_bit_eq`] for expectations that hold NaN bounds (a NaN
/// weight, `inf − inf`): a NaN matches any NaN, since its payload bits are
/// not part of the contract.
fn assert_planes_bit_eq_or_nan(label: &str, kernel: &str, got: &[Itv<f32>], want: &[Itv<f32>]) {
    let same = |g: f32, w: f32| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
    assert_eq!(got.len(), want.len(), "[{label}] {kernel} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g.lo, w.lo) && same(g.hi, w.hi),
            "[{label}] {kernel}[{i}]: {g} != oracle {w}"
        );
    }
}

/// The term list of the destination elements at position `(y, x)` of the
/// conv *input*, for row `r` of a GBC launch, in the contract's order —
/// ascending source position, then output channel `d` — as
/// `(coefficient, weights)` pairs, `weights[c]` what input channel `c`
/// multiplies the term by. Written in the two layers' absolute coordinates
/// and found by trying every source position, not by the kernel's window
/// arithmetic: the source position at `(sy, sx)` of the conv output
/// contributes through filter tap `(f, g)` when `sy·sh + f = y + ph` and
/// `sx·sw + g = x + pw`. Exact-zero coefficients are skipped.
fn oracle_gbc_terms<'w>(
    r: usize,
    (y, x): (usize, usize),
    src: &[Itv<f32>],
    g: &ExprGeom<'_>,
    weight: &'w [f32],
    conv: &GbcShape,
) -> Vec<(Itv<f32>, &'w [f32])> {
    let mut terms = Vec::new();
    for i in 0..g.win_h {
        for j in 0..g.win_w {
            let (sy, sx) = (g.origins[r].0 as usize + i, g.origins[r].1 as usize + j);
            let tap = |at: usize, pos: usize, stride: usize, k: usize| {
                at.checked_sub(pos * stride).filter(|&t| t < k)
            };
            let (Some(f), Some(gg)) = (
                tap(y + conv.ph, sy, conv.sh, conv.kh),
                tap(x + conv.pw, sx, conv.sw, conv.kw),
            ) else {
                continue;
            };
            for d in 0..conv.cout {
                let m = src[r * g.cols() + (i * g.win_w + j) * conv.cout + d];
                if !(m.lo == 0.0 && m.hi == 0.0) {
                    terms.push((m, &weight[conv.widx(f, gg, d, 0)..][..conv.cin]));
                }
            }
        }
    }
    terms
}

/// Straight-line oracle of a whole GBC launch from the written rule: every
/// destination position on its own, wherever the caller's origin put it —
/// its `c_in` elements share [`oracle_gbc_terms`] of the conv-input position
/// it stands for and the bound of [`oracle_widening`] over
/// `wmax = max_c |w[f][g][d][c]|`, and each is the wide rule from exact zero,
/// or all of them the per-step chain over the same terms where the wide rule
/// does not apply. A term whose conv-input position no window position
/// stands for is in no list.
pub(crate) fn oracle_gbc(
    src: &[Itv<f32>],
    g: &ExprGeom<'_>,
    weight: &[f32],
    conv: &GbcShape,
    dst_origins: &[(i32, i32)],
    dst_win: (usize, usize),
) -> Vec<Itv<f32>> {
    let mut want = Vec::with_capacity(g.rows() * dst_win.0 * dst_win.1 * conv.cin);
    for (r, &(oh, ow)) in dst_origins.iter().enumerate() {
        for a in 0..dst_win.0 {
            for b in 0..dst_win.1 {
                let at = (oh as usize + a, ow as usize + b);
                let list = oracle_gbc_terms(r, at, src, g, weight, conv);
                let shared: Vec<(Itv<f32>, f64)> =
                    list.iter().map(|&(m, ws)| (m, oracle_wmax(ws))).collect();
                let e = oracle_widening(&[], &shared);
                for c in 0..conv.cin {
                    let terms: Vec<(Itv<f32>, f32)> =
                        list.iter().map(|&(m, ws)| (m, ws[c])).collect();
                    want.push(match e {
                        Some(e) => oracle_wide(Itv::zero(), &terms, e),
                        None => terms
                            .iter()
                            .fold(Itv::zero(), |acc, &(m, w)| m.mul_add_f(w, acc)),
                    });
                }
            }
        }
    }
    want
}

/// Extent of the conv output (the source frontier of a GBC launch).
fn conv_out_extent(conv: &GbcShape) -> (usize, usize) {
    (
        (conv.in_h + 2 * conv.ph - conv.kh) / conv.sh + 1,
        (conv.in_w + 2 * conv.pw - conv.kw) / conv.sw + 1,
    )
}

/// The destination windows `gpupoly-core`'s conv step asks for: each source
/// window grown through the convolution — `(W − 1)·s + k` positions from
/// `o·s − p` — then clipped to the conv input and slid inside it. Returns the
/// (uniform) window and the per-row origins.
fn grown_windows(case: &GeomCase, conv: &GbcShape) -> ((usize, usize), Vec<(i32, i32)>) {
    let win = (
        ((case.win_h - 1) * conv.sh + conv.kh).min(conv.in_h),
        ((case.win_w - 1) * conv.sw + conv.kw).min(conv.in_w),
    );
    let slide = |o: i32, stride: usize, pad: usize, win: usize, extent: usize| {
        (o * stride as i32 - pad as i32).clamp(0, (extent - win) as i32)
    };
    let origins = case
        .origins
        .iter()
        .map(|&(oh, ow)| {
            (
                slide(oh, conv.sh, conv.ph, win.0, conv.in_h),
                slide(ow, conv.sw, conv.pw, win.1, conv.in_w),
            )
        })
        .collect();
    (win, origins)
}

/// One `gbc_lo` launch into a destination that was *not* zeroed.
fn launch_gbc<B: Backend>(
    device: &Device<B>,
    src: &[Itv<f32>],
    case: &GeomCase,
    weight: &[f32],
    conv: &GbcShape,
    dst_origins: &[(i32, i32)],
    dst_win: (usize, usize),
) -> Vec<Itv<f32>> {
    let dst_cols = dst_win.0 * dst_win.1 * conv.cin;
    let mut dst = vec![Itv::point(9.0_f32); case.rows() * dst_cols]; // poisoned: must be overwritten
    kernels::gbc(
        device,
        "gbc_lo",
        src,
        &case.geom(),
        weight,
        conv,
        &mut dst,
        dst_origins,
        dst_cols,
        dst_win.1,
    );
    dst
}

/// Checks the GBC transpose-convolution kernel on one deterministic
/// geometry: bit-identical to [`oracle_gbc`], the contract's rule evaluated
/// one destination element at a time (skipping exact-zero coefficients),
/// into a destination that was *not* zeroed; and launch + flop accounting
/// advances under the launch label.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_gbc_against_oracle<B: Backend>(device: &Device<B>, seed: u64) {
    let mut s = Stream::new(seed);
    let conv = GbcShape {
        kh: 1 + s.next_range(3),
        kw: 1 + s.next_range(3),
        sh: 1 + s.next_range(2),
        sw: 1 + s.next_range(2),
        ph: s.next_range(3),
        pw: s.next_range(3),
        cout: 1 + s.next_range(3),
        cin: 1 + s.next_range(6),
        in_h: 4 + s.next_range(4),
        in_w: 4 + s.next_range(4),
    };
    check_gbc_shape(device, &mut s, conv);
}

/// [`check_gbc_against_oracle`] on filters whose `kw · c_in` lanes fall on
/// both sides of the edges of [`crate::CpuSimBackend`]'s GBC blocks — runs
/// of 8, 16, 24 and 32 lanes from any offset of a 4- or 8-lane grid, runs
/// longer than one block, and filter rows of more than five taps, wider than
/// one block of positions — with `c_in` from 1 to 16 and strides 1 and 2.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_gbc_block_edges<B: Backend>(device: &Device<B>) {
    let mut s = Stream::new(0xb10c);
    for (cin, kw) in [
        (1, 1),
        (1, 3),
        (2, 3),
        (4, 2),
        (3, 3),
        (4, 3),
        (5, 3),
        (4, 4),
        (3, 6),
        (8, 3),
        (8, 4),
        (9, 4),
        (16, 3),
        (1, 7),
    ] {
        let kh = 1 + kw % 3;
        let conv = GbcShape {
            kh,
            kw,
            sh: 1 + s.next_range(2),
            sw: 1 + s.next_range(2),
            ph: s.next_range(kh),
            pw: s.next_range(kw),
            cout: 2,
            cin,
            in_h: kh + 3 + s.next_range(4),
            in_w: kw + 3 + s.next_range(4),
        };
        check_gbc_shape(device, &mut s, conv);
    }
}

/// One launch of [`check_gbc_against_oracle`] through the filter `conv`,
/// the windows and operands drawn from `s`.
fn check_gbc_shape<B: Backend>(device: &Device<B>, s: &mut Stream, conv: GbcShape) {
    let label = device.backend().label();
    let (out_h, out_w) = conv_out_extent(&conv);
    let rows = 1 + s.next_range(7);
    let (wh, ww) = (
        1 + s.next_range(3.min(out_h)),
        1 + s.next_range(3.min(out_w)),
    );
    let case = GeomCase::new(rows, wh, ww, out_h, out_w, conv.cout, 1, s);
    let src = case.plane(s);
    let weight: Vec<f32> = (0..conv.kh * conv.kw * conv.cout * conv.cin)
        .map(|_| s.next_f32())
        .collect();
    let (dst_win, dst_origins) = grown_windows(&case, &conv);

    let launches0 = device.stats().kernel_launches("gbc_lo");
    let flops0 = device.stats().kernel_flops("gbc_lo");
    let dst = launch_gbc(device, &src, &case, &weight, &conv, &dst_origins, dst_win);
    assert_eq!(
        device.stats().kernel_launches("gbc_lo"),
        launches0 + 1,
        "[{label}] gbc must record its launch"
    );
    assert!(
        device.stats().kernel_flops("gbc_lo") > flops0,
        "[{label}] gbc must meter its flops"
    );
    let want = oracle_gbc(&src, &case.geom(), &weight, &conv, &dst_origins, dst_win);
    let kernel = format!(
        "gbc (c_in {}, {}×{} filter, stride ({}, {}))",
        conv.cin, conv.kh, conv.kw, conv.sh, conv.sw
    );
    assert_planes_bit_eq(label, &kernel, &dst, &want);
}

/// Pins the corners of the GBC contract that random data does not reach, on
/// a stride-2, padding-1 shape whose grown windows meet every edge of the
/// conv input (and are stored slid inside it) and whose `c_in = 5` is no
/// multiple of any vector width: a `+inf` and a `−inf` source coefficient and
/// a NaN weight (exactly the positions whose term list meets one take the
/// per-step chain, all `c_in` channels of each), a zero weight of either
/// sign, an all-zero source row (exact-zero destination), positions no term
/// reaches (exact `[+0, +0]`) and a row with one non-zero coefficient (every
/// position has at most one term, so its elements are the tightest enclosure
/// of one exact product).
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_gbc_special_cases<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    let mut s = Stream::new(0x6bc);
    let conv = GbcShape {
        kh: 3,
        kw: 3,
        sh: 2,
        sw: 2,
        ph: 1,
        pw: 1,
        cout: 2,
        cin: 5,
        in_h: 7,
        in_w: 7,
    };
    // Source windows of 2×2 over the conv's 4×4 output, corners included.
    let mut case = GeomCase::new(7, 2, 2, 4, 4, conv.cout, 1, &mut s);
    case.origins = vec![(0, 0), (2, 2), (2, 0), (1, 0), (0, 2), (0, 1), (1, 1)];
    let cols = case.cols();
    let mut src = case.plane(&mut s);
    src[cols + 2] = Itv::new(1.0, f32::INFINITY); // row 1, position (0, 1), d = 0
    for (k, v) in src[3 * cols..4 * cols].iter_mut().enumerate() {
        *v = Itv::point(if k % 2 == 0 { 0.0 } else { -0.0 }); // row 3: nothing to sum
    }
    src[4 * cols..5 * cols].fill(Itv::zero()); // row 4: a single coefficient
    let single = Itv::new(0.1_f32, 0.3);
    src[4 * cols + 5] = single; // position (1, 0), d = 1
    src[6 * cols + 7] = Itv::point(f32::NEG_INFINITY); // row 6, position (1, 1), d = 1
    let mut weight: Vec<f32> = (0..conv.kh * conv.kw * conv.cout * conv.cin)
        .map(|_| s.next_f32())
        .collect();
    weight[conv.widx(1, 2, 0, 2)] = f32::NAN;
    weight[conv.widx(0, 0, 1, 0)] = 0.0; // exact-zero products
    weight[conv.widx(0, 0, 1, 4)] = -0.0;
    // 5×5 windows: the ones grown from a border row or column of the conv
    // output would start in the padding, and start at the edge instead.
    let (dst_win, dst_origins) = grown_windows(&case, &conv);
    assert_eq!(dst_win, (5, 5));
    let dst_cols = dst_win.0 * dst_win.1 * conv.cin;

    let dst = launch_gbc(device, &src, &case, &weight, &conv, &dst_origins, dst_win);
    let g = case.geom();
    let want = oracle_gbc(&src, &g, &weight, &conv, &dst_origins, dst_win);
    assert_planes_bit_eq_or_nan(label, "gbc (special cases)", &dst, &want);

    // The corners did what they are there for.
    let (mut nan_touched, mut unreached, mut singles) = (0, 0, 0);
    for r in 0..case.rows() {
        for pos in 0..dst_win.0 * dst_win.1 {
            let (a, b) = (pos / dst_win.1, pos % dst_win.1);
            let at = (dst_origins[r].0 as usize + a, dst_origins[r].1 as usize + b);
            let list = oracle_gbc_terms(r, at, &src, &g, &weight, &conv);
            for c in 0..conv.cin {
                let got = dst[r * dst_cols + pos * conv.cin + c];
                if list.is_empty() {
                    unreached += usize::from(r != 3);
                    assert!(
                        bit_eq(got, Itv::zero()),
                        "[{label}] gbc: no term reaches [{r}]({a},{b},{c}), which holds {got}"
                    );
                    continue;
                }
                // Rows 0, 2 and 5 are finite: there, exactly the elements
                // that multiply by the NaN weight are not.
                if matches!(r, 0 | 2 | 5) {
                    let touched = list.iter().any(|(_, ws)| ws[c].is_nan());
                    nan_touched += usize::from(touched);
                    assert_eq!(
                        got.is_finite(),
                        !touched,
                        "[{label}] gbc: [{r}]({a},{b},{c}) = {got}, NaN weight among its \
                         terms: {touched}"
                    );
                }
                if r == 4 {
                    assert!(list.len() <= 1, "one coefficient, one term at most");
                    if let Some(w) = list.first().map(|(_, ws)| ws[c]).filter(|w| w.is_finite()) {
                        singles += 1;
                        let (p, q) = (0.1_f32 as f64 * w as f64, 0.3_f32 as f64 * w as f64);
                        let tight = Itv::<f32> {
                            lo: round::from_f64_down(p.min(q)),
                            hi: round::from_f64_up(p.max(q)),
                        };
                        assert!(
                            got.lo == tight.lo && got.hi == tight.hi,
                            "[{label}] gbc: single-term element ({a},{b},{c}) {got} is not \
                             the tightest enclosure {tight}"
                        );
                    }
                }
            }
        }
    }
    assert!(
        nan_touched > 0 && unreached > 0 && singles > 0,
        "[{label}] gbc special cases lost their corners: {nan_touched} / {unreached} / {singles}"
    );
    for r in [1, 6] {
        let row = &dst[r * dst_cols..(r + 1) * dst_cols];
        assert!(
            row.iter().any(|v| !v.is_finite()) && row.iter().any(|v| v.is_finite() && v.hi != 0.0),
            "[{label}] gbc: row {r} must mix fallback and wide elements"
        );
    }
}

/// Pins what the destination origins being the caller's means, against
/// [`oracle_gbc`] (which never sees a window coordinate): stride 1 and 2,
/// `c_in` of 1, 3, 8 and 11, padding drawn from `0..=2` per dimension, and
/// for each of those three families of source windows over the conv output —
/// 2×2 windows on its four corners, its four edges and inside it, whose grown
/// windows slide off the padding; the full window (a walk that starts at a
/// dense layer), whose grown window is larger than the conv input wherever
/// there is padding, and is stored clipped to it; and windows one short of
/// full at each of their four placements. Every other row's destination
/// origin is then moved by one position (where the layer has room), so some
/// terms have nowhere to land: they must vanish, and nothing else may move.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_gbc_slid_windows<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    let mut s = Stream::new(0x511d);
    let (mut slid, mut clipped, mut moved) = (0, 0, 0);
    for stride in [1usize, 2] {
        for cin in [1usize, 3, 8, 11] {
            let conv = GbcShape {
                kh: 2 + stride,
                kw: 2 + stride,
                sh: stride,
                sw: stride,
                ph: s.next_range(3),
                pw: s.next_range(3),
                cout: 2,
                cin,
                in_h: 9,
                in_w: 8,
            };
            let (out_h, out_w) = conv_out_extent(&conv);
            let (last_h, last_w) = (out_h as i32 - 2, out_w as i32 - 2);
            let (mid_h, mid_w) = (last_h / 2, last_w / 2);
            let families = [
                (
                    (2, 2),
                    vec![
                        (0, 0),
                        (0, mid_w),
                        (0, last_w),
                        (mid_h, 0),
                        (mid_h, mid_w),
                        (mid_h, last_w),
                        (last_h, 0),
                        (last_h, mid_w),
                        (last_h, last_w),
                    ],
                ),
                ((out_h, out_w), vec![(0, 0); 2]),
                ((out_h - 1, out_w - 1), vec![(0, 0), (0, 1), (1, 0), (1, 1)]),
            ];
            for ((wh, ww), origins) in families {
                let mut case = GeomCase::new(origins.len(), wh, ww, out_h, out_w, 2, 1, &mut s);
                case.origins = origins;
                let src = case.plane(&mut s);
                let weight: Vec<f32> = (0..conv.kh * conv.kw * conv.cout * cin)
                    .map(|_| s.next_f32())
                    .collect();
                let (dst_win, mut dst_origins) = grown_windows(&case, &conv);
                clipped += usize::from(dst_win.0 < (wh - 1) * stride + conv.kh);
                for (r, (o, &(sh, sw))) in dst_origins.iter_mut().zip(&case.origins).enumerate() {
                    let grown = (
                        sh * stride as i32 - conv.ph as i32,
                        sw * stride as i32 - conv.pw as i32,
                    );
                    slid += usize::from(*o != grown);
                    if r % 2 == 1 {
                        let was = *o;
                        let step = if r % 4 == 1 { 1 } else { -1 };
                        o.0 = (o.0 + step).clamp(0, (conv.in_h - dst_win.0) as i32);
                        o.1 = (o.1 - step).clamp(0, (conv.in_w - dst_win.1) as i32);
                        moved += usize::from(*o != was);
                    }
                }
                let dst = launch_gbc(device, &src, &case, &weight, &conv, &dst_origins, dst_win);
                let want = oracle_gbc(&src, &case.geom(), &weight, &conv, &dst_origins, dst_win);
                let kernel = format!(
                    "gbc (stride {stride}, c_in {cin}, padding ({}, {}), {wh}×{ww} windows)",
                    conv.ph, conv.pw
                );
                assert_planes_bit_eq(label, &kernel, &dst, &want);
            }
        }
    }
    assert!(
        slid > 0 && clipped > 0 && moved > 0,
        "[{label}] gbc slid-window cases lost their corners: {slid} / {clipped} / {moved}"
    );
}

/// Straight-line oracle of one row of the bias fold from the written rule:
/// the row's non-zero coefficients, ascending, each with its bias entry, are
/// one output's own term list (`wmax = |bias|`) — the wide rule seeded with
/// the constant, or the per-step chain over the same terms where it does not
/// apply.
pub(crate) fn oracle_bias_fold_row(row: &[Itv<f32>], bias: &[f32], cst: Itv<f32>) -> Itv<f32> {
    let terms: Vec<(Itv<f32>, f32)> = row
        .iter()
        .enumerate()
        .filter(|(_, a)| !(a.lo == 0.0 && a.hi == 0.0))
        .map(|(t, &a)| (a, bias[t % bias.len()]))
        .collect();
    let shared: Vec<(Itv<f32>, f64)> = terms.iter().map(|&(a, b)| (a, oracle_wmax(&[b]))).collect();
    match oracle_widening(&[cst], &shared) {
        Some(e) => oracle_wide(cst, &terms, e),
        None => terms.iter().fold(cst, |acc, &(a, b)| a.mul_add_f(b, acc)),
    }
}

/// Checks the bias-fold kernel on one deterministic geometry against
/// `oracle_bias_fold_row`, the written rule applied per row.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_bias_fold_against_oracle<B: Backend>(device: &Device<B>, seed: u64) {
    let label = device.backend().label();
    let mut s = Stream::new(seed ^ 0x5ca1e);
    let case = GeomCase::new(
        1 + s.next_range(40),
        1 + s.next_range(3),
        1 + s.next_range(3),
        4,
        4,
        1 + s.next_range(3),
        1,
        &mut s,
    );
    let plane = case.plane(&mut s);
    let src_cst = case.csts(&mut s);
    let bias: Vec<f32> = (0..case.chans).map(|_| s.next_f32()).collect();
    let mut out_cst = vec![Itv::point(9.0_f32); case.rows()]; // poisoned
    let launches0 = device.stats().kernel_launches("bias_fold_lo");
    kernels::bias_fold(
        device,
        "bias_fold_lo",
        &plane,
        &case.geom(),
        &bias,
        &src_cst,
        &mut out_cst,
    );
    assert_eq!(
        device.stats().kernel_launches("bias_fold_lo"),
        launches0 + 1,
        "[{label}] bias_fold must record its launch"
    );
    let want: Vec<Itv<f32>> = (0..case.rows())
        .map(|r| {
            let row = &plane[r * case.cols()..(r + 1) * case.cols()];
            oracle_bias_fold_row(row, &bias, src_cst[r])
        })
        .collect();
    assert_planes_bit_eq(label, "bias_fold", &out_cst, &want);
}

/// Pins the corners of the bias-fold contract that random data does not
/// reach, on full windows over a dense-layer-sized bias (one entry per
/// column): a `+inf` coefficient, a NaN bias entry and a `−inf` constant
/// (each sends its own row, and no other, to the per-step chain — a row
/// whose coefficient on the NaN entry is zero is not one of them), an
/// all-zero row (the constant comes back bit for bit, `-0.0` included) and a
/// single-term row on a zero constant of either sign (no addition, so the
/// result is the tightest enclosure of the one exact product).
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_bias_fold_special_cases<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    let mut s = Stream::new(0xb1a5);
    let mut case = GeomCase::new(7, 2, 2, 2, 2, 3, 1, &mut s);
    case.origins = vec![(0, 0); 7];
    let cols = case.cols();
    let mut plane: Vec<Itv<f32>> = (0..case.rows() * cols)
        .map(|_| {
            let lo = s.next_f32();
            Itv::new(lo, lo + s.next_f32().abs() * 0.125)
        })
        .collect();
    let mut cst = case.csts(&mut s);
    let mut bias: Vec<f32> = (0..cols).map(|_| s.next_f32()).collect();
    bias[7] = f32::NAN; // met by every row but 0, 3, 4 and 5
    plane[7] = Itv::point(-0.0);
    plane[cols + 2] = Itv::new(1.0, f32::INFINITY); // row 1
    cst[2] = Itv::point(f32::NEG_INFINITY); // row 2
    for (k, v) in plane[3 * cols..4 * cols].iter_mut().enumerate() {
        *v = Itv::point(if k % 2 == 0 { 0.0 } else { -0.0 }); // row 3: nothing to sum
    }
    cst[3] = Itv::point(-0.0);
    let single = Itv::new(0.1_f32, 0.3);
    for (row, zero) in [(4, 0.0_f32), (5, -0.0)] {
        plane[row * cols..(row + 1) * cols].fill(Itv::zero()); // one term
        plane[row * cols + 5] = single;
        cst[row] = Itv::point(zero);
    }
    let mut out = vec![Itv::point(9.0_f32); case.rows()];
    kernels::bias_fold(
        device,
        "bias_fold_lo",
        &plane,
        &case.geom(),
        &bias,
        &cst,
        &mut out,
    );
    let want: Vec<Itv<f32>> = (0..case.rows())
        .map(|r| {
            let row = &plane[r * cols..(r + 1) * cols];
            oracle_bias_fold_row(row, &bias, cst[r])
        })
        .collect();
    assert_planes_bit_eq_or_nan(label, "bias_fold (special cases)", &out, &want);

    // The corners did what they are there for.
    assert!(
        out[0].is_finite() && !out[1].is_finite() && !out[2].is_finite() && out[6].lo.is_nan(),
        "[{label}] bias_fold: non-finite operands must reach rows 1, 2 and 6 only: {out:?}"
    );
    assert!(
        bit_eq(out[3], cst[3]),
        "[{label}] bias_fold: all-zero row must return its constant, got {}",
        out[3]
    );
    let (p, q) = (
        0.1_f32 as f64 * bias[5] as f64,
        0.3_f32 as f64 * bias[5] as f64,
    );
    let tight = Itv::<f32> {
        lo: round::from_f64_down(p.min(q)),
        hi: round::from_f64_up(p.max(q)),
    };
    for row in [4, 5] {
        assert!(
            bit_eq(out[row], tight),
            "[{label}] bias_fold: single-term row {} is not the tightest enclosure {tight}",
            out[row]
        );
    }
}

/// What the written ReLU-step rule does with one coefficient: `None` for an
/// element that is not a term (exact-zero coefficient, identity relaxation),
/// else the `(slope, intercept)` it substitutes through — `Err` for a
/// coefficient that straddles zero, which takes the concrete bound instead.
#[allow(clippy::type_complexity)]
fn oracle_relu_term(
    a: Itv<f32>,
    rx: &ReluRelax<f32>,
    upper: bool,
) -> Option<Result<(Itv<f32>, Itv<f32>), ()>> {
    let one = Itv::point(1.0_f32);
    let is_zero = |v: Itv<f32>| v.lo == 0.0 && v.hi == 0.0;
    let identity = rx.alpha == one && rx.gamma == one && is_zero(rx.beta) && is_zero(rx.delta);
    if is_zero(a) || identity {
        return None;
    }
    // Lower plane: a >= 0 -> (alpha, beta); a <= 0 -> (gamma, delta). The
    // upper plane mirrors the choice.
    Some(if a.lo >= 0.0 {
        Ok(if upper {
            (rx.gamma, rx.delta)
        } else {
            (rx.alpha, rx.beta)
        })
    } else if a.hi <= 0.0 {
        Ok(if upper {
            (rx.alpha, rx.beta)
        } else {
            (rx.gamma, rx.delta)
        })
    } else {
        Err(())
    })
}

/// Straight-line oracle of one row of the ReLU step from the written rule,
/// in place. Constant first, over the untouched row: the terms with a
/// non-zero intercept add `a · intercept` and those that straddle zero the
/// endpoint of `a · out_bound` facing the plane, to both sides — under the
/// two-sided interval×interval wide rule seeded with the constant
/// (`T += max|a| · max|b|`, one bound for both sides), or on the per-step
/// chain where it does not apply. Then the coefficients: `a · slope` from
/// its exact corner products narrowed once (finite operands of a row whose
/// constant took the wide rule; [`Itv::mul`] otherwise), exact zero where
/// `a` straddled.
fn oracle_relu_step_row(
    r: usize,
    row: &mut [Itv<f32>],
    cst: &mut Itv<f32>,
    g: &ExprGeom<'_>,
    relax: &[ReluRelax<f32>],
    out_bounds: &[Itv<f32>],
    upper: bool,
) {
    // (offset in the row, coefficient, what it substitutes through)
    let mut terms = Vec::new();
    for i in 0..g.win_h {
        for j in 0..g.win_w {
            for c in 0..g.chans {
                let (at, n) = ((i * g.win_w + j) * g.chans + c, g.neuron_at(r, i, j) + c);
                if let Some(term) = oracle_relu_term(row[at], &relax[n], upper) {
                    terms.push((at, row[at], term, out_bounds[n]));
                }
            }
        }
    }
    // The constant's summands: (coefficient, other factor, endpoint only?).
    let summands: Vec<(Itv<f32>, Itv<f32>, bool)> = terms
        .iter()
        .filter_map(|&(_, a, term, ob)| match term {
            Ok((_, icpt)) if icpt.lo == 0.0 && icpt.hi == 0.0 => None,
            Ok((_, icpt)) => Some((a, icpt, false)),
            Err(()) => Some((a, ob, true)),
        })
        .collect();
    let wide = summands
        .iter()
        .all(|(_, b, _)| b.is_finite())
        .then(|| {
            let shared: Vec<(Itv<f32>, f64)> = summands
                .iter()
                .map(|&(a, b, _)| (a, oracle_mag(b)))
                .collect();
            oracle_widening(&[*cst], &shared)
        })
        .flatten();
    let on_chain = wide.is_none();
    *cst = match wide {
        Some(e) => {
            let (mut lo, mut hi) = (cst.lo as f64, cst.hi as f64);
            for &(a, b, endpoint) in &summands {
                let (min, max) = oracle_corners(a, b);
                lo += if endpoint && upper { max } else { min };
                hi += if endpoint && !upper { min } else { max };
            }
            oracle_outward(lo, hi, e)
        }
        None => summands.iter().fold(*cst, |acc, &(a, b, endpoint)| {
            let p = a.mul(b);
            acc.add(match (endpoint, upper) {
                (false, _) => p,
                (true, true) => Itv::point(p.hi),
                (true, false) => Itv::point(p.lo),
            })
        }),
    };
    for (at, a, term, _) in terms {
        row[at] = match term {
            Err(()) => Itv::zero(),
            Ok((slope, _)) if !on_chain && a.is_finite() && slope.is_finite() => {
                let (min, max) = oracle_corners(a, slope);
                Itv {
                    lo: round::from_f64_down(min),
                    hi: round::from_f64_up(max),
                }
            }
            Ok((slope, _)) => a.mul(slope),
        };
    }
}

/// Runs one ReLU-step launch and checks plane and constants against
/// [`oracle_relu_step_row`], row by row; returns what the kernel left.
#[allow(clippy::too_many_arguments)]
fn assert_relu_step_matches_oracle<B: Backend>(
    device: &Device<B>,
    klabel: &'static str,
    case: &GeomCase,
    plane0: &[Itv<f32>],
    cst0: &[Itv<f32>],
    relax: &[Vec<ReluRelax<f32>>],
    out_bounds: &[Vec<Itv<f32>>],
    upper: bool,
) -> (Vec<Itv<f32>>, Vec<Itv<f32>>) {
    let label = device.backend().label();
    let relax_refs: Vec<&[ReluRelax<f32>]> = relax.iter().map(Vec::as_slice).collect();
    let ob_refs: Vec<&[Itv<f32>]> = out_bounds.iter().map(Vec::as_slice).collect();
    let (mut plane, mut cst) = (plane0.to_vec(), cst0.to_vec());
    let launches0 = device.stats().kernel_launches(klabel);
    kernels::relu_step(
        device,
        klabel,
        &mut plane,
        &mut cst,
        &case.geom(),
        &relax_refs,
        &ob_refs,
        upper,
    );
    assert_eq!(
        device.stats().kernel_launches(klabel),
        launches0 + 1,
        "[{label}] relu_step must record its launch"
    );
    let (mut wplane, mut wcst) = (plane0.to_vec(), cst0.to_vec());
    for r in 0..case.rows() {
        let seg = case.seg[r] as usize;
        oracle_relu_step_row(
            r,
            &mut wplane[r * case.cols()..(r + 1) * case.cols()],
            &mut wcst[r],
            &case.geom(),
            &relax[seg],
            &out_bounds[seg],
            upper,
        );
    }
    assert_planes_bit_eq_or_nan(label, klabel, &plane, &wplane);
    assert_planes_bit_eq_or_nan(label, klabel, &cst, &wcst);
    (plane, cst)
}

/// Checks the ReLU substitution kernel (both plane variants) on one
/// deterministic multi-segment geometry against `oracle_relu_step_row`,
/// the written rule applied per row/segment.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_relu_step_against_oracle<B: Backend>(device: &Device<B>, seed: u64) {
    let label = device.backend().label();
    let mut s = Stream::new(seed ^ 0x0e1f);
    let segments = 1 + s.next_range(3);
    let case = GeomCase::new(
        1 + s.next_range(8),
        1 + s.next_range(3),
        1 + s.next_range(3),
        4,
        4,
        1 + s.next_range(2),
        segments,
        &mut s,
    );
    // Per-segment input bounds spanning stable-positive, stable-negative
    // (the stable-zero columns) and unstable neurons.
    let bounds: Vec<Vec<Itv<f32>>> = (0..segments)
        .map(|_| {
            (0..case.frontier_len())
                .map(|_| match s.next_range(4) {
                    0 => {
                        let v = s.next_f32().abs() + 1e-3;
                        Itv::new(v * 0.5, v) // stable positive
                    }
                    1 => {
                        let v = s.next_f32().abs() + 1e-3;
                        Itv::new(-v, -v * 0.5) // stable negative -> zero relax
                    }
                    _ => {
                        let v = s.next_f32().abs() + 1e-3;
                        Itv::new(-v * 0.7, v) // unstable
                    }
                })
                .collect()
        })
        .collect();
    let relax: Vec<Vec<ReluRelax<f32>>> = bounds.iter().map(|b| ReluRelax::layer(b)).collect();
    let out_bounds: Vec<Vec<Itv<f32>>> = bounds
        .iter()
        .map(|b| {
            b.iter()
                .map(|x| Itv::new(x.lo.max(0.0), x.hi.max(0.0)))
                .collect()
        })
        .collect();

    for upper in [false, true] {
        let klabel: &'static str = if upper {
            "relu_step_hi"
        } else {
            "relu_step_lo"
        };
        let plane0 = case.plane(&mut s);
        let cst0 = case.csts(&mut s);
        let (plane, _) = assert_relu_step_matches_oracle(
            device,
            klabel,
            &case,
            &plane0,
            &cst0,
            &relax,
            &out_bounds,
            upper,
        );

        // Stable-zero guarantee: columns of stably-negative neurons (zero
        // relaxation in every segment) are exact zeros after the step —
        // whatever the coefficient was, an overflowed one included.
        let g = case.geom();
        for n in 0..case.frontier_len() {
            if !relax.iter().all(|t| t[n].is_zero()) {
                continue;
            }
            for r in 0..case.rows() {
                for i in 0..case.win_h {
                    for j in 0..case.win_w {
                        if g.neuron_at(r, i, j) > n {
                            continue;
                        }
                        let c = n - g.neuron_at(r, i, j);
                        if c >= case.chans {
                            continue;
                        }
                        let v = plane[r * case.cols() + (i * case.win_w + j) * case.chans + c];
                        assert!(
                            v.lo == 0.0 && v.hi == 0.0,
                            "[{label}] {klabel}: stably-dead neuron {n} left a \
                             non-zero column entry {v} in row {r}"
                        );
                    }
                }
            }
        }
    }
}

/// Pins the corners of the ReLU-step contract that random data does not
/// reach, on full windows over six neurons (stable positive, stable
/// negative, four unstable) for both planes: a row over identity
/// relaxations only comes back bit for bit, `-0.0` coefficients and
/// constant included — and so does a coefficient that *straddles zero* on an
/// identity neuron, which is no hull term (the identity test comes before
/// the sign test: `relu(x) = x` there, whatever the coefficient's sign);
/// `-0.0` and `+0.0` constants under real terms; a
/// `+inf` coefficient and a `top` concrete bound (each sends its own row's
/// constant, and no other's, to the per-step chain — unless its intercept is
/// zero and it is no summand at all — and only the non-finite coefficient
/// itself to [`Itv::mul`]); and a single straddling term on a
/// zero constant (no addition, so the constant is the exact endpoint,
/// narrowed once).
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_relu_step_special_cases<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    let mut s = Stream::new(0x5e1f);
    let mut case = GeomCase::new(6, 1, 2, 1, 2, 3, 2, &mut s);
    case.origins = vec![(0, 0); 6];
    let cols = case.cols();
    let bounds = [
        Itv::new(0.25_f32, 1.0), // identity
        Itv::new(-1.0, -0.5),    // zero
        Itv::new(-0.3, 0.9),
        Itv::new(-0.9, 0.3),
        Itv::new(-0.5, 0.5),
        Itv::new(-0.1, 0.7),
    ];
    // Segment 1 (odd rows) differs from segment 0 in one concrete bound only.
    let relax = vec![ReluRelax::layer(&bounds); 2];
    let mut out_bounds: Vec<Vec<Itv<f32>>> = (0..2)
        .map(|_| {
            bounds
                .iter()
                .map(|x| Itv::new(x.lo.max(0.0), x.hi.max(0.0)))
                .collect()
        })
        .collect();
    out_bounds[1][4] = Itv::top();
    let mut plane: Vec<Itv<f32>> = (0..case.rows() * cols)
        .map(|i| {
            let v = s.next_f32().abs() + 1e-3;
            match i % 3 {
                0 => Itv::new(v * 0.5, v),
                1 => Itv::new(-v, -v * 0.5),
                _ => Itv::new(-v, v * 0.5), // straddles zero
            }
        })
        .collect();
    let mut cst = case.csts(&mut s);
    // Row 0: only the identity neuron carries a coefficient, and it
    // straddles zero; row 2 meets the same neuron from a `-0.0` bound.
    plane[..cols].fill(Itv::zero());
    plane[0] = Itv::new(-0.25, 0.75);
    plane[1] = Itv::point(-0.0);
    plane[2 * cols] = Itv::new(-0.0, 0.75);
    cst[0] = Itv::point(-0.0);
    cst[2] = Itv::point(-0.0);
    cst[4] = Itv::zero();
    plane[3 * cols + 2] = Itv::new(1.0, f32::INFINITY); // row 3 (segment 1)
    plane[cols + 4] = Itv::new(-0.5, 0.25); // row 1 (segment 1) meets the top bound
    plane[3 * cols + 4] = Itv::zero(); // rows 3 and 5 (segment 1) do not
    plane[5 * cols..6 * cols].fill(Itv::zero()); // row 5: one straddling term
    let single = Itv::new(-0.3_f32, 0.1);
    plane[5 * cols + 5] = single;
    cst[5] = Itv::point(-0.0);

    for upper in [false, true] {
        let klabel: &'static str = if upper {
            "relu_step_hi"
        } else {
            "relu_step_lo"
        };
        let (got, got_cst) = assert_relu_step_matches_oracle(
            device,
            klabel,
            &case,
            &plane,
            &cst,
            &relax,
            &out_bounds,
            upper,
        );
        // The corners did what they are there for.
        assert!(
            got[..cols]
                .iter()
                .zip(&plane[..cols])
                .all(|(g, w)| bit_eq(*g, *w))
                && bit_eq(got_cst[0], cst[0]),
            "[{label}] {klabel}: identity relaxations must leave row 0 bit-identical, its \
             straddling coefficient {} included",
            got[0]
        );
        assert!(
            bit_eq(got[2 * cols], plane[2 * cols]),
            "[{label}] {klabel}: identity relaxation changed {} to {}",
            plane[2 * cols],
            got[2 * cols]
        );
        // The +inf coefficient is non-negative: on the lower plane its
        // intercept is beta = 0, so it is no summand of the constant there.
        for (row, c) in got_cst.iter().enumerate() {
            assert_eq!(
                c.is_finite(),
                !(row == 1 || (row == 3 && upper)),
                "[{label}] {klabel}: non-finite operands must reach the constants of rows 1 \
                 and (upper plane) 3 only; row {row} holds {c}"
            );
        }
        assert!(
            got[3 * cols + 2].hi == f32::INFINITY
                && got[3 * cols..4 * cols].iter().all(|v| !v.lo.is_nan()),
            "[{label}] {klabel}: the +inf coefficient goes through Itv::mul"
        );
        let (min, max) = oracle_corners(single, out_bounds[1][5]);
        let v = if upper { max } else { min };
        let point = Itv::<f32> {
            lo: round::from_f64_down(v),
            hi: round::from_f64_up(v),
        };
        assert!(
            bit_eq(got_cst[5], point),
            "[{label}] {klabel}: single-term constant {} is not the narrowed endpoint {point}",
            got_cst[5]
        );
    }
}

/// Pins what a backend may and may not conclude from a relaxation *table* —
/// [`crate::CpuSimBackend`] resolves every side `(slope, intercept)` of every
/// neuron once per [`ReluTable`] (its `relu_step` makes one a segment for
/// the launch) and skips the arithmetic whose result it knows —
/// against `oracle_relu_step_row`, which knows no such thing. Hand-made
/// tables mix the relaxations real bounds produce (identity, zero, unstable
/// with `alpha` 0 and 1) with sides that look resolvable and are not: slope
/// `[1, 1 + ulp]`, zero slopes `[-0, +0]` and `[-0, -0]` (whose products
/// carry other signs than `[+0, +0]`'s), `alpha = [1, 1]` over a non-zero
/// `beta`, a zero `delta` under a non-trivial `gamma` (a coefficient
/// product, but no term of the constant), and intercepts that are zero by
/// value only. Every coefficient shape — `[+0, +0]`, `[-0, +0]`, `[-0, -0]`,
/// `[-0, x]`, `[-x, +0]`, either definite sign — meets every such neuron on
/// both planes, on full windows and on slid cuboid windows; further rows
/// hold a coefficient that strictly straddles zero (on an unstable and on an
/// identity neuron), a `+inf` and a NaN coefficient, one whose bounds are
/// out of order (`a · [1, 1]` is not `a` then) and a `top` constant, each of
/// which takes its whole row, and no other, through the straight rule. The launches have four segments, one without rows and one with a
/// single row, and run once more over a table with a non-finite entry. The
/// stable-zero column guarantee of [`check_relu_step_against_oracle`] is
/// re-asserted for the zero neuron.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_relu_step_sides<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    for launch in relu_sides_launches() {
        let (case, g) = (&launch.case, launch.case.geom());
        let cols = case.cols();
        for poisoned in [false, true] {
            let mut relax = launch.relax.clone();
            if poisoned {
                // A table that is not finite: nothing of segment 0 resolves.
                relax[0][2].gamma.hi = f32::INFINITY;
            }
            for upper in [false, true] {
                let klabel = relu_label(upper);
                let (got, _) = assert_relu_step_matches_oracle(
                    device,
                    klabel,
                    case,
                    &launch.plane,
                    &launch.cst,
                    &relax,
                    &launch.out_bounds,
                    upper,
                );
                // Stable-zero guarantee: the zero neuron's column.
                for r in 0..case.rows() {
                    for i in 0..case.win_h {
                        for j in 0..case.win_w {
                            for c in 0..case.chans {
                                let n = g.neuron_at(r, i, j) + c;
                                let v = got[r * cols + (i * case.win_w + j) * case.chans + c];
                                assert!(
                                    n % RELU_PATTERNS != 1 || (v.lo == 0.0 && v.hi == 0.0),
                                    "[{label}] {klabel}: stably-dead neuron {n} left a non-zero \
                                     column entry {v} in row {r}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Holds [`Backend::relu_step_tables`] to its definition — [`Backend::relu_step`]
/// over the tables' slices — on the launches of [`check_relu_step_sides`]:
/// tables built to look resolvable where they are not, tables with a
/// non-finite relaxation, and tables whose output bounds are infinite or
/// NaN. Each table steps both planes twice, so that the later launches read
/// whatever the first one kept with the table.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_relu_step_tables<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    for launch in relu_sides_launches() {
        let g = launch.case.geom();
        for variant in 0..3 {
            let (mut relax, mut out_bounds) = (launch.relax.clone(), launch.out_bounds.clone());
            match variant {
                1 => relax[0][2].gamma.hi = f32::INFINITY,
                2 => {
                    out_bounds[0][3] = Itv::top();
                    out_bounds[3][2].hi = f32::NAN;
                    out_bounds[2][0] = Itv::new(f32::NEG_INFINITY, f32::NEG_INFINITY);
                }
                _ => {}
            }
            let relax_refs: Vec<&[ReluRelax<f32>]> = relax.iter().map(Vec::as_slice).collect();
            let ob_refs: Vec<&[Itv<f32>]> = out_bounds.iter().map(Vec::as_slice).collect();
            let tables: Vec<ReluTable<f32>> = relax
                .iter()
                .zip(&out_bounds)
                .map(|(r, o)| ReluTable::from_parts(r.clone(), o.clone()))
                .collect();
            let table_refs: Vec<&ReluTable<f32>> = tables.iter().collect();
            for _ in 0..2 {
                for upper in [false, true] {
                    let klabel = relu_label(upper);
                    let (mut want, mut want_cst) = (launch.plane.clone(), launch.cst.clone());
                    kernels::relu_step(
                        device,
                        klabel,
                        &mut want,
                        &mut want_cst,
                        &g,
                        &relax_refs,
                        &ob_refs,
                        upper,
                    );
                    let (mut got, mut got_cst) = (launch.plane.clone(), launch.cst.clone());
                    let launches0 = device.stats().kernel_launches(klabel);
                    kernels::relu_step_tables(
                        device,
                        klabel,
                        &mut got,
                        &mut got_cst,
                        &g,
                        &table_refs,
                        upper,
                    );
                    assert_eq!(
                        device.stats().kernel_launches(klabel),
                        launches0 + 1,
                        "[{label}] relu_step_tables must record its launch"
                    );
                    assert_planes_bit_eq_or_nan(label, klabel, &got, &want);
                    assert_planes_bit_eq_or_nan(label, klabel, &got_cst, &want_cst);
                }
            }
        }
    }
}

/// The launch label of a ReLU-step plane.
fn relu_label(upper: bool) -> &'static str {
    if upper {
        "relu_step_hi"
    } else {
        "relu_step_lo"
    }
}

/// The relaxation patterns of [`relu_sides_launches`]; neuron `n` is on
/// pattern `n % RELU_PATTERNS`, and pattern 1 is the zero neuron.
const RELU_PATTERNS: usize = 10;

/// One hand-made ReLU-step launch: the geometry, the plane and constants
/// before the step, and per segment a relaxation table and output bounds.
struct SidesLaunch {
    case: GeomCase,
    plane: Vec<Itv<f32>>,
    cst: Vec<Itv<f32>>,
    relax: Vec<Vec<ReluRelax<f32>>>,
    out_bounds: Vec<Vec<Itv<f32>>>,
}

/// The launches of [`check_relu_step_sides`] (see there): full windows over
/// one neuron per pattern, with the rows that are the straight rule's, then
/// slid cuboid windows over a layer that repeats the patterns.
fn relu_sides_launches() -> Vec<SidesLaunch> {
    let itv = |lo: f32, hi: f32| Itv { lo, hi };
    let (zero, one) = (Itv::<f32>::zero(), Itv::point(1.0_f32));
    let (gamma, delta) = (itv(0.625, 0.625_f32.next_up()), itv(0.125, 0.25));
    let relax_of = |alpha, beta, gamma, delta| ReluRelax {
        alpha,
        beta,
        gamma,
        delta,
        exact: false,
    };
    let patterns: [ReluRelax<f32>; RELU_PATTERNS] = [
        relax_of(one, zero, one, zero),     // identity
        relax_of(zero, zero, zero, zero),   // zero
        relax_of(zero, zero, gamma, delta), // unstable, alpha = 0
        relax_of(one, zero, gamma, delta),  // unstable, alpha = 1
        // Not the identity: one slope is a step wide.
        relax_of(itv(1.0, 1.0_f32.next_up()), zero, one, zero),
        // Not zero: other bit patterns of a zero slope.
        relax_of(itv(-0.0, 0.0), zero, itv(-0.0, -0.0), zero),
        // Not the identity: a non-zero beta.
        relax_of(one, Itv::point(0.25), one, itv(-0.125, 0.5)),
        // A slope to multiply by, but no term of the constant.
        relax_of(zero, zero, itv(0.5, 0.75), zero),
        // Zero by value is enough for an intercept, on either kind of side.
        relax_of(one, Itv::point(-0.0), zero, itv(-0.0, 0.0)),
        // A negative slope and intercept: nothing about signs is assumed.
        relax_of(itv(-0.5, -0.25), itv(-0.25, 0.0), itv(-1.0, 0.5), delta),
    ];
    const KINDS: usize = 8;
    let coeff = |kind: usize, s: &mut Stream| -> Itv<f32> {
        let (x, y) = (s.next_f32().abs() + 1e-3, s.next_f32().abs() + 2.0);
        match kind % KINDS {
            0 => itv(0.0, 0.0),
            1 => itv(-0.0, 0.0),
            2 => itv(-0.0, -0.0),
            3 => itv(-0.0, x),
            4 => itv(-x, 0.0),
            5 => itv(x, y),
            6 => itv(-y, -x),
            _ => Itv::point(-x),
        }
    };
    // Segment 1 has no row, segment 2 one; 0 and 3 take turns at the rest.
    let seg_of = |r: usize| match r {
        r if r == 2 * KINDS => 2,
        r if r % 2 == 0 => 0,
        _ => 3,
    };
    let mut s = Stream::new(0x51de5);
    // Full windows over one neuron per pattern, then slid cuboid windows
    // over a layer that repeats the patterns.
    let rows = 2 * KINDS + 1;
    let cases = [
        GeomCase::new(rows + 6, 1, 1, 1, 1, patterns.len(), 1, &mut s),
        GeomCase::new(rows, 2, 3, 4, 5, 2, 1, &mut s),
    ];
    let mut launches = Vec::new();
    for (which, mut case) in cases.into_iter().enumerate() {
        case.seg = (0..case.rows()).map(|r| seg_of(r) as u32).collect();
        let cols = case.cols();
        let pattern_of = |n: usize| n % patterns.len();
        // Segments differ in one intercept, so a table read for the wrong
        // segment shows.
        let relax: Vec<Vec<ReluRelax<f32>>> = (0..4)
            .map(|seg| {
                (0..case.frontier_len())
                    .map(|n| {
                        let mut rx = patterns[pattern_of(n)];
                        if pattern_of(n) == 3 {
                            rx.delta = itv(0.125, 0.25 + seg as f32);
                        }
                        rx
                    })
                    .collect()
            })
            .collect();
        let out_bounds: Vec<Vec<Itv<f32>>> = (0..4)
            .map(|seg| {
                (0..case.frontier_len())
                    .map(|n| itv(0.0, 0.5 + (n + seg) as f32 * 0.125))
                    .collect()
            })
            .collect();
        // Row `r` meets neuron `n` with coefficient shape `r + n`: every
        // shape on every pattern within each of the two large segments.
        let g = case.geom();
        let mut plane = vec![zero; case.rows() * cols];
        for r in 0..case.rows() {
            for i in 0..case.win_h {
                for j in 0..case.win_w {
                    for c in 0..case.chans {
                        let n = g.neuron_at(r, i, j) + c;
                        plane[r * cols + (i * case.win_w + j) * case.chans + c] =
                            coeff(r / 2 + n, &mut s);
                    }
                }
            }
        }
        let mut cst = case.csts(&mut s);
        if which == 0 {
            // The rows that are the straight rule's, among rows that are not.
            let at = |r: usize, n: usize| r * cols + n;
            plane[at(rows, 2)] = itv(-0.5, 0.25); // straddles, unstable neuron
            plane[at(rows + 1, 0)] = itv(-0.5, 0.25); // straddles, identity neuron
            plane[at(rows + 2, 3)] = itv(1.0, f32::INFINITY);
            plane[at(rows + 3, 7)] = itv(f32::NAN, 1.0);
            cst[rows + 4] = Itv::top();
            plane[at(rows + 5, 3)] = itv(0.5, 0.25); // bounds out of order
        }
        launches.push(SidesLaunch {
            case,
            plane,
            cst,
            relax,
            out_bounds,
        });
    }
    launches
}

/// Checks the densify scatter against a serial oracle.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_densify_against_oracle<B: Backend>(device: &Device<B>, seed: u64) {
    let label = device.backend().label();
    let mut s = Stream::new(seed ^ 0xd15f);
    let case = GeomCase::new(
        1 + s.next_range(7),
        1 + s.next_range(3),
        1 + s.next_range(3),
        4,
        5,
        1 + s.next_range(3),
        1,
        &mut s,
    );
    let src = case.plane(&mut s);
    let dst_cols = case.frontier_len();
    let mut dst = vec![Itv::zero(); case.rows() * dst_cols];
    let launches0 = device.stats().kernel_launches("densify_lo");
    kernels::densify(device, "densify_lo", &src, &case.geom(), &mut dst, dst_cols);
    assert_eq!(
        device.stats().kernel_launches("densify_lo"),
        launches0 + 1,
        "[{label}] densify must record its launch"
    );
    let g = case.geom();
    let mut want = vec![Itv::zero(); case.rows() * dst_cols];
    for r in 0..case.rows() {
        for i in 0..case.win_h {
            for j in 0..case.win_w {
                let nbase = g.neuron_at(r, i, j);
                let base = (i * case.win_w + j) * case.chans;
                for c in 0..case.chans {
                    want[r * dst_cols + nbase + c] = src[r * case.cols() + base + c];
                }
            }
        }
    }
    assert_planes_bit_eq(label, "densify", &dst, &want);
}

/// Checks the residual-merge accumulation against a serial oracle on two
/// branches with different windows and origins.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
#[allow(clippy::needless_range_loop)]
pub fn check_residual_merge_against_oracle<B: Backend>(device: &Device<B>, seed: u64) {
    let label = device.backend().label();
    let mut s = Stream::new(seed ^ 0x3e53);
    let rows = 1 + s.next_range(6);
    let chans = 1 + s.next_range(2);
    let a_case = GeomCase::new(
        rows,
        1 + s.next_range(3),
        1 + s.next_range(3),
        4,
        4,
        chans,
        1,
        &mut s,
    );
    let mut b_case = GeomCase::new(
        rows,
        1 + s.next_range(3),
        1 + s.next_range(3),
        4,
        4,
        chans,
        1,
        &mut s,
    );
    b_case.seg = a_case.seg.clone();
    let a = a_case.plane(&mut s);
    let b = b_case.plane(&mut s);
    // Union geometry exactly as `ExprBatch::merge` computes it.
    let mut dst_origins = Vec::with_capacity(rows);
    let (mut uw_h, mut uw_w) = (0usize, 0usize);
    for r in 0..rows {
        let (ah, aw) = a_case.origins[r];
        let (bh, bw) = b_case.origins[r];
        let oh = ah.min(bh);
        let ow = aw.min(bw);
        uw_h = uw_h.max(((ah + a_case.win_h as i32).max(bh + b_case.win_h as i32) - oh) as usize);
        uw_w = uw_w.max(((aw + a_case.win_w as i32).max(bw + b_case.win_w as i32) - ow) as usize);
        dst_origins.push((oh, ow));
    }
    // The uniform window is the largest row's; a smaller union near the far
    // border slides inward under it, over zeros.
    for o in &mut dst_origins {
        *o = (o.0.min((4 - uw_h) as i32), o.1.min((4 - uw_w) as i32));
    }
    let dst_cols = uw_h * uw_w * chans;
    let mut dst = vec![Itv::zero(); rows * dst_cols];
    let launches0 = device.stats().kernel_launches("residual_merge_lo");
    kernels::residual_merge(
        device,
        "residual_merge_lo",
        &a,
        &a_case.geom(),
        &b,
        &b_case.geom(),
        &mut dst,
        &dst_origins,
        dst_cols,
        uw_w,
    );
    assert_eq!(
        device.stats().kernel_launches("residual_merge_lo"),
        launches0 + 1,
        "[{label}] residual_merge must record its launch"
    );
    let mut want = vec![Itv::zero(); rows * dst_cols];
    for (case, plane) in [(&a_case, &a), (&b_case, &b)] {
        for r in 0..rows {
            let (so_h, so_w) = case.origins[r];
            let (mo_h, mo_w) = dst_origins[r];
            let dh = (so_h - mo_h) as usize;
            let dw = (so_w - mo_w) as usize;
            for i in 0..case.win_h {
                for j in 0..case.win_w {
                    let dbase = r * dst_cols + ((i + dh) * uw_w + (j + dw)) * chans;
                    let sbase = r * case.cols() + (i * case.win_w + j) * chans;
                    for c in 0..chans {
                        let v = plane[sbase + c];
                        if !(v.lo == 0.0 && v.hi == 0.0) {
                            want[dbase + c] = want[dbase + c].add(v);
                        }
                    }
                }
            }
        }
    }
    assert_planes_bit_eq(label, "residual_merge", &dst, &want);
}

/// Straight-line oracle of a concretize launch from the written rule: per
/// row, the non-zero terms of each plane in ascending window order against
/// the row's segment's bounds; the lower bound of the lower plane and the
/// upper bound of the upper plane by [`oracle_wide_bound`], both on the
/// per-step chain when either does not apply; `hi.max(lo)` last.
pub(crate) fn oracle_concretize(
    lo: &[Itv<f32>],
    hi: &[Itv<f32>],
    cst_lo: &[Itv<f32>],
    cst_hi: &[Itv<f32>],
    g: &ExprGeom<'_>,
    bounds_per_seg: &[&[Itv<f32>]],
) -> Vec<Itv<f32>> {
    let cols = g.cols();
    (0..g.rows())
        .map(|r| {
            let bounds = bounds_per_seg[g.seg[r] as usize];
            let (mut lo_terms, mut hi_terms) = (Vec::new(), Vec::new());
            for i in 0..g.win_h {
                for j in 0..g.win_w {
                    for c in 0..g.chans {
                        let at = r * cols + (i * g.win_w + j) * g.chans + c;
                        let b = bounds[g.neuron_at(r, i, j) + c];
                        for (plane, terms) in [(lo, &mut lo_terms), (hi, &mut hi_terms)] {
                            if !(plane[at].lo == 0.0 && plane[at].hi == 0.0) {
                                terms.push((plane[at], b));
                            }
                        }
                    }
                }
            }
            let wide = oracle_wide_bound(cst_lo[r].lo, &lo_terms, false).zip(oracle_wide_bound(
                cst_hi[r].hi,
                &hi_terms,
                true,
            ));
            let (l, h) = wide.unwrap_or_else(|| {
                (
                    lo_terms
                        .iter()
                        .fold(cst_lo[r].lo, |l, &(a, b)| round::add_down(l, a.mul(b).lo)),
                    hi_terms
                        .iter()
                        .fold(cst_hi[r].hi, |h, &(a, b)| round::add_up(h, a.mul(b).hi)),
                )
            });
            Itv {
                lo: l,
                hi: h.max(l),
            }
        })
        .collect()
}

/// Checks candidate concretization against [`oracle_concretize`] on a
/// multi-segment geometry (each row substitutes its own segment's bounds).
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_concretize_against_oracle<B: Backend>(device: &Device<B>, seed: u64) {
    let label = device.backend().label();
    let mut s = Stream::new(seed ^ 0xc0c0);
    let segments = 1 + s.next_range(3);
    let case = GeomCase::new(
        1 + s.next_range(40),
        1 + s.next_range(3),
        1 + s.next_range(3),
        4,
        4,
        1 + s.next_range(2),
        segments,
        &mut s,
    );
    let lo = case.plane(&mut s);
    let hi = case.plane(&mut s);
    let cst_lo = case.csts(&mut s);
    let cst_hi = case.csts(&mut s);
    let bounds: Vec<Vec<Itv<f32>>> = (0..segments)
        .map(|_| {
            (0..case.frontier_len())
                .map(|_| {
                    let l = s.next_f32();
                    Itv::new(l, l + s.next_f32().abs())
                })
                .collect()
        })
        .collect();
    let bref: Vec<&[Itv<f32>]> = bounds.iter().map(Vec::as_slice).collect();
    let mut out = vec![Itv::point(9.0_f32); case.rows()]; // poisoned
    let launches0 = device.stats().kernel_launches("concretize");
    kernels::concretize(
        device,
        &lo,
        &hi,
        &cst_lo,
        &cst_hi,
        &case.geom(),
        &bref,
        &mut out,
    );
    assert_eq!(
        device.stats().kernel_launches("concretize"),
        launches0 + 1,
        "[{label}] concretize must record its launch"
    );
    let want = oracle_concretize(&lo, &hi, &cst_lo, &cst_hi, &case.geom(), &bref);
    assert_planes_bit_eq(label, "concretize", &out, &want);
}

/// Pins the corners of the concretize contract that random data does not
/// reach: a `+inf` coefficient and `top` / half-infinite bounds (exactly the
/// rows that meet one take the per-step chain — a neighbouring segment with
/// finite bounds does not), `[0, 0]` bounds of either sign, an all-zero row
/// (the candidate is the constants, `-0.0` included) and single-term rows
/// with zero constants (no addition, so each side is the tightest enclosure
/// of one exact product).
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_concretize_special_cases<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    let mut s = Stream::new(0xc5c);
    // Full 2×2×3 windows at the origin: every row sees all 12 neurons.
    let mut case = GeomCase::new(8, 2, 2, 2, 2, 3, 2, &mut s);
    case.origins = vec![(0, 0); 8];
    let cols = case.cols();
    let mut lo = case.plane(&mut s);
    let mut hi = case.plane(&mut s);
    let mut cst_lo = case.csts(&mut s);
    let mut cst_hi = case.csts(&mut s);
    let mut bounds: Vec<Vec<Itv<f32>>> = (0..2)
        .map(|_| {
            (0..case.frontier_len())
                .map(|_| {
                    let l = s.next_f32();
                    Itv::new(l, l + s.next_f32().abs())
                })
                .collect()
        })
        .collect();
    // Segment 0 (even rows) holds the non-finite bounds, segment 1 is finite.
    bounds[0][1] = Itv::top();
    bounds[0][6] = Itv::new(0.5, f32::INFINITY);
    for seg in &mut bounds {
        seg[3] = Itv::zero();
        seg[10] = Itv::point(-0.0);
    }
    // Rows 0 and 4 (segment 0) keep their non-zero coefficients on the
    // non-finite bounds; row 6 (segment 0) does not touch them.
    for row in [0, 4] {
        lo[row * cols + 1] = Itv::new(-0.25, 0.5);
        hi[row * cols + 6] = Itv::point(0.75);
    }
    for plane in [&mut lo, &mut hi] {
        plane[6 * cols + 1] = Itv::zero();
        plane[6 * cols + 6] = Itv::point(-0.0);
    }
    lo[cols + 4] = Itv::new(1.0, f32::INFINITY); // row 1 (segment 1): a +inf coefficient
    for plane in [&mut lo, &mut hi] {
        plane[2 * cols..3 * cols].fill(Itv::point(-0.0)); // row 2: nothing to sum
        plane[3 * cols..4 * cols].fill(Itv::zero()); // row 3: one term a side
    }
    cst_lo[2] = Itv::point(-0.0);
    let (a_lo, a_hi) = (Itv::new(-0.3_f32, 0.1), Itv::new(0.2_f32, 0.7));
    lo[3 * cols + 5] = a_lo;
    hi[3 * cols + 8] = a_hi;
    cst_lo[3] = Itv::zero();
    cst_hi[3] = Itv::zero();

    let bref: Vec<&[Itv<f32>]> = bounds.iter().map(Vec::as_slice).collect();
    let mut out = vec![Itv::point(9.0_f32); case.rows()];
    kernels::concretize(
        device,
        &lo,
        &hi,
        &cst_lo,
        &cst_hi,
        &case.geom(),
        &bref,
        &mut out,
    );
    let want = oracle_concretize(&lo, &hi, &cst_lo, &cst_hi, &case.geom(), &bref);
    assert_planes_bit_eq_or_nan(label, "concretize (special cases)", &out, &want);

    // The corners did what they are there for.
    for row in [0, 4] {
        assert!(
            out[row].lo == f32::NEG_INFINITY && out[row].hi == f32::INFINITY,
            "[{label}] concretize: row {row} meets top and [0.5, inf] bounds, got {}",
            out[row]
        );
    }
    for row in [3, 5, 6, 7] {
        assert!(
            out[row].is_finite(),
            "[{label}] concretize: row {row} has finite operands, got {}",
            out[row]
        );
    }
    let consts = Itv {
        lo: cst_lo[2].lo,
        hi: cst_hi[2].hi.max(cst_lo[2].lo),
    };
    assert!(
        bit_eq(out[2], consts),
        "[{label}] concretize: all-zero row must return its constants {consts}, got {}",
        out[2]
    );
    // Row 3 is in segment 1: min / max of the four exact corner products.
    let corners = |a: Itv<f32>, b: Itv<f32>| {
        [(a.lo, b.lo), (a.lo, b.hi), (a.hi, b.lo), (a.hi, b.hi)].map(|(x, y)| x as f64 * y as f64)
    };
    let tight = Itv::<f32> {
        lo: round::from_f64_down(
            corners(a_lo, bounds[1][5])
                .into_iter()
                .fold(f64::INFINITY, f64::min),
        ),
        hi: round::from_f64_up(
            corners(a_hi, bounds[1][8])
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max),
        ),
    };
    assert!(
        out[3].lo == tight.lo && out[3].hi == tight.hi,
        "[{label}] concretize: single-term row {} is not the tightest enclosure {tight}",
        out[3]
    );
}

/// One launch of a row reduction — concretize or the bias fold — shaped to
/// cross the edges of the row blocks a backend may run them in: `rows` rows
/// of 2×2×4 windows in one of three `layout`s — 0: full windows of a 2×2
/// layer, one segment (every row of a block reads the same bounds); 1: full
/// windows, segments interleaved; 2: windows at random origins of a 4×4
/// layer, segments interleaved. Interleaved, rows alternate between
/// segments 0 and 1, and row `rows − 2` is segment 2's only row. Among the
/// random rows (constants `-0.0` one time in five): with full windows, row 0
/// sums `x + 2⁴⁰ − 2⁴⁰` first, whose bits change with the order of its terms
/// (the `f64` sum loses low bits of `x` that the reverse order keeps); from
/// five rows on, row 2 — inside a full block of four or eight — meets `+inf`
/// and NaN operands, and row 3 has no term and `-0.0` constants.
pub(crate) struct RowReductionCase {
    geom: GeomCase,
    /// Coefficient planes; the bias fold folds `lo`.
    pub(crate) lo: Vec<Itv<f32>>,
    pub(crate) hi: Vec<Itv<f32>>,
    pub(crate) cst_lo: Vec<Itv<f32>>,
    pub(crate) cst_hi: Vec<Itv<f32>>,
    /// Concrete bounds of three segments.
    bounds: Vec<Vec<Itv<f32>>>,
    /// One entry per channel; the first three are `1.0`, so that row 0's
    /// cancelling terms meet unit weights in the bias fold too.
    pub(crate) bias: Vec<f32>,
}

impl RowReductionCase {
    pub(crate) fn new(rows: usize, layout: usize) -> Self {
        let mut s = Stream::new(0x10_ca1 ^ (rows * 3 + layout) as u64);
        let full = layout < 2;
        let side = if full { 2 } else { 4 };
        let mut geom = GeomCase::new(rows, 2, 2, side, side, 4, 1, &mut s);
        if layout > 0 {
            geom.seg = (0..rows).map(|r| (r % 2) as u32).collect();
            if rows >= 3 {
                geom.seg[rows - 2] = 2;
            }
        }
        let (lo, hi) = (geom.plane(&mut s), geom.plane(&mut s));
        let (cst_lo, cst_hi) = (geom.csts(&mut s), geom.csts(&mut s));
        let bounds = (0..3)
            .map(|_| {
                (0..geom.frontier_len())
                    .map(|_| {
                        let l = s.next_f32();
                        Itv::new(l, l + s.next_f32().abs())
                    })
                    .collect()
            })
            .collect();
        let bias = (0..4)
            .map(|c| if c < 3 { 1.0 } else { s.next_f32() })
            .collect();
        let mut case = Self {
            geom,
            lo,
            hi,
            cst_lo,
            cst_hi,
            bounds,
            bias,
        };
        let cols = case.geom.cols();
        if full {
            // Row 0 (at the origin, as every full window): `x`, `2⁴⁰` and
            // `−2⁴⁰` against unit bounds and unit bias entries, then the
            // row's random terms.
            let (x, big) = (Itv::point(0.1_f32), Itv::point(2f32.powi(40)));
            for plane in [&mut case.lo, &mut case.hi] {
                plane[..3].copy_from_slice(&[x, big, -big]);
            }
            for seg in &mut case.bounds {
                seg[..3].fill(Itv::point(1.0));
            }
        }
        if rows >= 5 {
            let nan = f32::NAN;
            case.lo[2 * cols + 1] = Itv::new(1.0, f32::INFINITY);
            case.hi[2 * cols + 2] = Itv { lo: nan, hi: 0.5 };
            case.cst_hi[2] = Itv { lo: nan, hi: nan };
            for plane in [&mut case.lo, &mut case.hi] {
                for (k, v) in plane[3 * cols..4 * cols].iter_mut().enumerate() {
                    *v = Itv::point(if k % 2 == 0 { 0.0 } else { -0.0 });
                }
            }
            case.cst_lo[3] = Itv::point(-0.0);
            case.cst_hi[3] = Itv::point(-0.0);
        }
        case
    }

    pub(crate) fn geom(&self) -> ExprGeom<'_> {
        self.geom.geom()
    }

    pub(crate) fn bounds(&self) -> Vec<&[Itv<f32>]> {
        self.bounds.iter().map(Vec::as_slice).collect()
    }

    /// [`oracle_concretize`] of the case.
    pub(crate) fn concretized(&self) -> Vec<Itv<f32>> {
        let (lo, hi) = (&self.lo, &self.hi);
        oracle_concretize(
            lo,
            hi,
            &self.cst_lo,
            &self.cst_hi,
            &self.geom(),
            &self.bounds(),
        )
    }

    /// [`oracle_bias_fold_row`] of every row of `lo`, from `cst_lo`.
    pub(crate) fn bias_folded(&self) -> Vec<Itv<f32>> {
        let cols = self.geom.cols();
        (0..self.geom.rows())
            .map(|r| oracle_bias_fold_row(&self.lo[r * cols..][..cols], &self.bias, self.cst_lo[r]))
            .collect()
    }
}

/// Asserts what the special rows of a [`RowReductionCase`] of five rows or
/// more are there for, on `out` (which equals the oracle): row 2's
/// neighbours, whose operands are finite, have finite results; row 3 is
/// `want3`, its constant, bit for bit.
fn assert_row_reduction_corners(label: &str, kernel: &str, out: &[Itv<f32>], want3: Itv<f32>) {
    assert!(
        [1, 3, 4].iter().all(|&r| out[r].is_finite()),
        "[{label}] {kernel}: rows 1, 3 and 4 have finite operands: {out:?}"
    );
    assert!(
        bit_eq(out[3], want3),
        "[{label}] {kernel}: the all-zero row must return its constant {want3}, got {}",
        out[3]
    );
}

/// Checks concretize against its straight-line oracle across the edges of
/// row blocks: 1 to 17 rows — full and partial blocks of four and of eight
/// — in three layouts (full windows over one segment, full windows over
/// interleaved segments, windows at random origins over interleaved
/// segments, one of them with a single row), with `-0.0` constants, a row
/// with `+inf` and NaN operands inside a full block, a row with no term,
/// and a row whose bits change with the order of its terms. A row with
/// finite operands takes the wide rule, whose bits the per-step chain does
/// not give, so a neighbour of the non-finite row that fell back with it
/// fails the comparison.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_concretize_block_edges<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    for rows in 1..=17 {
        for layout in 0..3 {
            let case = RowReductionCase::new(rows, layout);
            let mut out = vec![Itv::point(9.0_f32); rows]; // poisoned
            kernels::concretize(
                device,
                &case.lo,
                &case.hi,
                &case.cst_lo,
                &case.cst_hi,
                &case.geom(),
                &case.bounds(),
                &mut out,
            );
            let kernel = format!("concretize ({rows} rows, layout {layout})");
            assert_planes_bit_eq_or_nan(label, &kernel, &out, &case.concretized());
            if rows >= 5 {
                let (lo, hi) = (case.cst_lo[3].lo, case.cst_hi[3].hi);
                assert_row_reduction_corners(label, &kernel, &out, Itv { lo, hi });
            }
        }
    }
}

/// Checks the bias fold against its straight-line oracle across the edges
/// of row blocks, as [`check_concretize_block_edges`] checks concretize: the
/// case's `lo` plane from its `cst_lo` constants, row 2's a NaN.
///
/// # Panics
///
/// Panics with a labeled message on any contract violation.
pub fn check_bias_fold_block_edges<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    for rows in 1..=17 {
        for layout in 0..3 {
            let mut case = RowReductionCase::new(rows, layout);
            if rows >= 5 {
                let nan = f32::NAN;
                case.cst_lo[2] = Itv { lo: nan, hi: nan };
            }
            let mut out = vec![Itv::point(9.0_f32); rows]; // poisoned
            kernels::bias_fold(
                device,
                "bias_fold_lo",
                &case.lo,
                &case.geom(),
                &case.bias,
                &case.cst_lo,
                &mut out,
            );
            let kernel = format!("bias_fold ({rows} rows, layout {layout})");
            assert_planes_bit_eq_or_nan(label, &kernel, &out, &case.bias_folded());
            if rows >= 5 {
                assert_row_reduction_corners(label, &kernel, &out, case.cst_lo[3]);
            }
        }
    }
}

/// The device→device copy hook must round-trip bit-exactly and record its
/// launch label.
fn check_dtod<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    let mut s = Stream::new(97);
    for len in [0usize, 1, 513] {
        let src: Vec<f32> = (0..len).map(|_| s.next_f32()).collect();
        let mut dst = vec![0.0f32; len];
        let launches0 = device.stats().kernel_launches("dtod_test");
        kernels::dtod(device, "dtod_test", &src, &mut dst);
        assert_eq!(
            device.stats().kernel_launches("dtod_test"),
            launches0 + 1,
            "[{label}] dtod must record its launch"
        );
        for (i, (a, b)) in src.iter().zip(&dst).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "[{label}] dtod corrupted element {i}"
            );
        }
    }
}

/// Host↔device copies round-trip bit-exactly through [`DeviceBuffer`],
/// including the backend's explicit [`Backend::htod`] / [`Backend::dtoh`]
/// hooks.
fn check_copies<B: Backend>(device: &Device<B>) {
    let label = device.backend().label();
    let mut s = Stream::new(41);
    for len in [0usize, 1, 7, 1024] {
        let host: Vec<f32> = (0..len).map(|_| s.next_f32()).collect();
        let buf = DeviceBuffer::from_slice(device, &host).expect("upload");
        let mut back = vec![0.0f32; len];
        buf.copy_to_host(&mut back); // dtoh hook
        for (i, (a, b)) in host.iter().zip(&back).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "[{label}] htod/dtoh round-trip corrupted element {i}"
            );
        }
        let down = buf.into_vec();
        assert_eq!(down.len(), len, "[{label}] into_vec length");
    }

    // The htod hook proper only runs when uploading into *existing* device
    // storage, i.e. on a buffer-pool hit — force that path on pooling
    // backends (on non-pooling backends every upload stages fresh storage
    // and there is no htod call site to check).
    if device.backend().pooling() {
        device.buffer_pool_retain();
        {
            let _warm = DeviceBuffer::<f32, B>::zeroed(device, 256).expect("warm");
        }
        assert_eq!(
            device.buffer_pool_bytes(),
            256 * 4,
            "[{label}] warmup buffer must be shelved"
        );
        let host: Vec<f32> = (0..256).map(|_| s.next_f32()).collect();
        let hits0 = device.stats().pool_hits();
        let buf = DeviceBuffer::from_slice(device, &host).expect("recycled upload");
        assert_eq!(
            device.stats().pool_hits(),
            hits0 + 1,
            "[{label}] recycled upload must be a pool hit (htod path)"
        );
        for (i, (a, b)) in host.iter().zip(buf.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "[{label}] htod into recycled storage corrupted element {i}"
            );
        }
        drop(buf);
        device.buffer_pool_release();
    }
}

/// Allocation accounting and the backend's pooling policy.
fn check_memory_accounting<B: Backend>(make: &impl Fn(DeviceConfig) -> Device<B>) {
    let device = make(DeviceConfig::new().workers(2).memory_capacity(4096));
    let label = device.backend().label();
    let base = device.memory_in_use();
    {
        let a = DeviceBuffer::<u8, B>::zeroed(&device, 1000).expect("fits");
        assert_eq!(
            device.memory_in_use(),
            base + 1000,
            "[{label}] allocation must charge capacity"
        );
        // Over-capacity allocation errors without corrupting accounting.
        match DeviceBuffer::<u8, B>::zeroed(&device, 8192) {
            Err(DeviceError::OutOfMemory {
                requested,
                capacity,
                ..
            }) => {
                assert_eq!((requested, capacity), (8192, 4096), "[{label}] OOM fields");
            }
            Ok(_) => panic!("[{label}] over-capacity allocation must fail"),
        }
        assert_eq!(
            device.memory_in_use(),
            base + 1000,
            "[{label}] failed allocation must not leak charge"
        );
        drop(a);
    }
    assert_eq!(
        device.memory_in_use(),
        base,
        "[{label}] drop must release the charge"
    );
    assert!(device.peak_memory() >= 1000, "[{label}] peak tracks highs");

    // Pooling policy: shelve-and-reuse when the backend supports pooling,
    // free-on-drop when it does not. Either way retain/release balance and
    // all memory returns to the device.
    let pooling = device.backend().pooling();
    device.buffer_pool_retain();
    assert_eq!(
        device.buffer_pool_active(),
        pooling,
        "[{label}] pool activity must follow Backend::pooling()"
    );
    {
        let _a = DeviceBuffer::<u64, B>::zeroed(&device, 128).expect("fits");
    }
    if pooling {
        assert_eq!(
            device.buffer_pool_bytes(),
            128 * 8,
            "[{label}] dropped pooled buffer must be shelved"
        );
        let bytes0 = device.stats().bytes_allocated();
        {
            let _b = DeviceBuffer::<u64, B>::zeroed(&device, 128).expect("fits");
        }
        assert_eq!(
            device.stats().bytes_allocated(),
            bytes0,
            "[{label}] same-size realloc must be served by the pool"
        );
        assert!(
            device.stats().pool_hits() >= 1,
            "[{label}] pool hit counted"
        );
    } else {
        assert_eq!(
            device.buffer_pool_bytes(),
            0,
            "[{label}] non-pooling backend must never shelve"
        );
        assert_eq!(
            device.memory_in_use(),
            0,
            "[{label}] non-pooling backend frees on drop"
        );
    }
    device.buffer_pool_release();
    assert_eq!(
        device.memory_in_use(),
        0,
        "[{label}] final release must return all memory"
    );
    assert_eq!(device.buffer_pool_bytes(), 0, "[{label}] pool drained");
}

/// GEMM/scan shape matrix: the edge cases every backend must get right plus
/// a deterministic spread of irregular shapes.
fn shape_matrix() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (0, 0, 0), // fully empty
        (1, 1, 1), // single element
        (1, 0, 1), // empty inner dimension: result is exactly zero
        (2, 0, 3),
        (0, 4, 5),   // empty output
        (3, 1, 1),   // degenerate columns
        (1, 7, 1),   // dot product
        (4, 4, 4),   // small square
        (5, 17, 9),  // non-square
        (2, 3, 519), // many register blocks and a remainder
    ];
    let mut s = Stream::new(7);
    for _ in 0..12 {
        shapes.push((
            s.next_range(6) + 1,
            s.next_range(23) + 1,
            s.next_range(19) + 1,
        ));
    }
    shapes
}

/// Runs the full conformance suite against a backend.
///
/// `make` builds a device of the backend under test from a configuration
/// (worker counts and memory caps vary across the suite). Passing this
/// suite is the admission requirement for wiring a backend into
/// `gpupoly_core::Engine`; see the [`crate::backend`] module docs for the
/// contract being enforced.
///
/// # Panics
///
/// Panics with a labeled, actionable message on the first violation.
pub fn assert_backend_conformance<B: Backend>(make: impl Fn(DeviceConfig) -> Device<B>) {
    // Kernels must behave identically at every worker count.
    for workers in [1usize, 3] {
        let device = make(DeviceConfig::new().workers(workers));
        for (case, &(m, k, n)) in shape_matrix().iter().enumerate() {
            check_gemm_against_oracle(&device, m, k, n, case as u64 * 1013 + workers as u64);
        }
        for n in [0usize, 1, 2, 63, 64, 65, 1000, 4097] {
            let xs: Vec<u32> = (0..n).map(|i| ((i * 2654435761) % 5) as u32).collect();
            check_scan_against_oracle(&device, &xs);
            let keep: Vec<bool> = (0..n).map(|i| (i * 31) % 3 != 1).collect();
            check_compaction_against_oracle(&device, &keep, n % 7);
        }
        // All-false and all-true masks.
        check_compaction_against_oracle(&device, &[false; 9], 2);
        check_compaction_against_oracle(&device, &[true; 9], 2);
        // The walk-step kernel surface: every promoted kernel against its
        // independent serial oracle, over a deterministic geometry spread
        // (cuboid and full windows, every border, fused segments).
        for case in 0..6u64 {
            let seed = case * 7919 + workers as u64;
            check_gbc_against_oracle(&device, seed);
            check_bias_fold_against_oracle(&device, seed);
            check_relu_step_against_oracle(&device, seed);
            check_densify_against_oracle(&device, seed);
            check_residual_merge_against_oracle(&device, seed);
            check_concretize_against_oracle(&device, seed);
        }
        for case in 0..4u64 {
            check_gemm_live_against_oracle(&device, case * 7919 + workers as u64);
        }
        for case in 0..2u64 {
            check_gemm_prepared(&device, case * 7919 + workers as u64);
            check_concretize_dense(&device, case * 7919 + workers as u64);
        }
        check_gemm_special_rows(&device);
        check_gemm_live_special_cases(&device);
        check_gbc_block_edges(&device);
        check_gbc_special_cases(&device);
        check_gbc_slid_windows(&device);
        check_bias_fold_special_cases(&device);
        check_relu_step_special_cases(&device);
        check_relu_step_sides(&device);
        check_relu_step_tables(&device);
        check_concretize_special_cases(&device);
        check_concretize_block_edges(&device);
        check_bias_fold_block_edges(&device);
        check_dtod(&device);
        check_copies(&device);
        assert!(
            device.stats().launches() > 0,
            "[{}] kernels must record launches",
            device.backend().label()
        );
    }
    check_gemm_blocking(&make);
    check_memory_accounting(&make);
}

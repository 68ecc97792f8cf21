//! The pluggable kernel backend.
//!
//! GPUPoly's analysis code (in `gpupoly-core`) is written against an
//! abstract data-parallel machine; everything it needs from that machine is
//! the kernel surface captured by the [`Backend`] trait:
//!
//! * the interval/scalar **GEMM family** with directed rounding (§4.1),
//! * the **scan / compaction / gather** primitives of early termination
//!   (§4.2),
//! * **host↔device copies**, and
//! * a **pooling policy** deciding whether dropped device buffers may be
//!   recycled.
//!
//! [`crate::Device`] is generic over a `Backend`, so a real CUDA or wgpu
//! port slots in under the unchanged verifier by implementing this trait
//! (see `README.md`, "Adding a backend"). Two implementations ship with the
//! crate:
//!
//! * [`CpuSimBackend`] — the production CPU simulation: register-blocked
//!   GEMM and large gathers parallelized across the device's worker pool,
//!   buffer pooling enabled. This is the default backend.
//! * [`ReferenceBackend`] — deliberately naive straight-line scalar loops
//!   with pooling disabled. It exists to *differentially test* the clever
//!   backend (and any future port): same contract, trivially-auditable
//!   implementation.
//!
//! # The bit-reproducibility contract
//!
//! Backends are not merely required to be sound — they must be
//! **bit-identical** to each other, which is what makes cross-backend
//! differential testing (and caching/resume across heterogeneous fleets)
//! possible. For the GEMM family — and for GBC and concretize, which sum the
//! same way (below) — that pins, per output element, the exact sequence of
//! floating-point operations:
//!
//! * **Interval kernels, `f32`** ([`Fp::EXACT_IN_F64`]): the wide
//!   accumulator of [`gpupoly_interval::wide`]. Starting from the `C` entry
//!   (zero for the fresh kernel), the element's terms are visited in
//!   **ascending `k`**; a term whose coefficient is exactly zero
//!   (`lo == 0 && hi == 0`, either sign of zero) is **skipped** and does not
//!   count; every other term adds `min(a.lo·w, a.hi·w)` to the lower sum,
//!   `max(a.lo·w, a.hi·w)` to the upper sum and `max(|a.lo|, |a.hi|)·|w|` to
//!   the magnitude sum `T` — products exact in `f64`, sums in
//!   round-to-nearest `f64`, `min`/`max` spelled `p < q ? p : q` and
//!   `p > q ? p : q`. After the last term both sums move outward by
//!   `up(T · adds · 2⁻⁵²)`, where `adds` is the number of terms with `w ≠ 0`,
//!   plus one if the starting `C` entry was non-zero, minus one (never below
//!   zero — with `adds = 0` nothing moves), and are rounded once, directed,
//!   to `f32`. The module docs of [`gpupoly_interval::wide`] give the rule
//!   line by line with its soundness proof; a port reproduces those lines.
//! * **Fallback rule.** An output element whose magnitude sum `T` is not
//!   finite — exactly the elements with a `±inf` or NaN among their own
//!   operands (`A` row, `B` column, `C` entry) — is recomputed with the
//!   per-step chain below; the other elements of the launch are unaffected.
//!   Same rule in every backend; there is no switch.
//! * **Interval kernels, `f64`, and fallback elements**: the per-step
//!   directed chain — ascending `k`, zero coefficients skipped,
//!   [`Itv::mul_add_f`] per term.
//! * **Scalar kernel** (`gemm_f_f`, unsound by design): ascending `k`,
//!   [`Fp::mul_add`] per term, and zero terms are **not** skipped
//!   (`fma(0, b, -0.0)` is `+0.0` under round-to-nearest, so there the skip
//!   would be the divergence).
//!
//! The zero-skip is a requirement rather than an allowance: skipped terms
//! do not enter `adds` (so dependence-set padding and stable-zero column
//! compaction change neither flops nor bits), and on the per-step chain
//! accumulating a zero term is not a bitwise no-op when an accumulator bound
//! is `-0.0`. Reassociating is never allowed. A GPU port must therefore use
//! a deterministic fixed-order reduction per output element — the same
//! constraint the paper's cutlass kernels satisfy by construction, since
//! they privatize one output element per thread — and needs no rounding-mode
//! control inside the `k` loop: plain `f64` multiplies and adds (or FMAs,
//! which give the same bits because the products are exact), then the four
//! directed operations of the epilogue. Scan, compaction and gather are
//! exact integer/copy operations and must match element-for-element.
//!
//! **Blocking rule.** Cache/register blocking of the GEMM family is allowed
//! — but only over `m` and `n`. [`CpuSimBackend`] hands each worker a block
//! of rows and walks every row in column blocks whose accumulators stay in
//! registers across the **full `k` extent**. A port may tile `m`/`n`, pack
//! operands, and register-block freely, but must never split, reorder or
//! tree-reduce `k`. [`crate::conformance::check_gemm_blocking`] pins the
//! kernels against the straight-line oracle across block-boundary and
//! remainder shapes.
//!
//! **GBC** (the transpose convolution of a conv step) is the same
//! interval×scalar sum with the terms *gathered* per output: the element at
//! destination window position `(a, b)`, input channel `c` of row `r` sums
//! `src[i][j][d] · w[f][g][d][c]` over the source window positions `(i, j)`
//! with `f = a − i·sh ∈ [0, kh)` and `g = b − j·sw ∈ [0, kw)` that are real
//! ([`ExprGeom::is_real`]) and all output channels `d`, visited in
//! **ascending `i`, then `j`, then `d`**. It starts from exact zero and
//! follows the interval rule above term for term — zero coefficients skipped
//! and uncounted, `adds` the terms with `w ≠ 0` minus one, the same epilogue
//! — for `f32`; an element whose `T` is not finite, and every element for
//! `f64`, is the per-step [`Itv::mul_add_f`] chain from `[0, 0]` over the
//! same terms in the same order. Elements at virtual destination positions
//! (the conv's padding) and elements no term reaches are written as exact
//! `[+0, +0]`: the kernel defines every element of its destination, which
//! the caller therefore need not zero. The `c_in` channels of one position
//! share their terms and may be blocked like GEMM columns; nothing else
//! about the order is free.
//!
//! **Concretize** evaluates, per row, the lower bound of the lower plane and
//! the upper bound of the upper plane against interval bounds, so its terms
//! are interval×interval: four exact endpoint products `p1 = a.lo·b.lo`,
//! `p2 = a.lo·b.hi`, `p3 = a.hi·b.lo`, `p4 = a.hi·b.hi`. For `f32` the lower
//! sum starts at `cst_lo.lo` and adds `m(m(p1, p2), m(p3, p4))` with
//! `m(p, q) = p < q ? p : q`, the upper sum starts at `cst_hi.hi` and adds the
//! same with `m(p, q) = p > q ? p : q`, each alongside its own magnitude sum
//! `T += max(|a.lo|, |a.hi|) · max(|b.lo|, |b.hi|)` (seeded with the start's
//! magnitude) — real window positions in ascending order, channels
//! innermost, each plane skipping (and not counting) its own exact-zero
//! coefficients. With `adds` = that plane's terms, plus one for a non-zero
//! start, minus one (never below zero), the lower sum moves down and the
//! upper sum up by `up(T · adds · 2⁻⁵²)` and each is rounded once, directed,
//! to `f32`; the candidate is `[lo, max(hi, lo)]`. A term counts whatever
//! its bound, `[0, 0]` included. If either `T` is not finite — a `±inf` or
//! NaN coefficient, bound (`Itv::top()` bounds do occur) or constant met by
//! a non-zero coefficient — the **whole row**, both sides, is the per-step
//! chain instead: `lo = add_down(lo, (a·b).lo)`, `hi = add_up(hi, (a·b).hi)`
//! with [`Itv::mul`], same order, same skip; so is every row for `f64`. The
//! rule and its proof are the "Interval × interval" section of
//! [`gpupoly_interval::wide`].
//!
//! `bias_fold`, `relu_step` and `residual_merge` are per-step directed
//! arithmetic for every scalar type (see their row functions below).
//!
//! Every implementation is checked against this contract by the
//! [`crate::conformance`] suite; run
//! [`crate::conformance::assert_backend_conformance`] over a new backend
//! before wiring it into an engine.
//!
//! # What the trait does not (yet) cover
//!
//! The trait now captures the *complete* verifier kernel surface: the
//! BLAS-shaped family (GEMM, scan, compaction, gather, copies, pool policy)
//! plus the walk-step kernels (GBC transpose convolution, bias fold, the
//! ReLU substitution step, densify, residual merge, concretize) and
//! device↔device copies. What remains for a discrete-memory CUDA/wgpu port
//! is the storage side: [`crate::DeviceBuffer`] still assumes
//! host-addressable memory (`Deref<[T]>`) — tracked in `ROADMAP.md`.
//! Passing the conformance suite is the admission gate for the kernels; the
//! buffer abstraction is the one remaining structural gap.

use gpupoly_interval::wide::{WideAcc, WideBound, WideTerm};
use gpupoly_interval::{Fp, Itv};
use rayon::prelude::*;

use crate::relax::ReluRelax;
use crate::Device;

/// Per-row window geometry of a batched polyhedral expression — the
/// device-side view of `gpupoly_core::ExprBatch`'s layout that the walk-step
/// kernels need: the `win_h × win_w × chans` cuboid window per row, each
/// row's origin in the frontier node's `shape_h × shape_w × chans` extent,
/// and the per-row query-segment index of fused cross-query batches.
///
/// Window positions falling outside the frontier extent (negative origins
/// from padding) are *virtual*: they carry zero coefficients by invariant
/// and every kernel skips them via [`ExprGeom::is_real`].
#[derive(Copy, Clone, Debug)]
pub struct ExprGeom<'a> {
    /// Window height.
    pub win_h: usize,
    /// Window width.
    pub win_w: usize,
    /// Frontier node height.
    pub shape_h: usize,
    /// Frontier node width.
    pub shape_w: usize,
    /// Channels (innermost dimension of both window and frontier).
    pub chans: usize,
    /// Per-row window origins in the frontier extent.
    pub origins: &'a [(i32, i32)],
    /// Per-row query-segment indices (all `0` for single-query batches).
    pub seg: &'a [u32],
}

impl ExprGeom<'_> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.origins.len()
    }

    /// Coefficients per row (window volume).
    pub fn cols(&self) -> usize {
        self.win_h * self.win_w * self.chans
    }

    /// Total neurons of the frontier node the windows map into.
    pub fn frontier_len(&self) -> usize {
        self.shape_h * self.shape_w * self.chans
    }

    /// `true` when window position `(i, j)` of row `r` maps to a real
    /// neuron of the frontier node.
    #[inline(always)]
    pub fn is_real(&self, r: usize, i: usize, j: usize) -> bool {
        let (oh, ow) = self.origins[r];
        let h = oh + i as i32;
        let w = ow + j as i32;
        h >= 0 && w >= 0 && (h as usize) < self.shape_h && (w as usize) < self.shape_w
    }

    /// Linear frontier index of window position `(i, j, channel 0)` of row
    /// `r`; the caller must have checked [`ExprGeom::is_real`].
    #[inline(always)]
    pub fn neuron_at(&self, r: usize, i: usize, j: usize) -> usize {
        let (oh, ow) = self.origins[r];
        ((oh + i as i32) as usize * self.shape_w + (ow + j as i32) as usize) * self.chans
    }
}

/// The convolution geometry of one GBC (transpose-convolution) launch —
/// everything Algorithm 1 needs beyond the source batch geometry.
#[derive(Copy, Clone, Debug)]
pub struct GbcShape {
    /// Filter height / width.
    pub kh: usize,
    /// Filter width.
    pub kw: usize,
    /// Vertical stride.
    pub sh: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Output channels (the conv layer's, i.e. the *source* batch's chans).
    pub cout: usize,
    /// Input channels (the *destination* batch's chans).
    pub cin: usize,
    /// Conv input height (destination frontier extent).
    pub in_h: usize,
    /// Conv input width.
    pub in_w: usize,
}

impl GbcShape {
    /// Linear index into the `[kh][kw][c_out][c_in]` filter tensor.
    #[inline(always)]
    pub fn widx(&self, f: usize, g: usize, d: usize, c: usize) -> usize {
        ((f * self.kw + g) * self.cout + d) * self.cin + c
    }
}

// ---------------------------------------------------------------------------
// Shared per-row kernel bodies. Both backends dispatch these row functions
// (in parallel on CpuSimBackend, serially on ReferenceBackend), so per-row
// arithmetic — and therefore every result bit — is identical by
// construction. The conformance suite still checks each backend against
// *independent* straight-line oracles, so a port that reimplements the rows
// is held to the same bits.
// ---------------------------------------------------------------------------

/// Calls `visit(s, w)` for every term of destination window position
/// `(a, b)` of row `r`, in the contract's order: ascending source position
/// `i`, then `j`, then output channel `d`. `s` indexes the source row's
/// coefficient, `w` the filter weight of that tap for `c_in` channel 0 (the
/// `c_in` weights of a term are contiguous from there). Source positions
/// contribute when `a = i·sh + f` and `b = j·sw + g` for a filter tap
/// `(f, g)` and `(i, j)` is a real position of the source window.
#[inline(always)]
fn gbc_terms(
    r: usize,
    (a, b): (usize, usize),
    src_geom: &ExprGeom<'_>,
    conv: &GbcShape,
    mut visit: impl FnMut(usize, usize),
) {
    let i_first = (a + 1).saturating_sub(conv.kh).div_ceil(conv.sh);
    let j_first = (b + 1).saturating_sub(conv.kw).div_ceil(conv.sw);
    for i in i_first..src_geom.win_h.min(a / conv.sh + 1) {
        let f = a - i * conv.sh;
        for j in j_first..src_geom.win_w.min(b / conv.sw + 1) {
            if !src_geom.is_real(r, i, j) {
                continue; // virtual source position: zero by invariant
            }
            let g = b - j * conv.sw;
            let sbase = (i * src_geom.win_w + j) * conv.cout;
            for d in 0..conv.cout {
                visit(sbase + d, conv.widx(f, g, d, 0));
            }
        }
    }
}

/// One row of the GBC transpose convolution (paper Algorithm 1) as a
/// gather: every element of the grown destination window sums the terms
/// [`gbc_terms`] lists for its position and is written exactly once —
/// through the wide accumulator for [`Fp::EXACT_IN_F64`] (the row is widened
/// into `wide` once, [`LANES`] `c_in` channels share one pass over the
/// terms), through the per-step chain otherwise and for the elements the
/// wide rule hands back. Exact-zero source coefficients are skipped
/// (mandatory, like the GEMM zero-skip); virtual destination positions are
/// exact zeros.
#[inline]
#[allow(clippy::too_many_arguments)]
fn gbc_row<F: Fp>(
    r: usize,
    src_row: &[Itv<F>],
    src_geom: &ExprGeom<'_>,
    weight: &[F],
    conv: &GbcShape,
    dst_row: &mut [Itv<F>],
    dst_origin: (i32, i32),
    dst_ww: usize,
    wide: &mut Vec<WideTerm>,
) {
    let cin = conv.cin;
    if F::EXACT_IN_F64 {
        wide.clear();
        wide.extend(src_row.iter().map(|&m| WideTerm::new(m)));
    }
    // `nr` channels from `c0` of position `at` on the per-step chain.
    let chain = |at: (usize, usize), c0: usize, nr: usize| {
        let mut acc = [Itv::<F>::zero(); LANES];
        gbc_terms(r, at, src_geom, conv, |s, w| {
            let m = src_row[s];
            if m.lo == F::ZERO && m.hi == F::ZERO {
                return;
            }
            for (v, &wv) in acc.iter_mut().zip(&weight[w + c0..w + c0 + nr]) {
                *v = m.mul_add_f(wv, *v);
            }
        });
        acc
    };
    for (pos, out) in dst_row.chunks_mut(cin).enumerate() {
        let at = (pos / dst_ww, pos % dst_ww);
        let (dh, dw) = (dst_origin.0 + at.0 as i32, dst_origin.1 + at.1 as i32);
        if dh < 0 || dw < 0 || dh as usize >= conv.in_h || dw as usize >= conv.in_w {
            out.fill(Itv::zero()); // virtual (padding) position
            continue;
        }
        for c0 in (0..cin).step_by(LANES) {
            let nr = LANES.min(cin - c0);
            if !F::EXACT_IN_F64 {
                out[c0..c0 + nr].copy_from_slice(&chain(at, c0, nr)[..nr]);
                continue;
            }
            let mut acc = WideAcc::<LANES>::new::<F>(&[]);
            // Remainder channels: unused lanes multiply by zero.
            let mut lanes = [F::ZERO; LANES];
            gbc_terms(r, at, src_geom, conv, |s, w| {
                let term = wide[s];
                if term.is_zero() {
                    return;
                }
                if nr == LANES {
                    lanes.copy_from_slice(&weight[w + c0..w + c0 + LANES]);
                } else {
                    lanes[..nr].copy_from_slice(&weight[w + c0..w + c0 + nr]);
                }
                acc.mul_add(term, &lanes);
            });
            let mut redone = None;
            for (l, v) in out[c0..c0 + nr].iter_mut().enumerate() {
                *v = acc
                    .finish(l)
                    .unwrap_or_else(|| redone.get_or_insert_with(|| chain(at, c0, nr))[l]);
            }
        }
    }
}

/// Rows `r0..` of a GBC launch into `dst` (whole rows of `dst_cols`), one
/// after the other with one widened-row scratch between them: a worker's
/// share on [`CpuSimBackend`], the whole launch on [`ReferenceBackend`].
#[allow(clippy::too_many_arguments)]
fn gbc_rows<F: Fp>(
    r0: usize,
    src: &[Itv<F>],
    src_geom: &ExprGeom<'_>,
    weight: &[F],
    conv: &GbcShape,
    dst: &mut [Itv<F>],
    dst_origins: &[(i32, i32)],
    dst_cols: usize,
    dst_ww: usize,
) {
    let src_cols = src_geom.cols();
    let mut wide = Vec::new();
    for (r, row) in (r0..).zip(dst.chunks_mut(dst_cols)) {
        gbc_row(
            r,
            &src[r * src_cols..(r + 1) * src_cols],
            src_geom,
            weight,
            conv,
            row,
            dst_origins[r],
            dst_ww,
            &mut wide,
        );
    }
}

/// One row of the bias fold: `cst' = cst + Σ a_t · bias[t mod |bias|]` over
/// the real window positions, in ascending window order. Zero coefficients
/// are **not** skipped here — the fold predates the trait and its bit
/// pattern is pinned by the differential suite, so the accumulation is the
/// plain ascending walk (unlike the GEMM family's mandatory zero-skip).
#[inline]
fn bias_fold_row<F: Fp>(
    r: usize,
    row: &[Itv<F>],
    geom: &ExprGeom<'_>,
    bias: &[F],
    cst: Itv<F>,
) -> Itv<F> {
    let mut acc = cst;
    let blen = bias.len();
    for i in 0..geom.win_h {
        for j in 0..geom.win_w {
            if !geom.is_real(r, i, j) {
                continue;
            }
            let base = (i * geom.win_w + j) * geom.chans;
            for c in 0..geom.chans {
                acc = row[base + c].mul_add_f(bias[(base + c) % blen], acc);
            }
        }
    }
    acc
}

/// One row of the ReLU substitution step (DeepPoly diagonal substitution).
/// `upper` selects the mirrored coefficient choice of the upper plane.
#[inline]
fn relu_step_row<F: Fp>(
    r: usize,
    row: &mut [Itv<F>],
    cst: &mut Itv<F>,
    geom: &ExprGeom<'_>,
    relax: &[ReluRelax<F>],
    out_bounds: &[Itv<F>],
    upper: bool,
) {
    for i in 0..geom.win_h {
        for j in 0..geom.win_w {
            if !geom.is_real(r, i, j) {
                continue;
            }
            let nbase = geom.neuron_at(r, i, j);
            let base = (i * geom.win_w + j) * geom.chans;
            for c in 0..geom.chans {
                let a = row[base + c];
                if a.lo == F::ZERO && a.hi == F::ZERO {
                    continue;
                }
                let rx = &relax[nbase + c];
                // Lower plane: a >= 0 -> (alpha, beta); a <= 0 -> (gamma,
                // delta). Upper plane mirrors the choice.
                let (pos_s, pos_c, neg_s, neg_c) = if upper {
                    (rx.gamma, rx.delta, rx.alpha, rx.beta)
                } else {
                    (rx.alpha, rx.beta, rx.gamma, rx.delta)
                };
                if a.lo >= F::ZERO {
                    row[base + c] = a.mul(pos_s);
                    *cst = cst.add(a.mul(pos_c));
                } else if a.hi <= F::ZERO {
                    row[base + c] = a.mul(neg_s);
                    *cst = cst.add(a.mul(neg_c));
                } else {
                    let hull = a.mul(out_bounds[nbase + c]);
                    row[base + c] = Itv::zero();
                    let point = if upper { hull.hi } else { hull.lo };
                    *cst = cst.add(Itv::point(point));
                }
            }
        }
    }
}

/// One row of the densify scatter: copy the cuboid window's real positions
/// into their linear frontier slots of a full-window row (assumed zeroed).
#[inline]
fn densify_row<F: Fp>(r: usize, src_row: &[Itv<F>], geom: &ExprGeom<'_>, dst_row: &mut [Itv<F>]) {
    for i in 0..geom.win_h {
        for j in 0..geom.win_w {
            if !geom.is_real(r, i, j) {
                continue;
            }
            let nbase = geom.neuron_at(r, i, j);
            let base = (i * geom.win_w + j) * geom.chans;
            dst_row[nbase..nbase + geom.chans].copy_from_slice(&src_row[base..base + geom.chans]);
        }
    }
}

/// Adds one source batch's row into a destination row on the union window
/// of a residual merge (Eq. 4). Zero source coefficients are skipped so the
/// destination's exact zeros stay bit-stable.
#[inline]
fn merge_add_row<F: Fp>(
    r: usize,
    src_row: &[Itv<F>],
    src_geom: &ExprGeom<'_>,
    dst_row: &mut [Itv<F>],
    dst_origin: (i32, i32),
    dst_ww: usize,
) {
    let (so_h, so_w) = src_geom.origins[r];
    let (mo_h, mo_w) = dst_origin;
    let dh = (so_h - mo_h) as usize;
    let dw = (so_w - mo_w) as usize;
    let chans = src_geom.chans;
    for i in 0..src_geom.win_h {
        for j in 0..src_geom.win_w {
            let dbase = ((i + dh) * dst_ww + (j + dw)) * chans;
            let sbase = (i * src_geom.win_w + j) * chans;
            for c in 0..chans {
                let v = src_row[sbase + c];
                if !(v.lo == F::ZERO && v.hi == F::ZERO) {
                    dst_row[dbase + c] = dst_row[dbase + c].add(v);
                }
            }
        }
    }
}

/// `(window offset, frontier index)` of channel 0 of every real window
/// position of row `r`, in ascending window order.
#[inline(always)]
fn real_positions<'a>(
    r: usize,
    geom: &'a ExprGeom<'_>,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    (0..geom.win_h).flat_map(move |i| {
        (0..geom.win_w)
            .filter(move |&j| geom.is_real(r, i, j))
            .map(move |j| ((i * geom.win_w + j) * geom.chans, geom.neuron_at(r, i, j)))
    })
}

/// One row of concretization: substitute the row's segment's concrete
/// bounds into both plane expressions and return the sound candidate — the
/// lower bound of the lower expression and the upper bound of the upper one,
/// each through a [`WideBound`] for [`Fp::EXACT_IN_F64`]; on the per-step
/// chain otherwise, and for a row either of whose magnitude sums is not
/// finite. Exact-zero coefficients are skipped on both.
#[inline]
fn concretize_row<F: Fp>(
    r: usize,
    lo_row: &[Itv<F>],
    hi_row: &[Itv<F>],
    cst_lo: Itv<F>,
    cst_hi: Itv<F>,
    geom: &ExprGeom<'_>,
    bounds: &[Itv<F>],
) -> Itv<F> {
    use gpupoly_interval::round;
    let is_zero = |a: Itv<F>| a.lo == F::ZERO && a.hi == F::ZERO;
    if F::EXACT_IN_F64 {
        let mut lo = WideBound::<false>::new(cst_lo.lo);
        let mut hi = WideBound::<true>::new(cst_hi.hi);
        for (base, nbase) in real_positions(r, geom) {
            for c in 0..geom.chans {
                let (a_lo, a_hi) = (lo_row[base + c], hi_row[base + c]);
                if is_zero(a_lo) && is_zero(a_hi) {
                    continue;
                }
                let b = WideTerm::new(bounds[nbase + c]);
                if !is_zero(a_lo) {
                    lo.mul_add(WideTerm::new(a_lo), b);
                }
                if !is_zero(a_hi) {
                    hi.mul_add(WideTerm::new(a_hi), b);
                }
            }
        }
        if let (Some(lo), Some(hi)) = (lo.finish::<F>(), hi.finish::<F>()) {
            return Itv { lo, hi: hi.max(lo) };
        }
    }
    let mut lo = cst_lo.lo;
    let mut hi = cst_hi.hi;
    for (base, nbase) in real_positions(r, geom) {
        for c in 0..geom.chans {
            let b = bounds[nbase + c];
            let a = lo_row[base + c];
            if !is_zero(a) {
                lo = round::add_down(lo, a.mul(b).lo);
            }
            let a = hi_row[base + c];
            if !is_zero(a) {
                hi = round::add_up(hi, a.mul(b).hi);
            }
        }
    }
    Itv { lo, hi: hi.max(lo) }
}

/// One output element of the interval GEMM family: the module-level
/// contract in straight-line form. [`ReferenceBackend`] computes every
/// element this way; [`CpuSimBackend`] uses it for the elements its
/// register-blocked kernel hands back (non-finite operands).
#[inline]
fn gemm_itv_element<F: Fp>(init: Itv<F>, arow: &[Itv<F>], b: &[F], n: usize, j: usize) -> Itv<F> {
    if F::EXACT_IN_F64 {
        let mut acc = WideAcc::<1>::new(&[init]);
        for (kk, &aik) in arow.iter().enumerate() {
            // Mandatory zero-skip — see the module contract.
            if aik.lo == F::ZERO && aik.hi == F::ZERO {
                continue;
            }
            acc.mul_add(WideTerm::new(aik), &[b[kk * n + j]]);
        }
        if let Some(v) = acc.finish(0) {
            return v;
        }
    }
    let mut acc = init;
    for (kk, &aik) in arow.iter().enumerate() {
        if aik.lo == F::ZERO && aik.hi == F::ZERO {
            continue;
        }
        acc = aik.mul_add_f(b[kk * n + j], acc);
    }
    acc
}

/// Outputs per register block of the wide kernels: one row of `C` times this
/// many columns in [`wide_itv_rows`], one window position times this many
/// `c_in` channels in [`gbc_row`], accumulating in registers over all of the
/// element's terms. Fixed, not configurable: four lanes keep the block's
/// accumulators in baseline x86-64's sixteen vector registers, and a sweep of
/// wider blocks and multi-row micro-kernels on the GEMM found none more than
/// 10 % ahead.
const LANES: usize = 4;

/// A block of rows of the interval product for scalar types with
/// [`Fp::EXACT_IN_F64`]. Each row's non-zero coefficients are widened once
/// into a term list (so the zero-skip and the `f32`→`f64` conversions leave
/// the hot loop); then every [`LANES`]-wide column block streams that
/// list in ascending `k`. Per output element this is the operation sequence
/// of [`gemm_itv_element`] — blocking covers `m`/`n` only — so the bits are
/// the same. `fresh` starts from zero instead of reading `C`.
fn wide_itv_rows<F: Fp>(
    atile: &[Itv<F>],
    b: &[F],
    ctile: &mut [Itv<F>],
    k: usize,
    n: usize,
    fresh: bool,
) {
    let mut terms: Vec<(usize, WideTerm)> = Vec::with_capacity(k);
    for (arow, crow) in atile.chunks(k).zip(ctile.chunks_mut(n)) {
        terms.clear();
        terms.extend(
            arow.iter()
                .enumerate()
                .filter(|(_, aik)| !(aik.lo == F::ZERO && aik.hi == F::ZERO))
                .map(|(kk, &aik)| (kk * n, WideTerm::new(aik))),
        );
        for j0 in (0..n).step_by(LANES) {
            let nr = LANES.min(n - j0);
            let init: &[Itv<F>] = if fresh { &[] } else { &crow[j0..j0 + nr] };
            let mut acc = WideAcc::<LANES>::new(init);
            if nr == LANES {
                for &(off, term) in &terms {
                    let w = &b[off + j0..off + j0 + LANES];
                    acc.mul_add(term, w.try_into().expect("a full lane block"));
                }
            } else {
                // Remainder columns: unused lanes multiply by zero.
                let mut w = [F::ZERO; LANES];
                for &(off, term) in &terms {
                    w[..nr].copy_from_slice(&b[off + j0..off + j0 + nr]);
                    acc.mul_add(term, &w);
                }
            }
            for jj in 0..nr {
                crow[j0 + jj] = acc.finish(jj).unwrap_or_else(|| {
                    let init = if fresh { Itv::zero() } else { crow[j0 + jj] };
                    gemm_itv_element(init, arow, b, n, j0 + jj)
                });
            }
        }
    }
}

/// The `f64` counterpart of [`wide_itv_rows`]: the per-step chain, streamed
/// row-wise over `B` — per output element the operation sequence of
/// [`gemm_itv_element`].
fn chain_itv_rows<F: Fp>(
    atile: &[Itv<F>],
    b: &[F],
    ctile: &mut [Itv<F>],
    k: usize,
    n: usize,
    fresh: bool,
) {
    if fresh {
        ctile.fill(Itv::zero());
    }
    for (arow, crow) in atile.chunks(k).zip(ctile.chunks_mut(n)) {
        for (kk, &aik) in arow.iter().enumerate() {
            if aik.lo == F::ZERO && aik.hi == F::ZERO {
                continue;
            }
            for (cv, &bv) in crow.iter_mut().zip(&b[kk * n..(kk + 1) * n]) {
                *cv = aik.mul_add_f(bv, *cv);
            }
        }
    }
}

/// Splits `C` (`m×n`) into one block of whole rows per worker and runs
/// `body` on each block and its rows of `A` (`m×k`) in parallel — the only
/// blocking over `m` the CPU-sim GEMM family does. `n` and `k` are non-zero.
fn par_row_blocks<A: Sync, C: Send>(
    device: &Device<CpuSimBackend>,
    a: &[A],
    c: &mut [C],
    (m, k, n): (usize, usize, usize),
    body: impl Fn(&[A], &mut [C]) + Sync,
) {
    let rows = m.div_ceil(device.workers()).max(1);
    device.install(|| {
        c.par_chunks_mut(rows * n)
            .enumerate()
            .for_each(|(t, ctile)| body(&a[t * rows * k..][..ctile.len() / n * k], ctile))
    });
}

/// Elements a part of a gather must hold before a pool helper is worth
/// waking for it: the launch splits from `2 * STREAM_GRAIN` up. A gather is
/// one copying pass and no arithmetic, so a second worker only pays once the
/// rows outgrow the cache. Measured on the 2-vCPU reference container,
/// 8-byte elements, one worker vs. split over two (row lengths 64 to 4096
/// agree): 64 Ki elements 15 vs. 25 µs, 128 Ki 42 vs. 51 µs, 256 Ki 143 vs.
/// 96 µs, 1 Mi 650 vs. 380 µs — the break-even lies between 128 Ki and
/// 256 Ki. Of the benchmark's workloads only `conv_fused` gathers that much
/// (84 of its 468 calls, two thirds of its gathered elements); the other
/// three stay below 147 Ki. Fixed, not configurable.
const STREAM_GRAIN: usize = 128 * 1024;

/// Runs `op` over `items`, each about `elems_per_item` elements of streaming
/// work: on the calling thread, without touching the pool, when the section
/// is smaller than two parts of [`STREAM_GRAIN`] elements, and split over
/// the device's workers otherwise. The split changes who runs an item, never
/// what it computes.
fn par_stream<I: ParallelIterator>(
    device: &Device<CpuSimBackend>,
    items: I,
    elems_per_item: usize,
    op: impl Fn(I::Item) + Sync + Send,
) {
    if items.pi_len() * elems_per_item < 2 * STREAM_GRAIN {
        items.pi_seq().for_each(op);
    } else {
        device.install(|| items.for_each(op));
    }
}

/// Exclusive prefix sum in one pass — the scan of both backends. The flag
/// vectors the verifier scans and compacts hold one entry per row of a bound
/// matrix (at most 1672 on the benchmark's workloads), far below the size
/// at which a chunked three-phase scan would repay its two launches.
fn serial_scan(xs: &[u32]) -> (Vec<u32>, u32) {
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = 0u32;
    for &x in xs {
        out.push(acc);
        acc += x;
    }
    (out, acc)
}

/// The indices of the `true` flags, ascending — the compaction of both
/// backends (see [`serial_scan`] for why it is one pass).
fn serial_compact(keep: &[bool]) -> Vec<u32> {
    keep.iter()
        .enumerate()
        .filter_map(|(i, &k)| k.then_some(i as u32))
        .collect()
}

/// Driver of the CPU-sim interval GEMM family.
#[allow(clippy::too_many_arguments)]
fn gemm_itv_rows<F: Fp>(
    device: &Device<CpuSimBackend>,
    a: &[Itv<F>],
    b: &[F],
    c: &mut [Itv<F>],
    m: usize,
    k: usize,
    n: usize,
    fresh: bool,
) {
    if n == 0 {
        return;
    }
    if k == 0 {
        // Empty reduction: C is all zeros (fresh) / unchanged (acc).
        if fresh {
            c.fill(Itv::zero());
        }
        return;
    }
    let kernel = if F::EXACT_IN_F64 {
        wide_itv_rows::<F>
    } else {
        chain_itv_rows::<F>
    };
    par_row_blocks(device, a, c, (m, k, n), |atile, ctile| {
        kernel(atile, b, ctile, k, n, fresh)
    });
}

/// The kernel surface a device implementation must provide.
///
/// The GEMM methods take eight arguments (device, three matrices, three
/// dimensions) mirroring the BLAS signature; the lint for that is allowed
/// once here rather than reshaping a conventional kernel interface.
///
/// Methods receive the owning [`Device`] so implementations can use its
/// worker pool ([`Device::install`]) and report work to its counters
/// ([`Device::stats`]). Dimension checks, launch recording and flop
/// accounting are done by the free wrapper functions in [`crate::gemm`] and
/// [`crate::scan`] *before* delegating here, so implementations contain
/// only the math. See the module docs for the bit-reproducibility contract
/// every implementation must honor.
#[allow(clippy::too_many_arguments)]
pub trait Backend: Send + Sync + Sized + 'static {
    /// Short human-readable backend name for diagnostics (`"cpusim"`,
    /// `"reference"`, `"cuda"`, ...).
    fn label(&self) -> &'static str;

    /// Whether dropped pool-eligible [`crate::DeviceBuffer`]s may be
    /// shelved for reuse. Backends without a meaningful recycling story
    /// (or that want allocation behavior to stay trivially auditable, like
    /// [`ReferenceBackend`]) return `false`; the device then treats
    /// [`Device::buffer_pool_retain`] as a no-op.
    fn pooling(&self) -> bool {
        true
    }

    /// Host→device copy into existing device storage of the same length.
    /// The simulator's "device memory" is host memory, so the default is a
    /// plain slice copy; a real port issues a `memcpyHtoD`.
    fn htod<T: Clone + Send>(&self, src: &[T], dst: &mut [T]) {
        dst.clone_from_slice(src);
    }

    /// Device→host copy from device storage into a host slice of the same
    /// length. The inverse of [`Backend::htod`].
    fn dtoh<T: Clone + Send>(&self, src: &[T], dst: &mut [T]) {
        dst.clone_from_slice(src);
    }

    /// Sound interval×scalar GEMM `C = A · B` (`A: m×k` intervals, `B: k×n`
    /// scalars), ascending-`k` accumulation per element under the module
    /// contract.
    fn gemm_itv_f<F: Fp>(
        &self,
        device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        m: usize,
        k: usize,
        n: usize,
    );

    /// Sound interval×scalar GEMM accumulating into `C`: `C += A · B`.
    fn gemm_itv_f_acc<F: Fp>(
        &self,
        device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        m: usize,
        k: usize,
        n: usize,
    );

    /// Unsound round-to-nearest scalar GEMM `C = A · B` (baselines and the
    /// soundness-overhead ablation only).
    fn gemm_f_f<F: Fp>(
        &self,
        device: &Device<Self>,
        a: &[F],
        b: &[F],
        c: &mut [F],
        m: usize,
        k: usize,
        n: usize,
    );

    /// Exclusive prefix sum; returns the scanned vector and the total.
    fn exclusive_scan(&self, device: &Device<Self>, xs: &[u32]) -> (Vec<u32>, u32);

    /// The original indices of all `true` entries, in order (the prefix-sum
    /// scatter of §4.2).
    fn compact_indices(&self, device: &Device<Self>, keep: &[bool]) -> Vec<u32>;

    /// Gathers the rows listed in `index` from a row-major matrix into
    /// `dst` (`dst.len() == index.len() * row_len`, checked by the caller).
    fn gather_rows<T: Copy + Send + Sync>(
        &self,
        device: &Device<Self>,
        src: &[T],
        row_len: usize,
        index: &[u32],
        dst: &mut [T],
    );

    /// Device→device copy between buffers of the same length. The
    /// simulator's device memory is host memory, so the default is a plain
    /// slice copy; a real port issues a `memcpyDtoD`.
    fn dtod<T: Clone + Send>(&self, src: &[T], dst: &mut [T]) {
        dst.clone_from_slice(src);
    }

    /// GBC transpose convolution (paper Algorithm 1), one coefficient
    /// plane per launch: every source row's dependence-set window is pushed
    /// one convolution backwards into the grown destination window
    /// (`dst_cols` wide, spatial width `dst_ww`, per-row origins
    /// `dst_origins`). Every element of `dst` is written — the caller need
    /// not zero it — under the module contract's GBC rule; exact-zero source
    /// coefficients must be skipped (as in the interval GEMM family).
    #[allow(clippy::too_many_arguments)]
    fn gbc<F: Fp>(
        &self,
        device: &Device<Self>,
        src: &[Itv<F>],
        src_geom: &ExprGeom<'_>,
        weight: &[F],
        conv: &GbcShape,
        dst: &mut [Itv<F>],
        dst_origins: &[(i32, i32)],
        dst_cols: usize,
        dst_ww: usize,
    );

    /// Bias absorption of the affine steps, one plane per launch:
    /// `out_cst[r] = src_cst[r] + Σ_t plane[r][t] · bias[t mod |bias|]`
    /// over the real window positions in ascending order, with **no**
    /// zero-skip (see [`bias_fold_row`]'s bit-pattern note).
    fn bias_fold<F: Fp>(
        &self,
        device: &Device<Self>,
        plane: &[Itv<F>],
        geom: &ExprGeom<'_>,
        bias: &[F],
        src_cst: &[Itv<F>],
        out_cst: &mut [Itv<F>],
    );

    /// The DeepPoly ReLU substitution step, one plane per launch (`upper`
    /// selects the mirrored coefficient choice): row `r` substitutes the
    /// relaxation of *its own* query segment
    /// (`relax_per_seg[geom.seg[r]]`), in place.
    #[allow(clippy::too_many_arguments)]
    fn relu_step<F: Fp>(
        &self,
        device: &Device<Self>,
        plane: &mut [Itv<F>],
        cst: &mut [Itv<F>],
        geom: &ExprGeom<'_>,
        relax_per_seg: &[&[ReluRelax<F>]],
        out_bounds_per_seg: &[&[Itv<F>]],
        upper: bool,
    );

    /// Expands cuboid windows to full rows over the frontier node, one
    /// plane per launch: scatter each row's real window positions into
    /// their linear frontier slots. `dst` must be zeroed.
    fn densify<F: Fp>(
        &self,
        device: &Device<Self>,
        src: &[Itv<F>],
        geom: &ExprGeom<'_>,
        dst: &mut [Itv<F>],
        dst_cols: usize,
    );

    /// Residual-merge accumulation (Eq. 4), one plane per launch: add both
    /// branch expressions into the zeroed union-window destination.
    #[allow(clippy::too_many_arguments)]
    fn residual_merge<F: Fp>(
        &self,
        device: &Device<Self>,
        a: &[Itv<F>],
        a_geom: &ExprGeom<'_>,
        b: &[Itv<F>],
        b_geom: &ExprGeom<'_>,
        dst: &mut [Itv<F>],
        dst_origins: &[(i32, i32)],
        dst_cols: usize,
        dst_ww: usize,
    );

    /// Candidate concretization: substitute each row's segment's concrete
    /// bounds (`bounds_per_seg[geom.seg[r]]`) into both plane expressions,
    /// writing one sound `[lower, upper]` candidate per row into `out`
    /// under the module contract's concretize rule.
    #[allow(clippy::too_many_arguments)]
    fn concretize<F: Fp>(
        &self,
        device: &Device<Self>,
        lo: &[Itv<F>],
        hi: &[Itv<F>],
        cst_lo: &[Itv<F>],
        cst_hi: &[Itv<F>],
        geom: &ExprGeom<'_>,
        bounds_per_seg: &[&[Itv<F>]],
        out: &mut [Itv<F>],
    );
}

/// The production CPU simulation of the paper's GPU machine model: blocked
/// kernels parallelized across the device worker pool, buffer pooling
/// enabled. The default backend of [`Device`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSimBackend;

impl Backend for CpuSimBackend {
    fn label(&self) -> &'static str {
        "cpusim"
    }

    fn gemm_itv_f<F: Fp>(
        &self,
        device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        m: usize,
        k: usize,
        n: usize,
    ) {
        gemm_itv_rows(device, a, b, c, m, k, n, true);
    }

    fn gemm_itv_f_acc<F: Fp>(
        &self,
        device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        m: usize,
        k: usize,
        n: usize,
    ) {
        gemm_itv_rows(device, a, b, c, m, k, n, false);
    }

    fn gemm_f_f<F: Fp>(
        &self,
        device: &Device<Self>,
        a: &[F],
        b: &[F],
        c: &mut [F],
        m: usize,
        k: usize,
        n: usize,
    ) {
        if n == 0 {
            return;
        }
        if k == 0 {
            c.fill(F::ZERO);
            return;
        }
        par_row_blocks(device, a, c, (m, k, n), |atile, ctile| {
            for (arow, crow) in atile.chunks(k).zip(ctile.chunks_mut(n)) {
                crow.fill(F::ZERO);
                // No zero-skip here, unlike the interval kernels: under
                // round-to-nearest, fma(0, b, -0.0) = +0.0, so skipping a
                // zero term is not a bitwise no-op for plain scalars.
                for (kk, &aik) in arow.iter().enumerate() {
                    for (cv, &bv) in crow.iter_mut().zip(&b[kk * n..(kk + 1) * n]) {
                        *cv = aik.mul_add(bv, *cv);
                    }
                }
            }
        });
    }

    fn exclusive_scan(&self, _device: &Device<Self>, xs: &[u32]) -> (Vec<u32>, u32) {
        serial_scan(xs)
    }

    fn compact_indices(&self, _device: &Device<Self>, keep: &[bool]) -> Vec<u32> {
        serial_compact(keep)
    }

    fn gather_rows<T: Copy + Send + Sync>(
        &self,
        device: &Device<Self>,
        src: &[T],
        row_len: usize,
        index: &[u32],
        dst: &mut [T],
    ) {
        // Each destination row copies from its source row.
        par_stream(
            device,
            dst.par_chunks_mut(row_len.max(1)).zip(index.par_iter()),
            row_len,
            |(row, &i)| {
                row.copy_from_slice(&src[i as usize * row_len..(i as usize + 1) * row_len]);
            },
        );
    }

    fn gbc<F: Fp>(
        &self,
        device: &Device<Self>,
        src: &[Itv<F>],
        src_geom: &ExprGeom<'_>,
        weight: &[F],
        conv: &GbcShape,
        dst: &mut [Itv<F>],
        dst_origins: &[(i32, i32)],
        dst_cols: usize,
        dst_ww: usize,
    ) {
        if dst.is_empty() {
            return;
        }
        // One block of whole rows per worker, like the GEMM family.
        let rows = src_geom.rows().div_ceil(device.workers()).max(1);
        device.install(|| {
            dst.par_chunks_mut(rows * dst_cols)
                .enumerate()
                .for_each(|(t, block)| {
                    gbc_rows(
                        t * rows,
                        src,
                        src_geom,
                        weight,
                        conv,
                        block,
                        dst_origins,
                        dst_cols,
                        dst_ww,
                    )
                })
        });
    }

    fn bias_fold<F: Fp>(
        &self,
        device: &Device<Self>,
        plane: &[Itv<F>],
        geom: &ExprGeom<'_>,
        bias: &[F],
        src_cst: &[Itv<F>],
        out_cst: &mut [Itv<F>],
    ) {
        if out_cst.is_empty() {
            return;
        }
        let cols = geom.cols();
        device.install(|| {
            out_cst.par_iter_mut().enumerate().for_each(|(r, v)| {
                *v = bias_fold_row(r, &plane[r * cols..(r + 1) * cols], geom, bias, src_cst[r])
            })
        });
    }

    fn relu_step<F: Fp>(
        &self,
        device: &Device<Self>,
        plane: &mut [Itv<F>],
        cst: &mut [Itv<F>],
        geom: &ExprGeom<'_>,
        relax_per_seg: &[&[ReluRelax<F>]],
        out_bounds_per_seg: &[&[Itv<F>]],
        upper: bool,
    ) {
        if cst.is_empty() {
            return;
        }
        let cols = geom.cols();
        device.install(|| {
            plane
                .par_chunks_mut(cols.max(1))
                .zip(cst.par_iter_mut())
                .enumerate()
                .for_each(|(r, (row, c))| {
                    let s = geom.seg[r] as usize;
                    relu_step_row(
                        r,
                        row,
                        c,
                        geom,
                        relax_per_seg[s],
                        out_bounds_per_seg[s],
                        upper,
                    )
                })
        });
    }

    fn densify<F: Fp>(
        &self,
        device: &Device<Self>,
        src: &[Itv<F>],
        geom: &ExprGeom<'_>,
        dst: &mut [Itv<F>],
        dst_cols: usize,
    ) {
        if dst.is_empty() {
            return;
        }
        let cols = geom.cols();
        device.install(|| {
            dst.par_chunks_mut(dst_cols)
                .enumerate()
                .for_each(|(r, row)| densify_row(r, &src[r * cols..(r + 1) * cols], geom, row))
        });
    }

    fn residual_merge<F: Fp>(
        &self,
        device: &Device<Self>,
        a: &[Itv<F>],
        a_geom: &ExprGeom<'_>,
        b: &[Itv<F>],
        b_geom: &ExprGeom<'_>,
        dst: &mut [Itv<F>],
        dst_origins: &[(i32, i32)],
        dst_cols: usize,
        dst_ww: usize,
    ) {
        if dst.is_empty() {
            return;
        }
        let (a_cols, b_cols) = (a_geom.cols(), b_geom.cols());
        device.install(|| {
            dst.par_chunks_mut(dst_cols)
                .enumerate()
                .for_each(|(r, row)| {
                    let o = dst_origins[r];
                    merge_add_row(r, &a[r * a_cols..(r + 1) * a_cols], a_geom, row, o, dst_ww);
                    merge_add_row(r, &b[r * b_cols..(r + 1) * b_cols], b_geom, row, o, dst_ww);
                })
        });
    }

    fn concretize<F: Fp>(
        &self,
        device: &Device<Self>,
        lo: &[Itv<F>],
        hi: &[Itv<F>],
        cst_lo: &[Itv<F>],
        cst_hi: &[Itv<F>],
        geom: &ExprGeom<'_>,
        bounds_per_seg: &[&[Itv<F>]],
        out: &mut [Itv<F>],
    ) {
        if out.is_empty() {
            return;
        }
        let cols = geom.cols();
        device.install(|| {
            out.par_iter_mut().enumerate().for_each(|(r, v)| {
                *v = concretize_row(
                    r,
                    &lo[r * cols..(r + 1) * cols],
                    &hi[r * cols..(r + 1) * cols],
                    cst_lo[r],
                    cst_hi[r],
                    geom,
                    bounds_per_seg[geom.seg[r] as usize],
                )
            })
        });
    }
}

/// A deliberately naive backend: straight-line serial scalar loops and no
/// buffer pooling. Slow by design — its value is that every kernel is
/// auditable at a glance, making it the oracle half of cross-backend
/// differential tests. Honors the same bit-reproducibility contract as
/// [`CpuSimBackend`] (ascending-`k` accumulation with the shared
/// accumulation primitives), so engine margins computed on it are
/// bit-identical to the blocked parallel backend's.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferenceBackend;

impl Backend for ReferenceBackend {
    fn label(&self) -> &'static str {
        "reference"
    }

    fn pooling(&self) -> bool {
        false
    }

    fn gemm_itv_f<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = gemm_itv_element(Itv::zero(), &a[i * k..(i + 1) * k], b, n, j);
            }
        }
    }

    fn gemm_itv_f_acc<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = gemm_itv_element(c[i * n + j], &a[i * k..(i + 1) * k], b, n, j);
            }
        }
    }

    fn gemm_f_f<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[F],
        b: &[F],
        c: &mut [F],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = F::ZERO;
                for kk in 0..k {
                    acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
    }

    fn exclusive_scan(&self, _device: &Device<Self>, xs: &[u32]) -> (Vec<u32>, u32) {
        serial_scan(xs)
    }

    fn compact_indices(&self, _device: &Device<Self>, keep: &[bool]) -> Vec<u32> {
        serial_compact(keep)
    }

    fn gather_rows<T: Copy + Send + Sync>(
        &self,
        _device: &Device<Self>,
        src: &[T],
        row_len: usize,
        index: &[u32],
        dst: &mut [T],
    ) {
        for (row, &i) in dst.chunks_mut(row_len.max(1)).zip(index) {
            row.copy_from_slice(&src[i as usize * row_len..(i as usize + 1) * row_len]);
        }
    }

    fn gbc<F: Fp>(
        &self,
        _device: &Device<Self>,
        src: &[Itv<F>],
        src_geom: &ExprGeom<'_>,
        weight: &[F],
        conv: &GbcShape,
        dst: &mut [Itv<F>],
        dst_origins: &[(i32, i32)],
        dst_cols: usize,
        dst_ww: usize,
    ) {
        if dst.is_empty() {
            return;
        }
        gbc_rows(
            0,
            src,
            src_geom,
            weight,
            conv,
            dst,
            dst_origins,
            dst_cols,
            dst_ww,
        );
    }

    fn bias_fold<F: Fp>(
        &self,
        _device: &Device<Self>,
        plane: &[Itv<F>],
        geom: &ExprGeom<'_>,
        bias: &[F],
        src_cst: &[Itv<F>],
        out_cst: &mut [Itv<F>],
    ) {
        let cols = geom.cols();
        for (r, v) in out_cst.iter_mut().enumerate() {
            *v = bias_fold_row(r, &plane[r * cols..(r + 1) * cols], geom, bias, src_cst[r]);
        }
    }

    fn relu_step<F: Fp>(
        &self,
        _device: &Device<Self>,
        plane: &mut [Itv<F>],
        cst: &mut [Itv<F>],
        geom: &ExprGeom<'_>,
        relax_per_seg: &[&[ReluRelax<F>]],
        out_bounds_per_seg: &[&[Itv<F>]],
        upper: bool,
    ) {
        let cols = geom.cols();
        for (r, (row, c)) in plane
            .chunks_mut(cols.max(1))
            .zip(cst.iter_mut())
            .enumerate()
        {
            let s = geom.seg[r] as usize;
            relu_step_row(
                r,
                row,
                c,
                geom,
                relax_per_seg[s],
                out_bounds_per_seg[s],
                upper,
            );
        }
    }

    fn densify<F: Fp>(
        &self,
        _device: &Device<Self>,
        src: &[Itv<F>],
        geom: &ExprGeom<'_>,
        dst: &mut [Itv<F>],
        dst_cols: usize,
    ) {
        if dst.is_empty() {
            return;
        }
        let cols = geom.cols();
        for (r, row) in dst.chunks_mut(dst_cols).enumerate() {
            densify_row(r, &src[r * cols..(r + 1) * cols], geom, row);
        }
    }

    fn residual_merge<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        a_geom: &ExprGeom<'_>,
        b: &[Itv<F>],
        b_geom: &ExprGeom<'_>,
        dst: &mut [Itv<F>],
        dst_origins: &[(i32, i32)],
        dst_cols: usize,
        dst_ww: usize,
    ) {
        if dst.is_empty() {
            return;
        }
        let (a_cols, b_cols) = (a_geom.cols(), b_geom.cols());
        for (r, row) in dst.chunks_mut(dst_cols).enumerate() {
            let o = dst_origins[r];
            merge_add_row(r, &a[r * a_cols..(r + 1) * a_cols], a_geom, row, o, dst_ww);
            merge_add_row(r, &b[r * b_cols..(r + 1) * b_cols], b_geom, row, o, dst_ww);
        }
    }

    fn concretize<F: Fp>(
        &self,
        _device: &Device<Self>,
        lo: &[Itv<F>],
        hi: &[Itv<F>],
        cst_lo: &[Itv<F>],
        cst_hi: &[Itv<F>],
        geom: &ExprGeom<'_>,
        bounds_per_seg: &[&[Itv<F>]],
        out: &mut [Itv<F>],
    ) {
        let cols = geom.cols();
        for (r, v) in out.iter_mut().enumerate() {
            *v = concretize_row(
                r,
                &lo[r * cols..(r + 1) * cols],
                &hi[r * cols..(r + 1) * cols],
                cst_lo[r],
                cst_hi[r],
                geom,
                bounds_per_seg[geom.seg[r] as usize],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan, DeviceConfig};
    use std::sync::{Barrier, Mutex};
    use std::thread::{self, ThreadId};

    /// The thread that ran each item of a two-worker [`par_stream`] section
    /// of `items` items, in item order. `rendezvous` makes every item wait
    /// for a second one, so a section that returns was split across threads.
    fn stream_section_threads(
        items: usize,
        elems_per_item: usize,
        rendezvous: bool,
    ) -> Vec<ThreadId> {
        let dev = Device::new(DeviceConfig::new().workers(2));
        let both = Barrier::new(2);
        let ran = Mutex::new(vec![None; items]);
        par_stream(&dev, (0..items).into_par_iter(), elems_per_item, |i| {
            if rendezvous {
                both.wait();
            }
            ran.lock().unwrap()[i] = Some(thread::current().id());
        });
        let ran = ran.into_inner().unwrap();
        ran.into_iter()
            .map(|id| id.expect("every item ran"))
            .collect()
    }

    #[test]
    fn stream_sections_below_the_grain_stay_on_the_caller_and_larger_ones_use_a_helper() {
        let me = thread::current().id();
        // Just short of two parts' worth: the whole section is ours.
        let below = stream_section_threads(8, STREAM_GRAIN / 4 - 1, false);
        assert!(below.iter().all(|&id| id == me), "{below:?} vs {me:?}");
        // Two parts' worth: the launcher keeps the last, a helper takes the
        // first (the rendezvous would hang if one thread ran both).
        let above = stream_section_threads(2, STREAM_GRAIN, true);
        assert_eq!(above[1], me);
        assert_ne!(above[0], me);
    }

    #[test]
    fn gather_matches_the_reference_on_both_sides_of_the_grain() {
        let reference = Device::reference(DeviceConfig::new());
        for workers in [2, 3] {
            let dev = Device::new(DeviceConfig::new().workers(workers));
            // Gathered rows of 16: one row short of a split, the first
            // split, and an uneven one.
            for rows in [STREAM_GRAIN / 8 - 1, STREAM_GRAIN / 8, STREAM_GRAIN / 3 + 5] {
                let src: Vec<f32> = (0..3 * rows * 16).map(|i| i as f32 * 0.5).collect();
                let index: Vec<u32> = (0..3 * rows as u32).rev().step_by(3).collect();
                assert_eq!(index.len(), rows);
                let mut got = vec![0.0f32; rows * 16];
                let mut want = got.clone();
                scan::gather_rows_into(&dev, &src, 16, &index, &mut got);
                scan::gather_rows_into(&reference, &src, 16, &index, &mut want);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "gather rows={rows} workers={workers}"
                );
            }
        }
    }
}

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
//!   GEMM, each kernel a loop over its rows on the launching thread, buffer
//!   pooling enabled. This is the default backend.
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
//! possible. For the GEMM family — and for GBC, concretize, the bias fold and
//! the ReLU step, which sum the same way (below) — that pins, per output
//! element, the exact sequence of floating-point operations:
//!
//! * **Interval kernels, `f32`** ([`Fp::EXACT_IN_F64`]): the wide
//!   accumulator of [`gpupoly_interval::wide`]. A row of `C` is one *term
//!   list*: the row's coefficients in **ascending `k`**, those that are
//!   exactly zero (`lo == 0 && hi == 0`, either sign of zero) **skipped**
//!   and uncounted. Every output `j` of the row starts from its `C` entry
//!   (zero for the fresh kernel) and adds, per term,
//!   `min(a.lo·w, a.hi·w)` to its lower sum and `max(a.lo·w, a.hi·w)` to its
//!   upper sum, `w = B[k][j]` — products exact in `f64`, sums in
//!   round-to-nearest `f64`, `min`/`max` spelled `p < q ? p : q` and
//!   `p > q ? p : q`. The magnitude sum is taken **once per row**, not per
//!   output: `T` starts at the largest magnitude among the row's `C` entries
//!   (zero for the fresh kernel) and adds `max(|a.lo|, |a.hi|) · wmax[k]` per
//!   term, in the same order, with `wmax[k] = max_j |B[k][j]|` over the
//!   launch's whole `B` row. With `adds` = the list's terms, plus one if that
//!   starting magnitude is non-zero, minus one (never below zero), every
//!   output's sums move outward by the same `e = up(T · adds · 2⁻⁵²)` — with
//!   `e = 0` nothing moves, the sign of a zero included — and are rounded
//!   once, directed, to `f32`. The module docs of [`gpupoly_interval::wide`]
//!   give the rule line by line with its soundness proof; a port reproduces
//!   those lines.
//! * **Fallback rule.** A term list whose `T` is not finite — exactly the
//!   rows with a `±inf` or NaN among their `C` entries, their non-zero
//!   coefficients, or the `B` rows those coefficients meet (`wmax[k] = +inf`
//!   as soon as one `B[k][j]` is `±inf` or NaN; a plain `max` would drop the
//!   NaN) — is recomputed with the per-step chain below, **every output of
//!   the row**; the other rows of the launch are unaffected. Same rule in
//!   every backend; there is no switch.
//! * **Interval kernels, `f64`, and fallback rows**: the per-step directed
//!   chain — ascending `k`, zero coefficients skipped, [`Itv::mul_add_f`]
//!   per term.
//! * **Scalar kernel** (`gemm_f_f`, unsound by design): ascending `k`,
//!   [`Fp::mul_add`] per term, and zero terms are **not** skipped
//!   (`fma(0, b, -0.0)` is `+0.0` under round-to-nearest, so there the skip
//!   would be the divergence).
//!
//! The zero-skip is a requirement rather than an allowance: skipped terms
//! enter neither `adds` nor `T` (so the zeros a dependence-set window holds
//! beside its row's own coefficients, and the all-zero columns a stably-off
//! ReLU leaves, change no bit of the next product),
//! and on the per-step chain accumulating a zero term is not a bitwise no-op
//! when an accumulator bound is `-0.0`. Reassociating is never allowed. A
//! GPU port must therefore use a deterministic fixed-order reduction per
//! output element — the same constraint the paper's cutlass kernels satisfy
//! by construction, since they privatize one output element per thread — and
//! needs no rounding-mode control inside the `k` loop: plain `f64` multiplies
//! and adds (or FMAs, which give the same bits because the products are
//! exact), one `max`-reduction over `B` per launch, one short sum per row,
//! then the four directed operations of the epilogue. Scan, compaction and
//! gather are exact integer/copy operations and must match
//! element-for-element.
//!
//! **Blocking rule.** Cache/register blocking of the GEMM family is allowed
//! — but only over `m` and `n`. [`CpuSimBackend`] walks every row in column
//! blocks whose accumulators stay in registers across the **full `k`
//! extent**. A port may tile `m`/`n`, pack
//! operands, and register-block freely, but must never split, reorder or
//! tree-reduce `k`, nor take `wmax` over less than the launch's `n` columns.
//! [`crate::conformance::check_gemm_blocking`] pins the kernels against the
//! straight-line oracle across block-boundary and remainder shapes.
//!
//! **Live columns.** [`Backend::gemm_itv_f_live`] is `gemm_itv_f` with some
//! outputs not computed: row `r` writes the columns its segment lists live,
//! each the bits `gemm_itv_f` gives it — the row's term list, `T` against
//! `wmax` over the **whole** `B` row, dead columns and their non-finite
//! weights included, and the fallback rule as stated — and exact `[+0, +0]`
//! in every other column. Which columns are dead is the caller's: the
//! verifier lists the outputs over a stably-off ReLU neuron, which the ReLU
//! step would turn into zeros whatever they held. The zeros are skipped by
//! every later kernel, so they change no bit *except* where a dead column's
//! coefficient, had it been computed, would have counted: concretize counts
//! a term whatever its bound, `[0, 0]` included, and the ReLU step counts a
//! hull term (a coefficient straddling zero) of a dead neuron. Such a term
//! adds nothing to either sum or to `T` — the bound is `[0, 0]` — and one to
//! `adds`, so without it `e` is the same or smaller: the candidate, or the
//! constant, is the same or inside. [`CpuSimBackend`] packs each segment's
//! live columns of `B` once per launch and streams a row's term list over
//! them as [`gemm_itv_f`](Backend::gemm_itv_f) streams it over `B`; the
//! provided body computes every column and zeroes the dead ones.
//!
//! **GBC** (the transpose convolution of a conv step) is the same
//! interval×scalar sum with the terms *gathered*, stated in the two layers'
//! own coordinates: window position `(i, j)` of source row `r` stands for
//! position `(y, x) = o_src[r] + (i, j)` of the conv output, window position
//! `(a, b)` of its destination row for position `o_dst[r] + (a, b)` of the
//! conv input, and the term list of a destination position at `(v, u)` is
//! `src[i][j][d]` over the source window positions with
//! `f = v + ph − y·sh ∈ [0, kh)` and `g = u + pw − x·sw ∈ [0, kw)` and all
//! output channels `d`, visited in **ascending `i`, then `j`, then `d`**,
//! exact-zero coefficients skipped and uncounted. The position's `c_in`
//! elements share the list: element `c` starts from exact zero and sums
//! `src[i][j][d] · w[f][g][d][c]`; `T` is taken once per position with
//! `wmax = max_c |w[f][g][d][c]|` (`+inf` if one of them is `±inf` or NaN),
//! `adds` is the list's terms minus one, and all `c_in` elements share the
//! epilogue's `e` — for `f32`; a position whose `T` is not finite (all `c_in`
//! elements of it), and every position for `f64`, is the per-step
//! [`Itv::mul_add_f`] chain from `[0, 0]` over the same terms in the same
//! order. The bound is per position, not per row: a row's positions see
//! different terms, and one `T` for all of them would over-count both `T`
//! and `adds` by the ratio of a row's terms to one position's (50–90× on
//! ConvBig's layers).
//!
//! **Both sets of origins are the caller's**, and both windows lie inside
//! their layers ([`ExprGeom`]): the kernel never assumes
//! `o_dst = o_src · s − p`. A term whose conv-input position no destination
//! window position stands for — it fell into the padding, or the caller
//! stored the window clipped — belongs to no list and vanishes; a destination
//! element no term reaches is written as exact `[+0, +0]`. The kernel defines
//! every element of its destination, which the caller therefore need not
//! zero. No position of either window is *virtual*: `gpupoly-core` clips
//! every window it grows to the layer (its `expr` module says how), nothing
//! in this crate builds one, and the launch wrappers refuse a window that
//! leaves its layer.
//!
//! What the order pins is each destination *element's* sequence of
//! operations. How a backend gets there is free: [`ReferenceBackend`] walks
//! every destination position's list (the gather, as written above);
//! [`CpuSimBackend`] walks every source row once and adds each non-zero term
//! to all the elements it reaches (a scatter, [`GbcScatter`]) — an element
//! receives its terms in the same order either way, because a source position
//! reaches it through one filter tap at most. The `c_in` channels of one
//! position may be blocked like GEMM columns; nothing else about the order is
//! free.
//!
//! **Concretize** evaluates, per row, the lower bound of the lower plane and
//! the upper bound of the upper plane against interval bounds, so its terms
//! are interval×interval: four exact endpoint products `p1 = a.lo·b.lo`,
//! `p2 = a.lo·b.hi`, `p3 = a.hi·b.lo`, `p4 = a.hi·b.hi`. For `f32` the lower
//! sum starts at `cst_lo.lo` and adds `m(m(p1, p2), m(p3, p4))` with
//! `m(p, q) = p < q ? p : q`, the upper sum starts at `cst_hi.hi` and adds the
//! same with `m(p, q) = p > q ? p : q`, each alongside its own magnitude sum
//! `T += max(|a.lo|, |a.hi|) · max(|b.lo|, |b.hi|)` (seeded with the start's
//! magnitude) — window positions in ascending order, channels innermost,
//! each plane skipping (and not counting) its own exact-zero coefficients. With `adds` = that plane's terms, plus one for a non-zero
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
//! Widening a bound to `f64` is exact, so *when* it happens is scheduling,
//! not arithmetic: [`ReferenceBackend`] widens the bound of every term as it
//! meets it, [`CpuSimBackend`] widens a segment's bounds once per launch —
//! for the segments with more than one row in it; a single row would widen
//! exactly what the table holds, and after early termination a fused batch
//! carries segments without rows — and the bias fold does the same with its
//! bias. Neither changes a term list, its order, a skip or a count.
//!
//! **Bias fold** is one interval×scalar output per row over its own term
//! list: the row's non-zero coefficients, window positions ascending
//! (channels innermost), each with `w = bias[t mod |bias|]`, started from the
//! row's constant. The interval rule above applies with `wmax = |w|` — the
//! list has one output — and `T` seeded with the constant's magnitude; a row
//! whose `T` is not finite (a `±inf` or NaN constant, non-zero coefficient,
//! or bias entry such a coefficient meets), and every row for `f64`, is the
//! [`Itv::mul_add_f`] chain from the constant over the same terms.
//!
//! **ReLU step.** Per row, the *terms* are the non-zero coefficients whose
//! neuron's relaxation is not the identity (`alpha = gamma =
//! [1, 1]`, `beta = delta = [0, 0]`, [`ReluRelax::is_identity`]); every other
//! element, and the constant of a row without terms, stays bit for bit. A
//! term `a` of definite sign is a *line* term and substitutes through a
//! `(slope, intercept)` pair — lower plane: `a ≥ 0` takes `(alpha, beta)`,
//! `a ≤ 0` takes `(gamma, delta)`; the upper plane mirrors the choice — and
//! one that straddles zero is a *hull* term. The identity test comes
//! **before** the sign test: a coefficient that straddles zero on an identity
//! neuron is kept as it is (`relu(x) = x` there whatever the coefficient's
//! sign), not turned into a hull term. The **constant** is one two-sided
//! interval×interval sum seeded with the row's constant, over the row as it
//! was before the step, terms ascending: a line term adds
//! `m(m(p1, p2), m(p3, p4))` of `a · intercept` below (`m = min` as above)
//! and the same with `max` above — or nothing, uncounted, when the intercept
//! is exactly zero — and a hull term adds one endpoint of
//! `a · out_bound`, the `max` for the upper plane and the `min` for the
//! lower, to *both* sides; `T += max|a| · max|b|` for either kind, one
//! `adds` and one `e` for both sides, epilogue as above
//! ([`gpupoly_interval::wide::WideSum`]). The **coefficients**: a line term
//! becomes `a · slope` — `[down_F(min), up_F(max)]` of its four exact endpoint
//! products when `a` and the slope are finite, [`Itv::mul`] otherwise — and a
//! hull term exact `[+0, +0]`. If `T` is not finite, and for `f64`, the
//! **whole row** — constant and coefficients — is the per-step chain over the
//! same terms instead: `cst.add(a.mul(intercept))`, `cst.add([v, v])` with
//! `v` that endpoint of `a.mul(out_bound)`, and `a.mul(slope)`.
//!
//! **Resolving the table is scheduling.** Whether an element is a term, and
//! of which kind, is decided by the coefficient and the four intervals of its
//! neuron, by value, as written above; a backend may look at a segment's table
//! once per launch instead of once per element, and skip arithmetic whose
//! result the table already tells — it may not change a term list, its
//! order, `T` or a count by doing so. [`CpuSimBackend`] resolves each side
//! `(slope, intercept)` of each neuron (for the segments with more than one
//! row in the launch, whose tables are finite) to one of three kinds, and
//! these are the only patterns that resolve:
//!
//! * **One** — slope `[1, 1]` and an intercept that is an exact zero (either
//!   sign of zero, the test the zero-skip uses): no term of the constant, and
//!   `a · [1, 1]` narrows to `a` bit for bit, so nothing is computed. A neuron
//!   with two such sides is the identity neuron of the rule.
//! * **Zero** — slope `[+0, +0]` *to the bit* and an exact-zero intercept: no
//!   term of the constant, and the four corner products of a coefficient that
//!   does not straddle zero narrow to `[z, z]` with `z = a.hi · 0`, whose sign
//!   is the coefficient's upper bound's. This is the stable-zero column
//!   guarantee's neuron.
//! * **General** — anything else: another bit pattern of a zero slope
//!   (`[-0, +0]`, `[-0, -0]`: their products carry other signs), a slope a
//!   step wide of one, any slope over a non-zero intercept, and any slope
//!   over a zero intercept (the coefficient is multiplied; the intercept is
//!   still no term, the skip taken as a mask —
//!   [`gpupoly_interval::wide::WideSum::mul_add_if`]). The rule's arithmetic,
//!   over operands widened once.
//!
//! The shortcuts are results of the rule for a coefficient that is finite,
//! ordered and does not strictly straddle zero; a row holding any other
//! coefficient (a hull term, `±inf`, NaN, `lo > hi`) or a non-finite constant,
//! a segment whose relaxations or concrete bounds are not all finite, and
//! every other scalar type take the rule as written, row by row
//! (`relu_step_row`) — as every row does on [`ReferenceBackend`]. An
//! exact-zero coefficient is no term on any kind of side.
//! [`crate::conformance::check_relu_step_sides`] holds a backend to the
//! straight-line oracle on tables built to look resolvable where they are
//! not.
//!
//! Two things about the terms are new with this rule and hold on the chain
//! too, i.e. they changed `f64` results and fallback rows against the
//! per-step chain as it was before the rule (both sound, both no looser):
//! the straddling coefficient on an identity neuron above — it used to become
//! a hull term, zeroed, with an endpoint of `a · out_bound` in the constant
//! — and the skipped zero intercept, which used to be added (a bitwise no-op
//! except for the sign of a zero constant).
//!
//! `residual_merge` is per-step directed arithmetic for every scalar type
//! (see its row function below).
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
//! buffer abstraction is the one remaining structural gap. Nor does the
//! trait overlap anything: a weight-sharded walk gathers a remote layer
//! synchronously, on its own thread, when it reaches it. A GPU port with a
//! copy engine is where a prefetch of the next layer's gather would belong.

use gpupoly_interval::wide::{max_mag, WideAcc, WideBound, WideMag, WideRow, WideSum, WideTerm};
use gpupoly_interval::{round, Fp, Itv};
use std::cell::{OnceCell, RefCell};

use crate::relax::ReluRelax;
use crate::Device;

/// Per-row window geometry of a batched polyhedral expression — the
/// device-side view of `gpupoly_core::ExprBatch`'s layout that the walk-step
/// kernels need: the `win_h × win_w × chans` cuboid window per row, each
/// row's origin in the frontier node's `shape_h × shape_w × chans` extent,
/// and the per-row query-segment index of fused cross-query batches.
///
/// Every window lies **inside** the extent: `0 ≤ origin` and
/// `origin + win ≤ shape` in both dimensions, for every row. A dependence set
/// that reaches into a convolution's padding is stored clipped (and, where a
/// uniform window size leaves room, slid inward over coefficients that are
/// exact zeros) by whoever builds the batch; no kernel tests a position for
/// being real, and the launch wrappers of [`crate::kernels`] refuse a
/// geometry that breaks the rule ([`ExprGeom::assert_in_extent`]). One window
/// row is therefore one contiguous run of `win_w · chans` elements in the
/// window *and* in the frontier.
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

    /// Linear frontier index of window position `(i, j, channel 0)` of row
    /// `r`.
    #[inline(always)]
    pub fn neuron_at(&self, r: usize, i: usize, j: usize) -> usize {
        let (oh, ow) = self.origins[r];
        ((oh as usize + i) * self.shape_w + ow as usize + j) * self.chans
    }

    /// How many rows each of `segments` query segments has. After early
    /// termination filtered a fused batch, some have none.
    ///
    /// # Panics
    ///
    /// Panics when a row's segment index is not below `segments`.
    pub fn seg_rows(&self, segments: usize) -> Vec<usize> {
        let mut rows = vec![0; segments];
        for &s in self.seg {
            rows[s as usize] += 1;
        }
        rows
    }

    /// Checks the rule of the type's docs, once per launch.
    ///
    /// # Panics
    ///
    /// Panics, naming `kernel`, when a row's window leaves the frontier
    /// extent.
    pub fn assert_in_extent(&self, kernel: &str) {
        assert_windows_in_extent(
            kernel,
            self.origins,
            (self.win_h, self.win_w),
            (self.shape_h, self.shape_w),
        );
    }
}

/// Panics, naming `kernel`, unless `0 ≤ origin` and `origin + win ≤ extent`
/// for every origin, in both dimensions.
pub(crate) fn assert_windows_in_extent(
    kernel: &str,
    origins: &[(i32, i32)],
    win: (usize, usize),
    extent: (usize, usize),
) {
    let inside = |o: i32, win: usize, extent: usize| o >= 0 && o as usize + win <= extent;
    for (r, &(oh, ow)) in origins.iter().enumerate() {
        assert!(
            inside(oh, win.0, extent.0) && inside(ow, win.1, extent.1),
            "{kernel}: the {}×{} window of row {r} at ({oh}, {ow}) leaves the {}×{} layer",
            win.0,
            win.1,
            extent.0,
            extent.1
        );
    }
}

/// The convolution geometry of one GBC (transpose-convolution) launch —
/// everything Algorithm 1 needs beyond the source batch geometry.
///
/// The kernel works in the layer's own coordinates: source position `(y, x)`
/// of the conv output reaches, through filter tap `(f, g)`, position
/// `(y·sh − ph + f, x·sw − pw + g)` of the conv input, and lands wherever the
/// **caller's** destination origins put that position in the destination
/// window — nowhere, when it lies outside the window (it is then padding, or
/// a position the caller clipped). What the kernel trusts is the two sets of
/// origins and the padding given here; it never assumes
/// `o_dst = o_src · s − p`.
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
    /// Vertical zero padding (rows added above the conv input).
    pub ph: usize,
    /// Horizontal zero padding.
    pub pw: usize,
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
// Shared per-row kernel bodies. Both backends run these row functions one
// row after the other, so per-row
// arithmetic — and therefore every result bit — is identical by
// construction. The exceptions are CpuSimBackend's: GBC is a scatter there
// and the contract's gather on ReferenceBackend, and the ReLU step,
// concretize and the bias fold run `relu_step_row_by_sides`,
// `concretize_row_widened` and `bias_fold_row_widened` over tables the launch
// made once, with `relu_step_row`, `concretize_row` and `bias_fold_row` — all
// that ReferenceBackend runs — for other scalar types and for the rows those
// hand back. The conformance suite checks each backend against *independent*
// straight-line oracles, so a port that reimplements the rows is held to
// the same bits.
// ---------------------------------------------------------------------------

/// The source positions along one dimension that reach destination-window
/// coordinate `a`, as `(i, f)` pairs — source-window coordinate and filter
/// tap, ascending `i` — given both windows' origins in their layers.
#[inline(always)]
fn reaching(
    a: usize,
    (src_origin, src_win): (i32, usize),
    dst_origin: i32,
    (k, stride, pad): (usize, usize, usize),
) -> impl Iterator<Item = (usize, usize)> {
    // Row (or column) of the zero-padded conv input, and the conv-output
    // rows whose `k` taps cover it.
    let y = dst_origin as usize + a + pad;
    let src_origin = src_origin as usize;
    let first = (y + 1).saturating_sub(k).div_ceil(stride).max(src_origin);
    let end = (y / stride + 1).min(src_origin + src_win);
    (first..end).map(move |sy| (sy - src_origin, y - sy * stride))
}

/// The operands of one GBC launch, and its [`launch_wmax`], indexed by
/// filter tap and output channel `t = (f·kw + g)·c_out + d`.
struct GbcLaunch<'a, F> {
    src: &'a [Itv<F>],
    src_geom: &'a ExprGeom<'a>,
    weight: &'a [F],
    wmax: Vec<f64>,
    conv: &'a GbcShape,
    dst_origins: &'a [(i32, i32)],
    dst_cols: usize,
    dst_ww: usize,
}

impl<'a, F: Fp> GbcLaunch<'a, F> {
    fn new(
        src: &'a [Itv<F>],
        src_geom: &'a ExprGeom<'a>,
        weight: &'a [F],
        conv: &'a GbcShape,
        dst_origins: &'a [(i32, i32)],
        dst_cols: usize,
        dst_ww: usize,
    ) -> Self {
        Self {
            src,
            src_geom,
            weight,
            wmax: launch_wmax(weight, conv.cin),
            conv,
            dst_origins,
            dst_cols,
            dst_ww,
        }
    }

    fn src_row(&self, r: usize) -> &'a [Itv<F>] {
        let cols = self.src_geom.cols();
        &self.src[r * cols..(r + 1) * cols]
    }

    /// Calls `visit(s, t)` for every term of destination window position
    /// `(a, b)` of row `r`, in the contract's order: ascending source
    /// position `i`, then `j`, then output channel `d`. `s` indexes the
    /// source row's coefficient, `t` the filter tap and output channel it
    /// meets (the term's `c_in` weights are the contiguous
    /// `weight[t·c_in..][..c_in]`).
    #[inline(always)]
    fn terms(&self, r: usize, (a, b): (usize, usize), mut visit: impl FnMut(usize, usize)) {
        let (g, conv) = (self.src_geom, self.conv);
        let ((src_h, src_w), (dst_h, dst_w)) = (g.origins[r], self.dst_origins[r]);
        for (i, f) in reaching(a, (src_h, g.win_h), dst_h, (conv.kh, conv.sh, conv.ph)) {
            for (j, tap) in reaching(b, (src_w, g.win_w), dst_w, (conv.kw, conv.sw, conv.pw)) {
                let sbase = (i * g.win_w + j) * conv.cout;
                let tbase = (f * conv.kw + tap) * conv.cout;
                for d in 0..conv.cout {
                    visit(sbase + d, tbase + d);
                }
            }
        }
    }

    /// One destination position by the letter of the contract — the gather:
    /// its `c_in` elements sum the position's term list ([`Self::terms`],
    /// exact-zero coefficients skipped) through the wide rule, one
    /// [`WideMag`] for all of them, for [`Fp::EXACT_IN_F64`]; through the
    /// per-step chain otherwise, and when that magnitude sum is not finite.
    /// All of [`ReferenceBackend`]; on [`CpuSimBackend`] the `f64` path and
    /// the positions [`GbcScatter`] hands back. `list` is scratch.
    fn position(
        &self,
        r: usize,
        at: (usize, usize),
        out: &mut [Itv<F>],
        list: &mut Vec<(WideTerm, usize)>,
    ) {
        let (src_row, weight, cin) = (self.src_row(r), self.weight, self.conv.cin);
        if F::EXACT_IN_F64 {
            list.clear();
            let mut mag = WideMag::new::<F>(&[]);
            self.terms(r, at, |s, t| {
                let term = WideTerm::new(src_row[s]);
                if !term.is_zero() {
                    mag.add(term, self.wmax[t]);
                    list.push((term, t * cin));
                }
            });
            if let Some(e) = mag.finish() {
                for (c, v) in out.iter_mut().enumerate() {
                    let mut acc = WideAcc::<1>::new::<F>(&[]);
                    for &(term, w) in list.iter() {
                        acc.mul_add(term, &[weight[w + c]]);
                    }
                    *v = acc.finish(0, e);
                }
                return;
            }
        }
        out.fill(Itv::zero());
        self.terms(r, at, |s, t| {
            let m = src_row[s];
            if m.lo == F::ZERO && m.hi == F::ZERO {
                return;
            }
            for (v, &wv) in out.iter_mut().zip(&weight[t * cin..]) {
                *v = m.mul_add_f(wv, *v);
            }
        });
    }

    /// The launch's rows into `dst` (whole rows of `dst_cols`), every
    /// position a gather.
    fn gather_rows(&self, dst: &mut [Itv<F>]) {
        let mut list = Vec::new();
        for (r, dst_row) in dst.chunks_mut(self.dst_cols).enumerate() {
            for (pos, out) in dst_row.chunks_mut(self.conv.cin).enumerate() {
                self.position(r, (pos / self.dst_ww, pos % self.dst_ww), out, &mut list);
            }
        }
    }
}

/// The filter taps `f` of one dimension that land inside a destination
/// window of `win` positions when tap 0 lands on window coordinate `first`
/// (which may lie before the window, or past it).
#[inline(always)]
fn taps_inside(first: isize, k: usize, win: usize) -> std::ops::Range<usize> {
    let lo = (-first).clamp(0, k as isize) as usize;
    let hi = (win as isize - first).clamp(lo as isize, k as isize) as usize;
    lo..hi
}

/// One non-zero coefficient of a source window row, and where its filter
/// row lands in a destination window row: on `taps` consecutive positions
/// from column `b`, the first of them through filter tap `t − d·kw`.
#[derive(Copy, Clone)]
struct Landing {
    term: WideTerm,
    b: u32,
    /// `d·kw + first tap`: offset of the run's first weight run in one
    /// filter row of [`GbcScatter::w`], and of its first `wmax`.
    t: u32,
    taps: u32,
}

/// GBC as a scatter, the production kernel of [`CpuSimBackend`] for
/// [`Fp::EXACT_IN_F64`]: a row's coefficients are tested for zero **once**,
/// and every other term is added to all the destination elements it reaches
/// — per filter row `f` its `kw` taps land on consecutive window positions,
/// i.e. on `kw · c_in` consecutive lanes of the row's [`WideRow`], against
/// weights widened and repacked `[f][d][g][c]` once per launch so that those
/// lanes' weights are consecutive too. The loop nest is source row `i`,
/// filter row `f`, then the row's non-zero terms in ascending `(j, d)`: one
/// `(i, f)` pair feeds one destination row, so a destination element
/// receives its terms in the order [`GbcLaunch::terms`] lists them (a source
/// position reaches it through one tap at most, and source rows arrive
/// ascending), its position's [`WideMag`] receives the same terms with the
/// same `wmax`, and the epilogue is the gather's: the same bits, without a
/// zero test or an index computation per (term, destination) pair. A
/// position whose magnitude sum is not finite is recomputed by
/// [`GbcLaunch::position`].
struct GbcScatter<'a, F> {
    launch: &'a GbcLaunch<'a, F>,
    /// `weight` as `f64`, `[f][d][g][c]`.
    w: Vec<f64>,
    /// [`GbcLaunch::wmax`], `[f][d][g]`.
    wmax: Vec<f64>,
}

impl<'a, F: Fp> GbcScatter<'a, F> {
    fn new(launch: &'a GbcLaunch<'a, F>) -> Self {
        let conv = launch.conv;
        let mut w = Vec::with_capacity(launch.weight.len());
        let mut wmax = Vec::with_capacity(launch.wmax.len());
        for f in 0..conv.kh {
            for d in 0..conv.cout {
                for g in 0..conv.kw {
                    let t = (f * conv.kw + g) * conv.cout + d;
                    wmax.push(launch.wmax[t]);
                    let taps = &launch.weight[t * conv.cin..(t + 1) * conv.cin];
                    w.extend(taps.iter().map(|v| v.to_f64()));
                }
            }
        }
        Self { launch, w, wmax }
    }

    /// The launch's rows into `dst` (whole rows of `dst_cols`), one after
    /// the other over one set of row accumulators. Never inlined, so that
    /// its lane loop is a symbol of its own for the disassembly check that
    /// it stays packed.
    #[inline(never)]
    fn rows(&self, dst: &mut [Itv<F>]) {
        let l = self.launch;
        let (conv, g) = (l.conv, l.src_geom);
        let (cin, cout, dst_ww) = (conv.cin, conv.cout, l.dst_ww);
        let dst_wh = l.dst_cols / (dst_ww * cin);
        // One filter row of the repacked weights, and of `wmax`.
        let (w_row, wmax_row) = (cout * conv.kw * cin, cout * conv.kw);
        let (mut sums, mut mags, mut list) = (WideRow::default(), Vec::new(), Vec::new());
        let nowhere = Landing {
            term: WideTerm::new(Itv::<F>::zero()),
            b: 0,
            t: 0,
            taps: 0,
        };
        let mut landings = vec![nowhere; g.win_w * cout];
        for (r, dst_row) in dst.chunks_mut(l.dst_cols).enumerate() {
            sums.reset(l.dst_cols);
            mags.clear();
            mags.resize(dst_wh * dst_ww, WideMag::new::<F>(&[]));
            // Window coordinate of what tap (0, 0) of source position (0, 0)
            // reaches: both origins are the caller's.
            let ((src_h, src_w), (dst_h, dst_w)) = (g.origins[r], l.dst_origins[r]);
            let first_h = src_h as isize * conv.sh as isize - conv.ph as isize - dst_h as isize;
            let first_w = src_w as isize * conv.sw as isize - conv.pw as isize - dst_w as isize;
            for (i, src_row) in l.src_row(r).chunks(g.win_w * cout).enumerate() {
                let a0 = first_h + (i * conv.sh) as isize;
                let fs = taps_inside(a0, conv.kh, dst_wh);
                if fs.is_empty() {
                    continue; // the source row reaches padding only
                }
                // The row's terms, compacted: an exact zero is overwritten
                // by the next coefficient instead of being branched around.
                let mut terms = 0;
                for (j, coeffs) in src_row.chunks(cout).enumerate() {
                    let b0 = first_w + (j * conv.sw) as isize;
                    let gs = taps_inside(b0, conv.kw, dst_ww);
                    if gs.is_empty() {
                        continue;
                    }
                    let (b, taps) = ((b0 + gs.start as isize) as u32, gs.len() as u32);
                    for (d, &m) in coeffs.iter().enumerate() {
                        let term = WideTerm::new(m);
                        let t = (d * conv.kw + gs.start) as u32;
                        landings[terms] = Landing { term, b, t, taps };
                        terms += usize::from(!term.is_zero());
                    }
                }
                for f in fs {
                    let at = (a0 + f as isize) as usize * dst_ww;
                    let mags = &mut mags[at..at + dst_ww];
                    let w = &self.w[f * w_row..(f + 1) * w_row];
                    let wmax = &self.wmax[f * wmax_row..(f + 1) * wmax_row];
                    for landing in &landings[..terms] {
                        let (b, t, taps) = (
                            landing.b as usize,
                            landing.t as usize,
                            landing.taps as usize,
                        );
                        for (mag, &wmax) in mags[b..b + taps].iter_mut().zip(&wmax[t..t + taps]) {
                            mag.add(landing.term, wmax);
                        }
                        sums.mul_add((at + b) * cin, landing.term, &w[t * cin..(t + taps) * cin]);
                    }
                }
            }
            for (pos, (out, mag)) in dst_row.chunks_mut(cin).zip(&mags).enumerate() {
                match mag.finish() {
                    Some(e) => sums.finish(pos * cin, e, out),
                    // A non-finite operand: the whole position, on the chain.
                    None => l.position(r, (pos / dst_ww, pos % dst_ww), out, &mut list),
                }
            }
        }
    }
}

/// Calls `visit(a, b)` for every term of a row's bias fold: its non-zero
/// coefficients `a`, ascending, each with its bias entry
/// `b = bias[t mod |bias|]`.
#[inline(always)]
fn bias_terms<F: Fp, W: Copy>(row: &[Itv<F>], bias: &[W], mut visit: impl FnMut(Itv<F>, W)) {
    let mut t = 0;
    for &a in row {
        if !(a.lo == F::ZERO && a.hi == F::ZERO) {
            visit(a, bias[t]);
        }
        t += 1;
        if t == bias.len() {
            t = 0;
        }
    }
}

/// One row of the bias fold: `cst' = cst + Σ a_t · bias[t mod |bias|]` over
/// [`bias_terms`] — one output over its own term list: the wide rule seeded
/// with `cst` for [`Fp::EXACT_IN_F64`], the per-step chain otherwise and
/// when an operand is not finite. Exact-zero coefficients are skipped on
/// both (mandatory, like the GEMM zero-skip).
#[inline]
fn bias_fold_row<F: Fp>(row: &[Itv<F>], bias: &[F], cst: Itv<F>) -> Itv<F> {
    if F::EXACT_IN_F64 {
        let mut mag = WideMag::new(&[cst]);
        let mut acc = WideAcc::<1>::new(&[cst]);
        bias_terms(row, bias, |a, b| {
            let a = WideTerm::new(a);
            mag.add(a, b.to_f64().abs()); // one weight: its own bound
            acc.mul_add(a, &[b]);
        });
        if let Some(e) = mag.finish() {
            return acc.finish(0, e);
        }
    }
    let mut acc = cst;
    bias_terms(row, bias, |a, b| acc = a.mul_add_f(b, acc));
    acc
}

/// [`bias_fold_row`]'s wide rule over a bias the launch widened once, for
/// [`Fp::EXACT_IN_F64`]; `None` when an operand is not finite and the row is
/// [`bias_fold_row`]'s.
#[inline]
fn bias_fold_row_widened<F: Fp>(row: &[Itv<F>], bias: &[f64], cst: Itv<F>) -> Option<Itv<F>> {
    let mut mag = WideMag::new(&[cst]);
    let mut acc = WideAcc::<1>::new(&[cst]);
    bias_terms(row, bias, |a, b| {
        let a = WideTerm::new(a);
        mag.add(a, b.abs());
        acc.mul_add_wide(a, &[b]);
    });
    mag.finish().map(|e| acc.finish(0, e))
}

/// What the ReLU step does with one coefficient.
enum ReluTerm<F> {
    /// Not a term of the step: an exact-zero coefficient, or a neuron whose
    /// relaxation is the identity ([`ReluRelax::is_identity`]). Coefficient
    /// and constant stay as they are.
    Keep,
    /// A coefficient of definite sign: it is multiplied by the slope, and
    /// its product with the intercept joins the constant.
    Line(Itv<F>, Itv<F>),
    /// A coefficient that straddles zero: it becomes exact zero, and the
    /// endpoint of its product with the neuron's concrete bound that faces
    /// the plane joins the constant.
    Hull,
}

/// Classifies coefficient `a` of the plane selected by `upper` against its
/// neuron's relaxation. Lower plane: `a ≥ 0` takes `(alpha, beta)`, `a ≤ 0`
/// takes `(gamma, delta)`; the upper plane mirrors the choice.
#[inline(always)]
fn relu_term<F: Fp>(a: Itv<F>, rx: &ReluRelax<F>, upper: bool) -> ReluTerm<F> {
    if (a.lo == F::ZERO && a.hi == F::ZERO) || rx.is_identity() {
        ReluTerm::Keep
    } else if a.lo >= F::ZERO {
        if upper {
            ReluTerm::Line(rx.gamma, rx.delta)
        } else {
            ReluTerm::Line(rx.alpha, rx.beta)
        }
    } else if a.hi <= F::ZERO {
        if upper {
            ReluTerm::Line(rx.alpha, rx.beta)
        } else {
            ReluTerm::Line(rx.gamma, rx.delta)
        }
    } else {
        ReluTerm::Hull
    }
}

/// Calls `visit(at, n)` for every element of row `r`, ascending: its offset
/// in the row and its frontier neuron.
#[inline(always)]
fn window_elements(r: usize, geom: &ExprGeom<'_>, mut visit: impl FnMut(usize, usize)) {
    for (base, nbase) in window_rows(r, geom) {
        for k in 0..geom.win_w * geom.chans {
            visit(base + k, nbase + k);
        }
    }
}

/// One row of the ReLU substitution step (DeepPoly diagonal substitution);
/// `upper` selects the mirrored coefficient choice of the upper plane. The
/// row's terms are its [`ReluTerm::Line`] and [`ReluTerm::Hull`] elements, in
/// ascending window order; one pass classifies each element once and deals
/// with both of its products.
///
/// To the constant a line term adds `a · intercept` — nothing, and
/// uncounted, when the intercept is exactly zero — and a hull term the
/// endpoint of `a · out_bound` facing the plane (the upper one for `upper`)
/// as a point. The coefficient of a line term becomes `a · slope`, that of a
/// hull term exact zero. For [`Fp::EXACT_IN_F64`] the constant is one
/// [`WideSum`] seeded with `cst`, and `a · slope` the exact endpoint
/// products narrowed once, directed (for a finite `a` and slope; [`Itv::mul`]
/// otherwise). When an operand of that sum turns out not to be finite the
/// row is put back as it was — from a copy that is only taken when
/// `tables_finite` (every relaxation and concrete bound of the row's segment
/// is finite, which [`ReluSides::resolve`] establishes) and the row's own
/// finiteness do not rule the case out — and goes through the per-step chain
/// like every row of other scalar types: `cst.add(a.mul(intercept))`,
/// `cst.add([v, v])` with `v` the endpoint of `a.mul(out_bound)`, and
/// `a.mul(slope)`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn relu_step_row<F: Fp>(
    r: usize,
    row: &mut [Itv<F>],
    cst: &mut Itv<F>,
    geom: &ExprGeom<'_>,
    relax: &[ReluRelax<F>],
    out_bounds: &[Itv<F>],
    upper: bool,
    tables_finite: bool,
) {
    let is_zero = |v: Itv<F>| v.lo == F::ZERO && v.hi == F::ZERO;
    if F::EXACT_IN_F64 {
        let surely_finite = tables_finite && cst.is_finite() && row.iter().all(Itv::is_finite);
        let saved = (!surely_finite).then(|| row.to_vec());
        let mut sum = WideSum::new(*cst);
        window_elements(r, geom, |at, n| {
            let a = WideTerm::new(row[at]);
            match relu_term(row[at], &relax[n], upper) {
                ReluTerm::Keep => {}
                ReluTerm::Hull => {
                    sum.add_endpoint(a, WideTerm::new(out_bounds[n]), upper);
                    row[at] = Itv::zero();
                }
                ReluTerm::Line(slope, icpt) => {
                    if !is_zero(icpt) {
                        sum.mul_add(a, WideTerm::new(icpt));
                    }
                    let s = WideTerm::new(slope);
                    row[at] = if a.is_finite() && s.is_finite() {
                        let (lo, hi) = a.product(s);
                        Itv {
                            lo: round::from_f64_down(lo),
                            hi: round::from_f64_up(hi),
                        }
                    } else {
                        row[at].mul(slope)
                    };
                }
            }
        });
        match sum.finish() {
            Some(sum) => {
                *cst = sum;
                return;
            }
            None => row.copy_from_slice(&saved.expect("finite operands sum to a finite bound")),
        }
    }
    window_elements(r, geom, |at, n| {
        let a = row[at];
        match relu_term(a, &relax[n], upper) {
            ReluTerm::Keep => {}
            ReluTerm::Hull => {
                let hull = a.mul(out_bounds[n]);
                *cst = cst.add(Itv::point(if upper { hull.hi } else { hull.lo }));
                row[at] = Itv::zero();
            }
            ReluTerm::Line(slope, icpt) => {
                if !is_zero(icpt) {
                    *cst = cst.add(a.mul(icpt));
                }
                row[at] = a.mul(slope);
            }
        }
    });
}

/// What a launch works out once for the rows of one query segment: a table
/// per segment, `make(s)`, made by the first row of the segment that asks —
/// and only for a segment with more than one row in the launch: a segment
/// without rows never asks, and the table of a segment with one row is
/// exactly what that row would compute itself. A row whose segment has no
/// table takes the row function that reads the caller's tables — the same
/// bits.
struct SegTables<T, M> {
    rows: Vec<usize>,
    tables: Vec<OnceCell<Option<T>>>,
    make: M,
}

impl<T, M: Fn(usize) -> Option<T>> SegTables<T, M> {
    fn new(geom: &ExprGeom<'_>, segments: usize, make: M) -> Self {
        Self {
            rows: geom.seg_rows(segments),
            tables: (0..segments).map(|_| OnceCell::new()).collect(),
            make,
        }
    }

    /// Segment `s`'s table, if it has one.
    fn of(&self, s: usize) -> Option<&T> {
        if self.rows[s] < 2 {
            return None;
        }
        self.tables[s].get_or_init(|| (self.make)(s)).as_ref()
    }
}

/// One side of a neuron's relaxation — the `(slope, intercept)` pair
/// `(alpha, beta)` or `(gamma, delta)` — as the ReLU step meets it, resolved
/// **by value** once per launch. The kinds are scheduling: each does what
/// [`relu_step_row`] does with such a pair, minus the arithmetic whose result
/// is known beforehand.
#[derive(Copy, Clone)]
enum Side {
    /// Slope `[1, 1]`, intercept an exact zero: `a · [1, 1]` narrows to `a`
    /// and a zero intercept is no term, so coefficient and constant stay.
    One,
    /// Slope `[+0, +0]` to the bit, intercept an exact zero: no term of the
    /// constant either, and the four corner products of a coefficient that
    /// does not straddle zero are all `a.hi · 0` or narrow to it.
    Zero,
    /// Anything else, any other bit pattern of a zero slope included: the
    /// step's arithmetic over this entry of [`ReluSides::lines`].
    General(u32),
}

/// The operands of a [`Side::General`], widened once. `take` is the
/// intercept's zero-skip, decided once: `false` for an exact-zero intercept,
/// which is no term of the constant.
struct Line {
    slope: WideTerm,
    icpt: WideTerm,
    take: bool,
}

/// One segment's relaxation table resolved for a ReLU-step launch: the
/// neurons with a side that is not [`Side::One`] — every neuron but those
/// [`ReluRelax::is_identity`] passes by — and where a run of the frontier
/// finds them.
struct ReluSides {
    /// `(neuron, [(alpha, beta), (gamma, delta)])`, ascending.
    listed: Vec<(u32, [Side; 2])>,
    /// `first[n]`: the listed neurons below `n`, for `n` up to the frontier's
    /// length inclusive.
    first: Vec<u32>,
    lines: Vec<Line>,
}

impl ReluSides {
    /// The one place a side is resolved.
    fn side<F: Fp>(&mut self, slope: Itv<F>, icpt: Itv<F>) -> Side {
        let is = |v: Itv<F>, x: F| v.lo == x && v.hi == x;
        let no_icpt = is(icpt, F::ZERO);
        let plus_zero = F::ZERO.bits();
        if no_icpt && is(slope, F::ONE) {
            Side::One
        } else if no_icpt && slope.lo.bits() == plus_zero && slope.hi.bits() == plus_zero {
            Side::Zero
        } else {
            self.lines.push(Line {
                slope: WideTerm::new(slope),
                icpt: WideTerm::new(icpt),
                take: !no_icpt,
            });
            Side::General(self.lines.len() as u32 - 1)
        }
    }

    /// Resolves a segment's table, or `None` when one of its relaxations or
    /// concrete bounds is not finite: a row of finite coefficients over a
    /// resolved table has a finite magnitude sum, and [`relu_step_row`] need
    /// not keep the copy it would fall back from.
    fn resolve<F: Fp>(relax: &[ReluRelax<F>], out_bounds: &[Itv<F>]) -> Option<Self> {
        // `x · 0` is a zero for a finite `x` and NaN for any other: one sum
        // over the tables instead of a test per value.
        let poison = |v: Itv<F>| v.lo * F::ZERO + v.hi * F::ZERO;
        let mut poisoned = out_bounds.iter().fold(F::ZERO, |p, &b| p + poison(b));
        let mut sides = Self {
            listed: Vec::with_capacity(relax.len()),
            first: Vec::with_capacity(relax.len() + 1),
            lines: Vec::new(),
        };
        for (n, rx) in relax.iter().enumerate() {
            poisoned +=
                (poison(rx.alpha) + poison(rx.beta)) + (poison(rx.gamma) + poison(rx.delta));
            sides.first.push(sides.listed.len() as u32);
            let pair = [
                sides.side(rx.alpha, rx.beta),
                sides.side(rx.gamma, rx.delta),
            ];
            if !matches!(pair, [Side::One, Side::One]) {
                sides.listed.push((n as u32, pair));
            }
        }
        sides.first.push(sides.listed.len() as u32);
        (poisoned == F::ZERO).then_some(sides)
    }

    /// The listed neurons among the `run` from `n0`, ascending.
    #[inline(always)]
    fn among(&self, n0: usize, run: usize) -> &[(u32, [Side; 2])] {
        &self.listed[self.first[n0] as usize..self.first[n0 + run] as usize]
    }
}

/// One row of the ReLU step over a resolved table, for [`Fp::EXACT_IN_F64`]:
/// `true` when the row was stepped, `false` — row and constant untouched —
/// when it is [`relu_step_row`]'s. One pass decides: a row whose constant and
/// coefficients are finite, ordered (`lo ≤ hi`) and none of them strictly
/// straddling zero has no hull term and, over a finite table, a finite
/// magnitude sum, so nothing to fall back from. Such a row visits its listed
/// neurons only, in ascending window order — the order of its terms — and
/// each through the side its sign selects: the same term list, `T`, count and
/// epilogue as [`relu_step_row`], element for element. Never inlined, so
/// that the disassembly check on its masked add finds it by name.
#[inline(never)]
fn relu_step_row_by_sides<F: Fp>(
    r: usize,
    row: &mut [Itv<F>],
    cst: &mut Itv<F>,
    geom: &ExprGeom<'_>,
    sides: &ReluSides,
    upper: bool,
) -> bool {
    let plain = |a: &Itv<F>| {
        a.lo.is_finite()
            & a.hi.is_finite()
            & (a.lo <= a.hi)
            & !((a.lo < F::ZERO) & (a.hi > F::ZERO))
    };
    if !(cst.is_finite() && row.iter().fold(true, |all, a| all & plain(a))) {
        return false;
    }
    let run = geom.win_w * geom.chans;
    let mut sum = WideSum::new(*cst);
    for (base, nbase) in window_rows(r, geom) {
        for &(n, pair) in sides.among(nbase, run) {
            let at = base + (n as usize - nbase);
            let a = row[at];
            if a.lo == F::ZERO && a.hi == F::ZERO {
                continue;
            }
            // Lower plane: `a ≥ 0` takes `(alpha, beta)`, `a ≤ 0` takes
            // `(gamma, delta)`; the upper plane mirrors the choice.
            match pair[usize::from((a.lo >= F::ZERO) == upper)] {
                Side::One => {}
                Side::Zero => {
                    let z = a.hi * F::ZERO;
                    row[at] = Itv { lo: z, hi: z };
                }
                Side::General(line) => {
                    let (a, line) = (WideTerm::new(a), &sides.lines[line as usize]);
                    sum.mul_add_if(line.take, a, line.icpt);
                    let (lo, hi) = a.product(line.slope);
                    row[at] = Itv {
                        lo: round::from_f64_down(lo),
                        hi: round::from_f64_up(hi),
                    };
                }
            }
        }
    }
    *cst = sum.finish().expect("finite operands sum to a finite bound");
    true
}

/// One row of the densify scatter: copy each row of the cuboid window into
/// its linear frontier slots of a full-window row (assumed zeroed).
#[inline]
fn densify_row<F: Fp>(r: usize, src_row: &[Itv<F>], geom: &ExprGeom<'_>, dst_row: &mut [Itv<F>]) {
    let run = geom.win_w * geom.chans;
    for (base, nbase) in window_rows(r, geom) {
        dst_row[nbase..nbase + run].copy_from_slice(&src_row[base..base + run]);
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

/// `(window offset, frontier index)` of the first element of every window
/// row of row `r`, ascending. Windows lie inside the frontier extent
/// ([`ExprGeom`]), so each is the start of a run of `win_w · chans` elements
/// that is contiguous on both sides.
#[inline(always)]
fn window_rows<'a>(r: usize, geom: &'a ExprGeom<'_>) -> impl Iterator<Item = (usize, usize)> + 'a {
    let run = geom.win_w * geom.chans;
    (0..geom.win_h).map(move |i| (i * run, geom.neuron_at(r, i, 0)))
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
    let is_zero = |a: Itv<F>| a.lo == F::ZERO && a.hi == F::ZERO;
    let run = geom.win_w * geom.chans;
    if F::EXACT_IN_F64 {
        let mut lo = WideBound::<false>::new(cst_lo.lo);
        let mut hi = WideBound::<true>::new(cst_hi.hi);
        for (base, nbase) in window_rows(r, geom) {
            for c in 0..run {
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
    for (base, nbase) in window_rows(r, geom) {
        for c in 0..run {
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

/// [`concretize_row`]'s wide rule over bounds the launch widened once per
/// segment, for [`Fp::EXACT_IN_F64`]; `None` when either magnitude sum is not
/// finite and the row is [`concretize_row`]'s.
#[inline]
fn concretize_row_widened<F: Fp>(
    r: usize,
    lo_row: &[Itv<F>],
    hi_row: &[Itv<F>],
    cst_lo: Itv<F>,
    cst_hi: Itv<F>,
    geom: &ExprGeom<'_>,
    bounds: &[WideTerm],
) -> Option<Itv<F>> {
    let is_zero = |a: Itv<F>| a.lo == F::ZERO && a.hi == F::ZERO;
    let run = geom.win_w * geom.chans;
    let mut lo = WideBound::<false>::new(cst_lo.lo);
    let mut hi = WideBound::<true>::new(cst_hi.hi);
    for (base, nbase) in window_rows(r, geom) {
        let rows = lo_row[base..base + run]
            .iter()
            .zip(&hi_row[base..base + run]);
        for ((&a_lo, &a_hi), &b) in rows.zip(&bounds[nbase..nbase + run]) {
            if is_zero(a_lo) && is_zero(a_hi) {
                continue;
            }
            if !is_zero(a_lo) {
                lo.mul_add(WideTerm::new(a_lo), b);
            }
            if !is_zero(a_hi) {
                hi.mul_add(WideTerm::new(a_hi), b);
            }
        }
    }
    let (lo, hi) = (lo.finish::<F>()?, hi.finish::<F>()?);
    Some(Itv { lo, hi: hi.max(lo) })
}

/// `wmax` of a launch for scalar types with [`Fp::EXACT_IN_F64`] (empty
/// otherwise): per run of `n` weights that multiply one term — a row of `B`
/// for the GEMM, the `c_in` weights of one filter tap and output channel for
/// GBC — the largest magnitude among them, i.e. what the term is multiplied
/// by at most, whichever of the outputs sharing it sums it. Taken once per
/// launch.
fn launch_wmax<F: Fp>(weights: &[F], n: usize) -> Vec<f64> {
    if !F::EXACT_IN_F64 {
        return Vec::new();
    }
    weights.chunks(n).map(max_mag).collect()
}

/// One row of the interval GEMM family: the module-level contract in
/// straight-line form, which is how [`ReferenceBackend`] computes every row.
/// `fresh` starts from zero instead of reading `C`.
fn gemm_itv_row<F: Fp>(arow: &[Itv<F>], b: &[F], wmax: &[f64], crow: &mut [Itv<F>], fresh: bool) {
    let n = crow.len();
    // Mandatory zero-skip — see the module contract.
    let terms = || {
        arow.iter()
            .enumerate()
            .filter(|(_, aik)| !(aik.lo == F::ZERO && aik.hi == F::ZERO))
    };
    if F::EXACT_IN_F64 {
        let init: &[Itv<F>] = if fresh { &[] } else { crow };
        let mut mag = WideMag::new(init);
        for (kk, &aik) in terms() {
            mag.add(WideTerm::new(aik), wmax[kk]);
        }
        if let Some(e) = mag.finish() {
            for (j, cv) in crow.iter_mut().enumerate() {
                let init: &[Itv<F>] = if fresh { &[] } else { &[*cv] };
                let mut acc = WideAcc::<1>::new(init);
                for (kk, &aik) in terms() {
                    acc.mul_add(WideTerm::new(aik), &[b[kk * n + j]]);
                }
                *cv = acc.finish(0, e);
            }
            return;
        }
    }
    chain_itv_rows(arow, b, crow, arow.len(), n, fresh);
}

/// The interval GEMM family of [`ReferenceBackend`]: [`gemm_itv_row`], one
/// row of `C` after the other.
fn reference_gemm_itv<F: Fp>(
    a: &[Itv<F>],
    b: &[F],
    c: &mut [Itv<F>],
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
    let wmax = launch_wmax(b, n);
    for (arow, crow) in a.chunks(k).zip(c.chunks_mut(n)) {
        gemm_itv_row(arow, b, &wmax, crow, fresh);
    }
}

/// Outputs per register block of the wide GEMM kernel: one row of `C` times
/// this many columns in [`wide_itv_rows`], accumulating in registers over
/// all of the row's terms. Fixed, not configurable: four lanes keep the
/// block's accumulators in baseline x86-64's sixteen vector registers, and a
/// sweep of wider blocks and multi-row micro-kernels found none more than
/// 10 % ahead.
const LANES: usize = 4;

/// The rows of an interval product for scalar types with
/// [`Fp::EXACT_IN_F64`]. Each row's non-zero coefficients are widened once
/// into a term list (so the zero-skip, the `f32`→`f64` conversions and the
/// row's magnitude sum leave the hot loop); then every [`LANES`]-wide column
/// block streams that list in ascending `k`. Per output element this is the
/// operation sequence of [`gemm_itv_row`] — blocking covers `m`/`n` only —
/// so the bits are the same. `fresh` starts from zero instead of reading `C`.
fn wide_itv_rows<F: Fp>(
    atile: &[Itv<F>],
    b: &[F],
    wmax: &[f64],
    ctile: &mut [Itv<F>],
    k: usize,
    n: usize,
    fresh: bool,
) {
    let mut terms: Vec<(usize, WideTerm)> = Vec::with_capacity(k);
    for (arow, crow) in atile.chunks(k).zip(ctile.chunks_mut(n)) {
        terms.clear();
        let mut mag = WideMag::new(if fresh { &[] } else { &crow[..] });
        for (kk, &aik) in arow.iter().enumerate() {
            let term = WideTerm::new(aik);
            if !term.is_zero() {
                mag.add(term, wmax[kk]);
                terms.push((kk * n, term));
            }
        }
        let Some(e) = mag.finish() else {
            // A non-finite operand somewhere in the row: all of it.
            chain_itv_rows(arow, b, crow, k, n, fresh);
            continue;
        };
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
            for (jj, cv) in crow[j0..j0 + nr].iter_mut().enumerate() {
                *cv = acc.finish(jj, e);
            }
        }
    }
}

/// The per-step chain over rows of an interval product, streamed row-wise
/// over `B`: the interval GEMM of `f64`, and of the rows the wide rule hands
/// back — per output element ascending `k`, zero coefficients skipped,
/// [`Itv::mul_add_f`] per term.
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

/// The operands of one [`Backend::gemm_itv_f_live`] launch on
/// [`CpuSimBackend`]: the launch's `B` (`k×n`); per segment, which rows of
/// `B` a term of one of its rows meets (`used`: a row of `B` that no term
/// meets is never read); the whole-row `wmax` of the rows some segment uses;
/// and per segment — made by the first row of the segment that needs them,
/// once per launch — its live columns of its used rows, widened to `f64` and
/// packed `k×live`, so that a row streams its term list over them as
/// [`wide_itv_rows`] streams it over `B`, without a conversion in the lane
/// loop.
struct LiveGemm<'a, F> {
    b: &'a [F],
    k: usize,
    n: usize,
    used: Vec<Vec<bool>>,
    wmax: Vec<f64>,
    live_per_seg: &'a [&'a [u32]],
    packed: Vec<OnceCell<Vec<f64>>>,
}

/// Packed columns a launch is done with, kept by the thread that ran it for
/// the next launch to pack into (at most [`PACKED_KEPT`]). A launch packs
/// tens of kilobytes per segment; allocated and freed afresh each time, that
/// memory goes back to the system at the end of one launch and is faulted in
/// again by the next — measured slower than the arithmetic it saves on a
/// launch of sixteen segments.
const PACKED_KEPT: usize = 16;

thread_local! {
    static PACKED: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

impl<F> Drop for LiveGemm<'_, F> {
    fn drop(&mut self) {
        PACKED.with(|kept| {
            let mut kept = kept.borrow_mut();
            let room = PACKED_KEPT.saturating_sub(kept.len());
            kept.extend(self.packed.iter_mut().filter_map(OnceCell::take).take(room));
        });
    }
}

impl<'a, F: Fp> LiveGemm<'a, F> {
    fn new(
        a: &[Itv<F>],
        b: &'a [F],
        (k, n): (usize, usize),
        seg: &[u32],
        live_per_seg: &'a [&'a [u32]],
    ) -> Self {
        let mut used = vec![Vec::new(); live_per_seg.len()];
        for (arow, &s) in a.chunks(k).zip(seg) {
            let used = &mut used[s as usize];
            used.resize(k, false);
            for (u, a) in used.iter_mut().zip(arow) {
                *u |= !(a.lo == F::ZERO && a.hi == F::ZERO);
            }
        }
        // `launch_wmax`, row by row, for the rows a term meets.
        let wmax = match F::EXACT_IN_F64 {
            true => b
                .chunks(n)
                .enumerate()
                .map(
                    |(kk, brow)| match used.iter().any(|u| u.get(kk) == Some(&true)) {
                        true => max_mag(brow),
                        false => 0.0,
                    },
                )
                .collect(),
            false => Vec::new(),
        };
        Self {
            b,
            k,
            n,
            used,
            wmax,
            live_per_seg,
            packed: live_per_seg.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// Segment `s`'s live columns of `B`, widened and packed. `s` has a row
    /// and a live column. The rows of `B` its terms do not meet are left as
    /// the kept buffer had them: nothing reads them.
    fn columns(&self, s: usize) -> &[f64] {
        self.packed[s].get_or_init(|| {
            let live = self.live_per_seg[s];
            let mut packed = PACKED
                .with(|kept| kept.borrow_mut().pop())
                .unwrap_or_default();
            packed.resize(self.k * live.len(), 0.0);
            let rows = packed
                .chunks_exact_mut(live.len())
                .zip(self.b.chunks_exact(self.n))
                .zip(&self.used[s]);
            for ((dst, brow), _) in rows.filter(|(_, &u)| u) {
                for (d, &j) in dst.iter_mut().zip(live) {
                    *d = brow[j as usize].to_f64();
                }
            }
            packed
        })
    }

    /// The launch's rows, row `i` of `atile` in segment `seg[i]`: each
    /// writes its segment's live columns as [`gemm_itv_rows`] writes them —
    /// the wide rule against the whole-row `wmax` (the same term list, `T`
    /// and lane operations: [`WideAcc::mul_add_wide`] is
    /// [`WideAcc::mul_add`] over weights widened beforehand), or the
    /// per-step chain for other scalar types and rows with a non-finite
    /// operand — and every other column as an exact zero. Never inlined, so
    /// that its lane loop is a symbol of its own for the disassembly check
    /// that it stays packed.
    #[inline(never)]
    fn rows(&self, seg: &[u32], atile: &[Itv<F>], ctile: &mut [Itv<F>]) {
        let (k, n) = (self.k, self.n);
        let mut terms: Vec<(usize, WideTerm)> = Vec::with_capacity(k);
        for ((arow, crow), &s) in atile.chunks(k).zip(ctile.chunks_mut(n)).zip(seg) {
            crow.fill(Itv::zero());
            let live = self.live_per_seg[s as usize];
            if live.is_empty() {
                continue;
            }
            if F::EXACT_IN_F64 {
                let cols = live.len();
                terms.clear();
                let mut mag = WideMag::new::<F>(&[]);
                for (kk, &aik) in arow.iter().enumerate() {
                    let term = WideTerm::new(aik);
                    if !term.is_zero() {
                        mag.add(term, self.wmax[kk]);
                        terms.push((kk * cols, term));
                    }
                }
                if let Some(e) = mag.finish() {
                    let b = self.columns(s as usize);
                    for (j0, out) in (0..cols).step_by(LANES).zip(live.chunks(LANES)) {
                        let mut acc = WideAcc::<LANES>::new::<F>(&[]);
                        if out.len() == LANES {
                            for &(off, term) in &terms {
                                let w = &b[off + j0..off + j0 + LANES];
                                acc.mul_add_wide(term, w.try_into().expect("a full lane block"));
                            }
                        } else {
                            // Remainder columns: unused lanes multiply by zero.
                            let mut w = [0.0; LANES];
                            for &(off, term) in &terms {
                                w[..out.len()].copy_from_slice(&b[off + j0..][..out.len()]);
                                acc.mul_add_wide(term, &w);
                            }
                        }
                        for (jj, &j) in out.iter().enumerate() {
                            crow[j as usize] = acc.finish(jj, e);
                        }
                    }
                    continue;
                }
            }
            // The per-step chain from zero, ascending `k`, zero coefficients
            // skipped: `chain_itv_rows` over the live columns.
            for (kk, &aik) in arow.iter().enumerate() {
                if aik.lo == F::ZERO && aik.hi == F::ZERO {
                    continue;
                }
                let brow = &self.b[kk * n..(kk + 1) * n];
                for &j in live {
                    let j = j as usize;
                    crow[j] = aik.mul_add_f(brow[j], crow[j]);
                }
            }
        }
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

/// The CPU-sim interval GEMM family: the rows of `C` one after the other.
fn gemm_itv_rows<F: Fp>(a: &[Itv<F>], b: &[F], c: &mut [Itv<F>], k: usize, n: usize, fresh: bool) {
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
    if F::EXACT_IN_F64 {
        wide_itv_rows(a, b, &launch_wmax(b, n), c, k, n, fresh)
    } else {
        chain_itv_rows(a, b, c, k, n, fresh)
    }
}

/// The kernel surface a device implementation must provide.
///
/// The GEMM methods take eight arguments (device, three matrices, three
/// dimensions) mirroring the BLAS signature; the lint for that is allowed
/// once here rather than reshaping a conventional kernel interface.
///
/// Methods receive the owning [`Device`] so implementations can report work
/// to its counters ([`Device::stats`]). A kernel runs on the thread that
/// launched it: the verifier's parallel grain is the walk, whole walks
/// running side by side as the streams of a [`Device::streams`] section, so
/// a kernel has nothing to gain from splitting its rows. Dimension checks,
/// launch recording and flop accounting are done by the free wrapper
/// functions in [`crate::gemm`] and [`crate::scan`] *before* delegating
/// here, so implementations contain only the math. See the module docs for
/// the bit-reproducibility contract every implementation must honor.
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

    /// [`Backend::gemm_itv_f`] over each row's *live* columns: row `r` of `C`
    /// holds, in the ascending columns `live_per_seg[seg[r]]`, exactly the
    /// bits `gemm_itv_f` writes there — its term list, and `wmax` taken over
    /// the **whole** `B` row, dead columns included, so a non-finite weight
    /// anywhere in a row of `B` sends the rows that meet it to the per-step
    /// chain as it does there — and exact `[+0, +0]` in every other column.
    /// The caller lists as dead only columns whose every use multiplies them
    /// by zero (the outputs over a stably-off ReLU neuron, which the next
    /// step annihilates whatever they hold), so the zeros are exact, not
    /// merely sound, and the zero-skip of every later kernel drops them.
    ///
    /// The provided body is that definition: the full product, then the dead
    /// columns zeroed. It is the conformance oracle of the method and what
    /// [`ReferenceBackend`] runs. A backend overrides it to skip the dead
    /// columns' arithmetic ([`CpuSimBackend`] does); one launch covers every
    /// segment, as `gemm_itv_f`'s does.
    fn gemm_itv_f_live<F: Fp>(
        &self,
        device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        m: usize,
        k: usize,
        n: usize,
        seg: &[u32],
        live_per_seg: &[&[u32]],
    ) {
        self.gemm_itv_f(device, a, b, c, m, k, n);
        if n == 0 {
            return;
        }
        for (crow, &s) in c.chunks_mut(n).zip(seg) {
            let mut live = live_per_seg[s as usize].iter().peekable();
            for (j, v) in crow.iter_mut().enumerate() {
                if live.next_if(|&&l| l as usize == j).is_none() {
                    *v = Itv::zero();
                }
            }
        }
    }

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
    /// one convolution backwards into the destination window the caller
    /// chose for it (`dst_cols` wide, spatial width `dst_ww`, per-row
    /// origins `dst_origins` in the conv input, every window inside it —
    /// the grown window, clipped). Every element of `dst` is written — the
    /// caller need not zero it — under the module contract's GBC rule;
    /// exact-zero source coefficients must be skipped (as in the interval
    /// GEMM family).
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
    /// over the window positions in ascending order, exact-zero
    /// coefficients skipped, under the module contract's bias-fold rule.
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
    /// (`relax_per_seg[geom.seg[r]]`), in place, under the module
    /// contract's ReLU-step rule.
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
    /// plane per launch: scatter each row's window positions into
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
/// kernels, each a loop over its rows on the launching thread, buffer
/// pooling enabled. The default backend of [`Device`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSimBackend;

impl Backend for CpuSimBackend {
    fn label(&self) -> &'static str {
        "cpusim"
    }

    fn gemm_itv_f<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        _m: usize,
        k: usize,
        n: usize,
    ) {
        gemm_itv_rows(a, b, c, k, n, true);
    }

    fn gemm_itv_f_live<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        m: usize,
        k: usize,
        n: usize,
        seg: &[u32],
        live_per_seg: &[&[u32]],
    ) {
        if m == 0 || n == 0 {
            return;
        }
        if k == 0 {
            c.fill(Itv::zero());
            return;
        }
        LiveGemm::new(a, b, (k, n), seg, live_per_seg).rows(seg, a, c);
    }

    fn gemm_itv_f_acc<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        _m: usize,
        k: usize,
        n: usize,
    ) {
        gemm_itv_rows(a, b, c, k, n, false);
    }

    fn gemm_f_f<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[F],
        b: &[F],
        c: &mut [F],
        _m: usize,
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
        for (arow, crow) in a.chunks(k).zip(c.chunks_mut(n)) {
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
        // Each destination row copies from its source row.
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
        let launch = GbcLaunch::new(src, src_geom, weight, conv, dst_origins, dst_cols, dst_ww);
        // The scatter where products are exact in `f64`; the gather is the
        // per-step chain of the other scalar types.
        if F::EXACT_IN_F64 {
            GbcScatter::new(&launch).rows(dst)
        } else {
            launch.gather_rows(dst)
        }
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
        if out_cst.is_empty() {
            return;
        }
        let cols = geom.cols();
        // Like a segment's table (`SegTables`): one row would widen exactly
        // what the table holds.
        let widened: Option<Vec<f64>> = (F::EXACT_IN_F64 && out_cst.len() > 1)
            .then(|| bias.iter().map(|b| b.to_f64()).collect());
        for (r, v) in out_cst.iter_mut().enumerate() {
            let row = &plane[r * cols..(r + 1) * cols];
            *v = widened
                .as_deref()
                .and_then(|bias| bias_fold_row_widened(row, bias, src_cst[r]))
                .unwrap_or_else(|| bias_fold_row(row, bias, src_cst[r]))
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
        if cst.is_empty() {
            return;
        }
        let cols = geom.cols();
        let sides = SegTables::new(geom, relax_per_seg.len(), |s| {
            F::EXACT_IN_F64
                .then(|| ReluSides::resolve(relax_per_seg[s], out_bounds_per_seg[s]))
                .flatten()
        });
        for (r, (row, c)) in plane.chunks_mut(cols.max(1)).zip(cst).enumerate() {
            let s = geom.seg[r] as usize;
            let sides = sides.of(s);
            if !sides.is_some_and(|t| relu_step_row_by_sides(r, row, c, geom, t, upper)) {
                relu_step_row(
                    r,
                    row,
                    c,
                    geom,
                    relax_per_seg[s],
                    out_bounds_per_seg[s],
                    upper,
                    sides.is_some(),
                )
            }
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
            densify_row(r, &src[r * cols..(r + 1) * cols], geom, row)
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
        if out.is_empty() {
            return;
        }
        let cols = geom.cols();
        // The one place bounds are widened for a launch.
        let widened = SegTables::new(geom, bounds_per_seg.len(), |s| {
            F::EXACT_IN_F64.then(|| {
                let widen = |&b: &Itv<F>| WideTerm::new(b);
                bounds_per_seg[s].iter().map(widen).collect::<Vec<_>>()
            })
        });
        for (r, v) in out.iter_mut().enumerate() {
            let s = geom.seg[r] as usize;
            let (lo, hi) = (&lo[r * cols..(r + 1) * cols], &hi[r * cols..(r + 1) * cols]);
            *v = widened
                .of(s)
                .and_then(|b| concretize_row_widened(r, lo, hi, cst_lo[r], cst_hi[r], geom, b))
                .unwrap_or_else(|| {
                    concretize_row(r, lo, hi, cst_lo[r], cst_hi[r], geom, bounds_per_seg[s])
                })
        }
    }
}

/// A deliberately naive backend: straight-line serial scalar loops and no
/// buffer pooling. Slow by design — its value is that every kernel is
/// auditable at a glance, making it the oracle half of cross-backend
/// differential tests. Honors the same bit-reproducibility contract as
/// [`CpuSimBackend`] (ascending-`k` accumulation with the shared
/// accumulation primitives), so engine margins computed on it are
/// bit-identical to the blocked backend's.
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
        _m: usize,
        k: usize,
        n: usize,
    ) {
        reference_gemm_itv(a, b, c, k, n, true);
    }

    fn gemm_itv_f_acc<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        _m: usize,
        k: usize,
        n: usize,
    ) {
        reference_gemm_itv(a, b, c, k, n, false);
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
        GbcLaunch::new(src, src_geom, weight, conv, dst_origins, dst_cols, dst_ww).gather_rows(dst);
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
            *v = bias_fold_row(&plane[r * cols..(r + 1) * cols], bias, src_cst[r]);
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
            // No table summary here: every row keeps its copy, and the same
            // bits come out.
            let s = geom.seg[r] as usize;
            relu_step_row(
                r,
                row,
                c,
                geom,
                relax_per_seg[s],
                out_bounds_per_seg[s],
                upper,
                false,
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

    #[test]
    fn gather_matches_the_reference_at_any_worker_count() {
        let reference = Device::reference(DeviceConfig::new());
        for workers in [2, 3] {
            let dev = Device::new(DeviceConfig::new().workers(workers));
            // Gathered rows of 16: one, a few, and more than a cache holds.
            for rows in [1, 1000, 50_000] {
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

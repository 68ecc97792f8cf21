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
//!   GEMM and GBC, and concretize and the bias fold in row blocks, at the
//!   host's vector width (their row kernels are compiled twice, and a
//!   process runs the build its CPU can, [`GemmBuild`]), each kernel a loop
//!   over its rows on the launching thread, buffer pooling enabled. This is
//!   the default backend.
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
//! exact), one `max`-reduction over `B` per layer, one short sum per row,
//! then the four directed operations of the epilogue. Scan, compaction and
//! gather are exact integer/copy operations and must match
//! element-for-element.
//!
//! **Blocking rule.** Cache/register blocking of the GEMM family is allowed
//! — but only over `m` and `n`. [`CpuSimBackend`] walks every row in column
//! blocks whose accumulators stay in registers across the **full `k`
//! extent**, as wide as the build it runs ([`GemmBuild`]): four columns in
//! the baseline build, sixteen columns of `B` (full product) and eight
//! packed live columns (live product) in the AVX-512 one. The width is
//! free because the lanes of a block are independent: each does its own
//! output's operations, in the order above, whatever else shares its
//! register — and Rust never contracts `a * b + c` into an FMA, so a build
//! with FMA units available emits the same multiplies and adds. A port may
//! tile `m`/`n`, pack operands, and register-block freely, but must never
//! split, reorder or tree-reduce `k`, nor take `wmax` over less than the
//! launch's `n` columns (taking each row's maximum over more lanes is
//! free: the largest magnitude does not depend on the lane that held it).
//! [`crate::conformance::check_gemm_blocking`] pins the kernels against the
//! straight-line oracle across shapes on both sides of 4-, 8- and 16-lane
//! block edges, and a unit test of this module holds the two builds to
//! each other and the baseline to the oracle on every host.
//!
//! GBC blocks the same way, over the elements of a destination row and never
//! over a term list: [`CpuSimBackend`] adds one term to a fixed-width block
//! of consecutive elements at a time — 8 to 32 lanes, starting on a grid of
//! 4 or 8, as wide as the launch's `kw · c_in` run and the build allow —
//! and one block of their positions' magnitude sums. Lanes of a block that
//! the term does not reach take a zero weight, or are scratch the row never
//! writes out: a finite term times zero adds `±0.0`, which leaves every sum
//! as it is (a sum starts at `+0.0` and is never `-0.0`); a term that is not
//! finite enters no block, and the positions it reaches take the per-step
//! chain as the fallback rule says. Each element still receives its own
//! terms in the order below, and each position its magnitude sum.
//! [`crate::conformance::check_gbc_block_edges`] crosses those blocks'
//! edges, and a unit test holds the two builds to each other and the
//! baseline to the oracle.
//!
//! Concretize and the bias fold block over **rows**, each row one output
//! over its own term list: [`CpuSimBackend`] runs the rows of a launch in
//! *row blocks* — four rows in the baseline build, eight in the AVX-512 one
//! — whose lanes are rows stepping through their coefficients together,
//! lane `j` adding its own row's term at each step, in the order below, to
//! its own sums, `T` and count ([`WideBounds`], [`WideDots`]); a block
//! stores its lanes when its rows end, and one lane-wise pass over the
//! launch's rows finishes them ([`RowSums`]). A term list is never split
//! across lanes or steps. The zero-skip is a mask: a lane
//! whose coefficient is an exact zero adds `-0.0` to its sums, `+0.0` to
//! its `T` and `0` to its count, which leaves each as it is, bit for bit
//! (the module docs of [`gpupoly_interval::wide`], "The masked add"). The
//! idle lanes of a partial block repeat one of its rows and are never
//! written. The fallback is per lane: a lane whose `T` is not finite takes
//! its own row's per-step chain, and the block's other lanes keep their
//! results. [`crate::conformance::check_concretize_block_edges`] and
//! [`crate::conformance::check_bias_fold_block_edges`] cross those blocks'
//! edges, and a unit test holds the two builds to each other and the
//! baseline to the oracle.
//!
//! **Live columns.** [`Backend::gemm_itv_f_prepared`] with panels is
//! `gemm_itv_f` with some outputs not computed: row `r` writes the columns
//! its segment's [`LivePanel`] lists live, each the bits `gemm_itv_f` gives
//! it — the row's term list, `T` against `wmax` over the **whole** `B` row,
//! dead columns and their non-finite weights included, and the fallback rule
//! as stated — and exact `[+0, +0]` in every other column. Which columns are
//! dead is the caller's: the verifier lists the outputs over a stably-off
//! ReLU neuron, which the ReLU step would turn into zeros whatever they
//! held. The zeros are skipped by every later kernel, so they change no bit
//! *except* where a dead column's coefficient, had it been computed, would
//! have counted: concretize counts a term whatever its bound, `[0, 0]`
//! included, and the ReLU step counts a hull term (a coefficient straddling
//! zero) of a dead neuron. Such a term adds nothing to either sum or to `T`
//! — the bound is `[0, 0]` — and one to `adds`, so without it `e` is the
//! same or smaller: the candidate, or the constant, is the same or inside.
//! [`CpuSimBackend`] streams a row's term list over its segment's panel —
//! the live columns of `B`, widened and packed — as
//! [`gemm_itv_f`](Backend::gemm_itv_f) streams it over `B`; the provided
//! body computes every column and zeroes the dead ones.
//!
//! **Where `wmax` and the packed columns come from.** Both are functions of
//! operands that outlive a launch: `wmax` of the layer's `B`, a segment's
//! packed columns of `B` and its query's live list. A dense step of the
//! verifier goes through [`Backend::gemm_itv_f_prepared`] with both made
//! beforehand: each dense layer's `wmax` once, when its network is prepared
//! (`gpupoly_core::PreparedGraph`, by [`crate::gemm::layer_wmax`]), held in
//! [`DenseWeights`]; and each query's [`LivePanel`] of a dense layer whose
//! input is a ReLU layer once per call, the first time a walk steps through
//! the layer (core's step tables, beside the query's [`ReluTable`] it reads
//! the live list from), borrowed by both planes and every walk of the call.
//! A launch over raw slices ([`Backend::gemm_itv_f`],
//! [`Backend::gemm_itv_f_acc`]) computes every column; [`CpuSimBackend`]
//! makes a one-launch [`DenseWeights`] of its `B` by the same `layer_wmax`
//! and runs the same launch. Which is used changes no bit: the same `wmax`,
//! the same term order.
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
//! reaches it through one filter tap at most. The elements of a destination
//! row may be blocked like GEMM columns (the blocking rule above); nothing
//! else about the order is free.
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
//! **Concretize through a dense layer** ([`Backend::concretize_dense`]) is a
//! walk's last step through a dense layer over the input together with the
//! input's candidate: per row, both planes' products with the layer's
//! weights as [`Backend::gemm_itv_f_prepared`] without panels computes them
//! — every column, the row's term list, `wmax` over the whole row of `B`,
//! the fallback rule — and then concretize of those products from the row's
//! constants, as a flat window of `n`: ascending columns, each against its
//! own bound. Every candidate is the bits of those three launches; the rule
//! adds nothing to theirs. The provided body is the three launches. A
//! backend may fuse them however it keeps each output's operations, and
//! [`CpuSimBackend`] does: per row block of concretize's, the block's
//! products of both planes into scratch of one row block of `n` columns a
//! plane, reused from block to block, then the block's row-block step over
//! it. The products' planes, `m × n` each, never exist: a walk that reaches
//! the input through a dense layer holds no plane as wide as the input.
//! [`crate::conformance::check_concretize_dense`] holds a backend to its own
//! unfused launches and to the oracles.
//!
//! Widening a bound to `f64` is exact, so *when* it happens is scheduling,
//! not arithmetic: both backends widen the bound of every term as they meet
//! it, [`CpuSimBackend`] a row block's lanes' bounds at once (each lane its
//! own row's), and the bias fold does the same with its bias. Neither
//! changes a term list, its order, a skip or a count.
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
//! once for a [`crate::ReluTable`]'s life instead of once per element, and
//! skip arithmetic whose result the table already tells — it may not change a
//! term list, its order, `T` or a count by doing so. [`CpuSimBackend`]
//! resolves each side `(slope, intercept)` of each neuron of a `ReluTable` —
//! a [`Backend::relu_step`] launch makes one for each of its segments that
//! has more than one row, and a lone row takes the rule as written — the
//! first time a row asks, of finite tables only, to one of three kinds, and
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

use gpupoly_interval::wide::{
    max_mag, RowSums, WideAcc, WideBound, WideBounds, WideDots, WideMag, WideRow, WideSum, WideTerm,
};
use gpupoly_interval::{round, Fp, Itv};
use std::array::from_fn;

use crate::gemm::{DenseWeights, LivePanel};
use crate::relax::{ReluRelax, ReluTable};
use crate::simd::LaneKernel;
use crate::Device;
use crate::GemmBuild;

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
    /// Per-row query-segment indices (all `0` for single-query batches);
    /// one per row for the kernels that read them, whose launches check it.
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

    /// Checks that `seg` has one entry per row, once per launch, for the
    /// kernels that read it.
    ///
    /// # Panics
    ///
    /// Panics, naming `kernel`, when `seg` and `origins` differ in length.
    pub(crate) fn assert_one_segment_per_row(&self, kernel: &str) {
        assert_eq!(
            self.seg.len(),
            self.origins.len(),
            "{kernel}: one segment index per row"
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
// and the contract's gather on ReferenceBackend, the ReLU step runs
// `relu_step_row_by_sides` over a `ReluTable`'s resolved sides, and concretize
// and the bias fold run in row blocks (`ConcretizeBlocks`,
// `BiasFoldBlocks`); `relu_step_row`, `concretize_row` and `bias_fold_row` —
// all that ReferenceBackend runs — take other scalar types and the rows
// those hand back. The conformance suite checks each backend against *independent*
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
    /// the positions [`GbcScatter`] hands back. `list` is scratch. Never
    /// inlined: it is the rare path of the scatter, and its call marks the
    /// scatter's instance of each build for the disassembly check that the
    /// scatter's lane loop stays packed.
    #[inline(never)]
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

/// The non-zero terms of one source window position: they share the
/// position's run of destination positions, its first at column `b` of the
/// window row's storage (whose `kw − 1` scratch positions before the window
/// take what a run overhangs on either side, so a run is never clipped),
/// and are `terms[first..][..len]` of [`GbcScatter::rows`]' list.
#[derive(Copy, Clone)]
struct Landing {
    b: u32,
    first: u32,
    len: u32,
    /// Whether a term among them is not finite: it adds to no lane, and
    /// leaves the run's positions without a bound.
    unbound: bool,
}

/// Positions of one [`WideRow::count`] block in [`GbcScatter`], and the grid
/// those blocks start on (one `ymm` register of `f64`, two `xmm`): a filter
/// row of up to five taps is one block, a wider one several.
const GBC_LISTS: usize = 8;
const GBC_LIST_GRID: usize = 4;

/// GBC as a scatter, the production kernel of [`CpuSimBackend`] for
/// [`Fp::EXACT_IN_F64`], run in the build the process picked ([`GemmBuild`]):
/// a row's coefficients are tested for zero **once**, and every other term
/// is added to all the destination elements it reaches.
///
/// Per filter row `f`, the `kw` taps of a source position land on
/// consecutive window positions, i.e. on `kw · c_in` consecutive lanes of
/// the row's [`WideRow`] and on `kw` of its term lists, against weights
/// widened and repacked `[f][d][g][c]` once per launch so that those lanes'
/// weights are consecutive too. The storage of each destination window row
/// starts with `kw − 1` scratch positions, which take what a run overhangs
/// the window on its left, or the previous row's window on its right, so
/// every run is whole — the taps the window clips land on scratch, which
/// the epilogue drops — and no run is masked. A source position's non-zero
/// terms (its `c_out` channels) go in as one [`WideRow::mul_add`] block per
/// `N` lanes, held in registers across them, and one [`WideRow::count`]
/// block: fixed-width lane loops, not runtime-length ones. Blocks start on a
/// fixed grid of `A` lanes, a register or two of the build, with the
/// repacked weights zero-padded in front and behind to match, so that a
/// block's loads meet whole earlier stores of the same width (a load that
/// straddles two stores waits for both to retire); a zero weight adds
/// `±0.0`, which changes no sum. A term that is not finite adds to no lane
/// and unbinds its run ([`WideRow::unbind`]): those positions fall back,
/// whatever the other terms added.
///
/// The loop nest is source row `i`, filter row `f`, then the row's source
/// positions `j` ascending and their terms in ascending `d`: one `(i, f)`
/// pair feeds one destination row, so a destination element receives its
/// terms in the order [`GbcLaunch::terms`] lists them (a source position
/// reaches it through one tap at most, and source rows arrive ascending),
/// its position's list counts the same terms with the same `wmax`, and the
/// epilogue is the gather's: the same bits, without a zero test or an index
/// computation per (term, destination) pair. [`WideRow::finish`] ends each
/// destination row as one block epilogue — every position's bound, then
/// every element's enclosure, lane-wise, the storage back at zero for the
/// next row — and hands back the positions whose magnitude sum is not
/// finite, which [`GbcLaunch::position`] recomputes.
struct GbcScatter<'a, F> {
    launch: &'a GbcLaunch<'a, F>,
    dst: &'a mut [Itv<F>],
}

impl<F: Fp> GbcScatter<'_, F> {
    /// The launch's rows into `dst` (whole rows of `dst_cols`), one after
    /// the other over one [`WideRow`], in lane blocks of `N` on a grid of
    /// `A`.
    #[inline(always)]
    fn rows<const A: usize, const N: usize>(self) {
        let l = self.launch;
        let (conv, g) = (l.conv, l.src_geom);
        let (cin, cout, kw, dst_ww) = (conv.cin, conv.cout, conv.kw, l.dst_ww);
        let dst_wh = l.dst_cols / (dst_ww * cin);
        // A window row's storage: `kw − 1` scratch positions, then the
        // window; the next row's scratch takes this one's right overhang,
        // and as many more after the last row take its.
        let (margin, stride) = (kw - 1, dst_ww + kw - 1);
        // The weights of one `(f, d)`, `A` zeros in front and `N` behind, and
        // their `wmax`s and ones (a real tap) in the same way.
        let (w_run, wmax_run) = (A + kw * cin + N, GBC_LIST_GRID + kw + GBC_LISTS);
        let mut w = vec![0.0; conv.kh * cout * w_run];
        let mut wmax = vec![0.0; conv.kh * cout * wmax_run];
        let mut real = vec![0.0; wmax_run];
        real[GBC_LIST_GRID..GBC_LIST_GRID + kw].fill(1.0);
        for (f, (w, wmax)) in w
            .chunks_mut(cout * w_run)
            .zip(wmax.chunks_mut(cout * wmax_run))
            .enumerate()
        {
            for (d, (w, wmax)) in w
                .chunks_mut(w_run)
                .zip(wmax.chunks_mut(wmax_run))
                .enumerate()
            {
                for tap in 0..kw {
                    let t = (f * kw + tap) * cout + d;
                    wmax[GBC_LIST_GRID + tap] = l.wmax[t];
                    let taps = &mut w[A + tap * cin..A + (tap + 1) * cin];
                    for (w, v) in taps.iter_mut().zip(&l.weight[t * cin..]) {
                        *w = v.to_f64();
                    }
                }
            }
        }
        let real = |at: usize| real[at..].first_chunk().expect("a padded block");
        let mut sums = WideRow::new(dst_wh * stride + margin, cin, N.max(GBC_LISTS));
        let (mut terms, mut landings, mut list) = (Vec::new(), Vec::new(), Vec::new());
        for (r, dst_row) in self.dst.chunks_mut(l.dst_cols).enumerate() {
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
                // The row's terms, by source position.
                terms.clear();
                landings.clear();
                for (j, coeffs) in src_row.chunks(cout).enumerate() {
                    let b0 = first_w + (j * conv.sw) as isize;
                    if taps_inside(b0, kw, dst_ww).is_empty() {
                        continue; // all of its run is scratch
                    }
                    let first = terms.len();
                    let mut unbound = false;
                    for (d, &m) in coeffs.iter().enumerate() {
                        let term = WideTerm::new(m);
                        unbound |= !term.is_finite();
                        if term.is_finite() && !term.is_zero() {
                            terms.push((term, d));
                        }
                    }
                    if unbound || terms.len() > first {
                        landings.push(Landing {
                            b: (b0 + margin as isize) as u32,
                            first: first as u32,
                            len: (terms.len() - first) as u32,
                            unbound,
                        });
                    }
                }
                for f in fs {
                    let at = (a0 + f as isize) as usize * stride;
                    let w = &w[f * cout * w_run..(f + 1) * cout * w_run];
                    let wmax = &wmax[f * cout * wmax_run..(f + 1) * cout * wmax_run];
                    for landing in &landings {
                        let pos = at + landing.b as usize;
                        let run = &terms[landing.first as usize..][..landing.len as usize];
                        // The run's lanes, in blocks from the grid line
                        // below its first.
                        let lane = pos * cin;
                        let shift = lane % A;
                        let mut k = 0;
                        while k < shift + kw * cin {
                            let from = A - shift + k;
                            sums.mul_add::<N>(
                                lane - shift + k,
                                run.iter().map(|&(term, d)| {
                                    let w = &w[d * w_run + from..];
                                    (term, w.first_chunk().expect("padded weights"))
                                }),
                            );
                            k += N;
                        }
                        let shift = pos % GBC_LIST_GRID;
                        let mut k = 0;
                        while k < shift + kw {
                            let from = GBC_LIST_GRID - shift + k;
                            sums.count::<GBC_LISTS>(
                                pos - shift + k,
                                run.iter().map(|&(term, d)| {
                                    let wmax = &wmax[d * wmax_run + from..];
                                    (term, wmax.first_chunk().expect("padded wmax"))
                                }),
                                real(from),
                            );
                            k += GBC_LISTS;
                        }
                        if landing.unbound {
                            sums.unbind(pos, kw);
                        }
                    }
                }
            }
            // A non-finite operand: the whole position, on the chain.
            sums.finish(dst_row, (dst_ww, stride, margin), |pos, out| {
                l.position(r, (pos / dst_ww, pos % dst_ww), out, &mut list)
            });
        }
    }
}

impl<F: Fp> LaneKernel for GbcScatter<'_, F> {
    /// Blocks start on a grid of `LIVE` lanes — one `zmm` register of `f64`
    /// in the AVX-512 build, two `xmm` in the baseline one, so that every
    /// load and store of the row's sums is a whole register on the same
    /// grid. Their width `N` is the launch's: the least of 8, 16, 24 and 32
    /// lanes that holds a run from any grid offset, and at most twice
    /// `FULL` (8 in the baseline build, whose sixteen registers would spill
    /// wider blocks; 32 in the AVX-512 one). A longer run takes several.
    #[inline(always)]
    fn run<const FULL: usize, const LIVE: usize>(self) {
        let conv = self.launch.conv;
        let span = LIVE - gcd(conv.cin, LIVE) + conv.kw * conv.cin;
        match span.min(2 * FULL) {
            ..=8 => self.rows::<LIVE, 8>(),
            9..=16 => self.rows::<LIVE, 16>(),
            17..=24 => self.rows::<LIVE, 24>(),
            _ => self.rows::<LIVE, 32>(),
        }
    }
}

/// The greatest common divisor: lanes a run can start at off the grid come
/// in steps of `gcd(c_in, grid)`.
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
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
/// both (mandatory, like the GEMM zero-skip). All of [`ReferenceBackend`]'s
/// bias fold; on [`CpuSimBackend`] the rows of other scalar types and the
/// lanes [`BiasFoldBlocks`] hands back. Never inlined, for the reason
/// [`concretize_row`] is not.
#[inline(never)]
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

/// One side of a neuron's relaxation — the `(slope, intercept)` pair
/// `(alpha, beta)` or `(gamma, delta)` — as the ReLU step meets it, resolved
/// **by value** once per [`ReluTable`]. The kinds are scheduling: each does
/// what [`relu_step_row`] does with such a pair, minus the arithmetic whose
/// result is known beforehand.
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

/// One segment's relaxation table resolved for its [`ReluTable`]: the
/// neurons with a side that is not [`Side::One`] — every neuron but those
/// [`ReluRelax::is_identity`] passes by — and where a run of the frontier
/// finds them.
pub(crate) struct ReluSides {
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
    pub(crate) fn resolve<F: Fp>(relax: &[ReluRelax<F>], out_bounds: &[Itv<F>]) -> Option<Self> {
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

/// One row of a ReLU-step launch on [`CpuSimBackend`] through its
/// segment's table `t` — relaxations, output bounds and, where the table
/// resolves, its sides — by [`relu_step_row_by_sides`] where it takes the
/// row and by [`relu_step_row`] where it does not.
#[inline(always)]
fn relu_step_table_row<F: Fp>(
    r: usize,
    row: &mut [Itv<F>],
    cst: &mut Itv<F>,
    geom: &ExprGeom<'_>,
    t: &ReluTable<F>,
    upper: bool,
) {
    let sides = t.sides();
    if !sides.is_some_and(|s| relu_step_row_by_sides(r, row, cst, geom, s, upper)) {
        relu_step_row(
            r,
            row,
            cst,
            geom,
            t.relax(),
            t.out_bounds(),
            upper,
            sides.is_some(),
        )
    }
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
/// finite. Exact-zero coefficients are skipped on both. All of
/// [`ReferenceBackend`]'s concretize; on [`CpuSimBackend`] the rows of other
/// scalar types and the lanes [`ConcretizeBlocks`] hands back. Never
/// inlined, so that the chain is the same code whichever build hands a row
/// back to it.
#[inline(never)]
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

/// The rows of a row-reduction launch — concretize's or the bias fold's —
/// in blocks of `L`: `(first row, the row of lane j)`. A partial block's
/// idle lanes repeat its last row, so that every lane reads real operands;
/// they are never written out.
#[inline(always)]
fn row_blocks<const L: usize>(
    rows: usize,
) -> impl Iterator<Item = (usize, impl Fn(usize) -> usize + Copy)> {
    (0..rows).step_by(L).map(move |r0| {
        let last = rows - 1;
        (r0, move |j: usize| (r0 + j).min(last))
    })
}

/// One concretize launch on [`CpuSimBackend`] for [`Fp::EXACT_IN_F64`], in
/// row blocks, for a build of [`crate::simd`] to run at its lane count:
/// one row a lane, the lanes stepping through their windows together, lane
/// `j` adding its own row's terms of both planes ([`WideBounds`]) in the
/// order [`concretize_row`] adds them — window rows ascending, a window
/// row's run of `win_w · chans` elements ascending — each against its own
/// segment's bound at its own window position. The blocks store their lanes
/// and one pass over the launch's rows finishes them ([`RowSums`]). A row
/// either of whose magnitude sums is not finite is [`concretize_row`]'s, on
/// its chain; its neighbours keep their results.
struct ConcretizeBlocks<'a, F> {
    lo: &'a [Itv<F>],
    hi: &'a [Itv<F>],
    cst_lo: &'a [Itv<F>],
    cst_hi: &'a [Itv<F>],
    geom: &'a ExprGeom<'a>,
    bounds_per_seg: &'a [&'a [Itv<F>]],
    out: &'a mut [Itv<F>],
}

impl<F: Fp> LaneKernel for ConcretizeBlocks<'_, F> {
    /// Blocks of `LIVE` rows: eight, one `zmm` register of `f64` a sum, in
    /// the AVX-512 build; four in the baseline one.
    #[inline(always)]
    fn run<const FULL: usize, const LIVE: usize>(self) {
        self.rows::<LIVE>()
    }
}

impl<F: Fp> ConcretizeBlocks<'_, F> {
    #[inline(always)]
    fn rows<const L: usize>(self) {
        let (g, cols) = (self.geom, self.geom.cols());
        let run = g.win_w * g.chans;
        let bounds = |r: usize| self.bounds_per_seg[g.seg[r] as usize];
        let mut sums = RowSums::new(g.rows() + L);
        for (r0, lane) in row_blocks::<L>(g.rows()) {
            let mut lo = WideBounds::<L, false>::new(from_fn(|j| self.cst_lo[lane(j)].lo));
            let mut hi = WideBounds::<L, true>::new(from_fn(|j| self.cst_hi[lane(j)].hi));
            for i in 0..g.win_h {
                let at = |j: usize| lane(j) * cols + i * run;
                let a_lo = lane_runs::<_, L>(|j| &self.lo[at(j)..], run);
                let a_hi = lane_runs::<_, L>(|j| &self.hi[at(j)..], run);
                let b = lane_runs::<_, L>(|j| &bounds(lane(j))[g.neuron_at(lane(j), i, 0)..], run);
                for k in 0..run {
                    let b = from_fn(|j| b[j][k]);
                    lo.mul_add_nonzero(&from_fn(|j| a_lo[j][k]), &b);
                    hi.mul_add_nonzero(&from_fn(|j| a_hi[j][k]), &b);
                }
            }
            lo.store(&mut sums, r0);
            hi.store(&mut sums, r0);
        }
        let unbounded = sums.finish(self.out);
        for v in self.out.iter_mut() {
            v.hi = v.hi.max(v.lo);
        }
        for r in unbounded {
            self.out[r] = concretize_row(
                r,
                &self.lo[r * cols..(r + 1) * cols],
                &self.hi[r * cols..(r + 1) * cols],
                self.cst_lo[r],
                self.cst_hi[r],
                g,
                bounds(r),
            );
        }
    }

    /// The launch for scalar types without [`Fp::EXACT_IN_F64`]:
    /// [`concretize_row`]'s chain, row by row.
    fn chain(self) {
        let (g, cols) = (self.geom, self.geom.cols());
        for (r, v) in self.out.iter_mut().enumerate() {
            let (lo, hi) = (
                &self.lo[r * cols..(r + 1) * cols],
                &self.hi[r * cols..(r + 1) * cols],
            );
            let bounds = self.bounds_per_seg[g.seg[r] as usize];
            *v = concretize_row(r, lo, hi, self.cst_lo[r], self.cst_hi[r], g, bounds);
        }
    }
}

/// The first `len` elements of `start(j)` for every lane `j` of a block:
/// the lanes' runs, each `len` long, so that a step's loads need no bounds
/// check.
#[inline(always)]
fn lane_runs<'a, T, const L: usize>(start: impl Fn(usize) -> &'a [T], len: usize) -> [&'a [T]; L] {
    let mut runs = [&[][..]; L];
    for (j, run) in runs.iter_mut().enumerate() {
        *run = &start(j)[..len];
    }
    runs
}

/// One bias-fold launch on [`CpuSimBackend`] for [`Fp::EXACT_IN_F64`], in
/// row blocks, for a build of [`crate::simd`] to run at its lane count: one
/// row a lane, the lanes stepping through their rows' coefficients together
/// against one bias entry a step ([`WideDots`]) — each lane adding its own
/// row's terms in the order of [`bias_terms`], finished as
/// [`ConcretizeBlocks`]' are. A row whose magnitude sum is not finite is
/// [`bias_fold_row`]'s, on its chain.
struct BiasFoldBlocks<'a, F> {
    plane: &'a [Itv<F>],
    cols: usize,
    bias: &'a [F],
    src_cst: &'a [Itv<F>],
    out_cst: &'a mut [Itv<F>],
}

impl<F: Fp> LaneKernel for BiasFoldBlocks<'_, F> {
    /// Blocks of `LIVE` rows, as [`ConcretizeBlocks`].
    #[inline(always)]
    fn run<const FULL: usize, const LIVE: usize>(self) {
        self.rows::<LIVE>()
    }
}

impl<F: Fp> BiasFoldBlocks<'_, F> {
    #[inline(always)]
    fn rows<const L: usize>(self) {
        let cols = self.cols;
        let mut sums = RowSums::new(self.out_cst.len() + L);
        for (r0, lane) in row_blocks::<L>(self.out_cst.len()) {
            let a = lane_runs::<_, L>(|j| &self.plane[lane(j) * cols..], cols);
            let mut dots = WideDots::<L>::new(from_fn(|j| self.src_cst[lane(j)]));
            for (k, &w) in (0..cols).zip(self.bias.iter().cycle()) {
                dots.mul_add_nonzero(&from_fn(|j| a[j][k]), w);
            }
            dots.store(&mut sums, r0);
        }
        for r in sums.finish(self.out_cst) {
            self.out_cst[r] = bias_fold_row(
                &self.plane[r * cols..(r + 1) * cols],
                self.bias,
                self.src_cst[r],
            );
        }
    }
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

/// The columns one [`GemmLaunch`] computes.
enum Cols<'a, F> {
    /// Every column of `B`.
    All,
    /// Row `r` the columns of its segment's panel, `panels[seg[r]]`, packed
    /// before the launch (`seg`, `panels`).
    Panels(&'a [u32], &'a [&'a LivePanel<F>]),
}

/// One launch of [`CpuSimBackend`]'s interval product, `C = A · B` (`A`
/// `k` coefficients a row, `B` `k×n`) over its [`Cols`], for a build of
/// [`crate::simd`] to run at its lane counts: every launch comes with its
/// `B`'s `wmax` ([`DenseWeights`]) — the layer's, made once, or one a launch
/// over raw slices scanned for itself — and, for live columns, its
/// segments' panels; it goes through [`wide_itv_rows`] for every column and
/// [`live_rows`] for live ones. `fresh` starts from zero instead of reading
/// `C` (every column) and is always set for live columns.
struct GemmLaunch<'a, F> {
    a: &'a [Itv<F>],
    b: &'a [F],
    c: &'a mut [Itv<F>],
    k: usize,
    n: usize,
    fresh: bool,
    wmax: &'a [f64],
    cols: Cols<'a, F>,
}

impl<F: Fp> LaneKernel for GemmLaunch<'_, F> {
    #[inline(always)]
    fn run<const FULL: usize, const LIVE: usize>(self) {
        let Self {
            a,
            b,
            c,
            k,
            n,
            fresh,
            wmax,
            cols,
        } = self;
        let (seg, panels) = match cols {
            Cols::All => return wide_itv_rows::<F, FULL>(a, b, wmax, c, k, n, fresh),
            Cols::Panels(seg, panels) => (seg, panels),
        };
        // Written out rather than collected, so that the call to `columns`
        // is the build's own (CI finds the prepared product by it).
        let mut lists: Vec<&[u32]> = Vec::with_capacity(panels.len());
        let mut blocks: Vec<&[[f64; LIVE]]> = Vec::with_capacity(panels.len());
        for panel in panels {
            lists.push(panel.live());
            blocks.push(panel.columns::<LIVE>());
        }
        live_rows::<F, LIVE>(a, b, wmax, c, (k, n), seg, &lists, &blocks);
    }
}

impl<'a, F: Fp> GemmLaunch<'a, F> {
    fn new(
        a: &'a [Itv<F>],
        weights: &DenseWeights<'a, F>,
        c: &'a mut [Itv<F>],
        fresh: bool,
        cols: Cols<'a, F>,
    ) -> Self {
        Self {
            a,
            b: weights.b(),
            c,
            k: weights.k(),
            n: weights.n(),
            fresh,
            wmax: weights.wmax(),
            cols,
        }
    }

    /// Finishes a launch with nothing to sum — no column, no row, or an
    /// empty reduction (`k = 0`: `C` all zeros when `fresh`, unchanged
    /// otherwise) — and says whether it did.
    fn finish_if_empty(&mut self) -> bool {
        if self.n == 0 || self.c.is_empty() {
            return true;
        }
        if self.k == 0 {
            if self.fresh {
                self.c.fill(Itv::zero());
            }
            return true;
        }
        false
    }

    /// The launch for scalar types without [`Fp::EXACT_IN_F64`]: the
    /// per-step chain over every column, or over each row's live ones.
    fn chain(self) {
        let Self {
            a,
            b,
            c,
            k,
            n,
            fresh,
            cols,
            ..
        } = self;
        let Cols::Panels(seg, panels) = cols else {
            return chain_itv_rows(a, b, c, k, n, fresh);
        };
        for ((arow, crow), &s) in a.chunks(k).zip(c.chunks_mut(n)).zip(seg) {
            crow.fill(Itv::zero());
            chain_live_row(arow, b, panels[s as usize].live(), crow);
        }
    }
}

/// The rows of an interval product for scalar types with
/// [`Fp::EXACT_IN_F64`]. Each row's non-zero coefficients are widened once
/// into a term list (so the zero-skip, the `f32`→`f64` conversions and the
/// row's magnitude sum leave the hot loop); then every `L`-wide column block
/// — one row of `C` times `L` columns, its accumulators in registers over
/// all of the row's terms — streams that list in ascending `k` and stores
/// its raw sums, and one lane-wise pass
/// ([`Widening::enclose_lanes`](gpupoly_interval::wide::Widening::enclose_lanes))
/// turns the row's sums into its outputs. `L` is the build's ([`crate::simd`]):
/// the lanes of a block are independent, each doing the operations of
/// [`gemm_itv_row`] for its output in the same order — blocking covers
/// `m`/`n` only — so the bits are the same at any width. The last `n mod L`
/// columns of `B` are copied once per launch into blocks padded with zeros
/// (an unused lane multiplies by zero), so that no term copies them.
/// `fresh` starts from zero instead of reading `C`.
#[inline(always)]
fn wide_itv_rows<F: Fp, const L: usize>(
    atile: &[Itv<F>],
    b: &[F],
    wmax: &[f64],
    ctile: &mut [Itv<F>],
    k: usize,
    n: usize,
    fresh: bool,
) {
    let full = n - n % L;
    let mut tail = Vec::new();
    if full < n {
        tail.reserve(k);
        for brow in b.chunks_exact(n) {
            let mut w = [F::ZERO; L];
            w[..n - full].copy_from_slice(&brow[full..]);
            tail.push(w);
        }
    }
    // A row's raw sums, block after block, the last one padded.
    let mut sums = vec![0.0; 2 * (full + L)];
    let (lo, hi) = sums.split_at_mut(full + L);
    let mut terms: Vec<(usize, WideTerm)> = Vec::with_capacity(k);
    for (arow, crow) in atile.chunks(k).zip(ctile.chunks_mut(n)) {
        terms.clear();
        let mut mag = WideMag::new(if fresh { &[] } else { &crow[..] });
        for (kk, &aik) in arow.iter().enumerate() {
            let term = WideTerm::new(aik);
            if !term.is_zero() {
                mag.add(term, wmax[kk]);
                terms.push((kk, term));
            }
        }
        let Some(e) = mag.finish() else {
            // A non-finite operand somewhere in the row: all of it.
            chain_itv_rows(arow, b, crow, k, n, fresh);
            continue;
        };
        let init = |j0: usize| {
            if fresh {
                &[][..]
            } else {
                &crow[j0..n.min(j0 + L)]
            }
        };
        let sums = lo
            .as_chunks_mut::<L>()
            .0
            .iter_mut()
            .zip(hi.as_chunks_mut::<L>().0);
        for (j0, (lo, hi)) in (0..n).step_by(L).zip(sums) {
            let acc = if j0 < full {
                lane_block(&terms, init(j0), |kk| {
                    b[kk * n + j0..]
                        .first_chunk::<L>()
                        .expect("a full lane block")
                })
            } else {
                lane_block(&terms, init(j0), |kk| &tail[kk])
            };
            (*lo, *hi) = acc.into_sums();
        }
        e.enclose_lanes(lo, hi, crow);
    }
}

/// One block of [`wide_itv_rows`]: `L` lanes started at `init` (exact
/// zeros past it) stream the row's term list `(k, term)` in its order, lane
/// `j` against weight `w(k)[j]`.
#[inline(always)]
fn lane_block<'w, F: Fp, const L: usize>(
    terms: &[(usize, WideTerm)],
    init: &[Itv<F>],
    w: impl Fn(usize) -> &'w [F; L],
) -> WideAcc<L> {
    let mut acc = WideAcc::<L>::new(init);
    for &(kk, term) in terms {
        acc.mul_add(term, w(kk));
    }
    acc
}

/// The per-step chain over rows of an interval product, streamed row-wise
/// over `B`: the interval GEMM of `f64`, and of the rows the wide rule hands
/// back — per output element ascending `k`, zero coefficients skipped,
/// [`Itv::mul_add_f`] per term. Never inlined, so that the chain is the same
/// code whichever build of [`crate::simd`] hands a row back to it.
#[inline(never)]
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

/// `live` columns of `B` (`k×n`), widened to `f64` and packed in blocks of
/// `lanes`: lane `d` of block `jb·k + kk` is `B[kk][live[jb·lanes + d]]`,
/// the lanes past the last live column zero. A row streams its term list
/// over a run of blocks as [`wide_itv_rows`] streams it over `B`, without a
/// conversion or more than one bounds check per term. What a
/// [`LivePanel`] holds.
#[inline(always)]
pub(crate) fn pack_live<F: Fp>(b: &[F], n: usize, live: &[u32], lanes: usize) -> Vec<f64> {
    if n == 0 || live.is_empty() {
        return Vec::new();
    }
    let k = b.len() / n;
    let mut packed = vec![0.0; live.len().div_ceil(lanes) * k * lanes];
    for (kk, brow) in b.chunks_exact(n).enumerate() {
        for (jb, cols) in live.chunks(lanes).enumerate() {
            let block = &mut packed[(jb * k + kk) * lanes..][..lanes];
            for (d, &j) in block.iter_mut().zip(cols) {
                *d = brow[j as usize].to_f64();
            }
        }
    }
    packed
}

/// The rows of a live product, row `i` of `atile` in segment `seg[i]`: each
/// writes its segment's columns `lists[s]` as [`wide_itv_rows`] writes them
/// — the wide rule against the whole-row `wmax` (the same term list, `T`
/// and lane operations: [`WideAcc::mul_add_wide`] is [`WideAcc::mul_add`]
/// over weights widened beforehand, here `blocks[s]`, [`pack_live`]'s
/// layout at `L` lanes), or the per-step chain for rows with a non-finite
/// operand — and every other column as an exact zero. `L` is the build's
/// block width.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn live_rows<F: Fp, const L: usize>(
    atile: &[Itv<F>],
    b: &[F],
    wmax: &[f64],
    ctile: &mut [Itv<F>],
    (k, n): (usize, usize),
    seg: &[u32],
    lists: &[&[u32]],
    blocks: &[&[[f64; L]]],
) {
    // A row's raw sums and outputs, packed: live column after live column.
    let width = lists.iter().map(|l| l.len().next_multiple_of(L)).max();
    let width = width.unwrap_or(0);
    let mut sums = vec![0.0; 2 * width];
    let (lo, hi) = sums.split_at_mut(width);
    let mut packed = vec![Itv::zero(); width];
    let mut terms: Vec<(usize, WideTerm)> = Vec::with_capacity(k);
    for ((arow, crow), &s) in atile.chunks(k).zip(ctile.chunks_mut(n)).zip(seg) {
        crow.fill(Itv::zero());
        let live = lists[s as usize];
        if live.is_empty() {
            continue;
        }
        terms.clear();
        let mut mag = WideMag::new::<F>(&[]);
        for (kk, &aik) in arow.iter().enumerate() {
            let term = WideTerm::new(aik);
            if !term.is_zero() {
                mag.add(term, wmax[kk]);
                terms.push((kk, term));
            }
        }
        let Some(e) = mag.finish() else {
            chain_live_row(arow, b, live, crow);
            continue;
        };
        let sums = lo
            .as_chunks_mut::<L>()
            .0
            .iter_mut()
            .zip(hi.as_chunks_mut::<L>().0);
        for (block, (lo, hi)) in blocks[s as usize].chunks_exact(k).zip(sums) {
            let mut acc = WideAcc::<L>::new::<F>(&[]);
            for &(kk, term) in &terms {
                acc.mul_add_wide(term, &block[kk]);
            }
            (*lo, *hi) = acc.into_sums();
        }
        let packed = &mut packed[..live.len()];
        e.enclose_lanes(lo, hi, packed);
        for (&j, &v) in live.iter().zip(&*packed) {
            crow[j as usize] = v;
        }
    }
}

/// The per-step chain from zero over one row's `live` columns, ascending
/// `k`, zero coefficients skipped: [`chain_itv_rows`] over the live columns
/// of a zeroed row of `C`. Never inlined, for the reason that one is not.
#[inline(never)]
fn chain_live_row<F: Fp>(arow: &[Itv<F>], b: &[F], live: &[u32], crow: &mut [Itv<F>]) {
    let n = crow.len();
    for (kk, &aik) in arow.iter().enumerate() {
        if aik.lo == F::ZERO && aik.hi == F::ZERO {
            continue;
        }
        let brow = &b[kk * n..(kk + 1) * n];
        for &j in live {
            let j = j as usize;
            crow[j] = aik.mul_add_f(brow[j], crow[j]);
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

/// The CPU-sim GBC: [`GbcScatter`] in `build` where products are exact in
/// `f64`; the gather, which is the per-step chain, for other scalar types.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gbc_rows<F: Fp>(
    build: GemmBuild,
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
    if F::EXACT_IN_F64 {
        build.run(GbcScatter {
            launch: &launch,
            dst,
        })
    } else {
        launch.gather_rows(dst)
    }
}

/// The CPU-sim concretize: [`ConcretizeBlocks`] in `build` for
/// [`Fp::EXACT_IN_F64`], [`concretize_row`]'s chain row by row otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn concretize_rows<F: Fp>(
    build: GemmBuild,
    lo: &[Itv<F>],
    hi: &[Itv<F>],
    cst_lo: &[Itv<F>],
    cst_hi: &[Itv<F>],
    geom: &ExprGeom<'_>,
    bounds_per_seg: &[&[Itv<F>]],
    out: &mut [Itv<F>],
) {
    let launch = ConcretizeBlocks {
        lo,
        hi,
        cst_lo,
        cst_hi,
        geom,
        bounds_per_seg,
        out,
    };
    if F::EXACT_IN_F64 {
        build.run(launch)
    } else {
        launch.chain()
    }
}

/// The CPU-sim bias fold over rows of `cols` coefficients: [`BiasFoldBlocks`]
/// in `build` for [`Fp::EXACT_IN_F64`], [`bias_fold_row`]'s chain row by row
/// otherwise.
pub(crate) fn bias_fold_rows<F: Fp>(
    build: GemmBuild,
    plane: &[Itv<F>],
    cols: usize,
    bias: &[F],
    src_cst: &[Itv<F>],
    out_cst: &mut [Itv<F>],
) {
    if F::EXACT_IN_F64 {
        build.run(BiasFoldBlocks {
            plane,
            cols,
            bias,
            src_cst,
            out_cst,
        })
    } else {
        for (r, v) in out_cst.iter_mut().enumerate() {
            *v = bias_fold_row(&plane[r * cols..(r + 1) * cols], bias, src_cst[r]);
        }
    }
}

/// The CPU-sim interval GEMM family: `launch` in `build` for
/// [`Fp::EXACT_IN_F64`], the per-step chain otherwise.
fn gemm_launch<F: Fp>(build: GemmBuild, mut launch: GemmLaunch<'_, F>) {
    if launch.finish_if_empty() {
        return;
    }
    if F::EXACT_IN_F64 {
        build.run(launch)
    } else {
        launch.chain()
    }
}

/// The CPU-sim interval GEMM over raw slices, every column: `C = A · B`, or
/// `C += A · B` without `fresh` — [`gemm_itv_prepared_rows`]' launch over a
/// one-launch [`DenseWeights`], its `wmax` scanned by
/// [`crate::gemm::layer_wmax`].
pub(crate) fn gemm_itv_rows<F: Fp>(
    build: GemmBuild,
    a: &[Itv<F>],
    b: &[F],
    c: &mut [Itv<F>],
    (k, n): (usize, usize),
    fresh: bool,
) {
    let wmax = crate::gemm::layer_wmax(b, k, n);
    gemm_launch(
        build,
        GemmLaunch::new(a, &DenseWeights::new(b, &wmax, k, n), c, fresh, Cols::All),
    )
}

/// The CPU-sim GEMM over prepared operands: every column, or with `panels`
/// row `r` the columns of `panels[seg[r]]`.
pub(crate) fn gemm_itv_prepared_rows<F: Fp>(
    build: GemmBuild,
    a: &[Itv<F>],
    weights: &DenseWeights<'_, F>,
    c: &mut [Itv<F>],
    seg: &[u32],
    panels: Option<&[&LivePanel<F>]>,
) {
    let cols = panels.map_or(Cols::All, |panels| Cols::Panels(seg, panels));
    gemm_launch(build, GemmLaunch::new(a, weights, c, true, cols))
}

/// One [`Backend::concretize_dense`] launch on [`CpuSimBackend`], for a
/// build of [`crate::simd`] to run at its lane counts: the rows in the
/// build's row blocks (`LIVE` rows), each block computing its rows'
/// products of both planes into scratch of one block of `n` columns — the
/// [`GemmLaunch`] of every column over the block's rows, so the term list,
/// the whole-row `wmax`, `e` and the chain for a row with a non-finite
/// operand are the full product's — and then the block's candidates from
/// that scratch, by [`ConcretizeBlocks`]' row-block step over a flat window
/// of `n` (its fallback, [`concretize_row`], included). The scratch is reused
/// from block to block: no plane of `m × n` is ever made.
struct ConcretizeDense<'a, F> {
    build: GemmBuild,
    lo: &'a [Itv<F>],
    hi: &'a [Itv<F>],
    weights: &'a DenseWeights<'a, F>,
    cst_lo: &'a [Itv<F>],
    cst_hi: &'a [Itv<F>],
    seg: &'a [u32],
    bounds_per_seg: &'a [&'a [Itv<F>]],
    out: &'a mut [Itv<F>],
}

impl<F: Fp> LaneKernel for ConcretizeDense<'_, F> {
    /// Blocks of `LIVE` rows, as [`ConcretizeBlocks`]; the products in
    /// column blocks of `FULL`, as [`GemmLaunch`]'s.
    #[inline(always)]
    fn run<const FULL: usize, const LIVE: usize>(self) {
        self.blocks::<FULL, LIVE, true>()
    }
}

impl<F: Fp> ConcretizeDense<'_, F> {
    /// The launch in blocks of `L` rows, each plane's products of a block
    /// into the scratch and then the block's candidates from it: in the
    /// build's lane loops when `WIDE` — a `FULL`-column [`GemmLaunch`], and
    /// [`ConcretizeBlocks`]' row-block step through the build's entry, so
    /// that the candidates run the code a concretize launch runs, not a copy
    /// of it whose registers the products' loops share — on their chains
    /// otherwise.
    #[inline(always)]
    fn blocks<const FULL: usize, const L: usize, const WIDE: bool>(self) {
        let (k, n) = (self.weights.k(), self.weights.n());
        let block = L.min(self.out.len()) * n;
        let mut scratch = vec![Itv::zero(); 2 * block];
        let (s_lo, s_hi) = scratch.split_at_mut(block);
        let origins = [(0, 0); L];
        for r0 in (0..self.out.len()).step_by(L) {
            let live = L.min(self.out.len() - r0);
            let (rows, len) = (r0..r0 + live, live * n);
            for (a, c) in [(self.lo, &mut *s_lo), (self.hi, &mut *s_hi)] {
                let a = &a[r0 * k..(r0 + live) * k];
                let mut launch = GemmLaunch::new(a, self.weights, &mut c[..len], true, Cols::All);
                match (launch.finish_if_empty(), WIDE) {
                    (true, _) => {}
                    (false, true) => launch.run::<FULL, L>(),
                    (false, false) => launch.chain(),
                }
            }
            // The input's full window, flat: its coefficients in ascending
            // order, each against the bound of its own column.
            let geom = ExprGeom {
                win_h: 1,
                win_w: n,
                shape_h: 1,
                shape_w: n,
                chans: 1,
                origins: &origins[..live],
                seg: &self.seg[rows.clone()],
            };
            let candidates = ConcretizeBlocks {
                lo: &s_lo[..len],
                hi: &s_hi[..len],
                cst_lo: &self.cst_lo[rows.clone()],
                cst_hi: &self.cst_hi[rows.clone()],
                geom: &geom,
                bounds_per_seg: self.bounds_per_seg,
                out: &mut self.out[rows],
            };
            match WIDE {
                true => self.build.run(candidates),
                false => candidates.chain(),
            }
        }
    }
}

/// The CPU-sim [`Backend::concretize_dense`]: [`ConcretizeDense`] in
/// `build` for [`Fp::EXACT_IN_F64`]; for other scalar types the same blocks
/// of one row, each product and candidate on its per-step chain.
#[allow(clippy::too_many_arguments)]
pub(crate) fn concretize_dense_rows<F: Fp>(
    build: GemmBuild,
    lo: &[Itv<F>],
    hi: &[Itv<F>],
    weights: &DenseWeights<'_, F>,
    cst_lo: &[Itv<F>],
    cst_hi: &[Itv<F>],
    seg: &[u32],
    bounds_per_seg: &[&[Itv<F>]],
    out: &mut [Itv<F>],
) {
    if out.is_empty() {
        return;
    }
    let launch = ConcretizeDense {
        build,
        lo,
        hi,
        weights,
        cst_lo,
        cst_hi,
        seg,
        bounds_per_seg,
        out,
    };
    if F::EXACT_IN_F64 {
        build.run(launch)
    } else {
        launch.blocks::<1, 1, false>()
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

    /// [`Backend::gemm_itv_f`] over operands made beforehand — the layer's
    /// [`DenseWeights`] (`B` and its `wmax`, made once for the layer) — and,
    /// with `panels`, over each row's *live* columns: row `r` of `C` holds,
    /// in the ascending columns `panels[seg[r]].live()`, exactly the bits
    /// `gemm_itv_f` writes there — its term list, and `wmax` taken over the
    /// **whole** `B` row, dead columns included, so a non-finite weight
    /// anywhere in a row of `B` sends the rows that meet it to the per-step
    /// chain as it does there — and exact `[+0, +0]` in every other column.
    /// A [`LivePanel`] holds one segment's live columns of `B`, made once
    /// for the query and the layer. The caller lists as dead only columns
    /// whose every use multiplies them by zero (the outputs over a
    /// stably-off ReLU neuron, which the next step annihilates whatever they
    /// hold), so the zeros are exact, not merely sound, and the zero-skip of
    /// every later kernel drops them. One launch covers every segment, as
    /// `gemm_itv_f`'s does.
    ///
    /// The provided body is that definition: `gemm_itv_f` over
    /// `weights.b()`, then the dead columns zeroed. It is the conformance
    /// oracle of the method and what [`ReferenceBackend`] runs. A backend
    /// overrides it to read the operands instead of making them again and to
    /// skip the dead columns' arithmetic ([`CpuSimBackend`] takes the
    /// layer's `wmax` instead of scanning `B`, and streams each row over its
    /// segment's packed columns).
    fn gemm_itv_f_prepared<F: Fp>(
        &self,
        device: &Device<Self>,
        a: &[Itv<F>],
        weights: &DenseWeights<'_, F>,
        c: &mut [Itv<F>],
        m: usize,
        seg: &[u32],
        panels: Option<&[&LivePanel<F>]>,
    ) {
        let (b, k, n) = (weights.b(), weights.k(), weights.n());
        self.gemm_itv_f(device, a, b, c, m, k, n);
        let Some(panels) = panels.filter(|_| n > 0) else {
            return;
        };
        for (crow, &s) in c.chunks_mut(n).zip(seg) {
            let mut live = panels[s as usize].live().iter().peekable();
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

    /// [`Backend::relu_step`] against tables a caller made once for every
    /// launch through the layer: row `r` steps through
    /// `tables[geom.seg[r]]`'s relaxations and output bounds.
    ///
    /// The provided body is that definition: `relu_step` over the tables'
    /// slices. It is the conformance oracle of the method and what
    /// [`ReferenceBackend`] runs. A backend overrides it to keep what it
    /// works out of a table with the table ([`CpuSimBackend`] resolves a
    /// table's sides once for the table's life; its `relu_step` makes a
    /// table for the launch only for a segment of several rows).
    fn relu_step_tables<F: Fp>(
        &self,
        device: &Device<Self>,
        plane: &mut [Itv<F>],
        cst: &mut [Itv<F>],
        geom: &ExprGeom<'_>,
        tables: &[&ReluTable<F>],
        upper: bool,
    ) {
        let relax: Vec<&[ReluRelax<F>]> = tables.iter().map(|t| t.relax()).collect();
        let out_bounds: Vec<&[Itv<F>]> = tables.iter().map(|t| t.out_bounds()).collect();
        self.relu_step(device, plane, cst, geom, &relax, &out_bounds, upper);
    }

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

    /// The last step of a walk through a dense layer over the input, and
    /// the candidate it yields: both planes `lo`, `hi` (`m` rows of
    /// `weights.k()` coefficients) times the layer's [`DenseWeights`], then
    /// each row of the products concretized from its constants `cst_lo[r]`,
    /// `cst_hi[r]` (the bias already folded in) against its segment's bounds
    /// of the input, `bounds_per_seg[seg[r]]` (`weights.n()` each), into
    /// `out[r]`. Every candidate is, bit for bit, what the two products and
    /// [`Backend::concretize`] over the input's full window give.
    ///
    /// The provided body is that sequence: two [`Backend::gemm_itv_f_prepared`]
    /// launches, without panels, into fresh `m × n` planes, then
    /// `concretize` over a flat window of `n`. It is the conformance oracle
    /// of the method. A backend overrides it so that the products' planes
    /// never exist: [`CpuSimBackend`] runs one launch over blocks of rows,
    /// its scratch one row block of `n` columns a plane (module docs,
    /// "Concretize through a dense layer").
    fn concretize_dense<F: Fp>(
        &self,
        device: &Device<Self>,
        lo: &[Itv<F>],
        hi: &[Itv<F>],
        weights: &DenseWeights<'_, F>,
        cst_lo: &[Itv<F>],
        cst_hi: &[Itv<F>],
        seg: &[u32],
        bounds_per_seg: &[&[Itv<F>]],
        out: &mut [Itv<F>],
    ) {
        let (m, n) = (out.len(), weights.n());
        let mut planes = [vec![Itv::zero(); m * n], vec![Itv::zero(); m * n]];
        for (a, c) in [lo, hi].into_iter().zip(&mut planes) {
            self.gemm_itv_f_prepared(device, a, weights, c, m, seg, None);
        }
        let origins = vec![(0, 0); m];
        let geom = ExprGeom {
            win_h: 1,
            win_w: n,
            shape_h: 1,
            shape_w: n,
            chans: 1,
            origins: &origins,
            seg,
        };
        let [lo, hi] = &planes;
        self.concretize(device, lo, hi, cst_lo, cst_hi, &geom, bounds_per_seg, out);
    }
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
        gemm_itv_rows(GemmBuild::detected(), a, b, c, (k, n), true);
    }

    fn gemm_itv_f_prepared<F: Fp>(
        &self,
        _device: &Device<Self>,
        a: &[Itv<F>],
        weights: &DenseWeights<'_, F>,
        c: &mut [Itv<F>],
        _m: usize,
        seg: &[u32],
        panels: Option<&[&LivePanel<F>]>,
    ) {
        gemm_itv_prepared_rows(GemmBuild::detected(), a, weights, c, seg, panels);
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
        gemm_itv_rows(GemmBuild::detected(), a, b, c, (k, n), false);
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
        gbc_rows(
            GemmBuild::detected(),
            src,
            src_geom,
            weight,
            conv,
            dst,
            dst_origins,
            dst_cols,
            dst_ww,
        )
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
        bias_fold_rows(
            GemmBuild::detected(),
            plane,
            geom.cols(),
            bias,
            src_cst,
            out_cst,
        )
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
        // Resolving a table is scheduling: a segment of several rows makes
        // one for the launch and resolves it once for all of them; a lone
        // row takes the rule as written, and a segment without rows nothing.
        let rows = geom.seg_rows(relax_per_seg.len());
        let tables: Vec<Option<ReluTable<F>>> = relax_per_seg
            .iter()
            .zip(out_bounds_per_seg)
            .zip(rows)
            .map(|((relax, out_bounds), rows)| {
                (rows > 1).then(|| ReluTable::from_parts(relax.to_vec(), out_bounds.to_vec()))
            })
            .collect();
        let cols = geom.cols();
        for (r, (row, c)) in plane.chunks_mut(cols.max(1)).zip(cst).enumerate() {
            let s = geom.seg[r] as usize;
            match &tables[s] {
                Some(t) => relu_step_table_row(r, row, c, geom, t, upper),
                None => relu_step_row(
                    r,
                    row,
                    c,
                    geom,
                    relax_per_seg[s],
                    out_bounds_per_seg[s],
                    upper,
                    false,
                ),
            }
        }
    }

    fn relu_step_tables<F: Fp>(
        &self,
        _device: &Device<Self>,
        plane: &mut [Itv<F>],
        cst: &mut [Itv<F>],
        geom: &ExprGeom<'_>,
        tables: &[&ReluTable<F>],
        upper: bool,
    ) {
        if cst.is_empty() {
            return;
        }
        let cols = geom.cols();
        for (r, (row, c)) in plane.chunks_mut(cols.max(1)).zip(cst).enumerate() {
            relu_step_table_row(r, row, c, geom, tables[geom.seg[r] as usize], upper);
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
        concretize_rows(
            GemmBuild::detected(),
            lo,
            hi,
            cst_lo,
            cst_hi,
            geom,
            bounds_per_seg,
            out,
        )
    }

    fn concretize_dense<F: Fp>(
        &self,
        _device: &Device<Self>,
        lo: &[Itv<F>],
        hi: &[Itv<F>],
        weights: &DenseWeights<'_, F>,
        cst_lo: &[Itv<F>],
        cst_hi: &[Itv<F>],
        seg: &[u32],
        bounds_per_seg: &[&[Itv<F>]],
        out: &mut [Itv<F>],
    ) {
        concretize_dense_rows(
            GemmBuild::detected(),
            lo,
            hi,
            weights,
            cst_lo,
            cst_hi,
            seg,
            bounds_per_seg,
            out,
        )
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
    use crate::conformance::RowReductionCase;
    use crate::{scan, DeviceConfig};

    /// Panics, naming `what` and the first element that differs, unless
    /// `got` and `want` hold the same bits.
    fn assert_same_bits(got: &[Itv<f32>], want: &[Itv<f32>], what: &str) {
        let bits = |v: &Itv<f32>| (v.lo.to_bits(), v.hi.to_bits());
        assert_eq!(got.len(), want.len(), "{what}");
        if let Some(i) = (0..got.len()).find(|&i| bits(&got[i]) != bits(&want[i])) {
            panic!("{what}: element {i} is {}, not {}", got[i], want[i]);
        }
    }

    /// `m×k` coefficients (exact zeros of both signs, points, intervals),
    /// `k×n` weights and `m×n` starts for the accumulating kernel, a fifth of
    /// them `-0.0`; from `m ≥ 6`, `k ≥ 8`, `n ≥ 7` the rows of
    /// `conformance::check_gemm_special_rows` too: an `inf` bound (row 0), an
    /// unbounded coefficient (row 1), no term (row 2), one term (row 3), and
    /// a `-inf` weight met by row 5 but not by row 4; from `m ≥ 7`, row 6
    /// sums `B[0][j] + 2⁴⁰·B[1][j] − 2⁴⁰·B[1][j]`, whose bits change with the
    /// order of its terms: in this one the `f64` sum loses low bits of
    /// `B[0][j]` that the reverse order keeps, and the bound `e` is far below
    /// an `f32` step of it.
    fn operands(m: usize, k: usize, n: usize) -> (Vec<Itv<f32>>, Vec<f32>, Vec<Itv<f32>>) {
        let mut x = (m * 1_000_003 + k * 1009 + n) as u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        };
        let mut a: Vec<Itv<f32>> = (0..m * k)
            .map(|_| match ((next() + 1.0) * 3.0) as usize {
                0 => Itv::zero(),
                1 => Itv::point(-0.0),
                2 => {
                    let lo = next();
                    Itv::new(lo, lo + next().abs())
                }
                _ => Itv::point(next()),
            })
            .collect();
        let mut b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let init = (0..m * n)
            .map(|_| match next() < -0.6 {
                true => Itv::point(-0.0),
                false => Itv::point(next()),
            })
            .collect();
        if m >= 6 && k >= 8 && n >= 7 {
            a[3] = Itv::new(1.0, f32::INFINITY);
            a[k + 7] = Itv::top();
            a[2 * k..3 * k].fill(Itv::zero());
            a[2 * k + 4] = Itv::point(-0.0);
            a[3 * k..4 * k].fill(Itv::zero());
            a[3 * k + 5] = Itv::new(0.1, 0.3);
            a[4 * k + 2] = Itv::point(-0.0);
            a[5 * k + 2] = Itv::new(-0.5, 0.25);
            b[2 * n + 6] = f32::NEG_INFINITY;
        }
        if m >= 7 && k >= 8 && n >= 7 {
            a[6 * k..7 * k].fill(Itv::zero());
            a[6 * k] = Itv::point(1.0);
            a[6 * k + 1] = Itv::point(2f32.powi(40));
            a[6 * k + 3] = Itv::point(-(2f32.powi(40)));
            b.copy_within(n..2 * n, 3 * n);
        }
        (a, b, init)
    }

    /// Live lists of 1, 7, 8, 9, 16 and 17 columns (as many as `n` has),
    /// spread over the row, then none and all of them.
    fn live_lists(n: usize) -> Vec<Vec<u32>> {
        let spread = |len: usize| (0..len).map(|i| (i * n / len) as u32).collect();
        let mut lists: Vec<Vec<u32>> = [1, 7, 8, 9, 16, 17]
            .into_iter()
            .filter(|&len| len <= n)
            .map(spread)
            .collect();
        lists.push(Vec::new());
        lists.push((0..n as u32).collect());
        lists
    }

    /// The three GEMM kernels of one build on one shape: fresh, accumulating
    /// and live — the prepared entry over the build's panels, every row in
    /// the segment `i mod lists`.
    fn gemm_in(build: GemmBuild, (m, k, n): (usize, usize, usize)) -> [Vec<Itv<f32>>; 3] {
        let (a, b, init) = operands(m, k, n);
        let lists = live_lists(n);
        let seg: Vec<u32> = (0..m).map(|i| (i % lists.len()) as u32).collect();
        let mut fresh = vec![Itv::point(9.0); m * n];
        build.gemm_itv_f(&a, &b, &mut fresh, (m, k, n));
        let mut acc = init;
        gemm_itv_rows(build, &a, &b, &mut acc, (k, n), false);
        let wmax = crate::gemm::layer_wmax(&b, k, n);
        let weights = DenseWeights::new(&b, &wmax, k, n);
        let panels: Vec<LivePanel<f32>> = lists
            .iter()
            .map(|l| build.live_panel(&weights, l))
            .collect();
        let panels: Vec<&LivePanel<f32>> = panels.iter().collect();
        let mut live = vec![Itv::point(9.0); m * n];
        build.gemm_itv_f_prepared(&a, &weights, &mut live, m, &seg, Some(&panels));
        [fresh, acc, live]
    }

    /// The straight-line form of [`gemm_in`]: [`reference_gemm_itv`], and
    /// the live launch as the provided `gemm_itv_f_prepared` defines it.
    fn gemm_by_reference((m, k, n): (usize, usize, usize)) -> [Vec<Itv<f32>>; 3] {
        let (a, b, init) = operands(m, k, n);
        let lists = live_lists(n);
        let mut fresh = vec![Itv::point(9.0); m * n];
        reference_gemm_itv(&a, &b, &mut fresh, k, n, true);
        let mut acc = init;
        reference_gemm_itv(&a, &b, &mut acc, k, n, false);
        let mut live = fresh.clone();
        for (i, row) in live.chunks_mut(n.max(1)).enumerate() {
            let list = &lists[i % lists.len()];
            for (j, v) in row.iter_mut().enumerate() {
                if !list.contains(&(j as u32)) {
                    *v = Itv::zero();
                }
            }
        }
        [fresh, acc, live]
    }

    /// Both builds of `CpuSimBackend`'s GEMM kernels, called directly and
    /// whichever the process detected: the baseline build writes the
    /// straight-line bits on every host (where the process runs the AVX-512
    /// build, the conformance suite does not reach it), and the AVX-512
    /// build writes the baseline's wherever the host has it — across the 4-,
    /// 8- and 16-lane block edges, the conformance suite's blocking shapes
    /// and the special rows. A build that sums a row's terms in another
    /// order fails on the cancelling row.
    #[test]
    fn both_gemm_builds_write_the_same_bits() {
        let mut shapes = vec![
            (1, 1, 1),
            (3, 5, 7),
            (4, 4, 8),
            (5, 9, 9),
            (6, 10, 16),
            (7, 3, 17),
            (9, 16, 130),
            (2, 3, 519),
            (7, 11, 19),
            (3, 0, 5),
        ];
        shapes.extend([15, 16, 17, 33, 784].map(|n| (7, 11, n)));
        let kernels = [
            "gemm_itv_f",
            "gemm_itv_f_acc",
            "gemm_itv_f_prepared (panels)",
        ];
        let wide = GemmBuild::Avx512.is_available();
        if !wide {
            eprintln!("note: no AVX-512F on this host; the AVX-512 half of this test is skipped");
        }
        for shape in shapes {
            let baseline = gemm_in(GemmBuild::Baseline, shape);
            let want = gemm_by_reference(shape);
            for ((kernel, got), want) in kernels.iter().zip(&baseline).zip(&want) {
                assert_same_bits(got, want, &format!("{kernel} {shape:?}, baseline build"));
            }
            if wide {
                let avx512 = gemm_in(GemmBuild::Avx512, shape);
                for ((kernel, got), want) in kernels.iter().zip(&avx512).zip(&baseline) {
                    assert_same_bits(got, want, &format!("{kernel} {shape:?}, AVX-512 build"));
                }
            }
        }
    }

    /// One GBC launch of [`both_gbc_builds_write_the_same_bits`].
    struct GbcCase {
        conv: GbcShape,
        src: Vec<Itv<f32>>,
        win: (usize, usize),
        origins: Vec<(i32, i32)>,
        seg: Vec<u32>,
        weight: Vec<f32>,
        dst_win: (usize, usize),
        dst_origins: Vec<(i32, i32)>,
    }

    impl GbcCase {
        /// `c_in`, `kw` and the stride as given, `c_out = 3`, a `kw × kw`
        /// filter padded by `kw / 2` over a 9×10 input. With `full`, two
        /// rows whose windows cover the whole conv output; otherwise 2×3
        /// windows on its corners, inside it and one column in. Each
        /// destination window is the source window grown through the
        /// filter, clipped to the input and slid inside it, so that runs are
        /// clipped on the left and on the right; every third row's window is
        /// then moved one column right, so that some terms land nowhere and
        /// some positions are reached by none. The coefficients mix exact
        /// zeros of both signs, points and intervals. With `special`, row 1
        /// holds an infinite coefficient (the positions it reaches fall back
        /// to the chain), a weight is NaN, and the last row is all zeros but
        /// for three coefficients at one position, `1`, `2⁴⁰` and `−2⁴⁰`,
        /// met through the same weights in their last two channels: a sum
        /// whose bits change with the order of its terms.
        fn new(cin: usize, kw: usize, stride: usize, full: bool, special: bool) -> Self {
            let conv = GbcShape {
                kh: kw,
                kw,
                sh: stride,
                sw: stride,
                ph: kw / 2,
                pw: kw / 2,
                cout: 3,
                cin,
                in_h: 9,
                in_w: 10,
            };
            let out = (
                (conv.in_h + 2 * conv.ph - kw) / stride + 1,
                (conv.in_w + 2 * conv.pw - kw) / stride + 1,
            );
            let (win, origins) = if full {
                (out, vec![(0, 0); 2])
            } else {
                let (h, w) = (out.0 as i32 - 2, out.1 as i32 - 3);
                (
                    (2, 3),
                    vec![(0, 0), (0, w), (h / 2, w / 2), (h, 0), (h, w), (0, 1)],
                )
            };
            let mut x = (cin * 1009 + kw * 31 + stride * 7 + usize::from(full)) as u64;
            let mut next = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            };
            let cols = win.0 * win.1 * conv.cout;
            let rows = origins.len();
            let mut src: Vec<Itv<f32>> = (0..rows * cols)
                .map(|_| match ((next() + 1.0) * 3.0) as usize {
                    0 => Itv::zero(),
                    1 => Itv::point(-0.0),
                    2 => {
                        let lo = next();
                        Itv::new(lo, lo + next().abs())
                    }
                    _ => Itv::point(next()),
                })
                .collect();
            let mut weight: Vec<f32> = (0..kw * kw * conv.cout * cin).map(|_| next()).collect();
            if special {
                src[cols + 4] = Itv::new(-1.0, f32::INFINITY);
                weight[conv.widx(kw - 1, 0, 0, cin - 1)] = f32::NAN;
                let last = &mut src[(rows - 1) * cols..];
                last.fill(Itv::zero());
                last[..3].copy_from_slice(&[
                    Itv::point(1.0),
                    Itv::point(2f32.powi(40)),
                    Itv::point(-(2f32.powi(40))),
                ]);
                for t in 0..kw * kw {
                    let at = (t * conv.cout + 1) * cin;
                    weight.copy_within(at..at + cin, at + cin);
                }
            }
            let dst_win = (
                ((win.0 - 1) * stride + kw).min(conv.in_h),
                ((win.1 - 1) * stride + kw).min(conv.in_w),
            );
            let slide = |o: i32, pad: usize, w: usize, extent: usize| {
                (o * stride as i32 - pad as i32).clamp(0, (extent - w) as i32)
            };
            let dst_origins = origins
                .iter()
                .enumerate()
                .map(|(r, &(oh, ow))| {
                    let room = (conv.in_w - dst_win.1) as i32;
                    let ow = slide(ow, conv.pw, dst_win.1, conv.in_w) + i32::from(r % 3 == 2);
                    (slide(oh, conv.ph, dst_win.0, conv.in_h), ow.min(room))
                })
                .collect();
            Self {
                conv,
                src,
                win,
                seg: vec![0; rows],
                origins,
                weight,
                dst_win,
                dst_origins,
            }
        }

        fn geom(&self) -> ExprGeom<'_> {
            let (conv, s) = (&self.conv, self.conv.sh);
            ExprGeom {
                win_h: self.win.0,
                win_w: self.win.1,
                shape_h: (conv.in_h + 2 * conv.ph - conv.kh) / s + 1,
                shape_w: (conv.in_w + 2 * conv.pw - conv.kw) / s + 1,
                chans: conv.cout,
                origins: &self.origins,
                seg: &self.seg,
            }
        }

        /// The launch in `build`, into a destination that was not zeroed.
        fn run(&self, build: GemmBuild) -> Vec<Itv<f32>> {
            let dst_cols = self.dst_win.0 * self.dst_win.1 * self.conv.cin;
            let mut dst = vec![Itv::point(9.0); self.origins.len() * dst_cols];
            build.gbc(
                &self.src,
                &self.geom(),
                &self.weight,
                &self.conv,
                &mut dst,
                &self.dst_origins,
                dst_cols,
                self.dst_win.1,
            );
            dst
        }

        fn oracle(&self) -> Vec<Itv<f32>> {
            crate::conformance::oracle_gbc(
                &self.src,
                &self.geom(),
                &self.weight,
                &self.conv,
                &self.dst_origins,
                self.dst_win,
            )
        }
    }

    /// [`assert_same_bits`] where a NaN matches any NaN (a NaN weight's
    /// payload is not part of the contract).
    fn assert_same_bits_or_nan(got: &[Itv<f32>], want: &[Itv<f32>], what: &str) {
        let same = |g: f32, w: f32| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        assert_eq!(got.len(), want.len(), "{what}");
        let differs = |i: &usize| !(same(got[*i].lo, want[*i].lo) && same(got[*i].hi, want[*i].hi));
        if let Some(i) = (0..got.len()).find(differs) {
            panic!("{what}: element {i} is {}, not {}", got[i], want[i]);
        }
    }

    /// Both builds of `CpuSimBackend`'s GBC, called directly: the baseline
    /// build writes the contract's bits ([`crate::conformance::oracle_gbc`])
    /// on every host — where the process runs the AVX-512 build, the
    /// conformance suite does not reach it — and the AVX-512 build writes
    /// the baseline's wherever the host has it: `c_in` 1, 3, 4, 8 and 16,
    /// `kw` 1, 3, 4 and 5, strides 1 and 2, windows clipped on either side,
    /// positions no term reaches, the chain's positions, and a row whose
    /// sum depends on the order of its terms ([`GbcCase::new`]).
    #[test]
    fn both_gbc_builds_write_the_same_bits() {
        let wide = GemmBuild::Avx512.is_available();
        if !wide {
            eprintln!("note: no AVX-512F on this host; the AVX-512 half of this test is skipped");
        }
        let (mut unreached, mut fallen_back) = (0, 0);
        for cin in [1, 3, 4, 8, 16] {
            for kw in [1, 3, 4, 5] {
                for stride in [1, 2] {
                    for (full, special) in [(false, false), (false, true), (true, false)] {
                        let case = GbcCase::new(cin, kw, stride, full, special);
                        let what = format!(
                            "gbc c_in {cin} kw {kw} stride {stride}{}{}",
                            if full { ", full windows" } else { "" },
                            if special { ", special rows" } else { "" },
                        );
                        let baseline = case.run(GemmBuild::Baseline);
                        let want = case.oracle();
                        assert_same_bits_or_nan(
                            &baseline,
                            &want,
                            &format!("{what}, baseline build"),
                        );
                        unreached += baseline
                            .iter()
                            .filter(|v| v.lo.to_bits() == 0 && v.hi.to_bits() == 0)
                            .count();
                        fallen_back += baseline.iter().filter(|v| !v.is_finite()).count();
                        if wide {
                            let avx512 = case.run(GemmBuild::Avx512);
                            assert_same_bits_or_nan(
                                &avx512,
                                &baseline,
                                &format!("{what}, AVX-512 build"),
                            );
                        }
                    }
                }
            }
        }
        assert!(
            unreached > 0 && fallen_back > 0,
            "the cases lost their corners"
        );
    }

    /// Both builds of `CpuSimBackend`'s row reductions, concretize and the
    /// bias fold, called directly: the baseline build writes the contract's
    /// bits ([`crate::conformance::oracle_concretize`],
    /// [`crate::conformance::oracle_bias_fold_row`]) on every host — where
    /// the process runs the AVX-512 build, the conformance suite does not
    /// reach it — and the AVX-512 build writes the baseline's wherever the
    /// host has it: 1 to 17 rows, full and partial blocks of four and eight,
    /// segments shared and interleaved, non-finite operands inside a block,
    /// and a row whose sum depends on the order of its terms
    /// ([`RowReductionCase`]).
    #[test]
    fn both_row_reduction_builds_write_the_same_bits() {
        let wide = GemmBuild::Avx512.is_available();
        if !wide {
            eprintln!("note: no AVX-512F on this host; the AVX-512 half of this test is skipped");
        }
        for rows in 1..=17 {
            for layout in 0..3 {
                let case = RowReductionCase::new(rows, layout);
                let (geom, bounds) = (case.geom(), case.bounds());
                let run = |build: GemmBuild| {
                    let mut candidates = vec![Itv::point(9.0); rows];
                    let (lo, hi) = (&case.lo, &case.hi);
                    build.concretize(
                        lo,
                        hi,
                        &case.cst_lo,
                        &case.cst_hi,
                        &geom,
                        &bounds,
                        &mut candidates,
                    );
                    let mut folded = vec![Itv::point(9.0); rows];
                    build.bias_fold(lo, &geom, &case.bias, &case.cst_lo, &mut folded);
                    [candidates, folded]
                };
                let baseline = run(GemmBuild::Baseline);
                let want = [case.concretized(), case.bias_folded()];
                for ((kernel, got), want) in
                    ["concretize", "bias_fold"].iter().zip(&baseline).zip(&want)
                {
                    let what = format!("{kernel}, {rows} rows, layout {layout}");
                    assert_same_bits_or_nan(got, want, &format!("{what}, baseline build"));
                }
                if wide {
                    let avx512 = run(GemmBuild::Avx512);
                    for ((kernel, got), want) in ["concretize", "bias_fold"]
                        .iter()
                        .zip(&avx512)
                        .zip(&baseline)
                    {
                        let what = format!("{kernel}, {rows} rows, layout {layout}");
                        assert_same_bits_or_nan(got, want, &format!("{what}, AVX-512 build"));
                    }
                }
            }
        }
    }

    /// A geometry whose `seg` is shorter than its rows is refused at the
    /// launch, naming the kernel, not deep inside it.
    #[test]
    #[should_panic(expected = "concretize: one segment index per row")]
    fn a_short_segment_list_is_refused_at_the_launch() {
        let case = RowReductionCase::new(5, 1);
        let mut geom = case.geom();
        geom.seg = &geom.seg[..4];
        let mut out = vec![Itv::point(9.0); 5];
        let device = Device::new(DeviceConfig::new());
        let (lo, hi, bounds) = (&case.lo, &case.hi, case.bounds());
        crate::kernels::concretize(
            &device,
            lo,
            hi,
            &case.cst_lo,
            &case.cst_hi,
            &geom,
            &bounds,
            &mut out,
        );
    }

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

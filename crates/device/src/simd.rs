//! The two builds of the interval kernels' row loops, and the one place a
//! process picks between them.
//!
//! The lane loops of [`CpuSimBackend`](crate::CpuSimBackend)'s GEMM family —
//! the full product's register blocks and the live product's blocks over
//! its panels' packed columns — of its GBC scatter — the
//! blocks a term adds to, and the block epilogue that ends a destination
//! row — of its row reductions, concretize and the bias fold — row
//! blocks, one row a lane, stepping through their rows' coefficients
//! together — and of a walk's last dense step with its candidate — the
//! full product's blocks over one row block's rows, whose candidates it
//! takes through the build's concretize instance — are generic over their
//! lane count ([`LaneKernel`]) and
//! compiled twice: [`GemmBuild::Baseline`] for the target's baseline
//! instruction set (SSE2 on x86-64), and [`GemmBuild::Avx512`] with `avx512f`
//! enabled and wider blocks. Both run the same IEEE operations per output in
//! the same order — a lane is a lane however many sit in a register, and
//! Rust never contracts `a * b + c` into an FMA — so they write the same
//! bits, which the tests of [`crate::backend`] check by calling both. The
//! epilogues of the wide rule are compiled into both builds too, as lane
//! loops — per output a handful of directed steps written as IEEE
//! operations and integer operations on bit patterns, which give one result
//! at any width — but never next to the lane loop whose sums they take: a
//! block stores its raw sums and one pass over the row (the GEMM's
//! [`Widening::enclose_lanes`]), over the launch's rows (the row blocks'
//! [`RowSums::finish`]) or over a destination row (GBC's
//! [`WideRow::finish`]) turns them into outputs. Written after the lane
//! loop in the same straight-line code, the epilogue decides how the
//! compiler lays the loop's accumulators out in registers — a lane's lower
//! sum beside its upper one, every step then paying shuffles — and, compiled
//! once out of line for the baseline instead, it cost the GEMM a third of
//! its time. Only the per-step chains, which take the rows the wide rule
//! hands back, are compiled once and never inlined into either build.
//!
//! Which build a process runs is decided once, by
//! `is_x86_feature_detected!`, the first time a kernel launches
//! ([`GemmBuild::detected`]); a host without AVX-512F, and every other
//! architecture, runs the baseline build. There is no option to choose.
//!
//! This module holds the crate's one `unsafe` — the repository has two; the
//! other is the rayon shim's lifetime erasure in `drive` — and the crate
//! allows it here only: the call into the AVX-512 build, made once
//! `is_x86_feature_detected!` has said the host executes AVX-512F, the one
//! precondition of a function compiled with `avx512f` enabled.
//!
//! [`Widening::enclose_lanes`]: gpupoly_interval::wide::Widening::enclose_lanes
//! [`RowSums::finish`]: gpupoly_interval::wide::RowSums::finish
//! [`WideRow::finish`]: gpupoly_interval::wide::WideRow::finish

use std::sync::OnceLock;

use gpupoly_interval::{Fp, Itv};

use crate::backend::{ExprGeom, GbcShape};
use crate::gemm::{DenseWeights, LivePanel};
use crate::{backend, gemm, kernels};

/// The lane counts of one build: `FULL` columns of `B` per register block of
/// the full product, `LIVE` packed live columns per block of the live one
/// and rows per row block of concretize, the bias fold and the last dense
/// step (GBC sizes its blocks from both and from its launch's shape). A
/// launch of a row kernel implements this to be run by either build.
pub(crate) trait LaneKernel {
    /// Runs the launch at the build's lane counts. Implementations are
    /// `#[inline(always)]`, so that their lane loops are compiled inside the
    /// build's entry point, with its target features.
    fn run<const FULL: usize, const LIVE: usize>(self);
}

/// Lanes of the baseline build's blocks, full, live and row blocks alike.
/// Four lanes of `lo` and `hi` sums take four of baseline x86-64's sixteen
/// 128-bit vector registers, and the block's weights and products most of
/// the rest. A sweep of wider blocks and multi-row micro-kernels found none
/// more than 10 % ahead — on baseline x86-64, which is all that sweep
/// covered; with AVX-512's thirty-two 512-bit registers the wider blocks
/// below are. A row block of two rows timed within noise of four.
const BASELINE_LANES: usize = 4;

/// Lanes of the AVX-512 build's full-product block: sixteen columns of `B`
/// are one 512-bit load of `f32` weights, and their sums four `zmm`
/// registers. Ahead of eight lanes by 3–8 % on each of seven walk-shaped
/// products (`m` 3–40, `k` 100 or 784, `n` 10, 100 or 784), timed
/// interleaved in one process.
const AVX512_FULL_LANES: usize = 16;

/// Lanes of the AVX-512 build's live-product block: one `zmm` register of
/// packed `f64` weights per term. Ahead of sixteen lanes by about 10 % on
/// the same shapes: a segment's live columns are a few dozen, and a narrower
/// block leaves fewer lanes idle in the last one. Also the rows of its row
/// blocks: one `zmm` register a sum.
const AVX512_LIVE_LANES: usize = 8;

/// A build of the interval kernels' row loops: the GEMM family's, GBC's,
/// the row blocks of concretize and the bias fold, and the last dense step's
/// (the name is the one the GEMM gave it). Both write the same bits; they
/// differ in speed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GemmBuild {
    /// Compiled for the target's baseline instruction set, blocks of four
    /// lanes (GBC's of eight; row blocks of four rows). Runs everywhere.
    Baseline,
    /// Compiled with `avx512f` enabled: blocks of sixteen columns of `B` in
    /// the full product, eight packed columns in the live one, up to
    /// thirty-two elements in GBC's, and eight rows in a row block. x86-64
    /// hosts with AVX-512F only; running it elsewhere panics.
    Avx512,
}

impl GemmBuild {
    /// The build this process runs: [`GemmBuild::Avx512`] when the host has
    /// AVX-512F, [`GemmBuild::Baseline`] otherwise. Detected once, on the
    /// first call.
    pub fn detected() -> Self {
        static DETECTED: OnceLock<GemmBuild> = OnceLock::new();
        *DETECTED.get_or_init(|| match has_avx512() {
            true => Self::Avx512,
            false => Self::Baseline,
        })
    }

    /// Whether this host can run the build.
    pub fn is_available(self) -> bool {
        match self {
            Self::Baseline => true,
            Self::Avx512 => has_avx512(),
        }
    }

    /// [`Backend::gemm_itv_f`] as [`CpuSimBackend`] computes it, in this
    /// build, on no device (nothing is metered): `C = A · B`, `A: m×k`
    /// intervals, `B: k×n`. What the benches and tests hold the builds to
    /// each other with; an engine runs [`GemmBuild::detected`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches, and for [`GemmBuild::Avx512`] on a
    /// host without AVX-512F.
    ///
    /// [`Backend::gemm_itv_f`]: crate::Backend::gemm_itv_f
    /// [`CpuSimBackend`]: crate::CpuSimBackend
    pub fn gemm_itv_f<F: Fp>(
        self,
        a: &[Itv<F>],
        b: &[F],
        c: &mut [Itv<F>],
        (m, k, n): (usize, usize, usize),
    ) {
        gemm::check_dims(a, b, c, m, k, n);
        backend::gemm_itv_rows(self, a, b, c, (k, n), true);
    }

    /// [`Backend::gemm_itv_f_prepared`] as [`CpuSimBackend`] computes it,
    /// in this build, on no device: [`GemmBuild::gemm_itv_f`] over
    /// `weights`, or with `panels` row `r` the ascending columns
    /// `panels[seg[r]].live()` of `A · B` and exact zeros elsewhere, each
    /// panel made for this build ([`GemmBuild::live_panel`]).
    ///
    /// # Panics
    ///
    /// As [`GemmBuild::gemm_itv_f`], and with `panels` when `seg` does not
    /// have `m` entries or names a segment without a panel, or a panel was
    /// made for another build or over another shape of `B`.
    ///
    /// [`Backend::gemm_itv_f_prepared`]: crate::Backend::gemm_itv_f_prepared
    /// [`CpuSimBackend`]: crate::CpuSimBackend
    pub fn gemm_itv_f_prepared<F: Fp>(
        self,
        a: &[Itv<F>],
        weights: &DenseWeights<'_, F>,
        c: &mut [Itv<F>],
        m: usize,
        seg: &[u32],
        panels: Option<&[&LivePanel<F>]>,
    ) {
        let (k, n) = (weights.k(), weights.n());
        gemm::check_dims(a, weights.b(), c, m, k, n);
        if let Some(panels) = panels {
            assert_eq!(seg.len(), m, "GEMM: one segment index per row");
            assert!(
                panels.iter().all(|p| p.fits(k, n)),
                "GEMM: a live panel made over another shape of B"
            );
        }
        backend::gemm_itv_prepared_rows(self, a, weights, c, seg, panels);
    }

    /// The [`LivePanel`] of `weights` over the ascending columns `live`,
    /// packed for this build's live-product blocks.
    ///
    /// # Panics
    ///
    /// Panics when `live` is not strictly ascending below `n`.
    pub fn live_panel<F: Fp>(self, weights: &DenseWeights<'_, F>, live: &[u32]) -> LivePanel<F> {
        let lanes = match self {
            Self::Baseline => BASELINE_LANES,
            Self::Avx512 => AVX512_LIVE_LANES,
        };
        LivePanel::packed_for(weights, live, lanes)
    }

    /// [`Backend::gbc`] as [`CpuSimBackend`] computes it, in this build, on
    /// no device: the transpose convolution of one plane, `src` rows in the
    /// windows of `src_geom` into `dst` rows of `dst_cols` in the windows at
    /// `dst_origins`, `dst_ww` positions wide.
    ///
    /// # Panics
    ///
    /// As [`kernels::gbc`], and for [`GemmBuild::Avx512`] on a host without
    /// AVX-512F.
    ///
    /// [`Backend::gbc`]: crate::Backend::gbc
    /// [`CpuSimBackend`]: crate::CpuSimBackend
    #[allow(clippy::too_many_arguments)]
    pub fn gbc<F: Fp>(
        self,
        src: &[Itv<F>],
        src_geom: &ExprGeom<'_>,
        weight: &[F],
        conv: &GbcShape,
        dst: &mut [Itv<F>],
        dst_origins: &[(i32, i32)],
        dst_cols: usize,
        dst_ww: usize,
    ) {
        kernels::check_gbc(
            src,
            src_geom,
            weight,
            conv,
            dst,
            dst_origins,
            dst_cols,
            dst_ww,
        );
        backend::gbc_rows(
            self,
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

    /// [`Backend::concretize`] as [`CpuSimBackend`] computes it, in this
    /// build, on no device: row `r`'s candidate from both planes against
    /// the bounds of its segment, `bounds_per_seg[geom.seg[r]]`.
    ///
    /// # Panics
    ///
    /// As [`kernels::concretize`], and for [`GemmBuild::Avx512`] on a host
    /// without AVX-512F.
    ///
    /// [`Backend::concretize`]: crate::Backend::concretize
    /// [`CpuSimBackend`]: crate::CpuSimBackend
    #[allow(clippy::too_many_arguments)]
    pub fn concretize<F: Fp>(
        self,
        lo: &[Itv<F>],
        hi: &[Itv<F>],
        cst_lo: &[Itv<F>],
        cst_hi: &[Itv<F>],
        geom: &ExprGeom<'_>,
        bounds_per_seg: &[&[Itv<F>]],
        out: &mut [Itv<F>],
    ) {
        kernels::check_concretize(lo, hi, cst_lo, cst_hi, geom, bounds_per_seg, out);
        backend::concretize_rows(self, lo, hi, cst_lo, cst_hi, geom, bounds_per_seg, out);
    }

    /// [`Backend::concretize_dense`] as [`CpuSimBackend`] computes it, in
    /// this build, on no device: row `r`'s candidate from both planes'
    /// products with `weights`, started from its constants, against the
    /// bounds of its segment, `bounds_per_seg[seg[r]]`, without writing the
    /// products out.
    ///
    /// # Panics
    ///
    /// As [`gemm::concretize_dense`], and for [`GemmBuild::Avx512`] on a
    /// host without AVX-512F.
    ///
    /// [`Backend::concretize_dense`]: crate::Backend::concretize_dense
    /// [`CpuSimBackend`]: crate::CpuSimBackend
    #[allow(clippy::too_many_arguments)]
    pub fn concretize_dense<F: Fp>(
        self,
        lo: &[Itv<F>],
        hi: &[Itv<F>],
        weights: &DenseWeights<'_, F>,
        cst_lo: &[Itv<F>],
        cst_hi: &[Itv<F>],
        seg: &[u32],
        bounds_per_seg: &[&[Itv<F>]],
        out: &mut [Itv<F>],
    ) {
        gemm::check_concretize_dense(lo, hi, weights, (cst_lo, cst_hi), seg, bounds_per_seg, out);
        backend::concretize_dense_rows(
            self,
            lo,
            hi,
            weights,
            cst_lo,
            cst_hi,
            seg,
            bounds_per_seg,
            out,
        );
    }

    /// [`Backend::bias_fold`] as [`CpuSimBackend`] computes it, in this
    /// build, on no device: `out_cst[r] = src_cst[r] + Σ_t plane[r][t] ·
    /// bias[t mod |bias|]`.
    ///
    /// # Panics
    ///
    /// As [`kernels::bias_fold`], and for [`GemmBuild::Avx512`] on a host
    /// without AVX-512F.
    ///
    /// [`Backend::bias_fold`]: crate::Backend::bias_fold
    /// [`CpuSimBackend`]: crate::CpuSimBackend
    pub fn bias_fold<F: Fp>(
        self,
        plane: &[Itv<F>],
        geom: &ExprGeom<'_>,
        bias: &[F],
        src_cst: &[Itv<F>],
        out_cst: &mut [Itv<F>],
    ) {
        kernels::check_bias_fold(plane, geom, bias, src_cst, out_cst);
        backend::bias_fold_rows(self, plane, geom.cols(), bias, src_cst, out_cst);
    }

    /// Runs `kernel` at this build's lane counts.
    ///
    /// # Panics
    ///
    /// Panics for [`GemmBuild::Avx512`] on a host without AVX-512F.
    pub(crate) fn run(self, kernel: impl LaneKernel) {
        match self {
            Self::Baseline => baseline(kernel),
            Self::Avx512 => {
                assert!(
                    has_avx512(),
                    "the AVX-512 build of the interval kernels on a host without AVX-512F"
                );
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `avx512` is safe code compiled with `avx512f`
                // enabled, and its only precondition — the host executes
                // AVX-512F instructions — was checked just above.
                unsafe {
                    avx512(kernel)
                }
            }
        }
    }
}

/// Whether the host executes AVX-512F instructions (and its OS saves their
/// registers); the standard library caches the answer.
fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The baseline build. Never inlined, so that its lane loops are a symbol of
/// their own for CI's disassembly check that they stay packed.
#[inline(never)]
fn baseline(kernel: impl LaneKernel) {
    kernel.run::<BASELINE_LANES, BASELINE_LANES>()
}

/// The AVX-512 build. Never inlined, so that its lane loops are a symbol of
/// their own for CI's disassembly check that they run on `zmm` registers — a
/// kernel body that fell out of this function would be compiled for the
/// baseline instead, and still pass every test.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline(never)]
fn avx512(kernel: impl LaneKernel) {
    kernel.run::<AVX512_FULL_LANES, AVX512_LIVE_LANES>()
}

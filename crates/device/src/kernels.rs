//! Wrappers for the verifier's walk-step kernels.
//!
//! Like [`crate::gemm`] and [`crate::scan`], the functions here are the
//! launch layer over the [`crate::Backend`] kernel surface: dimension
//! checks, launch recording and analytic flop / bytes-moved accounting
//! happen here, the math happens in the backend. Every backsubstitution
//! step of `gpupoly-core` goes through these wrappers, so
//! [`crate::DeviceStats`] sees one launch per kernel per plane — the
//! launch-count shape a real GPU port inherits unchanged — and the FLOP
//! meter ([`crate::DeviceStats::kernel_work`]) attributes arithmetic to
//! kernel labels without the verifier touching counters itself.
//!
//! Labels follow the historical `<kernel>_<plane>` convention
//! (`gbc_lo`/`gbc_hi`, `relu_step_lo`/`relu_step_hi`, ...), so launch-count
//! comparisons across engine versions and backends stay meaningful.

use gpupoly_interval::{Fp, Itv};

use crate::backend::{assert_windows_in_extent, Backend, ExprGeom, GbcShape};
use crate::relax::{ReluRelax, ReluTable};
use crate::Device;

fn itv_bytes<F>(elems: usize) -> u64 {
    (elems * std::mem::size_of::<Itv<F>>()) as u64
}

/// Scalar-equivalent flop count of one GBC plane launch: every (row,
/// window position, filter tap, channel pair) performs one interval×scalar
/// fused accumulate (2 multiplies + 2 adds). Analytic, over the *source*
/// window as stored: taps that land in the padding count, and a window the
/// caller stores smaller counts less.
pub fn flops_gbc(rows: usize, win: (usize, usize), conv: &GbcShape) -> u64 {
    4 * (rows * win.0 * win.1 * conv.kh * conv.kw * conv.cout * conv.cin) as u64
}

/// GBC transpose convolution, one plane per launch (paper Algorithm 1).
///
/// # Panics
///
/// Panics on geometry/shape mismatches, and when a source or destination
/// window leaves its layer.
#[allow(clippy::too_many_arguments)]
pub fn gbc<F: Fp, B: Backend>(
    device: &Device<B>,
    label: &'static str,
    src: &[Itv<F>],
    src_geom: &ExprGeom<'_>,
    weight: &[F],
    conv: &GbcShape,
    dst: &mut [Itv<F>],
    dst_origins: &[(i32, i32)],
    dst_cols: usize,
    dst_ww: usize,
) {
    check_gbc(
        src,
        src_geom,
        weight,
        conv,
        dst,
        dst_origins,
        dst_cols,
        dst_ww,
    );
    device.stats().record_work(
        label,
        flops_gbc(src_geom.rows(), (src_geom.win_h, src_geom.win_w), conv),
        itv_bytes::<F>(src.len() + dst.len()) + std::mem::size_of_val(weight) as u64,
    );
    device.backend().gbc(
        device,
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

/// The shape checks of [`gbc`].
///
/// # Panics
///
/// As [`gbc`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_gbc<F>(
    src: &[Itv<F>],
    src_geom: &ExprGeom<'_>,
    weight: &[F],
    conv: &GbcShape,
    dst: &[Itv<F>],
    dst_origins: &[(i32, i32)],
    dst_cols: usize,
    dst_ww: usize,
) {
    let rows = src_geom.rows();
    assert_eq!(src.len(), rows * src_geom.cols(), "gbc: source shape");
    assert_eq!(dst.len(), rows * dst_cols, "gbc: destination shape");
    assert_eq!(dst_origins.len(), rows, "gbc: destination origins");
    assert_eq!(src_geom.chans, conv.cout, "gbc: source channels");
    assert!(
        dst_ww * conv.cin > 0 && dst_cols.is_multiple_of(dst_ww * conv.cin),
        "gbc: destination window shape"
    );
    src_geom.assert_in_extent("gbc (source)");
    assert_windows_in_extent(
        "gbc (destination)",
        dst_origins,
        (dst_cols / (dst_ww * conv.cin), dst_ww),
        (conv.in_h, conv.in_w),
    );
    assert_eq!(
        weight.len(),
        conv.kh * conv.kw * conv.cout * conv.cin,
        "gbc: filter tensor shape"
    );
}

/// Bias absorption of the affine steps, one plane per launch.
///
/// # Panics
///
/// Panics on geometry/shape mismatches, an empty bias, or a window that
/// leaves the frontier extent.
pub fn bias_fold<F: Fp, B: Backend>(
    device: &Device<B>,
    label: &'static str,
    plane: &[Itv<F>],
    geom: &ExprGeom<'_>,
    bias: &[F],
    src_cst: &[Itv<F>],
    out_cst: &mut [Itv<F>],
) {
    check_bias_fold(plane, geom, bias, src_cst, out_cst);
    device.stats().record_work(
        label,
        4 * plane.len() as u64,
        itv_bytes::<F>(plane.len() + src_cst.len() + out_cst.len()),
    );
    device
        .backend()
        .bias_fold(device, plane, geom, bias, src_cst, out_cst);
}

/// The shape checks of [`bias_fold`].
///
/// # Panics
///
/// As [`bias_fold`].
pub(crate) fn check_bias_fold<F>(
    plane: &[Itv<F>],
    geom: &ExprGeom<'_>,
    bias: &[F],
    src_cst: &[Itv<F>],
    out_cst: &[Itv<F>],
) {
    let rows = geom.rows();
    assert_eq!(plane.len(), rows * geom.cols(), "bias_fold: plane shape");
    assert_eq!(src_cst.len(), rows, "bias_fold: source constants");
    assert_eq!(out_cst.len(), rows, "bias_fold: output constants");
    assert!(!bias.is_empty() || rows == 0, "bias_fold: empty bias");
    geom.assert_in_extent("bias_fold");
}

/// The DeepPoly ReLU substitution step, one plane per launch.
///
/// # Panics
///
/// Panics when a relaxation/bounds table does not cover the frontier, a row
/// has no segment index or one out of range, or a window leaves the
/// frontier extent.
#[allow(clippy::too_many_arguments)]
pub fn relu_step<F: Fp, B: Backend>(
    device: &Device<B>,
    label: &'static str,
    plane: &mut [Itv<F>],
    cst: &mut [Itv<F>],
    geom: &ExprGeom<'_>,
    relax_per_seg: &[&[ReluRelax<F>]],
    out_bounds_per_seg: &[&[Itv<F>]],
    upper: bool,
) {
    assert_eq!(
        relax_per_seg.len(),
        out_bounds_per_seg.len(),
        "relu_step: relax/out-bounds segment counts differ"
    );
    let lens = relax_per_seg.iter().zip(out_bounds_per_seg);
    check_relu_step(
        device,
        label,
        plane,
        cst,
        geom,
        lens.map(|(r, o)| (r.len(), o.len())),
    );
    device.backend().relu_step(
        device,
        plane,
        cst,
        geom,
        relax_per_seg,
        out_bounds_per_seg,
        upper,
    );
}

/// [`relu_step`] against tables made once for every launch through the
/// layer ([`Backend::relu_step_tables`]): row `r` steps through
/// `tables[geom.seg[r]]`.
///
/// # Panics
///
/// As [`relu_step`].
pub fn relu_step_tables<F: Fp, B: Backend>(
    device: &Device<B>,
    label: &'static str,
    plane: &mut [Itv<F>],
    cst: &mut [Itv<F>],
    geom: &ExprGeom<'_>,
    tables: &[&ReluTable<F>],
    upper: bool,
) {
    let lens = tables
        .iter()
        .map(|t| (t.relax().len(), t.out_bounds().len()));
    check_relu_step(device, label, plane, cst, geom, lens);
    device
        .backend()
        .relu_step_tables(device, plane, cst, geom, tables, upper);
}

/// The shape checks of a ReLU-step launch over segments whose relaxation
/// and output-bound tables are `lens` long, and its launch record.
fn check_relu_step<F: Fp, B: Backend>(
    device: &Device<B>,
    label: &'static str,
    plane: &[Itv<F>],
    cst: &[Itv<F>],
    geom: &ExprGeom<'_>,
    lens: impl ExactSizeIterator<Item = (usize, usize)>,
) {
    let rows = geom.rows();
    assert_eq!(plane.len(), rows * geom.cols(), "relu_step: plane shape");
    assert_eq!(cst.len(), rows, "relu_step: constants");
    geom.assert_in_extent("relu_step");
    geom.assert_one_segment_per_row("relu_step");
    let segments = lens.len();
    for (relax, out_bounds) in lens {
        assert_eq!(relax, geom.frontier_len(), "relu_step: relax length");
        assert_eq!(
            out_bounds,
            geom.frontier_len(),
            "relu_step: out bounds length"
        );
    }
    assert!(
        geom.seg.iter().all(|&s| (s as usize) < segments),
        "relu_step: segment index out of range for {segments} relaxation tables"
    );
    device.stats().record_work(
        label,
        4 * plane.len() as u64,
        itv_bytes::<F>(2 * plane.len() + 2 * cst.len()),
    );
}

/// Densify scatter, one plane per launch: cuboid windows expand into
/// full-frontier rows (`dst` zeroed by the caller).
///
/// # Panics
///
/// Panics on geometry/shape mismatches, and when a window leaves the
/// frontier extent.
pub fn densify<F: Fp, B: Backend>(
    device: &Device<B>,
    label: &'static str,
    src: &[Itv<F>],
    geom: &ExprGeom<'_>,
    dst: &mut [Itv<F>],
    dst_cols: usize,
) {
    let rows = geom.rows();
    assert_eq!(src.len(), rows * geom.cols(), "densify: source shape");
    assert_eq!(dst.len(), rows * dst_cols, "densify: destination shape");
    assert_eq!(dst_cols, geom.frontier_len(), "densify: full-window width");
    geom.assert_in_extent("densify");
    device
        .stats()
        .record_work(label, 0, itv_bytes::<F>(src.len() + dst.len()));
    device.backend().densify(device, src, geom, dst, dst_cols);
}

/// Residual-merge accumulation, one plane per launch: both branch
/// expressions add into the zeroed union-window destination (Eq. 4).
///
/// # Panics
///
/// Panics on geometry/shape mismatches, and when a branch or destination
/// window leaves the frontier extent.
#[allow(clippy::too_many_arguments)]
pub fn residual_merge<F: Fp, B: Backend>(
    device: &Device<B>,
    label: &'static str,
    a: &[Itv<F>],
    a_geom: &ExprGeom<'_>,
    b: &[Itv<F>],
    b_geom: &ExprGeom<'_>,
    dst: &mut [Itv<F>],
    dst_origins: &[(i32, i32)],
    dst_cols: usize,
    dst_ww: usize,
) {
    let rows = dst_origins.len();
    assert_eq!(a.len(), rows * a_geom.cols(), "residual_merge: branch a");
    assert_eq!(b.len(), rows * b_geom.cols(), "residual_merge: branch b");
    assert_eq!(dst.len(), rows * dst_cols, "residual_merge: destination");
    assert!(
        dst_ww * a_geom.chans > 0 && dst_cols.is_multiple_of(dst_ww * a_geom.chans),
        "residual_merge: destination window shape"
    );
    a_geom.assert_in_extent("residual_merge (branch a)");
    b_geom.assert_in_extent("residual_merge (branch b)");
    assert_windows_in_extent(
        "residual_merge (destination)",
        dst_origins,
        (dst_cols / (dst_ww * a_geom.chans), dst_ww),
        (a_geom.shape_h, a_geom.shape_w),
    );
    device.stats().record_work(
        label,
        2 * (a.len() + b.len()) as u64,
        itv_bytes::<F>(a.len() + b.len() + dst.len()),
    );
    device.backend().residual_merge(
        device,
        a,
        a_geom,
        b,
        b_geom,
        dst,
        dst_origins,
        dst_cols,
        dst_ww,
    );
}

/// Candidate concretization: one launch evaluates every row's sound
/// `[lower, upper]` candidate against its segment's concrete bounds.
///
/// # Panics
///
/// Panics when a bounds slice does not cover the frontier, a row has no
/// segment index or one out of range, or a window leaves the frontier
/// extent.
#[allow(clippy::too_many_arguments)]
pub fn concretize<F: Fp, B: Backend>(
    device: &Device<B>,
    lo: &[Itv<F>],
    hi: &[Itv<F>],
    cst_lo: &[Itv<F>],
    cst_hi: &[Itv<F>],
    geom: &ExprGeom<'_>,
    bounds_per_seg: &[&[Itv<F>]],
    out: &mut [Itv<F>],
) {
    check_concretize(lo, hi, cst_lo, cst_hi, geom, bounds_per_seg, out);
    device.stats().record_work(
        "concretize",
        4 * lo.len() as u64,
        itv_bytes::<F>(lo.len() + hi.len() + out.len()),
    );
    device
        .backend()
        .concretize(device, lo, hi, cst_lo, cst_hi, geom, bounds_per_seg, out);
}

/// The shape checks of [`concretize`].
///
/// # Panics
///
/// As [`concretize`].
pub(crate) fn check_concretize<F>(
    lo: &[Itv<F>],
    hi: &[Itv<F>],
    cst_lo: &[Itv<F>],
    cst_hi: &[Itv<F>],
    geom: &ExprGeom<'_>,
    bounds_per_seg: &[&[Itv<F>]],
    out: &[Itv<F>],
) {
    let rows = geom.rows();
    assert_eq!(lo.len(), rows * geom.cols(), "concretize: lower plane");
    assert_eq!(hi.len(), rows * geom.cols(), "concretize: upper plane");
    assert_eq!(cst_lo.len(), rows, "concretize: lower constants");
    assert_eq!(cst_hi.len(), rows, "concretize: upper constants");
    assert_eq!(out.len(), rows, "concretize: output length");
    geom.assert_in_extent("concretize");
    geom.assert_one_segment_per_row("concretize");
    for b in bounds_per_seg {
        assert_eq!(b.len(), geom.frontier_len(), "concretize: bounds length");
    }
    assert!(
        geom.seg
            .iter()
            .all(|&s| (s as usize) < bounds_per_seg.len()),
        "concretize: segment index out of range for {} bounds slices",
        bounds_per_seg.len()
    );
}

/// Device→device copy between equal-length buffers (the plane duplications
/// of residual split and batch stacking). Recorded per label and in the
/// bytes-moved meter, but not as a kernel launch — copies ride the copy
/// engine (see [`crate::DeviceStats::record_copy`]).
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn dtod<T: Clone + Send, B: Backend>(
    device: &Device<B>,
    label: &'static str,
    src: &[T],
    dst: &mut [T],
) {
    assert_eq!(src.len(), dst.len(), "dtod: length mismatch");
    device
        .stats()
        .record_copy(label, 2 * (std::mem::size_of_val(src)) as u64);
    device.backend().dtod(src, dst);
}

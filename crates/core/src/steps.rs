//! One backsubstitution step through each layer kind.
//!
//! * [`step_dense`] — the dense matrix product `M_{k-1} = M_k · F_k` of
//!   Fig. 2, on the device's interval GEMM;
//! * [`step_conv`] — **GBC** (GPUPoly Backsubstitution for Convolution,
//!   Algorithm 1): per row, iterate only over the dependence-set window and
//!   the filter taps instead of the full layer, performing a transpose
//!   convolution from `D^{ℓ-k}` to `D^{ℓ-k+1}`;
//! * [`step_relu`] — the diagonal substitution of the DeepPoly ReLU
//!   relaxation, sign- and sense-aware.
//!
//! Residual Add nodes are handled by the walk engine via
//! [`crate::expr::ExprBatch::split_add`] / [`crate::expr::ExprBatch::merge`].

use gpupoly_device::{gemm, kernels, Backend, Device, ExprGeom, GbcShape};
use gpupoly_interval::{Fp, Itv};
use gpupoly_nn::{Conv2d, Dense, NodeId, Shape};

use crate::expr::{clip_origin, ExprBatch};
use crate::relax::ReluRelax;
use crate::VerifyError;

/// Backsubstitutes through a fully-connected layer: the batch (over the
/// layer's output) becomes a batch over `parent` (full window). Cuboid
/// batches are densified first.
///
/// # Errors
///
/// Device out-of-memory.
///
/// # Panics
///
/// Panics when the batch frontier does not match the layer's output.
pub fn step_dense<F: Fp, B: Backend>(
    device: &Device<B>,
    batch: ExprBatch<F, B>,
    dense: &Dense<F>,
    parent: NodeId,
    parent_shape: Shape,
) -> Result<ExprBatch<F, B>, VerifyError> {
    step_dense_with(
        device,
        batch,
        dense,
        &dense.weight,
        &dense.bias,
        parent,
        parent_shape,
        None,
    )
}

/// [`step_dense`] with explicit weight/bias storage: the walk engine passes
/// the device-resident buffers prepacked by
/// [`crate::PreparedGraph`] so no host weight slice is touched per query.
/// `weight`/`bias` must hold the same values and layout as `dense`'s own.
///
/// `live_per_seg`, when the layer's input is a ReLU layer, lists per query
/// segment the input neurons that are not stably off
/// ([`ReluRelax::live`], from the bounds the ReLU step will relax): the
/// product is computed over those columns only and every other column is an
/// exact zero ([`gemm::gemm_itv_f_live`]) — what the ReLU step would make
/// of it anyway. `None` computes every column.
///
/// # Errors
///
/// Device out-of-memory.
///
/// # Panics
///
/// Panics when the batch frontier does not match the layer's output, or a
/// segment has no live list.
#[allow(clippy::too_many_arguments)]
pub fn step_dense_with<F: Fp, B: Backend>(
    device: &Device<B>,
    batch: ExprBatch<F, B>,
    dense: &Dense<F>,
    weight: &[F],
    bias: &[F],
    parent: NodeId,
    parent_shape: Shape,
    live_per_seg: Option<&[&[u32]]>,
) -> Result<ExprBatch<F, B>, VerifyError> {
    let batch = batch.densify(device)?;
    assert_eq!(
        batch.shape().len(),
        dense.out_len,
        "dense step: frontier/layer mismatch"
    );
    debug_assert_eq!(parent_shape.len(), dense.in_len);
    let rows = batch.rows();
    // The fresh GEMM writes every coefficient of both planes.
    let mut out = ExprBatch::for_overwrite(
        device,
        parent,
        parent_shape,
        (parent_shape.h, parent_shape.w),
        vec![(0, 0); rows],
    )?;
    out.inherit_segments(&batch);
    let geom = batch.geom();
    let (src_lo, src_hi, src_cst_lo, src_cst_hi) = batch.planes();
    {
        let (out_lo, out_hi, out_cst_lo, out_cst_hi) = out.planes_mut();
        // Constants absorb the bias: cst' = cst + Σ_i a_i · b_i.
        kernels::bias_fold(
            device,
            "bias_fold_lo",
            src_lo,
            &geom,
            bias,
            src_cst_lo,
            out_cst_lo,
        );
        kernels::bias_fold(
            device,
            "bias_fold_hi",
            src_hi,
            &geom,
            bias,
            src_cst_hi,
            out_cst_hi,
        );
        let (k, n) = (dense.out_len, dense.in_len);
        for (src, dst) in [(src_lo, out_lo), (src_hi, out_hi)] {
            match live_per_seg {
                Some(live) => gemm::gemm_itv_f_live(
                    device,
                    src,
                    weight,
                    dst,
                    rows,
                    k,
                    n,
                    batch.segments(),
                    live,
                ),
                None => gemm::gemm_itv_f(device, src, weight, dst, rows, k, n),
            }
        }
    }
    Ok(out)
}

/// GBC: backsubstitutes through a convolution (paper Algorithm 1).
///
/// The batch's window over the conv output (the `(ℓ−k)`-th dependence set)
/// grows to `(W−1)·s + f` over the conv input (the `(ℓ−k+1)`-th dependence
/// set, Eq. 5) with per-row origins `o·s − p` (Eqs. 7–10) — and is stored
/// clipped to the conv input: no larger than the layer, each row's origin
/// slid to the nearest one that keeps the window inside it (see
/// [`crate::expr`]). What the clip drops is padding; a walk that starts at a
/// dense layer, whose window is a whole layer already, never carries more
/// than whole layers. The kernel is told both sets of origins and the
/// padding, and finds each term's place from them. Only filter taps are
/// touched — the loop nest is `rows ∥ (window) (filter) (c_out ⊣) (c_in
/// contiguous)`, matching the paper's parallelization strategy (§4.4).
///
/// # Errors
///
/// Device out-of-memory.
///
/// # Panics
///
/// Panics when the batch frontier does not match the conv's output shape.
pub fn step_conv<F: Fp, B: Backend>(
    device: &Device<B>,
    batch: ExprBatch<F, B>,
    conv: &Conv2d<F>,
    parent: NodeId,
) -> Result<ExprBatch<F, B>, VerifyError> {
    step_conv_with(device, batch, conv, &conv.weight, &conv.bias, parent)
}

/// [`step_conv`] with explicit weight/bias storage: the walk engine passes
/// the device-resident buffers prepacked by
/// [`crate::PreparedGraph`] so no host weight slice is touched per query.
/// `weight`/`bias` must hold the same values and layout as `conv`'s own.
///
/// # Errors
///
/// Device out-of-memory.
///
/// # Panics
///
/// Panics when the batch frontier does not match the conv's output shape.
pub fn step_conv_with<F: Fp, B: Backend>(
    device: &Device<B>,
    batch: ExprBatch<F, B>,
    conv: &Conv2d<F>,
    weight: &[F],
    bias: &[F],
    parent: NodeId,
) -> Result<ExprBatch<F, B>, VerifyError> {
    assert_eq!(
        batch.shape(),
        conv.out_shape,
        "conv step: frontier/layer mismatch"
    );
    let (wh, ww) = batch.window();
    let new_win = (
        ((wh - 1) * conv.sh + conv.kh).min(conv.in_shape.h),
        ((ww - 1) * conv.sw + conv.kw).min(conv.in_shape.w),
    );
    let new_origins: Vec<(i32, i32)> = batch
        .origins()
        .iter()
        .map(|&(oh, ow)| {
            (
                clip_origin(
                    oh * conv.sh as i32 - conv.ph as i32,
                    new_win.0,
                    conv.in_shape.h,
                ),
                clip_origin(
                    ow * conv.sw as i32 - conv.pw as i32,
                    new_win.1,
                    conv.in_shape.w,
                ),
            )
        })
        .collect();
    // GBC writes every coefficient of both planes, those no term reaches too.
    let mut out = ExprBatch::for_overwrite(device, parent, conv.in_shape, new_win, new_origins)?;
    out.inherit_segments(&batch);
    let shape = GbcShape {
        kh: conv.kh,
        kw: conv.kw,
        sh: conv.sh,
        sw: conv.sw,
        ph: conv.ph,
        pw: conv.pw,
        cout: conv.out_shape.c,
        cin: conv.in_shape.c,
        in_h: conv.in_shape.h,
        in_w: conv.in_shape.w,
    };
    let dst_cols = out.cols();
    let new_ww = new_win.1;
    let geom = batch.geom();
    let dst_origins = out.origins().to_vec();
    let (src_lo, src_hi, src_cst_lo, src_cst_hi) = batch.planes();
    {
        let (out_lo, out_hi, out_cst_lo, out_cst_hi) = out.planes_mut();
        // Constants absorb the conv bias.
        kernels::bias_fold(
            device,
            "bias_fold_lo",
            src_lo,
            &geom,
            bias,
            src_cst_lo,
            out_cst_lo,
        );
        kernels::bias_fold(
            device,
            "bias_fold_hi",
            src_hi,
            &geom,
            bias,
            src_cst_hi,
            out_cst_hi,
        );
        // The transpose-convolution kernel, one launch per plane.
        kernels::gbc(
            device,
            "gbc_lo",
            src_lo,
            &geom,
            weight,
            &shape,
            out_lo,
            &dst_origins,
            dst_cols,
            new_ww,
        );
        kernels::gbc(
            device,
            "gbc_hi",
            src_hi,
            &geom,
            weight,
            &shape,
            out_hi,
            &dst_origins,
            dst_cols,
            new_ww,
        );
    }
    Ok(out)
}

/// Backsubstitutes through a ReLU layer: the diagonal substitution of the
/// DeepPoly relaxation. For the lower plane a positive coefficient takes the
/// lower relaxation `(alpha, beta)` and a negative one the upper `(gamma,
/// delta)`; the upper plane mirrors this. Coefficient intervals straddling
/// zero (ulp-wide artifacts of float soundness) are folded into the constant
/// using the ReLU output's concrete bounds.
///
/// `relax` must be derived from the bounds of the ReLU's *input* (parent)
/// and `out_bounds` are the concrete bounds of the ReLU's *output* node.
///
/// Single-query convenience over [`step_relu_per_seg`].
///
/// # Panics
///
/// Panics when `relax`/`out_bounds` don't match the frontier length.
pub fn step_relu<F: Fp, B: Backend>(
    device: &Device<B>,
    batch: ExprBatch<F, B>,
    relax: &[ReluRelax<F>],
    out_bounds: &[Itv<F>],
    parent: NodeId,
) -> ExprBatch<F, B> {
    step_relu_per_seg(device, batch, &[relax], &[out_bounds], parent)
}

/// Segment-aware ReLU step: row `r` substitutes the relaxation derived from
/// *its own* query's neuron bounds (`relax_per_seg[seg[r]]`), in one launch
/// per plane for the whole stacked batch. DeepPoly relaxations genuinely
/// differ per query (each query's analysis gives its ReLU inputs different
/// bounds), so the fused walk must select coefficients per segment; the
/// per-row arithmetic is identical to [`step_relu`] on the row's own query.
///
/// # Panics
///
/// Panics when a segment index is out of range or a relax/out-bounds slice
/// doesn't match the frontier length.
pub fn step_relu_per_seg<F: Fp, B: Backend>(
    device: &Device<B>,
    mut batch: ExprBatch<F, B>,
    relax_per_seg: &[&[ReluRelax<F>]],
    out_bounds_per_seg: &[&[Itv<F>]],
    parent: NodeId,
) -> ExprBatch<F, B> {
    assert_eq!(
        relax_per_seg.len(),
        out_bounds_per_seg.len(),
        "relax/out-bounds segment counts differ"
    );
    assert!(
        batch.segment_count() <= relax_per_seg.len(),
        "segment index out of range for {} relaxation tables",
        relax_per_seg.len()
    );
    let (win_h, win_w) = batch.window();
    let shape = batch.shape();
    let origins = batch.origins().to_vec();
    let seg = batch.segments().to_vec();
    let geom = ExprGeom {
        win_h,
        win_w,
        shape_h: shape.h,
        shape_w: shape.w,
        chans: shape.c,
        origins: &origins,
        seg: &seg,
    };
    {
        let (lo, hi, cst_lo, cst_hi) = batch.planes_mut();
        // Lower plane: a >= 0 -> (alpha, beta); a <= 0 -> (gamma, delta);
        // the upper plane mirrors the choice (`upper = true`).
        kernels::relu_step(
            device,
            "relu_step_lo",
            lo,
            cst_lo,
            &geom,
            relax_per_seg,
            out_bounds_per_seg,
            false,
        );
        kernels::relu_step(
            device,
            "relu_step_hi",
            hi,
            cst_hi,
            &geom,
            relax_per_seg,
            out_bounds_per_seg,
            true,
        );
    }
    batch.set_node(parent);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpupoly_device::DeviceConfig;
    use gpupoly_nn::Shape;

    fn dev() -> Device {
        Device::new(DeviceConfig::new().workers(2))
    }

    #[test]
    fn dense_step_composes_affine_maps() {
        let device = dev();
        // layer2: y = B z, start from its rows; layer1: z = A x + a.
        let l1 = Dense::new(2, 2, vec![1.0_f32, 2.0, 3.0, 4.0], vec![0.5, -0.5]).unwrap();
        let l2 = Dense::new(2, 2, vec![1.0_f32, -1.0, 0.0, 2.0], vec![0.0, 1.0]).unwrap();
        // batch = rows of l2 over node "z" (id 2), parent chain z <- node1
        let batch = ExprBatch::from_dense(&device, &l2, &[0, 1], 2, Shape::flat(2), None).unwrap();
        let out = step_dense(&device, batch, &l1, 1, Shape::flat(2)).unwrap();
        // composed: y0 = (1,-1)·(Ax+a) = (1*1-1*3, 1*2-1*4)x + (0.5+0.5) = (-2,-2)x + 1... let's check numerically
        let x = [0.3_f32, -0.7];
        let mut z = [0.0_f32; 2];
        l1.forward(&x, &mut z);
        let mut y = [0.0_f32; 2];
        l2.forward(&z, &mut y);
        let bounds: Vec<Itv<f32>> = x.iter().map(|&v| Itv::point(v)).collect();
        let cand = out.concretize(&device, &bounds);
        for (c, want) in cand.iter().zip(&y) {
            assert!(c.contains(*want), "{c} misses {want}");
            assert!(c.width() < 1e-4);
        }
    }

    #[test]
    fn conv_step_matches_composed_forward() {
        let device = dev();
        // Two stacked convs; backsubstitute conv2's neurons through conv1.
        let c1 = Conv2d::new(
            Shape::new(5, 5, 2),
            3,
            (3, 3),
            (1, 1),
            (0, 0),
            (0..3 * 3 * 3 * 2)
                .map(|i| ((i % 11) as f32 - 5.0) * 0.1)
                .collect(),
            vec![0.1, -0.1, 0.05],
        )
        .unwrap(); // out 3x3x3
        let c2 = Conv2d::new(
            Shape::new(3, 3, 3),
            2,
            (2, 2),
            (1, 1),
            (0, 0),
            (0..2 * 2 * 2 * 3)
                .map(|i| ((i % 7) as f32 - 3.0) * 0.2)
                .collect(),
            vec![0.0, 0.2],
        )
        .unwrap(); // out 2x2x2
        let neurons: Vec<usize> = (0..c2.out_shape.len()).collect();
        // A concrete input, and what inference's round-off in either layer
        // can add to the exact composition the two steps assume (§4.1).
        let x: Vec<f32> = (0..50).map(|i| (i as f32 * 0.713).sin() * 0.5).collect();
        let bounds: Vec<Itv<f32>> = x.iter().map(|&v| Itv::point(v)).collect();
        let mut z_bounds = vec![Itv::zero(); c1.out_shape.len()];
        let mut err1 = vec![0.0_f32; c1.out_shape.len()];
        c1.forward_itv_round_off(&bounds, &mut z_bounds, &mut err1);
        let mut err2 = vec![0.0_f32; c2.out_shape.len()];
        c2.forward_itv_round_off(&z_bounds, &mut vec![Itv::zero(); err2.len()], &mut err2);
        let mut batch = ExprBatch::from_conv(&device, &c2, &neurons, 2, Some(&err2)).unwrap();
        assert_eq!(batch.window(), (2, 2));
        batch.absorb_round_off(&[&err1]);
        let out = step_conv(&device, batch, &c1, 1).unwrap();
        // W2 = (2-1)*1 + 3 = 4 (paper Eq. 5)
        assert_eq!(out.window(), (4, 4));
        // Check against the composed forward on that input: as f32 inference
        // computes it, and exactly (the layers' f64 twins).
        let mut z = vec![0.0_f32; c1.out_shape.len()];
        c1.forward(&x, &mut z);
        let mut y = vec![0.0_f32; c2.out_shape.len()];
        c2.forward(&z, &mut y);
        let x64: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let mut z64 = vec![0.0_f64; z.len()];
        c1.widen().forward(&x64, &mut z64);
        let mut y64 = vec![0.0_f64; y.len()];
        c2.widen().forward(&z64, &mut y64);
        let cand = out.concretize(&device, &bounds);
        for ((c, want), want64) in cand.iter().zip(&y).zip(&y64) {
            assert!(c.contains(*want), "{c} misses f32 inference's {want}");
            assert!(
                c.to_f64().contains(*want64),
                "{c} misses the exact {want64}"
            );
            assert!(c.width() < 1e-3);
        }
        // Without the round-off the expression is the exact composition,
        // within a few f32 steps: it misses some of what inference returns.
        let batch = ExprBatch::from_conv(&device, &c2, &neurons, 2, None).unwrap();
        let exact = step_conv(&device, batch, &c1, 1).unwrap();
        let cand = exact.concretize(&device, &bounds);
        assert!(cand.iter().zip(&y64).all(|(c, v)| c.to_f64().contains(*v)));
        assert!(cand.iter().zip(&y).any(|(c, v)| !c.contains(*v)));
    }

    #[test]
    fn conv_step_with_padding_and_stride() {
        let device = dev();
        let c1 = Conv2d::new(
            Shape::new(4, 4, 1),
            2,
            (3, 3),
            (1, 1),
            (1, 1),
            (0..3 * 3 * 2)
                .map(|i| ((i % 5) as f32 - 2.0) * 0.3)
                .collect(),
            vec![0.2, -0.3],
        )
        .unwrap(); // out 4x4x2
        let c2 = Conv2d::new(
            Shape::new(4, 4, 2),
            2,
            (2, 2),
            (2, 2),
            (0, 0),
            (0..2 * 2 * 2 * 2)
                .map(|i| ((i % 3) as f32 - 1.0) * 0.4)
                .collect(),
            vec![0.0, 0.1],
        )
        .unwrap(); // out 2x2x2
        let neurons: Vec<usize> = (0..c2.out_shape.len()).collect();
        let batch = ExprBatch::from_conv(&device, &c2, &neurons, 2, None).unwrap();
        let out = step_conv(&device, batch, &c1, 1).unwrap();
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).cos()).collect();
        let mut z = vec![0.0_f32; 32];
        c1.forward(&x, &mut z);
        let mut y = vec![0.0_f32; 8];
        c2.forward(&z, &mut y);
        let bounds: Vec<Itv<f32>> = x.iter().map(|&v| Itv::point(v)).collect();
        let cand = out.concretize(&device, &bounds);
        for (c, want) in cand.iter().zip(&y) {
            assert!(c.contains(*want), "{c} misses {want}");
            assert!(c.width() < 1e-3);
        }
    }

    #[test]
    fn live_columns_give_what_the_relu_step_makes_of_every_column() {
        let device = dev();
        let (inf, sub) = (f32::INFINITY, f32::from_bits(1));
        // ReLU input bounds at the edges of the dead-neuron rule.
        let in_bounds = [
            Itv::new(-1.0_f32, -0.0),
            Itv::new(-1.0, 0.0),
            Itv::new(0.0, 0.0),
            Itv::new(-inf, -inf),
            Itv::new(-inf, 1.0),
            Itv::new(-1.0, sub),
            Itv::new(-2.0, 3.0),
            Itv::new(0.5, 1.0),
        ];
        let n = in_bounds.len();
        let relu = |b: &Itv<f32>| Itv::new(b.lo.max(0.0), b.hi.max(0.0));
        let out_bounds: Vec<Itv<f32>> = in_bounds.iter().map(relu).collect();
        let relax = ReluRelax::layer(&in_bounds);
        let live = ReluRelax::live(&in_bounds);
        assert_eq!(live, [2, 4, 5, 6, 7]);
        let w: Vec<f32> = (0..3 * n)
            .map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.25)
            .collect();
        let layer = Dense::new(3, n, w, vec![0.5, -0.25, 0.125]).unwrap();
        let zero = |v: Itv<f32>| v.lo == 0.0 && v.hi == 0.0;
        // Rows of point coefficients, and rows whose coefficients straddle
        // zero: those make straddling columns, hull terms of the ReLU step.
        for straddle in [false, true] {
            let run = |live: Option<&[&[u32]]>| {
                let mut batch = ExprBatch::<f32, _>::zeroed(
                    &device,
                    2,
                    Shape::flat(3),
                    (1, 1),
                    vec![(0, 0); 3],
                )
                .unwrap();
                for r in 0..3 {
                    for c in 0..3 {
                        let x = (r * 3 + c) as f32 * 0.3 - 1.0;
                        let v = if straddle {
                            Itv::new(x - 0.5, x + 0.5)
                        } else {
                            Itv::point(x)
                        };
                        batch.set_coeff(r, c, v);
                    }
                }
                let flat = Shape::flat(n);
                let b = step_dense_with(
                    &device,
                    batch,
                    &layer,
                    &layer.weight,
                    &layer.bias,
                    1,
                    flat,
                    live,
                )
                .unwrap();
                step_relu(&device, b, &relax, &out_bounds, 0)
            };
            let full = run(None);
            let skipped = run(Some(&[&live]));
            let (full, skipped) = (full.planes(), skipped.planes());
            // The coefficients are the same, but for the sign of an exact
            // zero: the ReLU step writes `a.hi · 0` over a dead neuron, the
            // live product `+0`.
            for (f, s) in full
                .0
                .iter()
                .chain(full.1)
                .zip(skipped.0.iter().chain(skipped.1))
            {
                assert!(
                    (zero(*f) && zero(*s))
                        || (f.lo.to_bits(), f.hi.to_bits()) == (s.lo.to_bits(), s.hi.to_bits()),
                    "straddle {straddle}: {f} vs {s}"
                );
            }
            // Constants: bit for bit without hull terms; with them, a dead
            // column's hull term was one more addition of the error bound,
            // so the constant is the same or inside.
            for (f, s) in full
                .2
                .iter()
                .chain(full.3)
                .zip(skipped.2.iter().chain(skipped.3))
            {
                if straddle {
                    assert!(f.lo <= s.lo && s.hi <= f.hi, "{s} is not inside {f}");
                } else {
                    assert_eq!(
                        (f.lo.to_bits(), f.hi.to_bits()),
                        (s.lo.to_bits(), s.hi.to_bits())
                    );
                }
            }
        }
    }

    #[test]
    fn relu_step_stable_positive_is_identity() {
        let device = dev();
        let shape = Shape::flat(2);
        let batch = ExprBatch::<f32, _>::identity(&device, 2, shape, &[0, 1]).unwrap();
        let in_bounds = [Itv::new(1.0_f32, 2.0), Itv::new(0.5, 3.0)];
        let relax = ReluRelax::layer(&in_bounds);
        let out_bounds = in_bounds; // relu of positive = identity
        let out = step_relu(&device, batch, &relax, &out_bounds, 1);
        assert_eq!(out.node(), 1);
        let cand = out.concretize(&device, &in_bounds);
        assert!(cand[0].contains(1.0) && cand[0].contains(2.0));
        assert!(cand[1].contains(0.5) && cand[1].contains(3.0));
    }

    #[test]
    fn relu_step_is_sound_for_unstable_neurons() {
        let device = dev();
        let shape = Shape::flat(1);
        // expression y = 1 * relu(x), x in [-1, 2]
        let batch = ExprBatch::<f32, _>::identity(&device, 2, shape, &[0]).unwrap();
        let in_bounds = [Itv::new(-1.0_f32, 2.0)];
        let relax = ReluRelax::layer(&in_bounds);
        let out_bounds = [Itv::new(0.0_f32, 2.0)];
        let out = step_relu(&device, batch, &relax, &out_bounds, 1);
        let cand = out.concretize(&device, &in_bounds);
        // true range of relu(x) is [0, 2]; relaxation must contain it
        assert!(cand[0].lo <= 0.0 && cand[0].hi >= 2.0);
        // and the DeepPoly triangle is not vacuous
        assert!(cand[0].lo >= -1.5 && cand[0].hi <= 3.0);
    }

    #[test]
    fn relu_step_negative_coefficient_uses_opposite_bound() {
        let device = dev();
        let shape = Shape::flat(1);
        let mut batch =
            ExprBatch::<f32, _>::zeroed(&device, 2, shape, (1, 1), vec![(0, 0)]).unwrap();
        batch.set_coeff(0, 0, Itv::point(-1.0));
        let in_bounds = [Itv::new(-1.0_f32, 2.0)];
        let relax = ReluRelax::layer(&in_bounds);
        let out_bounds = [Itv::new(0.0_f32, 2.0)];
        let out = step_relu(&device, batch, &relax, &out_bounds, 1);
        let cand = out.concretize(&device, &in_bounds);
        // -relu(x) ranges over [-2, 0]
        assert!(cand[0].lo <= -2.0 && cand[0].hi >= 0.0);
    }
}

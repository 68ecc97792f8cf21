//! Batched polyhedral expressions — the bound matrices `M_k` of the paper.
//!
//! An [`ExprBatch`] holds, for a set of target neurons (`rows`), the lower
//! and upper polyhedral expressions currently defined over a *frontier node*
//! of the network graph. Coefficients are intervals (floating-point
//! soundness, §4.1) stored in one of two physical layouts unified under a
//! single representation:
//!
//! * **full window** — the window covers the frontier node's whole spatial
//!   extent and every origin is `(0, 0)`: this is the dense matrix of
//!   fully-connected backsubstitution (Fig. 2);
//! * **cuboid window** — a `win_h × win_w × C` dependence-set window per row
//!   with a per-row origin (§3.1/§4.3): convolutional backsubstitution only
//!   stores and processes these small dense windows.
//!
//! A window always lies **inside** the frontier layer. The dependence set of
//! a padded convolution reaches past the layer's border, into zero padding
//! that no neuron stands for; every constructor that grows a window
//! ([`ExprBatch::from_conv`], [`crate::steps::step_conv`],
//! [`ExprBatch::merge`]) stores it *clipped* to the layer ([`clip_origin`])
//! — never larger than the layer, and slid back inside it where it would
//! start in the padding or end past the far border. All rows of a batch share
//! one window size, so a slid window covers, beside the row's real
//! dependence set, positions the set does not contain: their coefficients are
//! exact zeros, which every kernel skips and none counts. No position is
//! *virtual*; no consumer tests for one.
//!
//! # Query segments (cross-query fusion)
//!
//! A batch additionally carries a per-row **query-segment** index: rows
//! stacked from several independent queries over the same network fuse into
//! one batch (one GEMM/scan/gather launch per backsubstitution step instead
//! of one per query), while [`ExprBatch::concretize_per_seg`] evaluates each
//! row against *its own* query's concrete bounds. Single-query batches use
//! segment `0` throughout; every per-row operation is unchanged, so fused
//! results are bit-identical to running each query's rows alone.

use gpupoly_device::{kernels, scan, Backend, Device, DeviceBuffer, DeviceError, ExprGeom};
use gpupoly_interval::{round, Fp, Itv};
use gpupoly_nn::{Conv2d, Dense, NodeId, Shape};

use crate::VerifyError;

/// Clips a dependence-set window to its layer, one dimension at a time: a
/// window of `win` positions from `origin` (which may lie in the padding,
/// before `0`) over a layer of `extent` positions is stored `min(win, extent)`
/// long — pass that as `win` — from the nearest origin that keeps it inside.
/// The positions of the layer the unclipped window covered stay covered.
pub(crate) fn clip_origin(origin: i32, win: usize, extent: usize) -> i32 {
    debug_assert!(win <= extent, "clip the window size first");
    origin.clamp(0, (extent - win) as i32)
}

/// A batch of paired (lower, upper) polyhedral expressions over one node.
///
/// See the module docs for the representation. Rows are the neurons being
/// bounded; [`ExprBatch::concretize`] evaluates one sound candidate bound
/// per row against the frontier node's concrete bounds, and the `step_*`
/// functions in [`crate::steps`] move the frontier backwards through the
/// network.
#[derive(Debug)]
pub struct ExprBatch<F: Fp, B: Backend> {
    node: NodeId,
    shape: Shape,
    win_h: usize,
    win_w: usize,
    origins: Vec<(i32, i32)>,
    /// Per-row query-segment index (all `0` for single-query batches).
    seg: Vec<u32>,
    lo: DeviceBuffer<Itv<F>, B>,
    hi: DeviceBuffer<Itv<F>, B>,
    cst_lo: Vec<Itv<F>>,
    cst_hi: Vec<Itv<F>>,
}

impl<F: Fp, B: Backend> ExprBatch<F, B> {
    /// Allocates a zero batch with the given geometry.
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    ///
    /// # Panics
    ///
    /// Panics when a row's window leaves the layer (see the module docs).
    pub fn zeroed(
        device: &Device<B>,
        node: NodeId,
        shape: Shape,
        window: (usize, usize),
        origins: Vec<(i32, i32)>,
    ) -> Result<Self, VerifyError> {
        Self::with_planes(device, node, shape, window, origins, DeviceBuffer::zeroed)
    }

    /// [`ExprBatch::zeroed`] with the contents of both coefficient planes
    /// left unspecified — for steps whose kernels write every coefficient
    /// (the dense GEMM, GBC), which a pool hit then spares the zeroing pass.
    /// Constants are zero.
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    pub(crate) fn for_overwrite(
        device: &Device<B>,
        node: NodeId,
        shape: Shape,
        window: (usize, usize),
        origins: Vec<(i32, i32)>,
    ) -> Result<Self, VerifyError> {
        Self::with_planes(
            device,
            node,
            shape,
            window,
            origins,
            DeviceBuffer::for_overwrite,
        )
    }

    fn with_planes(
        device: &Device<B>,
        node: NodeId,
        shape: Shape,
        (win_h, win_w): (usize, usize),
        origins: Vec<(i32, i32)>,
        plane: impl Fn(&Device<B>, usize) -> Result<DeviceBuffer<Itv<F>, B>, DeviceError>,
    ) -> Result<Self, VerifyError> {
        let rows = origins.len();
        let cols = win_h * win_w * shape.c;
        ExprGeom {
            win_h,
            win_w,
            shape_h: shape.h,
            shape_w: shape.w,
            chans: shape.c,
            origins: &origins,
            seg: &[],
        }
        .assert_in_extent("ExprBatch");
        Ok(Self {
            node,
            shape,
            win_h,
            win_w,
            origins,
            seg: vec![0; rows],
            lo: plane(device, rows * cols)?,
            hi: plane(device, rows * cols)?,
            cst_lo: vec![Itv::zero(); rows],
            cst_hi: vec![Itv::zero(); rows],
        })
    }

    /// The identity batch: one row per listed neuron of `node`, with
    /// coefficient 1 on that neuron. The window is the `1 × 1 × C`
    /// zeroth dependence set.
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    pub fn identity(
        device: &Device<B>,
        node: NodeId,
        shape: Shape,
        neurons: &[usize],
    ) -> Result<Self, VerifyError> {
        let origins = neurons
            .iter()
            .map(|&n| {
                let (h, w, _) = shape.pos(n);
                (h as i32, w as i32)
            })
            .collect();
        let mut batch = Self::zeroed(device, node, shape, (1, 1), origins)?;
        let cols = batch.cols();
        for (r, &n) in neurons.iter().enumerate() {
            let (_, _, c) = shape.pos(n);
            batch.lo[r * cols + c] = Itv::point(F::ONE);
            batch.hi[r * cols + c] = Itv::point(F::ONE);
        }
        Ok(batch)
    }

    /// The initial batch of a dense layer: row `r` is the layer's weight row
    /// for `neurons[r]`, over the layer's parent node (full window). The
    /// constant is the bias, widened by the neuron's entry of `round_off`
    /// when one is given: the layer's inference round-off per output neuron
    /// (§4.1, [`crate::Analysis::round_off`]) — the row's share of it, like
    /// the one [`ExprBatch::absorb_round_off`] takes at every later layer.
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    pub fn from_dense(
        device: &Device<B>,
        dense: &Dense<F>,
        neurons: &[usize],
        parent: NodeId,
        parent_shape: Shape,
        round_off: Option<&[F]>,
    ) -> Result<Self, VerifyError> {
        Self::from_dense_with(
            device,
            dense,
            &dense.weight,
            &dense.bias,
            neurons,
            parent,
            parent_shape,
            round_off,
        )
    }

    /// [`ExprBatch::from_dense`] with explicit weight/bias storage — the
    /// walk engine passes the device-resident buffers prepacked by
    /// [`crate::PreparedGraph`] instead of the layer's host vectors.
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    #[allow(clippy::too_many_arguments)]
    pub fn from_dense_with(
        device: &Device<B>,
        dense: &Dense<F>,
        weight: &[F],
        bias: &[F],
        neurons: &[usize],
        parent: NodeId,
        parent_shape: Shape,
        round_off: Option<&[F]>,
    ) -> Result<Self, VerifyError> {
        debug_assert_eq!(parent_shape.len(), dense.in_len);
        let origins = vec![(0i32, 0i32); neurons.len()];
        let mut batch = Self::zeroed(
            device,
            parent,
            parent_shape,
            (parent_shape.h, parent_shape.w),
            origins,
        )?;
        let cols = batch.cols();
        for (r, &n) in neurons.iter().enumerate() {
            let row = &weight[n * dense.in_len..(n + 1) * dense.in_len];
            for (j, &w) in row.iter().enumerate() {
                batch.lo[r * cols + j] = Itv::point(w);
                batch.hi[r * cols + j] = Itv::point(w);
            }
            let cst = Itv::point(bias[n]).widen(round_off.map_or(F::ZERO, |e| e[n]));
            batch.cst_lo[r] = cst;
            batch.cst_hi[r] = cst;
        }
        Ok(batch)
    }

    /// The initial batch of a convolution layer: row `r` holds the filter
    /// taps of `neurons[r]` in its first dependence set (window `kh × kw`
    /// at origin `(h·s − p, w·s − p)`), over the layer's parent node —
    /// clipped to the parent (module docs): taps that fall into the padding
    /// are not stored. `round_off` is the layer's, per output neuron, as for
    /// [`ExprBatch::from_dense`].
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    pub fn from_conv(
        device: &Device<B>,
        conv: &Conv2d<F>,
        neurons: &[usize],
        parent: NodeId,
        round_off: Option<&[F]>,
    ) -> Result<Self, VerifyError> {
        Self::from_conv_with(
            device,
            conv,
            &conv.weight,
            &conv.bias,
            neurons,
            parent,
            round_off,
        )
    }

    /// [`ExprBatch::from_conv`] with explicit weight/bias storage — the
    /// walk engine passes the device-resident buffers prepacked by
    /// [`crate::PreparedGraph`] instead of the layer's host vectors.
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    pub fn from_conv_with(
        device: &Device<B>,
        conv: &Conv2d<F>,
        weight: &[F],
        bias: &[F],
        neurons: &[usize],
        parent: NodeId,
        round_off: Option<&[F]>,
    ) -> Result<Self, VerifyError> {
        let parent_shape = conv.in_shape;
        let (win_h, win_w) = (conv.kh.min(parent_shape.h), conv.kw.min(parent_shape.w));
        // Where tap (0, 0) of a neuron lies, padding included.
        let tap0 = |n: usize| {
            let (h, w, _) = conv.out_shape.pos(n);
            (
                (h * conv.sh) as i32 - conv.ph as i32,
                (w * conv.sw) as i32 - conv.pw as i32,
            )
        };
        let origins = neurons
            .iter()
            .map(|&n| {
                let (th, tw) = tap0(n);
                (
                    clip_origin(th, win_h, parent_shape.h),
                    clip_origin(tw, win_w, parent_shape.w),
                )
            })
            .collect();
        let mut batch = Self::zeroed(device, parent, parent_shape, (win_h, win_w), origins)?;
        let cols = batch.cols();
        let cin = parent_shape.c;
        for (r, &n) in neurons.iter().enumerate() {
            let (_, _, d) = conv.out_shape.pos(n);
            let ((th, tw), (oh, ow)) = (tap0(n), batch.origins[r]);
            for f in 0..conv.kh {
                for g in 0..conv.kw {
                    // Window coordinates of the tap; outside the window, it
                    // lies in the padding.
                    let (i, j) = (th + f as i32 - oh, tw + g as i32 - ow);
                    if i < 0 || j < 0 || i as usize >= win_h || j as usize >= win_w {
                        continue;
                    }
                    for ci in 0..cin {
                        let wv = weight[conv.widx(f, g, d, ci)];
                        let at = r * cols + (i as usize * win_w + j as usize) * cin + ci;
                        batch.lo[at] = Itv::point(wv);
                        batch.hi[at] = Itv::point(wv);
                    }
                }
            }
            let cst = Itv::point(bias[d]).widen(round_off.map_or(F::ZERO, |e| e[n]));
            batch.cst_lo[r] = cst;
            batch.cst_hi[r] = cst;
        }
        Ok(batch)
    }

    /// Number of expression rows.
    pub fn rows(&self) -> usize {
        self.origins.len()
    }

    /// Coefficients per row (window volume).
    pub fn cols(&self) -> usize {
        self.win_h * self.win_w * self.shape.c
    }

    /// The frontier node the expressions range over.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Shape of the frontier node.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Spatial window extent `(win_h, win_w)`.
    pub fn window(&self) -> (usize, usize) {
        (self.win_h, self.win_w)
    }

    /// Per-row window origins.
    pub fn origins(&self) -> &[(i32, i32)] {
        &self.origins
    }

    /// Per-row query-segment indices (all `0` for single-query batches).
    pub fn segments(&self) -> &[u32] {
        &self.seg
    }

    /// Number of query segments the rows reference (`max(seg) + 1`).
    pub fn segment_count(&self) -> usize {
        self.seg.iter().map(|&s| s as usize + 1).max().unwrap_or(1)
    }

    /// Copies the segment map from `other` (used by steps that rebuild the
    /// batch's storage, e.g. the dense GEMM step).
    pub(crate) fn inherit_segments(&mut self, other: &Self) {
        debug_assert_eq!(self.rows(), other.rows());
        self.seg.copy_from_slice(&other.seg);
    }

    /// The device-side view of this batch's window geometry — what the
    /// backend walk-step kernels consume.
    pub(crate) fn geom(&self) -> ExprGeom<'_> {
        ExprGeom {
            win_h: self.win_h,
            win_w: self.win_w,
            shape_h: self.shape.h,
            shape_w: self.shape.w,
            chans: self.shape.c,
            origins: &self.origins,
            seg: &self.seg,
        }
    }

    /// Stacks batches from independent queries over the *same frontier*
    /// into one fused batch: rows concatenate in order and row `r` of input
    /// batch `k` gets segment index `k`. Every per-row quantity is copied
    /// verbatim, so downstream per-row arithmetic is bit-identical to
    /// processing each input batch alone.
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    ///
    /// # Panics
    ///
    /// Panics when `batches` is empty, when the batches disagree on
    /// node/shape/window, or when an input batch is itself multi-segment.
    pub fn stack(device: &Device<B>, batches: Vec<Self>) -> Result<Self, VerifyError> {
        let first = batches.first().expect("stack: empty batch list");
        let (node, shape) = (first.node, first.shape);
        let (win_h, win_w) = (first.win_h, first.win_w);
        let cols = first.cols();
        let rows: usize = batches.iter().map(ExprBatch::rows).sum();
        let mut origins = Vec::with_capacity(rows);
        let mut seg = Vec::with_capacity(rows);
        let mut cst_lo = Vec::with_capacity(rows);
        let mut cst_hi = Vec::with_capacity(rows);
        // The stack overwrites every element, so pool reuse can skip
        // zero-initialization.
        let mut lo = DeviceBuffer::for_overwrite(device, rows * cols)?;
        let mut hi = DeviceBuffer::for_overwrite(device, rows * cols)?;
        let mut at = 0usize;
        for (k, b) in batches.iter().enumerate() {
            assert_eq!(b.node, node, "stack: different frontier nodes");
            assert_eq!(b.shape, shape, "stack: different frontier shapes");
            assert_eq!((b.win_h, b.win_w), (win_h, win_w), "stack: window mismatch");
            debug_assert!(
                b.seg.iter().all(|&s| s == 0),
                "stack: input batch is already multi-segment"
            );
            let n = b.rows() * cols;
            kernels::dtod(device, "stack_copy", &b.lo, &mut lo[at..at + n]);
            kernels::dtod(device, "stack_copy", &b.hi, &mut hi[at..at + n]);
            at += n;
            origins.extend_from_slice(&b.origins);
            seg.resize(seg.len() + b.rows(), k as u32);
            cst_lo.extend_from_slice(&b.cst_lo);
            cst_hi.extend_from_slice(&b.cst_hi);
        }
        Ok(Self {
            node,
            shape,
            win_h,
            win_w,
            origins,
            seg,
            lo,
            hi,
            cst_lo,
            cst_hi,
        })
    }

    /// `true` when the window covers the whole frontier layer for all rows.
    pub fn is_full(&self) -> bool {
        self.win_h == self.shape.h
            && self.win_w == self.shape.w
            && self.origins.iter().all(|&o| o == (0, 0))
    }

    /// Raw access for the step kernels.
    #[allow(clippy::type_complexity)]
    pub(crate) fn planes_mut(
        &mut self,
    ) -> (
        &mut DeviceBuffer<Itv<F>, B>,
        &mut DeviceBuffer<Itv<F>, B>,
        &mut Vec<Itv<F>>,
        &mut Vec<Itv<F>>,
    ) {
        (
            &mut self.lo,
            &mut self.hi,
            &mut self.cst_lo,
            &mut self.cst_hi,
        )
    }

    /// Raw read access for the step kernels.
    #[allow(clippy::type_complexity)]
    pub(crate) fn planes(&self) -> (&[Itv<F>], &[Itv<F>], &[Itv<F>], &[Itv<F>]) {
        (&self.lo, &self.hi, &self.cst_lo, &self.cst_hi)
    }

    pub(crate) fn set_node(&mut self, node: NodeId) {
        self.node = node;
    }

    /// Linear index (into the frontier node) of window position
    /// `(i, j, c)` of row `r`.
    #[inline(always)]
    pub fn neuron_at(&self, r: usize, i: usize, j: usize, c: usize) -> usize {
        let (oh, ow) = self.origins[r];
        self.shape
            .idx((oh + i as i32) as usize, (ow + j as i32) as usize, c)
    }

    /// Evaluates one candidate bound per row against the frontier node's
    /// concrete bounds (the "substitute concrete bounds" step of
    /// backsubstitution, §2). Returns `[lower, upper]` per row.
    ///
    /// Single-query convenience over [`ExprBatch::concretize_per_seg`].
    ///
    /// # Panics
    ///
    /// Panics when `bounds` does not match the frontier node's length.
    pub fn concretize(&self, device: &Device<B>, bounds: &[Itv<F>]) -> Vec<Itv<F>> {
        self.concretize_per_seg(device, &[bounds])
    }

    /// Segment-aware concretization: row `r` is evaluated against
    /// `bounds_per_seg[seg[r]]` — each fused query's rows substitute *its
    /// own* concrete bounds of the frontier node, in one kernel launch for
    /// the whole stacked batch. Per-row arithmetic is identical to
    /// [`ExprBatch::concretize`] on the row's own query, so fused candidates
    /// are bit-identical to per-query ones.
    ///
    /// # Panics
    ///
    /// Panics when a segment index is out of range or a bounds slice does
    /// not match the frontier node's length.
    pub fn concretize_per_seg(
        &self,
        device: &Device<B>,
        bounds_per_seg: &[&[Itv<F>]],
    ) -> Vec<Itv<F>> {
        assert!(
            self.segment_count() <= bounds_per_seg.len(),
            "segment index out of range for {} bounds slices",
            bounds_per_seg.len()
        );
        let mut out = vec![Itv::top(); self.rows()];
        kernels::concretize(
            device,
            &self.lo,
            &self.hi,
            &self.cst_lo,
            &self.cst_hi,
            &self.geom(),
            bounds_per_seg,
            &mut out,
        );
        out
    }

    /// Removes rows whose `keep` flag is false using the device's
    /// prefix-sum compaction (§4.2); returns the surviving batch and the
    /// index array mapping new rows to old rows.
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    ///
    /// # Panics
    ///
    /// Panics when `keep.len() != rows()`.
    pub fn filter_rows(
        self,
        device: &Device<B>,
        keep: &[bool],
    ) -> Result<(Self, Vec<u32>), VerifyError> {
        assert_eq!(keep.len(), self.rows(), "keep mask length mismatch");
        let cols = self.cols();
        let index = scan::compact_indices(device, keep);
        // Gather surviving rows into pool-recyclable device storage; the
        // gather overwrites every element, so skip zero-initialization on
        // pool reuse.
        let mut lo_new = DeviceBuffer::for_overwrite(device, index.len() * cols)?;
        let mut hi_new = DeviceBuffer::for_overwrite(device, index.len() * cols)?;
        scan::gather_rows_into(device, &self.lo, cols, &index, &mut lo_new);
        scan::gather_rows_into(device, &self.hi, cols, &index, &mut hi_new);
        let origins = index
            .iter()
            .map(|&i| self.origins[i as usize])
            .collect::<Vec<_>>();
        let seg = index
            .iter()
            .map(|&i| self.seg[i as usize])
            .collect::<Vec<_>>();
        let cst_lo = index
            .iter()
            .map(|&i| self.cst_lo[i as usize])
            .collect::<Vec<_>>();
        let cst_hi = index
            .iter()
            .map(|&i| self.cst_hi[i as usize])
            .collect::<Vec<_>>();
        let batch = Self {
            node: self.node,
            shape: self.shape,
            win_h: self.win_h,
            win_w: self.win_w,
            origins,
            seg,
            lo: lo_new,
            hi: hi_new,
            cst_lo,
            cst_hi,
        };
        Ok((batch, index))
    }

    /// Expands the batch to a full window over the frontier node (used when
    /// a dense layer must consume a cuboid batch).
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    pub fn densify(self, device: &Device<B>) -> Result<Self, VerifyError> {
        if self.is_full() {
            return Ok(self);
        }
        let mut full = Self::zeroed(
            device,
            self.node,
            self.shape,
            (self.shape.h, self.shape.w),
            vec![(0, 0); self.rows()],
        )?;
        full.cst_lo.copy_from_slice(&self.cst_lo);
        full.cst_hi.copy_from_slice(&self.cst_hi);
        full.seg.copy_from_slice(&self.seg);
        let fcols = full.cols();
        kernels::densify(
            device,
            "densify_lo",
            &self.lo,
            &self.geom(),
            &mut full.lo,
            fcols,
        );
        kernels::densify(
            device,
            "densify_hi",
            &self.hi,
            &self.geom(),
            &mut full.hi,
            fcols,
        );
        Ok(full)
    }

    /// Merges the two branch expressions of a residual block at its head:
    /// coefficients are added on the union window (Eq. 4), constants added.
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    ///
    /// # Panics
    ///
    /// Panics when the batches disagree on node, shape or row count.
    pub fn merge(a: Self, b: Self, device: &Device<B>) -> Result<Self, VerifyError> {
        assert_eq!(a.node, b.node, "merge: different frontier nodes");
        assert_eq!(a.shape, b.shape, "merge: different frontier shapes");
        assert_eq!(a.rows(), b.rows(), "merge: different row counts");
        assert_eq!(a.seg, b.seg, "merge: different segment maps");
        let rows = a.rows();
        // Union geometry: per-row min origin; uniform window sized to cover
        // the worst row (inside the layer, as both branches' windows are).
        let mut origins = Vec::with_capacity(rows);
        let (mut uw_h, mut uw_w) = (0usize, 0usize);
        for r in 0..rows {
            let (ah, aw) = a.origins[r];
            let (bh, bw) = b.origins[r];
            let oh = ah.min(bh);
            let ow = aw.min(bw);
            uw_h = uw_h.max(((ah + a.win_h as i32).max(bh + b.win_h as i32) - oh) as usize);
            uw_w = uw_w.max(((aw + a.win_w as i32).max(bw + b.win_w as i32) - ow) as usize);
            origins.push((oh, ow));
        }
        // The uniform window is the largest row's union; a smaller union
        // near the far border slides inward under it.
        for o in &mut origins {
            *o = (
                clip_origin(o.0, uw_h, a.shape.h),
                clip_origin(o.1, uw_w, a.shape.w),
            );
        }
        let mut m = Self::zeroed(device, a.node, a.shape, (uw_h, uw_w), origins)?;
        m.seg.copy_from_slice(&a.seg);
        for r in 0..rows {
            m.cst_lo[r] = a.cst_lo[r].add(b.cst_lo[r]);
            m.cst_hi[r] = a.cst_hi[r].add(b.cst_hi[r]);
        }
        let mcols = m.cols();
        let morigins = m.origins.clone();
        kernels::residual_merge(
            device,
            "residual_merge_lo",
            &a.lo,
            &a.geom(),
            &b.lo,
            &b.geom(),
            &mut m.lo,
            &morigins,
            mcols,
            uw_w,
        );
        kernels::residual_merge(
            device,
            "residual_merge_hi",
            &a.hi,
            &a.geom(),
            &b.hi,
            &b.geom(),
            &mut m.hi,
            &morigins,
            mcols,
            uw_w,
        );
        Ok(m)
    }

    /// Splits an expression over a residual Add node into the two branch
    /// expressions (`x_add = x_a + x_b`, so coefficients copy to both; the
    /// constant stays with branch `a`).
    ///
    /// # Errors
    ///
    /// Device out-of-memory.
    pub fn split_add(
        &self,
        device: &Device<B>,
        node_a: NodeId,
        shape_a: Shape,
        node_b: NodeId,
        shape_b: Shape,
    ) -> Result<(Self, Self), VerifyError> {
        let mk = |node: NodeId, shape: Shape, with_cst: bool| -> Result<Self, VerifyError> {
            Ok(Self {
                node,
                shape,
                win_h: self.win_h,
                win_w: self.win_w,
                origins: self.origins.clone(),
                seg: self.seg.clone(),
                lo: {
                    let mut l = DeviceBuffer::for_overwrite(device, self.lo.len())?;
                    kernels::dtod(device, "split_add_copy", &self.lo, &mut l);
                    l
                },
                hi: {
                    let mut h = DeviceBuffer::for_overwrite(device, self.hi.len())?;
                    kernels::dtod(device, "split_add_copy", &self.hi, &mut h);
                    h
                },
                cst_lo: if with_cst {
                    self.cst_lo.clone()
                } else {
                    vec![Itv::zero(); self.rows()]
                },
                cst_hi: if with_cst {
                    self.cst_hi.clone()
                } else {
                    vec![Itv::zero(); self.rows()]
                },
            })
        };
        Ok((mk(node_a, shape_a, true)?, mk(node_b, shape_b, false)?))
    }

    /// Pays inference's round-off in the frontier node (§4.1) before the
    /// batch is substituted through it. A step treats the node as the exact
    /// map of its input, while inference computes neuron `n` to within
    /// `err[n]` of that map (`err_per_seg[seg[r]]` for row `r`: one
    /// [`crate::Analysis::round_off`] entry per query segment); an expression
    /// with coefficients `a` over the computed neurons therefore moves by at
    /// most `Σ_n |a_n| · err[n]` when they are replaced by the exact map, and
    /// both constants of the row are widened by a bound on that sum. Exact
    /// products and one `f64` sum per plane for `f32`, rounded up once;
    /// directed `F` operations otherwise.
    ///
    /// # Panics
    ///
    /// Panics when a segment index is out of range or an `err` slice does
    /// not cover the frontier.
    pub fn absorb_round_off(&mut self, err_per_seg: &[&[F]]) {
        for err in err_per_seg {
            assert_eq!(err.len(), self.shape.len(), "round-off length");
        }
        let (cols, run) = (self.cols(), self.win_w * self.shape.c);
        let mut csts = (
            std::mem::take(&mut self.cst_lo),
            std::mem::take(&mut self.cst_hi),
        );
        let geom = self.geom();
        // What the wide sum takes of a segment's round-off, once for all of
        // its rows; a lone row converts its own window (`scratch` below).
        let rows = geom.seg_rows(err_per_seg.len());
        let wide: Vec<Option<Vec<f64>>> = err_per_seg
            .iter()
            .zip(&rows)
            .map(|(err, &rows)| {
                (F::EXACT_IN_F64 && rows > 1).then(|| err.iter().map(Owed::wide_err).collect())
            })
            .collect();
        let (lo, hi): (&[Itv<F>], &[Itv<F>]) = (&self.lo, &self.hi);
        let mut scratch = Vec::new();
        for (r, (cst_lo, cst_hi)) in csts.0.iter_mut().zip(&mut csts.1).enumerate() {
            let s = geom.seg[r] as usize;
            let (mut owed_lo, mut owed_hi) = (Owed::default(), Owed::default());
            for i in 0..geom.win_h {
                let (base, n) = (r * cols + i * run, geom.neuron_at(r, i, 0));
                let err = &err_per_seg[s][n..n + run];
                let wide = match &wide[s] {
                    Some(wide) => &wide[n..n + run],
                    None => {
                        scratch.clear();
                        if F::EXACT_IN_F64 {
                            scratch.extend(err.iter().map(Owed::wide_err));
                        }
                        &scratch[..]
                    }
                };
                owed_lo.add(&lo[base..base + run], err, wide);
                owed_hi.add(&hi[base..base + run], err, wide);
            }
            *cst_lo = cst_lo.widen(owed_lo.bound());
            *cst_hi = cst_hi.widen(owed_hi.bound());
        }
        (self.cst_lo, self.cst_hi) = csts;
    }

    /// Sets a coefficient in both planes (used to assemble spec rows).
    ///
    /// # Panics
    ///
    /// Panics when the position is out of range.
    pub fn set_coeff(&mut self, row: usize, col: usize, v: Itv<F>) {
        let cols = self.cols();
        self.lo[row * cols + col] = v;
        self.hi[row * cols + col] = v;
    }

    /// Adds a constant to both planes of one row.
    pub fn add_cst(&mut self, row: usize, v: Itv<F>) {
        self.cst_lo[row] = self.cst_lo[row].add(v);
        self.cst_hi[row] = self.cst_hi[row].add(v);
    }
}

/// A running upper bound of `Σ |a_n| · err[n]`, the sum
/// [`ExprBatch::absorb_round_off`] takes per row and plane.
struct Owed<F> {
    /// [`Fp::EXACT_IN_F64`]: plain `f64` sums of the exact products, four
    /// side by side (the summands are non-negative, so any order will do,
    /// and one running sum would wait on itself).
    wide: [f64; 4],
    /// Summands of `wide`.
    terms: usize,
    /// Other scalar types: the sum in `F`, every operation rounded up.
    chain: F,
}

impl<F: Fp> Default for Owed<F> {
    fn default() -> Self {
        Self {
            wide: [0.0; 4],
            terms: 0,
            chain: F::ZERO,
        }
    }
}

impl<F: Fp> Owed<F> {
    /// One neuron's round-off as the wide sum takes it. `min` keeps a zero
    /// coefficient times an unbounded round-off (`+inf`, or NaN) a zero; any
    /// other product of it overflows `F`.
    fn wide_err(e: &F) -> f64 {
        e.min(F::MAX).to_f64()
    }

    /// Adds `Σ |coeffs[k]| · err[k]`; `wide` is `err` through
    /// [`Owed::wide_err`], for [`Fp::EXACT_IN_F64`] (unread otherwise).
    fn add(&mut self, coeffs: &[Itv<F>], err: &[F], wide: &[f64]) {
        if F::EXACT_IN_F64 {
            let owed = |a: &Itv<F>, e: f64| a.mag().to_f64() * e;
            let (blocks, tail) = (coeffs.chunks_exact(4), wide.chunks_exact(4));
            for (a, &e) in blocks.remainder().iter().zip(tail.remainder()) {
                self.wide[0] += owed(a, e);
            }
            for (a, e) in blocks.zip(tail) {
                for l in 0..4 {
                    self.wide[l] += owed(&a[l], e[l]);
                }
            }
            self.terms += coeffs.len();
        } else {
            for (a, &e) in coeffs.iter().zip(err) {
                self.chain = round::fma_up(a.mag(), e, self.chain);
            }
        }
    }

    /// The bound; `+inf` when a NaN got into the sum.
    fn bound(&self) -> F {
        let sum = if F::EXACT_IN_F64 {
            // Non-negative summands, exact in `f64`: however `n` additions
            // to nearest are arranged, they fall short of the true sum by at
            // most `n·2⁻⁵³` of it.
            let [a, b, c, d] = self.wide;
            let short = 1.0 + (self.terms + 3) as f64 * f64::EPSILON;
            round::from_f64_up(round::mul_up((a + b) + (c + d), short))
        } else {
            self.chain
        };
        if sum >= F::ZERO {
            sum
        } else {
            F::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpupoly_device::{CpuSimBackend, DeviceConfig};

    fn dev() -> Device {
        Device::new(DeviceConfig::new().workers(2))
    }

    #[test]
    fn identity_concretizes_to_bounds() {
        let device = dev();
        let shape = Shape::new(2, 2, 3);
        let batch = ExprBatch::<f32, _>::identity(&device, 5, shape, &[0, 7, 11]).unwrap();
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.cols(), 3); // 1x1 window, 3 channels
        let bounds: Vec<Itv<f32>> = (0..12)
            .map(|i| Itv::new(i as f32, i as f32 + 1.0))
            .collect();
        let cand = batch.concretize(&device, &bounds);
        assert_eq!(cand[0], bounds[0]);
        assert_eq!(cand[1], bounds[7]);
        assert_eq!(cand[2], bounds[11]);
    }

    #[test]
    fn from_dense_concretize_matches_manual_eval() {
        let device = dev();
        let d = Dense::new(
            2,
            3,
            vec![1.0_f32, -2.0, 0.5, 0.0, 1.0, 1.0],
            vec![0.25, -0.5],
        )
        .unwrap();
        let batch = ExprBatch::from_dense(&device, &d, &[0, 1], 0, Shape::flat(3), None).unwrap();
        assert!(batch.is_full());
        let bounds = vec![
            Itv::new(0.0_f32, 1.0),
            Itv::new(-1.0, 1.0),
            Itv::new(2.0, 3.0),
        ];
        let cand = batch.concretize(&device, &bounds);
        // row 0 upper: 1*1 + (-2)*(-1) + 0.5*3 + 0.25 = 4.75
        assert!((cand[0].hi - 4.75).abs() < 1e-5);
        // row 0 lower: 1*0 + (-2)*1 + 0.5*2 + 0.25 = -0.75
        assert!((cand[0].lo + 0.75).abs() < 1e-5);
        // row 1: x1 + x2 - 0.5 in [-1+2-0.5, 1+3-0.5]
        assert!((cand[1].lo - 0.5).abs() < 1e-5 && (cand[1].hi - 3.5).abs() < 1e-5);
    }

    #[test]
    fn widening_grows_constants() {
        let device = dev();
        // Eight terms: the round-off of the sum exceeds a step of the bound.
        let d = Dense::new(1, 8, vec![1.0_f32; 8], vec![0.0]).unwrap();
        let pb = vec![Itv::new(-1.0_f32, 1.0); 8];
        let mut err = [0.0_f32];
        d.forward_itv_round_off(&pb, &mut [Itv::zero()], &mut err);
        let plain = ExprBatch::from_dense(&device, &d, &[0], 0, Shape::flat(8), None).unwrap();
        let wide = ExprBatch::from_dense(&device, &d, &[0], 0, Shape::flat(8), Some(&err)).unwrap();
        let cp = plain.concretize(&device, &pb);
        let cw = wide.concretize(&device, &pb);
        assert!(cw[0].hi > cp[0].hi);
        assert!(cw[0].lo < cp[0].lo);
        assert!(cw[0].hi - cp[0].hi < 1e-4, "widening should be tiny");
    }

    #[test]
    fn from_conv_window_is_first_dependence_set() {
        let device = dev();
        // 4x4x1 input, 2x2 filter, stride 2, no padding -> out 2x2x1
        let conv = Conv2d::new(
            Shape::new(4, 4, 1),
            1,
            (2, 2),
            (2, 2),
            (0, 0),
            vec![1.0_f32, 2.0, 3.0, 4.0],
            vec![0.5],
        )
        .unwrap();
        // neuron (1,1,0) = linear index 3
        let batch = ExprBatch::from_conv(&device, &conv, &[3], 0, None).unwrap();
        assert_eq!(batch.window(), (2, 2));
        assert_eq!(batch.origins()[0], (2, 2));
        // concretize with point bounds = conv forward on those inputs
        let x: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
        let bounds: Vec<Itv<f32>> = x.iter().map(|&v| Itv::point(v)).collect();
        let mut y = vec![0.0_f32; 4];
        conv.forward(&x, &mut y);
        let cand = batch.concretize(&device, &bounds);
        assert!(cand[0].contains(y[3]), "{} misses {}", cand[0], y[3]);
        assert!(cand[0].width() < 1e-4);
    }

    #[test]
    fn from_conv_padding_taps_are_zero() {
        let device = dev();
        // 2x2 input, 3x3 filter pad 1: five taps of neuron (0,0) are padding
        let conv = Conv2d::new(
            Shape::new(2, 2, 1),
            1,
            (3, 3),
            (1, 1),
            (1, 1),
            vec![1.0_f32; 9],
            vec![0.0],
        )
        .unwrap();
        let batch = ExprBatch::from_conv(&device, &conv, &[0], 0, None).unwrap();
        // The 3×3 filter at (-1, -1) is stored as the 2×2 layer it covers.
        assert_eq!((batch.window(), batch.origins()[0]), ((2, 2), (0, 0)));
        // Sum over the window with unit bounds = number of real taps = 4.
        let bounds = vec![Itv::point(1.0_f32); 4];
        let cand = batch.concretize(&device, &bounds);
        assert!(cand[0].contains(4.0));
        assert!(cand[0].width() < 1e-5);
    }

    /// The rows of a padded 3×3 convolution over a 3×3×2 input: every window
    /// is the whole layer, and a corner neuron's holds zeros where its filter
    /// does not reach.
    fn padded_conv_rows<F: Fp>(device: &Device) -> ExprBatch<F, CpuSimBackend> {
        let w = (0..3 * 3 * 2 * 2).map(|i| F::from_f64(((i * 7) % 11) as f64 * 0.25 - 1.25));
        let conv = Conv2d::new(
            Shape::new(3, 3, 2),
            2,
            (3, 3),
            (1, 1),
            (1, 1),
            w.collect(),
            vec![F::from_f64(0.5), F::from_f64(-0.25)],
        )
        .unwrap();
        ExprBatch::from_conv(device, &conv, &[0, 9, 17], 0, None).unwrap()
    }

    /// `Σ |a|·err` over the real positions of row `r`'s plane, in `f64`.
    fn owed<F: Fp>(batch: &ExprBatch<F, CpuSimBackend>, r: usize, err: &[F], upper: bool) -> f64 {
        let (geom, chans) = (batch.geom(), batch.shape().c);
        let plane = if upper { &batch.hi } else { &batch.lo };
        let mut sum = 0.0;
        for i in 0..batch.win_h {
            for j in 0..batch.win_w {
                for c in 0..chans {
                    let a = plane[r * batch.cols() + (i * batch.win_w + j) * chans + c];
                    sum += a.mag().to_f64() * err[geom.neuron_at(r, i, j) + c].to_f64();
                }
            }
        }
        sum
    }

    fn absorb_round_off_widens_by_the_weighted_round_off<F: Fp>() {
        let device = dev();
        // Two segments with different round-off, stacked.
        let err_a: Vec<F> = (0..18)
            .map(|n| F::from_f64(1e-6 * (n + 1) as f64))
            .collect();
        let err_b: Vec<F> = (0..18)
            .map(|n| F::from_f64(3e-5 / (n + 1) as f64))
            .collect();
        let parts = vec![padded_conv_rows::<F>(&device), padded_conv_rows(&device)];
        let mut batch = ExprBatch::stack(&device, parts).unwrap();
        batch.hi[3] = Itv::new(F::from_f64(-2.0), F::from_f64(0.5)); // planes differ
        let before = (batch.cst_lo.clone(), batch.cst_hi.clone());
        batch.absorb_round_off(&[&err_a, &err_b]);
        for r in 0..batch.rows() {
            let err = if r < 3 { &err_a } else { &err_b };
            for (upper, was, now) in [
                (false, before.0[r], batch.cst_lo[r]),
                (true, before.1[r], batch.cst_hi[r]),
            ] {
                let want = owed(&batch, r, err, upper);
                assert!(want > 0.0);
                let (down, up) = (
                    was.lo.to_f64() - now.lo.to_f64(),
                    now.hi.to_f64() - was.hi.to_f64(),
                );
                // Never less than owed; and within rounding (of the sum, and
                // of the widened constant) of it.
                assert!(down >= want && up >= want, "row {r}: {down}, {up} < {want}");
                let most = want * 1.001 + 2.0 * F::EPSILON.to_f64() * now.mag().to_f64();
                assert!(down <= most && up <= most, "row {r} pays too much");
            }
        }
        // An unbounded round-off costs nothing under a zero coefficient and
        // everything under any other: row 0 sits in the top-left corner
        // and has a zero at neuron 17, row 2 (the opposite corner) a tap.
        let mut batch = padded_conv_rows::<F>(&device);
        let mut err = err_a.clone();
        err[17] = F::INFINITY;
        batch.absorb_round_off(&[&err]);
        assert!(batch.cst_lo[0].is_finite() && batch.cst_hi[0].is_finite());
        assert_eq!(batch.cst_lo[2], Itv::top());
        assert_eq!(batch.cst_hi[2], Itv::top());
    }

    #[test]
    fn absorb_round_off_widens_by_the_weighted_round_off_f32() {
        absorb_round_off_widens_by_the_weighted_round_off::<f32>();
    }

    #[test]
    fn absorb_round_off_widens_by_the_weighted_round_off_f64() {
        absorb_round_off_widens_by_the_weighted_round_off::<f64>();
    }

    #[test]
    fn filter_rows_keeps_selected() {
        let device = dev();
        let shape = Shape::flat(4);
        let batch = ExprBatch::<f32, _>::identity(&device, 1, shape, &[0, 1, 2, 3]).unwrap();
        let (filtered, index) = batch
            .filter_rows(&device, &[true, false, true, false])
            .unwrap();
        assert_eq!(index, vec![0, 2]);
        assert_eq!(filtered.rows(), 2);
        let bounds: Vec<Itv<f32>> = (0..4).map(|i| Itv::point(i as f32)).collect();
        let cand = filtered.concretize(&device, &bounds);
        assert!(cand[0].contains(0.0) && cand[1].contains(2.0));
    }

    #[test]
    fn densify_preserves_semantics() {
        let device = dev();
        let conv = Conv2d::new(
            Shape::new(3, 3, 2),
            2,
            (2, 2),
            (1, 1),
            (1, 1),
            (0..2 * 2 * 2 * 2).map(|i| i as f32 * 0.1 - 0.3).collect(),
            vec![0.1, -0.2],
        )
        .unwrap();
        let batch = ExprBatch::from_conv(&device, &conv, &[0, 5, 17], 0, None).unwrap();
        let bounds: Vec<Itv<f32>> = (0..18)
            .map(|i| Itv::new(i as f32 * 0.1 - 0.5, i as f32 * 0.1))
            .collect();
        let before = batch.concretize(&device, &bounds);
        let full = batch.densify(&device).unwrap();
        assert!(full.is_full());
        let after = full.concretize(&device, &bounds);
        for (b, a) in before.iter().zip(&after) {
            assert!((b.lo - a.lo).abs() < 1e-5 && (b.hi - a.hi).abs() < 1e-5);
        }
    }

    #[test]
    fn split_and_merge_round_trip_doubles() {
        let device = dev();
        let shape = Shape::new(2, 2, 1);
        let batch = ExprBatch::<f32, _>::identity(&device, 3, shape, &[0, 3]).unwrap();
        // Both branches are identity skips, so both land on the same head.
        let (a, b) = batch.split_add(&device, 1, shape, 1, shape).unwrap();
        let merged = ExprBatch::merge(a, b, &device).unwrap();
        // identity + identity = 2x
        let bounds: Vec<Itv<f32>> = (0..4).map(|i| Itv::point(i as f32)).collect();
        let cand = merged.concretize(&device, &bounds);
        assert!(cand[0].contains(0.0));
        assert!(cand[1].contains(6.0));
    }

    #[test]
    fn merge_aligns_different_windows() {
        let device = dev();
        let shape = Shape::new(4, 4, 1);
        // a: 1x1 window at (1,1); b: full window
        let a = ExprBatch::<f32, _>::identity(&device, 2, shape, &[5]).unwrap();
        let mut b = ExprBatch::<f32, _>::zeroed(&device, 2, shape, (4, 4), vec![(0, 0)]).unwrap();
        b.set_coeff(0, 5, Itv::point(2.0)); // same neuron, coefficient 2
        b.set_coeff(0, 0, Itv::point(1.0)); // neuron 0, coefficient 1
        let m = ExprBatch::merge(a, b, &device).unwrap();
        let bounds: Vec<Itv<f32>> = (0..16).map(|i| Itv::point(i as f32)).collect();
        let cand = m.concretize(&device, &bounds);
        // 3 * bounds[5] + 1 * bounds[0] = 15
        assert!(cand[0].contains(15.0), "{}", cand[0]);
    }

    #[test]
    fn memory_accounting_flows_through_batches() {
        let device = Device::new(DeviceConfig::new().workers(1).memory_capacity(1 << 20));
        let shape = Shape::flat(128);
        let used0 = device.memory_in_use();
        {
            let _b = ExprBatch::<f32, _>::identity(&device, 0, shape, &[0, 1, 2]).unwrap();
            assert!(device.memory_in_use() > used0);
        }
        assert_eq!(device.memory_in_use(), used0);
        // A batch too large for the device fails cleanly.
        let huge: Vec<usize> = (0..128).collect();
        let r = ExprBatch::<f32, _>::from_dense(
            &device,
            &Dense::new(128, 4096, vec![0.0; 128 * 4096], vec![0.0; 128]).unwrap(),
            &huge,
            0,
            Shape::flat(4096),
            None,
        );
        assert!(matches!(r, Err(VerifyError::Device(_))));
    }
}

//! Matrix–matrix kernels.
//!
//! Backsubstitution through a fully-connected layer is the matrix product
//! `M_{k-1} = M_k · F_k` (paper Fig. 2). To stay floating-point sound the
//! coefficients of `M_k` are intervals while `F_k` holds the scalar network
//! weights, so the product is an *interval×scalar* GEMM — the role cutlass +
//! custom multiply-add plays in the CUDA implementation (§4.1). The CUDA
//! kernels round every multiply and add outward; here the `f32` kernels get
//! the same guarantee from one directed rounding per output instead: the
//! product of two `f32` is exact in `f64`, so each output element sums exact
//! products in round-to-nearest `f64` (ascending `k`, zero coefficients
//! skipped), widens the sum once by an a-priori bound on the additions'
//! round-off, and rounds once, directed, back to `f32`
//! (`gpupoly_interval::wide`). That is both an order of magnitude faster
//! than stepping `next_up`/`next_down` after every operation and tighter —
//! about one `f32` ulp per output instead of `2k`. `f64` intervals, and
//! outputs with a non-finite operand, keep the per-step
//! [`Itv::mul_add_f`] chain. A plain round-to-nearest scalar GEMM is
//! provided for the unsound baselines and for measuring the soundness
//! overhead (the paper reports ≈2× memory and >2× flops; compare
//! [`flops_itv_f`] with [`flops_f_f`]).
//!
//! All matrices are dense row-major. The functions here are thin wrappers —
//! dimension checks, launch recording, flop accounting — around the device's
//! [`crate::Backend`], which supplies the actual kernel (register-blocked
//! on [`crate::CpuSimBackend`], straight-line on
//! [`crate::ReferenceBackend`]). Blocking only covers `m`/`n`;
//! every backend performs the same operation sequence per output element,
//! so results are bit-identical across backends (see the [`crate::backend`]
//! module docs for the contract — what a GPU port must reproduce — and
//! [`crate::conformance`], in particular
//! [`crate::conformance::check_gemm_blocking`] and
//! [`crate::conformance::check_gemm_special_rows`], for the suite that
//! enforces it).
//!
//! # Example
//!
//! ```
//! use gpupoly_device::{gemm, Device};
//! use gpupoly_interval::Itv;
//!
//! let dev = Device::default();
//! // [1 2] · [[1 0],[0 1]] = [1 2]
//! let a = vec![Itv::point(1.0_f32), Itv::point(2.0)];
//! let b = vec![1.0_f32, 0.0, 0.0, 1.0];
//! let mut c = vec![Itv::zero(); 2];
//! gemm::gemm_itv_f(&dev, &a, &b, &mut c, 1, 2, 2);
//! assert!(c[0].contains(1.0) && c[1].contains(2.0));
//! ```

use std::marker::PhantomData;

use gpupoly_interval::wide::max_mag_blocked;
use gpupoly_interval::{Fp, Itv};

use crate::backend::{self, Backend};
use crate::{Device, GemmBuild};

pub(crate) fn check_dims<T, U, V>(a: &[T], b: &[U], c: &[V], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "GEMM: A must be m*k");
    assert_eq!(b.len(), k * n, "GEMM: B must be k*n");
    assert_eq!(c.len(), m * n, "GEMM: C must be m*n");
}

/// Bytes read + written by one GEMM launch (A, B and C each touched once).
fn bytes_moved<T, U, V>(a: &[T], b: &[U], c: &[V]) -> u64 {
    (std::mem::size_of_val(a) + std::mem::size_of_val(b) + std::mem::size_of_val(c)) as u64
}

/// Scalar-equivalent flop count of the sound interval×scalar GEMM
/// (2 multiplies + 2 adds per multiply-add).
pub fn flops_itv_f(m: usize, k: usize, n: usize) -> u64 {
    4 * (m as u64) * (k as u64) * (n as u64)
}

/// Scalar-equivalent flop count of the unsound scalar GEMM.
pub fn flops_f_f(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// Sound interval×scalar GEMM: `C = A · B` with `A: m×k` interval entries,
/// `B: k×n` scalar entries, rounded outward.
///
/// Zero interval entries of `A` are skipped — mandatorily, by every
/// backend — so the sparsity produced by dependence-set padding costs no
/// flops (see the [`crate::backend`] contract; the scalar [`gemm_f_f`]
/// must instead never skip).
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn gemm_itv_f<F: Fp, B: Backend>(
    device: &Device<B>,
    a: &[Itv<F>],
    b: &[F],
    c: &mut [Itv<F>],
    m: usize,
    k: usize,
    n: usize,
) {
    check_dims(a, b, c, m, k, n);
    device
        .stats()
        .record_work("gemm_itv_f", flops_itv_f(m, k, n), bytes_moved(a, b, c));
    device.backend().gemm_itv_f(device, a, b, c, m, k, n);
}

/// Meters a live launch under the `gemm_itv_f` label: flops `4·k` per live
/// output, and `B` read once per segment with rows, its live columns only
/// (segment `s` has `lens[s]` of them).
fn record_live_work<F: Fp, B: Backend>(
    device: &Device<B>,
    (a, c): (&[Itv<F>], &[Itv<F>]),
    k: usize,
    seg: &[u32],
    lens: &[usize],
) {
    let mut rows = vec![0u64; lens.len()];
    for &s in seg {
        *rows
            .get_mut(s as usize)
            .expect("GEMM: segment index without a live list") += 1;
    }
    let (mut outputs, mut b_read) = (0u64, 0u64);
    for (&r, &len) in rows.iter().zip(lens) {
        outputs += r * len as u64;
        b_read += u64::from(r > 0) * len as u64;
    }
    let itv = std::mem::size_of::<Itv<F>>() as u64;
    device.stats().record_work(
        "gemm_itv_f",
        4 * k as u64 * outputs,
        itv * (a.len() + c.len()) as u64 + std::mem::size_of::<F>() as u64 * k as u64 * b_read,
    );
}

/// A dense layer's weights as the interval product reads them: `B`, `k×n`
/// row-major, and its `wmax` — per row of `B` the largest magnitude,
/// `+inf` for a row holding `±inf` or NaN ([`layer_wmax`]). Every launch
/// over the whole of `B` takes that `wmax` (the [`crate::backend`]
/// contract), so a layer's is made once, when its network is prepared,
/// instead of scanned by every launch through it.
#[derive(Clone, Copy, Debug)]
pub struct DenseWeights<'a, F> {
    b: &'a [F],
    wmax: &'a [f64],
    k: usize,
    n: usize,
}

impl<'a, F: Fp> DenseWeights<'a, F> {
    /// `B` (`k×n`) with its `wmax`, which must be [`layer_wmax`]'s of it.
    ///
    /// # Panics
    ///
    /// Panics when `b` does not have `k·n` entries or `wmax` not
    /// [`layer_wmax`]'s length.
    pub fn new(b: &'a [F], wmax: &'a [f64], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "GEMM: B must be k*n");
        assert_eq!(
            wmax.len(),
            if F::EXACT_IN_F64 { k } else { 0 },
            "GEMM: one wmax per row of B (none for a scalar type the wide rule does not take)"
        );
        Self { b, wmax, k, n }
    }

    /// `B`, `k×n` row-major.
    pub fn b(&self) -> &'a [F] {
        self.b
    }

    /// Each row's `wmax`.
    pub fn wmax(&self) -> &'a [f64] {
        self.wmax
    }

    /// Rows of `B`: the product's inner dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of `B`.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Lanes of the `wmax` scan of a GEMM's `B` ([`max_mag_blocked`]): sixteen
/// running maxima, four 128-bit registers of `f32`.
const WMAX_LANES: usize = 16;

/// The `wmax` of `B`, `k` rows of `n`, for [`DenseWeights`]: per row the
/// largest magnitude, `+inf` when one of its weights is `±inf` or NaN, zero
/// for an empty row — made once for a layer, and by
/// [`crate::CpuSimBackend`]'s launches over raw slices for their one launch.
/// Empty for scalar types without [`Fp::EXACT_IN_F64`], whose products never
/// read it.
///
/// # Panics
///
/// Panics when `b` does not have `k·n` entries.
pub fn layer_wmax<F: Fp>(b: &[F], k: usize, n: usize) -> Vec<f64> {
    assert_eq!(b.len(), k * n, "GEMM: B must be k*n");
    match (F::EXACT_IN_F64, n) {
        (false, _) => Vec::new(),
        (true, 0) => vec![0.0; k],
        (true, _) => b.chunks(n).map(max_mag_blocked::<F, WMAX_LANES>).collect(),
    }
}

/// One query's *live panel* of a dense layer: the columns of `B` it lists
/// live (the neurons of the layer's input that are not stably off, read off
/// the query's [`crate::ReluTable`]), widened to `f64` and packed in blocks
/// of the lane width of the build that made it ([`GemmBuild`]) —
/// block-major, `k` blocks for each run of that many live columns, the last
/// one padded with zeros. A step into the layer reads each query's panel
/// through [`gemm_itv_f_prepared`], the one entry of the live product: made
/// once, it serves both planes and every walk of the query through the
/// layer. Host memory, like the `B` it is read from on this simulator.
pub struct LivePanel<F> {
    live: Vec<u32>,
    k: usize,
    n: usize,
    lanes: usize,
    packed: Vec<f64>,
    scalar: PhantomData<F>,
}

impl<F: Fp> LivePanel<F> {
    /// The panel of `weights` over the ascending columns `live`, packed for
    /// the build this process runs ([`GemmBuild::detected`];
    /// [`GemmBuild::live_panel`] for another).
    ///
    /// # Panics
    ///
    /// Panics when `live` is not strictly ascending below `n`.
    pub fn new(weights: &DenseWeights<'_, F>, live: &[u32]) -> Self {
        GemmBuild::detected().live_panel(weights, live)
    }

    /// The panel packed in blocks of `lanes`; nothing is packed for a scalar
    /// type the wide rule does not take.
    pub(crate) fn packed_for(weights: &DenseWeights<'_, F>, live: &[u32], lanes: usize) -> Self {
        let n = weights.n();
        assert!(
            live.windows(2).all(|p| p[0] < p[1]) && live.last().is_none_or(|&j| (j as usize) < n),
            "GEMM: live columns must be strictly ascending and below n = {n}"
        );
        let packed = match F::EXACT_IN_F64 {
            true => backend::pack_live(weights.b(), n, live, lanes),
            false => Vec::new(),
        };
        Self {
            live: live.to_vec(),
            k: weights.k(),
            n,
            lanes,
            packed,
            scalar: PhantomData,
        }
    }

    /// The live columns, ascending.
    pub fn live(&self) -> &[u32] {
        &self.live
    }

    /// Whether the panel was made over a `k×n` `B`.
    pub(crate) fn fits(&self, k: usize, n: usize) -> bool {
        (self.k, self.n) == (k, n)
    }

    /// The packed blocks, `L` lanes each. Never inlined: a build's call to
    /// it is what marks the prepared product among its kernels in the
    /// disassembly (CI checks its lane loops).
    ///
    /// # Panics
    ///
    /// Panics when the panel was packed for another lane width.
    #[inline(never)]
    pub(crate) fn columns<const L: usize>(&self) -> &[[f64; L]] {
        assert_eq!(self.lanes, L, "a live panel packed for another build");
        self.packed.as_chunks::<L>().0
    }
}

/// [`gemm_itv_f`] over operands made beforehand — the layer's
/// [`DenseWeights`] — and, for a step into a ReLU layer, with one
/// [`LivePanel`] per segment: row `r` then computes the ascending columns
/// `panels[seg[r]].live()` — bit for bit what [`gemm_itv_f`] writes there,
/// each term's `wmax` taken over the whole row of `B` — and writes every
/// other column as an exact zero (see [`Backend::gemm_itv_f_prepared`]). A
/// dense step whose input is a ReLU layer lists each query's neurons that
/// are not stably off: the columns over a dead neuron are multiplied by zero
/// in the next step whatever they hold. The bits are those of
/// [`gemm_itv_f`] over `weights.b()`, dead columns zeroed; a launch neither
/// scans `B` for `wmax` nor packs live columns.
///
/// One launch for every segment, metered under the `gemm_itv_f` label:
/// without panels as [`gemm_itv_f`], with them counting live columns only —
/// flops `4·k` per live output, and `B` read once per segment with rows, its
/// live columns only.
///
/// # Panics
///
/// Panics on dimension mismatches, and with `panels` when `seg` does not
/// have `m` entries or names a segment without a panel, or a panel was made
/// over another shape of `B`.
pub fn gemm_itv_f_prepared<F: Fp, B: Backend>(
    device: &Device<B>,
    a: &[Itv<F>],
    weights: &DenseWeights<'_, F>,
    c: &mut [Itv<F>],
    m: usize,
    seg: &[u32],
    panels: Option<&[&LivePanel<F>]>,
) {
    let (b, k, n) = (weights.b(), weights.k(), weights.n());
    check_dims(a, b, c, m, k, n);
    match panels {
        None => {
            device
                .stats()
                .record_work("gemm_itv_f", flops_itv_f(m, k, n), bytes_moved(a, b, c))
        }
        Some(panels) => {
            assert_eq!(seg.len(), m, "GEMM: one segment index per row");
            assert!(
                panels.iter().all(|p| p.fits(k, n)),
                "GEMM: a live panel made over another shape of B"
            );
            let lens: Vec<usize> = panels.iter().map(|p| p.live().len()).collect();
            record_live_work(device, (a, c), k, seg, &lens);
        }
    }
    device
        .backend()
        .gemm_itv_f_prepared(device, a, weights, c, m, seg, panels);
}

/// A walk's last step through a dense layer over the input, and the
/// candidate it yields, in one launch: both planes `lo`, `hi` (`m` rows of
/// `weights.k()` coefficients) times `weights`, each row of the products
/// concretized from `cst_lo[r]`, `cst_hi[r]` — the constants, bias folded in
/// — against `bounds_per_seg[seg[r]]`, the input's bounds of the row's
/// segment, into `out[r]` ([`Backend::concretize_dense`]). The candidates
/// are bit for bit those of [`gemm_itv_f_prepared`] twice, without panels,
/// and [`crate::kernels::concretize`] over the products; the products are
/// never written out.
///
/// One launch, metered under `concretize_dense` with the flops of the three
/// it stands for — `4·k` per output of each product, `4` per coefficient
/// of one concretize — and the bytes of both planes, `B` and the
/// candidates.
///
/// # Panics
///
/// Panics when a plane does not have `m·k` entries, a constant, `seg` or
/// `out` not `m`, a bounds slice not `n`, or a row's segment has no bounds.
#[allow(clippy::too_many_arguments)]
pub fn concretize_dense<F: Fp, B: Backend>(
    device: &Device<B>,
    lo: &[Itv<F>],
    hi: &[Itv<F>],
    weights: &DenseWeights<'_, F>,
    cst_lo: &[Itv<F>],
    cst_hi: &[Itv<F>],
    seg: &[u32],
    bounds_per_seg: &[&[Itv<F>]],
    out: &mut [Itv<F>],
) {
    check_concretize_dense(lo, hi, weights, (cst_lo, cst_hi), seg, bounds_per_seg, out);
    let (m, k, n) = (out.len(), weights.k(), weights.n());
    device.stats().record_work(
        "concretize_dense",
        2 * flops_itv_f(m, k, n) + 4 * (m * n) as u64,
        (std::mem::size_of_val(lo) + std::mem::size_of_val(hi) + std::mem::size_of_val(out)) as u64
            + std::mem::size_of_val(weights.b()) as u64,
    );
    device.backend().concretize_dense(
        device,
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

/// The shape checks of [`concretize_dense`].
///
/// # Panics
///
/// As [`concretize_dense`].
pub(crate) fn check_concretize_dense<F>(
    lo: &[Itv<F>],
    hi: &[Itv<F>],
    weights: &DenseWeights<'_, F>,
    (cst_lo, cst_hi): (&[Itv<F>], &[Itv<F>]),
    seg: &[u32],
    bounds_per_seg: &[&[Itv<F>]],
    out: &[Itv<F>],
) {
    let (m, k, n) = (out.len(), weights.k, weights.n);
    assert_eq!(lo.len(), m * k, "concretize_dense: lower plane must be m*k");
    assert_eq!(hi.len(), m * k, "concretize_dense: upper plane must be m*k");
    assert_eq!(cst_lo.len(), m, "concretize_dense: lower constants");
    assert_eq!(cst_hi.len(), m, "concretize_dense: upper constants");
    assert_eq!(seg.len(), m, "concretize_dense: one segment index per row");
    for b in bounds_per_seg {
        assert_eq!(b.len(), n, "concretize_dense: bounds length");
    }
    assert!(
        seg.iter().all(|&s| (s as usize) < bounds_per_seg.len()),
        "concretize_dense: segment index out of range for {} bounds slices",
        bounds_per_seg.len()
    );
}

/// Sound interval×scalar GEMM accumulating into `C`: `C += A · B`.
///
/// Used when the two branches of a residual block merge their coefficient
/// matrices at the head of the block.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn gemm_itv_f_acc<F: Fp, B: Backend>(
    device: &Device<B>,
    a: &[Itv<F>],
    b: &[F],
    c: &mut [Itv<F>],
    m: usize,
    k: usize,
    n: usize,
) {
    check_dims(a, b, c, m, k, n);
    device
        .stats()
        .record_work("gemm_itv_f_acc", flops_itv_f(m, k, n), bytes_moved(a, b, c));
    device.backend().gemm_itv_f_acc(device, a, b, c, m, k, n);
}

/// Unsound round-to-nearest scalar GEMM: `C = A · B`.
///
/// This is what off-the-shelf BLAS would compute; it exists for the
/// CROWN-IBP baseline and the soundness-overhead ablation, never for
/// certification.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn gemm_f_f<F: Fp, B: Backend>(
    device: &Device<B>,
    a: &[F],
    b: &[F],
    c: &mut [F],
    m: usize,
    k: usize,
    n: usize,
) {
    check_dims(a, b, c, m, k, n);
    device
        .stats()
        .record_work("gemm_f_f", flops_f_f(m, k, n), bytes_moved(a, b, c));
    device.backend().gemm_f_f(device, a, b, c, m, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;

    fn pt(x: f32) -> Itv<f32> {
        Itv::point(x)
    }

    /// Serial f64 reference product of point matrices.
    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + kk] as f64 * b[kk * n + j] as f64;
                }
            }
        }
        c
    }

    #[test]
    fn identity_product() {
        let dev = Device::default();
        let a: Vec<Itv<f32>> = vec![pt(1.0), pt(2.0), pt(3.0), pt(4.0)];
        let b = vec![1.0f32, 0.0, 0.0, 1.0];
        let mut c = vec![Itv::zero(); 4];
        gemm_itv_f(&dev, &a, &b, &mut c, 2, 2, 2);
        // Each sum is exact, but the outputs of a row share the error bound
        // of the row's term list — two terms here — so the result is one
        // step wide of the input on either side, and no more.
        for (ci, ai) in c.iter().zip(&a) {
            assert_eq!((ci.lo, ci.hi), (ai.lo.next_down(), ai.hi.next_up()));
        }
        // A one-term list has no addition to bound: bit for bit.
        let mut c = vec![Itv::zero(); 4];
        gemm_itv_f(&dev, &a, &[1.0f32], &mut c, 4, 1, 1);
        assert_eq!(c, a);
    }

    #[test]
    fn interval_gemm_contains_f64_reference() {
        let dev = Device::new(DeviceConfig::new().workers(3));
        let (m, k, n) = (5, 17, 9);
        let av: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.1)
            .collect();
        let bv: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.05)
            .collect();
        let a: Vec<Itv<f32>> = av.iter().map(|&x| pt(x)).collect();
        let mut c = vec![Itv::zero(); m * n];
        gemm_itv_f(&dev, &a, &bv, &mut c, m, k, n);
        let want = reference(&av, &bv, m, k, n);
        for (ci, wi) in c.iter().zip(&want) {
            assert!(
                (ci.lo as f64) <= *wi && *wi <= (ci.hi as f64),
                "{ci} misses {wi}"
            );
        }
    }

    #[test]
    fn wide_intervals_cover_endpoint_products() {
        let dev = Device::default();
        // A = [[-1,1]], B = [[2], [..]]
        let a = vec![Itv::new(-1.0f32, 1.0), Itv::new(0.0, 0.5)];
        let b = vec![2.0f32, -4.0];
        let mut c = vec![Itv::zero(); 1];
        gemm_itv_f(&dev, &a, &b, &mut c, 1, 2, 1);
        // extremes: -1*2 + 0.5*-4 = -4 ; 1*2 + 0*-4 = 2
        assert!(c[0].contains(-4.0) && c[0].contains(2.0));
    }

    #[test]
    fn acc_variant_accumulates() {
        let dev = Device::default();
        let a = vec![pt(1.0); 2];
        let b = vec![1.0f32, 1.0];
        let mut c = vec![Itv::point(10.0); 1];
        gemm_itv_f_acc(&dev, &a, &b, &mut c, 1, 2, 1);
        assert!(c[0].contains(12.0));
        assert!(c[0].lo > 11.0 && c[0].hi < 13.0);
    }

    #[test]
    fn scalar_gemm_matches_reference_closely() {
        let dev = Device::default();
        let (m, k, n) = (3, 8, 4);
        let av: Vec<f32> = (0..m * k).map(|i| (i as f32).sin()).collect();
        let bv: Vec<f32> = (0..k * n).map(|i| (i as f32).cos()).collect();
        let mut c = vec![0.0f32; m * n];
        gemm_f_f(&dev, &av, &bv, &mut c, m, k, n);
        let want = reference(&av, &bv, m, k, n);
        for (ci, wi) in c.iter().zip(&want) {
            assert!((*ci as f64 - wi).abs() < 1e-4);
        }
    }

    #[test]
    fn flop_accounting_shows_soundness_overhead() {
        assert_eq!(flops_itv_f(2, 3, 4), 2 * flops_f_f(2, 3, 4));
        let dev = Device::default();
        let a = vec![pt(1.0); 4];
        let b = vec![1.0f32; 4];
        let mut c = vec![Itv::zero(); 4];
        let before = dev.stats().flops();
        gemm_itv_f(&dev, &a, &b, &mut c, 2, 2, 2);
        assert_eq!(dev.stats().flops() - before, flops_itv_f(2, 2, 2));
    }

    #[test]
    fn empty_dimensions_are_fine() {
        let dev = Device::default();
        let mut c: Vec<Itv<f32>> = vec![];
        gemm_itv_f::<f32, _>(&dev, &[], &[], &mut c, 0, 0, 0);
        let mut c2 = vec![Itv::<f32>::zero(); 2];
        // m=2, k=0, n=1: product over empty k is zero
        gemm_itv_f::<f32, _>(&dev, &[], &[], &mut c2, 2, 0, 1);
        assert_eq!(c2, vec![Itv::zero(); 2]);
    }

    #[test]
    #[should_panic(expected = "A must be m*k")]
    fn dimension_mismatch_panics() {
        let dev = Device::default();
        let mut c = vec![Itv::<f32>::zero(); 1];
        gemm_itv_f::<f32, _>(&dev, &[Itv::zero(); 3], &[1.0; 2], &mut c, 1, 2, 1);
    }

    #[test]
    fn tiling_boundary_exactness() {
        // n spanning many register blocks with an odd remainder.
        let dev = Device::new(DeviceConfig::new().workers(2));
        let (m, k, n) = (2, 3, 512 + 7);
        let av: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5 - 1.0).collect();
        let bv: Vec<f32> = (0..k * n).map(|i| ((i % 13) as f32) * 0.25 - 1.5).collect();
        let a: Vec<Itv<f32>> = av.iter().map(|&x| pt(x)).collect();
        let mut c = vec![Itv::zero(); m * n];
        gemm_itv_f(&dev, &a, &bv, &mut c, m, k, n);
        let want = reference(&av, &bv, m, k, n);
        for (ci, wi) in c.iter().zip(&want) {
            assert!((ci.lo as f64) <= *wi && *wi <= (ci.hi as f64));
        }
    }
}

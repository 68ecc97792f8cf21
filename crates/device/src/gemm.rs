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

use gpupoly_interval::{Fp, Itv};

use crate::backend::Backend;
use crate::Device;

fn check_dims<T, U, V>(a: &[T], b: &[U], c: &[V], m: usize, k: usize, n: usize) {
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

/// [`gemm_itv_f`] over each row's live columns: row `r` computes the
/// ascending columns `live_per_seg[seg[r]]` — bit for bit what
/// [`gemm_itv_f`] writes there, each term's `wmax` taken over the whole row
/// of `B` — and writes every other column as an exact zero (see
/// [`Backend::gemm_itv_f_live`]). A dense step whose input is a ReLU layer
/// lists each query's neurons that are not stably off: the columns over a
/// dead neuron are multiplied by zero in the next step whatever they hold.
///
/// One launch for every segment, metered under the `gemm_itv_f` label and
/// counting live columns only: flops `4·k` per live output, and `B` read
/// once per segment with rows, its live columns only.
///
/// # Panics
///
/// Panics on dimension mismatches, when `seg` does not have `m` entries or
/// names a segment without a list, and when a list is not strictly
/// ascending below `n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_itv_f_live<F: Fp, B: Backend>(
    device: &Device<B>,
    a: &[Itv<F>],
    b: &[F],
    c: &mut [Itv<F>],
    m: usize,
    k: usize,
    n: usize,
    seg: &[u32],
    live_per_seg: &[&[u32]],
) {
    check_dims(a, b, c, m, k, n);
    assert_eq!(seg.len(), m, "GEMM: one segment index per row");
    for live in live_per_seg {
        assert!(
            live.windows(2).all(|p| p[0] < p[1]) && live.last().is_none_or(|&j| (j as usize) < n),
            "GEMM: live columns must be strictly ascending and below n = {n}"
        );
    }
    let mut rows = vec![0u64; live_per_seg.len()];
    for &s in seg {
        *rows
            .get_mut(s as usize)
            .expect("GEMM: segment index without a live list") += 1;
    }
    let (mut outputs, mut b_read) = (0u64, 0u64);
    for (&r, live) in rows.iter().zip(live_per_seg) {
        outputs += r * live.len() as u64;
        b_read += u64::from(r > 0) * live.len() as u64;
    }
    let itv = std::mem::size_of::<Itv<F>>() as u64;
    device.stats().record_work(
        "gemm_itv_f",
        4 * k as u64 * outputs,
        itv * (a.len() + c.len()) as u64 + std::mem::size_of::<F>() as u64 * k as u64 * b_read,
    );
    device
        .backend()
        .gemm_itv_f_live(device, a, b, c, m, k, n, seg, live_per_seg);
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

//! Parallel prefix sum and stream compaction.
//!
//! GPUPoly's early-termination pass removes rows from the bound matrix `M_k`
//! on the fly (§4.2, "Removing rows from a matrix in a shared memory
//! context"): every thread checks the termination criterion for its row, a
//! parallel prefix sum assigns each surviving row a unique destination index,
//! and the surviving rows are copied into the compacted matrix `M'_k`
//! together with an index array mapping them back to their original neurons.
//! This module is the wrapper layer for exactly that primitive: dimension
//! checks and launch recording here, the kernel itself supplied by the
//! device's [`crate::Backend`]. On the CPU stand-ins the scan and the index
//! compaction are one serial pass on both backends — their inputs hold one
//! flag per matrix row, a few thousand at most — and so is the row gather,
//! which moves the matrix itself, inline in the walk that launched it.
//!
//! # Example
//!
//! ```
//! use gpupoly_device::{scan, Device};
//!
//! let dev = Device::default();
//! let (prefix, total) = scan::exclusive_scan(&dev, &[1, 0, 2, 1]);
//! assert_eq!(prefix, vec![0, 1, 1, 3]);
//! assert_eq!(total, 4);
//!
//! // Keep rows 0 and 2 of a 3-row matrix with 2 columns.
//! let m = [10, 11, 20, 21, 30, 31];
//! let (compacted, index) = scan::compact_rows(&dev, &m, 2, &[true, false, true]);
//! assert_eq!(compacted, vec![10, 11, 30, 31]);
//! assert_eq!(index, vec![0, 2]);
//! ```

use crate::backend::Backend;
use crate::Device;

/// Exclusive prefix sum (a parallel scan on a GPU port).
///
/// Returns the scanned vector and the total sum.
pub fn exclusive_scan<B: Backend>(device: &Device<B>, xs: &[u32]) -> (Vec<u32>, u32) {
    device
        .stats()
        .record_work("exclusive_scan", 0, 2 * std::mem::size_of_val(xs) as u64);
    device.backend().exclusive_scan(device, xs)
}

/// Computes the index array of a compaction: the original indices of all
/// `true` entries, in order, via the prefix-sum scatter of §4.2.
pub fn compact_indices<B: Backend>(device: &Device<B>, keep: &[bool]) -> Vec<u32> {
    device
        .stats()
        .record_work("compact_indices", 0, 5 * keep.len() as u64);
    device.backend().compact_indices(device, keep)
}

/// Removes the rows of a row-major matrix whose `keep` flag is `false`.
///
/// Returns the compacted matrix `M'` and the index array mapping each row of
/// `M'` to its original row in `M` — the pair GPUPoly threads through its
/// early-terminated backsubstitutions.
///
/// # Panics
///
/// Panics when `src.len() != keep.len() * row_len`.
pub fn compact_rows<T: Copy + Send + Sync, B: Backend>(
    device: &Device<B>,
    src: &[T],
    row_len: usize,
    keep: &[bool],
) -> (Vec<T>, Vec<u32>) {
    assert_eq!(
        src.len(),
        keep.len() * row_len,
        "compact_rows: matrix shape mismatch"
    );
    let index = compact_indices(device, keep);
    device.stats().record_launch("compact_rows");
    let Some(&fill) = src.first() else {
        return (Vec::new(), index);
    };
    let mut dst = vec![fill; index.len() * row_len];
    gather_rows_into(device, src, row_len, &index, &mut dst);
    (dst, index)
}

/// Gathers the rows listed in `index` from a row-major matrix into `dst` —
/// the scatter half of compaction, split out so callers can gather into
/// pre-allocated (pooled) device storage.
///
/// # Panics
///
/// Panics when `dst.len() != index.len() * row_len` or an index is out of
/// range for `src`.
pub fn gather_rows_into<T: Copy + Send + Sync, B: Backend>(
    device: &Device<B>,
    src: &[T],
    row_len: usize,
    index: &[u32],
    dst: &mut [T],
) {
    assert_eq!(
        dst.len(),
        index.len() * row_len,
        "gather_rows_into: destination shape mismatch"
    );
    device.stats().record_work(
        "gather_rows",
        0,
        2 * std::mem::size_of_val(dst) as u64 + std::mem::size_of_val(index) as u64,
    );
    device
        .backend()
        .gather_rows(device, src, row_len, index, dst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;

    fn serial_scan(xs: &[u32]) -> (Vec<u32>, u32) {
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = 0;
        for &x in xs {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn scan_empty() {
        let dev = Device::default();
        assert_eq!(exclusive_scan(&dev, &[]), (vec![], 0));
    }

    #[test]
    fn scan_matches_serial_across_sizes_and_workers() {
        for workers in [1, 2, 7] {
            let dev = Device::new(DeviceConfig::new().workers(workers));
            for n in [1usize, 2, 5, 63, 64, 65, 1000, 4097] {
                let xs: Vec<u32> = (0..n).map(|i| ((i * 2654435761) % 5) as u32).collect();
                let got = exclusive_scan(&dev, &xs);
                assert_eq!(got, serial_scan(&xs), "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn compact_indices_matches_filter() {
        let dev = Device::new(DeviceConfig::new().workers(3));
        for n in [0usize, 1, 10, 257, 1024] {
            let keep: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
            let want: Vec<u32> = (0..n as u32).filter(|&i| keep[i as usize]).collect();
            assert_eq!(compact_indices(&dev, &keep), want, "n={n}");
        }
    }

    #[test]
    fn compact_rows_none_kept() {
        let dev = Device::default();
        let (m, idx) = compact_rows(&dev, &[1, 2, 3, 4], 2, &[false, false]);
        assert!(m.is_empty() && idx.is_empty());
    }

    #[test]
    fn compact_rows_all_kept_is_identity() {
        let dev = Device::default();
        let src = [1, 2, 3, 4, 5, 6];
        let (m, idx) = compact_rows(&dev, &src, 3, &[true, true]);
        assert_eq!(m, src.to_vec());
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn compact_rows_preserves_row_content_and_order() {
        let dev = Device::new(DeviceConfig::new().workers(4));
        let rows = 100;
        let row_len = 7;
        let src: Vec<u64> = (0..rows * row_len).map(|i| i as u64).collect();
        let keep: Vec<bool> = (0..rows).map(|i| i % 4 == 0 || i % 7 == 0).collect();
        let (m, idx) = compact_rows(&dev, &src, row_len, &keep);
        assert_eq!(m.len(), idx.len() * row_len);
        for (j, &orig) in idx.iter().enumerate() {
            assert!(keep[orig as usize]);
            assert_eq!(
                &m[j * row_len..(j + 1) * row_len],
                &src[orig as usize * row_len..(orig as usize + 1) * row_len]
            );
        }
        let want_count = keep.iter().filter(|&&k| k).count();
        assert_eq!(idx.len(), want_count);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn compact_rows_rejects_bad_shape() {
        let dev = Device::default();
        let _ = compact_rows(&dev, &[1, 2, 3], 2, &[true, true]);
    }

    #[test]
    fn reference_backend_matches_cpusim() {
        let cpu = Device::new(DeviceConfig::new().workers(3));
        let naive = Device::reference(DeviceConfig::new().workers(1));
        for n in [0usize, 1, 5, 200, 1025] {
            let xs: Vec<u32> = (0..n).map(|i| ((i * 7919) % 4) as u32).collect();
            assert_eq!(exclusive_scan(&cpu, &xs), exclusive_scan(&naive, &xs));
            let keep: Vec<bool> = (0..n).map(|i| i % 5 != 2).collect();
            assert_eq!(compact_indices(&cpu, &keep), compact_indices(&naive, &keep));
        }
    }
}

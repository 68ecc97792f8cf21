//! Device-memory buffers with allocation accounting.

use std::fmt;
use std::mem;
use std::ops::{Deref, DerefMut};

use crate::backend::{Backend, CpuSimBackend};
use crate::{Device, DeviceError};

/// A typed allocation charged against a device's memory capacity.
///
/// In the simulator the storage is ordinary host memory, but every buffer is
/// tracked against the device's configured capacity. This is what lets the
/// verifier's memory-aware chunking (paper §4.2, "Memory management") be
/// exercised and tested: on a constrained device, a too-large intermediate
/// bound matrix genuinely fails to allocate.
///
/// Transfers into *existing* device storage go through the backend's
/// [`Backend::htod`] / [`Backend::dtoh`] hooks ([`DeviceBuffer::from_slice`]
/// on a pool hit, [`DeviceBuffer::copy_to_host`]). Fresh uploads and
/// [`DeviceBuffer::into_vec`] instead *adopt/release* the host vector as the
/// device storage — possible only because the simulator's device memory is
/// host memory (this type `Deref`s to a slice for the same reason). A real
/// GPU port needs a device-resident buffer abstraction behind this API; see
/// the [`crate::backend`] module docs on what the trait does and does not
/// yet cover.
///
/// Dropping the buffer releases the accounting (destructors never fail).
///
/// # Example
///
/// ```
/// use gpupoly_device::{Device, DeviceConfig, DeviceBuffer};
///
/// let dev = Device::new(DeviceConfig::new().memory_capacity(4096));
/// let buf = DeviceBuffer::<f32>::zeroed(&dev, 512)?; // 2048 bytes
/// assert_eq!(dev.memory_in_use(), 2048);
/// assert!(DeviceBuffer::<f32>::zeroed(&dev, 1024).is_err()); // would exceed
/// drop(buf);
/// assert_eq!(dev.memory_in_use(), 0);
/// # Ok::<(), gpupoly_device::DeviceError>(())
/// ```
pub struct DeviceBuffer<T: Send + 'static, B: Backend = CpuSimBackend> {
    /// The allocation, `bytes` long. A pool hit may be served by a shelved
    /// allocation up to twice the size asked for; the buffer is its first
    /// `len` elements, the rest is slack that stays charged and goes back to
    /// the shelf with it.
    data: Vec<T>,
    len: usize,
    bytes: usize,
    device: Device<B>,
    /// The shelf lane the allocation is live in and returns to (the lane of
    /// the thread that made it, see [`Device::streams`]).
    lane: usize,
    /// `true` when this allocation may be shelved in the device's buffer
    /// pool on drop (it was created while the pool was active).
    pooled: bool,
    /// `true` once [`DeviceBuffer::into_persistent`] has run: the bytes are
    /// counted in the device's resident-bytes gauge until freed.
    persistent: bool,
}

impl<T: Send + fmt::Debug, B: Backend> fmt::Debug for DeviceBuffer<T, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("len", &self.len)
            .field("bytes", &self.bytes)
            .field("pooled", &self.pooled)
            .finish()
    }
}

impl<T: Send + 'static, B: Backend> DeviceBuffer<T, B> {
    /// Charges `len` elements against the device, reclaiming shelved pool
    /// buffers before giving up on an out-of-memory condition — as often as
    /// a sibling stream shelves more between the reclaim and the retry.
    fn charge(device: &Device<B>, len: usize) -> Result<usize, DeviceError> {
        let bytes = len.saturating_mul(mem::size_of::<T>());
        loop {
            match device.track_alloc(bytes) {
                Ok(()) => return Ok(bytes),
                Err(e) if device.buffer_pool_bytes() == 0 => return Err(e),
                Err(_) => device.buffer_pool_clear(),
            }
        }
    }

    /// A fresh allocation holding exactly `data`.
    fn fresh(device: &Device<B>, data: Vec<T>) -> Result<Self, DeviceError> {
        let bytes = Self::charge(device, data.len())?;
        Ok(Self {
            len: data.len(),
            data,
            bytes,
            device: device.clone(),
            lane: device.lane_alloc(bytes),
            pooled: device.buffer_pool_active(),
            persistent: false,
        })
    }

    /// A buffer of `len` elements on a shelved allocation of at most
    /// `max_len` (contents stale), or `None` — counted as a pool miss — when
    /// the shelf has none that fits.
    fn recycled(device: &Device<B>, len: usize, max_len: usize) -> Option<Self> {
        let Some((data, lane)) = device.pool_take::<T>(len, max_len) else {
            device.note_pool_miss();
            return None;
        };
        Some(Self {
            bytes: data.len() * mem::size_of::<T>(),
            data,
            len,
            device: device.clone(),
            lane,
            pooled: true,
            persistent: false,
        })
    }

    /// Allocates `len` default-initialized elements, reusing a shelved
    /// allocation that fits (see [`Device::buffer_pool_retain`]) when the
    /// device's pool is active; only the `len` elements are re-initialized.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfMemory`] when the allocation would exceed
    /// the device capacity.
    pub fn zeroed(device: &Device<B>, len: usize) -> Result<Self, DeviceError>
    where
        T: Clone + Default,
    {
        match Self::recycled(device, len, len.saturating_mul(2)) {
            Some(mut buf) => {
                buf.fill(T::default());
                Ok(buf)
            }
            None => Self::fresh(device, vec![T::default(); len]),
        }
    }

    /// Allocates `len` elements whose initial contents are unspecified
    /// (but valid) — for destinations the caller fully overwrites, e.g.
    /// gather targets. A pool hit skips the re-zeroing pass entirely;
    /// fresh allocations are still zero-initialized.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfMemory`] when the allocation would exceed
    /// the device capacity.
    pub fn for_overwrite(device: &Device<B>, len: usize) -> Result<Self, DeviceError>
    where
        T: Clone + Default,
    {
        match Self::recycled(device, len, len.saturating_mul(2)) {
            Some(buf) => Ok(buf),
            None => Self::fresh(device, vec![T::default(); len]),
        }
    }

    /// Uploads a host slice to the device (via [`Backend::htod`]), reusing a
    /// shelved allocation of exactly its size when the device's pool is
    /// active. Unlike working buffers an upload never takes a larger one: it
    /// is sized by the model, so the same sizes recur exactly, and what is
    /// uploaded — packed or gathered weights — is held for long and budgeted
    /// by its length.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfMemory`] when the allocation would exceed
    /// the device capacity.
    pub fn from_slice(device: &Device<B>, src: &[T]) -> Result<Self, DeviceError>
    where
        T: Clone,
    {
        match Self::recycled(device, src.len(), src.len()) {
            Some(mut buf) => {
                device.backend().htod(src, &mut buf);
                Ok(buf)
            }
            // Fresh upload: host staging vector handed to the device (the
            // sim's device memory *is* host memory, so this is the htod
            // copy).
            None => Self::fresh(device, src.to_vec()),
        }
    }

    /// Wraps an existing host vector as a device allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfMemory`] when the allocation would exceed
    /// the device capacity.
    pub fn from_vec(device: &Device<B>, data: Vec<T>) -> Result<Self, DeviceError> {
        Self::fresh(device, data)
    }

    /// Exempts this buffer from pool recycling: on drop its memory is
    /// always returned to the device, never shelved. For long-lived
    /// allocations (e.g. packed model weights) that a transient buffer
    /// pool active on the same device must not capture. The bytes are
    /// additionally counted in the device's resident-bytes gauge
    /// ([`DeviceStats::resident_bytes`](crate::DeviceStats::resident_bytes))
    /// and its high-water mark until the buffer is freed.
    pub fn into_persistent(mut self) -> Self {
        self.pooled = false;
        if !self.persistent && self.bytes > 0 {
            self.persistent = true;
            self.device.stats().note_resident_alloc(self.bytes as u64);
        }
        self
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes charged against the device: the allocation's size, which on a
    /// pool hit can exceed `len` elements (by at most as much again).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Read-only view of the contents.
    pub fn as_slice(&self) -> &[T] {
        &self.data[..self.len]
    }

    /// Mutable view of the contents.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data[..self.len]
    }

    /// Downloads the contents into a host slice of the same length (via
    /// [`Backend::dtoh`]), keeping the device allocation alive.
    ///
    /// # Panics
    ///
    /// Panics when `dst.len() != self.len()`.
    pub fn copy_to_host(&self, dst: &mut [T])
    where
        T: Clone,
    {
        assert_eq!(dst.len(), self.len, "copy_to_host length mismatch");
        self.device.backend().dtoh(self, dst);
    }

    /// Downloads the contents, releasing the device allocation.
    pub fn into_vec(mut self) -> Vec<T> {
        if self.persistent {
            self.persistent = false;
            self.device.stats().note_resident_free(self.bytes as u64);
        }
        self.device.lane_free(self.lane, self.bytes);
        self.bytes = 0;
        self.data.truncate(self.len);
        mem::take(&mut self.data)
    }
}

impl<T: Send + 'static, B: Backend> Drop for DeviceBuffer<T, B> {
    fn drop(&mut self) {
        if self.bytes == 0 {
            return;
        }
        if self.persistent {
            self.device.stats().note_resident_free(self.bytes as u64);
        }
        if self.pooled {
            let data = mem::take(&mut self.data);
            if self.device.pool_put(self.lane, data, self.bytes) {
                return; // charge stays with the shelved buffer
            }
        }
        self.device.lane_free(self.lane, self.bytes);
    }
}

impl<T: Send + 'static, B: Backend> Deref for DeviceBuffer<T, B> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Send + 'static, B: Backend> DerefMut for DeviceBuffer<T, B> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;

    #[test]
    fn zeroed_is_default_initialized() {
        let dev = Device::default();
        let buf = DeviceBuffer::<f64>::zeroed(&dev, 16).unwrap();
        assert_eq!(buf.len(), 16);
        assert!(buf.iter().all(|&x| x == 0.0));
        assert_eq!(buf.bytes(), 16 * 8);
    }

    #[test]
    fn from_slice_round_trips() {
        let dev = Device::default();
        let buf = DeviceBuffer::from_slice(&dev, &[1u32, 2, 3]).unwrap();
        assert_eq!(buf.as_slice(), &[1, 2, 3]);
        let mut host = [0u32; 3];
        buf.copy_to_host(&mut host);
        assert_eq!(host, [1, 2, 3]);
        assert_eq!(buf.into_vec(), vec![1, 2, 3]);
        assert_eq!(dev.memory_in_use(), 0);
    }

    #[test]
    fn accounting_follows_lifetimes() {
        let dev = Device::new(DeviceConfig::new().memory_capacity(1024));
        let a = DeviceBuffer::<u8>::zeroed(&dev, 512).unwrap();
        assert_eq!(dev.memory_in_use(), 512);
        {
            let _b = DeviceBuffer::<u8>::zeroed(&dev, 512).unwrap();
            assert_eq!(dev.memory_in_use(), 1024);
            assert!(DeviceBuffer::<u8>::zeroed(&dev, 1).is_err());
        }
        assert_eq!(dev.memory_in_use(), 512);
        drop(a);
        assert_eq!(dev.memory_in_use(), 0);
        assert_eq!(dev.peak_memory(), 1024);
    }

    #[test]
    fn oversized_alloc_reports_numbers() {
        let dev = Device::new(DeviceConfig::new().memory_capacity(10));
        match DeviceBuffer::<u8>::zeroed(&dev, 11) {
            Err(DeviceError::OutOfMemory {
                requested,
                in_use,
                capacity,
            }) => {
                assert_eq!((requested, in_use, capacity), (11, 0, 10));
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn pool_recycles_exact_size_classes() {
        let dev = Device::default();
        dev.buffer_pool_retain();
        let before_bytes = dev.stats().bytes_allocated();
        {
            let _a = DeviceBuffer::<u64>::zeroed(&dev, 100).unwrap();
        }
        assert_eq!(dev.buffer_pool_bytes(), 800, "buffer should be shelved");
        let in_use_shelved = dev.memory_in_use();
        {
            // Same size class: reused, no fresh bytes.
            let b = DeviceBuffer::<u64>::zeroed(&dev, 100).unwrap();
            assert!(b.iter().all(|&x| x == 0), "reused buffer must be zeroed");
            assert_eq!(dev.buffer_pool_bytes(), 0);
        }
        assert_eq!(
            dev.stats().bytes_allocated() - before_bytes,
            800,
            "second allocation must not charge fresh bytes"
        );
        assert_eq!(dev.stats().pool_hits(), 1);
        assert_eq!(dev.memory_in_use(), in_use_shelved);
        // Different element type, same byte size: not shared.
        {
            let _c = DeviceBuffer::<i64>::zeroed(&dev, 100).unwrap();
        }
        assert!(dev.stats().pool_misses() >= 1);
        dev.buffer_pool_release();
        assert_eq!(dev.memory_in_use(), 0, "release drains the pool");
        assert_eq!(dev.buffer_pool_bytes(), 0);
    }

    #[test]
    fn pool_reclaims_before_reporting_oom() {
        let dev = Device::new(DeviceConfig::new().memory_capacity(1024));
        dev.buffer_pool_retain();
        {
            let _a = DeviceBuffer::<u8>::zeroed(&dev, 1000).unwrap();
        }
        assert_eq!(dev.memory_in_use(), 1000, "shelved bytes stay charged");
        assert_eq!(dev.memory_free(), 1024, "reclaimable bytes count as free");
        // The shelved buffer is more than twice this request, so it does not
        // serve it, and beside it the request would OOM: the shelf is
        // reclaimed instead.
        let b = DeviceBuffer::<u8>::zeroed(&dev, 400).unwrap();
        assert_eq!(dev.stats().pool_hits(), 0);
        assert_eq!(dev.memory_in_use(), 400);
        drop(b);
        dev.buffer_pool_release();
        assert_eq!(dev.memory_in_use(), 0);
        // Truly hopeless allocations still fail.
        dev.buffer_pool_retain();
        assert!(DeviceBuffer::<u8>::zeroed(&dev, 4096).is_err());
        dev.buffer_pool_release();
    }

    #[test]
    fn pool_hit_may_be_oversized_and_stays_charged_for_its_capacity() {
        let dev = Device::default();
        dev.buffer_pool_retain();
        {
            let mut a = DeviceBuffer::<u8>::zeroed(&dev, 1000).unwrap();
            a.fill(7);
        }
        // 1000 <= 2 * 512: served by the shelved allocation, charge unchanged.
        let mut b = DeviceBuffer::<u8>::zeroed(&dev, 512).unwrap();
        assert_eq!(dev.stats().pool_hits(), 1);
        assert_eq!((b.len(), b.bytes()), (512, 1000));
        assert_eq!(b.as_mut_slice().len(), 512);
        assert!(
            b.iter().all(|&x| x == 0),
            "the requested length is re-zeroed"
        );
        assert_eq!((dev.memory_in_use(), dev.buffer_pool_bytes()), (1000, 0));
        assert_eq!(dev.stats().bytes_allocated(), 1000, "no fresh bytes");
        drop(b);
        assert_eq!(
            dev.buffer_pool_bytes(),
            1000,
            "the whole allocation returns"
        );
        // 1000 > 2 * 499: too large for this one, which allocates afresh.
        let c = DeviceBuffer::<u8>::for_overwrite(&dev, 499).unwrap();
        assert_eq!((c.bytes(), dev.stats().pool_hits()), (499, 1));
        // The smallest allocation that fits wins, whatever the shelving order.
        drop(c);
        let d = DeviceBuffer::<u8>::for_overwrite(&dev, 500).unwrap();
        assert_eq!(d.bytes(), 1000, "499 bytes do not hold 500");
        let e = DeviceBuffer::<u8>::for_overwrite(&dev, 300).unwrap();
        assert_eq!(e.bytes(), 499);
        assert_eq!(
            e.into_vec().len(),
            300,
            "into_vec returns the buffer, not the slack"
        );
        drop(d);
        dev.buffer_pool_release();
        assert_eq!(dev.memory_in_use(), 0);
    }

    #[test]
    fn pool_uploads_reuse_only_an_allocation_of_their_exact_size() {
        // Packed weights are uploaded through `from_slice` while an engine's
        // pool is active and then made persistent: charged for a larger
        // shelved allocation, the resident gauge would disagree with sizes
        // computed from lengths.
        let dev = Device::default();
        dev.buffer_pool_retain();
        {
            let _a = DeviceBuffer::<u32>::zeroed(&dev, 250).unwrap();
        }
        let w = DeviceBuffer::from_slice(&dev, &[9u32; 150])
            .unwrap()
            .into_persistent();
        assert_eq!((w.len(), w.bytes()), (150, 600));
        assert_eq!(dev.stats().pool_hits(), 0, "1000 B is not 600 B");
        assert_eq!(dev.stats().resident_bytes(), 600);
        drop(w);
        assert_eq!(dev.buffer_pool_bytes(), 1000, "persistent: never shelved");
        let again = DeviceBuffer::from_slice(&dev, &[3u32; 250]).unwrap();
        assert_eq!((again.bytes(), dev.stats().pool_hits()), (1000, 1));
        assert!(again.iter().all(|&x| x == 3));
        drop(again);
        dev.buffer_pool_release();
        assert_eq!((dev.memory_in_use(), dev.stats().resident_bytes()), (0, 0));
    }

    #[test]
    fn pool_shelf_is_cut_back_to_twice_the_live_high_water_oldest_first() {
        let dev = Device::default();
        dev.buffer_pool_retain();
        // Requests that no shelved buffer serves (each is more than twice
        // too large or too small), held one at a time: the live high-water
        // mark is 1000.
        for len in [1000usize, 400, 150, 60, 450] {
            let _b = DeviceBuffer::<u8>::zeroed(&dev, len).unwrap();
        }
        assert_eq!(dev.peak_live_memory(), 1000);
        // 1000 + 400 + 150 + 60 fit the 2000-byte budget; shelving 450 more
        // frees the oldest (1000) and nothing else.
        assert_eq!(dev.buffer_pool_bytes(), 400 + 150 + 60 + 450);
        assert_eq!(dev.memory_in_use(), dev.buffer_pool_bytes());
        assert!(dev.peak_memory() <= 3 * dev.peak_live_memory());
        let hits = dev.stats().pool_hits();
        let _again = DeviceBuffer::<u8>::zeroed(&dev, 1000).unwrap();
        assert_eq!(dev.stats().pool_hits(), hits, "the evicted buffer is gone");
        dev.buffer_pool_release();
    }

    #[test]
    fn pool_shelf_cut_spares_buffers_of_smaller_size_classes() {
        let dev = Device::default();
        dev.buffer_pool_retain();
        // As above: no request is served from the shelf, the live
        // high-water mark is 1000 and the budget 2000.
        for len in [60usize, 150, 400, 1000, 450] {
            let _b = DeviceBuffer::<u8>::zeroed(&dev, len).unwrap();
        }
        assert_eq!(dev.peak_live_memory(), 1000);
        // Shelving 450 (class 256) frees the oldest buffer of class 256 or
        // larger (400): not the oldest of all (60), nor the largest (1000).
        assert_eq!(dev.buffer_pool_bytes(), 60 + 150 + 1000 + 450);
        let hits = dev.stats().pool_hits();
        let _small = DeviceBuffer::<u8>::zeroed(&dev, 60).unwrap();
        assert_eq!(dev.stats().pool_hits(), hits + 1, "the oldest is kept");
        dev.buffer_pool_release();
    }

    #[test]
    fn inactive_pool_changes_nothing() {
        let dev = Device::default();
        {
            let _a = DeviceBuffer::<u32>::zeroed(&dev, 64).unwrap();
        }
        assert_eq!(dev.memory_in_use(), 0);
        assert_eq!(dev.buffer_pool_bytes(), 0);
        assert_eq!(dev.stats().pool_hits(), 0);
        assert_eq!(dev.stats().pool_misses(), 0);
    }

    #[test]
    fn reference_backend_frees_instead_of_shelving() {
        let dev = Device::reference(DeviceConfig::new().workers(1));
        dev.buffer_pool_retain();
        {
            let _a = DeviceBuffer::<u64, _>::zeroed(&dev, 100).unwrap();
        }
        assert_eq!(dev.buffer_pool_bytes(), 0, "pooling disabled: no shelving");
        assert_eq!(dev.memory_in_use(), 0, "dropped buffer freed immediately");
        assert_eq!(dev.stats().pool_hits(), 0);
        dev.buffer_pool_release();
    }

    #[test]
    fn persistent_buffers_drive_the_resident_gauge() {
        let dev = Device::default();
        assert_eq!(dev.stats().resident_bytes(), 0);
        let a = DeviceBuffer::from_slice(&dev, &[1.0f32; 256])
            .unwrap()
            .into_persistent();
        assert_eq!(dev.stats().resident_bytes(), 1024);
        assert_eq!(dev.stats().peak_resident_bytes(), 1024);
        let b = DeviceBuffer::from_slice(&dev, &[2.0f32; 128])
            .unwrap()
            .into_persistent()
            .into_persistent(); // idempotent: counted once
        assert_eq!(dev.stats().resident_bytes(), 1536);
        drop(a);
        assert_eq!(dev.stats().resident_bytes(), 512);
        assert_eq!(
            dev.stats().peak_resident_bytes(),
            1536,
            "peak is a high-water mark, not a gauge"
        );
        assert_eq!(b.into_vec().len(), 128);
        assert_eq!(dev.stats().resident_bytes(), 0);
        assert_eq!(dev.stats().peak_resident_bytes(), 1536);
    }

    #[test]
    fn mutation_through_deref() {
        let dev = Device::default();
        let mut buf = DeviceBuffer::from_slice(&dev, &[0i64; 4]).unwrap();
        buf[2] = 7;
        buf.as_mut_slice()[3] = 9;
        assert_eq!(buf.as_slice(), &[0, 0, 7, 9]);
    }
}

//! The device handle: worker pool, memory accounting, launch statistics.

use std::any::{Any, TypeId};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rayon::prelude::*;

use crate::backend::{Backend, CpuSimBackend, ReferenceBackend};

/// Configuration of a simulated device.
///
/// # Example
///
/// ```
/// use gpupoly_device::{Device, DeviceConfig};
///
/// // A device with 2 workers and 1 MiB of "device memory", like a tiny GPU.
/// let dev = Device::new(DeviceConfig::new().workers(2).memory_capacity(1 << 20));
/// assert_eq!(dev.memory_capacity(), Some(1 << 20));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DeviceConfig {
    workers: Option<usize>,
    memory_capacity: Option<usize>,
    name: Option<String>,
}

impl DeviceConfig {
    /// Default configuration: all host cores, unlimited memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of parallel workers (the CPU stand-in for GPU SM occupancy).
    /// Defaults to the number of host cores.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Device memory capacity in bytes. Allocations beyond it fail with
    /// [`DeviceError::OutOfMemory`], which exercises the verifier's chunked
    /// backsubstitution path. Defaults to unlimited.
    pub fn memory_capacity(mut self, bytes: usize) -> Self {
        self.memory_capacity = Some(bytes);
        self
    }

    /// Human-readable device name for diagnostics.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }
}

/// Errors produced by device operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// An allocation did not fit into the remaining device memory.
    OutOfMemory {
        /// Bytes requested by the failed allocation.
        requested: usize,
        /// Bytes currently allocated.
        in_use: usize,
        /// Configured capacity.
        capacity: usize,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfMemory {
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "device out of memory: requested {requested} B with {in_use}/{capacity} B in use"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Per-kernel-label work counters: how many launches a label has recorded
/// and how much arithmetic / data movement those launches performed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelWork {
    /// Launches recorded under this label.
    pub launches: u64,
    /// Scalar-equivalent floating-point operations (analytic counts).
    pub flops: u64,
    /// Bytes read plus bytes written by the kernel (analytic counts).
    pub bytes_moved: u64,
}

/// Aggregate counters describing the work a device has performed.
///
/// Counters are monotone; read them through [`Device::stats`]. Flop counts
/// are *scalar-equivalent* floating point operations, so the ≈2× overhead of
/// interval arithmetic (paper §4.1) is directly visible when comparing the
/// sound and unsound GEMM kernels. Every kernel wrapper additionally
/// reports its work under its launch label, so per-kernel flop and
/// bytes-moved breakdowns ([`DeviceStats::kernel_work`]) are available to
/// benchmarks and the serving stats endpoint.
#[derive(Debug, Default)]
pub struct DeviceStats {
    launches: AtomicU64,
    flops: AtomicU64,
    bytes_moved: AtomicU64,
    bytes_allocated: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    resident_bytes: AtomicU64,
    peak_resident_bytes: AtomicU64,
    kernel_counts: Mutex<HashMap<&'static str, KernelWork>>,
}

impl DeviceStats {
    /// Total kernel launches.
    pub fn launches(&self) -> u64 {
        self.launches.load(Ordering::Relaxed)
    }

    /// Total scalar-equivalent floating point operations reported by kernels.
    pub fn flops(&self) -> u64 {
        self.flops.load(Ordering::Relaxed)
    }

    /// Total bytes read + written by kernels (analytic counts reported by
    /// the kernel wrappers; excludes allocation traffic).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved.load(Ordering::Relaxed)
    }

    /// Total bytes ever allocated (not peak; see [`Device::peak_memory`]).
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes_allocated.load(Ordering::Relaxed)
    }

    /// Buffer-pool hits: allocations served by recycling a shelved buffer
    /// instead of charging fresh device memory.
    pub fn pool_hits(&self) -> u64 {
        self.pool_hits.load(Ordering::Relaxed)
    }

    /// Buffer-pool misses: allocations that went to fresh device memory
    /// while the pool was active.
    pub fn pool_misses(&self) -> u64 {
        self.pool_misses.load(Ordering::Relaxed)
    }

    /// Number of launches of the kernel with the given label.
    pub fn kernel_launches(&self, label: &str) -> u64 {
        self.kernel_work(label).launches
    }

    /// Scalar-equivalent flops recorded under the given kernel label.
    pub fn kernel_flops(&self, label: &str) -> u64 {
        self.kernel_work(label).flops
    }

    /// The full work counters recorded under the given kernel label.
    pub fn kernel_work(&self, label: &str) -> KernelWork {
        self.kernel_counts
            .lock()
            .get(label)
            .copied()
            .unwrap_or_default()
    }

    /// A snapshot of every label's work counters, sorted by label.
    pub fn kernel_work_all(&self) -> Vec<(&'static str, KernelWork)> {
        let mut all: Vec<_> = self
            .kernel_counts
            .lock()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect();
        all.sort_by_key(|&(k, _)| k);
        all
    }

    /// Records one kernel launch under `label`. Called by the device's own
    /// launch helpers and by the kernel wrappers in [`crate::gemm`] /
    /// [`crate::scan`] / [`crate::kernels`]; custom [`Backend`]
    /// implementations composing their own launches record them here so
    /// accounting stays comparable across backends.
    pub fn record_launch(&self, label: &'static str) {
        self.record_work(label, 0, 0);
    }

    /// Records one kernel launch under `label` together with its analytic
    /// flop and bytes-moved counts — the one entry point behind the FLOP
    /// meter, so per-label and aggregate counters can never drift apart.
    pub fn record_work(&self, label: &'static str, flops: u64, bytes_moved: u64) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        if flops > 0 {
            self.flops.fetch_add(flops, Ordering::Relaxed);
        }
        if bytes_moved > 0 {
            self.bytes_moved.fetch_add(bytes_moved, Ordering::Relaxed);
        }
        let mut counts = self.kernel_counts.lock();
        let work = counts.entry(label).or_default();
        work.launches += 1;
        work.flops += flops;
        work.bytes_moved += bytes_moved;
    }

    /// Records one device↔device copy under `label`: tracked per label and
    /// in [`DeviceStats::bytes_moved`], but **not** in
    /// [`DeviceStats::launches`] — copies ride the copy engine, not the
    /// kernel pipeline (host↔device transfers are likewise uncounted), so
    /// launch-count comparisons across engine versions stay about kernels.
    pub fn record_copy(&self, label: &'static str, bytes_moved: u64) {
        self.bytes_moved.fetch_add(bytes_moved, Ordering::Relaxed);
        let mut counts = self.kernel_counts.lock();
        let work = counts.entry(label).or_default();
        work.launches += 1;
        work.bytes_moved += bytes_moved;
    }

    /// Bytes currently held by *persistent* allocations
    /// ([`crate::DeviceBuffer::into_persistent`]) — in practice, packed
    /// model weights resident on the device. Unlike
    /// [`Device::memory_in_use`] this gauge excludes transient working
    /// buffers and shelved pool storage, so it answers "how much of this
    /// device is pinned by loaded models".
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of [`DeviceStats::resident_bytes`]: the most
    /// persistent (weight) bytes ever simultaneously resident on this
    /// device. Capacity planning for shard budgets reads this.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident_bytes.load(Ordering::Relaxed)
    }

    pub(crate) fn note_resident_alloc(&self, bytes: u64) {
        let new = self.resident_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_resident_bytes.fetch_max(new, Ordering::Relaxed);
    }

    pub(crate) fn note_resident_free(&self, bytes: u64) {
        self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_bytes(&self, n: usize) {
        self.bytes_allocated.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// One shelved buffer: a `Vec<T>` of `bytes / size_of::<T>()` elements behind
/// `dyn Any`, with what best-fit reuse compares without downcasting.
struct Shelved {
    elem: TypeId,
    bytes: usize,
    data: Box<dyn Any + Send>,
}

/// The size class of a shelved buffer of `bytes` (non-zero) bytes: the
/// power of two at or below it. A put cuts its lane back only among buffers
/// of its own class or larger (see `DeviceInner::shelf`).
fn size_class(bytes: usize) -> u32 {
    bytes.ilog2()
}

/// How many times a shelf lane's live high-water mark the lane may hold
/// before shelved buffers are freed (one lane, one stream: on a
/// device that runs nothing side by side this is the device's own mark,
/// [`Device::peak_live_memory`]). Fixed, not configurable. Measured on the
/// benchmark when the device had one shelf, `conv_fused` / `dense_single`,
/// seed 1:
///
/// | multiple | pool hit share | `peak_device_mb` | `queries_per_s` |
/// | --- | --- | --- | --- |
/// | 1 | 0.37 / 0.73 | 59.9 / 2.05 | 12.4 / 63.0 |
/// | **2** | 0.78 / 0.992 | 82.3 / 2.85 | 12.0–13.7 / 61.3–65.9 |
/// | 4 | 0.95 / 0.999 | 127.8 / 3.32 | 13.6 / 62.4 |
///
/// Throughput does not tell them apart; at 1 a query no longer finds its own
/// buffers again (`steady_state_queries_allocate_no_fresh_bytes` fails), and
/// 4 buys the last misses of `conv_fused` with half as much memory again.
/// (Measured when the cut took the oldest buffers first, of any size.)
pub const SHELF_LIVE_MULTIPLE: usize = 2;

thread_local! {
    /// The shelf lane this thread allocates from: the position of the stream
    /// it is running ([`Device::streams`]), 0 outside any. It belongs to the
    /// thread, not to a device — a kernel of a wrapping backend that
    /// allocates scratch on an inner device stays in its stream's lane there.
    static LANE: Cell<usize> = const { Cell::new(0) };
}

/// Makes `lane` the calling thread's shelf lane until dropped (also on
/// unwind).
struct LaneScope(usize);

impl LaneScope {
    fn enter(lane: usize) -> Self {
        LaneScope(LANE.with(|l| l.replace(lane)))
    }
}

impl Drop for LaneScope {
    fn drop(&mut self) {
        LANE.with(|l| l.set(self.0));
    }
}

/// One lane of the shelf: what the stream at one position
/// ([`Device::streams`]) left behind, and how much it held at once.
#[derive(Default)]
struct Lane {
    /// Shelved buffers, oldest first.
    shelved: VecDeque<Shelved>,
    shelved_bytes: usize,
    /// Bytes of the buffers allocated in this lane and not yet dropped,
    /// wherever they are dropped.
    live: usize,
    live_peak: usize,
}

impl Lane {
    fn grow(&mut self, bytes: usize) {
        self.live += bytes;
        self.live_peak = self.live_peak.max(self.live);
    }
}

pub(crate) struct DeviceInner<B> {
    backend: B,
    pool: rayon::ThreadPool,
    capacity: Option<usize>,
    in_use: AtomicUsize,
    peak: AtomicUsize,
    stats: DeviceStats,
    name: String,
    workers: usize,
    /// Reference count of buffer-pool users (engines). While non-zero (and
    /// the backend supports pooling), dropped pooled [`crate::DeviceBuffer`]s
    /// are shelved here for reuse instead of being freed.
    recyclers: AtomicUsize,
    /// The shelf, one lane per stream position (lane 0 is every thread that
    /// is not running a stream). A buffer belongs to the lane it was
    /// allocated in: its bytes count as that lane's live bytes until it is
    /// dropped, and it is shelved there whichever thread drops it. A request
    /// is served by the smallest buffer *of the requesting thread's lane*
    /// that has its element type, holds it and is at most twice as large;
    /// after every put the lane is cut back, oldest first among the buffers
    /// of the put's [`size_class`] or larger, to [`SHELF_LIVE_MULTIPLE`]
    /// times its own live high-water mark — or its share of the device's
    /// resident-bytes mark, `resident / workers`,
    /// where that is higher: the weights are in lane 0's mark only (uploads
    /// happen outside any stream), and a stream budgeted by its own few rows
    /// alone loses buffers it asks for again (`dense_single`, traced:
    /// `pool_hit_share` 0.9879 and 2.70 MB of fresh allocations where one
    /// shelf for the whole device had 0.9934 and 3.12 MB; with the share,
    /// on two workers, 0.9998 and 0.24 MB).
    /// The weights' allowance is the device's, dealt out once: `n` lanes
    /// hold at most `n / workers` times the multiple of the resident bytes
    /// between them on that account, however many workers the device has.
    /// So what a stream finds is what the stream at its position left the
    /// last time, whatever its siblings are doing meanwhile, and hits,
    /// misses and `bytes_allocated` repeat from run to run — the CPU
    /// stand-in for a stream-ordered allocator. The price: a lane is warm
    /// for what its position has run, and no other lane's buffers help it.
    /// The cut spares smaller classes because a put of larger work — a
    /// fused batch's lists — must not free what smaller work it ran before
    /// (one query's lists) left there: those buffers are the oldest after a
    /// burst, and a cut by age alone would free them at exactly the
    /// positions whose burst shelved more than their budget, so whether a
    /// daemon's steady traffic after a burst allocated afresh would depend
    /// on which position the burst had sent what. The put buffer is of its
    /// own class, so the cut always ends within budget. Within the classes
    /// it may take, it takes the oldest, not the largest: a cut by size
    /// would free a fused batch's largest lists, which every batch asks for
    /// again (the benchmark's traced `steady_alloc_mb`, `dense_fused` /
    /// `conv_fused`, seed 1, on a 2-vCPU host: 57 / 100 MB by age, 112 /
    /// 220 MB by size, 69 / 84 MB with the class rule).
    /// Work that reaches a position in a new shape — a fused batch's lists
    /// a quarter each, then one query's — allocates afresh there once, where a single shelf would have served
    /// it. Shelved bytes stay charged against capacity, and an allocation
    /// that would fail reclaims every lane before reporting out-of-memory.
    shelf: Mutex<Vec<Lane>>,
    /// Sum of the lanes' `shelved_bytes`, readable without the lock.
    shelved_bytes: AtomicUsize,
}

/// A handle to a simulated GPU, generic over the kernel [`Backend`]
/// (defaulting to the CPU simulation, [`CpuSimBackend`]).
///
/// Cheap to clone (shared state behind an [`Arc`]); all kernels in this
/// crate and in `gpupoly-core` take a `&Device<B>`.
///
/// # Example
///
/// ```
/// use gpupoly_device::{scan, Device, DeviceConfig, ReferenceBackend};
///
/// let dev = Device::new(DeviceConfig::new().workers(4).name("sim-v100"));
/// let (prefix, total) = scan::exclusive_scan(&dev, &[1, 2, 3]);
/// assert_eq!((prefix, total), (vec![0, 1, 3], 6));
///
/// // The same code runs on the naive reference backend.
/// let naive = Device::with_backend(ReferenceBackend, DeviceConfig::new());
/// assert_eq!(naive.backend().label(), "reference");
/// # use gpupoly_device::Backend;
/// ```
pub struct Device<B: Backend = CpuSimBackend> {
    inner: Arc<DeviceInner<B>>,
}

impl<B: Backend> Clone for Device<B> {
    fn clone(&self) -> Self {
        Device {
            inner: self.inner.clone(),
        }
    }
}

impl<B: Backend> fmt::Debug for Device<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("backend", &self.inner.backend.label())
            .field("name", &self.inner.name)
            .field("workers", &self.inner.workers)
            .field("capacity", &self.inner.capacity)
            .field("in_use", &self.memory_in_use())
            .finish()
    }
}

impl Default for Device<CpuSimBackend> {
    fn default() -> Self {
        Self::new(DeviceConfig::default())
    }
}

impl Device<CpuSimBackend> {
    /// Creates a CPU-simulation device from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the worker pool cannot be created.
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_backend(CpuSimBackend, config)
    }
}

impl Device<ReferenceBackend> {
    /// Creates a device running the naive [`ReferenceBackend`].
    ///
    /// # Panics
    ///
    /// Panics if the worker pool cannot be created.
    pub fn reference(config: DeviceConfig) -> Self {
        Self::with_backend(ReferenceBackend, config)
    }
}

impl<B: Backend> Device<B> {
    /// Creates a device running the given kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if the worker pool cannot be created.
    pub fn with_backend(backend: B, config: DeviceConfig) -> Self {
        let workers = config
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .thread_name(|i| format!("gpupoly-dev-{i}"))
            .build()
            .expect("failed to build device worker pool");
        Device {
            inner: Arc::new(DeviceInner {
                backend,
                pool,
                capacity: config.memory_capacity,
                in_use: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                stats: DeviceStats::default(),
                name: config.name.unwrap_or_else(|| "gpupoly-sim".to_string()),
                workers,
                recyclers: AtomicUsize::new(0),
                shelf: Mutex::new(Vec::new()),
                shelved_bytes: AtomicUsize::new(0),
            }),
        }
    }

    /// The kernel backend this device runs on.
    pub fn backend(&self) -> &B {
        &self.inner.backend
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of parallel workers.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Configured memory capacity in bytes (`None` = unlimited).
    pub fn memory_capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// Bytes currently allocated on the device.
    pub fn memory_in_use(&self) -> usize {
        self.inner.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_memory(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Bytes still allocatable (`usize::MAX` when unlimited). Shelved pool
    /// buffers count as free: an allocation that does not fit reclaims them
    /// before it reports out-of-memory, so a warm pool leaves as much room
    /// as a cold one.
    pub fn memory_free(&self) -> usize {
        match self.inner.capacity {
            Some(cap) => cap.saturating_sub(self.live_bytes()),
            None => usize::MAX,
        }
    }

    /// `in_use` less the shelved bytes. The two counters are read one after
    /// the other; where both change ([`Device::free_shelved`]) `in_use` drops
    /// first, so a concurrent reader can see too little, never too much.
    fn live_bytes(&self) -> usize {
        self.memory_in_use()
            .saturating_sub(self.buffer_pool_bytes())
    }

    /// Work counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.inner.stats
    }

    /// Charges `bytes` against the capacity, or fails. One atomic update:
    /// walks allocate side by side ([`Device::streams`]), and two requests
    /// that each fit on their own must not both be let past the cap.
    pub(crate) fn track_alloc(&self, bytes: usize) -> Result<(), DeviceError> {
        let cap = self.inner.capacity.unwrap_or(usize::MAX);
        let charged =
            self.inner
                .in_use
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |in_use| {
                    in_use.checked_add(bytes).filter(|&new| new <= cap)
                });
        match charged {
            Ok(was) => {
                self.inner.peak.fetch_max(was + bytes, Ordering::Relaxed);
                self.inner.stats.add_bytes(bytes);
                Ok(())
            }
            Err(in_use) => Err(DeviceError::OutOfMemory {
                requested: bytes,
                in_use,
                capacity: cap,
            }),
        }
    }

    pub(crate) fn track_free(&self, bytes: usize) {
        self.inner.in_use.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Runs `f` on lane `lane` of the shelf, under the shelf lock.
    fn with_lane<R>(&self, lane: usize, f: impl FnOnce(&mut Lane) -> R) -> R {
        let mut shelf = self.inner.shelf.lock();
        if shelf.len() <= lane {
            shelf.resize_with(lane + 1, Lane::default);
        }
        f(&mut shelf[lane])
    }

    /// Counts `bytes` just charged ([`Device::track_alloc`]) as live in the
    /// calling thread's lane and returns that lane, which the allocation
    /// keeps until [`Device::pool_put`] or [`Device::lane_free`] ends it.
    pub(crate) fn lane_alloc(&self, bytes: usize) -> usize {
        let lane = LANE.with(Cell::get);
        self.with_lane(lane, |l| l.grow(bytes));
        lane
    }

    /// Ends an allocation of `lane` that is not shelved: its bytes are no
    /// longer live there and their charge is returned.
    pub(crate) fn lane_free(&self, lane: usize, bytes: usize) {
        self.with_lane(lane, |l| l.live -= bytes);
        self.track_free(bytes);
    }

    /// `true` while at least one buffer-pool user is registered *and* the
    /// backend supports pooling ([`Backend::pooling`]).
    pub fn buffer_pool_active(&self) -> bool {
        self.inner.backend.pooling() && self.inner.recyclers.load(Ordering::Relaxed) > 0
    }

    /// Registers a buffer-pool user: while any user is registered, dropped
    /// pool-eligible buffers are shelved for reuse instead of freed. Pair
    /// with [`Device::buffer_pool_release`]. A no-op in effect on backends
    /// that disable pooling (the user count is still balanced).
    ///
    /// Reuse is by capacity, not by exact size: a working buffer of `n`
    /// bytes takes the smallest shelved buffer of its element type holding
    /// between `n` and `2n` bytes and stays charged for all of it
    /// ([`crate::DeviceBuffer::bytes`]) — the sizes a backsubstitution walk
    /// asks for drift with every row it drops and rarely repeat. (Uploads,
    /// [`crate::DeviceBuffer::from_slice`], take an exact fit only.) The
    /// shelf has one lane per stream position ([`Device::streams`]): a
    /// thread takes from its own lane, a buffer returns to the lane it was
    /// allocated in, and after every drop that lane's oldest shelved
    /// buffers of the dropped one's size class (its power of two) or larger
    /// are freed until it holds at most [`SHELF_LIVE_MULTIPLE`] times what
    /// the lane held live at once ([`Device::peak_live_memory`] is the sum
    /// over the lanes).
    pub fn buffer_pool_retain(&self) {
        self.inner.recyclers.fetch_add(1, Ordering::Relaxed);
    }

    /// Deregisters a buffer-pool user; the last release drains the pool and
    /// returns the shelved memory to the device.
    ///
    /// A release without a matching [`Device::buffer_pool_retain`] is a
    /// caller bug; it is reported by a debug assertion and otherwise
    /// ignored, so an unbalanced release can never underflow the user count
    /// into a permanently-active pool that shelves (leaks) every buffer.
    pub fn buffer_pool_release(&self) {
        let dec = self
            .inner
            .recyclers
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        match dec {
            Ok(1) => self.buffer_pool_clear(),
            Ok(_) => {}
            Err(_) => debug_assert!(false, "buffer_pool_release without a matching retain"),
        }
    }

    /// Frees every shelved buffer of every lane immediately.
    pub fn buffer_pool_clear(&self) {
        let drained: Vec<Shelved> = {
            let mut shelf = self.inner.shelf.lock();
            shelf
                .iter_mut()
                .flat_map(|lane| {
                    lane.shelved_bytes = 0;
                    lane.shelved.drain(..)
                })
                .collect()
        };
        self.free_shelved(drained);
    }

    /// Returns the charge of buffers already taken off the shelf, then drops
    /// their storage (outside the shelf lock).
    fn free_shelved(&self, buffers: Vec<Shelved>) {
        if buffers.is_empty() {
            return;
        }
        let freed: usize = buffers.iter().map(|s| s.bytes).sum();
        self.track_free(freed);
        self.inner.shelved_bytes.fetch_sub(freed, Ordering::Relaxed);
    }

    /// Bytes currently held by shelved (reusable) buffers. These count
    /// towards [`Device::memory_in_use`] until reclaimed.
    pub fn buffer_pool_bytes(&self) -> usize {
        self.inner.shelved_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of live bytes — [`Device::memory_in_use`] less
    /// [`Device::buffer_pool_bytes`], what buffers in their owners' hands
    /// (resident weights included) held at once — taken per shelf lane and
    /// summed. On a device whose walks run one at a time that is the
    /// device's own high-water mark; where streams run side by side it is
    /// what they would hold if every one were at its peak at the same
    /// moment, which no schedule exceeds and which, unlike the moment's sum,
    /// does not depend on the schedule. Each lane's shelf is bounded by a
    /// fixed multiple of its mark, or of `1 / workers` of the resident
    /// weights' bytes where a lane's own mark is lower, so with `n` lanes
    /// [`Device::peak_memory`] stays within [`SHELF_LIVE_MULTIPLE`] plus one
    /// of this sum, plus [`SHELF_LIVE_MULTIPLE`] × `n / workers` of the
    /// resident bytes.
    pub fn peak_live_memory(&self) -> usize {
        let shelf = self.inner.shelf.lock();
        shelf.iter().map(|lane| lane.live_peak).sum()
    }

    /// Per lane of the shelf, in lane order: `(shelved bytes, live
    /// high-water mark)` — a diagnostic for tests and tuning.
    pub fn shelf_lanes(&self) -> Vec<(usize, usize)> {
        let shelf = self.inner.shelf.lock();
        shelf
            .iter()
            .map(|lane| (lane.shelved_bytes, lane.live_peak))
            .collect()
    }

    /// Takes the best-fitting buffer for `len` elements of `T` off the
    /// calling thread's lane of the shelf: the smallest one of that element
    /// type holding at least `len` and at most `max_len` elements (the
    /// newest among equals). The returned storage may therefore be longer
    /// than `len`; it keeps its memory charge and is live in the lane
    /// returned with it, the one it was shelved in.
    pub(crate) fn pool_take<T: Send + 'static>(
        &self,
        len: usize,
        max_len: usize,
    ) -> Option<(Vec<T>, usize)> {
        if !self.buffer_pool_active() {
            return None;
        }
        let size = std::mem::size_of::<T>();
        let fits = len.saturating_mul(size)..=max_len.saturating_mul(size);
        let elem = TypeId::of::<T>();
        let lane = LANE.with(Cell::get);
        let taken = self.with_lane(lane, |l| {
            let at = l
                .shelved
                .iter()
                .enumerate()
                .rev()
                .filter(|(_, s)| s.elem == elem && fits.contains(&s.bytes))
                .min_by_key(|(_, s)| s.bytes)?
                .0;
            let taken = l.shelved.remove(at).expect("index from the scan above");
            l.shelved_bytes -= taken.bytes;
            l.grow(taken.bytes);
            Some(taken)
        })?;
        self.inner
            .shelved_bytes
            .fetch_sub(taken.bytes, Ordering::Relaxed);
        self.inner.stats.pool_hits.fetch_add(1, Ordering::Relaxed);
        let data = *taken.data.downcast::<Vec<T>>().expect("shelf type tag");
        Some((data, lane))
    }

    /// Ends an allocation of `lane` by shelving its storage there for reuse,
    /// keeping its memory charge, then frees the lane's oldest shelved
    /// buffers of its [`size_class`] or larger while it holds more than
    /// [`SHELF_LIVE_MULTIPLE`] times its live high-water mark (or the lane's
    /// share of the device's resident one, if higher; see
    /// `DeviceInner::shelf`). Returns `false` (nothing done) when the pool is
    /// inactive — the caller must then end the allocation itself
    /// ([`Device::lane_free`]).
    pub(crate) fn pool_put<T: Send + 'static>(
        &self,
        lane: usize,
        data: Vec<T>,
        bytes: usize,
    ) -> bool {
        if bytes == 0 {
            return false;
        }
        debug_assert_eq!(data.len() * std::mem::size_of::<T>(), bytes);
        let mut shelf = self.inner.shelf.lock();
        // Re-checked under the shelf lock: the final buffer_pool_release
        // drains under this lock after dropping the user count, so a put
        // that observes an active pool here cannot land after the drain.
        if !self.buffer_pool_active() {
            return false;
        }
        let l = &mut shelf[lane]; // made when the allocation became live
        l.live -= bytes;
        l.shelved.push_back(Shelved {
            elem: TypeId::of::<T>(),
            bytes,
            data: Box::new(data),
        });
        l.shelved_bytes += bytes;
        self.inner.shelved_bytes.fetch_add(bytes, Ordering::Relaxed);
        // Resident weights counted as live for the one shelf a device used
        // to have; now only lane 0's own mark holds them, and every lane is
        // credited with a worker's share.
        let resident = self.inner.stats.peak_resident_bytes() as usize / self.inner.workers;
        let budget = SHELF_LIVE_MULTIPLE.saturating_mul(l.live_peak.max(resident));
        let class = size_class(bytes);
        let mut evicted = Vec::new();
        while l.shelved_bytes > budget {
            let Some(at) = l.shelved.iter().position(|s| size_class(s.bytes) >= class) else {
                break;
            };
            let cut = l.shelved.remove(at).expect("index from the scan above");
            l.shelved_bytes -= cut.bytes;
            evicted.push(cut);
        }
        drop(shelf);
        self.free_shelved(evicted);
        true
    }

    pub(crate) fn note_pool_miss(&self) {
        if self.buffer_pool_active() {
            self.inner.stats.pool_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs a closure inside the device's worker pool: a parallel iterator
    /// launched in it is split over the device's workers. The sections that
    /// do so are a [`Device::streams`] section's walks and a batch's host
    /// work between two layers (one block of queries a device); a kernel
    /// never does — it runs on the thread that launched it, inline in its
    /// walk. It is *not* a launch: the wrapper layer ([`crate::gemm`] /
    /// [`crate::scan`] / [`crate::kernels`]) records launches and work.
    ///
    /// The pool's `workers − 1` helper threads (`gpupoly-dev-{i}`) are
    /// resident: spawned by the first section that splits, parked between
    /// sections, joined when the last handle to the device drops. The
    /// calling thread is always the last worker.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        self.inner.pool.install(f)
    }

    /// How many streams of a [`Device::streams`] section opened by the
    /// calling thread would run at once: the worker count, or one when the
    /// thread is already running a part of some section (a stream) —
    /// whatever it launches runs inline there.
    pub fn streams_at_once(&self) -> usize {
        if rayon::in_part() {
            1
        } else {
            self.inner.workers
        }
    }

    /// Runs `f(0)`, …, `f(n − 1)` as the *streams* of one pool section and
    /// returns their results in order. Streams are claimed one at a time by
    /// the device's workers, so at most [`Device::streams_at_once`] are live
    /// together, and everything a stream launches — every kernel of a
    /// backsubstitution walk — runs inline on the thread that claimed it:
    /// the workers meet again when the section ends, not once per kernel.
    /// While it runs, a stream allocates from the shelf lane of its position
    /// (see `DeviceInner::shelf`; on every device, so a wrapping backend's
    /// inner device follows). A section opened from inside a part runs its
    /// streams one after the other in the lane the thread is already in.
    pub fn streams<R: Send>(&self, n: usize, f: impl Fn(usize) -> R + Sync + Send) -> Vec<R> {
        if rayon::in_part() {
            return (0..n).map(f).collect();
        }
        self.install(|| {
            (0..n)
                .into_par_iter()
                .map(|pos| {
                    let _lane = LaneScope::enter(pos);
                    f(pos)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_runs_in_the_worker_pool() {
        use rayon::prelude::*;
        let dev = Device::new(DeviceConfig::new().workers(3));
        let sum: u64 = dev.install(|| {
            (0..101usize)
                .into_par_iter()
                .map(|i| i as u64)
                .reduce(|| 0, |a, b| a + b)
        });
        assert_eq!(sum, 5050);
    }

    #[test]
    fn stats_count_launches_flops_and_bytes_by_label() {
        let dev = Device::default();
        dev.stats().record_work("alpha", 10, 100);
        dev.stats().record_work("alpha", 5, 50);
        dev.stats().record_launch("beta");
        assert_eq!(dev.stats().kernel_launches("alpha"), 2);
        assert_eq!(dev.stats().kernel_flops("alpha"), 15);
        assert_eq!(dev.stats().kernel_work("alpha").bytes_moved, 150);
        assert_eq!(dev.stats().kernel_launches("beta"), 1);
        assert_eq!(dev.stats().kernel_launches("missing"), 0);
        assert_eq!(dev.stats().launches(), 3);
        assert_eq!(dev.stats().flops(), 15);
        assert_eq!(dev.stats().bytes_moved(), 150);
    }

    #[test]
    fn copies_meter_bytes_without_counting_as_launches() {
        let dev = Device::default();
        dev.stats().record_copy("dtod_example", 64);
        assert_eq!(dev.stats().launches(), 0, "copies are not kernel launches");
        assert_eq!(dev.stats().kernel_launches("dtod_example"), 1);
        assert_eq!(dev.stats().bytes_moved(), 64);
    }

    #[test]
    fn memory_accounting_tracks_capacity() {
        let dev = Device::new(DeviceConfig::new().memory_capacity(100));
        assert!(dev.track_alloc(60).is_ok());
        let err = dev.track_alloc(60).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfMemory {
                requested: 60,
                in_use: 60,
                capacity: 100
            }
        );
        dev.track_free(60);
        assert!(dev.track_alloc(100).is_ok());
        assert_eq!(dev.peak_memory(), 100);
        dev.track_free(100);
        assert_eq!(dev.memory_in_use(), 0);
    }

    #[test]
    fn unlimited_device_never_ooms() {
        let dev = Device::default();
        assert!(dev.track_alloc(usize::MAX / 4).is_ok());
        assert_eq!(dev.memory_free(), usize::MAX);
        dev.track_free(usize::MAX / 4);
    }

    #[test]
    fn error_display_is_informative() {
        let e = DeviceError::OutOfMemory {
            requested: 10,
            in_use: 5,
            capacity: 12,
        };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains("5") && s.contains("12"));
    }

    #[test]
    fn reference_backend_disables_pooling() {
        let dev = Device::reference(DeviceConfig::new().workers(2));
        dev.buffer_pool_retain();
        assert!(
            !dev.buffer_pool_active(),
            "reference backend must never shelve buffers"
        );
        dev.buffer_pool_release();
    }

    #[test]
    fn unbalanced_pool_release_does_not_underflow() {
        // A release without a retain must not wrap the user count to
        // usize::MAX (which would leave the pool permanently active and
        // shelve — leak — every subsequently dropped buffer).
        let dev = Device::default();
        if cfg!(debug_assertions) {
            let d = dev.clone();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                d.buffer_pool_release();
            }));
            assert!(result.is_err(), "debug builds report the caller bug");
        } else {
            dev.buffer_pool_release();
        }
        assert!(!dev.buffer_pool_active(), "pool must stay inactive");
        {
            let _b = crate::DeviceBuffer::<u8>::zeroed(&dev, 64).unwrap();
        }
        assert_eq!(dev.memory_in_use(), 0, "dropped buffer must be freed");
        assert_eq!(dev.buffer_pool_bytes(), 0);
        // A later retain/release pair still works normally.
        dev.buffer_pool_retain();
        assert!(dev.buffer_pool_active());
        dev.buffer_pool_release();
        assert!(!dev.buffer_pool_active());
    }
}

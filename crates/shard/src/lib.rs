//! `gpupoly-shard`: multi-device sharding for GPUPoly serving.
//!
//! Three coordinated layers turn the single-device daemon into a pool:
//!
//! * **[`DevicePool`]** — owns N device handles with per-device memory
//!   budgets and an outstanding-work gauge per device; placement is
//!   least-loaded with sticky model→device affinity, and a hot model can be
//!   **replicated** onto further devices (the registry drives that when a
//!   model's admission queue saturates).
//! * **routing** — [`DevicePool::place`] answers "which device serves this
//!   model?" deterministically: an existing replica if one exists (the
//!   least-loaded of them), otherwise the least-loaded device overall,
//!   recorded as the model's new affinity.
//! * **sharded walks** — one `gpupoly_core::Engine` spans the pool
//!   (`Engine::on_pool`) under a `gpupoly_core::Plan` of two independent
//!   choices: *row* sharding (`split_rows`) makes every device a walking
//!   device, the walks of every backsubstitution row list dealt over the
//!   pool's stream slots; FSDP-style *weight* sharding (`shard_weights`)
//!   partitions the model's layers across the pool (each device holds ~1/N
//!   of the weight bytes) and all-gathers them onto the walking device just
//!   in time — serving models bigger than any one device; both together are
//!   *hybrid* 2D sharding, every device walking its share and gathering
//!   remote layers onto itself. Every plan keeps margins bit-identical to
//!   the single-device walk. Admission charges every
//!   weight-sharded worker the same per-device bound — the worst shard
//!   plus the gather cache's double-buffer floor
//!   (`weight_shard_budget(...).worst_device_bytes()`): with both choices
//!   every device both holds a shard and gathers, so one worst-device
//!   charge covers each of them.
//!
//! The pool itself is policy + bookkeeping over cheap-clone [`Device`]
//! handles; it spawns no threads and owns no model state — the serving
//! registry composes it with workers and queues.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use gpupoly_device::{Backend, Device, DeviceConfig};

/// A pool of N devices with per-device load gauges and sticky model
/// placement.
///
/// Load is whatever unit the caller accounts in (the serving layer uses
/// estimated microseconds of admitted work); the pool only compares it.
/// All methods are safe under concurrent use: gauges are atomics and the
/// affinity map sits behind its own lock.
pub struct DevicePool<B: Backend> {
    devices: Vec<Device<B>>,
    load: Vec<AtomicU64>,
    affinity: Mutex<HashMap<String, Vec<usize>>>,
}

impl<B: Backend + Default> DevicePool<B> {
    /// Builds `n` devices from one base configuration. Each device gets
    /// the base name suffixed `-d<i>` (default base `pool`) and its own
    /// copy of the worker count / memory capacity / GEMM tile — the
    /// capacity is a **per-device** budget, so total pool memory is
    /// `n × capacity`.
    pub fn build(n: usize, base: DeviceConfig) -> Self {
        assert!(n > 0, "a device pool needs at least one device");
        let devices = (0..n)
            .map(|i| {
                let named = base.clone().name(format!("d{i}"));
                Device::with_backend(B::default(), named)
            })
            .collect();
        Self::from_devices(devices)
    }
}

impl<B: Backend> DevicePool<B> {
    /// Wraps existing devices (heterogeneous configs allowed) as a pool.
    pub fn from_devices(devices: Vec<Device<B>>) -> Self {
        assert!(
            !devices.is_empty(),
            "a device pool needs at least one device"
        );
        let load = devices.iter().map(|_| AtomicU64::new(0)).collect();
        Self {
            devices,
            load,
            affinity: Mutex::new(HashMap::new()),
        }
    }

    /// Number of devices in the pool.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the pool is empty (never true — construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The pool's devices, in index order.
    pub fn devices(&self) -> &[Device<B>] {
        &self.devices
    }

    /// One device by index.
    ///
    /// # Panics
    ///
    /// When `idx` is out of range.
    pub fn device(&self, idx: usize) -> &Device<B> {
        &self.devices[idx]
    }

    /// Current outstanding load on one device, in the caller's units.
    pub fn load(&self, idx: usize) -> u64 {
        self.load[idx].load(Ordering::Acquire)
    }

    /// The least-loaded device index (ties break to the lowest index, so
    /// routing is deterministic for a given gauge state).
    pub fn least_loaded(&self) -> usize {
        self.least_loaded_of(0..self.devices.len())
            .expect("pool is never empty")
    }

    /// Least-loaded among a candidate subset; `None` for an empty subset.
    pub fn least_loaded_of(&self, candidates: impl IntoIterator<Item = usize>) -> Option<usize> {
        candidates.into_iter().min_by_key(|&i| (self.load(i), i))
    }

    /// The device that should serve `model`: the least-loaded existing
    /// replica when the model is already placed, otherwise the least-loaded
    /// device overall — which becomes the model's recorded affinity.
    pub fn place(&self, model: &str) -> usize {
        let mut affinity = self.affinity.lock();
        if let Some(replicas) = affinity.get(model) {
            if let Some(idx) = self.least_loaded_of(replicas.iter().copied()) {
                return idx;
            }
        }
        let idx = self.least_loaded();
        affinity.insert(model.to_string(), vec![idx]);
        idx
    }

    /// The model's replica device indices (empty when never placed).
    pub fn replicas(&self, model: &str) -> Vec<usize> {
        self.affinity.lock().get(model).cloned().unwrap_or_default()
    }

    /// A replication candidate for a hot model: the least-loaded device
    /// *not* already holding a replica, or `None` when the model covers the
    /// pool.
    pub fn replication_candidate(&self, model: &str) -> Option<usize> {
        let affinity = self.affinity.lock();
        let held = affinity.get(model).cloned().unwrap_or_default();
        self.least_loaded_of((0..self.devices.len()).filter(|i| !held.contains(i)))
    }

    /// Records that `model` now also resides on device `idx`.
    pub fn add_replica(&self, model: &str, idx: usize) {
        assert!(idx < self.devices.len(), "replica device out of range");
        let mut affinity = self.affinity.lock();
        let replicas = affinity.entry(model.to_string()).or_default();
        if !replicas.contains(&idx) {
            replicas.push(idx);
        }
    }

    /// Forgets a model's placement entirely (eviction from the registry).
    pub fn remove_model(&self, model: &str) {
        self.affinity.lock().remove(model);
    }

    /// Drops one replica placement (partial eviction of a replicated
    /// model).
    pub fn remove_replica(&self, model: &str, idx: usize) {
        let mut affinity = self.affinity.lock();
        if let Some(replicas) = affinity.get_mut(model) {
            replicas.retain(|&r| r != idx);
            if replicas.is_empty() {
                affinity.remove(model);
            }
        }
    }

    /// Adds admitted work to a device's load gauge.
    pub fn note_enqueued(&self, idx: usize, cost: u64) {
        self.load[idx].fetch_add(cost, Ordering::AcqRel);
    }

    /// Retires completed (or bounced) work from a device's load gauge,
    /// saturating at zero so double-retires can never wrap the gauge.
    pub fn note_done(&self, idx: usize, cost: u64) {
        let _ = self.load[idx].fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
            Some(cur.saturating_sub(cost))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpupoly_device::CpuSimBackend;

    fn pool(n: usize) -> DevicePool<CpuSimBackend> {
        DevicePool::build(n, DeviceConfig::new().workers(1))
    }

    #[test]
    fn build_names_and_sizes_devices() {
        let p = pool(3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.device(0).name(), "d0");
        assert_eq!(p.device(2).name(), "d2");
        assert_eq!(p.device(1).workers(), 1);
    }

    #[test]
    fn least_loaded_routing_with_deterministic_ties() {
        let p = pool(3);
        assert_eq!(p.least_loaded(), 0); // all zero: lowest index
        p.note_enqueued(0, 10);
        p.note_enqueued(1, 5);
        assert_eq!(p.least_loaded(), 2);
        p.note_enqueued(2, 7);
        assert_eq!(p.least_loaded(), 1);
        p.note_done(1, 5);
        p.note_done(1, 999); // saturates, never wraps
        assert_eq!(p.load(1), 0);
        assert_eq!(p.least_loaded(), 1);
    }

    #[test]
    fn placement_is_sticky_and_replicas_share_load() {
        let p = pool(2);
        p.note_enqueued(0, 100);
        assert_eq!(p.place("m"), 1); // least-loaded at first placement
        p.note_enqueued(1, 1000);
        // Sticky: device 0 is now idle, but the model stays on its replica.
        assert_eq!(p.place("m"), 1);
        assert_eq!(p.replicas("m"), vec![1]);

        // Replication candidate avoids held devices; after replication,
        // placement picks the least-loaded replica.
        assert_eq!(p.replication_candidate("m"), Some(0));
        p.add_replica("m", 0);
        assert_eq!(p.replicas("m"), vec![1, 0]);
        assert_eq!(p.place("m"), 0);
        assert_eq!(p.replication_candidate("m"), None); // covers the pool

        p.remove_replica("m", 0);
        assert_eq!(p.replicas("m"), vec![1]);
        p.remove_model("m");
        assert!(p.replicas("m").is_empty());
    }
}

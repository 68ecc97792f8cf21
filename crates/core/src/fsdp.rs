//! FSDP-style weight sharding for the backsubstitution walk.
//!
//! A weight-sharded [`crate::PreparedGraph`] partitions the network's
//! affine layers across a device pool so each device permanently holds
//! ~1/N of the weight bytes ([`shard_plan`], greedy least-bytes,
//! deterministic). The owner-resident uploads live in one [`ShardStore`]
//! shared by every executing device's **gather view** ([`WeightShard`]):
//! when a walk reaches a layer owned by another device, that layer's exact
//! weight and bias bytes are **all-gathered** onto the executing device;
//! a layer the executing device owns itself resolves to the store's
//! resident buffer with no copy at all. Because a gather copies the
//! owner's exact bit pattern and the walk arithmetic is unchanged, margins
//! are bit-identical to a single-device run at any N — with one walking
//! device (one view, on device 0) and with every device walking its share of
//! every row list (one view per device) alike.
//!
//! Three mechanisms bound the gather cost:
//!
//! * a **capacity-aware cache** of gathered layers per view: it holds as
//!   many gathered layers as the executing device's budget allows (half
//!   the device's free bytes at view construction), never less than the
//!   double-buffer floor of two max-size layers;
//! * **next-use-distance eviction**: the walk visits sharded layers in
//!   descending node order, cyclically across batches. Each view keeps a
//!   cursor at the layer the walk last acquired; when the cache overflows,
//!   the entry whose next use is furthest in that cyclic order is evicted
//!   (the just-acquired layer is the furthest of all — a full cycle away —
//!   while a just-prefetched layer is the nearest and is never the
//!   victim). The layer currently being inserted is pinned, and an evicted
//!   buffer stays alive while any walk still holds its `Arc`;
//! * a **prefetch thread** per view: acquiring layer *l* enqueues gathers
//!   of the next [`PREFETCH_DEPTH`] remote layers in walk order, so those
//!   copies overlap the walk over layer *l*.
//!   Prefetching is pure scheduling — a missed or failed prefetch just
//!   means the walk gathers synchronously — and can never change results.
//!
//! Gathered bytes are metered on the executing device under the `comms`
//! kernel label through [`gpupoly_device::DeviceStats::record_copy`]; cache
//! hits and evictions are metered as zero-byte records under `gather_hit` /
//! `gather_evict`, so benchmarks and the serving stats endpoint can report
//! gather-cache behavior per device.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use gpupoly_device::{Backend, Device, DeviceBuffer, DeviceError};
use gpupoly_interval::Fp;
use gpupoly_nn::{Graph, NodeId, Op};

/// Launch label under which gathered shard bytes are metered (a copy, not
/// a kernel: tracked per label and in `bytes_moved`, never in `launches`).
/// The per-label launch count is the view's gather-miss count.
pub(crate) const COMMS_LABEL: &str = "comms";

/// Zero-byte copy label recording a gather served from the view's cache.
pub(crate) const GATHER_HIT_LABEL: &str = "gather_hit";

/// Zero-byte copy label recording a gathered layer evicted by the
/// next-use-distance policy.
pub(crate) const GATHER_EVICT_LABEL: &str = "gather_evict";

/// How many upcoming remote layers each walk acquisition prefetches onto
/// the executing device (in walk order, overlapping the current layer's
/// step).
pub(crate) const PREFETCH_DEPTH: usize = 1;

/// One layer's weights gathered onto (or resident on) a device. Shared by
/// `Arc` between the store, the gather cache and any walk currently using
/// the layer, so cache eviction can never free a buffer mid-step.
pub(crate) struct GatheredLayer<F: Fp, B: Backend> {
    pub(crate) weight: DeviceBuffer<F, B>,
    pub(crate) bias: DeviceBuffer<F, B>,
}

/// One cache entry: a gathered layer keyed by its node id.
type GatherEntry<F, B> = (NodeId, Arc<GatheredLayer<F, B>>);

/// The pool-shared half of weight sharding: every affine layer uploaded
/// persistently onto its owner device under the deterministic greedy
/// partition. Holds device buffers and node ids only (no graph borrow), so
/// it is `Arc`-shared between the gather views of a pool's walking devices.
pub(crate) struct ShardStore<F: Fp, B: Backend> {
    /// Per-node owner device index; `None` for non-affine nodes and for
    /// layers whose upload failed (those stay host borrows in every view).
    owner: Vec<Option<usize>>,
    /// Per-node owner-resident buffers (aligned with `owner`).
    resident: Vec<Option<Arc<GatheredLayer<F, B>>>>,
    /// Per-node weight+bias bytes (`0` for non-affine nodes).
    layer_bytes: Vec<usize>,
    /// Persistent uploaded bytes per pool device.
    shard_bytes: Vec<usize>,
    /// The largest single affine layer's bytes — the double-buffer unit.
    max_layer_bytes: usize,
}

impl<F: Fp, B: Backend> ShardStore<F, B> {
    /// Materializes the greedy shard plan: uploads each affine layer's
    /// weights persistently onto its owner device (counted in the owner's
    /// resident gauge). A layer whose upload fails is left unowned —
    /// correct, just not sharded (its view falls back to host borrows).
    pub(crate) fn build(devices: &[Device<B>], graph: &Graph<'_, F>) -> Arc<Self> {
        let (plan, _) = shard_plan(graph, devices.len());
        let nodes = graph.nodes.len();
        let mut owner: Vec<Option<usize>> = vec![None; nodes];
        let mut resident: Vec<Option<Arc<GatheredLayer<F, B>>>> =
            (0..nodes).map(|_| None).collect();
        let mut layer_bytes = vec![0usize; nodes];
        let mut shard_bytes = vec![0usize; devices.len()];
        for (id, node) in graph.nodes.iter().enumerate() {
            let (weight, bias): (&[F], &[F]) = match node.op {
                Op::Dense(d) => (&d.weight, &d.bias),
                Op::Conv(c) => (&c.weight, &c.bias),
                _ => continue,
            };
            let bytes = std::mem::size_of_val(weight) + std::mem::size_of_val(bias);
            layer_bytes[id] = bytes;
            let dev = plan[id].expect("affine node has an owner");
            if let (Ok(wb), Ok(bb)) = (
                DeviceBuffer::from_slice(&devices[dev], weight).map(DeviceBuffer::into_persistent),
                DeviceBuffer::from_slice(&devices[dev], bias).map(DeviceBuffer::into_persistent),
            ) {
                owner[id] = Some(dev);
                resident[id] = Some(Arc::new(GatheredLayer {
                    weight: wb,
                    bias: bb,
                }));
                shard_bytes[dev] += bytes;
            }
        }
        Arc::new(Self {
            owner,
            resident,
            layer_bytes,
            shard_bytes,
            max_layer_bytes: max_layer_bytes(graph),
        })
    }

    /// Whether `node` is successfully sharded (owner-resident somewhere in
    /// the pool).
    pub(crate) fn is_sharded(&self, node: NodeId) -> bool {
        self.owner[node].is_some()
    }

    /// Persistent uploaded bytes per pool device.
    pub(crate) fn shard_bytes(&self) -> &[usize] {
        &self.shard_bytes
    }
}

/// Shared view state: the store plus this executing device's gather cache.
/// `Arc`-held by the prefetch thread, so it borrows nothing.
struct ViewInner<F: Fp, B: Backend> {
    store: Arc<ShardStore<F, B>>,
    /// The executing device — gathers of remote layers land here.
    exec: Device<B>,
    /// This view's index in the pool (layers it owns resolve copy-free).
    exec_idx: usize,
    /// Remote sharded node ids in descending order — the order a
    /// backsubstitution walk will need them (its next-use schedule).
    remote_order: Vec<NodeId>,
    /// `pos_of[node]` = the node's index in `remote_order` (`None` for
    /// local / host / non-affine nodes).
    pos_of: Vec<Option<usize>>,
    /// Cache capacity in gathered bytes (never below the double-buffer
    /// floor of two max-size layers).
    capacity: usize,
    cache: Mutex<GatherCache<F, B>>,
    /// Index into `remote_order` of the layer the walk last acquired —
    /// the origin next-use distances are measured from. Prefetch gathers
    /// never move it.
    cursor: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The gathered-layer cache of one view, with its byte total.
struct GatherCache<F: Fp, B: Backend> {
    entries: Vec<GatherEntry<F, B>>,
    bytes: usize,
}

impl<F: Fp, B: Backend> ViewInner<F, B> {
    /// Cyclic next-use distance of remote-order position `pos` from the
    /// cursor, in `1..=k`: the walk acquires remote layers in `remote_order`
    /// cyclically across batches, so the entry at the cursor itself was
    /// *just* used and is a full cycle (`k`) from its next use.
    fn next_use_distance(&self, pos: usize, cursor: usize, k: usize) -> usize {
        let d = (pos + k - cursor) % k;
        if d == 0 {
            k
        } else {
            d
        }
    }

    /// Returns the gathered form of a sharded layer: the store's resident
    /// buffer when this view's device owns it (no copy, no metering), the
    /// cached copy on a hit, or a fresh gather onto the executing device on
    /// a miss. The gather reconstructs the owner's exact bytes — it is
    /// bit-transparent to the walk. `from_walk` moves the next-use cursor;
    /// prefetch gathers leave it where the walk put it.
    fn gather(
        &self,
        node: NodeId,
        from_walk: bool,
    ) -> Result<Arc<GatheredLayer<F, B>>, DeviceError> {
        let local = self.store.resident[node]
            .as_ref()
            .expect("gather on a layer that is not sharded");
        if self.store.owner[node] == Some(self.exec_idx) {
            return Ok(local.clone());
        }
        let pos = self.pos_of[node].expect("remote sharded node has a walk position");
        if from_walk {
            self.cursor.store(pos, Ordering::Relaxed);
        }
        let mut cache = self.cache.lock();
        if let Some(at) = cache.entries.iter().position(|(n, _)| *n == node) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.exec.stats().record_copy(GATHER_HIT_LABEL, 0);
            return Ok(cache.entries[at].1.clone());
        }
        // Transient scratch on the executing device: pool-recycled when the
        // engine runs with buffer recycling, charged against its capacity
        // either way.
        let weight = DeviceBuffer::from_slice(&self.exec, local.weight.as_slice())?;
        let bias = DeviceBuffer::from_slice(&self.exec, local.bias.as_slice())?;
        self.exec
            .stats()
            .record_copy(COMMS_LABEL, (weight.bytes() + bias.bytes()) as u64);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let gathered = Arc::new(GatheredLayer { weight, bias });
        cache.bytes += self.store.layer_bytes[node];
        cache.entries.push((node, gathered.clone()));

        // Next-use-distance eviction. The just-inserted layer is pinned (it
        // is about to be used — whether by the walk right now or by the walk
        // the prefetcher gathered it for); everything else is ranked by how
        // far away its next use is in cyclic walk order, furthest evicted
        // first. Evicted entries stay alive while a walk holds their `Arc`.
        let cursor = self.cursor.load(Ordering::Relaxed);
        let k = self.remote_order.len();
        while cache.bytes > self.capacity && cache.entries.len() > 1 {
            let victim = cache
                .entries
                .iter()
                .enumerate()
                .filter(|(_, (n, _))| *n != node)
                .max_by_key(|(_, (n, _))| {
                    let p = self.pos_of[*n].expect("cached layer is remote");
                    self.next_use_distance(p, cursor, k)
                })
                .map(|(at, _)| at);
            let Some(at) = victim else { break };
            let (evicted_node, _) = cache.entries.remove(at);
            cache.bytes -= self.store.layer_bytes[evicted_node];
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.exec.stats().record_copy(GATHER_EVICT_LABEL, 0);
        }
        Ok(gathered)
    }
}

/// One executing device's weight-shard view, owned by a
/// [`crate::PreparedGraph`]: the shared store, this device's gather cache
/// and its prefetch thread (shut down on drop).
pub(crate) struct WeightShard<F: Fp, B: Backend> {
    inner: Arc<ViewInner<F, B>>,
    /// How many upcoming remote layers each walk acquisition prefetches.
    prefetch_depth: usize,
    prefetch_tx: Option<mpsc::Sender<NodeId>>,
    prefetch_join: Option<JoinHandle<()>>,
}

impl<F: Fp, B: Backend> WeightShard<F, B> {
    /// Builds one executing device's view over the shared store: computes
    /// the remote walk order, sizes the gather cache and spawns the
    /// prefetch thread. Returns `None` when the store sharded nothing (the
    /// prepared graph then has no `Sharded` layers either).
    ///
    /// `cache_bytes` caps the gather cache; `None` auto-sizes it to half
    /// the executing device's free bytes at construction (unlimited on an
    /// uncapped device). Either way the cache never shrinks below the
    /// double-buffer floor of two max-size layers, so the layer being
    /// walked and the prefetched next one always coexist.
    pub(crate) fn new_view(
        store: Arc<ShardStore<F, B>>,
        exec: Device<B>,
        exec_idx: usize,
        cache_bytes: Option<usize>,
        prefetch_depth: usize,
    ) -> Option<Self> {
        if !store.owner.iter().any(Option::is_some) {
            return None;
        }
        // Remote layers in descending node order: the backsubstitution walk
        // visits nodes output→input, so this is exactly its acquire order.
        let mut remote_order: Vec<NodeId> = store
            .owner
            .iter()
            .enumerate()
            .filter(|&(_, o)| o.is_some() && *o != Some(exec_idx))
            .map(|(id, _)| id)
            .collect();
        remote_order.sort_unstable_by(|a, b| b.cmp(a));
        let mut pos_of: Vec<Option<usize>> = vec![None; store.owner.len()];
        for (p, &id) in remote_order.iter().enumerate() {
            pos_of[id] = Some(p);
        }
        let floor = 2 * store.max_layer_bytes;
        let capacity = match cache_bytes {
            Some(bytes) => bytes.max(floor),
            None => match exec.memory_capacity() {
                None => usize::MAX,
                Some(cap) => floor.max(cap.saturating_sub(exec.memory_in_use()) / 2),
            },
        };
        let inner = Arc::new(ViewInner {
            store,
            exec,
            exec_idx,
            remote_order,
            pos_of,
            capacity,
            cache: Mutex::new(GatherCache {
                entries: Vec::new(),
                bytes: 0,
            }),
            cursor: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        });
        let (prefetch_tx, prefetch_join) = if inner.remote_order.is_empty() || prefetch_depth == 0 {
            // Nothing remote to prefetch (or prefetch disabled): every
            // gather is a local resolve or a synchronous copy.
            (None, None)
        } else {
            let (tx, rx) = mpsc::channel::<NodeId>();
            let thread_inner = inner.clone();
            let join = std::thread::Builder::new()
                .name("gpupoly-fsdp-prefetch".to_string())
                .spawn(move || {
                    // Best-effort: a failed prefetch (e.g. transient OOM on
                    // the executing device) is dropped; the walk gathers
                    // synchronously and surfaces any real error itself.
                    while let Ok(node) = rx.recv() {
                        let _ = thread_inner.gather(node, false);
                    }
                })
                .ok();
            // If the thread could not spawn, run without prefetch: every
            // gather is synchronous, results unchanged.
            (join.is_some().then_some(tx), join)
        };
        Some(Self {
            inner,
            prefetch_depth,
            prefetch_tx,
            prefetch_join,
        })
    }

    /// Acquires a sharded layer for the walk, then enqueues prefetches of
    /// the next `prefetch_depth` remote layers in cyclic walk order so
    /// their gathers overlap this layer's step.
    pub(crate) fn acquire(&self, node: NodeId) -> Result<Arc<GatheredLayer<F, B>>, DeviceError> {
        let gathered = self.inner.gather(node, true)?;
        if let (Some(tx), Some(pos)) = (&self.prefetch_tx, self.inner.pos_of[node]) {
            let k = self.inner.remote_order.len();
            for step in 1..=self.prefetch_depth.min(k.saturating_sub(1)) {
                let _ = tx.send(self.inner.remote_order[(pos + step) % k]);
            }
        }
        Ok(gathered)
    }

    /// `(hits, misses, evictions)` of this view's gather cache.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (
            self.inner.hits.load(Ordering::Relaxed),
            self.inner.misses.load(Ordering::Relaxed),
            self.inner.evictions.load(Ordering::Relaxed),
        )
    }
}

impl<F: Fp, B: Backend> Drop for WeightShard<F, B> {
    fn drop(&mut self) {
        // Close the channel, then join: the thread exits its recv loop.
        drop(self.prefetch_tx.take());
        if let Some(join) = self.prefetch_join.take() {
            let _ = join.join();
        }
    }
}

/// The deterministic layer→device partition: affine nodes in topological
/// order, each assigned to the device with the least accumulated weight
/// bytes so far (ties to the lowest index). Returns the owner of each
/// node (`None` for non-affine nodes) and the per-device byte totals.
pub(crate) fn shard_plan<F: Fp>(
    graph: &Graph<'_, F>,
    devices: usize,
) -> (Vec<Option<usize>>, Vec<usize>) {
    let mut owner: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut bytes = vec![0usize; devices.max(1)];
    for (id, node) in graph.nodes.iter().enumerate() {
        let layer = match node.op {
            Op::Dense(d) => {
                std::mem::size_of_val(d.weight.as_slice())
                    + std::mem::size_of_val(d.bias.as_slice())
            }
            Op::Conv(c) => {
                std::mem::size_of_val(c.weight.as_slice())
                    + std::mem::size_of_val(c.bias.as_slice())
            }
            _ => continue,
        };
        let dev = (0..bytes.len()).min_by_key(|&i| (bytes[i], i)).unwrap_or(0);
        owner[id] = Some(dev);
        bytes[dev] += layer;
    }
    (owner, bytes)
}

/// The largest single affine layer's weight+bias bytes — the unit of the
/// double-buffer floor on an executing device (the layer being walked and
/// the prefetched next one must always coexist).
pub(crate) fn max_layer_bytes<F: Fp>(graph: &Graph<'_, F>) -> usize {
    graph
        .nodes
        .iter()
        .map(|node| match node.op {
            Op::Dense(d) => {
                std::mem::size_of_val(d.weight.as_slice())
                    + std::mem::size_of_val(d.bias.as_slice())
            }
            Op::Conv(c) => {
                std::mem::size_of_val(c.weight.as_slice())
                    + std::mem::size_of_val(c.bias.as_slice())
            }
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpupoly_device::{CpuSimBackend, DeviceConfig};
    use gpupoly_nn::builder::NetworkBuilder;
    use gpupoly_nn::Network;

    fn mix(i: usize, s: u64) -> f32 {
        ((((i as u64 + 7) * (s + 31)) * 2654435761 % 1999) as f32 / 999.0 - 1.0) * 0.4
    }

    /// Four equal-size 8→8 dense layers: on a 4-device pool the greedy plan
    /// gives each device exactly one layer, so a view on device 0 has three
    /// remote layers — more than the 2-entry double-buffer floor holds.
    fn four_layer_net() -> Network<f32> {
        let mut b = NetworkBuilder::new_flat(8);
        for l in 0..4u64 {
            b = b
                .dense_flat(
                    8,
                    (0..64).map(|i| mix(i, l)).collect(),
                    (0..8).map(|i| mix(i, l + 17) * 0.3).collect(),
                )
                .relu();
        }
        b.build().expect("valid net")
    }

    fn pool(n: usize) -> Vec<Device<CpuSimBackend>> {
        (0..n)
            .map(|i| Device::new(DeviceConfig::new().workers(1).name(format!("fs{i}"))))
            .collect()
    }

    /// Node ids of the four dense layers (input 0, then dense/relu pairs).
    const L: [NodeId; 4] = [1, 3, 5, 7];

    #[test]
    fn next_use_eviction_keeps_prefetched_layer_not_mru() {
        let net = four_layer_net();
        let graph = net.graph();
        let devs = pool(4);
        let store = ShardStore::build(&devs, &graph);
        for (i, &l) in L.iter().enumerate() {
            assert_eq!(store.owner[l], Some(i), "one layer per device");
        }
        let layer = store.layer_bytes[L[0]];
        // Capacity request below the floor clamps to the 2-layer floor.
        let view = WeightShard::<f32, CpuSimBackend>::new_view(
            store.clone(),
            devs[0].clone(),
            0,
            Some(1),
            0,
        )
        .expect("sharded store yields a view");
        assert_eq!(view.inner.capacity, 2 * layer);
        assert_eq!(view.inner.remote_order, vec![L[3], L[2], L[1]]);

        // The PR 9 MRU reinsertion hazard, replayed deterministically:
        // walk acquires L3 (the in-use layer), the prefetcher gathers L2,
        // the walk touches L3 again (old policy: move-to-front), then the
        // prefetcher inserts L1 and the cache must shed one entry.
        view.acquire(L[3]).unwrap(); // walk: miss
        view.inner.gather(L[2], false).unwrap(); // prefetch: miss
        view.acquire(L[3]).unwrap(); // walk: hit — cursor stays at L3
        view.inner.gather(L[1], false).unwrap(); // prefetch: miss → evict

        // The old MRU order was [L1, L3, L2] + truncate(2): it evicted L2,
        // the just-prefetched layer the walk needs *next*. Next-use
        // distance evicts L3 instead (just used ⇒ a full cycle away).
        let cached: Vec<NodeId> = view
            .inner
            .cache
            .lock()
            .entries
            .iter()
            .map(|e| e.0)
            .collect();
        assert!(cached.contains(&L[2]), "just-prefetched layer must survive");
        assert!(cached.contains(&L[1]), "inserted layer is pinned");
        assert!(!cached.contains(&L[3]), "the in-use layer is the victim");

        // The walk proceeds: both prefetched layers hit; L3 re-gathers.
        view.acquire(L[2]).unwrap(); // hit
        view.acquire(L[1]).unwrap(); // hit
        view.acquire(L[3]).unwrap(); // miss (was evicted)
        let (hits, misses, evictions) = view.counters();
        assert_eq!(hits, 3);
        assert_eq!(misses, 4);
        assert!(evictions >= 1);

        // Device-visible mirrors of the same counters.
        let stats = devs[0].stats();
        assert_eq!(stats.kernel_work(GATHER_HIT_LABEL).launches, hits);
        assert_eq!(stats.kernel_work(COMMS_LABEL).launches, misses);
        assert_eq!(stats.kernel_work(GATHER_EVICT_LABEL).launches, evictions);
        assert_eq!(
            stats.kernel_work(COMMS_LABEL).bytes_moved,
            misses * layer as u64,
            "every miss moves exactly one layer's bytes"
        );
        assert_eq!(stats.kernel_work(GATHER_HIT_LABEL).bytes_moved, 0);
    }

    #[test]
    fn evicted_layer_survives_while_walk_holds_its_arc() {
        let net = four_layer_net();
        let graph = net.graph();
        let devs = pool(4);
        let store = ShardStore::build(&devs, &graph);
        let view = WeightShard::<f32, CpuSimBackend>::new_view(
            store.clone(),
            devs[0].clone(),
            0,
            Some(0),
            0,
        )
        .unwrap();

        let held = view.acquire(L[3]).unwrap();
        let want: Vec<f32> = held.weight.as_slice().to_vec();
        // Overflow the 2-entry floor so L3 (the in-use layer) is evicted.
        view.inner.gather(L[2], false).unwrap();
        view.acquire(L[3]).unwrap();
        view.inner.gather(L[1], false).unwrap();
        assert!(view.counters().2 >= 1, "an eviction must have happened");
        // The walk's Arc keeps the evicted buffer alive and bit-intact.
        assert_eq!(held.weight.as_slice(), want.as_slice());
        assert_eq!(
            held.weight.as_slice(),
            store.resident[L[3]].as_ref().unwrap().weight.as_slice(),
            "gather reconstructed the owner's exact bytes"
        );
    }

    #[test]
    fn local_layers_resolve_to_store_residents_without_comms() {
        let net = four_layer_net();
        let graph = net.graph();
        let devs = pool(2);
        let store = ShardStore::build(&devs, &graph);
        // 2-device greedy plan: L0,L2 → device 0; L1,L3 → device 1.
        assert_eq!(store.owner[L[0]], Some(0));
        assert_eq!(store.owner[L[1]], Some(1));
        let view =
            WeightShard::<f32, CpuSimBackend>::new_view(store.clone(), devs[0].clone(), 0, None, 1)
                .unwrap();
        // Unconstrained device ⇒ the auto-sized cache is unlimited.
        assert_eq!(view.inner.capacity, usize::MAX);

        let got = view.acquire(L[0]).unwrap();
        assert!(
            Arc::ptr_eq(&got, store.resident[L[0]].as_ref().unwrap()),
            "a locally-owned layer is the store's buffer itself"
        );
        assert_eq!(view.counters(), (0, 0, 0), "local resolves are unmetered");
        assert_eq!(devs[0].stats().kernel_work(COMMS_LABEL).bytes_moved, 0);
    }
}

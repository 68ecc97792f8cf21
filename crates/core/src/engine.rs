//! The network-resident batched verification engine.
//!
//! GPUPoly's headline scaling result (MLSys 2021) comes from amortization:
//! the network is validated and uploaded to the accelerator **once**, and
//! thousands of certification queries then run against the resident model.
//! [`Engine`] is that shape:
//!
//! * at construction it validates the graph, pre-packs every dense/conv
//!   layer's weights into device-resident buffers ([`PreparedGraph`]) and
//!   precomputes per-node metadata (ReLU visit order, chunk sizing);
//! * queries only allocate transient expression batches, which the device's
//!   buffer pool recycles so steady-state verification performs no fresh
//!   device allocations ([`gpupoly_device::DeviceStats::bytes_allocated`]
//!   stays flat across a batch);
//! * an LRU analysis cache keyed by the input box lets queries over a
//!   repeated box (robustness sweeps over ε, several specs over one region)
//!   share a single DeepPoly analysis;
//! * every entry runs the same algorithm through one driver: a single
//!   query's analysis is the fused analysis over a batch of one box,
//!   [`Engine::verify_batch_fused`] is the walk driver, and branch-and-bound
//!   refinement sends it each frontier generation;
//! * an engine owns its devices: one ([`Engine::new`]) or a pool placed by a
//!   [`Plan`] ([`Engine::on_pool`]), whose walking devices are more stream
//!   slots of the one walk schedule ([`crate::analysis`]) behind one cache.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use gpupoly_device::{Backend, Device, DeviceBuffer, DeviceStats};
use gpupoly_interval::{Fp, Itv};
use gpupoly_nn::{Graph, Network, NodeId, Op};

use crate::analysis::{analyze, analyze_fused, walk_streams, Analysis, AnalysisStats, Streamed};
use crate::fsdp::{GatheredLayer, ShardStore, WeightShard};
use crate::sharded::Plan;
use crate::verifier::{LinearSpec, Margin, RobustnessVerdict, SpecRow, SpecVerdict};
use crate::walk::{StopRule, WalkOutcome, Walker};
use crate::{ExprBatch, VerifyConfig, VerifyError};

/// One robustness query: is `label` certified for every image within `eps`
/// (L∞) of `image`, clamped to the `[0, 1]` pixel domain?
#[derive(Clone, Debug, PartialEq)]
pub struct Query<F> {
    /// Center image.
    pub image: Vec<F>,
    /// Claimed label.
    pub label: usize,
    /// L∞ radius.
    pub eps: F,
}

impl<F: Fp> Query<F> {
    /// Builds a query.
    pub fn new(image: impl Into<Vec<F>>, label: usize, eps: F) -> Self {
        Self {
            image: image.into(),
            label,
            eps,
        }
    }
}

/// Construction-time knobs of an [`Engine`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EngineOptions {
    /// Capacity (entries) of the LRU analysis cache keyed by input box;
    /// `0` disables caching.
    ///
    /// Each entry pins concrete bounds for every node of the network, and
    /// the inference round-off of its float-computed ones (roughly
    /// `3 * size_of::<F>() * total neuron count` host bytes), so size this
    /// down for very large networks or long-lived engines.
    pub analysis_cache: usize,
    /// ε-monotone cache reuse: on an analysis-cache miss at box `B`, probe
    /// for a cached analysis whose box *contains* `B` and try to prove the
    /// spec against it first. Sound for **proving only** (a superset box's
    /// bounds over-approximate the subset's); whenever the superset proof
    /// fails, the exact analysis is computed so refutation margins stay
    /// exact. Off by default because proofs served this way carry the
    /// superset's (looser, still sound) margins rather than the exact-path
    /// bit pattern.
    pub monotone_cache_reuse: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            analysis_cache: 64,
            monotone_cache_reuse: false,
        }
    }
}

/// A point-in-time snapshot of the counters a serving layer needs for
/// admission decisions and observability (see [`Engine::stats`]).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Analysis-cache lookups served from the cache.
    pub cache_hits: u64,
    /// Analyses actually computed (true cache misses).
    pub cache_misses: u64,
    /// Queries proven through ε-monotone reuse of a containing box's
    /// analysis ([`EngineOptions::monotone_cache_reuse`]).
    pub monotone_hits: u64,
    /// Bytes of network weights resident on the engine's devices: one copy
    /// per walking device, or one model pool-wide under
    /// [`Plan::shard_weights`].
    pub resident_bytes: usize,
    /// High-water mark of persistent (weight) bytes ever simultaneously
    /// resident, summed over the engine's devices
    /// ([`gpupoly_device::DeviceStats::peak_resident_bytes`]; device-wide:
    /// shared with other engines on the same device). Capacity planning
    /// for shard budgets reads this.
    pub peak_resident_bytes: u64,
    /// Refinable ReLU layers in the prepared schedule (the depth factor of
    /// [`Engine::query_cost`]).
    pub relu_layers: usize,
    /// Batches that ran through the fused cross-query path
    /// ([`Engine::verify_batch_fused`] without falling back).
    pub fused_batches: u64,
    /// Kernel launches, summed over the engine's devices (device-wide
    /// counters: shared with other engines on the same device).
    pub launches: u64,
    /// Scalar-equivalent flops metered on the engine's devices
    /// (device-wide): the kernels' analytic counts, which charge a term the
    /// interval GEMM skips (an exact-zero coefficient) like any other.
    pub flops: u64,
    /// Bytes read + written by kernels on the engine's devices
    /// (device-wide).
    pub bytes_moved: u64,
    /// Exponentially-weighted moving average of measured wall milliseconds
    /// per unit of [`Engine::query_cost`], fed by every
    /// `verify_batch_fused` call. `0.0` until the first measured batch.
    /// Admission layers multiply it with a query's cost hint to weigh a
    /// queue by estimated *time* instead of raw query count.
    pub ewma_ms_per_cost: f64,
    /// Queries resolved by the `f32` fast tier of a
    /// [`crate::TieredEngine`] without touching `f64` (always `0` for a
    /// plain [`Engine`]).
    pub fast_pass_resolved: u64,
    /// Queries escalated to the `f64` full tier — Unknown fast verdicts or
    /// margins inside the conservative `f32` error envelope (always `0`
    /// for a plain [`Engine`]).
    pub escalated: u64,
    /// Input-box bisections spent by branch-and-bound refinement
    /// ([`Engine::verify_complete`]).
    pub splits: u64,
    /// Largest split frontier (pending sub-boxes of one generation)
    /// observed by any refinement so far.
    pub frontier_peak: u64,
    /// Queries whose `Unknown` base verdict refinement converted to
    /// `Proven` by discharging every leaf of the split tree.
    pub proven_by_split: u64,
    /// Queries refinement refuted with a *verified* concrete
    /// counterexample (sound interval evaluation at a point).
    pub cex_found: u64,
    /// Weight-sharded engines: remote-layer gathers served from a walking
    /// device's gather cache, summed over the walking devices (always `0`
    /// otherwise).
    pub gather_hits: u64,
    /// Weight-sharded engines: remote-layer gathers that copied bytes onto
    /// a walking device — the `comms` traffic, in events.
    pub gather_misses: u64,
    /// Weight-sharded engines: gathered layers evicted by the
    /// next-use-distance policy to stay inside a gather cache's capacity
    /// (half its walking device's free bytes at construction, never below
    /// two of the largest layer): zero on devices without a memory cap,
    /// whose caches keep every remote layer.
    pub gather_evictions: u64,
}

/// The branch-and-bound refinement counters of an engine (split off so the
/// `bnb` module can account work without reaching into private engine
/// fields).
#[derive(Default)]
pub(crate) struct SplitCounters {
    pub(crate) splits: AtomicU64,
    pub(crate) frontier_peak: AtomicU64,
    pub(crate) proven_by_split: AtomicU64,
    pub(crate) cex_found: AtomicU64,
}

impl SplitCounters {
    /// Raises the recorded frontier peak to at least `len`.
    pub(crate) fn note_frontier(&self, len: usize) {
        self.frontier_peak.fetch_max(len as u64, Ordering::Relaxed);
    }
}

/// Per-layer weight storage: device-resident when packed, borrowed from the
/// host network otherwise, or resident on another pool device in a
/// weight-sharded graph (gathered on demand through the graph's
/// [`WeightShard`]).
enum PackedAffine<'n, F: Fp, B: Backend> {
    Resident {
        weight: DeviceBuffer<F, B>,
        bias: DeviceBuffer<F, B>,
    },
    Host {
        weight: &'n [F],
        bias: &'n [F],
    },
    Sharded,
}

/// A walk's view of one affine layer's weights: borrowed storage (device
/// buffers deref to slices; host weights are slices already) or a gathered
/// shard kept alive by its `Arc` for the duration of the layer step.
pub(crate) enum WeightRef<'a, F: Fp, B: Backend> {
    Borrowed(&'a [F], &'a [F]),
    Gathered(Arc<GatheredLayer<F, B>>),
}

impl<F: Fp, B: Backend> WeightRef<'_, F, B> {
    /// The `(weight, bias)` slices, wherever they live.
    pub(crate) fn slices(&self) -> (&[F], &[F]) {
        match self {
            WeightRef::Borrowed(weight, bias) => (weight, bias),
            WeightRef::Gathered(g) => (&g.weight, &g.bias),
        }
    }
}

/// The validated, device-prepared form of a network graph: prepacked affine
/// weights plus the per-node metadata every walk needs (ReLU visit order,
/// the worst-case dependence-set window that sizes backsubstitution chunks).
///
/// Built once per [`Engine`]; all of `analysis`/`walk`/`steps` borrow their
/// weight storage from here instead of re-reading host slices per query.
pub struct PreparedGraph<'n, F: Fp, B: Backend> {
    affine: Vec<Option<PackedAffine<'n, F, B>>>,
    /// `(relu_node, parent)` for every ReLU whose input can be refined,
    /// in topological order.
    relu_plan: Vec<(NodeId, NodeId)>,
    /// Neurons of the widest layer: the most columns a backsubstitution row
    /// ever has (a window is stored clipped to its layer).
    widest_layer: usize,
    /// Bytes of weights resident on the executing device.
    resident_bytes: usize,
    /// Weight-shard state (the gather cache) when this graph
    /// is a view over a pool's [`ShardStore`]; `None` for single-device
    /// graphs.
    shard: Option<WeightShard<F, B>>,
}

impl<'n, F: Fp, B: Backend> PreparedGraph<'n, F, B> {
    /// Validates the graph and uploads its weights (a layer the device
    /// has no comfortable room for borrows the host's instead).
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] when residual branches disagree on shape.
    pub fn new(device: &Device<B>, graph: &Graph<'n, F>) -> Result<Self, VerifyError> {
        Self::build(device, graph, true)
    }

    /// [`PreparedGraph::new`]; with `upload` off every layer borrows host
    /// weights — the base a sharded view marks its shards on.
    pub(crate) fn build(
        device: &Device<B>,
        graph: &Graph<'n, F>,
        upload: bool,
    ) -> Result<Self, VerifyError> {
        for node in &graph.nodes {
            if let Op::Add { .. } = node.op {
                let sa = graph.nodes[node.parents[0]].shape;
                let sb = graph.nodes[node.parents[1]].shape;
                if sa != sb {
                    return Err(VerifyError::BadQuery(format!(
                        "residual branches must agree on shape, got {sa} and {sb}"
                    )));
                }
            }
        }
        let mut resident_bytes = 0usize;
        let affine = graph
            .nodes
            .iter()
            .map(|node| match node.op {
                Op::Dense(d) => Some(Self::pack_one(
                    device,
                    &d.weight,
                    &d.bias,
                    upload,
                    &mut resident_bytes,
                )),
                Op::Conv(c) => Some(Self::pack_one(
                    device,
                    &c.weight,
                    &c.bias,
                    upload,
                    &mut resident_bytes,
                )),
                _ => None,
            })
            .collect();
        let relu_plan = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| matches!(node.op, Op::Relu))
            .map(|(id, node)| (id, node.parents[0]))
            .filter(|&(_, parent)| parent != 0)
            .collect();
        Ok(Self {
            affine,
            relu_plan,
            widest_layer: graph.nodes.iter().map(|n| n.shape.len()).max().unwrap_or(1),
            resident_bytes,
            shard: None,
        })
    }

    /// One executing device's view of a network whose weights are
    /// **layer-sharded** across a device pool ([`ShardStore`]: each affine
    /// layer uploaded persistently onto exactly one pool device,
    /// deterministic greedy balance by bytes, so every device holds ~1/N of
    /// the model). Layers `devices[exec_idx]` owns resolve to their
    /// owner-resident buffers copy-free; the other devices' layers are
    /// all-gathered onto it on demand during the walk and cached
    /// capacity-aware (see [`crate::fsdp`]). Every
    /// view of one store shares the same uploads and marks the same layers
    /// `Sharded`; a layer whose upload failed borrows host weights, exactly
    /// like the single-device packing path.
    pub(crate) fn new_sharded_view(
        devices: &[Device<B>],
        exec_idx: usize,
        graph: &Graph<'n, F>,
        store: Arc<ShardStore<F, B>>,
    ) -> Result<Self, VerifyError> {
        let mut base = Self::build(&devices[exec_idx], graph, false)?;
        for id in 0..graph.nodes.len() {
            if store.is_sharded(id) {
                base.affine[id] = Some(PackedAffine::Sharded);
            }
        }
        base.resident_bytes = store.shard_bytes()[exec_idx];
        base.shard = WeightShard::new_view(store, devices[exec_idx].clone(), exec_idx, None);
        Ok(base)
    }

    /// Uploads one layer's weights, falling back to host borrows when the
    /// upload fails or would crowd out working memory (more than half the
    /// device capacity).
    fn pack_one(
        device: &Device<B>,
        weight: &'n [F],
        bias: &'n [F],
        enabled: bool,
        resident_bytes: &mut usize,
    ) -> PackedAffine<'n, F, B> {
        let bytes = std::mem::size_of_val(weight) + std::mem::size_of_val(bias);
        let fits = device
            .memory_capacity()
            .is_none_or(|cap| device.memory_in_use() + bytes <= cap / 2);
        if enabled && fits {
            // Weights live as long as the engine: mark them persistent
            // *immediately* so a buffer pool active on the device (this
            // engine's or another engine's) can never shelve them — not even
            // when one upload of the pair fails and the other is dropped on
            // the error path (shelving a weight-sized temporary would pin
            // device capacity until the pool drains).
            if let (Ok(wb), Ok(bb)) = (
                DeviceBuffer::from_slice(device, weight).map(DeviceBuffer::into_persistent),
                DeviceBuffer::from_slice(device, bias).map(DeviceBuffer::into_persistent),
            ) {
                *resident_bytes += bytes;
                return PackedAffine::Resident {
                    weight: wb,
                    bias: bb,
                };
            }
        }
        PackedAffine::Host { weight, bias }
    }

    /// The weight/bias storage for an affine node — device-resident when
    /// packed, borrowed from the host otherwise, or all-gathered onto the
    /// executing device for a weight-sharded layer (the only fallible
    /// case: the gather allocates transient scratch and can OOM).
    ///
    /// # Panics
    ///
    /// Panics when `node` is not a dense/conv node.
    pub(crate) fn weights(&self, node: NodeId) -> Result<WeightRef<'_, F, B>, VerifyError> {
        match self.affine[node]
            .as_ref()
            .expect("weights() called on a non-affine node")
        {
            PackedAffine::Resident { weight, bias } => Ok(WeightRef::Borrowed(weight, bias)),
            PackedAffine::Host { weight, bias } => Ok(WeightRef::Borrowed(weight, bias)),
            PackedAffine::Sharded => {
                let shard = self
                    .shard
                    .as_ref()
                    .expect("sharded layer without shard state");
                Ok(WeightRef::Gathered(shard.acquire(node)?))
            }
        }
    }

    /// `(hits, misses, evictions)` of the gather cache; all zero for
    /// non-sharded graphs.
    pub(crate) fn gather_counters(&self) -> (u64, u64, u64) {
        self.shard.as_ref().map_or((0, 0, 0), WeightShard::counters)
    }

    /// The precomputed `(relu, parent)` refinement schedule.
    pub(crate) fn relu_plan(&self) -> &[(NodeId, NodeId)] {
        &self.relu_plan
    }

    /// Bytes of weights resident on the device.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// How many backsubstitution rows fit in the device's currently free
    /// memory (the §4.2 chunking heuristic). Worst-case per-row footprint:
    /// the window of a backsubstituted expression is stored clipped to its
    /// layer ([`crate::expr`]), so a row is bounded by the widest layer
    /// times two interval planes, double-buffered across a step.
    pub(crate) fn chunk_for(&self, device: &Device<B>) -> usize {
        let free = device.memory_free();
        if free == usize::MAX {
            return usize::MAX;
        }
        let bytes_per_row = self.widest_layer * std::mem::size_of::<Itv<F>>() * 2 * 3;
        (free / bytes_per_row.max(1)).max(1)
    }
}

/// One walking device of an engine and the network's weights as that device
/// reads them: its own packing, or its view of the pool's weight shards
/// under [`Plan::shard_weights`].
pub(crate) struct Lane<'n, F: Fp, B: Backend> {
    pub(crate) device: Device<B>,
    pub(crate) prepared: PreparedGraph<'n, F, B>,
}

/// A box key: the exact bit pattern of the input intervals, shared by
/// reference between the cache map, the LRU order and the in-flight table
/// (a multi-KB vector for image-sized inputs — cloned once, never copied).
type BoxKey = Arc<[u64]>;

/// One query's outcome in a batch.
type BatchVerdict<F> = Result<RobustnessVerdict<F>, VerifyError>;

/// One cached analysis together with the box it was computed over (kept so
/// ε-monotone reuse can probe for containment without decoding key bits).
struct CacheEntry<F> {
    input: Box<[Itv<F>]>,
    analysis: Arc<Analysis<F>>,
}

/// LRU cache of analyses keyed by the exact bit pattern of the input box.
struct AnalysisCache<F> {
    capacity: usize,
    map: HashMap<BoxKey, CacheEntry<F>>,
    order: VecDeque<BoxKey>,
    hits: u64,
    misses: u64,
}

impl<F: Fp> AnalysisCache<F> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, key: &[u64]) -> Option<Arc<Analysis<F>>> {
        let (stored_key, hit) = self.map.get_key_value(key)?;
        let (stored_key, hit) = (stored_key.clone(), hit.analysis.clone());
        self.hits += 1;
        // LRU bump: identity comparison — the deque shares the map's Arcs.
        if let Some(pos) = self.order.iter().position(|k| Arc::ptr_eq(k, &stored_key)) {
            let k = self.order.remove(pos).expect("in-range position");
            self.order.push_back(k);
        }
        Some(hit)
    }

    /// Whether the exact box is cached, without counting a hit or bumping
    /// the LRU order (used by planning passes that will probe again).
    fn peek(&self, key: &[u64]) -> bool {
        self.map.contains_key(key)
    }

    /// ε-monotone probe: a cached analysis whose box strictly *contains*
    /// `input` (sound over-approximation of it). Exact matches return
    /// `None` — the caller's normal lookup path handles those. Among
    /// several containing boxes the tightest (smallest total width) wins,
    /// ties broken by key bits so the choice never depends on hash-map
    /// iteration order. Does not count a hit or bump the LRU.
    fn get_containing(&self, key: &[u64], input: &[Itv<F>]) -> Option<Arc<Analysis<F>>> {
        let mut best: Option<(&BoxKey, &CacheEntry<F>, f64)> = None;
        for (k, entry) in &self.map {
            if **k == *key || entry.input.len() != input.len() {
                continue;
            }
            if !entry
                .input
                .iter()
                .zip(input)
                .all(|(sup, sub)| sup.contains_itv(*sub))
            {
                continue;
            }
            let width: f64 = entry.input.iter().map(|b| b.width().to_f64()).sum();
            let better = match &best {
                None => true,
                Some((bk, _, bw)) => width < *bw || (width == *bw && k.as_ref() < bk.as_ref()),
            };
            if better {
                best = Some((k, entry, width));
            }
        }
        best.map(|(_, entry, _)| entry.analysis.clone())
    }

    /// Records one analysis actually computed (a true miss). Counted at
    /// claim time rather than on every lookup so threads that block on an
    /// in-flight computation and then hit the cache don't inflate the
    /// miss count.
    fn note_computed(&mut self) {
        self.misses += 1;
    }

    fn insert(&mut self, key: BoxKey, input: &[Itv<F>], analysis: Arc<Analysis<F>>) {
        if self.capacity == 0 {
            return;
        }
        let entry = CacheEntry {
            input: input.into(),
            analysis,
        };
        if self.map.insert(key.clone(), entry).is_none() {
            self.order.push_back(key);
        }
        while self.map.len() > self.capacity {
            let Some(evicted) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&*evicted);
        }
    }
}

/// Per-box gates deduplicating concurrent cache misses: the first thread to
/// miss a box claims it and computes its analysis, concurrent requesters
/// for the same box block on the gate and then hit the cache.
type InFlight = Mutex<HashMap<BoxKey, Arc<Mutex<()>>>>;

/// The boxes one thread has claimed in an [`InFlight`] table
/// ([`Engine::with_claims`]). Dropping it takes them out again — also when
/// the owner unwinds: a key left behind with its gate open would have every
/// later [`Engine::analyze`] of that box look, wait on nothing and look
/// again, forever.
struct GateSet<'a> {
    map: &'a InFlight,
    keys: Vec<BoxKey>,
}

impl Drop for GateSet<'_> {
    fn drop(&mut self) {
        let mut map = self.map.lock();
        for key in &self.keys {
            map.remove(key);
        }
    }
}

fn box_key<F: Fp>(input: &[Itv<F>]) -> BoxKey {
    input
        .iter()
        .flat_map(|b| [b.lo.bits(), b.hi.bits()])
        .collect()
}

/// The engine-free form of [`Engine::query_cost`]: total clamped input-box
/// width times the refinable-ReLU-layer count. Admission layers that don't
/// own the engine (e.g. a serving daemon's connection threads) compute the
/// same hint from mirrored metadata; multiplied by the measured
/// [`EngineStats::ewma_ms_per_cost`] it estimates a query's wall time.
pub fn query_cost_hint<F: Fp>(image: &[F], eps: F, relu_layers: usize) -> f64 {
    if !eps.is_finite() {
        return 0.0;
    }
    let width: f64 = image
        .iter()
        .map(|&x| {
            let lo = (x - eps).max(F::ZERO).min(F::ONE);
            let hi = (x + eps).max(F::ZERO).min(F::ONE);
            (hi - lo).max(F::ZERO).to_f64()
        })
        .sum();
    width * relu_layers.max(1) as f64
}

/// Folds one measured batch (wall ms over total cost) into an ms-per-cost
/// EWMA kept as `f64` bits (`0` = nothing measured yet): the first sample
/// seeds it, later ones weigh 0.2. Unusable samples are dropped.
pub(crate) fn fold_ms_per_cost(ewma: &AtomicU64, elapsed_ms: f64, total_cost: f64) {
    if total_cost <= 0.0 || total_cost.is_nan() || !elapsed_ms.is_finite() {
        return;
    }
    let sample = elapsed_ms / total_cost;
    let _ = ewma.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
        let old = f64::from_bits(bits);
        let new = if old == 0.0 {
            sample
        } else {
            0.2 * sample + 0.8 * old
        };
        Some(new.to_bits())
    });
}

/// The network-resident verification engine — see the module docs.
///
/// # Example
///
/// ```
/// use gpupoly_core::{Engine, Query, VerifyConfig};
/// use gpupoly_device::Device;
/// use gpupoly_nn::builder::NetworkBuilder;
///
/// let net = NetworkBuilder::new_flat(2)
///     .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
///     .relu()
///     .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.5, 0.0])
///     .build()?;
/// let engine = Engine::new(Device::default(), &net, VerifyConfig::default())?;
/// let queries = vec![
///     Query::new(vec![0.4_f32, 0.6], 0, 0.05),
///     Query::new(vec![0.5_f32, 0.5], 0, 0.02),
/// ];
/// let verdicts = engine.verify_batch_fused(&queries);
/// assert!(verdicts.iter().all(|v| v.as_ref().unwrap().verified));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Engine<'n, F: Fp, B: Backend> {
    /// The walking devices: every pool device under [`Plan::split_rows`],
    /// else the first alone.
    lanes: Vec<Lane<'n, F, B>>,
    /// Every device of the engine, in order. Devices past the lanes only
    /// hold weight shards (if anything), but are still metered.
    devices: Vec<Device<B>>,
    /// Weight bytes the engine keeps on its devices ([`EngineStats`]).
    resident_bytes: usize,
    graph: Graph<'n, F>,
    cfg: VerifyConfig,
    cache: Mutex<AnalysisCache<F>>,
    in_flight: InFlight,
    options: EngineOptions,
    /// Queries proven via ε-monotone reuse of a containing box's analysis.
    monotone_hits: AtomicU64,
    /// Batches that went through the fused path without falling back.
    fused_batches: AtomicU64,
    /// EWMA of measured wall ms per unit of [`Engine::query_cost`] (f64
    /// bit pattern; `0` until the first measured batch).
    ewma_ms_per_cost: AtomicU64,
    /// Branch-and-bound refinement counters (see [`crate::bnb`]).
    split_counters: SplitCounters,
}

impl<'n, F: Fp, B: Backend> Engine<'n, F, B> {
    /// Builds an engine with default options (analysis cache on).
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] when residual branches disagree on shape.
    pub fn new(
        device: Device<B>,
        net: &'n Network<F>,
        cfg: VerifyConfig,
    ) -> Result<Self, VerifyError> {
        Self::with_options(device, net, cfg, EngineOptions::default())
    }

    /// Builds an engine with explicit options.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] when residual branches disagree on shape.
    pub fn with_options(
        device: Device<B>,
        net: &'n Network<F>,
        cfg: VerifyConfig,
        options: EngineOptions,
    ) -> Result<Self, VerifyError> {
        Self::on_pool(vec![device], Plan::default(), net, cfg, options)
    }

    /// Builds one engine over a pool of `devices`, placed by `plan`: a
    /// walking lane on every device with [`Plan::split_rows`], else on the
    /// first alone, each over the whole network packed on its own device
    /// or — with [`Plan::shard_weights`] — over its view of one pool-wide
    /// layer partition. The walking devices are stream slots of every walk
    /// the engine runs, so margins are bit-identical to one device's under
    /// every plan; the engine keeps one analysis cache, one set of in-flight
    /// gates and one set of counters. A pool of one device under the default
    /// plan is [`Engine::with_options`].
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] for an empty device list or when residual
    /// branches disagree on shape.
    pub fn on_pool(
        devices: Vec<Device<B>>,
        plan: Plan,
        net: &'n Network<F>,
        cfg: VerifyConfig,
        options: EngineOptions,
    ) -> Result<Self, VerifyError> {
        if devices.is_empty() {
            return Err(VerifyError::BadQuery(
                "an engine needs at least one device".to_string(),
            ));
        }
        let graph = net.graph();
        let store = plan
            .shard_weights
            .then(|| ShardStore::build(&devices, &graph));
        let walkers = if plan.split_rows { devices.len() } else { 1 };
        // Resident weights are marked persistent at packing time, so a
        // buffer pool active on the shared device can never shelve them.
        let lanes = (0..walkers)
            .map(|i| {
                let prepared = match &store {
                    Some(store) => {
                        PreparedGraph::new_sharded_view(&devices, i, &graph, store.clone())?
                    }
                    None => PreparedGraph::new(&devices[i], &graph)?,
                };
                Ok(Lane {
                    device: devices[i].clone(),
                    prepared,
                })
            })
            .collect::<Result<Vec<_>, VerifyError>>()?;
        let resident_bytes = match &store {
            Some(store) => store.shard_bytes().iter().sum(),
            None => lanes.iter().map(|l| l.prepared.resident_bytes()).sum(),
        };
        // Transient per-query buffers recycle through each walking device's
        // pool.
        for lane in &lanes {
            lane.device.buffer_pool_retain();
        }
        Ok(Self {
            lanes,
            devices,
            resident_bytes,
            graph,
            cfg,
            cache: Mutex::new(AnalysisCache::new(options.analysis_cache)),
            in_flight: Mutex::new(HashMap::new()),
            options,
            monotone_hits: AtomicU64::new(0),
            fused_batches: AtomicU64::new(0),
            ewma_ms_per_cost: AtomicU64::new(0),
            split_counters: SplitCounters::default(),
        })
    }

    /// The engine's first device (its only one outside a pool).
    pub fn device(&self) -> &Device<B> {
        &self.devices[0]
    }

    /// Every device of the engine, in pool order: per-device meters are
    /// each one's [`Device::stats`].
    pub fn devices(&self) -> &[Device<B>] {
        &self.devices
    }

    /// The active configuration.
    pub fn config(&self) -> &VerifyConfig {
        &self.cfg
    }

    /// The active options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The prepared (device-resident) form of the network on the first
    /// device.
    pub fn prepared(&self) -> &PreparedGraph<'n, F, B> {
        &self.lanes[0].prepared
    }

    /// `(hits, misses)` of the analysis cache: lookups served from the
    /// cache versus analyses actually computed. Deterministic for a given
    /// query stream regardless of batch scheduling.
    pub fn cache_stats(&self) -> (u64, u64) {
        let cache = self.cache.lock();
        (cache.hits, cache.misses)
    }

    /// A snapshot of the serving-relevant counters: cache hits/misses,
    /// resident weight bytes, the ReLU schedule depth and the measured
    /// per-cost batch-time EWMA. Device meters (launches, flops, bytes,
    /// peak residency) and gather counters are summed over the engine's
    /// devices.
    pub fn stats(&self) -> EngineStats {
        let (cache_hits, cache_misses) = self.cache_stats();
        let (mut gather_hits, mut gather_misses, mut gather_evictions) = (0, 0, 0);
        for lane in &self.lanes {
            let (hits, misses, evictions) = lane.prepared.gather_counters();
            gather_hits += hits;
            gather_misses += misses;
            gather_evictions += evictions;
        }
        let sum = |meter: fn(&DeviceStats) -> u64| -> u64 {
            self.devices.iter().map(|d| meter(d.stats())).sum()
        };
        EngineStats {
            cache_hits,
            cache_misses,
            monotone_hits: self.monotone_hits.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes,
            peak_resident_bytes: sum(|d| d.peak_resident_bytes()),
            relu_layers: self.prepared().relu_plan().len(),
            fused_batches: self.fused_batches.load(Ordering::Relaxed),
            launches: sum(|d| d.launches()),
            flops: sum(|d| d.flops()),
            bytes_moved: sum(|d| d.bytes_moved()),
            ewma_ms_per_cost: f64::from_bits(self.ewma_ms_per_cost.load(Ordering::Relaxed)),
            fast_pass_resolved: 0,
            escalated: 0,
            splits: self.split_counters.splits.load(Ordering::Relaxed),
            frontier_peak: self.split_counters.frontier_peak.load(Ordering::Relaxed),
            proven_by_split: self.split_counters.proven_by_split.load(Ordering::Relaxed),
            cex_found: self.split_counters.cex_found.load(Ordering::Relaxed),
            gather_hits,
            gather_misses,
            gather_evictions,
        }
    }

    /// The branch-and-bound refinement counters (accounting surface of
    /// [`crate::bnb`]).
    pub(crate) fn split_counters(&self) -> &SplitCounters {
        &self.split_counters
    }

    /// The engine's validated graph view (the `bnb` module evaluates
    /// concrete counterexample candidates through it).
    pub(crate) fn graph(&self) -> &Graph<'n, F> {
        &self.graph
    }

    /// Folds one measured batch (wall time, total [`Engine::query_cost`])
    /// into the ms-per-cost EWMA exposed via [`EngineStats`].
    fn note_batch_time(&self, elapsed_ms: f64, total_cost: f64) {
        fold_ms_per_cost(&self.ewma_ms_per_cost, elapsed_ms, total_cost);
    }

    /// A cheap, deterministic cost estimate for one query: the total width
    /// of its clamped input box times the number of refinable ReLU layers.
    ///
    /// Wider boxes leave more ReLUs unstable and every unstable ReLU layer
    /// adds a backsubstitution pass, so this estimate ranks queries by how
    /// much refinement work they are *prone* to trigger without running any
    /// analysis. Serving layers use it for admission (weigh a queue by cost
    /// instead of query count). Malformed queries (wrong image length,
    /// non-finite values) get a zero estimate — they will be rejected as
    /// [`VerifyError::BadQuery`] at verification time, costing nothing.
    pub fn query_cost(&self, query: &Query<F>) -> f64 {
        if query.image.len() != self.graph.nodes[0].shape.len() {
            return 0.0;
        }
        query_cost_hint(&query.image, query.eps, self.prepared().relu_plan().len())
    }

    /// Runs (or reuses) the full DeepPoly analysis over an input box,
    /// producing sound concrete bounds for every node. Results are shared
    /// through the LRU cache: repeated boxes return the same [`Arc`].
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] for a wrong input length,
    /// [`VerifyError::Device`] when even single-row chunks exceed memory.
    pub fn analyze(&self, input: &[Itv<F>]) -> Result<Arc<Analysis<F>>, VerifyError> {
        // Validate the dimension before touching the cache, so a malformed
        // box can never be keyed, gated or deduplicated.
        let in_len = self.graph.nodes[0].shape.len();
        if input.len() != in_len {
            return Err(VerifyError::BadQuery(format!(
                "input has {} values, network expects {in_len}",
                input.len()
            )));
        }
        if self.options.analysis_cache == 0 {
            return Ok(Arc::new(self.analyze_fresh(input)?));
        }
        let key = box_key(input);
        loop {
            if let Some(hit) = self.cache.lock().get(&key) {
                return Ok(hit);
            }
            // Claim the box, or wait for the thread already computing it
            // (concurrent queries over one box must share one analysis, not
            // race to duplicate it).
            let computed = self.with_claims(std::slice::from_ref(&key), |owned| {
                if !owned[0] {
                    return None;
                }
                // Re-check: an owner may have finished (and released its
                // claim) between our cache miss and our claim.
                if let Some(hit) = self.cache.lock().get(&key) {
                    return Some(Ok(hit));
                }
                self.cache.lock().note_computed();
                Some(self.analyze_fresh(input).map(|analysis| {
                    let analysis = Arc::new(analysis);
                    self.cache
                        .lock()
                        .insert(key.clone(), input, analysis.clone());
                    analysis
                }))
            });
            if let Some(out) = computed {
                return out;
            }
            // Block until the owner is done, then look again: its result is
            // in the cache, or it failed and the box is free to claim.
            let gate = self.in_flight.lock().get(&key).cloned();
            if let Some(gate) = gate {
                drop(gate.lock());
            }
        }
    }

    /// The one way into the in-flight table: claims every box of `keys`
    /// that no other thread is computing and runs `body(owned)` holding
    /// their gates, `owned[i]` telling whether `keys[i]` is this thread's.
    /// Concurrent [`Engine::analyze`] callers of a claimed box park on its
    /// gate instead of spinning; the claims are released when `body` is
    /// done — by return, error or unwind ([`GateSet`]), before the gates
    /// open.
    fn with_claims<T>(&self, keys: &[BoxKey], body: impl FnOnce(&[bool]) -> T) -> T {
        let mut owned = vec![false; keys.len()];
        let mut claimed: Vec<BoxKey> = Vec::new();
        let mut gates: Vec<Arc<Mutex<()>>> = Vec::new();
        let mut in_flight = self.in_flight.lock();
        for (key, own) in keys.iter().zip(&mut owned) {
            if !in_flight.contains_key(key) {
                let gate = Arc::new(Mutex::new(()));
                in_flight.insert(key.clone(), gate.clone());
                gates.push(gate);
                claimed.push(key.clone());
                *own = true;
            }
        }
        // Fresh gates, locked before anyone can find them in the table.
        let _guards: Vec<_> = gates.iter().map(|gate| gate.lock()).collect();
        drop(in_flight);
        // Declared last, so dropped first: the claims go before the gates
        // open, on every way out of `body`.
        let _claimed = GateSet {
            map: &self.in_flight,
            keys: claimed,
        };
        body(&owned)
    }

    fn analyze_fresh(&self, input: &[Itv<F>]) -> Result<Analysis<F>, VerifyError> {
        analyze(&self.lanes, &self.graph, &self.cfg, input)
    }

    /// Proves (or fails to prove) each row of a linear output spec over an
    /// input box.
    ///
    /// With [`EngineOptions::monotone_cache_reuse`] on, an analysis-cache
    /// miss first probes for a cached analysis over a *containing* box: its
    /// bounds soundly over-approximate this box, so a successful proof
    /// against them stands (with the superset's looser-but-sound margins).
    /// Any row left unproven falls through to the exact analysis — the
    /// over-approximation is never used to refute.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] for an empty spec, out-of-range output
    /// indices or a wrong input length; [`VerifyError::Device`] on
    /// unrecoverable OOM.
    pub fn verify_spec(
        &self,
        input: &[Itv<F>],
        spec: &LinearSpec<F>,
    ) -> Result<SpecVerdict<F>, VerifyError> {
        if self.options.monotone_cache_reuse
            && input.len() == self.graph.nodes[0].shape.len()
            && input.iter().all(|b| !b.lo.is_nan() && !b.hi.is_nan())
        {
            if let Some(verdict) = self.prove_from_superset(input, spec)? {
                return Ok(verdict);
            }
        }
        let analysis = self.analyze(input)?;
        self.check_spec_with(&analysis, spec)
    }

    /// The ε-monotone probe: when the exact box misses the cache but a
    /// cached analysis covers a box *containing* it, tries to prove `spec`
    /// against that analysis. `Some` only for a complete proof (counted in
    /// `monotone_hits`); unproven rows are `None` — the over-approximation
    /// is never used to refute — and so is an exact hit, which the normal
    /// lookup serves (and counts).
    fn prove_from_superset(
        &self,
        input: &[Itv<F>],
        spec: &LinearSpec<F>,
    ) -> Result<Option<SpecVerdict<F>>, VerifyError> {
        let key = box_key(input);
        let superset = {
            let cache = self.cache.lock();
            if cache.peek(&key) {
                None
            } else {
                cache.get_containing(&key, input)
            }
        };
        let Some(superset) = superset else {
            return Ok(None);
        };
        let verdict = self.check_spec_with(&superset, spec)?;
        if !verdict.all_proven() {
            return Ok(None);
        }
        self.monotone_hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(verdict))
    }

    /// Spec check reusing an existing analysis (several specs over the same
    /// input box share one analysis).
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] for an empty spec (zero rows would be
    /// vacuously "all proven") or out-of-range output indices.
    pub fn check_spec_with(
        &self,
        analysis: &Analysis<F>,
        spec: &LinearSpec<F>,
    ) -> Result<SpecVerdict<F>, VerifyError> {
        // An analysis produced by a different network would be indexed out
        // of bounds (or silently mis-read) by the walker below: reject it.
        if analysis.bounds.len() != self.graph.nodes.len()
            || analysis
                .bounds
                .iter()
                .zip(&self.graph.nodes)
                .any(|(b, node)| b.len() != node.shape.len())
        {
            return Err(VerifyError::BadQuery(
                "analysis does not match this network (was it produced by a \
                 different engine?)"
                    .to_string(),
            ));
        }
        if spec.rows().is_empty() {
            return Err(VerifyError::BadQuery(
                "empty specification: a spec with zero rows proves nothing \
                 (and `all_proven()` would be vacuously true)"
                    .to_string(),
            ));
        }
        let out_len = self.out_len();
        for row in spec.rows() {
            for &(i, _) in &row.coeffs {
                if i >= out_len {
                    return Err(VerifyError::BadQuery(format!(
                        "spec index {i} out of range for {out_len} outputs"
                    )));
                }
            }
        }
        let rows = spec.rows();
        let out = walk_streams(
            &self.lanes,
            &self.cfg,
            rows.len(),
            1,
            &|_| 0,
            &|lane, part| self.walk_spec(lane, self.spec_batch(lane, &rows[part])?, vec![analysis]),
        )?;
        let mut stats = analysis.stats.clone();
        stats.absorb_walk(out.work[0].stopped, out.work[0].candidates);
        Ok(Self::spec_verdict(&out.best, stats))
    }

    /// Number of network outputs.
    fn out_len(&self) -> usize {
        self.graph.nodes[self.graph.output()].shape.len()
    }

    /// Spec rows as a backsubstitution batch at the output node, one
    /// expression per row, on `lane`'s device.
    fn spec_batch(
        &self,
        lane: &Lane<'n, F, B>,
        rows: &[SpecRow<F>],
    ) -> Result<ExprBatch<F, B>, VerifyError> {
        let out_node = self.graph.output();
        let out_shape = self.graph.nodes[out_node].shape;
        let mut batch = ExprBatch::zeroed(
            &lane.device,
            out_node,
            out_shape,
            (out_shape.h, out_shape.w),
            vec![(0, 0); rows.len()],
        )?;
        for (r, row) in rows.iter().enumerate() {
            for &(i, c) in &row.coeffs {
                batch.set_coeff(r, i, Itv::point(c));
            }
            batch.add_cst(r, Itv::point(row.cst));
        }
        Ok(batch)
    }

    /// Walks a batch of spec rows to the input on `lane`; segment `k` of the
    /// batch reads `segs[k]`'s bounds.
    fn walk_spec(
        &self,
        lane: &Lane<'n, F, B>,
        batch: ExprBatch<F, B>,
        segs: Vec<&Analysis<F>>,
    ) -> Result<WalkOutcome<F>, VerifyError> {
        let rule = if self.cfg.early_termination {
            StopRule::ProvenPositive
        } else {
            StopRule::None
        };
        let walker = Walker {
            device: &lane.device,
            graph: &self.graph,
            prepared: &lane.prepared,
            segs,
        };
        walker.run(batch, rule)
    }

    /// The verdict over spec rows whose walk ended at `best`.
    fn spec_verdict(best: &[Itv<F>], stats: AnalysisStats) -> SpecVerdict<F> {
        let lower_bounds: Vec<F> = best.iter().map(|b| b.lo).collect();
        let proven: Vec<bool> = lower_bounds.iter().map(|&l| l > F::ZERO).collect();
        SpecVerdict {
            proven,
            lower_bounds,
            stats,
        }
    }

    /// Certifies L∞ robustness of one query: every image within `eps` of
    /// `image` (clamped to the `[0, 1]` pixel domain) classifies as `label`.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] for a wrong image length, out-of-range
    /// label or fewer than two outputs; [`VerifyError::Device`] on
    /// unrecoverable OOM.
    pub fn verify_robustness(
        &self,
        image: &[F],
        label: usize,
        eps: F,
    ) -> Result<RobustnessVerdict<F>, VerifyError> {
        let input = self.robustness_box(image, label, eps)?;
        self.verify_box(label, &input)
    }

    /// The robustness verdict for `label` over an already validated box
    /// ([`Engine::robustness_box`]).
    fn verify_box(
        &self,
        label: usize,
        input: &[Itv<F>],
    ) -> Result<RobustnessVerdict<F>, VerifyError> {
        let out_len = self.out_len();
        let verdict = self.verify_spec(input, &LinearSpec::robustness(label, out_len))?;
        Ok(Self::robustness_verdict(label, out_len, verdict))
    }

    /// Validates one robustness query and builds its clamped input box —
    /// the shared admission gate of the per-query, fused and
    /// branch-and-bound paths.
    pub(crate) fn robustness_box(
        &self,
        image: &[F],
        label: usize,
        eps: F,
    ) -> Result<Vec<Itv<F>>, VerifyError> {
        let in_len = self.graph.nodes[0].shape.len();
        if image.len() != in_len {
            return Err(VerifyError::BadQuery(format!(
                "image has {} values, network expects {in_len}",
                image.len()
            )));
        }
        // Infinite pixels too: the clamp below would quietly turn them into
        // 0 or 1, and the verdict would be for an image nobody sent (a wire
        // `1e39` is `+inf` once narrowed to `f32`).
        if let Some(at) = image.iter().position(|x| !x.is_finite()) {
            return Err(VerifyError::BadQuery(format!(
                "image value {at} is {}, not a finite number",
                image[at]
            )));
        }
        let out_len = self.out_len();
        if out_len < 2 {
            return Err(VerifyError::BadQuery(format!(
                "network has {out_len} output(s); robustness needs at least two"
            )));
        }
        if label >= out_len {
            return Err(VerifyError::BadQuery(format!(
                "label {label} out of range for {out_len} outputs"
            )));
        }
        if !(eps >= F::ZERO && eps.is_finite()) {
            return Err(VerifyError::BadQuery(format!(
                "epsilon must be finite and non-negative, got {eps}"
            )));
        }
        Ok(image
            .iter()
            .map(|&x| Itv::new(x - eps, x + eps).clamp_to(F::ZERO, F::ONE))
            .collect())
    }

    /// Shapes a robustness-spec verdict into per-adversary margins.
    fn robustness_verdict(
        label: usize,
        out_len: usize,
        verdict: SpecVerdict<F>,
    ) -> RobustnessVerdict<F> {
        let margins: Vec<Margin<F>> = (0..out_len)
            .filter(|&o| o != label)
            .zip(verdict.lower_bounds.iter().zip(&verdict.proven))
            .map(|(adversary, (&lower, &proven))| Margin {
                adversary,
                lower,
                proven,
            })
            .collect();
        RobustnessVerdict {
            verified: verdict.all_proven(),
            margins,
            stats: verdict.stats,
        }
    }

    /// The admission gate of every batch entry: validates each query into
    /// its box, hands the valid ones' labels and boxes to `verify` together,
    /// and returns every verdict in submission order. A malformed query gets
    /// its [`VerifyError::BadQuery`] slot and never reaches a device.
    fn with_admitted(
        &self,
        queries: &[Query<F>],
        verify: impl FnOnce(&[usize], Vec<Vec<Itv<F>>>) -> Vec<BatchVerdict<F>>,
    ) -> Vec<BatchVerdict<F>> {
        let mut slots: Vec<Option<BatchVerdict<F>>> = queries.iter().map(|_| None).collect();
        let mut admitted: Vec<usize> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        let mut boxes: Vec<Vec<Itv<F>>> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            match self.robustness_box(&q.image, q.label, q.eps) {
                Ok(input) => {
                    admitted.push(i);
                    labels.push(q.label);
                    boxes.push(input);
                }
                Err(e) => slots[i] = Some(Err(e)),
            }
        }
        for (i, verdict) in admitted.into_iter().zip(verify(&labels, boxes)) {
            slots[i] = Some(verdict);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("one verdict per admitted query"))
            .collect()
    }

    /// [`Engine::query_cost`] of an already clamped box.
    fn box_cost(&self, input: &[Itv<F>]) -> f64 {
        let width: f64 = input
            .iter()
            .map(|b| (b.hi - b.lo).max(F::ZERO).to_f64())
            .sum();
        width * self.prepared().relu_plan().len().max(1) as f64
    }

    /// Verifies a batch of robustness queries over the same network with
    /// **cross-query kernel fusion**: the backsubstitution rows of every
    /// admitted query are stacked into one [`ExprBatch`] per layer step, so
    /// each step issues one large GEMM/GBC/ReLU/compaction launch for the
    /// whole batch instead of one small walk per query — the paper's
    /// batched-bounds scaling lever applied *across* queries.
    ///
    /// Each query's margins are **bit-identical** to the sequential
    /// [`Engine::verify_robustness`] path (rows never interact across
    /// queries; per-row arithmetic, refinement schedules and relaxation
    /// choices are exactly the per-query ones), repeated input boxes share
    /// one analysis through the cache, and results come back in submission
    /// order.
    ///
    /// With nothing to fuse (fewer than two fusable queries), or after a
    /// device failure inside the fused pipeline, the queries not already
    /// resolved go one after the other through the
    /// [`Engine::verify_robustness`] path — which is also what a device that
    /// just ran out of memory should get: one query's rows at a time.
    ///
    /// With [`EngineOptions::monotone_cache_reuse`] enabled, each query
    /// whose exact box misses the cache first probes for a cached analysis
    /// over a *containing* box — exactly like [`Engine::verify_spec`] —
    /// and a successful superset proof resolves it without entering the
    /// fused pipeline, so downward ε-sweeps submitted as fused batches hit
    /// the anchor analysis too (proving only; unproven queries fall
    /// through to the exact fused analysis).
    pub fn verify_batch_fused(&self, queries: &[Query<F>]) -> Vec<BatchVerdict<F>> {
        self.with_admitted(queries, |labels, boxes| {
            self.verify_boxes_fused(labels, boxes, self.options.monotone_cache_reuse)
        })
    }

    /// The one walk driver: verifies *arbitrary* validated input boxes (one
    /// robustness spec, hence one `labels[j]`, each) through the fused
    /// cross-query pipeline. Query batches arrive here as their boxes;
    /// branch-and-bound sends each frontier generation of sibling sub-boxes,
    /// which share one launch per layer step exactly like a fused query
    /// batch.
    ///
    /// Boxes must already be valid for this network (right length, finite,
    /// inside the input domain) — they come from [`Engine::robustness_box`]
    /// or from bisecting such a box. With `monotone` set, a box whose exact
    /// analysis misses the cache first probes it for a cached analysis over
    /// a *containing* box (an anchor query, an ancestor from an earlier
    /// refinement, a sibling) and a successful superset proof resolves it
    /// without any new analysis — proving only, same soundness rule as
    /// [`EngineOptions::monotone_cache_reuse`]. Fewer than two boxes left to
    /// fuse, or any device failure inside the fused pipeline, go one box
    /// after the other (strictly more memory-frugal, same bits).
    pub(crate) fn verify_boxes_fused(
        &self,
        labels: &[usize],
        boxes: Vec<Vec<Itv<F>>>,
        monotone: bool,
    ) -> Vec<BatchVerdict<F>> {
        let started = Instant::now();
        let out_len = self.out_len();
        let total_cost: f64 = boxes.iter().map(|b| self.box_cost(b)).sum();

        let mut slots: Vec<Option<BatchVerdict<F>>> = boxes.iter().map(|_| None).collect();
        let mut fusable: Vec<usize> = Vec::new();
        let mut live_labels: Vec<usize> = Vec::new();
        let mut live: Vec<Vec<Itv<F>>> = Vec::new();
        for (j, input) in boxes.into_iter().enumerate() {
            // Any probe failure (unproven rows or a device error) simply
            // falls through to the exact path below.
            let proof = if monotone {
                let spec = LinearSpec::robustness(labels[j], out_len);
                self.prove_from_superset(&input, &spec).ok().flatten()
            } else {
                None
            };
            match proof {
                Some(verdict) => {
                    slots[j] = Some(Ok(Self::robustness_verdict(labels[j], out_len, verdict)))
                }
                None => {
                    fusable.push(j);
                    live_labels.push(labels[j]);
                    live.push(input);
                }
            }
        }

        let fused = if fusable.len() < 2 {
            None
        } else {
            self.fused_pipeline(&live_labels, &live).ok()
        };
        let verdicts: Vec<BatchVerdict<F>> = match fused {
            Some(verdicts) => {
                self.fused_batches.fetch_add(1, Ordering::Relaxed);
                self.note_batch_time(started.elapsed().as_secs_f64() * 1e3, total_cost);
                verdicts.into_iter().map(Ok).collect()
            }
            None => {
                let started = Instant::now();
                let verdicts = live_labels
                    .iter()
                    .zip(&live)
                    .map(|(&label, input)| self.verify_box(label, input))
                    .collect();
                self.note_batch_time(
                    started.elapsed().as_secs_f64() * 1e3,
                    live.iter().map(|b| self.box_cost(b)).sum(),
                );
                verdicts
            }
        };
        for (j, verdict) in fusable.into_iter().zip(verdicts) {
            slots[j] = Some(verdict);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every box proven from a superset or verified"))
            .collect()
    }

    /// The fused pipeline proper: one analysis per unique box, then every
    /// query's robustness-spec rows in one stacked row space through the one
    /// schedule ([`walk_streams`]).
    ///
    /// Where the rows run is pure scheduling. Every kernel of the walk —
    /// concretize, GEMM, GBC, ReLU substitution, compaction — is per-row:
    /// rows never read or write each other, relaxation tables depend only on
    /// the row's query segment, and each element accumulates in
    /// ascending-`k` order regardless of which rows share its launch (the
    /// backend bit-reproducibility contract).
    fn fused_pipeline(
        &self,
        labels: &[usize],
        boxes: &[Vec<Itv<F>>],
    ) -> Result<Vec<RobustnessVerdict<F>>, VerifyError> {
        // Unique boxes in first-appearance order: `groups[g]` is the index
        // of group g's first box, `group_of[j]` the group of the j-th box.
        let keys: Vec<BoxKey> = boxes.iter().map(|b| box_key(b)).collect();
        let mut group_index: HashMap<&[u64], usize> = HashMap::new();
        let mut groups: Vec<usize> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(boxes.len());
        for (j, key) in keys.iter().enumerate() {
            let g = *group_index.entry(key.as_ref()).or_insert_with(|| {
                groups.push(j);
                groups.len() - 1
            });
            group_of.push(g);
        }

        let resolved = self.resolve_boxes(boxes, &keys, &groups, &group_of)?;
        let analyses: Vec<&Analysis<F>> = group_of.iter().map(|&g| &*resolved[g]).collect();

        // Query j owns rows [j·rpq, (j+1)·rpq) of the stacked row space.
        let out_len = self.out_len();
        let rpq = out_len - 1;
        let walked = self.walk_spec_rows(labels, &analyses)?;
        Ok(labels
            .iter()
            .enumerate()
            .map(|(j, &label)| {
                let mut stats = analyses[j].stats.clone();
                stats.absorb_walk(walked.work[j].stopped, walked.work[j].candidates);
                let verdict = Self::spec_verdict(&walked.best[j * rpq..(j + 1) * rpq], stats);
                Self::robustness_verdict(label, out_len, verdict)
            })
            .collect())
    }

    /// The stacked robustness-spec row space (query j owns rows
    /// `[j·rpq, (j+1)·rpq)` and reads `analyses[j]`), through the one
    /// schedule ([`walk_streams`]). Each of its walks is one multi-segment
    /// pass: per-query sub-batches covering the walk's rows, stacked so each
    /// query keeps its own segment (and hence its own relaxation tables).
    fn walk_spec_rows(
        &self,
        labels: &[usize],
        analyses: &[&Analysis<F>],
    ) -> Result<Streamed<F>, VerifyError> {
        let out_len = self.out_len();
        let rpq = out_len - 1;
        let walk = |lane: &Lane<'n, F, B>, part: Range<usize>| {
            let mut batches = Vec::new();
            let mut segs = Vec::new();
            for j in part.start / rpq..=(part.end - 1) / rpq {
                let spec = LinearSpec::robustness(labels[j], out_len);
                let lo = part.start.max(j * rpq) - j * rpq;
                let hi = part.end.min((j + 1) * rpq) - j * rpq;
                batches.push(self.spec_batch(lane, &spec.rows()[lo..hi])?);
                segs.push(analyses[j]);
            }
            self.walk_spec(lane, ExprBatch::stack(&lane.device, batches)?, segs)
        };
        walk_streams(
            &self.lanes,
            &self.cfg,
            labels.len() * rpq,
            labels.len(),
            &|r| r / rpq,
            &walk,
        )
    }

    /// The cache-and-gate half of the fused pipeline: one analysis per
    /// unique box, served from the cache or computed together by one fused
    /// multi-query analysis. `groups[g]` indexes the g-th unique box in
    /// `boxes` / `keys`; `group_of` lists, per query and in query order,
    /// which one it is over.
    fn resolve_boxes(
        &self,
        boxes: &[Vec<Itv<F>>],
        keys: &[BoxKey],
        groups: &[usize],
        group_of: &[usize],
    ) -> Result<Vec<Arc<Analysis<F>>>, VerifyError> {
        let caching = self.options.analysis_cache > 0;

        // Which boxes miss the cache (peeked without counting — the real
        // lookups below reproduce the sequential hit/miss accounting).
        let missed: Vec<usize> = {
            let cache = self.cache.lock();
            (0..groups.len())
                .filter(|&g| !caching || !cache.peek(&keys[groups[g]]))
                .collect()
        };
        let mut analyses: Vec<Option<Arc<Analysis<F>>>> = vec![None; groups.len()];
        // Dedup against concurrent analyses of the same boxes: claim every
        // missed box, exactly like [`Engine::analyze`]. A box another thread
        // is already computing is *deferred* — left out of our fused analysis
        // and resolved through the gated path below, which blocks on that
        // thread's gate and serves the cache. Without a cache there is
        // nothing to share, and nothing to claim.
        let to_claim: Vec<BoxKey> = if caching {
            missed.iter().map(|&g| keys[groups[g]].clone()).collect()
        } else {
            Vec::new()
        };
        self.with_claims(&to_claim, |claimed| -> Result<(), VerifyError> {
            let mut own = vec![false; groups.len()];
            for (i, &g) in missed.iter().enumerate() {
                own[g] = !caching || claimed[i];
            }
            // Re-check after the claim, like the sequential path: an owner
            // may have finished (insert + release) between our cache peek
            // and our claim — recomputing would waste a full analysis and
            // double-count the miss.
            if caching {
                let mut cache = self.cache.lock();
                for &g in &missed {
                    if own[g] {
                        if let Some(hit) = cache.get(&keys[groups[g]]) {
                            analyses[g] = Some(hit); // counts the hit
                            own[g] = false;
                        }
                    }
                }
            }

            // Fused analysis of every owned missed box.
            let owned: Vec<usize> = missed.iter().copied().filter(|&g| own[g]).collect();
            let inputs: Vec<&[Itv<F>]> =
                owned.iter().map(|&g| boxes[groups[g]].as_slice()).collect();
            let computed: Vec<Arc<Analysis<F>>> =
                analyze_fused(&self.lanes, &self.graph, &self.cfg, &inputs)?
                    .into_iter()
                    .map(Arc::new)
                    .collect();

            // Publish to the cache with sequential-path accounting: one true
            // miss per computed analysis, one hit for every other lookup of
            // a box. Already-cached boxes are pinned *before* the inserts
            // so a small-capacity LRU can't evict them mid-batch.
            if caching {
                let mut cache = self.cache.lock();
                for (g, &rep) in groups.iter().enumerate() {
                    if !missed.contains(&g) {
                        analyses[g] = cache.get(&keys[rep]); // counts the hit
                    }
                }
                for (&g, analysis) in owned.iter().zip(&computed) {
                    cache.note_computed();
                    cache.insert(keys[groups[g]].clone(), &boxes[groups[g]], analysis.clone());
                    analyses[g] = Some(analysis.clone());
                }
                // Each further query of a box is one more cache-served
                // lookup.
                let mut first_use = vec![true; groups.len()];
                for &g in group_of {
                    if first_use[g] {
                        first_use[g] = false;
                    } else {
                        let _ = cache.get(&keys[groups[g]]);
                    }
                }
            } else {
                for (&g, analysis) in owned.iter().zip(&computed) {
                    analyses[g] = Some(analysis.clone());
                }
            }
            Ok(())
            // The claims are released here (the cache already holds the
            // results), so the deferred/raced resolution below can never
            // self-deadlock.
        })?;
        // A box can still be unresolved: deferred to a concurrent thread's
        // in-flight computation, or evicted between our peek and the
        // pinning get. The normal gated path waits/recomputes.
        analyses
            .into_iter()
            .enumerate()
            .map(|(g, a)| match a {
                Some(a) => Ok(a),
                None => self.analyze(&boxes[groups[g]]),
            })
            .collect()
    }
}

impl<F: Fp, B: Backend> Drop for Engine<'_, F, B> {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.device.buffer_pool_release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpupoly_nn::builder::NetworkBuilder;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_claim_that_unwinds_leaves_no_gate_behind_and_the_box_analyzes_again() {
        // What the daemon survives: a worker panics inside an analysis, the
        // panic is caught and the engine kept. The box it had claimed must
        // be free again, or every later analysis of it finds the key, waits
        // on an open gate, misses the cache and looks again — forever.
        let net = NetworkBuilder::new_flat(2)
            .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
            .relu()
            .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.5, 0.0])
            .build()
            .unwrap();
        let engine = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
        let input = [Itv::new(0.35_f32, 0.45), Itv::new(0.55, 0.65)];
        let key = box_key(&input);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            engine.with_claims(std::slice::from_ref(&key), |owned| {
                assert!(owned[0], "nobody else holds the box");
                assert!(engine.in_flight.lock().contains_key(&key));
                panic!("analysis blew up");
            })
        }));
        assert!(unwound.is_err());
        assert!(
            engine.in_flight.lock().is_empty(),
            "the unwound claim is still in flight"
        );
        // So the next analysis of the same box claims it and returns.
        assert!(engine.analyze(&input).is_ok());
        assert_eq!(engine.cache_stats(), (0, 1));
        assert!(engine.in_flight.lock().is_empty());
    }
}

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
//! * every entry runs one driver, for one box or many: the ε-monotone probe,
//!   then one cache-and-gate routine that resolves every box's analysis (one
//!   fused analysis over the misses it claims), then one spec walk over every
//!   (spec rows, analysis) segment. [`Engine::verify_robustness`],
//!   [`Engine::verify_spec`] and [`Engine::verify_batch_fused`] go through
//!   it alike, branch-and-bound refinement sends it each frontier
//!   generation, and [`Engine::analyze`] / [`Engine::check_spec_with`] are
//!   its two halves for one box;
//! * an engine owns its devices: one ([`Engine::new`]) or a pool placed by a
//!   [`Plan`] ([`Engine::on_pool`]), whose walking devices are more stream
//!   slots of the one walk schedule ([`crate::analysis`]) behind one cache.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use gpupoly_device::{gemm, Backend, DenseWeights, Device, DeviceBuffer, DeviceStats};
use gpupoly_interval::{Fp, Itv};
use gpupoly_nn::{Dense, Graph, Network, NodeId, Op};

use crate::analysis::{analyze_fused, walk_streams, Analysis, AnalysisStats};
use crate::fsdp::{GatheredLayer, ShardStore, WeightShard};
use crate::sharded::Plan;
use crate::verifier::{LinearSpec, Margin, RobustnessVerdict, SpecRow, SpecVerdict};
use crate::walk::{StepTables, StopRule, WalkOutcome, Walker};
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
    /// Calls that walked two or more boxes together: a
    /// [`Engine::verify_batch_fused`] with two or more queries left after
    /// admission and the ε-monotone probe, or a branch-and-bound generation
    /// of two or more boxes.
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
    /// per unit of [`Engine::query_cost`], fed by every verifying entry
    /// ([`Engine::verify_robustness`], [`Engine::verify_spec`],
    /// [`Engine::verify_batch_fused`], branch-and-bound generations) that
    /// walked. `0.0` until the first measured call.
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
    /// Per dense node, its weights' `wmax` ([`gemm::layer_wmax`]), made
    /// here once for every step through the layer, wherever its weights
    /// live; empty for other nodes.
    wmax: Vec<Vec<f64>>,
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
        let wmax = graph
            .nodes
            .iter()
            .map(|node| match node.op {
                Op::Dense(d) => gemm::layer_wmax(&d.weight, d.out_len, d.in_len),
                _ => Vec::new(),
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
            wmax,
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

    /// Dense node `node`'s weights as the interval product reads them:
    /// `weight`, its storage as [`PreparedGraph::weights`] gives it, with the
    /// layer's `wmax`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is not a dense node.
    pub(crate) fn dense_weights<'a>(
        &'a self,
        node: NodeId,
        dense: &Dense<F>,
        weight: &'a [F],
    ) -> DenseWeights<'a, F> {
        DenseWeights::new(weight, &self.wmax[node], dense.out_len, dense.in_len)
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

    /// The price of one backsubstitution row, in bytes: its worst-case
    /// footprint. The window of a backsubstituted expression is stored
    /// clipped to its layer ([`crate::expr`]), so a row is bounded by the
    /// widest layer times two interval planes, double-buffered across a
    /// step. A walk is at most [`crate::WALK_BYTES`] of them long.
    pub fn row_bytes(&self) -> usize {
        (self.widest_layer * std::mem::size_of::<Itv<F>>() * 2 * 3).max(1)
    }

    /// How many backsubstitution rows fit in the device's currently free
    /// memory (the §4.2 chunking heuristic), at [`PreparedGraph::row_bytes`]
    /// a row.
    pub(crate) fn chunk_for(&self, device: &Device<B>) -> usize {
        let free = device.memory_free();
        if free == usize::MAX {
            return usize::MAX;
        }
        (free / self.row_bytes()).max(1)
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

/// What the one driver verifies: a box and the spec rows to prove over it.
type Job<'a, F> = (&'a [Itv<F>], &'a [SpecRow<F>]);

/// One segment of a spec walk: spec rows and the analysis they read.
type Segment<'a, F> = (&'a [SpecRow<F>], &'a Analysis<F>);

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
/// later [`Engine::resolve`] of that box look, wait on nothing and look
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
    /// Calls that walked two or more boxes together.
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
    /// producing sound concrete bounds for every node: the input validated,
    /// then the one cache-and-gate routine over one box. Results are shared
    /// through the LRU cache: repeated boxes return the same [`Arc`].
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] for a wrong input length,
    /// [`VerifyError::Device`] when even single-row chunks exceed memory.
    pub fn analyze(&self, input: &[Itv<F>]) -> Result<Arc<Analysis<F>>, VerifyError> {
        self.check_input(input)?;
        Ok(self.resolve(&[input])?.pop().expect("one analysis per box"))
    }

    /// Rejects a box of the wrong dimension before it can be keyed, gated or
    /// deduplicated.
    fn check_input(&self, input: &[Itv<F>]) -> Result<(), VerifyError> {
        let in_len = self.graph.nodes[0].shape.len();
        if input.len() != in_len {
            return Err(VerifyError::BadQuery(format!(
                "input has {} values, network expects {in_len}",
                input.len()
            )));
        }
        Ok(())
    }

    /// The one cache-and-gate routine: an analysis for every box of `boxes`,
    /// in order, for one box or many. A box repeated in `boxes` is resolved
    /// once. Cache hits are served; the misses this thread claims are
    /// computed together by one [`analyze_fused`]; a box another thread is
    /// computing is waited for on its gate and looked up again (concurrent
    /// callers over one box share one analysis, whichever entries they came
    /// through). Accounting is one true miss per computed analysis and one
    /// hit per other lookup of a box. Without a cache every box is computed
    /// once, and nothing is claimed or counted.
    fn resolve(&self, boxes: &[&[Itv<F>]]) -> Result<Vec<Arc<Analysis<F>>>, VerifyError> {
        let caching = self.options.analysis_cache > 0;
        // Unique boxes in first-appearance order; `group_of[j]` is the one
        // the j-th box is.
        let mut index: HashMap<BoxKey, usize> = HashMap::new();
        let mut unique: Vec<(BoxKey, &[Itv<F>])> = Vec::new();
        let group_of: Vec<usize> = boxes
            .iter()
            .map(|&input| {
                let key = box_key(input);
                *index.entry(key.clone()).or_insert_with(|| {
                    unique.push((key, input));
                    unique.len() - 1
                })
            })
            .collect();

        let mut resolved: Vec<Option<Arc<Analysis<F>>>> = vec![None; unique.len()];
        loop {
            let mut open: Vec<usize> = (0..unique.len())
                .filter(|&g| resolved[g].is_none())
                .collect();
            if caching {
                let mut cache = self.cache.lock();
                open.retain(|&g| match cache.get(&unique[g].0) {
                    Some(hit) => {
                        resolved[g] = Some(hit);
                        false
                    }
                    None => true,
                });
            }
            if open.is_empty() {
                break;
            }
            // Claim the misses, or leave them to the threads already
            // computing them.
            let keys: Vec<BoxKey> = if caching {
                open.iter().map(|&g| unique[g].0.clone()).collect()
            } else {
                Vec::new()
            };
            let theirs = self.with_claims(&keys, |owned| -> Result<Vec<usize>, VerifyError> {
                let mut mine = Vec::new();
                let mut theirs = Vec::new();
                {
                    let mut cache = self.cache.lock();
                    for (i, &g) in open.iter().enumerate() {
                        if !caching {
                            mine.push(g);
                        } else if !owned[i] {
                            theirs.push(g);
                        } else if let Some(hit) = cache.get(&unique[g].0) {
                            // An owner finished (and released its claim)
                            // between our look and our claim.
                            resolved[g] = Some(hit);
                        } else {
                            mine.push(g);
                        }
                    }
                }
                if !mine.is_empty() {
                    let inputs: Vec<&[Itv<F>]> = mine.iter().map(|&g| unique[g].1).collect();
                    let computed = analyze_fused(&self.lanes, &self.graph, &self.cfg, &inputs)?;
                    let mut cache = self.cache.lock();
                    for (&g, analysis) in mine.iter().zip(computed) {
                        let analysis = Arc::new(analysis);
                        if caching {
                            let (key, input) = &unique[g];
                            cache.note_computed();
                            cache.insert(key.clone(), input, analysis.clone());
                        }
                        resolved[g] = Some(analysis);
                    }
                }
                Ok(theirs)
            })?;
            // Block until each owner is done, then look again: its result is
            // in the cache, or it failed and the box is free to claim.
            for g in theirs {
                let gate = self.in_flight.lock().get(&unique[g].0).cloned();
                if let Some(gate) = gate {
                    drop(gate.lock());
                }
            }
        }
        // Each further occurrence of a box in `boxes` is one more lookup.
        if caching {
            let mut cache = self.cache.lock();
            let mut seen = vec![false; unique.len()];
            for &g in &group_of {
                if std::mem::replace(&mut seen[g], true) {
                    let _ = cache.get(&unique[g].0);
                }
            }
        }
        Ok(group_of
            .iter()
            .map(|&g| resolved[g].clone().expect("every box resolved"))
            .collect())
    }

    /// The one way into the in-flight table: claims every box of `keys`
    /// that no other thread is computing and runs `body(owned)` holding
    /// their gates, `owned[i]` telling whether `keys[i]` is this thread's.
    /// Concurrent [`Engine::resolve`] callers of a claimed box park on its
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

    /// Proves (or fails to prove) each row of a linear output spec over an
    /// input box: the box and the spec validated, then the one driver over
    /// one box.
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
        self.check_input(input)?;
        self.check_spec(spec)?;
        self.verify_specs(&[(input, spec.rows())], self.options.monotone_cache_reuse)
            .pop()
            .expect("one verdict per box")
    }

    /// The ε-monotone probe: when the exact box misses the cache but a
    /// cached analysis covers a box *containing* it, tries to prove `rows`
    /// against that analysis. `Some` only for a complete proof (counted in
    /// `monotone_hits`); unproven rows are `None` — the over-approximation
    /// is never used to refute — and so are an exact hit, which the normal
    /// lookup serves (and counts), a box with a NaN bound, and a probe walk
    /// that failed: the exact path follows.
    fn prove_from_superset(&self, input: &[Itv<F>], rows: &[SpecRow<F>]) -> Option<SpecVerdict<F>> {
        if input.iter().any(|b| b.lo.is_nan() || b.hi.is_nan()) {
            return None;
        }
        let key = box_key(input);
        let superset = {
            let cache = self.cache.lock();
            if cache.peek(&key) {
                return None;
            }
            cache.get_containing(&key, input)?
        };
        let verdict = self.walk_segments(&[(rows, &superset)]).ok()?.pop()?;
        if !verdict.all_proven() {
            return None;
        }
        self.monotone_hits.fetch_add(1, Ordering::Relaxed);
        Some(verdict)
    }

    /// Spec check reusing an existing analysis (several specs over the same
    /// input box share one analysis): the analysis and the spec validated,
    /// then the one spec walk over one segment.
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
        self.check_spec(spec)?;
        Ok(self
            .walk_segments(&[(spec.rows(), analysis)])?
            .pop()
            .expect("one verdict per segment"))
    }

    /// Rejects a spec with no rows or with an output index past the
    /// network's outputs.
    fn check_spec(&self, spec: &LinearSpec<F>) -> Result<(), VerifyError> {
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
        Ok(())
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

    /// The one spec walk: the rows of every segment `(rows, analysis)`,
    /// concatenated in order into one list, through the one schedule
    /// ([`walk_streams`]). Each walk of the list stacks one batch per
    /// segment it covers, so every segment keeps its own relaxation tables;
    /// a walk inside one segment stacks nothing. Returns one verdict per
    /// segment, its analysis's work counters plus its rows' walks.
    ///
    /// Where the rows run is pure scheduling. Every kernel of the walk —
    /// concretize, GEMM, GBC, ReLU substitution, compaction — is per-row:
    /// rows never read or write each other, relaxation tables depend only on
    /// the row's segment, and each element accumulates in ascending-`k`
    /// order regardless of which rows share its launch (the backend
    /// bit-reproducibility contract).
    fn walk_segments(&self, segs: &[Segment<'_, F>]) -> Result<Vec<SpecVerdict<F>>, VerifyError> {
        // Segments sharing an analysis share its ReLU tables and panels.
        let (slot_of, slots) = StepTables::slots_of(segs.iter().map(|&(_, a)| a));
        let tables = StepTables::new(slots, &self.graph);
        self.walk_segments_tabled(segs, &slot_of, &tables)
    }

    /// [`Engine::walk_segments`] over the call's `tables`, segment `k`
    /// reading slot `slot_of[k]`.
    fn walk_segments_tabled(
        &self,
        segs: &[Segment<'_, F>],
        slot_of: &[usize],
        tables: &StepTables<F>,
    ) -> Result<Vec<SpecVerdict<F>>, VerifyError> {
        // Segment k owns rows `starts[k]..starts[k + 1]` of the list.
        let mut starts = vec![0];
        for (rows, _) in segs {
            starts.push(starts[starts.len() - 1] + rows.len());
        }
        let seg_of = |r: usize| starts.partition_point(|&s| s <= r) - 1;
        let walk = |lane: &Lane<'n, F, B>, part: Range<usize>| {
            let mut batches = Vec::new();
            let mut analyses = Vec::new();
            let mut slots = Vec::new();
            for k in seg_of(part.start)..=seg_of(part.end - 1) {
                let (rows, analysis) = segs[k];
                let lo = part.start.max(starts[k]) - starts[k];
                let hi = part.end.min(starts[k + 1]) - starts[k];
                batches.push(self.spec_batch(lane, &rows[lo..hi])?);
                analyses.push(analysis);
                slots.push(slot_of[k]);
            }
            let batch = ExprBatch::stack(&lane.device, batches)?;
            self.walk_spec(lane, batch, analyses, slots, tables)
        };
        let out = walk_streams(
            &self.lanes,
            &self.cfg,
            starts[segs.len()],
            segs.len(),
            &seg_of,
            &walk,
        )?;
        Ok(segs
            .iter()
            .zip(&out.work)
            .enumerate()
            .map(|(k, ((_, analysis), work))| {
                let mut stats = analysis.stats.clone();
                stats.absorb_walk(work.stopped, work.candidates);
                Self::spec_verdict(&out.best[starts[k]..starts[k + 1]], stats)
            })
            .collect())
    }

    /// Walks a batch of spec rows to the input on `lane`; segment `k` of the
    /// batch reads `segs[k]`'s bounds and slot `slots[k]` of `tables`.
    fn walk_spec(
        &self,
        lane: &Lane<'n, F, B>,
        batch: ExprBatch<F, B>,
        segs: Vec<&Analysis<F>>,
        slots: Vec<usize>,
        tables: &StepTables<F>,
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
            slots,
            tables,
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
    /// The query validated into its box, then the one driver over one box.
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
        self.verify_boxes_fused(&[label], &[input], self.options.monotone_cache_reuse)
            .pop()
            .expect("one verdict per box")
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
        verify: impl FnOnce(&[usize], &[Vec<Itv<F>>]) -> Vec<BatchVerdict<F>>,
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
        for (i, verdict) in admitted.into_iter().zip(verify(&labels, &boxes)) {
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
    /// This is the same driver [`Engine::verify_robustness`] runs over one
    /// box, here over every admitted query's box. Each query's margins are
    /// **bit-identical** to its own [`Engine::verify_robustness`] (rows
    /// never interact across queries; per-row arithmetic, refinement
    /// schedules and relaxation choices are exactly the per-query ones),
    /// repeated input boxes share one analysis through the cache, and
    /// results come back in submission order.
    ///
    /// A walk that runs out of device memory is cut again, down to one row
    /// with the device to itself; an error that still stands is every
    /// admitted query's.
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

    /// [`Engine::verify_specs`] over validated boxes with one robustness
    /// spec each, `labels[j]` being box j's label. Query batches arrive here
    /// as their boxes, a single query as a batch of one, and
    /// branch-and-bound sends each frontier generation of sibling
    /// sub-boxes.
    pub(crate) fn verify_boxes_fused(
        &self,
        labels: &[usize],
        boxes: &[Vec<Itv<F>>],
        monotone: bool,
    ) -> Vec<BatchVerdict<F>> {
        let out_len = self.out_len();
        let specs: Vec<LinearSpec<F>> = labels
            .iter()
            .map(|&label| LinearSpec::robustness(label, out_len))
            .collect();
        let jobs: Vec<Job<'_, F>> = boxes
            .iter()
            .zip(&specs)
            .map(|(input, spec)| (input.as_slice(), spec.rows()))
            .collect();
        self.verify_specs(&jobs, monotone)
            .into_iter()
            .zip(labels)
            .map(|(verdict, &label)| verdict.map(|v| Self::robustness_verdict(label, out_len, v)))
            .collect()
    }

    /// The one driver, from (box, spec rows) pairs to verdicts, for one box
    /// or many: with `monotone` set, the ε-monotone probe per box (a cached
    /// analysis over a *containing* box — an anchor query, an ancestor from
    /// an earlier refinement, a sibling — proves it without any new
    /// analysis; proving only, the soundness rule of
    /// [`EngineOptions::monotone_cache_reuse`]); then [`Engine::resolve`]
    /// over every box left; then one spec walk with a segment per box
    /// ([`Engine::walk_segments`]). Boxes must already be valid for this
    /// network (right length) and specs non-empty and in range.
    ///
    /// An error of the resolve or the walk is every walked box's: the walks
    /// have already been cut down to one row with the device to itself
    /// ([`walk_streams`]), so no box alone would fare better.
    fn verify_specs(
        &self,
        jobs: &[Job<'_, F>],
        monotone: bool,
    ) -> Vec<Result<SpecVerdict<F>, VerifyError>> {
        let started = Instant::now();
        let mut slots: Vec<Option<Result<SpecVerdict<F>, VerifyError>>> = jobs
            .iter()
            .map(|&(input, rows)| {
                monotone
                    .then(|| self.prove_from_superset(input, rows))
                    .flatten()
                    .map(Ok)
            })
            .collect();
        let live: Vec<usize> = (0..jobs.len()).filter(|&j| slots[j].is_none()).collect();
        if live.is_empty() {
            return slots.into_iter().flatten().collect();
        }
        let inputs: Vec<&[Itv<F>]> = live.iter().map(|&j| jobs[j].0).collect();
        let walked = self.resolve(&inputs).and_then(|analyses| {
            let segs: Vec<Segment<'_, F>> = live
                .iter()
                .zip(&analyses)
                .map(|(&j, analysis)| (jobs[j].1, &**analysis))
                .collect();
            self.walk_segments(&segs)
        });
        match walked {
            Ok(verdicts) => {
                if live.len() > 1 {
                    self.fused_batches.fetch_add(1, Ordering::Relaxed);
                }
                let cost = jobs.iter().map(|(input, _)| self.box_cost(input)).sum();
                self.note_batch_time(started.elapsed().as_secs_f64() * 1e3, cost);
                for (&j, verdict) in live.iter().zip(verdicts) {
                    slots[j] = Some(Ok(verdict));
                }
            }
            Err(e) => {
                for &j in &live {
                    slots[j] = Some(Err(e.clone()));
                }
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every box proven from a superset or walked"))
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
    use gpupoly_device::DeviceConfig;
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

    #[test]
    fn a_spec_walk_makes_each_analysis_live_panel_of_a_layer_once() {
        // Nodes 1 dense, 2 relu, 3 dense, 4 relu, 5 dense: a spec walk
        // steps through both dense nodes above a ReLU, 3 and 5.
        let net = NetworkBuilder::new_flat(2)
            .dense(
                &[[1.0_f32, -1.0], [1.0, 1.0], [0.5, -2.0]],
                &[0.1, -0.2, 0.0],
            )
            .relu()
            .dense(
                &[[1.0_f32, -0.5, 0.25], [-1.0, 1.0, 0.5], [0.75, 0.5, -1.0]],
                &[0.0, 0.1, -0.1],
            )
            .relu()
            .dense(
                &[[1.0_f32, 1.0, -0.5], [1.0, -1.0, 0.5], [-0.25, 0.5, 1.0]],
                &[0.5, 0.0, -0.5],
            )
            .build()
            .unwrap();
        let engine = |chunk_rows| {
            let cfg = VerifyConfig {
                early_termination: false,
                chunk_rows: Some(chunk_rows),
                ..Default::default()
            };
            Engine::new(Device::new(DeviceConfig::new().workers(2)), &net, cfg).unwrap()
        };
        let (cut, whole) = (engine(1), engine(usize::MAX));
        let boxes = [
            [Itv::new(0.1_f32, 0.6), Itv::new(-0.4, 0.2)],
            [Itv::new(-0.5_f32, 0.5), Itv::new(0.0, 0.3)],
        ];
        let (a, b) = (
            cut.analyze(&boxes[0]).unwrap(),
            cut.analyze(&boxes[1]).unwrap(),
        );
        let spec = LinearSpec::robustness(0, 3);
        // Three segments over two analyses: the first and the last share one.
        let segs = [(spec.rows(), &*a), (spec.rows(), &*b), (spec.rows(), &*a)];
        let (slot_of, slots) = StepTables::slots_of(segs.iter().map(|&(_, a)| a));
        assert_eq!((slot_of.as_slice(), slots), ([0, 1, 0].as_slice(), 2));
        let tables = StepTables::new(slots, &cut.graph);
        let verdicts = cut.walk_segments_tabled(&segs, &slot_of, &tables).unwrap();
        assert_eq!(tables.panels_made(), 2 * slots, "two layers, two analyses");
        // One walk a list: the same margins, bit for bit.
        let bits = |v: &SpecVerdict<f32>| -> Vec<u32> {
            v.lower_bounds.iter().map(|l| l.to_bits()).collect()
        };
        for (got, (rows, analysis)) in verdicts.iter().zip(segs) {
            let want = whole
                .walk_segments(&[(rows, analysis)])
                .unwrap()
                .pop()
                .unwrap();
            assert_eq!(bits(got), bits(&want));
        }
    }
}

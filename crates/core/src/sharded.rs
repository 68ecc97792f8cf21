//! Pool-sharded verification: tensor-parallel **row sharding** and
//! FSDP-style **weight sharding** behind one engine surface.
//!
//! # Row sharding ([`ShardMode::Rows`])
//!
//! The fused cross-query path ([`Engine::verify_batch_fused`]) stacks every
//! admitted query's robustness-spec rows into one [`ExprBatch`] per layer
//! step. Every kernel in that walk — concretize, GEMM, GBC, ReLU
//! substitution, compaction — is *per-row*: rows never read or write each
//! other, relaxation tables depend only on the row's query segment, and
//! each element accumulates in ascending-`k` order regardless of which rows
//! share its launch (the backend bit-reproducibility contract). Splitting
//! the stacked row space into contiguous shards, walking each shard on its
//! own device, and gathering the concretized bounds back in ascending
//! global row order is therefore *pure scheduling*: the merged margins are
//! **bit-identical** to the single-device fused walk — the all-reduce of
//! the FSDP-verification decomposition (arXiv 2606.09377) degenerates to an
//! ordered gather because no partial sums ever cross a row boundary.
//!
//! Concrete bounds (the DeepPoly analysis per input box) are the
//! *activations* of that decomposition: computed once — unique boxes are
//! distributed across the pool — and broadcast to every shard as host-side
//! `segs`, exactly like replicated activations under tensor
//! parallelism. Analyses are deterministic per box, so which device
//! computed one never shows in the bits.
//!
//! # Weight sharding ([`ShardMode::Weights`])
//!
//! Row sharding replicates the network's weights on every device, so the
//! largest servable model is bounded by ONE device's memory. Weight
//! sharding inverts the split: the *parameters* are partitioned layer-wise
//! across the pool (each device permanently holds ~1/N of the weight
//! bytes, [`weight_shard_budget`] gives the exact plan) and the walk runs
//! on device 0, all-gathering each remote layer's exact bytes into a
//! capacity-aware gather cache just in time — with upcoming layers'
//! gathers prefetched so they overlap the current layer's step (see
//! [`crate::fsdp`]). Gathers reconstruct bit patterns, never values, so
//! margins stay **bit-identical** to a single-device run at any pool size.
//! Gathered traffic is metered under the `comms` kernel label on device 0.
//!
//! # Hybrid 2D sharding ([`ShardMode::Hybrid`])
//!
//! Weight sharding alone buys capacity but zero throughput: N devices hold
//! the model, one walks. Hybrid mode composes the two splits — the weight
//! partition is exactly the weight-mode plan (one owner per layer, one
//! copy of the model pool-wide), but **every** device runs an engine over
//! its own view of the shared [`crate::fsdp::ShardStore`], and each fused
//! batch's row space is split into contiguous per-device blocks exactly
//! like row mode. Each device walks its own rows through the full layer
//! stack, gathering remote layers onto *itself* (metered under `comms` on
//! that device) and resolving its own layers copy-free. Gathers move
//! bytes, not arithmetic, and row sharding is pure scheduling, so hybrid
//! margins stay **bit-identical** to the 1-device fused run at any N —
//! while the per-device FLOP share drops to ~1/N of the weight-only walk.
//!
//! # Distributed refinement
//!
//! Branch-and-bound refinement ([`ShardedEngine::verify_complete_batch`])
//! round-robins whole frontier *generations* across the pool's engines in
//! row mode: generation `g` dispatches through engine `g % n`, so
//! refinement work and its split counters spread over every device.
//! ε-monotone analysis reuse is proving-only and complete relative to the
//! exact analysis (a sub-box whose containing box proved also proves when
//! analyzed exactly), so per-engine caches never change a verdict or the
//! frontier's evolution — the split tree is the single-device one.

use std::sync::Arc;
use std::time::Instant;

use gpupoly_device::{Backend, Device};
use gpupoly_interval::{Fp, Itv};
use gpupoly_nn::Network;

use crate::bnb::bisect_widest;
use crate::config::SplitRule;
use crate::engine::{box_key, Engine, EngineOptions, EngineStats, Query};
use crate::error::VerifyError;
use crate::expr::ExprBatch;
use crate::verifier::{LinearSpec, RobustnessVerdict, SpecVerdict};
use crate::walk::{StopRule, Walker};
use crate::{CompleteVerdict, RefineBudget, VerifyConfig};

/// How a [`ShardedEngine`] splits work across its device pool.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardMode {
    /// Tensor-parallel row sharding: weights replicated on every device,
    /// the stacked spec-row space partitioned per layer step. Throughput
    /// scales with the pool; the largest servable model is bounded by one
    /// device's memory.
    Rows,
    /// FSDP-style weight sharding: each device permanently holds ~1/N of
    /// the weight bytes, layers are all-gathered onto device 0 just in
    /// time (cached capacity-aware, prefetched ahead). Serves models
    /// bigger than any single device.
    Weights,
    /// 2D row×weight sharding: the weight-mode layer partition (one model
    /// pool-wide) plus the row-mode walk split — every device walks its
    /// own contiguous row block through the layer stack, gathering remote
    /// layers onto itself. Serves models bigger than any single device
    /// *and* scales throughput with the pool.
    Hybrid,
}

/// The per-device memory plan of a weight-sharded deployment
/// ([`weight_shard_budget`]).
#[derive(Clone, Debug)]
pub struct WeightShardBudget {
    /// Persistent weight+bias bytes each pool device holds under the
    /// deterministic greedy layer partition, in pool order.
    pub per_device: Vec<usize>,
    /// Transient gather overhead on the executing device: two gathered
    /// layers (the one being walked and the prefetched next one) may
    /// coexist, so this is `2 ×` the largest single layer's bytes.
    pub double_buffer: usize,
}

impl WeightShardBudget {
    /// The bytes the most-loaded device must fit: its shard plus — on
    /// device 0, which is always the most general case an admission layer
    /// should plan for — the transient double buffer.
    pub fn worst_device_bytes(&self) -> usize {
        self.per_device.iter().copied().max().unwrap_or(0) + self.double_buffer
    }
}

/// Computes the deterministic weight-shard plan for `net` over a pool of
/// `devices` devices *without* touching any device: affine layers in
/// topological order, each assigned to the device with the least
/// accumulated bytes so far (ties to the lowest index) — exactly the
/// partition [`ShardedEngine::new_weight_sharded`] will materialize.
/// Admission layers use this to charge a weight-sharded model its
/// [`WeightShardBudget::worst_device_bytes`] instead of its full size.
pub fn weight_shard_budget<F: Fp>(net: &Network<F>, devices: usize) -> WeightShardBudget {
    let graph = net.graph();
    let (_, per_device) = crate::fsdp::shard_plan(&graph, devices);
    WeightShardBudget {
        per_device,
        double_buffer: 2 * crate::fsdp::max_layer_bytes(&graph),
    }
}

/// A verification engine sharded across a pool of devices, in either
/// [`ShardMode`].
///
/// In row mode, construction packs the network's weights resident on
/// **every** device (the replicated-parameters half of tensor parallelism —
/// each shard walks its rows through the full layer stack) and
/// [`verify_batch_sharded`] splits each batch's stacked spec rows
/// contiguously across the pool, merging per-row results in ascending
/// global row order. In weight mode, construction partitions the weights
/// across the pool and one engine on device 0 walks with just-in-time
/// layer gathers. Both keep margins bit-identical to the 1-device fused
/// run for every pool size.
///
/// [`verify_batch_sharded`]: ShardedEngine::verify_batch_sharded
pub struct ShardedEngine<'n, F: Fp, B: Backend> {
    engines: Vec<Engine<'n, F, B>>,
    mode: ShardMode,
    /// Every pool device, in order — in weight mode, `engines` has one
    /// entry but devices `1..` still hold weight shards to meter.
    devices: Vec<Device<B>>,
    /// Weight/hybrid modes: persistent weight bytes per device (empty in
    /// row mode — every engine reports its own replicated residency).
    shard_bytes: Vec<usize>,
}

/// One shard's slice of the global spec-row space: the walk output plus
/// enough bookkeeping to attribute stopped rows back to queries.
struct ShardOutcome<F> {
    /// Global row offset of this shard's first row.
    start: usize,
    /// Best interval per shard row, ascending global row order.
    best: Vec<Itv<F>>,
    /// Stopped-row count per *global* live-query index covered here.
    stopped: Vec<(usize, usize)>,
    /// Candidate evaluations this shard performed.
    candidates: usize,
}

/// One undecided query mid-refinement (the sharded mirror of the
/// single-engine bookkeeping in [`crate::bnb`]).
struct RefinePending<F> {
    /// Index into the caller's batch.
    qidx: usize,
    /// Claimed label.
    label: usize,
    /// The plain DeepPoly verdict over the full ball.
    base: RobustnessVerdict<F>,
    /// Bisections spent on this query so far.
    splits: u64,
    /// Sub-boxes of this query still on the frontier (undecided leaves).
    open: usize,
}

impl<'n, F: Fp, B: Backend> ShardedEngine<'n, F, B> {
    /// Builds a row-sharded pool: one resident [`Engine`] per pool device
    /// over the same network. All engines share one configuration; each
    /// owns its device's analysis cache and buffer pool.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] for an empty device list or a graph any
    /// single engine would reject.
    pub fn new(
        devices: Vec<Device<B>>,
        net: &'n Network<F>,
        cfg: VerifyConfig,
        options: EngineOptions,
    ) -> Result<Self, VerifyError> {
        if devices.is_empty() {
            return Err(VerifyError::BadQuery(
                "sharded engine needs at least one device".to_string(),
            ));
        }
        let engines = devices
            .iter()
            .cloned()
            .map(|d| Engine::with_options(d, net, cfg, options))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            engines,
            mode: ShardMode::Rows,
            devices,
            shard_bytes: Vec::new(),
        })
    }

    /// Builds a weight-sharded pool: the network's affine layers are
    /// partitioned across `devices` (greedy least-bytes, deterministic —
    /// see [`weight_shard_budget`] for the plan) and ONE engine on
    /// `devices[0]` walks with just-in-time, prefetch-overlapped layer
    /// gathers. Margins are bit-identical to a 1-device run; gathered
    /// bytes are metered under the `comms` label on device 0.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] for an empty device list or a rejected
    /// graph; [`VerifyError::Device`] when a shard does not fit its owner
    /// device.
    pub fn new_weight_sharded(
        devices: Vec<Device<B>>,
        net: &'n Network<F>,
        cfg: VerifyConfig,
        options: EngineOptions,
    ) -> Result<Self, VerifyError> {
        if devices.is_empty() {
            return Err(VerifyError::BadQuery(
                "weight-sharded engine needs at least one device".to_string(),
            ));
        }
        let lead = Engine::with_options_weight_sharded(&devices, net, cfg, options)?;
        let mut shard_bytes = lead.prepared().shard_resident_bytes().to_vec();
        shard_bytes.resize(devices.len(), 0);
        Ok(Self {
            engines: vec![lead],
            mode: ShardMode::Weights,
            devices,
            shard_bytes,
        })
    }

    /// Builds a hybrid 2D-sharded pool: the network's affine layers are
    /// partitioned across `devices` exactly like
    /// [`ShardedEngine::new_weight_sharded`] (one model pool-wide,
    /// [`weight_shard_budget`] gives the plan), but **every** device runs
    /// an engine over its own view of the shared store — each walks its
    /// contiguous row block of every fused batch, gathering remote layers
    /// onto itself (metered under `comms` per device, cached
    /// capacity-aware, prefetched ahead). Margins are bit-identical to a
    /// 1-device fused run at any pool size.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] for an empty device list or a rejected
    /// graph.
    pub fn new_hybrid(
        devices: Vec<Device<B>>,
        net: &'n Network<F>,
        cfg: VerifyConfig,
        options: EngineOptions,
    ) -> Result<Self, VerifyError> {
        if devices.is_empty() {
            return Err(VerifyError::BadQuery(
                "hybrid-sharded engine needs at least one device".to_string(),
            ));
        }
        let store = {
            let graph = net.graph();
            crate::fsdp::ShardStore::build(&devices, &graph)
        };
        let shard_bytes = store.shard_bytes().to_vec();
        let engines = (0..devices.len())
            .map(|i| {
                Engine::with_options_sharded_view(&devices, i, net, cfg, options, store.clone())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            engines,
            mode: ShardMode::Hybrid,
            devices,
            shard_bytes,
        })
    }

    /// Number of pool devices. In weight mode this exceeds the (single)
    /// engine count — devices `1..` hold weight shards only.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// How this pool splits its work.
    pub fn mode(&self) -> ShardMode {
        self.mode
    }

    /// The pool devices, in order.
    pub fn devices(&self) -> &[Device<B>] {
        &self.devices
    }

    /// Weight and hybrid modes: persistent weight bytes resident per
    /// device under the materialized shard plan. Empty in row mode
    /// (weights are replicated; read each engine's `resident_bytes`
    /// instead).
    pub fn shard_resident_bytes(&self) -> &[usize] {
        &self.shard_bytes
    }

    /// The per-device engines, in pool order (one engine total in weight
    /// mode).
    pub fn engines(&self) -> &[Engine<'n, F, B>] {
        &self.engines
    }

    /// Verifies a batch of robustness queries across the device pool —
    /// margins are **bit-identical** to [`Engine::verify_batch_fused`] on
    /// one device (and hence to the sequential per-query path), at any
    /// pool size, in both modes.
    ///
    /// Row mode partitions the stacked spec-row space contiguously across
    /// the pool: unique input boxes are analyzed once (distributed
    /// round-robin) and their bounds broadcast to every shard; each shard
    /// walks only its own row slice, one launch per layer step. Malformed
    /// queries get their [`VerifyError::BadQuery`] slot without touching a
    /// device; any device failure inside the sharded walk falls back to
    /// the per-query path on the first device (strictly more
    /// memory-frugal, same bits). Weight mode runs the one resident
    /// engine's fused path — layer gathers are transparent to it.
    pub fn verify_batch_sharded(
        &self,
        queries: &[Query<F>],
    ) -> Vec<Result<RobustnessVerdict<F>, VerifyError>> {
        let n = self.engines.len();
        if n == 1 {
            // One resident engine: the 1-device row pool and every
            // weight-sharded pool (gathers happen inside the walk).
            return self.engines[0].verify_batch_fused(queries);
        }
        let lead = &self.engines[0];

        // Validation gate, shared with every other entry point.
        let mut slots: Vec<Option<Result<RobustnessVerdict<F>, VerifyError>>> =
            queries.iter().map(|_| None).collect();
        let mut live: Vec<usize> = Vec::new();
        let mut boxes: Vec<Vec<Itv<F>>> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            match lead.robustness_box(&q.image, q.label, q.eps) {
                Ok(input) => {
                    live.push(i);
                    boxes.push(input);
                }
                Err(e) => slots[i] = Some(Err(e)),
            }
        }
        if live.is_empty() {
            return slots
                .into_iter()
                .map(|s| s.expect("all slots are validation errors"))
                .collect();
        }

        // Unique boxes in first-appearance order; `group_of[j]` maps the
        // j-th live query to its analysis group.
        let mut group_index: std::collections::HashMap<Arc<[u64]>, usize> =
            std::collections::HashMap::new();
        let mut groups: Vec<usize> = Vec::new(); // representative into `boxes`
        let mut group_of: Vec<usize> = Vec::with_capacity(live.len());
        for (j, b) in boxes.iter().enumerate() {
            let key = box_key(b);
            let next = groups.len();
            let g = *group_index.entry(key).or_insert_with(|| {
                groups.push(j);
                next
            });
            group_of.push(g);
        }

        // Phase 1 — analyses, computed once and broadcast. Group g runs on
        // engine g % n: deterministic placement, and the analysis itself is
        // deterministic per box, so placement never shows in the bits.
        let analyses = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (e, engine) in self.engines.iter().enumerate() {
                let mine: Vec<(usize, &[Itv<F>])> = groups
                    .iter()
                    .enumerate()
                    .filter(|(g, _)| g % n == e)
                    .map(|(g, &rep)| (g, boxes[rep].as_slice()))
                    .collect();
                handles.push(scope.spawn(move || {
                    mine.into_iter()
                        .map(|(g, input)| (g, engine.analyze(input)))
                        .collect::<Vec<_>>()
                }));
            }
            let mut analyses: Vec<Option<Arc<crate::Analysis<F>>>> = vec![None; groups.len()];
            let mut failed = false;
            for handle in handles {
                for (g, result) in handle.join().expect("analysis shard panicked") {
                    match result {
                        Ok(a) => analyses[g] = Some(a),
                        Err(_) => failed = true,
                    }
                }
            }
            (!failed).then(|| {
                analyses
                    .into_iter()
                    .map(|a| a.expect("every group assigned to exactly one engine"))
                    .collect::<Vec<_>>()
            })
        });
        let Some(analyses) = analyses else {
            return self.finish_per_query(queries, slots, &live);
        };

        // Phase 2 — the sharded spec walk. Global row space: live query j
        // owns rows [j·rpq, (j+1)·rpq) where rpq = out_len − 1 robustness
        // rows per query. Contiguous balanced partition into one shard per
        // device.
        let out_node = lead.graph().output();
        let out_shape = lead.graph().nodes[out_node].shape;
        let out_len = out_shape.len();
        let rpq = out_len - 1;
        let total_rows = live.len() * rpq;
        let labels: Vec<usize> = live.iter().map(|&i| queries[i].label).collect();
        let rule = if lead.config().early_termination {
            StopRule::ProvenPositive
        } else {
            StopRule::None
        };

        let shard_results: Vec<Result<ShardOutcome<F>, VerifyError>> =
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(n);
                for (s, engine) in self.engines.iter().enumerate() {
                    let start = total_rows * s / n;
                    let end = total_rows * (s + 1) / n;
                    let labels = &labels;
                    let analyses = &analyses;
                    let group_of = &group_of;
                    handles.push(scope.spawn(move || {
                        if start == end {
                            return Ok(ShardOutcome {
                                start,
                                best: Vec::new(),
                                stopped: Vec::new(),
                                candidates: 0,
                            });
                        }
                        // Per-query sub-batches covering this shard's row
                        // slice, stacked so each query keeps its own
                        // segment (and hence its own relaxation tables).
                        let q_first = start / rpq;
                        let q_last = (end - 1) / rpq;
                        let mut sub_batches = Vec::with_capacity(q_last - q_first + 1);
                        let mut segs = Vec::with_capacity(q_last - q_first + 1);
                        let mut row_spans: Vec<(usize, usize)> = Vec::new();
                        for q in q_first..=q_last {
                            let lo = start.max(q * rpq) - q * rpq;
                            let hi = end.min((q + 1) * rpq) - q * rpq;
                            let spec = LinearSpec::robustness(labels[q], out_len);
                            let rows = &spec.rows()[lo..hi];
                            let mut batch = ExprBatch::zeroed(
                                engine.device(),
                                out_node,
                                out_shape,
                                (out_shape.h, out_shape.w),
                                vec![(0, 0); rows.len()],
                            )?;
                            for (r, row) in rows.iter().enumerate() {
                                for &(o, c) in &row.coeffs {
                                    batch.set_coeff(r, o, Itv::point(c));
                                }
                                batch.add_cst(r, Itv::point(row.cst));
                            }
                            sub_batches.push(batch);
                            segs.push(&*analyses[group_of[q]]);
                            row_spans.push((q, hi - lo));
                        }
                        let stacked = ExprBatch::stack(engine.device(), sub_batches)?;
                        let walker = Walker {
                            device: engine.device(),
                            graph: engine.graph(),
                            prepared: engine.prepared(),
                            segs,
                            compact_dead_cols: engine.config().stable_zero_compaction,
                        };
                        let out = walker.run(stacked, rule)?;

                        // Attribute stopped rows back to their query by the
                        // shard-local row offsets.
                        let mut offsets = Vec::with_capacity(row_spans.len());
                        let mut at = 0usize;
                        for &(_, rows) in &row_spans {
                            offsets.push(at);
                            at += rows;
                        }
                        let mut stopped = vec![0usize; row_spans.len()];
                        for &r in &out.stopped_rows {
                            let k = offsets
                                .partition_point(|&o| o <= r as usize)
                                .saturating_sub(1);
                            stopped[k] += 1;
                        }
                        Ok(ShardOutcome {
                            start,
                            best: out.best,
                            stopped: row_spans.iter().map(|&(q, _)| q).zip(stopped).collect(),
                            candidates: out.candidates,
                        })
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("walk shard panicked"))
                    .collect()
            });

        // The all-reduce: gather per-row bounds in ascending global row
        // order (shards are contiguous and sorted by `start`, so a plain
        // ordered splice reproduces the single-device row order exactly).
        let mut best: Vec<Option<Itv<F>>> = vec![None; total_rows];
        let mut stopped_per_query = vec![0usize; live.len()];
        let mut candidates = 0usize;
        for result in shard_results {
            match result {
                Ok(shard) => {
                    for (k, b) in shard.best.into_iter().enumerate() {
                        best[shard.start + k] = Some(b);
                    }
                    for (q, count) in shard.stopped {
                        stopped_per_query[q] += count;
                    }
                    candidates = candidates.max(shard.candidates);
                }
                // A device failure on any shard: the per-query path is
                // strictly more memory-frugal and bit-identical — retry
                // every live query through it rather than surfacing a
                // sharding artifact.
                Err(_) => return self.finish_per_query(queries, slots, &live),
            }
        }

        for (j, &i) in live.iter().enumerate() {
            let lower_bounds: Vec<F> = best[j * rpq..(j + 1) * rpq]
                .iter()
                .map(|b| b.expect("contiguous shards cover every row").lo)
                .collect();
            let proven: Vec<bool> = lower_bounds.iter().map(|&l| l > F::ZERO).collect();
            let mut stats = analyses[group_of[j]].stats.clone();
            stats.absorb_walk(stopped_per_query[j], candidates);
            let verdict = SpecVerdict {
                proven,
                lower_bounds,
                stats,
            };
            slots[i] = Some(Ok(Engine::<F, B>::robustness_verdict(
                labels[j], out_len, verdict,
            )));
        }
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    }

    /// Completes a batch through the first device's per-query path:
    /// verifies the still-pending indices and fills their slots, leaving
    /// already-resolved slots untouched.
    fn finish_per_query(
        &self,
        queries: &[Query<F>],
        mut slots: Vec<Option<Result<RobustnessVerdict<F>, VerifyError>>>,
        pending: &[usize],
    ) -> Vec<Result<RobustnessVerdict<F>, VerifyError>> {
        let subset: Vec<Query<F>> = pending.iter().map(|&i| queries[i].clone()).collect();
        for (&i, r) in pending.iter().zip(self.engines[0].verify_batch(&subset)) {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    }

    /// Budgeted branch-and-bound refinement with the frontier
    /// **distributed across the pool**: frontier generation `g` (all
    /// sibling sub-boxes pending at one depth, across every query of the
    /// batch) dispatches through engine `g % n`'s fused box path, so
    /// refinement work — and its split counters — spreads over every
    /// device instead of saturating device 0.
    ///
    /// Verdicts and split counts are the single-device ones by
    /// construction: the base pass and every generation's box analyses
    /// are deterministic, and ε-monotone cache reuse is proving-only *and*
    /// complete relative to the exact analysis, so which engine's cache a
    /// generation hits never changes what proves. A 1-engine pool (one
    /// device, or any weight-sharded pool) delegates to the plain
    /// single-engine loop.
    pub fn verify_complete_batch(
        &self,
        queries: &[Query<F>],
        budget: &RefineBudget,
    ) -> Vec<Result<CompleteVerdict<F>, VerifyError>> {
        let n = self.engines.len();
        if n == 1 {
            return self.engines[0].verify_complete_batch(queries, budget);
        }
        let started = Instant::now();
        let deadline = budget.deadline.map(|d| started + d);
        if budget.split_rule == SplitRule::UnstableRelu {
            return queries
                .iter()
                .map(|_| {
                    Err(VerifyError::BadQuery(
                        "split_rule `UnstableRelu` is a reserved branching hook; \
                         use `InputBisection`"
                            .into(),
                    ))
                })
                .collect();
        }
        let lead = &self.engines[0];

        // Base pass: the row-sharded fused walk over every full ball —
        // bit-identical to the single-engine base pass, already spread
        // over the pool. A decided base verdict is final, zero splits.
        let base = self.verify_batch_sharded(queries);
        let mut out: Vec<Option<Result<CompleteVerdict<F>, VerifyError>>> =
            queries.iter().map(|_| None).collect();
        let mut pend: Vec<RefinePending<F>> = Vec::new();
        // The frontier: `(pending index, sub-box)` pairs of one generation.
        let mut frontier: Vec<(usize, Vec<Itv<F>>)> = Vec::new();
        for (i, result) in base.into_iter().enumerate() {
            match result {
                Err(e) => out[i] = Some(Err(e)),
                Ok(v) if v.verified => {
                    out[i] = Some(Ok(CompleteVerdict::Proven {
                        base: Some(v),
                        splits: 0,
                    }));
                }
                Ok(v) => {
                    let q = &queries[i];
                    match lead.robustness_box(&q.image, q.label, q.eps) {
                        Err(e) => out[i] = Some(Err(e)),
                        Ok(bx) => {
                            // Cheap refutation probe before any splitting:
                            // is the ball's center already a verified
                            // counterexample?
                            if let Some((point, adversary)) = lead.concrete_cex(q.label, &bx) {
                                lead.note_cex_found();
                                out[i] = Some(Ok(CompleteVerdict::Falsified {
                                    counterexample: point,
                                    adversary,
                                    splits: 0,
                                }));
                            } else {
                                let p = pend.len();
                                pend.push(RefinePending {
                                    qidx: i,
                                    label: q.label,
                                    base: v,
                                    splits: 0,
                                    open: 1,
                                });
                                frontier.push((p, bx));
                            }
                        }
                    }
                }
            }
        }

        // Frontier loop: one fused dispatch per generation, round-robined
        // over the pool's engines — generation g runs (and is metered) on
        // engine g % n.
        let mut generation = 0usize;
        while !frontier.is_empty() {
            let eng = &self.engines[generation % n];
            generation += 1;
            eng.split_counters().note_frontier(frontier.len());
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break; // the post-loop sweep reports the typed Unknown
            }
            let labels: Vec<usize> = frontier.iter().map(|&(p, _)| pend[p].label).collect();
            let boxes: Vec<Vec<Itv<F>>> = frontier.iter().map(|(_, b)| b.clone()).collect();
            let results = eng.verify_boxes_fused(&labels, &boxes, true);

            let mut next: Vec<(usize, Vec<Itv<F>>)> = Vec::new();
            for ((p, bx), result) in frontier.into_iter().zip(results) {
                let pending = &mut pend[p];
                if out[pending.qidx].is_some() {
                    continue; // query decided earlier this generation
                }
                match result {
                    Err(e) => out[pending.qidx] = Some(Err(e)),
                    Ok(v) if v.verified => {
                        pending.open -= 1;
                        if pending.open == 0 {
                            eng.split_counters()
                                .proven_by_split
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            out[pending.qidx] = Some(Ok(CompleteVerdict::Proven {
                                base: None,
                                splits: pending.splits,
                            }));
                        }
                    }
                    Ok(_) => {
                        // Undecided leaf: refute concretely, split, or run
                        // out of budget — in that order.
                        if let Some((point, adversary)) = eng.concrete_cex(pending.label, &bx) {
                            eng.note_cex_found();
                            out[pending.qidx] = Some(Ok(CompleteVerdict::Falsified {
                                counterexample: point,
                                adversary,
                                splits: pending.splits,
                            }));
                            continue;
                        }
                        let in_budget = pending.splits < u64::from(budget.max_splits)
                            && deadline.is_none_or(|d| Instant::now() < d);
                        let children = if in_budget { bisect_widest(&bx) } else { None };
                        match children {
                            Some((a, b)) => {
                                pending.splits += 1;
                                pending.open += 1; // one leaf became two
                                eng.split_counters()
                                    .splits
                                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                next.push((p, a));
                                next.push((p, b));
                            }
                            None => {
                                // Splits/deadline exhausted, or the box hit
                                // floating-point resolution: typed Unknown.
                                out[pending.qidx] = Some(Ok(CompleteVerdict::Unknown {
                                    base: pending.base.clone(),
                                    splits_exhausted: pending.splits,
                                    frontier_remaining: pending.open,
                                }));
                            }
                        }
                    }
                }
            }
            // Dead queries stop costing: drop every queued sibling of a
            // query that is already decided.
            next.retain(|&(p, _)| out[pend[p].qidx].is_none());
            frontier = next;
        }

        // Deadline break (or a discarded frontier) leaves still-open
        // queries undecided: report the typed budget exhaustion.
        for p in &pend {
            if out[p.qidx].is_none() {
                out[p.qidx] = Some(Ok(CompleteVerdict::Unknown {
                    base: p.base.clone(),
                    splits_exhausted: p.splits,
                    frontier_remaining: p.open,
                }));
            }
        }
        out.into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(VerifyError::Internal(
                        "branch-and-bound left a query undecided and unreported".into(),
                    ))
                })
            })
            .collect()
    }

    /// Aggregated counters across **all** pool devices: launches, FLOPs,
    /// bytes moved, cache traffic and split counters are summed per device
    /// row, `resident_bytes` totals the pool's persistent weights
    /// (replicated in row mode, the shard sum — i.e. one model — in weight
    /// mode), `peak_resident_bytes` sums each device's own high-water, and
    /// schedule-shape fields (`relu_layers`, the ms-per-cost EWMA) come
    /// from the first engine. Use [`ShardedEngine::per_device_stats`] for
    /// the breakdown.
    pub fn stats(&self) -> EngineStats {
        let per = self.per_device_stats();
        let mut total = per[0];
        for s in &per[1..] {
            total.cache_hits += s.cache_hits;
            total.cache_misses += s.cache_misses;
            total.monotone_hits += s.monotone_hits;
            total.resident_bytes += s.resident_bytes;
            total.peak_resident_bytes += s.peak_resident_bytes;
            total.fused_batches += s.fused_batches;
            total.launches += s.launches;
            total.flops += s.flops;
            total.bytes_moved += s.bytes_moved;
            total.fast_pass_resolved += s.fast_pass_resolved;
            total.escalated += s.escalated;
            total.splits += s.splits;
            total.frontier_peak = total.frontier_peak.max(s.frontier_peak);
            total.proven_by_split += s.proven_by_split;
            total.cex_found += s.cex_found;
            total.gather_hits += s.gather_hits;
            total.gather_misses += s.gather_misses;
            total.gather_evictions += s.gather_evictions;
        }
        total
    }

    /// Per-device counters, in pool order. Row and hybrid modes: each
    /// engine's stats (a hybrid engine's `resident_bytes` is its shard,
    /// so the pool aggregate stays one model). Weight mode: device 0 is
    /// the lead engine's full stats; devices `1..` are shard holders —
    /// their rows carry the shard's resident bytes, the device's
    /// peak-resident high-water and its raw device counters, with
    /// engine-level fields zero.
    pub fn per_device_stats(&self) -> Vec<EngineStats> {
        match self.mode {
            ShardMode::Rows | ShardMode::Hybrid => self.engines.iter().map(Engine::stats).collect(),
            ShardMode::Weights => {
                let mut rows = Vec::with_capacity(self.devices.len());
                rows.push(self.engines[0].stats());
                for (i, dev) in self.devices.iter().enumerate().skip(1) {
                    let ds = dev.stats();
                    rows.push(EngineStats {
                        resident_bytes: self.shard_bytes[i],
                        peak_resident_bytes: ds.peak_resident_bytes(),
                        launches: ds.launches(),
                        flops: ds.flops(),
                        bytes_moved: ds.bytes_moved(),
                        ..EngineStats::default()
                    });
                }
                rows
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpupoly_device::{CpuSimBackend, DeviceConfig};
    use gpupoly_nn::builder::NetworkBuilder;

    fn mix(i: usize, s: u64) -> f32 {
        ((((i as u64 + 11) * (s + 37)) * 2654435761 % 1999) as f32 / 999.0 - 1.0) * 0.4
    }

    /// Deterministic dense ReLU net with three affine layers — enough that
    /// a 2- or 4-device shard plan leaves remote layers to gather.
    fn deep_net() -> Network<f32> {
        NetworkBuilder::new_flat(8)
            .dense_flat(
                16,
                (0..16 * 8).map(|i| mix(i, 3)).collect(),
                (0..16).map(|i| mix(i, 5) * 0.3).collect(),
            )
            .relu()
            .dense_flat(
                12,
                (0..12 * 16).map(|i| mix(i, 7)).collect(),
                (0..12).map(|i| mix(i, 9) * 0.3).collect(),
            )
            .relu()
            .dense_flat(5, (0..5 * 12).map(|i| mix(i, 11)).collect(), vec![0.0; 5])
            .build()
            .expect("valid net")
    }

    fn pool(n: usize) -> Vec<Device<CpuSimBackend>> {
        (0..n)
            .map(|i| Device::new(DeviceConfig::new().workers(1).name(format!("wd{i}"))))
            .collect()
    }

    fn test_queries(net: &Network<f32>) -> Vec<Query<f32>> {
        (0..3u64)
            .map(|q| {
                let image: Vec<f32> = (0..8).map(|i| 0.3 + 0.05 * mix(i, 13 + q)).collect();
                let label = net.classify(&image);
                Query::new(image, label, 0.01)
            })
            .collect()
    }

    #[test]
    fn weight_sharded_margins_bit_identical_and_comms_metered() {
        let net = deep_net();
        let qs = test_queries(&net);
        let single = Engine::new(
            Device::new(DeviceConfig::new().workers(1)),
            &net,
            VerifyConfig::default(),
        )
        .expect("single engine");
        let want = single.verify_batch_fused(&qs);

        for n in [1usize, 2, 4] {
            let devs = pool(n);
            let sharded = ShardedEngine::new_weight_sharded(
                devs.clone(),
                &net,
                VerifyConfig::default(),
                EngineOptions::default(),
            )
            .expect("weight-sharded engine");
            assert_eq!(sharded.mode(), ShardMode::Weights);
            assert_eq!(sharded.device_count(), n);
            assert_eq!(sharded.engines().len(), 1, "one resident engine");

            let got = sharded.verify_batch_sharded(&qs);
            for (g, w) in got.iter().zip(&want) {
                let g = g.as_ref().expect("sharded verdict");
                let w = w.as_ref().expect("fused verdict");
                assert_eq!(g.verified, w.verified);
                for (mg, mw) in g.margins.iter().zip(&w.margins) {
                    assert_eq!(
                        mg.lower.to_bits(),
                        mw.lower.to_bits(),
                        "margins must be bit-identical at {n} devices"
                    );
                }
            }

            let bytes = sharded.shard_resident_bytes();
            assert_eq!(bytes.len(), n);
            if n > 1 {
                // Remote layers exist, so gathers onto device 0 were
                // metered under the comms label…
                let comms = devs[0].stats().kernel_work("comms");
                assert!(comms.bytes_moved > 0, "gathered bytes must be metered");
                assert!(comms.launches > 0);
                // …and every shard holder has a persistent, gauged slice.
                // (The 3-affine-layer net fills at most 3 devices — a pool
                // larger than the layer count leaves the tail empty.)
                for (i, d) in devs.iter().enumerate().skip(1) {
                    assert_eq!(d.stats().resident_bytes() as usize, bytes[i]);
                    assert!(d.stats().peak_resident_bytes() as usize >= bytes[i]);
                }
                assert_eq!(
                    bytes.iter().filter(|&&b| b > 0).count(),
                    n.min(3),
                    "one affine layer per device until layers run out"
                );
                // The dry-run plan predicts exactly the materialized split.
                let budget = weight_shard_budget(&net, n);
                assert_eq!(budget.per_device, bytes);
                assert!(budget.double_buffer > 0);
                assert!(budget.worst_device_bytes() > *bytes.iter().max().unwrap());

                // Per-device stats: shard holders report their slice.
                let per = sharded.per_device_stats();
                assert_eq!(per.len(), n);
                for (i, row) in per.iter().enumerate().skip(1) {
                    assert_eq!(row.resident_bytes, bytes[i]);
                    assert!(row.peak_resident_bytes as usize >= bytes[i]);
                }
                // The aggregate residency is one model, not n copies.
                let full: usize = bytes.iter().sum();
                assert_eq!(sharded.stats().resident_bytes, full);
            }
        }
    }

    #[test]
    fn hybrid_margins_bit_identical_and_every_device_walks() {
        let net = deep_net();
        let qs = test_queries(&net);
        // Full-depth walks on both sides (same config ⇒ same bits), so
        // every device's row block provably reaches every remote layer.
        let cfg = VerifyConfig {
            early_termination: false,
            ..VerifyConfig::default()
        };
        let single = Engine::new(Device::new(DeviceConfig::new().workers(1)), &net, cfg)
            .expect("single engine");
        let want = single.verify_batch_fused(&qs);

        for n in [1usize, 2, 4] {
            let devs = pool(n);
            let hybrid =
                ShardedEngine::new_hybrid(devs.clone(), &net, cfg, EngineOptions::default())
                    .expect("hybrid engine");
            assert_eq!(hybrid.mode(), ShardMode::Hybrid);
            assert_eq!(hybrid.device_count(), n);
            assert_eq!(hybrid.engines().len(), n, "one walking engine per device");

            let got = hybrid.verify_batch_sharded(&qs);
            for (g, w) in got.iter().zip(&want) {
                let g = g.as_ref().expect("hybrid verdict");
                let w = w.as_ref().expect("fused verdict");
                assert_eq!(g.verified, w.verified);
                for (mg, mw) in g.margins.iter().zip(&w.margins) {
                    assert_eq!(
                        mg.lower.to_bits(),
                        mw.lower.to_bits(),
                        "hybrid margins must be bit-identical at {n} devices"
                    );
                }
            }

            let bytes = hybrid.shard_resident_bytes();
            assert_eq!(bytes.len(), n);
            // The weight partition is the weight-mode plan: one model
            // pool-wide, the dry-run budget predicts it exactly.
            let budget = weight_shard_budget(&net, n);
            assert_eq!(budget.per_device, bytes);
            let full: usize = bytes.iter().sum();
            assert_eq!(hybrid.stats().resident_bytes, full, "one model pool-wide");

            if n > 1 {
                // Every device did arithmetic (walked its own rows)…
                for d in &devs {
                    assert!(d.stats().flops() > 0, "every hybrid device must walk");
                }
                // …and every device with remote layers gathered onto
                // itself (the 3-affine-layer net leaves every device at
                // n ∈ {2,4} with at least one remote layer).
                for d in &devs {
                    assert!(
                        d.stats().kernel_work("comms").bytes_moved > 0,
                        "hybrid gathers land on the walking device itself"
                    );
                }
                // The gather counters roll up pool-wide.
                let total = hybrid.stats();
                assert!(total.gather_misses > 0);
                assert_eq!(
                    total.gather_misses,
                    devs.iter()
                        .map(|d| d.stats().kernel_work("comms").launches)
                        .sum::<u64>()
                );
                // Per-device rows mirror each engine, shard residency each.
                let per = hybrid.per_device_stats();
                assert_eq!(per.len(), n);
                for (i, row) in per.iter().enumerate() {
                    assert_eq!(row.resident_bytes, bytes[i]);
                }
            }
        }
    }

    /// The bnb incompleteness-gap net (see `crate::bnb::tests::hard_net`):
    /// plain DeepPoly is Unknown at ε = 0.35 but a couple of bisections
    /// prove every sub-box.
    fn hard_net() -> Network<f32> {
        NetworkBuilder::new_flat(2)
            .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
            .relu()
            .dense(&[[0.0_f32, 0.0], [-1.0, 1.0]], &[0.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn distributed_refinement_matches_single_engine_and_meters_per_device() {
        let net = hard_net();
        let image = vec![0.6_f32, 0.4];
        let truth = net.classify(&image);
        let qs = vec![
            // Unknown base → proven by splitting.
            Query::new(image.clone(), 1, 0.35),
            // Wrong label → falsified by the center probe.
            Query::new(image, 1 - truth, 0.05),
        ];
        let budget = RefineBudget::default();

        let single = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
        let want = single.verify_complete_batch(&qs, &budget);

        let sharded = ShardedEngine::new(
            pool(2),
            &net,
            VerifyConfig::default(),
            EngineOptions::default(),
        )
        .unwrap();
        let got = sharded.verify_complete_batch(&qs, &budget);

        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            let g = g.as_ref().expect("sharded verdict");
            let w = w.as_ref().expect("single verdict");
            match (g, w) {
                (
                    CompleteVerdict::Proven { splits: a, .. },
                    CompleteVerdict::Proven { splits: b, .. },
                ) => assert_eq!(a, b, "split counts must match the single-device tree"),
                (
                    CompleteVerdict::Falsified {
                        counterexample: ca,
                        adversary: aa,
                        ..
                    },
                    CompleteVerdict::Falsified {
                        counterexample: cw,
                        adversary: aw,
                        ..
                    },
                ) => {
                    assert_eq!(aa, aw);
                    assert_eq!(ca, cw);
                }
                other => panic!("verdict kind drifted across pool sizes: {other:?}"),
            }
        }

        // The frontier was round-robined: total splits match the
        // single-device count, and the second engine saw at least one
        // generation (generation 1 dispatches on engine 1 % 2).
        let per = sharded.per_device_stats();
        let total_splits: u64 = per.iter().map(|s| s.splits).sum();
        assert_eq!(total_splits, single.stats().splits);
        assert!(total_splits > 0, "the hard query must have split");
        assert!(
            per[1].frontier_peak >= 1,
            "generation 1 must have dispatched on engine 1"
        );
    }
}

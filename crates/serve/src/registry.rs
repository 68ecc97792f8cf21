//! The model registry: name → resident engine(s), loaded lazily onto a
//! device pool, evicted LRU under a per-device memory budget.
//!
//! A [`DevicePool`] backs every resident model. Placement is sticky and
//! least-loaded: a cold model lands on the pool's least-loaded device and
//! stays there; a **hot** model whose admission queues saturate is
//! *replicated* onto the least-loaded device not yet holding it, and
//! admission then routes each query to the least-loaded replica. Under a
//! pool [`Plan`] every model instead gets one worker spanning the whole pool
//! ([`gpupoly_core::Engine::on_pool`]: walks dealt over the pool's stream
//! slots, weights sharded across devices, or both), bit-identical to the
//! single-device walk.
//!
//! Each device's `memory_in_use()` is the source of truth its budget is
//! enforced against. Loading a model that would exceed the target device's
//! budget reclaims memory in cost order: first the buffer pool's shelved
//! (idle, recyclable) bytes, then whole **unpinned** models on that device,
//! least-recently-used first. A model is pinned while it has any
//! admitted-but-unanswered query (one refcount covering queue + in-flight +
//! maintenance windows), so eviction can never race a worker that still
//! owes replies. When nothing reclaimable remains the submission is
//! bounced with a structured overload — the daemon never wedges itself by
//! thrashing models in and out under pressure.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gpupoly_core::{Plan, RefineBudget, VerifyConfig};
use gpupoly_device::{Backend, Device};
use gpupoly_nn::{store, Network};
use gpupoly_shard::DevicePool;

use crate::batcher::{spawn_worker, BatchPolicy, WorkItem, WorkKind, WorkReply};
use crate::protocol::{ModelInfo, ModelStatsWire};
use crate::stats::{cost_admission_ok, ModelStats};

/// Registry construction knobs.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Directory of `<name>.json` model files.
    pub model_dir: PathBuf,
    /// Admission batching policy applied to every model worker.
    pub policy: BatchPolicy,
    /// Admission-queue capacity per model; a full queue bounces requests
    /// with `overloaded` instead of queueing unboundedly.
    pub queue_cap: usize,
    /// Cost-aware admission cap: the most *estimated* wall time of
    /// admitted-but-unanswered work a model may hold (each query weighed by
    /// its `gpupoly_core::query_cost_hint` times the engine's measured
    /// ms-per-cost EWMA). Queries beyond it bounce with the same structured
    /// `overloaded` as a full queue — the count-based `queue_cap` stays as
    /// the backstop (and governs alone while the EWMA is cold or this is
    /// `None`). A query is never bounced into an empty backlog.
    pub queue_cost_cap: Option<Duration>,
    /// How long a requester waits for a verdict once admitted. Stamped
    /// into every queued item as its expiry deadline: items still queued
    /// past it are dropped by the worker with a typed `Expired` reply
    /// instead of verified — nobody is listening for that verdict anymore.
    pub request_timeout: Duration,
    /// Device-memory budget in bytes for resident models (`None` =
    /// whatever the device allows).
    pub memory_budget: Option<usize>,
    /// Verifier configuration for every engine.
    pub verify: VerifyConfig,
    /// Serve every model through a precision-tiered engine: an `f32` fast
    /// pass with sound `f64` escalation for Unknown or narrow-margin
    /// verdicts. Costs roughly 3× the resident weight bytes per model
    /// (both precisions stay resident); escalated verdicts match an
    /// all-`f64` engine exactly. Mutually exclusive with a pool `plan`
    /// (the tiered engine is single-device).
    pub precision_tier: bool,
    /// How every model is placed over the pool. Under the default plan,
    /// devices hold disjoint models with hot-model replication. With
    /// [`Plan::split_rows`] every model is served by one tensor-parallel
    /// worker whose walks — of every layer's refinement rows and of the
    /// fused batch's spec rows — are dealt over the stream slots of *all*
    /// pool devices. With [`Plan::shard_weights`] the model's
    /// layers are partitioned FSDP-style across *all* pool devices (each
    /// holds ~1/N of the weight bytes) and all-gathered onto the walking
    /// device just in time; admission then accounts per-device *shard*
    /// bytes, so a model bigger than any one device's budget still loads
    /// across the pool. Both together are **hybrid 2D sharding**: the same
    /// weight partition, every device walking its share of the walks and
    /// gathering remote layers onto itself. Margins are bit-identical to a
    /// single-device run under every plan.
    pub plan: Plan,
}

impl RegistryConfig {
    /// Defaults for a model directory.
    pub fn new(model_dir: impl Into<PathBuf>) -> Self {
        Self {
            model_dir: model_dir.into(),
            policy: BatchPolicy::default(),
            queue_cap: 128,
            queue_cost_cap: Some(Duration::from_secs(30)),
            request_timeout: Duration::from_secs(120),
            memory_budget: None,
            verify: VerifyConfig::default(),
            precision_tier: false,
            plan: Plan::default(),
        }
    }
}

/// Why a submission was refused before reaching a worker.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// No such model file in the model directory.
    UnknownModel(String),
    /// The model file exists but could not be loaded or prepared.
    LoadFailed(String),
    /// Engine construction hit the device's memory capacity: the model's
    /// resident weights do not fit on the device(s) it was placed on.
    /// (Weight-sharded pools spread the footprint, so a model that earns
    /// this on one device can still load across several.)
    DeviceOom(String),
    /// Queue full, memory budget exhausted, or the registry is shutting
    /// down; the client should retry later (against this or another
    /// replica).
    Overloaded(String),
}

/// What happened to a query inside `enqueue_locked`.
enum EnqueueOutcome {
    /// Admitted; the worker will answer on this receiver.
    Enqueued(Receiver<WorkReply>),
    /// Every live replica's queue is full. The image is handed back so the
    /// caller can retry after replicating the model onto another device.
    Saturated(Vec<f32>),
}

/// One worker serving a model: its admission queue, thread and the device
/// footprint it occupies.
struct Replica {
    queue: std::sync::mpsc::SyncSender<WorkItem>,
    join: Option<JoinHandle<()>>,
    /// Every pool device this worker holds weights on (all of them for a
    /// tensor-parallel worker, one otherwise). `devices[0]` is the *home*
    /// device whose load gauge this replica's admissions charge.
    devices: Vec<usize>,
}

impl Replica {
    fn home(&self) -> usize {
        self.devices[0]
    }

    /// Closes the admission queue and waits for the worker to drain and
    /// drop its engine.
    fn shut_down(mut self) {
        drop(self.queue);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

struct ModelEntry {
    /// The workers serving this model, in spawn order. Always non-empty
    /// while the entry is in the map.
    replicas: Vec<Replica>,
    /// Shared across replicas: admission gauges, the eviction pin and the
    /// wire counters are per *model*, not per replica.
    stats: Arc<ModelStats>,
}

impl ModelEntry {
    /// Closes every admission queue first (so replicas drain in parallel),
    /// then joins all workers.
    fn shut_down(self) {
        let joins: Vec<JoinHandle<()>> = self
            .replicas
            .into_iter()
            .filter_map(|mut r| {
                drop(r.queue);
                r.join.take()
            })
            .collect();
        for join in joins {
            let _ = join.join();
        }
    }
}

/// The registry of resident models. See the module docs.
pub struct Registry<B: Backend> {
    pool: Arc<DevicePool<B>>,
    cfg: RegistryConfig,
    epoch: Instant,
    entries: Mutex<HashMap<String, ModelEntry>>,
    /// Per-model gates serializing concurrent cold loads and replications:
    /// the first requester loads, the rest block on the gate and then
    /// re-check the entries map. Never held together with a long-running
    /// operation's data locks — see [`Registry::submit`].
    loading: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// `(input_len, outputs)` per model name, filled on first listing/load.
    meta: Mutex<HashMap<String, (usize, usize)>>,
    closed: AtomicBool,
}

impl<B: Backend> Registry<B> {
    /// Creates a single-device registry serving models from
    /// `cfg.model_dir` on `device` (a one-device pool).
    pub fn new(device: Device<B>, cfg: RegistryConfig) -> Self {
        Self::with_pool(Arc::new(DevicePool::from_devices(vec![device])), cfg)
    }

    /// Creates a registry serving models from `cfg.model_dir` across a
    /// device pool.
    pub fn with_pool(pool: Arc<DevicePool<B>>, cfg: RegistryConfig) -> Self {
        Self {
            pool,
            cfg,
            epoch: Instant::now(),
            entries: Mutex::new(HashMap::new()),
            loading: Mutex::new(HashMap::new()),
            meta: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
        }
    }

    /// The pool's first device (the only one for a single-device registry).
    pub fn device(&self) -> &Device<B> {
        self.pool.device(0)
    }

    /// The device pool all resident engines run on.
    pub fn pool(&self) -> &Arc<DevicePool<B>> {
        &self.pool
    }

    /// The active configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.cfg
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Whether `model` names a loadable file in the model directory — the
    /// single resolution rule shared by `submit`'s cold-path fast check
    /// and `load_model`'s authoritative check under the loading gate.
    fn model_file_exists(&self, model: &str) -> bool {
        store::valid_name(model)
            && store::model_path(&self.cfg.model_dir, model)
                .map(|p| p.is_file())
                .unwrap_or(false)
    }

    fn unknown_model_error(&self, model: &str) -> String {
        format!("no model `{model}` in {}", self.cfg.model_dir.display())
    }

    /// Submits one verification query for `model`, lazily making the model
    /// resident. Returns the receiver the worker will answer on.
    ///
    /// Loading happens *outside* the entries lock, behind a per-model gate:
    /// the first requester of a cold model loads it, concurrent requesters
    /// for the same model wait on the gate, and traffic for models that are
    /// already resident is never blocked behind someone else's slow load.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the model is unknown, cannot be loaded, or the
    /// daemon is saturated — all structured, none blocking.
    pub fn submit(
        &self,
        model: &str,
        image: Vec<f32>,
        label: usize,
        eps: f32,
    ) -> Result<Receiver<WorkReply>, SubmitError> {
        self.submit_kind(model, image, label, eps, WorkKind::Plain)
    }

    /// Submits one *complete-mode* query: plain analysis first, then
    /// branch-and-bound refinement under `budget` if the verdict is
    /// Unknown. Admission prices the query at up to `1 + max_splits`
    /// analyses, so a deep refinement budget weighs accordingly against
    /// the cost cap.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::submit`].
    pub fn submit_complete(
        &self,
        model: &str,
        image: Vec<f32>,
        label: usize,
        eps: f32,
        budget: RefineBudget,
    ) -> Result<Receiver<WorkReply>, SubmitError> {
        self.submit_kind(model, image, label, eps, WorkKind::Complete(budget))
    }

    fn submit_kind(
        &self,
        model: &str,
        image: Vec<f32>,
        label: usize,
        eps: f32,
        kind: WorkKind,
    ) -> Result<Receiver<WorkReply>, SubmitError> {
        /// Removes the loading-gate map entry even if the claim owner
        /// unwinds (a leaked gate would wedge the model forever: later
        /// submitters would find an ownerless gate, lock it instantly and
        /// busy-spin through the retry loop).
        struct GateCleanup<'a, B: Backend>(&'a Registry<B>, &'a str);
        impl<B: Backend> Drop for GateCleanup<'_, B> {
            fn drop(&mut self) {
                self.0.loading.lock().remove(self.1);
            }
        }

        // Bounded retries: under extreme budget pressure a freshly loaded
        // model can be evicted by a competing load before this thread
        // enqueues (load/evict ping-pong). Retrying a few times absorbs
        // benign races; past that the honest answer is backpressure, not
        // an unbounded stall inside submit.
        let mut image = image;
        for _attempt in 0..8 {
            if self.closed.load(Ordering::Acquire) {
                return Err(SubmitError::Overloaded("daemon shutting down".into()));
            }
            let saturated = {
                let mut entries = self.entries.lock();
                if entries.contains_key(model) {
                    match self.enqueue_locked(&mut entries, model, image, label, eps, kind)? {
                        EnqueueOutcome::Enqueued(rx) => return Ok(rx),
                        // Every replica's queue is full: maybe replicate.
                        EnqueueOutcome::Saturated(img) => {
                            image = img;
                            true
                        }
                    }
                } else {
                    false
                }
            };
            if saturated {
                // A saturated model replicates onto a device not yet
                // holding it — unless every model already spans the pool
                // (a pool plan) or the pool is covered, in which case the
                // honest answer is the same structured overload as a full
                // single-device queue.
                let can_replicate = !self.spans_pool()
                    && self.pool.len() > 1
                    && self.pool.replication_candidate(model).is_some();
                if can_replicate && self.replicate(model)? {
                    continue; // retry through the widened replica set
                }
                if let Some(entry) = self.entries.lock().get(model) {
                    entry
                        .stats
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                }
                return Err(SubmitError::Overloaded(format!(
                    "admission queue for `{model}` is full ({} waiting)",
                    self.cfg.queue_cap
                )));
            }
            // Cold path only (a resident model must stay serveable even if
            // its backing file vanished, and hot traffic must not stat the
            // disk): answer unknown models from a direct file check before
            // touching the loading gate. Nonexistent names — typos,
            // hostile probes, many clients chasing the same ghost in
            // lockstep — must neither serialize behind loading gates nor
            // exhaust the retry budget and get misreported as
            // `Overloaded`. `load_model` re-checks under the gate, so a
            // racing file deletion is still handled correctly.
            if !self.model_file_exists(model) {
                return Err(SubmitError::UnknownModel(self.unknown_model_error(model)));
            }
            // Claim the load, or wait for the thread already performing it
            // (then re-check the entries map).
            let claimed = {
                let mut loading = self.loading.lock();
                match loading.get(model) {
                    Some(gate) => Err(gate.clone()),
                    None => {
                        let gate = Arc::new(Mutex::new(()));
                        loading.insert(model.to_string(), gate.clone());
                        Ok(gate)
                    }
                }
            };
            match claimed {
                Err(gate) => {
                    // Block until the owner finishes, then retry. If the
                    // owner's load failed, this requester retries the load
                    // itself (the file may have been fixed meanwhile).
                    drop(gate.lock());
                }
                Ok(gate) => {
                    let _cleanup = GateCleanup(self, model);
                    let _guard = gate.lock();
                    // Re-check: an owner may have finished between our map
                    // miss and our claim.
                    if !self.entries.lock().contains_key(model) {
                        self.load_model(model)?;
                    }
                    // Loop back to enqueue through the freshly inserted
                    // entry.
                }
            }
        }
        Err(SubmitError::Overloaded(format!(
            "model `{model}` keeps getting evicted under memory pressure; retry later"
        )))
    }

    /// Enqueues one query on a resident model. Caller holds the entries
    /// lock and has checked the entry exists.
    fn enqueue_locked(
        &self,
        entries: &mut HashMap<String, ModelEntry>,
        model: &str,
        image: Vec<f32>,
        label: usize,
        eps: f32,
        kind: WorkKind,
    ) -> Result<EnqueueOutcome, SubmitError> {
        let entry = entries.get(model).expect("caller checked");
        entry
            .stats
            .last_used_ms
            .store(self.now_ms(), Ordering::Release);

        // Cost-aware admission: weigh the backlog by estimated wall time
        // (cost hint × measured EWMA), not only by query count. Same
        // structured bounce as a full queue. A complete-mode query may run
        // up to `1 + 2·max_splits` sub-box analyses on top of the base
        // pass; scale its hint by the split budget so deep refinements
        // cannot sneak past the cap priced as a single analysis.
        let cost_us = match kind {
            WorkKind::Plain => entry.stats.estimate_cost_us(&image, eps),
            WorkKind::Complete(budget) => entry
                .stats
                .estimate_cost_us(&image, eps)
                .saturating_mul(1 + u64::from(budget.max_splits)),
        };
        if let Some(cap) = self.cfg.queue_cost_cap {
            let pending = entry.stats.pending_cost_us.load(Ordering::Acquire);
            let cap_us = u64::try_from(cap.as_micros()).unwrap_or(u64::MAX);
            if !cost_admission_ok(pending, cost_us, cap_us) {
                entry.stats.rejected_cost.fetch_add(1, Ordering::Relaxed);
                entry
                    .stats
                    .rejected_overload
                    .fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Overloaded(format!(
                    "estimated backlog for `{model}` exceeds {cap:?} \
                     ({pending} us pending, {cost_us} us incoming)"
                )));
            }
        }

        let (reply, rx) = std::sync::mpsc::channel();
        // Gauge up *before* try_send: the worker decrements when it pops
        // (cost when it answers), so the pairs can never go negative, and a
        // successfully queued item is always counted. The eviction pin
        // rides the same discipline — pinned at admission, released by the
        // worker's reply (or the rollback below), so make_room can never
        // observe a window where admitted work isn't pinned.
        entry.stats.queue_depth.fetch_add(1, Ordering::AcqRel);
        entry.stats.in_flight.fetch_add(1, Ordering::AcqRel);
        entry
            .stats
            .pending_cost_us
            .fetch_add(cost_us, Ordering::AcqRel);
        entry.stats.pin();

        // Route to the least-loaded replica, falling back through the rest
        // in ascending load order when queues are full.
        let mut order: Vec<usize> = (0..entry.replicas.len()).collect();
        order.sort_by_key(|&i| {
            (
                self.pool.load(entry.replicas[i].home()),
                entry.replicas[i].home(),
            )
        });
        let mut item = WorkItem {
            image,
            label,
            eps,
            kind,
            // Admission-time deadline: the serving layer stops waiting for
            // this item's reply after `request_timeout`, so any later
            // verification would go unread — the worker drops it instead.
            deadline: Some(Instant::now() + self.cfg.request_timeout),
            cost_us,
            reply,
        };
        let mut dead: Vec<usize> = Vec::new();
        for i in order {
            let replica = &entry.replicas[i];
            match replica.queue.try_send(item) {
                Ok(()) => {
                    // Charge the replica's home device so least-loaded
                    // routing sees this item until the worker retires it.
                    self.pool.note_enqueued(replica.home(), cost_us.max(1));
                    return Ok(EnqueueOutcome::Enqueued(rx));
                }
                Err(TrySendError::Full(it)) => item = it,
                Err(TrySendError::Disconnected(it)) => {
                    item = it;
                    dead.push(i);
                }
            }
        }

        // Nothing accepted the item: roll every admission gauge back.
        entry.stats.queue_depth.fetch_sub(1, Ordering::AcqRel);
        entry.stats.in_flight.fetch_sub(1, Ordering::AcqRel);
        entry
            .stats
            .pending_cost_us
            .fetch_sub(cost_us, Ordering::AcqRel);
        entry.stats.unpin();

        if !dead.is_empty() {
            // A worker died (it can only exit when its queue closes or its
            // thread panicked fatally); prune the corpses so retries route
            // around them, and drop the whole entry when none survive.
            let entry = entries.get_mut(model).expect("caller checked");
            for &i in dead.iter().rev() {
                let corpse = entry.replicas.remove(i);
                self.pool.remove_replica(model, corpse.home());
                corpse.shut_down();
            }
            if entry.replicas.is_empty() {
                if let Some(empty) = entries.remove(model) {
                    self.pool.remove_model(model);
                    empty.shut_down();
                }
                return Err(SubmitError::LoadFailed(format!(
                    "model worker for `{model}` is gone; retry to reload"
                )));
            }
        }
        Ok(EnqueueOutcome::Saturated(item.image))
    }

    /// The f32-weight bytes a resident copy of `net` will pin per device,
    /// scaled for the tiered worker's double residency.
    fn incoming_bytes(&self, net: &Network<f32>) -> usize {
        // A weight-sharded (or hybrid) worker pins only its worst device's
        // shard plus the gather working set (whose floor is the double
        // buffer) per device — that per-device figure is what lets a model
        // bigger than any one device's budget admit. In hybrid mode every
        // device both holds a shard and gathers, so the same worst-device
        // charge covers each of them.
        if self.cfg.plan.shard_weights {
            return gpupoly_core::weight_shard_budget(net, self.pool.len()).worst_device_bytes();
        }
        // A tiered worker keeps both precisions resident: f32 + f64 weights
        // are 3× the f32 bytes, so budget-driven eviction must make room
        // for the real footprint up front.
        let tier_factor = if self.cfg.precision_tier { 3 } else { 1 };
        net.param_count() * std::mem::size_of::<f32>() * tier_factor
    }

    /// Whether the plan gives every model one worker over the whole pool.
    fn spans_pool(&self) -> bool {
        self.cfg.plan.split_rows || self.cfg.plan.shard_weights
    }

    /// The devices a fresh worker for `model` should span: the whole pool
    /// under a pool plan, else the model's sticky least-loaded placement.
    fn placement(&self, model: &str) -> Vec<usize> {
        if self.spans_pool() && self.pool.len() > 1 {
            (0..self.pool.len()).collect()
        } else {
            vec![self.pool.place(model)]
        }
    }

    /// Spawns one worker for `model` spanning `device_indices`, wiring its
    /// reply path to retire admission charges from the home device's load
    /// gauge.
    fn spawn_replica(
        &self,
        model: &str,
        net: Network<f32>,
        device_indices: &[usize],
        stats: Arc<ModelStats>,
    ) -> Result<Replica, SubmitError> {
        let devices: Vec<Device<B>> = device_indices
            .iter()
            .map(|&i| self.pool.device(i).clone())
            .collect();
        let home = device_indices[0];
        let pool = self.pool.clone();
        let (queue, join) = spawn_worker(
            model.to_string(),
            net,
            devices,
            self.cfg.verify,
            self.cfg.policy,
            self.cfg.queue_cap,
            self.cfg.precision_tier,
            self.cfg.plan,
            stats,
            Arc::new(move |cost| pool.note_done(home, cost.max(1))),
        )
        .map_err(|e| match e {
            gpupoly_core::VerifyError::Device(_) => SubmitError::DeviceOom(e.to_string()),
            other => SubmitError::LoadFailed(other.to_string()),
        })?;
        Ok(Replica {
            queue,
            join: Some(join),
            devices: device_indices.to_vec(),
        })
    }

    /// Loads `model` into a resident worker. Caller holds the model's
    /// loading gate (so this runs at most once per model at a time) but
    /// NOT the entries lock — file reads, JSON parsing and engine weight
    /// packing must never stall traffic for already-resident models. The
    /// entries lock is taken only briefly, for eviction and insertion.
    fn load_model(&self, model: &str) -> Result<(), SubmitError> {
        if !self.model_file_exists(model) {
            return Err(SubmitError::UnknownModel(self.unknown_model_error(model)));
        }
        let net: Network<f32> = store::load(&self.cfg.model_dir, model)
            .map_err(|e| SubmitError::LoadFailed(e.to_string()))?;
        self.meta.lock().insert(
            model.to_string(),
            (net.input_shape().len(), net.output_len()),
        );
        let incoming = self.incoming_bytes(&net);
        let device_indices = self.placement(model);
        {
            let mut entries = self.entries.lock();
            self.make_room(&mut entries, incoming, &device_indices)?;
        }
        let stats = Arc::new(ModelStats::default());
        stats.last_used_ms.store(self.now_ms(), Ordering::Release);
        let replica = self.spawn_replica(model, net, &device_indices, stats.clone())?;
        let entry = ModelEntry {
            replicas: vec![replica],
            stats,
        };
        {
            let mut entries = self.entries.lock();
            // Linearize against drain() via the entries lock: a drain that
            // already swept the map must not be followed by a late insert
            // whose worker nobody would ever join.
            if !self.closed.load(Ordering::Acquire) {
                for &idx in &device_indices {
                    self.pool.add_replica(model, idx);
                }
                entries.insert(model.to_string(), entry);
                return Ok(());
            }
        }
        self.pool.remove_model(model);
        entry.shut_down();
        Err(SubmitError::Overloaded("daemon shutting down".into()))
    }

    /// Adds one replica of a saturated resident model on the least-loaded
    /// device not already holding it, serialized through the model's
    /// loading gate. Returns `true` when the caller should retry admission
    /// (a replica was added, or another thread changed the replica set
    /// meanwhile) and `false` when replication cannot help right now —
    /// the caller then bounces with the structured overload.
    ///
    /// The entry is **pinned** for the whole spawn: the new engine is built
    /// outside the entries lock, and without the pin a concurrent load's
    /// make-room sweep could evict the very model being replicated.
    fn replicate(&self, model: &str) -> Result<bool, SubmitError> {
        struct GateCleanup<'a, B: Backend>(&'a Registry<B>, &'a str);
        impl<B: Backend> Drop for GateCleanup<'_, B> {
            fn drop(&mut self) {
                self.0.loading.lock().remove(self.1);
            }
        }
        /// Drops the replication pin on every exit path, including unwinds.
        struct Unpin<'a>(&'a ModelStats);
        impl Drop for Unpin<'_> {
            fn drop(&mut self) {
                self.0.unpin();
            }
        }

        let claimed = {
            let mut loading = self.loading.lock();
            match loading.get(model) {
                Some(gate) => Err(gate.clone()),
                None => {
                    let gate = Arc::new(Mutex::new(()));
                    loading.insert(model.to_string(), gate.clone());
                    Ok(gate)
                }
            }
        };
        let gate = match claimed {
            Err(gate) => {
                // Someone else is loading or replicating this model: wait
                // for them, then retry admission against their result.
                drop(gate.lock());
                return Ok(true);
            }
            Ok(gate) => gate,
        };
        let _cleanup = GateCleanup(self, model);
        let _guard = gate.lock();

        let (stats, replica_count) = {
            let entries = self.entries.lock();
            match entries.get(model) {
                // Evicted while we claimed the gate; the cold-load path
                // will reload it on retry.
                None => return Ok(true),
                Some(entry) => {
                    entry.stats.pin();
                    (entry.stats.clone(), entry.replicas.len())
                }
            }
        };
        let _unpin = Unpin(&stats);

        let Some(candidate) = self.pool.replication_candidate(model) else {
            return Ok(false);
        };
        // Failures from here on don't fail the request — the model is
        // still serveable on its existing replicas, so the caller bounces
        // with overload instead of surfacing a replication-internal error.
        if !self.model_file_exists(model) {
            return Ok(false);
        }
        let Ok(net) = store::load::<f32>(&self.cfg.model_dir, model) else {
            return Ok(false);
        };
        let incoming = self.incoming_bytes(&net);
        {
            let mut entries = self.entries.lock();
            if self
                .make_room(&mut entries, incoming, &[candidate])
                .is_err()
            {
                return Ok(false);
            }
        }
        let Ok(replica) = self.spawn_replica(model, net, &[candidate], stats.clone()) else {
            return Ok(false);
        };
        {
            let mut entries = self.entries.lock();
            if !self.closed.load(Ordering::Acquire) {
                if let Some(entry) = entries.get_mut(model) {
                    if entry.replicas.len() == replica_count {
                        entry.replicas.push(replica);
                        self.pool.add_replica(model, candidate);
                        return Ok(true);
                    }
                }
            }
        }
        // The entry changed (or the daemon is closing) while we were
        // spawning: discard the fresh worker and let the caller retry.
        replica.shut_down();
        Ok(true)
    }

    /// Reclaims memory on each target device until `incoming` more bytes
    /// fit under its (per-device) budget: shelved pool bytes first (an
    /// idle cache, cheaper to drop than a model), then LRU **unpinned**
    /// models resident on that device. A pinned model has admitted work a
    /// worker still owes replies for (or a replica spawn in progress), so
    /// evicting it would race the worker — it is never a victim, however
    /// stale its LRU stamp.
    ///
    /// The budget is enforced at admission time; concurrent loads that
    /// both passed this check can transiently overshoot it, and each
    /// device's own capacity (set to the budget by the server) is the
    /// hard backstop — engines fall back to host-resident weights and
    /// chunked backsubstitution rather than failing.
    fn make_room(
        &self,
        entries: &mut HashMap<String, ModelEntry>,
        incoming: usize,
        device_indices: &[usize],
    ) -> Result<(), SubmitError> {
        let Some(budget) = self.cfg.memory_budget else {
            return Ok(());
        };
        // A footprint over the per-device budget can never fit, however
        // much is evicted — a permanent, typed condition, not a retriable
        // overload. (Weight sharding shrinks `incoming` to the worst
        // device's shard + gather buffer, which is how a model bigger than
        // one device still clears this gate across a pool.)
        if incoming > budget {
            return Err(SubmitError::DeviceOom(format!(
                "model needs {incoming} resident bytes but the per-device memory \
                 budget is {budget}; it can never fit on one device \
                 (a multi-device pool can still serve it with --weight-sharded)"
            )));
        }
        for &idx in device_indices {
            let device = self.pool.device(idx);
            // Clear the buffer pool at most once per device: active workers
            // re-shelve buffers continuously, so "pool non-empty" alone must
            // never keep this loop (which holds the entries lock) spinning.
            let mut pool_cleared = false;
            loop {
                if device.memory_in_use().saturating_add(incoming) <= budget {
                    break;
                }
                if !pool_cleared && device.buffer_pool_bytes() > 0 {
                    device.buffer_pool_clear();
                    pool_cleared = true;
                    continue;
                }
                let victim = entries
                    .iter()
                    .filter(|(_, e)| !e.stats.is_pinned())
                    .filter(|(_, e)| e.replicas.iter().any(|r| r.devices.contains(&idx)))
                    .min_by_key(|(_, e)| e.stats.last_used_ms.load(Ordering::Acquire))
                    .map(|(name, _)| name.clone());
                match victim {
                    Some(name) => {
                        let entry = entries.remove(&name).expect("victim exists");
                        self.pool.remove_model(&name);
                        entry.shut_down();
                    }
                    None => {
                        return Err(SubmitError::Overloaded(format!(
                            "memory budget exhausted on device `{}` ({} of {budget} \
                             bytes in use, {incoming} more needed) and every resident \
                             model there is pinned by in-flight work",
                            device.name(),
                            device.memory_in_use()
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Every model the daemon can serve (directory listing), with residency
    /// flags and I/O shapes.
    ///
    /// Dims for never-seen models require parsing their files once (the
    /// JSON format has no separate header); that parsing happens without
    /// holding any registry lock, so a `models` request over a directory
    /// of large files never stalls verification traffic. Parsed dims are
    /// cached, so the cost is paid once per model per daemon lifetime.
    ///
    /// # Errors
    ///
    /// The directory-read error message when the model dir is unreadable.
    pub fn list_models(&self) -> Result<Vec<ModelInfo>, String> {
        let names = store::list(&self.cfg.model_dir).map_err(|e| e.to_string())?;
        let resident: std::collections::HashSet<String> =
            self.entries.lock().keys().cloned().collect();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let cached = self.meta.lock().get(&name).copied();
            let dims = match cached {
                Some(dims) => Some(dims),
                None => match store::load::<f32>(&self.cfg.model_dir, &name) {
                    Ok(net) => {
                        let dims = (net.input_shape().len(), net.output_len());
                        self.meta.lock().insert(name.clone(), dims);
                        Some(dims)
                    }
                    // Listed but unloadable: report it with zero dims so
                    // clients can see the name (verify will fail typed).
                    Err(_) => None,
                },
            };
            let (input_len, outputs) = dims.unwrap_or((0, 0));
            out.push(ModelInfo {
                loaded: resident.contains(&name),
                name,
                input_len,
                outputs,
            });
        }
        Ok(out)
    }

    /// Counter snapshots for every resident model, sorted by name.
    pub fn model_stats(&self) -> Vec<ModelStatsWire> {
        let entries = self.entries.lock();
        let mut out: Vec<ModelStatsWire> = entries
            .iter()
            .map(|(name, e)| {
                let s = &e.stats;
                let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Acquire);
                ModelStatsWire {
                    name: name.clone(),
                    resident_bytes: load(&s.resident_bytes),
                    queue_depth: load(&s.queue_depth),
                    in_flight: load(&s.in_flight),
                    completed: load(&s.completed),
                    rejected_overload: load(&s.rejected_overload),
                    batches: load(&s.batches),
                    batch_items: load(&s.batch_items),
                    max_batch: load(&s.max_batch),
                    cache_hits: load(&s.cache_hits),
                    cache_misses: load(&s.cache_misses),
                    fused_batches: load(&s.fused_batches),
                    pending_cost_us: load(&s.pending_cost_us),
                    rejected_cost: load(&s.rejected_cost),
                    ewma_ms_per_cost: s.ewma_ms_per_cost(),
                    fast_pass_resolved: load(&s.fast_pass_resolved),
                    escalated: load(&s.escalated),
                    expired_dropped: load(&s.expired_dropped),
                    splits: load(&s.splits),
                    frontier_peak: load(&s.frontier_peak),
                    proven_by_split: load(&s.proven_by_split),
                    cex_found: load(&s.cex_found),
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Evicts one model by name (admin/testing); `true` if it was resident.
    pub fn evict(&self, model: &str) -> bool {
        let entry = self.entries.lock().remove(model);
        match entry {
            Some(entry) => {
                self.pool.remove_model(model);
                entry.shut_down();
                true
            }
            None => false,
        }
    }

    /// Names of the currently resident models, sorted.
    pub fn resident(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Refuses new work, closes every admission queue and joins every
    /// worker; all resident engines drop and their device memory returns.
    pub fn drain(&self) {
        self.closed.store(true, Ordering::Release);
        let drained: Vec<(String, ModelEntry)> = {
            let mut entries = self.entries.lock();
            entries.drain().collect()
        };
        for (name, entry) in drained {
            self.pool.remove_model(&name);
            entry.shut_down();
        }
    }
}

impl<B: Backend> Drop for Registry<B> {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpupoly_nn::builder::NetworkBuilder;
    use std::path::Path;
    use std::time::Duration;

    fn write_model(dir: &Path, name: &str, inputs: usize, width: usize) {
        let mix = |i: usize| ((((i + 3) * 2654435761) % 997) as f32 / 499.0 - 1.0) * 0.3;
        let net = NetworkBuilder::new_flat(inputs)
            .dense_flat(
                width,
                (0..width * inputs).map(mix).collect(),
                (0..width).map(mix).collect(),
            )
            .relu()
            .dense_flat(3, (0..3 * width).map(mix).collect(), vec![0.0; 3])
            .build()
            .unwrap();
        store::save(dir, name, &net).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gpupoly-registry-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn recv(rx: Receiver<WorkReply>) -> WorkReply {
        rx.recv_timeout(Duration::from_secs(30)).expect("reply")
    }

    #[test]
    fn lazy_load_serve_and_list() {
        let dir = temp_dir("lazy");
        write_model(&dir, "a", 4, 6);
        write_model(&dir, "b", 5, 4);
        let registry = Registry::new(Device::default(), RegistryConfig::new(&dir));
        assert!(registry.resident().is_empty());

        let verdict = recv(registry.submit("a", vec![0.5; 4], 0, 0.01).unwrap());
        assert!(verdict.is_ok());
        assert_eq!(registry.resident(), vec!["a"]);

        let models = registry.list_models().unwrap();
        assert_eq!(models.len(), 2);
        assert!(models[0].loaded && models[0].name == "a" && models[0].input_len == 4);
        assert!(!models[1].loaded && models[1].name == "b" && models[1].input_len == 5);

        match registry.submit("ghost", vec![0.5; 4], 0, 0.01) {
            Err(SubmitError::UnknownModel(_)) => {}
            other => panic!("expected UnknownModel, got {other:?}"),
        }
        match registry.submit("../../etc/passwd", vec![0.5; 4], 0, 0.01) {
            Err(SubmitError::UnknownModel(_)) => {}
            other => panic!("expected UnknownModel, got {other:?}"),
        }

        let stats = registry.model_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].completed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_budget_evicts_lru_idle_models() {
        let dir = temp_dir("budget");
        write_model(&dir, "m1", 8, 24);
        write_model(&dir, "m2", 8, 24);
        write_model(&dir, "m3", 8, 24);
        // Each model pins (24*8 + 24 + 3*24 + 3) floats ≈ 1.2 KB of weights:
        // a 3 KB budget fits two resident models but not three.
        let device: Device = Device::default();
        let mut cfg = RegistryConfig::new(&dir);
        cfg.memory_budget = Some(3000);
        let registry = Registry::new(device, cfg);

        assert!(recv(registry.submit("m1", vec![0.5; 8], 0, 0.01).unwrap()).is_ok());
        assert!(recv(registry.submit("m2", vec![0.5; 8], 1, 0.01).unwrap()).is_ok());
        // Touch m2 so m1 is the LRU victim when m3 needs room.
        assert!(recv(registry.submit("m2", vec![0.4; 8], 1, 0.01).unwrap()).is_ok());
        assert!(recv(registry.submit("m3", vec![0.5; 8], 2, 0.01).unwrap()).is_ok());
        let resident = registry.resident();
        assert!(
            resident.contains(&"m3".to_string()),
            "newly requested model must be resident, got {resident:?}"
        );
        assert!(
            !resident.contains(&"m1".to_string()),
            "LRU model must have been evicted, got {resident:?}"
        );
        // Evicted models reload transparently on the next request.
        assert!(recv(registry.submit("m1", vec![0.5; 8], 0, 0.01).unwrap()).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cost_cap_bounces_only_into_nonempty_backlogs() {
        let dir = temp_dir("costcap");
        write_model(&dir, "m", 8, 24);
        let mut cfg = RegistryConfig::new(&dir);
        // A zero-microsecond cost cap: once the EWMA is warm, any query
        // behind pending work must bounce on estimated cost.
        cfg.queue_cost_cap = Some(Duration::from_nanos(1));
        // A long coalescing window keeps the probe query unanswered (its
        // cost pending) while the bounce candidate arrives.
        cfg.policy = BatchPolicy {
            max_batch: 16,
            max_delay: Duration::from_millis(1500),
        };
        let registry = Registry::new(Device::default(), cfg);

        // Cold EWMA estimates zero cost: count-based admission governs.
        assert!(recv(registry.submit("m", vec![0.5; 8], 0, 0.05).unwrap()).is_ok());
        let stats = registry.model_stats();
        assert!(
            stats[0].ewma_ms_per_cost > 0.0,
            "first measured batch must warm the EWMA: {stats:?}"
        );

        // Warm EWMA + zero cap: the first query of an empty backlog is
        // still admitted (bouncing it would starve the model), the query
        // behind it bounces with structured overload.
        let rx = registry.submit("m", vec![0.45; 8], 1, 0.05).unwrap();
        match registry.submit("m", vec![0.4; 8], 2, 0.05) {
            Err(SubmitError::Overloaded(msg)) => {
                assert!(msg.contains("backlog"), "untyped bounce: {msg}")
            }
            other => panic!("expected cost bounce, got {other:?}"),
        }
        assert!(recv(rx).is_ok(), "the admitted query still completes");

        let stats = registry.model_stats();
        assert_eq!(stats[0].rejected_cost, 1);
        assert_eq!(stats[0].rejected_overload, 1);
        assert_eq!(stats[0].completed, 2);
        assert_eq!(
            stats[0].pending_cost_us, 0,
            "every admitted cost must be credited back on reply"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn models_with_in_flight_work_are_pinned_against_eviction() {
        let dir = temp_dir("pinned");
        write_model(&dir, "m1", 8, 24);
        write_model(&dir, "m2", 8, 24);
        // Budget fits exactly one ~1.2 KB resident model.
        let mut cfg = RegistryConfig::new(&dir);
        cfg.memory_budget = Some(2000);
        // A long coalescing window keeps m1's query admitted-but-unanswered
        // (hence pinned) while m2 tries to load.
        cfg.policy = BatchPolicy {
            max_batch: 16,
            max_delay: Duration::from_millis(1500),
        };
        let registry = Registry::new(Device::default(), cfg);

        let pending = registry.submit("m1", vec![0.5; 8], 0, 0.01).unwrap();
        // m1 has one in-flight query: loading m2 needs its bytes, but the
        // pin must win — the old idle()-based sweep raced the worker here.
        match registry.submit("m2", vec![0.5; 8], 1, 0.01) {
            Err(SubmitError::Overloaded(msg)) => {
                assert!(msg.contains("pinned"), "untyped pressure bounce: {msg}")
            }
            other => panic!("expected Overloaded while m1 is pinned, got {other:?}"),
        }
        assert_eq!(registry.resident(), vec!["m1"]);
        assert!(recv(pending).is_ok(), "the pinned model still answers");

        // Once the reply is out the pin is gone: m2 now evicts m1 cleanly.
        assert!(recv(registry.submit("m2", vec![0.5; 8], 1, 0.01).unwrap()).is_ok());
        let resident = registry.resident();
        assert!(resident.contains(&"m2".to_string()), "{resident:?}");
        assert!(!resident.contains(&"m1".to_string()), "{resident:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saturated_models_replicate_onto_idle_devices() {
        use gpupoly_device::DeviceConfig;
        use gpupoly_shard::DevicePool;
        let dir = temp_dir("replicate");
        write_model(&dir, "m", 8, 24);

        let mut cfg = RegistryConfig::new(&dir);
        // Single-query batches + a one-slot queue: one popped item and one
        // queued item saturate a replica.
        cfg.queue_cap = 1;
        cfg.policy = BatchPolicy {
            max_batch: 1,
            max_delay: Duration::from_millis(1),
        };
        let pool: Arc<DevicePool<gpupoly_device::CpuSimBackend>> =
            Arc::new(DevicePool::build(2, DeviceConfig::new().workers(1)));
        let registry = Registry::with_pool(pool.clone(), cfg);

        // Waits until every queued item has been popped (the workers hold
        // one item each, their queues empty) so the next submission lands
        // in a known queue state.
        let drained_queues = |registry: &Registry<gpupoly_device::CpuSimBackend>| {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let stats = registry.model_stats();
                if stats[0].queue_depth == 0 {
                    return;
                }
                assert!(Instant::now() < deadline, "workers never popped: {stats:?}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        let cold = registry.submit("m", vec![0.5; 8], 0, 0.02).unwrap();
        assert!(recv(cold).is_ok());
        assert_eq!(pool.replicas("m").len(), 1, "cold load places one replica");
        // A worker that has popped an item stays busy with it until the test
        // opens the model's dispatch gate: the saturation below is sequenced
        // on that, not on how long a verify takes.
        let stats = registry.entries.lock()["m"].stats.clone();
        let gate = stats.dispatch_gate.lock();

        // q1 occupies the worker, q2 fills its one-slot queue.
        let q1 = registry.submit("m", vec![0.5; 8], 0, 0.01).unwrap();
        drained_queues(&registry);
        let q2 = registry.submit("m", vec![0.45; 8], 1, 0.01).unwrap();
        // q3 finds every queue full: the model replicates onto the second
        // device instead of bouncing, and the query rides the new replica.
        let q3 = registry.submit("m", vec![0.4; 8], 2, 0.01).unwrap();
        assert_eq!(
            pool.replicas("m").len(),
            2,
            "saturation must have replicated the model"
        );
        assert!(
            pool.device(0).memory_in_use() > 0 && pool.device(1).memory_in_use() > 0,
            "weights resident on both devices"
        );
        drop(gate);
        for rx in [q1, q2, q3] {
            assert!(recv(rx).is_ok());
        }
        let wire = registry.model_stats();
        assert_eq!(wire[0].completed, 4);
        assert_eq!(wire[0].rejected_overload, 0, "nothing bounced");

        // With the pool covered, saturation of both replicas bounces with
        // the structured overload: two busy workers, two full queues, and a
        // fifth query with nowhere left to replicate.
        let gate = stats.dispatch_gate.lock();
        let busy_a = registry.submit("m", vec![0.5; 8], 0, 0.01).unwrap();
        drained_queues(&registry);
        let busy_b = registry.submit("m", vec![0.44; 8], 1, 0.01).unwrap();
        drained_queues(&registry);
        let queued_a = registry.submit("m", vec![0.43; 8], 2, 0.01).unwrap();
        let queued_b = registry.submit("m", vec![0.42; 8], 0, 0.01).unwrap();
        match registry.submit("m", vec![0.41; 8], 1, 0.01) {
            Err(SubmitError::Overloaded(msg)) => {
                assert!(msg.contains("full"), "untyped bounce: {msg}")
            }
            other => panic!("expected Overloaded on a covered pool, got {other:?}"),
        }
        drop(gate);
        for rx in [busy_a, busy_b, queued_a, queued_b] {
            assert!(recv(rx).is_ok());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tensor_parallel_registry_spans_the_pool_per_model() {
        use gpupoly_device::DeviceConfig;
        use gpupoly_shard::DevicePool;
        let dir = temp_dir("tp");
        write_model(&dir, "m", 8, 24);
        let mut cfg = RegistryConfig::new(&dir);
        cfg.plan.split_rows = true;
        let pool: Arc<DevicePool<gpupoly_device::CpuSimBackend>> =
            Arc::new(DevicePool::build(2, DeviceConfig::new().workers(1)));
        let registry = Registry::with_pool(pool.clone(), cfg);

        assert!(recv(registry.submit("m", vec![0.5; 8], 0, 0.01).unwrap()).is_ok());
        // One worker, weights resident on every pool device.
        assert_eq!(pool.replicas("m").len(), 2);
        assert!(
            pool.device(0).memory_in_use() > 0 && pool.device(1).memory_in_use() > 0,
            "tensor-parallel weights span the pool"
        );
        registry.drain();
        assert_eq!(pool.device(0).memory_in_use(), 0);
        assert_eq!(pool.device(1).memory_in_use(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drain_refuses_new_work_and_returns_memory() {
        let dir = temp_dir("drain");
        write_model(&dir, "m", 4, 8);
        let device: Device = Device::default();
        let registry = Registry::new(device.clone(), RegistryConfig::new(&dir));
        assert!(recv(registry.submit("m", vec![0.5; 4], 0, 0.01).unwrap()).is_ok());
        assert!(device.memory_in_use() > 0);
        registry.drain();
        assert_eq!(device.memory_in_use(), 0);
        match registry.submit("m", vec![0.5; 4], 0, 0.01) {
            Err(SubmitError::Overloaded(_)) => {}
            other => panic!("expected Overloaded after drain, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

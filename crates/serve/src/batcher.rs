//! The admission batcher: one worker thread per resident model.
//!
//! The thread *owns* its `Network` and the engine built over it — the
//! engine borrows the network, so tying both to one thread's stack gives the
//! resident pair a single owner with no self-referential storage. Requests
//! arrive over a bounded channel (the admission queue); the worker coalesces
//! whatever is in flight into one fused batch call, bounded by a max-batch /
//! max-delay policy:
//!
//! * the first request of a batch is taken blocking (an idle model costs
//!   nothing),
//! * further requests are drained until the batch holds `max_batch` queries
//!   or `max_delay` has passed since the batch opened — the classic
//!   admission trade of a little latency for a lot of coalescing,
//! * the whole batch runs as one fused call (analysis cache shared), and
//!   every requester gets its own reply.
//!
//! Dropping the queue sender shuts the worker down: it answers what is
//! already queued, then the engine drops and every device byte the model
//! pinned (weights and pooled buffers) returns to the device.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpupoly_core::{
    CompleteVerdict, Engine, EngineOptions, EngineStats, Plan, Query, RefineBudget,
    RobustnessVerdict, TieredEngine, VerifyConfig, VerifyError,
};
use gpupoly_device::{Backend, Device};
use gpupoly_nn::Network;

use crate::stats::ModelStats;

/// Called with the admission cost charge whenever an item is answered (on
/// every path: verdict, per-query error, expiry, contained panic). The
/// registry uses it to retire the item's charge from the device pool's load
/// gauge, keeping least-loaded routing honest without coupling this module
/// to the pool type.
pub(crate) type RetireFn = Arc<dyn Fn(u64) + Send + Sync>;

/// What the batching loop needs from a resident verification engine: one
/// fused batch call at serving precision, one branch-and-bound refinement
/// call, and a stats snapshot to mirror. Implemented by the [`Engine`] over
/// the worker's devices (a pool of one device is the plain engine) and by
/// the precision-tiered [`TieredEngine`], so one loop serves both worker
/// flavors.
trait BatchVerifier {
    fn verify(&self, queries: &[Query<f32>]) -> Vec<Result<RobustnessVerdict<f32>, VerifyError>>;
    /// Complete-mode verdicts always cross the worker boundary as `f64`:
    /// the tiered engine escalates before splitting, and the `f32` pool's
    /// verdicts widen losslessly.
    fn verify_complete(
        &self,
        queries: &[Query<f32>],
        budget: &RefineBudget,
    ) -> Vec<Result<CompleteVerdict<f64>, VerifyError>>;
    fn stats(&self) -> EngineStats;
}

impl<B: Backend> BatchVerifier for TieredEngine<'_, B> {
    fn verify(&self, queries: &[Query<f32>]) -> Vec<Result<RobustnessVerdict<f32>, VerifyError>> {
        self.verify_batch(queries)
    }
    fn verify_complete(
        &self,
        queries: &[Query<f32>],
        budget: &RefineBudget,
    ) -> Vec<Result<CompleteVerdict<f64>, VerifyError>> {
        self.verify_complete_batch(queries, budget)
    }
    fn stats(&self) -> EngineStats {
        TieredEngine::stats(self)
    }
}

impl<B: Backend> BatchVerifier for Engine<'_, f32, B> {
    fn verify(&self, queries: &[Query<f32>]) -> Vec<Result<RobustnessVerdict<f32>, VerifyError>> {
        self.verify_batch_fused(queries)
    }
    fn verify_complete(
        &self,
        queries: &[Query<f32>],
        budget: &RefineBudget,
    ) -> Vec<Result<CompleteVerdict<f64>, VerifyError>> {
        self.verify_complete_batch(queries, budget)
            .into_iter()
            .map(|r| r.map(|v| v.widen()))
            .collect()
    }
    fn stats(&self) -> EngineStats {
        // Summed over the pool's devices — launch/FLOP/bytes meters cover
        // the whole walk, not just the first device's share.
        Engine::stats(self)
    }
}

/// How a model worker coalesces queued requests into batches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest coalesced batch.
    pub max_batch: usize,
    /// Longest a batch stays open waiting for more requests once it has one.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Why a submitted query did not produce a verdict.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkError {
    /// The engine rejected or failed the query.
    Verify(VerifyError),
    /// The verification panicked; the panic was contained in the worker.
    Panicked,
    /// The item sat in the admission queue past its deadline and was
    /// dropped before dispatch — the requester already timed out, so
    /// verifying it would only delay live queries.
    Expired,
}

/// Which verification flavor a queued item asks for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum WorkKind {
    /// One incomplete (DeepPoly) robustness pass.
    Plain,
    /// Branch-and-bound refinement under this budget.
    Complete(RefineBudget),
}

/// A successful verification outcome, shaped by the request's [`WorkKind`].
#[derive(Clone, Debug)]
pub enum WorkOutput {
    /// Reply to a plain robustness query.
    Plain(RobustnessVerdict<f32>),
    /// Reply to a complete-mode query (always `f64`; see `BatchVerifier`).
    Complete(CompleteVerdict<f64>),
}

/// The reply side of one submitted query.
pub type WorkReply = Result<WorkOutput, WorkError>;

/// A reply channel paired with the admission cost charge it must credit
/// back when answered.
type ChargedReply = (Sender<WorkReply>, u64);

/// One queued verification request.
pub(crate) struct WorkItem {
    pub image: Vec<f32>,
    pub label: usize,
    pub eps: f32,
    pub kind: WorkKind,
    /// The admission-time reply deadline. Items still queued past it are
    /// dropped with a typed `Expired` reply instead of dispatched — the
    /// serving layer stopped waiting at exactly this instant, so any
    /// verification after it is pure waste.
    pub deadline: Option<Instant>,
    /// Estimated wall microseconds charged to `pending_cost_us` at
    /// admission; the worker credits back exactly this amount when the
    /// reply goes out, so the gauge can never drift.
    pub cost_us: u64,
    pub reply: Sender<WorkReply>,
}

/// Spawns the worker thread for one model and waits for its engine to come
/// up. On success the model is resident: `stats.resident_bytes` is set and
/// the returned sender is the admission queue (capacity `queue_cap`).
///
/// The worker runs an [`Engine`] over `devices`, placed by `plan`
/// ([`Engine::on_pool`]: the walks of every row list dealt over the pool's
/// stream slots; one device under the default plan is the plain engine), or
/// — when
/// `precision_tier` is set — a [`TieredEngine`] on the first device alone:
/// the tiered flavor is single-device and refuses to combine with a pool
/// plan (the server validates that at bind time).
///
/// `retire` is invoked with the item's admission cost charge every time a
/// reply goes out — the hook the registry uses to credit the device pool's
/// load gauge.
///
/// # Errors
///
/// The typed engine-construction error when the network cannot be prepared
/// on the device(s) — `VerifyError::Device` in particular keeps its type so
/// the registry can answer a model that simply doesn't fit with a
/// structured `device_oom` instead of a generic load failure.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_worker<B: Backend>(
    name: String,
    net: Network<f32>,
    devices: Vec<Device<B>>,
    verify: VerifyConfig,
    policy: BatchPolicy,
    queue_cap: usize,
    precision_tier: bool,
    plan: Plan,
    stats: Arc<ModelStats>,
    retire: RetireFn,
) -> Result<(SyncSender<WorkItem>, JoinHandle<()>), VerifyError> {
    if devices.is_empty() {
        return Err(VerifyError::Internal(
            "worker needs at least one device".to_string(),
        ));
    }
    let (tx, rx) = std::sync::mpsc::sync_channel::<WorkItem>(queue_cap.max(1));
    let (startup_tx, startup_rx) = std::sync::mpsc::channel::<Result<(), VerifyError>>();
    let join = std::thread::Builder::new()
        .name(format!("gpupoly-serve-{name}"))
        .spawn(move || {
            // Every engine flavor borrows networks living on this thread's
            // stack; the startup handshake and batching loop are shared.
            let serve = |engine: &dyn BatchVerifier| {
                let snapshot = engine.stats();
                stats
                    .resident_bytes
                    .store(snapshot.resident_bytes as u64, Ordering::Release);
                // Admission threads compute cost hints from this depth.
                stats
                    .relu_layers
                    .store(snapshot.relu_layers as u64, Ordering::Release);
                let _ = startup_tx.send(Ok(()));
                run_loop(engine, &rx, policy, &stats, &retire);
            };
            let refuse = |e: VerifyError| {
                let _ = startup_tx.send(Err(e));
            };
            if precision_tier {
                // The widened copy also lives on this stack, so the tiered
                // engine's two borrows share the worker as their owner.
                let device = devices.into_iter().next().expect("checked non-empty");
                let wide = net.widen();
                match TieredEngine::new(device, &net, &wide, verify) {
                    Ok(engine) => serve(&engine),
                    Err(e) => refuse(e),
                };
            } else {
                match Engine::on_pool(devices, plan, &net, verify, EngineOptions::default()) {
                    Ok(engine) => serve(&engine),
                    Err(e) => refuse(e),
                }
            }
        })
        .map_err(|e| VerifyError::Internal(format!("spawn worker thread: {e}")))?;
    match startup_rx.recv() {
        Ok(Ok(())) => Ok((tx, join)),
        Ok(Err(e)) => {
            let _ = join.join();
            Err(e)
        }
        Err(_) => {
            // The worker died before reporting: surface it as a load failure.
            let _ = join.join();
            Err(VerifyError::Internal(
                "model worker exited during startup".to_string(),
            ))
        }
    }
}

fn run_loop(
    engine: &dyn BatchVerifier,
    rx: &Receiver<WorkItem>,
    policy: BatchPolicy,
    stats: &ModelStats,
    retire: &RetireFn,
) {
    loop {
        // Block for the head of the next batch; channel closed = shut down.
        let Ok(first) = rx.recv() else {
            return;
        };
        stats.queue_depth.fetch_sub(1, Ordering::AcqRel);
        let mut batch = vec![first];
        let deadline = Instant::now() + policy.max_delay;
        while batch.len() < policy.max_batch.max(1) {
            let timeout = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(timeout) {
                Ok(item) => {
                    stats.queue_depth.fetch_sub(1, Ordering::AcqRel);
                    batch.push(item);
                }
                Err(RecvTimeoutError::Timeout) => break,
                // Sender gone: answer what we have, then exit via recv().
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        #[cfg(test)]
        let _held_by_a_test = stats.dispatch_gate.lock();
        run_batch(engine, batch, stats, retire);
    }
}

/// Mirrors the engine-side counters into the serving stats. Called after
/// every engine call and *before* the replies it produced go out, so a
/// requester that has its verdict in hand already sees consistent stats.
fn mirror_engine_stats(engine: &dyn BatchVerifier, stats: &ModelStats) {
    let snapshot = engine.stats();
    stats
        .cache_hits
        .store(snapshot.cache_hits, Ordering::Release);
    stats
        .cache_misses
        .store(snapshot.cache_misses, Ordering::Release);
    stats
        .fused_batches
        .store(snapshot.fused_batches, Ordering::Release);
    stats
        .fast_pass_resolved
        .store(snapshot.fast_pass_resolved, Ordering::Release);
    stats.escalated.store(snapshot.escalated, Ordering::Release);
    stats.splits.store(snapshot.splits, Ordering::Release);
    stats
        .frontier_peak
        .store(snapshot.frontier_peak, Ordering::Release);
    stats
        .proven_by_split
        .store(snapshot.proven_by_split, Ordering::Release);
    stats.cex_found.store(snapshot.cex_found, Ordering::Release);
    // Feed the measured per-batch wall time (folded by the engine into its
    // ms-per-cost EWMA) back to the admission side.
    stats
        .ewma_ms_per_cost_bits
        .store(snapshot.ewma_ms_per_cost.to_bits(), Ordering::Release);
}

fn run_batch(
    engine: &dyn BatchVerifier,
    batch: Vec<WorkItem>,
    stats: &ModelStats,
    retire: &RetireFn,
) {
    let answer = |reply: &Sender<WorkReply>, cost_us: u64, result: WorkReply| {
        stats.completed.fetch_add(1, Ordering::Relaxed);
        stats.in_flight.fetch_sub(1, Ordering::AcqRel);
        stats.pending_cost_us.fetch_sub(cost_us, Ordering::AcqRel);
        // Release the admission pin and the pool load charge on every reply
        // path — verdict, typed error, expiry, and contained panic alike —
        // so eviction pinning and least-loaded routing both stay exact.
        stats.unpin();
        retire(cost_us);
        let _ = reply.send(result);
    };

    // Drop expired items before any engine work: their requesters stopped
    // waiting at the stamped deadline, so dispatching them would spend
    // engine time on queries nobody can receive — and delay live ones.
    let now = Instant::now();
    let mut plain: Vec<WorkItem> = Vec::new();
    let mut complete: Vec<(RefineBudget, Vec<WorkItem>)> = Vec::new();
    for item in batch {
        if item.deadline.is_some_and(|d| now >= d) {
            stats.expired_dropped.fetch_add(1, Ordering::Relaxed);
            answer(&item.reply, item.cost_us, Err(WorkError::Expired));
            continue;
        }
        match item.kind {
            WorkKind::Plain => plain.push(item),
            // Complete-mode items coalesce per identical budget, so one
            // frontier dispatch refines all sub-boxes of a budget class
            // together (distinct budgets per batch are rare and few).
            WorkKind::Complete(budget) => match complete.iter_mut().find(|(b, _)| *b == budget) {
                Some((_, items)) => items.push(item),
                None => complete.push((budget, vec![item])),
            },
        }
    }
    let live = plain.len() + complete.iter().map(|(_, items)| items.len()).sum::<usize>();
    if live == 0 {
        return;
    }
    stats.record_batch(live);

    // Move each image out of its work item (no per-query copy on the hot
    // path); only the reply senders and admission cost charges survive the
    // split. A coalesced admission batch is exactly a set of same-network
    // queries: dispatch through the fused cross-query path, which stacks
    // their backsubstitution rows into one launch per layer step (and falls
    // back to per-query dispatch itself when fusion is unprofitable). A
    // panic anywhere inside verification must reach every requester as a
    // typed reply, never unwind through the daemon or strand a client.
    let split = |items: Vec<WorkItem>| -> (Vec<Query<f32>>, Vec<ChargedReply>) {
        items
            .into_iter()
            .map(|item| {
                (
                    Query::new(item.image, item.label, item.eps),
                    (item.reply, item.cost_us),
                )
            })
            .unzip()
    };
    let settle = |replies: &[ChargedReply], results: Result<Vec<WorkReply>, ()>| {
        mirror_engine_stats(engine, stats);
        match results {
            Ok(results) => {
                for ((reply, cost_us), result) in replies.iter().zip(results) {
                    answer(reply, *cost_us, result);
                }
            }
            Err(()) => {
                for (reply, cost_us) in replies {
                    answer(reply, *cost_us, Err(WorkError::Panicked));
                }
            }
        }
    };

    if !plain.is_empty() {
        let (queries, replies) = split(plain);
        let results =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.verify(&queries)));
        settle(
            &replies,
            results
                .map(|rs| {
                    rs.into_iter()
                        .map(|r| r.map(WorkOutput::Plain).map_err(WorkError::Verify))
                        .collect()
                })
                .map_err(|_| ()),
        );
    }
    for (budget, items) in complete {
        let (queries, replies) = split(items);
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.verify_complete(&queries, &budget)
        }));
        settle(
            &replies,
            results
                .map(|rs| {
                    rs.into_iter()
                        .map(|r| r.map(WorkOutput::Complete).map_err(WorkError::Verify))
                        .collect()
                })
                .map_err(|_| ()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpupoly_nn::builder::NetworkBuilder;

    fn tiny_net() -> Network<f32> {
        NetworkBuilder::new_flat(2)
            .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
            .relu()
            .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.5, 0.0])
            .build()
            .unwrap()
    }

    fn submit_item(
        tx: &SyncSender<WorkItem>,
        stats: &ModelStats,
        image: Vec<f32>,
        label: usize,
        eps: f32,
        kind: WorkKind,
        deadline: Option<Instant>,
    ) -> Receiver<WorkReply> {
        let (reply, rx) = std::sync::mpsc::channel();
        stats.queue_depth.fetch_add(1, Ordering::AcqRel);
        stats.in_flight.fetch_add(1, Ordering::AcqRel);
        stats.pin();
        tx.try_send(WorkItem {
            image,
            label,
            eps,
            kind,
            deadline,
            cost_us: 0,
            reply,
        })
        .expect("queue has room");
        rx
    }

    fn submit(
        tx: &SyncSender<WorkItem>,
        stats: &ModelStats,
        image: Vec<f32>,
        label: usize,
        eps: f32,
    ) -> Receiver<WorkReply> {
        submit_item(tx, stats, image, label, eps, WorkKind::Plain, None)
    }

    fn plain(output: WorkOutput) -> RobustnessVerdict<f32> {
        match output {
            WorkOutput::Plain(v) => v,
            other => panic!("expected a plain verdict, got {other:?}"),
        }
    }

    #[test]
    fn worker_serves_batches_and_shuts_down_cleanly() {
        let device = Device::default();
        let stats = Arc::new(ModelStats::default());
        let (tx, join) = spawn_worker(
            "tiny".into(),
            tiny_net(),
            vec![device.clone()],
            VerifyConfig::default(),
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(20),
            },
            16,
            false,
            Plan::default(),
            stats.clone(),
            Arc::new(|_| {}),
        )
        .unwrap();
        assert!(stats.resident_bytes.load(Ordering::Acquire) > 0);

        let replies: Vec<Receiver<WorkReply>> = (0..6)
            .map(|i| submit(&tx, &stats, vec![0.4, 0.6], 0, 0.01 + 0.005 * i as f32))
            .collect();
        for rx in replies {
            let verdict = plain(
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("worker replies")
                    .expect("query succeeds"),
            );
            assert!(verdict.verified);
        }
        assert_eq!(stats.completed.load(Ordering::Relaxed), 6);
        assert!(stats.batches.load(Ordering::Relaxed) >= 1);
        assert!(stats.idle());

        // Bad queries come back as typed errors through the same queue.
        let rx = submit(&tx, &stats, vec![0.4], 0, 0.01);
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            Err(WorkError::Verify(VerifyError::BadQuery(_))) => {}
            other => panic!("expected BadQuery, got {other:?}"),
        }

        drop(tx);
        join.join().expect("worker exits without panicking");
        assert_eq!(device.memory_in_use(), 0, "eviction returns every byte");
    }

    #[test]
    fn tiered_worker_serves_and_reports_tier_split() {
        let device = Device::default();
        let stats = Arc::new(ModelStats::default());
        let (tx, join) = spawn_worker(
            "tiny-tiered".into(),
            tiny_net(),
            vec![device.clone()],
            VerifyConfig::default(),
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(20),
            },
            16,
            true,
            Plan::default(),
            stats.clone(),
            Arc::new(|_| {}),
        )
        .unwrap();
        // Both precisions' weights are resident.
        assert!(stats.resident_bytes.load(Ordering::Acquire) > 0);

        // Easy queries resolve in the fast tier; the hopeless one escalates.
        let easy: Vec<Receiver<WorkReply>> = (0..4)
            .map(|_| submit(&tx, &stats, vec![0.4, 0.6], 0, 0.01))
            .collect();
        for rx in easy {
            let verdict = plain(
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("worker replies")
                    .expect("query succeeds"),
            );
            assert!(verdict.verified);
        }
        let rx = submit(&tx, &stats, vec![0.5, 0.5], 1, 0.9);
        let verdict = plain(
            rx.recv_timeout(Duration::from_secs(10))
                .expect("worker replies")
                .expect("query runs"),
        );
        assert!(!verdict.verified);

        assert_eq!(
            stats.fast_pass_resolved.load(Ordering::Acquire)
                + stats.escalated.load(Ordering::Acquire),
            5,
            "every query is attributed to exactly one tier"
        );
        assert!(stats.escalated.load(Ordering::Acquire) >= 1);

        drop(tx);
        join.join().expect("worker exits without panicking");
        assert_eq!(device.memory_in_use(), 0, "both tiers return every byte");
    }

    #[test]
    fn sharded_worker_spans_devices_retires_charges_and_frees_all() {
        use gpupoly_device::DeviceConfig;
        use std::sync::atomic::AtomicU64;
        let devices: Vec<Device> = (0..2)
            .map(|i| Device::new(DeviceConfig::new().workers(1).name(format!("w{i}"))))
            .collect();
        let handles = devices.clone();
        let stats = Arc::new(ModelStats::default());
        let retired = Arc::new(AtomicU64::new(0));
        let retired_in_worker = retired.clone();
        let (tx, join) = spawn_worker(
            "tiny-sharded".into(),
            tiny_net(),
            devices,
            VerifyConfig::default(),
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(20),
            },
            16,
            false,
            Plan {
                split_rows: true,
                shard_weights: false,
            },
            stats.clone(),
            Arc::new(move |cost| {
                retired_in_worker.fetch_add(cost.max(1), Ordering::AcqRel);
            }),
        )
        .unwrap();
        // Weights resident on *both* devices; resident_bytes sums them.
        assert!(handles.iter().all(|d| d.memory_in_use() > 0));
        assert!(
            stats.resident_bytes.load(Ordering::Acquire) as usize
                >= handles.iter().map(|d| d.memory_in_use()).sum::<usize>()
        );

        let replies: Vec<Receiver<WorkReply>> = (0..5)
            .map(|i| submit(&tx, &stats, vec![0.4, 0.6], 0, 0.01 + 0.004 * i as f32))
            .collect();
        for rx in replies {
            let verdict = plain(
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("worker replies")
                    .expect("query succeeds"),
            );
            assert!(verdict.verified);
        }
        assert_eq!(stats.completed.load(Ordering::Relaxed), 5);
        assert_eq!(
            retired.load(Ordering::Acquire),
            5,
            "every reply retires its charge"
        );
        assert_eq!(
            stats.pinned.load(Ordering::Acquire),
            0,
            "every reply unpins"
        );

        drop(tx);
        join.join().expect("sharded worker exits cleanly");
        for d in &handles {
            assert_eq!(d.memory_in_use(), 0, "eviction frees every device");
        }
    }

    #[test]
    fn expired_items_are_dropped_before_dispatch_with_typed_replies() {
        let device = Device::default();
        let stats = Arc::new(ModelStats::default());
        let (tx, join) = spawn_worker(
            "expiry".into(),
            tiny_net(),
            vec![device],
            VerifyConfig::default(),
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(20),
            },
            16,
            false,
            Plan::default(),
            stats.clone(),
            Arc::new(|_| {}),
        )
        .unwrap();

        // One item admitted with an already-passed deadline (deterministic:
        // no sleep needed, the worker must see it as expired however fast
        // it pops) coalesced with one live item.
        let past = Instant::now() - Duration::from_secs(1);
        let dead = submit_item(
            &tx,
            &stats,
            vec![0.4, 0.6],
            0,
            0.01,
            WorkKind::Plain,
            Some(past),
        );
        let live = submit_item(
            &tx,
            &stats,
            vec![0.4, 0.6],
            0,
            0.01,
            WorkKind::Plain,
            Some(Instant::now() + Duration::from_secs(60)),
        );

        match dead.recv_timeout(Duration::from_secs(10)).unwrap() {
            Err(WorkError::Expired) => {}
            other => panic!("expected Expired, got {other:?}"),
        }
        let verdict = plain(
            live.recv_timeout(Duration::from_secs(10))
                .unwrap()
                .expect("live item still verifies"),
        );
        assert!(verdict.verified);
        assert_eq!(stats.expired_dropped.load(Ordering::Acquire), 1);
        assert_eq!(stats.completed.load(Ordering::Relaxed), 2);
        assert!(stats.idle(), "expired items settle every gauge");

        drop(tx);
        join.join().unwrap();
    }

    #[test]
    fn complete_mode_items_ride_the_same_queue() {
        let device = Device::default();
        let stats = Arc::new(ModelStats::default());
        let (tx, join) = spawn_worker(
            "complete".into(),
            tiny_net(),
            vec![device],
            VerifyConfig::default(),
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(20),
            },
            16,
            false,
            Plan::default(),
            stats.clone(),
            Arc::new(|_| {}),
        )
        .unwrap();

        let rx = submit_item(
            &tx,
            &stats,
            vec![0.4, 0.6],
            0,
            0.01,
            WorkKind::Complete(RefineBudget::with_max_splits(4)),
            None,
        );
        match rx.recv_timeout(Duration::from_secs(10)).unwrap().unwrap() {
            WorkOutput::Complete(CompleteVerdict::Proven { base, splits }) => {
                assert!(base.is_some(), "decided base rides along");
                assert_eq!(splits, 0, "an easy query spends no splits");
            }
            other => panic!("expected a complete Proven verdict, got {other:?}"),
        }

        drop(tx);
        join.join().unwrap();
    }

    #[test]
    fn startup_failure_is_reported_not_hung() {
        // Residual branches that agree in *length* but not in shape pass
        // network validation (which compares lengths) yet are rejected by
        // engine preparation (which needs identical shapes for the cuboid
        // merge) — exactly the kind of model file a daemon must refuse to
        // load without hanging the requester.
        use gpupoly_nn::Shape;
        let net = NetworkBuilder::new(Shape::new(2, 2, 1))
            .residual(
                |a| a.conv(1, (1, 1), (1, 1), (0, 0), vec![1.0_f32], vec![0.0]),
                |b| b.dense_flat(4, vec![0.0_f32; 16], vec![0.0; 4]),
            )
            .build()
            .expect("passes length-based network validation");
        let device: Device = Device::default();
        let stats = Arc::new(ModelStats::default());
        let err = spawn_worker(
            "mismatched".into(),
            net,
            vec![device.clone()],
            VerifyConfig::default(),
            BatchPolicy::default(),
            4,
            false,
            Plan::default(),
            stats,
            Arc::new(|_| {}),
        )
        .map(|_| ())
        .unwrap_err()
        .to_string();
        assert!(err.contains("shape"), "unhelpful startup error: {err}");
        assert_eq!(device.memory_in_use(), 0, "failed startup leaks nothing");
    }
}

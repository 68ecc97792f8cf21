//! The admission batcher: one thread per resident model, and one drainer
//! per daemon device pulling batches from the model's one queue.
//!
//! The model thread *owns* its `Network` and the engine built over it — the
//! engine borrows the network, so tying both to one thread's stack gives the
//! resident pair a single owner with no self-referential storage. Requests
//! arrive over a bounded channel (the admission queue). Inside a
//! `std::thread::scope` the model thread runs the drainers, itself one of
//! them, over that channel behind one lock. A drainer coalesces a batch
//! under the lock, bounded by a max-batch / max-delay policy, then lets go
//! and runs it, so the next drainer's batch forms while this one's verifies:
//!
//! * the first request of a batch is taken blocking (an idle model costs
//!   nothing),
//! * further requests are drained until the batch holds `max_batch` queries
//!   or `max_delay` has passed since the batch opened — the classic
//!   admission trade of a little latency for a lot of coalescing,
//! * the whole batch runs as one fused call on the one engine (one analysis
//!   cache, whichever drainer runs it), and every requester gets its own
//!   reply.
//!
//! Dropping the queue sender shuts the model down: the drainers answer what
//! is already queued, then the engine drops and every device byte the model
//! pinned (weights and pooled buffers) returns to the device.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gpupoly_core::{
    CompleteVerdict, EngineOptions, Plan, Query, RefineBudget, RobustnessVerdict, TieredEngine,
    VerifyConfig, VerifyError,
};
use gpupoly_device::{Backend, Device};
use gpupoly_nn::Network;

use crate::stats::ModelStats;

/// How a model's drainers coalesce queued requests into batches.
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
    /// Reply to a complete-mode query (always `f64`: the tier escalates
    /// before splitting, and `f32` verdicts widen losslessly).
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

/// Spawns the thread for one model and waits for its engine to come up. On
/// success the model is resident: `stats.resident_bytes` is set and the
/// returned sender is the admission queue (capacity `queue_cap`), drained by
/// `drainers` threads.
///
/// The thread runs one [`TieredEngine`] over `devices`, placed by `plan`
/// ([`TieredEngine::on_pool`]: the walks of every row list dealt over the
/// pool's stream slots). Given the widened network `wide`, the engine
/// escalates to its `f64` rung; without one it is the `f32` engine alone.
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
    wide: Option<Network<f64>>,
    devices: Vec<Device<B>>,
    drainers: usize,
    verify: VerifyConfig,
    policy: BatchPolicy,
    queue_cap: usize,
    plan: Plan,
    stats: Arc<ModelStats>,
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
            // The engine borrows both networks, which live on this
            // thread's stack: the worker is their one owner.
            match TieredEngine::on_pool(
                devices,
                plan,
                &net,
                wide.as_ref(),
                verify,
                EngineOptions::default(),
            ) {
                Ok(engine) => {
                    let snapshot = engine.stats();
                    stats
                        .resident_bytes
                        .store(snapshot.resident_bytes as u64, Ordering::Release);
                    // Admission threads compute cost hints from this depth.
                    stats
                        .relu_layers
                        .store(snapshot.relu_layers as u64, Ordering::Release);
                    let _ = startup_tx.send(Ok(()));
                    let rx = Mutex::new(rx);
                    std::thread::scope(|scope| {
                        for _ in 1..drainers {
                            scope.spawn(|| drain(&engine, &rx, policy, &stats));
                        }
                        drain(&engine, &rx, policy, &stats);
                    });
                }
                Err(e) => {
                    let _ = startup_tx.send(Err(e));
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

/// One drainer: coalesces a batch under the queue's lock, lets go, runs the
/// batch, and again, until the queue closes.
fn drain<B: Backend>(
    engine: &TieredEngine<'_, B>,
    rx: &Mutex<Receiver<WorkItem>>,
    policy: BatchPolicy,
    stats: &ModelStats,
) {
    loop {
        let batch = {
            let rx = rx.lock();
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
            batch
        };
        #[cfg(test)]
        let _held_by_a_test = stats.dispatch_gate.lock();
        run_batch(engine, batch, stats);
    }
}

/// Mirrors the engine-side counters into the serving stats. Called after
/// every engine call and *before* the replies it produced go out, so a
/// requester that has its verdict in hand already sees consistent stats.
/// The counters only grow, so a drainer whose snapshot is older than
/// another's never winds them back.
fn mirror_engine_stats<B: Backend>(engine: &TieredEngine<'_, B>, stats: &ModelStats) {
    let snapshot = engine.stats();
    for (counter, value) in [
        (&stats.cache_hits, snapshot.cache_hits),
        (&stats.cache_misses, snapshot.cache_misses),
        (&stats.fused_batches, snapshot.fused_batches),
        (&stats.fast_pass_resolved, snapshot.fast_pass_resolved),
        (&stats.escalated, snapshot.escalated),
        (&stats.splits, snapshot.splits),
        (&stats.frontier_peak, snapshot.frontier_peak),
        (&stats.proven_by_split, snapshot.proven_by_split),
        (&stats.cex_found, snapshot.cex_found),
    ] {
        counter.fetch_max(value, Ordering::AcqRel);
    }
    // Feed the measured per-batch wall time (folded by the engine into its
    // ms-per-cost EWMA) back to the admission side.
    stats
        .ewma_ms_per_cost_bits
        .store(snapshot.ewma_ms_per_cost.to_bits(), Ordering::Release);
}

fn run_batch<B: Backend>(engine: &TieredEngine<'_, B>, batch: Vec<WorkItem>, stats: &ModelStats) {
    let answer = |reply: &Sender<WorkReply>, cost_us: u64, result: WorkReply| {
        stats.completed.fetch_add(1, Ordering::Relaxed);
        stats.in_flight.fetch_sub(1, Ordering::AcqRel);
        stats.pending_cost_us.fetch_sub(cost_us, Ordering::AcqRel);
        // Release the admission pin on every reply path — verdict, typed
        // error, expiry, and contained panic alike — so eviction pinning
        // stays exact.
        stats.unpin();
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
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.verify_batch(&queries)
        }));
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
            engine.verify_complete_batch(&queries, &budget)
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

    /// The admission cost charge every test item carries.
    const CHARGE_US: u64 = 7;

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
        stats.pending_cost_us.fetch_add(CHARGE_US, Ordering::AcqRel);
        stats.pin();
        tx.try_send(WorkItem {
            image,
            label,
            eps,
            kind,
            deadline,
            cost_us: CHARGE_US,
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
            None,
            vec![device.clone()],
            1,
            VerifyConfig::default(),
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(20),
            },
            16,
            Plan::default(),
            stats.clone(),
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
            Some(tiny_net().widen()),
            vec![device.clone()],
            1,
            VerifyConfig::default(),
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(20),
            },
            16,
            Plan::default(),
            stats.clone(),
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
        let devices: Vec<Device> = (0..2)
            .map(|i| Device::new(DeviceConfig::new().workers(1).name(format!("w{i}"))))
            .collect();
        let handles = devices.clone();
        let stats = Arc::new(ModelStats::default());
        let (tx, join) = spawn_worker(
            "tiny-sharded".into(),
            tiny_net(),
            None,
            devices,
            2,
            VerifyConfig::default(),
            BatchPolicy {
                max_batch: 2,
                max_delay: Duration::from_millis(20),
            },
            16,
            Plan {
                split_rows: true,
                shard_weights: false,
            },
            stats.clone(),
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
            stats.pending_cost_us.load(Ordering::Acquire),
            0,
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
            None,
            vec![device],
            1,
            VerifyConfig::default(),
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(20),
            },
            16,
            Plan::default(),
            stats.clone(),
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
            None,
            vec![device],
            1,
            VerifyConfig::default(),
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(20),
            },
            16,
            Plan::default(),
            stats.clone(),
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
            None,
            vec![device.clone()],
            1,
            VerifyConfig::default(),
            BatchPolicy::default(),
            4,
            Plan::default(),
            stats,
        )
        .map(|_| ())
        .unwrap_err()
        .to_string();
        assert!(err.contains("shape"), "unhelpful startup error: {err}");
        assert_eq!(device.memory_in_use(), 0, "failed startup leaks nothing");
    }
}

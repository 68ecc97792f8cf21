//! Pool-sharded verification: one engine surface over a device pool, placed
//! by a [`Plan`] of two independent choices — who walks rows, and where
//! weights live — the two axes of "Scaling NN Verification with Tensor
//! Parallelism and FSDP" (arXiv 2606.09377).
//!
//! A [`ShardedEngine`] is a set of *walkers* — plain [`Engine`]s, one per
//! walking device — handed as lanes to the one walk driver
//! ([`Engine::verify_batch_fused`] is that driver over a single lane). The
//! plan only decides how many walkers there are and what their weights
//! are; the default plan on one device is the engine itself.
//!
//! # Who walks rows ([`Plan::split_rows`])
//!
//! The fused cross-query path stacks every admitted query's robustness-spec
//! rows into one [`crate::ExprBatch`] per layer step, and every kernel of
//! that walk is per-row. With `split_rows`, every pool device is a walker:
//! the stacked row space is cut into contiguous blocks, each walked on its
//! own device, and the concretized bounds are spliced back in ascending row
//! order — *pure scheduling*, so the merged margins are **bit-identical**
//! to the single-device fused walk; the all-reduce of the FSDP-verification
//! decomposition degenerates to an ordered gather because no partial sums
//! ever cross a row boundary. Concrete bounds (the DeepPoly analysis per
//! input box) are the *activations* of that decomposition: computed once —
//! unique boxes are dealt across the walkers and fused per walker — and
//! broadcast to every block as host-side segments, exactly like replicated
//! activations under tensor parallelism. Without `split_rows`, device 0
//! walks alone.
//!
//! # Where weights live ([`Plan::shard_weights`])
//!
//! Without `shard_weights` every walker packs the whole network on its own
//! device, so the largest servable model is bounded by ONE device's memory.
//! With it, the *parameters* are partitioned layer-wise across the pool
//! (each device permanently holds ~1/N of the weight bytes,
//! [`weight_shard_budget`] gives the exact plan — one copy of the model
//! pool-wide) and every walker is a view of that one store: it resolves its
//! own layers copy-free and all-gathers each remote layer's exact bytes
//! onto *itself* just in time, into a capacity-aware gather cache, with
//! upcoming layers' gathers prefetched so they overlap the current layer's
//! step (see [`crate::fsdp`]). Gathers reconstruct bit patterns, never
//! values, so margins stay **bit-identical** to a single-device run at any
//! pool size. Gathered traffic is metered under the `comms` kernel label
//! on the walking device.
//!
//! The two compose: weights alone buy capacity but zero throughput (N
//! devices hold the model, one walks); with both, every device walks its
//! own row block over the shared shards and the per-device FLOP share drops
//! to ~1/N of the weight-only walk.
//!
//! # Distributed refinement
//!
//! Branch-and-bound refinement ([`ShardedEngine::verify_complete_batch`])
//! round-robins whole frontier *generations* across the walkers: generation
//! `g` dispatches through walker `g % n`, so refinement work and its split
//! counters spread over every walking device (see
//! [`Engine::verify_complete_batch`]; the split tree is the single-device
//! one).

use gpupoly_device::{Backend, Device};
use gpupoly_interval::Fp;
use gpupoly_nn::Network;

use crate::engine::{Engine, EngineOptions, EngineStats, Query};
use crate::error::VerifyError;
use crate::fsdp::ShardStore;
use crate::verifier::RobustnessVerdict;
use crate::{CompleteVerdict, RefineBudget, VerifyConfig};

/// How a [`ShardedEngine`] places a model over its device pool: two
/// independent choices. The default — one walker, its own weights — is a
/// plain [`Engine`] on device 0.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Plan {
    /// Tensor-parallel row sharding: every device walks its own contiguous
    /// block of each batch's stacked spec-row space (off: device 0 walks
    /// alone). Throughput scales with the pool.
    pub split_rows: bool,
    /// FSDP-style weight sharding: each device permanently holds ~1/N of
    /// the weight bytes and walkers all-gather remote layers just in time,
    /// cached capacity-aware and prefetched ahead (off: every walker packs
    /// the whole network on its own device). Serves models bigger than any
    /// single device.
    pub shard_weights: bool,
}

/// The per-device memory plan of a weight-sharded deployment
/// ([`weight_shard_budget`]).
#[derive(Clone, Debug)]
pub struct WeightShardBudget {
    /// Persistent weight+bias bytes each pool device holds under the
    /// deterministic greedy layer partition, in pool order.
    pub per_device: Vec<usize>,
    /// Transient gather overhead on a walking device: two gathered
    /// layers (the one being walked and the prefetched next one) may
    /// coexist, so this is `2 ×` the largest single layer's bytes.
    pub double_buffer: usize,
}

impl WeightShardBudget {
    /// The bytes the most-loaded device must fit: its shard plus — on a
    /// walking device, which is always the most general case an admission
    /// layer should plan for — the transient double buffer.
    pub fn worst_device_bytes(&self) -> usize {
        self.per_device.iter().copied().max().unwrap_or(0) + self.double_buffer
    }
}

/// Computes the deterministic weight-shard plan for `net` over a pool of
/// `devices` devices *without* touching any device: affine layers in
/// topological order, each assigned to the device with the least
/// accumulated bytes so far (ties to the lowest index) — exactly the
/// partition a [`Plan::shard_weights`] pool will materialize. Admission
/// layers use this to charge a weight-sharded model its
/// [`WeightShardBudget::worst_device_bytes`] instead of its full size.
pub fn weight_shard_budget<F: Fp>(net: &Network<F>, devices: usize) -> WeightShardBudget {
    let graph = net.graph();
    let (_, per_device) = crate::fsdp::shard_plan(&graph, devices);
    WeightShardBudget {
        per_device,
        double_buffer: 2 * crate::fsdp::max_layer_bytes(&graph),
    }
}

/// A verification engine over a pool of devices, placed by a [`Plan`] — see
/// the module docs. Margins are bit-identical to the 1-device fused run for
/// every plan and pool size; a pool of one device is that engine.
pub struct ShardedEngine<'n, F: Fp, B: Backend> {
    /// The walkers, on the first `engines.len()` pool devices.
    engines: Vec<Engine<'n, F, B>>,
    /// Every pool device, in order — devices past the walkers only hold
    /// weight shards (if anything), but are still metered.
    devices: Vec<Device<B>>,
    /// With [`Plan::shard_weights`]: persistent weight bytes per device
    /// (empty otherwise — every walker reports its own replicated
    /// residency).
    shard_bytes: Vec<usize>,
}

impl<'n, F: Fp, B: Backend> ShardedEngine<'n, F, B> {
    /// Builds a pool over `devices`: one walker per device with
    /// [`Plan::split_rows`], else one on `devices[0]`; each a resident
    /// [`Engine`] with its own analysis cache and buffer pool, over the
    /// whole network or — with [`Plan::shard_weights`] — over its view of
    /// one pool-wide layer partition. All walkers share one configuration.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] for an empty device list or a graph any
    /// single engine would reject.
    pub fn new(
        devices: Vec<Device<B>>,
        plan: Plan,
        net: &'n Network<F>,
        cfg: VerifyConfig,
        options: EngineOptions,
    ) -> Result<Self, VerifyError> {
        if devices.is_empty() {
            return Err(VerifyError::BadQuery(
                "sharded engine needs at least one device".to_string(),
            ));
        }
        let store = plan
            .shard_weights
            .then(|| ShardStore::build(&devices, &net.graph()));
        let walkers = if plan.split_rows { devices.len() } else { 1 };
        let engines = (0..walkers)
            .map(|i| match &store {
                Some(store) => Engine::over_shards(&devices, i, store.clone(), net, cfg, options),
                None => Engine::with_options(devices[i].clone(), net, cfg, options),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let shard_bytes = store.map_or_else(Vec::new, |s| s.shard_bytes().to_vec());
        Ok(Self {
            engines,
            devices,
            shard_bytes,
        })
    }

    /// Number of pool devices. Without [`Plan::split_rows`] this exceeds the
    /// (single) walker count.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The pool devices, in order.
    pub fn devices(&self) -> &[Device<B>] {
        &self.devices
    }

    /// With [`Plan::shard_weights`]: persistent weight bytes resident per
    /// device under the materialized shard plan. Empty otherwise (weights
    /// are replicated; read each engine's `resident_bytes` instead).
    pub fn shard_resident_bytes(&self) -> &[usize] {
        &self.shard_bytes
    }

    /// The walkers, in pool order (one per device with
    /// [`Plan::split_rows`], else one).
    pub fn engines(&self) -> &[Engine<'n, F, B>] {
        &self.engines
    }

    /// Verifies a batch of robustness queries across the device pool —
    /// [`Engine::verify_batch_fused`] with this pool's walkers as its
    /// lanes, margins **bit-identical** to it on one device (and hence to
    /// the sequential per-query path) at any pool size, under every plan.
    pub fn verify_batch_sharded(
        &self,
        queries: &[Query<F>],
    ) -> Vec<Result<RobustnessVerdict<F>, VerifyError>> {
        Engine::verify_batch_on(&self.engines, queries)
    }

    /// Budgeted branch-and-bound refinement with the frontier distributed
    /// across the walkers — [`Engine::verify_complete_batch`] with this
    /// pool's walkers as its lanes.
    pub fn verify_complete_batch(
        &self,
        queries: &[Query<F>],
        budget: &RefineBudget,
    ) -> Vec<Result<CompleteVerdict<F>, VerifyError>> {
        Engine::verify_complete_on(&self.engines, queries, budget)
    }

    /// Aggregated counters across **all** pool devices: launches, FLOPs,
    /// bytes moved, cache traffic and split counters are summed per device
    /// row, `resident_bytes` totals the pool's persistent weights
    /// (replicated without [`Plan::shard_weights`], the shard sum — i.e. one
    /// model — with it), `peak_resident_bytes` sums each device's own
    /// high-water, and schedule-shape fields (`relu_layers`, the
    /// ms-per-cost EWMA) come from the first engine. Use
    /// [`ShardedEngine::per_device_stats`] for the breakdown.
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

    /// Per-device counters, in pool order: each walker's engine stats (a
    /// weight-sharded walker's `resident_bytes` is its shard, so the pool
    /// aggregate stays one model); devices past the walkers report as shard
    /// holders — their rows carry the shard's resident bytes, the device's
    /// peak-resident high-water and its raw device counters, with
    /// engine-level fields zero.
    pub fn per_device_stats(&self) -> Vec<EngineStats> {
        let mut rows: Vec<EngineStats> = self.engines.iter().map(Engine::stats).collect();
        for (i, dev) in self.devices.iter().enumerate().skip(rows.len()) {
            let ds = dev.stats();
            rows.push(EngineStats {
                resident_bytes: self.shard_bytes.get(i).copied().unwrap_or(0),
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
            let plan = Plan {
                split_rows: false,
                shard_weights: true,
            };
            let sharded = ShardedEngine::new(
                devs.clone(),
                plan,
                &net,
                VerifyConfig::default(),
                EngineOptions::default(),
            )
            .expect("weight-sharded engine");
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
            let plan = Plan {
                split_rows: true,
                shard_weights: true,
            };
            let hybrid =
                ShardedEngine::new(devs.clone(), plan, &net, cfg, EngineOptions::default())
                    .expect("hybrid engine");
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

        let plan = Plan {
            split_rows: true,
            shard_weights: false,
        };
        let sharded = ShardedEngine::new(
            pool(2),
            plan,
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

//! Pool placement: where an engine over a device pool
//! ([`crate::Engine::on_pool`]) walks rows and keeps weights, as a [`Plan`] of two
//! independent choices — the two axes of "Scaling NN Verification with
//! Tensor Parallelism and FSDP" (arXiv 2606.09377). The default plan on one
//! device is the plain engine.
//!
//! # Who walks rows ([`Plan::split_rows`])
//!
//! With `split_rows` every pool device is a walking lane of the one engine:
//! its workers are more stream slots of the one walk schedule
//! ([`crate::analysis`]), so every row list — a layer's refinement rows, a
//! fused batch's stacked spec rows, a branch-and-bound generation — is cut
//! once and its walks dealt over every device, and a lone query's
//! refinement spans the pool. Every kernel of a walk is per-row, so where a
//! row walks is *pure scheduling* and margins are **bit-identical** to one
//! device; the all-reduce of the FSDP-verification decomposition
//! degenerates to an ordered gather because no partial sums ever cross a
//! row boundary. Concrete bounds (the DeepPoly analysis per input box) are
//! the *activations* of that decomposition: held once, in the engine's one
//! analysis cache, and read by every device's walks, exactly like the
//! activations every rank shares under tensor parallelism. Without
//! `split_rows`, device 0 walks alone.
//!
//! # Where weights live ([`Plan::shard_weights`])
//!
//! Without `shard_weights` every walking device packs the whole network on
//! itself, so the largest servable model is bounded by ONE device's memory.
//! With it, the *parameters* are partitioned layer-wise across the pool
//! (each device permanently holds ~1/N of the weight bytes,
//! [`weight_shard_budget`] gives the exact plan — one copy of the model
//! pool-wide) and every walking device reads them through its view of that
//! one store: it resolves its own layers copy-free and all-gathers each
//! remote layer's exact bytes onto *itself* just in time, into a gather
//! cache sized to half the device's free bytes at construction — every
//! remote layer stays gathered after its first use on a device without a
//! memory cap — and never below two of the largest layer (see
//! [`crate::fsdp`]). Gathers
//! reconstruct bit patterns, never values, so margins stay
//! **bit-identical** to a single-device run at any pool size. Gathered
//! traffic is metered under the `comms` kernel label on the walking device.
//!
//! The two compose: weights alone buy capacity but zero throughput (N
//! devices hold the model, one walks); with both, every device walks its
//! share of every list over the shared shards.

use gpupoly_interval::Fp;
use gpupoly_nn::Network;

/// How an engine places a model over its device pool
/// ([`crate::Engine::on_pool`]): two independent choices. The default — one
/// walking device, its own weights — is a plain [`crate::Engine`] on
/// device 0.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Plan {
    /// Tensor-parallel row sharding: every device is a walking lane, and the
    /// walks of every row list are dealt over the pool's stream slots (off:
    /// device 0 walks alone).
    pub split_rows: bool,
    /// FSDP-style weight sharding: each device permanently holds ~1/N of
    /// the weight bytes and walking devices all-gather remote layers just in
    /// time into a gather cache of half their free bytes (unbounded on an
    /// uncapped device; never below two of the largest layer, the floor
    /// [`WeightShardBudget::worst_device_bytes`] charges) (off: every
    /// walking device packs the whole network on itself). Serves models bigger than
    /// any single device.
    pub shard_weights: bool,
}

/// The per-device memory plan of a weight-sharded deployment
/// ([`weight_shard_budget`]).
#[derive(Clone, Debug)]
pub struct WeightShardBudget {
    /// Persistent weight+bias bytes each pool device holds under the
    /// deterministic greedy layer partition, in pool order.
    pub per_device: Vec<usize>,
    /// `2 ×` the largest single layer's bytes: the floor of a walking
    /// device's gather cache (the layer being walked and the one the walk
    /// needs next), and what [`Self::worst_device_bytes`] charges for
    /// gathers. Not a cap: the cache holds up to half the device's free
    /// bytes at construction, and every remote layer on a device without a
    /// memory cap.
    pub double_buffer: usize,
}

impl WeightShardBudget {
    /// The bytes the most-loaded device must fit: its shard plus — on a
    /// walking device, which is always the most general case an admission
    /// layer should plan for — the gather cache's two-layer floor
    /// ([`Self::double_buffer`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompleteVerdict, Engine, EngineOptions, Query, RefineBudget, VerifyConfig};
    use gpupoly_device::{CpuSimBackend, Device, DeviceConfig};
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

    /// Persistent bytes each device holds, off its own gauge.
    fn resident(devs: &[Device<CpuSimBackend>]) -> Vec<usize> {
        devs.iter()
            .map(|d| d.stats().resident_bytes() as usize)
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
            let sharded = Engine::on_pool(
                devs.clone(),
                plan,
                &net,
                VerifyConfig::default(),
                EngineOptions::default(),
            )
            .expect("weight-sharded engine");
            assert_eq!(sharded.devices().len(), n);

            let got = sharded.verify_batch_fused(&qs);
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
            // One walking device: the shard holders ran no kernel.
            for d in &devs[1..] {
                assert_eq!(d.stats().launches(), 0, "one walking device");
            }

            let bytes = resident(&devs);
            if n > 1 {
                // Remote layers exist, so gathers onto device 0 were
                // metered under the comms label…
                let comms = devs[0].stats().kernel_work("comms");
                assert!(comms.bytes_moved > 0, "gathered bytes must be metered");
                assert!(comms.launches > 0);
                // …and every shard holder has a persistent, gauged slice.
                // (The 3-affine-layer net fills at most 3 devices — a pool
                // larger than the layer count leaves the tail empty.)
                for (i, d) in sharded.devices().iter().enumerate().skip(1) {
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
        // every device's walks provably reach every layer below their rows.
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
            let hybrid = Engine::on_pool(devs.clone(), plan, &net, cfg, EngineOptions::default())
                .expect("hybrid engine");
            assert_eq!(hybrid.devices().len(), n);

            let got = hybrid.verify_batch_fused(&qs);
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

            // The weight partition is the weight-mode plan: one model
            // pool-wide, the dry-run budget predicts it exactly.
            let bytes = resident(&devs);
            let budget = weight_shard_budget(&net, n);
            assert_eq!(budget.per_device, bytes);
            let full: usize = bytes.iter().sum();
            assert_eq!(hybrid.stats().resident_bytes, full, "one model pool-wide");

            if n > 1 {
                // Every device did arithmetic (walked its share of rows)…
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
        let on_pool = |devices| {
            Engine::on_pool(
                devices,
                plan,
                &net,
                VerifyConfig::default(),
                EngineOptions::default(),
            )
            .unwrap()
        };
        let devs = pool(2);
        let sharded = on_pool(devs.clone());
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

        // The split tree is the single-device one, and device 1 walked
        // refinement generations: it did more arithmetic than in the base
        // pass alone, run on a fresh pool of the same shape.
        let total_splits = sharded.stats().splits;
        assert_eq!(total_splits, single.stats().splits);
        assert!(total_splits > 0, "the hard query must have split");
        let base_devs = pool(2);
        let _ = on_pool(base_devs.clone()).verify_batch_fused(&qs);
        assert!(
            devs[1].stats().flops() > base_devs[1].stats().flops(),
            "device 1 must walk refinement generations"
        );
    }
}

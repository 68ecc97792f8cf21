//! Verification on a device pool (`Engine::on_pool`): bit-identity of walks
//! dealt over every device to the single-device fused path, error parity,
//! fallback behavior, stats summed over the pool, one analysis cache per
//! pool, and the pool of one device being the engine.

use gpupoly_core::{Engine, EngineOptions, Plan, Query, RefineBudget, VerifyConfig};
use gpupoly_device::{Backend, CpuSimBackend, Device, DeviceConfig, ReferenceBackend};
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::{Network, Shape};

/// A deterministic dense ReLU network over `inputs` inputs.
fn dense_net(seed: u64, inputs: usize, depth: usize, width: usize, outputs: usize) -> Network<f32> {
    let mix = |i: usize, s: u64| {
        ((((i as u64 + 17) * (s + 29)) * 2654435761 % 2001) as f32 / 1000.0 - 1.0) * 0.5
    };
    let mut b = NetworkBuilder::new_flat(inputs);
    let mut in_len = inputs;
    for layer in 0..depth {
        let w: Vec<f32> = (0..width * in_len)
            .map(|i| mix(i, seed + layer as u64))
            .collect();
        let bias: Vec<f32> = (0..width)
            .map(|i| mix(i, seed + 100 + layer as u64) * 0.4)
            .collect();
        b = b.dense_flat(width, w, bias).relu();
        in_len = width;
    }
    let w: Vec<f32> = (0..outputs * in_len).map(|i| mix(i, seed + 999)).collect();
    b.dense_flat(outputs, w, vec![0.0; outputs])
        .build()
        .expect("valid net")
}

/// A deterministic dense ReLU network over four inputs.
fn random_net(seed: u64, depth: usize, width: usize, outputs: usize) -> Network<f32> {
    dense_net(seed, 4, depth, width, outputs)
}

/// 64 inputs, three 96-wide ReLU layers, 10 outputs: a single query's
/// refinement lists reach `STREAM_MIN_COEFFS` (rows × the widest layer), so
/// they are cut across the pool — a smaller network's list of one query's
/// rows is one walk on the first device.
fn wide_net() -> Network<f32> {
    dense_net(23, 64, 3, 96, 10)
}

/// Queries over `wide_net`.
fn wide_queries(n: usize) -> Vec<Query<f32>> {
    queries(n, 64, 10)
        .into_iter()
        .map(|q| Query::new(q.image, q.label, 0.02))
        .collect()
}

/// A small conv+dense network so the sharded walk also crosses GBC steps.
fn conv_net() -> Network<f32> {
    NetworkBuilder::new(Shape::new(4, 4, 1))
        .conv(
            2,
            (3, 3),
            (1, 1),
            (1, 1),
            (0..2 * 3 * 3)
                .map(|i| ((i % 7) as f32 - 3.0) * 0.15)
                .collect(),
            vec![0.05, -0.05],
        )
        .relu()
        .flatten_dense(4, |i| ((i % 11) as f32 - 5.0) * 0.1, |_| 0.0)
        .build()
        .expect("conv net builds")
}

fn queries(n: usize, in_len: usize, outputs: usize) -> Vec<Query<f32>> {
    (0..n)
        .map(|q| {
            let image: Vec<f32> = (0..in_len)
                .map(|i| 0.2 + 0.6 * (((q * 31 + i * 7) % 97) as f32 / 97.0))
                .collect();
            Query::new(image, q % outputs, 0.01 + 0.004 * (q % 4) as f32)
        })
        .collect()
}

fn devices<B: Backend + Default>(n: usize) -> Vec<Device<B>> {
    (0..n)
        .map(|i| {
            Device::with_backend(
                B::default(),
                DeviceConfig::new().workers(1).name(format!("d{i}")),
            )
        })
        .collect()
}

/// Every device walks; each packs the whole network.
const ROWS: Plan = Plan {
    split_rows: true,
    shard_weights: false,
};

/// A row-sharded engine over `pool`, with default options.
fn on<B: Backend>(pool: Vec<Device<B>>, net: &Network<f32>) -> Engine<'_, f32, B> {
    Engine::on_pool(
        pool,
        ROWS,
        net,
        VerifyConfig::default(),
        EngineOptions::default(),
    )
    .expect("pool engine")
}

/// A row-sharded pool of `n` one-worker devices with default options.
fn rows_pool<B: Backend + Default>(n: usize, net: &Network<f32>) -> Engine<'_, f32, B> {
    on(devices::<B>(n), net)
}

/// A one-worker, one-device engine over `net`.
fn single(net: &Network<f32>) -> Engine<'_, f32, CpuSimBackend> {
    Engine::new(
        Device::with_backend(CpuSimBackend, DeviceConfig::new().workers(1)),
        net,
        VerifyConfig::default(),
    )
    .expect("single engine")
}

/// Every margin's bits, in query order.
fn margin_bits(
    verdicts: &[Result<gpupoly_core::RobustnessVerdict<f32>, gpupoly_core::VerifyError>],
) -> Vec<u32> {
    verdicts
        .iter()
        .flat_map(|v| {
            v.as_ref()
                .expect("verdict")
                .margins
                .iter()
                .map(|m| m.lower.to_bits())
        })
        .collect()
}

fn assert_bit_identical<B: Backend + Default>(net: &Network<f32>, batch: &[Query<f32>]) {
    let single = Engine::new(
        Device::with_backend(B::default(), DeviceConfig::new().workers(1)),
        net,
        VerifyConfig::default(),
    )
    .expect("single engine");
    let expected = single.verify_batch_fused(batch);
    for n in [1usize, 2, 3, 4, 7] {
        let sharded = rows_pool::<B>(n, net);
        let got = sharded.verify_batch_fused(batch);
        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            match (g, e) {
                (Ok(g), Ok(e)) => {
                    assert_eq!(g.verified, e.verified, "query {i}, {n} devices");
                    assert_eq!(g.margins.len(), e.margins.len());
                    for (mg, me) in g.margins.iter().zip(&e.margins) {
                        assert_eq!(mg.adversary, me.adversary, "query {i}, {n} devices");
                        assert_eq!(mg.proven, me.proven, "query {i}, {n} devices");
                        assert_eq!(
                            mg.lower.to_bits(),
                            me.lower.to_bits(),
                            "query {i} adversary {} margin bits differ at {n} devices",
                            mg.adversary
                        );
                    }
                }
                (Err(g), Err(e)) => assert_eq!(
                    format!("{g}"),
                    format!("{e}"),
                    "query {i} error parity at {n} devices"
                ),
                other => panic!("query {i}: verdict class diverged at {n} devices: {other:?}"),
            }
        }
    }
}

#[test]
fn sharded_margins_bit_identical_dense_both_backends() {
    let net = random_net(3, 3, 12, 5);
    let batch = queries(9, 4, 5);
    assert_bit_identical::<CpuSimBackend>(&net, &batch);
    assert_bit_identical::<ReferenceBackend>(&net, &batch);
    // And where the lists are cut across the pool.
    assert_bit_identical::<CpuSimBackend>(&wide_net(), &wide_queries(3));
}

#[test]
fn sharded_margins_bit_identical_conv() {
    let net = conv_net();
    let batch = queries(6, 16, 4);
    assert_bit_identical::<CpuSimBackend>(&net, &batch);
}

#[test]
fn sharded_handles_more_devices_than_rows() {
    // 2 queries × 2 margins across 7 devices: some devices get no walk. One
    // query alone is nothing to fuse, on a pool as on one device.
    let net = random_net(11, 2, 8, 3);
    assert_bit_identical::<CpuSimBackend>(&net, &queries(2, 4, 3));
    assert_bit_identical::<CpuSimBackend>(&net, &queries(1, 4, 3));
}

#[test]
fn sharded_preserves_validation_errors_in_place() {
    let net = random_net(5, 2, 8, 3);
    let sharded = rows_pool::<CpuSimBackend>(2, &net);
    let mut batch = queries(4, 4, 3);
    batch[1] = Query::new(vec![0.5f32; 3], 0, 0.01); // wrong length
    batch[2] = Query::new(vec![0.5f32; 4], 9, 0.01); // label out of range
    let got = sharded.verify_batch_fused(&batch);
    assert!(got[0].is_ok() && got[3].is_ok());
    assert!(got[1].is_err() && got[2].is_err());
}

#[test]
fn sharded_rejects_empty_pool_and_counts_devices() {
    let net = random_net(5, 2, 8, 3);
    assert!(Engine::on_pool(
        Vec::<Device<CpuSimBackend>>::new(),
        ROWS,
        &net,
        VerifyConfig::default(),
        EngineOptions::default()
    )
    .is_err());
    let sharded = rows_pool::<CpuSimBackend>(3, &net);
    assert_eq!(sharded.devices().len(), 3);
    // Every device is a walking one.
    let _ = sharded.verify_batch_fused(&queries(3, 4, 3));
    for (i, d) in sharded.devices().iter().enumerate() {
        assert!(d.stats().launches() > 0, "device {i} walked nothing");
    }
}

#[test]
fn sharded_stats_aggregate_across_devices() {
    let net = random_net(7, 3, 10, 4);
    let batch = queries(8, 4, 4);
    let sharded = rows_pool::<CpuSimBackend>(2, &net);
    let _ = sharded.verify_batch_fused(&batch);

    let per: Vec<_> = sharded.devices().iter().map(|d| d.stats()).collect();
    assert_eq!(per.len(), 2);
    // The walks were dealt over the pool: every device did real work.
    assert!(
        per.iter().all(|s| s.launches() > 0 && s.flops() > 0),
        "per-device: {per:?}"
    );
    let total = sharded.stats();
    assert_eq!(
        total.launches,
        per.iter().map(|s| s.launches()).sum::<u64>()
    );
    assert_eq!(total.flops, per.iter().map(|s| s.flops()).sum::<u64>());
    assert_eq!(
        total.bytes_moved,
        per.iter().map(|s| s.bytes_moved()).sum::<u64>()
    );
    assert_eq!(
        total.resident_bytes as u64,
        per.iter().map(|s| s.resident_bytes()).sum::<u64>()
    );
    // Aggregate strictly exceeds any single device's meter — the old
    // first-device-only report undercounted.
    assert!(total.launches > per[0].launches());
    assert!(total.launches > per[1].launches());
}

#[test]
fn sharded_complete_mode_delegates_with_single_device_verdicts() {
    let net = random_net(13, 2, 8, 3);
    let q = Query::new(vec![0.4f32, 0.5, 0.6, 0.3], 0, 0.01);
    let single = single(&net);
    let sharded = rows_pool::<CpuSimBackend>(2, &net);
    let budget = RefineBudget::default();
    let a = single
        .verify_complete_batch(std::slice::from_ref(&q), &budget)
        .pop()
        .unwrap()
        .unwrap();
    let b = sharded
        .verify_complete_batch(std::slice::from_ref(&q), &budget)
        .pop()
        .unwrap()
        .unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// A fused batch on a pool is counted and timed like one on a single
/// device: cost-aware admission reads the pool's `ewma_ms_per_cost`.
#[test]
fn sharded_batch_warms_the_ewma_and_counts_as_fused() {
    let net = random_net(17, 3, 10, 4);
    let batch = queries(6, 4, 4);
    for shard_weights in [false, true] {
        let plan = Plan {
            split_rows: true,
            shard_weights,
        };
        let sharded = Engine::on_pool(
            devices::<CpuSimBackend>(2),
            plan,
            &net,
            VerifyConfig::default(),
            EngineOptions::default(),
        )
        .expect("sharded engine");
        assert_eq!(sharded.stats().ewma_ms_per_cost, 0.0, "cold EWMA");
        assert!(sharded.verify_batch_fused(&batch).iter().all(Result::is_ok));
        let stats = sharded.stats();
        assert_eq!(stats.fused_batches, 1, "{plan:?}");
        assert!(
            stats.ewma_ms_per_cost > 0.0 && stats.ewma_ms_per_cost.is_finite(),
            "{plan:?}: one measured batch must warm the EWMA, got {}",
            stats.ewma_ms_per_cost
        );
    }
}

/// The default plan on one device is the engine: same verdicts (margin
/// bits and work counters), same cache traffic, same batch and refinement
/// counters, through a mixed batch, a monotone sweep and complete mode.
#[test]
fn pool_of_one_is_the_engine() {
    let net = random_net(19, 2, 6, 3);
    let options = EngineOptions {
        monotone_cache_reuse: true,
        ..EngineOptions::default()
    };
    let device = || Device::with_backend(CpuSimBackend, DeviceConfig::new().workers(2));
    let engine = Engine::with_options(device(), &net, VerifyConfig::default(), options).unwrap();
    let pool = Engine::on_pool(
        vec![device()],
        Plan::default(),
        &net,
        VerifyConfig::default(),
        options,
    )
    .unwrap();
    assert_eq!(pool.devices().len(), 1);

    let image = vec![0.45_f32, 0.55, 0.35, 0.6];
    let label = net.classify(&image);
    let mut mixed = queries(4, 4, 3);
    mixed.push(Query::new(image.clone(), label, 0.02)); // the sweep's anchor
    mixed.push(mixed[1].clone()); // duplicate box: shares one analysis
    mixed.push(Query::new(vec![0.5; 3], 0, 0.01)); // wrong length
    mixed.push(Query::new(vec![0.5; 4], 9, 0.01)); // label out of range
    let sweep: Vec<Query<f32>> = (1..=4)
        .map(|i| Query::new(image.clone(), label, 0.004 * i as f32))
        .collect();

    for batch in [&mixed, &sweep] {
        let want = engine.verify_batch_fused(batch);
        let got = pool.verify_batch_fused(batch);
        // Margins bit for bit; the debug form on top covers adversaries,
        // flags, the `AnalysisStats` of every verdict and every reject.
        let bits = |verdicts: &[Result<gpupoly_core::RobustnessVerdict<f32>, _>]| -> Vec<u32> {
            let ok = verdicts.iter().flatten();
            ok.flat_map(|v| v.margins.iter().map(|m| m.lower.to_bits()))
                .collect()
        };
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
    let hard = Query::new(image, label, 0.3);
    let budget = RefineBudget::with_max_splits(6);
    let want = engine.verify_complete_batch(std::slice::from_ref(&hard), &budget);
    let got = pool.verify_complete_batch(std::slice::from_ref(&hard), &budget);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));

    let (got, want) = (pool.stats(), engine.stats());
    assert!(want.monotone_hits > 0, "the sweep must have hit its anchor");
    assert!(want.fused_batches > 0 && want.cache_hits > 0 && want.cache_misses > 0);
    assert!(want.splits > 0, "the hard query must have split: {want:?}");
    assert_eq!(
        (got.cache_hits, got.cache_misses, got.monotone_hits),
        (want.cache_hits, want.cache_misses, want.monotone_hits)
    );
    assert_eq!(got.fused_batches, want.fused_batches);
    assert_eq!(
        (
            got.splits,
            got.frontier_peak,
            got.proven_by_split,
            got.cex_found
        ),
        (
            want.splits,
            want.frontier_peak,
            want.proven_by_split,
            want.cex_found
        )
    );
    assert_eq!(got.resident_bytes, want.resident_bytes);
}

/// A pool has one analysis cache: a box is analysed once, whichever
/// device walks its rows, and a batch repeating boxes in another order hits
/// every one of them — as on one engine.
#[test]
fn a_pool_hits_repeated_boxes_like_one_engine() {
    let net = random_net(29, 2, 8, 3);
    let ab = queries(2, 4, 3);
    let ba: Vec<Query<f32>> = ab.iter().rev().cloned().collect();
    let one = single(&net);
    let pool = rows_pool::<CpuSimBackend>(2, &net);
    for batch in [&ab, &ba] {
        assert_eq!(
            margin_bits(&pool.verify_batch_fused(batch)),
            margin_bits(&one.verify_batch_fused(batch))
        );
    }
    assert_eq!(one.cache_stats(), (2, 2));
    assert_eq!(pool.cache_stats(), one.cache_stats());
    let (got, want) = (pool.stats(), one.stats());
    assert_eq!(
        (got.cache_hits, got.cache_misses),
        (want.cache_hits, want.cache_misses)
    );
}

/// A lone query's refinement, and a batch over one box twice, are cut
/// across the pool: both devices launch GEMMs and each counts at least a
/// quarter of the pool's GEMM flops, and the margins are one engine's bit
/// for bit.
#[test]
fn a_lone_query_and_a_repeated_box_walk_on_every_device() {
    let net = wide_net();
    let q = wide_queries(1).remove(0);
    let twice = vec![q.clone(), q.clone()];
    let one = single(&net);
    for batch in [vec![q], twice] {
        let pool = devices::<CpuSimBackend>(2);
        let engine = on(pool.clone(), &net);
        let got = engine.verify_batch_fused(&batch);
        assert_eq!(
            margin_bits(&got),
            margin_bits(&one.verify_batch_fused(&batch))
        );
        let gemm: Vec<_> = pool
            .iter()
            .map(|d| d.stats().kernel_work("gemm_itv_f"))
            .collect();
        let total: u64 = gemm.iter().map(|g| g.flops).sum();
        for (i, g) in gemm.iter().enumerate() {
            assert!(
                g.launches > 0 && g.flops * 4 >= total,
                "{} queries: device {i} ran {g:?} of {total} GEMM flops ({:?})",
                batch.len(),
                got[0].as_ref().expect("verdict").stats
            );
        }
    }
}

#[test]
fn streams_gather_a_weight_shard_once_like_the_uncut_walk() {
    // Under `shard_weights` every stream of a walking device acquires the
    // same remote layers at nearly the same time. The gather cache decides
    // under its lock, so a layer in flight is waited for, not gathered
    // twice: a pool of many-worker devices (lists cut into streams) must
    // meter the misses and evictions of the same pool with one worker a
    // device (one walk a device), and more hits — one per stream that found
    // the layer already there.
    use gpupoly_nn::zoo::{build_arch, ArchId, Dataset};
    let net = build_arch(ArchId::Fc6x500, Dataset::MnistLike, 0.1, 7).expect("zoo architecture");
    let batch: Vec<Query<f32>> = (0..4usize)
        .map(|q| {
            let image: Vec<f32> = (0..784)
                .map(|i| 0.3 + 0.4 * (((q * 131 + i * 17) % 101) as f32 / 101.0))
                .collect();
            let label = net.classify(&image);
            Query::new(image, label, 2e-4)
        })
        .collect();
    for split_rows in [false, true] {
        let plan = Plan {
            split_rows,
            shard_weights: true,
        };
        let run = |workers: usize| {
            let pool: Vec<Device<CpuSimBackend>> = (0..2)
                .map(|_| Device::new(DeviceConfig::new().workers(workers)))
                .collect();
            let sharded = Engine::on_pool(
                pool,
                plan,
                &net,
                VerifyConfig::default(),
                EngineOptions::default(),
            )
            .expect("sharded engine");
            let verdicts = sharded.verify_batch_fused(&batch);
            let verdicts: Vec<_> = verdicts
                .iter()
                .map(|v| v.as_ref().expect("sharded verdict"))
                .collect();
            let margins: Vec<Vec<u32>> = verdicts
                .iter()
                .map(|v| v.margins.iter().map(|m| m.lower.to_bits()).collect())
                .collect();
            let walks: usize = verdicts.iter().map(|v| v.stats.chunks).sum();
            (margins, walks, sharded.stats())
        };
        let (want, uncut_walks, uncut) = run(1);
        let (got, walks, streamed) = run(3);
        assert_eq!(got, want, "{plan:?}: margins");
        assert!(walks > uncut_walks, "{plan:?}: the lists must be cut");
        assert!(uncut.gather_misses > 0, "{plan:?}: remote layers exist");
        assert_eq!(
            (streamed.gather_misses, streamed.gather_evictions),
            (uncut.gather_misses, uncut.gather_evictions),
            "{plan:?}: gathers and evictions"
        );
        assert!(streamed.gather_hits > uncut.gather_hits, "{plan:?}");
    }
}

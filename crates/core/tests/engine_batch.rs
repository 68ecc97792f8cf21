//! Engine-level guarantees: batch-vs-sequential parity (bit-identical
//! margins), analysis-cache reuse, steady-state allocation flatness under
//! the device buffer pool, weight residency, and soundness of batched
//! verification on a memory-capped device.

use gpupoly_core::{Engine, LinearSpec, Query, VerifyConfig, VerifyError};
use gpupoly_device::{Device, DeviceConfig};
use gpupoly_interval::Itv;
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::Network;

/// A deterministic dense ReLU network (same generator family as the
/// property tests).
fn random_net(seed: u64, depth: usize, width: usize) -> Network<f32> {
    let mix = |i: usize, s: u64| {
        ((((i as u64 + 17) * (s + 29)) * 2654435761 % 2001) as f32 / 1000.0 - 1.0) * 0.5
    };
    let mut b = NetworkBuilder::new_flat(4);
    let mut in_len = 4;
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
    let w: Vec<f32> = (0..3 * in_len).map(|i| mix(i, seed + 999)).collect();
    b.dense_flat(3, w, vec![0.0; 3]).build().expect("valid net")
}

fn queries(n: usize) -> Vec<Query<f32>> {
    (0..n)
        .map(|q| {
            let image: Vec<f32> = (0..4)
                .map(|i| 0.2 + 0.6 * (((q * 31 + i * 7) % 97) as f32 / 97.0))
                .collect();
            Query::new(image, q % 3, 0.01 + 0.002 * (q % 5) as f32)
        })
        .collect()
}

#[test]
fn batch_margins_bit_identical_to_sequential_gpupoly() {
    for seed in [1u64, 17, 230] {
        let net = random_net(seed, 3, 6);
        let qs = queries(12);

        let sequential = Engine::new(
            Device::new(DeviceConfig::new().workers(2)),
            &net,
            VerifyConfig::default(),
        )
        .unwrap();
        let engine = Engine::new(
            Device::new(DeviceConfig::new().workers(2)),
            &net,
            VerifyConfig::default(),
        )
        .unwrap();

        let batch = engine.verify_batch_fused(&qs);
        assert_eq!(batch.len(), qs.len());
        for (q, got) in qs.iter().zip(batch) {
            let got = got.expect("batch query failed");
            let want = sequential
                .verify_robustness(&q.image, q.label, q.eps)
                .expect("sequential query failed");
            assert_eq!(got.verified, want.verified);
            assert_eq!(got.margins.len(), want.margins.len());
            for (g, w) in got.margins.iter().zip(&want.margins) {
                assert_eq!(g.adversary, w.adversary);
                assert_eq!(g.proven, w.proven);
                assert_eq!(
                    g.lower.to_bits(),
                    w.lower.to_bits(),
                    "seed {seed}: margin drifted ({} vs {})",
                    g.lower,
                    w.lower
                );
            }
        }
    }
}

#[test]
fn analysis_cache_shares_repeated_boxes() {
    let net = random_net(5, 2, 6);
    let engine = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
    let input: Vec<Itv<f32>> = [0.4f32, 0.6, 0.3, 0.7]
        .iter()
        .map(|&x| Itv::new(x - 0.02, x + 0.02))
        .collect();

    let first = engine.analyze(&input).unwrap();
    let second = engine.analyze(&input).unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&first, &second),
        "repeated box must reuse the cached analysis"
    );
    let (hits, misses) = engine.cache_stats();
    assert_eq!((hits, misses), (1, 1));

    // An eps-sweep over one image with a shared box per eps: every spec
    // check after the first analysis of each box is a cache hit.
    let image = [0.45f32, 0.55, 0.35, 0.65];
    for _ in 0..3 {
        for eps in [0.01f32, 0.02] {
            let input: Vec<Itv<f32>> = image
                .iter()
                .map(|&x| Itv::new(x - eps, x + eps).clamp_to(0.0, 1.0))
                .collect();
            engine
                .verify_spec(&input, &LinearSpec::robustness(0, 3))
                .unwrap();
        }
    }
    let (hits, misses) = engine.cache_stats();
    assert_eq!(misses, 3, "three distinct boxes analyzed");
    assert_eq!(hits, 5, "all repeats served from cache");

    // Duplicates inside one batch must also share one analysis: the miss
    // count equals the number of unique boxes.
    let engine = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
    let q = |eps: f32| Query::new(vec![0.4f32, 0.6, 0.3, 0.7], 1, eps);
    let batch = vec![q(0.01), q(0.02), q(0.01), q(0.02), q(0.01), q(0.01)];
    let out = engine.verify_batch_fused(&batch);
    assert!(out.iter().all(Result::is_ok));
    let (hits, misses) = engine.cache_stats();
    assert_eq!(misses, 2, "two unique boxes in the batch");
    assert_eq!(hits, 4, "every duplicate reused the shared analysis");
}

#[test]
fn steady_state_queries_allocate_no_fresh_bytes() {
    // Early termination off => every query runs the same deterministic
    // batch shapes, so once the shelf is warm the buffer pool serves every
    // allocation and `bytes_allocated` stays flat. Warm is two queries: the
    // shelf matches by capacity (smallest buffer within 2x), so the second
    // query, which finds all of the first one's buffers shelved at once, can
    // pair them with its requests differently and come up two short.
    let cfg = VerifyConfig {
        early_termination: false,
        ..Default::default()
    };
    let device = Device::new(DeviceConfig::new().workers(2));
    let net = random_net(9, 3, 8);
    let engine = Engine::new(device.clone(), &net, cfg).unwrap();
    let qs = queries(10);

    for q in &qs[..2] {
        let warmup = engine.verify_robustness(&q.image, q.label, q.eps);
        assert!(warmup.is_ok());
    }
    let bytes_after_warmup = device.stats().bytes_allocated();

    for q in &qs[2..] {
        // Distinct images (cache misses), identical batch geometry.
        engine.verify_robustness(&q.image, q.label, q.eps).unwrap();
    }
    assert_eq!(
        device.stats().bytes_allocated(),
        bytes_after_warmup,
        "steady-state verification must reuse pooled buffers only"
    );
    assert!(device.stats().pool_hits() > 0);
}

#[test]
fn weights_are_resident_exactly_once_per_engine() {
    let device = Device::new(DeviceConfig::new().workers(1));
    let net = random_net(3, 2, 8);
    {
        let engine = Engine::new(device.clone(), &net, VerifyConfig::default()).unwrap();
        let resident = engine.prepared().resident_bytes();
        assert!(resident > 0, "default engine packs weights on the device");
        assert!(device.memory_in_use() >= resident);
        let bytes_after_build = device.stats().bytes_allocated();
        engine.verify_batch_fused(&queries(4));
        engine.verify_batch_fused(&queries(4));
        // Weights were uploaded once at construction; batches reuse them.
        assert!(device.stats().bytes_allocated() >= bytes_after_build);
    }
    // Dropping the engine releases both weights and pooled buffers.
    assert_eq!(device.memory_in_use(), 0);
}

#[test]
fn capped_device_batch_matches_uncapped_and_still_chunks() {
    let net = random_net(21, 2, 24);
    let qs = queries(6);

    let free = Engine::new(
        Device::new(DeviceConfig::new().workers(2)),
        &net,
        VerifyConfig::default(),
    )
    .unwrap();
    let want: Vec<_> = free
        .verify_batch_fused(&qs)
        .into_iter()
        .map(|v| v.expect("uncapped query failed"))
        .collect();

    let cap = 48 * 1024;
    let tight_dev = Device::new(DeviceConfig::new().workers(2).memory_capacity(cap));
    let tight = Engine::new(tight_dev.clone(), &net, VerifyConfig::default()).unwrap();
    let got = tight.verify_batch_fused(&qs);
    let mut chunked_queries = 0usize;
    for (g, w) in got.into_iter().zip(&want) {
        let g = g.expect("capped query failed");
        assert_eq!(g.verified, w.verified);
        for (gm, wm) in g.margins.iter().zip(&w.margins) {
            assert!(
                (gm.lower - wm.lower).abs() < 1e-4 * (1.0 + wm.lower.abs()),
                "capped margins diverged: {} vs {}",
                gm.lower,
                wm.lower
            );
        }
        if g.stats.chunks > 1 {
            chunked_queries += 1;
        }
    }
    assert!(
        chunked_queries > 0,
        "expected memory-aware chunking to kick in under the cap"
    );
    assert!(tight_dev.peak_memory() <= cap, "capacity violated");
}

#[test]
fn empty_specs_are_rejected_not_vacuously_proven() {
    let net = random_net(2, 2, 5);
    let engine = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
    let input = vec![Itv::point(0.5f32); 4];

    let err = engine
        .verify_spec(&input, &LinearSpec::new(vec![]))
        .unwrap_err();
    assert!(
        matches!(&err, VerifyError::BadQuery(msg) if msg.contains("empty specification")),
        "got {err:?}"
    );

    // Same over an analysis that is reused.
    let analysis = engine.analyze(&input).unwrap();
    assert!(matches!(
        engine.check_spec_with(&analysis, &LinearSpec::new(vec![])),
        Err(VerifyError::BadQuery(_))
    ));

    // A single-output network's "robustness" spec has zero rows: rejected.
    let single = NetworkBuilder::new_flat(2)
        .dense(&[[1.0_f32, 1.0]], &[0.0])
        .build()
        .unwrap();
    let engine = Engine::new(Device::default(), &single, VerifyConfig::default()).unwrap();
    assert!(matches!(
        engine.verify_robustness(&[0.4, 0.6], 0, 0.05),
        Err(VerifyError::BadQuery(_))
    ));
}

#[test]
fn batch_parallelism_does_not_regress_throughput() {
    // On a single-core runner this only smoke-tests the parallel path;
    // queries per second are the benchmark's business (`benchmark/run.sh`).
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let net = random_net(7, 3, 24);
    let qs = queries(16);
    let device = Device::new(DeviceConfig::new().workers(workers));
    let engine = Engine::new(device, &net, VerifyConfig::default()).unwrap();

    let t = std::time::Instant::now();
    for q in &qs {
        engine.verify_robustness(&q.image, q.label, q.eps).unwrap();
    }
    let sequential = t.elapsed();

    // Fresh engine so the analysis cache cannot serve the batch.
    let device = Device::new(DeviceConfig::new().workers(workers));
    let engine = Engine::new(device, &net, VerifyConfig::default()).unwrap();
    let t = std::time::Instant::now();
    let out = engine.verify_batch_fused(&qs);
    let batch = t.elapsed();
    assert!(out.iter().all(Result::is_ok));

    println!(
        "batch {:?} vs sequential {:?} on {workers} workers ({:.2}x)",
        batch,
        sequential,
        sequential.as_secs_f64() / batch.as_secs_f64().max(1e-9)
    );
    if workers >= 4 {
        // Generous bound: batching must never be substantially slower.
        assert!(
            batch.as_secs_f64() <= sequential.as_secs_f64() * 1.5,
            "batch path slower than sequential: {batch:?} vs {sequential:?}"
        );
    }
}

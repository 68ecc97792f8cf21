//! Cross-query fused backsubstitution (`Engine::verify_batch_fused`):
//! bit-identity to the sequential per-query path, launch-count savings,
//! fallback behavior, cache accounting, ε-monotone reuse and the measured
//! cost EWMA.

use gpupoly_core::{
    query_cost_hint, Engine, EngineOptions, Query, ReluRelax, VerifyConfig, VerifyError,
};
use gpupoly_device::{Backend, Device, DeviceConfig, SHELF_LIVE_MULTIPLE};
use gpupoly_interval::Itv;
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::zoo::{build_arch, ArchId, Dataset};
use gpupoly_nn::{Network, Shape};

/// A deterministic dense ReLU network.
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

/// A small conv+dense network so the fused walk also crosses GBC steps.
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
        .flatten_dense(3, |i| ((i % 11) as f32 - 5.0) * 0.1, |_| 0.0)
        .build()
        .expect("conv net builds")
}

fn queries(n: usize, in_len: usize) -> Vec<Query<f32>> {
    (0..n)
        .map(|q| {
            let image: Vec<f32> = (0..in_len)
                .map(|i| 0.2 + 0.6 * (((q * 31 + i * 7) % 97) as f32 / 97.0))
                .collect();
            Query::new(image, q % 3, 0.01 + 0.004 * (q % 4) as f32)
        })
        .collect()
}

fn assert_bit_identical(
    got: &[Result<gpupoly_core::RobustnessVerdict<f32>, VerifyError>],
    want: &[Result<gpupoly_core::RobustnessVerdict<f32>, VerifyError>],
    tag: &str,
) {
    assert_eq!(got.len(), want.len(), "{tag}: result count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.verified, w.verified, "{tag}[{i}]: verdict");
                assert_eq!(g.margins.len(), w.margins.len(), "{tag}[{i}]");
                for (mg, mw) in g.margins.iter().zip(&w.margins) {
                    assert_eq!(mg.adversary, mw.adversary, "{tag}[{i}]");
                    assert_eq!(mg.proven, mw.proven, "{tag}[{i}]");
                    assert_eq!(
                        mg.lower.to_bits(),
                        mw.lower.to_bits(),
                        "{tag}[{i}]: margin vs class {} drifted ({} vs {})",
                        mg.adversary,
                        mg.lower,
                        mw.lower
                    );
                }
            }
            (Err(ge), Err(we)) => {
                assert_eq!(
                    std::mem::discriminant(ge),
                    std::mem::discriminant(we),
                    "{tag}[{i}]: error kind"
                );
            }
            other => panic!("{tag}[{i}]: fused/sequential disagree: {other:?}"),
        }
    }
}

#[test]
fn fused_margins_bit_identical_to_sequential_dense() {
    for seed in [3u64, 41] {
        let net = random_net(seed, 3, 6);
        let qs = queries(8, 4);

        let sequential = Engine::new(
            Device::new(DeviceConfig::new().workers(2)),
            &net,
            VerifyConfig::default(),
        )
        .unwrap();
        let want: Vec<_> = qs
            .iter()
            .map(|q| sequential.verify_robustness(&q.image, q.label, q.eps))
            .collect();

        let fused_engine = Engine::new(
            Device::new(DeviceConfig::new().workers(2)),
            &net,
            VerifyConfig::default(),
        )
        .unwrap();
        let got = fused_engine.verify_batch_fused(&qs);
        assert_bit_identical(&got, &want, &format!("seed {seed}"));
        assert_eq!(
            fused_engine.stats().fused_batches,
            1,
            "seed {seed}: batch must not have fallen back"
        );
    }
}

#[test]
fn fused_margins_bit_identical_on_conv_and_reference_backend() {
    let net = conv_net();
    let qs = queries(5, 16);

    let sequential = Engine::new(
        Device::reference(DeviceConfig::new().workers(1)),
        &net,
        VerifyConfig::default(),
    )
    .unwrap();
    let want: Vec<_> = qs
        .iter()
        .map(|q| sequential.verify_robustness(&q.image, q.label, q.eps))
        .collect();

    let fused_engine = Engine::new(
        Device::reference(DeviceConfig::new().workers(1)),
        &net,
        VerifyConfig::default(),
    )
    .unwrap();
    let got = fused_engine.verify_batch_fused(&qs);
    assert_bit_identical(&got, &want, "conv/reference");
}

#[test]
fn fused_batch_issues_fewer_gemm_launches() {
    let net = random_net(7, 3, 8);
    let k = 6;
    let qs = queries(k, 4);

    // Distinct boxes, cache off: both sides do the full analysis work.
    let opts = EngineOptions {
        analysis_cache: 0,
        ..Default::default()
    };

    let dev_seq: Device = Device::new(DeviceConfig::new().workers(2));
    let seq = Engine::with_options(dev_seq.clone(), &net, VerifyConfig::default(), opts).unwrap();
    let gemm0 = dev_seq.stats().kernel_launches("gemm_itv_f");
    let launches0 = dev_seq.stats().launches();
    for q in &qs {
        seq.verify_robustness(&q.image, q.label, q.eps).unwrap();
    }
    let gemm_seq = dev_seq.stats().kernel_launches("gemm_itv_f") - gemm0;
    let launches_seq = dev_seq.stats().launches() - launches0;

    let dev_fused: Device = Device::new(DeviceConfig::new().workers(2));
    let fused =
        Engine::with_options(dev_fused.clone(), &net, VerifyConfig::default(), opts).unwrap();
    let gemm1 = dev_fused.stats().kernel_launches("gemm_itv_f");
    let launches1 = dev_fused.stats().launches();
    let results = fused.verify_batch_fused(&qs);
    assert!(results.iter().all(Result::is_ok));
    let gemm_fused = dev_fused.stats().kernel_launches("gemm_itv_f") - gemm1;
    let launches_fused = dev_fused.stats().launches() - launches1;

    assert!(gemm_seq > 0, "the walks must exercise the GEMM kernel");
    assert!(
        gemm_fused < gemm_seq,
        "fused batch must issue strictly fewer GEMM launches ({gemm_fused} vs {gemm_seq})"
    );
    assert!(
        gemm_fused <= gemm_seq / 2,
        "a {k}-query fused batch should issue ~1/{k} the GEMM launches, got {gemm_fused} vs {gemm_seq}"
    );
    assert!(
        launches_fused < launches_seq,
        "fused batch must issue fewer device launches overall ({launches_fused} vs {launches_seq})"
    );
}

#[test]
fn fused_handles_malformed_duplicate_and_degenerate_queries() {
    let net = random_net(11, 2, 6);
    let mut qs = queries(6, 4);
    qs[2] = qs[0].clone(); // exact duplicate box: shares one analysis
    qs.push(Query::new(vec![0.5; 3], 0, 0.01)); // wrong length
    qs.push(Query::new(vec![0.5; 4], 9, 0.01)); // label out of range
    qs.push(Query::new(vec![0.5; 4], 0, f32::NAN)); // non-finite eps

    let sequential = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
    let want: Vec<_> = qs
        .iter()
        .map(|q| sequential.verify_robustness(&q.image, q.label, q.eps))
        .collect();

    let fused_engine = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
    let got = fused_engine.verify_batch_fused(&qs);
    assert_bit_identical(&got, &want, "malformed mix");

    // Cache accounting matches the sequential shape: one miss per unique
    // valid box, one hit for the duplicate.
    let (hits, misses) = fused_engine.cache_stats();
    let (want_hits, want_misses) = sequential.cache_stats();
    assert_eq!((hits, misses), (want_hits, want_misses));
    assert_eq!(misses, 5, "five unique valid boxes");
    assert_eq!(hits, 1, "one duplicate box");
}

#[test]
fn fused_batch_survives_memory_capped_device() {
    // A device whose capacity forces chunked walks (and possibly a fused
    // OOM fallback): results must match the unconstrained engine.
    let net = random_net(13, 3, 12);
    let qs = queries(5, 4);
    let small = Engine::new(
        Device::new(DeviceConfig::new().workers(2).memory_capacity(1 << 15)),
        &net,
        VerifyConfig::default(),
    )
    .unwrap();
    let got = small.verify_batch_fused(&qs);
    let big = Engine::new(
        Device::new(DeviceConfig::new().workers(2)),
        &net,
        VerifyConfig::default(),
    )
    .unwrap();
    let want = big.verify_batch_fused(&qs);
    assert_bit_identical(&got, &want, "memory-capped");
}

#[test]
fn fused_conv_batches_keep_peak_memory_within_the_pool_bound() {
    // The benchmark's `conv_fused` in small: fused batches on a scaled
    // ConvBig. Every early-termination filter leaves a row count no earlier
    // step had, so the walk's buffer sizes never repeat exactly; a pool that
    // shelved them by exact size and never evicted peaked at 40 times what
    // was ever live (1.24 GB against 31 MB on the benchmark).
    let net = build_arch(ArchId::ConvBig, Dataset::MnistLike, 0.07, 7).unwrap();
    let device = Device::new(DeviceConfig::new().workers(2));
    let engine = Engine::new(device.clone(), &net, VerifyConfig::default()).unwrap();
    for round in 0..2usize {
        let qs: Vec<Query<f32>> = (0..4usize)
            .map(|q| {
                let image: Vec<f32> = (0..net.input_shape().len())
                    .map(|i| (((round * 4 + q) * 131 + i * 17) % 251) as f32 / 251.0)
                    .collect();
                Query::new(image, q % 10, 5e-4 * (1 + q % 2) as f32)
            })
            .collect();
        for verdict in engine.verify_batch_fused(&qs) {
            verdict.expect("fused conv query");
        }
    }
    let (peak, live) = (device.peak_memory(), device.peak_live_memory());
    assert!(
        peak <= (SHELF_LIVE_MULTIPLE + 1) * live,
        "peak {peak} B against a live high-water mark of {live} B"
    );
    let stats = device.stats();
    assert!(
        stats.pool_hits() > stats.pool_misses(),
        "walk buffers must mostly recycle: {} hits, {} misses",
        stats.pool_hits(),
        stats.pool_misses()
    );
    assert_eq!(
        device.memory_in_use(),
        engine.prepared().resident_bytes() + device.buffer_pool_bytes(),
        "between batches only weights and the shelf stay charged"
    );
}

#[test]
fn monotone_cache_reuse_serves_sweeps_from_superset_analyses() {
    let net = random_net(19, 2, 6);
    let image = vec![0.45_f32, 0.55, 0.35, 0.6];

    let opts = EngineOptions {
        monotone_cache_reuse: true,
        ..Default::default()
    };
    let engine =
        Engine::with_options(Device::default(), &net, VerifyConfig::default(), opts).unwrap();

    // Anchor: a proven query at the largest radius of the sweep.
    let label = net.classify(&image);
    let anchor = engine.verify_robustness(&image, label, 0.02).unwrap();
    assert!(anchor.verified, "anchor must be provable for this net");
    let (_, misses_after_anchor) = engine.cache_stats();
    assert_eq!(misses_after_anchor, 1);

    // Downward ε sweep: every box is contained in the anchor's, so every
    // query is served by the superset analysis — zero new analyses.
    let sweep: Vec<f32> = (1..=8).map(|i| 0.02 * i as f32 / 10.0).collect();
    for eps in &sweep {
        let v = engine.verify_robustness(&image, label, *eps).unwrap();
        assert!(v.verified, "subset of a proven box must prove");
        // Sound but looser: the superset margin still lower-bounds the
        // anchor's concrete behavior.
        for (m, a) in v.margins.iter().zip(&anchor.margins) {
            assert_eq!(m.lower.to_bits(), a.lower.to_bits());
        }
    }
    let stats = engine.stats();
    assert_eq!(
        stats.cache_misses, 1,
        "the sweep must not compute new analyses"
    );
    assert_eq!(stats.monotone_hits, sweep.len() as u64);

    // Control: the same sweep without the flag computes one analysis per ε.
    let control = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
    control.verify_robustness(&image, label, 0.02).unwrap();
    for eps in &sweep {
        control.verify_robustness(&image, label, *eps).unwrap();
    }
    assert_eq!(control.stats().cache_misses, 1 + sweep.len() as u64);
    assert_eq!(control.stats().monotone_hits, 0);
}

#[test]
fn monotone_reuse_never_refutes_from_a_superset() {
    // A query that fails at a big ε but succeeds at a small one: with
    // monotone reuse on, the small-ε query must fall through to its own
    // exact analysis (the superset's failed proof is not a refutation) and
    // return exactly what the flag-off engine returns.
    let net = random_net(23, 3, 8);
    let image = vec![0.5_f32, 0.5, 0.5, 0.5];
    let plain = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
    // Find a label/eps pair where the big ball fails but the point proves.
    let label = net.classify(&image);
    let big_eps = 0.5_f32;
    let small_eps = 1e-4_f32;
    let big = plain.verify_robustness(&image, label, big_eps).unwrap();
    let small_want = plain.verify_robustness(&image, label, small_eps).unwrap();
    if big.verified || !small_want.verified {
        // Net geometry made the premise vacuous; nothing to assert.
        return;
    }

    let opts = EngineOptions {
        monotone_cache_reuse: true,
        ..Default::default()
    };
    let engine =
        Engine::with_options(Device::default(), &net, VerifyConfig::default(), opts).unwrap();
    let big_got = engine.verify_robustness(&image, label, big_eps).unwrap();
    assert!(!big_got.verified);
    let small_got = engine.verify_robustness(&image, label, small_eps).unwrap();
    assert!(small_got.verified);
    for (g, w) in small_got.margins.iter().zip(&small_want.margins) {
        assert_eq!(
            g.lower.to_bits(),
            w.lower.to_bits(),
            "unproven-superset path must recompute exactly"
        );
    }
    assert_eq!(engine.stats().monotone_hits, 0);
    assert_eq!(engine.stats().cache_misses, 2, "both ε get exact analyses");
}

#[test]
fn ewma_cost_hint_warms_up_and_matches_free_function() {
    let net = random_net(29, 2, 6);
    let engine = Engine::new(
        Device::new(DeviceConfig::new().workers(2)),
        &net,
        VerifyConfig::default(),
    )
    .unwrap();
    assert_eq!(engine.stats().ewma_ms_per_cost, 0.0, "cold EWMA");

    let qs = queries(4, 4);
    for q in &qs {
        let via_engine = engine.query_cost(q);
        let via_hint = query_cost_hint(&q.image, q.eps, engine.stats().relu_layers);
        assert_eq!(via_engine, via_hint, "admission hint must match engine");
    }

    assert!(engine.verify_batch_fused(&qs).iter().all(Result::is_ok));
    let after_batch = engine.stats().ewma_ms_per_cost;
    assert!(
        after_batch > 0.0 && after_batch.is_finite(),
        "one measured batch must warm the EWMA, got {after_batch}"
    );
    assert!(engine.verify_batch_fused(&qs).iter().all(Result::is_ok));
    assert!(engine.stats().ewma_ms_per_cost > 0.0);
}

/// Concurrent fused batches over the same boxes must share analyses
/// through the in-flight gates exactly like concurrent `analyze` calls:
/// each unique box is computed exactly once engine-wide, and every thread
/// gets bit-identical verdicts.
#[test]
fn concurrent_fused_batches_share_one_analysis_per_box() {
    let net = random_net(37, 2, 6);
    let engine = Engine::new(
        Device::new(DeviceConfig::new().workers(2)),
        &net,
        VerifyConfig::default(),
    )
    .unwrap();
    let qs = queries(4, 4);
    let all_bits: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    engine
                        .verify_batch_fused(&qs)
                        .into_iter()
                        .flat_map(|r| {
                            r.expect("query succeeds")
                                .margins
                                .into_iter()
                                .map(|m| m.lower.to_bits())
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for bits in &all_bits[1..] {
        assert_eq!(bits, &all_bits[0], "threads must agree bit-for-bit");
    }
    let (_, misses) = engine.cache_stats();
    assert_eq!(
        misses, 4,
        "each unique box must be analyzed exactly once across concurrent \
         fused batches"
    );
}

/// The fused path must be backend-generic: run one fused batch per backend
/// through the same seed and compare across backends bit-for-bit.
#[test]
fn fused_batches_bit_identical_across_backends() {
    let net = random_net(31, 3, 6);
    let qs = queries(6, 4);
    fn run<B: Backend>(device: Device<B>, net: &Network<f32>, qs: &[Query<f32>]) -> Vec<u32> {
        let engine = Engine::new(device, net, VerifyConfig::default()).unwrap();
        engine
            .verify_batch_fused(qs)
            .into_iter()
            .flat_map(|r| {
                r.unwrap()
                    .margins
                    .into_iter()
                    .map(|m| m.lower.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    }
    let cpusim = run(Device::new(DeviceConfig::new().workers(2)), &net, &qs);
    let reference = run(Device::reference(DeviceConfig::new().workers(1)), &net, &qs);
    assert_eq!(cpusim, reference, "fused margins drifted across backends");
}

#[test]
fn fused_sweep_hits_monotone_anchor_analysis() {
    // With ε-monotone reuse on, a fused downward sweep must be served from
    // the anchor's cached analysis: zero new analyses, one monotone hit
    // per query, margins bit-identical to the anchor's (superset margins,
    // exactly like the per-query monotone path).
    let net = random_net(19, 2, 6);
    let image = vec![0.45_f32, 0.55, 0.35, 0.6];
    let opts = EngineOptions {
        monotone_cache_reuse: true,
        ..Default::default()
    };
    let engine =
        Engine::with_options(Device::default(), &net, VerifyConfig::default(), opts).unwrap();

    let label = net.classify(&image);
    let anchor = engine.verify_robustness(&image, label, 0.02).unwrap();
    assert!(anchor.verified, "anchor must be provable for this net");
    assert_eq!(engine.cache_stats().1, 1);

    // The sweep submitted as ONE fused batch: every box is strictly inside
    // the anchor's.
    let sweep: Vec<Query<f32>> = (1..=6)
        .map(|i| Query::new(image.clone(), label, 0.02 * i as f32 / 10.0))
        .collect();
    let got = engine.verify_batch_fused(&sweep);
    for v in &got {
        let v = v.as_ref().unwrap();
        assert!(v.verified, "subset of a proven box must prove");
        for (m, a) in v.margins.iter().zip(&anchor.margins) {
            assert_eq!(
                m.lower.to_bits(),
                a.lower.to_bits(),
                "superset proof must carry the anchor's margins"
            );
        }
    }
    let stats = engine.stats();
    assert_eq!(
        stats.cache_misses, 1,
        "the fused sweep must not compute new analyses"
    );
    assert_eq!(
        stats.monotone_hits,
        sweep.len() as u64,
        "every fused sweep query must count a monotone hit"
    );

    // Per-query and fused monotone paths agree bit for bit.
    let control =
        Engine::with_options(Device::default(), &net, VerifyConfig::default(), opts).unwrap();
    control.verify_robustness(&image, label, 0.02).unwrap();
    for (q, v) in sweep.iter().zip(&got) {
        let want = control.verify_robustness(&q.image, q.label, q.eps).unwrap();
        let got = v.as_ref().unwrap();
        for (g, w) in got.margins.iter().zip(&want.margins) {
            assert_eq!(g.lower.to_bits(), w.lower.to_bits());
        }
    }
}

#[test]
fn fused_monotone_unproven_queries_fall_through_to_exact_fused_analyses() {
    // Queries NOT covered by a cached superset (or not provable from it)
    // must still flow through the exact fused pipeline — and refutation
    // margins must be exact-path bits, never superset bits.
    let net = random_net(23, 3, 8);
    let image = vec![0.5_f32, 0.5, 0.5, 0.5];
    let plain = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
    let label = net.classify(&image);
    let big = plain.verify_robustness(&image, label, 0.5).unwrap();
    if big.verified {
        return; // net geometry made the premise vacuous
    }
    let opts = EngineOptions {
        monotone_cache_reuse: true,
        ..Default::default()
    };
    let engine =
        Engine::with_options(Device::default(), &net, VerifyConfig::default(), opts).unwrap();
    engine.verify_robustness(&image, label, 0.5).unwrap(); // cache the (failed) anchor
    let qs: Vec<Query<f32>> = vec![
        Query::new(image.clone(), label, 0.4),
        Query::new(image.clone(), label, 0.3),
    ];
    let got = engine.verify_batch_fused(&qs);
    for (q, v) in qs.iter().zip(&got) {
        let want = plain.verify_robustness(&q.image, q.label, q.eps).unwrap();
        let got = v.as_ref().unwrap();
        assert_eq!(got.verified, want.verified);
        if !want.verified {
            for (g, w) in got.margins.iter().zip(&want.margins) {
                assert_eq!(
                    g.lower.to_bits(),
                    w.lower.to_bits(),
                    "unproven queries must carry exact-path margins"
                );
            }
        }
    }
}

/// A single-ReLU-layer net where the number of unstable neurons is set
/// pixel by pixel: neuron i = x_i - 0.5, so a pixel at 0.5 straddles zero
/// (unstable) and a pixel at 0.9 is stably positive.
fn pixel_controlled_net() -> Network<f32> {
    let eye = |i: usize| if i.is_multiple_of(9) { 1.0_f32 } else { 0.0 };
    NetworkBuilder::new_flat(8)
        .flatten_dense(8, eye, |_| -0.5)
        .relu()
        .flatten_dense(2, |i| ((i % 5) as f32 - 2.0) * 0.3, |_| 0.0)
        .build()
        .expect("net builds")
}

#[test]
fn fused_chunks_split_on_query_segment_boundaries() {
    // q0 selects 2 unstable neurons, q1 selects 6; with chunk_rows = 6 the
    // fused work list is [q0 x2, q1 x6]. Segment-aware sizing snaps the
    // first chunk to q0's boundary, so each query runs in exactly one
    // chunk of its own — q1 must NOT report a second chunk from straddling
    // the old fixed-size cut.
    let net = pixel_controlled_net();
    let image = |unstable: usize| -> Vec<f32> {
        (0..8)
            .map(|i| if i < unstable { 0.5 } else { 0.9 })
            .collect()
    };
    let qs = vec![Query::new(image(2), 0, 0.1), Query::new(image(6), 1, 0.1)];
    let cfg = VerifyConfig {
        chunk_rows: Some(6),
        ..Default::default()
    };
    let engine = Engine::new(Device::new(DeviceConfig::new().workers(2)), &net, cfg).unwrap();
    let got = engine.verify_batch_fused(&qs);
    assert!(got.iter().all(Result::is_ok));
    assert_eq!(engine.stats().fused_batches, 1, "batch must fuse");
    let chunks: Vec<usize> = got
        .iter()
        .map(|v| v.as_ref().unwrap().stats.chunks)
        .collect();
    assert_eq!(
        chunks,
        vec![1, 1],
        "each query's refinement must run in exactly one whole-query chunk"
    );

    // And the schedule change is invisible in the margins.
    let control = Engine::new(
        Device::new(DeviceConfig::new().workers(2)),
        &net,
        VerifyConfig::default(),
    )
    .unwrap();
    for (q, v) in qs.iter().zip(&got) {
        let want = control.verify_robustness(&q.image, q.label, q.eps).unwrap();
        for (g, w) in v.as_ref().unwrap().margins.iter().zip(&want.margins) {
            assert_eq!(g.lower.to_bits(), w.lower.to_bits());
        }
    }
}

#[test]
fn fused_chunk_shrinks_attribute_to_the_failing_chunk_only() {
    // On a memory-capped device, segment-aware chunks mean an OOM retry
    // re-runs (and blames) only whole queries: q0's tiny 2-row chunk fits,
    // so every `chunk_shrinks` must land on q1 alone. Scan a capacity
    // window so the test stays robust to allocator-accounting drift.
    let net = pixel_controlled_net();
    let image = |unstable: usize| -> Vec<f32> {
        (0..8)
            .map(|i| if i < unstable { 0.5 } else { 0.9 })
            .collect()
    };
    let qs = vec![Query::new(image(2), 0, 0.1), Query::new(image(6), 1, 0.1)];
    let mut pinned = false;
    for cap in [768usize, 704, 640, 576, 512, 448] {
        let cfg = VerifyConfig {
            chunk_rows: Some(6),
            ..Default::default()
        };
        let device = Device::new(DeviceConfig::new().workers(1).memory_capacity(cap));
        let engine = Engine::new(device, &net, cfg).unwrap();
        let got = engine.verify_batch_fused(&qs);
        if !got.iter().all(Result::is_ok) || engine.stats().fused_batches != 1 {
            continue; // too tight (fell back / errored): try the next cap
        }
        let shrinks: Vec<usize> = got
            .iter()
            .map(|v| v.as_ref().unwrap().stats.chunk_shrinks)
            .collect();
        if shrinks[1] > 0 {
            assert_eq!(
                shrinks[0], 0,
                "q0's whole-query chunk fit; shrinks of q1's chunk must not \
                 be attributed to q0 (got {shrinks:?} at cap {cap})"
            );
            pinned = true;
        }
    }
    assert!(
        pinned,
        "no capacity in the scan window produced a q1-only shrink; \
         widen the window"
    );
}

/// Two hidden layers of 72, where pixel 0 decides how much of the first is
/// stably off: its weight into every first-layer neuron is -4 against small
/// weights elsewhere and a bias near 1, so at pixel 0 = 1 the whole layer is
/// dead and at pixel 0 = 0 none of it is.
fn dead_set_net() -> Network<f32> {
    let mix = |i: usize| ((i * 2654435761) % 2001) as f32 / 1000.0 - 1.0;
    NetworkBuilder::new_flat(8)
        .flatten_dense(
            72,
            move |i| if i % 8 == 0 { -4.0 } else { mix(i) * 0.2 },
            move |i| 1.0 + mix(i + 999) * 0.25,
        )
        .relu()
        .flatten_dense(72, move |i| mix(i + 77) * 0.3, move |i| mix(i + 55) * 0.2)
        .relu()
        .flatten_dense(3, move |i| mix(i + 5) * 0.5, |_| 0.0)
        .build()
        .expect("net builds")
}

#[test]
fn fused_queries_with_different_dead_sets_get_the_bits_they_get_alone() {
    let net = dead_set_net();
    let image = |x0: f32| -> Vec<f32> {
        (0..8)
            .map(|i| if i == 0 { x0 } else { 0.3 + 0.05 * i as f32 })
            .collect()
    };
    // A whole first layer dead; none of it dead, much of it unstable; a mix.
    let qs = vec![
        Query::new(image(1.0), 0, 0.01),
        Query::new(image(0.0), 1, 0.3),
        Query::new(image(0.25), 2, 0.05),
        Query::new(image(0.3), 0, 0.02),
    ];
    let dead_share = |engine: &Engine<'_, f32, gpupoly_device::CpuSimBackend>, q: &Query<f32>| {
        let boxed: Vec<Itv<f32>> = q
            .image
            .iter()
            .map(|&x| Itv::new((x - q.eps).max(0.0), (x + q.eps).min(1.0)))
            .collect();
        let pre = &engine.analyze(&boxed).expect("analysis").bounds[1];
        1.0 - ReluRelax::live(pre).len() as f64 / pre.len() as f64
    };
    let opts = EngineOptions {
        analysis_cache: 0,
        ..Default::default()
    };
    let seen = |v: &Result<gpupoly_core::RobustnessVerdict<f32>, VerifyError>| {
        let v = v.as_ref().expect("answered");
        let bits: Vec<u32> = v.margins.iter().map(|m| m.lower.to_bits()).collect();
        (
            v.verified,
            bits,
            v.stats.rows_refined,
            v.stats.rows_stopped_early,
        )
    };
    let mut want = None;
    for workers in [1usize, 2, 3] {
        let device = Device::new(DeviceConfig::new().workers(workers));
        let engine = Engine::with_options(device, &net, VerifyConfig::default(), opts).unwrap();
        if workers == 1 {
            let shares: Vec<f64> = qs.iter().map(|q| dead_share(&engine, q)).collect();
            assert_eq!(shares[0], 1.0, "query 0 must have its first layer dead");
            assert_eq!(shares[1], 0.0, "query 1 must have no dead neuron");
            assert!(
                shares[2..].iter().all(|&s| s > 0.0 && s < 1.0),
                "queries 2 and 3 must have some neurons dead: {shares:?}"
            );
        }
        let alone: Vec<_> = qs
            .iter()
            .map(|q| seen(&engine.verify_robustness(&q.image, q.label, q.eps)))
            .collect();
        let fused: Vec<_> = engine.verify_batch_fused(&qs).iter().map(seen).collect();
        assert_eq!(
            engine.stats().fused_batches,
            1,
            "{workers} workers: must fuse"
        );
        assert_eq!(fused, alone, "{workers} workers: fused against alone");
        assert!(alone[1].2 > 0, "query 1 must refine rows");
        match &want {
            None => want = Some(alone),
            Some(w) => assert_eq!(&alone, w, "{workers} workers against one"),
        }
    }
}

//! Concurrency and error-path guarantees of the engine's caching and
//! buffer-pool machinery:
//!
//! * hammering one input box from many threads runs **exactly one**
//!   analysis (the in-flight gate deduplicates concurrent misses) and every
//!   thread shares the same `Arc` — also when the threads come in through
//!   different entries (`analyze`, `verify_robustness`, `verify_spec`,
//!   `verify_batch_fused`), which all reach one claim-and-wait routine;
//! * a bounded LRU cache under eviction pressure stays allocation-flat
//!   (`bytes_allocated` stops growing once the pool is warm);
//! * a `BadQuery` rejected mid-`verify_batch_fused` leaves the buffer pool's
//!   accounting intact — subsequent queries still recycle, and dropping the
//!   engine returns every byte (regression test for pool double-release /
//!   leak on the error path).

use std::sync::{Arc, Barrier};

use gpupoly_core::{Engine, EngineOptions, LinearSpec, Query, VerifyConfig, VerifyError};
use gpupoly_device::{Device, DeviceConfig};
use gpupoly_interval::Itv;
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::Network;

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

fn boxed(image: &[f32], eps: f32) -> Vec<Itv<f32>> {
    image
        .iter()
        .map(|&x| Itv::new(x - eps, x + eps).clamp_to(0.0, 1.0))
        .collect()
}

#[test]
fn concurrent_same_box_runs_exactly_one_analysis() {
    let net = random_net(11, 3, 8);
    let device = Device::new(DeviceConfig::new().workers(2));
    let engine = Engine::new(device, &net, VerifyConfig::default()).unwrap();
    let input = boxed(&[0.41, 0.62, 0.33, 0.74], 0.015);

    const THREADS: usize = 12;
    let analyses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let engine = &engine;
                let input = &input;
                s.spawn(move || engine.analyze(input).expect("analysis"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // In-flight dedup: one true miss, everyone else either hit the cache or
    // blocked on the gate and then hit it.
    let (hits, misses) = engine.cache_stats();
    assert_eq!(misses, 1, "exactly one analysis must run for one box");
    assert_eq!(hits, (THREADS - 1) as u64, "all other threads reuse it");
    for a in &analyses {
        assert!(
            Arc::ptr_eq(a, &analyses[0]),
            "all threads must share one analysis object"
        );
    }
}

#[test]
fn mixed_concurrent_entries_share_one_analysis_per_box() {
    // Every public way to a verdict, over the same two boxes at once: each
    // box is analyzed exactly once engine-wide, and every caller reads the
    // margins one engine alone would give.
    let net = random_net(11, 3, 8);
    let qs = [
        Query::new(vec![0.41f32, 0.62, 0.33, 0.74], 0, 0.015),
        Query::new(vec![0.52f32, 0.27, 0.68, 0.45], 2, 0.02),
    ];
    let boxes: Vec<Vec<Itv<f32>>> = qs.iter().map(|q| boxed(&q.image, q.eps)).collect();
    let spec = |j: usize| LinearSpec::robustness(qs[j].label, 3);
    let alone = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
    let want: Vec<Vec<u32>> = qs
        .iter()
        .map(|q| {
            let v = alone.verify_robustness(&q.image, q.label, q.eps).unwrap();
            v.margins.iter().map(|m| m.lower.to_bits()).collect()
        })
        .collect();

    let engine = Engine::new(
        Device::new(DeviceConfig::new().workers(2)),
        &net,
        VerifyConfig::default(),
    )
    .unwrap();
    const ENTRIES: usize = 4;
    const THREADS: usize = 2 * ENTRIES;
    let start = Barrier::new(THREADS);
    let got: Vec<Vec<Vec<u32>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, qs, boxes, start) = (&engine, &qs, &boxes, &start);
                s.spawn(move || {
                    // Half the threads take the boxes in the other order.
                    let order = if t < ENTRIES { [0, 1] } else { [1, 0] };
                    let bits = |lower: &mut dyn Iterator<Item = f32>| -> Vec<u32> {
                        lower.map(f32::to_bits).collect()
                    };
                    start.wait();
                    let mut out = vec![Vec::new(); 2];
                    match t % ENTRIES {
                        0 => {
                            for j in order {
                                let analysis = engine.analyze(&boxes[j]).expect("analysis");
                                let v = engine.check_spec_with(&analysis, &spec(j)).unwrap();
                                out[j] = bits(&mut v.lower_bounds.into_iter());
                            }
                        }
                        1 => {
                            for j in order {
                                let q = &qs[j];
                                let v = engine.verify_robustness(&q.image, q.label, q.eps);
                                out[j] = bits(&mut v.unwrap().margins.iter().map(|m| m.lower));
                            }
                        }
                        2 => {
                            for j in order {
                                let v = engine.verify_spec(&boxes[j], &spec(j)).unwrap();
                                out[j] = bits(&mut v.lower_bounds.into_iter());
                            }
                        }
                        _ => {
                            let batch = [qs[order[0]].clone(), qs[order[1]].clone()];
                            for (j, v) in order.into_iter().zip(engine.verify_batch_fused(&batch)) {
                                out[j] = bits(&mut v.unwrap().margins.iter().map(|m| m.lower));
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, bits) in got.iter().enumerate() {
        assert_eq!(
            bits,
            &want,
            "thread {t} (entry {}) read other margins",
            t % ENTRIES
        );
    }
    let (hits, misses) = engine.cache_stats();
    assert_eq!(misses, 2, "each box must be analyzed exactly once");
    assert_eq!(
        hits + misses,
        (2 * THREADS) as u64,
        "every other lookup of a box is a hit"
    );
}

#[test]
fn eviction_pressure_stays_allocation_flat() {
    // A capacity-1 cache under a rotating stream of distinct boxes: every
    // lookup evicts, yet after one warmup round the device pool serves all
    // transient buffers, so `bytes_allocated` must stop growing — eviction
    // churn is host-side only and never leaks device memory.
    let net = random_net(23, 3, 8);
    let device = Device::new(DeviceConfig::new().workers(2));
    let engine = Engine::with_options(
        device.clone(),
        &net,
        VerifyConfig {
            early_termination: false, // deterministic batch geometry
            ..Default::default()
        },
        EngineOptions {
            analysis_cache: 1,
            ..Default::default()
        },
    )
    .unwrap();

    let images: Vec<Vec<f32>> = (0..4)
        .map(|q| (0..4).map(|i| 0.2 + 0.1 * ((q + i) as f32)).collect())
        .collect();
    for img in &images {
        engine.analyze(&boxed(img, 0.01)).unwrap();
    }
    let bytes_after_warmup = device.stats().bytes_allocated();
    let in_use_after_warmup = device.memory_in_use();

    for _ in 0..3 {
        for img in &images {
            engine.analyze(&boxed(img, 0.01)).unwrap();
        }
    }
    let (hits, misses) = engine.cache_stats();
    assert_eq!(hits, 0, "capacity-1 cache under rotation never hits");
    assert_eq!(misses, 16, "every lookup recomputes after eviction");
    assert_eq!(
        device.stats().bytes_allocated(),
        bytes_after_warmup,
        "eviction churn must not allocate fresh device bytes"
    );
    assert_eq!(
        device.memory_in_use(),
        in_use_after_warmup,
        "memory in use (resident weights + shelved pool) must be steady"
    );

    // Dropping the engine returns everything: weights and pooled buffers.
    drop(engine);
    assert_eq!(device.memory_in_use(), 0);
    assert_eq!(device.buffer_pool_bytes(), 0);
}

#[test]
fn bad_query_mid_batch_leaves_pool_accounting_intact() {
    let net = random_net(5, 3, 8);
    let device = Device::new(DeviceConfig::new().workers(2));
    let engine = Engine::new(device.clone(), &net, VerifyConfig::default()).unwrap();

    let good = |q: usize| {
        let image: Vec<f32> = (0..4)
            .map(|i| 0.2 + 0.6 * (((q * 31 + i * 7) % 97) as f32 / 97.0))
            .collect();
        Query::new(image, q % 3, 0.01)
    };
    // Malformed queries interleaved with good ones: wrong image length,
    // out-of-range label, negative epsilon.
    let batch = vec![
        good(0),
        Query::new(vec![0.5f32; 3], 0, 0.01), // wrong length
        good(1),
        Query::new(vec![0.5f32; 4], 9, 0.01), // label out of range
        good(2),
        Query::new(vec![0.5f32; 4], 0, -0.5), // negative eps
    ];
    let out = engine.verify_batch_fused(&batch);
    assert!(out[0].is_ok() && out[2].is_ok() && out[4].is_ok());
    for bad in [1, 3, 5] {
        assert!(
            matches!(out[bad], Err(VerifyError::BadQuery(_))),
            "query {bad}: expected BadQuery, got {:?}",
            out[bad]
        );
    }

    // Pool invariants after the failed queries: shelved bytes are part of
    // (never exceed) the in-use charge, and a repeat batch still succeeds
    // against intact accounting.
    assert!(device.buffer_pool_bytes() <= device.memory_in_use());
    let out = engine.verify_batch_fused(&batch);
    assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 3);

    // The pool still recycles: sequential repeats allocate zero fresh
    // device bytes. (Sequential on purpose — a *parallel* repeat can
    // legitimately need a second pooled copy of a size class whenever its
    // cache-hit walks overlap more than the warmup batch's did, which is
    // thread-timing dependent. One query at a time needs exactly the
    // single copy the warmup provably shelved.)
    let bytes_before_repeat = device.stats().bytes_allocated();
    for q in &batch {
        let _ = engine.verify_robustness(&q.image, q.label, q.eps);
    }
    assert_eq!(
        device.stats().bytes_allocated(),
        bytes_before_repeat,
        "pool must keep serving after BadQuery errors"
    );

    // Exactly one balanced release happens on drop: all memory returns and
    // the pool cannot have been double-released into an inactive state
    // earlier (the repeats above would have allocated fresh bytes).
    drop(engine);
    assert_eq!(device.memory_in_use(), 0, "engine drop releases everything");
    assert_eq!(device.buffer_pool_bytes(), 0);
    // The device-level underflow guard: even a buggy extra release must not
    // wrap the pool into a permanently-active state that shelves (leaks)
    // buffers. In release builds it is ignored; in debug builds it asserts.
    if !cfg!(debug_assertions) {
        device.buffer_pool_release();
        assert!(!device.buffer_pool_active());
    }
}

/// A conv + residual + dense network whose walks exercise every promoted
/// backend kernel: GBC transpose conv, densify, residual merge/split
/// copies, the ReLU step and concretize.
fn kernel_zoo_net() -> Network<f32> {
    use gpupoly_nn::Shape;
    NetworkBuilder::new(Shape::new(4, 4, 2))
        .conv(
            2,
            (3, 3),
            (1, 1),
            (1, 1),
            (0..2 * 3 * 3 * 2)
                .map(|i| ((i % 7) as f32 - 3.0) * 0.08)
                .collect(),
            vec![0.05, -0.05],
        )
        .relu()
        .residual(
            |a| {
                a.conv(
                    2,
                    (3, 3),
                    (1, 1),
                    (1, 1),
                    (0..2 * 3 * 3 * 2)
                        .map(|i| ((i % 5) as f32 - 2.0) * 0.06)
                        .collect(),
                    vec![0.0, 0.02],
                )
                .relu()
            },
            |b| b,
        )
        .flatten_dense(3, |i| ((i % 11) as f32 - 5.0) * 0.05, |_| 0.0)
        .build()
        .expect("kernel zoo net builds")
}

#[test]
fn promoted_kernel_walks_stay_allocation_flat_on_the_pooling_backend() {
    // Repeated walks over the conv/residual net run every promoted trait
    // kernel (GBC, densify, merge, split copies, ReLU step, concretize);
    // with early termination off the batch shapes repeat exactly, so after
    // one warmup query every scratch allocation — including the kernels'
    // gather/duplicate targets — must come from the pool.
    let cfg = VerifyConfig {
        early_termination: false,
        ..Default::default()
    };
    let device = Device::new(DeviceConfig::new().workers(2));
    let net = kernel_zoo_net();
    let engine = Engine::new(device.clone(), &net, cfg).unwrap();

    let image = |q: usize| -> Vec<f32> {
        (0..32)
            .map(|i| 0.2 + 0.6 * (((q * 37 + i * 13) % 100) as f32 / 100.0))
            .collect()
    };
    engine.verify_robustness(&image(0), 0, 0.01).unwrap();
    let bytes_after_warmup = device.stats().bytes_allocated();
    for q in 1..6 {
        // Distinct images (cache misses), identical batch geometry.
        engine.verify_robustness(&image(q), q % 3, 0.01).unwrap();
    }
    // The walks must actually have crossed the promoted kernels.
    for label in [
        "gbc_lo",
        "gbc_hi",
        "residual_merge_lo",
        "residual_merge_hi",
        "split_add_copy",
        "relu_step_lo",
        "relu_step_hi",
        "bias_fold_lo",
        "bias_fold_hi",
        "concretize",
    ] {
        assert!(
            device.stats().kernel_launches(label) > 0,
            "walks must exercise {label}"
        );
    }
    assert_eq!(
        device.stats().bytes_allocated(),
        bytes_after_warmup,
        "steady-state walks over the promoted kernels must reuse pooled \
         buffers only"
    );
    assert!(device.stats().pool_hits() > 0);
}

#[test]
fn dead_neurons_cost_no_gather_and_no_device_memory() {
    // Rows that stop early are the one thing a walk compacts. A neuron that
    // is stably off leaves an exactly-zero column, which the interval GEMM
    // skips term by term: no gather is launched for it and no copy of a
    // layer's weights or of a bound matrix is made without it. With early
    // termination off no row ever stops, so a batch gathers nothing at all,
    // and what it holds live at once is what the same architecture holds
    // with every neuron on: resident weights and the bound matrices.
    let w = |seed: usize| {
        move |i: usize| (((i * 2654435761 + seed * 97) % 1000) as f32 / 1000.0 - 0.5) * 0.4
    };
    // Inputs in [0, 1], |w| <= 0.2: a bias of -4 is stably off, 2 or 8 on.
    let net = |b1: fn(usize) -> f32, b2: fn(usize) -> f32| {
        NetworkBuilder::new_flat(6)
            .flatten_dense(16, w(1), b1)
            .relu()
            .flatten_dense(16, w(2), b2)
            .relu()
            .flatten_dense(3, w(3), |_| 0.0)
            .build()
            .unwrap()
    };
    let dead = net(
        |i| if i % 2 == 0 { -4.0 } else { 0.1 },
        |i| if i % 3 == 0 { -4.0 } else { 0.05 },
    );
    let live = net(|_| 2.0, |_| 8.0);
    let cfg = VerifyConfig {
        early_termination: false,
        ..Default::default()
    };
    let batch: Vec<Query<f32>> = (0..4)
        .map(|q| {
            let image: Vec<f32> = (0..6)
                .map(|i| 0.3 + 0.4 * (((q * 37 + i * 11) % 100) as f32 / 100.0))
                .collect();
            Query::new(image, q % 3, 0.03)
        })
        .collect();
    let run = |net: &Network<f32>| {
        let device = Device::new(DeviceConfig::new().workers(2));
        let engine = Engine::new(device.clone(), net, cfg).unwrap();
        let resident = engine.prepared().resident_bytes();
        let out = engine.verify_batch_fused(&batch);
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(engine.stats().fused_batches, 1);
        assert_eq!(device.stats().kernel_launches("gather_rows"), 0);
        assert_eq!(device.stats().kernel_launches("compact_indices"), 0);
        (resident, device.peak_live_memory())
    };
    let (resident, peak) = run(&dead);
    assert_eq!(
        (resident, peak),
        run(&live),
        "dead neurons changed the peak"
    );
    // The bound matrices, as the chunking heuristic of §4.2 prices them: the
    // longest list is a hidden layer's 16 rows for each of the four queries,
    // 16 columns wide, two interval planes, three deep (the source and the
    // destination of a step, and what they are assembled from). One more
    // copy of a list's planes would not fit under it.
    let itv = std::mem::size_of::<Itv<f32>>();
    let matrices = (4 * 16) * 16 * itv * 2 * 3;
    assert!(
        peak <= resident + matrices,
        "peak live {peak} B over {resident} B resident + {matrices} B of bound matrices"
    );
}

#[test]
fn densify_scratch_recycles_through_the_pool() {
    // `densify` only engages when a cuboid batch reaches a dense step, a
    // shape the walk tests above never produce — drive it directly:
    // repeated densify of identical cuboid geometry must stop allocating
    // once the pool is warm, and every byte must return on release.
    use gpupoly_core::expr::ExprBatch;
    use gpupoly_nn::{Conv2d, Shape};

    let device = Device::new(DeviceConfig::new().workers(2));
    device.buffer_pool_retain();
    let conv = Conv2d::new(
        Shape::new(4, 4, 2),
        2,
        (3, 3),
        (1, 1),
        (1, 1),
        (0..2 * 3 * 3 * 2)
            .map(|i| ((i % 7) as f32 - 3.0) * 0.1)
            .collect(),
        vec![0.1, -0.1],
    )
    .unwrap();
    let neurons: Vec<usize> = (0..8).collect();
    let mk = || ExprBatch::from_conv(&device, &conv, &neurons, 0, None).unwrap();
    {
        let _warm = mk().densify(&device).unwrap();
    }
    let launches0 = device.stats().kernel_launches("densify_lo");
    let bytes_after_warmup = device.stats().bytes_allocated();
    for _ in 0..5 {
        let full = mk().densify(&device).unwrap();
        assert!(full.is_full());
    }
    assert!(device.stats().kernel_launches("densify_lo") >= launches0 + 5);
    assert_eq!(
        device.stats().bytes_allocated(),
        bytes_after_warmup,
        "repeated densify must be served by the pool"
    );
    device.buffer_pool_release();
    assert_eq!(device.memory_in_use(), 0, "release must return every byte");
}

//! Device-memory behavior (§4.2 "Memory management"): chunked
//! backsubstitution under a hard capacity produces the same results as an
//! unconstrained run, never exceeds the cap, and fails cleanly when even a
//! single row cannot fit.

use gpupoly::core::{Engine, Query, VerifyConfig, VerifyError};
use gpupoly::device::{Device, DeviceConfig, DeviceError};
use gpupoly::nn::builder::NetworkBuilder;
use gpupoly::nn::{Network, Shape};

fn conv_net() -> Network<f32> {
    let b = NetworkBuilder::new(Shape::new(8, 8, 1))
        .conv(
            6,
            (3, 3),
            (1, 1),
            (1, 1),
            (0..54).map(|i| ((i % 9) as f32 - 4.0) * 0.12).collect(),
            vec![0.02; 6],
        )
        .relu()
        .conv(
            8,
            (3, 3),
            (2, 2),
            (1, 1),
            (0..432).map(|i| ((i % 7) as f32 - 3.0) * 0.08).collect(),
            vec![0.0; 8],
        )
        .relu();
    let in_len = b.current_shape().len();
    b.flatten_dense(
        5,
        move |i| (((i * 13) % 23) as f32 - 11.0) * 0.4 / in_len as f32,
        |_| 0.0,
    )
    .build()
    .expect("net")
}

#[test]
fn constrained_device_matches_unconstrained_results() {
    let net = conv_net();
    let image = vec![0.5f32; 64];
    let label = net.classify(&image);
    let eps = 0.02f32;

    let free = Device::new(DeviceConfig::new().workers(2));
    let big = Engine::new(free.clone(), &net, VerifyConfig::default())
        .unwrap()
        .verify_robustness(&image, label, eps)
        .unwrap();

    for cap in [96 * 1024usize, 192 * 1024] {
        let tight = Device::new(DeviceConfig::new().workers(2).memory_capacity(cap));
        let small = Engine::new(tight.clone(), &net, VerifyConfig::default())
            .unwrap()
            .verify_robustness(&image, label, eps)
            .unwrap();
        assert_eq!(big.verified, small.verified, "cap {cap}");
        for (a, b) in big.margins.iter().zip(&small.margins) {
            assert!(
                (a.lower - b.lower).abs() < 1e-4 * (1.0 + a.lower.abs()),
                "cap {cap}: margins diverged {} vs {}",
                a.lower,
                b.lower
            );
        }
        assert!(tight.peak_memory() <= cap, "capacity violated at {cap}");
        assert!(
            small.stats.chunks >= big.stats.chunks,
            "constrained run should need at least as many chunks"
        );
    }
}

#[test]
fn manual_chunk_sizes_agree() {
    let net = conv_net();
    let image = vec![0.45f32; 64];
    let label = net.classify(&image);
    let device = Device::new(DeviceConfig::new().workers(2));
    let mut reference = None;
    for chunk in [usize::MAX, 64, 7, 1] {
        let verdict = Engine::new(
            device.clone(),
            &net,
            VerifyConfig {
                chunk_rows: Some(chunk),
                ..Default::default()
            },
        )
        .unwrap()
        .verify_robustness(&image, label, 0.015)
        .unwrap();
        let margins: Vec<f32> = verdict.margins.iter().map(|m| m.lower).collect();
        match &reference {
            None => reference = Some(margins),
            Some(want) => {
                for (a, b) in margins.iter().zip(want) {
                    assert!(
                        (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                        "chunk={chunk}: margin {a} vs reference {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn hopeless_capacity_fails_with_oom() {
    let net = conv_net();
    let image = vec![0.5f32; 64];
    let label = net.classify(&image);
    // 2 KiB cannot hold even a single backsubstitution row here.
    let device = Device::new(DeviceConfig::new().workers(2).memory_capacity(2 * 1024));
    let engine = Engine::new(device, &net, VerifyConfig::default()).unwrap();
    // A pipeline error is every box's: a fused batch of three and a fused
    // batch of one get the same typed error in every slot.
    let fused = |eps: &[f32]| {
        let queries: Vec<Query<f32>> = eps
            .iter()
            .map(|&e| Query::new(image.clone(), label, e))
            .collect();
        engine.verify_batch_fused(&queries)
    };
    let slots = std::iter::once(engine.verify_robustness(&image, label, 0.02))
        .chain(fused(&[0.02, 0.03, 0.04]))
        .chain(fused(&[0.05]));
    for (slot, verdict) in slots.enumerate() {
        match verdict {
            Err(VerifyError::Device(DeviceError::OutOfMemory { capacity, .. })) => {
                assert_eq!(capacity, 2 * 1024, "slot {slot}");
            }
            other => panic!("slot {slot}: expected out-of-memory, got {other:?}"),
        }
    }
}

#[test]
fn memory_is_released_between_queries() {
    let net = conv_net();
    let image = vec![0.5f32; 64];
    let label = net.classify(&image);
    let device = Device::new(DeviceConfig::new().workers(2));
    let engine = Engine::new(device.clone(), &net, VerifyConfig::default()).unwrap();
    let resident = engine.prepared().resident_bytes();
    // A fresh box each time, so that none is served from the cache.
    for eps in [0.02, 0.021, 0.022] {
        let _ = engine.verify_robustness(&image, label, eps).unwrap();
        // Between queries the device holds the weights and what the buffer
        // pool keeps for the next one; nothing a query allocated is live.
        assert_eq!(
            device.memory_in_use(),
            resident + device.buffer_pool_bytes(),
            "verification leaked device memory"
        );
    }
    drop(engine);
    assert_eq!(device.memory_in_use(), 0, "the engine leaked device memory");
}

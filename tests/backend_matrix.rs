//! End-to-end verification under a CI-selected backend.
//!
//! CI runs the test suite once per backend with `GPUPOLY_BACKEND` set to
//! `cpusim` or `reference` (see `.github/workflows/ci.yml`); unset, both
//! are exercised. The body is one generic function — exactly the shape a
//! downstream user's code takes when written against the `Backend` trait —
//! so this test also pins that the public engine API stays fully
//! backend-generic.

use gpupoly::core::{Engine, Query, VerifyConfig};
use gpupoly::device::{Backend, Device, DeviceConfig};
use gpupoly::nn::builder::NetworkBuilder;
use gpupoly::nn::Network;

fn net() -> Network<f32> {
    let mix = |i: usize| ((((i + 13) * 2654435761) % 2001) as f32 / 1000.0 - 1.0) * 0.4;
    NetworkBuilder::new_flat(6)
        .dense_flat(10, (0..60).map(mix).collect(), (0..10).map(mix).collect())
        .relu()
        .dense_flat(10, (0..100).map(mix).collect(), (0..10).map(mix).collect())
        .relu()
        .dense_flat(4, (0..40).map(mix).collect(), vec![0.0; 4])
        .build()
        .expect("valid net")
}

/// The whole public verification surface, written backend-generically.
fn verify_end_to_end<B: Backend>(device: Device<B>) {
    let net = net();
    let image: Vec<f32> = (0..6).map(|i| 0.3 + 0.07 * i as f32).collect();
    let label = net.classify(&image);

    // Batched engine path.
    let engine = Engine::new(device.clone(), &net, VerifyConfig::default()).expect("engine");
    let queries: Vec<Query<f32>> = (0..4)
        .map(|q| Query::new(image.clone(), label, 0.005 + 0.005 * q as f32))
        .collect();
    let verdicts = engine.verify_batch_fused(&queries);
    for (q, v) in queries.iter().zip(verdicts) {
        let v = v.expect("query succeeds");
        // Soundness at the box center: the certified margin lower-bounds
        // the concrete margin. (Margins are not asserted monotone in eps:
        // early termination stops refining a row once it is proven, so a
        // larger box can legitimately report a tighter — still sound —
        // certified margin.)
        let y = net.infer(&image);
        for m in &v.margins {
            assert!(
                m.lower <= y[q.label] - y[m.adversary] + 1e-5,
                "[{}] margin unsound",
                device.backend().label()
            );
        }
    }

    // The single-query path, on a second engine sharing the device.
    let second = Engine::new(device.clone(), &net, VerifyConfig::default()).expect("engine");
    let v = second
        .verify_robustness(&image, label, 0.005)
        .expect("query succeeds");
    assert_eq!(v.margins.len(), 3);

    drop(engine);
    drop(second);
    assert_eq!(
        device.memory_in_use(),
        0,
        "[{}] all device memory returned",
        device.backend().label()
    );
}

#[test]
fn selected_backend_verifies_end_to_end() {
    let selected = std::env::var("GPUPOLY_BACKEND").unwrap_or_default();
    match selected.as_str() {
        "reference" => verify_end_to_end(Device::reference(DeviceConfig::new().workers(2))),
        "cpusim" => verify_end_to_end(Device::new(DeviceConfig::new().workers(2))),
        "" => {
            verify_end_to_end(Device::new(DeviceConfig::new().workers(2)));
            verify_end_to_end(Device::reference(DeviceConfig::new().workers(2)));
        }
        other => panic!("unknown GPUPOLY_BACKEND {other:?} (use cpusim|reference)"),
    }
}

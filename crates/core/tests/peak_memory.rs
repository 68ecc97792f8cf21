//! Device memory on the scale axis: one uncapped query on each of two zoo
//! networks far larger than the benchmark's, on a device of two workers,
//! must peak under a fixed number of bytes (§4.2: the bound matrices are
//! walked in pieces, so a network's reach is set by what its walks hold at
//! once, not by its size). A walk is at most [`gpupoly_core::WALK_BYTES`] of
//! rows, and the buffer pool keeps one shelf lane per worker, so the peak is
//! about what two live walks need beside the resident weights.
//!
//! Ignored by default: a few seconds a query in a release build, minutes
//! unoptimized. CI runs it optimized:
//! `cargo test --release -p gpupoly-core --test peak_memory -- --ignored`.

use gpupoly_core::{Engine, VerifyConfig};
use gpupoly_device::{Device, DeviceConfig};
use gpupoly_nn::zoo::{build_arch, ArchId, Dataset};
use std::time::Instant;

/// A smooth pseudo-image in `[0, 1]`.
fn image(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| 0.5 + 0.5 * (i as f32 * 0.013).sin())
        .collect()
}

/// Verifies one query on a fresh two-worker device, uncapped, and returns
/// the device's peak memory in MB.
fn peak_mb(arch: ArchId, dataset: Dataset, scale: f64, eps: f32) -> f64 {
    let net = build_arch(arch, dataset, scale, 7).expect("zoo architecture");
    let image = image(net.input_shape().len());
    let label = net.classify(&image);
    let device = Device::new(DeviceConfig::new().workers(2));
    let engine = Engine::new(device.clone(), &net, VerifyConfig::default()).expect("engine");
    let start = Instant::now();
    let verdict = engine
        .verify_robustness(&image, label, eps)
        .expect("the query verifies");
    let peak = device.peak_memory() as f64 / 1e6;
    println!(
        "{} x{scale}: {:.2} s, {peak:.2} MB peak, {} walks, verified {}",
        arch.name(),
        start.elapsed().as_secs_f64(),
        verdict.stats.chunks,
        verdict.verified,
    );
    peak
}

#[test]
#[ignore = "seconds a query optimized; CI runs it with --release --ignored"]
fn a_convbig_query_at_full_width_peaks_under_32_mb() {
    let peak = peak_mb(ArchId::ConvBig, Dataset::MnistLike, 1.0, 0.005);
    assert!(peak <= 32.0, "ConvBig x1.0 peaked at {peak:.2} MB");
}

#[test]
#[ignore = "seconds a query optimized; CI runs it with --release --ignored"]
fn a_resnet18_query_at_a_twentieth_width_peaks_under_30_mb() {
    let peak = peak_mb(ArchId::ResNet18, Dataset::Cifar10Like, 0.05, 0.001);
    assert!(peak <= 30.0, "ResNet18 x0.05 peaked at {peak:.2} MB");
}

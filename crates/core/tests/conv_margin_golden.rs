//! Golden margins of the convolutional walk.
//!
//! Every margin bit of eight fused queries on three zoo networks, pinned as
//! one FNV-1a digest per network: `ConvBig` (padded, strided convolutions —
//! dependence-set windows that reach past every border of their layer),
//! `ConvSuper` (valid convolutions — windows that slide but never leave the
//! layer) and `ResNetTiny` (`split_add` / `merge` over slid windows). The
//! digests were written against the gather kernel over unclipped windows; a
//! change to how windows are stored, or to the order a kernel visits them in,
//! must reproduce them on both backends. They say nothing a differential
//! test between the backends could: both run the same contract.

use gpupoly_core::{Engine, Query, VerifyConfig};
use gpupoly_device::{Backend, Device, DeviceConfig};
use gpupoly_nn::zoo::{build_arch, ArchId, Dataset};
use gpupoly_nn::Network;

const QUERIES: usize = 8;

/// A smooth pseudo-image in `[0, 1]`, different for every query.
fn image(len: usize, q: usize) -> Vec<f32> {
    (0..len)
        .map(|i| 0.5 + 0.5 * ((i * 37 + q * 101) as f32 * 0.013).sin())
        .collect()
}

fn queries(net: &Network<f32>, eps: [f32; 2]) -> Vec<Query<f32>> {
    (0..QUERIES)
        .map(|q| {
            let image = image(net.input_shape().len(), q);
            let label = net.classify(&image);
            Query::new(image, label, eps[q % 2])
        })
        .collect()
}

/// FNV-1a over `margins[..].lower.to_bits()` of every query, in order.
fn digest<B: Backend>(device: Device<B>, net: &Network<f32>, qs: &[Query<f32>]) -> u64 {
    let engine = Engine::new(device, net, VerifyConfig::default()).expect("engine");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for verdict in engine.verify_batch_fused(qs) {
        for m in &verdict.expect("fused query").margins {
            for b in m.lower.to_bits().to_le_bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

fn assert_golden(arch: ArchId, scale: f64, eps: [f32; 2], want: u64) {
    let net = build_arch(arch, Dataset::MnistLike, scale, 7).expect("arch builds");
    let qs = queries(&net, eps);
    let cpusim = digest(Device::new(DeviceConfig::new().workers(2)), &net, &qs);
    assert_eq!(cpusim, want, "{} on cpusim: {cpusim:#018x}", arch.name());
    let reference = digest(Device::reference(DeviceConfig::new()), &net, &qs);
    assert_eq!(
        reference,
        want,
        "{} on reference: {reference:#018x}",
        arch.name()
    );
}

#[test]
fn conv_big_margins_are_golden() {
    assert_golden(ArchId::ConvBig, 0.12, [5e-4, 1e-3], 0x3751_f7bc_19a7_63ff);
}

#[test]
fn conv_super_margins_are_golden() {
    assert_golden(ArchId::ConvSuper, 0.06, [5e-4, 1e-3], 0x8eef_d707_a383_18b1);
}

#[test]
fn resnet_tiny_margins_are_golden() {
    assert_golden(
        ArchId::ResNetTiny,
        0.04,
        [1e-4, 2e-4],
        0xd085_e2af_0fa7_2824,
    );
}

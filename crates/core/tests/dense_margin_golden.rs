//! Golden margins of the dense walk.
//!
//! Every margin bit of `Fc6x500` ×0.2 — the benchmark's dense network — over
//! the benchmark's ε grid, pinned as one FNV-1a digest per path: sixteen
//! fused queries, two of which repeat an earlier box under another label (so
//! two segments of the fused batch share one analysis and with it one
//! relaxation table), and eight queries one at a time. The digests were
//! written against the ReLU step that classified and multiplied every
//! coefficient and the concretization that widened a bound for every row; a
//! change to how the element-wise kernels schedule their arithmetic must
//! reproduce them on both backends. Like `conv_margin_golden.rs`, they say
//! nothing a differential test between the backends could: both run the same
//! contract.

use gpupoly_core::{Engine, Margin, Query, VerifyConfig};
use gpupoly_device::{Backend, Device, DeviceConfig};
use gpupoly_nn::zoo::{build_arch, ArchId, Dataset};
use gpupoly_nn::Network;

const EPS: [f32; 3] = [3e-5, 1e-4, 3e-4];

/// A smooth pseudo-image in `[0, 1]`, different for every query.
fn image(len: usize, q: usize) -> Vec<f32> {
    (0..len)
        .map(|i| 0.5 + 0.5 * ((i * 37 + q * 101) as f32 * 0.013).sin())
        .collect()
}

/// `n` queries over the ε grid; query `q` of `repeats` takes the box of
/// query `q − 5` and the next label.
fn queries(net: &Network<f32>, n: usize, repeats: &[usize]) -> Vec<Query<f32>> {
    let classes = net.output_len();
    (0..n)
        .map(|q| {
            let (of, shift) = if repeats.contains(&q) {
                (q - 5, 1)
            } else {
                (q, 0)
            };
            let image = image(net.input_shape().len(), of);
            let label = (net.classify(&image) + shift) % classes;
            Query::new(image, label, EPS[of % EPS.len()])
        })
        .collect()
}

/// FNV-1a over `lower.to_bits()` of every margin, in order.
fn fnv<'a>(margins: impl Iterator<Item = &'a Margin<f32>>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for m in margins {
        for b in m.lower.to_bits().to_le_bytes() {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn fused_digest<B: Backend>(device: Device<B>, net: &Network<f32>) -> u64 {
    let engine = Engine::new(device, net, VerifyConfig::default()).expect("engine");
    let verdicts: Vec<_> = engine
        .verify_batch_fused(&queries(net, 16, &[7, 13]))
        .into_iter()
        .map(|v| v.expect("fused query"))
        .collect();
    fnv(verdicts.iter().flat_map(|v| &v.margins))
}

fn single_digest<B: Backend>(device: Device<B>, net: &Network<f32>) -> u64 {
    let engine = Engine::new(device, net, VerifyConfig::default()).expect("engine");
    let verdicts: Vec<_> = queries(net, 8, &[])
        .iter()
        .map(|q| {
            engine
                .verify_robustness(&q.image, q.label, q.eps)
                .expect("single query")
        })
        .collect();
    fnv(verdicts.iter().flat_map(|v| &v.margins))
}

fn net() -> Network<f32> {
    build_arch(ArchId::Fc6x500, Dataset::MnistLike, 0.2, 7).expect("arch builds")
}

#[test]
fn fused_dense_margins_are_golden() {
    const WANT: u64 = 0x1b48_a983_6596_0598;
    let net = net();
    let cpusim = fused_digest(Device::new(DeviceConfig::new().workers(2)), &net);
    assert_eq!(cpusim, WANT, "fused on cpusim: {cpusim:#018x}");
    let reference = fused_digest(Device::reference(DeviceConfig::new()), &net);
    assert_eq!(reference, WANT, "fused on reference: {reference:#018x}");
}

#[test]
fn single_dense_margins_are_golden() {
    const WANT: u64 = 0xb434_47b1_d011_9fba;
    let net = net();
    let cpusim = single_digest(Device::new(DeviceConfig::new().workers(2)), &net);
    assert_eq!(cpusim, WANT, "single on cpusim: {cpusim:#018x}");
    let reference = single_digest(Device::reference(DeviceConfig::new()), &net);
    assert_eq!(reference, WANT, "single on reference: {reference:#018x}");
}

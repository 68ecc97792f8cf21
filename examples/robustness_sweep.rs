//! The paper's motivating workload: certify L∞ robustness of image
//! classifiers, and watch how training regime changes what is certifiable.
//!
//! Trains two small MNIST-like convolutional models — one normally, one
//! IBP-robustly (DiffAI style) — then sweeps ε and reports the fraction of
//! candidate images each verifier proves robust. The expected shape is the
//! paper's: IBP proves almost nothing on the normal net, GPUPoly proves the
//! most everywhere, and the robust net is far easier to certify.
//!
//! Run: `cargo run --release --example robustness_sweep`

use gpupoly::baselines::{ibp, CrownIbp};
use gpupoly::core::{Engine, Query, VerifyConfig};
use gpupoly::device::Device;
use gpupoly::nn::zoo::{self, Dataset, TrainingRegime};
use gpupoly::train::{data, trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = 0.08;
    let train_eps = 0.06_f32;
    let mut full = data::synthetic(Dataset::MnistLike, 220, 11);
    let test = full.split_off(20);
    let train_set = full;

    let mut nets = Vec::new();
    for regime in [TrainingRegime::Normal, TrainingRegime::DiffAi] {
        let mut net = zoo::build_arch(zoo::ArchId::ConvBig, Dataset::MnistLike, scale, 5)?;
        let report = trainer::train(
            &mut net,
            &train_set,
            &trainer::TrainConfig {
                epochs: 4,
                eps: train_eps,
                regime,
                ..Default::default()
            },
        );
        println!(
            "{:>7} training: accuracy {:.2}, unstable ReLU fraction at eps {train_eps}: {:.3}",
            regime.name(),
            report.train_accuracy,
            trainer::unstable_relu_fraction(&net, &train_set, train_eps, 5),
        );
        nets.push((regime, net));
    }

    println!(
        "\n{:<8} {:>8} | {:>6} {:>9} {:>9}",
        "net", "eps", "IBP", "CROWN-IBP", "GPUPoly"
    );
    let device = Device::default();
    for (regime, net) in &nets {
        // One resident engine per network: weights are packed once and the
        // whole ε-sweep runs as parallel batches against it.
        let engine = Engine::new(device.clone(), net, VerifyConfig::default())?;
        let crown = CrownIbp::new(net);
        let candidates: Vec<(&Vec<f32>, usize)> = test
            .images
            .iter()
            .zip(&test.labels)
            .filter(|(img, &label)| net.classify(img) == label)
            .map(|(img, &label)| (img, label))
            .collect();
        let cands = candidates.len();
        for eps in [0.01_f32, 0.03, 0.06] {
            let queries: Vec<Query<f32>> = candidates
                .iter()
                .map(|&(img, label)| Query::new(img.clone(), label, eps))
                .collect();
            let mut v_gp = 0usize;
            for verdict in engine.verify_batch_fused(&queries) {
                v_gp += usize::from(verdict?.verified);
            }
            let (mut v_ibp, mut v_crown) = (0usize, 0usize);
            for &(img, label) in &candidates {
                v_ibp += usize::from(ibp::verify_robustness(net, img, label, eps).verified);
                v_crown += usize::from(crown.verify_robustness(img, label, eps).verified);
            }
            println!(
                "{:<8} {:>8} | {:>3}/{cands} {:>6}/{cands} {:>6}/{cands}",
                regime.name(),
                format!("{eps:.2}"),
                v_ibp,
                v_crown,
                v_gp
            );
            assert!(
                v_ibp <= v_crown && v_crown <= v_gp,
                "precision ladder violated"
            );
        }
    }
    Ok(())
}

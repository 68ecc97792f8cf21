//! End-to-end over the model zoo and trainer: build Table-1 architectures
//! at a small scale, train them under their paper regimes on synthetic
//! data, and verify — checking the *regime split* the whole evaluation
//! rests on (robust training ⇒ stable ReLUs ⇒ early termination ⇒ fast,
//! certifiable verification).

use gpupoly::core::{Engine, VerifyConfig};
use gpupoly::device::{Device, DeviceConfig};
use gpupoly::nn::zoo::{self, ArchId, Dataset, TrainingRegime};
use gpupoly::train::{data, trainer};

fn train_one(
    arch: ArchId,
    dataset: Dataset,
    regime: TrainingRegime,
    eps: f32,
    scale: f64,
) -> (gpupoly::nn::Network<f32>, data::Dataset) {
    let mut full = data::synthetic(dataset, 170, 21);
    let test = full.split_off(10);
    let mut net = zoo::build_arch(arch, dataset, scale, 3).expect("arch builds");
    trainer::train(
        &mut net,
        &full,
        &trainer::TrainConfig {
            epochs: 3,
            eps,
            regime,
            ..Default::default()
        },
    );
    (net, test)
}

#[test]
fn robust_training_enables_early_termination_and_verification() {
    let eps = 0.05f32;
    let (normal, test) = train_one(
        ArchId::ConvBig,
        Dataset::MnistLike,
        TrainingRegime::Normal,
        eps,
        0.06,
    );
    let (robust, _) = train_one(
        ArchId::ConvBig,
        Dataset::MnistLike,
        TrainingRegime::DiffAi,
        eps,
        0.06,
    );
    let device = Device::new(DeviceConfig::new().workers(2));

    let run = |net: &gpupoly::nn::Network<f32>| {
        let verifier = Engine::new(device.clone(), net, VerifyConfig::default()).unwrap();
        let mut skipped = 0usize;
        let mut refined = 0usize;
        let mut verified = 0usize;
        let mut cands = 0usize;
        for (img, &label) in test.images.iter().zip(&test.labels) {
            if net.classify(img) != label {
                continue;
            }
            cands += 1;
            let v = verifier.verify_robustness(img, label, eps).unwrap();
            skipped += v.stats.rows_skipped_stable;
            refined += v.stats.rows_refined;
            verified += usize::from(v.verified);
        }
        (cands, verified, skipped, refined)
    };

    let (nc, nv, ns, nr) = run(&normal);
    let (rc, rv, rs, rr) = run(&robust);
    // The regime split: the robust net must have a larger stable fraction.
    let normal_stable = ns as f64 / (ns + nr).max(1) as f64;
    let robust_stable = rs as f64 / (rs + rr).max(1) as f64;
    assert!(
        robust_stable > normal_stable,
        "robust net should skip more rows: {robust_stable:.3} vs {normal_stable:.3}"
    );
    // And certify at least as large a fraction of its candidates.
    if rc > 0 && nc > 0 {
        assert!(
            rv as f64 / rc as f64 >= nv as f64 / nc as f64,
            "robust net should be at least as certifiable ({rv}/{rc} vs {nv}/{nc})"
        );
    }
}

#[test]
fn residual_zoo_network_verifies_end_to_end() {
    let (net, test) = train_one(
        ArchId::ResNetTiny,
        Dataset::Cifar10Like,
        TrainingRegime::DiffAi,
        0.03,
        0.05,
    );
    let device = Device::new(DeviceConfig::new().workers(2));
    let verifier = Engine::new(device, &net, VerifyConfig::default()).unwrap();
    let mut ran = 0;
    for (img, &label) in test.images.iter().zip(&test.labels).take(4) {
        let predicted = net.classify(img);
        // Verify w.r.t. the predicted label so every image exercises the path.
        let v = verifier.verify_robustness(img, predicted, 0.005).unwrap();
        let _ = label;
        assert_eq!(v.margins.len(), 9);
        ran += 1;
    }
    assert_eq!(ran, 4);
}

#[test]
fn all_table1_architectures_build_and_infer_at_tiny_scale() {
    for spec in zoo::table1_specs() {
        let net = zoo::build_arch(spec.arch, spec.dataset, 0.04, 1).expect("builds");
        let x = vec![0.4f32; spec.dataset.input_shape().len()];
        let y = net.infer(&x);
        assert_eq!(y.len(), 10, "{}", spec.id);
        assert!(y.iter().all(|v| v.is_finite()), "{}", spec.id);
    }
}

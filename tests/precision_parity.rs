//! Precision relationships between the verifiers, as claimed by the paper:
//!
//! * GPUPoly has the *same* precision as (CPU) DeepPoly — Table 3;
//! * early termination does not change GPUPoly's verdicts — §3.2/§4.2;
//! * the ladder IBP ≤ CROWN-IBP ≤ GPUPoly holds — Tables 2 and 4.

use gpupoly::baselines::{ibp, CrownIbp, DeepPolyCpu};
use gpupoly::core::{Engine, VerifyConfig};
use gpupoly::device::{Device, DeviceConfig};
use gpupoly::nn::builder::NetworkBuilder;
use gpupoly::nn::{Network, Shape};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn rand_vec(rng: &mut StdRng, n: usize, a: f32) -> Vec<f32> {
    (0..n).map(|_| rng.random_range(-a..a)).collect()
}

fn mixed_net(rng: &mut StdRng) -> Network<f32> {
    let w1 = rand_vec(rng, 3 * 3 * 3, 0.5);
    let b = NetworkBuilder::new(Shape::new(5, 5, 1))
        .conv(3, (3, 3), (1, 1), (1, 1), w1, rand_vec(rng, 3, 0.15))
        .relu();
    let in_len = b.current_shape().len();
    let w2 = rand_vec(rng, 10 * in_len, 0.35);
    let b = b.dense_flat(10, w2, rand_vec(rng, 10, 0.15)).relu();
    let w3 = rand_vec(rng, 4 * 10, 0.5);
    b.dense_flat(4, w3, vec![0.0; 4]).build().expect("net")
}

#[test]
fn gpupoly_matches_cpu_deeppoly_verdicts_and_margins() {
    let mut rng = StdRng::seed_from_u64(10);
    let device = Device::new(DeviceConfig::new().workers(2));
    let mut disagreements = 0;
    for _ in 0..6 {
        let net = mixed_net(&mut rng);
        let image: Vec<f32> = (0..25).map(|_| rng.random_range(0.2..0.8)).collect();
        let label = net.classify(&image);
        for eps in [0.01f32, 0.03] {
            // Full-backsubstitution GPUPoly = DeepPoly's schedule.
            let gp = Engine::new(
                device.clone(),
                &net,
                VerifyConfig {
                    early_termination: false,
                    ..Default::default()
                },
            )
            .unwrap()
            .verify_robustness(&image, label, eps)
            .unwrap();
            let dp = DeepPolyCpu::new(&net).verify_robustness(&image, label, eps);
            if gp.verified != dp.verified {
                disagreements += 1;
            }
            // Margins agree to float-accumulation tolerance.
            for (m, d) in gp.margins.iter().zip(&dp.margins) {
                assert!(
                    (m.lower - d).abs() < 1e-3 * (1.0 + m.lower.abs()),
                    "margin mismatch: gpupoly {} vs cpu {}",
                    m.lower,
                    d
                );
            }
        }
    }
    assert_eq!(disagreements, 0, "GPUPoly and CPU DeepPoly disagreed");
}

#[test]
fn early_termination_never_changes_the_verdict() {
    let mut rng = StdRng::seed_from_u64(20);
    let device = Device::new(DeviceConfig::new().workers(2));
    for _ in 0..6 {
        let net = mixed_net(&mut rng);
        let image: Vec<f32> = (0..25).map(|_| rng.random_range(0.2..0.8)).collect();
        let label = net.classify(&image);
        for eps in [0.005f32, 0.02, 0.05] {
            let on = Engine::new(device.clone(), &net, VerifyConfig::default())
                .unwrap()
                .verify_robustness(&image, label, eps)
                .unwrap();
            let off = Engine::new(
                device.clone(),
                &net,
                VerifyConfig {
                    early_termination: false,
                    ..Default::default()
                },
            )
            .unwrap()
            .verify_robustness(&image, label, eps)
            .unwrap();
            assert_eq!(
                on.verified, off.verified,
                "early termination changed the verdict at eps={eps}"
            );
        }
    }
}

#[test]
fn precision_ladder_ibp_crown_gpupoly() {
    let mut rng = StdRng::seed_from_u64(30);
    let device = Device::new(DeviceConfig::new().workers(2));
    let mut strict = 0;
    for _ in 0..8 {
        let net = mixed_net(&mut rng);
        let image: Vec<f32> = (0..25).map(|_| rng.random_range(0.2..0.8)).collect();
        let label = net.classify(&image);
        for eps in [0.01f32, 0.02, 0.04] {
            let vi = ibp::verify_robustness(&net, &image, label, eps).verified;
            let vc = CrownIbp::new(&net)
                .verify_robustness(&image, label, eps)
                .verified;
            let vg = Engine::new(device.clone(), &net, VerifyConfig::default())
                .unwrap()
                .verify_robustness(&image, label, eps)
                .unwrap()
                .verified;
            // Ladder on verification power (monotone in the relaxations).
            assert!(
                !vi || vc || vg,
                "IBP verified but neither CROWN-IBP nor GPUPoly did"
            );
            assert!(vc <= vg || !vc, "CROWN-IBP verified but GPUPoly did not");
            if vg && !vc {
                strict += 1;
            }
        }
    }
    assert!(
        strict > 0,
        "expected at least one instance where GPUPoly strictly beats CROWN-IBP"
    );
}

#[test]
fn inference_error_widening_costs_little_precision() {
    let mut rng = StdRng::seed_from_u64(40);
    let device = Device::new(DeviceConfig::new().workers(2));
    let net = mixed_net(&mut rng);
    let image: Vec<f32> = (0..25).map(|_| rng.random_range(0.2..0.8)).collect();
    let label = net.classify(&image);
    let with = Engine::new(device.clone(), &net, VerifyConfig::default())
        .unwrap()
        .verify_robustness(&image, label, 0.02)
        .unwrap();
    let without = Engine::new(
        device,
        &net,
        VerifyConfig {
            account_inference_error: false,
            ..Default::default()
        },
    )
    .unwrap()
    .verify_robustness(&image, label, 0.02)
    .unwrap();
    for (a, b) in with.margins.iter().zip(&without.margins) {
        assert!(
            a.lower <= b.lower + 1e-6,
            "widening must not tighten margins"
        );
        assert!(
            (a.lower - b.lower).abs() < 1e-3 * (1.0 + b.lower.abs()),
            "widening should cost only ulp-scale precision: {} vs {}",
            a.lower,
            b.lower
        );
    }
}

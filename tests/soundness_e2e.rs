//! End-to-end soundness: on randomized dense / convolutional / residual
//! networks, the verifier's certificates must hold against concrete
//! executions and gradient-based attacks.

use gpupoly::core::{Engine, VerifyConfig};
use gpupoly::device::{Device, DeviceConfig};
use gpupoly::interval::Itv;
use gpupoly::nn::builder::NetworkBuilder;
use gpupoly::nn::{Network, Shape};
use gpupoly::train::pgd_attack;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn rand_vec(rng: &mut StdRng, n: usize, a: f32) -> Vec<f32> {
    (0..n).map(|_| rng.random_range(-a..a)).collect()
}

fn random_dense_net(rng: &mut StdRng, depth: usize) -> Network<f32> {
    let mut b = NetworkBuilder::new_flat(6);
    let mut in_len = 6;
    for _ in 0..depth {
        let w = rand_vec(rng, 8 * in_len, 0.6);
        let bias = rand_vec(rng, 8, 0.3);
        b = b.dense_flat(8, w, bias).relu();
        in_len = 8;
    }
    let w = rand_vec(rng, 3 * in_len, 0.6);
    b.dense_flat(3, w, vec![0.0; 3]).build().expect("valid net")
}

fn random_conv_net(rng: &mut StdRng) -> Network<f32> {
    let w1 = rand_vec(rng, 3 * 3 * 3, 0.5);
    let w2 = rand_vec(rng, 2 * 2 * 4 * 3, 0.5);
    let side = 6 * 6; // spatial after stride-2: 3x3
    let _ = side;
    let b = NetworkBuilder::new(Shape::new(6, 6, 1))
        .conv(3, (3, 3), (1, 1), (1, 1), w1, rand_vec(rng, 3, 0.2))
        .relu()
        .conv(4, (2, 2), (2, 2), (0, 0), w2, rand_vec(rng, 4, 0.2))
        .relu();
    let in_len = b.current_shape().len();
    let w3 = rand_vec(rng, 3 * in_len, 0.4);
    b.dense_flat(3, w3, vec![0.0; 3])
        .build()
        .expect("valid net")
}

fn random_residual_net(rng: &mut StdRng) -> Network<f32> {
    let w1 = rand_vec(rng, 4 * 3 * 3, 0.5);
    let wa1 = rand_vec(rng, 4 * 3 * 3 * 4, 0.4);
    let wa2 = rand_vec(rng, 4 * 3 * 3 * 4, 0.4);
    let wskip = rand_vec(rng, 4 * 4, 0.4);
    let ba1 = rand_vec(rng, 4, 0.2);
    let ba2 = rand_vec(rng, 4, 0.2);
    let bskip = rand_vec(rng, 4, 0.2);
    let b = NetworkBuilder::new(Shape::new(5, 5, 1))
        .conv(4, (3, 3), (1, 1), (1, 1), w1, rand_vec(rng, 4, 0.2))
        .relu()
        .residual(
            move |br| {
                br.conv(4, (3, 3), (1, 1), (1, 1), wa1, ba1).relu().conv(
                    4,
                    (3, 3),
                    (1, 1),
                    (1, 1),
                    wa2,
                    ba2,
                )
            },
            move |br| br.conv(4, (1, 1), (1, 1), (0, 0), wskip, bskip),
        )
        .relu();
    let in_len = b.current_shape().len();
    let w = rand_vec(rng, 3 * in_len, 0.3);
    b.dense_flat(3, w, vec![0.0; 3]).build().expect("valid net")
}

fn assert_bounds_contain_samples(net: &Network<f32>, image: &[f32], eps: f32, samples: usize) {
    let device = Device::new(DeviceConfig::new().workers(2));
    let verifier = Engine::new(device, net, VerifyConfig::default()).expect("verifier");
    let input: Vec<Itv<f32>> = image
        .iter()
        .map(|&x| Itv::new((x - eps).max(0.0), (x + eps).min(1.0)))
        .collect();
    let analysis = verifier.analyze(&input).expect("analysis");
    let graph = net.graph();
    let mut rng = StdRng::seed_from_u64(999);
    for _ in 0..samples {
        let x: Vec<f32> = image
            .iter()
            .map(|&v| (v + rng.random_range(-eps..eps)).clamp(0.0, 1.0))
            .collect();
        let acts = graph.eval(&x);
        for (node, act) in acts.iter().enumerate() {
            for (j, (&v, b)) in act.iter().zip(&analysis.bounds[node]).enumerate() {
                assert!(
                    b.contains(v),
                    "node {node} neuron {j}: bound {b} misses concrete value {v}"
                );
            }
        }
    }
}

#[test]
fn dense_net_bounds_contain_random_executions() {
    let mut rng = StdRng::seed_from_u64(1);
    for trial in 0..5 {
        let net = random_dense_net(&mut rng, 2 + trial % 3);
        let image: Vec<f32> = (0..6).map(|_| rng.random_range(0.2..0.8)).collect();
        assert_bounds_contain_samples(&net, &image, 0.08, 30);
    }
}

#[test]
fn conv_net_bounds_contain_random_executions() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..3 {
        let net = random_conv_net(&mut rng);
        let image: Vec<f32> = (0..36).map(|_| rng.random_range(0.1..0.9)).collect();
        assert_bounds_contain_samples(&net, &image, 0.05, 20);
    }
}

#[test]
fn residual_net_bounds_contain_random_executions() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..3 {
        let net = random_residual_net(&mut rng);
        let image: Vec<f32> = (0..25).map(|_| rng.random_range(0.1..0.9)).collect();
        assert_bounds_contain_samples(&net, &image, 0.05, 20);
    }
}

#[test]
fn verified_instances_resist_pgd_attacks() {
    let mut rng = StdRng::seed_from_u64(4);
    let device = Device::new(DeviceConfig::new().workers(2));
    let mut verified_seen = 0;
    for _ in 0..10 {
        let net = random_dense_net(&mut rng, 2);
        let image: Vec<f32> = (0..6).map(|_| rng.random_range(0.2..0.8)).collect();
        let label = net.classify(&image);
        let eps = 0.04;
        let verifier = Engine::new(device.clone(), &net, VerifyConfig::default()).unwrap();
        let verdict = verifier.verify_robustness(&image, label, eps).unwrap();
        if !verdict.verified {
            continue;
        }
        verified_seen += 1;
        // A verified certificate means no attack inside the ball can flip
        // the label; try hard with PGD from several restarts.
        for restart in 0..3 {
            let mut start = image.clone();
            for v in &mut start {
                *v = (*v + (restart as f32 - 1.0) * eps * 0.9).clamp(0.0, 1.0);
            }
            let adv = pgd_attack(&net, &start, label, eps, 20);
            // project once more to the ball around the original image
            let adv: Vec<f32> = adv
                .iter()
                .zip(&image)
                .map(|(&a, &x)| a.clamp(x - eps, x + eps).clamp(0.0, 1.0))
                .collect();
            assert_eq!(
                net.classify(&adv),
                label,
                "PGD broke a verified certificate"
            );
        }
    }
    assert!(
        verified_seen >= 3,
        "too few verified instances to be meaningful"
    );
}

#[test]
fn f64_verifier_works_and_is_sound() {
    // Re-express a small net in f64 and check the verifier runs with the
    // wider float type too (the paper supports both precisions).
    let net64 = NetworkBuilder::<f64>::new_flat(2)
        .dense(&[[1.0_f64, -1.0], [1.0, 1.0]], &[0.0, 0.0])
        .relu()
        .dense(&[[1.0_f64, 1.0], [1.0, -1.0]], &[0.5, 0.0])
        .build()
        .unwrap();
    let device = Device::new(DeviceConfig::new().workers(2));
    let verifier = Engine::new(device, &net64, VerifyConfig::default()).unwrap();
    let verdict = verifier.verify_robustness(&[0.4, 0.6], 0, 0.05).unwrap();
    assert!(verdict.verified);
    let y = net64.infer(&[0.43, 0.58]);
    assert!(verdict.margins[0].lower <= (y[0] - y[1]) + 1e-9);
}

//! Property-based tests of the verifier's invariants on randomized
//! networks: soundness of analysis bounds, verdict invariance under early
//! termination and chunking, and the dependence-set algebra.

use gpupoly_core::depset::DepCuboid;
use gpupoly_core::{Engine, ReluRelax, VerifyConfig};
use gpupoly_device::{Device, DeviceConfig};
use gpupoly_interval::Itv;
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::Network;
use proptest::prelude::*;

/// A random small dense ReLU network described by flat weight seeds.
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

fn device() -> Device {
    Device::new(DeviceConfig::new().workers(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn analysis_bounds_contain_sampled_executions(
        seed in 0u64..500,
        depth in 1usize..4,
        cx in 0.2f32..0.8, cy in 0.2f32..0.8,
        eps in 0.005f32..0.1,
    ) {
        let net = random_net(seed, depth, 6);
        let image = [cx, cy, 1.0 - cx, 0.5];
        let dev = device();
        let verifier = Engine::new(dev, &net, VerifyConfig::default()).unwrap();
        let input: Vec<Itv<f32>> = image
            .iter()
            .map(|&x| Itv::new((x - eps).max(0.0), (x + eps).min(1.0)))
            .collect();
        let analysis = verifier.analyze(&input).unwrap();
        let graph = net.graph();
        for t in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
            // Clamp into the exact interval to avoid 1-ulp sampler overshoot.
            let x: Vec<f32> = image
                .iter()
                .zip(&input)
                .map(|(&v, b)| (v - eps + 2.0 * eps * t).clamp(b.lo, b.hi))
                .collect();
            let acts = graph.eval(&x);
            for (node, act) in acts.iter().enumerate() {
                for (v, b) in act.iter().zip(&analysis.bounds[node]) {
                    prop_assert!(b.contains(*v), "node {node}: {b} misses {v}");
                }
            }
        }
    }

    #[test]
    fn early_termination_and_chunking_preserve_verdicts(
        seed in 0u64..300,
        eps in 0.005f32..0.06,
    ) {
        let net = random_net(seed, 2, 6);
        let image = [0.4f32, 0.6, 0.3, 0.7];
        let label = net.classify(&image);
        let dev = device();
        let base = Engine::new(dev.clone(), &net, VerifyConfig::default())
            .unwrap()
            .verify_robustness(&image, label, eps)
            .unwrap();
        for cfg in [
            VerifyConfig { early_termination: false, ..Default::default() },
            VerifyConfig { chunk_rows: Some(1), ..Default::default() },
            VerifyConfig { chunk_rows: Some(3), early_termination: false, ..Default::default() },
        ] {
            let v = Engine::new(dev.clone(), &net, cfg)
                .unwrap()
                .verify_robustness(&image, label, eps)
                .unwrap();
            prop_assert_eq!(v.verified, base.verified, "config {:?} changed verdict", cfg);
        }
    }

    #[test]
    fn certified_margins_never_exceed_center_margins(seed in 0u64..200) {
        // DeepPoly is not monotone in eps (the adaptive lower-slope choice
        // can flip), but the certificate must always lower-bound the margin
        // of every concrete point in the ball — in particular the center.
        let net = random_net(seed, 2, 5);
        let image = [0.5f32, 0.5, 0.5, 0.5];
        let label = net.classify(&image);
        let y = net.infer(&image);
        let dev = device();
        let verifier = Engine::new(dev, &net, VerifyConfig::default()).unwrap();
        for eps in [0.0f32, 0.01, 0.03, 0.08] {
            let v = verifier.verify_robustness(&image, label, eps).unwrap();
            for m in &v.margins {
                let center = y[label] - y[m.adversary];
                prop_assert!(
                    m.lower <= center + 1e-4,
                    "certified {} exceeds center margin {center} at eps={eps}",
                    m.lower
                );
            }
        }
    }

    #[test]
    fn relu_relaxation_is_sound_everywhere(l in -10.0f32..10.0, span in 0.0f32..20.0) {
        let u = l + span;
        let r = ReluRelax::from_bounds(Itv::new(l, u));
        for i in 0..=20 {
            let x = l + span * i as f32 / 20.0;
            let y = x.max(0.0);
            let lo = r.alpha.mul_f(x).add(r.beta);
            let hi = r.gamma.mul_f(x).add(r.delta);
            prop_assert!(lo.lo <= y + 1e-4, "lower bound violated at {x}");
            prop_assert!(hi.hi >= y - 1e-4, "upper bound violated at {x}");
        }
        prop_assert_eq!(r.exact, l >= 0.0 || u <= 0.0);
    }

    #[test]
    fn depset_union_laws(
        h0a in -5i64..5, w0a in -5i64..5, wha in 1usize..6, wwa in 1usize..6,
        h0b in -5i64..5, w0b in -5i64..5, whb in 1usize..6, wwb in 1usize..6,
    ) {
        let a = DepCuboid { h0: h0a, w0: w0a, wh: wha, ww: wwa, c: 3 };
        let b = DepCuboid { h0: h0b, w0: w0b, wh: whb, ww: wwb, c: 3 };
        let u = a.union(&b);
        // commutative, idempotent, covering
        prop_assert_eq!(u, b.union(&a));
        prop_assert_eq!(a.union(&a), a);
        prop_assert!(u.h0 <= a.h0 && u.h0 <= b.h0);
        prop_assert!(u.len() >= a.len() && u.len() >= b.len());
        // union covers both windows
        prop_assert!(u.h0 + (u.wh as i64) >= a.h0 + wha as i64);
        prop_assert!(u.w0 + (u.ww as i64) >= b.w0 + wwb as i64);
    }

    #[test]
    fn depset_conv_growth_matches_recurrence(
        f in 1usize..6, s in 1usize..4, p in 0usize..3, steps in 1usize..4,
    ) {
        let mut d = DepCuboid::neuron(2, 2, 1);
        let mut w_expect = 1usize;
        for _ in 0..steps {
            d = d.through_conv((f, f), (s, s), (p, p), 4);
            w_expect = (w_expect - 1) * s + f; // paper Eq. 5
            prop_assert_eq!(d.wh, w_expect);
            prop_assert_eq!(d.ww, w_expect);
            prop_assert_eq!(d.c, 4);
        }
        // real_len never exceeds the unclipped size
        prop_assert!(d.real_len(10, 10) <= d.len());
    }

    #[test]
    fn verified_implies_grid_attack_fails(seed in 0u64..150) {
        let net = random_net(seed, 2, 5);
        let image = [0.45f32, 0.55, 0.35, 0.65];
        let label = net.classify(&image);
        let eps = 0.03f32;
        let dev = device();
        let v = Engine::new(dev, &net, VerifyConfig::default())
            .unwrap()
            .verify_robustness(&image, label, eps)
            .unwrap();
        if v.verified {
            for i in 0..16 {
                let x: Vec<f32> = image
                    .iter()
                    .enumerate()
                    .map(|(j, &v0)| {
                        let sign = if (i >> j) & 1 == 0 { -1.0 } else { 1.0 };
                        (v0 + sign * eps).clamp(0.0, 1.0)
                    })
                    .collect();
                prop_assert_eq!(net.classify(&x), label, "corner attack defeated certificate");
            }
        }
    }
}

/// A chain of `layers + 1` affine layers without a ReLU between them: the
/// walk composes it exactly, so nothing but the analysis' own outward
/// rounding and the round-off accounting (§4.1) stands between a certificate
/// and what f32 inference returns.
fn affine_chain(seed: u64, layers: u64, width: usize) -> Network<f32> {
    let mix =
        |i: usize, s: u64| (((i as u64 + 17) * (s + 29)) * 2654435761 % 2001) as f32 / 1000.0 - 1.0;
    let mut b = NetworkBuilder::new_flat(width);
    for layer in 0..layers {
        let w = (0..width * width).map(|i| mix(i, seed + layer)).collect();
        let bias = (0..width).map(|i| mix(i, seed + 100 + layer)).collect();
        b = b.dense_flat(width, w, bias);
    }
    let w = (0..3 * width).map(|i| mix(i, seed + 999)).collect();
    b.dense_flat(3, w, vec![0.1, -0.2, 0.3])
        .build()
        .expect("valid net")
}

#[test]
fn certificates_hold_what_f32_inference_computes_at_zero_eps() {
    // `eps = 0`, every neuron backsubstituted to the input: the bounds are
    // as tight as the analysis gets, and have to hold the one execution
    // there is — as f32 inference computes it, round-off and all. (At the
    // level of one step, `steps::tests::conv_step_matches_composed_forward`
    // shows the exact composition alone missing it.)
    let cfg = VerifyConfig {
        early_termination: false,
        ..Default::default()
    };
    let mut checked = 0;
    for seed in 0..8u64 {
        for (layers, width) in [(1, 16), (2, 6), (3, 16), (3, 48)] {
            let chain = affine_chain(seed, layers, width);
            let relu = random_net(seed, layers as usize, width);
            for net in [&chain, &relu] {
                let len = net.graph().nodes[0].shape.len();
                let image: Vec<f32> = (0..len)
                    .map(|i| (i as f32 * 0.37 + seed as f32).sin() * 0.5 + 0.5)
                    .collect();
                let verifier = Engine::new(device(), net, cfg).unwrap();
                let region: Vec<Itv<f32>> = image.iter().map(|&x| Itv::point(x)).collect();
                let analysis = verifier.analyze(&region).unwrap();
                let acts = net.graph().eval(&image);
                for (node, (act, bounds)) in acts.iter().zip(&analysis.bounds).enumerate() {
                    for (v, b) in act.iter().zip(bounds) {
                        assert!(b.contains(*v), "seed {seed} node {node}: {b} misses {v}");
                    }
                }
                let y = acts.last().unwrap();
                let label = net.classify(&image);
                let verdict = verifier.verify_robustness(&image, label, 0.0).unwrap();
                for m in &verdict.margins {
                    // The difference of two f32 is exact in f64.
                    let computed = y[label] as f64 - y[m.adversary] as f64;
                    assert!(
                        m.lower as f64 <= computed,
                        "seed {seed}: margin bound {} above inference's {computed}",
                        m.lower
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 8 * 4 * 2 * 2);
}

//! §3.2 ablation: early termination on vs off.
//!
//! Two synthetic networks with controlled ReLU stability: a "robust-like"
//! one whose pre-activations are biased away from zero (almost every ReLU
//! is stable, the DiffAI/CR-IBP regime) and a "normal-like" one centered on
//! zero (most ReLUs unstable). Early termination should collapse runtimes
//! on the first and change little on the second — with identical verdicts
//! either way (checked here).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpupoly_core::{Engine, EngineOptions, VerifyConfig};
use gpupoly_device::{Device, DeviceConfig};
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::Network;
use std::hint::black_box;

/// A 4-hidden-layer MLP; `bias` shifts every pre-activation.
fn mlp(width: usize, bias: f32) -> Network<f32> {
    let mut b = NetworkBuilder::new_flat(16);
    let mut in_len = 16;
    for layer in 0..4 {
        let w: Vec<f32> = (0..width * in_len)
            .map(|i| (((i * 2654435761 + layer * 97) % 1000) as f32 / 1000.0 - 0.5) * 0.2)
            .collect();
        b = b.dense_flat(width, w, vec![bias; width]).relu();
        in_len = width;
    }
    b.flatten_dense(4, |i| (((i * 31) % 17) as f32 - 8.0) * 0.05, |_| 0.0)
        .build()
        .expect("mlp builds")
}

fn bench_early_term(c: &mut Criterion) {
    let mut group = c.benchmark_group("early_term_ablation");
    group.sample_size(10);
    let image = vec![0.5f32; 16];
    let eps = 0.03f32;
    for (name, bias) in [("robust_like", 0.5f32), ("normal_like", 0.0f32)] {
        let net = mlp(96, bias);
        let label = net.classify(&image);
        for (mode, et) in [("with_early_term", true), ("no_early_term", false)] {
            let cfg = VerifyConfig {
                early_termination: et,
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new(mode, name), &(), |bench, _| {
                let device = Device::new(DeviceConfig::new());
                // One box, timed over and over: no cache to serve it from.
                let uncached = EngineOptions {
                    analysis_cache: 0,
                    ..Default::default()
                };
                let engine = Engine::with_options(device, &net, cfg, uncached).expect("engine");
                bench.iter(|| {
                    let v = engine.verify_robustness(&image, label, eps).unwrap();
                    black_box(v.verified);
                });
            });
        }
        // Verdict equivalence (the paper: no precision loss).
        let device = Device::new(DeviceConfig::new());
        let on = Engine::new(device.clone(), &net, VerifyConfig::default())
            .unwrap()
            .verify_robustness(&image, label, eps)
            .unwrap();
        let off = Engine::new(
            device,
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
            "early termination changed the verdict"
        );
        println!(
            "[early-term] {name}: rows skipped as stable = {} / refined = {} (ET on)",
            on.stats.rows_skipped_stable, on.stats.rows_refined
        );
    }
    group.finish();
}

criterion_group!(benches, bench_early_term);
criterion_main!(benches);

//! Precision-tier invariants under a CI-selected float width.
//!
//! CI runs this suite once plainly and once with `GPUPOLY_FP=f64` (see
//! `.github/workflows/ci.yml`); unset, both widths are exercised. The
//! width-dispatched body pins that the engine API stays fully generic over
//! [`Fp`] — the `f64` leg runs the whole verification surface at double
//! precision, exactly what the tiered engine's escalation path relies on.
//!
//! The tier properties proper:
//!
//! * **escalation is monotone**: a query the `f32` fast tier resolves
//!   (proven with every margin clear of the escalation envelope) is never
//!   flipped by the `f64` engine — the tiered verdict equals the all-`f64`
//!   verdict on every random net/query drawn;
//! * **escalated answers are bit-identical** to the all-`f64` engine's
//!   (pinned on the escalated subset by
//!   `tiered::tests::tiered_verdicts_match_pure_f64_engine`).

use gpupoly_core::{Engine, Query, TieredEngine, VerifyConfig};
use gpupoly_device::{Backend, Device, DeviceConfig};
use gpupoly_interval::Fp;
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

/// The single-precision engine surface, written width-generically: batch
/// verification must succeed and certified margins must lower-bound the
/// concrete margin at the box center.
fn verify_end_to_end<F: Fp, B: Backend>(device: Device<B>, net: &Network<F>, image: &[F], eps: F) {
    let engine = Engine::new(device, net, VerifyConfig::default()).expect("engine");
    let label = {
        let y = net.infer(image);
        let mut best = 0;
        for (i, v) in y.iter().enumerate() {
            if *v > y[best] {
                best = i;
            }
        }
        best
    };
    let queries = vec![Query::new(image.to_vec(), label, eps)];
    let verdicts = engine.verify_batch_fused(&queries);
    let v = verdicts[0].as_ref().expect("query succeeds");
    let y = net.infer(image);
    let slack = F::EPSILON * F::from_usize(1 << 12);
    for m in &v.margins {
        assert!(
            m.lower <= y[label] - y[m.adversary] + slack,
            "certified margin exceeds concrete margin"
        );
    }
}

#[test]
fn selected_precision_verifies_end_to_end() {
    let net = random_net(11, 2, 6);
    let image = [0.4f32, 0.6, 0.3, 0.7];
    let wide = net.widen();
    let image64: Vec<f64> = image.iter().map(|&x| x as f64).collect();
    let selected = std::env::var("GPUPOLY_FP").unwrap_or_default();
    match selected.as_str() {
        "f32" => verify_end_to_end(device(), &net, &image, 0.01f32),
        "f64" => verify_end_to_end(device(), &wide, &image64, 0.01f64),
        "" => {
            verify_end_to_end(device(), &net, &image, 0.01f32);
            verify_end_to_end(device(), &wide, &image64, 0.01f64);
        }
        other => panic!("unknown GPUPOLY_FP {other:?} (use f32|f64)"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Escalation is monotone: on every random net and query, the tiered
    /// verdict (fast pass on) agrees with the all-`f64` engine's verdict —
    /// a query kept by the `f32` tier is never one `f64` would flip.
    #[test]
    fn tiered_verdicts_agree_with_all_f64(
        seed in 0u64..400,
        depth in 1usize..4,
        cx in 0.2f32..0.8, cy in 0.2f32..0.8,
        eps in 0.002f32..0.08,
    ) {
        let net = random_net(seed, depth, 6);
        let wide = net.widen();
        let image = [cx, cy, 1.0 - cx, 0.6];
        let label = net.classify(&image);
        let queries = vec![
            Query::new(image.to_vec(), label, eps),
            Query::new(image.to_vec(), label, eps * 0.25),
        ];

        let tiered = TieredEngine::new(device(), &net, &wide, VerifyConfig::default()).unwrap();
        let baseline = Engine::new(device(), &wide, VerifyConfig::default()).unwrap();
        let wide_queries: Vec<Query<f64>> = queries
            .iter()
            .map(|q| Query::new(
                q.image.iter().map(|&x| x as f64).collect::<Vec<f64>>(),
                q.label,
                q.eps as f64,
            ))
            .collect();

        let got = tiered.verify_batch_f64(&queries);
        let want = baseline.verify_batch_fused(&wide_queries);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let g = g.as_ref().expect("tiered query succeeds");
            let w = w.as_ref().expect("baseline query succeeds");
            prop_assert_eq!(
                g.verified, w.verified,
                "query {}: tiered verdict flipped vs all-f64", i
            );
            for (gm, wm) in g.margins.iter().zip(&w.margins) {
                prop_assert_eq!(gm.adversary, wm.adversary);
                prop_assert_eq!(
                    gm.proven, wm.proven,
                    "query {}: proven flag flipped vs all-f64", i
                );
                if gm.proven {
                    prop_assert!(gm.lower > 0.0);
                }
            }
        }
        let stats = tiered.stats();
        prop_assert_eq!(stats.fast_pass_resolved + stats.escalated, queries.len() as u64);
    }
}

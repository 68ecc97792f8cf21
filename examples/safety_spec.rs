//! Beyond robustness: certifying an ACAS-Xu-style *safety property* with a
//! general linear output specification over an input box (the paper notes
//! GPUPoly "can be used to certify other properties including safety").
//!
//! A small collision-avoidance-style controller maps 5 sensor readings to 3
//! advisory scores (clear-of-conflict, weak-turn, strong-turn). The property:
//! whenever the intruder is far away (a box over the sensor readings), the
//! "strong-turn" advisory must never beat "clear-of-conflict" by more than
//! the margin 0.1 — i.e. prove `score_clear - score_strong + 0.1 > 0`.
//!
//! Run: `cargo run --release --example safety_spec`

use gpupoly::core::{Engine, LinearSpec, SpecRow, VerifyConfig};
use gpupoly::device::Device;
use gpupoly::interval::Itv;
use gpupoly::nn::builder::NetworkBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A fixed small "controller" (weights chosen to behave sensibly: the
    // first input is distance; large distance pushes the clear advisory up).
    let net = NetworkBuilder::new_flat(5)
        .dense(
            &[
                [0.9_f32, -0.2, 0.1, 0.0, 0.3],
                [-0.4, 0.6, -0.3, 0.2, 0.0],
                [-0.6, 0.1, 0.5, -0.2, 0.1],
                [0.2, 0.3, -0.1, 0.4, -0.5],
            ],
            &[0.1, 0.0, -0.1, 0.0],
        )
        .relu()
        .dense(
            &[
                [0.8_f32, -0.1, -0.4, 0.2],
                [0.1, 0.5, 0.2, -0.3],
                [-0.7, 0.2, 0.6, 0.1],
            ],
            &[0.2, 0.0, -0.2],
        )
        .build()?;

    // Input box: distance high (0.8..1.0), the other sensors anywhere.
    let input: Vec<Itv<f32>> = vec![
        Itv::new(0.8, 1.0),
        Itv::new(0.0, 1.0),
        Itv::new(0.0, 1.0),
        Itv::new(0.0, 1.0),
        Itv::new(0.0, 1.0),
    ];

    // Property rows: clear (output 0) dominates strong-turn (output 2) with
    // slack 0.1, and also dominates weak-turn (output 1) with slack -0.5
    // (i.e. weak-turn may come close but not win by 0.5).
    let spec = LinearSpec::new(vec![
        SpecRow {
            coeffs: vec![(0, 1.0_f32), (2, -1.0)],
            cst: 0.1,
        },
        SpecRow {
            coeffs: vec![(0, 1.0_f32), (1, -1.0)],
            cst: 0.5,
        },
    ]);

    let engine = Engine::new(Device::default(), &net, VerifyConfig::default())?;
    let verdict = engine.verify_spec(&input, &spec)?;
    for (i, (proven, lb)) in verdict.proven.iter().zip(&verdict.lower_bounds).enumerate() {
        println!(
            "property {i}: {} (certified lower bound {lb:+.4})",
            if *proven { "PROVEN" } else { "not proven" }
        );
    }

    // Sanity: sample the box and confirm the property empirically.
    let mut worst = f32::INFINITY;
    for a in 0..5 {
        for b in 0..5 {
            let x = [
                0.8 + 0.2 * a as f32 / 4.0,
                b as f32 / 4.0,
                1.0 - b as f32 / 4.0,
                a as f32 / 4.0,
                0.5,
            ];
            let y = net.infer(&x);
            worst = worst.min(y[0] - y[2] + 0.1);
        }
    }
    println!("worst sampled value of property 0: {worst:+.4} (must be >= certified bound)");
    assert!(verdict.lower_bounds[0] <= worst + 1e-5);
    Ok(())
}

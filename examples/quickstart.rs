//! Quickstart: build a small network, certify an L∞ robustness property,
//! and inspect the analysis.
//!
//! Run: `cargo run --release --example quickstart`

use gpupoly::core::{Engine, VerifyConfig};
use gpupoly::device::{Device, DeviceConfig};
use gpupoly::interval::Itv;
use gpupoly::nn::builder::NetworkBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A toy 2-input classifier: two hidden ReLU neurons, two logits.
    let net = NetworkBuilder::new_flat(2)
        .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
        .relu()
        .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.5, 0.0])
        .build()?;

    let device = Device::new(DeviceConfig::new().name("sim-v100"));
    let engine = Engine::new(device.clone(), &net, VerifyConfig::default())?;

    // The point (0.4, 0.6) classifies as label 0. Is every image within
    // eps = 0.05 (L-infinity) also classified 0?
    let image = [0.4_f32, 0.6];
    let label = net.classify(&image);
    let verdict = engine.verify_robustness(&image, label, 0.05)?;

    println!(
        "label = {label}, robust within eps=0.05: {}",
        verdict.verified
    );
    for m in &verdict.margins {
        println!(
            "  margin vs class {}: certified lower bound {:+.4} ({})",
            m.adversary,
            m.lower,
            if m.proven { "proven" } else { "not proven" }
        );
    }

    // The same analysis exposes sound bounds for every layer.
    let input: Vec<Itv<f32>> = image
        .iter()
        .map(|&x| Itv::new(x - 0.05, x + 0.05).clamp_to(0.0, 1.0))
        .collect();
    let analysis = engine.analyze(&input)?;
    println!("\nper-node output bounds:");
    for (node, bounds) in analysis.bounds.iter().enumerate() {
        let s: Vec<String> = bounds.iter().map(|b| format!("{b}")).collect();
        println!("  node {node}: {}", s.join("  "));
    }
    println!(
        "\nwork: {} neurons refined, {} skipped as stable, {} candidates; \
         device ran {} kernel launches, {:.1} Mflops",
        analysis.stats.rows_refined,
        analysis.stats.rows_skipped_stable,
        analysis.stats.candidates,
        device.stats().launches(),
        device.stats().flops() as f64 / 1e6,
    );
    Ok(())
}

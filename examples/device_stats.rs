//! A look inside the simulated GPU while verifying a convolutional network:
//! kernel launches by name (GBC, GEMM, compaction), flop counts, and the
//! memory ceiling that triggers chunked backsubstitution (§4.2).
//!
//! Run: `cargo run --release --example device_stats`

use gpupoly::core::{Engine, VerifyConfig};
use gpupoly::device::{Device, DeviceConfig};
use gpupoly::nn::builder::NetworkBuilder;
use gpupoly::nn::Shape;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small conv-conv-dense classifier (weights are a fixed pattern; this
    // example is about the execution profile, not accuracy).
    let net = NetworkBuilder::new(Shape::new(10, 10, 1))
        .conv(
            4,
            (3, 3),
            (1, 1),
            (1, 1),
            (0..36).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect(),
            vec![0.05; 4],
        )
        .relu()
        .conv(
            8,
            (3, 3),
            (2, 2),
            (1, 1),
            (0..288).map(|i| ((i % 11) as f32 - 5.0) * 0.05).collect(),
            vec![0.0; 8],
        )
        .relu()
        .flatten_dense(10, |i| ((i % 13) as f32 - 6.0) * 0.02, |_| 0.0)
        .build()?;

    let image = vec![0.5f32; 100];
    let label = net.classify(&image);

    for (name, capacity) in [("unlimited", None), ("256 KiB", Some(256 * 1024))] {
        let mut cfg = DeviceConfig::new().name(format!("sim ({name})"));
        if let Some(cap) = capacity {
            cfg = cfg.memory_capacity(cap);
        }
        let device = Device::new(cfg);
        let engine = Engine::new(device.clone(), &net, VerifyConfig::default())?;
        let verdict = engine.verify_robustness(&image, label, 0.01)?;
        println!("--- device memory: {name} ---");
        println!(
            "verified: {} | chunks: {} (shrinks: {})",
            verdict.verified, verdict.stats.chunks, verdict.stats.chunk_shrinks
        );
        println!(
            "rows refined {} | skipped stable {} | stopped mid-walk {}",
            verdict.stats.rows_refined,
            verdict.stats.rows_skipped_stable,
            verdict.stats.rows_stopped_early
        );
        println!(
            "peak device memory: {} KiB{}",
            device.peak_memory() / 1024,
            capacity.map_or(String::new(), |c| format!(" (cap {} KiB)", c / 1024)),
        );
        println!(
            "total flops: {:.1}M, launches: {}",
            device.stats().flops() as f64 / 1e6,
            device.stats().launches()
        );
        for kernel in [
            "gbc_lo",
            "gbc_hi",
            "gemm_itv_f",
            "relu_step_lo",
            "relu_step_hi",
            "exclusive_scan",
            "compact_rows",
            "densify_lo",
        ] {
            let n = device.stats().kernel_launches(kernel);
            if n > 0 {
                println!("  kernel {kernel:<16} x{n}");
            }
        }
        println!();
    }
    Ok(())
}

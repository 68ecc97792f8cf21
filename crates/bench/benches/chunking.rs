//! §4.2 "Memory management": when the bound matrix does not fit in device
//! memory, GPUPoly backsubstitutes it in chunks. This bench measures the
//! runtime cost of chunking on a memory-constrained device against an
//! unconstrained run, and checks that the constrained run stays under its
//! capacity while producing identical verdicts.
//!
//! It also prints the table [`gpupoly_core::STREAMS_PER_WORKER`] is read
//! from ([`stream_table`]): a layer's rows are cut into walks that run side
//! by side as the streams of one pool section, and how many walks a worker
//! should get is a measurement. The walk count is a constant of the build
//! and nothing sets it at run time, so one run prints two rows — lists left
//! in one walk, which is one thread, and cut as built — and the rows for
//! another count come from editing the constant and running again.
//! End-to-end numbers come from `benchmark/run.sh`, not from here.
//!
//! Last, the sweep [`gpupoly_core::WALK_BYTES`] is chosen by
//! ([`budget_table`]): wall and peak memory of fused batches with every walk
//! held to a working set of so many bytes, on three of the zoo's families
//! at two scales each.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpupoly_core::{Engine, EngineOptions, Query, VerifyConfig, STREAMS_PER_WORKER, WALK_BYTES};
use gpupoly_device::{Device, DeviceConfig};
use gpupoly_interval::Itv;
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::zoo::{build_arch, ArchId, Dataset};
use gpupoly_nn::Network;
use gpupoly_train::data;
use std::hint::black_box;
use std::time::Instant;

/// Every timed call computes its analysis.
const UNCACHED: EngineOptions = EngineOptions {
    analysis_cache: 0,
    monotone_cache_reuse: false,
};

fn mid_net() -> Network<f32> {
    let mut b = NetworkBuilder::new_flat(32);
    let mut in_len = 32;
    for layer in 0..3 {
        let width = 128;
        let w: Vec<f32> = (0..width * in_len)
            .map(|i| (((i * 48271 + layer) % 1000) as f32 / 1000.0 - 0.5) * 0.15)
            .collect();
        b = b.dense_flat(width, w, vec![0.0; width]).relu();
        in_len = width;
    }
    b.flatten_dense(10, |i| (((i * 7) % 19) as f32 - 9.0) * 0.05, |_| 0.0)
        .build()
        .expect("net builds")
}

fn bench_chunking(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunking");
    group.sample_size(10);
    let net = mid_net();
    let image = vec![0.5f32; 32];
    let label = net.classify(&image);
    let eps = 0.02f32;

    // Capacity chosen to force many chunks but never fail outright.
    let tight = 512 * 1024;
    for (name, capacity) in [("unconstrained", None), ("constrained_512k", Some(tight))] {
        group.bench_with_input(BenchmarkId::new("verify", name), &(), |bench, _| {
            let mut dc = DeviceConfig::new();
            if let Some(cap) = capacity {
                dc = dc.memory_capacity(cap);
            }
            let device = Device::new(dc);
            // One box, timed over and over: no cache to serve it from.
            let engine = Engine::with_options(device, &net, VerifyConfig::default(), UNCACHED)
                .expect("engine");
            bench.iter(|| {
                let v = engine.verify_robustness(&image, label, eps).unwrap();
                black_box(v.verified);
            });
        });
    }

    // Equivalence + memory ceiling check.
    let free_dev = Device::new(DeviceConfig::new());
    let big = Engine::new(free_dev.clone(), &net, VerifyConfig::default())
        .unwrap()
        .verify_robustness(&image, label, eps)
        .unwrap();
    let tight_dev = Device::new(DeviceConfig::new().memory_capacity(tight));
    let small = Engine::new(tight_dev.clone(), &net, VerifyConfig::default())
        .unwrap()
        .verify_robustness(&image, label, eps)
        .unwrap();
    assert_eq!(big.verified, small.verified);
    assert!(tight_dev.peak_memory() <= tight, "capacity was violated");
    println!(
        "[chunking] chunks: unconstrained {} vs constrained {}; peak memory {} vs {} B (cap {} B)",
        big.stats.chunks,
        small.stats.chunks,
        free_dev.peak_memory(),
        tight_dev.peak_memory(),
        tight,
    );
    stream_table();
    budget_table();
}

fn fnv1a(hash: &mut u64, bits: u64) {
    for b in bits.to_le_bytes() {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Wall of one full `analyze` and of one fused batch of 16 on the
/// benchmark's three networks, with a list's rows in one walk (`1`: one
/// thread does it all, as on a one-worker device — no kernel splits its
/// rows) and cut into [`STREAMS_PER_WORKER`] walks a worker on a device of
/// `w = 2` workers (`w`, `2w` and `4w` walks with the constant at 1, 2 and
/// 4);
/// `peak_memory()` beside each, and a digest of every bound and margin that
/// must not differ between the rows. Medians over `ANALYSES` fresh boxes and
/// `BATCHES` fresh batches after one warm-up of each.
fn stream_table() {
    const WORKERS: usize = 2;
    const ANALYSES: usize = 24;
    const BATCHES: usize = 6;
    let nets = [
        ("Fc6x500 x0.2", ArchId::Fc6x500, 0.2, 1e-4f32),
        ("ConvBig x0.12", ArchId::ConvBig, 0.12, 1e-3),
        ("Fc6x500 x0.05", ArchId::Fc6x500, 0.05, 5e-4),
    ];
    println!("[streams] {WORKERS} workers; analyze ms | fused-16 ms, peak MB beside each");
    for (name, arch, scale, eps) in nets {
        let net = build_arch(arch, Dataset::MnistLike, scale, 7).expect("zoo architecture");
        let images =
            data::synthetic(Dataset::MnistLike, 1 + ANALYSES + 16 * (1 + BATCHES), 1).images;
        let queries: Vec<Query<f32>> = images
            .iter()
            .map(|image| Query::new(image.clone(), net.classify(image), eps))
            .collect();
        let boxed = |q: &Query<f32>| -> Vec<Itv<f32>> {
            q.image
                .iter()
                .map(|&x| Itv::new(x - q.eps, x + q.eps).clamp_to(0.0, 1.0))
                .collect()
        };
        let mut digests = Vec::new();
        let built = format!("{}", STREAMS_PER_WORKER * WORKERS);
        for (label, cut) in [("1", false), (built.as_str(), true)] {
            let run = |fused: bool| {
                let device = Device::new(DeviceConfig::new().workers(WORKERS));
                let cfg = VerifyConfig {
                    // One walk a list, whatever its length.
                    chunk_rows: (!cut).then_some(usize::MAX),
                    ..Default::default()
                };
                let engine =
                    Engine::with_options(device.clone(), &net, cfg, UNCACHED).expect("engine");
                let mut digest = 0xcbf2_9ce4_8422_2325u64;
                let mut walls = Vec::new();
                if fused {
                    for (i, batch) in queries[1 + ANALYSES..].chunks(16).enumerate() {
                        let t = Instant::now();
                        let verdicts = engine.verify_batch_fused(batch);
                        if i > 0 {
                            walls.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        for v in verdicts {
                            for m in v.expect("verdict").margins {
                                fnv1a(&mut digest, m.lower.to_bits() as u64);
                            }
                        }
                    }
                } else {
                    for (i, q) in queries[..1 + ANALYSES].iter().enumerate() {
                        let t = Instant::now();
                        let analysis = engine.analyze(&boxed(q)).expect("analysis");
                        if i > 0 {
                            walls.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        for b in analysis.bounds.iter().flatten() {
                            fnv1a(&mut digest, b.lo.to_bits() as u64);
                            fnv1a(&mut digest, b.hi.to_bits() as u64);
                        }
                    }
                }
                (median(walls), device.peak_memory() as f64 / 1e6, digest)
            };
            let (analyze_ms, analyze_mb, d1) = run(false);
            let (fused_ms, fused_mb, d2) = run(true);
            println!(
                "[streams] {name:14} {label:>2} streams: {analyze_ms:7.2} ms {analyze_mb:6.2} MB | \
                 {fused_ms:8.2} ms {fused_mb:6.2} MB | digest {d1:016x} {d2:016x}"
            );
            digests.push((d1, d2));
        }
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "{name}: the cut changed a bound or a margin"
        );
    }
}

/// Median wall (ms) of `BATCHES` fused batches of `BATCH` queries (the
/// slower of two) and the device's peak memory (MB) per walk budget, on two
/// scales of `Fc6x500`, `ConvBig` and `ResNet18` and a device of two
/// workers, after one warm-up batch. About five minutes on two cores. A budget
/// of `b` bytes runs at [`VerifyConfig::chunk_rows`] `= b ÷ priced row`
/// (`PreparedGraph::row_bytes`): every walk that long, where the rule as
/// built also cuts a list into at least two streams a worker — the `built`
/// row, at [`WALK_BYTES`] — and `1 walk` is a list left whole (one thread).
/// A digest of every margin must not differ between the rows.
fn budget_table() {
    const WORKERS: usize = 2;
    const BATCH: usize = 8;
    const BATCHES: usize = 2;
    const MIB: usize = 1 << 20;
    let nets = [
        ("Fc6x500 x0.2", ArchId::Fc6x500, 0.2, 1e-4f32),
        ("Fc6x500 x0.5", ArchId::Fc6x500, 0.5, 1e-4),
        ("ConvBig x0.12", ArchId::ConvBig, 0.12, 1e-3),
        ("ConvBig x0.5", ArchId::ConvBig, 0.5, 1e-3),
        ("ResNet18 x0.01", ArchId::ResNet18, 0.01, 1e-3),
        ("ResNet18 x0.02", ArchId::ResNet18, 0.02, 1e-3),
    ];
    println!(
        "[budget] {WORKERS} workers, fused batches of {BATCH}: ms | peak MB per walk budget \
         (built: {} MiB)",
        WALK_BYTES / MIB
    );
    for (name, arch, scale, eps) in nets {
        let net = build_arch(arch, Dataset::MnistLike, scale, 7).expect("zoo architecture");
        let images = data::synthetic(Dataset::MnistLike, BATCH * (1 + BATCHES), 1).images;
        let queries: Vec<Query<f32>> = images
            .iter()
            .map(|image| Query::new(image.clone(), net.classify(image), eps))
            .collect();
        let mut digests = Vec::new();
        let mut cells = Vec::new();
        let budgets = [2, 4, 8, 16, 32, 64].map(|m| (format!("{m} MiB"), Some(m * MIB)));
        let rows = budgets.into_iter().chain([
            ("built".to_string(), None),
            ("1 walk".to_string(), Some(usize::MAX)),
        ]);
        let priced = Engine::new(
            Device::new(DeviceConfig::new()),
            &net,
            VerifyConfig::default(),
        )
        .expect("engine")
        .prepared()
        .row_bytes();
        for (label, budget) in rows {
            let device = Device::new(DeviceConfig::new().workers(WORKERS));
            let cfg = VerifyConfig {
                chunk_rows: budget.map(|b| (b / priced).max(1)),
                ..Default::default()
            };
            let engine = Engine::with_options(device.clone(), &net, cfg, UNCACHED).expect("engine");
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            let mut walls = Vec::new();
            for (i, batch) in queries.chunks(BATCH).enumerate() {
                let t = Instant::now();
                let verdicts = engine.verify_batch_fused(batch);
                if i > 0 {
                    walls.push(t.elapsed().as_secs_f64() * 1e3);
                }
                for v in verdicts {
                    for m in v.expect("verdict").margins {
                        fnv1a(&mut digest, m.lower.to_bits() as u64);
                    }
                }
            }
            cells.push(format!(
                "{label} {:.1} | {:.2}",
                median(walls),
                device.peak_memory() as f64 / 1e6
            ));
            digests.push(digest);
        }
        println!("[budget] {name:14} {}", cells.join("; "));
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "{name}: the walk budget changed a margin"
        );
    }
}

criterion_group!(benches, bench_chunking);
criterion_main!(benches);

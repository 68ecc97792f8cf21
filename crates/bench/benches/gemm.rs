//! Interval-GEMM microbenchmark: the verifier's hot kernel in isolation.
//!
//! Every backsubstitution step through a dense layer is one interval×scalar
//! GEMM. This harness times it on verification-shaped matrices on both
//! backends and both scalar widths, and reports effective GFLOP/s and
//! nanoseconds per interval multiply-add. The two widths run different
//! arithmetic (see the `gpupoly_device::backend` contract): `f32` takes the
//! wide accumulator — exact products summed in `f64`, one directed rounding
//! per output — while `f64` keeps the per-step directed chain, so the `f64`
//! rows double as the "before" figure of that change. CPU-sim and reference
//! results are asserted bit-identical on every shape.
//!
//! Then the two builds of `CpuSimBackend`'s row kernels
//! ([`GemmBuild`]: baseline, and AVX-512 where the host has it) on the
//! shapes of one query's walk — `m` of 1, 10 and 40 rows against 100- and
//! 784-wide layers — in the full product and in the live product over about
//! half the columns, their bits asserted equal.
//!
//! Run with `cargo bench --bench gemm`. It prints; end-to-end numbers come
//! from `benchmark/run.sh`, not from here.

use std::hint::black_box;
use std::time::Instant;

use gpupoly_device::{gemm, Backend, Device, DeviceConfig, GemmBuild};
use gpupoly_interval::{Fp, Itv};

/// Deterministic pseudo-random matrix entries in `[-0.5, 0.5)`.
fn mix(i: usize, salt: usize) -> f64 {
    ((((i + 31) * (salt + 7)) * 2654435761 % 2001) as f64 / 1000.0 - 1.0) * 0.25
}

/// Times `C[m×n] = A[m×k] (intervals) × B[k×n] (scalars)`; returns seconds
/// per launch and the result bits.
fn time_gemm<F: Fp, B: Backend>(
    device: &Device<B>,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
) -> (f64, Vec<u64>) {
    let a: Vec<Itv<F>> = (0..m * k)
        .map(|i| {
            let c = mix(i, 1);
            // Sprinkle exact zeros so the mandatory zero-skip path runs.
            if i % 7 == 0 {
                Itv::zero()
            } else {
                Itv::new(F::from_f64(c - 1e-3), F::from_f64(c + 1e-3))
            }
        })
        .collect();
    let b: Vec<F> = (0..k * n).map(|i| F::from_f64(mix(i, 2))).collect();
    let mut c = vec![Itv::<F>::zero(); m * n];

    gemm::gemm_itv_f(device, &a, &b, &mut c, m, k, n); // warm
    let t = Instant::now();
    for _ in 0..reps {
        gemm::gemm_itv_f(device, black_box(&a), black_box(&b), &mut c, m, k, n);
        black_box(&c);
    }
    let secs = t.elapsed().as_secs_f64() / reps as f64;
    let bits = c.iter().flat_map(|v| [v.lo.bits(), v.hi.bits()]).collect();
    (secs, bits)
}

fn report<F: Fp>(width: &str, workers: usize, m: usize, k: usize, n: usize) {
    let terms = (m * k * n) as f64;
    // Enough repetitions for ~50 M multiply-adds per timing.
    let reps = (50_000_000 / (m * k * n)).clamp(2, 2000);
    let cpusim = Device::new(DeviceConfig::new().workers(workers));
    let reference = Device::reference(DeviceConfig::new().workers(1));
    let (fast, fast_bits) = time_gemm::<F, _>(&cpusim, m, k, n, reps);
    let (naive, naive_bits) = time_gemm::<F, _>(&reference, m, k, n, reps.div_ceil(8));
    assert_eq!(
        fast_bits, naive_bits,
        "{width} {m}x{k}x{n}: cpusim and reference results differ"
    );
    for (backend, secs) in [("cpusim", fast), ("reference", naive)] {
        // One interval×scalar multiply-add counts as 4 scalar flops.
        println!(
            "[gemm] {backend:<9} {width} {m:>4}x{k:<4}x{n:<4} {:>7.2} GFLOP/s {:>6.2} ns/term {:>8.0} us/launch",
            4.0 * terms / secs / 1e9,
            secs * 1e9 / terms,
            secs * 1e6,
        );
    }
}

/// `m×k` interval coefficients — points, intervals and every seventh an
/// exact zero — and `k×n` weights.
fn operands(m: usize, k: usize, n: usize) -> (Vec<Itv<f32>>, Vec<f32>) {
    let a = (0..m * k)
        .map(|i| match i % 7 {
            0 => Itv::zero(),
            _ => {
                let c = mix(i, 1) as f32;
                Itv::new(c - 1e-3, c + 1e-3)
            }
        })
        .collect();
    let b = (0..k * n).map(|i| mix(i, 2) as f32).collect();
    (a, b)
}

/// Seconds per call of `launch`, over enough calls for ~20 M multiply-adds
/// of `terms` each, after one call to warm.
fn time(terms: usize, mut launch: impl FnMut()) -> f64 {
    let reps = (20_000_000 / terms.max(1)).clamp(2, 100_000);
    launch();
    let t = Instant::now();
    for _ in 0..reps {
        launch();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// The full and the live product of one shape in each build: ns per
/// interval multiply-add, and the builds' bits compared.
fn report_builds(builds: &[GemmBuild], m: usize, k: usize, n: usize) {
    let (a, b) = operands(m, k, n);
    // About half the columns live, in runs of uneven length.
    let live: Vec<u32> = (0..n as u32).filter(|j| j % 5 < 2 || j % 7 == 3).collect();
    let (seg, lists) = (vec![0u32; m], [live.as_slice()]);
    let mut bits: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    for &build in builds {
        let mut full = vec![Itv::zero(); m * n];
        let full_s = time(m * k * n, || {
            build.gemm_itv_f(black_box(&a), black_box(&b), &mut full, (m, k, n));
            black_box(&full);
        });
        let mut part = vec![Itv::zero(); m * n];
        let live_s = time(m * k * live.len(), || {
            build.gemm_itv_f_live(black_box(&a), &b, &mut part, (m, k, n), &seg, &lists);
            black_box(&part);
        });
        println!(
            "[gemm] {:<8} full {m:>2}x{k}x{n:<3} {:>5.2} ns/term   live {:>3} of {n:<3} {:>5.2} ns/term",
            format!("{build:?}"),
            full_s * 1e9 / (m * k * n) as f64,
            live.len(),
            live_s * 1e9 / (m * k * live.len()) as f64,
        );
        let to_bits = |c: &[Itv<f32>]| {
            c.iter()
                .flat_map(|v| [v.lo.to_bits(), v.hi.to_bits()])
                .collect()
        };
        bits.push((to_bits(&full), to_bits(&part)));
    }
    assert!(
        bits.windows(2).all(|w| w[0] == w[1]),
        "{m}x{k}x{n}: the builds' results differ"
    );
}

fn main() {
    let builds: Vec<GemmBuild> = [GemmBuild::Baseline, GemmBuild::Avx512]
        .into_iter()
        .filter(|b| b.is_available())
        .collect();
    println!(
        "[gemm] builds on this host: {builds:?}; an engine runs {:?}",
        GemmBuild::detected()
    );
    for n in [100, 784] {
        for m in [1, 10, 40] {
            report_builds(&builds, m, 100, n);
        }
    }

    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    println!("[gemm] cpusim workers: {workers}; reference: 1");
    // The three GEMM shapes of the Fc zoo networks at benchmark scale (spec
    // rows and layer rows against 100- and 784-wide layers), then larger
    // stacked-batch shapes.
    for (m, k, n) in [
        (9usize, 100usize, 100usize),
        (100, 100, 100),
        (100, 100, 784),
        (256, 256, 256),
        (512, 784, 128),
        (64, 1024, 512),
    ] {
        report::<f32>("f32", workers, m, k, n);
        report::<f64>("f64", workers, m, k, n);
    }
}

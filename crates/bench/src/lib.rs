//! Shared harness for the benchmark binaries that regenerate every table
//! and figure of the GPUPoly evaluation.
//!
//! The binaries (`table1` … `table4`, `figure5`) build the paper's networks
//! at a configurable `--scale`, train them under their Table-1 regime on
//! synthetic data (cached under `target/gpupoly-models/`), and then run the
//! verifiers exactly as the paper does: filter candidate images (those the
//! network classifies correctly), verify each candidate, and report
//! candidate counts, verified counts and median runtimes.
//!
//! Absolute numbers are CPU-simulator numbers, not V100 numbers; the
//! comparisons that matter are the *relative* ones (who verifies more, who
//! is faster on which training regime, how runtimes distribute).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gpupoly_baselines::{ibp, CrownIbp, DeepPolyCpu};
use gpupoly_core::{Engine, Query, VerifyConfig};
use gpupoly_device::{Device, DeviceConfig};
use gpupoly_nn::zoo::{self, ModelSpec};
use gpupoly_nn::Network;
use gpupoly_train::{data, trainer};

/// Options shared by the benchmark binaries.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Width multiplier for every architecture (1.0 = paper size).
    pub scale: f64,
    /// Test images per network.
    pub images: usize,
    /// Training samples.
    pub train_samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Device workers (None = all cores).
    pub workers: Option<usize>,
    /// Base seed.
    pub seed: u64,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            scale: 0.12,
            images: 24,
            train_samples: 240,
            epochs: 3,
            workers: None,
            seed: 7,
        }
    }
}

impl BenchOpts {
    /// Parses `--scale X --images N --train-samples N --epochs N --workers N
    /// --seed N` from `std::env::args`, falling back to defaults.
    ///
    /// # Panics
    ///
    /// Panics on malformed values (these are developer-facing binaries).
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            let v = &args[i + 1];
            match args[i].as_str() {
                "--scale" => opts.scale = v.parse().expect("bad --scale"),
                "--images" => opts.images = v.parse().expect("bad --images"),
                "--train-samples" => opts.train_samples = v.parse().expect("bad --train-samples"),
                "--epochs" => opts.epochs = v.parse().expect("bad --epochs"),
                "--workers" => opts.workers = Some(v.parse().expect("bad --workers")),
                "--seed" => opts.seed = v.parse().expect("bad --seed"),
                other => panic!("unknown flag {other}"),
            }
            i += 2;
        }
        opts
    }

    /// The simulated device for these options.
    pub fn device(&self) -> Device {
        let mut cfg = DeviceConfig::new().name("sim-v100");
        if let Some(w) = self.workers {
            cfg = cfg.workers(w);
        }
        Device::new(cfg)
    }
}

fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/gpupoly-models");
    fs::create_dir_all(&dir).ok();
    dir
}

/// Builds and trains the network of `spec` under its Table-1 regime,
/// caching the trained weights on disk keyed by all relevant options.
/// Returns the network and its held-out test images.
pub fn prepare_model(spec: &ModelSpec, opts: &BenchOpts) -> (Network<f32>, data::Dataset) {
    let mut full = data::synthetic(
        spec.dataset,
        opts.train_samples + opts.images,
        opts.seed ^ 0xda7a,
    );
    let test = full.split_off(opts.images);
    let train_set = full;
    // Bump when zoo architectures change so stale caches are ignored.
    const CACHE_VERSION: u32 = 2;
    let key = format!(
        "v{CACHE_VERSION}_{}_s{}_n{}_e{}_seed{}",
        spec.id, opts.scale, opts.train_samples, opts.epochs, opts.seed
    );
    let path = cache_dir().join(format!("{key}.json"));
    if let Ok(txt) = fs::read_to_string(&path) {
        if let Ok(net) = Network::<f32>::from_json(&txt) {
            return (net, test);
        }
    }
    let mut net = zoo::build_arch(spec.arch, spec.dataset, opts.scale, opts.seed)
        .expect("zoo architecture must build");
    let cfg = trainer::TrainConfig {
        epochs: opts.epochs,
        batch: 32,
        lr: 0.02,
        momentum: 0.9,
        eps: spec.eps,
        seed: opts.seed,
        regime: spec.training,
    };
    trainer::train(&mut net, &train_set, &cfg);
    if let Ok(txt) = net.to_json() {
        fs::write(&path, txt).ok();
    }
    (net, test)
}

/// Per-verifier results over one network's test images.
#[derive(Clone, Debug, Default)]
pub struct VerifyRow {
    /// Correctly classified images (the paper's "#Candidates").
    pub candidates: usize,
    /// Candidates proven robust.
    pub verified: usize,
    /// Per-candidate verification time.
    pub times: Vec<Duration>,
}

impl VerifyRow {
    /// Median runtime over candidates (zero when none).
    pub fn median_time(&self) -> Duration {
        if self.times.is_empty() {
            return Duration::ZERO;
        }
        let mut t = self.times.clone();
        t.sort_unstable();
        t[t.len() / 2]
    }
}

/// The candidate images: those the network classifies correctly, with
/// their labels.
fn candidates<'a>(
    net: &'a Network<f32>,
    test: &'a data::Dataset,
) -> impl Iterator<Item = (&'a Vec<f32>, usize)> {
    let labelled = test.images.iter().zip(test.labels.iter().copied());
    labelled.filter(|&(img, label)| net.classify(img) == label)
}

fn run_over_candidates(
    net: &Network<f32>,
    test: &data::Dataset,
    mut verify: impl FnMut(&[f32], usize) -> bool,
) -> VerifyRow {
    let mut row = VerifyRow::default();
    for (img, label) in candidates(net, test) {
        row.candidates += 1;
        let t0 = Instant::now();
        let ok = verify(img, label);
        row.times.push(t0.elapsed());
        if ok {
            row.verified += 1;
        }
    }
    row
}

/// Candidates per [`Engine::verify_batch_fused`] call of [`run_gpupoly`].
pub const FUSED_BATCH: usize = 8;

/// Runs GPUPoly on every candidate image, [`FUSED_BATCH`] candidates to a
/// fused call — the engine the daemon and the benchmark run. A candidate's
/// time is its call's wall time divided evenly over the call's candidates.
pub fn run_gpupoly(
    net: &Network<f32>,
    test: &data::Dataset,
    eps: f32,
    device: &Device,
    cfg: VerifyConfig,
) -> VerifyRow {
    let engine = Engine::new(device.clone(), net, cfg).expect("engine construction");
    let queries: Vec<Query<f32>> = candidates(net, test)
        .map(|(img, label)| Query::new(img.clone(), label, eps))
        .collect();
    let mut row = VerifyRow {
        candidates: queries.len(),
        ..VerifyRow::default()
    };
    for batch in queries.chunks(FUSED_BATCH) {
        let t0 = Instant::now();
        let verdicts = engine.verify_batch_fused(batch);
        let each = t0.elapsed() / batch.len() as u32;
        for verdict in verdicts {
            row.times.push(each);
            if verdict.expect("verification should not error").verified {
                row.verified += 1;
            }
        }
    }
    row
}

/// Runs the CROWN-IBP baseline on every candidate image.
pub fn run_crown_ibp(net: &Network<f32>, test: &data::Dataset, eps: f32) -> VerifyRow {
    let verifier = CrownIbp::new(net);
    run_over_candidates(net, test, |img, label| {
        verifier.verify_robustness(img, label, eps).verified
    })
}

/// Runs the sparse CPU DeepPoly baseline on every candidate image.
pub fn run_deeppoly_cpu(net: &Network<f32>, test: &data::Dataset, eps: f32) -> VerifyRow {
    let verifier = DeepPolyCpu::new(net);
    run_over_candidates(net, test, |img, label| {
        verifier.verify_robustness(img, label, eps).verified
    })
}

/// Runs plain IBP on every candidate image.
pub fn run_ibp(net: &Network<f32>, test: &data::Dataset, eps: f32) -> VerifyRow {
    run_over_candidates(net, test, |img, label| {
        ibp::verify_robustness(net, img, label, eps).verified
    })
}

/// Human formatting for durations (µs/ms/s like the paper's tables).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2} s", us as f64 / 1_000_000.0)
    }
}

/// Empirical CDF of runtimes: `(milliseconds, cumulative fraction)` points.
pub fn cdf_series(times: &[Duration]) -> Vec<(f64, f64)> {
    let mut ms: Vec<f64> = times.iter().map(|t| t.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN durations"));
    let n = ms.len().max(1) as f64;
    ms.iter()
        .enumerate()
        .map(|(i, &t)| (t, (i + 1) as f64 / n))
        .collect()
}

/// Formats an ε the way the paper prints it (e.g. `8/255`, `0.3`).
pub fn fmt_eps(eps: f32) -> String {
    for denom in [10.0f32, 255.0, 500.0] {
        let num = eps * denom;
        if (num - num.round()).abs() < 1e-4 && (1.0..=32.0).contains(&num.round()) {
            return format!("{}/{}", num.round() as i64, denom as i64);
        }
    }
    format!("{eps}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_duration_picks_units() {
        assert_eq!(fmt_duration(Duration::from_micros(130)), "130 µs");
        assert_eq!(fmt_duration(Duration::from_micros(9_060)), "9.06 ms");
        assert_eq!(fmt_duration(Duration::from_millis(34_500)), "34.50 s");
    }

    #[test]
    fn fmt_eps_matches_paper_style() {
        assert_eq!(fmt_eps(8.0 / 255.0), "8/255");
        assert_eq!(fmt_eps(1.0 / 500.0), "1/500");
        assert_eq!(fmt_eps(3.0 / 10.0), "3/10");
        assert_eq!(fmt_eps(0.258), "0.258");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let times = vec![
            Duration::from_millis(5),
            Duration::from_millis(1),
            Duration::from_millis(3),
        ];
        let cdf = cdf_series(&times);
        assert_eq!(cdf.len(), 3);
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_empty_row_is_zero() {
        assert_eq!(VerifyRow::default().median_time(), Duration::ZERO);
    }

    #[test]
    fn end_to_end_tiny_benchmark_row() {
        // A miniature end-to-end: tiny model, tiny data, all four runners.
        let spec = &zoo::table1_specs()[0]; // mnist 6x500 normal
        let opts = BenchOpts {
            scale: 0.02,
            images: 6,
            train_samples: 40,
            epochs: 1,
            workers: Some(2),
            seed: 3,
        };
        let (net, test) = prepare_model(spec, &opts);
        let device = opts.device();
        let g = run_gpupoly(&net, &test, 0.01, &device, VerifyConfig::default());
        let c = run_crown_ibp(&net, &test, 0.01);
        let d = run_deeppoly_cpu(&net, &test, 0.01);
        let i = run_ibp(&net, &test, 0.01);
        // Same candidate filter everywhere.
        assert_eq!(g.candidates, c.candidates);
        assert_eq!(g.candidates, d.candidates);
        assert_eq!(g.candidates, i.candidates);
        // Precision ordering: IBP <= CROWN-IBP <= GPUPoly == CPU DeepPoly.
        assert!(i.verified <= c.verified);
        assert!(c.verified <= g.verified);
        assert_eq!(d.verified, g.verified, "CPU DeepPoly must match GPUPoly");
        // Cached second run returns identical weights.
        let (net2, _) = prepare_model(spec, &opts);
        assert_eq!(net, net2);
    }
}

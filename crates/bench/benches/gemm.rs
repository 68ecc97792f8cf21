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
//! 784-wide layers — in the full product over raw slices, which scans its
//! own `wmax`, and in the live product over about half the columns, timed
//! as a walk runs it (`prepared`: the layer's `wmax` and the query's live
//! panel made before the timing); the live product's bits are asserted to be
//! the full product's in its live columns and exact zeros elsewhere, and the
//! builds' bits equal.
//!
//! Then a walk's last step through a dense layer over a 784-wide input and
//! its candidates, in each build: the one launch of
//! `GemmBuild::concretize_dense` against the two products and the concretize
//! it stands for, `m` of 1, 10, 40 and a spec walk's 144 rows against `k` of
//! 100 and 25, the bits asserted equal.
//!
//! Then GBC, the conv step's transpose convolution, in each build on the four
//! conv layers of ConvBig ×0.12 (`c_in` 1/4/4/8, `kw` 3/4/3/4): a
//! refinement-shaped row set (many rows, 3×3 source windows) and a
//! spec-walk-shaped one (a few rows over the whole layer) each, in ns per
//! lane-term — one non-zero coefficient added to one destination element —
//! and ns per destination element, the builds' bits asserted equal.
//!
//! Run with `cargo bench --bench gemm`. It prints; end-to-end numbers come
//! from `benchmark/run.sh`, not from here.

use std::hint::black_box;
use std::time::Instant;

use gpupoly_device::{
    gemm, Backend, DenseWeights, Device, DeviceConfig, ExprGeom, GbcShape, GemmBuild,
};
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
    let seg = vec![0u32; m];
    let mut bits: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    for &build in builds {
        let mut full = vec![Itv::zero(); m * n];
        let full_s = time(m * k * n, || {
            build.gemm_itv_f(black_box(&a), black_box(&b), &mut full, (m, k, n));
            black_box(&full);
        });
        // As a walk reads it: the layer's `wmax` and the query's panel made
        // before the timing, once.
        let wmax = gemm::layer_wmax(&b, k, n);
        let weights = DenseWeights::new(&b, &wmax, k, n);
        let panel = build.live_panel(&weights, &live);
        let mut prepared = vec![Itv::zero(); m * n];
        let prepared_s = time(m * k * live.len(), || {
            let panels = [&panel];
            build.gemm_itv_f_prepared(
                black_box(&a),
                &weights,
                &mut prepared,
                m,
                &seg,
                Some(&panels),
            );
            black_box(&prepared);
        });
        println!(
            "[gemm] {:<8} full {m:>2}x{k}x{n:<3} {:>5.2} ns/term   prepared, live {:>3} of {n:<3} {:>5.2} ns/term",
            format!("{build:?}"),
            full_s * 1e9 / (m * k * n) as f64,
            live.len(),
            prepared_s * 1e9 / (m * k * live.len()) as f64,
        );
        let to_bits = |c: &[Itv<f32>]| -> Vec<u32> {
            c.iter()
                .flat_map(|v| [v.lo.to_bits(), v.hi.to_bits()])
                .collect()
        };
        let mut want = full.clone();
        for row in want.chunks_mut(n) {
            for (j, v) in row.iter_mut().enumerate() {
                if live.binary_search(&(j as u32)).is_err() {
                    *v = Itv::zero();
                }
            }
        }
        assert_eq!(
            to_bits(&prepared),
            to_bits(&want),
            "{m}x{k}x{n}, {build:?}: the live product is not the full one's live columns"
        );
        bits.push((to_bits(&full), to_bits(&prepared)));
    }
    assert!(
        bits.windows(2).all(|w| w[0] == w[1]),
        "{m}x{k}x{n}: the builds' results differ"
    );
}

/// A walk's last step, `m` rows through a `k×n` dense layer over the input
/// and their candidates, in each build: the one launch
/// ([`GemmBuild::concretize_dense`]) against the three it stands for — two
/// products without panels into `m × n` planes and concretize over them —
/// in µs per step, the bits asserted equal.
fn report_last_step(builds: &[GemmBuild], m: usize, k: usize, n: usize) {
    let (lo, b) = operands(m, k, n);
    let hi: Vec<Itv<f32>> = lo.iter().map(|v| Itv::new(v.lo, v.hi + 1e-3)).collect();
    let cst: Vec<Itv<f32>> = (0..m).map(|r| Itv::point(mix(r, 5) as f32)).collect();
    let bounds: Vec<Itv<f32>> = (0..n)
        .map(|j| {
            let c = mix(j, 6) as f32;
            Itv::new(c - 0.05, c + 0.05)
        })
        .collect();
    let (seg, origins) = (vec![0u32; m], vec![(0, 0); m]);
    let flat = ExprGeom {
        win_h: 1,
        win_w: n,
        shape_h: 1,
        shape_w: n,
        chans: 1,
        origins: &origins,
        seg: &seg,
    };
    let wmax = gemm::layer_wmax(&b, k, n);
    let weights = DenseWeights::new(&b, &wmax, k, n);
    let bounds = [&bounds[..]];
    let mut bits: Vec<Vec<u32>> = Vec::new();
    for &build in builds {
        let mut fused = vec![Itv::zero(); m];
        let fused_s = time(2 * m * k * n, || {
            build.concretize_dense(
                black_box(&lo),
                &hi,
                &weights,
                &cst,
                &cst,
                &seg,
                &bounds,
                &mut fused,
            );
            black_box(&fused);
        });
        let (mut lo_in, mut hi_in) = (vec![Itv::zero(); m * n], vec![Itv::zero(); m * n]);
        let mut unfused = vec![Itv::zero(); m];
        let unfused_s = time(2 * m * k * n, || {
            build.gemm_itv_f_prepared(black_box(&lo), &weights, &mut lo_in, m, &seg, None);
            build.gemm_itv_f_prepared(black_box(&hi), &weights, &mut hi_in, m, &seg, None);
            build.concretize(&lo_in, &hi_in, &cst, &cst, &flat, &bounds, &mut unfused);
            black_box(&unfused);
        });
        println!(
            "[last step] {:<8} {m:>3}x{k:<3}x{n} one launch {:>8.1} us   three launches {:>8.1} us   ({:.2}x)",
            format!("{build:?}"),
            fused_s * 1e6,
            unfused_s * 1e6,
            unfused_s / fused_s,
        );
        let to_bits = |c: &[Itv<f32>]| -> Vec<u32> {
            c.iter()
                .flat_map(|v| [v.lo.to_bits(), v.hi.to_bits()])
                .collect()
        };
        assert_eq!(
            to_bits(&fused),
            to_bits(&unfused),
            "{m}x{k}x{n}, {build:?}: the one launch's candidates are not the three's"
        );
        bits.push(to_bits(&fused));
    }
    assert!(
        bits.windows(2).all(|w| w[0] == w[1]),
        "{m}x{k}x{n}: the builds' results differ"
    );
}

/// The four conv layers of ConvBig ×0.12 on a 28×28 input, as GBC sees
/// them: `(c_in, c_out, k, stride, input side)`, padding 1.
const CONVBIG_012: [(usize, usize, usize, usize, usize); 4] = [
    (1, 4, 3, 1, 28),
    (4, 4, 4, 2, 28),
    (4, 8, 3, 1, 14),
    (8, 8, 4, 2, 14),
];

/// One GBC launch over `rows` source windows of `win` at spread origins,
/// their destination windows grown through the convolution and clipped to
/// its input, as the verifier's conv step asks for them: the source plane
/// (every seventh coefficient an exact zero), the filter, the geometry and
/// the count of lane-terms — (non-zero coefficient, destination element)
/// pairs.
struct ConvLaunch {
    conv: GbcShape,
    src: Vec<Itv<f32>>,
    weight: Vec<f32>,
    win: (usize, usize),
    origins: Vec<(i32, i32)>,
    seg: Vec<u32>,
    dst_win: (usize, usize),
    dst_origins: Vec<(i32, i32)>,
    lane_terms: usize,
}

impl ConvLaunch {
    fn new(
        (cin, cout, k, s, side): (usize, usize, usize, usize, usize),
        rows: usize,
        win: usize,
    ) -> Self {
        let conv = GbcShape {
            kh: k,
            kw: k,
            sh: s,
            sw: s,
            ph: 1,
            pw: 1,
            cout,
            cin,
            in_h: side,
            in_w: side,
        };
        let out = (side + 2 - k) / s + 1;
        let win = (win.min(out), win.min(out));
        let origins: Vec<(i32, i32)> = (0..rows)
            .map(|r| {
                let room = (out - win.0 + 1) as i32;
                ((r as i32 * 5) % room, (r as i32 * 3) % room)
            })
            .collect();
        let dst_win = (
            ((win.0 - 1) * s + k).min(side),
            ((win.1 - 1) * s + k).min(side),
        );
        let grow = |o: i32, w: usize| (o * s as i32 - 1).clamp(0, (side - w) as i32);
        let dst_origins: Vec<(i32, i32)> = origins
            .iter()
            .map(|&(oh, ow)| (grow(oh, dst_win.0), grow(ow, dst_win.1)))
            .collect();
        let cols = win.0 * win.1 * cout;
        let src: Vec<Itv<f32>> = (0..rows * cols)
            .map(|i| match i % 7 {
                0 => Itv::zero(),
                _ => {
                    let c = mix(i, 3) as f32;
                    Itv::new(c - 1e-3, c + 1e-3)
                }
            })
            .collect();
        let weight = (0..k * k * cout * cin).map(|i| mix(i, 4) as f32).collect();
        // Where source position `o·s − p + f` lands in a destination window.
        let reach = |o: usize, d: i32, w: usize| {
            (0..k)
                .filter(|&f| (0..w as isize).contains(&((o * s + f) as isize - 1 - d as isize)))
                .count()
        };
        let mut lane_terms = 0;
        for (r, (&(oh, ow), &(dh, dw))) in origins.iter().zip(&dst_origins).enumerate() {
            for i in 0..win.0 {
                for j in 0..win.1 {
                    let at = r * cols + (i * win.1 + j) * cout;
                    let live = src[at..at + cout].iter().filter(|m| m.hi != 0.0).count();
                    let taps = reach(oh as usize + i, dh, dst_win.0)
                        * reach(ow as usize + j, dw, dst_win.1);
                    lane_terms += live * taps * cin;
                }
            }
        }
        Self {
            conv,
            src,
            weight,
            win,
            origins,
            seg: vec![0; rows],
            dst_win,
            dst_origins,
            lane_terms,
        }
    }

    fn dst_len(&self) -> usize {
        self.origins.len() * self.dst_win.0 * self.dst_win.1 * self.conv.cin
    }

    fn run(&self, build: GemmBuild, dst: &mut [Itv<f32>]) {
        let out = (self.conv.in_h + 2 - self.conv.kh) / self.conv.sh + 1;
        let geom = ExprGeom {
            win_h: self.win.0,
            win_w: self.win.1,
            shape_h: out,
            shape_w: out,
            chans: self.conv.cout,
            origins: &self.origins,
            seg: &self.seg,
        };
        let dst_cols = self.dst_win.0 * self.dst_win.1 * self.conv.cin;
        build.gbc(
            black_box(&self.src),
            &geom,
            &self.weight,
            &self.conv,
            dst,
            &self.dst_origins,
            dst_cols,
            self.dst_win.1,
        );
    }
}

/// GBC on one ConvBig ×0.12 layer, refinement- and spec-walk-shaped, in
/// each build: ns per lane-term and per destination element, the builds'
/// bits compared.
fn report_gbc(builds: &[GemmBuild], layer: (usize, usize, usize, usize, usize)) {
    let (cin, _, k, _, _) = layer;
    for (kind, rows, win) in [("refine", 64, 3), ("spec", 9, usize::MAX)] {
        let launch = ConvLaunch::new(layer, rows, win);
        let mut bits: Vec<Vec<u32>> = Vec::new();
        for &build in builds {
            let mut dst = vec![Itv::zero(); launch.dst_len()];
            let secs = time(launch.lane_terms, || {
                launch.run(build, &mut dst);
                black_box(&dst);
            });
            println!(
                "[gbc] {:<8} c_in {cin} kw {k} {kind:<6} {rows:>2} rows {:>2}x{:<2} -> {:>2}x{:<2} {:>5.2} ns/lane-term {:>6.2} ns/element",
                format!("{build:?}"),
                launch.win.0,
                launch.win.1,
                launch.dst_win.0,
                launch.dst_win.1,
                secs * 1e9 / launch.lane_terms as f64,
                secs * 1e9 / launch.dst_len() as f64,
            );
            bits.push(
                dst.iter()
                    .flat_map(|v| [v.lo.to_bits(), v.hi.to_bits()])
                    .collect(),
            );
        }
        assert!(
            bits.windows(2).all(|w| w[0] == w[1]),
            "GBC c_in {cin} kw {k} {kind}: the builds' results differ"
        );
    }
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
    for k in [100, 25] {
        for m in [1, 10, 40, 144] {
            report_last_step(&builds, m, k, 784);
        }
    }
    for layer in CONVBIG_012 {
        report_gbc(&builds, layer);
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

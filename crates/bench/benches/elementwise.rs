//! The element-wise kernels in isolation: `relu_step`, `concretize` and
//! `bias_fold`, the passes that stream a batch between two GEMM / GBC
//! launches. The ReLU step is timed twice: as `relu_step`, the raw entry,
//! which makes a one-launch [`ReluTable`] of the slices of each segment of
//! several rows and steps through it (a lone row takes the rule as written),
//! and as `relu_tables`, the same launches stepped through one `ReluTable`
//! per segment made beforehand, as a walk steps them.
//!
//! None of them has a FLOP meter that means anything — what a coefficient
//! costs depends on what its neuron is — so this prints **nanoseconds per
//! coefficient** (per plane, on one worker) on dense geometries — a
//! layer's rows, two rows (less than one row block), sixteen queries'
//! rows — and on a dependence-set-window geometry, at a given share of *stable* neurons
//! (half of them stably positive, half stably negative; the rest unstable)
//! and a given density of non-zero coefficients. `concretize` and
//! `bias_fold` run in row blocks, and their blocks are built twice
//! ([`GemmBuild`]): each build the host has gets a row — `baseline`, and
//! `avx512` where the host has AVX-512F — with the ReLU step, which is built
//! once, timed on the production backend in both. The reference backend
//! runs the contract's straight-line row functions, which is also what the
//! production backend ran for every row before it resolved a launch's
//! tables once and blocked its rows, so its row doubles as the "before"
//! figure. The outputs of every row are asserted bit-identical and their
//! digest is printed.
//!
//! Run with `cargo bench --bench elementwise` (the benchmark's two regimes,
//! dense and sparse coefficients) or
//! `cargo bench --bench elementwise -- <stable share> <density>`. It prints;
//! end-to-end numbers come from `benchmark/run.sh`, not from here.

use std::hint::black_box;
use std::time::Instant;

use gpupoly_device::{
    kernels, Backend, Device, DeviceConfig, ExprGeom, GemmBuild, ReluRelax, ReluTable,
};
use gpupoly_interval::Itv;

/// splitmix64, as a stream of uniform draws from `[0, 1)`.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One launch shape: `rows` windows of `win × win × chans` over a
/// `side × side × chans` frontier, rows dealt round-robin to `segments`.
struct Case {
    name: &'static str,
    rows: usize,
    win: usize,
    side: usize,
    chans: usize,
    segments: usize,
}

/// The operands of one case at one `(stable, density)` point.
struct Operands {
    origins: Vec<(i32, i32)>,
    seg: Vec<u32>,
    plane: Vec<Itv<f32>>,
    cst: Vec<Itv<f32>>,
    bounds: Vec<Vec<Itv<f32>>>,
    relax: Vec<Vec<ReluRelax<f32>>>,
    bias: Vec<f32>,
}

impl Case {
    fn geom<'a>(&self, ops: &'a Operands) -> ExprGeom<'a> {
        ExprGeom {
            win_h: self.win,
            win_w: self.win,
            shape_h: self.side,
            shape_w: self.side,
            chans: self.chans,
            origins: &ops.origins,
            seg: &ops.seg,
        }
    }

    fn operands(&self, stable: f64, density: f64) -> Operands {
        let mut s = Stream(0x5eed ^ self.rows as u64);
        let slack = self.side - self.win + 1;
        let origins = (0..self.rows)
            .map(|_| {
                (
                    (s.next() * slack as f64) as i32,
                    (s.next() * slack as f64) as i32,
                )
            })
            .collect();
        let seg = (0..self.rows).map(|r| (r % self.segments) as u32).collect();
        let cols = self.win * self.win * self.chans;
        // Narrow intervals of definite sign, as a walk's coefficients are.
        let plane = (0..self.rows * cols)
            .map(|_| {
                if s.next() >= density {
                    return Itv::zero();
                }
                let v = (s.next() - 0.5) as f32;
                Itv::new(v - v.abs() * 1e-6, v + v.abs() * 1e-6)
            })
            .collect();
        let cst = (0..self.rows)
            .map(|_| Itv::point((s.next() - 0.5) as f32))
            .collect();
        let frontier = self.side * self.side * self.chans;
        let bounds: Vec<Vec<Itv<f32>>> = (0..self.segments)
            .map(|_| {
                (0..frontier)
                    .map(|_| {
                        let (kind, v) = (s.next(), s.next() as f32 + 1e-3);
                        if kind >= stable {
                            Itv::new(-v * 0.7, v) // unstable
                        } else if kind < stable / 2.0 {
                            Itv::new(v * 0.5, v) // stably positive
                        } else {
                            Itv::new(-v, -v * 0.5) // stably negative
                        }
                    })
                    .collect()
            })
            .collect();
        let relax = bounds.iter().map(|b| ReluRelax::layer(b)).collect();
        let bias = (0..self.chans).map(|_| (s.next() - 0.5) as f32).collect();
        Operands {
            origins,
            seg,
            plane,
            cst,
            bounds,
            relax,
            bias,
        }
    }
}

/// FNV-1a over the bits of `out`, continuing `hash`.
fn fnv(mut hash: u64, out: &[Itv<f32>]) -> u64 {
    for v in out {
        for b in [v.lo.to_bits(), v.hi.to_bits()] {
            for byte in b.to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// Seconds per launch of each kernel — `[relu_step, relu_tables,
/// concretize, bias_fold]`, the ReLU step's copy of its plane subtracted —
/// and a digest of what they wrote (both ReLU steps asserted to write the
/// same bits). With a `build`, concretize and the bias fold run in that build of
/// the production kernels, on no device; the ReLU step, which has one build,
/// runs on `device` either way.
fn time_case<B: Backend>(
    device: &Device<B>,
    build: Option<GemmBuild>,
    case: &Case,
    ops: &Operands,
    reps: usize,
) -> ([f64; 4], u64) {
    let geom = case.geom(ops);
    let relax: Vec<&[ReluRelax<f32>]> = ops.relax.iter().map(Vec::as_slice).collect();
    let bounds: Vec<&[Itv<f32>]> = ops.bounds.iter().map(Vec::as_slice).collect();
    // The concrete bounds of a ReLU's output, for the step's hull terms.
    let out_bounds: Vec<Vec<Itv<f32>>> = ops
        .bounds
        .iter()
        .map(|b| {
            b.iter()
                .map(|x| Itv::new(x.lo.max(0.0), x.hi.max(0.0)))
                .collect()
        })
        .collect();
    let out_bounds: Vec<&[Itv<f32>]> = out_bounds.iter().map(Vec::as_slice).collect();
    // Made once, outside the timing, as a walk makes a query's tables once a
    // call.
    let tables: Vec<ReluTable<f32>> = relax
        .iter()
        .zip(&out_bounds)
        .map(|(r, o)| ReluTable::from_parts(r.to_vec(), o.to_vec()))
        .collect();
    let tables: Vec<&ReluTable<f32>> = tables.iter().collect();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;

    let (mut plane, mut cst) = (ops.plane.clone(), ops.cst.clone());
    let copy = {
        let t = Instant::now();
        for _ in 0..reps {
            plane.copy_from_slice(black_box(&ops.plane));
            cst.copy_from_slice(&ops.cst);
        }
        t.elapsed().as_secs_f64()
    };
    let t = Instant::now();
    for rep in 0..reps {
        plane.copy_from_slice(black_box(&ops.plane));
        cst.copy_from_slice(&ops.cst);
        kernels::relu_step(
            device,
            "relu_step_lo",
            &mut plane,
            &mut cst,
            &geom,
            &relax,
            &out_bounds,
            (reps - rep) % 2 == 1, // alternating; the last two: lower, then upper
        );
        black_box(&plane);
        if rep + 2 >= reps {
            digest = fnv(fnv(digest, &plane), &cst);
        }
    }
    let relu = (t.elapsed().as_secs_f64() - copy).max(0.0) / reps as f64;

    let mut tables_digest = 0xcbf2_9ce4_8422_2325u64;
    let t = Instant::now();
    for rep in 0..reps {
        plane.copy_from_slice(black_box(&ops.plane));
        cst.copy_from_slice(&ops.cst);
        kernels::relu_step_tables(
            device,
            "relu_step_lo",
            &mut plane,
            &mut cst,
            &geom,
            &tables,
            (reps - rep) % 2 == 1,
        );
        black_box(&plane);
        if rep + 2 >= reps {
            tables_digest = fnv(fnv(tables_digest, &plane), &cst);
        }
    }
    let relu_tables = (t.elapsed().as_secs_f64() - copy).max(0.0) / reps as f64;
    assert_eq!(
        tables_digest, digest,
        "relu_step and relu_step_tables outputs differ"
    );

    let mut out = vec![Itv::<f32>::zero(); case.rows];
    let t = Instant::now();
    for _ in 0..reps {
        let (lo, hi) = (black_box(&ops.plane), &ops.plane);
        match build {
            Some(build) => build.concretize(lo, hi, &ops.cst, &ops.cst, &geom, &bounds, &mut out),
            None => {
                kernels::concretize(device, lo, hi, &ops.cst, &ops.cst, &geom, &bounds, &mut out)
            }
        }
        black_box(&out);
    }
    // Two planes per launch.
    let concretize = t.elapsed().as_secs_f64() / (2 * reps) as f64;
    digest = fnv(digest, &out);

    let t = Instant::now();
    for _ in 0..reps {
        let plane = black_box(&ops.plane);
        match build {
            Some(build) => build.bias_fold(plane, &geom, &ops.bias, &ops.cst, &mut out),
            None => kernels::bias_fold(
                device,
                "bias_fold_lo",
                plane,
                &geom,
                &ops.bias,
                &ops.cst,
                &mut out,
            ),
        }
        black_box(&out);
    }
    let bias_fold = t.elapsed().as_secs_f64() / reps as f64;
    digest = fnv(digest, &out);
    ([relu, relu_tables, concretize, bias_fold], digest)
}

fn report(case: &Case, stable: f64, density: f64) {
    let ops = case.operands(stable, density);
    let coeffs = ops.plane.len() as f64;
    let reps = (20_000_000 / ops.plane.len()).clamp(4, 100_000);
    // One worker each: the figure is a thread's.
    let cpusim = Device::new(DeviceConfig::new().workers(1));
    let reference = Device::reference(DeviceConfig::new().workers(1));
    let mut rows = Vec::new();
    for (name, build) in [
        ("baseline", GemmBuild::Baseline),
        ("avx512", GemmBuild::Avx512),
    ] {
        if build.is_available() {
            rows.push((name, time_case(&cpusim, Some(build), case, &ops, reps)));
        }
    }
    rows.push((
        "reference",
        time_case(&reference, None, case, &ops, reps.div_ceil(4)),
    ));
    let digest = rows[0].1 .1;
    for (name, (_, other)) in &rows {
        assert_eq!(
            *other, digest,
            "{}: {name} and {} outputs differ",
            case.name, rows[0].0
        );
    }
    for (name, (secs, _)) in rows {
        println!(
            "[elementwise] {name:<9} {:<6} stable {stable:.3} density {density:.2}  \
             relu_step {:>6.2}  relu_tables {:>6.2}  concretize {:>6.2}  bias_fold {:>6.2} \
             ns/coeff  digest {digest:016x}",
            case.name,
            secs[0] * 1e9 / coeffs,
            secs[1] * 1e9 / coeffs,
            secs[2] * 1e9 / coeffs,
            secs[3] * 1e9 / coeffs,
        );
    }
}

fn main() {
    let given: Vec<f64> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    // `dense_single` has 55 % of its neurons stable, `conv_fused` 92.5 %; a
    // dense row is full, a window row slid inward is half exact zeros.
    let points: Vec<(f64, f64)> = match given[..] {
        [stable, density] => vec![(stable, density)],
        _ => vec![(0.55, 1.0), (0.925, 1.0), (0.925, 0.5)],
    };
    // `Fc6x500` ×0.2: 100 rows over a 100-neuron layer, one query or sixteen
    // fused, or two, as a walk's short lists launch them; a `ConvBig`-sized
    // layer under 7×7 windows, eight queries fused.
    let cases = [
        Case {
            name: "dense",
            rows: 100,
            win: 1,
            side: 1,
            chans: 100,
            segments: 1,
        },
        Case {
            name: "tiny",
            rows: 2,
            win: 1,
            side: 1,
            chans: 100,
            segments: 1,
        },
        Case {
            name: "fused",
            rows: 1600,
            win: 1,
            side: 1,
            chans: 100,
            segments: 16,
        },
        Case {
            name: "window",
            rows: 512,
            win: 7,
            side: 14,
            chans: 8,
            segments: 8,
        },
    ];
    println!("[elementwise] ns per coefficient and plane, one worker");
    for (stable, density) in points {
        for case in &cases {
            report(case, stable, density);
        }
    }
}

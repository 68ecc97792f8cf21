//! Seeded random-shape differential of the row reductions: candidate
//! concretization ([`GemmBuild::concretize`]) and the bias fold
//! ([`GemmBuild::bias_fold`]), in every build the host has, against
//! [`ReferenceBackend`](gpupoly_device::ReferenceBackend) — bits equal, NaN
//! payloads included.
//!
//! Rows `0..=40`, every count in turn (so both builds' 4- and 8-row blocks
//! end full, partial and empty); columns `0..=130`, as dense rows (one
//! window position of many channels) and as convolution windows inside a
//! larger frontier; up to four query segments, some without rows; and `±0`,
//! subnormals, `±inf` and NaN among the coefficients, the segments' bounds,
//! the constants and the bias.

mod common;

use common::{assert_same, Rng};
use gpupoly_device::{kernels, Device, DeviceConfig, ExprGeom, GemmBuild};
use gpupoly_interval::Itv;

/// One launch's operands, shared by both kernels.
struct Case {
    win: (usize, usize),
    shape: (usize, usize),
    chans: usize,
    origins: Vec<(i32, i32)>,
    seg: Vec<u32>,
    lo: Vec<Itv<f32>>,
    hi: Vec<Itv<f32>>,
    cst_lo: Vec<Itv<f32>>,
    cst_hi: Vec<Itv<f32>>,
    bounds: Vec<Vec<Itv<f32>>>,
    bias: Vec<f32>,
}

impl Case {
    fn new(rows: usize, rng: &mut Rng) -> Self {
        // Column counts at the lane edges come up more often than others.
        const EDGES: [usize; 12] = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 130];
        let (win, shape, chans) = if rng.below(2) == 0 {
            let cols = match rng.below(3) {
                0 => EDGES[rng.below(EDGES.len())],
                _ => rng.below(131),
            };
            ((1, 1), (1, 1), cols)
        } else {
            let shape = (rng.below(4) + 1, rng.below(4) + 1);
            let win = (rng.below(shape.0) + 1, rng.below(shape.1) + 1);
            (win, shape, rng.below(130 / (win.0 * win.1)) + 1)
        };
        let cols = win.0 * win.1 * chans;
        let origins = (0..rows)
            .map(|_| {
                let oh = rng.below(shape.0 - win.0 + 1) as i32;
                (oh, rng.below(shape.1 - win.1 + 1) as i32)
            })
            .collect();
        // Up to four segments, the last possibly without rows.
        let segments = rng.below(4) + 1;
        let seg = (0..rows)
            .map(|_| rng.below(segments.max(2) - 1) as u32)
            .collect();
        let mut coeffs = |n: usize| (0..n).map(|_| rng.coeff()).collect::<Vec<_>>();
        let (lo, hi) = (coeffs(rows * cols), coeffs(rows * cols));
        let (cst_lo, cst_hi) = (coeffs(rows), coeffs(rows));
        let frontier = shape.0 * shape.1 * chans;
        let bounds = (0..segments).map(|_| coeffs(frontier)).collect();
        let bias_len = match rng.below(3) {
            0 => rng.below(8) + 1,
            _ => chans.max(1),
        };
        let bias = (0..bias_len).map(|_| rng.value()).collect();
        Self {
            win,
            shape,
            chans,
            origins,
            seg,
            lo,
            hi,
            cst_lo,
            cst_hi,
            bounds,
            bias,
        }
    }

    fn geom(&self) -> ExprGeom<'_> {
        ExprGeom {
            win_h: self.win.0,
            win_w: self.win.1,
            shape_h: self.shape.0,
            shape_w: self.shape.1,
            chans: self.chans,
            origins: &self.origins,
            seg: &self.seg,
        }
    }

    fn bounds(&self) -> Vec<&[Itv<f32>]> {
        self.bounds.iter().map(Vec::as_slice).collect()
    }

    fn out(&self) -> Vec<Itv<f32>> {
        vec![Itv::point(9.0); self.origins.len()]
    }
}

#[test]
fn both_row_reductions_in_every_build_write_the_reference_bits() {
    let builds: Vec<GemmBuild> = [GemmBuild::Baseline, GemmBuild::Avx512]
        .into_iter()
        .filter(|b| b.is_available())
        .collect();
    let reference = Device::reference(DeviceConfig::new().workers(1));
    let mut rng = Rng(0x0c0c_12e7);
    let (mut non_finite, mut rowless_segments) = (0, 0);
    for i in 0..3 * 41 {
        let rows = i % 41;
        let t = Case::new(rows, &mut rng);
        let (geom, bounds) = (t.geom(), t.bounds());
        let what = |kernel: &str, build: &str| {
            let cols = geom.cols();
            format!("case {i} ({rows} rows x {cols} columns): {kernel}, {build}")
        };
        rowless_segments += geom
            .seg_rows(bounds.len())
            .iter()
            .filter(|&&n| n == 0)
            .count();

        let mut concretized = t.out();
        kernels::concretize(
            &reference,
            &t.lo,
            &t.hi,
            &t.cst_lo,
            &t.cst_hi,
            &geom,
            &bounds,
            &mut concretized,
        );
        let mut folded = t.out();
        kernels::bias_fold(
            &reference,
            "bias_fold",
            &t.lo,
            &geom,
            &t.bias,
            &t.cst_lo,
            &mut folded,
        );
        non_finite += concretized
            .iter()
            .chain(&folded)
            .filter(|v| !v.is_finite())
            .count();

        for &build in &builds {
            let name = format!("{build:?}");
            let mut out = t.out();
            build.concretize(&t.lo, &t.hi, &t.cst_lo, &t.cst_hi, &geom, &bounds, &mut out);
            assert_same(&out, &concretized, &what("concretize", &name));
            let mut out = t.out();
            build.bias_fold(&t.lo, &geom, &t.bias, &t.cst_lo, &mut out);
            assert_same(&out, &folded, &what("bias_fold", &name));
        }
    }
    assert!(non_finite > 50, "only {non_finite} non-finite results");
    assert!(
        rowless_segments > 10,
        "only {rowless_segments} segments without rows"
    );
}

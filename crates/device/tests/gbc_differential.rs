//! Seeded random-shape differential of GBC, the conv step's transpose
//! convolution ([`GemmBuild::gbc`]), in every build the host has, against
//! [`ReferenceBackend`](gpupoly_device::ReferenceBackend)'s gather — bits
//! equal, NaN payloads included.
//!
//! Each case draws its filter from a fixed grid: `c_in` and `c_out` across
//! the lane edges (1, 3, 4, 8, 16, 17), `kh` and `kw` 1–5, strides 1–3 and
//! padding 0–2 in each dimension. Its source windows are a quarter of the
//! time the whole conv output, otherwise up to 3×3 on its borders or
//! anywhere inside; its destination windows are the source windows grown
//! through the filter, clipped to the conv input and slid inside it, and
//! every third row's is moved one column further, so that some terms land
//! nowhere and some positions are reached by none. Rows are dealt to
//! several segments, the last of them without rows. `±0`, subnormals,
//! `±inf` and NaN are among the source coefficients and the weights.

mod common;

use common::{assert_same, Rng};
use gpupoly_device::{kernels, Device, DeviceConfig, ExprGeom, GbcShape, GemmBuild};
use gpupoly_interval::Itv;

/// The lane edges `c_in` and `c_out` are drawn from.
const CHANNELS: [usize; 6] = [1, 3, 4, 8, 16, 17];

/// One launch's operands.
struct Case {
    conv: GbcShape,
    src: Vec<Itv<f32>>,
    weight: Vec<f32>,
    win: (usize, usize),
    out: (usize, usize),
    origins: Vec<(i32, i32)>,
    seg: Vec<u32>,
    dst_win: (usize, usize),
    dst_origins: Vec<(i32, i32)>,
}

impl Case {
    fn new(rng: &mut Rng) -> Self {
        let (kh, kw) = (1 + rng.below(5), 1 + rng.below(5));
        let conv = GbcShape {
            kh,
            kw,
            sh: 1 + rng.below(3),
            sw: 1 + rng.below(3),
            ph: rng.below(3),
            pw: rng.below(3),
            cout: CHANNELS[rng.below(CHANNELS.len())],
            cin: CHANNELS[rng.below(CHANNELS.len())],
            in_h: kh + 1 + rng.below(6),
            in_w: kw + 1 + rng.below(6),
        };
        let out = (
            (conv.in_h + 2 * conv.ph - kh) / conv.sh + 1,
            (conv.in_w + 2 * conv.pw - kw) / conv.sw + 1,
        );
        let win = match rng.below(4) {
            0 => out,
            _ => (1 + rng.below(3.min(out.0)), 1 + rng.below(3.min(out.1))),
        };
        let rows = rng.below(7);
        // On the first border, on the last, or anywhere between.
        let mut origin = |room: usize| match rng.below(3) {
            0 => 0,
            1 => room as i32,
            _ => rng.below(room + 1) as i32,
        };
        let origins: Vec<(i32, i32)> = (0..rows)
            .map(|_| (origin(out.0 - win.0), origin(out.1 - win.1)))
            .collect();
        let segments = 2 + rng.below(3);
        let seg = (0..rows).map(|_| rng.below(segments - 1) as u32).collect();
        let dst_win = (
            ((win.0 - 1) * conv.sh + kh).min(conv.in_h),
            ((win.1 - 1) * conv.sw + kw).min(conv.in_w),
        );
        let slide = |o: i32, stride: usize, pad: usize, w: usize, extent: usize| {
            (o * stride as i32 - pad as i32).clamp(0, (extent - w) as i32)
        };
        let dst_origins = origins
            .iter()
            .enumerate()
            .map(|(r, &(oh, ow))| {
                let room = (conv.in_w - dst_win.1) as i32;
                let ow = slide(ow, conv.sw, conv.pw, dst_win.1, conv.in_w) + i32::from(r % 3 == 2);
                (
                    slide(oh, conv.sh, conv.ph, dst_win.0, conv.in_h),
                    ow.min(room),
                )
            })
            .collect();
        let src = (0..rows * win.0 * win.1 * conv.cout)
            .map(|_| rng.coeff())
            .collect();
        let weight = (0..kh * kw * conv.cout * conv.cin)
            .map(|_| rng.value())
            .collect();
        Self {
            conv,
            src,
            weight,
            win,
            out,
            origins,
            seg,
            dst_win,
            dst_origins,
        }
    }

    fn geom(&self) -> ExprGeom<'_> {
        ExprGeom {
            win_h: self.win.0,
            win_w: self.win.1,
            shape_h: self.out.0,
            shape_w: self.out.1,
            chans: self.conv.cout,
            origins: &self.origins,
            seg: &self.seg,
        }
    }

    fn dst_cols(&self) -> usize {
        self.dst_win.0 * self.dst_win.1 * self.conv.cin
    }

    /// A destination that was not zeroed: the kernel defines every element.
    fn out(&self) -> Vec<Itv<f32>> {
        vec![Itv::point(9.0); self.origins.len() * self.dst_cols()]
    }

    /// On which of its `(top, left, bottom, right)` borders some row's
    /// destination window stops short of what its filter reaches: the
    /// window was clipped to the conv input, slid or moved there.
    fn clipped(&self) -> [bool; 4] {
        let c = &self.conv;
        let mut seen = [false; 4];
        for (&(oh, ow), &(dh, dw)) in self.origins.iter().zip(&self.dst_origins) {
            let top = oh as isize * c.sh as isize - c.ph as isize;
            let left = ow as isize * c.sw as isize - c.pw as isize;
            let bottom = top + ((self.win.0 - 1) * c.sh + c.kh) as isize;
            let right = left + ((self.win.1 - 1) * c.sw + c.kw) as isize;
            seen[0] |= top < dh as isize;
            seen[1] |= left < dw as isize;
            seen[2] |= bottom > (dh as usize + self.dst_win.0) as isize;
            seen[3] |= right > (dw as usize + self.dst_win.1) as isize;
        }
        seen
    }
}

#[test]
fn gbc_in_every_build_writes_the_reference_bits() {
    let builds: Vec<GemmBuild> = [GemmBuild::Baseline, GemmBuild::Avx512]
        .into_iter()
        .filter(|b| b.is_available())
        .collect();
    let reference = Device::reference(DeviceConfig::new().workers(1));
    let mut rng = Rng(0x9bc_d1ff);
    let (mut unreached, mut chained, mut clipped) = (0, 0, [0; 4]);
    for i in 0..160 {
        let t = Case::new(&mut rng);
        let c = &t.conv;
        let what = |build: &str| {
            format!(
                "case {i}: c_in {} c_out {} filter {}x{} stride ({}, {}) padding ({}, {}), \
                 {} rows of {}x{} into {}x{}: {build}",
                c.cin,
                c.cout,
                c.kh,
                c.kw,
                c.sh,
                c.sw,
                c.ph,
                c.pw,
                t.origins.len(),
                t.win.0,
                t.win.1,
                t.dst_win.0,
                t.dst_win.1
            )
        };
        let geom = t.geom();
        let mut want = t.out();
        kernels::gbc(
            &reference,
            "gbc_lo",
            &t.src,
            &geom,
            &t.weight,
            c,
            &mut want,
            &t.dst_origins,
            t.dst_cols(),
            t.dst_win.1,
        );
        unreached += usize::from(
            want.iter()
                .any(|v| v.lo.to_bits() == 0 && v.hi.to_bits() == 0),
        );
        chained += usize::from(want.iter().any(|v| !v.is_finite()));
        for (n, seen) in clipped.iter_mut().zip(t.clipped()) {
            *n += usize::from(seen);
        }
        for &build in &builds {
            let mut got = t.out();
            build.gbc(
                &t.src,
                &geom,
                &t.weight,
                c,
                &mut got,
                &t.dst_origins,
                t.dst_cols(),
                t.dst_win.1,
            );
            assert_same(&got, &want, &what(&format!("{build:?}")));
        }
    }
    assert!(
        unreached > 20 && chained > 20,
        "the cases lost their corners: {unreached} with unreached positions, {chained} on the chain"
    );
    assert!(
        clipped.iter().all(|&n| n > 10),
        "windows clipped on the top, left, bottom and right borders: {clipped:?}"
    );
}

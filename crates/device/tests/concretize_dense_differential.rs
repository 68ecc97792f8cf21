//! Seeded random-shape differential of a walk's last dense step and its
//! candidate in one launch ([`GemmBuild::concretize_dense`]), in every build
//! the host has, against [`ReferenceBackend`](gpupoly_device::ReferenceBackend)
//! — whose `concretize_dense` is the provided body: two products without
//! panels, then concretize over them — bits equal, NaN payloads included.
//!
//! Rows `0..=40`, every count in turn (so both builds' 4- and 8-row blocks
//! end full, partial and empty); `k` from 0 to 130; `n` up to 800, 784 among
//! them and every `n mod 8`; up to four query segments, some without rows.
//! Half the cases draw `±0`, subnormals, `±inf` and NaN into the planes, the
//! weights, the constants and the bounds; the other half keep them finite
//! but for one infinite weight that one row meets (its product takes the
//! chain) and one `top` bound (the candidates that meet it take the chain).

mod common;

use common::{assert_same, Rng};
use gpupoly_device::{gemm, DenseWeights, Device, DeviceConfig, GemmBuild};
use gpupoly_interval::Itv;

/// One launch's operands.
struct Case {
    m: usize,
    k: usize,
    n: usize,
    lo: Vec<Itv<f32>>,
    hi: Vec<Itv<f32>>,
    b: Vec<f32>,
    cst_lo: Vec<Itv<f32>>,
    cst_hi: Vec<Itv<f32>>,
    seg: Vec<u32>,
    bounds: Vec<Vec<Itv<f32>>>,
}

impl Case {
    fn new(i: usize, rng: &mut Rng) -> Self {
        let m = i % 41;
        let k = match rng.below(4) {
            0 => [0, 1, 4, 8, 25, 100, 130][rng.below(7)],
            _ => rng.below(131),
        };
        // Every `n mod 8` in turn, 784 one case in six; the wide ones with
        // a short `k`, so that the reference stays quick unoptimized.
        let n = match i % 6 {
            0 => 784,
            _ => 8 * rng.below(100) + i % 8,
        };
        let k = if n > 200 { k.min(25) } else { k };
        let dirty = i % 2 == 1;
        let draw = |rng: &mut Rng| match dirty {
            true => rng.coeff(),
            false => {
                let c = rng.coeff();
                match c.is_finite() && !c.lo.is_nan() && c.lo <= c.hi {
                    true => c,
                    false => Itv::point(0.25),
                }
            }
        };
        let mut lo: Vec<Itv<f32>> = (0..m * k).map(|_| draw(rng)).collect();
        let hi: Vec<Itv<f32>> = (0..m * k).map(|_| draw(rng)).collect();
        let cst_lo = (0..m).map(|_| draw(rng)).collect();
        let cst_hi = (0..m).map(|_| draw(rng)).collect();
        let mut b: Vec<f32> = (0..k * n)
            .map(|_| match dirty {
                true => rng.value(),
                false => rng.value().clamp(-1.0, 1.0) * 0.5,
            })
            .map(|w| if w.is_nan() && !dirty { 0.5 } else { w })
            .collect();
        // Up to four segments, the last possibly without rows.
        let segments = rng.below(4) + 1;
        let seg = (0..m)
            .map(|_| rng.below(segments.max(2) - 1) as u32)
            .collect();
        let mut bounds: Vec<Vec<Itv<f32>>> = (0..segments)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let c = draw(rng);
                        Itv {
                            lo: c.lo.min(c.hi),
                            hi: c.lo.max(c.hi),
                        }
                    })
                    .collect()
            })
            .collect();
        if !dirty && m > 0 && k > 0 && n > 0 {
            // One row meets an infinite weight; the others have no term in
            // its row of B.
            let (r, kk) = (rng.below(m), rng.below(k));
            b[kk * n + rng.below(n)] = f32::INFINITY;
            for row in 0..m {
                lo[row * k + kk] = if row == r {
                    Itv::point(0.5)
                } else {
                    Itv::zero()
                };
            }
            bounds[0][rng.below(n)] = Itv::top();
        }
        Self {
            m,
            k,
            n,
            lo,
            hi,
            b,
            cst_lo,
            cst_hi,
            seg,
            bounds,
        }
    }

    fn bounds(&self) -> Vec<&[Itv<f32>]> {
        self.bounds.iter().map(Vec::as_slice).collect()
    }

    fn out(&self) -> Vec<Itv<f32>> {
        vec![Itv::point(9.0); self.m]
    }
}

#[test]
fn concretize_dense_in_every_build_writes_the_reference_bits() {
    let builds: Vec<GemmBuild> = [GemmBuild::Baseline, GemmBuild::Avx512]
        .into_iter()
        .filter(|b| b.is_available())
        .collect();
    let reference = Device::reference(DeviceConfig::new().workers(1));
    let mut rng = Rng(0x0c0d_e5e5);
    let (mut non_finite, mut rowless_segments, mut n_mod_8) = (0, 0, [0; 8]);
    for i in 0..2 * 41 {
        let t = Case::new(i, &mut rng);
        let (m, k, n) = (t.m, t.k, t.n);
        let wmax = gemm::layer_wmax(&t.b, k, n);
        let weights = DenseWeights::new(&t.b, &wmax, k, n);
        let bounds = t.bounds();
        let mut want = t.out();
        gemm::concretize_dense(
            &reference, &t.lo, &t.hi, &weights, &t.cst_lo, &t.cst_hi, &t.seg, &bounds, &mut want,
        );
        non_finite += want.iter().filter(|v| !v.is_finite()).count();
        rowless_segments += (0..bounds.len() as u32)
            .filter(|s| !t.seg.contains(s))
            .count();
        n_mod_8[n % 8] += 1;
        for &build in &builds {
            let mut got = t.out();
            build.concretize_dense(
                &t.lo, &t.hi, &weights, &t.cst_lo, &t.cst_hi, &t.seg, &bounds, &mut got,
            );
            let what = format!("case {i} ({m}x{k}x{n}): concretize_dense, {build:?}");
            assert_same(&got, &want, &what);
        }
    }
    assert!(non_finite > 50, "only {non_finite} non-finite candidates");
    assert!(
        rowless_segments > 10,
        "only {rowless_segments} segments without rows"
    );
    assert!(n_mod_8.iter().all(|&c| c > 0), "n mod 8: {n_mod_8:?}");
}

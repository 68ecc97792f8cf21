//! Seeded random-shape differential of the interval products: the full
//! product over raw slices ([`GemmBuild::gemm_itv_f`]) and the prepared
//! entry over a layer's [`DenseWeights`], without and with each segment's
//! [`LivePanel`] ([`GemmBuild::gemm_itv_f_prepared`]), in every build the
//! host has, against [`ReferenceBackend`](gpupoly_device::ReferenceBackend)
//! — bits equal, NaN payloads included.
//!
//! Shapes `m ∈ 0..=40`, `k ∈ 0..=130`, `n ∈ 1..=130`, every residue of `n`
//! modulo 16 among them (the last partial block of either build's lanes);
//! `±0`, subnormals, `±inf` and NaN among the coefficients and the weights;
//! segments whose list is empty or that have no rows; and in every case a
//! non-finite weight in a column some segment has dead, met by a row of that
//! segment, which must still send that row to the per-step chain in its live
//! columns.

mod common;

use common::{assert_same, Rng};
use gpupoly_device::{gemm, DenseWeights, Device, DeviceConfig, GemmBuild, LivePanel};
use gpupoly_interval::Itv;

/// One launch's operands.
struct Case {
    m: usize,
    k: usize,
    n: usize,
    a: Vec<Itv<f32>>,
    b: Vec<f32>,
    seg: Vec<u32>,
    lists: Vec<Vec<u32>>,
}

impl Case {
    fn new(i: usize, rng: &mut Rng) -> Self {
        let m = rng.below(41);
        let k = rng.below(131);
        // Every residue modulo 16 once in each run of sixteen cases.
        let n = ((i % 16) + 16 * rng.below(8)).min(129) + 1;
        let mut a: Vec<Itv<f32>> = (0..m * k).map(|_| rng.coeff()).collect();
        let mut b: Vec<f32> = (0..k * n).map(|_| rng.value()).collect();
        // Up to four segments with lists, the last possibly without rows.
        let segments = rng.below(4) + 1;
        let seg: Vec<u32> = (0..m)
            .map(|_| rng.below(segments.max(2) - 1) as u32)
            .collect();
        let mut lists: Vec<Vec<u32>> = (0..segments)
            .map(|_| match rng.below(4) {
                0 => Vec::new(),
                1 => (0..n as u32).collect(),
                _ => (0..n as u32).filter(|_| rng.below(2) == 0).collect(),
            })
            .collect();
        // A non-finite weight in a column segment 0 has dead, on a row of
        // `B` its first row meets.
        if m > 0 && k > 0 {
            let j = rng.below(n) as u32;
            lists[0].retain(|&l| l != j);
            let first = seg.iter().position(|&s| s == 0);
            if let Some(r) = first {
                let kk = rng.below(k);
                a[r * k + kk] = Itv::new(0.25, 0.5);
                b[kk * n + j as usize] = [f32::INFINITY, f32::NAN][rng.below(2)];
            }
        }
        Self {
            m,
            k,
            n,
            a,
            b,
            seg,
            lists,
        }
    }

    fn lists(&self) -> Vec<&[u32]> {
        self.lists.iter().map(Vec::as_slice).collect()
    }

    fn out(&self) -> Vec<Itv<f32>> {
        vec![Itv::point(9.0); self.m * self.n]
    }
}

#[test]
fn every_product_in_every_build_writes_the_reference_bits() {
    let builds: Vec<GemmBuild> = [GemmBuild::Baseline, GemmBuild::Avx512]
        .into_iter()
        .filter(|b| b.is_available())
        .collect();
    let reference = Device::reference(DeviceConfig::new().workers(1));
    let mut rng = Rng(0x9e9a_d1ff);
    let mut chained = 0;
    for i in 0..48 {
        let t = Case::new(i, &mut rng);
        let (m, k, n) = (t.m, t.k, t.n);
        let lists = t.lists();
        let what = |kernel: &str, build: &str| format!("case {i} ({m}x{k}x{n}): {kernel}, {build}");
        let wmax = gemm::layer_wmax(&t.b, k, n);
        let weights = DenseWeights::new(&t.b, &wmax, k, n);

        let mut full = t.out();
        gemm::gemm_itv_f(&reference, &t.a, &t.b, &mut full, m, k, n);
        // The live product by its definition: the full one, dead columns
        // exact zeros.
        let mut live = full.clone();
        for (row, &s) in live.chunks_mut(n).zip(&t.seg) {
            for (j, v) in row.iter_mut().enumerate() {
                if !lists[s as usize].contains(&(j as u32)) {
                    *v = Itv::zero();
                }
            }
        }
        chained += usize::from(live.iter().any(|v| !v.is_finite()));
        // The reference runs the provided body of the prepared entry.
        let panels: Vec<LivePanel<f32>> =
            lists.iter().map(|l| LivePanel::new(&weights, l)).collect();
        let panels: Vec<&LivePanel<f32>> = panels.iter().collect();
        for (with, want) in [(None, &full), (Some(panels.as_slice()), &live)] {
            let mut c = t.out();
            gemm::gemm_itv_f_prepared(&reference, &t.a, &weights, &mut c, m, &t.seg, with);
            assert_same(&c, want, &what("prepared", "reference"));
        }

        for &build in &builds {
            let name = format!("{build:?}");
            let mut c = t.out();
            build.gemm_itv_f(&t.a, &t.b, &mut c, (m, k, n));
            assert_same(&c, &full, &what("gemm_itv_f", &name));
            let panels: Vec<LivePanel<f32>> = lists
                .iter()
                .map(|l| build.live_panel(&weights, l))
                .collect();
            let panels: Vec<&LivePanel<f32>> = panels.iter().collect();
            for (with, want) in [(None, &full), (Some(panels.as_slice()), &live)] {
                // Twice: a panel serves every launch through its layer.
                for _ in 0..2 {
                    let mut c = t.out();
                    build.gemm_itv_f_prepared(&t.a, &weights, &mut c, m, &t.seg, with);
                    assert_same(&c, want, &what("gemm_itv_f_prepared", &name));
                }
            }
        }
    }
    assert!(
        chained > 10,
        "only {chained} cases reached the per-step chain"
    );
}

/// A row that meets a non-finite weight only in a column its segment has
/// dead still takes the per-step chain in its live columns, prepared or
/// not: `wmax` is the whole row's.
#[test]
fn a_non_finite_weight_in_a_dead_column_sends_its_rows_to_the_chain() {
    let (m, k, n) = (2, 3, 20);
    let a: Vec<Itv<f32>> = (0..m * k).map(|i| Itv::point(0.25 + i as f32)).collect();
    let mut b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.125 - 0.5).collect();
    b[n + 3] = f32::INFINITY; // row 1 of B, column 3
    let live: Vec<u32> = (0..n as u32).filter(|&j| j != 3).collect();
    let wmax = gemm::layer_wmax(&b, k, n);
    assert_eq!(wmax[1], f64::INFINITY);
    let weights = DenseWeights::new(&b, &wmax, k, n);
    let reference = Device::reference(DeviceConfig::new().workers(1));
    let mut want = vec![Itv::zero(); m * n];
    let panel = LivePanel::new(&weights, &live);
    gemm::gemm_itv_f_prepared(
        &reference,
        &a,
        &weights,
        &mut want,
        m,
        &[0, 0],
        Some(&[&panel]),
    );
    for r in 0..m {
        for &j in &live {
            let j = j as usize;
            let chain = (0..k).fold(Itv::zero(), |c, kk| {
                a[r * k + kk].mul_add_f(b[kk * n + j], c)
            });
            assert_same(
                &want[r * n + j..][..1],
                &[chain],
                "reference, the chain's bits",
            );
        }
        assert_same(
            &want[r * n + 3..][..1],
            &[Itv::zero()],
            "reference, the dead column",
        );
    }
    for build in [GemmBuild::Baseline, GemmBuild::Avx512] {
        if !build.is_available() {
            continue;
        }
        let panel = build.live_panel(&weights, &live);
        let mut c = vec![Itv::point(9.0); m * n];
        build.gemm_itv_f_prepared(&a, &weights, &mut c, m, &[0, 0], Some(&[&panel]));
        assert_same(&c, &want, &format!("{build:?}"));
    }
}

//! Both in-tree backends pass the shared conformance suite — the same
//! entry point a CUDA/wgpu port must pass before it may be wired into
//! `gpupoly_core::Engine` (see README, "Adding a backend").

use gpupoly_device::{conformance, Device, DeviceConfig, ReferenceBackend};

#[test]
fn cpusim_backend_conforms() {
    conformance::assert_backend_conformance(Device::new);
}

#[test]
fn reference_backend_conforms() {
    conformance::assert_backend_conformance(Device::reference);
}

#[test]
fn backends_are_bit_identical_on_shared_inputs() {
    // The conformance suite checks each backend against the straight-line
    // oracle; this closes the triangle by checking the two backends against
    // each other on a spread of shapes, including the tiled path.
    use gpupoly_device::gemm;
    use gpupoly_interval::Itv;

    let cpu = Device::new(DeviceConfig::new().workers(3));
    let naive = Device::with_backend(ReferenceBackend, DeviceConfig::new().workers(1));
    for (m, k, n) in [(1, 1, 1), (3, 8, 5), (2, 17, 600), (6, 2, 3)] {
        let a: Vec<Itv<f32>> = (0..m * k)
            .map(|i| Itv::point(((i * 37 % 19) as f32 - 9.0) * 0.1))
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.05)
            .collect();
        let mut c1 = vec![Itv::zero(); m * n];
        let mut c2 = vec![Itv::zero(); m * n];
        gemm::gemm_itv_f(&cpu, &a, &b, &mut c1, m, k, n);
        gemm::gemm_itv_f(&naive, &a, &b, &mut c2, m, k, n);
        for (x, y) in c1.iter().zip(&c2) {
            assert_eq!(x.lo.to_bits(), y.lo.to_bits(), "{m}x{k}x{n} lo drifted");
            assert_eq!(x.hi.to_bits(), y.hi.to_bits(), "{m}x{k}x{n} hi drifted");
        }

        // The same product accumulated into a non-zero C, with one
        // unbounded coefficient and one infinite weight: those outputs fall
        // back to the per-step chain on both backends alike.
        let mut a = a;
        let mut b = b;
        a[k / 2] = Itv::new(0.5, f32::INFINITY);
        b[(k - 1) * n + n / 2] = f32::NEG_INFINITY;
        let init: Vec<Itv<f32>> = (0..m * n)
            .map(|i| Itv::point(i as f32 * 0.25 - 1.0))
            .collect();
        let (mut c1, mut c2) = (init.clone(), init);
        gemm::gemm_itv_f_acc(&cpu, &a, &b, &mut c1, m, k, n);
        gemm::gemm_itv_f_acc(&naive, &a, &b, &mut c2, m, k, n);
        assert!(c1[..n].iter().any(|v| !v.is_finite()), "{m}x{k}x{n}");
        for (x, y) in c1.iter().zip(&c2) {
            assert_eq!(x.lo.to_bits(), y.lo.to_bits(), "{m}x{k}x{n} acc lo drifted");
            assert_eq!(x.hi.to_bits(), y.hi.to_bits(), "{m}x{k}x{n} acc hi drifted");
        }
    }
}

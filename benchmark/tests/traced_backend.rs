//! The traced run must measure the same program: `TracedBackend` honours the
//! backend contract and gives the production backend's margins bit for bit.
//!
//! Run with `cargo test --release` from `benchmark/`; the verifier is slow
//! unoptimised.

use gpupoly::device::conformance::assert_backend_conformance;
use gpupoly::device::{Device, DeviceConfig};
use gpupoly_benchmark::inproc;
use gpupoly_benchmark::traced::{self, TracedBackend, WORKERS};
use gpupoly_benchmark::workload::{generate, Shape, WORKLOADS};

#[test]
fn traced_backend_passes_the_conformance_suite() {
    assert_backend_conformance(TracedBackend::device);
}

#[test]
fn traced_margins_are_bit_identical_on_every_in_process_workload() {
    for wl in WORKLOADS
        .iter()
        .filter(|w| !matches!(w.shape, Shape::Serve { .. }))
    {
        let config = || DeviceConfig::new().workers(WORKERS);
        let net = wl.build_net();
        let gen = generate(wl, &net, 4, 1);
        let queries = &gen.queries[..4];

        let plain = inproc::engine(Device::new(config()), &net);
        let want = inproc::run_phase(&plain, &net, wl.shape, queries, false);

        traced::set_enabled(true);
        let engine = inproc::engine(TracedBackend::device(config()), &net);
        let got = inproc::run_phase(&engine, &net, wl.shape, queries, true);
        traced::set_enabled(false);
        let spans = traced::take();

        assert_eq!(want.errors(), 0, "{}: production engine failed", wl.name);
        assert_eq!(want.outcomes, got.outcomes, "{}: margins differ", wl.name);
        assert!(
            spans.iter().any(|s| s.parent != 0 && !s.name.contains('.')),
            "{}: no kernel span was recorded under a harness span",
            wl.name
        );
    }
}

//! A batch of one query has nothing to fuse: `Engine::verify_batch_fused`
//! runs it as the single query it is, so the query's kernels split across
//! the device's workers. Alone in its test binary on purpose: it watches the
//! device's helper thread through `/proc`, by name.
#![cfg(target_os = "linux")]

use gpupoly_core::{Engine, Query, VerifyConfig};
use gpupoly_device::{Device, DeviceConfig};
use gpupoly_nn::builder::NetworkBuilder;
use std::fs;

/// How often the device's one helper thread (`gpupoly-dev-0`) has gone to
/// sleep so far: it parks once per launch it was woken for. `None` before
/// the helper exists.
fn helper_parks() -> Option<u64> {
    let tasks = fs::read_dir("/proc/self/task").unwrap();
    let mut helpers = tasks.filter_map(|task| {
        let status = fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        let field = |name: &str| {
            let line = status.lines().find(|l| l.starts_with(name))?;
            Some(line[name.len()..].trim().to_owned())
        };
        (field("Name:")? == "gpupoly-dev-0")
            .then(|| field("voluntary_ctxt_switches:")?.parse().ok())?
    });
    let parks = helpers.next();
    assert!(helpers.next().is_none(), "one device, one helper");
    parks
}

#[test]
fn a_one_query_batch_still_splits_its_kernels_across_the_workers() {
    let (width, depth) = (48, 4);
    let weight = |i: usize, s: usize| ((i * 37 + s * 11) % 23) as f32 / 23.0 - 0.5;
    let mut b = NetworkBuilder::new_flat(16);
    let mut in_len = 16;
    for layer in 0..depth {
        let w = (0..width * in_len).map(|i| weight(i, layer)).collect();
        b = b.dense_flat(width, w, vec![0.05; width]).relu();
        in_len = width;
    }
    let w = (0..10 * in_len).map(|i| weight(i, 99)).collect();
    let net = b.dense_flat(10, w, vec![0.0; 10]).build().unwrap();

    let device = Device::new(DeviceConfig::new().workers(2));
    let engine = Engine::new(device, &net, VerifyConfig::default()).unwrap();
    let query = |shift: f32| Query::new(vec![0.4 + shift; 16], 3, 0.02);

    // Warm-up: the first kernel that splits spawns the helper.
    for r in engine.verify_batch_fused(&[query(0.0), query(0.1)]) {
        r.unwrap();
    }
    // Run as one stream among others, a query would wake the helper once,
    // for the section, and keep every kernel to one thread. On its own, each
    // of its backsubstitution GEMMs is a launch of its own, some eighty here. A
    // woken helper the scheduler does not run before the launcher is done
    // never parks again, so one quiet batch proves nothing: look at several
    // (a fresh input box each, so none is served from the analysis cache).
    let mut most = 0;
    for attempt in 1..=50 {
        let before = helper_parks().expect("the warm-up spawned the helper");
        let shift = 0.1 + 0.005 * attempt as f32;
        engine.verify_batch_fused(&[query(shift)])[0]
            .as_ref()
            .unwrap();
        most = most.max(helper_parks().unwrap() - before);
        if most >= 8 {
            return;
        }
    }
    panic!("no one-query batch woke the helper more than {most} times");
}

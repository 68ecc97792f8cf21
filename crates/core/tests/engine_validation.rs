//! Input-validation hardening: a query whose dimensions (or values) do not
//! match the prepared network must come back as [`VerifyError::BadQuery`] —
//! never a panic — on every public entry point, including mid-batch and
//! through the compatibility wrapper.

use gpupoly_core::{Engine, GpuPoly, LinearSpec, Query, RefineBudget, VerifyConfig, VerifyError};
use gpupoly_device::Device;
use gpupoly_interval::Itv;
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::Network;

fn net(inputs: usize) -> Network<f32> {
    let mix = |i: usize| ((((i + 7) * 2654435761) % 1001) as f32 / 500.0 - 1.0) * 0.4;
    NetworkBuilder::new_flat(inputs)
        .dense_flat(
            5,
            (0..5 * inputs).map(mix).collect(),
            (0..5).map(mix).collect(),
        )
        .relu()
        .dense_flat(3, (0..15).map(mix).collect(), vec![0.0; 3])
        .build()
        .expect("valid net")
}

fn bad_query(err: Result<impl std::fmt::Debug, VerifyError>) {
    match err {
        Err(VerifyError::BadQuery(_)) => {}
        other => panic!("expected BadQuery, got {other:?}"),
    }
}

#[test]
fn wrong_input_dimension_is_bad_query_on_every_entry_point() {
    let n = net(4);
    let engine = Engine::new(Device::default(), &n, VerifyConfig::default()).unwrap();
    for len in [0usize, 1, 3, 5, 100] {
        let image = vec![0.5f32; len];
        let boxed: Vec<Itv<f32>> = image
            .iter()
            .map(|&x| Itv::new(x - 0.01, x + 0.01))
            .collect();
        bad_query(engine.verify_robustness(&image, 0, 0.01));
        bad_query(engine.analyze(&boxed));
        bad_query(engine.verify_spec(&boxed, &LinearSpec::robustness(0, 3)));
    }
    // The cache must not have been touched by any malformed box.
    assert_eq!(engine.cache_stats(), (0, 0));
}

#[test]
fn wrong_dimension_mid_batch_fails_only_that_query() {
    let n = net(4);
    let engine = Engine::new(Device::default(), &n, VerifyConfig::default()).unwrap();
    let qs = vec![
        Query::new(vec![0.4f32; 4], 0, 0.01),
        Query::new(vec![0.4f32; 3], 0, 0.01), // short
        Query::new(vec![0.4f32; 5], 0, 0.01), // long
        Query::new(vec![0.6f32; 4], 1, 0.01),
    ];
    let out = engine.verify_batch(&qs);
    assert!(out[0].is_ok());
    bad_query(out[1].clone());
    bad_query(out[2].clone());
    assert!(out[3].is_ok());
}

#[test]
fn non_finite_queries_are_bad_queries_not_panics() {
    let n = net(4);
    let engine = Engine::new(Device::default(), &n, VerifyConfig::default()).unwrap();
    bad_query(engine.verify_robustness(&[0.5f32; 4], 0, f32::NAN));
    bad_query(engine.verify_robustness(&[0.5f32; 4], 0, f32::INFINITY));
    bad_query(engine.verify_robustness(&[0.5, f32::NAN, 0.5, 0.5], 0, 0.01));
    bad_query(engine.verify_robustness(&[0.5f32; 4], 0, -0.01));
}

#[test]
fn infinite_pixels_are_bad_queries_on_every_entry_point() {
    // The pixel clamp would otherwise turn +inf into 1.0 and -inf into 0.0
    // and answer for an image nobody sent.
    let n = net(4);
    let engine = Engine::new(Device::default(), &n, VerifyConfig::default()).unwrap();
    for bad in [f32::INFINITY, f32::NEG_INFINITY] {
        let image = [0.5, 0.5, bad, 0.5];
        bad_query(engine.verify_robustness(&image, 0, 0.01));
        // eps = 0 does not make it a point either.
        bad_query(engine.verify_robustness(&image, 0, 0.0));
        let qs = vec![
            Query::new(vec![0.5f32; 4], 0, 0.01),
            Query::new(image.to_vec(), 0, 0.01),
            Query::new(vec![0.5f32; 4], 1, 0.01),
        ];
        for out in [engine.verify_batch(&qs), engine.verify_batch_fused(&qs)] {
            assert!(out[0].is_ok() && out[2].is_ok());
            bad_query(out[1].clone());
        }
        bad_query(engine.verify_complete(&qs[1], &RefineBudget::default()));
        let v = GpuPoly::new(Device::default(), &n, VerifyConfig::default()).unwrap();
        bad_query(v.verify_robustness(&image, 0, 0.01));
    }
    // The finite extremes still get an answer (for the clamped box).
    assert!(engine
        .verify_robustness(&[f32::MAX, f32::MIN, 0.5, 0.5], 0, 0.01)
        .is_ok());
}

#[test]
fn foreign_analysis_is_rejected_by_check_spec_with() {
    let small = net(4);
    let large = net(9);
    let e_small = Engine::new(Device::default(), &small, VerifyConfig::default()).unwrap();
    let e_large = Engine::new(Device::default(), &large, VerifyConfig::default()).unwrap();

    let analysis = e_small
        .analyze(&[Itv::new(0.4f32, 0.6); 4])
        .expect("analysis on the right network");
    // Reusing it against a different network must be a typed error, not an
    // out-of-bounds panic inside the walker.
    bad_query(e_large.check_spec_with(&analysis, &LinearSpec::robustness(0, 3)));
    // On the right engine the same analysis still works.
    assert!(e_small
        .check_spec_with(&analysis, &LinearSpec::robustness(0, 3))
        .is_ok());
}

#[test]
fn compat_wrapper_rejects_the_same_malformed_queries() {
    let n = net(4);
    let v = GpuPoly::new(Device::default(), &n, VerifyConfig::default()).unwrap();
    bad_query(v.verify_robustness(&[0.5f32; 3], 0, 0.01));
    bad_query(v.verify_robustness(&[0.5f32; 4], 0, f32::NAN));
    bad_query(v.analyze(&[Itv::point(0.5f32)]));
    bad_query(v.verify_spec(&[Itv::point(0.5f32); 2], &LinearSpec::robustness(0, 3)));
}

#[test]
fn query_cost_ranks_wider_boxes_and_deeper_work_higher() {
    let n = net(4);
    let engine = Engine::new(Device::default(), &n, VerifyConfig::default()).unwrap();
    let narrow = Query::new(vec![0.5f32; 4], 0, 0.01);
    let wide = Query::new(vec![0.5f32; 4], 0, 0.3);
    assert!(engine.query_cost(&wide) > engine.query_cost(&narrow));
    assert!(engine.query_cost(&narrow) > 0.0);
    // Malformed queries cost nothing (they are rejected before any work).
    assert_eq!(engine.query_cost(&Query::new(vec![0.5f32; 3], 0, 0.1)), 0.0);
    assert_eq!(
        engine.query_cost(&Query::new(vec![0.5f32; 4], 0, f32::NAN)),
        0.0
    );
    // Stats snapshot reflects the prepared schedule.
    let stats = engine.stats();
    assert_eq!(stats.relu_layers, 1);
    assert!(stats.resident_bytes > 0);
}

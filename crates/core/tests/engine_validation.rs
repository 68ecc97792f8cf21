//! Input-validation hardening: a query whose dimensions (or values) do not
//! match the prepared network must come back as [`VerifyError::BadQuery`] —
//! never a panic — on every public entry point, including mid-batch. And
//! what is valid but hostile — a non-finite weight, a coefficient that
//! overflowed — never earns a proof.

use gpupoly_core::{Engine, LinearSpec, Query, RefineBudget, VerifyConfig, VerifyError};
use gpupoly_device::{Device, DeviceConfig};
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
    let out = engine.verify_batch_fused(&qs);
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
        let out = engine.verify_batch_fused(&qs);
        assert!(out[0].is_ok() && out[2].is_ok());
        bad_query(out[1].clone());
        bad_query(engine.verify_complete(&qs[1], &RefineBudget::default()));
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

#[test]
fn non_finite_weights_never_prove_and_never_panic() {
    // Through the plain dense step, a network with a non-finite parameter
    // gets an answer or a typed error, never a panic — and no proof rests on
    // the non-finite value.
    let w = |i: usize| (((i * 131) % 17) as f32 - 8.0) * 0.02;
    let net_with = |bad_bias: f32, bad_weight: f32| {
        NetworkBuilder::new_flat(4)
            .flatten_dense(8, w, move |i| if i % 2 == 0 { bad_bias } else { 0.1 })
            .relu()
            .flatten_dense(
                3,
                move |i| if i == 1 { bad_weight } else { w(i + 5) },
                |_| 0.0,
            )
            .build()
            .expect("net builds")
    };
    let image = [0.4_f32, 0.6, 0.5, 0.3];
    for workers in [1, 2] {
        let device = Device::new(DeviceConfig::new().workers(workers));
        // A `-inf` bias makes its neurons stably dead (their pre-activation
        // bounds collapse to -inf) and nothing past the ReLU non-finite: the
        // query is answered, with the margins of the net without them.
        let dead = net_with(f32::NEG_INFINITY, w(6));
        let engine = Engine::new(device.clone(), &dead, VerifyConfig::default()).unwrap();
        let got = engine.verify_robustness(&image, 0, 0.02).expect("answered");
        let pruned = net_with(-100.0, w(6));
        let engine = Engine::new(device.clone(), &pruned, VerifyConfig::default()).unwrap();
        let want = engine.verify_robustness(&image, 0, 0.02).expect("answered");
        assert_eq!(got.margins, want.margins);
        // The weight from hidden neuron 1 (bias 0.1: not stably off) to
        // output 0. NaN there leaves nothing provable; `+inf` can only help
        // class 0 and `-inf` only hurt it, so the other side has no proof.
        for (bad, unprovable) in [
            (f32::NAN, 0..3),
            (f32::INFINITY, 1..3),
            (f32::NEG_INFINITY, 0..1),
        ] {
            let poisoned = net_with(0.1, bad);
            let engine = Engine::new(device.clone(), &poisoned, VerifyConfig::default()).unwrap();
            for label in unprovable {
                if let Ok(v) = engine.verify_robustness(&image, label, 0.02) {
                    assert!(!v.verified, "label {label} proven through a {bad} weight");
                }
            }
        }
    }
}

#[test]
fn a_non_finite_weight_out_of_a_dead_neuron_is_answered_whatever_its_value() {
    // Hidden neurons with an even index are stably off (bias -100). A NaN or
    // ±inf weight out of one of them reaches nothing through the neuron: its
    // column of the product is an exact zero. The weight is still in its row
    // of the matrix, and the error bound of every output of a row of the
    // product is taken against the largest weight of each matrix row it
    // meets, so the rows that meet that matrix row take the per-step chain in
    // their live columns: a step or two looser than the finite net's, the
    // same for every non-finite value, and never a proof the finite net does
    // not have.
    let w = |i: usize| (((i * 131) % 17) as f32 - 8.0) * 0.02;
    let net_with = |at: usize, weight: f32| {
        NetworkBuilder::new_flat(4)
            .flatten_dense(8, w, |i| if i % 2 == 0 { -100.0 } else { 0.1 })
            .relu()
            .flatten_dense(3, move |i| if i == at { weight } else { w(i + 5) }, |_| 0.0)
            .build()
            .expect("net builds")
    };
    let image = [0.4_f32, 0.6, 0.5, 0.3];
    for workers in [1, 2] {
        let device = Device::new(DeviceConfig::new().workers(workers));
        let answer = |net: &gpupoly_nn::Network<f32>, label: usize| {
            let engine = Engine::new(device.clone(), net, VerifyConfig::default()).unwrap();
            engine
                .verify_robustness(&image, label, 0.02)
                .expect("answered")
        };
        // Weights out of hidden neurons 0 and 2 into output 0, out of 0 into
        // output 1 and out of 6 into output 2.
        for at in [0usize, 2, 8, 22] {
            assert_eq!(at % 2, 0, "a weight out of a dead neuron");
            for label in 0..3 {
                let finite = answer(&net_with(at, w(at + 5)), label);
                let bad: Vec<_> = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
                    .map(|v| answer(&net_with(at, v), label))
                    .into_iter()
                    .collect();
                for v in &bad {
                    assert_eq!(v.verified, bad[0].verified);
                    assert!(
                        !v.verified || finite.verified,
                        "at {at}: a proof from a bad weight"
                    );
                    for ((m, m0), f) in v.margins.iter().zip(&bad[0].margins).zip(&finite.margins) {
                        assert_eq!(
                            m.lower.to_bits(),
                            m0.lower.to_bits(),
                            "at {at}: value leaked"
                        );
                        assert!(
                            m.lower <= f.lower && f.lower - m.lower <= 8.0 * f32::EPSILON,
                            "at {at}, label {label}: {} against the finite net's {}",
                            m.lower,
                            f.lower
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn zero_relaxation_annihilates_non_finite_coefficients() {
    // A stably-dead neuron's zero relaxation maps *any* coefficient —
    // including ±inf from upstream blowup — to an exact-zero interval (the
    // directed-rounding multiply special-cases zero operands), so what a
    // walk carries past a dead ReLU is exactly `[0, 0]`: an overflowed row
    // cannot leak a NaN through a neuron that is off.
    use gpupoly_core::expr::ExprBatch;
    use gpupoly_core::{steps, ReluRelax};
    use gpupoly_nn::Shape;

    let device = Device::default();
    let shape = Shape::flat(3);
    let mut batch =
        ExprBatch::<f32, _>::zeroed(&device, 2, shape, (1, 1), vec![(0, 0), (0, 0), (0, 0)])
            .unwrap();
    // Rows carry pathological coefficients on their own neuron. (NaN
    // bounds are unconstructible — `Itv::new` debug-asserts them away —
    // so overflow to ±inf is the worst a blown-up walk can feed in.)
    batch.set_coeff(0, 0, Itv::new(f32::INFINITY, f32::INFINITY));
    batch.set_coeff(1, 0, Itv::new(f32::NEG_INFINITY, f32::INFINITY));
    batch.set_coeff(2, 0, Itv::new(f32::MAX, f32::INFINITY));
    // Every neuron stably dead: zero relaxation, zero output bounds.
    let in_bounds = [Itv::new(-2.0_f32, -1.0); 3];
    let relax = ReluRelax::layer(&in_bounds);
    assert!(relax.iter().all(ReluRelax::is_zero));
    let out_bounds = [Itv::new(0.0_f32, 0.0); 3];
    let out = steps::step_relu(&device, batch, &relax, &out_bounds, 1);
    let bounds = [Itv::new(0.0_f32, 1.0); 3];
    let cand = out.concretize(&device, &bounds);
    for (r, c) in cand.iter().enumerate() {
        assert_eq!(
            (c.lo.to_bits(), c.hi.to_bits()),
            (0.0_f32.to_bits(), 0.0_f32.to_bits()),
            "row {r}: dead column must be exactly zero, got {c}"
        );
    }
}

//! Cross-backend differential verification over the model zoo.
//!
//! The `Backend` trait's bit-reproducibility contract (see
//! `gpupoly-device`'s `backend` module) claims that the tiled, parallel,
//! pooled `CpuSimBackend` and the straight-line, serial, pool-less
//! `ReferenceBackend` compute **bit-identical** certified margins. This
//! test enforces that end to end through `Engine::verify_batch_fused` on
//! the zoo architecture/dataset combinations of the paper's Table 1, and
//! checks the margins against ground truth two ways:
//!
//! * **interval containment**: certified margins lower-bound the concrete
//!   margin of every sampled attack inside the input box;
//! * **baseline partial order**: margins are at least those of the sparse
//!   CPU DeepPoly baseline (`gpupoly::baselines::DeepPolyCpu`: same
//!   relaxation, same schedule, outward rounding after every operation
//!   where the engine's GEMM rounds once per output) and within 5 % of them.
//!
//! Query radii are calibrated per family: the shallow families run a
//! realistic ε (lots of unstable-ReLU refinement, compaction, pooling
//! churn), while the deep residual nets run a near-point ε — their 18–34
//! layer spec walk still exercises every backsubstitution kernel (GBC,
//! residual split/merge, dense GEMM) differentially, without the
//! debug-build cost of refining thousands of untrained unstable ReLUs.
//!
//! Every test sweeps two architectures per family ([`Sweep::Tier1`]: the
//! dense net on both datasets, two conv nets, two deep residual nets) so
//! that the file fits tier-1's budget; its `_whole_zoo` twin sweeps all
//! eleven builds and is `#[ignore]`d — the CI leg that runs the ignored
//! tests of this file picks it up.

use std::collections::HashSet;

use gpupoly::baselines::DeepPolyCpu;
use gpupoly::core::{Engine, EngineOptions, Plan, Query, TieredEngine, VerifyConfig};
use gpupoly::device::{Device, DeviceConfig};
use gpupoly::nn::zoo::{self, ArchId, Dataset};
use gpupoly::nn::Network;

/// One deterministic image per network, biased into the pixel domain.
fn test_image(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64 + 1).wrapping_mul(seed.wrapping_mul(2654435761) | 1);
            0.15 + 0.7 * ((h >> 17) % 1000) as f32 / 1000.0
        })
        .collect()
}

/// Scales every affine weight by `factor`. Untrained He-init weights
/// amplify interval widths by ~4× per layer, which makes *every* deep ReLU
/// unstable and blows the debug-build refinement cost of the 18–34 layer
/// residual nets through the roof; damping stands in for the stabilization
/// that robust training provides on real checkpoints (see
/// `zoo_training_e2e.rs` for the trained regime split). The kernel walk —
/// what this differential test pins — is identical either way.
fn damp(net: &mut Network<f32>, factor: f32) {
    use gpupoly::nn::{Block, Layer};
    let scale = |layers: &mut [Layer<f32>]| {
        for layer in layers {
            match layer {
                Layer::Dense(d) => d.weight.iter_mut().for_each(|w| *w *= factor),
                Layer::Conv(c) => c.weight.iter_mut().for_each(|w| *w *= factor),
                Layer::Relu => {}
            }
        }
    };
    for block in net.blocks_mut() {
        match block {
            Block::Single(layer) => scale(std::slice::from_mut(layer)),
            Block::Residual { a, b } => {
                scale(a);
                scale(b);
            }
        }
    }
}

/// How much of the zoo a test sweeps.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Sweep {
    /// Two architectures per family: the ones in [`TIER1`].
    Tier1,
    /// Every unique build of Table 1.
    Zoo,
}

/// The tier-1 builds: per family the two that are cheapest unoptimized. What
/// they leave to the whole-zoo twins is `ConvLarge`, the conv nets on
/// three-channel input, `ResNetTiny` (the one residual net at a radius that
/// refines) and the 34-layer walk.
const TIER1: [(ArchId, Dataset); 6] = [
    (ArchId::Fc6x500, Dataset::MnistLike),
    (ArchId::Fc6x500, Dataset::Cifar10Like),
    (ArchId::ConvBig, Dataset::MnistLike),
    (ArchId::ConvSuper, Dataset::MnistLike),
    (ArchId::ResNet18, Dataset::Cifar10Like),
    (ArchId::SkipNet18, Dataset::Cifar10Like),
];

/// The unique (architecture, dataset) pairs of Table 1 that `sweep` covers.
/// Training regimes reuse the same untrained build, so verifying each build
/// once covers every zoo network without redundant work.
fn zoo_builds(sweep: Sweep) -> Vec<(ArchId, Dataset, Network<f32>)> {
    let mut seen = HashSet::new();
    zoo::table1_specs()
        .into_iter()
        .filter(|s| seen.insert((s.arch, s.dataset)))
        .filter(|s| sweep == Sweep::Zoo || TIER1.contains(&(s.arch, s.dataset)))
        .map(|s| {
            let mut net = zoo::build_arch(s.arch, s.dataset, 0.04, 1).expect("arch builds");
            if matches!(
                s.arch,
                ArchId::ResNet18 | ArchId::SkipNet18 | ArchId::ResNet34
            ) {
                damp(&mut net, 0.1);
            }
            (s.arch, s.dataset, net)
        })
        .collect()
}

/// Per-family query radius (see module docs).
fn family_eps(arch: ArchId) -> f32 {
    match arch {
        ArchId::ResNetTiny => 5e-4,
        a if a.is_residual() => 1e-4,
        ArchId::ConvLarge => 5e-4,
        _ => 2e-3,
    }
}

fn queries(net: &Network<f32>, input_len: usize, eps: f32, n: usize) -> Vec<Query<f32>> {
    (0..n as u64)
        .map(|q| {
            let image = test_image(input_len, 7 + q);
            let label = net.classify(&image);
            Query::new(image, label, eps)
        })
        .collect()
}

fn margins_across_backends(sweep: Sweep) {
    for (arch, dataset, net) in zoo_builds(sweep) {
        let id = format!("{}/{}", arch.name(), dataset.name());
        let eps = family_eps(arch);
        let n_queries = if arch.is_residual() { 1 } else { 2 };
        let qs = queries(&net, dataset.input_shape().len(), eps, n_queries);

        let cpusim = Engine::new(
            Device::new(DeviceConfig::new().workers(2)),
            &net,
            VerifyConfig::default(),
        )
        .expect("cpusim engine");
        let reference = Engine::new(
            Device::reference(DeviceConfig::new().workers(1)),
            &net,
            VerifyConfig::default(),
        )
        .expect("reference engine");

        let got_cpu = cpusim.verify_batch_fused(&qs);
        let got_ref = reference.verify_batch_fused(&qs);
        for (q, (c, r)) in qs.iter().zip(got_cpu.iter().zip(&got_ref)) {
            let c = c.as_ref().expect("cpusim query");
            let r = r.as_ref().expect("reference query");
            assert_eq!(c.verified, r.verified, "{id}: verdict drifted");
            assert_eq!(c.margins.len(), r.margins.len(), "{id}");
            for (mc, mr) in c.margins.iter().zip(&r.margins) {
                assert_eq!(mc.adversary, mr.adversary, "{id}");
                assert_eq!(mc.proven, mr.proven, "{id}");
                assert_eq!(
                    mc.lower.to_bits(),
                    mr.lower.to_bits(),
                    "{id}: margin vs class {} drifted across backends ({} vs {})",
                    mc.adversary,
                    mc.lower,
                    mr.lower
                );
            }

            // Interval containment: every certified margin lower-bounds the
            // concrete margin at sampled points of the L∞ box.
            for s in 0..3 {
                let x: Vec<f32> = q
                    .image
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let t = ((i + s * 31) % 3) as f32 - 1.0; // -1, 0, 1 pattern
                        (v + eps * t).clamp(0.0, 1.0)
                    })
                    .collect();
                let y = net.infer(&x);
                for m in &c.margins {
                    let concrete = y[q.label] - y[m.adversary];
                    assert!(
                        m.lower <= concrete + 1e-5,
                        "{id}: certified {} exceeds concrete margin {} vs class {}",
                        m.lower,
                        concrete,
                        m.adversary
                    );
                }
            }
        }
    }
}

#[test]
fn zoo_margins_bit_identical_across_backends_and_sound() {
    margins_across_backends(Sweep::Tier1);
}

#[test]
#[ignore = "the whole zoo: minutes in a debug build"]
fn zoo_margins_bit_identical_across_backends_and_sound_whole_zoo() {
    margins_across_backends(Sweep::Zoo);
}

/// Cross-query fusion over the zoo: for every Table-1 build and both
/// backends, `verify_batch_fused` must return margins **bit-identical** to
/// the sequential per-query path, while issuing strictly fewer device
/// launches — and on the GEMM kernel specifically, about 1/K of them (the
/// fused walk shares each step's launch across all K queries; early
/// termination lets some queries stop sooner, so the bound asserted is
/// fused ≤ seq/2 for K ≥ 2).
fn fused_margins_and_launches(sweep: Sweep) {
    for (arch, dataset, net) in zoo_builds(sweep) {
        let id = format!("{}/{}", arch.name(), dataset.name());
        let eps = family_eps(arch);
        let k = if arch.is_residual() { 2 } else { 3 };
        let qs = queries(&net, dataset.input_shape().len(), eps, k);

        for reference in [false, true] {
            // Sequential per-query loop and fused batch, each on a fresh
            // device of the selected backend, counting launches.
            let (seq_margins, seq_gemm, seq_launches) = if reference {
                count_sequential(Device::reference(DeviceConfig::new().workers(1)), &net, &qs)
            } else {
                count_sequential(Device::new(DeviceConfig::new().workers(2)), &net, &qs)
            };
            let (fused_margins, fused_gemm, fused_launches) = if reference {
                count_fused(Device::reference(DeviceConfig::new().workers(1)), &net, &qs)
            } else {
                count_fused(Device::new(DeviceConfig::new().workers(2)), &net, &qs)
            };
            let tag = format!("{id} ({})", if reference { "reference" } else { "cpusim" });
            assert_eq!(
                fused_margins, seq_margins,
                "{tag}: fused margins drifted from sequential"
            );
            assert!(
                fused_launches < seq_launches,
                "{tag}: fused must issue fewer launches ({fused_launches} vs {seq_launches})"
            );
            // The fused walk shares each step's GEMM across queries, so its
            // launch count is the *longest* single query's walk, not the
            // sum: never more than sequential, and strictly fewer whenever
            // the queries overlap in depth. (The exact ~1/K collapse on
            // homogeneous batches is pinned by
            // `crates/core/tests/engine_fusion.rs`; all-conv walks may
            // never reach the dense GEMM kernel at all.)
            assert!(
                fused_gemm <= seq_gemm,
                "{tag}: fused GEMM launches exceed sequential \
                 ({fused_gemm} vs {seq_gemm})"
            );
        }
    }
}

#[test]
fn zoo_fused_margins_bit_identical_and_launches_collapse() {
    fused_margins_and_launches(Sweep::Tier1);
}

#[test]
#[ignore = "the whole zoo: minutes in a debug build"]
fn zoo_fused_margins_bit_identical_and_launches_collapse_whole_zoo() {
    fused_margins_and_launches(Sweep::Zoo);
}

/// Tensor-parallel row sharding over the zoo: for every Table-1 build,
/// The pool plans that differ from a plain engine, by the names the serving
/// flags give them.
const ROWS: Plan = Plan {
    split_rows: true,
    shard_weights: false,
};
const WEIGHTS: Plan = Plan {
    split_rows: false,
    shard_weights: true,
};
const HYBRID: Plan = Plan {
    split_rows: true,
    shard_weights: true,
};

/// One row of the plan table: for every Table-1 build and both backends, an
/// engine on a pool placed by `plan` at each pool size of `pool_sizes`
/// returns margins **bit-identical** to the single-device fused path. Row
/// sharding is pure scheduling — walks dealt over the pool's stream slots
/// keep each expression row's ascending-k accumulation exactly — and weight
/// gathering reconstructs each remote layer byte-for-byte on the walking
/// device, so neither axis of the split may show up in a margin, however
/// the pool is cut — while every walking device's rows, the per-device
/// resident split and the gathered `comms` bytes must show up in the
/// meters.
fn zoo_plan_row(sweep: Sweep, plan: Plan, pool_sizes: &[usize]) {
    zoo_plan_case("cpusim", &|cfg| Device::new(cfg), sweep, plan, pool_sizes);
    zoo_plan_case(
        "reference",
        &|cfg| Device::reference(cfg),
        sweep,
        plan,
        pool_sizes,
    );
}

fn zoo_plan_case<B: gpupoly::device::Backend>(
    tag: &str,
    make: &dyn Fn(DeviceConfig) -> Device<B>,
    sweep: Sweep,
    plan: Plan,
    pool_sizes: &[usize],
) {
    // Gathered bytes across the whole zoo sweep, summed over every pool
    // device: individual archs may prove their margins before any row
    // block descends to a remote shard (early termination is exactly the
    // point), but a zoo-wide sweep at N > 1 must gather *somewhere* or the
    // comms meter is broken.
    let mut total_comms: u64 = 0;
    for (arch, dataset, net) in zoo_builds(sweep) {
        let id = format!("{}/{} ({tag}, {plan:?})", arch.name(), dataset.name());
        let eps = family_eps(arch);
        let mut qs = queries(&net, dataset.input_shape().len(), eps, 2);
        if arch.is_residual() {
            // One analysis of a deep net is all the debug build affords: the
            // same box twice is still two queries' rows to split.
            qs[1] = qs[0].clone();
        }

        let single = Engine::new(
            make(DeviceConfig::new().workers(1)),
            &net,
            VerifyConfig::default(),
        )
        .expect("single engine");
        let want = single.verify_batch_fused(&qs);

        for &n in pool_sizes {
            let devices: Vec<_> = (0..n)
                .map(|i| make(DeviceConfig::new().workers(1).name(format!("d{i}"))))
                .collect();
            let handles = devices.clone();
            let sharded = Engine::on_pool(
                devices,
                plan,
                &net,
                VerifyConfig::default(),
                EngineOptions::default(),
            )
            .expect("sharded engine");
            let got = sharded.verify_batch_fused(&qs);
            assert_eq!(got.len(), want.len(), "{id}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let g = g.as_ref().expect("sharded verdict");
                let w = w.as_ref().expect("fused verdict");
                assert_eq!(g.verified, w.verified, "{id}: query {i}, {n} devices");
                assert_eq!(g.margins.len(), w.margins.len(), "{id}");
                for (mg, mw) in g.margins.iter().zip(&w.margins) {
                    assert_eq!(mg.adversary, mw.adversary, "{id}");
                    assert_eq!(mg.proven, mw.proven, "{id}: query {i}, {n} devices");
                    assert_eq!(
                        mg.lower.to_bits(),
                        mw.lower.to_bits(),
                        "{id}: query {i} margin vs class {} drifted at {n} devices \
                         ({} vs {})",
                        mg.adversary,
                        mg.lower,
                        mw.lower
                    );
                }
            }
            if n > 1 && plan.split_rows {
                // The fused walk's flops land on every device, not just
                // device 0.
                for (d, handle) in handles.iter().enumerate() {
                    assert!(
                        handle.stats().flops() > 0,
                        "{id}: device {d} of {n} walked no rows"
                    );
                }
            }
            if n > 1 && plan.shard_weights {
                // The memory win is unconditional: no device holds the
                // full model. Gathered bytes land on the walking device
                // under the `comms` label whenever its walk reaches a
                // remote shard.
                let bytes: Vec<u64> = handles.iter().map(|h| h.stats().resident_bytes()).collect();
                let full: u64 = bytes.iter().sum();
                let worst = bytes.iter().copied().max().expect("non-empty plan");
                assert!(
                    worst < full,
                    "{id}: worst device still holds the full model at {n} devices"
                );
                for handle in &handles {
                    total_comms += handle.stats().kernel_work("comms").bytes_moved;
                }
            }
        }
    }
    if plan.shard_weights && pool_sizes.iter().any(|&n| n > 1) {
        assert!(
            total_comms > 0,
            "({tag}, {plan:?}) zoo sweep gathered nothing: comms meter is broken"
        );
    }
}

// Tier-1 runs the column where a pool first differs from an engine: two
// devices. One device under the default plan is the engine the reference
// run uses (`engine_sharded.rs::pool_of_one_is_the_engine` pins it); that
// column and the 4-device one wait, like the whole zoo at two devices, for
// the CI leg that runs this file's ignored tests.

#[test]
fn zoo_sharded_margins_bit_identical_across_device_counts() {
    zoo_plan_row(Sweep::Tier1, ROWS, &[2]);
}

#[test]
fn zoo_weight_sharded_margins_bit_identical_across_device_counts() {
    zoo_plan_row(Sweep::Tier1, WEIGHTS, &[2]);
}

#[test]
fn zoo_hybrid_sharded_margins_bit_identical_across_device_counts() {
    zoo_plan_row(Sweep::Tier1, HYBRID, &[2]);
}

#[test]
#[ignore = "the whole zoo: minutes in a debug build"]
fn zoo_sharded_margins_bit_identical_across_device_counts_whole_zoo() {
    zoo_plan_row(Sweep::Zoo, ROWS, &[2]);
}

#[test]
#[ignore = "the whole zoo: minutes in a debug build"]
fn zoo_weight_sharded_margins_bit_identical_across_device_counts_whole_zoo() {
    zoo_plan_row(Sweep::Zoo, WEIGHTS, &[2]);
}

#[test]
#[ignore = "the whole zoo: minutes in a debug build"]
fn zoo_hybrid_sharded_margins_bit_identical_across_device_counts_whole_zoo() {
    zoo_plan_row(Sweep::Zoo, HYBRID, &[2]);
}

#[test]
#[ignore = "1- and 4-device pools over the whole zoo: minutes in a debug build"]
fn zoo_plans_bit_identical_at_one_and_four_devices() {
    for plan in [ROWS, WEIGHTS, HYBRID] {
        zoo_plan_row(Sweep::Zoo, plan, &[1, 4]);
    }
}

fn count_sequential<B: gpupoly::device::Backend>(
    device: Device<B>,
    net: &Network<f32>,
    qs: &[Query<f32>],
) -> (Vec<Vec<u32>>, u64, u64) {
    let engine = Engine::new(device.clone(), net, VerifyConfig::default()).expect("engine");
    let gemm0 = device.stats().kernel_launches("gemm_itv_f");
    let launches0 = device.stats().launches();
    let margins = qs
        .iter()
        .map(|q| {
            engine
                .verify_robustness(&q.image, q.label, q.eps)
                .expect("sequential query")
                .margins
                .iter()
                .map(|m| m.lower.to_bits())
                .collect()
        })
        .collect();
    (
        margins,
        device.stats().kernel_launches("gemm_itv_f") - gemm0,
        device.stats().launches() - launches0,
    )
}

fn count_fused<B: gpupoly::device::Backend>(
    device: Device<B>,
    net: &Network<f32>,
    qs: &[Query<f32>],
) -> (Vec<Vec<u32>>, u64, u64) {
    let engine = Engine::new(device.clone(), net, VerifyConfig::default()).expect("engine");
    let gemm0 = device.stats().kernel_launches("gemm_itv_f");
    let launches0 = device.stats().launches();
    let margins = engine
        .verify_batch_fused(qs)
        .into_iter()
        .map(|r| {
            r.expect("fused query")
                .margins
                .iter()
                .map(|m| m.lower.to_bits())
                .collect()
        })
        .collect();
    assert_eq!(
        engine.stats().fused_batches,
        1,
        "zoo batch must not fall back to per-query dispatch"
    );
    (
        margins,
        device.stats().kernel_launches("gemm_itv_f") - gemm0,
        device.stats().launches() - launches0,
    )
}

/// Precision-tiered verification over the zoo: on both backends, the
/// tiered engine's verdicts must agree with an all-`f64` engine on every
/// Table-1 build — fast-resolved queries are never flips the `f64` walk
/// would have caught (escalation is monotone), and across the whole zoo
/// the `f32` fast pass must resolve at least one query outright (the tier
/// actually earns its keep on realistic workloads).
fn tiered_vs_all_f64(sweep: Sweep) {
    let mut fast_resolved_total = 0u64;
    for (arch, dataset, net) in zoo_builds(sweep) {
        let id = format!("{}/{}", arch.name(), dataset.name());
        let eps = family_eps(arch);
        let n_queries = if arch.is_residual() { 1 } else { 2 };
        let qs = queries(&net, dataset.input_shape().len(), eps, n_queries);
        let wide = net.widen();
        let wide_qs: Vec<Query<f64>> = qs
            .iter()
            .map(|q| {
                Query::new(
                    q.image.iter().map(|&x| x as f64).collect::<Vec<f64>>(),
                    q.label,
                    q.eps as f64,
                )
            })
            .collect();

        fast_resolved_total += check_tiered_parity(
            &format!("{id} (cpusim)"),
            Device::new(DeviceConfig::new().workers(2)),
            Device::new(DeviceConfig::new().workers(2)),
            &net,
            &wide,
            &qs,
            &wide_qs,
        );
        fast_resolved_total += check_tiered_parity(
            &format!("{id} (reference)"),
            Device::reference(DeviceConfig::new().workers(1)),
            Device::reference(DeviceConfig::new().workers(1)),
            &net,
            &wide,
            &qs,
            &wide_qs,
        );
    }
    assert!(
        fast_resolved_total > 0,
        "the f32 fast pass resolved nothing across the whole zoo"
    );
}

#[test]
fn zoo_tiered_verdicts_agree_with_all_f64() {
    tiered_vs_all_f64(Sweep::Tier1);
}

#[test]
#[ignore = "the whole zoo: minutes in a debug build"]
fn zoo_tiered_verdicts_agree_with_all_f64_whole_zoo() {
    tiered_vs_all_f64(Sweep::Zoo);
}

/// Runs one tiered-vs-all-`f64` comparison and returns how many queries
/// the fast tier resolved.
#[allow(clippy::too_many_arguments)]
fn check_tiered_parity<B: gpupoly::device::Backend>(
    tag: &str,
    tiered_device: Device<B>,
    baseline_device: Device<B>,
    net: &Network<f32>,
    wide: &Network<f64>,
    qs: &[Query<f32>],
    wide_qs: &[Query<f64>],
) -> u64 {
    let tiered = TieredEngine::new(tiered_device, net, wide, VerifyConfig::default())
        .expect("tiered engine");
    let baseline = Engine::new(baseline_device, wide, VerifyConfig::default()).expect("f64 engine");
    let got = tiered.verify_batch_f64(qs);
    let want = baseline.verify_batch_fused(wide_qs);
    for (g, w) in got.iter().zip(&want) {
        let g = g.as_ref().expect("tiered query");
        let w = w.as_ref().expect("baseline query");
        assert_eq!(g.verified, w.verified, "{tag}: tiered verdict flipped");
        assert_eq!(g.margins.len(), w.margins.len(), "{tag}");
        for (gm, wm) in g.margins.iter().zip(&w.margins) {
            assert_eq!(gm.adversary, wm.adversary, "{tag}");
            assert_eq!(gm.proven, wm.proven, "{tag}: proven flag flipped");
        }
    }
    let stats = tiered.stats();
    assert_eq!(
        stats.fast_pass_resolved + stats.escalated,
        qs.len() as u64,
        "{tag}: every query attributed to exactly one tier"
    );
    stats.fast_pass_resolved
}

/// Branch-and-bound refinement over the zoo: for every Table-1 build, the
/// complete tier must classify each query **identically** on both backends
/// — same outcome class and the same number of bisections spent. The
/// frontier walk is driven entirely by certified margins, so the backends'
/// bit-reproducibility contract extends transitively to split decisions.
/// Three more properties ride along:
///
/// * the complete verdict never contradicts plain `verify` (a base-proven
///   query comes back `Proven { base: Some(_), splits: 0 }`);
/// * every `Falsified` carries a concrete counterexample that this test
///   re-verifies *independently* through interval evaluation at a point
///   box — refutation is never taken on the relaxation's word;
/// * across the whole zoo, at least one base-`Unknown` query is converted
///   (here a wrong-label query, whose center is a real misclassification
///   the refinement must surface as a verified counterexample).
fn complete_verdicts(sweep: Sweep) {
    use gpupoly::core::{CompleteVerdict, RefineBudget};
    use gpupoly::interval::Itv;

    let mut converted_total = 0u64;
    for (arch, dataset, net) in zoo_builds(sweep) {
        let id = format!("{}/{}", arch.name(), dataset.name());
        let eps = family_eps(arch);
        // Debug-build budget: the residual walks pay 18–34 layers per leaf
        // analysis, so they get one bisection; the shallow families get a
        // real (if small) frontier.
        let budget = RefineBudget::with_max_splits(if arch.is_residual() { 1 } else { 4 });

        // One honest query plus one wrong-label query. The wrong label is
        // base-Unknown by construction — the center itself misclassifies —
        // and must be refuted, not proven, no matter how loose the bounds.
        let image = test_image(dataset.input_shape().len(), 7);
        let label = net.classify(&image);
        let wrong = (label + 1) % net.infer(&image).len();
        let qs = vec![
            Query::new(image.clone(), label, eps),
            Query::new(image.clone(), wrong, eps),
        ];

        let cpusim = Engine::new(
            Device::new(DeviceConfig::new().workers(2)),
            &net,
            VerifyConfig::default(),
        )
        .expect("cpusim engine");
        let reference = Engine::new(
            Device::reference(DeviceConfig::new().workers(1)),
            &net,
            VerifyConfig::default(),
        )
        .expect("reference engine");

        let plain = cpusim.verify_batch_fused(&qs);
        let got_cpu = cpusim.verify_complete_batch(&qs, &budget);
        let got_ref = reference.verify_complete_batch(&qs, &budget);
        for (qi, (q, (c, r))) in qs.iter().zip(got_cpu.iter().zip(&got_ref)).enumerate() {
            let c = c.as_ref().expect("cpusim complete query");
            let r = r.as_ref().expect("reference complete query");
            assert_eq!(
                std::mem::discriminant(c),
                std::mem::discriminant(r),
                "{id}: complete outcome drifted across backends ({c:?} vs {r:?})"
            );
            assert_eq!(
                c.splits(),
                r.splits(),
                "{id}: split count drifted across backends"
            );

            // Complete never contradicts plain: base-proven queries pass
            // through undisturbed.
            if plain[qi].as_ref().expect("plain query").verified {
                assert!(
                    matches!(
                        c,
                        CompleteVerdict::Proven {
                            base: Some(_),
                            splits: 0
                        }
                    ),
                    "{id}: plain-proven query not passed through ({c:?})"
                );
            }

            match c {
                CompleteVerdict::Falsified {
                    counterexample,
                    adversary,
                    ..
                } => {
                    // Independent re-verification: the counterexample must
                    // lie in the clamped ball and provably misclassify
                    // under interval evaluation at a point box.
                    assert_eq!(counterexample.len(), q.image.len(), "{id}");
                    for (&cx, &xi) in counterexample.iter().zip(&q.image) {
                        assert!(
                            cx >= (xi - eps).clamp(0.0, 1.0) && cx <= (xi + eps).clamp(0.0, 1.0),
                            "{id}: counterexample leaves the clamped ball"
                        );
                    }
                    let cx_box: Vec<Itv<f32>> =
                        counterexample.iter().map(|&v| Itv::point(v)).collect();
                    let bounds = net.graph().eval_itv(&cx_box);
                    let outs = &bounds[net.graph().output()];
                    assert!(
                        outs[q.label].sub(outs[*adversary]).hi < 0.0,
                        "{id}: counterexample does not provably misclassify"
                    );
                    converted_total += 1;
                }
                CompleteVerdict::Proven { base: None, .. } => converted_total += 1,
                _ => {}
            }
        }

        // The wrong-label query specifically can never come back Proven —
        // its center is a real misclassification.
        assert!(
            !got_cpu[1].as_ref().expect("wrong-label query").is_proven(),
            "{id}: proved a query whose center misclassifies"
        );
    }
    assert!(
        converted_total > 0,
        "the refinement tier converted no base-Unknown query across the whole zoo"
    );
}

#[test]
fn zoo_complete_verdicts_identical_across_backends_and_convert() {
    complete_verdicts(Sweep::Tier1);
}

#[test]
#[ignore = "the whole zoo: minutes in a debug build"]
fn zoo_complete_verdicts_identical_across_backends_and_convert_whole_zoo() {
    complete_verdicts(Sweep::Zoo);
}

fn cpu_deeppoly_baseline(sweep: Sweep) {
    // Partial order against the sparse CPU DeepPoly baseline on the MNIST
    // non-residual families. Both compute the same relaxation, but the
    // baseline rounds outward after every multiply and every add while the
    // engine's dense layers accumulate exact products in f64 and round once
    // per output (the `gpupoly_device::backend` contract), so the engine's
    // margins are the tighter ones: never below the baseline's beyond a few
    // ulps of schedule noise, and — same abstraction — never far above, with
    // the f64 engine's margin as the hard ceiling.
    // The baseline's sparse representation is the paper's slow-by-design
    // comparison point, so the larger CIFAR builds and the residual walk
    // are out of budget here; residual-walk precision parity is covered by
    // `precision_parity.rs` on smaller nets. Full backsubstitution on both
    // sides so the schedules are identical.
    let cfg = VerifyConfig {
        early_termination: false,
        ..Default::default()
    };
    for (arch, dataset, net) in zoo_builds(sweep) {
        if arch.is_residual() || dataset != Dataset::MnistLike || arch == ArchId::ConvLarge {
            continue;
        }
        let id = format!("{}/{}", arch.name(), dataset.name());
        let eps = 1e-3f32;
        let image = test_image(dataset.input_shape().len(), 13);
        let label = net.classify(&image);

        let engine =
            Engine::new(Device::new(DeviceConfig::new().workers(2)), &net, cfg).expect("engine");
        let gp = engine
            .verify_robustness(&image, label, eps)
            .expect("gpupoly query");
        let dp = DeepPolyCpu::new(&net).verify_robustness(&image, label, eps);
        // The same query on the f64 engine: per-step rounding at 2⁻⁵³ is as
        // good as exact here, so an f32 margin above it would be a
        // soundness bug in the f32 kernels, not a precision win.
        let wide_image: Vec<f64> = image.iter().map(|&x| x as f64).collect();
        let ceiling = Engine::new(
            Device::new(DeviceConfig::new().workers(2)),
            &net.widen(),
            cfg,
        )
        .expect("f64 engine")
        .verify_robustness(&wide_image, label, eps as f64)
        .expect("f64 query");

        assert!(
            gp.verified || !dp.verified,
            "{id}: CPU DeepPoly proved what the engine could not"
        );
        assert_eq!(gp.margins.len(), dp.margins.len(), "{id}");
        for ((m, d), top) in gp.margins.iter().zip(&dp.margins).zip(&ceiling.margins) {
            let scale = 1.0 + d.abs();
            assert!(
                m.lower as f64 <= top.lower,
                "{id}: f32 margin {} above the f64 engine's {}",
                m.lower,
                top.lower
            );
            assert!(
                m.lower >= d - 8.0 * f32::EPSILON * scale,
                "{id}: gpupoly margin {} below the per-step baseline's {d}",
                m.lower
            );
            assert!(
                m.lower - d <= 0.05 * scale,
                "{id}: gpupoly margin {} implausibly far above the baseline's {d}",
                m.lower
            );
        }
    }
}

#[test]
fn zoo_margins_match_cpu_deeppoly_baseline() {
    cpu_deeppoly_baseline(Sweep::Tier1);
}

#[test]
#[ignore = "the whole zoo: minutes in a debug build"]
fn zoo_margins_match_cpu_deeppoly_baseline_whole_zoo() {
    cpu_deeppoly_baseline(Sweep::Zoo);
}

//! Every node's bounds and round-off against the eager schedule.
//!
//! An analysis computes each node's bounds once, when its parents' bounds
//! are final, and notes its round-off from those bounds. The schedule this
//! replaced seeded every node with a forward interval pass (`Graph::eval_itv`)
//! and, after each refined ReLU input, intersected a forward pass over
//! everything downstream with the bounds as they stood; a node's round-off
//! was noted before the first walk that needed it, over the bounds as they
//! stood then, and at the end for the rest. The two agree because the
//! interval forward is inclusion-monotone — a property of rounded
//! arithmetic, so this suite checks it rather than trusting it: it rebuilds
//! the eager chain as an oracle, taking each refined node's walk results
//! from the analysis under test, and requires every bit of every node's
//! bounds and round-off, and the row counters, to match. The zoo networks
//! run at small scales in `f32` and `f64` with inference error accounted
//! and not, and one net carries a non-finite weight out of a dead neuron.

use gpupoly_core::{Analysis, AnalysisStats, Engine, VerifyConfig};
use gpupoly_device::{Device, DeviceConfig};
use gpupoly_interval::{round, Fp, Itv};
use gpupoly_nn::builder::NetworkBuilder;
use gpupoly_nn::zoo::{build_arch, ArchId, Dataset};
use gpupoly_nn::{relu_forward_itv, Block, Graph, Layer, Network, NodeId, Op};

/// The eager schedule's bounds, round-off and row counters for `input`,
/// with every refined row's walk result read off `analysis`.
fn eager<F: Fp>(
    graph: &Graph<'_, F>,
    cfg: &VerifyConfig,
    input: &[Itv<F>],
    analysis: &Analysis<F>,
) -> Analysis<F> {
    let n = graph.nodes.len();
    let mut bounds = graph.eval_itv(input);
    let mut round_off: Vec<Option<Vec<F>>> = vec![None; n];
    let mut stats = AnalysisStats::default();
    let plan = graph
        .nodes
        .iter()
        .filter(|node| matches!(node.op, Op::Relu) && node.parents[0] != 0)
        .map(|node| node.parents[0]);
    for p in plan {
        let sel: Vec<usize> = (0..bounds[p].len())
            .filter(|&i| !cfg.early_termination || bounds[p][i].straddles_zero())
            .collect();
        stats.rows_skipped_stable += bounds[p].len() - sel.len();
        stats.rows_refined += sel.len();
        if sel.is_empty() {
            continue;
        }
        note_round_off(graph, cfg, &bounds, &mut round_off, p);
        // The walks found at most the analysis's bounds: intersect them in,
        // as the walks' results were.
        for i in sel {
            let (cur, best) = (bounds[p][i], analysis.bounds[p][i]);
            bounds[p][i] = cur.intersect(best).unwrap_or(cur);
        }
        for i in p + 1..n {
            let fresh = forward(graph, &bounds, i);
            for (cur, new) in bounds[i].iter_mut().zip(fresh) {
                if let Some(t) = cur.intersect(new) {
                    *cur = t;
                }
            }
        }
    }
    note_round_off(graph, cfg, &bounds, &mut round_off, graph.output());
    let round_off = round_off
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    Analysis {
        bounds,
        round_off,
        stats,
    }
}

/// Node `i`'s interval forward from its parents' bounds.
fn forward<F: Fp>(graph: &Graph<'_, F>, bounds: &[Vec<Itv<F>>], i: NodeId) -> Vec<Itv<F>> {
    let node = &graph.nodes[i];
    let x = &bounds[node.parents[0]];
    let mut y = vec![Itv::zero(); node.shape.len()];
    match &node.op {
        Op::Input => unreachable!("the input has no parents"),
        Op::Dense(d) => d.forward_itv(x, &mut y),
        Op::Conv(c) => c.forward_itv(x, &mut y),
        Op::Relu => relu_forward_itv(x, &mut y),
        Op::Add { .. } => {
            for ((y, &a), &b) in y.iter_mut().zip(x).zip(&bounds[node.parents[1]]) {
                *y = a.add(b);
            }
        }
    }
    y
}

/// Notes the round-off of every node up to `upto` that has none yet, from
/// the bounds as they stand: a dense or convolution node's over its
/// parent's bounds, a residual add's as half an ulp of its own.
fn note_round_off<F: Fp>(
    graph: &Graph<'_, F>,
    cfg: &VerifyConfig,
    bounds: &[Vec<Itv<F>>],
    round_off: &mut [Option<Vec<F>>],
    upto: NodeId,
) {
    if !cfg.account_inference_error {
        return;
    }
    for (i, node) in graph.nodes.iter().enumerate().take(upto + 1) {
        if round_off[i].is_some() || matches!(node.op, Op::Input | Op::Relu) {
            continue;
        }
        let mut err = vec![F::ZERO; node.shape.len()];
        let mut image = vec![Itv::zero(); err.len()];
        match &node.op {
            Op::Dense(d) => d.forward_itv_round_off(&bounds[node.parents[0]], &mut image, &mut err),
            Op::Conv(c) => c.forward_itv_round_off(&bounds[node.parents[0]], &mut image, &mut err),
            Op::Add { .. } => {
                let u = F::EPSILON * F::HALF;
                for (e, b) in err.iter_mut().zip(&bounds[i]) {
                    *e = round::mul_up(u, b.mag());
                }
            }
            Op::Input | Op::Relu => unreachable!("exact nodes are skipped above"),
        }
        round_off[i] = Some(err);
    }
}

fn bits<F: Fp>(x: F) -> u64 {
    x.to_f64().to_bits()
}

/// Analyzes `image ± eps` and holds every node to the eager chain, bit for
/// bit. Returns whether some refinement tightened a node's forward bounds.
fn pin<F: Fp>(name: &str, net: &Network<F>, image: &[F], eps: F, cfg: VerifyConfig) -> bool {
    let device = Device::new(DeviceConfig::new().workers(2));
    let engine = Engine::new(device, net, cfg).expect("engine");
    let input: Vec<Itv<F>> = image.iter().map(|&x| Itv::new(x - eps, x + eps)).collect();
    let analysis = engine.analyze(&input).expect("analysis");
    let graph = net.graph();
    let want = eager(&graph, &cfg, &input, &analysis);
    let aie = cfg.account_inference_error;
    assert_eq!(analysis.bounds.len(), want.bounds.len(), "{name}: nodes");
    assert_eq!(analysis.round_off.len(), want.round_off.len(), "{name}");
    for (i, (got, want)) in analysis.bounds.iter().zip(&want.bounds).enumerate() {
        assert_eq!(got.len(), want.len(), "{name} (aie {aie}): node {i}");
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                (bits(g.lo), bits(g.hi)),
                (bits(w.lo), bits(w.hi)),
                "{name} (aie {aie}): node {i}, neuron {j}: bounds {g} against the eager {w}"
            );
        }
    }
    for (i, (got, want)) in analysis.round_off.iter().zip(&want.round_off).enumerate() {
        let got: Vec<u64> = got.iter().map(|&e| bits(e)).collect();
        let want: Vec<u64> = want.iter().map(|&e| bits(e)).collect();
        assert_eq!(got, want, "{name} (aie {aie}): node {i} round-off");
    }
    assert_eq!(
        analysis.stats.rows_refined, want.stats.rows_refined,
        "{name}"
    );
    assert_eq!(
        analysis.stats.rows_skipped_stable, want.stats.rows_skipped_stable,
        "{name}"
    );
    graph
        .eval_itv(&input)
        .iter()
        .zip(&analysis.bounds)
        .any(|(ibp, got)| ibp.iter().zip(got).any(|(l, r)| r.lo > l.lo || r.hi < l.hi))
}

/// [`pin`] in `f32` and `f64`, inference error accounted and not; every
/// run must refine something, or the oracle has nothing to tell apart.
fn pin_both(name: &str, net: &Network<f32>, image: &[f32], eps: f32) {
    let wide = net.widen();
    let image64: Vec<f64> = image.iter().map(|&x| x as f64).collect();
    for account_inference_error in [true, false] {
        let cfg = VerifyConfig {
            account_inference_error,
            ..VerifyConfig::default()
        };
        assert!(pin(name, net, image, eps, cfg), "{name}: f32 refines");
        assert!(
            pin(name, &wide, &image64, eps as f64, cfg),
            "{name}: f64 refines"
        );
    }
}

/// A smooth pseudo-image in `[0.15, 0.85]`.
fn image(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| 0.5 + 0.35 * ((i * 37) as f32 * 0.013).sin())
        .collect()
}

/// Scales every weight by 0.1: an 18-layer residual network's bounds then
/// stay narrow enough through the blocks for its walks to stop early.
fn damp(net: &mut Network<f32>) {
    let scale = |layers: &mut [Layer<f32>]| {
        for layer in layers {
            match layer {
                Layer::Dense(d) => d.weight.iter_mut().for_each(|w| *w *= 0.1),
                Layer::Conv(c) => c.weight.iter_mut().for_each(|w| *w *= 0.1),
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

fn zoo(arch: ArchId, dataset: Dataset, scale: f64, eps: f32) {
    let mut net = build_arch(arch, dataset, scale, 7).expect("arch builds");
    if arch == ArchId::SkipNet18 {
        damp(&mut net);
    }
    pin_both(arch.name(), &net, &image(net.input_shape().len()), eps);
}

#[test]
fn fc6x500_nodes_match_the_eager_schedule() {
    zoo(ArchId::Fc6x500, Dataset::MnistLike, 0.2, 1e-3);
}

#[test]
fn conv_big_nodes_match_the_eager_schedule() {
    zoo(ArchId::ConvBig, Dataset::MnistLike, 0.12, 1e-3);
}

#[test]
fn resnet_tiny_nodes_match_the_eager_schedule() {
    zoo(ArchId::ResNetTiny, Dataset::MnistLike, 0.04, 2e-4);
}

#[test]
fn skipnet18_nodes_match_the_eager_schedule() {
    zoo(ArchId::SkipNet18, Dataset::Cifar10Like, 0.04, 1e-4);
}

#[test]
fn a_non_finite_weight_out_of_a_dead_neuron_matches_the_eager_schedule() {
    // Neurons of the second hidden layer with an even index are stably off
    // (bias -100), and the weight out of its neuron 0 into output 0 is not
    // finite: the output's forward bounds are computed through it.
    let w = |i: usize| (((i * 131) % 17) as f32 - 8.0) * 0.02;
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let net = NetworkBuilder::new_flat(4)
            .flatten_dense(8, |i| w(i + 1) * 4.0, |_| 0.0)
            .relu()
            .flatten_dense(8, w, |i| if i % 2 == 0 { -100.0 } else { 0.0 })
            .relu()
            .flatten_dense(3, move |i| if i == 0 { bad } else { w(i + 5) }, |_| 0.0)
            .build()
            .expect("net builds");
        pin_both(&format!("{bad} weight"), &net, &[0.4, 0.6, 0.5, 0.3], 0.3);
    }
}

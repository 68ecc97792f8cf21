//! The layer-by-layer analysis driver (paper §4.2).
//!
//! A forward interval pass seeds concrete bounds for every node; then ReLU
//! layers are visited in topological order and the bounds of their *inputs*
//! are refined by backsubstitution — restricted, when early termination is
//! on, to neurons whose sign is not yet fixed. After each refinement a
//! forward interval pass updates the approximations of the following layers.
//! Backsubstitution batches that exceed device memory are processed in
//! chunks (§4.2, "Memory management").

use gpupoly_device::{Backend, Device, DeviceError};
use gpupoly_interval::{round, Fp, Itv};
use gpupoly_nn::{Graph, NodeId, Op};
use rayon::prelude::*;

use crate::engine::PreparedGraph;
use crate::expr::ExprBatch;
use crate::walk::{StopRule, Walker};
use crate::{VerifyConfig, VerifyError};

/// Work counters of one analysis (and of the spec check run on top of it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// ReLU layers whose inputs were (possibly) refined.
    pub relu_nodes: usize,
    /// Neurons refined by backsubstitution.
    pub rows_refined: usize,
    /// Neurons skipped entirely because their sign was already stable
    /// (early termination, §3.2).
    pub rows_skipped_stable: usize,
    /// Rows dropped mid-backsubstitution by the stop rule (§4.2).
    pub rows_stopped_early: usize,
    /// Concrete-bound candidate evaluations.
    pub candidates: usize,
    /// Chunked backsubstitution launches.
    pub chunks: usize,
    /// Times a chunk had to shrink after a device out-of-memory.
    pub chunk_shrinks: usize,
}

impl AnalysisStats {
    pub(crate) fn absorb_walk(&mut self, stopped: usize, candidates: usize) {
        self.rows_stopped_early += stopped;
        self.candidates += candidates;
    }
}

/// The result of analyzing an input region: sound concrete bounds for every
/// node of the network graph.
#[derive(Clone, Debug)]
pub struct Analysis<F> {
    /// Per-node concrete bounds (indexed by [`NodeId`]).
    pub bounds: Vec<Vec<Itv<F>>>,
    /// Per-node inference round-off (§4.1), indexed like `bounds`: for a
    /// node that inference computes in floats — dense, convolution, residual
    /// add — how far each neuron, as computed, can lie from the node's exact
    /// map of its (computed) input, anywhere in the input region. A
    /// backsubstitution step treats the node as that exact map, so a row owes
    /// `Σ |coefficient| · round_off` to its constants before it steps through
    /// ([`crate::ExprBatch::absorb_round_off`]). Empty for the nodes that are
    /// exact (input, ReLU), and for every node when
    /// [`VerifyConfig::account_inference_error`] is off.
    pub round_off: Vec<Vec<F>>,
    /// Work counters.
    pub stats: AnalysisStats,
}

impl<F: Fp> Analysis<F> {
    /// Bounds of the network output.
    pub fn output_bounds(&self) -> &[Itv<F>] {
        self.bounds.last().expect("non-empty graph")
    }

    /// The state an analysis starts from: forward interval bounds, no
    /// round-off noted and no work counted yet.
    pub(crate) fn seeded(bounds: Vec<Vec<Itv<F>>>) -> Self {
        Self {
            round_off: vec![Vec::new(); bounds.len()],
            bounds,
            stats: AnalysisStats::default(),
        }
    }

    /// Notes the round-off of every node up to `upto` that has none yet,
    /// from the bounds as they stand. The schedule calls this before its
    /// walks first step through those nodes — by then everything up to `upto`
    /// has its final bounds — and bounds only tighten, so what was noted
    /// earlier stays valid.
    fn note_round_off(&mut self, graph: &Graph<'_, F>, cfg: &VerifyConfig, upto: NodeId) {
        if !cfg.account_inference_error {
            return;
        }
        for (i, node) in graph.nodes.iter().enumerate().take(upto + 1) {
            if !self.round_off[i].is_empty() || matches!(node.op, Op::Input | Op::Relu) {
                continue;
            }
            let mut err = vec![F::ZERO; node.shape.len()];
            let mut image = vec![Itv::zero(); err.len()];
            match &node.op {
                Op::Dense(d) => {
                    d.forward_itv_round_off(&self.bounds[node.parents[0]], &mut image, &mut err)
                }
                Op::Conv(c) => {
                    c.forward_itv_round_off(&self.bounds[node.parents[0]], &mut image, &mut err)
                }
                // One rounded addition: within half an ulp of its result,
                // which the node's own bounds hold.
                Op::Add { .. } => {
                    let u = F::EPSILON * F::HALF;
                    for (e, b) in err.iter_mut().zip(&self.bounds[i]) {
                        *e = round::mul_up(u, b.mag());
                    }
                }
                Op::Input | Op::Relu => unreachable!("exact nodes are skipped above"),
            }
            self.round_off[i] = err;
        }
    }
}

/// One input box through the schedule: [`analyze_fused`] over a batch of one.
pub(crate) fn analyze<F: Fp, B: Backend>(
    device: &Device<B>,
    graph: &Graph<'_, F>,
    prepared: &PreparedGraph<'_, F, B>,
    cfg: &VerifyConfig,
    input: &[Itv<F>],
) -> Result<Analysis<F>, VerifyError> {
    let mut one = analyze_fused(device, graph, prepared, cfg, &[input])?;
    Ok(one.pop().expect("one analysis per box"))
}

/// The §4.2 refinement schedule, for any number of same-network input boxes
/// at once — the cross-query kernel-fusion driver.
///
/// A preliminary forward interval pass seeds every box's bounds. Then, at
/// every ReLU layer of the precomputed topological schedule (ReLUs directly
/// on the input are skipped at preparation time: their bounds are already
/// exact), the selected rows of every query are stacked into one
/// [`ExprBatch`] (tagged with a per-row query-segment index), so each
/// backsubstitution step issues one large GEMM/GBC/ReLU launch for all
/// queries instead of one small walk per query. A single box is a batch of
/// one: nothing is stacked, every per-query loop runs once, inline.
///
/// **Bit-identity:** each query's row selections, per-row walk arithmetic
/// and bound intersections do not depend on which other queries share its
/// launches (rows never interact across segments; chunk boundaries are
/// arithmetic-neutral), so every returned [`Analysis`] carries the bounds it
/// would have alone. Work counters differ in shape: fused launches are
/// shared, so `candidates`/`chunks` count the joint launches a query's rows
/// participated in, not per-query work.
pub(crate) fn analyze_fused<F: Fp, B: Backend>(
    device: &Device<B>,
    graph: &Graph<'_, F>,
    prepared: &PreparedGraph<'_, F, B>,
    cfg: &VerifyConfig,
    inputs: &[&[Itv<F>]],
) -> Result<Vec<Analysis<F>>, VerifyError> {
    let in_len = graph.nodes[0].shape.len();
    for input in inputs {
        if input.len() != in_len {
            return Err(VerifyError::BadQuery(format!(
                "input has {} values, network expects {in_len}",
                input.len()
            )));
        }
    }
    // Preliminary forward interval analysis (§4.2). Each pass is independent:
    // run them across the device workers so a wide batch doesn't serialize
    // this phase on the calling thread.
    let mut analyses: Vec<Analysis<F>> = device.install(|| {
        inputs
            .par_iter()
            .map(|input| Analysis::seeded(graph.eval_itv(input)))
            .collect()
    });

    for &(_relu, p) in prepared.relu_plan() {
        // Per-query row selection.
        let mut sels: Vec<Vec<usize>> = Vec::with_capacity(analyses.len());
        for a in &mut analyses {
            a.stats.relu_nodes += 1;
            let b = &a.bounds[p];
            let sel: Vec<usize> = if cfg.early_termination {
                (0..b.len()).filter(|&i| b[i].straddles_zero()).collect()
            } else {
                (0..b.len()).collect()
            };
            a.stats.rows_skipped_stable += b.len() - sel.len();
            a.stats.rows_refined += sel.len();
            sels.push(sel);
        }
        if sels.iter().all(Vec::is_empty) {
            continue;
        }
        let rule = if cfg.early_termination {
            StopRule::StableSign
        } else {
            StopRule::None
        };
        // Only the queries about to walk need it; like the forward update
        // below, spread over the device workers.
        device.install(|| {
            analyses
                .par_iter_mut()
                .zip(sels.par_iter())
                .filter(|(_, sel)| !sel.is_empty())
                .for_each(|(a, _)| a.note_round_off(graph, cfg, p))
        });
        refine_layer(device, graph, prepared, cfg, &mut analyses, p, &sels, rule)?;
        // Forward interval update of everything downstream of the refined
        // node, intersected with the existing (still sound) bounds; a query
        // with nothing selected skips it. The queries are independent:
        // spread them over the device workers.
        device.install(|| {
            analyses
                .par_iter_mut()
                .zip(sels.par_iter())
                .filter(|(_, sel)| !sel.is_empty())
                .for_each(|(a, _)| forward_update(graph, &mut a.bounds, p))
        });
    }
    // The rest, for the walks that start at the output (spec checks).
    device.install(|| {
        analyses
            .par_iter_mut()
            .for_each(|a| a.note_round_off(graph, cfg, graph.output()))
    });
    Ok(analyses)
}

/// Chunked, OOM-adaptive backsubstitution of one layer: the concatenated
/// (query, neuron) work list is walked in chunks; each chunk stacks one
/// initial batch per contributing query (built against that query's own
/// bounds, including the §4.1 inference-error widening) and runs a single
/// multi-segment walk.
#[allow(clippy::too_many_arguments)]
fn refine_layer<F: Fp, B: Backend>(
    device: &Device<B>,
    graph: &Graph<'_, F>,
    prepared: &PreparedGraph<'_, F, B>,
    cfg: &VerifyConfig,
    analyses: &mut [Analysis<F>],
    p: NodeId,
    sels: &[Vec<usize>],
    rule: StopRule,
) -> Result<(), VerifyError> {
    // Segment-major concatenation: a chunk covers each query at most once,
    // in one contiguous run. Chunk boundaries are arithmetic-neutral (a
    // row's walk reads only ancestor bounds, which stay fixed while `p`
    // refines), so the fused rows compute exactly what per-query chunks
    // would.
    let work: Vec<(usize, usize)> = sels
        .iter()
        .enumerate()
        .flat_map(|(k, sel)| sel.iter().map(move |&n| (k, n)))
        .collect();
    let mut chunk = cfg
        .chunk_rows
        .unwrap_or_else(|| prepared.chunk_for(device))
        .clamp(1, work.len());
    let mut i = 0;
    while i < work.len() {
        // Segment-aware sizing: snap the chunk end back to the last
        // query boundary inside it, so a chunk covers whole queries
        // whenever it can. A failing (OOM) chunk then re-runs — and has
        // its `chunk_shrinks` attributed to — the fewest whole queries;
        // only a query too large for the chunk on its own is ever split.
        let end = seg_aware_end(&work[i..], chunk) + i;
        let rows = &work[i..end];
        let attempt = fused_chunk_walk(device, graph, prepared, cfg, analyses, p, rows, rule);
        match attempt {
            Ok(out) => {
                for (j, &(k, n)) in rows.iter().enumerate() {
                    let cur = analyses[k].bounds[p][n];
                    analyses[k].bounds[p][n] = cur.intersect(out.best[j]).unwrap_or(cur);
                }
                // Attribute the shared launches to every contributing query,
                // and each stopped row to its own query.
                let mut seen = vec![false; analyses.len()];
                for &(k, _) in rows {
                    if !seen[k] {
                        seen[k] = true;
                        analyses[k].stats.candidates += out.candidates;
                        analyses[k].stats.chunks += 1;
                    }
                }
                for &r in &out.stopped_rows {
                    analyses[rows[r as usize].0].stats.rows_stopped_early += 1;
                }
                i = end;
            }
            Err(VerifyError::Device(DeviceError::OutOfMemory { .. })) if chunk > 1 => {
                chunk = (chunk / 2).max(1);
                // Attribute the shrink to the queries whose rows were in
                // the failing chunk.
                let mut seen = vec![false; analyses.len()];
                for &(k, _) in rows {
                    if !seen[k] {
                        seen[k] = true;
                        analyses[k].stats.chunk_shrinks += 1;
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The exclusive end (relative to `rest`) of the next fused chunk of at
/// most `chunk` rows: the largest prefix of whole-query runs that fits, or
/// — when even the first query's run exceeds `chunk` — the plain `chunk`
/// cut into that single query. Chunk boundaries are arithmetic-neutral, so
/// this is scheduling/attribution only.
fn seg_aware_end(rest: &[(usize, usize)], chunk: usize) -> usize {
    let end = chunk.min(rest.len());
    if end == rest.len() || rest[end - 1].0 != rest[end].0 {
        return end; // already on a query boundary
    }
    match (1..end).rev().find(|&e| rest[e - 1].0 != rest[e].0) {
        Some(boundary) => boundary,
        None => end, // one query larger than the chunk: split it
    }
}

/// One fused chunk: per-query initial batches stacked into a single
/// multi-segment batch, walked to the input in one pass.
#[allow(clippy::too_many_arguments)]
fn fused_chunk_walk<F: Fp, B: Backend>(
    device: &Device<B>,
    graph: &Graph<'_, F>,
    prepared: &PreparedGraph<'_, F, B>,
    cfg: &VerifyConfig,
    analyses: &[Analysis<F>],
    p: NodeId,
    rows: &[(usize, usize)],
    rule: StopRule,
) -> Result<crate::walk::WalkOutcome<F>, VerifyError> {
    // Contiguous per-query runs of the (query, neuron) chunk.
    let mut runs: Vec<(usize, Vec<usize>)> = Vec::new();
    for &(k, n) in rows {
        match runs.last_mut() {
            Some((rk, ns)) if *rk == k => ns.push(n),
            _ => runs.push((k, vec![n])),
        }
    }
    let batches = runs
        .iter()
        .map(|(k, ns)| initial_batch(device, graph, prepared, &analyses[*k], p, ns))
        .collect::<Result<Vec<_>, _>>()?;
    let stacked = if batches.len() == 1 {
        batches.into_iter().next().expect("one batch")
    } else {
        ExprBatch::stack(device, batches)?
    };
    let walker = Walker {
        device,
        graph,
        prepared,
        segs: runs.iter().map(|(k, _)| &analyses[*k]).collect(),
        compact_dead_cols: cfg.stable_zero_compaction,
    };
    walker.run(stacked, rule)
}

/// The starting expression for refining node `p`'s neurons: the layer's own
/// affine expression for dense/conv nodes (skipping one identity step, the
/// layer's noted round-off included), an identity batch otherwise (residual
/// Add heads).
fn initial_batch<F: Fp, B: Backend>(
    device: &Device<B>,
    graph: &Graph<'_, F>,
    prepared: &PreparedGraph<'_, F, B>,
    analysis: &Analysis<F>,
    p: NodeId,
    rows: &[usize],
) -> Result<ExprBatch<F, B>, VerifyError> {
    let node = &graph.nodes[p];
    let round_off = Some(analysis.round_off[p].as_slice()).filter(|e| !e.is_empty());
    match node.op {
        Op::Dense(d) => {
            let par = node.parents[0];
            let packed = prepared.weights(p)?;
            let (weight, bias) = packed.slices();
            ExprBatch::from_dense_with(
                device,
                d,
                weight,
                bias,
                rows,
                par,
                graph.nodes[par].shape,
                round_off,
            )
        }
        Op::Conv(c) => {
            let par = node.parents[0];
            let packed = prepared.weights(p)?;
            let (weight, bias) = packed.slices();
            ExprBatch::from_conv_with(device, c, weight, bias, rows, par, round_off)
        }
        _ => ExprBatch::identity(device, p, node.shape, rows),
    }
}

/// Recomputes forward interval bounds for every node after `from`,
/// intersecting with the existing bounds (both are sound, so the
/// intersection is sound and at least as tight).
fn forward_update<F: Fp>(graph: &Graph<'_, F>, bounds: &mut [Vec<Itv<F>>], from: NodeId) {
    for i in (from + 1)..graph.nodes.len() {
        let fresh: Vec<Itv<F>> = match &graph.nodes[i].op {
            Op::Input => continue,
            Op::Dense(d) => {
                let x = &bounds[graph.nodes[i].parents[0]];
                let mut y = vec![Itv::zero(); d.out_len];
                d.forward_itv(x, &mut y);
                y
            }
            Op::Conv(c) => {
                let x = &bounds[graph.nodes[i].parents[0]];
                let mut y = vec![Itv::zero(); c.out_shape.len()];
                c.forward_itv(x, &mut y);
                y
            }
            Op::Relu => bounds[graph.nodes[i].parents[0]]
                .iter()
                .map(|b| Itv::new(b.lo.max(F::ZERO), b.hi.max(F::ZERO)))
                .collect(),
            Op::Add { .. } => {
                let a = &bounds[graph.nodes[i].parents[0]];
                let b = &bounds[graph.nodes[i].parents[1]];
                a.iter().zip(b).map(|(&x, &y)| x.add(y)).collect()
            }
        };
        for (cur, new) in bounds[i].iter_mut().zip(fresh) {
            if let Some(t) = cur.intersect(new) {
                *cur = t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpupoly_device::DeviceConfig;
    use gpupoly_nn::builder::NetworkBuilder;
    use gpupoly_nn::Network;

    fn dev() -> Device {
        Device::new(DeviceConfig::new().workers(2))
    }

    /// Prepares the graph (host-resident weights) and analyzes in one go.
    fn run(
        device: &Device,
        graph: &Graph<'_, f32>,
        cfg: &VerifyConfig,
        input: &[Itv<f32>],
    ) -> Result<Analysis<f32>, VerifyError> {
        let prepared = PreparedGraph::new(device, graph, false).unwrap();
        analyze(device, graph, &prepared, cfg, input)
    }

    fn deep_net() -> Network<f32> {
        NetworkBuilder::new_flat(2)
            .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.1, -0.1])
            .relu()
            .dense(&[[0.5_f32, -0.5], [1.5, 0.5]], &[0.0, 0.2])
            .relu()
            .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn analysis_tightens_every_refined_node_vs_ibp() {
        let device = dev();
        let net = deep_net();
        let graph = net.graph();
        let input = vec![Itv::new(-0.5_f32, 0.5), Itv::new(-0.5, 0.5)];
        let ibp = graph.eval_itv(&input);
        let cfg = VerifyConfig {
            early_termination: false,
            ..Default::default()
        };
        let a = run(&device, &graph, &cfg, &input).unwrap();
        for (node, (refined, loose)) in a.bounds.iter().zip(&ibp).enumerate() {
            for (r, l) in refined.iter().zip(loose) {
                assert!(
                    r.lo >= l.lo - 1e-5 && r.hi <= l.hi + 1e-5,
                    "node {node}: refined {r} looser than IBP {l}"
                );
            }
        }
        assert!(a.stats.rows_refined > 0);
    }

    #[test]
    fn analysis_is_sound_on_samples() {
        let device = dev();
        let net = deep_net();
        let graph = net.graph();
        let c = [0.1_f32, -0.2];
        let eps = 0.4;
        let input: Vec<Itv<f32>> = c.iter().map(|&v| Itv::new(v - eps, v + eps)).collect();
        let a = run(&device, &graph, &VerifyConfig::default(), &input).unwrap();
        for s in 0..100 {
            let t = (s as f32) / 99.0;
            let x = [
                c[0] - eps + 2.0 * eps * t,
                c[1] - eps + 2.0 * eps * (1.0 - t),
            ];
            let acts = graph.eval(&x);
            for (node, act) in acts.iter().enumerate() {
                for (v, b) in act.iter().zip(&a.bounds[node]) {
                    assert!(b.contains(*v), "node {node}: {b} misses {v}");
                }
            }
        }
    }

    #[test]
    fn early_termination_matches_full_verdict_precision_on_stable_net() {
        let device = dev();
        // Large positive biases make every ReLU stable.
        let net = NetworkBuilder::new_flat(2)
            .dense(&[[1.0_f32, 0.5], [0.5, 1.0]], &[5.0, 5.0])
            .relu()
            .dense(&[[1.0_f32, -1.0]], &[0.0])
            .build()
            .unwrap();
        let graph = net.graph();
        let input = vec![Itv::new(0.0_f32, 1.0); 2];
        let et = run(&device, &graph, &VerifyConfig::default(), &input).unwrap();
        let full = run(
            &device,
            &graph,
            &VerifyConfig {
                early_termination: false,
                ..Default::default()
            },
            &input,
        )
        .unwrap();
        // ET skipped all rows (stable), yet the final output bounds agree,
        // because stable ReLUs are exact either way.
        assert_eq!(et.stats.rows_refined, 0);
        assert!(et.stats.rows_skipped_stable > 0);
        assert!(full.stats.rows_refined > 0);
        for (a, b) in et.output_bounds().iter().zip(full.output_bounds()) {
            assert!((a.lo - b.lo).abs() < 1e-4 && (a.hi - b.hi).abs() < 1e-4);
        }
    }

    #[test]
    fn chunked_analysis_matches_unchunked() {
        let device = dev();
        let net = deep_net();
        let graph = net.graph();
        let input = vec![Itv::new(-0.5_f32, 0.5); 2];
        let whole = run(&device, &graph, &VerifyConfig::default(), &input).unwrap();
        let chunked = run(
            &device,
            &graph,
            &VerifyConfig {
                chunk_rows: Some(1),
                ..Default::default()
            },
            &input,
        )
        .unwrap();
        for (a, b) in whole.bounds.iter().zip(&chunked.bounds) {
            for (x, y) in a.iter().zip(b) {
                assert!((x.lo - y.lo).abs() < 1e-5 && (x.hi - y.hi).abs() < 1e-5);
            }
        }
        assert!(chunked.stats.chunks >= whole.stats.chunks);
    }

    /// Two padded convolutions (the second strided) and a dense head over an
    /// 8×8 image: dependence-set windows that meet every border.
    fn conv_net() -> Network<f32> {
        let b = NetworkBuilder::new(gpupoly_nn::Shape::new(8, 8, 1))
            .conv(
                4,
                (3, 3),
                (1, 1),
                (1, 1),
                (0..36).map(|i| ((i % 9) as f32 - 4.0) * 0.12).collect(),
                vec![0.02; 4],
            )
            .relu()
            .conv(
                6,
                (3, 3),
                (2, 2),
                (1, 1),
                (0..216).map(|i| ((i % 7) as f32 - 3.0) * 0.08).collect(),
                vec![0.0; 6],
            )
            .relu();
        let in_len = b.current_shape().len();
        b.flatten_dense(
            12,
            move |i| (((i * 13) % 23) as f32 - 11.0) * 0.4 / in_len as f32,
            |_| 0.01,
        )
        .relu()
        .flatten_dense(4, |i| ((i % 7) as f32 - 3.0) * 0.1, |_| 0.0)
        .build()
        .unwrap()
    }

    #[test]
    fn constrained_memory_still_completes_via_chunking() {
        // A device whose memory only fits a handful of rows at a time.
        let device = Device::new(DeviceConfig::new().workers(2).memory_capacity(1 << 14));
        let net = NetworkBuilder::new_flat(16)
            .flatten_dense(64, |i| ((i % 13) as f32 - 6.0) * 0.1, |_| 0.05)
            .relu()
            .flatten_dense(64, |i| ((i % 11) as f32 - 5.0) * 0.1, |_| -0.05)
            .relu()
            .flatten_dense(4, |i| ((i % 7) as f32 - 3.0) * 0.1, |_| 0.0)
            .build()
            .unwrap();
        let graph = net.graph();
        let input = vec![Itv::new(-1.0_f32, 1.0); 16];
        let a = run(&device, &graph, &VerifyConfig::default(), &input).unwrap();
        assert!(a.stats.chunks > 1, "expected chunked execution");
        // Compare against an unconstrained device: identical bounds.
        let big = Device::new(DeviceConfig::new().workers(2));
        let b = run(&big, &graph, &VerifyConfig::default(), &input).unwrap();
        for (x, y) in a.output_bounds().iter().zip(b.output_bounds()) {
            assert!((x.lo - y.lo).abs() < 1e-5 && (x.hi - y.hi).abs() < 1e-5);
        }
        // A convolutional net under the same kind of cap. Windows are stored
        // clipped to their layer, so a row is sized by the largest layer and
        // not by a padded one: the cap holds more rows than it used to be
        // credited with (with a margin of two positions per convolution
        // around every layer, this net took PARENT_CHUNKS chunks here), and
        // the estimate still covers what a chunk allocates.
        const PARENT_CHUNKS: usize = 91;
        let conv = conv_net();
        let graph = conv.graph();
        let input = vec![Itv::new(0.3_f32, 0.7); 64];
        let cfg = VerifyConfig {
            early_termination: false,
            ..Default::default()
        };
        let device = Device::new(DeviceConfig::new().workers(2).memory_capacity(1 << 17));
        let a = run(&device, &graph, &cfg, &input).unwrap();
        assert!(
            a.stats.chunks > a.stats.relu_nodes,
            "expected chunked execution"
        );
        assert!(
            a.stats.chunks <= PARENT_CHUNKS,
            "{} chunks where a padded estimate took {PARENT_CHUNKS}",
            a.stats.chunks
        );
        assert_eq!(a.stats.chunk_shrinks, 0, "the estimate must cover a chunk");
        let b = run(&big, &graph, &cfg, &input).unwrap();
        for (x, y) in a.output_bounds().iter().zip(b.output_bounds()) {
            assert_eq!(
                (x.lo.to_bits(), x.hi.to_bits()),
                (y.lo.to_bits(), y.hi.to_bits())
            );
        }
    }

    #[test]
    fn warm_pool_does_not_shrink_chunks_on_a_capped_device() {
        // Shelved buffers stay charged, but an allocation reclaims them
        // before it fails: they must not count against the chunk size, or
        // every walk after the first runs in smaller chunks than a cold
        // device would use.
        let dense = NetworkBuilder::new_flat(16)
            .flatten_dense(128, |i| ((i % 13) as f32 - 6.0) * 0.1, |_| 0.05)
            .relu()
            .flatten_dense(128, |i| ((i % 11) as f32 - 5.0) * 0.1, |_| -0.05)
            .relu()
            .flatten_dense(4, |i| ((i % 7) as f32 - 3.0) * 0.1, |_| 0.0)
            .build()
            .unwrap();
        // The same on convolutions, whose rows are sized by the largest
        // layer now that no window is stored larger: the chunks that size
        // credits the cap with must fit it, warm or cold.
        let cases = [
            (
                dense,
                vec![Itv::new(-1.0_f32, 1.0); 16],
                VerifyConfig::default(),
            ),
            (
                conv_net(),
                vec![Itv::new(0.3_f32, 0.7); 64],
                VerifyConfig {
                    early_termination: false,
                    ..Default::default()
                },
            ),
        ];
        for (net, input, cfg) in cases {
            let graph = net.graph();
            // The per-row estimate, read off a device so large that the
            // division is exact; then room for 32 rows and 1 KiB to spare, so
            // that any larger amount held against the capacity costs a row.
            let probe = Device::new(DeviceConfig::new().memory_capacity(1 << 40));
            let probe_rows = PreparedGraph::new(&probe, &graph, false)
                .unwrap()
                .chunk_for(&probe);
            let capacity = 32 * ((1 << 40) / probe_rows) + 1024;
            let device = Device::new(DeviceConfig::new().workers(2).memory_capacity(capacity));
            device.buffer_pool_retain();
            let prepared = PreparedGraph::new(&device, &graph, false).unwrap();
            let cold = prepared.chunk_for(&device);
            assert_eq!(cold, 32);
            let first = analyze(&device, &graph, &prepared, &cfg, &input).unwrap();
            assert!(
                first.stats.chunks > first.stats.relu_nodes,
                "expected chunked execution at {cold} rows a chunk"
            );
            assert_eq!(first.stats.chunk_shrinks, 0, "32 rows must fit the cap");
            assert!(
                device.buffer_pool_bytes() > 1024,
                "the walk leaves a warm shelf"
            );
            assert_eq!(prepared.chunk_for(&device), cold, "warm chunk size");
            let second = analyze(&device, &graph, &prepared, &cfg, &input).unwrap();
            assert!(
                second.stats.chunks <= first.stats.chunks,
                "a repeated query needed {} chunks after {}",
                second.stats.chunks,
                first.stats.chunks
            );
            assert_eq!(
                second.stats.chunk_shrinks, first.stats.chunk_shrinks,
                "a warm shelf must not cost extra out-of-memory retries"
            );
            for (x, y) in first.output_bounds().iter().zip(second.output_bounds()) {
                assert_eq!(
                    (x.lo.to_bits(), x.hi.to_bits()),
                    (y.lo.to_bits(), y.hi.to_bits())
                );
            }
            device.buffer_pool_release();
            assert_eq!(device.memory_in_use(), 0);
        }
    }

    #[test]
    fn bad_input_length_is_reported() {
        let device = dev();
        let net = deep_net();
        let graph = net.graph();
        let err = run(
            &device,
            &graph,
            &VerifyConfig::default(),
            &[Itv::point(0.0)],
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::BadQuery(_)));
    }
}

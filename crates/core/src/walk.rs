//! The backsubstitution walk: from a starting expression batch all the way
//! to the input layer, taking the best concrete candidate at every frontier
//! (§2) and optionally compacting away rows that satisfy a stop rule (§4.2).

use std::sync::Arc;

use gpupoly_device::{scan, Backend, Device, DeviceBuffer};
use gpupoly_interval::{Fp, Itv};
use gpupoly_nn::{Graph, NodeId, Op};

use crate::analysis::Analysis;
use crate::engine::PreparedGraph;
use crate::expr::ExprBatch;
use crate::relax::ReluRelax;
use crate::steps::{step_conv_with, step_dense_with, step_relu_per_seg};
use crate::{VerifyConfig, VerifyError};

/// When a row may be dropped mid-walk.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum StopRule {
    /// Never drop rows (plain DeepPoly schedule).
    None,
    /// Drop a row once its running bounds no longer strictly straddle zero —
    /// the ReLU early-termination criterion (§3.2).
    StableSign,
    /// Drop a row once its running lower bound is positive — the
    /// verification objective for this row is already proven.
    ProvenPositive,
}

/// Result of one walk.
#[derive(Debug)]
pub(crate) struct WalkOutcome<F> {
    /// Best interval found per original row.
    pub best: Vec<Itv<F>>,
    /// Original indices of the rows removed before reaching the input
    /// (fused walks attribute them back to their query segments).
    pub stopped_rows: Vec<u32>,
    /// Candidate evaluations performed.
    pub candidates: usize,
}

/// Borrowed context for walks: the graph, its prepared (device-resident)
/// weights, and the current concrete bounds — one bounds set per query
/// segment of the batch being walked. Single-query walks pass one entry;
/// fused cross-query walks pass one per stacked query, and every launch
/// (concretize, GEMM, GBC, ReLU, compaction) covers all segments at once.
pub(crate) struct Walker<'a, 'n, F: Fp, B: Backend> {
    pub device: &'a Device<B>,
    pub graph: &'a Graph<'n, F>,
    pub prepared: &'a PreparedGraph<'n, F, B>,
    /// One analysis per query segment of the batch being walked: its
    /// concrete bounds, and its inference round-off (§4.1) — before a batch
    /// is substituted through a node, its constants absorb what the node's
    /// own float arithmetic may add to the exact map the substitution
    /// assumes ([`Analysis::round_off`]).
    pub segs: Vec<&'a Analysis<F>>,
    /// Stable-zero column compaction, as the walk's list has it
    /// ([`LiveWeights`]): a batch that leaves the ReLU in front of one of its
    /// layers is marked with the layer's live columns, so the dense step that
    /// follows runs over those alone.
    pub live: &'a LiveWeights<F, B>,
}

/// Stable-zero column compaction
/// ([`VerifyConfig::stable_zero_compaction`]) for the walks of one list of
/// rows: per dense layer behind the list's start, which of its neurons are
/// *live* and the rows of its weight matrix they select.
///
/// A neuron is dead when the ReLU it feeds is stably off in **every** query
/// of the list: the ReLU step then leaves an exactly-zero column in every
/// row of every walk, and the dense step can run its GEMM over the live
/// columns and the matching weight rows alone — bit-identical, because every
/// backend must skip an exact-zero term anyway. That depends on the list's
/// queries and not on its rows, so it is made once per list, before the list
/// is cut ([`crate::analysis::walk_streams`]), on the thread that owns the
/// list: the walks share one gather per layer instead of each making (and
/// shelving, in its own lane of the buffer pool) a copy as large as the
/// layer, and what the pool sees does not depend on which stream gets where
/// first.
#[derive(Debug)]
pub(crate) struct LiveWeights<F: Fp, B: Backend> {
    /// Indexed by dense node; `None` where compaction does not engage.
    layers: Vec<Option<Arc<LiveLayer<F, B>>>>,
}

impl<F: Fp, B: Backend> Default for LiveWeights<F, B> {
    /// No compaction anywhere.
    fn default() -> Self {
        Self { layers: Vec::new() }
    }
}

/// One dense layer of a [`LiveWeights`].
#[derive(Debug)]
pub(crate) struct LiveLayer<F: Fp, B: Backend> {
    /// The live neurons, ascending.
    index: Vec<u32>,
    /// The weight rows `index` selects, in a buffer with room for the whole
    /// matrix (a size that recurs from list to list, so the pool serves it).
    rows: DeviceBuffer<F, B>,
    /// Elements of `rows` that are filled: `index.len()` rows.
    filled: usize,
}

impl<F: Fp, B: Backend> LiveLayer<F, B> {
    /// The live neurons, ascending.
    pub fn index(&self) -> &[u32] {
        &self.index
    }

    /// Rows [`LiveLayer::index`] of the layer's weight matrix.
    pub fn rows(&self) -> &[F] {
        &self.rows[..self.filled]
    }
}

impl<F: Fp, B: Backend> LiveWeights<F, B> {
    /// For a list over the queries `segs` whose walks start at `start`:
    /// every dense layer before `start` that feeds a ReLU directly and has a
    /// dead neuron. Three kinds of layer go without: one with a non-finite
    /// weight (which could turn a dropped zero term into a dropped NaN), one
    /// whose weights are sharded (they are on the device only while a walk
    /// steps through them; a copy of their live rows held for the length of
    /// a list is what sharding is there to avoid), and one the device has no
    /// room for.
    pub fn for_list(
        device: &Device<B>,
        graph: &Graph<'_, F>,
        prepared: &PreparedGraph<'_, F, B>,
        cfg: &VerifyConfig,
        segs: &[&Analysis<F>],
        start: NodeId,
    ) -> Self {
        let mut layers = Vec::new();
        if !cfg.stable_zero_compaction || segs.is_empty() {
            return Self { layers };
        }
        layers.resize_with(start, || None);
        for relu in graph.nodes[..start].iter() {
            let p = match (relu.op, relu.parents.first()) {
                (Op::Relu, Some(&p)) => p,
                _ => continue,
            };
            let Op::Dense(d) = graph.nodes[p].op else {
                continue;
            };
            if !prepared.weights_finite(p) || prepared.weights_sharded(p) {
                continue;
            }
            let alive: Vec<bool> = (0..d.out_len)
                .map(|n| {
                    !segs
                        .iter()
                        .all(|a| ReluRelax::from_bounds(a.bounds[p][n]).is_zero())
                })
                .collect();
            if alive.iter().all(|&a| a) {
                continue;
            }
            let (Ok(mut rows), Ok(packed)) = (
                DeviceBuffer::for_overwrite(device, d.out_len * d.in_len),
                prepared.weights(p),
            ) else {
                continue;
            };
            let index = scan::compact_indices(device, &alive);
            let filled = index.len() * d.in_len;
            let (weight, _) = packed.slices();
            scan::gather_rows_into(device, weight, d.in_len, &index, &mut rows[..filled]);
            layers[p] = Some(Arc::new(LiveLayer {
                index,
                rows,
                filled,
            }));
        }
        Self { layers }
    }

    /// The live columns of dense node `p`, if compaction engages there.
    fn of(&self, p: NodeId) -> Option<Arc<LiveLayer<F, B>>> {
        self.layers.get(p)?.clone()
    }
}

impl<F: Fp, B: Backend> Walker<'_, '_, F, B> {
    /// The per-segment bounds of one node, in segment order.
    fn node_bounds(&self, node: usize) -> Vec<&[Itv<F>]> {
        self.segs
            .iter()
            .map(|a| a.bounds[node].as_slice())
            .collect()
    }

    /// Runs the batch to the input node, returning per-row best bounds.
    pub fn run(
        &self,
        mut batch: ExprBatch<F, B>,
        rule: StopRule,
    ) -> Result<WalkOutcome<F>, VerifyError> {
        let total = batch.rows();
        let mut best: Vec<Itv<F>> = vec![Itv::top(); total];
        let mut map: Vec<u32> = (0..total as u32).collect();
        let mut stopped_rows: Vec<u32> = Vec::new();
        let mut candidates = 0usize;
        loop {
            let node = batch.node();
            // Candidate: substitute the frontier's concrete bounds (each
            // row against its own query's bounds).
            let cand = batch.concretize_per_seg(self.device, &self.node_bounds(node));
            candidates += 1;
            for (r, c) in cand.iter().enumerate() {
                let b = &mut best[map[r] as usize];
                b.lo = b.lo.max(c.lo);
                b.hi = b.hi.min(c.hi);
                debug_assert!(b.lo <= b.hi, "candidate bounds crossed: {b}");
            }
            if node == 0 {
                break; // reached the input layer
            }
            // Early stop: compact rows that satisfy the rule (§4.2).
            let keep: Option<Vec<bool>> = match rule {
                StopRule::None => None,
                StopRule::StableSign => Some(
                    (0..batch.rows())
                        .map(|r| best[map[r] as usize].straddles_zero())
                        .collect(),
                ),
                StopRule::ProvenPositive => Some(
                    (0..batch.rows())
                        .map(|r| best[map[r] as usize].lo <= F::ZERO)
                        .collect(),
                ),
            };
            if let Some(keep) = keep {
                let dropped = keep.iter().filter(|&&k| !k).count();
                if dropped > 0 {
                    stopped_rows.extend(
                        keep.iter()
                            .enumerate()
                            .filter(|&(_, &k)| !k)
                            .map(|(r, _)| map[r]),
                    );
                    if dropped == batch.rows() {
                        break;
                    }
                    let (filtered, index) = batch.filter_rows(self.device, &keep)?;
                    batch = filtered;
                    map = index.iter().map(|&i| map[i as usize]).collect();
                }
            }
            batch = self.step_through(batch)?;
        }
        Ok(WalkOutcome {
            best,
            stopped_rows,
            candidates,
        })
    }

    /// One step backwards through the frontier node's operation.
    fn step_through(&self, mut batch: ExprBatch<F, B>) -> Result<ExprBatch<F, B>, VerifyError> {
        let node = batch.node();
        let op = self.graph.nodes[node].op;
        // §4.1: the step below treats the node as the exact map of its
        // input; inference computes it in floats.
        let round_off: Vec<&[F]> = self
            .segs
            .iter()
            .map(|a| a.round_off[node].as_slice())
            .collect();
        if round_off.iter().any(|e| !e.is_empty()) {
            batch.absorb_round_off(self.device, &round_off);
        }
        match op {
            Op::Dense(d) => {
                let p = self.graph.nodes[node].parents[0];
                let packed = self.prepared.weights(node)?;
                let (weight, bias) = packed.slices();
                step_dense_with(
                    self.device,
                    batch,
                    d,
                    weight,
                    bias,
                    p,
                    self.graph.nodes[p].shape,
                )
            }
            Op::Conv(c) => {
                let p = self.graph.nodes[node].parents[0];
                let packed = self.prepared.weights(node)?;
                let (weight, bias) = packed.slices();
                Ok(step_conv_with(self.device, batch, c, weight, bias, p)?)
            }
            Op::Relu => {
                let p = self.graph.nodes[node].parents[0];
                // One relaxation table per *distinct* bounds set: each
                // query's analysis bounds the ReLU inputs differently, so
                // the fused step selects coefficients per segment — but
                // segments sharing one analysis (duplicate input boxes in
                // a fused batch) share one table instead of recomputing
                // identical ones. Sharing is by slice identity: duplicate
                // boxes resolve to the same cached `Analysis`.
                let n = self.segs.len();
                let mut owners: Vec<usize> = Vec::new();
                let mut table_of: Vec<usize> = Vec::with_capacity(n);
                for s in 0..n {
                    let at = owners
                        .iter()
                        .position(|&o| std::ptr::eq(self.segs[o], self.segs[s]))
                        .unwrap_or_else(|| {
                            owners.push(s);
                            owners.len() - 1
                        });
                    table_of.push(at);
                }
                let tables: Vec<Vec<ReluRelax<F>>> = owners
                    .iter()
                    .map(|&s| ReluRelax::layer(&self.segs[s].bounds[p]))
                    .collect();
                let relax_refs: Vec<&[ReluRelax<F>]> =
                    table_of.iter().map(|&t| tables[t].as_slice()).collect();
                let mut out =
                    step_relu_per_seg(self.device, batch, &relax_refs, &self.node_bounds(node), p);
                // Stable-zero column compaction: a neuron dead in every
                // query of the list has the zero relaxation in every table
                // above, which leaves an exactly-zero coefficient column
                // (pinned by the backend conformance suite) that the dense
                // step through `p` can drop.
                if let Some(live) = self.live.of(p) {
                    out.set_live_cols(live);
                }
                Ok(out)
            }
            Op::Add { head } => {
                let pa = self.graph.nodes[node].parents[0];
                let pb = self.graph.nodes[node].parents[1];
                let (ba, bb) = batch.split_add(
                    self.device,
                    pa,
                    self.graph.nodes[pa].shape,
                    pb,
                    self.graph.nodes[pb].shape,
                )?;
                drop(batch); // free the pre-split planes before the branches
                let ba = self.branch_to_head(ba, head)?;
                let bb = self.branch_to_head(bb, head)?;
                ExprBatch::merge(ba, bb, self.device)
            }
            Op::Input => unreachable!("input handled by the loop"),
        }
    }

    /// Walks a residual branch expression back to the block head (no
    /// candidates inside the split; the merged expression takes one at the
    /// head on the next loop iteration).
    fn branch_to_head(
        &self,
        mut batch: ExprBatch<F, B>,
        head: usize,
    ) -> Result<ExprBatch<F, B>, VerifyError> {
        while batch.node() != head {
            let node = batch.node();
            if matches!(self.graph.nodes[node].op, Op::Add { .. }) {
                return Err(VerifyError::BadQuery(
                    "nested residual blocks are not supported (paper §3.1 assumes width 2)"
                        .to_string(),
                ));
            }
            if node == 0 {
                return Err(VerifyError::BadQuery(
                    "residual branch reached the input before its block head".to_string(),
                ));
            }
            batch = self.step_through(batch)?;
        }
        Ok(batch)
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

    /// y = relu(x0 - x1) + relu(x0 + x1), then z = [y0 + y1, y0 - y1].
    fn small_net() -> Network<f32> {
        NetworkBuilder::new_flat(2)
            .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
            .relu()
            .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn walk_tightens_over_ibp() {
        let device = dev();
        let net = small_net();
        let graph = net.graph();
        let input = vec![Itv::new(-1.0_f32, 1.0), Itv::new(-1.0, 1.0)];
        let bounds: Vec<Vec<Itv<f32>>> = graph.eval_itv(&input);
        let analysis = Analysis::seeded(bounds.clone());
        let prepared = PreparedGraph::new(&device, &graph, false).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
            live: &LiveWeights::default(),
        };
        // Bound the output node's neurons via identity start.
        let on = graph.output();
        let batch = ExprBatch::identity(&device, on, graph.nodes[on].shape, &[0, 1]).unwrap();
        let out = walker.run(batch, StopRule::None).unwrap();
        let ibp = &bounds[on];
        for (b, i) in out.best.iter().zip(ibp) {
            assert!(
                b.lo >= i.lo - 1e-5 && b.hi <= i.hi + 1e-5,
                "{b} worse than {i}"
            );
        }
        // exact range of y0+y1: relu in [0,2] each, and they can't both be 2:
        // backsubstitution should see some cancellation vs naive [0,4].
        assert!(out.best[0].hi < ibp[0].hi + 1e-6);
        assert!(out.candidates >= 3);
    }

    #[test]
    fn walk_exact_for_pure_affine_chain() {
        let device = dev();
        let net = NetworkBuilder::new_flat(2)
            .dense(&[[2.0_f32, 0.0], [0.0, 1.0]], &[1.0, 0.0])
            .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.0, 0.5])
            .build()
            .unwrap();
        let graph = net.graph();
        let input = vec![Itv::new(0.0_f32, 1.0), Itv::new(0.0, 1.0)];
        let bounds = graph.eval_itv(&input);
        let analysis = Analysis::seeded(bounds.clone());
        let prepared = PreparedGraph::new(&device, &graph, false).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
            live: &LiveWeights::default(),
        };
        let batch = ExprBatch::identity(&device, 2, graph.nodes[2].shape, &[0, 1]).unwrap();
        let out = walker.run(batch, StopRule::None).unwrap();
        // z0 = 2x0 + x1 + 1 in [1, 4]; z1 = 2x0 - x1 + 1.5 in [0.5, 3.5]
        assert!((out.best[0].lo - 1.0).abs() < 1e-4 && (out.best[0].hi - 4.0).abs() < 1e-4);
        assert!((out.best[1].lo - 0.5).abs() < 1e-4 && (out.best[1].hi - 3.5).abs() < 1e-4);
    }

    #[test]
    fn stable_sign_rule_stops_rows() {
        let device = dev();
        // A layer whose outputs are clearly positive: x0+x1+10 over [0,1]^2.
        let net = NetworkBuilder::new_flat(2)
            .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[10.0, 0.0])
            .relu()
            .dense(&[[1.0_f32, 1.0]], &[0.0])
            .build()
            .unwrap();
        let graph = net.graph();
        let input = vec![Itv::new(0.0_f32, 1.0), Itv::new(0.0, 1.0)];
        let bounds = graph.eval_itv(&input);
        let analysis = Analysis::seeded(bounds.clone());
        let prepared = PreparedGraph::new(&device, &graph, false).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
            live: &LiveWeights::default(),
        };
        let batch = ExprBatch::identity(&device, 1, graph.nodes[1].shape, &[0, 1]).unwrap();
        let out = walker.run(batch, StopRule::StableSign).unwrap();
        // row 0 (x0+x1+10) is stable positive immediately -> dropped early
        assert!(!out.stopped_rows.is_empty());
        assert!(out.best[0].lo >= 10.0 - 1e-4);
        // row 1 (x0-x1) straddles zero -> walked to the input
        assert!(out.best[1].straddles_zero());
    }

    #[test]
    fn residual_walk_handles_split_and_merge() {
        let device = dev();
        // out = relu(2x) + x (identity skip), then sum both outputs.
        let net = NetworkBuilder::new_flat(2)
            .residual(
                |a| {
                    a.dense_flat(2, vec![2.0, 0.0, 0.0, 2.0], vec![0.0, 0.0])
                        .relu()
                },
                |b| b,
            )
            .dense(&[[1.0_f32, 1.0]], &[0.0])
            .build()
            .unwrap();
        let graph = net.graph();
        let input = vec![Itv::new(-1.0_f32, 1.0), Itv::new(0.5, 1.0)];
        let bounds = graph.eval_itv(&input);
        let analysis = Analysis::seeded(bounds.clone());
        let prepared = PreparedGraph::new(&device, &graph, false).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
            live: &LiveWeights::default(),
        };
        let out_node = graph.output();
        let batch =
            ExprBatch::identity(&device, out_node, graph.nodes[out_node].shape, &[0]).unwrap();
        let out = walker.run(batch, StopRule::None).unwrap();
        // f(x) = relu(2x0)+x0 + relu(2x1)+x1; x0 in [-1,1]: relu(2x0)+x0 in [-1, 3]
        // x1 in [.5,1]: 2x1+x1 in [1.5, 3]; total in [0.5, 6]
        assert!(out.best[0].lo <= 0.5 + 1e-4 && out.best[0].hi >= 6.0 - 1e-4);
        // and not absurdly loose
        assert!(out.best[0].lo >= -1.0 && out.best[0].hi <= 7.0);
    }

    #[test]
    fn walk_sound_against_sampled_executions() {
        let device = dev();
        let net = small_net();
        let graph = net.graph();
        let center = [0.2_f32, -0.1];
        let eps = 0.3;
        let input: Vec<Itv<f32>> = center.iter().map(|&c| Itv::new(c - eps, c + eps)).collect();
        let bounds = graph.eval_itv(&input);
        let analysis = Analysis::seeded(bounds.clone());
        let prepared = PreparedGraph::new(&device, &graph, false).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
            live: &LiveWeights::default(),
        };
        let on = graph.output();
        let batch = ExprBatch::identity(&device, on, graph.nodes[on].shape, &[0, 1]).unwrap();
        let out = walker.run(batch, StopRule::None).unwrap();
        for s in 0..50 {
            let t = s as f32 / 49.0;
            let x = [
                center[0] - eps + 2.0 * eps * t,
                center[1] + eps - 2.0 * eps * t,
            ];
            let y = net.infer(&x);
            for (b, v) in out.best.iter().zip(&y) {
                assert!(b.contains(*v), "{b} misses {v}");
            }
        }
    }
}

//! The backsubstitution walk: from a starting expression batch all the way
//! to the input layer, taking the best concrete candidate at every frontier
//! (§2) and optionally compacting away rows that satisfy a stop rule (§4.2).

use gpupoly_device::{Backend, Device};
use gpupoly_interval::{Fp, Itv};
use gpupoly_nn::{Graph, Op};

use crate::analysis::Analysis;
use crate::engine::PreparedGraph;
use crate::expr::ExprBatch;
use crate::relax::ReluRelax;
use crate::steps::{step_conv_with, step_dense_with, step_relu_per_seg};
use crate::VerifyError;

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
}

impl<F: Fp, B: Backend> Walker<'_, '_, F, B> {
    /// The per-segment bounds of one node, in segment order.
    fn node_bounds(&self, node: usize) -> Vec<&[Itv<F>]> {
        self.segs
            .iter()
            .map(|a| a.bounds[node].as_slice())
            .collect()
    }

    /// `make` of each *distinct* analysis among the segments, and per
    /// segment the index of its own. Segments sharing one analysis
    /// (duplicate input boxes in a fused batch resolve to the same cached
    /// `Analysis`) share one result instead of recomputing identical ones;
    /// sharing is by identity.
    fn per_analysis<T>(&self, make: impl Fn(&Analysis<F>) -> T) -> (Vec<T>, Vec<usize>) {
        let mut owners: Vec<usize> = Vec::new();
        let mut of: Vec<usize> = Vec::with_capacity(self.segs.len());
        for s in 0..self.segs.len() {
            let at = owners
                .iter()
                .position(|&o| std::ptr::eq(self.segs[o], self.segs[s]))
                .unwrap_or_else(|| {
                    owners.push(s);
                    owners.len() - 1
                });
            of.push(at);
        }
        (owners.iter().map(|&s| make(self.segs[s])).collect(), of)
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
            batch.absorb_round_off(&round_off);
        }
        match op {
            Op::Dense(d) => {
                let p = self.graph.nodes[node].parents[0];
                // Into a ReLU layer, each query's product skips the columns
                // over its stably-off neurons: the ReLU step, next, would
                // zero them, by the relaxation table made from these bounds.
                let live = matches!(self.graph.nodes[p].op, Op::Relu).then(|| {
                    let q = self.graph.nodes[p].parents[0];
                    self.per_analysis(|a| ReluRelax::live(&a.bounds[q]))
                });
                let live_refs: Option<Vec<&[u32]>> = live
                    .as_ref()
                    .map(|(lists, of)| of.iter().map(|&l| lists[l].as_slice()).collect());
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
                    live_refs.as_deref(),
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
                // One relaxation table per distinct analysis: each query's
                // bounds the ReLU inputs differently, so the fused step
                // selects coefficients per segment.
                let (tables, table_of) = self.per_analysis(|a| ReluRelax::layer(&a.bounds[p]));
                let relax_refs: Vec<&[ReluRelax<F>]> =
                    table_of.iter().map(|&t| tables[t].as_slice()).collect();
                Ok(step_relu_per_seg(
                    self.device,
                    batch,
                    &relax_refs,
                    &self.node_bounds(node),
                    p,
                ))
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
    use crate::steps::{step_dense, step_relu};
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
        let prepared = PreparedGraph::new(&device, &graph).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
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
        let prepared = PreparedGraph::new(&device, &graph).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
        };
        let batch = ExprBatch::identity(&device, 2, graph.nodes[2].shape, &[0, 1]).unwrap();
        let out = walker.run(batch, StopRule::None).unwrap();
        // z0 = 2x0 + x1 + 1 in [1, 4]; z1 = 2x0 - x1 + 1.5 in [0.5, 3.5]
        assert!((out.best[0].lo - 1.0).abs() < 1e-4 && (out.best[0].hi - 4.0).abs() < 1e-4);
        assert!((out.best[1].lo - 0.5).abs() < 1e-4 && (out.best[1].hi - 3.5).abs() < 1e-4);
    }

    #[test]
    fn a_dense_step_into_a_relu_skips_exactly_what_the_relu_step_zeroes() {
        let device = dev();
        // Hidden neuron 0 is exactly zero on the box (bounds [0, 0]: the
        // identity relaxation, live), 1 is stably off, 2 stably on, 3
        // unstable.
        let net = NetworkBuilder::new_flat(3)
            .dense(
                &[
                    [0.0_f32, 0.0, 0.0],
                    [1.0, 0.5, -0.5],
                    [1.0, 0.5, -0.5],
                    [1.0, -1.0, 0.5],
                ],
                &[0.0, -10.0, 10.0, -0.25],
            )
            .relu()
            .dense(
                &[[1.0_f32, -2.0, 0.5, 1.5], [-1.0, 3.0, 0.25, -0.5]],
                &[0.1, -0.1],
            )
            .build()
            .unwrap();
        let graph = net.graph();
        let mut bounds = graph.eval_itv(&[Itv::new(0.0_f32, 1.0); 3]);
        // The forward pass pads its bounds; neuron 0 is exactly zero.
        (bounds[1][0], bounds[2][0]) = (Itv::zero(), Itv::zero());
        let b = &bounds[1];
        assert!(b[1].hi < 0.0 && b[2].lo > 0.0, "{b:?}");
        assert!(b[3].straddles_zero());
        assert_eq!(ReluRelax::live(b), [0, 2, 3]);
        let analysis = Analysis::seeded(bounds.clone());
        let prepared = PreparedGraph::new(&device, &graph).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
        };
        let start = || ExprBatch::identity(&device, 3, graph.nodes[3].shape, &[0, 1]).unwrap();
        // Through the walker: the live product, then the ReLU step.
        let walked = walker.step_through(start()).unwrap();
        let walked = walker.step_through(walked).unwrap();
        // By hand: every column, then the ReLU step.
        let Op::Dense(d) = graph.nodes[3].op else {
            unreachable!("node 3 is the output layer")
        };
        let full = step_dense(&device, start(), d, 2, graph.nodes[2].shape).unwrap();
        let full = step_relu(&device, full, &ReluRelax::layer(b), &bounds[2], 1);
        let ((wl, wh, wcl, wch), (fl, fh, fcl, fch)) = (walked.planes(), full.planes());
        let zero = |v: &Itv<f32>| v.lo == 0.0 && v.hi == 0.0;
        let bits = |v: &Itv<f32>| (v.lo.to_bits(), v.hi.to_bits());
        for (w, f) in wl.iter().chain(wh).zip(fl.iter().chain(fh)) {
            assert!((zero(w) && zero(f)) || bits(w) == bits(f), "{w} vs {f}");
        }
        for (w, f) in wcl.iter().chain(wch).zip(fcl.iter().chain(fch)) {
            assert_eq!(bits(w), bits(f), "{w} vs {f}");
        }
        // The neuron that is exactly zero keeps its coefficient.
        assert!(!zero(&wl[0]) && zero(&wl[1]));
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
        let prepared = PreparedGraph::new(&device, &graph).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
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
        let prepared = PreparedGraph::new(&device, &graph).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
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
        let prepared = PreparedGraph::new(&device, &graph).unwrap();
        let walker = Walker {
            device: &device,
            graph: &graph,
            prepared: &prepared,
            segs: vec![&analysis],
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

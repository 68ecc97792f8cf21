//! The backsubstitution walk: from a starting expression batch all the way
//! to the input layer, taking the best concrete candidate at every frontier
//! (§2) and optionally compacting away rows that satisfy a stop rule (§4.2).

#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use gpupoly_device::{Backend, DenseWeights, Device, LivePanel};
use gpupoly_interval::{Fp, Itv};
use gpupoly_nn::{Dense, Graph, NodeId, Op};

use crate::analysis::Analysis;
use crate::engine::PreparedGraph;
use crate::expr::ExprBatch;
use crate::relax::ReluTable;
use crate::steps::{concretize_dense_with, step_conv_with, step_dense_with, step_relu_tables};
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

/// What the walks of one call read of its queries' ReLU layers: one
/// [`ReluTable`] per (analysis, ReLU node), and beside it one
/// [`LivePanel`] per (analysis, dense node whose input is a ReLU layer) —
/// the dense layer's weights over the live columns the table lists, packed
/// for the product. Each is made the first time a walk steps into or
/// through its layer and borrowed by every walk after it — of any list, any
/// layer and any lane of the call, both planes of each step. A table is a
/// function of its analysis's bounds, and a panel of a table and the
/// network's weights, so where a list is cut and how many walks share a
/// layer decide nothing about either. The caller numbers its analyses (a
/// *slot* each; analyses that are one by identity share a slot) and, where
/// a layer's walks change an analysis's bounds, forgets the table that
/// reads them and the panels read from it ([`StepTables::forget`]).
pub(crate) struct StepTables<F> {
    /// `relu[slot][node]`: the slot's table of ReLU node `node`.
    relu: Vec<Vec<OnceLock<ReluTable<F>>>>,
    /// `panels[slot][node]`: the slot's panel of dense node `node`, read
    /// from its table of the node's input.
    panels: Vec<Vec<OnceLock<LivePanel<F>>>>,
    /// Per node, the dense nodes it is the input of: those whose panels
    /// read its table.
    readers: Vec<Vec<NodeId>>,
    /// Panels made so far.
    #[cfg(test)]
    panels_made: AtomicUsize,
}

impl<F: Fp> StepTables<F> {
    /// No table or panel yet, for `slots` analyses of `graph`.
    pub fn new(slots: usize, graph: &Graph<'_, F>) -> Self {
        fn cells<T>(slots: usize, nodes: usize) -> Vec<Vec<OnceLock<T>>> {
            (0..slots)
                .map(|_| (0..nodes).map(|_| OnceLock::new()).collect())
                .collect()
        }
        let mut readers = vec![Vec::new(); graph.nodes.len()];
        for (id, node) in graph.nodes.iter().enumerate() {
            if let Op::Dense(_) = node.op {
                readers[node.parents[0]].push(id);
            }
        }
        Self {
            relu: cells(slots, graph.nodes.len()),
            panels: cells(slots, graph.nodes.len()),
            readers,
            #[cfg(test)]
            panels_made: AtomicUsize::new(0),
        }
    }

    /// The slots of `analyses`, in order: the first of each analysis by
    /// identity takes the next slot, and a repeat takes its first's.
    pub fn slots_of<'a>(analyses: impl Iterator<Item = &'a Analysis<F>>) -> (Vec<usize>, usize) {
        let mut firsts: Vec<&Analysis<F>> = Vec::new();
        let slots = analyses
            .map(|a| {
                firsts
                    .iter()
                    .position(|&f| std::ptr::eq(f, a))
                    .unwrap_or_else(|| {
                        firsts.push(a);
                        firsts.len() - 1
                    })
            })
            .collect();
        (slots, firsts.len())
    }

    /// `slot`'s table of ReLU node `node`, made from `analysis` — the
    /// slot's — the first time it is asked for.
    fn relu(
        &self,
        slot: usize,
        node: usize,
        graph: &Graph<'_, F>,
        analysis: &Analysis<F>,
    ) -> &ReluTable<F> {
        self.relu[slot][node].get_or_init(|| {
            let p = graph.nodes[node].parents[0];
            ReluTable::new(&analysis.bounds[p], &analysis.bounds[node])
        })
    }

    /// `slot`'s panel of dense node `node`, whose input is a ReLU layer:
    /// `weights` — the node's — over the live columns of the slot's table
    /// of that layer, made the first time it is asked for.
    pub fn panel(
        &self,
        slot: usize,
        node: usize,
        graph: &Graph<'_, F>,
        analysis: &Analysis<F>,
        weights: &DenseWeights<'_, F>,
    ) -> &LivePanel<F> {
        self.panels[slot][node].get_or_init(|| {
            #[cfg(test)]
            self.panels_made.fetch_add(1, Ordering::Relaxed);
            let p = graph.nodes[node].parents[0];
            LivePanel::new(weights, self.relu(slot, p, graph, analysis).live())
        })
    }

    /// Drops `slot`'s table of node `p`, and the panels read from it, for a
    /// caller about to change `p`'s bounds: a ReLU whose input is a ReLU has
    /// its table read by the walks that refine that input. The tables of the
    /// ReLUs on `p` need no such care — a walk steps only through nodes
    /// behind the one it refines, so none is made before `p`'s walks are
    /// done.
    pub fn forget(&mut self, slot: usize, p: usize) {
        self.relu[slot][p].take();
        for &d in &self.readers[p] {
            self.panels[slot][d].take();
        }
    }

    /// Panels made so far, over every slot.
    #[cfg(test)]
    pub fn panels_made(&self) -> usize {
        self.panels_made.load(Ordering::Relaxed)
    }
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
    /// Per segment, its analysis's slot of `tables`.
    pub slots: Vec<usize>,
    /// The call's ReLU tables, shared by all of its walks.
    pub tables: &'a StepTables<F>,
}

impl<F: Fp, B: Backend> Walker<'_, '_, F, B> {
    /// The per-segment bounds of one node, in segment order.
    fn node_bounds(&self, node: usize) -> Vec<&[Itv<F>]> {
        self.segs
            .iter()
            .map(|a| a.bounds[node].as_slice())
            .collect()
    }

    /// Every segment's table of ReLU node `node`, in segment order.
    fn relu_tables(&self, node: usize) -> Vec<&ReluTable<F>> {
        self.segs
            .iter()
            .zip(&self.slots)
            .map(|(a, &slot)| self.tables.relu(slot, node, self.graph, a))
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
        // Row `r` of a candidate tightens its original row's best.
        let take = |best: &mut [Itv<F>], cand: Vec<Itv<F>>, map: &[u32]| {
            for (r, c) in cand.iter().enumerate() {
                let b = &mut best[map[r] as usize];
                b.lo = b.lo.max(c.lo);
                b.hi = b.hi.min(c.hi);
                debug_assert!(b.lo <= b.hi, "candidate bounds crossed: {b}");
            }
        };
        loop {
            let node = batch.node();
            // Candidate: substitute the frontier's concrete bounds (each
            // row against its own query's bounds).
            let cand = batch.concretize_per_seg(self.device, &self.node_bounds(node));
            take(&mut best, cand, &map);
            candidates += 1;
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
            // A dense layer over the input: its step and the input's
            // candidate are one kernel, which writes no plane as wide as
            // the input.
            if let Some(d) = self.dense_over_input(node) {
                take(&mut best, self.concretize_through(batch, d)?, &map);
                candidates += 1;
                break;
            }
            batch = self.step_through(batch)?;
        }
        Ok(WalkOutcome {
            best,
            stopped_rows,
            candidates,
        })
    }

    /// The layer of `node` when it is a dense layer whose input is the
    /// network's input.
    fn dense_over_input(&self, node: NodeId) -> Option<&Dense<F>> {
        match self.graph.nodes[node].op {
            Op::Dense(d) if self.graph.nodes[node].parents[0] == 0 => Some(d),
            _ => None,
        }
    }

    /// The step through `dense`, the frontier's layer, whose input is the
    /// network's input, and the candidate there: what [`Self::step_through`]
    /// and the input's candidate give, bit for bit.
    fn concretize_through(
        &self,
        mut batch: ExprBatch<F, B>,
        dense: &Dense<F>,
    ) -> Result<Vec<Itv<F>>, VerifyError> {
        let node = batch.node();
        self.absorb_round_off(&mut batch);
        let packed = self.prepared.weights(node)?;
        let (weight, bias) = packed.slices();
        let weights = self.prepared.dense_weights(node, dense, weight);
        concretize_dense_with(
            self.device,
            batch,
            dense,
            &weights,
            bias,
            &self.node_bounds(0),
        )
    }

    /// §4.1: a step treats the frontier's node as the exact map of its
    /// input; inference computes it in floats.
    fn absorb_round_off(&self, batch: &mut ExprBatch<F, B>) {
        let node = batch.node();
        let round_off: Vec<&[F]> = self
            .segs
            .iter()
            .map(|a| a.round_off[node].as_slice())
            .collect();
        if round_off.iter().any(|e| !e.is_empty()) {
            batch.absorb_round_off(&round_off);
        }
    }

    /// One step backwards through the frontier node's operation.
    fn step_through(&self, mut batch: ExprBatch<F, B>) -> Result<ExprBatch<F, B>, VerifyError> {
        let node = batch.node();
        let op = self.graph.nodes[node].op;
        self.absorb_round_off(&mut batch);
        match op {
            Op::Dense(d) => {
                let p = self.graph.nodes[node].parents[0];
                let packed = self.prepared.weights(node)?;
                let (weight, bias) = packed.slices();
                let weights = self.prepared.dense_weights(node, d, weight);
                // Into a ReLU layer, each query's product skips the columns
                // over its stably-off neurons: the ReLU step, next, would
                // zero them, by the same table. The query's panel holds its
                // live columns of the weights, packed once for the call.
                let panels: Option<Vec<&LivePanel<F>>> = matches!(self.graph.nodes[p].op, Op::Relu)
                    .then(|| {
                        self.segs
                            .iter()
                            .zip(&self.slots)
                            .map(|(a, &slot)| {
                                self.tables.panel(slot, node, self.graph, a, &weights)
                            })
                            .collect()
                    });
                step_dense_with(
                    self.device,
                    batch,
                    d,
                    &weights,
                    bias,
                    p,
                    self.graph.nodes[p].shape,
                    panels.as_deref(),
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
                // Each query's bounds relax the layer differently, so the
                // fused step selects a table per segment.
                Ok(step_relu_tables(
                    self.device,
                    batch,
                    &self.relu_tables(node),
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
    use crate::relax::ReluRelax;
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
            slots: vec![0],
            tables: &StepTables::new(1, &graph),
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
            slots: vec![0],
            tables: &StepTables::new(1, &graph),
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
            slots: vec![0],
            tables: &StepTables::new(1, &graph),
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

    /// [`Walker::run`] by its steps alone: every step through
    /// [`Walker::step_through`] — the last one [`step_dense_with`], writing
    /// the input's planes — and the input's candidate by
    /// [`ExprBatch::concretize_per_seg`].
    fn run_by_steps<B: Backend>(
        walker: &Walker<'_, '_, f32, B>,
        mut batch: ExprBatch<f32, B>,
        rule: StopRule,
    ) -> WalkOutcome<f32> {
        let mut best: Vec<Itv<f32>> = vec![Itv::top(); batch.rows()];
        let mut map: Vec<u32> = (0..batch.rows() as u32).collect();
        let (mut stopped_rows, mut candidates) = (Vec::new(), 0);
        loop {
            let node = batch.node();
            let cand = batch.concretize_per_seg(walker.device, &walker.node_bounds(node));
            candidates += 1;
            for (r, c) in cand.iter().enumerate() {
                let b = &mut best[map[r] as usize];
                (b.lo, b.hi) = (b.lo.max(c.lo), b.hi.min(c.hi));
            }
            if node == 0 {
                break;
            }
            if rule == StopRule::StableSign {
                let keep: Vec<bool> = (0..batch.rows())
                    .map(|r| best[map[r] as usize].straddles_zero())
                    .collect();
                stopped_rows.extend((0..keep.len()).filter(|&r| !keep[r]).map(|r| map[r]));
                if keep.iter().all(|&k| !k) {
                    break;
                }
                if keep.iter().any(|&k| !k) {
                    let (filtered, index) = batch.filter_rows(walker.device, &keep).unwrap();
                    batch = filtered;
                    map = index.iter().map(|&i| map[i as usize]).collect();
                }
            }
            batch = walker.step_through(batch).unwrap();
        }
        WalkOutcome {
            best,
            stopped_rows,
            candidates,
        }
    }

    #[test]
    fn the_step_into_the_input_writes_no_plane_as_wide_as_the_input() {
        let (n_in, hidden) = (784, 20);
        let w1: Vec<f32> = (0..hidden * n_in)
            .map(|i| ((i * 37 % 101) as f32 / 101.0 - 0.5) * 0.02)
            .collect();
        let w2: Vec<f32> = (0..3 * hidden)
            .map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.25)
            .collect();
        let input: Vec<Itv<f32>> = (0..n_in)
            .map(|i| {
                let c = (i % 10) as f32 / 10.0;
                Itv::new(c - 0.05, c + 0.05)
            })
            .collect();
        // Hidden neurons 0..4 stably off, 4..8 stably on, the other twelve
        // unstable — more rows than a row block — the biases placing each
        // neuron's range from its range without one.
        let unbiased = NetworkBuilder::new_flat(n_in)
            .dense_flat(hidden, w1.clone(), vec![0.0; hidden])
            .build()
            .unwrap();
        let pre = unbiased.graph().eval_itv(&input)[1].clone();
        let b1: Vec<f32> = pre
            .iter()
            .enumerate()
            .map(|(j, v)| match j / 4 {
                0 => -v.hi - 1.0,
                1 => 1.0 - v.lo,
                _ => -(v.lo + v.hi) / 2.0,
            })
            .collect();
        let net = NetworkBuilder::new_flat(n_in)
            .dense_flat(hidden, w1, b1)
            .relu()
            .dense_flat(3, w2, vec![0.5, -0.5, 0.0])
            .build()
            .unwrap();
        let graph = net.graph();
        let bounds = graph.eval_itv(&input);
        let live = ReluRelax::live(&bounds[1]);
        assert!(live.len() > 4 && live.len() < hidden, "{live:?}");
        let mut analysis = Analysis::seeded(bounds.clone());
        // Round-off for the walks to absorb at both dense layers.
        analysis.round_off[1] = vec![1e-6; hidden];
        analysis.round_off[3] = vec![1e-6; 3];
        // From the output through every layer; from the hidden layer with
        // its stable rows stopped.
        let plane = n_in * std::mem::size_of::<Itv<f32>>();
        for (start, rows, rule) in [
            (3, vec![0, 1, 2], StopRule::None),
            (1, (0..hidden).collect(), StopRule::StableSign),
        ] {
            // The walk, and how far the device's peak rose above what it
            // held when the walk began.
            let walk = |by_steps: bool| {
                let device = dev();
                let prepared = PreparedGraph::new(&device, &graph).unwrap();
                let tables = StepTables::new(1, &graph);
                let walker = Walker {
                    device: &device,
                    graph: &graph,
                    prepared: &prepared,
                    segs: vec![&analysis],
                    slots: vec![0],
                    tables: &tables,
                };
                let shape = graph.nodes[start].shape;
                let batch = ExprBatch::identity(&device, start, shape, &rows).unwrap();
                let held = device.memory_in_use();
                assert!(device.peak_memory() < held + plane);
                let out = match by_steps {
                    false => walker.run(batch, rule).unwrap(),
                    true => run_by_steps(&walker, batch, rule),
                };
                (out, device.peak_memory() - held)
            };
            let ((fused, rose), (by_steps, rose_by_steps)) = (walk(false), walk(true));
            let bits = |o: &WalkOutcome<f32>| -> Vec<(u32, u32)> {
                o.best
                    .iter()
                    .map(|v| (v.lo.to_bits(), v.hi.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&fused), bits(&by_steps), "from node {start}");
            assert_eq!(fused.stopped_rows, by_steps.stopped_rows);
            assert_eq!(fused.candidates, by_steps.candidates);
            assert_eq!(fused.stopped_rows.is_empty(), rule == StopRule::None);
            // The rows that reach the input: together they never held one
            // plane of the input's width; by steps, they held two.
            let last = (rows.len() - fused.stopped_rows.len()) * plane;
            assert!(last > 0, "from node {start}: no row reached the input");
            assert!(rose < last, "from node {start}: the peak rose {rose} B");
            assert!(rose_by_steps > last, "{rose_by_steps} B by steps");
        }
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
            slots: vec![0],
            tables: &StepTables::new(1, &graph),
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
            slots: vec![0],
            tables: &StepTables::new(1, &graph),
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
            slots: vec![0],
            tables: &StepTables::new(1, &graph),
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

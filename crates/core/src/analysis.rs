//! The layer-by-layer analysis driver (paper §4.2).
//!
//! One forward interval pass computes every node's concrete bounds, each
//! node once, from its parents' final bounds; ReLU layers are visited in
//! topological order and the bounds of their *inputs* are refined by
//! backsubstitution — restricted, when early termination is on, to neurons
//! whose sign is not yet fixed — as soon as the pass reaches them. The pass
//! stops at each ReLU input until it is refined and goes on from there.
//!
//! # Rows are the parallel grain
//!
//! GPUPoly's parallelism is the independence of the rows of a bound matrix
//! (§4): one neuron's backsubstitution never reads another's. The paper cuts
//! a layer's rows into chunks when the matrix exceeds device memory (§4.2,
//! "Memory management"); here the same cut is also what keeps the device's
//! workers busy. A layer's rows are cut into *walks* ([`walk_streams`]), a
//! walk takes its rows all the way to the input, and the walks run as the
//! *streams* of one section of each walking device's pool: side by side,
//! `workers` at a time on every device, every kernel a walk launches running
//! inline on the thread that owns the walk. A stream is a chunk that runs
//! beside its siblings instead of after them. The workers meet once per
//! layer, when its last walk is done — not once per kernel, of which a layer
//! has dozens and of which most are through in microseconds once early
//! termination has thinned the rows. Every list is cut, however short, and
//! no kernel splits its rows: whole walks side by side are the only
//! parallelism a backsubstitution has. A pool's devices are more stream slots
//! of the same cut, so one query's refinement spans the pool.
//!
//! The engine reaches this module through one driver, for one box or many
//! ([`crate::Engine`]): its one cache-and-gate routine hands
//! [`analyze_fused`] the boxes it claimed (a single query's is a batch of
//! one), and its one spec walk takes the rows of any number of (spec,
//! analysis) segments through the same schedule — one segment for
//! [`crate::Engine::check_spec_with`], one per box of a batch. Every entry
//! goes that way: a query, a spec, a fused batch, a branch-and-bound
//! generation, a tier escalation.
//!
//! What is left serial is the host work between two layers' sections: the
//! stretch of the forward pass from one refined node to the next ReLU input,
//! and that layer's row selection. It runs parallel across the queries of a
//! fused batch, over every device of a pool; a single query's runs on one
//! thread while the device's other workers wait.

use std::ops::Range;

use gpupoly_device::{Backend, Device, DeviceError};
use gpupoly_interval::{Fp, Itv};
use gpupoly_nn::{Graph, NodeId, Op};
use rayon::prelude::*;

use crate::engine::{Lane, PreparedGraph};
use crate::expr::ExprBatch;
use crate::walk::{StepTables, StopRule, WalkOutcome, Walker};
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
    /// Concrete-bound candidate rounds of the walks this query's rows were
    /// in: summed over walks that ran one after the other (the layers, the
    /// rounds of a list that had to be cut again), the longest stream's
    /// where they ran side by side (the streams of one list, on every device
    /// of a pool) — what a single walk over the list would count, to within
    /// the rows that stop early in one stream and not in another. Shared by
    /// the queries of a fused walk.
    pub candidates: usize,
    /// Backsubstitution walks this query's rows were in: the pieces each
    /// ReLU layer's row list was cut into, for memory (§4.2) or to run side
    /// by side as streams, whichever devices of a pool ran them. Spec walks
    /// are not counted.
    pub chunks: usize,
    /// Walks with rows of this query that ran out of device memory and had
    /// their rows cut again at half the length.
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
    /// ([`crate::ExprBatch::absorb_round_off`]). It is taken where the node's
    /// bounds are computed, over its parents' final bounds
    /// ([`Graph::eval_node_itv`]); for a residual add, from the node's bounds
    /// before any refinement of its own. Empty for the nodes that are exact
    /// (input, ReLU), and for every node when
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

    /// An analysis of the nodes `bounds` holds, a prefix of the graph's
    /// (the input box alone where an analysis starts): no round-off noted
    /// and no work counted yet.
    pub(crate) fn seeded(bounds: Vec<Vec<Itv<F>>>) -> Self {
        Self {
            round_off: vec![Vec::new(); bounds.len()],
            bounds,
            stats: AnalysisStats::default(),
        }
    }

    /// Computes every node after the last one computed, up to `upto`, from
    /// its parents' bounds as they stand ([`Graph::eval_node_itv`]), and
    /// keeps its round-off when inference error is accounted. The schedule
    /// calls this once a ReLU input is refined, up to the next one, so
    /// every node is computed once, over its parents' final bounds.
    fn forward_to(&mut self, graph: &Graph<'_, F>, cfg: &VerifyConfig, upto: NodeId) {
        for id in self.bounds.len()..=upto {
            let (bounds, mut round_off) = graph.eval_node_itv(id, &self.bounds);
            if !cfg.account_inference_error {
                round_off = Vec::new();
            }
            self.bounds.push(bounds);
            self.round_off.push(round_off);
        }
    }
}

/// The §4.2 refinement schedule, for any number of same-network input boxes
/// at once — the cross-query kernel-fusion driver.
///
/// Every box's forward interval pass runs in stretches: up to the first
/// ReLU input before any walk, from one refined ReLU input to the next
/// between two layers' walks, and on to the output after the last. So each
/// node is computed once, when its parents' bounds are final, and its
/// round-off is noted from those bounds ([`Analysis::forward_to`]). A
/// refined node's bounds are its forward bounds intersected with what its
/// walks find; every other node's are its forward bounds over its parents'
/// final ones — what a forward pass over everything downstream of each
/// refined node, intersected with the bounds before it, leaves, since the
/// interval forward is inclusion-monotone. (The ReLU inputs are in node
/// order except where a residual branch opens with a ReLU on the block's
/// head while the other branch has ReLUs of its own: that branch, up to its
/// last ReLU input, is computed from the head's bounds before the head is
/// refined — sound, and looser than a pass after it.)
///
/// At every ReLU layer of the precomputed topological schedule (ReLUs
/// directly on the input are skipped at preparation time: their bounds are
/// already exact), the selected rows of every query are stacked into one
/// [`ExprBatch`] (tagged with a per-row query-segment index), so each
/// backsubstitution step issues one large GEMM/GBC/ReLU launch for all
/// queries instead of one small walk per query. A single box is a batch of
/// one: nothing is stacked, every per-query loop runs once, inline.
///
/// **Bit-identity:** each query's row selections, per-row walk arithmetic
/// and bound intersections do not depend on which other rows share its
/// launches — of other queries or of its own. A row's walk reads the row's
/// own coefficients, its own query's bounds of the nodes *behind* the one
/// being refined (fixed while that node refines; what the walks of a layer
/// find is written back only when all of them are done) and the network's
/// weights; every kernel accumulates an output element in ascending-`k`
/// order whatever rows share its launch (the backend bit-reproducibility
/// contract); and the ReLU tables the walks read are functions of a query's
/// bounds, made once per call and borrowed by every walk. So where the
/// list is cut, how many walks run at once and which thread runs which is
/// scheduling: every returned [`Analysis`] carries the bounds it would
/// have alone, on one worker of one device, in one walk. Work counters
/// differ in shape: `chunks` counts the walks a query's rows were in and
/// `candidates` their candidate rounds ([`AnalysisStats`]), and a fused
/// batch shares both.
///
/// The walks run on `lanes` ([`walk_streams`]). Between two layers' walks
/// each query has host work — its stretch of the forward pass and the next
/// layer's row selection — done in one pass, the queries cut into one block
/// a lane and each block spread over its device's workers.
pub(crate) fn analyze_fused<'n, F: Fp, B: Backend>(
    lanes: &[Lane<'n, F, B>],
    graph: &Graph<'n, F>,
    cfg: &VerifyConfig,
    inputs: &[&[Itv<F>]],
) -> Result<Vec<Analysis<F>>, VerifyError> {
    // A query's ReLU tables and live panels, made once for the call: query
    // `k` is slot `k`.
    let mut tables = StepTables::new(inputs.len(), graph);
    analyze_tabled(lanes, graph, cfg, inputs, &mut tables)
}

/// [`analyze_fused`] over the call's `tables`, one slot per input.
fn analyze_tabled<'n, F: Fp, B: Backend>(
    lanes: &[Lane<'n, F, B>],
    graph: &Graph<'n, F>,
    cfg: &VerifyConfig,
    inputs: &[&[Itv<F>]],
    tables: &mut StepTables<F>,
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
    let rule = if cfg.early_termination {
        StopRule::StableSign
    } else {
        StopRule::None
    };
    let plan = lanes[0].prepared.relu_plan();
    let mut analyses: Vec<Analysis<F>> = inputs
        .iter()
        .map(|input| Analysis::seeded(vec![input.to_vec()]))
        .collect();
    // Per query, the rows of the layer about to be walked.
    let mut sels: Vec<Vec<usize>> = vec![Vec::new(); inputs.len()];
    for step in 0..=plan.len() {
        let next = plan.get(step).map(|&(_relu, p)| p);
        // A query's host work between two layers' walks, queries spread over
        // the devices: the forward pass up to the next ReLU input (the
        // output after the last walk), then that layer's row selection.
        let mut queries: Vec<_> = analyses.iter_mut().zip(&mut sels).collect();
        on_each_device(lanes, &mut queries, &|(a, sel)| {
            a.forward_to(graph, cfg, next.unwrap_or(graph.output()));
            if let Some(p) = next {
                a.stats.relu_nodes += 1;
                let b = &a.bounds[p];
                **sel = if cfg.early_termination {
                    (0..b.len()).filter(|&i| b[i].straddles_zero()).collect()
                } else {
                    (0..b.len()).collect()
                };
                a.stats.rows_skipped_stable += b.len() - sel.len();
                a.stats.rows_refined += sel.len();
            }
        });
        if let Some(p) = next {
            if sels.iter().any(|sel| !sel.is_empty()) {
                refine_layer(lanes, graph, cfg, &mut analyses, tables, p, &sels, rule)?;
            }
        }
    }
    Ok(analyses)
}

/// Backsubstitution of one layer: the concatenated (query, neuron) work list
/// goes through [`walk_streams`]; each of its walks stacks one initial batch
/// per contributing query (built against that query's own bounds, including
/// the §4.1 inference-error widening) and runs a single multi-segment walk,
/// borrowing the call's ReLU `tables` (query `k`'s are slot `k`).
#[allow(clippy::too_many_arguments)]
fn refine_layer<'n, F: Fp, B: Backend>(
    lanes: &[Lane<'n, F, B>],
    graph: &Graph<'n, F>,
    cfg: &VerifyConfig,
    analyses: &mut [Analysis<F>],
    tables: &mut StepTables<F>,
    p: NodeId,
    sels: &[Vec<usize>],
    rule: StopRule,
) -> Result<(), VerifyError> {
    // Segment-major concatenation: a walk covers each query at most once,
    // in one contiguous run.
    let work: Vec<(usize, usize)> = sels
        .iter()
        .enumerate()
        .flat_map(|(k, sel)| sel.iter().map(move |&n| (k, n)))
        .collect();
    let streamed = {
        // The walks read `analyses` side by side; what they find is written
        // back once they are all done. Nothing is lost by waiting: a row's
        // walk reads ancestor bounds, which stay fixed while `p` refines,
        // and of `p`'s own bounds (a residual head starts from the
        // identity) only its own neuron's.
        let (analyses, tables) = (&*analyses, &*tables);
        walk_streams(
            lanes,
            cfg,
            work.len(),
            analyses.len(),
            &|i| work[i].0,
            &|lane, rows| fused_chunk_walk(lane, graph, analyses, tables, p, &work[rows], rule),
        )?
    };
    // `p`'s bounds change: no table may keep what it read of them.
    for (k, sel) in sels.iter().enumerate() {
        if !sel.is_empty() {
            tables.forget(k, p);
        }
    }
    for (&(k, n), best) in work.iter().zip(streamed.best) {
        let cur = analyses[k].bounds[p][n];
        analyses[k].bounds[p][n] = cur.intersect(best).unwrap_or(cur);
    }
    for (a, w) in analyses.iter_mut().zip(&streamed.work) {
        a.stats.absorb_walk(w.stopped, w.candidates);
        a.stats.chunks += w.walks;
        a.stats.chunk_shrinks += w.shrinks;
    }
    Ok(())
}

/// How finely a list is cut: into this many walks per worker of its device (one
/// on a device of one worker), or finer where [`WALK_BYTES`] cuts it. Fixed,
/// not configurable. The walks are dealt to the workers in turn before any runs
/// (`walk_streams`): a worker runs its walks back to back and all of them
/// allocate from its one shelf lane of the buffer pool, so the count sets
/// balance, not memory — finer walks even out rows that stop early, and repeat
/// per walk what a walk does once (concretize, the bias fold and GBC set-up a
/// launch). Chosen at two (one to four a worker, measured when every stream had
/// a shelf lane of its own). With one lane a worker, four against two on the
/// benchmark (seed 1, `--trace 0`, one 10-second run of the fused workloads and
/// three alternating 20-second pairs of the others): `peak_device_mb`
/// `dense_fused` 5.03 → 2.28, `conv_fused` 7.04 → 6.93, `dense_single` 0.736 →
/// 0.708, `serve_mix` 1.12–1.25 → 0.74–0.78; `queries_per_s` `serve_mix`
/// 862–886 → 828–859 (lower in 3 of 3 pairs), `dense_single` 183–246 → 221–235
/// (inside the spread). Two stays: four buys memory on `dense_fused` alone and
/// costs `serve_mix` throughput. `cargo bench -p gpupoly-bench --bench
/// chunking` prints one analysis and one fused batch in one walk a list (one
/// thread) and cut as built, without a benchmark run; for another count, edit
/// this constant.
///
/// Also tried: cutting evenly instead of on query boundaries (`cut`) —
/// `dense_fused` 171.6 against 182.6, `conv_fused` 31.2 against 34.4 q/s
/// (six rounds, medians, inside the spread) — kept on boundaries, which
/// stack the fewest segments into a walk and blame an out-of-memory walk on
/// the fewest queries.
pub const STREAMS_PER_WORKER: usize = 2;

/// The working set of one walk, in bytes: on any device, a walk of the
/// schedule of every backsubstitution is at most this many bytes of rows
/// priced at [`crate::PreparedGraph::row_bytes`] long. Fixed, not
/// configurable. A shorter walk holds less and repeats more of what a walk
/// does once (concretize, bias fold and GBC set-up a launch); a longer one
/// holds more and buys nothing past the knee. `cargo bench -p gpupoly-bench --bench chunking`
/// prints the sweep, every walk held to the budget through
/// [`VerifyConfig::chunk_rows`] (`built` is this rule, `1 walk` a list left
/// whole), fused batches of 8 on two workers, ms | peak MB, margins equal in
/// every column:
///
/// | network | 2 MiB | 4 MiB | 8 MiB | **16 MiB** | 32 MiB | 64 MiB | built | 1 walk |
/// | --- | --- | --- | --- | --- | --- | --- | --- | --- |
/// | `Fc6x500` ×0.2 | 42.6 \| 1.85 | 33.8 \| 2.40 | 32.0 \| 4.68 | 30.5 \| 6.52 | 48.1 \| 7.01 | 45.9 \| 7.01 | 25.5 \| 4.07 | 43.9 \| 7.01 |
/// | `Fc6x500` ×0.5 | 251 \| 5.42 | 260 \| 6.93 | 238 \| 11.3 | 233 \| 16.1 | 244 \| 33.7 | 330 \| 34.4 | 191 \| 12.3 | 408 \| 40.7 |
/// | `ConvBig` ×0.12 | 181 \| 3.56 | 191 \| 6.85 | 192 \| 12.2 | 169 \| 13.7 | 163 \| 28.4 | 305 \| 34.7 | 175 \| 13.4 | 338 \| 32.1 |
/// | `ConvBig` ×0.5 | 4606 \| 6.80 | 4022 \| 11.6 | 3952 \| 21.9 | 3614 \| 40.5 | 3061 \| 73.9 | 3567 \| 141 | 3760 \| 40.5 | 6577 \| 639 |
/// | `ResNet18` ×0.01 | 2448 \| 7.82 | 1957 \| 14.6 | 2391 \| 29.6 | 3128 \| 38.0 | 4181 \| 34.5 | 3726 \| 28.9 | 1936 \| 27.2 | 4146 \| 28.9 |
/// | `ResNet18` ×0.02 | 3723 \| 8.32 | 4363 \| 13.9 | 3265 \| 25.6 | 3771 \| 54.2 | 5502 \| 82.8 | 6046 \| 75.7 | 3753 \| 49.2 | 7289 \| 53.3 |
///
/// Walls fall to about 16 MiB and do not fall further while peaks keep
/// growing (`ResNet18`'s walls are the noisiest: two batches of 8, the
/// slower shown). On the benchmark (`--seconds 20 --trace 0`, q/s median
/// \[the parent's quartiles\], each build from its own directory, runs
/// alternating; every sweep that was run: A seed 1 and B seed 2 before the
/// last changes to the tables, C seed 1 on this code, with `p+fl` the
/// parent plus the GEMM epilogue as a loop, `WideAcc::finish_lanes`, alone):
///
/// | workload | sweep | parent | `p+fl` | 4 MiB | 8 MiB | **16 MiB** |
/// | --- | --- | --- | --- | --- | --- | --- |
/// | `conv_fused` | A, 10 | 50.7 \[49.3–54.5\] | | 49.9 | 48.4 | 54.9 |
/// | | B, 12 | 51.6 \[50.0–52.6\] | | 50.9 | 51.6 | 53.0 |
/// | | C, 10 | 52.4 \[51.5–55.2\] | 55.0 | 52.3 | | 53.8 |
/// | `dense_fused` | A | 320.7 \[302.1–333.4\] | | 306.6 | 310.1 | 292.9 |
/// | | B | 338.7 \[330.3–356.3\] | | 304.6 | 299.0 | 302.4 |
/// | | C | 329.8 \[305.6–382.5\] | 361.5 | 329.2 | | 305.7 |
/// | `dense_single` | A | 225.8 \[203.4–237.5\] | | 216.5 | 216.9 | 221.0 |
/// | | B | 236.3 \[220.7–241.5\] | | 227.1 | 218.2 | 227.9 |
/// | | C | 251.3 \[230.3–264.4\] | 240.6 | 228.8 | | 224.1 |
/// | `serve_mix` | A | 879 \[857–890\] | | 866 | 890 | 843 |
/// | | B | 874 \[856–910\] | | 838 | 834 | 839 |
/// | | C | 945 \[904–970\] | 1025 | 860 | | 871 |
///
/// `peak_device_mb`: `conv_fused` 27.4 → 7.0 / 12.0 / 14.2 at 4 / 8 /
/// 16 MiB, `dense_fused` 9.80 → 2.84 / 4.90 / 9.80; `dense_single` and
/// `serve_mix` keep their schedules at every budget here and `dense_fused`
/// at 16 MiB.
///
/// The rule — the smallest budget whose walls stay inside the parent's
/// quartiles on all four workloads — holds for 4 MiB in sweep A and for no
/// budget in B or C: there `dense_single` and `serve_mix` (and in B
/// `dense_fused`) fall below at every budget, with schedules no budget
/// changes, so what moves them is not the budget (in C, `p+fl` against
/// 16 MiB on the same schedules: the ReLU tables' cost, see the README's
/// *Performance: walks sized to a working set*). In C, where 4 and 16 MiB
/// ran in the same rounds, 16 MiB was ahead of 4 MiB in 6, 5, 7 and 4 of 10
/// pairs: the four workloads do not separate them. The tie is broken by
/// the one other wall this budget is held to, one uncapped `ConvBig` ×1.0
/// query against one walk a list over the streams (two workers, three runs
/// of two queries alternating): 2.6–3.5 s at 424–445 MB, 2.9–3.7 s at
/// 49.6 MB at 16 MiB, 3.5–4.5 s at 17.5 MB at 4 MiB. So 16 MiB, the smallest
/// budget measured that keeps that wall: `conv_fused` in half the memory.
pub const WALK_BYTES: usize = 16 << 20;

/// What the walks of one list did for one query segment.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct SegWork {
    /// Walks the segment's rows were in.
    pub walks: usize,
    /// Candidate rounds of those walks: summed where they ran one after the
    /// other, the longest stream's where they ran side by side.
    pub candidates: usize,
    /// Walks with rows of the segment that ran out of device memory and were
    /// cut again.
    pub shrinks: usize,
    /// Rows of the segment dropped by the stop rule before the input.
    pub stopped: usize,
}

/// A list of rows, walked: the best interval per row and the work per
/// query segment.
pub(crate) struct Streamed<F> {
    pub best: Vec<Itv<F>>,
    pub work: Vec<SegWork>,
}

/// The schedule of every backsubstitution: a list of `rows` independent
/// rows — row `i` belongs to query segment `seg_of(i) < segs`, a query's rows
/// are contiguous — is cut into walks, and the walks run as the streams of
/// one section of each walking device's pool ([`Device::streams`]): side by
/// side, every kernel of a walk inline on the thread that owns it. `walk`
/// takes a range of the list to the input on the lane it is given.
///
/// **One cut.** A walk is sized to a fixed working set: at most [`WALK_BYTES`]
/// of rows priced at [`crate::PreparedGraph::row_bytes`], however wide its
/// layer and however many rows the list has (§4.2, "Memory management": the
/// bound matrices always fit). It is also short enough that the list is cut
/// into [`STREAMS_PER_WORKER`] walks for every worker of every device (one for
/// a device of one worker), and no longer than every device's free memory
/// allows the walks that are live together on it (the least of
/// [`crate::PreparedGraph::chunk_for`] over [`Device::streams_at_once`]) — on
/// an uncapped device no ceiling, on a capped one what keeps a walk from
/// running out of memory. [`VerifyConfig::chunk_rows`] fixes the length
/// instead. Cuts fall on query boundaries where one is in reach ([`cut`]).
///
/// **One deal.** A stream slot is one walk that is live at once: one per worker
/// of each walking device, dealt round the lanes — every lane's first worker,
/// then every second, … — and slot `s` of `n` takes walks `s`, `s + n`, … in
/// order, back to back on its worker. A device's slots are the streams of one
/// section of its pool ([`Device::streams`]), whose worker `w` runs stream `w`
/// and allocates from shelf lane `w` of the device's buffer pool, so what a
/// worker runs — and what its lane holds — depends on the list alone, not on
/// which thread gets there first. The first lane's section runs on the calling
/// thread, every other lane's on a scoped thread of its own; one lane is one
/// section and no thread.
///
/// Also tried: each walk to the slot with the fewest rows so far, which evens
/// out lists whose query-boundary cuts differ in length. On `conv_fused`
/// (`--seconds 20 --trace 0`, medians in q/s), ten rounds of the parent, the
/// in-turn deal and the row-count deal read 48.5, 45.3 and 47.2 (seed 1);
/// ten pairs a seed against the parent read 50.6 → 48.4 (seed 1) and 49.6 →
/// 48.2 (seed 2) in turn, 48.8 → 47.4 and 50.5 → 48.5 by rows, at 7.59 /
/// 7.21 MB in turn against 7.82 / 7.73 MB by rows. It did not separate from
/// the in-turn deal and held more memory: not kept.
///
/// **One loop.** A walk that runs out of device memory fails alone: its
/// rows go round again, cut at half the length and on devices whose pool
/// shelves were emptied first, while every walk that fit keeps its result; at one row a walk, what still fails runs once more on
/// the first lane with the device to itself before the error stands. One
/// worker, one row, or a caller that is itself a part of a section is the
/// same loop over one stream a lane.
///
/// A walk's kernels run on the thread that owns the walk, always: whole
/// walks side by side are the only parallelism a list has.
///
/// The cut is scheduling only — a row's walk reads its own query's bounds
/// and nothing of its neighbours, and every lane walks the same network —
/// so `best` is what one walk over the whole list gives, bit for bit.
pub(crate) fn walk_streams<'n, F: Fp, B: Backend>(
    mut lanes: &[Lane<'n, F, B>],
    cfg: &VerifyConfig,
    rows: usize,
    segs: usize,
    seg_of: &(impl Fn(usize) -> usize + Sync),
    walk: &(impl Fn(&Lane<'n, F, B>, Range<usize>) -> Result<WalkOutcome<F>, VerifyError> + Sync),
) -> Result<Streamed<F>, VerifyError> {
    let mut out = Streamed {
        best: vec![Itv::top(); rows],
        work: vec![SegWork::default(); segs],
    };
    if rows == 0 {
        return Ok(out);
    }
    // Walks live together on a device: its workers, or one — for a caller
    // that is itself a part of a section. Each is a stream slot.
    let at_once: Vec<usize> = lanes.iter().map(|l| l.device.streams_at_once()).collect();
    let mut streams = at_once.clone();
    // Finer walks are for balance between a device's workers; one has
    // nobody to balance with.
    let cuts: usize = at_once
        .iter()
        .map(|&a| if a > 1 { STREAMS_PER_WORKER * a } else { 1 })
        .sum();
    let mut len = cfg
        .chunk_rows
        .unwrap_or_else(|| {
            let fits = lanes
                .iter()
                .zip(&at_once)
                .map(|(lane, &a)| (lane.prepared.chunk_for(&lane.device) / a).max(1))
                .min()
                .expect("at least one lane");
            let budget = lanes
                .iter()
                .map(|lane| WALK_BYTES / lane.prepared.row_bytes())
                .min()
                .expect("at least one lane");
            fits.min(budget.max(1)).min(rows.div_ceil(cuts))
        })
        .clamp(1, rows);
    // Segments of a range of the list, each once.
    let segs_of = |part: &Range<usize>| {
        let mut last = None;
        part.clone()
            .map(seg_of)
            .filter(move |&k| last.replace(k) != Some(k))
    };
    let mut walks: Vec<Range<usize>> = cut(0..rows, len, seg_of).collect();
    while !walks.is_empty() {
        let slots = deal(&streams, walks.len());
        let mine = |s: usize| walks.iter().skip(s).step_by(slots.len());
        let ran = run_slots(lanes, &slots, |lane, s| {
            mine(s)
                .map(|part| walk(lane, part.clone()))
                .collect::<Vec<_>>()
        });
        let mut failed = Vec::new();
        // Streams ran side by side: the round took the longest one's
        // candidate rounds.
        let mut round = vec![0usize; segs];
        for (s, stream) in ran.into_iter().enumerate() {
            let mut candidates = vec![0usize; segs];
            for (part, result) in mine(s).zip(stream) {
                match result {
                    Ok(walked) => {
                        for k in segs_of(part) {
                            out.work[k].walks += 1;
                            candidates[k] += walked.candidates;
                        }
                        for &r in &walked.stopped_rows {
                            out.work[seg_of(part.start + r as usize)].stopped += 1;
                        }
                        out.best[part.clone()].copy_from_slice(&walked.best);
                    }
                    Err(VerifyError::Device(DeviceError::OutOfMemory { .. }))
                        if len > 1 || slots.len() > 1 =>
                    {
                        for k in segs_of(part) {
                            out.work[k].shrinks += 1;
                        }
                        failed.push(part.clone());
                    }
                    Err(e) => return Err(e),
                }
            }
            for (r, c) in round.iter_mut().zip(candidates) {
                *r = (*r).max(c);
            }
        }
        for (w, r) in out.work.iter_mut().zip(round) {
            w.candidates += r;
        }
        // What failed goes round again at half the length; at one row a
        // walk, on the first lane with the device to itself.
        if len > 1 {
            len /= 2;
        } else {
            lanes = &lanes[..1];
            streams = vec![1];
        }
        walks = failed
            .into_iter()
            .flat_map(|part| cut(part, len, seg_of))
            .collect();
        // A pool hit larger than its request keeps its slack while it is
        // live, so shelved buffers handed to the shorter walks could hold
        // more than the walks do: they start from an empty shelf instead.
        if !walks.is_empty() {
            for lane in lanes {
                lane.device.buffer_pool_clear();
            }
        }
    }
    Ok(out)
}

/// The first `n` stream slots `(lane, worker)` of lanes running
/// `streams[lane]` streams each, dealt round the lanes: every lane's
/// worker 0, then every lane's worker 1, and so on. A lane's slots are its
/// workers from 0 up, in order.
fn deal(streams: &[usize], n: usize) -> Vec<(usize, usize)> {
    let deepest = streams.iter().copied().max().unwrap_or(0);
    (0..deepest)
        .flat_map(|pos| {
            streams
                .iter()
                .enumerate()
                .filter(move |&(_, &s)| pos < s)
                .map(move |(lane, _)| (lane, pos))
        })
        .take(n)
        .collect()
}

/// Runs `stream(lane, s)` for every slot `s` of `slots`: a lane's slots as
/// the streams of one section of its device ([`Device::streams`], whose
/// worker `w` runs the lane's slot `(lane, w)`), the first lane's section on
/// the calling thread and every other lane's on a scoped thread of its own.
/// Results come back in slot order.
fn run_slots<'n, F: Fp, B: Backend, R: Send>(
    lanes: &[Lane<'n, F, B>],
    slots: &[(usize, usize)],
    stream: impl Fn(&Lane<'n, F, B>, usize) -> R + Sync,
) -> Vec<R> {
    // Slots are dealt round the lanes, so the lanes holding one are a prefix.
    let used = slots.iter().map(|&(l, _)| l + 1).max().unwrap_or(1);
    let mut ran = side_by_side(lanes[..used].iter().collect(), |l, lane| {
        let workers = slots.iter().filter(|&&(x, _)| x == l).count();
        let slot = |w| slots.iter().position(|&x| x == (l, w)).expect("dealt");
        lane.device
            .streams(workers, |w| stream(lane, slot(w)))
            .into_iter()
    });
    // A lane's slots come in its worker order.
    slots
        .iter()
        .map(|&(l, _)| ran[l].next().expect("every slot ran"))
        .collect()
}

/// Runs `f` on every item across the lanes' devices: the items cut into one
/// contiguous block a lane, each block spread over its device's workers. A
/// batch's host work between two layers' walks runs here; one lane, or one
/// item, is one device's pool and no thread.
fn on_each_device<F: Fp, B: Backend, T: Send>(
    lanes: &[Lane<'_, F, B>],
    items: &mut [T],
    f: &(impl Fn(&mut T) + Sync),
) {
    let len = items.len().div_ceil(lanes.len()).max(1);
    side_by_side(items.chunks_mut(len).collect(), |l, block| {
        lanes[l].device.install(|| block.par_iter_mut().for_each(f))
    });
}

/// `run(i, parts[i])` for every part, side by side: part 0 on the calling
/// thread, every other on a scoped thread of its own. Results in part order;
/// one part spawns nothing.
fn side_by_side<I: Send, R: Send>(parts: Vec<I>, run: impl Fn(usize, I) -> R + Sync) -> Vec<R> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    if parts.len() == 0 {
        return vec![run(0, first)];
    }
    std::thread::scope(|scope| {
        let run = &run;
        let others: Vec<_> = parts
            .enumerate()
            .map(|(i, part)| scope.spawn(move || run(i + 1, part)))
            .collect();
        let mut out = vec![run(0, first)];
        for other in others {
            out.push(
                other
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        out
    })
}

/// Cuts `rows` of a list into walks of at most `len` rows: each walk is the
/// largest prefix of whole-query runs that fits, or — when even the first
/// query's run exceeds `len` — one of `⌈run / len⌉` walks of near-equal
/// length that the run is split into, the longer first. A walk then covers
/// whole queries whenever it can, and one that fails (out of memory)
/// re-runs, and has its `chunk_shrinks` attributed to, the fewest of them;
/// and a query larger than a walk leaves no runt of a walk behind it.
fn cut<'a>(
    rows: Range<usize>,
    len: usize,
    seg_of: &'a impl Fn(usize) -> usize,
) -> impl Iterator<Item = Range<usize>> + 'a {
    let mut start = rows.start;
    // The end of the query run being split, and the walks it has left.
    let mut split = (start, 0);
    std::iter::from_fn(move || {
        if start == rows.end {
            return None;
        }
        let on_boundary = |e: usize| e == rows.end || seg_of(e - 1) != seg_of(e);
        if split.1 == 0 {
            let run_end = (start + 1..=rows.end).find(|&e| on_boundary(e));
            let run_end = run_end.expect("a list ends on a boundary");
            if run_end - start > len {
                split = (run_end, (run_end - start).div_ceil(len));
            }
        }
        let end = if split.1 > 0 {
            split.1 -= 1;
            start + (split.0 - start).div_ceil(split.1 + 1)
        } else {
            // Back to the last boundary that fits.
            let full = (start + len).min(rows.end);
            let fits = (start + 1..=full).rev().find(|&e| on_boundary(e));
            fits.expect("the first run fits")
        };
        let walk = start..end;
        start = end;
        Some(walk)
    })
}

/// One fused chunk: per-query initial batches stacked into a single
/// multi-segment batch, walked to the input in one pass on `lane`.
fn fused_chunk_walk<'n, F: Fp, B: Backend>(
    lane: &Lane<'n, F, B>,
    graph: &Graph<'n, F>,
    analyses: &[Analysis<F>],
    tables: &StepTables<F>,
    p: NodeId,
    rows: &[(usize, usize)],
    rule: StopRule,
) -> Result<WalkOutcome<F>, VerifyError> {
    let (device, prepared) = (&lane.device, &lane.prepared);
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
    let walker = Walker {
        device,
        graph,
        prepared,
        segs: runs.iter().map(|(k, _)| &analyses[*k]).collect(),
        slots: runs.iter().map(|(k, _)| *k).collect(),
        tables,
    };
    walker.run(ExprBatch::stack(device, batches)?, rule)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::ReluTable;
    use gpupoly_device::{CpuSimBackend, DeviceConfig};
    use gpupoly_nn::builder::NetworkBuilder;
    use gpupoly_nn::Network;

    fn dev() -> Device {
        Device::new(DeviceConfig::new().workers(2))
    }

    /// `device` with the graph prepared on it (host-resident weights).
    fn lane<'n>(device: &Device, graph: &Graph<'n, f32>) -> [Lane<'n, f32, CpuSimBackend>; 1] {
        let prepared = PreparedGraph::build(device, graph, false).unwrap();
        [Lane {
            device: device.clone(),
            prepared,
        }]
    }

    /// One box through the schedule on `lanes`.
    fn analyze<'n>(
        lanes: &[Lane<'n, f32, CpuSimBackend>],
        graph: &Graph<'n, f32>,
        cfg: &VerifyConfig,
        input: &[Itv<f32>],
    ) -> Result<Analysis<f32>, VerifyError> {
        Ok(analyze_fused(lanes, graph, cfg, &[input])?
            .pop()
            .expect("one analysis per box"))
    }

    /// Prepares the graph and analyzes in one go.
    fn run(
        device: &Device,
        graph: &Graph<'_, f32>,
        cfg: &VerifyConfig,
        input: &[Itv<f32>],
    ) -> Result<Analysis<f32>, VerifyError> {
        analyze(&lane(device, graph), graph, cfg, input)
    }

    /// Walk lengths of `cut` over runs of queries of the given lengths.
    fn walk_lengths(runs: &[usize], len: usize) -> Vec<usize> {
        let seg: Vec<usize> = (0..runs.len()).flat_map(|q| vec![q; runs[q]]).collect();
        let seg_of = |r: usize| seg[r];
        cut(0..seg.len(), len, &seg_of).map(|w| w.len()).collect()
    }

    #[test]
    fn a_query_larger_than_a_walk_is_cut_into_walks_of_near_equal_length() {
        // `conv_fused`'s lists that a plain cut at `len` left with runts:
        // [60, 1, 60, 60, 58] and [6, 1, 6, 6, 4].
        assert_eq!(walk_lengths(&[61, 178], 60), [31, 30, 60, 59, 59]);
        assert_eq!(walk_lengths(&[7, 16], 6), [4, 3, 6, 5, 5]);
        // Whole queries share a walk while they fit; a split query's last
        // walk takes no other query along.
        assert_eq!(walk_lengths(&[3, 4, 5, 13, 2, 2], 6), [3, 4, 5, 5, 4, 4, 4]);
        assert_eq!(walk_lengths(&[2, 2, 2, 7], 6), [6, 4, 3]);
        assert_eq!(walk_lengths(&[12], 6), [6, 6]);
        assert_eq!(walk_lengths(&[5], 1), [1; 5]);
        // A part of a list that starts inside a query (a failed walk, cut
        // again at half the length) splits what it holds of that query.
        let seg = [0, 0, 0, 0, 0, 0, 0, 1, 1];
        let seg_of = |r: usize| seg[r];
        let walks: Vec<_> = cut(2..9, 2, &seg_of).collect();
        assert_eq!(walks, [2..4, 4..6, 6..7, 7..9]);
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
            let probe_rows = PreparedGraph::build(&probe, &graph, false)
                .unwrap()
                .chunk_for(&probe);
            let capacity = 32 * ((1 << 40) / probe_rows) + 1024;
            let device = Device::new(DeviceConfig::new().workers(2).memory_capacity(capacity));
            device.buffer_pool_retain();
            let lanes = lane(&device, &graph);
            let prepared = &lanes[0].prepared;
            let cold = prepared.chunk_for(&device);
            assert_eq!(cold, 32);
            let first = analyze(&lanes, &graph, &cfg, &input).unwrap();
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
            let second = analyze(&lanes, &graph, &cfg, &input).unwrap();
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
    fn walks_fit_the_working_set_on_an_uncapped_device() {
        // A 16×16 image into 8 channels: a first layer of 2048 rows, each
        // priced at the widest layer, longer than the working set of a walk.
        let b = NetworkBuilder::new(gpupoly_nn::Shape::new(16, 16, 1))
            .conv(
                8,
                (3, 3),
                (1, 1),
                (1, 1),
                (0..72).map(|i| ((i % 9) as f32 - 4.0) * 0.15).collect(),
                vec![0.01; 8],
            )
            .relu()
            .conv(
                8,
                (3, 3),
                (2, 2),
                (1, 1),
                (0..576).map(|i| ((i % 7) as f32 - 3.0) * 0.05).collect(),
                vec![0.0; 8],
            )
            .relu();
        let in_len = b.current_shape().len();
        let net = b
            .flatten_dense(
                10,
                move |i| (((i * 13) % 23) as f32 - 11.0) * 0.3 / in_len as f32,
                |_| 0.0,
            )
            .build()
            .unwrap();
        let graph = net.graph();
        let input: Vec<Itv<f32>> = (0..256)
            .map(|i| {
                let x = (i % 17) as f32 / 17.0;
                Itv::new(x, x + 0.05)
            })
            .collect();
        // Every neuron refined, so each list is its layer.
        let cfg = VerifyConfig {
            early_termination: false,
            ..Default::default()
        };
        let device = dev();
        let lanes = lane(&device, &graph);
        let priced = lanes[0].prepared.row_bytes();
        let budget = WALK_BYTES / priced;
        let lists = [2048, 512];
        assert!(
            lists[0] * priced > WALK_BYTES && budget < lists[0] / (STREAMS_PER_WORKER * 2),
            "the first list must be cut by the working set, not by the streams"
        );
        let cut = analyze(&lanes, &graph, &cfg, &input).unwrap();
        // Two streams a worker; a walk is at most `budget` rows long.
        let walks: usize = lists
            .iter()
            .map(|&rows| rows.div_ceil(budget.min(rows.div_ceil(STREAMS_PER_WORKER * 2))))
            .sum();
        assert_eq!(cut.stats.relu_nodes, lists.len());
        assert_eq!(cut.stats.chunks, walks);
        assert!(budget * priced <= WALK_BYTES);
        // One walk a list: the same bounds, bit for bit.
        let whole = analyze(
            &lanes,
            &graph,
            &VerifyConfig {
                chunk_rows: Some(usize::MAX),
                ..cfg
            },
            &input,
        )
        .unwrap();
        assert_eq!(whole.stats.chunks, lists.len());
        assert_eq!(bits(&cut), bits(&whole));
    }

    /// Bounds of every node, as bits.
    fn bits(a: &Analysis<f32>) -> Vec<(u32, u32)> {
        a.bounds
            .iter()
            .flatten()
            .map(|b| (b.lo.to_bits(), b.hi.to_bits()))
            .collect()
    }

    /// `widths` hidden layers, each a dense step into a ReLU (a ReLU
    /// straight after the first when `relu_on_relu`), then a dense output
    /// of two; weights of mixed sign, so that some neurons are stably off.
    fn hidden_net(widths: &[usize], relu_on_relu: bool) -> Network<f32> {
        let mut b = NetworkBuilder::new_flat(3);
        let mut fan_in = 3;
        for (l, &w) in widths.iter().enumerate() {
            let weight = (0..w * fan_in)
                .map(|i| (((i * 7 + l * 5) % 11) as f32 - 5.0) * 0.2)
                .collect();
            let bias = (0..w).map(|i| ((i % 3) as f32 - 1.0) * 0.3).collect();
            b = b.dense_flat(w, weight, bias).relu();
            if relu_on_relu && l == 0 {
                b = b.relu();
            }
            fan_in = w;
        }
        b.dense_flat(
            2,
            (0..2 * fan_in)
                .map(|i| (i % 5) as f32 * 0.25 - 0.5)
                .collect(),
            vec![0.0; 2],
        )
        .build()
        .unwrap()
    }

    /// Three boxes of the three inputs.
    fn boxes() -> Vec<Vec<Itv<f32>>> {
        (0..3)
            .map(|q| {
                (0..3)
                    .map(|i| {
                        let x = ((q * 3 + i) % 5) as f32 * 0.2 - 0.4;
                        Itv::new(x - 0.3, x + 0.3)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn a_call_makes_each_querys_live_panel_of_a_layer_once() {
        // Nodes: 1 dense, 2 relu, 3 dense, 4 relu, 5 dense, 6 relu, 7 dense,
        // 8 relu, 9 dense. The walks refining node 5 step through dense
        // node 3, those refining node 7 through nodes 5 and 3: two panels
        // a query (node 9's only a spec walk steps through), node 3's read
        // by the walks of two layers.
        let net = hidden_net(&[6, 5, 7, 4], false);
        let graph = net.graph();
        let device = dev();
        let lanes = lane(&device, &graph);
        let boxes = boxes();
        let inputs: Vec<&[Itv<f32>]> = boxes.iter().map(Vec::as_slice).collect();
        let cfg = VerifyConfig {
            early_termination: false,
            chunk_rows: Some(2),
            ..Default::default()
        };
        let mut tables = StepTables::new(inputs.len(), &graph);
        let cut = analyze_tabled(&lanes, &graph, &cfg, &inputs, &mut tables).unwrap();
        assert!(
            cut.iter().all(|a| a.stats.chunks > 4),
            "lists cut into walks"
        );
        assert_eq!(tables.panels_made(), 2 * inputs.len());
        let whole = analyze_fused(
            &lanes,
            &graph,
            &VerifyConfig {
                chunk_rows: Some(usize::MAX),
                ..cfg
            },
            &inputs,
        )
        .unwrap();
        for (c, w) in cut.iter().zip(&whole) {
            assert_eq!(bits(c), bits(w));
        }
    }

    #[test]
    fn forgetting_a_relu_table_drops_the_panels_read_from_it() {
        // Nodes: 1 dense, 2 relu, 3 relu, 4 dense, 5 relu, 6 dense, 7 relu,
        // 8 dense. Node 2 is refined (the input of ReLU 3), its table
        // forgotten after; dense node 4 reads ReLU 3's table.
        let net = hidden_net(&[6, 5, 4], true);
        let graph = net.graph();
        assert!(matches!(graph.nodes[3].op, Op::Relu) && graph.nodes[3].parents[0] == 2);
        let Op::Dense(d) = graph.nodes[4].op else {
            unreachable!("node 4 is dense")
        };
        let device = dev();
        let lanes = lane(&device, &graph);
        let boxes = boxes();
        let analysis = analyze(&lanes, &graph, &VerifyConfig::default(), &boxes[0]).unwrap();
        let prepared = &lanes[0].prepared;
        let weight = prepared.weights(4).unwrap();
        let weights = prepared.dense_weights(4, d, weight.slices().0);
        let mut tables = StepTables::new(1, &graph);
        let live = tables
            .panel(0, 4, &graph, &analysis, &weights)
            .live()
            .to_vec();
        assert_eq!(
            live,
            ReluTable::new(&analysis.bounds[2], &analysis.bounds[3]).live()
        );
        tables.panel(0, 4, &graph, &analysis, &weights);
        assert_eq!(tables.panels_made(), 1, "one panel, borrowed twice");
        // ReLU 2's table is no panel's: forgetting it keeps node 4's.
        tables.forget(0, 2);
        tables.panel(0, 4, &graph, &analysis, &weights);
        assert_eq!(tables.panels_made(), 1);
        // ReLU 3's is node 4's: the panel goes with it.
        tables.forget(0, 3);
        tables.panel(0, 4, &graph, &analysis, &weights);
        assert_eq!(tables.panels_made(), 2);
        // The schedule, which forgets node 2's table once its walks are
        // done, gives the bounds of one walk a list, bit for bit.
        let inputs: Vec<&[Itv<f32>]> = boxes.iter().map(Vec::as_slice).collect();
        for early_termination in [false, true] {
            let cfg = VerifyConfig {
                early_termination,
                ..Default::default()
            };
            let cut = analyze_fused(&lanes, &graph, &cfg, &inputs).unwrap();
            let whole = analyze_fused(
                &lanes,
                &graph,
                &VerifyConfig {
                    chunk_rows: Some(usize::MAX),
                    ..cfg
                },
                &inputs,
            )
            .unwrap();
            for (c, w) in cut.iter().zip(&whole) {
                assert_eq!(bits(c), bits(w));
            }
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

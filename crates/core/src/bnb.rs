//! Branch-and-bound refinement: turning `Unknown` into `Proven` (or a
//! verified counterexample) under an explicit work budget.
//!
//! DeepPoly alone is incomplete — hard queries come back `Unknown`. The
//! "Fast and Complete" line of work (arXiv 2011.13824, arXiv 2004.08440)
//! closes the gap by *splitting*: bisect the input box, re-analyze both
//! halves, and recurse on whichever halves stay undecided. Each half is
//! strictly narrower, so unstable ReLUs progressively stabilize and the
//! relaxation tightens until every leaf proves — or until a concrete
//! counterexample falls out.
//!
//! This engine is uniquely shaped to eat that workload:
//!
//! * every frontier *generation* (the sibling sub-boxes pending at one
//!   depth, across every query of the batch) dispatches through the fused
//!   cross-query pipeline, so siblings share **one launch per layer step**
//!   instead of one walk per sub-box;
//! * the ε-monotone analysis cache lets a cached analysis over a
//!   *containing* box pre-resolve a sub-box — **proving only, never
//!   refuting**, the same soundness rule as
//!   [`EngineOptions::monotone_cache_reuse`](crate::EngineOptions);
//! * refutation is never taken from a relaxation: a query is `Falsified`
//!   only by a **verified concrete counterexample** — a point inside the
//!   ball whose sound interval evaluation proves misclassification.
//!
//! Budgets make the tier predictable: [`RefineBudget::max_splits`] bounds
//! the bisections per query and [`RefineBudget::deadline`] bounds wall
//! time; exhaustion yields a typed
//! [`CompleteVerdict::Unknown`]`{ splits_exhausted, frontier_remaining }`.
//! Dead queries stop costing immediately: the moment a counterexample (or
//! an error) decides a query, every sibling sub-box it still has queued is
//! discarded instead of analyzed.

use std::time::Instant;

use gpupoly_device::Backend;
use gpupoly_interval::{Fp, Itv};

use crate::config::{RefineBudget, SplitRule};
use crate::engine::{Engine, Query};
use crate::error::VerifyError;
use crate::verifier::RobustnessVerdict;

/// Outcome of a budgeted complete verification
/// ([`Engine::verify_complete`]).
#[derive(Clone, Debug)]
pub enum CompleteVerdict<F> {
    /// The label is certified for the whole ball.
    Proven {
        /// The base verdict when plain DeepPoly already proved it (then
        /// `splits == 0` and the margins are exactly the plain-`verify`
        /// ones); `None` when the proof needed splitting (per-leaf margins
        /// over sub-boxes don't compose into ball-wide margins).
        base: Option<RobustnessVerdict<F>>,
        /// Bisections spent.
        splits: u64,
    },
    /// A *verified* concrete counterexample was found: `counterexample`
    /// lies inside the ball and its sound interval evaluation proves some
    /// adversary class outscores the label.
    Falsified {
        /// The misclassified input point.
        counterexample: Vec<F>,
        /// The class that provably outscores the label there.
        adversary: usize,
        /// Bisections spent before the counterexample surfaced.
        splits: u64,
    },
    /// The budget ran out before every leaf was discharged.
    Unknown {
        /// The plain DeepPoly verdict over the full ball (its margins show
        /// how far from proving the relaxation got).
        base: RobustnessVerdict<F>,
        /// Bisections spent when the budget ran out.
        splits_exhausted: u64,
        /// Sub-boxes still undecided on the frontier at that moment.
        frontier_remaining: usize,
    },
}

impl<F> CompleteVerdict<F> {
    /// Bisections this verdict cost.
    pub fn splits(&self) -> u64 {
        match self {
            CompleteVerdict::Proven { splits, .. } | CompleteVerdict::Falsified { splits, .. } => {
                *splits
            }
            CompleteVerdict::Unknown {
                splits_exhausted, ..
            } => *splits_exhausted,
        }
    }

    /// `true` for [`CompleteVerdict::Proven`].
    pub fn is_proven(&self) -> bool {
        matches!(self, CompleteVerdict::Proven { .. })
    }

    /// `true` for [`CompleteVerdict::Falsified`].
    pub fn is_falsified(&self) -> bool {
        matches!(self, CompleteVerdict::Falsified { .. })
    }

    /// `true` when the budget ran out undecided.
    pub fn is_unknown(&self) -> bool {
        matches!(self, CompleteVerdict::Unknown { .. })
    }
}

impl CompleteVerdict<f32> {
    /// Widens losslessly to the `f64` surface (`f32 → f64` is exact for
    /// every value, so a widened counterexample is the same point).
    pub fn widen(&self) -> CompleteVerdict<f64> {
        match self {
            CompleteVerdict::Proven { base, splits } => CompleteVerdict::Proven {
                base: base.as_ref().map(crate::tiered::widen_verdict),
                splits: *splits,
            },
            CompleteVerdict::Falsified {
                counterexample,
                adversary,
                splits,
            } => CompleteVerdict::Falsified {
                counterexample: counterexample.iter().map(|&x| x as f64).collect(),
                adversary: *adversary,
                splits: *splits,
            },
            CompleteVerdict::Unknown {
                base,
                splits_exhausted,
                frontier_remaining,
            } => CompleteVerdict::Unknown {
                base: crate::tiered::widen_verdict(base),
                splits_exhausted: *splits_exhausted,
                frontier_remaining: *frontier_remaining,
            },
        }
    }
}

/// The two half-boxes a bisection yields.
type Halves<F> = (Vec<Itv<F>>, Vec<Itv<F>>);

/// Bisects the widest dimension of `bx` at its midpoint (ties broken by
/// the lowest index, so the split tree is deterministic). Returns `None`
/// when no dimension can be narrowed any further — the midpoint of the
/// widest interval is not strictly interior, i.e. the box is at floating-
/// point resolution.
fn bisect_widest<F: Fp>(bx: &[Itv<F>]) -> Option<Halves<F>> {
    let mut dim = 0usize;
    let mut widest = F::ZERO;
    for (d, iv) in bx.iter().enumerate() {
        let w = iv.width();
        if w > widest {
            widest = w;
            dim = d;
        }
    }
    let iv = bx[dim];
    let mid = iv.mid();
    if !(mid > iv.lo && mid < iv.hi) {
        return None;
    }
    let mut lo_half = bx.to_vec();
    lo_half[dim] = Itv::new(iv.lo, mid);
    let mut hi_half = bx.to_vec();
    hi_half[dim] = Itv::new(mid, iv.hi);
    Some((lo_half, hi_half))
}

/// One undecided query mid-refinement.
struct Pending<F> {
    /// Index into the caller's batch.
    qidx: usize,
    /// Claimed label.
    label: usize,
    /// The plain DeepPoly verdict over the full ball.
    base: RobustnessVerdict<F>,
    /// Bisections spent on this query so far.
    splits: u64,
    /// Sub-boxes of this query still on the frontier (undecided leaves).
    open: usize,
}

impl<'n, F: Fp, B: Backend> Engine<'n, F, B> {
    /// Complete (budgeted branch-and-bound) verification of one query:
    /// plain analysis first, then input-box bisection on `Unknown`, with
    /// every frontier generation fused into shared per-layer launches.
    ///
    /// A `Proven`/`Falsified` outcome is final and sound; `Unknown` is a
    /// typed budget-exhaustion report, never a silent give-up. A base
    /// verdict that already decides the query is returned unchanged with
    /// zero splits spent.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Engine::verify_robustness`] (malformed
    /// query, unrecoverable device OOM), plus [`VerifyError::BadQuery`]
    /// for the reserved [`SplitRule::UnstableRelu`] hook.
    pub fn verify_complete(
        &self,
        query: &Query<F>,
        budget: &RefineBudget,
    ) -> Result<CompleteVerdict<F>, VerifyError> {
        self.verify_complete_batch(std::slice::from_ref(query), budget)
            .pop()
            .unwrap_or_else(|| {
                Err(VerifyError::Internal(
                    "verify_complete_batch returned no verdict for a one-query batch".into(),
                ))
            })
    }

    /// Batch form of [`Engine::verify_complete`]: one split frontier is
    /// shared across all queries, so sub-boxes of different queries fuse
    /// into the same per-layer launches, and a query decided early (by a
    /// counterexample or an error) has its remaining sub-boxes discarded
    /// instead of analyzed.
    ///
    /// On a pool ([`Engine::on_pool`]) every generation's walks are dealt
    /// over the walking devices like any other list's, and verdicts and
    /// split counts are the one-device ones: the base pass and every
    /// generation's box analyses are deterministic.
    pub fn verify_complete_batch(
        &self,
        queries: &[Query<F>],
        budget: &RefineBudget,
    ) -> Vec<Result<CompleteVerdict<F>, VerifyError>> {
        let started = Instant::now();
        let deadline = budget.deadline.map(|d| started + d);
        if budget.split_rule == SplitRule::UnstableRelu {
            return queries
                .iter()
                .map(|_| {
                    Err(VerifyError::BadQuery(
                        "split_rule `UnstableRelu` is a reserved branching hook; \
                         use `InputBisection`"
                            .into(),
                    ))
                })
                .collect();
        }

        // Base pass: plain (fused) DeepPoly over every full ball. A
        // decided base verdict is final — zero splits spent.
        let base = self.verify_batch_fused(queries);
        let mut out: Vec<Option<Result<CompleteVerdict<F>, VerifyError>>> =
            queries.iter().map(|_| None).collect();
        let mut pend: Vec<Pending<F>> = Vec::new();
        // The frontier: `(pending index, sub-box)` pairs of one generation.
        let mut frontier: Vec<(usize, Vec<Itv<F>>)> = Vec::new();
        for (i, result) in base.into_iter().enumerate() {
            match result {
                Err(e) => out[i] = Some(Err(e)),
                Ok(v) if v.verified => {
                    out[i] = Some(Ok(CompleteVerdict::Proven {
                        base: Some(v),
                        splits: 0,
                    }));
                }
                Ok(v) => {
                    let q = &queries[i];
                    match self.robustness_box(&q.image, q.label, q.eps) {
                        Err(e) => out[i] = Some(Err(e)),
                        Ok(bx) => {
                            // Cheap refutation probe before any splitting:
                            // is the ball's center already a verified
                            // counterexample?
                            if let Some((point, adversary)) = self.concrete_cex(q.label, &bx) {
                                self.note_cex_found();
                                out[i] = Some(Ok(CompleteVerdict::Falsified {
                                    counterexample: point,
                                    adversary,
                                    splits: 0,
                                }));
                            } else {
                                let p = pend.len();
                                pend.push(Pending {
                                    qidx: i,
                                    label: q.label,
                                    base: v,
                                    splits: 0,
                                    open: 1,
                                });
                                frontier.push((p, bx));
                            }
                        }
                    }
                }
            }
        }

        // Frontier loop: one fused dispatch per generation.
        while !frontier.is_empty() {
            self.split_counters().note_frontier(frontier.len());
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break; // the post-loop sweep reports the typed Unknown
            }
            let labels: Vec<usize> = frontier.iter().map(|&(p, _)| pend[p].label).collect();
            let boxes: Vec<Vec<Itv<F>>> = frontier.iter().map(|(_, b)| b.clone()).collect();
            let results = self.verify_boxes_fused(&labels, &boxes, true);

            let mut next: Vec<(usize, Vec<Itv<F>>)> = Vec::new();
            for ((p, bx), result) in frontier.into_iter().zip(results) {
                let pending = &mut pend[p];
                if out[pending.qidx].is_some() {
                    continue; // query decided earlier this generation
                }
                match result {
                    Err(e) => out[pending.qidx] = Some(Err(e)),
                    Ok(v) if v.verified => {
                        pending.open -= 1;
                        if pending.open == 0 {
                            self.split_counters()
                                .proven_by_split
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            out[pending.qidx] = Some(Ok(CompleteVerdict::Proven {
                                base: None,
                                splits: pending.splits,
                            }));
                        }
                    }
                    Ok(_) => {
                        // Undecided leaf: refute concretely, split, or run
                        // out of budget — in that order.
                        if let Some((point, adversary)) = self.concrete_cex(pending.label, &bx) {
                            self.note_cex_found();
                            out[pending.qidx] = Some(Ok(CompleteVerdict::Falsified {
                                counterexample: point,
                                adversary,
                                splits: pending.splits,
                            }));
                            continue;
                        }
                        let in_budget = pending.splits < u64::from(budget.max_splits)
                            && deadline.is_none_or(|d| Instant::now() < d);
                        let children = if in_budget { bisect_widest(&bx) } else { None };
                        match children {
                            Some((a, b)) => {
                                pending.splits += 1;
                                pending.open += 1; // one leaf became two
                                self.split_counters()
                                    .splits
                                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                next.push((p, a));
                                next.push((p, b));
                            }
                            None => {
                                // Splits/deadline exhausted, or the box hit
                                // floating-point resolution: typed Unknown.
                                out[pending.qidx] = Some(Ok(CompleteVerdict::Unknown {
                                    base: pending.base.clone(),
                                    splits_exhausted: pending.splits,
                                    frontier_remaining: pending.open,
                                }));
                            }
                        }
                    }
                }
            }
            // Dead queries stop costing: drop every queued sibling of a
            // query that is already decided.
            next.retain(|&(p, _)| out[pend[p].qidx].is_none());
            frontier = next;
        }

        // Deadline break (or a discarded frontier) leaves still-open
        // queries undecided: report the typed budget exhaustion.
        for p in &pend {
            if out[p.qidx].is_none() {
                out[p.qidx] = Some(Ok(CompleteVerdict::Unknown {
                    base: p.base.clone(),
                    splits_exhausted: p.splits,
                    frontier_remaining: p.open,
                }));
            }
        }
        out.into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(VerifyError::Internal(
                        "branch-and-bound left a query undecided and unreported".into(),
                    ))
                })
            })
            .collect()
    }

    /// Sound concrete counterexample probe at the center of `bx`: the
    /// point is evaluated through interval arithmetic (outward rounding),
    /// so `hi < 0` on some margin enclosure proves the *real* network
    /// output misclassifies there — a verified refutation, independent of
    /// any relaxation. Returns the point and the winning adversary class.
    fn concrete_cex(&self, label: usize, bx: &[Itv<F>]) -> Option<(Vec<F>, usize)> {
        let point: Vec<F> = bx.iter().map(|iv| iv.mid()).collect();
        let point_box: Vec<Itv<F>> = point.iter().map(|&x| Itv::point(x)).collect();
        let bounds = self.graph().eval_itv(&point_box);
        let outputs = &bounds[self.graph().output()];
        let y_label = outputs[label];
        for (adversary, &y_adv) in outputs.iter().enumerate() {
            if adversary == label {
                continue;
            }
            if y_label.sub(y_adv).hi < F::ZERO {
                return Some((point, adversary));
            }
        }
        None
    }

    /// Records one verified-counterexample refutation.
    fn note_cex_found(&self) {
        self.split_counters()
            .cex_found
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VerifyConfig;
    use gpupoly_device::Device;
    use gpupoly_nn::builder::NetworkBuilder;
    use gpupoly_nn::Network;

    /// A tiny 2-class net with a genuine incompleteness gap. With
    /// `h1 = x1 - x2` and the stable-positive passthrough `h2 = x1 + x2`,
    /// the margin is `y1 - y0 = h2 - relu(h1) = x1 + x2 - relu(x1 - x2)`,
    /// whose true minimum around `(0.6, 0.4)` is `0.8 - 2ε > 0` — but the
    /// cancellation defeats forward intervals (`0.8 - 4ε`) and, for large
    /// ε, the triangle upper relaxation of the unstable `relu(h1)` too, so
    /// plain DeepPoly reports Unknown while a couple of bisections leave
    /// every sub-box provable.
    fn hard_net() -> Network<f32> {
        NetworkBuilder::new_flat(2)
            .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
            .relu()
            .dense(&[[0.0_f32, 0.0], [-1.0, 1.0]], &[0.0, 0.0])
            .build()
            .unwrap()
    }

    fn engine(net: &Network<f32>) -> Engine<'_, f32, gpupoly_device::CpuSimBackend> {
        Engine::new(Device::default(), net, VerifyConfig::default()).unwrap()
    }

    #[test]
    fn proven_base_is_returned_unchanged_with_zero_splits() {
        let net = hard_net();
        let eng = engine(&net);
        let q = Query::new(vec![0.6_f32, 0.4], 1, 0.01);
        let plain = eng.verify_robustness(&q.image, q.label, q.eps).unwrap();
        assert!(plain.verified, "base query must be provable for this test");
        let complete = eng.verify_complete(&q, &RefineBudget::default()).unwrap();
        match complete {
            CompleteVerdict::Proven {
                base: Some(v),
                splits,
            } => {
                assert_eq!(splits, 0);
                let got: Vec<u32> = v.margins.iter().map(|m| m.lower.to_bits()).collect();
                let want: Vec<u32> = plain.margins.iter().map(|m| m.lower.to_bits()).collect();
                assert_eq!(got, want, "base margins must be bit-identical");
            }
            other => panic!("expected unchanged Proven base, got {other:?}"),
        }
    }

    #[test]
    fn splitting_converts_an_unknown_into_proven() {
        let net = hard_net();
        let eng = engine(&net);
        // `relu(x1-x2)` over this box is unstable with α = 1, so the plain
        // lower bound is 0.2 - 2ε + 0.15 < 0 — Unknown — while the true
        // margin never drops below 0.15.
        let q = Query::new(vec![0.6_f32, 0.4], 1, 0.35);
        let plain = eng.verify_robustness(&q.image, q.label, q.eps).unwrap();
        assert!(!plain.verified, "query must be Unknown for this test");
        let complete = eng.verify_complete(&q, &RefineBudget::default()).unwrap();
        match complete {
            CompleteVerdict::Proven { base, splits } => {
                assert!(base.is_none(), "a split proof has no ball-wide margins");
                assert!(splits > 0, "conversion must have split");
                assert!(splits <= u64::from(RefineBudget::default().max_splits));
            }
            other => panic!("expected split-proven verdict, got {other:?}"),
        }
        let stats = eng.stats();
        assert!(stats.splits > 0);
        assert_eq!(stats.proven_by_split, 1);
        assert!(stats.frontier_peak >= 1);
    }

    #[test]
    fn wrong_label_is_falsified_by_a_verified_counterexample() {
        let net = hard_net();
        let eng = engine(&net);
        // Claim the label the network does NOT predict at the center:
        // DeepPoly can't refute (it only proves), the concrete probe can.
        let image = vec![0.6_f32, 0.4];
        let truth = net.classify(&image);
        let wrong = 1 - truth;
        let q = Query::new(image, wrong, 0.05);
        let complete = eng.verify_complete(&q, &RefineBudget::default()).unwrap();
        match complete {
            CompleteVerdict::Falsified {
                counterexample,
                adversary,
                splits,
            } => {
                assert_eq!(splits, 0, "the center probe should refute pre-split");
                assert_eq!(adversary, truth);
                // Re-verify the counterexample independently.
                let cx_box: Vec<Itv<f32>> = counterexample.iter().map(|&x| Itv::point(x)).collect();
                let bounds = net.graph().eval_itv(&cx_box);
                let outs = &bounds[net.graph().output()];
                assert!(outs[wrong].sub(outs[truth]).hi < 0.0);
            }
            other => panic!("expected Falsified, got {other:?}"),
        }
        assert_eq!(eng.stats().cex_found, 1);
    }

    #[test]
    fn exhausted_budget_is_a_typed_unknown() {
        let net = hard_net();
        let eng = engine(&net);
        let q = Query::new(vec![0.6_f32, 0.4], 1, 0.35);
        let complete = eng
            .verify_complete(&q, &RefineBudget::with_max_splits(0))
            .unwrap();
        match complete {
            CompleteVerdict::Unknown {
                base,
                splits_exhausted,
                frontier_remaining,
            } => {
                assert!(!base.verified);
                assert_eq!(splits_exhausted, 0);
                assert!(frontier_remaining >= 1);
            }
            other => panic!("expected typed Unknown, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_refinement() {
        let net = hard_net();
        let eng = engine(&net);
        let q = Query::new(vec![0.6_f32, 0.4], 1, 0.35);
        let budget = RefineBudget {
            max_splits: u32::MAX,
            deadline: Some(std::time::Duration::ZERO),
            ..RefineBudget::default()
        };
        let complete = eng.verify_complete(&q, &budget).unwrap();
        assert!(
            complete.is_unknown(),
            "a zero deadline must stop before any generation: {complete:?}"
        );
    }

    #[test]
    fn unstable_relu_rule_is_a_typed_reserved_error() {
        let net = hard_net();
        let eng = engine(&net);
        let q = Query::new(vec![0.6_f32, 0.4], 1, 0.01);
        let budget = RefineBudget {
            split_rule: SplitRule::UnstableRelu,
            ..RefineBudget::default()
        };
        match eng.verify_complete(&q, &budget) {
            Err(VerifyError::BadQuery(msg)) => assert!(msg.contains("reserved")),
            other => panic!("expected BadQuery for the reserved rule, got {other:?}"),
        }
    }

    #[test]
    fn bisect_widest_is_deterministic_and_narrowing() {
        let bx = vec![
            Itv::new(0.0_f32, 0.25),
            Itv::new(0.0_f32, 1.0),
            Itv::new(0.0_f32, 1.0),
        ];
        let (a, b) = bisect_widest(&bx).unwrap();
        // Widest-tie broken toward the lowest index.
        assert_eq!(a[1], Itv::new(0.0_f32, 0.5));
        assert_eq!(b[1], Itv::new(0.5_f32, 1.0));
        assert_eq!(a[0], bx[0]);
        assert_eq!(a[2], bx[2]);
        // A degenerate box cannot split.
        let point = vec![Itv::point(0.5_f32)];
        assert!(bisect_widest(&point).is_none());
    }
}

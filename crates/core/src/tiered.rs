//! Precision-tiered verification: an `f32` fast pass with sound `f64`
//! escalation.
//!
//! Directed rounding makes the `f32` walk *sound* on its own — any margin it
//! proves really holds. What it does not make is *identical* to the `f64`
//! walk: the DeepPoly ReLU relaxation picks its λ from the computed bounds,
//! and near the decision threshold the two precisions can pick differently.
//! A [`TieredEngine`] therefore never trusts a borderline fast verdict.
//! Every query runs in `f32` first; a query is kept only when it is fully
//! proven with every margin clear of the conservative round-off envelope
//! ([`Fp::escalation_envelope`]), and everything else — Unknown verdicts,
//! narrow margins, errors — is re-run through a resident `f64` engine whose
//! answer is returned verbatim. The escalated answers are bit-identical to
//! an all-`f64` run; the fast-resolved ones are proofs the `f64` walk would
//! only have widened.
//!
//! The payoff is throughput: the `f32` walk moves half the bytes and (on
//! wide SIMD backends) retires twice the lanes per instruction, and on
//! typical robustness workloads it resolves the large majority of queries
//! outright.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gpupoly_device::{Backend, Device};
use gpupoly_interval::Fp;
use gpupoly_nn::Network;

use crate::config::VerifyConfig;
use crate::engine::{fold_ms_per_cost, Engine, EngineOptions, EngineStats, Query};
use crate::error::VerifyError;
use crate::verifier::{Margin, RobustnessVerdict};

/// How much a query stream's unit of [`Engine::query_cost`] is expected to
/// cost relative to a pure fast-tier pass, given the escalation history.
///
/// A fast-resolved query costs one `f32` walk; an escalated query costs the
/// `f32` walk *plus* an `f64` walk that is roughly twice as expensive
/// (double the bytes moved), i.e. ~3× a fast-only query. The weight
/// interpolates linearly from `1.0` (nothing ever escalated) to `3.0`
/// (everything escalates) over the observed escalation rate, and is `1.0`
/// when nothing has been measured yet.
///
/// Serving layers multiply their cost-hint × EWMA time estimate by this
/// weight so that admission control prices in escalations instead of
/// assuming every query stops at the fast tier.
///
/// Hardened against garbage counters: the sum saturates instead of
/// overflowing, and the result is clamped to `[1.0, 3.0]` so a corrupted
/// (or maliciously mirrored) counter pair can never misprice admission by
/// more than the model's own dynamic range. Cold start (`0, 0`) is pinned
/// to `1.0`.
pub fn escalation_cost_weight(escalated: u64, fast_resolved: u64) -> f64 {
    let total = escalated.saturating_add(fast_resolved);
    if total == 0 {
        return 1.0;
    }
    (1.0 + 2.0 * (escalated as f64 / total as f64)).clamp(1.0, 3.0)
}

/// A two-tier verification engine: an `f32` fast pass backed by a sound
/// `f64` escalation path over the same network and device.
///
/// Both tiers share one [`Device`] (weights of both precisions are resident
/// simultaneously) and one [`VerifyConfig`]. The caller keeps ownership of
/// both network precisions — the widened copy must equal
/// [`Network::widen`] of the narrow one, which the constructor checks.
///
/// # Example
///
/// ```
/// use gpupoly_core::{Query, TieredEngine, VerifyConfig};
/// use gpupoly_device::Device;
/// use gpupoly_nn::builder::NetworkBuilder;
///
/// let net = NetworkBuilder::new_flat(2)
///     .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
///     .relu()
///     .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.5, 0.0])
///     .build()?;
/// let wide = net.widen();
/// let engine = TieredEngine::new(Device::default(), &net, &wide, VerifyConfig::default())?;
/// let verdicts = engine.verify_batch(&[Query::new(vec![0.4_f32, 0.6], 0, 0.05)]);
/// assert!(verdicts[0].as_ref().unwrap().verified);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TieredEngine<'n, B: Backend> {
    fast: Engine<'n, f32, B>,
    full: Engine<'n, f64, B>,
    /// Layer count of the network — the depth factor of the escalation
    /// envelope.
    depth: usize,
    fast_pass_resolved: AtomicU64,
    escalated: AtomicU64,
    /// EWMA of measured wall ms per *escalation-weighted* unit of
    /// [`Engine::query_cost`] (f64 bit pattern; `0` until measured).
    ewma_ms_per_cost: AtomicU64,
}

impl<'n, B: Backend> TieredEngine<'n, B> {
    /// Builds a tiered engine with default options.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] when `wide` is not `net.widen()` or when
    /// either tier's engine fails validation.
    pub fn new(
        device: Device<B>,
        net: &'n Network<f32>,
        wide: &'n Network<f64>,
        cfg: VerifyConfig,
    ) -> Result<Self, VerifyError> {
        Self::with_options(device, net, wide, cfg, EngineOptions::default())
    }

    /// Builds a tiered engine with explicit options. Both tiers get the
    /// same options.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadQuery`] when `wide` is not `net.widen()` or when
    /// either tier's engine fails validation.
    pub fn with_options(
        device: Device<B>,
        net: &'n Network<f32>,
        wide: &'n Network<f64>,
        cfg: VerifyConfig,
        options: EngineOptions,
    ) -> Result<Self, VerifyError> {
        if *wide != net.widen() {
            return Err(VerifyError::BadQuery(
                "tiered engine: `wide` must be exactly `net.widen()` \
                 (the f64 tier would otherwise verify a different network)"
                    .into(),
            ));
        }
        let depth = net.layer_count();
        let fast = Engine::with_options(device.clone(), net, cfg, options)?;
        let full = Engine::with_options(device, wide, cfg, options)?;
        Ok(Self {
            fast,
            full,
            depth,
            fast_pass_resolved: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
            ewma_ms_per_cost: AtomicU64::new(0),
        })
    }

    /// The device both tiers run on.
    pub fn device(&self) -> &Device<B> {
        self.fast.device()
    }

    /// The `f32` fast-tier engine.
    pub fn fast(&self) -> &Engine<'n, f32, B> {
        &self.fast
    }

    /// The `f64` full-precision engine.
    pub fn full(&self) -> &Engine<'n, f64, B> {
        &self.full
    }

    /// The fast tier's cost estimate for one query (see
    /// [`Engine::query_cost`]). The tiered EWMA already folds escalation
    /// overhead into its per-cost time, so this stays the raw hint.
    pub fn query_cost(&self, query: &Query<f32>) -> f64 {
        self.fast.query_cost(query)
    }

    /// `true` when the fast tier may keep this verdict without escalating:
    /// fully proven, with every margin clear of the round-off envelope at
    /// this network's depth. Anything else — Unknown, unproven margins,
    /// margins inside the envelope — goes to the `f64` tier.
    fn fast_resolves(&self, verdict: &RobustnessVerdict<f32>) -> bool {
        verdict.verified
            && verdict
                .margins
                .iter()
                .all(|m| m.proven && m.lower > f32::escalation_envelope(self.depth, m.lower))
    }

    /// The `f32` fast pass over a batch: the verdict of every query it
    /// resolves, `None` for every query to escalate. Errors escalate too:
    /// the `f64` tier re-derives them so messages (which format eps at
    /// `f64` width) match an all-`f64` run exactly.
    fn fast_pass(&self, queries: &[Query<f32>]) -> Vec<Option<RobustnessVerdict<f32>>> {
        self.fast
            .verify_batch_fused(queries)
            .into_iter()
            .map(|r| r.ok().filter(|v| self.fast_resolves(v)))
            .collect()
    }

    /// Verifies a batch at full (`f64`) output precision: fast-resolved
    /// verdicts widened losslessly, escalated verdicts exactly as an
    /// all-`f64` engine would produce them.
    ///
    /// This is the parity-testing surface: the tier tests assert the
    /// escalated subset matches `Engine::<f64>::verify_batch_fused` on the
    /// widened queries bit-for-bit.
    pub fn verify_batch_f64(
        &self,
        queries: &[Query<f32>],
    ) -> Vec<Result<RobustnessVerdict<f64>, VerifyError>> {
        let start = Instant::now();
        let total_cost: f64 = queries.iter().map(|q| self.fast.query_cost(q)).sum();

        let mut out: Vec<Option<Result<RobustnessVerdict<f64>, VerifyError>>> =
            vec![None; queries.len()];
        let mut escalate: Vec<usize> = Vec::new();
        for (i, kept) in self.fast_pass(queries).into_iter().enumerate() {
            match kept {
                Some(v) => out[i] = Some(Ok(widen_verdict(&v))),
                None => escalate.push(i),
            }
        }

        let resolved = queries.len() - escalate.len();
        if !escalate.is_empty() {
            let wide_queries: Vec<Query<f64>> =
                escalate.iter().map(|&i| widen_query(&queries[i])).collect();
            let full_verdicts = self.full.verify_batch_fused(&wide_queries);
            for (&i, result) in escalate.iter().zip(full_verdicts) {
                out[i] = Some(result);
            }
        }

        self.fast_pass_resolved
            .fetch_add(resolved as u64, Ordering::Relaxed);
        self.escalated
            .fetch_add(escalate.len() as u64, Ordering::Relaxed);
        let weight = escalation_cost_weight(
            self.escalated.load(Ordering::Relaxed),
            self.fast_pass_resolved.load(Ordering::Relaxed),
        );
        // The same fold as the per-engine EWMA, so the two estimates stay
        // directly comparable.
        fold_ms_per_cost(
            &self.ewma_ms_per_cost,
            start.elapsed().as_secs_f64() * 1e3,
            total_cost * weight,
        );

        settle_slots(out)
    }

    /// Verifies a batch at the serving (`f32`) output precision.
    ///
    /// Fast-resolved verdicts are returned as the fast tier produced them.
    /// Escalated verdicts keep the `f64` tier's `verified`/`proven`
    /// decisions (those are exact) and round each margin's lower bound
    /// *down* to the nearest `f32` at or below it, so the narrowed bound
    /// is still a sound certificate.
    pub fn verify_batch(
        &self,
        queries: &[Query<f32>],
    ) -> Vec<Result<RobustnessVerdict<f32>, VerifyError>> {
        // Fast-resolved verdicts round-trip losslessly through f64 (widen
        // is exact, and narrowing an exactly-representable value is the
        // identity), so one pipeline serves both output precisions.
        self.verify_batch_f64(queries)
            .into_iter()
            .map(|r| r.map(|v| narrow_verdict(&v)))
            .collect()
    }

    /// Complete (branch-and-bound) verification of one query through the
    /// tiers — see [`TieredEngine::verify_complete_batch`].
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Engine::verify_complete`].
    pub fn verify_complete(
        &self,
        query: &Query<f32>,
        budget: &crate::RefineBudget,
    ) -> Result<crate::CompleteVerdict<f64>, VerifyError> {
        self.verify_complete_batch(std::slice::from_ref(query), budget)
            .pop()
            .unwrap_or_else(|| {
                Err(VerifyError::Internal(
                    "tiered verify_complete_batch returned no verdict for a one-query batch".into(),
                ))
            })
    }

    /// Batch complete verification with tier composition: **escalate
    /// before splitting**. The `f32` fast pass may only *prove* — a query
    /// it fully resolves (clear of the round-off envelope) comes back
    /// `Proven` with zero splits; everything else escalates to the `f64`
    /// engine's branch-and-bound, so every split is analyzed — and every
    /// refutation decided — at the precision that will judge it. Output is
    /// always the `f64` surface (widening a fast proof is lossless).
    pub fn verify_complete_batch(
        &self,
        queries: &[Query<f32>],
        budget: &crate::RefineBudget,
    ) -> Vec<Result<crate::CompleteVerdict<f64>, VerifyError>> {
        let mut out: Vec<Option<Result<crate::CompleteVerdict<f64>, VerifyError>>> =
            vec![None; queries.len()];
        let mut escalate: Vec<usize> = Vec::new();
        for (i, kept) in self.fast_pass(queries).into_iter().enumerate() {
            match kept {
                Some(v) => {
                    out[i] = Some(Ok(crate::CompleteVerdict::Proven {
                        base: Some(widen_verdict(&v)),
                        splits: 0,
                    }));
                }
                None => escalate.push(i),
            }
        }
        self.fast_pass_resolved
            .fetch_add((queries.len() - escalate.len()) as u64, Ordering::Relaxed);
        self.escalated
            .fetch_add(escalate.len() as u64, Ordering::Relaxed);
        if !escalate.is_empty() {
            let wide_queries: Vec<Query<f64>> =
                escalate.iter().map(|&i| widen_query(&queries[i])).collect();
            let full_verdicts = self.full.verify_complete_batch(&wide_queries, budget);
            for (&i, result) in escalate.iter().zip(full_verdicts) {
                out[i] = Some(result);
            }
        }
        settle_slots(out)
    }

    /// Merged counters of both tiers plus the tier split.
    ///
    /// Engine-local counters (cache activity, resident bytes, fused
    /// batches) are summed across the tiers. Device-wide counters
    /// (launches, flops, bytes moved) are shared by both tiers' common
    /// device and therefore taken once. The EWMA is the tiered engine's
    /// own, folded over escalation-weighted cost.
    pub fn stats(&self) -> EngineStats {
        let fast = self.fast.stats();
        let full = self.full.stats();
        EngineStats {
            cache_hits: fast.cache_hits + full.cache_hits,
            cache_misses: fast.cache_misses + full.cache_misses,
            monotone_hits: fast.monotone_hits + full.monotone_hits,
            resident_bytes: fast.resident_bytes + full.resident_bytes,
            // Device-wide high-water of the tiers' shared device: taken
            // once, like launches/flops.
            peak_resident_bytes: fast.peak_resident_bytes,
            relu_layers: fast.relu_layers,
            fused_batches: fast.fused_batches + full.fused_batches,
            launches: fast.launches,
            flops: fast.flops,
            bytes_moved: fast.bytes_moved,
            ewma_ms_per_cost: f64::from_bits(self.ewma_ms_per_cost.load(Ordering::Relaxed)),
            fast_pass_resolved: self.fast_pass_resolved.load(Ordering::Relaxed),
            escalated: self.escalated.load(Ordering::Relaxed),
            splits: fast.splits + full.splits,
            frontier_peak: fast.frontier_peak.max(full.frontier_peak),
            proven_by_split: fast.proven_by_split + full.proven_by_split,
            cex_found: fast.cex_found + full.cex_found,
            gather_hits: fast.gather_hits + full.gather_hits,
            gather_misses: fast.gather_misses + full.gather_misses,
            gather_evictions: fast.gather_evictions + full.gather_evictions,
        }
    }
}

/// Settles the per-query dispatch slots of a tiered batch. Every slot must
/// have been filled by either the fast-resolve or the escalation arm; a
/// slot left `None` is an engine bug, surfaced as a *typed*
/// [`VerifyError::Internal`] so serving layers reply with a structured
/// error instead of recovering a panic through `catch_unwind`.
fn settle_slots<T>(slots: Vec<Option<Result<T, VerifyError>>>) -> Vec<Result<T, VerifyError>> {
    slots
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(VerifyError::Internal(
                    "tiered dispatch left a query neither fast-resolved nor escalated".into(),
                ))
            })
        })
        .collect()
}

/// Widens a query losslessly (`f32 → f64` is exact for every value).
fn widen_query(q: &Query<f32>) -> Query<f64> {
    Query::new(
        q.image.iter().map(|&x| x as f64).collect::<Vec<f64>>(),
        q.label,
        q.eps as f64,
    )
}

/// Widens a fast-tier verdict losslessly to the `f64` output surface.
pub(crate) fn widen_verdict(v: &RobustnessVerdict<f32>) -> RobustnessVerdict<f64> {
    RobustnessVerdict {
        verified: v.verified,
        margins: v
            .margins
            .iter()
            .map(|m| Margin {
                adversary: m.adversary,
                lower: m.lower as f64,
                proven: m.proven,
            })
            .collect(),
        stats: v.stats.clone(),
    }
}

/// Narrows a full-tier verdict to `f32`, rounding every margin's lower
/// bound *toward `-inf`* so the narrowed bound is still sound. The
/// `verified`/`proven` flags are the `f64` tier's exact decisions and are
/// kept as-is.
fn narrow_verdict(v: &RobustnessVerdict<f64>) -> RobustnessVerdict<f32> {
    RobustnessVerdict {
        verified: v.verified,
        margins: v
            .margins
            .iter()
            .map(|m| Margin {
                adversary: m.adversary,
                lower: narrow_down(m.lower),
                proven: m.proven,
            })
            .collect(),
        stats: v.stats.clone(),
    }
}

/// The largest `f32` that is `<= m`: round-to-nearest narrowing followed by
/// `next_down` steps while the result still exceeds `m`. (Values beyond
/// `f32::MAX` saturate to infinity first and step back to `f32::MAX`.)
fn narrow_down(m: f64) -> f32 {
    if m.is_nan() {
        return f32::NAN;
    }
    let mut v = m as f32;
    while (v as f64) > m {
        v = v.next_down();
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpupoly_nn::builder::NetworkBuilder;

    fn zoo_net() -> Network<f32> {
        NetworkBuilder::new_flat(2)
            .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
            .relu()
            .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.5, 0.0])
            .build()
            .unwrap()
    }

    fn zoo_queries() -> Vec<Query<f32>> {
        vec![
            Query::new(vec![0.4_f32, 0.6], 0, 0.05),
            Query::new(vec![0.5_f32, 0.5], 0, 0.02),
            // Malformed: wrong image length (errors must escalate and
            // match the f64 engine's message exactly).
            Query::new(vec![0.5_f32], 0, 0.02),
            // Hard: huge eps, expected Unknown.
            Query::new(vec![0.5_f32, 0.5], 1, 0.9),
        ]
    }

    #[test]
    fn escalation_cost_weight_interpolates() {
        assert_eq!(escalation_cost_weight(0, 0), 1.0);
        assert_eq!(escalation_cost_weight(0, 10), 1.0);
        assert_eq!(escalation_cost_weight(10, 0), 3.0);
        assert_eq!(escalation_cost_weight(5, 5), 2.0);
    }

    #[test]
    fn escalation_cost_weight_survives_garbage_counters() {
        // The sum saturates instead of wrapping to a tiny total that would
        // put the ratio far above 1.
        let w = escalation_cost_weight(u64::MAX, u64::MAX);
        assert!(
            (1.0..=3.0).contains(&w),
            "saturated weight {w} out of range"
        );
        // Counter pairs near the saturation edge still clamp into range.
        assert!((1.0..=3.0).contains(&escalation_cost_weight(u64::MAX, 1)));
        assert!((1.0..=3.0).contains(&escalation_cost_weight(1, u64::MAX)));
        assert_eq!(escalation_cost_weight(u64::MAX, 0), 3.0);
        assert_eq!(escalation_cost_weight(0, u64::MAX), 1.0);
    }

    #[test]
    fn unsettled_slot_is_a_typed_error_not_a_panic() {
        // An invariant break (a slot the dispatch never filled) must come
        // back as `VerifyError::Internal`, never a panic.
        let slots: Vec<Option<Result<RobustnessVerdict<f64>, VerifyError>>> =
            vec![Some(Err(VerifyError::BadQuery("kept".into()))), None];
        let settled = settle_slots(slots);
        assert!(matches!(&settled[0], Err(VerifyError::BadQuery(m)) if m == "kept"));
        match &settled[1] {
            Err(VerifyError::Internal(msg)) => {
                assert!(msg.contains("neither fast-resolved nor escalated"));
            }
            other => panic!("expected typed Internal error, got {other:?}"),
        }
    }

    #[test]
    fn narrow_down_is_sound_and_tight() {
        // Exactly representable values are the identity.
        assert_eq!(narrow_down(0.25), 0.25_f32);
        assert_eq!(narrow_down(-3.0), -3.0_f32);
        // A value strictly between two f32s narrows to the one below,
        // even when round-to-nearest would go up.
        let above = 1.0_f32.next_up();
        let between = (1.0_f64 + above as f64) / 2.0 + 1e-12;
        assert!(narrow_down(between) as f64 <= between);
        // Saturation steps back from infinity.
        assert_eq!(narrow_down(f64::MAX), f32::MAX);
        assert_eq!(narrow_down(f64::INFINITY), f32::INFINITY);
        assert!(narrow_down(f64::NAN).is_nan());
    }

    #[test]
    fn constructor_rejects_mismatched_wide_network() {
        let net = zoo_net();
        let other = NetworkBuilder::new_flat(2)
            .dense(&[[2.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
            .build()
            .unwrap()
            .widen();
        let err = TieredEngine::new(Device::default(), &net, &other, VerifyConfig::default())
            .err()
            .expect("mismatched widened network must be rejected");
        assert!(matches!(err, VerifyError::BadQuery(_)));
    }

    #[test]
    fn tiered_verdicts_match_pure_f64_engine() {
        let net = zoo_net();
        let wide = net.widen();
        let queries = zoo_queries();
        let tiered =
            TieredEngine::new(Device::default(), &net, &wide, VerifyConfig::default()).unwrap();
        let baseline = Engine::new(Device::default(), &wide, VerifyConfig::default()).unwrap();
        let wide_queries: Vec<Query<f64>> = queries.iter().map(widen_query).collect();

        let got = tiered.verify_batch_f64(&queries);
        let want = baseline.verify_batch_fused(&wide_queries);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            match (g, w) {
                (Ok(gv), Ok(wv)) => {
                    assert_eq!(gv.verified, wv.verified);
                    for (gm, wm) in gv.margins.iter().zip(&wv.margins) {
                        assert_eq!(gm.adversary, wm.adversary);
                        assert_eq!(gm.proven, wm.proven);
                        if gm.proven {
                            // Escalated margins are bit-identical; fast-
                            // resolved ones are sound (never above f64).
                            assert!(
                                gm.lower <= wm.lower || gm.lower.to_bits() == wm.lower.to_bits()
                            );
                            assert!(gm.lower > 0.0);
                        }
                    }
                }
                (Err(ge), Err(we)) => assert_eq!(ge, we),
                _ => panic!("tiered/f64 verdicts disagree on Ok vs Err"),
            }
        }

        let stats = tiered.stats();
        assert_eq!(
            stats.fast_pass_resolved + stats.escalated,
            queries.len() as u64
        );
        // The malformed and the huge-eps query must have escalated.
        assert!(stats.escalated >= 2);
    }

    #[test]
    fn narrow_output_agrees_with_wide_output() {
        let net = zoo_net();
        let wide = net.widen();
        let tiered =
            TieredEngine::new(Device::default(), &net, &wide, VerifyConfig::default()).unwrap();
        let queries = zoo_queries();
        let narrow = tiered.verify_batch(&queries);
        let widened = tiered.verify_batch_f64(&queries);
        for (n, w) in narrow.iter().zip(&widened) {
            match (n, w) {
                (Ok(nv), Ok(wv)) => {
                    assert_eq!(nv.verified, wv.verified);
                    for (nm, wm) in nv.margins.iter().zip(&wv.margins) {
                        assert_eq!(nm.proven, wm.proven);
                        assert!((nm.lower as f64) <= wm.lower, "narrowing must round down");
                    }
                }
                (Err(ne), Err(we)) => assert_eq!(ne, we),
                _ => panic!("narrow/wide outputs disagree on Ok vs Err"),
            }
        }
    }
}

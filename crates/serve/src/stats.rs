//! Lock-free per-model serving counters, shared between the admission path
//! (connection threads) and the model's worker thread.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one resident model. All atomics; reading a snapshot never
/// blocks the serving path.
#[derive(Debug, Default)]
pub struct ModelStats {
    /// Requests waiting in the admission queue (gauge).
    pub queue_depth: AtomicU64,
    /// Requests admitted but not yet answered (gauge).
    pub in_flight: AtomicU64,
    /// Requests answered, successfully or with a per-query error.
    pub completed: AtomicU64,
    /// Requests bounced with `overloaded` at admission.
    pub rejected_overload: AtomicU64,
    /// `verify_batch` calls issued by the worker.
    pub batches: AtomicU64,
    /// Total queries across all batches.
    pub batch_items: AtomicU64,
    /// Largest coalesced batch so far.
    pub max_batch: AtomicU64,
    /// Bytes of this model's weights resident on the device.
    pub resident_bytes: AtomicU64,
    /// Engine analysis-cache hits (mirrored by the worker after each batch).
    pub cache_hits: AtomicU64,
    /// Engine analysis-cache misses (mirrored likewise).
    pub cache_misses: AtomicU64,
    /// Batches served by the engine's fused cross-query path (mirrored).
    pub fused_batches: AtomicU64,
    /// Refinable ReLU layers of the resident engine (set at startup; the
    /// depth factor of the admission-side `query_cost_hint`).
    pub relu_layers: AtomicU64,
    /// Bit pattern of the engine's measured ms-per-cost EWMA (`f64`,
    /// mirrored by the worker after each batch; `0` until warmed).
    pub ewma_ms_per_cost_bits: AtomicU64,
    /// Estimated microseconds of admitted-but-unanswered work (gauge):
    /// each admission adds its cost hint × EWMA, each reply subtracts the
    /// same amount — the queue weight cost-aware admission bounds.
    pub pending_cost_us: AtomicU64,
    /// Requests bounced because the estimated queued work exceeded the
    /// cost cap (a subset of `rejected_overload`).
    pub rejected_cost: AtomicU64,
    /// Queries resolved by the `f32` fast tier without touching `f64`
    /// (mirrored from the tiered engine; `0` for single-precision workers).
    pub fast_pass_resolved: AtomicU64,
    /// Queries escalated to the `f64` tier (mirrored likewise).
    pub escalated: AtomicU64,
    /// Queued items dropped unverified because their admission deadline
    /// had already passed when the worker popped them (each gets a typed
    /// `Expired` reply instead of burning engine time on a dead query).
    pub expired_dropped: AtomicU64,
    /// Branch-and-bound bisections spent across all `verify_complete`
    /// queries (mirrored from the engine).
    pub splits: AtomicU64,
    /// Largest refinement frontier any single generation held (mirrored).
    pub frontier_peak: AtomicU64,
    /// Queries whose verdict flipped Unknown → Proven via splitting
    /// (mirrored).
    pub proven_by_split: AtomicU64,
    /// Queries refuted by a verified concrete counterexample (mirrored).
    pub cex_found: AtomicU64,
    /// Milliseconds since the registry epoch at last use (LRU key).
    pub last_used_ms: AtomicU64,
    /// Eviction pin refcount: one pin per admitted-but-unanswered request,
    /// plus one while a replica spawn is in progress. The registry's
    /// make-room sweep may only evict models whose count is zero — a
    /// **single** atomic, so there is no two-gauge read window in which a
    /// model with live work can look evictable.
    pub pinned: AtomicU64,
    /// Unit tests only: a worker takes this lock around every batch it has
    /// popped, so a test holding it keeps the model's workers busy — with
    /// their queues drained — for exactly as long as it needs.
    #[cfg(test)]
    pub(crate) dispatch_gate: parking_lot::Mutex<()>,
}

impl ModelStats {
    /// `true` when no request is queued or in flight — safe to evict.
    pub fn idle(&self) -> bool {
        self.queue_depth.load(Ordering::Acquire) == 0 && self.in_flight.load(Ordering::Acquire) == 0
    }

    /// Takes one eviction pin (admission, or a replica spawn in progress).
    pub fn pin(&self) {
        self.pinned.fetch_add(1, Ordering::AcqRel);
    }

    /// Releases one eviction pin, saturating at zero so an unmatched
    /// release can never wrap the count into a permanent pin. Every pin is
    /// released on exactly one path: the worker's reply (including expiry
    /// and panic replies) or the admission rollback when a send bounces.
    pub fn unpin(&self) {
        let _ = self
            .pinned
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                Some(c.saturating_sub(1))
            });
    }

    /// Whether any request or maintenance operation currently pins this
    /// model against eviction.
    pub fn is_pinned(&self) -> bool {
        self.pinned.load(Ordering::Acquire) > 0
    }

    /// Records one coalesced batch of `n` queries.
    pub fn record_batch(&self, n: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_items.fetch_add(n as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// The measured ms-per-cost EWMA mirrored from the engine.
    pub fn ewma_ms_per_cost(&self) -> f64 {
        f64::from_bits(self.ewma_ms_per_cost_bits.load(Ordering::Acquire))
    }

    /// Estimated wall microseconds one query adds to the backlog: its
    /// admission cost hint converted through the measured EWMA, weighted by
    /// the observed escalation rate so a precision-tiered worker's
    /// escalations (which run the query at both widths) are priced in
    /// instead of every query being costed as a fast-tier pass. `0` while
    /// the EWMA is cold (count-based admission then governs alone); the
    /// weight is `1.0` for single-precision workers, whose tier counters
    /// stay zero.
    pub fn estimate_cost_us(&self, image: &[f32], eps: f32) -> u64 {
        let cost = gpupoly_core::query_cost_hint(
            image,
            eps,
            self.relu_layers.load(Ordering::Acquire) as usize,
        );
        let weight = gpupoly_core::escalation_cost_weight(
            self.escalated.load(Ordering::Acquire),
            self.fast_pass_resolved.load(Ordering::Acquire),
        );
        let us = cost * self.ewma_ms_per_cost() * 1000.0 * weight;
        if us.is_finite() && us > 0.0 {
            us as u64
        } else {
            0
        }
    }
}

/// The cost-aware admission test: refuse when the backlog already holds
/// pending work and this query would push the *estimated* queued wall time
/// over the cap. A query is never refused into an empty backlog (however
/// expensive, stalling it forever would be worse than running it), and a
/// cold EWMA estimates `0`, leaving the count-based queue bound in sole
/// charge — overload semantics are unchanged, only the weight is.
pub fn cost_admission_ok(pending_us: u64, incoming_us: u64, cap_us: u64) -> bool {
    pending_us == 0 || incoming_us == 0 || pending_us.saturating_add(incoming_us) <= cap_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idleness_tracks_both_gauges() {
        let s = ModelStats::default();
        assert!(s.idle());
        s.queue_depth.fetch_add(1, Ordering::Release);
        assert!(!s.idle());
        s.queue_depth.fetch_sub(1, Ordering::Release);
        s.in_flight.fetch_add(1, Ordering::Release);
        assert!(!s.idle());
        s.in_flight.fetch_sub(1, Ordering::Release);
        assert!(s.idle());
    }

    #[test]
    fn cost_admission_spares_empty_backlogs_and_caps_full_ones() {
        // Empty backlog: always admitted, however expensive.
        assert!(cost_admission_ok(0, u64::MAX, 1));
        // Cold EWMA (zero estimate): always admitted.
        assert!(cost_admission_ok(500, 0, 1));
        // Backlog + incoming within the cap: admitted.
        assert!(cost_admission_ok(400, 100, 500));
        // Over the cap: bounced.
        assert!(!cost_admission_ok(400, 101, 500));
        // Saturating add must not wrap into admission.
        assert!(!cost_admission_ok(u64::MAX, u64::MAX, u64::MAX - 1));
    }

    #[test]
    fn cost_estimate_follows_ewma_and_depth() {
        let s = ModelStats::default();
        // Cold EWMA: estimate is zero.
        assert_eq!(s.estimate_cost_us(&[0.5; 4], 0.1), 0);
        s.relu_layers.store(3, Ordering::Release);
        s.ewma_ms_per_cost_bits
            .store(2.0_f64.to_bits(), Ordering::Release);
        // width 4*0.2, 3 layers, 2 ms/cost -> 4.8 ms = 4800 us.
        let est = s.estimate_cost_us(&[0.5; 4], 0.1);
        assert!((4700..=4900).contains(&est), "estimate {est}");
        // Wider boxes estimate strictly more.
        assert!(s.estimate_cost_us(&[0.5; 4], 0.3) > est);
    }

    #[test]
    fn cost_estimate_prices_in_escalations() {
        let s = ModelStats::default();
        s.relu_layers.store(3, Ordering::Release);
        s.ewma_ms_per_cost_bits
            .store(2.0_f64.to_bits(), Ordering::Release);
        let base = s.estimate_cost_us(&[0.5; 4], 0.1);
        // Every query escalating triples the estimate (fast + full pass).
        s.escalated.store(10, Ordering::Release);
        let all_escalated = s.estimate_cost_us(&[0.5; 4], 0.1);
        assert!((all_escalated as f64 / base as f64 - 3.0).abs() < 0.05);
        // A 50/50 split lands in between.
        s.fast_pass_resolved.store(10, Ordering::Release);
        let half = s.estimate_cost_us(&[0.5; 4], 0.1);
        assert!(base < half && half < all_escalated);
    }

    #[test]
    fn batch_recording_tracks_mean_and_max() {
        let s = ModelStats::default();
        s.record_batch(3);
        s.record_batch(8);
        s.record_batch(1);
        assert_eq!(s.batches.load(Ordering::Relaxed), 3);
        assert_eq!(s.batch_items.load(Ordering::Relaxed), 12);
        assert_eq!(s.max_batch.load(Ordering::Relaxed), 8);
    }
}

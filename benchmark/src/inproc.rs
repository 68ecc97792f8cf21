//! The in-process workloads: queries handed straight to an `Engine`.

use std::time::Instant;

use gpupoly::core::{
    AnalysisStats, Engine, EngineOptions, LinearSpec, Query, RobustnessVerdict, VerifyConfig,
    VerifyError,
};
use gpupoly::device::{Backend, Device};
use gpupoly::interval::Itv;
use gpupoly::nn::Network;

use crate::traced::span;
use crate::workload::Shape;

/// What one query produced, reduced to what the gates compare: the verdict
/// and the bit patterns of the certified margins in adversary order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub verified: bool,
    pub margin_bits: Vec<u32>,
}

impl Outcome {
    pub fn of(verdict: &RobustnessVerdict<f32>) -> Self {
        Outcome {
            verified: verdict.verified,
            margin_bits: verdict.margins.iter().map(|m| m.lower.to_bits()).collect(),
        }
    }
}

/// One measured pass over a run's queries.
#[derive(Default)]
pub struct Phase {
    pub wall_s: f64,
    /// Hand-off to verdict per query; every query of a fused call carries
    /// the call's wall.
    pub latencies_ms: Vec<f64>,
    /// Per query: the outcome, or the error / refusal it met.
    pub outcomes: Vec<Result<Outcome, String>>,
    /// Work counters summed over the verdicts that carried them.
    pub stats: AnalysisStats,
}

impl Phase {
    pub fn push(&mut self, latency_ms: f64, result: Result<RobustnessVerdict<f32>, String>) {
        self.latencies_ms.push(latency_ms);
        self.outcomes.push(result.map(|v| {
            add_stats(&mut self.stats, &v.stats);
            Outcome::of(&v)
        }));
    }

    pub fn proven(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, Ok(o) if o.verified))
            .count()
    }

    pub fn errors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_err()).count()
    }
}

fn add_stats(sum: &mut AnalysisStats, s: &AnalysisStats) {
    sum.relu_nodes += s.relu_nodes;
    sum.rows_refined += s.rows_refined;
    sum.rows_skipped_stable += s.rows_skipped_stable;
    sum.rows_stopped_early += s.rows_stopped_early;
    sum.candidates += s.candidates;
    sum.chunks += s.chunks;
    sum.chunk_shrinks += s.chunk_shrinks;
}

/// Builds the engine every workload uses: default verifier configuration and
/// default engine options (weights packed, buffer pool and analysis cache on).
pub fn engine<B: Backend>(device: Device<B>, net: &Network<f32>) -> Engine<'_, f32, B> {
    let _s = span("core.engine_setup", 0);
    Engine::with_options(
        device,
        net,
        VerifyConfig::default(),
        EngineOptions::default(),
    )
    .expect("benchmark networks have no residual shape mismatch")
}

/// `Engine::verify_robustness` issued as its two public halves, so the
/// traced run can time the forward analysis and the spec walk apart. The
/// input box is built exactly as the engine builds it.
fn verify_in_halves<B: Backend>(
    engine: &Engine<'_, f32, B>,
    q: &Query<f32>,
    outputs: usize,
) -> Result<RobustnessVerdict<f32>, VerifyError> {
    let input: Vec<Itv<f32>> = q
        .image
        .iter()
        .map(|&x| Itv::new(x - q.eps, x + q.eps).clamp_to(0.0, 1.0))
        .collect();
    let analysis = {
        let _s = span("core.analyze", 0);
        engine.analyze(&input)?
    };
    let verdict = {
        let _s = span("core.spec_walk", 0);
        engine.check_spec_with(&analysis, &LinearSpec::robustness(q.label, outputs))?
    };
    let margins = (0..outputs)
        .filter(|&o| o != q.label)
        .zip(verdict.lower_bounds.iter().zip(&verdict.proven))
        .map(|(adversary, (&lower, &proven))| gpupoly::core::Margin {
            adversary,
            lower,
            proven,
        })
        .collect();
    Ok(RobustnessVerdict {
        verified: verdict.all_proven(),
        margins,
        stats: verdict.stats,
    })
}

/// Runs `queries` through `engine` in the workload's shape and times it.
/// With `halves` a `Single` query is issued as analyze + spec walk (the
/// traced run); margins are the same either way and the gates check it.
pub fn run_phase<B: Backend>(
    engine: &Engine<'_, f32, B>,
    net: &Network<f32>,
    shape: Shape,
    queries: &[Query<f32>],
    halves: bool,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    match shape {
        Shape::Single => {
            for (i, q) in queries.iter().enumerate() {
                let t0 = Instant::now();
                let result = {
                    let _s = span("core.verify", i as u64 + 1);
                    if halves {
                        verify_in_halves(engine, q, net.output_len())
                    } else {
                        engine.verify_robustness(&q.image, q.label, q.eps)
                    }
                };
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                phase.push(ms, result.map_err(|e| e.to_string()));
            }
        }
        Shape::Fused { k } => {
            for (call, batch) in queries.chunks(k).enumerate() {
                let t0 = Instant::now();
                let results = {
                    let _s = span("core.fused_call", call as u64 + 1);
                    engine.verify_batch_fused(batch)
                };
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                for result in results {
                    phase.push(ms, result.map_err(|e| e.to_string()));
                }
            }
        }
        Shape::Serve { .. } => unreachable!("serve workloads run through serve::run_phase"),
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase
}

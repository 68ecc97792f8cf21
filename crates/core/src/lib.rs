//! GPUPoly: scalable polyhedral neural-network verification on a (simulated)
//! GPU — the core contribution of *"Scaling Polyhedral Neural Network
//! Verification on GPUs"* (MLSys 2021).
//!
//! The verifier certifies robustness and safety properties of
//! fully-connected, convolutional and residual ReLU networks with the
//! DeepPoly relaxation, made scalable by:
//!
//! * expressing backsubstitution as batched (interval) matrix products on a
//!   data-parallel device ([`crate::steps`], `gpupoly-device`),
//! * exploiting convolutional sparsity through *dependence sets*
//!   ([`depset`], [`crate::steps::step_conv`] — the paper's Algorithm 1),
//! * *early termination* for ReLU neurons with fixed sign, with prefix-sum
//!   row compaction (§3.2/§4.2),
//! * memory-aware chunking when bound matrices exceed device memory (§4.2),
//! * floating-point soundness end to end: interval coefficients with
//!   outward rounding, plus (on by default) the round-off of the network's
//!   own inference, paid at every layer an expression starts from or is
//!   substituted through (§4.1, [`VerifyConfig::account_inference_error`]).
//!
//! # Quickstart
//!
//! ```
//! use gpupoly_core::{Engine, VerifyConfig};
//! use gpupoly_device::Device;
//! use gpupoly_nn::builder::NetworkBuilder;
//!
//! let net = NetworkBuilder::new_flat(2)
//!     .dense(&[[1.0_f32, -1.0], [1.0, 1.0]], &[0.0, 0.0])
//!     .relu()
//!     .dense(&[[1.0_f32, 1.0], [1.0, -1.0]], &[0.5, 0.0])
//!     .build()?;
//! let engine = Engine::new(Device::default(), &net, VerifyConfig::default())?;
//! let verdict = engine.verify_robustness(&[0.4, 0.6], 0, 0.05)?;
//! assert!(verdict.verified);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod bnb;
mod config;
pub mod depset;
mod engine;
mod error;
pub mod expr;
mod fsdp;
mod relax;
mod sharded;
pub mod steps;
mod tiered;
mod verifier;
mod walk;

pub use analysis::{Analysis, AnalysisStats, STREAMS_PER_WORKER, WALK_BYTES};
pub use bnb::CompleteVerdict;
pub use config::{RefineBudget, SplitRule, VerifyConfig};
pub use engine::{query_cost_hint, Engine, EngineOptions, EngineStats, PreparedGraph, Query};
pub use error::VerifyError;
pub use expr::ExprBatch;
pub use relax::{ReluRelax, ReluTable};
pub use sharded::{weight_shard_budget, Plan, WeightShardBudget};
pub use tiered::{escalation_cost_weight, TieredEngine};
pub use verifier::{LinearSpec, Margin, RobustnessVerdict, SpecRow, SpecVerdict};

//! The DeepPoly ReLU relaxation.
//!
//! The relaxation table is consumed by the backend's ReLU substitution
//! kernel, so the type (and its derivation) lives in `gpupoly-device`; this
//! module re-exports it so existing `gpupoly_core::ReluRelax` call sites
//! are unchanged, and with it [`ReluTable`], what a walk reads of one
//! query's ReLU layer.

pub use gpupoly_device::{ReluRelax, ReluTable};

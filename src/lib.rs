//! GPUPoly in Rust — a reproduction of *"Scaling Polyhedral Neural Network
//! Verification on GPUs"* (Müller, Serre, Singh, Püschel, Vechev, MLSys 2021).
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`interval`] — floating-point-sound directed-rounding interval arithmetic,
//! * [`device`] — the simulated GPU (kernel launches, memory accounting,
//!   prefix-sum compaction, tiled interval GEMM),
//! * [`nn`] — the neural-network substrate (layers, residual networks,
//!   inference, the Table-1 model zoo),
//! * [`train`] — synthetic datasets and normal / PGD / IBP-robust training,
//! * [`core`] — the GPUPoly engine itself (DeepPoly domain, dependence
//!   sets, early termination, chunked backsubstitution),
//! * [`baselines`] — IBP, CROWN-IBP and sparse CPU DeepPoly,
//! * [`serve`] — the batch-admission verification daemon (`gpupoly-serve`)
//!   and its line-JSON protocol + client.
//!
//! See `README.md` for a tour and `ROADMAP.md` for direction and the
//! measured record.
//!
//! # Quickstart
//!
//! ```
//! use gpupoly::core::{Engine, VerifyConfig};
//! use gpupoly::device::{Device, DeviceConfig};
//! use gpupoly::nn::builder::NetworkBuilder;
//!
//! // A tiny 2-2-2 fully-connected ReLU network.
//! let net = NetworkBuilder::new_flat(2)
//!     .dense(&[[1.0, -1.0], [1.0, 1.0]], &[0.0, 0.0])
//!     .relu()
//!     .dense(&[[1.0, 1.0], [1.0, -1.0]], &[0.5, 0.0])
//!     .build()
//!     .unwrap();
//!
//! let device = Device::new(DeviceConfig::default());
//! let engine = Engine::new(device, &net, VerifyConfig::default()).unwrap();
//! // Is the network robust around (0.4, 0.6) for label 0 within eps = 0.05?
//! let verdict = engine.verify_robustness(&[0.4, 0.6], 0, 0.05).unwrap();
//! assert!(verdict.verified);
//! ```
//!
//! # Batched verification
//!
//! For many queries against one network, [`core::Engine`] keeps the
//! network resident on the device (weights packed once), recycles
//! transient buffers, caches analyses of repeated input boxes, and fuses
//! the backsubstitution rows of a batch's queries into shared launches:
//!
//! ```
//! use gpupoly::core::{Engine, Query, VerifyConfig};
//! use gpupoly::device::Device;
//! use gpupoly::nn::builder::NetworkBuilder;
//!
//! let net = NetworkBuilder::new_flat(2)
//!     .dense(&[[1.0, -1.0], [1.0, 1.0]], &[0.0, 0.0])
//!     .relu()
//!     .dense(&[[1.0, 1.0], [1.0, -1.0]], &[0.5, 0.0])
//!     .build()
//!     .unwrap();
//! let engine = Engine::new(Device::default(), &net, VerifyConfig::default()).unwrap();
//! let queries = vec![
//!     Query::new(vec![0.4, 0.6], 0, 0.05),
//!     Query::new(vec![0.45, 0.55], 0, 0.03),
//! ];
//! assert!(engine
//!     .verify_batch_fused(&queries)
//!     .into_iter()
//!     .all(|v| v.unwrap().verified));
//! ```

pub use gpupoly_baselines as baselines;
pub use gpupoly_core as core;
pub use gpupoly_device as device;
pub use gpupoly_interval as interval;
pub use gpupoly_nn as nn;
pub use gpupoly_serve as serve;
pub use gpupoly_train as train;

//! Synthetic data and from-scratch training for the GPUPoly evaluation.
//!
//! The paper's 16 networks (Table 1) are trained normally, with PGD
//! adversarial training, or provably-robustly (DiffAI / CROWN-IBP — both
//! IBP-loss based). This crate rebuilds that pipeline without any ML
//! framework:
//!
//! * [`data`] — seeded synthetic MNIST-like / CIFAR-like datasets (the
//!   build container has no network, hence no real ones),
//! * [`backward`] — hand-written adjoints for every graph operation, both
//!   for point inference and through interval bound propagation,
//! * [`trainer`] — momentum SGD over the four regimes, a PGD attack, and
//!   the [`trainer::unstable_relu_fraction`] diagnostic that explains the
//!   early-termination behavior the paper's Tables 2–4 hinge on.
//!
//! # Example
//!
//! ```
//! use gpupoly_train::{data, trainer};
//! use gpupoly_nn::zoo::{self, Dataset};
//!
//! let mut net = zoo::build_arch(zoo::ArchId::Fc6x500, Dataset::MnistLike, 0.05, 1)?;
//! let d = data::synthetic(Dataset::MnistLike, 64, 7);
//! let report = trainer::train(&mut net, &d, &trainer::TrainConfig {
//!     epochs: 2, ..Default::default()
//! });
//! assert_eq!(report.epoch_losses.len(), 2);
//! # Ok::<(), gpupoly_nn::NetworkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backward;
pub mod data;
pub mod trainer;

pub use data::Dataset;
pub use trainer::{accuracy, pgd_attack, train, TrainConfig, TrainReport};

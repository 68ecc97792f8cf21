//! A simulated GPU device for polyhedral verification kernels.
//!
//! GPUPoly's algorithms (MLSys 2021) are defined over a data-parallel
//! shared-memory machine: a CUDA GPU with a hard device-memory capacity, bulk
//! kernel launches, a parallel prefix-sum used for stream compaction (§4.2),
//! and cutlass-tiled matrix–matrix kernels built around a custom
//! directed-rounding multiply-add (§4.1). This crate reproduces that machine
//! model on the CPU so the verifier's algorithmic structure — dependence-set
//! kernels, row compaction, memory-aware chunking — runs and is measurable
//! without CUDA:
//!
//! * [`Backend`] — the pluggable kernel surface, now covering the *whole*
//!   verifier: the GEMM family with directed rounding, scan/compaction,
//!   row gather, the walk-step kernels (GBC transpose conv, bias fold,
//!   ReLU substitution, densify, residual merge, concretize — see
//!   [`kernels`]), and host↔device/device↔device copies plus the pooling
//!   policy. [`CpuSimBackend`] is the production CPU simulation,
//!   [`ReferenceBackend`] a naive straight-line oracle for differential
//!   testing; a CUDA/wgpu port implements the same trait and must pass
//!   [`conformance::assert_backend_conformance`].
//! * [`Device`] — a worker pool with *device-memory accounting*: allocations
//!   through [`DeviceBuffer`] are charged against a configurable capacity and
//!   fail with [`DeviceError::OutOfMemory`] when exceeded, which is exactly
//!   the failure mode the paper reports for dense GPU implementations and the
//!   reason for its chunked backsubstitution. While an engine is registered
//!   ([`Device::buffer_pool_retain`]) dropped buffers are shelved and reused
//!   by capacity — a working buffer takes the smallest shelved one that
//!   holds it and is at most twice as large — and the shelf is held to
//!   [`SHELF_LIVE_MULTIPLE`] times what was ever live at once. Its
//!   [`DeviceStats`] meter attributes launches, scalar-equivalent flops and
//!   bytes moved to every kernel label.
//! * [`gemm`] / [`scan`] / [`kernels`] — the launch wrappers (dimension
//!   checks + work metering) over the backend's GEMM family, prefix-sum /
//!   compaction primitives (§4.2) and walk-step kernels. All verifier
//!   compute enters the backend through these; there is no host-closure
//!   launch API to bypass them.
//!
//! # Example
//!
//! ```
//! use gpupoly_device::{scan, Device, DeviceConfig};
//!
//! let dev = Device::new(DeviceConfig::default());
//! let (prefix, total) = scan::exclusive_scan(&dev, &[1, 0, 2, 1]);
//! assert_eq!((prefix, total), (vec![0, 1, 1, 3], 4));
//! assert!(dev.stats().launches() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod buffer;
pub mod conformance;
mod device;
pub mod gemm;
pub mod kernels;
mod relax;
pub mod scan;

pub use backend::{Backend, CpuSimBackend, ExprGeom, GbcShape, ReferenceBackend};
pub use buffer::DeviceBuffer;
pub use device::{Device, DeviceConfig, DeviceError, DeviceStats, KernelWork, SHELF_LIVE_MULTIPLE};
pub use relax::ReluRelax;

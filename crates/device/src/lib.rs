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
//!   by capacity, one shelf lane per worker: a request takes the smallest
//!   shelved buffer of its element type that holds it (its slack stays
//!   charged, and unusable, while it is live), a miss first frees the lane's
//!   largest buffer of that type, and nothing else is ever freed — so per
//!   lane and element type, shelved plus live buffers never outnumber the
//!   most that were live at once. Its
//!   [`DeviceStats`] meter attributes launches, scalar-equivalent flops and
//!   bytes moved to every kernel label.
//! * [`gemm`] / [`scan`] / [`kernels`] — the launch wrappers (dimension
//!   checks + work metering) over the backend's GEMM family, prefix-sum /
//!   compaction primitives (§4.2) and walk-step kernels. All verifier
//!   compute enters the backend through these; there is no host-closure
//!   launch API to bypass them.
//! * [`GemmBuild`] — the two builds of [`CpuSimBackend`]'s interval GEMM
//!   row kernels: baseline, and AVX-512 with wider register blocks, picked
//!   once per process by the host's CPU. They write the same bits.
//!
//! # `unsafe`
//!
//! The crate denies `unsafe_code` and allows it in one private module,
//! whose one `unsafe` is the call into the AVX-512 build of the GEMM row
//! kernels: a function compiled with `avx512f` enabled, called only after
//! `is_x86_feature_detected!("avx512f")` says the host has the feature. The
//! repository's other `unsafe` is the rayon shim's (`shims/rayon`): the
//! lifetime erasure of a job reference in `drive`, sound because no helper
//! can reach the job once `drive` returns.
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

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod buffer;
pub mod conformance;
mod device;
pub mod gemm;
pub mod kernels;
mod relax;
pub mod scan;
#[allow(unsafe_code)] // the call into the AVX-512 build; see the module docs
mod simd;

pub use backend::{Backend, CpuSimBackend, ExprGeom, GbcShape, ReferenceBackend};
pub use buffer::DeviceBuffer;
pub use device::{Device, DeviceConfig, DeviceError, DeviceStats, KernelWork};
pub use gemm::{DenseWeights, LivePanel};
pub use relax::{ReluRelax, ReluTable};
pub use simd::GemmBuild;

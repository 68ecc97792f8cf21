//! `gpupoly-serve`: a batch-admission verification daemon over
//! network-resident engines.
//!
//! The paper's scaling result is an *amortization* shape — upload the
//! network once, then push thousands of queries through it
//! ([`gpupoly_core::Engine`]). This crate puts a long-running service in
//! front of that shape so the batch API serves network traffic:
//!
//! * **registry** ([`Registry`]) — models live as `<name>.json` files in a
//!   directory; the first query for a name loads the network and makes it
//!   resident as one [`gpupoly_core::TieredEngine`] over the devices its
//!   [`Plan`] gives it: under the default plan the device with the least
//!   memory in use, under a pool plan (`--tensor-parallel` → `split_rows`,
//!   `--weight-sharded` → `shard_weights`, both → hybrid) every device,
//!   through [`gpupoly_core::TieredEngine::on_pool`] (walks dealt over the
//!   devices' stream slots, margins bit-identical to one device). With
//!   `--precision-tier` the engine escalates to an `f64` rung placed by the
//!   same plan; without, it is the `f32` engine alone. A device-memory
//!   budget is enforced per device by reclaiming shelved pool bytes, then
//!   evicting LRU-first among models not *pinned* by in-flight work.
//! * **admission batcher** ([`BatchPolicy`]) — each model has one bounded
//!   queue, drained by one thread per device; a drainer coalesces queued
//!   queries into one fused batch call (up to `max_batch` queries or
//!   `max_delay` of extra latency) and runs it while the next drainer
//!   coalesces, so concurrent clients share batches, the analysis cache
//!   and pooled buffers. A full queue answers `overloaded` immediately —
//!   backpressure is a reply, never a hang.
//! * **protocol** ([`protocol`]) — line-delimited JSON over TCP. Frames
//!   may carry an `"id"` to multiplex many outstanding requests over one
//!   connection (replies echo the id, possibly out of order); id-less
//!   frames keep the synchronous in-order contract. Every failure maps to
//!   a typed [`protocol::ErrorCode`]; panics are contained in workers and
//!   connection handlers. Margins cross the wire bit-exact.
//! * **client** ([`Client`]) — a small blocking client for tests, smoke
//!   checks and load generation, including pipelined id-tagged sends.
//!
//! The daemon binary (`gpupoly-serve`) wires this to a CLI: a model
//! directory, a port, budgets, and backend selection via the
//! `GPUPOLY_BACKEND` environment variable (`cpusim` | `reference`).
//!
//! # Example
//!
//! ```no_run
//! use gpupoly_serve::{Client, Server, ServerConfig};
//! use gpupoly_device::CpuSimBackend;
//!
//! let server = Server::<CpuSimBackend>::bind("127.0.0.1:0", ServerConfig::new("models"))?;
//! let handle = server.spawn();
//! let mut client = Client::connect(handle.addr())?;
//! let verdict = client.verify("mnist_6x500", &vec![0.5; 784], 3, 0.01)?;
//! println!("verified: {}", verdict.verified);
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
pub mod client;
pub mod protocol;
mod registry;
mod server;
mod stats;

pub use batcher::{BatchPolicy, WorkError, WorkOutput, WorkReply};
pub use client::{Client, ClientError, CompleteOutcome, Verdict};
pub use gpupoly_core::Plan;
pub use registry::{Registry, RegistryConfig, SubmitError};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stats::ModelStats;

//! The repository's one benchmark: four workloads measured end to end on the
//! production backend, and layer by layer through a tracing `Backend`.
//! See `README.md` beside this crate.

pub mod catalogue;
pub mod check;
pub mod inproc;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod traced;
pub mod workload;

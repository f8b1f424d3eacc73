//! End-to-end and per-layer benchmark of the pqopt optimizer service.
//!
//! Three closed-loop workloads run through the public
//! `pqopt::service::OptimizerService`. The untraced run (`--trace 0`)
//! reports the end-to-end metrics; the traced run (`--trace 1`) replays
//! the same stream one layer at a time and reports per-layer metrics. See
//! `README.md` next to this crate for the design.

pub mod drive;
pub mod e2e;
pub mod oracle;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;

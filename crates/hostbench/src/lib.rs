//! # hera-hostbench — the repo's host-time benchmark
//!
//! The simulator has two clocks. Virtual cycles are the reproduced
//! result and are pinned by the tier-1 goldens; this crate measures the
//! other one: host nanoseconds, end to end on eight workloads and layer
//! by layer **from outside**, by timing calls into the crates' public
//! functions. See `README.md` for the metric tables, the layer →
//! end-to-end → workload map and the timing protocol.

pub mod bench;
pub mod cells;
pub mod compare;
pub mod span;
pub mod stats;
pub mod units;

pub use bench::{run, Metric, RunOpts, RunResult, END_TO_END, PER_LAYER};
pub use cells::{workload, Size, WORKLOADS};

//! # hera-bench — the experiment harness
//!
//! One function per paper table/figure (see `DESIGN.md §5` for the
//! experiment index). The `figures` binary prints each experiment in the
//! paper's shape next to the paper's reported numbers; the Criterion
//! benches under `benches/` wrap the same runners for regression
//! tracking.
//!
//! All experiments measure *virtual machine time* — the simulated cycle
//! counts from `hera-cell` — not host wall-clock, so results are
//! deterministic and host-independent.

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::*;

//! # hera-cell — the Cell processor machine model
//!
//! The paper's evaluation ran on a PlayStation 3's Cell processor. That
//! hardware (and its SPE ISA) is unavailable, so this crate provides the
//! synthetic substitute: a cycle-*cost* model (not a cycle-accurate
//! pipeline) capturing the structure that drives the paper's results:
//!
//! * **Two core kinds.** The PPE is a general-purpose core with hardware
//!   L1/L2 caches in front of main memory; SPEs have strong floating
//!   point, no branch prediction (taken branches are expensive), a 256 KB
//!   software-managed local store with 3–6 cycle access, and *no* direct
//!   main-memory access — everything moves by MFC DMA (≈30–50 cycle
//!   setup, then bulk transfer over the shared memory interface).
//! * **Shared-bandwidth contention.** All DMA traffic funnels through
//!   one memory interface ([`eib::Eib`]); as more SPEs stream data the
//!   queueing delay grows, which is what bounds scalability for
//!   memory-bound workloads (Figure 4(b)).
//! * **Cycle accounting by operation class** ([`counters`]), reproducing
//!   the Figure 5 breakdown (floating point / integer / branch / stack /
//!   local memory / main memory).
//!
//! Absolute constants are calibrated, not measured; see
//! `DESIGN.md §4.6` and `EXPERIMENTS.md` for the calibration story.

#![forbid(unsafe_code)]

pub mod cost;
pub mod counters;
pub mod eib;
pub mod hwcache;
pub mod machine;
pub mod spe;

pub use cost::{CostModel, DmaParams, ExecOp, OpCosts};
pub use counters::{ChargeRun, CycleBreakdown, OpClass};
pub use eib::Eib;
pub use hwcache::{HwCache, HwCacheParams, HwCacheStats};
pub use machine::{
    CellConfig, CellMachine, CoreId, CoreKind, FaultStats, MfcFault, ProfScope, ProfScopeAll,
};
pub use spe::{LocalStore, StorePartition};

// Fault-plan types ride inside `CellConfig`; re-export them so consumers
// configuring chaos runs don't need a direct `hera-faults` dependency.
pub use hera_faults::{FaultKind, FaultPlan, FaultPlanError, FaultSite, SpeDeath};

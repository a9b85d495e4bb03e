//! hera-trace: virtual-time tracing and metrics substrate for the Hera-JVM
//! simulator.
//!
//! The simulator advances a deterministic *virtual* clock per core (PPE plus
//! one lane per SPE).  This crate records typed [`TraceEvent`]s into per-core
//! lanes stamped with that clock, so two identical runs produce byte-identical
//! traces.  It knows nothing about the simulator's types — lanes are plain
//! indices, methods/objects/classes are plain ids — which keeps the crate at
//! the bottom of the dependency graph with zero external dependencies.
//!
//! Three consumers ship with the crate:
//! - [`MetricsRegistry`]: named counters and log2-bucketed histograms;
//!   the simulator's typed stats structs are declared through
//!   [`counters!`], which exports their counters into it;
//! - [`chrome_trace_json`] / [`chrome_trace_json_named`]: Chrome
//!   trace-event JSON (Perfetto / chrome://tracing loadable, one track per
//!   core lane), methods shown as `m<id>` or by a name table;
//! - [`text_summary`]: a plain-text per-core digest.
//!
//! Tracing is zero-cost when disabled: every hook in the simulator is a
//! single `if sink.is_enabled()` branch, and no virtual cycles are ever
//! charged for observation, so enabling tracing cannot perturb simulated
//! time.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod cost;
pub mod event;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod summary;

pub use chrome::{chrome_trace_json, chrome_trace_json_named, fleet_trace_json};
pub use cost::{CostClass, CostVec};
pub use event::{BarrierKind, DmaTag, GcPhase, InjectedFault, MigrationKind, TraceEvent};
pub use metrics::{
    nearest_rank, ExactPercentiles, Histogram, MetricsRegistry, StreamingPercentile, TimeSeries,
};
pub use sink::{Lane, TimedEvent, TraceSink};
pub use span::{FleetSpan, FlowArrow, FlowKind, SpanKind};
pub use summary::text_summary;

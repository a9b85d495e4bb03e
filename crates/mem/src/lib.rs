//! # hera-mem — the main-memory substrate
//!
//! Models the Cell's main memory as a flat byte array with an explicit
//! object model, a free-list allocator, and a stop-the-world
//! mark-and-sweep collector core (the paper configures Hera-JVM with a
//! mark-and-sweep, stop-the-world collector that runs only on the PPE).
//!
//! Objects are laid out with an 8-byte header followed by fields at
//! computed offsets; arrays carry their element type and length in the
//! header. Static fields live in a *statics block* at a fixed heap
//! address, mirroring JikesRVM's JTOC: on the SPE, static accesses go
//! through the software data cache like any other main-memory access.
//!
//! Keeping the heap as raw bytes is load-bearing for the reproduction:
//! the SPE software cache (see `hera-softcache`) copies byte ranges over
//! simulated DMA, so stale reads, write-back granularity and transfer
//! sizes are all real data movement rather than abstractions.

#![forbid(unsafe_code)]

pub mod gc;
pub mod heap;
pub mod layout;

pub use gc::{Collector, GcOutcome};
pub use heap::{Header, Heap, HeapConfig, HeapError, HeapKind};
pub use layout::{ClassLayout, ProgramLayout, StaticsLayout};

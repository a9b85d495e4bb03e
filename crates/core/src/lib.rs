//! # hera-core — the Hera-JVM runtime
//!
//! This is the paper's primary contribution: a virtual machine that
//! *hides* the Cell processor's heterogeneity behind the illusion of a
//! homogeneous, multi-threaded JVM. Unmodified guest programs run across
//! the PPE and SPE cores; the runtime transparently
//!
//! * JIT-compiles each method per core type, on first use there
//!   (`hera-jit`);
//! * migrates threads between core kinds when they invoke annotated
//!   methods or when the placement policy decides to, using *migration
//!   markers* on the stack so a return transparently migrates back
//!   (§3.1);
//! * interposes the SPE software data/code caches on every main-memory
//!   access from an SPE, with JMM-conformant purge/write-back at
//!   synchronisation points (`hera-softcache`, §3.2.1–2);
//! * bridges native methods: JNI natives migrate the thread to the PPE
//!   for their duration, fast syscalls are proxied by a dedicated PPE
//!   service thread (§3.2.3);
//! * runs a stop-the-world mark-and-sweep collector on the PPE only,
//!   flushing SPE caches first (§4).
//!
//! ## Quick start
//!
//! ```
//! use hera_isa::{ProgramBuilder, MethodBody, MethodBuilder, Ty};
//! use hera_core::{HeraJvm, VmConfig};
//!
//! let mut b = ProgramBuilder::new();
//! let main = b.add_class("Main", None);
//! let mut mb = MethodBuilder::new();
//! mb.const_i32(6).const_i32(7).imul().return_value();
//! b.add_static_method(main, "main", vec![], Some(Ty::Int), 0,
//!                     MethodBody::Bytecode(mb.finish()));
//! let program = b.finish_with_entry("Main", "main").unwrap();
//!
//! let vm = HeraJvm::new(program, VmConfig::default()).unwrap();
//! let outcome = vm.run().unwrap();
//! assert_eq!(outcome.result, Some(hera_isa::Value::I32(42)));
//! ```

// The interpreter's three arena / op-stream accessors are the repo's only
// `unsafe`; each opts back in with `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]

pub mod interp;
pub mod monitor;
pub mod native;
pub mod policy;
pub mod pool;
pub mod snapshot;
pub mod stats;
pub mod thread;
pub mod vm;
pub mod world;

/// `hera-jit`'s generator of fusion-dense methods, shared at source
/// level: `interp::tests` runs its programs fused and head by head.
#[cfg(test)]
#[path = "../../jit/src/testgen.rs"]
mod testgen;

pub use native::StdNative;
pub use policy::PlacementPolicy;
pub use pool::WorkerPool;
pub use snapshot::{CheckpointBlob, RestoreMode, SnapshotInfo};
pub use stats::RunStats;
pub use thread::{BlockReason, ThreadId, ThreadState};
pub use vm::{HeraJvm, RunEnd, RunOutcome, StuckThread, VmConfig, VmError};

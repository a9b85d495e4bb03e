//! # hera-jit — the per-core-type baseline compiler
//!
//! JikesRVM (and thus Hera-JVM) is a non-interpreting JVM: every method
//! is compiled to machine code before execution. Hera-JVM adds a second
//! back-end so the same bytecode can be compiled for either the PPE or
//! the SPE instruction set, *on demand, per core type*: "a method will
//! only be compiled for a particular core architecture if it is to be
//! executed by a thread running on that core type" (§3.1).
//!
//! This crate is that compiler pair. It lowers verified guest bytecode
//! ([`hera_isa::Instr`]) into resolved [`MachineOp`] streams:
//!
//! * **PPE code** uses *direct* heap operations — loads/stores that go
//!   through the PPE's hardware cache hierarchy;
//! * **SPE code** uses *software-cache* operations — every main-memory
//!   access becomes a call into the SPE data cache (`hera-softcache`),
//!   and field offsets/volatile flags are baked in at compile time.
//!
//! The two streams are deliberately not interchangeable (you cannot run
//! SPE code on the PPE), which is what makes the [`registry`]'s
//! "compiled once per used core type" accounting meaningful — the claim
//! behind the paper's low dual-architecture compilation overhead.

#![forbid(unsafe_code)]

pub mod compile;
pub mod machine_op;
pub mod registry;
#[cfg(test)]
mod testgen;

pub use compile::{compile_method, CompileError};
pub use machine_op::{ArithOp, BranchKind, MachineOp};
pub use registry::{CompiledMethod, MethodRegistry, RegistryStats};

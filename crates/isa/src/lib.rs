//! # hera-isa — the guest instruction-set architecture
//!
//! This crate defines the portable, JVM-like bytecode that Hera-JVM
//! executes, together with the class/field/method metadata model, a
//! program container with symbolic resolution, a method builder with
//! label patching, a bytecode verifier, and a disassembler.
//!
//! The instruction set is deliberately shaped like JVM bytecode: it is a
//! typed stack machine whose heap accesses (`GetField`, `ALoad`, …) carry
//! enough static type information for the SPE software caches to
//! specialise transfers per data type, exactly the property §3.2.1 of the
//! paper exploits ("This approach is enhanced by the high-level
//! information still present in Java bytecodes").
//!
//! ## Divergences from real JVM bytecode (documented per DESIGN.md)
//!
//! * No catchable exceptions or exception tables: runtime faults (null
//!   dereference, bounds, division by zero) are VM traps that terminate
//!   the faulting thread with a [`bytecode::Trap`] error.
//! * `FSqrt`/`DSqrt` exist as intrinsic instructions (real JITs
//!   intrinsify `Math.sqrt` the same way).
//! * Constant pool entries are resolved at build time; instructions carry
//!   direct indices ([`program::MethodId`], [`program::FieldId`], …).

#![forbid(unsafe_code)]

pub mod builder;
pub mod bytecode;
pub mod class;
pub mod disasm;
pub mod program;
pub mod types;
pub mod verifier;

pub use builder::MethodBuilder;
pub use bytecode::{Cond, Instr, Trap};
pub use class::{Annotation, ClassDef, FieldDef, MethodBody, MethodDef, NativeId};
pub use program::{ClassId, FieldId, MethodId, Program, ProgramBuilder, ResolveError};
pub use types::{ElemTy, Kind, ObjRef, Slot, Ty, Value};
pub use verifier::{verify_method, verify_program, MethodInfo, RefMap, VerifyError};

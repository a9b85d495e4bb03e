//! # hera-frontend — a mini-Java compiler for authoring guest programs
//!
//! SPECjvm sources are not redistributable and there is no Java
//! toolchain in this reproduction, so guest workloads are written
//! against this crate: a typed expression/statement AST compiled to
//! `hera-isa` bytecode. It is `javac` in miniature — local-variable
//! allocation, type inference for operator selection (`IAdd` vs `FAdd`),
//! short-circuit booleans, branch fusion for comparisons in conditions,
//! `synchronized` blocks, and the `iinc` peephole.
//!
//! References (methods, fields, classes) are resolved *ids*, not names:
//! declare every signature first (getting ids back), then supply bodies
//! that mention those ids — mutual recursion falls out naturally.
//!
//! ```
//! use hera_frontend::*;
//! use hera_isa::{ProgramBuilder, Ty};
//!
//! let mut pb = ProgramBuilder::new();
//! let cls = pb.add_class("Math", None);
//! let fact = declare_static(&mut pb, cls, "fact", vec![("n", Ty::Int)], Some(Ty::Int));
//! define(
//!     &mut pb,
//!     fact,
//!     vec![("n", Ty::Int)],
//!     vec![
//!         Stmt::ret_if(cmp_le(local("n"), i32c(1)), i32c(1)),
//!         Stmt::Return(Some(mul(
//!             local("n"),
//!             call(fact, vec![sub(local("n"), i32c(1))]),
//!         ))),
//!     ],
//! )
//! .unwrap();
//! let program = pb.finish().unwrap();
//! hera_isa::verify_program(&program).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod codegen;

pub use ast::*;
pub use codegen::{declare_static, declare_virtual, define, CompileError};

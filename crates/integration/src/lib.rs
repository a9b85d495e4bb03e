//! # hera-integration — cross-crate test support
//!
//! This crate exists for its `tests/` directory: end-to-end and property
//! tests spanning the whole stack (frontend → ISA → JIT → runtime →
//! machine model). The library itself only hosts small shared helpers.

#![forbid(unsafe_code)]

pub mod fleets;
pub mod minijson;

use hera_core::{HeraJvm, RunOutcome, VmConfig};
use hera_isa::Program;

/// Build a VM and run it, panicking (with context) on VM-level errors.
/// Guest traps are *not* hidden — inspect the outcome.
pub fn run_program(program: Program, config: VmConfig) -> RunOutcome {
    let vm = HeraJvm::new(program, config).expect("program should construct");
    vm.run().expect("run should not hit VM errors")
}

/// Run the same program pinned to the PPE and to `spes` SPE cores,
/// returning both outcomes (for result-equality and timing-shape
/// assertions).
pub fn run_both(program: Program, spes: u8) -> (RunOutcome, RunOutcome) {
    let ppe = run_program(program.clone(), VmConfig::pinned_ppe());
    let spe = run_program(program, VmConfig::pinned_spe(spes));
    (ppe, spe)
}

/// Allocation pressure with *dead* garbage on a 64 KiB heap: 3000 ×
/// 256+ B of it, so the run survives only by collecting. Free spans keep
/// their stale bytes, which is the heap image a snapshot must carry; the
/// run checkpoints every 200 000 cycles. Shared by `tests/snap.rs`
/// (post-GC checkpoint bytes) and `tests/chrome.rs` (GC / checkpoint /
/// restore trace events).
pub fn gc_pressure_vm() -> HeraJvm {
    use hera_frontend::*;
    use hera_isa::{ElemTy, ProgramBuilder, Ty};
    let body = vec![
        Stmt::Let("keep".into(), new_array(ElemTy::Int, i32c(64))),
        for_range(
            "i",
            i32c(0),
            i32c(3_000),
            vec![
                Stmt::Assign("keep".into(), new_array(ElemTy::Int, i32c(64))),
                Stmt::SetIndex(local("keep"), i32c(0), local("i")),
            ],
        ),
        Stmt::Return(Some(index(local("keep"), i32c(0)))),
    ];
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(&mut pb, main, vec![], body).expect("main should compile");
    let program = pb
        .finish_with_entry("Main", "main")
        .expect("program resolves");
    let mut cfg = VmConfig::pinned_ppe().with_checkpoint_every(200_000);
    cfg.heap.size_bytes = 64 << 10;
    HeraJvm::new(program, cfg).expect("constructs")
}

//! # hera-integration — cross-crate test support
//!
//! This crate exists for its `tests/` directory: end-to-end and property
//! tests spanning the whole stack (frontend → ISA → JIT → runtime →
//! machine model). The library itself only hosts small shared helpers.

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

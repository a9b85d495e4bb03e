//! The per-core compiled-method registry.
//!
//! A method is compiled for a core type the first time a thread running
//! on that core invokes it — and *only* then. Because most applications
//! partition cleanly between code that runs on the PPE and code that
//! runs on the SPEs, "the compilation overhead (both in time and memory
//! requirements) of running an application on the two core architectures
//! should be little more than running on a single architecture" (§3.1).
//! The registry's statistics let the E7 ablation quantify that claim.

use crate::compile::{compile_method, CompileError};
use crate::machine_op::MachineOp;
use hera_cell::CoreKind;
use hera_isa::{MethodId, Program};
use hera_mem::ProgramLayout;
use std::collections::HashMap;
use std::rc::Rc;

/// A method compiled for one core kind.
///
/// Carries the verifier's frame facts (`max_stack`, `max_locals`,
/// per-op [`RefMap`]s) so the runtime can carve fixed-size untagged
/// frames out of a thread's slot arena and still scan GC roots exactly.
/// Slot *i* of `ops` is bytecode pc *i* — that instruction's op, or a
/// fused op whose [`MachineOp::head`] is that op — so op indices coincide
/// with bytecode pcs and the maps transfer unchanged to compiled code on
/// both core kinds.
///
/// [`RefMap`]: hera_isa::RefMap
#[derive(Clone, PartialEq, Debug)]
pub struct CompiledMethod {
    /// The source method.
    pub method: MethodId,
    /// Target core kind.
    pub core: CoreKind,
    /// The op stream, one slot per bytecode pc.
    pub ops: Vec<MachineOp>,
    /// Estimated native code bytes (drives the SPE code cache).
    pub code_bytes: u32,
    /// Cycles the baseline compiler spent producing this code.
    pub compile_cycles: u64,
    /// Operand-stack capacity of every frame (verifier's `max_stack`).
    pub max_stack: u16,
    /// Local-variable slot count of every frame.
    pub max_locals: u16,
    /// GC reference map per op, indexed by pc (entry state of that op).
    pub ref_maps: Vec<hera_isa::RefMap>,
}

/// Aggregate registry statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Methods compiled for the PPE.
    pub ppe_compilations: u64,
    /// Methods compiled for the SPE.
    pub spe_compilations: u64,
    /// Methods compiled for *both* core kinds (the dual-compilation
    /// overlap the paper argues stays small).
    pub dual_compiled: u64,
    /// Total compiler cycles spent, per core kind.
    pub ppe_compile_cycles: u64,
    /// Total compiler cycles spent on SPE code.
    pub spe_compile_cycles: u64,
    /// Total estimated code bytes, PPE.
    pub ppe_code_bytes: u64,
    /// Total estimated code bytes, SPE.
    pub spe_code_bytes: u64,
}

/// Cache of compiled methods keyed by `(method, core kind)`.
pub struct MethodRegistry {
    compiled: HashMap<(MethodId, CoreKind), Rc<CompiledMethod>>,
    stats: RegistryStats,
}

impl MethodRegistry {
    /// An empty registry.
    pub fn new() -> MethodRegistry {
        MethodRegistry {
            compiled: HashMap::new(),
            stats: RegistryStats::default(),
        }
    }

    /// Fetch the compiled form of `method` for `core`, compiling it just
    /// in time if this is the first execution on that core kind.
    ///
    /// Returns the compiled method and the compile cycles incurred *by
    /// this call* (zero on a registry hit) so the caller can charge the
    /// JIT time to the executing core's clock.
    pub fn get_or_compile(
        &mut self,
        program: &Program,
        layout: &ProgramLayout,
        method: MethodId,
        core: CoreKind,
    ) -> Result<(Rc<CompiledMethod>, u64), CompileError> {
        if let Some(hit) = self.compiled.get(&(method, core)) {
            return Ok((Rc::clone(hit), 0));
        }
        let compiled = Rc::new(compile_method(program, layout, method, core)?);
        let cycles = compiled.compile_cycles;
        match core {
            CoreKind::Ppe => {
                self.stats.ppe_compilations += 1;
                self.stats.ppe_compile_cycles += cycles;
                self.stats.ppe_code_bytes += compiled.code_bytes as u64;
            }
            CoreKind::Spe => {
                self.stats.spe_compilations += 1;
                self.stats.spe_compile_cycles += cycles;
                self.stats.spe_code_bytes += compiled.code_bytes as u64;
            }
        }
        let other = match core {
            CoreKind::Ppe => CoreKind::Spe,
            CoreKind::Spe => CoreKind::Ppe,
        };
        if self.compiled.contains_key(&(method, other)) {
            self.stats.dual_compiled += 1;
        }
        self.compiled.insert((method, core), Rc::clone(&compiled));
        Ok((compiled, cycles))
    }

    /// Whether a method is already compiled for a core kind.
    pub fn is_compiled(&self, method: MethodId, core: CoreKind) -> bool {
        self.compiled.contains_key(&(method, core))
    }

    /// Registry statistics so far.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// Every `(method, core)` key with compiled code, sorted by method id
    /// then core kind (PPE first). Snapshot support: a restored run
    /// recompiles exactly this set eagerly, then overwrites the stats with
    /// [`MethodRegistry::set_stats`] so compile accounting is not repaid.
    pub fn compiled_keys(&self) -> Vec<(MethodId, CoreKind)> {
        let mut keys: Vec<(MethodId, CoreKind)> = self.compiled.keys().copied().collect();
        keys.sort_unstable_by_key(|&(m, core)| (m.0, core != CoreKind::Ppe));
        keys
    }

    /// Overwrite the statistics (snapshot restore only).
    pub fn set_stats(&mut self, stats: RegistryStats) {
        self.stats = stats;
    }

    /// Number of distinct (method, core) entries.
    pub fn len(&self) -> usize {
        self.compiled.len()
    }

    /// Whether no method has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.compiled.is_empty()
    }
}

impl Default for MethodRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_isa::{Instr, MethodBody, ProgramBuilder, Ty};

    fn fixture() -> (Program, ProgramLayout, MethodId, MethodId) {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let m1 = b.add_static_method(
            c,
            "a",
            vec![],
            Some(Ty::Int),
            0,
            MethodBody::Bytecode(vec![Instr::ConstI32(1), Instr::ReturnValue]),
        );
        let m2 = b.add_static_method(
            c,
            "b",
            vec![],
            Some(Ty::Int),
            0,
            MethodBody::Bytecode(vec![Instr::ConstI32(2), Instr::ReturnValue]),
        );
        let p = b.finish().unwrap();
        let l = ProgramLayout::compute(&p);
        (p, l, m1, m2)
    }

    #[test]
    fn first_compile_charges_cycles_then_hits_are_free() {
        let (p, l, m1, _) = fixture();
        let mut reg = MethodRegistry::new();
        let (_, cycles1) = reg.get_or_compile(&p, &l, m1, CoreKind::Spe).unwrap();
        assert!(cycles1 > 0);
        let (_, cycles2) = reg.get_or_compile(&p, &l, m1, CoreKind::Spe).unwrap();
        assert_eq!(cycles2, 0);
        assert_eq!(reg.stats().spe_compilations, 1);
    }

    #[test]
    fn per_core_entries_are_independent() {
        let (p, l, m1, _) = fixture();
        let mut reg = MethodRegistry::new();
        reg.get_or_compile(&p, &l, m1, CoreKind::Ppe).unwrap();
        assert!(reg.is_compiled(m1, CoreKind::Ppe));
        assert!(!reg.is_compiled(m1, CoreKind::Spe));
        reg.get_or_compile(&p, &l, m1, CoreKind::Spe).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.stats().dual_compiled, 1);
    }

    #[test]
    fn partitioned_execution_avoids_dual_compilation() {
        let (p, l, m1, m2) = fixture();
        let mut reg = MethodRegistry::new();
        reg.get_or_compile(&p, &l, m1, CoreKind::Ppe).unwrap();
        reg.get_or_compile(&p, &l, m2, CoreKind::Spe).unwrap();
        let s = reg.stats();
        assert_eq!(s.dual_compiled, 0);
        assert_eq!(s.ppe_compilations, 1);
        assert_eq!(s.spe_compilations, 1);
    }

    #[test]
    fn code_bytes_accumulate() {
        let (p, l, m1, m2) = fixture();
        let mut reg = MethodRegistry::new();
        reg.get_or_compile(&p, &l, m1, CoreKind::Spe).unwrap();
        reg.get_or_compile(&p, &l, m2, CoreKind::Spe).unwrap();
        assert!(reg.stats().spe_code_bytes > 0);
        assert_eq!(reg.stats().ppe_code_bytes, 0);
    }
}

//! The baseline compiler: one pass, bytecode → machine ops, per core.
//!
//! Slot *i* of the op stream is bytecode pc *i*: it holds that
//! instruction's machine op, or a fused op whose [`MachineOp::head`] is
//! that op and whose remaining parts are the ops of the slots after it
//! (every slot is filled independently, so a branch into the middle of
//! a fused sequence lands on a slot that is correct by itself). Branch
//! targets, per-pc GC maps and snapshot pcs therefore carry over
//! unchanged, and code size and compile cost are those of the 1:1
//! lowering — the paper's *baseline* (non-optimising) compiler, used for
//! both PPE and SPE code in every experiment (§4). What a fused op
//! saves is host-side dispatch only.

use crate::machine_op::{ArithOp, BranchKind, MachineOp};
use crate::registry::CompiledMethod;
use hera_cell::CoreKind;
use hera_isa::{Instr, MethodId, Program};
use hera_mem::ProgramLayout;
use std::fmt;

/// Compilation failures (all indicate malformed input that verification
/// would have rejected; surfaced as errors for robustness).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The method has no bytecode body (native methods are not
    /// compiled; the runtime bridges them instead).
    NativeMethod(MethodId),
    /// A virtual call target has no vtable slot (i.e. it is not a
    /// virtually dispatchable method).
    NoVtableSlot(MethodId),
    /// The method failed verification. The baseline compiler derives
    /// frame sizes and GC maps from the verifier, so unverifiable code
    /// cannot be compiled even when whole-program verification was
    /// disabled in the VM configuration.
    Unverifiable(hera_isa::VerifyError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NativeMethod(m) => write!(f, "method #{} is native", m.0),
            CompileError::NoVtableSlot(m) => {
                write!(f, "method #{} has no vtable slot", m.0)
            }
            CompileError::Unverifiable(e) => write!(f, "unverifiable method: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Estimated native code bytes for one machine op on a core.
///
/// SPE instructions are 4 bytes; baseline-compiled stack ops expand to a
/// handful of instructions, and software-cache accesses inline a hash
/// probe and miss stub, so they are much fatter. These estimates drive
/// the SPE code cache occupancy (Figure 7); only relative sizes matter.
fn op_code_bytes(op: &MachineOp, core: CoreKind) -> u32 {
    let unit = 4; // both ISAs use 4-byte instructions
    let instrs = match op {
        MachineOp::PushI32(_)
        | MachineOp::PushI64(_)
        | MachineOp::PushF32(_)
        | MachineOp::PushF64(_)
        | MachineOp::PushNull => 3,
        MachineOp::Pop | MachineOp::Dup | MachineOp::DupX1 | MachineOp::Swap => 2,
        MachineOp::LoadLocal(_) | MachineOp::StoreLocal(_) => 3,
        MachineOp::IncLocal(_, _) => 4,
        MachineOp::Arith(a) if a.arity() == 1 => 4,
        MachineOp::Arith(_) => 6,
        MachineOp::Branch(_, _) => 3,
        MachineOp::NewObject { .. } | MachineOp::NewArray { .. } => 10,
        MachineOp::InstanceOf { .. } => 8,
        // Direct (PPE) heap access: load/store plus null/bounds checks.
        MachineOp::GetFieldDirect { .. } | MachineOp::PutFieldDirect { .. } => 5,
        MachineOp::GetStaticDirect { .. } | MachineOp::PutStaticDirect { .. } => 4,
        MachineOp::ArrLoadDirect { .. } | MachineOp::ArrStoreDirect { .. } => 7,
        MachineOp::ArrLenDirect => 3,
        // Cached (SPE) heap access: inline hash probe + miss call stub.
        MachineOp::GetFieldCached { .. } | MachineOp::PutFieldCached { .. } => 18,
        MachineOp::GetStaticCached { .. } | MachineOp::PutStaticCached { .. } => 14,
        MachineOp::ArrLoadCached { .. } | MachineOp::ArrStoreCached { .. } => 22,
        MachineOp::ArrLenCached => 10,
        MachineOp::InvokeStatic { .. } => 8,
        MachineOp::InvokeVirtual { .. } => {
            // SPE dispatch walks TOC → TIB → code (double dereference).
            match core {
                CoreKind::Ppe => 10,
                CoreKind::Spe => 16,
            }
        }
        MachineOp::Return { .. } => 6,
        MachineOp::MonitorEnter | MachineOp::MonitorExit => 12,
        fused => {
            return (0..fused.parts())
                .map(|i| op_code_bytes(&fused.part(i), core))
                .sum()
        }
    };
    instrs * unit
}

/// Cycles the baseline compiler spends per lowered op, plus fixed cost.
const COMPILE_CYCLES_PER_OP: u64 = 120;
const COMPILE_CYCLES_FIXED: u64 = 1500;

/// Compile a bytecode method for one core kind.
///
/// Field offsets come from the [`ProgramLayout`]; volatile flags are
/// baked into the access ops so the SPE interpreter can apply the JMM
/// coherence actions without metadata lookups.
pub fn compile_method(
    program: &Program,
    layout: &ProgramLayout,
    method: MethodId,
    core: CoreKind,
) -> Result<CompiledMethod, CompileError> {
    let def = program.method(method);
    let code = def.code().ok_or(CompileError::NativeMethod(method))?;

    // Frame sizing and GC maps come from the verifier's dataflow; one op
    // slot per pc keeps its per-pc facts valid for the op stream.
    let info = hera_isa::verify_method(program, method).map_err(CompileError::Unverifiable)?;

    let mut ops = Vec::with_capacity(code.len());
    for &instr in code {
        ops.push(lower(program, layout, instr, core)?);
    }

    // The modelled compiler is the 1:1 one: size and cost come from the
    // plain stream, before any slot is fused.
    let code_bytes: u32 = 32 + ops.iter().map(|op| op_code_bytes(op, core)).sum::<u32>();
    let compile_cycles = COMPILE_CYCLES_FIXED + COMPILE_CYCLES_PER_OP * ops.len() as u64;

    // Fuse in place, front to back: slot `i` reads only plain ops, its
    // own and those after it.
    for i in 0..ops.len() {
        ops[i] = MachineOp::fuse(&ops[i..]);
    }

    Ok(CompiledMethod {
        method,
        core,
        ops,
        code_bytes,
        compile_cycles,
        max_stack: info.max_stack,
        max_locals: info.max_locals,
        ref_maps: info.ref_maps,
    })
}

fn lower(
    program: &Program,
    layout: &ProgramLayout,
    instr: Instr,
    core: CoreKind,
) -> Result<MachineOp, CompileError> {
    use Instr::*;
    Ok(match instr {
        ConstI32(v) => MachineOp::PushI32(v),
        ConstI64(v) => MachineOp::PushI64(v),
        ConstF32(v) => MachineOp::PushF32(v),
        ConstF64(v) => MachineOp::PushF64(v),
        ConstNull => MachineOp::PushNull,
        Pop => MachineOp::Pop,
        Dup => MachineOp::Dup,
        DupX1 => MachineOp::DupX1,
        Swap => MachineOp::Swap,
        Load(s) => MachineOp::LoadLocal(s),
        Store(s) => MachineOp::StoreLocal(s),
        IInc(s, d) => MachineOp::IncLocal(s, d),

        IAdd => MachineOp::Arith(ArithOp::IAdd),
        ISub => MachineOp::Arith(ArithOp::ISub),
        IMul => MachineOp::Arith(ArithOp::IMul),
        IDiv => MachineOp::Arith(ArithOp::IDiv),
        IRem => MachineOp::Arith(ArithOp::IRem),
        INeg => MachineOp::Arith(ArithOp::INeg),
        IShl => MachineOp::Arith(ArithOp::IShl),
        IShr => MachineOp::Arith(ArithOp::IShr),
        IUShr => MachineOp::Arith(ArithOp::IUShr),
        IAnd => MachineOp::Arith(ArithOp::IAnd),
        IOr => MachineOp::Arith(ArithOp::IOr),
        IXor => MachineOp::Arith(ArithOp::IXor),
        LAdd => MachineOp::Arith(ArithOp::LAdd),
        LSub => MachineOp::Arith(ArithOp::LSub),
        LMul => MachineOp::Arith(ArithOp::LMul),
        LDiv => MachineOp::Arith(ArithOp::LDiv),
        LRem => MachineOp::Arith(ArithOp::LRem),
        LNeg => MachineOp::Arith(ArithOp::LNeg),
        LShl => MachineOp::Arith(ArithOp::LShl),
        LShr => MachineOp::Arith(ArithOp::LShr),
        LUShr => MachineOp::Arith(ArithOp::LUShr),
        LAnd => MachineOp::Arith(ArithOp::LAnd),
        LOr => MachineOp::Arith(ArithOp::LOr),
        LXor => MachineOp::Arith(ArithOp::LXor),
        FAdd => MachineOp::Arith(ArithOp::FAdd),
        FSub => MachineOp::Arith(ArithOp::FSub),
        FMul => MachineOp::Arith(ArithOp::FMul),
        FDiv => MachineOp::Arith(ArithOp::FDiv),
        FNeg => MachineOp::Arith(ArithOp::FNeg),
        FSqrt => MachineOp::Arith(ArithOp::FSqrt),
        DAdd => MachineOp::Arith(ArithOp::DAdd),
        DSub => MachineOp::Arith(ArithOp::DSub),
        DMul => MachineOp::Arith(ArithOp::DMul),
        DDiv => MachineOp::Arith(ArithOp::DDiv),
        DNeg => MachineOp::Arith(ArithOp::DNeg),
        DSqrt => MachineOp::Arith(ArithOp::DSqrt),
        I2L => MachineOp::Arith(ArithOp::I2L),
        I2F => MachineOp::Arith(ArithOp::I2F),
        I2D => MachineOp::Arith(ArithOp::I2D),
        L2I => MachineOp::Arith(ArithOp::L2I),
        L2F => MachineOp::Arith(ArithOp::L2F),
        L2D => MachineOp::Arith(ArithOp::L2D),
        F2I => MachineOp::Arith(ArithOp::F2I),
        F2D => MachineOp::Arith(ArithOp::F2D),
        D2I => MachineOp::Arith(ArithOp::D2I),
        D2L => MachineOp::Arith(ArithOp::D2L),
        D2F => MachineOp::Arith(ArithOp::D2F),
        I2B => MachineOp::Arith(ArithOp::I2B),
        I2S => MachineOp::Arith(ArithOp::I2S),
        LCmp => MachineOp::Arith(ArithOp::LCmp),
        FCmpL => MachineOp::Arith(ArithOp::FCmpL),
        FCmpG => MachineOp::Arith(ArithOp::FCmpG),
        DCmpL => MachineOp::Arith(ArithOp::DCmpL),
        DCmpG => MachineOp::Arith(ArithOp::DCmpG),

        Goto(t) => MachineOp::Branch(BranchKind::Always, t),
        IfI(c, t) => MachineOp::Branch(BranchKind::IfI(c), t),
        IfICmp(c, t) => MachineOp::Branch(BranchKind::IfICmp(c), t),
        IfNull(t) => MachineOp::Branch(BranchKind::IfNull, t),
        IfNonNull(t) => MachineOp::Branch(BranchKind::IfNonNull, t),
        IfACmpEq(t) => MachineOp::Branch(BranchKind::IfACmpEq, t),
        IfACmpNe(t) => MachineOp::Branch(BranchKind::IfACmpNe, t),

        New(c) => MachineOp::NewObject { class: c },
        InstanceOf(c) => MachineOp::InstanceOf { class: c },
        NewArray(e) => MachineOp::NewArray { elem: e },

        GetField(f) => {
            let (offset, ty, volatile) = field_facts(program, layout, f);
            match core {
                CoreKind::Ppe => MachineOp::GetFieldDirect {
                    offset,
                    ty,
                    volatile,
                },
                CoreKind::Spe => MachineOp::GetFieldCached {
                    offset,
                    ty,
                    volatile,
                },
            }
        }
        PutField(f) => {
            let (offset, ty, volatile) = field_facts(program, layout, f);
            match core {
                CoreKind::Ppe => MachineOp::PutFieldDirect {
                    offset,
                    ty,
                    volatile,
                },
                CoreKind::Spe => MachineOp::PutFieldCached {
                    offset,
                    ty,
                    volatile,
                },
            }
        }
        GetStatic(f) => {
            let (offset, ty, volatile) = field_facts(program, layout, f);
            match core {
                CoreKind::Ppe => MachineOp::GetStaticDirect {
                    offset,
                    ty,
                    volatile,
                },
                CoreKind::Spe => MachineOp::GetStaticCached {
                    offset,
                    ty,
                    volatile,
                },
            }
        }
        PutStatic(f) => {
            let (offset, ty, volatile) = field_facts(program, layout, f);
            match core {
                CoreKind::Ppe => MachineOp::PutStaticDirect {
                    offset,
                    ty,
                    volatile,
                },
                CoreKind::Spe => MachineOp::PutStaticCached {
                    offset,
                    ty,
                    volatile,
                },
            }
        }
        ArrayLength => match core {
            CoreKind::Ppe => MachineOp::ArrLenDirect,
            CoreKind::Spe => MachineOp::ArrLenCached,
        },
        ALoad(e) => match core {
            CoreKind::Ppe => MachineOp::ArrLoadDirect { elem: e },
            CoreKind::Spe => MachineOp::ArrLoadCached { elem: e },
        },
        AStore(e) => match core {
            CoreKind::Ppe => MachineOp::ArrStoreDirect { elem: e },
            CoreKind::Spe => MachineOp::ArrStoreCached { elem: e },
        },

        InvokeStatic(m) => MachineOp::InvokeStatic { method: m },
        InvokeVirtual(m) => {
            let slot = program
                .method(m)
                .vtable_slot
                .ok_or(CompileError::NoVtableSlot(m))?;
            MachineOp::InvokeVirtual { slot, declared: m }
        }
        Return => MachineOp::Return { has_value: false },
        ReturnValue => MachineOp::Return { has_value: true },
        MonitorEnter => MachineOp::MonitorEnter,
        MonitorExit => MachineOp::MonitorExit,
    })
}

fn field_facts(
    program: &Program,
    layout: &ProgramLayout,
    f: hera_isa::FieldId,
) -> (u32, hera_isa::Ty, bool) {
    let fd = program.field(f);
    (layout.offset_of(f), fd.ty, fd.volatile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_isa::{MethodBody, ProgramBuilder, Ty};

    fn fixture() -> (Program, ProgramLayout, MethodId) {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let f = b.add_field(c, "x", Ty::Int);
        let v = b.add_volatile_field(c, "flag", Ty::Int);
        let m = b.add_static_method(
            c,
            "m",
            vec![Ty::Ref(c)],
            Some(Ty::Int),
            1,
            MethodBody::Bytecode(vec![
                Instr::Load(0),
                Instr::GetField(f),
                Instr::Load(0),
                Instr::GetField(v),
                Instr::IAdd,
                Instr::ReturnValue,
            ]),
        );
        let p = b.finish().unwrap();
        let layout = ProgramLayout::compute(&p);
        (p, layout, m)
    }

    #[test]
    fn ppe_compilation_uses_direct_ops() {
        let (p, l, m) = fixture();
        let c = compile_method(&p, &l, m, CoreKind::Ppe).unwrap();
        assert!(c.ops.iter().any(|o| o.is_direct_access()));
        assert!(!c.ops.iter().any(|o| o.is_cached_access()));
        assert_eq!(c.core, CoreKind::Ppe);
    }

    #[test]
    fn spe_compilation_uses_cached_ops() {
        let (p, l, m) = fixture();
        let c = compile_method(&p, &l, m, CoreKind::Spe).unwrap();
        assert!(c.ops.iter().any(|o| o.is_cached_access()));
        assert!(!c.ops.iter().any(|o| o.is_direct_access()));
    }

    #[test]
    fn volatile_flag_is_baked_in() {
        let (p, l, m) = fixture();
        let c = compile_method(&p, &l, m, CoreKind::Spe).unwrap();
        let volatiles: Vec<bool> = c
            .ops
            .iter()
            .filter_map(|o| match o {
                MachineOp::GetFieldCached { volatile, .. } => Some(*volatile),
                _ => None,
            })
            .collect();
        assert_eq!(volatiles, vec![false, true]);
    }

    type Variants = std::collections::HashSet<std::mem::Discriminant<MachineOp>>;

    /// Compile every bytecode method of `program` for `core` and hold its
    /// op stream against the 1:1 lowering; collects the fused variants.
    fn check_streams(program: &Program, core: CoreKind, fused: &mut Variants) {
        let layout = ProgramLayout::compute(program);
        for m in (0..program.methods.len() as u32).map(MethodId) {
            let Some(code) = program.method(m).code() else {
                continue;
            };
            let c = compile_method(program, &layout, m, core).expect("compiles");
            let plain: Vec<MachineOp> = code
                .iter()
                .map(|&i| lower(program, &layout, i, core).expect("lowers"))
                .collect();
            // The parent's formulae, over the parent's stream.
            assert_eq!(
                c.code_bytes,
                32 + plain.iter().map(|op| op_code_bytes(op, core)).sum::<u32>()
            );
            assert_eq!(c.compile_cycles, 1500 + 120 * code.len() as u64);
            assert_eq!(c.ops.len(), code.len(), "one slot per pc");
            assert_eq!(c.ref_maps.len(), code.len());
            for (i, op) in c.ops.iter().enumerate() {
                assert_eq!(
                    op.head(),
                    plain[i],
                    "slot {i} does not start with its own op"
                );
                let n = op.parts() as usize;
                for k in 0..n {
                    assert_eq!(
                        op.part(k as u32),
                        plain[i + k],
                        "slot {i} part {k} of {op:?}"
                    );
                    // Nothing before the last part may branch, trap or
                    // need the slow tier.
                    assert!(
                        k == n - 1
                            || match plain[i + k] {
                                MachineOp::Arith(a) => a.arity() == 2 && !a.may_trap(),
                                MachineOp::LoadLocal(_)
                                | MachineOp::PushI32(_)
                                | MachineOp::IncLocal(..) => true,
                                _ => false,
                            },
                        "slot {i}: {op:?} has {:?} before its end",
                        plain[i + k]
                    );
                }
                assert_eq!(
                    MachineOp::fuse(&plain[i..]),
                    *op,
                    "slot {i} is not the longest"
                );
                if n > 1 {
                    fused.insert(std::mem::discriminant(op));
                }
            }
        }
    }

    #[test]
    fn every_slot_holds_its_own_op_or_a_fusion_starting_with_it() {
        for core in [CoreKind::Ppe, CoreKind::Spe] {
            let mut fused = Variants::new();
            for w in hera_workloads::Workload::ALL {
                check_streams(&w.build(2, 0.05).0, core, &mut fused);
            }
            assert!(fused.len() >= 13, "{core:?}: the kernels hold {fused:?}");
            for seed in 0..48 {
                let mut pb = ProgramBuilder::new();
                let class = pb.add_class("Idioms", None);
                crate::testgen::idiom_method(&mut pb, class, "main", seed, None);
                check_streams(&pb.finish().expect("resolves"), core, &mut fused);
            }
            // All 16, less the other core kind's array load.
            assert_eq!(fused.len(), 15, "{core:?}: {fused:?}");
            let foreign = match core {
                CoreKind::Ppe => MachineOp::LoadLocal2ArrLoadCached(0, 0, hera_isa::ElemTy::Int),
                CoreKind::Spe => MachineOp::LoadLocal2ArrLoadDirect(0, 0, hera_isa::ElemTy::Int),
            };
            assert!(!fused.contains(&std::mem::discriminant(&foreign)));
        }
    }

    #[test]
    fn a_trapping_or_unary_arith_fuses_only_where_it_may() {
        use MachineOp::*;
        let (div, neg, add) = (ArithOp::IDiv, ArithOp::INeg, ArithOp::IAdd);
        // Last part: a division may end a fused op...
        assert_eq!(
            MachineOp::fuse(&[LoadLocal(1), LoadLocal(2), Arith(div)]),
            LoadLocal2Arith(1, 2, div)
        );
        assert_eq!(
            MachineOp::fuse(&[PushI32(0), Arith(div)]),
            PushArith(0, div)
        );
        // ...but not sit in front of another part.
        assert_eq!(MachineOp::fuse(&[Arith(div), StoreLocal(0)]), Arith(div));
        assert_eq!(MachineOp::fuse(&[Arith(div), Arith(add)]), Arith(div));
        assert_eq!(
            MachineOp::fuse(&[LoadLocal(1), Arith(div), StoreLocal(0)]),
            LoadLocalArith(1, div)
        );
        assert_eq!(
            MachineOp::fuse(&[Arith(add), Arith(div), StoreLocal(0)]),
            Arith2(add, div)
        );
        // Unary ops pop one operand: never part of a fused op.
        assert_eq!(
            MachineOp::fuse(&[LoadLocal(1), Arith(neg), StoreLocal(0)]),
            LoadLocal(1)
        );
        assert_eq!(MachineOp::fuse(&[Arith(neg), StoreLocal(0)]), Arith(neg));
        // A one-op window is that op.
        assert_eq!(MachineOp::fuse(&[LoadLocal(3)]), LoadLocal(3));
    }

    #[test]
    fn lowering_is_one_to_one_so_targets_survive() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let m = b.add_static_method(
            c,
            "loop",
            vec![],
            None,
            1,
            MethodBody::Bytecode(vec![
                Instr::ConstI32(10),
                Instr::Store(0),
                Instr::Load(0),
                Instr::IfI(hera_isa::Cond::Le, 6),
                Instr::IInc(0, -1),
                Instr::Goto(2),
                Instr::Return,
            ]),
        );
        let p = b.finish().unwrap();
        let l = ProgramLayout::compute(&p);
        let comp = compile_method(&p, &l, m, CoreKind::Spe).unwrap();
        assert_eq!(comp.ops.len(), 7);
        assert_eq!(comp.ops[5], MachineOp::Branch(BranchKind::Always, 2));
    }

    #[test]
    fn spe_code_is_fatter_than_ppe_code_for_memory_heavy_methods() {
        let (p, l, m) = fixture();
        let ppe = compile_method(&p, &l, m, CoreKind::Ppe).unwrap();
        let spe = compile_method(&p, &l, m, CoreKind::Spe).unwrap();
        assert!(spe.code_bytes > ppe.code_bytes);
    }

    #[test]
    fn native_methods_are_rejected() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let m = b.add_native_method(
            c,
            "nat",
            vec![],
            None,
            hera_isa::NativeId(0),
            hera_isa::class::NativeKind::Jni,
        );
        let p = b.finish().unwrap();
        let l = ProgramLayout::compute(&p);
        assert_eq!(
            compile_method(&p, &l, m, CoreKind::Ppe),
            Err(CompileError::NativeMethod(m))
        );
    }

    #[test]
    fn virtual_dispatch_resolves_vtable_slot() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let vm = b.add_virtual_method(
            c,
            "virt",
            vec![],
            None,
            1,
            MethodBody::Bytecode(vec![Instr::Return]),
        );
        let caller = b.add_static_method(
            c,
            "go",
            vec![Ty::Ref(c)],
            None,
            1,
            MethodBody::Bytecode(vec![
                Instr::Load(0),
                Instr::InvokeVirtual(vm),
                Instr::Return,
            ]),
        );
        let p = b.finish().unwrap();
        let l = ProgramLayout::compute(&p);
        let comp = compile_method(&p, &l, caller, CoreKind::Ppe).unwrap();
        assert_eq!(
            comp.ops[1],
            MachineOp::InvokeVirtual {
                slot: 0,
                declared: vm
            }
        );
    }

    #[test]
    fn compile_cost_scales_with_method_size() {
        let (p, l, m) = fixture();
        let c = compile_method(&p, &l, m, CoreKind::Ppe).unwrap();
        assert_eq!(c.compile_cycles, 1500 + 120 * 6);
    }
}

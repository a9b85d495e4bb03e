//! The execution engine: runs core-specific compiled code, one quantum
//! at a time, charging every retired op to the machine's cycle model.
//!
//! The same engine serves both core kinds; *which ops it encounters*
//! differs, because `hera-jit` emitted direct heap accesses for PPE code
//! and software-cache accesses for SPE code. Invocation is where all the
//! interesting runtime behaviour lives: JIT-on-first-use per core type,
//! SPE code-cache lookups (and re-lookups on return), annotation- and
//! monitor-driven migration with stack markers, and the native bridges.
//!
//! ## Execution structure
//!
//! Frames are untagged [`Slot`] windows into the thread's arena (see
//! `thread.rs`). The dispatch loop is split in two tiers:
//!
//! * [`exec_block`] — the hot tier. It borrows the current frame, the
//!   arena and the machine *once*, then retires straight-line ops
//!   (stack, locals, arithmetic, branches, and both the PPE-direct and
//!   SPE-cached heap accesses) until the quantum drains or a
//!   frame-changing op appears. No per-op re-borrowing, no tag
//!   dispatch, no `Vec` push/pop. A fused op retires two or three of
//!   them in one dispatch (DESIGN.md §4.8 "Fused ops").
//! * [`step_slow`] — the cold tier, taking `&mut World`: allocation
//!   (may GC), invokes, returns, monitors. These are exactly the ops
//!   where frames change or cross-subsystem state is touched.
//!
//! The split is behaviour-preserving: every virtual-cycle charge, trap
//! and trace event is issued in the same order as the tagged engine it
//! replaced (the differential tests in `hera-integration` pin this).

use crate::native::StdNative;
use crate::thread::{
    BehaviourWindow, BlockReason, Frame, FrameKind, JavaThread, PendingCall, ThreadId,
};
use crate::vm::VmError;
use crate::world::{QuantumOutcome, World};
use hera_cell::cost::exec_op_class;
use hera_cell::{CellMachine, ChargeRun, CoreId, CoreKind, ExecOp, FaultSite, OpClass, OpCosts};
use hera_isa::class::NativeKind;
use hera_isa::{Kind, MethodDef, MethodId, ObjRef, Slot, Trap, Ty, Value};
use hera_jit::{BranchKind, CompiledMethod, MachineOp};
use hera_mem::heap::codec::elem_as_ty;
use hera_mem::{Heap, HeapKind};
use hera_softcache::{jmm, CacheFault, DataCache};
use hera_trace::{CostClass, MigrationKind, TraceEvent};
use std::rc::Rc;

/// Control-flow outcome of one op.
enum Flow {
    /// Keep executing.
    Continue,
    /// The thread parked; the scheduler will resume it on wake.
    Block,
    /// The thread finished.
    Finish,
    /// The thread moved to another core's queue.
    Migrate,
    /// Voluntarily end the quantum (yield).
    EndQuantum,
}

/// Why the hot tier handed control back.
enum BlockExit {
    /// The quantum budget drained; the thread remains runnable.
    Budget,
    /// A frame-changing op was fetched (and counted); it still has to
    /// run, with the whole world in scope.
    Slow(MachineOp),
}

/// Extra PPE stall for a volatile access (sync instruction).
const VOLATILE_SYNC_CYCLES: u64 = 20;

/// PPE cycles to serve one proxied monitor op in CellVM-comparison mode.
const CELLVM_PROXY_CYCLES: u64 = 200;

/// Charge the volatile sync stall, classed as JMM-barrier time for the
/// profiler (it is the memory-model fence the PPE pays in place of a
/// cache purge/flush).
#[inline]
fn volatile_sync(machine: &mut CellMachine, core: CoreId) {
    let scope = machine.prof_scope_begin(core, CostClass::JmmBarrier);
    machine.stall(core, VOLATILE_SYNC_CYCLES, OpClass::MainMemory);
    machine.prof_scope_end(core, scope);
}

// ---- unchecked-in-release arena accessors ----
//
// Every index is derived from verifier facts (`max_stack`, `max_locals`)
// and the frame-push bounds check, so out-of-range indices are VM bugs,
// not guest-reachable states. Debug builds keep the assertion.

#[inline(always)]
#[allow(unsafe_code)]
fn sget(arena: &[Slot], i: usize) -> Slot {
    debug_assert!(i < arena.len(), "slot index {i} outside arena");
    #[cfg(debug_assertions)]
    {
        arena[i]
    }
    // SAFETY: `i` is a frame base plus an offset below the method's
    // verified `max_locals + max_stack`, and the frame push reserved that
    // many arena slots, so `i < arena.len()`.
    #[cfg(not(debug_assertions))]
    unsafe {
        *arena.get_unchecked(i)
    }
}

#[inline(always)]
#[allow(unsafe_code)]
fn sset(arena: &mut [Slot], i: usize, v: Slot) {
    debug_assert!(i < arena.len(), "slot index {i} outside arena");
    #[cfg(debug_assertions)]
    {
        arena[i] = v;
    }
    // SAFETY: as `sget` — the verifier's `max_locals` / `max_stack` bound
    // every local and operand index inside the slots the frame reserved.
    #[cfg(not(debug_assertions))]
    unsafe {
        *arena.get_unchecked_mut(i) = v;
    }
}

#[inline(always)]
#[allow(unsafe_code)]
fn op_at(ops: &[MachineOp], pc: u32) -> &MachineOp {
    debug_assert!((pc as usize) < ops.len(), "pc {pc} outside op stream");
    #[cfg(debug_assertions)]
    {
        &ops[pc as usize]
    }
    // SAFETY: the verifier checks every branch target and fall-through
    // against the op-stream bounds and every method ends in a return, so
    // `pc` never leaves `ops`.
    #[cfg(not(debug_assertions))]
    unsafe {
        ops.get_unchecked(pc as usize)
    }
}

// ---- slow-tier stack helpers (cold paths only) ----

#[inline]
fn pop_slot(w: &mut World<'_>, t: usize) -> Slot {
    let th = &mut w.threads[t];
    let i = {
        let f = th.frames.last_mut().expect("thread has a frame");
        f.sp -= 1;
        f.sp as usize
    };
    sget(&th.arena, i)
}

#[inline]
fn push_slot(w: &mut World<'_>, t: usize, v: Slot) {
    let th = &mut w.threads[t];
    let i = {
        let f = th.frames.last_mut().expect("thread has a frame");
        let i = f.sp as usize;
        f.sp += 1;
        i
    };
    sset(&mut th.arena, i, v);
}

#[inline]
fn pop_ref_slot(w: &mut World<'_>, t: usize) -> Result<ObjRef, Trap> {
    let r = pop_slot(w, t).obj();
    if r.is_null() {
        Err(Trap::NullPointer)
    } else {
        Ok(r)
    }
}

/// Run `tid` for up to `quantum_ops` machine operations.
pub fn run_quantum(w: &mut World<'_>, tid: ThreadId) -> Result<QuantumOutcome, VmError> {
    let t = tid.0 as usize;
    let core = w.threads[t].core;

    // Deferred migration-arrival trace event: emitted here, after the
    // scheduler has advanced this core past the thread's availability
    // time, so the arrival carries the target core's own clock.
    if let Some((from, kind)) = w.threads[t].pending_migrate_in.take() {
        let from_lane = w.machine.lane(from) as u32;
        w.machine.emit(
            core,
            TraceEvent::MigrateIn {
                kind,
                from_lane,
                thread: tid.0,
            },
        );
    }

    // Deferred JMM acquire (monitor handed over while blocked).
    if let Some(_obj) = w.threads[t].pending_acquire_barrier.take() {
        w.machine.exec(core, ExecOp::MonitorOp);
        if let Err(e) = jmm_acquire(w, core) {
            return trap_or_vm(w, tid, e);
        }
    }

    // Deferred code-cache re-lookup after a migrate-back onto an SPE.
    if let Some(m) = w.threads[t].pending_relookup.take() {
        if let Err(e) = code_cache_lookup(w, t, m) {
            return trap_or_vm(w, tid, e);
        }
    }

    // Deferred call (thread start or arrival after migration).
    if let Some(call) = w.threads[t].pending_call.take() {
        if let Some(origin) = call.marker_origin {
            push_marker(&mut w.threads[t], origin);
        }
        if let Err(e) = push_frame(w, tid, call.method, Args::Tagged(call.args)) {
            return trap_or_vm(w, tid, e);
        }
        if w.threads[t].is_finished() {
            return Ok(QuantumOutcome::Finished);
        }
    }

    let mut budget = w.config.quantum_ops;
    loop {
        if w.threads[t].frames.is_empty() {
            // Defensive: a thread with no frames has finished.
            return Ok(QuantumOutcome::Finished);
        }
        if budget == 0 {
            return Ok(QuantumOutcome::Ready);
        }

        // Lazy rebind: a one-way (monitor-driven) migration can leave
        // frames holding code compiled for the other core kind. Slot `i`
        // of either compilation is bytecode pc `i` (that op, or a fused
        // op starting with it), so swapping in this core's compilation
        // at the same pc is a sound on-stack replacement.
        // The current frame only changes at slow-tier ops, so checking
        // once per block matches the per-op check it replaced.
        let f = w.threads[t].frames.last().expect("checked non-empty");
        if f.code.core != core.kind() {
            let method = f.method;
            let rebound = compile_for(w, core, method).and_then(|code| {
                w.threads[t]
                    .frames
                    .last_mut()
                    .expect("checked non-empty")
                    .code = code;
                code_cache_lookup(w, t, method)
            });
            if let Err(e) = rebound {
                return trap_or_vm(w, tid, e);
            }
        }

        match exec_block(w, t, core, &mut budget) {
            Ok(BlockExit::Budget) => return Ok(QuantumOutcome::Ready),
            Ok(BlockExit::Slow(op)) => match step_slow(w, tid, op) {
                Ok(Flow::Continue) => {}
                Ok(Flow::Block) => return Ok(QuantumOutcome::Blocked),
                Ok(Flow::Finish) => return Ok(QuantumOutcome::Finished),
                Ok(Flow::Migrate) => return Ok(QuantumOutcome::Migrated),
                Ok(Flow::EndQuantum) => return Ok(QuantumOutcome::Ready),
                Err(e) => return trap_or_vm(w, tid, e),
            },
            Err(e) => return trap_or_vm(w, tid, e),
        }
    }
}

/// Step-level error: guest traps end the thread, VM errors end the run.
enum StepError {
    Trap(Trap),
    Vm(VmError),
}

impl From<Trap> for StepError {
    fn from(t: Trap) -> StepError {
        StepError::Trap(t)
    }
}

impl From<VmError> for StepError {
    fn from(e: VmError) -> StepError {
        StepError::Vm(e)
    }
}

impl From<hera_mem::HeapError> for StepError {
    fn from(e: hera_mem::HeapError) -> StepError {
        StepError::Vm(VmError::Internal(format!("heap access: {e}")))
    }
}

impl From<CacheFault> for StepError {
    fn from(e: CacheFault) -> StepError {
        match e {
            // A bad cached address is a VM bug, same as a direct one.
            CacheFault::Heap(h) => StepError::Vm(VmError::Internal(format!("heap access: {h}"))),
            // An exhausted MFC transfer is a machine-level fault the
            // guest observes as an (asynchronous) machine check: the
            // thread dies, the run survives.
            CacheFault::Mfc(m) => StepError::Trap(Trap::MachineCheck(m.to_string())),
            CacheFault::Internal(msg) => StepError::Vm(VmError::Internal(msg.to_string())),
        }
    }
}

fn trap_or_vm(w: &mut World<'_>, tid: ThreadId, e: StepError) -> Result<QuantumOutcome, VmError> {
    match e {
        StepError::Trap(trap) => {
            w.finish_thread(tid, Err(trap));
            Ok(QuantumOutcome::Finished)
        }
        StepError::Vm(e) => Err(e),
    }
}

/// The hot tier: retire straight-line ops of the current frame until
/// the budget drains or a frame-changing op appears.
///
/// Charges go into a [`ChargeRun`] and reach the core's clock when the
/// run is settled — here, whichever way [`exec_block_run`] came back, so
/// no early return can leave charges behind.
fn exec_block(
    w: &mut World<'_>,
    t: usize,
    core: CoreId,
    budget: &mut u32,
) -> Result<BlockExit, StepError> {
    let mut run = w.machine.run_open(core);
    let exit = exec_block_run(w, t, core, budget, &mut run);
    w.machine.run_settle(&mut run);
    #[cfg(test)]
    tests::on_block_exit(&w.threads[t], *budget);
    exit
}

/// [`exec_block`]'s loop. Every hot-tier charge is an add on `run`, an
/// SPE data-cache hit included (the cache charges the run and settles it
/// itself around a fill); what moves the clock by another route — a
/// volatile access's cache purge or flush, the volatile sync stall — goes
/// through `settled!`, which settles the run first and re-arms it after.
///
/// The frame cursor (`pc`, `sp`) is mutated in place, so the thread is
/// always in a consistent, GC-scannable state — including at the early
/// returns a trap takes.
fn exec_block_run(
    w: &mut World<'_>,
    t: usize,
    core: CoreId,
    budget: &mut u32,
    run: &mut ChargeRun,
) -> Result<BlockExit, StepError> {
    let World {
        program,
        layout,
        machine,
        heap,
        data_caches,
        threads,
        ..
    } = w;
    let program: &hera_isa::Program = program;
    let th: &mut JavaThread = &mut threads[t];
    let JavaThread {
        frames,
        arena,
        window,
        ..
    } = th;
    let f: &mut Frame = frames.last_mut().expect("thread has a frame");
    let code = Rc::clone(&f.code);
    let ops = code.ops.as_slice();
    let base = f.base as usize;
    let spe = match core {
        CoreId::Ppe => None,
        CoreId::Spe(n) => Some(n as usize),
    };
    let costs: OpCosts = *machine.cost_model().costs(core.kind());

    // Charge one op to the run; the value is the stretched cycles.
    macro_rules! charge {
        ($class:expr, $cycles:expr) => {
            machine.run_charge(run, $class, $cycles)
        };
    }
    // A PPE load/store: through the cache model, charged to the run.
    macro_rules! ppe_access {
        ($addr:expr, $len:expr) => {{
            let (cycles, class) = machine.ppe_cache_probe($addr, $len);
            charge!(class, cycles)
        }};
    }
    // Run `$body`, which charges the machine directly, outside the run.
    macro_rules! settled {
        ($body:expr) => {{
            machine.run_settle(run);
            let out = $body;
            machine.run_settle(run);
            out
        }};
    }

    macro_rules! pop {
        () => {{
            f.sp -= 1;
            sget(arena, f.sp as usize)
        }};
    }
    macro_rules! push {
        ($v:expr) => {{
            let v = $v;
            sset(arena, f.sp as usize, v);
            f.sp += 1;
        }};
    }
    macro_rules! pop_ref {
        () => {{
            let r = pop!().obj();
            if r.is_null() {
                return Err(Trap::NullPointer.into());
            }
            r
        }};
    }

    macro_rules! local {
        ($s:expr) => {
            sget(arena, base + $s as usize)
        };
    }
    // `LoadLocal`, `PushI32` and `StoreLocal` as parts of a fused op:
    // charged, and the operand slot `$at` written though `f.sp` skips it.
    macro_rules! load {
        ($x:expr, $at:expr) => {{
            charge!(OpClass::Stack, costs.local_access);
            let v = local!($x);
            sset(arena, $at, v);
            v
        }};
    }
    macro_rules! push_i32 {
        ($v:expr, $at:expr) => {{
            charge!(OpClass::Stack, costs.stack_op);
            let v = Slot::from_i32($v);
            sset(arena, $at, v);
            v
        }};
    }
    macro_rules! store {
        ($d:expr, $v:expr) => {{
            charge!(OpClass::Stack, costs.local_access);
            sset(arena, base + $d as usize, $v);
        }};
    }
    // One `Arith`'s charge and its mark in the behaviour window.
    macro_rules! charge_arith {
        ($a:expr) => {{
            let op = $a.exec_op();
            let class = exec_op_class(op);
            charge!(class, costs.get(op));
            if matches!(class, OpClass::FloatingPoint) {
                window.fp_ops += 1;
            }
        }};
    }
    // A binary `Arith` that is a fused op's last part: a trap leaves
    // `f.sp` at `$sp`, below both operands, as the plain op's pops do.
    macro_rules! apply_last {
        ($a:expr, $x:expr, $b:expr, $sp:expr) => {
            match $a.apply2_slot($x, $b) {
                Ok(r) => r,
                Err(trap) => {
                    f.sp = $sp as u32;
                    return Err(trap.into());
                }
            }
        };
    }
    // One that is not: `MachineOp::fuse` keeps a trapping op last.
    macro_rules! apply_inner {
        ($a:expr, $x:expr, $b:expr) => {
            match $a.apply2_slot($x, $b) {
                Ok(r) => r,
                Err(_) => unreachable!("a trapping Arith fused in non-final position"),
            }
        };
    }
    macro_rules! branch {
        ($taken:expr, $target:expr) => {
            if $taken {
                charge!(OpClass::Branch, costs.branch_taken);
                f.pc = $target;
            } else {
                charge!(OpClass::Branch, costs.branch);
            }
        };
    }
    // The array-load bodies, operands already popped; the value loaded.
    macro_rules! arr_load_direct {
        ($r:expr, $idx:expr) => {{
            let (r, idx): (ObjRef, i32) = ($r, $idx);
            if r.is_null() {
                return Err(Trap::NullPointer.into());
            }
            // Bounds check reads the length word through the caches too.
            ppe_access!(r.0 + 4, 4);
            let (addr, elem) = heap.elem_addr(r, idx)?;
            let cycles = ppe_access!(addr, elem.size());
            mem_monitor(window, cycles);
            // The probe's address is the element's: no second decode of
            // the header, no second bounds check.
            heap.read_typed_slot(addr, elem_as_ty(elem))
        }};
    }
    macro_rules! arr_load_cached {
        ($r:expr, $idx:expr, $elem:expr) => {{
            let r: ObjRef = $r;
            if r.is_null() {
                return Err(Trap::NullPointer.into());
            }
            let cache = &mut data_caches[spe.expect("cached op on SPE")];
            spe_array_access(cache, heap, machine, run, window, r, $idx, $elem, None)?
                .expect("load returns a value")
        }};
    }

    use MachineOp::*;
    loop {
        if *budget == 0 {
            return Ok(BlockExit::Budget);
        }
        // A fused op retires `n` plain ops in this one dispatch. One the
        // budget would cut runs as its head alone, so the quantum's tail
        // is plain ops and ends on the pc it always has.
        let mut op = op_at(ops, f.pc);
        let mut n = op.parts();
        let cut = n > *budget;
        #[cfg(test)]
        let cut = tests::on_fetch(op, cut);
        let head;
        if cut {
            head = op.head();
            op = &head;
            n = 1;
        }
        f.pc += n;
        *budget -= n;
        window.total_ops += n as u64;

        match *op {
            PushI32(v) => {
                charge!(OpClass::Stack, costs.stack_op);
                push!(Slot::from_i32(v));
            }
            PushI64(v) => {
                charge!(OpClass::Stack, costs.stack_op);
                push!(Slot::from_i64(v));
            }
            PushF32(v) => {
                charge!(OpClass::Stack, costs.stack_op);
                push!(Slot::from_f32(v));
            }
            PushF64(v) => {
                charge!(OpClass::Stack, costs.stack_op);
                push!(Slot::from_f64(v));
            }
            PushNull => {
                charge!(OpClass::Stack, costs.stack_op);
                push!(Slot::from_ref(ObjRef::NULL));
            }
            Pop => {
                charge!(OpClass::Stack, costs.stack_op);
                f.sp -= 1;
            }
            Dup => {
                charge!(OpClass::Stack, costs.stack_op);
                let v = sget(arena, f.sp as usize - 1);
                push!(v);
            }
            DupX1 => {
                charge!(OpClass::Stack, costs.stack_op);
                let a = pop!();
                let b = pop!();
                push!(a);
                push!(b);
                push!(a);
            }
            Swap => {
                charge!(OpClass::Stack, costs.stack_op);
                let a = pop!();
                let b = pop!();
                push!(a);
                push!(b);
            }
            LoadLocal(s) => {
                charge!(OpClass::Stack, costs.local_access);
                push!(local!(s));
            }
            StoreLocal(s) => {
                charge!(OpClass::Stack, costs.local_access);
                let v = pop!();
                sset(arena, base + s as usize, v);
            }
            IncLocal(s, d) => {
                charge!(OpClass::Integer, costs.int_alu);
                let i = base + s as usize;
                let old = sget(arena, i).i32();
                sset(arena, i, Slot::from_i32(old.wrapping_add(d as i32)));
            }
            Arith(a) => {
                charge_arith!(a);
                if a.arity() == 1 {
                    let x = pop!();
                    push!(a.apply1_slot(x));
                } else {
                    let b = pop!();
                    let x = pop!();
                    let r = a.apply2_slot(x, b)?;
                    push!(r);
                }
            }
            Branch(kind, target) => {
                let taken = match kind {
                    BranchKind::Always => true,
                    BranchKind::IfI(c) => c.eval(pop!().i32()),
                    BranchKind::IfICmp(c) => {
                        let b = pop!().i32();
                        let a = pop!().i32();
                        c.eval2(a, b)
                    }
                    BranchKind::IfNull => pop!().obj().is_null(),
                    BranchKind::IfNonNull => !pop!().obj().is_null(),
                    BranchKind::IfACmpEq => {
                        let b = pop!().obj();
                        let a = pop!().obj();
                        a == b
                    }
                    BranchKind::IfACmpNe => {
                        let b = pop!().obj();
                        let a = pop!().obj();
                        a != b
                    }
                };
                branch!(taken, target);
            }
            InstanceOf { class } => {
                charge!(OpClass::Integer, costs.check);
                let r = pop!().obj();
                let yes = if r.is_null() {
                    false
                } else {
                    match heap.header(r).kind {
                        HeapKind::Object(c) => program.is_subclass(c, class),
                        HeapKind::Array(_, _) => false,
                    }
                };
                push!(Slot::from_i32(yes as i32));
            }

            // ---- PPE direct heap access ----
            GetFieldDirect {
                offset,
                ty,
                volatile,
            } => {
                charge!(OpClass::Integer, costs.check);
                let r = pop_ref!();
                let cycles = ppe_access!(r.0 + offset, ty.field_size());
                mem_monitor(window, cycles);
                if volatile {
                    settled!(volatile_sync(machine, core));
                }
                push!(heap.read_typed_slot(r.0 + offset, ty));
            }
            PutFieldDirect {
                offset,
                ty,
                volatile,
            } => {
                charge!(OpClass::Integer, costs.check);
                let v = pop!();
                let r = pop_ref!();
                let cycles = ppe_access!(r.0 + offset, ty.field_size());
                mem_monitor(window, cycles);
                if volatile {
                    settled!(volatile_sync(machine, core));
                }
                heap.write_typed_slot(r.0 + offset, ty, v);
            }
            GetStaticDirect {
                offset,
                ty,
                volatile,
            } => {
                let addr = Heap::STATICS_BASE + offset;
                let cycles = ppe_access!(addr, ty.field_size());
                mem_monitor(window, cycles);
                if volatile {
                    settled!(volatile_sync(machine, core));
                }
                push!(heap.read_typed_slot(addr, ty));
            }
            PutStaticDirect {
                offset,
                ty,
                volatile,
            } => {
                let addr = Heap::STATICS_BASE + offset;
                let v = pop!();
                let cycles = ppe_access!(addr, ty.field_size());
                mem_monitor(window, cycles);
                if volatile {
                    settled!(volatile_sync(machine, core));
                }
                heap.write_typed_slot(addr, ty, v);
            }
            ArrLenDirect => {
                charge!(OpClass::Integer, costs.check);
                let r = pop_ref!();
                let cycles = ppe_access!(r.0 + 4, 4);
                mem_monitor(window, cycles);
                let len = heap.array_length(r);
                push!(Slot::from_i32(len as i32));
            }
            ArrLoadDirect { .. } => {
                charge!(OpClass::Integer, costs.check);
                let idx = pop!().i32();
                let r = pop!().obj();
                push!(arr_load_direct!(r, idx));
            }
            ArrStoreDirect { .. } => {
                charge!(OpClass::Integer, costs.check);
                let v = pop!();
                let idx = pop!().i32();
                let r = pop_ref!();
                ppe_access!(r.0 + 4, 4);
                let (addr, elem) = heap.elem_addr(r, idx)?;
                let cycles = ppe_access!(addr, elem.size());
                mem_monitor(window, cycles);
                heap.write_typed_slot(addr, elem_as_ty(elem), v);
            }

            // ---- SPE software-cached heap access ----
            //
            // Each arm calls an out-of-line function: the lookup inlined
            // here grows this loop enough to slow the PPE's ops too.
            GetFieldCached {
                offset,
                ty,
                volatile,
            } => {
                charge!(OpClass::Integer, costs.check);
                let r = pop_ref!();
                let cache = &mut data_caches[spe.expect("cached op on SPE")];
                if volatile {
                    // JMM acquire: purge before the read.
                    settled!(jmm::acquire_barrier(cache, heap, machine, core)?);
                }
                let size = |h: &Heap| h.header(r).size;
                let v = cache_read(cache, heap, machine, run, window, r.0, size, offset, ty)?;
                push!(v);
            }
            PutFieldCached {
                offset,
                ty,
                volatile,
            } => {
                charge!(OpClass::Integer, costs.check);
                let v = pop!();
                let r = pop_ref!();
                let cache = &mut data_caches[spe.expect("cached op on SPE")];
                let size = |h: &Heap| h.header(r).size;
                cache_write(cache, heap, machine, run, window, r.0, size, offset, ty, v)?;
                if volatile {
                    // JMM release: publish before anyone can acquire.
                    settled!(jmm::release_barrier(cache, heap, machine, core)?);
                }
            }
            GetStaticCached {
                offset,
                ty,
                volatile,
            } => {
                let cache = &mut data_caches[spe.expect("cached op on SPE")];
                let unit = Heap::STATICS_BASE;
                let len = layout.statics.size;
                if volatile {
                    settled!(jmm::acquire_barrier(cache, heap, machine, core)?);
                }
                let v = cache_read(cache, heap, machine, run, window, unit, |_| len, offset, ty)?;
                push!(v);
            }
            PutStaticCached {
                offset,
                ty,
                volatile,
            } => {
                let v = pop!();
                let cache = &mut data_caches[spe.expect("cached op on SPE")];
                let unit = Heap::STATICS_BASE;
                let len = layout.statics.size;
                cache_write(
                    cache,
                    heap,
                    machine,
                    run,
                    window,
                    unit,
                    |_| len,
                    offset,
                    ty,
                    v,
                )?;
                if volatile {
                    settled!(jmm::release_barrier(cache, heap, machine, core)?);
                }
            }
            ArrLenCached => {
                charge!(OpClass::Integer, costs.check);
                let r = pop_ref!();
                let cache = &mut data_caches[spe.expect("cached op on SPE")];
                let len = spe_array_len(cache, heap, machine, run, window, r)?;
                push!(Slot::from_i32(len as i32));
            }
            ArrLoadCached { elem } => {
                charge!(OpClass::Integer, costs.check);
                let idx = pop!().i32();
                let r = pop!().obj();
                push!(arr_load_cached!(r, idx, elem));
            }
            ArrStoreCached { elem } => {
                charge!(OpClass::Integer, costs.check);
                let v = pop!();
                let idx = pop!().i32();
                let r = pop_ref!();
                let cache = &mut data_caches[spe.expect("cached op on SPE")];
                spe_array_access(cache, heap, machine, run, window, r, idx, elem, Some(v))?;
            }

            // ---- fused ops ----
            //
            // Each arm is its parts' bodies, one after another: every
            // part charges for itself, in order; an operand slot one part
            // pushes and a later part pops is still written (a checkpoint
            // encodes the whole arena), but `f.sp` moves once; and only
            // the last part can trap, leaving `f.sp` where its own pops
            // would have (`pc` and the op counts already stand past it,
            // as they do when the plain op traps).
            LoadLocal2(x, y) => {
                let sp = f.sp as usize;
                load!(x, sp);
                load!(y, sp + 1);
                f.sp += 2;
            }
            LoadLocalArith(x, a) => {
                let sp = f.sp as usize;
                let b = load!(x, sp);
                charge_arith!(a);
                let r = apply_last!(a, sget(arena, sp - 1), b, sp - 1);
                sset(arena, sp - 1, r);
            }
            PushArith(v, a) => {
                let sp = f.sp as usize;
                let b = push_i32!(v, sp);
                charge_arith!(a);
                let r = apply_last!(a, sget(arena, sp - 1), b, sp - 1);
                sset(arena, sp - 1, r);
            }
            ArithStoreLocal(a, d) => {
                let sp = f.sp as usize;
                charge_arith!(a);
                let r = apply_inner!(a, sget(arena, sp - 2), sget(arena, sp - 1));
                sset(arena, sp - 2, r);
                store!(d, r);
                f.sp -= 2;
            }
            LoadLocalStoreLocal(x, d) => {
                let v = load!(x, f.sp as usize);
                store!(d, v);
            }
            Arith2(a, a2) => {
                let sp = f.sp as usize;
                charge_arith!(a);
                let r = apply_inner!(a, sget(arena, sp - 2), sget(arena, sp - 1));
                sset(arena, sp - 2, r);
                charge_arith!(a2);
                let r = apply_last!(a2, sget(arena, sp - 3), r, sp - 3);
                sset(arena, sp - 3, r);
                f.sp -= 2;
            }
            PushIfICmp(v, c, target) => {
                push_i32!(v, f.sp as usize);
                f.sp -= 1;
                let a = sget(arena, f.sp as usize).i32();
                branch!(c.eval2(a, v), target);
            }
            IncLocalGoto(x, d, target) => {
                charge!(OpClass::Integer, costs.int_alu);
                let i = base + x as usize;
                let old = sget(arena, i).i32();
                sset(arena, i, Slot::from_i32(old.wrapping_add(d as i32)));
                charge!(OpClass::Branch, costs.branch_taken);
                f.pc = target;
            }
            LoadLocal2Arith(x, y, a) => {
                let sp = f.sp as usize;
                let l = load!(x, sp);
                let b = load!(y, sp + 1);
                charge_arith!(a);
                let r = apply_last!(a, l, b, sp);
                sset(arena, sp, r);
                f.sp += 1;
            }
            LoadLocalPushArith(x, v, a) => {
                let sp = f.sp as usize;
                let l = load!(x, sp);
                let b = push_i32!(v, sp + 1);
                charge_arith!(a);
                let r = apply_last!(a, l, b, sp);
                sset(arena, sp, r);
                f.sp += 1;
            }
            LoadLocalArithStoreLocal(x, a, d) => {
                let sp = f.sp as usize;
                let b = load!(x, sp);
                charge_arith!(a);
                let r = apply_inner!(a, sget(arena, sp - 1), b);
                sset(arena, sp - 1, r);
                store!(d, r);
                f.sp -= 1;
            }
            Arith2StoreLocal(a, a2, d) => {
                let sp = f.sp as usize;
                charge_arith!(a);
                let r = apply_inner!(a, sget(arena, sp - 2), sget(arena, sp - 1));
                sset(arena, sp - 2, r);
                charge_arith!(a2);
                let r = apply_inner!(a2, sget(arena, sp - 3), r);
                sset(arena, sp - 3, r);
                store!(d, r);
                f.sp -= 3;
            }
            LoadLocal2IfICmp(x, y, c, target) => {
                let sp = f.sp as usize;
                let a = load!(x, sp);
                let b = load!(y, sp + 1);
                branch!(c.eval2(a.i32(), b.i32()), target);
            }
            LoadLocalPushIfICmp(x, v, c, target) => {
                let sp = f.sp as usize;
                let a = load!(x, sp);
                push_i32!(v, sp + 1);
                branch!(c.eval2(a.i32(), v), target);
            }
            LoadLocal2ArrLoadDirect(x, y, _) => {
                let sp = f.sp as usize;
                let r = load!(x, sp);
                let idx = load!(y, sp + 1);
                charge!(OpClass::Integer, costs.check);
                let v = arr_load_direct!(r.obj(), idx.i32());
                sset(arena, sp, v);
                f.sp += 1;
            }
            LoadLocal2ArrLoadCached(x, y, elem) => {
                let sp = f.sp as usize;
                let r = load!(x, sp);
                let idx = load!(y, sp + 1);
                charge!(OpClass::Integer, costs.check);
                let v = arr_load_cached!(r.obj(), idx.i32(), elem);
                sset(arena, sp, v);
                f.sp += 1;
            }

            // ---- frame-changing ops: the slow tier runs these ----
            op @ (NewObject { .. }
            | NewArray { .. }
            | InvokeStatic { .. }
            | InvokeVirtual { .. }
            | Return { .. }
            | MonitorEnter
            | MonitorExit) => return Ok(BlockExit::Slow(op)),
        }
    }
}

/// The cold tier: one already-fetched frame-changing op, with the whole
/// world in scope.
fn step_slow(w: &mut World<'_>, tid: ThreadId, op: MachineOp) -> Result<Flow, StepError> {
    let t = tid.0 as usize;
    let core = w.threads[t].core;

    use MachineOp::*;
    if matches!(op, MonitorEnter | MonitorExit) {
        // CellVM-comparison mode: the SPE cannot lock locally and must
        // round-trip through the PPE for every monitor op.
        if w.config.cellvm_style_sync && core != CoreId::Ppe {
            let mc = w
                .machine
                .prof_scope_begin(core, CostClass::MonitorContention);
            let mp = w
                .machine
                .prof_scope_begin(CoreId::Ppe, CostClass::MonitorContention);
            let reply = w.machine.cost_model().syscall_signal_cycles as u64;
            ppe_round_trip(w, core, CELLVM_PROXY_CYCLES, reply);
            w.machine.prof_scope_end(core, mc);
            w.machine.prof_scope_end(CoreId::Ppe, mp);
        }
        w.machine.exec(core, ExecOp::MonitorOp);
    }
    match op {
        NewObject { class } => {
            w.machine.exec(core, ExecOp::AllocOverhead);
            let r = w.alloc_object(class, core)?;
            if core == CoreId::Ppe {
                w.machine.ppe_mem_access(r.0, 8);
            }
            push_slot(w, t, Slot::from_ref(r));
        }
        NewArray { elem } => {
            w.machine.exec(core, ExecOp::AllocOverhead);
            let len = pop_slot(w, t).i32();
            let r = w.alloc_array(elem, len, core)?;
            // Zeroing bandwidth.
            let bytes = hera_mem::heap::array_byte_size(elem, len.max(0) as u32) as u64;
            w.machine.stall(core, bytes / 64, OpClass::MainMemory);
            push_slot(w, t, Slot::from_ref(r));
        }

        // ---- calls ----
        InvokeStatic { method } => {
            return do_invoke(w, tid, method);
        }
        InvokeVirtual { slot, declared } => {
            // Resolve the receiver's dynamic class by reading its header
            // (charged: the dispatch really does load the TIB pointer).
            let argc = w.program.method(declared).params.len();
            let recv = {
                let th = &w.threads[t];
                let f = th.frames.last().expect("thread has a frame");
                // The receiver sits below the arguments.
                sget(&th.arena, f.sp as usize - 1 - argc).obj()
            };
            if recv.is_null() {
                return Err(Trap::NullPointer.into());
            }
            let class = match w.heap.header(recv).kind {
                HeapKind::Object(c) => c,
                HeapKind::Array(_, _) => {
                    return Err(Trap::NativeError("virtual call on array receiver".into()).into())
                }
            };
            match core {
                CoreId::Ppe => {
                    let cycles = w.machine.ppe_mem_access(recv.0, 4);
                    mem_monitor(&mut w.threads[t].window, cycles);
                }
                CoreId::Spe(spe) => {
                    // The header word comes through the data cache.
                    let mut run = w.machine.run_open(core);
                    let read = cache_read(
                        &mut w.data_caches[spe as usize],
                        &mut w.heap,
                        &mut w.machine,
                        &mut run,
                        &mut w.threads[t].window,
                        recv.0,
                        |h: &Heap| h.header(recv).size,
                        0,
                        Ty::Int,
                    );
                    w.machine.run_settle(&mut run);
                    read?;
                }
            }
            let target = w.program.class(class).vtable[slot as usize];
            return do_invoke(w, tid, target);
        }
        Return { has_value } => {
            return do_return(w, tid, has_value);
        }

        // ---- synchronisation (the `MonitorOp` charge is above) ----
        MonitorEnter => {
            let r = pop_ref_slot(w, t)?;
            let now = w.machine.now(core);
            match w.monitors.acquire(r, tid, now) {
                (crate::monitor::AcquireResult::Acquired, start) => {
                    // Timed mutual exclusion: wait out a hold that ended
                    // later in virtual time on another core.
                    let mc = w
                        .machine
                        .prof_scope_begin(core, CostClass::MonitorContention);
                    w.machine.wait_until(core, start, OpClass::MainMemory);
                    w.machine.prof_scope_end(core, mc);
                    w.machine
                        .emit(core, TraceEvent::MonitorAcquire { obj: r.0 });
                    w.threads[t].held_monitors += 1;
                    jmm_acquire(w, core)?;
                }
                (crate::monitor::AcquireResult::Blocked, _) => {
                    w.machine
                        .emit(core, TraceEvent::MonitorContended { obj: r.0 });
                    w.threads[t].held_monitors += 1; // will own on wake
                    w.block(tid, BlockReason::Monitor(r));
                    // The acquire barrier runs when the thread resumes.
                    w.threads[t].pending_acquire_barrier = Some(r);
                    return Ok(Flow::Block);
                }
            }
        }
        MonitorExit => {
            let r = pop_ref_slot(w, t)?;
            // Publish before the lock is visible free.
            jmm_release(w, core)?;
            let now = w.machine.now(core);
            let woken = w.monitors.release(r, tid, now)?;
            w.machine
                .emit(core, TraceEvent::MonitorRelease { obj: r.0 });
            w.threads[t].held_monitors = w.threads[t].held_monitors.saturating_sub(1);
            if let Some(next) = woken {
                let now = w.machine.now(core);
                w.wake(next, now);
            }
        }

        _ => unreachable!("hot-tier op reached the slow tier"),
    }
    Ok(Flow::Continue)
}

/// Record a memory access in the behaviour window when it went past the
/// fast tier (the adaptive policy's "main memory" signal).
#[inline]
fn mem_monitor(window: &mut BehaviourWindow, cycles: u64) {
    if cycles > 8 {
        window.mem_ops += 1;
    }
}

// ---- SPE data-cache plumbing ----
//
// The cache, heap, machine and behaviour window are disjoint `World`
// fields, so both tiers pass them straight through — no take/replace
// dance, no per-access allocation.

/// The JMM acquire action (paper §3.2.1) for the slow tier: an SPE purges
/// its data cache; the PPE's hardware cache is coherent, so it does
/// nothing.
fn jmm_acquire(w: &mut World<'_>, core: CoreId) -> Result<(), StepError> {
    if let CoreId::Spe(n) = core {
        let cache = &mut w.data_caches[n as usize];
        jmm::acquire_barrier(cache, &mut w.heap, &mut w.machine, core)?;
    }
    Ok(())
}

/// The JMM release action: an SPE writes its dirty cached data back; the
/// PPE does nothing.
fn jmm_release(w: &mut World<'_>, core: CoreId) -> Result<(), StepError> {
    if let CoreId::Spe(n) = core {
        let cache = &mut w.data_caches[n as usize];
        jmm::release_barrier(cache, &mut w.heap, &mut w.machine, core)?;
    }
    Ok(())
}

// The lookups charge the caller's run; `unit_len` is asked for the
// unit's length only when the unit has to be filled, so a hit reads no
// main-heap bytes.

/// Run `access` and count every lookup of its that missed in the
/// behaviour window (the adaptive policy's "main memory" signal).
#[inline(always)]
fn counting_misses<T>(
    cache: &mut DataCache,
    window: &mut BehaviourWindow,
    access: impl FnOnce(&mut DataCache) -> T,
) -> T {
    let before = cache.stats.misses;
    let out = access(cache);
    window.mem_ops += cache.stats.misses - before;
    out
}

#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn cache_read(
    cache: &mut DataCache,
    heap: &mut Heap,
    machine: &mut CellMachine,
    run: &mut ChargeRun,
    window: &mut BehaviourWindow,
    unit: u32,
    unit_len: impl FnOnce(&Heap) -> u32,
    off: u32,
    ty: Ty,
) -> Result<Slot, StepError> {
    counting_misses(cache, window, |cache| {
        cache.read_slot(heap, machine, run, unit, unit_len, off, ty)
    })
    .map_err(StepError::from)
}

#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn cache_write(
    cache: &mut DataCache,
    heap: &mut Heap,
    machine: &mut CellMachine,
    run: &mut ChargeRun,
    window: &mut BehaviourWindow,
    unit: u32,
    unit_len: impl FnOnce(&Heap) -> u32,
    off: u32,
    ty: Ty,
    v: Slot,
) -> Result<(), StepError> {
    counting_misses(cache, window, |cache| {
        cache.write_slot(heap, machine, run, unit, unit_len, off, ty, v)
    })
    .map_err(StepError::from)
}

/// An array's length word, through block 0 of the array (which holds
/// the header).
#[inline(always)]
fn array_len_cached(
    cache: &mut DataCache,
    heap: &mut Heap,
    machine: &mut CellMachine,
    run: &mut ChargeRun,
    r: ObjRef,
) -> Result<u32, CacheFault> {
    let bb = cache.array_block_bytes();
    let block0 = |h: &Heap| h.header(r).size.min(bb);
    let len = cache.read_slot(heap, machine, run, r.0, block0, 4, Ty::Int)?;
    Ok(len.i32() as u32)
}

/// Read an array's length through the SPE data cache.
#[inline(never)]
fn spe_array_len(
    cache: &mut DataCache,
    heap: &mut Heap,
    machine: &mut CellMachine,
    run: &mut ChargeRun,
    window: &mut BehaviourWindow,
    r: ObjRef,
) -> Result<u32, StepError> {
    counting_misses(cache, window, |cache| {
        array_len_cached(cache, heap, machine, run, r)
    })
    .map_err(StepError::from)
}

/// Bounds-checked SPE array element access through block-granular
/// caching. `store` = `Some(v)` writes, `None` reads.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn spe_array_access(
    cache: &mut DataCache,
    heap: &mut Heap,
    machine: &mut CellMachine,
    run: &mut ChargeRun,
    window: &mut BehaviourWindow,
    r: ObjRef,
    idx: i32,
    elem: hera_isa::ElemTy,
    store: Option<Slot>,
) -> Result<Option<Slot>, StepError> {
    counting_misses(cache, window, |cache| {
        // Length check first, on the header block (block 0 of the
        // object): an element in block 0 then shares the cached unit just
        // read, any other block is looked up next. The index is guest
        // data — nothing is computed from it until it is known to be in
        // bounds.
        let len = array_len_cached(cache, heap, machine, run, r)?;
        let check = machine.cost_model().costs(run.core().kind()).check;
        machine.run_charge(run, OpClass::Integer, check);
        if idx < 0 || idx as u32 >= len {
            return Err(Trap::ArrayIndexOutOfBounds { index: idx, len }.into());
        }

        // In bounds, so the element lies inside the object and every
        // offset below is smaller than the object's size.
        let bb = cache.array_block_bytes();
        let rel = hera_mem::layout::HEADER_BYTES + idx as u32 * elem.size();
        let block_start = rel / bb * bb;
        let unit = r.0 + block_start;
        let unit_len = |h: &Heap| (h.header(r).size - block_start).min(bb);
        let off = rel - block_start;
        let ty = match elem {
            hera_isa::ElemTy::Byte => Ty::Byte,
            hera_isa::ElemTy::Short => Ty::Short,
            hera_isa::ElemTy::Int => Ty::Int,
            hera_isa::ElemTy::Long => Ty::Long,
            hera_isa::ElemTy::Float => Ty::Float,
            hera_isa::ElemTy::Double => Ty::Double,
            hera_isa::ElemTy::Ref => Ty::Ref(hera_isa::ClassId(0)),
        };
        Ok(match store {
            None => Some(cache.read_slot(heap, machine, run, unit, unit_len, off, ty)?),
            Some(v) => {
                cache.write_slot(heap, machine, run, unit, unit_len, off, ty, v)?;
                None
            }
        })
    })
}

// ---- code-cache plumbing ----

/// Perform the TOC → TIB → method lookup for `method` on the SPE the
/// thread currently occupies.
fn code_cache_lookup(w: &mut World<'_>, t: usize, method: MethodId) -> Result<(), StepError> {
    let core = w.threads[t].core;
    let CoreId::Spe(spe) = core else {
        return Ok(());
    };
    let def = w.program.method(method);
    if def.code().is_none() {
        return Ok(()); // natives are not cached code
    }
    let class = def.class;
    let tib_bytes = w.program.class(class).tib_bytes();
    let code_bytes = compile_for(w, core, method)?.code_bytes;
    let cache = &mut w.code_caches[spe as usize];
    cache.lookup(&mut w.machine, core, class, tib_bytes, method, code_bytes)?;
    Ok(())
}

/// `core`'s compilation of `method`, compiled on first use with the JIT's
/// cycles charged to `core`.
fn compile_for(
    w: &mut World<'_>,
    core: CoreId,
    method: MethodId,
) -> Result<Rc<CompiledMethod>, StepError> {
    let (code, jit) = w
        .registry
        .get_or_compile(w.program, &w.layout, method, core.kind())
        .map_err(VmError::Compile)?;
    if jit > 0 {
        w.machine.advance(core, jit, OpClass::Integer);
    }
    Ok(code)
}

// ---- frames, invocation, migration, return ----

/// Trace a migration departure (`from` → `dest`) and arm the lazy
/// arrival event, which fires with the target core's clock when the
/// thread is next dispatched. One branch when tracing is off.
///
/// `pub(crate)` because fail-over draining (world.rs) re-homes threads
/// through exactly this path.
pub(crate) fn trace_migration_out(
    w: &mut World<'_>,
    t: usize,
    from: CoreId,
    dest: CoreId,
    kind: MigrationKind,
) {
    if w.machine.trace.is_enabled() {
        let to_lane = w.machine.lane(dest) as u32;
        let thread = w.threads[t].id.0;
        w.machine.emit(
            from,
            TraceEvent::MigrateOut {
                kind,
                to_lane,
                thread,
            },
        );
        w.machine
            .trace
            .metrics
            .add(&format!("migrations.{}", kind.label()), 1);
        w.threads[t].pending_migrate_in = Some((from, kind));
    }
}

fn push_marker(th: &mut JavaThread, origin: CoreId) {
    let Some(top) = th.frames.last() else {
        // First activation of a thread: no marker needed.
        return;
    };
    let code = Rc::clone(&top.code);
    let base = top.sp;
    th.frames.push(Frame {
        method: MethodId(u32::MAX),
        code,
        pc: 0,
        base,
        nlocals: 0,
        sp: base,
        kind: FrameKind::MigrationMarker { origin },
    });
}

/// Pop `argc` untagged argument slots off the current frame and retag
/// them from the callee's signature — the `Value` boundary crossed by
/// migration packaging and the native bridge.
fn pop_args_values(w: &mut World<'_>, t: usize, def: &MethodDef, argc: usize) -> Vec<Value> {
    let th = &mut w.threads[t];
    let start = {
        let f = th.frames.last_mut().expect("thread has a frame");
        f.sp -= argc as u32;
        f.sp as usize
    };
    let mut kinds = def.params.iter().map(|ty| ty.kind());
    let mut args = Vec::with_capacity(argc);
    for i in 0..argc {
        let k = if !def.is_static && i == 0 {
            Kind::R
        } else {
            kinds.next().expect("argument count matches the signature")
        };
        args.push(sget(&th.arena, start + i).to_value(k));
    }
    args
}

/// Where a new activation's arguments come from.
enum Args {
    /// The top `argc` slots of the caller's operand stack: the callee's
    /// frame base is placed exactly where they are, so they become its
    /// first locals *in place* — the same-core invoke path never copies
    /// or retags an argument.
    OnStack(usize),
    /// Tagged values (thread start and migration arrival — the
    /// packaged-parameters boundary).
    Tagged(Vec<Value>),
}

/// Push an activation of `method`: depth check, JIT, code-cache lookup,
/// call-overhead charge, then the frame. A stack overflow kills the
/// thread and leaves it without frames.
fn push_frame(
    w: &mut World<'_>,
    tid: ThreadId,
    method: MethodId,
    args: Args,
) -> Result<(), StepError> {
    let t = tid.0 as usize;
    let core = w.threads[t].core;
    let argc = match &args {
        Args::OnStack(argc) => {
            let f = w.threads[t]
                .frames
                .last_mut()
                .expect("an invoke has a caller");
            f.sp -= *argc as u32;
            *argc
        }
        Args::Tagged(values) => values.len(),
    };
    if w.threads[t].frames.len() >= w.config.max_stack_depth {
        // Kill the thread: drop its frames (and the arena they index)
        // so every caller's `frames.is_empty()` check sees it is gone.
        w.threads[t].frames.clear();
        w.threads[t].arena.clear();
        w.finish_thread(tid, Err(Trap::NativeError("stack overflow".into())));
        return Ok(());
    }
    let code = compile_for(w, core, method)?;
    code_cache_lookup(w, t, method)?;
    w.machine.exec(core, ExecOp::CallOverhead);
    // Only now is the activation certain: a failed one must leave no
    // argument slots behind in the arena a checkpoint encodes.
    let th = &mut w.threads[t];
    let base = th.frames.last().map_or(0, |f| f.sp) as usize;
    let nlocals = (code.max_locals as usize).max(argc);
    let top = base + nlocals + code.max_stack as usize;
    if th.arena.len() < top {
        th.arena.resize(top, Slot::ZERO);
    }
    if let Args::Tagged(values) = args {
        for (slot, v) in th.arena[base..].iter_mut().zip(values) {
            *slot = Slot::from_value(v);
        }
    }
    // The other locals are zeroed: the verifier treats them as
    // uninitialised, and the all-zero slot is the default of every kind.
    th.arena[base + argc..base + nlocals].fill(Slot::ZERO);
    th.frames.push(Frame {
        method,
        code,
        pc: 0,
        base: base as u32,
        nlocals: nlocals as u32,
        sp: (base + nlocals) as u32,
        kind: FrameKind::Normal,
    });
    w.machine
        .emit(core, TraceEvent::MethodInvoke { method: method.0 });
    w.prof_enter(tid, method);
    Ok(())
}

/// Invoke `target` from the current frame: handles natives, migration
/// packaging and the in-place frame push.
fn do_invoke(w: &mut World<'_>, tid: ThreadId, target: MethodId) -> Result<Flow, StepError> {
    let t = tid.0 as usize;
    let core = w.threads[t].core;
    let program = w.program;
    let def = program.method(target);
    let argc = def.params.len() + if def.is_static { 0 } else { 1 };

    // Native methods never create frames; they take a bridge (and cross
    // the tagged-value boundary).
    if let hera_isa::MethodBody::Native(nid) = &def.body {
        let nid = *nid;
        let native_kind = def.native_kind.unwrap_or(NativeKind::FastSyscall);
        let args = pop_args_values(w, t, def, argc);
        return native_call(w, tid, nid, native_kind, args);
    }

    // Migration decisions (both happen at invoke safepoints, §3.1):
    // * annotation-driven migration drops a marker so the thread
    //   transparently returns to its origin core;
    // * scheduler-selected (runtime-monitoring) migration is one-way:
    //   the thread re-homes, and frames below rebind lazily.
    let policy = w.policy();
    let target_kind = match policy.annotation_target(def, core.kind()) {
        Some(kind) => Some((kind, MigrationKind::Annotation)),
        None => policy
            .monitored_target(&w.threads[t].window, core.kind())
            .map(|kind| (kind, MigrationKind::Monitored)),
    };
    if w.threads[t].window.total_ops > 1_000_000 {
        // Keep windows bounded even without migrations.
        w.threads[t].window.reset();
    }
    if let Some((kind, why)) = target_kind.filter(|&(kind, _)| kind != core.kind()) {
        // Package the parameters; they are pushed again on arrival.
        let args = pop_args_values(w, t, def, argc);
        let dest = w.pick_core(kind);
        return depart(w, t, core, dest, why, |th| {
            if why == MigrationKind::Annotation {
                push_marker(th, core);
            }
            th.pending_call = Some(PendingCall {
                method: target,
                args,
                marker_origin: None,
            });
            th.window.reset();
        });
    }

    push_frame(w, tid, target, Args::OnStack(argc))?;
    if w.threads[t].frames.is_empty() {
        // The frame push turned a stack overflow into thread death.
        return Ok(Flow::Finish);
    }
    Ok(Flow::Continue)
}

/// Move thread `t` from `core` to `dest`, whichever of the three triggers
/// (an annotated call, a monitoring decision, the return to a marker;
/// §3.1) asked. Program order follows the thread: its dirty cached writes
/// are published before it leaves and its stale copies are dropped on
/// arrival at an SPE. `pack` leaves on the thread what the arrival needs
/// and runs after the publish: a thread whose publish traps keeps the
/// frames it had, and a checkpoint encodes those.
fn depart(
    w: &mut World<'_>,
    t: usize,
    core: CoreId,
    dest: CoreId,
    kind: MigrationKind,
    pack: impl FnOnce(&mut JavaThread),
) -> Result<Flow, StepError> {
    jmm_release(w, core)?;
    if matches!(dest, CoreId::Spe(_)) {
        w.threads[t].pending_acquire_barrier = Some(ObjRef::NULL);
    }
    let cycles = w.config.migration_cycles as u64;
    let ms = w.machine.prof_scope_begin(core, CostClass::Migration);
    w.machine.watchdog_wait(core, FaultSite::Migration);
    w.machine.advance(core, cycles, OpClass::Stack);
    w.machine.prof_scope_end(core, ms);
    let th = &mut w.threads[t];
    pack(th);
    th.core = dest;
    th.available_at = w.machine.now(core) + cycles;
    th.migrations += 1;
    trace_migration_out(w, t, core, dest, kind);
    Ok(Flow::Migrate)
}

/// Return from the current frame, handling migration markers and the
/// SPE return-path code-cache re-lookup. The return value crosses
/// frames as a raw slot; it is only retagged at the thread boundary.
fn do_return(w: &mut World<'_>, tid: ThreadId, has_value: bool) -> Result<Flow, StepError> {
    let t = tid.0 as usize;
    let core = w.threads[t].core;
    w.machine.exec(core, ExecOp::ReturnOverhead);

    let ret = if has_value {
        Some(pop_slot(w, t))
    } else {
        None
    };
    if let Some(f) = w.threads[t].frames.last() {
        let m = f.method.0;
        w.machine.emit(core, TraceEvent::MethodReturn { method: m });
        // Return overhead bills to the returning method; everything from
        // here on (flushes, marker migrate-back, re-lookups) to the caller.
        w.prof_leave(tid);
    }
    let returning = w.threads[t].frames.pop();

    // A migration marker directly below? Pop it and migrate back.
    let marker_origin = match w.threads[t].frames.last() {
        Some(f) => match f.kind {
            FrameKind::MigrationMarker { origin } => {
                w.threads[t].frames.pop();
                Some(origin)
            }
            FrameKind::Normal => None,
        },
        None => None,
    };

    // Deliver the return value.
    if w.threads[t].frames.is_empty() {
        // JMM: a thread's termination happens-before any join on
        // it -- publish its writes before joiners observe the
        // finished state.
        jmm_release(w, core)?;
        // Thread boundary: retag the result from the entry method's
        // signature.
        let result = match (ret, &returning) {
            (Some(s), Some(f)) => w
                .program
                .method(f.method)
                .ret
                .map(|ty| s.to_value(ty.kind())),
            _ => None,
        };
        w.finish_thread(tid, Ok(result));
        return Ok(Flow::Finish);
    }
    if let Some(v) = ret {
        push_slot(w, t, v);
    }
    let caller_method = w.threads[t].frames.last().map(|f| f.method);

    match marker_origin {
        // Transparent migrate-back (paper §3.1: the thread "returns to
        // the migration marker placed on the stack").
        Some(origin) => depart(w, t, core, origin, MigrationKind::MarkerReturn, |th| {
            if matches!(origin, CoreId::Spe(_)) {
                th.pending_relookup = caller_method;
            }
        }),
        None => {
            // Same-core return: on an SPE the caller's code may have
            // been purged while the callee ran — look it up again.
            if let Some(m) = caller_method {
                code_cache_lookup(w, t, m)?;
            }
            Ok(Flow::Continue)
        }
    }
}

// ---- native bridge ----

/// Execute a native method. On an SPE the call is bridged to the PPE:
/// JNI natives migrate the thread there for the duration; fast syscalls
/// signal the dedicated PPE proxy thread and wait for the reply.
fn native_call(
    w: &mut World<'_>,
    tid: ThreadId,
    nid: hera_isa::NativeId,
    kind: NativeKind,
    args: Vec<Value>,
) -> Result<Flow, StepError> {
    let t = tid.0 as usize;
    let core = w.threads[t].core;
    let native = StdNative::from_id(nid)
        .ok_or_else(|| Trap::NativeError(format!("unknown native id {}", nid.0)))?;

    // Per-call cost: body plus per-byte cost for buffer natives.
    let extra = match native {
        StdNative::PrintBytes | StdNative::WriteFile => {
            let len_idx = if native == StdNative::WriteFile { 2 } else { 1 };
            (args[len_idx].as_i32().max(0) as u64) / 4
        }
        _ => 0,
    };
    let body = native.base_cycles() + extra;

    if core == CoreId::Ppe {
        // Already on the PPE: just run it.
        let sp = w.machine.prof_scope_begin(CoreId::Ppe, CostClass::Syscall);
        w.machine.stall(CoreId::Ppe, body, OpClass::MainMemory);
        w.machine.prof_scope_end(CoreId::Ppe, sp);
    } else {
        // The PPE must see this thread's writes (JNI) — and either
        // bridge serialises on the PPE.
        if kind == NativeKind::Jni {
            jmm_release(w, core)?;
        }
        let sc = w.machine.prof_scope_begin(core, CostClass::Syscall);
        let sp = w.machine.prof_scope_begin(CoreId::Ppe, CostClass::Syscall);
        let reply = match kind {
            NativeKind::FastSyscall => {
                w.machine
                    .emit(core, TraceEvent::SyscallProxy { native: nid.0 });
                // The proxy wait is a watchdog-guarded rendezvous: an
                // injected lost signal costs a timeout + retry.
                w.machine.watchdog_wait(core, FaultSite::SyscallProxy);
                w.machine.cost_model().syscall_signal_cycles as u64
            }
            NativeKind::Jni => {
                w.machine
                    .emit(core, TraceEvent::JniBridge { native: nid.0 });
                w.threads[t].migrations += 2;
                2 * w.config.migration_cycles as u64
            }
        };
        ppe_round_trip(w, core, body, reply);
        w.machine.prof_scope_end(core, sc);
        w.machine.prof_scope_end(CoreId::Ppe, sp);
        w.threads[t].window.mem_ops += 1;
    }

    // Semantics.
    match native {
        StdNative::PrintI32 => {
            w.output.push(format!("{}", args[0].as_i32()));
        }
        StdNative::PrintI64 => {
            w.output.push(format!("{}", args[0].as_i64()));
        }
        StdNative::PrintF64 => {
            w.output.push(format!("{}", args[0].as_f64()));
        }
        StdNative::PrintBytes => {
            let s = read_guest_bytes(w, args[0].as_ref(), args[1].as_i32())?;
            w.output.push(String::from_utf8_lossy(&s).into_owned());
        }
        StdNative::TimeMillis => {
            // 3.2 GHz virtual clock.
            let ms = w.machine.now(w.threads[t].core) / 3_200_000;
            push_slot(w, t, Slot::from_i64(ms as i64));
        }
        StdNative::SpawnThread => {
            // JMM: everything before Thread.start() happens-before the
            // new thread's first action -- publish this core's writes.
            jmm_release(w, core)?;
            let obj = args[0].as_ref();
            if obj.is_null() {
                return Err(Trap::NullPointer.into());
            }
            let class = match w.heap.header(obj).kind {
                HeapKind::Object(c) => c,
                _ => return Err(Trap::NativeError("spawn of non-object".into()).into()),
            };
            let thread_class = w
                .program
                .class_by_name("Thread")
                .ok_or_else(|| Trap::NativeError("no Thread class installed".into()))?;
            if !w.program.is_subclass(class, thread_class) {
                return Err(Trap::NativeError("spawn argument is not a Thread".into()).into());
            }
            let run = w.program.class(class).vtable[0];
            let idx = w.threads.len() as u32;
            let (kind, spe_hint) = w.policy().initial_core_kind(idx, w.config.cell.num_spes);
            let dest = match kind {
                CoreKind::Ppe => CoreId::Ppe,
                // A blacklisted SPE never receives new threads.
                CoreKind::Spe => w.remap_failed(CoreId::Spe(spe_hint)),
            };
            let at = w.machine.now(CoreId::Ppe);
            let new_tid = w.spawn_thread(run, vec![Value::Ref(obj)], dest, at);
            push_slot(w, t, Slot::from_i32(new_tid.0 as i32));
        }
        StdNative::JoinThread => {
            let target = ThreadId(args[0].as_i32() as u32);
            if target.0 as usize >= w.threads.len() {
                return Err(Trap::NativeError(format!("join of unknown tid {}", target.0)).into());
            }
            if !w.threads[target.0 as usize].is_finished() {
                w.block(tid, BlockReason::Join(target));
                // The joined thread's effects must be visible on wake
                // (happens-before edge) -- run the acquire barrier then.
                w.threads[t].pending_acquire_barrier = Some(ObjRef::NULL);
                return Ok(Flow::Block);
            }
            // The joined thread's effects must be visible (happens-
            // before edge): purge this SPE's stale cache.
            jmm_acquire(w, core)?;
        }
        StdNative::WriteFile => {
            let fd = args[0].as_i32();
            let bytes = read_guest_bytes(w, args[1].as_ref(), args[2].as_i32())?;
            let len = bytes.len() as i32;
            w.files.entry(fd).or_default().extend_from_slice(&bytes);
            push_slot(w, t, Slot::from_i32(len));
        }
        StdNative::YieldThread => {
            return Ok(Flow::EndQuantum);
        }
    }
    Ok(Flow::Continue)
}

/// An SPE's round trip through the PPE (paper §3.2.3): the PPE serves
/// the request once both clocks have reached it, spending `body` cycles,
/// and the SPE waits for the answer and spends `reply` cycles taking it.
fn ppe_round_trip(w: &mut World<'_>, core: CoreId, body: u64, reply: u64) {
    let start = w.machine.now(CoreId::Ppe).max(w.machine.now(core));
    w.machine.idle_until(CoreId::Ppe, start);
    w.machine.stall(CoreId::Ppe, body, OpClass::MainMemory);
    let done = w.machine.now(CoreId::Ppe);
    w.machine.wait_until(core, done, OpClass::MainMemory);
    w.machine.stall(core, reply, OpClass::MainMemory);
}

/// Read `len` bytes of a guest byte array (native, runs on the PPE with
/// direct heap access). Buffer natives take arbitrary verified refs, so
/// a non-array argument is a trap here, not a VM panic.
fn read_guest_bytes(w: &mut World<'_>, arr: ObjRef, len: i32) -> Result<Vec<u8>, StepError> {
    if arr.is_null() {
        return Err(Trap::NullPointer.into());
    }
    let alen = w
        .heap
        .try_array_length(arr)
        .ok_or_else(|| Trap::NativeError("buffer argument is not an array".into()))?;
    let len = len.max(0) as u32;
    if len > alen {
        return Err(Trap::ArrayIndexOutOfBounds {
            index: len as i32,
            len: alen,
        }
        .into());
    }
    let base = arr.0 + hera_mem::layout::HEADER_BYTES;
    Ok(w.heap.read_bytes(base, len)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::install_runtime;
    use crate::testgen::{idiom_method, DOOMS};
    use crate::thread::ThreadState;
    use crate::vm::VmConfig;
    use hera_cell::FaultPlan;
    use hera_isa::{Instr, MethodBody, Program, ProgramBuilder};
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;
    use std::mem::{discriminant, Discriminant};

    thread_local! {
        /// Dispatch every op as its head: the 1:1 engine — no second
        /// loop, the path a budget-cut op takes in every build.
        static HEAD_ONLY: Cell<bool> = const { Cell::new(false) };
        /// Per fused variant: `[dispatched whole, cut by the budget]`.
        static FUSED: RefCell<HashMap<Discriminant<MachineOp>, [u64; 2]>> =
            RefCell::new(HashMap::new());
        /// Running digest of the thread at every exit from the hot tier.
        static BLOCKS: Cell<u64> = const { Cell::new(0) };
    }

    /// `exec_block`'s hook: fold where the block stopped (`pc`, `sp`, the
    /// budget left), the behaviour window and the whole arena — dead
    /// operand slots included — into the run's digest. With a budget of
    /// 2 or 3 that is the state right after single fused ops.
    pub(super) fn on_block_exit(th: &JavaThread, budget: u32) {
        let f = th.frames.last().expect("a block ran in a frame");
        let w = th.window;
        let head = [
            f.pc as u64,
            f.sp as u64,
            budget as u64,
            w.total_ops,
            w.fp_ops,
            w.mem_ops,
        ];
        let slots = th.arena.iter().map(|s| s.raw());
        let digest = head
            .into_iter()
            .chain(slots)
            .fold(BLOCKS.get(), |h, v| hera_rng::splitmix64(h ^ v));
        BLOCKS.set(digest);
    }

    /// `exec_block_run`'s hook: counts fused fetches, and forces the cut
    /// when the reference engine is asked for.
    pub(super) fn on_fetch(op: &MachineOp, cut: bool) -> bool {
        if HEAD_ONLY.get() {
            return true;
        }
        if op.parts() > 1 {
            FUSED.with_borrow_mut(|m| m.entry(discriminant(op)).or_default()[cut as usize] += 1);
        }
        cut
    }

    /// Everything a run leaves behind that the guest, the cost model, a
    /// trace consumer or a later restore can see.
    struct Observed {
        result: Vec<String>,
        output: Vec<String>,
        wall: u64,
        ppe: ([u64; 6], [u64; 6]),
        spe: ([u64; 6], [u64; 6]),
        heap_digest: u64,
        blocks: u64,
        lanes: Vec<hera_trace::Lane>,
        snapshot: Vec<u8>,
    }

    fn observe(program: &Program, cfg: VmConfig, head_only: bool) -> Observed {
        HEAD_ONLY.set(head_only);
        BLOCKS.set(0);
        let mut w = World::new(program, cfg);
        let (kind, spe) = cfg.policy.initial_core_kind(0, cfg.cell.num_spes);
        let core = match kind {
            CoreKind::Ppe => CoreId::Ppe,
            CoreKind::Spe => CoreId::Spe(spe),
        };
        w.spawn_thread(program.entry.expect("entry"), Vec::new(), core, 0);
        w.run_to_completion().expect("no VM error");
        HEAD_ONLY.set(false);
        let image = w.heap.raw();
        let written = w.heap.written_mark() as usize;
        Observed {
            result: w
                .threads
                .iter()
                .map(|t| match &t.state {
                    ThreadState::Finished(r) => format!("{r:?}"),
                    other => panic!("thread left {other:?}"),
                })
                .collect(),
            output: w.output.clone(),
            wall: w.machine.makespan(&w.machine.cores()),
            ppe: w.machine.breakdown(CoreId::Ppe).to_raw(),
            spe: w.machine.spe_breakdown().to_raw(),
            heap_digest: hera_snap::digest64_zero_extended(&image[..written], image.len()),
            blocks: BLOCKS.get(),
            lanes: w.machine.trace.lanes().to_vec(),
            snapshot: w.checkpoint_now(),
        }
    }

    /// A generated `main` plus a bytecode `emit(int)` it calls, which
    /// prints its argument: blocks end in invokes, returns and a native.
    fn program(seed: u64) -> Program {
        let mut pb = ProgramBuilder::new();
        let api = install_runtime(&mut pb);
        let class = pb.add_class("Idioms", None);
        let emit = pb.add_static_method(
            class,
            "emit",
            vec![Ty::Int],
            None,
            1,
            MethodBody::Bytecode(vec![
                Instr::Load(0),
                Instr::InvokeStatic(api.print_i32),
                Instr::Return,
            ]),
        );
        idiom_method(&mut pb, class, "main", seed, Some(emit));
        pb.finish_with_entry("Idioms", "main").expect("resolves")
    }

    /// The fused engine against the 1:1 engine, on generated programs:
    /// same result, traps, output, virtual time, per-class cycles *and op
    /// counts*, heap image, trace and final checkpoint bytes — under every
    /// budget that cuts fused ops, across a mid-block slowdown onset, on
    /// both core kinds, traced and not. Release builds run it too, where
    /// the per-op charge shadow is compiled out.
    #[test]
    fn fused_ops_match_head_by_head() {
        FUSED.with_borrow_mut(|m| m.clear());
        let (mut traps, mut ops) = (Vec::new(), 0);
        for seed in 0..16 {
            let program = program(seed);
            for (core, base) in [
                ("ppe", VmConfig::pinned_ppe()),
                (
                    "spe1",
                    VmConfig::pinned_spe(1).with_cache_sizes(8 << 10, 32 << 10),
                ),
            ] {
                let mut base = base;
                base.heap.size_bytes = 256 << 10;
                let plain = observe(&program, base, true);
                traps.extend(
                    plain
                        .result
                        .iter()
                        .filter(|r| r.starts_with("Err"))
                        .cloned(),
                );
                ops += plain.ppe.1.iter().chain(&plain.spe.1).sum::<u64>();
                // An odd cycle about a third of the way in: inside a block.
                let onset = (plain.wall / 3) | 1;
                let slow = FaultPlan::default().with_slowdown(3, onset).expect("valid");
                for faults in [FaultPlan::default(), slow] {
                    for quantum_ops in [1, 2, 3, 5, 4096] {
                        for traced in [false, true] {
                            let mut cfg = base.with_faults(faults);
                            cfg.quantum_ops = quantum_ops;
                            cfg.cell.trace = traced;
                            let at = format!(
                                "seed {seed} {core} q{quantum_ops} traced={traced} slow={}",
                                faults.slowdown_active()
                            );
                            let head = observe(&program, cfg, true);
                            let fused = observe(&program, cfg, false);
                            assert_eq!(fused.result, head.result, "{at}: results / traps");
                            assert_eq!(fused.output, head.output, "{at}: output");
                            assert_eq!(fused.wall, head.wall, "{at}: wall cycles");
                            assert_eq!(fused.ppe, head.ppe, "{at}: PPE breakdown");
                            assert_eq!(fused.spe, head.spe, "{at}: SPE breakdown");
                            assert_eq!(fused.heap_digest, head.heap_digest, "{at}: heap");
                            assert_eq!(fused.blocks, head.blocks, "{at}: state at block exits");
                            assert_eq!(traced, head.lanes.iter().any(|l| !l.events.is_empty()));
                            for (f, h) in fused.lanes.iter().zip(&head.lanes) {
                                let first =
                                    f.events.iter().zip(&h.events).position(|(a, b)| a != b);
                                assert_eq!(first, None, "{at}: lane {} diverges", f.name);
                                assert_eq!(f.events.len(), h.events.len(), "{at}: {}", f.name);
                            }
                            let first = fused
                                .snapshot
                                .iter()
                                .zip(&head.snapshot)
                                .position(|(a, b)| a != b);
                            assert_eq!(first, None, "{at}: checkpoint bytes diverge");
                            assert_eq!(fused.snapshot.len(), head.snapshot.len(), "{at}");
                        }
                    }
                }
            }
        }
        // The generator does its job: most programs run to the end, and
        // every trap a fused op can end in kills one.
        assert_eq!(traps.len(), 2 * DOOMS as usize, "{traps:?}");
        for kind in ["DivisionByZero", "ArrayIndexOutOfBounds", "NullPointer"] {
            assert!(
                traps.iter().any(|t| t.contains(kind)),
                "no {kind} in {traps:?}"
            );
        }
        assert!(ops > 500_000, "only {ops} ops retired");
        // Every fused variant ran whole and was cut by the budget.
        FUSED.with_borrow(|m| {
            assert_eq!(m.len(), 16, "fused variants dispatched: {m:?}");
            for (shape, [whole, cut]) in m {
                assert!(
                    *whole > 0 && *cut > 0,
                    "{shape:?}: {whole} whole, {cut} cut"
                );
            }
        });
    }
}

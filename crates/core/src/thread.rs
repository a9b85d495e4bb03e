//! Guest threads: the per-thread slot arena, frame cursors, migration
//! markers, run state and the behaviour monitor that feeds the adaptive
//! placement policy.
//!
//! Frames are *untagged*: locals and operand stack live in one
//! contiguous per-thread [`Slot`] arena, and a [`Frame`] is just a
//! cursor (base / sp) into it. Because the verifier proved every stack
//! cell and local has a single kind at every pc, no runtime tags are
//! needed; GC exactness is recovered from the per-pc reference maps the
//! JIT carries on each [`CompiledMethod`].

use hera_cell::CoreId;
use hera_isa::{MethodId, ObjRef, Slot, Trap, Value};
use hera_jit::CompiledMethod;
use hera_trace::MigrationKind;
use std::rc::Rc;

/// Identifier of a guest thread.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct ThreadId(pub u32);

/// Why a thread is not currently runnable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockReason {
    /// Waiting for another thread to release this object's monitor.
    Monitor(ObjRef),
    /// Waiting for another thread to finish (`join`).
    Join(ThreadId),
}

/// Thread life-cycle state.
#[derive(Clone, PartialEq, Debug)]
pub enum ThreadState {
    /// Eligible to run (possibly queued behind others on its core).
    Ready,
    /// Parked on a monitor or join.
    Blocked(BlockReason),
    /// Completed, either with a value (the entry method's return) or a
    /// trap.
    Finished(Result<Option<Value>, Trap>),
}

/// What kind of frame sits on the stack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameKind {
    /// An ordinary method activation.
    Normal,
    /// A migration marker (paper §3.1): pushed when the thread migrated
    /// to another core kind at an invoke; returning through it migrates
    /// the thread back to `origin`. Markers occupy zero arena slots.
    MigrationMarker {
        /// The core to return to.
        origin: CoreId,
    },
}

/// One method activation: a fixed-size window into the thread's slot
/// arena.
///
/// Layout: locals occupy `[base, base + nlocals)`, the operand stack
/// grows upward through `[base + nlocals, base + nlocals + max_stack)`,
/// and `sp` is the *absolute* arena index one past the stack top. A
/// callee's `base` coincides with the arena position of its arguments on
/// the caller's stack, so invocation passes arguments without copying.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The executing method.
    pub method: MethodId,
    /// Its compiled (core-specific) code.
    pub code: Rc<CompiledMethod>,
    /// Next op index.
    pub pc: u32,
    /// Arena index of local slot 0.
    pub base: u32,
    /// Local slot count (`code.max_locals`, or the argument count for
    /// entry activations when that is larger).
    pub nlocals: u32,
    /// Arena index one past the operand-stack top.
    pub sp: u32,
    /// Normal or migration marker.
    pub kind: FrameKind,
}

impl Frame {
    /// Arena index of operand-stack slot 0.
    #[inline(always)]
    pub fn stack_base(&self) -> u32 {
        self.base + self.nlocals
    }

    /// Current operand-stack depth.
    #[inline(always)]
    pub fn stack_depth(&self) -> u32 {
        self.sp - self.stack_base()
    }
}

/// A deferred method call: a thread's first activation, or a call carried
/// across a migration — the paper's "parameters of the method are
/// packaged and a marker is placed on the stack" (the invoke path pushes
/// the marker before it departs). Arguments are *tagged* here — migration
/// repackaging is one of the few API boundaries where `Value` survives.
#[derive(Clone, Debug)]
pub struct PendingCall {
    /// The method to invoke on arrival.
    pub method: MethodId,
    /// Packaged arguments (receiver first for instance methods).
    pub args: Vec<Value>,
}

/// Windowed behaviour counters for runtime monitoring (paper §3: "these
/// hints, alongside runtime monitoring, inform Hera-JVM's thread
/// placement and migration decisions").
#[derive(Clone, Copy, Debug, Default)]
pub struct BehaviourWindow {
    /// Floating-point ops retired in the current window.
    pub fp_ops: u64,
    /// Main-memory events (software-cache misses / PPE deep misses).
    pub mem_ops: u64,
    /// All ops retired in the window.
    pub total_ops: u64,
}

impl BehaviourWindow {
    /// Fraction of ops that were floating point.
    pub fn fp_fraction(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.fp_ops as f64 / self.total_ops as f64
        }
    }

    /// Fraction of ops that touched main memory.
    pub fn mem_fraction(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.mem_ops as f64 / self.total_ops as f64
        }
    }

    /// Reset for the next window.
    pub fn reset(&mut self) {
        *self = BehaviourWindow::default();
    }
}

/// A guest thread.
#[derive(Debug)]
pub struct JavaThread {
    /// This thread's id.
    pub id: ThreadId,
    /// Activation stack (bottom first); cursors into `arena`.
    pub frames: Vec<Frame>,
    /// The contiguous untagged slot arena all frames are carved from.
    /// Grows monotonically (deep recursion resizes it once) and is never
    /// shrunk; slots above the live watermark are simply dead.
    pub arena: Vec<Slot>,
    /// Run state.
    pub state: ThreadState,
    /// The core this thread is (or will next be) scheduled on.
    pub core: CoreId,
    /// Earliest machine time at which the thread may run on `core`
    /// (set by migrations, wakes and spawns).
    pub available_at: u64,
    /// A call to perform when next scheduled (used by spawn and by
    /// migration, where the callee's frame is created on the target
    /// core).
    pub pending_call: Option<PendingCall>,
    /// On returning to an SPE through a migration marker, the caller
    /// method whose code must be re-looked-up in the code cache.
    pub pending_relookup: Option<MethodId>,
    /// Set when this thread must run a JMM acquire barrier on resume:
    /// either it was handed a monitor while blocked (the object is
    /// recorded) or it was woken from a `join` (recorded as null).
    pub pending_acquire_barrier: Option<ObjRef>,
    /// Trace bookkeeping: a migration happened and the arrival event has
    /// not been emitted yet (origin core, path kind). Only ever set while
    /// tracing is enabled; emitted lazily when the thread is next
    /// dispatched, so the arrival timestamp is on the target core's clock.
    pub pending_migrate_in: Option<(CoreId, MigrationKind)>,
    /// Runtime-monitoring window.
    pub window: BehaviourWindow,
    /// Total migrations performed.
    pub migrations: u64,
    /// Monitors currently held (entry counts live in the monitor table);
    /// used to detect illegal exits cheaply in diagnostics.
    pub held_monitors: u32,
}

impl JavaThread {
    /// Create a thread whose first activation will call `method(args)`.
    pub fn new(id: ThreadId, core: CoreId, method: MethodId, args: Vec<Value>) -> JavaThread {
        JavaThread {
            id,
            frames: Vec::new(),
            arena: Vec::new(),
            state: ThreadState::Ready,
            core,
            available_at: 0,
            pending_call: Some(PendingCall { method, args }),
            pending_relookup: None,
            pending_acquire_barrier: None,
            pending_migrate_in: None,
            window: BehaviourWindow::default(),
            migrations: 0,
            held_monitors: 0,
        }
    }

    /// Whether the thread has finished.
    pub fn is_finished(&self) -> bool {
        matches!(self.state, ThreadState::Finished(_))
    }

    /// All references reachable from this thread's stack — exact GC
    /// roots. Slots carry no tags, so each frame is scanned under the
    /// verifier's reference map for its current pc: a suspended frame's
    /// pc names the *next* op, whose entry state describes exactly the
    /// live locals and operand-stack prefix.
    pub fn roots(&self) -> Vec<ObjRef> {
        let mut out = Vec::new();
        for f in &self.frames {
            if matches!(f.kind, FrameKind::MigrationMarker { .. }) {
                continue; // markers occupy no slots
            }
            let Some(map) = f.code.ref_maps.get(f.pc as usize) else {
                continue;
            };
            let base = f.base as usize;
            for i in 0..f.nlocals as usize {
                if map.local_is_ref(i) {
                    let r = self.arena[base + i].obj();
                    if !r.is_null() {
                        out.push(r);
                    }
                }
            }
            // Mid-op (allocation) scans can be up to one slot short of
            // the map's depth — the not-yet-pushed result. The common
            // prefix is exact, so scan the shallower of the two.
            let sbase = base + f.nlocals as usize;
            let depth = (f.sp as usize - sbase).min(map.stack_depth as usize);
            for i in 0..depth {
                if map.stack_is_ref(i) {
                    let r = self.arena[sbase + i].obj();
                    if !r.is_null() {
                        out.push(r);
                    }
                }
            }
        }
        if let Some(p) = &self.pending_call {
            for v in &p.args {
                if let Value::Ref(r) = v {
                    if !r.is_null() {
                        out.push(*r);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_cell::CoreKind;
    use hera_isa::{Instr, MethodBody, ProgramBuilder, Ty};

    fn dummy_thread() -> JavaThread {
        JavaThread::new(
            ThreadId(1),
            CoreId::Ppe,
            MethodId(0),
            vec![Value::I32(1), Value::Ref(ObjRef(64))],
        )
    }

    /// Compile a real method whose ref maps mark local 0 and (at pc 1,
    /// after the load) stack slot 0 as references.
    fn ref_code() -> Rc<CompiledMethod> {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let obj = Ty::Ref(c);
        let m = b.add_static_method(
            c,
            "id",
            vec![obj, Ty::Int],
            Some(obj),
            2,
            MethodBody::Bytecode(vec![Instr::Load(0), Instr::ReturnValue]),
        );
        let p = b.finish().unwrap();
        let layout = hera_mem::ProgramLayout::compute(&p);
        let mut reg = hera_jit::MethodRegistry::new();
        let (code, _) = reg.get_or_compile(&p, &layout, m, CoreKind::Ppe).unwrap();
        code
    }

    #[test]
    fn new_thread_is_ready_with_pending_call() {
        let t = dummy_thread();
        assert_eq!(t.state, ThreadState::Ready);
        assert!(t.pending_call.is_some());
        assert!(!t.is_finished());
        assert_eq!(t.core.kind(), CoreKind::Ppe);
    }

    #[test]
    fn roots_include_pending_args_and_skip_null_and_prims() {
        let t = dummy_thread();
        assert_eq!(t.roots(), vec![ObjRef(64)]);
    }

    #[test]
    fn roots_walk_all_frames_under_ref_maps() {
        let mut t = dummy_thread();
        t.pending_call = None;
        let code = ref_code();
        // Frame 0 at pc 0: local 0 is a ref (an argument), local 1 an int.
        t.arena = vec![Slot::from_ref(ObjRef(8)), Slot::from_i32(7)];
        t.frames.push(Frame {
            method: MethodId(0),
            code: Rc::clone(&code),
            pc: 0,
            base: 0,
            nlocals: 2,
            sp: 2,
            kind: FrameKind::Normal,
        });
        // A migration marker contributes nothing.
        t.frames.push(Frame {
            method: MethodId(u32::MAX),
            code: Rc::clone(&code),
            pc: 0,
            base: 2,
            nlocals: 0,
            sp: 2,
            kind: FrameKind::MigrationMarker {
                origin: CoreId::Spe(2),
            },
        });
        // Frame 1 at pc 1 (after Load 0): locals {ref, int}, stack {ref}.
        t.arena.extend([
            Slot::from_ref(ObjRef(16)),
            Slot::from_i32(3),
            Slot::from_ref(ObjRef(24)),
        ]);
        t.frames.push(Frame {
            method: MethodId(0),
            code,
            pc: 1,
            base: 2,
            nlocals: 2,
            sp: 5,
            kind: FrameKind::Normal,
        });
        assert_eq!(t.roots(), vec![ObjRef(8), ObjRef(16), ObjRef(24)]);
    }

    #[test]
    fn null_refs_and_untagged_ints_are_not_roots() {
        let mut t = dummy_thread();
        t.pending_call = None;
        let code = ref_code();
        // Local 0 (a ref slot per the map) is null; local 1 is an int
        // whose bit pattern would look like a valid address if the map
        // were ignored.
        t.arena = vec![Slot::from_ref(ObjRef::NULL), Slot::from_i32(64)];
        t.frames.push(Frame {
            method: MethodId(0),
            code,
            pc: 0,
            base: 0,
            nlocals: 2,
            sp: 2,
            kind: FrameKind::Normal,
        });
        assert!(t.roots().is_empty());
    }

    #[test]
    fn behaviour_window_fractions() {
        let mut w = BehaviourWindow::default();
        assert_eq!(w.fp_fraction(), 0.0);
        w.fp_ops = 30;
        w.mem_ops = 10;
        w.total_ops = 100;
        assert!((w.fp_fraction() - 0.3).abs() < 1e-12);
        assert!((w.mem_fraction() - 0.1).abs() < 1e-12);
        w.reset();
        assert_eq!(w.total_ops, 0);
    }

    #[test]
    fn finished_state_is_terminal_flag() {
        let mut t = dummy_thread();
        t.state = ThreadState::Finished(Ok(Some(Value::I32(3))));
        assert!(t.is_finished());
        t.state = ThreadState::Blocked(BlockReason::Join(ThreadId(0)));
        assert!(!t.is_finished());
    }
}

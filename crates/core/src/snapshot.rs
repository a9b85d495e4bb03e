//! Whole-VM checkpoint encode/decode (hera-snap payload layout).
//!
//! A snapshot captures the complete machine at a scheduler safepoint:
//! clocks, cycle breakdowns, the EIB ledger, the PPE hardware cache, SPE
//! local stores, the heap and GC bookkeeping, both software caches, the
//! JIT registry key set, every thread (frames, slot arena, migration
//! markers), monitors, run queues, fault state, and the observability
//! side (metrics registry, profiler shadow stacks). Restoring into a
//! fresh [`World`] resumes the run with subsequent virtual time
//! bit-identical to the uninterrupted run.
//!
//! ## Payload layout
//!
//! The sealed payload is `[u64 core_len][CORE][OBS]`. The CORE section
//! holds everything that affects virtual time; the checkpoint write cost
//! is charged from `core_len` alone, so enabling tracing or profiling
//! (which only grows OBS) never perturbs cycle counts. The OBS section
//! deliberately excludes per-lane trace event counts and any record of
//! restores, so a checkpoint blob taken later in a *resumed* run is
//! byte-identical to the same-seq blob of the uninterrupted run.
//!
//! All maps are iterated in sorted key order at encode time and every
//! integer is fixed-width, so encoding the same state twice yields the
//! same bytes, and the checkpoint stall — which moves only the clocks at
//! the head of CORE — changes neither its length nor the offset of
//! anything in it. That breaks the cost-depends-on-size circularity and
//! lets [`Checkpoint`] encode CORE once, before the stall, and re-encode
//! just the head and clocks after it.
//!
//! ## One walk per struct
//!
//! Each struct's fields are listed once, in a walk generic over
//! [`Codec`]: run with a [`SnapWriter`] it encodes, run with a
//! [`SnapReader`] it decodes, so a field cannot be written and not read
//! back. The checks only decoding needs (ids, core tags, counts) run in
//! the walk, on the reader only; the world-level walks run over a
//! [`Target`], and what only a restore does — install decoded state,
//! recompile, salvage and drain dropped SPEs — is a [`Target::restore`]
//! step at the point of the walk where the decoded values are complete.

use crate::stats::GcSummary;
use crate::thread::{
    BehaviourWindow, BlockReason, Frame, FrameKind, JavaThread, PendingCall, ThreadId, ThreadState,
};
use crate::vm::VmConfig;
use crate::world::World;
use hera_cell::{CoreId, CoreKind, CycleBreakdown, FaultPlan, FaultStats, HwCacheStats, SpeDeath};
use hera_isa::{ClassId, MethodId, ObjRef, Program, Slot, Trap, Value};
use hera_jit::RegistryStats;
use hera_mem::heap::AllocStats;
use hera_snap::{digest64, open, Codec, RleLen, SnapError, SnapReader, SnapWriter, HEADER_LEN};
use hera_softcache::{CodeCacheStats, DataCacheStats};
use hera_trace::{Histogram, MetricsRegistry, MigrationKind};
use std::ops::Deref;
use std::rc::Rc;

/// One checkpoint taken during a run: the sealed snapshot bytes plus
/// where in virtual time it was taken.
#[derive(Clone, Debug)]
pub struct CheckpointBlob {
    /// Checkpoint sequence number (1-based within a run).
    pub seq: u32,
    /// Virtual wall-clock cycle at which the checkpoint was triggered
    /// (before the write cost was charged).
    pub at_cycle: u64,
    /// The complete sealed snapshot.
    pub bytes: Vec<u8>,
}

/// Cheap header-level facts about a snapshot, without a full decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnapshotInfo {
    /// Checkpoint sequence number.
    pub seq: u32,
    /// Virtual wall-clock at capture (post write-stall).
    pub wall_cycles: u64,
    /// Bytes in the virtual-time-relevant CORE section (drives cost).
    pub core_len: u64,
    /// Total payload bytes.
    pub payload_len: usize,
}

/// Digest of the *machine* configuration: the run configuration with the
/// whole fault plan zeroed. The fault plan is carried in the snapshot
/// explicitly (see [`fault_plan`]) rather than folded into the digest, so
/// that a checkpoint can be restored on a machine whose own plan differs
/// — cross-machine migration in a fleet where every machine has its own
/// fault seed. Strict restores still compare the carried plan against the
/// destination's; adoption installs the carried plan instead.
pub fn config_digest(config: &VmConfig) -> u64 {
    let mut cfg = *config;
    cfg.cell.faults = FaultPlan::default();
    digest64(format!("{cfg:?}").as_bytes())
}

/// `plan` with the crash schedule removed — the shape that is compared
/// across a checkpoint/restore pair (the source may have been doomed, the
/// destination is not, and neither difference is real VM state).
fn crashless(plan: &FaultPlan) -> FaultPlan {
    let mut p = *plan;
    p.machine_crash_at = None;
    p
}

/// Digest of the guest program. Digests the Debug rendering of the
/// deterministic parts only — the builder's name-to-class map is a
/// `HashMap` whose Debug order varies between processes.
pub fn program_digest(program: &Program) -> u64 {
    digest64(
        format!(
            "{:?} {:?} {:?} {:?}",
            program.classes, program.fields, program.methods, program.entry
        )
        .as_bytes(),
    )
}

/// A decode-time check: `Corrupt(what())` when a decoded value fails
/// `ok`. A writer's values come from a live VM and are not checked.
fn ensure<C: Codec>(ok: bool, what: impl FnOnce() -> String) -> Result<(), SnapError> {
    if C::READS && !ok {
        Err(SnapError::Corrupt(what()))
    } else {
        Ok(())
    }
}

/// A count that must equal `want`, the source's own.
fn count<C: Codec>(
    c: &mut C,
    n: usize,
    want: usize,
    min_elem_bytes: usize,
    what: &str,
) -> Result<(), SnapError> {
    let n = c.len_prefix(n, min_elem_bytes)?;
    ensure::<C>(n == want, || format!("{what} count mismatch"))
}

/// What the decode-time checks hold ids and core tags to: the program's
/// method and class tables, the snapshot's thread count and SPE count.
#[derive(Clone, Copy)]
struct Ids<'p> {
    program: &'p Program,
    threads: usize,
    spes: u8,
}

impl Ids<'_> {
    /// A method id: compiling, calling or looking up any other would
    /// index past the method table.
    fn method<C: Codec>(&self, c: &mut C, m: MethodId) -> Result<MethodId, SnapError> {
        let raw = c.u32(m.0)?;
        let ok = (raw as usize) < self.program.methods.len();
        ensure::<C>(ok, || format!("method id {raw} out of range"))?;
        Ok(MethodId(raw))
    }

    fn class<C: Codec>(&self, c: &mut C, k: ClassId) -> Result<ClassId, SnapError> {
        let raw = c.u16(k.0)?;
        let ok = (raw as usize) < self.program.classes.len();
        ensure::<C>(ok, || format!("class id {raw} out of range"))?;
        Ok(ClassId(raw))
    }

    fn thread<C: Codec>(&self, c: &mut C, t: ThreadId) -> Result<ThreadId, SnapError> {
        let raw = c.u32(t.0)?;
        let ok = (raw as usize) < self.threads;
        ensure::<C>(ok, || format!("thread id {raw} out of range"))?;
        Ok(ThreadId(raw))
    }

    /// A core as its tag: the PPE is 0, SPE n is 1 + n.
    fn core<C: Codec>(&self, c: &mut C, core: CoreId) -> Result<CoreId, SnapError> {
        let tag = match core {
            CoreId::Ppe => 0,
            CoreId::Spe(n) => 1 + n,
        };
        match c.u8(tag)? {
            0 => Ok(CoreId::Ppe),
            n => {
                ensure::<C>(n <= self.spes, || format!("core tag {n} out of range"))?;
                Ok(CoreId::Spe(n - 1))
            }
        }
    }
}

/// The fault plan a snapshot carries, without `machine_crash_at`. The
/// crash schedule is a run-local kill switch, not VM state: a checkpoint
/// taken by a doomed run must be byte-identical to the same-seq
/// checkpoint of the clean run, so the crash must not appear in the
/// bytes, and a decoded plan has none.
fn fault_plan<C: Codec>(c: &mut C, p: &FaultPlan) -> Result<FaultPlan, SnapError> {
    let mut plan = FaultPlan {
        seed: c.u64(p.seed)?,
        mfc_transfer_ppm: c.u32(p.mfc_transfer_ppm)?,
        eib_timeout_ppm: c.u32(p.eib_timeout_ppm)?,
        ls_corruption_ppm: c.u32(p.ls_corruption_ppm)?,
        proxy_timeout_ppm: c.u32(p.proxy_timeout_ppm)?,
        migration_timeout_ppm: c.u32(p.migration_timeout_ppm)?,
        max_retries: c.u32(p.max_retries)?,
        backoff_base_cycles: c.u32(p.backoff_base_cycles)?,
        eib_timeout_cycles: c.u32(p.eib_timeout_cycles)?,
        checksum_cycles: c.u32(p.checksum_cycles)?,
        watchdog_cycles: c.u32(p.watchdog_cycles)?,
        slowdown_factor: c.u32(p.slowdown_factor)?,
        slowdown_from_cycle: c.u64(p.slowdown_from_cycle)?,
        spe_deaths: p.spe_deaths,
        machine_crash_at: None,
    };
    // Every slot is written, an empty one as zeros; a non-zero flag
    // byte reads as a death.
    for slot in &mut plan.spe_deaths {
        let d = slot.unwrap_or(SpeDeath {
            spe: 0,
            at_cycle: 0,
        });
        let present = c.u8(slot.is_some() as u8)? != 0;
        let d = SpeDeath {
            spe: c.u8(d.spe)?,
            at_cycle: c.u64(d.at_cycle)?,
        };
        *slot = present.then_some(d);
    }
    Ok(plan)
}

/// A value as its tag and 64 payload bits.
fn value<C: Codec>(c: &mut C, v: Value) -> Result<Value, SnapError> {
    let (tag, bits) = match v {
        Value::I32(x) => (0, x as u32 as u64),
        Value::I64(x) => (1, x as u64),
        Value::F32(x) => (2, x.to_bits() as u64),
        Value::F64(x) => (3, x.to_bits()),
        Value::Ref(r) => (4, r.0 as u64),
    };
    let (tag, bits) = (c.u8(tag)?, c.u64(bits)?);
    Ok(match tag {
        0 => Value::I32(bits as u32 as i32),
        1 => Value::I64(bits as i64),
        2 => Value::F32(f32::from_bits(bits as u32)),
        3 => Value::F64(f64::from_bits(bits)),
        4 => Value::Ref(ObjRef(bits as u32)),
        n => return Err(SnapError::Corrupt(format!("value tag {n} unknown"))),
    })
}

fn trap<C: Codec>(c: &mut C, t: &Trap) -> Result<Trap, SnapError> {
    // The payload each variant carries, zero where `t` carries none.
    let (tag, a, b, msg) = match t {
        Trap::NullPointer => (0, 0, 0, ""),
        Trap::ArrayIndexOutOfBounds { index, len } => (1, *index as u32, *len, ""),
        Trap::DivisionByZero => (2, 0, 0, ""),
        Trap::NegativeArraySize(n) => (3, *n as u32, 0, ""),
        Trap::OutOfMemory => (4, 0, 0, ""),
        Trap::IllegalMonitorState => (5, 0, 0, ""),
        Trap::NativeError(m) => (6, 0, 0, m.as_str()),
        Trap::MachineCheck(m) => (7, 0, 0, m.as_str()),
    };
    Ok(match c.u8(tag)? {
        0 => Trap::NullPointer,
        1 => Trap::ArrayIndexOutOfBounds {
            index: c.u32(a)? as i32,
            len: c.u32(b)?,
        },
        2 => Trap::DivisionByZero,
        3 => Trap::NegativeArraySize(c.u32(a)? as i32),
        4 => Trap::OutOfMemory,
        5 => Trap::IllegalMonitorState,
        6 => Trap::NativeError(c.str(msg)?),
        7 => Trap::MachineCheck(c.str(msg)?),
        n => return Err(SnapError::Corrupt(format!("trap tag {n} unknown"))),
    })
}

/// Migration kinds in tag order.
const MIGRATION_KINDS: [MigrationKind; 4] = [
    MigrationKind::Annotation,
    MigrationKind::Monitored,
    MigrationKind::MarkerReturn,
    MigrationKind::Failover,
];

fn migration_kind<C: Codec>(c: &mut C, k: MigrationKind) -> Result<MigrationKind, SnapError> {
    let tag = MIGRATION_KINDS.iter().position(|&x| x == k);
    let tag = c.u8(tag.expect("every migration kind has a tag") as u8)?;
    MIGRATION_KINDS
        .get(tag as usize)
        .copied()
        .ok_or_else(|| SnapError::Corrupt(format!("migration kind tag {tag} unknown")))
}

fn thread_state<C: Codec>(
    c: &mut C,
    s: &ThreadState,
    ids: &Ids<'_>,
) -> Result<ThreadState, SnapError> {
    // The payload each state carries, zero where `s` carries none.
    let (tag, raw, v, t) = match s {
        ThreadState::Ready => (0, 0, None, None),
        ThreadState::Blocked(BlockReason::Monitor(obj)) => (1, obj.0, None, None),
        ThreadState::Blocked(BlockReason::Join(tid)) => (2, tid.0, None, None),
        ThreadState::Finished(Ok(None)) => (3, 0, None, None),
        ThreadState::Finished(Ok(Some(v))) => (4, 0, Some(*v), None),
        ThreadState::Finished(Err(t)) => (5, 0, None, Some(t)),
    };
    Ok(match c.u8(tag)? {
        0 => ThreadState::Ready,
        1 => ThreadState::Blocked(BlockReason::Monitor(ObjRef(c.u32(raw)?))),
        2 => ThreadState::Blocked(BlockReason::Join(ids.thread(c, ThreadId(raw))?)),
        3 => ThreadState::Finished(Ok(None)),
        4 => ThreadState::Finished(Ok(Some(value(c, v.unwrap_or(Value::I32(0)))?))),
        5 => ThreadState::Finished(Err(trap(c, t.unwrap_or(&Trap::NullPointer))?)),
        n => return Err(SnapError::Corrupt(format!("thread state tag {n} unknown"))),
    })
}

/// A frame as a snapshot carries it. The code is re-derived at restore
/// from (method, kind) — a migrated thread's lower frames hold other-kind
/// code — so a normal frame carries only whether its code is the SPE's,
/// and a migration marker runs on the code of the frame below it.
struct FrameRow {
    kind: FrameKind,
    spe_code: bool,
    method: MethodId,
    cursors: [u32; 4],
}

fn frame<C: Codec>(c: &mut C, f: Option<&Frame>, ids: &Ids<'_>) -> Result<FrameRow, SnapError> {
    let (kind, spe_code, method, cursors) =
        f.map_or((FrameKind::Normal, false, MethodId(0), [0; 4]), |f| {
            let spe_code = f.code.core == CoreKind::Spe;
            (f.kind, spe_code, f.method, [f.pc, f.base, f.nlocals, f.sp])
        });
    let origin = match kind {
        FrameKind::Normal => None,
        FrameKind::MigrationMarker { origin } => Some(origin),
    };
    let (kind, spe_code) = match c.u8(origin.is_some() as u8)? {
        0 => (FrameKind::Normal, c.bool(spe_code)?),
        1 => {
            let origin = ids.core(c, origin.unwrap_or(CoreId::Ppe))?;
            (FrameKind::MigrationMarker { origin }, false)
        }
        n => return Err(SnapError::Corrupt(format!("frame tag {n} unknown"))),
    };
    let method = ids.method(c, method)?;
    let mut row = FrameRow {
        kind,
        spe_code,
        method,
        cursors,
    };
    for v in &mut row.cursors {
        *v = c.u32(*v)?;
    }
    Ok(row)
}

/// The arena a snapshot may declare: capped, so a corrupt length cannot
/// trigger a huge allocation.
const ARENA_CAP: usize = 256 << 20;

/// Thread `i`, with its frames as the rows [`frames`] turns back into
/// frames at restore.
fn thread<C: Codec>(
    c: &mut C,
    t: &JavaThread,
    i: u32,
    ids: &Ids<'_>,
) -> Result<(JavaThread, Vec<FrameRow>), SnapError> {
    let id = c.u32(t.id.0)?;
    ensure::<C>(id == i, || format!("thread {i} stored under id {id}"))?;
    let core = ids.core(c, t.core)?;
    let state = thread_state(c, &t.state, ids)?;
    let available_at = c.u64(t.available_at)?;
    let call = t.pending_call.as_ref().map(|p| (p.method.0, &p.args[..]));
    let pending_call = c.opt(call, |c, (method, args)| {
        let method = ids.method(c, MethodId(method))?;
        let args = c.list(args.iter().map(|&v| Some(v)), 9, |c, v| {
            value(c, v.unwrap_or(Value::I32(0)))
        })?;
        // Format v3 ends a pending call with a byte that is always 0.
        let end = c.u8(0)?;
        ensure::<C>(end == 0, || format!("origin tag {end} unknown"))?;
        Ok(PendingCall { method, args })
    })?;
    let relookup = t.pending_relookup.map(|m| m.0);
    let barrier = t.pending_acquire_barrier.map(|obj| obj.0);
    let thread = JavaThread {
        id: ThreadId(id),
        frames: Vec::new(),
        state,
        core,
        available_at,
        pending_call,
        pending_relookup: c.opt(relookup, |c, m| ids.method(c, MethodId(m)))?,
        pending_acquire_barrier: c.opt(barrier, |c, obj| Ok(ObjRef(c.u32(obj)?)))?,
        pending_migrate_in: c.opt(t.pending_migrate_in.map(Some), |c, m| {
            let (origin, kind) = m.unwrap_or((CoreId::Ppe, MigrationKind::Annotation));
            Ok((ids.core(c, origin)?, migration_kind(c, kind)?))
        })?,
        window: BehaviourWindow {
            fp_ops: c.u64(t.window.fp_ops)?,
            mem_ops: c.u64(t.window.mem_ops)?,
            total_ops: c.u64(t.window.total_ops)?,
        },
        migrations: c.u64(t.migrations)?,
        held_monitors: c.u32(t.held_monitors)?,
        // The untagged slot arena as raw words: mostly zero above the
        // live watermark, hence the zero-RLE codec.
        arena: (c.words(
            t.arena.iter().map(|s| s.raw()),
            RleLen::Words { cap: ARENA_CAP },
        )?)
        .into_iter()
        .map(Slot::from_raw)
        .collect(),
    };
    let frames = c.list(t.frames.iter().map(Some), 22, |c, f| frame(c, f, ids))?;
    Ok((thread, frames))
}

/// A restored thread's frames: each normal frame's code recompiled
/// (compilation is deterministic, so it is the original run's) and its
/// pc and cursors checked against that code and the thread's arena.
fn frames(
    world: &mut World<'_>,
    rows: Vec<FrameRow>,
    arena: usize,
) -> Result<Vec<Frame>, SnapError> {
    let mut frames: Vec<Frame> = Vec::with_capacity(rows.len());
    for FrameRow {
        kind,
        spe_code,
        method,
        cursors: [pc, base, nlocals, sp],
    } in rows
    {
        let code = match (kind, frames.last()) {
            (FrameKind::Normal, _) => {
                let core = if spe_code {
                    CoreKind::Spe
                } else {
                    CoreKind::Ppe
                };
                let compiled =
                    (world.registry).get_or_compile(world.program, &world.layout, method, core);
                compiled
                    .map_err(|_| {
                        SnapError::Corrupt(format!("frame method {} fails to compile", method.0))
                    })?
                    .0
            }
            (FrameKind::MigrationMarker { .. }, Some(below)) => Rc::clone(&below.code),
            (FrameKind::MigrationMarker { .. }, None) => {
                return Err(SnapError::Corrupt(
                    "migration marker as bottom frame".into(),
                ))
            }
        };
        if kind == FrameKind::Normal {
            if (pc as usize) >= code.ops.len() {
                return Err(SnapError::Corrupt(format!(
                    "frame pc {pc} out of range for method {}",
                    method.0
                )));
            }
            if base as u64 + nlocals as u64 > sp as u64 || (sp as usize) > arena {
                return Err(SnapError::Corrupt(format!(
                    "frame cursors (base {base}, nlocals {nlocals}, sp {sp}) exceed arena {arena}"
                )));
            }
        }
        frames.push(Frame {
            method,
            code,
            pc,
            base,
            nlocals,
            sp,
            kind,
        });
    }
    Ok(frames)
}

/// The world a CORE or OBS walk runs over: the source when encoding;
/// when restoring, the fresh destination, which the walk reads only for
/// its shapes (cache geometry, heap and store sizes) and which
/// [`Target::restore`] then overwrites.
trait Target<'p>: Deref<Target = World<'p>> {
    /// Restore-only work on the destination; an encode skips it.
    fn restore<R: Default>(
        &mut self,
        f: impl FnOnce(&mut World<'p>) -> Result<R, SnapError>,
    ) -> Result<R, SnapError>;
}

impl<'p> Target<'p> for &World<'p> {
    fn restore<R: Default>(
        &mut self,
        _: impl FnOnce(&mut World<'p>) -> Result<R, SnapError>,
    ) -> Result<R, SnapError> {
        Ok(R::default())
    }
}

impl<'p> Target<'p> for &mut World<'p> {
    fn restore<R: Default>(
        &mut self,
        f: impl FnOnce(&mut World<'p>) -> Result<R, SnapError>,
    ) -> Result<R, SnapError> {
        f(self)
    }
}

fn corrupt(ctx: &str, detail: &'static str) -> SnapError {
    SnapError::Corrupt(format!("{ctx}: {detail}"))
}

/// Per-core rows, written at the source's `src` cores and read at the
/// destination's, one per element of `rows`: rows of cores the
/// destination does not have are read and dropped, rows of cores the
/// source did not have start at the default.
fn per_core<C: Codec, T: Copy + Default>(
    c: &mut C,
    rows: &[T],
    src: usize,
    mut walk: impl FnMut(&mut C, T) -> Result<T, SnapError>,
) -> Result<Vec<T>, SnapError> {
    let mut out = c.rows(src, |c, i| {
        walk(c, rows.get(i).copied().unwrap_or_default())
    })?;
    if C::READS {
        out.resize(rows.len(), T::default());
    }
    Ok(out)
}

/// The head of CORE: what a restore checks before anything else, and what
/// [`inspect`] reports.
#[derive(Clone, Copy, Default)]
struct CoreHead {
    config: u64,
    program: u64,
    plan: FaultPlan,
    seq: u32,
    /// The makespan.
    wall_cycles: u64,
    ncores: u32,
}

impl CoreHead {
    fn of(world: &World<'_>) -> CoreHead {
        CoreHead {
            config: config_digest(&world.config),
            program: world.program_digest(),
            plan: world.config.cell.faults,
            seq: world.checkpoint_seq,
            ..CoreHead::default()
        }
        .clocked(world)
    }

    /// `self` with the fields a stall can move read off `world` as it is.
    fn clocked(self, world: &World<'_>) -> CoreHead {
        let cores = world.machine.cores();
        CoreHead {
            wall_cycles: world.machine.makespan(&cores),
            ncores: cores.len() as u32,
            ..self
        }
    }

    fn walk<C: Codec>(&self, c: &mut C) -> Result<CoreHead, SnapError> {
        Ok(CoreHead {
            config: c.u64(self.config)?,
            program: c.u64(self.program)?,
            plan: fault_plan(c, &self.plan)?,
            seq: c.u32(self.seq)?,
            wall_cycles: c.u64(self.wall_cycles)?,
            ncores: c.u32(self.ncores)?,
        })
    }
}

/// Per-core clocks and cycle breakdowns at the source's `src` cores. With
/// the head before them, this is all of CORE that charging a stall can
/// move, and for a given machine shape it is fixed-width, which is what
/// lets a [`Checkpoint`] overwrite it in place after the write stall.
fn clocks<'p, C: Codec, W: Target<'p>>(c: &mut C, w: &mut W, src: usize) -> Result<(), SnapError> {
    let clocks = per_core(c, w.machine.clocks(), src, |c, v| c.u64(v))?;
    let breakdowns = per_core(c, w.machine.breakdowns(), src, |c, b| {
        let (cycles, ops) = b.to_raw();
        Ok(CycleBreakdown::from_raw(c.u64s(cycles)?, c.u64s(ops)?))
    })?;
    w.restore(|world| {
        (world.machine.set_clocks(&clocks)).map_err(|e| corrupt("machine clocks", e))?;
        (world.machine.set_breakdowns(&breakdowns)).map_err(|e| corrupt("machine breakdowns", e))
    })
}

/// One level of the PPE cache: tags, LRU stamps, tick. Untouched slots
/// hold tag `u64::MAX` / stamp 0: storing the tags *inverted* turns both
/// arrays into mostly-zero byte runs the RLE codec collapses (the L2
/// alone is 64 KiB raw).
#[allow(clippy::type_complexity)]
fn ppe_level<C: Codec>(
    c: &mut C,
    (tags, stamps, tick): (&[u64], &[u64], u64),
) -> Result<(Vec<u64>, Vec<u64>, u64), SnapError> {
    let mut tags = c.words(tags.iter().map(|&t| !t), RleLen::Exactly(tags.len() * 8))?;
    tags.iter_mut().for_each(|t| *t = !*t);
    let stamps = c.words(stamps.iter().copied(), RleLen::Exactly(stamps.len() * 8))?;
    Ok((tags, stamps, c.u64(tick)?))
}

/// The CORE section after its head, for a source of `src` cores: every
/// byte of state that virtual time depends on. Its length — not its
/// content — sets the checkpoint cost.
fn core<'p, C: Codec, W: Target<'p>>(c: &mut C, w: &mut W, src: usize) -> Result<(), SnapError> {
    // Per-core rows decode at the *source* shape: a dropped SPE's clock
    // and counters die with it (its threads drain to the PPE below), an
    // added SPE starts fresh.
    let (src_spes, dst) = (src - 1, w.machine.clocks().len());
    let dst_spes = w.config.cell.num_spes as usize;
    let mut ids = Ids {
        program: w.program,
        threads: 0,
        spes: src_spes as u8,
    };

    // ---- machine ----
    clocks(c, w, src)?;
    let failed = per_core(c, w.machine.failed_flags(), src, |c, f| c.bool(f))?;
    let fs = &w.machine.fault_stats;
    let fault_stats = FaultStats {
        injected_mfc_transfer: c.u64(fs.injected_mfc_transfer)?,
        injected_eib_timeout: c.u64(fs.injected_eib_timeout)?,
        injected_ls_corruption: c.u64(fs.injected_ls_corruption)?,
        injected_proxy_timeout: c.u64(fs.injected_proxy_timeout)?,
        injected_migration_timeout: c.u64(fs.injected_migration_timeout)?,
        mfc_retries: c.u64(fs.mfc_retries)?,
        backoff_cycles: c.u64(fs.backoff_cycles)?,
        watchdog_cycles: c.u64(fs.watchdog_cycles)?,
        unrecoverable: c.u64(fs.unrecoverable)?,
        deaths: c.list(fs.deaths.iter().copied(), 9, |c, (spe, at)| {
            Ok((c.u8(spe)?, c.u64(at)?))
        })?,
        drained_threads: c.u64(fs.drained_threads)?,
        salvaged_bytes: c.u64(fs.salvaged_bytes)?,
    };
    let (windows, retired_below) = w.machine.eib.export_state();
    let windows = c.list(windows.into_iter(), 16, |c, (win, cycles)| {
        Ok((c.u64(win)?, c.u64(cycles)?))
    })?;
    let retired_below = c.u64(retired_below)?;
    let eib = &w.machine.eib;
    let eib_counters = [
        c.u64(eib.bytes_transferred)?,
        c.u64(eib.transfers)?,
        c.u64(eib.queue_cycles_total)?,
    ];
    w.restore(|world| {
        let machine = &mut world.machine;
        machine
            .set_failed_flags(&failed)
            .map_err(|e| corrupt("machine blacklist", e))?;
        machine.fault_stats = fault_stats;
        machine.eib.import_state(windows, retired_below);
        let eib = &mut machine.eib;
        [eib.bytes_transferred, eib.transfers, eib.queue_cycles_total] = eib_counters;
        Ok(())
    })?;
    let (l1, l2) = w.machine.ppe_cache.export_state();
    let (l1, l2) = (ppe_level(c, l1)?, ppe_level(c, l2)?);
    w.restore(|world| {
        (world.machine.ppe_cache.import_state(l1, l2)).map_err(|e| corrupt("ppe cache", e))
    })?;
    let ppe_stats = HwCacheStats::from_array(c.u64s(w.machine.ppe_cache.stats.to_array())?);
    for spe in 0..src_spes {
        // A local store is encoded as the all-zero buffer it is (its
        // data-cache region lives in the data cache, walked below), and
        // every store has the one size the configs agree on.
        let size = w.machine.local_store(spe.min(dst_spes - 1) as u8).size();
        if c.zeros(size as usize)? != 0 {
            return Err(corrupt("local store", "non-zero bytes"));
        }
    }
    let injector = w.machine.injector_counts();
    count(c, injector.len(), src, 24, "fault-injector row")?;
    let injector = per_core(c, injector, src, |c, row| c.u64s(row))?;
    w.restore(|world| {
        world.machine.ppe_cache.stats = ppe_stats;
        (world.machine.set_injector_counts(&injector)).map_err(|e| corrupt("fault injector", e))
    })?;

    // ---- heap ----
    let heap = &w.heap;
    let (bytes, nonzero_end) = c.rle(heap.raw(), heap.written_mark() as usize)?;
    let objects_base = c.u32(heap.objects_base())?;
    let limit = c.u32(heap.limit())?;
    let statics_size = c.u32(heap.statics_size())?;
    let ok = statics_size == heap.statics_size();
    ensure::<C>(ok, || "heap statics size mismatch".into())?;
    let free = c.list(heap.free_spans().iter().copied(), 8, |c, (addr, size)| {
        Ok((c.u32(addr)?, c.u32(size)?))
    })?;
    let objects = c.list(heap.objects().map(|r| r.0), 4, Codec::u32)?;
    let heap_stats = AllocStats::from_array(c.u64s(heap.stats.to_array())?);
    w.restore(|world| {
        world.heap = hera_mem::Heap::from_raw_parts(
            bytes,
            nonzero_end as u32,
            objects_base,
            limit,
            free,
            objects.into_iter().collect(),
            statics_size,
            heap_stats,
        )
        .map_err(|e| corrupt("heap", e))?;
        Ok(())
    })?;

    // ---- software caches ----
    count(c, w.data_caches.len(), src_spes, 4, "data-cache")?;
    for spe in 0..src_spes {
        let dc = &w.data_caches[spe.min(dst_spes - 1)];
        let (bump, slots, local) = dc.export_state();
        let bump = c.u32(bump)?;
        let slots = c.list(slots.into_iter(), 24, |c, (slot, mut fields)| {
            let slot = c.u32(slot)?;
            for f in &mut fields {
                *f = c.u32(*f)?;
            }
            Ok((slot, fields))
        })?;
        let (local, extent) = c.rle(local, dc.written_mark() as usize)?;
        let stats = DataCacheStats::from_array(c.u64s(dc.stats.to_array())?);
        w.restore(|world| {
            // A dropped SPE is dead-at-adopt: decode its cache into a
            // scratch copy and salvage the dirty lines straight into main
            // memory, exactly as `fail_spe` rescues a core that died
            // mid-run. The rescue DMA is charged to the PPE under the
            // migration cost class.
            let mut scratch;
            let dc = if spe < dst_spes {
                &mut world.data_caches[spe]
            } else {
                scratch = hera_softcache::DataCache::with_block_size(
                    world.config.cell.partition.data_cache_bytes,
                    world.config.array_block_bytes,
                );
                &mut scratch
            };
            (dc.import_state(bump, slots, local, extent)).map_err(|e| corrupt("data cache", e))?;
            dc.stats = stats;
            if spe >= dst_spes {
                let salvaged = dc.salvage(&mut world.heap).map_err(|e| {
                    SnapError::Corrupt(format!("adopt-drain salvage of SPE {spe}: {e}"))
                })?;
                world.charge_salvage(salvaged);
            }
            Ok(())
        })?;
    }
    count(c, w.code_caches.len(), src_spes, 4, "code-cache")?;
    for spe in 0..src_spes {
        // Dropped SPEs' code caches are clean (code is re-fetchable) and
        // simply discarded.
        let cc = &w.code_caches[spe.min(dst_spes - 1)];
        let (bump, methods, tibs) = cc.export_state();
        let bump = c.u32(bump)?;
        let methods = methods.into_iter().map(|(m, base)| (m.0, base));
        let methods = c.list(methods, 8, |c, (m, base)| {
            Ok((ids.method(c, MethodId(m))?, c.u32(base)?))
        })?;
        let tibs = tibs.into_iter().map(|(k, base)| (k.0, base));
        let tibs = c.list(tibs, 6, |c, (k, base)| {
            Ok((ids.class(c, ClassId(k))?, c.u32(base)?))
        })?;
        let stats = CodeCacheStats::from_array(c.u64s(cc.stats.to_array())?);
        w.restore(|world| {
            if let Some(cc) = world.code_caches.get_mut(spe).filter(|_| spe < dst_spes) {
                (cc.import_state(bump, methods, tibs)).map_err(|e| corrupt("code cache", e))?;
                cc.stats = stats;
            }
            Ok(())
        })?;
    }

    // ---- JIT registry ----
    // Keys only: the snapshot's key set is recompiled eagerly
    // (compilation is deterministic, so the code is the original run's),
    // and the stats are installed after the threads' frames compile, so
    // compile costs are not repaid.
    let keys = w.registry.compiled_keys().into_iter();
    let keys = c.list(
        keys.map(|(m, kind)| (m.0, kind == CoreKind::Spe)),
        5,
        |c, (m, spe)| {
            let m = ids.method(c, MethodId(m))?;
            // Any non-zero byte is the SPE.
            let kind = [CoreKind::Ppe, CoreKind::Spe][(c.u8(spe as u8)? != 0) as usize];
            Ok((m, kind))
        },
    )?;
    w.restore(|world| {
        for (m, kind) in keys {
            (world.registry)
                .get_or_compile(world.program, &world.layout, m, kind)
                .map_err(|_| SnapError::Corrupt(format!("method {} fails to compile", m.0)))?;
        }
        Ok(())
    })?;
    let registry_stats = RegistryStats::from_array(c.u64s(w.registry.stats().to_array())?);

    // ---- threads ----
    ids.threads = c.len_prefix(w.threads.len(), 1)?;
    let blank = JavaThread::new(ThreadId(0), CoreId::Ppe, MethodId(0), Vec::new());
    let threads = c.rows(ids.threads, |c, i| {
        let (t, rows) = thread(c, w.threads.get(i).unwrap_or(&blank), i as u32, &ids)?;
        let frames = w.restore(|world| frames(world, rows, t.arena.len()))?;
        Ok(JavaThread { frames, ..t })
    })?;
    w.restore(|world| {
        world.threads = threads;
        world.registry.set_stats(registry_stats);
        // ---- dead-at-adopt drain ----
        // Threads homed on SPEs the destination does not have are
        // drained to the PPE through the same motions as `fail_spe`:
        // migration markers that would return a thread to a missing core
        // are rewritten, and every unfinished resident thread re-homes to
        // the PPE paying one migration charge. Finished threads re-home
        // too (no charge) so the next checkpoint encodes only cores this
        // machine actually has.
        if src_spes > dst_spes {
            let ppe_now = world.machine.now(CoreId::Ppe);
            let migration = world.config.migration_cycles as u64;
            let dropped = |c: CoreId| matches!(c, CoreId::Spe(n) if n as usize >= dst_spes);
            let mut drained = 0u64;
            for t in world.threads.iter_mut() {
                for f in &mut t.frames {
                    if let FrameKind::MigrationMarker { origin } = &mut f.kind {
                        if dropped(*origin) {
                            *origin = CoreId::Ppe;
                        }
                    }
                }
                if let Some((origin, _)) = &mut t.pending_migrate_in {
                    if dropped(*origin) {
                        *origin = CoreId::Ppe;
                    }
                }
                if dropped(t.core) {
                    t.core = CoreId::Ppe;
                    if !t.is_finished() {
                        t.available_at = t.available_at.max(ppe_now) + migration;
                        t.migrations += 1;
                        drained += 1;
                    }
                }
            }
            world.machine.fault_stats.drained_threads += drained;
        }
        Ok(())
    })?;

    // ---- monitors / scheduler ----
    let rows = w.monitors.export_state().into_iter();
    let rows =
        rows.map(|(obj, owner, count, waiters, free_at)| (obj.0, owner, count, waiters, free_at));
    let monitors = c.list(rows, 8, |c, (obj, owner, count, waiters, free_at)| {
        Ok((
            ObjRef(c.u32(obj)?),
            c.opt(owner, |c, t| ids.thread(c, t))?,
            c.u32(count)?,
            c.list(waiters.into_iter(), 4, |c, t| ids.thread(c, t))?,
            c.u64(free_at)?,
        ))
    })?;
    let monitor_counters = [
        c.u64(w.monitors.contended_acquires)?,
        c.u64(w.monitors.acquisitions)?,
    ];
    count(c, w.run_queues.len(), src, 8, "run queue")?;
    let mut queues = c.rows(src, |c, i| {
        let q = w.run_queues[i.min(dst - 1)].iter().copied();
        c.list(q, 4, |c, t| ids.thread(c, t))
    })?;
    let last_on_core = per_core(c, &w.last_on_core, src, |c, t| {
        c.opt(t, |c, t| ids.thread(c, t))
    })?;
    let thread_switches = c.u64(w.thread_switches)?;
    let mut joins: Vec<(ThreadId, &[ThreadId])> =
        (w.join_waiters.iter()).map(|(&k, v)| (k, &v[..])).collect();
    joins.sort_unstable_by_key(|(k, _)| k.0);
    let joins = c.list(joins.into_iter(), 12, |c, (k, waiters)| {
        let waiters = waiters.iter().copied();
        Ok((
            ids.thread(c, k)?,
            c.list(waiters, 4, |c, t| ids.thread(c, t))?,
        ))
    })?;
    let output = c.list(w.output.iter().map(|s| s.as_str()), 8, |c, s| c.str(s))?;
    let mut files: Vec<(i32, &[u8])> = w.files.iter().map(|(&fd, d)| (fd, &d[..])).collect();
    files.sort_unstable_by_key(|&(fd, _)| fd);
    let files = c.list(files.into_iter(), 12, |c, (fd, data)| {
        Ok((c.u32(fd as u32)? as i32, c.blob(data)?))
    })?;
    let gc = GcSummary::from_array(c.u64s(w.gc.to_array())?);
    let next_checkpoint_at = c.opt(w.next_checkpoint_at, |c, v| c.u64(v))?;
    w.restore(|world| {
        world.monitors.import_state(monitors);
        [
            world.monitors.contended_acquires,
            world.monitors.acquisitions,
        ] = monitor_counters;
        // Dropped cores' queues fold into the PPE's in core order — the
        // same motion as `fail_spe` merging a dead core's queue.
        let extra: Vec<ThreadId> = queues
            .split_off(src.min(dst))
            .into_iter()
            .flatten()
            .collect();
        for (q, src) in world.run_queues.iter_mut().zip(queues) {
            *q = src.into();
        }
        world.run_queues[0].extend(extra);
        world.last_on_core = last_on_core;
        world.thread_switches = thread_switches;
        world.join_waiters = joins.into_iter().collect();
        world.output = output;
        world.files = files.into_iter().collect();
        world.gc = gc;
        world.next_checkpoint_at = next_checkpoint_at;
        Ok(())
    })
}

/// The OBS section: observability-only state. Nothing in here may
/// influence virtual time or the checkpoint cost. Trace lane event
/// counts and restore markers are deliberately *not* captured, so later
/// checkpoints of a resumed run stay byte-identical to the full run's.
fn obs<'p, C: Codec, W: Target<'p>>(c: &mut C, w: &mut W) -> Result<(), SnapError> {
    let traced = c.bool(w.machine.trace.is_enabled())?;
    w.restore(|world| {
        if traced == world.machine.trace.is_enabled() {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trace enablement mismatch".into()))
        }
    })?;
    let metrics = &w.machine.trace.metrics;
    let counters: Vec<(&str, u64)> = metrics.counters().collect();
    let counters = c.list(counters.into_iter(), 8, |c, (name, v)| {
        Ok((c.str(name)?, c.u64(v)?))
    })?;
    let hists: Vec<(&str, Histogram)> = metrics.histograms().map(|(n, h)| (n, h.clone())).collect();
    let hists = c.list(hists.into_iter(), 8, |c, (name, h)| {
        let name = c.str(name)?;
        let h = Histogram {
            count: c.u64(h.count)?,
            sum: c.u64(h.sum)?,
            min: c.u64(h.min)?,
            max: c.u64(h.max)?,
            buckets: c.u64s(h.buckets)?,
        };
        Ok((name, h))
    })?;
    w.restore(|world| {
        let mut metrics = MetricsRegistry::default();
        for (name, v) in counters {
            metrics.set(&name, v);
        }
        for (name, h) in hists {
            metrics.set_histogram(&name, h);
        }
        world.machine.trace.metrics = metrics;
        Ok(())
    })?;
    let profiler = w.profiler.as_ref().map(|p| p.export_state());
    let profiler = c.opt(profiler, |c, (nodes, current)| {
        w.restore(|world| match world.profiler {
            Some(_) => Ok(()),
            None => Err(SnapError::Corrupt(
                "snapshot has profiler state but profiling is off".into(),
            )),
        })?;
        let nodes = c.list(nodes.into_iter(), 8, |c, (method, parent, mut cost)| {
            let (method, parent) = (c.u32(method)?, c.u32(parent)?);
            for lane in &mut cost {
                *lane = c.u64s(*lane)?;
            }
            Ok((method, parent, cost))
        })?;
        let current = c.list(current.into_iter(), 8, |c, (t, node)| {
            Ok((c.u32(t)?, c.u32(node)?))
        })?;
        Ok((nodes, current))
    })?;
    w.restore(|world| match (profiler, &world.profiler) {
        (None, Some(_)) => Err(SnapError::Corrupt(
            "snapshot is missing profiler state".into(),
        )),
        (None, None) => Ok(()),
        (Some((nodes, current)), _) => {
            let p = hera_prof::Profiler::from_state(nodes, current)
                .map_err(|e| corrupt("profiler", e))?;
            world.profiler = Some(p);
            Ok(())
        }
    })
}

/// A snapshot being written in place, in two steps so that a scheduled
/// checkpoint scans the machine's bulk state once. [`Checkpoint::begin`]
/// encodes CORE straight into the final buffer (container header and
/// `core_len` slot in front of it); the caller reads the write cost off
/// [`Checkpoint::core_len`] and charges it; [`Checkpoint::finish`] then
/// re-encodes CORE's head and clocks — the only part of CORE the charge
/// moved — over their old bytes, appends OBS and seals. Anything else
/// that changes between the two steps is silently left out of the
/// snapshot, which is why `World::take_checkpoint` checks the result
/// against [`encode`] in debug builds. A checkpoint nothing will read
/// stops after the charge: [`Checkpoint::into_buffer`] hands the buffer
/// back for the next one.
pub(crate) struct Checkpoint {
    w: SnapWriter,
    head: CoreHead,
}

/// Why an encode's `Result` is never an error: a writer's walk checks
/// nothing and its tags always name a variant.
const WRITE: &str = "encoding a world cannot fail";

impl Checkpoint {
    /// Offset of CORE in the sealed buffer: header, then the `core_len`
    /// prefix.
    const CORE_AT: usize = HEADER_LEN + 8;

    /// Encode CORE of `world` into `buf` (cleared first; its capacity is
    /// kept).
    pub(crate) fn begin(world: &World<'_>, buf: Vec<u8>) -> Self {
        let mut w = SnapWriter::sealed_in(buf);
        w.len_prefix(0);
        let head = CoreHead::of(world);
        head.walk(&mut w).expect(WRITE);
        core(&mut w, &mut &*world, head.ncores as usize).expect(WRITE);
        let mut checkpoint = Self { w, head };
        let core_len = checkpoint.core_len();
        checkpoint.w.patch(HEADER_LEN, &core_len.to_le_bytes());
        checkpoint
    }

    /// Bytes in the CORE section (drives the checkpoint's virtual cost).
    pub(crate) fn core_len(&self) -> u64 {
        (self.w.len() - Self::CORE_AT) as u64
    }

    /// Complete the sealed snapshot against `world` as it is now.
    pub(crate) fn finish(mut self, world: &World<'_>) -> Vec<u8> {
        let head = self.head.clocked(world);
        let mut w = SnapWriter::new();
        head.walk(&mut w).expect(WRITE);
        clocks(&mut w, &mut &*world, head.ncores as usize).expect(WRITE);
        self.w.patch(Self::CORE_AT, w.bytes());
        obs(&mut self.w, &mut &*world).expect(WRITE);
        self.w.seal()
    }

    /// Abandon the snapshot, returning its buffer.
    pub(crate) fn into_buffer(self) -> Vec<u8> {
        self.w.into_inner()
    }
}

/// Encode the complete sealed snapshot of `world`.
pub fn encode(world: &World<'_>) -> Vec<u8> {
    Checkpoint::begin(world, Vec::new()).finish(world)
}

/// Open a sealed snapshot and walk its CORE head. Returns the head, the
/// facts [`inspect`] reports, a reader over the rest of CORE and one over
/// OBS.
fn open_core(
    bytes: &[u8],
) -> Result<(CoreHead, SnapshotInfo, SnapReader<'_>, SnapReader<'_>), SnapError> {
    let payload = open(bytes)?;
    let mut obs = SnapReader::new(payload);
    let core_len = obs.len_prefix(1)?;
    let mut core = SnapReader::new(obs.take(core_len)?);
    let head = CoreHead::default().walk(&mut core)?;
    let info = SnapshotInfo {
        seq: head.seq,
        wall_cycles: head.wall_cycles,
        core_len: core_len as u64,
        payload_len: payload.len(),
    };
    Ok((head, info, core, obs))
}

/// Header-level facts about a sealed snapshot without a full decode.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapError> {
    open_core(bytes).map(|(_, info, _, _)| info)
}

/// How a restore treats the fault plan carried in the snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RestoreMode {
    /// The destination's fault plan must equal the carried one (ignoring
    /// crash schedules on either side). This is the single-machine
    /// resume: the run continues under the exact configuration it was
    /// checkpointed under.
    Strict,
    /// Install the carried fault plan on the destination machine,
    /// keeping only the destination's own crash schedule. This is
    /// cross-machine migration: the VM's fault stream travels with it,
    /// so the resumed run is bit-identical to the uninterrupted run even
    /// when the destination machine's own plan differs.
    Adopt,
}

/// Decode a sealed snapshot into a *fresh* world built from the same
/// program and (modulo [`RestoreMode`]) the same configuration. Returns
/// the snapshot's sequence number.
///
/// Every structural invariant is validated on the way in: a corrupted
/// payload that survives the container CRC (it cannot — but also e.g. a
/// snapshot from a different program or config) is rejected with a typed
/// [`SnapError`], never a panic or a silently wrong resume.
pub fn restore_into(
    mut world: &mut World<'_>,
    bytes: &[u8],
    mode: RestoreMode,
) -> Result<u32, SnapError> {
    let (head, _, mut r, mut outer) = open_core(bytes)?;
    if head.program != world.program_digest() {
        return Err(SnapError::Corrupt(
            "snapshot was taken of a different guest program".into(),
        ));
    }
    match mode {
        RestoreMode::Strict => {
            if head.plan != crashless(&world.config.cell.faults) {
                return Err(SnapError::Corrupt(
                    "snapshot was taken under a different fault plan".into(),
                ));
            }
        }
        RestoreMode::Adopt => {
            let mut plan = head.plan;
            plan.machine_crash_at = world.config.cell.faults.machine_crash_at;
            world.config.cell.faults = plan;
            world.machine.adopt_fault_plan(plan);
        }
    }
    // The config digest folds in the core count, so it is checked against
    // the snapshot's own core count: a cross-shape adoption (6-SPE
    // snapshot onto a 2-SPE machine) is legitimate as long as the
    // configurations agree on everything *except* `num_spes`.
    let ncores = world.machine.cores().len();
    let src_ncores = head.ncores as usize;
    let mut src_cfg = world.config;
    if src_ncores != ncores {
        if mode != RestoreMode::Adopt {
            return Err(SnapError::Corrupt("core count mismatch".into()));
        }
        if src_ncores < 2 || src_ncores > 1 + u8::MAX as usize {
            return Err(SnapError::Corrupt(format!(
                "snapshot core count {src_ncores} out of range"
            )));
        }
        src_cfg.cell.num_spes = (src_ncores - 1) as u8;
    }
    if head.config != config_digest(&src_cfg) {
        return Err(SnapError::Corrupt(
            "snapshot was taken under a different VM configuration".into(),
        ));
    }
    if src_ncores > 1 && world.config.cell.num_spes == 0 {
        return Err(SnapError::Corrupt(
            "cannot adopt SPE state onto a machine with no SPEs".into(),
        ));
    }
    core(&mut r, &mut world, src_ncores)?;
    world.checkpoint_seq = head.seq;
    r.finish()?;
    obs(&mut outer, &mut world)?;
    outer.finish()?;
    Ok(head.seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A program whose one method, `Main.main`, is a bare `return`.
    fn one_method_program() -> Program {
        let mut pb = hera_isa::ProgramBuilder::new();
        let class = pb.add_class("Main", None);
        let body = hera_isa::MethodBody::Bytecode(vec![hera_isa::Instr::Return]);
        pb.add_static_method(class, "main", vec![], None, 0, body);
        pb.finish_with_entry("Main", "main").expect("resolves")
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn encode_thread(t: &JavaThread, program: &Program) -> Vec<u8> {
        let ids = Ids {
            program,
            threads: 0,
            spes: 0,
        };
        let mut w = SnapWriter::new();
        thread(&mut w, t, t.id.0, &ids).expect(WRITE);
        w.into_inner()
    }

    /// Thread `i` of `threads` on a machine of `spes` SPEs, read from the
    /// whole of `bytes`, its frames rebuilt in `world`.
    fn decode_thread(
        bytes: &[u8],
        world: &mut World<'_>,
        i: u32,
        threads: usize,
        spes: u8,
    ) -> Result<JavaThread, SnapError> {
        let ids = Ids {
            program: world.program,
            threads,
            spes,
        };
        let mut r = SnapReader::new(bytes);
        let blank = JavaThread::new(ThreadId(0), CoreId::Ppe, MethodId(0), Vec::new());
        let (t, rows) = thread(&mut r, &blank, i, &ids)?;
        r.finish()?;
        let frames = frames(world, rows, t.arena.len())?;
        Ok(JavaThread { frames, ..t })
    }

    /// Every variant of every tagged union a thread carries encodes to
    /// the bytes pinned here and decodes back to what was encoded.
    #[test]
    fn tagged_union_variants_match_pinned_bytes() {
        let values = [
            (Value::I32(-2), "00feffffff00000000"),
            (Value::I64(-3), "01fdffffffffffffff"),
            (Value::F32(1.5), "020000c03f00000000"),
            (Value::F64(-0.25), "03000000000000d0bf"),
            (Value::Ref(ObjRef(0x1234)), "043412000000000000"),
        ];
        for (v, want) in values {
            let mut w = SnapWriter::new();
            value(&mut w, v).expect(WRITE);
            assert_eq!(hex(w.bytes()), want, "{v:?}");
            let mut r = SnapReader::new(w.bytes());
            assert_eq!(value(&mut r, Value::I32(0)), Ok(v));
            r.finish().unwrap();
        }
        let traps = [
            (Trap::NullPointer, "00"),
            (
                Trap::ArrayIndexOutOfBounds { index: -1, len: 3 },
                "01ffffffff03000000",
            ),
            (Trap::DivisionByZero, "02"),
            (Trap::NegativeArraySize(-4), "03fcffffff"),
            (Trap::OutOfMemory, "04"),
            (Trap::IllegalMonitorState, "05"),
            (Trap::NativeError("io".into()), "060200000000000000696f"),
            (Trap::MachineCheck("mc".into()), "0702000000000000006d63"),
        ];
        for (t, want) in traps {
            let mut w = SnapWriter::new();
            trap(&mut w, &t).expect(WRITE);
            assert_eq!(hex(w.bytes()), want, "{t:?}");
            let mut r = SnapReader::new(w.bytes());
            assert_eq!(trap(&mut r, &Trap::NullPointer), Ok(t));
            r.finish().unwrap();
        }

        // Six threads of a two-SPE machine: thread i is in the i-th
        // state, migrates in by the i-th kind (none for the first and
        // last), has no pending call, one without and one with arguments
        // in turn, and holds a normal frame (PPE code, then SPE code in
        // turn) under a migration marker.
        let program = one_method_program();
        let mut cfg = VmConfig::default();
        cfg.cell.num_spes = 2;
        let mut world = World::new(&program, cfg);
        let states = [
            ThreadState::Ready,
            ThreadState::Blocked(BlockReason::Monitor(ObjRef(9))),
            ThreadState::Blocked(BlockReason::Join(ThreadId(1))),
            ThreadState::Finished(Ok(None)),
            ThreadState::Finished(Ok(Some(Value::I32(7)))),
            ThreadState::Finished(Err(Trap::OutOfMemory)),
        ];
        let kinds = [
            None,
            Some(MigrationKind::Annotation),
            Some(MigrationKind::Monitored),
            Some(MigrationKind::MarkerReturn),
            Some(MigrationKind::Failover),
            None,
        ];
        let pinned = [
            "0000000000006400000000000000000001030000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000110000000000000000700000000000000000000000000000002000000000000000000000000000000000000000000000000000100000001020000000000000000010000000000000001000000",
            "010000000101090000006500000000000000010000000000000000000000000001000000000001020000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000110000000000000000700000000000000000000000000000002000000000000000001000000000000000000000000000000000100000001020000000000000000010000000000000001000000",
            "020000000202010000006600000000000000010000000002000000000000000105000000000000000402000000000000000000010300000001020100000000000000000000000000000000000000000000000000000000000000000000000010000000000000000110000000000000000700000000000000000000000000000002000000000000000000000000000000000000000000000000000100000001020000000000000000010000000000000001000000",
            "03000000000367000000000000000001000000000001020200000000000000000000000000000000000000000000000000000000000000000000000010000000000000000110000000000000000700000000000000000000000000000002000000000000000001000000000000000000000000000000000100000001020000000000000000010000000000000001000000",
            "0400000001040007000000000000006800000000000000010000000000000000000000000000010300000001020300000000000000000000000000000000000000000000000000000000000000000000000010000000000000000110000000000000000700000000000000000000000000000002000000000000000000000000000000000000000000000000000100000001020000000000000000010000000000000001000000",
            "05000000020504690000000000000001000000000200000000000000010500000000000000040200000000000000000100000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000110000000000000000700000000000000000000000000000002000000000000000001000000000000000000000000000000000100000001020000000000000000010000000000000001000000",
        ];
        for (i, (state, kind)) in states.into_iter().zip(kinds).enumerate() {
            let core = [CoreId::Ppe, CoreId::Spe(0), CoreId::Spe(1)][i % 3];
            let args = vec![Value::I64(5), Value::Ref(ObjRef(2))];
            let mut t = JavaThread::new(ThreadId(i as u32), core, MethodId(0), args);
            match i % 3 {
                0 => t.pending_call = None,
                1 => t.pending_call.as_mut().unwrap().args.clear(),
                _ => {}
            }
            t.state = state;
            t.pending_migrate_in = kind.map(|k| (CoreId::Spe(1), k));
            t.pending_relookup = Some(MethodId(0)).filter(|_| i % 2 == 1);
            t.pending_acquire_barrier = Some(ObjRef(3)).filter(|_| i % 2 == 0);
            t.available_at = 100 + i as u64;
            t.arena = vec![Slot::from_raw(7), Slot::from_raw(0)];
            let code_kind = [CoreKind::Ppe, CoreKind::Spe][i % 2];
            let code = world
                .registry
                .get_or_compile(&program, &world.layout, MethodId(0), code_kind)
                .expect("compiles")
                .0;
            let at = |kind, base| Frame {
                method: MethodId(0),
                code: Rc::clone(&code),
                pc: 0,
                base,
                nlocals: 0,
                sp: 1,
                kind,
            };
            let marker = FrameKind::MigrationMarker {
                origin: CoreId::Spe(1),
            };
            t.frames = vec![at(FrameKind::Normal, 0), at(marker, 1)];
            let bytes = encode_thread(&t, &program);
            assert_eq!(hex(&bytes), pinned[i], "thread {i}");
            let back = decode_thread(&bytes, &mut world, i as u32, 6, 2);
            assert_eq!(format!("{back:?}"), format!("{:?}", Ok::<_, SnapError>(t)));
        }
    }

    /// The byte that ends a pending call is always 0; any other value is
    /// a corrupt snapshot.
    #[test]
    fn a_pending_call_ending_in_a_nonzero_byte_is_corrupt() {
        // A pending call names a method, so the program needs one.
        let program = one_method_program();
        let mut world = World::new(&program, VmConfig::default());
        let thread = JavaThread::new(ThreadId(0), CoreId::Ppe, MethodId(0), Vec::new());
        let mut bytes = encode_thread(&thread, &program);
        let decode = |bytes: &[u8], world: &mut World<'_>| {
            decode_thread(bytes, world, 0, 1, 0).map(|t| t.pending_call)
        };
        let call = decode(&bytes, &mut world).expect("the encoding round-trips");
        assert_eq!(
            call.map(|c| (c.method, c.args.len())),
            Some((MethodId(0), 0))
        );

        // Id, core, state, clock, call tag, method, argument count.
        let mut r = SnapReader::new(&bytes);
        let _ = (r.u32(), r.u8(), r.u8(), r.u64(), r.u8(), r.u32());
        assert_eq!(r.len_prefix(9), Ok(0));
        let origin = r.position();
        assert_eq!(bytes[origin], 0);
        bytes[origin] = 1;
        match decode(&bytes, &mut world) {
            Err(SnapError::Corrupt(what)) => assert!(what.contains("origin tag 1"), "{what}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A mid-run checkpoint of two workers taking turns on one lock on
    /// two SPEs: monitors with owners and waiters, joins, run queues and
    /// both software caches are all live in it.
    fn contended_checkpoint(observed: bool) -> (Program, VmConfig, Vec<u8>) {
        use crate::native::install_runtime;
        use hera_frontend::*;
        use hera_isa::{ElemTy, ProgramBuilder, Ty};

        let mut pb = ProgramBuilder::new();
        let api = install_runtime(&mut pb);
        let shared = pb.add_class("Shared", None);
        let count = pb.add_field(shared, "count", Ty::Int);
        let worker = pb.add_class("Worker", Some(api.thread_class));
        let fshared = pb.add_field(worker, "shared", Ty::Ref(shared));
        let run = declare_virtual(&mut pb, worker, "run", vec![], None);
        let bump = add(field(local("s"), count), i32c(1));
        let body = vec![
            Stmt::Let("s".into(), field(local("this"), fshared)),
            for_range(
                "i",
                i32c(0),
                i32c(60),
                vec![Stmt::Sync(
                    local("s"),
                    vec![Stmt::SetField(local("s"), count, bump)],
                )],
            ),
        ];
        define(&mut pb, run, vec![("this", Ty::Ref(worker))], body).expect("run compiles");
        let main_class = pb.add_class("Main", None);
        let main = declare_static(&mut pb, main_class, "main", vec![], Some(Ty::Int));
        let spawn = vec![
            Stmt::Let("w".into(), Expr::New(worker)),
            Stmt::SetField(local("w"), fshared, local("s")),
            Stmt::SetIndex(local("t"), local("i"), call(api.spawn, vec![local("w")])),
        ];
        let join = vec![Stmt::Expr(call(
            api.join,
            vec![index(local("t"), local("j"))],
        ))];
        let body = vec![
            Stmt::Let("s".into(), Expr::New(shared)),
            Stmt::Let("t".into(), new_array(ElemTy::Int, i32c(2))),
            for_range("i", i32c(0), i32c(2), spawn),
            for_range("j", i32c(0), i32c(2), join),
            Stmt::Return(Some(field(local("s"), count))),
        ];
        define(&mut pb, main, vec![], body).expect("main compiles");
        let program = pb.finish_with_entry("Main", "main").expect("resolves");

        let mut cfg = VmConfig::pinned_spe(2)
            .with_cache_sizes(4 << 10, 8 << 10)
            .with_checkpoint_every(40_000);
        cfg.heap.size_bytes = 32 << 10;
        if observed {
            cfg = cfg.with_tracing().with_profiling();
        }
        let vm = crate::HeraJvm::new(program.clone(), cfg).expect("constructs");
        let run = vm.run().expect("runs");
        assert_eq!(run.result, Some(Value::I32(120)));
        let mid = &run.checkpoints[run.checkpoints.len() / 2];
        (program, cfg, mid.bytes.clone())
    }

    /// `bytes` restored into a fresh world of `cfg`: the world's own
    /// encoding, or the typed rejection.
    fn restored(
        program: &Program,
        cfg: VmConfig,
        bytes: &[u8],
        mode: RestoreMode,
    ) -> Result<Vec<u8>, SnapError> {
        let mut world = World::new(program, cfg);
        restore_into(&mut world, bytes, mode).map(|_| encode(&world))
    }

    /// Resealed single-byte mutations of `bytes` at a seeded two-fifths
    /// of the payload offsets in `span`, each restored the same-shape
    /// strict way and adopted onto one and three SPEs: every one must be a
    /// typed rejection or a restore, never a panic. Returns the payload
    /// length, the rejection and restore counts, and a digest of every
    /// outcome — a rejection's variant and fields (not a `Corrupt`'s
    /// wording), or the restored world's encoding — so a decoder rewrite
    /// that changes an accept/reject decision or what a restore builds
    /// moves it.
    fn mutation_sweep(
        program: &Program,
        cfg: VmConfig,
        bytes: &[u8],
        span: std::ops::Range<usize>,
        seed: u64,
    ) -> (usize, u32, u32, u64) {
        let payload = open(bytes).expect("valid container");
        let destinations = [
            (2, RestoreMode::Strict),
            (1, RestoreMode::Adopt),
            (3, RestoreMode::Adopt),
        ]
        .map(|(spes, mode)| {
            let mut dst = cfg;
            dst.cell.num_spes = spes;
            (dst, mode)
        });
        for &(dst, mode) in &destinations {
            restored(program, dst, bytes, mode).expect("the checkpoint itself restores");
        }
        let mut rng = hera_rng::SplitMix64::new(seed);
        let (mut digest, mut rejected, mut accepted) = (0u64, 0u32, 0u32);
        let mut panicked = Vec::new();
        for at in span {
            if rng.next_below(5) >= 2 {
                continue; // a seeded two-fifths of the bytes
            }
            for mask in [0x01u8, 0xFF] {
                let mut mutated = payload.to_vec();
                mutated[at] ^= mask;
                let sealed = hera_snap::seal(&mutated);
                for &(dst, mode) in &destinations {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        restored(program, dst, &sealed, mode)
                    }));
                    let line = match outcome {
                        Err(_) => {
                            panicked.push((at, mask, dst.cell.num_spes));
                            continue;
                        }
                        Ok(Ok(encoded)) => {
                            accepted += 1;
                            format!("restored {:016x}", digest64(&encoded))
                        }
                        Ok(Err(SnapError::Corrupt(_))) => {
                            rejected += 1;
                            "corrupt".to_string()
                        }
                        Ok(Err(e)) => {
                            rejected += 1;
                            format!("{e:?}")
                        }
                    };
                    digest = digest64(format!("{digest:016x} {at} {mask} {line}").as_bytes());
                }
            }
        }
        assert!(
            panicked.is_empty(),
            "(byte, mask, SPEs) that panicked: {panicked:?}"
        );
        assert!(
            rejected > 0 && accepted > 0,
            "{rejected} rejected, {accepted} restored"
        );
        (payload.len(), rejected, accepted, digest)
    }

    /// The sweep over the whole payload of an untraced, unprofiled
    /// checkpoint: its OBS section is a few bytes, so this is the CORE
    /// decoder's pin.
    #[test]
    fn resealed_payload_mutations_never_panic() {
        let (program, cfg, bytes) = contended_checkpoint(false);
        let whole = 0..inspect(&bytes).expect("inspects").payload_len;
        assert_eq!(
            mutation_sweep(&program, cfg, &bytes, whole, 0x5eed_0038),
            (2553, 1752, 4422, 0xc8b6_b967_14af_00c3),
            "mutation outcomes moved"
        );
    }

    /// An unprofiled checkpoint ends with its profiler tag. Flipped to 1,
    /// it must be refused as profiler state a world with profiling off
    /// cannot take, before the walk reads on into nodes that are not
    /// there; neither sweep samples that byte.
    #[test]
    fn a_profiler_tag_for_a_world_without_profiling_is_corrupt() {
        let (program, cfg, bytes) = contended_checkpoint(false);
        let mut payload = open(&bytes).expect("valid container").to_vec();
        let tag = payload.len() - 1;
        assert_eq!(payload[tag], 0, "the profiler tag ends the payload");
        payload[tag] = 1;
        let sealed = hera_snap::seal(&payload);
        match restored(&program, cfg, &sealed, RestoreMode::Strict) {
            Err(SnapError::Corrupt(what)) => assert!(what.contains("profiling is off"), "{what}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// The sweep over the OBS section of a traced and profiled
    /// checkpoint: metric counters, histograms, profiler nodes and
    /// shadow-stack cursors, which the untraced sweep never reaches.
    #[test]
    fn resealed_obs_mutations_of_an_observed_checkpoint_never_panic() {
        let (program, cfg, bytes) = contended_checkpoint(true);
        let info = inspect(&bytes).expect("inspects");
        let obs = 8 + info.core_len as usize..info.payload_len;
        assert_eq!(
            mutation_sweep(&program, cfg, &bytes, obs, 0x5eed_0041),
            (4534, 450, 4320, 0xd198_a98a_6131_f5b5),
            "mutation outcomes moved"
        );
    }
}

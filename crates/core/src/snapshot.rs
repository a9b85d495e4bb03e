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
//! just the clocks after it.

use crate::stats::GcSummary;
use crate::thread::{
    BlockReason, Frame, FrameKind, JavaThread, PendingCall, ThreadId, ThreadState,
};
use crate::vm::VmConfig;
use crate::world::World;
use hera_cell::{CoreId, CoreKind, CycleBreakdown, FaultPlan, HwCacheStats, SpeDeath};
use hera_isa::{ClassId, MethodId, ObjRef, Program, Slot, Trap, Value};
use hera_jit::RegistryStats;
use hera_mem::heap::AllocStats;
use hera_snap::{
    digest64, open, rle_decode_extent, rle_decode_words, rle_encode_words, rle_encode_zero_tail,
    rle_encode_zeros, rle_skip_extent, RleLen, SnapError, SnapReader, SnapWriter, HEADER_LEN,
};
use hera_softcache::{CodeCacheStats, DataCacheStats};
use hera_trace::{Histogram, MetricsRegistry, MigrationKind};
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
/// explicitly (see [`encode_fault_plan`]) rather than folded into the
/// digest, so that a checkpoint can be restored on a machine whose own
/// plan differs — cross-machine migration in a fleet where every machine
/// has its own fault seed. Strict restores still compare the carried plan
/// against the destination's; adoption installs the carried plan instead.
pub fn config_digest(config: &VmConfig) -> u64 {
    let mut cfg = *config;
    cfg.cell.faults = FaultPlan::default();
    digest64(format!("{cfg:?}").as_bytes())
}

/// Encode `plan` with `machine_crash_at` zeroed. The crash schedule is a
/// run-local kill switch, not VM state: a checkpoint taken by a doomed
/// run must be byte-identical to the same-seq checkpoint of the clean
/// run, so the crash must not appear in the bytes.
fn encode_fault_plan(w: &mut SnapWriter, plan: &FaultPlan) {
    w.u64(plan.seed);
    for rate in [
        plan.mfc_transfer_ppm,
        plan.eib_timeout_ppm,
        plan.ls_corruption_ppm,
        plan.proxy_timeout_ppm,
        plan.migration_timeout_ppm,
        plan.max_retries,
        plan.backoff_base_cycles,
        plan.eib_timeout_cycles,
        plan.checksum_cycles,
        plan.watchdog_cycles,
    ] {
        w.u32(rate);
    }
    w.u32(plan.slowdown_factor);
    w.u64(plan.slowdown_from_cycle);
    for slot in &plan.spe_deaths {
        match slot {
            Some(d) => {
                w.u8(1);
                w.u8(d.spe);
                w.u64(d.at_cycle);
            }
            None => {
                w.u8(0);
                w.u8(0);
                w.u64(0);
            }
        }
    }
}

/// Decode the plan written by [`encode_fault_plan`]. `machine_crash_at`
/// is always `None` — the crash schedule never travels with a snapshot.
fn decode_fault_plan(r: &mut SnapReader<'_>) -> Result<FaultPlan, SnapError> {
    let mut plan = FaultPlan {
        seed: r.u64()?,
        ..FaultPlan::default()
    };
    plan.mfc_transfer_ppm = r.u32()?;
    plan.eib_timeout_ppm = r.u32()?;
    plan.ls_corruption_ppm = r.u32()?;
    plan.proxy_timeout_ppm = r.u32()?;
    plan.migration_timeout_ppm = r.u32()?;
    plan.max_retries = r.u32()?;
    plan.backoff_base_cycles = r.u32()?;
    plan.eib_timeout_cycles = r.u32()?;
    plan.checksum_cycles = r.u32()?;
    plan.watchdog_cycles = r.u32()?;
    plan.slowdown_factor = r.u32()?;
    plan.slowdown_from_cycle = r.u64()?;
    for slot in plan.spe_deaths.iter_mut() {
        let present = r.u8()? != 0;
        let spe = r.u8()?;
        let at_cycle = r.u64()?;
        if present {
            *slot = Some(SpeDeath { spe, at_cycle });
        }
    }
    Ok(plan)
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

fn core_tag(core: CoreId) -> u8 {
    match core {
        CoreId::Ppe => 0,
        CoreId::Spe(n) => 1 + n,
    }
}

fn decode_core_id(tag: u8, num_spes: u8) -> Result<CoreId, SnapError> {
    match tag {
        0 => Ok(CoreId::Ppe),
        n if n <= num_spes => Ok(CoreId::Spe(n - 1)),
        n => Err(SnapError::Corrupt(format!("core tag {n} out of range"))),
    }
}

/// `raw` as the id of one of a snapshot's `nthreads` threads.
fn thread_id(raw: u32, nthreads: usize) -> Result<ThreadId, SnapError> {
    if (raw as usize) < nthreads {
        Ok(ThreadId(raw))
    } else {
        Err(SnapError::Corrupt(format!("thread id {raw} out of range")))
    }
}

/// `raw` as the id of one of `program`'s methods: compiling, calling or
/// looking up any other id would index past the method table.
fn method_id(raw: u32, program: &Program) -> Result<MethodId, SnapError> {
    if (raw as usize) < program.methods.len() {
        Ok(MethodId(raw))
    } else {
        Err(SnapError::Corrupt(format!("method id {raw} out of range")))
    }
}

/// `raw` as the id of one of `program`'s classes.
fn class_id(raw: u16, program: &Program) -> Result<ClassId, SnapError> {
    if (raw as usize) < program.classes.len() {
        Ok(ClassId(raw))
    } else {
        Err(SnapError::Corrupt(format!("class id {raw} out of range")))
    }
}

fn encode_value(w: &mut SnapWriter, v: &Value) {
    match *v {
        Value::I32(x) => {
            w.u8(0);
            w.u64(x as u32 as u64);
        }
        Value::I64(x) => {
            w.u8(1);
            w.u64(x as u64);
        }
        Value::F32(x) => {
            w.u8(2);
            w.u64(x.to_bits() as u64);
        }
        Value::F64(x) => {
            w.u8(3);
            w.u64(x.to_bits());
        }
        Value::Ref(r) => {
            w.u8(4);
            w.u64(r.0 as u64);
        }
    }
}

fn decode_value(r: &mut SnapReader<'_>) -> Result<Value, SnapError> {
    let tag = r.u8()?;
    let bits = r.u64()?;
    match tag {
        0 => Ok(Value::I32(bits as u32 as i32)),
        1 => Ok(Value::I64(bits as i64)),
        2 => Ok(Value::F32(f32::from_bits(bits as u32))),
        3 => Ok(Value::F64(f64::from_bits(bits))),
        4 => Ok(Value::Ref(ObjRef(bits as u32))),
        n => Err(SnapError::Corrupt(format!("value tag {n} unknown"))),
    }
}

fn encode_trap(w: &mut SnapWriter, t: &Trap) {
    match t {
        Trap::NullPointer => w.u8(0),
        Trap::ArrayIndexOutOfBounds { index, len } => {
            w.u8(1);
            w.u32(*index as u32);
            w.u32(*len);
        }
        Trap::DivisionByZero => w.u8(2),
        Trap::NegativeArraySize(n) => {
            w.u8(3);
            w.u32(*n as u32);
        }
        Trap::OutOfMemory => w.u8(4),
        Trap::IllegalMonitorState => w.u8(5),
        Trap::NativeError(msg) => {
            w.u8(6);
            w.str(msg);
        }
        Trap::MachineCheck(msg) => {
            w.u8(7);
            w.str(msg);
        }
    }
}

fn decode_trap(r: &mut SnapReader<'_>) -> Result<Trap, SnapError> {
    match r.u8()? {
        0 => Ok(Trap::NullPointer),
        1 => Ok(Trap::ArrayIndexOutOfBounds {
            index: r.u32()? as i32,
            len: r.u32()?,
        }),
        2 => Ok(Trap::DivisionByZero),
        3 => Ok(Trap::NegativeArraySize(r.u32()? as i32)),
        4 => Ok(Trap::OutOfMemory),
        5 => Ok(Trap::IllegalMonitorState),
        6 => Ok(Trap::NativeError(r.str()?)),
        7 => Ok(Trap::MachineCheck(r.str()?)),
        n => Err(SnapError::Corrupt(format!("trap tag {n} unknown"))),
    }
}

fn migration_kind_tag(k: MigrationKind) -> u8 {
    match k {
        MigrationKind::Annotation => 0,
        MigrationKind::Monitored => 1,
        MigrationKind::MarkerReturn => 2,
        MigrationKind::Failover => 3,
    }
}

fn decode_migration_kind(tag: u8) -> Result<MigrationKind, SnapError> {
    match tag {
        0 => Ok(MigrationKind::Annotation),
        1 => Ok(MigrationKind::Monitored),
        2 => Ok(MigrationKind::MarkerReturn),
        3 => Ok(MigrationKind::Failover),
        n => Err(SnapError::Corrupt(format!(
            "migration kind tag {n} unknown"
        ))),
    }
}

fn encode_thread(w: &mut SnapWriter, scratch: &mut Vec<u8>, t: &JavaThread) {
    w.u32(t.id.0);
    w.u8(core_tag(t.core));
    match &t.state {
        ThreadState::Ready => w.u8(0),
        ThreadState::Blocked(BlockReason::Monitor(obj)) => {
            w.u8(1);
            w.u32(obj.0);
        }
        ThreadState::Blocked(BlockReason::Join(tid)) => {
            w.u8(2);
            w.u32(tid.0);
        }
        ThreadState::Finished(Ok(None)) => w.u8(3),
        ThreadState::Finished(Ok(Some(v))) => {
            w.u8(4);
            encode_value(w, v);
        }
        ThreadState::Finished(Err(trap)) => {
            w.u8(5);
            encode_trap(w, trap);
        }
    }
    w.u64(t.available_at);
    match &t.pending_call {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            w.u32(p.method.0);
            w.len_prefix(p.args.len());
            for v in &p.args {
                encode_value(w, v);
            }
            // Format v3 ends a pending call with a byte that is always 0
            // (`decode_thread` rejects any other value).
            w.u8(0);
        }
    }
    w.opt_u32(t.pending_relookup.map(|m| m.0));
    match t.pending_acquire_barrier {
        None => w.u8(0),
        Some(obj) => {
            w.u8(1);
            w.u32(obj.0);
        }
    }
    match t.pending_migrate_in {
        None => w.u8(0),
        Some((origin, kind)) => {
            w.u8(1);
            w.u8(core_tag(origin));
            w.u8(migration_kind_tag(kind));
        }
    }
    w.u64(t.window.fp_ops);
    w.u64(t.window.mem_ops);
    w.u64(t.window.total_ops);
    w.u64(t.migrations);
    w.u32(t.held_monitors);
    // The untagged slot arena, as raw little-endian u64 cells (mostly
    // zero above the live watermark, hence the zero-RLE codec).
    rle_encode_words(w, scratch, t.arena.iter().map(|s| s.raw()));
    w.len_prefix(t.frames.len());
    for f in &t.frames {
        match f.kind {
            FrameKind::Normal => {
                w.u8(0);
                // The code is re-derived at restore from (method, kind):
                // a migrated thread's lower frames hold other-kind code.
                w.u8((f.code.core == CoreKind::Spe) as u8);
            }
            FrameKind::MigrationMarker { origin } => {
                w.u8(1);
                w.u8(core_tag(origin));
            }
        }
        w.u32(f.method.0);
        w.u32(f.pc);
        w.u32(f.base);
        w.u32(f.nlocals);
        w.u32(f.sp);
    }
}

/// Encode the clocks: makespan, core count, per-core clocks and cycle
/// breakdowns. This is all of CORE that charging a stall can move, and
/// for a given machine shape it is fixed-width, which is what lets a
/// [`Checkpoint`] overwrite it in place after the write stall.
fn encode_clocks(w: &mut SnapWriter, world: &World<'_>) {
    let cores = world.machine.cores();
    w.u64(world.machine.makespan(&cores));
    w.u32(cores.len() as u32);
    for &c in world.machine.clocks() {
        w.u64(c);
    }
    for b in world.machine.breakdowns() {
        let (cycles, ops) = b.to_raw();
        for v in cycles {
            w.u64(v);
        }
        for v in ops {
            w.u64(v);
        }
    }
}

/// Append the CORE section to `w`: every byte of state that virtual time
/// depends on. Its length — not its content — sets the checkpoint cost.
/// Returns the offset in `w` of the [`encode_clocks`] block.
fn encode_core(w: &mut SnapWriter, world: &World<'_>) -> usize {
    w.u64(config_digest(&world.config));
    w.u64(world.program_digest());
    encode_fault_plan(w, &crashless(&world.config.cell.faults));
    w.u32(world.checkpoint_seq);
    let clocks_at = w.len();
    encode_clocks(w, world);

    // ---- machine ----
    for &f in world.machine.failed_flags() {
        w.bool(f);
    }
    let fs = &world.machine.fault_stats;
    for v in [
        fs.injected_mfc_transfer,
        fs.injected_eib_timeout,
        fs.injected_ls_corruption,
        fs.injected_proxy_timeout,
        fs.injected_migration_timeout,
        fs.mfc_retries,
        fs.backoff_cycles,
        fs.watchdog_cycles,
        fs.unrecoverable,
    ] {
        w.u64(v);
    }
    w.len_prefix(fs.deaths.len());
    for &(spe, at) in &fs.deaths {
        w.u8(spe);
        w.u64(at);
    }
    w.u64(fs.drained_threads);
    w.u64(fs.salvaged_bytes);
    let (windows, retired_below) = world.machine.eib.export_state();
    w.len_prefix(windows.len());
    for (win, cycles) in windows {
        w.u64(win);
        w.u64(cycles);
    }
    w.u64(retired_below);
    w.u64(world.machine.eib.bytes_transferred);
    w.u64(world.machine.eib.transfers);
    w.u64(world.machine.eib.queue_cycles_total);
    let mut scratch = Vec::new();
    let (l1, l2) = world.machine.ppe_cache.export_state();
    for (tags, stamps, tick) in [l1, l2] {
        // Untouched slots hold tag `u64::MAX` / stamp 0: storing the
        // tags *inverted* turns both arrays into mostly-zero byte runs
        // the RLE codec collapses (the L2 alone is 64 KiB raw).
        rle_encode_words(w, &mut scratch, tags.iter().map(|&t| !t));
        rle_encode_words(w, &mut scratch, stamps.iter().copied());
        w.u64(tick);
    }
    w.u64s(&world.machine.ppe_cache.stats.to_array());
    for spe in 0..world.config.cell.num_spes {
        rle_encode_zeros(w, world.machine.local_store(spe).size() as usize);
    }
    w.len_prefix(world.machine.injector_counts().len());
    for row in world.machine.injector_counts() {
        for &v in row {
            w.u64(v);
        }
    }

    // ---- heap ----
    rle_encode_zero_tail(w, world.heap.raw(), world.heap.written_mark() as usize);
    w.u32(world.heap.objects_base());
    w.u32(world.heap.limit());
    w.u32(world.heap.statics_size());
    w.len_prefix(world.heap.free_spans().len());
    for &(addr, size) in world.heap.free_spans() {
        w.u32(addr);
        w.u32(size);
    }
    let objects: Vec<u32> = world.heap.objects().map(|r| r.0).collect(); // BTreeSet order
    w.len_prefix(objects.len());
    for a in objects {
        w.u32(a);
    }
    w.u64s(&world.heap.stats.to_array());

    // ---- software caches ----
    w.len_prefix(world.data_caches.len());
    for dc in &world.data_caches {
        let (bump, slots, local) = dc.export_state();
        w.u32(bump);
        w.len_prefix(slots.len());
        for (slot, fields) in slots {
            w.u32(slot);
            for f in fields {
                w.u32(f);
            }
        }
        rle_encode_zero_tail(w, local, dc.written_mark() as usize);
        w.u64s(&dc.stats.to_array());
    }
    w.len_prefix(world.code_caches.len());
    for cc in &world.code_caches {
        let (bump, methods, tibs) = cc.export_state();
        w.u32(bump);
        w.len_prefix(methods.len());
        for (m, base) in methods {
            w.u32(m.0);
            w.u32(base);
        }
        w.len_prefix(tibs.len());
        for (c, base) in tibs {
            w.u16(c.0);
            w.u32(base);
        }
        w.u64s(&cc.stats.to_array());
    }

    // ---- JIT registry (keys only; code is recompiled at restore) ----
    let keys = world.registry.compiled_keys();
    w.len_prefix(keys.len());
    for (m, kind) in keys {
        w.u32(m.0);
        w.u8((kind == CoreKind::Spe) as u8);
    }
    w.u64s(&world.registry.stats().to_array());

    // ---- threads / scheduler ----
    w.len_prefix(world.threads.len());
    for t in &world.threads {
        encode_thread(w, &mut scratch, t);
    }
    let rows = world.monitors.export_state();
    w.len_prefix(rows.len());
    for (obj, owner, count, waiters, free_at) in rows {
        w.u32(obj.0);
        w.opt_u32(owner.map(|t| t.0));
        w.u32(count);
        w.len_prefix(waiters.len());
        for t in waiters {
            w.u32(t.0);
        }
        w.u64(free_at);
    }
    w.u64(world.monitors.contended_acquires);
    w.u64(world.monitors.acquisitions);
    w.len_prefix(world.run_queues.len());
    for q in &world.run_queues {
        w.len_prefix(q.len());
        for t in q {
            w.u32(t.0);
        }
    }
    for slot in &world.last_on_core {
        w.opt_u32(slot.map(|t| t.0));
    }
    w.u64(world.thread_switches);
    let mut joins: Vec<(&ThreadId, &Vec<ThreadId>)> = world.join_waiters.iter().collect();
    joins.sort_unstable_by_key(|(k, _)| k.0);
    w.len_prefix(joins.len());
    for (k, waiters) in joins {
        w.u32(k.0);
        w.len_prefix(waiters.len());
        for t in waiters {
            w.u32(t.0);
        }
    }
    w.len_prefix(world.output.len());
    for line in &world.output {
        w.str(line);
    }
    let mut files: Vec<(&i32, &Vec<u8>)> = world.files.iter().collect();
    files.sort_unstable_by_key(|(k, _)| **k);
    w.len_prefix(files.len());
    for (fd, data) in files {
        w.u32(*fd as u32);
        w.blob(data);
    }
    w.u64s(&world.gc.to_array());
    w.opt_u64(world.next_checkpoint_at);
    clocks_at
}

/// Encode the OBS section: observability-only state. Nothing in here may
/// influence virtual time or the checkpoint cost. Trace lane event
/// counts and restore markers are deliberately *not* captured, so later
/// checkpoints of a resumed run stay byte-identical to the full run's.
fn encode_obs(w: &mut SnapWriter, world: &World<'_>) {
    w.bool(world.machine.trace.is_enabled());
    let counters: Vec<(&str, u64)> = world.machine.trace.metrics.counters().collect();
    w.len_prefix(counters.len());
    for (name, v) in counters {
        w.str(name);
        w.u64(v);
    }
    let hists: Vec<(&str, &Histogram)> = world.machine.trace.metrics.histograms().collect();
    w.len_prefix(hists.len());
    for (name, h) in hists {
        w.str(name);
        w.u64(h.count);
        w.u64(h.sum);
        w.u64(h.min);
        w.u64(h.max);
        for b in h.buckets {
            w.u64(b);
        }
    }
    match &world.profiler {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            let (nodes, current) = p.export_state();
            w.len_prefix(nodes.len());
            for (method, parent, cost) in nodes {
                w.u32(method);
                w.u32(parent);
                for lane in cost {
                    for v in lane {
                        w.u64(v);
                    }
                }
            }
            w.len_prefix(current.len());
            for (tid, node) in current {
                w.u32(tid);
                w.u32(node);
            }
        }
    }
}

/// A snapshot being written in place, in two steps so that a scheduled
/// checkpoint scans the machine's bulk state once. [`Checkpoint::begin`]
/// encodes CORE straight into the final buffer (container header and
/// `core_len` slot in front of it); the caller reads the write cost off
/// [`Checkpoint::core_len`] and charges it; [`Checkpoint::finish`] then
/// re-encodes the clocks — the only part of CORE the charge moved — over
/// their old bytes, appends OBS and seals. Anything else that changes
/// between the two steps is silently left out of the snapshot, which is
/// why `World::take_checkpoint` checks the result against [`encode`] in
/// debug builds. A checkpoint nothing will read stops after the charge:
/// [`Checkpoint::into_buffer`] hands the buffer back for the next one.
pub(crate) struct Checkpoint {
    w: SnapWriter,
    clocks_at: usize,
}

impl Checkpoint {
    /// Offset of CORE in the sealed buffer: header, then the `core_len`
    /// prefix.
    const CORE_AT: usize = HEADER_LEN + 8;

    /// Encode CORE of `world` into `buf` (cleared first; its capacity is
    /// kept).
    pub(crate) fn begin(world: &World<'_>, buf: Vec<u8>) -> Self {
        let mut w = SnapWriter::sealed_in(buf);
        w.len_prefix(0);
        let clocks_at = encode_core(&mut w, world);
        let mut checkpoint = Self { w, clocks_at };
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
        let mut clocks = SnapWriter::new();
        encode_clocks(&mut clocks, world);
        self.w.patch(self.clocks_at, clocks.bytes());
        encode_obs(&mut self.w, world);
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

/// The head of CORE, read by [`inspect`] and [`restore_into`] alike: the
/// digests and fault plan a restore checks, then the facts `inspect`
/// reports.
struct CoreHead {
    config: u64,
    program: u64,
    plan: FaultPlan,
    info: SnapshotInfo,
}

/// Open a sealed snapshot and read its CORE head. Returns the head, a
/// reader over the rest of CORE and one over OBS.
fn read_core_head(bytes: &[u8]) -> Result<(CoreHead, SnapReader<'_>, SnapReader<'_>), SnapError> {
    let payload = open(bytes)?;
    let mut obs = SnapReader::new(payload);
    let core_len = obs.len_prefix(1)?;
    let mut core = SnapReader::new(obs.take(core_len)?);
    let head = CoreHead {
        config: core.u64()?,
        program: core.u64()?,
        plan: decode_fault_plan(&mut core)?,
        info: SnapshotInfo {
            seq: core.u32()?,
            wall_cycles: core.u64()?,
            core_len: core_len as u64,
            payload_len: payload.len(),
        },
    };
    Ok((head, core, obs))
}

/// Header-level facts about a sealed snapshot without a full decode.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapError> {
    read_core_head(bytes).map(|(head, _, _)| head.info)
}

fn corrupt(ctx: &str, detail: &'static str) -> SnapError {
    SnapError::Corrupt(format!("{ctx}: {detail}"))
}

/// Per-core rows written at the source's `src` cores, read at the
/// destination's `dst`: rows of cores the destination does not have are
/// read and dropped, rows of cores the source did not have start at the
/// default.
fn per_core<'a, T: Default>(
    r: &mut SnapReader<'a>,
    src: usize,
    dst: usize,
    mut read: impl FnMut(&mut SnapReader<'a>) -> Result<T, SnapError>,
) -> Result<Vec<T>, SnapError> {
    let mut rows = Vec::with_capacity(dst);
    for i in 0..src {
        let row = read(r)?;
        if i < dst {
            rows.push(row);
        }
    }
    rows.resize_with(dst, T::default);
    Ok(rows)
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
    world: &mut World<'_>,
    bytes: &[u8],
    mode: RestoreMode,
) -> Result<u32, SnapError> {
    let (head, mut r, mut outer) = read_core_head(bytes)?;
    let program = world.program;
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
    let src_ncores = r.u32()? as usize;
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
    let src_spes = (src_ncores - 1) as u8;
    let dst_spes = world.config.cell.num_spes;
    if src_spes > 0 && dst_spes == 0 {
        return Err(SnapError::Corrupt(
            "cannot adopt SPE state onto a machine with no SPEs".into(),
        ));
    }

    // ---- machine ----
    // Per-core rows decode at the *source* shape: a dropped SPE's clock
    // and counters die with it (its threads drain to the PPE below), an
    // added SPE starts fresh.
    let clocks = per_core(&mut r, src_ncores, ncores, SnapReader::u64)?;
    world
        .machine
        .set_clocks(&clocks)
        .map_err(|e| corrupt("machine clocks", e))?;
    let breakdowns = per_core(&mut r, src_ncores, ncores, |r| {
        Ok(CycleBreakdown::from_raw(r.u64s()?, r.u64s()?))
    })?;
    world
        .machine
        .set_breakdowns(&breakdowns)
        .map_err(|e| corrupt("machine breakdowns", e))?;
    let failed = per_core(&mut r, src_ncores, ncores, SnapReader::bool)?;
    world
        .machine
        .set_failed_flags(&failed)
        .map_err(|e| corrupt("machine blacklist", e))?;
    {
        let fs = &mut world.machine.fault_stats;
        fs.injected_mfc_transfer = r.u64()?;
        fs.injected_eib_timeout = r.u64()?;
        fs.injected_ls_corruption = r.u64()?;
        fs.injected_proxy_timeout = r.u64()?;
        fs.injected_migration_timeout = r.u64()?;
        fs.mfc_retries = r.u64()?;
        fs.backoff_cycles = r.u64()?;
        fs.watchdog_cycles = r.u64()?;
        fs.unrecoverable = r.u64()?;
        fs.deaths = r.list(9, |r| Ok((r.u8()?, r.u64()?)))?;
        fs.drained_threads = r.u64()?;
        fs.salvaged_bytes = r.u64()?;
    }
    let windows = r.list(16, |r| Ok((r.u64()?, r.u64()?)))?;
    let retired_below = r.u64()?;
    world.machine.eib.import_state(windows, retired_below);
    world.machine.eib.bytes_transferred = r.u64()?;
    world.machine.eib.transfers = r.u64()?;
    world.machine.eib.queue_cycles_total = r.u64()?;
    let geometry = {
        let (l1, l2) = world.machine.ppe_cache.export_state();
        [(l1.0.len(), l1.1.len()), (l2.0.len(), l2.1.len())]
    };
    let mut levels = Vec::with_capacity(2);
    for (ntags, nstamps) in geometry {
        let mut tags = rle_decode_words(&mut r, RleLen::Exactly(ntags * 8))?;
        tags.iter_mut().for_each(|t| *t = !*t); // stored inverted
        let stamps = rle_decode_words(&mut r, RleLen::Exactly(nstamps * 8))?;
        levels.push((tags, stamps, r.u64()?));
    }
    let l2 = levels.pop().unwrap();
    let l1 = levels.pop().unwrap();
    world
        .machine
        .ppe_cache
        .import_state(l1, l2)
        .map_err(|e| corrupt("ppe cache", e))?;
    world.machine.ppe_cache.stats = HwCacheStats::from_array(r.u64s()?);
    for spe in 0..src_spes {
        // A local store is encoded as the all-zero buffer it is (its
        // data-cache region lives in the data cache, decoded below), and
        // every store has the one size the configs agree on.
        let size = world.machine.local_store(spe.min(dst_spes - 1)).size();
        if rle_skip_extent(&mut r, size as usize)? != 0 {
            return Err(corrupt("local store", "non-zero bytes"));
        }
    }
    if r.len_prefix(24)? != src_ncores {
        return Err(SnapError::Corrupt(
            "fault-injector row count mismatch".into(),
        ));
    }
    let inj = per_core(&mut r, src_ncores, ncores, SnapReader::u64s)?;
    world
        .machine
        .set_injector_counts(&inj)
        .map_err(|e| corrupt("fault injector", e))?;

    // ---- heap ----
    let (heap_bytes, nonzero_end) =
        rle_decode_extent(&mut r, RleLen::Exactly(world.heap.raw().len()))?;
    let objects_base = r.u32()?;
    let limit = r.u32()?;
    let statics_size = r.u32()?;
    if statics_size != world.heap.statics_size() {
        return Err(SnapError::Corrupt("heap statics size mismatch".into()));
    }
    let free = r.list(8, |r| Ok((r.u32()?, r.u32()?)))?;
    let objects = r.list(4, SnapReader::u32)?.into_iter().collect();
    let heap_stats = AllocStats::from_array(r.u64s()?);
    world.heap = hera_mem::Heap::from_raw_parts(
        heap_bytes,
        nonzero_end as u32,
        objects_base,
        limit,
        free,
        objects,
        statics_size,
        heap_stats,
    )
    .map_err(|e| corrupt("heap", e))?;

    // ---- software caches ----
    if r.len_prefix(4)? != src_spes as usize {
        return Err(SnapError::Corrupt("data-cache count mismatch".into()));
    }
    for spe in 0..src_spes {
        // A dropped SPE is dead-at-adopt: decode its cache into a scratch
        // copy and salvage the dirty lines straight into main memory,
        // exactly as `fail_spe` rescues a core that died mid-run. The
        // rescue DMA is charged to the PPE under the migration cost class.
        let mut scratch;
        let dc = if spe < dst_spes {
            &mut world.data_caches[spe as usize]
        } else {
            scratch = hera_softcache::DataCache::with_block_size(
                world.config.cell.partition.data_cache_bytes,
                world.config.array_block_bytes,
            );
            &mut scratch
        };
        let bump = r.u32()?;
        let slots = r.list(24, |r| {
            Ok((r.u32()?, [r.u32()?, r.u32()?, r.u32()?, r.u32()?, r.u32()?]))
        })?;
        let (local, extent) = rle_decode_extent(&mut r, RleLen::Exactly(dc.capacity() as usize))?;
        dc.import_state(bump, slots, local, extent)
            .map_err(|e| corrupt("data cache", e))?;
        dc.stats = DataCacheStats::from_array(r.u64s()?);
        if spe >= dst_spes {
            let salvaged = dc.salvage(&mut world.heap).map_err(|e| {
                SnapError::Corrupt(format!("adopt-drain salvage of SPE {spe}: {e}"))
            })?;
            world.charge_salvage(salvaged);
        }
    }
    if r.len_prefix(4)? != src_spes as usize {
        return Err(SnapError::Corrupt("code-cache count mismatch".into()));
    }
    for spe in 0..src_spes {
        // Dropped SPEs' code caches are clean (code is re-fetchable) and
        // simply discarded.
        let bump = r.u32()?;
        let methods = r.list(8, |r| Ok((method_id(r.u32()?, program)?, r.u32()?)))?;
        let tibs = r.list(6, |r| Ok((class_id(r.u16()?, program)?, r.u32()?)))?;
        let stats = CodeCacheStats::from_array(r.u64s()?);
        if spe < dst_spes {
            let cc = &mut world.code_caches[spe as usize];
            cc.import_state(bump, methods, tibs)
                .map_err(|e| corrupt("code cache", e))?;
            cc.stats = stats;
        }
    }

    // ---- JIT registry ----
    // Recompile exactly the snapshot's key set eagerly (compilation is
    // deterministic, so the code is identical to the original run's),
    // then overwrite the stats below so compile costs are not repaid.
    let keys = r.list(5, |r| {
        let m = method_id(r.u32()?, program)?;
        let kind = if r.u8()? == 0 {
            CoreKind::Ppe
        } else {
            CoreKind::Spe
        };
        Ok((m, kind))
    })?;
    for (m, kind) in keys {
        world
            .registry
            .get_or_compile(program, &world.layout, m, kind)
            .map_err(|_| SnapError::Corrupt(format!("method {} fails to compile", m.0)))?;
    }
    let registry_stats = RegistryStats::from_array(r.u64s()?);

    // ---- threads ----
    let nthreads = r.len_prefix(1)?;
    let tid = |r: &mut SnapReader<'_>| thread_id(r.u32()?, nthreads);
    let opt_tid =
        |r: &mut SnapReader<'_>| (r.opt_u32()?).map(|t| thread_id(t, nthreads)).transpose();
    world.threads = (0..nthreads)
        .map(|i| decode_thread(&mut r, world, i as u32, nthreads, src_spes))
        .collect::<Result<_, _>>()?;
    world.registry.set_stats(registry_stats);

    // ---- dead-at-adopt drain ----
    // Threads homed on SPEs the destination does not have are drained to
    // the PPE through the same motions as `fail_spe`: migration markers
    // that would return a thread to a missing core are rewritten, and
    // every unfinished resident thread re-homes to the PPE paying one
    // migration charge. Finished threads re-home too (no charge) so the
    // next checkpoint encodes only cores this machine actually has.
    if src_spes > dst_spes {
        let ppe_now = world.machine.now(CoreId::Ppe);
        let migration = world.config.migration_cycles as u64;
        let dropped = |c: CoreId| matches!(c, CoreId::Spe(n) if n >= dst_spes);
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

    // ---- monitors / scheduler ----
    let rows = r.list(8, |r| {
        let (obj, owner, count) = (ObjRef(r.u32()?), opt_tid(r)?, r.u32()?);
        Ok((obj, owner, count, r.list(4, tid)?, r.u64()?))
    })?;
    world.monitors.import_state(rows);
    world.monitors.contended_acquires = r.u64()?;
    world.monitors.acquisitions = r.u64()?;
    if r.len_prefix(8)? != src_ncores {
        return Err(SnapError::Corrupt("run queue count mismatch".into()));
    }
    let mut queues = (0..src_ncores)
        .map(|_| r.list(4, tid))
        .collect::<Result<Vec<_>, _>>()?;
    // Dropped cores' queues fold into the PPE's in core order — the same
    // motion as `fail_spe` merging a dead core's queue.
    let extra: Vec<ThreadId> = queues
        .split_off(src_ncores.min(ncores))
        .into_iter()
        .flatten()
        .collect();
    for (q, src) in world.run_queues.iter_mut().zip(queues) {
        *q = src.into();
    }
    world.run_queues[0].extend(extra);
    world.last_on_core = per_core(&mut r, src_ncores, ncores, opt_tid)?;
    world.thread_switches = r.u64()?;
    let joins = r.list(12, |r| Ok((tid(r)?, r.list(4, tid)?)))?;
    world.join_waiters = joins.into_iter().collect();
    world.output = r.list(8, SnapReader::str)?;
    let files = r.list(12, |r| Ok((r.u32()? as i32, r.blob()?.to_vec())))?;
    world.files = files.into_iter().collect();
    world.gc = GcSummary::from_array(r.u64s()?);
    world.next_checkpoint_at = r.opt_u64()?;
    world.checkpoint_seq = head.info.seq;
    r.finish()?;

    // ---- OBS: observability state ----
    let trace_enabled = outer.bool()?;
    if trace_enabled != world.machine.trace.is_enabled() {
        return Err(SnapError::Corrupt("trace enablement mismatch".into()));
    }
    let mut metrics = MetricsRegistry::default();
    for (name, v) in outer.list(8, |r| Ok((r.str()?, r.u64()?)))? {
        metrics.set(&name, v);
    }
    let hists = outer.list(8, |r| {
        let name = r.str()?;
        let mut h = Histogram {
            count: r.u64()?,
            sum: r.u64()?,
            min: r.u64()?,
            max: r.u64()?,
            ..Histogram::default()
        };
        for b in h.buckets.iter_mut() {
            *b = r.u64()?;
        }
        Ok((name, h))
    })?;
    for (name, h) in hists {
        metrics.set_histogram(&name, h);
    }
    world.machine.trace.metrics = metrics;
    match outer.u8()? {
        0 => {
            if world.profiler.is_some() {
                return Err(SnapError::Corrupt(
                    "snapshot is missing profiler state".into(),
                ));
            }
        }
        1 => {
            if world.profiler.is_none() {
                return Err(SnapError::Corrupt(
                    "snapshot has profiler state but profiling is off".into(),
                ));
            }
            let nodes = outer.list(8, |r| {
                let (method, parent) = (r.u32()?, r.u32()?);
                let mut cost = [[0u64; hera_trace::CostClass::COUNT]; hera_prof::KindLane::COUNT];
                for v in cost.iter_mut().flatten() {
                    *v = r.u64()?;
                }
                Ok((method, parent, cost))
            })?;
            let current = outer.list(8, |r| Ok((r.u32()?, r.u32()?)))?;
            let p = hera_prof::Profiler::from_state(nodes, current)
                .map_err(|e| corrupt("profiler", e))?;
            world.profiler = Some(p);
        }
        n => return Err(SnapError::Corrupt(format!("profiler tag {n} unknown"))),
    }
    outer.finish()?;
    Ok(head.info.seq)
}

fn decode_thread(
    r: &mut SnapReader<'_>,
    world: &mut World<'_>,
    expect_id: u32,
    nthreads: usize,
    num_spes: u8,
) -> Result<JavaThread, SnapError> {
    let id = r.u32()?;
    if id != expect_id {
        return Err(SnapError::Corrupt(format!(
            "thread {expect_id} stored under id {id}"
        )));
    }
    let core = decode_core_id(r.u8()?, num_spes)?;
    let state = match r.u8()? {
        0 => ThreadState::Ready,
        1 => ThreadState::Blocked(BlockReason::Monitor(ObjRef(r.u32()?))),
        2 => ThreadState::Blocked(BlockReason::Join(thread_id(r.u32()?, nthreads)?)),
        3 => ThreadState::Finished(Ok(None)),
        4 => ThreadState::Finished(Ok(Some(decode_value(r)?))),
        5 => ThreadState::Finished(Err(decode_trap(r)?)),
        n => return Err(SnapError::Corrupt(format!("thread state tag {n} unknown"))),
    };
    let available_at = r.u64()?;
    let pending_call = match r.u8()? {
        0 => None,
        1 => {
            let method = method_id(r.u32()?, world.program)?;
            let args = r.list(9, decode_value)?;
            match r.u8()? {
                0 => {}
                n => return Err(SnapError::Corrupt(format!("origin tag {n} unknown"))),
            }
            Some(PendingCall { method, args })
        }
        n => return Err(SnapError::Corrupt(format!("pending-call tag {n} unknown"))),
    };
    let pending_relookup = (r.opt_u32()?)
        .map(|m| method_id(m, world.program))
        .transpose()?;
    let pending_acquire_barrier = match r.u8()? {
        0 => None,
        1 => Some(ObjRef(r.u32()?)),
        n => return Err(SnapError::Corrupt(format!("barrier tag {n} unknown"))),
    };
    let pending_migrate_in = match r.u8()? {
        0 => None,
        1 => {
            let origin = decode_core_id(r.u8()?, num_spes)?;
            let kind = decode_migration_kind(r.u8()?)?;
            Some((origin, kind))
        }
        n => return Err(SnapError::Corrupt(format!("migrate-in tag {n} unknown"))),
    };
    let window = crate::thread::BehaviourWindow {
        fp_ops: r.u64()?,
        mem_ops: r.u64()?,
        total_ops: r.u64()?,
    };
    let migrations = r.u64()?;
    let held_monitors = r.u32()?;
    // The arena is variable-size: the snapshot declares its length, capped
    // so a corrupt one cannot trigger a huge allocation.
    const ARENA_CAP: usize = 256 << 20;
    let arena: Vec<Slot> = rle_decode_words(r, RleLen::Words { cap: ARENA_CAP })?
        .into_iter()
        .map(Slot::from_raw)
        .collect();
    // A migration marker runs on the code of the frame below it.
    let mut below: Option<Rc<hera_jit::CompiledMethod>> = None;
    let frames = r.list(22, |r| {
        let (kind, code_kind) = match r.u8()? {
            0 => match r.u8()? {
                0 => (FrameKind::Normal, Some(CoreKind::Ppe)),
                1 => (FrameKind::Normal, Some(CoreKind::Spe)),
                n => {
                    return Err(SnapError::Corrupt(format!(
                        "frame code-kind tag {n} unknown"
                    )))
                }
            },
            1 => {
                let origin = decode_core_id(r.u8()?, num_spes)?;
                (FrameKind::MigrationMarker { origin }, None)
            }
            n => return Err(SnapError::Corrupt(format!("frame tag {n} unknown"))),
        };
        let method = method_id(r.u32()?, world.program)?;
        let [pc, base, nlocals, sp] = [r.u32()?, r.u32()?, r.u32()?, r.u32()?];
        let code = match (code_kind, &below) {
            (Some(kind), _) => {
                let compiled =
                    world
                        .registry
                        .get_or_compile(world.program, &world.layout, method, kind);
                compiled
                    .map_err(|_| {
                        SnapError::Corrupt(format!("frame method {} fails to compile", method.0))
                    })?
                    .0
            }
            (None, Some(below)) => Rc::clone(below),
            (None, None) => {
                return Err(SnapError::Corrupt(
                    "migration marker as bottom frame".into(),
                ))
            }
        };
        if matches!(kind, FrameKind::Normal) {
            if (pc as usize) >= code.ops.len() {
                return Err(SnapError::Corrupt(format!(
                    "frame pc {pc} out of range for method {}",
                    method.0
                )));
            }
            let end = base as u64 + nlocals as u64;
            if end > sp as u64 || (sp as usize) > arena.len() {
                return Err(SnapError::Corrupt(format!(
                    "frame cursors (base {base}, nlocals {nlocals}, sp {sp}) exceed arena {}",
                    arena.len()
                )));
            }
        }
        below = Some(Rc::clone(&code));
        Ok(Frame {
            method,
            code,
            pc,
            base,
            nlocals,
            sp,
            kind,
        })
    })?;
    Ok(JavaThread {
        id: ThreadId(id),
        frames,
        arena,
        state,
        core,
        available_at,
        pending_call,
        pending_relookup,
        pending_acquire_barrier,
        pending_migrate_in,
        window,
        migrations,
        held_monitors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte that ends a pending call is always 0; any other value is
    /// a corrupt snapshot.
    #[test]
    fn a_pending_call_ending_in_a_nonzero_byte_is_corrupt() {
        // A pending call names a method, so the program needs one.
        let mut pb = hera_isa::ProgramBuilder::new();
        let class = pb.add_class("Main", None);
        let body = hera_isa::MethodBody::Bytecode(vec![hera_isa::Instr::Return]);
        pb.add_static_method(class, "main", vec![], None, 0, body);
        let program = pb.finish_with_entry("Main", "main").expect("resolves");
        let mut world = World::new(&program, VmConfig::default());
        let thread = JavaThread::new(ThreadId(0), CoreId::Ppe, MethodId(0), Vec::new());
        let mut w = SnapWriter::new();
        encode_thread(&mut w, &mut Vec::new(), &thread);
        let mut bytes = w.into_inner();
        let decode = |bytes: &[u8], world: &mut World<'_>| {
            decode_thread(&mut SnapReader::new(bytes), world, 0, 1, 0).map(|t| t.pending_call)
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
    fn contended_checkpoint() -> (Program, VmConfig, Vec<u8>) {
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

    /// Resealed single-byte mutations of a checkpoint's payload, each
    /// restored the same-shape strict way and adopted onto one and three
    /// SPEs: every one is a typed rejection or a restore, never a panic.
    /// The digest pins each outcome — a rejection's variant and fields
    /// (not a `Corrupt`'s wording), or the restored world's encoding — so
    /// a decoder rewrite that changes an accept/reject decision or what a
    /// restore builds fails it.
    #[test]
    fn resealed_payload_mutations_never_panic() {
        let (program, cfg, bytes) = contended_checkpoint();
        let payload = open(&bytes).expect("valid container");
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
            restored(&program, dst, &bytes, mode).expect("the checkpoint itself restores");
        }
        let mut rng = hera_rng::SplitMix64::new(0x5eed_0038);
        let (mut digest, mut rejected, mut accepted) = (0u64, 0u32, 0u32);
        let mut panicked = Vec::new();
        for at in 0..payload.len() {
            if rng.next_below(5) >= 2 {
                continue; // a seeded two-fifths of the bytes
            }
            for mask in [0x01u8, 0xFF] {
                let mut mutated = payload.to_vec();
                mutated[at] ^= mask;
                let sealed = hera_snap::seal(&mutated);
                for &(dst, mode) in &destinations {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        restored(&program, dst, &sealed, mode)
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
        assert_eq!(
            (payload.len(), rejected, accepted, digest),
            (2553, 1752, 4422, 0xc8b6_b967_14af_00c3),
            "mutation outcomes moved"
        );
    }
}

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

use crate::thread::{
    BlockReason, Frame, FrameKind, JavaThread, PendingCall, ThreadId, ThreadState,
};
use crate::vm::VmConfig;
use crate::world::World;
use hera_cell::{CoreId, CoreKind, CycleBreakdown, FaultPlan, SpeDeath};
use hera_isa::{ClassId, MethodId, ObjRef, Program, Slot, Trap, Value};
use hera_snap::{
    digest64, open, rle_decode, rle_decode_extent, rle_encode, rle_encode_zero_tail,
    rle_encode_zeros, rle_skip_extent, SnapError, SnapReader, SnapWriter, HEADER_LEN,
};
use hera_trace::{Histogram, MetricsRegistry, MigrationKind};
use std::collections::{BTreeSet, VecDeque};
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

/// Zero-RLE `words` as little-endian bytes, staged in `scratch` (reused
/// from call to call so one checkpoint stages every word array in one
/// allocation).
fn rle_encode_words(w: &mut SnapWriter, scratch: &mut Vec<u8>, words: impl Iterator<Item = u64>) {
    scratch.clear();
    for v in words {
        scratch.extend_from_slice(&v.to_le_bytes());
    }
    rle_encode(w, scratch);
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
    let hs = world.machine.ppe_cache.stats;
    for v in [hs.accesses, hs.l1_hits, hs.l2_hits, hs.memory_accesses] {
        w.u64(v);
    }
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
    w.u64(world.heap.stats.allocations);
    w.u64(world.heap.stats.bytes_allocated);

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
        let s = dc.stats;
        for v in [
            s.hits,
            s.misses,
            s.purges,
            s.writebacks,
            s.bytes_fetched,
            s.bytes_written_back,
            s.bypasses,
        ] {
            w.u64(v);
        }
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
        let s = cc.stats;
        for v in [
            s.method_hits,
            s.method_misses,
            s.tib_hits,
            s.tib_misses,
            s.purges,
            s.bytes_loaded,
            s.toc_lookups,
            s.bypasses,
        ] {
            w.u64(v);
        }
    }

    // ---- JIT registry (keys only; code is recompiled at restore) ----
    let keys = world.registry.compiled_keys();
    w.len_prefix(keys.len());
    for (m, kind) in keys {
        w.u32(m.0);
        w.u8((kind == CoreKind::Spe) as u8);
    }
    let rs = world.registry.stats();
    for v in [
        rs.ppe_compilations,
        rs.spe_compilations,
        rs.dual_compiled,
        rs.ppe_compile_cycles,
        rs.spe_compile_cycles,
        rs.ppe_code_bytes,
        rs.spe_code_bytes,
    ] {
        w.u64(v);
    }

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
    for v in [
        world.gc.collections,
        world.gc.ppe_cycles,
        world.gc.objects_freed,
        world.gc.bytes_freed,
    ] {
        w.u64(v);
    }
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

/// Header-level facts about a sealed snapshot without a full decode.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapError> {
    let payload = open(bytes)?;
    let mut r = SnapReader::new(payload);
    let core_len = r.len_prefix(1)?;
    let core = r.take(core_len)?;
    let mut cr = SnapReader::new(core);
    let _config = cr.u64()?;
    let _program = cr.u64()?;
    let _plan = decode_fault_plan(&mut cr)?;
    let seq = cr.u32()?;
    let wall_cycles = cr.u64()?;
    Ok(SnapshotInfo {
        seq,
        wall_cycles,
        core_len: core_len as u64,
        payload_len: payload.len(),
    })
}

fn corrupt(ctx: &str, detail: &'static str) -> SnapError {
    SnapError::Corrupt(format!("{ctx}: {detail}"))
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
    let payload = open(bytes)?;
    let mut outer = SnapReader::new(payload);
    let core_len = outer.len_prefix(1)?;
    let core = outer.take(core_len)?;
    let mut r = SnapReader::new(core);

    // The config digest folds in the core count, so it cannot be checked
    // until the snapshot's own core count is known: a cross-shape adoption
    // (6-SPE snapshot onto a 2-SPE machine) is legitimate as long as the
    // configurations agree on everything *except* `num_spes`. Hold the
    // claimed digest and settle it right after the core count below.
    let claimed_config = r.u64()?;
    if r.u64()? != world.program_digest() {
        return Err(SnapError::Corrupt(
            "snapshot was taken of a different guest program".into(),
        ));
    }
    let carried = decode_fault_plan(&mut r)?;
    match mode {
        RestoreMode::Strict => {
            if carried != crashless(&world.config.cell.faults) {
                return Err(SnapError::Corrupt(
                    "snapshot was taken under a different fault plan".into(),
                ));
            }
        }
        RestoreMode::Adopt => {
            let mut plan = carried;
            plan.machine_crash_at = world.config.cell.faults.machine_crash_at;
            world.config.cell.faults = plan;
            world.machine.adopt_fault_plan(plan);
        }
    }
    let seq = r.u32()?;
    let _wall = r.u64()?;
    let cores = world.machine.cores();
    let ncores = cores.len();
    let src_ncores = r.u32()? as usize;
    if src_ncores == ncores {
        if claimed_config != config_digest(&world.config) {
            return Err(SnapError::Corrupt(
                "snapshot was taken under a different VM configuration".into(),
            ));
        }
    } else {
        // Cross-shape restore: only adoption may reshape, and the source
        // configuration must match the destination's in every respect
        // other than its SPE count.
        if mode != RestoreMode::Adopt {
            return Err(SnapError::Corrupt("core count mismatch".into()));
        }
        if src_ncores < 2 || src_ncores > 1 + u8::MAX as usize {
            return Err(SnapError::Corrupt(format!(
                "snapshot core count {src_ncores} out of range"
            )));
        }
        let mut src_cfg = world.config;
        src_cfg.cell.num_spes = (src_ncores - 1) as u8;
        if claimed_config != config_digest(&src_cfg) {
            return Err(SnapError::Corrupt(
                "snapshot was taken under a different VM configuration".into(),
            ));
        }
    }
    let src_spes = (src_ncores - 1) as u8;
    let dst_spes = world.config.cell.num_spes;
    if src_spes > 0 && dst_spes == 0 {
        return Err(SnapError::Corrupt(
            "cannot adopt SPE state onto a machine with no SPEs".into(),
        ));
    }

    // ---- machine ----
    // Per-core rows decode at the *source* shape. Rows for SPEs the
    // destination does not have are folded away (their threads drain to
    // the PPE below); rows for SPEs the source did not have start fresh.
    let mut clocks = vec![0u64; ncores];
    for c in clocks.iter_mut().take(src_ncores) {
        *c = r.u64()?;
    }
    for _ in ncores..src_ncores {
        let _ = r.u64()?; // dropped cores: clock dies with the core
    }
    world
        .machine
        .set_clocks(&clocks)
        .map_err(|e| corrupt("machine clocks", e))?;
    let mut breakdowns = Vec::with_capacity(ncores);
    for i in 0..src_ncores.max(ncores) {
        if i >= src_ncores {
            breakdowns.push(CycleBreakdown::from_raw([0; 6], [0; 6]));
            continue;
        }
        let mut cycles = [0u64; 6];
        let mut ops = [0u64; 6];
        for v in cycles.iter_mut() {
            *v = r.u64()?;
        }
        for v in ops.iter_mut() {
            *v = r.u64()?;
        }
        if i < ncores {
            breakdowns.push(CycleBreakdown::from_raw(cycles, ops));
        }
    }
    world
        .machine
        .set_breakdowns(&breakdowns)
        .map_err(|e| corrupt("machine breakdowns", e))?;
    let mut failed = vec![false; ncores];
    for f in failed.iter_mut().take(src_ncores) {
        *f = r.bool()?;
    }
    for _ in ncores..src_ncores {
        let _ = r.bool()?;
    }
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
    }
    let ndeaths = r.len_prefix(9)?;
    let mut deaths = Vec::with_capacity(ndeaths);
    for _ in 0..ndeaths {
        deaths.push((r.u8()?, r.u64()?));
    }
    world.machine.fault_stats.deaths = deaths;
    world.machine.fault_stats.drained_threads = r.u64()?;
    world.machine.fault_stats.salvaged_bytes = r.u64()?;
    let nwindows = r.len_prefix(16)?;
    let mut windows = Vec::with_capacity(nwindows);
    for _ in 0..nwindows {
        windows.push((r.u64()?, r.u64()?));
    }
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
        let raw = rle_decode(&mut r, ntags * 8)?;
        let tags: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| !u64::from_le_bytes(c.try_into().expect("exact chunk")))
            .collect();
        let raw = rle_decode(&mut r, nstamps * 8)?;
        let stamps: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("exact chunk")))
            .collect();
        levels.push((tags, stamps, r.u64()?));
    }
    let l2 = levels.pop().unwrap();
    let l1 = levels.pop().unwrap();
    world
        .machine
        .ppe_cache
        .import_state(l1, l2)
        .map_err(|e| corrupt("ppe cache", e))?;
    world.machine.ppe_cache.stats.accesses = r.u64()?;
    world.machine.ppe_cache.stats.l1_hits = r.u64()?;
    world.machine.ppe_cache.stats.l2_hits = r.u64()?;
    world.machine.ppe_cache.stats.memory_accesses = r.u64()?;
    for spe in 0..src_spes {
        // A local store is encoded as the all-zero buffer it is (its
        // data-cache region lives in the data cache, decoded below), and
        // every store has the one size the configs agree on.
        let size = world.machine.local_store(spe.min(dst_spes - 1)).size();
        if rle_skip_extent(&mut r, size as usize)? != 0 {
            return Err(corrupt("local store", "non-zero bytes"));
        }
    }
    let ninj = r.len_prefix(24)?;
    if ninj != src_ncores {
        return Err(SnapError::Corrupt(
            "fault-injector row count mismatch".into(),
        ));
    }
    let mut inj = vec![[0u64; 3]; ncores];
    for row in inj.iter_mut().take(src_ncores) {
        *row = [r.u64()?, r.u64()?, r.u64()?];
    }
    for _ in ncores..src_ncores {
        let _ = [r.u64()?, r.u64()?, r.u64()?];
    }
    world
        .machine
        .set_injector_counts(&inj)
        .map_err(|e| corrupt("fault injector", e))?;

    // ---- heap ----
    let (heap_bytes, nonzero_end) = rle_decode_extent(&mut r, world.heap.raw().len())?;
    let objects_base = r.u32()?;
    let limit = r.u32()?;
    let statics_size = r.u32()?;
    if statics_size != world.heap.statics_size() {
        return Err(SnapError::Corrupt("heap statics size mismatch".into()));
    }
    let nfree = r.len_prefix(8)?;
    let mut free = Vec::with_capacity(nfree);
    for _ in 0..nfree {
        free.push((r.u32()?, r.u32()?));
    }
    let nobjects = r.len_prefix(4)?;
    let mut objects = BTreeSet::new();
    for _ in 0..nobjects {
        objects.insert(r.u32()?);
    }
    let heap_stats = hera_mem::heap::AllocStats {
        allocations: r.u64()?,
        bytes_allocated: r.u64()?,
    };
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
        let nslots = r.len_prefix(24)?;
        let mut slots = Vec::with_capacity(nslots);
        for _ in 0..nslots {
            slots.push((r.u32()?, [r.u32()?, r.u32()?, r.u32()?, r.u32()?, r.u32()?]));
        }
        let (local, extent) = rle_decode_extent(&mut r, dc.capacity() as usize)?;
        dc.import_state(bump, slots, local, extent)
            .map_err(|e| corrupt("data cache", e))?;
        dc.stats.hits = r.u64()?;
        dc.stats.misses = r.u64()?;
        dc.stats.purges = r.u64()?;
        dc.stats.writebacks = r.u64()?;
        dc.stats.bytes_fetched = r.u64()?;
        dc.stats.bytes_written_back = r.u64()?;
        dc.stats.bypasses = r.u64()?;
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
        let nmethods = r.len_prefix(8)?;
        let mut methods = Vec::with_capacity(nmethods);
        for _ in 0..nmethods {
            methods.push((MethodId(r.u32()?), r.u32()?));
        }
        let ntibs = r.len_prefix(6)?;
        let mut tibs = Vec::with_capacity(ntibs);
        for _ in 0..ntibs {
            tibs.push((ClassId(r.u16()?), r.u32()?));
        }
        if spe < dst_spes {
            let cc = &mut world.code_caches[spe as usize];
            cc.import_state(bump, methods, tibs)
                .map_err(|e| corrupt("code cache", e))?;
            cc.stats.method_hits = r.u64()?;
            cc.stats.method_misses = r.u64()?;
            cc.stats.tib_hits = r.u64()?;
            cc.stats.tib_misses = r.u64()?;
            cc.stats.purges = r.u64()?;
            cc.stats.bytes_loaded = r.u64()?;
            cc.stats.toc_lookups = r.u64()?;
            cc.stats.bypasses = r.u64()?;
        } else {
            for _ in 0..8 {
                r.u64()?;
            }
        }
    }

    // ---- JIT registry ----
    // Recompile exactly the snapshot's key set eagerly (compilation is
    // deterministic, so the code is identical to the original run's),
    // then overwrite the stats below so compile costs are not repaid.
    let nkeys = r.len_prefix(5)?;
    let mut keys = Vec::with_capacity(nkeys);
    for _ in 0..nkeys {
        let m = MethodId(r.u32()?);
        let kind = if r.u8()? == 0 {
            CoreKind::Ppe
        } else {
            CoreKind::Spe
        };
        keys.push((m, kind));
    }
    for &(m, kind) in &keys {
        world
            .registry
            .get_or_compile(world.program, &world.layout, m, kind)
            .map_err(|_| SnapError::Corrupt(format!("method {} fails to compile", m.0)))?;
    }
    let registry_stats = hera_jit::RegistryStats {
        ppe_compilations: r.u64()?,
        spe_compilations: r.u64()?,
        dual_compiled: r.u64()?,
        ppe_compile_cycles: r.u64()?,
        spe_compile_cycles: r.u64()?,
        ppe_code_bytes: r.u64()?,
        spe_code_bytes: r.u64()?,
    };

    // ---- threads ----
    let nthreads = r.len_prefix(1)?;
    let check_tid = |tid: u32| -> Result<ThreadId, SnapError> {
        if (tid as usize) < nthreads {
            Ok(ThreadId(tid))
        } else {
            Err(SnapError::Corrupt(format!("thread id {tid} out of range")))
        }
    };
    let mut threads = Vec::with_capacity(nthreads);
    for i in 0..nthreads {
        let t = decode_thread(&mut r, world, i as u32, nthreads, src_spes)?;
        threads.push(t);
    }
    world.threads = threads;
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
    let nmon = r.len_prefix(8)?;
    let mut rows = Vec::with_capacity(nmon);
    for _ in 0..nmon {
        let obj = ObjRef(r.u32()?);
        let owner = match r.opt_u32()? {
            None => None,
            Some(t) => Some(check_tid(t)?),
        };
        let count = r.u32()?;
        let nwaiters = r.len_prefix(4)?;
        let mut waiters = Vec::with_capacity(nwaiters);
        for _ in 0..nwaiters {
            waiters.push(check_tid(r.u32()?)?);
        }
        rows.push((obj, owner, count, waiters, r.u64()?));
    }
    world.monitors.import_state(rows);
    world.monitors.contended_acquires = r.u64()?;
    world.monitors.acquisitions = r.u64()?;
    if r.len_prefix(8)? != src_ncores {
        return Err(SnapError::Corrupt("run queue count mismatch".into()));
    }
    let mut queues: Vec<VecDeque<ThreadId>> = Vec::with_capacity(src_ncores);
    for _ in 0..src_ncores {
        let n = r.len_prefix(4)?;
        let mut queue = VecDeque::with_capacity(n);
        for _ in 0..n {
            queue.push_back(check_tid(r.u32()?)?);
        }
        queues.push(queue);
    }
    // Dropped cores' queues fold into the PPE's in core order — the same
    // motion as `fail_spe` merging a dead core's queue.
    let extra: Vec<ThreadId> = queues
        .split_off(src_ncores.min(ncores))
        .into_iter()
        .flatten()
        .collect();
    for (q, src) in world.run_queues.iter_mut().zip(queues) {
        *q = src;
    }
    world.run_queues[0].extend(extra);
    for i in 0..src_ncores {
        let slot = match r.opt_u32()? {
            None => None,
            Some(t) => Some(check_tid(t)?),
        };
        if i < ncores {
            world.last_on_core[i] = slot;
        }
    }
    world.thread_switches = r.u64()?;
    let njoins = r.len_prefix(12)?;
    world.join_waiters.clear();
    for _ in 0..njoins {
        let target = check_tid(r.u32()?)?;
        let n = r.len_prefix(4)?;
        let mut waiters = Vec::with_capacity(n);
        for _ in 0..n {
            waiters.push(check_tid(r.u32()?)?);
        }
        world.join_waiters.insert(target, waiters);
    }
    let nout = r.len_prefix(8)?;
    world.output = Vec::with_capacity(nout);
    for _ in 0..nout {
        world.output.push(r.str()?);
    }
    let nfiles = r.len_prefix(12)?;
    world.files.clear();
    for _ in 0..nfiles {
        let fd = r.u32()? as i32;
        world.files.insert(fd, r.blob()?.to_vec());
    }
    world.gc.collections = r.u64()?;
    world.gc.ppe_cycles = r.u64()?;
    world.gc.objects_freed = r.u64()?;
    world.gc.bytes_freed = r.u64()?;
    world.next_checkpoint_at = r.opt_u64()?;
    world.checkpoint_seq = seq;
    r.finish()?;

    // ---- OBS: observability state ----
    let trace_enabled = outer.bool()?;
    if trace_enabled != world.machine.trace.is_enabled() {
        return Err(SnapError::Corrupt("trace enablement mismatch".into()));
    }
    let mut metrics = MetricsRegistry::default();
    let ncounters = outer.len_prefix(8)?;
    for _ in 0..ncounters {
        let name = outer.str()?;
        metrics.set(&name, outer.u64()?);
    }
    let nhists = outer.len_prefix(8)?;
    for _ in 0..nhists {
        let name = outer.str()?;
        let mut h = Histogram {
            count: outer.u64()?,
            sum: outer.u64()?,
            min: outer.u64()?,
            max: outer.u64()?,
            ..Histogram::default()
        };
        for b in h.buckets.iter_mut() {
            *b = outer.u64()?;
        }
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
            let nnodes = outer.len_prefix(8)?;
            let mut nodes = Vec::with_capacity(nnodes);
            for _ in 0..nnodes {
                let method = outer.u32()?;
                let parent = outer.u32()?;
                let mut cost = [[0u64; hera_trace::CostClass::COUNT]; hera_prof::KindLane::COUNT];
                for lane in cost.iter_mut() {
                    for v in lane.iter_mut() {
                        *v = outer.u64()?;
                    }
                }
                nodes.push((method, parent, cost));
            }
            let ncursors = outer.len_prefix(8)?;
            let mut current = Vec::with_capacity(ncursors);
            for _ in 0..ncursors {
                current.push((outer.u32()?, outer.u32()?));
            }
            let p = hera_prof::Profiler::from_state(nodes, current)
                .map_err(|e| corrupt("profiler", e))?;
            world.profiler = Some(p);
        }
        n => return Err(SnapError::Corrupt(format!("profiler tag {n} unknown"))),
    }
    outer.finish()?;
    Ok(seq)
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
    let check_tid = |tid: u32| -> Result<ThreadId, SnapError> {
        if (tid as usize) < nthreads {
            Ok(ThreadId(tid))
        } else {
            Err(SnapError::Corrupt(format!("thread id {tid} out of range")))
        }
    };
    let state = match r.u8()? {
        0 => ThreadState::Ready,
        1 => ThreadState::Blocked(BlockReason::Monitor(ObjRef(r.u32()?))),
        2 => ThreadState::Blocked(BlockReason::Join(check_tid(r.u32()?)?)),
        3 => ThreadState::Finished(Ok(None)),
        4 => ThreadState::Finished(Ok(Some(decode_value(r)?))),
        5 => ThreadState::Finished(Err(decode_trap(r)?)),
        n => return Err(SnapError::Corrupt(format!("thread state tag {n} unknown"))),
    };
    let available_at = r.u64()?;
    let pending_call = match r.u8()? {
        0 => None,
        1 => {
            let method = MethodId(r.u32()?);
            let nargs = r.len_prefix(9)?;
            let mut args = Vec::with_capacity(nargs);
            for _ in 0..nargs {
                args.push(decode_value(r)?);
            }
            match r.u8()? {
                0 => {}
                n => return Err(SnapError::Corrupt(format!("origin tag {n} unknown"))),
            }
            Some(PendingCall { method, args })
        }
        n => return Err(SnapError::Corrupt(format!("pending-call tag {n} unknown"))),
    };
    let pending_relookup = r.opt_u32()?.map(MethodId);
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
    // The arena is variable-size, so its RLE total *is* the expected
    // length ([`rle_decode`] wants it up front for fixed-size buffers);
    // read the total here and decode the chunk stream inline. The total
    // counts *uncompressed* bytes, so it can legitimately exceed the
    // remaining payload — cap it explicitly instead so a corrupt length
    // cannot trigger a huge allocation.
    const ARENA_CAP: usize = 256 << 20;
    let declared = r.u64()? as usize;
    if declared > ARENA_CAP {
        return Err(SnapError::Corrupt(format!(
            "arena byte length {declared} exceeds sanity cap"
        )));
    }
    if !declared.is_multiple_of(8) {
        return Err(SnapError::Corrupt(format!(
            "arena byte length {declared} is not slot-aligned"
        )));
    }
    let mut arena_raw = vec![0u8; declared];
    let mut filled = 0usize;
    while filled < declared {
        let tag = r.u8()?;
        let run = r.u64()? as usize;
        if run == 0 || run > declared - filled {
            return Err(SnapError::Corrupt(format!(
                "arena rle run of {run} bytes overflows buffer ({filled}/{declared} filled)"
            )));
        }
        match tag {
            0 => {}
            1 => {
                let bytes = r.take(run)?;
                arena_raw[filled..filled + run].copy_from_slice(bytes);
            }
            other => {
                return Err(SnapError::Corrupt(format!("invalid rle tag {other:#04x}")));
            }
        }
        filled += run;
    }
    let arena: Vec<Slot> = arena_raw
        .chunks_exact(8)
        .map(|c| Slot::from_raw(u64::from_le_bytes(c.try_into().unwrap())))
        .collect();
    let nframes = r.len_prefix(22)?;
    let mut frames: Vec<Frame> = Vec::with_capacity(nframes);
    for fi in 0..nframes {
        let tag = r.u8()?;
        let (kind, code_source) = match tag {
            0 => {
                let spe_code = r.u8()?;
                if spe_code > 1 {
                    return Err(SnapError::Corrupt(format!(
                        "frame code-kind tag {spe_code} unknown"
                    )));
                }
                (
                    FrameKind::Normal,
                    Some(if spe_code == 1 {
                        CoreKind::Spe
                    } else {
                        CoreKind::Ppe
                    }),
                )
            }
            1 => {
                let origin = decode_core_id(r.u8()?, num_spes)?;
                (FrameKind::MigrationMarker { origin }, None)
            }
            n => return Err(SnapError::Corrupt(format!("frame tag {n} unknown"))),
        };
        let method = MethodId(r.u32()?);
        let pc = r.u32()?;
        let base = r.u32()?;
        let nlocals = r.u32()?;
        let sp = r.u32()?;
        let code: Rc<hera_jit::CompiledMethod> = match code_source {
            Some(kind) => {
                let (code, _) = world
                    .registry
                    .get_or_compile(world.program, &world.layout, method, kind)
                    .map_err(|_| {
                        SnapError::Corrupt(format!("frame method {} fails to compile", method.0))
                    })?;
                code
            }
            None => match frames.last() {
                Some(below) => Rc::clone(&below.code),
                None => {
                    return Err(SnapError::Corrupt(
                        "migration marker as bottom frame".into(),
                    ))
                }
            },
        };
        if matches!(kind, FrameKind::Normal) {
            if (pc as usize) >= code.ops.len() {
                return Err(SnapError::Corrupt(format!(
                    "frame {fi} pc {pc} out of range for method {}",
                    method.0
                )));
            }
            let end = base as u64 + nlocals as u64;
            if end > sp as u64 || (sp as usize) > arena.len() {
                return Err(SnapError::Corrupt(format!(
                    "frame {fi} cursors (base {base}, nlocals {nlocals}, sp {sp}) exceed arena {}",
                    arena.len()
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
        let program = Program::default();
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
}

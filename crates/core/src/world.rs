//! The running world: machine + heap + threads + scheduler + GC driver.
//!
//! The simulation is deterministic and single-host-threaded. Each core
//! has a virtual clock (in [`CellMachine`]) and a FIFO run queue; the
//! scheduler repeatedly picks the runnable thread with the earliest
//! possible start time (core clock vs. thread availability) and runs it
//! for a bounded quantum of machine ops. Blocking (monitors, joins),
//! migration and GC are all events that move threads between queues and
//! advance clocks.

use crate::monitor::MonitorTable;
use crate::policy::PlacementPolicy;
use crate::snapshot::{Checkpoint, CheckpointBlob};
use crate::stats::GcSummary;
use crate::thread::{BlockReason, FrameKind, JavaThread, ThreadId, ThreadState};
use crate::vm::{StuckThread, VmConfig, VmError};
use hera_cell::{CellMachine, CoreId, CoreKind, OpClass};
use hera_isa::{MethodId, ObjRef, Program, Trap, Value};
use hera_jit::MethodRegistry;
use hera_mem::{Collector, Heap, ProgramLayout};
use hera_softcache::{CodeCache, DataCache};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;

/// Fixed virtual cycles charged to the PPE for initiating a checkpoint
/// write (quiescing the machine, writing the header).
const CHECKPOINT_BASE_CYCLES: u64 = 2_000;
/// Checkpoint payload streaming rate: one PPE cycle per this many bytes.
/// Only the CORE section counts — observability payload is free, so
/// enabling tracing/profiling never perturbs virtual time.
const CHECKPOINT_BYTES_PER_CYCLE: u64 = 16;

/// Result of one scheduling quantum.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuantumOutcome {
    /// The thread used its quantum and remains runnable.
    Ready,
    /// The thread parked (monitor or join).
    Blocked,
    /// The thread finished (normally or by trap).
    Finished,
    /// The thread moved to another core's queue.
    Migrated,
}

/// The complete mutable state of one VM run.
pub struct World<'p> {
    /// The guest program.
    pub program: &'p Program,
    /// Field/statics layout.
    pub layout: ProgramLayout,
    /// Run configuration.
    pub config: VmConfig,
    /// Machine model (clocks, bus, caches, accounting).
    pub machine: CellMachine,
    /// Main memory.
    pub heap: Heap,
    /// Per-core-kind compiled code.
    pub registry: MethodRegistry,
    /// Per-SPE software data caches.
    pub data_caches: Vec<DataCache>,
    /// Per-SPE software code caches.
    pub code_caches: Vec<CodeCache>,
    /// All threads ever created; `ThreadId` indexes this vector.
    pub threads: Vec<JavaThread>,
    /// Per-core FIFO run queues, indexed like the machine's cores
    /// (0 = PPE, 1+n = SPE n).
    pub run_queues: Vec<VecDeque<ThreadId>>,
    /// Object monitors.
    pub monitors: MonitorTable,
    collector: Collector,
    /// Guest console output (one entry per print call).
    pub output: Vec<String>,
    /// In-memory files keyed by descriptor (the `writeFile` native).
    pub files: HashMap<i32, Vec<u8>>,
    /// Threads waiting in `join`, keyed by the joined thread.
    pub join_waiters: HashMap<ThreadId, Vec<ThreadId>>,
    /// GC statistics.
    pub gc: GcSummary,
    /// Last thread that ran on each core (for context-switch costs).
    pub(crate) last_on_core: Vec<Option<ThreadId>>,
    /// Context switches performed.
    pub thread_switches: u64,
    /// Virtual time of the next scheduled checkpoint, when
    /// `VmConfig::with_checkpoint_every` is set.
    pub(crate) next_checkpoint_at: Option<u64>,
    /// Sequence number of the last checkpoint taken (0 = none yet).
    pub(crate) checkpoint_seq: u32,
    /// Every sealed checkpoint, in order; a surviving run keeps only the
    /// freshest (see [`World::take_checkpoint`]).
    pub checkpoints: Vec<CheckpointBlob>,
    /// Whether this is a surviving run (`HeraJvm::run_until_crash` /
    /// `adopt_until_crash`): only a recovery from the scheduled crash
    /// reads its checkpoints, so only the one it reads is sealed.
    pub(crate) surviving: bool,
    /// The buffer a checkpoint that is priced but not sealed encoded CORE
    /// into, kept for the next one.
    checkpoint_buf: Vec<u8>,
    /// When set, each checkpoint is also written to
    /// `<dir>/snap-<seq>.hsnap` (so checkpoints survive a machine crash
    /// that aborts the run and drops the in-memory world).
    pub checkpoint_dir: Option<PathBuf>,
    /// Per-method cost attribution (hera-prof), present when
    /// `VmConfig::with_profiling` was set. The machine accumulates charged
    /// cycles per core; the hooks below drain them to the active shadow
    /// frame at every frame/quantum boundary.
    pub profiler: Option<hera_prof::Profiler>,
    /// [`crate::snapshot::program_digest`] of `program`, rendered the
    /// first time a checkpoint or a restore asks for it.
    program_digest: std::cell::OnceCell<u64>,
}

impl<'p> World<'p> {
    /// Build a fresh world for one run.
    pub fn new(program: &'p Program, config: VmConfig) -> World<'p> {
        let layout = ProgramLayout::compute(program);
        let machine = CellMachine::new(config.cell);
        let heap = Heap::new(config.heap, layout.statics.size);
        let num_spes = config.cell.num_spes as usize;
        let cores = 1 + num_spes;
        let dcap = config.cell.partition.data_cache_bytes;
        let ccap = config.cell.partition.code_cache_bytes;
        World {
            program,
            layout,
            machine,
            heap,
            registry: MethodRegistry::new(),
            data_caches: (0..num_spes)
                .map(|_| DataCache::with_block_size(dcap, config.array_block_bytes))
                .collect(),
            code_caches: (0..num_spes).map(|_| CodeCache::new(ccap)).collect(),
            threads: Vec::new(),
            run_queues: vec![VecDeque::new(); cores],
            monitors: MonitorTable::new(),
            collector: Collector::new(),
            output: Vec::new(),
            files: HashMap::new(),
            join_waiters: HashMap::new(),
            gc: GcSummary::default(),
            last_on_core: vec![None; cores],
            thread_switches: 0,
            next_checkpoint_at: config.checkpoint_every.map(|e| e.max(1)),
            checkpoint_seq: 0,
            checkpoints: Vec::new(),
            surviving: false,
            checkpoint_buf: Vec::new(),
            checkpoint_dir: None,
            profiler: config.cell.profiling.then(hera_prof::Profiler::new),
            program_digest: std::cell::OnceCell::new(),
            config,
        }
    }

    /// Digest of the guest program this world runs (every checkpoint
    /// carries it, every restore checks it).
    pub(crate) fn program_digest(&self) -> u64 {
        *self
            .program_digest
            .get_or_init(|| crate::snapshot::program_digest(self.program))
    }

    // ---- profiler hooks ----
    //
    // Each hook drains the machine's per-core pending cycles and bills
    // them to whoever was innermost while they accrued; the shadow stack
    // then mirrors the engine's MethodInvoke/MethodReturn points exactly.
    // All hooks are a single `is_none` branch when profiling is off and
    // never charge virtual cycles.

    /// Bill everything charged since the last drain to `tid`'s innermost
    /// shadow frame, per core kind.
    pub(crate) fn prof_flush_to_thread(&mut self, tid: ThreadId) {
        let Some(p) = self.profiler.as_mut() else {
            return;
        };
        for lane in 0..self.machine.prof_lanes() {
            if let Some(v) = self.machine.prof_take(lane) {
                p.bill(tid.0, hera_prof::KindLane::from_machine_lane(lane), &v);
            }
        }
    }

    /// Bill everything charged since the last drain to the synthetic
    /// `(runtime)` root (scheduler work, fail-over salvage, post-run).
    pub(crate) fn prof_flush_to_runtime(&mut self) {
        let Some(p) = self.profiler.as_mut() else {
            return;
        };
        for lane in 0..self.machine.prof_lanes() {
            if let Some(v) = self.machine.prof_take(lane) {
                p.bill_runtime(hera_prof::KindLane::from_machine_lane(lane), &v);
            }
        }
    }

    /// Mirror a method invocation (the engine's MethodInvoke point):
    /// everything accrued so far belongs to the caller; subsequent cycles
    /// belong to the callee.
    pub(crate) fn prof_enter(&mut self, tid: ThreadId, method: MethodId) {
        if self.profiler.is_some() {
            self.prof_flush_to_thread(tid);
            if let Some(p) = self.profiler.as_mut() {
                p.enter(tid.0, method.0);
            }
        }
    }

    /// Mirror a method return (the engine's MethodReturn point): the
    /// return overhead bills to the returning method, then the shadow
    /// stack pops.
    pub(crate) fn prof_leave(&mut self, tid: ThreadId) {
        if self.profiler.is_some() {
            self.prof_flush_to_thread(tid);
            if let Some(p) = self.profiler.as_mut() {
                p.leave(tid.0);
            }
        }
    }

    /// A thread is done (normal completion, trap, or stack overflow):
    /// bill residue to its innermost frame and unwind the shadow stack.
    fn prof_thread_done(&mut self, tid: ThreadId) {
        if self.profiler.is_some() {
            self.prof_flush_to_thread(tid);
            if let Some(p) = self.profiler.as_mut() {
                p.reset(tid.0);
            }
        }
    }

    /// Map a core to its queue index.
    pub fn core_index(core: CoreId) -> usize {
        match core {
            CoreId::Ppe => 0,
            CoreId::Spe(n) => 1 + n as usize,
        }
    }

    /// Inverse of [`World::core_index`].
    pub fn index_core(idx: usize) -> CoreId {
        if idx == 0 {
            CoreId::Ppe
        } else {
            CoreId::Spe((idx - 1) as u8)
        }
    }

    /// Pick a concrete core of `kind` for a thread: the one whose queue
    /// is shortest (ties → lowest index).
    pub fn pick_core(&self, kind: CoreKind) -> CoreId {
        match kind {
            CoreKind::Ppe => CoreId::Ppe,
            CoreKind::Spe => {
                let n = self.config.cell.num_spes;
                (0..n)
                    .map(CoreId::Spe)
                    .filter(|&c| !self.machine.core_failed(c))
                    .min_by_key(|&c| {
                        (
                            self.run_queues[Self::core_index(c)].len(),
                            self.machine.now(c),
                        )
                    })
                    // All SPEs dead (or none configured): fall back to
                    // the PPE, which cannot fail.
                    .unwrap_or(CoreId::Ppe)
            }
        }
    }

    /// Re-route a placement decision away from a blacklisted core.
    pub fn remap_failed(&self, core: CoreId) -> CoreId {
        if self.machine.core_failed(core) {
            self.pick_core(CoreKind::Spe)
        } else {
            core
        }
    }

    /// Create and enqueue a thread that will run `method(args)`.
    pub fn spawn_thread(
        &mut self,
        method: MethodId,
        args: Vec<Value>,
        core: CoreId,
        available_at: u64,
    ) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        let mut t = JavaThread::new(id, core, method, args);
        t.available_at = available_at;
        self.threads.push(t);
        self.run_queues[Self::core_index(core)].push_back(id);
        id
    }

    /// Wake a blocked thread at `time` (it re-enters its core's queue).
    pub fn wake(&mut self, tid: ThreadId, time: u64) {
        let t = &mut self.threads[tid.0 as usize];
        debug_assert!(
            matches!(t.state, ThreadState::Blocked(_)),
            "waking a non-blocked thread"
        );
        t.state = ThreadState::Ready;
        t.available_at = t.available_at.max(time);
        let core = t.core;
        self.run_queues[Self::core_index(core)].push_back(tid);
    }

    /// Mark a thread finished and wake its joiners.
    pub fn finish_thread(&mut self, tid: ThreadId, result: Result<Option<Value>, Trap>) {
        self.prof_thread_done(tid);
        let now = self.machine.now(self.threads[tid.0 as usize].core);
        self.threads[tid.0 as usize].state = ThreadState::Finished(result);
        if let Some(waiters) = self.join_waiters.remove(&tid) {
            for w in waiters {
                self.wake(w, now);
            }
        }
    }

    /// Block the current thread on `reason`.
    pub fn block(&mut self, tid: ThreadId, reason: BlockReason) {
        let t = &mut self.threads[tid.0 as usize];
        t.state = ThreadState::Blocked(reason);
        // availability resumes from its core's current time when woken
        t.available_at = self.machine.now(t.core);
        if let BlockReason::Join(target) = reason {
            self.join_waiters.entry(target).or_default().push(tid);
        }
    }

    // ---- allocation with GC retry ----

    /// Allocate an object, collecting once on exhaustion.
    pub fn alloc_object(
        &mut self,
        class: hera_isa::ClassId,
        requester: CoreId,
    ) -> Result<ObjRef, Trap> {
        if let Some(r) = self.heap.alloc_object(&self.layout, class) {
            return Ok(r);
        }
        self.collect_garbage(requester)?;
        self.heap
            .alloc_object(&self.layout, class)
            .ok_or(Trap::OutOfMemory)
    }

    /// Allocate an array, collecting once on exhaustion.
    pub fn alloc_array(
        &mut self,
        elem: hera_isa::ElemTy,
        len: i32,
        requester: CoreId,
    ) -> Result<ObjRef, Trap> {
        if len < 0 {
            return Err(Trap::NegativeArraySize(len));
        }
        if let Some(r) = self.heap.alloc_array(elem, len as u32) {
            return Ok(r);
        }
        self.collect_garbage(requester)?;
        self.heap
            .alloc_array(elem, len as u32)
            .ok_or(Trap::OutOfMemory)
    }

    /// Stop-the-world mark-and-sweep on the PPE (paper §4).
    ///
    /// Order matters: every SPE data cache is written back and purged
    /// *first* — a reference living only in a dirty cached copy would
    /// otherwise be invisible to the trace — then the PPE marks from
    /// thread stacks and statics and sweeps. All cores stall until the
    /// collection finishes.
    pub fn collect_garbage(&mut self, requester: CoreId) -> Result<(), Trap> {
        // The whole collection — cache write-backs, mark/sweep, and the
        // global restart barrier — is GC-pause time on every lane.
        let scope = self
            .machine
            .prof_scope_begin_all(hera_trace::CostClass::GcPause);
        let res = self.collect_garbage_inner(requester);
        self.machine.prof_scope_end_all(scope);
        res
    }

    fn collect_garbage_inner(&mut self, requester: CoreId) -> Result<(), Trap> {
        // 1. Flush + purge SPE caches (each SPE pays its own DMA time).
        //    Failed cores are skipped: their caches were salvaged and
        //    replaced at death, and their clocks must never advance.
        let World {
            data_caches,
            heap,
            machine,
            ..
        } = self;
        for (spe, cache) in data_caches.iter_mut().enumerate() {
            let core = CoreId::Spe(spe as u8);
            if machine.core_failed(core) {
                continue;
            }
            cache
                .purge(heap, machine, core)
                .map_err(|e| Trap::MachineCheck(format!("gc write-back on SPE {spe}: {e}")))?;
        }

        // 2. Gather exact roots from every thread stack.
        let mut roots: Vec<ObjRef> = Vec::new();
        for t in &self.threads {
            roots.extend(t.roots());
        }

        // 3. The PPE performs the collection, starting no earlier than
        //    the requesting core's current time.
        let start = self
            .machine
            .now(CoreId::Ppe)
            .max(self.machine.now(requester));
        self.machine.idle_until(CoreId::Ppe, start);
        self.machine.emit(
            CoreId::Ppe,
            hera_trace::TraceEvent::GcBegin {
                requester_lane: self.machine.lane(requester) as u32,
            },
        );
        let ppe_lane = self.machine.lane(CoreId::Ppe);
        let outcome = self.collector.collect_traced(
            &mut self.heap,
            &self.layout,
            &roots,
            &mut self.machine.trace,
            ppe_lane,
            start,
        );
        let cost = self.machine.cost_model().gc_mark_cycles_per_object as u64
            * outcome.live_objects
            + self.machine.cost_model().gc_sweep_cycles_per_object as u64
                * (outcome.live_objects + outcome.freed_objects);
        self.machine.advance(CoreId::Ppe, cost, OpClass::MainMemory);
        let end = self.machine.now(CoreId::Ppe);
        self.machine.emit(
            CoreId::Ppe,
            hera_trace::TraceEvent::GcEnd {
                freed_objects: outcome.freed_objects,
                freed_bytes: outcome.freed_bytes,
            },
        );

        // 4. Everybody (still alive) stalls until the world restarts.
        for core in self.machine.cores() {
            if self.machine.core_failed(core) {
                continue;
            }
            self.machine.wait_until(core, end, OpClass::MainMemory);
        }

        self.gc.collections += 1;
        self.gc.ppe_cycles += cost;
        self.gc.objects_freed += outcome.freed_objects;
        self.gc.bytes_freed += outcome.freed_bytes;
        Ok(())
    }

    // ---- fail-over ----

    /// Trigger any scheduled SPE deaths whose virtual deadline has
    /// passed. Checked between quanta, so a core dies at a safepoint:
    /// no thread is mid-op, every frame is scannable.
    fn check_spe_deaths(&mut self) -> Result<(), VmError> {
        if !self.machine.faults_active() {
            return Ok(());
        }
        for spe in 0..self.config.cell.num_spes {
            let core = CoreId::Spe(spe);
            if self.machine.core_failed(core) {
                continue;
            }
            if let Some(at) = self.machine.death_for(spe) {
                if self.machine.now(core) >= at {
                    self.fail_spe(spe)?;
                }
            }
        }
        Ok(())
    }

    /// Account `salvaged` bytes rescued from a dead SPE's data cache. The
    /// PPE drives the rescue: a fixed setup plus per-line copy. Fail-over
    /// reuses the migration machinery, so its cost is migration time in
    /// the profile (billed to `(runtime)` — the drain happens between
    /// quanta, outside any guest frame).
    pub(crate) fn charge_salvage(&mut self, salvaged: u64) {
        self.machine.fault_stats.salvaged_bytes += salvaged;
        let scope = self
            .machine
            .prof_scope_begin(CoreId::Ppe, hera_trace::CostClass::Migration);
        self.machine
            .stall(CoreId::Ppe, 200 + salvaged / 16, OpClass::MainMemory);
        self.machine.prof_scope_end(CoreId::Ppe, scope);
    }

    /// Hard SPE death: blacklist the core and drain it.
    ///
    /// Recovery reuses the migration machinery (paper §3.1): every
    /// resident thread is repackaged to the PPE exactly as a one-way
    /// migration would move it, and every migration *marker* pointing
    /// back at the dead core is rewritten so transparent migrate-backs
    /// land on the PPE instead. Dirty cached data is salvaged straight
    /// to main memory — the local store outlives the core model-side —
    /// with the rescue DMA charged to the PPE, not the frozen corpse.
    fn fail_spe(&mut self, spe: u8) -> Result<(), VmError> {
        let core = CoreId::Spe(spe);
        let si = spe as usize;
        self.machine.mark_core_failed(core);

        // 1. Salvage dirty cache state into main memory and replace the
        //    caches wholesale (the old local store is gone).
        let salvaged = self.data_caches[si]
            .salvage(&mut self.heap)
            .map_err(|e| VmError::Internal(format!("salvage after SPE {spe} death: {e}")))?;
        let dcap = self.config.cell.partition.data_cache_bytes;
        let ccap = self.config.cell.partition.code_cache_bytes;
        self.data_caches[si] = DataCache::with_block_size(dcap, self.config.array_block_bytes);
        self.code_caches[si] = CodeCache::new(ccap);
        self.charge_salvage(salvaged);

        // 2. Rewrite migration markers that would return a thread to
        //    the dead core.
        for t in &mut self.threads {
            for f in &mut t.frames {
                if let FrameKind::MigrationMarker { origin } = &mut f.kind {
                    if *origin == core {
                        *origin = CoreId::Ppe;
                    }
                }
            }
        }

        // 3. Drain resident threads to the PPE (running, ready or
        //    blocked — blocked threads re-home too, so their eventual
        //    wake enqueues them on a live core).
        let ppe_now = self.machine.now(CoreId::Ppe);
        let migration = self.config.migration_cycles as u64;
        let mut drained = 0u32;
        for i in 0..self.threads.len() {
            let t = &mut self.threads[i];
            if t.is_finished() || t.core != core {
                continue;
            }
            t.core = CoreId::Ppe;
            t.available_at = t.available_at.max(ppe_now) + migration;
            t.migrations += 1;
            drained += 1;
            crate::interp::trace_migration_out(
                self,
                i,
                core,
                CoreId::Ppe,
                hera_trace::MigrationKind::Failover,
            );
        }

        // 4. Move the dead core's queue onto the PPE's, preserving
        //    dispatch order.
        let idx = Self::core_index(core);
        while let Some(tid) = self.run_queues[idx].pop_front() {
            self.run_queues[0].push_back(tid);
        }
        self.last_on_core[idx] = None;

        self.machine.emit(
            core,
            hera_trace::TraceEvent::SpeDrained { threads: drained },
        );
        self.machine.fault_stats.drained_threads += drained as u64;
        Ok(())
    }

    // ---- checkpoints & machine crash ----

    /// Scheduler-safepoint services, run at the top of every scheduling
    /// iteration (before quantum dispatch): no thread is mid-op, all
    /// profiler pending cycles are drained, every frame is scannable —
    /// exactly the state a snapshot can capture and a restore can rebuild.
    ///
    /// Order matters: the checkpoint fires *before* the machine-crash
    /// check, so a run crashing at cycle N still has every checkpoint due
    /// at or before N on disk to recover from.
    fn safepoint_services(&mut self) -> Result<(), VmError> {
        let crash = self.config.cell.faults.machine_crash_at;
        if self.next_checkpoint_at.is_none() && crash.is_none() {
            return Ok(());
        }
        let now = self.latest_clock();
        if let Some(at) = self.next_checkpoint_at {
            if now >= at {
                self.take_checkpoint(now)?;
            }
        }
        if let Some(at) = crash {
            // A whole-machine crash is a hard stop: no cost is charged and
            // no state is mutated, so the crashed run's history is a strict
            // prefix of the uninterrupted run's.
            let now = self.latest_clock();
            if now >= at {
                return Err(VmError::MachineCrash { at_cycle: now });
            }
        }
        Ok(())
    }

    /// The latest core clock. Runs every scheduling step, so it reads the
    /// clocks in place (no `cores()` Vec).
    fn latest_clock(&self) -> u64 {
        self.machine.clocks().iter().copied().max().unwrap_or(0)
    }

    /// Whether the checkpoint just charged must be sealed. Every one is,
    /// except in a surviving run without a checkpoint directory: there a
    /// recovery reads only the freshest checkpoint taken before the crash
    /// at `at`, and this one is superseded when the advanced schedule puts
    /// the next checkpoint at or before `at` and its own stall did not
    /// reach `at` — the run then meets another safepoint whose latest
    /// clock is at least `at`, and there the checkpoint check runs before
    /// the crash check. With no crash scheduled nothing is sealed.
    fn seals_checkpoint(&self) -> bool {
        if !self.surviving || self.checkpoint_dir.is_some() {
            return true;
        }
        let Some(at) = self.config.cell.faults.machine_crash_at else {
            return false;
        };
        self.next_checkpoint_at.is_none_or(|next| next > at) || self.latest_clock() >= at
    }

    /// Take one scheduled checkpoint at virtual time `now`.
    ///
    /// CORE is encoded once, *before* the stall; its length sets the
    /// write cost, which is charged to the PPE as main-memory stall, and
    /// the snapshot is then completed in place with the charged clocks
    /// (see [`crate::snapshot::Checkpoint`]). All integers are
    /// fixed-width, so the charge cannot change the length it was
    /// derived from (no circularity). The schedule is advanced *before*
    /// encoding so a restored run never re-takes (or re-charges) the
    /// checkpoint it was restored from.
    ///
    /// A checkpoint no recovery can read ([`World::seals_checkpoint`]) is
    /// priced, not built: seq, schedule, charge, event and metrics are
    /// those of a sealed one, but the snapshot stops after CORE and its
    /// buffer is kept for the next checkpoint. A surviving run's store
    /// holds only the freshest sealed checkpoint.
    fn take_checkpoint(&mut self, now: u64) -> Result<(), VmError> {
        self.checkpoint_seq += 1;
        let seq = self.checkpoint_seq;
        if let (Some(next), Some(every)) = (self.next_checkpoint_at, self.config.checkpoint_every) {
            let every = every.max(1);
            let mut next = next;
            while next <= now {
                next += every;
            }
            self.next_checkpoint_at = Some(next);
        }
        let mut buf = std::mem::take(&mut self.checkpoint_buf);
        if buf.capacity() == 0 {
            buf.reserve_exact(self.checkpoints.last().map_or(0, |c| c.bytes.len()));
        }
        let checkpoint = Checkpoint::begin(self, buf);
        let core_len = checkpoint.core_len();
        let cost = CHECKPOINT_BASE_CYCLES + core_len / CHECKPOINT_BYTES_PER_CYCLE;
        self.machine.stall(CoreId::Ppe, cost, OpClass::MainMemory);
        // Checkpoint writing is runtime work; drain it to the `(runtime)`
        // profile root now so the snapshot sees no pending cycles.
        self.prof_flush_to_runtime();
        self.machine.emit(
            CoreId::Ppe,
            hera_trace::TraceEvent::Checkpoint {
                seq,
                bytes: u32::try_from(core_len).unwrap_or(u32::MAX),
            },
        );
        if self.machine.trace.is_enabled() {
            self.machine.trace.metrics.add("snap.checkpoints", 1);
            self.machine
                .trace
                .metrics
                .add("snap.bytes_written", core_len);
            self.machine.trace.metrics.add("snap.write_cycles", cost);
        }
        if !self.seals_checkpoint() {
            debug_assert_eq!(
                Checkpoint::begin(self, Vec::new()).core_len(),
                core_len,
                "checkpoint {seq}: the priced CORE differs in length from a from-scratch encode"
            );
            self.checkpoint_buf = checkpoint.into_buffer();
            return Ok(());
        }
        let bytes = checkpoint.finish(self);
        debug_assert!(
            bytes == crate::snapshot::encode(self),
            "checkpoint {seq}: the in-place encode differs from a from-scratch encode"
        );
        if let Some(dir) = &self.checkpoint_dir {
            let path = dir.join(format!("snap-{seq:04}.hsnap"));
            std::fs::write(&path, &bytes)
                .map_err(|e| VmError::Internal(format!("write checkpoint {path:?}: {e}")))?;
        }
        if self.surviving {
            self.checkpoints.clear();
        }
        self.checkpoints.push(CheckpointBlob {
            seq,
            at_cycle: now,
            bytes,
        });
        Ok(())
    }

    /// Encode a snapshot of the current state *without* charging any
    /// virtual cycles, advancing the checkpoint schedule, or emitting
    /// events (test/diagnostic hook; also the format-golden fixture).
    pub fn checkpoint_now(&self) -> Vec<u8> {
        crate::snapshot::encode(self)
    }

    // ---- the scheduler ----

    /// Pick the next (core, thread) pair: the queued thread with the
    /// earliest possible start time. Deterministic: ties break toward
    /// the lowest core index.
    fn pick_next(&self) -> Option<(CoreId, ThreadId)> {
        let mut best: Option<(u64, usize, ThreadId)> = None;
        for (idx, q) in self.run_queues.iter().enumerate() {
            let Some(&tid) = q.front() else { continue };
            let core = Self::index_core(idx);
            let start = self
                .machine
                .now(core)
                .max(self.threads[tid.0 as usize].available_at);
            if best.is_none_or(|(bs, bi, _)| (start, idx) < (bs, bi)) {
                best = Some((start, idx, tid));
            }
        }
        best.map(|(_, idx, tid)| (Self::index_core(idx), tid))
    }

    /// Build the rich deadlock error: count unfinished threads and
    /// describe every blocked one (which monitor it waits on, or which
    /// thread it waits to join).
    fn deadlock_error(&self) -> VmError {
        let unfinished = self.threads.iter().filter(|t| !t.is_finished()).count();
        let stuck = self
            .threads
            .iter()
            .filter_map(|t| match t.state {
                crate::thread::ThreadState::Blocked(reason) => Some(StuckThread {
                    id: t.id,
                    core: t.core,
                    waiting_on: reason,
                }),
                _ => None,
            })
            .collect();
        VmError::Deadlock {
            threads: unfinished,
            stuck,
        }
    }

    /// Dispatch one scheduling quantum for `tid` on `core`: pop it from
    /// its run queue, charge the context switch, wait out any arrival
    /// latency, run one quantum, and re-enqueue.
    fn dispatch_quantum(&mut self, core: CoreId, tid: ThreadId) -> Result<(), VmError> {
        let idx = Self::core_index(core);
        self.run_queues[idx].pop_front();

        // Context switch cost when the core changes threads.
        if self.last_on_core[idx] != Some(tid) {
            if self.last_on_core[idx].is_some() {
                self.machine.advance(
                    core,
                    self.config.thread_switch_cycles as u64,
                    OpClass::Stack,
                );
                self.thread_switches += 1;
                self.machine
                    .emit(core, hera_trace::TraceEvent::ThreadSwitch { thread: tid.0 });
            }
            self.last_on_core[idx] = Some(tid);
        }

        // The core may have to wait for the thread to arrive
        // (migration latency); that is idle time, not execution.
        let avail = self.threads[tid.0 as usize].available_at;
        self.machine.idle_until(core, avail);

        // Scheduler overhead so far (context switch, fail-over
        // salvage) is runtime cost; everything charged from here to
        // the next drain belongs to `tid`.
        self.prof_flush_to_runtime();

        let outcome = crate::interp::run_quantum(self, tid)?;
        self.prof_flush_to_thread(tid);
        match outcome {
            QuantumOutcome::Ready => {
                let core_now = self.threads[tid.0 as usize].core;
                self.run_queues[Self::core_index(core_now)].push_back(tid);
            }
            QuantumOutcome::Migrated => {
                let target = self.threads[tid.0 as usize].core;
                self.run_queues[Self::core_index(target)].push_back(tid);
            }
            QuantumOutcome::Blocked | QuantumOutcome::Finished => {}
        }
        Ok(())
    }

    /// Run every thread to completion: strictly one quantum at a time,
    /// in earliest-virtual-start order.
    pub fn run_to_completion(&mut self) -> Result<(), VmError> {
        loop {
            self.safepoint_services()?;
            self.check_spe_deaths()?;
            let Some((core, tid)) = self.pick_next() else {
                // Nothing queued: either done, or deadlocked.
                let unfinished = self.threads.iter().filter(|t| !t.is_finished()).count();
                if unfinished == 0 {
                    return Ok(());
                }
                return Err(self.deadlock_error());
            };
            self.dispatch_quantum(core, tid)?;
        }
    }

    /// Merged data-cache statistics over all SPEs.
    pub fn data_cache_stats(&self) -> hera_softcache::DataCacheStats {
        self.data_caches.iter().map(|c| c.stats).sum()
    }

    /// Merged code-cache statistics over all SPEs.
    pub fn code_cache_stats(&self) -> hera_softcache::CodeCacheStats {
        self.code_caches.iter().map(|c| c.stats).sum()
    }

    /// Total migrations across all threads.
    pub fn total_migrations(&self) -> u64 {
        self.threads.iter().map(|t| t.migrations).sum()
    }

    /// The placement policy in effect.
    pub fn policy(&self) -> PlacementPolicy {
        self.config.policy
    }
}

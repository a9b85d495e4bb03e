//! The public VM façade: configuration, construction (with program
//! verification), and `run()`.

use crate::policy::PlacementPolicy;
use crate::snapshot::{CheckpointBlob, RestoreMode};
use crate::stats::{BusSummary, RunStats};
use crate::thread::{BlockReason, ThreadId, ThreadState};
use crate::world::World;
use hera_cell::{CellConfig, CoreId, CoreKind};
use hera_isa::{Program, Trap, Value, VerifyError};
use hera_jit::CompileError;
use hera_mem::HeapConfig;
use hera_snap::SnapError;
use hera_softcache::DataCache;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One participant in a deadlock: where the thread lives and what it is
/// waiting for. Cycles read directly off a list of these (thread A waits
/// for a monitor held by B, B waits to join A, …), which is what makes a
/// deadlocked run debuggable from the error alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StuckThread {
    /// The blocked thread.
    pub id: ThreadId,
    /// The core it is parked on.
    pub core: CoreId,
    /// The monitor or join target it is waiting for.
    pub waiting_on: BlockReason,
}

impl fmt::Display for StuckThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.waiting_on {
            BlockReason::Monitor(obj) => {
                write!(
                    f,
                    "thread {} on {} waits for monitor @{}",
                    self.id.0, self.core, obj.0
                )
            }
            BlockReason::Join(t) => {
                write!(
                    f,
                    "thread {} on {} waits to join thread {}",
                    self.id.0, self.core, t.0
                )
            }
        }
    }
}

/// VM construction / run errors (guest traps are *not* errors; they are
/// reported per-thread in the [`RunOutcome`]).
#[derive(Debug)]
pub enum VmError {
    /// The program has no entry point set.
    NoEntryPoint,
    /// Bytecode failed verification.
    Verify(VerifyError),
    /// The JIT rejected a method (indicates a malformed program).
    Compile(CompileError),
    /// All remaining threads are blocked.
    Deadlock {
        /// How many threads were stuck.
        threads: usize,
        /// Per-thread detail (id, core, blocked-on monitor or join
        /// target) for every thread parked when the scheduler ran dry.
        stuck: Vec<StuckThread>,
    },
    /// A snapshot failed to decode (corrupt, truncated, wrong version,
    /// or taken under a different program/configuration).
    Snap(SnapError),
    /// A scheduled whole-machine crash fired
    /// ([`hera_cell::FaultPlan::with_machine_crash`]): the run is over,
    /// recover by restoring the latest on-disk checkpoint.
    MachineCrash {
        /// Virtual wall-clock at which the machine died.
        at_cycle: u64,
    },
    /// Simulator invariant violation (a bug, not a guest error).
    Internal(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NoEntryPoint => write!(f, "program has no entry point"),
            VmError::Verify(e) => write!(f, "verification failed: {e}"),
            VmError::Compile(e) => write!(f, "compilation failed: {e}"),
            VmError::Deadlock { threads, stuck } => {
                write!(f, "deadlock: {threads} threads blocked forever")?;
                for s in stuck {
                    write!(f, "; {s}")?;
                }
                Ok(())
            }
            VmError::Snap(e) => write!(f, "snapshot error: {e}"),
            VmError::MachineCrash { at_cycle } => {
                write!(f, "whole-machine crash at cycle {at_cycle}")
            }
            VmError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for VmError {}

/// VM configuration. The snapshot config digest is
/// `digest64(format!("{config:?}"))`, so the derived `Debug` rendering is
/// part of the checkpoint format (pinned by the format golden).
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Machine model configuration (SPE count, cache partition, costs).
    pub cell: CellConfig,
    /// Heap configuration.
    pub heap: HeapConfig,
    /// Thread placement policy.
    pub policy: PlacementPolicy,
    /// Machine ops per scheduling quantum.
    pub quantum_ops: u32,
    /// Cycles to package parameters and migrate a thread (§3.1).
    pub migration_cycles: u32,
    /// Cycles charged when a core switches between threads.
    pub thread_switch_cycles: u32,
    /// Maximum frame depth before a stack-overflow trap.
    pub max_stack_depth: usize,
    /// SPE data-cache array block transfer size (default 1 KB).
    pub array_block_bytes: u32,
    /// Verify all bytecode at construction (on by default; turning it
    /// off is only sensible in benchmarks that construct many VMs over
    /// the same already-verified program).
    pub verify: bool,
    /// CellVM-comparison mode (§5 related work): synchronisation
    /// operations on SPEs are proxied through the PPE (as CellVM does)
    /// instead of being performed locally with atomic DMA. The paper
    /// argues this "presents scalability issues"; enabling the flag
    /// makes that claim measurable (experiment E10).
    pub cellvm_style_sync: bool,
    /// Take a whole-VM checkpoint at the first scheduler safepoint at or
    /// after every multiple of this many virtual cycles (`None` = never).
    /// Checkpoint writes charge real virtual cycles to the PPE, so runs
    /// with and without checkpointing have different timings — but a
    /// restored run is bit-identical to the checkpointed run it came from.
    pub checkpoint_every: Option<u64>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            cell: CellConfig::default(),
            heap: HeapConfig::default(),
            policy: PlacementPolicy::default(),
            quantum_ops: 4096,
            migration_cycles: 1200,
            thread_switch_cycles: 300,
            max_stack_depth: 1024,
            array_block_bytes: DataCache::DEFAULT_ARRAY_BLOCK,
            verify: true,
            cellvm_style_sync: false,
            checkpoint_every: None,
        }
    }
}

impl VmConfig {
    /// Pin every thread to the PPE (the Figure 4 baseline).
    pub fn pinned_ppe() -> VmConfig {
        VmConfig {
            policy: PlacementPolicy::PinnedPpe,
            ..VmConfig::default()
        }
    }

    /// Distribute threads over `n` SPE cores and pin them there.
    pub fn pinned_spe(n: u8) -> VmConfig {
        let mut cfg = VmConfig {
            policy: PlacementPolicy::PinnedSpe,
            ..VmConfig::default()
        };
        cfg.cell.num_spes = n;
        cfg
    }

    /// Override the SPE cache partition (Figure 6/7 sweeps). Sizes are
    /// in bytes; the resident runtime block keeps its default 64 KB.
    pub fn with_cache_sizes(mut self, data_bytes: u32, code_bytes: u32) -> VmConfig {
        self.cell.partition = hera_cell::StorePartition::with_caches(data_bytes, code_bytes);
        self
    }

    /// Enable the hera-trace event sink for this run. Tracing observes —
    /// it never charges virtual cycles — so cycle counts are identical
    /// with or without it.
    pub fn with_tracing(mut self) -> VmConfig {
        self.cell.trace = true;
        self
    }

    /// Install a deterministic fault plan (chaos testing). A plan with
    /// no rates and no scheduled deaths leaves virtual time
    /// bit-identical to a run without one.
    pub fn with_faults(mut self, plan: hera_cell::FaultPlan) -> VmConfig {
        self.cell.faults = plan;
        self
    }

    /// Enable the hera-prof per-method profiler for this run. Like
    /// tracing, profiling observes — it never charges virtual cycles —
    /// so virtual time is bit-identical with or without it.
    pub fn with_profiling(mut self) -> VmConfig {
        self.cell.profiling = true;
        self
    }

    /// Checkpoint the whole VM roughly every `cycles` virtual cycles
    /// (at the first scheduler safepoint past each deadline). See
    /// [`VmConfig::checkpoint_every`].
    pub fn with_checkpoint_every(mut self, cycles: u64) -> VmConfig {
        self.checkpoint_every = Some(cycles.max(1));
        self
    }

    /// No effect; kept only until the benchmark-correction PR removes
    /// `kernels-par` (the frozen `hostbench` cells still call it).
    pub fn with_host_workers(self, _n: u32) -> VmConfig {
        self
    }
}

/// No effect; kept only until the benchmark-correction PR removes
/// `kernels-par` (the frozen `hostbench` cells read these four counters).
/// Always zero in [`RunOutcome::par`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Always zero.
    pub epochs: u64,
    /// Always zero.
    pub committed: u64,
    /// Always zero.
    pub reexec: u64,
    /// Always zero.
    pub discarded: u64,
}

/// The result of one complete run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The entry method's return value (if it returned one and did not
    /// trap).
    pub result: Option<Value>,
    /// Guest console output, in emission order.
    pub output: Vec<String>,
    /// In-memory files written via the `writeFile` native.
    pub files: HashMap<i32, Vec<u8>>,
    /// Per-thread traps (empty on a clean run).
    pub traps: Vec<(ThreadId, Trap)>,
    /// Everything measured.
    pub stats: RunStats,
    /// The virtual-time event trace (empty and disabled unless the run
    /// used [`VmConfig::with_tracing`]).
    pub trace: hera_trace::TraceSink,
    /// The per-method cost profile (`None` unless the run used
    /// [`VmConfig::with_profiling`]).
    pub profile: Option<hera_prof::Profile>,
    /// Digest of the final heap image — a cheap end-state equality check
    /// for restore/differential tests.
    pub heap_digest: u64,
    /// The heap's final written-mark: the bytes of the image the run could
    /// have stored into, and all that `heap_digest` and a checkpoint read.
    pub heap_written: u32,
    /// Every checkpoint taken during the run (empty unless the run used
    /// [`VmConfig::with_checkpoint_every`]; always empty after a surviving
    /// run, [`HeraJvm::run_until_crash`]).
    pub checkpoints: Vec<CheckpointBlob>,
    /// Always zero; see [`ParStats`].
    pub par: ParStats,
}

impl RunOutcome {
    /// Whether every thread finished without trapping.
    pub fn is_clean(&self) -> bool {
        self.traps.is_empty()
    }
}

/// How a crash-surviving run ([`HeraJvm::run_until_crash`] /
/// [`HeraJvm::adopt_until_crash`]) ended.
#[derive(Debug)]
pub enum RunEnd {
    /// The run finished; no scheduled crash fired (or none was scheduled).
    Completed(Box<RunOutcome>),
    /// The scheduled machine crash fired. The freshest checkpoint taken
    /// before it is preserved — in fleet terms, the blob a recovery reads
    /// from the snapshot store the machine had streamed to.
    Crashed {
        /// Makespan at the safepoint where the crash fired.
        at_cycle: u64,
        /// The last checkpoint taken at or before the crash safepoint
        /// (`None` when none was due by then).
        checkpoint: Option<CheckpointBlob>,
    },
}

/// The Hera-JVM virtual machine.
///
/// Owns a verified program and a configuration; each [`HeraJvm::run`]
/// builds a fresh world (heap, machine, caches, threads) and executes
/// the entry point to completion, so runs are independent and
/// deterministic.
pub struct HeraJvm {
    program: Program,
    config: VmConfig,
    checkpoint_dir: Option<PathBuf>,
}

impl HeraJvm {
    /// Create a VM, verifying the program's bytecode (unless disabled).
    pub fn new(program: Program, config: VmConfig) -> Result<HeraJvm, VmError> {
        if program.entry.is_none() {
            return Err(VmError::NoEntryPoint);
        }
        if config.verify {
            hera_isa::verify_program(&program).map_err(VmError::Verify)?;
        }
        Ok(HeraJvm {
            program,
            config,
            checkpoint_dir: None,
        })
    }

    /// Also write each checkpoint to `<dir>/snap-<seq>.hsnap`, so
    /// checkpoints survive a whole-machine crash that aborts the run
    /// (and with it the in-memory [`RunOutcome::checkpoints`]). The
    /// directory must already exist.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> HeraJvm {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// The program under execution.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The configuration in effect.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Run the program to completion (all threads).
    pub fn run(&self) -> Result<RunOutcome, VmError> {
        match self.run_mode(None, RestoreMode::Strict, false)? {
            RunEnd::Completed(o) => Ok(*o),
            RunEnd::Crashed { .. } => unreachable!("crash surfaces as Err unless surviving"),
        }
    }

    /// Resume from a snapshot file written by a previous checkpointed
    /// run of the *same* program under the *same* configuration. The
    /// resumed run's later trace events and per-core cycle counts are
    /// bit-identical to the uninterrupted run's.
    pub fn restore(&self, path: &Path) -> Result<RunOutcome, VmError> {
        let bytes = std::fs::read(path)
            .map_err(|e| VmError::Snap(SnapError::Io(format!("{}: {e}", path.display()))))?;
        self.restore_bytes(&bytes)
    }

    /// Resume from in-memory snapshot bytes (see [`HeraJvm::restore`]).
    pub fn restore_bytes(&self, snapshot: &[u8]) -> Result<RunOutcome, VmError> {
        match self.run_mode(Some(snapshot), RestoreMode::Strict, false)? {
            RunEnd::Completed(o) => Ok(*o),
            RunEnd::Crashed { .. } => unreachable!("crash surfaces as Err unless surviving"),
        }
    }

    /// Resume from snapshot bytes taken on a *different* machine:
    /// [`RestoreMode::Adopt`] installs the fault plan carried in the
    /// snapshot (minus any crash schedule — this machine keeps its own),
    /// so the resumed run replays the source machine's fault stream and
    /// stays bit-identical to the uninterrupted source run. This is the
    /// receive side of fleet live migration.
    pub fn adopt_bytes(&self, snapshot: &[u8]) -> Result<RunOutcome, VmError> {
        match self.run_mode(Some(snapshot), RestoreMode::Adopt, false)? {
            RunEnd::Completed(o) => Ok(*o),
            RunEnd::Crashed { .. } => unreachable!("crash surfaces as Err unless surviving"),
        }
    }

    /// Run from scratch, but treat a scheduled machine crash as an
    /// *observation* rather than an error: the crashed run's freshest
    /// checkpoint is returned alongside the crash cycle. (In a fleet,
    /// checkpoints stream to a snapshot store as they are taken; this is
    /// that store for simulated machines.) Any other failure is still an
    /// `Err`.
    ///
    /// Only that checkpoint is sealed: every other one is priced — same
    /// virtual charge, seq, schedule and trace event — but never built,
    /// and a run that completes returns no checkpoints. With a checkpoint
    /// directory every checkpoint is still sealed and written.
    pub fn run_until_crash(&self) -> Result<RunEnd, VmError> {
        self.run_mode(None, RestoreMode::Strict, true)
    }

    /// [`HeraJvm::adopt_bytes`], but surviving a scheduled machine crash
    /// like [`HeraJvm::run_until_crash`], and sealing only the checkpoint a
    /// recovery reads — for chained migrations and the fleet's adoption
    /// proofs.
    pub fn adopt_until_crash(&self, snapshot: &[u8]) -> Result<RunEnd, VmError> {
        self.run_mode(Some(snapshot), RestoreMode::Adopt, true)
    }

    fn run_mode(
        &self,
        snapshot: Option<&[u8]>,
        mode: RestoreMode,
        survive_crash: bool,
    ) -> Result<RunEnd, VmError> {
        let entry = self.program.entry.ok_or(VmError::NoEntryPoint)?;
        let mut world = World::new(&self.program, self.config);
        world.checkpoint_dir = self.checkpoint_dir.clone();
        world.surviving = survive_crash;

        match snapshot {
            None => {
                // Place the main thread per policy.
                let (kind, spe_hint) = self
                    .config
                    .policy
                    .initial_core_kind(0, self.config.cell.num_spes);
                let core = match kind {
                    CoreKind::Ppe => CoreId::Ppe,
                    CoreKind::Spe => CoreId::Spe(spe_hint),
                };
                world.spawn_thread(entry, Vec::new(), core, 0);
            }
            Some(bytes) => {
                let seq = crate::snapshot::restore_into(&mut world, bytes, mode)
                    .map_err(VmError::Snap)?;
                // Observability only: mark the resumption point in the
                // trace. Restore charges no virtual cycles.
                world
                    .machine
                    .emit(CoreId::Ppe, hera_trace::TraceEvent::Restore { seq });
            }
        }
        match world.run_to_completion() {
            Ok(()) => {}
            Err(VmError::MachineCrash { at_cycle }) if survive_crash => {
                return Ok(RunEnd::Crashed {
                    at_cycle,
                    checkpoint: world.checkpoints.pop(),
                });
            }
            Err(e) => return Err(e),
        }

        // Sweep any cycles charged after the last quantum (final GC,
        // shutdown work) to the runtime root, then close the profile.
        world.prof_flush_to_runtime();
        let profile = world.profiler.take().map(|p| p.finish());

        // Harvest results.
        let mut result = None;
        let mut traps = Vec::new();
        for t in &world.threads {
            match &t.state {
                ThreadState::Finished(Ok(v)) => {
                    if t.id == ThreadId(0) {
                        result = *v;
                    }
                }
                ThreadState::Finished(Err(trap)) => traps.push((t.id, trap.clone())),
                other => {
                    return Err(VmError::Internal(format!(
                        "thread {:?} ended in state {:?}",
                        t.id, other
                    )))
                }
            }
        }

        let stats = Self::collect_stats(&world);
        let mut trace = std::mem::take(&mut world.machine.trace);
        if trace.is_enabled() {
            // Overlay the end-of-run aggregates (authoritative values, so
            // `set` rather than `merge` — some names, e.g. gc.collections,
            // are also accumulated event-side).
            let snapshot = stats.metrics();
            for (name, v) in snapshot.counters() {
                trace.metrics.set(name, v);
            }
        }
        // The digest of the whole image, read only up to the written-mark.
        let image = world.heap.raw();
        let heap_written = world.heap.written_mark();
        let heap_digest =
            hera_snap::digest64_zero_extended(&image[..heap_written as usize], image.len());
        Ok(RunEnd::Completed(Box::new(RunOutcome {
            result,
            output: world.output.clone(),
            files: world.files.clone(),
            traps,
            stats,
            trace,
            profile,
            heap_digest,
            heap_written,
            checkpoints: if survive_crash {
                Vec::new()
            } else {
                std::mem::take(&mut world.checkpoints)
            },
            par: ParStats::default(),
        })))
    }

    fn collect_stats(world: &World<'_>) -> RunStats {
        let machine = &world.machine;
        let cores = machine.cores();
        RunStats {
            wall_cycles: machine.makespan(&cores),
            ppe: *machine.breakdown(CoreId::Ppe),
            spe: machine.spe_breakdown(),
            per_core_cycles: cores.iter().map(|&c| machine.now(c)).collect(),
            ppe_cache: machine.ppe_cache.stats,
            data_cache: world.data_cache_stats(),
            code_cache: world.code_cache_stats(),
            gc: world.gc,
            registry: world.registry.stats(),
            bus: BusSummary {
                bytes_transferred: machine.eib.bytes_transferred,
                transfers: machine.eib.transfers,
                mean_queue_cycles: machine.eib.mean_queue_cycles(),
            },
            migrations: world.total_migrations(),
            threads: world.threads.len() as u32,
            contended_acquires: world.monitors.contended_acquires,
            thread_switches: world.thread_switches,
            faults: machine.fault_stats.clone(),
        }
    }
}

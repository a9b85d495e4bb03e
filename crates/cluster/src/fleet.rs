//! The deterministic discrete-event fleet simulator.
//!
//! ## How virtual time composes
//!
//! Each machine is the real single-machine simulator (`HeraJvm` over a
//! `CellMachine`): a job's service time *is* the wall-cycle makespan of
//! an actual VM run under that machine's fault plan. Because those runs
//! are deterministic, a job class only has to be executed once per
//! machine — the measured [`RunOutcome`] is the *reference* — and the
//! fleet layer can then replay millions of requests as pure integer
//! queueing arithmetic in fleet-virtual time. Real VM runs re-enter the
//! picture exactly where per-run state matters: a machine crash or a
//! live migration re-executes the affected job for real (doomed run →
//! checkpoints → adoption on the destination), and every adopted resume
//! is compared against the unmigrated reference — the bit-identity
//! proof runs *inside* the experiment, for every recovery and migration.
//!
//! ## Event loop invariants
//!
//! * Events are ordered by `(time, insertion seq)`; ties are impossible,
//!   so the schedule is a total order and the whole simulation is a pure
//!   function of the config.
//! * Completion events are guarded by a per-machine epoch; a crash or a
//!   migration bumps the epoch, so stale completions are dropped rather
//!   than resurrecting a dead machine's work.
//! * Every job a machine crash catches in flight (running or queued) is
//!   requeued through the balancing policy exactly once per crash.

use crate::policy::{BalancePolicy, MachineView};
use crate::resil::{self, Breaker, BreakerState, ResilConfig};
use crate::scope::{Scope, ScopeOutcome};
use crate::traffic::{self, Request};
use crate::{ClusterConfig, ClusterError, RebalConfig};
use hera_cell::FaultPlan;
use hera_core::{HeraJvm, RunEnd, RunOutcome, VmConfig, WorkerPool};
use hera_isa::Value;
use hera_rng::splitmix64;
use hera_trace::{nearest_rank, MetricsRegistry, SpanKind, StreamingPercentile};
use hera_workloads::Workload;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// Per-machine-seed salt for transient-fault plans.
const MACHINE_SEED_SALT: u64 = 0x6d61_6368_696e_6531;
/// Salt for rebalance-tick jitter draws.
const REBAL_SALT: u64 = 0x7265_6261_6c2d_7469; // "rebal-ti"

// ------------------------------------------------------------- profiling

/// One job class: a workload built at the experiment's scale.
struct ClassProfile {
    workload: Workload,
    program: hera_isa::Program,
    checksum: i32,
}

/// Everything measured once per experiment and shared, immutably, by
/// every replay of the trace (replays run side by side on the pool).
struct FleetProfile {
    classes: Vec<ClassProfile>,
    /// Per-machine fault plan (all-default when faults are disabled).
    plans: Vec<FaultPlan>,
    /// Per-machine SPE count (`ClusterConfig::shape_of`, resolved).
    shapes: Vec<u8>,
    /// `reference[class][machine]`: the uninterrupted run outcome under
    /// that machine's shape and fault plan. Machines sharing both hold
    /// `Arc` clones of one run.
    reference: Vec<Vec<Arc<RunOutcome>>>,
    /// `best_same_shape[class][machine]`: the best reference wall among
    /// machines of the same shape — the baseline the sustained-slowdown
    /// drain signal compares against (a 2-SPE machine is slower than a
    /// 6-SPE one by shape, not by sickness).
    best_same_shape: Vec<Vec<u64>>,
    /// Mix-weighted mean service time over classes and machines.
    mean_service: u64,
}

/// The VM configuration of a machine with `spes` SPEs running under
/// `plan`. Identical across same-shape machines except for the fault
/// plan, so cross-machine snapshot adoption is legal (the machine digest
/// zeroes the plan); cross-*shape* adoption goes through the reshaping
/// restore path in `hera-core` instead.
fn machine_vm_config(cfg: &ClusterConfig, plan: FaultPlan, spes: u8) -> VmConfig {
    let mut vm = VmConfig::pinned_spe(spes)
        .with_checkpoint_every(cfg.checkpoint_every)
        .with_faults(plan);
    vm.heap.size_bytes = cfg.heap_bytes;
    vm
}

fn vm_err(what: &str, e: impl std::fmt::Debug) -> ClusterError {
    ClusterError::msg(format!("{what}: {e:?}"))
}

/// The experiment's one host worker pool: reference-run cells and trace
/// replays both fan out on it. Sized to the host, capped at a reference
/// cell per class and machine (never fewer than the three policies);
/// `WorkerPool::new(0)` runs everything on the caller.
fn experiment_pool(cfg: &ClusterConfig) -> WorkerPool {
    let cells = Workload::ALL.len() * cfg.machines;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    WorkerPool::new(cpus.min(cells).saturating_sub(1))
}

fn build_profile(cfg: &ClusterConfig, pool: &WorkerPool) -> Result<FleetProfile, ClusterError> {
    let mut classes = Vec::new();
    for w in Workload::ALL {
        let (program, checksum) = w.build(cfg.threads, cfg.scale);
        classes.push(ClassProfile {
            workload: w,
            program,
            checksum,
        });
    }
    let mut plans: Vec<FaultPlan> = (0..cfg.machines)
        .map(|m| match cfg.fault_rates {
            Some((transfer, timeout, corrupt)) => {
                FaultPlan::seeded(splitmix64(cfg.seed ^ (MACHINE_SEED_SALT + m as u64)))
                    .with_mfc_faults(transfer, timeout, corrupt)
                    .expect("cluster fault rates validated by run_experiment")
            }
            None => FaultPlan::default(),
        })
        .collect();
    for &(m, factor, from_cycle) in &cfg.slowdowns {
        plans[m] = plans[m]
            .with_slowdown(factor, from_cycle)
            .expect("cluster slowdowns validated by run_experiment");
    }

    // Reference runs are keyed by (class, shape, fault plan): machines
    // sharing a shape and a plan replay bit-identically, so one VM run
    // serves them all — a uniform fleet costs exactly what it did before
    // shapes existed. Each unique cell is an independent whole-VM
    // execution, fanned out on the host worker pool.
    let shapes: Vec<u8> = (0..cfg.machines).map(|m| cfg.shape_of(m)).collect();
    let mut uniq: Vec<(u8, FaultPlan)> = Vec::new();
    let mut cell_of: Vec<usize> = Vec::with_capacity(plans.len());
    for m in 0..plans.len() {
        let key = (shapes[m], plans[m]);
        let idx = uniq.iter().position(|&k| k == key).unwrap_or_else(|| {
            uniq.push(key);
            uniq.len() - 1
        });
        cell_of.push(idx);
    }
    let outcomes = pool.map(classes.len() * uniq.len(), |i| {
        let class = &classes[i / uniq.len()];
        let (spes, plan) = uniq[i % uniq.len()];
        let vm = HeraJvm::new(class.program.clone(), machine_vm_config(cfg, plan, spes))
            .map_err(|e| vm_err("reference vm", e))?;
        let out = vm.run().map_err(|e| vm_err("reference run", e))?;
        if !out.is_clean() || out.result != Some(Value::I32(class.checksum)) {
            return Err(ClusterError::msg(format!(
                "reference run of {} produced {:?} (traps {:?}), expected checksum {}",
                class.workload.name(),
                out.result,
                out.traps,
                class.checksum
            )));
        }
        Ok(out)
    });
    let mut reference: Vec<Vec<Arc<RunOutcome>>> = Vec::new();
    let mut it = outcomes.into_iter();
    for _ in &classes {
        let mut per_cell = Vec::new();
        for _ in &uniq {
            per_cell.push(Arc::new(it.next().expect("one outcome per cell")?));
        }
        let per_machine = cell_of.iter().map(|&c| Arc::clone(&per_cell[c])).collect();
        reference.push(per_machine);
    }
    let best_same_shape: Vec<Vec<u64>> = reference
        .iter()
        .map(|per_machine| {
            (0..plans.len())
                .map(|m| {
                    (0..plans.len())
                        .filter(|&p| shapes[p] == shapes[m])
                        .map(|p| per_machine[p].stats.wall_cycles)
                        .min()
                        .unwrap_or(0)
                })
                .collect()
        })
        .collect();

    let mut weighted = 0u128;
    let mut weight = 0u128;
    for (c, per_machine) in reference.iter().enumerate() {
        let avg: u64 =
            per_machine.iter().map(|o| o.stats.wall_cycles).sum::<u64>() / per_machine.len() as u64;
        let w = cfg.mix[c] as u128;
        weighted += w * avg as u128;
        weight += w;
    }
    let mean_service = weighted.checked_div(weight).unwrap_or(0) as u64;
    Ok(FleetProfile {
        classes,
        plans,
        shapes,
        reference,
        best_same_shape,
        mean_service,
    })
}

// ---------------------------------------------------------------- events

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Ev {
    Arrive(usize),
    Done {
        machine: usize,
        epoch: u64,
    },
    Crash {
        machine: usize,
    },
    Migrate {
        machine: usize,
    },
    Recover {
        machine: usize,
    },
    /// Attempt wave `gen` of `job` hit its deadline (resil only).
    Timeout {
        job: usize,
        gen: u32,
    },
    /// Backoff elapsed: re-dispatch `job` as wave `gen` (resil only).
    Retry {
        job: usize,
        gen: u32,
    },
    /// Wave `gen` of `job` outlived its class's p95: consider a hedge
    /// (resil only).
    HedgeCheck {
        job: usize,
        gen: u32,
    },
    /// An open breaker's seeded probe: move to half-open (resil only).
    Probe {
        machine: usize,
    },
    /// Periodic seeded rebalance tick (rebal only): compare expected
    /// drain times across machines and move queued work off the worst.
    Rebalance,
}

// ------------------------------------------------------------------ jobs

/// Snapshot state a job carries between machines.
#[derive(Clone)]
struct Resume {
    bytes: Rc<Vec<u8>>,
    /// VM wall clock the snapshot resumes at.
    restored_wall: u64,
    /// SPE count of the machine whose run captured the snapshot; an
    /// adoption on a different shape goes through the reshaping restore
    /// path and is proven by replay determinism, not origin bit-identity.
    shape: u8,
}

/// Terminal state of a request. Without resilience only `Pending` and
/// `Completed` occur (every job eventually completes, however slowly).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    Pending,
    Completed,
    /// Refused by admission control or queue-cap overflow.
    Shed,
    /// Every retry wave hit its deadline.
    TimedOut,
}

struct Job {
    arrival: u64,
    class: usize,
    /// Machine the job first started executing on; its fault plan is the
    /// one the job's whole life replays (snapshots carry it along).
    origin: Option<usize>,
    resume: Option<Resume>,
    /// Times this job was requeued by a machine crash.
    requeues: u32,
    /// Pending migration record awaiting its adoption proof.
    pending_migration: Option<usize>,
    completed_at: Option<u64>,
    outcome: Outcome,
    /// Attempt-wave generation: bumped whenever the wave is cancelled
    /// (deadline, shed, completion), so stale wave events are dropped —
    /// the job-level analogue of the per-machine epoch.
    gen: u32,
    /// Fleet time the current wave was dispatched (hedge/deadline base).
    wave_start: u64,
    /// Retry waves consumed so far.
    retries: u32,
    /// Machines currently holding an attempt, as `(machine, is_hedge)`.
    /// At most two entries (primary + one hedge).
    placements: Vec<(usize, bool)>,
    /// The job has been adopted across shapes at least once: its run was
    /// reshaped mid-flight, so it can never again claim bit-identity to
    /// the origin-shape reference — every later adoption is proven by
    /// replay determinism instead.
    cross_shape: bool,
}

struct Running {
    job: usize,
    /// Fleet time at which VM cycles start advancing (post dispatch and
    /// snapshot transfer).
    exec_start: u64,
    /// VM wall clock at `exec_start` (0 fresh, `restored_wall` resumed).
    vm_base: u64,
}

struct Mach {
    up: bool,
    epoch: u64,
    queue: VecDeque<usize>,
    /// Sum of cost estimates of queued jobs (backlog for `LeastLoaded`).
    queued_cycles: u64,
    running: Option<Running>,
    /// Fleet time the current run completes (for backlog estimation).
    completes: u64,
}

// --------------------------------------------------------------- results

/// One machine crash as the fleet experienced it.
#[derive(Clone, Debug)]
pub struct CrashEvent {
    /// Crashed machine.
    pub machine: usize,
    /// Fleet-virtual time of the crash.
    pub at: u64,
    /// Jobs caught in flight (running + queued), each requeued once.
    pub in_flight: u64,
    /// Whether the running job resumed from a checkpoint (vs restarting).
    pub resumed_from_checkpoint: bool,
    /// Virtual cycles of lost (re-executed) work for the running job.
    pub reexec_cycles: u64,
}

/// One live migration as the fleet experienced it.
#[derive(Clone, Debug)]
pub struct MigrationEvent {
    /// Source machine.
    pub src: usize,
    /// Destination machine chosen by the balancing policy.
    pub dest: usize,
    /// Fleet-virtual time the migration was triggered.
    pub at: u64,
    /// Sealed snapshot size moved over the (virtual) wire.
    pub snapshot_bytes: u64,
    /// Cycles charged for the transfer (latency + bytes / rate).
    pub transfer_cycles: u64,
    /// Cycles re-executed on the destination (progress since the last
    /// checkpoint at capture time).
    pub reexec_cycles: u64,
    /// Whether the adopted resume was proven bit-identical to the
    /// unmigrated reference run.
    pub verified_identical: bool,
}

/// Everything one policy's replay of the trace produced.
pub struct PolicyOutcome {
    /// Policy name.
    pub policy: &'static str,
    /// Latency histograms and fleet counters.
    pub metrics: MetricsRegistry,
    /// Requests completed (should equal the trace length).
    pub completed: u64,
    /// Every machine crash, in time order.
    pub crash_events: Vec<CrashEvent>,
    /// Every live migration, in time order.
    pub migration_events: Vec<MigrationEvent>,
    /// Requeue count per job id, for jobs that were ever requeued.
    pub requeues: BTreeMap<usize, u32>,
    /// Exact end-to-end latency of every completed request, sorted
    /// ascending. The metrics histograms bucket by powers of two — fine
    /// for in-VM counters, too coarse to judge a 2x tail bound — so the
    /// resilience matrix computes its percentiles from these.
    pub latencies: Vec<u64>,
    /// The hera-scope recording (`ClusterConfig::scope`); `None` when
    /// scope is off. Kept out of `metrics` so scope-on reports render
    /// byte-identically to scope-off.
    pub scope: Option<ScopeOutcome>,
}

/// The full experiment result: one [`PolicyOutcome`] per policy plus any
/// bit-identity or bookkeeping failures (which make `figures -- cluster`
/// exit nonzero).
pub struct ClusterReport {
    /// The configuration header rendered into the report.
    pub header: String,
    /// One outcome per balancing policy, in a fixed order.
    pub outcomes: Vec<PolicyOutcome>,
    /// Human-readable proof failures; empty on a healthy run.
    pub failures: Vec<String>,
}

impl ClusterReport {
    /// Deterministic text rendering: same seed ⇒ identical string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header);
        for o in &self.outcomes {
            let _ = writeln!(out, "-- policy {} --", o.policy);
            let _ = writeln!(out, "completed {}", o.completed);
            // Log2-bucket estimates are upper bounds on the true
            // quantile; exact figures come from `latencies` / hera-scope.
            if let Some(h) = o.metrics.histogram("cluster.latency") {
                let _ = writeln!(
                    out,
                    "latency cycles: p50<={} p95<={} p99<={} mean={:.0} max={}",
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.mean(),
                    h.max
                );
            }
            for ev in &o.crash_events {
                let _ = writeln!(
                    out,
                    "crash machine {} at {}: in-flight {} requeued, {} (reexec {} cycles)",
                    ev.machine,
                    ev.at,
                    ev.in_flight,
                    if ev.resumed_from_checkpoint {
                        "resumed from checkpoint"
                    } else {
                        "restarted"
                    },
                    ev.reexec_cycles
                );
            }
            for ev in &o.migration_events {
                let _ = writeln!(
                    out,
                    "migration {} -> {} at {}: {} snapshot bytes, transfer {} cycles, \
                     reexec {} cycles, bit-identical: {}",
                    ev.src,
                    ev.dest,
                    ev.at,
                    ev.snapshot_bytes,
                    ev.transfer_cycles,
                    ev.reexec_cycles,
                    ev.verified_identical
                );
            }
            out.push_str(&o.metrics.render());
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out, "FAILURES ({}):", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(out, "  {f}");
            }
        }
        out
    }
}

// ------------------------------------------------------------- simulator

struct Sim<'a> {
    cfg: &'a ClusterConfig,
    profile: &'a FleetProfile,
    policy: Box<dyn BalancePolicy>,
    jobs: Vec<Job>,
    machines: Vec<Mach>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64, Ev)>>,
    seq: u64,
    /// Jobs waiting at the front-end because no machine is up.
    pending: VecDeque<usize>,
    metrics: MetricsRegistry,
    crash_events: Vec<CrashEvent>,
    migration_events: Vec<MigrationEvent>,
    failures: Vec<String>,
    /// Copy of `cfg.resil`; `None` disables every resilience path.
    resil: Option<ResilConfig>,
    /// Per-machine circuit breakers (idle unless `resil.breakers`).
    breakers: Vec<Breaker>,
    /// Exact nearest-rank p95 of the observed attempt latencies per class
    /// (dispatch → completion), read by the hedge trigger at every wave —
    /// the log2 metrics histograms overestimate by up to 2x, which is the
    /// difference between a hedge that beats a 4x straggler and one
    /// dispatched after the primary already finished.
    class_p95: Vec<StreamingPercentile>,
    /// Request-level tracing (`ClusterConfig::scope`); observation only,
    /// never charges virtual cycles or touches the event heap.
    scope: Option<Scope>,
    /// Copy of `cfg.rebal`; `None` disables the whole proactive layer.
    rebal: Option<RebalConfig>,
    /// Machines currently drained (reset when the breaker closes or the
    /// machine recovers from a crash) — structural once-per-episode
    /// hysteresis for the drain triggers.
    draining: Vec<bool>,
    /// Consecutive slow completions per machine (sustained-slowdown
    /// drain signal).
    slow_streak: Vec<u32>,
    /// Per-machine rebalance cooldown deadline (fleet-virtual time).
    rebal_quiet_until: Vec<u64>,
    /// Post-move cooldown in cycles (`cooldown_permille` of the span).
    rebal_cooldown: u64,
}

impl<'a> Sim<'a> {
    fn push(&mut self, time: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(std::cmp::Reverse((time, self.seq, ev)));
    }

    fn ref_outcome(&self, job: usize, fallback_machine: usize) -> &Arc<RunOutcome> {
        let j = &self.jobs[job];
        &self.profile.reference[j.class][j.origin.unwrap_or(fallback_machine)]
    }

    fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.cfg.transfer_latency_cycles + bytes / self.cfg.transfer_bytes_per_cycle.max(1)
    }

    /// Estimated cost of `job` if placed on `machine` now: dispatch
    /// overhead, plus snapshot transfer and remaining cycles when
    /// resuming, or the full service time when fresh.
    fn estimate(&self, job: usize, machine: usize) -> u64 {
        let j = &self.jobs[job];
        match &j.resume {
            Some(r) => {
                let wall = self.ref_outcome(job, machine).stats.wall_cycles;
                self.cfg.dispatch_cycles
                    + self.transfer_cycles(r.bytes.len() as u64)
                    + wall.saturating_sub(r.restored_wall)
            }
            None => {
                self.cfg.dispatch_cycles
                    + self.profile.reference[j.class][machine].stats.wall_cycles
            }
        }
    }

    /// Whether placement should route around machine `m` entirely.
    fn breaker_open(&self, m: usize) -> bool {
        matches!(self.resil, Some(r) if r.breakers) && self.breakers[m].is_open()
    }

    /// Advertised capacity of machine `m` in per-mille of a healthy
    /// machine. Only computed when health-weighted balancing is on
    /// (`resil.breakers`); otherwise every machine advertises 1000 and
    /// the policies behave exactly as before.
    fn capacity_permille(&self, m: usize) -> u64 {
        let Some(r) = self.resil else { return 1000 };
        if !r.breakers {
            return 1000;
        }
        let plan = &self.profile.plans[m];
        let factor = if plan.slowdown_active() {
            plan.slowdown_factor
        } else {
            1
        };
        resil::advertised_capacity_permille(
            factor,
            self.breakers[m].state == BreakerState::HalfOpen,
        )
    }

    fn view_of(&self, m: usize, now: u64) -> MachineView {
        let mach = &self.machines[m];
        MachineView {
            machine: m,
            queue_len: mach.queue.len(),
            running: mach.running.is_some(),
            backlog_cycles: mach.queued_cycles
                + if mach.running.is_some() {
                    mach.completes.saturating_sub(now)
                } else {
                    0
                },
            capacity_permille: self.capacity_permille(m),
        }
    }

    fn views(&self, now: u64, exclude: &[usize]) -> Vec<MachineView> {
        let up = |&(m, mach): &(usize, &Mach)| mach.up && !exclude.contains(&m);
        let v: Vec<MachineView> = self
            .machines
            .iter()
            .enumerate()
            .filter(up)
            .filter(|&(m, _)| !self.breaker_open(m))
            .map(|(m, _)| self.view_of(m, now))
            .collect();
        if !v.is_empty() {
            return v;
        }
        // Breakers must never black-hole the fleet: when every up
        // machine is open, degrade to routing among all of them.
        self.machines
            .iter()
            .enumerate()
            .filter(up)
            .map(|(m, _)| self.view_of(m, now))
            .collect()
    }

    /// Route `job` through the balancing policy (or hold it at the
    /// front-end if the whole fleet is down).
    fn dispatch(&mut self, job: usize, now: u64) -> Result<(), ClusterError> {
        self.dispatch_ex(job, now, &[], false)
    }

    /// Dispatch with machine exclusions (`hedge` placements avoid the
    /// machines already holding an attempt). Hedge dispatches that find
    /// no eligible machine or a full queue are silently skipped — the
    /// primary attempt is still live.
    fn dispatch_ex(
        &mut self,
        job: usize,
        now: u64,
        exclude: &[usize],
        hedge: bool,
    ) -> Result<(), ClusterError> {
        if matches!(self.resil, Some(r) if r.breakers) {
            // Placements routed around an open breaker, counted per
            // dispatch decision (satellite of the breaker event work:
            // a tripped machine's exclusion is externally visible).
            let rejected = (0..self.machines.len())
                .filter(|&m| {
                    self.machines[m].up && !exclude.contains(&m) && self.breakers[m].is_open()
                })
                .count() as u64;
            if rejected > 0 {
                self.metrics.add("resil.breaker.rejections", rejected);
            }
        }
        let views = self.views(now, exclude);
        if views.is_empty() {
            if hedge {
                self.metrics.add("resil.hedge.skipped_no_dest", 1);
                if let Some(sc) = self.scope.as_mut() {
                    sc.clear_flow(job);
                }
                return Ok(());
            }
            self.pending.push_back(job);
            self.metrics.add("cluster.frontend.held", 1);
            return Ok(());
        }
        if !hedge {
            if let Some(r) = self.resil {
                if r.shedding {
                    // Admission control: refuse work whose *best-case*
                    // completion estimate already blows the deadline —
                    // it would only time out after consuming capacity.
                    let best = views
                        .iter()
                        .map(|v| v.backlog_cycles + self.estimate(job, v.machine))
                        .min()
                        .expect("views is non-empty");
                    if best > r.deadline_cycles {
                        self.shed(job, now, "resil.shed.admission");
                        return Ok(());
                    }
                }
            }
        }
        let m = self.policy.pick(&views);
        if self.machines[m].queue.len() >= self.cfg.queue_cap {
            if hedge {
                self.metrics.add("resil.hedge.skipped_full", 1);
                if let Some(sc) = self.scope.as_mut() {
                    sc.clear_flow(job);
                }
                return Ok(());
            }
            self.shed(job, now, "cluster.shed.overflow");
            return Ok(());
        }
        self.jobs[job].placements.push((m, hedge));
        if hedge {
            self.metrics.add("resil.hedges", 1);
        }
        self.enqueue(m, job, now)
    }

    /// Drop `job` through the shed path: graceful refusal, reported —
    /// never a silent loss.
    fn shed(&mut self, job: usize, now: u64, why: &str) {
        let j = &mut self.jobs[job];
        debug_assert!(j.outcome == Outcome::Pending, "shed a resolved job");
        j.outcome = Outcome::Shed;
        j.gen += 1; // invalidate the wave's pending events
        self.metrics.add("cluster.shed", 1);
        self.metrics.add(why, 1);
        if let Some(sc) = self.scope.as_mut() {
            sc.on_shed(job, now);
        }
    }

    /// Start a new attempt wave for `job`: arm its deadline and (when
    /// hedging is on and the class has enough history) its hedge check.
    fn begin_wave(&mut self, job: usize, now: u64) {
        let Some(r) = self.resil else { return };
        let gen = self.jobs[job].gen;
        self.jobs[job].wave_start = now;
        self.push(now + r.deadline_cycles, Ev::Timeout { job, gen });
        if r.hedging {
            let p95 = &self.class_p95[self.jobs[job].class];
            if p95.len() as u64 >= r.hedge_min_samples {
                self.push(now + p95.value().max(1), Ev::HedgeCheck { job, gen });
            }
        }
    }

    /// Remove `job`'s placement on machine `m` from the bookkeeping
    /// (the attempt itself has already been taken off the machine).
    fn remove_placement(&mut self, m: usize, job: usize) {
        self.jobs[job].placements.retain(|&(pm, _)| pm != m);
    }

    /// Cancel `job`'s attempt on machine `m`: pull it out of the queue,
    /// or — if it is the running job — bump the machine epoch so the
    /// pending completion goes stale (the same mechanism that guards
    /// crashes and migrations) and start the next queued job.
    fn cancel_attempt(&mut self, m: usize, job: usize, now: u64) -> Result<(), ClusterError> {
        if let Some(sc) = self.scope.as_mut() {
            sc.on_cancel(m, job, now);
        }
        if let Some(run) = &self.machines[m].running {
            if run.job == job {
                let wasted = now.saturating_sub(run.exec_start);
                self.metrics.record("resil.cancelled_cycles", wasted);
                self.machines[m].running = None;
                self.machines[m].epoch += 1;
                self.machines[m].completes = 0;
                return self.try_start(m, now);
            }
        }
        if let Some(pos) = self.machines[m].queue.iter().position(|&q| q == job) {
            self.machines[m].queue.remove(pos);
            let est = self.estimate(job, m);
            self.machines[m].queued_cycles = self.machines[m].queued_cycles.saturating_sub(est);
        }
        Ok(())
    }

    fn enqueue(&mut self, m: usize, job: usize, now: u64) -> Result<(), ClusterError> {
        if let Some(sc) = self.scope.as_mut() {
            let hedge = self.jobs[job]
                .placements
                .iter()
                .any(|&(pm, h)| pm == m && h);
            sc.on_enqueue(m, job, now, hedge);
        }
        let est = self.estimate(job, m);
        let mach = &mut self.machines[m];
        mach.queue.push_back(job);
        mach.queued_cycles += est;
        self.try_start(m, now)
    }

    /// Start the next queued job on `m` if it is idle and up. Resumed
    /// jobs run their adoption proof here: a real `adopt_bytes` run on
    /// this machine, compared against the unmigrated reference.
    fn try_start(&mut self, m: usize, now: u64) -> Result<(), ClusterError> {
        if !self.machines[m].up || self.machines[m].running.is_some() {
            return Ok(());
        }
        let Some(job) = self.machines[m].queue.pop_front() else {
            return Ok(());
        };
        let est = self.estimate(job, m);
        self.machines[m].queued_cycles = self.machines[m].queued_cycles.saturating_sub(est);

        let (exec_start, vm_base, exec_cycles) = match self.jobs[job].resume.clone() {
            Some(r) => {
                let wall = self.prove_adoption(job, m, &r)?;
                (
                    now + self.cfg.dispatch_cycles + self.transfer_cycles(r.bytes.len() as u64),
                    r.restored_wall,
                    wall.saturating_sub(r.restored_wall),
                )
            }
            None => {
                // A fresh start carries no snapshot, so nothing ties it
                // to a previous machine's fault plan: rebind the origin
                // to the machine it actually runs on. (Keying the
                // service time to a stale origin while doomed re-runs
                // use this machine's plan would diverge — a hedge or a
                // restart on a healthy machine must not inherit a
                // straggler's stretch, and vice versa.)
                self.jobs[job].origin = Some(m);
                (
                    now + self.cfg.dispatch_cycles,
                    0,
                    self.ref_outcome(job, m).stats.wall_cycles,
                )
            }
        };
        let completes = exec_start + exec_cycles;
        let epoch = self.machines[m].epoch;
        if let Some(sc) = self.scope.as_mut() {
            let hedge = self.jobs[job]
                .placements
                .iter()
                .any(|&(pm, h)| pm == m && h);
            let transfer = exec_start
                .saturating_sub(now)
                .saturating_sub(self.cfg.dispatch_cycles);
            sc.on_start(m, job, now, exec_start, hedge, transfer);
        }
        self.machines[m].running = Some(Running {
            job,
            exec_start,
            vm_base,
        });
        self.machines[m].completes = completes;
        self.push(completes, Ev::Done { machine: m, epoch });
        Ok(())
    }

    /// The adoption proof: adopt the job's snapshot on machine `m`
    /// (whose own fault plan may differ from the origin's) and prove the
    /// run correct. Same-shape adoptions must match the unmigrated
    /// reference bit-for-bit. A cross-shape adoption legitimately
    /// diverges — threads homed on SPEs the destination lacks drain to
    /// the PPE, changing the wall clock and heap layout — so its proof
    /// is replay determinism instead: the snapshot is adopted *twice*
    /// and the two runs must agree exactly, and the result must still be
    /// the class checksum with no traps. Returns the proven run's wall
    /// cycles (the reference wall for same-shape, the reshaped run's own
    /// wall for cross-shape), which prices the job's remaining service.
    fn prove_adoption(&mut self, job: usize, m: usize, r: &Resume) -> Result<u64, ClusterError> {
        let class = self.jobs[job].class;
        let cross = r.shape != self.profile.shapes[m] || self.jobs[job].cross_shape;
        let program = self.profile.classes[class].program.clone();
        let vm_cfg = machine_vm_config(self.cfg, self.profile.plans[m], self.profile.shapes[m]);
        let vm = HeraJvm::new(program.clone(), vm_cfg).map_err(|e| vm_err("adoption vm", e))?;
        let out = vm
            .adopt_bytes(&r.bytes)
            .map_err(|e| vm_err("adoption run", e))?;
        let wall = out.stats.wall_cycles;
        let mut ok = true;
        if cross {
            let vm2 = HeraJvm::new(program, vm_cfg).map_err(|e| vm_err("adoption vm", e))?;
            let out2 = vm2
                .adopt_bytes(&r.bytes)
                .map_err(|e| vm_err("adoption replay", e))?;
            let mut check = |what: &str, same: bool| {
                if !same {
                    ok = false;
                    self.failures.push(format!(
                        "job {job} cross-shape adopted on machine {m}: {what} diverged between \
                         two replays of the same snapshot"
                    ));
                }
            };
            check("result", out.result == out2.result);
            check("traps", out.traps == out2.traps);
            check("output", out.output == out2.output);
            check("final heap image", out.heap_digest == out2.heap_digest);
            check(
                "wall cycles",
                out.stats.wall_cycles == out2.stats.wall_cycles,
            );
            let checksum = self.profile.classes[class].checksum;
            if !out.is_clean() || out.result != Some(Value::I32(checksum)) {
                ok = false;
                self.failures.push(format!(
                    "job {job} cross-shape adopted on machine {m}: produced {:?} (traps {:?}), \
                     expected checksum {checksum}",
                    out.result, out.traps
                ));
            }
            self.jobs[job].cross_shape = true;
            self.metrics.add("cluster.adoption.cross_shape", 1);
        } else {
            let reference = Arc::clone(self.ref_outcome(job, m));
            let mut check = |what: &str, same: bool| {
                if !same {
                    ok = false;
                    self.failures.push(format!(
                        "job {job} adopted on machine {m}: {what} diverged from the unmigrated run"
                    ));
                }
            };
            check("result", out.result == reference.result);
            check("traps", out.traps == reference.traps);
            check("output", out.output == reference.output);
            check("final heap image", out.heap_digest == reference.heap_digest);
            check(
                "wall cycles",
                out.stats.wall_cycles == reference.stats.wall_cycles,
            );
        }
        if let Some(idx) = self.jobs[job].pending_migration.take() {
            self.migration_events[idx].verified_identical = ok;
        }
        self.metrics.add("cluster.adoption.proofs", 1);
        Ok(wall)
    }

    fn complete(&mut self, job: usize, m: usize, now: u64) -> Result<(), ClusterError> {
        // First completion wins: cancel any losing attempt elsewhere.
        let mut was_hedge = false;
        if let Some(pos) = self.jobs[job]
            .placements
            .iter()
            .position(|&(pm, _)| pm == m)
        {
            was_hedge = self.jobs[job].placements.remove(pos).1;
        }
        let losers = std::mem::take(&mut self.jobs[job].placements);
        for (lm, _) in losers {
            self.cancel_attempt(lm, job, now)?;
            self.metrics.add("resil.hedge.losers_cancelled", 1);
        }
        let j = &mut self.jobs[job];
        debug_assert!(j.completed_at.is_none(), "job completed twice");
        j.completed_at = Some(now);
        j.outcome = Outcome::Completed;
        j.gen += 1; // invalidate the wave's pending timeout/hedge events
        let latency = now - j.arrival;
        let wave_latency = now.saturating_sub(j.wave_start);
        let class = j.class;
        let name = self.profile.classes[class].workload.name();
        self.metrics.record("cluster.latency", latency);
        self.metrics
            .record(&format!("cluster.latency.{name}"), latency);
        self.metrics.add("cluster.completed", 1);
        if let Some(sc) = self.scope.as_mut() {
            sc.on_complete(job, m, now);
        }
        if let Some(r) = self.resil {
            self.class_p95[class].record(wave_latency);
            if was_hedge {
                self.metrics.add("resil.hedge.wins", 1);
            }
            if latency <= r.slo_cycles {
                self.metrics.add("resil.slo_ok", 1);
            }
            if r.breakers && self.breakers[m].on_success() {
                self.metrics.add("resil.breaker.closes", 1);
                if let Some(sc) = self.scope.as_mut() {
                    sc.on_breaker(m, SpanKind::BreakerClosed, now);
                }
                // A closed breaker ends the drain episode: the machine
                // may be drained again if it sickens again.
                self.draining[m] = false;
                self.slow_streak[m] = 0;
            }
        }
        self.observe_slowness(class, m, now)?;
        Ok(())
    }

    /// Sustained-slowdown health signal: a completion on `m` counts as
    /// "slow" when the machine's reference wall for the class is at
    /// least `slow_factor_permille` of the best same-shape peer's (shape
    /// differences are expected, sickness is not). `slow_after`
    /// consecutive slow completions trigger a proactive drain.
    fn observe_slowness(&mut self, class: usize, m: usize, now: u64) -> Result<(), ClusterError> {
        let Some(rb) = self.rebal else { return Ok(()) };
        if !rb.drain_on_slow || self.draining[m] {
            return Ok(());
        }
        let mine = self.profile.reference[class][m].stats.wall_cycles;
        let best = self.profile.best_same_shape[class][m];
        if mine.saturating_mul(1000) >= best.saturating_mul(rb.slow_factor_permille.max(1)) {
            self.slow_streak[m] += 1;
            if self.slow_streak[m] >= rb.slow_after.max(1) {
                self.slow_streak[m] = 0;
                self.metrics.add("rebal.drain.slow_triggers", 1);
                self.proactive_drain(m, now)?;
            }
        } else {
            self.slow_streak[m] = 0;
        }
        Ok(())
    }

    /// Re-execute the running job for real with a machine crash scheduled
    /// at absolute VM cycle `abs`: the doomed run yields the checkpoints
    /// that had streamed out before the machine died.
    fn doomed_run(&self, job: usize, m: usize, abs: u64) -> Result<RunEnd, ClusterError> {
        let j = &self.jobs[job];
        let plan = self.profile.plans[m].with_machine_crash(abs);
        let vm = HeraJvm::new(
            self.profile.classes[j.class].program.clone(),
            machine_vm_config(self.cfg, plan, self.profile.shapes[m]),
        )
        .map_err(|e| vm_err("doomed vm", e))?;
        match &j.resume {
            None => vm.run_until_crash().map_err(|e| vm_err("doomed run", e)),
            Some(r) => vm
                .adopt_until_crash(&r.bytes)
                .map_err(|e| vm_err("doomed adopted run", e)),
        }
    }

    /// Capture the freshest snapshot available for a job interrupted at
    /// absolute VM cycle `abs`: the last checkpoint of the doomed re-run
    /// (captured under shape `shape`, the interrupting machine's),
    /// falling back to the snapshot it was already resuming from.
    /// Returns the new resume state and the re-executed cycles, or
    /// `None` if the job has no snapshot at all (full restart).
    fn capture(
        &mut self,
        job: usize,
        checkpoints: Vec<hera_core::CheckpointBlob>,
        at_cycle: u64,
        shape: u8,
    ) -> Result<(Option<Resume>, u64), ClusterError> {
        if let Some(last) = checkpoints.into_iter().next_back() {
            let info = hera_core::snapshot::inspect(&last.bytes)
                .map_err(|e| vm_err("checkpoint inspect", e))?;
            let reexec = at_cycle.saturating_sub(info.wall_cycles);
            return Ok((
                Some(Resume {
                    bytes: Rc::new(last.bytes),
                    restored_wall: info.wall_cycles,
                    shape,
                }),
                reexec,
            ));
        }
        if let Some(old) = self.jobs[job].resume.clone() {
            let reexec = at_cycle.saturating_sub(old.restored_wall);
            return Ok((Some(old), reexec));
        }
        Ok((None, at_cycle))
    }

    fn handle_crash(&mut self, m: usize, now: u64) -> Result<(), ClusterError> {
        if !self.machines[m].up {
            self.metrics.add("cluster.crash.skipped_down", 1);
            return Ok(());
        }
        self.machines[m].up = false;
        self.machines[m].epoch += 1;
        if let Some(sc) = self.scope.as_mut() {
            sc.on_crash(m, now);
        }
        if let Some(r) = self.resil {
            if r.breakers {
                if let Some(at) = self.breakers[m].on_crash(&r, self.cfg.seed, m, now) {
                    self.metrics.add("resil.breaker.trips", 1);
                    if let Some(sc) = self.scope.as_mut() {
                        sc.on_breaker(m, SpanKind::BreakerOpen, now);
                    }
                    self.push(at, Ev::Probe { machine: m });
                }
            }
        }
        let mut requeue = Vec::new();
        let mut resumed_from_checkpoint = false;
        let mut reexec_total = 0u64;

        if let Some(run) = self.machines[m].running.take() {
            let job = run.job;
            self.remove_placement(m, job);
            if !self.jobs[job].placements.is_empty() {
                // A hedged twin is still live elsewhere: drop this
                // attempt instead of requeueing a duplicate.
                self.metrics.add("resil.attempt.dropped_by_crash", 1);
                if let Some(sc) = self.scope.as_mut() {
                    sc.on_interrupt(m, now);
                }
            } else if now <= run.exec_start {
                // Died during dispatch/transfer: nothing executed yet.
                if let Some(sc) = self.scope.as_mut() {
                    sc.on_interrupt(m, now);
                }
                requeue.push(job);
            } else {
                let abs = run.vm_base + (now - run.exec_start);
                match self.doomed_run(job, m, abs)? {
                    RunEnd::Completed(_) => {
                        // The crash point fell after the run's last
                        // safepoint: the job finished before the machine
                        // died. Complete it at the crash instant.
                        self.metrics.add("cluster.crash.finished_anyway", 1);
                        self.complete(job, m, now)?;
                    }
                    RunEnd::Crashed {
                        at_cycle,
                        checkpoints,
                    } => {
                        if let Some(sc) = self.scope.as_mut() {
                            sc.on_interrupt(m, now);
                        }
                        let shape = self.profile.shapes[m];
                        let (resume, reexec) = self.capture(job, checkpoints, at_cycle, shape)?;
                        resumed_from_checkpoint = resume.is_some();
                        if resume.is_none() {
                            self.metrics.add("cluster.crash.restarts", 1);
                        }
                        self.jobs[job].resume = resume;
                        reexec_total += reexec;
                        self.metrics.record("cluster.recovery.reexec", reexec);
                        requeue.push(job);
                    }
                }
            }
        }
        let queued: Vec<usize> = self.machines[m].queue.drain(..).collect();
        self.machines[m].queued_cycles = 0;
        for job in queued {
            self.remove_placement(m, job);
            if let Some(sc) = self.scope.as_mut() {
                sc.on_queue_interrupt(m, job, now);
            }
            if self.jobs[job].placements.is_empty() {
                requeue.push(job);
            } else {
                self.metrics.add("resil.attempt.dropped_by_crash", 1);
            }
        }

        let in_flight = requeue.len() as u64;
        for job in requeue {
            self.jobs[job].requeues += 1;
            self.metrics.add("cluster.crash.requeued", 1);
            if let Some(sc) = self.scope.as_mut() {
                sc.on_requeue(job, m, now);
            }
            self.dispatch(job, now)?;
        }
        self.push(now + self.cfg.recovery_cycles, Ev::Recover { machine: m });
        self.metrics.add("cluster.crashes", 1);
        self.crash_events.push(CrashEvent {
            machine: m,
            at: now,
            in_flight,
            resumed_from_checkpoint,
            reexec_cycles: reexec_total,
        });
        Ok(())
    }

    fn handle_migrate(&mut self, m: usize, now: u64) -> Result<(), ClusterError> {
        self.migrate_off(m, now, false).map(|_| ())
    }

    /// Live-migrate the job running on `m` to a policy-chosen peer.
    /// `drain` marks a proactive-drain migration: the causality is
    /// recorded as a drain (skip counters under `rebal.drain.*`, a
    /// [`hera_trace::FlowKind::Drain`] arrow, `rebal.drains` counted)
    /// while the virtual-time charges stay exactly those of a scheduled
    /// migration. Returns whether a migration was actually started.
    fn migrate_off(&mut self, m: usize, now: u64, drain: bool) -> Result<bool, ClusterError> {
        let skip = |s: &mut Self, what: &str| {
            let pre = if drain {
                "rebal.drain"
            } else {
                "cluster.migration"
            };
            s.metrics.add(&format!("{pre}.{what}"), 1);
        };
        if !self.machines[m].up || self.machines[m].running.is_none() {
            skip(self, "skipped_idle");
            return Ok(false);
        }
        let views = self.views(now, &[m]);
        if views.is_empty() {
            skip(self, "skipped_no_dest");
            return Ok(false);
        }
        let run = self.machines[m].running.as_ref().expect("checked above");
        let (job, exec_start, vm_base) = (run.job, run.exec_start, run.vm_base);
        if self.jobs[job].placements.len() > 1 {
            // A hedged job already runs in two places; moving one of the
            // twins buys nothing and complicates cancellation.
            skip(self, "skipped_hedged");
            return Ok(false);
        }
        if now <= exec_start {
            skip(self, "skipped_not_started");
            return Ok(false);
        }
        let abs = vm_base + (now - exec_start);
        match self.doomed_run(job, m, abs)? {
            RunEnd::Completed(_) => {
                // Too close to the finish line to capture a safepoint:
                // let it complete in place.
                skip(self, "skipped_late");
                Ok(false)
            }
            RunEnd::Crashed {
                at_cycle,
                checkpoints,
            } => {
                let shape = self.profile.shapes[m];
                let (resume, reexec) = self.capture(job, checkpoints, at_cycle, shape)?;
                let Some(resume) = resume else {
                    skip(self, "skipped_no_snapshot");
                    return Ok(false);
                };
                // Detach from the source; its pending Done goes stale.
                self.machines[m].running = None;
                self.machines[m].epoch += 1;
                self.remove_placement(m, job);
                let dest = self.policy.pick(&views);
                self.jobs[job].placements.push((dest, false));
                let bytes = resume.bytes.len() as u64;
                let transfer = self.transfer_cycles(bytes);
                if let Some(sc) = self.scope.as_mut() {
                    sc.on_migrate(m, dest, job, now, (bytes, transfer, reexec), drain);
                }
                self.jobs[job].resume = Some(resume);
                self.jobs[job].pending_migration = Some(self.migration_events.len());
                self.migration_events.push(MigrationEvent {
                    src: m,
                    dest,
                    at: now,
                    snapshot_bytes: bytes,
                    transfer_cycles: transfer,
                    reexec_cycles: reexec,
                    verified_identical: false,
                });
                self.metrics.add("cluster.migrations", 1);
                self.metrics.record("cluster.migration.transfer", transfer);
                self.metrics.record("cluster.migration.reexec", reexec);
                if drain {
                    self.metrics.add("rebal.drains", 1);
                    self.metrics.add("rebal.drain.migrations", 1);
                }
                self.enqueue(dest, job, now)?;
                self.try_start(m, now)?;
                Ok(true)
            }
        }
    }

    /// Proactively drain machine `m`: requeue its queued jobs onto the
    /// healthiest peers immediately and live-migrate the in-flight job,
    /// instead of letting every resident request discover the sickness
    /// one timeout at a time. Bounded by `max_concurrent_drains`; a
    /// machine drains at most once per episode (the flag resets when its
    /// breaker closes or it recovers from a crash), so drain storms are
    /// structurally impossible.
    fn proactive_drain(&mut self, m: usize, now: u64) -> Result<(), ClusterError> {
        let Some(rb) = self.rebal else { return Ok(()) };
        if self.draining[m] || !self.machines[m].up {
            return Ok(());
        }
        if self.draining.iter().filter(|&&d| d).count() >= rb.max_concurrent_drains.max(1) {
            self.metrics.add("rebal.drain.skipped_concurrent", 1);
            return Ok(());
        }
        self.draining[m] = true;
        self.metrics.add("rebal.drain.events", 1);
        // Queued jobs first: requeue them through the policy (which sees
        // breaker state and advertised capacity, so they land on the
        // healthiest peers). Hedged twins just drop this attempt.
        let queued: Vec<usize> = self.machines[m].queue.drain(..).collect();
        self.machines[m].queued_cycles = 0;
        let mut moved = 0u64;
        for job in queued {
            self.remove_placement(m, job);
            if self.jobs[job].placements.is_empty() {
                self.metrics.add("rebal.drains", 1);
                moved += 1;
                if let Some(sc) = self.scope.as_mut() {
                    sc.on_drain(m, job, now);
                }
                self.dispatch_ex(job, now, &[m], false)?;
            } else {
                self.metrics.add("rebal.drain.dropped_hedged", 1);
                if let Some(sc) = self.scope.as_mut() {
                    sc.on_queue_interrupt(m, job, now);
                }
            }
        }
        // The in-flight job live-migrates through the standard
        // machinery, paying the usual transfer + re-execution charges.
        let migrated = self.migrate_off(m, now, true)?;
        if moved == 0 && !migrated {
            // The episode moved nothing (the machine was idle, or every
            // resident was a hedged twin): release the latch so a later
            // trigger can catch a real queue. Re-arming still costs
            // `slow_after` further slow completions, so this cannot
            // thrash.
            self.draining[m] = false;
            self.metrics.add("rebal.drain.empty_episodes", 1);
        }
        Ok(())
    }

    /// One periodic rebalance tick: compare expected drain times
    /// `(queued + running) / capacity` across up machines and move
    /// queued jobs from the worst to the best while the skew exceeds the
    /// threshold. Movers and receivers then sit out `rebal_cooldown`
    /// cycles, so a job can never ping-pong between two machines.
    fn handle_rebalance(&mut self, now: u64) -> Result<(), ClusterError> {
        let Some(rb) = self.rebal else { return Ok(()) };
        self.metrics.add("rebal.ticks", 1);
        for _ in 0..rb.max_moves_per_event.max(1) {
            let mut worst: Option<(usize, u64)> = None;
            let mut best: Option<(usize, u64)> = None;
            for m in 0..self.machines.len() {
                if !self.machines[m].up || now < self.rebal_quiet_until[m] {
                    continue;
                }
                let mach = &self.machines[m];
                let backlog = mach.queued_cycles
                    + if mach.running.is_some() {
                        mach.completes.saturating_sub(now)
                    } else {
                        0
                    };
                let e = backlog.saturating_mul(1000) / self.capacity_permille(m);
                // A source needs a movable queued job; ties keep the
                // lowest machine index on both sides (determinism).
                let movable = mach.queue.iter().any(|&j| {
                    self.jobs[j].placements.len() == 1 && self.jobs[j].pending_migration.is_none()
                });
                if movable && worst.is_none_or(|(_, we)| e > we) {
                    worst = Some((m, e));
                }
                if !self.breaker_open(m) && best.is_none_or(|(_, be)| e < be) {
                    best = Some((m, e));
                }
            }
            let (Some((src, src_e)), Some((dst, dst_e))) = (worst, best) else {
                break;
            };
            if src == dst || src_e <= dst_e.saturating_mul(rb.skew_threshold_permille.max(1)) / 1000
            {
                break;
            }
            // Move the most recently queued movable job: the head of the
            // queue is about to run here anyway.
            let pos = self.machines[src]
                .queue
                .iter()
                .rposition(|&j| {
                    self.jobs[j].placements.len() == 1 && self.jobs[j].pending_migration.is_none()
                })
                .expect("source had a movable job");
            let job = self.machines[src].queue.remove(pos).expect("valid index");
            let est = self.estimate(job, src);
            self.machines[src].queued_cycles = self.machines[src].queued_cycles.saturating_sub(est);
            self.remove_placement(src, job);
            self.metrics.add("rebal.moves", 1);
            self.metrics.add("rebal.drains", 1);
            if let Some(sc) = self.scope.as_mut() {
                sc.on_drain(src, job, now);
            }
            self.jobs[job].placements.push((dst, false));
            self.enqueue(dst, job, now)?;
            self.rebal_quiet_until[src] = now + self.rebal_cooldown;
            self.rebal_quiet_until[dst] = now + self.rebal_cooldown;
        }
        Ok(())
    }

    /// Back-fill any sampler ticks due before the event at `now` runs.
    /// The machine state is read *before* the event mutates anything,
    /// which is exactly the state at every missed tick (state only
    /// changes when events are processed).
    fn scope_sample(&mut self, now: u64) {
        let Some(sc) = self.scope.as_mut() else {
            return;
        };
        if !sc.sample_due(now) {
            return;
        }
        let views: Vec<(u64, u64, u64)> = self
            .machines
            .iter()
            .zip(&self.breakers)
            .map(|(mach, b)| {
                let state = match b.state {
                    BreakerState::Closed => 0,
                    BreakerState::HalfOpen => 1,
                    BreakerState::Open { .. } => 2,
                };
                (
                    mach.queue.len() as u64,
                    mach.running.is_some() as u64,
                    state,
                )
            })
            .collect();
        sc.sample_until(now, &views);
    }

    fn run(&mut self, trace: &[Request]) -> Result<(), ClusterError> {
        if !trace.is_empty() {
            self.push(trace[0].arrival, Ev::Arrive(0));
        }
        while let Some(std::cmp::Reverse((now, _, ev))) = self.heap.pop() {
            self.scope_sample(now);
            match ev {
                Ev::Arrive(i) => {
                    if i + 1 < trace.len() {
                        self.push(trace[i + 1].arrival, Ev::Arrive(i + 1));
                    }
                    self.metrics.add("cluster.requests", 1);
                    if let Some(sc) = self.scope.as_mut() {
                        sc.on_arrival(i, trace[i].class, now);
                    }
                    self.begin_wave(i, now);
                    self.dispatch(i, now)?;
                }
                Ev::Done { machine, epoch } => {
                    if !self.machines[machine].up || self.machines[machine].epoch != epoch {
                        continue; // stale: the machine crashed or migrated the job away
                    }
                    let Some(run) = self.machines[machine].running.take() else {
                        continue;
                    };
                    self.complete(run.job, machine, now)?;
                    self.try_start(machine, now)?;
                }
                Ev::Crash { machine } => self.handle_crash(machine, now)?,
                Ev::Migrate { machine } => self.handle_migrate(machine, now)?,
                Ev::Recover { machine } => {
                    self.machines[machine].up = true;
                    // A recovered machine starts a fresh drain episode.
                    self.draining[machine] = false;
                    self.slow_streak[machine] = 0;
                    self.metrics.add("cluster.recoveries", 1);
                    if let Some(sc) = self.scope.as_mut() {
                        sc.on_recover(machine, now);
                    }
                    while let Some(job) = self.pending.pop_front() {
                        self.dispatch(job, now)?;
                    }
                    self.try_start(machine, now)?;
                }
                Ev::Timeout { job, gen } => {
                    if self.jobs[job].gen != gen {
                        continue; // the wave already resolved
                    }
                    let r = self
                        .resil
                        .expect("timeouts are only scheduled with resil on");
                    self.metrics.add("resil.timeouts", 1);
                    if let Some(sc) = self.scope.as_mut() {
                        sc.on_wave_timeout(job, now);
                    }
                    self.jobs[job].gen += 1;
                    let placements = std::mem::take(&mut self.jobs[job].placements);
                    for &(m, _) in &placements {
                        self.cancel_attempt(m, job, now)?;
                        if r.breakers {
                            let was_half = self.breakers[m].state == BreakerState::HalfOpen;
                            if let Some(at) = self.breakers[m].on_timeout(&r, self.cfg.seed, m, now)
                            {
                                self.metrics.add("resil.breaker.trips", 1);
                                if was_half {
                                    // The half-open trial was rejected:
                                    // straight back to open.
                                    self.metrics.add("resil.breaker.halfopen_rejections", 1);
                                }
                                if let Some(sc) = self.scope.as_mut() {
                                    sc.on_breaker(m, SpanKind::BreakerOpen, now);
                                }
                                self.push(at, Ev::Probe { machine: m });
                                // Proactive degradation: don't wait for
                                // every resident request to time out —
                                // drain the machine now.
                                if self.rebal.is_some_and(|rb| rb.drain_on_break) {
                                    self.proactive_drain(m, now)?;
                                }
                            }
                        }
                    }
                    // A wave held at the front-end has no placements but
                    // still occupies the pending queue.
                    self.pending.retain(|&p| p != job);
                    if self.jobs[job].retries < r.max_retries {
                        self.jobs[job].retries += 1;
                        let backoff =
                            resil::backoff_cycles(&r, self.cfg.seed, job, self.jobs[job].retries);
                        self.metrics.add("resil.retries", 1);
                        self.metrics.record("resil.backoff", backoff);
                        let gen = self.jobs[job].gen;
                        self.push(now + backoff, Ev::Retry { job, gen });
                    } else {
                        self.jobs[job].outcome = Outcome::TimedOut;
                        self.metrics.add("resil.deadline_failures", 1);
                        if let Some(sc) = self.scope.as_mut() {
                            sc.on_timed_out(job, now);
                        }
                    }
                }
                Ev::Retry { job, gen } => {
                    if self.jobs[job].gen != gen {
                        continue;
                    }
                    if let Some(sc) = self.scope.as_mut() {
                        // Every scheduled retry fires (nothing can bump
                        // the gen of an undisputed wave in backoff), so
                        // counting here reconciles with `resil.retries`.
                        sc.on_retry_wave(job, now);
                    }
                    self.begin_wave(job, now);
                    self.dispatch(job, now)?;
                }
                Ev::HedgeCheck { job, gen } => {
                    if self.jobs[job].gen != gen {
                        continue; // completed, shed, or already retried
                    }
                    let j = &self.jobs[job];
                    // Hedge only a fresh single-placement attempt: jobs
                    // carrying snapshot state resume under their origin
                    // plan and must stay singular.
                    if j.placements.len() != 1
                        || j.resume.is_some()
                        || j.pending_migration.is_some()
                    {
                        continue;
                    }
                    let primary = j.placements[0].0;
                    if let Some(sc) = self.scope.as_mut() {
                        sc.on_hedge_armed(job, primary, now);
                    }
                    let exclude = [primary];
                    self.dispatch_ex(job, now, &exclude, true)?;
                }
                Ev::Probe { machine } => {
                    self.metrics.add("resil.breaker.probes", 1);
                    if self.breakers[machine].on_probe(now) {
                        self.metrics.add("resil.breaker.halfopens", 1);
                        if let Some(sc) = self.scope.as_mut() {
                            sc.on_breaker(machine, SpanKind::BreakerHalfOpen, now);
                        }
                    }
                }
                Ev::Rebalance => self.handle_rebalance(now)?,
            }
        }
        Ok(())
    }
}

/// Replay `trace` once under `cfg` and `policy`. Returns the outcome and
/// the proof and bookkeeping failures the replay reported.
fn run_policy(
    cfg: &ClusterConfig,
    profile: &FleetProfile,
    trace: &[Request],
    span: u64,
    policy: Box<dyn BalancePolicy>,
) -> Result<(PolicyOutcome, Vec<String>), ClusterError> {
    let name = policy.name();
    let jobs: Vec<Job> = trace
        .iter()
        .map(|r| Job {
            arrival: r.arrival,
            class: r.class,
            origin: None,
            resume: None,
            requeues: 0,
            pending_migration: None,
            completed_at: None,
            outcome: Outcome::Pending,
            gen: 0,
            wave_start: 0,
            retries: 0,
            placements: Vec::new(),
            cross_shape: false,
        })
        .collect();
    let machines: Vec<Mach> = (0..cfg.machines)
        .map(|_| Mach {
            up: true,
            epoch: 0,
            queue: VecDeque::new(),
            queued_cycles: 0,
            running: None,
            completes: 0,
        })
        .collect();
    let scope = cfg.scope.then(|| {
        Scope::new(
            cfg.machines,
            profile
                .classes
                .iter()
                .map(|c| c.workload.name().to_string())
                .collect(),
            span,
            trace.len(),
        )
    });
    let mut sim = Sim {
        cfg,
        profile,
        policy,
        jobs,
        machines,
        heap: BinaryHeap::new(),
        seq: 0,
        pending: VecDeque::new(),
        metrics: MetricsRegistry::default(),
        crash_events: Vec::new(),
        migration_events: Vec::new(),
        failures: Vec::new(),
        resil: cfg.resil,
        breakers: vec![Breaker::new(); cfg.machines],
        class_p95: vec![StreamingPercentile::new(950); profile.classes.len()],
        scope,
        rebal: cfg.rebal,
        draining: vec![false; cfg.machines],
        slow_streak: vec![0; cfg.machines],
        rebal_quiet_until: vec![0; cfg.machines],
        rebal_cooldown: cfg
            .rebal
            .map_or(0, |rb| span / 1000 * rb.cooldown_permille as u64),
    };
    // Faults and migrations are scheduled as per-mille points of the
    // trace's arrival span, so configs stay meaningful across scales.
    for &(machine, permille) in &cfg.crashes {
        let t = span / 1000 * permille as u64;
        sim.push(t, Ev::Crash { machine });
    }
    for &(machine, permille) in &cfg.migrations {
        let t = span / 1000 * permille as u64;
        sim.push(t, Ev::Migrate { machine });
    }
    // Rebalance ticks are laid out up front with seeded jitter so the
    // whole schedule is a pure function of the config.
    if let Some(rb) = cfg.rebal {
        if rb.rebalance_every_permille > 0 && span > 0 {
            let period = (span / 1000 * rb.rebalance_every_permille as u64).max(1);
            let mut k = 1u64;
            let mut t = period;
            while t <= span {
                let jitter = splitmix64(cfg.seed ^ REBAL_SALT.wrapping_add(k)) % (period / 8 + 1);
                sim.push(t + jitter, Ev::Rebalance);
                k += 1;
                t += period;
            }
        }
    }
    sim.run(trace)?;

    let mut requeues = BTreeMap::new();
    for (i, j) in sim.jobs.iter().enumerate() {
        if j.requeues > 0 {
            requeues.insert(i, j.requeues);
        }
        // Shed and timed-out jobs are *measured* outcomes (reported in
        // goodput), not bookkeeping failures; a Pending job at the end
        // of the event loop is a lost request — always a bug.
        if j.outcome == Outcome::Pending {
            sim.failures
                .push(format!("policy {name}: job {i} never completed"));
        }
    }
    if cfg.resil.is_some() {
        let completed = sim.metrics.counter("cluster.completed");
        sim.metrics.set(
            "resil.goodput_permille",
            completed * 1000 / (trace.len() as u64).max(1),
        );
    }
    if !sim.pending.is_empty() {
        sim.failures.push(format!(
            "policy {name}: {} jobs stuck at the front-end",
            sim.pending.len()
        ));
    }
    let scope = sim.scope.take().map(|sc| {
        sc.finish(
            &sim.metrics,
            trace.len() as u64,
            name,
            cfg.resil.map(|r| r.slo_cycles),
            &mut sim.failures,
        )
    });
    let mut latencies: Vec<u64> = sim
        .jobs
        .iter()
        .filter_map(|j| j.completed_at.map(|t| t.saturating_sub(j.arrival)))
        .collect();
    latencies.sort_unstable();
    let outcome = PolicyOutcome {
        policy: name,
        completed: sim.metrics.counter("cluster.completed"),
        metrics: sim.metrics,
        crash_events: sim.crash_events,
        migration_events: sim.migration_events,
        requeues,
        latencies,
        scope,
    };
    Ok((outcome, sim.failures))
}

/// One independent replay of the shared trace: a row of a matrix, or a
/// policy of the default experiment.
struct Replay<'a> {
    cfg: ClusterConfig,
    profile: &'a FleetProfile,
    policy: fn() -> Box<dyn BalancePolicy>,
    /// Whether the caller reads this replay's scope recording. One that
    /// is not read is dropped inside the replay, so no more recordings
    /// than pool threads are alive at once.
    keep_scope: bool,
}

fn jsq() -> Box<dyn BalancePolicy> {
    Box::new(crate::policy::JoinShortestQueue)
}

/// The policies the default experiment replays, in report order.
const POLICIES: [fn() -> Box<dyn BalancePolicy>; 3] = [
    || Box::new(crate::policy::RoundRobin::default()),
    jsq,
    || Box::new(crate::policy::LeastLoaded),
];

/// What a batch of replays produced: the outcomes in row order and the
/// rows' failures concatenated in row order.
type Replayed = (Vec<PolicyOutcome>, Vec<String>);

/// Run every replay on `pool`. The replays read one immutable profile
/// and trace and share nothing mutable, so each is the same pure function
/// of its inputs on any thread; collecting in row order makes the result
/// independent of the pool's size and scheduling.
fn replay_all(
    pool: &WorkerPool,
    trace: &[Request],
    span: u64,
    rows: &[Replay],
) -> Result<Replayed, ClusterError> {
    let replayed = pool.map(rows.len(), |i| {
        let row = &rows[i];
        let (mut outcome, failures) =
            run_policy(&row.cfg, row.profile, trace, span, (row.policy)())?;
        if !row.keep_scope {
            outcome.scope = None;
        }
        Ok((outcome, failures))
    });
    let (mut outcomes, mut failures) = (Vec::with_capacity(rows.len()), Vec::new());
    for row in replayed {
        let (outcome, mut row_failures) = row?;
        outcomes.push(outcome);
        failures.append(&mut row_failures);
    }
    Ok((outcomes, failures))
}

/// Reject configurations the simulator would silently mishandle.
fn validate(cfg: &ClusterConfig) -> Result<(), ClusterError> {
    if cfg.machines == 0 {
        return Err(ClusterError::msg("cluster needs at least one machine"));
    }
    if cfg.queue_cap == 0 {
        return Err(ClusterError::msg(
            "queue cap must be at least 1 (0 would shed everything)",
        ));
    }
    for &(m, _) in &cfg.crashes {
        if m >= cfg.machines {
            return Err(ClusterError::msg(format!(
                "machine {m} out of range for a {}-machine fleet",
                cfg.machines
            )));
        }
    }
    for (index, &(machine, permille)) in cfg.migrations.iter().enumerate() {
        if machine >= cfg.machines || permille > 1000 {
            return Err(ClusterError::InvalidMigration {
                index,
                machine,
                permille,
                machines: cfg.machines,
            });
        }
    }
    for (m, shape) in cfg.shapes.iter().enumerate() {
        if shape.spe_count == 0 || shape.spe_count > 8 {
            return Err(ClusterError::msg(format!(
                "machine {m} shape has {} SPEs (must be 1..=8)",
                shape.spe_count
            )));
        }
    }
    if let Some((a, b, c)) = cfg.fault_rates {
        for (knob, ppm) in [
            ("mfc_transfer", a),
            ("eib_timeout", b),
            ("ls_corruption", c),
        ] {
            if ppm > 1_000_000 {
                return Err(ClusterError::msg(format!(
                    "fault rate {knob} = {ppm} ppm exceeds 1_000_000"
                )));
            }
        }
    }
    for &(m, factor, _) in &cfg.slowdowns {
        if m >= cfg.machines {
            return Err(ClusterError::msg(format!(
                "slowdown machine {m} out of range for a {}-machine fleet",
                cfg.machines
            )));
        }
        if factor == 0 {
            return Err(ClusterError::msg(
                "slowdown factor 0 is meaningless (1 = no slowdown)",
            ));
        }
    }
    Ok(())
}

/// The experiment's request trace, paced so a fleet with
/// `mean_service` cycles per request runs at the target utilization.
/// Returns the mean inter-arrival time, the trace and its arrival span.
fn paced_trace(cfg: &ClusterConfig, mean_service: u64) -> (u64, Vec<Request>, u64) {
    let util = cfg.utilization_pct.clamp(1, 100) as u64;
    let mean_inter = (mean_service * 100 / util / cfg.machines.max(1) as u64).max(1);
    let trace = traffic::generate(cfg.seed, cfg.requests, mean_inter, cfg.arrival, &cfg.mix);
    let span = trace.last().map(|r| r.arrival).unwrap_or(0);
    (mean_inter, trace, span)
}

/// Run the full experiment: measure the fleet profile, generate the
/// trace, and replay it once per balancing policy (round-robin,
/// join-shortest-queue, least-loaded).
pub fn run_experiment(cfg: &ClusterConfig) -> Result<ClusterReport, ClusterError> {
    validate(cfg)?;
    let pool = experiment_pool(cfg);
    let profile = build_profile(cfg, &pool)?;
    let (mean_inter, trace, span) = paced_trace(cfg, profile.mean_service);

    let mut header = String::new();
    let _ = writeln!(
        header,
        "== hera-cluster: {} machines x {} SPEs, {} requests, seed {}, arrival {}, mix {:?} ==",
        cfg.machines,
        cfg.num_spes,
        cfg.requests,
        cfg.seed,
        cfg.arrival.label(),
        cfg.mix
    );
    let _ = writeln!(
        header,
        "mean service {} cycles, mean inter-arrival {} cycles (target utilization {}%), \
         trace span {} cycles",
        profile.mean_service, mean_inter, cfg.utilization_pct, span
    );
    for (c, class) in profile.classes.iter().enumerate() {
        let walls: Vec<u64> = profile.reference[c]
            .iter()
            .map(|o| o.stats.wall_cycles)
            .collect();
        let _ = writeln!(
            header,
            "class {}: service cycles per machine {:?}",
            class.workload.name(),
            walls
        );
    }
    if !cfg.shapes.is_empty() {
        let spes: Vec<u8> = (0..cfg.machines).map(|m| cfg.shape_of(m)).collect();
        let _ = writeln!(header, "shapes (SPEs per machine): {spes:?}");
    }
    if !cfg.slowdowns.is_empty() {
        let _ = writeln!(
            header,
            "stragglers (machine, factor, from_cycle): {:?}",
            cfg.slowdowns
        );
    }
    if let Some(rb) = &cfg.rebal {
        let _ =
            writeln!(
            header,
            "rebal: drain_on_break {} drain_on_slow {} rebalance_every {}permille skew {}permille",
            rb.drain_on_break, rb.drain_on_slow, rb.rebalance_every_permille,
            rb.skew_threshold_permille
        );
    }
    if let Some(r) = &cfg.resil {
        let _ = writeln!(
            header,
            "resil: deadline {} retries {} hedging {} breakers {} shedding {}",
            r.deadline_cycles, r.max_retries, r.hedging, r.breakers, r.shedding
        );
    }

    let rows = POLICIES.map(|policy| Replay {
        cfg: cfg.clone(),
        profile: &profile,
        policy,
        keep_scope: true,
    });
    let (mut outcomes, failures) = replay_all(&pool, &trace, span, &rows)?;
    for outcome in &mut outcomes {
        outcome
            .metrics
            .set("cluster.requeued_jobs", outcome.requeues.len() as u64);
    }
    Ok(ClusterReport {
        header,
        outcomes,
        failures,
    })
}

// ------------------------------------------------------ resilience matrix

/// A seeded crash storm: `count` crashes at machines and per-mille
/// points drawn deterministically from `seed`, inside
/// `[from_permille, to_permille)` of the trace span. Sorted so the
/// schedule renders stably in config dumps.
pub fn crash_storm(
    seed: u64,
    machines: usize,
    count: usize,
    from_permille: u32,
    to_permille: u32,
) -> Vec<(usize, u32)> {
    let mut rng = hera_rng::SplitMix64::new(seed ^ 0x6372_6173_682d_7374); // "crash-st"
    let span = to_permille.saturating_sub(from_permille).max(1) as u64;
    let mut storm: Vec<(usize, u32)> = (0..count)
        .map(|_| {
            let m = (rng.next_u64() % machines.max(1) as u64) as usize;
            let t = from_permille + (rng.next_u64() % span) as u32;
            (m, t)
        })
        .collect();
    storm.sort_unstable();
    storm
}

/// One row of the resilience matrix: a knob combination replayed over
/// the shared trace with join-shortest-queue.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    pub name: String,
    /// Exact nearest-rank latency percentiles over completed requests
    /// (computed from [`PolicyOutcome::latencies`], not the log2
    /// histogram estimate).
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub p999: u64,
    pub requests: u64,
    pub completed: u64,
    pub shed: u64,
    pub timeouts: u64,
    pub retries: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub breaker_trips: u64,
    /// Completions within the SLO; `None` when the row ran without
    /// resilience (no SLO is armed).
    pub slo_ok: Option<u64>,
}

impl MatrixRow {
    /// Requests completed per mille of requests offered.
    pub fn goodput_permille(&self) -> u64 {
        self.completed * 1000 / self.requests.max(1)
    }

    /// Requests completed within the SLO per mille of requests offered.
    pub fn slo_permille(&self) -> Option<u64> {
        self.slo_ok.map(|ok| ok * 1000 / self.requests.max(1))
    }
}

/// The `figures -- cluster-chaos` result: a fault-free baseline plus
/// every (± breakers, ± hedging, ± shedding) combination under one
/// straggler-and-crash-storm fault schedule. Same config ⇒ the rendered
/// report is byte-identical.
pub struct ChaosReport {
    pub header: String,
    pub rows: Vec<MatrixRow>,
    pub failures: Vec<String>,
    /// hera-scope recording of the last (all-knobs-on) row when
    /// `ClusterConfig::scope` is set; `None` otherwise. Not rendered —
    /// the report text is byte-identical with scope on or off.
    pub scope: Option<ScopeOutcome>,
}

impl ChaosReport {
    /// The fault-free baseline row.
    pub fn baseline(&self) -> &MatrixRow {
        &self.rows[0]
    }

    /// The all-knobs-on row.
    pub fn full_resil(&self) -> &MatrixRow {
        self.rows.last().expect("matrix always has rows")
    }

    /// The faults-on, resilience-off row.
    pub fn no_resil(&self) -> &MatrixRow {
        &self.rows[1]
    }

    /// Deterministic text rendering: same seed ⇒ identical string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header);
        let _ =
            writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>11} {:>11} {:>8} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
            "row", "p50", "p95", "p99", "p999", "goodput", "slo", "shed", "t/o", "retry", "hedge",
            "hwin", "trip"
        );
        for r in &self.rows {
            let slo = match r.slo_permille() {
                Some(p) => format!("{}.{}%", p / 10, p % 10),
                None => "-".into(),
            };
            let gp = r.goodput_permille();
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>10} {:>11} {:>11} {:>6}.{}% {:>6} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
                r.name,
                r.p50,
                r.p95,
                r.p99,
                r.p999,
                gp / 10,
                gp % 10,
                slo,
                r.shed,
                r.timeouts,
                r.retries,
                r.hedges,
                r.hedge_wins,
                r.breaker_trips
            );
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out, "FAILURES ({}):", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(out, "  {f}");
            }
        }
        out
    }
}

/// Replay a matrix's named rows through join-shortest-queue and summarise
/// each as a [`MatrixRow`]. Only the last row's scope recording is kept:
/// in both matrices the all-on replay is the one whose trace exercises
/// every causal edge (retries, hedges, requeues, breaker transitions,
/// drains).
fn replay_matrix(
    pool: &WorkerPool,
    trace: &[Request],
    span: u64,
    named: Vec<(String, ClusterConfig, &FleetProfile)>,
) -> Result<(Vec<MatrixRow>, Replayed), ClusterError> {
    let (count, mut names, mut rows) = (named.len(), Vec::new(), Vec::new());
    for (name, cfg, profile) in named {
        names.push(name);
        let keep_scope = rows.len() + 1 == count;
        rows.push(Replay {
            cfg,
            profile,
            policy: jsq,
            keep_scope,
        });
    }
    let replayed = replay_all(pool, trace, span, &rows)?;
    let matrix = names
        .into_iter()
        .zip(&rows)
        .zip(&replayed.0)
        .map(|((name, row), outcome)| {
            let m = &outcome.metrics;
            let lat = &outcome.latencies;
            MatrixRow {
                name,
                p50: nearest_rank(lat, 500),
                p95: nearest_rank(lat, 950),
                p99: nearest_rank(lat, 990),
                p999: nearest_rank(lat, 999),
                requests: trace.len() as u64,
                completed: outcome.completed,
                shed: m.counter("cluster.shed"),
                timeouts: m.counter("resil.timeouts"),
                retries: m.counter("resil.retries"),
                hedges: m.counter("resil.hedges"),
                hedge_wins: m.counter("resil.hedge.wins"),
                breaker_trips: m.counter("resil.breaker.trips"),
                slo_ok: row.cfg.resil.map(|_| m.counter("resil.slo_ok")),
            }
        })
        .collect();
    Ok((matrix, replayed))
}

/// Run the resilience matrix: a fault-free baseline, then the config's
/// straggler + crash-storm fault schedule under all eight
/// (± breakers, ± hedging, ± shedding) combinations. Any row with at
/// least one knob on also arms deadlines + retries; the all-off row is
/// the unprotected fleet. Every row replays the *same* trace (paced by
/// the healthy fleet's measured mean service time) through
/// join-shortest-queue, so the rows differ only in the knobs.
pub fn run_chaos_matrix(cfg: &ClusterConfig) -> Result<ChaosReport, ClusterError> {
    validate(cfg)?;
    let mut base_cfg = cfg.clone();
    base_cfg.slowdowns.clear();
    base_cfg.crashes.clear();
    base_cfg.migrations.clear();
    base_cfg.fault_rates = None;
    base_cfg.resil = None;
    let pool = experiment_pool(cfg);
    let base_profile = build_profile(&base_cfg, &pool)?;
    let chaos_profile = build_profile(cfg, &pool)?;

    let (mean_inter, trace, span) = paced_trace(cfg, base_profile.mean_service);

    // Knobs scale with the measured healthy service time, so the matrix
    // stays meaningful at any workload scale; an explicit `cfg.resil`
    // overrides the derivation.
    let resil_base = cfg.resil.unwrap_or(ResilConfig {
        deadline_cycles: base_profile.mean_service * 8,
        slo_cycles: base_profile.mean_service * 12,
        backoff_base_cycles: (base_profile.mean_service / 8).max(1),
        probe_base_cycles: base_profile.mean_service * 2,
        ..ResilConfig::default()
    });

    let mut header = String::new();
    let _ = writeln!(
        header,
        "== hera-resil chaos matrix: {} machines x {} SPEs, {} requests, seed {}, \
         stragglers {:?}, crashes {:?} ==",
        cfg.machines, cfg.num_spes, cfg.requests, cfg.seed, cfg.slowdowns, cfg.crashes
    );
    let _ = writeln!(
        header,
        "mean service {} cycles (healthy fleet), mean inter-arrival {} cycles \
         (target utilization {}%), deadline {} cycles, slo {} cycles, max retries {}",
        base_profile.mean_service,
        mean_inter,
        cfg.utilization_pct,
        resil_base.deadline_cycles,
        resil_base.slo_cycles,
        resil_base.max_retries
    );

    let mut named = vec![(String::from("fault-free baseline"), base_cfg, &base_profile)];
    for (breakers, hedging, shedding) in [
        (false, false, false),
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, false),
        (true, false, true),
        (false, true, true),
        (true, true, true),
    ] {
        let mut row_cfg = cfg.clone();
        row_cfg.migrations.clear();
        row_cfg.resil = if breakers || hedging || shedding {
            Some(ResilConfig {
                breakers,
                hedging,
                shedding,
                ..resil_base
            })
        } else {
            None
        };
        let mut name = String::from("faults");
        for (on, label) in [
            (breakers, "+breakers"),
            (hedging, "+hedging"),
            (shedding, "+shedding"),
        ] {
            if on {
                name.push_str(label);
            }
        }
        if !(breakers || hedging || shedding) {
            name.push_str(", resil off");
        }
        named.push((name, row_cfg, &chaos_profile));
    }
    let (rows, (mut outcomes, failures)) = replay_matrix(&pool, &trace, span, named)?;
    let scope = outcomes.last_mut().and_then(|o| o.scope.take());
    Ok(ChaosReport {
        header,
        rows,
        failures,
        scope,
    })
}

// --------------------------------------------------------- rebal matrix

/// Per-row proactive-degradation counters surfaced in the E15 report.
#[derive(Clone, Copy, Debug, Default)]
pub struct RebalStats {
    /// Jobs moved off a machine by the proactive layer (queued drains +
    /// drain live-migrations + rebalance moves). Reconciles exactly with
    /// the hera-scope `Drain` flow ledger.
    pub drains: u64,
    /// Drain episodes triggered (breaker trips + sustained slowdowns).
    pub drain_events: u64,
    /// Queued jobs moved by the periodic rebalancer.
    pub moves: u64,
    /// Live migrations (scheduled + drain-triggered).
    pub migrations: u64,
    /// Adoption proofs run (every resume start).
    pub adoption_proofs: u64,
    /// Cross-shape adoptions proven by replay determinism.
    pub cross_shape: u64,
    /// Migration events whose adoption proof came back green.
    pub migrations_verified: u64,
}

/// The `figures -- cluster-rebal` result (E15): a heterogeneous fleet
/// under the straggler + crash-storm schedule, replayed with reactive
/// resilience only and then with the proactive-degradation layer on.
/// Same config ⇒ the rendered report is byte-identical.
pub struct RebalReport {
    pub header: String,
    pub rows: Vec<MatrixRow>,
    /// Per-row proactive counters, parallel to `rows`.
    pub stats: Vec<RebalStats>,
    pub failures: Vec<String>,
    /// hera-scope recording of the last (drains + rebalancer) row when
    /// `ClusterConfig::scope` is set; `None` otherwise. Not rendered.
    pub scope: Option<ScopeOutcome>,
}

impl RebalReport {
    /// The fault-free baseline row.
    pub fn baseline(&self) -> &MatrixRow {
        &self.rows[0]
    }

    /// The faults-on, reactive-resilience-only row (rebal off).
    pub fn reactive(&self) -> &MatrixRow {
        &self.rows[1]
    }

    /// The all-on row: proactive drains plus the periodic rebalancer.
    pub fn proactive(&self) -> &MatrixRow {
        self.rows.last().expect("matrix always has rows")
    }

    /// Stats of the all-on row.
    pub fn proactive_stats(&self) -> &RebalStats {
        self.stats.last().expect("matrix always has rows")
    }

    /// Deterministic text rendering: same seed ⇒ identical string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header);
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>11} {:>11} {:>8} {:>6} {:>5} {:>5} {:>5}",
            "row", "p50", "p95", "p99", "p999", "goodput", "slo", "shed", "t/o", "trip"
        );
        for r in &self.rows {
            let slo = match r.slo_permille() {
                Some(p) => format!("{}.{}%", p / 10, p % 10),
                None => "-".into(),
            };
            let gp = r.goodput_permille();
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>10} {:>11} {:>11} {:>6}.{}% {:>6} {:>5} {:>5} {:>5}",
                r.name,
                r.p50,
                r.p95,
                r.p99,
                r.p999,
                gp / 10,
                gp % 10,
                slo,
                r.shed,
                r.timeouts,
                r.breaker_trips
            );
        }
        for (r, s) in self.rows.iter().zip(&self.stats) {
            let _ = writeln!(
                out,
                "{:<28} drains {} (episodes {}, moves {}), migrations {} ({} verified), \
                 adoption proofs {} ({} cross-shape)",
                r.name,
                s.drains,
                s.drain_events,
                s.moves,
                s.migrations,
                s.migrations_verified,
                s.adoption_proofs,
                s.cross_shape
            );
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out, "FAILURES ({}):", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(out, "  {f}");
            }
        }
        out
    }
}

/// Run the proactive-degradation matrix (E15): a fault-free baseline,
/// the straggler + crash-storm schedule under reactive (full hera-resil)
/// protection, the same with breaker/slowdown-triggered proactive
/// drains, and finally drains plus the periodic rebalancer. Every row
/// replays the *same* trace through join-shortest-queue; heterogeneous
/// shapes make crash recoveries and drains exercise the cross-shape
/// adoption path for real.
pub fn run_rebal_matrix(cfg: &ClusterConfig) -> Result<RebalReport, ClusterError> {
    validate(cfg)?;
    let mut base_cfg = cfg.clone();
    base_cfg.slowdowns.clear();
    base_cfg.crashes.clear();
    base_cfg.migrations.clear();
    base_cfg.fault_rates = None;
    base_cfg.resil = None;
    base_cfg.rebal = None;
    let pool = experiment_pool(cfg);
    let base_profile = build_profile(&base_cfg, &pool)?;
    let chaos_profile = build_profile(cfg, &pool)?;

    let (mean_inter, trace, span) = paced_trace(cfg, base_profile.mean_service);

    let resil_full = cfg
        .resil
        .unwrap_or(ResilConfig {
            deadline_cycles: base_profile.mean_service * 8,
            slo_cycles: base_profile.mean_service * 12,
            backoff_base_cycles: (base_profile.mean_service / 8).max(1),
            probe_base_cycles: base_profile.mean_service * 2,
            ..ResilConfig::default()
        })
        .full();
    let rebal = cfg.rebal.unwrap_or_default();

    let shapes: Vec<u8> = (0..cfg.machines).map(|m| cfg.shape_of(m)).collect();
    let mut header = String::new();
    let _ = writeln!(
        header,
        "== hera-rebal matrix: {} machines, shapes {:?}, {} requests, seed {}, \
         stragglers {:?}, crashes {:?}, migrations {:?} ==",
        cfg.machines, shapes, cfg.requests, cfg.seed, cfg.slowdowns, cfg.crashes, cfg.migrations
    );
    let _ = writeln!(
        header,
        "mean service {} cycles (healthy fleet), mean inter-arrival {} cycles \
         (target utilization {}%), deadline {} cycles, slo {} cycles",
        base_profile.mean_service,
        mean_inter,
        cfg.utilization_pct,
        resil_full.deadline_cycles,
        resil_full.slo_cycles
    );
    let _ = writeln!(
        header,
        "rebal: slow_after {} slow_factor {}permille max_drains {} \
         rebalance_every {}permille skew {}permille cooldown {}permille",
        rebal.slow_after,
        rebal.slow_factor_permille,
        rebal.max_concurrent_drains,
        rebal.rebalance_every_permille,
        rebal.skew_threshold_permille,
        rebal.cooldown_permille
    );

    let row_specs: [(&str, bool, Option<RebalConfig>); 4] = [
        ("fault-free baseline", false, None),
        ("faults, reactive resil", true, None),
        ("faults +drains", true, Some(RebalConfig::drains_only())),
        ("faults +drains+rebalance", true, Some(rebal)),
    ];
    let named = row_specs
        .into_iter()
        .map(|(name, faulty, row_rebal)| {
            let (mut row_cfg, profile) = if faulty {
                (cfg.clone(), &chaos_profile)
            } else {
                (base_cfg.clone(), &base_profile)
            };
            if faulty {
                row_cfg.resil = Some(resil_full);
            }
            row_cfg.rebal = row_rebal;
            (name.to_string(), row_cfg, profile)
        })
        .collect();
    let (rows, (mut outcomes, failures)) = replay_matrix(&pool, &trace, span, named)?;
    let scope = outcomes.last_mut().and_then(|o| o.scope.take());
    let stats = outcomes
        .iter()
        .map(|outcome| {
            let m = &outcome.metrics;
            RebalStats {
                drains: m.counter("rebal.drains"),
                drain_events: m.counter("rebal.drain.events"),
                moves: m.counter("rebal.moves"),
                migrations: m.counter("cluster.migrations"),
                adoption_proofs: m.counter("cluster.adoption.proofs"),
                cross_shape: m.counter("cluster.adoption.cross_shape"),
                migrations_verified: outcome
                    .migration_events
                    .iter()
                    .filter(|e| e.verified_identical)
                    .count() as u64,
            }
        })
        .collect();
    Ok(RebalReport {
        header,
        rows,
        stats,
        failures,
        scope,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ClusterConfig {
        ClusterConfig {
            machines: 2,
            requests: 40,
            threads: 2,
            scale: 0.02,
            num_spes: 2,
            heap_bytes: 1 << 20,
            crashes: vec![],
            migrations: vec![],
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn tiny_fleet_completes_every_request() {
        let report = run_experiment(&tiny()).expect("experiment runs");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.outcomes.len(), 3);
        for o in &report.outcomes {
            assert_eq!(o.completed, 40, "policy {}", o.policy);
            let h = o.metrics.histogram("cluster.latency").expect("latency");
            assert_eq!(h.count, 40);
            assert!(h.p50() <= h.p99());
        }
    }

    #[test]
    fn report_is_seed_deterministic() {
        let a = run_experiment(&tiny())
            .expect("first run of the tiny determinism experiment")
            .render();
        let b = run_experiment(&tiny())
            .expect("second run of the tiny determinism experiment")
            .render();
        assert_eq!(a, b);
    }

    #[test]
    fn config_validation_rejects_bad_machines() {
        let mut cfg = tiny();
        cfg.machines = 0;
        assert!(run_experiment(&cfg).is_err());
        let mut cfg = tiny();
        cfg.crashes = vec![(9, 500)];
        assert!(run_experiment(&cfg).is_err());
    }

    #[test]
    fn migration_validation_is_typed_and_checks_both_fields() {
        // Machine index out of range.
        let mut cfg = tiny();
        cfg.migrations = vec![(0, 100), (7, 500)];
        match run_experiment(&cfg) {
            Err(ClusterError::InvalidMigration {
                index,
                machine,
                permille,
                machines,
            }) => {
                assert_eq!((index, machine, permille, machines), (1, 7, 500, 2));
            }
            Err(e) => panic!("expected InvalidMigration, got {e:?}"),
            Ok(_) => panic!("expected InvalidMigration, got a report"),
        }
        // Per-mille beyond the trace span.
        let mut cfg = tiny();
        cfg.migrations = vec![(1, 1001)];
        match run_experiment(&cfg) {
            Err(ClusterError::InvalidMigration {
                index,
                machine,
                permille,
                ..
            }) => {
                assert_eq!((index, machine, permille), (0, 1, 1001));
            }
            Err(e) => panic!("expected InvalidMigration, got {e:?}"),
            Ok(_) => panic!("expected InvalidMigration, got a report"),
        }
        // The display form names the entry precisely.
        let err = ClusterError::InvalidMigration {
            index: 3,
            machine: 9,
            permille: 2000,
            machines: 4,
        };
        let text = err.to_string();
        assert!(text.contains("migrations[3]"), "{text}");
        assert!(text.contains("machine 9"), "{text}");
        // An in-range schedule still validates.
        let mut cfg = tiny();
        cfg.migrations = vec![(1, 1000)];
        cfg.requests = 10;
        assert!(run_experiment(&cfg).is_ok());
    }

    /// A debug-sized E13 fleet (straggler, crash, full resilience) with
    /// scope on and a live migration, so snapshots get adopted.
    fn small_e13() -> ClusterConfig {
        ClusterConfig {
            requests: 60,
            utilization_pct: 60,
            crashes: crash_storm(42, 2, 3, 200, 800),
            migrations: vec![(1, 450)],
            slowdowns: vec![(0, 4, 0)],
            resil: Some(ResilConfig::default().full()),
            scope: true,
            ..tiny()
        }
    }

    /// The same on E15's terms: heterogeneous shapes (cross-shape
    /// adoptions) with drains and the rebalancer on.
    fn small_e15() -> ClusterConfig {
        ClusterConfig {
            machines: 3,
            utilization_pct: 75,
            shapes: [2u8, 1, 2]
                .iter()
                .map(|&spe_count| crate::MachineShape { spe_count })
                .collect(),
            crashes: crash_storm(42, 3, 1, 300, 700),
            rebal: Some(RebalConfig::default()),
            ..small_e13()
        }
    }

    /// Replay the three policies (scope kept) plus a fourth row whose
    /// scope nobody reads, and return every byte a caller can read: the
    /// report, then each kept recording's Chrome export and SLO table.
    fn replayed_on(pool: &WorkerPool, cfg: &ClusterConfig, profile: &FleetProfile) -> Vec<String> {
        let (_, trace, span) = paced_trace(cfg, profile.mean_service);
        let row = |policy, keep_scope| Replay {
            cfg: cfg.clone(),
            profile,
            policy,
            keep_scope,
        };
        let [rr, jsq_kept, ll] = POLICIES.map(|policy| row(policy, true));
        let rows = [rr, jsq_kept, ll, row(jsq, false)];
        let (outcomes, failures) = replay_all(pool, &trace, span, &rows).expect("replays run");
        assert!(outcomes[3].scope.is_none(), "an unread recording was kept");
        assert_eq!(outcomes[3].latencies, outcomes[1].latencies);
        let report = ClusterReport {
            header: String::new(),
            outcomes,
            failures,
        };
        let mut rendered = vec![report.render()];
        for scope in report.outcomes.iter().filter_map(|o| o.scope.as_ref()) {
            rendered.push(scope.chrome_json());
            rendered.push(scope.slo_report());
        }
        assert_eq!(rendered.len(), 7);
        rendered
    }

    #[test]
    fn replays_render_identically_on_any_pool() {
        let (sequential, wide) = (WorkerPool::new(0), WorkerPool::new(3));
        for (cfg, poisoned) in [(small_e15(), false), (small_e13(), true)] {
            let mut profile = build_profile(&cfg, &wide).expect("profile builds");
            if poisoned {
                // Every same-shape adoption proof now reports a divergence.
                for reference in profile.reference.iter_mut().flatten() {
                    let mut wrong = RunOutcome::clone(reference);
                    wrong.heap_digest ^= 1;
                    *reference = Arc::new(wrong);
                }
            }
            let rendered = replayed_on(&sequential, &cfg, &profile);
            assert_eq!(
                rendered[0].contains("FAILURES (5)"),
                poisoned,
                "{}",
                rendered[0]
            );
            assert_eq!(rendered, replayed_on(&wide, &cfg, &profile));
        }
    }

    #[test]
    fn shape_validation_rejects_zero_and_oversized_spe_counts() {
        let mut cfg = tiny();
        cfg.shapes = vec![crate::MachineShape { spe_count: 0 }];
        assert!(run_experiment(&cfg).is_err());
        let mut cfg = tiny();
        cfg.shapes = vec![crate::MachineShape { spe_count: 9 }];
        assert!(run_experiment(&cfg).is_err());
    }
}

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
//! * Completion events are guarded by a per-machine epoch; detaching a
//!   running job (crash, cancel, migration) bumps the epoch, so stale
//!   completions are dropped rather than resurrecting a dead machine's
//!   work.
//! * Every job a machine crash catches in flight (running or queued) is
//!   requeued through the balancing policy exactly once per crash.
//!
//! This file is the measured fleet profile, the event loop ([`Sim`]) and
//! the replay seam ([`replay_all`]); the crate docs map the other files.

use crate::kernel::{Ev, Job, Kernel, Outcome};
use crate::policy::{BalancePolicy, MachineView};
use crate::rebal::Rebal;
use crate::resil::Resil;
use crate::scope::ScopeOutcome;
use crate::traffic::{self, Request};
use crate::{ClusterConfig, ClusterError, MIX, RECOVERY_CYCLES};
use hera_cell::FaultPlan;
use hera_core::{HeraJvm, RunEnd, RunOutcome, VmConfig, VmError, WorkerPool};
use hera_isa::Value;
use hera_rng::splitmix64;
use hera_trace::{MetricsRegistry, SpanKind};
use hera_workloads::Workload;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-machine-seed salt for transient-fault plans.
const MACHINE_SEED_SALT: u64 = 0x6d61_6368_696e_6531;

// ------------------------------------------------------------- profiling

/// One job class: a workload built at the experiment's scale.
#[derive(Clone)]
pub(crate) struct ClassProfile {
    pub workload: Workload,
    pub program: hera_isa::Program,
    pub checksum: i32,
}

/// Everything measured once per experiment and shared, immutably, by
/// every replay of the trace (replays run side by side on the pool).
pub(crate) struct FleetProfile {
    pub classes: Vec<ClassProfile>,
    /// Per-machine fault plan (all-default when faults are disabled).
    pub plans: Vec<FaultPlan>,
    /// Per-machine SPE count (`ClusterConfig::shape_of`, resolved).
    pub shapes: Vec<u8>,
    /// `reference[class][machine]`: the uninterrupted run outcome under
    /// that machine's shape and fault plan. Machines sharing both hold
    /// `Arc` clones of one run.
    pub reference: Vec<Vec<Arc<RunOutcome>>>,
    /// `best_same_shape[class][machine]`: the best reference wall among
    /// machines of the same shape — the baseline the sustained-slowdown
    /// drain signal compares against (a 2-SPE machine is slower than a
    /// 6-SPE one by shape, not by sickness).
    pub best_same_shape: Vec<Vec<u64>>,
    /// Mix-weighted mean service time over classes and machines.
    pub mean_service: u64,
}

/// The VM configuration of a machine with `spes` SPEs running under
/// `plan`. Identical across same-shape machines except for the fault
/// plan, so cross-machine snapshot adoption is legal (the machine digest
/// zeroes the plan); cross-*shape* adoption goes through the reshaping
/// restore path in `hera-core` instead.
pub(crate) fn machine_vm_config(cfg: &ClusterConfig, plan: FaultPlan, spes: u8) -> VmConfig {
    let mut vm = VmConfig::pinned_spe(spes)
        .with_checkpoint_every(cfg.checkpoint_every)
        .with_faults(plan);
    vm.heap.size_bytes = cfg.heap_bytes;
    vm
}

pub(crate) fn vm_err(what: &str, e: impl std::fmt::Debug) -> ClusterError {
    ClusterError::msg(format!("{what}: {e:?}"))
}

/// The outcome of a fleet VM run that must complete. Every VM run in the
/// fleet is a surviving run (`run_until_crash` / `adopt_until_crash`),
/// which seals only a checkpoint a recovery from a scheduled crash can
/// read; a run with no crash scheduled therefore seals none, and a crash
/// is a bug.
pub(crate) fn completed(
    end: Result<RunEnd, VmError>,
    what: &str,
) -> Result<RunOutcome, ClusterError> {
    match end.map_err(|e| vm_err(what, e))? {
        RunEnd::Completed(out) => Ok(*out),
        RunEnd::Crashed { at_cycle, .. } => Err(ClusterError::msg(format!(
            "{what}: crashed at cycle {at_cycle} with no crash scheduled"
        ))),
    }
}

/// The experiment's one host worker pool: reference-run cells and trace
/// replays both fan out on it. Sized to the host, capped at a reference
/// cell per class and machine (never fewer than the three policies);
/// `WorkerPool::new(0)` runs everything on the caller.
pub(crate) fn experiment_pool(cfg: &ClusterConfig) -> WorkerPool {
    let cells = Workload::ALL.len() * cfg.machines;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    WorkerPool::new(cpus.min(cells).saturating_sub(1))
}

/// Per-machine fault plans: seeded transient faults when enabled, then
/// the configured stragglers.
fn machine_plans(cfg: &ClusterConfig) -> Vec<FaultPlan> {
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
    plans
}

/// The fleet profile of each of `cfgs`, which must agree on everything a
/// reference run reads besides its machine's shape and fault plan (the
/// class programs, the heap, the checkpoint cadence).
///
/// Reference runs are keyed by (class, shape, fault plan): machines
/// sharing a shape and a plan replay bit-identically, so one VM run
/// serves them all, in every profile built here — a uniform fleet costs
/// one run per class, and a matrix's fault-free and faulty profiles share
/// the cells they have in common. Each unique cell is an independent
/// whole-VM execution, fanned out on the host worker pool.
pub(crate) fn build_profiles<const N: usize>(
    cfgs: [&ClusterConfig; N],
    pool: &WorkerPool,
) -> Result<[FleetProfile; N], ClusterError> {
    let read = |c: &ClusterConfig| {
        (
            c.threads,
            c.scale.to_bits(),
            c.heap_bytes,
            c.checkpoint_every,
        )
    };
    debug_assert!(
        cfgs.windows(2).all(|w| read(w[0]) == read(w[1])),
        "profiles built together must agree on what a reference run reads"
    );
    let cfg = cfgs[0];
    let classes = Workload::ALL.map(|workload| {
        let (program, checksum) = workload.build(cfg.threads, cfg.scale);
        ClassProfile {
            workload,
            program,
            checksum,
        }
    });
    let plans = cfgs.map(machine_plans);
    let shapes = cfgs.map(|c| (0..c.machines).map(|m| c.shape_of(m)).collect::<Vec<u8>>());
    let mut uniq: Vec<(u8, FaultPlan)> = Vec::new();
    let cell_of: [Vec<usize>; N] = std::array::from_fn(|p| {
        let keys = shapes[p].iter().copied().zip(plans[p].iter().copied());
        keys.map(|key| {
            uniq.iter().position(|&k| k == key).unwrap_or_else(|| {
                uniq.push(key);
                uniq.len() - 1
            })
        })
        .collect()
    });
    let outcomes = pool.map(classes.len() * uniq.len(), |i| {
        let class = &classes[i / uniq.len()];
        let (spes, plan) = uniq[i % uniq.len()];
        let vm = HeraJvm::new(class.program.clone(), machine_vm_config(cfg, plan, spes))
            .map_err(|e| vm_err("reference vm", e))?;
        let out = completed(vm.run_until_crash(), "reference run")?;
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
    let cells = outcomes
        .into_iter()
        .map(|out| out.map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(std::array::from_fn(|p| {
        let (plans, shapes) = (&plans[p], &shapes[p]);
        let reference: Vec<Vec<Arc<RunOutcome>>> = cells
            .chunks(uniq.len())
            .map(|per_cell| {
                cell_of[p]
                    .iter()
                    .map(|&c| Arc::clone(&per_cell[c]))
                    .collect()
            })
            .collect();
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
            let avg: u64 = per_machine.iter().map(|o| o.stats.wall_cycles).sum::<u64>()
                / per_machine.len() as u64;
            let w = MIX[c] as u128;
            weighted += w * avg as u128;
            weight += w;
        }
        let mean_service = weighted.checked_div(weight).unwrap_or(0) as u64;
        FleetProfile {
            classes: classes.to_vec(),
            plans: plans.clone(),
            shapes: shapes.clone(),
            reference,
            best_same_shape,
            mean_service,
        }
    }))
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

// ------------------------------------------------------------- simulator

/// One replay of the trace: the kernel plus the two opt-in layers. A
/// layer that is `None` is off; its handlers are `impl Sim` blocks in its
/// own file, written against the kernel's placement interface.
pub(crate) struct Sim<'a> {
    pub k: Kernel<'a>,
    pub resil: Option<Resil>,
    pub rebal: Option<Rebal>,
    /// The machines the last [`Sim::fill_views`] let a policy pick from;
    /// kept across dispatches so a dispatch allocates nothing.
    views: Vec<MachineView>,
}

/// What [`Sim::route`] did with a job.
pub(crate) enum Routed {
    /// Placed on a machine, or shed by admission control.
    Handled,
    /// No machine is eligible.
    NoMachine,
    /// The picked machine's queue is at `queue_cap`.
    QueueFull,
}

impl<'a> Sim<'a> {
    fn new(
        cfg: &'a ClusterConfig,
        profile: &'a FleetProfile,
        policy: Box<dyn BalancePolicy>,
        trace: &[Request],
        span: u64,
    ) -> Self {
        let mut k = Kernel::new(cfg, profile, policy, trace, span);
        // Faults and migrations are scheduled as per-mille points of the
        // trace's arrival span, so configs stay meaningful across scales.
        for &(machine, permille) in &cfg.crashes {
            k.push(span / 1000 * permille as u64, Ev::Crash { machine });
        }
        for &(machine, permille) in &cfg.migrations {
            k.push(span / 1000 * permille as u64, Ev::Migrate { machine });
        }
        let rebal = cfg.rebal.map(|rb| Rebal::new(rb, cfg.machines, span));
        for tick in rebal.iter().flat_map(|rb| rb.ticks(cfg.seed, span)) {
            k.push(tick, Ev::Rebalance);
        }
        let resil = cfg
            .resil
            .map(|r| Resil::new(r, cfg.machines, profile.classes.len()));
        Sim {
            k,
            resil,
            rebal,
            views: Vec::with_capacity(cfg.machines),
        }
    }

    /// Fill `self.views` with the machines a policy may pick from: up,
    /// not excluded, and not behind an open breaker.
    fn fill_views(&mut self, now: u64, exclude: &[usize]) {
        let mut views = std::mem::take(&mut self.views);
        views.clear();
        let up = |m: &usize| self.k.machines[*m].up && !exclude.contains(m);
        let view = |m: usize| {
            let mach = &self.k.machines[m];
            MachineView {
                machine: m,
                queue_len: mach.queue().len(),
                running: mach.running().is_some(),
                backlog_cycles: mach.backlog(now),
                capacity_permille: self.capacity_permille(m),
            }
        };
        let all = 0..self.k.machines.len();
        let closed = all.clone().filter(up).filter(|&m| !self.breaker_open(m));
        views.extend(closed.map(view));
        if views.is_empty() {
            // Breakers must never black-hole the fleet: when every up
            // machine is open, degrade to routing among all of them.
            views.extend(all.filter(up).map(view));
        }
        self.views = views;
    }

    /// Pick a machine for `job` through the balancing policy and place
    /// it there (`hedge` placements skip admission control: the primary
    /// attempt is still live).
    pub fn route(
        &mut self,
        job: usize,
        now: u64,
        exclude: &[usize],
        hedge: bool,
    ) -> Result<Routed, ClusterError> {
        self.count_breaker_rejections(exclude);
        self.fill_views(now, exclude);
        if self.views.is_empty() {
            return Ok(Routed::NoMachine);
        }
        if !hedge && self.refuses_admission(job, &self.views) {
            self.k.shed(job, now, "resil.shed.admission");
            return Ok(Routed::Handled);
        }
        let m = self.k.policy.pick(&self.views);
        if self.k.machines[m].queue().len() >= self.k.cfg.queue_cap {
            return Ok(Routed::QueueFull);
        }
        self.k.place(m, job, hedge, now)?;
        Ok(Routed::Handled)
    }

    /// Route `job` to a machine other than `exclude`, holding it at the
    /// front-end if the whole fleet is down and shedding it on overflow.
    pub fn dispatch(
        &mut self,
        job: usize,
        now: u64,
        exclude: &[usize],
    ) -> Result<(), ClusterError> {
        match self.route(job, now, exclude, false)? {
            Routed::Handled => {}
            Routed::NoMachine => {
                self.k.pending.push_back(job);
                self.k.metrics.add("cluster.frontend.held", 1);
            }
            Routed::QueueFull => self.k.shed(job, now, "cluster.shed.overflow"),
        }
        Ok(())
    }

    fn complete(&mut self, job: usize, m: usize, now: u64) -> Result<(), ClusterError> {
        let done = self.k.complete(job, m, now)?;
        self.resil_completed(&done, m, now);
        self.observe_slowness(done.class, m, now)
    }

    fn handle_crash(&mut self, m: usize, now: u64) -> Result<(), ClusterError> {
        if !self.k.machines[m].up {
            self.k.metrics.add("cluster.crash.skipped_down", 1);
            return Ok(());
        }
        self.k.machines[m].up = false;
        self.k.observe(|sc| sc.on_machine(m, SpanKind::Crash, now));
        self.breaker_crashed(m, now);
        let mut requeue = Vec::new();
        let mut resumed_from_checkpoint = false;
        let mut reexec_total = 0u64;

        if let Some(run) = self.k.detach_running(m) {
            let job = run.job;
            if !self.k.jobs[job].placements().is_empty() {
                // A hedged twin is still live elsewhere: drop this
                // attempt instead of requeueing a duplicate.
                self.k.metrics.add("resil.attempt.dropped_by_crash", 1);
                self.k.observe(|sc| sc.on_interrupt(m, now));
            } else if now <= run.exec_start {
                // Died during dispatch/transfer: nothing executed yet.
                self.k.observe(|sc| sc.on_interrupt(m, now));
                requeue.push(job);
            } else {
                match self.k.interrupt(&run, m, now)? {
                    None => {
                        // The job finished before the machine died:
                        // complete it at the crash instant.
                        self.k.metrics.add("cluster.crash.finished_anyway", 1);
                        self.complete(job, m, now)?;
                    }
                    Some((resume, reexec)) => {
                        self.k.observe(|sc| sc.on_interrupt(m, now));
                        resumed_from_checkpoint = resume.is_some();
                        if resume.is_none() {
                            self.k.metrics.add("cluster.crash.restarts", 1);
                        }
                        self.k.jobs[job].resume = resume;
                        reexec_total += reexec;
                        self.k.metrics.record("cluster.recovery.reexec", reexec);
                        requeue.push(job);
                    }
                }
            }
        }
        for (job, enqueued) in self.k.evict(m) {
            self.k
                .observe(|sc| sc.on_queue_interrupt(m, job, enqueued, now));
            if self.k.jobs[job].placements().is_empty() {
                requeue.push(job);
            } else {
                self.k.metrics.add("resil.attempt.dropped_by_crash", 1);
            }
        }

        let in_flight = requeue.len() as u64;
        for job in requeue {
            self.k.jobs[job].requeues += 1;
            self.k.metrics.add("cluster.crash.requeued", 1);
            self.k.observe(|sc| sc.on_requeue(job, m, now));
            self.dispatch(job, now, &[])?;
        }
        let recovers = now + RECOVERY_CYCLES;
        self.k.push(recovers, Ev::Recover { machine: m });
        self.k.metrics.add("cluster.crashes", 1);
        self.k.crash_events.push(CrashEvent {
            machine: m,
            at: now,
            in_flight,
            resumed_from_checkpoint,
            reexec_cycles: reexec_total,
        });
        Ok(())
    }

    /// Live-migrate the job running on `m` to a policy-chosen peer.
    /// `drain` marks a proactive-drain migration: the causality is
    /// recorded as a drain (skip counters under `rebal.drain.*`, a
    /// [`hera_trace::FlowKind::Drain`] arrow, `rebal.drains` counted)
    /// while the virtual-time charges stay exactly those of a scheduled
    /// migration. Returns whether a migration was actually started.
    pub fn migrate_off(&mut self, m: usize, now: u64, drain: bool) -> Result<bool, ClusterError> {
        let skip = |s: &mut Self, what: &str| {
            let pre = if drain {
                "rebal.drain"
            } else {
                "cluster.migration"
            };
            s.k.metrics.add(&format!("{pre}.{what}"), 1);
            Ok(false)
        };
        let mach = &self.k.machines[m];
        let Some(run) = mach.running().filter(|_| mach.up).copied() else {
            return skip(self, "skipped_idle");
        };
        let job = run.job;
        self.fill_views(now, &[m]);
        if self.views.is_empty() {
            return skip(self, "skipped_no_dest");
        }
        if self.k.jobs[job].placements().len() > 1 {
            // A hedged job already runs in two places; moving one of the
            // twins buys nothing and complicates cancellation.
            return skip(self, "skipped_hedged");
        }
        if now <= run.exec_start {
            return skip(self, "skipped_not_started");
        }
        let Some((resume, reexec)) = self.k.interrupt(&run, m, now)? else {
            // Too close to the finish line to capture a safepoint: let
            // it complete in place.
            return skip(self, "skipped_late");
        };
        let Some(resume) = resume else {
            return skip(self, "skipped_no_snapshot");
        };
        // Detach from the source; its pending Done goes stale.
        self.k.detach_running(m);
        let dest = self.k.policy.pick(&self.views);
        let bytes = resume.bytes.len() as u64;
        let transfer = self.k.transfer_cycles(bytes);
        self.k
            .observe(|sc| sc.on_migrate(m, dest, job, now, (bytes, transfer, reexec), drain));
        self.k.jobs[job].resume = Some(resume);
        self.k.jobs[job].pending_migration = Some(self.k.migration_events.len());
        self.k.migration_events.push(MigrationEvent {
            src: m,
            dest,
            at: now,
            snapshot_bytes: bytes,
            transfer_cycles: transfer,
            reexec_cycles: reexec,
            verified_identical: false,
        });
        self.k.metrics.add("cluster.migrations", 1);
        self.k
            .metrics
            .record("cluster.migration.transfer", transfer);
        self.k.metrics.record("cluster.migration.reexec", reexec);
        if drain {
            self.k.metrics.add("rebal.drains", 1);
            self.k.metrics.add("rebal.drain.migrations", 1);
        }
        self.k.place(dest, job, false, now)?;
        self.k.try_start(m, now)?;
        Ok(true)
    }

    fn recover(&mut self, m: usize, now: u64) -> Result<(), ClusterError> {
        self.k.machines[m].up = true;
        // A recovered machine starts a fresh drain episode.
        if let Some(rb) = self.rebal.as_mut() {
            rb.end_episode(m);
        }
        self.k.metrics.add("cluster.recoveries", 1);
        self.k
            .observe(|sc| sc.on_machine(m, SpanKind::Recover, now));
        while let Some(job) = self.k.pending.pop_front() {
            self.dispatch(job, now, &[])?;
        }
        self.k.try_start(m, now)
    }

    /// Back-fill any sampler ticks due before the event at `now` runs.
    /// The machine state is read *before* the event mutates anything,
    /// which is exactly the state at every missed tick (state only
    /// changes when events are processed).
    fn sample(&mut self, now: u64) {
        let Some(sc) = self.k.scope.as_mut().filter(|sc| sc.sample_due(now)) else {
            return;
        };
        let views: Vec<(u64, u64, u64)> = (self.k.machines.iter().enumerate())
            .map(|(m, mach)| {
                (
                    mach.queue().len() as u64,
                    mach.running().is_some() as u64,
                    self.resil.as_ref().map_or(0, |r| r.breaker_code(m)),
                )
            })
            .collect();
        sc.sample_until(now, &views);
    }

    fn run(&mut self, trace: &[Request]) -> Result<(), ClusterError> {
        if !trace.is_empty() {
            self.k.push(trace[0].arrival, Ev::Arrive(0));
        }
        while let Some((now, ev)) = self.k.pop() {
            self.sample(now);
            match ev {
                Ev::Arrive(i) => {
                    if i + 1 < trace.len() {
                        self.k.push(trace[i + 1].arrival, Ev::Arrive(i + 1));
                    }
                    self.k.metrics.add("cluster.requests", 1);
                    self.k.observe(|sc| sc.on_arrival(i, trace[i].class, now));
                    self.begin_wave(i, now);
                    self.dispatch(i, now, &[])?;
                }
                Ev::Done { machine, epoch } => {
                    if let Some(job) = self.k.finish_running(machine, epoch) {
                        self.complete(job, machine, now)?;
                        self.k.try_start(machine, now)?;
                    }
                }
                Ev::Crash { machine } => self.handle_crash(machine, now)?,
                Ev::Migrate { machine } => {
                    self.migrate_off(machine, now, false)?;
                }
                Ev::Recover { machine } => self.recover(machine, now)?,
                Ev::Timeout { job, gen } => self.on_timeout(job, gen, now)?,
                Ev::Retry { job, gen } => self.on_retry(job, gen, now)?,
                Ev::HedgeCheck { job, gen } => self.on_hedge_check(job, gen, now)?,
                Ev::Probe { machine } => self.on_probe(machine, now),
                Ev::Rebalance => self.rebalance(now)?,
            }
        }
        Ok(())
    }

    /// Seal the replay: bookkeeping failures, the scope ledger, and the
    /// outcome a report is rendered from.
    fn finish(self, requests: u64) -> (PolicyOutcome, Vec<String>) {
        let mut k = self.k;
        let name = k.policy.name();
        let mut requeues = BTreeMap::new();
        for (i, j) in k.jobs.iter().enumerate() {
            if j.requeues > 0 {
                requeues.insert(i, j.requeues);
            }
            // Shed and timed-out jobs are *measured* outcomes (reported in
            // goodput), not bookkeeping failures; a Pending job at the end
            // of the event loop is a lost request — always a bug.
            if j.outcome == Outcome::Pending {
                k.failures
                    .push(format!("policy {name}: job {i} never completed"));
            }
        }
        let completed = k.metrics.counter("cluster.completed");
        if k.cfg.resil.is_some() {
            let goodput = completed * 1000 / requests.max(1);
            k.metrics.set("resil.goodput_permille", goodput);
        }
        if !k.pending.is_empty() {
            k.failures.push(format!(
                "policy {name}: {} jobs stuck at the front-end",
                k.pending.len()
            ));
        }
        let slo = k.cfg.resil.map(|r| r.slo_cycles);
        let scope = k.scope.take();
        let scope = scope.map(|sc| sc.finish(&k.metrics, requests, name, slo, &mut k.failures));
        let completed_at = |j: &Job| j.completed_at.map(|t| t.saturating_sub(j.arrival));
        let mut latencies: Vec<u64> = k.jobs.iter().filter_map(completed_at).collect();
        latencies.sort_unstable();
        let outcome = PolicyOutcome {
            policy: name,
            completed,
            metrics: k.metrics,
            crash_events: k.crash_events,
            migration_events: k.migration_events,
            requeues,
            latencies,
            scope,
        };
        (outcome, k.failures)
    }
}

// ----------------------------------------------------------- replay seam

/// One independent replay of the shared trace: a row of a matrix, or a
/// policy of the default experiment.
pub(crate) struct Replay<'a> {
    pub cfg: ClusterConfig,
    pub profile: &'a FleetProfile,
    pub policy: fn() -> Box<dyn BalancePolicy>,
    /// Whether the caller reads this replay's scope recording. One that
    /// is not read is dropped inside the replay, so no more recordings
    /// than pool threads are alive at once.
    pub keep_scope: bool,
}

pub(crate) fn jsq() -> Box<dyn BalancePolicy> {
    Box::new(crate::policy::JoinShortestQueue)
}

/// The policies the default experiment replays, in report order.
pub(crate) const POLICIES: [fn() -> Box<dyn BalancePolicy>; 3] = [
    || Box::new(crate::policy::RoundRobin::default()),
    jsq,
    || Box::new(crate::policy::LeastLoaded),
];

/// What a batch of replays produced: the outcomes in row order and the
/// rows' failures concatenated in row order.
pub(crate) type Replayed = (Vec<PolicyOutcome>, Vec<String>);

/// Run every replay on `pool`. The replays read one immutable profile
/// and trace and share nothing mutable, so each is the same pure function
/// of its inputs on any thread; collecting in row order makes the result
/// independent of the pool's size and scheduling.
pub(crate) fn replay_all(
    pool: &WorkerPool,
    trace: &[Request],
    span: u64,
    rows: &[Replay],
) -> Result<Replayed, ClusterError> {
    let replayed = pool.map(rows.len(), |i| {
        let row = &rows[i];
        let mut sim = Sim::new(&row.cfg, row.profile, (row.policy)(), trace, span);
        sim.run(trace)?;
        let (mut outcome, failures) = sim.finish(trace.len() as u64);
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

/// The experiment's request trace, paced so a fleet with
/// `mean_service` cycles per request runs at the target utilization.
/// Returns the mean inter-arrival time, the trace and its arrival span.
pub(crate) fn paced_trace(cfg: &ClusterConfig, mean_service: u64) -> (u64, Vec<Request>, u64) {
    let util = cfg.utilization_pct.clamp(1, 100) as u64;
    let mean_inter = (mean_service * 100 / util / cfg.machines.max(1) as u64).max(1);
    let trace = traffic::generate(cfg.seed, cfg.requests, mean_inter, cfg.arrival, &MIX);
    let span = trace.last().map(|r| r.arrival).unwrap_or(0);
    (mean_inter, trace, span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{crash_storm, run_experiment, ClusterReport, MachineShape, RebalConfig};
    use crate::{run_chaos_matrix, run_rebal_matrix, ResilConfig, MAX_DELAY_CYCLES};

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
        // A crash beyond the trace span is rejected the way a migration
        // is, by every runner.
        cfg.crashes = vec![(0, 100), (1, 1001)];
        for run in [run_chaos_matrix, run_rebal_matrix] {
            let err = run(&cfg).err().expect("crash beyond the span").to_string();
            assert!(err.contains("crashes[1] = (1, 1001)"), "{err}");
        }
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
            crashes: crash_storm(42, 2, 3, 200, 800),
            migrations: vec![(1, 450)],
            resil: Some(ResilConfig::default().full()),
            scope: true,
            ..ClusterConfig::e13(42, 2, 60, 0.02)
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
                .map(|&spe_count| MachineShape { spe_count })
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
            let [mut profile] = build_profiles([&cfg], &wide).expect("profile builds");
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

    /// `tiny()` under `knobs`, through every runner: each must reject
    /// `knob` as `cycles` ahead before it builds a profile.
    fn rejected(knobs: ResilConfig, knob: &'static str, cycles: u64) {
        let cfg = ClusterConfig {
            resil: Some(knobs),
            ..tiny()
        };
        let want = Some(ClusterError::InvalidDelay { knob, cycles });
        assert_eq!(run_experiment(&cfg).err(), want);
        assert_eq!(run_chaos_matrix(&cfg).err(), want);
        assert_eq!(run_rebal_matrix(&cfg).err(), want);
    }

    #[test]
    fn deadline_past_the_schedule_is_rejected() {
        // Panicked in debug ("attempt to add with overflow" at the
        // deadline push); wrapped to a deadline in the past in release.
        let knob = "resil.deadline_cycles";
        for cycles in [u64::MAX, MAX_DELAY_CYCLES + 1] {
            let knobs = ResilConfig {
                deadline_cycles: cycles,
                ..ResilConfig::default()
            };
            rejected(knobs, knob, cycles);
        }
    }

    #[test]
    fn backoff_past_the_schedule_is_rejected() {
        // `step + jitter` overflowed once the step saturated.
        let knob = "resil.backoff_base_cycles";
        let knobs = ResilConfig {
            backoff_base_cycles: u64::MAX,
            ..ResilConfig::default()
        };
        rejected(knobs, knob, u64::MAX);
        // The step doubles per retry and a retry waits up to two steps:
        // with two retries half the limit is already too much.
        let knobs = ResilConfig {
            backoff_base_cycles: MAX_DELAY_CYCLES / 2,
            ..knobs
        };
        rejected(knobs, knob, MAX_DELAY_CYCLES * 2);
    }

    #[test]
    fn probe_past_the_schedule_is_rejected() {
        // `step + jitter` in `probe_delay`, then `now + delay`, overflowed.
        let knobs = ResilConfig {
            probe_base_cycles: u64::MAX,
            ..ResilConfig::default().full()
        };
        rejected(knobs, "resil.probe_base_cycles", u64::MAX);
    }

    /// Resilience delays at their limits are valid and run: waves time out
    /// and retry, and breakers trip, each up to the limit ahead, in a fleet
    /// whose crashed machine recovers.
    #[test]
    fn delays_at_the_limit_still_run() {
        let cfg = ClusterConfig {
            crashes: vec![(1, 500)],
            slowdowns: vec![(0, 4, 0)],
            resil: Some(ResilConfig {
                deadline_cycles: 2_000_000,
                // Two retries: a step of half the limit, a wait of up to two.
                backoff_base_cycles: MAX_DELAY_CYCLES / 4,
                // A step of 2^8 bases, a wait of up to 1.25 steps.
                probe_base_cycles: MAX_DELAY_CYCLES / 256 / 5 * 4,
                ..ResilConfig::default().full()
            }),
            ..tiny()
        };
        let report = run_experiment(&cfg).expect("delays at the limit are valid");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let most = |name: &str| {
            report
                .outcomes
                .iter()
                .map(|o| o.metrics.counter(name))
                .max()
        };
        for fired in ["cluster.recoveries", "resil.retries", "resil.breaker.trips"] {
            assert!(most(fired) > Some(0), "no policy counted {fired}");
        }
    }

    #[test]
    fn shape_validation_rejects_zero_and_oversized_spe_counts() {
        let mut cfg = tiny();
        cfg.shapes = vec![MachineShape { spe_count: 0 }];
        assert!(run_experiment(&cfg).is_err());
        let mut cfg = tiny();
        cfg.shapes = vec![MachineShape { spe_count: 9 }];
        assert!(run_experiment(&cfg).is_err());
    }
}

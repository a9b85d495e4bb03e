//! The fleet kernel: the event queue, the jobs, the machines, and the one
//! placement interface through which a job gets onto and off a machine.
//!
//! A machine's residency state (`queue`, `queued_cycles`, `running`,
//! `epoch`, `completes`) and a job's booking (`placements`) are private
//! to this module, so `place`, `detach_queued`, `detach_running`, `evict`,
//! `cancel`, `try_start`, `finish_running` and `complete` are the only
//! code that can change where a job is: every crash requeue, deadline
//! cancel, live migration, drain and rebalance move in `fleet`, `resil`
//! and `rebal` is a `detach_*` or an `evict` followed by a `place`.
//!
//! Debug builds assert after each of them ([`Kernel::check`]) that a job
//! holds one attempt, or a primary then a hedge; that a machine's
//! `queued_cycles` is the sum of its queued jobs' estimates; and that
//! every job resident on a machine is unresolved and booked there exactly
//! once — so no job is resident twice on one machine and a resolved job
//! is resident nowhere.
//!
//! A machine's queue holds each job with the fleet time it was queued,
//! so the queue-wait start the scope's spans need travels with the job:
//! `try_start`, `detach_queued` and `evict` hand it back.

use crate::fleet::{machine_vm_config, ClassProfile, CrashEvent, FleetProfile, MigrationEvent};
use crate::policy::BalancePolicy;
use crate::runs::{Doomed, Reruns, RunKey};
use crate::scope::Scope;
use crate::traffic::Request;
use crate::{ClusterConfig, ClusterError, DISPATCH_CYCLES};
use crate::{TRANSFER_BYTES_PER_CYCLE, TRANSFER_LATENCY_CYCLES};
use hera_core::RunOutcome;
use hera_isa::Value;
use hera_trace::MetricsRegistry;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// An event. Only tests order two of them (the reference schedule); the
/// kernel orders events by their `Keyed::key` alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(test, derive(PartialOrd, Ord))]
pub(crate) enum Ev {
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

/// An event and its place in the schedule: `(time, insertion seq)`
/// packed into one `u128`, so placing an event is one integer comparison
/// that never looks at the `Ev`. The order is reversed, so the std
/// max-heap pops the smallest key first.
struct Keyed {
    key: u128,
    ev: Ev,
}

impl Keyed {
    fn time(&self) -> u64 {
        (self.key >> 64) as u64
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Keyed {}

/// The schedule: events in `(time, insertion seq)` order, a total order
/// because the seq is unique.
///
/// A `Timeout` is always pushed at `now + deadline_cycles`, and `now`
/// never decreases, so deadlines arrive already in key order; they wait
/// in a FIFO lane instead of the heap, and `pop` takes whichever of the
/// lane's front and the heap's top has the smaller key. A deadline whose
/// key is not above the lane's last goes to the heap, so the order is the
/// heap's on any sequence of pushes — the lane only keeps a quarter of
/// the fleet's events out of the heap.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<Keyed>,
    deadlines: VecDeque<Keyed>,
    seq: u64,
}

impl Events {
    fn push(&mut self, time: u64, ev: Ev) {
        self.seq += 1;
        let next = Keyed {
            key: (time as u128) << 64 | self.seq as u128,
            ev,
        };
        let in_order = |last: &Keyed| last.key < next.key;
        if matches!(ev, Ev::Timeout { .. }) && self.deadlines.back().is_none_or(in_order) {
            self.deadlines.push_back(next);
        } else {
            self.heap.push(next);
        }
    }

    fn pop(&mut self) -> Option<(u64, Ev)> {
        let lane_first = match (self.deadlines.front(), self.heap.peek()) {
            (Some(deadline), Some(top)) => deadline.key < top.key,
            (deadline, _) => deadline.is_some(),
        };
        let next = if lane_first {
            self.deadlines.pop_front()
        } else {
            self.heap.pop()
        }?;
        Some((next.time(), next.ev))
    }
}

/// Snapshot state a job carries between machines.
#[derive(Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct Resume {
    /// The sealed snapshot, shared with the run table that sealed it.
    pub bytes: Arc<Vec<u8>>,
    /// VM wall clock the snapshot resumes at.
    pub restored_wall: u64,
    /// SPE count of the machine whose run captured the snapshot; an
    /// adoption on a different shape goes through the reshaping restore
    /// path and is proven by replay determinism, not origin bit-identity.
    pub shape: u8,
}

/// Terminal state of a request. Without resilience only `Pending` and
/// `Completed` occur (every job eventually completes, however slowly).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) enum Outcome {
    #[default]
    Pending,
    Completed,
    /// Refused by admission control or queue-cap overflow.
    Shed,
    /// Every retry wave hit its deadline.
    TimedOut,
}

#[derive(Default)]
pub(crate) struct Job {
    pub arrival: u64,
    pub class: usize,
    /// Machine the job first started executing on; its fault plan is the
    /// one the job's whole life replays (snapshots carry it along).
    pub origin: Option<usize>,
    pub resume: Option<Resume>,
    /// Times this job was requeued by a machine crash.
    pub requeues: u32,
    /// Pending migration record awaiting its adoption proof.
    pub pending_migration: Option<usize>,
    pub completed_at: Option<u64>,
    pub outcome: Outcome,
    /// Attempt-wave generation: bumped whenever the wave is cancelled
    /// (deadline, shed, completion), so stale wave events are dropped —
    /// the job-level analogue of the per-machine epoch.
    pub gen: u32,
    /// Fleet time the current wave was dispatched (hedge/deadline base).
    pub wave_start: u64,
    /// Retry waves consumed so far.
    pub retries: u32,
    /// Machines currently holding an attempt, as `(machine, is_hedge)`.
    placements: Vec<(usize, bool)>,
    /// The job has been adopted across shapes at least once: its run was
    /// reshaped mid-flight, so it can never again claim bit-identity to
    /// the origin-shape reference — every later adoption is proven by
    /// replay determinism instead.
    pub cross_shape: bool,
}

impl Job {
    /// Machines currently holding an attempt, as `(machine, is_hedge)`,
    /// oldest first.
    pub(crate) fn placements(&self) -> &[(usize, bool)] {
        &self.placements
    }
}

#[derive(Clone, Copy)]
pub(crate) struct Running {
    pub job: usize,
    /// Fleet time at which VM cycles start advancing (post dispatch and
    /// snapshot transfer).
    pub exec_start: u64,
    /// VM wall clock at `exec_start` (0 fresh, `restored_wall` resumed).
    pub vm_base: u64,
}

#[derive(Default)]
pub(crate) struct Mach {
    pub up: bool,
    epoch: u64,
    /// Queued jobs, each with the fleet time it was queued here.
    queue: VecDeque<(usize, u64)>,
    /// Sum of cost estimates of queued jobs (backlog for `LeastLoaded`).
    queued_cycles: u64,
    running: Option<Running>,
    /// Fleet time the current run completes (for backlog estimation).
    completes: u64,
}

impl Mach {
    pub(crate) fn queue(&self) -> &VecDeque<(usize, u64)> {
        &self.queue
    }

    pub(crate) fn running(&self) -> Option<&Running> {
        self.running.as_ref()
    }

    /// Estimated virtual cycles of queued plus remaining running work.
    pub(crate) fn backlog(&self, now: u64) -> u64 {
        let running = self
            .running
            .as_ref()
            .map(|_| self.completes.saturating_sub(now));
        self.queued_cycles + running.unwrap_or(0)
    }
}

/// What a completion hands the layers: the request's end-to-end latency,
/// the winning wave's, and whether the winning attempt was the hedge.
pub(crate) struct Completion {
    pub class: usize,
    pub latency: u64,
    pub wave_latency: u64,
    pub was_hedge: bool,
}

pub(crate) struct Kernel<'a> {
    pub cfg: &'a ClusterConfig,
    pub profile: &'a FleetProfile,
    /// The experiment's VM re-executions, shared with every other replay.
    runs: &'a Reruns,
    pub policy: Box<dyn BalancePolicy>,
    pub jobs: Vec<Job>,
    pub machines: Vec<Mach>,
    events: Events,
    /// Jobs waiting at the front-end because no machine is up.
    pub pending: VecDeque<usize>,
    pub metrics: MetricsRegistry,
    /// `cluster.latency.<class>` per class, named once per replay.
    latency_names: Vec<String>,
    pub crash_events: Vec<CrashEvent>,
    pub migration_events: Vec<MigrationEvent>,
    pub failures: Vec<String>,
    /// Request-level tracing (`ClusterConfig::scope`); observation only,
    /// never charges virtual cycles or touches the event queue.
    pub scope: Option<Scope>,
}

impl<'a> Kernel<'a> {
    pub(crate) fn new(
        cfg: &'a ClusterConfig,
        profile: &'a FleetProfile,
        runs: &'a Reruns,
        policy: Box<dyn BalancePolicy>,
        trace: &[Request],
        span: u64,
    ) -> Self {
        let jobs = trace.iter().map(|r| Job {
            arrival: r.arrival,
            class: r.class,
            ..Job::default()
        });
        let machines = (0..cfg.machines).map(|_| Mach {
            up: true,
            ..Mach::default()
        });
        let class_names = profile.classes.iter().map(|c| c.workload.name().into());
        let latency_name = |c: &ClassProfile| format!("cluster.latency.{}", c.workload.name());
        Kernel {
            cfg,
            profile,
            runs,
            policy,
            jobs: jobs.collect(),
            machines: machines.collect(),
            events: Events::default(),
            pending: VecDeque::new(),
            metrics: MetricsRegistry::default(),
            latency_names: profile.classes.iter().map(latency_name).collect(),
            crash_events: Vec::new(),
            migration_events: Vec::new(),
            failures: Vec::new(),
            scope: cfg
                .scope
                .then(|| Scope::new(cfg.machines, class_names.collect(), span, trace.len())),
        }
    }

    /// Schedule `ev` at `time`, after everything already scheduled then.
    pub(crate) fn push(&mut self, time: u64, ev: Ev) {
        self.events.push(time, ev);
    }

    /// Take the next event in `(time, insertion seq)` order.
    pub(crate) fn pop(&mut self) -> Option<(u64, Ev)> {
        self.events.pop()
    }

    /// Run a hera-scope hook when scope is on.
    pub(crate) fn observe(&mut self, hook: impl FnOnce(&mut Scope)) {
        if let Some(sc) = self.scope.as_mut() {
            hook(sc);
        }
    }

    fn ref_outcome(&self, job: usize, fallback_machine: usize) -> &Arc<RunOutcome> {
        let j = &self.jobs[job];
        &self.profile.reference[j.class][j.origin.unwrap_or(fallback_machine)]
    }

    pub(crate) fn transfer_cycles(&self, bytes: u64) -> u64 {
        TRANSFER_LATENCY_CYCLES + bytes / TRANSFER_BYTES_PER_CYCLE
    }

    /// Estimated cost of `job` if placed on `machine` now: dispatch
    /// overhead, plus snapshot transfer and remaining cycles when
    /// resuming, or the full service time when fresh.
    pub(crate) fn estimate(&self, job: usize, machine: usize) -> u64 {
        let j = &self.jobs[job];
        match &j.resume {
            Some(r) => {
                let wall = self.ref_outcome(job, machine).stats.wall_cycles;
                DISPATCH_CYCLES
                    + self.transfer_cycles(r.bytes.len() as u64)
                    + wall.saturating_sub(r.restored_wall)
            }
            None => DISPATCH_CYCLES + self.profile.reference[j.class][machine].stats.wall_cycles,
        }
    }

    /// Book an attempt of `job` on machine `m` (a hedge duplicate when
    /// `hedge`), queue it there, and start it if the machine is idle.
    pub(crate) fn place(
        &mut self,
        m: usize,
        job: usize,
        hedge: bool,
        now: u64,
    ) -> Result<(), ClusterError> {
        debug_assert!(
            self.jobs[job].placements.iter().all(|&(pm, _)| pm != m),
            "job {job} placed twice on machine {m}"
        );
        self.jobs[job].placements.push((m, hedge));
        self.observe(|sc| sc.on_enqueue(m, job, now, hedge));
        let est = self.estimate(job, m);
        let mach = &mut self.machines[m];
        mach.queue.push_back((job, now));
        mach.queued_cycles += est;
        self.try_start(m, now)
    }

    fn unbook(&mut self, m: usize, job: usize) {
        self.jobs[job].placements.retain(|&(pm, _)| pm != m);
    }

    /// Take queued `job` off machine `m`. Returns when it was queued
    /// there, or `None` when it was not there.
    pub(crate) fn detach_queued(&mut self, m: usize, job: usize) -> Option<u64> {
        let pos = self.machines[m].queue.iter().position(|&(q, _)| q == job)?;
        let est = self.estimate(job, m);
        let mach = &mut self.machines[m];
        let (_, enqueued) = mach.queue.remove(pos)?;
        mach.queued_cycles = mach.queued_cycles.saturating_sub(est);
        self.unbook(m, job);
        self.check(m);
        Some(enqueued)
    }

    /// Take the running job off machine `m`; the epoch bump makes its
    /// pending `Done` stale. Starting the next job is the caller's call.
    pub(crate) fn detach_running(&mut self, m: usize) -> Option<Running> {
        let mach = &mut self.machines[m];
        let run = mach.running.take()?;
        mach.epoch += 1;
        mach.completes = 0;
        self.unbook(m, run.job);
        self.check(m);
        Some(run)
    }

    /// Take every queued job off machine `m`, in queue order, each with
    /// the time it was queued.
    pub(crate) fn evict(&mut self, m: usize) -> Vec<(usize, u64)> {
        let mach = &mut self.machines[m];
        let queued: Vec<(usize, u64)> = mach.queue.drain(..).collect();
        mach.queued_cycles = 0;
        for &(job, _) in &queued {
            self.unbook(m, job);
        }
        self.check(m);
        queued
    }

    /// Cancel `job`'s attempt on machine `m`: pull it out of the queue,
    /// or — if it is the running job — detach it and start the next
    /// queued job.
    pub(crate) fn cancel(&mut self, m: usize, job: usize, now: u64) -> Result<(), ClusterError> {
        if self.machines[m].running().is_some_and(|r| r.job == job) {
            self.observe(|sc| sc.on_cancel_running(m, now));
            let run = self
                .detach_running(m)
                .expect("the job was just seen running");
            let wasted = now.saturating_sub(run.exec_start);
            self.metrics.record("resil.cancelled_cycles", wasted);
            return self.try_start(m, now);
        }
        let enqueued = self.detach_queued(m, job);
        debug_assert!(
            enqueued.is_some(),
            "job {job} booked on machine {m} but not resident"
        );
        if let Some(enqueued) = enqueued {
            self.observe(|sc| sc.on_cancel_queued(m, job, enqueued, now));
        }
        Ok(())
    }

    /// Start the next queued job on `m` if it is idle and up. Resumed
    /// jobs run their adoption proof here: a real `adopt_bytes` run on
    /// this machine, compared against the unmigrated reference.
    pub(crate) fn try_start(&mut self, m: usize, now: u64) -> Result<(), ClusterError> {
        self.check(m); // covers a `place` onto a busy machine, which starts nothing
        if !self.machines[m].up || self.machines[m].running.is_some() {
            return Ok(());
        }
        let Some((job, enqueued)) = self.machines[m].queue.pop_front() else {
            return Ok(());
        };
        let est = self.estimate(job, m);
        self.machines[m].queued_cycles = self.machines[m].queued_cycles.saturating_sub(est);

        let (exec_start, vm_base, exec_cycles) = match self.jobs[job].resume.clone() {
            Some(r) => {
                let wall = self.prove_adoption(job, m, &r)?;
                (
                    now + DISPATCH_CYCLES + self.transfer_cycles(r.bytes.len() as u64),
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
                    now + DISPATCH_CYCLES,
                    0,
                    self.ref_outcome(job, m).stats.wall_cycles,
                )
            }
        };
        let completes = exec_start + exec_cycles;
        let hedge = self.jobs[job].placements.contains(&(m, true));
        let transfer = (exec_start - now).saturating_sub(DISPATCH_CYCLES);
        let waited = (enqueued, now);
        self.observe(|sc| sc.on_start(m, job, waited, exec_start, hedge, transfer));
        let mach = &mut self.machines[m];
        mach.running = Some(Running {
            job,
            exec_start,
            vm_base,
        });
        mach.completes = completes;
        let epoch = mach.epoch;
        self.push(completes, Ev::Done { machine: m, epoch });
        self.check(m);
        Ok(())
    }

    /// The `Done` of `epoch` fired on machine `m`: take its running job,
    /// or `None` when it is stale (crashed, cancelled or migrated away).
    pub(crate) fn finish_running(&mut self, m: usize, epoch: u64) -> Option<usize> {
        let mach = &mut self.machines[m];
        if !mach.up || mach.epoch != epoch {
            return None;
        }
        mach.running.take().map(|run| run.job)
    }

    /// `job` finished on machine `m`. First completion wins: any losing
    /// attempt elsewhere is cancelled, and the job resolves `Completed`.
    pub(crate) fn complete(
        &mut self,
        job: usize,
        m: usize,
        now: u64,
    ) -> Result<Completion, ClusterError> {
        let mut was_hedge = false;
        for (pm, hedge) in std::mem::take(&mut self.jobs[job].placements) {
            if pm == m {
                was_hedge = hedge;
            } else {
                self.cancel(pm, job, now)?;
                self.metrics.add("resil.hedge.losers_cancelled", 1);
            }
        }
        let j = &mut self.jobs[job];
        debug_assert!(j.completed_at.is_none(), "job completed twice");
        j.completed_at = Some(now);
        j.outcome = Outcome::Completed;
        j.gen += 1; // invalidate the wave's pending timeout/hedge events
        let done = Completion {
            class: j.class,
            latency: now - j.arrival,
            wave_latency: now.saturating_sub(j.wave_start),
            was_hedge,
        };
        self.metrics.record("cluster.latency", done.latency);
        self.metrics
            .record(&self.latency_names[done.class], done.latency);
        self.metrics.add("cluster.completed", 1);
        self.observe(|sc| sc.on_complete(job, m, now));
        self.check(m);
        Ok(done)
    }

    /// Drop `job` through the shed path: graceful refusal, reported —
    /// never a silent loss.
    pub(crate) fn shed(&mut self, job: usize, now: u64, why: &str) {
        let j = &mut self.jobs[job];
        debug_assert!(j.outcome == Outcome::Pending, "shed a resolved job");
        debug_assert!(j.placements.is_empty(), "shed a placed job");
        j.outcome = Outcome::Shed;
        j.gen += 1; // invalidate the wave's pending events
        self.metrics.add("cluster.shed", 1);
        self.metrics.add(why, 1);
        self.observe(|sc| sc.on_shed(job, now));
    }

    /// Debug-build check of the module invariants on machine `m`.
    fn check(&self, m: usize) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mach = &self.machines[m];
        let queued: u64 = mach.queue.iter().map(|&(j, _)| self.estimate(j, m)).sum();
        assert_eq!(
            mach.queued_cycles, queued,
            "machine {m}: queued_cycles out of step with its queue"
        );
        let running = mach.running.as_ref().map(|r| r.job);
        for job in mach.queue.iter().map(|&(j, _)| j).chain(running) {
            let j = &self.jobs[job];
            let booked = &j.placements;
            assert!(
                j.outcome == Outcome::Pending,
                "resolved job {job} resident on machine {m}"
            );
            assert_eq!(
                booked.iter().filter(|&&(pm, _)| pm == m).count(),
                1,
                "job {job} resident on machine {m} without exactly one placement there"
            );
            assert!(
                matches!(booked[..], [_] | [(_, false), (_, true)]),
                "job {job} holds placements {booked:?}: not one attempt, or a primary then a hedge"
            );
        }
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
    ///
    /// The adoption runs come from the experiment's run table: a snapshot
    /// adopted on one machine configuration runs once per experiment,
    /// however many replays resume from it, and its two cross-shape
    /// adoptions are two entries. The checks against this job's reference
    /// and its failures, counters and migration record are this job's.
    fn prove_adoption(&mut self, job: usize, m: usize, r: &Resume) -> Result<u64, ClusterError> {
        let class = self.jobs[job].class;
        let cross = r.shape != self.profile.shapes[m] || self.jobs[job].cross_shape;
        let vm_cfg = machine_vm_config(self.cfg, self.profile.plans[m], self.profile.shapes[m]);
        let adopt = |replay| {
            let key = RunKey::new(class, replay, vm_cfg, Some(Arc::clone(&r.bytes)));
            self.runs.adopted(&self.profile.classes, key)
        };
        let out = adopt(0)?;
        let (who, peer, versus) = if cross {
            let replay = adopt(1)?;
            let versus = "between two replays of the same snapshot";
            ("cross-shape adopted", replay, versus)
        } else {
            let reference = Arc::clone(self.ref_outcome(job, m));
            ("adopted", reference, "from the unmigrated run")
        };
        let mut ok = true;
        for (what, same) in [
            ("result", out.result == peer.result),
            ("traps", out.traps == peer.traps),
            ("output", out.output == peer.output),
            ("final heap image", out.heap_digest == peer.heap_digest),
            (
                "wall cycles",
                out.stats.wall_cycles == peer.stats.wall_cycles,
            ),
        ] {
            if !same {
                ok = false;
                self.failures.push(format!(
                    "job {job} {who} on machine {m}: {what} diverged {versus}"
                ));
            }
        }
        if cross {
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
        }
        if let Some(idx) = self.jobs[job].pending_migration.take() {
            self.migration_events[idx].verified_identical = ok;
        }
        self.metrics.add("cluster.adoption.proofs", 1);
        Ok(out.stats.wall_cycles)
    }

    /// Interrupt `run` on machine `m` at `now`: re-execute the job for
    /// real with a machine crash at the VM cycle it had reached (a run
    /// from the experiment's table, shared with every replay that crashes
    /// the same job state there), and take the freshest snapshot that had
    /// streamed out before the machine died — the doomed run's last
    /// checkpoint, else the snapshot the job was already resuming from.
    /// Returns the new resume state (`None`: full restart) and the
    /// re-executed cycles; or `None` when the crash fell after the last
    /// safepoint and the job finished first.
    pub(crate) fn interrupt(
        &self,
        run: &Running,
        m: usize,
        now: u64,
    ) -> Result<Option<(Option<Resume>, u64)>, ClusterError> {
        let j = &self.jobs[run.job];
        let abs = run.vm_base + (now - run.exec_start);
        let plan = self.profile.plans[m].with_machine_crash(abs);
        let vm_cfg = machine_vm_config(self.cfg, plan, self.profile.shapes[m]);
        let start = j.resume.as_ref().map(|r| Arc::clone(&r.bytes));
        let key = RunKey::new(j.class, 0, vm_cfg, start);
        let Doomed::Crashed {
            at_cycle,
            checkpoint,
        } = self.runs.doomed(&self.profile.classes, key)?
        else {
            return Ok(None);
        };
        let resume = checkpoint.or_else(|| j.resume.clone());
        let reexec = at_cycle.saturating_sub(resume.as_ref().map_or(0, |r| r.restored_wall));
        Ok(Some((resume, reexec)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_rng::SplitMix64;
    use std::cmp::Reverse;

    /// The schedule before the packed key and the deadline lane: one heap
    /// in the derived `(time, seq, Ev)` tuple order.
    #[derive(Default)]
    struct ReferenceEvents {
        heap: BinaryHeap<Reverse<(u64, u64, Ev)>>,
        seq: u64,
    }

    impl ReferenceEvents {
        fn push(&mut self, time: u64, ev: Ev) {
            self.seq += 1;
            self.heap.push(Reverse((time, self.seq, ev)));
        }

        fn pop(&mut self) -> Option<(u64, Ev)> {
            self.heap.pop().map(|Reverse((now, _, ev))| (now, ev))
        }
    }

    /// An event of any kind, its operands drawn small so equal events
    /// recur.
    fn any_event(rng: &mut SplitMix64) -> Ev {
        let (a, gen) = (rng.next_below(3) as usize, rng.next_below(3) as u32);
        match rng.next_below(10) {
            0 => Ev::Arrive(a),
            1 => Ev::Done {
                machine: a,
                epoch: gen as u64,
            },
            2 => Ev::Crash { machine: a },
            3 => Ev::Migrate { machine: a },
            4 => Ev::Recover { machine: a },
            5 => Ev::Timeout { job: a, gen },
            6 => Ev::Retry { job: a, gen },
            7 => Ev::HedgeCheck { job: a, gen },
            8 => Ev::Probe { machine: a },
            _ => Ev::Rebalance,
        }
    }

    /// Random interleavings of pushes and pops, the way the fleet makes
    /// them — deadlines at `now + deadline`, every kind of event at or
    /// near `now` (equal times included), deadlines at other times too —
    /// pop in the reference heap's order.
    #[test]
    fn events_pop_in_the_reference_order() {
        let mut lane_peak = 0;
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let deadline = [0, 1, 3, 50][seed as usize % 4];
            let (mut events, mut reference) = (Events::default(), ReferenceEvents::default());
            let mut now = 0;
            for step in 0..3_000 {
                let (time, ev) = match rng.next_below(10) {
                    0..=2 => {
                        let (job, gen) = (rng.next_below(3) as usize, rng.next_below(3) as u32);
                        (now + deadline, Ev::Timeout { job, gen })
                    }
                    3..=5 => (now + rng.next_below(4), any_event(&mut rng)),
                    6 => (now + rng.next_below(100), any_event(&mut rng)),
                    _ => {
                        let popped = events.pop();
                        assert_eq!(popped, reference.pop(), "seed {seed}, step {step}");
                        now = popped.map_or(now, |(t, _)| t);
                        continue;
                    }
                };
                events.push(time, ev);
                reference.push(time, ev);
                lane_peak = lane_peak.max(events.deadlines.len());
            }
            loop {
                let popped = events.pop();
                assert_eq!(popped, reference.pop(), "seed {seed}, draining");
                if popped.is_none() {
                    break;
                }
            }
        }
        assert!(lane_peak > 1, "no deadline ever waited in the lane");
    }
}

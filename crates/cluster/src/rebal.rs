//! Proactive degradation: breaker-triggered drain, sustained slowdown
//! detection, and the periodic auto-rebalancer.
//!
//! hera-resil is *reactive* — it waits for a deadline to blow or a
//! machine to crash before routing around it, and every request resident
//! on a sick machine pays the timeout first. This layer acts on the same
//! health signals *before* the requests fail: when a breaker opens (or a
//! machine's reference service time is persistently worse than its
//! same-shape peers), the fleet drains it — queued jobs requeue to the
//! healthiest peers immediately and the in-flight job live-migrates
//! through the standard snapshot machinery, paying the usual transfer
//! and re-execution charges. Independently, a periodic seeded rebalance
//! event compares expected drain times `(queued + running) /
//! capacity_permille` across machines and moves queued work when the
//! skew exceeds a threshold.
//!
//! Determinism discipline: every decision is a pure function of fleet
//! state at a virtual instant, rebalance ticks are scheduled up front
//! from the seed, and hysteresis is structural — a machine drains at
//! most once per breaker episode, concurrent drains are bounded, and a
//! post-move cooldown keeps the rebalancer from ping-ponging a job
//! between two machines. With `ClusterConfig::rebal` at its default
//! (`None`) none of this code runs and every golden report is
//! byte-identical to the previous release.
//!
//! Below its constants and its one knob is the layer as the fleet runs it: [`Rebal`] and its
//! handlers, written against the kernel's placement interface — a drain
//! is an `evict` plus `dispatch`es and a live migration, a rebalance
//! move a `detach_queued` plus a `place`. `Sim::rebal` being `Some` is
//! the on-switch.

use crate::fleet::Sim;
use crate::kernel::Kernel;
use crate::ClusterError;
use hera_rng::splitmix64;

/// Salt for rebalance-tick jitter draws.
const REBAL_SALT: u64 = 0x7265_6261_6c2d_7469; // "rebal-ti"

/// Consecutive slow completions before a sustained-slowdown drain fires.
pub(crate) const SLOW_AFTER: u32 = 2;
/// A completion counts as "slow" when the machine's reference wall for
/// the class is at least `best_same_shape_wall * this / 1000`.
pub(crate) const SLOW_FACTOR_PERMILLE: u64 = 2_000;
/// Upper bound on machines draining at once; further drain triggers are
/// counted and skipped.
pub(crate) const MAX_CONCURRENT_DRAINS: usize = 2;
/// A queued job moves only when the worst machine's expected drain time
/// exceeds `best * this / 1000`.
pub(crate) const SKEW_THRESHOLD_PERMILLE: u64 = 2_000;
/// After a rebalance move, both participants sit out further moves for
/// this per-mille fraction of the span (hysteresis).
pub(crate) const COOLDOWN_PERMILLE: u64 = 100;
/// Most queued jobs one rebalance tick may move.
const MAX_MOVES_PER_EVENT: usize = 2;

/// The proactive-degradation layer's one knob. A machine drains the
/// moment its breaker opens and after [`SLOW_AFTER`] slow completions,
/// whatever the config; the config sets how often the periodic
/// rebalancer runs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RebalConfig {
    /// Rebalance-tick period as a per-mille fraction of the trace's
    /// arrival span; 0 disables the periodic rebalancer (drains still
    /// fire).
    pub rebalance_every_permille: u32,
}

impl Default for RebalConfig {
    fn default() -> Self {
        RebalConfig {
            rebalance_every_permille: 50,
        }
    }
}

impl RebalConfig {
    /// Drain-only preset: breaker and slowdown drains on, periodic
    /// rebalancer off. Isolates the proactive-drain effect in matrices.
    pub fn drains_only() -> Self {
        RebalConfig {
            rebalance_every_permille: 0,
        }
    }
}

/// The proactive layer's state for one replay.
pub(crate) struct Rebal {
    pub cfg: RebalConfig,
    /// Machines currently drained (reset when the breaker closes or the
    /// machine recovers from a crash) — structural once-per-episode
    /// hysteresis for the drain triggers.
    draining: Vec<bool>,
    /// Consecutive slow completions per machine (sustained-slowdown
    /// drain signal).
    slow_streak: Vec<u32>,
    /// Per-machine rebalance cooldown deadline (fleet-virtual time).
    quiet_until: Vec<u64>,
    /// Post-move cooldown in cycles ([`COOLDOWN_PERMILLE`] of the span).
    cooldown: u64,
}

impl Rebal {
    pub fn new(cfg: RebalConfig, machines: usize, span: u64) -> Rebal {
        Rebal {
            cfg,
            draining: vec![false; machines],
            slow_streak: vec![0; machines],
            quiet_until: vec![0; machines],
            cooldown: span / 1000 * COOLDOWN_PERMILLE,
        }
    }

    /// The rebalance-tick times over a trace of arrival span `span`:
    /// laid out up front with seeded jitter, so the whole schedule is a
    /// pure function of the config.
    pub fn ticks(&self, seed: u64, span: u64) -> Vec<u64> {
        if self.cfg.rebalance_every_permille == 0 || span == 0 {
            return Vec::new();
        }
        let period = (span / 1000 * self.cfg.rebalance_every_permille as u64).max(1);
        (1..=span / period)
            .map(|k| {
                let jitter = splitmix64(seed ^ REBAL_SALT.wrapping_add(k)) % (period / 8 + 1);
                k * period + jitter
            })
            .collect()
    }

    /// Machine `m` starts a fresh drain episode.
    pub fn end_episode(&mut self, m: usize) {
        self.draining[m] = false;
        self.slow_streak[m] = 0;
    }
}

/// The most recently queued job on machine `m` a rebalance tick may
/// move: singly placed and not awaiting an adoption proof.
fn movable(k: &Kernel, m: usize) -> Option<usize> {
    let free =
        |j: &usize| k.jobs[*j].placements().len() == 1 && k.jobs[*j].pending_migration.is_none();
    let mut queued = k.machines[m].queue().iter().rev().map(|&(job, _)| job);
    queued.find(free)
}

impl Sim<'_> {
    /// Sustained-slowdown health signal: a completion on `m` counts as
    /// "slow" when the machine's reference wall for the class is at
    /// least [`SLOW_FACTOR_PERMILLE`] of the best same-shape peer's (shape
    /// differences are expected, sickness is not). [`SLOW_AFTER`]
    /// consecutive slow completions trigger a proactive drain.
    pub(crate) fn observe_slowness(
        &mut self,
        class: usize,
        m: usize,
        now: u64,
    ) -> Result<(), ClusterError> {
        let Some(rb) = self.rebal.as_mut() else {
            return Ok(());
        };
        if rb.draining[m] {
            return Ok(());
        }
        let mine = self.k.profile.reference[class][m].stats.wall_cycles;
        let best = self.k.profile.best_same_shape[class][m];
        let slow = mine.saturating_mul(1000) >= best.saturating_mul(SLOW_FACTOR_PERMILLE);
        rb.slow_streak[m] = if slow { rb.slow_streak[m] + 1 } else { 0 };
        if rb.slow_streak[m] >= SLOW_AFTER {
            rb.slow_streak[m] = 0;
            self.k.metrics.add("rebal.drain.slow_triggers", 1);
            self.proactive_drain(m, now)?;
        }
        Ok(())
    }

    /// Proactively drain machine `m`: requeue its queued jobs onto the
    /// healthiest peers immediately and live-migrate the in-flight job,
    /// instead of letting every resident request discover the sickness
    /// one timeout at a time. Bounded by [`MAX_CONCURRENT_DRAINS`]; a
    /// machine drains at most once per episode (the flag resets when its
    /// breaker closes or it recovers from a crash), so drain storms are
    /// structurally impossible.
    pub(crate) fn proactive_drain(&mut self, m: usize, now: u64) -> Result<(), ClusterError> {
        let Some(rb) = self.rebal.as_mut() else {
            return Ok(());
        };
        if rb.draining[m] || !self.k.machines[m].up {
            return Ok(());
        }
        if rb.draining.iter().filter(|&&d| d).count() >= MAX_CONCURRENT_DRAINS {
            self.k.metrics.add("rebal.drain.skipped_concurrent", 1);
            return Ok(());
        }
        rb.draining[m] = true;
        self.k.metrics.add("rebal.drain.events", 1);
        // Queued jobs first: requeue them through the policy (which sees
        // breaker state and advertised capacity, so they land on the
        // healthiest peers). Hedged twins just drop this attempt.
        let mut moved = 0u64;
        for (job, enqueued) in self.k.evict(m) {
            if self.k.jobs[job].placements().is_empty() {
                self.k.metrics.add("rebal.drains", 1);
                moved += 1;
                self.k.observe(|sc| sc.on_drain(m, job, enqueued, now));
                self.dispatch(job, now, &[m])?;
            } else {
                self.k.metrics.add("rebal.drain.dropped_hedged", 1);
                self.k
                    .observe(|sc| sc.on_queue_interrupt(m, job, enqueued, now));
            }
        }
        // The in-flight job live-migrates through the standard
        // machinery, paying the usual transfer + re-execution charges.
        let migrated = self.migrate_off(m, now, true)?;
        if moved == 0 && !migrated {
            // The episode moved nothing (the machine was idle, or every
            // resident was a hedged twin): release the latch so a later
            // trigger can catch a real queue. Re-arming still costs
            // `SLOW_AFTER` further slow completions, so this cannot
            // thrash.
            let rb = self
                .rebal
                .as_mut()
                .expect("the layer is on: it started this drain");
            rb.draining[m] = false;
            self.k.metrics.add("rebal.drain.empty_episodes", 1);
        }
        Ok(())
    }

    /// The next move of a rebalance tick, as `(source, destination, job)`:
    /// among the up, rested machines, from the worst expected drain time
    /// `(queued + running) / capacity` with a movable job to the best not
    /// behind an open breaker, if the skew exceeds the threshold. Ties
    /// keep the lowest machine index on both sides (determinism); the job
    /// is the most recently queued movable one — the head of the queue is
    /// about to run there anyway.
    fn next_move(&self, rb: &Rebal, now: u64) -> Option<(usize, usize, usize)> {
        let mut worst: Option<(usize, u64, usize)> = None;
        let mut best: Option<(usize, u64)> = None;
        for (m, mach) in self.k.machines.iter().enumerate() {
            if !mach.up || now < rb.quiet_until[m] {
                continue;
            }
            let e = mach.backlog(now).saturating_mul(1000) / self.capacity_permille(m);
            if let Some(job) = movable(&self.k, m).filter(|_| worst.is_none_or(|w| e > w.1)) {
                worst = Some((m, e, job));
            }
            if !self.breaker_open(m) && best.is_none_or(|(_, be)| e < be) {
                best = Some((m, e));
            }
        }
        let ((src, src_e, job), (dst, dst_e)) = worst.zip(best)?;
        let skewed = src_e > dst_e.saturating_mul(SKEW_THRESHOLD_PERMILLE) / 1000;
        (src != dst && skewed).then_some((src, dst, job))
    }

    /// One periodic rebalance tick: move queued jobs from the worst
    /// machine to the best while the skew exceeds the threshold. Movers
    /// and receivers then sit out `cooldown` cycles, so a job can never
    /// ping-pong between two machines.
    pub(crate) fn rebalance(&mut self, now: u64) -> Result<(), ClusterError> {
        if self.rebal.is_none() {
            return Ok(());
        }
        self.k.metrics.add("rebal.ticks", 1);
        for _ in 0..MAX_MOVES_PER_EVENT {
            let next = self.rebal.as_ref().and_then(|rb| self.next_move(rb, now));
            let Some((src, dst, job)) = next else {
                break;
            };
            let enqueued = self
                .k
                .detach_queued(src, job)
                .expect("a rebalance move takes a job queued on its source");
            self.k.metrics.add("rebal.moves", 1);
            self.k.metrics.add("rebal.drains", 1);
            self.k.observe(|sc| sc.on_drain(src, job, enqueued, now));
            self.k.place(dst, job, false, now)?;
            if let Some(rb) = self.rebal.as_mut() {
                rb.quiet_until[src] = now + rb.cooldown;
                rb.quiet_until[dst] = now + rb.cooldown;
            }
        }
        Ok(())
    }
}

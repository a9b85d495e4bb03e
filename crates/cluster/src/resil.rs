//! hera-resil: deterministic request-level resilience primitives.
//!
//! Everything in this module is pure data plus integer arithmetic keyed
//! by the experiment seed — no wall clocks, no host randomness — so the
//! whole resilience stack (deadlines, retries, hedging, breakers,
//! shedding) composes with the fleet simulator without breaking its
//! headline property: same config ⇒ byte-identical report.
//!
//! The moving parts (DESIGN.md §4.14 has the full state machines):
//!
//! * **Deadlines + retries.** Every attempt *wave* gets
//!   [`ResilConfig::deadline_cycles`] of fleet-virtual time; a wave that
//!   misses it is cancelled everywhere and retried after
//!   [`backoff_cycles`] — exponential in the retry count with seeded
//!   jitter, charged in fleet-virtual time exactly like the MFC retry
//!   backoff inside a single machine.
//! * **Hedging.** When a wave outlives the p95 of its class's observed
//!   attempt-latency histogram, a duplicate is dispatched to a second
//!   machine; first completion wins and the loser is cancelled through
//!   the existing per-machine epoch guard.
//! * **Circuit breakers.** Per-machine closed → open → half-open with
//!   trips on consecutive wave timeouts or a crash, and a seeded probe
//!   schedule ([`Breaker::probe_delay`]) that backs off with the trip
//!   count.
//! * **Shedding.** Admission control refuses a request whose best-case
//!   completion estimate already blows the deadline; queue caps route
//!   overflow through the same shed path.
//!
//! The second half of the file is the layer as the fleet runs it:
//! [`Resil`] and its event arms, written against the kernel's placement
//! interface. `Sim::resil` being `Some` is the on-switch.

use crate::fleet::{Routed, Sim};
use crate::kernel::{Completion, Ev, Outcome};
use crate::policy::MachineView;
use crate::ClusterError;
use hera_rng::draw_word;
use hera_trace::{SpanKind, StreamingPercentile};

/// Salt for retry-backoff jitter draws (site-style; pairs with the
/// per-machine fault-plan salt in `fleet.rs`).
const BACKOFF_SALT: u64 = 0x7265_7369_6c2d_626f; // "resil-bo"
/// Salt for breaker probe-schedule jitter draws.
const PROBE_SALT: u64 = 0x7265_7369_6c2d_7072; // "resil-pr"

/// Retry waves after the first; a request that times out on its last
/// wave ends `TimedOut`.
pub(crate) const MAX_RETRIES: u32 = 2;
/// Jitter added to each backoff, as a per-mille fraction of the backoff
/// step, drawn deterministically from the seed.
const JITTER_PERMILLE: u64 = 250;
/// Minimum attempt-latency samples for a class before hedging may
/// trigger (an empty histogram has no p95 worth trusting).
const HEDGE_MIN_SAMPLES: usize = 20;
/// Consecutive wave timeouts on one machine that trip its breaker.
const BREAKER_TRIP_TIMEOUTS: u32 = 3;

/// Request-resilience knobs. `ClusterConfig::resil` is `None` by
/// default: the fleet behaves exactly as before — no deadlines, no
/// breakers, zero added virtual cycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResilConfig {
    /// Fleet-virtual cycles an attempt wave may take (dispatch to
    /// completion) before it is cancelled and retried.
    pub deadline_cycles: u64,
    /// Base of the exponential retry backoff (cycles).
    pub backoff_base_cycles: u64,
    /// End-to-end latency SLO (arrival to completion) used for the
    /// attainment figure in reports.
    pub slo_cycles: u64,
    /// Dispatch a duplicate attempt when a wave outlives its class's
    /// observed p95 attempt latency.
    pub hedging: bool,
    /// Per-machine circuit breakers + health-weighted balancing.
    pub breakers: bool,
    /// Base delay before an open breaker probes (half-open), doubled
    /// per consecutive trip, plus seeded jitter.
    pub probe_base_cycles: u64,
    /// Admission control: shed a request whose best-case completion
    /// estimate already exceeds the deadline.
    pub shedding: bool,
}

impl Default for ResilConfig {
    fn default() -> Self {
        ResilConfig {
            deadline_cycles: 40_000_000,
            backoff_base_cycles: 100_000,
            slo_cycles: 80_000_000,
            hedging: false,
            breakers: false,
            probe_base_cycles: 2_000_000,
            shedding: false,
        }
    }
}

impl ResilConfig {
    /// All three headline knobs on (the "full resilience" matrix row).
    pub fn full(self) -> Self {
        ResilConfig {
            hedging: true,
            breakers: true,
            shedding: true,
            ..self
        }
    }

    /// Reject knobs that could schedule an event past the end of fleet
    /// time: each longest delay must stay within
    /// [`crate::MAX_DELAY_CYCLES`]. A deadline fires `deadline_cycles`
    /// ahead; a retry less than two backoff steps ahead, the step the base
    /// doubled per retry after the first ([`backoff_cycles`]); a probe at
    /// most 1.25 probe steps ahead, the step the base doubled per trip up
    /// to 2^8 times ([`Breaker::probe_delay`]).
    pub(crate) fn validate(&self) -> Result<(), ClusterError> {
        let step = self
            .backoff_base_cycles
            .saturating_mul(1 << (MAX_RETRIES - 1));
        let backoff = step.saturating_mul(2);
        let step = self.probe_base_cycles.saturating_mul(1 << 8);
        let probe = step.saturating_add(step / 4);
        ClusterError::check_delay("resil.deadline_cycles", self.deadline_cycles)?;
        ClusterError::check_delay("resil.backoff_base_cycles", backoff)?;
        ClusterError::check_delay("resil.probe_base_cycles", probe)
    }
}

/// Advertised capacity of a machine in per-mille of its healthy self,
/// as fed to health-weighted balancing ([`crate::MachineView`]): a
/// straggler running at `slowdown_factor`× advertises `1000 / factor`,
/// a half-open breaker caps the advertisement at 250 so probe traffic
/// stays a trickle, and the floor of 1 keeps capacity-weighted
/// arithmetic divide-safe. Pure integer function of its inputs — the
/// property tests in `tests/cluster.rs` pin the 1..=1000 bounds and
/// monotonicity in health.
pub fn advertised_capacity_permille(slowdown_factor: u32, half_open: bool) -> u64 {
    let mut cap = if slowdown_factor >= 2 {
        1000 / slowdown_factor as u64
    } else {
        1000
    };
    if half_open {
        cap = cap.min(250);
    }
    cap.max(1)
}

/// Backoff before retry wave `retry` (1-based) of `job`: exponential in
/// the retry count with seeded jitter. Pure function of its arguments,
/// and strictly monotone in `retry` — jitter is bounded by a fraction
/// of the step, so a later wave always waits longer than an earlier one.
pub fn backoff_cycles(cfg: &ResilConfig, seed: u64, job: usize, retry: u32) -> u64 {
    let step = cfg
        .backoff_base_cycles
        .saturating_mul(1u64 << (retry - 1).min(16));
    let span = step / 1000 * JITTER_PERMILLE;
    let jitter = if span == 0 {
        0
    } else {
        draw_word(seed ^ BACKOFF_SALT, job as u64, retry as u64, 0) % span
    };
    step + jitter
}

/// Circuit-breaker state (one per machine when breakers are enabled).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BreakerState {
    /// Healthy: requests route normally.
    #[default]
    Closed,
    /// Tripped: the machine is excluded from placement until the probe
    /// at `probe_at` moves it to half-open.
    Open { probe_at: u64 },
    /// Probing: the machine takes trial traffic at reduced advertised
    /// capacity; one success closes, one timeout re-opens.
    HalfOpen,
}

/// Per-machine breaker: closed / open / half-open with seeded probes.
#[derive(Clone, Debug, Default)]
pub struct Breaker {
    pub state: BreakerState,
    /// Wave timeouts since the last success.
    pub consecutive_timeouts: u32,
    /// Times this breaker has tripped (drives probe backoff).
    pub trips: u32,
}

impl Breaker {
    pub fn new() -> Breaker {
        Breaker::default()
    }

    /// Probe delay for trip number `trips` (1-based) of `machine`:
    /// exponential in the trip count with seeded jitter. Deterministic,
    /// so the whole probe schedule replays bit-identically.
    pub fn probe_delay(cfg: &ResilConfig, seed: u64, machine: usize, trips: u32) -> u64 {
        let step = cfg
            .probe_base_cycles
            .saturating_mul(1u64 << (trips.saturating_sub(1)).min(8));
        let span = (step / 4).max(1);
        step + draw_word(seed ^ PROBE_SALT, machine as u64, trips as u64, 0) % span
    }

    /// Trip (or re-trip) the breaker: open it and return the time its
    /// probe fires — the caller schedules the probe event.
    fn trip(&mut self, cfg: &ResilConfig, seed: u64, machine: usize, now: u64) -> Option<u64> {
        self.trips += 1;
        let at = now + Self::probe_delay(cfg, seed, machine, self.trips);
        self.state = BreakerState::Open { probe_at: at };
        Some(at)
    }

    /// A wave timed out on this machine. Returns `Some(probe_at)` when
    /// this trips (or re-trips) the breaker.
    pub fn on_timeout(
        &mut self,
        cfg: &ResilConfig,
        seed: u64,
        machine: usize,
        now: u64,
    ) -> Option<u64> {
        match self.state {
            BreakerState::Open { .. } => None,
            // The trial failed: straight back to open, longer wait.
            BreakerState::HalfOpen => self.trip(cfg, seed, machine, now),
            BreakerState::Closed => {
                self.consecutive_timeouts += 1;
                (self.consecutive_timeouts >= BREAKER_TRIP_TIMEOUTS)
                    .then(|| self.trip(cfg, seed, machine, now))
                    .flatten()
            }
        }
    }

    /// The machine crashed: trip immediately regardless of counts.
    /// Returns `Some(probe_at)` when a probe needs scheduling.
    pub fn on_crash(
        &mut self,
        cfg: &ResilConfig,
        seed: u64,
        machine: usize,
        now: u64,
    ) -> Option<u64> {
        match self.state {
            BreakerState::Open { .. } => None,
            _ => self.trip(cfg, seed, machine, now),
        }
    }

    /// A request completed on this machine: close and reset. Returns
    /// `true` when this was a state *transition* (the breaker was open
    /// or half-open), so the caller can emit the close event exactly
    /// once rather than on every completion.
    pub fn on_success(&mut self) -> bool {
        let transitioned = self.state != BreakerState::Closed;
        self.state = BreakerState::Closed;
        self.consecutive_timeouts = 0;
        transitioned
    }

    /// The scheduled probe fired: open → half-open (trial traffic).
    /// Returns `true` when the transition actually happened (a stale
    /// probe against a breaker that re-tripped later is a no-op).
    pub fn on_probe(&mut self, now: u64) -> bool {
        if let BreakerState::Open { probe_at } = self.state {
            if now >= probe_at {
                self.state = BreakerState::HalfOpen;
                return true;
            }
        }
        false
    }

    /// Whether placement should avoid this machine entirely.
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }
}

/// The resilience layer's state for one replay.
pub(crate) struct Resil {
    pub cfg: ResilConfig,
    /// Per-machine circuit breakers (idle unless `cfg.breakers`).
    breakers: Vec<Breaker>,
    /// Exact nearest-rank p95 of the observed attempt latencies per class
    /// (dispatch → completion), read by the hedge trigger at every wave —
    /// the log2 metrics histograms overestimate by up to 2x, which is the
    /// difference between a hedge that beats a 4x straggler and one
    /// dispatched after the primary already finished.
    class_p95: Vec<StreamingPercentile>,
}

impl Resil {
    pub(crate) fn new(cfg: ResilConfig, machines: usize, classes: usize) -> Resil {
        Resil {
            cfg,
            breakers: vec![Breaker::new(); machines],
            class_p95: vec![StreamingPercentile::new(950); classes],
        }
    }

    /// Machine `m`'s breaker as the scope sampler codes it: 0 = closed,
    /// 1 = half-open, 2 = open.
    pub(crate) fn breaker_code(&self, m: usize) -> u64 {
        match self.breakers[m].state {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open { .. } => 2,
        }
    }
}

impl Sim<'_> {
    /// The layer's state when circuit breakers are on.
    fn breakers(&self) -> Option<&Resil> {
        self.resil.as_ref().filter(|r| r.cfg.breakers)
    }

    /// Whether placement should route around machine `m` entirely.
    pub(crate) fn breaker_open(&self, m: usize) -> bool {
        self.breakers().is_some_and(|r| r.breakers[m].is_open())
    }

    /// Advertised capacity of machine `m` in per-mille of a healthy
    /// machine. Only computed when health-weighted balancing is on
    /// (`resil.breakers`); otherwise every machine advertises 1000 and
    /// the policies behave exactly as before.
    pub(crate) fn capacity_permille(&self, m: usize) -> u64 {
        let Some(r) = self.breakers() else {
            return 1000;
        };
        let plan = &self.k.profile.plans[m];
        let factor = if plan.slowdown_active() {
            plan.slowdown_factor
        } else {
            1
        };
        advertised_capacity_permille(factor, r.breakers[m].state == BreakerState::HalfOpen)
    }

    /// Count the placements this dispatch routes around an open breaker.
    pub(crate) fn count_breaker_rejections(&mut self, exclude: &[usize]) {
        let rejected = (0..self.k.machines.len())
            .filter(|m| self.k.machines[*m].up && !exclude.contains(m) && self.breaker_open(*m))
            .count() as u64;
        if rejected > 0 {
            self.k.metrics.add("resil.breaker.rejections", rejected);
        }
    }

    /// Admission control: refuse work whose *best-case* completion
    /// estimate already blows the deadline — it would only time out
    /// after consuming capacity.
    pub(crate) fn refuses_admission(&self, job: usize, views: &[MachineView]) -> bool {
        let Some(r) = self.resil.as_ref().filter(|r| r.cfg.shedding) else {
            return false;
        };
        let best = views
            .iter()
            .map(|v| v.backlog_cycles + self.k.estimate(job, v.machine))
            .min()
            .expect("views is non-empty");
        best > r.cfg.deadline_cycles
    }

    /// Start a new attempt wave for `job`: arm its deadline and (when
    /// hedging is on and the class has enough history) its hedge check.
    pub(crate) fn begin_wave(&mut self, job: usize, now: u64) {
        let Some(r) = self.resil.as_ref() else {
            return;
        };
        let gen = self.k.jobs[job].gen;
        self.k.jobs[job].wave_start = now;
        self.k
            .push(now + r.cfg.deadline_cycles, Ev::Timeout { job, gen });
        let p95 = &r.class_p95[self.k.jobs[job].class];
        if r.cfg.hedging && p95.len() >= HEDGE_MIN_SAMPLES {
            self.k
                .push(now + p95.value().max(1), Ev::HedgeCheck { job, gen });
        }
    }

    /// A request completed on machine `m`: feed the hedge trigger, count
    /// the SLO, and close the machine's breaker.
    pub(crate) fn resil_completed(&mut self, done: &Completion, m: usize, now: u64) {
        let Some(r) = self.resil.as_mut() else {
            return;
        };
        r.class_p95[done.class].record(done.wave_latency);
        if done.was_hedge {
            self.k.metrics.add("resil.hedge.wins", 1);
        }
        if done.latency <= r.cfg.slo_cycles {
            self.k.metrics.add("resil.slo_ok", 1);
        }
        if r.cfg.breakers && r.breakers[m].on_success() {
            self.k.metrics.add("resil.breaker.closes", 1);
            self.k
                .observe(|sc| sc.on_machine(m, SpanKind::BreakerClosed, now));
            // A closed breaker ends the drain episode: the machine
            // may be drained again if it sickens again.
            if let Some(rb) = self.rebal.as_mut() {
                rb.end_episode(m);
            }
        }
    }

    /// Machine `m`'s breaker tripped: record it and schedule the probe.
    fn breaker_tripped(&mut self, m: usize, probe_at: u64, now: u64) {
        self.k.metrics.add("resil.breaker.trips", 1);
        self.k
            .observe(|sc| sc.on_machine(m, SpanKind::BreakerOpen, now));
        self.k.push(probe_at, Ev::Probe { machine: m });
    }

    /// Machine `m` crashed: trip its breaker at once.
    pub(crate) fn breaker_crashed(&mut self, m: usize, now: u64) {
        let seed = self.k.cfg.seed;
        let Some(r) = self.resil.as_mut().filter(|r| r.cfg.breakers) else {
            return;
        };
        if let Some(at) = r.breakers[m].on_crash(&r.cfg, seed, m, now) {
            self.breaker_tripped(m, at, now);
        }
    }

    /// Wave `gen` of `job` hit its deadline: cancel it everywhere, charge
    /// the machines' breakers, then retry after a backoff or give up.
    pub(crate) fn on_timeout(
        &mut self,
        job: usize,
        gen: u32,
        now: u64,
    ) -> Result<(), ClusterError> {
        if self.k.jobs[job].gen != gen {
            return Ok(()); // the wave already resolved
        }
        let cfg = self
            .resil
            .as_ref()
            .expect("timeouts are only scheduled with resil on")
            .cfg;
        let seed = self.k.cfg.seed;
        self.k.metrics.add("resil.timeouts", 1);
        self.k.observe(|sc| sc.on_wave_timeout(job, now));
        self.k.jobs[job].gen += 1;
        for (m, _) in self.k.jobs[job].placements().to_vec() {
            self.k.cancel(m, job, now)?;
            let Some(r) = self.resil.as_mut().filter(|r| r.cfg.breakers) else {
                continue;
            };
            let was_half = r.breakers[m].state == BreakerState::HalfOpen;
            if let Some(at) = r.breakers[m].on_timeout(&cfg, seed, m, now) {
                if was_half {
                    // The half-open trial was rejected: straight back
                    // to open.
                    self.k.metrics.add("resil.breaker.halfopen_rejections", 1);
                }
                self.breaker_tripped(m, at, now);
                // Proactive degradation: don't wait for every resident
                // request to time out — drain the machine now.
                self.proactive_drain(m, now)?;
            }
        }
        // A wave held at the front-end has no placements but still
        // occupies the pending queue.
        self.k.pending.retain(|&p| p != job);
        let j = &mut self.k.jobs[job];
        if j.retries < MAX_RETRIES {
            j.retries += 1;
            let (retry, gen) = (j.retries, j.gen);
            let backoff = backoff_cycles(&cfg, seed, job, retry);
            self.k.metrics.add("resil.retries", 1);
            self.k.metrics.record("resil.backoff", backoff);
            self.k.push(now + backoff, Ev::Retry { job, gen });
        } else {
            j.outcome = Outcome::TimedOut;
            self.k.metrics.add("resil.deadline_failures", 1);
            self.k.observe(|sc| sc.on_timed_out(job, now));
        }
        Ok(())
    }

    /// Backoff elapsed: re-dispatch `job` as wave `gen`.
    pub(crate) fn on_retry(&mut self, job: usize, gen: u32, now: u64) -> Result<(), ClusterError> {
        if self.k.jobs[job].gen != gen {
            return Ok(());
        }
        // Every scheduled retry fires (nothing can bump the gen of an
        // undisputed wave in backoff), so counting here reconciles with
        // `resil.retries`.
        self.k.observe(|sc| sc.on_retry_wave(job, now));
        self.begin_wave(job, now);
        self.dispatch(job, now, &[])
    }

    /// Wave `gen` of `job` outlived its class's p95: dispatch a duplicate
    /// to a second machine. A hedge that finds no eligible machine or a
    /// full queue is skipped — the primary attempt is still live.
    pub(crate) fn on_hedge_check(
        &mut self,
        job: usize,
        gen: u32,
        now: u64,
    ) -> Result<(), ClusterError> {
        let j = &self.k.jobs[job];
        if j.gen != gen {
            return Ok(()); // completed, shed, or already retried
        }
        // Hedge only a fresh single-placement attempt: jobs carrying
        // snapshot state resume under their origin plan and must stay
        // singular.
        let &[(primary, _)] = j.placements() else {
            return Ok(());
        };
        if j.resume.is_some() || j.pending_migration.is_some() {
            return Ok(());
        }
        self.k.observe(|sc| sc.on_hedge_armed(job, primary, now));
        let skipped = match self.route(job, now, &[primary], true)? {
            Routed::Handled => {
                self.k.metrics.add("resil.hedges", 1);
                return Ok(());
            }
            Routed::NoMachine => "resil.hedge.skipped_no_dest",
            Routed::QueueFull => "resil.hedge.skipped_full",
        };
        self.k.metrics.add(skipped, 1);
        self.k.observe(|sc| sc.clear_flow(job));
        Ok(())
    }

    /// An open breaker's seeded probe fired: move to half-open.
    pub(crate) fn on_probe(&mut self, m: usize, now: u64) {
        self.k.metrics.add("resil.breaker.probes", 1);
        if self
            .resil
            .as_mut()
            .is_some_and(|r| r.breakers[m].on_probe(now))
        {
            self.k.metrics.add("resil.breaker.halfopens", 1);
            self.k
                .observe(|sc| sc.on_machine(m, SpanKind::BreakerHalfOpen, now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_monotone_and_seed_deterministic() {
        let cfg = ResilConfig::default();
        for job in [0usize, 7, 191] {
            let mut prev = 0u64;
            for retry in 1..=6u32 {
                let a = backoff_cycles(&cfg, 42, job, retry);
                let b = backoff_cycles(&cfg, 42, job, retry);
                assert_eq!(a, b, "same seed must replay identically");
                assert!(a > prev, "retry {retry} backoff {a} <= previous {prev}");
                prev = a;
            }
        }
        assert_ne!(
            backoff_cycles(&cfg, 1, 0, 1),
            backoff_cycles(&cfg, 2, 0, 1),
            "different seeds must jitter differently"
        );
    }

    #[test]
    fn breaker_trips_after_consecutive_timeouts_and_probes_on_schedule() {
        let cfg = ResilConfig::default();
        let mut b = Breaker::new();
        assert_eq!(b.on_timeout(&cfg, 9, 0, 100), None);
        assert_eq!(b.on_timeout(&cfg, 9, 0, 200), None);
        let at = b.on_timeout(&cfg, 9, 0, 300).expect("third timeout trips");
        assert!(b.is_open());
        assert!(at > 300 + cfg.probe_base_cycles - 1);
        // A success in between resets the count.
        let mut c = Breaker::new();
        c.on_timeout(&cfg, 9, 0, 100);
        c.on_timeout(&cfg, 9, 0, 200);
        c.on_success();
        assert_eq!(c.on_timeout(&cfg, 9, 0, 300), None);
    }

    #[test]
    fn half_open_success_closes_and_timeout_reopens_longer() {
        let cfg = ResilConfig::default();
        let mut b = Breaker::new();
        let first = b.on_crash(&cfg, 5, 2, 1_000).expect("crash trips");
        b.on_probe(first);
        assert_eq!(b.state, BreakerState::HalfOpen);
        let second = b
            .on_timeout(&cfg, 5, 2, first)
            .expect("half-open timeout re-trips");
        // Trip 2's base delay is twice trip 1's; jitter is bounded by a
        // quarter step, so the second wait is strictly longer.
        assert!(second - first > first - 1_000, "probe backoff must grow");
        b.on_probe(second);
        b.on_success();
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.consecutive_timeouts, 0);
    }

    #[test]
    fn probe_schedule_is_a_pure_function_of_seed_machine_and_trip() {
        let cfg = ResilConfig::default();
        for machine in 0..4 {
            for trip in 1..=5 {
                assert_eq!(
                    Breaker::probe_delay(&cfg, 77, machine, trip),
                    Breaker::probe_delay(&cfg, 77, machine, trip)
                );
            }
        }
        assert_ne!(
            Breaker::probe_delay(&cfg, 77, 0, 1),
            Breaker::probe_delay(&cfg, 78, 0, 1)
        );
    }
}

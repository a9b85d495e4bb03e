//! Deterministic fault injection for the simulated Cell machine.
//!
//! The whole simulator runs in *virtual* time: every event is ordered by
//! per-core cycle counters, never by the host clock. Fault injection must
//! preserve that property or chaos runs stop being reproducible. This crate
//! therefore draws every fault from a counter-based splitmix64 stream keyed
//! by `(seed, core, site, count)` — no wall clock, no global RNG, no host
//! state. Two runs with the same seed and the same `FaultPlan` make exactly
//! the same draws in exactly the same order, so traces, retry counts, and
//! results are byte-identical.
//!
//! A [`FaultPlan`] is plain `Copy` data that rides inside the machine
//! configuration; the stateful per-run draw counters live in a
//! [`FaultInjector`] owned by the machine. An empty (default) plan is inert:
//! consumers are expected to check [`FaultInjector::mfc_active`] /
//! [`FaultInjector::site_active`] and take their unmodified fast path, so a
//! quiet plan is provably zero-cost in virtual time.

#![forbid(unsafe_code)]

// Fault draws come from `hera-rng`'s keyed stream (shared with the
// cluster trace generator).
use hera_rng::draw_word;

/// Where in the machine a fault can be injected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// An MFC DMA transfer (data/code cache fills, writebacks, bypasses).
    Mfc,
    /// A syscall proxied to the PPE from an SPE.
    SyscallProxy,
    /// A thread migration hand-off between core types.
    Migration,
}

/// Number of distinct [`FaultSite`]s (sizes the per-core counter arrays).
pub const NUM_SITES: usize = 3;

impl FaultSite {
    /// Dense index for counter arrays and stream keying.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FaultSite::Mfc => 0,
            FaultSite::SyscallProxy => 1,
            FaultSite::Migration => 2,
        }
    }
}

/// The concrete fault selected by a draw.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Transient MFC transfer failure: the DMA completes but is reported
    /// bad; the MFC layer retries with exponential backoff.
    MfcTransfer,
    /// EIB grant timeout: the bus never grants the window before the
    /// deadline; the request is abandoned and re-queued.
    EibGrantTimeout,
    /// Local-store corruption detected at DMA-in by checksum mismatch;
    /// forces a refetch of the same transfer.
    LsCorruption,
    /// A PPE syscall proxy round-trip missed its watchdog deadline.
    ProxyTimeout,
    /// A migration hand-off missed its watchdog deadline.
    MigrationTimeout,
}

impl FaultKind {
    /// Stable lower-case label used for metrics keys and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::MfcTransfer => "mfc-transfer",
            FaultKind::EibGrantTimeout => "eib-grant-timeout",
            FaultKind::LsCorruption => "ls-corruption",
            FaultKind::ProxyTimeout => "proxy-timeout",
            FaultKind::MigrationTimeout => "migration-timeout",
        }
    }
}

/// A plan that cannot be built: the builder rejected a parameter that
/// would silently misbehave (rates are probabilities, factors multiply).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPlanError {
    /// A fault rate above 1_000_000 ppm is not a probability; draws would
    /// saturate at "always fault" while reading as a bigger number.
    RateAbovePpm {
        /// Which rate knob was out of range.
        knob: &'static str,
        /// The rejected value.
        ppm: u32,
    },
    /// A slowdown factor of zero would freeze the machine's clock (every
    /// charge multiplied to nothing) rather than slow it down.
    ZeroSlowdownFactor,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::RateAbovePpm { knob, ppm } => {
                write!(
                    f,
                    "{knob} rate {ppm} ppm exceeds 1_000_000 (not a probability)"
                )
            }
            FaultPlanError::ZeroSlowdownFactor => {
                f.write_str("slowdown factor 0 would stop the clock; use 1 for no slowdown")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A scheduled hard SPE death at a virtual cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpeDeath {
    /// Which SPE dies (0-based).
    pub spe: u8,
    /// The core's own virtual cycle at (or after) which it is dead.
    pub at_cycle: u64,
}

/// Maximum number of scheduled SPE deaths in one plan.
///
/// A fixed-size array keeps [`FaultPlan`] `Copy`, which in turn keeps the
/// machine and VM configs `Copy` (a property the whole config-builder API
/// relies on).
pub const MAX_DEATHS: usize = 4;

/// A deterministic fault schedule. Rates are parts-per-million per draw.
///
/// `FaultPlan::default()` is the empty plan: every rate zero, no deaths.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// Stream seed; same seed + same plan ⇒ identical draws.
    pub seed: u64,
    /// Transient MFC transfer failure rate (per DMA attempt).
    pub mfc_transfer_ppm: u32,
    /// EIB grant timeout rate (per DMA attempt).
    pub eib_timeout_ppm: u32,
    /// Local-store corruption rate (per DMA attempt, detected at DMA-in).
    pub ls_corruption_ppm: u32,
    /// Syscall-proxy watchdog timeout rate (per proxied call).
    pub proxy_timeout_ppm: u32,
    /// Migration watchdog timeout rate (per hand-off).
    pub migration_timeout_ppm: u32,
    /// Bounded retry budget for MFC transfers and watchdog waits.
    pub max_retries: u32,
    /// Base backoff in virtual cycles; attempt `n` waits `base << n`.
    pub backoff_base_cycles: u32,
    /// Cycles burned waiting on an EIB grant before declaring a timeout.
    pub eib_timeout_cycles: u32,
    /// Cycles charged to checksum a corrupted transfer before refetching.
    pub checksum_cycles: u32,
    /// Watchdog deadline for proxy/migration waits, in virtual cycles.
    pub watchdog_cycles: u32,
    /// Scheduled hard SPE deaths (fixed-size to stay `Copy`).
    pub spe_deaths: [Option<SpeDeath>; MAX_DEATHS],
    /// Scheduled whole-machine crash: the run aborts at the first scheduler
    /// safepoint whose makespan reaches this virtual cycle. Unlike the per
    /// SPE deaths, this is an engine-level kill switch for checkpoint
    /// recovery drills — it injects no cost and perturbs nothing before the
    /// crash point, so a crashed run is a prefix of the uninterrupted run.
    pub machine_crash_at: Option<u64>,
    /// Deterministic machine slowdown ("straggler"): every relative cycle
    /// charge on every core is multiplied by this factor once the core's
    /// own clock reaches [`FaultPlan::slowdown_from_cycle`]. `0` and `1`
    /// both mean "no slowdown" (`0` is only reachable via `default()`;
    /// the builder rejects it).
    pub slowdown_factor: u32,
    /// Core-local virtual cycle at which the slowdown begins.
    pub slowdown_from_cycle: u64,
}

impl FaultPlan {
    /// An empty plan with sensible retry/backoff defaults and a seed.
    ///
    /// The plan stays inert until a rate or death is added: defaults for
    /// the policy knobs don't inject anything by themselves.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            max_retries: 4,
            backoff_base_cycles: 256,
            eib_timeout_cycles: 2000,
            checksum_cycles: 64,
            watchdog_cycles: 2000,
            ..FaultPlan::default()
        }
    }

    /// Set the three MFC-layer fault rates (parts per million per attempt).
    ///
    /// Rejects any rate above 1_000_000 ppm: that is not a probability,
    /// and the draw would silently saturate at "always fault".
    pub fn with_mfc_faults(
        mut self,
        transfer_ppm: u32,
        timeout_ppm: u32,
        corrupt_ppm: u32,
    ) -> Result<Self, FaultPlanError> {
        for (knob, ppm) in [
            ("mfc-transfer", transfer_ppm),
            ("eib-timeout", timeout_ppm),
            ("ls-corruption", corrupt_ppm),
        ] {
            if ppm > PPM as u32 {
                return Err(FaultPlanError::RateAbovePpm { knob, ppm });
            }
        }
        self.mfc_transfer_ppm = transfer_ppm;
        self.eib_timeout_ppm = timeout_ppm;
        self.ls_corruption_ppm = corrupt_ppm;
        Ok(self)
    }

    /// Stretch every relative cycle charge by `factor` once a core's own
    /// clock reaches `from_cycle` — a deterministic straggling machine.
    /// `factor` 1 is a legal no-op; 0 is rejected (it would stop the
    /// clock, not slow it).
    pub fn with_slowdown(mut self, factor: u32, from_cycle: u64) -> Result<Self, FaultPlanError> {
        if factor == 0 {
            return Err(FaultPlanError::ZeroSlowdownFactor);
        }
        self.slowdown_factor = factor;
        self.slowdown_from_cycle = from_cycle;
        Ok(self)
    }

    /// Whether the plan slows the machine down at some point (factor ≥ 2).
    pub fn slowdown_active(&self) -> bool {
        self.slowdown_factor >= 2
    }

    /// Set the syscall-proxy watchdog timeout rate.
    pub fn with_proxy_faults(mut self, ppm: u32) -> Self {
        self.proxy_timeout_ppm = ppm;
        self
    }

    /// Set the migration watchdog timeout rate.
    pub fn with_migration_faults(mut self, ppm: u32) -> Self {
        self.migration_timeout_ppm = ppm;
        self
    }

    /// Schedule a hard SPE death. Panics if all death slots are taken
    /// (a plan-construction error, not a guest-reachable path).
    pub fn with_spe_death(mut self, spe: u8, at_cycle: u64) -> Self {
        let slot = self
            .spe_deaths
            .iter_mut()
            .find(|s| s.is_none())
            .expect("FaultPlan supports at most MAX_DEATHS scheduled deaths");
        *slot = Some(SpeDeath { spe, at_cycle });
        self
    }

    /// Schedule a whole-machine crash at the first safepoint whose makespan
    /// reaches `at_cycle`.
    pub fn with_machine_crash(mut self, at_cycle: u64) -> Self {
        self.machine_crash_at = Some(at_cycle);
        self
    }

    /// Whether any fault source (rate or death) is configured.
    pub fn is_active(&self) -> bool {
        self.mfc_transfer_ppm > 0
            || self.eib_timeout_ppm > 0
            || self.ls_corruption_ppm > 0
            || self.proxy_timeout_ppm > 0
            || self.migration_timeout_ppm > 0
            || self.spe_deaths.iter().any(|d| d.is_some())
    }

    /// Whether the MFC/DMA path can fault (gates the DMA fast path).
    pub fn mfc_active(&self) -> bool {
        self.mfc_transfer_ppm > 0 || self.eib_timeout_ppm > 0 || self.ls_corruption_ppm > 0
    }

    /// The ppm rate for a site's draw (summed over the kinds at that site).
    fn site_rate_ppm(&self, site: FaultSite) -> u64 {
        match site {
            FaultSite::Mfc => {
                self.mfc_transfer_ppm as u64
                    + self.eib_timeout_ppm as u64
                    + self.ls_corruption_ppm as u64
            }
            FaultSite::SyscallProxy => self.proxy_timeout_ppm as u64,
            FaultSite::Migration => self.migration_timeout_ppm as u64,
        }
    }
}

const PPM: u64 = 1_000_000;

/// Per-run draw state: the plan plus per-`(core, site)` draw counters.
///
/// The counters are the only mutable state; they advance exactly once per
/// draw, so the stream consumed at each site is a pure function of the run's
/// deterministic event order.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    counts: Vec<[u64; NUM_SITES]>,
}

impl FaultInjector {
    /// Build an injector for a machine with `cores` cores (PPE + SPEs).
    pub fn new(plan: FaultPlan, cores: usize) -> Self {
        FaultInjector {
            plan,
            counts: vec![[0; NUM_SITES]; cores],
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any fault source is configured (see [`FaultPlan::is_active`]).
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Whether the MFC/DMA path can fault.
    pub fn mfc_active(&self) -> bool {
        self.plan.mfc_active()
    }

    /// Whether draws at `site` can ever return a fault.
    pub fn site_active(&self, site: FaultSite) -> bool {
        self.plan.site_rate_ppm(site) > 0
    }

    /// Draw once at `(core, site)`. Returns the injected fault, if any.
    ///
    /// Advances the `(core, site)` counter exactly once per call, even when
    /// no fault fires, so the stream position depends only on how many
    /// draws the deterministic execution made — not on their outcomes'
    /// handling.
    pub fn draw(&mut self, core: usize, site: FaultSite) -> Option<FaultKind> {
        let rate = self.plan.site_rate_ppm(site);
        if rate == 0 {
            return None;
        }
        debug_assert!(core < self.counts.len(), "core index out of range");
        let counter = self.counts.get_mut(core)?;
        let count = counter[site.index()];
        counter[site.index()] = count + 1;
        let word = draw_word(self.plan.seed, core as u64, site.index() as u64, count);
        let roll = word % PPM;
        if roll >= rate {
            return None;
        }
        // Pick the kind by cumulative ppm weight within the site.
        match site {
            FaultSite::Mfc => {
                let t = self.plan.mfc_transfer_ppm as u64;
                let e = t + self.plan.eib_timeout_ppm as u64;
                if roll < t {
                    Some(FaultKind::MfcTransfer)
                } else if roll < e {
                    Some(FaultKind::EibGrantTimeout)
                } else {
                    Some(FaultKind::LsCorruption)
                }
            }
            FaultSite::SyscallProxy => Some(FaultKind::ProxyTimeout),
            FaultSite::Migration => Some(FaultKind::MigrationTimeout),
        }
    }

    /// Exponential backoff for retry `attempt` (0-based), in virtual
    /// cycles, capped at 16 doublings to avoid shift overflow.
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        (self.plan.backoff_base_cycles as u64) << attempt.min(16)
    }

    /// The per-`(core, site)` draw counters, PPE first. Snapshot support:
    /// restoring these puts every fault stream back at its exact position.
    pub fn counts(&self) -> &[[u64; NUM_SITES]] {
        &self.counts
    }

    /// Restore the draw counters captured by [`FaultInjector::counts`].
    /// Fails if the core count does not match this machine.
    pub fn set_counts(&mut self, counts: &[[u64; NUM_SITES]]) -> Result<(), &'static str> {
        if counts.len() != self.counts.len() {
            return Err("fault-injector counter stream count mismatch");
        }
        self.counts.copy_from_slice(counts);
        Ok(())
    }

    /// The scheduled death cycle for SPE `spe`, if any (earliest wins).
    pub fn death_for(&self, spe: u8) -> Option<u64> {
        self.plan
            .spe_deaths
            .iter()
            .flatten()
            .filter(|d| d.spe == spe)
            .map(|d| d.at_cycle)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_rng::splitmix64;

    #[test]
    fn splitmix_is_pure_and_mixes() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Known avalanche sanity: one-bit input flips change many bits.
        let d = (splitmix64(42) ^ splitmix64(43)).count_ones();
        assert!(d > 16, "weak avalanche: {d} bits");
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(!plan.mfc_active());
        let mut inj = FaultInjector::new(plan, 7);
        for _ in 0..1000 {
            assert_eq!(inj.draw(1, FaultSite::Mfc), None);
        }
    }

    #[test]
    fn seeded_but_rateless_plan_is_still_inert() {
        let plan = FaultPlan::seeded(99);
        assert!(!plan.is_active());
        let mut inj = FaultInjector::new(plan, 7);
        assert_eq!(inj.draw(2, FaultSite::SyscallProxy), None);
    }

    #[test]
    fn same_seed_same_draw_sequence() {
        let plan = FaultPlan::seeded(7)
            .with_mfc_faults(40_000, 30_000, 20_000)
            .expect("valid rates");
        let mut a = FaultInjector::new(plan, 7);
        let mut b = FaultInjector::new(plan, 7);
        for core in 0..7 {
            for _ in 0..2000 {
                assert_eq!(a.draw(core, FaultSite::Mfc), b.draw(core, FaultSite::Mfc));
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed| {
            let plan = FaultPlan::seeded(seed)
                .with_mfc_faults(40_000, 30_000, 20_000)
                .expect("valid rates");
            let mut inj = FaultInjector::new(plan, 7);
            (0..2000)
                .map(|_| inj.draw(1, FaultSite::Mfc))
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2), "distinct seeds must yield distinct plans");
    }

    #[test]
    fn cores_and_sites_have_independent_streams() {
        let plan = FaultPlan::seeded(11)
            .with_mfc_faults(100_000, 0, 0)
            .expect("valid rates");
        let mut inj = FaultInjector::new(plan, 7);
        let c0: Vec<_> = (0..500).map(|_| inj.draw(1, FaultSite::Mfc)).collect();
        let c1: Vec<_> = (0..500).map(|_| inj.draw(2, FaultSite::Mfc)).collect();
        assert_ne!(c0, c1, "per-core streams should differ");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        // 10% rate over 20k draws should land within a loose band; this is
        // deterministic (fixed seed), so the assertion can be tight-ish.
        let plan = FaultPlan::seeded(3)
            .with_mfc_faults(100_000, 0, 0)
            .expect("valid rates");
        let mut inj = FaultInjector::new(plan, 2);
        let hits = (0..20_000)
            .filter(|_| inj.draw(1, FaultSite::Mfc).is_some())
            .count();
        assert!((1500..2500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn kind_split_follows_cumulative_weights() {
        let plan = FaultPlan::seeded(5)
            .with_mfc_faults(50_000, 50_000, 50_000)
            .expect("valid rates");
        let mut inj = FaultInjector::new(plan, 2);
        let mut t = 0;
        let mut e = 0;
        let mut c = 0;
        for _ in 0..30_000 {
            match inj.draw(1, FaultSite::Mfc) {
                Some(FaultKind::MfcTransfer) => t += 1,
                Some(FaultKind::EibGrantTimeout) => e += 1,
                Some(FaultKind::LsCorruption) => c += 1,
                _ => {}
            }
        }
        assert!(t > 0 && e > 0 && c > 0, "t={t} e={e} c={c}");
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let inj = FaultInjector::new(FaultPlan::seeded(1), 2);
        assert_eq!(inj.backoff_cycles(0), 256);
        assert_eq!(inj.backoff_cycles(1), 512);
        assert_eq!(inj.backoff_cycles(3), 2048);
        assert_eq!(inj.backoff_cycles(40), 256 << 16);
    }

    #[test]
    fn builder_rejects_rates_above_one_million_ppm() {
        let err = FaultPlan::seeded(1)
            .with_mfc_faults(1_000_001, 0, 0)
            .expect_err("rate above 1e6 ppm must be rejected");
        assert_eq!(
            err,
            FaultPlanError::RateAbovePpm {
                knob: "mfc-transfer",
                ppm: 1_000_001
            }
        );
        // Each knob is validated, not just the first.
        assert!(matches!(
            FaultPlan::seeded(1).with_mfc_faults(0, 2_000_000, 0),
            Err(FaultPlanError::RateAbovePpm {
                knob: "eib-timeout",
                ..
            })
        ));
        assert!(matches!(
            FaultPlan::seeded(1).with_mfc_faults(0, 0, u32::MAX),
            Err(FaultPlanError::RateAbovePpm {
                knob: "ls-corruption",
                ..
            })
        ));
        // Exactly 1_000_000 ppm ("always") remains legal.
        assert!(FaultPlan::seeded(1)
            .with_mfc_faults(1_000_000, 0, 0)
            .is_ok());
    }

    #[test]
    fn builder_rejects_zero_slowdown_factor() {
        assert_eq!(
            FaultPlan::seeded(1).with_slowdown(0, 500).unwrap_err(),
            FaultPlanError::ZeroSlowdownFactor
        );
        // Factor 1 is a legal no-op; factor 2+ arms the slowdown.
        let noop = FaultPlan::seeded(1).with_slowdown(1, 500).expect("legal");
        assert!(!noop.slowdown_active());
        let slow = FaultPlan::seeded(1).with_slowdown(4, 500).expect("legal");
        assert!(slow.slowdown_active());
        assert_eq!(slow.slowdown_from_cycle, 500);
        // A slowdown alone injects no faults: the draw paths stay inert.
        assert!(!slow.is_active());
        assert!(!slow.mfc_active());
    }

    #[test]
    fn death_schedule_lookup() {
        let plan = FaultPlan::seeded(1)
            .with_spe_death(2, 5000)
            .with_spe_death(2, 3000)
            .with_spe_death(4, 100);
        let inj = FaultInjector::new(plan, 7);
        assert_eq!(inj.death_for(2), Some(3000));
        assert_eq!(inj.death_for(4), Some(100));
        assert_eq!(inj.death_for(0), None);
    }
}

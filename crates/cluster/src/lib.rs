//! hera-cluster: a simulated fleet of Cell machines behind one front-end.
//!
//! Each fleet member is the full single-machine simulator (a PPE plus
//! `num_spes` SPEs under a per-machine fault plan); the front-end replays
//! a seeded synthetic request trace onto their run queues through a
//! pluggable [`BalancePolicy`]. Everything happens in fleet-virtual time
//! inside a deterministic discrete-event loop, so a whole experiment —
//! traffic, queueing, machine crashes, checkpoint recovery, and
//! snapshot-based live migration — is a pure function of its
//! [`ClusterConfig`] and renders to a byte-identical report on every
//! platform.
//!
//! The headline property is migration correctness: a job moved between
//! machines mid-flight (checkpoint on the source, virtual transfer
//! charged by snapshot size, adoption on the destination) is proven
//! bit-identical to the run that never moved — result, traps, output,
//! and final heap image — and the proof runs inside the experiment: each
//! unique (snapshot, destination) is adopted once per experiment, and
//! every migration and every crash recovery is checked against it.
//!
//! Module map: `kernel` (event queue, jobs, machines, the placement
//! interface), `fleet` (fleet profile, event loop, replay seam), `runs`
//! (the experiment's doomed and adoption runs, each executed once),
//! [`resil`] and [`rebal`] (the opt-in layers: knobs, state, handlers),
//! `scope` (request tracing, observation only), `matrix` (runners and
//! reports).

#![forbid(unsafe_code)]

pub mod policy;
pub mod rebal;
pub mod resil;
pub mod traffic;

mod fleet;
mod kernel;
mod matrix;
mod runs;
mod scope;

pub use fleet::{CrashEvent, MigrationEvent, PolicyOutcome};
pub use matrix::{
    run_chaos_matrix, run_experiment, run_rebal_matrix, ClusterReport, MatrixReport, MatrixRow,
    RebalStats,
};
pub use policy::{BalancePolicy, JoinShortestQueue, LeastLoaded, MachineView, RoundRobin};
pub use rebal::RebalConfig;
pub use resil::{Breaker, BreakerState, ResilConfig};
pub use scope::ScopeOutcome;
pub use traffic::{generate, ArrivalShape, Request};

/// An experiment that could not run (bad config, or a VM error that is a
/// bug rather than a measured outcome). Divergence proofs that *fail*
/// are reported in [`ClusterReport::failures`], not here.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ClusterError {
    /// A `ClusterConfig::migrations` entry the event scheduler would
    /// silently mishandle: the machine index is out of range, or the
    /// per-mille point lies beyond the trace span (the migration would
    /// be scheduled after every arrival and look like a silent no-op).
    InvalidMigration {
        /// Index of the offending entry in `ClusterConfig::migrations`.
        index: usize,
        /// The source machine the entry names.
        machine: usize,
        /// The per-mille point the entry names.
        permille: u32,
        /// Fleet size the entry was validated against.
        machines: usize,
    },
    /// A delay knob whose longest delay passes 2^48 cycles: the event it
    /// schedules at `now + delay` could overflow fleet time (a panic in
    /// debug builds, an event in the past in release).
    InvalidDelay {
        /// The knob, spelled as a `ClusterConfig` path
        /// (`resil.deadline_cycles`, `resil.backoff_base_cycles`, …).
        knob: &'static str,
        /// The longest delay the knob's value can produce, saturating.
        cycles: u64,
    },
    /// Any other invalid configuration, or a VM-level error that is a
    /// bug rather than a measured outcome.
    Config(String),
}

/// The furthest ahead a config knob may schedule an event: 2^48 cycles,
/// about a day of fleet time at the Cell's 3.2 GHz, so that `now + delay`
/// cannot overflow however long a run's fleet time grows.
pub(crate) const MAX_DELAY_CYCLES: u64 = 1 << 48;

/// Workload-class mix weights (compress, mpegaudio, mandelbrot): the
/// classes arrive in equal shares.
pub(crate) const MIX: [u32; 3] = [1, 1, 1];
/// Front-end dispatch overhead per placement, in cycles.
pub(crate) const DISPATCH_CYCLES: u64 = 2_000;
/// Fixed latency of a snapshot transfer between machines.
pub(crate) const TRANSFER_LATENCY_CYCLES: u64 = 5_000;
/// Snapshot bytes moved per virtual cycle during a transfer.
pub(crate) const TRANSFER_BYTES_PER_CYCLE: u64 = 16;
/// Downtime of a crashed machine before it rejoins the fleet.
pub(crate) const RECOVERY_CYCLES: u64 = 1_000_000;

impl ClusterError {
    /// Catch-all constructor for config/VM errors without a typed shape.
    pub(crate) fn msg(s: impl Into<String>) -> Self {
        ClusterError::Config(s.into())
    }

    /// Reject `knob` when the longest delay it can produce, `cycles`,
    /// passes [`MAX_DELAY_CYCLES`].
    pub(crate) fn check_delay(knob: &'static str, cycles: u64) -> Result<(), ClusterError> {
        if cycles > MAX_DELAY_CYCLES {
            return Err(ClusterError::InvalidDelay { knob, cycles });
        }
        Ok(())
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::InvalidMigration {
                index,
                machine,
                permille,
                machines,
            } => write!(
                f,
                "migrations[{index}] = (machine {machine}, {permille}‰) is invalid for a \
                 {machines}-machine fleet (machine must be < {machines}, permille <= 1000)"
            ),
            ClusterError::InvalidDelay { knob, cycles } => write!(
                f,
                "{knob} can schedule an event {cycles} cycles ahead, \
                 past the limit of {MAX_DELAY_CYCLES} (2^48)"
            ),
            ClusterError::Config(s) => f.write_str(s),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The hardware shape of one fleet member: how many SPEs it has. All
/// other machine parameters (heap, partition, checkpoint cadence) are
/// fleet-wide, so shape is the single axis of heterogeneity — exactly
/// the axis snapshot adoption can bridge (missing SPEs are treated as
/// dead-at-adopt and drained to the PPE).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MachineShape {
    /// SPEs on this machine (1..=8).
    pub spe_count: u8,
}

/// Everything that defines one fleet experiment.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusterConfig {
    /// Master seed: drives the trace, per-machine fault plans, and
    /// therefore the entire simulation.
    pub seed: u64,
    /// Fleet size.
    pub machines: usize,
    /// Requests in the synthetic trace.
    pub requests: u64,
    /// Guest threads per job.
    pub threads: u32,
    /// Workload scale factor (passed to `Workload::build`).
    pub scale: f64,
    /// SPEs per machine.
    pub num_spes: u8,
    /// Heap size per machine. Fleet machines run small heaps: snapshot
    /// capture walks the whole heap image, so this bounds checkpoint and
    /// migration cost (the defaults hold the cluster workloads with
    /// plenty of slack).
    pub heap_bytes: u32,
    /// Inter-arrival distribution.
    pub arrival: ArrivalShape,
    /// Target fleet utilization (1..=100); sets the mean arrival rate
    /// relative to the measured mean service time.
    pub utilization_pct: u32,
    /// Transient-fault rates `(mfc_transfer, eib_timeout, ls_corruption)`
    /// in ppm, seeded per machine; `None` runs a fault-free fleet.
    pub fault_rates: Option<(u32, u32, u32)>,
    /// Checkpoint interval in VM cycles (feeds crash recovery and
    /// migration; smaller ⇒ less re-execution, more write stalls).
    pub checkpoint_every: u64,
    /// Machine crashes as `(machine, permille)`: the crash fires at that
    /// per-mille point of the trace's arrival span.
    pub crashes: Vec<(usize, u32)>,
    /// Live migrations as `(source machine, permille)`, same timescale.
    pub migrations: Vec<(usize, u32)>,
    /// Stragglers as `(machine, slowdown factor, from VM cycle)`: the
    /// machine's fault plan gains `FaultPlan::with_slowdown`, stretching
    /// its service times deterministically.
    pub slowdowns: Vec<(usize, u32, u64)>,
    /// Per-machine queue-depth cap; arrivals that would exceed it are
    /// shed (reported, never silently dropped). The default is high
    /// enough that healthy experiments never touch it — it exists so
    /// overload degrades into measured shed instead of unbounded queues.
    pub queue_cap: usize,
    /// Request-resilience knobs (deadlines, retries, hedging, breakers,
    /// shedding); `None` — the default — disables the whole stack and
    /// adds zero virtual-cycle cost.
    pub resil: Option<resil::ResilConfig>,
    /// hera-scope request tracing: span trees, causal flow arrows, and
    /// fixed-virtual-interval fleet samplers ([`ScopeOutcome`]). Off by
    /// default; observation only — it charges zero virtual cycles and
    /// leaves every rendered report byte-identical.
    pub scope: bool,
    /// Per-machine hardware shapes. Machines beyond the end of this list
    /// (and the whole fleet when it is empty — the default) use
    /// [`ClusterConfig::num_spes`], so existing configs are untouched.
    pub shapes: Vec<MachineShape>,
    /// The proactive-degradation layer (breaker-triggered drain, sustained
    /// slowdown drain, periodic rebalancing at the configured period);
    /// `None` — the default — disables it and adds zero virtual-cycle cost.
    pub rebal: Option<rebal::RebalConfig>,
}

impl ClusterConfig {
    /// SPE count of machine `m`: its [`MachineShape`] when one is
    /// configured, the fleet-wide `num_spes` otherwise.
    pub fn shape_of(&self, m: usize) -> u8 {
        self.shapes.get(m).map_or(self.num_spes, |s| s.spe_count)
    }

    /// E13's chaos fleet (`figures -- cluster-chaos`, `fleet-trace`):
    /// 2-SPE machines at 60 % utilization, machine 0 a 4x straggler, a
    /// seeded two-crash storm in the middle of the trace, no migrations.
    pub fn e13(seed: u64, machines: usize, requests: u64, scale: f64) -> Self {
        ClusterConfig {
            seed,
            machines,
            requests,
            threads: 2,
            scale,
            num_spes: 2,
            heap_bytes: 1 << 20,
            utilization_pct: 60,
            crashes: crash_storm(seed, machines, 2, 300, 700),
            migrations: vec![],
            slowdowns: vec![(0, 4, 0)],
            ..ClusterConfig::default()
        }
    }

    /// E15's heterogeneous fleet (`figures -- cluster-rebal`): E13's
    /// fault schedule on 6/2/4/2/4/6-SPE machines — the small ones force
    /// crash recoveries and drains through cross-shape adoption — with
    /// two planned migrations and scope on, hot enough (75 %) that
    /// join-shortest-queue must sometimes queue work on the
    /// capacity-penalized straggler for the proactive layer to move.
    pub fn e15(seed: u64, machines: usize, requests: u64, scale: f64) -> Self {
        let spes = [6, 2, 4, 2, 4, 6].into_iter().cycle().take(machines);
        ClusterConfig {
            num_spes: 6,
            utilization_pct: 75,
            shapes: spes.map(|spe_count| MachineShape { spe_count }).collect(),
            migrations: vec![(0, 450), (5, 550)],
            scope: true,
            ..ClusterConfig::e13(seed, machines, requests, scale)
        }
    }

    /// Reject configurations the simulator would silently mishandle (or
    /// panic on).
    pub(crate) fn validate(&self) -> Result<(), ClusterError> {
        let machines = self.machines;
        if machines == 0 {
            return Err(ClusterError::msg("cluster needs at least one machine"));
        }
        // A recorded span names its track in 16 bits and its request in 32.
        if machines > usize::from(u16::MAX) {
            return Err(ClusterError::msg(format!(
                "machines = {machines} exceeds {} (fleet span tracks are 16-bit)",
                u16::MAX
            )));
        }
        if self.requests > u64::from(u32::MAX) {
            return Err(ClusterError::msg(format!(
                "requests = {} exceeds {} (fleet span request ids are 32-bit)",
                self.requests,
                u32::MAX
            )));
        }
        if self.queue_cap == 0 {
            return Err(ClusterError::msg(
                "queue cap must be at least 1 (0 would shed everything)",
            ));
        }
        // Both schedules fire at per-mille points of the trace span.
        let bad = |&(machine, permille): &(usize, u32)| machine >= machines || permille > 1000;
        if let Some(index) = self.crashes.iter().position(bad) {
            return Err(ClusterError::msg(format!(
                "crashes[{index}] = {:?} is invalid for a {machines}-machine fleet \
                 (machine must be < {machines}, permille <= 1000)",
                self.crashes[index]
            )));
        }
        if let Some(index) = self.migrations.iter().position(bad) {
            let (machine, permille) = self.migrations[index];
            return Err(ClusterError::InvalidMigration {
                index,
                machine,
                permille,
                machines,
            });
        }
        for (m, shape) in self.shapes.iter().enumerate() {
            if shape.spe_count == 0 || shape.spe_count > 8 {
                return Err(ClusterError::msg(format!(
                    "machine {m} shape has {} SPEs (must be 1..=8)",
                    shape.spe_count
                )));
            }
        }
        if let Some((a, b, c)) = self.fault_rates {
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
        for &(m, factor, _) in &self.slowdowns {
            if m >= machines {
                return Err(ClusterError::msg(format!(
                    "slowdown machine {m} out of range for a {machines}-machine fleet"
                )));
            }
            if factor == 0 {
                return Err(ClusterError::msg(
                    "slowdown factor 0 is meaningless (1 = no slowdown)",
                ));
            }
        }
        self.resil.as_ref().map_or(Ok(()), ResilConfig::validate)
    }
}

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

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: 42,
            machines: 4,
            requests: 2_000,
            threads: 4,
            scale: 0.05,
            num_spes: 6,
            heap_bytes: 2 << 20,
            arrival: ArrivalShape::Exponential,
            utilization_pct: 70,
            fault_rates: None,
            checkpoint_every: 150_000,
            crashes: vec![(1, 350)],
            migrations: vec![(0, 600)],
            slowdowns: vec![],
            queue_cap: 1024,
            resil: None,
            scope: false,
            shapes: vec![],
            rebal: None,
        }
    }
}

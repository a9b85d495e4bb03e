//! The assembled machine: cores, clocks, bus, caches and accounting.

use crate::cost::{exec_op_class, CostModel, ExecOp};
#[cfg(debug_assertions)]
use crate::counters::ChargeShadow;
use crate::counters::{ChargeRun, CycleBreakdown, OpClass};
use crate::eib::Eib;
use crate::hwcache::{HwCache, HwCacheParams};
use crate::spe::{LocalStore, StorePartition};
use hera_faults::{FaultInjector, FaultKind, FaultPlan, FaultSite, NUM_SITES};
use hera_trace::{CostClass, CostVec, DmaTag, InjectedFault, TraceEvent, TraceSink};

/// The two core kinds on the Cell.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CoreKind {
    /// The general-purpose PowerPC core.
    Ppe,
    /// A Synergistic Processing Element.
    Spe,
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreKind::Ppe => write!(f, "PPE"),
            CoreKind::Spe => write!(f, "SPE"),
        }
    }
}

/// A specific core.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CoreId {
    /// The single PPE.
    Ppe,
    /// SPE number `n` (0-based).
    Spe(u8),
}

impl CoreId {
    /// The kind of this core.
    #[inline]
    pub fn kind(self) -> CoreKind {
        match self {
            CoreId::Ppe => CoreKind::Ppe,
            CoreId::Spe(_) => CoreKind::Spe,
        }
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreId::Ppe => write!(f, "PPE"),
            CoreId::Spe(n) => write!(f, "SPE{n}"),
        }
    }
}

/// Machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct CellConfig {
    /// Number of SPE cores (a PS3 exposes 6).
    pub num_spes: u8,
    /// Local store size per SPE.
    pub local_store_bytes: u32,
    /// Local store partition (resident / data cache / code cache).
    pub partition: StorePartition,
    /// Operation cost model.
    pub cost: CostModel,
    /// PPE hardware cache parameters.
    pub hwcache: HwCacheParams,
    /// Record a virtual-time event trace (hera-trace). Off by default;
    /// tracing observes but never charges virtual cycles, so enabling it
    /// cannot change simulated time.
    pub trace: bool,
    /// Deterministic fault schedule (hera-faults). Empty by default; with
    /// an empty plan every fault path is bypassed and virtual time is
    /// bit-identical to a machine built without fault support.
    pub faults: FaultPlan,
    /// Mirror every cycle charge into per-core profiler pending vectors
    /// (hera-prof). Off by default; like tracing, profiling observes but
    /// never charges virtual cycles, so enabling it cannot change
    /// simulated time.
    pub profiling: bool,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            num_spes: 6,
            local_store_bytes: LocalStore::SIZE,
            partition: StorePartition::default(),
            cost: CostModel::cell_defaults(),
            hwcache: HwCacheParams::default(),
            trace: false,
            faults: FaultPlan::default(),
            profiling: false,
        }
    }
}

/// An unrecoverable MFC transfer failure: the bounded retry budget was
/// exhausted without a clean DMA completion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MfcFault {
    /// The core whose transfer failed.
    pub core: CoreId,
    /// The last injected fault kind observed.
    pub kind: FaultKind,
    /// Total attempts made (initial try plus retries).
    pub attempts: u32,
}

impl std::fmt::Display for MfcFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MFC transfer failed on {} after {} attempts ({})",
            self.core,
            self.attempts,
            self.kind.label()
        )
    }
}

impl std::error::Error for MfcFault {}

/// Always-on fault accounting (independent of tracing), cheap enough to
/// keep unconditionally: it is only written on fault paths, which do not
/// exist under an empty plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected transient MFC transfer failures.
    pub injected_mfc_transfer: u64,
    /// Injected EIB grant timeouts.
    pub injected_eib_timeout: u64,
    /// Injected local-store corruptions (checksum mismatch at DMA-in).
    pub injected_ls_corruption: u64,
    /// Injected syscall-proxy watchdog timeouts.
    pub injected_proxy_timeout: u64,
    /// Injected migration watchdog timeouts.
    pub injected_migration_timeout: u64,
    /// MFC retry attempts made after an injected fault.
    pub mfc_retries: u64,
    /// Virtual cycles burned in exponential backoff before retries.
    pub backoff_cycles: u64,
    /// Virtual cycles burned in expired watchdog waits.
    pub watchdog_cycles: u64,
    /// Transfers abandoned after the retry budget ran out.
    pub unrecoverable: u64,
    /// Hard SPE deaths as `(spe, clock frozen at death)`.
    pub deaths: Vec<(u8, u64)>,
    /// Threads drained off dead cores by fail-over.
    pub drained_threads: u64,
    /// Dirty cache bytes salvaged from dead cores' local stores.
    pub salvaged_bytes: u64,
}

impl FaultStats {
    /// Total injected faults across every kind.
    pub fn total_injected(&self) -> u64 {
        self.injected_mfc_transfer
            + self.injected_eib_timeout
            + self.injected_ls_corruption
            + self.injected_proxy_timeout
            + self.injected_migration_timeout
    }

    /// Whether anything at all was injected or failed over.
    pub fn any(&self) -> bool {
        self.total_injected() > 0 || !self.deaths.is_empty()
    }

    fn bump(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::MfcTransfer => self.injected_mfc_transfer += 1,
            FaultKind::EibGrantTimeout => self.injected_eib_timeout += 1,
            FaultKind::LsCorruption => self.injected_ls_corruption += 1,
            FaultKind::ProxyTimeout => self.injected_proxy_timeout += 1,
            FaultKind::MigrationTimeout => self.injected_migration_timeout += 1,
        }
    }
}

/// Map an injector fault kind onto its trace-crate mirror.
fn trace_kind(kind: FaultKind) -> InjectedFault {
    match kind {
        FaultKind::MfcTransfer => InjectedFault::MfcTransfer,
        FaultKind::EibGrantTimeout => InjectedFault::EibGrantTimeout,
        FaultKind::LsCorruption => InjectedFault::LsCorruption,
        FaultKind::ProxyTimeout => InjectedFault::ProxyTimeout,
        FaultKind::MigrationTimeout => InjectedFault::MigrationTimeout,
    }
}

/// Token restoring one core's previous profiler scope
/// ([`CellMachine::prof_scope_begin`]).
#[must_use]
#[derive(Clone, Copy, Debug)]
pub struct ProfScope(CostClass);

/// Token restoring every core's previous profiler scope
/// ([`CellMachine::prof_scope_begin_all`]).
#[must_use]
#[derive(Clone, Debug)]
pub struct ProfScopeAll(Vec<CostClass>);

/// The machine: per-core virtual clocks, the shared bus, the PPE cache
/// hierarchy, SPE local stores, and per-core cycle breakdowns.
pub struct CellMachine {
    config: CellConfig,
    /// Per-core clocks; index 0 = PPE, 1.. = SPEs.
    clocks: Vec<u64>,
    /// Per-core cycle accounting.
    breakdowns: Vec<CycleBreakdown>,
    /// Shared memory-interface channel.
    pub eib: Eib,
    /// PPE L1/L2 model.
    pub ppe_cache: HwCache,
    local_stores: Vec<LocalStore>,
    /// Virtual-time event lanes (lane 0 = PPE, 1+n = SPE n). Disabled (and
    /// empty) unless `CellConfig::trace` was set.
    pub trace: TraceSink,
    /// Deterministic fault draw state for `CellConfig::faults`.
    injector: FaultInjector,
    /// Per-core blacklist; a failed core's clock is frozen and the
    /// scheduler must never dispatch to it again.
    failed: Vec<bool>,
    /// Always-on fault/recovery accounting.
    pub fault_stats: FaultStats,
    /// Profiler cost-class scope per core (outermost-non-compute wins);
    /// only consulted when `config.profiling` is set.
    prof_scope: Vec<CostClass>,
    /// Cycles charged since the runtime last drained this lane, by cost
    /// class. The profiler bills these to the active frame at each
    /// frame/quantum boundary.
    prof_pending: Vec<CostVec>,
    /// Cached straggler gate: `Some((from_cycle, factor))` when the fault
    /// plan stretches this machine (factor ≥ 2), `None` otherwise so the
    /// healthy path pays a single predictable branch per charge.
    slowdown: Option<(u64, u64)>,
}

impl CellMachine {
    /// Build a machine from configuration.
    pub fn new(config: CellConfig) -> CellMachine {
        let cores = 1 + config.num_spes as usize;
        let trace = if config.trace {
            TraceSink::with_lanes(
                std::iter::once(String::from("PPE"))
                    .chain((0..config.num_spes).map(|n| format!("SPE{n}"))),
            )
        } else {
            TraceSink::disabled()
        };
        CellMachine {
            clocks: vec![0; cores],
            breakdowns: vec![CycleBreakdown::new(); cores],
            eib: Eib::new(),
            ppe_cache: HwCache::new(config.hwcache),
            local_stores: (0..config.num_spes)
                .map(|_| LocalStore::new(config.local_store_bytes, config.partition))
                .collect(),
            trace,
            injector: FaultInjector::new(config.faults, cores),
            failed: vec![false; cores],
            fault_stats: FaultStats::default(),
            prof_scope: vec![CostClass::Compute; cores],
            prof_pending: vec![CostVec::ZERO; cores],
            slowdown: if config.faults.slowdown_active() {
                Some((
                    config.faults.slowdown_from_cycle,
                    config.faults.slowdown_factor as u64,
                ))
            } else {
                None
            },
            config,
        }
    }

    /// Whether any fault source (rates or scheduled deaths) is configured.
    #[inline]
    pub fn faults_active(&self) -> bool {
        self.injector.is_active()
    }

    /// The scheduled death cycle for SPE `spe`, if any.
    pub fn death_for(&self, spe: u8) -> Option<u64> {
        self.injector.death_for(spe)
    }

    /// Blacklist a core: freeze its clock and record the death. The
    /// scheduler must stop dispatching to it; the machine itself only
    /// guards accounting (a failed core's clock never advances again).
    pub fn mark_core_failed(&mut self, core: CoreId) {
        let i = self.idx(core);
        if self.failed[i] {
            return;
        }
        self.failed[i] = true;
        if let CoreId::Spe(n) = core {
            self.fault_stats.deaths.push((n, self.clocks[i]));
        }
        if self.trace.is_enabled() {
            if let CoreId::Spe(n) = core {
                self.trace
                    .emit(i, self.clocks[i], TraceEvent::SpeFailed { spe: n as u32 });
                self.trace.metrics.add("faults.spe_deaths", 1);
            }
        }
    }

    /// Whether `core` has been blacklisted by a scheduled death.
    #[inline]
    pub fn core_failed(&self, core: CoreId) -> bool {
        self.failed[self.idx(core)]
    }

    /// Burn bounded watchdog waits at `site` (syscall proxy / migration).
    ///
    /// Each expired deadline charges the watchdog window plus exponential
    /// backoff to `core` as a main-memory stall and re-arms; after the
    /// retry budget the operation proceeds regardless (the proxied call or
    /// hand-off is retried until it lands — degradation, not failure).
    /// Returns the extra virtual cycles charged; zero (and zero cost) when
    /// the site's rate is zero.
    pub fn watchdog_wait(&mut self, core: CoreId, site: FaultSite) -> u64 {
        if !self.injector.site_active(site) {
            return 0;
        }
        let i = self.idx(core);
        let max = self.injector.plan().max_retries;
        let watchdog = self.injector.plan().watchdog_cycles as u64;
        let mut extra = 0u64;
        let mut attempt = 0u32;
        while attempt < max {
            let Some(kind) = self.injector.draw(i, site) else {
                break;
            };
            let backoff = self.injector.backoff_cycles(attempt);
            let watchdog = self.stretched(i, watchdog);
            let backoff = self.stretched(i, backoff);
            let cost = watchdog + backoff;
            self.fault_stats.bump(kind);
            self.fault_stats.watchdog_cycles += watchdog;
            self.fault_stats.backoff_cycles += backoff;
            if self.trace.is_enabled() {
                self.trace.emit(
                    i,
                    self.clocks[i],
                    TraceEvent::WatchdogTimeout {
                        kind: trace_kind(kind),
                        cycles: watchdog,
                    },
                );
                self.trace
                    .metrics
                    .add(&format!("faults.injected.{}", kind.label()), 1);
                self.trace.metrics.record("watchdog.wait_cycles", cost);
            }
            self.clocks[i] += cost;
            self.breakdowns[i].charge_stall(OpClass::MainMemory, cost);
            self.prof_note_class(i, CostClass::FaultRetry, cost);
            extra += cost;
            attempt += 1;
        }
        extra
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.config.cost
    }

    fn idx(&self, core: CoreId) -> usize {
        match core {
            CoreId::Ppe => 0,
            CoreId::Spe(n) => {
                debug_assert!((n as usize) < self.local_stores.len(), "no such SPE {n}");
                1 + n as usize
            }
        }
    }

    /// Trace-lane index of a core (0 = PPE, 1+n = SPE n).
    #[inline]
    pub fn lane(&self, core: CoreId) -> usize {
        self.idx(core)
    }

    /// Whether profiler cost attribution is live on this machine.
    #[inline]
    pub fn profiling(&self) -> bool {
        self.config.profiling
    }

    /// Number of profiler lanes (one per core, PPE first) — same indexing
    /// as [`CellMachine::lane`].
    #[inline]
    pub fn prof_lanes(&self) -> usize {
        self.clocks.len()
    }

    /// Take (and zero) the cycles charged on `lane` since the last drain.
    /// `None` when profiling is off or nothing accrued.
    #[inline]
    pub fn prof_take(&mut self, lane: usize) -> Option<CostVec> {
        if !self.config.profiling {
            return None;
        }
        let v = self.prof_pending[lane];
        if v.is_zero() {
            None
        } else {
            self.prof_pending[lane] = CostVec::ZERO;
            Some(v)
        }
    }

    /// Open a cost-class scope on one core. The outermost non-compute
    /// scope wins: if a scope is already open the inner request is a
    /// no-op. Pass the returned token to [`CellMachine::prof_scope_end`].
    /// Scopes only label cycles; they never charge any.
    #[inline]
    pub fn prof_scope_begin(&mut self, core: CoreId, class: CostClass) -> ProfScope {
        let i = self.idx(core);
        let prev = self.prof_scope[i];
        if self.config.profiling && prev == CostClass::Compute {
            self.prof_scope[i] = class;
        }
        ProfScope(prev)
    }

    /// Close a scope opened with [`CellMachine::prof_scope_begin`].
    #[inline]
    pub fn prof_scope_end(&mut self, core: CoreId, scope: ProfScope) {
        let i = self.idx(core);
        self.prof_scope[i] = scope.0;
    }

    /// Open `class` on every core at once (stop-the-world phases such as
    /// GC, where the requester's pause propagates to every lane).
    pub fn prof_scope_begin_all(&mut self, class: CostClass) -> ProfScopeAll {
        if !self.config.profiling {
            return ProfScopeAll(Vec::new());
        }
        let saved = self.prof_scope.clone();
        for s in self.prof_scope.iter_mut() {
            if *s == CostClass::Compute {
                *s = class;
            }
        }
        ProfScopeAll(saved)
    }

    /// Close a scope opened with [`CellMachine::prof_scope_begin_all`].
    pub fn prof_scope_end_all(&mut self, scope: ProfScopeAll) {
        if scope.0.len() == self.prof_scope.len() {
            self.prof_scope = scope.0;
        }
    }

    /// Mirror `cycles` just charged on lane `i` into the profiler pending
    /// vector under the lane's current scope class.
    #[inline]
    fn prof_note(&mut self, i: usize, cycles: u64) {
        if self.config.profiling {
            self.prof_pending[i].add(self.prof_scope[i], cycles);
        }
    }

    /// Mirror `cycles` under an explicit class, bypassing the scope (fault
    /// retry/backoff time must never hide inside another class).
    #[inline]
    fn prof_note_class(&mut self, i: usize, class: CostClass, cycles: u64) {
        if self.config.profiling {
            self.prof_pending[i].add(class, cycles);
        }
    }

    /// The cost class a DMA transfer resolves to when no scope claims it.
    fn prof_dma_class(&self, i: usize, tag: DmaTag) -> CostClass {
        match self.prof_scope[i] {
            CostClass::Compute => match tag {
                DmaTag::DataCacheFill => CostClass::DataCacheFill,
                DmaTag::DataCacheWriteBack => CostClass::DataCacheWriteBack,
                DmaTag::CodeCacheLoad => CostClass::CodeCacheFill,
                DmaTag::Bypass | DmaTag::Other => CostClass::DmaStall,
            },
            open => open,
        }
    }

    /// Record a trace event on `core`'s lane, stamped with that core's
    /// current virtual clock. One branch when tracing is off; never charges
    /// cycles.
    #[inline]
    pub fn emit(&mut self, core: CoreId, event: TraceEvent) {
        if self.trace.is_enabled() {
            let i = self.idx(core);
            self.trace.emit(i, self.clocks[i], event);
        }
    }

    /// All cores on this machine, PPE first.
    pub fn cores(&self) -> Vec<CoreId> {
        let mut v = vec![CoreId::Ppe];
        v.extend((0..self.config.num_spes).map(CoreId::Spe));
        v
    }

    /// Current local time of a core.
    #[inline]
    pub fn now(&self, core: CoreId) -> u64 {
        self.clocks[self.idx(core)]
    }

    /// Stretch a *relative* cycle charge for the straggler fault shape:
    /// once core `i`'s own clock reaches the plan's `from_cycle`, every
    /// charge is multiplied by the slowdown factor. Absolute-time syncs
    /// ([`CellMachine::wait_until`], [`CellMachine::idle_until`]) are
    /// deliberately not stretched — they chase other cores' clocks, and
    /// those cores are slowed themselves. Applied before the clock add,
    /// breakdown charge, and profiler note so attribution reconciles
    /// exactly on a straggler.
    #[inline]
    fn stretched(&self, i: usize, cycles: u64) -> u64 {
        match self.slowdown {
            Some((from, factor)) if self.clocks[i] >= from => cycles.saturating_mul(factor),
            _ => cycles,
        }
    }

    /// Advance a core's clock, charging `class`.
    #[inline]
    pub fn advance(&mut self, core: CoreId, cycles: u64, class: OpClass) {
        let i = self.idx(core);
        let cycles = self.stretched(i, cycles);
        self.clocks[i] += cycles;
        self.breakdowns[i].charge(class, cycles);
        self.prof_note(i, cycles);
    }

    /// Open a charge run on `core`: an accumulator the caller charges
    /// op by op and hands back to [`CellMachine::run_settle`]. While it
    /// holds unsettled charges nothing else may read or move `core`'s
    /// clock, breakdown or profiler lane — settle first.
    #[inline]
    pub fn run_open(&self, core: CoreId) -> ChargeRun {
        let lane = self.idx(core);
        let (mult, horizon) = self.run_stretch(lane);
        ChargeRun {
            core,
            lane,
            total: 0,
            charges: 0,
            delta: CycleBreakdown::new(),
            mult,
            horizon,
            #[cfg(debug_assertions)]
            shadow: self.run_shadow(lane),
        }
    }

    /// Apply a run's accumulated charges — one clock add, one breakdown
    /// add, one profiler note; equal to having charged each op through
    /// [`CellMachine::advance`] because the scope cannot change and the
    /// stretch factor is constant inside a run — and re-arm it against
    /// the clock as it now stands. Also the way to re-arm an empty run
    /// after the clock moved by another route (a DMA, a stall).
    #[inline]
    pub fn run_settle(&mut self, run: &mut ChargeRun) {
        let i = run.lane;
        if run.charges != 0 {
            self.clocks[i] += run.total;
            self.breakdowns[i] += run.delta;
            self.prof_note(i, run.total);
            #[cfg(debug_assertions)]
            {
                let sh = &run.shadow;
                debug_assert_eq!(self.clocks[i], sh.clock, "run clock != per-op clock");
                debug_assert_eq!(self.breakdowns[i], sh.breakdown, "run breakdown != per-op");
                debug_assert_eq!(self.prof_pending[i], sh.pending, "run profile != per-op");
            }
            run.total = 0;
            run.charges = 0;
            run.delta = CycleBreakdown::new();
        }
        (run.mult, run.horizon) = self.run_stretch(i);
        #[cfg(debug_assertions)]
        {
            run.shadow = self.run_shadow(i);
        }
    }

    /// Charge one op to `run` and settle it if that reached the run's
    /// horizon (a straggler's onset): the one way to charge a run, so the
    /// stretch factor changes at exactly the charge per-op charging would
    /// change it at. Returns the stretched cycles.
    #[inline(always)]
    pub fn run_charge(
        &mut self,
        run: &mut ChargeRun,
        class: OpClass,
        cycles: impl Into<u64>,
    ) -> u64 {
        let charged = run.charge(class, cycles);
        if run.due() {
            self.run_settle(run);
        }
        charged
    }

    /// [`CellMachine::emit`] from inside a run: the event is stamped with
    /// the clock per-op charging would have reached — the core's clock
    /// plus what the run still holds — so tracing needs no settle.
    #[inline]
    pub fn run_emit(&mut self, run: &ChargeRun, event: TraceEvent) {
        if self.trace.is_enabled() {
            let at = self.clocks[run.lane] + run.total;
            #[cfg(debug_assertions)]
            debug_assert_eq!(at, run.shadow.clock, "run stamp != per-op clock");
            self.trace.emit(run.lane, at, event);
        }
    }

    /// The stretch factor charges on lane `i` take from its current
    /// clock, and how many cycles that stays true for: [`stretched`]
    /// multiplies once the clock has *reached* `from_cycle`, so a run
    /// that starts short of it must stop at the distance left.
    ///
    /// [`stretched`]: CellMachine::stretched
    #[inline]
    fn run_stretch(&self, i: usize) -> (u64, u64) {
        match self.slowdown {
            Some((from, factor)) if self.clocks[i] >= from => (factor, u64::MAX),
            Some((from, _)) => (1, from - self.clocks[i]),
            None => (1, u64::MAX),
        }
    }

    /// Lane `i` as per-op charging sees it now (debug builds).
    #[cfg(debug_assertions)]
    fn run_shadow(&self, i: usize) -> ChargeShadow {
        ChargeShadow {
            clock: self.clocks[i],
            breakdown: self.breakdowns[i],
            pending: self.prof_pending[i],
            slowdown: self.slowdown,
            scope: self.config.profiling.then(|| self.prof_scope[i]),
        }
    }

    /// Advance without counting a retired operation (stalls, waits).
    #[inline]
    pub fn stall(&mut self, core: CoreId, cycles: u64, class: OpClass) {
        let i = self.idx(core);
        let cycles = self.stretched(i, cycles);
        self.clocks[i] += cycles;
        self.breakdowns[i].charge_stall(class, cycles);
        self.prof_note(i, cycles);
    }

    /// Move a core's clock forward to at least `time` without charging
    /// anything (idle time between scheduled threads, not executed
    /// cycles — keeping it out of the Figure 5 breakdown).
    pub fn idle_until(&mut self, core: CoreId, time: u64) {
        let i = self.idx(core);
        if time > self.clocks[i] {
            self.clocks[i] = time;
        }
    }

    /// Move a core's clock forward to at least `time` (e.g. waiting for
    /// another core); the waiting cycles are charged as a stall.
    pub fn wait_until(&mut self, core: CoreId, time: u64, class: OpClass) {
        let i = self.idx(core);
        if time > self.clocks[i] {
            let wait = time - self.clocks[i];
            self.clocks[i] = time;
            self.breakdowns[i].charge_stall(class, wait);
            self.prof_note(i, wait);
        }
    }

    /// Execute one abstract operation on a core: charges the cost-model
    /// cycles to the op's Figure 5 class.
    #[inline]
    pub fn exec(&mut self, core: CoreId, op: ExecOp) {
        let cycles = self.config.cost.cost(core.kind(), op) as u64;
        self.advance(core, cycles, exec_op_class(op));
    }

    /// Issue a DMA transfer of `bytes` from an SPE: pays MFC setup +
    /// latency + (queueing + transfer) on the shared channel. All of it
    /// is main-memory time. Returns the total cycles the SPE stalled, or
    /// an [`MfcFault`] when an injected failure exhausts the retry budget.
    pub fn dma(&mut self, core: CoreId, bytes: u32) -> Result<u64, MfcFault> {
        self.dma_tagged(core, bytes, DmaTag::Other)
    }

    /// [`CellMachine::dma`] with a trace tag saying why the transfer was
    /// issued (cache fill, write-back, code load, bypass).
    pub fn dma_tagged(&mut self, core: CoreId, bytes: u32, tag: DmaTag) -> Result<u64, MfcFault> {
        debug_assert_eq!(core.kind(), CoreKind::Spe, "DMA from non-SPE core");
        self.retire_eib_windows();
        if !self.injector.mfc_active() {
            return Ok(self.dma_clean(core, bytes, tag, 0));
        }
        self.dma_faulty(core, bytes, tag)
    }

    /// Prune EIB windows no live DMA issuer can reference any more. Every
    /// future request's `now` is at least the minimum clock over the
    /// non-failed SPEs (failed cores never issue DMA again), so grants are
    /// unchanged; only the window map stays bounded.
    fn retire_eib_windows(&mut self) {
        let min = self.clocks[1..]
            .iter()
            .zip(self.failed[1..].iter())
            .filter(|&(_, &dead)| !dead)
            .map(|(&c, _)| c)
            .min();
        if let Some(min) = min {
            self.eib.retire(min);
        }
    }

    /// The unmodified (fault-free) DMA cost path: request the EIB, charge
    /// setup + latency + grant. `attempts_before` is only used to record
    /// the retry histogram when the clean completion follows failed tries.
    fn dma_clean(&mut self, core: CoreId, bytes: u32, tag: DmaTag, attempts_before: u32) -> u64 {
        let dma = self.config.cost.dma;
        let now = self.now(core);
        let transfer = dma.transfer_cycles(bytes);
        let grant = self
            .eib
            .request(now + dma.setup_cycles as u64, transfer, bytes as u64);
        let total = dma.setup_cycles as u64 + dma.latency_cycles as u64 + grant.total();
        let i = self.idx(core);
        if self.trace.is_enabled() {
            self.trace.emit(
                i,
                now,
                TraceEvent::Dma {
                    tag,
                    bytes,
                    queue_cycles: grant.queue_cycles,
                    transfer_cycles: grant.transfer_cycles,
                },
            );
            if grant.queue_cycles > 0 {
                self.trace.emit(
                    i,
                    now,
                    TraceEvent::EibStall {
                        cycles: grant.queue_cycles,
                    },
                );
            }
            self.trace.metrics.add("dma.transfers", 1);
            self.trace
                .metrics
                .add(&format!("dma.bytes.{}", tag.label()), bytes as u64);
            self.trace.metrics.record("dma.bytes", bytes as u64);
            self.trace
                .metrics
                .record("dma.queue_cycles", grant.queue_cycles);
            if attempts_before > 0 {
                self.trace
                    .metrics
                    .record("mfc.retries", attempts_before as u64);
            }
        }
        let total = self.stretched(i, total);
        self.clocks[i] += total;
        self.breakdowns[i].charge(OpClass::MainMemory, total);
        let class = self.prof_dma_class(i, tag);
        self.prof_note_class(i, class, total);
        total
    }

    /// DMA with fault injection live: bounded retry with exponential
    /// backoff in virtual cycles. Every attempt that reaches the bus
    /// claims EIB bandwidth at the core's *current* clock, so retries
    /// re-queue through the interconnect and show up as extra contention
    /// for everyone sharing the epoch.
    fn dma_faulty(&mut self, core: CoreId, bytes: u32, tag: DmaTag) -> Result<u64, MfcFault> {
        let dma = self.config.cost.dma;
        let i = self.idx(core);
        let transfer = dma.transfer_cycles(bytes);
        let max_retries = self.injector.plan().max_retries;
        let mut attempt: u32 = 0;
        let mut total: u64 = 0;
        loop {
            let Some(kind) = self.injector.draw(i, FaultSite::Mfc) else {
                return Ok(total + self.dma_clean(core, bytes, tag, attempt));
            };
            // The attempt fails. Charge what the failed attempt cost:
            // a grant timeout burns setup + the timeout window without
            // ever claiming bandwidth; a transfer error or corruption
            // completes the transfer (claiming bandwidth) before the
            // failure is detected, corruption paying the checksum too.
            let now = self.clocks[i];
            let wasted = match kind {
                FaultKind::EibGrantTimeout => {
                    dma.setup_cycles as u64 + self.injector.plan().eib_timeout_cycles as u64
                }
                FaultKind::LsCorruption => {
                    let grant =
                        self.eib
                            .request(now + dma.setup_cycles as u64, transfer, bytes as u64);
                    dma.setup_cycles as u64
                        + dma.latency_cycles as u64
                        + grant.total()
                        + self.injector.plan().checksum_cycles as u64
                }
                // MfcTransfer — and, defensively, any kind the injector
                // should not produce at this site.
                _ => {
                    debug_assert!(
                        kind == FaultKind::MfcTransfer,
                        "unexpected MFC-site fault {kind:?}"
                    );
                    let grant =
                        self.eib
                            .request(now + dma.setup_cycles as u64, transfer, bytes as u64);
                    dma.setup_cycles as u64 + dma.latency_cycles as u64 + grant.total()
                }
            };
            self.fault_stats.bump(kind);
            if self.trace.is_enabled() {
                self.trace.emit(
                    i,
                    now,
                    TraceEvent::MfcFault {
                        kind: trace_kind(kind),
                        attempt: attempt + 1,
                    },
                );
                self.trace
                    .metrics
                    .add(&format!("faults.injected.{}", kind.label()), 1);
            }
            let wasted = self.stretched(i, wasted);
            self.clocks[i] += wasted;
            self.breakdowns[i].charge_stall(OpClass::MainMemory, wasted);
            self.prof_note_class(i, CostClass::FaultRetry, wasted);
            total += wasted;
            if attempt >= max_retries {
                self.fault_stats.unrecoverable += 1;
                if self.trace.is_enabled() {
                    self.trace.metrics.add("mfc.unrecoverable", 1);
                }
                return Err(MfcFault {
                    core,
                    kind,
                    attempts: attempt + 1,
                });
            }
            // Back off exponentially in virtual time, then re-queue.
            let backoff = self.stretched(i, self.injector.backoff_cycles(attempt));
            attempt += 1;
            self.fault_stats.mfc_retries += 1;
            self.fault_stats.backoff_cycles += backoff;
            if self.trace.is_enabled() {
                self.trace.emit(
                    i,
                    self.clocks[i],
                    TraceEvent::MfcRetry {
                        attempt,
                        backoff_cycles: backoff,
                    },
                );
                self.trace.metrics.record("mfc.backoff_cycles", backoff);
            }
            self.clocks[i] += backoff;
            self.breakdowns[i].charge_stall(OpClass::MainMemory, backoff);
            self.prof_note_class(i, CostClass::FaultRetry, backoff);
            total += backoff;
        }
    }

    /// Run a PPE load/store through the L1/L2 model without charging it:
    /// the unstretched cycles it costs and the class they belong to, for
    /// a caller that charges them itself (a [`ChargeRun`]).
    #[inline]
    pub fn ppe_cache_probe(&mut self, addr: u32, len: u32) -> (u64, OpClass) {
        let (cycles, level) = self.ppe_cache.access(addr, len);
        (cycles, HwCache::class_for(level))
    }

    /// A PPE load/store touching main memory through the L1/L2 model.
    /// Returns the cycles charged.
    pub fn ppe_mem_access(&mut self, addr: u32, len: u32) -> u64 {
        let (cycles, class) = self.ppe_cache_probe(addr, len);
        let before = self.now(CoreId::Ppe);
        self.advance(CoreId::Ppe, cycles, class);
        self.now(CoreId::Ppe) - before
    }

    /// Borrow an SPE's local store.
    pub fn local_store(&self, spe: u8) -> &LocalStore {
        &self.local_stores[spe as usize]
    }

    /// A core's cycle breakdown.
    pub fn breakdown(&self, core: CoreId) -> &CycleBreakdown {
        &self.breakdowns[self.idx(core)]
    }

    /// Merged breakdown over all SPE cores (the Figure 5 aggregation).
    pub fn spe_breakdown(&self) -> CycleBreakdown {
        let mut total = CycleBreakdown::new();
        for n in 0..self.config.num_spes {
            total += *self.breakdown(CoreId::Spe(n));
        }
        total
    }

    /// The maximum clock across a set of cores — the wall-clock finish
    /// time of a parallel phase.
    pub fn makespan(&self, cores: &[CoreId]) -> u64 {
        cores.iter().map(|&c| self.now(c)).max().unwrap_or(0)
    }

    // ---- snapshot support -------------------------------------------------
    //
    // The accessors below exist solely so `hera-core::snapshot` can capture
    // and restore the machine exactly. Restores bypass every side effect
    // (no trace events, no fault accounting): the snapshot already holds
    // the state those side effects produced.

    /// Per-core clocks, PPE first.
    pub fn clocks(&self) -> &[u64] {
        &self.clocks
    }

    /// Restore per-core clocks. Fails on core-count mismatch.
    pub fn set_clocks(&mut self, clocks: &[u64]) -> Result<(), &'static str> {
        if clocks.len() != self.clocks.len() {
            return Err("core count mismatch (clocks)");
        }
        self.clocks.copy_from_slice(clocks);
        Ok(())
    }

    /// Per-core cycle breakdowns, PPE first.
    pub fn breakdowns(&self) -> &[CycleBreakdown] {
        &self.breakdowns
    }

    /// Restore per-core cycle breakdowns. Fails on core-count mismatch.
    pub fn set_breakdowns(&mut self, breakdowns: &[CycleBreakdown]) -> Result<(), &'static str> {
        if breakdowns.len() != self.breakdowns.len() {
            return Err("core count mismatch (breakdowns)");
        }
        self.breakdowns.copy_from_slice(breakdowns);
        Ok(())
    }

    /// Per-core blacklist flags, PPE first.
    pub fn failed_flags(&self) -> &[bool] {
        &self.failed
    }

    /// Restore the blacklist without re-emitting death events or touching
    /// `fault_stats` (the snapshot carries both already).
    pub fn set_failed_flags(&mut self, flags: &[bool]) -> Result<(), &'static str> {
        if flags.len() != self.failed.len() {
            return Err("core count mismatch (failed flags)");
        }
        self.failed.copy_from_slice(flags);
        Ok(())
    }

    /// Replace the machine's fault plan mid-build, rebuilding the
    /// injector with fresh draw counters.
    ///
    /// This is the cross-machine snapshot *adoption* hook: restoring a
    /// checkpoint on a different machine installs the plan the snapshot
    /// was taken under (the fault stream travels with the VM), then
    /// restores the draw counters via [`CellMachine::set_injector_counts`].
    /// It must only be called before the restored clocks start advancing.
    pub fn adopt_fault_plan(&mut self, plan: FaultPlan) {
        self.config.faults = plan;
        // The straggler stretch is cached at construction; refresh it so
        // an adopted snapshot runs under the carried plan's slowdown, not
        // the destination machine's.
        self.slowdown = if plan.slowdown_active() {
            Some((plan.slowdown_from_cycle, plan.slowdown_factor as u64))
        } else {
            None
        };
        self.injector = FaultInjector::new(plan, self.clocks.len());
    }

    /// The fault injector's per-`(core, site)` draw counters.
    pub fn injector_counts(&self) -> &[[u64; NUM_SITES]] {
        self.injector.counts()
    }

    /// Restore the fault injector's draw counters.
    pub fn set_injector_counts(&mut self, counts: &[[u64; NUM_SITES]]) -> Result<(), &'static str> {
        self.injector.set_counts(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> CellMachine {
        CellMachine::new(CellConfig::default())
    }

    #[test]
    fn clocks_start_at_zero_and_advance_independently() {
        let mut m = machine();
        assert_eq!(m.now(CoreId::Ppe), 0);
        m.advance(CoreId::Spe(0), 100, OpClass::Integer);
        assert_eq!(m.now(CoreId::Spe(0)), 100);
        assert_eq!(m.now(CoreId::Spe(1)), 0);
        assert_eq!(m.now(CoreId::Ppe), 0);
    }

    #[test]
    fn exec_charges_core_specific_costs() {
        let mut m = machine();
        m.exec(CoreId::Ppe, ExecOp::FloatMul);
        m.exec(CoreId::Spe(0), ExecOp::FloatMul);
        assert!(m.now(CoreId::Ppe) > m.now(CoreId::Spe(0)));
        assert!(m.breakdown(CoreId::Ppe).cycles(OpClass::FloatingPoint) > 0);
    }

    #[test]
    fn dma_stalls_and_charges_main_memory() {
        let mut m = machine();
        let stall = m.dma(CoreId::Spe(0), 1024).expect("no faults planned");
        // setup(50) + latency(100) + transfer(32) = 182 minimum
        assert!(stall >= 182);
        assert_eq!(m.now(CoreId::Spe(0)), stall);
        assert_eq!(
            m.breakdown(CoreId::Spe(0)).cycles(OpClass::MainMemory),
            stall
        );
        assert_eq!(m.eib.transfers, 1);
    }

    #[test]
    fn concurrent_dmas_contend() {
        let mut m = machine();
        // Two SPEs at the same local time issue large transfers.
        let a = m.dma(CoreId::Spe(0), 16 << 10).expect("no faults planned");
        let b = m.dma(CoreId::Spe(1), 16 << 10).expect("no faults planned");
        assert!(b > a, "second requester must queue behind the first");
    }

    #[test]
    fn rateless_seeded_plan_matches_default_machine_exactly() {
        // A plan with a seed but no rates must take the untouched DMA
        // fast path: identical stalls, clocks, and EIB accounting.
        let mut quiet = machine();
        let cfg = CellConfig {
            faults: FaultPlan::seeded(0xdead_beef),
            ..CellConfig::default()
        };
        let mut seeded = CellMachine::new(cfg);
        for i in 0..64u32 {
            let spe = CoreId::Spe((i % 6) as u8);
            let a = quiet.dma(spe, 1024 + i * 8).unwrap();
            let b = seeded.dma(spe, 1024 + i * 8).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(quiet.now(CoreId::Spe(0)), seeded.now(CoreId::Spe(0)));
        assert_eq!(quiet.eib.transfers, seeded.eib.transfers);
        assert!(!seeded.fault_stats.any());
    }

    #[test]
    fn certain_faults_exhaust_retries_into_mfc_fault() {
        let cfg = CellConfig {
            faults: FaultPlan::seeded(1)
                .with_mfc_faults(1_000_000, 0, 0)
                .expect("valid"),
            ..CellConfig::default()
        };
        let mut m = CellMachine::new(cfg);
        let err = m.dma(CoreId::Spe(0), 1024).unwrap_err();
        assert_eq!(err.kind, FaultKind::MfcTransfer);
        assert_eq!(err.attempts, 5); // initial try + max_retries(4)
        assert_eq!(m.fault_stats.mfc_retries, 4);
        assert_eq!(m.fault_stats.unrecoverable, 1);
        // Exponential backoff: 256 + 512 + 1024 + 2048.
        assert_eq!(m.fault_stats.backoff_cycles, 256 + 512 + 1024 + 2048);
        assert!(m.now(CoreId::Spe(0)) > 182);
    }

    #[test]
    fn transient_faults_recover_and_charge_backoff() {
        // A moderate rate recovers within the retry budget virtually
        // always; scan a few transfers and require at least one retry.
        let cfg = CellConfig {
            faults: FaultPlan::seeded(7)
                .with_mfc_faults(200_000, 100_000, 100_000)
                .expect("valid"),
            ..CellConfig::default()
        };
        let mut m = CellMachine::new(cfg);
        let mut ok = 0u32;
        for i in 0..200u32 {
            if m.dma(CoreId::Spe((i % 6) as u8), 2048).is_ok() {
                ok += 1;
            }
        }
        // At a 40% per-attempt rate, an unrecoverable failure needs five
        // bad draws in a row (~1%); nearly every transfer must recover.
        assert!(ok >= 190, "only {ok}/200 transfers recovered");
        assert!(m.fault_stats.total_injected() > 0);
        assert!(m.fault_stats.mfc_retries > 0);
        assert!(m.fault_stats.backoff_cycles > 0);
    }

    #[test]
    fn faulty_dma_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let cfg = CellConfig {
                faults: FaultPlan::seeded(seed)
                    .with_mfc_faults(150_000, 100_000, 80_000)
                    .expect("valid"),
                ..CellConfig::default()
            };
            let mut m = CellMachine::new(cfg);
            let mut stalls = Vec::new();
            for i in 0..300u32 {
                stalls.push(m.dma(CoreId::Spe((i % 6) as u8), 1024));
            }
            (stalls, m.fault_stats.clone(), m.now(CoreId::Spe(0)))
        };
        assert_eq!(run(3), run(3), "same seed must replay identically");
        assert_ne!(run(3).1, run(4).1, "different seeds must diverge");
    }

    #[test]
    fn slowdown_stretches_relative_charges_after_onset() {
        let cfg = CellConfig {
            faults: FaultPlan::default().with_slowdown(4, 100).expect("valid"),
            ..CellConfig::default()
        };
        let mut slow = CellMachine::new(cfg);
        let mut clean = machine();
        // Before the onset cycle charges are nominal.
        slow.advance(CoreId::Spe(0), 60, OpClass::Integer);
        clean.advance(CoreId::Spe(0), 60, OpClass::Integer);
        assert_eq!(slow.now(CoreId::Spe(0)), clean.now(CoreId::Spe(0)));
        // Crossing the onset: the next charge lands at 60 < 100 so it is
        // still nominal; once the clock passes 100 every relative charge
        // is multiplied by the factor.
        slow.advance(CoreId::Spe(0), 50, OpClass::Integer);
        clean.advance(CoreId::Spe(0), 50, OpClass::Integer);
        assert_eq!(slow.now(CoreId::Spe(0)), 110);
        slow.stall(CoreId::Spe(0), 10, OpClass::Branch);
        clean.stall(CoreId::Spe(0), 10, OpClass::Branch);
        assert_eq!(slow.now(CoreId::Spe(0)), 150);
        assert_eq!(clean.now(CoreId::Spe(0)), 120);
        // Absolute-time syncs are not stretched: both machines land on
        // the same target cycle.
        slow.wait_until(CoreId::Spe(0), 500, OpClass::Branch);
        assert_eq!(slow.now(CoreId::Spe(0)), 500);
        // DMA stalls stretch too (4x the clean machine's charge).
        let clean_dma = clean.dma(CoreId::Spe(1), 1024).expect("clean dma");
        let slow_pre = slow.dma(CoreId::Spe(1), 1024).expect("slow dma pre-onset");
        assert_eq!(clean_dma, slow_pre, "SPE1 clock still below onset");
        // Skip to a fresh EIB window so the second transfer sees a quiet
        // bus and the only delta is the stretch itself.
        slow.idle_until(CoreId::Spe(1), 5_000);
        let slow_dma = slow.dma(CoreId::Spe(1), 1024).expect("slow dma post-onset");
        assert_eq!(slow_dma, clean_dma * 4);
    }

    /// A charge run ≡ the same charges through `advance`, op by op:
    /// clock, breakdown and profiler lane, with a slowdown whose onset
    /// falls inside the run, runs settled at random points, and stalls
    /// charged directly between settles.
    #[test]
    fn charge_run_matches_per_op_charging_across_slowdown_onset() {
        use hera_rng::SplitMix64;
        const CLASSES: [OpClass; 4] = [
            OpClass::Stack,
            OpClass::Integer,
            OpClass::FloatingPoint,
            OpClass::Branch,
        ];
        for seed in 1..=6u64 {
            for (factor, from) in [(1, 0), (3, 0), (3, 1), (3, 7_777), (5, 20_001)] {
                let cfg = CellConfig {
                    profiling: seed % 2 == 0,
                    faults: FaultPlan::default()
                        .with_slowdown(factor, from)
                        .expect("valid"),
                    ..CellConfig::default()
                };
                let core = CoreId::Spe(2);
                let mut per_op = CellMachine::new(cfg);
                let mut batched = CellMachine::new(cfg);
                let scope = batched.prof_scope_begin(core, CostClass::Syscall);
                let _ = per_op.prof_scope_begin(core, CostClass::Syscall);
                let mut rng = SplitMix64::new(seed);
                let mut run = batched.run_open(core);
                for _ in 0..5_000 {
                    let class = CLASSES[rng.next_below(4) as usize];
                    let cycles = rng.next_below(12);
                    let before = per_op.now(core);
                    per_op.advance(core, cycles, class);
                    assert_eq!(
                        run.charge(class, cycles),
                        per_op.now(core) - before,
                        "stretched cycles of one charge"
                    );
                    if run.due() || rng.next_below(40) == 0 {
                        batched.run_settle(&mut run);
                        assert_eq!(batched.now(core), per_op.now(core));
                    }
                    if rng.next_below(100) == 0 {
                        batched.run_settle(&mut run);
                        batched.stall(core, 150, OpClass::MainMemory);
                        per_op.stall(core, 150, OpClass::MainMemory);
                        batched.run_settle(&mut run);
                    }
                }
                batched.run_settle(&mut run);
                batched.prof_scope_end(core, scope);
                let at = format!("seed {seed}, x{factor} from {from}");
                assert_eq!(batched.now(core), per_op.now(core), "{at}");
                assert!(batched.now(core) > from, "{at}: onset never reached");
                assert_eq!(batched.breakdown(core), per_op.breakdown(core), "{at}");
                let lane = batched.lane(core);
                assert_eq!(batched.prof_take(lane), per_op.prof_take(lane), "{at}");
            }
        }
    }

    /// The debug shadow is only an oracle if it fires: a clock moved by
    /// another route while a run holds charges must fail the next settle.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "run clock != per-op clock")]
    fn debug_shadow_catches_a_clock_moved_behind_an_open_run() {
        let mut m = machine();
        let mut run = m.run_open(CoreId::Ppe);
        run.charge(OpClass::Stack, 2u32);
        m.stall(CoreId::Ppe, 20, OpClass::MainMemory); // no settle first
        m.run_settle(&mut run);
    }

    #[test]
    fn dead_core_is_blacklisted_with_frozen_clock() {
        let mut m = machine();
        m.advance(CoreId::Spe(2), 777, OpClass::Integer);
        m.mark_core_failed(CoreId::Spe(2));
        assert!(m.core_failed(CoreId::Spe(2)));
        assert!(!m.core_failed(CoreId::Spe(1)));
        assert_eq!(m.fault_stats.deaths, vec![(2, 777)]);
        // Marking twice does not double-record.
        m.mark_core_failed(CoreId::Spe(2));
        assert_eq!(m.fault_stats.deaths.len(), 1);
    }

    #[test]
    fn watchdog_waits_are_bounded_and_gated() {
        // Site inactive: zero cost, zero draws.
        let mut m = machine();
        assert_eq!(m.watchdog_wait(CoreId::Spe(0), FaultSite::SyscallProxy), 0);
        assert_eq!(m.now(CoreId::Spe(0)), 0);
        // Site certain to fire: bounded by max_retries.
        let cfg = CellConfig {
            faults: FaultPlan::seeded(2).with_proxy_faults(1_000_000),
            ..CellConfig::default()
        };
        let mut m = CellMachine::new(cfg);
        let extra = m.watchdog_wait(CoreId::Spe(1), FaultSite::SyscallProxy);
        // 4 expirations of watchdog(2000) + backoff 256+512+1024+2048.
        assert_eq!(extra, 4 * 2000 + 256 + 512 + 1024 + 2048);
        assert_eq!(m.fault_stats.injected_proxy_timeout, 4);
    }

    #[test]
    fn long_dma_runs_keep_the_eib_window_map_bounded() {
        let mut m = machine();
        for round in 0..20_000u64 {
            for n in 0..6u8 {
                m.dma(CoreId::Spe(n), 1024).unwrap();
                // Cores also burn compute between transfers so clocks move.
                m.advance(CoreId::Spe(n), 500, OpClass::Integer);
            }
            let _ = round;
        }
        // Unbounded growth would be on the order of clock/2048 entries
        // (thousands); retirement keeps the live set near the clock skew.
        assert!(
            m.eib.windows_len() < 64,
            "EIB window map grew to {}",
            m.eib.windows_len()
        );
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let mut m = machine();
        m.advance(CoreId::Spe(0), 500, OpClass::Integer);
        m.wait_until(CoreId::Spe(0), 300, OpClass::MainMemory);
        assert_eq!(m.now(CoreId::Spe(0)), 500);
        m.wait_until(CoreId::Spe(0), 900, OpClass::MainMemory);
        assert_eq!(m.now(CoreId::Spe(0)), 900);
        assert_eq!(m.breakdown(CoreId::Spe(0)).cycles(OpClass::MainMemory), 400);
    }

    #[test]
    fn ppe_mem_access_uses_hierarchy() {
        let mut m = machine();
        let miss = m.ppe_mem_access(0x8000, 4);
        let hit = m.ppe_mem_access(0x8000, 4);
        assert!(hit < miss);
    }

    #[test]
    fn cores_enumeration() {
        let m = machine();
        let cores = m.cores();
        assert_eq!(cores.len(), 7);
        assert_eq!(cores[0], CoreId::Ppe);
        assert_eq!(cores[6], CoreId::Spe(5));
        assert_eq!(CoreId::Spe(3).kind(), CoreKind::Spe);
    }

    #[test]
    fn spe_breakdown_merges() {
        let mut m = machine();
        m.advance(CoreId::Spe(0), 10, OpClass::Branch);
        m.advance(CoreId::Spe(5), 7, OpClass::Branch);
        m.advance(CoreId::Ppe, 99, OpClass::Branch);
        assert_eq!(m.spe_breakdown().cycles(OpClass::Branch), 17);
    }

    #[test]
    fn makespan_is_max_clock() {
        let mut m = machine();
        m.advance(CoreId::Spe(0), 10, OpClass::Integer);
        m.advance(CoreId::Spe(1), 25, OpClass::Integer);
        assert_eq!(m.makespan(&[CoreId::Spe(0), CoreId::Spe(1)]), 25);
        assert_eq!(m.makespan(&[]), 0);
    }

    fn prof_machine() -> CellMachine {
        CellMachine::new(CellConfig {
            profiling: true,
            ..CellConfig::default()
        })
    }

    #[test]
    fn profiling_off_records_nothing() {
        let mut m = machine();
        m.advance(CoreId::Spe(0), 100, OpClass::Integer);
        for lane in 0..m.prof_lanes() {
            assert!(m.prof_take(lane).is_none());
        }
    }

    #[test]
    fn profiling_mirrors_every_charge_exactly() {
        let mut m = prof_machine();
        m.advance(CoreId::Spe(0), 100, OpClass::Integer);
        m.stall(CoreId::Spe(0), 50, OpClass::MainMemory);
        m.wait_until(CoreId::Spe(0), 10, OpClass::MainMemory); // no-op, past
        m.wait_until(CoreId::Spe(0), 200, OpClass::MainMemory); // +50
        m.dma_tagged(CoreId::Spe(0), 1024, DmaTag::Bypass).unwrap();
        m.ppe_mem_access(0x8000, 4);
        m.idle_until(CoreId::Spe(0), 10_000); // idle must NOT be attributed
        let spe = m.prof_take(m.lane(CoreId::Spe(0))).unwrap();
        let ppe = m.prof_take(m.lane(CoreId::Ppe)).unwrap();
        assert_eq!(spe.total(), m.breakdown(CoreId::Spe(0)).total_cycles());
        assert_eq!(ppe.total(), m.breakdown(CoreId::Ppe).total_cycles());
        // 200 compute/stall cycles under the default scope, DMA classed by
        // its tag.
        assert_eq!(spe.get(CostClass::Compute), 200);
        assert!(spe.get(CostClass::DmaStall) > 0);
        // Drained means drained.
        assert!(m.prof_take(m.lane(CoreId::Spe(0))).is_none());
    }

    #[test]
    fn dma_tags_map_to_cache_cost_classes() {
        let mut m = prof_machine();
        m.dma_tagged(CoreId::Spe(0), 128, DmaTag::DataCacheFill)
            .unwrap();
        m.dma_tagged(CoreId::Spe(0), 128, DmaTag::DataCacheWriteBack)
            .unwrap();
        m.dma_tagged(CoreId::Spe(0), 128, DmaTag::CodeCacheLoad)
            .unwrap();
        let v = m.prof_take(m.lane(CoreId::Spe(0))).unwrap();
        assert!(v.get(CostClass::DataCacheFill) > 0);
        assert!(v.get(CostClass::DataCacheWriteBack) > 0);
        assert!(v.get(CostClass::CodeCacheFill) > 0);
        assert_eq!(v.get(CostClass::Compute), 0);
        assert_eq!(v.total(), m.breakdown(CoreId::Spe(0)).total_cycles());
    }

    #[test]
    fn outermost_non_compute_scope_wins() {
        let mut m = prof_machine();
        let outer = m.prof_scope_begin(CoreId::Spe(0), CostClass::GcPause);
        let inner = m.prof_scope_begin(CoreId::Spe(0), CostClass::JmmBarrier);
        m.advance(CoreId::Spe(0), 10, OpClass::Integer);
        // A DMA under an open scope is billed to the scope, not the tag.
        m.dma_tagged(CoreId::Spe(0), 128, DmaTag::DataCacheFill)
            .unwrap();
        m.prof_scope_end(CoreId::Spe(0), inner);
        m.advance(CoreId::Spe(0), 7, OpClass::Integer);
        m.prof_scope_end(CoreId::Spe(0), outer);
        m.advance(CoreId::Spe(0), 3, OpClass::Integer);
        let v = m.prof_take(m.lane(CoreId::Spe(0))).unwrap();
        assert_eq!(v.get(CostClass::JmmBarrier), 0);
        assert_eq!(v.get(CostClass::Compute), 3);
        assert_eq!(v.get(CostClass::GcPause), v.total() - 3);
    }

    #[test]
    fn scope_all_covers_every_lane_and_restores() {
        let mut m = prof_machine();
        let tok = m.prof_scope_begin_all(CostClass::GcPause);
        m.advance(CoreId::Ppe, 5, OpClass::MainMemory);
        m.advance(CoreId::Spe(3), 9, OpClass::Integer);
        m.prof_scope_end_all(tok);
        m.advance(CoreId::Spe(3), 2, OpClass::Integer);
        let ppe = m.prof_take(m.lane(CoreId::Ppe)).unwrap();
        let spe = m.prof_take(m.lane(CoreId::Spe(3))).unwrap();
        assert_eq!(ppe.get(CostClass::GcPause), 5);
        assert_eq!(spe.get(CostClass::GcPause), 9);
        assert_eq!(spe.get(CostClass::Compute), 2);
    }

    #[test]
    fn fault_retry_cycles_bypass_open_scopes() {
        let mut m = CellMachine::new(CellConfig {
            profiling: true,
            faults: FaultPlan::seeded(7)
                .with_mfc_faults(1_000_000, 0, 0)
                .expect("valid"),
            ..CellConfig::default()
        });
        let tok = m.prof_scope_begin(CoreId::Spe(0), CostClass::Migration);
        // At ppm=1e6 every draw faults; the transfer exhausts its budget,
        // but all wasted/backoff cycles must land in FaultRetry.
        let _ = m.dma_tagged(CoreId::Spe(0), 4096, DmaTag::DataCacheFill);
        m.prof_scope_end(CoreId::Spe(0), tok);
        let v = m.prof_take(m.lane(CoreId::Spe(0))).unwrap();
        assert!(v.get(CostClass::FaultRetry) > 0);
        assert_eq!(v.total(), m.breakdown(CoreId::Spe(0)).total_cycles());
    }

    #[test]
    fn profiling_does_not_perturb_virtual_time() {
        let mut quiet = machine();
        let mut prof = prof_machine();
        for m in [&mut quiet, &mut prof] {
            m.exec(CoreId::Spe(2), ExecOp::FloatMul);
            m.dma_tagged(CoreId::Spe(2), 2048, DmaTag::DataCacheFill)
                .unwrap();
            m.ppe_mem_access(0x100, 8);
            m.wait_until(CoreId::Ppe, m.now(CoreId::Spe(2)), OpClass::MainMemory);
        }
        for core in quiet.cores() {
            assert_eq!(quiet.now(core), prof.now(core));
        }
    }
}

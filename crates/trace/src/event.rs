//! Typed trace events.
//!
//! Every event is `Copy` and carries only plain integers: the simulator maps
//! its own ids (method indices, object handles, native ids, core indices)
//! onto `u32` lanes/ids before emitting.  Exporters that want symbolic names
//! accept a name table (see [`crate::chrome_trace_json_named`]).

use crate::chrome::num;

/// Which of the paper's three migration paths moved a thread between cores.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MigrationKind {
    /// `@RunOnSpe`/`@RunOnPpe`-style annotation migration: a marker frame is
    /// pushed and the thread returns to its origin core when it pops.
    Annotation,
    /// Monitor-driven one-way migration (the thread stays on the target
    /// core after the monitor section; no marker frame).
    Monitored,
    /// Return over a migration marker frame: the thread travels back to the
    /// core recorded in the marker.
    MarkerReturn,
    /// Fail-over drain: the scheduler repackaged the thread off a dead core
    /// by reusing the migration machinery (frames rehomed to the PPE).
    Failover,
}

impl MigrationKind {
    pub fn label(self) -> &'static str {
        match self {
            MigrationKind::Annotation => "annotation",
            MigrationKind::Monitored => "monitored",
            MigrationKind::MarkerReturn => "marker-return",
            MigrationKind::Failover => "failover",
        }
    }
}

/// Which injected fault a fault/retry/watchdog event refers to.
///
/// Mirrors the fault kinds of the `hera-faults` crate without depending on
/// it (the trace crate stays dependency-free and simulator-agnostic).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum InjectedFault {
    /// Transient MFC transfer failure.
    MfcTransfer,
    /// EIB grant timeout.
    EibGrantTimeout,
    /// Local-store corruption detected at DMA-in (checksum mismatch).
    LsCorruption,
    /// Syscall-proxy watchdog deadline missed.
    ProxyTimeout,
    /// Migration watchdog deadline missed.
    MigrationTimeout,
}

impl InjectedFault {
    pub fn label(self) -> &'static str {
        match self {
            InjectedFault::MfcTransfer => "mfc-transfer",
            InjectedFault::EibGrantTimeout => "eib-grant-timeout",
            InjectedFault::LsCorruption => "ls-corruption",
            InjectedFault::ProxyTimeout => "proxy-timeout",
            InjectedFault::MigrationTimeout => "migration-timeout",
        }
    }
}

/// JMM barrier flavour (acquire = purge cached lines, release = write back
/// dirty lines).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BarrierKind {
    Acquire,
    Release,
}

impl BarrierKind {
    pub fn label(self) -> &'static str {
        match self {
            BarrierKind::Acquire => "acquire",
            BarrierKind::Release => "release",
        }
    }
}

/// Why a DMA transfer crossed the EIB.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DmaTag {
    /// Software data-cache miss fill.
    DataCacheFill,
    /// Software data-cache dirty-span write-back.
    DataCacheWriteBack,
    /// Code-cache TIB/method/bypass load.
    CodeCacheLoad,
    /// Uncached (bypass) field access straight to main memory.
    Bypass,
    /// Anything else (untagged legacy call sites).
    Other,
}

impl DmaTag {
    pub fn label(self) -> &'static str {
        match self {
            DmaTag::DataCacheFill => "dcache-fill",
            DmaTag::DataCacheWriteBack => "dcache-writeback",
            DmaTag::CodeCacheLoad => "ccache-load",
            DmaTag::Bypass => "bypass",
            DmaTag::Other => "other",
        }
    }
}

/// Stop-the-world collector phase.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GcPhase {
    Mark,
    Sweep,
}

impl GcPhase {
    pub fn label(self) -> &'static str {
        match self {
            GcPhase::Mark => "mark",
            GcPhase::Sweep => "sweep",
        }
    }
}

/// One timestamped observation from the simulator.
///
/// Variants mirror the instrumentation points named in the design doc:
/// interpreter frames, the three migration paths, MFC DMA and EIB stalls,
/// software data/code-cache traffic, JMM barriers, monitors, native-call
/// bridging, GC phases and scheduler context switches.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TraceEvent {
    /// A new interpreter frame was pushed for `method`.
    MethodInvoke { method: u32 },
    /// The frame for `method` returned.
    MethodReturn { method: u32 },
    /// Thread `thread` leaves this lane for `to_lane`.
    MigrateOut {
        kind: MigrationKind,
        to_lane: u32,
        thread: u32,
    },
    /// Thread `thread` arrives on this lane from `from_lane`.
    MigrateIn {
        kind: MigrationKind,
        from_lane: u32,
        thread: u32,
    },
    /// An MFC DMA transfer of `bytes` issued from this lane.
    Dma {
        tag: DmaTag,
        bytes: u32,
        queue_cycles: u64,
        transfer_cycles: u64,
    },
    /// The EIB arbitration queued this lane's transfer for `cycles`.
    EibStall { cycles: u64 },
    /// Software data-cache hit at `addr`.
    DataCacheHit { addr: u32 },
    /// `hits` ≥ 2 consecutive data-cache hits on this lane with nothing
    /// else emitted between them: the first at `addr` at the record's
    /// `at`, the last at virtual cycle `until`. Only [`TraceSink::emit`]
    /// makes one, out of the [`TraceEvent::DataCacheHit`]s it is handed;
    /// where the hits between the first and the last fell is not kept
    /// (the exact totals are `dcache.hits` in the metrics registry).
    ///
    /// [`TraceSink::emit`]: crate::TraceSink::emit
    DataCacheHitRun { addr: u32, hits: u32, until: u64 },
    /// Software data-cache miss at `addr`; `bytes` fetched from main memory.
    DataCacheMiss { addr: u32, bytes: u32 },
    /// Dirty span of `bytes` written back from the software data cache.
    DataCacheWriteBack { addr: u32, bytes: u32 },
    /// The software data cache was invalidated (`resident_units` entries).
    DataCachePurge { resident_units: u32 },
    /// Uncached access of `bytes` at `addr` that bypassed the data cache.
    DataCacheBypass { addr: u32, bytes: u32 },
    /// Code cache already held the compiled body for `method`.
    CodeCacheHit { method: u32 },
    /// Code cache loaded `bytes` of code for `method`.
    CodeCacheMiss { method: u32, bytes: u32 },
    /// TIB for `class` was already cached.
    CodeCacheTibHit { class: u32 },
    /// TIB for `class` loaded (`bytes`).
    CodeCacheTibMiss { class: u32, bytes: u32 },
    /// Code cache evicted everything (`bytes_in_use` before the purge).
    CodeCachePurge { bytes_in_use: u32 },
    /// A Java-memory-model barrier ran on this lane.
    JmmBarrier { kind: BarrierKind },
    /// Monitor on `obj` acquired without contention.
    MonitorAcquire { obj: u32 },
    /// Monitor on `obj` was contended (acquire blocked or queued).
    MonitorContended { obj: u32 },
    /// Monitor on `obj` released.
    MonitorRelease { obj: u32 },
    /// SPE proxied fast syscall `native` to the PPE (thread stays put).
    SyscallProxy { native: u32 },
    /// SPE bridged JNI-kind native `native` via a round-trip migration.
    JniBridge { native: u32 },
    /// Stop-the-world collection begins; requested from `requester_lane`.
    GcBegin { requester_lane: u32 },
    /// A collector phase finished, having visited `items` objects /
    /// `bytes` bytes.
    GcPhaseEnd {
        phase: GcPhase,
        items: u64,
        bytes: u64,
    },
    /// Stop-the-world collection ends.
    GcEnd {
        freed_objects: u64,
        freed_bytes: u64,
    },
    /// The scheduler switched this lane to run `thread`.
    ThreadSwitch { thread: u32 },
    /// An injected fault fired on this lane (DMA attempt `attempt`).
    MfcFault { kind: InjectedFault, attempt: u32 },
    /// The MFC re-queued a failed transfer after `backoff_cycles` of
    /// exponential backoff (retry number `attempt`, 1-based).
    MfcRetry { attempt: u32, backoff_cycles: u64 },
    /// A proxy/migration watchdog deadline expired; `cycles` were burned
    /// waiting before the operation was retried.
    WatchdogTimeout { kind: InjectedFault, cycles: u64 },
    /// This SPE lane died at its current virtual cycle and is blacklisted.
    SpeFailed { spe: u32 },
    /// Fail-over drained `threads` resident threads off this dead lane.
    SpeDrained { threads: u32 },
    /// A whole-VM checkpoint was written at a scheduler safepoint.  `bytes`
    /// is the size of the machine-state section of the snapshot (the part
    /// whose write cost is charged as PPE stall time).
    Checkpoint { seq: u32, bytes: u32 },
    /// The run was resumed from checkpoint `seq` of an earlier run.
    Restore { seq: u32 },
}

/// What every event of one kind shares.
pub(crate) struct TraceKind {
    /// Rank of `name` among all kinds' names: a per-kind array indexed by
    /// it is in the order the text summary lists kinds in.
    pub index: usize,
    /// Stable short name for summaries and export `name` fields.
    pub name: &'static str,
    /// Chrome category.
    pub cat: &'static str,
}

/// How many kinds there are (one per variant).
pub(crate) const KINDS: usize = 34;

/// `<key>"<label>"` for the static ASCII labels, which need no escaping.
fn text(out: &mut String, key: &str, label: &str) {
    out.push_str(key);
    out.push('"');
    out.push_str(label);
    out.push('"');
}

impl TraceEvent {
    /// The one table of event kinds, in name order.
    pub(crate) fn kind(&self) -> TraceKind {
        let kind = |index, name, cat| TraceKind { index, name, cat };
        match self {
            TraceEvent::CodeCacheHit { .. } => kind(0, "ccache.hit", "ccache"),
            TraceEvent::CodeCacheMiss { .. } => kind(1, "ccache.miss", "ccache"),
            TraceEvent::CodeCachePurge { .. } => kind(2, "ccache.purge", "ccache"),
            TraceEvent::CodeCacheTibHit { .. } => kind(3, "ccache.tib_hit", "ccache"),
            TraceEvent::CodeCacheTibMiss { .. } => kind(4, "ccache.tib_miss", "ccache"),
            TraceEvent::DataCacheBypass { .. } => kind(5, "dcache.bypass", "dcache"),
            TraceEvent::DataCacheHit { .. } => kind(6, "dcache.hit", "dcache"),
            TraceEvent::DataCacheHitRun { .. } => kind(7, "dcache.hit_run", "dcache"),
            TraceEvent::DataCacheMiss { .. } => kind(8, "dcache.miss", "dcache"),
            TraceEvent::DataCachePurge { .. } => kind(9, "dcache.purge", "dcache"),
            TraceEvent::DataCacheWriteBack { .. } => kind(10, "dcache.writeback", "dcache"),
            TraceEvent::Dma { .. } => kind(11, "dma", "dma"),
            TraceEvent::EibStall { .. } => kind(12, "eib.stall", "dma"),
            TraceEvent::MfcFault { .. } => kind(13, "fault.mfc", "fault"),
            TraceEvent::MfcRetry { .. } => kind(14, "fault.retry", "fault"),
            TraceEvent::SpeDrained { .. } => kind(15, "fault.spe_drained", "fault"),
            TraceEvent::SpeFailed { .. } => kind(16, "fault.spe_failed", "fault"),
            TraceEvent::WatchdogTimeout { .. } => kind(17, "fault.watchdog", "fault"),
            TraceEvent::GcBegin { .. } => kind(18, "gc.begin", "gc"),
            TraceEvent::GcEnd { .. } => kind(19, "gc.end", "gc"),
            TraceEvent::GcPhaseEnd { .. } => kind(20, "gc.phase_end", "gc"),
            TraceEvent::JmmBarrier { .. } => kind(21, "jmm.barrier", "jmm"),
            TraceEvent::MethodInvoke { .. } => kind(22, "method.invoke", "method"),
            TraceEvent::MethodReturn { .. } => kind(23, "method.return", "method"),
            TraceEvent::MigrateIn { .. } => kind(24, "migrate.in", "migration"),
            TraceEvent::MigrateOut { .. } => kind(25, "migrate.out", "migration"),
            TraceEvent::MonitorAcquire { .. } => kind(26, "monitor.acquire", "monitor"),
            TraceEvent::MonitorContended { .. } => kind(27, "monitor.contended", "monitor"),
            TraceEvent::MonitorRelease { .. } => kind(28, "monitor.release", "monitor"),
            TraceEvent::JniBridge { .. } => kind(29, "native.jni_bridge", "native"),
            TraceEvent::SyscallProxy { .. } => kind(30, "native.syscall_proxy", "native"),
            TraceEvent::Checkpoint { .. } => kind(31, "snap.checkpoint", "snap"),
            TraceEvent::Restore { .. } => kind(32, "snap.restore", "snap"),
            TraceEvent::ThreadSwitch { .. } => kind(33, "thread.switch", "sched"),
        }
    }

    /// Stable short name for summaries and export `name` fields.
    pub fn kind_name(&self) -> &'static str {
        self.kind().name
    }

    /// Append the body of this event's JSON `args` object (no braces),
    /// e.g. `"addr":4096,"bytes":128`. Labels are static ASCII with
    /// nothing JSON would escape.
    pub(crate) fn write_args(&self, out: &mut String) {
        match *self {
            TraceEvent::MethodInvoke { method }
            | TraceEvent::MethodReturn { method }
            | TraceEvent::CodeCacheHit { method } => num(out, "\"method\":", method),
            TraceEvent::MigrateOut {
                kind,
                to_lane,
                thread,
            } => {
                text(out, "\"kind\":", kind.label());
                num(out, ",\"to_lane\":", to_lane);
                num(out, ",\"thread\":", thread);
            }
            TraceEvent::MigrateIn {
                kind,
                from_lane,
                thread,
            } => {
                text(out, "\"kind\":", kind.label());
                num(out, ",\"from_lane\":", from_lane);
                num(out, ",\"thread\":", thread);
            }
            TraceEvent::Dma {
                tag,
                bytes,
                queue_cycles,
                transfer_cycles,
            } => {
                text(out, "\"tag\":", tag.label());
                num(out, ",\"bytes\":", bytes);
                num(out, ",\"queue_cycles\":", queue_cycles);
                num(out, ",\"transfer_cycles\":", transfer_cycles);
            }
            TraceEvent::EibStall { cycles } => num(out, "\"cycles\":", cycles),
            TraceEvent::DataCacheHit { addr } => num(out, "\"addr\":", addr),
            TraceEvent::DataCacheHitRun { addr, hits, .. } => {
                num(out, "\"addr\":", addr);
                num(out, ",\"hits\":", hits);
            }
            TraceEvent::DataCacheMiss { addr, bytes }
            | TraceEvent::DataCacheWriteBack { addr, bytes }
            | TraceEvent::DataCacheBypass { addr, bytes } => {
                num(out, "\"addr\":", addr);
                num(out, ",\"bytes\":", bytes);
            }
            TraceEvent::DataCachePurge { resident_units } => {
                num(out, "\"resident_units\":", resident_units)
            }
            TraceEvent::CodeCacheMiss { method, bytes } => {
                num(out, "\"method\":", method);
                num(out, ",\"bytes\":", bytes);
            }
            TraceEvent::CodeCacheTibHit { class } => num(out, "\"class\":", class),
            TraceEvent::CodeCacheTibMiss { class, bytes } => {
                num(out, "\"class\":", class);
                num(out, ",\"bytes\":", bytes);
            }
            TraceEvent::CodeCachePurge { bytes_in_use } => {
                num(out, "\"bytes_in_use\":", bytes_in_use)
            }
            TraceEvent::JmmBarrier { kind } => text(out, "\"kind\":", kind.label()),
            TraceEvent::MonitorAcquire { obj }
            | TraceEvent::MonitorContended { obj }
            | TraceEvent::MonitorRelease { obj } => num(out, "\"obj\":", obj),
            TraceEvent::SyscallProxy { native } | TraceEvent::JniBridge { native } => {
                num(out, "\"native\":", native)
            }
            TraceEvent::GcBegin { requester_lane } => {
                num(out, "\"requester_lane\":", requester_lane)
            }
            TraceEvent::GcPhaseEnd {
                phase,
                items,
                bytes,
            } => {
                text(out, "\"phase\":", phase.label());
                num(out, ",\"items\":", items);
                num(out, ",\"bytes\":", bytes);
            }
            TraceEvent::GcEnd {
                freed_objects,
                freed_bytes,
            } => {
                num(out, "\"freed_objects\":", freed_objects);
                num(out, ",\"freed_bytes\":", freed_bytes);
            }
            TraceEvent::ThreadSwitch { thread } => num(out, "\"thread\":", thread),
            TraceEvent::MfcFault { kind, attempt } => {
                text(out, "\"kind\":", kind.label());
                num(out, ",\"attempt\":", attempt);
            }
            TraceEvent::MfcRetry {
                attempt,
                backoff_cycles,
            } => {
                num(out, "\"attempt\":", attempt);
                num(out, ",\"backoff_cycles\":", backoff_cycles);
            }
            TraceEvent::WatchdogTimeout { kind, cycles } => {
                text(out, "\"kind\":", kind.label());
                num(out, ",\"cycles\":", cycles);
            }
            TraceEvent::SpeFailed { spe } => num(out, "\"spe\":", spe),
            TraceEvent::SpeDrained { threads } => num(out, "\"threads\":", threads),
            TraceEvent::Checkpoint { seq, bytes } => {
                num(out, "\"seq\":", seq);
                num(out, ",\"bytes\":", bytes);
            }
            TraceEvent::Restore { seq } => num(out, "\"seq\":", seq),
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// One event of every variant, in declaration order: `u32` fields set
    /// to `a`, `u64` fields to `b`, label enums to their `pick`-th label
    /// (modulo how many they have).
    pub(crate) fn every_variant(a: u32, b: u64, pick: usize) -> [TraceEvent; KINDS] {
        use TraceEvent::*;
        let kind = [
            MigrationKind::Annotation,
            MigrationKind::Monitored,
            MigrationKind::MarkerReturn,
            MigrationKind::Failover,
        ][pick % 4];
        let fault = [
            InjectedFault::MfcTransfer,
            InjectedFault::EibGrantTimeout,
            InjectedFault::LsCorruption,
            InjectedFault::ProxyTimeout,
            InjectedFault::MigrationTimeout,
        ][pick % 5];
        let tag = [
            DmaTag::DataCacheFill,
            DmaTag::DataCacheWriteBack,
            DmaTag::CodeCacheLoad,
            DmaTag::Bypass,
            DmaTag::Other,
        ][pick % 5];
        let barrier = [BarrierKind::Acquire, BarrierKind::Release][pick % 2];
        let phase = [GcPhase::Mark, GcPhase::Sweep][pick % 2];
        [
            MethodInvoke { method: a },
            MethodReturn { method: a },
            MigrateOut {
                kind,
                to_lane: a,
                thread: a,
            },
            MigrateIn {
                kind,
                from_lane: a,
                thread: a,
            },
            Dma {
                tag,
                bytes: a,
                queue_cycles: b,
                transfer_cycles: b,
            },
            EibStall { cycles: b },
            DataCacheHit { addr: a },
            DataCacheHitRun {
                addr: a,
                hits: a,
                until: b,
            },
            DataCacheMiss { addr: a, bytes: a },
            DataCacheWriteBack { addr: a, bytes: a },
            DataCachePurge { resident_units: a },
            DataCacheBypass { addr: a, bytes: a },
            CodeCacheHit { method: a },
            CodeCacheMiss {
                method: a,
                bytes: a,
            },
            CodeCacheTibHit { class: a },
            CodeCacheTibMiss { class: a, bytes: a },
            CodeCachePurge { bytes_in_use: a },
            JmmBarrier { kind: barrier },
            MonitorAcquire { obj: a },
            MonitorContended { obj: a },
            MonitorRelease { obj: a },
            SyscallProxy { native: a },
            JniBridge { native: a },
            GcBegin { requester_lane: a },
            GcPhaseEnd {
                phase,
                items: b,
                bytes: b,
            },
            GcEnd {
                freed_objects: b,
                freed_bytes: b,
            },
            ThreadSwitch { thread: a },
            MfcFault {
                kind: fault,
                attempt: a,
            },
            MfcRetry {
                attempt: a,
                backoff_cycles: b,
            },
            WatchdogTimeout {
                kind: fault,
                cycles: b,
            },
            SpeFailed { spe: a },
            SpeDrained { threads: a },
            Checkpoint { seq: a, bytes: a },
            Restore { seq: a },
        ]
    }

    /// The text summary lists kinds by `TraceKind::index` and used to list
    /// them in `BTreeMap<&str, _>` order: every variant must have its own
    /// index, and the indices must rank the names.
    #[test]
    fn kind_indices_rank_the_kind_names() {
        let mut kinds: Vec<TraceKind> = every_variant(0, 0, 0)
            .iter()
            .map(TraceEvent::kind)
            .collect();
        kinds.sort_by_key(|k| k.index);
        assert!(kinds.iter().map(|k| k.index).eq(0..KINDS));
        assert!(kinds.windows(2).all(|w| w[0].name < w[1].name));
    }
}

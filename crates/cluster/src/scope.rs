//! hera-scope: request-level distributed tracing and fleet telemetry.
//!
//! When [`crate::ClusterConfig::scope`] is on, the fleet simulator
//! threads every request through a deterministic span tree: a root span
//! per request on the front-end track, queue/dispatch/service children
//! on machine tracks, and causal [`FlowArrow`]s connecting retries,
//! hedge duplicates, crash requeues and live migrations across tracks.
//! A fixed-virtual-interval sampler records per-machine queue depth,
//! in-flight state, utilization and breaker state plus cumulative
//! shed/goodput into [`MetricsRegistry`] time series.
//!
//! Three properties the integration tests pin down:
//!
//! * **Zero virtual-cycle cost.** The scope only observes: it never
//!   touches the event queue, the `seq` counter, or any virtual
//!   timestamp, so every report rendered with scope off is byte-for-byte
//!   identical to the same config with scope on.
//! * **Deterministic span ids.** Ids are allocated in event-processing
//!   order, which the event loop already makes a pure function of the
//!   config — same seed, same trace, same ids.
//! * **Exact ledger reconciliation.** [`Scope::finish`] cross-checks the
//!   span ledger against the simulator's own counters: every admitted
//!   request ends in exactly one terminal span, and retry/hedge/requeue/
//!   migration counts match the resil bookkeeping exactly. Any mismatch
//!   is a reported failure, not a warning.

use hera_trace::{
    fleet_trace_json, ExactPercentiles, FleetSpan, FlowArrow, FlowKind, MetricsRegistry, SpanKind,
};
use std::fmt::Write as _;

/// Track index of the front-end; machine `m` is track `m + 1`.
pub(crate) const FRONTEND_TRACK: u16 = 0;

fn machine_track(m: usize) -> u16 {
    u16::try_from(m + 1).expect("validated: machines <= u16::MAX")
}

fn request(job: usize) -> u32 {
    u32::try_from(job).expect("validated: requests <= u32::MAX")
}

/// Samples the fixed-cadence sampler aims for over the trace span.
const TARGET_SAMPLES: u64 = 64;
/// Hard cap on sampler ticks: completions run past the last arrival, and
/// a degenerate span must not turn the lazy sampler into a busy loop.
const MAX_TICKS: u64 = 256;

struct JobScope {
    root: u64,
    arrival: u64,
    class: usize,
    /// Terminal kind, set exactly once (completed | shed | timed out).
    terminal: Option<SpanKind>,
    /// Causal arrow armed by a retry/hedge/requeue/migration, consumed by
    /// the next enqueue of this job (dropped if the attempt never lands).
    pending_flow: Option<(FlowKind, u16, u64)>,
}

struct OpenService {
    job: usize,
    /// Fleet time the machine was occupied (dispatch begins).
    started: u64,
    /// Fleet time VM cycles start advancing (post dispatch + transfer).
    exec_start: u64,
    hedge: bool,
    transfer: u64,
}

/// A machine's open attempt and utilization window. Its queue-wait
/// starts are not here: the kernel's queue carries each job's, and the
/// hooks that end a wait are handed it.
#[derive(Default)]
struct MachScope {
    open: Option<OpenService>,
    /// Busy-interval start, advanced to the last sampler tick so each
    /// window's utilization counts its own cycles exactly once.
    busy_from: Option<u64>,
    busy_accum: u64,
}

/// The recorder the simulator drives; [`Scope::finish`] turns it into a
/// [`ScopeOutcome`].
#[derive(Default)]
pub(crate) struct Scope {
    class_names: Vec<String>,
    next_id: u64,
    spans: Vec<FleetSpan>,
    moves: Vec<[u64; 4]>,
    flows: Vec<FlowArrow>,
    jobs: Vec<JobScope>,
    mach: Vec<MachScope>,
    /// End-to-end latencies per class (completed requests only), in
    /// completion order; [`Scope::finish`] sorts each once.
    class_lat: Vec<Vec<u64>>,
    metrics: MetricsRegistry,
    sample_every: u64,
    next_sample: u64,
    ticks: u64,
    // Span-ledger counters, reconciled against the simulator's metrics.
    completed: u64,
    shed: u64,
    timedout: u64,
    retry_waves: u64,
    hedges: u64,
    requeues: u64,
    migrations: u64,
    drains: u64,
}

impl Scope {
    pub(crate) fn new(machines: usize, class_names: Vec<String>, span: u64, njobs: usize) -> Scope {
        let sample_every = (span / TARGET_SAMPLES).max(1);
        Scope {
            class_lat: vec![Vec::new(); class_names.len()],
            class_names,
            // Root, terminal, queue, dispatch and service per request, with
            // headroom for retry and hedge attempts: recording never has
            // to move the spans while doubling. At 48 bytes a span this
            // stays under glibc's 32 MiB mmap threshold up to ~116 k
            // requests, so a later replay reuses pages an earlier one
            // already faulted in (DESIGN §4.15).
            spans: Vec::with_capacity(njobs * 6),
            jobs: Vec::with_capacity(njobs),
            mach: (0..machines).map(|_| MachScope::default()).collect(),
            sample_every,
            next_sample: sample_every,
            ..Scope::default()
        }
    }

    fn alloc(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Record a span of `kind` under a fresh id, with its first args
    /// value `arg` and hedge flag (see [`FleetSpan`]). `job` is `None` for
    /// machine-wide markers, which hang off no request.
    fn span(
        &mut self,
        kind: SpanKind,
        track: u16,
        job: Option<usize>,
        (begin, dur): (u64, u64),
        arg: u64,
        hedge: bool,
    ) {
        let id = self.alloc();
        self.spans.push(FleetSpan {
            begin,
            dur,
            id,
            parent: job.map_or(0, |j| self.jobs[j].root),
            arg,
            req: job.map_or(0, request),
            track,
            kind,
            hedge,
        });
    }

    /// Close `job`'s queue wait on machine `m`, begun at `enqueued`, as
    /// `kind`.
    fn close_queue(&mut self, m: usize, job: usize, enqueued: u64, now: u64, kind: SpanKind) {
        let wait = (enqueued, now.saturating_sub(enqueued));
        self.span(kind, machine_track(m), Some(job), wait, m as u64, false);
    }

    fn terminal(&mut self, job: usize, kind: SpanKind, now: u64) {
        let j = &mut self.jobs[job];
        debug_assert!(j.terminal.is_none(), "job {job} terminated twice");
        j.terminal = Some(kind);
        // The root span carries the id reserved at arrival, not a fresh one.
        self.spans.push(FleetSpan {
            begin: j.arrival,
            dur: now.saturating_sub(j.arrival),
            id: j.root,
            parent: 0,
            arg: j.class as u64,
            req: request(job),
            track: FRONTEND_TRACK,
            kind: SpanKind::Request,
            hedge: false,
        });
        self.span(kind, FRONTEND_TRACK, Some(job), (now, 0), 0, false);
    }

    // ------------------------------------------------------------ hooks

    pub(crate) fn on_arrival(&mut self, job: usize, class: usize, now: u64) {
        debug_assert_eq!(job, self.jobs.len(), "arrivals out of order");
        let root = self.alloc();
        self.jobs.push(JobScope {
            root,
            arrival: now,
            class,
            terminal: None,
            pending_flow: None,
        });
    }

    pub(crate) fn on_shed(&mut self, job: usize, now: u64) {
        self.jobs[job].pending_flow = None;
        self.shed += 1;
        self.terminal(job, SpanKind::Shed, now);
    }

    /// Arm the causal arrow the next enqueue of `job` will consume.
    pub(crate) fn flow_from(&mut self, job: usize, kind: FlowKind, from_track: u16, from_ts: u64) {
        self.jobs[job].pending_flow = Some((kind, from_track, from_ts));
    }

    /// Drop an armed arrow whose attempt never landed (skipped hedge).
    pub(crate) fn clear_flow(&mut self, job: usize) {
        self.jobs[job].pending_flow = None;
    }

    pub(crate) fn on_retry_wave(&mut self, job: usize, now: u64) {
        self.retry_waves += 1;
        self.flow_from(job, FlowKind::Retry, FRONTEND_TRACK, now);
    }

    pub(crate) fn on_requeue(&mut self, job: usize, from_machine: usize, now: u64) {
        self.requeues += 1;
        self.flow_from(job, FlowKind::Requeue, machine_track(from_machine), now);
    }

    /// A hedge is about to dispatch: arm the arrow from the primary
    /// attempt's machine (dropped again if the hedge finds no machine).
    pub(crate) fn on_hedge_armed(&mut self, job: usize, primary: usize, now: u64) {
        self.flow_from(job, FlowKind::Hedge, machine_track(primary), now);
    }

    pub(crate) fn on_enqueue(&mut self, m: usize, job: usize, now: u64, hedge: bool) {
        if hedge {
            self.hedges += 1;
        }
        if let Some((kind, from_track, from_ts)) = self.jobs[job].pending_flow.take() {
            let id = self.alloc();
            self.flows.push(FlowArrow {
                kind,
                id,
                from_track: from_track.into(),
                from_ts,
                to_track: machine_track(m).into(),
                to_ts: now,
            });
        }
    }

    /// `job` starts on machine `m` at `now`, ending the queue wait it
    /// began at `enqueued`.
    pub(crate) fn on_start(
        &mut self,
        m: usize,
        job: usize,
        (enqueued, now): (u64, u64),
        exec_start: u64,
        hedge: bool,
        transfer: u64,
    ) {
        self.close_queue(m, job, enqueued, now, SpanKind::Queue);
        self.mach[m].open = Some(OpenService {
            job,
            started: now,
            exec_start,
            hedge,
            transfer,
        });
        self.mach[m].busy_from = Some(now);
    }

    /// Close the open attempt on `m`, emitting its dispatch span and —
    /// when execution had begun — its service span of kind `outcome`
    /// (service, cancelled, interrupted or migrated). Returns the job
    /// that was closed.
    fn close_service(&mut self, m: usize, now: u64, outcome: SpanKind) -> Option<usize> {
        let open = self.mach[m].open.take()?;
        if let Some(b) = self.mach[m].busy_from.take() {
            self.mach[m].busy_accum += now.saturating_sub(b);
        }
        let (track, job) = (machine_track(m), Some(open.job));
        let dispatch = open.exec_start.min(now).saturating_sub(open.started);
        let dispatch = (open.started, dispatch);
        self.span(
            SpanKind::Dispatch,
            track,
            job,
            dispatch,
            open.transfer,
            false,
        );
        if now > open.exec_start {
            let ran = (open.exec_start, now - open.exec_start);
            self.span(outcome, track, job, ran, m as u64, open.hedge);
        }
        Some(open.job)
    }

    pub(crate) fn on_complete(&mut self, job: usize, m: usize, now: u64) {
        let closed = self.close_service(m, now, SpanKind::Service);
        debug_assert_eq!(closed, Some(job), "completion closed a foreign attempt");
        let (arrival, class) = (self.jobs[job].arrival, self.jobs[job].class);
        self.class_lat[class].push(now.saturating_sub(arrival));
        self.completed += 1;
        self.terminal(job, SpanKind::Completed, now);
    }

    /// A deadline or a winning twin cancelled the attempt running on `m`.
    pub(crate) fn on_cancel_running(&mut self, m: usize, now: u64) {
        self.close_service(m, now, SpanKind::ServiceCancelled);
    }

    /// A deadline or a winning twin cancelled `job`'s attempt queued on
    /// `m` since `enqueued`.
    pub(crate) fn on_cancel_queued(&mut self, m: usize, job: usize, enqueued: u64, now: u64) {
        self.close_queue(m, job, enqueued, now, SpanKind::QueueCancelled);
    }

    /// A crash (or migration detach) interrupted the running attempt.
    pub(crate) fn on_interrupt(&mut self, m: usize, now: u64) {
        self.close_service(m, now, SpanKind::ServiceInterrupted);
    }

    /// A crash drained `job`, queued since `enqueued`, out of machine
    /// `m`'s queue.
    pub(crate) fn on_queue_interrupt(&mut self, m: usize, job: usize, enqueued: u64, now: u64) {
        self.close_queue(m, job, enqueued, now, SpanKind::QueueInterrupted);
    }

    /// A proactive drain pulled `job`, queued since `enqueued`, out of
    /// machine `m`: close its queue span and arm the [`FlowKind::Drain`]
    /// arrow the next enqueue will consume.
    pub(crate) fn on_drain(&mut self, m: usize, job: usize, enqueued: u64, now: u64) {
        self.close_queue(m, job, enqueued, now, SpanKind::QueueDrained);
        self.drains += 1;
        self.flow_from(job, FlowKind::Drain, machine_track(m), now);
    }

    /// A machine-wide marker on machine `m`: `kind` is `Crash`, `Recover`
    /// or one of the three `SpanKind::Breaker*` transitions.
    pub(crate) fn on_machine(&mut self, m: usize, kind: SpanKind, now: u64) {
        self.span(kind, machine_track(m), None, (now, 0), 0, false);
    }

    /// A live migration detached `job` from `m`: close the source
    /// attempt, record the snapshot-transfer cost (`bytes` moved,
    /// `transfer` cycles in flight, `reexec` cycles replayed on the
    /// destination), and arm the arrow the destination enqueue will
    /// consume. `drain` marks a proactive-drain migration: the span and
    /// arrow are labelled as a drain and the drain ledger counts it too
    /// (it is still a migration — the simulator charges it identically).
    pub(crate) fn on_migrate(
        &mut self,
        m: usize,
        dest: usize,
        job: usize,
        now: u64,
        (bytes, transfer, reexec): (u64, u64, u64),
        drain: bool,
    ) {
        self.close_service(m, now, SpanKind::ServiceMigrated);
        let (span, flow) = if drain {
            self.drains += 1;
            (SpanKind::Drain, FlowKind::Drain)
        } else {
            (SpanKind::Migrate, FlowKind::Migrate)
        };
        let at = self.moves.len() as u64;
        self.moves.push([dest as u64, bytes, transfer, reexec]);
        self.span(span, machine_track(m), Some(job), (now, 0), at, false);
        self.migrations += 1;
        self.flow_from(job, flow, machine_track(m), now);
    }

    /// An attempt wave hit its deadline (the wave's cancels follow via
    /// [`Scope::on_cancel_running`] and [`Scope::on_cancel_queued`]).
    pub(crate) fn on_wave_timeout(&mut self, job: usize, now: u64) {
        self.span(
            SpanKind::WaveTimeout,
            FRONTEND_TRACK,
            Some(job),
            (now, 0),
            0,
            false,
        );
    }

    /// The last retry wave timed out: the request is dead.
    pub(crate) fn on_timed_out(&mut self, job: usize, now: u64) {
        self.timedout += 1;
        self.terminal(job, SpanKind::TimedOut, now);
    }

    // ---------------------------------------------------------- sampler

    pub(crate) fn sample_due(&self, now: u64) -> bool {
        self.ticks < MAX_TICKS && self.next_sample <= now
    }

    /// Lazy fixed-cadence sampler: called with the pre-event machine
    /// state whenever a tick is due, it back-fills every tick up to
    /// `now`. Between events nothing changes, so the state observed at
    /// `now` *is* the state at each missed tick — the series is exact
    /// without ever touching the event queue.
    ///
    /// `views` is `(queue_len, in_flight, breaker_state)` per machine,
    /// breaker state coded 0 = closed, 1 = half-open, 2 = open.
    pub(crate) fn sample_until(&mut self, now: u64, views: &[(u64, u64, u64)]) {
        while self.ticks < MAX_TICKS && self.next_sample <= now {
            let t = self.next_sample;
            for (m, &(qlen, inflight, breaker)) in views.iter().enumerate() {
                self.metrics.sample(&format!("scope.queue.m{m}"), t, qlen);
                self.metrics
                    .sample(&format!("scope.inflight.m{m}"), t, inflight);
                self.metrics
                    .sample(&format!("scope.breaker.m{m}"), t, breaker);
                let ms = &mut self.mach[m];
                if let Some(b) = ms.busy_from {
                    ms.busy_accum += t.saturating_sub(b);
                    ms.busy_from = Some(t);
                }
                let util = (ms.busy_accum * 1000 / self.sample_every).min(1000);
                ms.busy_accum = 0;
                self.metrics.sample(&format!("scope.util.m{m}"), t, util);
            }
            self.metrics.sample("scope.shed", t, self.shed);
            self.metrics.sample("scope.goodput", t, self.completed);
            self.next_sample = t + self.sample_every;
            self.ticks += 1;
        }
    }

    // ------------------------------------------------- ledger + outcome

    /// Reconcile the span ledger against the simulator's counters and
    /// seal the recording. Every mismatch becomes a reported failure.
    pub(crate) fn finish(
        mut self,
        sim: &MetricsRegistry,
        njobs: u64,
        policy: &'static str,
        slo_cycles: Option<u64>,
        failures: &mut Vec<String>,
    ) -> ScopeOutcome {
        let mut check = |what: &str, ledger: u64, counter: u64| {
            if ledger != counter {
                failures.push(format!(
                    "policy {policy} scope ledger: {what} spans {ledger} != simulator count {counter}"
                ));
            }
        };
        check(
            "completed terminal",
            self.completed,
            sim.counter("cluster.completed"),
        );
        check("shed terminal", self.shed, sim.counter("cluster.shed"));
        check(
            "timedout terminal",
            self.timedout,
            sim.counter("resil.deadline_failures"),
        );
        check("retry-wave", self.retry_waves, sim.counter("resil.retries"));
        check("hedge attempt", self.hedges, sim.counter("resil.hedges"));
        check(
            "crash-requeue",
            self.requeues,
            sim.counter("cluster.crash.requeued"),
        );
        check(
            "migration",
            self.migrations,
            sim.counter("cluster.migrations"),
        );
        check("drain", self.drains, sim.counter("rebal.drains"));
        let terminals = self.completed + self.shed + self.timedout;
        if terminals != njobs {
            failures.push(format!(
                "policy {policy} scope ledger: {terminals} terminal spans for {njobs} requests \
                 (every admitted request must end in exactly one terminal span)"
            ));
        }
        let unterminated = self.jobs.iter().filter(|j| j.terminal.is_none()).count();
        if unterminated > 0 {
            failures.push(format!(
                "policy {policy} scope ledger: {unterminated} requests have no terminal span"
            ));
        }

        self.metrics.set("scope.spans", self.spans.len() as u64);
        self.metrics.set("scope.flows", self.flows.len() as u64);
        self.metrics.set("scope.terminal.completed", self.completed);
        self.metrics.set("scope.terminal.shed", self.shed);
        self.metrics.set("scope.terminal.timedout", self.timedout);
        self.metrics.set("scope.flow.retries", self.retry_waves);
        self.metrics.set("scope.flow.hedges", self.hedges);
        self.metrics.set("scope.flow.requeues", self.requeues);
        self.metrics.set("scope.flow.migrations", self.migrations);
        self.metrics.set("scope.flow.drains", self.drains);

        let mut tracks = vec![String::from("front-end")];
        for m in 0..self.mach.len() {
            tracks.push(format!("machine {m}"));
        }
        let class_latencies = self
            .class_names
            .iter()
            .cloned()
            .zip(
                self.class_lat
                    .into_iter()
                    .map(ExactPercentiles::from_samples),
            )
            .collect();
        ScopeOutcome {
            policy,
            tracks,
            spans: self.spans,
            moves: self.moves,
            flows: self.flows,
            metrics: self.metrics,
            class_latencies,
            slo_cycles,
        }
    }
}

/// Everything hera-scope recorded during one policy replay. A pure
/// function of the [`crate::ClusterConfig`]: same seed, byte-identical
/// Chrome export and SLO report.
pub struct ScopeOutcome {
    /// Policy whose replay was traced.
    pub policy: &'static str,
    /// Track names: front-end first, then one per machine.
    pub tracks: Vec<String>,
    /// Every span, in allocation (= event-processing) order.
    pub spans: Vec<FleetSpan>,
    /// What each `Migrate` / `Drain` span moved, `[dest, bytes, transfer,
    /// reexec]`, indexed by its [`FleetSpan::arg`], in allocation order.
    pub moves: Vec<[u64; 4]>,
    /// Every causal arrow, in allocation order.
    pub flows: Vec<FlowArrow>,
    /// Sampler time series plus `scope.*` ledger counters. Kept separate
    /// from [`crate::PolicyOutcome::metrics`] so reports rendered with
    /// scope on stay byte-identical to scope off.
    pub metrics: MetricsRegistry,
    /// Exact end-to-end latencies per workload class (completed only).
    pub class_latencies: Vec<(String, ExactPercentiles)>,
    /// The SLO armed for the run, if resilience was on.
    pub slo_cycles: Option<u64>,
}

impl ScopeOutcome {
    /// One unified Chrome trace: a track per machine, spans as duration
    /// events, flow arrows for cross-track causality.
    pub fn chrome_json(&self) -> String {
        fleet_trace_json(&self.tracks, &self.spans, &self.moves, &self.flows)
    }

    /// Exact per-class latency percentiles (nearest-rank over every
    /// completed request — not the log2 histogram upper bounds), with
    /// SLO attainment when an SLO was armed.
    pub fn slo_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== hera-scope SLO report: policy {} ==", self.policy);
        match self.slo_cycles {
            Some(slo) => {
                let _ = writeln!(out, "slo {slo} cycles (exact nearest-rank percentiles)");
            }
            None => {
                let _ = writeln!(out, "no slo armed (exact nearest-rank percentiles)");
            }
        }
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
            "class", "n", "p50", "p95", "p99", "p999", "max", "slo"
        );
        let mut all = Vec::new();
        for (name, lat) in &self.class_latencies {
            all.extend_from_slice(lat.as_slice());
            let _ = writeln!(out, "{}", Self::slo_row(name, lat, self.slo_cycles));
        }
        let total = ExactPercentiles::from_samples(all);
        let _ = writeln!(out, "{}", Self::slo_row("all", &total, self.slo_cycles));
        out
    }

    fn slo_row(name: &str, lat: &ExactPercentiles, slo: Option<u64>) -> String {
        let attained = match slo {
            Some(slo) if !lat.is_empty() => {
                let p = lat.count_at_most(slo) * 1000 / lat.len() as u64;
                format!("{}.{}%", p / 10, p % 10)
            }
            _ => String::from("-"),
        };
        format!(
            "{:<12} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
            name,
            lat.len(),
            lat.p50(),
            lat.p95(),
            lat.p99(),
            lat.p999(),
            lat.max(),
            attained
        )
    }
}

//! The runners and their reports, above the replay seam
//! (`fleet::replay_all`): [`run_experiment`] replays one config under the
//! three balancing policies; [`run_chaos_matrix`] (E13) and
//! [`run_rebal_matrix`] (E15) are row tables — which knobs each row turns
//! on — handed to the one matrix runner.

use crate::fleet::{build_profiles, experiment_pool, jsq, paced_trace, replay_all};
use crate::fleet::{PolicyOutcome, Replay, POLICIES};
use crate::rebal::{COOLDOWN_PERMILLE, MAX_CONCURRENT_DRAINS, SKEW_THRESHOLD_PERMILLE};
use crate::rebal::{SLOW_AFTER, SLOW_FACTOR_PERMILLE};
use crate::resil::MAX_RETRIES;
use crate::scope::ScopeOutcome;
use crate::{ClusterConfig, ClusterError, RebalConfig, ResilConfig, MIX};
use hera_trace::nearest_rank;
use std::fmt::Write as _;

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

fn render_failures(out: &mut String, failures: &[String]) {
    if !failures.is_empty() {
        let _ = writeln!(out, "FAILURES ({}):", failures.len());
        for f in failures {
            let _ = writeln!(out, "  {f}");
        }
    }
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
        render_failures(&mut out, &self.failures);
        out
    }
}

/// Run the full experiment: measure the fleet profile, generate the
/// trace, and replay it once per balancing policy (round-robin,
/// join-shortest-queue, least-loaded).
pub fn run_experiment(cfg: &ClusterConfig) -> Result<ClusterReport, ClusterError> {
    cfg.validate()?;
    let pool = experiment_pool(cfg);
    let [profile] = build_profiles([cfg], &pool)?;
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
        MIX
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
        let _ = writeln!(header, "shapes (SPEs per machine): {:?}", profile.shapes);
    }
    if !cfg.slowdowns.is_empty() {
        let _ = writeln!(
            header,
            "stragglers (machine, factor, from_cycle): {:?}",
            cfg.slowdowns
        );
    }
    if let Some(rb) = &cfg.rebal {
        let _ = writeln!(
            header,
            "rebal: drain_on_break true drain_on_slow true rebalance_every {}permille \
             skew {SKEW_THRESHOLD_PERMILLE}permille",
            rb.rebalance_every_permille
        );
    }
    if let Some(r) = &cfg.resil {
        let _ = writeln!(
            header,
            "resil: deadline {} retries {} hedging {} breakers {} shedding {}",
            r.deadline_cycles, MAX_RETRIES, r.hedging, r.breakers, r.shedding
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

/// One row of a matrix: a knob combination replayed over the shared
/// trace with join-shortest-queue.
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

/// Per-row migration and proactive-degradation counters (the E15
/// report's ledger lines).
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

/// The counter columns of the matrix table: heading, cell, and whether a
/// report that renders the ledger lines keeps the column.
type Counter = (&'static str, fn(&MatrixRow) -> u64, bool);
const COUNTERS: [Counter; 6] = [
    ("shed", |r| r.shed, true),
    ("t/o", |r| r.timeouts, true),
    ("retry", |r| r.retries, false),
    ("hedge", |r| r.hedges, false),
    ("hwin", |r| r.hedge_wins, false),
    ("trip", |r| r.breaker_trips, true),
];

/// A matrix result: a fault-free baseline row, then the config's fault
/// schedule under each knob combination. Same config ⇒ the rendered
/// report is byte-identical.
pub struct MatrixReport {
    pub header: String,
    pub rows: Vec<MatrixRow>,
    /// Per-row migration and drain counters, parallel to `rows`.
    pub stats: Vec<RebalStats>,
    pub failures: Vec<String>,
    /// hera-scope recording of the last (all-on) row when
    /// `ClusterConfig::scope` is set. Not rendered: the report text is
    /// byte-identical with scope on or off.
    pub scope: Option<ScopeOutcome>,
    /// Whether the per-row `stats` ledger lines are rendered (E15), in
    /// place of the retry and hedge columns (E13).
    ledger: bool,
}

impl MatrixReport {
    /// The fault-free baseline row, the faults-on row without the layer
    /// under test, and the all-on row with its stats.
    pub fn baseline(&self) -> &MatrixRow {
        &self.rows[0]
    }

    pub fn control(&self) -> &MatrixRow {
        &self.rows[1]
    }

    pub fn full(&self) -> &MatrixRow {
        self.rows.last().expect("matrix always has rows")
    }

    pub fn full_stats(&self) -> &RebalStats {
        self.stats.last().expect("matrix always has rows")
    }

    /// Deterministic text rendering: same seed ⇒ identical string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header);
        let _ = write!(
            out,
            "{:<28} {:>10} {:>10} {:>11} {:>11} {:>8} {:>6}",
            "row", "p50", "p95", "p99", "p999", "goodput", "slo"
        );
        let counters = COUNTERS.iter().filter(|c| c.2 || !self.ledger);
        for (heading, ..) in counters.clone() {
            let _ = write!(out, " {heading:>5}");
        }
        out.push('\n');
        for r in &self.rows {
            let slo = match r.slo_permille() {
                Some(p) => format!("{}.{}%", p / 10, p % 10),
                None => "-".into(),
            };
            let gp = r.goodput_permille();
            let _ = write!(
                out,
                "{:<28} {:>10} {:>10} {:>11} {:>11} {:>6}.{}% {:>6}",
                r.name,
                r.p50,
                r.p95,
                r.p99,
                r.p999,
                gp / 10,
                gp % 10,
                slo
            );
            for (_, cell, _) in counters.clone() {
                let _ = write!(out, " {:>5}", cell(r));
            }
            out.push('\n');
        }
        if self.ledger {
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
        }
        render_failures(&mut out, &self.failures);
        out
    }
}

/// One row of a matrix table.
struct Row {
    name: String,
    /// The config's fault schedule, or the stripped fault-free fleet.
    faulty: bool,
    /// `[breakers, hedging, shedding]`; `None` runs without resilience.
    knobs: Option<[bool; 3]>,
    rebal: Option<RebalConfig>,
}

fn row(name: &str, faulty: bool, knobs: Option<[bool; 3]>, rebal: Option<RebalConfig>) -> Row {
    Row {
        name: name.into(),
        faulty,
        knobs,
        rebal,
    }
}

/// A matrix: its rows and how its report reads.
struct Matrix {
    /// First header line, and what follows the shared pacing line.
    title: String,
    header_tail: String,
    rows: Vec<Row>,
    /// Whether faulty rows keep the config's planned migrations.
    migrations: bool,
    ledger: bool,
}

/// The one matrix runner. Every row replays the *same* trace (paced by
/// the healthy fleet's measured mean service time) through
/// join-shortest-queue, so the rows differ only in their knobs. Only the
/// last row's scope recording is kept: the all-on replay is the one whose
/// trace exercises every causal edge.
fn run_matrix(cfg: &ClusterConfig, matrix: Matrix) -> Result<MatrixReport, ClusterError> {
    cfg.validate()?;
    let base_cfg = ClusterConfig {
        slowdowns: vec![],
        crashes: vec![],
        migrations: vec![],
        fault_rates: None,
        resil: None,
        ..cfg.clone()
    };
    let pool = experiment_pool(cfg);
    let [base_profile, chaos_profile] = build_profiles([&base_cfg, cfg], &pool)?;
    let mean_service = base_profile.mean_service;
    let (mean_inter, trace, span) = paced_trace(cfg, mean_service);

    // Knobs scale with the measured healthy service time, so the matrix
    // stays meaningful at any workload scale; an explicit `cfg.resil`
    // overrides the derivation.
    let resil_base = cfg.resil.unwrap_or(ResilConfig {
        deadline_cycles: mean_service * 8,
        slo_cycles: mean_service * 12,
        backoff_base_cycles: (mean_service / 8).max(1),
        probe_base_cycles: mean_service * 2,
        ..ResilConfig::default()
    });
    resil_base.validate()?;
    let header = format!(
        "{}\nmean service {mean_service} cycles (healthy fleet), mean inter-arrival \
         {mean_inter} cycles (target utilization {}%), deadline {} cycles, slo {} cycles{}\n",
        matrix.title,
        cfg.utilization_pct,
        resil_base.deadline_cycles,
        resil_base.slo_cycles,
        matrix.header_tail
    );

    let replays: Vec<Replay> = (matrix.rows.iter().enumerate())
        .map(|(i, row)| {
            let (mut row_cfg, profile) = if row.faulty {
                (cfg.clone(), &chaos_profile)
            } else {
                (base_cfg.clone(), &base_profile)
            };
            if !matrix.migrations {
                row_cfg.migrations.clear();
            }
            row_cfg.resil = row.knobs.map(|[breakers, hedging, shedding]| ResilConfig {
                breakers,
                hedging,
                shedding,
                ..resil_base
            });
            row_cfg.rebal = row.rebal;
            Replay {
                cfg: row_cfg,
                profile,
                policy: jsq,
                keep_scope: i + 1 == matrix.rows.len(),
            }
        })
        .collect();
    let (mut outcomes, failures) = replay_all(&pool, &trace, span, &replays)?;
    let scope = outcomes.last_mut().and_then(|o| o.scope.take());

    let (mut rows, mut stats) = (Vec::new(), Vec::new());
    for (row, outcome) in matrix.rows.into_iter().zip(&outcomes) {
        let m = &outcome.metrics;
        let lat = &outcome.latencies;
        rows.push(MatrixRow {
            name: row.name,
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
            slo_ok: row.knobs.map(|_| m.counter("resil.slo_ok")),
        });
        let verified = outcome.migration_events.iter();
        stats.push(RebalStats {
            drains: m.counter("rebal.drains"),
            drain_events: m.counter("rebal.drain.events"),
            moves: m.counter("rebal.moves"),
            migrations: m.counter("cluster.migrations"),
            adoption_proofs: m.counter("cluster.adoption.proofs"),
            cross_shape: m.counter("cluster.adoption.cross_shape"),
            migrations_verified: verified.filter(|e| e.verified_identical).count() as u64,
        });
    }
    Ok(MatrixReport {
        header,
        rows,
        stats,
        failures,
        scope,
        ledger: matrix.ledger,
    })
}

/// Run the resilience matrix (E13): a fault-free baseline, then the
/// config's straggler + crash-storm fault schedule under all eight
/// (± breakers, ± hedging, ± shedding) combinations. Any row with at
/// least one knob on also arms deadlines + retries; the all-off row is
/// the unprotected fleet.
pub fn run_chaos_matrix(cfg: &ClusterConfig) -> Result<MatrixReport, ClusterError> {
    let title = format!(
        "== hera-resil chaos matrix: {} machines x {} SPEs, {} requests, seed {}, \
         stragglers {:?}, crashes {:?} ==",
        cfg.machines, cfg.num_spes, cfg.requests, cfg.seed, cfg.slowdowns, cfg.crashes
    );
    let mut rows = vec![row("fault-free baseline", false, None, cfg.rebal)];
    for knobs in [
        [false, false, false],
        [true, false, false],
        [false, true, false],
        [false, false, true],
        [true, true, false],
        [true, false, true],
        [false, true, true],
        [true, true, true],
    ] {
        let labels = ["+breakers", "+hedging", "+shedding"];
        let on: String = (labels.iter().zip(knobs))
            .filter_map(|(label, on)| on.then_some(*label))
            .collect();
        let name = format!("faults{}", if on.is_empty() { ", resil off" } else { &on });
        rows.push(row(
            &name,
            true,
            (!on.is_empty()).then_some(knobs),
            cfg.rebal,
        ));
    }
    let matrix = Matrix {
        title,
        header_tail: format!(", max retries {MAX_RETRIES}"),
        rows,
        migrations: false,
        ledger: false,
    };
    run_matrix(cfg, matrix)
}

/// Run the proactive-degradation matrix (E15): a fault-free baseline,
/// the straggler + crash-storm schedule under reactive (full hera-resil)
/// protection, the same with breaker/slowdown-triggered proactive
/// drains, and finally drains plus the periodic rebalancer.
/// Heterogeneous shapes make crash recoveries and drains exercise the
/// cross-shape adoption path for real.
pub fn run_rebal_matrix(cfg: &ClusterConfig) -> Result<MatrixReport, ClusterError> {
    let rebal = cfg.rebal.unwrap_or_default();
    let shapes: Vec<u8> = (0..cfg.machines).map(|m| cfg.shape_of(m)).collect();
    let title = format!(
        "== hera-rebal matrix: {} machines, shapes {:?}, {} requests, seed {}, \
         stragglers {:?}, crashes {:?}, migrations {:?} ==",
        cfg.machines, shapes, cfg.requests, cfg.seed, cfg.slowdowns, cfg.crashes, cfg.migrations
    );
    let header_tail = format!(
        "\nrebal: slow_after {SLOW_AFTER} slow_factor {SLOW_FACTOR_PERMILLE}permille \
         max_drains {MAX_CONCURRENT_DRAINS} rebalance_every {}permille \
         skew {SKEW_THRESHOLD_PERMILLE}permille cooldown {COOLDOWN_PERMILLE}permille",
        rebal.rebalance_every_permille
    );
    let full = Some([true; 3]);
    let rows = vec![
        row("fault-free baseline", false, None, None),
        row("faults, reactive resil", true, full, None),
        row(
            "faults +drains",
            true,
            full,
            Some(RebalConfig::drains_only()),
        ),
        row("faults +drains+rebalance", true, full, Some(rebal)),
    ];
    let matrix = Matrix {
        title,
        header_tail,
        rows,
        migrations: true,
        ledger: true,
    };
    run_matrix(cfg, matrix)
}

//! hera-scope integration: the fleet Chrome export is well-formed JSON
//! with causally-ordered tracks and paired flow arrows, the span ledger
//! reconciles exactly against the policy counters under the full chaos
//! matrix, and turning scope on leaves every existing report
//! byte-unchanged (observation only, zero virtual cycles).

#![forbid(unsafe_code)]

use hera_cluster::{crash_storm, run_chaos_matrix, run_experiment, ArrivalShape, ClusterConfig};
use hera_cluster::{PolicyOutcome, RebalConfig, ResilConfig};
use hera_integration::fleets::{busy_fleet, small_e13, small_e15};
use hera_integration::minijson::{parse, Value};
use hera_trace::FlowKind;

fn records(doc: &Value) -> &[Value] {
    doc.get("traceEvents")
        .expect("export has a traceEvents field")
        .as_arr()
        .expect("traceEvents is an array")
}

fn field_str<'a>(r: &'a Value, key: &str) -> &'a str {
    r.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("record missing string {key}: {r:?}"))
}

fn field_u64(r: &Value, key: &str) -> u64 {
    r.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("record missing integer {key}: {r:?}"))
}

#[test]
fn fleet_chrome_export_is_well_formed_and_causally_ordered() {
    let cfg = ClusterConfig {
        scope: true,
        ..busy_fleet()
    };
    let report = run_experiment(&cfg).expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    for outcome in &report.outcomes {
        let scope = outcome.scope.as_ref().expect("scope on => outcome present");
        let doc = parse(&scope.chrome_json())
            .unwrap_or_else(|e| panic!("policy {}: invalid JSON: {e}", outcome.policy));

        // One thread_name metadata record per track, names matching.
        let meta: Vec<_> = records(&doc)
            .iter()
            .filter(|r| field_str(r, "ph") == "M")
            .collect();
        assert_eq!(meta.len(), scope.tracks.len());
        for (m, track) in meta.iter().zip(&scope.tracks) {
            assert_eq!(field_str(m, "name"), "thread_name");
            assert_eq!(
                m.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str),
                Some(track.as_str())
            );
        }

        // Within each track, non-metadata records are emitted in
        // non-decreasing timestamp order (the writer sorts per lane).
        let mut last_ts = vec![0u64; scope.tracks.len()];
        for r in records(&doc).iter().filter(|r| field_str(r, "ph") != "M") {
            let tid = field_u64(r, "tid") as usize;
            let ts = field_u64(r, "ts");
            assert!(tid < scope.tracks.len(), "record on unknown track {tid}");
            assert!(
                ts >= last_ts[tid],
                "policy {}: track {tid} went backwards ({ts} after {})",
                outcome.policy,
                last_ts[tid]
            );
            last_ts[tid] = ts;
        }

        // Flow arrows come in exactly-one-s / exactly-one-f pairs that
        // point forward in time, and every kind is a known causal edge.
        let mut starts = std::collections::BTreeMap::new();
        let mut ends = std::collections::BTreeMap::new();
        for r in records(&doc) {
            let ph = field_str(r, "ph");
            if ph != "s" && ph != "f" {
                continue;
            }
            assert_eq!(field_str(r, "cat"), "flow");
            let name = field_str(r, "name");
            assert!(
                matches!(name, "retry" | "hedge" | "requeue" | "migrate" | "drain"),
                "unknown flow kind {name:?}"
            );
            let id = field_u64(r, "id");
            let ts = field_u64(r, "ts");
            let slot = if ph == "s" { &mut starts } else { &mut ends };
            assert!(
                slot.insert(id, ts).is_none(),
                "flow id {id} has two {ph:?} records"
            );
            if ph == "f" {
                assert_eq!(field_str(r, "bp"), "e", "binding point must be enclosing");
            }
        }
        assert_eq!(
            starts.len(),
            scope.flows.len(),
            "every FlowArrow must serialize to one s record"
        );
        for (id, s_ts) in &starts {
            let f_ts = ends
                .get(id)
                .unwrap_or_else(|| panic!("flow {id} has a start but no finish"));
            assert!(s_ts <= f_ts, "flow {id} points backwards in time");
        }
        assert_eq!(starts.len(), ends.len(), "orphaned flow finish records");

        // The busy fleet's crash catches jobs in flight and its
        // migration moves one: both causal edges must actually appear.
        assert!(!scope.flows.is_empty(), "no flow arrows recorded");
        let kind_count = |k: FlowKind| scope.flows.iter().filter(|f| f.kind == k).count() as u64;
        let requeued: u64 = outcome.requeues.values().map(|&n| n as u64).sum();
        assert_eq!(kind_count(FlowKind::Requeue), requeued);
        assert_eq!(
            kind_count(FlowKind::Migrate),
            outcome.migration_events.len() as u64
        );
        assert!(requeued > 0, "crash caught nothing in flight");
        assert!(
            !outcome.migration_events.is_empty(),
            "no migration happened"
        );
    }
}

#[test]
fn span_ledger_reconciles_exactly_under_the_full_chaos_matrix() {
    let cfg = ClusterConfig {
        scope: true,
        ..small_e13()
    };
    let report = run_chaos_matrix(&cfg).expect("matrix runs");
    // `Scope::finish` pushes a failure for every ledger/counter mismatch,
    // for a request count that doesn't add up, and for any request left
    // without a terminal span — across every matrix row.
    assert!(report.failures.is_empty(), "{:?}", report.failures);

    let scope = report.scope.as_ref().expect("scope on => matrix keeps one");
    let row = report.rows.last().expect("matrix has rows");
    assert_eq!(
        row.name, "faults+breakers+hedging+shedding",
        "the kept recording must be the all-knobs-on row"
    );
    let c = |name: &str| scope.metrics.counter(name);
    assert_eq!(c("scope.terminal.completed"), row.completed);
    assert_eq!(c("scope.terminal.shed"), row.shed);
    assert_eq!(c("scope.flow.retries"), row.retries);
    assert_eq!(c("scope.flow.hedges"), row.hedges);
    assert_eq!(
        c("scope.terminal.completed") + c("scope.terminal.shed") + c("scope.terminal.timedout"),
        row.requests,
        "every request must end in exactly one terminal span"
    );
    assert_eq!(c("scope.spans"), scope.spans.len() as u64);
    assert_eq!(c("scope.flows"), scope.flows.len() as u64);

    // The samplers produced per-machine series covering the trace span.
    for m in 0..cfg.machines {
        for what in ["queue", "inflight", "breaker", "util"] {
            let series = scope
                .metrics
                .time_series(&format!("scope.{what}.m{m}"))
                .unwrap_or_else(|| panic!("missing scope.{what}.m{m} series"));
            assert!(!series.is_empty());
        }
    }
}

#[test]
fn scope_recording_leaves_every_report_byte_unchanged() {
    // The cluster experiment: scope on must not move a single byte of
    // the rendered report, nor any policy's metrics registry.
    let off = run_experiment(&busy_fleet()).expect("experiment runs");
    let on = run_experiment(&ClusterConfig {
        scope: true,
        ..busy_fleet()
    })
    .expect("experiment runs");
    assert_eq!(off.render(), on.render(), "scope perturbed the report");
    for (a, b) in off.outcomes.iter().zip(&on.outcomes) {
        assert_eq!(a.metrics, b.metrics, "scope perturbed {} metrics", a.policy);
        assert_eq!(
            a.latencies, b.latencies,
            "scope perturbed {} latencies",
            a.policy
        );
    }

    // Same for the chaos matrix, where scope hooks sit on every
    // resilience path (retries, hedges, breakers, shedding).
    let off = run_chaos_matrix(&small_e13()).expect("matrix runs");
    let on = run_chaos_matrix(&ClusterConfig {
        scope: true,
        ..small_e13()
    })
    .expect("matrix runs");
    assert_eq!(off.render(), on.render(), "scope perturbed the matrix");
    assert!(off.scope.is_none() && on.scope.is_some());
    assert!(on.failures.is_empty(), "{:?}", on.failures);
}

#[test]
fn scope_replay_is_byte_identical() {
    let cfg = ClusterConfig {
        scope: true,
        ..small_e13()
    };
    let a = run_chaos_matrix(&cfg).expect("matrix runs");
    let b = run_chaos_matrix(&cfg).expect("matrix runs");
    let (sa, sb) = (a.scope.expect("scope"), b.scope.expect("scope"));
    assert_eq!(sa.chrome_json(), sb.chrome_json(), "trace replay diverged");
    assert_eq!(sa.slo_report(), sb.slo_report(), "SLO replay diverged");
}

/// Under the proactive-degradation matrix the new `Drain` causal edge
/// joins the ledger: the scope's drain-flow count must reconcile
/// exactly against the simulator's `rebal.drains` counter (Scope::finish
/// pushes a failure on any mismatch), and drain arrows are real flows
/// in the kept recording.
#[test]
fn drain_ledger_reconciles_under_the_rebal_matrix() {
    let cfg = small_e15();
    let report = hera_cluster::run_rebal_matrix(&cfg).expect("matrix runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let scope = report.scope.as_ref().expect("scope on => matrix keeps one");
    let stats = report.full_stats();
    assert_eq!(
        scope.metrics.counter("scope.flow.drains"),
        stats.drains,
        "scope drain ledger out of step with the simulator's counter"
    );
    let drain_flows = scope
        .flows
        .iter()
        .filter(|f| f.kind == FlowKind::Drain)
        .count() as u64;
    assert_eq!(
        drain_flows, stats.drains,
        "every accounted drain must leave exactly one Drain arrow"
    );
}

/// Digests of the small fleets' exports, captured before span names
/// moved from recording time to export time and before the exporter
/// stopped building one `String` per event: the recording's
/// representation may change freely, the exported bytes may not.
#[test]
fn small_fleet_exports_match_pinned_digests() {
    let digest = |s: String| hera_snap::digest64(s.as_bytes());
    let mut got = Vec::new();
    let report = run_experiment(&ClusterConfig {
        scope: true,
        ..busy_fleet()
    })
    .expect("experiment runs");
    for outcome in &report.outcomes {
        let scope = outcome.scope.as_ref().expect("scope on");
        got.push((digest(scope.chrome_json()), digest(scope.slo_report())));
    }
    let chaos = run_chaos_matrix(&ClusterConfig {
        scope: true,
        ..small_e13()
    })
    .expect("matrix runs");
    let scope = chaos.scope.as_ref().expect("scope on");
    got.push((digest(scope.chrome_json()), digest(scope.slo_report())));
    let want = [
        (0x3941_30da_013c_db0d_u64, 0xe12c_69f2_4e7b_1f3d_u64),
        (0xf6db_63df_b400_77c6, 0x8f23_b3d8_6001_b20b),
        (0x80e1_61a1_14c4_9b52, 0xb57c_c773_fce9_acff),
        (0xc186_2c3a_8fea_09d3, 0xf3dc_2c5b_600d_e82c),
    ];
    assert_eq!(got, want, "exported bytes moved");

    // The report texts themselves, and the rebal matrix's kept recording:
    // a reordered metric or a moved column must not pass either.
    let rebal = hera_cluster::run_rebal_matrix(&small_e15()).expect("matrix runs");
    let scope = rebal.scope.as_ref().expect("scope on");
    let got = [
        digest(report.render()),
        digest(chaos.render()),
        digest(rebal.render()),
        digest(scope.chrome_json()),
        digest(scope.slo_report()),
    ];
    let want = [
        0xee90_6ef7_d64f_5b1a_u64,
        0x932e_b239_b026_c486,
        0xbd34_b5bf_207f_ecdc,
        0x0b29_438c_c003_b7e5,
        0xce35_308b_c4cc_fa45,
    ];
    assert_eq!(got, want, "report bytes moved");
}

/// E13's chaos fleet at debug size with a deadline short enough that
/// waves time out, retry, hedge, trip breakers and die: the other pinned
/// fleets run at a deadline no wave reaches, so every `Timeout` event
/// they schedule is popped stale.
fn deadline_fleet() -> ClusterConfig {
    ClusterConfig {
        utilization_pct: 90,
        crashes: crash_storm(42, 4, 4, 300, 700),
        resil: Some(ResilConfig {
            deadline_cycles: 4_000_000,
            ..ResilConfig::default().full()
        }),
        scope: true,
        ..ClusterConfig::e13(42, 4, 150, 0.02)
    }
}

/// The report, and each policy's Chrome export and SLO table, of a fleet
/// whose deadlines fire. Checks first that the run is not vacuous: every
/// resilience path and every cancel / interrupt span kind occurs.
#[test]
fn live_deadline_fleet_matches_pinned_digests() {
    let report = run_experiment(&deadline_fleet()).expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    for counter in [
        "resil.timeouts",
        "resil.retries",
        "resil.deadline_failures",
        "resil.hedges",
        "resil.breaker.trips",
        "cluster.crash.requeued",
    ] {
        let most = report.outcomes.iter().map(|o| o.metrics.counter(counter));
        assert!(most.max() > Some(0), "no policy counted {counter}");
    }
    let exports: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| o.scope.as_ref().expect("scope on").chrome_json())
        .collect();
    let docs: Vec<Value> = exports
        .iter()
        .map(|e| parse(e).expect("export is JSON"))
        .collect();
    for kind in ["queue.cancelled", "service.cancelled", "queue.interrupted"] {
        let prefix = format!("{kind} req");
        let named = |r: &Value| field_str(r, "name").starts_with(&prefix);
        let found = docs.iter().any(|d| records(d).iter().any(named));
        assert!(found, "no policy exported a {kind} span");
    }

    let digest = |s: &str| hera_snap::digest64(s.as_bytes());
    let mut got = vec![digest(&report.render())];
    for (outcome, export) in report.outcomes.iter().zip(&exports) {
        let scope = outcome.scope.as_ref().expect("scope on");
        got.push(digest(export));
        got.push(digest(&scope.slo_report()));
    }
    let want = [
        0x00d8_5e1d_61c9_a52d_u64,
        0xe690_895f_9b88_890e,
        0x6a9d_5047_c884_9985,
        0x7e7c_1f71_2ba8_8093,
        0x117b_4663_4c5d_d59c,
        0x1389_d0b3_e0da_3782,
        0x2390_0fc7_4018_d3dc,
    ];
    assert_eq!(got, want, "deadline fleet bytes moved");
}

/// The proactive layer on two fleets no other pin covers: the deadline
/// fleet, where breakers trip and so drain machines, and a hot bursty E13
/// fleet, where a rebalance tick finds more than one job to move. Checks
/// first that both paths run: a drain that no slow streak triggered, and
/// rebalance moves under every policy.
#[test]
fn rebal_fleets_match_pinned_digests() {
    let digest = |s: &str| hera_snap::digest64(s.as_bytes());
    let report = run_experiment(&ClusterConfig {
        rebal: Some(RebalConfig::default()),
        ..deadline_fleet()
    })
    .expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let counter = |o: &PolicyOutcome, name: &str| o.metrics.counter(name);
    let breaker_drain = |o: &PolicyOutcome| {
        counter(o, "rebal.drain.events") > counter(o, "rebal.drain.slow_triggers")
    };
    assert!(
        report.outcomes.iter().any(breaker_drain),
        "no policy drained a machine on a breaker trip"
    );
    let mut got = vec![digest(&report.render())];
    for outcome in &report.outcomes {
        let scope = outcome.scope.as_ref().expect("scope on");
        got.push(digest(&scope.chrome_json()));
    }

    let report = run_experiment(&ClusterConfig {
        rebal: Some(RebalConfig::default()),
        utilization_pct: 95,
        arrival: ArrivalShape::Bursty { burst: 8 },
        ..ClusterConfig::e13(42, 6, 200, 0.02)
    })
    .expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    for outcome in &report.outcomes {
        let moves = counter(outcome, "rebal.moves");
        assert!(moves > 0, "policy {} moved nothing", outcome.policy);
    }
    got.push(digest(&report.render()));
    let want = [
        0xe1c5_9fc1_ade1_def6_u64,
        0xef6d_414b_dd7f_a4af,
        0x0e45_9049_d7ea_c462,
        0x55e8_397f_4d00_a94d,
        0x2150_4221_75b4_438e,
    ];
    assert_eq!(got, want, "rebal fleet bytes moved");
}

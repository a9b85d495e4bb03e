//! Chrome-trace exporter coverage: JSON escaping of hostile method
//! names, empty-trace validity, and a serde-free round-trip parse of a
//! real exported trace. The parser lives in
//! [`hera_integration::minijson`] — the workspace deliberately has zero
//! external dependencies, so these tests are the only thing checking
//! that the hand-rolled writer emits well-formed JSON.

#![forbid(unsafe_code)]

use hera_integration::minijson::{parse, Value};
use hera_trace::{chrome_trace_json, chrome_trace_json_named, TimedEvent, TraceEvent, TraceSink};

/// Objects anywhere in the subtree (the old validator's record count).
fn count_objects(v: &Value) -> usize {
    match v {
        Value::Obj(fields) => 1 + fields.iter().map(|(_, v)| count_objects(v)).sum::<usize>(),
        Value::Arr(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

/// The `traceEvents` records of a parsed export.
fn records(doc: &Value) -> &[Value] {
    doc.get("traceEvents")
        .expect("export has a traceEvents field")
        .as_arr()
        .expect("traceEvents is an array")
}

#[test]
fn mini_parser_rejects_malformed_documents() {
    assert!(parse("{\"a\": 1}").is_ok());
    assert!(parse("{\"a\": }").is_err());
    assert!(parse("{\"a\": 1} x").is_err());
    assert!(parse("[1, 2,]").is_err());
    assert!(parse("\"unterminated").is_err());
    assert!(parse("{\"a\": \"\u{1}\"}").is_err(), "raw control char");
}

#[test]
fn empty_trace_exports_a_valid_document() {
    let sink = TraceSink::disabled();
    let json = chrome_trace_json(&sink);
    let doc = parse(&json).expect("empty export must be valid JSON");
    assert_eq!(count_objects(&doc), 1, "just the top-level shell");
    assert!(records(&doc).is_empty());

    // Lanes with no events still get their metadata records.
    let named = TraceSink::with_lanes(["ppe", "spe0"]);
    let json = chrome_trace_json(&named);
    let doc = parse(&json).expect("lane-only export must be valid JSON");
    let meta: Vec<_> = records(&doc)
        .iter()
        .filter(|r| r.get("ph").and_then(Value::as_str) == Some("M"))
        .collect();
    assert_eq!(meta.len(), 2, "one thread_name record per lane");
    assert!(meta
        .iter()
        .all(|r| r.get("name").and_then(Value::as_str) == Some("thread_name")));
}

#[test]
fn hostile_method_names_are_escaped_and_round_trip() {
    let mut sink = TraceSink::with_lanes(["ppe \"quoted\"\\lane"]);
    sink.emit(0, 10, TraceEvent::MethodInvoke { method: 0 });
    sink.emit(0, 20, TraceEvent::MethodInvoke { method: 1 });
    sink.emit(0, 25, TraceEvent::MethodInvoke { method: 2 });
    sink.emit(0, 28, TraceEvent::MethodReturn { method: 2 });
    sink.emit(0, 30, TraceEvent::MethodReturn { method: 1 });
    sink.emit(0, 40, TraceEvent::MethodReturn { method: 0 });
    let names = [
        "evil\"quote",
        "back\\slash\ttab\nnewline",
        "unicode-méthode-λ·メソッド",
    ];
    let json = chrome_trace_json_named(&sink, &names);
    let doc = parse(&json).expect("hostile names must still produce valid JSON");
    // The decoded strings survive the writer's escaping intact.
    let strings = doc.strings();
    for want in &names {
        assert!(
            strings.iter().any(|s| s == want),
            "name {want:?} did not round-trip: {strings:?}"
        );
    }
    assert!(
        json.contains("\\\"") && json.contains("\\\\") && json.contains("\\n"),
        "expected escape sequences in the raw output"
    );
}

#[test]
fn real_workload_trace_round_trips() {
    use hera_bench::{spe_config, trace_workload};
    let (out, names) = trace_workload(hera_workloads::Workload::Mandelbrot, 6, 0.1, spe_config(6));
    assert!(out.trace.event_count() > 0);
    let json = hera_trace::chrome_trace_json_named(&out.trace, &names);
    let doc = parse(&json).expect("workload export must be valid JSON");
    // Shell + one metadata record per lane + at least one record per event
    // is a loose lower bound (B/E pairs mean some events emit two).
    assert!(
        records(&doc).len() > out.trace.lanes().len(),
        "suspiciously few records: {}",
        records(&doc).len()
    );
    // Balanced duration events.
    let count_ph = |ph: &str| {
        records(&doc)
            .iter()
            .filter(|r| r.get("ph").and_then(Value::as_str) == Some(ph))
            .count()
    };
    assert_eq!(count_ph("B"), count_ph("E"), "unbalanced B/E stream");
}

/// `main` fills the head of a 16 KiB byte array and hands it to the
/// `writeFile` native.
fn bypass_jni_program() -> hera_isa::Program {
    use hera_frontend::*;
    use hera_isa::{ElemTy, ProgramBuilder, Ty};
    let mut pb = ProgramBuilder::new();
    let api = hera_core::native::install_runtime(&mut pb);
    let c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    let body = vec![
        Stmt::Let("buf".into(), new_array(ElemTy::Byte, i32c(16 << 10))),
        for_range(
            "i",
            i32c(0),
            i32c(64),
            vec![Stmt::SetIndex(local("buf"), local("i"), local("i"))],
        ),
        Stmt::Return(Some(call(
            api.write_file,
            vec![i32c(1), local("buf"), i32c(64)],
        ))),
    ];
    define(&mut pb, main, vec![], body).expect("main compiles");
    pb.finish_with_entry("Main", "main")
        .expect("program resolves")
}

/// The hits a record stands for: one for a `dcache.hit`, `hits` for a
/// run of them, none for anything else.
fn hits_of(te: &TimedEvent) -> u64 {
    match te.event {
        TraceEvent::DataCacheHit { .. } | TraceEvent::DataCacheHitRun { .. } => te.emitted(),
        _ => 0,
    }
}

/// `sink` with its hit records (lone hits and runs) left out: every other
/// event re-emitted on its lane at its time.
fn without_hits(sink: &TraceSink) -> TraceSink {
    let mut rest = TraceSink::with_lanes(sink.lanes().iter().map(|l| l.name.as_str()));
    for (lane, te) in sink.iter_all() {
        if hits_of(te) == 0 {
            rest.emit(lane, te.at, te.event);
        }
    }
    rest
}

/// `digest64` of where the hits are: lane by lane, every maximal run of
/// consecutive `dcache.hit`s as (lane, hits, time of the first, time of
/// the last). That is what the sink records (a checkpoint would split a
/// run; no pinned run that hits the data cache takes one).
fn hit_runs_digest(sink: &TraceSink) -> u64 {
    let runs = sink.iter_all().filter(|(_, te)| hits_of(te) > 0);
    let bytes: Vec<u8> = runs
        .flat_map(|(lane, te)| [lane as u64, hits_of(te), te.at, te.end()])
        .flat_map(u64::to_le_bytes)
        .collect();
    hera_snap::digest64(&bytes)
}

/// The two halves of a trace a change to how hits are *recorded* must
/// leave alone: the export of everything that is not a hit, and where the
/// hits are.
fn split_digests(sink: &TraceSink) -> (u64, u64) {
    let rest = chrome_trace_json(&without_hits(sink));
    (hera_snap::digest64(rest.as_bytes()), hit_runs_digest(sink))
}

/// Byte-exact oracle for exporter refactors: `digest64` of the Chrome
/// JSON and the text summary of real traces, captured on the commit
/// before the exporters were rewritten. The runs are chosen so that every
/// `TraceEvent` variant is exported at least once (asserted below), so no
/// record shape can drift unnoticed.
#[test]
fn exports_match_pinned_digests() {
    use hera_bench::{chaos_death_cycle, chaos_plan, chaos_workload, spe_config, trace_workload};
    use hera_core::{HeraJvm, VmConfig};
    use hera_workloads::Workload;
    use std::collections::BTreeSet;

    /// `(run, chrome_trace_json digest, text_summary digest)`.
    const PINNED: &[(&str, u64, u64)] = &[
        ("compress", 0x51c6_495d_92b4_ea8d, 0x85b9_d1c9_07bc_dcb9),
        ("mpegaudio", 0xf6c6_6c2a_8b72_5db8, 0x2f64_f312_3273_f25d),
        ("mandelbrot", 0x79f7_9405_dcb2_800c, 0xa99d_7d62_2ff9_319c),
        ("sync", 0x7107_baab_67c0_bed8, 0x63cd_1442_a0b8_f3d7),
        (
            "mixed-annotated",
            0x7221_1b91_c01c_1fec,
            0xb6f2_5949_5549_dcd1,
        ),
        ("chaos", 0x3239_aea4_ee7a_1e64, 0x306b_b8a2_19cd_a15a),
        ("bypass-jni", 0x7cff_884f_47c2_00ed, 0x60c8_fe8c_4d4c_fa5c),
        (
            "gc-checkpoint",
            0x14af_e167_8014_d227,
            0x3e78_b60d_37fd_b084,
        ),
        ("restore", 0x9510_35c6_c683_ddb7, 0xfb13_61f9_e16e_5857),
        ("sync-cellvm", 0x56d6_8784_d831_cc14, 0x0416_9e0e_954d_d963),
        (
            "mixed-adaptive",
            0xadf6_42d6_e0d2_b500,
            0xfa5e_7bac_392c_58c3,
        ),
    ];
    /// The symbolised export `figures trace` writes, on the mandelbrot run.
    const PINNED_NAMED: u64 = 0xef62_00b5_fd1b_bb13;
    /// `split_digests` of the same runs, in the same order.
    const PINNED_SPLIT: &[(u64, u64)] = &[
        (0x79a5_2e20_d7a2_c46f, 0xddf2_1daf_e9ec_5e28),
        (0x0162_90c9_48cd_8e95, 0x8dd8_3dbc_dc57_aa31),
        (0xcc29_16c2_f208_44d1, 0x65bd_bcdb_54e9_b7bb),
        (0x3f93_9f38_3c44_dda5, 0xedc4_39b1_bf99_d45a),
        (0x7221_1b91_c01c_1fec, 0xaf63_bd4c_8601_b7df),
        (0xb12f_d083_1ddb_3dab, 0x038a_33e5_1cee_e93d),
        (0x7cff_884f_47c2_00ed, 0xaf63_bd4c_8601_b7df),
        (0x14af_e167_8014_d227, 0xaf63_bd4c_8601_b7df),
        (0x9510_35c6_c683_ddb7, 0xaf63_bd4c_8601_b7df),
        (0xc12a_a90d_8f50_9a07, 0x8fe6_3b26_19df_8aa4),
        (0xe523_5a28_f049_b217, 0x38a8_f1aa_4414_6679),
    ];

    let traced = |program, cfg: VmConfig| {
        let out = hera_integration::run_program(program, cfg.with_tracing());
        assert!(out.is_clean(), "traps {:?}", out.traps);
        out.trace
    };
    let mut runs = Vec::new();
    let mut mandelbrot_names = Vec::new();
    for w in Workload::ALL {
        let (out, names) = trace_workload(w, 6, 0.1, VmConfig::pinned_spe(6));
        if w == Workload::Mandelbrot {
            mandelbrot_names = names;
        }
        runs.push(out.trace);
    }
    runs.push(traced(hera_bench::sync_program(6, 2000).0, spe_config(6)));
    // The default policy is `Annotation`: threads migrate at annotated
    // calls, and every other migration wait trips its watchdog.
    let (mixed, _) = hera_bench::mixed_program(0.1, true);
    let watchdogs = hera_cell::FaultPlan::seeded(0xC0FFEE).with_migration_faults(500_000);
    runs.push(traced(mixed, VmConfig::default().with_faults(watchdogs)));
    let plan = chaos_plan(0xC0FFEE, 2, chaos_death_cycle(0.1));
    runs.push(chaos_workload(Workload::Compress, 0.1, plan).trace);
    runs.push(traced(bypass_jni_program(), {
        // An 8 KiB array block against a 4 KiB data cache: every access
        // bypasses; `writeFile` from an SPE takes the JNI bridge.
        let mut cfg = VmConfig::pinned_spe(1).with_cache_sizes(4 << 10, 8 << 10);
        cfg.array_block_bytes = 8 << 10;
        cfg
    }));
    let gc = hera_integration::gc_pressure_vm();
    let gc = HeraJvm::new(gc.program().clone(), gc.config().with_tracing()).expect("constructs");
    let full = gc.run().expect("runs");
    let middle = &full.checkpoints[full.checkpoints.len() / 2];
    let restored = gc.restore_bytes(&middle.bytes).expect("restores");
    runs.push(full.trace);
    runs.push(restored.trace);
    // CellVM-style sync: every SPE monitor op round-trips through the PPE.
    let mut cellvm = spe_config(6);
    cellvm.cellvm_style_sync = true;
    runs.push(traced(hera_bench::sync_program(6, 2000).0, cellvm));
    // Runtime monitoring without annotations: one monitored migration.
    let adaptive = VmConfig {
        policy: hera_core::PlacementPolicy::adaptive(),
        ..VmConfig::default()
    };
    let out = hera_integration::run_program(
        hera_bench::mixed_program(0.1, false).0,
        adaptive.with_tracing(),
    );
    assert!(out.is_clean(), "traps {:?}", out.traps);
    assert_eq!(out.stats.migrations, 1, "one monitored migration");
    assert_eq!(out.trace.metrics.counter("migrations.monitored"), 1);
    runs.push(out.trace);

    let mut kinds = BTreeSet::new();
    let mut got = Vec::new();
    for (sink, (name, ..)) in runs.iter().zip(PINNED) {
        kinds.extend(sink.iter_all().map(|(_, te)| te.event.kind_name()));
        got.push((
            *name,
            hera_snap::digest64(chrome_trace_json(sink).as_bytes()),
            hera_snap::digest64(hera_trace::text_summary(sink).as_bytes()),
        ));
    }
    assert_eq!(
        kinds.len(),
        34,
        "a TraceEvent variant is never exported: {kinds:?}"
    );
    assert_eq!(got, PINNED, "exported bytes changed (actual: {got:#018x?})");
    let split: Vec<_> = runs.iter().map(split_digests).collect();
    assert_eq!(
        split, PINNED_SPLIT,
        "a non-hit record or a hit moved (actual: {split:#018x?})"
    );
    let named = chrome_trace_json_named(&runs[2], &mandelbrot_names);
    let named = hera_snap::digest64(named.as_bytes());
    assert_eq!(
        named, PINNED_NAMED,
        "symbolised export changed (actual: {named:#018x})"
    );
}

/// A traced *and* profiled straggler: compress on six SPEs with a 3x
/// slowdown whose onset (the odd cycle `tests/engine.rs` pins the
/// breakdown at) lands inside a block, so events — `dcache.hit` above
/// all — are stamped on both sides of a mid-run change of stretch
/// factor. Digests of the Chrome export and the collapsed profile.
#[test]
fn traced_straggler_matches_pinned_digests() {
    use hera_bench::trace_workload;
    use hera_core::VmConfig;
    use hera_workloads::Workload;

    const PINNED_EXPORT: u64 = 0x99ac_5a19_4d2e_e120;
    const PINNED_COLLAPSED: u64 = 0x8a87_e617_f6bf_1fba;
    const PINNED_SPLIT: (u64, u64) = (0x55cf_9551_37c0_6026, 0x7604_3796_17ea_19df);

    let plan = hera_cell::FaultPlan::default()
        .with_slowdown(3, 809_875)
        .expect("valid");
    let cfg = VmConfig::pinned_spe(6).with_faults(plan).with_profiling();
    let (out, names) = trace_workload(Workload::Compress, 6, 0.1, cfg);
    // A run that straddles the onset counts on the side it began.
    let (mut before, mut after) = (0, 0);
    for (_, te) in out.trace.iter_all() {
        *if te.at < 809_875 {
            &mut before
        } else {
            &mut after
        } += hits_of(te);
    }
    assert!(before > 1000 && after > 1000, "hits {before} / {after}");

    let export = hera_snap::digest64(chrome_trace_json(&out.trace).as_bytes());
    let resolve = |m| hera_prof::method_name(&names, m);
    let collapsed = out.profile.as_ref().expect("profiled").collapsed(&resolve);
    let collapsed = hera_snap::digest64(collapsed.as_bytes());
    assert_eq!(
        (export, collapsed),
        (PINNED_EXPORT, PINNED_COLLAPSED),
        "straggler export / profile changed (actual: {export:#018x} / {collapsed:#018x})"
    );
    let split = split_digests(&out.trace);
    assert_eq!(
        split, PINNED_SPLIT,
        "a non-hit record or a hit moved (actual: {split:#018x?})"
    );
}

/// A span or an arrow on a track past the end of the name table is
/// written on its unnamed `tid`: the document parses and drops nothing.
#[test]
fn fleet_export_writes_tracks_past_the_name_table() {
    use hera_trace::{fleet_trace_json, FleetSpan, FlowArrow, FlowKind, SpanKind};
    let span = FleetSpan {
        begin: 100,
        dur: 50,
        id: 1,
        parent: 0,
        arg: 0,
        req: 3,
        track: 7,
        kind: SpanKind::Service,
        hedge: false,
    };
    let arrow = FlowArrow {
        kind: FlowKind::Hedge,
        id: 5,
        from_track: 0,
        from_ts: 120,
        to_track: 9,
        to_ts: 130,
    };
    let names = [String::from("front-end"), String::from("m0")];
    for tracks in [&names[..], &[]] {
        let json = fleet_trace_json(tracks, &[span], &[], &[arrow]);
        let doc = parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        let on_track = |ph: &str, tid: u64| {
            let found = records(&doc).iter().filter(|r| {
                r.get("ph").and_then(Value::as_str) == Some(ph)
                    && r.get("tid").and_then(Value::as_u64) == Some(tid)
            });
            found.count()
        };
        assert_eq!(records(&doc).len(), tracks.len() + 3, "{json}");
        assert_eq!(
            (on_track("X", 7), on_track("s", 0), on_track("f", 9)),
            (1, 1, 1),
            "{json}"
        );
    }
}

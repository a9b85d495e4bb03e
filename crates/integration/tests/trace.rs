//! hera-trace integration: well-formedness of real workload traces,
//! byte-exact DMA accounting against the aggregate statistics,
//! migration out/in matching, export validity, and determinism.

#![forbid(unsafe_code)]

use hera_bench::{mixed_program, spe_config, trace_workload};
use hera_core::{HeraJvm, PlacementPolicy, RunOutcome, VmConfig};
use hera_integration::minijson::{parse, Value as Json};
use hera_isa::Value;
use hera_trace::{DmaTag, TraceEvent};
use hera_workloads::Workload;

const SCALE: f64 = 0.2;

fn traced_mandelbrot() -> RunOutcome {
    let (out, _) = trace_workload(Workload::Mandelbrot, 6, SCALE, spe_config(6));
    out
}

/// Run the annotated mixed workload (FP phase + memory phase) under the
/// annotation placement policy, which migrates threads between core
/// types at phase boundaries — the trace must record every hop.
fn traced_migratory() -> RunOutcome {
    let (program, expected) = mixed_program(0.1, true);
    let cfg = VmConfig {
        policy: PlacementPolicy::Annotation,
        ..VmConfig::default()
    }
    .with_tracing();
    let vm = HeraJvm::new(program, cfg).expect("constructs");
    let out = vm.run().expect("runs");
    assert!(out.is_clean());
    assert_eq!(out.result, Some(Value::I32(expected)));
    out
}

#[test]
fn mandelbrot_trace_is_well_formed() {
    let out = traced_mandelbrot();
    let trace = &out.trace;
    assert!(trace.is_enabled());
    assert!(trace.event_count() > 0, "traced run produced no events");

    // One lane per core, named by the simulator's convention.
    assert_eq!(trace.lanes().len(), 7);
    assert_eq!(trace.lanes()[0].name, "PPE");
    assert_eq!(trace.lanes()[1].name, "SPE0");
    assert_eq!(trace.lanes()[6].name, "SPE5");

    // Each lane is stamped with its own core's virtual clock, so
    // timestamps are non-decreasing per lane and never exceed that
    // core's final clock.
    for (lane, core_cycles) in trace.lanes().iter().zip(&out.stats.per_core_cycles) {
        let mut prev = 0;
        for e in &lane.events {
            assert!(
                e.at >= prev,
                "lane {} went backwards: {} after {}",
                lane.name,
                e.at,
                prev
            );
            prev = e.at;
        }
        assert!(
            prev <= *core_cycles,
            "lane {} stamped past its core clock",
            lane.name
        );
    }

    // Every method invoke has a matching return (the workload runs to
    // completion with no traps and no migrations mid-frame).
    let mut invokes = 0u64;
    let mut returns = 0u64;
    for (_, e) in trace.iter_all() {
        match e.event {
            TraceEvent::MethodInvoke { .. } => invokes += 1,
            TraceEvent::MethodReturn { .. } => returns += 1,
            _ => {}
        }
    }
    assert!(invokes > 0);
    assert_eq!(invokes, returns);
}

#[test]
fn dma_events_account_for_every_byte() {
    let out = traced_mandelbrot();
    let mut by_tag = std::collections::BTreeMap::new();
    let mut total_bytes = 0u64;
    let mut transfers = 0u64;
    for (_, e) in out.trace.iter_all() {
        if let TraceEvent::Dma { tag, bytes, .. } = e.event {
            *by_tag.entry(tag.label()).or_insert(0u64) += bytes as u64;
            total_bytes += bytes as u64;
            transfers += 1;
        }
    }

    // Per-tag sums equal the caches' own aggregate byte counters…
    let s = &out.stats;
    assert_eq!(
        by_tag
            .get(DmaTag::DataCacheFill.label())
            .copied()
            .unwrap_or(0),
        s.data_cache.bytes_fetched
    );
    assert_eq!(
        by_tag
            .get(DmaTag::DataCacheWriteBack.label())
            .copied()
            .unwrap_or(0),
        s.data_cache.bytes_written_back
    );
    assert_eq!(
        by_tag
            .get(DmaTag::CodeCacheLoad.label())
            .copied()
            .unwrap_or(0),
        s.code_cache.bytes_loaded
    );
    // …and the grand total equals the interconnect's own ledger: every
    // byte that crossed the EIB appears in exactly one trace event.
    assert_eq!(total_bytes, s.bus.bytes_transferred);
    assert_eq!(transfers, s.bus.transfers);
}

#[test]
fn migrations_trace_out_and_in_pairs() {
    let out = traced_migratory();
    assert!(out.stats.migrations > 0, "workload did not migrate");

    // Collect (kind, thread) multisets for both directions, remembering
    // each MigrateOut's announced destination and each MigrateIn's
    // announced origin.
    let mut outs = Vec::new();
    let mut ins = Vec::new();
    for (lane, e) in out.trace.iter_all() {
        match e.event {
            TraceEvent::MigrateOut {
                kind,
                to_lane,
                thread,
            } => {
                outs.push((kind, thread, lane, to_lane as usize));
            }
            TraceEvent::MigrateIn {
                kind,
                from_lane,
                thread,
            } => {
                ins.push((kind, thread, from_lane as usize, lane));
            }
            _ => {}
        }
    }
    assert!(!outs.is_empty());
    // Every departure arrives: identical multisets of
    // (kind, thread, source lane, destination lane).
    let mut a = outs.clone();
    let mut b = ins.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "unmatched migration events");
    // The annotation policy produced annotation-marker migrations.
    assert!(outs
        .iter()
        .any(|(k, ..)| *k == hera_trace::MigrationKind::Annotation));
}

#[test]
fn chrome_export_is_valid_json_with_one_track_per_core() {
    let (out, names) = trace_workload(Workload::Mandelbrot, 2, SCALE, spe_config(2));
    let json = hera_trace::chrome_trace_json_named(&out.trace, &names);

    assert_json_well_formed(&json);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    // One thread_name metadata record per core lane.
    for name in ["PPE", "SPE0", "SPE1"] {
        let meta = "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1".to_string();
        assert!(json.contains(&meta));
        assert!(
            json.contains(&format!("\"args\":{{\"name\":\"{name}\"}}")),
            "missing track metadata for {name}"
        );
    }
    // Method names were symbolised into the duration events.
    assert!(json.contains("\"ph\":\"B\""));
    assert!(json.contains("\"ph\":\"E\""));
}

/// A tiny structural JSON validator: tracks string/escape state and a
/// bracket stack. Catches unbalanced structure and unescaped quotes —
/// the failure modes a hand-rolled exporter can realistically have.
fn assert_json_well_formed(s: &str) {
    let mut stack = Vec::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            } else {
                assert!(c >= ' ', "raw control character inside JSON string");
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => stack.push(c),
            '}' => assert_eq!(stack.pop(), Some('{'), "unbalanced }}"),
            ']' => assert_eq!(stack.pop(), Some('['), "unbalanced ]"),
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string");
    assert!(stack.is_empty(), "unclosed brackets: {stack:?}");
}

#[test]
fn identical_runs_produce_identical_traces() {
    let a = traced_mandelbrot();
    let b = traced_mandelbrot();
    assert_eq!(a.trace, b.trace, "trace is not deterministic");

    let c = traced_migratory();
    let d = traced_migratory();
    assert_eq!(c.trace, d.trace, "migratory trace is not deterministic");
}

#[test]
fn tracing_never_charges_virtual_cycles() {
    let (traced, _) = trace_workload(Workload::Mandelbrot, 6, SCALE, spe_config(6));
    let untraced = hera_bench::run_workload(Workload::Mandelbrot, 6, SCALE, spe_config(6));
    assert_eq!(traced.stats.wall_cycles, untraced.stats.wall_cycles);
    assert_eq!(traced.stats.per_core_cycles, untraced.stats.per_core_cycles);
    assert_eq!(
        traced.stats.bus.bytes_transferred,
        untraced.stats.bus.bytes_transferred
    );
    assert!(untraced.trace.lanes().is_empty());
    assert!(!untraced.trace.is_enabled());
}

#[test]
fn metrics_registry_subsumes_aggregate_stats() {
    let out = traced_mandelbrot();
    let m = &out.trace.metrics;
    // The end-of-run aggregates are overlaid onto the same registry the
    // event hooks populate, so both views agree by construction.
    assert_eq!(m.counter("run.wall_cycles"), out.stats.wall_cycles);
    assert_eq!(
        m.counter("dcache.bytes_fetched"),
        out.stats.data_cache.bytes_fetched
    );
    assert_eq!(
        m.counter("ccache.bytes_loaded"),
        out.stats.code_cache.bytes_loaded
    );
    assert_eq!(m.counter("bus.transfers"), out.stats.bus.transfers);
    // Event-side accumulation also ran: the DMA histogram matches the
    // transfer count exactly.
    let h = m.histogram("dma.bytes").expect("dma histogram recorded");
    assert_eq!(h.count, out.stats.bus.transfers);
    assert_eq!(h.sum, out.stats.bus.bytes_transferred);
}

/// What the sink's folding of consecutive hits must preserve, on `out`:
/// no hit lost (the records' hits sum to the caches' own counter), every
/// run well formed and ended by the next record, and an export whose
/// complete events stay inside their track's order and whose frames
/// balance. Fail-over replaces a dead SPE's cache, statistics and all, so
/// the counter of a run that lost a core covers the lanes other than
/// `dead_lane`.
fn assert_hits_conserved_and_well_formed(out: &RunOutcome, what: &str, dead_lane: Option<usize>) {
    let trace = &out.trace;
    let is_hit = |ev: &TraceEvent| {
        matches!(
            ev,
            TraceEvent::DataCacheHit { .. } | TraceEvent::DataCacheHitRun { .. }
        )
    };
    let hits: u64 = trace
        .iter_all()
        .filter(|(lane, te)| Some(*lane) != dead_lane && is_hit(&te.event))
        .map(|(_, te)| te.emitted())
        .sum();
    assert!(hits > 0, "{what}: no hits traced");
    assert_eq!(
        hits,
        trace.metrics.counter("dcache.hits"),
        "{what}: counter"
    );
    assert_eq!(hits, out.stats.data_cache.hits, "{what}: DataCacheStats");

    for lane in trace.lanes() {
        for te in &lane.events {
            if let TraceEvent::DataCacheHitRun { hits, until, .. } = te.event {
                assert!(hits >= 2, "{what} {}: run of {hits}", lane.name);
                assert!(te.at <= until, "{what} {}: run ends first", lane.name);
            }
        }
        for pair in lane.events.windows(2) {
            assert!(
                pair[0].end() <= pair[1].at,
                "{what} {}: {pair:?} overlap",
                lane.name
            );
            assert!(
                !(is_hit(&pair[0].event) && is_hit(&pair[1].event)),
                "{what} {}: {pair:?} not folded",
                lane.name
            );
        }
    }

    let json = hera_trace::chrome_trace_json(trace);
    let doc = parse(&json).unwrap_or_else(|e| panic!("{what}: export does not parse: {e}"));
    let records = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("array");
    // Where the last record of each track ended.
    let mut ended = vec![0u64; trace.lanes().len()];
    let (mut begins, mut ends, mut runs) = (0u64, 0u64, 0u64);
    for r in records {
        let field = |key: &str| r.get(key).and_then(Json::as_u64);
        let ph = r.get("ph").and_then(Json::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        let (tid, ts) = (field("tid").expect("tid"), field("ts").expect("ts"));
        assert!(ts >= ended[tid as usize], "{what}: track {tid} goes back");
        ended[tid as usize] = ts;
        match ph {
            "B" => begins += 1,
            "E" => ends += 1,
            "X" => {
                runs += 1;
                ended[tid as usize] += field("dur").expect("X record has a dur");
                let args = r.get("args").expect("args");
                assert!(args.get("hits").and_then(Json::as_u64) >= Some(2));
                assert!(args.get("addr").and_then(Json::as_u64).is_some());
            }
            _ => {}
        }
    }
    assert_eq!(begins, ends, "{what}: unbalanced B/E");
    let run_records = trace
        .iter_all()
        .filter(|(_, te)| matches!(te.event, TraceEvent::DataCacheHitRun { .. }));
    assert_eq!(runs, run_records.count() as u64, "{what}: X records");
}

#[test]
fn folded_hits_are_conserved_and_well_formed() {
    for w in Workload::ALL {
        for spes in [1u8, 6] {
            let (out, _) = trace_workload(w, spes.into(), 0.1, VmConfig::pinned_spe(spes));
            assert_hits_conserved_and_well_formed(&out, &format!("{} x{spes}", w.name()), None);
        }
    }
    let (sync, _) = hera_bench::sync_program(6, 2000);
    let sync = hera_integration::run_program(sync, spe_config(6).with_tracing());
    assert!(sync.is_clean(), "traps {:?}", sync.traps);
    assert_hits_conserved_and_well_formed(&sync, "sync", None);
    // SPE 2 dies mid-run; its lane (after the PPE's and two SPEs') keeps
    // the hits it traced until then.
    let plan = hera_bench::chaos_plan(0xC0FFEE, 2, hera_bench::chaos_death_cycle(0.1));
    let chaos = hera_bench::chaos_workload(Workload::Compress, 0.1, plan);
    assert_hits_conserved_and_well_formed(&chaos, "chaos", Some(3));
}

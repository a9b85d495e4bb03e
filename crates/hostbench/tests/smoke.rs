//! Tier-1 smoke test: every workload in-process at smoke size, one pass.
//! Checks the contract between the code's metric tables, what a run
//! emits, and `/BENCHMARK.json` — not the numbers themselves.

use hera_hostbench::{run, RunOpts, RunResult, Size, END_TO_END, PER_LAYER, WORKLOADS};
use hera_integration::minijson::{parse, Value};

fn manifest() -> Value {
    parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn smoke(workload: usize, seed: u64, trace: bool) -> RunResult {
    run(
        &WORKLOADS[workload],
        RunOpts {
            seed,
            seconds: 0.0,
            passes: Some(1),
            trace,
            size: Size::Smoke,
            measured_best_ns: None,
        },
    )
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is not a string in {v:?}"))
}

fn assert_name(name: &str) {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    assert!(
        (1..=64).contains(&name.len())
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
        "bad name {name:?}"
    );
}

fn assert_unit(unit: &str) {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    assert!(
        (1..=16).contains(&unit.len()) && unit.chars().all(ok),
        "bad unit {unit:?}"
    );
}

#[test]
fn manifest_declares_exactly_the_tables_in_the_code() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(m.get("paths").unwrap().strings(), ["crates/hostbench"]);
    let seconds = m.get("run_seconds").and_then(Value::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
    assert!(m.get("command").unwrap().strings().len() <= 32);

    let workloads = m.get("workloads").and_then(Value::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, def) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(str_of(w, "name"), def.name);
        assert_name(def.name);
        // The manifest's `why` is the code's, with source line breaks
        // collapsed.
        let why: Vec<&str> = def.why.split_whitespace().collect();
        assert_eq!(str_of(w, "why"), why.join(" "));
        assert!(str_of(w, "why").len() <= 200);
    }

    let e2e = m.get("end_to_end").and_then(Value::as_arr).unwrap();
    assert!(e2e.len() <= 16);
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, def) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(str_of(j, "name"), def.name);
        assert_eq!(str_of(j, "unit"), def.unit);
        assert_eq!(str_of(j, "better"), def.better);
        assert_eq!(j.get("bound").and_then(Value::as_f64), Some(def.bound));
        assert!(def.bound <= 0.25);
        assert_name(def.name);
        assert_unit(def.unit);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));

    let layers = m.get("per_layer").and_then(Value::as_arr).unwrap();
    assert!(layers.len() <= 128);
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, def) in layers.iter().zip(PER_LAYER) {
        assert_eq!(str_of(j, "name"), def.name);
        assert_eq!(str_of(j, "unit"), def.unit);
        assert_eq!(str_of(j, "better"), def.better);
        assert_name(def.name);
        assert_unit(def.unit);
    }
    let mut names: Vec<&str> = PER_LAYER
        .iter()
        .map(|l| l.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");
}

/// One traced run of workload `i` on seed 7 — never used while sizing
/// the workloads — checked against both metric tables.
fn check_workload(i: usize) {
    let r = smoke(i, 7, true);
    assert_eq!(r.failed, 0, "{}: {:?}", r.workload, r.failures);
    assert!(r.attempted >= 1);
    assert_end_to_end(&r);
    let layers = r.per_layer.as_deref().expect("traced run");
    assert_eq!(layers.len(), PER_LAYER.len(), "{}", r.workload);
    for (m, def) in layers.iter().zip(PER_LAYER) {
        assert_eq!((m.name.as_str(), m.unit), (def.name, def.unit));
        assert!(m.value.is_finite(), "{}: {}", r.workload, m.name);
    }
    assert_eq!(r.metric("bench.passes"), Some(1.0));
    assert!(r.metric("virt.cycles").unwrap() > 0.0);
    if WORKLOADS[i].is_vm() {
        let model: f64 = PER_LAYER
            .iter()
            .filter(|l| l.name.starts_with("model.") && l.name != "model.fig4a_err_pct")
            .map(|l| r.metric(l.name).unwrap())
            .sum();
        assert!(
            (model - 100.0).abs() < 1e-6,
            "{}: shares sum to {model}",
            r.workload
        );
        assert!(r.metric("core.guest_ops").unwrap() > 0.0);
    }
    let trace = parse(r.chrome_trace.as_deref().unwrap()).expect("loadable Chrome trace");
    let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
    assert!(events.len() > r.cells.len(), "{}", r.workload);
}

fn assert_end_to_end(r: &RunResult) {
    assert_eq!(r.end_to_end.len(), END_TO_END.len(), "{}", r.workload);
    for (m, def) in r.end_to_end.iter().zip(&END_TO_END) {
        assert_eq!((m.name.as_str(), m.unit), (def.name, def.unit));
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{}: {} = {}",
            r.workload,
            m.name,
            m.value
        );
    }
}

// Two tests so the two CPUs of the tier-1 host share the work.
#[test]
fn vm_workloads_emit_every_metric_once() {
    (0..WORKLOADS.len())
        .filter(|&i| WORKLOADS[i].is_vm())
        .for_each(check_workload);
    // The measured path: no probes, no spans, end-to-end metrics only.
    let r = smoke(0, 1, false);
    assert_eq!(r.failed, 0, "{:?}", r.failures);
    assert_end_to_end(&r);
    assert!(r.per_layer.is_none() && r.chrome_trace.is_none());
    assert_eq!(r.metrics().len(), END_TO_END.len());
}

#[test]
fn fleet_workloads_emit_every_metric_once() {
    (0..WORKLOADS.len())
        .filter(|&i| !WORKLOADS[i].is_vm())
        .for_each(check_workload);
}

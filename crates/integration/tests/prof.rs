//! hera-prof end-to-end: the reconciliation invariant (every charged
//! virtual cycle is attributed to exactly one method, per core kind),
//! determinism of the rendered artifacts, and a pinned flamegraph
//! snapshot on a small hand-built program.

#![forbid(unsafe_code)]

use hera_bench::{chaos_death_cycle, ppe_config, profile_workload, spe_config};
use hera_core::{RunOutcome, VmConfig};
use hera_frontend::*;
use hera_integration::run_program;
use hera_isa::{ProgramBuilder, Ty, Value};
use hera_prof::{method_name, KindLane};
use hera_trace::CostClass;
use hera_workloads::Workload;

const SCALE: f64 = 0.2;

/// The tentpole invariant: profile totals reconcile cycle-for-cycle
/// with the RunStats cycle breakdowns, per core kind.
fn assert_reconciles(out: &RunOutcome, ctx: &str) {
    let prof = out.profile.as_ref().expect("profiling was enabled");
    let totals = prof.totals();
    assert_eq!(
        totals[KindLane::Ppe as usize].total(),
        out.stats.ppe.total_cycles(),
        "{ctx}: PPE attribution does not reconcile"
    );
    assert_eq!(
        totals[KindLane::Spe as usize].total(),
        out.stats.spe.total_cycles(),
        "{ctx}: SPE attribution does not reconcile"
    );
}

#[test]
fn profile_reconciles_with_runstats_on_every_workload_and_config() {
    for w in Workload::ALL {
        for (cfg_name, threads, cfg) in [
            ("ppe", 1u32, ppe_config()),
            ("spe1", 1, spe_config(1)),
            ("spe6", 6, spe_config(6)),
        ] {
            let (out, _) = profile_workload(w, threads, SCALE, cfg);
            assert_reconciles(&out, &format!("{}/{cfg_name}", w.name()));
        }
    }
}

/// Fault injection (MFC retries, proxy timeouts, one SPE death with
/// migration-based draining) exercises every exotic attribution path:
/// the invariant must hold, and the retry/backoff cycles must land in
/// the dedicated fault-retry class.
#[test]
fn profile_reconciles_under_chaos_and_bills_fault_retry() {
    // Rates well above the stock chaos plan so the DMA-heavy compress
    // workload reliably takes retries even at reduced scale.
    let plan = hera_cell::FaultPlan::seeded(0xC0FFEE)
        .with_mfc_faults(5_000, 2_000, 0)
        .expect("valid fault rates")
        .with_proxy_faults(5_000)
        .with_migration_faults(5_000)
        .with_spe_death(2, chaos_death_cycle(SCALE));
    let (out, _) = profile_workload(
        Workload::Compress,
        6,
        SCALE,
        spe_config(6).with_faults(plan),
    );
    assert_reconciles(&out, "compress/chaos");
    assert!(
        out.stats.faults.total_injected() > 0,
        "plan injected nothing"
    );
    let prof = out.profile.as_ref().unwrap();
    let retry: u64 = prof
        .totals()
        .iter()
        .map(|c| c.get(CostClass::FaultRetry))
        .sum();
    assert!(retry > 0, "injected faults billed no fault-retry cycles");
    let migration: u64 = prof
        .totals()
        .iter()
        .map(|c| c.get(CostClass::Migration))
        .sum();
    assert!(
        migration > 0,
        "SPE death fail-over billed no migration cycles"
    );
}

#[test]
fn rendered_artifacts_are_deterministic_across_reruns() {
    let run = || profile_workload(Workload::Compress, 6, SCALE, spe_config(6));
    let (a, names) = run();
    let (b, _) = run();
    let resolve = |m| method_name(&names, m);
    let pa = a.profile.unwrap();
    let pb = b.profile.unwrap();
    assert_eq!(pa.collapsed(&resolve), pb.collapsed(&resolve));
    assert_eq!(pa.top_table(20, &resolve), pb.top_table(20, &resolve));
    // A profile diffed against an identical rerun is all zeros.
    assert!(pa.diff_rows(&pb).iter().all(|r| r.delta() == 0));
}

/// A three-method program (main -> work -> leaf) pinned on one SPE:
/// the collapsed-stack flamegraph output must have exactly the
/// expected call-path structure, byte-identical across reruns.
fn snapshot_program() -> (hera_isa::Program, Vec<String>) {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let leaf = declare_static(&mut pb, c, "leaf", vec![("n", Ty::Int)], Some(Ty::Int));
    define(
        &mut pb,
        leaf,
        vec![("n", Ty::Int)],
        vec![Stmt::Return(Some(mul(local("n"), local("n"))))],
    )
    .unwrap();
    let work = declare_static(&mut pb, c, "work", vec![], Some(Ty::Int));
    define(
        &mut pb,
        work,
        vec![],
        vec![
            Stmt::Let("sum".into(), i32c(0)),
            for_range(
                "i",
                i32c(0),
                i32c(200),
                vec![Stmt::Assign(
                    "sum".into(),
                    add(local("sum"), call(leaf, vec![local("i")])),
                )],
            ),
            Stmt::Return(Some(local("sum"))),
        ],
    )
    .unwrap();
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![Stmt::Return(Some(call(work, vec![])))],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let names: Vec<String> = program.methods.iter().map(|m| m.name.clone()).collect();
    (program, names)
}

#[test]
fn flamegraph_snapshot_is_pinned_and_reproducible() {
    let run = || {
        let (program, names) = snapshot_program();
        let out = run_program(program, VmConfig::pinned_spe(1).with_profiling());
        assert_eq!(out.result, Some(Value::I32((0..200).map(|i| i * i).sum())));
        (out, names)
    };
    let (out, names) = run();
    assert_reconciles(&out, "snapshot");
    let resolve = |m| method_name(&names, m);
    let folded = out.profile.as_ref().unwrap().collapsed(&resolve);

    // Structure pin: exactly these call paths, in this (sorted) order.
    let stacks: Vec<&str> = folded
        .lines()
        .map(|l| l.rsplit_once(' ').expect("line is `stack cycles`").0)
        .collect();
    assert_eq!(
        stacks,
        vec![
            "spe;(runtime)",
            "spe;(runtime);main",
            "spe;(runtime);main;work",
            "spe;(runtime);main;work;leaf",
        ],
        "collapsed stacks drifted:\n{folded}"
    );
    // Every line carries a positive cycle count.
    for line in folded.lines() {
        let cycles: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(cycles > 0, "zero-cost stack emitted: {line}");
    }
    // Byte-identical rerun.
    let (out2, _) = run();
    assert_eq!(folded, out2.profile.as_ref().unwrap().collapsed(&resolve));
}

//! Runtime edge cases: deadlock detection, stack-overflow traps, trap
//! isolation between threads, yield, virtual time, and configuration
//! plumbing.

#![forbid(unsafe_code)]

use hera_core::native::install_runtime;
use hera_core::{BlockReason, HeraJvm, VmConfig, VmError};
use hera_frontend::*;
use hera_integration::run_program;
use hera_isa::{ElemTy, ProgramBuilder, Trap, Ty, Value};

#[test]
fn classic_lock_order_deadlock_is_detected() {
    // Two workers take two locks in opposite orders with a long stall
    // between acquisitions, so both inner acquisitions block forever.
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let locks = pb.add_class("Locks", None);
    let fa = pb.add_static_field(locks, "a", Ty::Ref(locks));
    let fb = pb.add_static_field(locks, "b", Ty::Ref(locks));

    let mk_worker = |pb: &mut ProgramBuilder, name: &str, first, second| {
        let w = pb.add_class(name, Some(api.thread_class));
        let run = declare_virtual(pb, w, "run", vec![], None);
        define(
            pb,
            run,
            vec![("this", Ty::Ref(w))],
            vec![Stmt::Sync(
                static_(first),
                vec![
                    // Stall long enough that the other worker holds its
                    // first lock before we try our second.
                    Stmt::Let("x".into(), i32c(0)),
                    for_range(
                        "i",
                        i32c(0),
                        i32c(30_000),
                        vec![Stmt::Assign("x".into(), add(local("x"), i32c(1)))],
                    ),
                    Stmt::Sync(static_(second), vec![Stmt::Expr(local("x"))]),
                ],
            )],
        )
        .unwrap();
        w
    };
    let w1 = mk_worker(&mut pb, "W1", fa, fb);
    let w2 = mk_worker(&mut pb, "W2", fb, fa);

    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], None);
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::SetStatic(fa, Expr::New(locks)),
            Stmt::SetStatic(fb, Expr::New(locks)),
            Stmt::Let("t1".into(), call(api.spawn, vec![Expr::New(w1)])),
            Stmt::Let("t2".into(), call(api.spawn, vec![Expr::New(w2)])),
            Stmt::Expr(call(api.join, vec![local("t1")])),
            Stmt::Expr(call(api.join, vec![local("t2")])),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let vm = HeraJvm::new(program, VmConfig::pinned_spe(2)).unwrap();
    let err = match vm.run() {
        Err(e) => e,
        other => panic!("expected deadlock, got {other:?}"),
    };
    // The error must diagnose the cycle, not just count heads: both
    // workers parked on monitors (distinct objects — the textbook A→B,
    // B→A order inversion), plus main parked joining a worker.
    let rendered = err.to_string();
    let (threads, stuck) = match err {
        VmError::Deadlock { threads, stuck } => (threads, stuck),
        other => panic!("expected deadlock, got {other:?}"),
    };
    assert_eq!(threads, stuck.len(), "count must match the detail list");
    let monitors: Vec<_> = stuck
        .iter()
        .filter_map(|s| match s.waiting_on {
            BlockReason::Monitor(obj) => Some(obj),
            BlockReason::Join(_) => None,
        })
        .collect();
    assert_eq!(
        monitors.len(),
        2,
        "both workers wait on monitors: {stuck:?}"
    );
    assert_ne!(
        monitors[0], monitors[1],
        "a cycle needs two distinct locks: {stuck:?}"
    );
    assert!(
        stuck
            .iter()
            .any(|s| matches!(s.waiting_on, BlockReason::Join(_))),
        "main should be parked joining a worker: {stuck:?}"
    );
    // Every participant appears in the rendered error, with its wait
    // target — the "debuggable from the error alone" contract.
    for s in &stuck {
        assert!(
            rendered.contains(&format!("thread {}", s.id.0)),
            "{rendered:?} does not name thread {}",
            s.id.0
        );
    }
    assert!(rendered.contains("waits for monitor @"), "{rendered:?}");
    assert!(rendered.contains("waits to join thread"), "{rendered:?}");
}

#[test]
fn runaway_recursion_traps_as_stack_overflow() {
    let mut pb = ProgramBuilder::new();
    let cls = pb.add_class("Main", None);
    let f = declare_static(&mut pb, cls, "f", vec![("n", Ty::Int)], Some(Ty::Int));
    define(
        &mut pb,
        f,
        vec![("n", Ty::Int)],
        vec![Stmt::Return(Some(call(f, vec![add(local("n"), i32c(1))])))],
    )
    .unwrap();
    let main = declare_static(&mut pb, cls, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![Stmt::Return(Some(call(f, vec![i32c(0)])))],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_ppe());
    assert_eq!(out.traps.len(), 1);
    assert!(matches!(&out.traps[0].1, Trap::NativeError(m) if m.contains("stack overflow")));
}

/// `main` recurses `depth` frames down `f` and there calls the
/// `@FloatIntensive` `fp`, which the default (annotation) policy runs on
/// an SPE.
fn annotated_call_at_depth(depth: i32) -> hera_isa::Program {
    let mut pb = ProgramBuilder::new();
    let cls = pb.add_class("Main", None);
    let fp = declare_static(&mut pb, cls, "fp", vec![("x", Ty::Int)], Some(Ty::Int));
    pb.annotate(fp, hera_isa::Annotation::FloatIntensive);
    define(
        &mut pb,
        fp,
        vec![("x", Ty::Int)],
        vec![Stmt::Return(Some(mul(local("x"), i32c(3))))],
    )
    .unwrap();
    let f = declare_static(&mut pb, cls, "f", vec![("n", Ty::Int)], Some(Ty::Int));
    define(
        &mut pb,
        f,
        vec![("n", Ty::Int)],
        vec![Stmt::If(
            cmp_eq(local("n"), i32c(0)),
            vec![Stmt::Return(Some(call(fp, vec![i32c(7)])))],
            vec![Stmt::Return(Some(call(f, vec![sub(local("n"), i32c(1))])))],
        )],
    )
    .unwrap();
    let main = declare_static(&mut pb, cls, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![Stmt::Return(Some(call(f, vec![i32c(depth)])))],
    )
    .unwrap();
    pb.finish_with_entry("Main", "main").unwrap()
}

/// An annotated call made with `max_stack_depth - 1` frames on the stack:
/// the migration marker takes the last frame, so the callee's activation
/// on arrival at the SPE overflows. A frame shallower, it runs. The dead
/// thread's checkpoint (frames and arena dropped, marker gone with them)
/// is pinned byte for byte.
#[test]
fn annotated_call_at_the_depth_limit_overflows_on_arrival() {
    use hera_cell::CoreId;
    use hera_core::world::World;
    use hera_core::ThreadState;

    const MAX_DEPTH: usize = 24;
    const PINNED_CHECKPOINT: u64 = 0xc9a6_ab52_1560_4de5;
    let cfg = VmConfig {
        max_stack_depth: MAX_DEPTH,
        ..VmConfig::default()
    };
    // `main` is frame 1 and `f(n)` frame `depth - n + 2`, so `f(0)` calls
    // `fp` from frame `depth + 2`.
    let calls_from = |frames: usize| (frames - 2) as i32;

    let out = run_program(annotated_call_at_depth(calls_from(MAX_DEPTH - 2)), cfg);
    assert!(out.is_clean(), "traps {:?}", out.traps);
    assert_eq!(out.result, Some(Value::I32(21)));
    assert_eq!(out.stats.migrations, 2, "there and back");

    let program = annotated_call_at_depth(calls_from(MAX_DEPTH - 1));
    let out = run_program(program.clone(), cfg);
    assert_eq!(out.traps.len(), 1);
    assert!(matches!(&out.traps[0].1, Trap::NativeError(m) if m.contains("stack overflow")));
    assert_eq!(out.stats.migrations, 1, "the thread died on arrival");

    let mut w = World::new(&program, cfg);
    w.spawn_thread(program.entry.unwrap(), Vec::new(), CoreId::Ppe, 0);
    w.run_to_completion().unwrap();
    assert!(matches!(
        &w.threads[0].state,
        ThreadState::Finished(Err(Trap::NativeError(m))) if m.contains("stack overflow")
    ));
    let digest = hera_snap::digest64(&w.checkpoint_now());
    assert_eq!(
        digest, PINNED_CHECKPOINT,
        "dead thread's checkpoint changed (actual: {digest:#018x})"
    );
}

#[test]
fn worker_trap_does_not_poison_other_threads() {
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let bad = pb.add_class("Bad", Some(api.thread_class));
    let bad_run = declare_virtual(&mut pb, bad, "run", vec![], None);
    define(
        &mut pb,
        bad_run,
        vec![("this", Ty::Ref(bad))],
        vec![
            Stmt::Let("z".into(), i32c(0)),
            Stmt::Expr(div(i32c(1), local("z"))),
        ],
    )
    .unwrap();
    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("t".into(), call(api.spawn, vec![Expr::New(bad)])),
            Stmt::Expr(call(api.join, vec![local("t")])),
            Stmt::Return(Some(i32c(99))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_spe(2));
    // Main completes; the worker's trap is reported separately.
    assert_eq!(out.result, Some(Value::I32(99)));
    assert_eq!(out.traps.len(), 1);
    assert!(matches!(out.traps[0].1, Trap::DivisionByZero));
}

#[test]
fn yield_native_is_harmless_and_time_is_monotone() {
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("t0".into(), call(api.time_millis, vec![])),
            for_range(
                "i",
                i32c(0),
                i32c(3),
                vec![Stmt::Expr(call(api.yield_thread, vec![]))],
            ),
            // Burn virtual time so t1 visibly exceeds t0.
            Stmt::Let("x".into(), i32c(0)),
            for_range(
                "j",
                i32c(0),
                i32c(2_000_000),
                vec![Stmt::Assign("x".into(), add(local("x"), i32c(1)))],
            ),
            Stmt::Let("t1".into(), call(api.time_millis, vec![])),
            Stmt::If(
                cmp_gt(cast(Ty::Int, local("t1")), cast(Ty::Int, local("t0"))),
                vec![Stmt::Return(Some(i32c(1)))],
                vec![Stmt::Return(Some(i32c(0)))],
            ),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_ppe());
    assert_eq!(out.result, Some(Value::I32(1)), "virtual time must advance");
}

#[test]
fn config_builders_wire_through() {
    let cfg = VmConfig::pinned_spe(3);
    assert_eq!(cfg.cell.num_spes, 3);
    let cfg = VmConfig::default().with_cache_sizes(40 << 10, 16 << 10);
    assert_eq!(cfg.cell.partition.data_cache_bytes, 40 << 10);
    assert_eq!(cfg.cell.partition.code_cache_bytes, 16 << 10);
    assert_eq!(cfg.cell.partition.resident_bytes, 64 << 10);
}

#[test]
fn spawn_of_non_thread_object_traps() {
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let plain = pb.add_class("Plain", None);
    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![Stmt::Return(Some(call(
            api.spawn,
            vec![cast(Ty::Ref(api.thread_class), Expr::New(plain))],
        )))],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_ppe());
    assert_eq!(out.traps.len(), 1);
    assert!(matches!(&out.traps[0].1, Trap::NativeError(m) if m.contains("not a Thread")));
}

#[test]
fn output_from_one_thread_is_ordered() {
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], None);
    define(
        &mut pb,
        main,
        vec![],
        vec![for_range(
            "i",
            i32c(0),
            i32c(5),
            vec![Stmt::Expr(call(api.print_i32, vec![local("i")]))],
        )],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_spe(1));
    assert_eq!(out.output, vec!["0", "1", "2", "3", "4"]);
}

#[test]
fn empty_worker_fleet_completes() {
    // Spawn N no-op workers and join them all — exercises spawn/join
    // bookkeeping without any shared state.
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let w = pb.add_class("W", Some(api.thread_class));
    let run = declare_virtual(&mut pb, w, "run", vec![], None);
    define(&mut pb, run, vec![("this", Ty::Ref(w))], vec![]).unwrap();
    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("tids".into(), new_array(ElemTy::Int, i32c(12))),
            for_range(
                "i",
                i32c(0),
                i32c(12),
                vec![Stmt::SetIndex(
                    local("tids"),
                    local("i"),
                    call(api.spawn, vec![Expr::New(w)]),
                )],
            ),
            for_range(
                "j",
                i32c(0),
                i32c(12),
                vec![Stmt::Expr(call(
                    api.join,
                    vec![index(local("tids"), local("j"))],
                ))],
            ),
            Stmt::Return(Some(i32c(12))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_spe(4));
    assert!(out.is_clean());
    assert_eq!(out.result, Some(Value::I32(12)));
    assert_eq!(out.stats.threads, 13);
}

//! Multi-threading, migration and memory-model semantics across cores:
//! spawn/join, monitors with contention, volatile publication, the
//! native bridges, and annotation-driven migration.

#![forbid(unsafe_code)]

use hera_core::native::install_runtime;
use hera_core::{PlacementPolicy, VmConfig};
use hera_frontend::*;
use hera_integration::run_program;
use hera_isa::{Annotation, ElemTy, ProgramBuilder, Ty, Value};

#[test]
fn locked_counter_is_exact_on_ppe() {
    let out = run_program(hera_bench::sync_program(4, 200).0, VmConfig::pinned_ppe());
    assert!(out.is_clean(), "traps: {:?}", out.traps);
    assert_eq!(out.result, Some(Value::I32(800)));
    assert_eq!(out.stats.threads, 5);
}

#[test]
fn locked_counter_is_exact_across_spe_cores() {
    // The JMM purge/write-back at monitor enter/exit is what makes this
    // correct: each SPE's cached copy of `count` must be refreshed under
    // the lock and published at release.
    let out = run_program(hera_bench::sync_program(6, 150).0, VmConfig::pinned_spe(6));
    assert!(out.is_clean(), "traps: {:?}", out.traps);
    assert_eq!(out.result, Some(Value::I32(900)));
    assert!(out.stats.contended_acquires > 0, "expected lock contention");
    // Coherence actions really happened.
    assert!(out.stats.data_cache.purges > 0);
    assert!(out.stats.data_cache.writebacks > 0);
}

#[test]
fn unsynchronized_spe_writers_may_lose_updates() {
    // The same program WITHOUT the lock: on SPEs with software caches,
    // lost updates are expected (and allowed by the JMM for racy code).
    // This documents that the simulator really exhibits staleness — the
    // coherence in the locked test is earned, not accidental.
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let shared = pb.add_class("Shared", None);
    let fcount = pb.add_field(shared, "count", Ty::Int);
    let worker = pb.add_class("Worker", Some(api.thread_class));
    let fshared = pb.add_field(worker, "shared", Ty::Ref(shared));
    let run = declare_virtual(&mut pb, worker, "run", vec![], None);
    define(
        &mut pb,
        run,
        vec![("this", Ty::Ref(worker))],
        vec![
            Stmt::Let("s".into(), field(local("this"), fshared)),
            for_range(
                "i",
                i32c(0),
                i32c(500),
                vec![Stmt::SetField(
                    local("s"),
                    fcount,
                    add(field(local("s"), fcount), i32c(1)),
                )],
            ),
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
            Stmt::Let("s".into(), Expr::New(shared)),
            Stmt::Let("w1".into(), Expr::New(worker)),
            Stmt::Let("w2".into(), Expr::New(worker)),
            Stmt::SetField(local("w1"), fshared, local("s")),
            Stmt::SetField(local("w2"), fshared, local("s")),
            Stmt::Let("t1".into(), call(api.spawn, vec![local("w1")])),
            Stmt::Let("t2".into(), call(api.spawn, vec![local("w2")])),
            Stmt::Expr(call(api.join, vec![local("t1")])),
            Stmt::Expr(call(api.join, vec![local("t2")])),
            Stmt::Return(Some(field(local("s"), fcount))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_spe(2));
    assert!(out.is_clean());
    let total = out.result.unwrap().as_i32();
    // Racy code: anything between one writer's count and the full total
    // is permissible; full coherence would make this 1000 always.
    assert!((500..=1000).contains(&total), "got {total}");
}

#[test]
fn volatile_flag_publishes_across_spe_cores() {
    // Writer sets data then a volatile flag; reader spins on the flag
    // then reads data. JMM: the read must see the data.
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let shared = pb.add_class("Shared", None);
    let fdata = pb.add_field(shared, "data", Ty::Int);
    let fflag = pb.add_volatile_field(shared, "flag", Ty::Int);

    let writer = pb.add_class("Writer", Some(api.thread_class));
    let wf = pb.add_field(writer, "shared", Ty::Ref(shared));
    let wrun = declare_virtual(&mut pb, writer, "run", vec![], None);
    define(
        &mut pb,
        wrun,
        vec![("this", Ty::Ref(writer))],
        vec![
            Stmt::Let("s".into(), field(local("this"), wf)),
            // A little warm-up delay so the reader really spins.
            Stmt::Let("x".into(), i32c(0)),
            for_range(
                "i",
                i32c(0),
                i32c(2_000),
                vec![Stmt::Assign("x".into(), add(local("x"), i32c(1)))],
            ),
            Stmt::SetField(local("s"), fdata, add(i32c(41), rem(local("x"), i32c(2)))),
            Stmt::SetField(local("s"), fflag, i32c(1)),
        ],
    )
    .unwrap();

    let reader = pb.add_class("Reader", Some(api.thread_class));
    let rf = pb.add_field(reader, "shared", Ty::Ref(shared));
    let rout = pb.add_field(reader, "seen", Ty::Int);
    let rrun = declare_virtual(&mut pb, reader, "run", vec![], None);
    define(
        &mut pb,
        rrun,
        vec![("this", Ty::Ref(reader))],
        vec![
            Stmt::Let("s".into(), field(local("this"), rf)),
            Stmt::While(
                cmp_eq(field(local("s"), fflag), i32c(0)),
                vec![Stmt::Expr(i32c(0))],
            ),
            Stmt::SetField(local("this"), rout, field(local("s"), fdata)),
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
            Stmt::Let("s".into(), Expr::New(shared)),
            Stmt::Let("w".into(), Expr::New(writer)),
            Stmt::Let("r".into(), Expr::New(reader)),
            Stmt::SetField(local("w"), wf, local("s")),
            Stmt::SetField(local("r"), rf, local("s")),
            Stmt::Let("tr".into(), call(api.spawn, vec![local("r")])),
            Stmt::Let("tw".into(), call(api.spawn, vec![local("w")])),
            Stmt::Expr(call(api.join, vec![local("tw")])),
            Stmt::Expr(call(api.join, vec![local("tr")])),
            Stmt::Return(Some(field(local("r"), rout))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_spe(2));
    assert!(out.is_clean(), "traps: {:?}", out.traps);
    assert_eq!(
        out.result,
        Some(Value::I32(41)),
        "volatile publication failed"
    );
}

#[test]
fn native_print_and_time_work_from_spe() {
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Expr(call(api.print_i32, vec![i32c(123)])),
            Stmt::Let("t".into(), call(api.time_millis, vec![])),
            Stmt::Expr(call(api.print_i64, vec![local("t")])),
            Stmt::Return(Some(cast(Ty::Int, local("t")))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_spe(1));
    assert!(out.is_clean());
    assert_eq!(out.output[0], "123");
    assert_eq!(out.output.len(), 2);
}

#[test]
fn write_file_native_collects_bytes() {
    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("buf".into(), new_array(ElemTy::Byte, i32c(4))),
            Stmt::SetIndex(local("buf"), i32c(0), i32c(72)), // 'H'
            Stmt::SetIndex(local("buf"), i32c(1), i32c(105)), // 'i'
            Stmt::SetIndex(local("buf"), i32c(2), i32c(33)), // '!'
            Stmt::SetIndex(local("buf"), i32c(3), i32c(10)), // newline
            Stmt::Return(Some(call(
                api.write_file,
                vec![i32c(1), local("buf"), i32c(4)],
            ))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    // From the SPE this is a JNI native: flush + migrate + execute.
    let out = run_program(program, VmConfig::pinned_spe(1));
    assert!(out.is_clean());
    assert_eq!(out.result, Some(Value::I32(4)));
    assert_eq!(out.files.get(&1).map(Vec::as_slice), Some(&b"Hi!\n"[..]));
    // The JNI bridge migrated the thread to the PPE and back.
    assert!(out.stats.migrations >= 2);
}

#[test]
fn annotation_migrates_and_returns_at_marker() {
    let mut pb = ProgramBuilder::new();
    let main_c = pb.add_class("Main", None);
    let hot = declare_static(
        &mut pb,
        main_c,
        "hot",
        vec![("n", Ty::Int)],
        Some(Ty::Float),
    );
    pb.annotate(hot, Annotation::FloatIntensive);
    define(
        &mut pb,
        hot,
        vec![("n", Ty::Int)],
        vec![
            Stmt::Let("x".into(), f32c(1.0)),
            for_range(
                "i",
                i32c(0),
                local("n"),
                vec![Stmt::Assign(
                    "x".into(),
                    add(mul(local("x"), f32c(1.0001)), f32c(0.5)),
                )],
            ),
            Stmt::Return(Some(local("x"))),
        ],
    )
    .unwrap();
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            // Call the annotated method twice; each call migrates to an
            // SPE and transparently returns.
            Stmt::Let("a".into(), call(hot, vec![i32c(2_000)])),
            Stmt::Let("b".into(), call(hot, vec![i32c(2_000)])),
            Stmt::If(
                cmp_eq(cast(Ty::Int, local("a")), cast(Ty::Int, local("b"))),
                vec![Stmt::Return(Some(i32c(1)))],
                vec![Stmt::Return(Some(i32c(0)))],
            ),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let cfg = VmConfig {
        policy: PlacementPolicy::Annotation,
        ..VmConfig::default()
    };
    let out = run_program(program.clone(), cfg);
    assert!(out.is_clean());
    assert_eq!(out.result, Some(Value::I32(1)));
    // Two round trips = 4 migrations; the method was compiled for the
    // SPE only (plus main for the PPE).
    assert_eq!(out.stats.migrations, 4);
    assert_eq!(out.stats.registry.spe_compilations, 1);
    assert_eq!(out.stats.registry.ppe_compilations, 1);
    assert_eq!(out.stats.registry.dual_compiled, 0);

    // Identical numeric result when everything stays on the PPE.
    let pinned = run_program(program, VmConfig::pinned_ppe());
    assert_eq!(pinned.result, Some(Value::I32(1)));
}

#[test]
fn join_on_finished_thread_is_immediate() {
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
            Stmt::Let("t".into(), call(api.spawn, vec![Expr::New(w)])),
            // Burn enough time that the worker certainly finished.
            Stmt::Let("x".into(), i32c(0)),
            for_range(
                "i",
                i32c(0),
                i32c(50_000),
                vec![Stmt::Assign("x".into(), add(local("x"), i32c(1)))],
            ),
            Stmt::Expr(call(api.join, vec![local("t")])),
            Stmt::Expr(call(api.join, vec![local("t")])), // second join: no-op
            Stmt::Return(Some(local("x"))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_ppe());
    assert!(out.is_clean());
    assert_eq!(out.result, Some(Value::I32(50_000)));
}

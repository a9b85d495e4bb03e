//! End-to-end execution semantics: the same guest programs must compute
//! identical results on the PPE (direct heap access) and on SPE cores
//! (software-cached access) — the paper's core transparency claim.

#![forbid(unsafe_code)]

use hera_core::{HeraJvm, PlacementPolicy, VmConfig};
use hera_frontend::*;
use hera_integration::{run_both, run_program};
use hera_isa::{ElemTy, ProgramBuilder, Trap, Ty, Value};

/// A one-class program with a single static `main`.
fn main_program(ret: Option<Ty>, body: Vec<Stmt>) -> hera_isa::Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, c, "main", vec![], ret);
    define(&mut pb, main, vec![], body).expect("main should compile");
    pb.finish_with_entry("Main", "main")
        .expect("program resolves")
}

#[test]
fn arithmetic_loop_same_result_on_both_core_kinds() {
    // sum of i*i for i in 0..100, mod 1e9
    let body = vec![
        Stmt::Let("sum".into(), i32c(0)),
        for_range(
            "i",
            i32c(0),
            i32c(100),
            vec![Stmt::Assign(
                "sum".into(),
                add(local("sum"), mul(local("i"), local("i"))),
            )],
        ),
        Stmt::Return(Some(local("sum"))),
    ];
    let (ppe, spe) = run_both(main_program(Some(Ty::Int), body), 1);
    assert_eq!(ppe.result, Some(Value::I32(328350)));
    assert_eq!(spe.result, Some(Value::I32(328350)));
    assert!(ppe.is_clean() && spe.is_clean());
}

#[test]
fn float_math_bit_identical_across_cores() {
    // Newton iteration for sqrt(2) in f32.
    let body = vec![
        Stmt::Let("x".into(), f32c(1.0)),
        for_range(
            "i",
            i32c(0),
            i32c(20),
            vec![Stmt::Assign(
                "x".into(),
                mul(f32c(0.5), add(local("x"), div(f32c(2.0), local("x")))),
            )],
        ),
        Stmt::Return(Some(local("x"))),
    ];
    let (ppe, spe) = run_both(main_program(Some(Ty::Float), body), 1);
    assert_eq!(ppe.result, spe.result);
    let v = ppe.result.unwrap().as_f32();
    assert!((v - 2f32.sqrt()).abs() < 1e-6);
}

#[test]
fn objects_and_fields_roundtrip_on_spe() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let point = pb.add_class("Point", None);
    let fx = pb.add_field(point, "x", Ty::Int);
    let fy = pb.add_field(point, "y", Ty::Int);
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("p".into(), Expr::New(point)),
            Stmt::SetField(local("p"), fx, i32c(30)),
            Stmt::SetField(local("p"), fy, i32c(12)),
            Stmt::Return(Some(add(field(local("p"), fx), field(local("p"), fy)))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let (ppe, spe) = run_both(program, 1);
    assert_eq!(ppe.result, Some(Value::I32(42)));
    assert_eq!(spe.result, Some(Value::I32(42)));
}

#[test]
fn arrays_across_block_boundaries_on_spe() {
    // 4000-element int array spans several 1 KB cache blocks.
    let body = vec![
        Stmt::Let("a".into(), new_array(ElemTy::Int, i32c(4000))),
        for_range(
            "i",
            i32c(0),
            i32c(4000),
            vec![Stmt::SetIndex(local("a"), local("i"), local("i"))],
        ),
        Stmt::Let("sum".into(), i32c(0)),
        for_range(
            "i2",
            i32c(0),
            i32c(4000),
            vec![Stmt::Assign(
                "sum".into(),
                add(local("sum"), index(local("a"), local("i2"))),
            )],
        ),
        Stmt::Return(Some(local("sum"))),
    ];
    let (ppe, spe) = run_both(main_program(Some(Ty::Int), body), 1);
    assert_eq!(ppe.result, Some(Value::I32(4000 * 3999 / 2)));
    assert_eq!(spe.result, ppe.result);
    // The SPE run must actually have used the data cache.
    assert!(spe.stats.data_cache.hits > 0);
    assert!(spe.stats.data_cache.misses > 0);
}

#[test]
fn virtual_dispatch_chooses_the_override() {
    let mut pb = ProgramBuilder::new();
    let main_c = pb.add_class("Main", None);
    let animal = pb.add_class("Animal", None);
    let speak_a = declare_virtual(&mut pb, animal, "speak", vec![], Some(Ty::Int));
    let dog = pb.add_class("Dog", Some(animal));
    let speak_d = declare_virtual(&mut pb, dog, "speak", vec![], Some(Ty::Int));
    define(
        &mut pb,
        speak_a,
        vec![("this", Ty::Ref(animal))],
        vec![Stmt::Return(Some(i32c(1)))],
    )
    .unwrap();
    define(
        &mut pb,
        speak_d,
        vec![("this", Ty::Ref(dog))],
        vec![Stmt::Return(Some(i32c(2)))],
    )
    .unwrap();
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("a".into(), Expr::New(animal)),
            Stmt::Let("d".into(), Expr::New(dog)),
            // dispatch through the Animal-declared method on both
            Stmt::Return(Some(add(
                vcall(local("a"), speak_a, vec![]),
                mul(i32c(10), vcall(local("d"), speak_a, vec![])),
            ))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let (ppe, spe) = run_both(program, 1);
    assert_eq!(ppe.result, Some(Value::I32(21)));
    assert_eq!(spe.result, Some(Value::I32(21)));
}

#[test]
fn recursion_and_calls_work_on_spe() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let fib = declare_static(&mut pb, c, "fib", vec![("n", Ty::Int)], Some(Ty::Int));
    define(
        &mut pb,
        fib,
        vec![("n", Ty::Int)],
        vec![
            Stmt::ret_if(cmp_lt(local("n"), i32c(2)), local("n")),
            Stmt::Return(Some(add(
                call(fib, vec![sub(local("n"), i32c(1))]),
                call(fib, vec![sub(local("n"), i32c(2))]),
            ))),
        ],
    )
    .unwrap();
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![Stmt::Return(Some(call(fib, vec![i32c(15)])))],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let (ppe, spe) = run_both(program, 1);
    assert_eq!(ppe.result, Some(Value::I32(610)));
    assert_eq!(spe.result, Some(Value::I32(610)));
    // SPE run exercised the code cache.
    assert!(spe.stats.code_cache.toc_lookups > 0);
}

#[test]
fn traps_terminate_the_thread_and_are_reported() {
    let body = vec![
        Stmt::Let("a".into(), new_array(ElemTy::Int, i32c(4))),
        Stmt::Return(Some(index(local("a"), i32c(9)))),
    ];
    let out = run_program(main_program(Some(Ty::Int), body), VmConfig::pinned_ppe());
    assert_eq!(out.result, None);
    assert_eq!(out.traps.len(), 1);
    assert!(matches!(
        out.traps[0].1,
        Trap::ArrayIndexOutOfBounds { index: 9, len: 4 }
    ));
}

/// An out-of-range index is guest data: whatever its size, both access
/// paths must turn it into the same trap and never into host arithmetic
/// that overflows (the SPE path used to locate the element's cache block
/// before checking the index).
#[test]
fn wild_array_indices_trap_identically_on_both_core_kinds() {
    for elem in [ElemTy::Int, ElemTy::Long] {
        let mut spe_load_cycles = Vec::new();
        for idx in [9, 100_000, 0x2000_0001, i32::MAX, -5] {
            let load = vec![
                Stmt::Let("a".into(), new_array(elem, i32c(4))),
                Stmt::Let("x".into(), index(local("a"), i32c(idx))),
                Stmt::Return(Some(i32c(0))),
            ];
            let store = vec![
                Stmt::Let("a".into(), new_array(elem, i32c(4))),
                Stmt::SetIndex(local("a"), i32c(idx), index(local("a"), i32c(0))),
                Stmt::Return(Some(i32c(0))),
            ];
            for (what, body) in [("load", load), ("store", store)] {
                for (on_spe, mut cfg) in [
                    (true, VmConfig::pinned_spe(1)),
                    (false, VmConfig::pinned_ppe()),
                ] {
                    cfg.heap.size_bytes = 1 << 20;
                    let at = format!("{elem:?}[{idx}] {what} on {:?}", cfg.policy);
                    let out = run_program(main_program(Some(Ty::Int), body.clone()), cfg);
                    assert_eq!(out.result, None, "{at}");
                    assert_eq!(out.traps.len(), 1, "{at}");
                    assert_eq!(
                        out.traps[0].1,
                        Trap::ArrayIndexOutOfBounds { index: idx, len: 4 },
                        "{at}"
                    );
                    if what == "load" && on_spe && idx > 0 {
                        spe_load_cycles.push(out.stats.wall_cycles);
                    }
                }
            }
        }
        // However far out the index, the SPE reads the header block,
        // checks, and traps: one cost (the value a release build of the
        // code before the fix charged, where the wrap was harmless).
        assert_eq!(spe_load_cycles, [3246; 4], "{elem:?}");
    }
}

/// `new long[0x2000_0001]`: eight times that wraps 32 bits to 8, so an
/// unchecked size made this a 16-byte array claiming half a billion
/// elements — every heap byte readable and writable through it, and an
/// index past the image a host panic. It is an allocation no heap can
/// satisfy: the thread traps, on either core kind.
#[test]
fn array_length_whose_size_overflows_traps_out_of_memory() {
    let body = vec![
        Stmt::Let("a".into(), new_array(ElemTy::Long, i32c(0x2000_0001))),
        Stmt::SetIndex(local("a"), i32c(100_000), i64c(-1)),
        Stmt::Return(Some(length(local("a")))),
    ];
    let program = main_program(Some(Ty::Int), body);
    for mut cfg in [VmConfig::pinned_ppe(), VmConfig::pinned_spe(1)] {
        cfg.heap.size_bytes = 64 << 10;
        let out = run_program(program.clone(), cfg);
        assert_eq!(out.result, None);
        assert_eq!(
            out.traps,
            vec![(hera_core::ThreadId(0), Trap::OutOfMemory)],
            "{:?}",
            cfg.policy
        );
    }
}

#[test]
fn division_by_zero_traps_on_spe_too() {
    let body = vec![
        Stmt::Let("z".into(), i32c(0)),
        Stmt::Return(Some(div(i32c(1), local("z")))),
    ];
    let out = run_program(main_program(Some(Ty::Int), body), VmConfig::pinned_spe(1));
    assert_eq!(out.traps.len(), 1);
    assert!(matches!(out.traps[0].1, Trap::DivisionByZero));
}

#[test]
fn null_dereference_traps() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let point = pb.add_class("Point", None);
    let fx = pb.add_field(point, "x", Ty::Int);
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("p".into(), cast(Ty::Ref(point), Expr::Null)),
            Stmt::Return(Some(field(local("p"), fx))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let out = run_program(program, VmConfig::pinned_spe(1));
    assert!(matches!(out.traps[0].1, Trap::NullPointer));
}

#[test]
fn gc_collects_garbage_under_allocation_pressure() {
    // Allocate 40k small arrays, keeping only the latest: must exceed a
    // 4 MB heap many times over and survive via GC.
    let body = vec![
        Stmt::Let("keep".into(), new_array(ElemTy::Int, i32c(100))),
        for_range(
            "i",
            i32c(0),
            i32c(40_000),
            vec![
                Stmt::Assign("keep".into(), new_array(ElemTy::Int, i32c(100))),
                Stmt::SetIndex(local("keep"), i32c(0), local("i")),
            ],
        ),
        Stmt::Return(Some(index(local("keep"), i32c(0)))),
    ];
    let mut cfg = VmConfig::pinned_ppe();
    cfg.heap.size_bytes = 4 << 20;
    let out = run_program(main_program(Some(Ty::Int), body), cfg);
    assert!(out.is_clean(), "traps: {:?}", out.traps);
    assert_eq!(out.result, Some(Value::I32(39_999)));
    assert!(out.stats.gc.collections >= 3, "expected several GCs");
    assert!(out.stats.gc.objects_freed > 30_000);
}

#[test]
fn gc_with_dirty_spe_caches_loses_nothing() {
    // On an SPE, objects are written through the software cache; GC must
    // flush those dirty copies before tracing, or the linked structure
    // would be corrupted / prematurely collected.
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let node = pb.add_class("Node", None);
    let fnext = pb.add_field(node, "next", Ty::Ref(node));
    let fval = pb.add_field(node, "val", Ty::Int);
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            // Build a 50-node list, then churn garbage to force GC.
            Stmt::Let("head".into(), Expr::New(node)),
            Stmt::SetField(local("head"), fval, i32c(0)),
            for_range(
                "i",
                i32c(1),
                i32c(50),
                vec![
                    Stmt::Let("n".into(), Expr::New(node)),
                    Stmt::SetField(local("n"), fval, local("i")),
                    Stmt::SetField(local("n"), fnext, local("head")),
                    Stmt::Assign("head".into(), local("n")),
                ],
            ),
            for_range(
                "j",
                i32c(0),
                i32c(30_000),
                vec![Stmt::Expr(new_array(ElemTy::Long, i32c(64)))],
            ),
            // Sum the list.
            Stmt::Let("sum".into(), i32c(0)),
            Stmt::Let("cur".into(), local("head")),
            Stmt::While(
                Expr::Not(Box::new(cmp_eq(local("cur"), Expr::Null))),
                vec![
                    Stmt::Assign("sum".into(), add(local("sum"), field(local("cur"), fval))),
                    Stmt::Assign("cur".into(), field(local("cur"), fnext)),
                ],
            ),
            Stmt::Return(Some(local("sum"))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let mut cfg = VmConfig::pinned_spe(1);
    cfg.heap.size_bytes = 4 << 20;
    let out = run_program(program, cfg);
    assert!(out.is_clean(), "traps: {:?}", out.traps);
    assert_eq!(out.result, Some(Value::I32((0..50).sum())));
    assert!(out.stats.gc.collections > 0, "GC never ran");
}

#[test]
fn statics_are_shared_state() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let counter = pb.add_static_field(c, "counter", Ty::Int);
    let bump = declare_static(&mut pb, c, "bump", vec![], None);
    define(
        &mut pb,
        bump,
        vec![],
        vec![Stmt::SetStatic(counter, add(static_(counter), i32c(1)))],
    )
    .unwrap();
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            for_range("i", i32c(0), i32c(10), vec![Stmt::Expr(call(bump, vec![]))]),
            Stmt::Return(Some(static_(counter))),
        ],
    )
    .unwrap();
    let program = pb.finish_with_entry("Main", "main").unwrap();
    let (ppe, spe) = run_both(program, 1);
    assert_eq!(ppe.result, Some(Value::I32(10)));
    assert_eq!(spe.result, Some(Value::I32(10)));
}

#[test]
fn long_arithmetic_and_casts() {
    let body = vec![
        Stmt::Let("x".into(), i64c(1)),
        for_range(
            "i",
            i32c(0),
            i32c(40),
            vec![Stmt::Assign("x".into(), mul(local("x"), i64c(2)))],
        ),
        // x == 2^40; fold down to an int via xor of halves
        Stmt::Let("lo".into(), cast(Ty::Int, local("x"))),
        Stmt::Let("hi".into(), cast(Ty::Int, shr(local("x"), i32c(32)))),
        Stmt::Return(Some(add(local("lo"), local("hi")))),
    ];
    let (ppe, spe) = run_both(main_program(Some(Ty::Int), body), 1);
    assert_eq!(ppe.result, Some(Value::I32(256)));
    assert_eq!(spe.result, ppe.result);
}

#[test]
fn spe_run_compiles_methods_only_for_spe() {
    let body = vec![Stmt::Return(Some(i32c(7)))];
    let out = run_program(main_program(Some(Ty::Int), body), VmConfig::pinned_spe(1));
    assert_eq!(out.stats.registry.spe_compilations, 1);
    assert_eq!(out.stats.registry.ppe_compilations, 0);
    assert_eq!(out.stats.registry.dual_compiled, 0);
}

#[test]
fn adaptive_policy_runs_programs_to_completion() {
    let body = vec![
        Stmt::Let("x".into(), f32c(1.5)),
        for_range(
            "i",
            i32c(0),
            i32c(60_000),
            vec![Stmt::Assign(
                "x".into(),
                add(mul(local("x"), f32c(0.9999)), f32c(0.001)),
            )],
        ),
        Stmt::Return(Some(cast(Ty::Int, mul(local("x"), f32c(100.0))))),
    ];
    let program = main_program(Some(Ty::Int), body);
    let cfg = VmConfig {
        policy: PlacementPolicy::adaptive(),
        ..VmConfig::default()
    };
    let out = run_program(program.clone(), cfg);
    assert!(out.is_clean());
    // Same numeric result as the pinned runs.
    let pinned = run_program(program, VmConfig::pinned_ppe());
    assert_eq!(out.result, pinned.result);
}

#[test]
fn deterministic_replay() {
    let body = vec![
        Stmt::Let("acc".into(), i32c(1)),
        for_range(
            "i",
            i32c(0),
            i32c(5_000),
            vec![Stmt::Assign(
                "acc".into(),
                bxor(mul(local("acc"), i32c(31)), local("i")),
            )],
        ),
        Stmt::Return(Some(local("acc"))),
    ];
    let program = main_program(Some(Ty::Int), body);
    let a = run_program(program.clone(), VmConfig::pinned_spe(2));
    let b = run_program(program, VmConfig::pinned_spe(2));
    assert_eq!(a.result, b.result);
    assert_eq!(a.stats.wall_cycles, b.stats.wall_cycles);
    assert_eq!(a.stats.data_cache, b.stats.data_cache);
}

#[test]
fn verification_failure_is_reported_at_construction() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    pb.add_static_method(
        c,
        "main",
        vec![],
        Some(Ty::Int),
        0,
        hera_isa::MethodBody::Bytecode(vec![hera_isa::Instr::Return]), // wrong: non-void
    );
    let program = pb.finish_with_entry("Main", "main").unwrap();
    assert!(matches!(
        HeraJvm::new(program, VmConfig::default()),
        Err(hera_core::VmError::Verify(_))
    ));
}

// ---------------------------------------------------------------------
// Differential golden test for the slot-based execution engine.
//
// The untagged-frame rewrite must be *invisible* in virtual time: same
// results, same traps (none), same migration counts, same per-core
// cycle totals, on every workload × core configuration. These
// fingerprints were captured from the tagged `Value`-frame engine it
// replaced; regenerate them only from a known-good engine with
// `cargo run --release -p hera-bench --example golden_capture`.

#[test]
fn slot_engine_matches_tagged_engine_goldens() {
    use hera_bench::{ppe_config, run_workload, spe_config, DEFAULT_SCALE};

    type Golden = (&'static str, &'static str, u32, i32, u64, &'static [u64]);
    const GOLDEN: &[Golden] = &[
        // (workload, config, threads, result, migrations, per_core_cycles)
        (
            "compress",
            "ppe",
            1,
            590799304,
            0,
            &[51218448, 0, 0, 0, 0, 0, 0],
        ),
        ("compress", "spe1", 1, 590799304, 0, &[18672, 104157613]),
        (
            "compress",
            "spe6",
            6,
            1085071945,
            0,
            &[
                21526636, 21694664, 21498146, 21196598, 21462498, 21328984, 21283606,
            ],
        ),
        (
            "mpegaudio",
            "ppe",
            1,
            -2145204504,
            0,
            &[52467546, 0, 0, 0, 0, 0, 0],
        ),
        ("mpegaudio", "spe1", 1, -2145204504, 0, &[537743, 63664857]),
        (
            "mpegaudio",
            "spe6",
            6,
            -984574879,
            0,
            &[
                11237821, 11238908, 11229337, 11104007, 11034988, 11041190, 11047094,
            ],
        ),
        (
            "mandelbrot",
            "ppe",
            1,
            477948,
            0,
            &[75873340, 0, 0, 0, 0, 0, 0],
        ),
        ("mandelbrot", "spe1", 1, 477948, 0, &[18362, 49489220]),
        (
            "mandelbrot",
            "spe6",
            6,
            477948,
            0,
            &[
                8441221, 8442299, 8432587, 8258264, 8266429, 8211451, 8280260,
            ],
        ),
    ];

    for &(name, cfg_name, threads, result, migrations, cycles) in GOLDEN {
        let w = hera_workloads::Workload::ALL
            .iter()
            .copied()
            .find(|w| w.name() == name)
            .expect("golden names a workload");
        let cfg = match cfg_name {
            "ppe" => ppe_config(),
            "spe1" => spe_config(1),
            "spe6" => spe_config(6),
            other => panic!("unknown config {other}"),
        };
        // `run_workload` already asserts a clean (trap-free) run and the
        // host-computed checksum; the golden pins the numeric result too.
        let out = run_workload(w, threads, DEFAULT_SCALE, cfg);
        assert_eq!(
            out.result,
            Some(Value::I32(result)),
            "{name}/{cfg_name}: result drifted"
        );
        assert_eq!(
            out.stats.migrations, migrations,
            "{name}/{cfg_name}: migration count drifted"
        );
        assert_eq!(
            out.stats.per_core_cycles, cycles,
            "{name}/{cfg_name}: per-core virtual cycles drifted"
        );
    }
}

/// Profiling observes the charge stream; it must never join it. A
/// profiled run has to hit the committed per-core goldens above
/// cycle-for-cycle, and the event trace must be byte-identical with
/// and without the profiler attached.
#[test]
fn profiling_leaves_virtual_time_and_traces_bit_identical() {
    use hera_bench::{profile_workload, spe_config, trace_workload, DEFAULT_SCALE};

    let (out, _) = profile_workload(
        hera_workloads::Workload::Compress,
        6,
        DEFAULT_SCALE,
        spe_config(6),
    );
    assert_eq!(out.result, Some(Value::I32(1085071945)));
    assert_eq!(
        out.stats.per_core_cycles,
        vec![21526636, 21694664, 21498146, 21196598, 21462498, 21328984, 21283606],
        "profiling perturbed virtual time"
    );
    assert!(out.profile.is_some(), "profile missing from a profiled run");

    // Trace comparison at reduced scale: same events, same timestamps.
    let w = hera_workloads::Workload::Mandelbrot;
    let (plain, _) = trace_workload(w, 6, 0.2, spe_config(6));
    let (profiled, _) = profile_workload(w, 6, 0.2, spe_config(6).with_tracing());
    assert!(plain.trace.event_count() > 0);
    assert_eq!(
        plain.trace, profiled.trace,
        "profiling changed the emitted event trace"
    );
}

/// An installed-but-inert fault plan (seeded, zero rates, no scheduled
/// deaths) must leave virtual time bit-identical to the committed
/// goldens above: the injection hooks are provably free when quiet.
#[test]
fn inert_fault_plan_matches_committed_goldens() {
    use hera_bench::{run_workload, spe_config, DEFAULT_SCALE};

    let cfg = spe_config(6).with_faults(hera_cell::FaultPlan::seeded(0xFEED_FACE));
    let out = run_workload(hera_workloads::Workload::Compress, 6, DEFAULT_SCALE, cfg);
    assert_eq!(out.result, Some(Value::I32(1085071945)));
    assert_eq!(
        out.stats.per_core_cycles,
        vec![21526636, 21694664, 21498146, 21196598, 21462498, 21328984, 21283606],
        "a quiet fault plan perturbed virtual time"
    );
    assert!(!out.stats.faults.any());
}

// ---------------------------------------------------------------------
// Differential restore grid for hera-snap.
//
// Resuming from a checkpoint must be *invisible*: the restored run's
// trace suffix, per-core cycle counts, RunStats, result, output, and
// final heap image must all be bit-identical to the same stretch of the
// uninterrupted run — for every workload, every core configuration, and
// with an actively-firing fault plan.

/// Scale for the restore grid: large enough for several checkpoints,
/// small enough to keep the 18-cell grid affordable.
const RESTORE_SCALE: f64 = 0.2;

/// Run one grid cell: probe for the wall clock, re-run traced with
/// checkpoints at ~1/3 intervals, then restore from *every* checkpoint
/// and require bit-identity with the uninterrupted run's suffix.
fn check_restore_cell(
    w: hera_workloads::Workload,
    label: &str,
    threads: u32,
    cfg: VmConfig,
    plan: Option<hera_cell::FaultPlan>,
) {
    use hera_trace::{TimedEvent, TraceEvent};

    let apply = |c: VmConfig| match plan {
        Some(p) => c.with_faults(p),
        None => c,
    };
    let (program, expected) = w.build(threads, RESTORE_SCALE);

    // Probe: wall clock of the (possibly faulted) run, unobserved.
    let probe = HeraJvm::new(program.clone(), apply(cfg))
        .expect("probe constructs")
        .run()
        .expect("probe runs");
    assert_eq!(
        probe.result,
        Some(Value::I32(expected)),
        "{label}: probe checksum"
    );
    let every = (probe.stats.wall_cycles / 3).max(10_000);

    let vm = HeraJvm::new(
        program,
        apply(cfg).with_tracing().with_checkpoint_every(every),
    )
    .expect("constructs");
    let full = vm.run().expect("runs");
    assert_eq!(full.result, Some(Value::I32(expected)), "{label}: checksum");
    assert!(
        !full.checkpoints.is_empty(),
        "{label}: no checkpoints taken"
    );

    for (k, blob) in full.checkpoints.iter().enumerate() {
        let tag = format!("{label} seq {}", blob.seq);
        let restored = vm
            .restore_bytes(&blob.bytes)
            .unwrap_or_else(|e| panic!("{tag}: restore failed: {e}"));

        assert_eq!(full.result, restored.result, "{tag}: result diverged");
        assert_eq!(full.traps, restored.traps, "{tag}: traps diverged");
        assert_eq!(full.output, restored.output, "{tag}: output diverged");
        assert_eq!(
            full.heap_digest, restored.heap_digest,
            "{tag}: final heap image diverged"
        );
        assert_eq!(
            full.stats.per_core_cycles, restored.stats.per_core_cycles,
            "{tag}: per-core cycle counts diverged"
        );
        assert_eq!(full.stats, restored.stats, "{tag}: RunStats diverged");
        assert_eq!(
            full.trace.metrics, restored.trace.metrics,
            "{tag}: final metrics diverged"
        );

        // Trace suffix equality, lane by lane. The restored run emits
        // one extra `Restore` marker at the head of the PPE lane.
        for (i, (fl, rl)) in full
            .trace
            .lanes()
            .iter()
            .zip(restored.trace.lanes())
            .enumerate()
        {
            let r_events: &[TimedEvent] = if i == 0 {
                assert!(
                    matches!(
                        rl.events.first(),
                        Some(TimedEvent {
                            event: TraceEvent::Restore { .. },
                            ..
                        })
                    ),
                    "{tag}: PPE lane must lead with the Restore marker"
                );
                &rl.events[1..]
            } else {
                &rl.events
            };
            assert!(
                r_events.len() <= fl.events.len(),
                "{tag} lane {i}: restored run emitted extra events"
            );
            let tail = &fl.events[fl.events.len() - r_events.len()..];
            assert_eq!(
                r_events, tail,
                "{tag} lane {i}: trace suffix not byte-identical"
            );
        }

        // Every later checkpoint must be re-taken byte-identically.
        assert_eq!(
            restored.checkpoints.len(),
            full.checkpoints.len() - 1 - k,
            "{tag}: resumed run re-took a different number of checkpoints"
        );
        for (f, r) in full.checkpoints[k + 1..].iter().zip(&restored.checkpoints) {
            assert_eq!(
                f.bytes, r.bytes,
                "{tag}: later checkpoint {} not byte-identical",
                f.seq
            );
        }
    }
}

#[test]
fn restore_is_bit_identical_for_every_workload_and_core_config() {
    use hera_bench::{ppe_config, spe_config};
    for w in hera_workloads::Workload::ALL {
        for (name, threads, cfg) in [
            ("ppe", 1, ppe_config()),
            ("spe1", 1, spe_config(1)),
            ("spe6", 6, spe_config(6)),
        ] {
            check_restore_cell(w, &format!("{}/{name}", w.name()), threads, cfg, None);
        }
    }
}

/// The same grid with a hot fault plan: MFC transfer faults, proxy and
/// migration watchdog timeouts, and (on 6 SPEs) a scheduled core death
/// placed mid-run so some checkpoints precede it and some follow it.
/// The injector's per-site counter streams are part of the snapshot, so
/// a restored run must replay the *same* faults at the same points.
#[test]
fn restore_is_bit_identical_under_active_fault_plans() {
    use hera_bench::{ppe_config, spe_config};
    let base_plan = hera_cell::FaultPlan::seeded(0xFEED_FACE)
        .with_mfc_faults(400, 250, 150)
        .expect("valid fault rates")
        .with_proxy_faults(500)
        .with_migration_faults(500);
    for w in hera_workloads::Workload::ALL {
        for (name, threads, cfg) in [
            ("ppe", 1, ppe_config()),
            ("spe1", 1, spe_config(1)),
            ("spe6", 6, spe_config(6)),
        ] {
            let plan = if name == "spe6" {
                // Kill SPE 2 roughly mid-run (clock from a quick probe
                // of the death-free faulted run).
                let (program, _) = w.build(threads, RESTORE_SCALE);
                let wall = HeraJvm::new(program, cfg.with_faults(base_plan))
                    .expect("constructs")
                    .run()
                    .expect("runs")
                    .stats
                    .wall_cycles;
                base_plan.with_spe_death(2, wall / 2)
            } else {
                base_plan
            };
            check_restore_cell(
                w,
                &format!("{}/{name}+faults", w.name()),
                threads,
                cfg,
                Some(plan),
            );
        }
    }
}

/// Profiling across a restore: the shadow stacks are part of the
/// snapshot, so a resumed profiled run must produce the exact profile
/// of the uninterrupted run.
#[test]
fn restore_preserves_profiles_bit_identically() {
    use hera_bench::spe_config;
    let w = hera_workloads::Workload::Compress;
    let (program, expected) = w.build(6, RESTORE_SCALE);
    let probe = HeraJvm::new(program.clone(), spe_config(6))
        .expect("constructs")
        .run()
        .expect("runs");
    let every = (probe.stats.wall_cycles / 2).max(10_000);
    let vm = HeraJvm::new(
        program,
        spe_config(6).with_profiling().with_checkpoint_every(every),
    )
    .expect("constructs");
    let full = vm.run().expect("runs");
    assert_eq!(full.result, Some(Value::I32(expected)));
    let full_prof = full.profile.as_ref().expect("profiled run");
    assert!(!full.checkpoints.is_empty());
    let resolve = |m: u32| format!("m{m}");
    for blob in &full.checkpoints {
        let restored = vm.restore_bytes(&blob.bytes).expect("restore succeeds");
        let prof = restored.profile.as_ref().expect("profile survives restore");
        assert_eq!(
            full_prof.collapsed(&resolve),
            prof.collapsed(&resolve),
            "seq {}: collapsed profile diverged across restore",
            blob.seq
        );
        assert_eq!(
            full.stats, restored.stats,
            "seq {}: RunStats diverged",
            blob.seq
        );
    }
}

// ---------------------------------------------------------------------
// Pinned final-heap digests.
//
// Every other `heap_digest` check compares two runs of the same build,
// so a digest that changed self-consistently would pass them all. These
// values were captured before the heap digest stopped reading the
// never-written tail of the heap (ISSUE 19) and pin its *value* across
// commits: kernels on both core kinds, on the 32 MB default heap and on
// a heap whose size is not a multiple of the digest's 8-byte lane, a
// lock-heavy run, a heap with stale bytes in freed spans, and runs
// resumed from a checkpoint (same shape and cross-shape).

/// A heap size that is not a multiple of 8.
const ODD_HEAP_BYTES: u32 = (3 << 20) + 5;

#[test]
fn heap_digests_match_pinned_values() {
    use hera_workloads::Workload;

    let mut got: Vec<(String, u64)> = Vec::new();
    for w in Workload::ALL {
        for (core, threads, base) in [
            ("ppe", 1, VmConfig::pinned_ppe()),
            ("spe6", 6, VmConfig::pinned_spe(6)),
        ] {
            for (heap, bytes) in [("h32m", 32 << 20), ("hodd", ODD_HEAP_BYTES)] {
                let (program, expected) = w.build(threads, 0.1);
                let mut cfg = base;
                cfg.heap.size_bytes = bytes;
                let out = run_program(program, cfg);
                assert_eq!(out.result, Some(Value::I32(expected)), "{}", w.name());
                got.push((format!("{}/{core}/{heap}", w.name()), out.heap_digest));
            }
        }
    }

    let (program, expected) = hera_bench::sync_program(6, 500);
    let out = run_program(program, VmConfig::pinned_spe(6));
    assert_eq!(out.result, Some(Value::I32(expected)));
    got.push(("sync6x500".into(), out.heap_digest));

    let out = hera_integration::gc_pressure_vm().run().expect("runs");
    assert!(out.stats.gc.collections > 0, "GC never ran");
    got.push(("gc-pressure".into(), out.heap_digest));

    // A checkpoint in the middle of compress on 6 SPEs, resumed on the
    // same shape and adopted by a 2-SPE machine (whose drained threads
    // legitimately end with a different heap image).
    let (program, expected) = Workload::Compress.build(6, 0.1);
    let mut six = VmConfig::pinned_spe(6);
    six.heap.size_bytes = 2 << 20;
    let mut two = VmConfig::pinned_spe(2);
    two.heap.size_bytes = 2 << 20;
    let wall = run_program(program.clone(), six).stats.wall_cycles;
    let every = wall / 2;
    let source = HeraJvm::new(program.clone(), six.with_checkpoint_every(every)).expect("builds");
    let full = source.run().expect("checkpointed run");
    let mid = &full.checkpoints.first().expect("one checkpoint").bytes;
    let restored = source.restore_bytes(mid).expect("restores");
    assert_eq!(restored.result, Some(Value::I32(expected)));
    assert_eq!(restored.heap_digest, full.heap_digest);
    got.push(("compress/restore".into(), restored.heap_digest));
    let adopted = HeraJvm::new(program, two.with_checkpoint_every(every))
        .expect("builds")
        .adopt_bytes(mid)
        .expect("adopts");
    assert_eq!(adopted.result, Some(Value::I32(expected)));
    assert!(adopted.is_clean(), "traps: {:?}", adopted.traps);
    got.push(("compress/adopt-6to2".into(), adopted.heap_digest));

    const PINNED: &[(&str, u64)] = &[
        ("compress/ppe/h32m", 0x928a_59a4_7314_467b),
        ("compress/ppe/hodd", 0x290e_ce13_064c_d62e),
        ("compress/spe6/h32m", 0xb0a4_301d_79af_cb75),
        ("compress/spe6/hodd", 0xcfa7_882a_94c0_5bb0),
        ("mpegaudio/ppe/h32m", 0x9d63_eff5_d740_44ef),
        ("mpegaudio/ppe/hodd", 0x87a8_599c_15a5_2102),
        ("mpegaudio/spe6/h32m", 0x8877_1dbe_ec67_7f0a),
        ("mpegaudio/spe6/hodd", 0xfab7_5586_bf52_170b),
        ("mandelbrot/ppe/h32m", 0x1796_459f_8b68_fc75),
        ("mandelbrot/ppe/hodd", 0xe8b3_3d49_88a7_f5e8),
        ("mandelbrot/spe6/h32m", 0x5b2a_99f3_ef1d_009a),
        ("mandelbrot/spe6/hodd", 0xc6a8_6ff4_215e_7c13),
        ("sync6x500", 0x18ef_1a22_4752_f178),
        ("gc-pressure", 0xdee3_06cf_1ff1_207b),
        ("compress/restore", 0x55a1_9a39_b9df_cb75),
        ("compress/adopt-6to2", 0x4b88_6976_6ce2_93f9),
    ];
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(
        got, pinned,
        "final heap digests changed (actual: {got:#018x?})"
    );
}

/// The written-mark a restore derives must cover objects that were
/// allocated but still all zero at the checkpoint: they lie above the
/// image's last non-zero byte and are stored into afterwards. (Deriving
/// the mark from the image content alone loses those stores: debug
/// builds trip the heap's store-past-the-mark assertion, release builds
/// end with a digest that misses them.)
#[test]
fn restore_keeps_zero_objects_inside_the_written_mark() {
    let body = vec![
        Stmt::Let("small".into(), new_array(ElemTy::Int, i32c(16))),
        Stmt::SetIndex(local("small"), i32c(3), i32c(99)),
        // Allocated last, 200 KB, untouched until after the checkpoints.
        Stmt::Let("big".into(), new_array(ElemTy::Int, i32c(50_000))),
        Stmt::Let("acc".into(), i32c(1)),
        for_range(
            "i",
            i32c(0),
            i32c(20_000),
            vec![Stmt::Assign(
                "acc".into(),
                bxor(mul(local("acc"), i32c(31)), local("i")),
            )],
        ),
        Stmt::SetIndex(local("big"), i32c(49_999), local("acc")),
        Stmt::SetIndex(local("big"), i32c(25_000), i32c(7)),
        Stmt::Return(Some(add(
            index(local("big"), i32c(49_999)),
            index(local("small"), i32c(3)),
        ))),
    ];
    for base in [VmConfig::pinned_ppe(), VmConfig::pinned_spe(1)] {
        let mut cfg = base;
        cfg.heap.size_bytes = 1 << 20;
        let program = main_program(Some(Ty::Int), body.clone());
        let plain = run_program(program.clone(), cfg);
        assert!(plain.is_clean(), "traps: {:?}", plain.traps);
        let every = plain.stats.wall_cycles / 4;
        let vm = HeraJvm::new(program, cfg.with_checkpoint_every(every)).expect("constructs");
        let full = vm.run().expect("runs");
        assert_eq!(full.heap_digest, plain.heap_digest);
        assert!(full.checkpoints.len() >= 2, "too few checkpoints");
        for blob in &full.checkpoints {
            let restored = vm.restore_bytes(&blob.bytes).expect("restores");
            assert_eq!(restored.result, plain.result, "seq {}", blob.seq);
            assert_eq!(restored.heap_digest, plain.heap_digest, "seq {}", blob.seq);
            assert_eq!(
                restored.heap_written, plain.heap_written,
                "seq {}",
                blob.seq
            );
        }
    }
}

/// The point of the written-mark, as a deterministic number: a kernel
/// that allocates a few hundred KB leaves the rest of the 32 MB default
/// heap unread by the final digest and by every checkpoint.
#[test]
fn written_mark_stays_near_what_the_guest_allocated() {
    let (program, expected) = hera_workloads::Workload::Mandelbrot.build(6, 0.1);
    let out = run_program(program, VmConfig::pinned_spe(6));
    assert_eq!(out.result, Some(Value::I32(expected)));
    assert!(
        out.heap_written < 1 << 20,
        "written-mark at {} bytes of a 32 MB heap",
        out.heap_written
    );
}

// ---------------------------------------------------------------------
// Pinned cycle breakdowns.
//
// The goldens above pin per-core cycle *totals*. These pin how the
// totals split over the six operation classes, the per-class op counts
// (what a host `work_per_s` is computed from) and the PPE hardware-cache
// counters — captured before the hot tier began charging whole runs of
// ops at once (ISSUE 20) — including two straggler runs whose slowdown
// begins on an odd cycle in the middle of a block.

/// `(label, result, wall_cycles, ppe (cycles, ops), spe (cycles, ops),
/// PPE cache [accesses, l1_hits, l2_hits, memory_accesses])`.
type BreakdownPin<L> = (
    L,
    i32,
    u64,
    ([u64; 6], [u64; 6]),
    ([u64; 6], [u64; 6]),
    [u64; 4],
);

#[test]
fn cycle_breakdowns_match_pinned_values() {
    use hera_cell::FaultPlan;
    use hera_workloads::Workload;

    let mut got: Vec<BreakdownPin<String>> = Vec::new();
    let mut run = |label: String, program: hera_isa::Program, expected: i32, cfg: VmConfig| {
        let out = run_program(program, cfg);
        assert!(out.is_clean(), "{label}: traps: {:?}", out.traps);
        assert_eq!(out.result, Some(Value::I32(expected)), "{label}");
        let (pc, po) = out.stats.ppe.to_raw();
        let (sc, so) = out.stats.spe.to_raw();
        let hw = out.stats.ppe_cache;
        got.push((
            label,
            expected,
            out.stats.wall_cycles,
            (pc, po),
            (sc, so),
            [hw.accesses, hw.l1_hits, hw.l2_hits, hw.memory_accesses],
        ));
    };

    for w in Workload::ALL {
        for (core, threads, cfg) in [
            ("ppe", 1, VmConfig::pinned_ppe()),
            ("spe1", 1, VmConfig::pinned_spe(1)),
            ("spe6", 6, VmConfig::pinned_spe(6)),
        ] {
            let (program, expected) = w.build(threads, 0.1);
            run(format!("{}/{core}", w.name()), program, expected, cfg);
        }
    }
    let (program, expected) = hera_bench::sync_program(6, 500);
    run(
        "sync6x500".into(),
        program,
        expected,
        VmConfig::pinned_spe(6),
    );
    let (program, expected) = hera_bench::mixed_program(0.1, true);
    let annot = VmConfig {
        policy: PlacementPolicy::Annotation,
        ..VmConfig::default()
    };
    run("mixed-annot".into(), program, expected, annot);

    // Stragglers: a 3x slowdown whose onset is an odd cycle about a third
    // of the way into the unslowed run, so it lands inside a block.
    for (core, threads, cfg, from) in [
        ("ppe", 1, VmConfig::pinned_ppe(), STRAGGLER_FROM_PPE),
        ("spe6", 6, VmConfig::pinned_spe(6), STRAGGLER_FROM_SPE6),
    ] {
        let (program, expected) = Workload::Compress.build(threads, 0.1);
        let plan = FaultPlan::default().with_slowdown(3, from).expect("valid");
        run(
            format!("compress/{core}/slow3@{from}"),
            program,
            expected,
            cfg.with_faults(plan),
        );
    }

    let pinned: Vec<BreakdownPin<String>> = BREAKDOWN_PINS
        .iter()
        .map(|&(l, r, w, ppe, spe, hw)| (l.to_string(), r, w, ppe, spe, hw))
        .collect();
    assert_eq!(got, pinned, "cycle breakdowns changed (actual: {got:?})");
}

/// Onset cycles for the straggler pins: odd, and about a third of
/// compress's unslowed wall clock on that configuration at scale 0.1.
const STRAGGLER_FROM_PPE: u64 = 1_969_421;
const STRAGGLER_FROM_SPE6: u64 = 809_875;

const BREAKDOWN_PINS: &[BreakdownPin<&str>] = &[
    (
        "compress/ppe",
        -777337679,
        5908264,
        (
            [0, 1111630, 570721, 2518474, 812154, 895285],
            [0, 474150, 362111, 1258831, 406077, 14826],
        ),
        ([0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]),
        [420891, 406077, 13182, 1632],
    ),
    (
        "compress/spe1",
        -777337679,
        12053635,
        ([0, 0, 0, 0, 0, 5500], [0, 0, 0, 0, 0, 0]),
        (
            [0, 1608442, 1613771, 3490831, 2820232, 2520359],
            [0, 684592, 362111, 1258831, 428287, 11633],
        ),
        [0, 0, 0, 0],
    ),
    (
        "compress/spe6",
        -2144493000,
        2429623,
        ([0, 0, 0, 0, 0, 33000], [0, 0, 0, 0, 0, 0]),
        (
            [0, 2114941, 2277088, 4615026, 3595882, 1332686],
            [0, 934388, 527656, 1687443, 587588, 3941],
        ),
        [0, 0, 0, 0],
    ),
    (
        "mpegaudio/ppe",
        1810764046,
        6073014,
        (
            [2042600, 1341832, 37140, 1837304, 773068, 41070],
            [204260, 371032, 23357, 854148, 386534, 125],
        ),
        ([0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]),
        [386650, 386534, 0, 116],
    ),
    (
        "mpegaudio/spe1",
        1810764046,
        7126881,
        ([0, 0, 0, 0, 0, 5500], [0, 0, 0, 0, 0, 0]),
        (
            [408520, 1727250, 106055, 2437858, 2420722, 26476],
            [204260, 562588, 23357, 854148, 408065, 83],
        ),
        [0, 0, 0, 0],
    ),
    (
        "mpegaudio/spe6",
        -1948282595,
        1815396,
        ([0, 0, 0, 0, 0, 33000], [0, 0, 0, 0, 0, 0]),
        (
            [408520, 1727500, 106170, 2438643, 2426172, 131399],
            [204260, 562688, 23382, 854368, 408265, 321],
        ),
        [0, 0, 0, 0],
    ),
    (
        "mandelbrot/ppe",
        46151,
        7363781,
        (
            [4734344, 263504, 200483, 2123230, 10752, 31468],
            [473430, 110798, 148837, 1012681, 5376, 90],
        ),
        ([0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]),
        [5461, 5376, 0, 85],
    ),
    (
        "mandelbrot/spe1",
        46151,
        4820458,
        ([0, 0, 0, 0, 0, 5500], [0, 0, 0, 0, 0, 0]),
        (
            [946882, 268865, 458713, 3022366, 109020, 14612],
            [473430, 113502, 148837, 1012681, 21680, 41],
        ),
        [0, 0, 0, 0],
    ),
    (
        "mandelbrot/spe6",
        46151,
        867247,
        ([0, 0, 0, 0, 0, 33000], [0, 0, 0, 0, 0, 0]),
        (
            [947032, 269075, 458828, 3023166, 112300, 75683],
            [473450, 113602, 148862, 1012906, 21830, 201],
        ),
        [0, 0, 0, 0],
    ),
    (
        "sync6x500",
        3000,
        2058928,
        ([0, 0, 0, 0, 0, 33000], [0, 0, 0, 0, 0, 0]),
        (
            [0, 34178, 24152, 77425, 157012, 2260019],
            [0, 12051, 6032, 27140, 9069, 14815],
        ),
        [0, 0, 0, 0],
    ),
    (
        "mixed-annot",
        524614228,
        4198902,
        (
            [10, 887838, 241330, 1325880, 250914, 1200874],
            [1, 257576, 160875, 659950, 125457, 35377],
        ),
        (
            [48000, 19540, 64028, 149020, 40, 1828],
            [24000, 8001, 16004, 56032, 8, 12],
        ),
        [160833, 125457, 34863, 513],
    ),
    (
        "compress/ppe/slow3@1969421",
        -777337679,
        13785846,
        (
            [0, 2430370, 1375187, 6029782, 1988850, 1961657],
            [0, 474150, 362111, 1258831, 406077, 14826],
        ),
        ([0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]),
        [420891, 406077, 13182, 1632],
    ),
    (
        "compress/spe6/slow3@809875",
        -2144493000,
        5452031,
        ([0, 0, 0, 0, 0, 38000], [0, 0, 0, 0, 0, 0]),
        (
            [0, 4497611, 5203886, 10780234, 8169694, 2693409],
            [0, 934388, 527656, 1687445, 587589, 3943],
        ),
        [0, 0, 0, 0],
    ),
];

/// `(label, wall_cycles, ppe (cycles, ops), spe (cycles, ops),
/// thread switches, digest64 of every checkpoint)`.
type ShortQuantumPin<L, D> = (L, u64, ([u64; 6], [u64; 6]), ([u64; 6], [u64; 6]), u64, D);

/// A 7-op quantum ends in the middle of every multi-op idiom the kernels
/// retire (the default 4096 almost never does), so where quanta end —
/// thread switches, the safepoints checkpoints are taken at, every
/// checkpoint's bytes — is pinned here at a budget that cuts them.
/// Captured on the 1:1 engine (ISSUE 23's first commit).
#[test]
fn short_quantum_runs_match_pinned_values() {
    use hera_workloads::Workload;

    let mut got: Vec<ShortQuantumPin<String, Vec<u64>>> = Vec::new();
    for w in [Workload::Compress, Workload::Mandelbrot] {
        for (core, threads, cfg) in [
            ("ppe", 1, VmConfig::pinned_ppe()),
            ("spe6", 6, VmConfig::pinned_spe(6)),
        ] {
            let label = format!("{}/{core}/q7", w.name());
            let (program, expected) = w.build(threads, 0.05);
            let cfg = VmConfig {
                quantum_ops: 7,
                ..cfg
            };
            let wall = run_program(program.clone(), cfg).stats.wall_cycles;
            let out = run_program(program, cfg.with_checkpoint_every((wall / 4).max(1)));
            assert!(out.is_clean(), "{label}: traps: {:?}", out.traps);
            assert_eq!(out.result, Some(Value::I32(expected)), "{label}");
            got.push((
                label,
                out.stats.wall_cycles,
                out.stats.ppe.to_raw(),
                out.stats.spe.to_raw(),
                out.stats.thread_switches,
                out.checkpoints
                    .iter()
                    .map(|c| hera_snap::digest64(&c.bytes))
                    .collect(),
            ));
        }
    }
    let pinned: Vec<ShortQuantumPin<String, Vec<u64>>> = SHORT_QUANTUM_PINS
        .iter()
        .map(|&(l, w, ppe, spe, sw, d)| (l.to_string(), w, ppe, spe, sw, d.to_vec()))
        .collect();
    assert_eq!(
        got, pinned,
        "short-quantum runs changed (actual: {got:#x?})"
    );
}

const SHORT_QUANTUM_PINS: &[ShortQuantumPin<&str, &[u64]>] = &[
    (
        "compress/ppe/q7",
        3341292,
        (
            [0, 620358, 309311, 1347760, 441278, 622585],
            [0, 254102, 197267, 672580, 220639, 6934],
        ),
        ([0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]),
        8,
        &[
            0xa76b_0c1c_d6ec_de04,
            0x689c_3579_de94_fb75,
            0x60f8_233e_a2c1_338d,
            0xbc09_1e01_dab9_1939,
        ],
    ),
    (
        "compress/spe6/q7",
        1573482,
        ([0, 0, 0, 0, 0, 173032], [0, 0, 0, 0, 0, 0]),
        (
            [0, 1397055, 1544885, 2989195, 2379306, 530103],
            [0, 617399, 364175, 1100968, 392243, 1542],
        ),
        36,
        &[
            0xf415_1b29_f852_7589,
            0xeb0d_7bfa_b863_704c,
            0xe2dd_edff_ed51_fba6,
            0x4d16_cb8f_b0ef_9ac7,
        ],
    ),
    (
        "mandelbrot/ppe/q7",
        3764247,
        (
            [2403884, 146000, 101732, 1078168, 5386, 29077],
            [240384, 56127, 75529, 513664, 2693, 48],
        ),
        ([0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]),
        8,
        &[
            0x73c8_e4b9_760b_da63,
            0x61f3_dc22_e104_6f48,
            0x6005_a385_1677_4f03,
            0x9b1b_4b05_78f1_41d4,
        ],
    ),
    (
        "mandelbrot/spe6/q7",
        480828,
        ([0, 0, 0, 0, 0, 43874], [0, 0, 0, 0, 0, 0]),
        (
            [480940, 148872, 232862, 1541121, 57222, 69293],
            [240404, 57575, 75554, 513909, 10950, 161],
        ),
        28,
        &[
            0x118b_1c5e_cb86_b0c4,
            0x7e7f_b498_87c0_2059,
            0x3d39_db45_0953_dcfb,
            0x7e6c_78e5_d56e_f208,
        ],
    ),
];

/// The adaptive policy decides at every invoke from the thread's
/// behaviour window (`total_ops`, `fp_ops`, `mem_ops`): the unannotated
/// mixed program's wall clock and migration count move if any of the
/// three is counted differently. Captured on the 1:1 engine (ISSUE 23's
/// first commit).
#[test]
fn adaptive_mixed_run_matches_pinned_values() {
    let (program, expected) = hera_bench::mixed_program(0.05, false);
    let cfg = VmConfig {
        policy: PlacementPolicy::adaptive(),
        ..VmConfig::default()
    };
    let out = run_program(program, cfg);
    assert!(out.is_clean(), "traps: {:?}", out.traps);
    assert_eq!(out.result, Some(Value::I32(expected)));
    assert_eq!(
        (out.stats.wall_cycles, out.stats.migrations),
        (2_779_309, 1),
        "adaptive mixed run changed"
    );
}

//! The correctness anchor: every benchmark's guest checksum must equal
//! the host reference bit-for-bit, on every core kind and thread count.

#![forbid(unsafe_code)]

use hera_core::snapshot::program_digest;
use hera_core::VmConfig;
use hera_frontend::*;
use hera_integration::run_program;
use hera_isa::{Program, ProgramBuilder, Ty, Value};
use hera_workloads::{kernels, Workload};

fn check(w: Workload, threads: u32, scale: f64, cfg: VmConfig) {
    let (program, expected) = w.build(threads, scale);
    let out = run_program(program, cfg);
    assert!(out.is_clean(), "{}: traps {:?}", w.name(), out.traps);
    assert_eq!(
        out.result,
        Some(Value::I32(expected)),
        "{} (threads={threads}, scale={scale}) checksum mismatch",
        w.name()
    );
}

#[test]
fn mandelbrot_matches_reference_on_ppe() {
    check(Workload::Mandelbrot, 2, 0.2, VmConfig::pinned_ppe());
}

#[test]
fn mandelbrot_matches_reference_on_spes() {
    check(Workload::Mandelbrot, 4, 0.2, VmConfig::pinned_spe(4));
}

#[test]
fn compress_matches_reference_on_ppe() {
    check(Workload::Compress, 2, 0.2, VmConfig::pinned_ppe());
}

#[test]
fn compress_matches_reference_on_spes() {
    check(Workload::Compress, 3, 0.2, VmConfig::pinned_spe(3));
}

#[test]
fn mpegaudio_matches_reference_on_ppe() {
    check(Workload::MpegAudio, 2, 0.2, VmConfig::pinned_ppe());
}

#[test]
fn mpegaudio_matches_reference_on_spes() {
    check(Workload::MpegAudio, 3, 0.2, VmConfig::pinned_spe(3));
}

#[test]
fn single_threaded_variants_match_too() {
    for w in Workload::ALL {
        check(w, 1, 0.1, VmConfig::pinned_ppe());
        check(w, 1, 0.1, VmConfig::pinned_spe(1));
    }
}

#[test]
fn results_are_identical_across_core_kinds() {
    // Transparency: the checksum must not depend on placement at all.
    for w in Workload::ALL {
        let (p1, _) = w.build(2, 0.15);
        let a = run_program(p1, VmConfig::pinned_ppe());
        let (p2, _) = w.build(2, 0.15);
        let b = run_program(p2, VmConfig::pinned_spe(2));
        assert_eq!(a.result, b.result, "{}", w.name());
    }
}

#[test]
fn kernels_match_references() {
    let out = run_program(kernels::matmul_program(10), VmConfig::pinned_spe(1));
    assert_eq!(out.result, Some(Value::I32(kernels::matmul_reference(10))));
    let out = run_program(kernels::sieve_program(2000), VmConfig::pinned_ppe());
    assert_eq!(out.result, Some(Value::I32(kernels::sieve_reference(2000))));
}

#[test]
fn workload_shapes_show_expected_cache_behaviour() {
    // compress must have a materially lower SPE data-cache hit rate than
    // mpegaudio (Figure 6's separation).
    let (cp, _) = Workload::Compress.build(1, 0.3);
    let compress = run_program(cp, VmConfig::pinned_spe(1));
    let (mp, _) = Workload::MpegAudio.build(1, 0.3);
    let mpeg = run_program(mp, VmConfig::pinned_spe(1));
    let ch = compress.stats.data_cache.hit_rate();
    let mh = mpeg.stats.data_cache.hit_rate();
    assert!(
        ch < mh,
        "compress hit rate {ch:.3} should be below mpegaudio {mh:.3}"
    );
}

/// Compares references with `==` and `!=` under `if`, `while`, `!`,
/// `&&` and `||`, and as a value; returns the program and its result.
/// No workload compares references, so this is the program that pins
/// the frontend's reference branches.
fn reference_compare_program() -> (Program, i32) {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let node = pb.add_class("Node", None);
    let next = pb.add_field(node, "next", Ty::Ref(node));
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    let (a, b, null) = (|| local("a"), || local("b"), || Expr::Null);
    let not = |e| Expr::Not(Box::new(e));
    let set = |bit| vec![Stmt::Assign("k".into(), bor(local("k"), i32c(bit)))];
    let body = vec![
        Stmt::Let("a".into(), Expr::New(node)),
        Stmt::Let("b".into(), Expr::New(node)),
        Stmt::SetField(a(), next, b()),
        Stmt::Let("k".into(), i32c(0)),
        Stmt::If(cmp_eq(a(), b()), set(1), set(2)),
        Stmt::If(cmp_ne(a(), b()), set(4), vec![]),
        Stmt::If(not(cmp_eq(a(), a())), set(8), vec![]),
        Stmt::If(
            andand(cmp_ne(a(), null()), cmp_eq(field(a(), next), b())),
            set(16),
            vec![],
        ),
        Stmt::If(oror(cmp_eq(a(), null()), cmp_ne(b(), a())), set(32), vec![]),
        Stmt::If(
            not(andand(cmp_eq(a(), b()), cmp_ne(a(), null()))),
            set(64),
            vec![],
        ),
        Stmt::If(
            not(oror(cmp_eq(a(), null()), cmp_eq(b(), null()))),
            set(128),
            vec![],
        ),
        Stmt::Assign("k".into(), add(local("k"), shl(cmp_ne(a(), b()), i32c(8)))),
        Stmt::Let("cur".into(), a()),
        Stmt::While(
            cmp_ne(local("cur"), null()),
            vec![
                Stmt::Assign("k".into(), add(local("k"), i32c(1000))),
                Stmt::Assign("cur".into(), field(local("cur"), next)),
            ],
        ),
        Stmt::Return(Some(local("k"))),
    ];
    define(&mut pb, main, vec![], body).expect("main compiles");
    let program = pb.finish_with_entry("Main", "main").expect("resolves");
    (program, 2 + 4 + 16 + 32 + 64 + 128 + 256 + 2000)
}

#[test]
fn reference_compares_branch_both_ways() {
    let (program, expected) = reference_compare_program();
    for cfg in [VmConfig::pinned_ppe(), VmConfig::pinned_spe(1)] {
        let out = run_program(program.clone(), cfg);
        assert_eq!(out.result, Some(Value::I32(expected)));
    }
}

/// `program_digest` of every program the frontend builds for a measured
/// run, so bytecode is pinned by itself and not only through the cycles
/// the engine goldens see: each workload at the (threads, scale) pairs of
/// the engine goldens and the perf gate (1.0) and of the benchmark's
/// cells (0.25), the kernels, the mixed and sync programs, and the
/// reference-compare program.
#[test]
fn frontend_programs_match_pinned_digests() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for w in Workload::ALL {
        for (threads, scale) in [(1, 1.0), (6, 1.0), (1, 0.25), (6, 0.25)] {
            let name = format!("{} t{threads} x{scale}", w.name());
            got.push((name, program_digest(&w.build(threads, scale).0)));
        }
    }
    got.push((
        "matmul 10".into(),
        program_digest(&kernels::matmul_program(10)),
    ));
    got.push((
        "sieve 2000".into(),
        program_digest(&kernels::sieve_program(2000)),
    ));
    for (scale, annotated) in [(0.25, true), (0.25, false), (0.1, true), (0.1, false)] {
        let name = format!("mixed x{scale} annotated={annotated}");
        let program = hera_bench::mixed_program(scale, annotated).0;
        got.push((name, program_digest(&program)));
    }
    for (threads, reps) in [(6, 5000), (6, 2000)] {
        let name = format!("sync t{threads} r{reps}");
        let program = hera_bench::sync_program(threads, reps).0;
        got.push((name, program_digest(&program)));
    }
    let refs = program_digest(&reference_compare_program().0);
    got.push(("reference compares".into(), refs));
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, PINNED_PROGRAM_DIGESTS);
}

const PINNED_PROGRAM_DIGESTS: &[(&str, u64)] = &[
    ("compress t1 x1", 0x457a7b360a9b579c),
    ("compress t6 x1", 0x1305f8577d9cb5d4),
    ("compress t1 x0.25", 0x1c6608d5bfb14347),
    ("compress t6 x0.25", 0x918bc51187e69027),
    ("mpegaudio t1 x1", 0xb41e54ac63d7a31c),
    ("mpegaudio t6 x1", 0x8ce45101af60a6c6),
    ("mpegaudio t1 x0.25", 0x5f5f2b647292f1c1),
    ("mpegaudio t6 x0.25", 0xd7215101af60a6c6),
    ("mandelbrot t1 x1", 0x20a33f2fb691d05b),
    ("mandelbrot t6 x1", 0x46a17cb3ef0d6f75),
    ("mandelbrot t1 x0.25", 0xf199a290e7a8fead),
    ("mandelbrot t6 x0.25", 0x9bcd0a1fa6246426),
    ("matmul 10", 0x64f98c5abf9edb8d),
    ("sieve 2000", 0x586a45f308775394),
    ("mixed x0.25 annotated=true", 0xf73f09892abd1f7c),
    ("mixed x0.25 annotated=false", 0xa6c9ca213c839c2f),
    ("mixed x0.1 annotated=true", 0x60c80db9d8807d01),
    ("mixed x0.1 annotated=false", 0x2e6cd497c4dbf79d),
    ("sync t6 r5000", 0x6ea176020e75ec09),
    ("sync t6 r2000", 0x1da176020e75ec09),
    ("reference compares", 0x834bf30e6a8d90c3),
];

//! Watch Hera-JVM's placement machinery at work: the same two-phase
//! program (an FP-heavy phase followed by a memory-heavy phase) runs
//! under four policies, showing how annotations and runtime monitoring
//! migrate the thread to whichever core type suits each phase.
//!
//! ```sh
//! cargo run --release -p hera-examples --example adaptive_migration
//! ```

#![forbid(unsafe_code)]

use hera_core::{HeraJvm, PlacementPolicy, VmConfig};
use hera_frontend::*;
use hera_isa::{Annotation, ElemTy, ProgramBuilder, Ty, Value};

/// Two-phase program; `annotated` adds the behaviour hints.
fn program(annotated: bool) -> (hera_isa::Program, i32) {
    const CHUNK: i32 = 2000;
    const FP_CHUNKS: i32 = 15;
    const MEM_N: i32 = 65_536;
    const MEM_CHUNKS: i32 = 40;

    let mut pb = ProgramBuilder::new();
    let cls = pb.add_class("TwoPhase", None);

    let fp_chunk = declare_static(
        &mut pb,
        cls,
        "fpChunk",
        vec![("x", Ty::Float)],
        Some(Ty::Float),
    );
    if annotated {
        pb.annotate(fp_chunk, Annotation::FloatIntensive);
    }
    define(
        &mut pb,
        fp_chunk,
        vec![("x", Ty::Float)],
        vec![
            for_range(
                "i",
                i32c(0),
                i32c(CHUNK),
                vec![Stmt::Assign(
                    "x".into(),
                    mul(mul(f32c(3.58), local("x")), sub(f32c(1.0), local("x"))),
                )],
            ),
            Stmt::Return(Some(local("x"))),
        ],
    )
    .expect("fpChunk compiles");

    let sum_static = pb.add_static_field(cls, "sum", Ty::Int);
    let mem_chunk = declare_static(
        &mut pb,
        cls,
        "memChunk",
        vec![("a", Ty::Array(ElemTy::Int)), ("p", Ty::Int)],
        Some(Ty::Int),
    );
    if annotated {
        pb.annotate(mem_chunk, Annotation::MemoryIntensive);
    }
    define(
        &mut pb,
        mem_chunk,
        vec![("a", Ty::Array(ElemTy::Int)), ("p", Ty::Int)],
        vec![
            Stmt::Let("s".into(), static_(sum_static)),
            for_range(
                "i",
                i32c(0),
                i32c(CHUNK),
                vec![
                    Stmt::Assign("p".into(), index(local("a"), local("p"))),
                    Stmt::Assign("s".into(), add(local("s"), local("p"))),
                ],
            ),
            Stmt::SetStatic(sum_static, local("s")),
            Stmt::Return(Some(local("p"))),
        ],
    )
    .expect("memChunk compiles");

    let main = declare_static(&mut pb, cls, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("x".into(), f32c(0.618)),
            for_range(
                "c",
                i32c(0),
                i32c(FP_CHUNKS),
                vec![Stmt::Assign("x".into(), call(fp_chunk, vec![local("x")]))],
            ),
            Stmt::Let("a".into(), new_array(ElemTy::Int, i32c(MEM_N))),
            Stmt::Let("v".into(), i32c(0)),
            for_range(
                "i",
                i32c(0),
                i32c(MEM_N),
                vec![
                    Stmt::Assign("v".into(), rem(add(local("v"), i32c(40503)), i32c(MEM_N))),
                    Stmt::SetIndex(local("a"), local("i"), local("v")),
                ],
            ),
            Stmt::Let("p".into(), i32c(0)),
            for_range(
                "c2",
                i32c(0),
                i32c(MEM_CHUNKS),
                vec![Stmt::Assign(
                    "p".into(),
                    call(mem_chunk, vec![local("a"), local("p")]),
                )],
            ),
            Stmt::Return(Some(bxor(
                cast(Ty::Int, mul(local("x"), f32c(65536.0))),
                static_(sum_static),
            ))),
        ],
    )
    .expect("main compiles");
    let program = pb.finish_with_entry("TwoPhase", "main").expect("resolves");

    // Host reference.
    let mut x = 0.618f32;
    for _ in 0..FP_CHUNKS * CHUNK {
        x = 3.58 * x * (1.0 - x);
    }
    let mut a = vec![0i32; MEM_N as usize];
    let mut v = 0i32;
    for s in a.iter_mut() {
        v = (v + 40503) % MEM_N;
        *s = v;
    }
    let (mut p, mut sum) = (0i32, 0i32);
    for _ in 0..MEM_CHUNKS * CHUNK {
        p = a[p as usize];
        sum = sum.wrapping_add(p);
    }
    (program, ((x * 65536.0) as i32) ^ sum)
}

fn main() {
    println!("two-phase workload: FP phase, then pointer-chase phase\n");
    for (name, policy, annotated) in [
        ("pinned-PPE  (no hints)", PlacementPolicy::PinnedPpe, false),
        ("pinned-SPE  (no hints)", PlacementPolicy::PinnedSpe, false),
        (
            "annotation  (@FloatIntensive / @MemoryIntensive)",
            PlacementPolicy::Annotation,
            true,
        ),
        (
            "adaptive    (runtime monitoring only)",
            PlacementPolicy::adaptive(),
            false,
        ),
    ] {
        let (prog, expected) = program(annotated);
        let cfg = VmConfig {
            policy,
            ..VmConfig::default()
        };
        let out = HeraJvm::new(prog, cfg)
            .expect("constructs")
            .run()
            .expect("runs");
        assert_eq!(out.result, Some(Value::I32(expected)), "{name}");
        println!(
            "{name:<50} {:>12} cycles, {:>3} migrations",
            out.stats.wall_cycles, out.stats.migrations
        );
    }
    println!();
    println!("The hinted and monitored runs place each phase on the core type");
    println!("that suits it; the pinned runs pay for their mismatch (paper §3, §6).");
}

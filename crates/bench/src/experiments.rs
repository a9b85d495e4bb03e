//! Experiment runners, one per paper table/figure (DESIGN.md §5).

use hera_core::{HeraJvm, PlacementPolicy, RunOutcome, VmConfig};
use hera_isa::Value;
use hera_workloads::Workload;

/// Default work scale for experiments (1.0 ≈ the sizes in
//  `hera_workloads::*::Params::scaled`).
pub const DEFAULT_SCALE: f64 = 1.0;

/// Threads per configuration follow the SPEC harness convention: one
/// worker per core in use, with the *total* work held fixed (the
/// workloads split `scale`-determined totals across their threads).
///
/// Run one workload under one configuration, asserting the checksum
/// against the host reference (every measurement is also a correctness
/// test).
pub fn run_workload(w: Workload, threads: u32, scale: f64, cfg: VmConfig) -> RunOutcome {
    let (program, expected) = w.build(threads, scale);
    let vm = HeraJvm::new(program, cfg).expect("program constructs");
    let out = vm.run().expect("run succeeds");
    assert!(out.is_clean(), "{}: traps {:?}", w.name(), out.traps);
    assert_eq!(
        out.result,
        Some(Value::I32(expected)),
        "{} checksum mismatch",
        w.name()
    );
    out
}

/// Run one workload with the hera-trace sink enabled (on top of `cfg`),
/// returning the outcome — whose `trace` field holds the per-core event
/// lanes — plus a method-id → name table for symbolising exports.
pub fn trace_workload(
    w: Workload,
    threads: u32,
    scale: f64,
    cfg: VmConfig,
) -> (RunOutcome, Vec<String>) {
    let (program, expected) = w.build(threads, scale);
    let names: Vec<String> = program.methods.iter().map(|m| m.name.clone()).collect();
    let vm = HeraJvm::new(program, cfg.with_tracing()).expect("program constructs");
    let out = vm.run().expect("run succeeds");
    assert!(out.is_clean(), "{}: traps {:?}", w.name(), out.traps);
    assert_eq!(
        out.result,
        Some(Value::I32(expected)),
        "{} checksum mismatch",
        w.name()
    );
    (out, names)
}

/// Run one workload with the hera-prof profiler enabled (on top of
/// `cfg`), returning the outcome — whose `profile` field holds the
/// cost-attributed call trie — plus a method-id → name table for
/// symbolising reports.
pub fn profile_workload(
    w: Workload,
    threads: u32,
    scale: f64,
    cfg: VmConfig,
) -> (RunOutcome, Vec<String>) {
    let (program, expected) = w.build(threads, scale);
    let names: Vec<String> = program.methods.iter().map(|m| m.name.clone()).collect();
    let vm = HeraJvm::new(program, cfg.with_profiling()).expect("program constructs");
    let out = vm.run().expect("run succeeds");
    assert!(out.is_clean(), "{}: traps {:?}", w.name(), out.traps);
    assert_eq!(
        out.result,
        Some(Value::I32(expected)),
        "{} checksum mismatch",
        w.name()
    );
    (out, names)
}

fn base_config() -> VmConfig {
    VmConfig::default()
}

/// Configuration pinning all threads to the PPE.
pub fn ppe_config() -> VmConfig {
    VmConfig {
        policy: PlacementPolicy::PinnedPpe,
        ..base_config()
    }
}

/// Configuration distributing threads over `n` SPEs.
pub fn spe_config(n: u8) -> VmConfig {
    let mut cfg = VmConfig {
        policy: PlacementPolicy::PinnedSpe,
        ..base_config()
    };
    cfg.cell.num_spes = n;
    cfg
}

// ---------------------------------------------------------------- Fig 4(a)

/// One row of Figure 4(a).
#[derive(Clone, Copy, Debug)]
pub struct Fig4aRow {
    /// The benchmark.
    pub workload: Workload,
    /// Wall cycles pinned to the PPE.
    pub ppe_cycles: u64,
    /// Wall cycles on one SPE.
    pub spe1_cycles: u64,
    /// Wall cycles on six SPEs.
    pub spe6_cycles: u64,
    /// Speedup of 1 SPE over the PPE (paper's left bars).
    pub rel_1spe: f64,
    /// Speedup of 6 SPEs over the PPE (paper's right bars).
    pub rel_6spe: f64,
    /// The paper's reported 1-SPE value (approximate, read from Fig 4a).
    pub paper_1spe: f64,
    /// The paper's reported 6-SPE value.
    pub paper_6spe: f64,
}

/// Paper targets read off Figure 4(a): (1 SPE, 6 SPEs) relative to PPE.
pub fn paper_fig4a(w: Workload) -> (f64, f64) {
    match w {
        Workload::Compress => (0.45, 2.5),
        Workload::MpegAudio => (1.0, 4.6),
        Workload::Mandelbrot => (1.6, 9.4),
    }
}

/// Figure 4(a): each benchmark on the PPE, 1 SPE and 6 SPEs.
pub fn figure4a(scale: f64) -> Vec<Fig4aRow> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let ppe = run_workload(w, 1, scale, ppe_config()).stats.wall_cycles;
            let spe1 = run_workload(w, 1, scale, spe_config(1)).stats.wall_cycles;
            let spe6 = run_workload(w, 6, scale, spe_config(6)).stats.wall_cycles;
            let (p1, p6) = paper_fig4a(w);
            Fig4aRow {
                workload: w,
                ppe_cycles: ppe,
                spe1_cycles: spe1,
                spe6_cycles: spe6,
                rel_1spe: ppe as f64 / spe1 as f64,
                rel_6spe: ppe as f64 / spe6 as f64,
                paper_1spe: p1,
                paper_6spe: p6,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig 4(b)

/// One scalability series: speedup over 1 SPE for 1..=6 SPEs.
#[derive(Clone, Debug)]
pub struct Fig4bSeries {
    /// The benchmark.
    pub workload: Workload,
    /// `speedup[n-1]` = cycles(1 SPE) / cycles(n SPEs).
    pub speedup: Vec<f64>,
}

/// Figure 4(b): scalability over 1–6 SPE cores relative to one SPE.
pub fn figure4b(scale: f64) -> Vec<Fig4bSeries> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let base = run_workload(w, 1, scale, spe_config(1)).stats.wall_cycles;
            let speedup = (1..=6u8)
                .map(|n| {
                    let c = run_workload(w, n as u32, scale, spe_config(n))
                        .stats
                        .wall_cycles;
                    base as f64 / c as f64
                })
                .collect();
            Fig4bSeries {
                workload: w,
                speedup,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig 5

/// One row of Figure 5: SPE cycle fractions per operation class.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Row {
    /// The benchmark.
    pub workload: Workload,
    /// Percentages in `OpClass::ALL` order: floating point, integer,
    /// branch, stack, local memory, main memory.
    pub percent: [f64; 6],
}

/// Figure 5: proportion of SPE cycles per operation type (6-SPE run).
pub fn figure5(scale: f64) -> Vec<Fig5Row> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let out = run_workload(w, 6, scale, spe_config(6));
            Fig5Row {
                workload: w,
                percent: out.stats.spe.percentages(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig 6/7

/// One point of a cache-size sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Cache size in KiB.
    pub size_kb: u32,
    /// Wall cycles at this size.
    pub cycles: u64,
    /// Performance relative to the default (largest) size.
    pub perf_rel: f64,
    /// The relevant cache's hit rate at this size.
    pub hit_rate: f64,
}

/// One benchmark's sweep.
#[derive(Clone, Debug)]
pub struct SweepSeries {
    /// The benchmark.
    pub workload: Workload,
    /// Points in ascending size order.
    pub points: Vec<SweepPoint>,
}

/// Figure 6 x-axis: data-cache sizes in KiB (0 disables the cache).
pub const DATA_SIZES_KB: [u32; 14] = [0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104];

/// Figure 7 x-axis: code-cache sizes in KiB.
pub const CODE_SIZES_KB: [u32; 12] = [0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88];

/// Figure 6: shrinking the data cache (code cache at its default 88 KiB).
pub fn figure6(scale: f64) -> Vec<SweepSeries> {
    cache_sweep(scale, &DATA_SIZES_KB, true)
}

/// Figure 7: shrinking the code cache (data cache at its default 104 KiB).
pub fn figure7(scale: f64) -> Vec<SweepSeries> {
    cache_sweep(scale, &CODE_SIZES_KB, false)
}

fn cache_sweep(scale: f64, sizes: &[u32], sweep_data: bool) -> Vec<SweepSeries> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let mut points: Vec<SweepPoint> = sizes
                .iter()
                .map(|&kb| {
                    let (data_kb, code_kb) = if sweep_data { (kb, 88) } else { (104, kb) };
                    let cfg = spe_config(6).with_cache_sizes(data_kb << 10, code_kb << 10);
                    let out = run_workload(w, 6, scale, cfg);
                    SweepPoint {
                        size_kb: kb,
                        cycles: out.stats.wall_cycles,
                        perf_rel: 0.0,
                        hit_rate: if sweep_data {
                            out.stats.data_cache.hit_rate()
                        } else {
                            out.stats.code_cache.method_hit_rate()
                        },
                    }
                })
                .collect();
            let base = points.last().expect("non-empty sweep").cycles as f64;
            for p in &mut points {
                p.perf_rel = base / p.cycles as f64;
            }
            SweepSeries {
                workload: w,
                points,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- E6

/// E6 ablation: the §3.2.1 array block-transfer size.
pub fn ablate_block_size(scale: f64) -> Vec<(u32, u64, u64)> {
    [64u32, 128, 256, 512, 1024, 2048, 4096]
        .iter()
        .map(|&bytes| {
            let mut cfg = spe_config(6);
            cfg.array_block_bytes = bytes;
            let compress = run_workload(Workload::Compress, 6, scale, cfg)
                .stats
                .wall_cycles;
            let mut cfg = spe_config(6);
            cfg.array_block_bytes = bytes;
            let mpeg = run_workload(Workload::MpegAudio, 6, scale, cfg)
                .stats
                .wall_cycles;
            (bytes, compress, mpeg)
        })
        .collect()
}

// ---------------------------------------------------------------- E7

/// E7 ablation result: the §3.1 per-core JIT claim.
#[derive(Clone, Copy, Debug)]
pub struct JitAblation {
    /// Methods compiled on demand for the PPE.
    pub ppe_compiled: u64,
    /// Methods compiled on demand for the SPE.
    pub spe_compiled: u64,
    /// Methods that ended up compiled for both.
    pub dual_compiled: u64,
    /// Compile cycles actually spent (on-demand, per core).
    pub demand_cycles: u64,
    /// Compile cycles an eager both-architectures strategy would spend.
    pub eager_cycles: u64,
}

/// E7: quantify "compiled once per used core type" vs eager dual
/// compilation, using the annotated mixed workload (which genuinely
/// exercises both core kinds).
pub fn ablate_jit(scale: f64) -> JitAblation {
    let (program, expected) = mixed_program(scale, true);
    let cfg = VmConfig {
        policy: PlacementPolicy::Annotation,
        ..base_config()
    };
    let vm = HeraJvm::new(program, cfg).expect("constructs");
    let out = vm.run().expect("runs");
    assert_eq!(out.result, Some(Value::I32(expected)));
    let r = out.stats.registry;

    // Eager baseline: compile every bytecode method for both kinds.
    let (program, _) = mixed_program(scale, true);
    let layout = hera_mem::ProgramLayout::compute(&program);
    let mut eager = 0u64;
    for i in 0..program.methods.len() {
        let m = hera_isa::MethodId(i as u32);
        if program.method(m).code().is_none() {
            continue;
        }
        for kind in [hera_cell::CoreKind::Ppe, hera_cell::CoreKind::Spe] {
            eager += hera_jit::compile_method(&program, &layout, m, kind)
                .expect("compiles")
                .compile_cycles;
        }
    }
    JitAblation {
        ppe_compiled: r.ppe_compilations,
        spe_compiled: r.spe_compilations,
        dual_compiled: r.dual_compiled,
        demand_cycles: r.ppe_compile_cycles + r.spe_compile_cycles,
        eager_cycles: eager,
    }
}

// ---------------------------------------------------------------- E8

/// One E8 row: the workload, `(data_kb, cycles)` per split, and the
/// fixed-default cycles.
pub type CacheSplitRow = (Workload, Vec<(u32, u64)>, u64);

/// E8 extension: sweep the 192 KiB cache budget split between data and
/// code (the paper's "adaptive sizing of the code and data caches would
/// likely benefit many applications"). Returns `(data_kb, cycles)`
/// per split per workload, plus the fixed-default cycles.
pub fn adaptive_cache_split(scale: f64) -> Vec<CacheSplitRow> {
    let budget_kb = 104 + 88;
    Workload::ALL
        .iter()
        .map(|&w| {
            let fixed = run_workload(w, 6, scale, spe_config(6)).stats.wall_cycles;
            let splits: Vec<(u32, u64)> = (1..budget_kb / 8)
                .map(|i| {
                    let data_kb = i * 8;
                    let code_kb = budget_kb - data_kb;
                    let cfg = spe_config(6).with_cache_sizes(data_kb << 10, code_kb << 10);
                    let cycles = run_workload(w, 6, scale, cfg).stats.wall_cycles;
                    (data_kb, cycles)
                })
                .collect();
            (w, splits, fixed)
        })
        .collect()
}

// ---------------------------------------------------------------- E9

/// Build the two-phase mixed program: an FP-heavy phase and a
/// memory-heavy phase, processed in *chunks* through helper methods —
/// the chunk invokes are the safepoints where annotation- or
/// monitor-driven migration can occur, while the inner loops stay
/// call-free so each phase keeps its character. Returns
/// `(program, expected checksum)`.
pub fn mixed_program(scale: f64, annotated: bool) -> (hera_isa::Program, i32) {
    use hera_frontend::*;
    use hera_isa::{Annotation, ElemTy, ProgramBuilder, Ty};

    const CHUNK: i32 = 2000;
    let fp_chunks = ((60_000.0 * scale) as i32 / CHUNK).max(4);
    let mem_n = (((131_072.0 * scale) as u32).max(4096)).next_power_of_two() as i32;
    let mem_chunks = ((mem_n * 4) / CHUNK).max(4);

    let mut pb = ProgramBuilder::new();
    let cls = pb.add_class("Mixed", None);

    // float fpChunk(float x): CHUNK logistic-map updates.
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

    // int memChunk(int[] a, int pAndSum): CHUNK pointer-chase steps.
    // p lives in the low 17 bits, the running sum is returned separately
    // through a static to keep the signature small.
    let sum_static = pb.add_static_field(cls, "chaseSum", Ty::Int);
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
            Stmt::Let("sum".into(), static_(sum_static)),
            for_range(
                "i",
                i32c(0),
                i32c(CHUNK),
                vec![
                    Stmt::Assign("p".into(), index(local("a"), local("p"))),
                    Stmt::Assign("sum".into(), add(local("sum"), local("p"))),
                ],
            ),
            Stmt::SetStatic(sum_static, local("sum")),
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
            // FP phase.
            Stmt::Let("x".into(), f32c(0.618_034)),
            for_range(
                "c",
                i32c(0),
                i32c(fp_chunks),
                vec![Stmt::Assign("x".into(), call(fp_chunk, vec![local("x")]))],
            ),
            Stmt::Let(
                "fpRes".into(),
                cast(Ty::Int, mul(local("x"), f32c(65536.0))),
            ),
            // Memory phase: permutation walk.
            Stmt::Let("a".into(), new_array(ElemTy::Int, i32c(mem_n))),
            // a[i] = 40503·(i+1) mod n, built with a running sum so the
            // product never overflows; gcd(40503, 2^k) = 1 keeps it a
            // permutation (one long pointer-chase cycle).
            Stmt::Let("v".into(), i32c(0)),
            for_range(
                "i",
                i32c(0),
                i32c(mem_n),
                vec![
                    Stmt::Assign("v".into(), rem(add(local("v"), i32c(40503)), i32c(mem_n))),
                    Stmt::SetIndex(local("a"), local("i"), local("v")),
                ],
            ),
            Stmt::Let("p".into(), i32c(0)),
            for_range(
                "c2",
                i32c(0),
                i32c(mem_chunks),
                vec![Stmt::Assign(
                    "p".into(),
                    call(mem_chunk, vec![local("a"), local("p")]),
                )],
            ),
            Stmt::Return(Some(bxor(local("fpRes"), static_(sum_static)))),
        ],
    )
    .expect("main compiles");
    let program = pb.finish_with_entry("Mixed", "main").expect("resolves");

    // Host reference (identical arithmetic and iteration order).
    let mut x = 0.618_034_f32;
    for _ in 0..fp_chunks * CHUNK {
        x = 3.58 * x * (1.0 - x);
    }
    let fp_res = (x * 65536.0) as i32;
    let n = mem_n;
    let mut a = vec![0i32; n as usize];
    let mut v = 0i32;
    for slot in a.iter_mut() {
        v = (v + 40503) % n;
        *slot = v;
    }
    let (mut p, mut sum) = (0i32, 0i32);
    for _ in 0..mem_chunks * CHUNK {
        p = a[p as usize];
        sum = sum.wrapping_add(p);
    }
    (program, fp_res ^ sum)
}

/// E9: the mixed workload under four placement policies; returns
/// `(policy name, wall cycles, migrations)`.
pub fn placement_comparison(scale: f64) -> Vec<(&'static str, u64, u64)> {
    let policies: Vec<(&'static str, PlacementPolicy, bool)> = vec![
        ("pinned-PPE", PlacementPolicy::PinnedPpe, false),
        ("pinned-SPE", PlacementPolicy::PinnedSpe, false),
        ("annotation", PlacementPolicy::Annotation, true),
        ("adaptive", PlacementPolicy::adaptive(), false),
    ];
    policies
        .into_iter()
        .map(|(name, policy, annotated)| {
            let (program, expected) = mixed_program(scale, annotated);
            let cfg = VmConfig {
                policy,
                ..base_config()
            };
            let vm = HeraJvm::new(program, cfg).expect("constructs");
            let out = vm.run().expect("runs");
            assert_eq!(out.result, Some(Value::I32(expected)), "{name}");
            (name, out.stats.wall_cycles, out.stats.migrations)
        })
        .collect()
}

// ---------------------------------------------------------------- E10

/// Build a synchronisation-heavy program: `threads` workers each
/// perform `reps` locked increments on a shared counter. Returns
/// `(program, expected total)`.
pub fn sync_program(threads: i32, reps: i32) -> (hera_isa::Program, i32) {
    use hera_core::native::install_runtime;
    use hera_frontend::*;
    use hera_isa::{ElemTy, ProgramBuilder, Ty};

    let mut pb = ProgramBuilder::new();
    let api = install_runtime(&mut pb);
    let shared = pb.add_class("Shared", None);
    let fcount = pb.add_field(shared, "count", Ty::Int);
    let worker = pb.add_class("SyncWorker", Some(api.thread_class));
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
                i32c(reps),
                vec![Stmt::Sync(
                    local("s"),
                    vec![Stmt::SetField(
                        local("s"),
                        fcount,
                        add(field(local("s"), fcount), i32c(1)),
                    )],
                )],
            ),
        ],
    )
    .expect("run compiles");
    let main_c = pb.add_class("Main", None);
    let main = declare_static(&mut pb, main_c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("s".into(), Expr::New(shared)),
            Stmt::Let("tids".into(), new_array(ElemTy::Int, i32c(threads))),
            for_range(
                "i",
                i32c(0),
                i32c(threads),
                vec![
                    Stmt::Let("w".into(), Expr::New(worker)),
                    Stmt::SetField(local("w"), fshared, local("s")),
                    Stmt::SetIndex(local("tids"), local("i"), call(api.spawn, vec![local("w")])),
                ],
            ),
            for_range(
                "j",
                i32c(0),
                i32c(threads),
                vec![Stmt::Expr(call(
                    api.join,
                    vec![index(local("tids"), local("j"))],
                ))],
            ),
            Stmt::Return(Some(field(local("s"), fcount))),
        ],
    )
    .expect("main compiles");
    (
        pb.finish_with_entry("Main", "main").expect("resolves"),
        threads * reps,
    )
}

/// E10 extension: Hera-JVM's local SPE synchronisation vs CellVM-style
/// PPE-proxied synchronisation (§5: CellVM "relies on the PPE core to
/// perform thread synchronisation operations … scalability issues").
/// Returns, per SPE count, the wall cycles for both modes.
pub fn sync_scalability(reps: i32) -> Vec<(u8, u64, u64)> {
    (1..=6u8)
        .map(|n| {
            let run = |cellvm: bool| {
                let (program, expected) = sync_program(n as i32, reps);
                let mut cfg = spe_config(n);
                cfg.cellvm_style_sync = cellvm;
                let vm = HeraJvm::new(program, cfg).expect("constructs");
                let out = vm.run().expect("runs");
                assert!(out.is_clean(), "traps: {:?}", out.traps);
                assert_eq!(out.result, Some(Value::I32(expected)));
                out.stats.wall_cycles
            };
            (n, run(false), run(true))
        })
        .collect()
}

// ------------------------------------------------------------- chaos

/// The standard chaos-run fault plan: transient MFC faults at rates
/// high enough that retries visibly show up in one run, watchdog
/// timeouts on the syscall-proxy and migration waits, and one hard SPE
/// death mid-run. Everything is derived from `seed`, so the same seed
/// reproduces the same faults cycle-for-cycle.
pub fn chaos_plan(seed: u64, death_spe: u8, death_at: u64) -> hera_cell::FaultPlan {
    hera_cell::FaultPlan::seeded(seed)
        .with_mfc_faults(400, 250, 150)
        .expect("valid fault rates")
        .with_proxy_faults(500)
        .with_migration_faults(500)
        .with_spe_death(death_spe, death_at)
}

/// A death deadline that lands mid-run for every workload at `scale`
/// (the shortest 6-SPE run is ~8.4M cycles at scale 1.0).
pub fn chaos_death_cycle(scale: f64) -> u64 {
    ((1_500_000.0 * scale) as u64).max(50_000)
}

/// Run one workload on 6 SPEs under `plan` with tracing enabled. The
/// checksum is still asserted: losing a core mid-run must not lose
/// work, only move it.
pub fn chaos_workload(w: Workload, scale: f64, plan: hera_cell::FaultPlan) -> RunOutcome {
    let (program, expected) = w.build(6, scale);
    let cfg = spe_config(6).with_tracing().with_faults(plan);
    let vm = HeraJvm::new(program, cfg).expect("program constructs");
    let out = vm.run().expect("run survives injected faults");
    assert!(out.is_clean(), "{}: traps {:?}", w.name(), out.traps);
    assert_eq!(
        out.result,
        Some(Value::I32(expected)),
        "{} checksum mismatch under fault injection",
        w.name()
    );
    out
}

// ----------------------------------------------------- crash & recover

/// Everything one crash-and-recover chaos exercise measured.
pub struct CrashRecoveryReport {
    /// The uninterrupted reference run (same config, crash removed).
    pub reference: RunOutcome,
    /// The run that finished the workload after restoring.
    pub recovered: RunOutcome,
    /// Virtual cycle at which the whole machine died.
    pub crash_cycle: u64,
    /// Snapshots found on disk after the crash.
    pub checkpoints_on_disk: usize,
    /// Sequence number of the snapshot recovery restored from.
    pub restored_seq: u32,
    /// Virtual wall-clock of that snapshot.
    pub restored_cycle: u64,
}

impl CrashRecoveryReport {
    /// Work lost to the crash: cycles between the restored checkpoint
    /// and the crash, which the recovered run had to execute again.
    pub fn reexecuted_cycles(&self) -> u64 {
        self.crash_cycle.saturating_sub(self.restored_cycle)
    }

    /// Total checkpoint write cost along the recovery path, charged as
    /// PPE stall in virtual cycles (pre-crash writes carried in the
    /// snapshot's own counters, plus re-taken later checkpoints).
    pub fn checkpoint_write_cycles(&self) -> u64 {
        self.recovered.trace.metrics.counter("snap.write_cycles")
    }

    /// The headline number: cycles the crash cost on top of the
    /// uninterrupted run.
    pub fn recovery_cost_cycles(&self) -> u64 {
        self.reexecuted_cycles() + self.checkpoint_write_cycles()
    }
}

/// Verify a recovered run is bit-identical to the uninterrupted
/// reference from the restore point onward: result, final heap image,
/// RunStats, metrics, and the per-lane trace suffix.
pub fn verify_recovery(reference: &RunOutcome, recovered: &RunOutcome) -> Result<(), String> {
    if recovered.result != reference.result {
        return Err(format!(
            "result diverged: {:?} vs reference {:?}",
            recovered.result, reference.result
        ));
    }
    if !recovered.traps.is_empty() {
        return Err(format!("recovered run trapped: {:?}", recovered.traps));
    }
    if recovered.heap_digest != reference.heap_digest {
        return Err(format!(
            "final heap digest diverged: {:#018x} vs reference {:#018x}",
            recovered.heap_digest, reference.heap_digest
        ));
    }
    if recovered.stats != reference.stats {
        return Err(format!(
            "RunStats diverged:\n  {:?}\n  vs\n  {:?}",
            recovered.stats, reference.stats
        ));
    }
    if recovered.trace.metrics != reference.trace.metrics {
        return Err("final metrics registry diverged".into());
    }
    for (i, (rl, fl)) in recovered
        .trace
        .lanes()
        .iter()
        .zip(reference.trace.lanes())
        .enumerate()
    {
        // The recovered run leads its PPE lane with the Restore marker.
        let events = match rl.events.split_first() {
            Some((first, rest))
                if i == 0 && matches!(first.event, hera_trace::TraceEvent::Restore { .. }) =>
            {
                rest
            }
            _ if i == 0 => return Err("PPE lane missing the Restore marker".into()),
            _ => &rl.events[..],
        };
        if events.len() > fl.events.len() {
            return Err(format!("lane {i}: recovered run emitted extra events"));
        }
        let tail = &fl.events[fl.events.len() - events.len()..];
        if events != tail {
            return Err(format!("lane {i}: trace suffix not identical"));
        }
    }
    Ok(())
}

/// Kill the whole machine at `crash_at`, restore from the latest
/// on-disk checkpoint under `dir`, finish the workload, and verify the
/// recovered run against an uninterrupted reference. The transient
/// `plan` (MFC faults etc.) stays active throughout — crash recovery
/// composes with fault injection.
pub fn crash_and_recover(
    w: Workload,
    scale: f64,
    plan: hera_cell::FaultPlan,
    checkpoint_every: u64,
    crash_at: u64,
    dir: &std::path::Path,
) -> Result<CrashRecoveryReport, String> {
    let (program, expected) = w.build(6, scale);
    let base_cfg = spe_config(6)
        .with_tracing()
        .with_checkpoint_every(checkpoint_every);

    // Uninterrupted reference with the same checkpoint cadence.
    let reference_vm = HeraJvm::new(program.clone(), base_cfg.with_faults(plan))
        .map_err(|e| format!("reference VM: {e}"))?;
    let reference = reference_vm
        .run()
        .map_err(|e| format!("reference run: {e}"))?;
    if reference.result != Some(Value::I32(expected)) {
        return Err(format!(
            "reference checksum mismatch: {:?}",
            reference.result
        ));
    }

    // The doomed run: same machine, scheduled whole-machine crash,
    // snapshots streamed to disk.
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
    let crash_vm = HeraJvm::new(
        program,
        base_cfg.with_faults(plan.with_machine_crash(crash_at)),
    )
    .map_err(|e| format!("crash VM: {e}"))?
    .with_checkpoint_dir(dir);
    let crash_cycle = match crash_vm.run() {
        Err(hera_core::VmError::MachineCrash { at_cycle }) => at_cycle,
        Ok(_) => return Err(format!("machine failed to crash by cycle {crash_at}")),
        Err(e) => return Err(format!("crashing run failed differently: {e}")),
    };

    // Pick up the newest snapshot the dead machine left behind.
    let mut snaps: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("readdir {dir:?}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "hsnap"))
        .collect();
    snaps.sort();
    let latest = snaps
        .last()
        .ok_or("machine crashed before the first checkpoint — nothing to restore")?;
    let bytes = std::fs::read(latest).map_err(|e| format!("read {latest:?}: {e}"))?;
    let info = hera_core::snapshot::inspect(&bytes).map_err(|e| format!("inspect: {e}"))?;

    // Recover on a crash-free machine (the config digest deliberately
    // ignores the crash schedule) and finish the workload.
    let recovered = reference_vm
        .restore_bytes(&bytes)
        .map_err(|e| format!("restore from {latest:?}: {e}"))?;
    verify_recovery(&reference, &recovered)?;

    Ok(CrashRecoveryReport {
        reference,
        recovered,
        crash_cycle,
        checkpoints_on_disk: snaps.len(),
        restored_seq: info.seq,
        restored_cycle: info.wall_cycles,
    })
}

// ------------------------------------------------------------- perf gate

/// The virtual metrics `figures perf-gate` holds the engine to: each
/// workload on the PPE, one SPE and six SPEs at [`DEFAULT_SCALE`], as
/// (workload, config, wall cycles, guest ops retired). Host time is not
/// gated: `hostbench pairs` owns host-time claims.
pub const PERF_GATE_PINS: [(Workload, &str, u64, u64); 9] = [
    (Workload::Compress, "ppe", 51_218_448, 23_073_103),
    (Workload::Compress, "spe1", 104_157_613, 25_086_888),
    (Workload::Compress, "spe6", 21_694_664, 26_537_483),
    (Workload::MpegAudio, "ppe", 52_467_546, 17_655_840),
    (Workload::MpegAudio, "spe1", 63_664_857, 19_761_693),
    (Workload::MpegAudio, "spe6", 11_238_908, 19_762_488),
    (Workload::Mandelbrot, "ppe", 75_873_340, 18_110_821),
    (Workload::Mandelbrot, "spe1", 49_489_220, 18_304_714),
    (Workload::Mandelbrot, "spe6", 8_442_299, 18_305_692),
];

/// Rerun every [`PERF_GATE_PINS`] cell (each asserts its checksum) and
/// describe each virtual metric that moved; empty means the gate passed.
pub fn perf_gate() -> Vec<String> {
    let mut failures = Vec::new();
    for (w, config, wall_cycles, guest_ops) in PERF_GATE_PINS {
        let (threads, cfg) = match config {
            "ppe" => (1, ppe_config()),
            "spe1" => (1, spe_config(1)),
            _ => (6, spe_config(6)),
        };
        let stats = run_workload(w, threads, DEFAULT_SCALE, cfg).stats;
        let cell = format!("{}/{config}", w.name());
        if stats.wall_cycles != wall_cycles {
            failures.push(format!(
                "{cell}: wall_cycles {} != pinned {wall_cycles} (virtual time moved)",
                stats.wall_cycles
            ));
        }
        let ops = stats.ppe.total_ops() + stats.spe.total_ops();
        if ops != guest_ops {
            failures.push(format!(
                "{cell}: guest_ops {ops} != pinned {guest_ops} (retired op count moved)"
            ));
        }
    }
    failures
}

/// Host CPUs actually available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

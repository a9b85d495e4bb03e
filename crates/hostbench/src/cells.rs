//! Cells: the fixed operations a workload times, and their output checks.
//!
//! A cell is one call sequence into the crates' public API. Every outside
//! call goes through [`CellOut::timed`], which adds its host time to the
//! cell and (in a traced run) records a span; the output checks run
//! between those calls, so they are never skipped and never timed.

use crate::span::Tracer;
use hera_cluster::{
    crash_storm, run_experiment, run_rebal_matrix, ClusterConfig, MachineShape, ResilConfig,
};
use hera_core::vm::ParStats;
use hera_core::{HeraJvm, PlacementPolicy, RunOutcome, RunStats, VmConfig, VmError};
use hera_isa::{Program, Value};
use hera_snap::digest64;
use hera_trace::nearest_rank;
use hera_workloads::Workload;
use std::time::Instant;

/// How much work the cells do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The benchmark's published sizes.
    Full,
    /// Tiny inputs for the tier-1 smoke test (debug build, seconds).
    Smoke,
}

/// Host time spent constructing a workload, by layer (group A).
#[derive(Clone, Copy, Default, Debug)]
pub struct Construct {
    /// `Workload::build` / `mixed_program` / `sync_program`.
    pub build_ns: u64,
    /// `verify_program`.
    pub verify_ns: u64,
    /// `HeraJvm::new`.
    pub vm_new_ns: u64,
}

impl Construct {
    /// Build one program and its VM, timing each layer.
    fn vm(&mut self, build: impl FnOnce() -> (Program, i32), cfg: VmConfig) -> (HeraJvm, i32) {
        let t = Instant::now();
        let (program, expected) = build();
        self.build_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        hera_isa::verify_program(&program).expect("benchmark program verifies");
        self.verify_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let vm = HeraJvm::new(program, cfg).expect("benchmark program constructs");
        self.vm_new_ns += t.elapsed().as_nanos() as u64;
        (vm, expected)
    }
}

// A workload builds a dozen of these once per run; boxing the big
// variants would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Op {
    /// `vm.run()`.
    Run { vm: HeraJvm, expected: i32 },
    /// Checkpointed run, then `restore_bytes` and a cross-shape
    /// `adopt_bytes` from its middle checkpoint.
    SnapCycle {
        ckpt: HeraJvm,
        adopt: HeraJvm,
        expected: i32,
    },
    /// Traced run plus both exporters.
    Traced { vm: HeraJvm, expected: i32 },
    /// Profiled run plus the collapsed-stack render.
    Profiled {
        vm: HeraJvm,
        expected: i32,
        names: Vec<String>,
    },
    /// `run_experiment` (+ the scope Chrome export when `chrome`).
    Experiment { cfg: ClusterConfig, chrome: bool },
    /// `run_rebal_matrix`.
    Rebal { cfg: ClusterConfig },
}

/// One timed operation of a workload.
pub struct Cell {
    pub name: String,
    /// Whether the cell's work and time enter the workload's throughput
    /// (comparison twins and traced-only probes do not).
    pub counts: bool,
    op: Op,
}

/// What one execution of a cell produced.
#[derive(Default)]
pub struct CellOut {
    /// Host nanoseconds inside outside calls.
    pub host_ns: u64,
    /// Retired guest machine ops (VM cells) or simulated requests
    /// resolved (fleet cells).
    pub work: u64,
    /// Virtual cycles: wall cycles (VM) or summed p99 latency (fleet).
    pub virt: u64,
    /// Operations attempted (VM run / restore / adopt / export / fleet
    /// experiment).
    pub ops: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Digest of everything the cell rendered; must repeat on every pass.
    pub fingerprint: u64,
    /// The run's statistics (group D counts).
    pub stats: Option<RunStats>,
    pub par: ParStats,
    /// Named counts the per-layer metrics read.
    pub facts: Vec<(&'static str, f64)>,
}

impl CellOut {
    /// Call into a layer: time it and span it.
    fn timed<R>(&mut self, tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> R {
        tr.span(name, |_| {
            let t = Instant::now();
            let r = f();
            self.host_ns += t.elapsed().as_nanos() as u64;
            r
        })
    }

    fn fail(&mut self, cell: &str, what: impl std::fmt::Display) {
        self.failures.push(format!("{cell}: {what}"));
    }

    /// Count one VM operation and check it: no `VmError`, no trap, guest
    /// checksum equal to the host reference.
    fn vm_op(
        &mut self,
        cell: &str,
        what: &str,
        res: Result<RunOutcome, VmError>,
        expected: i32,
    ) -> Option<RunOutcome> {
        self.ops += 1;
        match res {
            Err(e) => self.fail(cell, format_args!("{what}: {e}")),
            Ok(out) if !out.is_clean() => {
                self.fail(cell, format_args!("{what}: traps {:?}", out.traps))
            }
            Ok(out) if out.result != Some(Value::I32(expected)) => self.fail(
                cell,
                format_args!(
                    "{what}: checksum {:?}, host reference {expected}",
                    out.result
                ),
            ),
            Ok(out) => return Some(out),
        }
        None
    }

    /// A named count the cell reported (0 if it did not).
    pub fn fact(&self, name: &str) -> f64 {
        self.facts
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }
}

fn guest_ops(stats: &RunStats) -> u64 {
    stats.ppe.total_ops() + stats.spe.total_ops()
}

impl Cell {
    /// The cell's guest program, if it runs one.
    pub fn program(&self) -> Option<&Program> {
        match &self.op {
            Op::Run { vm, .. } | Op::Traced { vm, .. } | Op::Profiled { vm, .. } => {
                Some(vm.program())
            }
            Op::SnapCycle { ckpt, .. } => Some(ckpt.program()),
            Op::Experiment { .. } | Op::Rebal { .. } => None,
        }
    }

    /// Execute the cell once.
    pub fn exec(&self, tr: &mut Tracer) -> CellOut {
        let mut o = CellOut::default();
        let cell = self.name.as_str();
        match &self.op {
            Op::Run { vm, expected } => {
                let res = o.timed(tr, "core.run", || vm.run());
                if let Some(out) = o.vm_op(cell, "run", res, *expected) {
                    o.work = guest_ops(&out.stats);
                    o.virt = out.stats.wall_cycles;
                    o.fingerprint = out.heap_digest ^ o.virt;
                    o.par = out.par;
                    o.stats = Some(out.stats);
                }
            }
            Op::SnapCycle {
                ckpt,
                adopt,
                expected,
            } => self.snap_cycle(&mut o, tr, ckpt, adopt, *expected),
            Op::Traced { vm, expected } => {
                let res = o.timed(tr, "core.run_traced", || vm.run());
                if let Some(out) = o.vm_op(cell, "traced run", res, *expected) {
                    o.work = guest_ops(&out.stats);
                    o.virt = out.stats.wall_cycles;
                    let json = o.timed(tr, "trace.chrome_trace_json", || {
                        hera_trace::chrome_trace_json(&out.trace)
                    });
                    let text = o.timed(tr, "trace.text_summary", || {
                        hera_trace::text_summary(&out.trace)
                    });
                    o.ops += 2;
                    if !json.starts_with('{') || text.is_empty() {
                        o.fail(cell, "exporter produced no document");
                    }
                    o.fingerprint = digest64(json.as_bytes()) ^ digest64(text.as_bytes());
                    o.facts
                        .push(("trace_events", out.trace.event_count() as f64));
                    o.facts.push(("trace_json_bytes", json.len() as f64));
                    o.stats = Some(out.stats);
                }
            }
            Op::Profiled {
                vm,
                expected,
                names,
            } => {
                let res = o.timed(tr, "core.run_profiled", || vm.run());
                if let Some(out) = o.vm_op(cell, "profiled run", res, *expected) {
                    o.work = guest_ops(&out.stats);
                    o.virt = out.stats.wall_cycles;
                    o.ops += 1;
                    match &out.profile {
                        None => o.fail(cell, "profiled run returned no profile"),
                        Some(p) => {
                            let folded = o.timed(tr, "prof.collapsed", || {
                                p.collapsed(&|id| hera_prof::method_name(names, id))
                            });
                            if folded.is_empty() {
                                o.fail(cell, "collapsed profile is empty");
                            }
                            o.fingerprint = digest64(folded.as_bytes());
                        }
                    }
                    o.stats = Some(out.stats);
                }
            }
            Op::Experiment { cfg, chrome } => self.experiment(&mut o, tr, cfg, *chrome),
            Op::Rebal { cfg } => {
                o.ops = 1;
                match o.timed(tr, "cluster.run_rebal_matrix", || run_rebal_matrix(cfg)) {
                    Err(e) => o.fail(cell, e),
                    Ok(rep) => {
                        let text = o.timed(tr, "cluster.render", || rep.render());
                        o.fingerprint = digest64(text.as_bytes());
                        for f in &rep.failures {
                            o.fail(cell, f);
                        }
                        for row in &rep.rows {
                            if row.requests != cfg.requests
                                || row.completed + row.shed > row.requests
                            {
                                o.fail(
                                    cell,
                                    format_args!("row {}: requests not conserved", row.name),
                                );
                            }
                            o.work += row.requests;
                            o.virt += row.p99;
                        }
                        let proofs: u64 = rep.stats.iter().map(|s| s.adoption_proofs).sum();
                        o.facts.push(("adoption_proofs", proofs as f64));
                    }
                }
            }
        }
        o
    }

    fn snap_cycle(
        &self,
        o: &mut CellOut,
        tr: &mut Tracer,
        ckpt: &HeraJvm,
        adopt: &HeraJvm,
        expected: i32,
    ) {
        let cell = self.name.as_str();
        let res = o.timed(tr, "core.run_checkpointed", || ckpt.run());
        let Some(full) = o.vm_op(cell, "checkpointed run", res, expected) else {
            return;
        };
        let ops = guest_ops(&full.stats);
        let wall = full.stats.wall_cycles;
        o.work = ops;
        o.virt = wall;
        o.fingerprint = full.heap_digest ^ wall;
        let Some(mid) = full.checkpoints.get(full.checkpoints.len() / 2) else {
            o.fail(cell, "checkpointed run took no checkpoint");
            return;
        };
        let info = o.timed(tr, "core.snapshot.inspect", || {
            hera_core::snapshot::inspect(&mid.bytes)
        });
        if info.map(|i| i.seq) != Ok(mid.seq) {
            o.fail(cell, "inspect disagrees with the checkpoint's sequence");
        }
        // Ops a resumed run retires in *this* host call: the restored
        // counters start at the checkpoint, so scale by what remained.
        let remaining = wall.saturating_sub(mid.at_cycle) as f64 / wall.max(1) as f64;

        let res = o.timed(tr, "core.restore_bytes", || ckpt.restore_bytes(&mid.bytes));
        if let Some(r) = o.vm_op(cell, "restore", res, expected) {
            if r.heap_digest != full.heap_digest || r.stats.wall_cycles != wall {
                o.fail(cell, "restored run diverged from the uninterrupted run");
            }
            o.work += (ops as f64 * remaining) as u64;
            o.virt += r.stats.wall_cycles;
        }
        // Cross-shape adoption (6 -> 2 SPEs) drains threads to other
        // cores, so allocation order and the heap image legitimately
        // differ; like the fleet's own proof, the check is the checksum.
        let res = o.timed(tr, "core.adopt_bytes", || adopt.adopt_bytes(&mid.bytes));
        if let Some(a) = o.vm_op(cell, "adopt", res, expected) {
            o.work += (guest_ops(&a.stats) as f64 * remaining) as u64;
            o.virt += a.stats.wall_cycles;
            o.fingerprint ^= a.heap_digest;
        }
        let bytes: usize = full.checkpoints.iter().map(|c| c.bytes.len()).sum();
        o.facts.push(("checkpoints", full.checkpoints.len() as f64));
        o.facts.push(("snapshot_bytes", bytes as f64));
        o.facts.push(("remaining_frac", remaining));
        o.stats = Some(full.stats);
    }

    fn experiment(&self, o: &mut CellOut, tr: &mut Tracer, cfg: &ClusterConfig, chrome: bool) {
        let cell = self.name.as_str();
        o.ops = 1;
        let rep = match o.timed(tr, "cluster.run_experiment", || run_experiment(cfg)) {
            Ok(rep) => rep,
            Err(e) => return o.fail(cell, e),
        };
        let text = o.timed(tr, "cluster.render", || rep.render());
        o.fingerprint = digest64(text.as_bytes());
        for f in &rep.failures {
            o.fail(cell, f);
        }
        let (mut spans, mut proofs) = (0usize, 0u64);
        for out in &rep.outcomes {
            let m = &out.metrics;
            let ended =
                out.completed + m.counter("cluster.shed") + m.counter("resil.deadline_failures");
            if m.counter("cluster.requests") != cfg.requests || ended != cfg.requests {
                o.fail(
                    cell,
                    format_args!(
                        "policy {}: {} of {} requests ended exactly once",
                        out.policy, ended, cfg.requests
                    ),
                );
            }
            o.work += cfg.requests;
            o.virt += nearest_rank(&out.latencies, 990);
            proofs += m.counter("cluster.adoption.proofs");
            spans += out.scope.as_ref().map_or(0, |s| s.spans.len());
        }
        o.facts.push(("scope_spans", spans as f64));
        o.facts.push(("adoption_proofs", proofs as f64));
        if chrome {
            o.ops += 1;
            match rep.outcomes.iter().find_map(|out| out.scope.as_ref()) {
                None => o.fail(cell, "scope is on but no outcome carries a recording"),
                Some(scope) => {
                    let json = o.timed(tr, "cluster.scope.chrome_json", || scope.chrome_json());
                    o.fingerprint ^= digest64(json.as_bytes());
                }
            }
        }
    }
}

// ---------------------------------------------------------------- workloads

/// One benchmark workload: a fixed list of cells.
pub struct WorkloadDef {
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Σ virtual cycles of the counting cells at [`Size::Full`] (VM: wall
    /// cycles; fleet: p99 latency per policy outcome / matrix row).
    /// Virtual time is the reproduced result: a host-time change must
    /// leave it identical, so a run that reads anything else has failed.
    pub virt_cycles: u64,
    build: fn(Size, bool, &mut Construct) -> Vec<Cell>,
}

impl WorkloadDef {
    /// Construct the cells. `traced` adds the probes only the per-layer
    /// metrics need.
    pub fn build(&self, size: Size, traced: bool, c: &mut Construct) -> Vec<Cell> {
        (self.build)(size, traced, c)
    }

    /// Whether the cells run guest programs (vs fleet experiments).
    pub fn is_vm(&self) -> bool {
        !self.name.starts_with("fleet-")
    }
}

/// The eight workloads, in report order.
pub const WORKLOADS: [WorkloadDef; 8] = [
    WorkloadDef {
        name: "kernels-ppe",
        why: "three kernels pinned to the PPE: interp dispatch, cost charging, hwcache and the \
              direct heap do the work; softcache, DMA/EIB and the scheduler are bypassed",
        virt_cycles: 46_266_662,
        build: kernels_ppe,
    },
    WorkloadDef {
        name: "kernels-spe",
        why: "same kernels on 1 and 6 SPEs: software data/code caches, the DMA/EIB ledger and \
              multi-thread scheduling dominate the difference from kernels-ppe",
        virt_cycles: 67_947_348,
        build: kernels_spe,
    },
    WorkloadDef {
        name: "kernels-par",
        why: "the 6-SPE cells at host_workers=2: the only workload that enters core::par, so \
              it carries hera-par's keep-or-delete number",
        virt_cycles: 11_451_098,
        build: kernels_par,
    },
    WorkloadDef {
        name: "sync-migrate",
        why: "migration markers, dual-kind JIT, monitors, JMM purge and write-back per lock: \
              uses softcache and scheduler the way the read-mostly kernels do not",
        virt_cycles: 103_113_338,
        build: sync_migrate,
    },
    WorkloadDef {
        name: "snapshot",
        why: "checkpoint every wall/8, restore and cross-shape adopt on 32 MB and 2 MB heaps: \
              snapshot encode and decode dominate, interpretation is the bypass",
        virt_cycles: 60_216_482,
        build: snapshot,
    },
    WorkloadDef {
        name: "observed",
        why: "plain vs traced+exported vs profiled runs: trace sink emit and the exporters \
              dominate; the plain run in the same pass is the bypass",
        virt_cycles: 34_353_294,
        build: observed,
    },
    WorkloadDef {
        name: "fleet-proofs",
        why: "default experiment plus the E15 rebal matrix at small request counts: reference \
              runs, adoption re-runs and bit-identity proofs are the time, the event loop is not",
        virt_cycles: 31_824_094,
        build: fleet_proofs,
    },
    WorkloadDef {
        name: "fleet-loop",
        why: "E13 chaos fleet with resil and scope on at 100000 requests x 3 policies: the \
              event loop, resil bookkeeping and span recording dominate, reference runs do not",
        virt_cycles: 47_374_304,
        build: fleet_loop,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Host worker threads of the `spe6w2` cells (= `nproc` on the sizing
/// host; fixed so the cell means the same thing everywhere).
pub const PAR_WORKERS: u32 = 2;

/// Work scale of every guest program. 0.25 keeps a run cell at 40-80 ms:
/// this host's interference comes in bursts of ~100 ms, so the best of
/// many short cells is far steadier than the best of a few long ones
/// (README, "Timing protocol").
pub fn guest_scale(size: Size) -> f64 {
    match size {
        Size::Full => 0.25,
        Size::Smoke => 0.05,
    }
}

/// The kernels a workload runs: all three, or just the cheapest where
/// the smoke test only needs the code path.
fn kernels(size: Size) -> &'static [Workload] {
    match size {
        Size::Full => &Workload::ALL,
        Size::Smoke => &[Workload::Mandelbrot],
    }
}

fn kernel_cfg(cfg: &str) -> (u32, VmConfig) {
    match cfg {
        "ppe" => (1, VmConfig::pinned_ppe()),
        "spe1" => (1, VmConfig::pinned_spe(1)),
        "spe6" => (6, VmConfig::pinned_spe(6)),
        "spe6w2" => (6, VmConfig::pinned_spe(6).with_host_workers(PAR_WORKERS)),
        other => unreachable!("unknown kernel config {other}"),
    }
}

fn kernel_cells(size: Size, cfgs: &[(&str, bool)], c: &mut Construct) -> Vec<Cell> {
    let scale = guest_scale(size);
    let mut cells = Vec::new();
    for &w in kernels(size) {
        for &(cfg_name, counts) in cfgs {
            let (threads, cfg) = kernel_cfg(cfg_name);
            let (vm, expected) = c.vm(|| w.build(threads, scale), cfg);
            cells.push(Cell {
                name: format!("{}.{cfg_name}", w.name()),
                counts,
                op: Op::Run { vm, expected },
            });
        }
    }
    cells
}

fn kernels_ppe(size: Size, _traced: bool, c: &mut Construct) -> Vec<Cell> {
    kernel_cells(size, &[("ppe", true)], c)
}

fn kernels_spe(size: Size, traced: bool, c: &mut Construct) -> Vec<Cell> {
    // The traced run also needs the PPE denominators of Figure 4(a).
    let mut cfgs = vec![("spe1", true), ("spe6", true)];
    if traced {
        cfgs.push(("ppe", false));
    }
    kernel_cells(size, &cfgs, c)
}

fn kernels_par(size: Size, traced: bool, c: &mut Construct) -> Vec<Cell> {
    // A traced run adds each cell's sequential twin to the same pass, so
    // `par.speedup_vs_seq` is a ratio of neighbours, not of processes. A
    // measured run spends its whole budget on the cells it reports.
    let mut cfgs = vec![("spe6w2", true)];
    if traced {
        cfgs.push(("spe6", false));
    }
    kernel_cells(size, &cfgs, c)
}

fn sync_migrate(size: Size, _traced: bool, c: &mut Construct) -> Vec<Cell> {
    let scale = guest_scale(size);
    let reps = (20_000.0 * scale) as i32;
    let mut cells = Vec::new();
    for (name, policy, annotated) in [
        ("mixed-annot", PlacementPolicy::Annotation, true),
        ("mixed-adapt", PlacementPolicy::adaptive(), false),
    ] {
        let cfg = VmConfig {
            policy,
            ..VmConfig::default()
        };
        let (vm, expected) = c.vm(|| hera_bench::mixed_program(scale, annotated), cfg);
        cells.push(Cell {
            name: name.into(),
            counts: true,
            op: Op::Run { vm, expected },
        });
    }
    for (name, cellvm) in [("sync6", false), ("sync6-cellvm", true)] {
        let mut cfg = VmConfig::pinned_spe(6);
        cfg.cellvm_style_sync = cellvm;
        let (vm, expected) = c.vm(|| hera_bench::sync_program(6, reps), cfg);
        cells.push(Cell {
            name: name.into(),
            counts: true,
            op: Op::Run { vm, expected },
        });
    }
    cells
}

fn snapshot(size: Size, _traced: bool, c: &mut Construct) -> Vec<Cell> {
    // One kernel on the VM-default 32 MB heap shows the heap-proportional
    // encode cost; all three on the fleet-sized 2 MB heap show the
    // payload-proportional one (compress carries ~900 KB per checkpoint).
    let grid: &[(Workload, u32)] = match size {
        Size::Full => &[
            (Workload::Mandelbrot, 32),
            (Workload::Compress, 2),
            (Workload::MpegAudio, 2),
            (Workload::Mandelbrot, 2),
        ],
        Size::Smoke => &[(Workload::Mandelbrot, 1)],
    };
    let scale = guest_scale(size);
    let mut cells = Vec::new();
    for &(w, heap_mb) in grid {
        let with_heap = |mut cfg: VmConfig| {
            cfg.heap.size_bytes = heap_mb << 20;
            cfg
        };
        let (plain, expected) = c.vm(|| w.build(6, scale), with_heap(VmConfig::pinned_spe(6)));
        // The checkpoint interval is defined by the plain run's length.
        let wall = plain
            .run()
            .expect("snapshot reference run")
            .stats
            .wall_cycles;
        let every = (wall / 8).max(1);
        let program = plain.program().clone();
        let ckpt = HeraJvm::new(
            program.clone(),
            with_heap(VmConfig::pinned_spe(6)).with_checkpoint_every(every),
        )
        .expect("constructs");
        let adopt = HeraJvm::new(
            program,
            with_heap(VmConfig::pinned_spe(2)).with_checkpoint_every(every),
        )
        .expect("constructs");
        let stem = format!("{}.h{heap_mb}", w.name());
        cells.push(Cell {
            name: format!("{stem}.plain"),
            counts: true,
            op: Op::Run {
                vm: plain,
                expected,
            },
        });
        cells.push(Cell {
            name: format!("{stem}.cycle"),
            counts: true,
            op: Op::SnapCycle {
                ckpt,
                adopt,
                expected,
            },
        });
    }
    cells
}

fn observed(size: Size, _traced: bool, c: &mut Construct) -> Vec<Cell> {
    let scale = guest_scale(size);
    let base = VmConfig::pinned_spe(6);
    let mut cells = Vec::new();
    for &w in kernels(size) {
        let (vm, expected) = c.vm(|| w.build(6, scale), base);
        let names = vm
            .program()
            .methods
            .iter()
            .map(|m| m.name.clone())
            .collect();
        cells.push(Cell {
            name: format!("{}.plain", w.name()),
            counts: true,
            op: Op::Run { vm, expected },
        });
        let (vm, expected) = c.vm(|| w.build(6, scale), base.with_tracing());
        cells.push(Cell {
            name: format!("{}.traced", w.name()),
            counts: true,
            op: Op::Traced { vm, expected },
        });
        let (vm, expected) = c.vm(|| w.build(6, scale), base.with_profiling());
        cells.push(Cell {
            name: format!("{}.profiled", w.name()),
            counts: true,
            op: Op::Profiled {
                vm,
                expected,
                names,
            },
        });
    }
    cells
}

/// E13's committed chaos fleet (`figures -- cluster-chaos`): six 2-SPE
/// machines, one 4x straggler, a two-crash storm.
fn e13(requests: u64) -> ClusterConfig {
    ClusterConfig {
        seed: 42,
        machines: 6,
        requests,
        threads: 2,
        scale: 0.02,
        num_spes: 2,
        heap_bytes: 1 << 20,
        utilization_pct: 60,
        crashes: crash_storm(42, 6, 2, 300, 700),
        migrations: vec![],
        slowdowns: vec![(0, 4, 0)],
        ..ClusterConfig::default()
    }
}

/// E15's committed heterogeneous fleet (`figures -- cluster-rebal`).
fn e15(requests: u64) -> ClusterConfig {
    ClusterConfig {
        num_spes: 6,
        utilization_pct: 75,
        shapes: [6, 2, 4, 2, 4, 6]
            .iter()
            .map(|&spe_count| MachineShape { spe_count })
            .collect(),
        migrations: vec![(0, 450), (5, 550)],
        scope: true,
        ..e13(requests)
    }
}

/// A fleet small enough for a debug build: two 2-SPE machines, a few
/// dozen requests, sparse checkpoints, no crash and no migration.
fn smoke_fleet(requests: u64) -> ClusterConfig {
    ClusterConfig {
        machines: 2,
        requests,
        threads: 2,
        scale: 0.02,
        num_spes: 2,
        heap_bytes: 1 << 20,
        checkpoint_every: 600_000,
        crashes: vec![],
        migrations: vec![],
        ..ClusterConfig::default()
    }
}

fn fleet_proofs(size: Size, traced: bool, _c: &mut Construct) -> Vec<Cell> {
    let (default, rebal) = match size {
        Size::Full => (ClusterConfig::default(), e15(1_500)),
        Size::Smoke => (
            ClusterConfig {
                crashes: vec![(1, 500)],
                migrations: vec![(0, 700)],
                ..smoke_fleet(40)
            },
            ClusterConfig {
                shapes: vec![MachineShape { spe_count: 2 }, MachineShape { spe_count: 1 }],
                crashes: vec![(1, 500)],
                scope: true,
                ..smoke_fleet(40)
            },
        ),
    };
    let mut cells = vec![
        Cell {
            name: "default".into(),
            counts: true,
            op: Op::Experiment {
                cfg: default.clone(),
                chrome: false,
            },
        },
        Cell {
            name: "rebal".into(),
            counts: true,
            op: Op::Rebal { cfg: rebal },
        },
    ];
    if traced {
        // The same experiment without its crash and migration: the
        // difference is what recovery and adoption proofs cost.
        cells.push(Cell {
            name: "default-nofault".into(),
            counts: false,
            op: Op::Experiment {
                cfg: ClusterConfig {
                    crashes: vec![],
                    migrations: vec![],
                    ..default
                },
                chrome: false,
            },
        });
    }
    cells
}

/// Request count of the fleet-loop main cell and of its quarter-size
/// probe (the two points of the fixed/per-request fit).
pub fn fleet_loop_requests(size: Size) -> (u64, u64) {
    match size {
        Size::Full => (100_000, 25_000),
        Size::Smoke => (40, 20),
    }
}

fn fleet_loop(size: Size, traced: bool, _c: &mut Construct) -> Vec<Cell> {
    let (full, quarter) = fleet_loop_requests(size);
    let cfg = |requests, resil: bool, scope| ClusterConfig {
        resil: resil.then(|| ResilConfig::default().full()),
        scope,
        ..match size {
            Size::Full => e13(requests),
            Size::Smoke => smoke_fleet(requests),
        }
    };
    let cell = |name: &str, cfg, chrome| Cell {
        name: name.into(),
        counts: name == "loop",
        op: Op::Experiment { cfg, chrome },
    };
    let mut cells = vec![cell("loop", cfg(full, true, true), false)];
    if traced {
        cells.push(cell("loop-quarter", cfg(quarter, true, true), true));
        cells.push(cell("loop-noresil", cfg(full, false, true), false));
        cells.push(cell("loop-noscope", cfg(full, true, false), false));
    }
    cells
}

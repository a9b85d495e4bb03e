//! The timing protocol and the metrics derived from it.
//!
//! A run is: construct the workload's cells (several times, for a steady
//! `setup_s`), one untimed warm-up pass, then timed passes — each running
//! every cell once, in an order shuffled from the seed — until the time
//! budget is used. A cell's time is its **best over passes**; workload
//! throughput is Σ work / Σ best cell time. See the README for the noise
//! measurements behind best-of.

use crate::cells::{fleet_loop_requests, guest_scale, Cell, CellOut, Construct, Size, WorkloadDef};
use crate::span::Tracer;
use crate::stats::{best_of, iqr_pct, median, two_point_fit};
use crate::units;
use hera_cell::OpClass;
use hera_rng::SplitMix64;
use hera_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Printed by every workload of a measured run.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric. `exact` ones are counts of the deterministic
/// simulation and must be identical between two runs of any two commits
/// that claim not to change virtual behaviour.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str, exact: bool) -> Layer {
    Layer {
        name,
        unit,
        better: "higher",
        exact,
    }
}

/// Printed by every workload of a traced run; a metric that does not
/// apply to the workload reads 0. Groups as in the README.
pub const PER_LAYER: &[Layer] = &[
    // A: construction
    timing("workloads.build_ms", "ms"),
    timing("isa.verify_us", "us"),
    timing("jit.compile_us", "us"),
    count("jit.machine_ops", "count"),
    timing("core.vm_new_us", "us"),
    // B: run cells
    timing("core.run_ns_per_op.compress.ppe", "ns"),
    timing("core.run_ns_per_op.compress.spe1", "ns"),
    timing("core.run_ns_per_op.compress.spe6", "ns"),
    timing("core.run_ns_per_op.compress.spe6w2", "ns"),
    timing("core.run_ns_per_op.mpegaudio.ppe", "ns"),
    timing("core.run_ns_per_op.mpegaudio.spe1", "ns"),
    timing("core.run_ns_per_op.mpegaudio.spe6", "ns"),
    timing("core.run_ns_per_op.mpegaudio.spe6w2", "ns"),
    timing("core.run_ns_per_op.mandelbrot.ppe", "ns"),
    timing("core.run_ns_per_op.mandelbrot.spe1", "ns"),
    timing("core.run_ns_per_op.mandelbrot.spe6", "ns"),
    timing("core.run_ns_per_op.mandelbrot.spe6w2", "ns"),
    timing("core.run_ns_per_op.mixed-annot", "ns"),
    timing("core.run_ns_per_op.mixed-adapt", "ns"),
    timing("core.run_ns_per_op.sync6", "ns"),
    timing("core.run_ns_per_op.sync6-cellvm", "ns"),
    // C: unit costs
    timing("cell.exec_ns.ppe", "ns"),
    timing("cell.exec_ns.spe", "ns"),
    timing("cell.hwcache_hit_ns", "ns"),
    timing("cell.hwcache_miss_ns", "ns"),
    timing("cell.dma_ns", "ns"),
    timing("cell.eib_request_ns", "ns"),
    timing("softcache.data_hit_ns", "ns"),
    timing("softcache.data_miss_ns", "ns"),
    timing("softcache.data_write_ns", "ns"),
    timing("softcache.purge_us", "us"),
    timing("softcache.writeback_us", "us"),
    timing("softcache.code_lookup_ns", "ns"),
    timing("mem.heap_slot_rw_ns", "ns"),
    timing("mem.alloc_ns", "ns"),
    timing("mem.gc_collect_us", "us"),
    timing("trace.emit_ns", "ns"),
    timing("prof.enter_bill_leave_ns", "ns"),
    higher("snap.crc32_mb_per_s", "MB/s", false),
    higher("snap.rle_mb_per_s", "MB/s", false),
    // D: counts from RunStats
    count("core.guest_ops", "count"),
    count("softcache.data_lookups", "count"),
    higher("softcache.data_hit_rate", "ratio", true),
    count("softcache.code_lookups", "count"),
    higher("softcache.code_hit_rate", "ratio", true),
    count("softcache.purges", "count"),
    count("softcache.writebacks", "count"),
    count("cell.dma_transfers", "count"),
    count("cell.bus_bytes", "B"),
    count("cell.eib_mean_queue_cycles", "cycles"),
    count("core.thread_switches", "count"),
    count("core.migrations", "count"),
    count("core.contended_acquires", "count"),
    count("mem.gc_collections", "count"),
    count("jit.methods_compiled", "count"),
    // E: reconciliation
    timing("model.cell_exec_pct", "%"),
    timing("model.cell_hwcache_pct", "%"),
    timing("model.cell_dma_pct", "%"),
    timing("model.softcache_data_pct", "%"),
    timing("model.softcache_code_pct", "%"),
    timing("model.residual_pct", "%"),
    // F: par
    higher("par.speedup_vs_seq", "ratio", false),
    higher("par.commit_rate", "ratio", false),
    timing("par.epochs", "count"),
    timing("par.reexec", "count"),
    // G: snapshot
    timing("core.snapshot.encode_ms.heap32", "ms"),
    timing("core.snapshot.encode_ms.heap2", "ms"),
    timing("core.snapshot.fresh_encode_ms", "ms"),
    count("core.snapshot.bytes", "B"),
    count("core.snapshot.checkpoints", "count"),
    timing("core.snapshot.inspect_us", "us"),
    timing("core.snapshot.restore_decode_ms", "ms"),
    timing("core.snapshot.adopt_decode_ms", "ms"),
    // H: observers
    timing("trace.sink_overhead_pct", "%"),
    count("trace.events", "count"),
    timing("trace.export_ms", "ms"),
    higher("trace.export_mb_per_s", "MB/s", false),
    timing("trace.summary_ms", "ms"),
    timing("prof.overhead_pct", "%"),
    timing("prof.collapsed_us", "us"),
    // I: fleet
    timing("cluster.traffic_gen_ns_per_req", "ns"),
    timing("cluster.fixed_ms", "ms"),
    timing("cluster.loop_us_per_request", "us"),
    timing("cluster.resil_overhead_pct", "%"),
    timing("cluster.scope_overhead_pct", "%"),
    count("cluster.scope_spans", "count"),
    timing("cluster.chrome_json_ms", "ms"),
    timing("cluster.render_us", "us"),
    timing("cluster.recovery_ms", "ms"),
    count("cluster.adoption_proofs", "count"),
    // J: harness and exact virtual results
    higher("bench.passes", "count", false),
    timing("bench.pass_ms_p50", "ms"),
    timing("bench.noise_iqr_pct", "%"),
    timing("bench.trace_overhead_pct", "%"),
    timing("bench.construct_ms", "ms"),
    timing("bench.warmup_ms", "ms"),
    count("virt.cycles", "cycles"),
    count("model.fig4a_err_pct", "%"),
];

/// A set-up is repeated until it has run this often ...
const SETUP_REPS: usize = 15;
/// ... or until set-ups have used this much time.
const SETUP_SECONDS: f64 = 2.5;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// How to run a workload.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Shuffles the cell order of every pass.
    pub seed: u64,
    /// Time budget of the timed passes (and, traced, the unit costs).
    pub seconds: f64,
    /// A fixed pass count instead of the time budget.
    pub passes: Option<u32>,
    /// Traced run: spans on, per-layer metrics out.
    pub trace: bool,
    pub size: Size,
    /// Σ best cell time of this workload's measured run, if one was
    /// written earlier (denominator of `bench.trace_overhead_pct`).
    pub measured_best_ns: Option<u64>,
}

/// Per-cell summary kept in the result file.
pub struct CellSummary {
    pub name: String,
    pub counts: bool,
    pub best_ns: u64,
    pub median_ns: u64,
    pub work: u64,
    pub virt: u64,
}

/// Everything one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    /// Every end-to-end metric, in table order (gated only when they
    /// come from a measured run).
    pub end_to_end: Vec<Metric>,
    /// Every per-layer metric, in table order (traced run only).
    pub per_layer: Option<Vec<Metric>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub passes: usize,
    pub cells: Vec<CellSummary>,
    /// Σ best cell time over the counting cells.
    pub best_ns: u64,
    /// Chrome JSON of the harness's own spans (traced run only).
    pub chrome_trace: Option<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// What the run reports: the per-layer metrics of a traced run, the
    /// end-to-end metrics of a measured one.
    pub fn metrics(&self) -> &[Metric] {
        self.per_layer.as_deref().unwrap_or(&self.end_to_end)
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        let mut all = self
            .end_to_end
            .iter()
            .chain(self.per_layer.iter().flatten());
        all.find(|m| m.name == name).map(|m| m.value)
    }
}

/// Run one workload under the timing protocol.
pub fn run(def: &WorkloadDef, opts: RunOpts) -> RunResult {
    // ---- set-up: construct the cells and run one untimed warm-up pass
    // (allocator and page warm-up halves the first fleet pass). Cheap
    // set-ups are repeated and the median reported, so `setup_s` is
    // steady enough to show work that a later change moves into it.
    let t_setup = Instant::now();
    let (mut setup_ns, mut construct_ns, mut warmup_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut construct = Construct {
        build_ns: u64::MAX,
        verify_ns: u64::MAX,
        vm_new_ns: u64::MAX,
    };
    let mut acc = Acc::default();
    let mut untraced = Tracer::new(false);
    let (cells, warm) = loop {
        let mut c = Construct::default();
        let t = Instant::now();
        let cells = def.build(opts.size, opts.trace, &mut c);
        let built = t.elapsed().as_nanos() as u64;
        let warm: Vec<CellOut> = cells
            .iter()
            .map(|c| acc.take(c.exec(&mut untraced)))
            .collect();
        let total = t.elapsed().as_nanos() as u64;
        construct_ns.push(built);
        warmup_ns.push(total - built);
        setup_ns.push(total);
        construct.build_ns = construct.build_ns.min(c.build_ns);
        construct.verify_ns = construct.verify_ns.min(c.verify_ns);
        construct.vm_new_ns = construct.vm_new_ns.min(c.vm_new_ns);
        let enough =
            setup_ns.len() >= SETUP_REPS || t_setup.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if enough || opts.size == Size::Smoke {
            break (cells, warm);
        }
    };
    let (setup_ns, construct_ns, warmup_ns) =
        (median(&setup_ns), median(&construct_ns), median(&warmup_ns));

    // ---- measurement ----
    let t_measure = Instant::now();
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    if opts.trace {
        probe_layers(def, &cells, opts.size, &mut layers);
    }
    let mut tracer = Tracer::new(opts.trace);
    let mut rng = SplitMix64::new(opts.seed);
    let mut times: Vec<Vec<u64>> = vec![Vec::new(); cells.len()];
    let mut pass_ns: Vec<u64> = Vec::new();
    let mut last = warm;
    loop {
        let done = pass_ns.len();
        let stop = match opts.passes {
            Some(n) => done >= n as usize,
            None => {
                let spent = t_measure.elapsed().as_secs_f64();
                let mean = pass_ns.iter().sum::<u64>() as f64 / 1e9 / done.max(1) as f64;
                done >= 2 && spent + mean > opts.seconds
            }
        };
        if stop {
            break;
        }
        let mut order: Vec<usize> = (0..cells.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let t = Instant::now();
        tracer.span("bench.pass", |tr| {
            for &i in &order {
                tr.begin_op(i);
                let out = tr.span("bench.cell", |tr| cells[i].exec(tr));
                let mut out = acc.take(out);
                // Same process, same inputs: anything rendered must repeat.
                if out.failures.is_empty()
                    && (out.fingerprint, out.virt, out.work)
                        != (last[i].fingerprint, last[i].virt, last[i].work)
                {
                    acc.failed += 1;
                    acc.failures.push(format!(
                        "{}: pass {} rendered different bytes than the pass before",
                        cells[i].name,
                        done + 1
                    ));
                }
                out.failures.clear();
                times[i].push(out.host_ns);
                last[i] = out;
            }
        });
        pass_ns.push(t.elapsed().as_nanos() as u64);
    }

    // ---- results ----
    let best: Vec<u64> = times.iter().map(|t| best_of(t)).collect();
    let counting = || (0..cells.len()).filter(|&i| cells[i].counts);
    let best_ns: u64 = counting().map(|i| best[i]).sum();
    let work: u64 = counting().map(|i| last[i].work).sum();
    let virt: u64 = counting().map(|i| last[i].virt).sum();
    if opts.size == Size::Full && virt != def.virt_cycles {
        acc.failed += 1;
        acc.failures.push(format!(
            "virtual cycles moved: {virt}, committed {} (virtual time must stay exact)",
            def.virt_cycles
        ));
    }

    let per_layer = opts.trace.then(|| {
        let view = View {
            def,
            cells: &cells,
            last: &last,
            best: &best,
            tracer: &tracer,
        };
        view.layer_metrics(&mut layers);
        let ms = |ns: u64| ns as f64 / 1e6;
        layers.insert("workloads.build_ms".into(), ms(construct.build_ns));
        layers.insert("isa.verify_us".into(), construct.verify_ns as f64 / 1e3);
        layers.insert("core.vm_new_us".into(), construct.vm_new_ns as f64 / 1e3);
        layers.insert("bench.passes".into(), pass_ns.len() as f64);
        layers.insert("bench.pass_ms_p50".into(), ms(median(&pass_ns)));
        let pass_f: Vec<f64> = pass_ns.iter().map(|&n| n as f64).collect();
        layers.insert("bench.noise_iqr_pct".into(), iqr_pct(&pass_f));
        layers.insert("bench.construct_ms".into(), ms(construct_ns));
        layers.insert("bench.warmup_ms".into(), ms(warmup_ns));
        layers.insert("virt.cycles".into(), virt as f64);
        if let Some(base) = opts.measured_best_ns.filter(|&b| b > 0) {
            let pct = (best_ns as f64 - base as f64) / base as f64 * 100.0;
            layers.insert("bench.trace_overhead_pct".into(), pct);
        }
        debug_assert!(
            layers
                .keys()
                .all(|k| PER_LAYER.iter().any(|l| l.name == k.as_str())),
            "a derived metric is missing from PER_LAYER"
        );
        PER_LAYER
            .iter()
            .map(|l| Metric {
                name: l.name.into(),
                value: finite(layers.get(l.name).copied().unwrap_or(0.0)),
                unit: l.unit,
            })
            .collect()
    });
    let end_to_end = {
        let value = |name: &str| match name {
            "work_per_s" => work as f64 / (best_ns.max(1) as f64 / 1e9),
            "peak_rss_mb" => peak_rss_mb(),
            "setup_s" => setup_ns as f64 / 1e9,
            other => unreachable!("no rule for end-to-end metric {other}"),
        };
        END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name.into(),
                value: finite(value(m.name)),
                unit: m.unit,
            })
            .collect()
    };

    let summaries = cells
        .iter()
        .enumerate()
        .map(|(i, c)| CellSummary {
            name: c.name.clone(),
            counts: c.counts,
            best_ns: best[i],
            median_ns: median(&times[i]),
            work: last[i].work,
            virt: last[i].virt,
        })
        .collect();
    let names: Vec<String> = cells.iter().map(|c| c.name.clone()).collect();
    RunResult {
        workload: def.name,
        end_to_end,
        per_layer,
        attempted: acc.attempted.max(1),
        failed: acc.failed.min(acc.attempted.max(1)),
        failures: acc.failures,
        passes: pass_ns.len(),
        cells: summaries,
        best_ns,
        chrome_trace: opts.trace.then(|| tracer.chrome_json(&names)),
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Operation and failure tally across warm-up and timed passes.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Acc {
    fn take(&mut self, out: CellOut) -> CellOut {
        self.attempted += out.ops;
        self.failed += out.failures.len() as u64;
        self.failures.extend(out.failures.iter().cloned());
        out
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measurements a traced run makes besides its passes: unit costs and
/// the construction-side probes (groups A and C, parts of G and I).
fn probe_layers(def: &WorkloadDef, cells: &[Cell], size: Size, out: &mut BTreeMap<String, f64>) {
    if !def.is_vm() {
        let (requests, _) = fleet_loop_requests(size);
        out.insert(
            "cluster.traffic_gen_ns_per_req".into(),
            units::traffic_gen_ns_per_req(requests),
        );
        return;
    }
    for (name, v) in units::unit_costs(size) {
        out.insert(name.into(), v);
    }
    let programs: Vec<_> = cells.iter().filter_map(Cell::program).collect();
    let (ns, ops) = units::jit_cost(&programs);
    out.insert("jit.compile_us".into(), ns / 1e3);
    out.insert("jit.machine_ops".into(), ops as f64);
    if def.name == "snapshot" {
        out.insert(
            "core.snapshot.fresh_encode_ms".into(),
            units::fresh_encode_ns(programs[0]) / 1e6,
        );
    }
}

/// Read-only view of a finished run, for deriving per-layer metrics.
struct View<'a> {
    def: &'a WorkloadDef,
    cells: &'a [Cell],
    last: &'a [CellOut],
    best: &'a [u64],
    tracer: &'a Tracer,
}

impl View<'_> {
    fn idx(&self, name: &str) -> Option<usize> {
        self.cells.iter().position(|c| c.name == name)
    }

    /// Best time of `span` on cell `i`, in nanoseconds (0 if never seen).
    fn span(&self, i: usize, span: &str) -> f64 {
        self.tracer.best_ns(i, span).unwrap_or(0) as f64
    }

    /// Σ over all cells of the best time of `span`.
    fn span_sum(&self, span: &str) -> f64 {
        (0..self.cells.len()).map(|i| self.span(i, span)).sum()
    }

    /// Σ best time of the cells whose name ends with `suffix`.
    fn best_sum(&self, suffix: &str) -> f64 {
        (0..self.cells.len())
            .filter(|&i| self.cells[i].name.ends_with(suffix))
            .map(|i| self.best[i] as f64)
            .sum()
    }

    fn layer_metrics(&self, out: &mut BTreeMap<String, f64>) {
        if self.def.is_vm() {
            self.counts_and_model(out);
        }
        let mut put = |name: &str, v: f64| {
            out.insert(name.to_string(), v);
        };
        // B: host ns per retired op of every plain run cell the table names.
        for (i, c) in self.cells.iter().enumerate() {
            let name = format!("core.run_ns_per_op.{}", c.name);
            if PER_LAYER.iter().any(|l| l.name == name) && self.last[i].work > 0 {
                put(&name, self.best[i] as f64 / self.last[i].work as f64);
            }
        }
        let fact = |name: &str| -> f64 { self.last.iter().map(|o| o.fact(name)).sum() };
        let pct = |a: f64, base: f64| {
            if base > 0.0 {
                (a - base) / base * 100.0
            } else {
                0.0
            }
        };
        match self.def.name {
            "kernels-spe" => {
                // Simulated speedups vs the paper's Figure 4(a) bars.
                let mut err = 0.0;
                for w in Workload::ALL {
                    let wall = |cfg: &str| {
                        self.idx(&format!("{}.{cfg}", w.name()))
                            .map_or(0.0, |i| self.last[i].virt as f64)
                    };
                    let (paper1, paper6) = hera_bench::paper_fig4a(w);
                    for (cfg, paper) in [("spe1", paper1), ("spe6", paper6)] {
                        err += (wall("ppe") / wall(cfg).max(1.0) - paper).abs() / paper;
                    }
                }
                put("model.fig4a_err_pct", err / 6.0 * 100.0);
            }
            "kernels-par" => {
                let par = self.best_sum(".spe6w2");
                put("par.speedup_vs_seq", self.best_sum(".spe6") / par.max(1.0));
                let (mut epochs, mut ok, mut reexec, mut dropped) = (0, 0, 0, 0);
                for o in self.last {
                    epochs += o.par.epochs;
                    ok += o.par.committed;
                    reexec += o.par.reexec;
                    dropped += o.par.discarded;
                }
                let all = (ok + reexec + dropped).max(1);
                put("par.commit_rate", ok as f64 / all as f64);
                put("par.epochs", epochs as f64);
                put("par.reexec", reexec as f64);
            }
            "snapshot" => {
                let (mut restore, mut adopt, mut inspect, mut cycles) = (0.0, 0.0, 0.0, 0.0);
                let mut encode = [(0.0, 0.0); 2];
                for (i, c) in self.cells.iter().enumerate() {
                    let Some(stem) = c.name.strip_suffix(".cycle") else {
                        continue;
                    };
                    let plain = self
                        .idx(&format!("{stem}.plain"))
                        .map_or(0.0, |p| self.best[p] as f64);
                    let o = &self.last[i];
                    let remaining = plain * o.fact("remaining_frac");
                    let slot = usize::from(!stem.ends_with(".h32"));
                    encode[slot].0 += self.span(i, "core.run_checkpointed") - plain;
                    encode[slot].1 += o.fact("checkpoints");
                    restore += self.span(i, "core.restore_bytes") - remaining;
                    adopt += self.span(i, "core.adopt_bytes") - remaining;
                    inspect += self.span(i, "core.snapshot.inspect");
                    cycles += 1.0;
                }
                let per = |sum: f64, n: f64| if n > 0.0 { sum / n } else { 0.0 };
                put(
                    "core.snapshot.encode_ms.heap32",
                    per(encode[0].0, encode[0].1) / 1e6,
                );
                put(
                    "core.snapshot.encode_ms.heap2",
                    per(encode[1].0, encode[1].1) / 1e6,
                );
                put("core.snapshot.bytes", fact("snapshot_bytes"));
                put("core.snapshot.checkpoints", fact("checkpoints"));
                put("core.snapshot.inspect_us", per(inspect, cycles) / 1e3);
                put(
                    "core.snapshot.restore_decode_ms",
                    per(restore, cycles) / 1e6,
                );
                put("core.snapshot.adopt_decode_ms", per(adopt, cycles) / 1e6);
            }
            "observed" => {
                let plain = self.best_sum(".plain");
                let export = self.span_sum("trace.chrome_trace_json");
                put(
                    "trace.sink_overhead_pct",
                    pct(self.span_sum("core.run_traced"), plain),
                );
                put("trace.events", fact("trace_events"));
                put("trace.export_ms", export / 1e6);
                put(
                    "trace.export_mb_per_s",
                    fact("trace_json_bytes") / (1 << 20) as f64 / (export.max(1.0) / 1e9),
                );
                put(
                    "trace.summary_ms",
                    self.span_sum("trace.text_summary") / 1e6,
                );
                put(
                    "prof.overhead_pct",
                    pct(self.span_sum("core.run_profiled"), plain),
                );
                put("prof.collapsed_us", self.span_sum("prof.collapsed") / 1e3);
            }
            "fleet-proofs" => {
                let run = |cell: &str| {
                    self.idx(cell)
                        .map_or(0.0, |i| self.span(i, "cluster.run_experiment"))
                };
                put(
                    "cluster.recovery_ms",
                    (run("default") - run("default-nofault")) / 1e6,
                );
                put("cluster.render_us", self.span_sum("cluster.render") / 1e3);
                let proofs: f64 = (0..self.cells.len())
                    .filter(|&i| self.cells[i].counts)
                    .map(|i| self.last[i].fact("adoption_proofs"))
                    .sum();
                put("cluster.adoption_proofs", proofs);
            }
            "fleet-loop" => {
                let run = |cell: &str| {
                    self.idx(cell)
                        .map_or(0.0, |i| self.span(i, "cluster.run_experiment"))
                };
                let work = |cell: &str| self.idx(cell).map_or(0.0, |i| self.last[i].work as f64);
                let (fixed, per_request) = two_point_fit(
                    (work("loop-quarter"), run("loop-quarter")),
                    (work("loop"), run("loop")),
                );
                put("cluster.fixed_ms", fixed / 1e6);
                put("cluster.loop_us_per_request", per_request / 1e3);
                put(
                    "cluster.resil_overhead_pct",
                    pct(run("loop"), run("loop-noresil")),
                );
                put(
                    "cluster.scope_overhead_pct",
                    pct(run("loop"), run("loop-noscope")),
                );
                put(
                    "cluster.scope_spans",
                    self.idx("loop")
                        .map_or(0.0, |i| self.last[i].fact("scope_spans")),
                );
                put(
                    "cluster.chrome_json_ms",
                    self.span_sum("cluster.scope.chrome_json") / 1e6,
                );
                put(
                    "cluster.render_us",
                    self.idx("loop")
                        .map_or(0.0, |i| self.span(i, "cluster.render"))
                        / 1e3,
                );
            }
            _ => {}
        }
    }

    /// Groups D and E over the counting cells that ran a guest program.
    fn counts_and_model(&self, out: &mut BTreeMap<String, f64>) {
        let unit = |name: &str| out.get(name).copied().unwrap_or(0.0);
        let mut d = Counts::default();
        let (mut exec_ns, mut hw_ns, mut run_ns) = (0.0, 0.0, 0.0);
        for (i, c) in self.cells.iter().enumerate() {
            let Some(s) = self.last[i].stats.as_ref().filter(|_| c.counts) else {
                continue;
            };
            run_ns += self.best[i] as f64;
            d.guest_ops += s.ppe.total_ops() + s.spe.total_ops();
            d.hits += s.data_cache.hits;
            d.misses += s.data_cache.misses;
            d.purges += s.data_cache.purges;
            d.writebacks += s.data_cache.writebacks;
            d.code_lookups += s.code_cache.toc_lookups;
            d.method_hits += s.code_cache.method_hits;
            d.method_misses += s.code_cache.method_misses;
            d.transfers += s.bus.transfers;
            d.bus_bytes += s.bus.bytes_transferred;
            d.queue_cycles += s.bus.mean_queue_cycles * s.bus.transfers as f64;
            d.switches += s.thread_switches;
            d.migrations += s.migrations;
            d.contended += s.contended_acquires;
            d.gcs += s.gc.collections;
            d.compiled += s.registry.ppe_compilations + s.registry.spe_compilations;
            // Compute-class ops are `CellMachine::exec` calls; the PPE's
            // memory-class ops are `HwCache::access` calls (L1 hits are
            // charged as local memory, everything deeper as main memory).
            let compute = |b: &hera_cell::CycleBreakdown| -> u64 {
                [
                    OpClass::FloatingPoint,
                    OpClass::Integer,
                    OpClass::Branch,
                    OpClass::Stack,
                ]
                .iter()
                .map(|&class| b.ops(class))
                .sum()
            };
            exec_ns += compute(&s.ppe) as f64 * unit("cell.exec_ns.ppe")
                + compute(&s.spe) as f64 * unit("cell.exec_ns.spe");
            hw_ns += s.ppe.ops(OpClass::LocalMemory) as f64 * unit("cell.hwcache_hit_ns")
                + s.ppe.ops(OpClass::MainMemory) as f64 * unit("cell.hwcache_miss_ns");
        }
        let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
        // A data-cache miss issues one DMA; `cell.dma_ns` bills that part
        // under the DMA component, so the two shares do not overlap.
        let miss_self = (unit("softcache.data_miss_ns") - unit("cell.dma_ns")).max(0.0);
        let parts = [
            ("model.cell_exec_pct", exec_ns),
            ("model.cell_hwcache_pct", hw_ns),
            (
                "model.cell_dma_pct",
                d.transfers as f64 * unit("cell.dma_ns"),
            ),
            (
                "model.softcache_data_pct",
                d.hits as f64 * unit("softcache.data_hit_ns") + d.misses as f64 * miss_self,
            ),
            (
                "model.softcache_code_pct",
                d.code_lookups as f64 * unit("softcache.code_lookup_ns"),
            ),
        ];
        let mut residual = 100.0;
        for (name, ns) in parts {
            let share = if run_ns > 0.0 {
                ns / run_ns * 100.0
            } else {
                0.0
            };
            residual -= share;
            out.insert(name.into(), share);
        }
        out.insert("model.residual_pct".into(), residual);

        let lookups = d.hits + d.misses;
        for (name, v) in [
            ("core.guest_ops", d.guest_ops as f64),
            ("softcache.data_lookups", lookups as f64),
            ("softcache.data_hit_rate", ratio(d.hits, lookups)),
            ("softcache.code_lookups", d.code_lookups as f64),
            (
                "softcache.code_hit_rate",
                ratio(d.method_hits, d.method_hits + d.method_misses),
            ),
            ("softcache.purges", d.purges as f64),
            ("softcache.writebacks", d.writebacks as f64),
            ("cell.dma_transfers", d.transfers as f64),
            ("cell.bus_bytes", d.bus_bytes as f64),
            (
                "cell.eib_mean_queue_cycles",
                if d.transfers > 0 {
                    d.queue_cycles / d.transfers as f64
                } else {
                    0.0
                },
            ),
            ("core.thread_switches", d.switches as f64),
            ("core.migrations", d.migrations as f64),
            ("core.contended_acquires", d.contended as f64),
            ("mem.gc_collections", d.gcs as f64),
            ("jit.methods_compiled", d.compiled as f64),
        ] {
            out.insert(name.into(), v);
        }
    }
}

#[derive(Default)]
struct Counts {
    guest_ops: u64,
    hits: u64,
    misses: u64,
    purges: u64,
    writebacks: u64,
    code_lookups: u64,
    method_hits: u64,
    method_misses: u64,
    transfers: u64,
    bus_bytes: u64,
    queue_cycles: f64,
    switches: u64,
    migrations: u64,
    contended: u64,
    gcs: u64,
    compiled: u64,
}

// ------------------------------------------------------------- result files

/// Facts about the host and the build, recorded in every result file.
pub struct HostInfo {
    pub host_cpus: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
}

impl HostInfo {
    pub fn probe() -> HostInfo {
        let cmd = |prog: &str, args: &[&str]| {
            std::process::Command::new(prog)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".into())
        };
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        HostInfo {
            host_cpus: hera_bench::host_cpus(),
            cpu_model: cpuinfo
                .lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map_or("unknown".into(), |s| s.trim().to_string()),
            rustc: cmd("rustc", &["-V"]),
            git_commit: cmd("git", &["rev-parse", "--short", "HEAD"]),
        }
    }
}

/// Build profile of this binary.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn json_str(s: &str) -> String {
    hera_trace::chrome::json_string(s)
}

/// `{"name":{"value":v,"unit":"u"},...}`.
fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result the benchmark contract asks for on stdout.
pub fn contract_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(r.metrics())
    )
}

/// The result file: the contract line's content plus provenance.
pub fn result_json(r: &RunResult, opts: &RunOpts, host: &HostInfo) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", json_str(r.workload));
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if opts.trace { "traced" } else { "measured" }
    );
    let _ = writeln!(s, "  \"seed\": {},", opts.seed);
    let _ = writeln!(s, "  \"seconds\": {},", opts.seconds);
    let _ = writeln!(s, "  \"passes\": {},", r.passes);
    let _ = writeln!(s, "  \"size\": \"{:?}\",", opts.size);
    let _ = writeln!(s, "  \"guest_scale\": {},", guest_scale(opts.size));
    let _ = writeln!(s, "  \"host_cpus\": {},", host.host_cpus);
    let _ = writeln!(s, "  \"cpu_model\": {},", json_str(&host.cpu_model));
    let _ = writeln!(s, "  \"rustc\": {},", json_str(&host.rustc));
    let _ = writeln!(s, "  \"profile\": \"{}\",", build_profile());
    let _ = writeln!(s, "  \"git_commit\": {},", json_str(&host.git_commit));
    let _ = writeln!(s, "  \"correct\": {},", r.correct());
    let _ = writeln!(s, "  \"attempted\": {},", r.attempted);
    let _ = writeln!(s, "  \"failed\": {},", r.failed);
    let failures: Vec<String> = r.failures.iter().map(|f| json_str(f)).collect();
    let _ = writeln!(s, "  \"failures\": [{}],", failures.join(", "));
    let _ = writeln!(s, "  \"best_ns\": {},", r.best_ns);
    let _ = writeln!(s, "  \"metrics\": {},", metrics_json(r.metrics()));
    let cells: Vec<String> = r
        .cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\": {}, \"counts\": {}, \"best_ns\": {}, \"median_ns\": {}, \
                 \"work\": {}, \"virt\": {}}}",
                json_str(&c.name),
                c.counts,
                c.best_ns,
                c.median_ns,
                c.work,
                c.virt
            )
        })
        .collect();
    let _ = writeln!(s, "  \"cells\": [\n{}\n  ]", cells.join(",\n"));
    s.push_str("}\n");
    s
}

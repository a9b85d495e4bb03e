//! Regenerate every table and figure from the paper's evaluation (§4),
//! printing measured values next to the paper's reported ones.
//!
//! ```text
//! figures EXPERIMENT [--scale S]
//!
//! EXPERIMENT: all | fig4a | fig4b | fig5 | fig6 | fig7
//!           | ablate-data | ablate-jit | adaptive-cache | placement
//!           | cellvm-sync
//!           | trace [WORKLOAD]   (emit a Chrome/Perfetto trace + summary;
//!                                 exported twice and byte-compared, B/E
//!                                 records must balance — exit 1 otherwise)
//!           | chaos [WORKLOAD]   (fault-injection run + recovery report)
//!           | chaos-crash [WORKLOAD]  (kill the whole machine mid-run, restore
//!                                     from the latest checkpoint, report the
//!                                     recovery cost in virtual cycles)
//!           | perf-gate          (rerun nine full-scale cells; exit 1 if a
//!                                 virtual metric moved from its pin)
//!           | profile [WORKLOAD]       (per-method cost profile + collapsed stacks)
//!           | profile-diff [WORKLOAD]  (diff the PPE profile against 6 SPEs)
//!           | cluster [--machines N] [--requests N] [--seed S]
//!                     (fleet simulation: request trace, load balancing, crash
//!                      recovery, live migration; replayed twice and compared)
//!           | cluster-chaos [--machines N] [--requests N] [--seed S]
//!                     (resilience matrix: fault-free baseline plus every
//!                      ± breakers / ± hedging / ± shedding combination under
//!                      one 4x straggler and a seeded crash storm; replayed
//!                      twice, byte-compared, and gated on the E13 acceptance
//!                      bounds; writes cluster_chaos.txt)
//!           | fleet-trace [--machines N] [--requests N] [--seed S]
//!                     (E13 chaos matrix with hera-scope tracing on: per-request
//!                      span trees, causal flow arrows, fixed-virtual-interval
//!                      fleet samplers; replayed twice and byte-compared; writes
//!                      fleet_trace.json + fleet_slo.txt)
//!           | cluster-rebal [--machines N] [--requests N] [--seed S]
//!                     (E15 proactive-degradation matrix: heterogeneous
//!                      2/4/6-SPE fleet under a straggler + crash storm;
//!                      reactive resilience vs breaker/slowdown-triggered
//!                      drains vs drains + auto-rebalancer; replayed twice,
//!                      byte-compared, gated on p99/goodput and cross-shape
//!                      adoption proofs; writes cluster_rebal.txt)
//! ```
//!
//! Absolute cycle counts are simulator cycles (calibrated cost model,
//! not hardware measurements); the claims under reproduction are the
//! *shapes*: who wins, by roughly what factor, and where the knees fall.

#![forbid(unsafe_code)]

use hera_bench as xb;

const EXPERIMENTS: &[&str] = &[
    "all",
    "fig4a",
    "fig4b",
    "fig5",
    "fig6",
    "fig7",
    "ablate-data",
    "ablate-jit",
    "adaptive-cache",
    "placement",
    "cellvm-sync",
    "trace",
    "chaos",
    "chaos-crash",
    "perf-gate",
    "profile",
    "profile-diff",
    "cluster",
    "cluster-chaos",
    "fleet-trace",
    "cluster-rebal",
];

fn usage_lines() -> String {
    format!(
        "usage: figures EXPERIMENT [--scale S] \
         [--machines N] [--requests N] [--seed S]\n\
         experiments: {}\n\
         trace/chaos/chaos-crash/profile/profile-diff take an optional WORKLOAD\n\
         (compress | mpegaudio | mandelbrot)",
        EXPERIMENTS.join(" | ")
    )
}

fn usage_and_exit(problem: &str) -> ! {
    eprintln!("figures: {problem}");
    eprintln!("{}", usage_lines());
    std::process::exit(2);
}

fn help_and_exit() -> ! {
    println!("{}", usage_lines());
    std::process::exit(0);
}

/// Parse the value of the flag at `args[*i]` (`what` names the expected
/// form), leaving `i` on it.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize, what: &str) -> T {
    let name = &args[*i];
    *i += 1;
    let raw = args
        .get(*i)
        .unwrap_or_else(|| usage_and_exit(&format!("{name} needs a value")));
    raw.parse()
        .unwrap_or_else(|_| usage_and_exit(&format!("{name} needs {what}")))
}

/// The paper's figures and the extension experiments `all` runs, in order.
type Figure = (&'static str, fn(f64));
const FIGURES: [Figure; 10] = [
    ("fig4a", fig4a),
    ("fig4b", fig4b),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("ablate-data", ablate_data),
    ("ablate-jit", ablate_jit),
    ("adaptive-cache", adaptive_cache),
    ("placement", placement),
    ("cellvm-sync", cellvm_sync),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<&str> = None;
    let mut workload = "mandelbrot";
    let (mut scale, mut machines, mut requests) = (None, None, None);
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => scale = Some(flag_value(&args, &mut i, "a number")),
            "--machines" => machines = Some(flag_value(&args, &mut i, "an integer")),
            "--requests" => requests = Some(flag_value(&args, &mut i, "an integer")),
            "--seed" => seed = flag_value(&args, &mut i, "an integer"),
            "--help" | "-h" => help_and_exit(),
            other => match which {
                None if EXPERIMENTS.contains(&other) => which = Some(other),
                None => usage_and_exit(&format!("unknown experiment '{other}'")),
                Some("trace" | "chaos" | "chaos-crash" | "profile" | "profile-diff") => {
                    workload = other;
                }
                Some(_) => usage_and_exit(&format!("unexpected argument '{other}'")),
            },
        }
        i += 1;
    }
    let Some(which) = which else {
        usage_and_exit("no experiment named");
    };
    let full_scale = scale.unwrap_or(xb::DEFAULT_SCALE);
    // The fleet subcommands default to small scales (the matrices to the
    // smallest the workloads support): cluster cost is requests x machines,
    // not one big run. The matrices default to their committed six
    // machines: the resilience stack needs that redundancy to absorb a
    // straggler plus a crash storm (with 4 the post-crash fleet is
    // over-committed and no knob can help).
    let fleet = |machines_default, requests_default, scale_default| {
        (
            machines.unwrap_or(machines_default),
            requests.unwrap_or(requests_default),
            seed,
            scale.unwrap_or(scale_default),
        )
    };
    match which {
        "trace" => trace_workload(workload, full_scale),
        "chaos" => chaos(workload, full_scale),
        "chaos-crash" => chaos_crash(workload, full_scale),
        "perf-gate" => perf_gate(full_scale),
        "profile" => profile(workload, full_scale),
        "profile-diff" => profile_diff(workload, full_scale),
        "cluster" => cluster(fleet(4, 400, 0.05)),
        "cluster-chaos" => cluster_chaos(fleet(6, 800, 0.02)),
        "fleet-trace" => fleet_trace(fleet(6, 800, 0.02)),
        "cluster-rebal" => cluster_rebal(fleet(6, 600, 0.02)),
        _ => {
            for (name, figure) in FIGURES {
                if which == "all" || which == name {
                    figure(full_scale);
                }
            }
        }
    }
}

fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

fn find_workload(name: &str) -> hera_workloads::Workload {
    hera_workloads::Workload::ALL
        .iter()
        .copied()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload '{name}' (expected: compress | mpegaudio | mandelbrot)");
            std::process::exit(2);
        })
}

fn trace_workload(name: &str, scale: f64) {
    let w = find_workload(name);
    header(&format!(
        "hera-trace: {} on 6 pinned SPEs (virtual-time event trace)",
        w.name()
    ));
    let (out, names) = xb::trace_workload(w, 6, scale, xb::spe_config(6));
    // The export is a pure function of the trace, and every frame it
    // opens it closes.
    let json = hera_trace::chrome_trace_json_named(&out.trace, &names);
    let same = hera_trace::chrome_trace_json_named(&out.trace, &names) == json;
    let (begins, ends) = (
        json.matches("\"ph\":\"B\"").count(),
        json.matches("\"ph\":\"E\"").count(),
    );
    if !same || begins != ends {
        eprintln!(
            "trace export failed its checks: second export {}, {begins} B vs {ends} E records",
            if same { "identical" } else { "differs" }
        );
        std::process::exit(1);
    }
    let path = format!("trace_{}.json", w.name());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    print!("{}", hera_trace::text_summary(&out.trace));
    println!();
    println!(
        "wrote {path} ({} bytes, {} records, {} data-cache hits) \
         — open in chrome://tracing or https://ui.perfetto.dev",
        json.len(),
        out.trace.event_count(),
        out.trace.metrics.counter("dcache.hits")
    );
}

fn chaos(name: &str, scale: f64) {
    let w = find_workload(name);
    const SEED: u64 = 0xC0FFEE;
    const DEATH_SPE: u8 = 2;
    let death_at = xb::chaos_death_cycle(scale);
    header(&format!(
        "chaos: {} on 6 SPEs, seed {SEED:#x}, SPE {DEATH_SPE} dies at cycle {death_at}",
        w.name()
    ));

    // Quiet reference first: the overhead column needs a baseline, and
    // the run doubles as proof that the empty-plan path is untouched.
    let quiet = xb::run_workload(w, 6, scale, xb::spe_config(6));
    let out = xb::chaos_workload(w, scale, xb::chaos_plan(SEED, DEATH_SPE, death_at));
    let f = &out.stats.faults;

    println!("checksum verified: the run completed correctly on the surviving cores");
    println!(
        "injected: {} total ({} mfc-transfer, {} eib-timeout, {} ls-corruption, \
         {} proxy-timeout, {} migration-timeout)",
        f.total_injected(),
        f.injected_mfc_transfer,
        f.injected_eib_timeout,
        f.injected_ls_corruption,
        f.injected_proxy_timeout,
        f.injected_migration_timeout
    );
    println!(
        "recovered: {} MFC retries costing {} backoff cycles, {} watchdog cycles, \
         {} unrecoverable",
        f.mfc_retries, f.backoff_cycles, f.watchdog_cycles, f.unrecoverable
    );
    for &(spe, at) in &f.deaths {
        println!(
            "fail-over: SPE {spe} died with its clock frozen at {at}; \
             {} thread(s) drained to the PPE, {} dirty bytes salvaged",
            f.drained_threads, f.salvaged_bytes
        );
    }
    println!(
        "wall cycles: {} quiet vs {} under chaos ({:+.2}% recovery overhead)",
        quiet.stats.wall_cycles,
        out.stats.wall_cycles,
        100.0 * (out.stats.wall_cycles as f64 / quiet.stats.wall_cycles as f64 - 1.0)
    );
    println!(
        "trace: {} records across {} lanes (same seed ⇒ byte-identical rerun)",
        out.trace.event_count(),
        out.trace.lanes().len()
    );

    // The claims above are load-bearing for CI: prove them, don't just
    // print them. Recovery must leave the machine computing the same
    // answer as the quiet run (the heap *layout* legitimately differs
    // once threads drain to the PPE), and the same seed must replay the
    // whole run — final heap digest and every trace lane — to the bit.
    if out.result != quiet.result {
        eprintln!(
            "chaos: recovered run diverged from the uninterrupted run \
             (result {:?} vs {:?})",
            out.result, quiet.result
        );
        std::process::exit(1);
    }
    let rerun = xb::chaos_workload(w, scale, xb::chaos_plan(SEED, DEATH_SPE, death_at));
    if rerun.heap_digest != out.heap_digest || rerun.trace != out.trace {
        eprintln!("chaos: rerun with the same seed diverged — determinism broken");
        std::process::exit(1);
    }
    println!("verified: recovery matches the quiet result; same-seed rerun is byte-identical");
}

fn chaos_crash(name: &str, scale: f64) {
    let w = find_workload(name);
    const SEED: u64 = 0xC0FFEE;
    // Transient faults stay armed throughout: crash recovery has to
    // compose with the rest of the chaos machinery, not replace it.
    let plan = hera_cell::FaultPlan::seeded(SEED)
        .with_mfc_faults(400, 250, 150)
        .expect("valid fault rates")
        .with_proxy_faults(500);

    // Probe for the wall clock so the crash lands at a deterministic
    // fraction of the run regardless of workload and scale.
    let probe = xb::run_workload(w, 6, scale, xb::spe_config(6).with_faults(plan));
    let wall = probe.stats.wall_cycles;
    let every = (wall / 4).max(10_000);
    let crash_at = wall * 2 / 3;
    header(&format!(
        "chaos-crash: {} on 6 SPEs, seed {SEED:#x}, checkpoint every {every} cycles, \
         machine dies at cycle {crash_at}",
        w.name()
    ));

    let dir = std::path::PathBuf::from(format!("target/chaos-ckpt-{}", std::process::id()));
    match xb::crash_and_recover(w, scale, plan, every, crash_at, &dir) {
        Ok(r) => {
            println!("crash: whole machine died at cycle {}", r.crash_cycle);
            println!(
                "checkpoints: {} on disk; restored from seq {} taken at cycle {}",
                r.checkpoints_on_disk, r.restored_seq, r.restored_cycle
            );
            println!(
                "recovery cost: {} re-executed cycles (restore point → crash) \
                 + {} checkpoint-write cycles charged as PPE stall \
                 = {} virtual cycles ({:.2}% of the {}-cycle uninterrupted run)",
                r.reexecuted_cycles(),
                r.checkpoint_write_cycles(),
                r.recovery_cost_cycles(),
                100.0 * r.recovery_cost_cycles() as f64 / r.reference.stats.wall_cycles as f64,
                r.reference.stats.wall_cycles
            );
            println!(
                "verified: recovered run bit-identical to the uninterrupted run \
                 from the restore point on (result, heap, stats, metrics, trace)"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        Err(e) => {
            eprintln!("chaos-crash FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// What one run of a fleet subcommand produced; [`replay_and_gate`]
/// needs two of them to agree.
#[derive(Default)]
struct FleetRun {
    /// Printed before the replay.
    body: String,
    /// Files written once everything holds, as `(name, contents)`.
    artifacts: Vec<(&'static str, String)>,
    /// The report's failures, and the acceptance gates that did not hold.
    failures: Vec<String>,
    gates: Vec<String>,
    /// Printed once the gates hold: before the artifacts, and after them.
    summary: String,
    verified: String,
}

/// The one driver behind the four fleet subcommands. An experiment is
/// claimed to be a pure function of its config, so: run it, print it, run
/// it again and require every printed and written byte identical; fail
/// on any reported failure or unmet gate; only then write the artifacts.
fn replay_and_gate(name: &str, run: impl Fn() -> Result<FleetRun, hera_cluster::ClusterError>) {
    let first = run().unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        std::process::exit(2);
    });
    print!("{}", first.body);
    let replay = run().unwrap_or_else(|e| {
        eprintln!("{name}: replay errored: {e}");
        std::process::exit(1);
    });
    if replay.body != first.body || replay.artifacts != first.artifacts {
        eprintln!("{name}: same-seed replay diverged — determinism broken");
        std::process::exit(1);
    }
    for f in first.failures.iter().chain(&first.gates) {
        eprintln!("{name} FAIL: {f}");
    }
    if !first.failures.is_empty() {
        eprintln!(
            "{name}: {} bit-identity/bookkeeping failure(s) — see report above",
            first.failures.len()
        );
    }
    if !(first.failures.is_empty() && first.gates.is_empty()) {
        std::process::exit(1);
    }
    print!("{}", first.summary);
    for (file, contents) in &first.artifacts {
        std::fs::write(file, contents).unwrap_or_else(|e| panic!("write {file}: {e}"));
        let viewer = if file.ends_with(".json") {
            " — open in chrome://tracing or https://ui.perfetto.dev"
        } else {
            ""
        };
        println!("wrote {file} ({} bytes){viewer}", contents.len());
    }
    print!("{}", first.verified);
}

fn cluster((machines, requests, seed, scale): (usize, u64, u64, f64)) {
    let cfg = hera_cluster::ClusterConfig {
        seed,
        machines,
        requests,
        scale,
        ..Default::default()
    };
    header(&format!(
        "hera-cluster: fleet simulation ({machines} machines, {requests} requests, seed {seed})"
    ));
    replay_and_gate("cluster", || {
        let report = hera_cluster::run_experiment(&cfg)?;
        Ok(FleetRun {
            body: report.render(),
            failures: report.failures,
            verified: "verified: every migration and recovery bit-identical to the unmigrated \
                       runs; same-seed replay byte-identical\n"
                .into(),
            ..FleetRun::default()
        })
    });
}

fn cluster_chaos((machines, requests, seed, scale): (usize, u64, u64, f64)) {
    let cfg = hera_cluster::ClusterConfig::e13(seed, machines, requests, scale);
    header(&format!(
        "hera-resil: chaos matrix ({machines} machines, {requests} requests, seed {seed}, \
         one 4x straggler + two-crash storm)"
    ));
    replay_and_gate("cluster-chaos", || {
        let report = hera_cluster::run_chaos_matrix(&cfg)?;
        // E13 acceptance: the full stack must hold the tail and the
        // goodput under faults, and the unprotected fleet must
        // demonstrably not.
        let (base, off, full) = (report.baseline(), report.control(), report.full());
        let bound = 2 * base.p99;
        let mut gates = Vec::new();
        if full.p99 > bound {
            gates.push(format!(
                "full-resilience p99 {} exceeds 2x the fault-free baseline ({} vs bound {})",
                full.p99, base.p99, bound
            ));
        }
        if full.goodput_permille() < 900 {
            gates.push(format!(
                "full-resilience goodput {}‰ below the 900‰ floor",
                full.goodput_permille()
            ));
        }
        if off.p99 <= bound {
            gates.push(format!(
                "the unprotected fleet held p99 {} within the 2x bound {} — the fault \
                 schedule is too gentle to demonstrate anything",
                off.p99, bound
            ));
        }
        let summary = format!(
            "verified: same-seed replay byte-identical; full resilience holds p99 to \
             {:.2}x the fault-free baseline (unprotected: {:.2}x) at {}.{}% goodput\n",
            full.p99 as f64 / base.p99.max(1) as f64,
            off.p99 as f64 / base.p99.max(1) as f64,
            full.goodput_permille() / 10,
            full.goodput_permille() % 10
        );
        let body = report.render();
        Ok(FleetRun {
            artifacts: vec![("cluster_chaos.txt", format!("{body}{summary}"))],
            body,
            failures: report.failures,
            gates,
            summary,
            ..FleetRun::default()
        })
    });
}

fn cluster_rebal((machines, requests, seed, scale): (usize, u64, u64, f64)) {
    let cfg = hera_cluster::ClusterConfig::e15(seed, machines, requests, scale);
    let spes: Vec<u8> = cfg.shapes.iter().map(|s| s.spe_count).collect();
    header(&format!(
        "hera-rebal: proactive degradation ({machines} machines, shapes {spes:?}, \
         {requests} requests, seed {seed}, one 4x straggler + two-crash storm)"
    ));
    replay_and_gate("cluster-rebal", || {
        let report = hera_cluster::run_rebal_matrix(&cfg)?;
        // E15 acceptance: acting on health signals *before* requests fail
        // must not be worse than waiting for them to fail, and the
        // heterogeneous fleet must actually exercise cross-shape adoption.
        let (reactive, proactive, pstats) = (report.control(), report.full(), report.full_stats());
        let mut gates = Vec::new();
        if proactive.p99 > reactive.p99 {
            gates.push(format!(
                "proactive p99 {} worse than reactive-only {}",
                proactive.p99, reactive.p99
            ));
        }
        if proactive.goodput_permille() < reactive.goodput_permille() {
            gates.push(format!(
                "proactive goodput {}‰ below reactive-only {}‰",
                proactive.goodput_permille(),
                reactive.goodput_permille()
            ));
        }
        if pstats.cross_shape == 0 {
            gates.push(
                "no cross-shape adoption was exercised — the fleet shapes or the fault \
                 schedule are too gentle to prove anything"
                    .into(),
            );
        }
        if pstats.drains == 0 {
            gates.push("the proactive row never drained anything".into());
        }
        let summary = format!(
            "verified: same-seed replay byte-identical; proactive p99 {:.2}x reactive \
             ({} vs {}) at {}.{}% goodput; {} drains, {} rebalance moves, {} cross-shape \
             adoptions proven by replay determinism\n",
            proactive.p99 as f64 / reactive.p99.max(1) as f64,
            proactive.p99,
            reactive.p99,
            proactive.goodput_permille() / 10,
            proactive.goodput_permille() % 10,
            pstats.drains,
            pstats.moves,
            pstats.cross_shape
        );
        let body = report.render();
        Ok(FleetRun {
            artifacts: vec![("cluster_rebal.txt", format!("{body}{summary}"))],
            body,
            failures: report.failures,
            gates,
            summary,
            ..FleetRun::default()
        })
    });
}

fn fleet_trace((machines, requests, seed, scale): (usize, u64, u64, f64)) {
    // The committed E13 configuration with hera-scope switched on: the
    // all-knobs-on matrix row's span tree, flow arrows, and telemetry
    // timelines are the artifacts.
    let cfg = hera_cluster::ClusterConfig {
        scope: true,
        ..hera_cluster::ClusterConfig::e13(seed, machines, requests, scale)
    };
    header(&format!(
        "hera-scope: fleet trace ({machines} machines, {requests} requests, seed {seed}, \
         E13 chaos matrix with request tracing on)"
    ));
    replay_and_gate("fleet-trace", || {
        let report = hera_cluster::run_chaos_matrix(&cfg)?;
        let scope = report
            .scope
            .as_ref()
            .expect("scope on keeps the last row's recording");
        let slo = scope.slo_report();
        let body = format!(
            "{}{slo}scope: {} spans, {} flow arrows across {} tracks; {} telemetry series\n",
            report.render(),
            scope.spans.len(),
            scope.flows.len(),
            scope.tracks.len(),
            scope.metrics.series().count()
        );
        Ok(FleetRun {
            body,
            artifacts: vec![
                ("fleet_trace.json", scope.chrome_json()),
                ("fleet_slo.txt", slo),
            ],
            failures: report.failures,
            verified: "verified: span ledger reconciles exactly against the policy counters; \
                       same-seed replay byte-identical (report, trace, SLO table)\n"
                .into(),
            ..FleetRun::default()
        })
    });
}

fn profile(name: &str, scale: f64) {
    let w = find_workload(name);
    header(&format!(
        "hera-prof: {} on 6 pinned SPEs (per-method virtual-cycle profile)",
        w.name()
    ));
    let (out, names) = xb::profile_workload(w, 6, scale, xb::spe_config(6));
    let prof = out.profile.expect("profiling was enabled");
    let resolve = |m| hera_prof::method_name(&names, m);
    print!("{}", prof.top_table(15, &resolve));
    let attributed: u64 = prof.totals().iter().map(|c| c.total()).sum();
    let charged = out.stats.ppe.total_cycles() + out.stats.spe.total_cycles();
    if attributed != charged {
        println!(
            "reconciliation: attributed {attributed} cycles, RunStats charged {charged} \
             — MISMATCH (simulator bug)"
        );
        std::process::exit(1);
    }
    println!("reconciliation: attributed {attributed} cycles, RunStats charged {charged} (exact)");
    let folded = prof.collapsed(&resolve);
    let path = format!("profile_{}.folded", w.name());
    std::fs::write(&path, &folded).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "wrote {path} ({} stacks) — collapsed format, feed to inferno or flamegraph.pl",
        folded.lines().count()
    );
}

fn profile_diff(name: &str, scale: f64) {
    let w = find_workload(name);
    header(&format!(
        "hera-prof diff: {} on the PPE (1 thread) vs 6 SPEs (6 threads)",
        w.name()
    ));
    let (ppe, names) = xb::profile_workload(w, 1, scale, xb::ppe_config());
    let (spe6, _) = xb::profile_workload(w, 6, scale, xb::spe_config(6));
    let before = ppe.profile.expect("profiling was enabled");
    let after = spe6.profile.expect("profiling was enabled");
    let resolve = |m| hera_prof::method_name(&names, m);
    print!(
        "{}",
        before.diff_table(&after, ("ppe", "spe6"), 20, &resolve)
    );
    println!("(positive delta: the method costs more cycles in the 6-SPE configuration)");
}

/// Rerun the pinned full-scale cells: virtual metrics must match exactly.
fn perf_gate(scale: f64) {
    if scale != xb::DEFAULT_SCALE {
        eprintln!("perf-gate's pins are full-scale; refusing to gate at scale {scale}");
        std::process::exit(2);
    }
    header("perf regression gate (virtual metrics vs the pins in hera-bench)");
    let failures = xb::perf_gate();
    println!(
        "checked {} cells: wall_cycles and guest_ops exact",
        xb::PERF_GATE_PINS.len()
    );
    for f in &failures {
        println!("FAIL: {f}");
    }
    if !failures.is_empty() {
        println!(
            "perf gate FAILED ({} mismatches) — if the change is intentional, \
             re-pin PERF_GATE_PINS in hera-bench",
            failures.len()
        );
        std::process::exit(1);
    }
    println!("perf gate passed — virtual metrics identical to the pins");
}

fn fig4a(scale: f64) {
    header("Figure 4(a): SPE / PPE performance (speedup relative to the PPE)");
    println!(
        "{:<11} {:>14} {:>14} {:>14}   {:>8} {:>8}   {:>8} {:>8}",
        "benchmark", "PPE cycles", "1 SPE cycles", "6 SPE cycles", "1SPE", "paper", "6SPE", "paper"
    );
    for r in xb::figure4a(scale) {
        println!(
            "{:<11} {:>14} {:>14} {:>14}   {:>7.2}x {:>7.2}x   {:>7.2}x {:>7.2}x",
            r.workload.name(),
            r.ppe_cycles,
            r.spe1_cycles,
            r.spe6_cycles,
            r.rel_1spe,
            r.paper_1spe,
            r.rel_6spe,
            r.paper_6spe
        );
    }
    println!("(paper columns read off Figure 4(a); shape, not absolute match, is the claim)");
}

fn fig4b(scale: f64) {
    header("Figure 4(b): scalability over SPE cores (speedup vs 1 SPE)");
    println!(
        "{:<11} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "1", "2", "3", "4", "5", "6"
    );
    for s in xb::figure4b(scale) {
        print!("{:<11}", s.workload.name());
        for v in &s.speedup {
            print!(" {v:>6.2}x");
        }
        println!();
    }
    println!("(paper: all three scale; mandelbrot closest to linear, mpegaudio ~4.6x at 6)");
}

fn fig5(scale: f64) {
    header("Figure 5: proportion of SPE cycles per operation type (%)");
    println!(
        "{:<11} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "FP", "int", "branch", "stack", "local", "mainmem"
    );
    for r in xb::figure5(scale) {
        println!(
            "{:<11} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            r.workload.name(),
            r.percent[0],
            r.percent[1],
            r.percent[2],
            r.percent[3],
            r.percent[4],
            r.percent[5]
        );
    }
    println!("(paper claims: mandelbrot has by far the largest FP share;");
    println!(" compress spends more cycles on main memory than the others)");
}

fn sweep(series: &[xb::SweepSeries], note: &str) {
    print!("{:<16}", "size KiB");
    for p in &series[0].points {
        print!(" {:>6}", p.size_kb);
    }
    println!();
    for s in series {
        print!("{:<16}", format!("{} perf", s.workload.name()));
        for p in &s.points {
            print!(" {:>6.2}", p.perf_rel);
        }
        println!();
        print!("{:<16}", format!("{} hit", s.workload.name()));
        for p in &s.points {
            print!(" {:>6.3}", p.hit_rate);
        }
        println!();
    }
    println!("({note})");
}

fn fig6(scale: f64) {
    header("Figure 6: data-cache size sweep (perf relative to 104 KiB; hit rate)");
    sweep(
        &xb::figure6(scale),
        "paper: compress degrades steepest with the lowest hit rate; mpegaudio is insensitive",
    );
}

fn fig7(scale: f64) {
    header("Figure 7: code-cache size sweep (perf relative to 88 KiB; method hit rate)");
    sweep(
        &xb::figure7(scale),
        "paper: mpegaudio is the code-cache-sensitive benchmark; mandelbrot is flat",
    );
}

fn ablate_data(scale: f64) {
    header("E6 ablation: array block transfer size (3.2.1 design choice)");
    println!(
        "{:>10} {:>16} {:>16}",
        "block B", "compress cyc", "mpegaudio cyc"
    );
    for (bytes, compress, mpeg) in xb::ablate_block_size(scale) {
        println!("{bytes:>10} {compress:>16} {mpeg:>16}");
    }
    println!("(the paper picked 1 KiB; the sweep shows the trade-off it sits on)");
}

fn ablate_jit(scale: f64) {
    header("E7 ablation: per-core-type JIT vs eager dual compilation (3.1 claim)");
    let a = xb::ablate_jit(scale);
    println!(
        "on-demand: {} PPE methods + {} SPE methods, {} dual-compiled",
        a.ppe_compiled, a.spe_compiled, a.dual_compiled
    );
    println!(
        "compile cycles: on-demand {} vs eager-both {} ({:.1}% saved)",
        a.demand_cycles,
        a.eager_cycles,
        100.0 * (1.0 - a.demand_cycles as f64 / a.eager_cycles as f64)
    );
}

fn adaptive_cache(scale: f64) {
    header("E8 extension: adaptive data/code cache split (192 KiB budget)");
    for (w, splits, fixed) in xb::adaptive_cache_split(scale) {
        let best = splits
            .iter()
            .min_by_key(|&&(_, c)| c)
            .expect("non-empty sweep");
        println!(
            "{:<11} fixed 104/88: {:>12} cyc | best {}K data/{}K code: {:>12} cyc ({:+.1}%)",
            w.name(),
            fixed,
            best.0,
            192 - best.0,
            best.1,
            100.0 * (best.1 as f64 / fixed as f64 - 1.0)
        );
    }
    println!("(supports: \"adaptive sizing of the code and data caches would likely benefit many applications\")");
}

fn placement(scale: f64) {
    header("E9 extension: placement policies on a mixed FP+memory workload");
    let rows = xb::placement_comparison(scale);
    let worst = rows
        .iter()
        .map(|&(_, c, _)| c)
        .max()
        .expect("non-empty comparison") as f64;
    for (name, cycles, migrations) in rows {
        println!(
            "{name:<12} {cycles:>14} cycles  ({:.2}x vs worst, {migrations} migrations)",
            worst / cycles as f64
        );
    }
    println!("(annotations let the runtime put each phase on its best core type)");
}

fn cellvm_sync(_scale: f64) {
    header("E10 extension: local SPE sync (Hera-JVM) vs PPE-proxied sync (CellVM-style)");
    println!(
        "{:>5} {:>16} {:>16} {:>10}",
        "SPEs", "Hera-JVM cyc", "CellVM-style", "slowdown"
    );
    for (n, hera, cellvm) in xb::sync_scalability(400) {
        println!(
            "{n:>5} {hera:>16} {cellvm:>16} {:>9.2}x",
            cellvm as f64 / hera as f64
        );
    }
    println!("(proxying every monitor op through the PPE costs 2-3x on sync-heavy code and");
    println!(" occupies the PPE full-time, supporting the paper's critique of CellVM's design)");
}

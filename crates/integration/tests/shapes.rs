//! Reproduction-shape regression tests: the qualitative claims of the
//! paper's §4, asserted at reduced scale so they run in the test suite.
//! (`EXPERIMENTS.md` records the full-scale numbers.)
//!
//! These run the real benchmarks, so they are the slowest tests in the
//! repository — sizes are chosen to keep each under a few seconds in
//! debug builds.

#![forbid(unsafe_code)]

use hera_core::{HeraJvm, PlacementPolicy, VmConfig};
use hera_integration::run_program;
use hera_isa::Value;
use hera_workloads::Workload;

const SCALE: f64 = 0.15;

fn cycles(w: Workload, threads: u32, cfg: VmConfig) -> u64 {
    let (program, expected) = w.build(threads, SCALE);
    let out = run_program(program, cfg);
    assert!(out.is_clean(), "{}: {:?}", w.name(), out.traps);
    assert_eq!(out.result, Some(Value::I32(expected)), "{}", w.name());
    out.stats.wall_cycles
}

fn spe_cfg(n: u8) -> VmConfig {
    let mut cfg = VmConfig {
        policy: PlacementPolicy::PinnedSpe,
        ..VmConfig::default()
    };
    cfg.cell.num_spes = n;
    cfg
}

/// Figure 4(a), left bars: on a single SPE, compress is slower than the
/// PPE, mandelbrot faster, and the three benchmarks keep the paper's
/// order (mandelbrot > mpegaudio > compress).
#[test]
fn fig4a_single_spe_ordering() {
    let mut rel = Vec::new();
    for w in Workload::ALL {
        let ppe = cycles(w, 1, VmConfig::pinned_ppe());
        let spe = cycles(w, 1, spe_cfg(1));
        rel.push((w, ppe as f64 / spe as f64));
    }
    let get = |w: Workload| rel.iter().find(|&&(x, _)| x == w).expect("present").1;
    let (c, a, m) = (
        get(Workload::Compress),
        get(Workload::MpegAudio),
        get(Workload::Mandelbrot),
    );
    assert!(c < 0.8, "compress must lose on one SPE, got {c:.2}x");
    assert!(m > 1.1, "mandelbrot must win on one SPE, got {m:.2}x");
    assert!(
        c < a && a < m,
        "paper ordering violated: {c:.2} {a:.2} {m:.2}"
    );
}

/// Figure 4(a), right bars: with six SPEs every benchmark beats the
/// PPE, with mandelbrot far ahead.
#[test]
fn fig4a_six_spes_all_win() {
    for w in Workload::ALL {
        let ppe = cycles(w, 1, VmConfig::pinned_ppe());
        let spe6 = cycles(w, 6, spe_cfg(6));
        let rel = ppe as f64 / spe6 as f64;
        assert!(
            rel > 1.3,
            "{} must beat the PPE on 6 SPEs, got {rel:.2}x",
            w.name()
        );
        if w == Workload::Mandelbrot {
            assert!(rel > 5.0, "mandelbrot should dominate, got {rel:.2}x");
        }
    }
}

/// Figure 4(b): every benchmark gains from each added SPE, and
/// mandelbrot scales best.
#[test]
fn fig4b_monotone_scaling() {
    let mut at6 = Vec::new();
    for w in Workload::ALL {
        let base = cycles(w, 1, spe_cfg(1));
        let mut prev = base;
        for n in [2u8, 4, 6] {
            let c = cycles(w, n as u32, spe_cfg(n));
            assert!(
                c < prev,
                "{}: {n} SPEs ({c}) should beat fewer ({prev})",
                w.name()
            );
            prev = c;
        }
        at6.push((w, base as f64 / prev as f64));
    }
    let mandel = at6
        .iter()
        .find(|&&(w, _)| w == Workload::Mandelbrot)
        .expect("present")
        .1;
    for &(w, s) in &at6 {
        assert!(
            s <= mandel + 0.3,
            "{} out-scaled mandelbrot: {s:.2}",
            w.name()
        );
    }
}

/// Figure 5: mandelbrot has by far the largest FP share; compress the
/// largest main-memory share.
#[test]
fn fig5_breakdown_claims() {
    use hera_cell::OpClass;
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let (program, _) = w.build(2, SCALE);
        let out = run_program(program, spe_cfg(2));
        rows.push((w, out.stats.spe));
    }
    let frac = |w: Workload, c: OpClass| {
        rows.iter()
            .find(|&&(x, _)| x == w)
            .expect("present")
            .1
            .fraction(c)
    };
    assert!(
        frac(Workload::Mandelbrot, OpClass::FloatingPoint)
            > 2.0 * frac(Workload::MpegAudio, OpClass::FloatingPoint)
    );
    assert!(
        frac(Workload::Compress, OpClass::MainMemory)
            > 3.0 * frac(Workload::MpegAudio, OpClass::MainMemory)
    );
    assert!(
        frac(Workload::Compress, OpClass::MainMemory)
            > 3.0 * frac(Workload::Mandelbrot, OpClass::MainMemory)
    );
}

/// Figure 6: compress degrades sharply with a small data cache while
/// mpegaudio barely notices; compress has the lowest hit rate.
#[test]
fn fig6_data_cache_sensitivity() {
    let run = |w: Workload, kb: u32| {
        let (program, expected) = w.build(2, SCALE);
        let cfg = spe_cfg(2).with_cache_sizes(kb << 10, 88 << 10);
        let out = run_program(program, cfg);
        assert_eq!(out.result, Some(Value::I32(expected)));
        (out.stats.wall_cycles, out.stats.data_cache.hit_rate())
    };
    let (c_small, c_hit) = run(Workload::Compress, 16);
    let (c_big, _) = run(Workload::Compress, 104);
    let (a_small, a_hit) = run(Workload::MpegAudio, 16);
    let (a_big, _) = run(Workload::MpegAudio, 104);
    let compress_slowdown = c_small as f64 / c_big as f64;
    let mpeg_slowdown = a_small as f64 / a_big as f64;
    assert!(
        compress_slowdown > 1.5,
        "compress should suffer at 16 KiB: {compress_slowdown:.2}"
    );
    assert!(
        mpeg_slowdown < 1.1,
        "mpegaudio should be insensitive: {mpeg_slowdown:.2}"
    );
    assert!(c_hit < a_hit, "compress hit rate must be lowest");
}

/// Figure 7: mpegaudio degrades sharply with a small code cache while
/// compress and mandelbrot are flat.
#[test]
fn fig7_code_cache_sensitivity() {
    let run = |w: Workload, kb: u32| {
        let (program, expected) = w.build(2, SCALE);
        let cfg = spe_cfg(2).with_cache_sizes(104 << 10, kb << 10);
        let out = run_program(program, cfg);
        assert_eq!(out.result, Some(Value::I32(expected)));
        out.stats.wall_cycles
    };
    let mpeg = run(Workload::MpegAudio, 16) as f64 / run(Workload::MpegAudio, 88) as f64;
    let compress = run(Workload::Compress, 16) as f64 / run(Workload::Compress, 88) as f64;
    let mandel = run(Workload::Mandelbrot, 16) as f64 / run(Workload::Mandelbrot, 88) as f64;
    assert!(mpeg > 1.3, "mpegaudio should suffer at 16 KiB: {mpeg:.2}");
    assert!(compress < 1.1, "compress should be flat: {compress:.2}");
    assert!(mandel < 1.1, "mandelbrot should be flat: {mandel:.2}");
}

/// E10: CellVM-style PPE-proxied synchronisation costs materially more
/// than Hera-JVM's local SPE synchronisation on lock-heavy code.
#[test]
fn cellvm_style_sync_is_slower() {
    let (program, expected) = hera_bench::sync_program(3, 120);
    let hera = {
        let out = run_program(program.clone(), spe_cfg(3));
        assert_eq!(out.result, Some(Value::I32(expected)));
        out.stats.wall_cycles
    };
    let cellvm = {
        let mut cfg = spe_cfg(3);
        cfg.cellvm_style_sync = true;
        let vm = HeraJvm::new(program, cfg).expect("constructs");
        let out = vm.run().expect("runs");
        assert_eq!(out.result, Some(Value::I32(expected)));
        out.stats.wall_cycles
    };
    assert!(
        cellvm as f64 > 1.5 * hera as f64,
        "PPE-proxied sync should cost much more: {cellvm} vs {hera}"
    );
}

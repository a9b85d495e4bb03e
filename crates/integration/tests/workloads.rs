//! The correctness anchor: every benchmark's guest checksum must equal
//! the host reference bit-for-bit, on every core kind and thread count.

#![forbid(unsafe_code)]

use hera_core::VmConfig;
use hera_integration::run_program;
use hera_isa::Value;
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

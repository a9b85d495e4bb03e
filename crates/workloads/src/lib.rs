//! # hera-workloads — the guest benchmark programs
//!
//! The paper evaluates three multi-threaded Java benchmarks:
//! SPECjvm-2008 *compress* and *mpegaudio* (unmodified) and a custom
//! 800×600 *mandelbrot*. SPECjvm sources are not redistributable, so
//! this crate provides replacements written in the guest language
//! (`hera-frontend`) that reproduce the *characteristics* the paper
//! attributes to each benchmark:
//!
//! * [`compress`] — LZW compression + decompression over a generated
//!   corpus. Dictionary hash probing gives poor locality over tens of
//!   kilobytes per thread: **main-memory bound**, the lowest SPE
//!   data-cache hit rate, the steepest degradation as the data cache
//!   shrinks (Figures 4–6).
//! * [`mpegaudio`] — a polyphase synthesis filterbank audio decoder
//!   (the heart of MPEG audio layer I/II): single-precision
//!   multiply-accumulate over cosine tables, spread over many methods —
//!   **FP-moderate and code-cache sensitive** (Figures 4, 5, 7).
//! * [`mandelbrot`] — escape-time iteration: almost pure f32 arithmetic
//!   with a tiny working set — the **SPE's best case** (Figures 4, 5).
//!
//! Every workload is deterministic, partitioned over N worker threads
//! (subclasses of the runtime `Thread` class), and returns an i32
//! checksum that a host-side reference implementation reproduces
//! *bit-exactly* — the correctness anchor for the whole stack.

#![forbid(unsafe_code)]

pub mod compress;
pub mod kernels;
pub mod mandelbrot;
pub mod mpegaudio;

use hera_isa::Program;

/// The three paper benchmarks, as one enumeration for the harness.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// LZW compression (memory-intensive).
    Compress,
    /// Audio filterbank decoding (FP + code footprint).
    MpegAudio,
    /// Escape-time fractal (FP-intensive).
    Mandelbrot,
}

impl Workload {
    /// All benchmarks, in the paper's presentation order.
    pub const ALL: [Workload; 3] = [
        Workload::Compress,
        Workload::MpegAudio,
        Workload::Mandelbrot,
    ];

    /// The paper's name for this benchmark.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compress => "compress",
            Workload::MpegAudio => "mpegaudio",
            Workload::Mandelbrot => "mandelbrot",
        }
    }

    /// Build the guest program with `threads` workers at a work scale
    /// suitable for simulation (`scale` ≈ 1.0 is the default experiment
    /// size; larger values grow the input proportionally).
    pub fn build(self, threads: u32, scale: f64) -> (Program, i32) {
        match self {
            Workload::Compress => {
                let p = compress::Params::scaled(threads, scale);
                (
                    compress::build_program(&p),
                    compress::reference_checksum(&p),
                )
            }
            Workload::MpegAudio => {
                let p = mpegaudio::Params::scaled(threads, scale);
                (
                    mpegaudio::build_program(&p),
                    mpegaudio::reference_checksum(&p),
                )
            }
            Workload::Mandelbrot => {
                let p = mandelbrot::Params::scaled(threads, scale);
                (
                    mandelbrot::build_program(&p),
                    mandelbrot::reference_checksum(&p),
                )
            }
        }
    }
}

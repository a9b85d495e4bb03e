//! Render the mandelbrot benchmark's output as ASCII art, computed by
//! six guest threads across six simulated SPE cores, and report the
//! speedup over the PPE — a miniature of the paper's Figure 4.
//!
//! ```sh
//! cargo run --release -p hera-examples --example mandelbrot_render
//! ```

#![forbid(unsafe_code)]

use hera_core::{HeraJvm, VmConfig};
use hera_workloads::mandelbrot::{build_program, reference_checksum, Params};

fn main() {
    let p = Params {
        width: 72,
        height: 28,
        max_iter: 48,
        threads: 6,
    };

    // PPE baseline (single core).
    let ppe_p = Params { threads: 1, ..p };
    let ppe = HeraJvm::new(build_program(&ppe_p), VmConfig::pinned_ppe())
        .expect("constructs")
        .run()
        .expect("runs");

    // Six SPEs.
    let vm = HeraJvm::new(build_program(&p), VmConfig::pinned_spe(6)).expect("constructs");
    let out = vm.run().expect("runs");
    assert!(out.is_clean(), "traps: {:?}", out.traps);
    assert_eq!(
        out.result.map(|v| v.as_i32()),
        Some(reference_checksum(&p)),
        "checksum must match the host reference"
    );

    // The image itself lives in guest memory; recompute it host-side for
    // display (bit-identical math).
    let ramp = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let (x0, x1, y0, y1) = (-2.25f32, 0.75f32, -1.25f32, 1.25f32);
    let dx = (x1 - x0) / p.width as f32;
    let dy = (y1 - y0) / p.height as f32;
    for y in 0..p.height {
        let ci = y0 + y as f32 * dy;
        let mut line = String::new();
        for x in 0..p.width {
            let cr = x0 + x as f32 * dx;
            let (mut zr, mut zi) = (0f32, 0f32);
            let mut it = 0;
            while it < p.max_iter && zr * zr + zi * zi <= 4.0 {
                let t = zr * zr - zi * zi + cr;
                zi = 2.0 * zr * zi + ci;
                zr = t;
                it += 1;
            }
            let shade = if it >= p.max_iter {
                ' '
            } else {
                ramp[(it as usize * (ramp.len() - 1)) / p.max_iter as usize]
            };
            line.push(shade);
        }
        println!("{line}");
    }

    println!();
    println!("PPE (1 thread):   {:>12} cycles", ppe.stats.wall_cycles);
    println!(
        "6 SPEs (6 threads): {:>10} cycles  → {:.1}x speedup (paper: ~9.4x at 800x600)",
        out.stats.wall_cycles,
        ppe.stats.wall_cycles as f64 / out.stats.wall_cycles as f64
    );
    println!(
        "SPE data-cache hit rate: {:.1}%   code-cache hit rate: {:.1}%",
        out.stats.data_cache.hit_rate() * 100.0,
        out.stats.code_cache.method_hit_rate() * 100.0
    );
}

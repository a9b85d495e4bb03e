//! Explore the SPE local-store partition: sweep the data/code cache
//! split for each benchmark and print the per-workload optimum — the
//! adaptive-sizing opportunity the paper's §4 points at.
//!
//! ```sh
//! cargo run --release -p hera-examples --example cache_tuning
//! ```

#![forbid(unsafe_code)]

use hera_core::{HeraJvm, PlacementPolicy, VmConfig};
use hera_workloads::Workload;

fn run(w: Workload, data_kb: u32, code_kb: u32) -> u64 {
    let (program, expected) = w.build(6, 0.25);
    let mut cfg = VmConfig {
        policy: PlacementPolicy::PinnedSpe,
        ..VmConfig::default()
    }
    .with_cache_sizes(data_kb << 10, code_kb << 10);
    cfg.cell.num_spes = 6;
    let out = HeraJvm::new(program, cfg)
        .expect("constructs")
        .run()
        .expect("runs");
    assert_eq!(out.result.map(|v| v.as_i32()), Some(expected));
    out.stats.wall_cycles
}

fn main() {
    const BUDGET_KB: u32 = 192; // 256 KiB local store − 64 KiB resident
    println!("sweeping the {BUDGET_KB} KiB cache budget (data + code) per benchmark\n");
    println!(
        "{:<12} {:>10} {:>18} {:>14}",
        "benchmark", "default", "best split", "improvement"
    );
    for w in Workload::ALL {
        let fixed = run(w, 104, 88);
        let mut best = (104u32, fixed);
        for i in 1..BUDGET_KB / 16 {
            let data = i * 16;
            let cycles = run(w, data, BUDGET_KB - data);
            if cycles < best.1 {
                best = (data, cycles);
            }
        }
        println!(
            "{:<12} {:>10} {:>10}K/{:<3}K   {:>12.1}%",
            w.name(),
            fixed,
            best.0,
            BUDGET_KB - best.0,
            100.0 * (1.0 - best.1 as f64 / fixed as f64)
        );
    }
    println!();
    println!("compress wants nearly all the budget as data cache; mpegaudio");
    println!("prefers code. A single fixed split can't satisfy both — the");
    println!("case for the adaptive sizing the paper proposes as future work.");
}

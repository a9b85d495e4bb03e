//! Capture the golden execution fingerprints the differential
//! representation test in `crates/integration/tests/engine.rs` asserts
//! against.
//!
//! Run `cargo run --release -p hera-bench --example golden_capture` and
//! paste the output over the `GOLDEN` table in that test. The values
//! must only ever be regenerated from an engine whose virtual-time
//! behaviour is known-good (they were first captured from the tagged
//! `Value`-frame interpreter the slot engine replaced).

#![forbid(unsafe_code)]

use hera_bench::{host_cpus, ppe_config, run_workload, spe_config, DEFAULT_SCALE};
use hera_core::WorkerPool;
use hera_workloads::Workload;

fn main() {
    // The nine grid cells are independent whole-VM runs; fan them out
    // on the host worker pool and print in grid order afterwards.
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for (cfg_name, threads) in [("ppe", 1), ("spe1", 1), ("spe6", 6)] {
            cells.push((w, cfg_name, threads));
        }
    }
    let pool = WorkerPool::new(host_cpus().min(cells.len()).saturating_sub(1));
    let lines = pool.map(cells.len(), |i| {
        let (w, cfg_name, threads) = cells[i];
        let cfg = match cfg_name {
            "ppe" => ppe_config(),
            "spe1" => spe_config(1),
            _ => spe_config(6),
        };
        let out = run_workload(w, threads, DEFAULT_SCALE, cfg);
        let result = match out.result {
            Some(hera_isa::Value::I32(v)) => v,
            other => panic!("unexpected result {other:?}"),
        };
        format!(
            "    (\"{}\", \"{}\", {}, {}, {}, &{:?}),",
            w.name(),
            cfg_name,
            threads,
            result,
            out.stats.migrations,
            out.stats.per_core_cycles,
        )
    });
    println!("// (workload, config, threads, result, migrations, per_core_cycles)");
    for line in lines {
        println!("{line}");
    }
}

//! Trace a run: enable the hera-trace sink, execute mandelbrot on six
//! pinned SPEs, print the per-core summary, and export a Chrome
//! trace-event JSON file loadable in chrome://tracing or Perfetto.
//!
//! ```sh
//! cargo run --release -p hera-examples --example trace_run
//! ```
//!
//! Tracing only observes — it never charges virtual cycles — so the run
//! below finishes at exactly the same cycle count it would untraced.

#![forbid(unsafe_code)]

use hera_core::{HeraJvm, VmConfig};
use hera_workloads::Workload;

fn main() {
    let w = Workload::Mandelbrot;
    let (program, expected) = w.build(6, 0.3);
    let method_names: Vec<String> = program.methods.iter().map(|m| m.name.clone()).collect();

    let cfg = VmConfig::pinned_spe(6).with_tracing();
    let vm = HeraJvm::new(program, cfg).expect("constructs");
    let out = vm.run().expect("runs");
    assert!(out.is_clean());
    assert_eq!(out.result, Some(hera_isa::Value::I32(expected)));

    // Per-core event counts, spans, and the merged metrics registry.
    print!("{}", hera_trace::text_summary(&out.trace));

    // Chrome trace-event export with method ids symbolised to names.
    let json = hera_trace::chrome_trace_json_named(&out.trace, &method_names);
    let path = "trace_run.json";
    std::fs::write(path, &json).expect("write trace json");
    println!();
    println!(
        "wrote {path} ({} bytes, {} records) — open it at https://ui.perfetto.dev",
        json.len(),
        out.trace.event_count()
    );
}

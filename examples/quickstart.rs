//! Quickstart: author a small guest program, run it on the simulated
//! Cell under three placements, and read the statistics.
//!
//! ```sh
//! cargo run --release -p hera-examples --example quickstart
//! ```

#![forbid(unsafe_code)]

use hera_core::{HeraJvm, VmConfig};
use hera_frontend::*;
use hera_isa::{ProgramBuilder, Ty};

fn main() {
    // A guest program: sum of the first million square roots, in f32.
    let mut pb = ProgramBuilder::new();
    let cls = pb.add_class("Main", None);
    let main = declare_static(&mut pb, cls, "main", vec![], Some(Ty::Float));
    define(
        &mut pb,
        main,
        vec![],
        vec![
            Stmt::Let("sum".into(), f32c(0.0)),
            for_range(
                "i",
                i32c(1),
                i32c(200_000),
                vec![Stmt::Assign(
                    "sum".into(),
                    add(local("sum"), sqrt(cast(Ty::Float, local("i")))),
                )],
            ),
            Stmt::Return(Some(local("sum"))),
        ],
    )
    .expect("main compiles");
    let program = pb.finish_with_entry("Main", "main").expect("resolves");

    // Run the identical program under three placements.
    for (name, cfg) in [
        ("pinned to the PPE", VmConfig::pinned_ppe()),
        ("pinned to one SPE", VmConfig::pinned_spe(1)),
        ("pinned to six SPEs", VmConfig::pinned_spe(6)),
    ] {
        let vm = HeraJvm::new(program.clone(), cfg).expect("constructs");
        let out = vm.run().expect("runs");
        println!(
            "{name:<20} result = {:?}   wall = {:>12} cycles ({:.2} virtual ms)",
            out.result,
            out.stats.wall_cycles,
            out.stats.wall_millis()
        );
    }
    println!();
    println!("Same result everywhere — that is the point: Hera-JVM hides the");
    println!("processor's heterogeneity behind a homogeneous virtual machine.");
}

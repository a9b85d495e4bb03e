//! `hostbench run | agree | pairs` — see the crate README.

use hera_hostbench::bench::{self, HostInfo, RunOpts};
use hera_hostbench::{compare, workload, Size, WORKLOADS};
use hera_integration::minijson::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

const USAGE: &str = "usage:
  hostbench run [--workload W] [--seed S] [--seconds N] [--passes N] [--trace [0|1]] [--out DIR]
  hostbench agree DIR_A DIR_B
  hostbench pairs PARENT_BIN CHANGE_BIN --workload W [--n 10] [--seconds N]";

/// `run_seconds` of `BENCHMARK.json`: the default time budget of a run.
const RUN_SECONDS: u64 = 12;

fn usage(msg: &str) -> ! {
    eprintln!("hostbench: {msg}\n{USAGE}");
    exit(2);
}

/// `--flag value` pairs after the positional arguments.
struct Flags(Vec<String>);

impl Flags {
    fn take(&mut self, flag: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == flag)?;
        if at + 1 >= self.0.len() {
            usage(&format!("{flag} needs a value"));
        }
        self.0.remove(at);
        Some(self.0.remove(at))
    }

    fn number<T: std::str::FromStr>(&mut self, flag: &str) -> Option<T> {
        self.take(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: bad number {v}")))
        })
    }

    fn finish(self) {
        if let Some(extra) = self.0.first() {
            usage(&format!("unexpected argument {extra}"));
        }
    }
}

fn default_out() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("hostbench")
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage("missing subcommand");
    }
    let sub = args.remove(0);
    match sub.as_str() {
        "run" => run(args),
        "agree" => {
            let [a, b] = args.as_slice() else {
                usage("agree takes two directories");
            };
            let violations = compare::agree(Path::new(a), Path::new(b));
            for v in &violations {
                println!("{v}");
            }
            println!("{} violation(s)", violations.len());
            exit(i32::from(!violations.is_empty()));
        }
        "pairs" => {
            if args.len() < 2 {
                usage("pairs takes two binaries");
            }
            let mut flags = Flags(args.split_off(2));
            let w = flags
                .take("--workload")
                .unwrap_or_else(|| usage("pairs needs --workload"));
            let n = flags.number("--n").unwrap_or(10);
            let seconds = flags.number("--seconds").unwrap_or(RUN_SECONDS);
            flags.finish();
            match compare::pairs(&args[0], &args[1], &w, n, seconds) {
                Ok(report) => print!("{report}"),
                Err(e) => {
                    eprintln!("hostbench pairs: {e}");
                    exit(1);
                }
            }
        }
        other => usage(&format!("unknown subcommand {other}")),
    }
}

fn run(args: Vec<String>) {
    if cfg!(debug_assertions) {
        eprintln!("hostbench: refusing to measure a debug build; use cargo run --release");
        exit(2);
    }
    // `--trace` alone means on; the benchmark driver passes `--trace 0|1`.
    let mut args = args;
    if let Some(at) = args.iter().position(|a| a == "--trace") {
        if !matches!(args.get(at + 1).map(String::as_str), Some("0" | "1")) {
            args.insert(at + 1, "1".into());
        }
    }
    let forwarded = args.clone();
    let mut flags = Flags(args);
    let name = flags.take("--workload");
    let trace = flags.take("--trace").is_some_and(|v| v == "1");
    let out_dir = flags.take("--out").map_or_else(default_out, PathBuf::from);
    let mut opts = RunOpts {
        seed: flags.number("--seed").unwrap_or(1),
        seconds: flags.number("--seconds").unwrap_or(RUN_SECONDS as f64),
        passes: flags.number("--passes"),
        trace,
        size: Size::Full,
        measured_best_ns: None,
    };
    flags.finish();

    let Some(name) = name else {
        // One fresh process per workload, one at a time: an honest peak
        // RSS each, and never more than one load generator.
        let exe = std::env::current_exe().expect("own path");
        let mut failed = false;
        for w in &WORKLOADS {
            let status = Command::new(&exe)
                .arg("run")
                .args(&forwarded)
                .args(["--workload", w.name])
                .status()
                .expect("re-exec");
            failed |= !status.success();
        }
        exit(i32::from(failed));
    };
    let def = workload(&name).unwrap_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        usage(&format!("unknown workload {name}; one of {names:?}"))
    });

    let measured_file = out_dir.join(format!("{name}.json"));
    if trace {
        opts.measured_best_ns = std::fs::read_to_string(&measured_file)
            .ok()
            .and_then(|text| parse(&text).ok())
            .and_then(|doc| doc.get("best_ns").and_then(Value::as_u64));
    }
    let result = bench::run(def, opts);

    println!(
        "== {name}: {} run, {} passes, seed {} ==",
        if trace { "traced" } else { "measured" },
        result.passes,
        opts.seed
    );
    for m in result.metrics() {
        println!("{:<44} {} {}", m.name, m.value, m.unit);
    }
    for f in &result.failures {
        println!("FAILED {f}");
    }
    if let Err(e) = write_results(&out_dir, &name, &result, &opts) {
        eprintln!(
            "hostbench: could not write results under {}: {e}",
            out_dir.display()
        );
    }
    println!("{}", bench::contract_line(&result));
    exit(i32::from(!result.correct()));
}

fn write_results(
    dir: &Path,
    name: &str,
    result: &bench::RunResult,
    opts: &RunOpts,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let suffix = if opts.trace { "layers.json" } else { "json" };
    std::fs::write(
        dir.join(format!("{name}.{suffix}")),
        bench::result_json(result, opts, &HostInfo::probe()),
    )?;
    if let Some(chrome) = &result.chrome_trace {
        std::fs::write(dir.join(format!("{name}.hostbench_trace.json")), chrome)?;
    }
    Ok(())
}

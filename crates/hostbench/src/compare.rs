//! Comparing result sets: `agree` (two `--out` directories of one
//! commit) and `pairs` (alternating runs of two binaries).

use crate::bench::{END_TO_END, PER_LAYER};
use crate::cells::WORKLOADS;
use crate::stats::quartiles;
use hera_integration::minijson::{parse, Value};
use std::path::Path;
use std::process::Command;

/// `name -> value` of a result document's `metrics` object.
fn metrics_of(doc: &Value) -> Vec<(String, f64)> {
    doc.get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result directories metric by metric. End-to-end metrics
/// must lie within their bound of each other; exact per-layer metrics
/// and the failure counts must be identical. Returns one line per
/// violation.
pub fn agree(a: &Path, b: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    for w in &WORKLOADS {
        for suffix in ["json", "layers.json"] {
            let file = format!("{}.{suffix}", w.name);
            let (da, db) = match (load(&a.join(&file)), load(&b.join(&file))) {
                (Ok(da), Ok(db)) => (da, db),
                (ra, rb) => {
                    violations.extend([ra.err(), rb.err()].into_iter().flatten());
                    continue;
                }
            };
            for (side, doc) in [("A", &da), ("B", &db)] {
                if doc.get("failed").and_then(Value::as_u64) != Some(0) {
                    violations.push(format!("{file}: {side} has failed operations"));
                }
            }
            let mb = metrics_of(&db);
            for (name, va) in metrics_of(&da) {
                let Some(&(_, vb)) = mb.iter().find(|(n, _)| *n == name) else {
                    violations.push(format!("{file}: {name} missing from B"));
                    continue;
                };
                if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                    let rel = (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE);
                    if rel > m.bound {
                        violations.push(format!(
                            "{file}: {name} differs by {:.1}% (bound {:.0}%): {va} vs {vb}",
                            rel * 100.0,
                            m.bound * 100.0
                        ));
                    }
                } else if PER_LAYER.iter().any(|l| l.name == name && l.exact) && va != vb {
                    violations.push(format!("{file}: exact {name} differs: {va} vs {vb}"));
                }
            }
        }
    }
    violations
}

/// Run `bin` once on `workload` and return its end-to-end metrics.
fn one_run(
    bin: &str,
    workload: &str,
    seed: u64,
    seconds: u64,
) -> Result<Vec<(String, f64)>, String> {
    let out = Command::new(bin)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("{bin}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{bin}: exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = parse(last).map_err(|e| format!("{bin}: last line is not JSON: {e}"))?;
    if doc.get("failed").and_then(Value::as_u64) != Some(0) {
        return Err(format!("{bin}: run reported failed operations"));
    }
    Ok(metrics_of(&doc))
}

/// `n` alternating parent/change pairs of one workload: medians,
/// quartiles and the change's win count per end-to-end metric.
pub fn pairs(
    parent: &str,
    change: &str,
    workload: &str,
    n: u64,
    seconds: u64,
) -> Result<String, String> {
    let mut runs: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
    for i in 0..n {
        // Alternate which side runs first so drift hits both equally.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let bin = [parent, change][side];
            runs[side].push(one_run(bin, workload, i + 1, seconds)?);
        }
    }
    let mut report = format!("{workload}: {n} alternating pairs, {seconds} s each\n");
    for m in &END_TO_END {
        let column = |side: usize| -> Vec<f64> {
            runs[side]
                .iter()
                .filter_map(|r| r.iter().find(|(k, _)| k == m.name).map(|&(_, v)| v))
                .collect()
        };
        let (p, c) = (column(0), column(1));
        let (mut wins, mut ties) = (0, 0);
        for (&vp, &vc) in p.iter().zip(&c) {
            match (vc == vp, (vc > vp) == (m.better == "higher")) {
                (true, _) => ties += 1,
                (false, true) => wins += 1,
                (false, false) => {}
            }
        }
        let [p1, p2, p3] = quartiles(&p);
        let [c1, c2, c3] = quartiles(&c);
        report.push_str(&format!(
            "{:<12} parent {p2:.6} [{p1:.6}, {p3:.6}]  change {c2:.6} [{c1:.6}, {c3:.6}]  \
             change wins {wins}/{n}, ties {ties} ({} is better)\n",
            m.name, m.better
        ));
    }
    Ok(report)
}

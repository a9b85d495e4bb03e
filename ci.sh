#!/usr/bin/env sh
# The full gate, and the only list of gates: .github/workflows/ci.yml
# installs the toolchain and runs this script.
# Runs entirely offline: the workspace has no external dependencies.
set -eux

cargo fmt --all -- --check
# Non-test lines, the simplicity metric ROADMAP and EXPERIMENTS quote: per
# crate and in total, the lines of crates/*/src (hostbench excluded) above
# the `#[cfg(test)]` that opens a file's test `mod`, or the whole file
# when it has none. A printout, not a gate.
find crates/*/src -name '*.rs' ! -path 'crates/hostbench/*' | sort | xargs awk '
    FNR == 1 { crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate)
               if (!(crate in lines)) order[++n] = crate; cut = 0; prev = "" }
    !cut && prev ~ /^#\[cfg\(test\)\]$/ && /^(pub(\(crate\))? )?mod / { cut = 1; lines[crate]--; total-- }
    !cut { lines[crate]++; total++ }
    { prev = $0 }
    END { for (i = 1; i <= n; i++) printf "non-test lines: %-12s %6d\n", order[i], lines[order[i]]
          printf "non-test lines: %-12s %6d\n", "total", total }'
cargo clippy --workspace --all-targets -- -D warnings
# Doc links cannot rot: an intra-doc link to a deleted item (a field, a
# constant, a function) fails the gate. Links from public docs to private
# items are allowed, since every item is documented here.
RUSTDOCFLAGS="-D warnings -A rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --workspace --exclude hera-hostbench --document-private-items
cargo build --release --workspace
cargo test -q --workspace --exclude hera-integration
# The seeded differential tests (fused dispatch against head-by-head in
# hera-core, every fused slot against the plain lowering in hera-jit, the
# run-charging data-cache lookup against its clock-charging reference in
# hera-softcache, the fleet's event queue against its one-heap reference
# in hera-cluster, the fleet-trace exporter against the 80-byte span
# record and its writer in hera-trace), hera-cluster's run table
# executing each VM re-run once per experiment on pools of 0, 1 and 3
# extra threads (replays_render_identically_on_any_pool) and hera-core's
# two resealed-payload mutation sweeps over the snapshot codec
# (resealed_payload_mutations_never_panic over a whole untraced
# checkpoint, resealed_obs_mutations_of_an_observed_checkpoint_never_panic
# over the OBS section of a traced and profiled one) once more where the
# per-op charge shadow is compiled out and arithmetic wraps instead of
# panicking: a decoder check that leans on an overflow panic shows up
# there as a restore a sweep's pinned digest does not expect.
cargo test -q --release -p hera-jit -p hera-core -p hera-softcache -p hera-cluster -p hera-trace
# hera-integration's binaries are most of the suite's wall time (ROADMAP
# aim 4e): build them once, then run them one at a time and print the
# wall seconds each took, so a slow CI run explains itself.
cargo test -q -p hera-integration --no-run
cargo test -q -p hera-integration --lib
for t in crates/integration/tests/*.rs; do
    name=$(basename "$t" .rs)
    start=$(date +%s)
    cargo test -q -p hera-integration --test "$name"
    echo "== hera-integration --test $name: $(($(date +%s) - start)) s =="
done
# The release smokes below print their wall seconds the same way.
timed() {
    start=$(date +%s)
    cargo run --release -p hera-bench --bin figures -- "$@"
    echo "== $1: $(($(date +%s) - start)) s =="
}
# Perf regression gate: nine full-scale cells must reproduce the virtual
# metrics (wall_cycles, guest_ops) pinned in hera-bench's PERF_GATE_PINS
# exactly; host wall-clock is not compared (`hostbench pairs` owns
# host-time claims), so this cannot flake.
timed perf-gate
# Profiler smoke: per-method attribution must reconcile with RunStats
# (the command prints and checks the invariant) and write the folded
# flamegraph output.
timed profile mandelbrot --scale 0.25
# Trace-export smoke: the Chrome exporter must be a pure function of the
# trace (the subcommand exports twice and compares the documents byte for
# byte) and must close every frame it opens (`"ph":"B"` and `"ph":"E"`
# counts balance) — exit 1 otherwise; writes trace_mandelbrot.json.
timed trace mandelbrot --scale 0.25
# Chaos smoke: fixed seed, one workload, SPE-death schedule; the run
# must recover (the harness asserts the checksum), replay byte-identically
# under the same seed, and print the report — exit 1 on any divergence.
timed chaos mandelbrot --scale 0.25
# Snapshot round-trip smoke: crash the whole machine mid-run, restore
# from the latest on-disk checkpoint, finish the workload, and verify
# the recovered run is bit-identical to the uninterrupted one (the
# format-version golden in tests/snap.rs separately pins the on-disk
# encoding against silent drift).
timed chaos-crash mandelbrot --scale 0.25
# Migration and proxying smokes: the mixed workload under all four
# placement policies (annotation migration with markers, adaptive
# one-way migration), and the sync workload on 1-6 SPEs with and without
# CellVM-style PPE-proxied monitors. They are the release runs of those
# slow-tier paths that assert every run's result (the `sync-migrate`
# hostbench smoke below checks only its summed virtual cycles); a failed
# assertion panics and fails the gate.
timed placement --scale 0.25
timed cellvm-sync
# Cluster smoke: a small fleet (4 machines) with one mid-trace machine
# crash and one live migration; every recovery and migration must prove
# bit-identical to the unmigrated run and the whole report must replay
# byte-identically under the same seed — exit 1 on any divergence.
timed cluster --requests 300
# Resilience smoke: the full chaos matrix (straggler + crash storm,
# every knob combination) must replay byte-identically and hold full
# resilience's p99 within 2x of the fault-free baseline at >=90%
# goodput — exit 1 otherwise.
timed cluster-chaos
# Observability smoke: the E13 matrix with hera-scope on must reconcile
# its span ledger exactly against the policy counters, replay the
# report + Chrome trace + SLO table byte-identically, and write
# fleet_trace.json / fleet_slo.txt — exit 1 on any divergence.
timed fleet-trace
# Proactive-degradation smoke: the E15 matrix (heterogeneous 2/4/6-SPE
# fleet, breaker/slowdown drains, seeded rebalancer) must replay
# byte-identically, prove every cross-shape adoption by replay
# determinism, reconcile the drain ledger, and hold proactive p99 <=
# reactive p99 at >= reactive goodput — exit 1 otherwise.
timed cluster-rebal
# Release exactness smoke for the benchmark's own cells: the hot tier's
# per-op charging oracle is a debug assertion, and `perf-gate` runs the
# workloads at scale 1.0 while hostbench runs them at 0.25 — so run six
# hostbench workloads the way the benchmark driver does (`kernels-spe`
# is the one where every load is a data-cache hit charged into the run;
# `observed` is the one that traces, exports and profiles, and checks that
# every pass renders the same bytes; `fleet-proofs` is the one whose VM
# runs price their checkpoints and seal only what a recovery reads, and
# counts its adoption proofs; `fleet-loop` is the one whose pinned
# `virt.cycles`, each policy's p99 at 100 000 requests, is the event
# loop's and no other smoke reads).
# Each checks the workload's summed virtual cycles against its pinned
# `virt.cycles` and every cell's result, and exits non-zero on a mismatch
# or any failed operation.
hostbench_smoke() {
    start=$(date +%s)
    cargo run --release -q -p hera-hostbench -- run --workload "$1" --seconds 2 --trace 0
    echo "== hostbench $1: $(($(date +%s) - start)) s =="
}
hostbench_smoke kernels-ppe
hostbench_smoke kernels-spe
hostbench_smoke sync-migrate
hostbench_smoke observed
hostbench_smoke fleet-proofs
hostbench_smoke fleet-loop

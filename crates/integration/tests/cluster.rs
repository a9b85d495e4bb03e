//! Fleet-level integration tests: determinism of the cluster report,
//! crash-recovery requeue accounting, and the migration bit-identity
//! proof — including the underlying snapshot-adoption API.

#![forbid(unsafe_code)]

use hera_cell::FaultPlan;
use hera_cluster::{run_experiment, ArrivalShape, ClusterConfig};
use hera_core::{HeraJvm, RunEnd, VmConfig};
use hera_integration::fleets::{busy_fleet, small_e13, small_e15};
use hera_workloads::Workload;

#[test]
fn same_seed_reports_are_byte_identical() {
    let cfg = busy_fleet();
    let a = run_experiment(&cfg).expect("experiment runs");
    let b = run_experiment(&cfg).expect("experiment runs");
    assert_eq!(a.render(), b.render(), "rendered reports diverged");
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        // Histogram equality is stronger than the rendering: every
        // bucket, not just the printed percentiles.
        assert_eq!(
            oa.metrics, ob.metrics,
            "policy {} metrics diverged",
            oa.policy
        );
    }
    assert!(a.failures.is_empty(), "{:?}", a.failures);
}

#[test]
fn different_seeds_produce_different_reports() {
    let cfg = busy_fleet();
    let mut other = busy_fleet();
    other.seed = 43;
    let a = run_experiment(&cfg).expect("experiment runs");
    let b = run_experiment(&other).expect("experiment runs");
    assert_ne!(
        a.render(),
        b.render(),
        "different seeds gave identical reports"
    );
}

#[test]
fn crash_requeues_every_in_flight_job_exactly_once() {
    let report = run_experiment(&busy_fleet()).expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let mut saw_in_flight = false;
    for o in &report.outcomes {
        assert_eq!(o.crash_events.len(), 1, "policy {}", o.policy);
        let crash = &o.crash_events[0];
        // With a single crash, the per-job requeue ledger must contain
        // exactly the jobs the crash caught in flight, each once.
        assert_eq!(
            o.requeues.len() as u64,
            crash.in_flight,
            "policy {}: requeued jobs != in-flight jobs",
            o.policy
        );
        for (&job, &n) in &o.requeues {
            assert_eq!(n, 1, "policy {}: job {job} requeued {n} times", o.policy);
        }
        assert_eq!(
            o.metrics.counter("cluster.crash.requeued"),
            crash.in_flight,
            "policy {}",
            o.policy
        );
        // Every request still completes, through the requeue.
        assert_eq!(o.completed, 50, "policy {}", o.policy);
        saw_in_flight |= crash.in_flight > 0;
    }
    assert!(
        saw_in_flight,
        "crash never caught a job in flight — config not busy enough to test requeueing"
    );
}

#[test]
fn migration_is_bit_identical_under_an_active_fault_plan() {
    let mut cfg = busy_fleet();
    // Machines run distinct seeded transient-fault plans; migration must
    // still reproduce the origin machine's run exactly, because the
    // snapshot carries its fault plan (stream position included).
    cfg.fault_rates = Some((400, 250, 150));
    let report = run_experiment(&cfg).expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let mut migrations = 0;
    for o in &report.outcomes {
        for ev in &o.migration_events {
            assert!(
                ev.verified_identical,
                "policy {}: migration {} -> {} not proven bit-identical",
                o.policy, ev.src, ev.dest
            );
            assert!(ev.snapshot_bytes > 0);
            assert!(ev.transfer_cycles > 0);
            migrations += 1;
        }
        assert_eq!(o.completed, 50, "policy {}", o.policy);
    }
    assert!(
        migrations > 0,
        "no migration ever happened — nothing was proven"
    );
}

/// The API the fleet is built on, exercised directly: a checkpoint taken
/// under one machine's fault plan restores on a machine with a
/// *different* plan only through adoption (the snapshot's plan wins);
/// the strict path refuses, and the adopted run is bit-identical to the
/// uninterrupted origin run.
#[test]
fn adoption_restores_across_fault_plans_strict_refuses() {
    let (program, checksum) = Workload::Compress.build(1, 0.02);
    let plan_a = FaultPlan::seeded(7)
        .with_mfc_faults(400, 250, 150)
        .expect("valid fault rates");
    let plan_b = FaultPlan::seeded(9)
        .with_mfc_faults(100, 50, 25)
        .expect("valid fault rates");
    let base = |plan: FaultPlan| {
        let mut cfg = VmConfig::pinned_spe(1)
            .with_checkpoint_every(400_000)
            .with_faults(plan);
        cfg.heap.size_bytes = 1 << 20;
        cfg
    };

    let vm_a = HeraJvm::new(program.clone(), base(plan_a)).expect("constructs");
    let reference = vm_a.run().expect("uninterrupted run");
    assert!(reference.is_clean(), "traps: {:?}", reference.traps);
    assert_eq!(
        reference.result,
        Some(hera_isa::Value::I32(checksum)),
        "reference checksum"
    );

    let crash_at = reference.stats.wall_cycles * 2 / 3;
    let doomed = HeraJvm::new(program.clone(), base(plan_a.with_machine_crash(crash_at)))
        .expect("constructs");
    let RunEnd::Crashed {
        at_cycle,
        checkpoint,
    } = doomed.run_until_crash().expect("doomed run")
    else {
        panic!("machine was scheduled to crash mid-run but completed");
    };
    assert!(at_cycle >= crash_at);
    let last = checkpoint.expect("at least one checkpoint survived");

    let vm_b = HeraJvm::new(program, base(plan_b)).expect("constructs");
    vm_b.restore_bytes(&last.bytes)
        .expect_err("strict restore must refuse a foreign fault plan");
    let adopted = vm_b.adopt_bytes(&last.bytes).expect("adoption restores");
    assert_eq!(adopted.result, reference.result, "result diverged");
    assert_eq!(adopted.traps, reference.traps, "traps diverged");
    assert_eq!(adopted.output, reference.output, "output diverged");
    assert_eq!(
        adopted.heap_digest, reference.heap_digest,
        "final heap image diverged"
    );
    assert_eq!(
        adopted.stats.wall_cycles, reference.stats.wall_cycles,
        "wall clock diverged"
    );
}

/// A tripped breaker's probe schedule is a pure function of (seed,
/// machine, trip count): two breakers fed the identical timeout/crash
/// history produce the identical probe times, and a different seed
/// produces a different schedule.
#[test]
fn tripped_breaker_probe_schedule_is_deterministic() {
    use hera_cluster::{Breaker, ResilConfig};
    let cfg = ResilConfig::default();
    let drive = |seed: u64| -> Vec<u64> {
        let mut b = Breaker::new();
        let mut probes = Vec::new();
        // Three timeouts trip it; probe, fail the trial, probe again,
        // recover, then a crash trips it once more.
        assert!(b.on_timeout(&cfg, seed, 1, 1_000).is_none());
        assert!(b.on_timeout(&cfg, seed, 1, 2_000).is_none());
        let first = b
            .on_timeout(&cfg, seed, 1, 3_000)
            .expect("third timeout trips");
        probes.push(first);
        b.on_probe(first);
        let second = b
            .on_timeout(&cfg, seed, 1, first)
            .expect("half-open timeout re-trips");
        probes.push(second);
        b.on_probe(second);
        b.on_success();
        probes.push(
            b.on_crash(&cfg, seed, 1, second + 500)
                .expect("crash trips"),
        );
        probes
    };
    let a = drive(42);
    assert_eq!(a, drive(42), "same history, same seed: schedule diverged");
    assert!(
        a.windows(2).all(|w| w[1] > w[0]),
        "probe backoff must grow with the trip count: {a:?}"
    );
    assert_ne!(a, drive(43), "different seeds must jitter the schedule");
}

/// The whole resilience matrix — every knob combination over a straggler
/// plus a crash — replays byte-identically from the same seed, and every
/// embedded bit-identity proof holds. A deliberately small fleet so the
/// debug-mode run stays CI-friendly.
#[test]
fn chaos_matrix_replays_byte_identically() {
    let cfg = small_e13();
    let a = hera_cluster::run_chaos_matrix(&cfg).expect("matrix runs");
    let b = hera_cluster::run_chaos_matrix(&cfg).expect("matrix runs");
    assert_eq!(a.render(), b.render(), "chaos matrix replay diverged");
    assert!(a.failures.is_empty(), "{:?}", a.failures);
}

/// Overflowing a capped machine queue degrades into *measured* shed:
/// nothing is silently dropped, and every request is accounted for as
/// either completed or shed.
#[test]
fn queue_cap_overflow_sheds_and_accounts_for_every_request() {
    let cfg = ClusterConfig {
        seed: 42,
        machines: 1,
        requests: 40,
        threads: 2,
        scale: 0.02,
        num_spes: 2,
        heap_bytes: 1 << 20,
        arrival: ArrivalShape::Bursty { burst: 20 },
        utilization_pct: 98,
        crashes: vec![],
        migrations: vec![],
        queue_cap: 4,
        ..ClusterConfig::default()
    };
    let report = run_experiment(&cfg).expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    for o in &report.outcomes {
        let overflow = o.metrics.counter("cluster.shed.overflow");
        let shed = o.metrics.counter("cluster.shed");
        assert!(
            overflow > 0,
            "policy {}: a 20-burst against queue_cap=4 never overflowed",
            o.policy
        );
        assert_eq!(
            overflow, shed,
            "policy {}: with resilience off, overflow is the only shed path",
            o.policy
        );
        assert_eq!(
            o.completed + shed,
            40,
            "policy {}: requests neither completed nor shed",
            o.policy
        );
    }
}

// ------------------------------------------------- heterogeneous shapes

/// A checkpoint taken on a 2-SPE machine lands on a 1-SPE machine only
/// through adoption: the strict path refuses the shape change outright,
/// and because the surviving cores replay a *different* interleaving
/// than the source shape would have, the adoption's warranty is replay
/// determinism — two adoptions of the same snapshot must agree on every
/// observable — plus the workload checksum, not bit-identity to the
/// source-shape run.
#[test]
fn cross_shape_adoption_is_replay_deterministic_strict_refuses() {
    let (program, checksum) = Workload::Compress.build(2, 0.02);
    let base = |spes: u8| {
        let mut cfg = VmConfig::pinned_spe(spes).with_checkpoint_every(400_000);
        cfg.heap.size_bytes = 1 << 20;
        cfg
    };

    let vm_src = HeraJvm::new(program.clone(), base(2)).expect("constructs");
    let reference = vm_src.run().expect("uninterrupted source-shape run");
    assert!(reference.is_clean(), "traps: {:?}", reference.traps);

    let crash_at = reference.stats.wall_cycles * 2 / 3;
    let doomed = HeraJvm::new(
        program.clone(),
        base(2).with_faults(FaultPlan::default().with_machine_crash(crash_at)),
    )
    .expect("constructs");
    let RunEnd::Crashed { checkpoint, .. } = doomed.run_until_crash().expect("doomed run") else {
        panic!("machine was scheduled to crash mid-run but completed");
    };
    let last = checkpoint.expect("a checkpoint survived");

    let vm_small = HeraJvm::new(program.clone(), base(1)).expect("constructs");
    vm_small
        .restore_bytes(&last.bytes)
        .expect_err("strict restore must refuse a snapshot from another shape");

    let a = vm_small.adopt_bytes(&last.bytes).expect("first adoption");
    let vm_small2 = HeraJvm::new(program, base(1)).expect("constructs");
    let b = vm_small2.adopt_bytes(&last.bytes).expect("second adoption");
    assert!(a.is_clean(), "adopted run trapped: {:?}", a.traps);
    assert_eq!(
        a.result,
        Some(hera_isa::Value::I32(checksum)),
        "adopted run lost the workload checksum"
    );
    assert_eq!(a.result, b.result, "result diverged between replays");
    assert_eq!(a.traps, b.traps, "traps diverged between replays");
    assert_eq!(a.output, b.output, "output diverged between replays");
    assert_eq!(
        a.heap_digest, b.heap_digest,
        "heap image diverged between replays"
    );
    assert_eq!(
        a.stats.wall_cycles, b.stats.wall_cycles,
        "wall clock diverged between replays"
    );
    // The dropped SPE's threads drained to the PPE: the adoption pays
    // migrations the source-shape run never had.
    assert!(
        a.stats.migrations > reference.stats.migrations,
        "adopting on a smaller shape must drain threads to the PPE \
         ({} vs {} migrations)",
        a.stats.migrations,
        reference.stats.migrations
    );
}

/// The whole proactive-degradation matrix (E15 at CI scale) — a
/// heterogeneous fleet under a straggler plus a crash, with drains and
/// the rebalancer on — replays byte-identically, and every embedded
/// proof and ledger reconciliation holds.
#[test]
fn rebal_matrix_replays_byte_identically_on_a_heterogeneous_fleet() {
    let cfg = small_e15();
    let a = hera_cluster::run_rebal_matrix(&cfg).expect("matrix runs");
    let b = hera_cluster::run_rebal_matrix(&cfg).expect("matrix runs");
    assert_eq!(a.render(), b.render(), "rebal matrix replay diverged");
    assert!(a.failures.is_empty(), "{:?}", a.failures);
    assert_eq!(a.rows.len(), 4, "baseline + reactive + drains + rebalance");
    assert_eq!(a.stats.len(), a.rows.len());
    // The proactive layer is off in the first two rows by construction.
    assert_eq!(a.stats[0].drains, 0);
    assert_eq!(a.stats[1].drains, 0);
}

/// `advertised_capacity_permille` is the pure function behind
/// health-weighted JSQ: always in 1..=1000, monotone non-increasing in
/// the slowdown factor, and a half-open breaker never advertises more
/// than the same machine closed.
#[test]
fn advertised_capacity_is_bounded_and_monotone() {
    use hera_cluster::resil::advertised_capacity_permille;
    let mut prev = u64::MAX;
    for factor in 0..=4096u32 {
        for half_open in [false, true] {
            let cap = advertised_capacity_permille(factor, half_open);
            assert!((1..=1000).contains(&cap), "factor {factor}: cap {cap}");
        }
        let closed = advertised_capacity_permille(factor, false);
        assert!(
            closed <= prev,
            "capacity must not grow with the slowdown factor \
             ({prev} then {closed} at factor {factor})"
        );
        assert!(
            advertised_capacity_permille(factor, true) <= closed,
            "half-open must never advertise more than closed (factor {factor})"
        );
        prev = closed;
    }
    assert_eq!(advertised_capacity_permille(1, false), 1000);
    assert_eq!(advertised_capacity_permille(4, false), 250);
}

/// With every machine advertising full capacity, health-weighted JSQ
/// must collapse to the legacy ordering: fewest (queued + running)
/// jobs, ties to the lowest machine index.
#[test]
fn jsq_at_uniform_capacity_collapses_to_legacy_order() {
    use hera_cluster::{BalancePolicy, JoinShortestQueue, MachineView};
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut policy = JoinShortestQueue;
    for _ in 0..500 {
        let n = (next() % 6 + 1) as usize;
        let views: Vec<MachineView> = (0..n)
            .map(|m| MachineView {
                machine: m,
                queue_len: (next() % 5) as usize,
                running: next() % 2 == 0,
                backlog_cycles: next() % 1_000_000,
                capacity_permille: 1000,
            })
            .collect();
        let legacy = views
            .iter()
            .min_by_key(|v| (v.queue_len + v.running as usize, v.machine))
            .expect("views is non-empty")
            .machine;
        assert_eq!(
            policy.pick(&views),
            legacy,
            "uniform-capacity JSQ diverged from legacy order on {views:?}"
        );
    }
}

/// Conservation under configs nobody hand-picked: eight small fleets drawn
/// from a seed — size, shapes, crash storm, straggler, migrations, and
/// each of resil / rebal / scope on or off — through all three runners.
/// Every request must end exactly once, every proof and ledger must hold,
/// and a second run must render the same bytes; in a debug build the
/// kernel's placement invariants are asserted after every move as well.
#[test]
fn seeded_fleets_conserve_every_request_and_replay_identically() {
    use hera_cluster::{run_chaos_matrix, run_rebal_matrix, RebalConfig, ResilConfig};
    let mut rng = hera_rng::SplitMix64::new(0x5eed_f1ee7);
    for case in 0..8 {
        let seed = rng.next_u64() % 10_000;
        let machines = 2 + rng.next_below(3) as usize;
        let mut coin = || rng.next_below(2) == 0;
        let cfg = ClusterConfig {
            seed,
            machines,
            // Sized for a debug build: single-thread jobs at the smallest
            // workload scale on a small heap, a checkpoint or two per run.
            requests: 16,
            threads: 1,
            scale: 0.01,
            num_spes: 2,
            heap_bytes: 1 << 18,
            checkpoint_every: 1_200_000,
            utilization_pct: 85,
            shapes: (0..machines)
                .map(|m| hera_cluster::MachineShape {
                    spe_count: if (seed >> m) & 1 == 0 { 2 } else { 1 },
                })
                .collect(),
            crashes: hera_cluster::crash_storm(seed, machines, 1 + case % 2, 200, 800),
            migrations: if coin() { vec![(0, 500)] } else { vec![] },
            slowdowns: if coin() {
                vec![(machines - 1, 3, 0)]
            } else {
                vec![]
            },
            resil: coin().then(|| ResilConfig::default().full()),
            rebal: coin().then(RebalConfig::default),
            scope: coin(),
            ..ClusterConfig::default()
        };
        let what = format!("case {case} (seed {seed}): {cfg:?}");

        let report = run_experiment(&cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(report.failures.is_empty(), "{what}: {:?}", report.failures);
        for o in &report.outcomes {
            let m = &o.metrics;
            let ended =
                o.completed + m.counter("cluster.shed") + m.counter("resil.deadline_failures");
            assert_eq!(ended, cfg.requests, "{what}: policy {}", o.policy);
            assert_eq!(m.counter("cluster.requests"), cfg.requests, "{what}");
        }
        let again = run_experiment(&cfg).expect("replay runs").render();
        assert_eq!(report.render(), again, "{what}: experiment replay diverged");

        for (name, run) in [
            ("chaos", run_chaos_matrix as fn(&_) -> _),
            ("rebal", run_rebal_matrix),
        ] {
            let report = run(&cfg).unwrap_or_else(|e| panic!("{what}: {name}: {e}"));
            assert!(report.failures.is_empty(), "{what}: {:?}", report.failures);
            for row in &report.rows {
                // A row without resilience has no deadline to miss: every
                // request completes or is shed. With it, the remainder
                // timed out (the scope ledger and the never-completed
                // check, both in `failures`, account for those).
                let ended = row.completed + row.shed;
                assert!(ended <= row.requests, "{what}: {name} row {}", row.name);
                if row.slo_ok.is_none() {
                    assert_eq!(ended, cfg.requests, "{what}: {name} row {}", row.name);
                }
            }
            let again = run(&cfg).expect("replay runs").render();
            assert_eq!(report.render(), again, "{what}: {name} replay diverged");
        }
    }
}

// ------------------------------------------------- hostbench's fleets

/// The two fleets `hostbench`'s `fleet-proofs` workload times: the default
/// experiment, and the E15 rebal matrix at 1 500 requests (`e13` plus
/// `e15`'s shapes, migrations and scope over a two-crash storm). Pins the
/// rendered bytes of each, and each row's adoption proof count, so a change
/// to how the fleet's VM runs are scheduled cannot move either.
#[test]
fn fleet_proofs_cells_match_pinned_digests() {
    let digest = |s: &str| hera_snap::digest64(s.as_bytes());
    let default = run_experiment(&ClusterConfig::default()).expect("experiment runs");
    assert!(default.failures.is_empty(), "{:?}", default.failures);
    let rebal_cfg = ClusterConfig::e15(42, 6, 1_500, 0.02);
    assert_eq!(
        rebal_cfg.crashes,
        hera_cluster::crash_storm(42, 6, 2, 300, 700)
    );
    let rebal = hera_cluster::run_rebal_matrix(&rebal_cfg).expect("matrix runs");
    assert!(rebal.failures.is_empty(), "{:?}", rebal.failures);

    let proofs = |o: &hera_cluster::PolicyOutcome| o.metrics.counter("cluster.adoption.proofs");
    let got = (
        [digest(&default.render()), digest(&rebal.render())],
        default.outcomes.iter().map(proofs).collect::<Vec<_>>(),
        rebal
            .stats
            .iter()
            .map(|s| s.adoption_proofs)
            .collect::<Vec<_>>(),
    );
    let want = (
        [0x8c20_d8a6_b31f_bf91_u64, 0xfad7_f963_d338_d2fa],
        vec![2, 2, 2],
        vec![0, 3, 3, 3],
    );
    assert_eq!(got, want, "fleet-proofs bytes moved");
}

/// Three 2-SPE machines, machine 0 a straggler from cycle 400 000, so
/// lightly loaded that one job is in flight at a time. Machines 0 and 1
/// crash at one instant, while job 1 runs on machine 1 under round-robin
/// and on machine 0 under the other two policies: two doomed runs of one
/// class that start together and stop at the same cycle, under different
/// fault plans. Job 1 then resumes on machine 2 from the snapshot its
/// policy's doomed run left, and machine 2 crashes too: two more doomed
/// runs at one cycle, from snapshots that differ only in the plan they
/// carry.
fn straggler_twin_fleet() -> ClusterConfig {
    ClusterConfig {
        seed: 42,
        machines: 3,
        requests: 10,
        threads: 2,
        scale: 0.02,
        num_spes: 2,
        heap_bytes: 1 << 20,
        arrival: ArrivalShape::Uniform,
        utilization_pct: 5,
        crashes: vec![(0, 241), (1, 241), (2, 244)],
        migrations: vec![],
        slowdowns: vec![(0, 4, 400_000)],
        ..ClusterConfig::default()
    }
}

/// The twin fleet's report. Checks first that the runs it is there for
/// happen: the two first doomed runs re-execute the same cycles, and the
/// two second ones, from different snapshots, do not.
#[test]
fn straggler_twin_fleet_matches_pinned_digest() {
    let report = run_experiment(&straggler_twin_fleet()).expect("experiment runs");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let crashes = |policy: usize| {
        let events = &report.outcomes[policy].crash_events;
        assert_eq!(events.len(), 3, "policy {policy}: {events:?}");
        assert!(events[2].resumed_from_checkpoint, "policy {policy}");
        events.clone()
    };
    let (rr, jsq) = (crashes(0), crashes(1));
    assert!(rr[1].resumed_from_checkpoint && jsq[0].resumed_from_checkpoint);
    assert_eq!(rr[1].reexec_cycles, jsq[0].reexec_cycles);
    assert_ne!(rr[2].reexec_cycles, jsq[2].reexec_cycles);
    let got = hera_snap::digest64(report.render().as_bytes());
    assert_eq!(got, 0xe5cc_cc43_c0c4_fe98, "twin fleet bytes moved");
}

// ------------------------------------------------- doomed-run grid

/// One VM of the doomed-run grid.
struct GridVm {
    name: String,
    program: hera_isa::Program,
    cfg: VmConfig,
}

/// The three kernels on the fleet's two machine sizes (2 SPEs on 1 MB,
/// 6 SPEs on 2 MB) at the fleet's checkpoint cadence, plus mpegaudio on
/// the PPE alone at a cadence below the 2 000-cycle base charge. On an
/// SPE-pinned machine a checkpoint's PPE stall never moves the latest
/// clock; on the PPE-only one it always does, and crosses the next due
/// cycle.
fn doomed_grid() -> Vec<GridVm> {
    let machine = |cfg: VmConfig, every: u64, heap: u32| {
        let mut cfg = cfg.with_checkpoint_every(every);
        cfg.heap.size_bytes = heap;
        cfg
    };
    let mut grid = Vec::new();
    for w in Workload::ALL {
        let (program, _) = w.build(2, 0.02);
        for (spes, heap) in [(2, 1 << 20), (6, 2 << 20)] {
            grid.push(GridVm {
                name: format!("{} spe{spes}", w.name()),
                program: program.clone(),
                cfg: machine(VmConfig::pinned_spe(spes), 150_000, heap),
            });
        }
    }
    let (program, _) = Workload::MpegAudio.build(2, 0.02);
    grid.push(GridVm {
        name: "mpegaudio ppe".into(),
        program,
        cfg: machine(VmConfig::pinned_ppe(), 1_500, 1 << 20),
    });
    grid
}

/// `(seq, CORE bytes)` of every `Checkpoint` trace event, in order.
fn checkpoint_events(run: &hera_core::RunOutcome) -> Vec<(u32, u32)> {
    (run.trace.iter_all())
        .filter_map(|(_, e)| match e.event {
            hera_trace::TraceEvent::Checkpoint { seq, bytes } => Some((seq, bytes)),
            _ => None,
        })
        .collect()
}

/// Where the grid crashes a VM, from its traced plain run: half-way
/// through the interval after the middle checkpoint's next due cycle,
/// exactly on that due cycle, and where the middle checkpoint's own
/// write stall (`2000 + core_len / 16`) ends.
fn crash_points(vm: &GridVm, plain: &hera_core::RunOutcome) -> [(&'static str, u64); 3] {
    let every = vm.cfg.checkpoint_every.expect("grid VMs checkpoint");
    let mid = &plain.checkpoints[plain.checkpoints.len() / 2];
    let due = (mid.at_cycle / every + 1) * every;
    let (_, core_len) = checkpoint_events(plain)[mid.seq as usize - 1];
    [
        ("mid-interval", due + every / 2),
        ("on a due cycle", due),
        (
            "across the stall",
            mid.at_cycle + 2_000 + core_len as u64 / 16,
        ),
    ]
}

/// `digest64` of how a surviving run ended: the crash cycle, then the
/// freshest checkpoint's seq, trigger cycle and bytes (`u64::MAX` alone
/// when the run completed).
fn end_digest(end: RunEnd) -> u64 {
    let RunEnd::Crashed {
        at_cycle,
        checkpoint,
    } = end
    else {
        return hera_snap::digest64(&u64::MAX.to_le_bytes());
    };
    let mut bytes = at_cycle.to_le_bytes().to_vec();
    if let Some(c) = checkpoint {
        bytes.extend(c.seq.to_le_bytes());
        bytes.extend(c.at_cycle.to_le_bytes());
        bytes.extend(&c.bytes);
    }
    hera_snap::digest64(&bytes)
}

/// Which checkpoint a doomed run hands recovery, pinned on the code that
/// kept every checkpoint (`checkpoints.last()` of ISSUE 25's parent):
/// per grid VM, `digest64` of its traced plain run's `(seq, core_len)`
/// checkpoint events, then [`end_digest`] at each of [`crash_points`];
/// last, a cross-shape `adopt_until_crash` of compress's middle 6-SPE
/// checkpoint on the 2-SPE machine with the 2 MB heap.
#[test]
fn doomed_runs_keep_the_pinned_freshest_checkpoint() {
    // Per VM: events, mid-interval, on a due cycle, across the stall.
    #[rustfmt::skip]
    const PINNED: [u64; 29] = [
        0x5bd3_b328_9070_97e6, 0xabd3_3880_5feb_a3c3, 0x42b3_e5be_833b_14cd, 0xe2cd_08ad_eb25_a4b9,
        0x114c_a578_9070_97e6, 0xe178_0e8e_c697_b597, 0xbae4_d677_c68c_f145, 0x8e15_16e5_c13f_5539,
        0x5f0d_e2ac_68e0_35ee, 0x2ec6_549c_980b_270b, 0xd8cf_f471_341e_2e87, 0x2138_abb8_d05b_13a5,
        0x0faa_194a_68e0_35ee, 0x6966_dd8c_e441_b011, 0x62a9_886a_656d_5a45, 0x9e7d_3d68_9f1e_9ecd,
        0xaf23_4a8a_c3cf_4cf7, 0xc870_a6d2_bf91_0c24, 0x6ea1_7076_2ffe_a6d6, 0xef0a_ba4e_06a2_628d,
        0x37b2_8cc5_c3cf_4cf7, 0x78ea_f103_534c_db53, 0x5bad_ff33_6831_8739, 0x446b_3226_6f60_ba87,
        0xf327_5c1b_c4c6_d786, 0x9663_c459_17cc_bdd7, 0x9663_c459_17cc_bdd7, 0x9663_c459_17cc_bdd7,
        0xb0d7_4c9a_e4dd_96ba,
    ];
    let mut got = Vec::new();
    let mut adopt_from = None;
    for vm in doomed_grid() {
        let jvm = |cfg: VmConfig| HeraJvm::new(vm.program.clone(), cfg).expect("constructs");
        let plain = jvm(vm.cfg.with_tracing()).run().expect("plain run");
        let events: Vec<u8> = (checkpoint_events(&plain).iter())
            .flat_map(|&(seq, bytes)| [seq.to_le_bytes(), bytes.to_le_bytes()].concat())
            .collect();
        got.push(hera_snap::digest64(&events));
        for (case, at) in crash_points(&vm, &plain) {
            let doomed = vm
                .cfg
                .with_faults(FaultPlan::default().with_machine_crash(at));
            let end = jvm(doomed).run_until_crash().expect("doomed run");
            assert!(matches!(end, RunEnd::Crashed { .. }), "{}: {case}", vm.name);
            got.push(end_digest(end));
        }
        if vm.name == "compress spe6" {
            adopt_from = Some(plain.checkpoints[plain.checkpoints.len() / 2].clone());
        }
    }
    let mid = adopt_from.expect("compress spe6 is on the grid");
    let (program, _) = Workload::Compress.build(2, 0.02);
    let mut cfg = VmConfig::pinned_spe(2).with_checkpoint_every(150_000);
    cfg.heap.size_bytes = 2 << 20;
    // The snapshot's trace enablement is part of its configuration.
    let cfg = cfg.with_tracing();
    let at = (mid.at_cycle / 150_000 + 2) * 150_000 + 75_000;
    let cfg = cfg.with_faults(FaultPlan::default().with_machine_crash(at));
    let end = (HeraJvm::new(program, cfg).expect("constructs"))
        .adopt_until_crash(&mid.bytes)
        .expect("doomed adopted run");
    assert!(matches!(end, RunEnd::Crashed { .. }), "adopted run");
    got.push(end_digest(end));
    assert_eq!(got, PINNED, "actual: {got:#018x?}");
}

/// A surviving run is a plain run that seals less. With no crash it is a
/// traced `run()` in everything observable — trace lanes, stats, heap,
/// result — and hands back no checkpoint. With a crash its one checkpoint
/// is the last the same run writes before the crash when given a
/// checkpoint directory (where every checkpoint is sealed), and is byte
/// for byte the plain run's checkpoint of that seq.
#[test]
fn surviving_runs_seal_only_the_checkpoint_recovery_reads() {
    let dir = std::path::PathBuf::from(format!(
        "target/cluster-test-{}-surviving",
        std::process::id()
    ));
    for vm in doomed_grid() {
        let jvm = |cfg: VmConfig| HeraJvm::new(vm.program.clone(), cfg).expect("constructs");
        let traced = vm.cfg.with_tracing();
        let plain = jvm(traced).run().expect("plain run");
        let RunEnd::Completed(surviving) = jvm(traced).run_until_crash().expect("surviving run")
        else {
            panic!("{}: crashed with no crash scheduled", vm.name);
        };
        let name = &vm.name;
        assert!(
            surviving.trace.lanes() == plain.trace.lanes(),
            "{name}: trace"
        );
        assert_eq!(surviving.stats, plain.stats, "{name}: stats");
        assert_eq!(surviving.heap_digest, plain.heap_digest, "{name}: heap");
        assert_eq!(surviving.result, plain.result, "{name}: result");
        assert!(surviving.checkpoints.is_empty(), "{name}: kept checkpoints");

        for (case, at) in crash_points(&vm, &plain) {
            let doomed = traced.with_faults(FaultPlan::default().with_machine_crash(at));
            let RunEnd::Crashed {
                at_cycle,
                checkpoint,
            } = jvm(doomed).run_until_crash().expect("doomed run")
            else {
                panic!("{name}: {case}: completed");
            };
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir");
            let sealing = jvm(doomed).with_checkpoint_dir(&dir).run_until_crash();
            let Ok(RunEnd::Crashed { at_cycle: also, .. }) = sealing else {
                panic!("{name}: {case}: the sealing run did not crash");
            };
            assert_eq!(at_cycle, also, "{name}: {case}: crash cycle");
            let written = std::fs::read_dir(&dir).expect("readdir").count() as u32;
            let seq = checkpoint.as_ref().map_or(0, |c| c.seq);
            assert_eq!(seq, written, "{name}: {case}: freshest checkpoint");
            if let Some(c) = checkpoint {
                let p = &plain.checkpoints[c.seq as usize - 1];
                assert_eq!(c.at_cycle, p.at_cycle, "{name}: {case}: trigger cycle");
                assert!(c.bytes == p.bytes, "{name}: {case}: bytes");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

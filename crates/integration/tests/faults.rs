//! Chaos-testing integration: deterministic fault injection, MFC
//! retry/backoff, and SPE fail-over must neither corrupt results nor
//! break virtual-time determinism.

#![forbid(unsafe_code)]

use hera_bench::{chaos_death_cycle, chaos_plan, chaos_workload, run_workload, spe_config};
use hera_cell::FaultPlan;
use hera_core::{CheckpointBlob, HeraJvm, RunEnd};
use hera_trace::{MigrationKind, TraceEvent};
use hera_workloads::Workload;

/// Reduced work scale for chaos runs: large enough that the death
/// deadline lands mid-run on every workload, small enough for CI.
const SCALE: f64 = 0.5;

// ------------------------------------------------------------ determinism

/// Same seed + same plan ⇒ byte-identical trace, identical fault
/// accounting, identical per-core virtual time.
#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let plan = chaos_plan(42, 2, chaos_death_cycle(SCALE));
    let a = chaos_workload(Workload::Compress, SCALE, plan);
    let b = chaos_workload(Workload::Compress, SCALE, plan);

    assert!(
        a.stats.faults.total_injected() > 0,
        "the chaos plan should visibly inject on compress (got {:?})",
        a.stats.faults
    );
    assert_eq!(a.stats.faults, b.stats.faults, "fault accounting drifted");
    assert_eq!(
        a.stats.per_core_cycles, b.stats.per_core_cycles,
        "virtual time drifted between identical chaos runs"
    );
    assert_eq!(a.result, b.result);
    assert_eq!(a.trace, b.trace, "event traces are not byte-identical");
}

/// Different seeds draw different fault schedules.
#[test]
fn different_seeds_produce_different_fault_schedules() {
    let death = chaos_death_cycle(SCALE);
    let a = chaos_workload(Workload::Compress, SCALE, chaos_plan(42, 2, death));
    let b = chaos_workload(Workload::Compress, SCALE, chaos_plan(43, 2, death));
    // Both recover (checksums asserted inside chaos_workload), but the
    // injected schedules — and therefore the traces — must differ.
    assert_ne!(a.trace, b.trace, "distinct seeds should not share a trace");
}

/// A seeded but rate-less, death-less plan is inert: virtual time is
/// bit-identical to a run with no plan at all.
#[test]
fn inert_plan_is_bit_identical_to_no_plan() {
    let quiet = run_workload(Workload::MpegAudio, 6, SCALE, spe_config(6));
    let mut cfg = spe_config(6);
    cfg = cfg.with_faults(FaultPlan::seeded(0xDEAD_BEEF));
    let seeded = run_workload(Workload::MpegAudio, 6, SCALE, cfg);
    assert_eq!(quiet.result, seeded.result);
    assert_eq!(quiet.stats.per_core_cycles, seeded.stats.per_core_cycles);
    assert_eq!(quiet.stats.migrations, seeded.stats.migrations);
    assert!(!seeded.stats.faults.any());
}

// -------------------------------------------------------------- fail-over

/// Kill SPE 2 mid-run on every workload at the 6-SPE configuration:
/// the checksum must still verify, the dead core's clock must freeze at
/// death, and every drained thread's fail-over departure must pair with
/// an arrival on the PPE lane.
#[test]
fn spe_death_fails_over_on_every_workload() {
    for &w in Workload::ALL.iter() {
        let death_at = chaos_death_cycle(SCALE);
        let plan = FaultPlan::seeded(7).with_spe_death(2, death_at);
        // `chaos_workload` asserts the checksum internally — killing a
        // core must move work, not lose it.
        let out = chaos_workload(w, SCALE, plan);
        let f = &out.stats.faults;

        assert_eq!(f.deaths.len(), 1, "{}: exactly one death", w.name());
        let (spe, frozen) = f.deaths[0];
        assert_eq!(spe, 2, "{}: the scheduled SPE died", w.name());
        assert!(
            frozen >= death_at,
            "{}: death at {frozen} before its deadline {death_at}",
            w.name()
        );
        // The blacklisted core executes zero cycles after death: its
        // end-of-run clock is exactly the clock frozen at death.
        assert_eq!(
            out.stats.per_core_cycles[1 + spe as usize],
            frozen,
            "{}: the dead core's clock moved after death",
            w.name()
        );
        assert!(
            f.drained_threads >= 1,
            "{}: a 6-thread run should have had a resident thread to drain",
            w.name()
        );

        // Trace pairing: each drained thread leaves the dead lane with a
        // fail-over MigrateOut and arrives on the PPE lane (lane 0) with
        // the matching MigrateIn.
        let dead_lane = 1 + spe as usize;
        let outs: Vec<u32> = out.trace.lanes()[dead_lane]
            .events
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::MigrateOut {
                    kind: MigrationKind::Failover,
                    to_lane,
                    thread,
                } => {
                    assert_eq!(to_lane, 0, "fail-over drains to the PPE");
                    assert_eq!(e.at, frozen, "departure stamped at the frozen clock");
                    Some(thread)
                }
                _ => None,
            })
            .collect();
        let ins: Vec<u32> = out.trace.lanes()[0]
            .events
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::MigrateIn {
                    kind: MigrationKind::Failover,
                    from_lane,
                    thread,
                } => {
                    assert_eq!(from_lane as usize, dead_lane);
                    Some(thread)
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            outs.len(),
            f.drained_threads as usize,
            "{}: one departure per drained thread",
            w.name()
        );
        let mut sorted_outs = outs.clone();
        let mut sorted_ins = ins.clone();
        sorted_outs.sort_unstable();
        sorted_ins.sort_unstable();
        assert_eq!(
            sorted_outs,
            sorted_ins,
            "{}: every fail-over departure pairs with a PPE arrival",
            w.name()
        );

        // The drain event itself is recorded on the dead lane.
        let drained_events: Vec<u32> = out.trace.lanes()[dead_lane]
            .events
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::SpeDrained { threads } => Some(threads),
                _ => None,
            })
            .collect();
        assert_eq!(drained_events, vec![f.drained_threads as u32]);
    }
}

/// Transient MFC faults alone (no death): the run recovers through
/// retry/backoff, charges the backoff as stall time, and still produces
/// the right answer.
#[test]
fn transient_mfc_faults_recover_via_retry() {
    // Rates an order of magnitude above the chaos default so compress
    // sees a substantial number of injections even at reduced scale.
    let plan = FaultPlan::seeded(1234)
        .with_mfc_faults(4_000, 2_500, 1_500)
        .expect("valid fault rates");
    let out = chaos_workload(Workload::Compress, SCALE, plan);
    let f = &out.stats.faults;
    assert!(f.total_injected() > 10, "expected many injections: {f:?}");
    assert_eq!(f.mfc_retries, f.total_injected() - f.unrecoverable);
    assert!(f.backoff_cycles > 0);
    assert!(f.deaths.is_empty());
    // Retries surface in the trace as fault + retry event pairs.
    let fault_events = out
        .trace
        .iter_all()
        .filter(|(_, e)| matches!(e.event, TraceEvent::MfcFault { .. }))
        .count() as u64;
    let retry_events = out
        .trace
        .iter_all()
        .filter(|(_, e)| matches!(e.event, TraceEvent::MfcRetry { .. }))
        .count() as u64;
    assert_eq!(fault_events, f.total_injected());
    assert_eq!(retry_events, f.mfc_retries);
}

/// Property-style check of the fleet's retry backoff: for any (seed,
/// job), the cumulative stall a request pays across its retry waves is
/// strictly monotone in the retry count, and the whole schedule replays
/// byte-identically from the same seed (it is a pure function of its
/// arguments — no hidden state).
#[test]
fn retry_backoff_stall_is_monotone_and_replays_identically() {
    use hera_cluster::resil::backoff_cycles;
    use hera_cluster::ResilConfig;
    let cfg = ResilConfig::default();
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        for job in [0usize, 3, 17, 255, 9999] {
            let schedule: Vec<u64> = (1..=8)
                .map(|r| backoff_cycles(&cfg, seed, job, r))
                .collect();
            let replay: Vec<u64> = (1..=8)
                .map(|r| backoff_cycles(&cfg, seed, job, r))
                .collect();
            assert_eq!(schedule, replay, "seed {seed} job {job}: schedule not pure");
            let mut total = 0u64;
            let mut prev_total = 0u64;
            let mut prev_step = 0u64;
            for (i, &step) in schedule.iter().enumerate() {
                assert!(
                    step > prev_step,
                    "seed {seed} job {job} retry {}: step {step} <= previous {prev_step}",
                    i + 1
                );
                total += step;
                assert!(total > prev_total, "total stall must grow with every retry");
                prev_total = total;
                prev_step = step;
            }
        }
    }
    // Different seeds must not share a jitter stream.
    assert_ne!(
        (1..=8)
            .map(|r| backoff_cycles(&ResilConfig::default(), 1, 0, r))
            .collect::<Vec<_>>(),
        (1..=8)
            .map(|r| backoff_cycles(&ResilConfig::default(), 2, 0, r))
            .collect::<Vec<_>>(),
    );
}

// ------------------------------------------------- slowdown x crash

/// A slowdown and a machine crash pinned on the same machine interact
/// the way the fleet depends on: the crash fires at its scheduled
/// *absolute* cycle even though every relative charge is stretched by
/// the slowdown (so fewer instructions retire before death), and the
/// combination replays byte-identically.
#[test]
fn slowdown_and_crash_on_the_same_machine_are_deterministic() {
    let (program, checksum) = Workload::Compress.build(2, 0.02);
    let mut base = spe_config(2).with_checkpoint_every(400_000);
    base.heap.size_bytes = 1 << 20;

    let fast = HeraJvm::new(program.clone(), base)
        .expect("constructs")
        .run()
        .expect("unslowed run");
    assert!(fast.is_clean(), "traps: {:?}", fast.traps);
    assert_eq!(fast.result, Some(hera_isa::Value::I32(checksum)));

    let slow_plan = FaultPlan::default()
        .with_slowdown(4, 0)
        .expect("legal slowdown");
    let slow = HeraJvm::new(program.clone(), base.with_faults(slow_plan))
        .expect("constructs")
        .run()
        .expect("slowed run");
    assert!(slow.is_clean(), "traps: {:?}", slow.traps);
    assert_eq!(slow.result, fast.result, "slowdown changed the answer");
    assert!(
        slow.stats.wall_cycles >= fast.stats.wall_cycles * 3,
        "a 4x slowdown should visibly stretch the wall clock \
         ({} vs {})",
        slow.stats.wall_cycles,
        fast.stats.wall_cycles
    );

    // Crash at an absolute cycle that the *unslowed* run sails past
    // early: under the slowdown the same wall-clock instant arrives
    // mid-run, with stretched charges still accruing.
    let crash_at = fast.stats.wall_cycles / 2;
    let doomed_plan = slow_plan.with_machine_crash(crash_at);
    let run = |p: FaultPlan| {
        let vm = HeraJvm::new(program.clone(), base.with_faults(p)).expect("constructs");
        vm.run_until_crash().expect("doomed run")
    };
    let (
        RunEnd::Crashed {
            at_cycle: a,
            checkpoint: ca,
        },
        RunEnd::Crashed {
            at_cycle: b,
            checkpoint: cb,
        },
    ) = (run(doomed_plan), run(doomed_plan))
    else {
        panic!("machine scheduled to crash mid-run completed instead");
    };
    assert!(
        a >= crash_at,
        "crash fired before its scheduled absolute cycle ({a} < {crash_at})"
    );
    assert_eq!(a, b, "crash instant drifted between identical runs");
    let freshest = |c: &Option<CheckpointBlob>| c.as_ref().map(|c| (c.seq, c.bytes.clone()));
    assert!(
        freshest(&ca) == freshest(&cb),
        "freshest surviving checkpoint drifted between identical runs"
    );
    let seq = |c: &Option<CheckpointBlob>| c.as_ref().map_or(0, |c| c.seq);
    // The stretched run dies earlier in *work* terms: it survived to
    // the same wall-clock instant but streamed out fewer checkpoints
    // than an unslowed machine crashing at the same cycle would.
    let unslowed_doomed = FaultPlan::default().with_machine_crash(crash_at);
    let RunEnd::Crashed { checkpoint: cu, .. } = run(unslowed_doomed) else {
        panic!("unslowed machine scheduled to crash mid-run completed instead");
    };
    assert!(
        seq(&ca) <= seq(&cu),
        "a 4x-slowed machine cannot have checkpointed more work than an \
         unslowed one by the same absolute cycle (checkpoint {} vs {})",
        seq(&ca),
        seq(&cu)
    );
}

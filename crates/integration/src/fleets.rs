//! The debug-sized fleet configurations `tests/cluster.rs` and
//! `tests/scope.rs` share. Several have byte digests pinned on them
//! (`small_fleet_exports_match_pinned_digests`): changing a field here
//! re-pins nothing silently, it fails that test.

use hera_cluster::{crash_storm, ArrivalShape, ClusterConfig, MachineShape};

/// A fleet small enough for debug-mode CI but busy enough that crashes
/// catch jobs in flight (requeue flows) and the migration finds a job to
/// move (migrate flows): bursty arrivals near saturation.
pub fn busy_fleet() -> ClusterConfig {
    ClusterConfig {
        seed: 42,
        machines: 2,
        requests: 50,
        threads: 2,
        scale: 0.02,
        num_spes: 2,
        heap_bytes: 1 << 20,
        arrival: ArrivalShape::Bursty { burst: 6 },
        utilization_pct: 98,
        crashes: vec![(1, 500)],
        migrations: vec![(0, 700)],
        ..ClusterConfig::default()
    }
}

/// E13 at debug size: two machines, 60 requests, one crash.
pub fn small_e13() -> ClusterConfig {
    ClusterConfig {
        crashes: crash_storm(42, 2, 1, 300, 700),
        ..ClusterConfig::e13(42, 2, 60, 0.02)
    }
}

/// E15 at debug size: a heterogeneous 2/1/2-SPE fleet under a straggler
/// plus one crash, no planned migration, scope on.
pub fn small_e15() -> ClusterConfig {
    ClusterConfig {
        num_spes: 2,
        shapes: [2u8, 1, 2]
            .iter()
            .map(|&spe_count| MachineShape { spe_count })
            .collect(),
        crashes: crash_storm(42, 3, 1, 300, 700),
        migrations: vec![],
        ..ClusterConfig::e15(42, 3, 60, 0.02)
    }
}

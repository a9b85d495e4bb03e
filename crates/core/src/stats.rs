//! Aggregated run statistics: everything the experiments report.

use hera_cell::{CycleBreakdown, FaultStats, HwCacheStats, OpClass};
use hera_jit::RegistryStats;
use hera_softcache::{CodeCacheStats, DataCacheStats};
use hera_trace::MetricsRegistry;
use std::fmt;

hera_trace::counters! {
    /// GC statistics: the world keeps them as it collects, a run reports them
    /// whole.
    pub struct GcSummary as "gc" {
        /// Collections performed.
        pub collections: u64,
        /// PPE cycles spent collecting.
        pub ppe_cycles: u64,
        /// Total objects reclaimed.
        pub objects_freed: u64,
        /// Total bytes reclaimed.
        pub bytes_freed: u64,
    }
}

/// Bus summary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BusSummary {
    /// Bytes moved over the shared memory interface.
    pub bytes_transferred: u64,
    /// DMA transfers granted.
    pub transfers: u64,
    /// Mean queueing delay per transfer (contention indicator).
    pub mean_queue_cycles: f64,
}

/// Everything measured during one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Wall-clock finish time: the maximum core clock (cycles).
    pub wall_cycles: u64,
    /// The PPE's cycle breakdown.
    pub ppe: CycleBreakdown,
    /// Merged breakdown over all SPEs (Figure 5's subject).
    pub spe: CycleBreakdown,
    /// Per-core total cycles, PPE first.
    pub per_core_cycles: Vec<u64>,
    /// The PPE's hardware-cache (L1/L2) access statistics.
    pub ppe_cache: HwCacheStats,
    /// Merged SPE data-cache statistics.
    pub data_cache: DataCacheStats,
    /// Merged SPE code-cache statistics.
    pub code_cache: CodeCacheStats,
    /// GC summary.
    pub gc: GcSummary,
    /// JIT registry summary (per-core compilation counts).
    pub registry: RegistryStats,
    /// Bus summary.
    pub bus: BusSummary,
    /// Total thread migrations (including JNI round trips).
    pub migrations: u64,
    /// Guest threads created.
    pub threads: u32,
    /// Contended monitor acquisitions.
    pub contended_acquires: u64,
    /// Context switches.
    pub thread_switches: u64,
    /// Fault-injection and recovery accounting (all-zero on a quiet
    /// run).
    pub faults: FaultStats,
}

impl RunStats {
    /// Wall-clock time in virtual milliseconds at 3.2 GHz.
    pub fn wall_millis(&self) -> f64 {
        self.wall_cycles as f64 / 3.2e6
    }

    /// Render a human-readable report.
    pub fn report(&self) -> String {
        format!("{self}")
    }

    /// Snapshot every aggregate onto the shared [`MetricsRegistry`]
    /// substrate — the same names the trace exporters render, so ad-hoc
    /// counters and trace metrics read as one namespace.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::default();
        reg.set("run.wall_cycles", self.wall_cycles);
        reg.set("run.threads", self.threads as u64);
        reg.set("run.migrations", self.migrations);
        reg.set("run.thread_switches", self.thread_switches);
        reg.set("monitor.contended_acquires", self.contended_acquires);
        self.ppe.fill_metrics("ppe", &mut reg);
        self.spe.fill_metrics("spe", &mut reg);
        self.data_cache.fill_metrics(&mut reg);
        self.code_cache.fill_metrics(&mut reg);
        self.gc.fill_metrics(&mut reg);
        reg.set("jit.ppe_compilations", self.registry.ppe_compilations);
        reg.set("jit.spe_compilations", self.registry.spe_compilations);
        reg.set("jit.dual_compiled", self.registry.dual_compiled);
        reg.set("bus.bytes_transferred", self.bus.bytes_transferred);
        reg.set("bus.transfers", self.bus.transfers);
        // Fault aggregates only appear when something fired, so a quiet
        // run's metric namespace is untouched by the subsystem.
        if self.faults.any() {
            reg.set("faults.injected_total", self.faults.total_injected());
            reg.set("faults.mfc_retries", self.faults.mfc_retries);
            reg.set("faults.backoff_cycles", self.faults.backoff_cycles);
            reg.set("faults.watchdog_cycles", self.faults.watchdog_cycles);
            reg.set("faults.unrecoverable", self.faults.unrecoverable);
            reg.set("faults.spe_deaths", self.faults.deaths.len() as u64);
            reg.set("faults.drained_threads", self.faults.drained_threads);
            reg.set("faults.salvaged_bytes", self.faults.salvaged_bytes);
        }
        reg
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "wall clock: {} cycles ({:.2} virtual ms)",
            self.wall_cycles,
            self.wall_millis()
        )?;
        writeln!(
            f,
            "threads: {} ({} migrations, {} contended lock acquires, {} switches)",
            self.threads, self.migrations, self.contended_acquires, self.thread_switches
        )?;
        writeln!(
            f,
            "jit: {} PPE / {} SPE methods compiled ({} dual)",
            self.registry.ppe_compilations,
            self.registry.spe_compilations,
            self.registry.dual_compiled
        )?;
        writeln!(
            f,
            "gc: {} collections, {} cycles on PPE, {} objects freed",
            self.gc.collections, self.gc.ppe_cycles, self.gc.objects_freed
        )?;
        writeln!(
            f,
            "data cache: {:.1}% hit rate ({} hits / {} misses, {} purges)",
            self.data_cache.hit_rate() * 100.0,
            self.data_cache.hits,
            self.data_cache.misses,
            self.data_cache.purges
        )?;
        writeln!(
            f,
            "code cache: {:.1}% hit rate ({} hits / {} misses, {} purges)",
            self.code_cache.method_hit_rate() * 100.0,
            self.code_cache.method_hits,
            self.code_cache.method_misses,
            self.code_cache.purges
        )?;
        writeln!(
            f,
            "bus: {} transfers, {} bytes, mean queue {:.1} cycles",
            self.bus.transfers, self.bus.bytes_transferred, self.bus.mean_queue_cycles
        )?;
        if self.faults.any() {
            writeln!(
                f,
                "faults: {} injected, {} MFC retries ({} backoff cycles), \
                 {} unrecoverable, {} SPE deaths, {} threads drained, {} bytes salvaged",
                self.faults.total_injected(),
                self.faults.mfc_retries,
                self.faults.backoff_cycles,
                self.faults.unrecoverable,
                self.faults.deaths.len(),
                self.faults.drained_threads,
                self.faults.salvaged_bytes
            )?;
        }
        writeln!(f, "SPE cycle breakdown:")?;
        write!(f, "{}", self.spe)?;
        Ok(())
    }
}

/// The Figure 5 percentage row for the SPE breakdown.
pub fn figure5_row(stats: &RunStats) -> [(OpClass, f64); 6] {
    let mut out = [(OpClass::FloatingPoint, 0.0); 6];
    for (i, c) in OpClass::ALL.iter().enumerate() {
        out[i] = (*c, stats.spe.fraction(*c) * 100.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_millis_conversion() {
        let s = RunStats {
            wall_cycles: 3_200_000,
            ..Default::default()
        };
        assert!((s.wall_millis() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn report_mentions_key_sections() {
        let s = RunStats::default();
        let r = s.report();
        assert!(r.contains("wall clock"));
        assert!(r.contains("data cache"));
        assert!(r.contains("code cache"));
        assert!(r.contains("SPE cycle breakdown"));
    }

    #[test]
    fn figure5_row_covers_all_classes() {
        let mut s = RunStats::default();
        s.spe.charge(OpClass::FloatingPoint, 75);
        s.spe.charge(OpClass::Integer, 25);
        let row = figure5_row(&s);
        assert_eq!(row.len(), 6);
        assert!((row[0].1 - 75.0).abs() < 1e-9);
        assert!((row[1].1 - 25.0).abs() < 1e-9);
    }
}

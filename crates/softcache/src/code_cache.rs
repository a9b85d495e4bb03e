//! The SPE software code cache (paper §3.2.2, Figure 3).
//!
//! Methods must reside in local memory before execution, so they are
//! cached *in their entirety*, bump-allocated, with a complete purge
//! when the cache fills. Lookup avoids a hashtable (no collisions, and
//! virtual invocation falls out naturally): a permanently resident 2 KB
//! class table of contents (TOC) maps each resolved class to its Type
//! Information Block (TIB); TIBs are themselves cached on demand
//! (exploiting class locality) and hold a code pointer + length per
//! method. Invocation therefore double-dereferences TOC → TIB → code —
//! cheap on a hit, because both pointers live in 3–6-cycle local memory
//! — and the lookup repeats on *return*, since the callee may have
//! purged the caller in the meantime.

use crate::CacheFault;
use hera_cell::{CellMachine, CoreId, OpClass};
use hera_isa::{ClassId, MethodId};
use hera_trace::{DmaTag, TraceEvent};
use std::collections::HashMap;

/// Cycles to follow a cached TIB entry (one local-memory indirection).
const TIB_READ_CYCLES: u64 = 4;

hera_trace::counters! {
    /// Statistics for one code cache.
    pub struct CodeCacheStats as "ccache" {
        /// Method lookups served from local memory.
        pub method_hits: u64,
        /// Method lookups that had to DMA the method body.
        pub method_misses: u64,
        /// TIB lookups served from local memory.
        pub tib_hits: u64,
        /// TIB lookups that had to DMA the TIB.
        pub tib_misses: u64,
        /// Complete purges.
        pub purges: u64,
        /// Bytes of code + TIBs DMAed in.
        pub bytes_loaded: u64,
        /// TOC consultations (every lookup does one).
        pub toc_lookups: u64,
        /// Lookups of methods too large to cache at the configured size.
        pub bypasses: u64,
    }
}

impl CodeCacheStats {
    /// Method hit rate.
    pub fn method_hit_rate(&self) -> f64 {
        let total = self.method_hits + self.method_misses;
        if total == 0 {
            0.0
        } else {
            self.method_hits as f64 / total as f64
        }
    }
}

/// The software code cache for one SPE.
#[derive(Clone)]
pub struct CodeCache {
    capacity: u32,
    bump: u32,
    methods: HashMap<MethodId, u32>,
    tibs: HashMap<ClassId, u32>,
    /// Statistics.
    pub stats: CodeCacheStats,
}

impl CodeCache {
    /// Create a code cache over `capacity` bytes of local store.
    pub fn new(capacity: u32) -> CodeCache {
        CodeCache {
            capacity,
            bump: 0,
            methods: HashMap::new(),
            tibs: HashMap::new(),
            stats: CodeCacheStats::default(),
        }
    }

    /// The configured capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Whether a method's code is currently resident (test hook).
    pub fn method_resident(&self, m: MethodId) -> bool {
        self.methods.contains_key(&m)
    }

    /// Whether a class's TIB is currently resident (test hook).
    pub fn tib_resident(&self, c: ClassId) -> bool {
        self.tibs.contains_key(&c)
    }

    /// Bytes currently bump-allocated.
    pub fn used(&self) -> u32 {
        self.bump
    }

    /// Perform the full invoke-time lookup for `method` declared on
    /// `class`: TOC → TIB (cache if needed) → method entry → method code
    /// (cache if needed). Also used on *return* to re-establish the
    /// caller (paper: "This process is repeated on returning from a
    /// method, since the callee method may have been purged").
    ///
    /// Charges all cycles to `core` on `machine`. Fails only when an
    /// injected MFC fault exhausts the DMA retry budget.
    pub fn lookup(
        &mut self,
        machine: &mut CellMachine,
        core: CoreId,
        class: ClassId,
        tib_bytes: u32,
        method: MethodId,
        method_bytes: u32,
    ) -> Result<(), CacheFault> {
        // TOC consultation — the 2 KB TOC is permanently resident.
        let toc = machine.cost_model().toc_lookup_cycles as u64;
        machine.advance(core, toc, OpClass::LocalMemory);
        self.stats.toc_lookups += 1;

        // TIB.
        if self.tibs.contains_key(&class) {
            self.stats.tib_hits += 1;
            machine.emit(
                core,
                TraceEvent::CodeCacheTibHit {
                    class: class.0 as u32,
                },
            );
            machine.advance(core, TIB_READ_CYCLES, OpClass::LocalMemory);
        } else {
            self.stats.tib_misses += 1;
            machine.emit(
                core,
                TraceEvent::CodeCacheTibMiss {
                    class: class.0 as u32,
                    bytes: tib_bytes,
                },
            );
            self.install(machine, core, tib_bytes)?;
            self.tibs.insert(class, tib_bytes);
        }

        // Method entry read from the (now resident) TIB.
        machine.advance(core, TIB_READ_CYCLES, OpClass::LocalMemory);

        // Method code.
        if self.methods.contains_key(&method) {
            self.stats.method_hits += 1;
            machine.emit(core, TraceEvent::CodeCacheHit { method: method.0 });
        } else {
            self.stats.method_misses += 1;
            machine.emit(
                core,
                TraceEvent::CodeCacheMiss {
                    method: method.0,
                    bytes: method_bytes,
                },
            );
            if method_bytes > self.capacity {
                // Cannot ever fit: stream it in each time, uncached.
                self.stats.bypasses += 1;
                machine.dma_tagged(core, method_bytes.max(1), DmaTag::CodeCacheLoad)?;
                self.stats.bytes_loaded += method_bytes as u64;
                return Ok(());
            }
            self.install(machine, core, method_bytes)?;
            self.methods.insert(method, method_bytes);
        }
        Ok(())
    }

    /// Bump-allocate `bytes`, purging everything first if they do not
    /// fit, then DMA them in.
    fn install(
        &mut self,
        machine: &mut CellMachine,
        core: CoreId,
        bytes: u32,
    ) -> Result<(), CacheFault> {
        if bytes > self.capacity {
            // Oversized TIB/method at tiny sweep sizes: stream, uncached.
            self.stats.bypasses += 1;
            machine.dma_tagged(core, bytes.max(1), DmaTag::CodeCacheLoad)?;
            self.stats.bytes_loaded += bytes as u64;
            return Ok(());
        }
        if self.bump + bytes > self.capacity {
            machine.emit(
                core,
                TraceEvent::CodeCachePurge {
                    bytes_in_use: self.bump,
                },
            );
            self.purge();
        }
        machine.dma_tagged(core, bytes, DmaTag::CodeCacheLoad)?;
        self.stats.bytes_loaded += bytes as u64;
        self.bump += bytes;
        Ok(())
    }

    /// Drop every cached method and TIB (code is read-only, so a purge
    /// writes nothing back).
    pub fn purge(&mut self) {
        self.methods.clear();
        self.tibs.clear();
        self.bump = 0;
        self.stats.purges += 1;
    }

    /// Resident contents for a snapshot: bump pointer, resident methods
    /// and TIBs (both sorted by id for a canonical encoding). Stats are
    /// public and captured separately.
    #[allow(clippy::type_complexity)]
    pub fn export_state(&self) -> (u32, Vec<(MethodId, u32)>, Vec<(ClassId, u32)>) {
        let mut methods: Vec<(MethodId, u32)> =
            self.methods.iter().map(|(&m, &b)| (m, b)).collect();
        methods.sort_unstable_by_key(|&(m, _)| m.0);
        let mut tibs: Vec<(ClassId, u32)> = self.tibs.iter().map(|(&c, &b)| (c, b)).collect();
        tibs.sort_unstable_by_key(|&(c, _)| c.0);
        (self.bump, methods, tibs)
    }

    /// Restore the contents captured by [`CodeCache::export_state`].
    /// Fails if the claimed residency cannot fit the configured capacity.
    pub fn import_state(
        &mut self,
        bump: u32,
        methods: Vec<(MethodId, u32)>,
        tibs: Vec<(ClassId, u32)>,
    ) -> Result<(), &'static str> {
        if bump > self.capacity {
            return Err("code-cache bump pointer exceeds capacity");
        }
        let resident: u64 = methods.iter().map(|&(_, b)| b as u64).sum::<u64>()
            + tibs.iter().map(|&(_, b)| b as u64).sum::<u64>();
        if resident > bump as u64 {
            return Err("code-cache resident bytes exceed bump pointer");
        }
        self.bump = bump;
        self.methods = methods.into_iter().collect();
        self.tibs = tibs.into_iter().collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_cell::CellConfig;

    const SPE: CoreId = CoreId::Spe(0);

    fn machine() -> CellMachine {
        CellMachine::new(CellConfig::default())
    }

    #[test]
    fn cold_lookup_loads_tib_and_method() {
        let mut m = machine();
        let mut cc = CodeCache::new(32 << 10);
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(0), 512)
            .unwrap();
        assert_eq!(cc.stats.tib_misses, 1);
        assert_eq!(cc.stats.method_misses, 1);
        assert_eq!(cc.stats.bytes_loaded, 576);
        assert!(cc.method_resident(MethodId(0)));
        assert!(cc.tib_resident(ClassId(0)));
    }

    #[test]
    fn warm_lookup_is_all_hits_and_cheap() {
        let mut m = machine();
        let mut cc = CodeCache::new(32 << 10);
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(0), 512)
            .unwrap();
        let t0 = m.now(SPE);
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(0), 512)
            .unwrap();
        let warm = m.now(SPE) - t0;
        assert_eq!(cc.stats.tib_hits, 1);
        assert_eq!(cc.stats.method_hits, 1);
        // toc(6) + tib read(4) + entry read(4) = 14 cycles, all local.
        assert_eq!(warm, 14);
    }

    #[test]
    fn class_locality_shares_tibs() {
        let mut m = machine();
        let mut cc = CodeCache::new(32 << 10);
        cc.lookup(&mut m, SPE, ClassId(3), 96, MethodId(10), 256)
            .unwrap();
        cc.lookup(&mut m, SPE, ClassId(3), 96, MethodId(11), 256)
            .unwrap();
        assert_eq!(cc.stats.tib_misses, 1);
        assert_eq!(cc.stats.tib_hits, 1);
        assert_eq!(cc.stats.method_misses, 2);
    }

    #[test]
    fn fill_purges_everything() {
        let mut m = machine();
        let mut cc = CodeCache::new(2048);
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(0), 900)
            .unwrap();
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(1), 900)
            .unwrap();
        assert!(cc.method_resident(MethodId(0)));
        // The third method does not fit: complete purge, then insert.
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(2), 900)
            .unwrap();
        assert_eq!(cc.stats.purges, 1);
        assert!(!cc.method_resident(MethodId(0)));
        assert!(!cc.method_resident(MethodId(1)));
        assert!(cc.method_resident(MethodId(2)));
        // TIBs were purged too.
        assert!(!cc.tib_resident(ClassId(0)));
    }

    #[test]
    fn return_relookup_reloads_purged_caller() {
        let mut m = machine();
        let mut cc = CodeCache::new(2048);
        // Caller cached…
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(0), 900)
            .unwrap();
        // …callee loads evict it…
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(1), 900)
            .unwrap();
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(2), 900)
            .unwrap();
        assert!(!cc.method_resident(MethodId(0)));
        // …so the return-path lookup must miss and reload.
        let misses = cc.stats.method_misses;
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(0), 900)
            .unwrap();
        assert_eq!(cc.stats.method_misses, misses + 1);
    }

    #[test]
    fn oversized_method_streams_without_caching() {
        let mut m = machine();
        let mut cc = CodeCache::new(1024);
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(0), 4096)
            .unwrap();
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(0), 4096)
            .unwrap();
        assert_eq!(cc.stats.method_misses, 2);
        assert_eq!(cc.stats.bypasses, 2);
        assert!(!cc.method_resident(MethodId(0)));
    }

    #[test]
    fn misses_charge_main_memory_cycles() {
        let mut m = machine();
        let mut cc = CodeCache::new(32 << 10);
        cc.lookup(&mut m, SPE, ClassId(0), 64, MethodId(0), 2048)
            .unwrap();
        assert!(m.breakdown(SPE).cycles(OpClass::MainMemory) > 0);
        assert!(m.breakdown(SPE).cycles(OpClass::LocalMemory) > 0);
    }

    #[test]
    fn hit_rate_reporting() {
        let mut s = CodeCacheStats::default();
        assert_eq!(s.method_hit_rate(), 0.0);
        s.method_hits = 9;
        s.method_misses = 1;
        assert!((s.method_hit_rate() - 0.9).abs() < 1e-12);
    }
}

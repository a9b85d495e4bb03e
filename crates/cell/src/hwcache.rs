//! PPE hardware cache hierarchy model (L1D + L2, set-associative, LRU).
//!
//! The PPE, unlike the SPEs, has transparent hardware caches; that is
//! precisely why the memory-bound *compress* benchmark prefers it
//! (paper §4). The model is a conventional two-level write-allocate
//! hierarchy with true-LRU sets, charging per-level hit latencies and a
//! main-memory miss penalty.

use crate::counters::OpClass;

/// Parameters for one cache level.
#[derive(Clone, Copy, Debug)]
pub struct LevelParams {
    /// Total capacity in bytes.
    pub capacity: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Hit latency in cycles.
    pub hit_cycles: u32,
}

/// Parameters for the PPE hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct HwCacheParams {
    /// First-level data cache.
    pub l1: LevelParams,
    /// Unified second-level cache.
    pub l2: LevelParams,
    /// Main-memory access penalty (beyond L2) in cycles.
    pub memory_cycles: u32,
}

impl Default for HwCacheParams {
    fn default() -> Self {
        // Cell PPE: 32 KB L1D, 512 KB L2, 128-byte lines.
        HwCacheParams {
            l1: LevelParams {
                capacity: 32 << 10,
                line: 128,
                ways: 8,
                hit_cycles: 2,
            },
            l2: LevelParams {
                capacity: 512 << 10,
                line: 128,
                ways: 8,
                hit_cycles: 30,
            },
            memory_cycles: 300,
        }
    }
}

/// Where an access was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitLevel {
    /// First-level hit.
    L1,
    /// Second-level hit.
    L2,
    /// Main memory.
    Memory,
}

/// One set-associative level with true-LRU replacement.
///
/// Indexing never divides on a power-of-two set count: callers pass
/// line numbers (the address already shifted by `line_shift`) and the
/// set is `line & set_mask`.
#[derive(Clone)]
struct Level {
    params: LevelParams,
    sets: u32,
    /// `log2(params.line)`.
    line_shift: u32,
    /// `sets - 1` when the set count is a power of two, else `None` and
    /// the set is `line % sets`.
    set_mask: Option<u64>,
    /// `tags[set * ways + way]` = line tag, `u64::MAX` when invalid.
    tags: Vec<u64>,
    /// LRU stamps, larger = more recent.
    stamps: Vec<u64>,
    tick: u64,
}

impl Level {
    fn new(name: &str, params: LevelParams) -> Level {
        assert!(
            params.line.is_power_of_two(),
            "{name} line size must be a non-zero power of two, got {}",
            params.line
        );
        assert!(params.ways >= 1, "{name} needs at least one way");
        // A capacity below one full set still gets one set.
        let set_bytes = params.line as u64 * params.ways as u64;
        let sets = ((params.capacity as u64 / set_bytes) as u32).max(1);
        let slots = sets as usize * params.ways as usize;
        Level {
            params,
            sets,
            line_shift: params.line.trailing_zeros(),
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            tags: vec![u64::MAX; slots],
            stamps: vec![0; slots],
            tick: 0,
        }
    }

    /// The set a line number indexes.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets as u64,
        }) as usize
    }

    /// Returns true on hit; on miss the line is installed (evicting LRU).
    #[inline]
    fn access(&mut self, line: u64) -> bool {
        self.tick += 1;
        let ways = self.params.ways as usize;
        let base = self.set_of(line) * ways;
        let tags = &mut self.tags[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];
        // Hit?
        if let Some(w) = tags.iter().position(|&t| t == line) {
            stamps[w] = self.tick;
            return true;
        }
        // Miss: install over LRU way (the first of equally old ones).
        let mut victim = 0;
        for w in 1..ways {
            if stamps[w] < stamps[victim] {
                victim = w;
            }
        }
        tags[victim] = line;
        stamps[victim] = self.tick;
        false
    }

    /// Adopt replacement state from a snapshot, rejecting what no run of
    /// this geometry can have produced: [`Level::access`] counts `tick`
    /// up by one and stamps with it, and installs a line only in the set
    /// it indexes, and only when that set does not hold it already.
    /// Invalid slots (`u64::MAX`) are legal anywhere.
    fn import(&mut self, tags: Vec<u64>, stamps: Vec<u64>, tick: u64) -> Result<(), &'static str> {
        if tags.len() != self.tags.len() || stamps.len() != self.stamps.len() {
            return Err("hardware-cache geometry mismatch");
        }
        // No run lasts 2^63 accesses, and the next one must be countable.
        if tick >= 1 << 63 {
            return Err("hardware-cache tick out of range");
        }
        if stamps.iter().any(|&s| s > tick) {
            return Err("hardware-cache LRU stamp ahead of the tick");
        }
        let ways = self.params.ways as usize;
        for (set, slots) in tags.chunks(ways).enumerate() {
            for (w, &tag) in slots.iter().enumerate() {
                if tag == u64::MAX {
                    continue;
                }
                if self.set_of(tag) != set {
                    return Err("hardware-cache tag in a set its line does not index");
                }
                if slots[..w].contains(&tag) {
                    return Err("hardware-cache tag twice in one set");
                }
            }
        }
        self.tags = tags;
        self.stamps = stamps;
        self.tick = tick;
        Ok(())
    }

    /// The access this level made before it indexed by shift and mask:
    /// the differential tests' reference.
    #[cfg(test)]
    fn access_reference(&mut self, addr: u32) -> bool {
        self.tick += 1;
        let line = (addr / self.params.line) as u64;
        let set = (line % self.sets as u64) as u32;
        let base = (set * self.params.ways) as usize;
        let ways = self.params.ways as usize;
        for w in 0..ways {
            if self.tags[base + w] == line {
                self.stamps[base + w] = self.tick;
                return true;
            }
        }
        let mut victim = 0;
        for w in 1..ways {
            if self.stamps[base + w] < self.stamps[base + victim] {
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        false
    }
}

hera_trace::counters! {
    /// Per-level access statistics.
    pub struct HwCacheStats {
        /// Accesses presented to the hierarchy.
        pub accesses: u64,
        /// L1 hits.
        pub l1_hits: u64,
        /// L2 hits.
        pub l2_hits: u64,
        /// Misses to main memory.
        pub memory_accesses: u64,
    }
}

impl HwCacheStats {
    /// L1 hit rate over all accesses.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.accesses as f64
        }
    }
}

/// The PPE's L1+L2 hierarchy.
#[derive(Clone)]
pub struct HwCache {
    params: HwCacheParams,
    l1: Level,
    l2: Level,
    /// Statistics.
    pub stats: HwCacheStats,
}

impl HwCache {
    /// Build a hierarchy from parameters.
    ///
    /// # Panics
    ///
    /// When a level's `line` is not a non-zero power of two, a level has
    /// no ways, or the L2 line is smaller than the L1 line (an access
    /// walks L1 lines and maps each onto the one L2 line holding it).
    pub fn new(params: HwCacheParams) -> HwCache {
        let l1 = Level::new("L1", params.l1);
        let l2 = Level::new("L2", params.l2);
        assert!(
            params.l2.line >= params.l1.line,
            "L2 line ({}) must be at least the L1 line ({})",
            params.l2.line,
            params.l1.line
        );
        HwCache {
            params,
            l1,
            l2,
            stats: HwCacheStats::default(),
        }
    }

    /// Simulate an access touching `[addr, addr+len)`. Multi-line
    /// accesses touch each line; the returned cost is the worst level
    /// reached plus per-line hit costs, and the level is the deepest
    /// one touched.
    #[inline]
    pub fn access(&mut self, addr: u32, len: u32) -> (u64, HitLevel) {
        let shift = self.l1.line_shift;
        let to_l2 = self.l2.line_shift - shift;
        let first = addr >> shift;
        let last = (addr + len.max(1) - 1) >> shift;
        let mut cycles = 0u64;
        let mut worst = HitLevel::L1;
        for l in first..=last {
            let line = l as u64;
            self.stats.accesses += 1;
            if self.l1.access(line) {
                self.stats.l1_hits += 1;
                cycles += self.params.l1.hit_cycles as u64;
            } else if self.l2.access(line >> to_l2) {
                self.stats.l2_hits += 1;
                cycles += self.params.l2.hit_cycles as u64;
                if worst == HitLevel::L1 {
                    worst = HitLevel::L2;
                }
            } else {
                self.stats.memory_accesses += 1;
                cycles += self.params.memory_cycles as u64;
                worst = HitLevel::Memory;
            }
        }
        (cycles, worst)
    }

    /// [`HwCache::access`] as it was when every level divided the
    /// address by its line size: the differential tests' reference.
    #[cfg(test)]
    fn access_reference(&mut self, addr: u32, len: u32) -> (u64, HitLevel) {
        let line = self.params.l1.line;
        let first = addr / line;
        let last = (addr + len.max(1) - 1) / line;
        let mut cycles = 0u64;
        let mut worst = HitLevel::L1;
        for l in first..=last {
            let a = l * line;
            self.stats.accesses += 1;
            if self.l1.access_reference(a) {
                self.stats.l1_hits += 1;
                cycles += self.params.l1.hit_cycles as u64;
            } else if self.l2.access_reference(a) {
                self.stats.l2_hits += 1;
                cycles += self.params.l2.hit_cycles as u64;
                if worst == HitLevel::L1 {
                    worst = HitLevel::L2;
                }
            } else {
                self.stats.memory_accesses += 1;
                cycles += self.params.memory_cycles as u64;
                worst = HitLevel::Memory;
            }
        }
        (cycles, worst)
    }

    /// Raw replacement state of both levels, L1 first: `(tags, stamps,
    /// tick)` per level. Snapshot support: pairs with
    /// [`HwCache::import_state`].
    #[allow(clippy::type_complexity)]
    pub fn export_state(&self) -> ((&[u64], &[u64], u64), (&[u64], &[u64], u64)) {
        (
            (&self.l1.tags, &self.l1.stamps, self.l1.tick),
            (&self.l2.tags, &self.l2.stamps, self.l2.tick),
        )
    }

    /// Restore the replacement state captured by [`HwCache::export_state`].
    /// Fails if the slot counts do not match this cache's geometry or the
    /// state is one no run could have reached (see `Level::import`).
    pub fn import_state(
        &mut self,
        l1: (Vec<u64>, Vec<u64>, u64),
        l2: (Vec<u64>, Vec<u64>, u64),
    ) -> Result<(), &'static str> {
        self.l1.import(l1.0, l1.1, l1.2)?;
        self.l2.import(l2.0, l2.1, l2.2)
    }

    /// The operation class an access at `level` is charged to: L1 hits
    /// count as local memory, anything deeper as main memory.
    pub fn class_for(level: HitLevel) -> OpClass {
        match level {
            HitLevel::L1 => OpClass::LocalMemory,
            HitLevel::L2 | HitLevel::Memory => OpClass::MainMemory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> HwCache {
        HwCache::new(HwCacheParams::default())
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = cache();
        let (cost1, lvl1) = c.access(0x1000, 4);
        assert_eq!(lvl1, HitLevel::Memory);
        let (cost2, lvl2) = c.access(0x1000, 4);
        assert_eq!(lvl2, HitLevel::L1);
        assert!(cost2 < cost1);
    }

    #[test]
    fn same_line_sharing() {
        let mut c = cache();
        c.access(0x2000, 4);
        // 0x2040 is in the same 128-byte line.
        let (_, lvl) = c.access(0x2040, 4);
        assert_eq!(lvl, HitLevel::L1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut c = cache();
        // Fill one L1 set (8 ways) + 1 extra line mapping to the same set.
        // sets = 32768 / (128*8) = 32; stride between same-set lines = 32*128.
        let stride = 32 * 128;
        for i in 0..9u32 {
            c.access(i * stride, 4);
        }
        // The first line was LRU-evicted from L1 but still lives in L2.
        let (_, lvl) = c.access(0, 4);
        assert_eq!(lvl, HitLevel::L2);
    }

    #[test]
    fn working_set_larger_than_l2_misses_to_memory() {
        let mut c = cache();
        // Touch 2 MiB twice; second pass should still mostly miss.
        for pass in 0..2 {
            for a in (0..(2u32 << 20)).step_by(128) {
                c.access(a, 4);
            }
            let _ = pass;
        }
        assert!(c.stats.memory_accesses > 16_000);
    }

    #[test]
    fn small_working_set_mostly_l1() {
        let mut c = cache();
        for _ in 0..100 {
            for a in (0..4096u32).step_by(64) {
                c.access(a, 4);
            }
        }
        assert!(c.stats.l1_hit_rate() > 0.95);
    }

    #[test]
    fn multi_line_access_touches_each_line() {
        let mut c = cache();
        let before = c.stats.accesses;
        c.access(0, 256); // 128-byte lines → 2 (aligned start)
        assert_eq!(c.stats.accesses - before, 2);
        let before = c.stats.accesses;
        c.access(100, 256); // straddles 3 lines
        assert_eq!(c.stats.accesses - before, 3);
    }

    /// A geometry with `sets` sets of `ways` 128-byte lines at both
    /// levels (L2 four times the sets), default latencies.
    fn geometry(sets: u32, ways: u32) -> HwCacheParams {
        let mut p = HwCacheParams::default();
        p.l1.ways = ways;
        p.l1.capacity = sets * ways * p.l1.line;
        p.l2.ways = ways;
        p.l2.capacity = 4 * sets * ways * p.l2.line;
        p
    }

    #[test]
    fn three_line_straddle_costs_each_line_and_reports_the_deepest() {
        let mut c = cache();
        c.access(128, 4); // warm the middle line only
        let (cycles, lvl) = c.access(100, 256); // lines 0, 1, 2
        assert_eq!(lvl, HitLevel::Memory);
        assert_eq!(cycles, 300 + 2 + 300);
        assert_eq!(c.stats.accesses, 4);
        assert_eq!(c.stats.l1_hits, 1);
        assert_eq!(c.stats.memory_accesses, 3);
        assert_eq!(c.access(100, 256), (6, HitLevel::L1));
    }

    #[test]
    fn non_power_of_two_set_count_indexes_by_remainder() {
        let mut c = HwCache::new(geometry(48, 8));
        assert_eq!(c.l1.sets, 48);
        assert_eq!(c.l1.set_mask, None);
        // Lines 0, 48, 96, ... share set 0: nine of them overflow 8 ways.
        let stride = 48 * 128;
        for i in 0..9u32 {
            c.access(i * stride, 4);
        }
        assert_eq!(c.access(0, 4).1, HitLevel::L2, "LRU line left L1");
        // Line 47 is in a set of its own and still resident after the
        // conflict burst next door.
        c.access(47 * 128, 4);
        for i in 0..9u32 {
            c.access(i * stride, 4);
        }
        assert_eq!(c.access(47 * 128, 4).1, HitLevel::L1);
    }

    #[test]
    fn one_way_level_is_direct_mapped() {
        let mut c = HwCache::new(geometry(32, 1));
        let conflict = 32 * 128;
        assert_eq!(c.access(0, 4).1, HitLevel::Memory);
        assert_eq!(c.access(0, 4).1, HitLevel::L1);
        assert_eq!(c.access(conflict, 4).1, HitLevel::Memory);
        // Evicted from the one L1 way; L2 has four times the sets.
        assert_eq!(c.access(0, 4).1, HitLevel::L2);
        assert_eq!(c.access(conflict, 4).1, HitLevel::L2);
    }

    #[test]
    fn capacity_below_one_set_keeps_the_one_set_floor() {
        let mut p = HwCacheParams::default();
        p.l1.capacity = 100;
        let c = HwCache::new(p);
        assert_eq!(c.l1.sets, 1);
        assert_eq!(c.l1.tags.len(), 8);
    }

    #[test]
    #[should_panic(expected = "L1 line size must be a non-zero power of two")]
    fn zero_line_is_rejected_by_name() {
        let mut p = HwCacheParams::default();
        p.l1.line = 0;
        HwCache::new(p);
    }

    #[test]
    #[should_panic(expected = "L2 line size must be a non-zero power of two")]
    fn non_power_of_two_line_is_rejected_by_name() {
        let mut p = HwCacheParams::default();
        p.l2.line = 96;
        HwCache::new(p);
    }

    #[test]
    #[should_panic(expected = "L1 needs at least one way")]
    fn zero_ways_is_rejected_by_name() {
        let mut p = HwCacheParams::default();
        p.l1.ways = 0;
        HwCache::new(p);
    }

    #[test]
    #[should_panic(expected = "L2 line (64) must be at least the L1 line (128)")]
    fn l2_line_smaller_than_l1_line_is_rejected_by_name() {
        let mut p = HwCacheParams::default();
        p.l2.line = 64;
        HwCache::new(p);
    }

    /// The four stream shapes the differential test drives.
    #[derive(Clone, Copy, Debug)]
    enum Stream {
        Sequential,
        Strided,
        PointerChase,
        RepeatedLine,
    }

    fn assert_same_state(new: &HwCache, old: &HwCache, at: &str) {
        assert_eq!(new.export_state(), old.export_state(), "{at}: state");
        assert_eq!(new.stats, old.stats, "{at}: stats");
    }

    /// Shift/mask indexing ≡ the divide-and-scan it replaced: every
    /// access's `(cycles, level)`, the stats, and the exported
    /// replacement state — also across an `import_state` into a fresh
    /// cache that has been somewhere else.
    #[test]
    fn shift_mask_access_matches_the_dividing_reference() {
        use hera_rng::SplitMix64;
        let geometries = [
            ("default", HwCacheParams::default()),
            ("48-set", geometry(48, 8)),
            ("1-way", geometry(32, 1)),
            // L2 lines twice the L1 lines: the line-number shift between levels.
            ("l2-256B", {
                let mut p = geometry(16, 2);
                p.l2.line = 256;
                p
            }),
        ];
        let mut seen = HwCacheStats::default();
        for (gname, params) in geometries {
            for shape in [
                Stream::Sequential,
                Stream::Strided,
                Stream::PointerChase,
                Stream::RepeatedLine,
            ] {
                for seed in 1..=6u64 {
                    let at = format!("{gname}/{shape:?}/seed {seed}");
                    let mut rng = SplitMix64::new(seed * 0x9e37 + shape as u64);
                    let mut new = HwCache::new(params);
                    let mut old = HwCache::new(params);
                    // Working set sized against this geometry's L2 so
                    // every level is exercised: some streams fit L1,
                    // some spill to memory.
                    let span = (params.l2.capacity * (1 + rng.next_below(3) as u32)).max(4096);
                    let stride = 4 + 4 * rng.next_below(200) as u32;
                    let mut addr = rng.next_below(span as u64) as u32;
                    for step in 0..4000u32 {
                        let len = 1 + rng.next_below(300) as u32;
                        addr = match shape {
                            Stream::Sequential => (addr + len) % span,
                            Stream::Strided => (addr + stride) % span,
                            Stream::PointerChase => rng.next_below(span as u64) as u32,
                            Stream::RepeatedLine => {
                                if rng.next_below(16) == 0 {
                                    rng.next_below(span as u64) as u32
                                } else {
                                    (addr & !127) + rng.next_below(128) as u32
                                }
                            }
                        };
                        let len = if matches!(shape, Stream::RepeatedLine) {
                            len.min(128 - (addr & 127))
                        } else {
                            len
                        };
                        assert_eq!(
                            new.access(addr, len),
                            old.access_reference(addr, len),
                            "{at}: step {step} access({addr:#x}, {len})"
                        );
                        if rng.next_below(97) == 0 {
                            assert_same_state(&new, &old, &format!("{at}: step {step}"));
                        }
                        if step == 2000 {
                            // Round trip mid-stream, into a cache that
                            // has been somewhere else entirely.
                            let ((t1, s1, k1), (t2, s2, k2)) = new.export_state();
                            let l1 = (t1.to_vec(), s1.to_vec(), k1);
                            let l2 = (t2.to_vec(), s2.to_vec(), k2);
                            let stats = new.stats;
                            let mut fresh = HwCache::new(params);
                            for a in (0..64u32).map(|i| i * 4096 + 12) {
                                fresh.access(a, 8);
                            }
                            fresh.import_state(l1, l2).expect("same geometry");
                            fresh.stats = stats;
                            new = fresh;
                        }
                    }
                    assert_same_state(&new, &old, &format!("{at}: end"));
                    seen += new.stats;
                }
            }
        }
        assert!(
            seen.l1_hits > 10_000 && seen.l2_hits > 10_000 && seen.memory_accesses > 10_000,
            "streams left a level unexercised: {seen:?}"
        );
    }

    #[test]
    fn class_mapping() {
        assert_eq!(HwCache::class_for(HitLevel::L1), OpClass::LocalMemory);
        assert_eq!(HwCache::class_for(HitLevel::L2), OpClass::MainMemory);
        assert_eq!(HwCache::class_for(HitLevel::Memory), OpClass::MainMemory);
    }
}

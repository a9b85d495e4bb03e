//! The SPE software data cache (paper §3.2.1).
//!
//! Design decisions, all taken from the paper:
//!
//! * **Transfer big blocks.** DMA setup is expensive (≈40 cycles), so an
//!   object is transferred *whole* on first touch (its size is known
//!   from bytecode type information), and an array access pulls a block
//!   of up to 1 KB of neighbouring elements.
//! * **Bump-pointer allocation, flush when full.** Cached units are not
//!   equally sized, so space is bump-allocated; when the region (or the
//!   lookup table) fills, the whole cache is purged — after writing
//!   dirty data back.
//! * **Hashtable lookup.** A small local-memory-resident open-addressing
//!   table maps main-memory addresses to local copies.
//!
//! Write-back granularity is the *dirty span* of a unit (the byte range
//! actually written), which is how an MFC put of a modified region
//! behaves; unsynchronised false sharing within a span can still clobber
//! concurrent remote writes, exactly as on the real hardware.
//!
//! Purge and write-back run at every lock and unlock (the JMM barriers),
//! usually with a handful of units resident, so neither walks the table:
//! the cache keeps the occupied slot indices and the slots that went
//! clean → dirty. Write-back visits the dirty slots in ascending
//! table-slot order — the order a table walk finds them — because that
//! order is the order of the DMAs, and with it of the EIB window ledger,
//! the trace and the per-(core, site) fault-injector draws.
//!
//! A lookup is keyed by the unit's address alone and its hit is the
//! commonest thing an SPE does, so a hit is a probe and a charge on the
//! caller's [`ChargeRun`]. How long the unit is matters only to a fill:
//! the caller passes it as a closure over the heap, asked on a miss —
//! after the run is settled, because the fill's DMA moves the core's
//! clock itself — and never on a hit, which reads no main-heap byte.

use crate::CacheFault;
use hera_cell::{CellMachine, ChargeRun, CoreId, OpClass};
use hera_isa::{Slot, Ty, Value};
use hera_mem::heap::codec;
use hera_mem::Heap;
use hera_trace::{DmaTag, TraceEvent};

hera_trace::counters! {
    /// Statistics for one data cache.
    pub struct DataCacheStats as "dcache" {
        /// Lookups that found their unit cached.
        pub hits: u64,
        /// Lookups that had to DMA.
        pub misses: u64,
        /// Whole-cache purges (fills, lock acquires, volatile reads, GC).
        pub purges: u64,
        /// Dirty units written back.
        pub writebacks: u64,
        /// Bytes DMAed in.
        pub bytes_fetched: u64,
        /// Bytes DMAed out (write-backs).
        pub bytes_written_back: u64,
        /// Accesses that bypassed the cache (unit larger than the region).
        pub bypasses: u64,
    }
}

impl DataCacheStats {
    /// Hit rate over cacheable accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    main_addr: u32,
    local_off: u32,
    len: u32,
    /// Dirty byte span within the unit, `dirty_lo < dirty_hi` iff dirty.
    dirty_lo: u32,
    dirty_hi: u32,
}

impl Entry {
    fn is_dirty(&self) -> bool {
        self.dirty_lo < self.dirty_hi
    }
}

/// Cycles to install a unit into the table and bump the allocator
/// (hash insert, bump arithmetic, and the MFC tag-group wait check).
const INSERT_CYCLES: u64 = 40;

/// The software data cache for one SPE.
#[derive(Clone)]
pub struct DataCache {
    capacity: u32,
    array_block_bytes: u32,
    bump: u32,
    /// Written-mark: every byte of `local` at or past it is zero. Only a
    /// fill writes past the previous high-water `bump`, so a fill raises
    /// it to `bump`; nothing lowers it.
    written: u32,
    local: Vec<u8>,
    table: Vec<Option<Entry>>,
    /// Indices of the occupied table slots, in insertion order.
    occupied: Vec<usize>,
    /// Indices of the slots holding a dirty unit, in the order they
    /// became dirty (sorted before use).
    dirty: Vec<usize>,
    max_entries: usize,
    /// Statistics.
    pub stats: DataCacheStats,
}

fn align8(v: u32) -> u32 {
    (v + 7) & !7
}

impl DataCache {
    /// Default array block transfer size (paper: "a block of up to 1KB
    /// of neighbouring elements").
    pub const DEFAULT_ARRAY_BLOCK: u32 = 1024;

    /// Create a cache over `capacity` bytes of local store.
    pub fn new(capacity: u32) -> DataCache {
        Self::with_block_size(capacity, Self::DEFAULT_ARRAY_BLOCK)
    }

    /// Create a cache with a custom array block size (ablation E6).
    pub fn with_block_size(capacity: u32, array_block_bytes: u32) -> DataCache {
        let slots = (capacity / 128).next_power_of_two().clamp(64, 8192) as usize;
        DataCache {
            capacity,
            array_block_bytes: array_block_bytes.max(16),
            bump: 0,
            written: 0,
            local: vec![0; capacity as usize],
            table: vec![None; slots],
            occupied: Vec::new(),
            dirty: Vec::new(),
            max_entries: slots * 3 / 4,
            stats: DataCacheStats::default(),
        }
    }

    /// The configured capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The configured array block transfer size.
    pub fn array_block_bytes(&self) -> u32 {
        self.array_block_bytes
    }

    /// Whether a unit at `main_addr` is currently cached (test hook).
    pub fn contains(&self, main_addr: u32) -> bool {
        self.probe(main_addr).is_some()
    }

    /// Whether the cached unit at `main_addr` has unwritten local
    /// modifications (test hook).
    pub fn is_dirty(&self, main_addr: u32) -> bool {
        self.probe(main_addr).is_some_and(|(_, e)| e.is_dirty())
    }

    fn hash(&self, addr: u32) -> usize {
        // Fibonacci hashing over the 8-byte-aligned address.
        ((addr >> 3).wrapping_mul(0x9E37_79B9) as usize) & (self.table.len() - 1)
    }

    /// The table slot and entry of the unit cached at `addr`.
    #[inline]
    fn probe(&self, addr: u32) -> Option<(usize, &Entry)> {
        let mut i = self.hash(addr);
        for _ in 0..self.table.len() {
            match &self.table[i] {
                Some(e) if e.main_addr == addr => return Some((i, e)),
                Some(_) => i = (i + 1) & (self.table.len() - 1),
                None => return None,
            }
        }
        None
    }

    fn free_slot(&self, addr: u32) -> Option<usize> {
        let mut i = self.hash(addr);
        for _ in 0..self.table.len() {
            if self.table[i].is_none() {
                return Some(i);
            }
            i = (i + 1) & (self.table.len() - 1);
        }
        None
    }

    /// The one lookup: ensure the unit at `main_addr` is cached; return
    /// its table slot and local offset, or `None` when the unit cannot fit
    /// (bypass mode, the touched `access_bytes` already DMAed).
    ///
    /// The probe's cycles are a charge on the caller's `run`, and a hit
    /// ends there: its event is stamped through the run and nothing is
    /// settled. Only a miss settles the run, asks `unit_len` how long the
    /// unit is, fills on the core's clock and settles again to re-arm.
    #[inline(always)]
    fn ensure(
        &mut self,
        heap: &mut Heap,
        machine: &mut CellMachine,
        run: &mut ChargeRun,
        main_addr: u32,
        access_bytes: u32,
        unit_len: impl FnOnce(&Heap) -> u32,
    ) -> Result<Option<(usize, u32)>, CacheFault> {
        let hit_cycles = machine.cost_model().cache_hit_cycles;
        machine.run_charge(run, OpClass::LocalMemory, hit_cycles);
        if let Some((slot, e)) = self.probe(main_addr) {
            let local_off = e.local_off;
            self.stats.hits += 1;
            machine.run_emit(run, TraceEvent::DataCacheHit { addr: main_addr });
            return Ok(Some((slot, local_off)));
        }
        machine.run_settle(run);
        let len = unit_len(heap);
        let filled = self.fill(heap, machine, run.core(), main_addr, len, access_bytes);
        machine.run_settle(run);
        filled
    }

    /// The miss path of [`DataCache::ensure`], on `core`'s settled clock:
    /// DMA the unit in (purging first when the region or the table is
    /// full) and charge the insertion, or — a unit larger than the whole
    /// region — DMA just the touched bytes and report the bypass.
    #[inline(never)]
    fn fill(
        &mut self,
        heap: &mut Heap,
        machine: &mut CellMachine,
        core: CoreId,
        main_addr: u32,
        len: u32,
        access_bytes: u32,
    ) -> Result<Option<(usize, u32)>, CacheFault> {
        self.stats.misses += 1;
        machine.emit(
            core,
            TraceEvent::DataCacheMiss {
                addr: main_addr,
                bytes: len,
            },
        );

        let alen = align8(len);
        if alen > self.capacity {
            self.stats.bypasses += 1;
            machine.emit(
                core,
                TraceEvent::DataCacheBypass {
                    addr: main_addr,
                    bytes: len,
                },
            );
            machine.dma_tagged(core, access_bytes, DmaTag::Bypass)?;
            return Ok(None);
        }

        // Make room: purge on region overflow or table saturation.
        if self.bump + alen > self.capacity || self.occupied.len() >= self.max_entries {
            self.purge(heap, machine, core)?;
        }

        // Fetch the unit. A fault-exhausted transfer surfaces as a typed
        // `CacheFault` before any cache state is mutated.
        machine.dma_tagged(core, len, DmaTag::DataCacheFill)?;
        let dst = self.bump as usize;
        heap.copy_to(main_addr, &mut self.local[dst..dst + len as usize])?;
        self.stats.bytes_fetched += len as u64;

        let Some(slot) = self.free_slot(main_addr) else {
            debug_assert!(false, "purge guarantees a free slot");
            return Err(CacheFault::Internal("no free slot after purge"));
        };
        self.table[slot] = Some(Entry {
            main_addr,
            local_off: self.bump,
            len,
            dirty_lo: u32::MAX,
            dirty_hi: 0,
        });
        self.occupied.push(slot);
        let off = self.bump;
        self.bump += alen;
        self.written = self.written.max(self.bump);
        machine.advance(core, INSERT_CYCLES, OpClass::LocalMemory);
        Ok(Some((slot, off)))
    }

    /// Read an untagged slot at offset `off` inside the unit at
    /// `unit_addr`, charging `run`. This is the interpreter's hot path;
    /// `ty` selects the transfer width only, and `unit_len` is asked for
    /// the unit's length only if it has to be filled.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn read_slot(
        &mut self,
        heap: &mut Heap,
        machine: &mut CellMachine,
        run: &mut ChargeRun,
        unit_addr: u32,
        unit_len: impl FnOnce(&Heap) -> u32,
        off: u32,
        ty: Ty,
    ) -> Result<Slot, CacheFault> {
        let unit = self.ensure(heap, machine, run, unit_addr, ty.field_size(), unit_len)?;
        Ok(match unit {
            Some((_, local_off)) => codec::read_slot(&self.local, (local_off + off) as usize, ty),
            // Bypass: read through.
            None => heap.read_typed_slot(unit_addr + off, ty),
        })
    }

    /// Write an untagged slot at offset `off` inside the unit, marking
    /// the dirty span; `run` and `unit_len` as in [`DataCache::read_slot`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn write_slot(
        &mut self,
        heap: &mut Heap,
        machine: &mut CellMachine,
        run: &mut ChargeRun,
        unit_addr: u32,
        unit_len: impl FnOnce(&Heap) -> u32,
        off: u32,
        ty: Ty,
        s: Slot,
    ) -> Result<(), CacheFault> {
        let unit = self.ensure(heap, machine, run, unit_addr, ty.field_size(), unit_len)?;
        match unit {
            Some((slot, local_off)) => {
                codec::write_slot(&mut self.local, (local_off + off) as usize, ty, s);
                let Some(e) = self.table[slot].as_mut() else {
                    debug_assert!(false, "unit vanished right after ensure");
                    return Err(CacheFault::Internal("unit vanished after ensure"));
                };
                if !e.is_dirty() {
                    self.dirty.push(slot);
                }
                e.dirty_lo = e.dirty_lo.min(off);
                e.dirty_hi = e.dirty_hi.max(off + ty.field_size());
            }
            // Bypass: write through.
            None => heap.write_typed_slot(unit_addr + off, ty, s),
        }
        Ok(())
    }

    /// Read a tagged value from a unit of `unit_len` bytes, in a run of
    /// its own (API-boundary convenience over [`read_slot`]).
    ///
    /// [`read_slot`]: DataCache::read_slot
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &mut self,
        heap: &mut Heap,
        machine: &mut CellMachine,
        core: CoreId,
        unit_addr: u32,
        unit_len: u32,
        off: u32,
        ty: Ty,
    ) -> Result<Value, CacheFault> {
        let mut run = machine.run_open(core);
        let res = self.read_slot(heap, machine, &mut run, unit_addr, |_| unit_len, off, ty);
        machine.run_settle(&mut run);
        res.map(|s| s.to_value(ty.kind()))
    }

    /// Write a tagged value into a unit of `unit_len` bytes, in a run of
    /// its own (API-boundary convenience over [`write_slot`]).
    ///
    /// [`write_slot`]: DataCache::write_slot
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &mut self,
        heap: &mut Heap,
        machine: &mut CellMachine,
        core: CoreId,
        unit_addr: u32,
        unit_len: u32,
        off: u32,
        ty: Ty,
        v: Value,
    ) -> Result<(), CacheFault> {
        let mut run = machine.run_open(core);
        let s = Slot::from_value(v);
        let res = self.write_slot(heap, machine, &mut run, unit_addr, |_| unit_len, off, ty, s);
        machine.run_settle(&mut run);
        res
    }

    /// Write all dirty spans back to main memory (release barrier /
    /// pre-GC flush), in ascending table-slot order. Cached copies remain
    /// resident but clean. A faulted transfer stops the walk with its unit
    /// and every later one still dirty.
    pub fn write_back_dirty(
        &mut self,
        heap: &mut Heap,
        machine: &mut CellMachine,
        core: CoreId,
    ) -> Result<(), CacheFault> {
        self.dirty.sort_unstable();
        for i in 0..self.dirty.len() {
            if let Err(e) = self.write_back_slot(self.dirty[i], heap, machine, core) {
                self.dirty.drain(..i);
                return Err(e);
            }
        }
        self.dirty.clear();
        Ok(())
    }

    fn write_back_slot(
        &mut self,
        slot: usize,
        heap: &mut Heap,
        machine: &mut CellMachine,
        core: CoreId,
    ) -> Result<(), CacheFault> {
        let Some(e) = self.table[slot].as_mut() else {
            debug_assert!(false, "dirty slot {slot} has no entry");
            return Err(CacheFault::Internal("dirty slot has no entry"));
        };
        debug_assert!(e.is_dirty() && e.dirty_hi <= e.len, "bad dirty span");
        let span = e.dirty_hi - e.dirty_lo;
        machine.emit(
            core,
            TraceEvent::DataCacheWriteBack {
                addr: e.main_addr + e.dirty_lo,
                bytes: span,
            },
        );
        machine.dma_tagged(core, span, DmaTag::DataCacheWriteBack)?;
        let src_lo = (e.local_off + e.dirty_lo) as usize;
        heap.copy_from(
            e.main_addr + e.dirty_lo,
            &self.local[src_lo..src_lo + span as usize],
        )?;
        self.stats.writebacks += 1;
        self.stats.bytes_written_back += span as u64;
        e.dirty_lo = u32::MAX;
        e.dirty_hi = 0;
        Ok(())
    }

    /// Invalidate every resident unit.
    fn clear(&mut self) {
        for slot in self.occupied.drain(..) {
            self.table[slot] = None;
        }
        self.dirty.clear();
        self.bump = 0;
        self.stats.purges += 1;
    }

    /// Fail-over salvage: copy every dirty span straight into main memory
    /// and invalidate the cache, charging *no* virtual cycles to any core.
    ///
    /// Used when this cache's SPE died: the dead core cannot execute the
    /// write-back DMA itself (its clock is frozen), so the recovery path
    /// rescues the bytes out-of-band and the caller charges the supervisor
    /// core whatever recovery cost it models. Returns the bytes salvaged.
    pub fn salvage(&mut self, heap: &mut Heap) -> Result<u64, CacheFault> {
        let mut salvaged = 0u64;
        self.dirty.sort_unstable();
        for &slot in &self.dirty {
            let Some(e) = self.table[slot] else {
                debug_assert!(false, "dirty slot {slot} has no entry");
                return Err(CacheFault::Internal("dirty slot has no entry"));
            };
            debug_assert!(e.is_dirty() && e.dirty_hi <= e.len, "bad dirty span");
            let span = e.dirty_hi - e.dirty_lo;
            let src_lo = (e.local_off + e.dirty_lo) as usize;
            heap.copy_from(
                e.main_addr + e.dirty_lo,
                &self.local[src_lo..src_lo + span as usize],
            )?;
            salvaged += span as u64;
            self.stats.writebacks += 1;
            self.stats.bytes_written_back += span as u64;
        }
        self.clear();
        Ok(salvaged)
    }

    /// The written-mark: every local byte at or past it is zero, so a
    /// snapshot encodes the region with `hera_snap::Codec::rle(local,
    /// mark)`.
    pub fn written_mark(&self) -> u32 {
        self.written
    }

    /// Full cache state for a snapshot: `(bump, occupied table slots,
    /// local region bytes)`. Each occupied slot is `(slot index,
    /// [main_addr, local_off, len, dirty_lo, dirty_hi])`; slots come out
    /// in index order, so the encoding is deterministic.
    #[allow(clippy::type_complexity)]
    pub fn export_state(&self) -> (u32, Vec<(u32, [u32; 5])>, &[u8]) {
        let slots = self
            .table
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref().map(|e| {
                    (
                        i as u32,
                        [e.main_addr, e.local_off, e.len, e.dirty_lo, e.dirty_hi],
                    )
                })
            })
            .collect();
        (self.bump, slots, &self.local)
    }

    /// Restore the state captured by [`DataCache::export_state`]; every
    /// byte of `local` at or past `extent` is zero (the decoder's last
    /// literal end). Fails if the shape does not match this cache's
    /// geometry or a unit's dirty span reaches outside the unit, so a
    /// corrupt snapshot cannot produce out-of-bounds local offsets.
    ///
    /// The written-mark becomes `max(bump, extent)`, not `extent`: a unit
    /// below `bump` that was all zero when captured is written later
    /// without a fill.
    pub fn import_state(
        &mut self,
        bump: u32,
        slots: Vec<(u32, [u32; 5])>,
        local: Vec<u8>,
        extent: usize,
    ) -> Result<(), &'static str> {
        if local.len() != self.local.len() || extent > local.len() {
            return Err("data-cache region size mismatch");
        }
        if bump > self.capacity || slots.len() > self.max_entries {
            return Err("data-cache allocator state out of range");
        }
        let mut table = vec![None; self.table.len()];
        let (mut occupied, mut dirty) = (Vec::with_capacity(slots.len()), Vec::new());
        for &(slot, [main_addr, local_off, len, dirty_lo, dirty_hi]) in &slots {
            let i = slot as usize;
            if i >= table.len() || table[i].is_some() {
                return Err("data-cache table slot invalid");
            }
            if local_off as u64 + ((len as u64 + 7) & !7) > bump as u64 {
                return Err("data-cache unit outside allocated region");
            }
            let e = Entry {
                main_addr,
                local_off,
                len,
                dirty_lo,
                dirty_hi,
            };
            if e.is_dirty() {
                if dirty_hi > len || main_addr.checked_add(len).is_none() {
                    return Err("data-cache dirty span outside its unit");
                }
                dirty.push(i);
            }
            occupied.push(i);
            table[i] = Some(e);
        }
        self.bump = bump;
        self.written = bump.max(extent as u32);
        self.table = table;
        self.occupied = occupied;
        self.dirty = dirty;
        self.local = local;
        Ok(())
    }

    /// Purge the cache: write dirty data back, then invalidate
    /// everything (acquire barrier / volatile read / cache full / GC).
    pub fn purge(
        &mut self,
        heap: &mut Heap,
        machine: &mut CellMachine,
        core: CoreId,
    ) -> Result<(), CacheFault> {
        self.write_back_dirty(heap, machine, core)?;
        machine.emit(
            core,
            TraceEvent::DataCachePurge {
                resident_units: self.occupied.len() as u32,
            },
        );
        self.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_cell::CellConfig;
    use hera_isa::{ElemTy, ObjRef, ProgramBuilder};
    use hera_mem::{HeapConfig, ProgramLayout};

    struct Fx {
        heap: Heap,
        machine: CellMachine,
        layout: ProgramLayout,
        class: hera_isa::ClassId,
        field: hera_isa::FieldId,
    }

    fn fx() -> Fx {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let f = b.add_field(c, "x", Ty::Int);
        b.add_field(c, "y", Ty::Int);
        let p = b.finish().unwrap();
        let layout = ProgramLayout::compute(&p);
        Fx {
            heap: Heap::new(
                HeapConfig {
                    size_bytes: 1 << 20,
                },
                layout.statics.size,
            ),
            machine: CellMachine::new(CellConfig::default()),
            layout,
            class: c,
            field: f,
        }
    }

    const SPE: CoreId = CoreId::Spe(0);

    #[test]
    fn first_access_misses_subsequent_hit() {
        let mut f = fx();
        let r = f.heap.alloc_object(&f.layout, f.class).unwrap();
        let size = f.layout.object_size(f.class);
        let off = f.layout.offset_of(f.field);
        let mut dc = DataCache::new(32 << 10);
        let v = dc
            .read(&mut f.heap, &mut f.machine, SPE, r.0, size, off, Ty::Int)
            .unwrap();
        assert_eq!(v, Value::I32(0));
        assert_eq!(dc.stats.misses, 1);
        dc.read(&mut f.heap, &mut f.machine, SPE, r.0, size, off, Ty::Int)
            .unwrap();
        assert_eq!(dc.stats.hits, 1);
        // Whole object was fetched, not just the field.
        assert_eq!(dc.stats.bytes_fetched, size as u64);
    }

    #[test]
    fn writes_are_local_until_written_back() {
        let mut f = fx();
        let r = f.heap.alloc_object(&f.layout, f.class).unwrap();
        let size = f.layout.object_size(f.class);
        let off = f.layout.offset_of(f.field);
        let mut dc = DataCache::new(32 << 10);
        dc.write(
            &mut f.heap,
            &mut f.machine,
            SPE,
            r.0,
            size,
            off,
            Ty::Int,
            Value::I32(77),
        )
        .unwrap();
        // Main memory still sees the old value (stale is allowed).
        assert_eq!(f.heap.read_typed_slot(r.0 + off, Ty::Int), Slot::ZERO);
        assert!(dc.is_dirty(r.0));
        // Local copy sees the new value (read-your-writes).
        let v = dc
            .read(&mut f.heap, &mut f.machine, SPE, r.0, size, off, Ty::Int)
            .unwrap();
        assert_eq!(v, Value::I32(77));
        // Write-back publishes it.
        dc.write_back_dirty(&mut f.heap, &mut f.machine, SPE)
            .unwrap();
        assert_eq!(f.heap.read_typed_slot(r.0 + off, Ty::Int).i32(), 77);
        assert!(!dc.is_dirty(r.0));
        assert_eq!(dc.stats.writebacks, 1);
    }

    #[test]
    fn stale_reads_until_purge() {
        let mut f = fx();
        let r = f.heap.alloc_object(&f.layout, f.class).unwrap();
        let size = f.layout.object_size(f.class);
        let off = f.layout.offset_of(f.field);
        let mut dc = DataCache::new(32 << 10);
        dc.read(&mut f.heap, &mut f.machine, SPE, r.0, size, off, Ty::Int)
            .unwrap();
        // Another core updates main memory.
        f.heap
            .write_typed_slot(r.0 + off, Ty::Int, Slot::from_i32(5));
        // The SPE still sees the stale cached value…
        let v = dc
            .read(&mut f.heap, &mut f.machine, SPE, r.0, size, off, Ty::Int)
            .unwrap();
        assert_eq!(v, Value::I32(0));
        // …until an acquire-style purge.
        dc.purge(&mut f.heap, &mut f.machine, SPE).unwrap();
        let v = dc
            .read(&mut f.heap, &mut f.machine, SPE, r.0, size, off, Ty::Int)
            .unwrap();
        assert_eq!(v, Value::I32(5));
    }

    #[test]
    fn purge_writes_dirty_back_first() {
        let mut f = fx();
        let r = f.heap.alloc_object(&f.layout, f.class).unwrap();
        let size = f.layout.object_size(f.class);
        let off = f.layout.offset_of(f.field);
        let mut dc = DataCache::new(32 << 10);
        dc.write(
            &mut f.heap,
            &mut f.machine,
            SPE,
            r.0,
            size,
            off,
            Ty::Int,
            Value::I32(42),
        )
        .unwrap();
        dc.purge(&mut f.heap, &mut f.machine, SPE).unwrap();
        assert_eq!(f.heap.read_typed_slot(r.0 + off, Ty::Int).i32(), 42);
        assert!(!dc.contains(r.0));
    }

    #[test]
    fn cache_fill_triggers_purge_and_continues() {
        let mut f = fx();
        // 4 KB cache, 1 KB array blocks: five block fetches must purge.
        let arr = f.heap.alloc_array(ElemTy::Byte, 16 << 10).unwrap();
        let mut dc = DataCache::new(4 << 10);
        for block in 0..10u32 {
            let unit = arr.0 + block * 1024;
            dc.read(&mut f.heap, &mut f.machine, SPE, unit, 1024, 0, Ty::Byte)
                .unwrap();
        }
        assert!(dc.stats.purges >= 1);
        assert_eq!(dc.stats.misses, 10);
    }

    #[test]
    fn oversized_units_bypass() {
        let mut f = fx();
        let arr = f.heap.alloc_array(ElemTy::Byte, 1 << 10).unwrap();
        let (at, _) = f.heap.elem_addr(arr, 5).unwrap();
        f.heap.write_typed_slot(at, Ty::Byte, Slot::from_i32(9));
        let mut dc = DataCache::new(256); // smaller than the 1 KB unit
        let v = dc
            .read(
                &mut f.heap,
                &mut f.machine,
                SPE,
                arr.0,
                1032,
                8 + 5,
                Ty::Byte,
            )
            .unwrap();
        assert_eq!(v, Value::I32(9));
        assert_eq!(dc.stats.bypasses, 1);
        // Bypass writes go straight through.
        dc.write(
            &mut f.heap,
            &mut f.machine,
            SPE,
            arr.0,
            1032,
            8 + 6,
            Ty::Byte,
            Value::I32(3),
        )
        .unwrap();
        let (at, _) = f.heap.elem_addr(arr, 6).unwrap();
        assert_eq!(f.heap.read_typed_slot(at, Ty::Byte).i32(), 3);
    }

    #[test]
    fn dirty_span_limits_writeback_bytes() {
        let mut f = fx();
        let arr = f.heap.alloc_array(ElemTy::Int, 200).unwrap();
        let mut dc = DataCache::new(32 << 10);
        // Touch one element in the middle of a 1 KB block.
        dc.write(
            &mut f.heap,
            &mut f.machine,
            SPE,
            arr.0,
            808,
            8 + 4 * 50,
            Ty::Int,
            Value::I32(1),
        )
        .unwrap();
        dc.write_back_dirty(&mut f.heap, &mut f.machine, SPE)
            .unwrap();
        assert_eq!(dc.stats.bytes_written_back, 4);
    }

    #[test]
    fn salvage_rescues_dirty_bytes_without_charging_cycles() {
        let mut f = fx();
        let r = f.heap.alloc_object(&f.layout, f.class).unwrap();
        let size = f.layout.object_size(f.class);
        let off = f.layout.offset_of(f.field);
        let mut dc = DataCache::new(32 << 10);
        dc.write(
            &mut f.heap,
            &mut f.machine,
            SPE,
            r.0,
            size,
            off,
            Ty::Int,
            Value::I32(42),
        )
        .unwrap();
        let t0 = f.machine.now(SPE);
        let salvaged = dc.salvage(&mut f.heap).unwrap();
        assert_eq!(salvaged, 4);
        // The dead core's clock must not move: salvage is out-of-band.
        assert_eq!(f.machine.now(SPE), t0);
        assert_eq!(f.heap.read_typed_slot(r.0 + off, Ty::Int).i32(), 42);
        assert!(!dc.contains(r.0));
    }

    #[test]
    fn exhausted_dma_surfaces_cache_fault_not_panic() {
        let mut f = fx();
        f.machine = CellMachine::new(CellConfig {
            faults: hera_cell::FaultPlan::seeded(1)
                .with_mfc_faults(1_000_000, 0, 0)
                .expect("valid"),
            ..CellConfig::default()
        });
        let r = f.heap.alloc_object(&f.layout, f.class).unwrap();
        let size = f.layout.object_size(f.class);
        let off = f.layout.offset_of(f.field);
        let mut dc = DataCache::new(32 << 10);
        let err = dc
            .read(&mut f.heap, &mut f.machine, SPE, r.0, size, off, Ty::Int)
            .unwrap_err();
        assert!(matches!(err, crate::CacheFault::Mfc(_)), "got {err:?}");
        assert_eq!(dc.stats.bytes_fetched, 0, "failed fill must not install");
    }

    #[test]
    fn miss_costs_more_cycles_than_hit() {
        let mut f = fx();
        let r = f.heap.alloc_object(&f.layout, f.class).unwrap();
        let size = f.layout.object_size(f.class);
        let mut dc = DataCache::new(32 << 10);
        let t0 = f.machine.now(SPE);
        dc.read(&mut f.heap, &mut f.machine, SPE, r.0, size, 8, Ty::Int)
            .unwrap();
        let miss_cost = f.machine.now(SPE) - t0;
        let t1 = f.machine.now(SPE);
        dc.read(&mut f.heap, &mut f.machine, SPE, r.0, size, 8, Ty::Int)
            .unwrap();
        let hit_cost = f.machine.now(SPE) - t1;
        assert!(miss_cost > 10 * hit_cost, "{miss_cost} vs {hit_cost}");
        // Misses charge main-memory cycles; hits charge local memory.
        assert!(f.machine.breakdown(SPE).cycles(OpClass::MainMemory) > 0);
        assert!(f.machine.breakdown(SPE).cycles(OpClass::LocalMemory) > 0);
    }

    #[test]
    fn hit_rate_reporting() {
        let mut s = DataCacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert_eq!(s.hit_rate(), 0.75);
    }

    #[test]
    fn many_objects_with_collisions_still_resolve() {
        let mut f = fx();
        let off = f.layout.offset_of(f.field);
        let mut refs: Vec<ObjRef> = Vec::new();
        for i in 0..200 {
            let r = f.heap.alloc_object(&f.layout, f.class).unwrap();
            f.heap
                .write_typed_slot(r.0 + off, Ty::Int, Slot::from_i32(i));
            refs.push(r);
        }
        let size = f.layout.object_size(f.class);
        let mut dc = DataCache::new(64 << 10);
        for (i, r) in refs.iter().enumerate() {
            let v = dc
                .read(&mut f.heap, &mut f.machine, SPE, r.0, size, off, Ty::Int)
                .unwrap();
            assert_eq!(v, Value::I32(i as i32));
        }
        // Second pass: all hits (64 KB holds 200 × 16-byte objects).
        let before = dc.stats.hits;
        for r in &refs {
            dc.read(&mut f.heap, &mut f.machine, SPE, r.0, size, off, Ty::Int)
                .unwrap();
        }
        assert_eq!(dc.stats.hits - before, 200);
    }

    // ---- differential test against the whole-table walks ----

    /// The walks over every table slot that the occupied / dirty lists
    /// replaced, kept as the reference: what gets visited, and in which
    /// order, is decided by scanning the table alone. Each ends by
    /// rebuilding the lists from the table so the cache stays usable.
    impl DataCache {
        fn scan(&self, want: impl Fn(&Entry) -> bool) -> Vec<usize> {
            (0..self.table.len())
                .filter(|&i| self.table[i].as_ref().is_some_and(&want))
                .collect()
        }

        fn relist_by_scan(&mut self) {
            self.occupied = self.scan(|_| true);
            self.dirty = self.scan(Entry::is_dirty);
        }

        fn write_back_dirty_reference(
            &mut self,
            heap: &mut Heap,
            machine: &mut CellMachine,
            core: CoreId,
        ) -> Result<(), CacheFault> {
            let res = (|| {
                for slot in 0..self.table.len() {
                    let Some(e) = self.table[slot] else { continue };
                    if !e.is_dirty() {
                        continue;
                    }
                    let span = e.dirty_hi - e.dirty_lo;
                    machine.emit(
                        core,
                        TraceEvent::DataCacheWriteBack {
                            addr: e.main_addr + e.dirty_lo,
                            bytes: span,
                        },
                    );
                    machine.dma_tagged(core, span, DmaTag::DataCacheWriteBack)?;
                    let src_lo = (e.local_off + e.dirty_lo) as usize;
                    heap.copy_from(
                        e.main_addr + e.dirty_lo,
                        &self.local[src_lo..src_lo + span as usize],
                    )?;
                    self.stats.writebacks += 1;
                    self.stats.bytes_written_back += span as u64;
                    let e = self.table[slot].as_mut().unwrap();
                    e.dirty_lo = u32::MAX;
                    e.dirty_hi = 0;
                }
                Ok(())
            })();
            self.relist_by_scan();
            res
        }

        fn purge_reference(
            &mut self,
            heap: &mut Heap,
            machine: &mut CellMachine,
            core: CoreId,
        ) -> Result<(), CacheFault> {
            self.write_back_dirty_reference(heap, machine, core)?;
            machine.emit(
                core,
                TraceEvent::DataCachePurge {
                    resident_units: self.scan(|_| true).len() as u32,
                },
            );
            self.table.iter_mut().for_each(|s| *s = None);
            self.bump = 0;
            self.stats.purges += 1;
            self.relist_by_scan();
            Ok(())
        }

        fn salvage_reference(&mut self, heap: &mut Heap) -> Result<u64, CacheFault> {
            let mut salvaged = 0u64;
            for slot in 0..self.table.len() {
                let Some(e) = self.table[slot] else { continue };
                if !e.is_dirty() {
                    continue;
                }
                let span = e.dirty_hi - e.dirty_lo;
                let src_lo = (e.local_off + e.dirty_lo) as usize;
                heap.copy_from(
                    e.main_addr + e.dirty_lo,
                    &self.local[src_lo..src_lo + span as usize],
                )?;
                salvaged += span as u64;
                self.stats.writebacks += 1;
                self.stats.bytes_written_back += span as u64;
            }
            self.table.iter_mut().for_each(|s| *s = None);
            self.bump = 0;
            self.stats.purges += 1;
            self.relist_by_scan();
            Ok(salvaged)
        }
    }

    /// One side of the differential run: its own heap, machine and cache.
    struct Side {
        heap: Heap,
        machine: CellMachine,
        dc: DataCache,
        reference: bool,
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Read(u32, u32, u32),
        Write(u32, u32, u32, i32),
        WriteBack,
        Purge,
        Salvage,
        ExportImport,
    }

    impl Side {
        fn apply(&mut self, step: Step) -> String {
            let (h, m, dc) = (&mut self.heap, &mut self.machine, &mut self.dc);
            match step {
                Step::Read(unit, len, off) => {
                    format!("{:?}", dc.read(h, m, SPE, unit, len, off, Ty::Int))
                }
                Step::Write(unit, len, off, v) => {
                    let v = Value::I32(v);
                    format!("{:?}", dc.write(h, m, SPE, unit, len, off, Ty::Int, v))
                }
                Step::WriteBack if self.reference => {
                    format!("{:?}", dc.write_back_dirty_reference(h, m, SPE))
                }
                Step::WriteBack => format!("{:?}", dc.write_back_dirty(h, m, SPE)),
                Step::Purge if self.reference => format!("{:?}", dc.purge_reference(h, m, SPE)),
                Step::Purge => format!("{:?}", dc.purge(h, m, SPE)),
                Step::Salvage if self.reference => format!("{:?}", dc.salvage_reference(h)),
                Step::Salvage => format!("{:?}", dc.salvage(h)),
                Step::ExportImport => {
                    let (bump, slots, local) = dc.export_state();
                    let local = local.to_vec();
                    let extent = nonzero_end(&local);
                    let mut fresh = DataCache::new(dc.capacity());
                    fresh.stats = dc.stats;
                    let res = fresh.import_state(bump, slots, local, extent);
                    *dc = fresh;
                    format!("{res:?}")
                }
            }
        }
    }

    /// The smallest extent an import can be handed: one past the last
    /// non-zero byte (a decoder's last literal ends there or later).
    fn nonzero_end(local: &[u8]) -> usize {
        local.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1)
    }

    #[test]
    fn lists_match_whole_table_walks_on_seeded_sequences() {
        use hera_rng::SplitMix64;
        // A quiet machine, and one whose transfers fault often enough to
        // stop write-backs half way (five attempts at 60 % each).
        let plans = [
            hera_cell::FaultPlan::default(),
            hera_cell::FaultPlan::seeded(7)
                .with_mfc_faults(600_000, 0, 0)
                .expect("valid"),
        ];
        let mut faulted_write_backs = 0;
        for (p, plan) in plans.into_iter().enumerate() {
            for seed in 0..6u64 {
                let mut rng = SplitMix64::new(0xDA7A_CAC4E ^ (seed << 8) ^ p as u64);
                let mut sides: Vec<Side> = [false, true]
                    .into_iter()
                    .map(|reference| {
                        let f = fx();
                        Side {
                            heap: Heap::new(
                                HeapConfig {
                                    size_bytes: 64 << 10,
                                },
                                f.layout.statics.size,
                            ),
                            machine: CellMachine::new(CellConfig {
                                trace: true,
                                faults: plan,
                                ..CellConfig::default()
                            }),
                            // 64 table slots, 48 usable: small objects
                            // saturate the table, 1 KB blocks the region.
                            dc: DataCache::new(4 << 10),
                            reference,
                        }
                    })
                    .collect();
                // The same units on both heaps: 120 objects and a byte
                // array cut into 1 KB blocks.
                let f = fx();
                let size = f.layout.object_size(f.class);
                let mut units: Vec<(u32, u32)> = Vec::new();
                for side in &mut sides {
                    units.clear();
                    for _ in 0..120 {
                        let r = side.heap.alloc_object(&f.layout, f.class).unwrap();
                        units.push((r.0, size));
                    }
                    let arr = side.heap.alloc_array(ElemTy::Byte, 12 << 10).unwrap();
                    units.extend((0..12).map(|b| (arr.0 + b * 1024, 1024)));
                }

                for n in 0..1500 {
                    let (unit, len) = units[rng.next_below(units.len() as u64) as usize];
                    let off = 8 + 4 * rng.next_below((len as u64 - 8) / 4) as u32;
                    let step = match rng.next_below(40) {
                        0..=14 => Step::Read(unit, len, off),
                        15..=33 => Step::Write(unit, len, off, rng.next_u64() as i32),
                        34..=36 => Step::WriteBack,
                        37 => Step::Purge,
                        38 => Step::Salvage,
                        _ => Step::ExportImport,
                    };
                    let what = format!("plan {p} seed {seed} step {n} {step:?}");
                    let new = sides[0].apply(step);
                    let old = sides[1].apply(step);
                    assert_eq!(new, old, "{what}: result");
                    faulted_write_backs +=
                        usize::from(matches!(step, Step::WriteBack) && new.starts_with("Err"));
                    let (a, b) = (&sides[0], &sides[1]);
                    assert_eq!(a.dc.export_state(), b.dc.export_state(), "{what}: cache");
                    assert_eq!(a.dc.stats, b.dc.stats, "{what}: stats");
                    assert_eq!(a.machine.now(SPE), b.machine.now(SPE), "{what}: clock");
                    assert!(a.heap.raw() == b.heap.raw(), "{what}: heap bytes");
                    assert_eq!(
                        a.machine.trace.event_count(),
                        b.machine.trace.event_count(),
                        "{what}: events"
                    );
                    let mut listed = (a.dc.occupied.clone(), a.dc.dirty.clone());
                    listed.0.sort_unstable();
                    listed.1.sort_unstable();
                    assert_eq!(listed.0, a.dc.scan(|_| true), "{what}: occupied list");
                    assert_eq!(listed.1, a.dc.scan(Entry::is_dirty), "{what}: dirty list");
                    assert!(
                        a.dc.local[a.dc.written as usize..].iter().all(|&b| b == 0),
                        "{what}: non-zero byte past the written-mark"
                    );
                }
                // Write-back order is the order of the trace's records.
                let lanes = sides[0].machine.trace.lanes();
                for (new, old) in lanes.iter().zip(sides[1].machine.trace.lanes()) {
                    let at = new.events.iter().zip(&old.events).position(|(a, b)| a != b);
                    let pair = at.map(|i| (new.events[i], old.events[i]));
                    assert_eq!(
                        pair, None,
                        "plan {p} seed {seed}: {} event {at:?}",
                        new.name
                    );
                }
                assert!(sides[0].dc.stats.writebacks > 100 && sides[0].dc.stats.purges > 10);
            }
        }
        assert!(faulted_write_backs > 10, "{faulted_write_backs} faulted");
    }

    // ---- differential test against the clock-charging lookup ----

    /// The lookup as it was before it charged a run, kept as the
    /// reference: the probe's cycles go straight to the core's clock,
    /// every event is stamped by `machine.emit` with that clock, the unit
    /// length is an argument and the bypass DMA is the caller's.
    impl DataCache {
        fn ensure_reference(
            &mut self,
            heap: &mut Heap,
            machine: &mut CellMachine,
            core: CoreId,
            main_addr: u32,
            len: u32,
        ) -> Result<Option<(usize, u32)>, CacheFault> {
            let hit_cycles = machine.cost_model().cache_hit_cycles as u64;
            machine.advance(core, hit_cycles, OpClass::LocalMemory);

            if let Some((slot, e)) = self.probe(main_addr) {
                let local_off = e.local_off;
                self.stats.hits += 1;
                machine.emit(core, TraceEvent::DataCacheHit { addr: main_addr });
                return Ok(Some((slot, local_off)));
            }
            self.stats.misses += 1;
            machine.emit(
                core,
                TraceEvent::DataCacheMiss {
                    addr: main_addr,
                    bytes: len,
                },
            );

            let alen = align8(len);
            if alen > self.capacity {
                self.stats.bypasses += 1;
                machine.emit(
                    core,
                    TraceEvent::DataCacheBypass {
                        addr: main_addr,
                        bytes: len,
                    },
                );
                return Ok(None);
            }

            if self.bump + alen > self.capacity || self.occupied.len() >= self.max_entries {
                self.purge(heap, machine, core)?;
            }

            machine.dma_tagged(core, len, DmaTag::DataCacheFill)?;
            let dst = self.bump as usize;
            heap.copy_to(main_addr, &mut self.local[dst..dst + len as usize])?;
            self.stats.bytes_fetched += len as u64;

            let slot = self.free_slot(main_addr).expect("purge guarantees a slot");
            self.table[slot] = Some(Entry {
                main_addr,
                local_off: self.bump,
                len,
                dirty_lo: u32::MAX,
                dirty_hi: 0,
            });
            self.occupied.push(slot);
            let off = self.bump;
            self.bump += alen;
            machine.advance(core, INSERT_CYCLES, OpClass::LocalMemory);
            Ok(Some((slot, off)))
        }

        #[allow(clippy::too_many_arguments)]
        fn read_reference(
            &mut self,
            heap: &mut Heap,
            machine: &mut CellMachine,
            core: CoreId,
            unit_addr: u32,
            unit_len: u32,
            off: u32,
            ty: Ty,
        ) -> Result<Slot, CacheFault> {
            match self.ensure_reference(heap, machine, core, unit_addr, unit_len)? {
                Some((_, local_off)) => Ok(codec::read_slot(
                    &self.local,
                    (local_off + off) as usize,
                    ty,
                )),
                None => {
                    machine.dma_tagged(core, ty.field_size(), DmaTag::Bypass)?;
                    Ok(heap.read_typed_slot(unit_addr + off, ty))
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn write_reference(
            &mut self,
            heap: &mut Heap,
            machine: &mut CellMachine,
            core: CoreId,
            unit_addr: u32,
            unit_len: u32,
            off: u32,
            ty: Ty,
            s: Slot,
        ) -> Result<(), CacheFault> {
            match self.ensure_reference(heap, machine, core, unit_addr, unit_len)? {
                Some((slot, local_off)) => {
                    codec::write_slot(&mut self.local, (local_off + off) as usize, ty, s);
                    let e = self.table[slot].as_mut().expect("unit just ensured");
                    if !e.is_dirty() {
                        self.dirty.push(slot);
                    }
                    e.dirty_lo = e.dirty_lo.min(off);
                    e.dirty_hi = e.dirty_hi.max(off + ty.field_size());
                    Ok(())
                }
                None => {
                    machine.dma_tagged(core, ty.field_size(), DmaTag::Bypass)?;
                    heap.write_typed_slot(unit_addr + off, ty, s);
                    Ok(())
                }
            }
        }
    }

    /// What tracing recorded on `lane` (nothing when it is off).
    fn lane_events(m: &CellMachine, lane: usize) -> &[hera_trace::TimedEvent] {
        m.trace.lanes().get(lane).map_or(&[], |l| &l.events)
    }

    /// Drive the run-charging lookup and the reference with the same
    /// seeded stream. The new side keeps one run open across steps —
    /// hits pile up in it — and settles it at random points, where clock,
    /// breakdown and profiler lane must equal the reference's; stats,
    /// cache state and the trace lane (timestamps included: a hit's stamp
    /// is the only witness of `clock + run.total`) are compared at every
    /// step. Also run in release, where the run carries no debug shadow.
    #[test]
    fn run_charging_lookup_matches_clock_charging_reference() {
        // No slowdown, an odd onset the stream crosses about a third of
        // the way in, and slow from the first charge.
        let onsets = [None, Some(MID_STREAM), Some(0)];
        let mut hits_in_open_runs = 0;
        for seed in 0..6u64 {
            for (o, onset) in onsets.into_iter().enumerate() {
                for (trace, profiling) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let rng = hera_rng::SplitMix64::new(0x5E77_1ED0 ^ (seed << 8) ^ o as u64);
                    let cell = CellConfig {
                        trace,
                        profiling,
                        faults: onset.map_or(hera_cell::FaultPlan::default(), |from| {
                            hera_cell::FaultPlan::default()
                                .with_slowdown(3, from)
                                .expect("valid")
                        }),
                        ..CellConfig::default()
                    };
                    let what =
                        format!("seed {seed} onset {onset:?} trace {trace} prof {profiling}");
                    hits_in_open_runs += differential_stream(rng, cell, &what);
                }
            }
        }
        assert!(
            hits_in_open_runs > 5_000,
            "{hits_in_open_runs} hits joined an open run"
        );
    }

    const MID_STREAM: u64 = 25_001;

    /// One stream of [`run_charging_lookup_matches_clock_charging_reference`];
    /// returns how many hits were charged into a run already holding one.
    fn differential_stream(mut rng: hera_rng::SplitMix64, cell: CellConfig, what: &str) -> u64 {
        const STEPS: usize = 700;
        let f = fx();
        let size = f.layout.object_size(f.class);
        let mut sides = [(); 2].map(|()| {
            let heap_config = HeapConfig {
                size_bytes: 64 << 10,
            };
            (
                Heap::new(heap_config, f.layout.statics.size),
                CellMachine::new(cell),
                DataCache::new(4 << 10),
            )
        });
        // Objects, a 6 KB int array cut into 1 KB blocks (the last one
        // short), and an 8 KB unit the 4 KB cache can only bypass.
        let mut units: Vec<(u32, u32)> = Vec::new();
        for (heap, ..) in &mut sides {
            units.clear();
            for _ in 0..60 {
                let r = heap.alloc_object(&f.layout, f.class).unwrap();
                units.push((r.0, size));
            }
            let arr = heap.alloc_array(ElemTy::Int, 1500).unwrap();
            let total = heap.header(arr).size;
            let blocks = (0..total.div_ceil(1024)).map(|b| b * 1024);
            units.extend(blocks.map(|at| (arr.0 + at, (total - at).min(1024))));
            let big = heap.alloc_array(ElemTy::Int, 2046).unwrap();
            units.push((big.0, heap.header(big).size));
        }

        let [(h, m, dc), (rh, rm, rdc)] = &mut sides;
        let lane = m.lane(SPE);
        let mut run = m.run_open(SPE);
        let (mut seen_events, mut profiled) = (0, 0);
        let (mut open_hits, mut hits_in_open_runs) = (0u64, 0);
        for n in 0..STEPS {
            let what = format!("{what} step {n}");
            // Mostly eight hot objects, so hits dominate; else any unit,
            // the bypassing one included.
            let pick = match rng.next_below(16) {
                0 => units.len() as u64 - 1,
                1..=3 => rng.next_below(units.len() as u64),
                _ => rng.next_below(8),
            };
            let (unit, len) = units[pick as usize];
            let off = 8 + 4 * rng.next_below((len as u64 - 8) / 4) as u32;
            // The length is asked exactly when a fill needs it.
            let asked = std::cell::Cell::new(0);
            let unit_len = |_: &Heap| {
                asked.set(asked.get() + 1);
                len
            };
            let misses = dc.stats.misses;
            let roll = rng.next_below(100);
            let (got, want) = match roll {
                0..=49 => {
                    let got = dc.read_slot(h, m, &mut run, unit, unit_len, off, Ty::Int);
                    let want = rdc.read_reference(rh, rm, SPE, unit, len, off, Ty::Int);
                    (format!("{got:?}"), format!("{want:?}"))
                }
                50..=93 => {
                    let v = Slot::from_i32(rng.next_u64() as i32);
                    let got = dc.write_slot(h, m, &mut run, unit, unit_len, off, Ty::Int, v);
                    let want = rdc.write_reference(rh, rm, SPE, unit, len, off, Ty::Int, v);
                    (format!("{got:?}"), format!("{want:?}"))
                }
                // Write-backs and purges move the clock by their own
                // DMAs: settle first, re-arm after.
                _ => {
                    m.run_settle(&mut run);
                    let (got, want) = if roll < 99 {
                        (
                            dc.write_back_dirty(h, m, SPE),
                            rdc.write_back_dirty(rh, rm, SPE),
                        )
                    } else {
                        (dc.purge(h, m, SPE), rdc.purge(rh, rm, SPE))
                    };
                    m.run_settle(&mut run);
                    (format!("{got:?}"), format!("{want:?}"))
                }
            };
            assert_eq!(got, want, "{what}: result");
            assert_eq!(
                asked.get(),
                dc.stats.misses - misses,
                "{what}: length asked"
            );
            if roll < 94 && dc.stats.misses == misses {
                open_hits += 1;
                hits_in_open_runs += u64::from(open_hits > 1);
            } else {
                open_hits = 0;
            }
            assert_eq!(dc.stats, rdc.stats, "{what}: stats");
            assert_eq!(dc.export_state(), rdc.export_state(), "{what}: cache");
            assert!(h.raw() == rh.raw(), "{what}: heap bytes");
            let (events, want) = (lane_events(m, lane), lane_events(rm, lane));
            assert_eq!(events[seen_events..], want[seen_events..], "{what}: events");
            seen_events = events.len();

            if rng.next_below(3) == 0 || n + 1 == STEPS {
                m.run_settle(&mut run);
                open_hits = 0;
                assert_eq!(m.now(SPE), rm.now(SPE), "{what}: clock");
                assert_eq!(m.breakdown(SPE), rm.breakdown(SPE), "{what}: breakdown");
                let pending = m.prof_take(lane);
                assert_eq!(pending, rm.prof_take(lane), "{what}: profiler lane");
                profiled += pending.map_or(0, |v| v.total());
                // Draining the lane moved it under the run: re-arm.
                m.run_settle(&mut run);
            }
        }
        let st = dc.stats;
        assert!(st.hits > 300 && st.bypasses > 5, "{what}: {st:?}");
        assert!(st.purges > 0 && st.writebacks > 20, "{what}: {st:?}");
        assert_eq!(
            cell.trace,
            seen_events > STEPS,
            "{what}: {seen_events} events"
        );
        let charged = if cell.profiling {
            m.breakdown(SPE).total_cycles()
        } else {
            0
        };
        assert_eq!(profiled, charged, "{what}: profiled cycles");
        if cell.faults.slowdown_active() && cell.faults.slowdown_from_cycle == MID_STREAM {
            let end = m.now(SPE);
            assert!(end > 4 * MID_STREAM, "{what}: onset late, ended at {end}");
        }
        hits_in_open_runs
    }

    #[test]
    fn import_rejects_a_dirty_span_outside_its_unit() {
        let mut dc = DataCache::new(4 << 10);
        let local = vec![0u8; 4 << 10];
        // A 16-byte unit whose dirty span claims bytes 4..4096.
        let bad = vec![(3, [64, 0, 16, 4, 4096])];
        assert_eq!(
            dc.import_state(16, bad, local.clone(), 0),
            Err("data-cache dirty span outside its unit")
        );
        let wraps = vec![(3, [u32::MAX - 7, 0, 16, 4, 8])];
        assert!(dc.import_state(16, wraps, local.clone(), 0).is_err());
        let huge = vec![(3, [64, 0, u32::MAX, u32::MAX, 0])];
        assert!(dc.import_state(16, huge, local.clone(), 0).is_err());
        // The same unit with its span inside is accepted, as dirty.
        dc.import_state(16, vec![(3, [64, 0, 16, 4, 8])], local, 0)
            .unwrap();
        assert_eq!(
            (dc.occupied.as_slice(), dc.dirty.as_slice()),
            (&[3][..], &[3][..])
        );
    }

    /// A unit cached while all zero leaves no literal in a snapshot, so
    /// the decoded extent ends before it; written after the import it is
    /// a hit, not a fill, so a mark set to the extent alone would have
    /// the write land past it. The mark is `max(bump, extent)`.
    #[test]
    fn import_keeps_the_mark_at_bump_over_a_unit_captured_all_zero() {
        let mut f = fx();
        let arr = f.heap.alloc_array(ElemTy::Byte, 4 << 10).unwrap();
        let (block, len) = (arr.0 + 1024, 1024);
        let mut dc = DataCache::new(4 << 10);
        let (h, m) = (&mut f.heap, &mut f.machine);
        dc.read(h, m, SPE, block, len, 8, Ty::Int).unwrap();
        assert_eq!(dc.written_mark(), 1024);
        let (bump, slots, local) = dc.export_state();
        let local = local.to_vec();
        assert_eq!(nonzero_end(&local), 0, "the unit was captured all zero");
        let mut adopted = DataCache::new(4 << 10);
        adopted.import_state(bump, slots, local, 0).unwrap();
        assert_eq!(adopted.written_mark(), 1024);
        adopted
            .write(h, m, SPE, block, len, 8, Ty::Int, Value::I32(-1))
            .unwrap();
        assert_eq!(adopted.stats.misses, 0, "the write hit the imported unit");
        assert!(adopted.local[adopted.written_mark() as usize..]
            .iter()
            .all(|&b| b == 0));
    }
}

//! Java Memory Model coherence actions for the SPE data cache.
//!
//! The software data cache is not coherent: a thread on an SPE may read
//! a stale copy of an object another core has since modified. The JMM
//! allows exactly this *between* synchronisation actions — values may be
//! cached between lock and unlock — so Hera-JVM restores the required
//! happens-before edges at the synchronisation points themselves
//! (§3.2.1):
//!
//! * **acquire** (monitor enter, volatile read): purge the data cache,
//!   so everything published before the matching release is re-fetched;
//! * **release** (monitor exit, volatile write): write all dirty local
//!   modifications back to main memory, publishing them.
//!
//! With those two actions, "any correctly synchronised multi-threaded
//! application will run correctly under Hera-JVM".

use crate::data_cache::DataCache;
use crate::CacheFault;
use hera_cell::{CellMachine, CoreId};
use hera_mem::Heap;
use hera_trace::{BarrierKind, CostClass, TraceEvent};

/// Apply the acquire-side action: purge (write dirty back, invalidate).
///
/// Used before monitor enter completes and before a volatile read.
pub fn acquire_barrier(
    cache: &mut DataCache,
    heap: &mut Heap,
    machine: &mut CellMachine,
    core: CoreId,
) -> Result<(), CacheFault> {
    machine.emit(
        core,
        TraceEvent::JmmBarrier {
            kind: BarrierKind::Acquire,
        },
    );
    let tok = machine.prof_scope_begin(core, CostClass::JmmBarrier);
    let res = cache.purge(heap, machine, core);
    machine.prof_scope_end(core, tok);
    res
}

/// Apply the release-side action: write dirty data back (copies remain
/// cached, clean).
///
/// Used before monitor exit releases and before a volatile write
/// publishes.
pub fn release_barrier(
    cache: &mut DataCache,
    heap: &mut Heap,
    machine: &mut CellMachine,
    core: CoreId,
) -> Result<(), CacheFault> {
    machine.emit(
        core,
        TraceEvent::JmmBarrier {
            kind: BarrierKind::Release,
        },
    );
    let tok = machine.prof_scope_begin(core, CostClass::JmmBarrier);
    let res = cache.write_back_dirty(heap, machine, core);
    machine.prof_scope_end(core, tok);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_cell::CellConfig;
    use hera_isa::{ProgramBuilder, Slot, Ty, Value};
    use hera_mem::{HeapConfig, ProgramLayout};

    const SPE0: CoreId = CoreId::Spe(0);
    const SPE1: CoreId = CoreId::Spe(1);

    /// Two SPE threads with private caches hand a value across a
    /// release/acquire pair: the reader must observe the writer's store.
    #[test]
    fn release_acquire_transfers_data() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("Box", None);
        let f = b.add_field(c, "v", Ty::Int);
        let p = b.finish().unwrap();
        let layout = ProgramLayout::compute(&p);
        let mut heap = Heap::new(
            HeapConfig {
                size_bytes: 1 << 20,
            },
            layout.statics.size,
        );
        let mut machine = CellMachine::new(CellConfig::default());
        let r = heap.alloc_object(&layout, c).unwrap();
        let size = layout.object_size(c);
        let off = layout.offset_of(f);

        let mut writer = DataCache::new(16 << 10);
        let mut reader = DataCache::new(16 << 10);

        // Reader caches the stale zero first.
        let v = reader
            .read(&mut heap, &mut machine, SPE1, r.0, size, off, Ty::Int)
            .unwrap();
        assert_eq!(v, Value::I32(0));

        // Writer stores locally, then releases.
        writer
            .write(
                &mut heap,
                &mut machine,
                SPE0,
                r.0,
                size,
                off,
                Ty::Int,
                Value::I32(123),
            )
            .unwrap();
        release_barrier(&mut writer, &mut heap, &mut machine, SPE0).unwrap();

        // Without an acquire, the reader may still see the stale value.
        let stale = reader
            .read(&mut heap, &mut machine, SPE1, r.0, size, off, Ty::Int)
            .unwrap();
        assert_eq!(stale, Value::I32(0));

        // After the acquire, it must see 123.
        acquire_barrier(&mut reader, &mut heap, &mut machine, SPE1).unwrap();
        let fresh = reader
            .read(&mut heap, &mut machine, SPE1, r.0, size, off, Ty::Int)
            .unwrap();
        assert_eq!(fresh, Value::I32(123));
    }

    /// Release must not lose writes made by the other side to *other*
    /// fields when the spans do not overlap.
    #[test]
    fn disjoint_field_writes_survive_release() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("Pair", None);
        let fa = b.add_field(c, "a", Ty::Int);
        let fb = b.add_field(c, "b", Ty::Int);
        let p = b.finish().unwrap();
        let layout = ProgramLayout::compute(&p);
        let mut heap = Heap::new(
            HeapConfig {
                size_bytes: 1 << 20,
            },
            layout.statics.size,
        );
        let mut machine = CellMachine::new(CellConfig::default());
        let r = heap.alloc_object(&layout, c).unwrap();
        let size = layout.object_size(c);

        let mut spe0 = DataCache::new(16 << 10);
        // SPE0 caches the object and writes field `a`.
        spe0.write(
            &mut heap,
            &mut machine,
            SPE0,
            r.0,
            size,
            layout.offset_of(fa),
            Ty::Int,
            Value::I32(1),
        )
        .unwrap();
        // Meanwhile the PPE writes field `b` directly to main memory.
        let (a, b) = (r.0 + layout.offset_of(fa), r.0 + layout.offset_of(fb));
        heap.write_typed_slot(b, Ty::Int, Slot::from_i32(2));
        // SPE0 releases: only its dirty span (field a) is written back.
        release_barrier(&mut spe0, &mut heap, &mut machine, SPE0).unwrap();
        assert_eq!(heap.read_typed_slot(a, Ty::Int).i32(), 1);
        assert_eq!(heap.read_typed_slot(b, Ty::Int).i32(), 2);
    }
}

//! Stop-the-world mark-and-sweep collection (the collector core).
//!
//! The paper configures Hera-JVM with "a mark-and-sweep, stop-the-world
//! garbage collector, which only runs on the PPE core". This module is
//! the policy-free core: given the set of roots (thread stacks are
//! scanned by the runtime; statics are scanned here), it marks, sweeps,
//! and rebuilds the free list. The *driver* — stopping threads at
//! safepoints, flushing SPE software caches first, charging PPE cycles —
//! lives in `hera-core::gc_driver`.

use crate::heap::{Heap, HeapKind};
use crate::layout::{ProgramLayout, HEADER_BYTES};
use hera_isa::{ElemTy, ObjRef};
use hera_trace::{GcPhase, TraceEvent, TraceSink};
use std::collections::BTreeSet;

/// Result of one collection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Objects that survived.
    pub live_objects: u64,
    /// Bytes occupied by survivors (headers included).
    pub live_bytes: u64,
    /// Objects reclaimed.
    pub freed_objects: u64,
    /// Bytes reclaimed.
    pub freed_bytes: u64,
    /// Number of root references supplied (statics refs included).
    pub roots: u64,
}

/// The mark-and-sweep collector. Stateless between collections; kept as
/// a struct so the mark stack's allocation is reused across runs.
#[derive(Default)]
pub struct Collector {
    mark_stack: Vec<ObjRef>,
}

impl Collector {
    /// Create a collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Collect the heap. `roots` are the references found in thread
    /// stacks (tagged host-side values, so the scan is exact); statics
    /// are traced internally from the statics block.
    ///
    /// Dirty SPE software caches must have been written back before
    /// calling: a reference held only in a cached copy is invisible to
    /// the trace (see `hera-core::gc_driver`, which enforces this).
    pub fn collect(
        &mut self,
        heap: &mut Heap,
        layout: &ProgramLayout,
        roots: &[ObjRef],
    ) -> GcOutcome {
        let mut outcome = GcOutcome::default();

        // ---- mark ----
        self.mark_stack.clear();
        for &r in roots {
            self.push_root(heap, r, &mut outcome);
        }
        // Statics block references are roots too.
        for &off in &layout.statics.ref_offsets {
            let r = ObjRef(heap.read_u32(Heap::STATICS_BASE + off));
            self.push_root(heap, r, &mut outcome);
        }
        while let Some(r) = self.mark_stack.pop() {
            self.trace(heap, layout, r);
        }

        // ---- sweep ----
        let mut survivors = BTreeSet::new();
        let all: Vec<u32> = heap.object_set().iter().copied().collect();
        for addr in all {
            let r = ObjRef(addr);
            let hdr = heap.header(r);
            if hdr.marked {
                heap.set_marked(r, false);
                survivors.insert(addr);
                outcome.live_objects += 1;
                outcome.live_bytes += hdr.size as u64;
            } else {
                outcome.freed_objects += 1;
                outcome.freed_bytes += hdr.size as u64;
            }
        }
        heap.rebuild_free_list(survivors);
        outcome
    }

    /// [`Collector::collect`], recording the two collector phases into a
    /// trace sink (lane `lane`, virtual time `at` — the driver charges the
    /// collection's cycles, so both phase summaries carry its timestamp).
    pub fn collect_traced(
        &mut self,
        heap: &mut Heap,
        layout: &ProgramLayout,
        roots: &[ObjRef],
        sink: &mut TraceSink,
        lane: usize,
        at: u64,
    ) -> GcOutcome {
        let outcome = self.collect(heap, layout, roots);
        if sink.is_enabled() {
            sink.emit(
                lane,
                at,
                TraceEvent::GcPhaseEnd {
                    phase: GcPhase::Mark,
                    items: outcome.live_objects,
                    bytes: outcome.live_bytes,
                },
            );
            sink.emit(
                lane,
                at,
                TraceEvent::GcPhaseEnd {
                    phase: GcPhase::Sweep,
                    items: outcome.freed_objects,
                    bytes: outcome.freed_bytes,
                },
            );
            sink.metrics.add("gc.collections", 1);
            sink.metrics.add("gc.freed_objects", outcome.freed_objects);
            sink.metrics.add("gc.freed_bytes", outcome.freed_bytes);
            sink.metrics.record("gc.live_bytes", outcome.live_bytes);
        }
        outcome
    }

    fn push_root(&mut self, heap: &mut Heap, r: ObjRef, outcome: &mut GcOutcome) {
        outcome.roots += 1;
        if !r.is_null() && !heap.set_marked(r, true) {
            self.mark_stack.push(r);
        }
    }

    fn trace(&mut self, heap: &mut Heap, layout: &ProgramLayout, r: ObjRef) {
        match heap.header(r).kind {
            HeapKind::Object(class) => {
                // Walk this class's reference-bearing offsets.
                let offsets = layout.classes[class.0 as usize].ref_offsets.clone();
                for off in offsets {
                    let child = ObjRef(heap.read_u32(r.0 + off));
                    if !child.is_null() && !heap.set_marked(child, true) {
                        self.mark_stack.push(child);
                    }
                }
            }
            HeapKind::Array(ElemTy::Ref, len) => {
                for i in 0..len {
                    let child = ObjRef(heap.read_u32(r.0 + HEADER_BYTES + i * 4));
                    if !child.is_null() && !heap.set_marked(child, true) {
                        self.mark_stack.push(child);
                    }
                }
            }
            HeapKind::Array(_, _) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use hera_isa::{ClassId, ProgramBuilder, Slot, Ty};

    struct Fixture {
        heap: Heap,
        layout: ProgramLayout,
        node: ClassId,
        next: hera_isa::FieldId,
        root_static: hera_isa::FieldId,
    }

    fn fixture() -> Fixture {
        let mut b = ProgramBuilder::new();
        let node = b.add_class("Node", None);
        let next = b.add_field(node, "next", Ty::Ref(node));
        b.add_field(node, "payload", Ty::Int);
        let root_static = b.add_static_field(node, "head", Ty::Ref(node));
        let p = b.finish().unwrap();
        let layout = ProgramLayout::compute(&p);
        let heap = Heap::new(HeapConfig { size_bytes: 8192 }, layout.statics.size);
        Fixture {
            heap,
            layout,
            node,
            next,
            root_static,
        }
    }

    #[test]
    fn unreachable_objects_are_swept() {
        let mut f = fixture();
        let a = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let _garbage = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let mut gc = Collector::new();
        let out = gc.collect(&mut f.heap, &f.layout, &[a]);
        assert_eq!(out.live_objects, 1);
        assert_eq!(out.freed_objects, 1);
        assert_eq!(f.heap.object_count(), 1);
    }

    #[test]
    fn reference_chains_are_traced() {
        let mut f = fixture();
        let a = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let b2 = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let c = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let (next, ty) = (f.layout.offset_of(f.next), Ty::Ref(f.node));
        f.heap.write_typed_slot(a.0 + next, ty, Slot::from_ref(b2));
        f.heap.write_typed_slot(b2.0 + next, ty, Slot::from_ref(c));
        let mut gc = Collector::new();
        let out = gc.collect(&mut f.heap, &f.layout, &[a]);
        assert_eq!(out.live_objects, 3);
        assert_eq!(out.freed_objects, 0);
        // Field contents survive the sweep untouched.
        assert_eq!(f.heap.read_typed_slot(a.0 + next, ty).obj(), b2);
    }

    #[test]
    fn statics_are_roots() {
        let mut f = fixture();
        let a = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let head = Heap::STATICS_BASE + f.layout.offset_of(f.root_static);
        f.heap
            .write_typed_slot(head, Ty::Ref(f.node), Slot::from_ref(a));
        let mut gc = Collector::new();
        let out = gc.collect(&mut f.heap, &f.layout, &[]);
        assert_eq!(out.live_objects, 1);
    }

    #[test]
    fn cycles_do_not_loop_and_are_collected_when_unreachable() {
        let mut f = fixture();
        let a = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let b2 = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let (next, ty) = (f.layout.offset_of(f.next), Ty::Ref(f.node));
        f.heap.write_typed_slot(a.0 + next, ty, Slot::from_ref(b2));
        f.heap.write_typed_slot(b2.0 + next, ty, Slot::from_ref(a));
        let mut gc = Collector::new();
        let out = gc.collect(&mut f.heap, &f.layout, &[a]);
        assert_eq!(out.live_objects, 2);
        // Drop the root: the cycle must be reclaimed.
        let out = gc.collect(&mut f.heap, &f.layout, &[]);
        assert_eq!(out.live_objects, 0);
        assert_eq!(out.freed_objects, 2);
    }

    #[test]
    fn ref_arrays_are_traced() {
        let mut f = fixture();
        let arr = f.heap.alloc_array(ElemTy::Ref, 4).unwrap();
        let a = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let (at, _) = f.heap.elem_addr(arr, 2).unwrap();
        f.heap
            .write_typed_slot(at, Ty::Ref(f.node), Slot::from_ref(a));
        let mut gc = Collector::new();
        let out = gc.collect(&mut f.heap, &f.layout, &[arr]);
        assert_eq!(out.live_objects, 2);
    }

    #[test]
    fn primitive_arrays_are_leaves() {
        let mut f = fixture();
        let arr = f.heap.alloc_array(ElemTy::Int, 64).unwrap();
        // Write values that would look like addresses if misinterpreted.
        let victim = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let (at, _) = f.heap.elem_addr(arr, 0).unwrap();
        f.heap
            .write_typed_slot(at, Ty::Int, Slot::from_i32(victim.0 as i32));
        let mut gc = Collector::new();
        let out = gc.collect(&mut f.heap, &f.layout, &[arr]);
        // The int that happens to equal victim's address must not keep it alive.
        assert_eq!(out.live_objects, 1);
        assert_eq!(out.freed_objects, 1);
    }

    #[test]
    fn freed_space_is_reusable_and_coalesced() {
        let mut f = fixture();
        let keep = f.heap.alloc_object(&f.layout, f.node).unwrap();
        for _ in 0..100 {
            f.heap.alloc_object(&f.layout, f.node).unwrap();
        }
        let before_free = f.heap.free_bytes();
        let mut gc = Collector::new();
        gc.collect(&mut f.heap, &f.layout, &[keep]);
        assert!(f.heap.free_bytes() > before_free);
        // Large allocation must fit in the coalesced space.
        assert!(f.heap.alloc_array(ElemTy::Byte, 1500).is_some());
    }

    #[test]
    fn collect_with_duplicate_roots_is_idempotent() {
        let mut f = fixture();
        let a = f.heap.alloc_object(&f.layout, f.node).unwrap();
        let mut gc = Collector::new();
        let out = gc.collect(&mut f.heap, &f.layout, &[a, a, a]);
        assert_eq!(out.live_objects, 1);
        // Mark bits were reset: a second collection sees the same world.
        let out2 = gc.collect(&mut f.heap, &f.layout, &[a]);
        assert_eq!(out2.live_objects, 1);
    }
}

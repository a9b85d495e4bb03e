//! Unit costs (group C): tight loops over one public function each,
//! best of five repetitions. Multiplied by the exact counts of group D
//! they give the reconciliation of group E.

use crate::cells::Size;
use hera_cell::{CellConfig, CellMachine, CoreId, CoreKind, Eib, ExecOp, HwCache, HwCacheParams};
use hera_isa::{ElemTy, Program, ProgramBuilder, Ty, Value};
use hera_mem::{Collector, Heap, HeapConfig, ProgramLayout};
use hera_prof::{KindLane, Profiler};
use hera_snap::SnapWriter;
use hera_softcache::{CodeCache, DataCache};
use hera_trace::{CostClass, CostVec, TraceEvent, TraceSink};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Best-of-[`REPS`] nanoseconds per call of `f`, called `calls` times
/// back to back with the call index.
fn per_call_ns(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        for i in 0..calls {
            f(i);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}

/// Best-of-[`REPS`] nanoseconds of one `f(state)`, with `setup` rebuilt
/// (untimed) before every repetition.
fn per_rep_ns<S, R>(mut setup: impl FnMut() -> S, mut f: impl FnMut(&mut S) -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut state = setup();
        let t = Instant::now();
        black_box(f(&mut state));
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

const SPE0: CoreId = CoreId::Spe(0);

/// A heap holding `n` one-field objects and `n` 1 KB int arrays, with
/// everything the software data cache needs to address them.
struct CacheFixture {
    heap: Heap,
    machine: CellMachine,
    objects: Vec<(u32, u32)>,
    arrays: Vec<(u32, u32)>,
}

fn small_program() -> (Program, hera_isa::ClassId) {
    let mut pb = ProgramBuilder::new();
    let class = pb.add_class("C", None);
    pb.add_field(class, "x", Ty::Int);
    (pb.finish().expect("resolves"), class)
}

fn cache_fixture(n: usize) -> CacheFixture {
    let (program, class) = small_program();
    let layout = ProgramLayout::compute(&program);
    let mut heap = Heap::new(
        HeapConfig {
            size_bytes: 4 << 20,
        },
        layout.statics.size,
    );
    let size = layout.object_size(class);
    let objects = (0..n)
        .map(|_| (heap.alloc_object(&layout, class).expect("fits").0, size))
        .collect();
    let arrays = (0..n)
        .map(|_| {
            let r = heap.alloc_array(ElemTy::Int, 254).expect("fits");
            (r.0, hera_mem::heap::array_byte_size(ElemTy::Int, 254))
        })
        .collect();
    CacheFixture {
        heap,
        machine: CellMachine::new(CellConfig::default()),
        objects,
        arrays,
    }
}

/// Every group C metric, as `(name, value)`.
pub fn unit_costs(size: Size) -> Vec<(&'static str, f64)> {
    let calls: u64 = match size {
        Size::Full => 1_000_000,
        Size::Smoke => 2_000,
    };
    let dcap = CellConfig::default().partition.data_cache_bytes;
    let ccap = CellConfig::default().partition.code_cache_bytes;
    let mut out = Vec::new();

    // ---- cell ----
    const OPS: [ExecOp; 4] = [
        ExecOp::IntAlu,
        ExecOp::FloatMul,
        ExecOp::StackOp,
        ExecOp::LocalAccess,
    ];
    for (name, core) in [
        ("cell.exec_ns.ppe", CoreId::Ppe),
        ("cell.exec_ns.spe", SPE0),
    ] {
        let mut m = CellMachine::new(CellConfig::default());
        out.push((
            name,
            per_call_ns(calls, |i| m.exec(core, OPS[(i & 3) as usize])),
        ));
    }
    let mut hw = HwCache::new(HwCacheParams::default());
    out.push((
        "cell.hwcache_hit_ns",
        per_call_ns(calls, |i| {
            black_box(hw.access(((i & 63) * 128) as u32, 4));
        }),
    ));
    // A stride far past the 512 KB L2 never finds its line again.
    out.push((
        "cell.hwcache_miss_ns",
        per_call_ns(calls, |i| {
            black_box(hw.access((i as u32).wrapping_mul(128 * 4099), 4));
        }),
    ));
    let mut m = CellMachine::new(CellConfig::default());
    out.push((
        "cell.dma_ns",
        per_call_ns(calls, |_| {
            black_box(m.dma(SPE0, 1024).expect("no faults armed"));
        }),
    ));
    let mut eib = Eib::new();
    out.push((
        "cell.eib_request_ns",
        per_call_ns(calls, |i| {
            let now = i * 100;
            black_box(eib.request(now, 64, 1024));
            if i & 0xfff == 0 {
                eib.retire(now);
            }
        }),
    ));

    // ---- softcache ----
    let n = 256;
    let mut fx = cache_fixture(n);
    let mut dc = DataCache::new(dcap);
    let (addr, len) = fx.objects[0];
    out.push((
        "softcache.data_hit_ns",
        per_call_ns(calls, |_| {
            black_box(
                dc.read(&mut fx.heap, &mut fx.machine, SPE0, addr, len, 8, Ty::Int)
                    .expect("reads"),
            );
        }),
    ));
    out.push((
        "softcache.data_write_ns",
        per_call_ns(calls, |i| {
            dc.write(
                &mut fx.heap,
                &mut fx.machine,
                SPE0,
                addr,
                len,
                8,
                Ty::Int,
                Value::I32(i as i32),
            )
            .expect("writes");
        }),
    ));
    // 256 KB of 1 KB units cycling through a 104 KB cache: the unit
    // wanted next was always evicted by the fill-purge before it.
    let mut dc = DataCache::new(dcap);
    out.push((
        "softcache.data_miss_ns",
        per_call_ns(calls / 10, |i| {
            let (addr, len) = fx.arrays[i as usize % n];
            black_box(
                dc.read(&mut fx.heap, &mut fx.machine, SPE0, addr, len, 8, Ty::Int)
                    .expect("reads"),
            );
        }),
    ));
    // Purge and write-back of a cache holding 64 dirty objects.
    let dirty = |fx: &mut CacheFixture| {
        let mut dc = DataCache::new(dcap);
        for &(addr, len) in &fx.objects[..64] {
            dc.write(
                &mut fx.heap,
                &mut fx.machine,
                SPE0,
                addr,
                len,
                8,
                Ty::Int,
                Value::I32(1),
            )
            .expect("writes");
        }
        dc
    };
    let mut best = [f64::INFINITY; 2];
    for _ in 0..REPS * 4 {
        for (slot, purge) in [(0, false), (1, true)] {
            let mut dc = dirty(&mut fx);
            let t = Instant::now();
            if purge {
                dc.purge(&mut fx.heap, &mut fx.machine, SPE0)
            } else {
                dc.write_back_dirty(&mut fx.heap, &mut fx.machine, SPE0)
            }
            .expect("no faults armed");
            best[slot] = best[slot].min(t.elapsed().as_nanos() as f64);
        }
    }
    out.push(("softcache.writeback_us", best[0] / 1e3));
    out.push(("softcache.purge_us", best[1] / 1e3));
    let mut cc = CodeCache::new(ccap);
    out.push((
        "softcache.code_lookup_ns",
        per_call_ns(calls, |_| {
            cc.lookup(
                &mut fx.machine,
                SPE0,
                hera_isa::ClassId(0),
                64,
                hera_isa::MethodId(0),
                512,
            )
            .expect("no faults armed");
        }),
    ));

    // ---- mem ----
    let slot = hera_isa::Slot::from_value(Value::I32(7));
    out.push((
        "mem.heap_slot_rw_ns",
        per_call_ns(calls, |i| {
            let at = fx.objects[i as usize % n].0 + 8;
            fx.heap.write_typed_slot(at, Ty::Int, slot);
            black_box(fx.heap.read_typed_slot(at, Ty::Int));
        }),
    ));
    let (program, class) = small_program();
    let layout = ProgramLayout::compute(&program);
    let big_heap = || Heap::new(HeapConfig::default(), layout.statics.size);
    let allocs = calls.min(1_000_000);
    out.push((
        "mem.alloc_ns",
        per_rep_ns(big_heap, |heap| {
            for _ in 0..allocs {
                black_box(heap.alloc_object(&layout, class));
            }
        }) / allocs as f64,
    ));
    // One collection of a heap holding 10 000 unreachable objects.
    let garbage = (calls / 100).max(100);
    out.push((
        "mem.gc_collect_us",
        per_rep_ns(
            || {
                let mut heap = big_heap();
                for _ in 0..garbage {
                    heap.alloc_object(&layout, class);
                }
                heap
            },
            |heap| Collector::new().collect(heap, &layout, &[]),
        ) / 1e3,
    ));

    // ---- observers ----
    out.push((
        "trace.emit_ns",
        per_rep_ns(
            || TraceSink::with_lanes(["spe0"]),
            |sink| {
                for i in 0..calls {
                    sink.emit(0, i, TraceEvent::DataCacheHit { addr: i as u32 });
                }
            },
        ) / calls as f64,
    ));
    let mut cost = CostVec::ZERO;
    cost.add(CostClass::Compute, 12);
    let mut prof = Profiler::new();
    out.push((
        "prof.enter_bill_leave_ns",
        per_call_ns(calls, |i| {
            prof.enter(0, (i & 15) as u32);
            prof.bill(0, KindLane::Spe, &cost);
            prof.leave(0);
        }),
    ));

    // ---- snap ----
    // A heap-like image: zero runs broken by an occasional literal word.
    let mb = (calls as usize * 8).clamp(64 << 10, 8 << 20);
    let mut image = vec![0u8; mb];
    for i in (0..mb).step_by(4096) {
        image[i..i + 8].copy_from_slice(&(i as u64 | 1).to_le_bytes());
    }
    let mb_per_s = |ns: f64| mb as f64 / (1 << 20) as f64 / (ns / 1e9);
    out.push((
        "snap.crc32_mb_per_s",
        mb_per_s(per_rep_ns(|| (), |_| hera_snap::crc32(&image))),
    ));
    out.push((
        "snap.rle_mb_per_s",
        mb_per_s(per_rep_ns(SnapWriter::new, |w| {
            hera_snap::rle_encode(w, &image)
        })),
    ));
    out
}

/// `compile_method` over every bytecode method of `programs` for both
/// core kinds: `(best total nanoseconds, machine ops produced)`.
pub fn jit_cost(programs: &[&Program]) -> (f64, u64) {
    let mut ops = 0u64;
    let ns = per_rep_ns(
        || (),
        |_| {
            ops = 0;
            for &p in programs {
                let layout = ProgramLayout::compute(p);
                for (i, m) in p.methods.iter().enumerate() {
                    if m.code().is_none() {
                        continue;
                    }
                    for kind in [CoreKind::Ppe, CoreKind::Spe] {
                        let compiled = hera_jit::compile_method(
                            p,
                            &layout,
                            hera_isa::MethodId(i as u32),
                            kind,
                        )
                        .expect("benchmark programs compile");
                        ops += compiled.ops.len() as u64;
                    }
                }
            }
        },
    );
    (ns, ops)
}

/// `World::new` + `checkpoint_now` on the VM-default heap: what one
/// snapshot encode costs before any guest work has dirtied the image.
pub fn fresh_encode_ns(program: &Program) -> f64 {
    per_rep_ns(
        || (),
        |_| {
            hera_core::world::World::new(program, hera_core::VmConfig::pinned_spe(6))
                .checkpoint_now()
                .len()
        },
    )
}

/// `traffic::generate`, nanoseconds per request.
pub fn traffic_gen_ns_per_req(requests: u64) -> f64 {
    per_rep_ns(
        || (),
        |_| {
            hera_cluster::generate(
                42,
                requests,
                1_000,
                hera_cluster::ArrivalShape::Exponential,
                &[1, 1, 1],
            )
            .len()
        },
    ) / requests as f64
}

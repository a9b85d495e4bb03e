//! The untagged-slot value representation: `Slot` ↔ `Value` round-trips
//! at the API boundary, frame-arena growth under deep recursion, and
//! argument repackaging across a migration (the one place mid-execution
//! where slots are retagged into `Value`s and back).

#![forbid(unsafe_code)]

use hera_core::{PlacementPolicy, VmConfig};
use hera_frontend::*;
use hera_integration::{run_both, run_program};
use hera_isa::{Annotation, Kind, ObjRef, ProgramBuilder, Slot, Ty, Value};

#[test]
fn slot_round_trips_every_kind() {
    // i32: sign must survive the 64-bit cell (stored sign-extended).
    for v in [0i32, 1, -1, i32::MIN, i32::MAX, 0x5aa5_55aa_u32 as i32] {
        let s = Slot::from_i32(v);
        assert_eq!(s.i32(), v);
        assert_eq!(s.to_value(Kind::I), Value::I32(v));
        assert_eq!(Slot::from_value(Value::I32(v)).i32(), v);
    }
    // i64: full width.
    for v in [0i64, -1, i64::MIN, i64::MAX, 0x0123_4567_89ab_cdef] {
        let s = Slot::from_i64(v);
        assert_eq!(s.i64(), v);
        assert_eq!(s.to_value(Kind::L), Value::I64(v));
    }
    // f32/f64: bit patterns, not numeric values, must survive — NaN
    // payloads included.
    for v in [
        0.0f32,
        -0.0,
        1.5,
        f32::INFINITY,
        f32::from_bits(0x7fc0_1234),
    ] {
        let s = Slot::from_f32(v);
        assert_eq!(s.f32().to_bits(), v.to_bits());
        match s.to_value(Kind::F) {
            Value::F32(x) => assert_eq!(x.to_bits(), v.to_bits()),
            other => panic!("expected F32, got {other:?}"),
        }
    }
    for v in [
        0.0f64,
        -2.25,
        f64::NEG_INFINITY,
        f64::from_bits(0x7ff8_dead_beef_0001),
    ] {
        let s = Slot::from_f64(v);
        assert_eq!(s.f64().to_bits(), v.to_bits());
        match s.to_value(Kind::D) {
            Value::F64(x) => assert_eq!(x.to_bits(), v.to_bits()),
            other => panic!("expected F64, got {other:?}"),
        }
    }
    // refs: null and non-null.
    for r in [ObjRef::NULL, ObjRef(8), ObjRef(u32::MAX)] {
        let s = Slot::from_ref(r);
        assert_eq!(s.obj(), r);
        assert_eq!(s.to_value(Kind::R), Value::Ref(r));
    }
    // The all-zero cell is the default of every kind (frame-local
    // zeroing relies on this).
    assert_eq!(Slot::ZERO.i32(), 0);
    assert_eq!(Slot::ZERO.i64(), 0);
    assert_eq!(Slot::ZERO.f64().to_bits(), 0);
    assert!(Slot::ZERO.obj().is_null());
}

/// A one-class program with a single static `main`.
fn main_program(pb: ProgramBuilder) -> hera_isa::Program {
    pb.finish_with_entry("Main", "main").expect("resolves")
}

#[test]
fn deep_recursion_grows_the_frame_arena() {
    // sum(n) = n + sum(n-1): ~800 live frames at peak, far past any
    // initial arena size, with every frame's locals adjacent in one
    // allocation. Both core kinds must agree.
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let sum = declare_static(&mut pb, c, "sum", vec![("n", Ty::Int)], Some(Ty::Int));
    define(
        &mut pb,
        sum,
        vec![("n", Ty::Int)],
        vec![
            Stmt::ret_if(cmp_le(local("n"), i32c(0)), i32c(0)),
            Stmt::Return(Some(add(
                local("n"),
                call(sum, vec![sub(local("n"), i32c(1))]),
            ))),
        ],
    )
    .expect("sum compiles");
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![Stmt::Return(Some(call(sum, vec![i32c(800)])))],
    )
    .expect("main compiles");
    let program = main_program(pb);

    let (ppe, spe) = run_both(program, 1);
    assert!(ppe.is_clean() && spe.is_clean());
    assert_eq!(ppe.result, Some(Value::I32(800 * 801 / 2)));
    assert_eq!(spe.result, ppe.result);
}

#[test]
fn recursion_past_the_depth_limit_traps_cleanly() {
    // Unbounded recursion must surface as a trap (thread killed, frames
    // and arena reclaimed), not a host stack overflow or a panic.
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let spin = declare_static(&mut pb, c, "spin", vec![("n", Ty::Int)], Some(Ty::Int));
    define(
        &mut pb,
        spin,
        vec![("n", Ty::Int)],
        vec![Stmt::Return(Some(call(
            spin,
            vec![add(local("n"), i32c(1))],
        )))],
    )
    .expect("spin compiles");
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![Stmt::Return(Some(call(spin, vec![i32c(0)])))],
    )
    .expect("main compiles");
    let out = run_program(main_program(pb), VmConfig::pinned_ppe());
    assert!(!out.is_clean(), "runaway recursion must trap");
    assert_eq!(out.result, None);
}

#[test]
fn migration_repackages_mixed_kind_arguments() {
    // An annotated method with one argument of each slot-relevant kind.
    // Annotation migration pops the untagged slots, retags them into
    // `Value`s from the callee signature, ships them to the other core,
    // and unpacks them into the fresh frame there — every bit must
    // survive the double conversion, including the f32 kept in the low
    // half of its slot.
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("Main", None);
    let hot = declare_static(
        &mut pb,
        c,
        "hot",
        vec![
            ("n", Ty::Int),
            ("x", Ty::Float),
            ("d", Ty::Double),
            ("l", Ty::Long),
        ],
        Some(Ty::Int),
    );
    pb.annotate(hot, Annotation::FloatIntensive);
    define(
        &mut pb,
        hot,
        vec![
            ("n", Ty::Int),
            ("x", Ty::Float),
            ("d", Ty::Double),
            ("l", Ty::Long),
        ],
        vec![
            Stmt::Let("acc".into(), local("x")),
            for_range(
                "i",
                i32c(0),
                local("n"),
                vec![Stmt::Assign(
                    "acc".into(),
                    add(mul(local("acc"), f32c(1.0001)), f32c(0.5)),
                )],
            ),
            Stmt::Return(Some(add(
                add(cast(Ty::Int, local("acc")), cast(Ty::Int, local("d"))),
                cast(Ty::Int, local("l")),
            ))),
        ],
    )
    .expect("hot compiles");
    let main = declare_static(&mut pb, c, "main", vec![], Some(Ty::Int));
    define(
        &mut pb,
        main,
        vec![],
        vec![Stmt::Return(Some(call(
            hot,
            vec![i32c(1_000), f32c(2.5), f64c(-7.75), i64c(123_456)],
        )))],
    )
    .expect("main compiles");
    let program = main_program(pb);

    let cfg = VmConfig {
        policy: PlacementPolicy::Annotation,
        ..VmConfig::default()
    };
    let migrated = run_program(program.clone(), cfg);
    assert!(migrated.is_clean());
    // One round trip: out at the annotated invoke, back at the marker.
    assert_eq!(migrated.stats.migrations, 2);

    // The pinned run never repackages — identical result required.
    let pinned = run_program(program, VmConfig::pinned_ppe());
    assert!(pinned.is_clean());
    assert_eq!(migrated.result, pinned.result);
    assert!(migrated.result.is_some());
}

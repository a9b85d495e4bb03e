//! Guest value and type vocabulary shared by every crate in the
//! workspace: runtime [`Value`]s, static [`Ty`]pes, array element types
//! and verification [`Kind`]s.

use crate::program::ClassId;
use std::fmt;

/// A reference into the guest heap.
///
/// `ObjRef(0)` is the null reference. Non-null values are byte offsets
/// into the main-memory heap (see `hera-mem`), which makes DMA transfers
/// of object byte ranges straightforward to model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ObjRef(pub u32);

impl ObjRef {
    /// The null reference.
    pub const NULL: ObjRef = ObjRef(0);

    /// Whether this reference is null.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The heap address this reference designates.
    #[inline]
    pub fn addr(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "null")
        } else {
            write!(f, "@{:#x}", self.0)
        }
    }
}

/// A tagged guest value, as held in operand stacks and local variables.
///
/// Thread stacks live in host memory (as in JikesRVM's threads, whose
/// stacks the runtime itself manages), so values stay tagged and GC root
/// scanning is exact without separate reference maps.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    /// 32-bit integer (also carries guest byte/short/boolean values).
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 32-bit IEEE float.
    F32(f32),
    /// 64-bit IEEE float.
    F64(f64),
    /// Heap reference (possibly null).
    Ref(ObjRef),
}

impl Value {
    /// The verification kind of this value.
    pub fn kind(self) -> Kind {
        match self {
            Value::I32(_) => Kind::I,
            Value::I64(_) => Kind::L,
            Value::F32(_) => Kind::F,
            Value::F64(_) => Kind::D,
            Value::Ref(_) => Kind::R,
        }
    }

    /// Extract an `i32`, panicking on kind mismatch.
    ///
    /// Verified bytecode guarantees the kinds match; the panic encodes a
    /// verifier bug, not a guest-program bug.
    #[inline]
    pub fn as_i32(self) -> i32 {
        match self {
            Value::I32(v) => v,
            other => panic!("value kind mismatch: expected i32, got {other:?}"),
        }
    }

    /// Extract an `i64`, panicking on kind mismatch.
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I64(v) => v,
            other => panic!("value kind mismatch: expected i64, got {other:?}"),
        }
    }

    /// Extract an `f32`, panicking on kind mismatch.
    #[inline]
    pub fn as_f32(self) -> f32 {
        match self {
            Value::F32(v) => v,
            other => panic!("value kind mismatch: expected f32, got {other:?}"),
        }
    }

    /// Extract an `f64`, panicking on kind mismatch.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::F64(v) => v,
            other => panic!("value kind mismatch: expected f64, got {other:?}"),
        }
    }

    /// Extract a reference, panicking on kind mismatch.
    #[inline]
    pub fn as_ref(self) -> ObjRef {
        match self {
            Value::Ref(v) => v,
            other => panic!("value kind mismatch: expected ref, got {other:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}i32"),
            Value::I64(v) => write!(f, "{v}i64"),
            Value::F32(v) => write!(f, "{v}f32"),
            Value::F64(v) => write!(f, "{v}f64"),
            Value::Ref(r) => write!(f, "{r}"),
        }
    }
}

/// An untagged 64-bit execution cell: the representation locals and
/// operand-stack entries take inside interpreter frames.
///
/// A `Slot` carries no runtime tag. The verifier proves a static kind
/// for every local and stack position at every instruction, and the
/// per-core compilers emit fully width-resolved [`MachineOp`]s, so the
/// interpreter always knows which accessor is correct — exactly the
/// discipline a baseline JIT's spill slots rely on. [`Value`] survives
/// only at API boundaries (entry arguments, return values, migration
/// repackaging, the native bridge, trace events); everything on the hot
/// path moves `Slot`s.
///
/// Bit conventions: `i32` is kept sign-extended, floats are stored as
/// their IEEE bit patterns, references as the zero-extended heap
/// address. The all-zero slot is therefore the correct default for
/// *every* kind (`0`, `0i64`, `+0.0f32`, `+0.0f64`, null).
///
/// [`MachineOp`]: ../hera_jit/enum.MachineOp.html
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Slot(u64);

impl Slot {
    /// The all-zero slot: default value for every kind.
    pub const ZERO: Slot = Slot(0);

    /// Wrap a raw 64-bit cell (for codec paths that already hold bits).
    #[inline(always)]
    pub fn from_raw(bits: u64) -> Slot {
        Slot(bits)
    }

    /// The raw 64-bit cell.
    #[inline(always)]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Store an `i32` (sign-extended).
    #[inline(always)]
    pub fn from_i32(v: i32) -> Slot {
        Slot(v as i64 as u64)
    }

    /// Read back an `i32` (truncating).
    #[inline(always)]
    pub fn i32(self) -> i32 {
        self.0 as i32
    }

    /// Store an `i64`.
    #[inline(always)]
    pub fn from_i64(v: i64) -> Slot {
        Slot(v as u64)
    }

    /// Read back an `i64`.
    #[inline(always)]
    pub fn i64(self) -> i64 {
        self.0 as i64
    }

    /// Store an `f32` as its IEEE bit pattern.
    #[inline(always)]
    pub fn from_f32(v: f32) -> Slot {
        Slot(v.to_bits() as u64)
    }

    /// Read back an `f32` from its IEEE bit pattern.
    #[inline(always)]
    pub fn f32(self) -> f32 {
        f32::from_bits(self.0 as u32)
    }

    /// Store an `f64` as its IEEE bit pattern.
    #[inline(always)]
    pub fn from_f64(v: f64) -> Slot {
        Slot(v.to_bits())
    }

    /// Read back an `f64` from its IEEE bit pattern.
    #[inline(always)]
    pub fn f64(self) -> f64 {
        f64::from_bits(self.0)
    }

    /// Store a heap reference (zero-extended address).
    #[inline(always)]
    pub fn from_ref(r: ObjRef) -> Slot {
        Slot(r.0 as u64)
    }

    /// Read back a heap reference.
    #[inline(always)]
    pub fn obj(self) -> ObjRef {
        ObjRef(self.0 as u32)
    }

    /// Lower a tagged value at an API boundary.
    #[inline]
    pub fn from_value(v: Value) -> Slot {
        match v {
            Value::I32(v) => Slot::from_i32(v),
            Value::I64(v) => Slot::from_i64(v),
            Value::F32(v) => Slot::from_f32(v),
            Value::F64(v) => Slot::from_f64(v),
            Value::Ref(r) => Slot::from_ref(r),
        }
    }

    /// Re-tag at an API boundary; the kind comes from a signature or a
    /// verifier map, never from the bits themselves.
    #[inline]
    pub fn to_value(self, kind: Kind) -> Value {
        match kind {
            Kind::I => Value::I32(self.i32()),
            Kind::L => Value::I64(self.i64()),
            Kind::F => Value::F32(self.f32()),
            Kind::D => Value::F64(self.f64()),
            Kind::R => Value::Ref(self.obj()),
        }
    }
}

impl From<Value> for Slot {
    #[inline]
    fn from(v: Value) -> Slot {
        Slot::from_value(v)
    }
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Slot({:#018x})", self.0)
    }
}

/// A static guest type, as used in field and method signatures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Ty {
    /// 8-bit signed integer (stored in 1 byte, widened to `I32` on load).
    Byte,
    /// 16-bit signed integer (stored in 2 bytes, widened to `I32`).
    Short,
    /// 32-bit signed integer.
    Int,
    /// 64-bit signed integer.
    Long,
    /// 32-bit IEEE float.
    Float,
    /// 64-bit IEEE float.
    Double,
    /// Reference to an instance of the named class (or a subclass).
    Ref(ClassId),
    /// Reference to an array with the given element type.
    Array(ElemTy),
}

impl Ty {
    /// Byte width of this type in object field layout.
    pub fn field_size(self) -> u32 {
        match self {
            Ty::Byte => 1,
            Ty::Short => 2,
            Ty::Int | Ty::Float | Ty::Ref(_) | Ty::Array(_) => 4,
            Ty::Long | Ty::Double => 8,
        }
    }

    /// The verification kind of values of this type.
    pub fn kind(self) -> Kind {
        match self {
            Ty::Byte | Ty::Short | Ty::Int => Kind::I,
            Ty::Long => Kind::L,
            Ty::Float => Kind::F,
            Ty::Double => Kind::D,
            Ty::Ref(_) | Ty::Array(_) => Kind::R,
        }
    }

    /// Whether this type is a heap reference (object or array).
    pub fn is_ref(self) -> bool {
        matches!(self, Ty::Ref(_) | Ty::Array(_))
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Byte => write!(f, "byte"),
            Ty::Short => write!(f, "short"),
            Ty::Int => write!(f, "int"),
            Ty::Long => write!(f, "long"),
            Ty::Float => write!(f, "float"),
            Ty::Double => write!(f, "double"),
            Ty::Ref(c) => write!(f, "ref#{}", c.0),
            Ty::Array(e) => write!(f, "{e}[]"),
        }
    }
}

/// Array element types.
///
/// Nested arrays are arrays of [`ElemTy::Ref`]; the reference elements
/// point at the inner array objects, mirroring how the JVM represents
/// `int[][]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ElemTy {
    /// 1-byte elements.
    Byte,
    /// 2-byte elements.
    Short,
    /// 4-byte integer elements.
    Int,
    /// 8-byte integer elements.
    Long,
    /// 4-byte float elements.
    Float,
    /// 8-byte float elements.
    Double,
    /// 4-byte reference elements.
    Ref,
}

impl ElemTy {
    /// Byte width of one element.
    pub fn size(self) -> u32 {
        match self {
            ElemTy::Byte => 1,
            ElemTy::Short => 2,
            ElemTy::Int | ElemTy::Float | ElemTy::Ref => 4,
            ElemTy::Long | ElemTy::Double => 8,
        }
    }

    /// The verification kind of loaded elements.
    pub fn kind(self) -> Kind {
        match self {
            ElemTy::Byte | ElemTy::Short | ElemTy::Int => Kind::I,
            ElemTy::Long => Kind::L,
            ElemTy::Float => Kind::F,
            ElemTy::Double => Kind::D,
            ElemTy::Ref => Kind::R,
        }
    }
}

impl fmt::Display for ElemTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElemTy::Byte => write!(f, "byte"),
            ElemTy::Short => write!(f, "short"),
            ElemTy::Int => write!(f, "int"),
            ElemTy::Long => write!(f, "long"),
            ElemTy::Float => write!(f, "float"),
            ElemTy::Double => write!(f, "double"),
            ElemTy::Ref => write!(f, "ref"),
        }
    }
}

/// Verification kinds: the abstract stack-value categories the verifier
/// tracks. Reference types are verified class-insensitively (all refs
/// merge to `R`), which is sound for memory safety because the runtime's
/// object model validates field offsets against the dynamic class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kind {
    /// 32-bit integer.
    I,
    /// 64-bit integer.
    L,
    /// 32-bit float.
    F,
    /// 64-bit float.
    D,
    /// Reference.
    R,
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Kind::I => 'I',
            Kind::L => 'L',
            Kind::F => 'F',
            Kind::D => 'D',
            Kind::R => 'R',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_ref_properties() {
        assert!(ObjRef::NULL.is_null());
        assert!(!ObjRef(16).is_null());
        assert_eq!(ObjRef(16).addr(), 16);
        assert_eq!(format!("{}", ObjRef::NULL), "null");
        assert_eq!(format!("{}", ObjRef(0x20)), "@0x20");
    }

    #[test]
    fn value_kinds() {
        assert_eq!(Value::I32(1).kind(), Kind::I);
        assert_eq!(Value::I64(1).kind(), Kind::L);
        assert_eq!(Value::F32(1.0).kind(), Kind::F);
        assert_eq!(Value::F64(1.0).kind(), Kind::D);
        assert_eq!(Value::Ref(ObjRef::NULL).kind(), Kind::R);
    }

    #[test]
    fn value_accessors_roundtrip() {
        assert_eq!(Value::I32(-7).as_i32(), -7);
        assert_eq!(Value::I64(1 << 40).as_i64(), 1 << 40);
        assert_eq!(Value::F32(2.5).as_f32(), 2.5);
        assert_eq!(Value::F64(-0.125).as_f64(), -0.125);
        assert_eq!(Value::Ref(ObjRef(8)).as_ref(), ObjRef(8));
    }

    #[test]
    #[should_panic(expected = "value kind mismatch")]
    fn value_accessor_mismatch_panics() {
        let _ = Value::I32(1).as_f64();
    }

    #[test]
    fn default_values_are_zero() {
        // Every accessor of the all-zero slot reads zero, floats as +0.0.
        assert_eq!(Slot::ZERO.i32(), 0);
        assert_eq!(Slot::ZERO.i64(), 0);
        assert_eq!(Slot::ZERO.f32().to_bits(), 0.0f32.to_bits());
        assert_eq!(Slot::ZERO.f64().to_bits(), 0.0f64.to_bits());
        assert_eq!(Slot::ZERO.obj(), ObjRef::NULL);
    }

    #[test]
    fn field_sizes() {
        assert_eq!(Ty::Byte.field_size(), 1);
        assert_eq!(Ty::Short.field_size(), 2);
        assert_eq!(Ty::Int.field_size(), 4);
        assert_eq!(Ty::Float.field_size(), 4);
        assert_eq!(Ty::Long.field_size(), 8);
        assert_eq!(Ty::Double.field_size(), 8);
        assert_eq!(Ty::Array(ElemTy::Double).field_size(), 4);
    }

    #[test]
    fn elem_sizes_and_kinds() {
        assert_eq!(ElemTy::Byte.size(), 1);
        assert_eq!(ElemTy::Short.size(), 2);
        assert_eq!(ElemTy::Long.size(), 8);
        assert_eq!(ElemTy::Ref.size(), 4);
        assert_eq!(ElemTy::Byte.kind(), Kind::I);
        assert_eq!(ElemTy::Double.kind(), Kind::D);
        assert_eq!(ElemTy::Ref.kind(), Kind::R);
    }

    #[test]
    fn slot_roundtrips_every_kind() {
        assert_eq!(Slot::from_i32(-7).i32(), -7);
        assert_eq!(Slot::from_i32(i32::MIN).i32(), i32::MIN);
        assert_eq!(Slot::from_i64(-(1i64 << 40)).i64(), -(1i64 << 40));
        assert_eq!(Slot::from_f32(2.5).f32(), 2.5);
        assert!(Slot::from_f32(f32::NAN).f32().is_nan());
        assert_eq!(Slot::from_f64(-0.125).f64(), -0.125);
        assert_eq!(Slot::from_ref(ObjRef(8)).obj(), ObjRef(8));
        assert_eq!(Slot::ZERO.obj(), ObjRef::NULL);
    }

    #[test]
    fn slot_value_boundary_conversions() {
        for (v, k) in [
            (Value::I32(-3), Kind::I),
            (Value::I64(1 << 40), Kind::L),
            (Value::F32(1.5), Kind::F),
            (Value::F64(-2.25), Kind::D),
            (Value::Ref(ObjRef(16)), Kind::R),
        ] {
            assert_eq!(Slot::from_value(v).to_value(k), v);
        }
    }

    #[test]
    fn zero_slot_is_default_for_every_type() {
        for (ty, zero) in [
            (Ty::Int, Value::I32(0)),
            (Ty::Byte, Value::I32(0)),
            (Ty::Short, Value::I32(0)),
            (Ty::Long, Value::I64(0)),
            (Ty::Float, Value::F32(0.0)),
            (Ty::Double, Value::F64(0.0)),
            (Ty::Ref(ClassId(0)), Value::Ref(ObjRef::NULL)),
            (Ty::Array(ElemTy::Int), Value::Ref(ObjRef::NULL)),
        ] {
            assert_eq!(Slot::ZERO.to_value(ty.kind()), zero, "{ty}");
        }
    }

    #[test]
    fn ty_is_ref() {
        assert!(Ty::Ref(ClassId(0)).is_ref());
        assert!(Ty::Array(ElemTy::Byte).is_ref());
        assert!(!Ty::Int.is_ref());
    }
}

//! Resolved machine operations and the arithmetic unit.

use hera_cell::ExecOp;
use hera_isa::{ClassId, Cond, ElemTy, MethodId, Slot, Trap, Ty};

/// Arithmetic, conversion and comparison operations, with JVM-faithful
/// semantics (wrapping integer arithmetic, masked shifts, saturating
/// float→int conversions, NaN-biased comparisons).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    /// i32 add.
    IAdd,
    /// i32 subtract.
    ISub,
    /// i32 multiply.
    IMul,
    /// i32 divide.
    IDiv,
    /// i32 remainder.
    IRem,
    /// i32 negate.
    INeg,
    /// i32 shift left.
    IShl,
    /// i32 arithmetic shift right.
    IShr,
    /// i32 logical shift right.
    IUShr,
    /// i32 and.
    IAnd,
    /// i32 or.
    IOr,
    /// i32 xor.
    IXor,
    /// i64 add.
    LAdd,
    /// i64 subtract.
    LSub,
    /// i64 multiply.
    LMul,
    /// i64 divide.
    LDiv,
    /// i64 remainder.
    LRem,
    /// i64 negate.
    LNeg,
    /// i64 shift left.
    LShl,
    /// i64 arithmetic shift right.
    LShr,
    /// i64 logical shift right.
    LUShr,
    /// i64 and.
    LAnd,
    /// i64 or.
    LOr,
    /// i64 xor.
    LXor,
    /// f32 add.
    FAdd,
    /// f32 subtract.
    FSub,
    /// f32 multiply.
    FMul,
    /// f32 divide.
    FDiv,
    /// f32 negate.
    FNeg,
    /// f32 square root.
    FSqrt,
    /// f64 add.
    DAdd,
    /// f64 subtract.
    DSub,
    /// f64 multiply.
    DMul,
    /// f64 divide.
    DDiv,
    /// f64 negate.
    DNeg,
    /// f64 square root.
    DSqrt,
    /// i32 → i64.
    I2L,
    /// i32 → f32.
    I2F,
    /// i32 → f64.
    I2D,
    /// i64 → i32.
    L2I,
    /// i64 → f32.
    L2F,
    /// i64 → f64.
    L2D,
    /// f32 → i32 (saturating).
    F2I,
    /// f32 → f64.
    F2D,
    /// f64 → i32 (saturating).
    D2I,
    /// f64 → i64 (saturating).
    D2L,
    /// f64 → f32.
    D2F,
    /// i32 → i8, sign-extended.
    I2B,
    /// i32 → i16, sign-extended.
    I2S,
    /// i64 three-way compare.
    LCmp,
    /// f32 compare, NaN → -1.
    FCmpL,
    /// f32 compare, NaN → +1.
    FCmpG,
    /// f64 compare, NaN → -1.
    DCmpL,
    /// f64 compare, NaN → +1.
    DCmpG,
}

impl ArithOp {
    /// Number of operands popped.
    pub fn arity(self) -> usize {
        use ArithOp::*;
        match self {
            INeg | LNeg | FNeg | DNeg | FSqrt | DSqrt | I2L | I2F | I2D | L2I | L2F | L2D | F2I
            | F2D | D2I | D2L | D2F | I2B | I2S => 1,
            _ => 2,
        }
    }

    /// Whether applying this op can trap (a zero divisor).
    pub fn may_trap(self) -> bool {
        use ArithOp::*;
        matches!(self, IDiv | IRem | LDiv | LRem)
    }

    /// The abstract execution op this is charged as.
    pub fn exec_op(self) -> ExecOp {
        use ArithOp::*;
        match self {
            IAdd | ISub | INeg | IShl | IShr | IUShr | IAnd | IOr | IXor | LAdd | LSub | LNeg
            | LShl | LShr | LUShr | LAnd | LOr | LXor => ExecOp::IntAlu,
            IMul | LMul => ExecOp::IntMul,
            IDiv | IRem | LDiv | LRem => ExecOp::IntDiv,
            FAdd | FSub | FNeg => ExecOp::FloatAdd,
            FMul => ExecOp::FloatMul,
            FDiv => ExecOp::FloatDiv,
            FSqrt => ExecOp::FloatSqrt,
            DAdd | DSub | DNeg => ExecOp::DoubleAdd,
            DMul => ExecOp::DoubleMul,
            DDiv => ExecOp::DoubleDiv,
            DSqrt => ExecOp::DoubleSqrt,
            I2L | I2F | I2D | L2I | L2F | L2D | F2I | F2D | D2I | D2L | D2F | I2B | I2S => {
                ExecOp::Convert
            }
            LCmp | FCmpL | FCmpG | DCmpL | DCmpG => ExecOp::Compare,
        }
    }

    /// Apply a unary operation to an untagged slot.
    ///
    /// The verifier proved the operand kind, so the slot is read with
    /// the op's own width — no runtime tag exists to check.
    ///
    /// # Panics
    ///
    /// Panics if called on a binary op (verified code cannot).
    #[inline]
    pub fn apply1_slot(self, a: Slot) -> Slot {
        use ArithOp::*;
        match self {
            INeg => Slot::from_i32(a.i32().wrapping_neg()),
            LNeg => Slot::from_i64(a.i64().wrapping_neg()),
            FNeg => Slot::from_f32(-a.f32()),
            DNeg => Slot::from_f64(-a.f64()),
            FSqrt => Slot::from_f32(a.f32().sqrt()),
            DSqrt => Slot::from_f64(a.f64().sqrt()),
            I2L => Slot::from_i64(a.i32() as i64),
            I2F => Slot::from_f32(a.i32() as f32),
            I2D => Slot::from_f64(a.i32() as f64),
            L2I => Slot::from_i32(a.i64() as i32),
            L2F => Slot::from_f32(a.i64() as f32),
            L2D => Slot::from_f64(a.i64() as f64),
            F2I => Slot::from_i32(f2i(a.f32() as f64, i32::MIN as i64, i32::MAX as i64) as i32),
            F2D => Slot::from_f64(a.f32() as f64),
            D2I => Slot::from_i32(f2i(a.f64(), i32::MIN as i64, i32::MAX as i64) as i32),
            D2L => Slot::from_i64(f2l(a.f64())),
            D2F => Slot::from_f32(a.f64() as f32),
            I2B => Slot::from_i32(a.i32() as i8 as i32),
            I2S => Slot::from_i32(a.i32() as i16 as i32),
            other => panic!("apply1 on binary op {other:?}"),
        }
    }

    /// Apply a binary operation to untagged slots (`a op b`, with `b`
    /// popped first). Division and remainder trap on a zero divisor.
    #[inline]
    pub fn apply2_slot(self, a: Slot, b: Slot) -> Result<Slot, Trap> {
        use ArithOp::*;
        Ok(match self {
            IAdd => Slot::from_i32(a.i32().wrapping_add(b.i32())),
            ISub => Slot::from_i32(a.i32().wrapping_sub(b.i32())),
            IMul => Slot::from_i32(a.i32().wrapping_mul(b.i32())),
            IDiv => {
                let d = b.i32();
                if d == 0 {
                    return Err(Trap::DivisionByZero);
                }
                Slot::from_i32(a.i32().wrapping_div(d))
            }
            IRem => {
                let d = b.i32();
                if d == 0 {
                    return Err(Trap::DivisionByZero);
                }
                Slot::from_i32(a.i32().wrapping_rem(d))
            }
            IShl => Slot::from_i32(a.i32().wrapping_shl(b.i32() as u32 & 31)),
            IShr => Slot::from_i32(a.i32().wrapping_shr(b.i32() as u32 & 31)),
            IUShr => Slot::from_i32(((a.i32() as u32) >> (b.i32() as u32 & 31)) as i32),
            IAnd => Slot::from_i32(a.i32() & b.i32()),
            IOr => Slot::from_i32(a.i32() | b.i32()),
            IXor => Slot::from_i32(a.i32() ^ b.i32()),
            LAdd => Slot::from_i64(a.i64().wrapping_add(b.i64())),
            LSub => Slot::from_i64(a.i64().wrapping_sub(b.i64())),
            LMul => Slot::from_i64(a.i64().wrapping_mul(b.i64())),
            LDiv => {
                let d = b.i64();
                if d == 0 {
                    return Err(Trap::DivisionByZero);
                }
                Slot::from_i64(a.i64().wrapping_div(d))
            }
            LRem => {
                let d = b.i64();
                if d == 0 {
                    return Err(Trap::DivisionByZero);
                }
                Slot::from_i64(a.i64().wrapping_rem(d))
            }
            LShl => Slot::from_i64(a.i64().wrapping_shl(b.i32() as u32 & 63)),
            LShr => Slot::from_i64(a.i64().wrapping_shr(b.i32() as u32 & 63)),
            LUShr => Slot::from_i64(((a.i64() as u64) >> (b.i32() as u32 & 63)) as i64),
            LAnd => Slot::from_i64(a.i64() & b.i64()),
            LOr => Slot::from_i64(a.i64() | b.i64()),
            LXor => Slot::from_i64(a.i64() ^ b.i64()),
            FAdd => Slot::from_f32(a.f32() + b.f32()),
            FSub => Slot::from_f32(a.f32() - b.f32()),
            FMul => Slot::from_f32(a.f32() * b.f32()),
            FDiv => Slot::from_f32(a.f32() / b.f32()),
            DAdd => Slot::from_f64(a.f64() + b.f64()),
            DSub => Slot::from_f64(a.f64() - b.f64()),
            DMul => Slot::from_f64(a.f64() * b.f64()),
            DDiv => Slot::from_f64(a.f64() / b.f64()),
            LCmp => Slot::from_i32(three_way(a.i64().cmp(&b.i64()))),
            FCmpL => Slot::from_i32(fcmp(a.f32() as f64, b.f32() as f64, -1)),
            FCmpG => Slot::from_i32(fcmp(a.f32() as f64, b.f32() as f64, 1)),
            DCmpL => Slot::from_i32(fcmp(a.f64(), b.f64(), -1)),
            DCmpG => Slot::from_i32(fcmp(a.f64(), b.f64(), 1)),
            other => panic!("apply2 on unary op {other:?}"),
        })
    }
}

fn three_way(o: std::cmp::Ordering) -> i32 {
    match o {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    }
}

fn fcmp(a: f64, b: f64, nan: i32) -> i32 {
    if a.is_nan() || b.is_nan() {
        nan
    } else if a < b {
        -1
    } else if a > b {
        1
    } else {
        0
    }
}

/// Saturating float→int per JVM semantics: NaN → 0, ±∞ → min/max.
fn f2i(v: f64, min: i64, max: i64) -> i64 {
    if v.is_nan() {
        0
    } else if v <= min as f64 {
        min
    } else if v >= max as f64 {
        max
    } else {
        v as i64
    }
}

fn f2l(v: f64) -> i64 {
    if v.is_nan() {
        0
    } else if v <= i64::MIN as f64 {
        i64::MIN
    } else if v >= i64::MAX as f64 {
        i64::MAX
    } else {
        v as i64
    }
}

/// Branch shapes in compiled code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BranchKind {
    /// Unconditional.
    Always,
    /// Popped i32 against zero.
    IfI(Cond),
    /// Two popped i32s.
    IfICmp(Cond),
    /// Popped reference is null.
    IfNull,
    /// Popped reference is non-null.
    IfNonNull,
    /// Two popped references equal.
    IfACmpEq,
    /// Two popped references differ.
    IfACmpNe,
}

/// A resolved, core-specific machine operation.
///
/// Heap accesses come in two flavours: `*Direct` ops (PPE code — loads
/// and stores that hit the hardware cache hierarchy) and `*Cached` ops
/// (SPE code — calls into the software data cache). The compiler emits
/// exactly one flavour per compilation target, so a compiled method is
/// usable only on its target core kind.
///
/// The variants after `MonitorExit` are *fused* ops: each stands for a
/// sequence of two or three plain ops (its [`parts`](MachineOp::parts))
/// that the engine retires in one dispatch. They are produced only by
/// [`MachineOp::fuse`] and never change what the guest observes — see
/// DESIGN.md §4.8 "Fused ops".
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum MachineOp {
    /// Push a constant.
    PushI32(i32),
    /// Push a constant.
    PushI64(i64),
    /// Push a constant.
    PushF32(f32),
    /// Push a constant.
    PushF64(f64),
    /// Push null.
    PushNull,
    /// Discard top of stack.
    Pop,
    /// Duplicate top of stack.
    Dup,
    /// Duplicate top under second.
    DupX1,
    /// Swap top two.
    Swap,
    /// Push local.
    LoadLocal(u16),
    /// Pop into local.
    StoreLocal(u16),
    /// In-place increment of an i32 local.
    IncLocal(u16, i16),
    /// Arithmetic / conversion / comparison.
    Arith(ArithOp),
    /// Branch to an op index.
    Branch(BranchKind, u32),
    /// Allocate an object of a class whose instance size was baked in.
    NewObject {
        /// Class to instantiate.
        class: ClassId,
    },
    /// Allocate an array.
    NewArray {
        /// Element type.
        elem: ElemTy,
    },
    /// `instanceof` test.
    InstanceOf {
        /// Class tested against.
        class: ClassId,
    },

    // ---- PPE (direct) heap access ----
    /// PPE: load an instance field through the hardware caches.
    GetFieldDirect {
        /// Byte offset from the object base.
        offset: u32,
        /// Field type (decides width and value kind).
        ty: Ty,
        /// Volatile flag (memory-ordering relevant on the SPE only, but
        /// kept for symmetric accounting).
        volatile: bool,
    },
    /// PPE: store an instance field.
    PutFieldDirect {
        /// Byte offset from the object base.
        offset: u32,
        /// Field type.
        ty: Ty,
        /// Volatile flag.
        volatile: bool,
    },
    /// PPE: load a static from the statics block.
    GetStaticDirect {
        /// Offset within the statics block.
        offset: u32,
        /// Field type.
        ty: Ty,
        /// Volatile flag.
        volatile: bool,
    },
    /// PPE: store a static.
    PutStaticDirect {
        /// Offset within the statics block.
        offset: u32,
        /// Field type.
        ty: Ty,
        /// Volatile flag.
        volatile: bool,
    },
    /// PPE: array element load.
    ArrLoadDirect {
        /// Element type.
        elem: ElemTy,
    },
    /// PPE: array element store.
    ArrStoreDirect {
        /// Element type.
        elem: ElemTy,
    },
    /// PPE: array length.
    ArrLenDirect,

    // ---- SPE (software-cached) heap access ----
    /// SPE: load an instance field through the software data cache.
    GetFieldCached {
        /// Byte offset from the object base.
        offset: u32,
        /// Field type.
        ty: Ty,
        /// Volatile: purge the data cache before the read (JMM).
        volatile: bool,
    },
    /// SPE: store an instance field through the software data cache.
    PutFieldCached {
        /// Byte offset from the object base.
        offset: u32,
        /// Field type.
        ty: Ty,
        /// Volatile: write back dirty data after the write (JMM).
        volatile: bool,
    },
    /// SPE: load a static (the statics block is cached like an object).
    GetStaticCached {
        /// Offset within the statics block.
        offset: u32,
        /// Field type.
        ty: Ty,
        /// Volatile flag.
        volatile: bool,
    },
    /// SPE: store a static.
    PutStaticCached {
        /// Offset within the statics block.
        offset: u32,
        /// Field type.
        ty: Ty,
        /// Volatile flag.
        volatile: bool,
    },
    /// SPE: array element load (block transfer on miss).
    ArrLoadCached {
        /// Element type.
        elem: ElemTy,
    },
    /// SPE: array element store.
    ArrStoreCached {
        /// Element type.
        elem: ElemTy,
    },
    /// SPE: array length (reads the cached header).
    ArrLenCached,

    // ---- calls ----
    /// Direct call to a statically resolved method.
    InvokeStatic {
        /// Callee.
        method: MethodId,
    },
    /// Vtable dispatch.
    InvokeVirtual {
        /// Vtable slot of the resolved method.
        slot: u16,
        /// Statically named method (for diagnostics and arg counts).
        declared: MethodId,
    },
    /// Return (with or without a value).
    Return {
        /// Whether a value is carried back.
        has_value: bool,
    },

    // ---- synchronisation ----
    /// Acquire the popped object's monitor.
    MonitorEnter,
    /// Release the popped object's monitor.
    MonitorExit,

    // ---- fused ops (binary `Arith` only; see `fuse`) ----
    /// `LoadLocal LoadLocal`.
    LoadLocal2(u16, u16),
    /// `LoadLocal Arith`.
    LoadLocalArith(u16, ArithOp),
    /// `PushI32 Arith`.
    PushArith(i32, ArithOp),
    /// `Arith StoreLocal`.
    ArithStoreLocal(ArithOp, u16),
    /// `LoadLocal StoreLocal`.
    LoadLocalStoreLocal(u16, u16),
    /// `Arith Arith`.
    Arith2(ArithOp, ArithOp),
    /// `PushI32 Branch(IfICmp)`.
    PushIfICmp(i32, Cond, u32),
    /// `IncLocal Branch(Always)`.
    IncLocalGoto(u16, i16, u32),
    /// `LoadLocal LoadLocal Arith`.
    LoadLocal2Arith(u16, u16, ArithOp),
    /// `LoadLocal PushI32 Arith`.
    LoadLocalPushArith(u16, i32, ArithOp),
    /// `LoadLocal Arith StoreLocal`.
    LoadLocalArithStoreLocal(u16, ArithOp, u16),
    /// `Arith Arith StoreLocal`.
    Arith2StoreLocal(ArithOp, ArithOp, u16),
    /// `LoadLocal LoadLocal Branch(IfICmp)`.
    LoadLocal2IfICmp(u16, u16, Cond, u32),
    /// `LoadLocal PushI32 Branch(IfICmp)`.
    LoadLocalPushIfICmp(u16, i32, Cond, u32),
    /// PPE: `LoadLocal LoadLocal ArrLoadDirect`.
    LoadLocal2ArrLoadDirect(u16, u16, ElemTy),
    /// SPE: `LoadLocal LoadLocal ArrLoadCached`.
    LoadLocal2ArrLoadCached(u16, u16, ElemTy),
}

// A fused op has to fit the slot of the op it starts at: the stream
// keeps one 16-byte op per bytecode pc.
const _: () = assert!(std::mem::size_of::<MachineOp>() == 16);

impl MachineOp {
    /// Whether this op is (or, fused, ends in) an SPE software-cache
    /// access.
    pub fn is_cached_access(&self) -> bool {
        matches!(
            self,
            MachineOp::GetFieldCached { .. }
                | MachineOp::PutFieldCached { .. }
                | MachineOp::GetStaticCached { .. }
                | MachineOp::PutStaticCached { .. }
                | MachineOp::ArrLoadCached { .. }
                | MachineOp::ArrStoreCached { .. }
                | MachineOp::ArrLenCached
                | MachineOp::LoadLocal2ArrLoadCached(..)
        )
    }

    /// Whether this op is (or, fused, ends in) a PPE direct heap access.
    pub fn is_direct_access(&self) -> bool {
        matches!(
            self,
            MachineOp::GetFieldDirect { .. }
                | MachineOp::PutFieldDirect { .. }
                | MachineOp::GetStaticDirect { .. }
                | MachineOp::PutStaticDirect { .. }
                | MachineOp::ArrLoadDirect { .. }
                | MachineOp::ArrStoreDirect { .. }
                | MachineOp::ArrLenDirect
                | MachineOp::LoadLocal2ArrLoadDirect(..)
        )
    }

    /// The longest fused op that stands for a prefix of `window` (plain
    /// ops, `window[0]` at the pc being filled), or `window[0]` itself.
    ///
    /// Only a fused op's last part may trap or branch: the engine
    /// advances `pc` and its op counters by [`parts`](MachineOp::parts)
    /// before the op runs, which is what the 1:1 engine has done by the
    /// time that last part runs. So an `Arith` that can trap fuses only
    /// in final position, and only binary `Arith`s fuse at all.
    ///
    /// # Panics
    ///
    /// Panics on an empty window.
    pub fn fuse(window: &[MachineOp]) -> MachineOp {
        use BranchKind::{Always, IfICmp};
        use MachineOp::*;
        let binary = |a: ArithOp| a.arity() == 2;
        let inner = |a: ArithOp| a.arity() == 2 && !a.may_trap();
        match *window {
            [LoadLocal(x), LoadLocal(y), Arith(a), ..] if binary(a) => LoadLocal2Arith(x, y, a),
            [LoadLocal(x), LoadLocal(y), Branch(IfICmp(c), t), ..] => LoadLocal2IfICmp(x, y, c, t),
            [LoadLocal(x), LoadLocal(y), ArrLoadDirect { elem }, ..] => {
                LoadLocal2ArrLoadDirect(x, y, elem)
            }
            [LoadLocal(x), LoadLocal(y), ArrLoadCached { elem }, ..] => {
                LoadLocal2ArrLoadCached(x, y, elem)
            }
            [LoadLocal(x), PushI32(v), Arith(a), ..] if binary(a) => LoadLocalPushArith(x, v, a),
            [LoadLocal(x), PushI32(v), Branch(IfICmp(c), t), ..] => LoadLocalPushIfICmp(x, v, c, t),
            [LoadLocal(x), Arith(a), StoreLocal(d), ..] if inner(a) => {
                LoadLocalArithStoreLocal(x, a, d)
            }
            [Arith(a), Arith(b), StoreLocal(d), ..] if inner(a) && inner(b) => {
                Arith2StoreLocal(a, b, d)
            }
            [LoadLocal(x), LoadLocal(y), ..] => LoadLocal2(x, y),
            [LoadLocal(x), Arith(a), ..] if binary(a) => LoadLocalArith(x, a),
            [LoadLocal(x), StoreLocal(d), ..] => LoadLocalStoreLocal(x, d),
            [PushI32(v), Arith(a), ..] if binary(a) => PushArith(v, a),
            [PushI32(v), Branch(IfICmp(c), t), ..] => PushIfICmp(v, c, t),
            [Arith(a), StoreLocal(d), ..] if inner(a) => ArithStoreLocal(a, d),
            [Arith(a), Arith(b), ..] if inner(a) && binary(b) => Arith2(a, b),
            [IncLocal(x, d), Branch(Always, t), ..] => IncLocalGoto(x, d, t),
            [plain, ..] => plain,
            [] => panic!("fuse of an empty window"),
        }
    }

    /// How many plain ops this op stands for: 1 unless fused.
    #[inline(always)]
    pub fn parts(&self) -> u32 {
        use MachineOp::*;
        match self {
            LoadLocal2(..)
            | LoadLocalArith(..)
            | PushArith(..)
            | ArithStoreLocal(..)
            | LoadLocalStoreLocal(..)
            | Arith2(..)
            | PushIfICmp(..)
            | IncLocalGoto(..) => 2,
            LoadLocal2Arith(..)
            | LoadLocalPushArith(..)
            | LoadLocalArithStoreLocal(..)
            | Arith2StoreLocal(..)
            | LoadLocal2IfICmp(..)
            | LoadLocalPushIfICmp(..)
            | LoadLocal2ArrLoadDirect(..)
            | LoadLocal2ArrLoadCached(..) => 3,
            _ => 1,
        }
    }

    /// The `i`-th plain op this op stands for (itself when not fused).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.parts()`.
    pub fn part(&self, i: u32) -> MachineOp {
        use BranchKind::{Always, IfICmp};
        use MachineOp::*;
        // `Pop` pads the shorter sequences; the assertion below keeps it
        // from ever being returned.
        let seq: [MachineOp; 3] = match *self {
            LoadLocal2(x, y) => [LoadLocal(x), LoadLocal(y), Pop],
            LoadLocalArith(x, a) => [LoadLocal(x), Arith(a), Pop],
            PushArith(v, a) => [PushI32(v), Arith(a), Pop],
            ArithStoreLocal(a, d) => [Arith(a), StoreLocal(d), Pop],
            LoadLocalStoreLocal(x, d) => [LoadLocal(x), StoreLocal(d), Pop],
            Arith2(a, b) => [Arith(a), Arith(b), Pop],
            PushIfICmp(v, c, t) => [PushI32(v), Branch(IfICmp(c), t), Pop],
            IncLocalGoto(x, d, t) => [IncLocal(x, d), Branch(Always, t), Pop],
            LoadLocal2Arith(x, y, a) => [LoadLocal(x), LoadLocal(y), Arith(a)],
            LoadLocalPushArith(x, v, a) => [LoadLocal(x), PushI32(v), Arith(a)],
            LoadLocalArithStoreLocal(x, a, d) => [LoadLocal(x), Arith(a), StoreLocal(d)],
            Arith2StoreLocal(a, b, d) => [Arith(a), Arith(b), StoreLocal(d)],
            LoadLocal2IfICmp(x, y, c, t) => [LoadLocal(x), LoadLocal(y), Branch(IfICmp(c), t)],
            LoadLocalPushIfICmp(x, v, c, t) => [LoadLocal(x), PushI32(v), Branch(IfICmp(c), t)],
            LoadLocal2ArrLoadDirect(x, y, elem) => {
                [LoadLocal(x), LoadLocal(y), ArrLoadDirect { elem }]
            }
            LoadLocal2ArrLoadCached(x, y, elem) => {
                [LoadLocal(x), LoadLocal(y), ArrLoadCached { elem }]
            }
            plain => [plain, Pop, Pop],
        };
        assert!(i < self.parts(), "part {i} of {self:?}");
        seq[i as usize]
    }

    /// The plain op at this op's own pc: what the 1:1 lowering put in
    /// this slot. `ops.iter().map(MachineOp::head)` is that lowering.
    #[inline]
    pub fn head(&self) -> MachineOp {
        self.part(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i32) -> Slot {
        Slot::from_i32(v)
    }

    fn l(v: i64) -> Slot {
        Slot::from_i64(v)
    }

    #[test]
    fn wrapping_integer_arithmetic() {
        assert_eq!(
            ArithOp::IAdd.apply2_slot(i(i32::MAX), i(1)),
            Ok(i(i32::MIN))
        );
        assert_eq!(
            ArithOp::IMul.apply2_slot(i(1 << 20), i(1 << 20)),
            Ok(i((1i64 << 40) as i32))
        );
        assert_eq!(
            ArithOp::IDiv.apply2_slot(i(i32::MIN), i(-1)),
            Ok(i(i32::MIN))
        );
    }

    #[test]
    fn division_by_zero_traps() {
        assert_eq!(
            ArithOp::IDiv.apply2_slot(i(1), i(0)),
            Err(Trap::DivisionByZero)
        );
        assert_eq!(
            ArithOp::LRem.apply2_slot(l(1), l(0)),
            Err(Trap::DivisionByZero)
        );
    }

    #[test]
    fn shifts_mask_their_counts() {
        assert_eq!(ArithOp::IShl.apply2_slot(i(1), i(33)), Ok(i(2)));
        assert_eq!(ArithOp::LShl.apply2_slot(l(1), i(65)), Ok(l(2)));
        assert_eq!(ArithOp::IUShr.apply2_slot(i(-1), i(28)), Ok(i(15)));
    }

    #[test]
    fn saturating_float_conversions() {
        let f = Slot::from_f32;
        let d = Slot::from_f64;
        assert_eq!(ArithOp::F2I.apply1_slot(f(f32::NAN)), i(0));
        assert_eq!(ArithOp::F2I.apply1_slot(f(1e20)), i(i32::MAX));
        assert_eq!(ArithOp::D2I.apply1_slot(d(-1e20)), i(i32::MIN));
        assert_eq!(ArithOp::D2L.apply1_slot(d(1e30)), l(i64::MAX));
        assert_eq!(ArithOp::D2I.apply1_slot(d(3.99)), i(3));
    }

    #[test]
    fn nan_biased_comparisons() {
        let nan = Slot::from_f32(f32::NAN);
        let one = Slot::from_f32(1.0);
        assert_eq!(ArithOp::FCmpL.apply2_slot(nan, one), Ok(i(-1)));
        assert_eq!(ArithOp::FCmpG.apply2_slot(nan, one), Ok(i(1)));
        assert_eq!(ArithOp::FCmpL.apply2_slot(one, one), Ok(i(0)));
        let (two, one) = (Slot::from_f64(2.0), Slot::from_f64(1.0));
        assert_eq!(ArithOp::DCmpL.apply2_slot(two, one), Ok(i(1)));
    }

    #[test]
    fn narrowing_conversions_sign_extend() {
        assert_eq!(ArithOp::I2B.apply1_slot(i(0x181)), i(-127));
        assert_eq!(ArithOp::I2S.apply1_slot(i(0x18001)), i(-32767));
        assert_eq!(ArithOp::L2I.apply1_slot(l(0x1_0000_0002)), i(2));
    }

    #[test]
    fn lcmp_three_way() {
        assert_eq!(ArithOp::LCmp.apply2_slot(l(5), l(9)), Ok(i(-1)));
        assert_eq!(ArithOp::LCmp.apply2_slot(l(9), l(9)), Ok(i(0)));
    }

    #[test]
    fn sqrt_intrinsics() {
        assert_eq!(
            ArithOp::FSqrt.apply1_slot(Slot::from_f32(9.0)),
            Slot::from_f32(3.0)
        );
        assert_eq!(
            ArithOp::DSqrt.apply1_slot(Slot::from_f64(2.25)),
            Slot::from_f64(1.5)
        );
    }

    #[test]
    fn arity_and_exec_ops_consistent() {
        assert_eq!(ArithOp::IAdd.arity(), 2);
        assert_eq!(ArithOp::FSqrt.arity(), 1);
        assert_eq!(ArithOp::I2D.arity(), 1);
        assert_eq!(ArithOp::FMul.exec_op(), ExecOp::FloatMul);
        assert_eq!(ArithOp::DDiv.exec_op(), ExecOp::DoubleDiv);
        assert_eq!(ArithOp::I2L.exec_op(), ExecOp::Convert);
        assert_eq!(ArithOp::LCmp.exec_op(), ExecOp::Compare);
    }

    #[test]
    fn access_flavour_predicates() {
        let cached = MachineOp::GetFieldCached {
            offset: 8,
            ty: Ty::Int,
            volatile: false,
        };
        let direct = MachineOp::GetFieldDirect {
            offset: 8,
            ty: Ty::Int,
            volatile: false,
        };
        assert!(cached.is_cached_access() && !cached.is_direct_access());
        assert!(direct.is_direct_access() && !direct.is_cached_access());
        assert!(!MachineOp::Pop.is_cached_access());
        // A fused op is classified by the access it ends in.
        let cached = MachineOp::LoadLocal2ArrLoadCached(0, 1, ElemTy::Int);
        let direct = MachineOp::LoadLocal2ArrLoadDirect(0, 1, ElemTy::Int);
        assert!(cached.is_cached_access() && !cached.is_direct_access());
        assert!(direct.is_direct_access() && !direct.is_cached_access());
        assert!(!MachineOp::LoadLocal2(0, 1).is_direct_access());
    }

    #[test]
    fn null_values_flow_through() {
        assert!(Slot::from_ref(hera_isa::ObjRef::NULL).obj().is_null());
        assert_eq!(Slot::from_ref(hera_isa::ObjRef::NULL), Slot::ZERO);
    }
}

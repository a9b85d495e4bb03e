//! Seeded generator of methods dense in the op sequences
//! [`MachineOp::fuse`](crate::MachineOp::fuse) recognises — and in their
//! near-misses. Test support only: `#[cfg(test)]` here, and included by
//! `#[path]` from `hera-core`'s interpreter tests, which run the same
//! programs fused and head by head.
//!
//! A method is a list of stack-neutral statements over typed locals.
//! Besides straight-line runs of every fused shape it draws counted
//! loops (`IInc` + `Goto` back edges), branches *into the middle* of a
//! fused sequence, divisors that count down to zero, array indices that
//! walk out of bounds, an array reference that turns null, and strided
//! walks over an array longer than a small SPE data cache.

use hera_isa::{Cond, ElemTy, Instr, MethodBody, MethodBuilder, MethodId, ProgramBuilder, Ty};
use hera_rng::SplitMix64;

// Locals, each of one type for the whole method.
const INTS: u64 = 6; // 0..6: ints
const DIVISOR: u16 = 6; // int, may count down to zero
const INDEX: u16 = 7; // int, may leave the array
const LOOP: [u16; 2] = [8, 9]; // loop counters, by nesting depth
const ARR: u16 = 10; // int[ARR_LEN], may turn null
const BIG: u16 = 11; // int[BIG_LEN]
const F: [u16; 2] = [12, 13]; // floats
const L: [u16; 2] = [14, 15]; // longs
const NLOCALS: u16 = 16;

/// Of every 16 consecutive seeds, the first `DOOMS` give a method that
/// traps in its first long loop, each by a different fused op.
pub const DOOMS: u64 = 7;

const ARR_LEN: i32 = 64;
/// 16 KiB of ints: twice the 8 KiB data cache the SPE runs use.
const BIG_LEN: i32 = 4096;

const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Gt, Cond::Le];
const INT_OPS: [Instr; 9] = [
    Instr::IAdd,
    Instr::ISub,
    Instr::IMul,
    Instr::IAnd,
    Instr::IOr,
    Instr::IXor,
    Instr::IShl,
    Instr::IShr,
    Instr::IUShr,
];
const FLOAT_OPS: [Instr; 4] = [Instr::FAdd, Instr::FSub, Instr::FMul, Instr::FDiv];
const LONG_OPS: [Instr; 4] = [Instr::LAdd, Instr::LSub, Instr::LMul, Instr::LXor];

struct Gen {
    rng: SplitMix64,
    b: MethodBuilder,
    /// `(int) -> void`, called now and then so blocks end in a slow op.
    sink: Option<MethodId>,
    /// How this method dies, if it does (most should run to the end):
    /// which [`Gen::doom`] every loop body of it ends in.
    doom: Option<u64>,
}

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_below(n)
    }
    fn int(&mut self) -> u16 {
        self.below(INTS) as u16
    }
    fn small(&mut self) -> i32 {
        self.below(17) as i32 - 4
    }
    fn cond(&mut self) -> Cond {
        CONDS[self.below(6) as usize]
    }
    fn int_op(&mut self) -> Instr {
        INT_OPS[self.below(9) as usize]
    }

    fn prologue(&mut self) {
        for s in 0..INTS as u16 {
            let v = self.rng.next_u64() as i32 >> self.below(28);
            self.b.const_i32(v).store(s);
        }
        // A doomed method's divisor reaches zero within a few dozen loop
        // passes; any other's never does.
        let divisor = match self.doom {
            Some(_) => 3 + self.below(40) as i32,
            None => 1 << 20,
        };
        self.b.const_i32(divisor).store(DIVISOR);
        self.b.const_i32(0).store(INDEX);
        for s in LOOP {
            self.b.const_i32(0).store(s);
        }
        self.b.const_i32(ARR_LEN).new_array(ElemTy::Int).store(ARR);
        self.b.const_i32(BIG_LEN).new_array(ElemTy::Int).store(BIG);
        self.b
            .const_f32(1.5)
            .store(F[0])
            .const_f32(-0.75)
            .store(F[1]);
        self.b.const_i64(0x1_0000_0001).store(L[0]);
        self.b.const_i64(-7).store(L[1]);
    }

    /// The end of a doomed method's loop bodies: one step of the divisor
    /// towards zero, and a statement that traps once it is there — in
    /// the last part of each fused op that has one that can.
    fn doom(&mut self, form: u64) {
        let (a, c) = (self.int(), self.int());
        self.b.iinc(DIVISOR, -1);
        // The forms whose operands do not trap by themselves run only
        // once the divisor is spent.
        let skip = self.b.label();
        if form >= 3 {
            self.b.load(DIVISOR).if_i(Cond::Gt, skip);
        }
        match form {
            0 => self.b.load(c).load(DIVISOR).emit(Instr::IDiv).store(c),
            1 => self.b.const_i32(7).load(DIVISOR).emit(Instr::IRem).store(c),
            2 => {
                self.b.load(a).load(DIVISOR).load(DIVISOR).imul();
                self.b.emit(Instr::IDiv).store(c)
            }
            3 => self.b.load(c).const_i32(0).emit(Instr::IDiv).store(c),
            4 => {
                self.b.load(c).load(a).ixor().const_i32(0);
                self.b.emit(Instr::IRem).store(c)
            }
            5 => {
                self.b.const_null().store(ARR);
                self.b.load(ARR).load(LOOP[1]).aload(ElemTy::Int).store(c)
            }
            _ => {
                let out = [ARR_LEN, -1][self.below(2) as usize];
                self.b.const_i32(out).store(INDEX);
                self.b.load(ARR).load(INDEX).aload(ElemTy::Int).store(c)
            }
        };
        self.b.place(skip);
    }

    /// A counted loop at nesting level `depth`: `IInc` + `Goto` closes it.
    fn counted_loop(&mut self, depth: usize) {
        let (top, exit) = (self.b.label(), self.b.label());
        let n = 2 + self.below(if depth == 0 { 200 } else { 12 }) as i32;
        let i = LOOP[depth];
        self.b.const_i32(0).store(i).place(top);
        self.b.load(i).const_i32(n).if_icmp(Cond::Ge, exit);
        for _ in 0..1 + self.below(4) {
            self.stmt(depth + 1);
        }
        if let Some(form) = self.doom {
            self.doom(form);
        }
        self.b.iinc(i, 1).goto(top).place(exit);
    }

    /// One stack-neutral statement; `depth` is the loop nesting level.
    fn stmt(&mut self, depth: usize) {
        let (a, b2, c, d) = (self.int(), self.int(), self.int(), self.int());
        let k = self.small();
        match self.below(23) {
            // ---- the fused shapes, straight-line ----
            0 => {
                let op = self.int_op();
                self.b.load(a).load(b2).emit(op).store(c);
            }
            1 => {
                let op = self.int_op();
                self.b.load(a).const_i32(k).emit(op).store(c);
            }
            2 => {
                let (op, op2) = (self.int_op(), self.int_op());
                self.b.load(a).load(b2).load(c).emit(op).emit(op2).store(d);
            }
            3 => {
                self.b.load(a).store(c);
            }
            4 => {
                let (op, op2) = (self.int_op(), self.int_op());
                self.b.load(a).load(b2).emit(op).const_i32(k).emit(op2);
                self.b.load(c).load(d).load(a).emit(op).emit(op2);
                self.b.emit(Instr::IXor).store(d);
            }
            5 => {
                let op = FLOAT_OPS[self.below(4) as usize];
                let dst = F[self.below(2) as usize];
                self.b.load(F[0]).load(F[1]).emit(op).store(dst);
            }
            6 => {
                let op = LONG_OPS[self.below(4) as usize];
                let dst = L[self.below(2) as usize];
                self.b.load(L[0]).load(L[1]).emit(op).store(dst);
            }
            // ---- compare-and-branch over a nested statement ----
            7 => {
                let skip = self.b.label();
                let cond = self.cond();
                self.b.load(a).load(b2).if_icmp(cond, skip);
                self.stmt(depth);
                self.b.place(skip);
            }
            8 => {
                let skip = self.b.label();
                let cond = self.cond();
                self.b.load(a).const_i32(k).if_icmp(cond, skip);
                self.stmt(depth);
                self.b.place(skip);
            }
            9 => {
                let skip = self.b.label();
                let (op, cond) = (self.int_op(), self.cond());
                self.b
                    .load(a)
                    .load(b2)
                    .emit(op)
                    .const_i32(k)
                    .if_icmp(cond, skip);
                self.stmt(depth);
                self.b.place(skip);
            }
            10 | 11 if depth < 2 => self.counted_loop(depth),
            // ---- arrays ----
            12 => {
                self.b.load(ARR).load(INDEX).aload(ElemTy::Int).store(c);
            }
            13 => {
                self.b.load(ARR).load(INDEX).load(a).astore(ElemTy::Int);
            }
            14 => {
                // A strided walk over the long array, by the loop counters.
                let stride = 1 + 64 * self.below(8) as i32;
                self.b
                    .load(LOOP[0])
                    .const_i32(stride)
                    .imul()
                    .load(LOOP[1])
                    .iadd();
                self.b.const_i32(BIG_LEN - 1).iand().store(INDEX);
                self.b.load(BIG).load(INDEX).aload(ElemTy::Int).store(c);
                self.b.load(BIG).load(INDEX).load(c).load(a).iadd();
                self.b.astore(ElemTy::Int);
                self.b
                    .load(INDEX)
                    .const_i32(ARR_LEN - 1)
                    .iand()
                    .store(INDEX);
            }
            // ---- division: traps once the divisor has counted down ----
            15 => {
                let op = [Instr::IDiv, Instr::IRem][self.below(2) as usize];
                self.b.load(a).load(DIVISOR).emit(op).store(c);
            }
            16 => {
                // Near-miss: a trapping op may not fuse in front of another.
                self.b.load(a).load(b2).load(DIVISOR).emit(Instr::IDiv);
                self.b.emit(Instr::IAdd).store(c);
            }
            17 => {
                self.b.load(a).const_i32(3).emit(Instr::IRem).store(c);
                self.b.load(L[0]).const_i64(3).emit(Instr::LDiv).store(L[1]);
            }
            // ---- branches into the middle of a fused sequence ----
            18 => {
                // `Load a; Load b; op` is entered at `Load b` from `alt`.
                let (mid, alt, end) = (self.b.label(), self.b.label(), self.b.label());
                let (op, cond) = (self.int_op(), self.cond());
                self.b.load(c).load(d).if_icmp(cond, alt);
                self.b
                    .load(a)
                    .place(mid)
                    .load(b2)
                    .emit(op)
                    .store(c)
                    .goto(end);
                self.b.place(alt).load(d).goto(mid).place(end);
            }
            19 => {
                // The compare itself lands on `Load b`, one operand down.
                let mid = self.b.label();
                let (op, cond) = (self.int_op(), self.cond());
                self.b.load(d).load(c).const_i32(k).if_icmp(cond, mid);
                self.b.pop().load(a).place(mid).load(b2).emit(op).store(c);
            }
            // ---- near-misses ----
            20 => {
                self.b.load(a).emit(Instr::INeg).store(c);
                self.b.load(a).dup().iadd().store(d);
                self.b.load(a).emit(Instr::I2L).store(L[0]);
            }
            21 => {
                let skip = self.b.label();
                let cond = self.cond();
                self.b
                    .load(a)
                    .if_i(cond, skip)
                    .iinc(b2, 3)
                    .load(b2)
                    .store(c);
                self.b.place(skip);
                self.b.load(F[0]).const_f32(0.5).fmul().store(F[1]);
                self.b.load(L[1]).const_i64(5).emit(Instr::LAdd).store(L[1]);
            }
            _ => {
                if let Some(sink) = self.sink {
                    self.b.load(a).invoke_static(sink);
                } else {
                    self.b.load(a).load(b2).swap().pop().store(c);
                }
            }
        }
    }
}

/// Add a static `() -> int` method named `name` to `class`, drawn from
/// `seed`. `sink`, if given, is a static `(int) -> void` the method calls
/// now and then.
pub fn idiom_method(
    pb: &mut ProgramBuilder,
    class: hera_isa::ClassId,
    name: &str,
    seed: u64,
    sink: Option<MethodId>,
) -> MethodId {
    let mut g = Gen {
        rng: SplitMix64::new(seed),
        b: MethodBuilder::new(),
        sink,
        doom: Some(seed % 16).filter(|&form| form < DOOMS),
    };
    g.prologue();
    for i in 0..20 + g.below(20) {
        if i % 6 == 5 {
            g.counted_loop(0);
        } else {
            g.stmt(0);
        }
    }
    // Fold every int local into the result.
    g.b.load(0);
    for s in 1..INTS as u16 {
        g.b.load(s).emit(Instr::IXor);
    }
    g.b.return_value();
    let body = MethodBody::Bytecode(g.b.finish());
    pb.add_static_method(class, name, vec![], Some(Ty::Int), NLOCALS, body)
}

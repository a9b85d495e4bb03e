//! A fluent bytecode builder with forward-reference label patching.

use crate::bytecode::{Cond, Instr};
use crate::program::{ClassId, FieldId, MethodId};
use crate::types::ElemTy;

/// An as-yet-unpatched branch target.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(usize);

/// Builds an instruction vector, resolving [`Label`]s to absolute
/// instruction indices when [`MethodBuilder::finish`] is called.
///
/// # Examples
///
/// Count down from 10:
///
/// ```
/// use hera_isa::{MethodBuilder, Cond};
///
/// let mut b = MethodBuilder::new();
/// let top = b.label();
/// b.const_i32(10).store(0);
/// b.place(top);
/// b.load(0).const_i32(1).isub().store(0);
/// b.load(0).if_i(Cond::Gt, top);
/// b.load(0).return_value();
/// let code = b.finish();
/// assert!(!code.is_empty());
/// ```
pub struct MethodBuilder {
    code: Vec<Instr>,
    /// For each label: the instruction index it resolves to (if placed).
    labels: Vec<Option<u32>>,
    /// (instruction index, label) pairs awaiting patching.
    fixups: Vec<(usize, Label)>,
}

impl MethodBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        MethodBuilder {
            code: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Allocate a fresh, unplaced label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.labels.len());
        self.labels.push(None);
        l
    }

    /// Place a label at the current position. Panics if already placed.
    pub fn place(&mut self, l: Label) -> &mut Self {
        assert!(
            self.labels[l.0].is_none(),
            "label placed twice at instruction {}",
            self.code.len()
        );
        self.labels[l.0] = Some(self.code.len() as u32);
        self
    }

    /// Current instruction index (useful for diagnostics).
    pub fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Append a raw instruction.
    pub fn emit(&mut self, i: Instr) -> &mut Self {
        self.code.push(i);
        self
    }

    /// Append branch `i`, whose target (a placeholder) is patched to
    /// label `l` at finish time: any branch shape, `IfACmpEq` included.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a branch.
    pub fn emit_branch(&mut self, i: Instr, l: Label) -> &mut Self {
        assert!(i.branch_target().is_some(), "{i:?} is not a branch");
        self.fixups.push((self.code.len(), l));
        self.code.push(i);
        self
    }

    // ---- constants ----

    /// Push an i32 constant.
    pub fn const_i32(&mut self, v: i32) -> &mut Self {
        self.emit(Instr::ConstI32(v))
    }
    /// Push an i64 constant.
    pub fn const_i64(&mut self, v: i64) -> &mut Self {
        self.emit(Instr::ConstI64(v))
    }
    /// Push an f32 constant.
    pub fn const_f32(&mut self, v: f32) -> &mut Self {
        self.emit(Instr::ConstF32(v))
    }
    /// Push an f64 constant.
    pub fn const_f64(&mut self, v: f64) -> &mut Self {
        self.emit(Instr::ConstF64(v))
    }
    /// Push null.
    pub fn const_null(&mut self) -> &mut Self {
        self.emit(Instr::ConstNull)
    }

    // ---- stack ----

    /// Pop the top of stack.
    pub fn pop(&mut self) -> &mut Self {
        self.emit(Instr::Pop)
    }
    /// Duplicate the top of stack.
    pub fn dup(&mut self) -> &mut Self {
        self.emit(Instr::Dup)
    }
    /// Swap the top two stack values.
    pub fn swap(&mut self) -> &mut Self {
        self.emit(Instr::Swap)
    }

    // ---- locals ----

    /// Load local `slot`.
    pub fn load(&mut self, slot: u16) -> &mut Self {
        self.emit(Instr::Load(slot))
    }
    /// Store into local `slot`.
    pub fn store(&mut self, slot: u16) -> &mut Self {
        self.emit(Instr::Store(slot))
    }
    /// Increment integer local `slot` by `delta`.
    pub fn iinc(&mut self, slot: u16, delta: i16) -> &mut Self {
        self.emit(Instr::IInc(slot, delta))
    }

    // ---- arithmetic (thin wrappers; names mirror the instructions) ----

    /// i32 add.
    pub fn iadd(&mut self) -> &mut Self {
        self.emit(Instr::IAdd)
    }
    /// i32 subtract.
    pub fn isub(&mut self) -> &mut Self {
        self.emit(Instr::ISub)
    }
    /// i32 multiply.
    pub fn imul(&mut self) -> &mut Self {
        self.emit(Instr::IMul)
    }
    /// i32 and.
    pub fn iand(&mut self) -> &mut Self {
        self.emit(Instr::IAnd)
    }
    /// i32 xor.
    pub fn ixor(&mut self) -> &mut Self {
        self.emit(Instr::IXor)
    }
    /// f32 multiply.
    pub fn fmul(&mut self) -> &mut Self {
        self.emit(Instr::FMul)
    }

    // ---- control flow ----

    /// Unconditional jump to a label.
    pub fn goto(&mut self, l: Label) -> &mut Self {
        self.emit_branch(Instr::Goto(u32::MAX), l)
    }
    /// Branch if popped i32 satisfies `cond` against zero.
    pub fn if_i(&mut self, cond: Cond, l: Label) -> &mut Self {
        self.emit_branch(Instr::IfI(cond, u32::MAX), l)
    }
    /// Branch comparing two popped i32s.
    pub fn if_icmp(&mut self, cond: Cond, l: Label) -> &mut Self {
        self.emit_branch(Instr::IfICmp(cond, u32::MAX), l)
    }

    // ---- objects / arrays ----

    /// Allocate an object.
    pub fn new_object(&mut self, c: ClassId) -> &mut Self {
        self.emit(Instr::New(c))
    }
    /// Load an instance field.
    pub fn get_field(&mut self, f: FieldId) -> &mut Self {
        self.emit(Instr::GetField(f))
    }
    /// Store an instance field.
    pub fn put_field(&mut self, f: FieldId) -> &mut Self {
        self.emit(Instr::PutField(f))
    }
    /// Load a static field.
    pub fn get_static(&mut self, f: FieldId) -> &mut Self {
        self.emit(Instr::GetStatic(f))
    }
    /// Store a static field.
    pub fn put_static(&mut self, f: FieldId) -> &mut Self {
        self.emit(Instr::PutStatic(f))
    }
    /// Allocate an array (length on stack).
    pub fn new_array(&mut self, e: ElemTy) -> &mut Self {
        self.emit(Instr::NewArray(e))
    }
    /// Push array length.
    pub fn array_length(&mut self) -> &mut Self {
        self.emit(Instr::ArrayLength)
    }
    /// Load an array element.
    pub fn aload(&mut self, e: ElemTy) -> &mut Self {
        self.emit(Instr::ALoad(e))
    }
    /// Store an array element.
    pub fn astore(&mut self, e: ElemTy) -> &mut Self {
        self.emit(Instr::AStore(e))
    }

    // ---- calls ----

    /// Direct call.
    pub fn invoke_static(&mut self, m: MethodId) -> &mut Self {
        self.emit(Instr::InvokeStatic(m))
    }
    /// Virtual call through the receiver's vtable.
    pub fn invoke_virtual(&mut self, m: MethodId) -> &mut Self {
        self.emit(Instr::InvokeVirtual(m))
    }
    /// Return void.
    pub fn return_void(&mut self) -> &mut Self {
        self.emit(Instr::Return)
    }
    /// Return the top of stack.
    pub fn return_value(&mut self) -> &mut Self {
        self.emit(Instr::ReturnValue)
    }

    // ---- sync ----

    /// Acquire the monitor of the popped object.
    pub fn monitor_enter(&mut self) -> &mut Self {
        self.emit(Instr::MonitorEnter)
    }
    /// Release the monitor of the popped object.
    pub fn monitor_exit(&mut self) -> &mut Self {
        self.emit(Instr::MonitorExit)
    }

    /// Resolve all labels and return the instruction vector.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never placed — that is a host
    /// program bug (malformed builder usage), not a guest error.
    pub fn finish(self) -> Vec<Instr> {
        let MethodBuilder {
            mut code,
            labels,
            fixups,
        } = self;
        for (idx, l) in fixups {
            let target = labels[l.0].unwrap_or_else(|| panic!("unplaced label in branch @{idx}"));
            code[idx] = code[idx].with_target(target);
        }
        code
    }
}

impl Default for MethodBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_patch() {
        let mut b = MethodBuilder::new();
        let fwd = b.label();
        let back = b.label();
        b.place(back);
        b.const_i32(0);
        b.if_i(Cond::Eq, fwd);
        b.goto(back);
        b.place(fwd);
        b.return_void();
        let code = b.finish();
        assert_eq!(code[1], Instr::IfI(Cond::Eq, 3));
        assert_eq!(code[2], Instr::Goto(0));
        assert_eq!(code[3], Instr::Return);
    }

    #[test]
    #[should_panic(expected = "unplaced label")]
    fn unplaced_label_panics() {
        let mut b = MethodBuilder::new();
        let l = b.label();
        b.goto(l);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "label placed twice")]
    fn double_placement_panics() {
        let mut b = MethodBuilder::new();
        let l = b.label();
        b.place(l);
        b.const_i32(0);
        b.place(l);
    }

    #[test]
    fn fluent_chain_builds_expected_sequence() {
        let mut b = MethodBuilder::new();
        b.const_i32(2).const_i32(3).iadd().return_value();
        let code = b.finish();
        assert_eq!(
            code,
            vec![
                Instr::ConstI32(2),
                Instr::ConstI32(3),
                Instr::IAdd,
                Instr::ReturnValue
            ]
        );
    }

    #[test]
    fn here_reports_position() {
        let mut b = MethodBuilder::new();
        assert_eq!(b.here(), 0);
        b.const_i32(1);
        assert_eq!(b.here(), 1);
    }
}

//! AST → bytecode compilation.

use crate::ast::{BinOp, CmpOp, Expr, Stmt};
use hera_isa::builder::Label;
use hera_isa::{
    ClassId, Cond, ElemTy, Instr, MethodBody, MethodBuilder, MethodId, ProgramBuilder, Ty,
};
use std::collections::HashMap;
use std::fmt;

/// Compilation errors.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// Read or assignment of an undeclared local.
    UnknownLocal(String),
    /// A local was declared twice.
    DuplicateLocal(String),
    /// Operand/operand or value/target type mismatch.
    TypeMismatch {
        /// What the context required.
        expected: String,
        /// What the expression produced.
        found: String,
        /// Where.
        context: &'static str,
    },
    /// A void call used where a value is needed.
    VoidValue,
    /// Call arity does not match the signature.
    BadArity {
        /// Callee.
        method: MethodId,
        /// Expected parameter count.
        expected: usize,
        /// Supplied argument count.
        found: usize,
    },
    /// Indexing a non-array expression (add a `cast` to an array type).
    NotAnArray(&'static str),
    /// Unsupported cast.
    BadCast(String),
    /// Return statement disagrees with the signature.
    BadReturn,
    /// Static/virtual call mismatch.
    BadCallKind,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownLocal(n) => write!(f, "unknown local `{n}`"),
            CompileError::DuplicateLocal(n) => write!(f, "duplicate local `{n}`"),
            CompileError::TypeMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, found {found}"
            ),
            CompileError::VoidValue => write!(f, "void call used as a value"),
            CompileError::BadArity {
                method,
                expected,
                found,
            } => write!(
                f,
                "method #{} takes {expected} arguments, {found} supplied",
                method.0
            ),
            CompileError::NotAnArray(ctx) => write!(f, "{ctx}: not an array (add a cast)"),
            CompileError::BadCast(msg) => write!(f, "bad cast: {msg}"),
            CompileError::BadReturn => write!(f, "return disagrees with signature"),
            CompileError::BadCallKind => write!(f, "static/virtual call mismatch"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Declare a static method with a placeholder body; supply the real one
/// with [`define`].
pub fn declare_static(
    pb: &mut ProgramBuilder,
    class: ClassId,
    name: &str,
    params: Vec<(&str, Ty)>,
    ret: Option<Ty>,
) -> MethodId {
    let tys = params.iter().map(|(_, t)| *t).collect();
    pb.add_static_method(
        class,
        name,
        tys,
        ret,
        0,
        MethodBody::Bytecode(vec![Instr::Return]),
    )
}

/// Declare a virtual method with a placeholder body. Slot 0 is the
/// receiver; name it (conventionally `"this"`) in the [`define`] call.
pub fn declare_virtual(
    pb: &mut ProgramBuilder,
    class: ClassId,
    name: &str,
    params: Vec<(&str, Ty)>,
    ret: Option<Ty>,
) -> MethodId {
    let tys = params.iter().map(|(_, t)| *t).collect();
    pb.add_virtual_method(
        class,
        name,
        tys,
        ret,
        0,
        MethodBody::Bytecode(vec![Instr::Return]),
    )
}

/// Compile `body` and attach it to a previously declared method.
///
/// `params` names the parameter slots, in order. For virtual methods,
/// include the receiver as the first entry, e.g. `("this", Ty::Ref(c))`.
pub fn define(
    pb: &mut ProgramBuilder,
    method: MethodId,
    params: Vec<(&str, Ty)>,
    body: Vec<Stmt>,
) -> Result<(), CompileError> {
    let (sig_params, ret, is_static, class) = {
        let (p, r, s, c) = pb.method_sig(method);
        (p.to_vec(), r, s, c)
    };
    // Sanity: parameter list must line up with the declaration.
    let expected_names = sig_params.len() + usize::from(!is_static);
    if params.len() != expected_names {
        return Err(CompileError::BadArity {
            method,
            expected: expected_names,
            found: params.len(),
        });
    }
    let _ = class;

    let mut ctx = Ctx {
        pb,
        mb: MethodBuilder::new(),
        locals: HashMap::new(),
        next_slot: 0,
        ret,
    };
    for (name, ty) in &params {
        ctx.declare_local(name, *ty)?;
    }
    for stmt in &body {
        ctx.stmt(stmt)?;
    }
    if ret.is_none() {
        ctx.mb.return_void();
    }
    let max_locals = ctx.next_slot;
    let code = ctx.mb.finish();
    pb.set_method_body(method, MethodBody::Bytecode(code), max_locals);
    Ok(())
}

fn widen(ty: Ty) -> Ty {
    match ty {
        Ty::Byte | Ty::Short => Ty::Int,
        other => other,
    }
}

fn compatible(target: Ty, value: Ty) -> bool {
    if target.is_ref() && value.is_ref() {
        return true; // class-insensitive, like the verifier
    }
    widen(target) == widen(value)
}

fn tname(ty: Ty) -> String {
    format!("{ty}")
}

struct Ctx<'a> {
    pb: &'a ProgramBuilder,
    mb: MethodBuilder,
    locals: HashMap<String, (u16, Ty)>,
    next_slot: u16,
    ret: Option<Ty>,
}

impl<'a> Ctx<'a> {
    fn declare_local(&mut self, name: &str, ty: Ty) -> Result<u16, CompileError> {
        if self.locals.contains_key(name) {
            return Err(CompileError::DuplicateLocal(name.to_string()));
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.locals.insert(name.to_string(), (slot, ty));
        Ok(slot)
    }

    fn lookup(&self, name: &str) -> Result<(u16, Ty), CompileError> {
        self.locals
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::UnknownLocal(name.to_string()))
    }

    // ---- expressions ----

    /// Compile an expression, pushing its value; returns its type.
    fn expr(&mut self, e: &Expr) -> Result<Ty, CompileError> {
        match e {
            Expr::I32(v) => {
                self.mb.const_i32(*v);
                Ok(Ty::Int)
            }
            Expr::I64(v) => {
                self.mb.const_i64(*v);
                Ok(Ty::Long)
            }
            Expr::F32(v) => {
                self.mb.const_f32(*v);
                Ok(Ty::Float)
            }
            Expr::F64(v) => {
                self.mb.const_f64(*v);
                Ok(Ty::Double)
            }
            Expr::Null => {
                self.mb.const_null();
                Ok(Ty::Ref(ClassId(0)))
            }
            Expr::Local(name) => {
                let (slot, ty) = self.lookup(name)?;
                self.mb.load(slot);
                Ok(widen(ty))
            }
            Expr::Bin(op, a, b) => self.bin(*op, a, b),
            Expr::Neg(x) => {
                let ty = self.expr(x)?;
                match widen(ty) {
                    Ty::Int => self.mb.emit(Instr::INeg),
                    Ty::Long => self.mb.emit(Instr::LNeg),
                    Ty::Float => self.mb.emit(Instr::FNeg),
                    Ty::Double => self.mb.emit(Instr::DNeg),
                    other => {
                        return Err(CompileError::TypeMismatch {
                            expected: "numeric".into(),
                            found: tname(other),
                            context: "negation",
                        })
                    }
                };
                Ok(widen(ty))
            }
            Expr::Sqrt(x) => {
                let ty = self.expr(x)?;
                match widen(ty) {
                    Ty::Float => self.mb.emit(Instr::FSqrt),
                    Ty::Double => self.mb.emit(Instr::DSqrt),
                    other => {
                        return Err(CompileError::TypeMismatch {
                            expected: "float or double".into(),
                            found: tname(other),
                            context: "sqrt",
                        })
                    }
                };
                Ok(widen(ty))
            }
            Expr::Cmp(_, _, _) | Expr::AndAnd(_, _) | Expr::OrOr(_, _) | Expr::Not(_) => {
                // Materialise a 0/1 through branches.
                let l_false = self.mb.label();
                let l_end = self.mb.label();
                self.branch_if(e, l_false, false)?;
                self.mb.const_i32(1);
                self.mb.goto(l_end);
                self.mb.place(l_false);
                self.mb.const_i32(0);
                self.mb.place(l_end);
                Ok(Ty::Int)
            }
            Expr::Cast(to, x) => {
                let from = self.expr(x)?;
                self.cast(widen(from), *to)?;
                Ok(widen(*to))
            }
            Expr::Call(m, args) => {
                let ret = self.call(*m, None, args)?;
                ret.ok_or(CompileError::VoidValue)
            }
            Expr::CallVirtual(recv, m, args) => {
                let ret = self.call(*m, Some(recv), args)?;
                ret.ok_or(CompileError::VoidValue)
            }
            Expr::New(c) => {
                self.mb.new_object(*c);
                Ok(Ty::Ref(*c))
            }
            Expr::Field(obj, f) => {
                let oty = self.expr(obj)?;
                if !oty.is_ref() {
                    return Err(CompileError::TypeMismatch {
                        expected: "object".into(),
                        found: tname(oty),
                        context: "field read",
                    });
                }
                let (fty, is_static, _) = self.pb.field_facts(*f);
                if is_static {
                    return Err(CompileError::BadCallKind);
                }
                self.mb.get_field(*f);
                Ok(widen(fty))
            }
            Expr::Static(f) => {
                let (fty, is_static, _) = self.pb.field_facts(*f);
                if !is_static {
                    return Err(CompileError::BadCallKind);
                }
                self.mb.get_static(*f);
                Ok(widen(fty))
            }
            Expr::NewArray(e2, len) => {
                let lty = self.expr(len)?;
                if widen(lty) != Ty::Int {
                    return Err(CompileError::TypeMismatch {
                        expected: "int".into(),
                        found: tname(lty),
                        context: "array length",
                    });
                }
                self.mb.new_array(*e2);
                Ok(Ty::Array(*e2))
            }
            Expr::Index(arr, idx) => {
                let (aty, elem) = self.array_operand(arr)?;
                let _ = aty;
                let ity = self.expr(idx)?;
                if widen(ity) != Ty::Int {
                    return Err(CompileError::TypeMismatch {
                        expected: "int".into(),
                        found: tname(ity),
                        context: "array index",
                    });
                }
                self.mb.aload(elem);
                Ok(widen(elem_ty(elem)))
            }
            Expr::Length(arr) => {
                let ty = self.expr(arr)?;
                if !ty.is_ref() {
                    return Err(CompileError::NotAnArray("length"));
                }
                self.mb.array_length();
                Ok(Ty::Int)
            }
            Expr::InstanceOf(c, x) => {
                let ty = self.expr(x)?;
                if !ty.is_ref() {
                    return Err(CompileError::TypeMismatch {
                        expected: "reference".into(),
                        found: tname(ty),
                        context: "instanceof",
                    });
                }
                self.mb.emit(Instr::InstanceOf(*c));
                Ok(Ty::Int)
            }
        }
    }

    /// Compile an array-typed operand, returning its (array type, elem).
    fn array_operand(&mut self, arr: &Expr) -> Result<(Ty, ElemTy), CompileError> {
        let ty = self.expr(arr)?;
        match ty {
            Ty::Array(e) => Ok((ty, e)),
            _ => Err(CompileError::NotAnArray("array access")),
        }
    }

    fn bin(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Ty, CompileError> {
        let at = widen(self.expr(a)?);
        let bt = widen(self.expr(b)?);
        // Shift counts are ints even for long operands.
        let shift = matches!(op, BinOp::Shl | BinOp::Shr | BinOp::UShr);
        if shift {
            if bt != Ty::Int {
                return Err(CompileError::TypeMismatch {
                    expected: "int shift count".into(),
                    found: tname(bt),
                    context: "shift",
                });
            }
        } else if at != bt {
            return Err(CompileError::TypeMismatch {
                expected: tname(at),
                found: tname(bt),
                context: "binary operator",
            });
        }
        use BinOp::*;
        let instr = match (op, at) {
            (Add, Ty::Int) => Instr::IAdd,
            (Sub, Ty::Int) => Instr::ISub,
            (Mul, Ty::Int) => Instr::IMul,
            (Div, Ty::Int) => Instr::IDiv,
            (Rem, Ty::Int) => Instr::IRem,
            (And, Ty::Int) => Instr::IAnd,
            (Or, Ty::Int) => Instr::IOr,
            (Xor, Ty::Int) => Instr::IXor,
            (Shl, Ty::Int) => Instr::IShl,
            (Shr, Ty::Int) => Instr::IShr,
            (UShr, Ty::Int) => Instr::IUShr,
            (Add, Ty::Long) => Instr::LAdd,
            (Sub, Ty::Long) => Instr::LSub,
            (Mul, Ty::Long) => Instr::LMul,
            (Div, Ty::Long) => Instr::LDiv,
            (Rem, Ty::Long) => Instr::LRem,
            (And, Ty::Long) => Instr::LAnd,
            (Or, Ty::Long) => Instr::LOr,
            (Xor, Ty::Long) => Instr::LXor,
            (Shl, Ty::Long) => Instr::LShl,
            (Shr, Ty::Long) => Instr::LShr,
            (UShr, Ty::Long) => Instr::LUShr,
            (Add, Ty::Float) => Instr::FAdd,
            (Sub, Ty::Float) => Instr::FSub,
            (Mul, Ty::Float) => Instr::FMul,
            (Div, Ty::Float) => Instr::FDiv,
            (Add, Ty::Double) => Instr::DAdd,
            (Sub, Ty::Double) => Instr::DSub,
            (Mul, Ty::Double) => Instr::DMul,
            (Div, Ty::Double) => Instr::DDiv,
            (_, other) => {
                return Err(CompileError::TypeMismatch {
                    expected: "numeric operands".into(),
                    found: tname(other),
                    context: "binary operator",
                })
            }
        };
        self.mb.emit(instr);
        Ok(at)
    }

    fn cast(&mut self, from: Ty, to: Ty) -> Result<(), CompileError> {
        use Instr::*;
        if from == widen(to) && !matches!(to, Ty::Byte | Ty::Short) {
            return Ok(()); // identity
        }
        if from.is_ref() && to.is_ref() {
            return Ok(()); // type assertion only (e.g. ref → array)
        }
        let seq: &[Instr] = match (from, to) {
            (Ty::Int, Ty::Long) => &[I2L],
            (Ty::Int, Ty::Float) => &[I2F],
            (Ty::Int, Ty::Double) => &[I2D],
            (Ty::Int, Ty::Byte) => &[I2B],
            (Ty::Int, Ty::Short) => &[I2S],
            (Ty::Long, Ty::Int) => &[L2I],
            (Ty::Long, Ty::Float) => &[L2F],
            (Ty::Long, Ty::Double) => &[L2D],
            (Ty::Long, Ty::Byte) => &[L2I, I2B],
            (Ty::Long, Ty::Short) => &[L2I, I2S],
            (Ty::Float, Ty::Int) => &[F2I],
            (Ty::Float, Ty::Double) => &[F2D],
            (Ty::Float, Ty::Long) => &[F2D, D2L],
            (Ty::Float, Ty::Byte) => &[F2I, I2B],
            (Ty::Double, Ty::Int) => &[D2I],
            (Ty::Double, Ty::Long) => &[D2L],
            (Ty::Double, Ty::Float) => &[D2F],
            (Ty::Double, Ty::Byte) => &[D2I, I2B],
            (Ty::Double, Ty::Short) => &[D2I, I2S],
            (a, b) => {
                return Err(CompileError::BadCast(format!("{a} -> {b}")));
            }
        };
        for i in seq {
            self.mb.emit(*i);
        }
        Ok(())
    }

    /// Compile a call; returns `Ok(Some(ty))` for value-returning calls,
    /// `Ok(None)` for void.
    fn call(
        &mut self,
        m: MethodId,
        recv: Option<&Expr>,
        args: &[Expr],
    ) -> Result<Option<Ty>, CompileError> {
        let (params, ret, is_static, _class) = {
            let (p, r, s, c) = self.pb.method_sig(m);
            (p.to_vec(), r, s, c)
        };
        match (recv.is_some(), is_static) {
            (true, true) | (false, false) => return Err(CompileError::BadCallKind),
            _ => {}
        }
        if args.len() != params.len() {
            return Err(CompileError::BadArity {
                method: m,
                expected: params.len(),
                found: args.len(),
            });
        }
        if let Some(r) = recv {
            let rty = self.expr(r)?;
            if !rty.is_ref() {
                return Err(CompileError::TypeMismatch {
                    expected: "object receiver".into(),
                    found: tname(rty),
                    context: "virtual call",
                });
            }
        }
        for (arg, want) in args.iter().zip(&params) {
            let got = self.expr(arg)?;
            if !compatible(*want, got) {
                return Err(CompileError::TypeMismatch {
                    expected: tname(*want),
                    found: tname(got),
                    context: "call argument",
                });
            }
        }
        if is_static {
            self.mb.invoke_static(m);
        } else {
            self.mb.invoke_virtual(m);
        }
        Ok(ret.map(widen))
    }

    // ---- conditions (branch fusion) ----

    /// Branch to `target` when `cond` evaluates to `when_true`, fusing
    /// comparisons, `!` and the short-circuit operators into branches.
    fn branch_if(
        &mut self,
        cond: &Expr,
        target: Label,
        when_true: bool,
    ) -> Result<(), CompileError> {
        match cond {
            Expr::Cmp(op, a, b) => self.cmp_branch(*op, a, b, target, when_true),
            Expr::Not(x) => self.branch_if(x, target, !when_true),
            Expr::AndAnd(a, b) | Expr::OrOr(a, b) => {
                // `a` alone decides `a && b` when false, `a || b` when true.
                let decides = matches!(cond, Expr::OrOr(..));
                if when_true == decides {
                    self.branch_if(a, target, when_true)?;
                    self.branch_if(b, target, when_true)
                } else {
                    let l_past = self.mb.label();
                    self.branch_if(a, l_past, decides)?;
                    self.branch_if(b, target, when_true)?;
                    self.mb.place(l_past);
                    Ok(())
                }
            }
            other => {
                let ty = self.expr(other)?;
                if widen(ty) != Ty::Int {
                    return Err(CompileError::TypeMismatch {
                        expected: "int condition".into(),
                        found: tname(ty),
                        context: "condition",
                    });
                }
                let nonzero = if when_true { Cond::Ne } else { Cond::Eq };
                self.mb.if_i(nonzero, target);
                Ok(())
            }
        }
    }

    fn cmp_branch(
        &mut self,
        op: CmpOp,
        a: &Expr,
        b: &Expr,
        target: Label,
        when_true: bool,
    ) -> Result<(), CompileError> {
        let at = widen(self.expr(a)?);
        let bt = widen(self.expr(b)?);
        let cond = match op {
            CmpOp::Eq => Cond::Eq,
            CmpOp::Ne => Cond::Ne,
            CmpOp::Lt => Cond::Lt,
            CmpOp::Le => Cond::Le,
            CmpOp::Gt => Cond::Gt,
            CmpOp::Ge => Cond::Ge,
        };
        let cond = if when_true { cond } else { cond.negate() };
        if at.is_ref() && bt.is_ref() {
            let branch = match cond {
                Cond::Eq => Instr::IfACmpEq(u32::MAX),
                Cond::Ne => Instr::IfACmpNe(u32::MAX),
                _ => {
                    return Err(CompileError::TypeMismatch {
                        expected: "== or != on references".into(),
                        found: format!("{op:?}"),
                        context: "reference comparison",
                    })
                }
            };
            self.mb.emit_branch(branch, target);
            return Ok(());
        }
        if at != bt {
            return Err(CompileError::TypeMismatch {
                expected: tname(at),
                found: tname(bt),
                context: "comparison",
            });
        }
        match at {
            Ty::Int => {
                self.mb.if_icmp(cond, target);
            }
            Ty::Long => {
                self.mb.emit(Instr::LCmp);
                self.mb.if_i(cond, target);
            }
            Ty::Float => {
                // javac convention: < and <= use fcmpg so NaN fails.
                let i = match op {
                    CmpOp::Lt | CmpOp::Le => Instr::FCmpG,
                    _ => Instr::FCmpL,
                };
                self.mb.emit(i);
                self.mb.if_i(cond, target);
            }
            Ty::Double => {
                let i = match op {
                    CmpOp::Lt | CmpOp::Le => Instr::DCmpG,
                    _ => Instr::DCmpL,
                };
                self.mb.emit(i);
                self.mb.if_i(cond, target);
            }
            other => {
                return Err(CompileError::TypeMismatch {
                    expected: "comparable".into(),
                    found: tname(other),
                    context: "comparison",
                })
            }
        }
        Ok(())
    }

    // ---- statements ----

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Let(name, init) => {
                let ty = self.expr(init)?;
                let slot = self.declare_local(name, ty)?;
                self.mb.store(slot);
                Ok(())
            }
            Stmt::Assign(name, value) => {
                let (slot, lty) = self.lookup(name)?;
                // iinc peephole: x = x + c
                if widen(lty) == Ty::Int {
                    if let Expr::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) = value {
                        if let (Expr::Local(n2), Expr::I32(c)) = (a.as_ref(), b.as_ref()) {
                            if n2 == name && *c >= -32768 && *c <= 32767 {
                                let delta = if *op == BinOp::Add { *c } else { -*c };
                                self.mb.iinc(slot, delta as i16);
                                return Ok(());
                            }
                        }
                    }
                }
                let vty = self.expr(value)?;
                if !compatible(lty, vty) {
                    return Err(CompileError::TypeMismatch {
                        expected: tname(lty),
                        found: tname(vty),
                        context: "assignment",
                    });
                }
                self.mb.store(slot);
                Ok(())
            }
            Stmt::SetField(obj, f, value) => {
                let oty = self.expr(obj)?;
                if !oty.is_ref() {
                    return Err(CompileError::TypeMismatch {
                        expected: "object".into(),
                        found: tname(oty),
                        context: "field store",
                    });
                }
                let (fty, is_static, _) = self.pb.field_facts(*f);
                if is_static {
                    return Err(CompileError::BadCallKind);
                }
                let vty = self.expr(value)?;
                if !compatible(fty, vty) {
                    return Err(CompileError::TypeMismatch {
                        expected: tname(fty),
                        found: tname(vty),
                        context: "field store",
                    });
                }
                self.mb.put_field(*f);
                Ok(())
            }
            Stmt::SetStatic(f, value) => {
                let (fty, is_static, _) = self.pb.field_facts(*f);
                if !is_static {
                    return Err(CompileError::BadCallKind);
                }
                let vty = self.expr(value)?;
                if !compatible(fty, vty) {
                    return Err(CompileError::TypeMismatch {
                        expected: tname(fty),
                        found: tname(vty),
                        context: "static store",
                    });
                }
                self.mb.put_static(*f);
                Ok(())
            }
            Stmt::SetIndex(arr, idx, value) => {
                let (_, elem) = self.array_operand(arr)?;
                let ity = self.expr(idx)?;
                if widen(ity) != Ty::Int {
                    return Err(CompileError::TypeMismatch {
                        expected: "int".into(),
                        found: tname(ity),
                        context: "array index",
                    });
                }
                let vty = self.expr(value)?;
                if !compatible(elem_ty(elem), vty) {
                    return Err(CompileError::TypeMismatch {
                        expected: tname(elem_ty(elem)),
                        found: tname(vty),
                        context: "array store",
                    });
                }
                self.mb.astore(elem);
                Ok(())
            }
            Stmt::If(cond, then_body, else_body) => {
                let l_else = self.mb.label();
                let l_end = self.mb.label();
                self.branch_if(cond, l_else, false)?;
                for st in then_body {
                    self.stmt(st)?;
                }
                self.mb.goto(l_end);
                self.mb.place(l_else);
                for st in else_body {
                    self.stmt(st)?;
                }
                self.mb.place(l_end);
                Ok(())
            }
            Stmt::While(cond, body) => {
                let l_top = self.mb.label();
                let l_end = self.mb.label();
                self.mb.place(l_top);
                self.branch_if(cond, l_end, false)?;
                for st in body {
                    self.stmt(st)?;
                }
                self.mb.goto(l_top);
                self.mb.place(l_end);
                Ok(())
            }
            Stmt::For(init, cond, step, body) => {
                self.stmt(init)?;
                let l_top = self.mb.label();
                let l_end = self.mb.label();
                self.mb.place(l_top);
                self.branch_if(cond, l_end, false)?;
                for st in body {
                    self.stmt(st)?;
                }
                self.stmt(step)?;
                self.mb.goto(l_top);
                self.mb.place(l_end);
                Ok(())
            }
            Stmt::Expr(e) => match e {
                Expr::Call(m, args) => {
                    if self.call(*m, None, args)?.is_some() {
                        self.mb.pop();
                    }
                    Ok(())
                }
                Expr::CallVirtual(recv, m, args) => {
                    if self.call(*m, Some(recv), args)?.is_some() {
                        self.mb.pop();
                    }
                    Ok(())
                }
                other => {
                    self.expr(other)?;
                    self.mb.pop();
                    Ok(())
                }
            },
            Stmt::Return(value) => match (value, self.ret) {
                (None, None) => {
                    self.mb.return_void();
                    Ok(())
                }
                (Some(e), Some(want)) => {
                    let got = self.expr(e)?;
                    if !compatible(want, got) {
                        return Err(CompileError::TypeMismatch {
                            expected: tname(want),
                            found: tname(got),
                            context: "return",
                        });
                    }
                    self.mb.return_value();
                    Ok(())
                }
                _ => Err(CompileError::BadReturn),
            },
            Stmt::Sync(obj, body) => {
                let oty = self.expr(obj)?;
                if !oty.is_ref() {
                    return Err(CompileError::TypeMismatch {
                        expected: "object".into(),
                        found: tname(oty),
                        context: "synchronized",
                    });
                }
                // Keep the lock object in a fresh slot for the exit.
                let slot = self.next_slot;
                self.next_slot += 1;
                self.mb.store(slot);
                self.mb.load(slot);
                self.mb.monitor_enter();
                for st in body {
                    self.stmt(st)?;
                }
                self.mb.load(slot);
                self.mb.monitor_exit();
                Ok(())
            }
        }
    }
}

fn elem_ty(e: ElemTy) -> Ty {
    match e {
        ElemTy::Byte => Ty::Byte,
        ElemTy::Short => Ty::Short,
        ElemTy::Int => Ty::Int,
        ElemTy::Long => Ty::Long,
        ElemTy::Float => Ty::Float,
        ElemTy::Double => Ty::Double,
        ElemTy::Ref => Ty::Ref(ClassId(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use hera_isa::{verify_program, ElemTy};

    fn one_fn(
        params: Vec<(&str, Ty)>,
        ret: Option<Ty>,
        body: Vec<Stmt>,
    ) -> Result<hera_isa::Program, CompileError> {
        let mut pb = ProgramBuilder::new();
        let cls = pb.add_class("T", None);
        let m = declare_static(&mut pb, cls, "f", params.clone(), ret);
        define(&mut pb, m, params, body)?;
        Ok(pb.finish().unwrap())
    }

    #[test]
    fn compiled_functions_verify() {
        let p = one_fn(
            vec![("n", Ty::Int)],
            Some(Ty::Int),
            vec![
                Stmt::Let("acc".into(), i32c(0)),
                for_range(
                    "i",
                    i32c(0),
                    local("n"),
                    vec![Stmt::Assign("acc".into(), add(local("acc"), local("i")))],
                ),
                Stmt::Return(Some(local("acc"))),
            ],
        )
        .unwrap();
        verify_program(&p).unwrap();
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let err = one_fn(
            vec![],
            Some(Ty::Int),
            vec![Stmt::Return(Some(add(i32c(1), f32c(2.0))))],
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::TypeMismatch { .. }));
    }

    #[test]
    fn unknown_local_is_rejected() {
        let err = one_fn(vec![], None, vec![Stmt::Expr(local("ghost"))]).unwrap_err();
        assert_eq!(err, CompileError::UnknownLocal("ghost".into()));
    }

    #[test]
    fn duplicate_let_is_rejected() {
        let err = one_fn(
            vec![],
            None,
            vec![
                Stmt::Let("x".into(), i32c(1)),
                Stmt::Let("x".into(), i32c(2)),
            ],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::DuplicateLocal("x".into()));
    }

    #[test]
    fn return_mismatch_is_rejected() {
        let err = one_fn(vec![], Some(Ty::Int), vec![Stmt::Return(None)]).unwrap_err();
        assert_eq!(err, CompileError::BadReturn);
    }

    #[test]
    fn void_call_as_value_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.add_class("T", None);
        let v = declare_static(&mut pb, cls, "v", vec![], None);
        define(&mut pb, v, vec![], vec![]).unwrap();
        let m = declare_static(&mut pb, cls, "f", vec![], Some(Ty::Int));
        let err = define(
            &mut pb,
            m,
            vec![],
            vec![Stmt::Return(Some(call(v, vec![])))],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::VoidValue);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.add_class("T", None);
        let g = declare_static(&mut pb, cls, "g", vec![("a", Ty::Int)], None);
        define(&mut pb, g, vec![("a", Ty::Int)], vec![]).unwrap();
        let m = declare_static(&mut pb, cls, "f", vec![], None);
        let err = define(
            &mut pb,
            m,
            vec![],
            vec![Stmt::Expr(call(g, vec![i32c(1), i32c(2)]))],
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::BadArity { .. }));
    }

    #[test]
    fn iinc_peephole_fires() {
        let p = one_fn(
            vec![],
            Some(Ty::Int),
            vec![
                Stmt::Let("x".into(), i32c(0)),
                Stmt::Assign("x".into(), add(local("x"), i32c(5))),
                Stmt::Assign("x".into(), sub(local("x"), i32c(2))),
                Stmt::Return(Some(local("x"))),
            ],
        )
        .unwrap();
        let code = p
            .method(p.method_by_name("T", "f", 0).unwrap())
            .code()
            .unwrap();
        let incs: Vec<_> = code
            .iter()
            .filter(|i| matches!(i, Instr::IInc(_, _)))
            .collect();
        assert_eq!(incs.len(), 2);
        assert!(matches!(incs[0], Instr::IInc(0, 5)));
        assert!(matches!(incs[1], Instr::IInc(0, -2)));
    }

    #[test]
    fn short_circuit_and_or_compile_and_verify() {
        let p = one_fn(
            vec![("a", Ty::Int), ("b", Ty::Int)],
            Some(Ty::Int),
            vec![Stmt::If(
                oror(
                    andand(cmp_gt(local("a"), i32c(0)), cmp_lt(local("b"), i32c(10))),
                    cmp_eq(local("a"), local("b")),
                ),
                vec![Stmt::Return(Some(i32c(1)))],
                vec![Stmt::Return(Some(i32c(0)))],
            )],
        )
        .unwrap();
        verify_program(&p).unwrap();
    }

    #[test]
    fn comparisons_as_values_materialise() {
        let p = one_fn(
            vec![("a", Ty::Float)],
            Some(Ty::Int),
            vec![Stmt::Return(Some(cmp_lt(local("a"), f32c(1.0))))],
        )
        .unwrap();
        verify_program(&p).unwrap();
        // Float < uses fcmpg (NaN must not satisfy <).
        let code = p
            .method(p.method_by_name("T", "f", 1).unwrap())
            .code()
            .unwrap();
        assert!(code.iter().any(|i| matches!(i, Instr::FCmpG)));
    }

    #[test]
    fn sync_blocks_pair_enter_and_exit() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.add_class("T", None);
        let obj = pb.add_class("Lock", None);
        let m = declare_static(&mut pb, cls, "f", vec![("o", Ty::Ref(obj))], None);
        define(
            &mut pb,
            m,
            vec![("o", Ty::Ref(obj))],
            vec![Stmt::Sync(local("o"), vec![Stmt::Expr(i32c(1))])],
        )
        .unwrap();
        let p = pb.finish().unwrap();
        verify_program(&p).unwrap();
        let code = p
            .method(p.method_by_name("T", "f", 1).unwrap())
            .code()
            .unwrap();
        let enters = code
            .iter()
            .filter(|i| matches!(i, Instr::MonitorEnter))
            .count();
        let exits = code
            .iter()
            .filter(|i| matches!(i, Instr::MonitorExit))
            .count();
        assert_eq!((enters, exits), (1, 1));
    }

    #[test]
    fn casts_cover_the_numeric_matrix() {
        for (from, to) in [
            (Ty::Int, Ty::Long),
            (Ty::Int, Ty::Double),
            (Ty::Long, Ty::Float),
            (Ty::Float, Ty::Long),
            (Ty::Double, Ty::Short),
            (Ty::Long, Ty::Byte),
        ] {
            let init: Expr = match from {
                Ty::Int => i32c(1),
                Ty::Long => i64c(1),
                Ty::Float => f32c(1.0),
                Ty::Double => f64c(1.0),
                _ => unreachable!(),
            };
            let p = one_fn(
                vec![],
                None,
                vec![
                    Stmt::Let("x".into(), init),
                    Stmt::Expr(cast(to, local("x"))),
                ],
            )
            .unwrap();
            verify_program(&p).unwrap();
        }
    }

    #[test]
    fn ref_array_elements_need_cast_to_index() {
        // Indexing a Ref-typed expression fails…
        let err = one_fn(
            vec![("a", Ty::Array(ElemTy::Ref))],
            Some(Ty::Int),
            vec![Stmt::Return(Some(index(
                index(local("a"), i32c(0)),
                i32c(0),
            )))],
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::NotAnArray(_)));
        // …until a cast re-types it as an array.
        let p = one_fn(
            vec![("a", Ty::Array(ElemTy::Ref))],
            Some(Ty::Int),
            vec![Stmt::Return(Some(index(
                cast(Ty::Array(ElemTy::Int), index(local("a"), i32c(0))),
                i32c(0),
            )))],
        )
        .unwrap();
        verify_program(&p).unwrap();
    }
}

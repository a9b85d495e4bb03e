//! The program container: flat class/method/field tables with symbolic
//! resolution, vtable construction and subtype queries.

use crate::class::{Annotation, ClassDef, FieldDef, MethodBody, MethodDef, NativeId, NativeKind};
use crate::types::Ty;
use std::collections::HashMap;
use std::fmt;

/// Index of a class in [`Program::classes`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClassId(pub u16);

/// Index of a method in [`Program::methods`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MethodId(pub u32);

/// Index of a field in [`Program::fields`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FieldId(pub u32);

/// Errors raised while building or resolving a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ResolveError {
    /// A class name was declared twice.
    DuplicateClass(String),
    /// A field name was declared twice in the same class.
    DuplicateField(String),
    /// A method (name, arity) pair was declared twice in the same class.
    DuplicateMethod(String),
    /// Lookup of an undeclared class.
    UnknownClass(String),
    /// Lookup of an undeclared field.
    UnknownField(String),
    /// Lookup of an undeclared method.
    UnknownMethod(String),
    /// An override's signature does not match the overridden method.
    SignatureMismatch(String),
    /// The designated entry point is missing or not a static method.
    BadEntryPoint(String),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::DuplicateClass(n) => write!(f, "duplicate class `{n}`"),
            ResolveError::DuplicateField(n) => write!(f, "duplicate field `{n}`"),
            ResolveError::DuplicateMethod(n) => write!(f, "duplicate method `{n}`"),
            ResolveError::UnknownClass(n) => write!(f, "unknown class `{n}`"),
            ResolveError::UnknownField(n) => write!(f, "unknown field `{n}`"),
            ResolveError::UnknownMethod(n) => write!(f, "unknown method `{n}`"),
            ResolveError::SignatureMismatch(n) => {
                write!(f, "override signature mismatch for `{n}`")
            }
            ResolveError::BadEntryPoint(n) => write!(f, "bad entry point `{n}`"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// A fully resolved guest program.
///
/// All symbolic references have been replaced by direct indices, vtables
/// are built, and the program is ready for verification and compilation.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All classes; `ClassId` indexes this vector.
    pub classes: Vec<ClassDef>,
    /// All methods; `MethodId` indexes this vector.
    pub methods: Vec<MethodDef>,
    /// All fields; `FieldId` indexes this vector.
    pub fields: Vec<FieldDef>,
    /// The entry point (a static method with no parameters), if set.
    pub entry: Option<MethodId>,
    name_to_class: HashMap<String, ClassId>,
}

impl Program {
    /// The class definition for an id.
    #[inline]
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// The method definition for an id.
    #[inline]
    pub fn method(&self, id: MethodId) -> &MethodDef {
        &self.methods[id.0 as usize]
    }

    /// The field definition for an id.
    #[inline]
    pub fn field(&self, id: FieldId) -> &FieldDef {
        &self.fields[id.0 as usize]
    }

    /// Look a class up by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.name_to_class.get(name).copied()
    }

    /// Look up a method by class name, method name and arity (parameter
    /// count excluding the receiver).
    pub fn method_by_name(&self, class: &str, method: &str, arity: usize) -> Option<MethodId> {
        let cid = self.class_by_name(class)?;
        self.class(cid)
            .methods
            .iter()
            .copied()
            .find(|&m| self.method(m).name == method && self.method(m).params.len() == arity)
    }

    /// Look up an instance or static field by class and field name,
    /// searching superclasses for instance fields.
    pub fn field_by_name(&self, class: &str, field: &str) -> Option<FieldId> {
        let mut cur = self.class_by_name(class);
        while let Some(cid) = cur {
            let c = self.class(cid);
            for &fid in c.instance_fields.iter().chain(&c.static_fields) {
                if self.field(fid).name == field {
                    return Some(fid);
                }
            }
            cur = c.super_class;
        }
        None
    }

    /// Whether `sub` is `sup` or a (transitive) subclass of it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).super_class;
        }
        false
    }

    /// All instance fields of a class, including inherited ones, in
    /// layout order (superclass fields first, as the JVM lays them out).
    pub fn all_instance_fields(&self, class: ClassId) -> Vec<FieldId> {
        let mut chain = Vec::new();
        let mut cur = Some(class);
        while let Some(c) = cur {
            chain.push(c);
            cur = self.class(c).super_class;
        }
        let mut out = Vec::new();
        for &c in chain.iter().rev() {
            out.extend_from_slice(&self.class(c).instance_fields);
        }
        out
    }
}

/// Pending method registration inside the builder.
struct PendingMethod {
    def: MethodDef,
}

/// Builds a [`Program`] from class/field/method declarations, resolving
/// names, assigning ids, and computing vtables (override-by-name+arity,
/// single inheritance).
///
/// # Examples
///
/// ```
/// use hera_isa::{ProgramBuilder, Instr, Ty, MethodBody};
///
/// let mut b = ProgramBuilder::new();
/// let c = b.add_class("Main", None);
/// b.add_static_method(
///     c, "main", vec![], Some(Ty::Int), 1,
///     MethodBody::Bytecode(vec![Instr::ConstI32(42), Instr::ReturnValue]),
/// );
/// let program = b.finish_with_entry("Main", "main").unwrap();
/// assert!(program.entry.is_some());
/// ```
pub struct ProgramBuilder {
    classes: Vec<ClassDef>,
    fields: Vec<FieldDef>,
    pending: Vec<PendingMethod>,
    name_to_class: HashMap<String, ClassId>,
}

impl ProgramBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        ProgramBuilder {
            classes: Vec::new(),
            fields: Vec::new(),
            pending: Vec::new(),
            name_to_class: HashMap::new(),
        }
    }

    /// Declare a class. The superclass, if any, must already be declared.
    pub fn add_class(&mut self, name: &str, super_class: Option<ClassId>) -> ClassId {
        assert!(
            !self.name_to_class.contains_key(name),
            "duplicate class `{name}`"
        );
        let id = ClassId(self.classes.len() as u16);
        self.classes.push(ClassDef {
            name: name.to_string(),
            super_class,
            instance_fields: Vec::new(),
            static_fields: Vec::new(),
            methods: Vec::new(),
            vtable: Vec::new(),
        });
        self.name_to_class.insert(name.to_string(), id);
        id
    }

    /// Declare an instance field on a class.
    pub fn add_field(&mut self, class: ClassId, name: &str, ty: Ty) -> FieldId {
        self.add_field_inner(class, name, ty, false, false)
    }

    /// Declare a volatile instance field on a class.
    pub fn add_volatile_field(&mut self, class: ClassId, name: &str, ty: Ty) -> FieldId {
        self.add_field_inner(class, name, ty, false, true)
    }

    /// Declare a static field on a class.
    pub fn add_static_field(&mut self, class: ClassId, name: &str, ty: Ty) -> FieldId {
        self.add_field_inner(class, name, ty, true, false)
    }

    /// Declare a volatile static field on a class.
    pub fn add_volatile_static_field(&mut self, class: ClassId, name: &str, ty: Ty) -> FieldId {
        self.add_field_inner(class, name, ty, true, true)
    }

    fn add_field_inner(
        &mut self,
        class: ClassId,
        name: &str,
        ty: Ty,
        is_static: bool,
        volatile: bool,
    ) -> FieldId {
        let id = FieldId(self.fields.len() as u32);
        self.fields.push(FieldDef {
            name: name.to_string(),
            class,
            ty,
            is_static,
            volatile,
        });
        let c = &mut self.classes[class.0 as usize];
        if is_static {
            c.static_fields.push(id);
        } else {
            c.instance_fields.push(id);
        }
        id
    }

    /// Declare a static method.
    pub fn add_static_method(
        &mut self,
        class: ClassId,
        name: &str,
        params: Vec<Ty>,
        ret: Option<Ty>,
        max_locals: u16,
        body: MethodBody,
    ) -> MethodId {
        self.add_method_inner(class, name, params, ret, true, max_locals, body, vec![])
    }

    /// Declare a virtual (instance) method.
    pub fn add_virtual_method(
        &mut self,
        class: ClassId,
        name: &str,
        params: Vec<Ty>,
        ret: Option<Ty>,
        max_locals: u16,
        body: MethodBody,
    ) -> MethodId {
        self.add_method_inner(class, name, params, ret, false, max_locals, body, vec![])
    }

    /// Declare a static method with behavioural annotations.
    #[allow(clippy::too_many_arguments)]
    pub fn add_annotated_static_method(
        &mut self,
        class: ClassId,
        name: &str,
        params: Vec<Ty>,
        ret: Option<Ty>,
        max_locals: u16,
        body: MethodBody,
        annotations: Vec<Annotation>,
    ) -> MethodId {
        self.add_method_inner(
            class,
            name,
            params,
            ret,
            true,
            max_locals,
            body,
            annotations,
        )
    }

    /// Declare a native method (host-implemented; see `hera-core`'s
    /// native bridge).
    #[allow(clippy::too_many_arguments)]
    pub fn add_native_method(
        &mut self,
        class: ClassId,
        name: &str,
        params: Vec<Ty>,
        ret: Option<Ty>,
        native: NativeId,
        kind: NativeKind,
    ) -> MethodId {
        let id = self.add_method_inner(
            class,
            name,
            params,
            ret,
            true,
            0,
            MethodBody::Native(native),
            vec![],
        );
        self.pending[id.0 as usize].def.native_kind = Some(kind);
        id
    }

    /// Attach annotations to an already-declared method.
    pub fn annotate(&mut self, method: MethodId, annotation: Annotation) {
        self.pending[method.0 as usize]
            .def
            .annotations
            .push(annotation);
    }

    /// Replace a declared method's body (two-phase authoring: declare
    /// all signatures first so calls can reference ids, then supply
    /// bodies — this is how `hera-frontend` handles mutual recursion).
    pub fn set_method_body(&mut self, method: MethodId, body: MethodBody, max_locals: u16) {
        let def = &mut self.pending[method.0 as usize].def;
        def.body = body;
        def.max_locals = max_locals;
    }

    /// Signature of a declared (possibly not yet finished) method:
    /// `(params, ret, is_static, class)`.
    pub fn method_sig(&self, method: MethodId) -> (&[Ty], Option<Ty>, bool, ClassId) {
        let def = &self.pending[method.0 as usize].def;
        (&def.params, def.ret, def.is_static, def.class)
    }

    /// Facts about a declared field: `(type, is_static, volatile)`.
    pub fn field_facts(&self, field: FieldId) -> (Ty, bool, bool) {
        let f = &self.fields[field.0 as usize];
        (f.ty, f.is_static, f.volatile)
    }

    /// Whether a declared method is virtually dispatchable (instance).
    pub fn is_virtual(&self, method: MethodId) -> bool {
        !self.pending[method.0 as usize].def.is_static
    }

    #[allow(clippy::too_many_arguments)]
    fn add_method_inner(
        &mut self,
        class: ClassId,
        name: &str,
        params: Vec<Ty>,
        ret: Option<Ty>,
        is_static: bool,
        max_locals: u16,
        body: MethodBody,
        annotations: Vec<Annotation>,
    ) -> MethodId {
        let id = MethodId(self.pending.len() as u32);
        self.pending.push(PendingMethod {
            def: MethodDef {
                name: name.to_string(),
                class,
                params,
                ret,
                is_static,
                max_locals,
                body,
                annotations,
                vtable_slot: None,
                native_kind: None,
            },
        });
        self.classes[class.0 as usize].methods.push(id);
        id
    }

    /// Finalise the program: validate uniqueness, build vtables.
    pub fn finish(self) -> Result<Program, ResolveError> {
        let ProgramBuilder {
            classes,
            fields,
            pending,
            name_to_class,
        } = self;
        let mut methods: Vec<MethodDef> = pending.into_iter().map(|p| p.def).collect();
        let mut classes = classes;

        // Uniqueness checks.
        for class in &classes {
            let mut seen_fields = HashMap::new();
            for &fid in class.instance_fields.iter().chain(&class.static_fields) {
                let f = &fields[fid.0 as usize];
                if seen_fields.insert((&f.name, f.is_static), ()).is_some() {
                    return Err(ResolveError::DuplicateField(format!(
                        "{}.{}",
                        class.name, f.name
                    )));
                }
            }
            let mut seen_methods = HashMap::new();
            for &mid in &class.methods {
                let m = &methods[mid.0 as usize];
                if seen_methods.insert((&m.name, m.params.len()), ()).is_some() {
                    return Err(ResolveError::DuplicateMethod(format!(
                        "{}.{}/{}",
                        class.name,
                        m.name,
                        m.params.len()
                    )));
                }
            }
        }

        // Build vtables in declaration order (superclasses were declared
        // before subclasses, enforced by `add_class`'s signature).
        for cidx in 0..classes.len() {
            let mut vtable: Vec<MethodId> = match classes[cidx].super_class {
                Some(sup) => classes[sup.0 as usize].vtable.clone(),
                None => Vec::new(),
            };
            let own: Vec<MethodId> = classes[cidx].methods.clone();
            for mid in own {
                let (name, arity, is_static) = {
                    let m = &methods[mid.0 as usize];
                    (m.name.clone(), m.params.len(), m.is_static)
                };
                if is_static {
                    continue;
                }
                // Overriding: same name + arity as an inherited slot.
                let slot = vtable.iter().position(|&existing| {
                    let e = &methods[existing.0 as usize];
                    e.name == name && e.params.len() == arity
                });
                match slot {
                    Some(s) => {
                        let existing = &methods[vtable[s].0 as usize];
                        let m = &methods[mid.0 as usize];
                        if existing.params != m.params || existing.ret != m.ret {
                            return Err(ResolveError::SignatureMismatch(format!(
                                "{}.{}",
                                classes[cidx].name, name
                            )));
                        }
                        vtable[s] = mid;
                        methods[mid.0 as usize].vtable_slot = Some(s as u16);
                    }
                    None => {
                        let s = vtable.len() as u16;
                        vtable.push(mid);
                        methods[mid.0 as usize].vtable_slot = Some(s);
                    }
                }
            }
            classes[cidx].vtable = vtable;
        }

        Ok(Program {
            classes,
            methods,
            fields,
            entry: None,
            name_to_class,
        })
    }

    /// Finalise and designate the entry point: a zero-argument static
    /// method on the named class.
    pub fn finish_with_entry(self, class: &str, method: &str) -> Result<Program, ResolveError> {
        let mut program = self.finish()?;
        let mid = program
            .method_by_name(class, method, 0)
            .ok_or_else(|| ResolveError::BadEntryPoint(format!("{class}.{method}")))?;
        if !program.method(mid).is_static {
            return Err(ResolveError::BadEntryPoint(format!("{class}.{method}")));
        }
        program.entry = Some(mid);
        Ok(program)
    }
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Instr;

    fn ret_void() -> MethodBody {
        MethodBody::Bytecode(vec![Instr::Return])
    }

    #[test]
    fn builds_simple_program() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("Main", None);
        b.add_field(c, "x", Ty::Int);
        b.add_static_method(c, "main", vec![], None, 0, ret_void());
        let p = b.finish_with_entry("Main", "main").unwrap();
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.methods.len(), 1);
        assert_eq!(p.fields.len(), 1);
        assert!(p.entry.is_some());
        assert_eq!(p.class_by_name("Main"), Some(ClassId(0)));
        assert_eq!(p.class_by_name("Nope"), None);
    }

    #[test]
    fn vtable_inheritance_and_override() {
        let mut b = ProgramBuilder::new();
        let animal = b.add_class("Animal", None);
        let speak_a = b.add_virtual_method(animal, "speak", vec![], Some(Ty::Int), 1, ret_void());
        let eat = b.add_virtual_method(animal, "eat", vec![], None, 1, ret_void());
        let dog = b.add_class("Dog", Some(animal));
        let speak_d = b.add_virtual_method(dog, "speak", vec![], Some(Ty::Int), 1, ret_void());
        let fetch = b.add_virtual_method(dog, "fetch", vec![], None, 1, ret_void());
        let p = b.finish().unwrap();

        let animal_vt = &p.class(animal).vtable;
        assert_eq!(animal_vt.as_slice(), &[speak_a, eat]);
        let dog_vt = &p.class(dog).vtable;
        assert_eq!(dog_vt.as_slice(), &[speak_d, eat, fetch]);
        assert_eq!(p.method(speak_a).vtable_slot, Some(0));
        assert_eq!(p.method(speak_d).vtable_slot, Some(0));
        assert_eq!(p.method(fetch).vtable_slot, Some(2));
    }

    #[test]
    fn override_signature_mismatch_is_rejected() {
        let mut b = ProgramBuilder::new();
        let a = b.add_class("A", None);
        b.add_virtual_method(a, "f", vec![], Some(Ty::Int), 1, ret_void());
        let c = b.add_class("B", Some(a));
        b.add_virtual_method(c, "f", vec![], Some(Ty::Float), 1, ret_void());
        assert!(matches!(
            b.finish(),
            Err(ResolveError::SignatureMismatch(_))
        ));
    }

    #[test]
    fn duplicate_method_rejected() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        b.add_static_method(c, "f", vec![Ty::Int], None, 1, ret_void());
        b.add_static_method(c, "f", vec![Ty::Float], None, 1, ret_void());
        assert!(matches!(b.finish(), Err(ResolveError::DuplicateMethod(_))));
    }

    #[test]
    fn duplicate_field_rejected() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        b.add_field(c, "x", Ty::Int);
        b.add_field(c, "x", Ty::Float);
        assert!(matches!(b.finish(), Err(ResolveError::DuplicateField(_))));
    }

    #[test]
    fn subclass_queries() {
        let mut b = ProgramBuilder::new();
        let a = b.add_class("A", None);
        let c = b.add_class("B", Some(a));
        let d = b.add_class("C", Some(c));
        let e = b.add_class("Other", None);
        let p = b.finish().unwrap();
        assert!(p.is_subclass(d, a));
        assert!(p.is_subclass(d, d));
        assert!(p.is_subclass(c, a));
        assert!(!p.is_subclass(a, c));
        assert!(!p.is_subclass(e, a));
    }

    #[test]
    fn inherited_instance_fields_in_layout_order() {
        let mut b = ProgramBuilder::new();
        let a = b.add_class("A", None);
        let fa = b.add_field(a, "a", Ty::Long);
        let c = b.add_class("B", Some(a));
        let fb = b.add_field(c, "b", Ty::Int);
        let p = b.finish().unwrap();
        assert_eq!(p.all_instance_fields(c), vec![fa, fb]);
        assert_eq!(p.all_instance_fields(a), vec![fa]);
    }

    #[test]
    fn field_lookup_searches_superclasses() {
        let mut b = ProgramBuilder::new();
        let a = b.add_class("A", None);
        let fa = b.add_field(a, "inherited", Ty::Int);
        let c = b.add_class("B", Some(a));
        b.add_field(c, "own", Ty::Int);
        let p = b.finish().unwrap();
        assert_eq!(p.field_by_name("B", "inherited"), Some(fa));
        assert!(p.field_by_name("B", "own").is_some());
        assert_eq!(p.field_by_name("A", "own"), None);
    }

    #[test]
    fn entry_point_must_be_static_zero_arg() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("Main", None);
        b.add_virtual_method(c, "main", vec![], None, 1, ret_void());
        assert!(matches!(
            b.finish_with_entry("Main", "main"),
            Err(ResolveError::BadEntryPoint(_))
        ));
    }

    #[test]
    fn method_lookup_by_arity() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let one = b.add_static_method(c, "f", vec![Ty::Int], None, 1, ret_void());
        let two = b.add_static_method(c, "f", vec![Ty::Int, Ty::Int], None, 2, ret_void());
        let p = b.finish().unwrap();
        assert_eq!(p.method_by_name("C", "f", 1), Some(one));
        assert_eq!(p.method_by_name("C", "f", 2), Some(two));
        assert_eq!(p.method_by_name("C", "f", 3), None);
    }
}

//! Object and statics layout: compute byte offsets for every field.
//!
//! Instance fields are laid out in inheritance order (superclass fields
//! first), each aligned to its own size, after the 8-byte object header.
//! Static fields are packed into a single *statics block* the same way.
//! Reference-bearing offsets are recorded per class (and for the statics
//! block) so the collector can trace exactly.

use hera_isa::{ClassId, FieldId, Program};

/// Byte size of the object/array header (see `heap` module docs).
pub const HEADER_BYTES: u32 = 8;

/// Computed layout for one class.
#[derive(Clone, Debug)]
pub struct ClassLayout {
    /// Total instance size in bytes, including the header, rounded up to
    /// 8-byte alignment.
    pub size: u32,
    /// Byte offsets (from the object base) of reference-typed fields,
    /// for GC tracing and software-cache write-back of references.
    pub ref_offsets: Vec<u32>,
}

/// Computed layout for the statics block.
#[derive(Clone, Debug, Default)]
pub struct StaticsLayout {
    /// Total size of the statics block in bytes (8-byte aligned, and at
    /// least 8 so the block exists even for programs without statics).
    pub size: u32,
    /// Offsets of reference-typed statics within the block.
    pub ref_offsets: Vec<u32>,
}

/// Per-program layout tables, indexed by `ClassId` / `FieldId`.
#[derive(Clone, Debug)]
pub struct ProgramLayout {
    /// Layout of each class, indexed by `ClassId`.
    pub classes: Vec<ClassLayout>,
    /// Byte offset of every field: for instance fields, from the object
    /// base; for static fields, from the statics block base.
    pub field_offset: Vec<u32>,
    /// Statics block layout.
    pub statics: StaticsLayout,
}

fn align_to(v: u32, a: u32) -> u32 {
    debug_assert!(a.is_power_of_two());
    (v + a - 1) & !(a - 1)
}

impl ProgramLayout {
    /// Compute layouts for every class and the statics block.
    pub fn compute(program: &Program) -> ProgramLayout {
        let mut field_offset = vec![0u32; program.fields.len()];

        // Instance layout per class, inheritance order.
        let mut classes = Vec::with_capacity(program.classes.len());
        for cid in 0..program.classes.len() {
            let cid = ClassId(cid as u16);
            let mut cursor = HEADER_BYTES;
            let mut ref_offsets = Vec::new();
            for fid in program.all_instance_fields(cid) {
                let ty = program.field(fid).ty;
                let sz = ty.field_size();
                cursor = align_to(cursor, sz.min(8));
                field_offset[fid.0 as usize] = cursor;
                if ty.is_ref() {
                    ref_offsets.push(cursor);
                }
                cursor += sz;
            }
            classes.push(ClassLayout {
                size: align_to(cursor, 8),
                ref_offsets,
            });
        }

        // Statics block layout.
        let mut cursor = 0u32;
        let mut ref_offsets = Vec::new();
        for (idx, f) in program.fields.iter().enumerate() {
            if !f.is_static {
                continue;
            }
            let sz = f.ty.field_size();
            cursor = align_to(cursor, sz.min(8));
            field_offset[idx] = cursor;
            if f.ty.is_ref() {
                ref_offsets.push(cursor);
            }
            cursor += sz;
        }
        let statics = StaticsLayout {
            size: align_to(cursor.max(8), 8),
            ref_offsets,
        };

        ProgramLayout {
            classes,
            field_offset,
            statics,
        }
    }

    /// Instance size (bytes, with header) of a class.
    #[inline]
    pub fn object_size(&self, class: ClassId) -> u32 {
        self.classes[class.0 as usize].size
    }

    /// Byte offset of a field (object-relative or statics-relative).
    #[inline]
    pub fn offset_of(&self, field: FieldId) -> u32 {
        self.field_offset[field.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_isa::{ElemTy, ProgramBuilder, Ty};

    #[test]
    fn empty_class_is_header_only() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("E", None);
        let p = b.finish().unwrap();
        let l = ProgramLayout::compute(&p);
        assert_eq!(l.object_size(c), 8);
    }

    #[test]
    fn fields_are_aligned() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let fb = b.add_field(c, "b", Ty::Byte); // offset 8
        let fd = b.add_field(c, "d", Ty::Double); // aligns to 16
        let fs = b.add_field(c, "s", Ty::Short); // offset 24
        let fi = b.add_field(c, "i", Ty::Int); // aligns to 28
        let p = b.finish().unwrap();
        let l = ProgramLayout::compute(&p);
        assert_eq!(l.offset_of(fb), 8);
        assert_eq!(l.offset_of(fd), 16);
        assert_eq!(l.offset_of(fs), 24);
        assert_eq!(l.offset_of(fi), 28);
        assert_eq!(l.object_size(c), 32);
    }

    #[test]
    fn inherited_fields_precede_own_fields() {
        let mut b = ProgramBuilder::new();
        let a = b.add_class("A", None);
        let fa = b.add_field(a, "a", Ty::Int);
        let c = b.add_class("B", Some(a));
        let fbf = b.add_field(c, "b", Ty::Int);
        let p = b.finish().unwrap();
        let l = ProgramLayout::compute(&p);
        assert_eq!(l.offset_of(fa), 8);
        assert_eq!(l.offset_of(fbf), 12);
        assert_eq!(l.object_size(a), 16);
        assert_eq!(l.object_size(c), 16);
    }

    #[test]
    fn ref_offsets_recorded() {
        let mut b = ProgramBuilder::new();
        let a = b.add_class("A", None);
        b.add_field(a, "i", Ty::Int);
        b.add_field(a, "r", Ty::Ref(a));
        b.add_field(a, "arr", Ty::Array(ElemTy::Int));
        let p = b.finish().unwrap();
        let l = ProgramLayout::compute(&p);
        assert_eq!(l.classes[0].ref_offsets, vec![12, 16]);
    }

    #[test]
    fn statics_block_layout() {
        let mut b = ProgramBuilder::new();
        let a = b.add_class("A", None);
        let s1 = b.add_static_field(a, "x", Ty::Long);
        let s2 = b.add_static_field(a, "r", Ty::Ref(a));
        b.add_field(a, "notstatic", Ty::Int);
        let p = b.finish().unwrap();
        let l = ProgramLayout::compute(&p);
        assert_eq!(l.offset_of(s1), 0);
        assert_eq!(l.offset_of(s2), 8);
        assert_eq!(l.statics.size, 16);
        assert_eq!(l.statics.ref_offsets, vec![8]);
    }

    #[test]
    fn statics_block_never_empty() {
        let p = ProgramBuilder::new().finish().unwrap();
        let l = ProgramLayout::compute(&p);
        assert_eq!(l.statics.size, 8);
    }
}

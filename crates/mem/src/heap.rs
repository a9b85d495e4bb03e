//! The guest heap: raw bytes, object/array headers, a first-fit
//! free-list allocator, and typed field/element access.
//!
//! ## Header encoding (8 bytes)
//!
//! ```text
//! word0 (u32 @ +0): bit31 = is_array, bit30 = GC mark,
//!                   bits16..24 = element-type code (arrays),
//!                   bits0..16  = class id (objects)
//! word1 (u32 @ +4): objects: total byte size (incl. header)
//!                   arrays:  element count
//! ```
//!
//! Addresses `0..8` are reserved so `ObjRef(0)` is null; the statics
//! block sits at [`Heap::STATICS_BASE`]; objects follow it.

use crate::layout::{ProgramLayout, HEADER_BYTES};
use hera_isa::{ClassId, ElemTy, ObjRef, Slot, Trap, Ty, Value};
use std::collections::BTreeSet;

/// Heap configuration.
#[derive(Clone, Copy, Debug)]
pub struct HeapConfig {
    /// Total heap size in bytes (default 32 MiB — ample for the three
    /// benchmarks while keeping simulation memory modest).
    pub size_bytes: u32,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            size_bytes: 32 << 20,
        }
    }
}

/// Errors from raw heap operations (simulator-internal misuse; guest
/// program faults surface as [`Trap`]s instead).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeapError {
    /// Address/length outside the heap.
    BadAddress(u32),
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::BadAddress(a) => write!(f, "bad heap address {a:#x}"),
        }
    }
}

impl std::error::Error for HeapError {}

/// What a header designates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeapKind {
    /// An instance of the class.
    Object(ClassId),
    /// An array with the element type and length.
    Array(ElemTy, u32),
}

/// Decoded object/array header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Header {
    /// Object or array, with identity.
    pub kind: HeapKind,
    /// Total byte size including the header (8-byte aligned).
    pub size: u32,
    /// GC mark bit.
    pub marked: bool,
}

const ARRAY_BIT: u32 = 1 << 31;
const MARK_BIT: u32 = 1 << 30;

fn elem_code(e: ElemTy) -> u32 {
    match e {
        ElemTy::Byte => 0,
        ElemTy::Short => 1,
        ElemTy::Int => 2,
        ElemTy::Long => 3,
        ElemTy::Float => 4,
        ElemTy::Double => 5,
        ElemTy::Ref => 6,
    }
}

fn code_elem(c: u32) -> Option<ElemTy> {
    Some(match c {
        0 => ElemTy::Byte,
        1 => ElemTy::Short,
        2 => ElemTy::Int,
        3 => ElemTy::Long,
        4 => ElemTy::Float,
        5 => ElemTy::Double,
        6 => ElemTy::Ref,
        _ => return None,
    })
}

fn align8(v: u32) -> u32 {
    (v + 7) & !7
}

/// Byte size of an array with `len` elements of `elem`, header included;
/// `None` when that does not fit the 32-bit address space. `len` is
/// guest data wherever it comes from (a `NewArray` operand, a header in
/// a snapshot's heap image), so this is the one place it is multiplied.
pub fn checked_array_byte_size(elem: ElemTy, len: u32) -> Option<u32> {
    let unaligned = len.checked_mul(elem.size())?.checked_add(HEADER_BYTES)?;
    Some(unaligned.checked_add(7)? & !7)
}

/// [`checked_array_byte_size`] of an array that exists: allocation and
/// restore have both refused a length whose size overflows.
///
/// # Panics
///
/// Panics if the size does not fit 32 bits.
pub fn array_byte_size(elem: ElemTy, len: u32) -> u32 {
    checked_array_byte_size(elem, len).expect("array size fits the address space")
}

/// Decode a header's two words; `None` for words no allocation can have
/// written (an unknown element code, an array length whose byte size
/// overflows).
fn decode_header(w0: u32, w1: u32) -> Option<Header> {
    let (kind, size) = if w0 & ARRAY_BIT != 0 {
        let e = code_elem((w0 >> 16) & 0xff)?;
        (HeapKind::Array(e, w1), checked_array_byte_size(e, w1)?)
    } else {
        (HeapKind::Object(ClassId((w0 & 0xffff) as u16)), w1)
    };
    Some(Header {
        kind,
        size,
        marked: w0 & MARK_BIT != 0,
    })
}

/// Typed raw-byte codecs shared by the heap and the SPE local store
/// (the software cache operates on byte copies, so both sides must agree
/// on encodings).
pub mod codec {
    use super::*;

    /// Read an untagged slot from a byte buffer at `off`. `ty` selects
    /// the width and the sign/zero extension; no tag is materialised.
    #[inline]
    pub fn read_slot(buf: &[u8], off: usize, ty: Ty) -> Slot {
        match ty {
            Ty::Byte => Slot::from_i32(buf[off] as i8 as i32),
            Ty::Short => Slot::from_i32(i16::from_le_bytes([buf[off], buf[off + 1]]) as i32),
            Ty::Int => Slot::from_i32(i32::from_le_bytes(word4(buf, off))),
            Ty::Float => Slot::from_f32(f32::from_le_bytes(word4(buf, off))),
            Ty::Long => Slot::from_i64(i64::from_le_bytes(word8(buf, off))),
            Ty::Double => Slot::from_f64(f64::from_le_bytes(word8(buf, off))),
            Ty::Ref(_) | Ty::Array(_) => {
                Slot::from_ref(ObjRef(u32::from_le_bytes(word4(buf, off))))
            }
        }
    }

    /// Write an untagged slot into a byte buffer at `off`, truncating to
    /// `ty`'s field width.
    #[inline]
    pub fn write_slot(buf: &mut [u8], off: usize, ty: Ty, s: Slot) {
        match ty {
            Ty::Byte => buf[off] = s.i32() as u8,
            Ty::Short => buf[off..off + 2].copy_from_slice(&(s.i32() as i16).to_le_bytes()),
            Ty::Int => buf[off..off + 4].copy_from_slice(&s.i32().to_le_bytes()),
            Ty::Float => buf[off..off + 4].copy_from_slice(&s.f32().to_le_bytes()),
            Ty::Long => buf[off..off + 8].copy_from_slice(&s.i64().to_le_bytes()),
            Ty::Double => buf[off..off + 8].copy_from_slice(&s.f64().to_le_bytes()),
            Ty::Ref(_) | Ty::Array(_) => {
                buf[off..off + 4].copy_from_slice(&s.obj().0.to_le_bytes())
            }
        }
    }

    /// Read a typed value from a byte buffer at `off`.
    pub fn read_value(buf: &[u8], off: usize, ty: Ty) -> Value {
        read_slot(buf, off, ty).to_value(ty.kind())
    }

    /// Write a typed value into a byte buffer at `off`.
    ///
    /// # Panics
    ///
    /// Panics on a kind mismatch between `ty` and `v` (verified bytecode
    /// cannot produce one).
    pub fn write_value(buf: &mut [u8], off: usize, ty: Ty, v: Value) {
        match ty {
            Ty::Byte => buf[off] = v.as_i32() as u8,
            Ty::Short => buf[off..off + 2].copy_from_slice(&(v.as_i32() as i16).to_le_bytes()),
            Ty::Int => buf[off..off + 4].copy_from_slice(&v.as_i32().to_le_bytes()),
            Ty::Float => buf[off..off + 4].copy_from_slice(&v.as_f32().to_le_bytes()),
            Ty::Long => buf[off..off + 8].copy_from_slice(&v.as_i64().to_le_bytes()),
            Ty::Double => buf[off..off + 8].copy_from_slice(&v.as_f64().to_le_bytes()),
            Ty::Ref(_) | Ty::Array(_) => {
                buf[off..off + 4].copy_from_slice(&v.as_ref().0.to_le_bytes())
            }
        }
    }

    /// Field width in bytes of a typed access (the number of heap bytes
    /// `read_value`/`write_value` touch for `ty`).
    #[inline]
    pub fn ty_width(ty: Ty) -> usize {
        match ty {
            Ty::Byte => 1,
            Ty::Short => 2,
            Ty::Int | Ty::Float | Ty::Ref(_) | Ty::Array(_) => 4,
            Ty::Long | Ty::Double => 8,
        }
    }

    /// The `Ty` equivalent of an array element type (same codec widths).
    #[inline]
    pub fn elem_as_ty(e: ElemTy) -> Ty {
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

    fn word4(buf: &[u8], off: usize) -> [u8; 4] {
        [buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]
    }

    fn word8(buf: &[u8], off: usize) -> [u8; 8] {
        [
            buf[off],
            buf[off + 1],
            buf[off + 2],
            buf[off + 3],
            buf[off + 4],
            buf[off + 5],
            buf[off + 6],
            buf[off + 7],
        ]
    }
}

/// Allocation statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocStats {
    /// Number of successful allocations.
    pub allocations: u64,
    /// Bytes handed out (including headers).
    pub bytes_allocated: u64,
}

/// The guest heap.
pub struct Heap {
    /// Backing store.
    data: Vec<u8>,
    /// Start of the allocatable object region.
    objects_base: u32,
    /// One past the last allocatable byte.
    limit: u32,
    /// Free spans `(addr, size)`, sorted by address.
    free: Vec<(u32, u32)>,
    /// Addresses of all live (allocated) objects.
    objects: BTreeSet<u32>,
    /// Statics block size.
    statics_size: u32,
    /// The written-mark: every byte of `data` at or above it is still
    /// zero. Statics sit below `objects_base`, where it starts, and every
    /// other store lands inside an allocated object, so only `carve`
    /// raises it; it never falls (freed spans keep their stale bytes).
    written: u32,
    /// Allocation statistics.
    pub stats: AllocStats,
}

impl Heap {
    /// Address of the statics block (fixed, just past the null page).
    pub const STATICS_BASE: u32 = 8;

    /// Create a heap sized per `config` with room for the program's
    /// statics block.
    pub fn new(config: HeapConfig, statics_size: u32) -> Heap {
        let size = config.size_bytes.max(4096);
        let objects_base = align8(Self::STATICS_BASE + statics_size);
        Heap {
            data: vec![0; size as usize],
            objects_base,
            limit: size,
            free: vec![(objects_base, size - objects_base)],
            objects: BTreeSet::new(),
            statics_size,
            written: objects_base,
            stats: AllocStats::default(),
        }
    }

    /// Mutable view of the backing store for a store that ends at byte
    /// `end` (debug builds check it against the written-mark).
    #[inline]
    fn data_mut(&mut self, end: usize) -> &mut Vec<u8> {
        debug_assert!(
            end <= self.written as usize,
            "store ending at {end:#x} is past the written-mark {:#x}",
            self.written
        );
        &mut self.data
    }

    /// Size of the statics block.
    pub fn statics_size(&self) -> u32 {
        self.statics_size
    }

    /// Start of the object region (after statics).
    pub fn objects_base(&self) -> u32 {
        self.objects_base
    }

    /// Total free bytes currently on the free list.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|&(_, s)| s as u64).sum()
    }

    /// Number of live allocated objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Iterate over the addresses of all allocated objects.
    pub fn objects(&self) -> impl Iterator<Item = ObjRef> + '_ {
        self.objects.iter().map(|&a| ObjRef(a))
    }

    // ---- snapshot support ----

    /// The entire backing store (snapshot encode).
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// The written-mark: every byte of [`Heap::raw`] at or above it is
    /// zero, so a whole-image scan (digest, snapshot encode) can stop
    /// there and account for the rest arithmetically.
    pub fn written_mark(&self) -> u32 {
        debug_assert!(
            self.data[self.written as usize..].iter().all(|&b| b == 0),
            "non-zero byte above the written-mark {:#x}",
            self.written
        );
        self.written
    }

    /// One past the last allocatable byte.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// The free list, `(addr, size)` sorted by address (snapshot encode).
    pub fn free_spans(&self) -> &[(u32, u32)] {
        &self.free
    }

    /// Rebuild a heap from snapshot state. The backing store, free list
    /// and object set are taken verbatim; basic shape invariants are
    /// validated so a corrupt snapshot cannot produce an out-of-bounds
    /// heap.
    ///
    /// `nonzero_end` is the caller's bound on the image's content: every
    /// byte of `data` at or above it is zero (the snapshot decoder knows
    /// where its last literal chunk ended). The written-mark is that
    /// joined with the allocator frontier — the start of a final free
    /// span reaching `limit`, else `limit` — because an object allocated
    /// but still all zero lies above the last non-zero byte and will be
    /// stored into later. Neither needs a scan of `data`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        data: Vec<u8>,
        nonzero_end: u32,
        objects_base: u32,
        limit: u32,
        free: Vec<(u32, u32)>,
        objects: BTreeSet<u32>,
        statics_size: u32,
        stats: AllocStats,
    ) -> Result<Heap, &'static str> {
        if limit as usize != data.len() {
            return Err("heap limit does not match data size");
        }
        if nonzero_end > limit {
            return Err("heap content bound past the limit");
        }
        if objects_base != align8(Self::STATICS_BASE + statics_size) || objects_base > limit {
            return Err("heap objects_base inconsistent with statics block");
        }
        let mut prev_end = objects_base;
        for &(addr, size) in &free {
            if addr < prev_end || size == 0 || addr as u64 + size as u64 > limit as u64 {
                return Err("heap free list out of bounds or unsorted");
            }
            prev_end = addr + size;
        }
        if objects
            .iter()
            .any(|&a| a < objects_base || a.saturating_add(HEADER_BYTES) > limit)
        {
            return Err("heap object address out of bounds");
        }
        let frontier = match free.last() {
            Some(&(addr, size)) if addr + size == limit => addr,
            _ => limit,
        };
        let heap = Heap {
            data,
            objects_base,
            limit,
            free,
            objects,
            statics_size,
            written: nonzero_end.max(frontier),
            stats,
        };
        // Every header must decode to an object that lies inside the
        // heap: `header` and `elem_addr` compute with these words unchecked.
        let inside = |&addr: &u32| {
            decode_header(heap.read_u32(addr), heap.read_u32(addr + 4)).is_some_and(|h| {
                h.size >= HEADER_BYTES && h.size as u64 + addr as u64 <= limit as u64
            })
        };
        if !heap.objects.iter().all(inside) {
            return Err("heap object header describes an object outside the heap");
        }
        Ok(heap)
    }

    // ---- raw access ----

    /// Copy `dst.len()` bytes starting at `addr` out of the heap (DMA
    /// source copies).
    pub fn copy_to(&self, addr: u32, dst: &mut [u8]) -> Result<(), HeapError> {
        let (a, l) = (addr as usize, dst.len());
        if a.checked_add(l).is_none_or(|end| end > self.data.len()) {
            return Err(HeapError::BadAddress(addr));
        }
        dst.copy_from_slice(&self.data[a..a + l]);
        Ok(())
    }

    /// Copy `src` into the heap at `addr` (DMA write-back).
    pub fn copy_from(&mut self, addr: u32, src: &[u8]) -> Result<(), HeapError> {
        let (a, l) = (addr as usize, src.len());
        if a.checked_add(l).is_none_or(|end| end > self.data.len()) {
            return Err(HeapError::BadAddress(addr));
        }
        self.data_mut(a + l)[a..a + l].copy_from_slice(src);
        Ok(())
    }

    /// Owned copy of `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, HeapError> {
        let mut buf = vec![0u8; len as usize];
        self.copy_to(addr, &mut buf)?;
        Ok(buf)
    }

    /// Read a little-endian u32 (used for headers and ref slots).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes([
            self.data[a],
            self.data[a + 1],
            self.data[a + 2],
            self.data[a + 3],
        ])
    }

    /// Write a little-endian u32.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        let a = addr as usize;
        self.data_mut(a + 4)[a..a + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Typed read at an absolute address.
    #[inline]
    pub fn read_typed(&self, addr: u32, ty: Ty) -> Value {
        codec::read_value(&self.data, addr as usize, ty)
    }

    /// Typed write at an absolute address.
    #[inline]
    pub fn write_typed(&mut self, addr: u32, ty: Ty, v: Value) {
        let a = addr as usize;
        codec::write_value(self.data_mut(a + codec::ty_width(ty)), a, ty, v)
    }

    /// Untagged read at an absolute address; `ty` selects width only.
    #[inline]
    pub fn read_typed_slot(&self, addr: u32, ty: Ty) -> Slot {
        codec::read_slot(&self.data, addr as usize, ty)
    }

    /// Untagged write at an absolute address; `ty` selects width only.
    #[inline]
    pub fn write_typed_slot(&mut self, addr: u32, ty: Ty, s: Slot) {
        let a = addr as usize;
        codec::write_slot(self.data_mut(a + codec::ty_width(ty)), a, ty, s)
    }

    // ---- headers ----

    /// Decode the header of the object at `r`.
    ///
    /// # Panics
    ///
    /// Panics on a null or unallocated reference — callers (the
    /// interpreter) null-check first, so this indicates a VM bug.
    pub fn header(&self, r: ObjRef) -> Header {
        debug_assert!(!r.is_null(), "header of null");
        decode_header(self.read_u32(r.0), self.read_u32(r.0 + 4)).expect("corrupt header")
    }

    /// Set or clear the GC mark bit. Returns the previous value.
    pub fn set_marked(&mut self, r: ObjRef, marked: bool) -> bool {
        let w0 = self.read_u32(r.0);
        let was = w0 & MARK_BIT != 0;
        let new = if marked {
            w0 | MARK_BIT
        } else {
            w0 & !MARK_BIT
        };
        self.write_u32(r.0, new);
        was
    }

    // ---- allocation ----

    /// Allocate an instance of `class`. Returns `None` when no free span
    /// fits (caller should collect and retry, then trap with OOM).
    pub fn alloc_object(&mut self, layout: &ProgramLayout, class: ClassId) -> Option<ObjRef> {
        let size = layout.object_size(class);
        let addr = self.carve(size)?;
        self.zero(addr, size);
        self.write_u32(addr, class.0 as u32);
        self.write_u32(addr + 4, size);
        self.objects.insert(addr);
        self.stats.allocations += 1;
        self.stats.bytes_allocated += size as u64;
        Some(ObjRef(addr))
    }

    /// Allocate an array. `len` must be non-negative (the interpreter
    /// traps on negative sizes before calling). `None` when no free span
    /// fits — as none can, for a length whose byte size overflows.
    pub fn alloc_array(&mut self, elem: ElemTy, len: u32) -> Option<ObjRef> {
        let size = checked_array_byte_size(elem, len)?;
        let addr = self.carve(size)?;
        self.zero(addr, size);
        self.write_u32(addr, ARRAY_BIT | (elem_code(elem) << 16));
        self.write_u32(addr + 4, len);
        self.objects.insert(addr);
        self.stats.allocations += 1;
        self.stats.bytes_allocated += size as u64;
        Some(ObjRef(addr))
    }

    fn carve(&mut self, size: u32) -> Option<u32> {
        let size = align8(size);
        let idx = self.free.iter().position(|&(_, s)| s >= size)?;
        let (addr, span) = self.free[idx];
        if span == size {
            self.free.remove(idx);
        } else {
            self.free[idx] = (addr + size, span - size);
        }
        self.written = self.written.max(addr + size);
        Some(addr)
    }

    fn zero(&mut self, addr: u32, size: u32) {
        let a = addr as usize;
        self.data_mut(a + size as usize)[a..a + size as usize].fill(0);
    }

    /// Rebuild the free list from the set of surviving objects (called by
    /// the collector after unmarked objects have been dropped from the
    /// registry). Gaps between surviving objects coalesce naturally.
    pub(crate) fn rebuild_free_list(&mut self, survivors: BTreeSet<u32>) {
        let mut free = Vec::new();
        let mut cursor = self.objects_base;
        for &addr in &survivors {
            if addr > cursor {
                free.push((cursor, addr - cursor));
            }
            let hdr = self.header(ObjRef(addr));
            cursor = addr + align8(hdr.size);
        }
        if self.limit > cursor {
            free.push((cursor, self.limit - cursor));
        }
        self.free = free;
        self.objects = survivors;
    }

    /// The current set of allocated object addresses (for the collector).
    pub(crate) fn object_set(&self) -> &BTreeSet<u32> {
        &self.objects
    }

    // ---- typed field / element access ----

    /// Read an instance field.
    #[inline]
    pub fn get_field(&self, layout: &ProgramLayout, r: ObjRef, field: hera_isa::FieldId) -> Value {
        self.read_typed(r.0 + layout.offset_of(field), layout.ty_of(field))
    }

    /// Write an instance field.
    #[inline]
    pub fn put_field(
        &mut self,
        layout: &ProgramLayout,
        r: ObjRef,
        field: hera_isa::FieldId,
        v: Value,
    ) {
        self.write_typed(r.0 + layout.offset_of(field), layout.ty_of(field), v)
    }

    /// Read a static field from the statics block.
    #[inline]
    pub fn get_static(&self, layout: &ProgramLayout, field: hera_isa::FieldId) -> Value {
        self.read_typed(
            Self::STATICS_BASE + layout.offset_of(field),
            layout.ty_of(field),
        )
    }

    /// Write a static field into the statics block.
    #[inline]
    pub fn put_static(&mut self, layout: &ProgramLayout, field: hera_isa::FieldId, v: Value) {
        self.write_typed(
            Self::STATICS_BASE + layout.offset_of(field),
            layout.ty_of(field),
            v,
        )
    }

    /// Element type and length of the array at `r`, `None` for an object:
    /// the two header facts an element access needs, without the byte
    /// size [`Heap::header`] also computes.
    #[inline]
    fn array_facts(&self, r: ObjRef) -> Option<(ElemTy, u32)> {
        let w0 = self.read_u32(r.0);
        if w0 & ARRAY_BIT == 0 {
            return None;
        }
        let elem = code_elem((w0 >> 16) & 0xff).expect("corrupt header: element code");
        Some((elem, self.read_u32(r.0 + 4)))
    }

    /// Bounds-checked address of array element `idx`; the array's header
    /// is consulted for the length and element size.
    pub fn elem_addr(&self, r: ObjRef, idx: i32) -> Result<(u32, ElemTy), Trap> {
        let (elem, len) = self
            .array_facts(r)
            .expect("elem_addr on non-array (verifier bug)");
        if idx < 0 || idx as u32 >= len {
            return Err(Trap::ArrayIndexOutOfBounds { index: idx, len });
        }
        Ok((r.0 + HEADER_BYTES + idx as u32 * elem.size(), elem))
    }

    /// Bounds-checked array element load.
    pub fn array_load(&self, r: ObjRef, idx: i32) -> Result<Value, Trap> {
        let (addr, elem) = self.elem_addr(r, idx)?;
        Ok(self.read_typed(addr, codec::elem_as_ty(elem)))
    }

    /// Bounds-checked array element store.
    pub fn array_store(&mut self, r: ObjRef, idx: i32, v: Value) -> Result<(), Trap> {
        let (addr, elem) = self.elem_addr(r, idx)?;
        self.write_typed(addr, codec::elem_as_ty(elem), v);
        Ok(())
    }

    /// Array length from the header.
    pub fn array_length(&self, r: ObjRef) -> u32 {
        self.try_array_length(r)
            .expect("array_length on non-array (verifier bug)")
    }

    /// Array length, `None` when `r` is not an array (natives receive
    /// arbitrary verified refs, so this path must not panic).
    pub fn try_array_length(&self, r: ObjRef) -> Option<u32> {
        self.array_facts(r).map(|(_, len)| len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_isa::ProgramBuilder;

    fn small_heap() -> (Heap, ProgramLayout, ClassId, hera_isa::FieldId) {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let f = b.add_field(c, "x", Ty::Int);
        let p = b.finish().unwrap();
        let layout = ProgramLayout::compute(&p);
        let heap = Heap::new(HeapConfig { size_bytes: 4096 }, layout.statics.size);
        (heap, layout, c, f)
    }

    #[test]
    fn alloc_and_field_roundtrip() {
        let (mut heap, layout, c, f) = small_heap();
        let r = heap.alloc_object(&layout, c).unwrap();
        assert!(!r.is_null());
        assert_eq!(heap.get_field(&layout, r, f), Value::I32(0));
        heap.put_field(&layout, r, f, Value::I32(-99));
        assert_eq!(heap.get_field(&layout, r, f), Value::I32(-99));
        let hdr = heap.header(r);
        assert_eq!(hdr.kind, HeapKind::Object(c));
        assert_eq!(hdr.size, 16);
        assert!(!hdr.marked);
    }

    #[test]
    fn array_roundtrip_and_bounds() {
        let (mut heap, _, _, _) = small_heap();
        let r = heap.alloc_array(ElemTy::Short, 5).unwrap();
        assert_eq!(heap.array_length(r), 5);
        heap.array_store(r, 4, Value::I32(-2)).unwrap();
        assert_eq!(heap.array_load(r, 4).unwrap(), Value::I32(-2));
        assert_eq!(
            heap.array_load(r, 5),
            Err(Trap::ArrayIndexOutOfBounds { index: 5, len: 5 })
        );
        assert_eq!(
            heap.array_store(r, -1, Value::I32(0)),
            Err(Trap::ArrayIndexOutOfBounds { index: -1, len: 5 })
        );
    }

    #[test]
    fn array_header_decodes() {
        let (mut heap, _, _, _) = small_heap();
        let r = heap.alloc_array(ElemTy::Double, 3).unwrap();
        let hdr = heap.header(r);
        assert_eq!(hdr.kind, HeapKind::Array(ElemTy::Double, 3));
        assert_eq!(hdr.size, 32);
    }

    #[test]
    fn allocations_are_disjoint_and_zeroed() {
        let (mut heap, layout, c, f) = small_heap();
        let a = heap.alloc_object(&layout, c).unwrap();
        heap.put_field(&layout, a, f, Value::I32(7));
        let b2 = heap.alloc_object(&layout, c).unwrap();
        assert_ne!(a, b2);
        assert_eq!(heap.get_field(&layout, b2, f), Value::I32(0));
        assert_eq!(heap.get_field(&layout, a, f), Value::I32(7));
        assert_eq!(heap.object_count(), 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let (mut heap, _, _, _) = small_heap();
        let mut n = 0;
        while heap.alloc_array(ElemTy::Byte, 100).is_some() {
            n += 1;
            assert!(n < 1000, "heap never filled");
        }
        assert!(n > 0);
    }

    #[test]
    fn statics_roundtrip() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C", None);
        let s = b.add_static_field(c, "counter", Ty::Long);
        let p = b.finish().unwrap();
        let layout = ProgramLayout::compute(&p);
        let mut heap = Heap::new(HeapConfig { size_bytes: 4096 }, layout.statics.size);
        assert_eq!(heap.get_static(&layout, s), Value::I64(0));
        heap.put_static(&layout, s, Value::I64(1 << 40));
        assert_eq!(heap.get_static(&layout, s), Value::I64(1 << 40));
    }

    #[test]
    fn mark_bit_roundtrip() {
        let (mut heap, layout, c, _) = small_heap();
        let r = heap.alloc_object(&layout, c).unwrap();
        assert!(!heap.set_marked(r, true));
        assert!(heap.header(r).marked);
        assert!(heap.set_marked(r, false));
        assert!(!heap.header(r).marked);
        // marking must not disturb the class id
        assert_eq!(heap.header(r).kind, HeapKind::Object(c));
    }

    #[test]
    fn codec_roundtrips_all_types() {
        let mut buf = vec![0u8; 16];
        let cases: Vec<(Ty, Value)> = vec![
            (Ty::Byte, Value::I32(-5)),
            (Ty::Short, Value::I32(-300)),
            (Ty::Int, Value::I32(i32::MIN)),
            (Ty::Long, Value::I64(i64::MAX)),
            (Ty::Float, Value::F32(3.5)),
            (Ty::Double, Value::F64(-2.25)),
            (Ty::Ref(ClassId(0)), Value::Ref(ObjRef(0xdead))),
        ];
        for (ty, v) in cases {
            codec::write_value(&mut buf, 4, ty, v);
            assert_eq!(codec::read_value(&buf, 4, ty), v, "{ty:?}");
        }
    }

    #[test]
    fn written_mark_follows_allocation_and_joins_the_frontier_at_restore() {
        let (mut heap, layout, c, f) = small_heap();
        assert_eq!(heap.written_mark(), heap.objects_base());
        let a = heap.alloc_object(&layout, c).unwrap();
        heap.put_field(&layout, a, f, Value::I32(7));
        assert_eq!(heap.written_mark(), a.0 + 16);
        // An array whose body is still zero: the image's last non-zero
        // byte is in its header, the frontier is its end.
        let z = heap.alloc_array(ElemTy::Int, 100).unwrap();
        let end = z.0 + array_byte_size(ElemTy::Int, 100);
        assert_eq!(heap.written_mark(), end);

        let rebuild = |heap: &Heap, nonzero_end: u32, free: Vec<(u32, u32)>| {
            Heap::from_raw_parts(
                heap.raw().to_vec(),
                nonzero_end,
                heap.objects_base(),
                heap.limit(),
                free,
                heap.objects().map(|r| r.0).collect(),
                heap.statics_size(),
                heap.stats,
            )
        };
        let mut back = rebuild(&heap, z.0 + HEADER_BYTES, heap.free_spans().to_vec()).unwrap();
        assert_eq!(back.written_mark(), end);
        back.array_store(z, 99, Value::I32(1)).unwrap(); // inside the mark
        assert_eq!(back.written_mark(), end);
        // No free span reaches the limit: anything may be allocated.
        let full = rebuild(&heap, z.0 + HEADER_BYTES, Vec::new()).unwrap();
        assert_eq!(full.written_mark(), full.limit());
        // Stale bytes in a freed span above the frontier still count.
        let stale = rebuild(&heap, 2000, heap.free_spans().to_vec()).unwrap();
        assert_eq!(stale.written, 2000);
        assert!(rebuild(&heap, heap.limit() + 1, Vec::new()).is_err());
    }

    /// `len` is guest data: a length whose byte size wraps 32 bits must
    /// not come back as a 16-byte array that claims half a billion
    /// elements (every heap byte then lies "inside" it).
    #[test]
    fn array_sizes_that_overflow_are_refused() {
        assert_eq!(checked_array_byte_size(ElemTy::Long, 0x2000_0001), None);
        assert_eq!(checked_array_byte_size(ElemTy::Int, 0x4000_0000), None);
        assert_eq!(checked_array_byte_size(ElemTy::Byte, u32::MAX - 8), None);
        assert_eq!(
            checked_array_byte_size(ElemTy::Byte, u32::MAX - 15),
            Some(0xffff_fff8)
        );
        assert_eq!(checked_array_byte_size(ElemTy::Long, 3), Some(32));

        let (mut heap, ..) = small_heap();
        assert_eq!(heap.alloc_array(ElemTy::Long, 0x2000_0001), None);
        assert_eq!(heap.alloc_array(ElemTy::Int, u32::MAX), None);
        // The largest array that fits still allocates — exactly.
        let (_, room) = heap.free_spans()[0];
        let most = (room - HEADER_BYTES) / 8;
        assert_eq!(heap.alloc_array(ElemTy::Long, most + 1), None);
        let r = heap.alloc_array(ElemTy::Long, most).expect("fits");
        assert_eq!(heap.array_length(r), most);
        assert!(heap.elem_addr(r, most as i32 - 1).unwrap().0 + 8 <= heap.limit());
        assert!(heap.elem_addr(r, most as i32).is_err());
    }

    /// A heap image is input too: a header whose length or element code
    /// no allocation can have written is refused at restore, not
    /// multiplied (or matched on) at the first access.
    #[test]
    fn restore_refuses_headers_that_leave_the_heap() {
        let (mut heap, layout, c, _) = small_heap();
        let obj = heap.alloc_object(&layout, c).unwrap();
        let arr = heap.alloc_array(ElemTy::Long, 10).unwrap();
        let rebuild = |data: Vec<u8>| {
            Heap::from_raw_parts(
                data,
                heap.written_mark(),
                heap.objects_base(),
                heap.limit(),
                heap.free_spans().to_vec(),
                heap.objects().map(|r| r.0).collect(),
                heap.statics_size(),
                heap.stats,
            )
        };
        assert!(rebuild(heap.raw().to_vec()).is_ok());
        let crafted = |at: u32, word: u32| {
            let mut data = heap.raw().to_vec();
            data[at as usize..at as usize + 4].copy_from_slice(&word.to_le_bytes());
            rebuild(data).err()
        };
        let refused = Some("heap object header describes an object outside the heap");
        // Wraps to a 16-byte array; one element too many for the heap;
        // an element code no `ElemTy` has; an object longer than the heap.
        assert_eq!(crafted(arr.0 + 4, 0x2000_0001), refused);
        assert_eq!(crafted(arr.0 + 4, (heap.limit() - arr.0) / 8), refused);
        assert_eq!(crafted(arr.0, ARRAY_BIT | (7 << 16)), refused);
        assert_eq!(crafted(obj.0 + 4, heap.limit()), refused);
        assert_eq!(crafted(obj.0 + 4, 4), refused);
    }

    #[test]
    fn bytes_out_of_range_is_error() {
        let (heap, _, _, _) = small_heap();
        assert!(heap.read_bytes(4090, 100).is_err());
        assert!(heap.read_bytes(0, 8).is_ok());
    }
}

//! hera-snap: the Hera-JVM snapshot container format.
//!
//! A snapshot is a small header followed by an opaque payload:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "HSNAP\0\0\0"
//! 8       4     format version (little-endian u32)
//! 12      4     flags (must be zero in version 1)
//! 16      8     payload length in bytes (little-endian u64)
//! 24      4     CRC-32 (IEEE) of the payload
//! 28      n     payload
//! ```
//!
//! Everything inside the payload is written with the little-endian
//! primitives of [`SnapWriter`] and read back with the bounds-checked
//! [`SnapReader`]; there is no self-describing structure and no external
//! serialization dependency. Both implement [`Codec`], so each struct's
//! fields are listed once, in one walk that encodes and decodes alike.
//! The CRC detects any single-bit flip in the payload; flips inside the
//! header are caught by the explicit magic, version, flags, and length
//! checks. Large mostly-zero buffers (the heap, SPE local stores) go
//! through the zero-run-length codec in [`rle_encode`]/[`rle_decode`].
//!
//! The container is deliberately dumb: interpretation of the payload —
//! and all semantic validation — lives in `hera-core::snapshot`, which
//! bumps [`FORMAT_VERSION`] whenever the payload layout changes.

#![forbid(unsafe_code)]

/// Magic bytes at the start of every snapshot file.
pub const MAGIC: [u8; 8] = *b"HSNAP\0\0\0";
/// Current on-disk format version. Bump whenever the payload layout changes.
/// v2: the CORE section carries the fault plan explicitly (after the
/// program digest) and the config digest zeroes the whole plan, enabling
/// cross-machine snapshot adoption.
/// v3: the carried fault plan gains the straggler shape
/// (`slowdown_factor`, `slowdown_from_cycle`).
pub const FORMAT_VERSION: u32 = 3;
/// Total header size in bytes (magic + version + flags + length + crc).
pub const HEADER_LEN: usize = 28;

/// Typed failure modes for snapshot decoding. Corrupted input must always
/// surface as one of these — never a panic, never a silently wrong resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Filesystem error while reading or writing a snapshot.
    Io(String),
    /// The file does not start with the `HSNAP` magic.
    BadMagic,
    /// The format version is not one this build understands.
    BadVersion { found: u32, expected: u32 },
    /// Reserved header flags were non-zero.
    BadFlags(u32),
    /// The input ended before the declared length.
    Truncated { wanted: usize, available: usize },
    /// The header-declared payload length disagrees with the actual bytes.
    LengthMismatch { declared: u64, actual: u64 },
    /// The payload CRC does not match the header.
    ChecksumMismatch { stored: u32, computed: u32 },
    /// The payload decoded but failed a structural or semantic check.
    Corrupt(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Io(msg) => write!(f, "snapshot i/o error: {msg}"),
            SnapError::BadMagic => write!(f, "not a hera snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {expected})"
                )
            }
            SnapError::BadFlags(flags) => {
                write!(f, "unsupported snapshot flags {flags:#010x}")
            }
            SnapError::Truncated { wanted, available } => {
                write!(
                    f,
                    "snapshot truncated: wanted {wanted} bytes, {available} available"
                )
            }
            SnapError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "snapshot length mismatch: header says {declared}, got {actual}"
                )
            }
            SnapError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            SnapError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Bytes folded into the CRC per step of [`crc32`] (slice-by-16).
const CRC_SLICES: usize = 16;

/// Slicing lookup tables for the reflected IEEE polynomial: `[0]` is the
/// classic byte-at-a-time table and `[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so a block of [`CRC_SLICES`] input bytes
/// folds into the running CRC with that many independent loads.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = {
    let mut t = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(CRC_SLICES);
    for block in &mut blocks {
        // The running CRC only meets the block's first four bytes; every
        // byte then looks up the CRC of itself shifted to the block's end.
        let head = crc.to_le_bytes();
        crc = 0;
        for (i, &b) in block.iter().enumerate() {
            let b = if i < 4 { b ^ head[i] } else { b };
            crc ^= t[CRC_SLICES - 1 - i][b as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Fast 64-bit content digest (FNV-1a over 8-byte lanes). Not part of the
/// on-disk format — used for cheap equality checks of large buffers such as
/// the final heap image or a trace lane.
pub fn digest64(bytes: &[u8]) -> u64 {
    digest64_zero_extended(bytes, bytes.len())
}

/// [`digest64`] of `prefix` followed by zero bytes up to `total` bytes in
/// all, in time proportional to `prefix.len()`: a zero lane only
/// multiplies the state by the FNV prime, so a run of them is one wrapping
/// power.
///
/// # Panics
///
/// Panics when `prefix` is longer than `total`.
pub fn digest64_zero_extended(prefix: &[u8], total: usize) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    assert!(prefix.len() <= total, "prefix longer than the buffer");
    let mut h = OFFSET ^ (total as u64).wrapping_mul(PRIME);
    let mut chunks = prefix.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ le_word(c)).wrapping_mul(PRIME);
    }
    // The buffer is `total / 8` whole lanes plus a final partial one
    // (folded in even when empty). The prefix filled `lanes` of them.
    let mut lanes = prefix.len() / 8;
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut lane = [0u8; 8];
        lane[..rest.len()].copy_from_slice(rest);
        h = (h ^ u64::from_le_bytes(lane)).wrapping_mul(PRIME);
        lanes += 1;
    }
    let (mut zero_lanes, mut square, mut power) = (total / 8 + 1 - lanes, PRIME, 1u64);
    while zero_lanes > 0 {
        if zero_lanes & 1 == 1 {
            power = power.wrapping_mul(square);
        }
        square = square.wrapping_mul(square);
        zero_lanes >>= 1;
    }
    h.wrapping_mul(power)
}

/// Wrap a payload in the versioned, checksummed container header.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::sealed(payload.len());
    w.raw(payload);
    w.seal()
}

/// Validate the container header and checksum, returning the payload slice.
pub fn open(bytes: &[u8]) -> Result<&[u8], SnapError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapError::Truncated {
            wanted: HEADER_LEN,
            available: bytes.len(),
        });
    }
    if bytes[0..8] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapError::BadVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if flags != 0 {
        return Err(SnapError::BadFlags(flags));
    }
    let declared = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let actual = (bytes.len() - HEADER_LEN) as u64;
    if declared != actual {
        if declared > actual {
            return Err(SnapError::Truncated {
                wanted: HEADER_LEN.saturating_add(usize::try_from(declared).unwrap_or(usize::MAX)),
                available: bytes.len(),
            });
        }
        return Err(SnapError::LengthMismatch { declared, actual });
    }
    let stored = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    let computed = crc32(payload);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Little-endian payload writer. All integers are fixed-width so that two
/// encodings of structurally equal state have identical lengths.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
    /// Where [`rle_encode_words`] stages words as bytes: one allocation
    /// serves every word array of a snapshot.
    words: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer for a container built in place: the buffer starts with the
    /// [`HEADER_LEN`]-byte header (length and CRC still zero) and has room
    /// for `payload_capacity` more bytes. The payload is written behind it
    /// and [`SnapWriter::seal`] completes the header, so the payload is
    /// never copied.
    pub fn sealed(payload_capacity: usize) -> Self {
        Self::sealed_in(Vec::with_capacity(HEADER_LEN + payload_capacity))
    }

    /// [`SnapWriter::sealed`] over `buf`, cleared first: a caller that
    /// encodes snapshots it does not keep hands the same allocation back
    /// each time ([`SnapWriter::into_inner`] returns it).
    pub fn sealed_in(mut buf: Vec<u8>) -> Self {
        buf.clear();
        let mut w = Self {
            buf,
            ..Self::default()
        };
        w.raw(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u32(0); // flags
        w.u64(0); // payload length, set by `seal`
        w.u32(0); // payload CRC, set by `seal`
        w
    }

    /// Finish a container begun with [`SnapWriter::sealed`]: write the
    /// payload length and CRC into the header and return the whole buffer.
    pub fn seal(mut self) -> Vec<u8> {
        assert!(
            self.buf.len() >= HEADER_LEN && self.buf[..8] == MAGIC,
            "seal() on a writer not created by SnapWriter::sealed"
        );
        let payload = &self.buf[HEADER_LEN..];
        let (len, crc) = (payload.len() as u64, crc32(payload));
        self.patch(16, &len.to_le_bytes());
        self.patch(24, &crc.to_le_bytes());
        // Snapshots are retained (a run keeps every checkpoint), so hand
        // the growth slack back instead of holding up to 2x per blob.
        self.buf.shrink_to_fit();
        self.buf
    }

    /// Overwrite already-written bytes starting at offset `at`.
    pub fn patch(&mut self, at: usize, bytes: &[u8]) {
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length prefix. Fixed-width u64 so lengths never change encoding size.
    pub fn len_prefix(&mut self, n: usize) {
        self.u64(n as u64);
    }

    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked little-endian payload reader. Every read that would run
/// past the end of the buffer returns [`SnapError::Truncated`]; length
/// prefixes are validated against the remaining bytes before any allocation
/// so corrupt lengths cannot trigger huge allocations.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails unless every payload byte has been consumed — trailing garbage
    /// is treated as corruption, not ignored.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(SnapError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                wanted: self.pos + n,
                available: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length prefix that counts elements of `elem_size` bytes each,
    /// validating the implied byte count against the remaining payload.
    pub fn len_prefix(&mut self, elem_size: usize) -> Result<usize, SnapError> {
        let n = self.u64()?;
        let bytes = n.checked_mul(elem_size.max(1) as u64).ok_or_else(|| {
            SnapError::Corrupt(format!("length prefix overflow: {n} x {elem_size}"))
        })?;
        if bytes > self.remaining() as u64 {
            return Err(SnapError::Corrupt(format!(
                "length prefix {n} ({bytes} bytes) exceeds remaining payload {}",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }
}

/// One direction of a payload walk. Each struct's fields are listed once,
/// in a walk generic over `Codec`: every method is handed the value to
/// write and returns the value read. [`SnapWriter`] writes what it is
/// handed and returns values the walk drops — strings, buffers and lists
/// come back empty, so a write allocates nothing; [`SnapReader`] ignores
/// what it is handed and returns what it reads, bounds-checked. A walk's
/// control flow must therefore depend only on values a method returned.
pub trait Codec: Sized {
    /// Whether this is the reader. A walk runs its decode-only checks,
    /// and keeps what it decodes, only when it is.
    const READS: bool;

    fn u8(&mut self, v: u8) -> Result<u8, SnapError>;
    fn u16(&mut self, v: u16) -> Result<u16, SnapError>;
    fn u32(&mut self, v: u32) -> Result<u32, SnapError>;
    fn u64(&mut self, v: u64) -> Result<u64, SnapError>;

    /// The count of a list whose `n` elements take at least
    /// `min_elem_bytes` each; the reader checks the bytes it implies
    /// against the remaining payload before anything is allocated.
    fn len_prefix(&mut self, n: usize, min_elem_bytes: usize) -> Result<usize, SnapError>;

    /// Length-prefixed byte string.
    fn blob(&mut self, bytes: &[u8]) -> Result<Vec<u8>, SnapError>;

    /// `words` zero-run-length coded ([`rle_encode_words`]); the reader
    /// checks their total against `len`.
    fn words(
        &mut self,
        words: impl Iterator<Item = u64>,
        len: RleLen,
    ) -> Result<Vec<u64>, SnapError>;

    /// `data`, all zero from `written` on, zero-run-length coded
    /// ([`rle_encode_zero_tail`]). The reader requires `data.len()` bytes
    /// and also returns the end of their last literal chunk
    /// ([`rle_decode_extent`]).
    fn rle(&mut self, data: &[u8], written: usize) -> Result<(Vec<u8>, usize), SnapError>;

    /// `len` zero bytes zero-run-length coded ([`rle_encode_zeros`]).
    /// Returns the end of the last literal chunk read, which a buffer
    /// that is all zero has at 0.
    fn zeros(&mut self, len: usize) -> Result<usize, SnapError>;

    fn bool(&mut self, v: bool) -> Result<bool, SnapError> {
        match self.u8(v as u8)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("invalid bool byte {b:#04x}"))),
        }
    }

    fn str(&mut self, s: &str) -> Result<String, SnapError> {
        String::from_utf8(self.blob(s.as_bytes())?)
            .map_err(|_| SnapError::Corrupt("invalid utf-8 string".into()))
    }

    /// A fixed-length run of `u64`s, with no length prefix.
    fn u64s<const N: usize>(&mut self, mut vs: [u64; N]) -> Result<[u64; N], SnapError> {
        for v in &mut vs {
            *v = self.u64(*v)?;
        }
        Ok(vs)
    }

    /// `None` as a 0 byte; `Some` as a 1 byte, then `walk` of the value
    /// (the reader hands `walk` a `T::default()`).
    fn opt<T: Default, U>(
        &mut self,
        v: Option<T>,
        walk: impl FnOnce(&mut Self, T) -> Result<U, SnapError>,
    ) -> Result<Option<U>, SnapError> {
        match self.u8(v.is_some() as u8)? {
            0 => Ok(None),
            1 => walk(self, v.unwrap_or_default()).map(Some),
            n => Err(SnapError::Corrupt(format!("invalid option tag {n:#04x}"))),
        }
    }

    /// `n` rows with no count written, row `i` walked by `walk(i)`; only
    /// the reader keeps what the walks return.
    fn rows<U>(
        &mut self,
        n: usize,
        mut walk: impl FnMut(&mut Self, usize) -> Result<U, SnapError>,
    ) -> Result<Vec<U>, SnapError> {
        let mut out = Vec::with_capacity(if Self::READS { n } else { 0 });
        for i in 0..n {
            let row = walk(self, i)?;
            if Self::READS {
                out.push(row);
            }
        }
        Ok(out)
    }

    /// A counted list ([`Codec::len_prefix`]) of `items`, each walked by
    /// `walk` (the reader hands it `T::default()`).
    fn list<T: Default, U>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        min_elem_bytes: usize,
        mut walk: impl FnMut(&mut Self, T) -> Result<U, SnapError>,
    ) -> Result<Vec<U>, SnapError> {
        let n = self.len_prefix(items.len(), min_elem_bytes)?;
        let mut items = items.fuse();
        self.rows(n, |c, _| walk(c, items.next().unwrap_or_default()))
    }
}

impl Codec for SnapWriter {
    const READS: bool = false;

    fn u8(&mut self, v: u8) -> Result<u8, SnapError> {
        SnapWriter::u8(self, v);
        Ok(v)
    }

    fn u16(&mut self, v: u16) -> Result<u16, SnapError> {
        SnapWriter::u16(self, v);
        Ok(v)
    }

    fn u32(&mut self, v: u32) -> Result<u32, SnapError> {
        SnapWriter::u32(self, v);
        Ok(v)
    }

    fn u64(&mut self, v: u64) -> Result<u64, SnapError> {
        SnapWriter::u64(self, v);
        Ok(v)
    }

    fn len_prefix(&mut self, n: usize, _: usize) -> Result<usize, SnapError> {
        SnapWriter::len_prefix(self, n);
        Ok(n)
    }

    fn blob(&mut self, bytes: &[u8]) -> Result<Vec<u8>, SnapError> {
        SnapWriter::len_prefix(self, bytes.len());
        self.raw(bytes);
        Ok(Vec::new())
    }

    fn words(
        &mut self,
        words: impl Iterator<Item = u64>,
        _: RleLen,
    ) -> Result<Vec<u64>, SnapError> {
        rle_encode_words(self, words);
        Ok(Vec::new())
    }

    fn rle(&mut self, data: &[u8], written: usize) -> Result<(Vec<u8>, usize), SnapError> {
        rle_encode_zero_tail(self, data, written);
        Ok((Vec::new(), 0))
    }

    fn zeros(&mut self, len: usize) -> Result<usize, SnapError> {
        rle_encode_zeros(self, len);
        Ok(0)
    }
}

impl Codec for SnapReader<'_> {
    const READS: bool = true;

    fn u8(&mut self, _: u8) -> Result<u8, SnapError> {
        SnapReader::u8(self)
    }

    fn u16(&mut self, _: u16) -> Result<u16, SnapError> {
        SnapReader::u16(self)
    }

    fn u32(&mut self, _: u32) -> Result<u32, SnapError> {
        SnapReader::u32(self)
    }

    fn u64(&mut self, _: u64) -> Result<u64, SnapError> {
        SnapReader::u64(self)
    }

    fn len_prefix(&mut self, _: usize, min_elem_bytes: usize) -> Result<usize, SnapError> {
        SnapReader::len_prefix(self, min_elem_bytes)
    }

    fn blob(&mut self, _: &[u8]) -> Result<Vec<u8>, SnapError> {
        let n = SnapReader::len_prefix(self, 1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn words(&mut self, _: impl Iterator<Item = u64>, len: RleLen) -> Result<Vec<u64>, SnapError> {
        rle_decode_words(self, len)
    }

    fn rle(&mut self, data: &[u8], _: usize) -> Result<(Vec<u8>, usize), SnapError> {
        rle_decode_extent(self, RleLen::Exactly(data.len()))
    }

    fn zeros(&mut self, len: usize) -> Result<usize, SnapError> {
        rle_skip_extent(self, len)
    }
}

const RLE_ZERO: u8 = 0;
const RLE_LITERAL: u8 = 1;

/// A zero run shorter than this stays inside the surrounding literal:
/// chasing every isolated zero would bloat the chunk table.
const MIN_ZERO_RUN: usize = 24;

fn le_word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// Number of leading zero bytes in `data`, found 32 and then 8 bytes at
/// a time.
fn zero_prefix(data: &[u8]) -> usize {
    let mut n = 0;
    for b in data.chunks_exact(32) {
        if le_word(&b[..8]) | le_word(&b[8..16]) | le_word(&b[16..24]) | le_word(&b[24..]) != 0 {
            break;
        }
        n += 32;
    }
    for c in data[n..].chunks_exact(8) {
        let word = le_word(c);
        if word != 0 {
            return n + (word.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + data[n..].iter().take_while(|&&b| b == 0).count()
}

/// End of the literal chunk that starts at the non-zero byte
/// `data[start]`: the start of the first maximal zero run of at least
/// [`MIN_ZERO_RUN`] bytes, or `data.len()`.
///
/// Only all-zero words can matter: on any 8-byte grid a run of 24 zero
/// bytes covers two whole words (one if it runs into the unaligned tail
/// of `data`), and the first of them is preceded by a non-zero word, so
/// the run starts at most 7 bytes before it. Shorter runs that happen to
/// cover a word are measured the same way and skipped.
fn literal_end(data: &[u8], start: usize) -> usize {
    let mut i = start;
    loop {
        let Some(k) = data[i..].chunks_exact(8).position(|c| le_word(c) == 0) else {
            return data.len();
        };
        let word_at = i + 8 * k;
        let before = data[i..word_at]
            .iter()
            .rev()
            .take_while(|&&b| b == 0)
            .count();
        let run = before + 8 + zero_prefix(&data[word_at + 8..]);
        if run >= MIN_ZERO_RUN {
            return word_at - before;
        }
        i = word_at - before + run;
    }
}

/// Zero-run-length encode `data` into `w`. Large buffers in the machine
/// (the 32 MB heap, 256 KB local stores) are overwhelmingly zero, so runs
/// of zeros are stored as a tag + length while everything else is copied
/// literally. Format: u64 total length, then chunks of
/// `(u8 tag, u64 len[, len literal bytes])` until the total is covered.
/// A zero chunk is a maximal zero run; a literal chunk ends at the first
/// maximal zero run of at least [`MIN_ZERO_RUN`] bytes or at end of data.
pub fn rle_encode(w: &mut SnapWriter, data: &[u8]) {
    rle_encode_zero_tail(w, data, data.len());
}

/// [`rle_encode`] of a buffer the caller knows to be all zero from
/// `written` on, in time proportional to `written`: only the head —
/// the written prefix plus enough of the zero tail for the chunking rule
/// to see a run that ends a literal — is scanned, and the zero chunk that
/// reaches the head's end is lengthened by the bytes not looked at.
///
/// # Panics
///
/// Panics when `written` is past the end of `data`.
fn rle_encode_zero_tail(w: &mut SnapWriter, data: &[u8], written: usize) {
    assert!(written <= data.len(), "written mark past the buffer");
    debug_assert!(
        data[written..].iter().all(|&b| b == 0),
        "non-zero byte in the tail"
    );
    let head = &data[..data.len().min((written + MIN_ZERO_RUN).next_multiple_of(8))];
    let unscanned = data.len() - head.len();
    w.len_prefix(data.len());
    let mut i = 0;
    while i < head.len() {
        let zeros = zero_prefix(&head[i..]);
        if zeros > 0 {
            i += zeros;
            w.u8(RLE_ZERO);
            w.len_prefix(if i == head.len() {
                zeros + unscanned
            } else {
                zeros
            });
        } else {
            let end = literal_end(head, i);
            w.u8(RLE_LITERAL);
            w.len_prefix(end - i);
            w.raw(&head[i..end]);
            i = end;
        }
    }
}

/// [`rle_encode`] of `words` as little-endian bytes, staged in the
/// writer's word buffer. [`rle_decode_words`] reads it back.
fn rle_encode_words(w: &mut SnapWriter, words: impl Iterator<Item = u64>) {
    let mut staged = std::mem::take(&mut w.words);
    staged.clear();
    for v in words {
        staged.extend_from_slice(&v.to_le_bytes());
    }
    rle_encode(w, &staged);
    w.words = staged;
}

/// [`rle_encode`] of `len` zero bytes, without the buffer.
fn rle_encode_zeros(w: &mut SnapWriter, len: usize) {
    w.len_prefix(len);
    if len > 0 {
        w.u8(RLE_ZERO);
        w.len_prefix(len);
    }
}

/// The total a zero-run-length buffer must declare before it is decoded.
#[derive(Clone, Copy, Debug)]
pub enum RleLen {
    /// Exactly this many bytes: a buffer whose size the reader knows.
    Exactly(usize),
    /// Whole 8-byte words, at most `cap` bytes: a word array whose size
    /// only the snapshot knows. The total counts uncompressed bytes, so
    /// the remaining payload does not bound it and the cap must.
    Words { cap: usize },
}

impl RleLen {
    /// The declared total, read from `r` and checked against the rule.
    fn read_total(self, r: &mut SnapReader<'_>) -> Result<usize, SnapError> {
        let total = r.u64()?;
        let fault = match self {
            RleLen::Exactly(n) if total != n as u64 => format!("does not match expected {n}"),
            RleLen::Words { cap } if total > cap as u64 => format!("exceeds the cap of {cap}"),
            RleLen::Words { .. } if total % 8 != 0 => "is not whole words".to_string(),
            _ => return Ok(total as usize),
        };
        Err(SnapError::Corrupt(format!(
            "rle buffer length {total} {fault}"
        )))
    }
}

/// Decode a zero-run-length buffer, requiring its total length to equal
/// `expected_len` exactly.
pub fn rle_decode(r: &mut SnapReader<'_>, expected_len: usize) -> Result<Vec<u8>, SnapError> {
    rle_decode_extent(r, RleLen::Exactly(expected_len)).map(|(out, _)| out)
}

/// Decode a zero-run-length buffer whose declared total meets `len`, also
/// returning the end of the last literal chunk (0 when there is none):
/// every decoded byte at or past it is zero, which the caller then knows
/// without scanning the buffer.
fn rle_decode_extent(r: &mut SnapReader<'_>, len: RleLen) -> Result<(Vec<u8>, usize), SnapError> {
    let total = len.read_total(r)?;
    let mut out = vec![0u8; total];
    let literal_end = rle_chunks(r, total, |at, bytes| {
        out[at..at + bytes.len()].copy_from_slice(bytes)
    })?;
    Ok((out, literal_end))
}

/// The words [`rle_encode_words`] wrote, their total checked by `len`
/// (which counts bytes, eight to a word).
fn rle_decode_words(r: &mut SnapReader<'_>, len: RleLen) -> Result<Vec<u64>, SnapError> {
    let (bytes, _) = rle_decode_extent(r, len)?;
    Ok(bytes.chunks_exact(8).map(le_word).collect())
}

/// The literal end [`rle_decode_extent`] returns, with the chunks checked
/// the same way but nothing allocated or copied: a caller that requires
/// an all-zero buffer requires 0.
fn rle_skip_extent(r: &mut SnapReader<'_>, expected_len: usize) -> Result<usize, SnapError> {
    let total = RleLen::Exactly(expected_len).read_total(r)?;
    rle_chunks(r, total, |_, _| {})
}

/// Walk the chunks of a zero-run-length buffer of `total` bytes (its
/// declared total already read), handing `literal` each literal chunk and
/// its offset; returns the end of the last literal chunk (0 when there is
/// none).
fn rle_chunks(
    r: &mut SnapReader<'_>,
    total: usize,
    mut literal: impl FnMut(usize, &[u8]),
) -> Result<usize, SnapError> {
    let (mut filled, mut literal_end) = (0usize, 0usize);
    while filled < total {
        let tag = r.u8()?;
        let run = r.u64()? as usize;
        if run == 0 || run > total - filled {
            return Err(SnapError::Corrupt(format!(
                "rle run of {run} bytes overflows buffer ({filled}/{total} filled)"
            )));
        }
        match tag {
            RLE_ZERO => {}
            RLE_LITERAL => {
                literal(filled, r.take(run)?);
                literal_end = filled + run;
            }
            other => {
                return Err(SnapError::Corrupt(format!("invalid rle tag {other:#04x}")));
            }
        }
        filled += run;
    }
    Ok(literal_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_rng::SplitMix64;

    /// The byte-at-a-time CRC-32 that `crc32` replaced, kept as the
    /// reference for the differential test.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The byte-at-a-time encoder that `rle_encode` replaced, kept as the
    /// reference for the differential tests: it *is* the chunking rule.
    fn rle_encode_reference(w: &mut SnapWriter, data: &[u8]) {
        w.len_prefix(data.len());
        let mut i = 0;
        while i < data.len() {
            let start = i;
            if data[i] == 0 {
                while i < data.len() && data[i] == 0 {
                    i += 1;
                }
                w.u8(RLE_ZERO);
                w.len_prefix(i - start);
            } else {
                while i < data.len() {
                    if data[i] == 0 {
                        let z = data[i..].iter().take_while(|&&b| b == 0).count();
                        if z >= 24 {
                            break;
                        }
                        i += z;
                    } else {
                        i += 1;
                    }
                }
                w.u8(RLE_LITERAL);
                w.len_prefix(i - start);
                w.raw(&data[start..i]);
            }
        }
    }

    /// The lane-at-a-time digest over the whole buffer that `digest64`
    /// was before it learnt to skip a zero tail.
    fn digest64_reference(bytes: &[u8]) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET ^ (bytes.len() as u64).wrapping_mul(PRIME);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let v = u64::from_le_bytes(c.try_into().unwrap());
            h = (h ^ v).wrapping_mul(PRIME);
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= (b as u64) << (8 * i);
        }
        (h ^ tail).wrapping_mul(PRIME)
    }

    /// `rle_encode(data)` must equal the reference byte for byte and
    /// decode back to `data`.
    fn assert_rle_matches_reference(data: &[u8], what: &str) {
        let mut fast = SnapWriter::new();
        rle_encode(&mut fast, data);
        let mut slow = SnapWriter::new();
        rle_encode_reference(&mut slow, data);
        assert_eq!(fast.bytes(), slow.bytes(), "{what}: encoding differs");
        let mut r = SnapReader::new(fast.bytes());
        assert_eq!(rle_decode(&mut r, data.len()).unwrap(), data, "{what}");
        r.finish().unwrap();
    }

    fn nonzero_bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
        (0..n).map(|_| 1 + rng.next_below(255) as u8).collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        let mut rng = SplitMix64::new(0xC0C32);
        let buf: Vec<u8> = (0..4096 + 70).map(|_| rng.next_u64() as u8).collect();
        // Every length 0..=70 (up to four whole blocks of the slicing loop
        // and every remainder length) at eight start offsets, then a few
        // long unaligned slices.
        for start in 0..8 {
            for len in 0..=70 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start} len {len}");
            }
            let s = &buf[start..];
            assert_eq!(crc32(s), crc32_reference(s), "start {start} to end");
        }
    }

    #[test]
    fn rle_matches_reference_around_every_run_length() {
        // A zero run of each interesting length (below, at and above one
        // word, the 24-byte threshold, and a page) at the start, in the
        // middle and at the tail of the buffer, with the literal before
        // it shifted through every word phase and the slice itself
        // starting at every offset mod 8 of its allocation.
        let mut rng = SplitMix64::new(0x21E);
        for run in [0usize, 1, 7, 8, 9, 23, 24, 25, 4096] {
            for lead in (0..=17).chain([64, 255]) {
                for trail in [0usize, 1, 8, 13, 40] {
                    let mut v = vec![0xAAu8; 8]; // unaligned-start padding
                    v.extend(nonzero_bytes(&mut rng, lead));
                    v.extend(std::iter::repeat_n(0u8, run));
                    v.extend(nonzero_bytes(&mut rng, trail));
                    for skew in 0..8 {
                        assert_rle_matches_reference(
                            &v[8 - skew..],
                            &format!("run {run} lead {lead} trail {trail} skew {skew}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rle_matches_reference_on_seeded_buffers() {
        assert_rle_matches_reference(&[], "empty");
        assert_rle_matches_reference(&[0], "one zero");
        assert_rle_matches_reference(&[9], "one literal");
        assert_rle_matches_reference(&vec![0; 100_000], "all zero");
        let mut rng = SplitMix64::new(0x5EED);
        assert_rle_matches_reference(&nonzero_bytes(&mut rng, 10_000), "all literal");
        // Mixed buffers: alternating zero runs and literals whose lengths
        // straddle the word size and the 24-byte threshold, including
        // literals with embedded short zero runs.
        for case in 0..200 {
            let mut v = Vec::new();
            let pieces = 1 + rng.next_below(12);
            for _ in 0..pieces {
                let len = match rng.next_below(4) {
                    0 => rng.next_below(10),
                    1 => 14 + rng.next_below(20),
                    2 => rng.next_below(70),
                    _ => rng.next_below(600),
                } as usize;
                if rng.next_below(2) == 0 {
                    v.extend(std::iter::repeat_n(0u8, len));
                } else {
                    v.extend(nonzero_bytes(&mut rng, len));
                }
            }
            let skew = rng.next_below(8).min(v.len() as u64) as usize;
            assert_rle_matches_reference(&v[skew..], &format!("seeded case {case}"));
        }
        // Sparse images: single non-zero bytes scattered over zeros, the
        // shape of a mostly-empty heap or local store.
        for case in 0..50 {
            let mut v = vec![0u8; 2048 + rng.next_below(64) as usize];
            for _ in 0..rng.next_below(40) {
                let at = rng.next_below(v.len() as u64) as usize;
                v[at] = 1 + rng.next_below(255) as u8;
            }
            assert_rle_matches_reference(&v, &format!("sparse case {case}"));
        }
    }

    #[test]
    fn zero_tail_rle_matches_reference_around_the_written_mark() {
        // The written prefix ends in each interesting number of zero
        // bytes (so the run that ends the last literal starts before,
        // at or after the mark), the real tail is shorter than, equal
        // to and longer than the head the encoder scans, and the slice
        // starts at every offset mod 8 of its allocation.
        let mut rng = SplitMix64::new(0x7A11);
        for end_zeros in [0usize, 1, 7, 8, 23, 24, 25, 31, 32, 33] {
            for tail in [0usize, 1, 31, 32, 33, 1 << 20] {
                let mut v = vec![0xAAu8; 8]; // unaligned-start padding
                v.extend(std::iter::repeat_n(0u8, rng.next_below(40) as usize));
                let body = 1 + rng.next_below(90) as usize;
                v.extend(nonzero_bytes(&mut rng, body));
                v.extend(std::iter::repeat_n(0u8, rng.next_below(30) as usize));
                let body = 1 + rng.next_below(9) as usize;
                v.extend(nonzero_bytes(&mut rng, body));
                v.extend(std::iter::repeat_n(0u8, end_zeros));
                let written = v.len();
                v.extend(std::iter::repeat_n(0u8, tail));
                for skew in 0..8 {
                    let what = format!("end zeros {end_zeros} tail {tail} skew {skew}");
                    let data = &v[8 - skew..];
                    let mut fast = SnapWriter::new();
                    rle_encode_zero_tail(&mut fast, data, written - (8 - skew));
                    let mut slow = SnapWriter::new();
                    rle_encode_reference(&mut slow, data);
                    assert!(fast.bytes() == slow.bytes(), "{what}: encoding differs");
                    let mut r = SnapReader::new(fast.bytes());
                    let (back, literal_end) =
                        rle_decode_extent(&mut r, RleLen::Exactly(data.len())).unwrap();
                    assert!(back == data, "{what}: round trip");
                    // A trailing run too short to end the literal is
                    // inside it; otherwise the literal ends exactly at
                    // the last non-zero byte.
                    let last_nonzero = written - (8 - skew) - end_zeros;
                    let want = if end_zeros + tail < MIN_ZERO_RUN {
                        data.len()
                    } else {
                        last_nonzero
                    };
                    assert_eq!(literal_end, want, "{what}: literal end");
                }
            }
        }
        // Nothing written at all, and a mark anywhere inside a zero buffer.
        for (len, written) in [(0, 0), (5, 0), (24, 0), (4096, 0), (4096, 100), (40, 40)] {
            let data = vec![0u8; len];
            let mut fast = SnapWriter::new();
            rle_encode_zero_tail(&mut fast, &data, written);
            let mut slow = SnapWriter::new();
            rle_encode_reference(&mut slow, &data);
            assert_eq!(fast.bytes(), slow.bytes(), "zeros {len} written {written}");
        }
    }

    #[test]
    fn zeros_encode_like_a_zero_buffer_and_skip_to_extent_zero() {
        for len in [0usize, 1, 7, 8, 24, 4096, 256 << 10] {
            let mut fast = SnapWriter::new();
            rle_encode_zeros(&mut fast, len);
            let mut slow = SnapWriter::new();
            rle_encode(&mut slow, &vec![0; len]);
            assert_eq!(fast.bytes(), slow.bytes(), "{len} zeros");
            let mut r = SnapReader::new(fast.bytes());
            assert_eq!(rle_skip_extent(&mut r, len), Ok(0), "{len} zeros");
            r.finish().unwrap();
        }
        // The skip checks what the decode checks and ends where it ends.
        let data = [
            0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9,
        ];
        let mut w = SnapWriter::new();
        rle_encode(&mut w, &data[..3]);
        rle_encode(&mut w, &data);
        let mut r = SnapReader::new(w.bytes());
        assert_eq!(rle_skip_extent(&mut r, 3), Ok(3));
        assert_eq!(rle_skip_extent(&mut r, data.len()), Ok(data.len()));
        r.finish().unwrap();
        let mut r = SnapReader::new(w.bytes());
        assert!(matches!(
            rle_skip_extent(&mut r, 4),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn zero_extended_digest_matches_the_materialised_buffer() {
        let mut rng = SplitMix64::new(0xD16E);
        let prefix: Vec<u8> = (0..40).map(|_| 1 + rng.next_below(255) as u8).collect();
        for total in [0usize, 1, 7, 8, 9, 15, 16, 17, 4096, 4099] {
            for len in 0..=total.min(40) {
                // The prefix as drawn, then with its last 1..=9 bytes
                // zeroed (a written region that ends in zeros).
                for zeroed in 0..=len.min(9) {
                    let mut full = vec![0u8; total];
                    full[..len - zeroed].copy_from_slice(&prefix[..len - zeroed]);
                    let want = digest64_reference(&full);
                    assert_eq!(
                        digest64_zero_extended(&full[..len], total),
                        want,
                        "total {total} prefix {len} zeroed {zeroed}"
                    );
                    assert_eq!(digest64(&full), want, "total {total} whole buffer");
                }
            }
        }
    }

    #[test]
    fn open_survives_a_huge_declared_length() {
        // A length field near u64::MAX must come back as a typed error:
        // `HEADER_LEN + declared` used to overflow.
        let mut bad = seal(b"payload");
        bad[16..24].fill(0xFF);
        assert_eq!(
            open(&bad),
            Err(SnapError::Truncated {
                wanted: usize::MAX,
                available: bad.len(),
            })
        );
    }

    #[test]
    fn sealing_in_place_matches_seal() {
        let payload = b"header written last, payload never copied";
        let mut w = SnapWriter::sealed(0);
        w.raw(payload);
        let at = w.len() - 6;
        w.patch(at, b"COPIED");
        let sealed = w.seal();
        assert_eq!(sealed, seal(b"header written last, payload never COPIED"));
        assert_eq!(open(&sealed).unwrap().len(), payload.len());
        // A reused buffer starts over: its old bytes are not the payload.
        let mut w = SnapWriter::sealed_in(sealed);
        w.raw(b"second");
        assert_eq!(w.seal(), seal(b"second"));
    }

    /// One walk of every primitive, as [`Codec`] walks are written: the
    /// reader hands back what the writer was handed.
    #[allow(clippy::type_complexity)]
    fn walk_primitives<C: Codec>(
        c: &mut C,
        v: (u8, bool, bool, u16, u32, u64, &str, &[u8]),
        opts: (Option<u32>, Option<u32>, Option<u64>),
    ) -> Result<
        (
            u8,
            bool,
            bool,
            u16,
            u32,
            u64,
            String,
            Vec<u8>,
            [Option<u64>; 3],
        ),
        SnapError,
    > {
        Ok((
            c.u8(v.0)?,
            c.bool(v.1)?,
            c.bool(v.2)?,
            c.u16(v.3)?,
            c.u32(v.4)?,
            c.u64(v.5)?,
            c.str(v.6)?,
            c.blob(v.7)?,
            [
                c.opt(opts.0, |c, x| c.u32(x))?.map(u64::from),
                c.opt(opts.1, |c, x| c.u32(x))?.map(u64::from),
                c.opt(opts.2, |c, x| c.u64(x))?,
            ],
        ))
    }

    #[test]
    fn writer_reader_round_trip() {
        let v = (
            0xAB,
            true,
            false,
            0xBEEF,
            0xDEAD_BEEF,
            0x0123_4567_89AB_CDEF,
            "hera",
            &[1u8, 2, 3][..],
        );
        let opts = (None, Some(7), Some(u64::MAX));
        let mut w = SnapWriter::new();
        walk_primitives(&mut w, v, opts).unwrap();
        let mut r = SnapReader::new(w.bytes());
        let back = walk_primitives(&mut r, Default::default(), Default::default()).unwrap();
        assert_eq!(
            back,
            (
                0xAB,
                true,
                false,
                0xBEEF,
                0xDEAD_BEEF,
                0x0123_4567_89AB_CDEF,
                "hera".to_string(),
                vec![1, 2, 3],
                [None, Some(7), Some(u64::MAX)]
            )
        );
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_overrun_and_trailing() {
        let buf = [1u8, 2, 3];
        let mut r = SnapReader::new(&buf);
        assert!(matches!(r.u64(), Err(SnapError::Truncated { .. })));
        let mut r = SnapReader::new(&buf);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn length_prefix_caps_allocation() {
        // A declared length far beyond the payload must be rejected before
        // any allocation happens.
        let mut w = SnapWriter::new();
        w.u64(u64::MAX / 2);
        let buf = w.into_inner();
        let mut r = SnapReader::new(&buf);
        assert!(matches!(r.len_prefix(8), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn seal_open_round_trip() {
        let payload = b"the quick brown fox".to_vec();
        let sealed = seal(&payload);
        assert_eq!(open(&sealed).unwrap(), &payload[..]);
    }

    #[test]
    fn open_rejects_bad_header_fields() {
        let sealed = seal(b"payload");

        let mut bad = sealed.clone();
        bad[0] ^= 0xFF;
        assert_eq!(open(&bad), Err(SnapError::BadMagic));

        let mut bad = sealed.clone();
        bad[8] = 99;
        assert!(matches!(
            open(&bad),
            Err(SnapError::BadVersion { found: 99, .. })
        ));

        let mut bad = sealed.clone();
        bad[12] = 1;
        assert!(matches!(open(&bad), Err(SnapError::BadFlags(_))));

        let mut bad = sealed.clone();
        bad[16] = bad[16].wrapping_add(1);
        assert!(matches!(
            open(&bad),
            Err(SnapError::Truncated { .. }) | Err(SnapError::LengthMismatch { .. })
        ));

        // Truncation at every possible length must be typed, never a panic.
        for cut in 0..sealed.len() {
            assert!(
                open(&sealed[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }

        // Extra trailing bytes are a length mismatch.
        let mut bad = sealed.clone();
        bad.push(0);
        assert!(matches!(open(&bad), Err(SnapError::LengthMismatch { .. })));
    }

    #[test]
    fn container_bit_flip_sweep() {
        // Every single-bit flip anywhere in the sealed container must be
        // rejected with a typed error.
        let sealed = seal(b"deterministic bit flip sweep payload \x00\x00\x00\x01\x02");
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut flipped = sealed.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    open(&flipped).is_err(),
                    "bit flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn rle_round_trips() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0; 4096],
            vec![7; 100],
            {
                let mut v = vec![0u8; 1000];
                v[500] = 9;
                v[999] = 1;
                v
            },
            {
                // Alternating short zero gaps inside a literal run.
                let mut v = Vec::new();
                for i in 0..600u32 {
                    v.push(if i % 7 == 0 { 0 } else { (i % 251) as u8 + 1 });
                }
                v.extend_from_slice(&[0; 512]);
                v.push(3);
                v
            },
        ];
        for case in cases {
            let mut w = SnapWriter::new();
            rle_encode(&mut w, &case);
            let buf = w.into_inner();
            let mut r = SnapReader::new(&buf);
            let back = rle_decode(&mut r, case.len()).unwrap();
            r.finish().unwrap();
            assert_eq!(back, case);
        }
    }

    #[test]
    fn rle_rejects_wrong_expected_len_and_overflow_runs() {
        let data = vec![1u8, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut w = SnapWriter::new();
        rle_encode(&mut w, &data);
        let buf = w.into_inner();

        let mut r = SnapReader::new(&buf);
        assert!(matches!(
            rle_decode(&mut r, data.len() + 1),
            Err(SnapError::Corrupt(_))
        ));

        // Hand-built stream whose run overflows the declared total.
        let mut w = SnapWriter::new();
        w.len_prefix(4);
        w.u8(RLE_ZERO);
        w.len_prefix(8);
        let buf = w.into_inner();
        let mut r = SnapReader::new(&buf);
        assert!(matches!(rle_decode(&mut r, 4), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn words_round_trip_and_a_word_array_is_whole_words_under_its_cap() {
        let words = [0u64, 0, 7, u64::MAX, 0, 0, 0, 0, 1 << 40];
        let mut w = SnapWriter::new();
        rle_encode_words(&mut w, words.iter().copied());
        for len in [RleLen::Exactly(72), RleLen::Words { cap: 72 }] {
            let mut r = SnapReader::new(w.bytes());
            assert_eq!(rle_decode_words(&mut r, len), Ok(words.to_vec()));
            r.finish().unwrap();
        }
        let mut r = SnapReader::new(w.bytes());
        let over = rle_decode_words(&mut r, RleLen::Words { cap: 64 });
        assert!(matches!(over, Err(SnapError::Corrupt(_))), "{over:?}");
        let mut w = SnapWriter::new();
        rle_encode(&mut w, &[1, 2, 3]);
        let mut r = SnapReader::new(w.bytes());
        let ragged = rle_decode_words(&mut r, RleLen::Words { cap: 64 });
        assert!(matches!(ragged, Err(SnapError::Corrupt(_))), "{ragged:?}");
    }

    #[test]
    fn a_list_reads_its_count_then_its_elements_and_checks_the_count() {
        let mut w = SnapWriter::new();
        w.len_prefix(3);
        for v in [5u32, 6, 7] {
            w.u32(v);
        }
        let list = |r: &mut SnapReader<'_>, min| r.list(std::iter::empty(), min, Codec::u32);
        let mut r = SnapReader::new(w.bytes());
        assert_eq!(list(&mut r, 4), Ok(vec![5, 6, 7]));
        r.finish().unwrap();
        // Three elements of at least five bytes do not fit in twelve.
        let mut r = SnapReader::new(w.bytes());
        let long = list(&mut r, 5);
        assert!(matches!(long, Err(SnapError::Corrupt(_))), "{long:?}");
    }

    #[test]
    fn digest64_distinguishes_and_is_stable() {
        let a = digest64(b"hello world");
        let b = digest64(b"hello worle");
        assert_ne!(a, b);
        assert_eq!(a, digest64(b"hello world"));
        assert_ne!(digest64(b""), digest64(b"\0"));
    }

    #[test]
    fn encoding_is_deterministic() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        assert_eq!(seal(&payload), seal(&payload));
    }
}

//! # nexus-store
//!
//! **NXCOL v2** — a versioned, deterministic on-disk columnar format for
//! [`nexus_table::Table`], plus strict validating readers. This is the
//! persistence layer behind `nexus-cli pack` and the multi-dataset
//! registry in `nexus-serve` (a reproduction of SIGMOD 2023 *"On
//! Explaining Confounding Bias"*, which assumes a resident, repeatedly
//! mined data lake).
//!
//! Layout (all integers little-endian; see DESIGN.md §7 for the full
//! specification):
//!
//! ```text
//! magic "NXCOL1\r\n" · version u16 · flags u16 · n_cols u32 ·
//! n_rows u64 · table fingerprint u64 · header CRC32
//! then per column:
//!   section length u32 · body · body CRC32
//!   body = name · column fingerprint u64 · type tag · encoding ·
//!          validity bitmap words · value buffers
//!          (plain | RLE; Utf8 = dictionary + codes)
//! ```
//!
//! The fingerprints are those of [`Table::column_fingerprints`] and
//! [`Table::fingerprint`]: each column's is built from per-block digests,
//! so both sides compute them on a pool.
//!
//! Two properties are load-bearing:
//!
//! * **Byte determinism** — [`encode_table`] is a pure function of the
//!   *logical* table content: null payload slots are canonicalized and
//!   the plain-vs-RLE choice is "RLE iff strictly smaller". Equal tables
//!   produce equal files.
//! * **Strict validation** — [`decode_table`] refuses bad magic,
//!   unsupported versions (v1 files included: re-pack them with
//!   `nexus-cli pack`), truncation, CRC mismatches, over-cap section
//!   lengths, and any non-canonical encoding with a typed [`StoreError`];
//!   it never panics on arbitrary input, and it checks every decoded
//!   column's fingerprint against its section and the table's against the
//!   header. Sections decode on a pool of [`Parallelism::Auto`] workers.
//!
//! ```
//! use nexus_table::{Column, Table};
//!
//! let t = Table::new(vec![
//!     ("city", Column::from_strs(&["oslo", "lyon", "oslo"])),
//!     ("pm25", Column::from_opt_f64(vec![Some(7.1), None, Some(9.4)])),
//! ]).unwrap();
//! let bytes = nexus_store::encode_table(&t);
//! let back = nexus_store::decode_table(&bytes).unwrap();
//! assert_eq!(back.fingerprint(), t.fingerprint());
//! assert_eq!(nexus_store::encode_table(&back), bytes); // byte-deterministic
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

use nexus_runtime::{Parallelism, ThreadPool};
use nexus_table::{Bitmap, Column, ColumnData, DictArray, Table, TableError};

/// The 8-byte file magic, shared by every version. The `\r\n` tail
/// catches text-mode mangling.
pub const MAGIC: [u8; 8] = *b"NXCOL1\r\n";

/// The format version this crate writes and reads.
pub const VERSION: u16 = 2;

/// Hard cap on a single column section's declared body length (1 GiB).
/// A declared length above this is refused from the length field alone,
/// before any allocation.
pub const MAX_SECTION_LEN: u32 = 1 << 30;

/// Cap on the declared column count — far above any real table, low
/// enough that a corrupt header cannot drive a near-endless parse loop.
pub const MAX_COLS: u32 = 1 << 16;

const HEADER_LEN: usize = 8 + 2 + 2 + 4 + 8 + 8 + 4;

const TAG_INT64: u8 = 1;
const TAG_FLOAT64: u8 = 2;
const TAG_UTF8: u8 = 3;
const TAG_BOOL: u8 = 4;

const ENC_PLAIN: u8 = 0;
const ENC_RLE: u8 = 1;

// ----------------------------------------------------------------------
// Errors
// ----------------------------------------------------------------------

/// Typed decode/IO failures. Decoding arbitrary bytes returns one of
/// these — it never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header declares a version this reader does not speak (a v1
    /// file must be re-packed with `nexus-cli pack`).
    UnsupportedVersion(u16),
    /// The input ended before a declared structure was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A CRC32 check failed.
    BadCrc {
        /// Which checksummed region failed (`"header"` or a column name
        /// placeholder like `"column 3"`).
        context: String,
    },
    /// A column section declares a body longer than [`MAX_SECTION_LEN`].
    SectionTooLarge {
        /// The declared body length.
        declared: u32,
    },
    /// A decoded column's content fingerprint differs from the one its
    /// section stores.
    ColumnFingerprint {
        /// The column's name.
        column: String,
    },
    /// Structurally invalid or non-canonical content (bad type tag,
    /// RLE runs that do not sum to the row count, out-of-range
    /// dictionary codes, table fingerprint mismatch, trailing bytes, …).
    Malformed(String),
    /// An OS-level read or write failure.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not an NXCOL file (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(
                f,
                "unsupported NXCOL version {v} (this reader speaks {VERSION}); \
                 re-pack the table with `nexus-cli pack`"
            ),
            StoreError::Truncated { context } => write!(f, "truncated NXCOL file in {context}"),
            StoreError::BadCrc { context } => write!(f, "CRC mismatch in {context}"),
            StoreError::SectionTooLarge { declared } => write!(
                f,
                "column section declares {declared} bytes, over the {MAX_SECTION_LEN} cap"
            ),
            StoreError::ColumnFingerprint { column } => write!(
                f,
                "column '{column}': content fingerprint does not match its section"
            ),
            StoreError::Malformed(m) => write!(f, "malformed NXCOL file: {m}"),
            StoreError::Io(m) => write!(f, "store I/O error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl From<TableError> for StoreError {
    fn from(e: TableError) -> Self {
        StoreError::Malformed(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

// ----------------------------------------------------------------------
// CRC32 (IEEE, reflected) — same polynomial as NEXUSRPC framing.
// ----------------------------------------------------------------------

/// CRC32 (IEEE) by slicing-by-8: eight table lookups per 8 input bytes
/// instead of one dependent lookup per byte, with the same value as the
/// bytewise loop. NXCOL's section checksums and NEXUSRPC's frame trailer
/// both use it.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        // Table k advances table k-1's entry by one more zero byte.
        for k in 1..8 {
            let (done, rest) = t.split_at_mut(k);
            for (entry, &prev) in rest[0].iter_mut().zip(&done[k - 1]) {
                *entry = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_slice(&chunk[..4]) ^ c;
        let hi = u32::from_le_slice(&chunk[4..]);
        c = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in chunks.remainder() {
        c = t[0][byte(c ^ u32::from(b), 0)] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------------
// Little-endian words
// ----------------------------------------------------------------------

/// A fixed-width little-endian word of a value buffer.
trait Word: Copy + PartialEq {
    const WIDTH: usize;
    fn from_le_slice(bytes: &[u8]) -> Self;
    fn put(self, out: &mut Vec<u8>);
}

impl Word for u32 {
    const WIDTH: usize = 4;
    fn from_le_slice(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
    }
    fn put(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Word for u64 {
    const WIDTH: usize = 8;
    fn from_le_slice(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }
    fn put(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    (s.len() as u32).put(out);
    out.extend_from_slice(s.as_bytes());
}

// ----------------------------------------------------------------------
// Bounds-checked little-endian reader
// ----------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn word<T: Word>(&mut self, context: &'static str) -> Result<T> {
        Ok(T::from_le_slice(self.take(T::WIDTH, context)?))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32> {
        self.word(context)
    }

    fn u64(&mut self, context: &'static str) -> Result<u64> {
        self.word(context)
    }

    fn str(&mut self, context: &'static str) -> Result<String> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Malformed(format!("invalid UTF-8 in {context}")))
    }

    /// `n` words, with the byte requirement checked before allocation so
    /// a corrupt count cannot force a huge alloc.
    fn words<T: Word>(&mut self, n: usize, context: &'static str) -> Result<Vec<T>> {
        let bytes = n
            .checked_mul(T::WIDTH)
            .ok_or(StoreError::Malformed(format!("{context}: count overflow")))?;
        let raw = self.take(bytes, context)?;
        Ok(raw.chunks_exact(T::WIDTH).map(T::from_le_slice).collect())
    }

    fn finish(&self, context: &'static str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(StoreError::Malformed(format!(
                "{} trailing bytes after {context}",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Writer
// ----------------------------------------------------------------------

/// Encodes a table as NXCOL v2 bytes.
///
/// Pure and byte-deterministic: equal logical tables (same schema, same
/// values, same null pattern) encode to identical bytes, regardless of
/// the payload slots hidden behind nulls or how the table was built.
pub fn encode_table(table: &Table) -> Vec<u8> {
    let column_fps = table.column_fingerprints(&ThreadPool::new(Parallelism::Auto));
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
    (table.n_cols() as u32).put(&mut out);
    (table.n_rows() as u64).put(&mut out);
    table.fingerprint_from(&column_fps).put(&mut out);
    crc32(&out).put(&mut out);

    for (i, field) in table.schema().fields().iter().enumerate() {
        let body = encode_column(&field.name, column_fps[i], table.column_at(i));
        (body.len() as u32).put(&mut out);
        out.extend_from_slice(&body);
        crc32(&body).put(&mut out);
    }
    out
}

fn encode_column(name: &str, fingerprint: u64, col: &Column) -> Vec<u8> {
    let mut body = Vec::new();
    put_str(&mut body, name);
    fingerprint.put(&mut body);
    // Null slots are canonicalized so the bytes depend only on logical
    // content.
    let valid = |i: usize| !col.is_null(i);
    match col.data() {
        ColumnData::Int64(v) => {
            let canon: Vec<u64> = v
                .iter()
                .enumerate()
                .map(|(i, &x)| if valid(i) { x as u64 } else { 0 })
                .collect();
            body.push(TAG_INT64);
            put_values(&mut body, col, None, &canon);
        }
        ColumnData::Float64(v) => {
            let canon: Vec<u64> = v
                .iter()
                .enumerate()
                .map(|(i, &x)| (if valid(i) { x } else { f64::NAN }).to_bits())
                .collect();
            body.push(TAG_FLOAT64);
            put_values(&mut body, col, None, &canon);
        }
        ColumnData::Utf8(arr) => {
            let canon: Vec<u32> = arr
                .codes()
                .iter()
                .enumerate()
                .map(|(i, &c)| if valid(i) { c } else { 0 })
                .collect();
            body.push(TAG_UTF8);
            put_values(&mut body, col, Some(arr.dict()), &canon);
        }
        ColumnData::Bool(v) => {
            // Bit-packed, canonical false behind nulls; always plain.
            let mut words = vec![0u64; v.len().div_ceil(64)];
            for (i, &x) in v.iter().enumerate() {
                if x && valid(i) {
                    words[i / 64] |= 1u64 << (i % 64);
                }
            }
            body.push(TAG_BOOL);
            body.push(ENC_PLAIN);
            push_validity(&mut body, col);
            words.iter().for_each(|w| w.put(&mut body));
        }
    }
    body
}

/// Writes `encoding · validity · [dictionary] · values`, choosing RLE iff
/// it is strictly smaller than the plain buffer.
fn put_values<T: Word>(body: &mut Vec<u8>, col: &Column, dict: Option<&[String]>, values: &[T]) {
    let n_runs = runs(values).count();
    let rle = 4 + n_runs * (4 + T::WIDTH) < values.len() * T::WIDTH;
    body.push(if rle { ENC_RLE } else { ENC_PLAIN });
    push_validity(body, col);
    if let Some(dict) = dict {
        (dict.len() as u32).put(body);
        dict.iter().for_each(|s| put_str(body, s));
    }
    if rle {
        (n_runs as u32).put(body);
        for (len, value) in runs(values) {
            len.put(body);
            value.put(body);
        }
    } else {
        values.iter().for_each(|v| v.put(body));
    }
}

/// The maximal runs of equal values, as `(length, value)`, split at
/// `u32::MAX` rows.
fn runs<T: Word>(values: &[T]) -> impl Iterator<Item = (u32, T)> + '_ {
    values
        .chunk_by(|a, b| a == b)
        .flat_map(|run| run.chunks(u32::MAX as usize))
        .map(|run| (run.len() as u32, run[0]))
}

fn push_validity(body: &mut Vec<u8>, col: &Column) {
    match col.validity() {
        // An all-valid bitmap is canonicalized away: `Some(all ones)` and
        // `None` are the same logical column and must encode identically.
        Some(v) if v.count_zeros() > 0 => {
            body.push(1);
            v.words().iter().for_each(|w| w.put(body));
        }
        _ => body.push(0),
    }
}

// ----------------------------------------------------------------------
// Reader
// ----------------------------------------------------------------------

/// Summary of one stored column, as reported by [`inspect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnInfo {
    /// Column name.
    pub name: String,
    /// Data type name (`Int64` / `Float64` / `Utf8` / `Bool`).
    pub dtype: &'static str,
    /// Buffer encoding (`plain` / `rle`).
    pub encoding: &'static str,
    /// Whether the column stores a validity bitmap (has nulls).
    pub has_validity: bool,
    /// The stored column content fingerprint.
    pub fingerprint: u64,
    /// Encoded section body length in bytes.
    pub section_bytes: u32,
}

/// Parsed file-level metadata, as reported by [`inspect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Format version from the header.
    pub version: u16,
    /// Number of columns.
    pub n_cols: u32,
    /// Number of rows.
    pub n_rows: u64,
    /// The stored table content fingerprint.
    pub fingerprint: u64,
    /// Total file length in bytes.
    pub file_bytes: usize,
    /// Per-column summaries, in schema order.
    pub columns: Vec<ColumnInfo>,
}

struct Header {
    n_cols: u32,
    n_rows: u64,
    fingerprint: u64,
}

fn decode_header(r: &mut Reader<'_>) -> Result<Header> {
    let magic = r.take(8, "header")?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u16("header")?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let flags = r.u16("header")?;
    if flags != 0 {
        return Err(StoreError::Malformed(format!(
            "reserved header flags set: {flags:#06x}"
        )));
    }
    let n_cols = r.u32("header")?;
    let n_rows = r.u64("header")?;
    let fingerprint = r.u64("header")?;
    let declared = r.u32("header")?;
    let actual = crc32(&r.buf[..HEADER_LEN - 4]);
    if declared != actual {
        return Err(StoreError::BadCrc {
            context: "header".into(),
        });
    }
    if n_cols > MAX_COLS {
        return Err(StoreError::Malformed(format!(
            "header declares {n_cols} columns, over the {MAX_COLS} cap"
        )));
    }
    Ok(Header {
        n_cols,
        n_rows,
        fingerprint,
    })
}

/// Decodes NXCOL v2 bytes back into a [`Table`].
///
/// Every structural invariant is validated (magic, version, CRCs,
/// section caps, run-length sums, dictionary code ranges, canonical
/// validity bitmaps), each decoded column's content fingerprint is
/// checked against its section and the table's against the header, so a
/// successful decode is bit-faithful. Sections decode, and their
/// fingerprints are computed, on a pool of [`Parallelism::Auto`]
/// workers. Arbitrary input returns a typed [`StoreError`]; this function
/// does not panic.
pub fn decode_table(bytes: &[u8]) -> Result<Table> {
    let pool = ThreadPool::new(Parallelism::Auto);
    let (info, columns) = parse(bytes, &pool, true)?;
    let names = info.columns.iter().map(|c| c.name.clone());
    let table = Table::new(names.zip(columns).collect())?;
    let column_fps = table.column_fingerprints(&pool);
    for (c, &fp) in info.columns.iter().zip(&column_fps) {
        if c.fingerprint != fp {
            return Err(StoreError::ColumnFingerprint {
                column: c.name.clone(),
            });
        }
    }
    if table.fingerprint_from(&column_fps) != info.fingerprint {
        return Err(StoreError::Malformed(
            "table fingerprint does not match header".into(),
        ));
    }
    Ok(table)
}

/// Parses and validates the file structure (header + every section CRC)
/// without materializing columns or re-checking the content fingerprints.
pub fn inspect(bytes: &[u8]) -> Result<StoreInfo> {
    let (info, _) = parse(bytes, &ThreadPool::new(Parallelism::Auto), false)?;
    Ok(info)
}

/// Reads the header and slices the column sections serially (lengths and
/// caps only), then CRC-checks and decodes the sections on `pool`. The
/// columns come back only when `materialize` asks for them.
fn parse(bytes: &[u8], pool: &ThreadPool, materialize: bool) -> Result<(StoreInfo, Vec<Column>)> {
    let mut r = Reader::new(bytes);
    let header = decode_header(&mut r)?;
    let n_rows = usize::try_from(header.n_rows)
        .map_err(|_| StoreError::Malformed("row count exceeds address space".into()))?;
    if header.n_cols == 0 && header.n_rows != 0 {
        return Err(StoreError::Malformed(
            "zero-column file declares a nonzero row count".into(),
        ));
    }
    let mut sections = Vec::with_capacity(header.n_cols as usize);
    for _ in 0..header.n_cols {
        let section_len = r.u32("column section length")?;
        if section_len > MAX_SECTION_LEN {
            return Err(StoreError::SectionTooLarge {
                declared: section_len,
            });
        }
        let body = r.take(section_len as usize, "column section body")?;
        sections.push((body, r.u32("column section CRC")?));
    }
    r.finish("last column section")?;

    // The pool claims tasks in order: largest sections first, so the
    // longest decode does not start last.
    let mut order: Vec<usize> = (0..sections.len()).collect();
    order.sort_by_key(|&idx| std::cmp::Reverse(sections[idx].0.len()));
    let results = pool.map(order.len(), |j| {
        let idx = order[j];
        let (body, crc) = sections[idx];
        if crc32(body) != crc {
            return Err(StoreError::BadCrc {
                context: format!("column {idx}"),
            });
        }
        decode_column(body, n_rows, materialize)
    });
    let mut decoded: Vec<_> = order.into_iter().zip(results).collect();
    decoded.sort_unstable_by_key(|&(idx, _)| idx);
    let mut infos = Vec::with_capacity(decoded.len());
    let mut columns = Vec::new();
    for (_, section) in decoded {
        let (info, column) = section?;
        infos.push(info);
        columns.extend(column);
    }
    Ok((
        StoreInfo {
            version: VERSION,
            n_cols: header.n_cols,
            n_rows: header.n_rows,
            fingerprint: header.fingerprint,
            file_bytes: bytes.len(),
            columns: infos,
        },
        columns,
    ))
}

fn decode_column(
    body: &[u8],
    n_rows: usize,
    materialize: bool,
) -> Result<(ColumnInfo, Option<Column>)> {
    let mut r = Reader::new(body);
    let name = r.str("column name")?;
    let fingerprint = r.u64("column fingerprint")?;
    let type_tag = r.u8("column type tag")?;
    let encoding = r.u8("column encoding")?;
    if encoding != ENC_PLAIN && encoding != ENC_RLE {
        return Err(StoreError::Malformed(format!(
            "column '{name}': unknown encoding {encoding}"
        )));
    }
    let has_validity = r.u8("column validity flag")?;
    if has_validity > 1 {
        return Err(StoreError::Malformed(format!(
            "column '{name}': validity flag must be 0 or 1, got {has_validity}"
        )));
    }
    let validity = if has_validity == 1 {
        let words = r.words(n_rows.div_ceil(64), "validity bitmap")?;
        let bm = Bitmap::from_words(words, n_rows)?;
        if bm.count_zeros() == 0 {
            return Err(StoreError::Malformed(format!(
                "column '{name}': non-canonical all-valid bitmap"
            )));
        }
        Some(bm)
    } else {
        None
    };

    let (dtype, data) = match type_tag {
        TAG_INT64 => {
            let values: Vec<u64> = read_values(&mut r, encoding, n_rows, &name)?;
            let values = values.into_iter().map(|b| b as i64).collect();
            ("Int64", ColumnData::Int64(values))
        }
        TAG_FLOAT64 => {
            let bits: Vec<u64> = read_values(&mut r, encoding, n_rows, &name)?;
            let values = bits.into_iter().map(f64::from_bits).collect();
            ("Float64", ColumnData::Float64(values))
        }
        TAG_UTF8 => {
            let n_dict = r.u32("dictionary length")? as usize;
            let mut dict = Vec::with_capacity(n_dict.min(r.remaining() / 4 + 1));
            for _ in 0..n_dict {
                dict.push(r.str("dictionary entry")?);
            }
            let codes: Vec<u32> = read_values(&mut r, encoding, n_rows, &name)?;
            // An all-null text column (what `read_csv` makes of an empty
            // CSV column) has an empty dictionary and code 0 in every row.
            let all_null = validity.as_ref().is_some_and(|v| v.count_ones() == 0);
            let array = if dict.is_empty() && all_null && codes.iter().all(|&c| c == 0) {
                DictArray::from_options(&vec![None::<&str>; n_rows]).0
            } else {
                DictArray::from_parts(codes, dict)?
            };
            ("Utf8", ColumnData::Utf8(array))
        }
        TAG_BOOL => {
            if encoding != ENC_PLAIN {
                return Err(StoreError::Malformed(format!(
                    "column '{name}': booleans are always plain-encoded"
                )));
            }
            let words = r.words(n_rows.div_ceil(64), "bool values")?;
            let bits = Bitmap::from_words(words, n_rows)?;
            let values: Vec<bool> = (0..n_rows).map(|i| bits.get(i)).collect();
            ("Bool", ColumnData::Bool(values))
        }
        other => {
            return Err(StoreError::Malformed(format!(
                "column '{name}': unknown type tag {other}"
            )));
        }
    };
    r.finish("column body")?;

    let info = ColumnInfo {
        name,
        dtype,
        encoding: if encoding == ENC_RLE { "rle" } else { "plain" },
        has_validity: has_validity == 1,
        fingerprint,
        section_bytes: body.len() as u32,
    };
    let column = if materialize {
        Some(Column::from_parts(data, validity)?)
    } else {
        None
    };
    Ok((info, column))
}

/// Reads `n_rows` values in `encoding`; RLE runs must sum to the row
/// count exactly.
fn read_values<T: Word>(
    r: &mut Reader<'_>,
    encoding: u8,
    n_rows: usize,
    name: &str,
) -> Result<Vec<T>> {
    if encoding == ENC_PLAIN {
        return r.words(n_rows, "column values");
    }
    let bad_sum = || {
        StoreError::Malformed(format!(
            "column '{name}': RLE runs do not sum to the row count"
        ))
    };
    let n_runs = r.u32("rle run count")? as usize;
    let width = 4 + T::WIDTH;
    let runs = r.take(n_runs.saturating_mul(width), "rle runs")?;
    let run_len = |run: &[u8]| u32::from_le_slice(&run[..4]) as usize;
    // The run lengths are checked before the output is allocated, so a
    // corrupt row count cannot force a huge allocation either.
    let mut total = 0usize;
    for run in runs.chunks_exact(width) {
        let len = run_len(run);
        if len == 0 || total + len > n_rows {
            return Err(bad_sum());
        }
        total += len;
    }
    if total != n_rows {
        return Err(bad_sum());
    }
    let mut out = Vec::with_capacity(n_rows);
    for run in runs.chunks_exact(width) {
        out.extend(std::iter::repeat_n(
            T::from_le_slice(&run[4..]),
            run_len(run),
        ));
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Path helpers
// ----------------------------------------------------------------------

/// Writes a table to `path` as NXCOL v2.
pub fn write_table_path(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, encode_table(table))?;
    Ok(())
}

/// Reads and strictly validates an NXCOL v2 file.
pub fn read_table_path(path: impl AsRef<Path>) -> Result<Table> {
    decode_table(&std::fs::read(path)?)
}

/// Reads, validates, and summarizes an NXCOL v2 file without building
/// the table.
pub fn inspect_path(path: impl AsRef<Path>) -> Result<StoreInfo> {
    inspect(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_table::Column;

    fn sample() -> Table {
        let n = 300usize;
        let countries: Vec<Option<String>> = (0..n)
            .map(|i| {
                if i % 17 == 0 {
                    None
                } else {
                    Some(format!("C{}", i % 7))
                }
            })
            .collect();
        let salaries: Vec<Option<f64>> = (0..n)
            .map(|i| {
                if i % 23 == 0 {
                    None
                } else {
                    Some(1000.0 + (i % 13) as f64)
                }
            })
            .collect();
        let years: Vec<i64> = (0..n).map(|i| 1990 + (i % 30) as i64).collect();
        let flags: Vec<Option<bool>> = (0..n)
            .map(|i| if i % 11 == 0 { None } else { Some(i % 2 == 0) })
            .collect();
        Table::new(vec![
            ("Country", Column::from_opt_strs(&countries)),
            ("Salary", Column::from_opt_f64(salaries)),
            ("Year", Column::from_i64(years)),
            ("Remote", Column::from_opt_bools(flags)),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_content_and_bytes() {
        let t = sample();
        let bytes = encode_table(&t);
        let back = decode_table(&bytes).unwrap();
        assert_eq!(back.fingerprint(), t.fingerprint());
        assert_eq!(back.n_rows(), t.n_rows());
        for (i, field) in t.schema().fields().iter().enumerate() {
            for row in 0..t.n_rows() {
                assert_eq!(
                    back.column_at(i).value(row),
                    t.column_at(i).value(row),
                    "column {} row {row}",
                    field.name
                );
            }
        }
        assert_eq!(encode_table(&back), bytes, "re-encode must be bit-exact");
    }

    #[test]
    fn encoding_ignores_null_slot_garbage() {
        // Two logically equal columns with different payloads behind the
        // null must encode identically.
        let mut a = Column::from_i64(vec![1, 999, 3]);
        a.set_null(1);
        let b = Column::from_opt_i64(vec![Some(1), None, Some(3)]);
        let ta = Table::new(vec![("x", a)]).unwrap();
        let tb = Table::new(vec![("x", b)]).unwrap();
        assert_eq!(encode_table(&ta), encode_table(&tb));
    }

    #[test]
    fn low_cardinality_runs_pick_rle() {
        let v: Vec<i64> = std::iter::repeat_n(7i64, 5000)
            .chain(std::iter::repeat_n(9i64, 5000))
            .collect();
        let t = Table::new(vec![("k", Column::from_i64(v))]).unwrap();
        let bytes = encode_table(&t);
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.columns[0].encoding, "rle");
        assert!(bytes.len() < 5000, "RLE must compress constant runs");
        let back = decode_table(&bytes).unwrap();
        assert_eq!(back.fingerprint(), t.fingerprint());
    }

    #[test]
    fn inspect_reports_layout() {
        let t = sample();
        let bytes = encode_table(&t);
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.version, VERSION);
        assert_eq!(info.n_cols, 4);
        assert_eq!(info.n_rows, 300);
        assert_eq!(info.fingerprint, t.fingerprint());
        assert_eq!(info.file_bytes, bytes.len());
        assert_eq!(info.columns[0].dtype, "Utf8");
        assert!(info.columns[0].has_validity);
        assert_eq!(info.columns[2].dtype, "Int64");
        assert!(!info.columns[2].has_validity);
        let column_fps = t.column_fingerprints(&ThreadPool::new(Parallelism::Fixed(2)));
        let stored: Vec<u64> = info.columns.iter().map(|c| c.fingerprint).collect();
        assert_eq!(stored, column_fps);
    }

    #[test]
    fn crc32_matches_the_bytewise_definition() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // the standard check value
        let bytewise = |bytes: &[u8]| {
            let mut c = !0u32;
            for &b in bytes {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        };
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7919 % 251) as u8).collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 1000] {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "{len} bytes");
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_table(&sample());
        bytes[0] ^= 0xFF;
        assert_eq!(decode_table(&bytes).unwrap_err(), StoreError::BadMagic);
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut bytes = encode_table(&sample());
        bytes[8] = 9; // version field
                      // CRC now mismatches too; rewrite it so the version check is hit.
        let crc = crc32(&bytes[..HEADER_LEN - 4]);
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_table(&bytes).unwrap_err(),
            StoreError::UnsupportedVersion(9)
        );
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = encode_table(&sample());
        for cut in [3, HEADER_LEN - 1, HEADER_LEN + 2, bytes.len() - 1] {
            let err = decode_table(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. } | StoreError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_bit_fails_crc() {
        let mut bytes = encode_table(&sample());
        let i = HEADER_LEN + 20; // inside the first column section body
        bytes[i] ^= 0x04;
        assert!(matches!(
            decode_table(&bytes),
            Err(StoreError::BadCrc { .. })
        ));
    }

    #[test]
    fn over_cap_section_is_refused_before_allocation() {
        let mut bytes = encode_table(&sample());
        let huge = (MAX_SECTION_LEN + 1).to_le_bytes();
        bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&huge);
        assert_eq!(
            decode_table(&bytes).unwrap_err(),
            StoreError::SectionTooLarge {
                declared: MAX_SECTION_LEN + 1
            }
        );
    }

    #[test]
    fn trailing_garbage_is_refused() {
        let mut bytes = encode_table(&sample());
        bytes.push(0);
        assert!(matches!(
            decode_table(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::new(Vec::<(String, Column)>::new()).unwrap();
        let bytes = encode_table(&t);
        let back = decode_table(&bytes).unwrap();
        assert_eq!(back.n_cols(), 0);
        assert_eq!(back.fingerprint(), t.fingerprint());
    }

    #[test]
    fn all_null_text_column_round_trips() {
        let t = Table::new(vec![
            ("Empty", Column::from_opt_strs(&[None::<&str>; 3])),
            ("x", Column::from_i64(vec![1, 2, 3])),
        ])
        .unwrap();
        let bytes = encode_table(&t);
        let back = decode_table(&bytes).unwrap();
        assert_eq!(back.fingerprint(), t.fingerprint());
        assert_eq!(back.n_cols(), t.n_cols());
        for i in 0..t.n_cols() {
            assert_eq!(back.column_at(i), t.column_at(i), "column {i}");
        }
        assert_eq!(encode_table(&back), bytes, "re-encode must be bit-exact");
    }

    #[test]
    fn empty_dictionary_with_a_valid_row_is_refused() {
        // Zero codes under an empty dictionary, but the rows are valid.
        let (array, _) = DictArray::from_options(&[None::<&str>; 3]);
        let column = Column::from_parts(ColumnData::Utf8(array), None).unwrap();
        let bytes = encode_table(&Table::new(vec![("bad", column)]).unwrap());
        assert!(matches!(
            decode_table(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn encoded_bytes_track_content() {
        let t = sample();
        let a = encode_table(&t);
        assert_eq!(a, encode_table(&t));
        let t2 = Table::new(vec![("x", Column::from_i64(vec![1]))]).unwrap();
        assert_ne!(a, encode_table(&t2));
    }
}

//! # nexus-store
//!
//! **NXCOL v1** — a versioned, deterministic on-disk columnar format for
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
//!   body = name · type tag · encoding · validity bitmap words ·
//!          value buffers (plain | RLE; Utf8 = dictionary + codes) ·
//!          per-2^16-row-block min/max zone maps
//! ```
//!
//! Two properties are load-bearing:
//!
//! * **Byte determinism** — [`encode_table`] is a pure function of the
//!   *logical* table content: null payload slots are canonicalized, the
//!   plain-vs-RLE choice is "RLE iff strictly smaller", and zone maps
//!   derive from values only. Equal tables produce equal files, so
//!   [`file_fingerprint`] can key caches off the raw bytes.
//! * **Strict validation** — [`decode_table`] refuses bad magic,
//!   unsupported versions, truncation, CRC mismatches, over-cap section
//!   lengths, and any non-canonical encoding with a typed [`StoreError`];
//!   it never panics on arbitrary input, and it cross-checks the decoded
//!   table's fingerprint against the header.
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

use nexus_table::{Bitmap, Column, ColumnData, DictArray, Fnv64, Table, TableError};

/// The 8-byte file magic. The `\r\n` tail catches text-mode mangling.
pub const MAGIC: [u8; 8] = *b"NXCOL1\r\n";

/// The format version this crate writes and reads.
pub const VERSION: u16 = 1;

/// Rows per zone-map block.
pub const BLOCK_ROWS: usize = 1 << 16;

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
    /// The header declares a version this reader does not speak.
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
    /// Structurally invalid or non-canonical content (bad type tag,
    /// RLE runs that do not sum to the row count, out-of-range
    /// dictionary codes, fingerprint mismatch, trailing bytes, …).
    Malformed(String),
    /// An OS-level read or write failure.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not an NXCOL file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported NXCOL version {v} (this reader speaks {VERSION})"
                )
            }
            StoreError::Truncated { context } => write!(f, "truncated NXCOL file in {context}"),
            StoreError::BadCrc { context } => write!(f, "CRC mismatch in {context}"),
            StoreError::SectionTooLarge { declared } => write!(
                f,
                "column section declares {declared} bytes, over the {MAX_SECTION_LEN} cap"
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

fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
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
        t
    });
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------------
// Little-endian write helpers
// ----------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
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

    fn u32(&mut self, context: &'static str) -> Result<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64> {
        let b = self.take(8, context)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str(&mut self, context: &'static str) -> Result<String> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Malformed(format!("invalid UTF-8 in {context}")))
    }

    /// A vector of `n` u64 words, with the byte requirement checked
    /// before allocation so a corrupt count cannot force a huge alloc.
    fn u64_vec(&mut self, n: usize, context: &'static str) -> Result<Vec<u64>> {
        let bytes = n
            .checked_mul(8)
            .ok_or(StoreError::Malformed(format!("{context}: count overflow")))?;
        let raw = self.take(bytes, context)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    fn u32_vec(&mut self, n: usize, context: &'static str) -> Result<Vec<u32>> {
        let bytes = n
            .checked_mul(4)
            .ok_or(StoreError::Malformed(format!("{context}: count overflow")))?;
        let raw = self.take(bytes, context)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
            .collect())
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

/// Encodes a table as NXCOL v1 bytes.
///
/// Pure and byte-deterministic: equal logical tables (same schema, same
/// values, same null pattern) encode to identical bytes, regardless of
/// the payload slots hidden behind nulls or how the table was built.
pub fn encode_table(table: &Table) -> Vec<u8> {
    let n_rows = table.n_rows();
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_u16(&mut out, VERSION);
    put_u16(&mut out, 0); // flags, reserved
    put_u32(&mut out, table.n_cols() as u32);
    put_u64(&mut out, n_rows as u64);
    put_u64(&mut out, table.fingerprint());
    let crc = crc32(&out);
    put_u32(&mut out, crc);

    for (i, field) in table.schema().fields().iter().enumerate() {
        let body = encode_column(&field.name, table.column_at(i), n_rows);
        put_u32(&mut out, body.len() as u32);
        let crc = crc32(&body);
        out.extend_from_slice(&body);
        put_u32(&mut out, crc);
    }
    out
}

fn encode_column(name: &str, col: &Column, n_rows: usize) -> Vec<u8> {
    let mut body = Vec::new();
    put_str(&mut body, name);
    let is_null = |i: usize| col.is_null(i);
    match col.data() {
        ColumnData::Int64(v) => {
            // Canonicalize null slots so the bytes depend only on logical
            // content.
            let canon: Vec<i64> = v
                .iter()
                .enumerate()
                .map(|(i, &x)| if is_null(i) { 0 } else { x })
                .collect();
            body.push(TAG_INT64);
            let rle = rle_runs(&canon, |x| *x);
            let plain_len = canon.len() * 8;
            let rle_len = 4 + rle.len() * 12;
            if rle_len < plain_len {
                body.push(ENC_RLE);
                push_validity(&mut body, col, n_rows);
                put_u32(&mut body, rle.len() as u32);
                for (len, x) in &rle {
                    put_u32(&mut body, *len);
                    put_u64(&mut body, *x as u64);
                }
            } else {
                body.push(ENC_PLAIN);
                push_validity(&mut body, col, n_rows);
                for x in &canon {
                    put_u64(&mut body, *x as u64);
                }
            }
            let blocks = zone_blocks(n_rows);
            put_u32(&mut body, blocks as u32);
            for b in 0..blocks {
                let (lo, hi) = block_range(b, n_rows);
                let mut mm: Option<(i64, i64)> = None;
                // `i` also indexes the validity bitmap, so a range loop is
                // the clearest spelling here.
                #[allow(clippy::needless_range_loop)]
                for i in lo..hi {
                    if !is_null(i) {
                        let x = v[i];
                        mm = Some(match mm {
                            None => (x, x),
                            Some((mn, mx)) => (mn.min(x), mx.max(x)),
                        });
                    }
                }
                match mm {
                    Some((mn, mx)) => {
                        body.push(1);
                        put_u64(&mut body, mn as u64);
                        put_u64(&mut body, mx as u64);
                    }
                    None => {
                        body.push(0);
                        put_u64(&mut body, 0);
                        put_u64(&mut body, 0);
                    }
                }
            }
        }
        ColumnData::Float64(v) => {
            let canon: Vec<u64> = v
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    if is_null(i) {
                        f64::NAN.to_bits()
                    } else {
                        x.to_bits()
                    }
                })
                .collect();
            body.push(TAG_FLOAT64);
            let rle = rle_runs(&canon, |x| *x);
            let plain_len = canon.len() * 8;
            let rle_len = 4 + rle.len() * 12;
            if rle_len < plain_len {
                body.push(ENC_RLE);
                push_validity(&mut body, col, n_rows);
                put_u32(&mut body, rle.len() as u32);
                for (len, bits) in &rle {
                    put_u32(&mut body, *len);
                    put_u64(&mut body, *bits);
                }
            } else {
                body.push(ENC_PLAIN);
                push_validity(&mut body, col, n_rows);
                for bits in &canon {
                    put_u64(&mut body, *bits);
                }
            }
            let blocks = zone_blocks(n_rows);
            put_u32(&mut body, blocks as u32);
            for b in 0..blocks {
                let (lo, hi) = block_range(b, n_rows);
                let mut mm: Option<(f64, f64)> = None;
                // `i` also indexes the validity bitmap, so a range loop is
                // the clearest spelling here.
                #[allow(clippy::needless_range_loop)]
                for i in lo..hi {
                    if !is_null(i) {
                        let x = v[i];
                        if !x.is_nan() {
                            mm = Some(match mm {
                                None => (x, x),
                                Some((mn, mx)) => (mn.min(x), mx.max(x)),
                            });
                        }
                    }
                }
                match mm {
                    Some((mn, mx)) => {
                        body.push(1);
                        put_u64(&mut body, mn.to_bits());
                        put_u64(&mut body, mx.to_bits());
                    }
                    None => {
                        body.push(0);
                        put_u64(&mut body, 0);
                        put_u64(&mut body, 0);
                    }
                }
            }
        }
        ColumnData::Utf8(arr) => {
            let canon: Vec<u32> = arr
                .codes()
                .iter()
                .enumerate()
                .map(|(i, &c)| if is_null(i) { 0 } else { c })
                .collect();
            body.push(TAG_UTF8);
            let rle = rle_runs(&canon, |c| *c);
            let plain_len = canon.len() * 4;
            let rle_len = 4 + rle.len() * 8;
            if rle_len < plain_len {
                body.push(ENC_RLE);
                push_validity(&mut body, col, n_rows);
                put_u32(&mut body, arr.dict().len() as u32);
                for s in arr.dict() {
                    put_str(&mut body, s);
                }
                put_u32(&mut body, rle.len() as u32);
                for (len, c) in &rle {
                    put_u32(&mut body, *len);
                    put_u32(&mut body, *c);
                }
            } else {
                body.push(ENC_PLAIN);
                push_validity(&mut body, col, n_rows);
                put_u32(&mut body, arr.dict().len() as u32);
                for s in arr.dict() {
                    put_str(&mut body, s);
                }
                for c in &canon {
                    put_u32(&mut body, *c);
                }
            }
            let blocks = zone_blocks(n_rows);
            put_u32(&mut body, blocks as u32);
            for b in 0..blocks {
                let (lo, hi) = block_range(b, n_rows);
                let mut mm: Option<(u32, u32)> = None;
                for (i, &c) in canon.iter().enumerate().take(hi).skip(lo) {
                    if !is_null(i) {
                        mm = Some(match mm {
                            None => (c, c),
                            Some((mn, mx)) => (mn.min(c), mx.max(c)),
                        });
                    }
                }
                match mm {
                    Some((mn, mx)) => {
                        body.push(1);
                        put_u32(&mut body, mn);
                        put_u32(&mut body, mx);
                    }
                    None => {
                        body.push(0);
                        put_u32(&mut body, 0);
                        put_u32(&mut body, 0);
                    }
                }
            }
        }
        ColumnData::Bool(v) => {
            body.push(TAG_BOOL);
            body.push(ENC_PLAIN);
            push_validity(&mut body, col, n_rows);
            // Bit-packed, canonical false behind nulls.
            let mut words = vec![0u64; n_rows.div_ceil(64)];
            for (i, &x) in v.iter().enumerate() {
                if x && !is_null(i) {
                    words[i / 64] |= 1u64 << (i % 64);
                }
            }
            for w in &words {
                put_u64(&mut body, *w);
            }
            put_u32(&mut body, 0); // no zone map for booleans
        }
    }
    body
}

fn push_validity(body: &mut Vec<u8>, col: &Column, n_rows: usize) {
    match col.validity() {
        // An all-valid bitmap is canonicalized away: `Some(all ones)` and
        // `None` are the same logical column and must encode identically.
        Some(v) if v.count_zeros() > 0 => {
            body.push(1);
            debug_assert_eq!(v.len(), n_rows);
            for w in v.words() {
                put_u64(body, *w);
            }
        }
        _ => body.push(0),
    }
}

fn rle_runs<T, K: PartialEq + Copy>(values: &[T], key: impl Fn(&T) -> K) -> Vec<(u32, K)> {
    let mut runs: Vec<(u32, K)> = Vec::new();
    for v in values {
        let k = key(v);
        match runs.last_mut() {
            Some((len, last)) if *last == k && *len < u32::MAX => *len += 1,
            _ => runs.push((1, k)),
        }
    }
    runs
}

fn zone_blocks(n_rows: usize) -> usize {
    n_rows.div_ceil(BLOCK_ROWS)
}

fn block_range(b: usize, n_rows: usize) -> (usize, usize) {
    let lo = b * BLOCK_ROWS;
    (lo, ((b + 1) * BLOCK_ROWS).min(n_rows))
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
    /// Number of zone-map blocks (0 for booleans).
    pub n_blocks: u32,
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

/// Decodes NXCOL v1 bytes back into a [`Table`].
///
/// Every structural invariant is validated (magic, version, CRCs,
/// section caps, run-length sums, dictionary code ranges, zone-map
/// consistency, canonical null slots) and the decoded table's content
/// fingerprint is checked against the header, so a successful decode is
/// bit-faithful. Arbitrary input returns a typed [`StoreError`]; this
/// function does not panic.
pub fn decode_table(bytes: &[u8]) -> Result<Table> {
    let (info, columns) = parse(bytes, true)?;
    let columns = columns.expect("materializing parse returns columns");
    let table = Table::new(columns)?;
    if table.fingerprint() != info.fingerprint {
        return Err(StoreError::Malformed(
            "table fingerprint does not match header".into(),
        ));
    }
    Ok(table)
}

/// Parses and validates the file structure (header + every section CRC)
/// without materializing columns or re-checking the content fingerprint.
pub fn inspect(bytes: &[u8]) -> Result<StoreInfo> {
    let (info, _) = parse(bytes, false)?;
    Ok(info)
}

/// FNV-1a digest of the raw file bytes. Because encoding is
/// byte-deterministic, this is a content key: equal tables have equal
/// file fingerprints.
pub fn file_fingerprint(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// File metadata plus the decoded columns when materialization was asked for.
type Parsed = (StoreInfo, Option<Vec<(String, Column)>>);

fn parse(bytes: &[u8], materialize: bool) -> Result<Parsed> {
    let mut r = Reader::new(bytes);
    let header = decode_header(&mut r)?;
    let n_rows = usize::try_from(header.n_rows)
        .map_err(|_| StoreError::Malformed("row count exceeds address space".into()))?;
    if header.n_cols == 0 && header.n_rows != 0 {
        return Err(StoreError::Malformed(
            "zero-column file declares a nonzero row count".into(),
        ));
    }

    let mut infos = Vec::with_capacity(header.n_cols as usize);
    let mut columns = if materialize {
        Some(Vec::with_capacity(header.n_cols as usize))
    } else {
        None
    };
    for idx in 0..header.n_cols {
        let section_len = r.u32("column section length")?;
        if section_len > MAX_SECTION_LEN {
            return Err(StoreError::SectionTooLarge {
                declared: section_len,
            });
        }
        let body = r.take(section_len as usize, "column section body")?;
        let declared_crc = r.u32("column section CRC")?;
        if crc32(body) != declared_crc {
            return Err(StoreError::BadCrc {
                context: format!("column {idx}"),
            });
        }
        let (info, column) = decode_column(body, n_rows, section_len, materialize)?;
        infos.push(info);
        if let (Some(cols), Some((name, col))) = (columns.as_mut(), column) {
            cols.push((name, col));
        }
    }
    r.finish("last column section")?;
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

#[allow(clippy::type_complexity)]
fn decode_column(
    body: &[u8],
    n_rows: usize,
    section_len: u32,
    materialize: bool,
) -> Result<(ColumnInfo, Option<(String, Column)>)> {
    let mut r = Reader::new(body);
    let name = r.str("column name")?;
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
        let words = r.u64_vec(n_rows.div_ceil(64), "validity bitmap")?;
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
            let values: Vec<i64> = match encoding {
                ENC_PLAIN => r
                    .u64_vec(n_rows, "int64 values")?
                    .into_iter()
                    .map(|b| b as i64)
                    .collect(),
                _ => decode_rle_u64(&mut r, n_rows, &name)?
                    .into_iter()
                    .map(|b| b as i64)
                    .collect(),
            };
            ("Int64", ColumnData::Int64(values))
        }
        TAG_FLOAT64 => {
            let bits: Vec<u64> = match encoding {
                ENC_PLAIN => r.u64_vec(n_rows, "float64 values")?,
                _ => decode_rle_u64(&mut r, n_rows, &name)?,
            };
            (
                "Float64",
                ColumnData::Float64(bits.into_iter().map(f64::from_bits).collect()),
            )
        }
        TAG_UTF8 => {
            let n_dict = r.u32("dictionary length")? as usize;
            let mut dict = Vec::with_capacity(n_dict.min(r.remaining() / 4 + 1));
            for _ in 0..n_dict {
                dict.push(r.str("dictionary entry")?);
            }
            let codes: Vec<u32> = match encoding {
                ENC_PLAIN => r.u32_vec(n_rows, "utf8 codes")?,
                _ => decode_rle_u32(&mut r, n_rows, &name)?,
            };
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
            let words = r.u64_vec(n_rows.div_ceil(64), "bool values")?;
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

    let n_blocks = r.u32("zone map block count")?;
    let expect_blocks = if type_tag == TAG_BOOL {
        0
    } else {
        zone_blocks(n_rows)
    };
    if n_blocks as usize != expect_blocks {
        return Err(StoreError::Malformed(format!(
            "column '{name}': {n_blocks} zone-map blocks, expected {expect_blocks}"
        )));
    }
    for b in 0..n_blocks {
        let has = r.u8("zone map entry")?;
        if has > 1 {
            return Err(StoreError::Malformed(format!(
                "column '{name}': zone-map presence flag must be 0 or 1"
            )));
        }
        match type_tag {
            TAG_UTF8 => {
                let mn = r.u32("zone map min")?;
                let mx = r.u32("zone map max")?;
                check_zone(&name, b, has, (mn == 0 && mx == 0, mn <= mx))?;
            }
            TAG_INT64 => {
                let mn = r.u64("zone map min")? as i64;
                let mx = r.u64("zone map max")? as i64;
                check_zone(&name, b, has, (mn == 0 && mx == 0, mn <= mx))?;
            }
            _ => {
                let mn = f64::from_bits(r.u64("zone map min")?);
                let mx = f64::from_bits(r.u64("zone map max")?);
                check_zone(
                    &name,
                    b,
                    has,
                    (mn.to_bits() == 0 && mx.to_bits() == 0, mn <= mx),
                )?;
            }
        }
    }
    r.finish("column body")?;

    let info = ColumnInfo {
        name: name.clone(),
        dtype,
        encoding: if encoding == ENC_RLE { "rle" } else { "plain" },
        has_validity: has_validity == 1,
        n_blocks,
        section_bytes: section_len,
    };
    let column = if materialize {
        Some((name, Column::from_parts(data, validity)?))
    } else {
        None
    };
    Ok((info, column))
}

fn check_zone(name: &str, block: u32, has: u8, (zeroed, ordered): (bool, bool)) -> Result<()> {
    if has == 0 && !zeroed {
        return Err(StoreError::Malformed(format!(
            "column '{name}': empty zone-map block {block} has non-zero bounds"
        )));
    }
    if has == 1 && !ordered {
        return Err(StoreError::Malformed(format!(
            "column '{name}': zone-map block {block} has min > max"
        )));
    }
    Ok(())
}

fn decode_rle_u64(r: &mut Reader<'_>, n_rows: usize, name: &str) -> Result<Vec<u64>> {
    let n_runs = r.u32("rle run count")? as usize;
    let mut out = Vec::with_capacity(n_rows.min(r.remaining()));
    for _ in 0..n_runs {
        let len = r.u32("rle run length")? as usize;
        let value = r.u64("rle run value")?;
        if len == 0 || out.len() + len > n_rows {
            return Err(StoreError::Malformed(format!(
                "column '{name}': RLE runs do not sum to the row count"
            )));
        }
        out.extend(std::iter::repeat_n(value, len));
    }
    if out.len() != n_rows {
        return Err(StoreError::Malformed(format!(
            "column '{name}': RLE runs do not sum to the row count"
        )));
    }
    Ok(out)
}

fn decode_rle_u32(r: &mut Reader<'_>, n_rows: usize, name: &str) -> Result<Vec<u32>> {
    let n_runs = r.u32("rle run count")? as usize;
    let mut out = Vec::with_capacity(n_rows.min(r.remaining()));
    for _ in 0..n_runs {
        let len = r.u32("rle run length")? as usize;
        let value = r.u32("rle run value")?;
        if len == 0 || out.len() + len > n_rows {
            return Err(StoreError::Malformed(format!(
                "column '{name}': RLE runs do not sum to the row count"
            )));
        }
        out.extend(std::iter::repeat_n(value, len));
    }
    if out.len() != n_rows {
        return Err(StoreError::Malformed(format!(
            "column '{name}': RLE runs do not sum to the row count"
        )));
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Path helpers
// ----------------------------------------------------------------------

/// Writes a table to `path` as NXCOL v1.
pub fn write_table_path(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, encode_table(table))?;
    Ok(())
}

/// Reads and strictly validates an NXCOL v1 file.
pub fn read_table_path(path: impl AsRef<Path>) -> Result<Table> {
    decode_table(&std::fs::read(path)?)
}

/// Reads, validates, and summarizes an NXCOL v1 file without building
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
        assert_eq!(info.columns[3].n_blocks, 0);
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
    fn file_fingerprint_tracks_content() {
        let t = sample();
        let a = file_fingerprint(&encode_table(&t));
        let b = file_fingerprint(&encode_table(&t));
        assert_eq!(a, b);
        let t2 = Table::new(vec![("x", Column::from_i64(vec![1]))]).unwrap();
        assert_ne!(a, file_fingerprint(&encode_table(&t2)));
    }
}

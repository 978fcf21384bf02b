//! Deterministic content fingerprinting of columns and tables.
//!
//! The resident explanation server (`nexus-serve`) keys its result cache by
//! *dataset content*, not by file path or load order: two tables with the
//! same schema and the same row values — however they were produced — must
//! hash to the same fingerprint, and any change to a value, a null, a
//! column name, or the row order must change it.
//!
//! The hash is FNV-1a (64-bit), chosen because it is trivially portable,
//! dependency-free, and byte-order independent (every input is serialized
//! little-endian before hashing). It is **not** cryptographic; it guards
//! against accidental collisions in a cache key, not against adversaries.
//!
//! A table fingerprint is built in three levels so that it can be computed
//! in parallel without its value depending on the thread count:
//!
//! 1. A **block digest** is FNV-1a over one [`ROW_CHUNK`]-row block of a
//!    column, row by row: a null contributes the tag byte `0`, a valid row
//!    the tag byte `1` followed by its value (Utf8 rows by dictionary
//!    code).
//! 2. A **column fingerprint** is FNV-1a over the column length, its dtype
//!    tag, the dictionary (Utf8 only), then its block digests in block
//!    order.
//! 3. The **table fingerprint** is FNV-1a over the column and row counts,
//!    then each column's name and column fingerprint, in schema order.
//!
//! [`Table::column_fingerprints`] computes every block digest of every
//! column in one [`ThreadPool::map`], so one long column spreads across
//! the pool; each task hashes up to four consecutive blocks in lockstep,
//! so their independent FNV chains overlap in the CPU. NXCOL stores each
//! column fingerprint in its section and the table fingerprint in its
//! header, and checks both on decode.

use nexus_runtime::{Parallelism, ThreadPool, ROW_CHUNK};

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::table::Table;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher over typed, little-endian input.
///
/// Shared by the table/KG fingerprints, the canonical query signature, and
/// the options hash so every cache-key component uses the same digest.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `i64` (little-endian).
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by bit pattern (bit-exact; distinguishes `-0.0`
    /// from `0.0` and preserves NaN payloads).
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Absorbs a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Absorbs a string as length + UTF-8 bytes (length-prefixing keeps
    /// `("ab","c")` distinct from `("a","bc")`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Column {
    /// Standalone content fingerprint of this column (see the module
    /// docs), computed on a pool of [`Parallelism::Auto`] workers.
    pub fn fingerprint(&self) -> u64 {
        column_fingerprints(&[self], &ThreadPool::new(Parallelism::Auto))[0]
    }

    /// The block digests of blocks `first..first + LANES` (those that
    /// exist). The value behind a null cannot influence them.
    fn block_digests(&self, first: usize) -> Vec<u64> {
        let validity = self.validity();
        match self.data() {
            ColumnData::Int64(v) => digest_blocks(v, validity, first, Fnv64::write_i64),
            ColumnData::Float64(v) => digest_blocks(v, validity, first, Fnv64::write_f64),
            ColumnData::Utf8(arr) => digest_blocks(arr.codes(), validity, first, Fnv64::write_u32),
            ColumnData::Bool(v) => digest_blocks(v, validity, first, Fnv64::write_bool),
        }
    }

    /// The column fingerprint from its block digests, in block order.
    fn fold_digests(&self, digests: &[u64]) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.len() as u64);
        match self.data() {
            ColumnData::Int64(_) => h.write_u8(1),
            ColumnData::Float64(_) => h.write_u8(2),
            ColumnData::Utf8(arr) => {
                h.write_u8(3);
                // The dictionary is built in first-occurrence order, a pure
                // function of the row values, so dictionary + per-row codes
                // identify the per-row strings.
                h.write_u64(arr.dict().len() as u64);
                for s in arr.dict() {
                    h.write_str(s);
                }
            }
            ColumnData::Bool(_) => h.write_u8(4),
        }
        for &d in digests {
            h.write_u64(d);
        }
        h.finish()
    }
}

/// Blocks one task digests. Their FNV chains are independent, so hashed
/// in lockstep they overlap in the CPU instead of waiting on each
/// multiply in turn.
const LANES: usize = 4;

fn digest_blocks<T: Copy>(
    values: &[T],
    validity: Option<&Bitmap>,
    first: usize,
    write: impl Fn(&mut Fnv64, T),
) -> Vec<u64> {
    let row = |h: &mut Fnv64, i: usize| {
        if validity.is_some_and(|v| !v.get(i)) {
            h.write_u8(0);
        } else {
            h.write_u8(1);
            write(h, values[i]);
        }
    };
    let lo = first * ROW_CHUNK;
    let hi = (lo + LANES * ROW_CHUNK).min(values.len());
    let full = (hi - lo) / ROW_CHUNK;
    let mut digests = match full {
        4 => lockstep::<4>(lo, &row),
        3 => lockstep::<3>(lo, &row),
        2 => lockstep::<2>(lo, &row),
        1 => lockstep::<1>(lo, &row),
        0 => Vec::new(),
        _ => unreachable!("a task spans at most LANES blocks"),
    };
    // The column's last block may be short.
    let tail = lo + full * ROW_CHUNK;
    if tail < hi {
        let mut h = Fnv64::new();
        (tail..hi).for_each(|i| row(&mut h, i));
        digests.push(h.finish());
    }
    digests
}

/// The digests of the `K` full blocks from row `lo`, hashed in lockstep.
fn lockstep<const K: usize>(lo: usize, row: &impl Fn(&mut Fnv64, usize)) -> Vec<u64> {
    let mut hs: [Fnv64; K] = std::array::from_fn(|_| Fnv64::new());
    for i in lo..lo + ROW_CHUNK {
        for (k, h) in hs.iter_mut().enumerate() {
            row(h, i + k * ROW_CHUNK);
        }
    }
    hs.iter().map(Fnv64::finish).collect()
}

/// Every column's fingerprint, in order. All block digests of all columns
/// are one `pool.map`, so the value does not depend on the pool's width.
fn column_fingerprints(columns: &[&Column], pool: &ThreadPool) -> Vec<u64> {
    let tasks: Vec<(usize, usize)> = columns
        .iter()
        .enumerate()
        .flat_map(|(c, col)| {
            let blocks = col.len().div_ceil(ROW_CHUNK);
            (0..blocks).step_by(LANES).map(move |b| (c, b))
        })
        .collect();
    let digests: Vec<u64> = pool
        .map(tasks.len(), |t| {
            let (c, first) = tasks[t];
            columns[c].block_digests(first)
        })
        .concat();
    let mut rest = digests.as_slice();
    columns
        .iter()
        .map(|col| {
            let (own, tail) = rest.split_at(col.len().div_ceil(ROW_CHUNK));
            rest = tail;
            col.fold_digests(own)
        })
        .collect()
}

impl Bitmap {
    /// Absorbs the bitmap's content (length + canonical backing words)
    /// into `h`. The words are a canonical serialization — bits beyond
    /// `len()` are guaranteed zero — so equal bitmaps hash equally, and
    /// two masks with the same popcount but different set bits cannot
    /// alias (the memo-key collision-safety requirement).
    pub fn fingerprint_into(&self, h: &mut Fnv64) {
        h.write_u64(self.len() as u64);
        for &w in self.words() {
            h.write_u64(w);
        }
    }

    /// Standalone content fingerprint of this bitmap.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }
}

impl Table {
    /// Content fingerprint of the table: schema (names, in order) plus
    /// every column's values (see the module docs). Depends only on
    /// content, never on how or when the table was loaded, and is computed
    /// on a pool of [`Parallelism::Auto`] workers.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_from(&self.column_fingerprints(&ThreadPool::new(Parallelism::Auto)))
    }

    /// Every column's content fingerprint, in schema order, with all block
    /// digests computed on `pool`. Equal at any pool width.
    pub fn column_fingerprints(&self, pool: &ThreadPool) -> Vec<u64> {
        let columns: Vec<&Column> = (0..self.n_cols()).map(|i| self.column_at(i)).collect();
        column_fingerprints(&columns, pool)
    }

    /// The table fingerprint from the column fingerprints that
    /// [`Table::column_fingerprints`] returns, so a caller that needs both
    /// hashes every row once.
    pub fn fingerprint_from(&self, column_fingerprints: &[u64]) -> u64 {
        debug_assert_eq!(column_fingerprints.len(), self.n_cols());
        let mut h = Fnv64::new();
        h.write_u64(self.n_cols() as u64);
        h.write_u64(self.n_rows() as u64);
        for (field, &fp) in self.schema().fields().iter().zip(column_fingerprints) {
            h.write_str(&field.name);
            h.write_u64(fp);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(salaries: Vec<f64>) -> Table {
        Table::new(vec![
            ("country", Column::from_strs(&["us", "fr", "us"])),
            ("salary", Column::from_f64(salaries)),
        ])
        .unwrap()
    }

    #[test]
    fn equal_content_equal_fingerprint() {
        let a = t(vec![90.0, 60.0, 80.0]);
        let b = t(vec![90.0, 60.0, 80.0]);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn value_change_changes_fingerprint() {
        let a = t(vec![90.0, 60.0, 80.0]);
        let b = t(vec![90.0, 60.0, 80.5]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn column_name_and_order_matter() {
        let a = t(vec![1.0, 2.0, 3.0]);
        let renamed = Table::new(vec![
            ("nation", Column::from_strs(&["us", "fr", "us"])),
            ("salary", Column::from_f64(vec![1.0, 2.0, 3.0])),
        ])
        .unwrap();
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        let reordered = Table::new(vec![
            ("salary", Column::from_f64(vec![1.0, 2.0, 3.0])),
            ("country", Column::from_strs(&["us", "fr", "us"])),
        ])
        .unwrap();
        assert_ne!(a.fingerprint(), reordered.fingerprint());
    }

    #[test]
    fn nulls_are_distinguished_from_values() {
        let a = Column::from_opt_i64(vec![Some(0), None]);
        let b = Column::from_opt_i64(vec![Some(0), Some(0)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // A null's slot value must not leak into the digest.
        let c = Column::from_opt_f64(vec![None, Some(1.0)]);
        let d = Column::from_opt_f64(vec![None, Some(1.0)]);
        assert_eq!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn row_order_matters() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_i64(vec![2, 1]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn string_boundaries_are_unambiguous() {
        let a = Column::from_strs(&["ab", "c"]);
        let b = Column::from_strs(&["a", "bc"]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn bitmap_fingerprint_distinguishes_equal_popcounts() {
        // Same length, same popcount, different bits: must not alias.
        let a: Bitmap = (0..128).map(|i| i < 10).collect();
        let b: Bitmap = (0..128).map(|i| i >= 118).collect();
        assert_eq!(a.count_ones(), b.count_ones());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Equal content hashes equally however it was built.
        let c: Bitmap = (0..128).map(|i| i < 10).collect();
        assert_eq!(a.fingerprint(), c.fingerprint());
        // Length is part of the digest even when the words match.
        let mut d = a.clone();
        d.push(false);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    /// The three-level definition of the module docs, spelled out
    /// serially as an independent reference.
    fn reference(t: &Table) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(t.n_cols() as u64);
        h.write_u64(t.n_rows() as u64);
        for (i, field) in t.schema().fields().iter().enumerate() {
            let col = t.column_at(i);
            let mut c = Fnv64::new();
            c.write_u64(col.len() as u64);
            match col.data() {
                ColumnData::Int64(_) => c.write_u8(1),
                ColumnData::Float64(_) => c.write_u8(2),
                ColumnData::Utf8(arr) => {
                    c.write_u8(3);
                    c.write_u64(arr.dict().len() as u64);
                    arr.dict().iter().for_each(|s| c.write_str(s));
                }
                ColumnData::Bool(_) => c.write_u8(4),
            }
            for lo in (0..col.len()).step_by(ROW_CHUNK) {
                let mut b = Fnv64::new();
                for r in lo..(lo + ROW_CHUNK).min(col.len()) {
                    if col.is_null(r) {
                        b.write_u8(0);
                        continue;
                    }
                    b.write_u8(1);
                    match col.data() {
                        ColumnData::Int64(v) => b.write_i64(v[r]),
                        ColumnData::Float64(v) => b.write_f64(v[r]),
                        ColumnData::Utf8(arr) => b.write_u32(arr.codes()[r]),
                        ColumnData::Bool(v) => b.write_bool(v[r]),
                    }
                }
                c.write_u64(b.finish());
            }
            h.write_str(&field.name);
            h.write_u64(c.finish());
        }
        h.finish()
    }

    /// One column of each type, with nulls in all but the float one.
    fn mixed(n: usize) -> Table {
        let words: Vec<Option<String>> = (0..n)
            .map(|r| (r % 5 != 0).then(|| format!("v{}", r % 11)))
            .collect();
        Table::new(vec![
            (
                "i",
                Column::from_opt_i64(
                    (0..n)
                        .map(|r| (r % 7 != 3).then_some(r as i64 * 31))
                        .collect(),
                ),
            ),
            (
                "f",
                Column::from_f64((0..n).map(|r| r as f64 * 0.5).collect()),
            ),
            ("s", Column::from_opt_strs(&words)),
            (
                "b",
                Column::from_opt_bools(
                    (0..n).map(|r| (r % 3 != 1).then_some(r % 2 == 0)).collect(),
                ),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn fingerprint_is_identical_at_every_pool_width() {
        for n in [0, 1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1] {
            let t = mixed(n);
            let expect = reference(&t);
            assert_eq!(t.fingerprint(), expect, "{n} rows, auto width");
            for width in [1, 2, 8] {
                let pool = ThreadPool::new(Parallelism::Fixed(width));
                let fps = t.column_fingerprints(&pool);
                assert_eq!(t.fingerprint_from(&fps), expect, "{n} rows, width {width}");
                for (i, fp) in fps.into_iter().enumerate() {
                    assert_eq!(fp, t.column_at(i).fingerprint(), "{n} rows, column {i}");
                }
            }
        }
    }

    #[test]
    fn edits_around_a_block_boundary_change_the_fingerprint() {
        let n = 2 * ROW_CHUNK + 5;
        let values: Vec<f64> = (0..n).map(|r| r as f64).collect();
        let fingerprint = |name: &str, values: Vec<f64>, null: Option<usize>| {
            let mut f = Column::from_f64(values);
            if let Some(row) = null {
                f.set_null(row);
            }
            let keys: Vec<String> = (0..n).map(|r| format!("k{}", r % 3)).collect();
            Table::new(vec![("k", Column::from_strs(&keys)), (name, f)])
                .unwrap()
                .fingerprint()
        };
        let base = fingerprint("f", values.clone(), None);
        for row in [ROW_CHUNK - 1, ROW_CHUNK] {
            let mut v = values.clone();
            v[row] += 0.5;
            assert_ne!(fingerprint("f", v, None), base, "value at row {row}");
        }
        assert_ne!(
            fingerprint("f", values.clone(), Some(ROW_CHUNK)),
            base,
            "null flipped"
        );
        assert_ne!(
            fingerprint("g", values.clone(), None),
            base,
            "column renamed"
        );
        let mut swapped = values.clone();
        swapped.swap(ROW_CHUNK - 1, ROW_CHUNK);
        assert_ne!(
            fingerprint("f", swapped, None),
            base,
            "rows swapped across the boundary"
        );
        // The payload behind a null never counts.
        let mut garbage = values.clone();
        garbage[ROW_CHUNK] = 1e9;
        assert_eq!(
            fingerprint("f", garbage, Some(ROW_CHUNK)),
            fingerprint("f", values, Some(ROW_CHUNK))
        );
    }

    #[test]
    fn hasher_primitive_coverage() {
        let mut h = Fnv64::new();
        h.write_u8(1);
        h.write_u32(2);
        h.write_u64(3);
        h.write_i64(-4);
        h.write_f64(5.5);
        h.write_bool(true);
        h.write_str("x");
        let first = h.finish();
        assert_ne!(first, Fnv64::new().finish());
        // -0.0 and 0.0 hash differently (bit-exact semantics).
        let mut a = Fnv64::new();
        a.write_f64(0.0);
        let mut b = Fnv64::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}

//! Columnar storage: typed columns with validity bitmaps.

use std::collections::HashMap;

use nexus_runtime::{ThreadPool, ROW_CHUNK};

use crate::bitmap::Bitmap;
use crate::error::{Result, TableError};
use crate::value::{DataType, Value};

/// A dictionary-encoded string array.
///
/// Every row stores a `u32` code into `dict`. Codes of null rows are
/// meaningless (kept at 0) and guarded by the column validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct DictArray {
    codes: Vec<u32>,
    dict: Vec<String>,
}

impl DictArray {
    /// Builds a dictionary array from optional strings.
    pub fn from_options<S: AsRef<str>>(values: &[Option<S>]) -> (Self, Option<Bitmap>) {
        let mut interner: HashMap<String, u32> = HashMap::new();
        let mut dict = Vec::new();
        let mut codes = Vec::with_capacity(values.len());
        let mut validity = Bitmap::with_value(values.len(), true);
        let mut has_null = false;
        for (i, v) in values.iter().enumerate() {
            match v {
                Some(s) => {
                    let s = s.as_ref();
                    let code = *interner.entry(s.to_string()).or_insert_with(|| {
                        dict.push(s.to_string());
                        (dict.len() - 1) as u32
                    });
                    codes.push(code);
                }
                None => {
                    has_null = true;
                    validity.set(i, false);
                    codes.push(0);
                }
            }
        }
        (
            DictArray { codes, dict },
            if has_null { Some(validity) } else { None },
        )
    }

    /// The per-row dictionary codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The dictionary of distinct strings, indexed by code.
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// The string at row `i` (ignores validity).
    pub fn get(&self, i: usize) -> &str {
        &self.dict[self.codes[i] as usize]
    }

    /// Reassembles a dictionary array from raw codes and a dictionary (the
    /// inverse of [`DictArray::codes`] + [`DictArray::dict`]), validating
    /// that every code indexes into the dictionary.
    ///
    /// An empty dictionary is only legal for a rowless array: non-empty
    /// code vectors always reference at least entry 0 (null rows keep
    /// code 0 by convention).
    pub fn from_parts(codes: Vec<u32>, dict: Vec<String>) -> Result<Self> {
        if let Some(&bad) = codes.iter().find(|&&c| c as usize >= dict.len()) {
            return Err(TableError::InvalidArgument(format!(
                "dictionary code {bad} out of range for dictionary of {}",
                dict.len()
            )));
        }
        Ok(DictArray { codes, dict })
    }
}

/// The typed payload of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Dictionary-encoded strings.
    Utf8(DictArray),
    /// Booleans.
    Bool(Vec<bool>),
}

/// Dense categorical codes derived from a column, for statistical estimators.
///
/// `codes[i]` is only meaningful when `validity` is `None` or
/// `validity.get(i)` is true. Codes are dense in `0..cardinality`.
#[derive(Debug, Clone)]
pub struct Codes {
    /// Per-row category code.
    pub codes: Vec<u32>,
    /// Number of distinct categories (codes run `0..cardinality`).
    pub cardinality: u32,
    /// Validity bitmap; `None` means every row is valid.
    pub validity: Option<Bitmap>,
}

impl Codes {
    /// Whether row `i` has a valid (non-null) code.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether there are zero rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of valid rows.
    pub fn valid_count(&self) -> usize {
        match &self.validity {
            None => self.codes.len(),
            Some(v) => v.count_ones(),
        }
    }
}

/// A dictionary column's valid rows, tallied per dictionary entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictTally {
    /// `counts[c]` is the number of valid rows holding dictionary entry `c`.
    pub counts: Vec<u64>,
    /// The entries held by at least one valid row, in order of their first
    /// valid row.
    pub first_seen: Vec<u32>,
}

/// A single typed column with optional nulls.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    /// `None` means all rows are valid.
    validity: Option<Bitmap>,
}

impl Column {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// A non-null integer column.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column {
            data: ColumnData::Int64(values),
            validity: None,
        }
    }

    /// An integer column with nulls.
    pub fn from_opt_i64(values: Vec<Option<i64>>) -> Self {
        let mut data = Vec::with_capacity(values.len());
        let mut validity = Bitmap::with_value(values.len(), true);
        let mut has_null = false;
        for (i, v) in values.into_iter().enumerate() {
            match v {
                Some(x) => data.push(x),
                None => {
                    data.push(0);
                    validity.set(i, false);
                    has_null = true;
                }
            }
        }
        Column {
            data: ColumnData::Int64(data),
            validity: if has_null { Some(validity) } else { None },
        }
    }

    /// A non-null float column.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column {
            data: ColumnData::Float64(values),
            validity: None,
        }
    }

    /// A float column with nulls.
    pub fn from_opt_f64(values: Vec<Option<f64>>) -> Self {
        let mut data = Vec::with_capacity(values.len());
        let mut validity = Bitmap::with_value(values.len(), true);
        let mut has_null = false;
        for (i, v) in values.into_iter().enumerate() {
            match v {
                Some(x) => data.push(x),
                None => {
                    data.push(f64::NAN);
                    validity.set(i, false);
                    has_null = true;
                }
            }
        }
        Column {
            data: ColumnData::Float64(data),
            validity: if has_null { Some(validity) } else { None },
        }
    }

    /// A non-null string column.
    pub fn from_strs<S: AsRef<str>>(values: &[S]) -> Self {
        let opts: Vec<Option<&str>> = values.iter().map(|s| Some(s.as_ref())).collect();
        Self::from_opt_strs(&opts)
    }

    /// A string column with nulls.
    pub fn from_opt_strs<S: AsRef<str>>(values: &[Option<S>]) -> Self {
        let (arr, validity) = DictArray::from_options(values);
        Column {
            data: ColumnData::Utf8(arr),
            validity,
        }
    }

    /// A non-null boolean column.
    pub fn from_bools(values: Vec<bool>) -> Self {
        Column {
            data: ColumnData::Bool(values),
            validity: None,
        }
    }

    /// A boolean column with nulls.
    pub fn from_opt_bools(values: Vec<Option<bool>>) -> Self {
        let mut data = Vec::with_capacity(values.len());
        let mut validity = Bitmap::with_value(values.len(), true);
        let mut has_null = false;
        for (i, v) in values.into_iter().enumerate() {
            match v {
                Some(x) => data.push(x),
                None => {
                    data.push(false);
                    validity.set(i, false);
                    has_null = true;
                }
            }
        }
        Column {
            data: ColumnData::Bool(data),
            validity: if has_null { Some(validity) } else { None },
        }
    }

    /// Reassembles a column from a typed payload and an optional validity
    /// bitmap (the inverse of [`Column::data`] + [`Column::validity`]),
    /// validating that the bitmap length matches the payload length.
    ///
    /// This is the deserialization entry point used by `nexus-store`; the
    /// other constructors normalize null slots (0 / NaN / code 0), so a
    /// reader that restores the exact stored payload must come through
    /// here.
    pub fn from_parts(data: ColumnData, validity: Option<Bitmap>) -> Result<Self> {
        let col = Column { data, validity };
        if let Some(v) = &col.validity {
            if v.len() != col.len() {
                return Err(TableError::LengthMismatch {
                    expected: col.len(),
                    actual: v.len(),
                });
            }
        }
        Ok(col)
    }

    /// Builds a column of `dtype` from dynamic values.
    ///
    /// Integer values are accepted into float columns. Returns an error on
    /// any other cross-type value.
    pub fn from_values(dtype: DataType, values: &[Value]) -> Result<Self> {
        match dtype {
            DataType::Int64 => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::Int(x) => Some(*x),
                        other => return Err(type_err("<literal>", "Int64", other)),
                    });
                }
                Ok(Self::from_opt_i64(out))
            }
            DataType::Float64 => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::Int(x) => Some(*x as f64),
                        Value::Float(x) => Some(*x),
                        other => return Err(type_err("<literal>", "Float64", other)),
                    });
                }
                Ok(Self::from_opt_f64(out))
            }
            DataType::Utf8 => {
                let mut out: Vec<Option<&str>> = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::Str(s) => Some(s.as_str()),
                        other => return Err(type_err("<literal>", "Utf8", other)),
                    });
                }
                Ok(Self::from_opt_strs(&out))
            }
            DataType::Bool => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::Bool(b) => Some(*b),
                        other => return Err(type_err("<literal>", "Bool", other)),
                    });
                }
                Ok(Self::from_opt_bools(out))
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8(a) => a.codes.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Utf8(_) => DataType::Utf8,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    /// The raw typed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap (`None` if the column has no nulls).
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// Whether row `i` is null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.validity.as_ref().is_some_and(|v| !v.get(i))
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.validity.as_ref().map_or(0, |v| v.count_zeros())
    }

    /// Fraction of null rows (0 for an empty column).
    pub fn null_fraction(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.null_count() as f64 / self.len() as f64
        }
    }

    /// The dynamic value at row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Utf8(a) => Value::Str(a.get(i).to_string()),
            ColumnData::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// The numeric value at row `i`, coercing integers to floats.
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if self.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int64(v) => Some(v[i] as f64),
            ColumnData::Float64(v) => Some(v[i]),
            _ => None,
        }
    }

    /// The string at row `i` for Utf8 columns.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        if self.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Utf8(a) => Some(a.get(i)),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Iterator over the valid numeric values.
    pub fn iter_f64(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).filter_map(move |i| self.f64_at(i))
    }

    /// Mean of the valid numeric values, `None` if there are none.
    pub fn mean(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for v in self.iter_f64() {
            sum += v;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Minimum of the valid numeric values.
    pub fn min_f64(&self) -> Option<f64> {
        self.iter_f64().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.min(v)),
        })
    }

    /// Maximum of the valid numeric values.
    pub fn max_f64(&self) -> Option<f64> {
        self.iter_f64().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.max(v)),
        })
    }

    /// Number of distinct valid values.
    pub fn distinct_count(&self) -> usize {
        match &self.data {
            ColumnData::Utf8(a) => {
                // Dictionary entries may be unused after filtering; count only
                // codes that actually occur on valid rows.
                let mut seen = vec![false; a.dict.len()];
                let mut n = 0;
                for i in 0..a.codes.len() {
                    if !self.is_null(i) {
                        let c = a.codes[i] as usize;
                        if !seen[c] {
                            seen[c] = true;
                            n += 1;
                        }
                    }
                }
                n
            }
            ColumnData::Int64(v) => {
                let mut set = std::collections::HashSet::new();
                for (i, x) in v.iter().enumerate() {
                    if !self.is_null(i) {
                        set.insert(*x);
                    }
                }
                set.len()
            }
            ColumnData::Float64(v) => {
                let mut set = std::collections::HashSet::new();
                for (i, x) in v.iter().enumerate() {
                    if !self.is_null(i) {
                        set.insert(x.to_bits());
                    }
                }
                set.len()
            }
            ColumnData::Bool(v) => {
                let mut seen = [false; 2];
                for (i, x) in v.iter().enumerate() {
                    if !self.is_null(i) {
                        seen[*x as usize] = true;
                    }
                }
                seen.iter().filter(|b| **b).count()
            }
        }
    }

    // ------------------------------------------------------------------
    // Categorical codes
    // ------------------------------------------------------------------

    /// Tallies a Utf8 column's valid rows per dictionary entry, on `pool`
    /// in [`ROW_CHUNK`]-row chunks merged in chunk order (counts add;
    /// first-seen lists concatenate, keeping each entry's first position).
    /// `None` for other column types.
    ///
    /// A chunk counts into a dictionary-sized array, so a dictionary with
    /// more entries than a chunk has rows is tallied in one pass instead.
    /// The grid depends only on the column, never on the thread count.
    pub fn dict_tally(&self, pool: &ThreadPool) -> Option<DictTally> {
        let ColumnData::Utf8(a) = &self.data else {
            return None;
        };
        let d = a.dict.len();
        let n = a.codes.len();
        let chunk = if d <= ROW_CHUNK { ROW_CHUNK } else { n };
        // Each chunk returns its first-seen entries and their counts, so
        // chunk results stay as small as the chunk's distinct entries.
        let tally_rows = |rows: std::ops::Range<usize>| {
            let mut counts = vec![0u64; d];
            let mut first_seen = Vec::new();
            // Count runs of equal codes in a register and add each run when
            // it ends: a code's earlier runs are all added by the time it
            // recurs, so a zero count still means "first seen".
            let (mut prev, mut run) = (0u32, 0u64);
            let mut hit = |c: u32| {
                if run > 0 {
                    if c == prev {
                        run += 1;
                        return;
                    }
                    counts[prev as usize] += run;
                }
                if counts[c as usize] == 0 {
                    first_seen.push(c);
                }
                (prev, run) = (c, 1);
            };
            match &self.validity {
                None => a.codes[rows].iter().for_each(|&c| hit(c)),
                Some(v) => v.iter_ones_in(rows).for_each(|i| hit(a.codes[i])),
            }
            // An empty dictionary (an all-null column) hits no row.
            if run > 0 {
                counts[prev as usize] += run;
            }
            first_seen
                .into_iter()
                .map(|c| (c, counts[c as usize]))
                .collect::<Vec<_>>()
        };
        let mut tally = DictTally {
            counts: vec![0; d],
            first_seen: Vec::new(),
        };
        for part in pool.map_chunks(n, chunk, tally_rows) {
            for (c, k) in part {
                let total = &mut tally.counts[c as usize];
                if *total == 0 {
                    tally.first_seen.push(c);
                }
                *total += k;
            }
        }
        Some(tally)
    }

    /// Dense categorical codes for this column.
    ///
    /// * `Utf8`: dictionary codes, re-compacted to the values in use.
    /// * `Bool`: 0/1.
    /// * `Int64`: distinct values mapped to dense codes in value order of
    ///   first appearance.
    /// * `Float64`: an error — continuous columns must be binned first (see
    ///   [`crate::binning`]).
    pub fn category_codes(&self) -> Result<Codes> {
        self.category_codes_on(&ThreadPool::default())
    }

    /// [`Column::category_codes`] with the row passes of a Utf8 column run
    /// on `pool` in [`ROW_CHUNK`]-row chunks. The result does not depend on
    /// the pool's thread count.
    pub fn category_codes_on(&self, pool: &ThreadPool) -> Result<Codes> {
        match &self.data {
            ColumnData::Utf8(a) => {
                // Re-compact dictionary codes across valid rows only, in
                // first-seen order: entry `first_seen[k]` becomes code `k`.
                let tally = self.dict_tally(pool).expect("a Utf8 column");
                let mut remap = vec![0u32; a.dict.len()];
                for (k, &c) in tally.first_seen.iter().enumerate() {
                    remap[c as usize] = k as u32;
                }
                // Null rows keep code 0.
                let mut codes = vec![0u32; a.codes.len()];
                pool.map_chunks_mut(&mut codes, ROW_CHUNK, |j, out| {
                    let lo = j * ROW_CHUNK;
                    let src = &a.codes[lo..lo + out.len()];
                    match &self.validity {
                        None => {
                            for (o, &c) in out.iter_mut().zip(src) {
                                *o = remap[c as usize];
                            }
                        }
                        Some(v) => {
                            for i in v.iter_ones_in(lo..lo + out.len()) {
                                out[i - lo] = remap[src[i - lo] as usize];
                            }
                        }
                    }
                });
                Ok(Codes {
                    codes,
                    cardinality: tally.first_seen.len() as u32,
                    validity: self.validity.clone(),
                })
            }
            ColumnData::Bool(v) => Ok(Codes {
                codes: v.iter().map(|&b| b as u32).collect(),
                cardinality: 2,
                validity: self.validity.clone(),
            }),
            ColumnData::Int64(v) => {
                let mut map: HashMap<i64, u32> = HashMap::new();
                let mut codes = Vec::with_capacity(v.len());
                for (i, &x) in v.iter().enumerate() {
                    if self.is_null(i) {
                        codes.push(0);
                        continue;
                    }
                    let next = map.len() as u32;
                    let c = *map.entry(x).or_insert(next);
                    codes.push(c);
                }
                Ok(Codes {
                    codes,
                    cardinality: map.len() as u32,
                    validity: self.validity.clone(),
                })
            }
            ColumnData::Float64(_) => Err(TableError::InvalidArgument(
                "continuous Float64 column must be binned before categorical encoding".into(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Selection
    // ------------------------------------------------------------------

    /// Takes the rows at `indices`, in order (duplicates allowed).
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> Column {
        let validity = self.validity.as_ref().map(|v| {
            let mut out = Bitmap::with_value(indices.len(), true);
            for (j, &i) in indices.iter().enumerate() {
                if !v.get(i) {
                    out.set(j, false);
                }
            }
            out
        });
        let data = match &self.data {
            ColumnData::Int64(v) => ColumnData::Int64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float64(v) => ColumnData::Float64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Utf8(a) => ColumnData::Utf8(DictArray {
                codes: indices.iter().map(|&i| a.codes[i]).collect(),
                dict: a.dict.clone(),
            }),
        };
        Column { data, validity }
    }

    /// Keeps the rows whose mask bit is set.
    ///
    /// # Panics
    /// Panics if the mask length differs from the column length.
    pub fn filter(&self, mask: &Bitmap) -> Column {
        assert_eq!(mask.len(), self.len(), "filter mask length mismatch");
        let indices: Vec<usize> = mask.iter_ones().collect();
        self.gather(&indices)
    }

    /// Overwrites the validity at `i`, marking the row null.
    ///
    /// The stored payload for the row is left in place but becomes
    /// unobservable. Used by missing-data injection in experiments.
    pub fn set_null(&mut self, i: usize) {
        let len = self.len();
        assert!(i < len, "row {i} out of bounds");
        match &mut self.validity {
            Some(v) => v.set(i, false),
            None => {
                let mut v = Bitmap::with_value(len, true);
                v.set(i, false);
                self.validity = Some(v);
            }
        }
    }
}

fn type_err(column: &str, expected: &'static str, actual: &Value) -> TableError {
    TableError::TypeMismatch {
        column: column.to_string(),
        expected,
        actual: actual.data_type().map_or("Null", |d| d.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_with_nulls() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(3)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dtype(), DataType::Int64);
        assert_eq!(c.null_count(), 1);
        assert!(c.is_null(1));
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.f64_at(2), Some(3.0));
        assert!((c.null_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn string_dictionary_interning() {
        let c = Column::from_strs(&["us", "fr", "us", "de", "fr"]);
        match c.data() {
            ColumnData::Utf8(a) => {
                assert_eq!(a.dict().len(), 3);
                assert_eq!(a.codes(), &[0, 1, 0, 2, 1]);
            }
            _ => panic!("expected utf8"),
        }
        assert_eq!(c.str_at(3), Some("de"));
        assert_eq!(c.distinct_count(), 3);
    }

    #[test]
    fn category_codes_for_strings_compact_after_filter() {
        let c = Column::from_strs(&["a", "b", "c", "a"]);
        let mask: Bitmap = vec![false, true, false, true].into_iter().collect();
        let f = c.filter(&mask); // rows: b, a
        let codes = f.category_codes().unwrap();
        assert_eq!(codes.cardinality, 2);
        assert_eq!(codes.codes, vec![0, 1]);
        assert_eq!(f.distinct_count(), 2);
    }

    #[test]
    fn category_codes_int_and_bool() {
        let c = Column::from_i64(vec![10, 20, 10, 30]);
        let codes = c.category_codes().unwrap();
        assert_eq!(codes.cardinality, 3);
        assert_eq!(codes.codes, vec![0, 1, 0, 2]);

        let b = Column::from_bools(vec![true, false, true]);
        let codes = b.category_codes().unwrap();
        assert_eq!(codes.cardinality, 2);
        assert_eq!(codes.codes, vec![1, 0, 1]);
    }

    #[test]
    fn category_codes_floats_rejected() {
        let c = Column::from_f64(vec![1.0, 2.0]);
        assert!(c.category_codes().is_err());
    }

    #[test]
    fn category_codes_null_handling() {
        let c = Column::from_opt_strs(&[Some("x"), None, Some("y")]);
        let codes = c.category_codes().unwrap();
        assert_eq!(codes.cardinality, 2);
        assert!(codes.is_valid(0));
        assert!(!codes.is_valid(1));
        assert_eq!(codes.valid_count(), 2);
    }

    #[test]
    fn all_null_strings_have_empty_tally_and_codes() {
        // An all-null text column has an empty dictionary; its null rows
        // hold code 0, which indexes no entry.
        let c = Column::from_opt_strs(&[None::<&str>; 3]);
        for threads in [1, 2] {
            let pool = ThreadPool::new(nexus_runtime::Parallelism::Fixed(threads));
            let tally = c.dict_tally(&pool).unwrap();
            assert!(tally.counts.is_empty() && tally.first_seen.is_empty());
            let codes = c.category_codes_on(&pool).unwrap();
            assert_eq!(codes.codes, vec![0, 0, 0]);
            assert_eq!(codes.cardinality, 0);
            assert_eq!(codes.valid_count(), 0);
        }
    }

    #[test]
    fn gather_and_filter() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(3), Some(4)]);
        let g = c.gather(&[3, 0, 1, 1]);
        assert_eq!(g.value(0), Value::Int(4));
        assert_eq!(g.value(1), Value::Int(1));
        assert!(g.is_null(2) && g.is_null(3));

        let mask: Bitmap = vec![true, false, true, false].into_iter().collect();
        let f = c.filter(&mask);
        assert_eq!(f.len(), 2);
        assert_eq!(f.value(1), Value::Int(3));
    }

    #[test]
    fn from_values_coercion() {
        let c = Column::from_values(
            DataType::Float64,
            &[Value::Int(1), Value::Float(2.5), Value::Null],
        )
        .unwrap();
        assert_eq!(c.f64_at(0), Some(1.0));
        assert_eq!(c.f64_at(1), Some(2.5));
        assert!(c.is_null(2));

        let err = Column::from_values(DataType::Int64, &[Value::Str("x".into())]);
        assert!(err.is_err());
    }

    #[test]
    fn stats() {
        let c = Column::from_opt_f64(vec![Some(1.0), Some(3.0), None]);
        assert_eq!(c.mean(), Some(2.0));
        assert_eq!(c.min_f64(), Some(1.0));
        assert_eq!(c.max_f64(), Some(3.0));
        let empty = Column::from_f64(vec![]);
        assert_eq!(empty.mean(), None);
    }

    #[test]
    fn set_null_materializes_validity() {
        let mut c = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(c.null_count(), 0);
        c.set_null(1);
        assert_eq!(c.null_count(), 1);
        assert!(c.is_null(1));
        assert!(!c.is_null(0));
    }

    #[test]
    fn bool_nulls() {
        let c = Column::from_opt_bools(vec![Some(true), None]);
        assert_eq!(c.value(0), Value::Bool(true));
        assert!(c.is_null(1));
        assert_eq!(c.distinct_count(), 1);
    }

    /// The per-row remap `category_codes` replaced: a test-only oracle.
    fn category_codes_per_row(col: &Column) -> Vec<u32> {
        let ColumnData::Utf8(a) = col.data() else {
            unreachable!("Utf8 only")
        };
        let mut remap: Vec<u32> = vec![u32::MAX; a.dict.len()];
        let mut next = 0u32;
        let mut codes = Vec::with_capacity(a.codes.len());
        for (i, &c) in a.codes.iter().enumerate() {
            if col.is_null(i) {
                codes.push(0);
                continue;
            }
            let slot = &mut remap[c as usize];
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
            codes.push(*slot);
        }
        codes
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Chunked dictionary tallies and category codes equal the per-row
        /// ones on both sides of the chunk size, with runs, nulls, unused
        /// entries and dictionaries larger than a chunk, at any thread
        /// count.
        #[test]
        fn chunked_category_codes_match_the_per_row_oracle(
            seed in proptest::prelude::any::<u64>(),
            size in 0usize..3,
        ) {
            let mut rng = nexus_runtime::SplitMix64::new(seed);
            let n = [
                rng.next_below(300) as usize,
                ROW_CHUNK - 10 + rng.next_below(20) as usize,
                2 * ROW_CHUNK + rng.next_below(5000) as usize,
            ][size];
            let d = [1 + rng.next_below(30) as usize, ROW_CHUNK + 7][rng.next_below(2) as usize];
            let null_rate = rng.next_below(4);
            let mut codes = Vec::with_capacity(n);
            let mut valid = Vec::with_capacity(n);
            let mut c = 0u32;
            for _ in 0..n {
                if rng.next_below(8) == 0 {
                    c = rng.next_below(d as u64) as u32;
                }
                codes.push(c);
                valid.push(null_rate == 0 || rng.next_below(8) >= null_rate);
            }
            let dict = (0..d).map(|k| format!("v{k}")).collect();
            let validity: Bitmap = valid.iter().copied().collect();
            let col = Column::from_parts(
                ColumnData::Utf8(DictArray::from_parts(codes.clone(), dict).unwrap()),
                (null_rate > 0).then_some(validity),
            )
            .unwrap();
            let want = category_codes_per_row(&col);
            let mut counts = vec![0u64; d];
            let mut first_seen = Vec::new();
            for (i, &c) in codes.iter().enumerate() {
                if !col.is_null(i) {
                    if counts[c as usize] == 0 {
                        first_seen.push(c);
                    }
                    counts[c as usize] += 1;
                }
            }
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(nexus_runtime::Parallelism::Fixed(threads));
                let got = col.category_codes_on(&pool).unwrap();
                proptest::prop_assert_eq!(&got.codes, &want);
                proptest::prop_assert_eq!(got.cardinality as usize, counts.iter().filter(|&&k| k > 0).count());
                let tally = col.dict_tally(&pool).unwrap();
                proptest::prop_assert_eq!(&tally.counts, &counts);
                proptest::prop_assert_eq!(&tally.first_seen, &first_seen);
            }
        }
    }
}

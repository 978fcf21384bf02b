//! Candidate-attribute assembly: the set `𝒜 = ℰ ∪ 𝒯 \ {O, T}` of
//! Section 2.2, combining base-table attributes with attributes extracted
//! from the knowledge graph.
//!
//! Extracted attributes are kept **entity-level**: a candidate from
//! extraction column `X` stores one code per distinct linked entity plus
//! the row→entity code vector of `X` (shared across all candidates of that
//! column). This is what lets the estimators run on contingency tables
//! instead of re-scanning millions of rows per attribute.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use nexus_kg::{extract, EntityLinker, ExtractOptions, KnowledgeGraph};
use nexus_query::{context_mask_on, AggregateQuery};
use nexus_runtime::{ThreadPool, ROW_CHUNK};
use nexus_table::{
    bin_codes, compute_edges_owned, Binner, Bitmap, Codes, Column, ColumnData, DataType, Table,
};

use crate::error::{CoreError, Result};
use crate::options::NexusOptions;

/// Where a candidate attribute came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateSource {
    /// A column of the input table.
    BaseTable,
    /// Extracted from the KG via the named extraction column.
    Extracted {
        /// The extraction column.
        column: String,
    },
}

/// The representation of a candidate's values.
#[derive(Debug, Clone)]
pub enum CandidateRepr {
    /// Row-level codes (base-table attributes).
    RowLevel(Codes),
    /// Entity-level codes for extracted attributes: `map[x]` is the
    /// candidate's code for entity `x` of the extraction column, or
    /// [`MISSING_CODE`] when the entity lacks the attribute.
    EntityLevel {
        /// The extraction column whose row codes index `map`.
        column: String,
        /// Entity code → candidate code (or [`MISSING_CODE`]).
        map: Vec<u32>,
        /// Number of distinct candidate codes.
        cardinality: u32,
    },
}

/// Sentinel marking a missing entity-level value.
pub const MISSING_CODE: u32 = u32::MAX;

/// Selection-bias summary attached to a weighted candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasSummary {
    /// `I(R_E; O | C)` in bits.
    pub mi_with_outcome: f64,
    /// `I(R_E; T | C)` in bits.
    pub mi_with_exposure: f64,
    /// Missing fraction over in-context rows.
    pub missing_fraction: f64,
}

/// One candidate confounding attribute.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Display name: `"{column}::{property}"` for extracted attributes,
    /// the bare column name otherwise.
    pub name: String,
    /// Origin of the attribute.
    pub source: CandidateSource,
    /// Value representation.
    pub repr: CandidateRepr,
    /// Entity-level IPW weights (per entity code), present when selection
    /// bias was detected.
    pub entity_weights: Option<Vec<f64>>,
    /// The bias report that justified the weights.
    pub bias: Option<BiasSummary>,
}

impl Candidate {
    /// Whether this candidate has IPW weights attached.
    pub fn is_weighted(&self) -> bool {
        self.entity_weights.is_some()
    }
}

/// The assembled candidate set for one query.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// All candidates, in assembly order.
    pub candidates: Vec<Candidate>,
    /// Row-level entity codes per extraction column: `codes[i]` is the
    /// entity index of row `i` (validity = successfully linked). Shared
    /// with the [`ColumnExtraction`] they came from.
    pub column_codes: HashMap<String, Arc<Codes>>,
    /// Binned outcome codes (row-level).
    pub o: Codes,
    /// Exposure codes (row-level; composite when the query groups by more
    /// than one column).
    pub t: Codes,
    /// The query context `C` as a row mask.
    pub mask: Bitmap,
    /// Per-column linking statistics.
    pub link_stats: HashMap<String, nexus_kg::LinkStats>,
}

impl CandidateSet {
    /// Number of rows in the underlying table.
    pub fn n_rows(&self) -> usize {
        self.o.len()
    }

    /// Materializes row-level codes for a candidate (cheap gather for
    /// entity-level candidates).
    pub fn row_codes(&self, candidate: &Candidate) -> Codes {
        match &candidate.repr {
            CandidateRepr::RowLevel(c) => c.clone(),
            CandidateRepr::EntityLevel {
                column,
                map,
                cardinality,
            } => {
                let x = &self.column_codes[column];
                let n = x.len();
                let mut codes = Vec::with_capacity(n);
                let mut validity = Bitmap::with_value(n, true);
                for i in 0..n {
                    if !x.is_valid(i) {
                        codes.push(0);
                        validity.set(i, false);
                        continue;
                    }
                    let e = map[x.codes[i] as usize];
                    if e == MISSING_CODE {
                        codes.push(0);
                        validity.set(i, false);
                    } else {
                        codes.push(e);
                    }
                }
                Codes {
                    codes,
                    cardinality: *cardinality,
                    validity: Some(validity),
                }
            }
        }
    }

    /// Row-level IPW weights for a weighted candidate (`w[x]` expanded to
    /// rows; unlinked/missing rows get weight 0).
    pub fn row_weights(&self, candidate: &Candidate) -> Option<Vec<f64>> {
        let ws = candidate.entity_weights.as_ref()?;
        match &candidate.repr {
            CandidateRepr::RowLevel(_) => None,
            CandidateRepr::EntityLevel { column, map, .. } => {
                let x = &self.column_codes[column];
                Some(
                    (0..x.len())
                        .map(|i| {
                            if !x.is_valid(i) {
                                return 0.0;
                            }
                            let e = x.codes[i] as usize;
                            if map[e] == MISSING_CODE {
                                0.0
                            } else {
                                ws[e]
                            }
                        })
                        .collect(),
                )
            }
        }
    }

    /// Index of the candidate with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.candidates.iter().position(|c| c.name == name)
    }
}

/// The query-independent extraction artifact of one extraction column:
/// entity links, row→entity codes, and the entity-level candidates mined
/// from the knowledge graph.
///
/// Everything in here depends only on the table column, the KG, and the
/// extraction options (`hops`, `one_to_many`, `candidate_bins`) — never on
/// the query — so a resident server computes it once per column and reuses
/// it across every request against the same dataset
/// ([`assemble_candidates`] consumes it).
#[derive(Debug, Clone)]
pub struct ColumnExtraction {
    /// The extraction column.
    pub column: String,
    /// Row-level entity codes (validity = successfully linked), shared with
    /// every candidate set assembled from this extraction.
    pub codes: Arc<Codes>,
    /// Linking statistics for the column.
    pub link_stats: nexus_kg::LinkStats,
    /// Entity-level candidates, unpruned and unweighted.
    pub candidates: Vec<Candidate>,
}

/// Links `column` against `kg` and mines its entity-level candidates —
/// the query-independent half of [`build_candidates`].
pub fn extract_column(
    table: &Table,
    kg: &KnowledgeGraph,
    column: &str,
    options: &NexusOptions,
) -> Result<ColumnExtraction> {
    extract_column_on(
        table,
        kg,
        column,
        options,
        &ThreadPool::new(options.parallelism),
    )
}

/// [`extract_column`] with its row passes on `pool`.
///
/// Linking works in dictionary space: one pass tallies the column's
/// dictionary entries (valid rows per entry, first-seen order), each entry
/// is resolved once, the entities are extracted in first-appearance order,
/// and one gather maps dictionary codes to entity codes.
fn extract_column_on(
    table: &Table,
    kg: &KnowledgeGraph,
    column: &str,
    options: &NexusOptions,
    pool: &ThreadPool,
) -> Result<ColumnExtraction> {
    let col = table.column(column)?;
    let links = EntityLinker::new(kg).link_dictionary(col, pool);
    let ea = extract(
        kg,
        &links.entities(),
        &ExtractOptions {
            hops: options.hops,
            one_to_many: options.one_to_many,
        },
    );
    // Dictionary entry → entity code. A linked entry no valid row holds
    // names an entity that was not extracted; no row reads its code.
    let entity_code: Vec<u32> = links
        .entries
        .iter()
        .map(|l| {
            l.and_then(|id| ea.index_of.get(&id))
                .map_or(MISSING_CODE, |&e| e as u32)
        })
        .collect();
    let (codes, validity) = gather_entity_codes(col, &entity_code, pool);

    // One candidate per extracted attribute.
    let mut candidates = Vec::new();
    for attr in ea.table.column_names() {
        let entity_col = ea.table.column(attr).expect("attribute exists");
        let (map, cardinality) = entity_level_codes(entity_col, options)?;
        candidates.push(Candidate {
            name: format!("{column}::{attr}"),
            source: CandidateSource::Extracted {
                column: column.to_string(),
            },
            repr: CandidateRepr::EntityLevel {
                column: column.to_string(),
                map,
                cardinality,
            },
            entity_weights: None,
            bias: None,
        });
    }

    Ok(ColumnExtraction {
        column: column.to_string(),
        codes: Arc::new(Codes {
            codes,
            cardinality: ea.entity_ids.len() as u32,
            validity: Some(validity),
        }),
        link_stats: links.stats,
        candidates,
    })
}

/// Row → entity codes of a linked column: one gather through
/// `entity_code` (dictionary entry → entity code or [`MISSING_CODE`]),
/// with the validity (linked, non-null rows) built a word at a time.
/// Rows that are null or unlinked get code 0. A non-Utf8 column links no
/// row.
fn gather_entity_codes(col: &Column, entity_code: &[u32], pool: &ThreadPool) -> (Vec<u32>, Bitmap) {
    let n = col.len();
    let ColumnData::Utf8(arr) = col.data() else {
        return (vec![0; n], Bitmap::with_value(n, false));
    };
    // An all-null column has an empty dictionary, which its null rows'
    // code 0 does not index.
    if arr.dict().is_empty() {
        return (vec![0; n], Bitmap::with_value(n, false));
    }
    let src = arr.codes();
    let mut codes = vec![0u32; n];
    let words = pool.map_chunks_mut(&mut codes, ROW_CHUNK, |j, out| {
        let lo = j * ROW_CHUNK;
        let mut words = Vec::with_capacity(out.len().div_ceil(64));
        for (k, block) in out.chunks_mut(64).enumerate() {
            let base = lo + 64 * k;
            let valid = col.validity().map_or(u64::MAX, |v| v.words()[base / 64]);
            let mut word = 0u64;
            for (b, o) in block.iter_mut().enumerate() {
                let e = entity_code[src[base + b] as usize];
                let linked = (valid >> b) & 1 == 1 && e != MISSING_CODE;
                *o = if linked { e } else { 0 };
                word |= u64::from(linked) << b;
            }
            words.push(word);
        }
        words
    });
    let validity = Bitmap::from_words(words.concat(), n).expect("one word per 64 rows");
    (codes, validity)
}

/// Builds the candidate set for `query` over `table`, extracting attributes
/// from `kg` via `extraction_columns`.
pub fn build_candidates(
    table: &Table,
    kg: &KnowledgeGraph,
    extraction_columns: &[String],
    query: &AggregateQuery,
    options: &NexusOptions,
) -> Result<CandidateSet> {
    let pool = ThreadPool::new(options.parallelism);
    build_candidates_on(table, kg, extraction_columns, query, options, &pool)
}

/// [`build_candidates`] with every row pass on `pool` — the pipeline
/// shares its run's pool with the engine, so build work shows in the
/// run's pool counters.
pub(crate) fn build_candidates_on(
    table: &Table,
    kg: &KnowledgeGraph,
    extraction_columns: &[String],
    query: &AggregateQuery,
    options: &NexusOptions,
    pool: &ThreadPool,
) -> Result<CandidateSet> {
    let mut extractions = Vec::with_capacity(extraction_columns.len());
    for col_name in extraction_columns {
        extractions.push(extract_column_on(table, kg, col_name, options, pool)?);
    }
    let refs: Vec<&ColumnExtraction> = extractions.iter().collect();
    assemble_candidates_on(table, &refs, query, options, pool)
}

/// Assembles the candidate set for `query` from precomputed (possibly
/// cached) column extractions plus the base-table columns — the
/// query-*dependent* half of [`build_candidates`].
///
/// Candidate order (extracted per column in order, then base-table columns)
/// matches [`build_candidates`] exactly, so a set assembled from resident
/// extractions is bit-identical to one built from scratch.
pub fn assemble_candidates(
    table: &Table,
    extractions: &[&ColumnExtraction],
    query: &AggregateQuery,
    options: &NexusOptions,
) -> Result<CandidateSet> {
    let pool = ThreadPool::new(options.parallelism);
    assemble_candidates_on(table, extractions, query, options, &pool)
}

/// [`assemble_candidates`] with every row pass on `pool`, in
/// [`ROW_CHUNK`]-row chunks merged in chunk order: the set does not depend
/// on the pool's thread count.
pub(crate) fn assemble_candidates_on(
    table: &Table,
    extractions: &[&ColumnExtraction],
    query: &AggregateQuery,
    options: &NexusOptions,
    pool: &ThreadPool,
) -> Result<CandidateSet> {
    let exposure_cols = &query.group_by;
    if exposure_cols.is_empty() {
        return Err(CoreError::BadQuery(
            "query must have a GROUP BY (exposure) attribute".into(),
        ));
    }
    let (_, outcome_col) = query
        .outcome()
        .ok_or_else(|| CoreError::BadQuery("query must aggregate an outcome attribute".into()))?;

    let mask = context_mask_on(query, table, pool)?;

    // Outcome codes: bin within the context so quantiles reflect C.
    let o = bin_masked(table.column(outcome_col)?, &mask, options, pool)?;

    // Exposure codes: composite over the GROUP BY columns.
    let t = composite_codes(table, exposure_cols, options, pool)?;

    let mut candidates = Vec::new();
    let mut column_codes = HashMap::new();
    let mut link_stats = HashMap::new();

    // ---- extracted candidates -------------------------------------------
    for ex in extractions {
        if ex.codes.len() != table.n_rows() {
            return Err(CoreError::InvalidRequest(format!(
                "extraction for column {:?} covers {} rows but the table has {}",
                ex.column,
                ex.codes.len(),
                table.n_rows()
            )));
        }
        link_stats.insert(ex.column.clone(), ex.link_stats.clone());
        column_codes.insert(ex.column.clone(), Arc::clone(&ex.codes));
        candidates.extend(ex.candidates.iter().cloned());
    }

    // ---- base-table candidates -------------------------------------------
    for field in table.schema().fields() {
        let name = &field.name;
        if name == outcome_col
            || exposure_cols.contains(name)
            || options.excluded_columns.contains(name)
        {
            continue;
        }
        let col = table.column(name)?;
        let codes = if field.dtype == DataType::Float64
            || (field.dtype == DataType::Int64 && col.distinct_count() > 24)
        {
            bin_masked(col, &mask, options, pool)?
        } else {
            col.category_codes_on(pool)?
        };
        candidates.push(Candidate {
            name: name.clone(),
            source: CandidateSource::BaseTable,
            repr: CandidateRepr::RowLevel(codes),
            entity_weights: None,
            bias: None,
        });
    }

    Ok(CandidateSet {
        candidates,
        column_codes,
        o,
        t,
        mask,
        link_stats,
    })
}

/// Calls `f` on every valid row of `rows` (all of them when `validity` is
/// `None`, with no per-row check).
fn for_each_valid(validity: Option<&Bitmap>, rows: Range<usize>, mut f: impl FnMut(usize)) {
    match validity {
        None => rows.for_each(f),
        Some(v) => v.iter_ones_in(rows).for_each(&mut f),
    }
}

/// The value of numeric row `i`, integers coerced to floats (validity not
/// consulted).
#[inline]
fn numeric_at(data: &ColumnData, i: usize) -> f64 {
    match data {
        ColumnData::Float64(v) => v[i],
        ColumnData::Int64(v) => v[i] as f64,
        _ => unreachable!("numeric columns only"),
    }
}

/// Bins a (possibly numeric) column using edges computed from in-context
/// values only. NaN values count as missing.
fn bin_masked(
    col: &Column,
    mask: &Bitmap,
    options: &NexusOptions,
    pool: &ThreadPool,
) -> Result<Codes> {
    if !col.dtype().is_numeric() {
        return Ok(col.category_codes_on(pool)?);
    }
    let data = col.data();
    let n = col.len();
    // Edges come from the valid, non-NaN in-context values, in row order:
    // one pass counts them per chunk, a second writes each chunk's values
    // into its piece of one exactly-sized buffer. (Collecting per-chunk
    // vectors and concatenating them holds the values twice, which raised
    // the peak RSS of a 10M-row explain by ~26 MB.)
    let binnable = |rows: Range<usize>| {
        mask.iter_ones_in(rows)
            .filter(|&i| !col.is_null(i))
            .map(|i| numeric_at(data, i))
            .filter(|v| !v.is_nan())
    };
    let counts = pool.map_chunks(n, ROW_CHUNK, |rows| binnable(rows).count());
    let mut values = vec![0.0; counts.iter().sum()];
    pool.map_pieces_mut(&mut values, &counts, |j, out| {
        let lo = j * ROW_CHUNK;
        for (o, v) in out.iter_mut().zip(binnable(lo..(lo + ROW_CHUNK).min(n))) {
            *o = v;
        }
    });
    if values.is_empty() {
        return Ok(bin_codes(col, options.outcome_bins)?);
    }
    let edges = compute_edges_owned(values, options.outcome_bins)?;
    let binner = Binner::new(&edges);

    // Assign every row from the raw payload, building the validity (valid
    // and not NaN) a word at a time.
    let mut codes = vec![0u32; n];
    let parts = pool.map_chunks_mut(&mut codes, ROW_CHUNK, |j, out| {
        let lo = j * ROW_CHUNK;
        let rows = lo..lo + out.len();
        match data {
            ColumnData::Float64(v) => {
                assign_bins(&v[rows], |x| x, col.validity(), lo, &binner, out)
            }
            ColumnData::Int64(v) => {
                assign_bins(&v[rows], |x| x as f64, col.validity(), lo, &binner, out)
            }
            _ => unreachable!("numeric columns only"),
        }
    });
    let any_nan = parts.iter().any(|(_, nan)| *nan);
    let validity = (col.validity().is_some() || any_nan).then(|| {
        let words = parts.into_iter().flat_map(|(words, _)| words).collect();
        Bitmap::from_words(words, n).expect("one word per 64 rows")
    });
    Ok(Codes {
        codes,
        cardinality: (edges.len() - 1) as u32,
        validity,
    })
}

/// Bins the raw values `src` of the rows from `lo` into `out`, a 64-row
/// word at a time. Returns the rows' validity words (present in
/// `validity` and not NaN) and whether a present row held NaN.
fn assign_bins<T: Copy>(
    src: &[T],
    as_f64: impl Fn(T) -> f64,
    validity: Option<&Bitmap>,
    lo: usize,
    binner: &Binner<'_>,
    out: &mut [u32],
) -> (Vec<u64>, bool) {
    let mut words = Vec::with_capacity(out.len().div_ceil(64));
    let mut nan = false;
    for (k, (block, values)) in out.chunks_mut(64).zip(src.chunks(64)).enumerate() {
        let present = validity.map_or(u64::MAX, |v| v.words()[lo / 64 + k]);
        let mut word = 0u64;
        for (b, (o, &x)) in block.iter_mut().zip(values).enumerate() {
            let v = as_f64(x);
            let is_present = (present >> b) & 1 == 1;
            nan |= is_present && v.is_nan();
            let valid = is_present && !v.is_nan();
            *o = if valid { binner.bin(v) } else { 0 };
            word |= u64::from(valid) << b;
        }
        words.push(word);
    }
    (words, nan)
}

/// Combines the codes of several columns into one dense composite code.
fn composite_codes(
    table: &Table,
    columns: &[String],
    options: &NexusOptions,
    pool: &ThreadPool,
) -> Result<Codes> {
    let mut parts = Vec::with_capacity(columns.len());
    for c in columns {
        let col = table.column(c)?;
        let codes = if col.dtype().is_numeric() && col.distinct_count() > 24 {
            bin_codes(col, options.candidate_bins)?
        } else {
            col.category_codes_on(pool)?
        };
        parts.push(codes);
    }
    Ok(composite(parts, pool))
}

/// One dense code per distinct tuple of `parts`' codes, numbered in
/// first-seen row order; a row with any invalid part is invalid (code 0).
///
/// Key spaces up to [`ROW_CHUNK`] keys key a tuple by the mixed-radix
/// number `Σ code·stride` (radix `cardinality + 1` per part) and get a
/// dense remap built on `pool` (per-chunk first-seen lists concatenated in
/// chunk order). Larger ones, including spaces that overflow `u64`, key a
/// hash map by the tuple itself.
fn composite(mut parts: Vec<Codes>, pool: &ThreadPool) -> Codes {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let n = parts[0].len();
    let maps: Vec<&Bitmap> = parts.iter().filter_map(|p| p.validity.as_ref()).collect();
    let validity = Bitmap::and_all(&maps);
    let valid = validity.as_ref();
    let space = parts
        .iter()
        .try_fold(1u64, |acc, p| acc.checked_mul(u64::from(p.cardinality) + 1));
    let (codes, cardinality) = match space {
        Some(space) if space <= ROW_CHUNK as u64 => {
            let key = |i: usize| {
                parts.iter().fold(0usize, |k, p| {
                    k * (p.cardinality as usize + 1) + p.codes[i] as usize
                })
            };
            dense_first_seen(n, space as usize, valid, key, pool)
        }
        _ => hashed_first_seen(n, valid, |i| parts.iter().map(|p| p.codes[i]).collect()),
    };
    let has_null = validity.as_ref().is_some_and(|v| v.count_zeros() > 0);
    Codes {
        codes,
        cardinality,
        validity: if has_null { validity } else { None },
    }
}

/// First-seen numbering of the keys (`< space`) of the valid rows, on
/// `pool`: per-chunk first-seen lists merge in chunk order, then one
/// gather writes the codes. Invalid rows get code 0.
fn dense_first_seen(
    n: usize,
    space: usize,
    valid: Option<&Bitmap>,
    key: impl Fn(usize) -> usize + Sync,
    pool: &ThreadPool,
) -> (Vec<u32>, u32) {
    let first_seen = |rows: Range<usize>| {
        let mut seen = vec![false; space];
        let mut first = Vec::new();
        for_each_valid(valid, rows, |i| {
            let k = key(i);
            if !seen[k] {
                seen[k] = true;
                first.push(k);
            }
        });
        first
    };
    let mut remap = vec![u32::MAX; space];
    let mut next = 0u32;
    for k in pool.map_chunks(n, ROW_CHUNK, first_seen).concat() {
        if remap[k] == u32::MAX {
            remap[k] = next;
            next += 1;
        }
    }
    let mut codes = vec![0u32; n];
    pool.map_chunks_mut(&mut codes, ROW_CHUNK, |j, out| {
        let lo = j * ROW_CHUNK;
        for_each_valid(valid, lo..lo + out.len(), |i| out[i - lo] = remap[key(i)]);
    });
    (codes, next)
}

/// First-seen numbering of the valid rows' code tuples through a hash
/// map, in one serial pass. Invalid rows get code 0.
fn hashed_first_seen(
    n: usize,
    valid: Option<&Bitmap>,
    key: impl Fn(usize) -> Vec<u32>,
) -> (Vec<u32>, u32) {
    let mut remap: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut codes = vec![0u32; n];
    for_each_valid(valid, 0..n, |i| {
        let next = remap.len() as u32;
        codes[i] = *remap.entry(key(i)).or_insert(next);
    });
    (codes, remap.len() as u32)
}

/// Converts an entity-level column into `(map, cardinality)`: numeric
/// columns are quantile-binned over entity values, categoricals keep their
/// dictionary codes. Nulls become [`MISSING_CODE`].
fn entity_level_codes(col: &Column, options: &NexusOptions) -> Result<(Vec<u32>, u32)> {
    let codes = if col.dtype().is_numeric() {
        bin_codes(col, options.candidate_bins)?
    } else {
        col.category_codes()?
    };
    let map: Vec<u32> = (0..codes.len())
        .map(|i| {
            if codes.is_valid(i) {
                codes.codes[i]
            } else {
                MISSING_CODE
            }
        })
        .collect();
    Ok((map, codes.cardinality))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_query::parse;

    /// Tiny dataset: 12 people in 3 countries; KG has hdi per country plus a
    /// sparse attribute.
    fn toy() -> (Table, KnowledgeGraph, Vec<String>) {
        let table = Table::new(vec![
            (
                "Country",
                Column::from_strs(&[
                    "A", "A", "A", "A", "B", "B", "B", "B", "C", "C", "C", "Nowhere",
                ]),
            ),
            (
                "Gender",
                Column::from_strs(&["m", "f", "m", "f", "m", "f", "m", "f", "m", "f", "m", "m"]),
            ),
            (
                "Salary",
                Column::from_f64(vec![
                    90.0, 85.0, 95.0, 88.0, 50.0, 45.0, 55.0, 48.0, 70.0, 65.0, 72.0, 60.0,
                ]),
            ),
        ])
        .unwrap();
        let mut kg = KnowledgeGraph::new();
        for (name, hdi) in [("A", 0.95), ("B", 0.55), ("C", 0.75)] {
            let id = kg.add_entity(name, "Country");
            kg.set_literal(id, "hdi", hdi);
            if name != "B" {
                kg.set_literal(id, "sparse", hdi * 2.0);
            }
        }
        (table, kg, vec!["Country".to_string()])
    }

    #[test]
    fn assembles_extracted_and_base_candidates() {
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        let names: Vec<&str> = set.candidates.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"Country::hdi"));
        assert!(names.contains(&"Country::sparse"));
        assert!(names.contains(&"Gender"));
        // Exposure and outcome are excluded.
        assert!(!names.contains(&"Country"));
        assert!(!names.contains(&"Salary"));
        // Linking: 11 rows linked, "Nowhere" not found.
        assert_eq!(set.link_stats["Country"].not_found, 1);
        assert_eq!(set.column_codes["Country"].cardinality, 3);
    }

    #[test]
    fn all_null_text_columns_build() {
        // All-null text columns (empty dictionaries) as a base-table
        // candidate, an extraction column and a WHERE column.
        let (mut table, kg, mut cols) = toy();
        table
            .add_column("Note", Column::from_opt_strs(&[None::<&str>; 12]))
            .unwrap();
        table
            .add_column("Nation", Column::from_opt_strs(&[None::<&str>; 12]))
            .unwrap();
        cols.push("Nation".to_string());
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        for parallelism in [
            nexus_runtime::Parallelism::Serial,
            nexus_runtime::Parallelism::Fixed(2),
        ] {
            let options = NexusOptions {
                parallelism,
                ..NexusOptions::default()
            };
            let set = build_candidates(&table, &kg, &cols, &q, &options).unwrap();
            assert!(set.index_of("Country::hdi").is_some());
            assert!(set
                .candidates
                .iter()
                .all(|c| !c.name.starts_with("Nation::")));
            assert_eq!(set.link_stats["Nation"].null, 12);
            assert_eq!(set.column_codes["Nation"].cardinality, 0);
            assert_eq!(set.column_codes["Nation"].valid_count(), 0);
        }
        let q =
            parse("SELECT Country, avg(Salary) FROM t WHERE Note <> 'x' GROUP BY Country").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        assert_eq!(set.mask.count_ones(), 0);
    }

    #[test]
    fn row_codes_expand_entity_level() {
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        let hdi = &set.candidates[set.index_of("Country::hdi").unwrap()];
        let rows = set.row_codes(hdi);
        assert_eq!(rows.len(), 12);
        // All rows of the same country share a code.
        assert_eq!(rows.codes[0], rows.codes[1]);
        assert_ne!(rows.codes[0], rows.codes[4]);
        // The unlinked row is invalid.
        assert!(!rows.is_valid(11));

        let sparse = &set.candidates[set.index_of("Country::sparse").unwrap()];
        let rows = set.row_codes(sparse);
        // Country B rows (4..8) are missing "sparse".
        assert!(!rows.is_valid(4));
        assert!(rows.is_valid(0));
    }

    #[test]
    fn context_mask_and_outcome_binning() {
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t WHERE Gender = 'm' GROUP BY Country")
            .unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        assert_eq!(set.mask.count_ones(), 7);
        assert!(set.o.cardinality >= 2);
    }

    #[test]
    fn composite_exposure() {
        let (table, kg, cols) = toy();
        let q =
            parse("SELECT Country, Gender, avg(Salary) FROM t GROUP BY Country, Gender").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        // 4 countries (incl. Nowhere) × 2 genders present.
        assert!(set.t.cardinality >= 6);
        // Gender is now part of the exposure, not a candidate.
        assert!(set.index_of("Gender").is_none());
    }

    #[test]
    fn bad_queries_rejected() {
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let mut no_group = q.clone();
        no_group.group_by.clear();
        assert!(build_candidates(&table, &kg, &cols, &no_group, &NexusOptions::default()).is_err());
        let mut no_agg = q;
        no_agg
            .select
            .retain(|s| matches!(s, nexus_query::SelectItem::Column(_)));
        assert!(build_candidates(&table, &kg, &cols, &no_agg, &NexusOptions::default()).is_err());
    }

    #[test]
    fn nan_outcome_is_missing_not_a_panic() {
        let countries = ["A", "B", "C", "D"];
        let mut salary: Vec<f64> = (0..40).map(|i| 40.0 + (i % 13) as f64).collect();
        salary[17] = f64::NAN;
        let table = Table::new(vec![
            (
                "Country",
                Column::from_strs(&(0..40).map(|i| countries[i % 4]).collect::<Vec<_>>()),
            ),
            ("Salary", Column::from_f64(salary)),
        ])
        .unwrap();
        let mut kg = KnowledgeGraph::new();
        for (k, name) in countries.iter().enumerate() {
            let id = kg.add_entity(*name, "Country");
            // A NaN literal reaches the entity-level binning too.
            kg.set_literal(id, "hdi", if k == 2 { f64::NAN } else { k as f64 });
        }
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let cols = vec!["Country".to_string()];
        let set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        assert!(!set.o.is_valid(17));
        assert_eq!(set.o.codes[17], 0);
        assert_eq!(set.o.valid_count(), 39);
        let hdi = &set.candidates[set.index_of("Country::hdi").unwrap()];
        let CandidateRepr::EntityLevel { map, .. } = &hdi.repr else {
            panic!("entity-level candidate")
        };
        assert_eq!(map[2], MISSING_CODE);
        assert_eq!(map.iter().filter(|&&c| c == MISSING_CODE).count(), 1);
    }

    #[test]
    fn composite_keys_past_u64_stay_distinct() {
        // Declared cardinalities whose key space overflows u64: each
        // distinct tuple still gets its own code, in first-seen order.
        let part = |codes: Vec<u32>| Codes {
            codes,
            cardinality: u32::MAX - 1,
            validity: None,
        };
        let parts = vec![
            part(vec![5, 5, 1, 5, 7, 1]),
            part(vec![0, 0, 2, 0, u32::MAX - 2, 2]),
            part(vec![9, 8, 9, 9, 9, 9]),
        ];
        let composite = composite(parts, &ThreadPool::default());
        assert_eq!(composite.codes, vec![0, 1, 2, 0, 3, 2]);
        assert_eq!(composite.cardinality, 4);
        assert!(composite.validity.is_none());
    }

    /// The composite exposure before checked keys and the dense remap: a
    /// test-only oracle (its key arithmetic wraps only past u64).
    fn composite_per_row(parts: &[Codes]) -> (Vec<u32>, u32, Option<Bitmap>) {
        let n = parts[0].len();
        let mut remap: HashMap<u64, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(n);
        let mut validity = Bitmap::with_value(n, true);
        for i in 0..n {
            if parts.iter().any(|p| !p.is_valid(i)) {
                codes.push(0);
                validity.set(i, false);
                continue;
            }
            let mut key = 0u64;
            for p in parts {
                key = key * (p.cardinality as u64 + 1) + p.codes[i] as u64;
            }
            let next = remap.len() as u32;
            codes.push(*remap.entry(key).or_insert(next));
        }
        let has_null = validity.count_zeros() > 0;
        (codes, remap.len() as u32, has_null.then_some(validity))
    }

    /// The per-row extraction the dictionary-space one replaced: per-row
    /// links, first-appearance entity order from a hash probe per row, and
    /// a hash lookup per row for the codes. A test-only oracle; returns
    /// the row codes, the link statistics and the candidates' entity maps.
    fn extraction_per_row(
        col: &Column,
        kg: &KnowledgeGraph,
        options: &NexusOptions,
    ) -> (Codes, nexus_kg::LinkStats, Vec<Vec<u32>>) {
        use nexus_kg::{EntityId, LinkOutcome, LinkStats};
        let linker = EntityLinker::new(kg);
        let mut stats = LinkStats::default();
        let links: Vec<Option<EntityId>> = match col.data() {
            ColumnData::Utf8(arr) => {
                let resolved: Vec<LinkOutcome> =
                    arr.dict().iter().map(|s| linker.link(s)).collect();
                (0..col.len())
                    .map(|i| {
                        if col.is_null(i) {
                            stats.null += 1;
                            return None;
                        }
                        match resolved[arr.codes()[i] as usize] {
                            LinkOutcome::Linked(id) => {
                                stats.linked += 1;
                                Some(id)
                            }
                            LinkOutcome::NotFound => {
                                stats.not_found += 1;
                                None
                            }
                            LinkOutcome::Ambiguous => {
                                stats.ambiguous += 1;
                                None
                            }
                        }
                    })
                    .collect()
            }
            _ => {
                stats.null = col.len();
                vec![None; col.len()]
            }
        };
        let mut entity_ids = Vec::new();
        let mut index_of: HashMap<EntityId, usize> = HashMap::new();
        for l in links.iter().flatten() {
            if !index_of.contains_key(l) {
                index_of.insert(*l, entity_ids.len());
                entity_ids.push(*l);
            }
        }
        let ea = extract(kg, &entity_ids, &ExtractOptions::default());
        let n = col.len();
        let mut codes = Vec::with_capacity(n);
        let mut validity = Bitmap::with_value(n, true);
        for (i, l) in links.iter().enumerate() {
            match l.and_then(|id| index_of.get(&id)) {
                Some(&e) => codes.push(e as u32),
                None => {
                    codes.push(0);
                    validity.set(i, false);
                }
            }
        }
        let maps = ea
            .table
            .column_names()
            .iter()
            .map(|attr| {
                entity_level_codes(ea.table.column(attr).unwrap(), options)
                    .unwrap()
                    .0
            })
            .collect();
        let codes = Codes {
            codes,
            cardinality: entity_ids.len() as u32,
            validity: Some(validity),
        };
        (codes, stats, maps)
    }

    /// A random KG of `m` entities with aliases, a shared (ambiguous)
    /// alias, and numeric, categorical and partly missing properties.
    fn random_kg(rng: &mut nexus_runtime::SplitMix64, m: usize) -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        for k in 0..m {
            let id = kg.add_entity(format!("E{k}"), "Thing");
            if rng.next_below(3) == 0 {
                kg.add_alias(id, format!("Alias {k}"));
            }
            if rng.next_below(4) == 0 {
                kg.add_alias(id, "Shared");
            }
            if rng.next_below(5) != 0 {
                kg.set_literal(id, "size", rng.next_below(9) as f64 - 4.0);
            }
            kg.set_literal(id, "kind", ["x", "y", "z"][rng.next_below(3) as usize]);
        }
        kg
    }

    /// A column of `n` rows over surface forms of `random_kg`'s entities:
    /// names, aliases, case and spacing variants, the shared alias and
    /// unknown forms, in runs; nulls, unused dictionary entries, or (one
    /// time in eight) an integer column instead.
    fn random_column(rng: &mut nexus_runtime::SplitMix64, m: usize, n: usize) -> Column {
        if rng.next_below(8) == 0 {
            return Column::from_i64((0..n as i64).collect());
        }
        let mut dict: Vec<String> = Vec::new();
        for k in 0..m {
            dict.push(format!("E{k}"));
            dict.push(format!(" e{k}"));
            dict.push(format!("Alias {k}"));
        }
        dict.extend(["Shared", "Unknown", "nowhere"].map(String::from));
        let d = dict.len() as u64;
        let null_rate = rng.next_below(3);
        let mut codes = Vec::with_capacity(n);
        let mut valid = Vec::with_capacity(n);
        let mut c = 0u32;
        for _ in 0..n {
            if rng.next_below(16) == 0 {
                // Leave the last few entries unused by any row.
                c = rng.next_below(d - 2) as u32;
            }
            codes.push(c);
            valid.push(null_rate == 0 || rng.next_below(10) >= null_rate);
        }
        let validity: Bitmap = valid.into_iter().collect();
        Column::from_parts(
            ColumnData::Utf8(nexus_table::DictArray::from_parts(codes, dict).unwrap()),
            (null_rate > 0).then_some(validity),
        )
        .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Dictionary-space extraction equals the per-row oracle — entity
        /// order, codes, validity, cardinality, link statistics and
        /// entity maps — on both sides of the chunk size and at any
        /// thread count.
        #[test]
        fn dictionary_space_extraction_matches_the_per_row_oracle(
            seed in proptest::prelude::any::<u64>(),
            size in 0usize..3,
        ) {
            let mut rng = nexus_runtime::SplitMix64::new(seed);
            let m = 1 + rng.next_below(12) as usize;
            let n = [
                rng.next_below(400) as usize,
                ROW_CHUNK - 20 + rng.next_below(40) as usize,
                2 * ROW_CHUNK + rng.next_below(9000) as usize,
            ][size];
            let kg = random_kg(&mut rng, m);
            let table = Table::new(vec![("Col", random_column(&mut rng, m, n))]).unwrap();
            let options = NexusOptions::default();
            let (codes, stats, maps) = extraction_per_row(table.column("Col").unwrap(), &kg, &options);
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(nexus_runtime::Parallelism::Fixed(threads));
                let ex = extract_column_on(&table, &kg, "Col", &options, &pool).unwrap();
                proptest::prop_assert_eq!(&ex.codes.codes, &codes.codes);
                proptest::prop_assert_eq!(ex.codes.cardinality, codes.cardinality);
                proptest::prop_assert_eq!(&ex.codes.validity, &codes.validity);
                proptest::prop_assert_eq!(&ex.link_stats, &stats);
                let got: Vec<&Vec<u32>> = ex
                    .candidates
                    .iter()
                    .map(|c| match &c.repr {
                        CandidateRepr::EntityLevel { map, .. } => map,
                        CandidateRepr::RowLevel(_) => unreachable!("extracted candidates"),
                    })
                    .collect();
                proptest::prop_assert_eq!(got, maps.iter().collect::<Vec<_>>());
            }
        }

        /// The chunked composite exposure equals the per-row one for dense
        /// and hashed key spaces, with nulls, on both sides of the chunk
        /// size and at any thread count.
        #[test]
        fn chunked_composite_matches_the_per_row_oracle(
            seed in proptest::prelude::any::<u64>(),
            size in 0usize..3,
            wide in proptest::bool::ANY,
        ) {
            let mut rng = nexus_runtime::SplitMix64::new(seed);
            let n = [
                1 + rng.next_below(300) as usize,
                ROW_CHUNK - 5 + rng.next_below(10) as usize,
                2 * ROW_CHUNK + rng.next_below(4000) as usize,
            ][size];
            let n_parts = 2 + rng.next_below(2) as usize;
            let parts: Vec<Codes> = (0..n_parts)
                .map(|_| {
                    let cardinality = if wide { 300 } else { 1 + rng.next_below(12) as u32 };
                    let nulls = rng.next_below(3) == 0;
                    let codes: Vec<u32> = (0..n).map(|_| rng.next_below(u64::from(cardinality)) as u32).collect();
                    let validity = nulls.then(|| (0..n).map(|_| rng.next_below(9) != 0).collect());
                    Codes { codes, cardinality, validity }
                })
                .collect();
            let (codes, cardinality, validity) = composite_per_row(&parts);
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(nexus_runtime::Parallelism::Fixed(threads));
                let got = composite(parts.clone(), &pool);
                proptest::prop_assert_eq!(&got.codes, &codes);
                proptest::prop_assert_eq!(got.cardinality, cardinality);
                proptest::prop_assert_eq!(&got.validity, &validity);
            }
        }
    }
}

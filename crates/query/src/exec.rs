//! Query execution against an in-memory catalog of tables.

use std::collections::HashMap;
use std::ops::Range;

use nexus_runtime::{ThreadPool, ROW_CHUNK};
#[cfg(test)]
use nexus_table::Column;
use nexus_table::{aggregate, join, Bitmap, ColumnData, JoinType, Table, Value};

use crate::ast::{AggregateQuery, CmpOp, Predicate, SelectItem};
use crate::error::{QueryError, Result};

/// A named collection of tables.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table under `name` (replacing any previous table).
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// Looks up a table.
    pub fn get(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| QueryError::TableNotFound(name.to_string()))
    }

    /// Names of registered tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }
}

/// Evaluates a predicate over a table into a row mask.
///
/// Three-valued-logic note: comparisons against NULL evaluate to false (not
/// unknown), and `NOT` is plain boolean negation of that — the pragmatic
/// semantics analysts expect from a filter.
pub fn eval_predicate(pred: &Predicate, table: &Table) -> Result<Bitmap> {
    eval_on(pred, table, &ThreadPool::default())
}

/// Evaluates `pred` on `pool`, 64 rows to a word, in [`ROW_CHUNK`]-row
/// chunks whose words append in chunk order.
fn eval_on(pred: &Predicate, table: &Table, pool: &ThreadPool) -> Result<Bitmap> {
    let n = table.n_rows();
    // Type errors surface here, before any row is read, so they do not
    // depend on the row count.
    let compiled = Compiled::new(pred, table)?;
    let words = pool.map_chunks(n, ROW_CHUNK, |rows| compiled.words(rows));
    Ok(Bitmap::from_words(words.concat(), n).expect("one word per 64 rows, tail bits clear"))
}

/// A predicate resolved against a table's columns: every lookup and type
/// check done, leaving only per-row comparisons.
enum Compiled<'a> {
    And(Box<Compiled<'a>>, Box<Compiled<'a>>),
    Or(Box<Compiled<'a>>, Box<Compiled<'a>>),
    Not(Box<Compiled<'a>>),
    /// `IS [NOT] NULL`: the validity words, inverted for `IS NULL`.
    IsNull {
        validity: Option<&'a Bitmap>,
        negated: bool,
    },
    /// A comparison with the NULL literal, which matches nothing.
    Nothing,
    /// A string comparison, resolved once per dictionary entry.
    Dict {
        codes: &'a [u32],
        validity: Option<&'a Bitmap>,
        matches: Vec<bool>,
    },
    Bool {
        values: &'a [bool],
        validity: Option<&'a Bitmap>,
        target: bool,
        op: CmpOp,
    },
    Numeric {
        col: &'a nexus_table::Column,
        target: f64,
        op: CmpOp,
    },
}

impl<'a> Compiled<'a> {
    fn new(pred: &Predicate, table: &'a Table) -> Result<Compiled<'a>> {
        Ok(match pred {
            Predicate::And(a, b) => Compiled::And(
                Box::new(Compiled::new(a, table)?),
                Box::new(Compiled::new(b, table)?),
            ),
            Predicate::Or(a, b) => Compiled::Or(
                Box::new(Compiled::new(a, table)?),
                Box::new(Compiled::new(b, table)?),
            ),
            Predicate::Not(p) => Compiled::Not(Box::new(Compiled::new(p, table)?)),
            Predicate::IsNull { column, negated } => Compiled::IsNull {
                validity: table.column(column)?.validity(),
                negated: *negated,
            },
            Predicate::Compare { column, op, value } => {
                Compiled::compare(table, column, *op, value)?
            }
        })
    }

    fn compare(table: &'a Table, column: &str, op: CmpOp, value: &Value) -> Result<Compiled<'a>> {
        let col = table.column(column)?;
        if value.is_null() {
            // SQL: comparisons with NULL match nothing.
            return Ok(Compiled::Nothing);
        }
        let validity = col.validity();
        match (col.data(), value) {
            // An empty dictionary is an all-null column; its null rows'
            // code 0 indexes no entry.
            (ColumnData::Utf8(arr), Value::Str(_)) if arr.dict().is_empty() => {
                Ok(Compiled::Nothing)
            }
            (ColumnData::Utf8(arr), Value::Str(s)) => Ok(Compiled::Dict {
                codes: arr.codes(),
                validity,
                matches: arr.dict().iter().map(|d| cmp_str(d, s, op)).collect(),
            }),
            (_, Value::Str(_)) => Err(QueryError::Semantic(format!(
                "cannot compare non-string column {column:?} with a string literal"
            ))),
            (ColumnData::Bool(values), Value::Bool(b)) => Ok(Compiled::Bool {
                values,
                validity,
                target: *b,
                op,
            }),
            _ => {
                let target = value.as_f64().ok_or_else(|| {
                    QueryError::Semantic(format!(
                        "cannot compare column {column:?} ({}) with literal {value}",
                        col.dtype()
                    ))
                })?;
                if !col.dtype().is_numeric() {
                    return Err(QueryError::Semantic(format!(
                        "cannot compare non-numeric column {column:?} with a number"
                    )));
                }
                Ok(Compiled::Numeric { col, target, op })
            }
        }
    }

    /// The mask words of `rows`, which start on a word boundary.
    fn words(&self, rows: Range<usize>) -> Vec<u64> {
        debug_assert_eq!(rows.start % 64, 0);
        match self {
            Compiled::And(a, b) => zip_words(a.words(rows.clone()), b.words(rows), |x, y| x & y),
            Compiled::Or(a, b) => zip_words(a.words(rows.clone()), b.words(rows), |x, y| x | y),
            Compiled::Not(p) => {
                let mut words = p.words(rows.clone());
                for (k, w) in words.iter_mut().enumerate() {
                    *w = !*w & live_bits(&rows, k);
                }
                words
            }
            Compiled::IsNull { validity, negated } => (0..rows.len().div_ceil(64))
                .map(|k| {
                    let valid = validity.map_or(u64::MAX, |v| v.words()[rows.start / 64 + k]);
                    (if *negated { valid } else { !valid }) & live_bits(&rows, k)
                })
                .collect(),
            Compiled::Nothing => vec![0; rows.len().div_ceil(64)],
            Compiled::Dict {
                codes,
                validity,
                matches,
            } => leaf_words(rows, *validity, |i| matches[codes[i] as usize]),
            Compiled::Bool {
                values,
                validity,
                target,
                op,
            } => leaf_words(rows, *validity, |i| cmp_ord(values[i], *target, *op)),
            Compiled::Numeric { col, target, op } => match col.data() {
                ColumnData::Int64(v) => {
                    leaf_words(rows, col.validity(), |i| cmp_f64(v[i] as f64, *target, *op))
                }
                ColumnData::Float64(v) => {
                    leaf_words(rows, col.validity(), |i| cmp_f64(v[i], *target, *op))
                }
                _ => unreachable!("numeric comparisons compile on numeric columns only"),
            },
        }
    }
}

/// The bits of word `k` of `rows` that fall inside `rows`.
fn live_bits(rows: &Range<usize>, k: usize) -> u64 {
    let left = rows.len() - 64 * k;
    if left >= 64 {
        u64::MAX
    } else {
        (1u64 << left) - 1
    }
}

fn zip_words(mut a: Vec<u64>, b: Vec<u64>, f: impl Fn(u64, u64) -> u64) -> Vec<u64> {
    for (x, y) in a.iter_mut().zip(b) {
        *x = f(*x, y);
    }
    a
}

/// One word per 64 rows of `rows`: bit `j` is `hit(row)` on a valid row.
fn leaf_words(
    rows: Range<usize>,
    validity: Option<&Bitmap>,
    hit: impl Fn(usize) -> bool,
) -> Vec<u64> {
    (rows.start..rows.end)
        .step_by(64)
        .map(|lo| {
            let hi = (lo + 64).min(rows.end);
            let mut word = 0u64;
            for i in lo..hi {
                word |= u64::from(hit(i)) << (i - lo);
            }
            validity.map_or(word, |v| word & v.words()[lo / 64])
        })
        .collect()
}

fn cmp_str(a: &str, b: &str, op: CmpOp) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn cmp_ord<T: PartialOrd>(a: T, b: T, op: CmpOp) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn cmp_f64(a: f64, b: f64, op: CmpOp) -> bool {
    cmp_ord(a, b, op)
}

/// Executes an aggregate query against the catalog.
///
/// Pipeline: FROM → JOIN → WHERE → GROUP BY + aggregates, mirroring SQL
/// semantics for the supported subset.
pub fn execute(query: &AggregateQuery, catalog: &Catalog) -> Result<Table> {
    let mut working = catalog.get(&query.from)?.clone();

    if let Some(j) = &query.join {
        let right = catalog.get(&j.table)?;
        working = join(&working, right, &j.left_col, &j.right_col, JoinType::Inner)?;
    }

    if let Some(pred) = &query.where_clause {
        let mask = eval_predicate(pred, &working)?;
        working = working.filter(&mask)?;
    }

    if query.group_by.is_empty() {
        return Err(QueryError::Semantic(
            "NEXUS queries require a GROUP BY clause (the exposure attribute)".into(),
        ));
    }

    // Numerical exposures are binned (Section 2.1: "To handle a numerical
    // exposure, one may bin this attribute"): continuous or high-cardinality
    // numeric group keys become quantile-bin interval labels.
    for key in &query.group_by {
        let col = working.column(key)?;
        let needs_binning = match col.dtype() {
            nexus_table::DataType::Float64 => true,
            nexus_table::DataType::Int64 => col.distinct_count() > 24,
            _ => false,
        };
        if needs_binning {
            let binned = nexus_table::bin_to_column(col, nexus_table::BinStrategy::Quantile(8))?;
            working.replace_column(key, binned)?;
        }
    }

    // Validate that bare SELECT columns appear in GROUP BY.
    for item in &query.select {
        if let SelectItem::Column(c) = item {
            if !query.group_by.contains(c) {
                return Err(QueryError::Semantic(format!(
                    "column {c:?} must appear in GROUP BY"
                )));
            }
        }
    }

    let keys: Vec<&str> = query.group_by.iter().map(|s| s.as_str()).collect();
    let aggs: Vec<(nexus_table::AggFunc, &str)> = query
        .select
        .iter()
        .filter_map(|s| match s {
            SelectItem::Aggregate { func, column } => Some((*func, column.as_str())),
            _ => None,
        })
        .collect();
    if aggs.is_empty() {
        return Err(QueryError::Semantic(
            "NEXUS queries require at least one aggregate (the outcome attribute)".into(),
        ));
    }
    Ok(aggregate(&working, &keys, &aggs)?)
}

/// Convenience: builds the context mask of a query over its (possibly
/// joined) input table — all rows when there is no WHERE clause.
pub fn context_mask(query: &AggregateQuery, table: &Table) -> Result<Bitmap> {
    context_mask_on(query, table, &ThreadPool::default())
}

/// [`context_mask`] with the predicate evaluated on `pool`, in
/// [`ROW_CHUNK`]-row chunks. The mask does not depend on the pool's
/// thread count.
pub fn context_mask_on(query: &AggregateQuery, table: &Table, pool: &ThreadPool) -> Result<Bitmap> {
    match &query.where_clause {
        Some(p) => eval_on(p, table, pool),
        None => Ok(Bitmap::with_value(table.n_rows(), true)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-bit evaluator the word-wise one replaced: a test-only oracle.
    ///
    /// Three-valued-logic note: comparisons against NULL evaluate to false (not
    /// unknown), and `NOT` is plain boolean negation of that — the pragmatic
    /// semantics analysts expect from a filter.
    fn eval_per_bit(pred: &Predicate, table: &Table) -> Result<Bitmap> {
        match pred {
            Predicate::And(a, b) => Ok(eval_per_bit(a, table)?.and(&eval_per_bit(b, table)?)),
            Predicate::Or(a, b) => Ok(eval_per_bit(a, table)?.or(&eval_per_bit(b, table)?)),
            Predicate::Not(p) => Ok(eval_per_bit(p, table)?.not()),
            Predicate::IsNull { column, negated } => {
                let col = table.column(column)?;
                let mask: Bitmap = (0..col.len()).map(|i| col.is_null(i) != *negated).collect();
                Ok(mask)
            }
            Predicate::Compare { column, op, value } => compare_per_bit(table, column, *op, value),
        }
    }

    fn compare_per_bit(table: &Table, column: &str, op: CmpOp, value: &Value) -> Result<Bitmap> {
        let col = table.column(column)?;
        let n = col.len();
        if value.is_null() {
            // SQL: comparisons with NULL match nothing.
            return Ok(Bitmap::with_value(n, false));
        }
        // Fast paths per column type.
        match (col.data(), value) {
            (ColumnData::Utf8(arr), Value::Str(s)) => {
                // Compare against dictionary entries once.
                let dict_match: Vec<bool> = arr
                    .dict()
                    .iter()
                    .map(|d| cmp_str(d.as_str(), s, op))
                    .collect();
                Ok((0..n)
                    .map(|i| !col.is_null(i) && dict_match[arr.codes()[i] as usize])
                    .collect())
            }
            (_, Value::Str(_)) => Err(QueryError::Semantic(format!(
                "cannot compare non-string column {column:?} with a string literal"
            ))),
            (ColumnData::Bool(v), Value::Bool(b)) => Ok((0..n)
                .map(|i| !col.is_null(i) && cmp_ord(v[i], *b, op))
                .collect()),
            _ => {
                let target = value.as_f64().ok_or_else(|| {
                    QueryError::Semantic(format!(
                        "cannot compare column {column:?} ({}) with literal {value}",
                        col.dtype()
                    ))
                })?;
                if !col.dtype().is_numeric() {
                    return Err(QueryError::Semantic(format!(
                        "cannot compare non-numeric column {column:?} with a number"
                    )));
                }
                Ok((0..n)
                    .map(|i| match col.f64_at(i) {
                        Some(v) => cmp_f64(v, target, op),
                        None => false,
                    })
                    .collect())
            }
        }
    }

    use crate::parser::parse;

    fn catalog() -> Catalog {
        let so = Table::new(vec![
            (
                "Country",
                Column::from_strs(&["us", "fr", "us", "de", "fr", "de"]),
            ),
            (
                "Continent",
                Column::from_strs(&["na", "eu", "na", "eu", "eu", "eu"]),
            ),
            (
                "Salary",
                Column::from_f64(vec![90.0, 60.0, 80.0, 70.0, 62.0, 72.0]),
            ),
            ("Age", Column::from_i64(vec![25, 30, 45, 50, 28, 33])),
        ])
        .unwrap();
        let countries = Table::new(vec![
            ("Country", Column::from_strs(&["us", "fr", "de"])),
            ("gdp", Column::from_f64(vec![21.0, 2.6, 3.8])),
        ])
        .unwrap();
        let mut c = Catalog::new();
        c.register("SO", so);
        c.register("countries", countries);
        c
    }

    #[test]
    fn basic_group_by() {
        let c = catalog();
        let q = parse("SELECT Country, avg(Salary) FROM SO GROUP BY Country").unwrap();
        let r = execute(&q, &c).unwrap();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.value(0, "avg(Salary)").unwrap(), Value::Float(85.0));
    }

    #[test]
    fn where_filters_rows() {
        let c = catalog();
        let q =
            parse("SELECT Country, avg(Salary) FROM SO WHERE Continent = 'eu' GROUP BY Country")
                .unwrap();
        let r = execute(&q, &c).unwrap();
        assert_eq!(r.n_rows(), 2); // fr, de
        assert_eq!(r.value(0, "Country").unwrap(), Value::Str("fr".into()));
        assert_eq!(r.value(0, "avg(Salary)").unwrap(), Value::Float(61.0));
    }

    #[test]
    fn numeric_and_compound_predicates() {
        let c = catalog();
        let q = parse(
            "SELECT Country, count(Salary) FROM SO WHERE Age >= 30 AND Salary < 75 GROUP BY Country",
        )
        .unwrap();
        let r = execute(&q, &c).unwrap();
        // matches: fr(30,60), de(50,70), de(33,72)
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.value(1, "count(Salary)").unwrap(), Value::Int(2));
    }

    #[test]
    fn join_pulls_right_columns() {
        let c = catalog();
        let q = parse(
            "SELECT Country, avg(gdp) FROM SO JOIN countries ON SO.Country = countries.Country GROUP BY Country",
        )
        .unwrap();
        let r = execute(&q, &c).unwrap();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.value(0, "avg(gdp)").unwrap(), Value::Float(21.0));
    }

    #[test]
    fn or_and_not_predicates() {
        let c = catalog();
        let q = parse(
            "SELECT Country, count(Salary) FROM SO WHERE Country = 'us' OR NOT Age < 50 GROUP BY Country",
        )
        .unwrap();
        let r = execute(&q, &c).unwrap();
        // us rows (2) plus de(50)
        let total: i64 = (0..r.n_rows())
            .map(|i| r.value(i, "count(Salary)").unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn missing_group_by_rejected() {
        let c = catalog();
        let q = parse("SELECT Country, avg(Salary) FROM SO").unwrap();
        assert!(matches!(execute(&q, &c), Err(QueryError::Semantic(_))));
    }

    #[test]
    fn missing_aggregate_rejected() {
        let c = catalog();
        let q = parse("SELECT Country FROM SO GROUP BY Country").unwrap();
        assert!(matches!(execute(&q, &c), Err(QueryError::Semantic(_))));
    }

    #[test]
    fn bare_column_not_grouped_rejected() {
        let c = catalog();
        let q = parse("SELECT Age, avg(Salary) FROM SO GROUP BY Country").unwrap();
        assert!(matches!(execute(&q, &c), Err(QueryError::Semantic(_))));
    }

    #[test]
    fn unknown_table_and_column() {
        let c = catalog();
        let q = parse("SELECT a, avg(b) FROM nope GROUP BY a").unwrap();
        assert!(matches!(execute(&q, &c), Err(QueryError::TableNotFound(_))));
        let q = parse("SELECT zzz, avg(Salary) FROM SO GROUP BY zzz").unwrap();
        assert!(execute(&q, &c).is_err());
    }

    #[test]
    fn type_mismatch_in_predicate() {
        let c = catalog();
        let q = parse("SELECT Country, avg(Salary) FROM SO WHERE Age = 'old' GROUP BY Country")
            .unwrap();
        assert!(matches!(execute(&q, &c), Err(QueryError::Semantic(_))));
        let q = parse("SELECT Country, avg(Salary) FROM SO WHERE Country > 3 GROUP BY Country")
            .unwrap();
        assert!(matches!(execute(&q, &c), Err(QueryError::Semantic(_))));
    }

    #[test]
    fn is_null_predicate() {
        let t = Table::new(vec![
            ("k", Column::from_strs(&["a", "a", "b"])),
            ("v", Column::from_opt_f64(vec![Some(1.0), None, Some(2.0)])),
        ])
        .unwrap();
        let mut c = Catalog::new();
        c.register("t", t);
        let q = parse("SELECT k, count(v) FROM t WHERE v IS NOT NULL GROUP BY k").unwrap();
        let r = execute(&q, &c).unwrap();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.value(0, "count(v)").unwrap(), Value::Int(1));
    }

    #[test]
    fn numeric_exposure_is_binned() {
        // Grouping by a continuous column bins it into quantile intervals
        // (Section 2.1's numerical-exposure rule).
        let t = Table::new(vec![
            (
                "age",
                Column::from_f64((0..100).map(|i| i as f64).collect()),
            ),
            (
                "salary",
                Column::from_f64((0..100).map(|i| (i * 10) as f64).collect()),
            ),
        ])
        .unwrap();
        let mut c = Catalog::new();
        c.register("t", t);
        let q = parse("SELECT age, avg(salary) FROM t GROUP BY age").unwrap();
        let r = execute(&q, &c).unwrap();
        assert!(r.n_rows() <= 8, "expected ≤ 8 bins, got {}", r.n_rows());
        assert!(r.n_rows() >= 4);
        // Group labels are intervals.
        let label = r.value(0, "age").unwrap().to_string();
        assert!(label.starts_with('['), "{label}");
    }

    #[test]
    fn small_integer_exposure_not_binned() {
        let t = Table::new(vec![
            ("stars", Column::from_i64((0..60).map(|i| i % 5).collect())),
            ("v", Column::from_f64(vec![1.0; 60])),
        ])
        .unwrap();
        let mut c = Catalog::new();
        c.register("t", t);
        let q = parse("SELECT stars, avg(v) FROM t GROUP BY stars").unwrap();
        let r = execute(&q, &c).unwrap();
        assert_eq!(r.n_rows(), 5);
    }

    #[test]
    fn context_mask_counts() {
        let c = catalog();
        let q =
            parse("SELECT Country, avg(Salary) FROM SO WHERE Continent = 'eu' GROUP BY Country")
                .unwrap();
        let mask = context_mask(&q, c.get("SO").unwrap()).unwrap();
        assert_eq!(mask.count_ones(), 4);
        let q2 = parse("SELECT Country, avg(Salary) FROM SO GROUP BY Country").unwrap();
        let mask2 = context_mask(&q2, c.get("SO").unwrap()).unwrap();
        assert!(mask2.all());
    }

    #[test]
    fn null_comparisons_match_nothing() {
        let t = Table::new(vec![
            ("k", Column::from_strs(&["a", "b"])),
            ("v", Column::from_opt_f64(vec![None, Some(1.0)])),
        ])
        .unwrap();
        let mask = eval_predicate(
            &Predicate::Compare {
                column: "v".into(),
                op: CmpOp::Ne,
                value: Value::Float(99.0),
            },
            &t,
        )
        .unwrap();
        // NULL != 99 is false under our pragmatic semantics.
        assert_eq!(mask.ones(), vec![1]);
    }

    #[test]
    fn all_null_text_column_matches_nothing() {
        // An all-null text column has an empty dictionary.
        let t = Table::new(vec![
            ("k", Column::from_opt_strs(&[None::<&str>; 3])),
            ("v", Column::from_f64(vec![1.0, 2.0, 3.0])),
        ])
        .unwrap();
        for op in ["=", "<>"] {
            let q = parse(&format!(
                "SELECT k, avg(v) FROM t WHERE k {op} 'a' GROUP BY k"
            ))
            .unwrap();
            let mask = context_mask_on(
                &q,
                &t,
                &ThreadPool::new(nexus_runtime::Parallelism::Fixed(2)),
            )
            .unwrap();
            assert_eq!(mask.count_ones(), 0);
            let per_bit = eval_per_bit(q.where_clause.as_ref().unwrap(), &t).unwrap();
            assert_eq!(mask, per_bit);
        }
    }

    fn random_table(rng: &mut nexus_runtime::SplitMix64, n: usize) -> Table {
        let null = |rng: &mut nexus_runtime::SplitMix64| rng.next_below(9) == 0;
        let words = ["a", "b", "c", "dd"];
        let s: Vec<Option<&str>> = (0..n)
            .map(|_| (!null(rng)).then(|| words[rng.next_below(4) as usize]))
            .collect();
        let f: Vec<Option<f64>> = (0..n)
            .map(|_| match rng.next_below(12) {
                0 => None,
                1 => Some(f64::NAN),
                2 => Some(-0.0),
                k => Some(k as f64 - 6.0),
            })
            .collect();
        let i: Vec<Option<i64>> = (0..n)
            .map(|_| (!null(rng)).then(|| rng.next_below(7) as i64 - 3))
            .collect();
        let b: Vec<Option<bool>> = (0..n)
            .map(|_| (!null(rng)).then(|| rng.next_below(2) == 0))
            .collect();
        Table::new(vec![
            ("s", Column::from_opt_strs(&s)),
            ("f", Column::from_opt_f64(f)),
            ("i", Column::from_opt_i64(i)),
            ("b", Column::from_opt_bools(b)),
        ])
        .unwrap()
    }

    fn random_predicate(rng: &mut nexus_runtime::SplitMix64, depth: u32) -> Predicate {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let op = ops[rng.next_below(6) as usize];
        let column = ["s", "f", "i", "b"][rng.next_below(4) as usize].to_string();
        match rng.next_below(if depth == 0 { 2 } else { 5 }) {
            0 => Predicate::IsNull {
                column,
                negated: rng.next_below(2) == 0,
            },
            1 => {
                let value = match (column.as_str(), rng.next_below(10)) {
                    (_, 0) => Value::Null,
                    ("s", k) => Value::Str(["a", "b", "c", "zz"][k as usize % 4].into()),
                    ("b", k) => Value::Bool(k % 2 == 0),
                    (_, k) => Value::Float(k as f64 - 5.0),
                };
                Predicate::Compare { column, op, value }
            }
            2 => Predicate::Not(Box::new(random_predicate(rng, depth - 1))),
            3 => Predicate::And(
                Box::new(random_predicate(rng, depth - 1)),
                Box::new(random_predicate(rng, depth - 1)),
            ),
            _ => Predicate::Or(
                Box::new(random_predicate(rng, depth - 1)),
                Box::new(random_predicate(rng, depth - 1)),
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The word-wise, chunked evaluator equals the per-bit one on
        /// random predicates over every column type with nulls, on both
        /// sides of the chunk size and at every thread count.
        #[test]
        fn word_wise_masks_match_the_per_bit_oracle(
            seed in proptest::prelude::any::<u64>(),
            size in 0usize..4,
        ) {
            let mut rng = nexus_runtime::SplitMix64::new(seed);
            let n = [
                rng.next_below(200) as usize,
                ROW_CHUNK - 64 + rng.next_below(128) as usize,
                2 * ROW_CHUNK + rng.next_below(3000) as usize,
                64 * rng.next_below(4) as usize,
            ][size];
            let table = random_table(&mut rng, n);
            for _ in 0..4 {
                let pred = random_predicate(&mut rng, 3);
                let want = eval_per_bit(&pred, &table);
                for threads in [1, 2, 8] {
                    let pool = ThreadPool::new(nexus_runtime::Parallelism::Fixed(threads));
                    let got = eval_on(&pred, &table, &pool);
                    match (&want, &got) {
                        (Ok(w), Ok(g)) => proptest::prop_assert_eq!(w, g, "{:?} at {} threads", pred, threads),
                        (Err(_), Err(_)) => {}
                        _ => proptest::prop_assert!(false, "{:?}: {:?} vs {:?}", pred, want.is_ok(), got.is_ok()),
                    }
                }
            }
        }
    }
}

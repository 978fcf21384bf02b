//! Hash group-by and aggregation.

use std::collections::HashMap;

use crate::column::Column;
use crate::error::{Result, TableError};
use crate::table::Table;
use crate::value::Value;

/// An aggregate function over a numeric column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Row count (the aggregated column is still required for symmetry but
    /// nulls are not counted).
    Count,
    /// Sum of valid values.
    Sum,
    /// Mean of valid values.
    Avg,
    /// Minimum of valid values.
    Min,
    /// Maximum of valid values.
    Max,
}

impl AggFunc {
    /// SQL name of the function.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Parses a SQL function name, case-insensitively.
    pub fn parse(s: &str) -> Option<AggFunc> {
        match s.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" | "mean" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// Applies the function to the valid numeric values of `col` restricted
    /// to `rows`. Returns `Null` when no valid value exists (count is 0).
    pub fn apply(&self, col: &Column, rows: &[usize]) -> Value {
        if *self == AggFunc::Count {
            let n = rows.iter().filter(|&&r| !col.is_null(r)).count();
            return Value::Int(n as i64);
        }
        let mut n = 0usize;
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &r in rows {
            if let Some(v) = col.f64_at(r) {
                n += 1;
                sum += v;
                min = min.min(v);
                max = max.max(v);
            }
        }
        match self {
            AggFunc::Count => unreachable!("handled above"),
            AggFunc::Sum => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum)
                }
            }
            AggFunc::Avg => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggFunc::Min => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(min)
                }
            }
            AggFunc::Max => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(max)
                }
            }
        }
    }
}

/// The result of grouping a table by one or more key columns.
#[derive(Debug)]
pub struct Groups {
    /// Names of the grouping columns.
    pub key_names: Vec<String>,
    /// One representative row index per group (for key lookup).
    pub representatives: Vec<usize>,
    /// Row indices of each group, in first-appearance order.
    pub groups: Vec<Vec<usize>>,
}

impl Groups {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Groups `table` rows by the given key columns.
///
/// Rows where any key is null form their own "null" group per distinct code
/// combination? No — following SQL semantics, rows with a NULL key are
/// grouped together under the null key for that column.
pub fn group_by(table: &Table, keys: &[&str]) -> Result<Groups> {
    if keys.is_empty() {
        return Err(TableError::InvalidArgument(
            "group_by requires at least one key".into(),
        ));
    }
    // Encode each key column: code 0..card-1 for valid rows, `card` for null.
    let mut encoded: Vec<(Vec<u32>, u64)> = Vec::with_capacity(keys.len());
    for &k in keys {
        let col = table.column(k)?;
        let codes = col.category_codes().map_err(|_| {
            TableError::InvalidArgument(format!(
                "group_by key {k:?} is continuous; bin it before grouping"
            ))
        })?;
        let card = codes.cardinality as u64 + 1; // +1 slot for nulls
        let mut enc = codes.codes;
        if let Some(validity) = &codes.validity {
            for (i, e) in enc.iter_mut().enumerate() {
                if !validity.get(i) {
                    *e = codes.cardinality;
                }
            }
        }
        encoded.push((enc, card));
    }

    let n = table.n_rows();
    let mut map: HashMap<u64, usize> = HashMap::new();
    let mut representatives = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for row in 0..n {
        let mut key = 0u64;
        for (enc, card) in &encoded {
            key = key.wrapping_mul(*card).wrapping_add(enc[row] as u64);
        }
        match map.get(&key) {
            Some(&g) => groups[g].push(row),
            None => {
                map.insert(key, groups.len());
                representatives.push(row);
                groups.push(vec![row]);
            }
        }
    }
    Ok(Groups {
        key_names: keys.iter().map(|s| s.to_string()).collect(),
        representatives,
        groups,
    })
}

/// Groups and aggregates in one step, producing a result table with the key
/// columns followed by one column per `(func, column)` aggregate, named
/// `"{func}({column})"`.
pub fn aggregate(table: &Table, keys: &[&str], aggs: &[(AggFunc, &str)]) -> Result<Table> {
    let groups = group_by(table, keys)?;
    let mut out_cols: Vec<(String, Column)> = Vec::new();
    for &k in keys {
        let col = table.column(k)?;
        let vals: Vec<Value> = groups
            .representatives
            .iter()
            .map(|&r| col.value(r))
            .collect();
        out_cols.push((k.to_string(), Column::from_values(col.dtype(), &vals)?));
    }
    for &(func, name) in aggs {
        let col = table.column(name)?;
        if !col.dtype().is_numeric() && func != AggFunc::Count {
            return Err(TableError::TypeMismatch {
                column: name.to_string(),
                expected: "numeric",
                actual: col.dtype().name(),
            });
        }
        let vals: Vec<Value> = groups.groups.iter().map(|g| func.apply(col, g)).collect();
        let dtype = if func == AggFunc::Count {
            crate::value::DataType::Int64
        } else {
            crate::value::DataType::Float64
        };
        out_cols.push((
            format!("{}({})", func.name(), name),
            Column::from_values(dtype, &vals)?,
        ));
    }
    Table::new(out_cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_null_key_forms_one_null_group() {
        let t = Table::new(vec![
            ("k", Column::from_opt_strs(&[None::<&str>; 3])),
            ("v", Column::from_f64(vec![1.0, 2.0, 3.0])),
        ])
        .unwrap();
        let r = aggregate(&t, &["k"], &[(AggFunc::Sum, "v")]).unwrap();
        assert_eq!(r.n_rows(), 1);
        assert!(r.column("k").unwrap().is_null(0));
        assert_eq!(r.value(0, "sum(v)").unwrap(), Value::Float(6.0));
    }

    fn sample() -> Table {
        Table::new(vec![
            (
                "country",
                Column::from_strs(&["us", "fr", "us", "de", "fr", "us"]),
            ),
            (
                "salary",
                Column::from_opt_f64(vec![
                    Some(90.0),
                    Some(60.0),
                    Some(80.0),
                    Some(70.0),
                    None,
                    Some(100.0),
                ]),
            ),
            ("gender", Column::from_strs(&["m", "f", "f", "m", "f", "m"])),
        ])
        .unwrap()
    }

    #[test]
    fn group_by_single_key() {
        let t = sample();
        let g = group_by(&t, &["country"]).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.groups[0], vec![0, 2, 5]); // us
        assert_eq!(g.groups[1], vec![1, 4]); // fr
        assert_eq!(g.groups[2], vec![3]); // de
    }

    #[test]
    fn group_by_composite_key() {
        let t = sample();
        let g = group_by(&t, &["country", "gender"]).unwrap();
        // (us,m) (fr,f) (us,f) (de,m)
        assert_eq!(g.len(), 4);
        assert_eq!(g.groups[0], vec![0, 5]);
    }

    #[test]
    fn group_by_null_keys_group_together() {
        let t = Table::new(vec![(
            "k",
            Column::from_opt_strs(&[Some("a"), None, Some("a"), None]),
        )])
        .unwrap();
        let g = group_by(&t, &["k"]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.groups[1], vec![1, 3]);
    }

    #[test]
    fn aggregate_avg_skips_nulls() {
        let t = sample();
        let out = aggregate(&t, &["country"], &[(AggFunc::Avg, "salary")]).unwrap();
        assert_eq!(out.n_rows(), 3);
        assert_eq!(out.column_names(), vec!["country", "avg(salary)"]);
        assert_eq!(out.value(0, "avg(salary)").unwrap(), Value::Float(90.0)); // us: (90+80+100)/3
        assert_eq!(out.value(1, "avg(salary)").unwrap(), Value::Float(60.0)); // fr: 60 (null skipped)
    }

    #[test]
    fn aggregate_count_sum_min_max() {
        let t = sample();
        let out = aggregate(
            &t,
            &["country"],
            &[
                (AggFunc::Count, "salary"),
                (AggFunc::Sum, "salary"),
                (AggFunc::Min, "salary"),
                (AggFunc::Max, "salary"),
            ],
        )
        .unwrap();
        assert_eq!(out.value(0, "count(salary)").unwrap(), Value::Int(3));
        assert_eq!(out.value(0, "sum(salary)").unwrap(), Value::Float(270.0));
        assert_eq!(out.value(0, "min(salary)").unwrap(), Value::Float(80.0));
        assert_eq!(out.value(0, "max(salary)").unwrap(), Value::Float(100.0));
        // fr has one null; count is of valid values
        assert_eq!(out.value(1, "count(salary)").unwrap(), Value::Int(1));
    }

    #[test]
    fn aggregate_all_null_group_is_null() {
        let t = Table::new(vec![
            ("k", Column::from_strs(&["a", "b"])),
            ("v", Column::from_opt_f64(vec![Some(1.0), None])),
        ])
        .unwrap();
        let out = aggregate(&t, &["k"], &[(AggFunc::Avg, "v")]).unwrap();
        assert_eq!(out.value(1, "avg(v)").unwrap(), Value::Null);
    }

    #[test]
    fn aggregate_non_numeric_rejected() {
        let t = sample();
        assert!(aggregate(&t, &["country"], &[(AggFunc::Avg, "gender")]).is_err());
        // count over a string column is fine: it counts non-null rows
        let out = aggregate(&t, &["country"], &[(AggFunc::Count, "gender")]).unwrap();
        assert_eq!(out.value(0, "count(gender)").unwrap(), Value::Int(3));
    }

    #[test]
    fn agg_func_parse() {
        assert_eq!(AggFunc::parse("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("mean"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("Count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("median"), None);
    }

    #[test]
    fn empty_keys_rejected() {
        let t = sample();
        assert!(group_by(&t, &[]).is_err());
    }
}

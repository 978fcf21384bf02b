//! # nexus-table
//!
//! A compact columnar dataframe substrate for the NEXUS system (a
//! reproduction of SIGMOD 2023 *"On Explaining Confounding Bias"*).
//!
//! The crate provides:
//!
//! * typed [`Column`]s (Int64 / Float64 / dictionary-encoded Utf8 / Bool)
//!   with validity bitmaps for nulls,
//! * the relational [`Table`] with `select` / `filter` / `gather`,
//! * hash [`join()`]s and hash [`group_by()`]/[`aggregate()`],
//! * [`binning`] of continuous columns (equal-width / quantile), and
//! * CSV I/O with type inference.
//!
//! It is deliberately small: exactly the operations the paper's algorithms
//! need, with dense categorical [`Codes`] as the hand-off format to the
//! information-theoretic estimators in `nexus-info`.
//!
//! ## Example
//!
//! ```
//! use nexus_table::{Table, Column, AggFunc, aggregate};
//!
//! let t = Table::new(vec![
//!     ("country", Column::from_strs(&["us", "fr", "us"])),
//!     ("salary", Column::from_f64(vec![90.0, 60.0, 80.0])),
//! ]).unwrap();
//! let by_country = aggregate(&t, &["country"], &[(AggFunc::Avg, "salary")]).unwrap();
//! assert_eq!(by_country.n_rows(), 2);
//! ```

#![warn(missing_docs)]

pub mod binning;
pub mod bitmap;
pub mod column;
pub mod csv;
pub mod error;
pub mod fingerprint;
pub mod groupby;
pub mod join;
pub mod schema;
pub mod selection;
pub mod table;
pub mod value;

pub use binning::{
    assign_bin, bin_codes, bin_to_column, compute_edges, compute_edges_owned, BinStrategy, Binner,
};
pub use bitmap::Bitmap;
pub use column::{Codes, Column, ColumnData, DictArray, DictTally};
pub use csv::{read_csv, read_csv_path, write_csv, write_csv_path, CsvOptions};
pub use error::{Result, TableError};
pub use fingerprint::Fnv64;
pub use groupby::{aggregate, group_by, AggFunc, Groups};
pub use join::{join, JoinType};
pub use schema::{Field, Schema};
pub use selection::complete_case_mask;
pub use table::Table;
pub use value::{DataType, Value};

//! # nexus-query
//!
//! A SQL subset for the NEXUS system: aggregate group-by queries with WHERE
//! contexts and inner joins — the query class whose unexpected correlations
//! the paper explains.
//!
//! ```
//! use nexus_query::{parse, execute, Catalog};
//! use nexus_table::{Table, Column};
//!
//! let t = Table::new(vec![
//!     ("Country", Column::from_strs(&["us", "fr", "us"])),
//!     ("Salary", Column::from_f64(vec![90.0, 60.0, 80.0])),
//! ]).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.register("SO", t);
//!
//! let q = parse("SELECT Country, avg(Salary) FROM SO GROUP BY Country").unwrap();
//! assert_eq!(q.exposure(), Some("Country"));
//! let result = execute(&q, &catalog).unwrap();
//! assert_eq!(result.n_rows(), 2);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use ast::{AggregateQuery, CmpOp, JoinClause, Predicate, SelectItem};
pub use error::{QueryError, Result};
pub use exec::{context_mask, context_mask_on, eval_predicate, execute, Catalog};
pub use lexer::{tokenize, Token};
pub use parser::parse;

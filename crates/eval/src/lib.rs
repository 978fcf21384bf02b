//! # nexus-eval
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section 5) over the synthetic datasets. See
//! DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
//! paper-vs-measured results.
//!
//! The `nexus-eval` binary dispatches the experiments:
//!
//! ```text
//! nexus-eval table1|user-study|table4|fig3|fig4|fig5|fig6|ablations|\
//!            random-queries|missing-stats|multihop|pruning-stats|latency|all \
//!            [--scale small|default|paper]
//! ```

#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod scoring;
pub mod sweeps;

pub use ablations::{ablations, Ablation};
pub use experiments::{fig2, run_user_study, table1, table2, table3, table4, QueryResults};
pub use report::{render_series, TextTable};
pub use runner::{
    contexts_for, excluded_for, prepare, run_method, DatasetCache, MethodKind, MethodRun,
    QueryContext,
};
pub use scoring::{judge, JudgeOptions, JudgedScore};
pub use sweeps::{
    fig3, fig4, fig5, fig6, latency, missing_stats, multihop, pruning_stats,
    random_query_usefulness,
};

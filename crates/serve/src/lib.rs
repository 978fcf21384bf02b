//! # nexus-serve
//!
//! A std-only resident explanation server for NEXUS (reproduction of
//! SIGMOD 2023 *"On Explaining Confounding Bias"*).
//!
//! The interactive workload the paper targets — an analyst probing one
//! dataset with many aggregate queries — re-pays the same fixed costs on
//! every `nexus-cli` invocation: loading the table, linking entity
//! columns against the knowledge graph, and mining candidate attributes.
//! This crate keeps all of that resident in a long-lived process:
//!
//! * [`wire`] — **NEXUSRPC** v2, a length-prefixed, CRC-checked binary
//!   protocol with fully deterministic little-endian encoding that
//!   multiplexes many correlation-id'd requests over one connection with
//!   streamed progress, partial results, and cancellation. Pure
//!   [`wire::Envelope::encode`]/[`wire::Envelope::decode`] work on byte
//!   slices without any socket.
//! * [`Server`] — loads datasets once, mines KG extraction artifacts once
//!   ([`nexus_core::extract_column`]), schedules request pipelines (whose
//!   candidate scoring runs on the `nexus-runtime` scoped pool) behind a
//!   concurrency gate, and fronts them with a bounded LRU cache keyed by
//!   *(canonical query signature, dataset fingerprint, options
//!   fingerprint)*. Cache hits echo stored bytes verbatim: **byte-identical**
//!   to a cold run, with `scored_tasks == 0` because the pipeline never
//!   executes. Every socket is a v2 session served by one connection loop
//!   ([`Server::serve_connection`]); every frame without session state is
//!   answered by the in-process dispatcher [`Server::handle`], and the
//!   server's counters are named metrics ([`Server::metric`],
//!   [`wire::Frame::MetricsRequest`]).
//! * [`net`] — deadline-governed reads (idle timeout, per-frame budget)
//!   over any [`DeadlineStream`]; [`faults`] — seeded fault injection
//!   over in-memory pipes, for the governance tests.
//! * [`Session`] — the blocking client over Unix or TCP loopback streams:
//!   it negotiates v2 (retrying `Busy` rejections under a
//!   [`RetryPolicy`]) and pipelines typed [`ExplainCall`] tickets over one
//!   connection with streamed partials and cancellation.
//!
//! ## In-process example
//!
//! ```
//! use nexus_serve::{Server, ServerOptions};
//! use nexus_serve::wire::{ExplainRequestWire, Frame};
//! # use nexus_kg::KnowledgeGraph;
//! # use nexus_table::{Column, Table};
//! # let mut kg = KnowledgeGraph::new();
//! # let mut countries = Vec::new();
//! # let mut salaries = Vec::new();
//! # for c in 0..9 {
//! #     let name = format!("C{c}");
//! #     let id = kg.add_entity(name.clone(), "Country");
//! #     kg.set_literal(id, "hdi", (c % 3) as f64);
//! #     for i in 0..30 {
//! #         countries.push(name.clone());
//! #         salaries.push(10.0 * (c % 3) as f64 + (i % 2) as f64 * 0.1);
//! #     }
//! # }
//! # let table = Table::new(vec![
//! #     ("Country", Column::from_strs(&countries)),
//! #     ("Salary", Column::from_f64(salaries)),
//! # ]).unwrap();
//! let server = Server::new(ServerOptions::default());
//! server.add_dataset("salaries", table, kg, vec!["Country".into()]).unwrap();
//! let request = Frame::Explain(ExplainRequestWire {
//!     dataset: "salaries".into(),
//!     sql: "SELECT Country, avg(Salary) FROM t GROUP BY Country".into(),
//!     overrides: Default::default(),
//! });
//! let cold = server.handle(request.clone());
//! let hot = server.handle(request);
//! let (Frame::Explanation(cold), Frame::Explanation(hot)) = (cold, hot) else {
//!     panic!("expected explanations");
//! };
//! assert_eq!(cold.explanation, hot.explanation); // byte-identical
//! assert!(hot.stats.cache_hit);
//! assert_eq!(hot.stats.scored_tasks, 0); // pipeline skipped entirely
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod faults;
pub mod net;
mod registry;
pub mod server;
pub mod wire;

pub use cache::LruCache;
pub use client::{
    Client, ClientError, Endpoint, ExplainCall, ExplainResponse, RetryPolicy, Session, Ticket,
};
pub use faults::{pipe, Fault, FaultPlan, FaultyStream, PipeStream};
pub use net::{deadline_tick, read_envelope_deadline, DeadlineStream, ReadError};
pub use server::{explanation_to_wire, ServeError, Server, ServerOptions};
pub use wire::{Frame, WireError};

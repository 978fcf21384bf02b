//! # nexus-kg
//!
//! Knowledge-graph substrate for the NEXUS system: an in-memory DBpedia-like
//! property graph ([`KnowledgeGraph`]), a named-entity-disambiguation linker
//! ([`EntityLinker`]) with realistic failure modes (alias mismatch,
//! ambiguity), and multi-hop property [`extract()`] walks into the universal
//! relation of candidate confounding attributes (Section 3.1 of the paper).
//!
//! ## Example
//!
//! ```
//! use nexus_kg::{KnowledgeGraph, EntityLinker, extract, ExtractOptions};
//! use nexus_runtime::ThreadPool;
//! use nexus_table::Column;
//!
//! let mut kg = KnowledgeGraph::new();
//! let fr = kg.add_entity("France", "Country");
//! kg.set_literal(fr, "hdi", 0.903);
//!
//! let linker = EntityLinker::new(&kg);
//! let col = Column::from_strs(&["France", "France", "Narnia"]);
//! // Each dictionary entry is resolved once; row counts give the stats.
//! let links = linker.link_dictionary(&col, &ThreadPool::default());
//! assert_eq!(links.stats.linked, 2);
//!
//! let attrs = extract(&kg, &links.entities(), &ExtractOptions::default());
//! assert_eq!(attrs.entity_ids, vec![fr]);
//! assert_eq!(attrs.attribute_names(), vec!["hdi"]);
//! ```

#![warn(missing_docs)]

pub mod extract;
pub mod graph;
pub mod io;
pub mod ned;

pub use extract::{extract, EntityAttributes, ExtractOptions, OneToManyAgg};
pub use graph::{Entity, EntityId, KnowledgeGraph, PropId, PropertyValue};
pub use io::{read_kg, read_kg_path, write_kg, write_kg_path, KgIoError};
pub use ned::{normalize, DictionaryLinks, EntityLinker, LinkOutcome, LinkStats};

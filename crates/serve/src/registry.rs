//! The multi-dataset registry: named datasets, lazy materialization, and
//! a byte-budgeted LRU over resident artifacts.
//!
//! A [`DatasetRegistry`] maps names to [`DatasetSpec`]s — *how to obtain*
//! a dataset (an in-memory table + KG, or paths to an NXCOL store file
//! and a KG TSV). Registration is cheap: artifacts (the table, its
//! knowledge graph, and the per-column KG extractions mined by
//! [`nexus_core::extract_column`]) are materialized lazily by
//! [`DatasetRegistry::ensure_resident`] on the first request that needs
//! them, and are dropped again either explicitly
//! ([`DatasetRegistry::evict`]) or by the LRU byte budget.
//!
//! The budget bounds the NXCOL-encoded size of all resident tables
//! (`max_resident_bytes`; 0 = unbounded). When a materialization pushes
//! the gauge over budget, least-recently-used resident datasets are
//! dropped — never the one just requested — and each drop increments the
//! `dataset_evictions` counter. Every lifecycle transition moves a
//! counter ([`DatasetRegistry::loads`], [`DatasetRegistry::evictions`],
//! [`DatasetRegistry::extraction_builds`]), so tests assert warm-load and
//! eviction behaviour on counters rather than wall-clock timing. In
//! particular `extraction_builds` staying flat across a request is the
//! proof that the KG mining was skipped, not merely fast.
//!
//! The registry holds the server's sub-query [`MemoStore`], and each
//! column's extraction is memoized in it under [`MemoKind::Extraction`],
//! keyed by (table fingerprint × KG fingerprint, options fingerprint,
//! column). A re-materialization after an LRU eviction then hits the memo
//! instead of re-mining the KG — `extraction_builds` stays flat on a memo
//! hit, so its "mining was skipped" semantics survive memoization; only
//! genuine [`extract_column`] runs move it.
//!
//! Evicting a [`DatasetSource::Memory`] dataset drops its extraction
//! artifacts but not the backing table (the spec keeps it so the dataset
//! can re-materialize); evicting a [`DatasetSource::Store`] dataset frees
//! everything — the next request re-reads the NXCOL file.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nexus_core::memo::{Claim, WaitOutcome};
use nexus_core::{
    extract_column, ColumnExtraction, CoreError, MemoKey, MemoKind, MemoStore, NexusOptions,
};
use nexus_kg::KnowledgeGraph;
use nexus_table::Table;

use crate::wire::DatasetEntryWire;

/// Registry failures. Per-request failures travel to clients as
/// [`crate::wire::error_code`] error frames.
#[derive(Debug)]
pub(crate) enum RegistryError {
    /// No dataset registered under the name.
    Unknown(String),
    /// The store file or KG TSV could not be loaded (I/O, NXCOL
    /// validation, or KG parse failure).
    Load(String),
    /// KG extraction failed while materializing.
    Core(CoreError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Unknown(name) => write!(f, "no dataset named {name:?}"),
            RegistryError::Load(msg) => write!(f, "dataset load failed: {msg}"),
            RegistryError::Core(e) => write!(f, "extraction failed: {e}"),
        }
    }
}

/// Where a dataset's bytes come from when it materializes.
pub(crate) enum DatasetSource {
    /// Handed to the server in memory ([`crate::Server::add_dataset`]).
    /// The spec keeps the table and KG alive, so re-materialization after
    /// an eviction only re-mines the extractions.
    Memory {
        /// The queried table.
        table: Arc<Table>,
        /// Its knowledge source.
        kg: Arc<KnowledgeGraph>,
    },
    /// On disk: an NXCOL table file and an optional KG TSV, re-read on
    /// every materialization.
    Store {
        /// Path of the NXCOL file.
        table_path: PathBuf,
        /// Path of the KG TSV (`None` = empty knowledge graph).
        kg_path: Option<PathBuf>,
    },
}

/// How to obtain a dataset: its source plus the columns to mine KG
/// candidates from.
pub(crate) struct DatasetSpec {
    pub source: DatasetSource,
    pub extraction_columns: Vec<String>,
}

/// One materialized dataset: the table, its knowledge source, and the
/// query-independent extraction artifacts every request reuses.
pub(crate) struct DatasetState {
    pub table: Arc<Table>,
    pub kg: Arc<KnowledgeGraph>,
    /// Query-independent KG extraction artifacts, reused by every request.
    /// Arc'd so memoized re-materializations share them instead of
    /// re-mining the KG.
    pub extractions: Vec<Arc<ColumnExtraction>>,
    /// Content fingerprint of (table, kg, extraction columns) — the
    /// dataset component of every cache key, identical whether the bytes
    /// arrived in memory or from an NXCOL file.
    pub fingerprint: u64,
    /// NXCOL-encoded size of the table: the unit of the LRU byte budget.
    pub store_bytes: u64,
}

struct Entry {
    spec: Arc<DatasetSpec>,
    resident: Option<Arc<DatasetState>>,
    /// LRU stamp from the registry clock; larger = more recently used.
    last_used: u64,
    /// Fingerprint of the last materialization (0 = never loaded), so the
    /// listing stays informative across evictions.
    last_fingerprint: u64,
}

/// Named datasets with lazy materialization and a byte-budgeted LRU (see
/// the module docs).
pub(crate) struct DatasetRegistry {
    entries: Mutex<HashMap<String, Entry>>,
    /// Budget over the NXCOL-encoded bytes of resident tables; 0 =
    /// unbounded.
    max_resident_bytes: u64,
    /// The server's sub-query memo, which holds the column extractions.
    memo: Arc<MemoStore>,
    /// Logical LRU clock — counter-driven, never wall-clock.
    clock: AtomicU64,
    loads: AtomicU64,
    evictions: AtomicU64,
    extraction_builds: AtomicU64,
}

impl DatasetRegistry {
    pub(crate) fn new(max_resident_bytes: u64, memo: Arc<MemoStore>) -> DatasetRegistry {
        DatasetRegistry {
            entries: Mutex::new(HashMap::new()),
            max_resident_bytes,
            memo,
            clock: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            extraction_builds: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Registers (or replaces) a dataset without materializing anything.
    /// Replacing a resident dataset drops its artifacts (counted as an
    /// eviction: the resident set shrank).
    pub(crate) fn register(&self, name: String, spec: DatasetSpec) {
        let stamp = self.tick();
        let mut entries = self.entries.lock().expect("registry poisoned");
        let old = entries.insert(
            name,
            Entry {
                spec: Arc::new(spec),
                resident: None,
                last_used: stamp,
                last_fingerprint: 0,
            },
        );
        if old.and_then(|e| e.resident).is_some() {
            self.evictions.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Returns the materialized artifacts for `name`, loading them if the
    /// dataset is registered but not resident. A warm call moves no
    /// counter except the LRU clock. Per-column extractions are memoized
    /// (see the module docs).
    pub(crate) fn ensure_resident(
        &self,
        name: &str,
        options: &NexusOptions,
    ) -> Result<Arc<DatasetState>, RegistryError> {
        let spec = {
            let mut entries = self.entries.lock().expect("registry poisoned");
            let Some(entry) = entries.get_mut(name) else {
                return Err(RegistryError::Unknown(name.to_string()));
            };
            if let Some(state) = &entry.resident {
                entry.last_used = self.tick();
                return Ok(Arc::clone(state));
            }
            Arc::clone(&entry.spec)
        };

        // Materialize outside the lock: loads and extraction mining are
        // the slow path, and other datasets' requests must not queue
        // behind them.
        let state = Arc::new(self.materialize(&spec, options)?);
        self.loads.fetch_add(1, Ordering::SeqCst);

        let stamp = self.tick();
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(entry) = entries.get_mut(name) {
            // Install only if the registration was not replaced while we
            // loaded; a stale spec's artifacts still serve this request.
            if Arc::ptr_eq(&entry.spec, &spec) {
                entry.resident = Some(Arc::clone(&state));
                entry.last_used = stamp;
                entry.last_fingerprint = state.fingerprint;
                self.enforce_budget(&mut entries, name);
            }
        }
        Ok(state)
    }

    fn materialize(
        &self,
        spec: &DatasetSpec,
        options: &NexusOptions,
    ) -> Result<DatasetState, RegistryError> {
        let (table, kg) = match &spec.source {
            DatasetSource::Memory { table, kg } => (Arc::clone(table), Arc::clone(kg)),
            DatasetSource::Store {
                table_path,
                kg_path,
            } => {
                let table = nexus_store::read_table_path(table_path)
                    .map_err(|e| RegistryError::Load(format!("{}: {e}", table_path.display())))?;
                let kg = match kg_path {
                    Some(path) => nexus_kg::read_kg_path(path)
                        .map_err(|e| RegistryError::Load(format!("{}: {e}", path.display())))?,
                    None => KnowledgeGraph::new(),
                };
                (Arc::new(table), Arc::new(kg))
            }
        };
        // Each content fingerprint hashes the whole table or graph, so
        // compute it once for both keys below.
        let (table_fp, kg_fp) = (table.fingerprint(), kg.fingerprint());
        // Extraction depends only on the table column, the KG, and the
        // extraction options — exactly what this key hashes. The per-spec
        // dataset fingerprint below also covers the column *list*, which
        // the per-column artifact must not depend on.
        let dataset_fp = {
            let mut h = nexus_table::Fnv64::new();
            h.write_u64(table_fp);
            h.write_u64(kg_fp);
            h.finish()
        };
        let mut extractions = Vec::with_capacity(spec.extraction_columns.len());
        for column in &spec.extraction_columns {
            let key = MemoKey::new(
                MemoKind::Extraction,
                dataset_fp,
                options.fingerprint(),
                0,
                column.as_str(),
            );
            extractions.push(self.memoized_extraction(&key, &table, &kg, column, options)?);
        }
        let fingerprint = {
            let mut h = nexus_table::Fnv64::new();
            h.write_u64(table_fp);
            h.write_u64(kg_fp);
            h.write_u64(spec.extraction_columns.len() as u64);
            for c in &spec.extraction_columns {
                h.write_str(c);
            }
            h.finish()
        };
        let store_bytes = nexus_store::encode_table(&table).len() as u64;
        Ok(DatasetState {
            table,
            kg,
            extractions,
            fingerprint,
            store_bytes,
        })
    }

    /// Single-flight memoized [`extract_column`]: a hit returns the
    /// shared artifact without touching `extraction_builds`; a build
    /// mines the column, bumps the counter, and publishes. An extraction
    /// error drops the ticket, so a concurrent waiter is elected builder
    /// and observes the error itself rather than hanging.
    fn memoized_extraction(
        &self,
        key: &MemoKey,
        table: &Table,
        kg: &KnowledgeGraph,
        column: &str,
        options: &NexusOptions,
    ) -> Result<Arc<ColumnExtraction>, RegistryError> {
        let mut claim = self.memo.claim(key);
        loop {
            match claim {
                Claim::Hit(value) => {
                    return Ok(value
                        .downcast::<ColumnExtraction>()
                        .expect("extraction memo entries hold ColumnExtraction"));
                }
                Claim::Build(ticket) => {
                    let ext = Arc::new(
                        extract_column(table, kg, column, options).map_err(RegistryError::Core)?,
                    );
                    self.extraction_builds.fetch_add(1, Ordering::SeqCst);
                    let bytes = extraction_approx_bytes(&ext);
                    ticket.publish(ext.clone(), bytes);
                    return Ok(ext);
                }
                Claim::Wait => match self.memo.wait(key) {
                    WaitOutcome::Ready(value) => {
                        return Ok(value
                            .downcast::<ColumnExtraction>()
                            .expect("extraction memo entries hold ColumnExtraction"));
                    }
                    WaitOutcome::Build(ticket) => claim = Claim::Build(ticket),
                },
            }
        }
    }

    /// Drops least-recently-used resident datasets (never `keep`) until
    /// the resident byte gauge fits the budget.
    fn enforce_budget(&self, entries: &mut HashMap<String, Entry>, keep: &str) {
        if self.max_resident_bytes == 0 {
            return;
        }
        loop {
            let total: u64 = entries
                .values()
                .filter_map(|e| e.resident.as_ref())
                .map(|s| s.store_bytes)
                .sum();
            if total <= self.max_resident_bytes {
                return;
            }
            let victim = entries
                .iter()
                .filter(|(name, e)| e.resident.is_some() && name.as_str() != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else {
                // Only `keep` remains resident; an over-budget single
                // dataset still serves (the budget bounds the *set*).
                return;
            };
            if let Some(entry) = entries.get_mut(&victim) {
                entry.resident = None;
                self.evictions.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Drops a dataset's resident artifacts, keeping the registration.
    /// Returns whether artifacts were actually resident.
    pub(crate) fn evict(&self, name: &str) -> Result<bool, RegistryError> {
        let mut entries = self.entries.lock().expect("registry poisoned");
        let Some(entry) = entries.get_mut(name) else {
            return Err(RegistryError::Unknown(name.to_string()));
        };
        let was_resident = entry.resident.take().is_some();
        if was_resident {
            self.evictions.fetch_add(1, Ordering::SeqCst);
        }
        Ok(was_resident)
    }

    /// Registered names, sorted.
    pub(crate) fn names(&self) -> Vec<String> {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut names: Vec<String> = entries.keys().cloned().collect();
        names.sort();
        names
    }

    /// The registry listing, sorted by name.
    pub(crate) fn list(&self) -> Vec<DatasetEntryWire> {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut rows: Vec<DatasetEntryWire> = entries
            .iter()
            .map(|(name, e)| match &e.resident {
                Some(s) => DatasetEntryWire {
                    name: name.clone(),
                    resident: true,
                    rows: s.table.n_rows() as u64,
                    store_bytes: s.store_bytes,
                    fingerprint: s.fingerprint,
                },
                None => DatasetEntryWire {
                    name: name.clone(),
                    resident: false,
                    rows: 0,
                    store_bytes: 0,
                    fingerprint: e.last_fingerprint,
                },
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Extraction columns of a registered dataset.
    pub(crate) fn extraction_columns(&self, name: &str) -> Option<Vec<String>> {
        let entries = self.entries.lock().expect("registry poisoned");
        entries.get(name).map(|e| e.spec.extraction_columns.clone())
    }

    /// Entity count of a dataset's KG, if its artifacts are resident.
    pub(crate) fn kg_entities(&self, name: &str) -> Option<usize> {
        let entries = self.entries.lock().expect("registry poisoned");
        entries
            .get(name)
            .and_then(|e| e.resident.as_ref())
            .map(|s| s.kg.n_entities())
    }

    /// Registered datasets (resident or not).
    pub(crate) fn registered(&self) -> u64 {
        self.entries.lock().expect("registry poisoned").len() as u64
    }

    /// Datasets whose artifacts are currently materialized.
    pub(crate) fn resident_count(&self) -> u64 {
        let entries = self.entries.lock().expect("registry poisoned");
        entries.values().filter(|e| e.resident.is_some()).count() as u64
    }

    /// NXCOL-encoded bytes of all resident tables — the budgeted gauge.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let entries = self.entries.lock().expect("registry poisoned");
        entries
            .values()
            .filter_map(|e| e.resident.as_ref())
            .map(|s| s.store_bytes)
            .sum()
    }

    /// Cumulative materializations (cold loads + reloads after eviction).
    pub(crate) fn loads(&self) -> u64 {
        self.loads.load(Ordering::SeqCst)
    }

    /// Cumulative evictions (budget, explicit, and replacement drops).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::SeqCst)
    }

    /// Cumulative per-column KG extraction builds.
    pub(crate) fn extraction_builds(&self) -> u64 {
        self.extraction_builds.load(Ordering::SeqCst)
    }

    /// Fingerprint over the sorted resident `(name, fingerprint)` pairs:
    /// changes exactly when the resident set (or a member's content)
    /// does; 0 when nothing is resident.
    pub(crate) fn combined_fingerprint(&self) -> u64 {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut resident: Vec<(&String, u64)> = entries
            .iter()
            .filter_map(|(name, e)| e.resident.as_ref().map(|s| (name, s.fingerprint)))
            .collect();
        if resident.is_empty() {
            return 0;
        }
        resident.sort();
        let mut h = nexus_table::Fnv64::new();
        h.write_u64(resident.len() as u64);
        for (name, fp) in resident {
            h.write_str(name);
            h.write_u64(fp);
        }
        h.finish()
    }
}

/// Rough heap footprint of one extraction artifact, charged against the
/// memo byte budget. Counts the row codes, validity words, and per
/// candidate the entity-level code map and weights; small fixed terms
/// round up structural overhead.
fn extraction_approx_bytes(ext: &ColumnExtraction) -> u64 {
    let codes = ext.codes.codes.len() * 4
        + ext
            .codes
            .validity
            .as_ref()
            .map_or(0, |v| v.words().len() * 8);
    let candidates: usize = ext
        .candidates
        .iter()
        .map(|c| {
            let repr = match &c.repr {
                nexus_core::CandidateRepr::RowLevel(codes) => codes.codes.len() * 4,
                nexus_core::CandidateRepr::EntityLevel { map, .. } => map.len() * 4,
            };
            c.name.len() + repr + c.entity_weights.as_ref().map_or(0, |w| w.len() * 8) + 96
        })
        .sum();
    (codes + candidates + ext.column.len() + 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_table::Column;

    fn fresh_memo() -> Arc<MemoStore> {
        Arc::new(MemoStore::new(0))
    }

    fn memory_spec(rows: i64) -> DatasetSpec {
        let table =
            Table::new(vec![("x", Column::from_i64((0..rows).collect::<Vec<_>>()))]).unwrap();
        DatasetSpec {
            source: DatasetSource::Memory {
                table: Arc::new(table),
                kg: Arc::new(KnowledgeGraph::new()),
            },
            extraction_columns: vec![],
        }
    }

    #[test]
    fn registration_is_lazy_and_loads_once() {
        let reg = DatasetRegistry::new(0, fresh_memo());
        reg.register("a".into(), memory_spec(10));
        assert_eq!(
            (reg.registered(), reg.resident_count(), reg.loads()),
            (1, 0, 0)
        );
        assert_eq!(reg.combined_fingerprint(), 0);

        let opts = NexusOptions::default();
        let first = reg.ensure_resident("a", &opts).unwrap();
        assert_eq!((reg.resident_count(), reg.loads()), (1, 1));
        let warm = reg.ensure_resident("a", &opts).unwrap();
        assert!(
            Arc::ptr_eq(&first, &warm),
            "warm load returns the same artifacts"
        );
        assert_eq!(reg.loads(), 1, "warm load must not re-materialize");
        assert_ne!(reg.combined_fingerprint(), 0);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let opts = NexusOptions::default();
        let probe = DatasetRegistry::new(0, fresh_memo());
        probe.register("p".into(), memory_spec(64));
        let one = probe.ensure_resident("p", &opts).unwrap().store_bytes;

        // Budget fits one dataset but not two.
        let reg = DatasetRegistry::new(one + one / 2, fresh_memo());
        reg.register("a".into(), memory_spec(64));
        reg.register("b".into(), memory_spec(64));
        reg.ensure_resident("a", &opts).unwrap();
        reg.ensure_resident("b", &opts).unwrap();
        assert_eq!(
            (reg.resident_count(), reg.evictions()),
            (1, 1),
            "a evicted for b"
        );
        assert_eq!(reg.resident_bytes(), one);
        assert!(reg.kg_entities("a").is_none(), "a is no longer resident");
        assert!(reg.kg_entities("b").is_some());

        // Re-requesting the victim re-materializes (and evicts b).
        reg.ensure_resident("a", &opts).unwrap();
        assert_eq!((reg.loads(), reg.evictions()), (3, 2));
        let listed = reg.list();
        assert_eq!(listed.len(), 2);
        assert!(listed[0].resident && listed[0].name == "a");
        assert!(!listed[1].resident && listed[1].name == "b");
        assert_ne!(
            listed[1].fingerprint, 0,
            "evicted entry remembers its fingerprint"
        );
    }

    #[test]
    fn memoized_extraction_survives_eviction_without_rebuilding() {
        let table = Arc::new(
            Table::new(vec![(
                "x",
                Column::from_opt_strs(&[Some("a"), Some("b"), Some("a"), None]),
            )])
            .unwrap(),
        );
        let spec = || DatasetSpec {
            source: DatasetSource::Memory {
                table: Arc::clone(&table),
                kg: Arc::new(KnowledgeGraph::new()),
            },
            extraction_columns: vec!["x".into()],
        };
        let opts = NexusOptions::default();
        let reg = DatasetRegistry::new(0, fresh_memo());
        reg.register("d".into(), spec());

        let cold = reg.ensure_resident("d", &opts).unwrap();
        assert_eq!(reg.extraction_builds(), 1);
        let mined = Arc::clone(&cold.extractions[0]);

        assert!(reg.evict("d").unwrap());
        let warm = reg.ensure_resident("d", &opts).unwrap();
        assert_eq!(reg.loads(), 2, "eviction forces a re-materialization");
        assert_eq!(
            reg.extraction_builds(),
            1,
            "memo hit must skip the KG re-mining"
        );
        assert!(
            Arc::ptr_eq(&mined, &warm.extractions[0]),
            "the memoized artifact is shared, not recomputed"
        );

        // A registry over a fresh memo mines the column again.
        let fresh = DatasetRegistry::new(0, fresh_memo());
        fresh.register("d".into(), spec());
        fresh.ensure_resident("d", &opts).unwrap();
        assert_eq!(fresh.extraction_builds(), 1);
    }

    #[test]
    fn unknown_names_are_typed() {
        let reg = DatasetRegistry::new(0, fresh_memo());
        assert!(matches!(
            reg.ensure_resident("ghost", &NexusOptions::default()),
            Err(RegistryError::Unknown(_))
        ));
        assert!(matches!(reg.evict("ghost"), Err(RegistryError::Unknown(_))));
    }

    #[test]
    fn store_load_failures_are_typed() {
        let reg = DatasetRegistry::new(0, fresh_memo());
        reg.register(
            "bad".into(),
            DatasetSpec {
                source: DatasetSource::Store {
                    table_path: PathBuf::from("/nonexistent/claims.nxcol"),
                    kg_path: None,
                },
                extraction_columns: vec![],
            },
        );
        assert!(matches!(
            reg.ensure_resident("bad", &NexusOptions::default()),
            Err(RegistryError::Load(_))
        ));
        assert_eq!(reg.loads(), 0, "a failed load is not a load");
    }
}

//! Integration tests for the multi-dataset registry: explanations served
//! from a packed NXCOL store are byte-identical to in-memory serving,
//! warm requests skip re-ingest and KG re-extraction (asserted on
//! counters, never wall-clock), the byte-budget LRU evicts and reloads
//! transparently, and corrupted store files are refused with typed
//! errors.

use std::path::PathBuf;

use nexus_datagen::{load, queries_for, DatasetKind, Scale};
use nexus_serve::wire::{error_code, EvictDatasetWire, ExplainRequestWire, Frame, LoadDatasetWire};
use nexus_serve::{ServeError, Server, ServerOptions};

const KIND: DatasetKind = DatasetKind::Covid;

/// A registered metric's current value.
fn metric(srv: &Server, name: &str) -> u64 {
    srv.metric(name).expect("registered metric")
}

/// A scratch directory holding the packed Covid sample (NXCOL + KG TSV).
/// Generation is deterministic, so every `Packed` holds the same bytes.
struct Packed {
    dir: PathBuf,
    table_path: PathBuf,
    kg_path: PathBuf,
    extraction_columns: Vec<String>,
}

impl Packed {
    fn create(tag: &str) -> Packed {
        let dir =
            std::env::temp_dir().join(format!("nexus-serve-registry-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = load(KIND, Scale::Small);
        let table_path = dir.join("covid.nxcol");
        let kg_path = dir.join("covid-kg.tsv");
        nexus_store::write_table_path(&d.table, &table_path).unwrap();
        nexus_kg::write_kg_path(&d.kg, &kg_path).unwrap();
        Packed {
            dir,
            table_path,
            kg_path,
            extraction_columns: d.extraction_columns,
        }
    }

    fn register(&self, server: &Server, name: &str) -> Result<(), ServeError> {
        server.add_dataset_from_store(
            name,
            &self.table_path,
            Some(self.kg_path.clone()),
            self.extraction_columns.clone(),
        )
    }
}

impl Drop for Packed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn explain(server: &Server, dataset: &str, sql: &str) -> Vec<u8> {
    let reply = server.handle(Frame::Explain(ExplainRequestWire {
        dataset: dataset.into(),
        sql: sql.into(),
        overrides: Default::default(),
    }));
    match reply {
        Frame::Explanation(r) => r.explanation,
        other => panic!("expected an explanation, got {other:?}"),
    }
}

#[test]
fn store_backed_serving_is_byte_identical_and_warm() {
    let packed = Packed::create("identity");
    let sql = queries_for(KIND)[0].sql;

    // Reference: classic in-memory registration.
    let mem = Server::new(ServerOptions::default());
    let d = load(KIND, Scale::Small);
    mem.add_dataset("covid", d.table, d.kg, d.extraction_columns)
        .unwrap();
    let reference = explain(&mem, "covid", sql);

    // Store-backed: registration is lazy — nothing materialized yet.
    let srv = Server::new(ServerOptions::default());
    packed.register(&srv, "covid").unwrap();
    assert_eq!(
        (
            metric(&srv, "registry.datasets.registered"),
            metric(&srv, "registry.datasets.resident"),
            metric(&srv, "registry.datasets.loaded"),
            metric(&srv, "registry.extraction.builds")
        ),
        (1, 0, 0, 0),
        "registration must not materialize"
    );
    assert_eq!(metric(&srv, "registry.fingerprint"), 0);
    assert!(srv.dataset_kg_entities("covid").is_none());

    // First request materializes once and serves the exact same bytes the
    // in-memory server produced.
    let cold = explain(&srv, "covid", sql);
    assert_eq!(
        cold, reference,
        "store-backed explanation must be byte-identical to in-memory serving"
    );
    // One extraction build per configured column.
    let n_cols = packed.extraction_columns.len() as u64;
    assert!(n_cols > 0);
    assert_eq!(
        (
            metric(&srv, "registry.datasets.resident"),
            metric(&srv, "registry.datasets.loaded"),
            metric(&srv, "registry.extraction.builds")
        ),
        (1, 1, n_cols)
    );
    assert!(metric(&srv, "registry.store.bytes") > 0);
    assert_ne!(metric(&srv, "registry.fingerprint"), 0);
    assert_eq!(
        srv.dataset_kg_entities("covid"),
        mem.dataset_kg_entities("covid"),
        "the KG must survive the TSV round-trip"
    );

    // A different query misses the result cache but finds the dataset
    // warm: no re-ingest, no KG re-extraction.
    let other = explain(&srv, "covid", queries_for(KIND)[1].sql);
    assert!(!other.is_empty());
    assert_eq!(
        (
            metric(&srv, "registry.datasets.loaded"),
            metric(&srv, "registry.extraction.builds")
        ),
        (1, n_cols),
        "a warm request must not re-materialize"
    );
    assert_eq!(metric(&srv, "serve.cache.misses"), 2);
}

#[test]
fn evicted_datasets_reload_transparently() {
    let packed = Packed::create("evict");
    let sql = queries_for(KIND)[0].sql;
    let srv = Server::new(ServerOptions::default());
    packed.register(&srv, "covid").unwrap();
    let first = explain(&srv, "covid", sql);

    // Explicit eviction drops the artifacts but keeps the registration.
    let ack = srv.handle(Frame::EvictDataset(EvictDatasetWire {
        name: "covid".into(),
    }));
    let Frame::DatasetAck(ack) = ack else {
        panic!("expected DatasetAck, got {ack:?}");
    };
    assert!(!ack.resident);
    assert_eq!(
        (
            metric(&srv, "registry.datasets.registered"),
            metric(&srv, "registry.datasets.resident"),
            metric(&srv, "registry.datasets.evicted"),
            metric(&srv, "registry.store.bytes")
        ),
        (1, 0, 1, 0)
    );
    assert_eq!(metric(&srv, "registry.fingerprint"), 0);

    // The listing still knows the dataset (and its last fingerprint).
    let Frame::DatasetList(list) = srv.handle(Frame::ListDatasets) else {
        panic!("expected DatasetList");
    };
    assert_eq!(list.datasets.len(), 1);
    assert_eq!(list.datasets[0].name, "covid");
    assert!(!list.datasets[0].resident);
    assert_ne!(list.datasets[0].fingerprint, 0);

    // The next request re-materializes and serves identical bytes. The
    // result cache is keyed by the dataset's content fingerprint, which
    // survives eviction — so this is a cache hit.
    let again = explain(&srv, "covid", sql);
    assert_eq!(again, first);
    let n_cols = packed.extraction_columns.len() as u64;
    assert_eq!(
        (
            metric(&srv, "registry.datasets.loaded"),
            metric(&srv, "registry.extraction.builds")
        ),
        (2, n_cols),
        "the reload must hit the extraction memo instead of re-mining"
    );
    assert_eq!(
        metric(&srv, "serve.cache.hits"),
        1,
        "content fingerprint must survive eviction"
    );

    // Evicting a name that was never registered is a typed error.
    let Frame::Error(e) = srv.handle(Frame::EvictDataset(EvictDatasetWire {
        name: "ghost".into(),
    })) else {
        panic!("expected an error frame");
    };
    assert_eq!(e.code, error_code::UNKNOWN_DATASET);
}

#[test]
fn byte_budget_bounds_the_resident_set() {
    let packed = Packed::create("budget");
    let sql = queries_for(KIND)[0].sql;
    // A 1-byte budget holds no two datasets at once (a single over-budget
    // dataset still serves: the budget bounds the set, not one member).
    let srv = Server::new(ServerOptions {
        max_resident_bytes: 1,
        ..ServerOptions::default()
    });
    packed.register(&srv, "a").unwrap();
    packed.register(&srv, "b").unwrap();

    let a = explain(&srv, "a", sql);
    let b = explain(&srv, "b", sql);
    assert_eq!(a, b, "same content behind both names");
    assert_eq!(
        (
            metric(&srv, "registry.datasets.resident"),
            metric(&srv, "registry.datasets.evicted"),
            metric(&srv, "registry.datasets.loaded")
        ),
        (1, 1, 2),
        "loading b must evict a under a one-dataset budget"
    );
    // The victim reloads on demand — correctness is unaffected.
    assert_eq!(explain(&srv, "a", sql), b);
    assert_eq!(metric(&srv, "registry.datasets.loaded"), 3);
}

#[test]
fn corrupted_store_files_are_refused_with_typed_errors() {
    let packed = Packed::create("corrupt");

    // Garbage bytes: refused at registration (header validation).
    let garbage = packed.dir.join("garbage.nxcol");
    std::fs::write(&garbage, b"not an NXCOL file at all").unwrap();
    let srv = Server::new(ServerOptions::default());
    let err = srv
        .add_dataset_from_store("bad", &garbage, None, vec![])
        .unwrap_err();
    assert!(matches!(err, ServeError::Store(_)), "got {err:?}");
    assert_eq!(metric(&srv, "registry.datasets.registered"), 0);

    // A truncated copy of a valid file: also refused, with the path in
    // the message.
    let bytes = std::fs::read(&packed.table_path).unwrap();
    let truncated = packed.dir.join("truncated.nxcol");
    std::fs::write(&truncated, &bytes[..20]).unwrap();
    match srv.add_dataset_from_store("bad", &truncated, None, vec![]) {
        Err(ServeError::Store(msg)) => assert!(msg.contains("truncated.nxcol"), "{msg}"),
        other => panic!("expected a store error, got {other:?}"),
    }

    // Over the wire: a LoadDataset naming a corrupt file answers a typed
    // STORE error frame; the server survives.
    let Frame::Error(e) = srv.handle(Frame::LoadDataset(LoadDatasetWire {
        name: "bad".into(),
        table_path: garbage.to_string_lossy().into_owned(),
        kg_path: String::new(),
        extraction_columns: vec![],
    })) else {
        panic!("expected an error frame");
    };
    assert_eq!(e.code, error_code::STORE);

    // A file corrupted *after* registration fails at materialization time
    // (per-section CRC), also typed, also survivable.
    packed.register(&srv, "flaky").unwrap();
    let mut bytes = std::fs::read(&packed.table_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&packed.table_path, &bytes).unwrap();
    let Frame::Error(e) = srv.handle(Frame::Explain(ExplainRequestWire {
        dataset: "flaky".into(),
        sql: queries_for(KIND)[0].sql.into(),
        overrides: Default::default(),
    })) else {
        panic!("expected an error frame");
    };
    assert_eq!(e.code, error_code::STORE);
    assert_eq!(
        (
            metric(&srv, "registry.datasets.loaded"),
            metric(&srv, "registry.datasets.resident")
        ),
        (0, 0)
    );
}

//! The resident explanation server.
//!
//! A [`Server`] hosts a registry of named datasets (table + knowledge
//! graph + extraction columns) — handed over in memory
//! ([`Server::add_dataset`]) or backed by NXCOL store files
//! ([`Server::add_dataset_from_store`], lazily materialized, LRU-evicted
//! under [`ServerOptions::max_resident_bytes`]) — mines each extraction
//! column's KG candidates once per materialization
//! ([`nexus_core::extract_column`]), and then answers NEXUSRPC `Explain`
//! requests for the lifetime of the process:
//!
//! * requests run the query-dependent pipeline stages via
//!   [`Nexus::run_with_extractions`], whose candidate scoring executes on
//!   the `nexus-runtime` scoped pool;
//! * a bounded [`LruCache`] keyed by (canonical query signature, dataset
//!   fingerprint, options fingerprint) stores the encoded deterministic
//!   explanation bytes — a hit echoes the stored bytes verbatim, so hot
//!   replies are **byte-identical** to cold ones and skip candidate
//!   scoring entirely (`scored_tasks == 0` in the reply stats);
//! * a [`nexus_runtime::Semaphore`] bounds concurrent pipeline runs; time
//!   spent waiting for a slot is reported as `queue_nanos`.
//!
//! [`Server::handle`] is a pure frame→frame function, so the full request
//! path is testable in-process; [`Server::serve_unix`] and
//! [`Server::serve_tcp`] run one handler thread per connection, each in
//! the single connection loop [`Server::serve_connection`]. Every
//! connection is a NEXUSRPC v2 session that opens with `Hello`; the loop
//! answers every frame that needs no session state through the same
//! dispatcher as [`Server::handle`], and runs every `Explain` on a worker
//! thread. Each connection has one event channel: a reader thread sends
//! the inbound envelopes into it, the workers send their replies into
//! it, and the loop thread blocks on it and writes every reply the moment
//! it arrives.
//!
//! ## Connection governance
//!
//! The connection loop is bounded in every dimension a misbehaving peer
//! could otherwise exhaust:
//!
//! * **connections** — at most [`ServerOptions::max_connections`] handler
//!   threads run at once; an over-limit accept gets a one-shot
//!   [`error_code::BUSY`] reply (clients retry with jittered backoff) and
//!   is closed, never queued;
//! * **time** — the reader thread reads under [`read_envelope_deadline`]:
//!   an idle connection (no explain in flight, nothing read or written) is
//!   dropped after [`ServerOptions::io_timeout`] with an
//!   [`error_code::TIMEOUT`] reply, and a frame that starts but does not
//!   complete within the same budget (slow loris) is dropped too; writes
//!   carry the same timeout;
//! * **memory** — a header declaring more than
//!   [`crate::wire::MAX_PAYLOAD`] is refused before any payload is read,
//!   with an [`error_code::FRAME_TOO_LARGE`] reply;
//! * **shutdown** — `Shutdown` stops accepting, lets in-flight requests
//!   finish writing their replies, and joins every handler thread (up to
//!   [`ServerOptions::drain_timeout`]); idle handlers notice the shutdown
//!   within one deadline tick, and every handler joins its reader thread
//!   (again within one tick) before it exits.
//!
//! Every enforcement action increments a registry metric
//! (`serve.conns.busy_rejections`, `serve.io.timeouts`,
//! `serve.frames.oversize`, …), so tests assert governance outcomes on
//! counters rather than wall-clock timing.
//!
//! ## Telemetry
//!
//! Every server counter lives in a per-server `nexus-telemetry`
//! [`MetricsRegistry`] under a stable dotted name (`serve.cache.hits`,
//! `serve.rpc.ooo_replies`, …); process-global families (the counting
//! kernel) and component gauges (dataset registry, connection semaphore,
//! result cache) are bridged in at snapshot time, the kernel family as
//! deltas since server construction. The registry is the one stats
//! surface: [`Server::metrics_snapshot`] exposes the full sorted snapshot
//! behind [`Frame::MetricsRequest`], and [`Server::metric`] looks one
//! name up. Each explain additionally records a
//! span trace (stage boundaries from the [`RunControl`] hooks, counted in
//! kernel builds — deterministic — plus monotonic durations for humans)
//! into a bounded [`TraceRing`] served by [`Frame::TraceRequest`];
//! [`ServerOptions::trace_capacity`] sizes the ring (0 disables tracing
//! entirely).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nexus_core::{
    ColumnExtraction, CoreError, Explanation, MemoHandle, MemoKind, MemoStore, Nexus, NexusOptions,
    ProgressEvent, RunControl,
};
use nexus_kg::KnowledgeGraph;
use nexus_query::parse;
use nexus_runtime::Semaphore;
use nexus_table::Table;
use nexus_telemetry::{
    Counter, Gauge, Histogram, MetricValue, Registry as MetricsRegistry, TraceBuilder, TraceRing,
};

use crate::cache::LruCache;
use crate::net::{deadline_tick, read_envelope_deadline, DeadlineStream, ReadError};
use crate::registry::{DatasetRegistry, DatasetSource, DatasetSpec, RegistryError};
use crate::wire::{
    encode_parts_into, error_code, DatasetAckWire, DatasetListWire, Envelope, ErrorWire,
    EvictDatasetWire, ExplainRequestWire, ExplanationReplyWire, ExplanationWire, Frame,
    HelloAckWire, LinkStatsWire, LoadDatasetWire, MetricWire, MetricsReplyWire, PartialWire,
    ProgressWire, ServeStatsWire, SpanWire, TraceReplyWire, TraceWire, UnsupportedWire, WireError,
    Workspace, MAX_VERSION,
};

/// Server failures (setup and socket loops; per-request failures travel
/// back to the client as [`Frame::Error`]).
#[derive(Debug)]
pub enum ServeError {
    /// Dataset registration failed (bad column, pipeline rejection, …).
    Core(nexus_core::CoreError),
    /// Socket-level failure.
    Io(std::io::Error),
    /// A dataset store file or knowledge-graph TSV could not be loaded
    /// (I/O, NXCOL validation, or KG parse failure).
    Store(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "pipeline error: {e}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Store(msg) => write!(f, "store error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<nexus_core::CoreError> for ServeError {
    fn from(e: nexus_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Pipeline options shared by every request (their fingerprint is part
    /// of the cache key).
    pub nexus: NexusOptions,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Maximum pipeline runs in flight; further requests queue.
    pub max_concurrent: usize,
    /// Maximum simultaneously served connections. An over-limit accept is
    /// answered with a one-shot [`error_code::BUSY`] reply and closed —
    /// never queued — so a connection flood cannot pile up handler
    /// threads.
    pub max_connections: usize,
    /// Per-connection I/O budget: the idle timeout between frames, the
    /// per-frame read budget (first byte → complete envelope), and the
    /// write timeout for replies.
    pub io_timeout: Duration,
    /// How long shutdown waits for in-flight handler threads before
    /// detaching the stragglers.
    pub drain_timeout: Duration,
    /// Most `Explain` requests a single v2 connection may hold in flight;
    /// further submissions draw an [`error_code::BUSY`] reply for their
    /// correlation id (the connection survives).
    pub max_inflight: usize,
    /// Budget over the NXCOL-encoded bytes of resident dataset tables
    /// (0 = unbounded). When a materialization pushes the gauge past the
    /// budget, least-recently-used resident datasets are dropped; their
    /// registrations survive and re-materialize on demand.
    pub max_resident_bytes: u64,
    /// Most recent request span traces retained for [`Frame::TraceRequest`]
    /// (0 disables span recording entirely; the hot path then pays
    /// nothing). Past capacity the oldest trace is dropped and the
    /// `trace.evicted` counter increments — memory stays bounded.
    pub trace_capacity: usize,
    /// Byte budget of the sub-query memo store (contingency tables, CMI
    /// terms, extraction columns shared across
    /// requests; see [`nexus_core::MemoStore`]). `0` = unbounded.
    pub max_memo_bytes: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            nexus: NexusOptions::default(),
            cache_capacity: 256,
            max_concurrent: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            max_connections: 64,
            io_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            max_inflight: 128,
            max_resident_bytes: 0,
            trace_capacity: 64,
            max_memo_bytes: 256 << 20,
        }
    }
}

/// Result-cache key. The canonical signature string (not just its hash)
/// keeps collisions impossible; dataset and options enter as fingerprints.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    signature: String,
    dataset_fp: u64,
    options_fp: u64,
}

/// A finished-handler signal shared between handler threads and the
/// accept loop: handlers push their id and notify; the loop reaps.
#[derive(Default)]
struct DoneList {
    finished: Mutex<Vec<u64>>,
    signal: Condvar,
}

/// The accept loop's ledger of live handler threads. Finished handlers
/// announce themselves on the [`DoneList`], so the loop joins them as it
/// goes (no unbounded `Vec<JoinHandle>` growth) and [`Registry::drain`]
/// can wait for the stragglers at shutdown without busy-polling.
struct Registry {
    next_id: u64,
    handlers: HashMap<u64, JoinHandle<()>>,
    done: Arc<DoneList>,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            next_id: 0,
            handlers: HashMap::new(),
            done: Arc::new(DoneList::default()),
        }
    }

    /// Spawns a handler thread that announces its completion.
    fn spawn(&mut self, f: impl FnOnce() + Send + 'static) {
        let id = self.next_id;
        self.next_id += 1;
        let done = Arc::clone(&self.done);
        let handle = std::thread::spawn(move || {
            f();
            done.finished.lock().expect("done list poisoned").push(id);
            done.signal.notify_all();
        });
        self.handlers.insert(id, handle);
    }

    /// Joins every handler that has announced completion. Returns the
    /// number joined.
    fn reap(&mut self) -> usize {
        let finished: Vec<u64> = {
            let mut list = self.done.finished.lock().expect("done list poisoned");
            std::mem::take(&mut *list)
        };
        let mut joined = 0;
        for id in finished {
            if let Some(handle) = self.handlers.remove(&id) {
                let _ = handle.join();
                joined += 1;
            }
        }
        joined
    }

    /// Joins handlers as they finish until none remain or `timeout`
    /// elapses; remaining handlers are detached. Returns `(joined,
    /// detached)`.
    fn drain(&mut self, timeout: Duration) -> (usize, usize) {
        let deadline = Instant::now() + timeout;
        let mut joined = self.reap();
        while !self.handlers.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            {
                let list = self.done.finished.lock().expect("done list poisoned");
                if list.is_empty() {
                    // Wait for the next completion announcement (or
                    // deadline).
                    let _ = self
                        .done
                        .signal
                        .wait_timeout(list, deadline - now)
                        .expect("done list poisoned");
                }
            }
            joined += self.reap();
        }
        let detached = self.handlers.len();
        self.handlers.clear(); // dropping a JoinHandle detaches the thread
        (joined, detached)
    }
}

/// Hot-path handles into the server's metrics registry, looked up once at
/// construction so request paths pay a single atomic op per event (never a
/// name hash). The dotted names are the public contract: they are what
/// `MetricsReply` reports and what `nexus-cli submit --stats` prints.
struct ServeMetrics {
    hits: Counter,
    misses: Counter,
    requests: Counter,
    io_timeouts: Counter,
    oversize_frames: Counter,
    drained_handlers: Counter,
    live_handlers: Gauge,
    /// Highest simultaneous in-flight count seen on any v2 connection.
    inflight_peak: Gauge,
    ooo_replies: Counter,
    cancels_honored: Counter,
    partials_streamed: Counter,
    workspace_reuse_hits: Counter,
    /// Pool tasks scored across all cold explains (the per-request value
    /// travels in [`ServeStatsWire`]).
    pool_tasks: Counter,
    queue_nanos: Histogram,
    service_nanos: Histogram,
    /// A worker handing its final reply to the connection loop → the reply
    /// bytes written.
    flush_nanos: Histogram,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry) -> ServeMetrics {
        ServeMetrics {
            hits: registry.counter("serve.cache.hits"),
            misses: registry.counter("serve.cache.misses"),
            requests: registry.counter("serve.requests.served"),
            io_timeouts: registry.counter("serve.io.timeouts"),
            oversize_frames: registry.counter("serve.frames.oversize"),
            drained_handlers: registry.counter("serve.handlers.drained"),
            live_handlers: registry.gauge("serve.handlers.live"),
            inflight_peak: registry.gauge("serve.rpc.inflight_peak"),
            ooo_replies: registry.counter("serve.rpc.ooo_replies"),
            cancels_honored: registry.counter("serve.rpc.cancels_honored"),
            partials_streamed: registry.counter("serve.rpc.partials_streamed"),
            workspace_reuse_hits: registry.counter("serve.rpc.workspace_reuse_hits"),
            pool_tasks: registry.counter("serve.pool.tasks_scored"),
            queue_nanos: registry.histogram("serve.request.queue_nanos"),
            service_nanos: registry.histogram("serve.request.service_nanos"),
            flush_nanos: registry.histogram("serve.request.flush_nanos"),
        }
    }
}

struct Inner {
    registry: DatasetRegistry,
    nexus: Nexus,
    options_fp: u64,
    cache: Mutex<LruCache<CacheKey, Arc<Vec<u8>>>>,
    /// Bounds concurrent pipeline runs; requests queue on it.
    gate: Semaphore,
    /// Bounds concurrent connections; over-limit accepts are rejected with
    /// `Busy`, never queued. Its admitted/rejected counters feed
    /// `serve.conns.accepted`/`serve.conns.busy_rejections`.
    conns: Arc<Semaphore>,
    io_timeout: Duration,
    drain_timeout: Duration,
    max_inflight: usize,
    /// This server's metrics registry. Per-server (not process-global) so
    /// servers coexisting in one test process never mix counters; the
    /// process-global kernel family is bridged in as a delta against
    /// `kernel_baseline` at snapshot time.
    metrics: MetricsRegistry,
    /// Pre-resolved hot-path handles into `metrics`.
    m: ServeMetrics,
    /// Bounded ring of finished request span traces.
    traces: TraceRing,
    /// The sub-query memo store shared by every request (and by the
    /// registry's extraction materializations): byte-budgeted LRU with
    /// single-flight admission, keyed under each dataset's fingerprint.
    memo: Arc<MemoStore>,
    shutdown: AtomicBool,
    /// Counting-kernel counters at server construction; the `kernel.*`
    /// metrics report movement since then, not since process start.
    kernel_baseline: nexus_info::KernelSnapshot,
}

/// The resident explanation server. Cheap to clone (shared state behind an
/// [`Arc`]); clones serve the same datasets, cache, and counters.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// A server with the given options and no datasets.
    pub fn new(options: ServerOptions) -> Server {
        let options_fp = options.nexus.fingerprint();
        let metrics = MetricsRegistry::new();
        let m = ServeMetrics::new(&metrics);
        Server {
            inner: Arc::new(Inner {
                registry: DatasetRegistry::new(options.max_resident_bytes),
                nexus: Nexus::new(options.nexus),
                options_fp,
                cache: Mutex::new(LruCache::new(options.cache_capacity)),
                gate: Semaphore::new(options.max_concurrent),
                conns: Arc::new(Semaphore::new(options.max_connections)),
                io_timeout: options.io_timeout,
                drain_timeout: options.drain_timeout,
                max_inflight: options.max_inflight.max(1),
                metrics,
                m,
                traces: TraceRing::new(options.trace_capacity),
                memo: Arc::new(MemoStore::new(options.max_memo_bytes)),
                shutdown: AtomicBool::new(false),
                kernel_baseline: nexus_info::kernel::counters().snapshot(),
            }),
        }
    }

    /// Registers a dataset under `name` and materializes it eagerly,
    /// mining each extraction column's KG candidates once so subsequent
    /// requests only run the query-dependent pipeline stages. Replaces
    /// any dataset of the same name.
    pub fn add_dataset(
        &self,
        name: impl Into<String>,
        table: Table,
        kg: KnowledgeGraph,
        extraction_columns: Vec<String>,
    ) -> Result<(), ServeError> {
        let name = name.into();
        self.inner.registry.register(
            name.clone(),
            DatasetSpec {
                source: DatasetSource::Memory {
                    table: Arc::new(table),
                    kg: Arc::new(kg),
                },
                extraction_columns,
            },
        );
        self.inner
            .registry
            .ensure_resident(&name, &self.inner.nexus.options, Some(&self.inner.memo))
            .map(|_| ())
            .map_err(registry_to_serve)
    }

    /// Registers a store-backed dataset under `name`: `table_path` must
    /// be an NXCOL file (its header is validated now, so typos and
    /// corruption surface immediately) and `kg_path` an optional KG TSV.
    /// The table, the graph, and the KG extraction artifacts are
    /// materialized lazily, on the first request that needs them.
    /// Replaces any dataset of the same name.
    pub fn add_dataset_from_store(
        &self,
        name: impl Into<String>,
        table_path: impl Into<PathBuf>,
        kg_path: Option<PathBuf>,
        extraction_columns: Vec<String>,
    ) -> Result<(), ServeError> {
        let table_path = table_path.into();
        nexus_store::inspect_path(&table_path)
            .map_err(|e| ServeError::Store(format!("{}: {e}", table_path.display())))?;
        self.inner.registry.register(
            name.into(),
            DatasetSpec {
                source: DatasetSource::Store {
                    table_path,
                    kg_path,
                },
                extraction_columns,
            },
        );
        Ok(())
    }

    /// Names of the registered datasets (sorted; resident or not).
    pub fn dataset_names(&self) -> Vec<String> {
        self.inner.registry.names()
    }

    /// Entity count of a dataset's knowledge graph, if its artifacts are
    /// currently materialized.
    pub fn dataset_kg_entities(&self, name: &str) -> Option<usize> {
        self.inner.registry.kg_entities(name)
    }

    /// Extraction columns of a registered dataset.
    pub fn dataset_extraction_columns(&self, name: &str) -> Option<Vec<String>> {
        self.inner.registry.extraction_columns(name)
    }

    /// Whether a shutdown request has been received.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// The current value of one metric by its dotted registry name
    /// (`serve.io.timeouts`), or `None` if no such metric exists.
    pub fn metric(&self, name: &str) -> Option<u64> {
        let snap = self.metrics_snapshot();
        snap.binary_search_by(|m| m.name.as_str().cmp(name))
            .ok()
            .map(|i| snap[i].value)
    }

    /// Folds component state the registry does not own — the
    /// process-global kernel counters (as deltas since server
    /// construction), the connection semaphore, the result cache, the
    /// dataset registry, and the trace ring — into bridge gauges, so one
    /// registry snapshot describes the whole server.
    fn bridge_component_metrics(&self) {
        let r = &self.inner.metrics;
        let kernel = nexus_info::kernel::counters()
            .snapshot()
            .delta(&self.inner.kernel_baseline);
        r.gauge("kernel.rows_scanned").set(kernel.rows_scanned);
        r.gauge("kernel.hash_ops").set(kernel.hash_ops);
        r.gauge("kernel.dense_ops").set(kernel.dense_ops);
        r.gauge("kernel.builds.dense").set(kernel.dense_builds);
        r.gauge("kernel.builds.sparse").set(kernel.sparse_builds);
        r.gauge("kernel.narrow_scans").set(kernel.narrow_scans);
        r.gauge("kernel.packed_words_skipped")
            .set(kernel.packed_words_skipped);
        r.gauge("kernel.builds.w8").set(kernel.builds_w8);
        r.gauge("kernel.builds.w16").set(kernel.builds_w16);
        r.gauge("kernel.builds.w32").set(kernel.builds_w32);
        r.gauge("kernel.builds.w64").set(kernel.builds_w64);
        r.gauge("kernel.builds.w128").set(kernel.builds_w128);
        r.gauge("kernel.permutations").set(kernel.permutations);
        r.gauge("kernel.perm_rows").set(kernel.perm_rows);
        r.gauge("memo.hits").set(kernel.memo_hits_total());
        r.gauge("memo.misses").set(kernel.memo_misses_total());
        r.gauge("memo.inserts").set(kernel.memo_inserts_total());
        r.gauge("memo.evictions").set(kernel.memo_evictions_total());
        r.gauge("memo.coalesced_waits")
            .set(kernel.memo_coalesced_waits);
        for kind in MemoKind::ALL {
            let i = kind as usize;
            r.gauge(&format!("memo.hits.{}", kind.label()))
                .set(kernel.memo_hits[i]);
            r.gauge(&format!("memo.misses.{}", kind.label()))
                .set(kernel.memo_misses[i]);
        }
        r.gauge("memo.resident_bytes")
            .set(self.inner.memo.resident_bytes());
        r.gauge("memo.resident_entries")
            .set(self.inner.memo.resident_entries() as u64);
        r.gauge("memo.max_bytes").set(self.inner.memo.max_bytes());
        r.gauge("serve.cache.entries")
            .set(self.inner.cache.lock().unwrap().len() as u64);
        r.gauge("serve.conns.accepted")
            .set(self.inner.conns.admitted());
        r.gauge("serve.conns.busy_rejections")
            .set(self.inner.conns.rejected());
        let reg = &self.inner.registry;
        r.gauge("registry.datasets.registered")
            .set(reg.registered());
        r.gauge("registry.datasets.resident")
            .set(reg.resident_count());
        r.gauge("registry.datasets.loaded").set(reg.loads());
        r.gauge("registry.datasets.evicted").set(reg.evictions());
        r.gauge("registry.store.bytes").set(reg.resident_bytes());
        r.gauge("registry.extraction.builds")
            .set(reg.extraction_builds());
        r.gauge("registry.fingerprint")
            .set(reg.combined_fingerprint());
        let traces = &self.inner.traces;
        r.gauge("trace.capacity").set(traces.capacity() as u64);
        r.gauge("trace.recorded").set(traces.recorded());
        r.gauge("trace.evicted").set(traces.evicted());
        r.gauge("trace.resident").set(traces.len() as u64);
    }

    /// The full metrics snapshot behind [`Frame::MetricsRequest`]: every
    /// registered metric, sorted by name — registry iteration order, the
    /// order sorted `--stats` output prints in.
    pub fn metrics_snapshot(&self) -> Vec<MetricValue> {
        self.bridge_component_metrics();
        self.inner.metrics.snapshot()
    }

    /// Answers a `MetricsRequest` with the sorted self-describing
    /// name→value snapshot.
    fn metrics_reply(&self) -> Frame {
        Frame::MetricsReply(MetricsReplyWire {
            metrics: self
                .metrics_snapshot()
                .into_iter()
                .map(|m| MetricWire {
                    name: m.name,
                    kind: m.kind.as_u8(),
                    value: m.value,
                })
                .collect(),
        })
    }

    /// The most recent `last` recorded span trees, newest first (fewer
    /// if the ring holds less).
    pub fn traces(&self, last: usize) -> Vec<nexus_telemetry::Trace> {
        self.inner.traces.last(last)
    }

    /// Answers a `TraceRequest` with the most recent `last` span trees,
    /// newest first.
    fn trace_reply(&self, last: u32) -> Frame {
        Frame::TraceReply(TraceReplyWire {
            traces: self
                .traces(last as usize)
                .into_iter()
                .map(|t| TraceWire {
                    corr_id: t.corr_id,
                    spans: t
                        .spans
                        .into_iter()
                        .map(|s| SpanWire {
                            name: s.name,
                            depth: s.depth,
                            count: s.count,
                            duration_nanos: s.duration_nanos,
                        })
                        .collect(),
                })
                .collect(),
        })
    }

    /// Traces recorded / evicted by the span ring — the bounded-memory
    /// proof counters (`trace.recorded`, `trace.evicted`).
    pub fn trace_counts(&self) -> (u64, u64) {
        (self.inner.traces.recorded(), self.inner.traces.evicted())
    }

    /// Answers one request frame — the full in-process request path, and
    /// the dispatcher the socket loop hands every frame that needs no
    /// session state. A reply-only or session frame draws `Unsupported`.
    pub fn handle(&self, frame: Frame) -> Frame {
        match frame {
            Frame::Ping => Frame::Pong,
            Frame::Shutdown => {
                self.inner.shutdown.store(true, Ordering::SeqCst);
                Frame::ShutdownAck
            }
            Frame::Explain(req) => self.explain(&req),
            Frame::LoadDataset(w) => self.load_dataset_frame(&w),
            Frame::EvictDataset(w) => self.evict_dataset_frame(&w),
            Frame::ListDatasets => self.list_datasets_frame(),
            Frame::MetricsRequest => self.metrics_reply(),
            Frame::TraceRequest(w) => self.trace_reply(w.last),
            // Reply-only and session-control frames are not requests here.
            other => unsupported(MAX_VERSION, other.frame_type()),
        }
    }

    /// Answers a `LoadDataset`: registers a lazily-materialized
    /// store-backed dataset (the NXCOL header is validated immediately).
    fn load_dataset_frame(&self, w: &LoadDatasetWire) -> Frame {
        if self.is_shutting_down() {
            return error(error_code::SHUTTING_DOWN, "server is shutting down");
        }
        let kg_path = (!w.kg_path.is_empty()).then(|| PathBuf::from(&w.kg_path));
        match self.add_dataset_from_store(
            &w.name,
            PathBuf::from(&w.table_path),
            kg_path,
            w.extraction_columns.clone(),
        ) {
            Ok(()) => Frame::DatasetAck(DatasetAckWire {
                name: w.name.clone(),
                resident: false,
            }),
            Err(e) => error(error_code::STORE, e.to_string()),
        }
    }

    /// Answers an `EvictDataset`: drops resident artifacts, keeps the
    /// registration.
    fn evict_dataset_frame(&self, w: &EvictDatasetWire) -> Frame {
        match self.inner.registry.evict(&w.name) {
            Ok(_) => Frame::DatasetAck(DatasetAckWire {
                name: w.name.clone(),
                resident: false,
            }),
            Err(RegistryError::Unknown(_)) => error(
                error_code::UNKNOWN_DATASET,
                format!("no dataset named {:?}", w.name),
            ),
            Err(e) => error(error_code::STORE, e.to_string()),
        }
    }

    /// Answers a `ListDatasets` with the sorted registry listing.
    fn list_datasets_frame(&self) -> Frame {
        Frame::DatasetList(DatasetListWire {
            datasets: self.inner.registry.list(),
        })
    }

    fn explain(&self, req: &ExplainRequestWire) -> Frame {
        // An in-process request has no correlation id; its trace records
        // corr 0.
        self.explain_traced(req, 0, RunControl::none())
    }

    /// Current deterministic span work count: counting-kernel builds so
    /// far (dense + sparse). Build counts are one-per-statistic and thus
    /// invariant under pool thread count and row chunking — the property
    /// the span determinism test rests on. (Under concurrent traffic the
    /// process-global counter attributes overlapping requests' builds to
    /// whichever span is open — traces are diagnostics, not ledgers.)
    fn span_count_now() -> u64 {
        let snap = nexus_info::kernel::counters().snapshot();
        snap.dense_builds + snap.sparse_builds
    }

    /// [`Server::explain_ctl`] wrapped in span recording: stage
    /// transitions observed at the [`RunControl`] progress hooks open and
    /// close spans (durations monotonic, counts from
    /// [`Server::span_count_now`]), and the finished trace — rooted at an
    /// `explain` span — lands in the bounded ring. With
    /// [`ServerOptions::trace_capacity`] 0 this is exactly
    /// [`Server::explain_ctl`]: no builder, no extra hook work, and the
    /// explanation bytes are identical either way (the sink only reads).
    fn explain_traced(&self, req: &ExplainRequestWire, corr: u64, ctl: RunControl<'_>) -> Frame {
        if !self.inner.traces.enabled() {
            return self.explain_ctl(req, ctl);
        }
        let builder = TraceBuilder::new(corr, Self::span_count_now());
        let outer = ctl.progress;
        let sink = |event: ProgressEvent| {
            if let ProgressEvent::Stage { stage } = &event {
                builder.enter_stage(stage, Self::span_count_now());
            }
            if let Some(s) = outer {
                s(event);
            }
        };
        let traced = RunControl {
            abort: ctl.abort,
            progress: Some(&sink),
            memo: ctl.memo,
        };
        let reply = self.explain_ctl(req, traced);
        self.inner
            .traces
            .push(builder.finish(Self::span_count_now()));
        reply
    }

    /// The effective [`Nexus`] for a request: `None` when the request
    /// carries no overrides (the resident engine and its fingerprint are
    /// reused), otherwise an engine over the base options with the
    /// request's [`crate::wire::CallOverrides`] applied.
    fn overridden_nexus(&self, req: &ExplainRequestWire) -> Result<Option<Nexus>, Box<Frame>> {
        let o = &req.overrides;
        if o.is_none() {
            return Ok(None);
        }
        let mut opts = self.inner.nexus.options.clone();
        if let Some(k) = o.top_k {
            if k == 0 {
                return Err(Box::new(error(
                    error_code::BAD_QUERY,
                    "top_k override must be at least 1",
                )));
            }
            opts.max_explanation_size = k as usize;
        }
        if let Some(on) = o.weights {
            opts.handle_selection_bias = on;
        }
        if let Some(on) = o.offline_pruning {
            opts.offline_pruning = on;
        }
        if let Some(on) = o.online_pruning {
            opts.online_pruning = on;
        }
        if !o.excluded.is_empty() {
            // Union with the server's base exclusions, canonically ordered
            // so the options fingerprint (and thus the cache key) does not
            // depend on how the client spelled the list.
            opts.excluded_columns.extend(o.excluded.iter().cloned());
            opts.excluded_columns.sort();
            opts.excluded_columns.dedup();
        }
        Ok(Some(Nexus::new(opts)))
    }

    /// [`Server::explain`] under a [`RunControl`]: the abort flag is
    /// polled while queued for a pipeline slot and at every pipeline hook
    /// point (an aborted request answers [`error_code::CANCELLED`] and
    /// caches nothing), and progress events stream to the control's sink.
    fn explain_ctl(&self, req: &ExplainRequestWire, ctl: RunControl<'_>) -> Frame {
        let arrived = Instant::now();
        self.inner.m.requests.add(1);
        if self.is_shutting_down() {
            return error(error_code::SHUTTING_DOWN, "server is shutting down");
        }
        if ctl.check().is_err() {
            return error(error_code::CANCELLED, "request cancelled");
        }
        // Materializes the dataset if it is registered but not resident
        // (first touch after a lazy load or an eviction); a warm dataset
        // is an `Arc` clone.
        let dataset = match self.inner.registry.ensure_resident(
            &req.dataset,
            &self.inner.nexus.options,
            Some(&self.inner.memo),
        ) {
            Ok(d) => d,
            Err(RegistryError::Unknown(_)) => {
                return error(
                    error_code::UNKNOWN_DATASET,
                    format!("no resident dataset named {:?}", req.dataset),
                )
            }
            Err(RegistryError::Load(msg)) => return error(error_code::STORE, msg),
            Err(RegistryError::Core(e)) => return error(error_code::PIPELINE, e.to_string()),
        };
        let query = match parse(&req.sql) {
            Ok(q) => q,
            Err(e) => return error(error_code::BAD_QUERY, e.to_string()),
        };
        let custom = match self.overridden_nexus(req) {
            Ok(n) => n,
            Err(reply) => return *reply,
        };
        let nexus = custom.as_ref().unwrap_or(&self.inner.nexus);
        let options_fp = custom
            .as_ref()
            .map(|n| n.options.fingerprint())
            .unwrap_or(self.inner.options_fp);
        let key = CacheKey {
            signature: query.canonical_signature(),
            dataset_fp: dataset.fingerprint,
            options_fp,
        };

        // Fast path: echo the cached bytes verbatim. No pipeline, no pool.
        let cached = self.inner.cache.lock().unwrap().get(&key).cloned();
        if let Some(bytes) = cached {
            let hits = self.inner.m.hits.add(1);
            let service_nanos = arrived.elapsed().as_nanos() as u64;
            self.inner.m.service_nanos.record(service_nanos);
            return Frame::Explanation(ExplanationReplyWire {
                explanation: bytes.as_ref().clone(),
                stats: ServeStatsWire {
                    cache_hit: true,
                    cache_hits: hits,
                    cache_misses: self.inner.m.misses.get(),
                    scored_tasks: 0,
                    queue_nanos: 0,
                    service_nanos,
                },
            });
        }
        let misses = self.inner.m.misses.add(1);

        // Cold path: wait for a pipeline slot, then run the
        // query-dependent stages over the resident extractions. A
        // cancellable request polls for its slot so a `Cancel` is honored
        // even while queued behind other pipelines.
        let queued = Instant::now();
        let _slot = if ctl.abort.is_some() {
            loop {
                if let Some(slot) = self.inner.gate.try_acquire() {
                    break slot;
                }
                if ctl.check().is_err() {
                    return error(error_code::CANCELLED, "request cancelled while queued");
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        } else {
            self.inner.gate.acquire()
        };
        let queue_nanos = queued.elapsed().as_nanos() as u64;

        // Attach the sub-query memo, scoped to this dataset's content
        // fingerprint: concurrent cold requests coalesce onto one builder
        // per sub-computation, warm requests skip the counting pool tasks
        // entirely, and the bytes that come out are identical either way.
        let memo = MemoHandle::new(Arc::clone(&self.inner.memo), dataset.fingerprint);
        let ctl = ctl.with_memo(&memo);
        let refs: Vec<&ColumnExtraction> = dataset.extractions.iter().map(Arc::as_ref).collect();
        match nexus.run_with_extractions_controlled(&dataset.table, &refs, &query, ctl) {
            Ok((explanation, _artifacts)) => {
                let bytes = Arc::new(explanation_to_wire(&explanation).encode());
                self.inner
                    .cache
                    .lock()
                    .unwrap()
                    .insert(key, Arc::clone(&bytes));
                let service_nanos = arrived.elapsed().as_nanos() as u64;
                self.inner.m.queue_nanos.record(queue_nanos);
                self.inner.m.service_nanos.record(service_nanos);
                self.inner.m.pool_tasks.add(explanation.stats.pool_tasks);
                Frame::Explanation(ExplanationReplyWire {
                    explanation: bytes.as_ref().clone(),
                    stats: ServeStatsWire {
                        cache_hit: false,
                        cache_hits: self.inner.m.hits.get(),
                        cache_misses: misses,
                        scored_tasks: explanation.stats.pool_tasks,
                        queue_nanos,
                        service_nanos,
                    },
                })
            }
            Err(CoreError::Aborted) => error(error_code::CANCELLED, "request cancelled"),
            Err(e) => error(error_code::PIPELINE, e.to_string()),
        }
    }

    /// Serves NEXUSRPC on a Unix socket at `path` until a `Shutdown` frame
    /// arrives. A stale socket file at `path` is removed before binding;
    /// the file is removed again on exit.
    pub fn serve_unix(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let path = path.as_ref();
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let result = self.accept_loop(|| match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                Some(Ok(stream))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
            Err(e) => Some(Err(e)),
        });
        let _ = std::fs::remove_file(path);
        result
    }

    /// Serves NEXUSRPC on a TCP listener bound to `addr` (use a loopback
    /// address — the protocol is unauthenticated) until a `Shutdown` frame
    /// arrives. Returns the bound address via `on_bound` (useful with port
    /// 0).
    pub fn serve_tcp(
        &self,
        addr: &str,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> Result<(), ServeError> {
        let listener = std::net::TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        listener.set_nonblocking(true)?;
        self.accept_loop(|| match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                Some(Ok(stream))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
            Err(e) => Some(Err(e)),
        })
    }

    /// Polls `accept` until shutdown, spawning one governed handler thread
    /// per admitted connection. Finished handlers are joined as the loop
    /// runs; shutdown drains the rest (bounded by the drain timeout).
    fn accept_loop<S>(
        &self,
        mut accept: impl FnMut() -> Option<std::io::Result<S>>,
    ) -> Result<(), ServeError>
    where
        S: DeadlineStream + Send + 'static,
    {
        let mut registry = Registry::new();
        let result = loop {
            // Join whatever finished since the last iteration, so the
            // ledger tracks live connections rather than growing forever.
            let reaped = registry.reap();
            self.inner.m.drained_handlers.add(reaped as u64);
            if self.is_shutting_down() {
                break Ok(());
            }
            match accept() {
                Some(Ok(stream)) => match self.inner.conns.try_acquire_owned() {
                    Some(slot) => {
                        let server = self.clone();
                        self.inner.m.live_handlers.add(1);
                        registry.spawn(move || {
                            server.serve_connection(stream);
                            server.inner.m.live_handlers.sub(1);
                            drop(slot); // free the connection slot last
                        });
                    }
                    None => self.reject_busy(stream),
                },
                Some(Err(e)) => break Err(ServeError::Io(e)),
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let (joined, detached) = registry.drain(self.inner.drain_timeout);
        self.inner.m.drained_handlers.add(joined as u64);
        // Detached handlers (still counted in live_handlers) exceeded the
        // drain timeout; they die with the process.
        let _ = detached;
        result
    }

    /// Tells an over-limit connection it lost the admission race: a
    /// one-shot `Busy` error (correlation id 0, the id of the `Hello` a
    /// client opens with) under a short write timeout, then close.
    fn reject_busy<S: DeadlineStream>(&self, mut stream: S) {
        let busy = error(
            error_code::BUSY,
            "connection limit reached; retry with backoff",
        );
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let _ = stream.write_all(&Envelope::v2(0, busy).encode());
    }

    /// Encodes `frame` as an envelope through the connection's reusable
    /// [`Workspace`] and writes it, folding the workspace's reuse-hit
    /// delta into the server counter.
    fn write_via<S: DeadlineStream>(
        &self,
        stream: &mut S,
        lane: &mut ReplyLane,
        corr_id: u64,
        frame: &Frame,
    ) -> std::io::Result<()> {
        let bytes = encode_parts_into(corr_id, frame, &mut lane.ws);
        let result = stream.write_all(bytes).and_then(|()| stream.flush());
        let delta = lane.ws.reuse_hits() - lane.reported_reuse;
        if delta > 0 {
            self.inner.m.workspace_reuse_hits.add(delta);
            lane.reported_reuse = lane.ws.reuse_hits();
        }
        result
    }

    /// The connection loop of one NEXUSRPC v2 session, governed by the
    /// server's I/O timeouts.
    ///
    /// The **first** well-formed envelope must be [`Frame::Hello`],
    /// answered with [`Frame::HelloAck`]; anything else draws
    /// [`error_code::BAD_CORRELATION`] and a hangup.
    ///
    /// The stream is split ([`DeadlineStream::try_clone`]). A reader
    /// thread does the deadline reads and sends every inbound envelope
    /// into one event channel; the workers that run `Explain`s send
    /// their `Progress`/`Partial`/final frames into the same channel. This
    /// thread blocks on the channel and writes each reply the moment it
    /// arrives, so no reply waits for a read. `Explain`, `Cancel` and a
    /// second `Hello` are session business; every other frame goes
    /// through [`Server::handle`], inline. Every write happens on this thread, through one
    /// [`Workspace`]. Request lifecycle counters
    /// (`inflight_peak`, `ooo_replies`, `cancels_honored`,
    /// `partials_streamed`) are kept at registration and reply-write time,
    /// so tests assert multiplexing on counters rather than timing.
    ///
    /// Malformed envelopes that cannot be skipped safely (bad magic, bad
    /// CRC, truncation) drop the connection; well-formed frames of an
    /// unknown version (the retired version 1 included) or type get a
    /// [`Frame::Unsupported`] reply and the stream survives. Idle and slow-loris connections are dropped after
    /// an [`error_code::TIMEOUT`] reply; oversized declarations after an
    /// [`error_code::FRAME_TOO_LARGE`] reply — each tallied in the server
    /// stats. A session with explains in flight is never idle. During
    /// shutdown, requests already started finish and their replies are
    /// written before the connection closes; a departing peer aborts them.
    /// The deadline tick bounds only how soon an idle connection
    /// notices shutdown or idleness, never how soon a reply is written.
    pub fn serve_connection<S: DeadlineStream + Send + 'static>(&self, mut stream: S) {
        let io_timeout = self.inner.io_timeout;
        let tick = deadline_tick(io_timeout);
        let (tx, rx) = mpsc::sync_channel::<Event>(EVENT_DEPTH);
        let stop = Arc::new(AtomicBool::new(false));
        let reader = match stream.try_clone() {
            Ok(read_half) => {
                let (tx, stop) = (tx.clone(), Arc::clone(&stop));
                std::thread::spawn(move || read_inbound(read_half, io_timeout, tick, &stop, &tx))
            }
            // Out of descriptors (or an unsplittable stream): hang up.
            Err(_) => return,
        };
        let _ = stream.set_write_timeout(Some(io_timeout));
        let mut lane = ReplyLane::new();
        let mut negotiated = false;
        let mut inflight: HashMap<u64, InflightRequest> = HashMap::new();
        let mut next_seq: u64 = 0;
        let mut last_activity = Instant::now();

        loop {
            // Draining a shutdown: finish what started, then close.
            if self.is_shutting_down() && inflight.is_empty() {
                break;
            }
            let read = match rx.recv_timeout(tick) {
                Ok(Event::Reply(corr, frame, sent)) => {
                    let is_final = matches!(frame, Frame::Explanation(_) | Frame::Error(_));
                    if is_final {
                        if let Some(done) = inflight.remove(&corr) {
                            // The worker sent its final reply, so the join
                            // is imminent, never a stall.
                            let _ = done.handle.join();
                            if inflight.values().any(|other| other.seq < done.seq) {
                                self.inner.m.ooo_replies.add(1);
                            }
                            if matches!(&frame, Frame::Error(e) if e.code == error_code::CANCELLED)
                            {
                                self.inner.m.cancels_honored.add(1);
                            }
                        }
                    } else if matches!(frame, Frame::Partial(_)) {
                        self.inner.m.partials_streamed.add(1);
                    }
                    if self
                        .write_via(&mut stream, &mut lane, corr, &frame)
                        .is_err()
                    {
                        break;
                    }
                    if is_final {
                        self.inner
                            .m
                            .flush_nanos
                            .record(sent.elapsed().as_nanos() as u64);
                    }
                    last_activity = Instant::now();
                    continue;
                }
                Ok(Event::Inbound(read)) => {
                    last_activity = Instant::now();
                    read
                }
                // A quiet tick. The session is idle once nothing is in
                // flight and nothing was read or written for `io_timeout`.
                Err(_) if inflight.is_empty() && last_activity.elapsed() >= io_timeout => {
                    Err(ReadError::IdleTimeout)
                }
                Err(_) => continue,
            };
            // An inline reply overtakes every unfinished explain.
            let overtakes = !inflight.is_empty();
            let (corr, reply) = match read {
                Ok(env) => {
                    let corr = env.corr_id;
                    let reply = match env.frame {
                        Frame::Hello(_) if !negotiated => {
                            negotiated = true;
                            Frame::HelloAck(HelloAckWire {
                                version: MAX_VERSION,
                                max_inflight: self.inner.max_inflight as u32,
                            })
                        }
                        _ if !negotiated => {
                            let reply = error(
                                error_code::BAD_CORRELATION,
                                "a v2 session must open with Hello",
                            );
                            self.hang_up(&mut stream, &mut lane, corr, reply);
                            break;
                        }
                        Frame::Hello(_) => {
                            error(error_code::BAD_CORRELATION, "session already negotiated")
                        }
                        Frame::Cancel => {
                            // Unknown ids are a benign race against the
                            // final reply, not an error.
                            if let Some(req) = inflight.get(&corr) {
                                req.abort.store(true, Ordering::Release);
                            }
                            continue;
                        }
                        Frame::Explain(req) => {
                            if self.is_shutting_down() {
                                error(error_code::SHUTTING_DOWN, "server is shutting down")
                            } else if inflight.contains_key(&corr) {
                                error(
                                    error_code::BAD_CORRELATION,
                                    "correlation id already in flight",
                                )
                            } else if inflight.len() >= self.inner.max_inflight {
                                error(
                                    error_code::BUSY,
                                    "per-connection in-flight limit reached; \
                                     wait for a reply or cancel",
                                )
                            } else {
                                let abort = Arc::new(AtomicBool::new(false));
                                let seq = next_seq;
                                next_seq += 1;
                                self.inner.m.inflight_peak.max(inflight.len() as u64 + 1);
                                let server = self.clone();
                                let worker_tx = tx.clone();
                                let flag = Arc::clone(&abort);
                                let handle = std::thread::spawn(move || {
                                    let reply =
                                        server.explain_streaming(&req, corr, &flag, &worker_tx);
                                    let _ =
                                        worker_tx.send(Event::Reply(corr, reply, Instant::now()));
                                });
                                inflight.insert(corr, InflightRequest { abort, seq, handle });
                                continue;
                            }
                        }
                        frame => self.handle(frame),
                    };
                    (corr, reply)
                }
                Err(ReadError::IdleTimeout | ReadError::FrameTimeout) => {
                    self.inner.m.io_timeouts.add(1);
                    let reply = error(error_code::TIMEOUT, "i/o deadline exceeded");
                    self.hang_up(&mut stream, &mut lane, 0, reply);
                    break;
                }
                Err(ReadError::Wire(WireError::PayloadTooLarge(n))) => {
                    self.inner.m.oversize_frames.add(1);
                    let reply = error(
                        error_code::FRAME_TOO_LARGE,
                        format!(
                            "declared payload of {n} bytes exceeds the {} byte cap",
                            crate::wire::MAX_PAYLOAD
                        ),
                    );
                    self.hang_up(&mut stream, &mut lane, 0, reply);
                    break;
                }
                Err(ReadError::Wire(WireError::UnsupportedVersion(v))) => (0, unsupported(v, 0)),
                Err(ReadError::Wire(WireError::UnknownFrameType(t))) => {
                    (0, unsupported(MAX_VERSION, t))
                }
                // The peer is gone (or the stream is unframeable).
                Err(ReadError::Closed | ReadError::Aborted | ReadError::Wire(_)) => break,
            };
            if overtakes {
                self.inner.m.ooo_replies.add(1);
            }
            if self
                .write_via(&mut stream, &mut lane, corr, &reply)
                .is_err()
            {
                break;
            }
            last_activity = Instant::now();
        }
        // Dropping the receiver fails any send still blocked on a full
        // channel; then abort whatever a departing peer was waiting on, and
        // stop the reader, which notices within one tick.
        drop(rx);
        stop.store(true, Ordering::Release);
        abort_and_join(&mut inflight);
        let _ = reader.join();
    }

    /// Writes a parting reply under a short write timeout; the caller
    /// then hangs up.
    fn hang_up<S: DeadlineStream>(
        &self,
        stream: &mut S,
        lane: &mut ReplyLane,
        corr_id: u64,
        reply: Frame,
    ) {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let _ = self.write_via(stream, lane, corr_id, &reply);
    }

    /// The worker side of a session `Explain`: runs [`Server::explain_ctl`]
    /// with the request's abort flag and a progress sink that forwards
    /// pipeline events to the session loop as `Progress`/`Partial`
    /// frames addressed at `corr`.
    fn explain_streaming(
        &self,
        req: &ExplainRequestWire,
        corr: u64,
        abort: &AtomicBool,
        tx: &mpsc::SyncSender<Event>,
    ) -> Frame {
        let sink = |event: ProgressEvent| {
            let frame = match event {
                ProgressEvent::Stage { stage } => Frame::Progress(ProgressWire {
                    stage: stage.to_string(),
                }),
                ProgressEvent::Selected {
                    names,
                    cmi_so_far,
                    initial_cmi,
                } => Frame::Partial(PartialWire {
                    selected: names,
                    cmi_so_far,
                    initial_cmi,
                }),
            };
            let _ = tx.send(Event::Reply(corr, frame, Instant::now()));
        };
        let ctl = RunControl {
            abort: Some(abort),
            progress: Some(&sink),
            ..RunControl::default()
        };
        self.explain_traced(req, corr, ctl)
    }
}

/// Most events a connection's channel holds. A full channel blocks the
/// reader thread (so a peer cannot queue envelopes faster than the loop
/// answers them) and the workers (so replies cannot pile up unwritten).
const EVENT_DEPTH: usize = 16;

/// What a connection loop waits on: the reader thread's reads and the
/// workers' replies, in one channel, in arrival order.
enum Event {
    /// One result of the reader thread's deadline reads.
    Inbound(Result<Envelope, ReadError>),
    /// A worker's frame for a correlation id, stamped when it was sent.
    Reply(u64, Frame, Instant),
}

/// The reader thread of one connection: deadline reads under the full I/O
/// timeout, each result sent to the connection loop. An idle timeout reads
/// on (the loop keeps the idle clock); an envelope, or a well-formed one
/// this server cannot decode, is sent and reading goes on; any other
/// outcome is sent and ends the thread, as does `stop` or a loop that has
/// gone.
fn read_inbound<S: DeadlineStream>(
    mut stream: S,
    io_timeout: Duration,
    tick: Duration,
    stop: &AtomicBool,
    tx: &mpsc::SyncSender<Event>,
) {
    let abort = || stop.load(Ordering::Acquire);
    loop {
        let read = read_envelope_deadline(&mut stream, io_timeout, io_timeout, tick, &abort);
        let more = match &read {
            Err(ReadError::IdleTimeout) => continue,
            Ok(_) => true,
            Err(ReadError::Wire(
                WireError::UnsupportedVersion(_) | WireError::UnknownFrameType(_),
            )) => true,
            Err(_) => false,
        };
        if tx.send(Event::Inbound(read)).is_err() || !more {
            return;
        }
    }
}

/// A request the session loop has dispatched to a worker thread.
struct InflightRequest {
    /// Raised by `Cancel` (or session teardown); the pipeline polls it.
    abort: Arc<AtomicBool>,
    /// Arrival order, for out-of-order reply detection.
    seq: u64,
    handle: JoinHandle<()>,
}

/// Raises every in-flight request's abort flag, then joins the workers
/// (prompt, since each pipeline polls its flag at every hook point).
fn abort_and_join(inflight: &mut HashMap<u64, InflightRequest>) {
    for (_, req) in inflight.drain() {
        req.abort.store(true, Ordering::Release);
        let _ = req.handle.join();
    }
}

/// Per-connection reply state: the reusable encode workspace plus the
/// high-water mark of reuse hits already folded into the server counter.
struct ReplyLane {
    ws: Workspace,
    reported_reuse: u64,
}

impl ReplyLane {
    fn new() -> ReplyLane {
        ReplyLane {
            ws: Workspace::new(),
            reported_reuse: 0,
        }
    }
}

fn error(code: u16, message: impl Into<String>) -> Frame {
    Frame::Error(ErrorWire {
        code,
        message: message.into(),
    })
}

/// The reply to a well-formed frame this server does not answer, labelled
/// with the envelope `version` it names.
fn unsupported(version: u16, frame_type: u8) -> Frame {
    Frame::Unsupported(UnsupportedWire {
        version,
        frame_type,
        max_supported: MAX_VERSION,
    })
}

/// Maps registry failures onto the public setup error type.
fn registry_to_serve(e: RegistryError) -> ServeError {
    match e {
        RegistryError::Core(e) => ServeError::Core(e),
        RegistryError::Load(msg) => ServeError::Store(msg),
        RegistryError::Unknown(name) => ServeError::Store(format!("no dataset named {name:?}")),
    }
}

/// Projects an [`Explanation`] onto its deterministic wire twin: only
/// values that are bit-identical across reruns at any thread count.
/// Timings and pool metrics stay out (they belong to [`ServeStatsWire`]).
pub fn explanation_to_wire(e: &Explanation) -> ExplanationWire {
    let mut link_stats: Vec<LinkStatsWire> = e
        .stats
        .link_stats
        .iter()
        .map(|(column, ls)| LinkStatsWire {
            column: column.clone(),
            linked: ls.linked as u64,
            not_found: ls.not_found as u64,
            ambiguous: ls.ambiguous as u64,
            null: ls.null as u64,
        })
        .collect();
    link_stats.sort_by(|a, b| a.column.cmp(&b.column));
    ExplanationWire {
        attributes: e
            .attributes
            .iter()
            .map(|a| crate::wire::AttributeWire {
                name: a.name.clone(),
                source: match &a.source {
                    nexus_core::CandidateSource::BaseTable => crate::wire::SourceWire::BaseTable,
                    nexus_core::CandidateSource::Extracted { column } => {
                        crate::wire::SourceWire::Extracted {
                            column: column.clone(),
                        }
                    }
                },
                responsibility: a.responsibility,
                weighted: a.weighted,
            })
            .collect(),
        initial_cmi: e.initial_cmi,
        explained_cmi: e.explained_cmi,
        stopped_by_responsibility: e.stopped_by_responsibility,
        n_candidates_initial: e.stats.n_candidates_initial as u64,
        n_after_offline: e.stats.n_after_offline as u64,
        n_after_online: e.stats.n_after_online as u64,
        n_biased: e.stats.n_biased as u64,
        link_stats,
    }
}

//! **NEXUSRPC** — the deterministic, length-prefixed binary wire
//! protocol of the resident explanation server, one version (v2) behind
//! one [`Envelope`] codec.
//!
//! ## Envelope layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"NEXUSRPC"
//! 8       2     protocol version, u16 LE (2)
//! 10      1     frame type, u8
//! 11      4     payload length, u32 LE (capped at 64 MiB)
//! 15      8     correlation id, u64 LE (the first 8 payload bytes)
//! 23      n     frame body (frame-type specific)
//! 23+n    4     CRC-32 (IEEE) over bytes [0, 23+n), u32 LE
//! ```
//!
//! The correlation id lets one connection carry many in-flight requests
//! with out-of-order replies, alongside the session frames
//! ([`Frame::Hello`], [`Frame::HelloAck`], [`Frame::Cancel`],
//! [`Frame::Progress`], [`Frame::Partial`]) of the [`v2`] module, the
//! dataset registry frames, and the telemetry frames
//! ([`Frame::MetricsRequest`], [`Frame::MetricsReply`],
//! [`Frame::TraceRequest`], [`Frame::TraceReply`]). Version 1 (no
//! correlation id) and frame types 6 and 7 (its fixed-layout stats pair)
//! are retired: a version-1 envelope is an unsupported version like any
//! other, and types 6/7 are unknown frame types.
//!
//! All integers are little-endian; floats travel as their IEEE-754 bit
//! pattern (`f64::to_bits`), so every value round-trips bit-exactly —
//! the property the server's byte-identity cache guarantee rests on.
//! Strings are UTF-8 with a `u32` byte-length prefix.
//!
//! [`Envelope::encode_into`] is the single encode path — header, payload
//! and CRC — writing into a reusable [`Workspace`] buffer;
//! [`Envelope::decode`] is a pure function over byte slices, so the
//! protocol is usable (and tested) without any socket.
//! [`read_envelope`]/[`write_envelope`] adapt them to `Read`/`Write`
//! streams.
//!
//! Decoding never panics: truncated, oversized, corrupted (CRC), or
//! malformed inputs produce a [`WireError`]. Frames with an unknown
//! version or frame type are consumed in full and reported as
//! [`WireError::UnsupportedVersion`] / [`WireError::UnknownFrameType`] so
//! a server can keep the stream alive and answer with
//! [`Frame::Unsupported`].

mod envelope;
pub mod v2;

pub(crate) use envelope::encode_parts_into;
pub use envelope::{read_envelope, write_envelope, Envelope, FrameHeader, Workspace};
pub use v2::{CallOverrides, HelloAckWire, HelloWire, PartialWire, ProgressWire};

/// Protocol magic, the first eight bytes of every frame.
pub const MAGIC: [u8; 8] = *b"NEXUSRPC";
/// The protocol version this build speaks (see [`v2`]); `Hello` offers
/// it and `Unsupported` names it.
pub const MAX_VERSION: u16 = v2::VERSION;
/// Frame header length (magic + version + type + payload length).
pub const HEADER_LEN: usize = 15;
/// Maximum accepted payload length (64 MiB).
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Decoding/encoding failures. Every decode path returns one of these —
/// never panics — so a server survives arbitrary bytes on the wire.
#[derive(Debug)]
pub enum WireError {
    /// Fewer bytes than the header or the declared payload length.
    Truncated,
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// Well-formed frame of a version this build does not speak.
    UnsupportedVersion(u16),
    /// Well-formed frame of an unknown (or retired) type.
    UnknownFrameType(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge(u32),
    /// Checksum mismatch: the frame was corrupted in transit.
    BadCrc {
        /// CRC recomputed over the received bytes.
        computed: u32,
        /// CRC carried by the frame.
        stored: u32,
    },
    /// Payload structure does not match the frame type.
    Malformed(&'static str),
    /// Stream-level I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic => write!(f, "bad magic (not a NEXUSRPC stream)"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds cap"),
            WireError::BadCrc { computed, stored } => {
                write!(
                    f,
                    "CRC mismatch: computed {computed:#010x}, stored {stored:#010x}"
                )
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Decoding result.
pub type Result<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE) of `bytes` — the checksum trailing every frame; NXCOL's
/// slicing-by-8 implementation.
pub use nexus_store::crc32;

// ---------------------------------------------------------------------------
// Primitive encode/decode
// ---------------------------------------------------------------------------

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over a payload slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool tag")),
        }
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    pub(crate) fn finish(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }

    /// Bytes not yet consumed — a sanity cap for declared element counts
    /// (each element is at least one byte, so a count beyond this is
    /// malformed, not merely large).
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---------------------------------------------------------------------------
// Payload types
// ---------------------------------------------------------------------------

/// An explanation request: which resident dataset, and the aggregate SQL
/// query whose correlation is to be explained.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExplainRequestWire {
    /// Name of a dataset resident on the server.
    pub dataset: String,
    /// The aggregate query, as SQL text (parsed server-side).
    pub sql: String,
    /// Per-call option overrides (the empty default leaves the server's
    /// options in force).
    pub overrides: CallOverrides,
}

/// Where a selected attribute came from (wire twin of
/// `nexus_core::CandidateSource`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceWire {
    /// A column of the queried table.
    BaseTable,
    /// Extracted from the knowledge graph via the named column.
    Extracted {
        /// The extraction column.
        column: String,
    },
}

/// One selected attribute of an explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeWire {
    /// Candidate name (`"Country::hdi"` or `"Gender"`).
    pub name: String,
    /// Provenance.
    pub source: SourceWire,
    /// Degree of responsibility.
    pub responsibility: f64,
    /// Whether IPW weights were applied.
    pub weighted: bool,
}

/// Per-extraction-column linking statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStatsWire {
    /// The extraction column.
    pub column: String,
    /// Rows resolved to an entity.
    pub linked: u64,
    /// Rows with no candidate entity.
    pub not_found: u64,
    /// Rows with multiple candidate entities.
    pub ambiguous: u64,
    /// Null rows.
    pub null: u64,
}

/// The deterministic body of an explanation reply.
///
/// This is the unit the server caches and compares byte-for-byte: it
/// carries only values that are bit-identical across reruns at any thread
/// count (attributes, CMIs, candidate counters, link statistics) and
/// deliberately **excludes** timings and pool metrics, which live in the
/// volatile [`ServeStatsWire`] alongside it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExplanationWire {
    /// Selected attributes, in selection order.
    pub attributes: Vec<AttributeWire>,
    /// `I(O;T|C)` in bits.
    pub initial_cmi: f64,
    /// `I(O;T|C,E)` in bits.
    pub explained_cmi: f64,
    /// Whether the responsibility test stopped selection early.
    pub stopped_by_responsibility: bool,
    /// Candidates before pruning.
    pub n_candidates_initial: u64,
    /// Candidates after offline pruning.
    pub n_after_offline: u64,
    /// Candidates after online pruning.
    pub n_after_online: u64,
    /// Candidates flagged as selection-biased.
    pub n_biased: u64,
    /// Link statistics, sorted by column name for determinism.
    pub link_stats: Vec<LinkStatsWire>,
}

impl ExplanationWire {
    /// Deterministic encoding — equal values produce equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.attributes.len() as u32);
        for a in &self.attributes {
            put_str(&mut out, &a.name);
            match &a.source {
                SourceWire::BaseTable => out.push(0),
                SourceWire::Extracted { column } => {
                    out.push(1);
                    put_str(&mut out, column);
                }
            }
            put_f64(&mut out, a.responsibility);
            out.push(a.weighted as u8);
        }
        put_f64(&mut out, self.initial_cmi);
        put_f64(&mut out, self.explained_cmi);
        out.push(self.stopped_by_responsibility as u8);
        put_u64(&mut out, self.n_candidates_initial);
        put_u64(&mut out, self.n_after_offline);
        put_u64(&mut out, self.n_after_online);
        put_u64(&mut out, self.n_biased);
        put_u32(&mut out, self.link_stats.len() as u32);
        for ls in &self.link_stats {
            put_str(&mut out, &ls.column);
            put_u64(&mut out, ls.linked);
            put_u64(&mut out, ls.not_found);
            put_u64(&mut out, ls.ambiguous);
            put_u64(&mut out, ls.null);
        }
        out
    }

    /// Decodes an [`ExplanationWire::encode`] buffer.
    pub fn decode(buf: &[u8]) -> Result<ExplanationWire> {
        let mut r = Reader::new(buf);
        let e = Self::read(&mut r)?;
        r.finish()?;
        Ok(e)
    }

    fn read(r: &mut Reader<'_>) -> Result<ExplanationWire> {
        let n_attrs = r.u32()? as usize;
        if n_attrs > buf_cap(r) {
            return Err(WireError::Malformed("attribute count"));
        }
        let mut attributes = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            let name = r.str()?;
            let source = match r.u8()? {
                0 => SourceWire::BaseTable,
                1 => SourceWire::Extracted { column: r.str()? },
                _ => return Err(WireError::Malformed("source tag")),
            };
            let responsibility = r.f64()?;
            let weighted = r.bool()?;
            attributes.push(AttributeWire {
                name,
                source,
                responsibility,
                weighted,
            });
        }
        let initial_cmi = r.f64()?;
        let explained_cmi = r.f64()?;
        let stopped_by_responsibility = r.bool()?;
        let n_candidates_initial = r.u64()?;
        let n_after_offline = r.u64()?;
        let n_after_online = r.u64()?;
        let n_biased = r.u64()?;
        let n_ls = r.u32()? as usize;
        if n_ls > buf_cap(r) {
            return Err(WireError::Malformed("link-stats count"));
        }
        let mut link_stats = Vec::with_capacity(n_ls);
        for _ in 0..n_ls {
            link_stats.push(LinkStatsWire {
                column: r.str()?,
                linked: r.u64()?,
                not_found: r.u64()?,
                ambiguous: r.u64()?,
                null: r.u64()?,
            });
        }
        Ok(ExplanationWire {
            attributes,
            initial_cmi,
            explained_cmi,
            stopped_by_responsibility,
            n_candidates_initial,
            n_after_offline,
            n_after_online,
            n_biased,
            link_stats,
        })
    }
}

/// Remaining bytes of the reader (see [`Reader::remaining`]).
fn buf_cap(r: &Reader<'_>) -> usize {
    r.remaining()
}

/// Volatile per-request server statistics, carried alongside the cached
/// explanation bytes (never inside them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStatsWire {
    /// Whether this reply was served from the result cache.
    pub cache_hit: bool,
    /// Cumulative cache hits after this request.
    pub cache_hits: u64,
    /// Cumulative cache misses after this request.
    pub cache_misses: u64,
    /// Pool tasks scored for this request (0 on a cache hit — the
    /// pipeline never ran).
    pub scored_tasks: u64,
    /// Nanoseconds spent queued for a pipeline slot.
    pub queue_nanos: u64,
    /// Nanoseconds from arrival to reply encoding.
    pub service_nanos: u64,
}

impl ServeStatsWire {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(self.cache_hit as u8);
        put_u64(out, self.cache_hits);
        put_u64(out, self.cache_misses);
        put_u64(out, self.scored_tasks);
        put_u64(out, self.queue_nanos);
        put_u64(out, self.service_nanos);
    }

    fn read(r: &mut Reader<'_>) -> Result<ServeStatsWire> {
        Ok(ServeStatsWire {
            cache_hit: r.bool()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            scored_tasks: r.u64()?,
            queue_nanos: r.u64()?,
            service_nanos: r.u64()?,
        })
    }
}

/// An explanation reply: the deterministic explanation bytes (cached
/// verbatim server-side) plus the volatile per-request statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplanationReplyWire {
    /// Nested [`ExplanationWire::encode`] bytes. Kept encoded so cache
    /// hits echo the stored bytes untouched.
    pub explanation: Vec<u8>,
    /// Per-request statistics.
    pub stats: ServeStatsWire,
}

/// An error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorWire {
    /// Machine-readable error code (see [`error_code`]).
    pub code: u16,
    /// Human-readable message.
    pub message: String,
}

/// Error codes carried by [`ErrorWire`].
pub mod error_code {
    /// The named dataset is not resident on the server.
    pub const UNKNOWN_DATASET: u16 = 1;
    /// The SQL text failed to parse.
    pub const BAD_QUERY: u16 = 2;
    /// The pipeline rejected the request.
    pub const PIPELINE: u16 = 3;
    /// The server is shutting down.
    pub const SHUTTING_DOWN: u16 = 4;
    /// The server is at its connection cap; retry after a backoff.
    pub const BUSY: u16 = 5;
    /// The connection idled, or a frame arrived too slowly, past the
    /// server's I/O deadline; the server closes the stream after this.
    pub const TIMEOUT: u16 = 6;
    /// The frame declared a payload beyond the 64 MiB cap; the server
    /// closes the stream after this (it cannot resynchronize).
    pub const FRAME_TOO_LARGE: u16 = 7;
    /// The request was aborted by a [`Cancel`](super::Frame::Cancel)
    /// frame (or its connection went away) before it finished.
    pub const CANCELLED: u16 = 8;
    /// A v2 request reused a correlation id that is still in flight, or
    /// addressed a control frame at an id the server does not know.
    pub const BAD_CORRELATION: u16 = 9;
    /// A dataset store file could not be read, failed NXCOL validation,
    /// or its knowledge graph failed to load.
    pub const STORE: u16 = 10;
}

/// One named metric in a [`Frame::MetricsReply`]: self-describing
/// name→value pairs, so new counters never need new fixed wire fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricWire {
    /// Dotted registry name (`serve.cache.hits`).
    pub name: String,
    /// Metric kind tag (`nexus_telemetry::MetricKind::as_u8`). Unknown
    /// tags are carried through, not rejected — forward compatible.
    pub kind: u8,
    /// Current value.
    pub value: u64,
}

/// The full metrics snapshot (v2 reply to `MetricsRequest`), sorted by
/// name — registry iteration order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReplyWire {
    /// All metrics, sorted by name.
    pub metrics: Vec<MetricWire>,
}

/// Requests the last-N request span trees (v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceRequestWire {
    /// How many most-recent traces to return (capped by the server's ring
    /// capacity).
    pub last: u32,
}

/// One span of a traced request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanWire {
    /// Stage name (`assemble`, `select`, ... or the `explain` root).
    pub name: String,
    /// Depth in the span tree (root 0, stages 1).
    pub depth: u32,
    /// Deterministic work count (kernel build delta) — what tests assert.
    pub count: u64,
    /// Monotonic duration, for humans only.
    pub duration_nanos: u64,
}

/// One traced request: its corr-id and span tree in preorder.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceWire {
    /// Correlation id of the traced request (0 for requests answered in
    /// process by `Server::handle`).
    pub corr_id: u64,
    /// Spans in preorder.
    pub spans: Vec<SpanWire>,
}

/// The last-N traces (v2 reply to `TraceRequest`), newest first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReplyWire {
    /// Most recent traces, newest first.
    pub traces: Vec<TraceWire>,
}

/// Registers a store-backed dataset (v2): the server validates the NXCOL
/// header eagerly but materializes the table and its KG extraction
/// artifacts lazily, on the first request that needs them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoadDatasetWire {
    /// Registry name for the dataset.
    pub name: String,
    /// Server-side path of the NXCOL table file.
    pub table_path: String,
    /// Server-side path of the knowledge-graph TSV (empty = serve with an
    /// empty knowledge graph).
    pub kg_path: String,
    /// Columns to mine KG candidates from.
    pub extraction_columns: Vec<String>,
}

/// Drops a dataset's resident artifacts (v2). The registration survives:
/// the next request re-materializes from the source.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvictDatasetWire {
    /// Registry name of the dataset.
    pub name: String,
}

/// Acknowledges a `LoadDataset`/`EvictDataset` (v2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DatasetAckWire {
    /// Registry name of the dataset.
    pub name: String,
    /// Whether the dataset's artifacts are materialized after the
    /// operation (`false` for a lazy registration or an eviction).
    pub resident: bool,
}

/// One registry entry in a [`DatasetListWire`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DatasetEntryWire {
    /// Registry name.
    pub name: String,
    /// Whether the artifacts are currently materialized.
    pub resident: bool,
    /// Table rows (0 when not resident).
    pub rows: u64,
    /// NXCOL-encoded size of the resident table (0 when not resident).
    pub store_bytes: u64,
    /// Dataset fingerprint from the last materialization (0 if the
    /// dataset has never been loaded).
    pub fingerprint: u64,
}

/// The registry listing (v2 reply to `ListDatasets`), sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DatasetListWire {
    /// All registered datasets, resident or not, sorted by name.
    pub datasets: Vec<DatasetEntryWire>,
}

/// Echo of the envelope a peer could not handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedWire {
    /// Version of the rejected frame.
    pub version: u16,
    /// Frame type of the rejected frame.
    pub frame_type: u8,
    /// Highest version the replying peer speaks.
    pub max_supported: u16,
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// One NEXUSRPC frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Liveness probe.
    Ping,
    /// Liveness answer.
    Pong,
    /// Explanation request.
    Explain(ExplainRequestWire),
    /// Explanation reply.
    Explanation(ExplanationReplyWire),
    /// Error reply.
    Error(ErrorWire),
    /// Graceful shutdown request.
    Shutdown,
    /// Shutdown acknowledgement (the server exits after sending it).
    ShutdownAck,
    /// Reply to a frame of an unknown version or type.
    Unsupported(UnsupportedWire),
    /// Session negotiation opener: the client's highest version.
    Hello(HelloWire),
    /// Session negotiation answer: the agreed version and the server's
    /// in-flight cap.
    HelloAck(HelloAckWire),
    /// Abort the in-flight request addressed by this envelope's
    /// correlation id (empty body).
    Cancel,
    /// Stage-boundary progress notification for an in-flight request.
    Progress(ProgressWire),
    /// Top-k-so-far streaming update for an in-flight request.
    Partial(PartialWire),
    /// Register a store-backed dataset.
    LoadDataset(LoadDatasetWire),
    /// Drop a dataset's resident artifacts.
    EvictDataset(EvictDatasetWire),
    /// Request the registry listing (empty body).
    ListDatasets,
    /// Registry listing reply.
    DatasetList(DatasetListWire),
    /// Load/evict acknowledgement.
    DatasetAck(DatasetAckWire),
    /// Request the full metrics snapshot (empty body).
    MetricsRequest,
    /// Metrics snapshot reply: sorted name→value pairs.
    MetricsReply(MetricsReplyWire),
    /// Request the last-N request span trees.
    TraceRequest(TraceRequestWire),
    /// Span-tree reply, newest first.
    TraceReply(TraceReplyWire),
}

impl Frame {
    /// The frame-type byte of the envelope. Types 6 and 7 are retired
    /// (they carried the fixed-layout stats pair of version 1) and stay
    /// unassigned.
    pub fn frame_type(&self) -> u8 {
        match self {
            Frame::Ping => 1,
            Frame::Pong => 2,
            Frame::Explain(_) => 3,
            Frame::Explanation(_) => 4,
            Frame::Error(_) => 5,
            Frame::Shutdown => 8,
            Frame::ShutdownAck => 9,
            Frame::Unsupported(_) => 10,
            Frame::Hello(_) => 11,
            Frame::HelloAck(_) => 12,
            Frame::Cancel => 13,
            Frame::Progress(_) => 14,
            Frame::Partial(_) => 15,
            Frame::LoadDataset(_) => 16,
            Frame::EvictDataset(_) => 17,
            Frame::ListDatasets => 18,
            Frame::DatasetList(_) => 19,
            Frame::DatasetAck(_) => 20,
            Frame::MetricsRequest => 21,
            Frame::MetricsReply(_) => 22,
            Frame::TraceRequest(_) => 23,
            Frame::TraceReply(_) => 24,
        }
    }

    pub(crate) fn encode_payload_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Ping
            | Frame::Pong
            | Frame::Shutdown
            | Frame::ShutdownAck
            | Frame::Cancel
            | Frame::ListDatasets
            | Frame::MetricsRequest => {}
            Frame::Explain(req) => {
                put_str(out, &req.dataset);
                put_str(out, &req.sql);
                req.overrides.write(out);
            }
            Frame::Explanation(reply) => {
                put_u32(out, reply.explanation.len() as u32);
                out.extend_from_slice(&reply.explanation);
                reply.stats.write(out);
            }
            Frame::Error(e) => {
                put_u16(out, e.code);
                put_str(out, &e.message);
            }
            Frame::Unsupported(u) => {
                put_u16(out, u.version);
                out.push(u.frame_type);
                put_u16(out, u.max_supported);
            }
            Frame::Hello(h) => put_u16(out, h.max_version),
            Frame::HelloAck(h) => {
                put_u16(out, h.version);
                put_u32(out, h.max_inflight);
            }
            Frame::Progress(p) => put_str(out, &p.stage),
            Frame::LoadDataset(d) => {
                put_str(out, &d.name);
                put_str(out, &d.table_path);
                put_str(out, &d.kg_path);
                put_u32(out, d.extraction_columns.len() as u32);
                for column in &d.extraction_columns {
                    put_str(out, column);
                }
            }
            Frame::EvictDataset(d) => put_str(out, &d.name),
            Frame::DatasetAck(a) => {
                put_str(out, &a.name);
                out.push(a.resident as u8);
            }
            Frame::DatasetList(l) => {
                put_u32(out, l.datasets.len() as u32);
                for d in &l.datasets {
                    put_str(out, &d.name);
                    out.push(d.resident as u8);
                    put_u64(out, d.rows);
                    put_u64(out, d.store_bytes);
                    put_u64(out, d.fingerprint);
                }
            }
            Frame::Partial(p) => {
                put_u32(out, p.selected.len() as u32);
                for name in &p.selected {
                    put_str(out, name);
                }
                put_f64(out, p.cmi_so_far);
                put_f64(out, p.initial_cmi);
            }
            Frame::MetricsReply(m) => {
                put_u32(out, m.metrics.len() as u32);
                for metric in &m.metrics {
                    put_str(out, &metric.name);
                    out.push(metric.kind);
                    put_u64(out, metric.value);
                }
            }
            Frame::TraceRequest(t) => put_u32(out, t.last),
            Frame::TraceReply(t) => {
                put_u32(out, t.traces.len() as u32);
                for trace in &t.traces {
                    put_u64(out, trace.corr_id);
                    put_u32(out, trace.spans.len() as u32);
                    for span in &trace.spans {
                        put_str(out, &span.name);
                        put_u32(out, span.depth);
                        put_u64(out, span.count);
                        put_u64(out, span.duration_nanos);
                    }
                }
            }
        }
    }

    /// Decodes a frame body; unknown and retired frame types are
    /// [`WireError::UnknownFrameType`].
    pub(crate) fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame> {
        let mut r = Reader::new(payload);
        let frame = match frame_type {
            1 => Frame::Ping,
            2 => Frame::Pong,
            3 => {
                let dataset = r.str()?;
                let sql = r.str()?;
                let overrides = CallOverrides::read(&mut r)?;
                Frame::Explain(ExplainRequestWire {
                    dataset,
                    sql,
                    overrides,
                })
            }
            4 => {
                let n = r.u32()? as usize;
                let explanation = r.take(n)?.to_vec();
                let stats = ServeStatsWire::read(&mut r)?;
                Frame::Explanation(ExplanationReplyWire { explanation, stats })
            }
            5 => {
                let code = {
                    let b = r.take(2)?;
                    u16::from_le_bytes([b[0], b[1]])
                };
                Frame::Error(ErrorWire {
                    code,
                    message: r.str()?,
                })
            }
            8 => Frame::Shutdown,
            9 => Frame::ShutdownAck,
            10 => {
                let version = {
                    let b = r.take(2)?;
                    u16::from_le_bytes([b[0], b[1]])
                };
                let frame_type = r.u8()?;
                let max_supported = {
                    let b = r.take(2)?;
                    u16::from_le_bytes([b[0], b[1]])
                };
                Frame::Unsupported(UnsupportedWire {
                    version,
                    frame_type,
                    max_supported,
                })
            }
            11 => Frame::Hello(HelloWire {
                max_version: r.u16()?,
            }),
            12 => Frame::HelloAck(HelloAckWire {
                version: r.u16()?,
                max_inflight: r.u32()?,
            }),
            13 => Frame::Cancel,
            14 => Frame::Progress(ProgressWire { stage: r.str()? }),
            15 => {
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed("partial selection count"));
                }
                let mut selected = Vec::with_capacity(n);
                for _ in 0..n {
                    selected.push(r.str()?);
                }
                Frame::Partial(PartialWire {
                    selected,
                    cmi_so_far: r.f64()?,
                    initial_cmi: r.f64()?,
                })
            }
            16 => {
                let name = r.str()?;
                let table_path = r.str()?;
                let kg_path = r.str()?;
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed("extraction-column count"));
                }
                let mut extraction_columns = Vec::with_capacity(n);
                for _ in 0..n {
                    extraction_columns.push(r.str()?);
                }
                Frame::LoadDataset(LoadDatasetWire {
                    name,
                    table_path,
                    kg_path,
                    extraction_columns,
                })
            }
            17 => Frame::EvictDataset(EvictDatasetWire { name: r.str()? }),
            18 => Frame::ListDatasets,
            19 => {
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed("dataset count"));
                }
                let mut datasets = Vec::with_capacity(n);
                for _ in 0..n {
                    datasets.push(DatasetEntryWire {
                        name: r.str()?,
                        resident: r.bool()?,
                        rows: r.u64()?,
                        store_bytes: r.u64()?,
                        fingerprint: r.u64()?,
                    });
                }
                Frame::DatasetList(DatasetListWire { datasets })
            }
            20 => Frame::DatasetAck(DatasetAckWire {
                name: r.str()?,
                resident: r.bool()?,
            }),
            21 => Frame::MetricsRequest,
            22 => {
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed("metric count"));
                }
                let mut metrics = Vec::with_capacity(n);
                for _ in 0..n {
                    metrics.push(MetricWire {
                        name: r.str()?,
                        kind: r.u8()?,
                        value: r.u64()?,
                    });
                }
                Frame::MetricsReply(MetricsReplyWire { metrics })
            }
            23 => Frame::TraceRequest(TraceRequestWire { last: r.u32()? }),
            24 => {
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed("trace count"));
                }
                let mut traces = Vec::with_capacity(n);
                for _ in 0..n {
                    let corr_id = r.u64()?;
                    let n_spans = r.u32()? as usize;
                    if n_spans > r.remaining() {
                        return Err(WireError::Malformed("span count"));
                    }
                    let mut spans = Vec::with_capacity(n_spans);
                    for _ in 0..n_spans {
                        spans.push(SpanWire {
                            name: r.str()?,
                            depth: r.u32()?,
                            count: r.u64()?,
                            duration_nanos: r.u64()?,
                        });
                    }
                    traces.push(TraceWire { corr_id, spans });
                }
                Frame::TraceReply(TraceReplyWire { traces })
            }
            other => return Err(WireError::UnknownFrameType(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reply() -> Frame {
        let exp = ExplanationWire {
            attributes: vec![
                AttributeWire {
                    name: "Country::hdi".into(),
                    source: SourceWire::Extracted {
                        column: "Country".into(),
                    },
                    responsibility: 0.875,
                    weighted: false,
                },
                AttributeWire {
                    name: "Gender".into(),
                    source: SourceWire::BaseTable,
                    responsibility: 0.125,
                    weighted: true,
                },
            ],
            initial_cmi: 1.5,
            explained_cmi: 0.0625,
            stopped_by_responsibility: true,
            n_candidates_initial: 40,
            n_after_offline: 12,
            n_after_online: 9,
            n_biased: 1,
            link_stats: vec![LinkStatsWire {
                column: "Country".into(),
                linked: 700,
                not_found: 12,
                ambiguous: 3,
                null: 5,
            }],
        };
        Frame::Explanation(ExplanationReplyWire {
            explanation: exp.encode(),
            stats: ServeStatsWire {
                cache_hit: false,
                cache_hits: 0,
                cache_misses: 1,
                scored_tasks: 123,
                queue_nanos: 42,
                service_nanos: 98_765,
            },
        })
    }

    /// Encodes `frame` under `corr`, checks the pure decoder and the
    /// stream reader both return it intact, and returns the bytes.
    fn assert_round_trip(corr: u64, frame: Frame) -> Vec<u8> {
        let env = Envelope::v2(corr, frame);
        let bytes = env.encode();
        let (decoded, consumed) = Envelope::decode(&bytes).expect("decode");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, env);
        let mut cursor = std::io::Cursor::new(&bytes);
        assert_eq!(read_envelope(&mut cursor).expect("read"), env);
        bytes
    }

    /// Recomputes the CRC trailer after a test patched header bytes.
    fn reseal(bytes: &mut [u8]) {
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Ping,
            Frame::Pong,
            Frame::Explain(ExplainRequestWire {
                dataset: "salaries".into(),
                sql: "SELECT Country, avg(Salary) FROM t GROUP BY Country".into(),
                overrides: CallOverrides::default(),
            }),
            sample_reply(),
            Frame::Error(ErrorWire {
                code: error_code::BAD_QUERY,
                message: "no GROUP BY".into(),
            }),
            Frame::Shutdown,
            Frame::ShutdownAck,
            Frame::Unsupported(UnsupportedWire {
                version: 9,
                frame_type: 77,
                max_supported: MAX_VERSION,
            }),
        ];
        for (corr, frame) in frames.into_iter().enumerate() {
            assert_round_trip(corr as u64, frame);
        }
    }

    #[test]
    fn registry_frames_round_trip() {
        let frames = vec![
            Frame::LoadDataset(LoadDatasetWire {
                name: "wdi".into(),
                table_path: "/data/wdi.nxcol".into(),
                kg_path: "/data/kg.tsv".into(),
                extraction_columns: vec!["Country".into(), "City".into()],
            }),
            Frame::LoadDataset(LoadDatasetWire {
                name: "bare".into(),
                table_path: "t.nxcol".into(),
                kg_path: String::new(), // no KG
                extraction_columns: vec![],
            }),
            Frame::EvictDataset(EvictDatasetWire { name: "wdi".into() }),
            Frame::ListDatasets,
            Frame::DatasetList(DatasetListWire {
                datasets: vec![
                    DatasetEntryWire {
                        name: "salaries".into(),
                        resident: true,
                        rows: 270,
                        store_bytes: 4_096,
                        fingerprint: 7,
                    },
                    DatasetEntryWire {
                        name: "wdi".into(),
                        resident: false,
                        rows: 0,
                        store_bytes: 0,
                        fingerprint: 0,
                    },
                ],
            }),
            Frame::DatasetAck(DatasetAckWire {
                name: "wdi".into(),
                resident: false,
            }),
        ];
        for frame in frames {
            assert_round_trip(42, frame);
        }
    }

    #[test]
    fn telemetry_frames_round_trip() {
        let frames = vec![
            Frame::MetricsRequest,
            Frame::MetricsReply(MetricsReplyWire {
                metrics: vec![
                    MetricWire {
                        name: "kernel.builds.dense".into(),
                        kind: 1,
                        value: 42,
                    },
                    MetricWire {
                        name: "serve.cache.hits".into(),
                        kind: 0,
                        value: 7,
                    },
                    MetricWire {
                        name: "serve.request.service_nanos.sum".into(),
                        kind: 3,
                        value: u64::MAX,
                    },
                ],
            }),
            Frame::MetricsReply(MetricsReplyWire::default()),
            Frame::TraceRequest(TraceRequestWire { last: 16 }),
            Frame::TraceReply(TraceReplyWire {
                traces: vec![
                    TraceWire {
                        corr_id: 9,
                        spans: vec![
                            SpanWire {
                                name: "explain".into(),
                                depth: 0,
                                count: 12,
                                duration_nanos: 1_000_000,
                            },
                            SpanWire {
                                name: "assemble".into(),
                                depth: 1,
                                count: 3,
                                duration_nanos: 250_000,
                            },
                        ],
                    },
                    TraceWire {
                        corr_id: 0,
                        spans: vec![],
                    },
                ],
            }),
            Frame::TraceReply(TraceReplyWire::default()),
        ];
        for frame in frames {
            assert_round_trip(7, frame);
        }
    }

    #[test]
    fn explanation_wire_round_trips_bit_exactly() {
        let exp = ExplanationWire {
            attributes: vec![AttributeWire {
                name: "x".into(),
                source: SourceWire::BaseTable,
                responsibility: -0.0, // sign bit must survive
                weighted: false,
            }],
            initial_cmi: f64::from_bits(0x7FF0_0000_0000_0001), // a NaN payload
            explained_cmi: 1.0e-308,                            // subnormal range
            ..ExplanationWire::default()
        };
        let bytes = exp.encode();
        let back = ExplanationWire::decode(&bytes).expect("decode");
        assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
        assert_eq!(
            back.attributes[0].responsibility.to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(back.initial_cmi.to_bits(), 0x7FF0_0000_0000_0001);
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = Envelope::v2(3, sample_reply()).encode();
        for n in 0..bytes.len() {
            match Envelope::decode(&bytes[..n]) {
                Err(_) => {}
                Ok((_, consumed)) => panic!("decoded {consumed} bytes from a {n}-byte prefix"),
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = Envelope::v2(3, sample_reply()).encode();
        // Flip one bit at every position: magic, header, corr id, body, or
        // CRC — all must fail, none may panic.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Envelope::decode(&bad).is_err(),
                "bit flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn unknown_version_and_type_are_recoverable() {
        let mut bytes = Envelope::v2(1, Frame::Ping).encode();
        bytes[8] = 99; // version
        reseal(&mut bytes);
        match Envelope::decode(&bytes) {
            Err(WireError::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }

        // An unknown type and the two retired stats types alike.
        for frame_type in [200u8, 6, 7] {
            let mut bytes = Envelope::v2(1, Frame::Ping).encode();
            bytes[10] = frame_type;
            reseal(&mut bytes);
            match Envelope::decode(&bytes) {
                Err(WireError::UnknownFrameType(t)) => assert_eq!(t, frame_type),
                other => panic!("expected UnknownFrameType, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_payload_is_rejected_without_allocation() {
        let mut bytes = Envelope::v2(1, Frame::Ping).encode();
        bytes[11..15].copy_from_slice(&u32::MAX.to_le_bytes());
        match Envelope::decode(&bytes) {
            Err(WireError::PayloadTooLarge(n)) => assert_eq!(n, u32::MAX),
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn frame_header_parse_agrees_with_decoders() {
        let bytes = Envelope::v2(5, sample_reply()).encode();
        let header: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().unwrap();
        let h = FrameHeader::parse(&header).expect("valid header");
        assert_eq!(h.version, MAX_VERSION);
        assert_eq!(h.frame_type, sample_reply().frame_type());
        assert_eq!(HEADER_LEN + h.rest_len(), bytes.len());

        let mut bad = header;
        bad[0] ^= 0xFF;
        assert!(matches!(FrameHeader::parse(&bad), Err(WireError::BadMagic)));
        let mut oversize = header;
        oversize[11..15].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            FrameHeader::parse(&oversize),
            Err(WireError::PayloadTooLarge(n)) if n == MAX_PAYLOAD + 1
        ));
        // Foreign version/type still parse — the reader must be able to
        // consume the envelope before answering Unsupported.
        let mut foreign = header;
        foreign[8..10].copy_from_slice(&9u16.to_le_bytes());
        foreign[10] = 250;
        let f = FrameHeader::parse(&foreign).expect("foreign header parses");
        assert_eq!((f.version, f.frame_type), (9, 250));
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let a = Envelope::v2(1, Frame::Ping).encode();
        let b = Envelope::v2(2, Frame::MetricsRequest).encode();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (f1, n1) = Envelope::decode(&stream).unwrap();
        assert_eq!(f1.frame, Frame::Ping);
        let (f2, n2) = Envelope::decode(&stream[n1..]).unwrap();
        assert_eq!((f2.corr_id, f2.frame), (2, Frame::MetricsRequest));
        assert_eq!(n1 + n2, stream.len());
    }
}

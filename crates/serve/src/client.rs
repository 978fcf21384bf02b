//! Blocking NEXUSRPC clients over Unix or TCP streams.
//!
//! Two client shapes share the connection plumbing here:
//!
//! * [`Client`] — the classic v1 one-request-at-a-time client, with
//!   optional retry-with-jittered-backoff against a governed server.
//!   Requests are described by the typed [`ExplainCall`] builder and
//!   submitted with [`Client::call`].
//! * [`Session`] — a negotiated v2 session that pipelines many
//!   correlation-id'd requests over one connection. [`Session::submit`]
//!   returns a [`Ticket`] immediately; the reply (plus streamed
//!   `Progress`/`Partial` frames) is collected by whichever ticket holder
//!   blocks in [`Ticket::wait`], and [`Ticket::cancel`] aborts the
//!   server-side run mid-pipeline.
//!
//! Every NEXUSRPC request is idempotent (`Explain` replies are
//! deterministic and cached server-side), so a client may safely retry
//! transient failures: `Busy` rejections from a server at its connection
//! limit, timeout replies, and torn connections. [`RetryPolicy`]
//! configures how often and how patiently; retries reconnect from the
//! remembered endpoint and use a deterministic, seeded [`Backoff`] whose
//! jitter decorrelates stampeding clients without sacrificing
//! reproducibility.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nexus_runtime::Backoff;

use crate::wire::{
    error_code, read_envelope, read_frame, v2, write_envelope, write_frame, CallOverrides,
    DatasetAckWire, DatasetEntryWire, Envelope, ErrorWire, EvictDatasetWire, ExplainRequestWire,
    ExplanationWire, Frame, HelloWire, LoadDatasetWire, MetricWire, PartialWire, ServeStatsWire,
    ServerStatsWire, TraceRequestWire, TraceWire, WireError, Workspace, MAX_VERSION,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or protocol failure.
    Wire(WireError),
    /// The server answered with an error frame.
    Server(ErrorWire),
    /// The server answered with a frame the client did not expect.
    Unexpected(&'static str),
    /// The call uses v2-only features (per-call overrides); submit it
    /// through a [`Session`] instead of a v1 [`Client`].
    NeedsSession,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server(e) => write!(f, "server error {}: {}", e.code, e.message),
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
            ClientError::NeedsSession => {
                write!(
                    f,
                    "call carries per-call overrides; submit it via a v2 Session"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// A served explanation: the decoded body, the raw deterministic bytes it
/// was decoded from (for byte-identity checks), and the per-request
/// server statistics.
#[derive(Debug, Clone)]
pub struct ExplainResponse {
    /// The decoded explanation.
    pub explanation: ExplanationWire,
    /// The deterministic payload bytes exactly as served (and cached).
    pub explanation_bytes: Vec<u8>,
    /// Per-request server statistics.
    pub stats: ServeStatsWire,
}

/// When and how a [`Client`] retries transient failures (`Busy`
/// rejections, timeout replies, torn connections). Retries reconnect and
/// resend after a jittered exponential backoff.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }
}

/// A failure worth retrying: the server said "come back later", or the
/// connection died in a way a fresh one may survive.
fn retryable(e: &ClientError) -> bool {
    match e {
        ClientError::Server(err) => err.code == error_code::BUSY || err.code == error_code::TIMEOUT,
        ClientError::Wire(WireError::Truncated) => true,
        ClientError::Wire(WireError::Io(io)) => matches!(
            io.kind(),
            ErrorKind::WouldBlock
                | ErrorKind::TimedOut
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::ConnectionRefused
                | ErrorKind::BrokenPipe
                | ErrorKind::UnexpectedEof
                | ErrorKind::NotConnected
        ),
        _ => false,
    }
}

/// The remembered server address, so retries can reconnect.
#[derive(Debug, Clone)]
enum Endpoint {
    Unix(PathBuf),
    Tcp(String),
}

enum Stream {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl Stream {
    /// A second handle to the same connection (sharing its timeouts).
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            Stream::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

fn open(endpoint: &Endpoint, io_timeout: Option<Duration>) -> std::io::Result<Stream> {
    let stream = match endpoint {
        Endpoint::Unix(path) => Stream::Unix(std::os::unix::net::UnixStream::connect(path)?),
        Endpoint::Tcp(addr) => {
            let stream = std::net::TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            Stream::Tcp(stream)
        }
    };
    stream.set_io_timeout(io_timeout)?;
    Ok(stream)
}

/// A typed explanation request: dataset, SQL, and optional per-call
/// overrides of the server's resident pipeline options.
///
/// Plain calls (no overrides) travel over both protocol versions; calls
/// with overrides are a v2 feature and must go through a [`Session`]
/// ([`Client::call`] refuses them with [`ClientError::NeedsSession`]).
///
/// ```no_run
/// # use nexus_serve::ExplainCall;
/// let call = ExplainCall::new("salaries", "SELECT Country, avg(Salary) FROM t GROUP BY Country")
///     .top_k(3)
///     .exclude("Gender");
/// ```
#[derive(Debug, Clone)]
pub struct ExplainCall {
    dataset: String,
    sql: String,
    overrides: CallOverrides,
}

impl ExplainCall {
    /// A plain call: explain `sql` over the resident `dataset` with the
    /// server's own pipeline options.
    pub fn new(dataset: impl Into<String>, sql: impl Into<String>) -> ExplainCall {
        ExplainCall {
            dataset: dataset.into(),
            sql: sql.into(),
            overrides: CallOverrides::default(),
        }
    }

    /// Overrides the maximum explanation size (top-k attributes).
    /// The server rejects `0` with a `BAD_QUERY` error.
    pub fn top_k(mut self, k: u32) -> ExplainCall {
        self.overrides.top_k = Some(k);
        self
    }

    /// Overrides whether selection-bias weighting is applied.
    pub fn weights(mut self, on: bool) -> ExplainCall {
        self.overrides.weights = Some(on);
        self
    }

    /// Overrides whether offline candidate pruning runs.
    pub fn offline_pruning(mut self, on: bool) -> ExplainCall {
        self.overrides.offline_pruning = Some(on);
        self
    }

    /// Overrides whether online candidate pruning runs.
    pub fn online_pruning(mut self, on: bool) -> ExplainCall {
        self.overrides.online_pruning = Some(on);
        self
    }

    /// Excludes `column` from the candidate confounders for this call.
    pub fn exclude(mut self, column: impl Into<String>) -> ExplainCall {
        self.overrides.excluded.push(column.into());
        self
    }

    /// Whether any per-call override is set (v2-only calls).
    pub fn has_overrides(&self) -> bool {
        !self.overrides.is_none()
    }

    fn to_wire(&self) -> ExplainRequestWire {
        ExplainRequestWire {
            dataset: self.dataset.clone(),
            sql: self.sql.clone(),
            overrides: self.overrides.clone(),
        }
    }
}

/// A blocking NEXUSRPC client. One request is in flight at a time; open
/// several clients for concurrency (or a [`Session`] for pipelining over
/// one connection). Retries are off by default
/// ([`RetryPolicy::none`]); opt in with [`Client::set_retry_policy`].
pub struct Client {
    stream: Stream,
    endpoint: Endpoint,
    io_timeout: Option<Duration>,
    retry: RetryPolicy,
}

impl Client {
    /// Connects to a server's Unix socket.
    pub fn connect_unix(path: impl AsRef<Path>) -> std::io::Result<Client> {
        let endpoint = Endpoint::Unix(path.as_ref().to_path_buf());
        Ok(Client {
            stream: open(&endpoint, None)?,
            endpoint,
            io_timeout: None,
            retry: RetryPolicy::none(),
        })
    }

    /// Connects to a server's TCP endpoint.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let endpoint = Endpoint::Tcp(addr.to_string());
        Ok(Client {
            stream: open(&endpoint, None)?,
            endpoint,
            io_timeout: None,
            retry: RetryPolicy::none(),
        })
    }

    /// Bounds every socket read and write (`None` = block forever).
    /// Expired deadlines surface as retryable I/O errors.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_io_timeout(timeout)?;
        self.io_timeout = timeout;
        Ok(())
    }

    /// Enables retry-with-backoff for transient failures (`Busy`,
    /// timeouts, torn connections). Retries reconnect and resend — safe
    /// because every NEXUSRPC request is idempotent.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    fn send_and_receive(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.stream, request)?;
        let reply = read_frame(&mut self.stream)?;
        if let Frame::Error(e) = reply {
            return Err(ClientError::Server(e));
        }
        Ok(reply)
    }

    fn roundtrip(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        let mut backoff = Backoff::new(
            self.retry.base_backoff,
            self.retry.max_backoff,
            self.retry.seed,
        );
        let mut attempt = 0u32;
        loop {
            match self.send_and_receive(request) {
                Ok(reply) => return Ok(reply),
                Err(e) if attempt < self.retry.max_retries && retryable(&e) => {
                    attempt += 1;
                    std::thread::sleep(backoff.next_delay());
                    // Reconnect; on failure keep the old stream — the next
                    // attempt fails fast and consumes another retry.
                    if let Ok(stream) = open(&self.endpoint, self.io_timeout) {
                        self.stream = stream;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("wanted Pong")),
        }
    }

    /// Submits a typed [`ExplainCall`] and blocks for the reply.
    ///
    /// Calls carrying per-call overrides are a v2-only feature; this v1
    /// client refuses them with [`ClientError::NeedsSession`] rather than
    /// silently dropping the overrides.
    pub fn call(&mut self, call: &ExplainCall) -> Result<ExplainResponse, ClientError> {
        if call.has_overrides() {
            return Err(ClientError::NeedsSession);
        }
        match self.roundtrip(&Frame::Explain(call.to_wire()))? {
            Frame::Explanation(reply) => Ok(ExplainResponse {
                explanation: ExplanationWire::decode(&reply.explanation)?,
                explanation_bytes: reply.explanation,
                stats: reply.stats,
            }),
            _ => Err(ClientError::Unexpected("wanted Explanation")),
        }
    }

    /// Fetches cumulative server statistics.
    pub fn stats(&mut self) -> Result<ServerStatsWire, ClientError> {
        match self.roundtrip(&Frame::Stats)? {
            Frame::StatsReply(s) => Ok(s),
            _ => Err(ClientError::Unexpected("wanted StatsReply")),
        }
    }

    /// Asks the server to shut down; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Frame::Shutdown)? {
            Frame::ShutdownAck => Ok(()),
            _ => Err(ClientError::Unexpected("wanted ShutdownAck")),
        }
    }
}

/// One in-flight (or finished, not yet consumed) v2 request's state.
#[derive(Default)]
struct PendingEntry {
    /// Pipeline stages announced by `Progress` frames, in order.
    stages: Vec<String>,
    /// Top-k-so-far snapshots streamed by `Partial` frames, in order.
    partials: Vec<PartialWire>,
    /// The final reply (`Explanation` or `Error`), once it arrived.
    outcome: Option<Frame>,
}

/// Session state shared between the [`Session`] and its [`Ticket`]s. The
/// connection is split into two handles under separate locks, so a thread
/// blocked reading (in [`Ticket::wait`]) never holds up another thread's
/// submit, cancel, or control request.
struct SessionShared {
    /// The write handle and its encode workspace; every write is
    /// serialized here.
    writer: Mutex<(Stream, Workspace)>,
    /// The read handle; whichever waiter holds it reads for everyone.
    reader: Mutex<Stream>,
    pending: Mutex<HashMap<u64, PendingEntry>>,
    next_corr: AtomicU64,
}

impl SessionShared {
    /// Writes one v2 envelope under the write lock.
    fn write(&self, corr: u64, frame: Frame) -> Result<(), ClientError> {
        let mut writer = self.writer.lock().expect("session writer poisoned");
        let (stream, ws) = &mut *writer;
        write_envelope(stream, &Envelope::v2(corr, frame), ws)?;
        Ok(())
    }
}

/// Blocks until the final reply for `corr` is known, reading (and
/// demultiplexing) envelopes off the shared stream as needed.
///
/// Any ticket holder may end up doing the reading; frames for *other*
/// correlation ids are filed into their pending entries along the way,
/// and frames for ids nobody waits on anymore (dropped tickets) are
/// discarded. Waiting is repeatable: the outcome is cloned, not taken.
fn wait_final(shared: &SessionShared, corr: u64) -> Result<Frame, ClientError> {
    let settled = |shared: &SessionShared| {
        shared
            .pending
            .lock()
            .expect("session pending poisoned")
            .get(&corr)
            .and_then(|entry| entry.outcome.clone())
    };
    loop {
        if let Some(frame) = settled(shared) {
            return Ok(frame);
        }
        let mut reader = shared.reader.lock().expect("session reader poisoned");
        // Another ticket holder may have read our reply while we waited
        // for the stream.
        if let Some(frame) = settled(shared) {
            return Ok(frame);
        }
        let env = read_envelope(&mut *reader)?;
        // File the frame before releasing the stream: a waiter that takes
        // the stream next must find its reply here, not read past it.
        let mut pending = shared.pending.lock().expect("session pending poisoned");
        if let Some(entry) = pending.get_mut(&env.corr_id) {
            match env.frame {
                Frame::Progress(p) => entry.stages.push(p.stage),
                Frame::Partial(p) => entry.partials.push(p),
                frame => entry.outcome = Some(frame),
            }
        }
    }
}

/// A negotiated NEXUSRPC v2 session: many pipelined requests over one
/// connection, with streamed progress, partial results, and
/// cancellation.
///
/// [`Session::submit`] writes the request and returns a [`Ticket`]
/// without waiting; replies may complete **out of order**, and each
/// ticket's [`Ticket::wait`] collects exactly its own. A `Session` is
/// `Sync` — tickets borrow the shared connection state, so submitting
/// from one thread and waiting on others works without extra plumbing.
///
/// ```no_run
/// # use nexus_serve::{ExplainCall, Session};
/// let session = Session::connect_unix("/tmp/nexus.sock")?;
/// let slow = session.submit(&ExplainCall::new("d", "SELECT A, avg(X) FROM t GROUP BY A"))?;
/// let fast = session.submit(&ExplainCall::new("d", "SELECT B, avg(X) FROM t GROUP BY B"))?;
/// let fast_reply = fast.wait()?; // may finish before `slow`
/// slow.cancel()?;               // no longer needed: abort it mid-pipeline
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session {
    shared: Arc<SessionShared>,
    max_inflight: u32,
}

impl Session {
    /// Connects to a server's Unix socket and negotiates v2.
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Session, ClientError> {
        Session::handshake(open(&Endpoint::Unix(path.as_ref().to_path_buf()), None)?)
    }

    /// Connects to a server's TCP endpoint and negotiates v2.
    pub fn connect_tcp(addr: &str) -> Result<Session, ClientError> {
        Session::handshake(open(&Endpoint::Tcp(addr.to_string()), None)?)
    }

    /// Opens the session: `Hello` (correlation id 0) must be the first
    /// frame on a v2 connection, and the server's `HelloAck` fixes the
    /// negotiated version and in-flight budget.
    fn handshake(mut stream: Stream) -> Result<Session, ClientError> {
        let mut ws = Workspace::new();
        write_envelope(
            &mut stream,
            &Envelope::v2(
                0,
                Frame::Hello(HelloWire {
                    max_version: MAX_VERSION,
                }),
            ),
            &mut ws,
        )?;
        let reply = read_envelope(&mut stream)?;
        let max_inflight = match reply.frame {
            Frame::HelloAck(ack) if ack.version == v2::VERSION => ack.max_inflight,
            Frame::HelloAck(_) => {
                return Err(ClientError::Unexpected("negotiated an unknown version"))
            }
            Frame::Unsupported(_) => {
                return Err(ClientError::Unexpected("server does not speak NEXUSRPC v2"))
            }
            Frame::Error(e) => return Err(ClientError::Server(e)),
            _ => return Err(ClientError::Unexpected("wanted HelloAck")),
        };
        Ok(Session {
            shared: Arc::new(SessionShared {
                reader: Mutex::new(stream.try_clone()?),
                writer: Mutex::new((stream, ws)),
                pending: Mutex::new(HashMap::new()),
                next_corr: AtomicU64::new(1),
            }),
            max_inflight,
        })
    }

    /// The server's per-connection in-flight budget from `HelloAck`;
    /// requests beyond it draw `BUSY` errors for their correlation id.
    pub fn max_inflight(&self) -> u32 {
        self.max_inflight
    }

    /// Submits an [`ExplainCall`] (overrides welcome) without waiting.
    pub fn submit(&self, call: &ExplainCall) -> Result<Ticket, ClientError> {
        let corr = self.shared.next_corr.fetch_add(1, Ordering::Relaxed);
        self.shared
            .pending
            .lock()
            .expect("session pending poisoned")
            .insert(corr, PendingEntry::default());
        if let Err(e) = self.shared.write(corr, Frame::Explain(call.to_wire())) {
            self.shared
                .pending
                .lock()
                .expect("session pending poisoned")
                .remove(&corr);
            return Err(e);
        }
        Ok(Ticket {
            corr,
            shared: Arc::clone(&self.shared),
        })
    }

    /// One full control roundtrip (used by ping/stats): these replies
    /// arrive inline but still carry our correlation id, so they ride
    /// the same demultiplexer as explanations.
    fn control(&self, request: Frame) -> Result<Frame, ClientError> {
        let corr = self.shared.next_corr.fetch_add(1, Ordering::Relaxed);
        self.shared
            .pending
            .lock()
            .expect("session pending poisoned")
            .insert(corr, PendingEntry::default());
        let result = self
            .shared
            .write(corr, request)
            .and_then(|()| wait_final(&self.shared, corr));
        self.shared
            .pending
            .lock()
            .expect("session pending poisoned")
            .remove(&corr);
        result
    }

    /// Liveness probe. Answered inline by the session loop, so it
    /// overtakes any in-flight explanations (and counts as an
    /// out-of-order reply server-side when it does).
    pub fn ping(&self) -> Result<(), ClientError> {
        match self.control(Frame::Ping)? {
            Frame::Pong => Ok(()),
            Frame::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted Pong")),
        }
    }

    /// Fetches cumulative server statistics over this session.
    pub fn stats(&self) -> Result<ServerStatsWire, ClientError> {
        match self.control(Frame::Stats)? {
            Frame::StatsReply(s) => Ok(s),
            Frame::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted StatsReply")),
        }
    }

    /// Registers a store-backed dataset on the server: `table_path` (an
    /// NXCOL file) and `kg_path` (a KG TSV; `None` = empty graph) name
    /// files on the **server's** filesystem. The server validates the
    /// NXCOL header immediately but materializes artifacts lazily, on
    /// the first explain that needs them.
    pub fn load_dataset(
        &self,
        name: &str,
        table_path: &str,
        kg_path: Option<&str>,
        extraction_columns: &[String],
    ) -> Result<DatasetAckWire, ClientError> {
        let request = Frame::LoadDataset(LoadDatasetWire {
            name: name.to_string(),
            table_path: table_path.to_string(),
            kg_path: kg_path.unwrap_or_default().to_string(),
            extraction_columns: extraction_columns.to_vec(),
        });
        match self.control(request)? {
            Frame::DatasetAck(ack) => Ok(ack),
            Frame::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted DatasetAck")),
        }
    }

    /// Drops a dataset's resident artifacts server-side; the
    /// registration survives and re-materializes on the next explain.
    pub fn evict_dataset(&self, name: &str) -> Result<DatasetAckWire, ClientError> {
        let request = Frame::EvictDataset(EvictDatasetWire {
            name: name.to_string(),
        });
        match self.control(request)? {
            Frame::DatasetAck(ack) => Ok(ack),
            Frame::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted DatasetAck")),
        }
    }

    /// Fetches the server's dataset registry listing, sorted by name.
    pub fn list_datasets(&self) -> Result<Vec<DatasetEntryWire>, ClientError> {
        match self.control(Frame::ListDatasets)? {
            Frame::DatasetList(l) => Ok(l.datasets),
            Frame::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted DatasetList")),
        }
    }

    /// Fetches the full self-describing metrics snapshot, sorted by
    /// name. Every `StatsReply` field is reachable here under its dotted
    /// registry name, alongside histograms the fixed frame cannot carry.
    pub fn metrics(&self) -> Result<Vec<MetricWire>, ClientError> {
        match self.control(Frame::MetricsRequest)? {
            Frame::MetricsReply(m) => Ok(m.metrics),
            Frame::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted MetricsReply")),
        }
    }

    /// Fetches the span trees of the last `last` traced requests,
    /// newest first (fewer if the server's trace ring holds less).
    pub fn trace(&self, last: u32) -> Result<Vec<TraceWire>, ClientError> {
        match self.control(Frame::TraceRequest(TraceRequestWire { last }))? {
            Frame::TraceReply(t) => Ok(t.traces),
            Frame::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted TraceReply")),
        }
    }
}

/// A claim on one pipelined request's reply.
///
/// Dropping a ticket abandons the reply (late frames for it are
/// discarded by the session demultiplexer) without cancelling the
/// server-side run — call [`Ticket::cancel`] for that.
pub struct Ticket {
    corr: u64,
    shared: Arc<SessionShared>,
}

impl Ticket {
    /// The request's correlation id on the wire.
    pub fn corr_id(&self) -> u64 {
        self.corr
    }

    /// Blocks until this request's final reply and decodes it. Safe to
    /// call again after an `Ok` — the outcome is kept until the ticket
    /// drops.
    pub fn wait(&self) -> Result<ExplainResponse, ClientError> {
        match wait_final(&self.shared, self.corr)? {
            Frame::Explanation(reply) => Ok(ExplainResponse {
                explanation: ExplanationWire::decode(&reply.explanation)?,
                explanation_bytes: reply.explanation,
                stats: reply.stats,
            }),
            Frame::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted Explanation")),
        }
    }

    /// Asks the server to abort this request mid-pipeline. The final
    /// reply (an [`error_code::CANCELLED`] error, or the explanation if
    /// it won the race) still arrives; collect it with [`Ticket::wait`].
    pub fn cancel(&self) -> Result<(), ClientError> {
        self.shared.write(self.corr, Frame::Cancel)
    }

    /// Pipeline stages streamed so far (`Progress` frames read so far by
    /// any waiter on this session).
    pub fn progress(&self) -> Vec<String> {
        self.shared
            .pending
            .lock()
            .expect("session pending poisoned")
            .get(&self.corr)
            .map(|entry| entry.stages.clone())
            .unwrap_or_default()
    }

    /// Top-k-so-far snapshots streamed so far (`Partial` frames).
    pub fn partials(&self) -> Vec<PartialWire> {
        self.shared
            .pending
            .lock()
            .expect("session pending poisoned")
            .get(&self.corr)
            .map(|entry| entry.partials.clone())
            .unwrap_or_default()
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if let Ok(mut pending) = self.shared.pending.lock() {
            pending.remove(&self.corr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(retryable(&ClientError::Server(ErrorWire {
            code: error_code::BUSY,
            message: String::new(),
        })));
        assert!(retryable(&ClientError::Server(ErrorWire {
            code: error_code::TIMEOUT,
            message: String::new(),
        })));
        assert!(!retryable(&ClientError::Server(ErrorWire {
            code: error_code::BAD_QUERY,
            message: String::new(),
        })));
        assert!(retryable(&ClientError::Wire(WireError::Truncated)));
        assert!(retryable(&ClientError::Wire(WireError::Io(
            ErrorKind::ConnectionReset.into()
        ))));
        assert!(!retryable(&ClientError::Wire(WireError::BadMagic)));
        assert!(!retryable(&ClientError::Unexpected("x")));
    }

    /// A ticket blocked in `wait` must not hold up another thread's
    /// submit: the fake server below answers nothing until it has both
    /// explains, so the first waiter resolves only if the second submit
    /// got through while it was waiting. The server gives up after 10 s,
    /// which fails the test instead of hanging it.
    #[test]
    fn a_waiting_ticket_does_not_block_another_threads_submit() {
        use crate::wire::{ExplanationReplyWire, HelloAckWire};
        use std::os::unix::net::UnixListener;

        let path =
            std::env::temp_dir().join(format!("nexus-session-split-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let mut ws = Workspace::new();
            let mut reply = |conn: &mut std::os::unix::net::UnixStream, corr, frame| {
                write_envelope(conn, &Envelope::v2(corr, frame), &mut ws).expect("reply");
            };
            let hello = read_envelope(&mut conn).expect("hello");
            let ack = Frame::HelloAck(HelloAckWire {
                version: v2::VERSION,
                max_inflight: 8,
            });
            reply(&mut conn, hello.corr_id, ack);
            let mut explains = Vec::new();
            while explains.len() < 2 {
                match read_envelope(&mut conn) {
                    Ok(env) if matches!(env.frame, Frame::Explain(_)) => explains.push(env.corr_id),
                    Ok(_) => {}
                    Err(_) => return explains.len(), // gave up; the drop closes the connection
                }
            }
            for &corr in explains.iter().rev() {
                let done = Frame::Explanation(ExplanationReplyWire {
                    explanation: ExplanationWire::default().encode(),
                    stats: ServeStatsWire::default(),
                });
                reply(&mut conn, corr, done);
            }
            explains.len()
        });

        let session = Session::connect_unix(&path).expect("connect");
        let call = ExplainCall::new("d", "SELECT A, avg(X) FROM t GROUP BY A");
        std::thread::scope(|scope| {
            let first = scope.spawn(|| session.submit(&call).and_then(|t| t.wait()));
            // Once the first thread holds the read lock it is blocked
            // reading, since the server answers nothing yet.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while session.shared.reader.try_lock().is_ok() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "first thread never waited"
                );
                std::thread::yield_now();
            }
            let second = session.submit(&call).and_then(|t| t.wait());
            assert!(second.is_ok(), "second ticket: {:?}", second.err());
            let first = first.join().expect("first thread");
            assert!(first.is_ok(), "first ticket: {:?}", first.err());
        });
        assert_eq!(server.join().expect("fake server"), 2);
        let _ = std::fs::remove_file(&path);
    }
}

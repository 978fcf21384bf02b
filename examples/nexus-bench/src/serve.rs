//! The served mix: a resident `Server` on a Unix socket under the output
//! directory, and two NEXUSRPC v2 sessions in closed loop (one request in
//! flight each). The first session cycles three cache hits and one novel
//! request; the second sends cache hits only.
//!
//! Hits repeat four warmed FL-Q3-shaped queries, so they exercise the
//! serving path itself: transport, wire, admission and the result cache.
//! Novel requests ask the CA query with a `top_k` never used before: they
//! miss the result cache but share the sub-query memo. Only one session
//! sends them: when both did, a miss's time depended on whether the other
//! session's miss overlapped it, and throughput spread 16% over ten runs of
//! one commit on a 2-vCPU machine, against 2-3% with one miss session.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nexus_runtime::SplitMix64;
use nexus_serve::wire::{ExplainRequestWire, ExplanationWire, Frame, MetricWire, TraceWire};
use nexus_serve::{Client, ExplainCall, ServeError, Server, ServerOptions, Session};

use crate::pipeline::{self, median, time_us};
use crate::report::{self, Report};
use crate::stats::{percentile, sorted, tail_percentile};
use crate::workload::{self, Inputs, RunSpec};

const DATASET: &str = "flights";
/// The warmed queries' states; the first is also the novel requests' state.
const HIT_STATES: [&str; 4] = ["CA", "TX", "NY", "IL"];
const CLIENTS: usize = 2;
/// The session that sends the novel requests.
const NOVEL_CLIENT: usize = 0;
/// Server set-ups per run; the last one serves the mix.
const SETUPS: usize = 3;
/// Requests per session: one full cycle under a timed budget, two under
/// `--quick`.
const MIN_REQUESTS: usize = 4;
const QUICK_REQUESTS: usize = 8;
/// A request still unanswered after this long fails the run.
const REQUEST_DEADLINE: Duration = Duration::from_secs(60);
/// Repetitions of each in-process measurement of a traced run.
const IN_PROCESS_REPS: usize = 100;
/// Request span traces the server keeps: more than a run sends, so a traced
/// run reads every served miss back.
const TRACE_CAPACITY: usize = 4096;

/// The smallest `top_k` of a novel request: one above the default
/// explanation size. Set-up checks that the warm CA reply selected fewer
/// attributes than that default, so every novel request must return the
/// warm reply's bytes.
fn first_novel_top_k() -> u32 {
    workload::options().max_explanation_size as u32 + 1
}

fn state_sql(state: &str) -> String {
    format!(
        "SELECT Origin_city, avg(Departure_delay) FROM Flights WHERE Origin_state = '{state}' GROUP BY Origin_city"
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// A warmed query, by index into [`HIT_STATES`].
    Hit(usize),
    Novel,
}

/// One session's request sequence, drawn from the run seed and the
/// session index: cycles of four requests, each a hit on a random warmed
/// state, except that the [`NOVEL_CLIENT`]'s cycles put one novel request
/// at a random position.
pub struct RequestStream {
    rng: SplitMix64,
    novel: bool,
    /// The rest of the current cycle, last request first.
    cycle: Vec<Request>,
}

impl RequestStream {
    pub fn new(seed: u64, client: usize) -> RequestStream {
        let stream = (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        RequestStream {
            rng: SplitMix64::new(seed ^ stream),
            novel: client == NOVEL_CLIENT,
            cycle: Vec::new(),
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.cycle.is_empty() {
            let novel_at = if self.novel {
                self.rng.next_below(4) as usize
            } else {
                usize::MAX
            };
            for i in (0..4).rev() {
                self.cycle.push(if i == novel_at {
                    Request::Novel
                } else {
                    Request::Hit(self.rng.next_below(HIT_STATES.len() as u64) as usize)
                });
            }
        }
        self.cycle.pop()
    }
}

/// A server serving on a Unix socket from its own thread. Stopping — or
/// dropping, on any exit path — sends `Shutdown`, joins the serving
/// thread (bounded) and removes the socket.
struct Served {
    server: Server,
    socket: PathBuf,
    thread: Option<JoinHandle<Result<(), ServeError>>>,
}

impl Served {
    fn start(server: Server, socket: PathBuf) -> Result<Served, String> {
        let _ = std::fs::remove_file(&socket);
        let (serving, path) = (server.clone(), socket.clone());
        let served = Served {
            server,
            socket,
            thread: Some(std::thread::spawn(move || serving.serve_unix(&path))),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !served.socket.exists() {
            let thread = served.thread.as_ref().expect("thread set above");
            if thread.is_finished() || Instant::now() > deadline {
                return Err(format!("server did not bind {}", served.socket.display()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(served)
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = Client::connect_unix(&self.socket)
            .and_then(|mut c| c.set_io_timeout(Some(Duration::from_secs(5))).map(|()| c))
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(15);
        while !thread.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let joined = if thread.is_finished() {
            match thread.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("server: {e}")),
                Err(_) => Err("server thread panicked".to_string()),
            }
        } else {
            // Left running; it ends with the process.
            Err("server did not stop within 15 s".to_string())
        };
        let _ = std::fs::remove_file(&self.socket);
        sent.map_err(|e| format!("shutdown: {e}")).and(joined)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A server after set-up: serving, with the warm replies of the four hit
/// queries.
struct Warm {
    served: Served,
    replies: Vec<Vec<u8>>,
}

/// Times of one set-up.
struct SetupTimes {
    total_s: f64,
    decode_s: f64,
    kg_s: f64,
    materialize_s: f64,
}

/// Loads the dataset, starts a server on `socket`, and warms the four hit
/// queries. The warm CA reply must select fewer than the default number of
/// attributes (see [`first_novel_top_k`]).
fn set_up(inputs: &Inputs, socket: PathBuf) -> Result<(Warm, SetupTimes), String> {
    let t0 = Instant::now();
    let (loaded, decode_s, kg_s) = workload::load(inputs)?;
    let server = Server::new(ServerOptions {
        nexus: workload::options(),
        trace_capacity: TRACE_CAPACITY,
        ..ServerOptions::default()
    });
    let t = Instant::now();
    server
        .add_dataset(
            DATASET,
            loaded.table,
            loaded.kg,
            inputs.extraction_columns.clone(),
        )
        .map_err(|e| format!("add_dataset: {e}"))?;
    let materialize_s = t.elapsed().as_secs_f64();
    let served = Served::start(server, socket)?;
    let session = Session::connect_unix(&served.socket).map_err(|e| format!("connect: {e}"))?;
    let mut replies = Vec::new();
    for state in HIT_STATES {
        let reply = session
            .submit(&ExplainCall::new(DATASET, state_sql(state)))
            .and_then(|ticket| ticket.wait())
            .map_err(|e| format!("warm-up {state}: {e}"))?;
        replies.push(reply.explanation_bytes);
    }
    let total_s = t0.elapsed().as_secs_f64();
    drop(session);
    let ca = ExplanationWire::decode(&replies[0]).map_err(|e| format!("warm CA reply: {e}"))?;
    let default_top_k = workload::options().max_explanation_size;
    if ca.attributes.len() >= default_top_k {
        return Err(format!(
            "warm CA reply selected {} attributes; novel requests need fewer than {default_top_k}",
            ca.attributes.len()
        ));
    }
    Ok((
        Warm { served, replies },
        SetupTimes {
            total_s,
            decode_s,
            kg_s,
            materialize_s,
        },
    ))
}

/// One answered request, as the client saw it.
struct Sample {
    rtt_s: f64,
    cache_hit: bool,
}

/// What one session did.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    errors: Vec<String>,
}

/// Shared by the sessions and the watchdog.
struct Mix {
    socket: PathBuf,
    seed: u64,
    warm: Vec<Vec<u8>>,
    next_top_k: AtomicU32,
    start: Barrier,
    stop: AtomicBool,
    origin: Instant,
}

/// One session's closed loop. `busy_since` holds the start of the request
/// in flight (milliseconds since `mix.origin`, plus 1) or 0 when idle, for
/// the watchdog.
fn client(
    mix: &Mix,
    index: usize,
    budget: workload::Budget,
    busy_since: &AtomicU64,
    log: &Mutex<ClientLog>,
) {
    let session = Session::connect_unix(&mix.socket);
    mix.start.wait();
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            let mut log = log.lock().expect("client log poisoned");
            log.attempted += 1;
            log.errors.push(format!("session {index}: connect: {e}"));
            return;
        }
    };
    let budget = budget.start();
    let mut requests = RequestStream::new(mix.seed, index);
    let mut sent = 0;
    while budget.more(sent) && !mix.stop.load(Ordering::SeqCst) {
        sent += 1;
        let request = requests.next().expect("the request stream is endless");
        let (call, expected) = match request {
            Request::Hit(i) => (
                ExplainCall::new(DATASET, state_sql(HIT_STATES[i])),
                &mix.warm[i],
            ),
            Request::Novel => {
                let k = mix.next_top_k.fetch_add(1, Ordering::SeqCst);
                let call = ExplainCall::new(DATASET, state_sql(HIT_STATES[0])).top_k(k);
                (call, &mix.warm[0])
            }
        };
        busy_since.store(
            mix.origin.elapsed().as_millis() as u64 + 1,
            Ordering::SeqCst,
        );
        let t = Instant::now();
        let reply = session.submit(&call).and_then(|ticket| ticket.wait());
        let rtt_s = t.elapsed().as_secs_f64();
        busy_since.store(0, Ordering::SeqCst);
        let mut log = log.lock().expect("client log poisoned");
        log.attempted += 1;
        match reply {
            Ok(r) if r.explanation_bytes != *expected => log.errors.push(format!(
                "session {index}: {request:?} reply differs from its warm reply"
            )),
            Ok(r) if r.stats.cache_hit != (request != Request::Novel) => log.errors.push(format!(
                "session {index}: {request:?} answered with cache_hit = {}",
                r.stats.cache_hit
            )),
            Ok(r) => log.samples.push(Sample {
                rtt_s,
                cache_hit: r.stats.cache_hit,
            }),
            Err(e) => log
                .errors
                .push(format!("session {index}: {request:?}: {e}")),
        }
    }
}

/// The mix's outcome: every answered request, the measurement window, and
/// how many requests were sent.
struct MixResult {
    samples: Vec<Sample>,
    window_s: f64,
    attempted: u64,
}

/// Runs the sessions and watches them: a request unanswered after
/// [`REQUEST_DEADLINE`] fails the run, and its session is abandoned.
fn run_mix(spec: &RunSpec, warm: &Warm, report: &mut Report) -> MixResult {
    let mix = Arc::new(Mix {
        socket: warm.served.socket.clone(),
        seed: spec.seed.unwrap_or(0),
        warm: warm.replies.clone(),
        next_top_k: AtomicU32::new(first_novel_top_k()),
        start: Barrier::new(CLIENTS + 1),
        stop: AtomicBool::new(false),
        origin: Instant::now(),
    });
    let budget = spec.budget(MIN_REQUESTS, QUICK_REQUESTS);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|index| {
            let busy = Arc::new(AtomicU64::new(0));
            let log = Arc::new(Mutex::new(ClientLog::default()));
            let (m, b, l) = (Arc::clone(&mix), Arc::clone(&busy), Arc::clone(&log));
            let handle = std::thread::spawn(move || client(&m, index, budget, &b, &l));
            (handle, busy, log)
        })
        .collect();
    mix.start.wait();
    let started = Instant::now();
    let mut timed_out = None;
    while timed_out.is_none() && !clients.iter().all(|(h, _, _)| h.is_finished()) {
        let now_ms = mix.origin.elapsed().as_millis() as u64 + 1;
        timed_out = clients.iter().position(|(_, busy, _)| {
            let since = busy.load(Ordering::SeqCst);
            since != 0 && now_ms.saturating_sub(since) > REQUEST_DEADLINE.as_millis() as u64
        });
        std::thread::sleep(Duration::from_millis(20));
    }
    let window_s = started.elapsed().as_secs_f64();
    if let Some(index) = timed_out {
        mix.stop.store(true, Ordering::SeqCst);
        report.attempt(Err(format!(
            "session {index}: request unanswered after {} s",
            REQUEST_DEADLINE.as_secs()
        )));
    }

    let (mut samples, mut attempted) = (Vec::new(), 0);
    for (index, (handle, _, log)) in clients.into_iter().enumerate() {
        if timed_out == Some(index) {
            continue; // abandoned: its thread ends with the process
        }
        if handle.join().is_err() {
            report.attempt(Err(format!("session {index} panicked")));
        }
        let log = std::mem::take(&mut *log.lock().expect("client log poisoned"));
        attempted += log.attempted;
        report.tally(log.attempted, log.errors);
        samples.extend(log.samples);
    }
    MixResult {
        samples,
        window_s,
        attempted,
    }
}

/// Server metrics as a name → value map, over a fresh session (the server
/// closes sessions idle for its I/O timeout).
fn metrics(socket: &Path) -> Result<HashMap<String, u64>, String> {
    let session = Session::connect_unix(socket).map_err(|e| format!("connect: {e}"))?;
    let snapshot: Vec<MetricWire> = session.metrics().map_err(|e| format!("metrics: {e}"))?;
    Ok(snapshot.into_iter().map(|m| (m.name, m.value)).collect())
}

/// The server's span traces of its `last` requests, newest first.
fn traces(socket: &Path, last: u64) -> Result<Vec<TraceWire>, String> {
    let session = Session::connect_unix(socket).map_err(|e| format!("connect: {e}"))?;
    let last = last.min(TRACE_CAPACITY as u64) as u32;
    session.trace(last).map_err(|e| format!("trace: {e}"))
}

pub fn run(spec: &RunSpec, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let socket_path = |rep: usize| {
        spec.out
            .join(format!("serve-{}-{rep}.sock", std::process::id()))
    };
    let mut times = Vec::new();
    let mut warm: Option<Warm> = None;
    for rep in 0..SETUPS {
        if let Some(mut previous) = warm.take() {
            previous.served.stop()?;
        }
        let (w, t) = set_up(inputs, socket_path(rep))?;
        if rep == 0 {
            // The peak of the first set-up, the one a started server goes
            // through. A later set-up starts beside the memory its
            // predecessor's threads freed into allocator arenas, and
            // whether it reuses that memory varies from run to run (its
            // peak read 109 or 121 MiB, the first set-up's 91-92 MiB); the
            // mix adds 0-50 MiB more for the same reason, because every
            // served request runs on a thread of its own.
            let peak = report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
            report.set("peak_rss_mb", peak, "MiB", 1);
        }
        warm = Some(w);
        times.push(t);
    }
    let mut warm = warm.expect("at least one set-up ran");
    let total: Vec<f64> = times.iter().map(|t| t.total_s).collect();
    report.set("setup_s", median(&total), "s", times.len());
    let decode: Vec<f64> = times.iter().map(|t| t.decode_s).collect();
    report.set("store.decode_s", median(&decode), "s", times.len());
    let kg: Vec<f64> = times.iter().map(|t| t.kg_s).collect();
    report.set("kg.load_s", median(&kg), "s", times.len());
    let mat: Vec<f64> = times.iter().map(|t| t.materialize_s).collect();
    report.set("registry.materialize_s", median(&mat), "s", times.len());
    report.set("store.bytes", inputs.table_nxcol.len() as f64, "bytes", 1);

    let socket = warm.served.socket.clone();
    let before = spec.traced.then(|| metrics(&socket)).transpose()?;
    let mix = run_mix(spec, &warm, report);
    latency_metrics(report, &mix);
    if let Some(before) = before {
        server_metrics(report, &before, &metrics(&socket)?);
        // Read back before `in_process` adds traces of its own.
        pipeline::server_layer_metrics(report, &traces(&socket, mix.attempted)?);
        in_process(report, &warm)?;
    }
    warm.served.stop()
}

fn latency_metrics(report: &mut Report, mix: &MixResult) {
    let rtts = |hit: bool| {
        let v: Vec<f64> = mix
            .samples
            .iter()
            .filter(|s| s.cache_hit == hit)
            .map(|s| s.rtt_s)
            .collect();
        sorted(&v)
    };
    let (hits, misses) = (rtts(true), rtts(false));
    let all = sorted(&mix.samples.iter().map(|s| s.rtt_s).collect::<Vec<_>>());
    let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
    report.set("explain_p50_s", p50(&misses), "s", misses.len());
    report.set("request_p50_ms", p50(&all) * 1e3, "ms", all.len());
    report.set(
        "throughput_rps",
        all.len() as f64 / mix.window_s,
        "req/s",
        all.len(),
    );
    report.set("serve.rtt_hit_ms", p50(&hits) * 1e3, "ms", hits.len());
    for (name, v, scale, unit) in [("hit", &hits, 1e3, "ms"), ("explain", &misses, 1.0, "s")] {
        if let Some(p) = tail_percentile(v.len()) {
            let tail = percentile(v, p).unwrap_or(0.0) * scale;
            report.set(&format!("{name}_p{p}_{unit}"), tail, unit, v.len());
        }
    }
}

/// Server-side metrics over the mix, from the metrics snapshots before
/// and after it.
fn server_metrics(
    report: &mut Report,
    before: &HashMap<String, u64>,
    after: &HashMap<String, u64>,
) {
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0) as f64 - before.get(name).copied().unwrap_or(0) as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for (metric, histogram) in [
        ("serve.queue_ms", "serve.request.queue_nanos"),
        ("serve.service_ms", "serve.request.service_nanos"),
    ] {
        let count = delta(&format!("{histogram}.count"));
        let mean_ns = ratio(delta(&format!("{histogram}.sum")), count);
        report.set(metric, mean_ns / 1e6, "ms", count as usize);
    }
    let (hits, misses) = (delta("serve.cache.hits"), delta("serve.cache.misses"));
    report.set(
        "serve.cache_hit_rate",
        ratio(hits, hits + misses),
        "fraction",
        (hits + misses) as usize,
    );
    let (mut memo_hits, mut memo_misses) = (0.0, 0.0);
    for kind in ["contingency", "selection", "cmi_term", "extraction"] {
        let h = delta(&format!("memo.hits.{kind}"));
        let m = delta(&format!("memo.misses.{kind}"));
        report.set(&format!("memo.hits.{kind}"), h, "count", 1);
        report.set(&format!("memo.misses.{kind}"), m, "count", 1);
        memo_hits += h;
        memo_misses += m;
    }
    report.set(
        "memo.hit_rate",
        ratio(memo_hits, memo_hits + memo_misses),
        "fraction",
        (memo_hits + memo_misses) as usize,
    );
    let gauge = |name: &str| after.get(name).copied().unwrap_or(0) as f64;
    report.set(
        "memo.resident_bytes",
        gauge("memo.resident_bytes"),
        "bytes",
        1,
    );
    report.set(
        "registry.extraction_builds",
        gauge("registry.extraction.builds"),
        "count",
        1,
    );
}

/// In-process timings on the warm server: `Server::handle` on the hit
/// frames (which the transport share of a hit is derived from), the reply
/// envelope's encode and decode, and query parsing plus the canonical
/// signature the result cache keys on.
fn in_process(report: &mut Report, warm: &Warm) -> Result<(), String> {
    let frames: Vec<Frame> = HIT_STATES
        .iter()
        .map(|state| {
            Frame::Explain(ExplainRequestWire {
                dataset: DATASET.to_string(),
                sql: state_sql(state),
                overrides: Default::default(),
            })
        })
        .collect();
    let (mut handle_us, mut parse_us, mut encode_us, mut decode_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reply_bytes = 0;
    for rep in 0..IN_PROCESS_REPS {
        let i = rep % frames.len();
        let frame = frames[i].clone();
        let (reply, us) = time_us(|| warm.served.server.handle(frame));
        match reply {
            Frame::Explanation(r) if r.stats.cache_hit && r.explanation == warm.replies[i] => {
                handle_us.push(us);
                let (enc, dec, bytes) = pipeline::wire_roundtrip(&r.explanation)?;
                encode_us.push(enc);
                decode_us.push(dec);
                reply_bytes = bytes;
            }
            other => return Err(format!("in-process hit answered {other:?}")),
        }
        let sql = state_sql(HIT_STATES[i]);
        let (signature, us) = time_us(|| nexus_query::parse(&sql).map(|q| q.canonical_signature()));
        signature.map_err(|e| format!("parse: {e}"))?;
        parse_us.push(us);
    }
    let handle = median(&handle_us);
    report.set("serve.handle_hit_us", handle, "us", handle_us.len());
    let rtt_ms = report.get("serve.rtt_hit_ms").map_or(0.0, |m| m.value);
    report.set(
        "serve.transport_hit_ms",
        rtt_ms - handle / 1e3,
        "ms",
        handle_us.len(),
    );
    report.set("wire.encode_us", median(&encode_us), "us", encode_us.len());
    report.set("wire.decode_us", median(&decode_us), "us", decode_us.len());
    report.set(
        "wire.reply_bytes",
        reply_bytes as f64,
        "bytes",
        encode_us.len(),
    );
    report.set("query.parse_us", median(&parse_us), "us", parse_us.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let take = |seed, client| {
            RequestStream::new(seed, client)
                .take(200)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(8, 0));
        assert_ne!(take(7, 1), take(8, 1));
        assert_ne!(take(7, 0), take(7, 1));
    }

    #[test]
    fn only_the_novel_session_misses() {
        for client in 0..CLIENTS {
            let requests: Vec<Request> = RequestStream::new(3, client).take(400).collect();
            let want = usize::from(client == NOVEL_CLIENT);
            for cycle in requests.chunks(4) {
                let novel = cycle.iter().filter(|r| **r == Request::Novel).count();
                assert_eq!(novel, want, "session {client}: {cycle:?}");
            }
            let hit_states: std::collections::HashSet<usize> = requests
                .iter()
                .filter_map(|r| match r {
                    Request::Hit(i) => Some(*i),
                    Request::Novel => None,
                })
                .collect();
            assert_eq!(hit_states.len(), HIT_STATES.len());
        }
    }
}

//! Telemetry end to end: the metrics snapshot is sorted and moves with
//! requests, `MetricsReply`/`TraceReply` are served over a session and in
//! process, span traces are structurally deterministic across thread
//! counts, tracing is lossless (bit-identical explanations, unchanged
//! work counters), and the trace ring's memory bound is counter-asserted.
//!
//! The counting kernel's counters are process-global, so every test that
//! runs an explain serializes on [`KERNEL_LOCK`] — deltas measured around
//! a request must not see a concurrent test's kernel work.

use std::sync::Mutex;
use std::time::Duration;

use nexus_core::{NexusOptions, Parallelism};
use nexus_datagen::{load, queries_for, DatasetKind, Scale};
use nexus_serve::wire::{
    read_envelope, CallOverrides, Envelope, ExplainRequestWire, Frame, HelloWire, TraceRequestWire,
    MAX_VERSION,
};
use nexus_serve::{pipe, PipeStream, Server, ServerOptions};

static KERNEL_LOCK: Mutex<()> = Mutex::new(());

fn dataset_server(threads: usize, trace_capacity: usize) -> Server {
    let d = load(DatasetKind::Covid, Scale::Small);
    let server = Server::new(ServerOptions {
        nexus: NexusOptions::builder()
            .parallelism(Parallelism::Fixed(threads))
            .build()
            .expect("valid options"),
        io_timeout: Duration::from_secs(30),
        trace_capacity,
        ..ServerOptions::default()
    });
    server
        .add_dataset("bench", d.table, d.kg, d.extraction_columns)
        .expect("dataset loads");
    server
}

fn explain_frame(sql: &str) -> Frame {
    Frame::Explain(ExplainRequestWire {
        dataset: "bench".into(),
        sql: sql.into(),
        overrides: CallOverrides::default(),
    })
}

fn explanation_bytes(reply: Frame) -> (Vec<u8>, u64) {
    match reply {
        Frame::Explanation(r) => (r.explanation, r.stats.scored_tasks),
        other => panic!("expected Explanation, got {other:?}"),
    }
}

/// The metrics snapshot (and hence `MetricsReply`) is sorted by name
/// and moves with the requests served.
#[test]
fn metrics_snapshot_is_sorted_and_moves_with_requests() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let server = dataset_server(2, 64);
    let sql = queries_for(DatasetKind::Covid)[0].sql;
    let _ = server.handle(explain_frame(sql));

    let snap = server.metrics_snapshot();
    assert!(snap.windows(2).all(|w| w[0].name < w[1].name), "sorted");
    // The request actually moved the counters this test leans on.
    let get = |name: &str| snap.iter().find(|m| m.name == name).map_or(0, |m| m.value);
    assert_eq!(get("serve.requests.served"), 1);
    assert_eq!(get("serve.cache.misses"), 1);
    assert!(get("kernel.rows_scanned") > 0);
    assert_eq!(server.metric("serve.requests.served"), Some(1));
    assert_eq!(server.metric("no.such.metric"), None);
}

/// Permutation work is reported by name through the metrics snapshot
/// (and hence `MetricsReply`).
#[test]
fn permutation_counters_are_exported() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let server = dataset_server(2, 64);
    let sql = queries_for(DatasetKind::Covid)[0].sql;
    let _ = server.handle(explain_frame(sql));

    let snap = server.metrics_snapshot();
    let get = |name: &str| snap.iter().find(|m| m.name == name).map(|m| m.value);
    let permutations = get("kernel.permutations").expect("kernel.permutations exported");
    let perm_rows = get("kernel.perm_rows").expect("kernel.perm_rows exported");
    assert!(permutations > 0, "an explain calibrates its candidates");
    assert!(perm_rows >= permutations);
}

/// The v2 session loop answers `MetricsRequest` and `TraceRequest`
/// inline, echoing the correlation id.
#[test]
fn v2_session_serves_metrics_and_traces() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let server = dataset_server(2, 64);
    let sql = queries_for(DatasetKind::Covid)[0].sql;
    let _ = server.handle(explain_frame(sql));

    let (mut client, server_end) = pipe();
    let handle = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_connection(server_end))
    };
    let hello = Envelope::v2(
        0,
        Frame::Hello(HelloWire {
            max_version: MAX_VERSION,
        }),
    );
    client_write(&mut client, &hello);
    let ack = read_envelope(&mut client).expect("hello ack");
    assert!(matches!(ack.frame, Frame::HelloAck(_)));

    client_write(&mut client, &Envelope::v2(5, Frame::MetricsRequest));
    let reply = read_envelope(&mut client).expect("metrics reply");
    assert_eq!(reply.corr_id, 5);
    match reply.frame {
        Frame::MetricsReply(m) => {
            assert!(m.metrics.iter().any(|w| w.name == "serve.requests.served"));
            let names: Vec<&str> = m.metrics.iter().map(|w| w.name.as_str()).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted, "MetricsReply is sorted by name");
        }
        other => panic!("expected MetricsReply, got {other:?}"),
    }

    client_write(
        &mut client,
        &Envelope::v2(6, Frame::TraceRequest(TraceRequestWire { last: 4 })),
    );
    let reply = read_envelope(&mut client).expect("trace reply");
    assert_eq!(reply.corr_id, 6);
    match reply.frame {
        Frame::TraceReply(t) => {
            assert_eq!(t.traces.len(), 1, "one explain, one trace");
            assert_eq!(t.traces[0].spans[0].name, "explain");
        }
        other => panic!("expected TraceReply, got {other:?}"),
    }

    drop(client);
    handle.join().expect("session thread exits");
}

/// In process, [`Server::handle`] answers the telemetry requests a v2
/// session answers, and a reply-only frame draws `Unsupported` naming the
/// highest version the server speaks.
#[test]
fn handle_answers_telemetry_requests_in_process() {
    let server = Server::new(ServerOptions::default());
    match server.handle(Frame::MetricsRequest) {
        Frame::MetricsReply(m) => {
            assert!(m.metrics.iter().any(|w| w.name == "serve.requests.served"));
        }
        other => panic!("expected MetricsReply, got {other:?}"),
    }
    match server.handle(Frame::TraceRequest(TraceRequestWire { last: 4 })) {
        Frame::TraceReply(t) => assert!(t.traces.is_empty(), "no explain, no trace"),
        other => panic!("expected TraceReply, got {other:?}"),
    }
    match server.handle(Frame::Pong) {
        Frame::Unsupported(u) => {
            assert_eq!(u.frame_type, Frame::Pong.frame_type());
            assert_eq!(u.max_supported, MAX_VERSION);
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

fn client_write(stream: &mut PipeStream, env: &Envelope) {
    use std::io::Write;
    stream.write_all(&env.encode()).expect("client write");
}

/// The same request produces the same span structure — names, depths,
/// preorder positions — and the same deterministic work counts whether
/// the pipeline runs on one thread or eight. Durations are excluded:
/// they are the one nondeterministic field, for humans only.
#[test]
fn span_trees_are_deterministic_across_thread_counts() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let sql = queries_for(DatasetKind::Covid)[0].sql;
    let mut shapes = Vec::new();
    for threads in [1usize, 8] {
        let server = dataset_server(threads, 64);
        let _ = server.handle(explain_frame(sql));
        let traces = server.traces(1);
        assert_eq!(traces.len(), 1);
        let shape: Vec<(String, u32, u64)> = traces[0]
            .spans
            .iter()
            .map(|s| (s.name.clone(), s.depth, s.count))
            .collect();
        assert_eq!(shape[0].0, "explain");
        assert_eq!(shape[0].1, 0);
        assert!(
            shape.iter().any(|(name, _, _)| name == "select"),
            "a cold explain reaches the select stage: {shape:?}"
        );
        shapes.push(shape);
    }
    assert_eq!(
        shapes[0], shapes[1],
        "span structure and counts must not depend on thread count"
    );
}

/// Tracing is lossless: with the ring disabled (`trace_capacity: 0`) and
/// enabled, the same request returns bit-identical explanation bytes and
/// does the same work (scored pool tasks, kernel build counts).
#[test]
fn tracing_is_overhead_only_never_behavioral() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let sql = queries_for(DatasetKind::Covid)[0].sql;
    let mut runs = Vec::new();
    for trace_capacity in [0usize, 64] {
        let server = dataset_server(2, trace_capacity);
        let before = nexus_info::kernel::counters().snapshot();
        let (bytes, scored) = explanation_bytes(server.handle(explain_frame(sql)));
        let kernel = nexus_info::kernel::counters().snapshot().delta(&before);
        let (recorded, _) = server.trace_counts();
        assert_eq!(
            recorded,
            if trace_capacity == 0 { 0 } else { 1 },
            "disabled ring records nothing"
        );
        runs.push((bytes, scored, kernel.dense_builds, kernel.sparse_builds));
    }
    assert_eq!(runs[0], runs[1], "tracing changed the request's outcome");
}

/// The trace ring is bounded: past capacity the oldest tree is dropped
/// and `trace.evicted` counts it, so memory is provably capped.
#[test]
fn trace_ring_is_bounded_and_eviction_counted() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let server = dataset_server(2, 2);
    let sql = queries_for(DatasetKind::Covid)[0].sql;
    for _ in 0..5 {
        let _ = server.handle(explain_frame(sql));
    }
    let (recorded, evicted) = server.trace_counts();
    assert_eq!(recorded, 5);
    assert_eq!(evicted, 3);
    assert_eq!(server.traces(10).len(), 2, "ring never exceeds capacity");
    let snap = server.metrics_snapshot();
    let get = |name: &str| snap.iter().find(|m| m.name == name).map_or(0, |m| m.value);
    assert_eq!(get("trace.evicted"), 3);
    assert_eq!(get("trace.recorded"), 5);
    assert_eq!(get("trace.resident"), 2);
}

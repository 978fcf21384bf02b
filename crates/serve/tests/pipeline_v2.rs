//! NEXUSRPC v2 session behaviour against a real resident dataset, over
//! in-memory pipes: pipelining depth, out-of-order completion,
//! cancellation, streamed progress/partials, protocol-violation replies,
//! and mid-pipeline fault injection.
//!
//! Every multiplexing claim is asserted on the server's own counters
//! (the `serve.rpc.*` metrics `inflight_peak`, `ooo_replies`,
//! `cancels_honored`, `partials_streamed`) or on reply frames — never on wall-clock. The
//! determinism the assertions lean on is scale, not timing: envelope
//! dispatch is microsecond work while a real explain takes milliseconds,
//! so all sixteen requests register before the first can possibly
//! finish.

use std::collections::HashMap;
use std::io::Write;
use std::time::Duration;

use nexus_core::{NexusOptions, Parallelism};
use nexus_datagen::{load, queries_for, DatasetKind, Scale};
use nexus_serve::wire::{
    error_code, read_envelope, CallOverrides, Envelope, ExplainRequestWire, ExplanationWire, Frame,
    HelloWire, MAX_VERSION,
};
use nexus_serve::{pipe, Fault, FaultPlan, FaultyStream, PipeStream, Server, ServerOptions};

const V2: u16 = 2;

/// A governed server with the Covid Small dataset resident, so v2
/// explains exercise the real pipeline (and its progress hooks).
fn dataset_server(max_concurrent: usize, max_inflight: usize) -> Server {
    let d = load(DatasetKind::Covid, Scale::Small);
    let server = Server::new(ServerOptions {
        nexus: NexusOptions::builder()
            .parallelism(Parallelism::Fixed(2))
            .build()
            .expect("valid options"),
        io_timeout: Duration::from_secs(30),
        max_concurrent,
        max_inflight,
        ..ServerOptions::default()
    });
    server
        .add_dataset("bench", d.table, d.kg, d.extraction_columns)
        .expect("dataset loads");
    server
}

fn serve_in_thread(server: &Server, stream: PipeStream) -> std::thread::JoinHandle<()> {
    let server = server.clone();
    std::thread::spawn(move || server.serve_connection(stream))
}

fn explain_frame(sql: &str) -> Frame {
    Frame::Explain(ExplainRequestWire {
        dataset: "bench".into(),
        sql: sql.into(),
        overrides: CallOverrides::default(),
    })
}

fn send(stream: &mut impl Write, corr: u64, frame: Frame) {
    stream
        .write_all(&Envelope::v2(corr, frame).encode())
        .expect("send v2 envelope");
}

/// Opens the session: Hello out, HelloAck (echoing the corr id) back.
fn handshake(stream: &mut PipeStream) -> u32 {
    send(
        stream,
        0,
        Frame::Hello(HelloWire {
            max_version: MAX_VERSION,
        }),
    );
    let ack = read_envelope(stream).expect("hello ack");
    assert_eq!(ack.corr_id, 0);
    match ack.frame {
        Frame::HelloAck(a) => {
            assert_eq!(a.version, V2);
            a.max_inflight
        }
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Reads envelopes until every correlation id in `want` has a final
/// reply (`Explanation` or `Error`), returning the finals plus any
/// streamed `Progress`/`Partial` frames grouped per id.
#[allow(clippy::type_complexity)]
fn collect_finals(
    stream: &mut PipeStream,
    want: &[u64],
) -> (
    HashMap<u64, Frame>,
    HashMap<u64, Vec<String>>,
    HashMap<u64, Vec<Vec<String>>>,
    Vec<u64>,
) {
    let mut finals = HashMap::new();
    let mut stages: HashMap<u64, Vec<String>> = HashMap::new();
    let mut partials: HashMap<u64, Vec<Vec<String>>> = HashMap::new();
    let mut completion_order = Vec::new();
    while want.iter().any(|corr| !finals.contains_key(corr)) {
        let env = read_envelope(stream).expect("session envelope");
        match env.frame {
            Frame::Progress(p) => stages.entry(env.corr_id).or_default().push(p.stage),
            Frame::Partial(p) => partials.entry(env.corr_id).or_default().push(p.selected),
            // Everything else (Explanation, Error, Pong, …) settles its id.
            frame => {
                completion_order.push(env.corr_id);
                assert!(
                    finals.insert(env.corr_id, frame).is_none(),
                    "corr {} answered twice",
                    env.corr_id
                );
            }
        }
    }
    (finals, stages, partials, completion_order)
}

/// The next final (non-`Progress`/`Partial`) reply on the stream —
/// streamed frames from concurrent explains are skipped.
fn next_final(stream: &mut impl std::io::Read) -> (u64, Frame) {
    loop {
        let env = read_envelope(stream).expect("session envelope");
        match env.frame {
            Frame::Progress(_) | Frame::Partial(_) => continue,
            frame => return (env.corr_id, frame),
        }
    }
}

/// Fetches the server's metrics over the session (corr-id'd like any
/// request), by name.
fn session_metrics(stream: &mut PipeStream, corr: u64) -> HashMap<String, u64> {
    send(stream, corr, Frame::MetricsRequest);
    loop {
        let env = read_envelope(stream).expect("metrics envelope");
        if env.corr_id != corr {
            continue; // stale stream frames from earlier requests
        }
        match env.frame {
            Frame::MetricsReply(m) => {
                return m.metrics.into_iter().map(|m| (m.name, m.value)).collect()
            }
            other => panic!("expected MetricsReply, got {other:?}"),
        }
    }
}

#[test]
fn sixteen_pipelined_requests_complete_out_of_order_and_byte_identical() {
    let server = dataset_server(2, 128);
    let (mut client, server_end) = pipe();
    let handler = serve_in_thread(&server, server_end);
    let sql = queries_for(DatasetKind::Covid)[0].sql;

    let budget = handshake(&mut client);
    assert!(budget >= 16, "default in-flight budget admits the pipeline");

    // Sixteen explains back-to-back, then a ping. Dispatch is µs-scale
    // against ms-scale explains, so all sixteen are registered in-flight
    // before any finishes — and the inline Pong overtakes all of them.
    let corrs: Vec<u64> = (1..=16).collect();
    for &corr in &corrs {
        send(&mut client, corr, explain_frame(sql));
    }
    send(&mut client, 99, Frame::Ping);

    let mut want = corrs.clone();
    want.push(99);
    let (mut finals, _, _, order) = collect_finals(&mut client, &want);
    assert!(
        matches!(finals.remove(&99), Some(Frame::Pong)),
        "trailing ping answered"
    );
    assert!(
        order.first() == Some(&99),
        "the inline Pong must complete before every ms-scale explain; got order {order:?}"
    );

    let payloads: Vec<Vec<u8>> = corrs
        .iter()
        .map(|corr| match finals.remove(corr).expect("final reply") {
            Frame::Explanation(r) => r.explanation,
            other => panic!("corr {corr}: expected Explanation, got {other:?}"),
        })
        .collect();
    for p in &payloads[1..] {
        assert_eq!(&payloads[0], p, "pipelined replies must be byte-identical");
    }

    let metrics = session_metrics(&mut client, 200);
    assert_eq!(
        metrics["serve.rpc.inflight_peak"], 16,
        "all sixteen must have been in flight at once"
    );
    assert!(
        metrics["serve.rpc.ooo_replies"] >= 1,
        "the overtaking Pong is an out-of-order completion"
    );
    assert_eq!(metrics["serve.rpc.cancels_honored"], 0);
    assert!(
        metrics["serve.rpc.workspace_reuse_hits"] > 0,
        "replies after the first reuse the connection workspace"
    );

    drop(client);
    handler.join().expect("handler exits on close");
}

#[test]
fn cancel_aborts_a_queued_request_and_is_counted() {
    // One pipeline slot: the first explain holds the gate while the
    // second queues (or starts with its abort flag already raised) —
    // either way the cancel lands mid-request, never after.
    let server = dataset_server(1, 128);
    let (mut client, server_end) = pipe();
    let handler = serve_in_thread(&server, server_end);
    let queries = queries_for(DatasetKind::Covid);

    handshake(&mut client);
    send(&mut client, 1, explain_frame(queries[0].sql));
    send(&mut client, 2, explain_frame(queries[1].sql));
    send(&mut client, 2, Frame::Cancel);

    let (finals, _, _, _) = collect_finals(&mut client, &[1, 2]);
    match &finals[&1] {
        Frame::Explanation(_) => {}
        other => panic!("corr 1 must survive its neighbour's cancel, got {other:?}"),
    }
    match &finals[&2] {
        Frame::Error(e) => assert_eq!(e.code, error_code::CANCELLED, "message: {}", e.message),
        other => panic!("corr 2 must be cancelled, got {other:?}"),
    }

    let metrics = session_metrics(&mut client, 10);
    assert_eq!(metrics["serve.rpc.cancels_honored"], 1);

    // The session (and the server) keep serving after a cancel.
    send(&mut client, 11, explain_frame(queries[0].sql));
    let (finals, _, _, _) = collect_finals(&mut client, &[11]);
    match &finals[&11] {
        Frame::Explanation(r) => assert!(r.stats.cache_hit, "corr 1 populated the cache"),
        other => panic!("post-cancel explain must serve, got {other:?}"),
    }

    drop(client);
    handler.join().expect("handler exits on close");
}

#[test]
fn cancelling_an_unknown_correlation_id_is_ignored() {
    let server = dataset_server(2, 128);
    let (mut client, server_end) = pipe();
    let handler = serve_in_thread(&server, server_end);

    handshake(&mut client);
    // Nothing in flight: a stray cancel is the benign race against a
    // final reply, not a protocol error.
    send(&mut client, 42, Frame::Cancel);
    send(&mut client, 43, Frame::Ping);
    let env = read_envelope(&mut client).expect("pong");
    assert_eq!(env.corr_id, 43);
    assert!(matches!(env.frame, Frame::Pong));
    assert_eq!(
        session_metrics(&mut client, 44)["serve.rpc.cancels_honored"],
        0
    );

    drop(client);
    handler.join().expect("handler exits");
}

#[test]
fn progress_and_partials_stream_ahead_of_the_final_reply() {
    let server = dataset_server(2, 128);
    let (mut client, server_end) = pipe();
    let handler = serve_in_thread(&server, server_end);
    let sql = queries_for(DatasetKind::Covid)[0].sql;

    handshake(&mut client);
    send(&mut client, 1, explain_frame(sql));
    let (mut finals, stages, partials, _) = collect_finals(&mut client, &[1]);

    let reply = match finals.remove(&1).expect("final") {
        Frame::Explanation(r) => r,
        other => panic!("expected Explanation, got {other:?}"),
    };
    let explanation = ExplanationWire::decode(&reply.explanation).expect("decodable payload");

    let stages = stages.get(&1).cloned().unwrap_or_default();
    assert_eq!(
        stages.first().map(String::as_str),
        Some("assemble"),
        "stages: {stages:?}"
    );
    assert!(
        stages.iter().any(|s| s == "select"),
        "the selection stage must be announced; stages: {stages:?}"
    );

    // One Partial per selected attribute, culminating in the final set.
    let partials = partials.get(&1).cloned().unwrap_or_default();
    assert_eq!(
        partials.len(),
        explanation.attributes.len(),
        "one top-k-so-far snapshot per selected attribute"
    );
    if let Some(last) = partials.last() {
        let names: Vec<String> = explanation
            .attributes
            .iter()
            .map(|a| a.name.clone())
            .collect();
        assert_eq!(last, &names, "the last partial is the final selection");
    }
    let metrics = session_metrics(&mut client, 10);
    assert_eq!(
        metrics["serve.rpc.partials_streamed"],
        partials.len() as u64
    );

    drop(client);
    handler.join().expect("handler exits");
}

#[test]
fn v2_cached_reply_is_byte_identical_to_a_cold_in_process_reply() {
    let server = dataset_server(2, 128);
    let sql = queries_for(DatasetKind::Covid)[0].sql;

    // Cold request answered in process.
    let cold = match server.handle(explain_frame(sql)) {
        Frame::Explanation(r) => r,
        other => panic!("expected Explanation, got {other:?}"),
    };
    assert!(!cold.stats.cache_hit);

    // Same request over a v2 session: the cache echoes the stored bytes,
    // so the explanation payload is byte-identical across transports.
    let (mut v2_client, v2_end) = pipe();
    let v2_handler = serve_in_thread(&server, v2_end);
    handshake(&mut v2_client);
    send(&mut v2_client, 1, explain_frame(sql));
    let (mut finals, _, _, _) = collect_finals(&mut v2_client, &[1]);
    let hot = match finals.remove(&1).expect("final") {
        Frame::Explanation(r) => r,
        other => panic!("expected Explanation, got {other:?}"),
    };
    assert!(hot.stats.cache_hit);
    assert_eq!(
        cold.explanation, hot.explanation,
        "the explanation payload must not depend on the transport"
    );

    drop(v2_client);
    v2_handler.join().expect("v2 handler exits");
}

#[test]
fn per_call_overrides_change_the_answer_without_touching_the_resident_options() {
    let server = dataset_server(2, 128);
    let (mut client, server_end) = pipe();
    let handler = serve_in_thread(&server, server_end);
    let sql = queries_for(DatasetKind::Covid)[0].sql;

    handshake(&mut client);
    send(&mut client, 1, explain_frame(sql));
    send(
        &mut client,
        2,
        Frame::Explain(ExplainRequestWire {
            dataset: "bench".into(),
            sql: sql.into(),
            overrides: CallOverrides {
                top_k: Some(1),
                ..CallOverrides::default()
            },
        }),
    );
    let (finals, _, _, _) = collect_finals(&mut client, &[1, 2]);
    let decode = |corr: u64| match &finals[&corr] {
        Frame::Explanation(r) => ExplanationWire::decode(&r.explanation).expect("payload"),
        other => panic!("corr {corr}: expected Explanation, got {other:?}"),
    };
    let full = decode(1);
    let capped = decode(2);
    assert!(capped.attributes.len() <= 1, "top_k=1 caps the explanation");
    assert!(
        full.attributes.len() >= capped.attributes.len(),
        "the resident options are untouched by the override"
    );

    // A zero top_k is rejected per-request, not fatally.
    send(
        &mut client,
        3,
        Frame::Explain(ExplainRequestWire {
            dataset: "bench".into(),
            sql: sql.into(),
            overrides: CallOverrides {
                top_k: Some(0),
                ..CallOverrides::default()
            },
        }),
    );
    let (finals, _, _, _) = collect_finals(&mut client, &[3]);
    match &finals[&3] {
        Frame::Error(e) => assert_eq!(e.code, error_code::BAD_QUERY),
        other => panic!("expected BAD_QUERY, got {other:?}"),
    }

    drop(client);
    handler.join().expect("handler exits");
}

#[test]
fn protocol_violations_answer_with_errors_and_bound_the_pipeline() {
    // Tiny in-flight budget to exercise BUSY.
    let server = dataset_server(2, 2);
    let (mut client, server_end) = pipe();
    let handler = serve_in_thread(&server, server_end);
    let sql = queries_for(DatasetKind::Covid)[0].sql;

    let budget = handshake(&mut client);
    assert_eq!(budget, 2);

    // A duplicate Hello is an error but not a hangup.
    send(
        &mut client,
        5,
        Frame::Hello(HelloWire {
            max_version: MAX_VERSION,
        }),
    );
    let (corr, frame) = next_final(&mut client);
    assert_eq!(corr, 5);
    match frame {
        Frame::Error(e) => assert_eq!(e.code, error_code::BAD_CORRELATION),
        other => panic!("expected BAD_CORRELATION, got {other:?}"),
    }

    // Fill the budget, then overflow it; reuse an in-flight corr id too.
    // The inline error replies land before either ms-scale explain can
    // finish (streamed Progress/Partial frames interleave and are
    // skipped by next_final).
    send(&mut client, 1, explain_frame(sql));
    send(&mut client, 2, explain_frame(sql));
    send(&mut client, 1, explain_frame(sql)); // duplicate corr id
    send(&mut client, 3, explain_frame(sql)); // over budget
    let (corr, frame) = next_final(&mut client);
    assert_eq!(corr, 1, "duplicate corr id refused first");
    match frame {
        Frame::Error(e) => assert_eq!(e.code, error_code::BAD_CORRELATION),
        other => panic!("expected BAD_CORRELATION, got {other:?}"),
    }
    let (corr, frame) = next_final(&mut client);
    assert_eq!(corr, 3, "over-budget request refused second");
    match frame {
        Frame::Error(e) => assert_eq!(e.code, error_code::BUSY),
        other => panic!("expected BUSY, got {other:?}"),
    }

    // The two admitted requests still complete.
    let (finals, _, _, _) = collect_finals(&mut client, &[1, 2]);
    assert!(matches!(finals[&1], Frame::Explanation(_)));
    assert!(matches!(finals[&2], Frame::Explanation(_)));

    drop(client);
    handler.join().expect("handler exits");
}

#[test]
fn v2_session_must_open_with_hello() {
    let server = dataset_server(2, 128);
    let (mut client, server_end) = pipe();
    let handler = serve_in_thread(&server, server_end);

    send(
        &mut client,
        7,
        explain_frame(queries_for(DatasetKind::Covid)[0].sql),
    );
    let env = read_envelope(&mut client).expect("violation reply");
    assert_eq!(env.corr_id, 7);
    match env.frame {
        Frame::Error(e) => {
            assert_eq!(e.code, error_code::BAD_CORRELATION);
            assert!(e.message.contains("Hello"), "message: {}", e.message);
        }
        other => panic!("expected an error, got {other:?}"),
    }
    handler.join().expect("handler closes the connection");
}

#[test]
fn peer_vanishing_mid_pipeline_aborts_workers_and_frees_the_server() {
    for seed in [9u64, 31] {
        let server = dataset_server(1, 128);
        let sql = queries_for(DatasetKind::Covid)[0].sql;

        // Session with two in-flight explains; the connection then dies
        // mid-write of a third envelope at a seeded offset.
        let hello = Envelope::v2(
            0,
            Frame::Hello(HelloWire {
                max_version: MAX_VERSION,
            }),
        )
        .encode();
        let first = Envelope::v2(1, explain_frame(sql)).encode();
        let second = Envelope::v2(2, explain_frame(sql)).encode();
        let third = Envelope::v2(3, explain_frame(sql)).encode();
        let offset = (hello.len() + first.len() + second.len()) as u64
            + FaultPlan::seeded_offset(seed, third.len());

        let (client_end, server_end) = pipe();
        let handler = serve_in_thread(&server, server_end);
        let mut client =
            FaultyStream::new(client_end, FaultPlan::with(Fault::ResetAfter { offset }));
        client.write_all(&hello).expect("hello");
        let ack = read_envelope(&mut client).expect("hello ack");
        assert!(matches!(ack.frame, Frame::HelloAck(_)));
        client.write_all(&first).expect("first explain");
        client.write_all(&second).expect("second explain");
        client
            .write_all(&third)
            .expect_err("the reset breaks the write");
        drop(client); // abrupt disconnect with work in flight

        // The handler must abort both workers and exit — the join proves
        // no hang and no orphaned pipeline thread.
        handler
            .join()
            .expect("handler exits after aborting workers");

        // The server survives: a fresh session is served normally.
        let (mut fresh, fresh_end) = pipe();
        let fresh_handler = serve_in_thread(&server, fresh_end);
        handshake(&mut fresh);
        send(&mut fresh, 1, Frame::Ping);
        match read_envelope(&mut fresh).expect("fresh reply").frame {
            Frame::Pong => {}
            other => panic!("seed {seed}: expected Pong, got {other:?}"),
        }
        drop(fresh);
        fresh_handler.join().expect("fresh handler exits");
    }
}

#[test]
fn chopped_v2_writes_within_deadline_are_served_normally() {
    let server = dataset_server(2, 128);
    let (client_end, server_end) = pipe();
    let handler = serve_in_thread(&server, server_end);
    let sql = queries_for(DatasetKind::Covid)[0].sql;

    // Dribble the whole session 3 bytes per write: well-formed, slow
    // chunking must not trip the v2 demultiplexer's polling reads.
    let mut client = FaultyStream::new(client_end, FaultPlan::chopped(3));
    client
        .write_all(
            &Envelope::v2(
                0,
                Frame::Hello(HelloWire {
                    max_version: MAX_VERSION,
                }),
            )
            .encode(),
        )
        .expect("chopped hello");
    let ack = read_envelope(&mut client).expect("hello ack");
    assert!(matches!(ack.frame, Frame::HelloAck(_)));
    client
        .write_all(&Envelope::v2(1, explain_frame(sql)).encode())
        .expect("chopped explain");
    loop {
        let env = read_envelope(&mut client).expect("reply");
        if env.corr_id == 1 {
            if let Frame::Explanation(_) = env.frame {
                break;
            }
            assert!(
                matches!(env.frame, Frame::Progress(_) | Frame::Partial(_)),
                "unexpected {:?}",
                env.frame
            );
        }
    }

    drop(client);
    handler.join().expect("handler exits");
}

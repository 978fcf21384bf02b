//! End-to-end serving tests: a real [`nexus::serve::Server`] on a Unix
//! socket (and TCP loopback), the blocking [`nexus::serve::Session`]
//! client, and the tentpole guarantees of the resident server:
//!
//! * a cache hit returns a payload **byte-identical** to the cold run;
//! * the hit is ≥10× cheaper, asserted via the server's own counters —
//!   the cold run scores ≥10 pool tasks, the hit scores **zero** (the
//!   pipeline never executes) — not via wall-clock;
//! * the served explanation matches a direct in-process `Nexus` run.

use std::time::Duration;

use nexus::kg::{KnowledgeGraph, PropertyValue};
use nexus::serve::wire::{
    crc32, read_envelope, Envelope, Frame, HelloWire, MetricWire, MAGIC, MAX_VERSION,
};
use nexus::serve::{
    explanation_to_wire, ClientError, ExplainCall, ExplainResponse, Server, ServerOptions, Session,
};
use nexus::table::{Column, Table};
use nexus::{parse, ExplainRequest, Nexus, NexusOptions};

const SQL: &str = "SELECT Country, avg(Salary) FROM t GROUP BY Country";

/// A compact world: 18 countries, development drives salary, inequality
/// perturbs it, plus KG distractors (same shape as `end_to_end.rs`).
fn world() -> (Table, KnowledgeGraph) {
    let mut kg = KnowledgeGraph::new();
    let mut countries = Vec::new();
    let mut genders = Vec::new();
    let mut salaries = Vec::new();
    for c in 0..18 {
        let name = format!("Country_{c:02}");
        let dev = (c % 3) as f64;
        let ineq = ((c / 3) % 2) as f64;
        let id = kg.add_entity(name.clone(), "Country");
        kg.set_literal(id, "hdi", 0.4 + 0.2 * dev);
        kg.set_literal(id, "gini", 30.0 + 8.0 * ineq);
        kg.set_literal(id, "wiki id", format!("Q{c:05}"));
        let g1 = kg.add_entity(format!("Group_{c}_a"), "Ethnic");
        let g2 = kg.add_entity(format!("Group_{c}_b"), "Ethnic");
        kg.set_literal(g1, "population", 100.0 + c as f64);
        kg.set_literal(g2, "population", 300.0 + c as f64);
        kg.set_property(id, "ethnic group", PropertyValue::EntityList(vec![g1, g2]));
        for i in 0..30 {
            countries.push(name.clone());
            genders.push(if i % 5 == 0 { "f" } else { "m" });
            salaries.push(30.0 + 20.0 * dev - 4.0 * ineq + (i % 3) as f64 * 0.2);
        }
    }
    let table = Table::new(vec![
        ("Country", Column::from_strs(&countries)),
        ("Gender", Column::from_strs(&genders)),
        ("Salary", Column::from_f64(salaries)),
    ])
    .unwrap();
    (table, kg)
}

/// One request, submitted and awaited.
fn call(session: &Session, call: &ExplainCall) -> Result<ExplainResponse, ClientError> {
    session.submit(call).and_then(|ticket| ticket.wait())
}

/// A named value from a metrics snapshot.
fn metric(metrics: &[MetricWire], name: &str) -> u64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing from the metrics snapshot"))
        .value
}

fn resident_server() -> Server {
    let (table, kg) = world();
    let server = Server::new(ServerOptions::default());
    server
        .add_dataset("world", table, kg, vec!["Country".into()])
        .expect("dataset loads");
    server
}

#[test]
fn unix_socket_round_trip_with_cache_guarantees() {
    let dir = std::env::temp_dir().join(format!("nexus-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("nexus.sock");

    let server = resident_server();
    let daemon = {
        let server = server.clone();
        let socket = socket.clone();
        std::thread::spawn(move || server.serve_unix(&socket))
    };
    // Wait for the socket to appear.
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut client = Session::connect_unix(&socket).expect("connect");
    client.ping().expect("ping");

    // Cold run: misses the cache and scores candidates on the pool.
    let cold = call(&client, &ExplainCall::new("world", SQL)).expect("cold explain");
    assert!(!cold.stats.cache_hit);
    assert!(
        cold.stats.scored_tasks >= 10,
        "cold run should score at least 10 pool tasks, got {}",
        cold.stats.scored_tasks
    );

    // Repeat: byte-identical payload, and ≥10× cheaper by the server's own
    // counters — the hit scores zero tasks (pipeline skipped), versus ≥10
    // cold. No wall-clock involved.
    let hot = call(&client, &ExplainCall::new("world", SQL)).expect("hot explain");
    assert!(hot.stats.cache_hit);
    assert_eq!(
        hot.stats.scored_tasks, 0,
        "cache hit must not run candidate scoring"
    );
    assert!(cold.stats.scored_tasks >= 10 * (hot.stats.scored_tasks + 1));
    assert_eq!(
        cold.explanation_bytes, hot.explanation_bytes,
        "cache hit must be byte-identical to the cold response"
    );
    assert!(hot.stats.cache_hits >= 1);
    assert_eq!(hot.stats.cache_misses, cold.stats.cache_misses);

    // The served result equals a direct in-process run on the same data.
    let (table, kg) = world();
    let query = parse(SQL).unwrap();
    let direct = Nexus::new(NexusOptions::default())
        .run(
            &ExplainRequest::new()
                .table(&table)
                .knowledge_graph(&kg)
                .extraction_column("Country")
                .query(&query),
        )
        .expect("direct run");
    assert_eq!(
        explanation_to_wire(&direct).encode(),
        cold.explanation_bytes,
        "served payload must equal a direct pipeline run"
    );
    assert!(explanation_to_wire(&direct)
        .attributes
        .iter()
        .any(|a| a.name == "Country::hdi"));

    // Server-side metrics agree with what the client observed.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metric(&metrics, "registry.datasets.registered"), 1);
    assert!(metric(&metrics, "serve.cache.hits") >= 1);
    assert!(metric(&metrics, "serve.cache.misses") >= 1);
    assert!(metric(&metrics, "serve.requests.served") >= 2);

    // Unknown dataset is an error reply, not a dropped connection.
    let err = call(&client, &ExplainCall::new("nope", SQL)).expect_err("unknown dataset");
    assert!(err.to_string().contains("nope"));
    client.ping().expect("connection survives an error reply");

    // Graceful shutdown: acknowledged, daemon exits, socket removed.
    client.shutdown().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    assert!(!socket.exists(), "socket file should be cleaned up");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_round_trip_and_concurrent_clients() {
    let server = resident_server();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let daemon = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve_tcp("127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
        })
    };
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server binds")
        .to_string();

    // Several clients submit the same query concurrently; every reply must
    // carry the same payload bytes regardless of who warmed the cache.
    let payloads: Vec<Vec<u8>> = {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let client = Session::connect_tcp(&addr).expect("connect");
                    call(&client, &ExplainCall::new("world", SQL))
                        .expect("explain")
                        .explanation_bytes
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    };
    for p in &payloads[1..] {
        assert_eq!(&payloads[0], p, "all clients must see identical bytes");
    }

    let mut client = Session::connect_tcp(&addr).expect("connect");
    assert!(
        call(&client, &ExplainCall::new("world", SQL))
            .expect("explain")
            .stats
            .cache_hit
    );
    client.shutdown().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

#[test]
fn server_answers_unsupported_for_foreign_frames() {
    use std::io::{Read, Write};

    let server = resident_server();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let daemon = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve_tcp("127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
        })
    };
    let addr = addr_rx.recv_timeout(Duration::from_secs(10)).expect("bind");

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reply = |stream: &mut std::net::TcpStream| read_envelope(stream).expect("reply");
    // Recomputes the CRC trailer after a header patch.
    let reseal = |bytes: &mut Vec<u8>| {
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
    };

    // A frame from a future protocol version: well-formed envelope, higher
    // version number, valid CRC. The server must answer Unsupported and
    // keep the connection alive.
    let mut future = Envelope::v2(1, Frame::Ping).encode();
    future[8..10].copy_from_slice(&7u16.to_le_bytes());
    reseal(&mut future);
    stream.write_all(&future).unwrap();
    match reply(&mut stream).frame {
        Frame::Unsupported(u) => {
            assert_eq!(u.version, 7);
            assert_eq!(u.max_supported, MAX_VERSION, "the server speaks v2");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }

    // A retired version-1 Ping (no correlation id) is an unknown version
    // like any other: answered, and the stream survives.
    let mut v1_ping = MAGIC.to_vec();
    v1_ping.extend_from_slice(&1u16.to_le_bytes());
    v1_ping.push(Frame::Ping.frame_type());
    v1_ping.extend_from_slice(&0u32.to_le_bytes()); // empty payload
    v1_ping.extend_from_slice(&[0; 4]); // CRC, sealed below
    reseal(&mut v1_ping);
    stream.write_all(&v1_ping).unwrap();
    match reply(&mut stream).frame {
        Frame::Unsupported(u) => {
            assert_eq!((u.version, u.max_supported), (1, 2));
        }
        other => panic!("expected Unsupported for version 1, got {other:?}"),
    }

    // A Hello on the same stream still negotiates the session.
    let hello = Frame::Hello(HelloWire {
        max_version: MAX_VERSION,
    });
    stream.write_all(&Envelope::v2(0, hello).encode()).unwrap();
    match reply(&mut stream).frame {
        Frame::HelloAck(ack) => assert_eq!(ack.version, MAX_VERSION),
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // Frame types 6 and 7 are retired: unknown types on a v2 session.
    for frame_type in [6u8, 7] {
        let mut retired = Envelope::v2(9, Frame::Ping).encode();
        retired[10] = frame_type;
        reseal(&mut retired);
        stream.write_all(&retired).unwrap();
        match reply(&mut stream).frame {
            Frame::Unsupported(u) => {
                assert_eq!(u.frame_type, frame_type);
                assert_eq!((u.version, u.max_supported), (2, 2));
            }
            other => panic!("expected Unsupported for type {frame_type}, got {other:?}"),
        }
    }

    // The same session still answers a Ping afterwards.
    stream
        .write_all(&Envelope::v2(10, Frame::Ping).encode())
        .unwrap();
    assert_eq!(reply(&mut stream), Envelope::v2(10, Frame::Pong));

    // Garbage (bad magic) drops the connection without killing the server.
    let mut garbage = Envelope::v2(11, Frame::Ping).encode();
    garbage[..8].copy_from_slice(b"NOTMAGIC");
    assert_ne!(garbage[..8], MAGIC);
    stream.write_all(&garbage).unwrap();
    let mut rest = vec![0u8; 1024];
    let n = stream.read(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "server should drop the connection on bad magic");

    let mut client = Session::connect_tcp(&addr.to_string()).expect("reconnect");
    client.ping().expect("server survives");
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("clean exit");
}

#[test]
fn v2_session_pipelines_over_tcp_with_typed_calls() {
    let server = resident_server();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let daemon = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve_tcp("127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
        })
    };
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server binds")
        .to_string();

    let mut session = Session::connect_tcp(&addr).expect("v2 handshake");
    assert!(session.max_inflight() >= 8);

    // Eight identical calls plus one with a per-call override, all in
    // flight on one connection.
    let call = ExplainCall::new("world", SQL);
    let tickets: Vec<_> = (0..8)
        .map(|_| session.submit(&call).expect("submit"))
        .collect();
    let capped = session
        .submit(&call.clone().top_k(1))
        .expect("submit with overrides");

    // The inline pong overtakes every in-flight explain.
    session.ping().expect("ping mid-pipeline");

    // Collect out of submission order; replies must be byte-identical.
    let last_first = tickets.last().unwrap().wait().expect("last ticket");
    for ticket in &tickets {
        let reply = ticket.wait().expect("pipelined reply");
        assert_eq!(
            reply.explanation_bytes, last_first.explanation_bytes,
            "pipelined replies must be byte-identical"
        );
    }
    let capped_reply = capped.wait().expect("override reply");
    assert!(capped_reply.explanation.attributes.len() <= 1, "top_k=1");
    assert!(
        !capped.partials().is_empty() || capped_reply.explanation.attributes.is_empty(),
        "a cold run streams one partial per selected attribute"
    );

    let metrics = session.metrics().expect("metrics over the session");
    let peak = metric(&metrics, "serve.rpc.inflight_peak");
    assert!(
        peak >= 8,
        "the pipeline must overlap at least its eight identical calls; peak {peak}"
    );
    assert!(
        metric(&metrics, "serve.rpc.ooo_replies") >= 1,
        "the overtaking pong is an out-of-order completion"
    );

    drop(tickets);
    drop(capped);
    session.shutdown().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

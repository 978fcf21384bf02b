//! Deterministic fault-injection suite: misbehaving clients — stalls,
//! truncations, abrupt disconnects, dribbled writes, oversize
//! declarations — driven through [`FaultyStream`] wrappers at **seeded**
//! byte offsets against a governed [`Server::serve_connection`] over an
//! in-memory pipe.
//!
//! Every assertion is on the server's own governance counters or on the
//! reply frames it writes — never on wall-clock — and every handler
//! thread is joined, so a regression that hangs a handler fails the test
//! instead of leaking a thread. Every connection negotiates its session
//! first, then faults an envelope; the whole suite runs at pipeline
//! parallelism 1 and 8: governance must not depend on the pool width.

use std::io::{Read, Write};
use std::time::Duration;

use nexus_core::{NexusOptions, Parallelism};
use nexus_serve::wire::{
    error_code, read_envelope, Envelope, Frame, HelloWire, MAX_PAYLOAD, MAX_VERSION,
};
use nexus_serve::{pipe, Fault, FaultPlan, FaultyStream, PipeStream, Server, ServerOptions};

/// A dataset-less governed server with a short I/O budget; Ping/metrics
/// requests and wire-level abuse need no resident data.
fn governed_server(parallelism: Parallelism) -> Server {
    Server::new(ServerOptions {
        nexus: NexusOptions::builder()
            .parallelism(parallelism)
            .build()
            .expect("valid options"),
        io_timeout: Duration::from_millis(150),
        ..ServerOptions::default()
    })
}

fn serve_in_thread(
    server: &Server,
    stream: nexus_serve::PipeStream,
) -> std::thread::JoinHandle<()> {
    let server = server.clone();
    std::thread::spawn(move || server.serve_connection(stream))
}

/// Both pool widths the determinism suite uses; governance counters must
/// be identical at each.
const WIDTHS: [Parallelism; 2] = [Parallelism::Fixed(1), Parallelism::Fixed(8)];

/// `frame` as a request envelope (correlation id 1).
fn envelope(frame: Frame) -> Vec<u8> {
    Envelope::v2(1, frame).encode()
}

/// A fresh connection whose `Hello`/`HelloAck` handshake is complete
/// before the scenario starts.
fn connect(server: &Server) -> (PipeStream, std::thread::JoinHandle<()>) {
    let (mut client_end, server_end) = pipe();
    let handler = serve_in_thread(server, server_end);
    let hello = Frame::Hello(HelloWire {
        max_version: MAX_VERSION,
    });
    client_end
        .write_all(&Envelope::v2(0, hello).encode())
        .expect("hello");
    assert!(matches!(reply(&mut client_end), Frame::HelloAck(_)));
    (client_end, handler)
}

/// Reads one reply envelope's frame.
fn reply(stream: &mut impl Read) -> Frame {
    read_envelope(stream).expect("reply envelope").frame
}

/// A registered metric's current value.
fn metric(server: &Server, name: &str) -> u64 {
    server.metric(name).expect("registered metric")
}

#[test]
fn stalled_mid_frame_client_gets_timeout_reply_and_is_counted() {
    for parallelism in WIDTHS {
        for seed in [7u64, 21, 63] {
            let server = governed_server(parallelism);
            let (client_end, handler) = connect(&server);

            let frame = envelope(Frame::MetricsRequest);
            let offset = FaultPlan::seeded_offset(seed, frame.len());
            let mut faulty =
                FaultyStream::new(client_end, FaultPlan::with(Fault::StallAfter { offset }));
            faulty.write_all(&frame).expect("stall swallows silently");
            assert_eq!(faulty.delivered(), offset, "seed {seed}: exact offset");

            // The handler must notice the stall, reply, and exit — joining
            // proves no hang; the counter proves why it exited.
            match reply(&mut faulty) {
                Frame::Error(e) => assert_eq!(e.code, error_code::TIMEOUT),
                other => panic!("seed {seed}: expected timeout error, got {other:?}"),
            }
            handler.join().expect("handler thread exits");
            assert_eq!(metric(&server, "serve.io.timeouts"), 1, "seed {seed}");
            assert_eq!(metric(&server, "serve.frames.oversize"), 0);
            assert_eq!(
                metric(&server, "serve.requests.served"),
                0,
                "stalled frame never decoded"
            );
        }
    }
}

#[test]
fn truncated_client_is_dropped_without_counting_a_timeout() {
    for parallelism in WIDTHS {
        for seed in [5u64, 40, 99] {
            let server = governed_server(parallelism);
            let (client_end, handler) = connect(&server);

            let frame = envelope(Frame::Ping);
            let offset = FaultPlan::seeded_offset(seed, frame.len());
            let mut faulty =
                FaultyStream::new(client_end, FaultPlan::with(Fault::TruncateAfter { offset }));
            faulty
                .write_all(&frame)
                .expect_err("truncation breaks the write");

            handler.join().expect("handler exits on truncation");
            assert_eq!(
                metric(&server, "serve.io.timeouts"),
                0,
                "seed {seed}: truncation ≠ timeout"
            );
            assert_eq!(metric(&server, "serve.requests.served"), 0);
        }
    }
}

#[test]
fn abrupt_disconnect_is_dropped_cleanly() {
    for parallelism in WIDTHS {
        for seed in [3u64, 17] {
            let server = governed_server(parallelism);
            let (client_end, handler) = connect(&server);

            let frame = envelope(Frame::MetricsRequest);
            let offset = FaultPlan::seeded_offset(seed, frame.len());
            let mut faulty =
                FaultyStream::new(client_end, FaultPlan::with(Fault::ResetAfter { offset }));
            faulty
                .write_all(&frame)
                .expect_err("reset breaks the write");
            drop(faulty); // the abrupt disconnect

            handler.join().expect("handler exits on disconnect");
            assert_eq!(metric(&server, "serve.requests.served"), 0, "seed {seed}");
        }
    }
}

#[test]
fn chopped_writes_within_deadline_are_served_normally() {
    for parallelism in WIDTHS {
        let server = governed_server(parallelism);
        let (client_end, handler) = connect(&server);

        // Dribble the frame 3 bytes per write — well-formed, just slow
        // chunking; the per-frame budget is generous enough at this size.
        let mut faulty = FaultyStream::new(client_end, FaultPlan::chopped(3));
        faulty.write_all(&envelope(Frame::Ping)).expect("write");
        match reply(&mut faulty) {
            Frame::Pong => {}
            other => panic!("expected Pong, got {other:?}"),
        }
        drop(faulty);

        handler.join().expect("handler exits on close");
        assert_eq!(metric(&server, "serve.io.timeouts"), 0);
        assert_eq!(
            metric(&server, "serve.requests.served"),
            0,
            "ping is not an explain request"
        );
    }
}

#[test]
fn oversize_declaration_is_refused_with_a_reply_and_counted() {
    for parallelism in WIDTHS {
        let server = governed_server(parallelism);
        let (mut client_end, handler) = connect(&server);

        // A header declaring one byte over the cap; no payload follows —
        // the server must refuse from the header alone.
        let mut header = envelope(Frame::Ping);
        header[11..15].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        client_end.write_all(&header[..15]).expect("header");

        match reply(&mut client_end) {
            Frame::Error(e) => {
                assert_eq!(e.code, error_code::FRAME_TOO_LARGE);
                assert!(e.message.contains("cap"), "message: {}", e.message);
            }
            other => panic!("expected frame-too-large error, got {other:?}"),
        }
        handler.join().expect("handler exits after refusing");
        assert_eq!(metric(&server, "serve.frames.oversize"), 1);
        assert_eq!(metric(&server, "serve.io.timeouts"), 0);
    }
}

#[test]
fn faults_on_one_connection_leave_another_serving() {
    for parallelism in WIDTHS {
        let server = governed_server(parallelism);

        // Victim connection: stalls mid-frame.
        let (victim_client, victim) = connect(&server);
        let frame = envelope(Frame::MetricsRequest);
        let offset = FaultPlan::seeded_offset(11, frame.len());
        let mut stalled =
            FaultyStream::new(victim_client, FaultPlan::with(Fault::StallAfter { offset }));
        stalled.write_all(&frame).expect("swallowed");

        // Healthy connection: ping-pongs while the victim is stalled.
        let (mut healthy_client, healthy) = connect(&server);
        healthy_client
            .write_all(&envelope(Frame::Ping))
            .expect("write");
        match reply(&mut healthy_client) {
            Frame::Pong => {}
            other => panic!("expected Pong, got {other:?}"),
        }

        // Close the healthy connection before waiting out the victim's
        // deadline, so it cannot rack up an idle timeout of its own.
        drop(healthy_client);
        healthy.join().expect("healthy handler exits");
        victim.join().expect("stalled handler exits");
        assert_eq!(metric(&server, "serve.io.timeouts"), 1);
    }
}

#[test]
fn idle_negotiated_connection_gets_timeout_reply_and_is_counted() {
    for parallelism in WIDTHS {
        let server = governed_server(parallelism);
        let (mut client_end, handler) = connect(&server);

        // One round trip, then silence: the idle clock runs from the last
        // reply, and the server must hang up with a TIMEOUT reply.
        client_end.write_all(&envelope(Frame::Ping)).expect("ping");
        assert_eq!(reply(&mut client_end), Frame::Pong);
        match reply(&mut client_end) {
            Frame::Error(e) => assert_eq!(e.code, error_code::TIMEOUT),
            other => panic!("expected timeout error, got {other:?}"),
        }
        handler.join().expect("idle handler exits");
        assert_eq!(metric(&server, "serve.io.timeouts"), 1, "counted once");
        assert_eq!(metric(&server, "serve.frames.oversize"), 0);
    }
}

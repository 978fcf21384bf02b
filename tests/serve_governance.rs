//! End-to-end connection-governance tests over real sockets: connection
//! caps with `Busy` rejections and client retry, idle-timeout
//! enforcement, and shutdown that drains in-flight requests — asserted
//! via the server's governance metrics (`serve.conns.accepted`,
//! `serve.conns.busy_rejections`, `serve.io.timeouts`,
//! `serve.handlers.drained`, `serve.handlers.live`), never via wall-clock
//! timing.

use std::io::{Read, Write};
use std::time::Duration;

use nexus::core::Parallelism;
use nexus::kg::KnowledgeGraph;
use nexus::serve::wire::{error_code, read_envelope, Envelope, Frame};
use nexus::serve::{Endpoint, ExplainCall, RetryPolicy, Server, ServerOptions, Session};
use nexus::table::{Column, Table};
use nexus::NexusOptions;

const SQL: &str = "SELECT Country, avg(Salary) FROM t GROUP BY Country";

/// Same compact world as `serve_e2e.rs`: development drives salary.
fn world() -> (Table, KnowledgeGraph) {
    let mut kg = KnowledgeGraph::new();
    let mut countries = Vec::new();
    let mut salaries = Vec::new();
    for c in 0..18 {
        let name = format!("Country_{c:02}");
        let dev = (c % 3) as f64;
        let id = kg.add_entity(name.clone(), "Country");
        kg.set_literal(id, "hdi", 0.4 + 0.2 * dev);
        kg.set_literal(id, "gini", 30.0 + ((c / 3) % 2) as f64 * 8.0);
        for i in 0..30 {
            countries.push(name.clone());
            salaries.push(30.0 + 20.0 * dev + (i % 3) as f64 * 0.2);
        }
    }
    let table = Table::new(vec![
        ("Country", Column::from_strs(&countries)),
        ("Salary", Column::from_f64(salaries)),
    ])
    .unwrap();
    (table, kg)
}

/// A named value from the metrics snapshot of a live session.
fn metric(session: &Session, name: &str) -> u64 {
    session
        .metrics()
        .expect("metrics")
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing from the metrics snapshot"))
        .value
}

/// The error code of the next envelope on a raw stream.
fn error_reply(stream: &mut std::net::TcpStream) -> u16 {
    match read_envelope(stream).expect("reply envelope").frame {
        Frame::Error(e) => e.code,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

fn governed_server(options: ServerOptions) -> Server {
    let (table, kg) = world();
    let server = Server::new(options);
    server
        .add_dataset("world", table, kg, vec!["Country".into()])
        .expect("dataset loads");
    server
}

/// Binds the server on TCP loopback in a daemon thread; returns the
/// address and the daemon handle.
fn spawn_tcp(server: &Server) -> (String, std::thread::JoinHandle<()>) {
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let daemon = {
        let server = server.clone();
        std::thread::spawn(move || {
            server
                .serve_tcp("127.0.0.1:0", move |addr| {
                    addr_tx.send(addr).unwrap();
                })
                .expect("daemon exits cleanly");
        })
    };
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server binds")
        .to_string();
    (addr, daemon)
}

#[test]
fn over_cap_connection_gets_busy_and_a_retrying_client_recovers() {
    let server = governed_server(ServerOptions {
        max_connections: 1,
        ..ServerOptions::default()
    });
    let (addr, daemon) = spawn_tcp(&server);

    // Fill the only slot and prove it is established server-side.
    let holder = Session::connect_tcp(&addr).expect("connect");
    holder.ping().expect("slot holder is served");

    // The next connection must be bounced with Busy — read the one-shot
    // reply straight off the raw socket.
    let mut bounced = std::net::TcpStream::connect(&addr).expect("connect");
    bounced
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(error_reply(&mut bounced), error_code::BUSY);
    let mut rest = vec![0u8; 1024];
    assert_eq!(bounced.read(&mut rest).unwrap_or(0), 0, "then closed");

    // A session retrying at connect against the saturated server blocks
    // out its backoff schedule; once the holder leaves, a retried `Hello`
    // gets through.
    let freer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        drop(holder);
    });
    let retry = RetryPolicy {
        max_retries: 20,
        base_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_millis(100),
        seed: 42,
    };
    let mut retrier =
        Session::connect(&Endpoint::Tcp(addr.clone()), &retry).expect("retrying client recovers");
    retrier.ping().expect("recovered session is served");
    freer.join().unwrap();

    assert!(
        metric(&retrier, "serve.conns.busy_rejections") >= 2,
        "bounced + ≥1 retry rejection"
    );
    assert!(
        metric(&retrier, "serve.conns.accepted") >= 2,
        "holder + eventual retrier"
    );

    retrier.shutdown().expect("shutdown");
    daemon.join().unwrap();
}

#[test]
fn idle_connection_is_timed_out_and_the_server_keeps_serving() {
    let server = governed_server(ServerOptions {
        io_timeout: Duration::from_millis(150),
        max_connections: 1,
        ..ServerOptions::default()
    });
    let (addr, daemon) = spawn_tcp(&server);

    // Connect and send nothing: the server must reply Error(TIMEOUT) and
    // close, counted in io_timeouts.
    let mut idler = std::net::TcpStream::connect(&addr).expect("connect");
    idler
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(error_reply(&mut idler), error_code::TIMEOUT);

    // The one connection slot is free by the time the reply arrives: a
    // prompt client on a fresh connection is admitted and served.
    let mut client = Session::connect_tcp(&addr).expect("connect");
    let mut rest = vec![0u8; 1024];
    assert_eq!(idler.read(&mut rest).unwrap_or(0), 0, "then closed");
    client.ping().expect("server still serves");
    assert_eq!(metric(&client, "serve.io.timeouts"), 1);

    client.shutdown().expect("shutdown");
    daemon.join().unwrap();
}

#[test]
fn slow_loris_header_is_timed_out() {
    let server = governed_server(ServerOptions {
        io_timeout: Duration::from_millis(150),
        ..ServerOptions::default()
    });
    let (addr, daemon) = spawn_tcp(&server);

    // Send a partial header and stall: the per-frame budget, not the idle
    // timeout, must kill it (first byte already arrived).
    let mut loris = std::net::TcpStream::connect(&addr).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loris
        .write_all(&Envelope::v2(0, Frame::Ping).encode()[..7])
        .expect("partial header");
    assert_eq!(error_reply(&mut loris), error_code::TIMEOUT);

    let mut client = Session::connect_tcp(&addr).expect("connect");
    assert_eq!(metric(&client, "serve.io.timeouts"), 1);
    client.shutdown().expect("shutdown");
    daemon.join().unwrap();
}

/// Shutdown arriving while an `Explain` is in flight: the in-flight reply
/// still arrives, the daemon drains every handler, and the post-drain
/// metrics prove it — `serve.handlers.live == 0`, `serve.handlers.drained`
/// covers all accepted connections. Run at pipeline parallelism 1 and 8.
#[test]
fn shutdown_drains_in_flight_requests_at_either_pool_width() {
    for threads in [1usize, 8] {
        let server = governed_server(ServerOptions {
            nexus: NexusOptions::builder()
                .parallelism(Parallelism::Fixed(threads))
                .build()
                .expect("valid options"),
            ..ServerOptions::default()
        });
        let (addr, daemon) = spawn_tcp(&server);

        // In-flight worker: a cold Explain (the pipeline gives shutdown a
        // real in-flight request to race against).
        let worker = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = Session::connect_tcp(&addr).expect("connect");
                client
                    .submit(&ExplainCall::new("world", SQL))
                    .and_then(|ticket| ticket.wait())
                    .expect("in-flight reply")
            })
        };

        // Shutdown from a second connection as soon as the server has
        // accepted both and started the explain — admission and arrival
        // are observable via `serve.conns.accepted` and
        // `serve.requests.served`, so this is counter-gated, not
        // sleep-gated. (Admission alone is not enough: on a loaded machine
        // the worker's Explain frame can arrive after the shutdown and be
        // refused.)
        let mut controller = Session::connect_tcp(&addr).expect("connect");
        while metric(&controller, "serve.conns.accepted") < 2
            || metric(&controller, "serve.requests.served") < 1
        {
            std::thread::yield_now();
        }
        controller.shutdown().expect("shutdown acknowledged");

        // The in-flight explain must still complete with a real reply.
        let response = worker.join().expect("worker thread");
        assert!(
            !response.explanation_bytes.is_empty(),
            "threads {threads}: in-flight request must be answered during drain"
        );

        // Daemon returns only after the drain: every handler joined.
        daemon.join().unwrap();
        let metric = |name: &str| server.metric(name).expect("registered metric");
        assert_eq!(
            metric("serve.handlers.live"),
            0,
            "threads {threads}: no handler thread may outlive the drain"
        );
        let drained = metric("serve.handlers.drained");
        assert!(
            drained >= 2,
            "threads {threads}: worker + controller handlers were joined, got {drained}"
        );
        assert_eq!(metric("serve.conns.accepted"), 2, "threads {threads}");
        assert_eq!(
            metric("serve.conns.busy_rejections"),
            0,
            "threads {threads}"
        );
    }
}

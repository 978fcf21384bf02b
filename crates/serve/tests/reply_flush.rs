//! Replies are written when they are ready, not when a read returns: the
//! connection loop waits on one event channel that carries both the
//! reader thread's envelopes and the workers' replies.
//!
//! No dataset is needed. An `Explain` for an unknown dataset still goes to
//! a worker, which answers `UNKNOWN_DATASET`.

use std::io::{Read, Write};
use std::time::Duration;

use nexus_serve::wire::{
    error_code, read_envelope, CallOverrides, Envelope, ExplainRequestWire, Frame, HelloWire,
    MAX_VERSION,
};
use nexus_serve::{pipe, DeadlineStream, PipeStream, Server, ServerOptions};

/// A pipe end whose read timeout cannot be set: every read blocks until
/// bytes or EOF arrive, so a read tick never ends.
struct EndlessTick(PipeStream);

impl Read for EndlessTick {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for EndlessTick {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl DeadlineStream for EndlessTick {
    fn set_read_timeout(&self, _timeout: Option<Duration>) -> std::io::Result<()> {
        Ok(())
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.0.set_write_timeout(timeout)
    }

    fn shutdown_write(&self) -> std::io::Result<()> {
        self.0.shutdown_write()
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        self.0.try_clone().map(EndlessTick)
    }
}

fn send(stream: &mut PipeStream, corr: u64, frame: Frame) {
    stream
        .write_all(&Envelope::v2(corr, frame).encode())
        .expect("send v2 envelope");
}

/// Negotiates v2 on the client end of a fresh connection.
fn handshake(client: &mut PipeStream) {
    let hello = Frame::Hello(HelloWire {
        max_version: MAX_VERSION,
    });
    send(client, 0, hello);
    let ack = read_envelope(client).expect("hello ack");
    assert!(
        matches!(ack.frame, Frame::HelloAck(_)),
        "got {:?}",
        ack.frame
    );
}

fn unknown_dataset_explain() -> Frame {
    Frame::Explain(ExplainRequestWire {
        dataset: "missing".into(),
        sql: "SELECT A, avg(X) FROM t GROUP BY A".into(),
        overrides: CallOverrides::default(),
    })
}

fn assert_unknown_dataset(env: &Envelope, corr: u64) {
    assert_eq!(env.corr_id, corr);
    match &env.frame {
        Frame::Error(e) => assert_eq!(e.code, error_code::UNKNOWN_DATASET),
        other => panic!("expected UNKNOWN_DATASET, got {other:?}"),
    }
}

#[test]
fn a_reply_is_written_even_when_the_read_tick_never_ends() {
    let server = Server::new(ServerOptions::default());
    let (mut client, server_end) = pipe();
    let handler = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_connection(EndlessTick(server_end)))
    };
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    handshake(&mut client);

    send(&mut client, 1, unknown_dataset_explain());
    let reply = read_envelope(&mut client).expect("the worker's reply is written");
    assert_unknown_dataset(&reply, 1);

    drop(client);
    handler.join().expect("handler exits once the peer is gone");
}

#[test]
fn every_final_reply_records_its_flush_time() {
    const N: u64 = 5;
    let server = Server::new(ServerOptions::default());
    let (mut client, server_end) = pipe();
    let handler = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_connection(server_end))
    };
    handshake(&mut client);
    for corr in 1..=N {
        send(&mut client, corr, unknown_dataset_explain());
    }
    let mut answered: Vec<u64> = (0..N)
        .map(|_| {
            let env = read_envelope(&mut client).expect("reply");
            assert_unknown_dataset(&env, env.corr_id);
            env.corr_id
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, (1..=N).collect::<Vec<_>>());
    drop(client);
    handler.join().expect("handler exits");

    let snap = server.metrics_snapshot();
    let count = snap
        .iter()
        .find(|m| m.name == "serve.request.flush_nanos.count")
        .map(|m| m.value);
    assert_eq!(count, Some(N), "one flush sample per final reply");
}

//! Deterministic fault injection for stream-level tests.
//!
//! Every connection-governance limit in [`Server`](crate::Server) is
//! exercised by tests rather than asserted in prose, and those tests must
//! be **deterministic**: a stalled client stalls at the same byte offset
//! on every run, chosen by a fixed seed — never by a race.
//!
//! Two pieces make that possible:
//!
//! * [`pipe`] — an in-memory, full-duplex stream pair implementing
//!   [`DeadlineStream`], so
//!   [`Server::serve_connection`](crate::Server::serve_connection) can be
//!   driven entirely in-process, no sockets, no ports;
//! * [`FaultyStream`] — a wrapper that injects faults at **seeded byte
//!   offsets** of the write stream: partial writes ([`Fault::Chop`]),
//!   mid-frame stalls ([`Fault::StallAfter`]), truncations
//!   ([`Fault::TruncateAfter`]), and abrupt disconnects
//!   ([`Fault::ResetAfter`]).
//!
//! The seed → offset map is [`FaultPlan::seeded_offset`], built on the
//! runtime's [`SplitMix64`]: equal seeds always fault at equal offsets.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use nexus_runtime::SplitMix64;

use crate::net::DeadlineStream;

// ---------------------------------------------------------------------------
// In-memory duplex pipe
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Channel {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Default)]
struct Direction {
    state: Mutex<Channel>,
    readable: Condvar,
}

impl Direction {
    fn close(&self) {
        self.state.lock().expect("pipe poisoned").closed = true;
        self.readable.notify_all();
    }
}

/// One end of an in-memory duplex stream (see [`pipe`]). Reads honour the
/// configured read timeout by failing with [`ErrorKind::WouldBlock`],
/// exactly like a socket with `SO_RCVTIMEO`; writes are unbounded and
/// never block. [`DeadlineStream::try_clone`] gives a second handle to the
/// same end (sharing its read timeout, as sockets share `SO_RCVTIMEO`);
/// the end closes when its last handle drops.
pub struct PipeStream {
    end: Arc<PipeEnd>,
}

/// The state behind every handle to one pipe end.
struct PipeEnd {
    incoming: Arc<Direction>,
    outgoing: Arc<Direction>,
    read_timeout: Mutex<Option<Duration>>,
}

impl Drop for PipeEnd {
    fn drop(&mut self) {
        self.outgoing.close();
        self.incoming.close();
    }
}

/// An in-memory duplex pair: bytes written to one end are read from the
/// other. Dropping an end (its last handle) closes both directions (peer
/// reads see EOF after draining, peer writes fail with `BrokenPipe`).
pub fn pipe() -> (PipeStream, PipeStream) {
    let ab = Arc::new(Direction::default());
    let ba = Arc::new(Direction::default());
    let end = |incoming, outgoing| PipeStream {
        end: Arc::new(PipeEnd {
            incoming,
            outgoing,
            read_timeout: Mutex::new(None),
        }),
    };
    (end(Arc::clone(&ba), Arc::clone(&ab)), end(ab, ba))
}

impl Read for PipeStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let end = &*self.end;
        let timeout = *end.read_timeout.lock().expect("pipe poisoned");
        let mut state = end.incoming.state.lock().expect("pipe poisoned");
        while state.buf.is_empty() {
            if state.closed {
                return Ok(0);
            }
            state = match timeout {
                None => end.incoming.readable.wait(state).expect("pipe poisoned"),
                Some(t) => {
                    let (s, result) = end
                        .incoming
                        .readable
                        .wait_timeout(state, t)
                        .expect("pipe poisoned");
                    if result.timed_out() && s.buf.is_empty() && !s.closed {
                        return Err(ErrorKind::WouldBlock.into());
                    }
                    s
                }
            };
        }
        let n = buf.len().min(state.buf.len());
        let (front, back) = state.buf.as_slices();
        if n <= front.len() {
            buf[..n].copy_from_slice(&front[..n]);
        } else {
            buf[..front.len()].copy_from_slice(front);
            buf[front.len()..n].copy_from_slice(&back[..n - front.len()]);
        }
        state.buf.drain(..n);
        Ok(n)
    }
}

impl Write for PipeStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let outgoing = &self.end.outgoing;
        let mut state = outgoing.state.lock().expect("pipe poisoned");
        if state.closed {
            return Err(ErrorKind::BrokenPipe.into());
        }
        state.buf.extend(buf);
        outgoing.readable.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl DeadlineStream for PipeStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        *self.end.read_timeout.lock().expect("pipe poisoned") = timeout;
        Ok(())
    }

    fn set_write_timeout(&self, _timeout: Option<Duration>) -> std::io::Result<()> {
        Ok(()) // pipe writes never block
    }

    fn shutdown_write(&self) -> std::io::Result<()> {
        self.end.outgoing.close();
        Ok(())
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        Ok(PipeStream {
            end: Arc::clone(&self.end),
        })
    }
}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// One injected fault, applied to the byte stream a [`FaultyStream`]
/// writes. Offsets count bytes successfully submitted by the caller, so a
/// fault "at offset 17" always triggers after exactly 17 bytes have been
/// delivered — deterministically, whatever the caller's write chunking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Deliver writes in chunks of at most this many bytes (partial
    /// writes): every `write` call forwards a short prefix, so callers
    /// relying on `write` == `write_all` misbehave and `write_all` loops.
    Chop {
        /// Maximum bytes forwarded per underlying write.
        max: usize,
    },
    /// After `offset` bytes, silently swallow everything: the peer sees a
    /// mid-frame stall (bytes stop flowing, the stream stays open).
    StallAfter {
        /// Bytes delivered before the stall.
        offset: u64,
    },
    /// After `offset` bytes, close the write half: the peer sees a
    /// truncated frame followed by EOF.
    TruncateAfter {
        /// Bytes delivered before the close.
        offset: u64,
    },
    /// After `offset` bytes, fail reads and writes with
    /// `ConnectionReset` and close the write half: an abrupt disconnect.
    ResetAfter {
        /// Bytes delivered before the reset.
        offset: u64,
    },
}

/// A deterministic fault schedule for one stream: at most one offset
/// fault plus optional write chopping.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Maximum bytes forwarded per underlying write ([`Fault::Chop`]).
    pub chop: Option<usize>,
    /// The offset-triggered fault, if any.
    pub action: Option<Fault>,
}

impl FaultPlan {
    /// No faults: the stream behaves exactly like its inner stream.
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    /// Partial writes only.
    pub fn chopped(max: usize) -> FaultPlan {
        FaultPlan {
            chop: Some(max.max(1)),
            action: None,
        }
    }

    /// A plan built from `fault` (chop faults populate
    /// [`chop`](FaultPlan::chop), offset faults
    /// [`action`](FaultPlan::action)).
    pub fn with(fault: Fault) -> FaultPlan {
        match fault {
            Fault::Chop { max } => FaultPlan::chopped(max),
            other => FaultPlan {
                chop: None,
                action: Some(other),
            },
        }
    }

    /// A deterministic fault offset strictly inside `[1, len)`: the fault
    /// triggers after at least one byte and before the last. Equal seeds
    /// yield equal offsets.
    pub fn seeded_offset(seed: u64, len: usize) -> u64 {
        debug_assert!(len >= 2, "need at least 2 bytes to fault mid-stream");
        1 + SplitMix64::new(seed).next_below(len as u64 - 1)
    }
}

enum FaultState {
    Armed,
    Stalled,
    Truncated,
    Reset,
}

/// A [`DeadlineStream`] wrapper that injects the faults of a
/// [`FaultPlan`] into its write stream (and, for resets, its reads).
pub struct FaultyStream<S: DeadlineStream> {
    inner: S,
    plan: FaultPlan,
    written: u64,
    state: FaultState,
}

impl<S: DeadlineStream> FaultyStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyStream<S> {
        FaultyStream {
            inner,
            plan,
            written: 0,
            state: FaultState::Armed,
        }
    }

    /// Bytes actually delivered to the inner stream so far.
    pub fn delivered(&self) -> u64 {
        self.written
    }

    /// The inner stream, for direct access after the faulty phase.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Fires the offset fault if the stream position has reached it.
    fn trigger_if_due(&mut self) -> std::io::Result<()> {
        if !matches!(self.state, FaultState::Armed) {
            return Ok(());
        }
        match self.plan.action {
            Some(Fault::StallAfter { offset }) if self.written >= offset => {
                self.state = FaultState::Stalled;
            }
            Some(Fault::TruncateAfter { offset }) if self.written >= offset => {
                self.state = FaultState::Truncated;
                self.inner.shutdown_write()?;
            }
            Some(Fault::ResetAfter { offset }) if self.written >= offset => {
                self.state = FaultState::Reset;
                self.inner.shutdown_write()?;
            }
            _ => {}
        }
        Ok(())
    }
}

impl<S: DeadlineStream> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if matches!(self.state, FaultState::Reset) {
            return Err(ErrorKind::ConnectionReset.into());
        }
        self.inner.read(buf)
    }
}

impl<S: DeadlineStream> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.trigger_if_due()?;
        match self.state {
            FaultState::Stalled => return Ok(buf.len()), // swallowed
            FaultState::Truncated => return Err(ErrorKind::BrokenPipe.into()),
            FaultState::Reset => return Err(ErrorKind::ConnectionReset.into()),
            FaultState::Armed => {}
        }
        // Cap this write so the fault offset is hit exactly, then chop.
        let mut n = buf.len();
        if let Some(
            Fault::StallAfter { offset }
            | Fault::TruncateAfter { offset }
            | Fault::ResetAfter { offset },
        ) = self.plan.action
        {
            n = n.min((offset - self.written) as usize);
        }
        if let Some(max) = self.plan.chop {
            n = n.min(max);
        }
        if n == 0 {
            // The fault offset has been reached with pending bytes: fire
            // it and retry, which reports the faulted behaviour.
            self.trigger_if_due()?;
            return self.write(buf);
        }
        let delivered = self.inner.write(&buf[..n])?;
        self.written += delivered as u64;
        Ok(delivered)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if matches!(self.state, FaultState::Reset) {
            return Err(ErrorKind::ConnectionReset.into());
        }
        self.inner.flush()
    }
}

impl<S: DeadlineStream> DeadlineStream for FaultyStream<S> {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }

    fn shutdown_write(&self) -> std::io::Result<()> {
        self.inner.shutdown_write()
    }

    /// Unsupported: a fault schedule belongs to one handle, and a faulty
    /// stream is only ever a client end, which the server never splits.
    fn try_clone(&self) -> std::io::Result<Self> {
        Err(std::io::Error::new(
            ErrorKind::Unsupported,
            "a FaultyStream cannot be split",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_round_trips_bytes() {
        let (mut a, mut b) = pipe();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn pipe_read_timeout_is_wouldblock() {
        let (_a, mut b) = pipe();
        b.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let err = b.read(&mut [0u8; 4]).expect_err("no data");
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    #[test]
    fn pipe_close_gives_eof_after_drain() {
        let (mut a, mut b) = pipe();
        a.write_all(b"xy").unwrap();
        drop(a);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 2);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF after drain");
        let err = b.write(b"z").expect_err("peer is gone");
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn pipe_stays_open_until_its_last_handle_drops() {
        let (a, mut b) = pipe();
        let mut a2 = a.try_clone().unwrap();
        drop(a);
        a2.write_all(b"still open").unwrap();
        let mut buf = [0u8; 10];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"still open");
        b.write_all(b"ok").unwrap();
        let mut back = [0u8; 2];
        a2.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ok");

        drop(a2);
        assert_eq!(
            b.read(&mut buf).unwrap(),
            0,
            "EOF once every handle is gone"
        );
        let err = b.write(b"z").expect_err("peer is gone");
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn chop_splits_writes_but_delivers_everything() {
        let (a, mut b) = pipe();
        let mut faulty = FaultyStream::new(a, FaultPlan::chopped(3));
        assert_eq!(faulty.write(b"0123456789").unwrap(), 3, "chopped");
        faulty.write_all(b"0123456789").unwrap();
        let mut buf = vec![0u8; 13];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"0120123456789");
    }

    #[test]
    fn stall_delivers_exactly_offset_bytes() {
        let (a, mut b) = pipe();
        let mut faulty = FaultyStream::new(a, FaultPlan::with(Fault::StallAfter { offset: 4 }));
        faulty.write_all(b"0123456789").unwrap(); // swallowed past 4
        assert_eq!(faulty.delivered(), 4);
        b.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"0123");
        let err = b.read(&mut buf).expect_err("stalled, not closed");
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    #[test]
    fn truncate_closes_after_offset_bytes() {
        let (a, mut b) = pipe();
        let mut faulty = FaultyStream::new(a, FaultPlan::with(Fault::TruncateAfter { offset: 6 }));
        let err = faulty.write_all(b"0123456789").expect_err("truncated");
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
        let mut buf = [0u8; 10];
        assert_eq!(b.read(&mut buf).unwrap(), 6);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF after truncation");
    }

    #[test]
    fn reset_fails_both_directions() {
        let (a, _b) = pipe();
        let mut faulty = FaultyStream::new(a, FaultPlan::with(Fault::ResetAfter { offset: 2 }));
        let err = faulty.write_all(b"0123").expect_err("reset");
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
        let err = faulty.read(&mut [0u8; 4]).expect_err("reset reads too");
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
    }

    #[test]
    fn seeded_offsets_are_deterministic_and_in_range() {
        for seed in 0..64 {
            let a = FaultPlan::seeded_offset(seed, 100);
            let b = FaultPlan::seeded_offset(seed, 100);
            assert_eq!(a, b, "seed {seed}");
            assert!((1..100).contains(&a), "seed {seed} gave offset {a}");
        }
        // Seeds spread across the range rather than collapsing.
        let distinct: std::collections::HashSet<u64> =
            (0..64).map(|s| FaultPlan::seeded_offset(s, 1000)).collect();
        assert!(distinct.len() > 32);
    }
}

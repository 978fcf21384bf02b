//! Deadline-governed stream I/O for the serving layer.
//!
//! [`wire`](crate::wire) is deliberately pure: [`crate::wire::read_frame`]
//! blocks until a frame arrives or the stream dies, which is exactly the
//! behaviour a production server cannot afford — a stalled or malicious
//! peer would pin a handler thread forever. This module adds the
//! time-bounded reading the server actually uses:
//!
//! * [`DeadlineStream`] abstracts the socket operations governance needs
//!   (`set_read_timeout`/`set_write_timeout`/`shutdown`/`try_clone`) over
//!   both real sockets (TCP and Unix) and the in-memory test pipes of
//!   [`faults`](crate::faults). `try_clone` splits a connection into a
//!   read handle and a write handle, so the server's connection loop can
//!   hand the reads to a reader thread and write replies the moment they
//!   exist;
//! * [`read_frame_deadline`] reads one frame under two deadlines — an
//!   **idle timeout** (time allowed before the first byte of the next
//!   frame) and a **per-frame budget** (time allowed from first byte to
//!   complete envelope, which aborts slow-loris payloads no matter how
//!   steadily they dribble) — while polling an abort flag so an idle
//!   handler notices server shutdown promptly.

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

use crate::wire::{Envelope, Frame, FrameHeader, WireError, HEADER_LEN, VERSION};

/// A bidirectional stream whose blocking reads and writes can be given
/// deadlines, whose write half can be closed independently, and which can
/// be split into handles for a reading thread and a writing thread.
///
/// Implemented by [`std::net::TcpStream`],
/// [`std::os::unix::net::UnixStream`], and the in-memory
/// [`PipeStream`](crate::faults::PipeStream)/[`FaultyStream`](crate::faults::FaultyStream)
/// used for deterministic fault injection.
pub trait DeadlineStream: Read + Write {
    /// Bounds how long a single `read` may block (`None` = forever).
    /// Timed-out reads fail with [`ErrorKind::WouldBlock`] or
    /// [`ErrorKind::TimedOut`].
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;

    /// Bounds how long a single `write` may block (`None` = forever).
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;

    /// Closes the write half, delivering EOF to the peer's reads.
    fn shutdown_write(&self) -> std::io::Result<()>;

    /// A second handle to the same connection. Timeouts are per
    /// connection, not per handle, so a split stream keeps to one rule:
    /// the reading handle sets only the read timeout and the writing
    /// handle only the write timeout. The connection closes when its last
    /// handle drops.
    fn try_clone(&self) -> std::io::Result<Self>
    where
        Self: Sized;
}

impl DeadlineStream for std::net::TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::net::TcpStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::net::TcpStream::set_write_timeout(self, timeout)
    }

    fn shutdown_write(&self) -> std::io::Result<()> {
        std::net::TcpStream::shutdown(self, std::net::Shutdown::Write)
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        std::net::TcpStream::try_clone(self)
    }
}

impl DeadlineStream for std::os::unix::net::UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::os::unix::net::UnixStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::os::unix::net::UnixStream::set_write_timeout(self, timeout)
    }

    fn shutdown_write(&self) -> std::io::Result<()> {
        std::os::unix::net::UnixStream::shutdown(self, std::net::Shutdown::Write)
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        std::os::unix::net::UnixStream::try_clone(self)
    }
}

/// Why [`read_frame_deadline`] returned without a frame.
#[derive(Debug)]
pub enum ReadError {
    /// No frame started within the idle timeout.
    IdleTimeout,
    /// A frame started but did not complete within the per-frame budget
    /// (the slow-loris case).
    FrameTimeout,
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The abort flag was raised while waiting (server shutdown).
    Aborted,
    /// The envelope was malformed, truncated mid-frame, oversized, or the
    /// stream failed.
    Wire(WireError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::IdleTimeout => write!(f, "idle timeout"),
            ReadError::FrameTimeout => write!(f, "frame deadline exceeded"),
            ReadError::Closed => write!(f, "peer closed the stream"),
            ReadError::Aborted => write!(f, "read aborted"),
            ReadError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// How the fill loop should classify a timeout tick.
enum Phase {
    /// Waiting for the first byte of a frame: idle deadline applies.
    BetweenFrames,
    /// Mid-envelope: the per-frame deadline applies, and EOF is a
    /// truncation rather than a clean close.
    MidFrame,
}

struct DeadlineReader<'a, S: DeadlineStream> {
    stream: &'a mut S,
    /// Absolute deadline for the first byte of the frame.
    idle_deadline: Instant,
    /// Absolute deadline for the complete envelope; armed by the first
    /// byte.
    frame_deadline: Option<Instant>,
    frame_budget: Duration,
    abort: &'a dyn Fn() -> bool,
}

impl<S: DeadlineStream> DeadlineReader<'_, S> {
    /// Fills `buf` completely, honouring deadlines and the abort flag.
    fn fill(&mut self, buf: &mut [u8], mut phase: Phase) -> Result<(), ReadError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Err(match phase {
                        Phase::BetweenFrames => ReadError::Closed,
                        Phase::MidFrame => ReadError::Wire(WireError::Truncated),
                    })
                }
                Ok(n) => {
                    filled += n;
                    if self.frame_deadline.is_none() {
                        self.frame_deadline = Some(Instant::now() + self.frame_budget);
                    }
                    phase = Phase::MidFrame;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if (self.abort)() {
                        return Err(ReadError::Aborted);
                    }
                    let now = Instant::now();
                    match self.frame_deadline {
                        None if now >= self.idle_deadline => return Err(ReadError::IdleTimeout),
                        Some(deadline) if now >= deadline => return Err(ReadError::FrameTimeout),
                        _ => {}
                    }
                }
                Err(e) => return Err(ReadError::Wire(WireError::Io(e))),
            }
        }
        Ok(())
    }
}

/// Reads one frame with an idle timeout, a per-frame budget, and an abort
/// flag, ticking every `tick` so aborts and deadlines are noticed even
/// while no bytes flow.
///
/// Semantics match [`crate::wire::read_frame`] for well-formed input:
/// foreign-but-well-formed envelopes are consumed in full and reported as
/// [`WireError::UnsupportedVersion`]/[`WireError::UnknownFrameType`]
/// (wrapped in [`ReadError::Wire`]) so the caller can answer
/// [`Frame::Unsupported`] and keep the stream.
pub fn read_frame_deadline<S: DeadlineStream>(
    stream: &mut S,
    idle_timeout: Duration,
    frame_budget: Duration,
    tick: Duration,
    abort: &dyn Fn() -> bool,
) -> Result<Frame, ReadError> {
    read_envelope_deadline(stream, idle_timeout, frame_budget, tick, abort, VERSION)
        .map(|env| env.frame)
}

/// Reads one envelope of any version up to `max_version` under the same
/// deadlines as [`read_frame_deadline`] (which is this function fixed to
/// v1).
///
/// The server's per-connection reader thread calls this in a loop with
/// the full I/O timeout as both deadlines and the connection's stop flag
/// as `abort`. It forwards every envelope to the connection loop and
/// reads on after an [`ReadError::IdleTimeout`] (which consumes no
/// bytes): whether a quiet connection is idle depends on the requests in
/// flight and on the replies written, which only the connection loop
/// sees, so that loop keeps the idle clock.
pub fn read_envelope_deadline<S: DeadlineStream>(
    stream: &mut S,
    idle_timeout: Duration,
    frame_budget: Duration,
    tick: Duration,
    abort: &dyn Fn() -> bool,
    max_version: u16,
) -> Result<Envelope, ReadError> {
    stream
        .set_read_timeout(Some(tick.max(Duration::from_millis(1))))
        .map_err(|e| ReadError::Wire(WireError::Io(e)))?;
    let mut reader = DeadlineReader {
        stream,
        idle_deadline: Instant::now() + idle_timeout,
        frame_deadline: None,
        frame_budget,
        abort,
    };

    let mut envelope = vec![0u8; HEADER_LEN];
    reader.fill(&mut envelope, Phase::BetweenFrames)?;
    let header: &[u8; HEADER_LEN] = envelope[..HEADER_LEN].try_into().expect("length fixed");
    let header = FrameHeader::parse(header).map_err(ReadError::Wire)?;

    envelope.resize(HEADER_LEN + header.rest_len(), 0);
    reader.fill(&mut envelope[HEADER_LEN..], Phase::MidFrame)?;

    // The full envelope is in hand; the pure decoder validates CRC,
    // version, and payload structure exactly as the blocking path does.
    match Envelope::decode_version_max(&envelope, max_version) {
        Ok((env, consumed)) => {
            debug_assert_eq!(consumed, envelope.len());
            Ok(env)
        }
        Err(e) => Err(ReadError::Wire(e)),
    }
}

/// A deadline tick for the given I/O timeout: frequent enough to notice
/// shutdown promptly, coarse enough to stay off the scheduler's back.
pub fn deadline_tick(io_timeout: Duration) -> Duration {
    (io_timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(100))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::pipe;
    use crate::wire::{encode_frame, write_frame};

    const IDLE: Duration = Duration::from_millis(120);
    const FRAME: Duration = Duration::from_millis(120);
    const TICK: Duration = Duration::from_millis(5);
    const NEVER: &dyn Fn() -> bool = &|| false;

    #[test]
    fn whole_frame_reads_normally() {
        let (mut a, mut b) = pipe();
        write_frame(&mut a, &Frame::Ping).expect("write");
        let frame = read_frame_deadline(&mut b, IDLE, FRAME, TICK, NEVER).expect("read");
        assert_eq!(frame, Frame::Ping);
    }

    #[test]
    fn idle_stream_times_out() {
        let (_a, mut b) = pipe();
        match read_frame_deadline(&mut b, IDLE, FRAME, TICK, NEVER) {
            Err(ReadError::IdleTimeout) => {}
            other => panic!("expected IdleTimeout, got {other:?}"),
        }
    }

    #[test]
    fn slow_loris_hits_the_frame_deadline() {
        let (mut a, mut b) = pipe();
        let bytes = encode_frame(&Frame::Stats);
        // First half arrives; the rest never does.
        use std::io::Write as _;
        a.write_all(&bytes[..bytes.len() / 2]).expect("half frame");
        match read_frame_deadline(&mut b, IDLE, FRAME, TICK, NEVER) {
            Err(ReadError::FrameTimeout) => {}
            other => panic!("expected FrameTimeout, got {other:?}"),
        }
    }

    #[test]
    fn clean_close_between_frames_is_closed_not_truncated() {
        let (a, mut b) = pipe();
        drop(a);
        match read_frame_deadline(&mut b, IDLE, FRAME, TICK, NEVER) {
            Err(ReadError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn close_mid_frame_is_truncation() {
        let (mut a, mut b) = pipe();
        let bytes = encode_frame(&Frame::Ping);
        use std::io::Write as _;
        a.write_all(&bytes[..7]).expect("partial header");
        drop(a);
        match read_frame_deadline(&mut b, IDLE, FRAME, TICK, NEVER) {
            Err(ReadError::Wire(WireError::Truncated)) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn abort_flag_interrupts_an_idle_wait() {
        let (_a, mut b) = pipe();
        match read_frame_deadline(
            &mut b,
            Duration::from_secs(60),
            Duration::from_secs(60),
            TICK,
            &|| true,
        ) {
            Err(ReadError::Aborted) => {}
            other => panic!("expected Aborted, got {other:?}"),
        }
    }

    #[test]
    fn oversize_declaration_is_rejected_before_payload() {
        let (mut a, mut b) = pipe();
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[11..15].copy_from_slice(&u32::MAX.to_le_bytes());
        use std::io::Write as _;
        a.write_all(&bytes).expect("header");
        match read_frame_deadline(&mut b, IDLE, FRAME, TICK, NEVER) {
            Err(ReadError::Wire(WireError::PayloadTooLarge(n))) => assert_eq!(n, u32::MAX),
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn tick_is_clamped() {
        assert_eq!(
            deadline_tick(Duration::from_millis(1)),
            Duration::from_millis(5)
        );
        assert_eq!(
            deadline_tick(Duration::from_secs(30)),
            Duration::from_millis(100)
        );
        assert_eq!(
            deadline_tick(Duration::from_millis(100)),
            Duration::from_millis(25)
        );
    }
}

//! The envelope codec: one header/correlation-id/CRC path for every
//! frame, and the reusable [`Workspace`] encode buffer.
//!
//! Adding a frame type touches the [`Frame`](super::Frame) enum and its
//! payload codec — never this file: header layout, length patching, and
//! CRC trailer live here once.

use std::io::{Read, Write};

use super::{
    crc32, put_u16, put_u32, put_u64, Frame, Result, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD,
    MAX_VERSION,
};

/// The parsed fixed-size envelope header — everything a reader needs to
/// know before touching the payload: how many more bytes to expect, and
/// whether to expect them at all.
///
/// [`parse`](FrameHeader::parse) validates only what must hold for the
/// stream to stay framed (magic and the payload cap). Version and
/// frame-type checks are deferred until the whole envelope (including its
/// CRC) has been consumed, so foreign-but-well-formed frames can be
/// skipped and answered with [`Frame::Unsupported`](super::Frame::Unsupported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version of the frame.
    pub version: u16,
    /// Frame-type byte.
    pub frame_type: u8,
    /// Declared payload length (validated against
    /// [`MAX_PAYLOAD`](super::MAX_PAYLOAD)).
    pub payload_len: u32,
}

impl FrameHeader {
    /// Parses the fixed [`HEADER_LEN`]-byte envelope prefix.
    pub fn parse(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader> {
        if bytes[..8] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let payload_len = u32::from_le_bytes([bytes[11], bytes[12], bytes[13], bytes[14]]);
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::PayloadTooLarge(payload_len));
        }
        Ok(FrameHeader {
            version: u16::from_le_bytes([bytes[8], bytes[9]]),
            frame_type: bytes[10],
            payload_len,
        })
    }

    /// Bytes remaining after the header: payload plus the 4-byte CRC.
    pub fn rest_len(&self) -> usize {
        self.payload_len as usize + 4
    }
}

/// A reusable per-connection encode buffer.
///
/// Every [`Envelope::encode_into`] clears and refills the buffer in
/// place; once the buffer has grown to the connection's steady-state
/// reply size, further encodes allocate nothing. The counters feed the
/// server's `workspace_reuse_hits` statistic.
#[derive(Debug, Default)]
pub struct Workspace {
    buf: Vec<u8>,
    encodes: u64,
    reuse_hits: u64,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Envelopes encoded into this workspace.
    pub fn encodes(&self) -> u64 {
        self.encodes
    }

    /// Encodes that reused the buffer without growing it (every encode
    /// after the first whose frame fit in the existing capacity).
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// The bytes of the most recent encode.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the workspace, returning the last encode's bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

/// Encodes one envelope into `ws` and returns the encoded bytes.
///
/// The single header/length/CRC path behind [`Envelope::encode_into`],
/// also used by the server, which writes frames it does not own without
/// cloning them into an [`Envelope`].
pub(crate) fn encode_parts_into<'w>(
    corr_id: u64,
    frame: &Frame,
    ws: &'w mut Workspace,
) -> &'w [u8] {
    let cap_before = ws.buf.capacity();
    let first = ws.encodes == 0;
    ws.buf.clear();
    ws.buf.extend_from_slice(&MAGIC);
    put_u16(&mut ws.buf, MAX_VERSION);
    ws.buf.push(frame.frame_type());
    put_u32(&mut ws.buf, 0); // payload length, patched below
    put_u64(&mut ws.buf, corr_id);
    frame.encode_payload_into(&mut ws.buf);
    let payload_len = (ws.buf.len() - HEADER_LEN) as u32;
    ws.buf[11..15].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&ws.buf);
    put_u32(&mut ws.buf, crc);
    ws.encodes += 1;
    if !first && ws.buf.capacity() == cap_before {
        ws.reuse_hits += 1;
    }
    &ws.buf
}

/// One correlation-id'd NEXUSRPC envelope (always protocol version 2 on
/// the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Correlation id tying requests to replies.
    pub corr_id: u64,
    /// The frame carried.
    pub frame: Frame,
}

impl Envelope {
    /// An envelope addressed at `corr_id`.
    pub fn v2(corr_id: u64, frame: Frame) -> Envelope {
        Envelope { corr_id, frame }
    }

    /// Encodes this envelope into `ws`, returning the encoded bytes.
    pub fn encode_into<'w>(&self, ws: &'w mut Workspace) -> &'w [u8] {
        encode_parts_into(self.corr_id, &self.frame, ws)
    }

    /// Encodes into a fresh buffer (throwaway-workspace convenience).
    pub fn encode(&self) -> Vec<u8> {
        let mut ws = Workspace::new();
        self.encode_into(&mut ws);
        ws.into_inner()
    }

    /// Decodes one envelope from the front of `buf`, returning it and the
    /// number of bytes consumed.
    ///
    /// The CRC is validated before the version is judged, so
    /// [`WireError::UnsupportedVersion`] / [`WireError::UnknownFrameType`]
    /// mean a well-formed envelope this build cannot interpret (a retired
    /// version-1 envelope included) — the reported length is still
    /// consumed and the stream stays framed.
    pub fn decode(buf: &[u8]) -> Result<(Envelope, usize)> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("length checked");
        let header = FrameHeader::parse(header)?;
        let total = HEADER_LEN + header.rest_len();
        if buf.len() < total {
            return Err(WireError::Truncated);
        }
        let body_end = HEADER_LEN + header.payload_len as usize;
        let stored = u32::from_le_bytes([
            buf[body_end],
            buf[body_end + 1],
            buf[body_end + 2],
            buf[body_end + 3],
        ]);
        let computed = crc32(&buf[..body_end]);
        if computed != stored {
            return Err(WireError::BadCrc { computed, stored });
        }
        if header.version != MAX_VERSION {
            return Err(WireError::UnsupportedVersion(header.version));
        }
        let payload = &buf[HEADER_LEN..body_end];
        if payload.len() < 8 {
            return Err(WireError::Malformed("missing correlation id"));
        }
        let corr_id = u64::from_le_bytes(payload[..8].try_into().expect("length checked"));
        let frame = Frame::decode_payload(header.frame_type, &payload[8..])?;
        Ok((Envelope { corr_id, frame }, total))
    }
}

/// Writes one envelope to a stream through `ws`.
pub fn write_envelope(w: &mut impl Write, env: &Envelope, ws: &mut Workspace) -> Result<()> {
    w.write_all(env.encode_into(ws))?;
    w.flush()?;
    Ok(())
}

/// Reads one envelope from a stream. As with [`Envelope::decode`],
/// `UnsupportedVersion`/`UnknownFrameType` leave the stream positioned at
/// the next envelope: the foreign one (validated by its CRC) has been
/// consumed in full.
pub fn read_envelope(r: &mut impl Read) -> Result<Envelope> {
    let truncated = |e: std::io::Error| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    };
    let mut whole = vec![0u8; HEADER_LEN];
    r.read_exact(&mut whole).map_err(truncated)?;
    let header: &[u8; HEADER_LEN] = whole[..HEADER_LEN].try_into().expect("length checked");
    let header = FrameHeader::parse(header)?;
    whole.resize(HEADER_LEN + header.rest_len(), 0);
    r.read_exact(&mut whole[HEADER_LEN..]).map_err(truncated)?;
    Envelope::decode(&whole).map(|(env, _)| env)
}

#[cfg(test)]
mod tests {
    use super::super::{HelloAckWire, HelloWire, PartialWire, ProgressWire};
    use super::*;

    fn v2_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(HelloWire { max_version: 2 }),
            Frame::HelloAck(HelloAckWire {
                version: 2,
                max_inflight: 128,
            }),
            Frame::Cancel,
            Frame::Progress(ProgressWire {
                stage: "prune-online".into(),
            }),
            Frame::Partial(PartialWire {
                selected: vec!["Country::hdi".into(), "Country::gini".into()],
                cmi_so_far: 0.25,
                initial_cmi: 1.5,
            }),
            Frame::Ping,
            Frame::Explain(super::super::ExplainRequestWire {
                dataset: "world".into(),
                sql: "SELECT a, avg(b) FROM t GROUP BY a".into(),
                overrides: super::super::CallOverrides {
                    top_k: Some(3),
                    weights: Some(false),
                    ..Default::default()
                },
            }),
        ]
    }

    #[test]
    fn v2_envelopes_round_trip_with_correlation_ids() {
        for (i, frame) in v2_frames().into_iter().enumerate() {
            let corr = 0xDEAD_0000 + i as u64;
            let env = Envelope::v2(corr, frame);
            let bytes = env.encode();
            let (back, consumed) = Envelope::decode(&bytes).expect("decode");
            assert_eq!(consumed, bytes.len());
            assert_eq!(back, env);
            // The stream reader agrees with the pure decoder.
            let mut cursor = std::io::Cursor::new(&bytes);
            assert_eq!(read_envelope(&mut cursor).expect("read"), env);
        }
    }

    /// Recomputes the CRC trailer after a test patched header bytes.
    fn reseal(bytes: &mut [u8]) {
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
    }

    #[test]
    fn version_one_envelopes_are_an_unsupported_version() {
        // A retired version-1 Ping: header and CRC, no correlation id.
        let mut bytes = MAGIC.to_vec();
        put_u16(&mut bytes, 1);
        bytes.push(Frame::Ping.frame_type());
        put_u32(&mut bytes, 0);
        put_u32(&mut bytes, 0);
        reseal(&mut bytes);
        match Envelope::decode(&bytes) {
            Err(WireError::UnsupportedVersion(1)) => {}
            other => panic!("expected UnsupportedVersion(1), got {other:?}"),
        }
        // The stream reader consumes it whole, leaving the next envelope.
        let mut stream = bytes.clone();
        stream.extend_from_slice(&Envelope::v2(3, Frame::Ping).encode());
        let mut cursor = std::io::Cursor::new(&stream);
        assert!(matches!(
            read_envelope(&mut cursor),
            Err(WireError::UnsupportedVersion(1))
        ));
        assert_eq!(
            read_envelope(&mut cursor).expect("next envelope"),
            Envelope::v2(3, Frame::Ping)
        );
    }

    #[test]
    fn envelope_missing_correlation_id_is_malformed() {
        // A current-version header whose payload is shorter than the corr id.
        let mut bytes = MAGIC.to_vec();
        put_u16(&mut bytes, MAX_VERSION);
        bytes.push(Frame::Ping.frame_type());
        put_u32(&mut bytes, 3);
        bytes.extend_from_slice(&[0, 0, 0]);
        put_u32(&mut bytes, 0);
        reseal(&mut bytes);
        match Envelope::decode(&bytes) {
            Err(WireError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn workspace_reuse_is_counted_once_capacity_settles() {
        let mut ws = Workspace::new();
        let env = Envelope::v2(
            1,
            Frame::Progress(ProgressWire {
                stage: "select".into(),
            }),
        );
        for _ in 0..5 {
            env.encode_into(&mut ws);
        }
        assert_eq!(ws.encodes(), 5);
        // The first encode grows the buffer; every later same-size encode
        // reuses it.
        assert_eq!(ws.reuse_hits(), 4);
        // A larger frame forces growth — not a reuse hit.
        let big = Envelope::v2(
            2,
            Frame::Progress(ProgressWire {
                stage: "x".repeat(4096),
            }),
        );
        big.encode_into(&mut ws);
        assert_eq!(ws.encodes(), 6);
        assert_eq!(ws.reuse_hits(), 4);
        // …and the grown buffer serves small frames without allocating.
        env.encode_into(&mut ws);
        assert_eq!(ws.reuse_hits(), 5);
    }

    #[test]
    fn workspace_bytes_match_throwaway_encode() {
        let env = Envelope::v2(42, Frame::Cancel);
        let mut ws = Workspace::new();
        assert_eq!(env.encode_into(&mut ws), env.encode().as_slice());
        assert_eq!(ws.bytes(), env.encode().as_slice());
    }
}

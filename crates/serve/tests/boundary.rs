//! Wire-level boundary behaviour at the 64 MiB payload cap: an envelope
//! whose payload is **exactly** [`MAX_PAYLOAD`] bytes is legal end to end
//! (encode, pure decode, stream decode), while one byte more is refused —
//! by the pure decoder, by the blocking stream reader, and by the
//! deadline reader *before any payload is transferred*.

use std::io::Write;
use std::time::Duration;

use nexus_serve::wire::{
    read_envelope, Envelope, ExplanationReplyWire, Frame, ServeStatsWire, WireError, HEADER_LEN,
    MAX_PAYLOAD,
};
use nexus_serve::{pipe, read_envelope_deadline, ReadError};

/// An `Explanation` envelope whose nested payload is sized so the
/// **envelope payload** (correlation id plus frame body) is exactly
/// `payload_len` bytes.
fn envelope_with_payload_len(payload_len: u32) -> Envelope {
    let overhead = {
        let empty = Envelope::v2(
            1,
            Frame::Explanation(ExplanationReplyWire {
                explanation: Vec::new(),
                stats: ServeStatsWire {
                    cache_hit: false,
                    cache_hits: 0,
                    cache_misses: 0,
                    scored_tasks: 0,
                    queue_nanos: 0,
                    service_nanos: 0,
                },
            }),
        );
        empty.encode().len() - HEADER_LEN - 4 // minus envelope CRC
    };
    let nested = payload_len as usize - overhead;
    Envelope::v2(
        1,
        Frame::Explanation(ExplanationReplyWire {
            explanation: vec![0x5A; nested],
            stats: ServeStatsWire {
                cache_hit: true,
                cache_hits: 1,
                cache_misses: 2,
                scored_tasks: 3,
                queue_nanos: 4,
                service_nanos: 5,
            },
        }),
    )
}

fn declared_payload_len(envelope: &[u8]) -> u32 {
    u32::from_le_bytes(envelope[11..15].try_into().expect("header"))
}

#[test]
fn payload_exactly_at_the_cap_is_accepted() {
    let bytes = envelope_with_payload_len(MAX_PAYLOAD).encode();
    assert_eq!(
        declared_payload_len(&bytes),
        MAX_PAYLOAD,
        "the test must sit exactly on the boundary"
    );

    // Pure decoder.
    let (decoded, consumed) = Envelope::decode(&bytes).expect("cap payload decodes");
    assert_eq!(consumed, bytes.len());
    assert_eq!(decoded.encode(), bytes, "bit-exact round trip");

    // Blocking stream decoder.
    let mut cursor = std::io::Cursor::new(&bytes);
    let streamed = read_envelope(&mut cursor).expect("cap payload streams");
    assert_eq!(streamed.encode(), bytes);
}

#[test]
fn payload_one_byte_over_the_cap_is_rejected() {
    // The encoder happily produces the envelope; every decoder must
    // refuse it from the header alone.
    let bytes = envelope_with_payload_len(MAX_PAYLOAD + 1).encode();
    assert_eq!(declared_payload_len(&bytes), MAX_PAYLOAD + 1);

    match Envelope::decode(&bytes) {
        Err(WireError::PayloadTooLarge(n)) => assert_eq!(n, MAX_PAYLOAD + 1),
        other => panic!("expected PayloadTooLarge, got {other:?}"),
    }
    let mut cursor = std::io::Cursor::new(&bytes);
    match read_envelope(&mut cursor) {
        Err(WireError::PayloadTooLarge(n)) => assert_eq!(n, MAX_PAYLOAD + 1),
        other => panic!("expected PayloadTooLarge, got {other:?}"),
    }
}

#[test]
fn deadline_reader_refuses_over_cap_header_before_any_payload() {
    // Send ONLY the 15-byte header declaring one byte over the cap: the
    // deadline reader must reject without waiting for (or buffering) a
    // single payload byte.
    let (mut sender, mut receiver) = pipe();
    let mut header = Envelope::v2(1, Frame::Ping).encode();
    header[11..15].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    sender.write_all(&header[..HEADER_LEN]).expect("header");

    let budget = Duration::from_millis(200);
    match read_envelope_deadline(
        &mut receiver,
        budget,
        budget,
        Duration::from_millis(5),
        &|| false,
    ) {
        Err(ReadError::Wire(WireError::PayloadTooLarge(n))) => assert_eq!(n, MAX_PAYLOAD + 1),
        other => panic!("expected PayloadTooLarge, got {other:?}"),
    }
}

#[test]
fn deadline_reader_accepts_a_cap_sized_frame() {
    // The full 64 MiB envelope through the in-memory pipe: the deadline
    // reader must deliver it bit-exactly (writes land before the read
    // side starts, so no deadline pressure).
    let bytes = envelope_with_payload_len(MAX_PAYLOAD).encode();
    let (mut sender, mut receiver) = pipe();
    sender.write_all(&bytes).expect("cap frame fits the pipe");

    let budget = Duration::from_secs(10);
    let env = read_envelope_deadline(
        &mut receiver,
        budget,
        budget,
        Duration::from_millis(5),
        &|| false,
    )
    .expect("cap frame reads");
    assert_eq!(env.encode(), bytes);
}

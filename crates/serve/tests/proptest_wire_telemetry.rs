//! Property-based tests for the NEXUSRPC telemetry frames:
//! arbitrary `MetricsReply` and `TraceReply` payloads survive
//! encode→decode bit-exactly under arbitrary correlation ids, and
//! truncated or seeded-corrupted envelopes decode to errors — never
//! panics, never silent misreads.

use nexus_serve::wire::{
    Envelope, Frame, MetricWire, MetricsReplyWire, SpanWire, TraceReplyWire, TraceRequestWire,
    TraceWire, WireError,
};
use proptest::prelude::*;

fn text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9_. é☃]{0,24}").expect("valid regex")
}

fn metric() -> impl Strategy<Value = MetricWire> {
    (text(), any::<u8>(), any::<u64>()).prop_map(|(name, kind, value)| MetricWire {
        name,
        kind,
        value,
    })
}

fn span() -> impl Strategy<Value = SpanWire> {
    (text(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
        |(name, depth, count, duration_nanos)| SpanWire {
            name,
            depth,
            count,
            duration_nanos,
        },
    )
}

fn trace() -> impl Strategy<Value = TraceWire> {
    (any::<u64>(), proptest::collection::vec(span(), 0..6))
        .prop_map(|(corr_id, spans)| TraceWire { corr_id, spans })
}

fn telemetry_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        Just(Frame::MetricsRequest),
        proptest::collection::vec(metric(), 0..8)
            .prop_map(|metrics| Frame::MetricsReply(MetricsReplyWire { metrics })),
        any::<u32>().prop_map(|last| Frame::TraceRequest(TraceRequestWire { last })),
        proptest::collection::vec(trace(), 0..4)
            .prop_map(|traces| Frame::TraceReply(TraceReplyWire { traces })),
    ]
}

fn envelope() -> impl Strategy<Value = Envelope> {
    (any::<u64>(), telemetry_frame()).prop_map(|(corr_id, frame)| Envelope::v2(corr_id, frame))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode returns the identical envelope (corr id, frame),
    /// and re-encoding returns the identical bytes.
    #[test]
    fn telemetry_envelope_round_trip_is_bit_exact(env in envelope()) {
        let bytes = env.encode();
        let (back, consumed) = Envelope::decode(&bytes).expect("well-formed envelope");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back.corr_id, env.corr_id);
        // Bit-exactness via re-encoded bytes.
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Every strict prefix of a telemetry envelope decodes to an error.
    #[test]
    fn telemetry_truncation_decodes_to_error(env in envelope(), cut in 0.0f64..1.0) {
        let bytes = env.encode();
        let n = ((bytes.len() as f64) * cut) as usize; // < bytes.len()
        prop_assert!(Envelope::decode(&bytes[..n]).is_err());
    }

    /// Any single flipped bit in a telemetry envelope is caught (magic,
    /// bounds, version ceiling, or CRC) — and never panics.
    #[test]
    fn telemetry_single_bit_corruption_decodes_to_error(
        env in envelope(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = env.encode();
        let i = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(Envelope::decode(&bytes).is_err(), "flip at byte {} bit {}", i, bit);
    }

    /// Arbitrary garbage never panics the envelope decoder.
    #[test]
    fn telemetry_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        match Envelope::decode(&bytes) {
            Ok(_) => prop_assert!(bytes.len() >= 19, "envelope from thin air"),
            Err(WireError::Io(_)) => prop_assert!(false, "pure decode cannot do I/O"),
            Err(_) => {}
        }
    }
}

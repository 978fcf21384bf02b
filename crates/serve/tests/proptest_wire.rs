//! Property-based tests for NEXUSRPC envelopes: every request, reply and
//! session frame type (Explain with arbitrary per-call overrides,
//! Explanation with arbitrary nested explanations and stats, the
//! Hello/HelloAck/Cancel/Progress/Partial session frames) survives
//! encode→decode bit-exactly under arbitrary correlation ids, through the
//! pure decoder and the stream reader alike; truncated or corrupted
//! envelopes decode to errors, never panics, never silent misreads; and a
//! stream of interleaved envelopes from many concurrent requests
//! reassembles per correlation id with per-request order intact.

use nexus_serve::wire::{
    read_envelope, AttributeWire, CallOverrides, Envelope, ErrorWire, ExplainRequestWire,
    ExplanationReplyWire, ExplanationWire, Frame, HelloAckWire, HelloWire, LinkStatsWire,
    PartialWire, ProgressWire, ServeStatsWire, SourceWire, UnsupportedWire, WireError, Workspace,
};
use proptest::prelude::*;

fn text() -> impl Strategy<Value = String> {
    // Mixed ASCII + multi-byte UTF-8, including the empty string.
    proptest::string::string_regex("[a-zA-Z0-9_:()|;=' é☃]{0,24}").expect("valid regex")
}

fn attribute() -> impl Strategy<Value = AttributeWire> {
    (
        text(),
        proptest::option::of(text()),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(name, column, bits, weighted)| AttributeWire {
            name,
            source: match column {
                None => SourceWire::BaseTable,
                Some(column) => SourceWire::Extracted { column },
            },
            responsibility: f64::from_bits(bits),
            weighted,
        })
}

fn link_stats() -> impl Strategy<Value = LinkStatsWire> {
    (
        text(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(column, linked, not_found, ambiguous, null)| LinkStatsWire {
                column,
                linked,
                not_found,
                ambiguous,
                null,
            },
        )
}

fn explanation() -> impl Strategy<Value = ExplanationWire> {
    (
        proptest::collection::vec(attribute(), 0..5),
        (any::<u64>(), any::<u64>(), any::<bool>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(link_stats(), 0..3),
    )
        .prop_map(
            |(attributes, (i_bits, e_bits, stopped), counts, link_stats)| ExplanationWire {
                attributes,
                initial_cmi: f64::from_bits(i_bits),
                explained_cmi: f64::from_bits(e_bits),
                stopped_by_responsibility: stopped,
                n_candidates_initial: counts.0,
                n_after_offline: counts.1,
                n_after_online: counts.2,
                n_biased: counts.3,
                link_stats,
            },
        )
}

fn serve_stats() -> impl Strategy<Value = ServeStatsWire> {
    (
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(cache_hit, cache_hits, cache_misses, scored_tasks, queue_nanos, service_nanos)| {
                ServeStatsWire {
                    cache_hit,
                    cache_hits,
                    cache_misses,
                    scored_tasks,
                    queue_nanos,
                    service_nanos,
                }
            },
        )
}

fn overrides() -> impl Strategy<Value = CallOverrides> {
    (
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<bool>()),
        proptest::option::of(any::<bool>()),
        proptest::option::of(any::<bool>()),
        proptest::collection::vec(text(), 0..4),
    )
        .prop_map(
            |(top_k, weights, offline_pruning, online_pruning, excluded)| CallOverrides {
                top_k,
                weights,
                offline_pruning,
                online_pruning,
                excluded,
            },
        )
}

fn partial() -> impl Strategy<Value = PartialWire> {
    (
        proptest::collection::vec(text(), 0..5),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(selected, so_far, initial)| PartialWire {
            selected,
            cmi_so_far: f64::from_bits(so_far),
            initial_cmi: f64::from_bits(initial),
        })
}

/// Every request, reply and session frame type an envelope carries (the
/// registry and telemetry frames have suites of their own).
fn frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        Just(Frame::Ping),
        Just(Frame::Pong),
        (text(), text(), overrides()).prop_map(|(dataset, sql, overrides)| {
            Frame::Explain(ExplainRequestWire {
                dataset,
                sql,
                overrides,
            })
        }),
        (explanation(), serve_stats()).prop_map(|(e, stats)| Frame::Explanation(
            ExplanationReplyWire {
                explanation: e.encode(),
                stats,
            }
        )),
        (any::<u16>(), text())
            .prop_map(|(code, message)| Frame::Error(ErrorWire { code, message })),
        Just(Frame::Shutdown),
        Just(Frame::ShutdownAck),
        (any::<u16>(), any::<u8>(), any::<u16>()).prop_map(|(version, frame_type, max)| {
            Frame::Unsupported(UnsupportedWire {
                version,
                frame_type,
                max_supported: max,
            })
        }),
        any::<u16>().prop_map(|max_version| Frame::Hello(HelloWire { max_version })),
        (any::<u16>(), any::<u32>()).prop_map(|(version, max_inflight)| Frame::HelloAck(
            HelloAckWire {
                version,
                max_inflight,
            }
        )),
        Just(Frame::Cancel),
        text().prop_map(|stage| Frame::Progress(ProgressWire { stage })),
        partial().prop_map(Frame::Partial),
    ]
}

fn envelope() -> impl Strategy<Value = Envelope> {
    (any::<u64>(), frame()).prop_map(|(corr_id, frame)| Envelope::v2(corr_id, frame))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode returns the identical correlation id and frame,
    /// re-encoding returns the identical bytes, and the pure and stream
    /// decoders agree.
    #[test]
    fn envelope_round_trip_is_bit_exact(env in envelope()) {
        let bytes = env.encode();
        let (back, consumed) = Envelope::decode(&bytes).expect("well-formed envelope");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back.corr_id, env.corr_id);
        // Structural equality would miss NaN payloads (NaN != NaN), so
        // compare the re-encoded bytes: bit-exactness is the real claim.
        prop_assert_eq!(back.encode(), bytes.clone());
        let mut cursor = std::io::Cursor::new(&bytes);
        let streamed = read_envelope(&mut cursor).expect("stream decode");
        prop_assert_eq!(streamed.encode(), bytes);
    }

    /// The nested explanation body round-trips bit-exactly on its own.
    #[test]
    fn explanation_round_trip_is_bit_exact(e in explanation()) {
        let bytes = e.encode();
        let back = ExplanationWire::decode(&bytes).expect("decode");
        prop_assert_eq!(back.encode(), bytes);
    }

    /// The reusable workspace encoder produces the same bytes as the
    /// allocating path, back to back, for any pair of envelopes.
    #[test]
    fn workspace_encoding_matches_allocating_encoding(a in envelope(), b in envelope()) {
        let mut ws = Workspace::new();
        prop_assert_eq!(a.encode_into(&mut ws).to_vec(), a.encode());
        prop_assert_eq!(b.encode_into(&mut ws).to_vec(), b.encode());
        prop_assert_eq!(ws.encodes(), 2);
    }

    /// Every strict prefix of a valid envelope decodes to an error.
    #[test]
    fn truncation_decodes_to_error(env in envelope(), cut in 0.0f64..1.0) {
        let bytes = env.encode();
        let n = ((bytes.len() as f64) * cut) as usize; // < bytes.len()
        prop_assert!(Envelope::decode(&bytes[..n]).is_err());
    }

    /// Any single flipped bit is caught (by magic, bounds, version, or
    /// CRC) — and never panics.
    #[test]
    fn single_bit_corruption_decodes_to_error(
        env in envelope(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = env.encode();
        let i = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(Envelope::decode(&bytes).is_err(), "flip at byte {} bit {}", i, bit);
    }

    /// Arbitrary garbage never panics the decoder (and never yields an
    /// envelope: a valid magic+CRC by chance is astronomically unlikely).
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        match Envelope::decode(&bytes) {
            Ok(_) => prop_assert!(bytes.len() >= 27, "envelope from thin air"),
            Err(WireError::Io(_)) => prop_assert!(false, "pure decode cannot do I/O"),
            Err(_) => {}
        }
    }

    /// The explanation-body decoder is equally robust to corruption of its
    /// (unframed, CRC-less) bytes: errors or valid values, never panics.
    #[test]
    fn explanation_decoder_never_panics(
        e in explanation(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = e.encode();
        if bytes.is_empty() {
            return Ok(());
        }
        let i = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[i] ^= 1 << bit;
        let _ = ExplanationWire::decode(&bytes); // must not panic
    }

    /// A wire stream interleaving many requests' envelopes reassembles
    /// per correlation id: each request sees exactly its own frames, in
    /// the order they were written.
    ///
    /// The interleaving is driven by proptest: per-request frame
    /// sequences are merged by arbitrary picks, so every schedule a real
    /// multiplexed connection could produce (and many it never would) is
    /// fair game.
    #[test]
    fn interleaved_streams_reassemble_per_correlation_id(
        sequences in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(frame(), 1..6)),
            2..6,
        ),
        picks in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        // Distinct corr ids per request (collisions would merge queues).
        let mut sequences: Vec<(u64, Vec<Frame>)> = sequences;
        let n = sequences.len() as u64;
        for (i, (corr, _)) in sequences.iter_mut().enumerate() {
            *corr = corr.wrapping_mul(n).wrapping_add(i as u64);
        }
        let mut dedup = std::collections::HashSet::new();
        sequences.retain(|(corr, _)| dedup.insert(*corr));

        // Merge the per-request sequences into one byte stream using the
        // generated picks (round-robin fallback once picks run out).
        let mut cursors: Vec<usize> = vec![0; sequences.len()];
        let mut wire = Vec::new();
        let mut expected: std::collections::HashMap<u64, Vec<Vec<u8>>> =
            std::collections::HashMap::new();
        let mut ws = Workspace::new();
        let mut pick_iter = picks.into_iter();
        loop {
            let live: Vec<usize> = (0..sequences.len())
                .filter(|&s| cursors[s] < sequences[s].1.len())
                .collect();
            if live.is_empty() {
                break;
            }
            let s = live[pick_iter.next().unwrap_or(0) % live.len()];
            let (corr, frames) = &sequences[s];
            let env = Envelope::v2(*corr, frames[cursors[s]].clone());
            let bytes = env.encode_into(&mut ws).to_vec();
            wire.extend_from_slice(&bytes);
            expected.entry(*corr).or_default().push(bytes);
            cursors[s] += 1;
        }

        // Decode the stream front to back and reassemble by corr id.
        let mut reassembled: std::collections::HashMap<u64, Vec<Vec<u8>>> =
            std::collections::HashMap::new();
        let mut offset = 0;
        while offset < wire.len() {
            let (env, consumed) = Envelope::decode(&wire[offset..]).expect("framed stream");
            reassembled
                .entry(env.corr_id)
                .or_default()
                .push(env.encode());
            offset += consumed;
        }
        prop_assert_eq!(offset, wire.len(), "stream fully framed");
        prop_assert_eq!(reassembled, expected);
    }
}

//! Property-based tests for NXCOL v2 strict validation: arbitrary tables
//! round-trip bit-exactly (pack → load → re-pack), and truncated or
//! corrupted files decode to typed errors — never panics, never silent
//! misreads. v1 files are refused with a re-pack hint.

use nexus_store::{decode_table, encode_table, inspect, StoreError, MAX_SECTION_LEN};
use nexus_table::{Column, Table};
use proptest::prelude::*;

fn text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9 é☃]{0,8}").expect("valid regex")
}

/// One arbitrary column of any of the four types, any null pattern,
/// including the low-cardinality shapes that flip the encoder to RLE.
fn column(rows: usize) -> BoxedStrategy<Column> {
    prop_oneof![
        // Int64: either wide-range values or a tiny domain (RLE-friendly).
        (
            proptest::collection::vec((any::<i64>(), any::<bool>()), rows..=rows),
            any::<bool>()
        )
            .prop_map(|(cells, tiny)| {
                Column::from_opt_i64(
                    cells
                        .into_iter()
                        .map(|(x, null)| {
                            if null {
                                None
                            } else if tiny {
                                Some(x.rem_euclid(3))
                            } else {
                                Some(x)
                            }
                        })
                        .collect(),
                )
            }),
        // Float64 with arbitrary bit patterns (NaN payloads included).
        proptest::collection::vec((any::<u64>(), any::<bool>()), rows..=rows).prop_map(|cells| {
            Column::from_opt_f64(
                cells
                    .into_iter()
                    .map(|(bits, null)| {
                        if null {
                            None
                        } else {
                            Some(f64::from_bits(bits))
                        }
                    })
                    .collect(),
            )
        }),
        // Utf8 over a small vocabulary so dictionaries stay interesting.
        proptest::collection::vec((text(), any::<bool>()), rows..=rows).prop_map(|cells| {
            let opts: Vec<Option<String>> = cells
                .into_iter()
                .map(|(s, null)| if null { None } else { Some(s) })
                .collect();
            Column::from_opt_strs(&opts)
        }),
        proptest::collection::vec((any::<bool>(), any::<bool>()), rows..=rows).prop_map(|cells| {
            Column::from_opt_bools(
                cells
                    .into_iter()
                    .map(|(b, null)| if null { None } else { Some(b) })
                    .collect(),
            )
        }),
    ]
    .boxed()
}

fn table() -> impl Strategy<Value = Table> {
    (0usize..200, 1usize..5).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(column(rows), cols..=cols).prop_map(|columns| {
            Table::new(
                columns
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| (format!("col{i}"), c))
                    .collect::<Vec<_>>(),
            )
            .expect("equal-length unique-name columns")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pack → load preserves the logical table bit-exactly: the content
    /// fingerprint survives, every cell compares equal, and re-packing
    /// the loaded table reproduces the identical file bytes.
    #[test]
    fn pack_load_round_trip_is_bit_exact(t in table()) {
        let bytes = encode_table(&t);
        let back = decode_table(&bytes).expect("well-formed file");
        prop_assert_eq!(back.fingerprint(), t.fingerprint());
        prop_assert_eq!(back.n_rows(), t.n_rows());
        prop_assert_eq!(back.n_cols(), t.n_cols());
        for col in 0..t.n_cols() {
            for row in 0..t.n_rows() {
                // Value compares Float64 via bits? Value::Float(f64) uses
                // PartialEq — NaN != NaN — so compare nulls and bit
                // patterns explicitly.
                prop_assert_eq!(
                    back.column_at(col).is_null(row),
                    t.column_at(col).is_null(row)
                );
                let a = back.column_at(col).f64_at(row).map(f64::to_bits);
                let b = t.column_at(col).f64_at(row).map(f64::to_bits);
                prop_assert_eq!(a, b, "numeric col {} row {}", col, row);
                prop_assert_eq!(
                    back.column_at(col).str_at(row),
                    t.column_at(col).str_at(row)
                );
            }
        }
        prop_assert_eq!(encode_table(&back), bytes);
    }

    /// Every strict prefix of a valid file is refused with a typed error.
    #[test]
    fn truncation_decodes_to_error(t in table(), cut in 0.0f64..1.0) {
        let bytes = encode_table(&t);
        let n = ((bytes.len() as f64) * cut) as usize; // < bytes.len()
        prop_assert!(decode_table(&bytes[..n]).is_err());
        prop_assert!(inspect(&bytes[..n]).is_err());
    }

    /// Any single flipped bit is caught (magic, CRC, bounds, or the
    /// fingerprint cross-check) — and never panics.
    #[test]
    fn single_bit_corruption_decodes_to_error(
        t in table(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_table(&t);
        let i = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(decode_table(&bytes).is_err(), "flip at byte {} bit {}", i, bit);
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        match decode_table(&bytes) {
            Ok(_) => prop_assert!(false, "a valid magic+CRC from thin air"),
            Err(StoreError::Io(_)) => prop_assert!(false, "pure decode cannot do I/O"),
            Err(_) => {}
        }
    }
}

/// The seeded corruption quartet from the issue: truncated header, bad
/// magic, flipped CRC, over-cap section length — each refused with the
/// matching typed error.
#[test]
fn seeded_corruptions_are_typed() {
    let t = Table::new(vec![
        ("k", Column::from_strs(&["a", "b", "a", "c"])),
        ("v", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0])),
    ])
    .unwrap();
    let bytes = encode_table(&t);

    // Truncated header.
    assert!(matches!(
        decode_table(&bytes[..10]).unwrap_err(),
        StoreError::Truncated { .. }
    ));

    // Bad magic.
    let mut bad = bytes.clone();
    bad[2] = b'Z';
    assert_eq!(decode_table(&bad).unwrap_err(), StoreError::BadMagic);

    // Flipped CRC byte (header CRC field is the last 4 header bytes).
    let mut bad = bytes.clone();
    bad[35] ^= 0xFF;
    assert!(matches!(
        decode_table(&bad).unwrap_err(),
        StoreError::BadCrc { .. }
    ));

    // Over-cap declared section length: refused before any allocation.
    let mut bad = bytes.clone();
    bad[36..40].copy_from_slice(&(MAX_SECTION_LEN + 7).to_le_bytes());
    assert_eq!(
        decode_table(&bad).unwrap_err(),
        StoreError::SectionTooLarge {
            declared: MAX_SECTION_LEN + 7
        }
    );
}

/// CRC32 (IEEE, reflected), bit by bit: re-seals a section after a test
/// edits it, so the edit reaches the checks behind the CRC.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// A section whose stored column fingerprint was altered (and its CRC
/// recomputed to match) is refused with an error naming that column.
#[test]
fn altered_column_fingerprint_names_the_column() {
    let t = Table::new(vec![
        ("k", Column::from_strs(&["a", "b", "a", "c"])),
        ("salary", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0])),
    ])
    .unwrap();
    let mut bytes = encode_table(&t);
    // Header (36 bytes), then the first section: length, body, CRC.
    let second = 36 + 4 + u32_at(&bytes, 36) + 4;
    let (body, len) = (second + 4, u32_at(&bytes, second));
    // The body opens with the name (u32 length + bytes), then the column
    // fingerprint.
    bytes[body + 4 + "salary".len()] ^= 0x01;
    let crc = crc32(&bytes[body..body + len]);
    bytes[body + len..body + len + 4].copy_from_slice(&crc.to_le_bytes());

    let err = decode_table(&bytes).unwrap_err();
    assert_eq!(
        err,
        StoreError::ColumnFingerprint {
            column: "salary".into()
        }
    );
    assert!(err.to_string().contains("'salary'"), "{err}");
    // `inspect` checks structure only and reports the stored value.
    let info = inspect(&bytes).unwrap();
    assert_ne!(
        info.columns[1].fingerprint,
        inspect(&encode_table(&t)).unwrap().columns[1].fingerprint
    );
}

/// An NXCOL v1 file, byte for byte as the v1 writer packed a two-column
/// table (`k` Utf8 a/b/a, `v` Int64 7/8/9).
const V1_FILE: [u8; 152] = [
    0x4e, 0x58, 0x43, 0x4f, 0x4c, 0x31, 0x0d, 0x0a, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd7, 0xc1, 0x98, 0x3a, 0x75, 0x9d, 0x29, 0x96,
    0x21, 0xa0, 0xe8, 0x02, 0x2f, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x6b, 0x03, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x61, 0x01, 0x00, 0x00, 0x00, 0x62, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x63, 0x07, 0x47, 0xb9, 0x35, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x76, 0x01, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x97, 0x13, 0x9e, 0x85,
];

/// A v1 file is refused by version, with the re-pack hint, by both the
/// decoder and `inspect`.
#[test]
fn v1_file_is_refused_with_a_repack_hint() {
    assert_eq!(
        crc32(&V1_FILE[..32]),
        u32_at(&V1_FILE, 32) as u32,
        "a well-formed v1 header"
    );
    let err = decode_table(&V1_FILE).unwrap_err();
    assert_eq!(err, StoreError::UnsupportedVersion(1));
    assert!(err.to_string().contains("re-pack"), "{err}");
    assert_eq!(
        inspect(&V1_FILE).unwrap_err(),
        StoreError::UnsupportedVersion(1)
    );
}

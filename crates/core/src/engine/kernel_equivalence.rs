//! Kernel equivalence: the dense/fused counting kernels are a pure
//! performance substitution for the per-row contingency scan, so every
//! estimator quantity — per-candidate [`CandStats`], calibrated CMIs,
//! pairwise MIs — must be **bit-identical** between the two, serial and
//! span-parallel, at any thread count.
//!
//! The reference engine is [`Engine::assemble`] without a fused selection:
//! the route every set takes when [`FusedSelection::build`] rules the
//! kernel out, here forced on sets the kernel could index.
//!
//! [`CandStats`]: super::CandStats
//! [`FusedSelection::build`]: super::FusedSelection::build

use std::collections::HashMap;
use std::sync::Arc;

use nexus_runtime::{Parallelism, ThreadPool};
use nexus_table::{Bitmap, Codes};
use proptest::prelude::*;

use super::Engine;
use crate::candidate::{Candidate, CandidateRepr, CandidateSet, CandidateSource, MISSING_CODE};

/// Deterministic xorshift so the fixtures need no external RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A synthetic candidate set exercising every kernel ingredient: a WHERE
/// mask, null outcome/exposure/entity rows, an unweighted and a weighted
/// (IPW) entity-level candidate, and a row-level candidate.
fn synthetic_set(n: usize, seed: u64) -> CandidateSet {
    synthetic_set_with_cards(n, seed, 6, 5, 40)
}

/// [`synthetic_set`] with configurable outcome/exposure/entity
/// cardinalities, so tests can park `|T|·|O|` exactly on the narrow-width
/// boundaries of the fused code column.
fn synthetic_set_with_cards(
    n: usize,
    seed: u64,
    card_o: u32,
    card_t: u32,
    n_entities: u32,
) -> CandidateSet {
    let mut rng = Rng(seed | 1);
    let card_prop = 5u32;

    fn codes_with_nulls(rng: &mut Rng, n: usize, card: u32, null_every: u64) -> Codes {
        let mut codes = Vec::with_capacity(n);
        let mut validity = Bitmap::with_value(n, true);
        for i in 0..n {
            codes.push(rng.below(card as u64) as u32);
            if rng.below(null_every) == 0 {
                validity.set(i, false);
            }
        }
        Codes {
            codes,
            cardinality: card,
            validity: Some(validity),
        }
    }

    let o = codes_with_nulls(&mut rng, n, card_o, 17);
    let t = codes_with_nulls(&mut rng, n, card_t, 23);
    let city = codes_with_nulls(&mut rng, n, n_entities, 11);

    let mut mask = Bitmap::with_value(n, true);
    for i in 0..n {
        if rng.below(4) == 0 {
            mask.set(i, false);
        }
    }

    // Entity → property map with a few missing entities.
    let map: Vec<u32> = (0..n_entities)
        .map(|_| {
            if rng.below(8) == 0 {
                MISSING_CODE
            } else {
                rng.below(card_prop as u64) as u32
            }
        })
        .collect();
    let weights: Vec<f64> = (0..n_entities)
        .map(|_| 0.5 + rng.below(8) as f64 * 0.25)
        .collect();

    let row_cand = codes_with_nulls(&mut rng, n, 4, 13);

    let candidates = vec![
        Candidate {
            name: "City::prop".to_string(),
            source: CandidateSource::Extracted {
                column: "City".to_string(),
            },
            repr: CandidateRepr::EntityLevel {
                column: "City".to_string(),
                map: map.clone(),
                cardinality: card_prop,
            },
            entity_weights: None,
            bias: None,
        },
        Candidate {
            name: "City::wprop".to_string(),
            source: CandidateSource::Extracted {
                column: "City".to_string(),
            },
            repr: CandidateRepr::EntityLevel {
                column: "City".to_string(),
                map,
                cardinality: card_prop,
            },
            entity_weights: Some(weights),
            bias: None,
        },
        Candidate {
            name: "RowCand".to_string(),
            source: CandidateSource::BaseTable,
            repr: CandidateRepr::RowLevel(row_cand),
            entity_weights: None,
            bias: None,
        },
    ];

    let mut column_codes = HashMap::new();
    column_codes.insert("City".to_string(), Arc::new(city));

    CandidateSet {
        candidates,
        column_codes,
        o,
        t,
        mask,
        link_stats: HashMap::new(),
    }
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// The engine whose contingencies all come from the per-row scan.
fn rowscan_engine(set: &CandidateSet, parallelism: Parallelism) -> Engine {
    Engine::assemble(set, ThreadPool::new(parallelism), None, None)
}

/// Everything an engine computes for a set, rendered to raw bits.
fn digest(engine: &Engine, set: &CandidateSet) -> Vec<u64> {
    let mut digest = vec![
        bits(engine.baseline_cmi()),
        engine.baseline_support() as u64,
    ];
    for idx in 0..set.candidates.len() {
        let s = engine.stats(set, idx);
        for e in [s.h_o, s.h_t, s.h_e, s.h_ot, s.h_oe, s.h_te, s.h_ote] {
            digest.push(bits(e.0));
            digest.push(e.1 as u64);
        }
        digest.push(bits(s.support));
        digest.push(s.present_entities as u64);
        digest.push(bits(s.cmi()));
        digest.push(bits(engine.cmi_single(set, idx)));
    }
    for a in 0..set.candidates.len() {
        for b in (a + 1)..set.candidates.len() {
            digest.push(bits(engine.mi_pair(set, a, b)));
        }
    }
    digest
}

/// The kernel and the row scan, each at serial, 2 and 8 threads, must
/// reproduce the serial row-scan digest bit for bit.
fn assert_all_paths_agree(set: &CandidateSet, what: &str) {
    let reference = digest(&rowscan_engine(set, Parallelism::Serial), set);
    for (parallelism, p_name) in [
        (Parallelism::Serial, "serial"),
        (Parallelism::Fixed(2), "2 threads"),
        (Parallelism::Fixed(8), "8 threads"),
    ] {
        let kernel = digest(&Engine::with_parallelism(set, parallelism), set);
        assert_eq!(
            reference, kernel,
            "{what}: kernel @ {p_name} diverges from the serial row scan"
        );
        let rowscan = digest(&rowscan_engine(set, parallelism), set);
        assert_eq!(
            reference, rowscan,
            "{what}: row scan @ {p_name} diverges from the serial row scan"
        );
    }
}

#[test]
fn small_set_all_paths_bit_identical() {
    // Small enough that the kernels stay in the serial per-column path.
    assert_all_paths_agree(&synthetic_set(3_000, 0xA11CE), "3k rows");
}

#[test]
fn chunked_parallel_builds_bit_identical() {
    // Above KERNEL_PAR_ROWS (1 << 16), so multi-thread engines go through
    // the row-partitioned span builds with per-thread accumulators.
    assert_all_paths_agree(&synthetic_set(70_000, 0xBEEF), "70k rows");
}

#[test]
fn weighted_candidate_paths_agree() {
    // The weighted digest must diverge from the unweighted one (the IPW
    // weights matter) while staying path-invariant — guards against a
    // kernel that "agrees" by dropping weights everywhere.
    let set = synthetic_set(5_000, 0x5EED);
    let rowscan = rowscan_engine(&set, Parallelism::Serial);
    let kernel = Engine::with_parallelism(&set, Parallelism::Fixed(4));
    let unweighted = rowscan.stats(&set, 0);
    for e in [&rowscan, &kernel] {
        let s = e.stats(&set, 1);
        assert_ne!(
            bits(s.support),
            bits(unweighted.support),
            "IPW weights should change the weighted support"
        );
    }
    assert_eq!(
        bits(rowscan.stats(&set, 1).support),
        bits(kernel.stats(&set, 1).support)
    );
}

#[test]
fn full_mask_and_no_nulls_edge_case() {
    // All-true mask + fully valid columns: the fused selection is the
    // identity, the densest possible path.
    let mut set = synthetic_set(2_048, 0xFACE);
    set.mask = Bitmap::with_value(2_048, true);
    set.o.validity = None;
    set.t.validity = None;
    if let Some(c) = set.column_codes.get_mut("City") {
        Arc::make_mut(c).validity = None;
    }
    assert_all_paths_agree(&set, "dense edge case");
}

#[test]
fn empty_context_edge_case() {
    // An all-false mask selects nothing; every path must agree on the
    // degenerate answer rather than panic.
    let mut set = synthetic_set(512, 0xD00D);
    set.mask = Bitmap::with_value(512, false);
    assert_all_paths_agree(&set, "empty context");
}

#[test]
fn width_boundary_cardinalities_bit_identical() {
    // `|T|·|O|` sits exactly on — and one step past — the u8 and u16
    // boundaries, so the fused code column materializes at every narrow
    // width the kernel supports plus the u32 fallback, and each width
    // must reproduce the row-scan digest bit for bit.
    for (card_o, card_t, what) in [
        (5u32, 51u32, "|TO| = 255 (u8)"),
        (4, 64, "|TO| = 256 (u8 boundary)"),
        (4, 65, "|TO| = 260 (u16)"),
        (5, 13_107, "|TO| = 65535 (u16)"),
        (16, 4_096, "|TO| = 65536 (u16 boundary)"),
        (17, 4_096, "|TO| = 69632 (u32)"),
    ] {
        let seed = 0xC0DE ^ ((card_o as u64) << 20) ^ card_t as u64;
        let set = synthetic_set_with_cards(2_500, seed, card_o, card_t, 40);
        assert_all_paths_agree(&set, what);
    }
}

#[test]
fn narrow_parallel_span_merges_bit_identical() {
    // A large full-selection set whose fused column stays at u8 width:
    // selections exceed `KERNEL_PAR_ROWS`, so multi-thread engines scan
    // one word span per thread and merge radix sub-histograms.
    let n = 80_000;
    let mut set = synthetic_set_with_cards(n, 0xFEED, 4, 64, 40);
    set.mask = Bitmap::with_value(n, true);
    set.o.validity = None;
    set.t.validity = None;
    if let Some(c) = set.column_codes.get_mut("City") {
        Arc::make_mut(c).validity = None;
    }
    assert_all_paths_agree(&set, "narrow parallel spans");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random codes, maps, masks, and sizes: the kernel reproduces the
    /// serial row-scan digest bit for bit.
    #[test]
    fn random_sets_bit_identical(seed in any::<u64>(), n in 64usize..1_500) {
        let set = synthetic_set(n, seed);
        let reference = digest(&rowscan_engine(&set, Parallelism::Serial), &set);
        let kernel_serial = digest(&Engine::with_parallelism(&set, Parallelism::Serial), &set);
        let kernel_parallel = digest(&Engine::with_parallelism(&set, Parallelism::Fixed(3)), &set);
        prop_assert_eq!(&reference, &kernel_serial);
        prop_assert_eq!(&reference, &kernel_parallel);
    }

    /// Random cardinalities straddling the u8/u16 fused-width boundary:
    /// scan width is a build-time detail, never a result.
    #[test]
    fn random_widths_bit_identical(
        seed in any::<u64>(),
        n in 64usize..800,
        card_o in 2u32..10,
        card_t in 2u32..300,
    ) {
        let set = synthetic_set_with_cards(n, seed, card_o, card_t, 40);
        let reference = digest(&rowscan_engine(&set, Parallelism::Serial), &set);
        let kernel_serial = digest(&Engine::with_parallelism(&set, Parallelism::Serial), &set);
        let kernel_parallel = digest(&Engine::with_parallelism(&set, Parallelism::Fixed(3)), &set);
        prop_assert_eq!(&reference, &kernel_serial);
        prop_assert_eq!(&reference, &kernel_parallel);
    }
}

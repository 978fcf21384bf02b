//! Engine counting against a naive oracle: every `(O, T, X)` contingency
//! the engine builds must equal, bit for bit, an ordered per-row count of
//! the complete-case rows, and everything the engine derives from those
//! tables — per-candidate [`CandStats`], calibrated CMIs, pairwise MIs —
//! must be identical serially and at 2 and 8 threads. A differential test
//! checks that the engine's per-set memo keys cover every input they
//! stand for.
//!
//! [`CandStats`]: super::CandStats

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use nexus_runtime::Parallelism;
use nexus_table::{Bitmap, Codes};
use proptest::prelude::*;

use super::{Contingency, Engine};
use crate::candidate::{Candidate, CandidateRepr, CandidateSet, CandidateSource, MISSING_CODE};
use crate::memo::{set_fingerprint, MemoHandle, MemoStore};

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

/// A synthetic candidate set exercising every counting ingredient: a WHERE
/// mask, null outcome/exposure/entity rows, an unweighted and a weighted
/// (IPW) entity-level candidate, and a row-level candidate.
fn synthetic_set(n: usize, seed: u64) -> CandidateSet {
    synthetic_set_with_cards(n, seed, 6, 5, 40)
}

/// [`synthetic_set`] with configurable outcome/exposure/entity
/// cardinalities, so tests can park the `(O, T, X)` key space on the
/// kernel's scan-width boundaries.
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

/// The contingency of `column` by a naive ordered count: every row in the
/// context with `O`, `T` and `X` all valid adds `1.0` to its `(x, t, o)`
/// cell, and cells drain in ascending `(x, t, o)` order.
fn naive_contingency(set: &CandidateSet, column: &str) -> Contingency {
    let (o, t, x) = (&set.o, &set.t, &set.column_codes[column]);
    let mut cells: BTreeMap<(u32, u32, u32), f64> = BTreeMap::new();
    for i in 0..o.len() {
        if set.mask.get(i) && o.is_valid(i) && t.is_valid(i) && x.is_valid(i) {
            *cells
                .entry((x.codes[i], t.codes[i], o.codes[i]))
                .or_insert(0.0) += 1.0;
        }
    }
    let (card_o, card_t) = (o.cardinality.max(1) as u128, t.cardinality.max(1) as u128);
    Contingency::from_sorted_cells(
        cells
            .into_iter()
            .map(|((x, t, o), w)| ((x as u128 * card_t + t as u128) * card_o + o as u128, w)),
        card_o as u64,
        card_t as u64,
        x.cardinality as usize,
    )
}

/// A contingency rendered to raw bits.
fn contingency_bits(c: &Contingency) -> Vec<u64> {
    let mut out = Vec::new();
    for &(o, t, x, w) in &c.cells {
        out.extend([o as u64, t as u64, x as u64, bits(w)]);
    }
    out.extend(c.x_marginal.iter().map(|&w| bits(w)));
    out.extend([bits(c.total), c.n_entities_ctx as u64]);
    out
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

/// The engine at `parallelism` with its contingencies swapped for the
/// naive counts: the oracle every real engine's digest must reproduce.
fn oracle_engine(set: &CandidateSet, parallelism: Parallelism) -> Engine {
    let mut engine = Engine::with_parallelism(set, parallelism);
    for (column, cont) in engine.base.iter_mut() {
        *cont = Arc::new(naive_contingency(set, column));
    }
    engine
}

/// At serial, 2 and 8 threads, every contingency equals the naive count
/// and the engine digest equals the serial oracle's, bit for bit.
fn assert_matches_naive(set: &CandidateSet, what: &str) {
    let reference = digest(&oracle_engine(set, Parallelism::Serial), set);
    for (parallelism, p_name) in [
        (Parallelism::Serial, "serial"),
        (Parallelism::Fixed(2), "2 threads"),
        (Parallelism::Fixed(8), "8 threads"),
    ] {
        let engine = Engine::with_parallelism(set, parallelism);
        for (column, cont) in &engine.base {
            assert_eq!(
                contingency_bits(cont),
                contingency_bits(&naive_contingency(set, column)),
                "{what}: {column} contingency @ {p_name} differs from the naive count"
            );
        }
        assert_eq!(
            reference,
            digest(&engine, set),
            "{what}: engine @ {p_name} diverges from the naive oracle"
        );
    }
}

#[test]
fn small_set_matches_naive_count() {
    assert_matches_naive(&synthetic_set(3_000, 0xA11CE), "3k rows");
}

#[test]
fn large_set_matches_naive_count() {
    // Above 2^16 rows, past the row-chunk size of the candidate build.
    assert_matches_naive(&synthetic_set(70_000, 0xBEEF), "70k rows");
}

#[test]
fn weighted_candidate_matches_naive_count() {
    // The weighted digest must diverge from the unweighted one (the IPW
    // weights matter) while matching the oracle at every thread count —
    // guards against an engine that "agrees" by dropping weights.
    let set = synthetic_set(5_000, 0x5EED);
    let oracle = oracle_engine(&set, Parallelism::Serial);
    let unweighted = oracle.stats(&set, 0);
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Fixed(2),
        Parallelism::Fixed(8),
    ] {
        let engine = Engine::with_parallelism(&set, parallelism);
        let weighted = engine.stats(&set, 1);
        assert_ne!(
            bits(weighted.support),
            bits(unweighted.support),
            "IPW weights should change the weighted support"
        );
        assert_eq!(bits(weighted.support), bits(oracle.stats(&set, 1).support));
        assert_eq!(bits(weighted.cmi()), bits(oracle.stats(&set, 1).cmi()));
    }
}

#[test]
fn full_mask_and_no_nulls_edge_case() {
    // All-true mask + fully valid columns: the selection is every row.
    let mut set = synthetic_set(2_048, 0xFACE);
    set.mask = Bitmap::with_value(2_048, true);
    set.o.validity = None;
    set.t.validity = None;
    if let Some(c) = set.column_codes.get_mut("City") {
        Arc::make_mut(c).validity = None;
    }
    assert_matches_naive(&set, "dense edge case");
}

#[test]
fn empty_context_edge_case() {
    // An all-false mask selects nothing; the engine must agree with the
    // oracle on the degenerate answer rather than panic.
    let mut set = synthetic_set(512, 0xD00D);
    set.mask = Bitmap::with_value(512, false);
    assert_matches_naive(&set, "empty context");
}

#[test]
fn width_boundary_cardinalities_match_naive_count() {
    // `|T|·|O|` sits exactly on — and one step past — the u8 and u16
    // boundaries, and the largest shapes push `|X|·|T|·|O|` past the
    // dense budget onto the hashed accumulator.
    for (card_o, card_t, what) in [
        (5u32, 51u32, "|TO| = 255"),
        (4, 64, "|TO| = 256"),
        (4, 65, "|TO| = 260"),
        (5, 13_107, "|TO| = 65535"),
        (16, 4_096, "|TO| = 65536"),
        (17, 4_096, "|TO| = 69632"),
    ] {
        let seed = 0xC0DE ^ ((card_o as u64) << 20) ^ card_t as u64;
        let set = synthetic_set_with_cards(2_500, seed, card_o, card_t, 40);
        assert_matches_naive(&set, what);
    }
}

/// A key space past `u64`: `|X|·|T|·|O|` = 2^65. The contingency must
/// still equal a naive ordered count of its rows.
#[test]
fn key_space_past_u64_matches_a_naive_count() {
    let n = 3_000;
    let (card_o, card_t, card_x) = (1u32 << 22, 1u32 << 22, 1u32 << 21);
    let mut rng = Rng(0x0DD5);
    // Four codes spread over each declared range, so cells repeat and
    // the high key digits are exercised.
    let mut codes = |card: u32| -> Codes {
        let mut validity = Bitmap::with_value(n, true);
        let codes = (0..n)
            .map(|i| {
                if rng.below(19) == 0 {
                    validity.set(i, false);
                }
                card - 1 - rng.below(4) as u32 * (card / 4)
            })
            .collect();
        Codes {
            codes,
            cardinality: card,
            validity: Some(validity),
        }
    };
    let (o, t, x) = (codes(card_o), codes(card_t), codes(card_x));
    let mut mask = Bitmap::with_value(n, true);
    for i in (0..n).step_by(5) {
        mask.set(i, false);
    }
    let mut naive: BTreeMap<(u32, u32, u32), f64> = BTreeMap::new();
    for i in 0..n {
        if mask.get(i) && o.is_valid(i) && t.is_valid(i) && x.is_valid(i) {
            *naive
                .entry((x.codes[i], t.codes[i], o.codes[i]))
                .or_insert(0.0) += 1.0;
        }
    }
    let set = CandidateSet {
        candidates: Vec::new(),
        column_codes: HashMap::from([("X".to_string(), Arc::new(x))]),
        o,
        t,
        mask,
        link_stats: HashMap::new(),
    };

    let c = Contingency::build(&set, "X");
    let cells: Vec<((u32, u32, u32), f64)> =
        c.cells.iter().map(|&(o, t, x, w)| ((x, t, o), w)).collect();
    assert_eq!(cells, naive.into_iter().collect::<Vec<_>>());
    assert_eq!(c.total, cells.iter().map(|&(_, w)| w).sum::<f64>());
}

/// Changes one input of a set's per-set memo key at `row`: `what` picks
/// a mask bit, an O code, a T code, an O validity bit or a T validity bit.
fn perturb(set: &mut CandidateSet, what: u8, row: usize) {
    fn flip(bitmap: Option<&mut Bitmap>, row: usize) {
        let bitmap = bitmap.expect("fixture columns carry validity");
        let v = bitmap.get(row);
        bitmap.set(row, !v);
    }
    let bump = |codes: &mut Codes| codes.codes[row] = (codes.codes[row] + 1) % codes.cardinality;
    match what {
        0 => {
            let v = set.mask.get(row);
            set.mask.set(row, !v);
        }
        1 => bump(&mut set.o),
        2 => bump(&mut set.t),
        3 => flip(set.o.validity.as_mut(), row),
        _ => flip(set.t.validity.as_mut(), row),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memo under-keying is a correctness bug: an engine built on a
    /// one-bit perturbation of a set, over a store warmed on the original,
    /// must either miss (its set fingerprint changed, so it publishes new
    /// entries) or reproduce a memo-off engine's digest bit for bit.
    #[test]
    fn memo_keys_cover_every_set_input(
        seed in any::<u64>(),
        n in 64usize..600,
        what in 0u8..5,
        row in any::<usize>(),
    ) {
        let set = synthetic_set(n, seed);
        let handle = MemoHandle::new(Arc::new(MemoStore::new(0)), 0xDA7A);
        Engine::with_parallelism_memo(&set, Parallelism::Serial, Some(&handle));
        let warmed = handle.store.resident_entries();

        let mut perturbed = synthetic_set(n, seed);
        perturb(&mut perturbed, what, row % n);
        let memo = Engine::with_parallelism_memo(&perturbed, Parallelism::Serial, Some(&handle));
        let missed = handle.store.resident_entries() > warmed;
        let fp_changed = set_fingerprint(&set.mask, &set.o, &set.t)
            != set_fingerprint(&perturbed.mask, &perturbed.o, &perturbed.t);
        prop_assert_eq!(missed, fp_changed);
        let plain = Engine::with_parallelism(&perturbed, Parallelism::Serial);
        prop_assert_eq!(digest(&memo, &perturbed), digest(&plain, &perturbed));
    }

    /// Random codes, maps, masks, and sizes: the engine reproduces the
    /// naive oracle's digest bit for bit, serially and on a pool.
    #[test]
    fn random_sets_match_naive_count(seed in any::<u64>(), n in 64usize..1_500) {
        let set = synthetic_set(n, seed);
        let reference = digest(&oracle_engine(&set, Parallelism::Serial), &set);
        let serial = digest(&Engine::with_parallelism(&set, Parallelism::Serial), &set);
        let parallel = digest(&Engine::with_parallelism(&set, Parallelism::Fixed(3)), &set);
        prop_assert_eq!(&reference, &serial);
        prop_assert_eq!(&reference, &parallel);
    }

    /// Random cardinalities straddling the u8/u16 scan-width boundary:
    /// scan width is a build-time detail, never a result.
    #[test]
    fn random_widths_match_naive_count(
        seed in any::<u64>(),
        n in 64usize..800,
        card_o in 2u32..10,
        card_t in 2u32..300,
    ) {
        let set = synthetic_set_with_cards(n, seed, card_o, card_t, 40);
        let reference = digest(&oracle_engine(&set, Parallelism::Serial), &set);
        let serial = digest(&Engine::with_parallelism(&set, Parallelism::Serial), &set);
        let parallel = digest(&Engine::with_parallelism(&set, Parallelism::Fixed(3)), &set);
        prop_assert_eq!(&reference, &serial);
        prop_assert_eq!(&reference, &parallel);
    }
}

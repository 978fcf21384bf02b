//! Engine counting against a naive oracle: every `(O, T, X)` contingency
//! the engine builds must equal, bit for bit, an ordered per-row count of
//! the complete-case rows, and everything the engine derives from those
//! tables — per-candidate [`CandStats`], calibrated CMIs, pairwise MIs —
//! must be identical serially and at 2 and 8 threads. Differential tests
//! check that the memo keys cover every input they stand for: the set
//! (mask, O, T), each candidate's content and weights, the selection
//! models' covariates, and every `NexusOptions` field.
//!
//! [`CandStats`]: super::CandStats

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use nexus_runtime::Parallelism;
use nexus_table::{BinStrategy, Bitmap, Codes};
use proptest::prelude::*;

use nexus_kg::{KnowledgeGraph, OneToManyAgg, PropertyValue};
use nexus_table::{Column, Table};

use super::{Contingency, Engine};
use crate::candidate::{Candidate, CandidateRepr, CandidateSet, CandidateSource, MISSING_CODE};
use crate::memo::{set_fingerprint, MemoHandle, MemoKind, MemoStore};
use crate::{ExplainRequest, Nexus, NexusOptions, RunControl};

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
    /// one-bit perturbation of a set, over a store warmed on the original
    /// (every kind the digest reads), must either miss (its set
    /// fingerprint changed, so it publishes new entries) or reproduce a
    /// memo-off engine's digest bit for bit.
    #[test]
    fn memo_keys_cover_every_set_input(
        seed in any::<u64>(),
        n in 64usize..600,
        what in 0u8..5,
        row in any::<usize>(),
    ) {
        let set = synthetic_set(n, seed);
        let handle = MemoHandle::new(Arc::new(MemoStore::new(0)), 0xDA7A);
        let options = NexusOptions::default();
        let warm = Engine::with_parallelism_memo(&set, Parallelism::Serial, &handle, &options);
        digest(&warm, &set);
        let warmed = handle.store.resident_entries();

        let mut perturbed = synthetic_set(n, seed);
        perturb(&mut perturbed, what, row % n);
        let memo =
            Engine::with_parallelism_memo(&perturbed, Parallelism::Serial, &handle, &options);
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

/// Changes one input of a candidate's memo keys: `what` picks an entry of
/// the unweighted or the weighted candidate's map, one bit of an entity
/// weight, one row of the row-level candidate (what another binning of
/// its base column gives; the caller changes the binning to match), or
/// the unweighted candidate's name.
fn perturb_candidate(set: &mut CandidateSet, what: u8, entity: usize, bit: u32) {
    match what {
        0 | 1 => {
            let CandidateRepr::EntityLevel {
                map, cardinality, ..
            } = &mut set.candidates[what as usize].repr
            else {
                unreachable!("the fixture's first two candidates are entity-level")
            };
            let e = entity % map.len();
            map[e] = match map[e] {
                MISSING_CODE => 0,
                c if c + 1 < *cardinality => c + 1,
                _ => MISSING_CODE,
            };
        }
        2 => {
            let weights = set.candidates[1]
                .entity_weights
                .as_mut()
                .expect("the fixture's second candidate is weighted");
            let e = entity % weights.len();
            weights[e] = f64::from_bits(weights[e].to_bits() ^ (1 << (bit % 52)));
        }
        3 => {
            let CandidateRepr::RowLevel(codes) = &mut set.candidates[2].repr else {
                unreachable!("the fixture's third candidate is row-level")
            };
            let row = entity % codes.len();
            codes.codes[row] = (codes.codes[row] + 1) % codes.cardinality;
        }
        _ => set.candidates[0].name = "City::twin".to_string(),
    }
}

/// Makes the unweighted candidate confound the set: three in four rows
/// whose entity carries it take both `O` and `T` from its value, so its
/// calibrated CMI earns credit that depends on its permutation seed.
fn confound(set: &mut CandidateSet) {
    let CandidateRepr::EntityLevel { map, .. } = &set.candidates[0].repr else {
        unreachable!("the fixture's first candidate is entity-level")
    };
    let city = &set.column_codes["City"];
    for i in (0..set.o.len()).filter(|i| i % 4 != 0 && city.is_valid(*i)) {
        let v = map[city.codes[i] as usize];
        if v != MISSING_CODE {
            set.o.codes[i] = v;
            set.t.codes[i] = v;
        }
    }
}

/// The fixture world for pipeline-level key tests: 24 countries whose
/// `hdi` drives salary, a `region` and an `hdi` that qualify as selection
/// covariates, an MNAR `rich_flag` the bias detector flags, a one-to-many
/// link (so `hops` and `one_to_many` matter), and a numeric base column
/// (so the candidate binning shapes a row-level candidate). `moved`
/// reassigns one country's region, which changes one covariate map.
fn world(moved: Option<usize>) -> (Table, KnowledgeGraph) {
    let mut kg = KnowledgeGraph::new();
    let (mut countries, mut genders, mut ages, mut salaries) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for c in 0..24usize {
        let name = format!("C{c:02}");
        let hdi = (c % 4) as f64;
        let id = kg.add_entity(name.clone(), "Country");
        kg.set_literal(id, "hdi", hdi);
        let region = if moved == Some(c) {
            (c / 4 + 1) % 6
        } else {
            c / 4
        };
        kg.set_literal(id, "region", format!("R{region}"));
        if hdi >= 2.0 {
            kg.set_literal(id, "rich_flag", if hdi >= 3.0 { 1.0 } else { 0.0 });
        }
        let group = kg.add_entity(format!("G{c:02}"), "Ethnic");
        kg.set_literal(group, "population", (c * 7 % 10) as f64);
        kg.set_property(id, "ethnic group", PropertyValue::EntityList(vec![group]));
        for i in 0..30 {
            countries.push(name.clone());
            genders.push(if i % 4 == 0 { "f" } else { "m" });
            let age = 20.0 + ((i * 7 + c) % 40) as f64;
            ages.push(age);
            let senior = if age >= 45.0 { 1.5 } else { 0.0 };
            salaries.push(15.0 * hdi + (i % 3) as f64 * 0.2 + (c % 3) as f64 + senior);
        }
    }
    let table = Table::new(vec![
        ("Country", Column::from_strs(&countries)),
        ("Gender", Column::from_strs(&genders)),
        ("Age", Column::from_f64(ages)),
        ("Salary", Column::from_f64(salaries)),
    ])
    .unwrap();
    (table, kg)
}

const WORLD_SQL: &str = "SELECT Country, avg(Salary) FROM t GROUP BY Country";

/// Every output of a pipeline run, f64s as raw bits: the explanation, and
/// each surviving candidate's IPW weights, stats and calibrated CMI.
fn run_digest(
    table: &Table,
    kg: &KnowledgeGraph,
    options: &NexusOptions,
    memo: Option<&MemoHandle>,
) -> Vec<String> {
    let query = nexus_query::parse(WORLD_SQL).unwrap();
    let request = ExplainRequest::new()
        .table(table)
        .knowledge_graph(kg)
        .extraction_column("Country")
        .query(&query);
    let ctl = match memo {
        Some(handle) => RunControl::none().with_memo(handle),
        None => RunControl::none(),
    };
    let (e, artifacts) = Nexus::new(options.clone())
        .run_controlled(&request, ctl)
        .unwrap();
    let mut digest = vec![format!(
        "{:x} {:x} {} {} {}",
        bits(e.initial_cmi),
        bits(e.explained_cmi),
        e.stopped_by_responsibility,
        e.stats.n_after_online,
        e.stats.n_biased
    )];
    for a in &e.attributes {
        digest.push(format!(
            "{} {:x} {}",
            a.name,
            bits(a.responsibility),
            a.weighted
        ));
    }
    let (set, engine) = (&artifacts.set, &artifacts.engine);
    for (idx, c) in set.candidates.iter().enumerate() {
        let weights = c.entity_weights.iter().flatten().map(|&w| bits(w));
        let stats = engine.stats(set, idx);
        digest.push(format!(
            "{} {:?} {:x} {:x} {:x}",
            c.name,
            weights.collect::<Vec<_>>(),
            bits(stats.cmi()),
            bits(stats.support),
            bits(engine.cmi_single(set, idx))
        ));
    }
    digest
}

/// Perturbs option `field` (in declaration order; `ci` counts as its four
/// fields) of `options`.
fn perturb_option(options: &mut NexusOptions, field: u8) {
    let o = options;
    match field {
        0 => o.excluded_columns.push("Age".into()),
        1 => o.max_explanation_size = 1,
        2 => o.outcome_bins = BinStrategy::EqualWidth(4),
        3 => o.candidate_bins = BinStrategy::EqualWidth(3),
        4 => o.hops = 2,
        5 => o.one_to_many = OneToManyAgg::Max,
        6 => o.offline_pruning = !o.offline_pruning,
        7 => o.online_pruning = !o.online_pruning,
        8 => o.max_missing_fraction = 0.2,
        9 => o.high_entropy_ratio = 0.1,
        10 => o.entity_identifier_ratio = 0.1,
        11 => o.min_entities_for_identifier_test = 2,
        12 => o.fd_epsilon = 0.9,
        13 => o.relevance_epsilon = 0.5,
        14 => o.outcome_alias_fraction = 0.01,
        15 => o.handle_selection_bias = !o.handle_selection_bias,
        16 => o.bias_mi_threshold = 0.5,
        17 => o.bias_min_missing = 0.6,
        18 => o.min_support_fraction = 0.95,
        19 => o.min_rows_per_category = 200.0,
        20 => o.min_entities_per_category = 8.0,
        21 => o.ci.n_permutations = 17,
        22 => o.ci.alpha = 0.5,
        23 => o.ci.seed ^= 1,
        24 => o.ci.cmi_shortcut = 0.5,
        25 => o.min_improvement = 0.4,
        _ => o.parallelism = Parallelism::Fixed(3),
    }
}

/// Inserts of the four per-candidate kinds so far.
fn candidate_kind_inserts(store: &MemoStore) -> [u64; 4] {
    let c = store.counts();
    CANDIDATE_KINDS.map(|k| c.inserts[k as usize])
}

const CANDIDATE_KINDS: [MemoKind; 4] = [
    MemoKind::Stats,
    MemoKind::Calibrated,
    MemoKind::MiPair,
    MemoKind::IpwWeights,
];

fn base_options() -> NexusOptions {
    NexusOptions {
        parallelism: Parallelism::Serial,
        ..NexusOptions::default()
    }
}

/// A new explanation bound is the served mix's novel request: same set,
/// same options otherwise. It must hit every per-candidate kind and miss
/// none, and still match the memo-off run.
#[test]
fn changing_only_the_explanation_size_hits_every_candidate_kind() {
    let (table, kg) = world(None);
    let options = base_options();
    let handle = MemoHandle::new(Arc::new(MemoStore::new(0)), 0xDA7A);
    let warm = run_digest(&table, &kg, &options, Some(&handle));
    let selected = warm.len() - 1 - warm.iter().filter(|l| l.contains(" [")).count();
    assert!(selected >= 1, "the fixture explains nothing: {warm:?}");
    let mut resized = options.clone();
    resized.max_explanation_size = if selected < options.max_explanation_size {
        options.max_explanation_size + 1
    } else {
        selected - 1
    };
    let before = handle.store.counts();
    let digest = run_digest(&table, &kg, &resized, Some(&handle));
    let after = handle.store.counts();
    assert_eq!(digest, run_digest(&table, &kg, &resized, None));
    for kind in CANDIDATE_KINDS {
        let k = kind as usize;
        assert!(after.hits[k] > before.hits[k], "{kind:?} never hit");
        assert_eq!(after.misses[k], before.misses[k], "{kind:?} missed");
    }
}

/// A pipeline run over a store warmed by the default options, with one
/// option field perturbed or one covariate map changed, must reproduce
/// the memo-off run of the same inputs bit for bit (whatever it hit or
/// missed). Every field is perturbed, and three countries move region.
#[test]
fn memo_keys_cover_every_option_and_covariate() {
    let cases = (0..27u8)
        .map(|field| (Some(field), None))
        .chain([0, 9, 23].map(|country| (None, Some(country))));
    for (field, moved) in cases {
        let (table, kg) = world(None);
        let handle = MemoHandle::new(Arc::new(MemoStore::new(0)), 0xDA7A);
        run_digest(&table, &kg, &base_options(), Some(&handle));
        let mut options = base_options();
        if let Some(field) = field {
            perturb_option(&mut options, field);
        }
        let (table, kg) = world(moved);
        let warm = run_digest(&table, &kg, &options, Some(&handle));
        let plain = run_digest(&table, &kg, &options, None);
        assert_eq!(warm, plain, "option {field:?}, moved country {moved:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An engine over a store warmed on a set, asked about a set whose
    /// candidate map entry, entity weight bit or row-level binning
    /// differs, or whose first candidate is renamed (a twin of the warmed
    /// one: same content, another calibration seed), must miss those keys
    /// (publishing new entries) and reproduce a memo-off engine's digest
    /// bit for bit.
    #[test]
    fn memo_keys_cover_every_candidate_input(
        seed in any::<u64>(),
        n in 64usize..600,
        what in 0u8..5,
        entity in any::<usize>(),
        bit in any::<u32>(),
    ) {
        // A twin only tells names apart where calibration credits it.
        let fixture = || {
            let mut set = synthetic_set(n, seed);
            if what == 4 {
                confound(&mut set);
            }
            set
        };
        let set = fixture();
        let handle = MemoHandle::new(Arc::new(MemoStore::new(0)), 0xDA7A);
        let warm = Engine::with_parallelism_memo(
            &set, Parallelism::Serial, &handle, &NexusOptions::default(),
        );
        let warm_digest = digest(&warm, &set);
        let warmed = candidate_kind_inserts(&handle.store);

        let mut perturbed = fixture();
        perturb_candidate(&mut perturbed, what, entity, bit);
        let mut options = NexusOptions::default();
        if what == 3 {
            options.outcome_bins = BinStrategy::EqualWidth(5);
        }
        let memo =
            Engine::with_parallelism_memo(&perturbed, Parallelism::Serial, &handle, &options);
        let got = digest(&memo, &perturbed);
        let plain = Engine::with_parallelism(&perturbed, Parallelism::Serial);
        let expected = digest(&plain, &perturbed);
        if what == 4 {
            // The twin's own seed gives it another calibrated CMI.
            prop_assert_ne!(&warm_digest, &expected);
        }
        prop_assert_eq!(got, expected);
        let inserts = candidate_kind_inserts(&handle.store);
        // Stats and calibrated CMI of the perturbed candidate were rebuilt.
        prop_assert!(inserts[0] > warmed[0] && inserts[1] > warmed[1]);
    }
}

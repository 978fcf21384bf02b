//! Bit-identity gate for candidate building.
//!
//! Hashes every field of the `CandidateSet` that `build_candidates`
//! returns — candidate names, sources and representations, the row→entity
//! codes of every extraction column, the outcome and exposure codes, the
//! context mask and the link statistics — and compares the digest with a
//! golden constant recorded from the per-row implementation. Each fixture
//! is built serially and on pools of 1, 2 and 8 threads, so a chunked pass
//! whose merge depended on the thread count, or that drifted from the
//! per-row reference by one bit, fails here.

use nexus::core::{build_candidates, CandidateRepr, CandidateSet, CandidateSource};
use nexus::datagen::flights::{self, FlightsConfig};
use nexus::datagen::synth::{self, SynthConfig, SYNTH_WORKLOADS};
use nexus::datagen::{Dataset, BENCH_QUERIES};
use nexus::kg::{KnowledgeGraph, PropertyValue};
use nexus::table::{Bitmap, Codes, Column, ColumnData, DictArray, Table};
use nexus::{parse, NexusOptions, Parallelism};

/// FNV-1a over a canonical byte stream of the set.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.bytes(&v.to_le_bytes());
        }
    }

    fn bitmap(&mut self, bm: Option<&Bitmap>) {
        match bm {
            None => self.u64(u64::MAX),
            Some(bm) => {
                self.u64(bm.len() as u64);
                for &w in bm.words() {
                    self.u64(w);
                }
            }
        }
    }

    fn codes(&mut self, c: &Codes) {
        self.u32s(&c.codes);
        self.u64(u64::from(c.cardinality));
        self.bitmap(c.validity.as_ref());
    }
}

fn digest(set: &CandidateSet) -> u64 {
    let mut d = Digest::new();
    d.u64(set.candidates.len() as u64);
    for c in &set.candidates {
        d.str(&c.name);
        match &c.source {
            CandidateSource::BaseTable => d.str("base"),
            CandidateSource::Extracted { column } => {
                d.str("extracted");
                d.str(column);
            }
        }
        match &c.repr {
            CandidateRepr::RowLevel(codes) => {
                d.str("row");
                d.codes(codes);
            }
            CandidateRepr::EntityLevel {
                column,
                map,
                cardinality,
            } => {
                d.str("entity");
                d.str(column);
                d.u32s(map);
                d.u64(u64::from(*cardinality));
            }
        }
        d.u64(u64::from(c.entity_weights.is_some()));
        d.u64(u64::from(c.bias.is_some()));
    }
    let mut columns: Vec<&String> = set.column_codes.keys().collect();
    columns.sort();
    for column in columns {
        d.str(column);
        d.codes(&set.column_codes[column]);
    }
    d.codes(&set.o);
    d.codes(&set.t);
    d.bitmap(Some(&set.mask));
    let mut linked: Vec<&String> = set.link_stats.keys().collect();
    linked.sort();
    for column in linked {
        let s = &set.link_stats[column];
        d.str(column);
        for v in [s.linked, s.not_found, s.ambiguous, s.null] {
            d.u64(v as u64);
        }
    }
    d.0
}

/// Builds the fixture's candidate set at every parallelism and asserts
/// each digest equals `golden`.
fn assert_digest(id: &str, dataset: &Dataset, sql: &str, golden: u64) {
    let query = parse(sql).expect("fixture SQL parses");
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Fixed(1),
        Parallelism::Fixed(2),
        Parallelism::Fixed(8),
    ] {
        let options = NexusOptions::builder()
            .parallelism(parallelism)
            .build()
            .expect("valid options");
        let set = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &options,
        )
        .expect("candidates build");
        assert_eq!(
            digest(&set),
            golden,
            "{id} at {parallelism:?}: digest {:#018x}",
            digest(&set)
        );
    }
}

/// A table exercising every assembly path: an extraction column with
/// nulls, two aliases of one entity, an ambiguous form, unknown forms and
/// an unused dictionary entry; numeric columns with nulls, ties, signed
/// zeros and infinities; a wide and a narrow integer column; a boolean;
/// two all-null text columns (empty dictionaries), one compared in the
/// WHERE context and one an extraction column; a composite exposure.
/// 150k rows, above the 2^16-row chunk size.
fn nulls_and_aliases() -> Dataset {
    const N: usize = 150_000;
    let forms = [
        "Avalon",
        "avalon ",
        "Republic of Avalon",
        "Brigadoon",
        "Camelot",
        "Lyonesse",
        "Ys",
        "Ys City",
        "Atlantis",
        "Hy-Brasil",
        "Thule",
        "Mu",
    ];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut place = Vec::with_capacity(N);
    let mut dept = Vec::with_capacity(N);
    let mut remote = Vec::with_capacity(N);
    let mut pay = Vec::with_capacity(N);
    let mut score = Vec::with_capacity(N);
    let mut age = Vec::with_capacity(N);
    let mut level = Vec::with_capacity(N);
    for i in 0..N {
        let r = next();
        // Entity-blocked runs, as in an export per place.
        let f = (i * forms.len() / N + (r % 7 == 0) as usize) % forms.len();
        place.push((r % 97 != 0).then_some(forms[f]));
        dept.push((r % 89 != 1).then_some(["ops", "eng", "sales"][(r >> 8) as usize % 3]));
        remote.push(((r >> 12) % 53 != 0).then_some((r >> 13) % 2 == 0));
        let base = 40.0 + 3.0 * f as f64 + ((r >> 16) % 40) as f64 / 4.0;
        pay.push(match (r >> 24) % 211 {
            0 => None,
            1 => Some(0.0),
            2 => Some(-0.0),
            3 => Some(f64::INFINITY),
            4 => Some(f64::NEG_INFINITY),
            _ => Some(base),
        });
        score.push(match (r >> 32) % 5 {
            0 => -0.0,
            1 => 0.0,
            _ => ((r >> 36) % 9) as f64 - 4.0,
        });
        age.push(((r >> 40) % 61 != 0).then_some(20 + ((r >> 44) % 45) as i64));
        level.push(((r >> 50) % 6) as i64);
    }
    // One dictionary entry no row uses; it names a KG entity.
    let (arr, validity) = DictArray::from_options(&place);
    let mut dict = arr.dict().to_vec();
    dict.push("Shangri-La".into());
    let place = Column::from_parts(
        ColumnData::Utf8(
            DictArray::from_parts(arr.codes().to_vec(), dict).expect("codes in range"),
        ),
        validity,
    )
    .expect("validity covers every row");
    let table = Table::new(vec![
        ("Place", place),
        ("Dept", Column::from_opt_strs(&dept)),
        ("Remote", Column::from_opt_bools(remote)),
        ("Pay", Column::from_opt_f64(pay)),
        ("Score", Column::from_f64(score)),
        ("Age", Column::from_opt_i64(age)),
        ("Level", Column::from_i64(level)),
        ("Memo", Column::from_opt_strs(&vec![None::<&str>; N])),
        ("Origin", Column::from_opt_strs(&vec![None::<&str>; N])),
    ])
    .expect("columns share one length");

    let mut kg = KnowledgeGraph::new();
    let avalon = kg.add_entity("Avalon", "Place");
    kg.add_alias(avalon, "Republic of Avalon");
    let ys = kg.add_entity("Ys", "Place");
    kg.add_alias(ys, "Ys City");
    let hy1 = kg.add_entity("Hy-Brasil North", "Place");
    kg.add_alias(hy1, "Hy-Brasil");
    let hy2 = kg.add_entity("Hy-Brasil South", "Place");
    kg.add_alias(hy2, "Hy-Brasil");
    let brigadoon = kg.add_entity("Brigadoon", "Place");
    let camelot = kg.add_entity("Camelot", "Place");
    let lyonesse = kg.add_entity("Lyonesse", "Place");
    let thule = kg.add_entity("Thule", "Place");
    let unused = kg.add_entity("Shangri-La", "Place");
    kg.add_entity("El Dorado", "Place");
    let ruler = kg.add_entity("Arthur", "Person");
    kg.set_literal(ruler, "age", 40.0);
    for (k, id) in [avalon, ys, brigadoon, camelot, lyonesse, thule, unused]
        .into_iter()
        .enumerate()
    {
        kg.set_literal(id, "wealth", [0.5, -0.0, 0.0, 2.5, 2.5, 7.0, 1.0][k]);
        if k % 3 != 1 {
            kg.set_literal(id, "founded", 900.0 + 37.0 * k as f64);
        }
        kg.set_literal(id, "climate", ["wet", "dry", "wet", "cold"][k % 4]);
        if k < 4 {
            kg.set_property(id, "ruler", PropertyValue::Entity(ruler));
        }
    }
    Dataset {
        name: "Places",
        table,
        kg,
        extraction_columns: vec!["Place".into(), "Origin".into()],
        outcome_columns: vec!["Pay".into()],
    }
}

#[test]
fn candidate_sets_match_their_golden_digests_at_every_thread_count() {
    let m1 = SYNTH_WORKLOADS
        .iter()
        .find(|w| w.id == "SYN-M1")
        .expect("SYN-M1 is a synthetic workload");
    let syn = synth::generate(&SynthConfig {
        n_rows: 200_000,
        bias: m1.bias,
        ..SynthConfig::default()
    });
    assert_digest("SYN-M1", &syn, m1.sql, 0x75bf_3d62_a6c2_a4c8);

    let fl_q4 = BENCH_QUERIES
        .iter()
        .find(|q| q.id == "FL-Q4")
        .expect("FL-Q4 is a paper query");
    let fl = flights::generate(&FlightsConfig {
        n_rows: 20_000,
        n_cities: 20,
        ..FlightsConfig::default()
    });
    assert_digest("FL-Q4", &fl, fl_q4.sql, 0x0442_1e6e_7be2_4b84);

    let places = nulls_and_aliases();
    assert_digest(
        "places",
        &places,
        "SELECT Dept, Remote, avg(Pay) FROM t WHERE (Level <= 3 OR Memo = 'x') AND Age IS NOT NULL GROUP BY Dept, Remote",
        0xc29f_21e5_d20e_a174,
    );
}

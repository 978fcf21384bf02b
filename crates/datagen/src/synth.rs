//! SYN: region-blocked synthetic workloads for the counting-kernel gates.
//!
//! Unlike the four paper datasets (which reproduce Table 1's shapes), this
//! generator is a **kernel stress fixture**: a tall, narrow table whose
//! layout mirrors how operational exports actually arrive — rows blocked
//! by region and segment, measurements repeating across short bursts
//! (per-day per-region aggregates). That layout is exactly what the
//! counting kernel exploits:
//!
//! * **narrow keys** — few regions × six outcome bins keeps the `(O, T)`
//!   key space within `u8`;
//! * **run coalescing** — region, segment, and burst-constant outcomes
//!   give long equal-key runs, so dense accumulator writes collapse far
//!   below rows scanned;
//! * **packed-mask word skips** — a `WHERE Segment = …` context selects
//!   contiguous chunks, so most selection words are all-zero and the scan
//!   skips them whole.
//!
//! The planted structure keeps the workload semantically honest: each
//! region has a hidden `capacity index` that drives the outcome, so the
//! Region → Outcome association is a textbook confounder the pipeline can
//! explain away. The `bias: true` variant drops `capacity index` from the
//! highest-capacity regions — coverage correlated with the outcome — which
//! trips the pipeline's selection-bias detector and routes builds through
//! the weighted (IPW) kernel paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nexus_kg::{EntityId, KnowledgeGraph};
use nexus_table::{Column, Table};

use crate::noise::{add_noise_properties, add_rank_copy, NoiseConfig};
use crate::rng::normal_with;
use crate::Dataset;

/// Configuration for the synthetic kernel workload generator.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of rows (benchmarks default to 10M; tests use far fewer).
    pub n_rows: usize,
    /// Number of regions (the extraction / group-by column). Keep small:
    /// `n_regions × 6` outcome bins must stay ≤ 256 for u8 `(O, T)` scans.
    pub n_regions: usize,
    /// Number of segments (the WHERE column of the masked variant).
    pub n_segments: usize,
    /// RNG seed.
    pub seed: u64,
    /// Drop `capacity index` from the highest-capacity regions, planting
    /// outcome-correlated coverage that triggers IPW weighting.
    pub bias: bool,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            n_rows: 10_000_000,
            n_regions: 24,
            n_segments: 4,
            seed: 0x5A17_B10C,
            bias: false,
        }
    }
}

/// The plain region query (SYN-B1, SYN-W1).
pub const SYN_Q_PLAIN: &str = "SELECT Region, avg(Outcome) FROM Synth GROUP BY Region";

/// The masked region query (SYN-M1): one segment's contiguous chunks.
pub const SYN_Q_MASKED: &str =
    "SELECT Region, avg(Outcome) FROM Synth WHERE Segment = 'SEG_00' GROUP BY Region";

/// One benchmark workload over the synthetic generator.
#[derive(Debug, Clone, Copy)]
pub struct SynthWorkload {
    /// Workload id (`SYN-…`).
    pub id: &'static str,
    /// The explain query.
    pub sql: &'static str,
    /// Whether the generator plants selection bias (IPW variant).
    pub bias: bool,
    /// One-line description for reports.
    pub description: &'static str,
}

/// The shipped synthetic workloads. Deliberately **not** part of
/// [`crate::BENCH_QUERIES`] (that list mirrors the paper's Table 5 and is
/// pinned by tests); the kernel gate tests look them up by id.
pub const SYNTH_WORKLOADS: &[SynthWorkload] = &[
    SynthWorkload {
        id: "SYN-B1",
        sql: SYN_Q_PLAIN,
        bias: false,
        description: "region-blocked planted confounder, full table",
    },
    SynthWorkload {
        id: "SYN-W1",
        sql: SYN_Q_PLAIN,
        bias: true,
        description: "outcome-correlated coverage gap; IPW-weighted builds",
    },
    SynthWorkload {
        id: "SYN-M1",
        sql: SYN_Q_MASKED,
        bias: false,
        description: "one-segment WHERE context; packed-mask word skips",
    },
];

/// Generates the synthetic region-blocked dataset.
pub fn generate(config: &SynthConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_regions = config.n_regions.max(2);
    let n_segments = config.n_segments.max(2);

    // Hidden per-region confounder: capacity drives the outcome level.
    let capacity: Vec<f64> = (0..n_regions).map(|_| rng.gen::<f64>()).collect();
    let region_names: Vec<String> = (0..n_regions).map(|r| format!("Region_{r:02}")).collect();
    let segment_names: Vec<String> = (0..n_segments).map(|s| format!("SEG_{s:02}")).collect();
    let segment_shift: Vec<f64> = (0..n_segments)
        .map(|_| normal_with(&mut rng, 0.0, 1.5))
        .collect();

    let n = config.n_rows;
    let mut col_region: Vec<&str> = Vec::with_capacity(n);
    let mut col_segment: Vec<&str> = Vec::with_capacity(n);
    let mut col_outcome: Vec<f64> = Vec::with_capacity(n);

    // Region-major, segment-minor blocked layout: each (region, segment)
    // pair owns one contiguous chunk, as in a per-region export
    // concatenation. Within a chunk the measurement repeats across short
    // bursts (per-day aggregates), giving the equal-key runs the kernel's
    // coalescing is built for.
    let n_chunks = n_regions * n_segments;
    for chunk in 0..n_chunks {
        let r = chunk / n_segments;
        let s = chunk % n_segments;
        let start = chunk * n / n_chunks;
        let end = (chunk + 1) * n / n_chunks;
        let level = 10.0 + 30.0 * capacity[r] + segment_shift[s];
        let mut i = start;
        while i < end {
            let burst = (8 + rng.gen_range(0..56)).min(end - i);
            let value = (normal_with(&mut rng, level, 4.0) * 10.0).round() / 10.0;
            for _ in 0..burst {
                col_region.push(&region_names[r]);
                col_segment.push(&segment_names[s]);
                col_outcome.push(value);
            }
            i += burst;
        }
    }

    let table = Table::new(vec![
        ("Region", Column::from_strs(&col_region)),
        ("Segment", Column::from_strs(&col_segment)),
        ("Outcome", Column::from_f64(col_outcome)),
    ])
    .expect("columns share one length");

    let mut kg = KnowledgeGraph::new();
    add_region_entities(&mut kg, &region_names, &capacity, config.bias, &mut rng);

    Dataset {
        name: "Synth",
        table,
        kg,
        extraction_columns: vec!["Region".into()],
        outcome_columns: vec!["Outcome".into()],
    }
}

fn add_region_entities(
    kg: &mut KnowledgeGraph,
    names: &[String],
    capacity: &[f64],
    bias: bool,
    rng: &mut StdRng,
) {
    let ids: Vec<EntityId> = names
        .iter()
        .map(|name| kg.add_entity(name.clone(), "Region"))
        .collect();

    // The biased variant drops `capacity index` from the top-capacity
    // third of regions: the property's coverage then correlates with the
    // outcome level, which is exactly the missing-not-at-random pattern
    // the pipeline's IPW stage detects and reweights.
    let bias_cut = if bias {
        let mut sorted: Vec<f64> = capacity.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        sorted[sorted.len() - sorted.len() / 3]
    } else {
        f64::INFINITY
    };

    for (&id, &cap) in ids.iter().zip(capacity) {
        if cap < bias_cut {
            kg.set_literal(id, "capacity index", (100.0 * cap).round());
        }
        // Correlated proxy with its own noise (redundancy fodder).
        kg.set_literal(
            id,
            "throughput",
            (50.0 + 200.0 * cap + normal_with(rng, 0.0, 12.0)).round(),
        );
        kg.set_literal(
            id,
            "tier",
            format!("tier{}", (cap * 3.0).floor().min(2.0) as i64),
        );
    }
    add_rank_copy(kg, &ids, "throughput");

    // A small haystack — the workload's point is kernel shape, not
    // candidate pruning, so the attribute count stays in the low teens.
    let noise = NoiseConfig {
        n_numeric: 8,
        n_categorical: 3,
        n_constant: 1,
        n_unique: 1,
        prefix: "region".into(),
        missing_range: (0.0, 0.25),
        ..NoiseConfig::default()
    };
    add_noise_properties(kg, &ids, &noise, rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(bias: bool) -> Dataset {
        generate(&SynthConfig {
            n_rows: 30_000,
            bias,
            ..SynthConfig::default()
        })
    }

    #[test]
    fn schema_and_blocked_layout() {
        let d = small(false);
        assert_eq!(d.table.n_rows(), 30_000);
        assert_eq!(d.extraction_columns, vec!["Region".to_string()]);
        // Region-major blocks: the column is a concatenation of runs, so
        // the number of value changes is the number of chunks, not rows.
        let region = d.table.column("Region").unwrap();
        let changes = (1..d.table.n_rows())
            .filter(|&i| region.str_at(i) != region.str_at(i - 1))
            .count();
        assert_eq!(changes, 24 - 1, "Region must be block-contiguous");
    }

    #[test]
    fn confounder_drives_outcome() {
        let d = small(false);
        let linker = nexus_kg::EntityLinker::new(&d.kg);
        let (links, _) = linker.link_column(d.table.column("Region").unwrap());
        let outcome = d.table.column("Outcome").unwrap();
        let (mut hi, mut lo) = ((0.0, 0usize), (0.0, 0usize));
        for (i, l) in links.iter().enumerate() {
            let Some(id) = l else { continue };
            let Some(nexus_kg::PropertyValue::Literal(v)) = d.kg.property(*id, "capacity index")
            else {
                continue;
            };
            let cap = v.as_f64().unwrap();
            let o = outcome.f64_at(i).unwrap();
            if cap > 70.0 {
                hi.0 += o;
                hi.1 += 1;
            } else if cap < 30.0 {
                lo.0 += o;
                lo.1 += 1;
            }
        }
        let (hi_avg, lo_avg) = (hi.0 / hi.1 as f64, lo.0 / lo.1 as f64);
        assert!(hi_avg > lo_avg + 8.0, "hi={hi_avg} lo={lo_avg}");
    }

    #[test]
    fn bias_variant_drops_top_capacity_coverage() {
        let unbiased = small(false);
        let biased = small(true);
        let coverage = |d: &Dataset| {
            d.kg.entities_of_class("Region")
                .into_iter()
                .filter(|&id| d.kg.property(id, "capacity index").is_some())
                .count()
        };
        assert_eq!(coverage(&unbiased), 24);
        let covered = coverage(&biased);
        assert!(
            (12..24).contains(&covered),
            "biased coverage should lose the top third: {covered}/24"
        );
    }

    #[test]
    fn masked_query_selects_contiguous_chunks() {
        let d = small(false);
        let segment = d.table.column("Segment").unwrap();
        let selected = (0..d.table.n_rows())
            .filter(|&i| segment.str_at(i) == Some("SEG_00"))
            .count();
        // One of four segments, spread over one chunk per region.
        let frac = selected as f64 / d.table.n_rows() as f64;
        assert!((0.2..=0.3).contains(&frac), "SEG_00 fraction {frac}");
    }

    #[test]
    fn workload_ids_are_distinct_and_syn_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for w in SYNTH_WORKLOADS {
            assert!(w.id.starts_with("SYN-"), "{}", w.id);
            assert!(seen.insert(w.id));
        }
    }
}

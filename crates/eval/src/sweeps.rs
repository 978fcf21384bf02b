//! Parameter sweeps: Figure 3 (robustness to missing data), Figure 4
//! (runtime vs candidate count), Figure 5 (runtime vs rows), Figure 6
//! (runtime vs explanation-size bound), plus the smaller reported numbers:
//! the Section 5.1 random-query usefulness rate, Section 5.2 missingness /
//! selection-bias prevalence, Section 5.4 multi-hop extraction, and the
//! appendix pruning statistics.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nexus_core::{
    build_candidates, prune_offline, CandidateRepr, CandidateSet, Engine, Explanation, Nexus,
    NexusOptions, PipelineStats, RunControl, MISSING_CODE,
};
use nexus_datagen::{queries_for, random_queries, Dataset, DatasetKind, Scale};
use nexus_query::AggregateQuery;
use nexus_table::Table;

use crate::report::{render_series, TextTable};
use crate::runner::{excluded_for, DatasetCache};

/// Figure 4's series: `(name, offline_pruning, online_pruning)`.
const FIG4_SERIES: [(&str, bool, bool); 3] = [
    ("No Pruning", false, false),
    ("Offline Pruning", true, false),
    ("MCIMR", true, true),
];

/// The printed time columns: the query latency, then the stages beside it.
const TIME_COLUMNS: [&str; 5] = ["MCIMR", "build", "prune-online", "bias", "select"];

/// The time columns of one run, read from its stage ledger. The query
/// latency is the paper's: every stage after offline pruning, which it
/// counts as preprocessing like the candidate build.
fn stage_times(stats: &PipelineStats) -> [Duration; 5] {
    let query = stats.stage_time(&["prune-online", "bias", "select"]);
    let stage = |name: &str| stats.stage_time(&[name]);
    [
        query,
        stage("build"),
        stage("prune-online"),
        stage("bias"),
        stage("select"),
    ]
}

/// Collects runs' [`stage_times`] into [`TIME_COLUMNS`] series (seconds).
fn time_series<'a>(runs: impl Iterator<Item = &'a Explanation>) -> Vec<(&'static str, Vec<f64>)> {
    let mut series: Vec<(&str, Vec<f64>)> = TIME_COLUMNS.map(|n| (n, Vec::new())).into();
    for e in runs {
        for ((_, ys), t) in series.iter_mut().zip(stage_times(&e.stats)) {
            ys.push(t.as_secs_f64());
        }
    }
    series
}

/// The whole pipeline over `table` (the dataset's own, or a row sample
/// of it), from the candidate build on.
fn explain(
    dataset: &Dataset,
    table: &Table,
    query: &AggregateQuery,
    options: NexusOptions,
) -> Explanation {
    Nexus::new(options)
        .explain(table, &dataset.kg, &dataset.extraction_columns, query)
        .expect("pipeline runs")
}

/// The pipeline from `prune-offline` on over a prebuilt set.
fn run_set(set: CandidateSet, options: NexusOptions) -> Explanation {
    Nexus::new(options)
        .run_set(set, RunControl::none())
        .expect("pipeline runs")
        .0
}

/// The options of one query: its alternative outcome columns excluded.
fn query_options(dataset: &Dataset, query: &AggregateQuery) -> NexusOptions {
    NexusOptions {
        excluded_columns: excluded_for(dataset, query),
        ..NexusOptions::default()
    }
}

/// Keeps a uniformly random subset of `n` candidates (seeded).
fn sample_candidates(set: &CandidateSet, n: usize, seed: u64) -> CandidateSet {
    let mut out = set.clone();
    if out.candidates.len() > n {
        let mut rng = StdRng::seed_from_u64(seed);
        out.candidates.shuffle(&mut rng);
        out.candidates.truncate(n);
    }
    out
}

/// The run behind one Figure 4 point: one series' pruning settings over
/// one sampled subset.
fn fig4_run(set: CandidateSet, opts: &NexusOptions, offline: bool, online: bool) -> Explanation {
    run_set(
        set,
        NexusOptions {
            offline_pruning: offline,
            online_pruning: online,
            ..opts.clone()
        },
    )
}

/// Figure 4: runtime vs number of candidate attributes.
pub fn fig4(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut out = String::new();
    for kind in [DatasetKind::So, DatasetKind::Flights, DatasetKind::Forbes] {
        let dataset = cache.get(kind, scale);
        let query = queries_for(kind)[0].parsed();
        let opts = query_options(dataset, &query);
        let full = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &opts,
        )
        .expect("candidates build");
        let total = full.candidates.len();
        let xs: Vec<usize> = [50usize, 100, 200, 300, 450, 600, 750]
            .into_iter()
            .filter(|&x| x < total)
            .chain(std::iter::once(total))
            .collect();
        let series: Vec<(&str, Vec<f64>)> = FIG4_SERIES
            .iter()
            .map(|&(name, offline, online)| {
                let ys = xs
                    .iter()
                    .map(|&n| {
                        let sampled = sample_candidates(&full, n, 0xF164 + n as u64);
                        let e = fig4_run(sampled, &opts, offline, online);
                        stage_times(&e.stats)[0].as_secs_f64()
                    })
                    .collect();
                (name, ys)
            })
            .collect();
        let xsf: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        out.push_str(&render_series(
            &format!(
                "Figure 4 ({}): runtime [s] vs number of candidate attributes",
                dataset.name
            ),
            "candidates",
            &xsf,
            &series,
        ));
        out.push('\n');
    }
    out
}

/// Figure 5: runtime vs number of rows.
pub fn fig5(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut out = String::new();
    for kind in [DatasetKind::So, DatasetKind::Flights, DatasetKind::Forbes] {
        let dataset = cache.get(kind, scale);
        let query = queries_for(kind)[0].parsed();
        let opts = query_options(dataset, &query);
        let n = dataset.table.n_rows();
        let mut xs = Vec::new();
        let mut runs = Vec::new();
        for f in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let keep = ((n as f64) * f) as usize;
            let mut rows: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(0xF155);
            rows.shuffle(&mut rng);
            rows.truncate(keep);
            rows.sort_unstable();
            let sub = dataset.table.gather(&rows);
            runs.push(explain(dataset, &sub, &query, opts.clone()));
            xs.push(keep as f64);
        }
        out.push_str(&render_series(
            &format!("Figure 5 ({}): runtime [s] vs number of rows", dataset.name),
            "rows",
            &xs,
            &time_series(runs.iter()),
        ));
        out.push('\n');
    }
    out
}

/// Figure 6: runtime vs the bound `k` on the explanation size.
pub fn fig6(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut out = String::new();
    for kind in [DatasetKind::So, DatasetKind::Flights, DatasetKind::Forbes] {
        let dataset = cache.get(kind, scale);
        let query = queries_for(kind)[0].parsed();
        let ks = 1..=8usize;
        let runs: Vec<Explanation> = ks
            .clone()
            .map(|k| {
                let opts = NexusOptions {
                    max_explanation_size: k,
                    ..query_options(dataset, &query)
                };
                explain(dataset, &dataset.table, &query, opts)
            })
            .collect();
        let mut series = time_series(runs.iter());
        let sizes = runs.iter().map(|e| e.attributes.len() as f64).collect();
        series.insert(1, ("|explanation|", sizes));
        let xs: Vec<f64> = ks.map(|k| k as f64).collect();
        out.push_str(&render_series(
            &format!(
                "Figure 6 ({}): runtime [s] vs explanation-size bound k",
                dataset.name
            ),
            "k",
            &xs,
            &series,
        ));
        out.push('\n');
    }
    out
}

/// How to injure an attribute for the Figure 3 robustness experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Missing completely at random.
    Random,
    /// Remove the top values (biased, MNAR).
    Biased,
}

/// How the injured attributes are then handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handling {
    /// The system's approach: complete cases + selection-bias IPW.
    Ipw,
    /// Mean/mode imputation.
    Impute,
}

/// Injects missingness into the top-`n_attrs` most outcome-relevant
/// extracted candidates of a set (entity-level).
fn inject_into_set(
    set: &mut CandidateSet,
    engine: &Engine,
    fraction: f64,
    injection: Injection,
    handling: Handling,
    n_attrs: usize,
    seed: u64,
) {
    // Rank extracted candidates by relevance to O.
    let mut ranked: Vec<(usize, f64)> = (0..set.candidates.len())
        .filter(|&i| matches!(set.candidates[i].repr, CandidateRepr::EntityLevel { .. }))
        .map(|i| (i, engine.stats(set, i).relevance()))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let targets: Vec<usize> = ranked.iter().take(n_attrs).map(|&(i, _)| i).collect();

    let mut rng = StdRng::seed_from_u64(seed);
    for idx in targets {
        let CandidateRepr::EntityLevel {
            map, cardinality, ..
        } = &mut set.candidates[idx].repr
        else {
            continue;
        };
        let mut present: Vec<usize> = (0..map.len()).filter(|&e| map[e] != MISSING_CODE).collect();
        let k = ((present.len() as f64) * fraction).round() as usize;
        match injection {
            Injection::Random => present.shuffle(&mut rng),
            Injection::Biased => {
                // Highest codes first (bin codes are value-ordered).
                present.sort_by(|&a, &b| map[b].cmp(&map[a]));
            }
        }
        let removed: Vec<usize> = present.into_iter().take(k).collect();
        for &e in &removed {
            map[e] = MISSING_CODE;
        }
        if handling == Handling::Impute {
            // Mode imputation over the remaining values.
            let mut counts = vec![0usize; *cardinality as usize];
            for &v in map.iter() {
                if v != MISSING_CODE {
                    counts[v as usize] += 1;
                }
            }
            if let Some((mode, _)) = counts.iter().enumerate().max_by_key(|(_, &c)| c) {
                for v in map.iter_mut() {
                    if *v == MISSING_CODE {
                        *v = mode as u32;
                    }
                }
            }
        }
    }
}

/// Figure 3: explainability as a function of injected missing data, for SO
/// and Covid-19. Explanations are *selected* on the injured data and
/// *evaluated* on the clean data.
pub fn fig3(cache: &mut DatasetCache, scale: Scale) -> String {
    let fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
    let mut out = String::new();
    for kind in [DatasetKind::So, DatasetKind::Covid] {
        let dataset = cache.get(kind, scale);
        let benches = queries_for(kind);
        let mut series: Vec<(&str, Vec<f64>)> = vec![
            ("NEXUS (random)", Vec::new()),
            ("NEXUS (biased)", Vec::new()),
            ("Imputation (random)", Vec::new()),
            ("Imputation (biased)", Vec::new()),
        ];
        for &fraction in &fractions {
            let mut sums = [0.0f64; 4];
            for bench in &benches {
                let query = bench.parsed();
                let opts = query_options(dataset, &query);
                let clean = {
                    let mut set = build_candidates(
                        &dataset.table,
                        &dataset.kg,
                        &dataset.extraction_columns,
                        &query,
                        &opts,
                    )
                    .expect("candidates build");
                    prune_offline(&mut set, &opts);
                    set
                };
                let clean_engine = Engine::new(&clean);
                for (slot, (injection, handling)) in [
                    (Injection::Random, Handling::Ipw),
                    (Injection::Biased, Handling::Ipw),
                    (Injection::Random, Handling::Impute),
                    (Injection::Biased, Handling::Impute),
                ]
                .into_iter()
                .enumerate()
                {
                    let mut injured = clean.clone();
                    inject_into_set(
                        &mut injured,
                        &clean_engine,
                        fraction,
                        injection,
                        handling,
                        10,
                        0xF13 + slot as u64,
                    );
                    // The clean set was pruned offline before the injury.
                    let e = run_set(
                        injured,
                        NexusOptions {
                            offline_pruning: false,
                            handle_selection_bias: handling == Handling::Ipw,
                            ..opts.clone()
                        },
                    );
                    // Evaluate the chosen names on the clean data.
                    let clean_indices: Vec<usize> = e
                        .attributes
                        .iter()
                        .filter_map(|a| clean.index_of(&a.name))
                        .collect();
                    sums[slot] += clean_engine.cmi_given(&clean, &clean_indices);
                }
            }
            for (slot, s) in sums.iter().enumerate() {
                series[slot].1.push(s / benches.len() as f64);
            }
        }
        let xs: Vec<f64> = fractions.iter().map(|f| f * 100.0).collect();
        let series_refs: Vec<(&str, Vec<f64>)> =
            series.iter().map(|(n, v)| (*n, v.clone())).collect();
        out.push_str(&render_series(
            &format!(
                "Figure 3 ({}): avg explainability (lower = better) vs % injected missing values",
                dataset.name
            ),
            "% missing",
            &xs,
            &series_refs,
        ));
        out.push('\n');
    }
    out
}

/// Section 5.1: fraction of random queries for which the KG approach is
/// useful.
pub fn random_query_usefulness(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut t = TextTable::new(&["Dataset", "Queries", "Useful", "Rate"]);
    let mut total = 0usize;
    let mut useful_total = 0usize;
    for kind in DatasetKind::ALL {
        let dataset = cache.get(kind, scale);
        let queries = random_queries(dataset, 10, 0x5EC51 + kind as u64);
        let mut useful = 0usize;
        for query in &queries {
            let nexus = Nexus::new(query_options(dataset, query));
            let Ok(e) = nexus.explain(
                &dataset.table,
                &dataset.kg,
                &dataset.extraction_columns,
                query,
            ) else {
                continue;
            };
            let lowered = e.explained_cmi < e.initial_cmi - 1e-9;
            let has_extracted = e
                .attributes
                .iter()
                .any(|a| matches!(a.source, nexus_core::CandidateSource::Extracted { .. }));
            if lowered && has_extracted {
                useful += 1;
            }
        }
        t.row(vec![
            dataset.name.to_string(),
            queries.len().to_string(),
            useful.to_string(),
            format!("{:.1}%", 100.0 * useful as f64 / queries.len() as f64),
        ]);
        total += queries.len();
        useful_total += useful;
    }
    format!(
        "# Section 5.1: usefulness over {total} random queries (paper: 72.5%)\nOverall: {:.1}%\n{}",
        100.0 * useful_total as f64 / total.max(1) as f64,
        t.render()
    )
}

/// Section 5.2: missingness and selection-bias prevalence per dataset.
pub fn missing_stats(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "% missing (extracted)",
        "% attrs selection-biased",
    ]);
    for kind in DatasetKind::ALL {
        let dataset = cache.get(kind, scale);
        let query = queries_for(kind)[0].parsed();
        let opts = query_options(dataset, &query);
        let set = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &opts,
        )
        .expect("candidates build");
        let engine = Engine::new(&set);
        let mut missing_sum = 0.0;
        let mut n_extracted = 0usize;
        let mut n_biased = 0usize;
        for i in 0..set.candidates.len() {
            if let Some((mi_o, mi_t, missing)) = engine.bias_mi(&set, i) {
                n_extracted += 1;
                missing_sum += missing;
                if missing >= opts.bias_min_missing
                    && missing < 1.0
                    && (mi_o > opts.bias_mi_threshold || mi_t > opts.bias_mi_threshold)
                {
                    n_biased += 1;
                }
            }
        }
        t.row(vec![
            dataset.name.to_string(),
            format!("{:.1}%", 100.0 * missing_sum / n_extracted.max(1) as f64),
            format!(
                "{:.1}%",
                100.0 * n_biased as f64 / n_extracted.max(1) as f64
            ),
        ]);
    }
    format!(
        "# Section 5.2: missingness & selection-bias prevalence (paper: 37–73% / 13–29%)\n{}",
        t.render()
    )
}

/// Section 5.4: multi-hop extraction.
pub fn multihop(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut t = TextTable::new(&["Dataset", "Hops", "Candidates", "Explanation", "Time"]);
    for kind in [DatasetKind::So, DatasetKind::Forbes] {
        let dataset = cache.get(kind, scale);
        let query = queries_for(kind)[0].parsed();
        for hops in 1..=3usize {
            let opts = NexusOptions {
                hops,
                ..query_options(dataset, &query)
            };
            let e = explain(dataset, &dataset.table, &query, opts);
            t.row(vec![
                dataset.name.to_string(),
                hops.to_string(),
                e.stats.n_candidates_initial.to_string(),
                e.names().join(", "),
                format!("{:.2?}", e.stats.total()),
            ]);
        }
    }
    format!("# Section 5.4: multi-hop extraction\n{}", t.render())
}

/// Appendix: pruning statistics per dataset.
pub fn pruning_stats(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "Initial",
        "After offline",
        "After online",
        "% dropped offline",
        "% dropped online",
    ]);
    for kind in DatasetKind::ALL {
        let dataset = cache.get(kind, scale);
        let query = queries_for(kind)[0].parsed();
        let e = explain(
            dataset,
            &dataset.table,
            &query,
            query_options(dataset, &query),
        );
        let s = &e.stats;
        let off = s.n_candidates_initial - s.n_after_offline;
        let on = s.n_after_offline - s.n_after_online;
        t.row(vec![
            dataset.name.to_string(),
            s.n_candidates_initial.to_string(),
            s.n_after_offline.to_string(),
            s.n_after_online.to_string(),
            format!(
                "{:.1}%",
                100.0 * off as f64 / s.n_candidates_initial.max(1) as f64
            ),
            format!(
                "{:.1}%",
                100.0 * on as f64 / s.n_after_offline.max(1) as f64
            ),
        ]);
    }
    format!(
        "# Appendix: pruning statistics (paper offline: 41–73%)\n{}",
        t.render()
    )
}

/// One benchmark query per dataset, timed by stage — the headline
/// "interactive latency" claim (≤ 10 s on 5.8M rows). `Query-time` is
/// the paper's query latency; the stage columns sit beside it.
pub fn latency(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut header = vec!["Query", "Rows", "Candidates", "Query-time"];
    header.extend(&TIME_COLUMNS[1..]);
    header.push("Explanation");
    let mut t = TextTable::new(&header);
    for bench in nexus_datagen::BENCH_QUERIES {
        let dataset = cache.get(bench.dataset, scale);
        let query = bench.parsed();
        let e = explain(
            dataset,
            &dataset.table,
            &query,
            query_options(dataset, &query),
        );
        let mut row = vec![
            bench.id.to_string(),
            dataset.table.n_rows().to_string(),
            e.stats.n_candidates_initial.to_string(),
        ];
        row.extend(stage_times(&e.stats).map(|d| format!("{d:.2?}")));
        row.push(e.names().join(", "));
        t.row(row);
    }
    format!("# Query latency (paper: < 10 s per query)\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 4's three settings run through `Nexus::run_set`, prune as
    /// set, and print the query latency as the sum of its ledger stages.
    #[test]
    fn fig4_settings_run_through_run_set() {
        let mut cache = DatasetCache::new();
        let dataset = cache.get(DatasetKind::Covid, Scale::Small);
        let query = queries_for(DatasetKind::Covid)[0].parsed();
        let opts = query_options(dataset, &query);
        let full = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &opts,
        )
        .unwrap();
        let set = sample_candidates(&full, 60, 0xF164);
        for (name, offline, online) in FIG4_SERIES {
            let e = fig4_run(set.clone(), &opts, offline, online);
            let s = &e.stats;
            assert!(e.explained_cmi.is_finite(), "{name}");
            assert_eq!(s.n_candidates_initial, 60, "{name}");
            if !offline {
                assert_eq!(s.n_after_offline, s.n_candidates_initial, "{name}");
            }
            if !online {
                assert_eq!(s.n_after_online, s.n_after_offline, "{name}");
            }
            let stage = |n: &str| -> Duration {
                s.stages
                    .iter()
                    .filter(|span| span.name == n)
                    .map(|span| span.duration)
                    .sum()
            };
            let names: Vec<&str> = s.stages.iter().map(|span| span.name).collect();
            assert_eq!(names, ["prune-offline", "prune-online", "bias", "select"]);
            let times = stage_times(s);
            assert!(times[0].as_secs_f64() >= 0.0, "{name}");
            assert_eq!(
                times[0],
                stage("prune-online") + stage("bias") + stage("select")
            );
            for (column, t) in TIME_COLUMNS[1..].iter().zip(&times[1..]) {
                assert_eq!(*t, stage(column), "{name}: {column}");
            }
        }
    }

    #[test]
    fn candidate_sampling_respects_bound() {
        let mut cache = DatasetCache::new();
        let dataset = cache.get(DatasetKind::Covid, Scale::Small);
        let query = queries_for(DatasetKind::Covid)[0].parsed();
        let set = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &NexusOptions::default(),
        )
        .unwrap();
        let sampled = sample_candidates(&set, 20, 1);
        assert_eq!(sampled.candidates.len(), 20);
        let all = sample_candidates(&set, 10_000, 1);
        assert_eq!(all.candidates.len(), set.candidates.len());
    }

    #[test]
    fn injection_reduces_presence_and_imputation_restores() {
        let mut cache = DatasetCache::new();
        let dataset = cache.get(DatasetKind::Covid, Scale::Small);
        let query = queries_for(DatasetKind::Covid)[0].parsed();
        let set = build_candidates(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            &query,
            &NexusOptions::default(),
        )
        .unwrap();
        let engine = Engine::new(&set);
        let count_missing = |s: &CandidateSet| -> usize {
            s.candidates
                .iter()
                .map(|c| match &c.repr {
                    CandidateRepr::EntityLevel { map, .. } => {
                        map.iter().filter(|&&v| v == MISSING_CODE).count()
                    }
                    _ => 0,
                })
                .sum()
        };
        let before = count_missing(&set);
        let mut injured = set.clone();
        inject_into_set(
            &mut injured,
            &engine,
            0.5,
            Injection::Random,
            Handling::Ipw,
            10,
            1,
        );
        assert!(count_missing(&injured) > before);
        let mut imputed = set.clone();
        inject_into_set(
            &mut imputed,
            &engine,
            0.5,
            Injection::Random,
            Handling::Impute,
            10,
            1,
        );
        assert_eq!(
            count_missing(&imputed),
            before - count_imputed_originals(&set, &imputed)
        );
    }

    /// Entities missing in the original stay missing targets after mode
    /// imputation only if the whole attribute was empty; count the
    /// difference for the assertion above.
    fn count_imputed_originals(original: &CandidateSet, imputed: &CandidateSet) -> usize {
        original
            .candidates
            .iter()
            .zip(&imputed.candidates)
            .map(|(o, i)| match (&o.repr, &i.repr) {
                (
                    CandidateRepr::EntityLevel { map: mo, .. },
                    CandidateRepr::EntityLevel { map: mi, .. },
                ) => mo
                    .iter()
                    .zip(mi)
                    .filter(|(&a, &b)| a == MISSING_CODE && b != MISSING_CODE)
                    .count(),
                _ => 0,
            })
            .sum()
    }
}

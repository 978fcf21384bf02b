//! The user-study experiments: Table 1 (datasets), Table 2 (explanations),
//! Table 3 (judged scores), Figure 2 (distance from Brute-Force
//! explainability), and Table 4 (unexplained subgroups).

use std::collections::HashMap;

use nexus_core::{unexplained_subgroups, NexusOptions, SubgroupOptions};
use nexus_datagen::{queries_for, DatasetKind, Scale, BENCH_QUERIES};

use crate::report::{render_series, TextTable};
use crate::runner::{contexts_for, run_method, DatasetCache, MethodKind, MethodRun};
use crate::scoring::{judge, JudgeOptions, JudgedScore};

/// One benchmark query's results across all methods.
pub struct QueryResults {
    /// Query id (`"SO-Q1"`).
    pub id: &'static str,
    /// Dataset.
    pub dataset: DatasetKind,
    /// Per-method run + judged score.
    pub methods: HashMap<MethodKind, (MethodRun, JudgedScore)>,
}

/// Runs the full user study (all 14 queries × all 7 methods).
pub fn run_user_study(cache: &mut DatasetCache, scale: Scale) -> Vec<QueryResults> {
    let options = NexusOptions::default();
    let judge_options = JudgeOptions::default();
    let mut out = Vec::new();
    for kind in DatasetKind::ALL {
        let contexts = contexts_for(cache, kind, scale, &options);
        let dataset = cache.get(kind, scale);
        for (bench, ctx) in contexts {
            let mut methods = HashMap::new();
            for mk in MethodKind::ALL {
                let mut opts = options.clone();
                opts.excluded_columns = crate::runner::excluded_for(dataset, &ctx.query);
                let run = run_method(mk, &ctx, dataset, &opts);
                let score = judge(
                    &ctx.pruned.set,
                    &ctx.pruned.engine,
                    &run.names,
                    bench.ground_truth,
                    run.explainability,
                    &judge_options,
                );
                methods.insert(mk, (run, score));
            }
            out.push(QueryResults {
                id: bench.id,
                dataset: kind,
                methods,
            });
        }
    }
    out
}

/// Table 1: the dataset inventory.
pub fn table1(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "Dataset",
        "n",
        "|E| (extractable)",
        "Columns used for extraction",
    ]);
    for kind in DatasetKind::ALL {
        let d = cache.get(kind, scale);
        // Count extractable attributes the way Table 1 does: per extraction
        // column (entity class re-extracted per column).
        let mut total = 0usize;
        for col in &d.extraction_columns {
            let linker = nexus_kg::EntityLinker::new(&d.kg);
            let links = linker.link_dictionary(
                d.table.column(col).expect("column"),
                &nexus_runtime::ThreadPool::default(),
            );
            let ea = nexus_kg::extract(
                &d.kg,
                &links.entities(),
                &nexus_kg::ExtractOptions::default(),
            );
            total += ea.table.n_cols();
        }
        t.row(vec![
            d.name.to_string(),
            d.table.n_rows().to_string(),
            total.to_string(),
            d.extraction_columns.join(", "),
        ]);
    }
    format!("# Table 1: Examined datasets\n{}", t.render())
}

/// Table 2: the explanations produced by each method for each query.
pub fn table2(results: &[QueryResults]) -> String {
    let mut header = vec!["Dataset", "Query"];
    header.extend(MethodKind::ALL.iter().map(|m| m.name()));
    let mut t = TextTable::new(&header);
    for r in results {
        let mut row = vec![r.dataset.table_name().to_string(), r.id.to_string()];
        for mk in MethodKind::ALL {
            let names = &r.methods[&mk].0.names;
            row.push(if names.is_empty() {
                "-".to_string()
            } else {
                names
                    .iter()
                    .map(|n| n.rsplit("::").next().unwrap_or(n).to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            });
        }
        t.row(row);
    }
    format!(
        "# Table 2: Explanations per method (14 representative queries)\n{}",
        t.render()
    )
}

/// Table 3: average judged explanation scores per method.
pub fn table3(results: &[QueryResults]) -> String {
    let mut t = TextTable::new(&["Baseline", "Average Score", "Average Variance"]);
    let mut rows: Vec<(MethodKind, f64, f64)> = MethodKind::ALL
        .iter()
        .map(|&mk| {
            let scores: Vec<&JudgedScore> = results.iter().map(|r| &r.methods[&mk].1).collect();
            let mean = scores.iter().map(|s| s.mean).sum::<f64>() / scores.len() as f64;
            let var = scores.iter().map(|s| s.variance).sum::<f64>() / scores.len() as f64;
            (mk, mean, var)
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    for (mk, mean, var) in rows {
        t.row(vec![
            mk.name().to_string(),
            format!("{mean:.1}"),
            format!("{var:.1}"),
        ]);
    }
    format!(
        "# Table 3: Avg. explanation scores (simulated user study)\n{}",
        t.render()
    )
}

/// Figure 2: distance between each method's explainability score and
/// Brute-Force's, per query.
pub fn fig2(results: &[QueryResults]) -> String {
    let methods: Vec<MethodKind> = MethodKind::ALL
        .iter()
        .copied()
        .filter(|&m| m != MethodKind::BruteForce)
        .collect();
    let xs: Vec<f64> = (1..=results.len()).map(|i| i as f64).collect();
    let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
    for &mk in &methods {
        let ys: Vec<f64> = results
            .iter()
            .map(|r| {
                let bf = r.methods[&MethodKind::BruteForce].0.explainability;
                (r.methods[&mk].0.explainability - bf).max(0.0)
            })
            .collect();
        series.push((mk.name(), ys));
    }
    let mut out = render_series(
        "Figure 2: Distance from Brute-Force explainability scores (per query)",
        "query#",
        &xs,
        &series,
    );
    out.push_str("\nAverages:\n");
    let mut t = TextTable::new(&["Method", "Avg distance from Brute-Force"]);
    for (name, ys) in &series {
        let avg = ys.iter().sum::<f64>() / ys.len() as f64;
        t.row(vec![name.to_string(), format!("{avg:.4}")]);
    }
    out.push_str(&t.render());
    out.push_str("\nQuery key:\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!("  {} = {}\n", i + 1, r.id));
    }
    out
}

/// Table 4: top-5 unexplained subgroups for SO-Q1, under two scenarios:
/// the full explanation (which on this synthetic data covers Europe, so
/// nothing large stays unexplained) and the paper's scenario of an
/// explanation that misses the within-Europe signal (`k = 1`, i.e. HDI
/// only — the continents and the Currency == euro group emerge, as in the
/// paper's Table 4).
pub fn table4(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut out = String::new();
    for (label, k) in [("full explanation", 5usize), ("k = 1 (HDI only)", 1)] {
        let dataset = cache.get(DatasetKind::So, scale);
        let bench = queries_for(DatasetKind::So)[0];
        let query = bench.parsed();
        let opts = NexusOptions {
            excluded_columns: crate::runner::excluded_for(dataset, &query),
            max_explanation_size: k,
            ..NexusOptions::default()
        };
        let ctx = crate::runner::prepare(dataset, &query, &opts);
        let exclude: Vec<&str> = query
            .group_by
            .iter()
            .map(|s| s.as_str())
            .chain(query.outcome().map(|(_, o)| o))
            .collect();
        let t0 = std::time::Instant::now();
        let subgroups = unexplained_subgroups(
            &dataset.table,
            &ctx.pruned.set,
            &ctx.pruned.mcimr.selected,
            &exclude,
            &opts,
            &SubgroupOptions {
                k: 5,
                // Unexplained = markedly worse than the explanation does
                // globally: the paper's τ on top of the global residual.
                tau: ctx.pruned.mcimr.final_cmi + 0.15 * ctx.pruned.mcimr.initial_cmi.max(1.0),
                // Only groups large enough that the score is not
                // estimation noise (≥ 5% of the context).
                min_size: dataset.table.n_rows() / 20,
                ..SubgroupOptions::default()
            },
        )
        .expect("subgroup search runs");
        let elapsed = t0.elapsed();
        let mut t = TextTable::new(&["Rank", "Size", "Score", "Data group"]);
        for (i, s) in subgroups.iter().enumerate() {
            t.row(vec![
                (i + 1).to_string(),
                s.size.to_string(),
                format!("{:.3}", s.score),
                s.describe(),
            ]);
        }
        out.push_str(&format!(
            "# Table 4 ({label}): unexplained groups for SO Q1 (explanation: {:?}, search took {:.2?})\n{}{}\n",
            ctx.mesa_run.names,
            elapsed,
            t.render(),
            if subgroups.is_empty() {
                "(none — the explanation holds in every large subgroup)"
            } else {
                ""
            }
        ));
    }
    out
}

/// Sanity check of the query roster (exercised by tests).
pub fn n_benchmark_queries() -> usize {
    BENCH_QUERIES.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_datasets() {
        let mut cache = DatasetCache::new();
        let s = table1(&mut cache, Scale::Small);
        for name in ["SO", "Covid-19", "Flights", "Forbes"] {
            assert!(s.contains(name), "{s}");
        }
    }

    #[test]
    fn table4_finds_subgroups_on_small() {
        let mut cache = DatasetCache::new();
        let s = table4(&mut cache, Scale::Small);
        assert!(s.contains("Table 4"), "{s}");
        assert!(s.contains("Data group"));
    }

    #[test]
    fn roster_has_fourteen() {
        assert_eq!(n_benchmark_queries(), 14);
    }

    // The full user study on Small scale is exercised in the integration
    // tests (it is minutes of work, too slow for a unit test).
}

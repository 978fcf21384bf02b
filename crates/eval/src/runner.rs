//! Shared machinery: dataset caching, per-query artifacts, and a uniform
//! interface over MESA and every baseline.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use nexus_baselines::{
    BruteForce, CajadeBaseline, ExplainMethod, HypDbBaseline, LinearRegressionBaseline, TopK,
};
use nexus_core::{Nexus, NexusOptions, RunArtifacts};
use nexus_datagen::{load, BenchQuery, Dataset, DatasetKind, Scale};
use nexus_query::AggregateQuery;

/// Every method compared in the user-study experiments, in the paper's
/// Table 2 column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Exhaustive optimum (Def. 2.3).
    BruteForce,
    /// MESA without pruning.
    MesaMinus,
    /// The full system (MCIMR + pruning + IPW).
    Mesa,
    /// Individual-power ranking.
    TopK,
    /// OLS coefficients.
    Lr,
    /// HypDB-like causal greedy over a capped pool.
    HypDb,
    /// Outcome-blind pattern selection.
    Cajade,
}

impl MethodKind {
    /// All methods, Table 2 order.
    pub const ALL: [MethodKind; 7] = [
        MethodKind::BruteForce,
        MethodKind::MesaMinus,
        MethodKind::Mesa,
        MethodKind::TopK,
        MethodKind::Lr,
        MethodKind::HypDb,
        MethodKind::Cajade,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::BruteForce => "Brute-Force",
            MethodKind::MesaMinus => "MESA-",
            MethodKind::Mesa => "MESA",
            MethodKind::TopK => "Top-K",
            MethodKind::Lr => "LR",
            MethodKind::HypDb => "HypDB",
            MethodKind::Cajade => "CajaDE",
        }
    }
}

/// The outcome of running one method on one query.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// Selected attribute names.
    pub names: Vec<String>,
    /// Raw explainability score `I(O;T|C,E)` (lower is better).
    pub explainability: f64,
    /// Wall-clock selection time.
    pub runtime: Duration,
}

/// Pruned-pipeline artifacts for one query, shared by all post-pruning
/// methods, plus the separate unpruned artifacts for MESA-.
pub struct QueryContext {
    /// The query.
    pub query: AggregateQuery,
    /// Artifacts of the full (pruned) pipeline.
    pub pruned: RunArtifacts,
    /// Explanation of the full pipeline (the MESA run itself).
    pub mesa_run: MethodRun,
    /// The explanation object from the pipeline (responsibilities etc.).
    pub mesa_explanation: nexus_core::Explanation,
}

/// Prepares the shared artifacts for one query on a dataset.
pub fn prepare(dataset: &Dataset, query: &AggregateQuery, options: &NexusOptions) -> QueryContext {
    let nexus = Nexus::new(options.clone());
    let (explanation, artifacts) = nexus
        .explain_with_artifacts(
            &dataset.table,
            &dataset.kg,
            &dataset.extraction_columns,
            query,
        )
        .expect("pipeline runs on benchmark queries");
    let names = explanation.names().iter().map(|s| s.to_string()).collect();
    QueryContext {
        query: query.clone(),
        mesa_run: MethodRun {
            names,
            explainability: explanation.explained_cmi,
            runtime: explanation.stats.total(),
        },
        mesa_explanation: explanation,
        pruned: artifacts,
    }
}

/// Runs one method within a prepared context (for MESA- the dataset is
/// needed to rebuild unpruned artifacts).
pub fn run_method(
    kind: MethodKind,
    ctx: &QueryContext,
    dataset: &Dataset,
    options: &NexusOptions,
) -> MethodRun {
    match kind {
        MethodKind::Mesa => ctx.mesa_run.clone(),
        MethodKind::MesaMinus => {
            let opts = options.clone().without_pruning();
            let nexus = Nexus::new(opts);
            let e = nexus
                .explain(
                    &dataset.table,
                    &dataset.kg,
                    &dataset.extraction_columns,
                    &ctx.query,
                )
                .expect("pipeline runs");
            MethodRun {
                names: e.names().iter().map(|s| s.to_string()).collect(),
                explainability: e.explained_cmi,
                runtime: e.stats.total(),
            }
        }
        _ => {
            let set = &ctx.pruned.set;
            let engine = &ctx.pruned.engine;
            let method: Box<dyn ExplainMethod> = match kind {
                MethodKind::BruteForce => Box::new(BruteForce::default()),
                MethodKind::TopK => Box::new(TopK::default()),
                MethodKind::Lr => Box::new(LinearRegressionBaseline::default()),
                MethodKind::HypDb => Box::new(HypDbBaseline::default()),
                MethodKind::Cajade => Box::new(CajadeBaseline::default()),
                _ => unreachable!("handled above"),
            };
            let t0 = Instant::now();
            let picks = method.select(set, engine, options);
            let runtime = t0.elapsed();
            MethodRun {
                names: picks
                    .iter()
                    .map(|&i| set.candidates[i].name.clone())
                    .collect(),
                explainability: engine.cmi_given(set, &picks),
                runtime,
            }
        }
    }
}

/// A cache of generated datasets (generation is the expensive part).
#[derive(Default)]
pub struct DatasetCache {
    cache: HashMap<(DatasetKind, u8), Dataset>,
}

impl DatasetCache {
    /// An empty cache.
    pub fn new() -> DatasetCache {
        DatasetCache::default()
    }

    /// Gets (generating on first use) a dataset.
    pub fn get(&mut self, kind: DatasetKind, scale: Scale) -> &Dataset {
        let key = (kind, scale_tag(scale));
        self.cache.entry(key).or_insert_with(|| load(kind, scale))
    }
}

fn scale_tag(scale: Scale) -> u8 {
    match scale {
        Scale::Small => 0,
        Scale::Default => 1,
        Scale::Paper => 2,
    }
}

/// Convenience: the benchmark queries with their contexts for one dataset.
pub fn contexts_for(
    cache: &mut DatasetCache,
    kind: DatasetKind,
    scale: Scale,
    options: &NexusOptions,
) -> Vec<(&'static BenchQuery, QueryContext)> {
    // Generate dataset first (borrow ends), then prepare contexts.
    cache.get(kind, scale);
    let dataset = cache.get(kind, scale);
    nexus_datagen::queries_for(kind)
        .into_iter()
        .map(|q| {
            let mut opts = options.clone();
            opts.excluded_columns = excluded_for(dataset, &q.parsed());
            (q, prepare(dataset, &q.parsed(), &opts))
        })
        .collect()
}

/// Alternative outcome columns are never candidates (e.g. `Arrival_delay`
/// when explaining `Departure_delay` — a second measurement of the same
/// quantity, not a potential confounder).
pub fn excluded_for(dataset: &Dataset, query: &AggregateQuery) -> Vec<String> {
    let outcome = query.outcome().map(|(_, o)| o.to_string());
    dataset
        .outcome_columns
        .iter()
        .filter(|c| Some(c.as_str()) != outcome.as_deref())
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_kinds_cover_table2() {
        assert_eq!(MethodKind::ALL.len(), 7);
        assert_eq!(MethodKind::Mesa.name(), "MESA");
        assert_eq!(MethodKind::MesaMinus.name(), "MESA-");
    }

    #[test]
    fn prepare_and_run_all_methods_smoke() {
        let mut cache = DatasetCache::new();
        let dataset = cache.get(DatasetKind::Covid, Scale::Small);
        let q = nexus_datagen::queries_for(DatasetKind::Covid)[0].parsed();
        let options = NexusOptions {
            excluded_columns: excluded_for(dataset, &q),
            ..NexusOptions::default()
        };
        let ctx = prepare(dataset, &q, &options);
        assert!(!ctx.mesa_run.names.is_empty());
        for kind in MethodKind::ALL {
            let run = run_method(kind, &ctx, dataset, &options);
            // Every method terminates and reports a finite score.
            assert!(run.explainability.is_finite(), "{kind:?}");
        }
    }

    #[test]
    fn excluded_columns_cover_alt_outcomes() {
        let mut cache = DatasetCache::new();
        let dataset = cache.get(DatasetKind::Flights, Scale::Small);
        let q = nexus_datagen::queries_for(DatasetKind::Flights)[4].parsed();
        let excluded = excluded_for(dataset, &q);
        assert!(excluded.contains(&"Arrival_delay".to_string()));
        assert!(!excluded.contains(&"Departure_delay".to_string()));
    }
}

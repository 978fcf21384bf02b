//! The end-to-end NEXUS pipeline: query → candidates → pruning →
//! selection-bias handling → MCIMR → explanation.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use nexus_kg::KnowledgeGraph;
use nexus_missing::{FeatureMatrix, LogisticOptions, LogisticRegression};
use nexus_query::AggregateQuery;
use nexus_table::{Codes, Table};

use nexus_runtime::ThreadPool;

use crate::candidate::{
    assemble_candidates_on, build_candidates_on, BiasSummary, CandidateRepr, CandidateSet,
    CandidateSource, ColumnExtraction, MISSING_CODE,
};
use crate::control::RunControl;
use crate::engine::Engine;
use crate::error::{CoreError, Result};
use crate::mcimr::{mcimr_controlled, McimrResult};
use crate::options::NexusOptions;
use crate::prune::{prune_offline, prune_online, PruneReport};
use crate::responsibility::responsibilities;

/// One attribute of an explanation.
#[derive(Debug, Clone)]
pub struct SelectedAttribute {
    /// Candidate name (`"Country::hdi"` or `"Gender"`).
    pub name: String,
    /// Where the attribute came from.
    pub source: CandidateSource,
    /// Degree of responsibility (Definition 2.5).
    pub responsibility: f64,
    /// Whether IPW weights were applied when scoring this attribute.
    pub weighted: bool,
}

/// Counters and timings of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Candidates assembled before any pruning.
    pub n_candidates_initial: usize,
    /// Candidates after offline pruning.
    pub n_after_offline: usize,
    /// Candidates after online pruning.
    pub n_after_online: usize,
    /// Candidates flagged as selection-biased (and weighted).
    pub n_biased: usize,
    /// Per-extraction-column link statistics.
    pub link_stats: HashMap<String, nexus_kg::LinkStats>,
    /// Time to link + extract + assemble candidates.
    pub t_build: Duration,
    /// Time in the pruning passes.
    pub t_prune: Duration,
    /// Time in bias detection and weighting.
    pub t_bias: Duration,
    /// Time in MCIMR (the paper's reported query latency).
    pub t_mcimr: Duration,

    // ---- parallel execution ---------------------------------------------
    /// Worker threads the engine's pool ran with (1 = serial).
    pub threads: usize,
    /// Items mapped across all parallel regions of the run.
    pub pool_tasks: u64,
    /// Wall-clock time spent inside parallel regions.
    pub t_pool_wall: Duration,
    /// Summed per-worker busy time inside parallel regions.
    pub t_pool_busy: Duration,

    // ---- counting kernels -----------------------------------------------
    /// Counting-kernel counter movement attributable to this run
    /// (rows scanned, hash vs dense accumulator ops, build dispatch, and
    /// the permutation nulls' samples and shuffled values).
    ///
    /// The underlying counters are process-global, so concurrent runs in
    /// one process (e.g. a parallel test binary) can bleed into each
    /// other's delta; treat as diagnostics, not an exact ledger.
    pub kernel: nexus_info::KernelSnapshot,
}

impl PipelineStats {
    /// Total wall-clock time.
    pub fn total(&self) -> Duration {
        self.t_build + self.t_prune + self.t_bias + self.t_mcimr
    }

    /// Effective speedup realized by the parallel regions (busy time over
    /// wall time): ≈ 1 when serial, approaches [`PipelineStats::threads`]
    /// under perfect scaling.
    pub fn parallel_speedup(&self) -> f64 {
        if self.t_pool_wall.is_zero() {
            return 1.0;
        }
        self.t_pool_busy.as_secs_f64() / self.t_pool_wall.as_secs_f64()
    }
}

/// An explanation for an unexpected correlation.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The selected attributes, in selection order.
    pub attributes: Vec<SelectedAttribute>,
    /// `I(O;T|C)` — the correlation to explain.
    pub initial_cmi: f64,
    /// `I(O;T|C,E)` — the explainability score (lower is better).
    pub explained_cmi: f64,
    /// Whether the responsibility test stopped selection before `k`.
    pub stopped_by_responsibility: bool,
    /// Pipeline counters and timings.
    pub stats: PipelineStats,
}

impl Explanation {
    /// Names of the selected attributes.
    pub fn names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name.as_str()).collect()
    }

    /// Fraction of the initial correlation explained away (0 when the
    /// initial CMI is 0).
    pub fn explained_fraction(&self) -> f64 {
        if self.initial_cmi <= 0.0 {
            0.0
        } else {
            (1.0 - self.explained_cmi / self.initial_cmi).clamp(0.0, 1.0)
        }
    }
}

/// Artifacts of a pipeline run, for downstream analysis (subgroups,
/// baselines, experiments).
pub struct RunArtifacts {
    /// The pruned, possibly weighted candidate set.
    pub set: CandidateSet,
    /// The engine over that set.
    pub engine: Engine,
    /// The raw MCIMR result.
    pub mcimr: McimrResult,
    /// Pruning reports (offline, online).
    pub prune_reports: (PruneReport, PruneReport),
}

/// A typed description of one explanation task, consumed by
/// [`Nexus::run`].
///
/// Replaces the positional `(table, kg, extraction_columns, query)`
/// argument list of [`Nexus::explain`]: every input is named, the
/// knowledge source can be a borrowed [`KnowledgeGraph`] *or* an owned one
/// assembled from a data lake, and validation happens in one place.
///
/// ```
/// use nexus_core::{ExplainRequest, Nexus};
/// # use nexus_kg::KnowledgeGraph;
/// # use nexus_query::parse;
/// # use nexus_table::{Column, Table};
/// # let mut kg = KnowledgeGraph::new();
/// # let mut countries = Vec::new();
/// # let mut salaries = Vec::new();
/// # for c in 0..9 {
/// #     let name = format!("C{c}");
/// #     let id = kg.add_entity(name.clone(), "Country");
/// #     kg.set_literal(id, "hdi", (c % 3) as f64);
/// #     for i in 0..30 {
/// #         countries.push(name.clone());
/// #         salaries.push(10.0 * (c % 3) as f64 + (i % 2) as f64 * 0.1);
/// #     }
/// # }
/// # let table = Table::new(vec![
/// #     ("Country", Column::from_strs(&countries)),
/// #     ("Salary", Column::from_f64(salaries)),
/// # ]).unwrap();
/// # let query = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
/// let request = ExplainRequest::new()
///     .table(&table)
///     .knowledge_graph(&kg)
///     .extraction_column("Country")
///     .query(&query);
/// let explanation = Nexus::default().run(&request).unwrap();
/// assert!(explanation.names().contains(&"Country::hdi"));
/// ```
#[derive(Default)]
pub struct ExplainRequest<'a> {
    table: Option<&'a Table>,
    kg: Option<&'a KnowledgeGraph>,
    lake_kg: Option<KnowledgeGraph>,
    extraction_columns: Vec<String>,
    query: Option<&'a AggregateQuery>,
}

impl<'a> ExplainRequest<'a> {
    /// An empty request.
    pub fn new() -> Self {
        ExplainRequest::default()
    }

    /// The queried base table.
    pub fn table(mut self, table: &'a Table) -> Self {
        self.table = Some(table);
        self
    }

    /// The knowledge graph to mine candidate confounders from. Overrides a
    /// previous [`lake`](Self::lake) source.
    pub fn knowledge_graph(mut self, kg: &'a KnowledgeGraph) -> Self {
        self.kg = Some(kg);
        self.lake_kg = None;
        self
    }

    /// A knowledge source assembled from a data lake (or any other owned
    /// [`KnowledgeGraph`], e.g. `nexus_lake::DataLake::to_knowledge_graph`).
    /// Overrides a previous [`knowledge_graph`](Self::knowledge_graph)
    /// source.
    pub fn lake(mut self, kg: KnowledgeGraph) -> Self {
        self.lake_kg = Some(kg);
        self.kg = None;
        self
    }

    /// The base-table columns whose values are linked to KG entities
    /// (replaces any previously set list).
    pub fn extraction_columns<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.extraction_columns = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Adds one extraction column.
    pub fn extraction_column(mut self, column: impl Into<String>) -> Self {
        self.extraction_columns.push(column.into());
        self
    }

    /// The aggregate query whose correlation is to be explained.
    pub fn query(mut self, query: &'a AggregateQuery) -> Self {
        self.query = Some(query);
        self
    }

    /// Checks completeness and resolves the knowledge source.
    fn resolve(&self) -> Result<(&Table, &KnowledgeGraph, &[String], &AggregateQuery)> {
        let table = self
            .table
            .ok_or_else(|| CoreError::InvalidRequest("no table set".into()))?;
        let kg = self
            .kg
            .or(self.lake_kg.as_ref())
            .ok_or_else(|| CoreError::InvalidRequest("no knowledge source set".into()))?;
        let query = self
            .query
            .ok_or_else(|| CoreError::InvalidRequest("no query set".into()))?;
        if self.extraction_columns.is_empty() {
            return Err(CoreError::InvalidRequest(
                "no extraction columns set".into(),
            ));
        }
        Ok((table, kg, &self.extraction_columns, query))
    }
}

/// The NEXUS system facade.
#[derive(Debug, Clone, Default)]
pub struct Nexus {
    /// Pipeline configuration.
    pub options: NexusOptions,
}

impl Nexus {
    /// A system with the given options.
    pub fn new(options: NexusOptions) -> Nexus {
        Nexus { options }
    }

    /// Runs the pipeline on a typed [`ExplainRequest`].
    pub fn run(&self, request: &ExplainRequest<'_>) -> Result<Explanation> {
        self.run_with_artifacts(request).map(|(e, _)| e)
    }

    /// Like [`Nexus::run`] but also returns the run artifacts.
    pub fn run_with_artifacts(
        &self,
        request: &ExplainRequest<'_>,
    ) -> Result<(Explanation, RunArtifacts)> {
        let (table, kg, columns, query) = request.resolve()?;
        self.execute(table, kg, columns, query, RunControl::none())
    }

    /// Like [`Nexus::run_with_artifacts`] with a [`RunControl`] attached:
    /// abort checks, progress events, and (via
    /// [`RunControl::with_memo`]) sub-query memoization.
    pub fn run_controlled(
        &self,
        request: &ExplainRequest<'_>,
        ctl: RunControl<'_>,
    ) -> Result<(Explanation, RunArtifacts)> {
        let (table, kg, columns, query) = request.resolve()?;
        self.execute(table, kg, columns, query, ctl)
    }

    /// Explains the correlation exposed by `query` over `table`, mining
    /// candidate confounders from `kg` via `extraction_columns`.
    ///
    /// Positional predecessor of [`Nexus::run`]; prefer the
    /// [`ExplainRequest`] form in new code.
    pub fn explain(
        &self,
        table: &Table,
        kg: &KnowledgeGraph,
        extraction_columns: &[String],
        query: &AggregateQuery,
    ) -> Result<Explanation> {
        self.explain_with_artifacts(table, kg, extraction_columns, query)
            .map(|(e, _)| e)
    }

    /// Like [`Nexus::explain`] but also returns the run artifacts.
    ///
    /// Positional predecessor of [`Nexus::run_with_artifacts`]; prefer the
    /// [`ExplainRequest`] form in new code.
    pub fn explain_with_artifacts(
        &self,
        table: &Table,
        kg: &KnowledgeGraph,
        extraction_columns: &[String],
        query: &AggregateQuery,
    ) -> Result<(Explanation, RunArtifacts)> {
        self.execute(table, kg, extraction_columns, query, RunControl::none())
    }

    /// Runs the query-dependent pipeline stages over precomputed column
    /// extractions (see [`crate::candidate::extract_column`]).
    ///
    /// This is the resident-server entry point: linking and KG attribute
    /// mining — the dominant cost of candidate building — are amortized
    /// across requests by reusing [`ColumnExtraction`] artifacts, while
    /// pruning, bias weighting, and MCIMR still run per query. The result
    /// is bit-identical to [`Nexus::run`] on the same inputs.
    pub fn run_with_extractions(
        &self,
        table: &Table,
        extractions: &[&ColumnExtraction],
        query: &AggregateQuery,
    ) -> Result<(Explanation, RunArtifacts)> {
        self.run_with_extractions_controlled(table, extractions, query, RunControl::none())
    }

    /// [`Nexus::run_with_extractions`] with cooperative cancellation and
    /// progress streaming (see [`RunControl`]).
    ///
    /// The abort flag is polled at every stage boundary and once per
    /// MCIMR iteration; an aborted run returns
    /// [`CoreError::Aborted`] and
    /// produces no explanation. A run with `RunControl::none()` is
    /// bit-identical to the uncontrolled entry point.
    pub fn run_with_extractions_controlled(
        &self,
        table: &Table,
        extractions: &[&ColumnExtraction],
        query: &AggregateQuery,
        ctl: RunControl<'_>,
    ) -> Result<(Explanation, RunArtifacts)> {
        let t0 = Instant::now();
        ctl.check()?;
        ctl.stage("assemble");
        let pool = ThreadPool::new(self.options.parallelism);
        let set = assemble_candidates_on(table, extractions, query, &self.options, &pool)?;
        self.execute_set_controlled(set, pool, t0.elapsed(), ctl)
    }

    /// Builds the candidate set on a fresh pool for the run, then runs the
    /// pipeline over it on the same pool.
    fn execute(
        &self,
        table: &Table,
        kg: &KnowledgeGraph,
        extraction_columns: &[String],
        query: &AggregateQuery,
        ctl: RunControl<'_>,
    ) -> Result<(Explanation, RunArtifacts)> {
        let t0 = Instant::now();
        ctl.check()?;
        let pool = ThreadPool::new(self.options.parallelism);
        let set = build_candidates_on(table, kg, extraction_columns, query, &self.options, &pool)?;
        self.execute_set_controlled(set, pool, t0.elapsed(), ctl)
    }

    /// Pruning → bias weighting → MCIMR → responsibility over an assembled
    /// candidate set, with abort checks at every stage boundary and
    /// [`ProgressEvent::Stage`](crate::control::ProgressEvent::Stage)
    /// emissions as each stage begins. `pool` is the run's pool (the one
    /// the set was built on); `t_build` is the (possibly amortized) build
    /// time reported in the stats.
    fn execute_set_controlled(
        &self,
        mut set: CandidateSet,
        pool: ThreadPool,
        t_build: Duration,
        ctl: RunControl<'_>,
    ) -> Result<(Explanation, RunArtifacts)> {
        let options = &self.options;
        let n_initial = set.candidates.len();
        let kernel_before = nexus_info::kernel::counters().snapshot();

        let t0 = Instant::now();
        ctl.check()?;
        ctl.stage("prune-offline");
        let offline_report = if options.offline_pruning {
            prune_offline(&mut set, options)
        } else {
            PruneReport::default()
        };
        let n_after_offline = set.candidates.len();

        ctl.check()?;
        ctl.stage("prune-online");
        let engine = Engine::with_pool_memo(&set, pool, ctl.memo);
        let online_report = if options.online_pruning {
            prune_online(&mut set, &engine, options)
        } else {
            PruneReport::default()
        };
        let n_after_online = set.candidates.len();
        let t_prune = t0.elapsed();

        let t0 = Instant::now();
        ctl.check()?;
        ctl.stage("bias");
        let n_biased = if options.handle_selection_bias {
            apply_selection_bias_weights(&mut set, &engine, options)
        } else {
            0
        };
        let t_bias = t0.elapsed();

        let t0 = Instant::now();
        ctl.stage("select");
        let result = mcimr_controlled(&set, &engine, options, ctl)?;
        ctl.check()?;
        let resp = responsibilities(&set, &engine, &result.selected, result.final_cmi);
        let t_mcimr = t0.elapsed();

        let attributes: Vec<SelectedAttribute> = result
            .selected
            .iter()
            .zip(&resp)
            .map(|(&idx, &responsibility)| {
                let c = &set.candidates[idx];
                SelectedAttribute {
                    name: c.name.clone(),
                    source: c.source.clone(),
                    responsibility,
                    weighted: c.is_weighted(),
                }
            })
            .collect();

        let pool = engine.pool();
        let explanation = Explanation {
            attributes,
            initial_cmi: result.initial_cmi,
            explained_cmi: result.final_cmi,
            stopped_by_responsibility: result.stopped_by_responsibility,
            stats: PipelineStats {
                n_candidates_initial: n_initial,
                n_after_offline,
                n_after_online,
                n_biased,
                link_stats: set.link_stats.clone(),
                t_build,
                t_prune,
                t_bias,
                t_mcimr,
                threads: pool.threads(),
                pool_tasks: pool.metrics().tasks(),
                t_pool_wall: pool.metrics().wall(),
                t_pool_busy: pool.metrics().busy(),
                kernel: nexus_info::kernel::counters()
                    .snapshot()
                    .delta(&kernel_before),
            },
        };
        Ok((
            explanation,
            RunArtifacts {
                set,
                engine,
                mcimr: result,
                prune_reports: (offline_report, online_report),
            },
        ))
    }
}

/// Detects selection bias per extracted candidate and attaches entity-level
/// IPW weights (Section 3.2). Returns the number of weighted candidates.
///
/// The selection model `P(R_E = 1 | Z)` is a logistic regression fitted at
/// the **entity level** (missingness of an extracted attribute is an
/// entity-level event), with the column's well-observed sibling attributes
/// as covariates.
pub fn apply_selection_bias_weights(
    set: &mut CandidateSet,
    engine: &Engine,
    options: &NexusOptions,
) -> usize {
    // Collect the bias verdicts first (immutable pass, candidate-parallel;
    // flagged order follows candidate order because the pool returns
    // results by index).
    let verdicts: Vec<Option<(f64, f64, f64)>> = engine
        .pool()
        .map(set.candidates.len(), |idx| engine.bias_mi(set, idx));
    let mut flagged: Vec<(usize, BiasSummary)> = Vec::new();
    for (idx, verdict) in verdicts.into_iter().enumerate() {
        let Some((mi_o, mi_t, missing)) = verdict else {
            continue;
        };
        if missing < options.bias_min_missing || missing >= 1.0 {
            continue;
        }
        if mi_o > options.bias_mi_threshold || mi_t > options.bias_mi_threshold {
            flagged.push((
                idx,
                BiasSummary {
                    mi_with_outcome: mi_o,
                    mi_with_exposure: mi_t,
                    missing_fraction: missing,
                },
            ));
        }
    }

    // …then fit weights per flagged candidate.
    // Covariates per column: up to 6 well-observed sibling attributes.
    let mut covariates_by_column: HashMap<String, Vec<Codes>> = HashMap::new();
    for column in set.column_codes.keys() {
        let n_entities = set.column_codes[column].cardinality as usize;
        let mut covs: Vec<Codes> = Vec::new();
        for cand in &set.candidates {
            if covs.len() >= 6 {
                break;
            }
            if let CandidateRepr::EntityLevel {
                column: c,
                map,
                cardinality,
            } = &cand.repr
            {
                if c != column || *cardinality > 12 || *cardinality < 2 {
                    continue;
                }
                let present = map.iter().filter(|&&e| e != MISSING_CODE).count();
                if (present as f64) < 0.95 * n_entities as f64 {
                    continue;
                }
                covs.push(codes_from_map(map, *cardinality));
            }
        }
        covariates_by_column.insert(column.clone(), covs);
    }

    // Each flagged candidate's logistic fit is independent: compute all
    // weight vectors on the pool (immutable borrow of `set`), then attach
    // them serially.
    let fitted: Vec<Option<Vec<f64>>> = engine.pool().map(flagged.len(), |i| {
        let (idx, _) = flagged[i];
        let (column, map) = match &set.candidates[idx].repr {
            CandidateRepr::EntityLevel { column, map, .. } => (column, map),
            CandidateRepr::RowLevel(_) => return None,
        };
        let covs = &covariates_by_column[column];
        Some(if covs.is_empty() {
            // No covariates: fall back to uniform weights (no correction
            // possible, but the flag is still recorded).
            vec![1.0; map.len()]
        } else {
            fit_entity_weights(map, covs, engine.x_marginal(column))
        })
    });

    let n_flagged = flagged.len();
    for ((idx, summary), weights) in flagged.into_iter().zip(fitted) {
        let Some(weights) = weights else { continue };
        set.candidates[idx].entity_weights = Some(weights);
        set.candidates[idx].bias = Some(summary);
    }
    n_flagged
}

/// Entity-level codes from a candidate map (missing entries invalid).
fn codes_from_map(map: &[u32], cardinality: u32) -> Codes {
    let mut validity = nexus_table::Bitmap::with_value(map.len(), true);
    let mut codes = Vec::with_capacity(map.len());
    for (i, &e) in map.iter().enumerate() {
        if e == MISSING_CODE {
            codes.push(0);
            validity.set(i, false);
        } else {
            codes.push(e);
        }
    }
    Codes {
        codes,
        cardinality,
        validity: Some(validity),
    }
}

/// Fits `P(R=1 | covariates)` over entities and returns IPW weights per
/// entity, normalized to mean 1 over present entities (row-weighted by the
/// column's in-context row mass).
fn fit_entity_weights(map: &[u32], covs: &[Codes], x_marginal: Option<&[f64]>) -> Vec<f64> {
    let refs: Vec<&Codes> = covs.iter().collect();
    let x = FeatureMatrix::one_hot(&refs);
    let y: Vec<f64> = map
        .iter()
        .map(|&e| (e != MISSING_CODE) as u8 as f64)
        .collect();
    let model = LogisticRegression::fit(
        &x,
        &y,
        &LogisticOptions {
            iterations: 200,
            ..LogisticOptions::default()
        },
    );
    let probs = model.predict_all(&x);
    let marginal = y.iter().sum::<f64>() / y.len().max(1) as f64;
    let mut weights: Vec<f64> = map
        .iter()
        .zip(&probs)
        .map(|(&e, &p)| {
            if e == MISSING_CODE {
                0.0
            } else {
                marginal / p.max(0.02)
            }
        })
        .collect();
    // Normalize: mean weight 1 over present entities, weighted by row mass.
    let mass = |i: usize| x_marginal.map_or(1.0, |m| m.get(i).copied().unwrap_or(0.0));
    let mut wsum = 0.0;
    let mut msum = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            wsum += w * mass(i);
            msum += mass(i);
        }
    }
    if wsum > 0.0 && msum > 0.0 {
        let scale = msum / wsum;
        for w in &mut weights {
            *w *= scale;
        }
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_query::parse;
    use nexus_table::Column;

    /// Salary = f(hdi); hdi present everywhere; "rich_flag" present only for
    /// wealthy countries (MNAR) but informative where present; distractors.
    fn setup() -> (Table, KnowledgeGraph, Vec<String>) {
        let mut countries = Vec::new();
        let mut genders = Vec::new();
        let mut salaries = Vec::new();
        let mut kg = KnowledgeGraph::new();
        for c in 0..24 {
            let name = format!("C{c:02}");
            let hdi = (c % 4) as f64;
            let id = kg.add_entity(name.clone(), "Country");
            kg.set_literal(id, "hdi", hdi);
            kg.set_literal(id, "region", format!("R{}", c / 4));
            if hdi >= 2.0 {
                // Present only for wealthy countries (MNAR); relevant on its
                // support (it mirrors hdi there) so it survives pruning and
                // reaches the bias detector.
                kg.set_literal(id, "rich_flag", if hdi >= 3.0 { 1.0 } else { 0.0 });
            }
            let _ = &id;
            kg.set_literal(id, "kind", "country");
            kg.set_literal(id, "uid", format!("U{c}"));
            for i in 0..30 {
                countries.push(name.clone());
                genders.push(if i % 4 == 0 { "f" } else { "m" });
                salaries.push(15.0 * hdi + (i % 3) as f64 * 0.2);
            }
        }
        let table = Table::new(vec![
            ("Country", Column::from_strs(&countries)),
            ("Gender", Column::from_strs(&genders)),
            ("Salary", Column::from_f64(salaries)),
        ])
        .unwrap();
        (table, kg, vec!["Country".to_string()])
    }

    #[test]
    fn end_to_end_explanation() {
        let (table, kg, cols) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let nexus = Nexus::default();
        let e = nexus.explain(&table, &kg, &cols, &q).unwrap();
        assert!(e.initial_cmi > 0.5);
        assert!(e.names().contains(&"Country::hdi"), "{:?}", e.names());
        assert!(e.explained_fraction() > 0.7, "{e:?}");
        assert!(e.stats.n_candidates_initial > e.stats.n_after_offline);
        // Responsibilities sum to ~1 when attributes contribute.
        let s: f64 = e.attributes.iter().map(|a| a.responsibility).sum();
        assert!((s - 1.0).abs() < 1e-6 || e.attributes.len() == 1);
    }

    #[test]
    fn pruning_counters_decrease() {
        let (table, kg, cols) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let nexus = Nexus::default();
        let (e, artifacts) = nexus
            .explain_with_artifacts(&table, &kg, &cols, &q)
            .unwrap();
        assert!(e.stats.n_after_offline <= e.stats.n_candidates_initial);
        assert!(e.stats.n_after_online <= e.stats.n_after_offline);
        // kind (constant) and uid (identifier) must have been dropped.
        let (off, _) = &artifacts.prune_reports;
        let names: Vec<&str> = off.dropped.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"Country::kind"));
        assert!(names.contains(&"Country::uid"));
    }

    #[test]
    fn bias_detection_flags_mnar_attribute() {
        let (table, kg, cols) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let nexus = Nexus::default();
        let (_, artifacts) = nexus
            .explain_with_artifacts(&table, &kg, &cols, &q)
            .unwrap();
        let set = &artifacts.set;
        let rich = set.index_of("Country::rich_flag");
        // rich_flag is missing exactly where salary is low: MNAR.
        if let Some(idx) = rich {
            let cand = &set.candidates[idx];
            assert!(cand.is_weighted(), "rich_flag should be flagged");
            let bias = cand.bias.expect("bias summary");
            assert!(bias.missing_fraction > 0.3);
            assert!(bias.mi_with_outcome > 0.01);
        }
        assert!(artifacts.set.candidates.iter().any(|c| c.is_weighted()));
    }

    #[test]
    fn disabled_pruning_keeps_candidates() {
        let (table, kg, cols) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let nexus = Nexus::new(NexusOptions::default().without_pruning());
        let e = nexus.explain(&table, &kg, &cols, &q).unwrap();
        assert_eq!(e.stats.n_candidates_initial, e.stats.n_after_online);
        // Quality should not collapse without pruning (MESA- ≈ MESA).
        assert!(e.explained_fraction() > 0.7);
    }

    #[test]
    fn context_query_runs() {
        let (table, kg, cols) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t WHERE Gender = 'm' GROUP BY Country")
            .unwrap();
        let nexus = Nexus::default();
        let e = nexus.explain(&table, &kg, &cols, &q).unwrap();
        assert!(e.names().contains(&"Country::hdi"), "{:?}", e.names());
    }
}

//! The end-to-end NEXUS pipeline: query → candidates → pruning →
//! selection-bias handling → MCIMR → explanation.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use nexus_info::KernelSnapshot;
use nexus_kg::KnowledgeGraph;
use nexus_missing::{FeatureMatrix, LogisticOptions, LogisticRegression};
use nexus_query::AggregateQuery;
use nexus_table::{Codes, Fnv64, Table};

use nexus_runtime::ThreadPool;

use crate::candidate::{
    assemble_candidates_on, build_candidates_on, BiasSummary, CandidateRepr, CandidateSet,
    CandidateSource, ColumnExtraction, MISSING_CODE,
};
use crate::control::RunControl;
use crate::engine::Engine;
use crate::error::{CoreError, Result};
use crate::mcimr::{mcimr_controlled, McimrResult};
use crate::memo::codes_fingerprint;
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

/// One entry of a run's stage ledger ([`PipelineStats::stages`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name: `build` or `assemble`, then `prune-offline`,
    /// `prune-online`, `bias`, `select`.
    pub name: &'static str,
    /// Wall-clock time from this stage's start to the next one's.
    pub duration: Duration,
    /// Counting-kernel counter movement over the same interval.
    pub kernel: KernelSnapshot,
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
    /// The stage ledger, in run order. First the candidate build: `build`
    /// (link + extract + assemble) from scratch, `assemble` over
    /// precomputed extractions, or none for [`Nexus::run_set`]'s prebuilt
    /// set. Then `prune-offline`, `prune-online` (the engine's
    /// contingency build and the online pass), `bias` (detection and
    /// weighting) and `select` (MCIMR with the responsibility test). Each
    /// stage runs until the next one starts, so the durations sum to
    /// [`PipelineStats::total`]. The paper's query latency is
    /// `prune-online` + `bias` + `select`: it counts offline pruning as
    /// preprocessing, like the candidate build.
    pub stages: Vec<StageSpan>,

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
    /// Counting-kernel counter movement of the run after the candidate
    /// build (rows scanned, hash vs dense accumulator ops, build dispatch,
    /// and the permutation nulls' samples and shuffled values): the sum of
    /// the [`stages`](PipelineStats::stages)' deltas from `prune-offline`
    /// on.
    ///
    /// The underlying counters are process-global, so concurrent runs in
    /// one process (e.g. a parallel test binary) can bleed into each
    /// other's delta; treat as diagnostics, not an exact ledger.
    pub kernel: nexus_info::KernelSnapshot,
}

impl PipelineStats {
    /// Total wall-clock time: the sum of the stage durations.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|s| s.duration).sum()
    }

    /// Time in the stages named `names` (zero for a name the ledger lacks).
    pub fn stage_time(&self, names: &[&str]) -> Duration {
        self.stages
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.duration)
            .sum()
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
    /// extractions (see [`crate::candidate::extract_column`]), with
    /// cooperative cancellation and progress streaming (see
    /// [`RunControl`]).
    ///
    /// This is the resident-server entry point: linking and KG attribute
    /// mining — the dominant cost of candidate building — are amortized
    /// across requests by reusing [`ColumnExtraction`] artifacts, while
    /// pruning, bias weighting, and MCIMR still run per query. The result
    /// is bit-identical to [`Nexus::run`] on the same inputs.
    ///
    /// The abort flag is polled at every stage boundary and once per
    /// MCIMR iteration; an aborted run returns [`CoreError::Aborted`] and
    /// produces no explanation. A run with `RunControl::none()` is
    /// bit-identical to an uncontrolled run.
    pub fn run_with_extractions_controlled(
        &self,
        table: &Table,
        extractions: &[&ColumnExtraction],
        query: &AggregateQuery,
        ctl: RunControl<'_>,
    ) -> Result<(Explanation, RunArtifacts)> {
        let mut ledger = Ledger::default();
        ledger.enter(&ctl, "assemble")?;
        let pool = ThreadPool::new(self.options.parallelism);
        let set = assemble_candidates_on(table, extractions, query, &self.options, &pool)?;
        self.execute_set_controlled(set, pool, ledger, ctl)
    }

    /// Runs the pipeline from `prune-offline` on over a prebuilt candidate
    /// set, on a fresh pool for the options' parallelism, with the same
    /// stage ledger, abort checks and progress events as [`Nexus::run`].
    /// The ledger starts at `prune-offline`, so
    /// [`PipelineStats::kernel`] covers every stage. A set that was
    /// already pruned offline runs with `offline_pruning` off.
    pub fn run_set(
        &self,
        set: CandidateSet,
        ctl: RunControl<'_>,
    ) -> Result<(Explanation, RunArtifacts)> {
        let pool = ThreadPool::new(self.options.parallelism);
        self.execute_set_controlled(set, pool, Ledger::default(), ctl)
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
        ctl.check()?;
        let mut ledger = Ledger::default();
        ledger.open("build");
        let pool = ThreadPool::new(self.options.parallelism);
        let set = build_candidates_on(table, kg, extraction_columns, query, &self.options, &pool)?;
        self.execute_set_controlled(set, pool, ledger, ctl)
    }

    /// Pruning → bias weighting → MCIMR → responsibility over an assembled
    /// candidate set, with abort checks at every stage boundary and
    /// [`ProgressEvent::Stage`](crate::control::ProgressEvent::Stage)
    /// emissions as each stage begins. `pool` is the run's pool (the one
    /// the set was built on); `ledger` holds the open build stage, if the
    /// run built the set.
    fn execute_set_controlled(
        &self,
        mut set: CandidateSet,
        pool: ThreadPool,
        mut ledger: Ledger,
        ctl: RunControl<'_>,
    ) -> Result<(Explanation, RunArtifacts)> {
        let options = &self.options;
        let n_initial = set.candidates.len();

        ledger.enter(&ctl, "prune-offline")?;
        let offline_report = if options.offline_pruning {
            prune_offline(&mut set, options)
        } else {
            PruneReport::default()
        };
        let n_after_offline = set.candidates.len();

        ledger.enter(&ctl, "prune-online")?;
        let engine = Engine::with_pool_memo(&set, pool, ctl.memo.map(|memo| (memo, options)));
        let online_report = if options.online_pruning {
            prune_online(&mut set, &engine, options)
        } else {
            PruneReport::default()
        };
        let n_after_online = set.candidates.len();

        ledger.enter(&ctl, "bias")?;
        let n_biased = if options.handle_selection_bias {
            apply_selection_bias_weights(&mut set, &engine, options)
        } else {
            0
        };

        ledger.enter(&ctl, "select")?;
        let result = mcimr_controlled(&set, &engine, options, ctl)?;
        ctl.check()?;
        let resp = responsibilities(&set, &engine, &result.selected, result.final_cmi);
        let (stages, kernel) = ledger.close();

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
                stages,
                threads: pool.threads(),
                pool_tasks: pool.metrics().tasks(),
                t_pool_wall: pool.metrics().wall(),
                t_pool_busy: pool.metrics().busy(),
                kernel,
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

/// The stage ledger under construction: a clock reading and the kernel
/// counters at every stage boundary. One reading both closes a stage and
/// opens the next, so the spans' durations and counter deltas telescope
/// to the whole run's.
#[derive(Default)]
struct Ledger {
    marks: Vec<(&'static str, Instant, KernelSnapshot)>,
}

impl Ledger {
    /// Opens `stage` unannounced, closing the stage before it (if any).
    fn open(&mut self, stage: &'static str) {
        let snap = nexus_info::kernel::counters().snapshot();
        self.marks.push((stage, Instant::now(), snap));
    }

    /// A stage boundary: polls the abort flag, announces `stage` to the
    /// progress sink and opens it in the ledger.
    fn enter(&mut self, ctl: &RunControl<'_>, stage: &'static str) -> Result<()> {
        ctl.check()?;
        ctl.stage(stage);
        self.open(stage);
        Ok(())
    }

    /// Closes the last stage. Returns the spans and the post-build window
    /// (every stage from `prune-offline` on).
    fn close(mut self) -> (Vec<StageSpan>, KernelSnapshot) {
        // The end mark: its name never reaches a span.
        self.open("");
        let spans = self
            .marks
            .windows(2)
            .map(|w| StageSpan {
                name: w[0].0,
                duration: w[1].1 - w[0].1,
                kernel: w[1].2.delta(&w[0].2),
            })
            .collect();
        let first = self
            .marks
            .iter()
            .find(|m| m.0 == "prune-offline")
            .expect("every run enters prune-offline");
        let last = &self.marks[self.marks.len() - 1];
        (spans, last.2.delta(&first.2))
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
    // Covariates per column: up to 6 well-observed sibling attributes, and
    // a fingerprint of the chosen maps for the weights' memo key.
    let mut covariates_by_column: HashMap<String, (Vec<Codes>, u64)> = HashMap::new();
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
        let mut h = Fnv64::new();
        h.write_u64(covs.len() as u64);
        for cov in &covs {
            h.write_u64(codes_fingerprint(cov));
        }
        covariates_by_column.insert(column.clone(), (covs, h.finish()));
    }

    // Each flagged candidate's logistic fit is independent: fetch or fit
    // all weight vectors on the pool (immutable borrow of `set`), then
    // attach them serially.
    let fitted: Vec<Option<Vec<f64>>> = engine.pool().map(flagged.len(), |i| {
        let (idx, _) = flagged[i];
        let (column, map) = match &set.candidates[idx].repr {
            CandidateRepr::EntityLevel { column, map, .. } => (column, map),
            CandidateRepr::RowLevel(_) => return None,
        };
        let (covs, covs_fp) = &covariates_by_column[column];
        let weights = engine.ipw_weights(set, idx, *covs_fp, || {
            if covs.is_empty() {
                // No covariates: fall back to uniform weights (no
                // correction possible, but the flag is still recorded).
                vec![1.0; map.len()]
            } else {
                fit_entity_weights(map, covs, engine.x_marginal(column))
            }
        });
        Some(weights.as_ref().clone())
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
    nexus_info::kernel::counters().record_ipw_fit();
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
    use crate::candidate::build_candidates;
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

    /// The field-by-field sum of kernel snapshots.
    fn kernel_sum<'a>(spans: impl Iterator<Item = &'a StageSpan>) -> KernelSnapshot {
        spans.fold(KernelSnapshot::default(), |a, s| {
            let k = &s.kernel;
            KernelSnapshot {
                rows_scanned: a.rows_scanned + k.rows_scanned,
                hash_ops: a.hash_ops + k.hash_ops,
                dense_ops: a.dense_ops + k.dense_ops,
                dense_builds: a.dense_builds + k.dense_builds,
                sparse_builds: a.sparse_builds + k.sparse_builds,
                packed_words_skipped: a.packed_words_skipped + k.packed_words_skipped,
                permutations: a.permutations + k.permutations,
                perm_rows: a.perm_rows + k.perm_rows,
                calib_samples: a.calib_samples + k.calib_samples,
                ipw_fits: a.ipw_fits + k.ipw_fits,
            }
        })
    }

    /// Runs the three entry points (from scratch, over extractions, over
    /// a prebuilt set) with a progress sink; returns each run's stats and
    /// the stage events it announced.
    fn ledger_runs() -> Vec<(PipelineStats, Vec<&'static str>)> {
        let (table, kg, cols) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let nexus = Nexus::default();
        let extraction =
            crate::candidate::extract_column(&table, &kg, &cols[0], &nexus.options).unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &nexus.options).unwrap();
        let mut runs = Vec::new();
        for entry in 0..3 {
            let seen = std::sync::Mutex::new(Vec::new());
            let sink = |e: crate::control::ProgressEvent| {
                if let crate::control::ProgressEvent::Stage { stage } = e {
                    seen.lock().unwrap().push(stage);
                }
            };
            let ctl = RunControl {
                progress: Some(&sink),
                ..RunControl::none()
            };
            let (e, _) = match entry {
                0 => nexus.execute(&table, &kg, &cols, &q, ctl),
                1 => nexus.run_with_extractions_controlled(&table, &[&extraction], &q, ctl),
                _ => nexus.run_set(set.clone(), ctl),
            }
            .unwrap();
            runs.push((e.stats, seen.into_inner().unwrap()));
        }
        runs
    }

    #[test]
    fn stage_ledger_covers_the_run() {
        let runs = ledger_runs();
        for (stats, _) in &runs {
            let names: Vec<&str> = stats.stages.iter().map(|s| s.name).collect();
            // A run that built its set opens with the build stage.
            let built = names.len() - 4;
            assert_eq!(
                names[built..],
                ["prune-offline", "prune-online", "bias", "select"]
            );
            let durations: Duration = stats.stages.iter().map(|s| s.duration).sum();
            assert_eq!(durations, stats.total());
            // The post-build deltas telescope to the run's kernel window
            // exactly, whatever other threads count meanwhile.
            assert_eq!(kernel_sum(stats.stages[built..].iter()), stats.kernel);
            assert_eq!(
                stats.stage_time(&["prune-offline", "prune-online"]),
                stats.stages[built].duration + stats.stages[built + 1].duration
            );
        }
        assert_eq!(runs[0].0.stages[0].name, "build");
        assert_eq!(runs[1].0.stages[0].name, "assemble");
        // Over a prebuilt set, every stage is after candidate
        // construction: the kernel window is the whole ledger.
        assert_eq!(runs[2].0.stages[0].name, "prune-offline");
        assert_eq!(kernel_sum(runs[2].0.stages.iter()), runs[2].0.kernel);
        assert!(
            runs[0].0.stages[4].kernel.dense_builds + runs[0].0.stages[4].kernel.sparse_builds > 0
        );
    }

    /// [`Nexus::run_set`] against the hand-assembled sequence it runs, bit
    /// for bit: at serial and 2 threads, with offline pruning, online
    /// pruning and IPW each on and off.
    #[test]
    fn run_set_matches_the_hand_assembled_pipeline() {
        use crate::mcimr::mcimr;
        use nexus_runtime::Parallelism;

        let (table, kg, cols) = setup();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let built = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for parallelism in [Parallelism::Serial, Parallelism::Fixed(2)] {
            for switches in 0..8u8 {
                let options = NexusOptions {
                    parallelism,
                    offline_pruning: switches & 1 != 0,
                    online_pruning: switches & 2 != 0,
                    handle_selection_bias: switches & 4 != 0,
                    ..NexusOptions::default()
                };
                let what = format!("{parallelism:?}, {switches:03b}");

                let mut set = built.clone();
                if options.offline_pruning {
                    prune_offline(&mut set, &options);
                }
                let engine = Engine::with_parallelism(&set, options.parallelism);
                if options.online_pruning {
                    prune_online(&mut set, &engine, &options);
                }
                let n_biased = if options.handle_selection_bias {
                    apply_selection_bias_weights(&mut set, &engine, &options)
                } else {
                    0
                };
                let reference = mcimr(&set, &engine, &options);
                let resp =
                    responsibilities(&set, &engine, &reference.selected, reference.final_cmi);
                let names: Vec<&str> = reference
                    .selected
                    .iter()
                    .map(|&i| set.candidates[i].name.as_str())
                    .collect();

                let (e, artifacts) = Nexus::new(options.clone())
                    .run_set(built.clone(), RunControl::none())
                    .unwrap();
                assert_eq!(
                    e.initial_cmi.to_bits(),
                    reference.initial_cmi.to_bits(),
                    "{what}"
                );
                assert_eq!(
                    e.explained_cmi.to_bits(),
                    reference.final_cmi.to_bits(),
                    "{what}"
                );
                assert_eq!(artifacts.mcimr.selected, reference.selected, "{what}");
                assert_eq!(e.names(), names, "{what}");
                let got: Vec<f64> = e.attributes.iter().map(|a| a.responsibility).collect();
                assert_eq!(bits(&got), bits(&resp), "{what}");
                assert_eq!(e.stats.n_biased, n_biased, "{what}");
                assert_eq!(e.stats.n_after_online, set.candidates.len(), "{what}");
                assert!(!names.is_empty(), "{what}: the fixture explains nothing");
                assert_eq!(n_biased > 0, options.handle_selection_bias, "{what}");
            }
        }
    }

    #[test]
    fn stage_events_are_unchanged_by_the_ledger() {
        let runs = ledger_runs();
        // The from-scratch build stays unannounced; the extraction path
        // announces its assembly.
        assert_eq!(
            runs[0].1,
            ["prune-offline", "prune-online", "bias", "select"]
        );
        assert_eq!(
            runs[1].1,
            [
                "assemble",
                "prune-offline",
                "prune-online",
                "bias",
                "select"
            ]
        );
        assert_eq!(runs[2].1, runs[0].1);
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

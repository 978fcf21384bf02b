//! Configuration of the NEXUS pipeline.
//!
//! These are *result-affecting* knobs: every field except `parallelism`
//! enters the options fingerprint that keys the server's result cache.
//! Operational server tunables that cannot change an explanation —
//! connection caps, I/O deadlines, drain budgets — deliberately live in
//! `nexus_serve::ServerOptions` instead, so governance can be retuned
//! without invalidating cached results.

use nexus_info::CiTestOptions;
use nexus_kg::OneToManyAgg;
use nexus_runtime::Parallelism;
use nexus_table::BinStrategy;

use crate::error::CoreError;

/// All tunables of the explanation pipeline, with paper-faithful defaults.
#[derive(Debug, Clone)]
pub struct NexusOptions {
    /// Base-table columns never to consider as candidates (e.g. alternative
    /// measurements of the same outcome, like `Arrival_delay` when
    /// explaining `Departure_delay`).
    pub excluded_columns: Vec<String>,
    /// Upper bound `k` on the explanation size (the paper uses 5).
    pub max_explanation_size: usize,
    /// Binning of the (numeric) outcome attribute.
    pub outcome_bins: BinStrategy,
    /// Binning of numeric attributes extracted from the knowledge graph
    /// (over entity values), of the numeric columns of a multi-column
    /// exposure, and of numeric columns in the unexplained-subgroups
    /// search.
    ///
    /// Numeric *base-table* candidates do not use it: they are binned with
    /// [`outcome_bins`](NexusOptions::outcome_bins) over the context rows.
    /// Both default to `Quantile(6)`, so no default output shows the
    /// difference; aligning them belongs to the versioned estimator change
    /// of ROADMAP item 2.
    pub candidate_bins: BinStrategy,
    /// KG extraction hops (the paper defaults to 1).
    pub hops: usize,
    /// Aggregation for one-to-many KG links.
    pub one_to_many: OneToManyAgg,

    // ---- pruning --------------------------------------------------------
    /// Run the offline (query-independent) pruning pass.
    pub offline_pruning: bool,
    /// Run the online (query-specific) pruning pass.
    pub online_pruning: bool,
    /// Offline: drop attributes with more than this fraction missing
    /// (the paper uses 90%).
    pub max_missing_fraction: f64,
    /// Offline: drop categorical attributes whose distinct-value ratio
    /// exceeds this (wikiID-style identifiers).
    pub high_entropy_ratio: f64,
    /// Offline: an extracted attribute that is near-injective **on its
    /// observed entities** (distinct codes / present entities above this
    /// ratio) acts as an identifier of the exposure on its complete-case
    /// support — conditioning on it zeroes the CMI vacuously. Applies only
    /// when the extraction column has at least
    /// [`NexusOptions::min_entities_for_identifier_test`] entities.
    pub entity_identifier_ratio: f64,
    /// Minimum entity count before the entity-identifier test applies.
    pub min_entities_for_identifier_test: usize,
    /// Online: tolerance (bits) for the approximate-FD logical-dependency
    /// test.
    pub fd_epsilon: f64,
    /// Online: minimum individual relevance (bits of `I(O;E|C)` or
    /// `I(O;E|T,C)`) for a candidate to survive.
    pub relevance_epsilon: f64,
    /// Online: a **row-level** candidate whose relevance exceeds this
    /// fraction of `H(O)` is an alias/mediator of the outcome (it varies
    /// with `O` within exposure groups and "explains" the correlation
    /// tautologically) and is dropped.
    pub outcome_alias_fraction: f64,

    // ---- missing data ---------------------------------------------------
    /// Detect selection bias and apply IPW weights where needed.
    pub handle_selection_bias: bool,
    /// MI threshold (bits) above which a missingness indicator counts as
    /// associated with the outcome/exposure.
    pub bias_mi_threshold: f64,
    /// Minimum missing fraction for an attribute to be bias-checked at all.
    pub bias_min_missing: f64,

    // ---- estimation validity ---------------------------------------------
    /// Minimum fraction of the in-context rows a candidate's complete-case
    /// support must cover to be selectable (by MCIMR *and* every baseline).
    /// A complete-case CMI computed on a small, entity-selected sub-support
    /// is not comparable to one computed on the full context — an attribute
    /// observed for a handful of entities explains the correlation
    /// vacuously there. This is an estimator-validity precondition, not a
    /// pruning optimization, so it also applies when pruning is disabled.
    pub min_support_fraction: f64,
    /// Minimum complete-case rows per candidate category: a candidate whose
    /// support has fewer than this many rows per distinct value overfits the
    /// plug-in estimator beyond what Miller–Madow can correct (the tiny
    /// Covid-19 table is the motivating case).
    pub min_rows_per_category: f64,
    /// Minimum in-context entities per candidate category for extracted
    /// attributes (vacuity guard: an attribute that partitions the queried
    /// entities into near-singleton groups identifies the exposure rather
    /// than explaining it). Skipped when the extraction column has fewer
    /// than 16 in-context entities (e.g. continents, airlines), where the
    /// paper's own explanations are equally coarse.
    pub min_entities_per_category: f64,

    // ---- stopping -------------------------------------------------------
    /// Configuration of the responsibility (conditional-independence) test.
    pub ci: CiTestOptions,
    /// Minimum relative CMI improvement a new attribute must deliver; the
    /// greedy loop stops below it (backstop to the responsibility test).
    pub min_improvement: f64,

    // ---- execution ------------------------------------------------------
    /// Worker threads for the candidate-parallel pipeline stages (online
    /// pruning, bias detection, MCIMR scoring). Results are bit-identical
    /// at any setting — parallel reductions are ordered by candidate
    /// index — so this is purely a throughput knob.
    pub parallelism: Parallelism,
}

impl Default for NexusOptions {
    fn default() -> Self {
        NexusOptions {
            excluded_columns: Vec::new(),
            max_explanation_size: 5,
            outcome_bins: BinStrategy::Quantile(6),
            candidate_bins: BinStrategy::Quantile(6),
            hops: 1,
            one_to_many: OneToManyAgg::Mean,
            offline_pruning: true,
            online_pruning: true,
            max_missing_fraction: 0.9,
            high_entropy_ratio: 0.95,
            entity_identifier_ratio: 0.55,
            min_entities_for_identifier_test: 16,
            fd_epsilon: 0.03,
            relevance_epsilon: 0.01,
            outcome_alias_fraction: 0.35,
            handle_selection_bias: true,
            bias_mi_threshold: 0.01,
            bias_min_missing: 0.01,
            min_support_fraction: 0.5,
            min_rows_per_category: 5.0,
            min_entities_per_category: 4.5,
            ci: CiTestOptions::default(),
            min_improvement: 0.02,
            parallelism: Parallelism::Auto,
        }
    }
}

impl NexusOptions {
    /// A validating builder over the paper-faithful defaults.
    ///
    /// ```
    /// use nexus_core::{NexusOptions, Parallelism};
    ///
    /// let options = NexusOptions::builder()
    ///     .max_explanation_size(3)
    ///     .threads(4)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(options.max_explanation_size, 3);
    /// assert_eq!(options.parallelism, Parallelism::Fixed(4));
    /// assert!(NexusOptions::builder().hops(0).build().is_err());
    /// ```
    pub fn builder() -> NexusOptionsBuilder {
        NexusOptionsBuilder {
            options: NexusOptions::default(),
        }
    }

    /// An options preset with every pruning optimization disabled — the
    /// paper's **MESA-** baseline and the Figure 4 "No Pruning" series.
    pub fn without_pruning(mut self) -> Self {
        self.offline_pruning = false;
        self.online_pruning = false;
        self
    }

    /// Offline pruning only — the Figure 4 "Offline Pruning" series.
    pub fn offline_only(mut self) -> Self {
        self.offline_pruning = true;
        self.online_pruning = false;
        self
    }

    /// Deterministic digest of every option that can influence the
    /// *content* of an explanation. The resident explanation server uses
    /// this as the options component of its cache key.
    ///
    /// [`parallelism`](NexusOptions::parallelism) is deliberately excluded:
    /// the runtime guarantees bit-identical results at any thread count, so
    /// two runs differing only in pool width must share a cache entry.
    pub fn fingerprint(&self) -> u64 {
        let mut h = nexus_table::Fnv64::new();
        h.write_u64(self.excluded_columns.len() as u64);
        for c in &self.excluded_columns {
            h.write_str(c);
        }
        h.write_u64(self.max_explanation_size as u64);
        for bins in [self.outcome_bins, self.candidate_bins] {
            match bins {
                BinStrategy::EqualWidth(n) => {
                    h.write_u8(1);
                    h.write_u64(n as u64);
                }
                BinStrategy::Quantile(n) => {
                    h.write_u8(2);
                    h.write_u64(n as u64);
                }
            }
        }
        h.write_u64(self.hops as u64);
        h.write_u8(match self.one_to_many {
            OneToManyAgg::Mean => 1,
            OneToManyAgg::Sum => 2,
            OneToManyAgg::Max => 3,
            OneToManyAgg::Min => 4,
            OneToManyAgg::First => 5,
        });
        h.write_bool(self.offline_pruning);
        h.write_bool(self.online_pruning);
        h.write_f64(self.max_missing_fraction);
        h.write_f64(self.high_entropy_ratio);
        h.write_f64(self.entity_identifier_ratio);
        h.write_u64(self.min_entities_for_identifier_test as u64);
        h.write_f64(self.fd_epsilon);
        h.write_f64(self.relevance_epsilon);
        h.write_f64(self.outcome_alias_fraction);
        h.write_bool(self.handle_selection_bias);
        h.write_f64(self.bias_mi_threshold);
        h.write_f64(self.bias_min_missing);
        h.write_f64(self.min_support_fraction);
        h.write_f64(self.min_rows_per_category);
        h.write_f64(self.min_entities_per_category);
        h.write_u64(self.ci.n_permutations as u64);
        h.write_f64(self.ci.alpha);
        h.write_u64(self.ci.seed);
        h.write_f64(self.ci.cmi_shortcut);
        h.write_f64(self.min_improvement);
        h.finish()
    }
}

/// Builder for [`NexusOptions`] with range validation at
/// [`build`](NexusOptionsBuilder::build) time.
///
/// Only the commonly tuned knobs have setters; everything else keeps its
/// paper default and remains reachable through the public fields of the
/// built value.
#[derive(Debug, Clone)]
pub struct NexusOptionsBuilder {
    options: NexusOptions,
}

impl NexusOptionsBuilder {
    /// Base-table columns never to consider as candidates.
    pub fn excluded_columns<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.options.excluded_columns = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Upper bound `k` on the explanation size.
    pub fn max_explanation_size(mut self, k: usize) -> Self {
        self.options.max_explanation_size = k;
        self
    }

    /// KG extraction hops.
    pub fn hops(mut self, hops: usize) -> Self {
        self.options.hops = hops;
        self
    }

    /// Aggregation for one-to-many KG links.
    pub fn one_to_many(mut self, agg: OneToManyAgg) -> Self {
        self.options.one_to_many = agg;
        self
    }

    /// Toggle the offline (query-independent) pruning pass.
    pub fn offline_pruning(mut self, on: bool) -> Self {
        self.options.offline_pruning = on;
        self
    }

    /// Toggle the online (query-specific) pruning pass.
    pub fn online_pruning(mut self, on: bool) -> Self {
        self.options.online_pruning = on;
        self
    }

    /// Offline: maximum missing fraction an attribute may have.
    pub fn max_missing_fraction(mut self, fraction: f64) -> Self {
        self.options.max_missing_fraction = fraction;
        self
    }

    /// Toggle selection-bias detection and IPW weighting.
    pub fn handle_selection_bias(mut self, on: bool) -> Self {
        self.options.handle_selection_bias = on;
        self
    }

    /// Minimum relative CMI improvement before the greedy loop stops.
    pub fn min_improvement(mut self, fraction: f64) -> Self {
        self.options.min_improvement = fraction;
        self
    }

    /// Worker threads for the candidate-parallel stages.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.options.parallelism = parallelism;
        self
    }

    /// Shorthand for [`parallelism`](Self::parallelism): `0` means
    /// [`Parallelism::Auto`], `1` [`Parallelism::Serial`], anything else
    /// [`Parallelism::Fixed`].
    pub fn threads(self, n: usize) -> Self {
        self.parallelism(match n {
            0 => Parallelism::Auto,
            1 => Parallelism::Serial,
            n => Parallelism::Fixed(n),
        })
    }

    /// Validates and returns the options.
    pub fn build(self) -> Result<NexusOptions, CoreError> {
        let o = self.options;
        if !(0.0..=1.0).contains(&o.max_missing_fraction) {
            return Err(CoreError::InvalidOptions(format!(
                "max_missing_fraction must be in [0, 1], got {}",
                o.max_missing_fraction
            )));
        }
        if o.hops < 1 {
            return Err(CoreError::InvalidOptions("hops must be at least 1".into()));
        }
        if o.max_explanation_size < 1 {
            return Err(CoreError::InvalidOptions(
                "max_explanation_size must be at least 1".into(),
            ));
        }
        if !o.min_improvement.is_finite() || o.min_improvement < 0.0 {
            return Err(CoreError::InvalidOptions(format!(
                "min_improvement must be finite and non-negative, got {}",
                o.min_improvement
            )));
        }
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = NexusOptions::default();
        assert_eq!(o.max_explanation_size, 5);
        assert_eq!(o.hops, 1);
        assert!(o.offline_pruning && o.online_pruning);
        assert!((o.max_missing_fraction - 0.9).abs() < 1e-12);
    }

    #[test]
    fn presets() {
        let o = NexusOptions::default().without_pruning();
        assert!(!o.offline_pruning && !o.online_pruning);
        let o = NexusOptions::default().offline_only();
        assert!(o.offline_pruning && !o.online_pruning);
    }

    #[test]
    fn builder_accepts_valid_settings() {
        let o = NexusOptions::builder()
            .excluded_columns(["Arrival_delay"])
            .max_explanation_size(3)
            .hops(2)
            .max_missing_fraction(0.5)
            .offline_pruning(false)
            .online_pruning(false)
            .handle_selection_bias(false)
            .min_improvement(0.1)
            .threads(4)
            .build()
            .unwrap();
        assert_eq!(o.excluded_columns, vec!["Arrival_delay".to_string()]);
        assert_eq!(o.max_explanation_size, 3);
        assert_eq!(o.hops, 2);
        assert!(!o.offline_pruning && !o.online_pruning && !o.handle_selection_bias);
        assert_eq!(o.parallelism, Parallelism::Fixed(4));
    }

    #[test]
    fn fingerprint_ignores_parallelism_but_tracks_knobs() {
        let base = NexusOptions::default().fingerprint();
        let wide = NexusOptions {
            parallelism: Parallelism::Fixed(8),
            ..NexusOptions::default()
        };
        assert_eq!(base, wide.fingerprint(), "thread count must share a key");
        assert_ne!(
            base,
            NexusOptions::default().without_pruning().fingerprint()
        );
        let k3 = NexusOptions {
            max_explanation_size: 3,
            ..NexusOptions::default()
        };
        assert_ne!(base, k3.fingerprint());
        let excl = NexusOptions {
            excluded_columns: vec!["Arrival_delay".into()],
            ..NexusOptions::default()
        };
        assert_ne!(base, excl.fingerprint());
    }

    #[test]
    fn builder_threads_shorthand() {
        let auto = NexusOptions::builder().threads(0).build().unwrap();
        assert_eq!(auto.parallelism, Parallelism::Auto);
        let serial = NexusOptions::builder().threads(1).build().unwrap();
        assert_eq!(serial.parallelism, Parallelism::Serial);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        assert!(NexusOptions::builder()
            .max_missing_fraction(1.5)
            .build()
            .is_err());
        assert!(NexusOptions::builder()
            .max_missing_fraction(-0.1)
            .build()
            .is_err());
        assert!(NexusOptions::builder().hops(0).build().is_err());
        assert!(NexusOptions::builder()
            .max_explanation_size(0)
            .build()
            .is_err());
        assert!(NexusOptions::builder()
            .min_improvement(f64::NAN)
            .build()
            .is_err());
        assert!(NexusOptions::builder()
            .min_improvement(-0.5)
            .build()
            .is_err());
    }
}

//! Ablations of the design choices DESIGN.md calls out: the Min-Redundancy
//! criterion (Eq. 5), permutation calibration, Miller–Madow correction, and
//! IPW selection-bias handling. Each variant swaps exactly one ingredient
//! of the selection loop; quality is measured against the planted ground
//! truth over the 14 benchmark queries. The loops run over the set and
//! engine of a full pipeline run: one with IPW for every variant but
//! `- IPW`, one without it for that one.

use nexus_core::{CandidateSet, Engine, NexusOptions, RunArtifacts};
use nexus_datagen::{Scale, BENCH_QUERIES};

use crate::report::TextTable;
use crate::runner::{excluded_for, prepare, DatasetCache};

/// A selection-loop variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// The full configuration.
    Full,
    /// Greedy Min-CMI without the redundancy term (Eq. 5 → Eq. 2 only).
    NoRedundancy,
    /// Raw Miller–Madow CMI without permutation calibration.
    NoCalibration,
    /// Plug-in CMI (no Miller–Madow, no calibration).
    PlugIn,
    /// Calibrated scores but selection-bias IPW disabled.
    NoIpw,
}

impl Ablation {
    /// All variants.
    pub const ALL: [Ablation; 5] = [
        Ablation::Full,
        Ablation::NoRedundancy,
        Ablation::NoCalibration,
        Ablation::PlugIn,
        Ablation::NoIpw,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Ablation::Full => "full",
            Ablation::NoRedundancy => "- redundancy",
            Ablation::NoCalibration => "- calibration",
            Ablation::PlugIn => "- calibration - MM",
            Ablation::NoIpw => "- IPW",
        }
    }
}

/// Greedy selection with the variant's scoring.
fn greedy_select(
    set: &CandidateSet,
    engine: &Engine,
    options: &NexusOptions,
    ablation: Ablation,
) -> Vec<usize> {
    let v1 = |idx: usize| -> f64 {
        match ablation {
            Ablation::Full | Ablation::NoRedundancy | Ablation::NoIpw => {
                engine.cmi_single(set, idx)
            }
            Ablation::NoCalibration => engine.cmi_single_raw(set, idx),
            Ablation::PlugIn => engine.stats(set, idx).cmi_plugin(),
        }
    };
    let use_redundancy = ablation != Ablation::NoRedundancy;
    let mut selected: Vec<usize> = Vec::new();
    let mut last = engine.baseline_cmi();
    for _ in 0..options.max_explanation_size {
        let mut best: Option<(usize, f64)> = None;
        for idx in 0..set.candidates.len() {
            if selected.contains(&idx) || !engine.eligible(set, idx, options) {
                continue;
            }
            let mut score = v1(idx);
            if use_redundancy && !selected.is_empty() {
                score += selected
                    .iter()
                    .map(|&s| engine.mi_pair(set, idx, s))
                    .sum::<f64>()
                    / selected.len() as f64;
            }
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((idx, score));
            }
        }
        let Some((idx, _)) = best else { break };
        let mut trial = selected.clone();
        trial.push(idx);
        let cmi = engine.cmi_given(set, &trial);
        if last - cmi < options.min_improvement * engine.baseline_cmi().max(1e-9)
            && !selected.is_empty()
        {
            break;
        }
        selected = trial;
        last = cmi;
    }
    selected
}

/// One variant's quality sums over the benchmark queries.
#[derive(Default)]
struct Tally {
    precision: f64,
    explained: f64,
    size: usize,
    empties: usize,
}

impl Tally {
    /// Scores `ablation`'s picks over one query's pipeline artifacts.
    fn add(
        &mut self,
        run: &RunArtifacts,
        options: &NexusOptions,
        ablation: Ablation,
        truth: &[&str],
    ) {
        let (set, engine) = (&run.set, &run.engine);
        let picks = greedy_select(set, engine, options, ablation);
        if picks.is_empty() {
            self.empties += 1;
            return;
        }
        let hits = picks
            .iter()
            .filter(|&&i| truth.contains(&set.candidates[i].name.as_str()))
            .count();
        self.precision += hits as f64 / picks.len() as f64;
        let final_cmi = engine.cmi_given(set, &picks);
        let baseline = engine.baseline_cmi();
        if baseline > 0.0 {
            self.explained += (1.0 - final_cmi / baseline).clamp(0.0, 1.0);
        }
        self.size += picks.len();
    }
}

/// Runs the ablation grid over the 14 benchmark queries.
pub fn ablations(cache: &mut DatasetCache, scale: Scale) -> String {
    let mut tallies: Vec<Tally> = Ablation::ALL.iter().map(|_| Tally::default()).collect();
    for bench in BENCH_QUERIES {
        let dataset = cache.get(bench.dataset, scale);
        let query = bench.parsed();
        let options = NexusOptions {
            excluded_columns: excluded_for(dataset, &query),
            ..NexusOptions::default()
        };
        let without = NexusOptions {
            handle_selection_bias: false,
            ..options.clone()
        };
        let with_ipw = prepare(dataset, &query, &options).pruned;
        let without_ipw = prepare(dataset, &query, &without).pruned;
        for (ablation, tally) in Ablation::ALL.into_iter().zip(&mut tallies) {
            let run = if ablation == Ablation::NoIpw {
                &without_ipw
            } else {
                &with_ipw
            };
            tally.add(run, &options, ablation, bench.ground_truth);
        }
    }
    let n = BENCH_QUERIES.len().max(1) as f64;
    let mut t = TextTable::new(&[
        "Variant",
        "GT precision",
        "Explained fraction",
        "Avg |E|",
        "Empty",
    ]);
    for (ablation, tally) in Ablation::ALL.iter().zip(&tallies) {
        t.row(vec![
            ablation.name().to_string(),
            format!("{:.2}", tally.precision / n),
            format!("{:.2}", tally.explained / n),
            format!("{:.1}", tally.size as f64 / n),
            tally.empties.to_string(),
        ]);
    }
    format!(
        "# Ablations of the selection-loop design choices (14 queries)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_datagen::DatasetKind;

    #[test]
    fn variant_names_unique() {
        let names: std::collections::HashSet<&str> =
            Ablation::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), Ablation::ALL.len());
    }

    #[test]
    fn greedy_select_smoke() {
        let mut cache = DatasetCache::new();
        let dataset = cache.get(DatasetKind::Covid, Scale::Small);
        let bench = nexus_datagen::queries_for(DatasetKind::Covid)[0];
        let query = bench.parsed();
        let options = NexusOptions {
            excluded_columns: excluded_for(dataset, &query),
            ..NexusOptions::default()
        };
        let run = prepare(dataset, &query, &options).pruned;
        for ablation in Ablation::ALL {
            let picks = greedy_select(&run.set, &run.engine, &options, ablation);
            assert!(picks.len() <= options.max_explanation_size, "{ablation:?}");
        }
    }
}

//! A HypDB-like baseline (Salimi et al., SIGMOD 2018): confounder detection
//! via causal analysis over the input attributes.
//!
//! The paper reports two properties we reproduce: explanation quality close
//! behind MESA's, and running time exponential in the number of candidate
//! attributes — which forces the same mitigation the paper used: *the
//! candidate pool is capped at 50 attributes, dropped uniformly at random*.
//! Good attributes randomly excluded from the pool are exactly why its
//! explanations trail MESA's in the user study.
//!
//! Selection itself is an exhaustive-flavored greedy over the capped pool
//! on the raw (uncalibrated) plug-in CMI, ranked by responsibility —
//! mirroring HypDB's top-k-by-responsibility output.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nexus_core::{responsibilities, CandidateSet, Engine, NexusOptions};

use crate::method::{eligible_indices, ExplainMethod};

/// HypDB-style covariate detection.
#[derive(Debug, Clone)]
pub struct HypDbBaseline {
    /// Random cap on the candidate pool (the paper used 50).
    pub max_attrs: usize,
    /// Maximum explanation size.
    pub k: usize,
    /// RNG seed for the random pool drop.
    pub seed: u64,
}

impl Default for HypDbBaseline {
    fn default() -> Self {
        HypDbBaseline {
            max_attrs: 50,
            k: 3,
            seed: 0x47_5db,
        }
    }
}

impl ExplainMethod for HypDbBaseline {
    fn name(&self) -> &'static str {
        "HypDB"
    }

    fn select(&self, set: &CandidateSet, engine: &Engine, options: &NexusOptions) -> Vec<usize> {
        let mut pool = eligible_indices(set, engine, options);
        // The paper's mitigation: drop uniformly at random to ≤ max_attrs.
        if pool.len() > self.max_attrs {
            let mut rng = StdRng::seed_from_u64(self.seed);
            pool.shuffle(&mut rng);
            pool.truncate(self.max_attrs);
        }
        if pool.is_empty() {
            return Vec::new();
        }

        // Greedy covariate detection on the raw estimator.
        let mut selected: Vec<usize> = Vec::new();
        let mut last = engine.baseline_cmi();
        for _ in 0..self.k {
            let mut best: Option<(usize, f64)> = None;
            for &cand in &pool {
                if selected.contains(&cand) {
                    continue;
                }
                let mut trial = selected.clone();
                trial.push(cand);
                let cmi = engine.cmi_given(set, &trial);
                if best.is_none_or(|(_, b)| cmi < b) {
                    best = Some((cand, cmi));
                }
            }
            let Some((cand, cmi)) = best else { break };
            // Require a real improvement (HypDB's independence-test gate).
            if last - cmi < 0.02 * engine.baseline_cmi().max(1e-9) {
                break;
            }
            selected.push(cand);
            last = cmi;
        }

        // Rank by responsibility, as HypDB reports its covariates.
        // `last` is `cmi_given(selected)`, the explanation's full CMI.
        let resp = responsibilities(set, engine, &selected, last);
        let mut order: Vec<(usize, f64)> = selected.into_iter().zip(resp).collect();
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        order.into_iter().map(|(i, _)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::testkit::fixture;

    #[test]
    fn finds_confounders_with_large_pool_budget() {
        let (set, engine, options) = fixture();
        let picks = HypDbBaseline::default().select(&set, &engine, &options);
        let names: Vec<&str> = picks
            .iter()
            .map(|&i| set.candidates[i].name.as_str())
            .collect();
        assert!(names.iter().any(|n| n.contains("hdi")), "{names:?}");
    }

    #[test]
    fn random_cap_can_exclude_good_attributes() {
        let (set, engine, options) = fixture();
        // With a pool of 1, HypDB keeps whatever the random drop leaves.
        let picks = HypDbBaseline {
            max_attrs: 1,
            ..HypDbBaseline::default()
        }
        .select(&set, &engine, &options);
        assert!(picks.len() <= 1);
    }

    #[test]
    fn responsibility_orders_output() {
        let (set, engine, options) = fixture();
        let picks = HypDbBaseline::default().select(&set, &engine, &options);
        if picks.len() >= 2 {
            let resp = responsibilities(&set, &engine, &picks, engine.cmi_given(&set, &picks));
            // Output must be sorted by responsibility descending… but the
            // responsibilities call reorders relative to the pick order, so
            // just confirm the first pick is the strongest contributor.
            let first = resp[0];
            assert!(resp.iter().all(|&r| r <= first + 1e-9), "{resp:?}");
        }
    }
}

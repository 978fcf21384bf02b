//! Degree of responsibility (Definition 2.5): the normalized individual
//! contribution of each attribute in an explanation.

use crate::candidate::CandidateSet;
use crate::engine::Engine;

/// Responsibility of each attribute in `selected`.
///
/// `Resp(Eᵢ) = (I(O;T|E∖{Eᵢ},C) − I(O;T|E,C)) / Σⱼ (…)`, per Def. 2.5. An
/// attribute that only harms the explanation gets a negative score. With a
/// single attribute the responsibility is 1 (or 0 when the attribute does
/// not move the CMI at all).
///
/// `full` is `I(O;T|E,C)` for the whole of `selected`, exactly as
/// [`Engine::cmi_given`] computes it. Selection already holds that value
/// (MCIMR returns it as `final_cmi`), so it is passed in, not recounted.
pub fn responsibilities(
    set: &CandidateSet,
    engine: &Engine,
    selected: &[usize],
    full: f64,
) -> Vec<f64> {
    if selected.is_empty() {
        return Vec::new();
    }
    let contributions: Vec<f64> = (0..selected.len())
        .map(|i| {
            let without: Vec<usize> = selected
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, &s)| s)
                .collect();
            engine.cmi_given(set, &without) - full
        })
        .collect();
    let denom: f64 = contributions.iter().sum();
    if denom.abs() < 1e-12 {
        return vec![0.0; selected.len()];
    }
    contributions.iter().map(|c| c / denom).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::build_candidates;
    use crate::options::NexusOptions;
    use nexus_kg::KnowledgeGraph;
    use nexus_query::parse;
    use nexus_table::{Column, Table};

    /// hdi dominates, gini contributes, dud contributes nothing.
    fn setup() -> (CandidateSet, Engine) {
        let mut countries = Vec::new();
        let mut salaries = Vec::new();
        let mut kg = KnowledgeGraph::new();
        for c in 0..12 {
            let name = format!("C{c:02}");
            let hdi = (c % 4) as f64;
            let gini = (c / 4) as f64;
            let id = kg.add_entity(name.clone(), "Country");
            kg.set_literal(id, "hdi", hdi);
            kg.set_literal(id, "gini", gini);
            // A function of hdi: contributes nothing once hdi is selected.
            kg.set_literal(id, "dud", ((c % 4) / 2) as f64);
            for i in 0..25 {
                countries.push(name.clone());
                salaries.push(20.0 * hdi - 6.0 * gini + (i % 2) as f64 * 0.1);
            }
        }
        let table = Table::new(vec![
            ("Country", Column::from_strs(&countries)),
            ("Salary", Column::from_f64(salaries)),
        ])
        .unwrap();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(
            &table,
            &kg,
            &["Country".to_string()],
            &q,
            &NexusOptions::default(),
        )
        .unwrap();
        let engine = Engine::new(&set);
        (set, engine)
    }

    #[test]
    fn sums_to_one_when_all_contribute() {
        let (set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let gini = set.index_of("Country::gini").unwrap();
        let r = responsibilities(
            &set,
            &engine,
            &[hdi, gini],
            engine.cmi_given(&set, &[hdi, gini]),
        );
        assert_eq!(r.len(), 2);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(r[0] > 0.0 && r[1] > 0.0);
        // hdi is the stronger explainer.
        assert!(r[0] > r[1], "{r:?}");
    }

    #[test]
    fn single_attribute_gets_full_responsibility() {
        let (set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let r = responsibilities(&set, &engine, &[hdi], engine.cmi_given(&set, &[hdi]));
        assert_eq!(r.len(), 1);
        assert!((r[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn useless_attribute_gets_lowest_share() {
        let (set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let gini = set.index_of("Country::gini").unwrap();
        let dud = set.index_of("Country::dud").unwrap();
        let r = responsibilities(
            &set,
            &engine,
            &[hdi, gini, dud],
            engine.cmi_given(&set, &[hdi, gini, dud]),
        );
        // The dud contributes the least (possibly ≤ 0, Example 2.6).
        assert!(r[2] <= r[0] && r[2] <= r[1], "{r:?}");
    }

    #[test]
    fn empty_selection() {
        let (set, engine) = setup();
        assert!(responsibilities(&set, &engine, &[], engine.baseline_cmi()).is_empty());
    }
}

//! The MCIMR algorithm (Algorithm 1): greedy attribute selection by
//! Min-Conditional-mutual-Information + Min-Redundancy, with the
//! responsibility test (Lemma 4.2) as the stopping criterion.

use nexus_info::{ci_test, InfoContext};
use nexus_table::Codes;

use crate::candidate::CandidateSet;
use crate::control::{ProgressEvent, RunControl};
use crate::engine::Engine;
use crate::error::Result;
use crate::options::NexusOptions;

/// One greedy iteration's bookkeeping.
#[derive(Debug, Clone)]
pub struct IterationTrace {
    /// Index (into the candidate set) of the chosen attribute.
    pub chosen: usize,
    /// Name of the chosen attribute.
    pub name: String,
    /// Its Min-CMI criterion value `I(O;T|C,E)`.
    pub v1: f64,
    /// Its mean redundancy with previously selected attributes.
    pub v2: f64,
    /// `I(O;T|C, E₁..Eᵢ)` after adding it.
    pub cmi_after: f64,
}

/// The result of running MCIMR.
#[derive(Debug, Clone)]
pub struct McimrResult {
    /// Indices of the selected attributes, in selection order.
    pub selected: Vec<usize>,
    /// `I(O;T|C)` before conditioning.
    pub initial_cmi: f64,
    /// `I(O;T|C,E)` for the full selected set — the explainability score.
    pub final_cmi: f64,
    /// Per-iteration details.
    pub trace: Vec<IterationTrace>,
    /// Whether the responsibility test (rather than the bound `k`) stopped
    /// the loop.
    pub stopped_by_responsibility: bool,
}

impl McimrResult {
    /// Names of the selected attributes.
    pub fn names<'a>(&self, set: &'a CandidateSet) -> Vec<&'a str> {
        self.selected
            .iter()
            .map(|&i| set.candidates[i].name.as_str())
            .collect()
    }
}

/// A non-responsible argmin winner is set aside and the search continues
/// with the next-best candidate — but only this many times per query, so
/// the end-game (everything informative already selected) cannot grind a
/// CI test through every remaining candidate.
const MAX_REJECTIONS: usize = 8;

/// Runs MCIMR over the (pruned) candidate set.
///
/// Per Equation 5, iteration `k` picks
/// `argmin_E [ I(O;T|C,E) + (1/(k-1)) Σ_{Eᵢ∈selected} I(E;Eᵢ) ]`,
/// then applies the responsibility test: if `O ⫫ E | E_selected` the new
/// attribute's responsibility would be ≤ 0 (Lemma 4.2) and it must not be
/// selected. Because the argmin ranks by *individual* CMI, a weakly
/// relevant attribute can out-rank a genuine joint confounder (whose
/// redundancy term inflates its score) — so a rejected winner is set
/// aside and the search retries with the next-best candidate, up to
/// `MAX_REJECTIONS` times, rather than ending selection outright.
pub fn mcimr(set: &CandidateSet, engine: &Engine, options: &NexusOptions) -> McimrResult {
    mcimr_controlled(set, engine, options, RunControl::none()).expect("null control cannot abort")
}

/// [`mcimr`] with cooperative cancellation and progress streaming.
///
/// The abort flag is polled once per greedy iteration — the natural
/// granularity: each iteration is one pool-mapped scoring pass plus one
/// CI test, so a cancel lands within a single `NextBestAtt` round. After
/// every *committed* selection the control receives a
/// [`ProgressEvent::Selected`] carrying the top-k-so-far set; rejected or
/// undone candidates emit nothing, so the event stream mirrors exactly
/// the trace of the final result.
pub fn mcimr_controlled(
    set: &CandidateSet,
    engine: &Engine,
    options: &NexusOptions,
    ctl: RunControl<'_>,
) -> Result<McimrResult> {
    let k = options.max_explanation_size;
    let initial_cmi = engine.baseline_cmi();
    let mut selected: Vec<usize> = Vec::new();
    let mut trace = Vec::new();
    let mut stopped_by_responsibility = false;
    let mut last_cmi = initial_cmi;

    // Row-level codes of selected attributes, for the responsibility test.
    let mut selected_rows: Vec<Codes> = Vec::new();
    // Candidates set aside as non-responsible (never reconsidered).
    let mut rejected = vec![false; set.candidates.len()];
    let mut rejections = 0usize;

    while selected.len() < k {
        ctl.check()?;
        let Some((best, v1, v2)) = next_best(set, engine, &selected, &rejected, options) else {
            // Nothing selectable remains; if candidates were set aside on
            // the way here, responsibility (not the bound k) ended the
            // search.
            stopped_by_responsibility = rejections > 0;
            break;
        };
        // Credit gate: when even the best first candidate explains no more
        // than a same-shape random attribute would (its calibrated CMI sits
        // at the baseline), there is no explanation to report — returning a
        // zero-credit attribute would be noise dressed up as an
        // explanation. (Later iterations are instead guarded by the
        // responsibility test and the improvement backstop: marginal
        // contributions are judged conditionally, not individually.)
        if selected.is_empty() && v1 >= 0.98 * initial_cmi && initial_cmi > 0.0 {
            stopped_by_responsibility = true;
            break;
        }
        // Responsibility test (Lemma 4.2): O ⫫ E_best | E_selected ?
        let rows = set.row_codes(&set.candidates[best]);
        let z: Vec<&Codes> = selected_rows.iter().collect();
        let ctx = InfoContext::masked(&set.mask);
        let test = ci_test(&ctx, &set.o, &rows, &z, &options.ci);
        if test.independent {
            rejected[best] = true;
            rejections += 1;
            if rejections >= MAX_REJECTIONS {
                stopped_by_responsibility = true;
                break;
            }
            continue;
        }
        selected.push(best);
        selected_rows.push(rows);
        let cmi_after = engine.cmi_given(set, &selected);
        trace.push(IterationTrace {
            chosen: best,
            name: set.candidates[best].name.clone(),
            v1,
            v2,
            cmi_after,
        });
        // Backstop to the responsibility test: an attribute whose marginal
        // improvement is negligible relative to the initial correlation is
        // undone and set aside like a failed responsibility test.
        if initial_cmi > 0.0
            && (last_cmi - cmi_after) / initial_cmi < options.min_improvement
            && selected.len() > 1
        {
            // Undo an attribute that bought (almost) nothing.
            selected.pop();
            selected_rows.pop();
            trace.pop();
            rejected[best] = true;
            rejections += 1;
            if rejections >= MAX_REJECTIONS {
                stopped_by_responsibility = true;
                break;
            }
            continue;
        }
        last_cmi = cmi_after;
        ctl.emit(ProgressEvent::Selected {
            names: selected
                .iter()
                .map(|&i| set.candidates[i].name.clone())
                .collect(),
            cmi_so_far: cmi_after,
            initial_cmi,
        });
    }

    let final_cmi = engine.cmi_given(set, &selected);
    Ok(McimrResult {
        selected,
        initial_cmi,
        final_cmi,
        trace,
        stopped_by_responsibility,
    })
}

/// The `NextBestAtt` procedure of Algorithm 1.
///
/// Candidate scores are computed on the engine's thread pool and reduced
/// **by candidate index** (lowest index wins exact ties), which is exactly
/// the serial loop's first-strictly-smaller semantics — selection is
/// bit-identical at any thread count.
///
/// Zero-credit candidates — calibration clamps a candidate with no
/// individual signal to exactly the baseline CMI — rank **after** every
/// credited candidate regardless of score: their redundancy term is ≈ 0
/// against unrelated selections, which would otherwise let pure noise
/// undercut genuine joint confounders (whose `v2` exceeds their `v1`
/// discount) in the argmin. They stay selectable (a real confounder can
/// carry purely joint information and also sit at the clamp), but only
/// once every credited candidate has been tried.
fn next_best(
    set: &CandidateSet,
    engine: &Engine,
    selected: &[usize],
    rejected: &[bool],
    options: &NexusOptions,
) -> Option<(usize, f64, f64)> {
    let initial_cmi = engine.baseline_cmi();
    let scores: Vec<Option<(f64, f64)>> = engine.pool().map(set.candidates.len(), |idx| {
        if rejected[idx] || selected.contains(&idx) || !engine.eligible(set, idx, options) {
            return None;
        }
        let v1 = engine.cmi_single(set, idx);
        let v2 = if selected.is_empty() {
            0.0
        } else {
            selected
                .iter()
                .map(|&s| engine.mi_pair(set, idx, s))
                .sum::<f64>()
                / selected.len() as f64
        };
        Some((v1, v2))
    });
    let mut best: Option<(usize, f64, f64)> = None;
    let mut best_key = (true, f64::INFINITY);
    for (idx, score) in scores.into_iter().enumerate() {
        let Some((v1, v2)) = score else { continue };
        let key = (v1 >= initial_cmi, v1 + v2);
        if key < best_key {
            best_key = key;
            best = Some((idx, v1, v2));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::build_candidates;
    use nexus_kg::KnowledgeGraph;
    use nexus_query::parse;
    use nexus_table::{Column, Table};

    /// Salary = f(hdi latent, gini latent) per country plus small noise; the
    /// KG carries hdi, a redundant hdi_copy, gini, and a distractor.
    fn toy() -> (Table, KnowledgeGraph, Vec<String>) {
        let n_countries = 12;
        let mut countries = Vec::new();
        let mut salaries = Vec::new();
        let mut kg = KnowledgeGraph::new();
        for c in 0..n_countries {
            let name = format!("C{c:02}");
            let hdi = (c % 4) as f64; // 4 levels
            let gini = (c / 4) as f64; // 3 levels
            let id = kg.add_entity(name.clone(), "Country");
            kg.set_literal(id, "hdi", hdi);
            kg.set_literal(id, "hdi_copy", hdi * 10.0 + 1.0);
            kg.set_literal(id, "gini", gini);
            // A function of hdi: individually informative but fully
            // redundant once hdi is in the explanation.
            kg.set_literal(id, "distractor", ((c % 4) % 2) as f64);
            for i in 0..25 {
                countries.push(name.clone());
                salaries.push(20.0 * hdi - 8.0 * gini + (i % 3) as f64 * 0.3);
            }
        }
        let table = Table::new(vec![
            ("Country", Column::from_strs(&countries)),
            ("Salary", Column::from_f64(salaries)),
        ])
        .unwrap();
        (table, kg, vec!["Country".to_string()])
    }

    fn run(options: &NexusOptions) -> (CandidateSet, McimrResult) {
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, options).unwrap();
        let engine = Engine::new(&set);
        let r = mcimr(&set, &engine, options);
        (set, r)
    }

    #[test]
    fn recovers_planted_confounders() {
        let options = NexusOptions::default();
        let (set, r) = run(&options);
        let names = r.names(&set);
        assert!(
            names.contains(&"Country::hdi") || names.contains(&"Country::hdi_copy"),
            "{names:?}"
        );
        assert!(names.contains(&"Country::gini"), "{names:?}");
        // Explains nearly everything.
        assert!(r.final_cmi < 0.25 * r.initial_cmi, "{r:?}");
        assert!(r.initial_cmi > 1.0);
    }

    #[test]
    fn redundancy_avoids_hdi_twice() {
        let options = NexusOptions::default();
        let (set, r) = run(&options);
        let names = r.names(&set);
        let both = names.contains(&"Country::hdi") && names.contains(&"Country::hdi_copy");
        assert!(!both, "redundant pair both selected: {names:?}");
    }

    #[test]
    fn stops_before_k() {
        let options = NexusOptions::default();
        let (_, r) = run(&options);
        // Two attributes suffice; k = 5 must not be exhausted.
        assert!(r.selected.len() <= 3, "selected {:?}", r.selected.len());
    }

    #[test]
    fn trace_is_monotone_in_cmi() {
        let options = NexusOptions::default();
        let (_, r) = run(&options);
        let mut prev = r.initial_cmi;
        for t in &r.trace {
            assert!(t.cmi_after <= prev + 1e-9, "{:?}", r.trace);
            prev = t.cmi_after;
        }
        assert!((r.final_cmi - prev).abs() < 1e-9);
    }

    #[test]
    fn k_one_picks_single_best() {
        let options = NexusOptions {
            max_explanation_size: 1,
            ..NexusOptions::default()
        };
        let (set, r) = run(&options);
        assert_eq!(r.selected.len(), 1);
        // The single best must be the strongest marginal explainer (hdi has
        // a 20x coefficient vs gini's 8x).
        let name = r.names(&set)[0];
        assert!(name.contains("hdi"), "{name}");
    }

    #[test]
    fn controlled_run_streams_committed_selections() {
        use std::sync::Mutex;
        let options = NexusOptions::default();
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &options).unwrap();
        let engine = Engine::new(&set);
        let events: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
        let sink = |e: ProgressEvent| events.lock().unwrap().push(e);
        let ctl = RunControl {
            progress: Some(&sink),
            ..RunControl::default()
        };
        let r = mcimr_controlled(&set, &engine, &options, ctl).unwrap();
        let events = events.into_inner().unwrap();
        // One Selected event per committed selection, mirroring the trace.
        assert_eq!(events.len(), r.trace.len());
        for (event, t) in events.iter().zip(&r.trace) {
            let ProgressEvent::Selected {
                names, cmi_so_far, ..
            } = event
            else {
                panic!("unexpected event {event:?}");
            };
            assert_eq!(names.last().map(String::as_str), Some(t.name.as_str()));
            assert_eq!(cmi_so_far.to_bits(), t.cmi_after.to_bits());
        }
        // The final event carries the full selected set.
        if let Some(ProgressEvent::Selected { names, .. }) = events.last() {
            assert_eq!(names.len(), r.selected.len());
        }
    }

    #[test]
    fn pre_set_abort_flag_stops_before_any_selection() {
        use crate::error::CoreError;
        use std::sync::atomic::{AtomicBool, Ordering};
        let options = NexusOptions::default();
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &options).unwrap();
        let engine = Engine::new(&set);
        let flag = AtomicBool::new(true);
        flag.store(true, Ordering::Release);
        let err = mcimr_controlled(&set, &engine, &options, RunControl::with_abort(&flag))
            .expect_err("aborted");
        assert_eq!(err, CoreError::Aborted);
    }

    #[test]
    fn empty_candidate_set_returns_empty() {
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let mut set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        set.candidates.clear();
        let engine = Engine::new(&set);
        let r = mcimr(&set, &engine, &NexusOptions::default());
        assert!(r.selected.is_empty());
        assert_eq!(r.final_cmi, r.initial_cmi);
    }
}

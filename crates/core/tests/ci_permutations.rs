//! The responsibility test draws its permutation null only for candidates
//! the improvement backstop keeps.
//!
//! MCIMR screens each argmin winner with the cheap phase of the CI test,
//! applies the `min_improvement` backstop, and only then permutes. The
//! permute-first order below (the loop MCIMR ran before) tests every
//! winner in full and undoes backstop failures afterwards; both orders
//! must select the same attributes, and the new order must draw exactly
//! the permutations of the old one minus those of the candidates the
//! backstop rejected.
//!
//! Each order runs on a fresh engine, so both also draw calibration
//! samples; the kernel counts those apart (`calib_samples`), and the CI
//! test's share is `permutations − calib_samples`. The kernel counters are
//! process-global, so this binary has one test: no concurrent test can
//! pollute a delta.

use nexus_core::{mcimr, CandidateSet, Engine, ExplainRequest, Nexus, NexusOptions};
use nexus_datagen::flights::{self, FlightsConfig};
use nexus_datagen::BENCH_QUERIES;
use nexus_info::{ci_screen, ci_test, kernel, CiScreen, InfoContext};
use nexus_query::parse;
use nexus_table::Codes;

/// `NextBestAtt`, serially: the argmin of `v1 + v2`, credited candidates
/// first, lowest index on ties.
fn next_best(
    set: &CandidateSet,
    engine: &Engine,
    selected: &[usize],
    rejected: &[bool],
    options: &NexusOptions,
) -> Option<(usize, f64)> {
    let mut best = None;
    let mut best_key = (true, f64::INFINITY);
    for (idx, &set_aside) in rejected.iter().enumerate() {
        if set_aside || selected.contains(&idx) || !engine.eligible(set, idx, options) {
            continue;
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
        let key = (v1 >= engine.baseline_cmi(), v1 + v2);
        if key < best_key {
            best_key = key;
            best = Some((idx, v1));
        }
    }
    best
}

/// The permute-first selection loop. Returns the selected indices and the
/// number of candidates whose screen was undecided, passed the full
/// test, and were then undone by the backstop.
fn permute_first(set: &CandidateSet, engine: &Engine, options: &NexusOptions) -> (Vec<usize>, u64) {
    const MAX_REJECTIONS: usize = 8;
    let initial_cmi = engine.baseline_cmi();
    let ctx = InfoContext::masked(&set.mask);
    let mut selected = Vec::new();
    let mut selected_rows: Vec<Codes> = Vec::new();
    let mut rejected = vec![false; set.candidates.len()];
    let mut rejections = 0;
    let mut last_cmi = initial_cmi;
    let mut permuted_then_undone = 0;
    while selected.len() < options.max_explanation_size {
        let Some((best, v1)) = next_best(set, engine, &selected, &rejected, options) else {
            break;
        };
        if selected.is_empty() && v1 >= 0.98 * initial_cmi && initial_cmi > 0.0 {
            break;
        }
        let rows = set.row_codes(&set.candidates[best]);
        let z: Vec<&Codes> = selected_rows.iter().collect();
        let pending = matches!(
            ci_screen(&ctx, &set.o, &rows, &z, &options.ci),
            CiScreen::Pending(_)
        );
        let mut kept = !ci_test(&ctx, &set.o, &rows, &z, &options.ci).independent;
        if kept {
            selected.push(best);
            let cmi_after = engine.cmi_given(set, &selected);
            if initial_cmi > 0.0
                && (last_cmi - cmi_after) / initial_cmi < options.min_improvement
                && selected.len() > 1
            {
                selected.pop();
                permuted_then_undone += pending as u64;
                kept = false;
            } else {
                last_cmi = cmi_after;
                selected_rows.push(rows);
            }
        }
        if !kept {
            rejected[best] = true;
            rejections += 1;
            if rejections >= MAX_REJECTIONS {
                break;
            }
        }
    }
    (selected, permuted_then_undone)
}

/// CI-test permutations drawn by `f`: every permutation sample except the
/// calibration ones.
fn ci_permutations(f: impl FnOnce()) -> u64 {
    let before = kernel::counters().snapshot();
    f();
    let delta = kernel::counters().snapshot().delta(&before);
    assert!(delta.calib_samples > 0, "a fresh engine calibrates");
    delta.permutations - delta.calib_samples
}

#[test]
fn backstop_rejected_candidates_draw_no_permutations() {
    let fl_q5 = BENCH_QUERIES.iter().find(|q| q.id == "FL-Q5").unwrap();
    let data = flights::generate(&FlightsConfig {
        n_rows: 20_000,
        n_cities: 20,
        ..FlightsConfig::default()
    });
    let query = parse(fl_q5.sql).unwrap();
    let options = NexusOptions::default();
    let request = ExplainRequest::new()
        .table(&data.table)
        .knowledge_graph(&data.kg)
        .extraction_columns(data.extraction_columns.clone())
        .query(&query);
    // The pruned, weighted set the pipeline selects from.
    let (_, artifacts) = Nexus::new(options.clone())
        .run_with_artifacts(&request)
        .unwrap();
    let set = &artifacts.set;

    let mut backstop_first = None;
    let new_order =
        ci_permutations(|| backstop_first = Some(mcimr(set, &Engine::new(set), &options)));
    let mut oracle = None;
    let old_order =
        ci_permutations(|| oracle = Some(permute_first(set, &Engine::new(set), &options)));
    let (selected, undone) = oracle.unwrap();
    assert_eq!(backstop_first.unwrap().selected, selected);

    let per_test = options.ci.n_permutations as u64;
    assert!(undone > 0, "no backstop rejection after a permuted test");
    assert_eq!(
        new_order,
        old_order - undone * per_test,
        "a backstop-rejected candidate drew permutations"
    );
    assert!(new_order < old_order, "{new_order} vs {old_order}");
}

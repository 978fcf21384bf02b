//! Selection-bias detection for extracted attributes (Section 3.2).
//!
//! For an extracted attribute `E` with missing values, `R_E` indicates which
//! rows were successfully extracted. Propositions 3.2/3.3 give sufficient
//! recoverability conditions; when the *observable* implications of those
//! conditions fail — the missingness indicator is associated with the
//! outcome (given the exposure) or with other attributes — complete-case
//! estimates are biased and IPW weights are required.

use nexus_info::{ci_test, CiTestOptions, InfoContext};
use nexus_table::{Bitmap, Codes, Column};

/// Builds the selection indicator `R_E` of a column: code 1 where the value
/// is present, 0 where missing. Always fully valid.
pub fn selection_indicator(col: &Column) -> Codes {
    let codes: Vec<u32> = (0..col.len()).map(|i| (!col.is_null(i)) as u32).collect();
    Codes {
        codes,
        cardinality: 2,
        validity: None,
    }
}

/// Selection indicator straight from a validity-style bitmap
/// (1 where the bit is set).
pub fn indicator_from_bitmap(present: &Bitmap) -> Codes {
    Codes {
        codes: present.iter().map(|b| b as u32).collect(),
        cardinality: 2,
        validity: None,
    }
}

/// The verdict of selection-bias detection for one extracted attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasReport {
    /// `I(R_E; O | C)` — association of missingness with the outcome.
    pub mi_with_outcome: f64,
    /// `I(R_E; T | C)` — association of missingness with the exposure.
    pub mi_with_exposure: f64,
    /// Fraction of missing rows in the attribute (within the context).
    pub missing_fraction: f64,
    /// Whether complete-case analysis is biased and IPW weights are needed.
    pub biased: bool,
}

/// Options for bias detection.
#[derive(Debug, Clone, Copy)]
pub struct BiasDetectOptions {
    /// CI-test configuration used on the indicator.
    pub ci: CiTestOptions,
    /// Attributes missing less than this fraction are never flagged (a few
    /// missing rows cannot bias the estimate materially).
    pub min_missing_fraction: f64,
}

impl Default for BiasDetectOptions {
    fn default() -> Self {
        BiasDetectOptions {
            ci: CiTestOptions::default(),
            min_missing_fraction: 0.01,
        }
    }
}

/// Detects selection bias for attribute `E` against outcome `O` and
/// exposure `T` within the query context.
///
/// The recoverability conditions of Prop. 3.2 imply, observably, that
/// `R_E ⫫ O | C` and `R_E ⫫ O | T, C`; we test both (the second catches
/// missingness channels that only open within exposure groups) plus
/// `R_E ⫫ T | C` as the Prop. 3.3 analogue for redundancy estimates.
pub fn detect_selection_bias(
    ctx: &InfoContext<'_>,
    e_col: &Column,
    o: &Codes,
    t: &Codes,
    options: &BiasDetectOptions,
) -> BiasReport {
    let r = selection_indicator(e_col);
    let n_ctx = match ctx.mask {
        Some(m) => m.count_ones(),
        None => e_col.len(),
    };
    let missing = match ctx.mask {
        Some(m) => m.iter_ones().filter(|&i| e_col.is_null(i)).count(),
        None => e_col.null_count(),
    };
    let missing_fraction = if n_ctx == 0 {
        0.0
    } else {
        missing as f64 / n_ctx as f64
    };

    let mi_o = ctx.mutual_information(&r, o);
    let mi_t = ctx.mutual_information(&r, t);

    if missing_fraction < options.min_missing_fraction || missing == n_ctx {
        return BiasReport {
            mi_with_outcome: mi_o,
            mi_with_exposure: mi_t,
            missing_fraction,
            biased: false,
        };
    }

    // Three tests share the verdict via OR, so each runs at alpha/3
    // (Bonferroni) — otherwise genuinely MCAR attributes get flagged at
    // nearly 3x the nominal false-positive rate.
    let mut ci = options.ci;
    ci.alpha /= 3.0;
    // The first dependent verdict decides; later tests are not run.
    let biased = !ci_test(ctx, &r, o, &[], &ci).independent
        || !ci_test(ctx, &r, o, &[t], &ci).independent
        || !ci_test(ctx, &r, t, &[], &ci).independent;

    BiasReport {
        mi_with_outcome: mi_o,
        mi_with_exposure: mi_t,
        missing_fraction,
        biased,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_table::Column;

    fn codes(values: &[u32], card: u32) -> Codes {
        Codes {
            codes: values.to_vec(),
            cardinality: card,
            validity: None,
        }
    }

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as u32
        }
    }

    #[test]
    fn indicator_tracks_nulls() {
        let col = Column::from_opt_f64(vec![Some(1.0), None, Some(3.0)]);
        let r = selection_indicator(&col);
        assert_eq!(r.codes, vec![1, 0, 1]);
        assert_eq!(r.cardinality, 2);
    }

    #[test]
    fn indicator_from_bitmap_matches() {
        let bm: Bitmap = vec![true, false, true].into_iter().collect();
        let r = indicator_from_bitmap(&bm);
        assert_eq!(r.codes, vec![1, 0, 1]);
    }

    /// `(O, T, E)`: 30% of `E` missing completely at random.
    fn mcar() -> (Codes, Codes, Column) {
        let mut next = lcg(5);
        let n = 1000;
        let o = codes(&(0..n).map(|_| next() % 4).collect::<Vec<_>>(), 4);
        let t = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let values: Vec<Option<f64>> = (0..n)
            .map(|_| if next() % 10 < 3 { None } else { Some(1.0) })
            .collect();
        (o, t, Column::from_opt_f64(values))
    }

    /// `(O, T, E)`: `E` missing mostly when the outcome is high (codes
    /// 2,3) — MNAR.
    fn outcome_dependent() -> (Codes, Codes, Column) {
        let mut next = lcg(9);
        let n = 1000;
        let ov: Vec<u32> = (0..n).map(|_| next() % 4).collect();
        let o = codes(&ov, 4);
        let t = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let values: Vec<Option<f64>> = ov
            .iter()
            .map(|&oc| {
                if oc >= 2 && next() % 10 < 8 {
                    None
                } else {
                    Some(1.0)
                }
            })
            .collect();
        (o, t, Column::from_opt_f64(values))
    }

    /// `(O, T, E)`: `E` missing mostly in exposure group 0, independent
    /// of the outcome — only the third test sees it.
    fn exposure_dependent() -> (Codes, Codes, Column) {
        let mut next = lcg(21);
        let n = 1000;
        let o = codes(&(0..n).map(|_| next() % 4).collect::<Vec<_>>(), 4);
        let tv: Vec<u32> = (0..n).map(|_| next() % 3).collect();
        let values: Vec<Option<f64>> = tv
            .iter()
            .map(|&tc| {
                if tc == 0 && next() % 10 < 6 {
                    None
                } else {
                    Some(1.0)
                }
            })
            .collect();
        (o, codes(&tv, 3), Column::from_opt_f64(values))
    }

    /// `(O, T, E)`: one missing value, perfectly aligned with high outcome.
    fn tiny_missing() -> (Codes, Codes, Column) {
        let n = 500;
        let o = codes(&(0..n).map(|i| (i % 4) as u32).collect::<Vec<_>>(), 4);
        let t = codes(&(0..n).map(|i| (i % 3) as u32).collect::<Vec<_>>(), 3);
        let values: Vec<Option<f64>> = (0..n)
            .map(|i| if i == 3 { None } else { Some(1.0) })
            .collect();
        (o, t, Column::from_opt_f64(values))
    }

    /// `(O, T, E)`: `E` entirely missing.
    fn fully_missing() -> (Codes, Codes, Column) {
        let n = 100;
        let o = codes(&vec![0; n], 1);
        let t = codes(&vec![0; n], 1);
        (o, t, Column::from_opt_f64(vec![None; n]))
    }

    fn detect((o, t, col): &(Codes, Codes, Column)) -> BiasReport {
        detect_selection_bias(
            &InfoContext::default(),
            col,
            o,
            t,
            &BiasDetectOptions::default(),
        )
    }

    #[test]
    fn mcar_missingness_not_flagged() {
        let report = detect(&mcar());
        assert!(!report.biased, "MCAR flagged: {report:?}");
        assert!(report.missing_fraction > 0.2);
    }

    #[test]
    fn outcome_dependent_missingness_flagged() {
        let report = detect(&outcome_dependent());
        assert!(report.biased, "MNAR not flagged: {report:?}");
        assert!(report.mi_with_outcome > 0.05);
    }

    #[test]
    fn exposure_dependent_missingness_flagged() {
        let report = detect(&exposure_dependent());
        assert!(
            report.biased,
            "exposure-driven missingness not flagged: {report:?}"
        );
    }

    #[test]
    fn tiny_missing_fraction_never_flagged() {
        assert!(!detect(&tiny_missing()).biased);
    }

    #[test]
    fn fully_missing_attribute_not_flagged() {
        let report = detect(&fully_missing());
        assert!(!report.biased);
        assert_eq!(report.missing_fraction, 1.0);
    }

    /// Stopping at the first dependent verdict reports what running all
    /// three tests and OR-ing them did.
    #[test]
    fn short_circuit_matches_eager_tests() {
        for fixture in [
            mcar(),
            outcome_dependent(),
            exposure_dependent(),
            tiny_missing(),
            fully_missing(),
        ] {
            let got = detect(&fixture);
            let (o, t, col) = &fixture;
            let ctx = InfoContext::default();
            let r = selection_indicator(col);
            let mut ci = BiasDetectOptions::default().ci;
            ci.alpha /= 3.0;
            let missing_fraction = col.null_count() as f64 / col.len() as f64;
            let tested = missing_fraction >= BiasDetectOptions::default().min_missing_fraction
                && col.null_count() < col.len();
            let eager = [
                ci_test(&ctx, &r, o, &[], &ci),
                ci_test(&ctx, &r, o, &[t], &ci),
                ci_test(&ctx, &r, t, &[], &ci),
            ]
            .iter()
            .any(|test| !test.independent);
            let want = BiasReport {
                mi_with_outcome: ctx.mutual_information(&r, o),
                mi_with_exposure: ctx.mutual_information(&r, t),
                missing_fraction,
                biased: tested && eager,
            };
            assert_eq!(got, want);
        }
    }
}

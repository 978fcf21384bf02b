//! Order statistics and the regression verdict behind `nexus-bench compare`.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(p, sorted.len()) - 1])
}

/// 1-based nearest rank of percentile `p` among `n ≥ 1` samples. The
/// epsilon keeps `p · n / 100` from rounding up past an exact integer
/// (99.9 has no exact binary form).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The tail percentiles a latency may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest ladder percentile that still has at least ten samples
/// beyond it among `n`, or `None` when even p75 is unsupported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= 10)
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles as Python's `statistics.median` and
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// compute them, so spreads read the same here as in any script that
/// checks them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let v = sorted(values);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Some(Summary {
                q1: v[0],
                median,
                q3: v[0],
            });
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary {
            q1: quartile(1),
            median,
            q3: quartile(3),
        })
    }

    /// Interquartile distance.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may move in the bad direction before it counts as a
/// regression: a share of the base median, or an absolute amount.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    Relative(f64),
    Absolute(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs spread wider than the bound on either side, and neither
    /// side's runs all read better than the other's.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `base` (each one value per run).
///
/// Past the bound in the bad direction is `Worse`, past it in the good
/// direction `Better`. When either side's interquartile distance exceeds
/// the bound the medians cannot be told apart, so the verdict is
/// `Unresolved` unless every run of one side beats every run of the other.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: Bound) -> Option<Verdict> {
    let (b, c) = (Summary::of(base)?, Summary::of(change)?);
    let allowed = match bound {
        Bound::Relative(share) => share * b.median.abs(),
        Bound::Absolute(amount) => amount,
    };
    // Positive = the change reads worse than the base.
    let worsening = match better {
        Better::Lower => c.median - b.median,
        Better::Higher => b.median - c.median,
    };
    if b.iqr().max(c.iqr()) > allowed {
        let beats = |x: f64, y: f64| match better {
            Better::Lower => x < y,
            Better::Higher => x > y,
        };
        let all = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| beats(x, y)));
        return Some(if all(change, base) {
            Verdict::Better
        } else if all(base, change) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        });
    }
    Some(if worsening > allowed {
        Verdict::Worse
    } else if -worsening > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.9), Some(999.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!(s.iqr(), 0.0);
    }

    const TIGHT_BASE: [f64; 5] = [100.0, 101.0, 100.0, 99.0, 100.0];

    fn shifted(by: f64) -> Vec<f64> {
        TIGHT_BASE.iter().map(|v| v + by).collect()
    }

    #[test]
    fn relative_bound_both_directions() {
        let r = Bound::Relative(0.10);
        assert_eq!(
            verdict(&TIGHT_BASE, &shifted(5.0), Better::Lower, r),
            Some(Verdict::Same)
        );
        assert_eq!(
            verdict(&TIGHT_BASE, &shifted(15.0), Better::Lower, r),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(&TIGHT_BASE, &shifted(-15.0), Better::Lower, r),
            Some(Verdict::Better)
        );
        // Higher-is-better flips the reading of the same shift.
        assert_eq!(
            verdict(&TIGHT_BASE, &shifted(15.0), Better::Higher, r),
            Some(Verdict::Better)
        );
        assert_eq!(
            verdict(&TIGHT_BASE, &shifted(-15.0), Better::Higher, r),
            Some(Verdict::Worse)
        );
    }

    #[test]
    fn absolute_bound_both_directions() {
        let fails = [0.0, 0.0, 0.0];
        let a = Bound::Absolute(0.0);
        assert_eq!(
            verdict(&fails, &fails, Better::Lower, a),
            Some(Verdict::Same)
        );
        assert_eq!(
            verdict(&fails, &[0.1, 0.1, 0.1], Better::Lower, a),
            Some(Verdict::Worse)
        );
        let frac = [0.90, 0.90, 0.90];
        let a = Bound::Absolute(0.01);
        assert_eq!(
            verdict(&frac, &[0.895, 0.895, 0.895], Better::Higher, a),
            Some(Verdict::Same)
        );
        assert_eq!(
            verdict(&frac, &[0.85, 0.85, 0.85], Better::Higher, a),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(&frac, &[0.95, 0.95, 0.95], Better::Higher, a),
            Some(Verdict::Better)
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_separated() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let r = Bound::Relative(0.10);
        assert_eq!(
            verdict(&noisy, &[85.0, 105.0, 125.0, 95.0, 115.0], Better::Lower, r),
            Some(Verdict::Unresolved)
        );
        // Every change run beats every base run: a gain despite the spread.
        assert_eq!(
            verdict(&noisy, &[10.0, 12.0, 14.0], Better::Lower, r),
            Some(Verdict::Better)
        );
        assert_eq!(
            verdict(&noisy, &[200.0, 210.0, 220.0], Better::Lower, r),
            Some(Verdict::Worse)
        );
        assert_eq!(verdict(&[], &noisy, Better::Lower, r), None);
    }
}

//! Discretization of continuous columns.
//!
//! The paper's estimators (and its group-by semantics for numeric exposures)
//! assume discretized attributes; this module provides equal-width and
//! quantile binning.

use crate::bitmap::Bitmap;
use crate::column::{Codes, Column};
use crate::error::{Result, TableError};

/// A binning strategy for continuous values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BinStrategy {
    /// `n` bins of equal width across the observed range.
    EqualWidth(usize),
    /// `n` bins with (approximately) equal numbers of observations.
    Quantile(usize),
}

impl BinStrategy {
    /// The requested number of bins.
    pub fn n_bins(&self) -> usize {
        match self {
            BinStrategy::EqualWidth(n) | BinStrategy::Quantile(n) => *n,
        }
    }
}

/// When a numeric column has at most `n_bins` distinct finite values, each
/// distinct value becomes its own category (sorted ascending). Returns
/// `None` when the domain is larger.
fn small_domain_codes(
    col: &Column,
    values: &[f64],
    n_bins: usize,
    validity: Option<Bitmap>,
) -> Option<Codes> {
    let mut distinct: Vec<f64> = Vec::with_capacity(n_bins + 1);
    for &v in values {
        if v.is_finite() && !distinct.contains(&v) {
            distinct.push(v);
            if distinct.len() > n_bins {
                return None;
            }
        }
    }
    if distinct.is_empty() {
        return None;
    }
    distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = col.len();
    let mut codes = Vec::with_capacity(n);
    for i in 0..n {
        match col.f64_at(i) {
            // Infinite payloads map to 0; NaN rows are invalid and keep 0.
            Some(v) => codes.push(distinct.iter().position(|&d| d == v).unwrap_or(0) as u32),
            None => codes.push(0),
        }
    }
    Some(Codes {
        codes,
        cardinality: distinct.len() as u32,
        validity,
    })
}

/// A numeric column's validity with NaN payloads counted as missing (the
/// column's own validity when no valid row holds NaN).
fn numeric_validity(col: &Column) -> Option<Bitmap> {
    let nan_rows = || (0..col.len()).filter(|&i| col.f64_at(i).is_some_and(f64::is_nan));
    if nan_rows().next().is_none() {
        return col.validity().cloned();
    }
    let mut validity = col
        .validity()
        .cloned()
        .unwrap_or_else(|| Bitmap::with_value(col.len(), true));
    for i in nan_rows() {
        validity.set(i, false);
    }
    Some(validity)
}

/// The values a numeric column bins: every valid, non-NaN value.
fn binnable_values(col: &Column) -> Vec<f64> {
    col.iter_f64().filter(|v| !v.is_nan()).collect()
}

/// Computes bin edges for `values` under `strategy`.
///
/// Returns a sorted, deduplicated edge vector `e` of length `≥ 2`; value `v`
/// falls in bin `i` iff `e[i] <= v < e[i+1]` (last bin is right-closed).
/// Fewer than `n` bins may result when the data has few distinct values.
pub fn compute_edges(values: &[f64], strategy: BinStrategy) -> Result<Vec<f64>> {
    compute_edges_owned(values.to_vec(), strategy)
}

/// [`compute_edges`] over owned values, which it filters and reorders in
/// place instead of copying.
pub fn compute_edges_owned(mut finite: Vec<f64>, strategy: BinStrategy) -> Result<Vec<f64>> {
    let n_bins = strategy.n_bins();
    if n_bins == 0 {
        return Err(TableError::InvalidArgument("bin count must be > 0".into()));
    }
    finite.retain(|v| v.is_finite());
    if finite.is_empty() {
        return Err(TableError::InvalidArgument(
            "cannot bin a column with no finite values".into(),
        ));
    }
    let mut edges = match strategy {
        BinStrategy::EqualWidth(_) => {
            let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if lo == hi {
                vec![lo, hi]
            } else {
                (0..=n_bins)
                    .map(|i| lo + (hi - lo) * i as f64 / n_bins as f64)
                    .collect()
            }
        }
        BinStrategy::Quantile(_) => {
            // Interpolate between the order statistics at the two ranks
            // around each quantile position, read by selection rather than
            // a full sort.
            let last = (finite.len() - 1) as f64;
            let positions: Vec<(usize, usize, f64)> = (0..=n_bins)
                .map(|i| {
                    let pos = i as f64 / n_bins as f64 * last;
                    let lo = pos.floor() as usize;
                    (lo, pos.ceil() as usize, pos - lo as f64)
                })
                .collect();
            let mut ranks: Vec<usize> =
                positions.iter().flat_map(|&(lo, hi, _)| [lo, hi]).collect();
            ranks.sort_unstable();
            ranks.dedup();
            let stats = order_statistics(finite, &ranks);
            let at = |rank| stats[ranks.binary_search(&rank).expect("selected rank")];
            positions
                .iter()
                .map(|&(lo, hi, frac)| at(lo) * (1.0 - frac) + at(hi) * frac)
                .collect()
        }
    };
    edges.dedup_by(|a, b| a == b);
    if edges.len() < 2 {
        // All values identical: a single degenerate bin.
        edges = vec![edges[0], edges[0]];
    }
    Ok(edges)
}

/// The order statistics of `finite` at ascending, distinct `ranks`:
/// element `k` of the result is bit-identical to element `ranks[k]` of
/// `finite` after a stable sort.
///
/// The values are selected, not sorted: the middle rank is selected
/// first, then the lower ranks within the part below it and the higher
/// ranks within the part above. Selection runs on order-preserving integer
/// keys, which agree with the floats' order everywhere except that they
/// place `-0.0` below `0.0`. Every value but zero is pinned down to its
/// bits by its rank; the stable sort keeps `0.0` and `-0.0` in input
/// order, so the zero at rank `r` is the `(r - below)`-th zero of the
/// input, where `below` counts the values under zero.
fn order_statistics(finite: Vec<f64>, ranks: &[usize]) -> Vec<f64> {
    let below = finite.iter().filter(|&&v| v < 0.0).count();
    let zeros: Vec<f64> = finite.iter().copied().filter(|&v| v == 0.0).collect();
    let mut keys: Vec<u64> = finite.into_iter().map(order_key).collect();
    let mut stats = vec![0u64; ranks.len()];
    select_ranks(&mut keys, 0, ranks, &mut stats);
    stats
        .into_iter()
        .zip(ranks)
        .map(|(key, &r)| {
            let v = from_order_key(key);
            if v == 0.0 {
                zeros[r - below]
            } else {
                v
            }
        })
        .collect()
}

/// Selects `ranks` (ascending, relative to `offset`, the rank of
/// `keys[0]`) into `out`.
fn select_ranks(keys: &mut [u64], offset: usize, ranks: &[usize], out: &mut [u64]) {
    if ranks.is_empty() {
        return;
    }
    let mid = ranks.len() / 2;
    let at = ranks[mid] - offset;
    let (below, key, above) = keys.select_nth_unstable(at);
    out[mid] = *key;
    let (out_below, out_rest) = out.split_at_mut(mid);
    select_ranks(below, offset, &ranks[..mid], out_below);
    select_ranks(
        above,
        offset + at + 1,
        &ranks[mid + 1..],
        &mut out_rest[1..],
    );
}

/// An integer key whose unsigned order is the numeric order of finite
/// floats (with `-0.0` just below `0.0`).
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Interior edges up to which [`Binner`] counts instead of searching.
const COUNTING_EDGES: usize = 8;

/// Bin lookup for one edge vector, equal to [`assign_bin`] on every
/// non-NaN value.
///
/// On strictly increasing edges with few interior edges (every quantile
/// edge vector of at most 9 bins), the bin is the number of interior edges
/// `≤ v`: a branch-free count over a fixed, NaN-padded array (`NaN ≤ v`
/// never holds). Other edge vectors — many bins, or the rare non-monotone
/// vector that rounding in [`compute_edges`]' interpolation can produce —
/// use [`assign_bin`].
#[derive(Debug, Clone, Copy)]
pub struct Binner<'a> {
    edges: &'a [f64],
    interior: Option<[f64; COUNTING_EDGES]>,
}

impl<'a> Binner<'a> {
    /// A binner over `edges` (see [`compute_edges`]).
    pub fn new(edges: &'a [f64]) -> Binner<'a> {
        let inner = &edges[1..edges.len() - 1];
        let counting = inner.len() <= COUNTING_EDGES && edges.windows(2).all(|w| w[0] < w[1]);
        let interior = counting.then(|| {
            let mut padded = [f64::NAN; COUNTING_EDGES];
            padded[..inner.len()].copy_from_slice(inner);
            padded
        });
        Binner { edges, interior }
    }

    /// The bin of `v`, which must not be NaN.
    #[inline]
    pub fn bin(&self, v: f64) -> u32 {
        match &self.interior {
            Some(interior) => interior.iter().map(|&e| u32::from(e <= v)).sum(),
            None => assign_bin(v, self.edges),
        }
    }
}

/// Assigns `v` to a bin given `edges` (see [`compute_edges`]).
#[inline]
pub fn assign_bin(v: f64, edges: &[f64]) -> u32 {
    let n_bins = edges.len() - 1;
    if v <= edges[0] {
        return 0;
    }
    if v >= edges[n_bins] {
        return (n_bins - 1) as u32;
    }
    // Binary search for the right edge.
    match edges.binary_search_by(|e| e.partial_cmp(&v).expect("finite edges")) {
        Ok(i) => (i.min(n_bins - 1)) as u32,
        Err(i) => (i - 1) as u32,
    }
}

/// Bins a numeric column into dense categorical codes.
///
/// Non-numeric columns are passed through [`Column::category_codes`], so this
/// is safe to call on any column as a "make categorical" operation. When the
/// column has no more distinct values than requested bins, each distinct
/// value becomes its own category (quantile edges would otherwise merge
/// small discrete domains arbitrarily).
pub fn bin_codes(col: &Column, strategy: BinStrategy) -> Result<Codes> {
    use crate::column::ColumnData;
    match col.data() {
        ColumnData::Float64(_) | ColumnData::Int64(_) => {
            // NaN payloads count as missing.
            let values = binnable_values(col);
            if values.is_empty() {
                // Entirely-null column: zero cardinality, all rows invalid.
                return Ok(Codes {
                    codes: vec![0; col.len()],
                    cardinality: 0,
                    validity: Some(Bitmap::with_value(col.len(), false)),
                });
            }
            let validity = numeric_validity(col);
            let is_valid = |i: usize| validity.as_ref().is_none_or(|v| v.get(i));
            if let Some(codes) =
                small_domain_codes(col, &values, strategy.n_bins(), validity.clone())
            {
                return Ok(codes);
            }
            let edges = compute_edges(&values, strategy)?;
            let binner = Binner::new(&edges);
            let n_bins = edges.len() - 1;
            let mut codes = Vec::with_capacity(col.len());
            for i in 0..col.len() {
                match col.f64_at(i) {
                    Some(v) if is_valid(i) => codes.push(binner.bin(v)),
                    _ => codes.push(0),
                }
            }
            // Compact: some bins may be empty (quantile ties); remap to
            // dense codes preserving bin order, so codes stay monotone in
            // the underlying values.
            let mut used = vec![false; n_bins];
            for (i, c) in codes.iter().enumerate() {
                if is_valid(i) {
                    used[*c as usize] = true;
                }
            }
            let mut remap = vec![u32::MAX; n_bins];
            let mut next = 0u32;
            for (b, &u) in used.iter().enumerate() {
                if u {
                    remap[b] = next;
                    next += 1;
                }
            }
            for (i, c) in codes.iter_mut().enumerate() {
                if is_valid(i) {
                    *c = remap[*c as usize];
                }
            }
            Ok(Codes {
                codes,
                cardinality: next,
                validity,
            })
        }
        _ => col.category_codes(),
    }
}

/// Bins a numeric column into a Utf8 column of interval labels
/// (`"[lo, hi)"`), suitable for grouping and for human-readable subgroup
/// descriptions.
pub fn bin_to_column(col: &Column, strategy: BinStrategy) -> Result<Column> {
    use crate::column::ColumnData;
    match col.data() {
        ColumnData::Float64(_) | ColumnData::Int64(_) => {
            let values = binnable_values(col);
            if values.is_empty() {
                return Ok(Column::from_opt_strs(&vec![None::<&str>; col.len()]));
            }
            let edges = compute_edges(&values, strategy)?;
            let binner = Binner::new(&edges);
            let n_bins = edges.len() - 1;
            let labels: Vec<String> = (0..n_bins)
                .map(|i| {
                    if i + 1 == n_bins {
                        format!("[{:.4}, {:.4}]", edges[i], edges[i + 1])
                    } else {
                        format!("[{:.4}, {:.4})", edges[i], edges[i + 1])
                    }
                })
                .collect();
            let out: Vec<Option<&str>> = (0..col.len())
                .map(|i| {
                    col.f64_at(i)
                        .filter(|v| !v.is_nan())
                        .map(|v| labels[binner.bin(v) as usize].as_str())
                })
                .collect();
            Ok(Column::from_opt_strs(&out))
        }
        _ => Ok(col.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_width_edges() {
        let edges = compute_edges(&[0.0, 10.0], BinStrategy::EqualWidth(5)).unwrap();
        assert_eq!(edges, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn quantile_edges_balance_counts() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let edges = compute_edges(&values, BinStrategy::Quantile(4)).unwrap();
        assert_eq!(edges.len(), 5);
        // Each quartile boundary within one step of the exact quartile.
        assert!((edges[1] - 24.75).abs() < 1.0);
        assert!((edges[2] - 49.5).abs() < 1.0);
    }

    #[test]
    fn assign_bin_boundaries() {
        let edges = vec![0.0, 2.0, 4.0, 6.0];
        assert_eq!(assign_bin(-1.0, &edges), 0);
        assert_eq!(assign_bin(0.0, &edges), 0);
        assert_eq!(assign_bin(1.9, &edges), 0);
        assert_eq!(assign_bin(2.0, &edges), 1);
        assert_eq!(assign_bin(5.9, &edges), 2);
        assert_eq!(assign_bin(6.0, &edges), 2); // right-closed last bin
        assert_eq!(assign_bin(99.0, &edges), 2);
    }

    #[test]
    fn bin_codes_respects_nulls() {
        let col = Column::from_opt_f64(vec![Some(1.0), None, Some(9.0), Some(5.0)]);
        let codes = bin_codes(&col, BinStrategy::EqualWidth(2)).unwrap();
        assert_eq!(codes.cardinality, 2);
        assert!(codes.is_valid(0));
        assert!(!codes.is_valid(1));
        assert_eq!(codes.codes[0], 0);
        assert_eq!(codes.codes[2], 1);
        assert_eq!(codes.codes[3], 1); // 5.0 on the boundary goes right
    }

    #[test]
    fn bin_codes_constant_column() {
        let col = Column::from_f64(vec![3.0; 10]);
        let codes = bin_codes(&col, BinStrategy::Quantile(4)).unwrap();
        assert_eq!(codes.cardinality, 1);
        assert!(codes.codes.iter().all(|&c| c == 0));
    }

    #[test]
    fn bin_codes_all_null_column() {
        let col = Column::from_opt_f64(vec![None, None]);
        let codes = bin_codes(&col, BinStrategy::EqualWidth(4)).unwrap();
        assert_eq!(codes.cardinality, 0);
        assert_eq!(codes.valid_count(), 0);
    }

    #[test]
    fn bin_codes_passthrough_for_strings() {
        let col = Column::from_strs(&["a", "b", "a"]);
        let codes = bin_codes(&col, BinStrategy::EqualWidth(4)).unwrap();
        assert_eq!(codes.cardinality, 2);
    }

    #[test]
    fn bin_to_column_labels() {
        let col = Column::from_f64(vec![0.0, 5.0, 10.0]);
        let binned = bin_to_column(&col, BinStrategy::EqualWidth(2)).unwrap();
        let a = binned.str_at(0).unwrap().to_string();
        let c = binned.str_at(2).unwrap().to_string();
        assert_ne!(a, c);
        assert!(a.starts_with('['));
        assert_eq!(binned.distinct_count(), 2);
    }

    #[test]
    fn bin_codes_int_column() {
        let col = Column::from_i64(vec![1, 2, 3, 100]);
        let codes = bin_codes(&col, BinStrategy::EqualWidth(2)).unwrap();
        assert_eq!(codes.cardinality, 2);
        assert_eq!(codes.codes, vec![0, 0, 0, 1]);
    }

    #[test]
    fn zero_bins_rejected() {
        assert!(compute_edges(&[1.0], BinStrategy::EqualWidth(0)).is_err());
    }

    #[test]
    fn quantile_heavy_ties_dedup() {
        let mut values = vec![1.0; 90];
        values.extend(vec![2.0; 10]);
        let edges = compute_edges(&values, BinStrategy::Quantile(4)).unwrap();
        // Ties collapse duplicate edges; result is still a valid edge vector.
        assert!(edges.len() >= 2);
        assert!(edges.windows(2).all(|w| w[0] < w[1] || edges.len() == 2));
    }

    #[test]
    fn nan_is_missing_in_quantile_bins() {
        let mut values: Vec<f64> = (0..40).map(f64::from).collect();
        values[7] = f64::NAN;
        let col = Column::from_f64(values);
        let codes = bin_codes(&col, BinStrategy::Quantile(4)).unwrap();
        assert!(!codes.is_valid(7));
        assert_eq!(codes.codes[7], 0);
        assert_eq!(codes.valid_count(), 39);
        assert_eq!(codes.cardinality, 4);
    }

    #[test]
    fn nan_is_missing_in_small_domains() {
        let col = Column::from_f64(vec![1.0, 2.0, f64::NAN, 1.0, 2.0]);
        let codes = bin_codes(&col, BinStrategy::Quantile(4)).unwrap();
        assert_eq!(codes.cardinality, 2);
        assert!(!codes.is_valid(2));
        assert_eq!(codes.codes, vec![0, 1, 0, 0, 1]);
        // An all-NaN column is an all-null one.
        let col = Column::from_f64(vec![f64::NAN; 3]);
        let codes = bin_codes(&col, BinStrategy::Quantile(4)).unwrap();
        assert_eq!((codes.cardinality, codes.valid_count()), (0, 0));
    }

    #[test]
    fn nan_is_missing_in_interval_labels() {
        let col = Column::from_f64(vec![0.0, 5.0, f64::NAN, 10.0]);
        let binned = bin_to_column(&col, BinStrategy::EqualWidth(2)).unwrap();
        assert!(binned.is_null(2));
        assert_eq!(binned.null_count(), 1);
    }

    /// The sort-based quantile edges the selection replaced: a test-only
    /// oracle.
    fn quantile_edges_by_sort(values: &[f64], n_bins: usize) -> Vec<f64> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let mut edges: Vec<f64> = (0..=n_bins)
            .map(|i| {
                let q = i as f64 / n_bins as f64;
                let pos = q * (sorted.len() - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                let frac = pos - lo as f64;
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac
            })
            .collect();
        edges.dedup_by(|a, b| a == b);
        if edges.len() < 2 {
            edges = vec![edges[0], edges[0]];
        }
        edges
    }

    /// Values with ties, signed zeros, infinities, NaN and constant runs.
    fn awkward_values(rng: &mut nexus_runtime::SplitMix64, n: usize) -> Vec<f64> {
        let palette = rng.next_below(40) + 1;
        let constant = rng.next_below(6) == 0;
        (0..n)
            .map(|_| match rng.next_below(if constant { 1 } else { 16 }) {
                0 if constant => 3.5,
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => f64::NAN,
                5 => rng.next_f64() * 1e6 - 5e5,
                _ => (rng.next_below(palette) as f64 - palette as f64 / 2.0) / 4.0,
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Selected quantile edges equal the stable sort's, bit for bit
        /// (sign of zero included), and the binner equals the binary
        /// search on every value.
        #[test]
        fn selected_edges_and_counting_bins_match_the_oracles(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..3000,
            n_bins in 1usize..17,
        ) {
            let mut rng = nexus_runtime::SplitMix64::new(seed);
            let values = awkward_values(&mut rng, n);
            let want = if values.iter().any(|v| v.is_finite()) {
                Some(quantile_edges_by_sort(&values, n_bins))
            } else {
                None
            };
            let got = compute_edges(&values, BinStrategy::Quantile(n_bins)).ok();
            let bits = |e: &Option<Vec<f64>>| e.as_ref().map(|e| e.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            proptest::prop_assert_eq!(bits(&got), bits(&want), "n_bins {}", n_bins);
            if let Some(edges) = got {
                let binner = Binner::new(&edges);
                for &v in values.iter().filter(|v| !v.is_nan()) {
                    proptest::prop_assert_eq!(binner.bin(v), assign_bin(v, &edges), "v {} edges {:?}", v, edges);
                }
            }
        }

        /// The binner equals the binary search on arbitrary edge vectors:
        /// sorted, with ties, non-monotone, and wider than the counting
        /// form.
        #[test]
        fn binner_matches_assign_bin_on_any_edges(
            seed in proptest::prelude::any::<u64>(),
            len in 2usize..20,
        ) {
            let mut rng = nexus_runtime::SplitMix64::new(seed);
            let mut edges: Vec<f64> = (0..len).map(|_| rng.next_below(12) as f64 - 6.0).collect();
            if rng.next_below(2) == 0 {
                edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
                edges.dedup();
                if edges.len() < 2 {
                    edges.push(edges[0] + 1.0);
                }
            }
            let binner = Binner::new(&edges);
            for v in [f64::NEG_INFINITY, -7.0, -6.0, -0.0, 0.0, 0.5, 5.0, 6.0, 99.0, f64::INFINITY] {
                proptest::prop_assert_eq!(binner.bin(v), assign_bin(v, &edges), "v {} edges {:?}", v, edges);
            }
        }
    }
}

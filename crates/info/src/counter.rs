//! Joint-distribution counting over composite categorical keys.
//!
//! The estimators in this crate reduce every quantity to weighted counts of
//! composite keys built from one or more [`Codes`] variables. Keys are
//! mixed-radix encoded (first variable is the fastest digit). The
//! accumulator is a dense vector when the key space is small, or within
//! 32× the rows about to be scanned (under a hard cap), and a hash map
//! otherwise (`OpenCounts::for_scan`, the one counting policy for every
//! route). A hash map is drained once, when the build ends, into a
//! key-sorted vector, so either way an [`Accumulator`]'s cells iterate in
//! ascending key order without sorting again.
//!
//! # Folding the counts
//!
//! Counting and folding are separate. Every entropy over the counted
//! cells drains through [`crate::fold`]: the joint's own entropy pushes
//! its cells straight into an [`EntropyFold`], and a marginal over a
//! subset of the variables adds the joint's cells, in key order, into a
//! [`Marginal`], which drains in ascending marginal-key order. Whether a
//! marginal sums into a flat table or sorts its adds is decided by the
//! fold module's single policy, [`crate::fold::dense`], and never changes
//! the bits.
//!
//! # Kernel v2 scan loop
//!
//! The vectorized path folds the WHERE mask and every validity bitmap into
//! one packed selection bitmap and scans it **word at a time**: all-zero
//! 64-bit words are skipped without touching a row (counted in
//! `packed_words_skipped`), set bits inside surviving words decode with
//! `trailing_zeros`. Keys stay in one machine word up to 64-bit key spaces
//! (checked once per build) with a `u128` fallback beyond.
//!
//! Unweighted scans *run-coalesce*: a run of `r` consecutive rows with the
//! same composite key becomes one `counts[key] += r` write. Every
//! unweighted increment is exactly `1.0`, so the coalesced add stores the
//! same exact integer the per-row adds would have — bit-identical, while
//! `dense_ops`/`hash_ops` now count accumulator writes, not rows. Weighted
//! scans keep strict per-row, ascending-order accumulation because f64
//! weight sums are order-sensitive in their low bits.

use std::collections::HashMap;

use nexus_table::{complete_case_mask, Bitmap, Codes};

use crate::fold::{EntropyFold, Marginal};
use crate::kernel;

/// Key space above which we switch from dense vectors to hash maps.
const DENSE_LIMIT: u128 = 1 << 21;

/// The weighted counts of a finished build, over composite keys.
#[derive(Debug)]
pub enum Accumulator {
    /// Dense counts indexed by key.
    Dense(Vec<f64>),
    /// Sparse counts for large key spaces: the occupied cells, sorted by
    /// key.
    Sparse(Vec<(u128, f64)>),
}

/// The counts of a build in progress: dense, or hashed until the build
/// ends.
#[derive(Debug)]
enum OpenCounts {
    Dense(Vec<f64>),
    Hashed(HashMap<u128, f64>),
}

impl OpenCounts {
    /// Row-aware dense policy for the kernel path. Dense is always taken
    /// under the unconditional budget, and still pays for larger key
    /// spaces when the space is within a small multiple of the rows about
    /// to be scanned — the zeroed table amortizes against the per-row
    /// hashing it replaces. The hard cap bounds the transient allocation
    /// (2^25 f64 cells = 256 MiB).
    fn for_scan(space: u128, rows_to_scan: u128) -> OpenCounts {
        const DENSE_ROWS_FACTOR: u128 = 32;
        const DENSE_HARD_CAP: u128 = 1 << 25;
        let dense = space <= DENSE_LIMIT
            || (space <= DENSE_HARD_CAP && space <= rows_to_scan.saturating_mul(DENSE_ROWS_FACTOR));
        if dense {
            OpenCounts::Dense(vec![0.0; space as usize])
        } else {
            OpenCounts::Hashed(HashMap::new())
        }
    }

    #[inline]
    fn add(&mut self, key: u128, w: f64) {
        match self {
            OpenCounts::Dense(v) => v[key as usize] += w,
            OpenCounts::Hashed(m) => *m.entry(key).or_insert(0.0) += w,
        }
    }

    /// Ends the build: hashed cells drain into a key-sorted vector. Each
    /// key's adds were already summed in row order, so sorting the
    /// finished cells moves no bit.
    fn finish(self) -> Accumulator {
        match self {
            OpenCounts::Dense(v) => Accumulator::Dense(v),
            OpenCounts::Hashed(m) => {
                let mut cells: Vec<(u128, f64)> = m.into_iter().collect();
                cells.sort_unstable_by_key(|&(k, _)| k);
                Accumulator::Sparse(cells)
            }
        }
    }
}

impl Accumulator {
    /// Iterates over `(key, count)` pairs with nonzero count, **in key
    /// order**. Deterministic order matters: these counts feed f64
    /// entropy sums, whose low bits depend on summation order — and
    /// NEXUS guarantees bit-identical results across runs and thread
    /// counts.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (u128, f64)> + '_> {
        match self {
            Accumulator::Dense(v) => Box::new(
                v.iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0.0)
                    .map(|(k, &c)| (k as u128, c)),
            ),
            Accumulator::Sparse(cells) => Box::new(cells.iter().copied()),
        }
    }

    /// Number of distinct keys with nonzero count.
    pub fn n_cells(&self) -> usize {
        match self {
            Accumulator::Dense(v) => v.iter().filter(|&&c| c > 0.0).count(),
            Accumulator::Sparse(cells) => cells.len(),
        }
    }
}

/// Per-build scan accounting: accumulator writes performed and all-zero
/// packed selection words skipped.
#[derive(Debug, Default)]
struct ScanTally {
    adds: u64,
    words_skipped: u64,
}

/// Dispatches the vectorized scan across (packed mask | full range) ×
/// (weighted | unweighted), keeping every hot loop monomorphic in the key
/// type.
#[allow(clippy::too_many_arguments)]
fn scan_vectorized<K, F>(
    selection: Option<&Bitmap>,
    n: usize,
    key_of: F,
    weights: Option<&[f64]>,
    counts: &mut OpenCounts,
    total: &mut f64,
    rows: &mut usize,
    tally: &mut ScanTally,
) where
    K: Copy + PartialEq + Into<u128>,
    F: Fn(usize) -> K,
{
    match (selection, weights) {
        (Some(sel), None) => scan_packed_unweighted(sel.words(), &key_of, counts, rows, tally),
        (Some(sel), Some(w)) => {
            scan_packed_weighted(sel.words(), &key_of, w, counts, total, rows, tally)
        }
        (None, None) => scan_range_unweighted(n, &key_of, counts, rows, tally),
        (None, Some(w)) => scan_range_weighted(n, &key_of, w, counts, total, rows, tally),
    }
    if weights.is_none() {
        // Unweighted increments are exactly 1.0, so the running total is
        // the exact integer `rows` — identical to summing 1.0 per row.
        *total = *rows as f64;
    }
}

/// Packed-mask scan, unweighted: skips all-zero selection words, decodes
/// set bits with `trailing_zeros`, and run-coalesces consecutive equal
/// keys into one exact-integer add.
fn scan_packed_unweighted<K, F>(
    words: &[u64],
    key_of: &F,
    counts: &mut OpenCounts,
    rows: &mut usize,
    tally: &mut ScanTally,
) where
    K: Copy + PartialEq + Into<u128>,
    F: Fn(usize) -> K,
{
    let mut last: Option<K> = None;
    let mut run = 0.0f64;
    for (wi, &w) in words.iter().enumerate() {
        if w == 0 {
            tally.words_skipped += 1;
            continue;
        }
        let base = wi * 64;
        let mut bits = w;
        while bits != 0 {
            let i = base + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let key = key_of(i);
            if last == Some(key) {
                run += 1.0;
            } else {
                if let Some(k) = last {
                    counts.add(k.into(), run);
                    tally.adds += 1;
                }
                last = Some(key);
                run = 1.0;
            }
            *rows += 1;
        }
    }
    if let Some(k) = last {
        counts.add(k.into(), run);
        tally.adds += 1;
    }
}

/// Packed-mask scan, weighted: strict per-row ascending accumulation (f64
/// weight sums are order-sensitive), zero/negative weights skipped.
#[allow(clippy::too_many_arguments)]
fn scan_packed_weighted<K, F>(
    words: &[u64],
    key_of: &F,
    weights: &[f64],
    counts: &mut OpenCounts,
    total: &mut f64,
    rows: &mut usize,
    tally: &mut ScanTally,
) where
    K: Copy + PartialEq + Into<u128>,
    F: Fn(usize) -> K,
{
    for (wi, &w) in words.iter().enumerate() {
        if w == 0 {
            tally.words_skipped += 1;
            continue;
        }
        let base = wi * 64;
        let mut bits = w;
        while bits != 0 {
            let i = base + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let wt = weights[i];
            if wt <= 0.0 {
                continue;
            }
            counts.add(key_of(i).into(), wt);
            tally.adds += 1;
            *total += wt;
            *rows += 1;
        }
    }
}

/// Unconstrained scan (no mask, no nulls), unweighted, run-coalesced.
fn scan_range_unweighted<K, F>(
    n: usize,
    key_of: &F,
    counts: &mut OpenCounts,
    rows: &mut usize,
    tally: &mut ScanTally,
) where
    K: Copy + PartialEq + Into<u128>,
    F: Fn(usize) -> K,
{
    let mut last: Option<K> = None;
    let mut run = 0.0f64;
    for i in 0..n {
        let key = key_of(i);
        if last == Some(key) {
            run += 1.0;
        } else {
            if let Some(k) = last {
                counts.add(k.into(), run);
                tally.adds += 1;
            }
            last = Some(key);
            run = 1.0;
        }
    }
    *rows = n;
    if let Some(k) = last {
        counts.add(k.into(), run);
        tally.adds += 1;
    }
}

/// Unconstrained scan, weighted, strict per-row order.
fn scan_range_weighted<K, F>(
    n: usize,
    key_of: &F,
    weights: &[f64],
    counts: &mut OpenCounts,
    total: &mut f64,
    rows: &mut usize,
    tally: &mut ScanTally,
) where
    K: Copy + PartialEq + Into<u128>,
    F: Fn(usize) -> K,
{
    for (i, &wt) in weights.iter().enumerate().take(n) {
        if wt <= 0.0 {
            continue;
        }
        counts.add(key_of(i).into(), wt);
        tally.adds += 1;
        *total += wt;
        *rows += 1;
    }
}

/// The per-row masked scan: visits rows in ascending order, tests the mask
/// and every validity bitmap per row, and adds each surviving row's weight
/// (zero/negative weights skipped) under its mixed-radix key. Returns
/// `(total, rows)`. This is the route for tables whose row indices exceed
/// `u32` (the packed selection scan cannot address them), and the
/// reference the vectorized scan is tested against.
fn scan_rows(
    vars: &[&Codes],
    mask: Option<&Bitmap>,
    weights: Option<&[f64]>,
    radices: &[u128],
    counts: &mut OpenCounts,
) -> (f64, usize) {
    let validities: Vec<&Bitmap> = vars.iter().filter_map(|v| v.validity.as_ref()).collect();
    let mut total = 0.0;
    let mut rows = 0usize;
    'rows: for i in 0..vars[0].len() {
        if let Some(m) = mask {
            if !m.get(i) {
                continue;
            }
        }
        for b in &validities {
            if !b.get(i) {
                continue 'rows;
            }
        }
        let mut key = 0u128;
        // Mixed radix, last variable as the most significant digit.
        for (v, r) in vars.iter().zip(radices).rev() {
            key = key * r + v.codes[i] as u128;
        }
        let w = weights.map_or(1.0, |w| w[i]);
        if w <= 0.0 {
            continue;
        }
        counts.add(key, w);
        total += w;
        rows += 1;
    }
    (total, rows)
}

/// Weighted joint counts over a set of variables.
#[derive(Debug)]
pub struct JointCounts {
    /// The accumulator of weighted counts.
    pub counts: Accumulator,
    /// Cardinality (radix) of each variable, fastest digit first.
    pub radices: Vec<u128>,
    /// Total weight over counted rows.
    pub total: f64,
    /// Number of rows counted (unweighted).
    pub rows: usize,
}

impl JointCounts {
    /// Counts the joint distribution of `vars` over rows that are
    ///
    /// * within `mask` (if given),
    /// * valid (non-null) in **every** variable,
    ///
    /// each contributing `weights[row]` (or 1).
    ///
    /// All variables must share the same length; `vars` must be non-empty.
    ///
    /// Tables with more rows than `u32` indices address take the per-row
    /// scan; the result is bit-identical either way (rows are visited in
    /// ascending order, so every f64 accumulation order is preserved).
    pub fn count(vars: &[&Codes], mask: Option<&Bitmap>, weights: Option<&[f64]>) -> JointCounts {
        Self::count_impl(vars, mask, weights, false)
    }

    /// [`JointCounts::count`] with the accumulator forced sparse — a test
    /// hook so the equivalence suite can pit dense against hashed builds
    /// on key spaces that would normally dispatch dense.
    pub fn count_forced_sparse(
        vars: &[&Codes],
        mask: Option<&Bitmap>,
        weights: Option<&[f64]>,
    ) -> JointCounts {
        Self::count_impl(vars, mask, weights, true)
    }

    fn count_impl(
        vars: &[&Codes],
        mask: Option<&Bitmap>,
        weights: Option<&[f64]>,
        force_sparse: bool,
    ) -> JointCounts {
        assert!(
            !vars.is_empty(),
            "JointCounts requires at least one variable"
        );
        let n = vars[0].len();
        for v in vars {
            assert_eq!(v.len(), n, "variable length mismatch");
        }
        if let Some(w) = weights {
            assert_eq!(w.len(), n, "weights length mismatch");
        }
        if let Some(m) = mask {
            assert_eq!(m.len(), n, "mask length mismatch");
        }

        let radices: Vec<u128> = vars
            .iter()
            .map(|v| (v.cardinality as u128).max(1))
            .collect();
        let space: u128 = radices
            .iter()
            .try_fold(1u128, |acc, &r| acc.checked_mul(r))
            .expect("joint key space exceeds u128");
        let vectorized = n <= u32::MAX as usize;
        // Fold the mask and every validity bitmap into one packed
        // word-level AND. `None` means no constraint exists and `0..n` is
        // the selection. Computed before the accumulator so the dense
        // decision can be row-aware.
        let selection: Option<Option<Bitmap>> = if vectorized {
            let validities: Vec<&Bitmap> =
                vars.iter().filter_map(|v| v.validity.as_ref()).collect();
            Some(complete_case_mask(n, mask, &validities))
        } else {
            None
        };
        let rows_to_scan = match &selection {
            Some(Some(s)) => s.count_ones(),
            _ => n,
        };

        let mut counts = if force_sparse {
            OpenCounts::Hashed(HashMap::new())
        } else {
            OpenCounts::for_scan(space, rows_to_scan as u128)
        };
        let mut total = 0.0;
        let mut rows = 0usize;
        let mut tally = ScanTally::default();

        let rows_scanned: u64;
        if let Some(selection) = selection {
            rows_scanned = rows_to_scan as u64;
            if space <= u64::MAX as u128 {
                // All keys fit u64: mixed-radix arithmetic in one word.
                let radices64: Vec<u64> = radices.iter().map(|&r| r as u64).collect();
                let key_of = |i: usize| -> u64 {
                    let mut key = 0u64;
                    for (v, r) in vars.iter().zip(&radices64).rev() {
                        key = key * r + v.codes[i] as u64;
                    }
                    key
                };
                scan_vectorized(
                    selection.as_ref(),
                    n,
                    key_of,
                    weights,
                    &mut counts,
                    &mut total,
                    &mut rows,
                    &mut tally,
                );
            } else {
                let key_of = |i: usize| -> u128 {
                    let mut key = 0u128;
                    for (v, r) in vars.iter().zip(&radices).rev() {
                        key = key * r + v.codes[i] as u128;
                    }
                    key
                };
                scan_vectorized(
                    selection.as_ref(),
                    n,
                    key_of,
                    weights,
                    &mut counts,
                    &mut total,
                    &mut rows,
                    &mut tally,
                );
            }
        } else {
            rows_scanned = n as u64;
            (total, rows) = scan_rows(vars, mask, weights, &radices, &mut counts);
            // One accumulator op per counted row.
            tally.adds = rows as u64;
        }

        // One batched counter update per build. `tally.adds` counts
        // accumulator writes — equal to counted rows on the row-scan and
        // weighted paths, and the (smaller) number of coalesced runs on
        // unweighted vectorized scans.
        let dense = matches!(counts, OpenCounts::Dense(_));
        let counters = kernel::counters();
        counters.record_build(
            rows_scanned,
            if dense { 0 } else { tally.adds },
            if dense { tally.adds } else { 0 },
            dense,
        );
        if tally.words_skipped > 0 {
            counters.record_packed_words_skipped(tally.words_skipped);
        }

        JointCounts {
            counts: counts.finish(),
            radices,
            total,
            rows,
        }
    }

    /// Shannon entropy (bits) of the counted joint distribution.
    pub fn entropy(&self) -> f64 {
        self.fold().entropy(self.total)
    }

    /// Plug-in entropy together with the number of occupied cells
    /// (for Miller–Madow bias correction), from one walk over the cells.
    pub fn entropy_and_cells(&self) -> (f64, usize) {
        self.fold().entropy_and_cells(self.total)
    }

    /// Entropy (bits) of the marginal over the variable subset `keep`
    /// (indices into the original `vars` order).
    pub fn marginal_entropy(&self, keep: &[usize]) -> f64 {
        self.marginal_entropy_and_cells(keep).0
    }

    /// Marginal plug-in entropy together with its occupied-cell count.
    pub fn marginal_entropy_and_cells(&self, keep: &[usize]) -> (f64, usize) {
        self.marginal_fold(keep).entropy_and_cells(self.total)
    }

    /// The joint's cells, in ascending key order, folded.
    pub(crate) fn fold(&self) -> EntropyFold {
        let mut fold = EntropyFold::default();
        self.counts.iter().for_each(|(_, c)| fold.push(c));
        fold
    }

    /// The marginal over `keep`, folded: the joint's cells, in ascending
    /// key order, add into a [`Marginal`] over the kept variables' key
    /// space, which drains in ascending marginal-key order. Each marginal
    /// cell sums its joint cells in key order, so the fold is
    /// reproducible bit for bit.
    pub(crate) fn marginal_fold(&self, keep: &[usize]) -> EntropyFold {
        let space = keep.iter().map(|&k| self.radices[k]).product();
        let mut marg = Marginal::new(space, self.counts.n_cells());
        for (key, c) in self.counts.iter() {
            marg.add(self.project(key, keep), c);
        }
        marg.into_fold()
    }

    /// Projects a composite key onto the variable subset `keep`.
    #[inline]
    fn project(&self, mut key: u128, keep: &[usize]) -> u128 {
        // Decode all digits, re-encode the kept ones.
        let mut digits = [0u128; 16];
        assert!(self.radices.len() <= 16, "too many joint variables");
        for (d, &r) in self.radices.iter().enumerate() {
            digits[d] = key % r;
            key /= r;
        }
        let mut out = 0u128;
        for &k in keep.iter().rev() {
            out = out * self.radices[k] + digits[k];
        }
        out
    }
}

/// Miller–Madow bias-corrected entropy in bits:
/// `Ĥ_MM = Ĥ + (K − 1) / (2 N ln 2)` where `K` is the number of occupied
/// cells and `N` the (weighted) sample size. The plug-in estimator
/// underestimates entropy by roughly this amount, which systematically
/// *deflates* conditional mutual information on small supports — exactly
/// the regime where sparsely-observed KG attributes would otherwise look
/// like spuriously perfect explanations.
pub fn entropy_mm(h_plugin: f64, cells: usize, total: f64) -> f64 {
    if total <= 0.0 {
        return h_plugin;
    }
    h_plugin + cells.saturating_sub(1) as f64 / (2.0 * total * std::f64::consts::LN_2)
}

/// Entropy in bits from raw weighted counts and their total.
pub fn entropy_from_counts(counts: impl Iterator<Item = f64>, total: f64) -> f64 {
    let mut fold = EntropyFold::default();
    counts.for_each(|c| fold.push(c));
    fold.entropy(total)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn codes(values: &[u32], card: u32) -> Codes {
        Codes {
            codes: values.to_vec(),
            cardinality: card,
            validity: None,
        }
    }

    #[test]
    fn uniform_entropy_is_log2() {
        let x = codes(&[0, 1, 2, 3], 4);
        let j = JointCounts::count(&[&x], None, None);
        assert!((j.entropy() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_entropy_is_zero() {
        let x = codes(&[1, 1, 1], 3);
        let j = JointCounts::count(&[&x], None, None);
        assert!(j.entropy().abs() < 1e-12);
    }

    #[test]
    fn joint_counts_respect_mask_and_validity() {
        let mut x = codes(&[0, 1, 0, 1], 2);
        let mut validity = Bitmap::with_value(4, true);
        validity.set(3, false);
        x.validity = Some(validity);
        let mask: Bitmap = vec![true, true, false, true].into_iter().collect();
        let j = JointCounts::count(&[&x], Some(&mask), None);
        // rows 0 and 1 survive (2 masked out, 3 null)
        assert_eq!(j.rows, 2);
        assert!((j.entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_shift_distribution() {
        let x = codes(&[0, 1], 2);
        let j = JointCounts::count(&[&x], None, Some(&[3.0, 1.0]));
        // p = (0.75, 0.25): H = 0.8113
        assert!((j.entropy() - 0.8112781244591328).abs() < 1e-9);
        assert_eq!(j.total, 4.0);
    }

    #[test]
    fn marginal_matches_direct_count() {
        let x = codes(&[0, 0, 1, 1, 0], 2);
        let y = codes(&[0, 1, 0, 1, 1], 2);
        let j = JointCounts::count(&[&x, &y], None, None);
        let hx_direct = JointCounts::count(&[&x], None, None).entropy();
        let hy_direct = JointCounts::count(&[&y], None, None).entropy();
        assert!((j.marginal_entropy(&[0]) - hx_direct).abs() < 1e-12);
        assert!((j.marginal_entropy(&[1]) - hy_direct).abs() < 1e-12);
        assert!((j.marginal_entropy(&[0, 1]) - j.entropy()).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_rows_skipped() {
        let x = codes(&[0, 1], 2);
        let j = JointCounts::count(&[&x], None, Some(&[1.0, 0.0]));
        assert_eq!(j.rows, 1);
        assert!(j.entropy().abs() < 1e-12);
    }

    #[test]
    fn large_cardinality_uses_sparse() {
        // Force the sparse path with a huge synthetic cardinality.
        let x = codes(&[0, 1, 2], 3_000_000);
        let j = JointCounts::count(&[&x], None, None);
        assert!(matches!(j.counts, Accumulator::Sparse(_)));
        assert!((j.entropy() - (3.0f64).log2()).abs() < 1e-12);
    }

    /// The row-aware cut of [`OpenCounts::for_scan`]: a 2016 × 2000 =
    /// 4,032,000-cell key space is past `DENSE_LIMIT`, so it goes dense
    /// only from 4,032,000 / 32 = 126,000 counted rows up. This is the
    /// shape of FL-Q4's hashed MCIMR backstop joints at 20,000 rows.
    #[test]
    fn row_aware_dense_cut_moves_the_counters() {
        let space = 2016 * 2000;
        assert!(space > DENSE_LIMIT);
        for (n, dense) in [(20_000u32, false), (125_999, false), (126_000, true)] {
            // Consecutive rows never share a key, so no run coalesces.
            let a = codes(&(0..n).map(|i| i % 2016).collect::<Vec<_>>(), 2016);
            let b = codes(&(0..n).map(|i| i % 2000).collect::<Vec<_>>(), 2000);
            let before = crate::kernel::counters().snapshot();
            let j = JointCounts::count(&[&a, &b], None, None);
            let d = crate::kernel::counters().snapshot().delta(&before);
            assert_eq!(matches!(j.counts, Accumulator::Dense(_)), dense, "{n} rows");
            assert_eq!(j.total, n as f64);
            // The counters are process-global, so these are lower bounds.
            let n = u64::from(n);
            if dense {
                assert!(d.dense_builds >= 1 && d.dense_ops >= n, "{n} rows: {d:?}");
            } else {
                assert!(d.sparse_builds >= 1 && d.hash_ops >= n, "{n} rows: {d:?}");
            }
        }
    }

    #[test]
    fn entropy_from_counts_empty() {
        assert_eq!(entropy_from_counts(std::iter::empty(), 0.0), 0.0);
    }

    /// Collects `(key, count)` cells for bitwise comparison across paths.
    fn cells(j: &JointCounts) -> Vec<(u128, u64)> {
        j.counts.iter().map(|(k, c)| (k, c.to_bits())).collect()
    }

    /// The per-row reference: [`scan_rows`], the route `count` takes for
    /// tables beyond `u32` rows, run on a table of any size.
    fn count_rows(vars: &[&Codes], mask: Option<&Bitmap>, weights: Option<&[f64]>) -> JointCounts {
        let radices: Vec<u128> = vars
            .iter()
            .map(|v| (v.cardinality as u128).max(1))
            .collect();
        let mut counts = OpenCounts::for_scan(radices.iter().product(), vars[0].len() as u128);
        let (total, rows) = scan_rows(vars, mask, weights, &radices, &mut counts);
        JointCounts {
            counts: counts.finish(),
            radices,
            total,
            rows,
        }
    }

    /// Deterministic xorshift for the random tables below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// A random bitmap that leaves whole 64-row words empty now and then,
    /// so the packed scan's zero-word skip is exercised.
    fn random_bitmap(rng: &mut Rng, n: usize) -> Bitmap {
        let empty_words: Vec<bool> = (0..n.div_ceil(64)).map(|_| rng.below(4) == 0).collect();
        (0..n)
            .map(|i| !empty_words[i / 64] && rng.below(5) != 0)
            .collect()
    }

    /// Cardinality classes: narrow dense spaces; spaces past the dense
    /// budget; and (three or more variables) spaces past u64 keys.
    const CARDS: [&[u32]; 3] = [
        &[1, 2, 3, 7, 256, 257],
        &[2, 7, 257, 5_000, 3_000_000],
        &[3_000_000, u32::MAX],
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The vectorized scan (dense and forced sparse) reproduces the
        /// per-row reference bit for bit: random codes with runs, every
        /// cardinality class, masks, validity bitmaps, and weights with
        /// zeros.
        #[test]
        fn vectorized_scan_matches_row_scan_bitwise(
            seed in any::<u64>(),
            n in 1usize..700,
            n_vars in 1usize..4,
            class in 0usize..3,
        ) {
            let mut rng = Rng(seed | 1);
            let (cards, n_vars) = (CARDS[class], if class == 2 { 3 } else { n_vars });
            let vars: Vec<Codes> = (0..n_vars)
                .map(|_| {
                    let card = cards[rng.below(cards.len() as u64) as usize];
                    let mut values = Vec::with_capacity(n);
                    for i in 0..n {
                        let value = if i > 0 && rng.below(2) == 0 {
                            values[i - 1]
                        } else {
                            rng.below(card as u64) as u32
                        };
                        values.push(value);
                    }
                    let mut c = codes(&values, card);
                    if rng.below(2) == 0 {
                        c.validity = Some(random_bitmap(&mut rng, n));
                    }
                    c
                })
                .collect();
            let refs: Vec<&Codes> = vars.iter().collect();
            let mask = (rng.below(2) == 0).then(|| random_bitmap(&mut rng, n));
            let weights: Option<Vec<f64>> = (rng.below(2) == 0).then(|| {
                (0..n)
                    .map(|_| match rng.below(4) {
                        0 => 0.0,
                        k => k as f64 * 0.375 + rng.below(1000) as f64 / 997.0,
                    })
                    .collect()
            });
            let (mask, weights) = (mask.as_ref(), weights.as_deref());

            let reference = count_rows(&refs, mask, weights);
            let vectorized = JointCounts::count(&refs, mask, weights);
            let sparse = JointCounts::count_forced_sparse(&refs, mask, weights);
            prop_assert!(matches!(sparse.counts, Accumulator::Sparse(_)));
            for j in [&vectorized, &sparse] {
                prop_assert_eq!(j.rows, reference.rows);
                prop_assert_eq!(j.total.to_bits(), reference.total.to_bits());
                prop_assert_eq!(cells(j), cells(&reference));
                prop_assert_eq!(j.entropy().to_bits(), reference.entropy().to_bits());
            }
        }
    }

    #[test]
    fn entropy_and_cells_matches_separate_walks() {
        let x = codes(&[0, 3, 1, 2, 3, 0, 1, 1, 2, 0], 4);
        let y = codes(&[1, 0, 1, 0, 1, 1, 0, 0, 1, 1], 2);
        let weights = [0.5, 1.25, 2.0, 0.0, 1.0, 3.5, 0.75, 1.0, 0.25, 0.1];
        for w in [None, Some(&weights[..])] {
            let dense = JointCounts::count(&[&x, &y], None, w);
            let sparse = JointCounts::count_forced_sparse(&[&x, &y], None, w);
            for j in [&dense, &sparse] {
                let (h, k) = j.entropy_and_cells();
                assert_eq!(h.to_bits(), j.entropy().to_bits());
                assert_eq!(k, j.counts.n_cells());
            }
        }
    }

    #[test]
    fn builds_move_kernel_counters() {
        let x = codes(&[0, 1, 0, 1], 2);
        let before = crate::kernel::counters().snapshot();
        let j = JointCounts::count(&[&x], None, None);
        assert!(matches!(j.counts, Accumulator::Dense(_)));
        let d = crate::kernel::counters().snapshot().delta(&before);
        assert!(d.rows_scanned >= 4);
        assert!(d.dense_ops >= 4);
        assert!(d.dense_builds >= 1);
    }
}

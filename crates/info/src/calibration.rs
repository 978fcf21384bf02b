//! Row-level calibration nulls over a compact copy of the rows.
//!
//! The engine calibrates a row-level candidate `E` by re-scoring
//! `I(O;T|E)` (Miller–Madow) with `E` shuffled over its in-context valid
//! rows, a handful of times. Counting each shuffle with a full-table
//! [`JointCounts`](crate::JointCounts) build walks every row of the table
//! and folds three marginals through ordered maps; [`CalibrationRows`]
//! copies the rows a sample counts once and re-counts only those.
//!
//! The result is bit-identical to the full-table build: the joint
//! `(O, T, E)` keys `o + |O|·(t + |T|·e)` (first variable fastest), so
//! each `e` block of the `(e, t, o)` table is one stratum of the shared
//! walks in [`crate::fold`], folded in the joint's key order. The counts
//! are unweighted exact integers, so only the folds' order matters.

use nexus_table::{Bitmap, Codes};

use crate::fold::{self, CmiFolds};
use crate::kernel;

/// Marks a domain row that no sample counts (`O` or `T` is null), and
/// in the exposure column a null `T`.
const NULL: u32 = u32::MAX;

/// The shuffle domain of a row-level calibration null, copied once: the
/// context rows where `E` is valid, in ascending row order, each with its
/// `O` and `T` codes. A sample shuffles `E` over every domain row and
/// counts those valid in `O` and `T`. Scratch buffers are reused across
/// samples.
#[derive(Debug)]
pub struct CalibrationRows {
    /// `O` code per domain row; [`NULL`] when the row is not counted.
    o: Vec<u32>,
    /// `T` code per domain row; [`NULL`] when `T` is null.
    t: Vec<u32>,
    /// Number of counted rows.
    counted: usize,
    card_o: usize,
    card_t: usize,
    /// All-zero 64-row words of the counted selection: the words a
    /// full-table packed scan skips, recorded with each sample.
    words_skipped: u64,
    /// The dense `(e, t, o)` table.
    table: Vec<f64>,
    /// Per-`o` sums of one `e` block of the dense table.
    cols: Vec<f64>,
    /// Sparse tables: `(e, t, o)` per counted row.
    keys: Vec<(u32, u32, u32)>,
    /// Sparse tables: the sorted walk's `(t, o, count)` cells.
    cells: Vec<(u32, u32, f64)>,
}

impl CalibrationRows {
    /// Copies the shuffle domain of `e`: the rows inside `mask` where `e`
    /// is valid. Returns the copy and `e`'s codes on those rows, in
    /// domain order.
    pub fn new(o: &Codes, t: &Codes, e: &Codes, mask: &Bitmap) -> (CalibrationRows, Vec<u32>) {
        let mut rows = CalibrationRows {
            o: Vec::new(),
            t: Vec::new(),
            counted: 0,
            card_o: o.cardinality.max(1) as usize,
            card_t: t.cardinality.max(1) as usize,
            words_skipped: 0,
            table: Vec::new(),
            cols: Vec::new(),
            keys: Vec::new(),
            cells: Vec::new(),
        };
        let mut vals = Vec::new();
        let mut occupied_words = 0u64;
        let mut last_word = None;
        for i in (0..e.len()).filter(|&i| mask.get(i) && e.is_valid(i)) {
            vals.push(e.codes[i]);
            let t_code = if t.is_valid(i) { t.codes[i] } else { NULL };
            let counted = o.is_valid(i) && t_code != NULL;
            rows.o.push(if counted { o.codes[i] } else { NULL });
            rows.t.push(t_code);
            if counted {
                rows.counted += 1;
                if last_word != Some(i / 64) {
                    last_word = Some(i / 64);
                    occupied_words += 1;
                }
            }
        }
        rows.words_skipped = e.len().div_ceil(64) as u64 - occupied_words;
        (rows, vals)
    }

    /// Number of rows each sample counts.
    fn rows(&self) -> usize {
        self.counted
    }

    /// The `T` code of each domain row, `None` where `T` is null.
    pub fn exposures(&self) -> impl Iterator<Item = Option<u32>> + '_ {
        self.t.iter().map(|&t| (t != NULL).then_some(t))
    }

    /// The Miller–Madow `I(O;T|E)` of one shuffle, bit-identical to a
    /// full-table [`JointCounts`](crate::JointCounts) build over
    /// `(O, T, E)`. `e_of(j, t)` gives the shuffled `E` code of the counted
    /// domain row `j`, whose exposure code is `t`; `card_e` is `E`'s
    /// cardinality.
    ///
    /// Records one dense kernel build over the counted rows, with the
    /// accumulator writes a run-coalesced row scan makes.
    pub fn cmi_mm(&mut self, card_e: u32, e_of: impl Fn(usize, u32) -> u32) -> f64 {
        let m = self.rows();
        let cells = card_e.max(1) as u128 * self.card_t as u128 * self.card_o as u128;
        let mut folds = CmiFolds::default();
        let writes = if fold::dense(cells, m) {
            self.count_dense(cells as usize, &e_of, &mut folds)
        } else {
            self.count_sorted(&e_of, &mut folds)
        };
        let counters = kernel::counters();
        counters.record_build(m as u64, 0, writes, true);
        if self.words_skipped > 0 {
            counters.record_packed_words_skipped(self.words_skipped);
        }
        folds.cmi_mm(m as f64, true)
    }

    /// Counts the counted rows into the dense `(e, t, o)` table,
    /// run-coalescing equal consecutive keys, and folds it one `e` block
    /// at a time. Returns the accumulator writes.
    fn count_dense(
        &mut self,
        cells: usize,
        e_of: &impl Fn(usize, u32) -> u32,
        f: &mut CmiFolds,
    ) -> u64 {
        let (nt, no) = (self.card_t, self.card_o);
        self.table.resize(cells, 0.0);
        let table = &mut self.table[..cells];
        let mut writes = 0u64;
        let mut last = usize::MAX;
        let mut run = 0.0;
        for (j, (&o, &t)) in self.o.iter().zip(&self.t).enumerate() {
            if o == NULL {
                continue;
            }
            let key = (e_of(j, t) as usize * nt + t as usize) * no + o as usize;
            if key == last {
                run += 1.0;
            } else {
                if last != usize::MAX {
                    table[last] += run;
                    writes += 1;
                }
                last = key;
                run = 1.0;
            }
        }
        if last != usize::MAX {
            table[last] += run;
            writes += 1;
        }
        for block in table.chunks_exact_mut(nt * no) {
            fold::walk_dense(block, no, &mut self.cols, f);
        }
        writes
    }

    /// Sorts the counted rows' `(e, t, o)` keys and folds each `e` block's
    /// cells; for tables too sparse to walk densely. Returns the rows
    /// counted as the accumulator writes.
    fn count_sorted(&mut self, e_of: &impl Fn(usize, u32) -> u32, f: &mut CmiFolds) -> u64 {
        self.keys.clear();
        for (j, (&o, &t)) in self.o.iter().zip(&self.t).enumerate() {
            if o != NULL {
                self.keys.push((e_of(j, t), t, o));
            }
        }
        self.keys.sort_unstable();
        for block in self.keys.chunk_by(|a, b| a.0 == b.0) {
            let adds = block.iter().map(|&(_, t, o)| (t, o, 1.0));
            fold::walk_sorted(adds, &mut self.cells, f);
        }
        self.keys.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use nexus_table::complete_case_mask;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::{entropy_mm, JointCounts};

    fn random_codes(rng: &mut StdRng, n: usize, card: u32, nulls: bool) -> Codes {
        Codes {
            codes: (0..n).map(|_| rng.gen_range(0..card)).collect(),
            cardinality: card,
            validity: nulls.then(|| (0..n).map(|_| rng.gen_range(0..6) != 0).collect()),
        }
    }

    /// The full-table build the compact count replaces.
    fn oracle(o: &Codes, t: &Codes, e: &Codes, mask: &Bitmap) -> f64 {
        let joint = JointCounts::count(&[o, t, e], Some(mask), None);
        let n = joint.total;
        let (h_ote, k_ote) = joint.entropy_and_cells();
        let (h_oe, k_oe) = joint.marginal_entropy_and_cells(&[0, 2]);
        let (h_te, k_te) = joint.marginal_entropy_and_cells(&[1, 2]);
        let (h_e, k_e) = joint.marginal_entropy_and_cells(&[2]);
        (entropy_mm(h_oe, k_oe, n) + entropy_mm(h_te, k_te, n)
            - entropy_mm(h_ote, k_ote, n)
            - entropy_mm(h_e, k_e, n))
        .max(0.0)
    }

    /// Dense and sorted tables, with and without `O`/`T` nulls, match
    /// the full-table build bit for bit, and record the same rows and
    /// skipped words.
    #[test]
    fn matches_the_full_table_build() {
        let mut rng = StdRng::seed_from_u64(11);
        // (|O|, |T|, |E|, rows): dense tables, then tables far sparser
        // than their rows (the sorted fold).
        for (card_o, card_t, card_e, n) in [
            (3, 4, 5, 700),
            (2, 40, 7, 3000),
            (10, 90, 80, 500),
            (40, 60, 300, 900),
        ] {
            for nulls in [false, true] {
                let o = random_codes(&mut rng, n, card_o, nulls);
                let t = random_codes(&mut rng, n, card_t, nulls);
                let mut e = random_codes(&mut rng, n, card_e, true);
                // Zero words in the selection: a masked-out stretch.
                let mask: Bitmap = (0..n)
                    .map(|i| !(200..400).contains(&i) && i % 5 != 0)
                    .collect();
                let domain: Vec<usize> = (0..n).filter(|&i| mask.get(i) && e.is_valid(i)).collect();
                let (mut rows, vals) = CalibrationRows::new(&o, &t, &e, &mask);
                assert_eq!(vals, domain.iter().map(|&i| e.codes[i]).collect::<Vec<_>>());
                for _ in 0..3 {
                    let vals: Vec<u32> = domain.iter().map(|_| rng.gen_range(0..card_e)).collect();
                    for (&i, &v) in domain.iter().zip(&vals) {
                        e.codes[i] = v;
                    }
                    let got = rows.cmi_mm(card_e, |j, _| vals[j]);
                    let want = oracle(&o, &t, &e, &mask);
                    let what = format!("({card_o},{card_t},{card_e}) n={n} nulls={nulls}");
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}");
                }
                // The rows and zero words the full-table scan's packed
                // selection holds.
                let validities: Vec<&Bitmap> = [&o, &t, &e]
                    .iter()
                    .filter_map(|v| v.validity.as_ref())
                    .collect();
                let selection = complete_case_mask(n, Some(&mask), &validities).unwrap();
                assert_eq!(rows.rows(), selection.count_ones());
                let zero_words = selection.words().iter().filter(|&&w| w == 0).count();
                assert_eq!(rows.words_skipped, zero_words as u64);
            }
        }
    }
}

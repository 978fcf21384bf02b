//! The cell fold: every entropy in NEXUS drains through here.
//!
//! Each score is a handful of plug-in entropies `H = log2 N − Σ c·log2 c / N`
//! over the cells of a contingency table or of one of its marginals, and an
//! f64 sum's low bits depend on the order of its terms. NEXUS promises
//! bit-identical outputs across runs, thread counts, cache states and code
//! paths, so every fold here pushes its cells in **ascending key order** and
//! every cell receives its adds in the order they arrive.
//!
//! - [`EntropyFold`] is the running `Σ c·log2 c` with its occupied-cell
//!   count (for Miller–Madow).
//! - [`Marginal`] accumulates `(key, weight)` adds into one table of
//!   cells and drains it in key order: the engine's candidate stats,
//!   selection-bias and pairwise-MI folds, and
//!   [`JointCounts::marginal_entropy_and_cells`](crate::JointCounts::marginal_entropy_and_cells).
//! - `walk_dense` and `walk_sorted` fold one stratum block of a
//!   `(y, x)` table into the four terms of a CMI (`CmiFolds`): the
//!   responsibility test's permutation null and row-level calibration
//!   count their own cells and share these walks.
//!
//! One policy, [`dense`], decides for all of them whether a fold sums
//! into a flat table indexed by key or sorts its adds. It picks the
//! memory layout only: both layouts give every cell the same adds in the
//! same order, so the bits never depend on it.

use crate::counter::entropy_mm;

/// Key spaces up to this many times the adds a fold receives are summed
/// densely; sparser ones sort their adds, so a fold costs at most its
/// adds times a log factor and never its key space.
const DENSE_ADDS_FACTOR: u128 = 4;

/// Key spaces this small are always dense.
const DENSE_MIN: u128 = 64;

/// Cap on a dense fold's table (2^20 f64 cells = 8 MiB).
const DENSE_CAP: u128 = 1 << 20;

/// The dense-or-sorted policy of every cell fold: a fold over `space`
/// keys that receives `adds` adds sums into a flat table when the space
/// is under the cap and at most four times the adds (or tiny), and sorts
/// its adds otherwise.
pub fn dense(space: u128, adds: usize) -> bool {
    space <= DENSE_CAP && space <= (adds as u128 * DENSE_ADDS_FACTOR).max(DENSE_MIN)
}

/// The running `Σ c·log2(c)` of an entropy with its occupied cells.
/// Pushing the same counts in the same order gives the same bits as
/// [`entropy_from_counts`](crate::entropy_from_counts).
#[derive(Debug, Default, Clone, Copy)]
pub struct EntropyFold {
    acc: f64,
    cells: usize,
}

impl EntropyFold {
    /// Adds one cell count; non-positive counts are skipped.
    #[inline]
    pub fn push(&mut self, c: f64) {
        if c > 0.0 {
            self.acc += c * c.log2();
            self.cells += 1;
        }
    }

    /// Entropy in bits of the pushed counts over `total`.
    pub fn entropy(&self, total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        (total.log2() - self.acc / total).max(0.0)
    }

    /// `(entropy, occupied cells)` over `total`.
    pub fn entropy_and_cells(&self, total: f64) -> (f64, usize) {
        (self.entropy(total), self.cells)
    }
}

/// One marginal's accumulator: adds arrive in any key order, cells drain
/// in ascending key order. Every add is a positive weight, so a key is
/// occupied exactly when its sum is positive.
#[derive(Debug)]
pub enum Marginal {
    /// Flat sums indexed by key; drained by walking the key space.
    Dense(Vec<f64>),
    /// The adds in arrival order; drained by a *stable* sort on the key,
    /// which keeps each key's adds in arrival order.
    Sorted(Vec<(u128, f64)>),
}

impl Marginal {
    /// An empty marginal over `space` keys that will receive `adds` adds,
    /// laid out by [`dense`].
    pub fn new(space: u128, adds: usize) -> Marginal {
        if dense(space, adds) {
            Marginal::Dense(vec![0.0; space as usize])
        } else {
            Marginal::Sorted(Vec::with_capacity(adds))
        }
    }

    /// Adds `w` to the cell `key`.
    #[inline]
    pub fn add(&mut self, key: u128, w: f64) {
        match self {
            Marginal::Dense(v) => v[key as usize] += w,
            Marginal::Sorted(v) => v.push((key, w)),
        }
    }

    /// `(H, occupied cells)` over `total`, cells in ascending key order.
    pub fn entropy_and_cells(self, total: f64) -> (f64, usize) {
        self.into_fold().entropy_and_cells(total)
    }

    /// Drains the cells, in ascending key order, into one fold.
    pub fn into_fold(self) -> EntropyFold {
        let mut fold = EntropyFold::default();
        match self {
            Marginal::Dense(v) => v.iter().for_each(|&c| fold.push(c)),
            Marginal::Sorted(mut adds) => {
                adds.sort_by_key(|&(k, _)| k);
                for run in adds.chunk_by(|a, b| a.0 == b.0) {
                    fold.push(run[1..].iter().fold(run[0].1, |s, &(_, w)| s + w));
                }
            }
        }
        fold
    }
}

/// The four folds of `I(X;Y|Z) = H(X,Z) + H(Y,Z) − H(X,Y,Z) − H(Z)`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CmiFolds {
    pub(crate) xyz: EntropyFold,
    pub(crate) xz: EntropyFold,
    pub(crate) yz: EntropyFold,
    pub(crate) z: EntropyFold,
}

impl CmiFolds {
    /// The plug-in CMI over a (weighted) sample of `total`, clamped at
    /// zero. Without a conditioning set (`conditional` false) there is no
    /// `H(Z)` term and this is the plain MI `H(X) + H(Y) − H(X,Y)`.
    pub(crate) fn cmi(&self, total: f64, conditional: bool) -> f64 {
        self.combine(conditional, |f| f.entropy(total))
    }

    /// The Miller–Madow CMI: [`CmiFolds::cmi`] with [`entropy_mm`] on
    /// every term.
    pub(crate) fn cmi_mm(&self, total: f64, conditional: bool) -> f64 {
        self.combine(conditional, |f| {
            let (h, cells) = f.entropy_and_cells(total);
            entropy_mm(h, cells, total)
        })
    }

    fn combine(&self, conditional: bool, h: impl Fn(&EntropyFold) -> f64) -> f64 {
        let mi = h(&self.xz) + h(&self.yz) - h(&self.xyz);
        if conditional {
            (mi - h(&self.z)).max(0.0)
        } else {
            mi.max(0.0)
        }
    }
}

/// Folds one stratum's dense `(y, x)` table, row-major in `y` with `nx`
/// columns, into `f`, and zeroes it for reuse. Cells push in ascending
/// `(y, x)` order; row sums are the `(z, y)` cells, column sums (added in
/// ascending `y`) the `(z, x)` cells, and the stratum's `(z)` cell sums
/// its cells one by one in that order: the adds a marginal walk over the
/// joint's cells makes, so weighted sums keep their bits.
pub(crate) fn walk_dense(table: &mut [f64], nx: usize, cols: &mut Vec<f64>, f: &mut CmiFolds) {
    cols.clear();
    cols.resize(nx, 0.0);
    let mut z_cell = 0.0;
    for row in table.chunks_exact_mut(nx) {
        let mut yz_cell = 0.0;
        for (cell, col) in row.iter_mut().zip(cols.iter_mut()) {
            let c = std::mem::replace(cell, 0.0);
            if c > 0.0 {
                f.xyz.push(c);
                yz_cell += c;
                z_cell += c;
                *col += c;
            }
        }
        f.yz.push(yz_cell);
    }
    for &c in cols.iter() {
        f.xz.push(c);
    }
    f.z.push(z_cell);
}

/// Folds one stratum's `(y, x, weight)` adds, given in ascending `(y, x)`
/// order, into `f` with the sums [`walk_dense`] makes; for tables too
/// sparse to walk densely. Each cell sums its adds in the order given,
/// in the reused buffer `cells`.
pub(crate) fn walk_sorted(
    adds: impl Iterator<Item = (u32, u32, f64)>,
    cells: &mut Vec<(u32, u32, f64)>,
    f: &mut CmiFolds,
) {
    cells.clear();
    for (y, x, w) in adds {
        match cells.last_mut() {
            Some(cell) if (cell.0, cell.1) == (y, x) => cell.2 += w,
            _ => cells.push((y, x, w)),
        }
    }
    let mut z_cell = 0.0;
    for row in cells.chunk_by(|a, b| a.0 == b.0) {
        let mut yz_cell = 0.0;
        for &(_, _, c) in row {
            f.xyz.push(c);
            yz_cell += c;
            z_cell += c;
        }
        f.yz.push(yz_cell);
    }
    // (z, x) cells: ascending x, each summed over ascending y.
    cells.sort_unstable_by_key(|&(y, x, _)| (x, y));
    for col in cells.chunk_by(|a, b| a.1 == b.1) {
        f.xz.push(col.iter().fold(0.0, |s, &(_, _, c)| s + c));
    }
    f.z.push(z_cell);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bits of every fold and cell count.
    fn bits(f: &CmiFolds) -> [(u64, usize); 4] {
        [f.xyz, f.xz, f.yz, f.z].map(|e| (e.acc.to_bits(), e.cells))
    }

    /// On a weighted stratum, with empty rows and columns and cells whose
    /// weights do not sum exactly, the dense and sorted walks push the
    /// same sums in the same order, across strata folded in sequence.
    #[test]
    fn dense_and_sorted_walks_fold_the_same_bits() {
        let (ny, nx) = (7usize, 5usize);
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % n
        };
        let (mut dense_f, mut sorted_f) = (CmiFolds::default(), CmiFolds::default());
        let mut table = vec![0.0; ny * nx];
        let (mut cols, mut cells) = (Vec::new(), Vec::new());
        for _stratum in 0..4 {
            // Rows in arrival order: (y, x, weight); y = 3 and x = 2 stay
            // empty, some weights are zero and are skipped by both.
            let rows: Vec<(u32, u32, f64)> = (0..60)
                .map(|_| {
                    let y = [0, 1, 2, 4, 5, 6][next(6) as usize];
                    let x = [0, 1, 3, 4][next(4) as usize];
                    let w = next(9) as f64 * 0.1 + next(1000) as f64 / 7919.0;
                    (y, x, if next(10) == 0 { 0.0 } else { w })
                })
                .collect();
            for &(y, x, w) in &rows {
                if w > 0.0 {
                    table[y as usize * nx + x as usize] += w;
                }
            }
            walk_dense(&mut table, nx, &mut cols, &mut dense_f);
            assert!(table.iter().all(|&c| c == 0.0), "the walk zeroes the table");

            // The sorted route: (key, position) order, so equal keys add
            // their weights in arrival order.
            let mut keys: Vec<(u32, u32, usize)> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.2 > 0.0)
                .map(|(j, &(y, x, _))| (y, x, j))
                .collect();
            keys.sort_unstable();
            let adds = keys.iter().map(|&(y, x, j)| (y, x, rows[j].2));
            walk_sorted(adds, &mut cells, &mut sorted_f);
        }
        assert_eq!(bits(&dense_f), bits(&sorted_f));
        assert!(dense_f.xyz.cells > 0 && dense_f.z.cells == 4);
        for conditional in [false, true] {
            let (d, s) = (&dense_f, &sorted_f);
            assert_eq!(
                d.cmi(31.0, conditional).to_bits(),
                s.cmi(31.0, conditional).to_bits()
            );
            assert_eq!(
                d.cmi_mm(31.0, conditional).to_bits(),
                s.cmi_mm(31.0, conditional).to_bits()
            );
        }
    }

    #[test]
    fn policy_sides() {
        assert!(dense(64, 0));
        assert!(dense(400, 100) && !dense(401, 100));
        assert!(!dense((1 << 20) + 1, 1 << 20));
    }

    /// Sorted marginals drain each key's adds in arrival order, as dense
    /// ones sum them.
    #[test]
    fn sorted_and_dense_marginals_agree() {
        let adds = [
            (5u128, 0.1),
            (2, 0.7),
            (5, 0.2),
            (9, 1.5),
            (5, 0.3),
            (2, 1e-9),
        ];
        let mut d = Marginal::Dense(vec![0.0; 10]);
        let mut s = Marginal::Sorted(Vec::new());
        for &(k, w) in &adds {
            d.add(k, w);
            s.add(k, w);
        }
        let (hd, kd) = d.entropy_and_cells(3.0);
        let (hs, ks) = s.entropy_and_cells(3.0);
        assert_eq!((hd.to_bits(), kd), (hs.to_bits(), ks));
        assert_eq!(kd, 3);
    }
}

//! Conditional-independence testing.
//!
//! The paper's responsibility test (Lemma 4.2) asks whether
//! `O ⫫ E | E_selected` holds; following the HypDB test the paper cites, we
//! use a stratified permutation test on the plug-in CMI: permute `X` within
//! each stratum of `Z` (which preserves `P(X|Z)` and `P(Y|Z)` but breaks any
//! conditional dependence) and compare the observed CMI against the
//! permutation distribution.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

use nexus_runtime::ThreadPool;
use nexus_table::Codes;

use crate::estimator::InfoContext;
use crate::fold::{self, CmiFolds};
use crate::kernel;

/// Configuration for the permutation test.
#[derive(Debug, Clone, Copy)]
pub struct CiTestOptions {
    /// Number of permutations.
    pub n_permutations: usize,
    /// Significance level: independence is rejected when the fraction of
    /// permuted CMIs ≥ the observed CMI is below `alpha`.
    pub alpha: f64,
    /// RNG seed (tests are deterministic given the seed).
    pub seed: u64,
    /// Fast path: if the observed CMI is below this threshold, declare
    /// independence without permuting; if above `10×` it, declare
    /// dependence. Set to 0 to always permute.
    pub cmi_shortcut: f64,
}

impl Default for CiTestOptions {
    fn default() -> Self {
        CiTestOptions {
            n_permutations: 100,
            alpha: 0.05,
            seed: 0x5eed,
            cmi_shortcut: 1e-3,
        }
    }
}

/// Result of a conditional-independence test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiTestResult {
    /// The observed CMI `I(X;Y|Z)`.
    pub observed_cmi: f64,
    /// The permutation p-value (1.0 when the shortcut fired as independent,
    /// 0.0 when it fired as dependent).
    pub p_value: f64,
    /// Whether the data is consistent with `X ⫫ Y | Z`.
    pub independent: bool,
}

/// Tests `X ⫫ Y | Z` on the complete-case rows under `ctx`: the cheap
/// [`ci_screen`], then, when no shortcut decides it,
/// [`PendingCiTest::permute`] on the calling thread.
pub fn ci_test(
    ctx: &InfoContext<'_>,
    x: &Codes,
    y: &Codes,
    z: &[&Codes],
    options: &CiTestOptions,
) -> CiTestResult {
    match ci_screen(ctx, x, y, z, options) {
        CiScreen::Decided(result) => result,
        CiScreen::Pending(pending) => pending.permute(&ThreadPool::default()),
    }
}

/// The verdict of a CI test's cheap phase.
#[derive(Debug)]
pub enum CiScreen<'a> {
    /// A shortcut decided the test; no permutation is needed.
    Decided(CiTestResult),
    /// Only the permutation null can decide the test.
    Pending(PendingCiTest<'a>),
}

/// A CI test the screen left undecided, ready to draw its permutation
/// null.
#[derive(Debug)]
pub struct PendingCiTest<'a> {
    ctx: InfoContext<'a>,
    x: &'a Codes,
    y: &'a Codes,
    z: &'a [&'a Codes],
    options: CiTestOptions,
    observed: f64,
}

/// The cheap phase of [`ci_test`]: the observed CMI plus every shortcut
/// that needs no permutation (the `cmi_shortcut` thresholds, unconditional
/// and large-sample, and too few complete cases). Complete-case rows are
/// only counted here; [`PendingCiTest::permute`] collects them.
pub fn ci_screen<'a>(
    ctx: &InfoContext<'a>,
    x: &'a Codes,
    y: &'a Codes,
    z: &'a [&'a Codes],
    options: &CiTestOptions,
) -> CiScreen<'a> {
    let observed = ctx.cmi(x, y, z);
    let decided = |independent: bool| {
        CiScreen::Decided(CiTestResult {
            observed_cmi: observed,
            p_value: if independent { 1.0 } else { 0.0 },
            independent,
        })
    };

    if options.cmi_shortcut > 0.0 {
        if observed < options.cmi_shortcut {
            return decided(true);
        }
        if observed > options.cmi_shortcut * 10.0 && z.is_empty() {
            // Unconditional MI this large is effectively never a permutation
            // artifact at realistic sample sizes.
            return decided(false);
        }
    }

    let usable = (0..x.len())
        .filter(|&i| complete_case(ctx, x, y, z, i))
        .count();
    if usable < 2 {
        return decided(true);
    }
    // Large-sample shortcut for the conditional case: at 10k+ complete
    // cases a CMI this far above zero cannot be a permutation artifact,
    // and each permutation re-counts every complete case.
    if options.cmi_shortcut > 0.0 && observed > options.cmi_shortcut * 50.0 && usable > 10_000 {
        return decided(false);
    }
    CiScreen::Pending(PendingCiTest {
        ctx: *ctx,
        x,
        y,
        z,
        options: *options,
        observed,
    })
}

impl PendingCiTest<'_> {
    /// The expensive phase of [`ci_test`]: builds the stratified null from
    /// the complete-case rows and draws `n_permutations` samples from an
    /// RNG seeded with `options.seed`. The permutations run in fixed
    /// blocks on `pool`, each block jumping a clone of the RNG ahead to its
    /// own stream position ([`StdRng::advance`]); the p-value is
    /// bit-identical to drawing every sample serially from that one
    /// stream, at any pool width.
    pub fn permute(self, pool: &ThreadPool) -> CiTestResult {
        let PendingCiTest {
            ctx,
            x,
            y,
            z,
            options,
            observed,
        } = self;
        let usable: Vec<usize> = (0..x.len())
            .filter(|&i| complete_case(&ctx, x, y, z, i))
            .collect();
        let null = StratifiedNull::new(&ctx, x, y, z, &usable);
        drop(usable);
        let exceed = null.exceedances(&options, observed, pool, |_, _| {});
        kernel::counters().record_permutations(options.n_permutations as u64, null.rows() as u64);
        let p_value = (exceed + 1) as f64 / (options.n_permutations + 1) as f64;
        CiTestResult {
            observed_cmi: observed,
            p_value,
            independent: p_value >= options.alpha,
        }
    }
}

/// Whether row `i` is inside the mask and valid in every variable.
#[inline]
fn complete_case(ctx: &InfoContext<'_>, x: &Codes, y: &Codes, z: &[&Codes], i: usize) -> bool {
    ctx.mask.is_none_or(|m| m.get(i))
        && x.is_valid(i)
        && y.is_valid(i)
        && z.iter().all(|v| v.is_valid(i))
}

/// Permutations per block of a parallel null. The block grid depends only
/// on `n_permutations`, never on the pool's width.
const PERM_BLOCK: usize = 8;

/// The permutation RNG, counting the words drawn through it.
struct CountedRng<'a> {
    rng: &'a mut StdRng,
    draws: u64,
}

impl RngCore for CountedRng<'_> {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.rng.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

/// One block of permutations drawn from a known stream position.
struct NullBlock {
    /// Permutations whose CMI reached the observed one.
    exceed: usize,
    /// Whether every permutation drew exactly
    /// [`StratifiedNull::draws_per_permutation`] words.
    regular: bool,
    /// The RNG after the block's last permutation.
    end: StdRng,
}

/// The complete-case rows of a CI test, copied once in stratum-major
/// order: strata in ascending `Z`-key order, rows ascending within each
/// stratum. Each permutation shuffles `X` within every stratum and
/// re-counts only these rows, never the full-length columns.
///
/// The result is bit-identical to re-counting the permuted rows: a joint
/// count over `(X, Y, Z…)` keys `x + |X|·(y + |Y|·z)`, so its ascending
/// key order is stratum-major `(z, y, x)` order, and the shared stratum
/// walks of [`crate::fold`] fold each stratum's `(y, x)` cells in exactly
/// that order. Unweighted counts are exact integers; weighted cells
/// receive their rows' weights in ascending row order, as the row scan
/// adds them.
struct StratifiedNull {
    /// `bounds[s]..bounds[s + 1]` indexes stratum `s` in the row arrays.
    bounds: Vec<usize>,
    /// Original `X` code per row (stratum-major).
    xs: Vec<u32>,
    /// `Y` code per row (stratum-major).
    ys: Vec<u32>,
    /// Weight per row when the context is weighted.
    ws: Option<Vec<f64>>,
    card_x: usize,
    /// `|X|·|Y|`, the key space of a stratum's table.
    table_cells: u128,
    /// Total weight over counted rows, summed in ascending row order.
    total: f64,
    /// Whether `Z` is empty (then `H(Z)` drops out, as in plain MI).
    unconditional: bool,
}

/// Buffers reused across permutations.
#[derive(Default)]
struct NullScratch {
    /// One stratum's shuffled `X` values.
    perm: Vec<u32>,
    /// The dense `(y, x)` table, row-major in `y`.
    table: Vec<f64>,
    /// Per-`x` column sums of the dense table.
    cols: Vec<f64>,
    /// Sparse strata: `(y, x, row position)` keys.
    keys: Vec<(u32, u32, usize)>,
    /// Sparse strata: occupied cells `(y, x, count)`.
    cells: Vec<(u32, u32, f64)>,
}

impl StratifiedNull {
    fn new(
        ctx: &InfoContext<'_>,
        x: &Codes,
        y: &Codes,
        z: &[&Codes],
        usable: &[usize],
    ) -> StratifiedNull {
        let u = usable.len();
        let mut xs = vec![0u32; u];
        let mut ys = vec![0u32; u];
        let mut ws = ctx.weights.map(|_| vec![0.0f64; u]);
        let mut place = |slot: usize, i: usize| {
            xs[slot] = x.codes[i];
            ys[slot] = y.codes[i];
            if let (Some(ws), Some(w)) = (ws.as_mut(), ctx.weights) {
                ws[slot] = w[i];
            }
        };
        let mut bounds = vec![0, u];
        if z.is_empty() {
            for (slot, &i) in usable.iter().enumerate() {
                place(slot, i);
            }
        } else {
            let radices: Vec<u128> = z.iter().map(|v| (v.cardinality as u128).max(1)).collect();
            let z_key = |i: usize| {
                let mut key = 0u128;
                for (v, r) in z.iter().zip(&radices).rev() {
                    key = key * r + v.codes[i] as u128;
                }
                key
            };
            // Counting sort by Z key: stratum sizes, then running offsets
            // in ascending key order, then a placement pass in ascending
            // row order. Keyed order matters: the strata consume the
            // permutation RNG in sequence.
            let mut next: BTreeMap<u128, usize> = BTreeMap::new();
            for &i in usable {
                *next.entry(z_key(i)).or_insert(0) += 1;
            }
            bounds.clear();
            let mut offset = 0;
            for slot in next.values_mut() {
                bounds.push(offset);
                offset += std::mem::replace(slot, offset);
            }
            bounds.push(offset);
            for &i in usable {
                let slot = next.get_mut(&z_key(i)).expect("key counted above");
                place(*slot, i);
                *slot += 1;
            }
        }
        let total = match ctx.weights {
            // The row scan's running total: ascending row order, positive
            // weights only.
            Some(w) => usable
                .iter()
                .map(|&i| w[i])
                .filter(|&wt| wt > 0.0)
                .fold(0.0, |a, wt| a + wt),
            None => usable.len() as f64,
        };
        let card_x = x.cardinality.max(1) as usize;
        StratifiedNull {
            bounds,
            xs,
            ys,
            ws,
            card_x,
            table_cells: card_x as u128 * y.cardinality.max(1) as u128,
            total,
            unconditional: z.is_empty(),
        }
    }

    /// Number of complete-case rows.
    fn rows(&self) -> usize {
        self.xs.len()
    }

    /// RNG words one permutation draws unless a draw is rejected: a
    /// stratum of `m` rows shuffles with `m − 1` bounded draws, one word
    /// each. A rejection (probability below `span / 2^64` per draw) adds
    /// a word.
    fn draws_per_permutation(&self) -> u64 {
        (self.rows() - (self.bounds.len() - 1)) as u64
    }

    /// How many of `options.n_permutations` permuted CMIs reach
    /// `observed`, drawn from one RNG seeded with `options.seed` exactly as
    /// a serial loop would draw them.
    ///
    /// The permutations split into blocks of [`PERM_BLOCK`]; each block
    /// jumps a clone of the seeded RNG ahead by `first · D` words
    /// ([`StdRng::advance`]), `D` the [`draws_per_permutation`], and draws
    /// its permutations serially on the pool. A block whose permutations
    /// drew other than `D` words each (a rejected draw) was still drawn in
    /// sequence from a true start, but every later block started off its
    /// true position: those are re-drawn serially from the irregular
    /// block's end state. The exceedance count is a sum of booleans, so it
    /// equals the serial loop's whatever the pool width. `after_draw` runs
    /// after each permutation `p` on its RNG (a test hook; production
    /// passes a no-op).
    ///
    /// [`draws_per_permutation`]: StratifiedNull::draws_per_permutation
    fn exceedances<H>(
        &self,
        options: &CiTestOptions,
        observed: f64,
        pool: &ThreadPool,
        after_draw: H,
    ) -> usize
    where
        H: Fn(usize, &mut CountedRng<'_>) + Sync,
    {
        let n = options.n_permutations;
        let seeded = StdRng::seed_from_u64(options.seed);
        let per_perm = self.draws_per_permutation();
        let blocks = pool.map(n.div_ceil(PERM_BLOCK), |b| {
            let first = b * PERM_BLOCK;
            let mut rng = seeded.clone();
            rng.advance(first as u128 * per_perm as u128);
            self.draw_block(
                rng,
                first..(first + PERM_BLOCK).min(n),
                observed,
                &after_draw,
            )
        });
        let mut exceed = 0;
        for (b, block) in blocks.into_iter().enumerate() {
            exceed += block.exceed;
            if !block.regular {
                let rest = (b + 1) * PERM_BLOCK..n;
                exceed += self
                    .draw_block(block.end, rest, observed, &after_draw)
                    .exceed;
                break;
            }
        }
        exceed
    }

    /// Draws permutations `range` in sequence from `rng`.
    fn draw_block<H>(
        &self,
        mut rng: StdRng,
        range: std::ops::Range<usize>,
        observed: f64,
        after_draw: &H,
    ) -> NullBlock
    where
        H: Fn(usize, &mut CountedRng<'_>),
    {
        let mut scratch = NullScratch::default();
        let mut exceed = 0;
        let mut regular = true;
        for p in range {
            let mut counted = CountedRng {
                rng: &mut rng,
                draws: 0,
            };
            if self.permuted_cmi(&mut counted, &mut scratch) >= observed {
                exceed += 1;
            }
            after_draw(p, &mut counted);
            regular &= counted.draws == self.draws_per_permutation();
        }
        NullBlock {
            exceed,
            regular,
            end: rng,
        }
    }

    /// One permutation: shuffles `X` within each stratum (ascending
    /// stratum order, one `shuffle` call per stratum, so the RNG stream
    /// is the one the row-rewrite loop consumed), counts each stratum's
    /// `(y, x)` cells, densely or sorted by [`fold::dense`], and folds them
    /// with the shared walks. Returns the CMI of the permuted rows.
    fn permuted_cmi<R: RngCore>(&self, rng: &mut R, s: &mut NullScratch) -> f64 {
        let mut folds = CmiFolds::default();
        let nx = self.card_x;
        for w in self.bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            s.perm.clear();
            s.perm.extend_from_slice(&self.xs[lo..hi]);
            s.perm.shuffle(rng);
            if fold::dense(self.table_cells, hi - lo) {
                s.table.resize(self.table_cells as usize, 0.0);
                for (j, &xv) in s.perm.iter().enumerate() {
                    let wt = self.weight(lo, j);
                    if wt > 0.0 {
                        s.table[self.ys[lo + j] as usize * nx + xv as usize] += wt;
                    }
                }
                fold::walk_dense(&mut s.table, nx, &mut s.cols, &mut folds);
            } else {
                s.keys.clear();
                for (j, &xv) in s.perm.iter().enumerate() {
                    if self.weight(lo, j) > 0.0 {
                        s.keys.push((self.ys[lo + j], xv, j));
                    }
                }
                // Equal `(y, x)` keys keep ascending row order, so each
                // cell adds its weights as the row scan would.
                s.keys.sort_unstable();
                let adds = s.keys.iter().map(|&(y, x, j)| (y, x, self.weight(lo, j)));
                fold::walk_sorted(adds, &mut s.cells, &mut folds);
            }
        }
        folds.cmi(self.total, !self.unconditional)
    }

    /// Weight of stratum row `lo + j` (1 unweighted).
    #[inline]
    fn weight(&self, lo: usize, j: usize) -> f64 {
        self.ws.as_ref().map_or(1.0, |w| w[lo + j])
    }
}

/// Convenience wrapper: unmasked, unweighted CI test with default options.
pub fn ci_test_default(x: &Codes, y: &Codes, z: &[&Codes]) -> CiTestResult {
    ci_test(&InfoContext::default(), x, y, z, &CiTestOptions::default())
}

#[cfg(test)]
mod tests {
    use nexus_table::Bitmap;

    use super::*;

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
    fn independent_variables_pass() {
        let mut next = lcg(7);
        let n = 400;
        let x = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let y = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let r = ci_test_default(&x, &y, &[]);
        assert!(r.independent, "p={} cmi={}", r.p_value, r.observed_cmi);
    }

    #[test]
    fn dependent_variables_fail() {
        let mut next = lcg(11);
        let n = 400;
        let xv: Vec<u32> = (0..n).map(|_| next() % 3).collect();
        let yv: Vec<u32> = xv.to_vec(); // y == x
        let x = codes(&xv, 3);
        let y = codes(&yv, 3);
        let r = ci_test_default(&x, &y, &[]);
        assert!(!r.independent);
    }

    #[test]
    fn conditional_independence_detected() {
        // X <- Z -> Y: dependent marginally, independent given Z.
        let mut next = lcg(13);
        let n = 2000;
        let zv: Vec<u32> = (0..n).map(|_| next() % 2).collect();
        let xv: Vec<u32> = zv.iter().map(|&z| (z * 2 + next() % 2) % 4).collect();
        let yv: Vec<u32> = zv.iter().map(|&z| (z * 2 + next() % 2) % 4).collect();
        let z = codes(&zv, 2);
        let x = codes(&xv, 4);
        let y = codes(&yv, 4);
        let marg = ci_test_default(&x, &y, &[]);
        assert!(!marg.independent, "marginally dependent by construction");
        let cond = ci_test(
            &InfoContext::default(),
            &x,
            &y,
            &[&z],
            &CiTestOptions {
                cmi_shortcut: 0.0, // force the permutation path
                ..CiTestOptions::default()
            },
        );
        assert!(cond.independent, "p={}", cond.p_value);
    }

    #[test]
    fn conditional_dependence_detected() {
        let mut next = lcg(17);
        let n = 1000;
        let zv: Vec<u32> = (0..n).map(|_| next() % 2).collect();
        // X depends on Z and noise; Y = X xor Z -> Y depends on X given Z.
        let xv: Vec<u32> = (0..n).map(|_| next() % 2).collect();
        let yv: Vec<u32> = xv.iter().zip(&zv).map(|(&x, &z)| x ^ z).collect();
        let z = codes(&zv, 2);
        let x = codes(&xv, 2);
        let y = codes(&yv, 2);
        let r = ci_test(
            &InfoContext::default(),
            &x,
            &y,
            &[&z],
            &CiTestOptions::default(),
        );
        assert!(!r.independent);
    }

    #[test]
    fn shortcut_fires_for_tiny_cmi() {
        let x = codes(&[0, 1, 0, 1], 2);
        let y = codes(&[0, 0, 1, 1], 2);
        let r = ci_test_default(&x, &y, &[]);
        assert!(r.independent);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut next = lcg(23);
        let n = 300;
        let x = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let y = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let opts = CiTestOptions {
            cmi_shortcut: 0.0,
            ..CiTestOptions::default()
        };
        let ctx = InfoContext::default();
        let a = ci_test(&ctx, &x, &y, &[], &opts);
        let b = ci_test(&ctx, &x, &y, &[], &opts);
        assert_eq!(a.p_value, b.p_value);
    }

    /// Each permuted CMI, dense and sorted table paths, weighted or not,
    /// equals the bits of re-counting the rewritten full-length column.
    #[test]
    fn every_permuted_cmi_matches_the_row_rewrite() {
        let mut next = lcg(29);
        let n = 240;
        // (|X|, |Y|, |Z| per variable): dense tables, sparse (sorted)
        // tables, singleton strata.
        let shapes: [(u32, u32, &[u32]); 5] = [
            (3, 4, &[]),
            (4, 3, &[3]),
            (300, 200, &[2]),
            (5, 5, &[6, 7, 8]),
            (40, 30, &[]),
        ];
        for (card_x, card_y, card_z) in shapes {
            let x = codes(&(0..n).map(|_| next() % card_x).collect::<Vec<_>>(), card_x);
            let y = codes(&(0..n).map(|_| next() % card_y).collect::<Vec<_>>(), card_y);
            let z: Vec<Codes> = card_z
                .iter()
                .map(|&c| codes(&(0..n).map(|_| next() % c).collect::<Vec<_>>(), c))
                .collect();
            let zr: Vec<&Codes> = z.iter().collect();
            let weights: Vec<f64> = (0..n).map(|_| (next() % 7) as f64 * 0.37).collect();
            for ctx in [InfoContext::default(), InfoContext::weighted(&weights)] {
                let usable: Vec<usize> = (0..n as usize).collect();
                let null = StratifiedNull::new(&ctx, &x, &y, &zr, &usable);
                let mut strata: BTreeMap<u128, Vec<usize>> = BTreeMap::new();
                for &i in &usable {
                    let mut key = 0u128;
                    for v in zr.iter().rev() {
                        key = key * v.cardinality as u128 + v.codes[i] as u128;
                    }
                    strata.entry(key).or_default().push(i);
                }
                let mut rng = StdRng::seed_from_u64(3);
                let mut oracle_rng = rng.clone();
                let mut scratch = NullScratch::default();
                let mut permuted = x.clone();
                for p in 0..12 {
                    let got = null.permuted_cmi(&mut rng, &mut scratch);
                    for stratum in strata.values() {
                        let mut vals: Vec<u32> = stratum.iter().map(|&i| x.codes[i]).collect();
                        vals.shuffle(&mut oracle_rng);
                        for (&i, v) in stratum.iter().zip(vals) {
                            permuted.codes[i] = v;
                        }
                    }
                    let want = ctx.cmi(&permuted, &y, &zr);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "shape ({card_x},{card_y},{card_z:?}) weighted={} permutation {p}",
                        ctx.weights.is_some()
                    );
                }
            }
        }
    }

    /// An injected extra draw after permutation 17 (as a rejected draw
    /// would add) leaves later blocks off their true stream position; the
    /// fallback re-draws them serially, so every permutation's end state
    /// and the exceedance count match a serial loop with the same
    /// injection, at every pool width.
    #[test]
    fn irregular_block_falls_back_to_the_serial_stream() {
        use std::sync::Mutex;
        let mut next = lcg(53);
        let n = 500;
        let x = codes(&(0..n).map(|_| next() % 4).collect::<Vec<_>>(), 4);
        let y = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let z = codes(&(0..n).map(|_| next() % 5).collect::<Vec<_>>(), 5);
        let ctx = InfoContext::default();
        let usable: Vec<usize> = (0..n as usize).collect();
        let null = StratifiedNull::new(&ctx, &x, &y, &[&z], &usable);
        let options = CiTestOptions::default();
        let injected = [17, 40];
        // The serial oracle: one stream, an extra word after each
        // injected permutation; each permutation's end state is
        // fingerprinted by the next word it would draw.
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut scratch = NullScratch::default();
        let mut stats = Vec::new();
        let mut ends = Vec::new();
        for p in 0..options.n_permutations {
            stats.push(null.permuted_cmi(&mut rng, &mut scratch));
            if injected.contains(&p) {
                rng.next_u64();
            }
            ends.push(rng.clone().next_u64());
        }
        // The median permuted CMI as the observed one: about half the
        // draws exceed it, so a misplaced stream moves the count.
        let mut sorted = stats.clone();
        sorted.sort_by(f64::total_cmp);
        let observed = sorted[stats.len() / 2];
        let want = stats.iter().filter(|&&s| s >= observed).count();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(nexus_runtime::Parallelism::Fixed(threads));
            let seen = Mutex::new(vec![None; options.n_permutations]);
            let got = null.exceedances(&options, observed, &pool, |p, rng| {
                if injected.contains(&p) {
                    rng.next_u64();
                }
                // The fallback re-draws after every block has finished,
                // so the last end state recorded per permutation is the
                // one that counted.
                seen.lock().unwrap()[p] = Some(rng.rng.clone().next_u64());
            });
            assert_eq!(got, want, "{threads} threads");
            let seen: Vec<u64> = seen.into_inner().unwrap().into_iter().flatten().collect();
            assert_eq!(seen, ends, "{threads} threads");
        }
    }

    /// The screen's verdict, which must be `Decided`.
    fn decided(screen: CiScreen<'_>) -> CiTestResult {
        match screen {
            CiScreen::Decided(r) => r,
            CiScreen::Pending(_) => panic!("left undecided"),
        }
    }

    /// `X`, `Y = X xor Z` and `Z` over `n` random binary rows: `X ⫫ Y`
    /// marginally, fully dependent given `Z`.
    fn xor_triple(seed: u64, n: usize) -> (Codes, Codes, Codes) {
        let mut next = lcg(seed);
        let zv: Vec<u32> = (0..n).map(|_| next() % 2).collect();
        let xv: Vec<u32> = (0..n).map(|_| next() % 2).collect();
        let yv: Vec<u32> = xv.iter().zip(&zv).map(|(&x, &z)| x ^ z).collect();
        (codes(&xv, 2), codes(&yv, 2), codes(&zv, 2))
    }

    /// Each shortcut decides in the screen, with the result the one-phase
    /// test returned: the observed CMI, `p = 1` independent or `p = 0`
    /// dependent.
    #[test]
    fn shortcuts_decide_in_the_screen() {
        let ctx = InfoContext::default();
        let opts = CiTestOptions::default();
        let expect = |r: CiTestResult, observed: f64, independent: bool| {
            assert_eq!(r.observed_cmi.to_bits(), observed.to_bits());
            assert_eq!(r.independent, independent);
            assert_eq!(r.p_value, if independent { 1.0 } else { 0.0 });
        };

        // Observed CMI below the shortcut.
        let x = codes(&[0, 1, 0, 1], 2);
        let y = codes(&[0, 0, 1, 1], 2);
        let r = decided(ci_screen(&ctx, &x, &y, &[], &opts));
        expect(r, ctx.cmi(&x, &y, &[]), true);
        assert_eq!(r, ci_test(&ctx, &x, &y, &[], &opts));

        // Unconditional MI above 10x the shortcut.
        let r = decided(ci_screen(&ctx, &x, &x, &[], &opts));
        expect(r, ctx.cmi(&x, &x, &[]), false);
        assert_eq!(r, ci_test(&ctx, &x, &x, &[], &opts));

        // Fewer than two complete cases, even with the shortcut off.
        let mut sparse = codes(&[0, 1, 1], 2);
        sparse.validity = Some([true, false, false].into_iter().collect());
        let (y, z) = (codes(&[0, 1, 1], 2), codes(&[0, 1, 0], 2));
        let always_permute = CiTestOptions {
            cmi_shortcut: 0.0,
            ..opts
        };
        let r = decided(ci_screen(&ctx, &sparse, &y, &[&z], &always_permute));
        expect(r, ctx.cmi(&sparse, &y, &[&z]), true);
        assert_eq!(r, ci_test(&ctx, &sparse, &y, &[&z], &always_permute));

        // Conditional CMI above 50x the shortcut over 10k+ complete cases.
        let (x, y, z) = xor_triple(31, 10_001);
        let r = decided(ci_screen(&ctx, &x, &y, &[&z], &opts));
        expect(r, ctx.cmi(&x, &y, &[&z]), false);
        assert_eq!(r, ci_test(&ctx, &x, &y, &[&z], &opts));
    }

    /// Without a shortcut the screen leaves the test pending, and
    /// permuting it reproduces the one-call test bit for bit.
    #[test]
    fn pending_permute_matches_ci_test() {
        let always_permute = CiTestOptions {
            cmi_shortcut: 0.0,
            ..CiTestOptions::default()
        };
        // At most 10k complete cases, or the shortcut switched off.
        for (seed, n, opts) in [
            (41, 600, CiTestOptions::default()),
            (43, 10_001, always_permute),
        ] {
            let (x, y, z) = xor_triple(seed, n);
            let zs = [&z];
            let mut next = lcg(seed + 1);
            let weights: Vec<f64> = (0..n).map(|_| (next() % 5) as f64 * 0.5).collect();
            let mask: Bitmap = (0..n).map(|i| i % 7 != 3).collect();
            for ctx in [
                InfoContext::default(),
                InfoContext::masked(&mask),
                InfoContext::weighted(&weights),
            ] {
                let CiScreen::Pending(pending) = ci_screen(&ctx, &x, &y, &zs, &opts) else {
                    panic!("decided by a shortcut (n = {n})");
                };
                let got = pending.permute(&ThreadPool::default());
                assert_eq!(got.observed_cmi.to_bits(), ctx.cmi(&x, &y, &zs).to_bits());
                let want = ci_test(&ctx, &x, &y, &zs, &opts);
                assert_eq!(got.observed_cmi.to_bits(), want.observed_cmi.to_bits());
                assert_eq!(got.p_value.to_bits(), want.p_value.to_bits());
                assert_eq!(got.independent, want.independent);
            }
        }
    }

    #[test]
    fn degenerate_support_is_independent() {
        let mut x = codes(&[0, 1], 2);
        x.validity = Some(Bitmap::with_value(2, false));
        let y = codes(&[0, 1], 2);
        let r = ci_test_default(&x, &y, &[]);
        assert!(r.independent);
    }
}

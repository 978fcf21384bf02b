//! The estimation engine.
//!
//! Every extracted candidate from extraction column `X` is a function of
//! `X`'s entity code, so all of its information-theoretic scores can be
//! derived from a single `(O, T, X)` contingency table built in **one pass
//! over the rows per extraction column** — independently of how many
//! hundreds of attributes `X` contributes. This is what keeps MCIMR under
//! interactive latency on the 5.8M-row Flights dataset.
//!
//! Row-level candidates (base-table attributes) and conditioning sets of
//! selected attributes fall back to direct row scans, which happen O(k)
//! times, not O(|𝒜|) times.
//!
//! ## Counting
//!
//! Every contingency is one masked [`JointCounts`] build over `(O, T, X)`,
//! the same kernel every other count in NEXUS runs on: it folds the
//! context mask and the three validity bitmaps into one packed selection,
//! scans it word at a time with run-coalesced integer adds, and picks a
//! dense or hashed accumulator from the checked key space. Its mixed-radix
//! key, first variable fastest, is `(x·|T| + t)·|O| + o`, and its cells
//! drain in ascending key order, so every downstream f64 fold sees the
//! same cell sequence.
//!
//! The engine builds one contingency per extraction column, the columns in
//! parallel on its pool. Each build is serial and every cell is an exact
//! integer count, so NEXUS's bit-identical-output promise holds at every
//! thread count.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use nexus_info::kernel;
use nexus_info::{entropy_from_counts, entropy_mm, InfoContext, JointCounts, MemoKind};
use nexus_runtime::{Parallelism, ThreadPool};
use nexus_table::{Codes, Fnv64};

use crate::candidate::{Candidate, CandidateRepr, CandidateSet, MISSING_CODE};
use crate::memo::{set_fingerprint, Claim, MemoHandle, MemoKey, WaitOutcome};
use crate::shard::{NameCache, PairCache};

/// Entropy-level statistics of one candidate `E` against the outcome `O`
/// and exposure `T`, over the complete-case support of `(O, T, E)` within
/// the context. Everything the pruning tests and MCIMR need derives from
/// these seven entropies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandStats {
    /// `(H, cells)` of `O`.
    pub h_o: (f64, usize),
    /// `(H, cells)` of `T`.
    pub h_t: (f64, usize),
    /// `(H, cells)` of `E`.
    pub h_e: (f64, usize),
    /// `(H, cells)` of `(O,T)`.
    pub h_ot: (f64, usize),
    /// `(H, cells)` of `(O,E)`.
    pub h_oe: (f64, usize),
    /// `(H, cells)` of `(T,E)`.
    pub h_te: (f64, usize),
    /// `(H, cells)` of `(O,T,E)`.
    pub h_ote: (f64, usize),
    /// Total weight of the support.
    pub support: f64,
    /// Number of in-context entities with an observed value
    /// (`usize::MAX` for row-level candidates, where the notion is void).
    pub present_entities: usize,
}

impl CandStats {
    #[inline]
    fn mm(&self, e: (f64, usize)) -> f64 {
        nexus_info::entropy_mm(e.0, e.1, self.support)
    }

    /// `I(O;T|E)` — the Min-CMI criterion value, Miller–Madow corrected so
    /// candidates with different complete-case supports compare fairly.
    pub fn cmi(&self) -> f64 {
        (self.mm(self.h_oe) + self.mm(self.h_te) - self.mm(self.h_ote) - self.mm(self.h_e)).max(0.0)
    }

    /// Plug-in (uncorrected) `I(O;T|E)`.
    pub fn cmi_plugin(&self) -> f64 {
        (self.h_oe.0 + self.h_te.0 - self.h_ote.0 - self.h_e.0).max(0.0)
    }

    /// `I(O;E)` — individual relevance (Miller–Madow corrected).
    pub fn relevance(&self) -> f64 {
        (self.mm(self.h_o) + self.mm(self.h_e) - self.mm(self.h_oe)).max(0.0)
    }

    /// `I(O;E|T)` — relevance within exposure groups (Miller–Madow
    /// corrected).
    pub fn relevance_given_t(&self) -> f64 {
        (self.mm(self.h_ot) + self.mm(self.h_te) - self.mm(self.h_ote) - self.mm(self.h_t)).max(0.0)
    }

    /// `H(T|E)` — the forward FD residual (plug-in: FD detection wants the
    /// raw residual, not a sample-size-inflated one).
    pub fn h_t_given_e(&self) -> f64 {
        (self.h_te.0 - self.h_e.0).max(0.0)
    }

    /// `H(E|T)` — the backward FD residual (plug-in).
    pub fn h_e_given_t(&self) -> f64 {
        (self.h_te.0 - self.h_t.0).max(0.0)
    }

    /// `I(O;T)` on this candidate's support (Miller–Madow corrected).
    pub fn baseline(&self) -> f64 {
        (self.mm(self.h_o) + self.mm(self.h_t) - self.mm(self.h_ot)).max(0.0)
    }
}

/// A `(O, T, X)` contingency table for one extraction column.
#[derive(Debug)]
struct Contingency {
    /// Non-empty cells `(o, t, x, weight)`.
    cells: Vec<(u32, u32, u32, f64)>,
    /// Per-x total weight (index = x code).
    x_marginal: Vec<f64>,
    /// Total weight over all cells.
    total: f64,
    /// Number of entities with in-context rows.
    n_entities_ctx: usize,
    card_o: u32,
    card_t: u32,
}

impl Contingency {
    /// Approximate resident size, for memo byte accounting.
    fn approx_bytes(&self) -> u64 {
        (self.cells.len() * std::mem::size_of::<(u32, u32, u32, f64)>()
            + self.x_marginal.len() * 8
            + 64) as u64
    }

    /// Builds the `(O, T, X)` contingency for one extraction column: one
    /// masked [`JointCounts`] build, whose mixed-radix key, first variable
    /// fastest, is `(x·|T| + t)·|O| + o`, and whose cells drain in key
    /// order.
    fn build(set: &CandidateSet, column: &str) -> Contingency {
        let x = &set.column_codes[column];
        let joint = JointCounts::count(&[&set.o, &set.t, x], Some(&set.mask), None);
        Self::from_sorted_cells(
            joint.counts.iter(),
            set.o.cardinality.max(1) as u64,
            set.t.cardinality.max(1) as u64,
            x.cardinality as usize,
        )
    }

    /// Decodes ascending `(key, weight)` cells (key = `(x·|T|+t)·|O|+o`)
    /// into the cell vector, x-marginal, and totals.
    fn from_sorted_cells(
        keyed: impl Iterator<Item = (u128, f64)>,
        card_o: u64,
        card_t: u64,
        card_x: usize,
    ) -> Contingency {
        let (o_radix, t_radix) = (card_o as u128, card_t as u128);
        let mut cells = Vec::new();
        let mut x_marginal = vec![0.0; card_x];
        let mut total = 0.0;
        for (key, w) in keyed {
            let o_code = (key % o_radix) as u32;
            let t_code = ((key / o_radix) % t_radix) as u32;
            let x_code = (key / (o_radix * t_radix)) as u32;
            x_marginal[x_code as usize] += w;
            total += w;
            cells.push((o_code, t_code, x_code, w));
        }
        let n_entities_ctx = x_marginal.iter().filter(|&&w| w > 0.0).count();
        Contingency {
            cells,
            x_marginal,
            total,
            n_entities_ctx,
            card_o: card_o as u32,
            card_t: card_t as u32,
        }
    }
}

/// The estimation engine for one candidate set.
///
/// Caches are keyed by candidate *name* so they stay valid when the
/// candidate vector is compacted by pruning. All interior caches are
/// mutex-guarded and every cached value is a pure function of its key, so
/// the engine is freely shared across the worker threads of its
/// [`ThreadPool`]; a duplicated computation under contention is wasted
/// work, never a wrong answer.
pub struct Engine {
    /// `(O,T,X)` contingencies per extraction column. `Arc`'d so warm
    /// builds share the memoized tables instead of recounting rows.
    base: HashMap<String, Arc<Contingency>>,
    /// `I(O;T|C)` on the full in-context support.
    baseline_cmi: f64,
    /// Total in-context complete-case rows for (O,T).
    baseline_support: usize,
    /// The pool candidate-parallel stages (scoring, pruning, bias
    /// detection) run on.
    pool: ThreadPool,
    /// Cached per-candidate stats, keyed by `(name, weighted)`.
    stats_cache: NameCache<CandStats>,
    /// Cached calibrated CMI, keyed by `(name, weighted)`.
    calibrated_cache: NameCache<f64>,
    /// Cached pairwise MI, keyed by ordered candidate names.
    pair_cache: PairCache<f64>,
    /// Cached cross-column `(X₁, X₂)` joint counts.
    column_pairs: PairCache<Arc<PairCells>>,
}

/// Joint `(x₁, x₂, weight)` cells for a pair of extraction columns.
type PairCells = Vec<(u32, u32, f64)>;

impl Engine {
    /// Builds the engine serially: one row pass per extraction column plus
    /// one for the baseline.
    pub fn new(set: &CandidateSet) -> Engine {
        Engine::with_parallelism(set, Parallelism::Serial)
    }

    /// Builds the engine with the given parallelism; the per-column
    /// contingency passes run on the pool, and the pool drives every
    /// candidate-parallel stage scored through this engine.
    pub fn with_parallelism(set: &CandidateSet, parallelism: Parallelism) -> Engine {
        Engine::with_parallelism_memo(set, parallelism, None)
    }

    /// [`Engine::with_parallelism`] with a sub-query memo handle: the
    /// per-column contingencies and the baseline CMI term are fetched from (and published to) the store instead of
    /// rebuilt. Results are byte-identical to the memo-less path; warm
    /// builds simply skip the per-column counting pool tasks.
    pub fn with_parallelism_memo(
        set: &CandidateSet,
        parallelism: Parallelism,
        memo: Option<&MemoHandle>,
    ) -> Engine {
        Engine::with_pool_memo(set, ThreadPool::new(parallelism), memo)
    }

    /// [`Engine::with_parallelism_memo`] on a given pool: a pipeline run
    /// passes the pool its candidate build ran on, so one set of pool
    /// counters covers the whole run.
    pub(crate) fn with_pool_memo(
        set: &CandidateSet,
        pool: ThreadPool,
        memo: Option<&MemoHandle>,
    ) -> Engine {
        // Every per-set memo entry shares one fingerprint over the context
        // mask words and the O/T codes (computed once per engine build).
        let scope = memo.map(|h| (h, set_fingerprint(&set.mask, &set.o, &set.t)));
        let mut columns: Vec<&String> = set.column_codes.keys().collect();
        columns.sort();

        let base: HashMap<String, Arc<Contingency>> = match &scope {
            None => {
                let contingencies = pool.map_slice(&columns, |_, column| {
                    Arc::new(Contingency::build(set, column))
                });
                columns.into_iter().cloned().zip(contingencies).collect()
            }
            Some((h, set_fp)) => {
                let col_key = |column: &str| {
                    MemoKey::new(MemoKind::Contingency, h.dataset_fp, *set_fp, 0, column)
                };
                // Single-flight discipline: claim every column first (claim
                // never blocks), pool-build only this engine's Build claims,
                // publish them, and only then wait on other requests'
                // in-flight builds — so no engine ever waits while holding
                // an unbuilt ticket another engine could be waiting on.
                let mut resolved: HashMap<String, Arc<Contingency>> = HashMap::new();
                let mut builds = Vec::new();
                let mut waits: Vec<&String> = Vec::new();
                for column in &columns {
                    match h.store.claim(&col_key(column)) {
                        Claim::Hit(v) => {
                            let cont = v
                                .downcast::<Contingency>()
                                .expect("memo value type mismatch");
                            resolved.insert((*column).clone(), cont);
                        }
                        Claim::Build(ticket) => builds.push((*column, ticket)),
                        Claim::Wait => waits.push(column),
                    }
                }
                // The misses are the only pool tasks this build spawns: a
                // fully warm engine runs zero counting tasks, which is how
                // the CI suite asserts memo gains (counters, not clocks).
                let build_cols: Vec<&String> = builds.iter().map(|(c, _)| *c).collect();
                let built: Vec<Arc<Contingency>> = if build_cols.is_empty() {
                    Vec::new()
                } else {
                    pool.map_slice(&build_cols, |_, column| {
                        Arc::new(Contingency::build(set, column))
                    })
                };
                for ((column, ticket), cont) in builds.into_iter().zip(built) {
                    ticket.publish(cont.clone(), cont.approx_bytes());
                    resolved.insert(column.clone(), cont);
                }
                for column in waits {
                    let key = col_key(column);
                    let cont = match h.store.wait(&key) {
                        WaitOutcome::Ready(v) => v
                            .downcast::<Contingency>()
                            .expect("memo value type mismatch"),
                        WaitOutcome::Build(ticket) => {
                            // The original builder abandoned; build here.
                            let c = Arc::new(Contingency::build(set, column));
                            ticket.publish(c.clone(), c.approx_bytes());
                            c
                        }
                    };
                    resolved.insert(column.clone(), cont);
                }
                resolved
            }
        };

        let (baseline_cmi, baseline_support) = {
            let compute = || {
                let ctx = InfoContext::masked(&set.mask);
                (
                    ctx.mutual_information_mm(&set.o, &set.t),
                    ctx.support(&[&set.o, &set.t]),
                )
            };
            match &scope {
                None => compute(),
                Some((h, set_fp)) => {
                    let key = MemoKey::new(MemoKind::CmiTerm, h.dataset_fp, *set_fp, 0, "baseline");
                    *h.store.get_or_build(&key, || (Arc::new(compute()), 24))
                }
            }
        };
        Engine {
            base,
            baseline_cmi,
            baseline_support,
            pool,
            stats_cache: NameCache::new(),
            calibrated_cache: NameCache::new(),
            pair_cache: PairCache::new(),
            column_pairs: PairCache::new(),
        }
    }

    /// The pool shared by every candidate-parallel stage of this engine.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// `I(O;T|C)` — the unexplained correlation the query exposes.
    pub fn baseline_cmi(&self) -> f64 {
        self.baseline_cmi
    }

    /// Number of complete-case `(O,T)` rows in the context.
    pub fn baseline_support(&self) -> usize {
        self.baseline_support
    }

    /// Whether a candidate's complete-case support covers at least
    /// `min_support_fraction` of the in-context rows — the estimator
    /// validity precondition shared by MCIMR and every baseline.
    pub fn eligible(
        &self,
        set: &CandidateSet,
        idx: usize,
        options: &crate::options::NexusOptions,
    ) -> bool {
        let s = self.stats(set, idx);
        if s.support < options.min_support_fraction * self.baseline_support as f64 {
            return false;
        }
        let k_e = s.h_e.1.max(1);
        if s.support < options.min_rows_per_category * k_e as f64 {
            return false;
        }
        // Vacuity guard for extracted candidates over rosters large enough
        // to judge (small rosters — continents, airlines — are exempt; the
        // paper's own explanations there are equally coarse).
        if let CandidateRepr::EntityLevel { column, .. } = &set.candidates[idx].repr {
            let roster = self.base[column].n_entities_ctx;
            if roster >= 16
                && (s.present_entities as f64) < options.min_entities_per_category * k_e as f64
            {
                return false;
            }
        }
        true
    }

    /// Per-candidate stats (cached; recomputed if weights were attached
    /// after a previous call).
    pub fn stats(&self, set: &CandidateSet, idx: usize) -> CandStats {
        let cand = &set.candidates[idx];
        let weighted = cand.is_weighted();
        if let Some(s) = self.stats_cache.get(&cand.name, weighted) {
            return s;
        }
        let s = self.compute_stats(set, cand);
        self.stats_cache.insert(&cand.name, weighted, s);
        s
    }

    fn compute_stats(&self, set: &CandidateSet, cand: &Candidate) -> CandStats {
        match &cand.repr {
            CandidateRepr::EntityLevel { column, map, .. } => {
                let cont = &self.base[column];
                let weights = cand.entity_weights.as_deref();
                stats_from_cells(cont, map, weights)
            }
            CandidateRepr::RowLevel(codes) => {
                let joint = JointCounts::count(&[&set.o, &set.t, codes], Some(&set.mask), None);
                CandStats {
                    h_o: joint.marginal_entropy_and_cells(&[0]),
                    h_t: joint.marginal_entropy_and_cells(&[1]),
                    h_e: joint.marginal_entropy_and_cells(&[2]),
                    h_ot: joint.marginal_entropy_and_cells(&[0, 1]),
                    h_oe: joint.marginal_entropy_and_cells(&[0, 2]),
                    h_te: joint.marginal_entropy_and_cells(&[1, 2]),
                    h_ote: joint.entropy_and_cells(),
                    support: joint.total,
                    present_entities: usize::MAX,
                }
            }
        }
    }

    /// `I(O;T|C,E)` for a single candidate (the MCI criterion `v₁`),
    /// **permutation-calibrated**: the raw estimate is anchored against the
    /// mean CMI of random attributes with the same shape (cardinality,
    /// group sizes, missingness pattern) over the same entities:
    ///
    /// `calibrated = I(O;T|C) − max(0, mean_perm − observed − sd_perm)`
    ///
    /// A pure-noise attribute scores ≈ the baseline (no credit) regardless
    /// of how much it would *vacuously* shrink the plug-in CMI by slicing
    /// the support or near-identifying the exposure; a genuine confounder
    /// is credited exactly its improvement over chance. An attribute that
    /// is a bijection of the exposure (its permutations are all equivalent)
    /// gets no credit, consistent with the paper's logical-dependency rule.
    pub fn cmi_single(&self, set: &CandidateSet, idx: usize) -> f64 {
        let cand = &set.candidates[idx];
        let weighted = cand.is_weighted();
        if let Some(v) = self.calibrated_cache.get(&cand.name, weighted) {
            return v;
        }
        let v = self.compute_calibrated(set, idx);
        self.calibrated_cache.insert(&cand.name, weighted, v);
        v
    }

    /// The raw (uncalibrated, Miller–Madow) `I(O;T|C,E)` for one candidate.
    pub fn cmi_single_raw(&self, set: &CandidateSet, idx: usize) -> f64 {
        self.stats(set, idx).cmi()
    }

    fn compute_calibrated(&self, set: &CandidateSet, idx: usize) -> f64 {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let cand = &set.candidates[idx];
        let observed = self.stats(set, idx).cmi();
        // Deterministic per-candidate seed.
        let mut seed = Fnv64::new();
        seed.write(cand.name.as_bytes());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.finish());

        let samples: Vec<f64> = match &cand.repr {
            CandidateRepr::EntityLevel { column, map, .. } => {
                let cont = &self.base[column];
                // Entities that actually carry in-context rows.
                let present: Vec<usize> = (0..map.len())
                    .filter(|&x| cont.x_marginal.get(x).is_some_and(|&w| w > 0.0))
                    .collect();
                if present.len() < 2 {
                    return self.baseline_cmi;
                }
                let weights = cand.entity_weights.as_deref();
                let mut vals: Vec<(u32, f64)> = present
                    .iter()
                    .map(|&x| (map[x], weights.map_or(1.0, |w| w[x])))
                    .collect();
                let mut map_buf = map.to_vec();
                let mut w_buf = vec![1.0f64; map.len()];
                let mut samples = Vec::with_capacity(16);
                kernel::counters().record_permutations(16, vals.len() as u64);
                for _ in 0..16 {
                    vals.shuffle(&mut rng);
                    for (&x, &(v, w)) in present.iter().zip(&vals) {
                        map_buf[x] = v;
                        w_buf[x] = w;
                    }
                    let s = stats_from_cells(cont, &map_buf, weights.map(|_| w_buf.as_slice()));
                    samples.push(s.cmi());
                }
                samples
            }
            CandidateRepr::RowLevel(codes) => {
                let rows: Vec<usize> = (0..codes.len())
                    .filter(|&i| set.mask.get(i) && codes.is_valid(i))
                    .collect();
                if rows.len() < 2 {
                    return self.baseline_cmi;
                }
                // A candidate that is (almost) a function of the exposure —
                // e.g. the `Continent` column under a per-country query —
                // must be permuted at the exposure-group level: per-row
                // shuffling would destroy structure a random group-level
                // attribute of the same shape retains.
                let group_level = self.stats(set, idx).h_e_given_t() < 0.05;
                let t = &set.t;
                let t_groups: Vec<u32> = if group_level {
                    let mut t_to_e: Vec<Option<u32>> = vec![None; t.cardinality as usize];
                    for &i in &rows {
                        if t.is_valid(i) {
                            t_to_e[t.codes[i] as usize] = Some(codes.codes[i]);
                        }
                    }
                    (0..t.cardinality)
                        .filter(|&g| t_to_e[g as usize].is_some())
                        .collect()
                } else {
                    Vec::new()
                };
                let mut vals: Vec<u32> = if group_level {
                    // One representative value per exposure group.
                    let mut rep = vec![0u32; t.cardinality as usize];
                    for &i in &rows {
                        if t.is_valid(i) {
                            rep[t.codes[i] as usize] = codes.codes[i];
                        }
                    }
                    t_groups.iter().map(|&g| rep[g as usize]).collect()
                } else {
                    rows.iter().map(|&i| codes.codes[i]).collect()
                };
                let mut permuted = codes.clone();
                let mut samples = Vec::with_capacity(6);
                kernel::counters().record_permutations(6, vals.len() as u64);
                for _ in 0..6 {
                    vals.shuffle(&mut rng);
                    if group_level {
                        let mut assign = vec![0u32; t.cardinality as usize];
                        for (&g, &v) in t_groups.iter().zip(&vals) {
                            assign[g as usize] = v;
                        }
                        for &i in &rows {
                            if t.is_valid(i) {
                                permuted.codes[i] = assign[t.codes[i] as usize];
                            }
                        }
                    } else {
                        for (&i, &v) in rows.iter().zip(&vals) {
                            permuted.codes[i] = v;
                        }
                    }
                    let joint =
                        JointCounts::count(&[&set.o, &set.t, &permuted], Some(&set.mask), None);
                    let n = joint.total;
                    let (h_xyz, k_xyz) = joint.entropy_and_cells();
                    let (h_oe, k_oe) = joint.marginal_entropy_and_cells(&[0, 2]);
                    let (h_te, k_te) = joint.marginal_entropy_and_cells(&[1, 2]);
                    let (h_e, k_e) = joint.marginal_entropy_and_cells(&[2]);
                    samples.push(
                        (entropy_mm(h_oe, k_oe, n) + entropy_mm(h_te, k_te, n)
                            - entropy_mm(h_xyz, k_xyz, n)
                            - entropy_mm(h_e, k_e, n))
                        .max(0.0),
                    );
                }
                samples
            }
        };
        let n = samples.len() as f64;
        let mean_perm = samples.iter().sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|s| (s - mean_perm) * (s - mean_perm))
            .sum::<f64>()
            / (n - 1.0).max(1.0);
        // Credit only the deviation beyond one permutation-sd: with hundreds
        // of candidates competing, the winner's curse otherwise hands noisy
        // small-support attributes spurious credit.
        let credit = (mean_perm - observed - var.sqrt()).max(0.0);
        (self.baseline_cmi - credit).max(0.0)
    }

    /// Pairwise `I(Eᵢ;Eⱼ)` (the Min-Redundancy criterion), cached
    /// symmetrically.
    pub fn mi_pair(&self, set: &CandidateSet, a: usize, b: usize) -> f64 {
        let na = set.candidates[a].name.as_str();
        let nb = set.candidates[b].name.as_str();
        let (ka, kb) = if na <= nb { (na, nb) } else { (nb, na) };
        if let Some(v) = self.pair_cache.get(ka, kb) {
            return v;
        }
        let v = self.compute_mi_pair(set, a, b);
        self.pair_cache.insert(ka, kb, v);
        v
    }

    fn compute_mi_pair(&self, set: &CandidateSet, a: usize, b: usize) -> f64 {
        let ca = &set.candidates[a];
        let cb = &set.candidates[b];
        match (&ca.repr, &cb.repr) {
            (
                CandidateRepr::EntityLevel {
                    column: col_a,
                    map: map_a,
                    ..
                },
                CandidateRepr::EntityLevel {
                    column: col_b,
                    map: map_b,
                    ..
                },
            ) => {
                if col_a == col_b {
                    // Both are functions of the same entity code.
                    let cont = &self.base[col_a];
                    let mut joint: BTreeMap<u64, f64> = BTreeMap::new();
                    let mut total = 0.0;
                    for (x, &w) in cont.x_marginal.iter().enumerate() {
                        if w <= 0.0 {
                            continue;
                        }
                        let ea = map_a[x];
                        let eb = map_b[x];
                        if ea == MISSING_CODE || eb == MISSING_CODE {
                            continue;
                        }
                        *joint.entry(((ea as u64) << 32) | eb as u64).or_insert(0.0) += w;
                        total += w;
                    }
                    mi_from_joint(&joint, total)
                } else {
                    let pairs = self.column_pair_counts(set, col_a, col_b);
                    let mut joint: BTreeMap<u64, f64> = BTreeMap::new();
                    let mut total = 0.0;
                    for &(xa, xb, w) in pairs.iter() {
                        let ea = map_a[xa as usize];
                        let eb = map_b[xb as usize];
                        if ea == MISSING_CODE || eb == MISSING_CODE {
                            continue;
                        }
                        *joint.entry(((ea as u64) << 32) | eb as u64).or_insert(0.0) += w;
                        total += w;
                    }
                    mi_from_joint(&joint, total)
                }
            }
            _ => {
                // At least one row-level candidate: direct row scan.
                let ra = set.row_codes(ca);
                let rb = set.row_codes(cb);
                InfoContext::masked(&set.mask).mutual_information_mm(&ra, &rb)
            }
        }
    }

    /// Joint `(X₁, X₂)` counts across two extraction columns (cached, in
    /// ascending `(x₁, x₂)` order of the canonically ordered pair).
    fn column_pair_counts(&self, set: &CandidateSet, col_a: &str, col_b: &str) -> Arc<PairCells> {
        let (ka, kb) = if col_a <= col_b {
            (col_a, col_b)
        } else {
            (col_b, col_a)
        };
        let swap = col_a > col_b;
        let canonical = self.column_pairs.get(ka, kb);
        let canonical = canonical.unwrap_or_else(|| {
            let xa = &set.column_codes[ka];
            let xb = &set.column_codes[kb];
            let mut map: BTreeMap<u64, f64> = BTreeMap::new();
            for i in 0..xa.len() {
                if !set.mask.get(i) || !xa.is_valid(i) || !xb.is_valid(i) {
                    continue;
                }
                let k = ((xa.codes[i] as u64) << 32) | xb.codes[i] as u64;
                *map.entry(k).or_insert(0.0) += 1.0;
            }
            let v: Arc<PairCells> = Arc::new(
                map.into_iter()
                    .map(|(k, w)| ((k >> 32) as u32, (k & 0xffff_ffff) as u32, w))
                    .collect(),
            );
            self.column_pairs.insert(ka, kb, v.clone());
            v
        });
        if swap {
            Arc::new(canonical.iter().map(|&(a, b, w)| (b, a, w)).collect())
        } else {
            canonical
        }
    }

    /// `I(O;T|C, E₁,…,Eₖ)` for a conditioning set (row-level; `k` is small).
    /// Permutation-calibrated `I(O;T|C, E₁..Eₖ)` for a conditioning **set**:
    /// the same null as [`Engine::cmi_single`], with every member permuted
    /// jointly (each at its own granularity). Used by set-enumerating
    /// baselines (Brute-Force) so that a bundle of shape-lucky attributes
    /// cannot outscore genuine confounders.
    pub fn cmi_given_calibrated(&self, set: &CandidateSet, indices: &[usize]) -> f64 {
        use rand::SeedableRng;
        const N_PERMS: usize = 6;
        if indices.is_empty() {
            return self.baseline_cmi;
        }
        let observed = self.cmi_given(set, indices);
        let mut seed = Fnv64::new();
        for &i in indices {
            seed.write(set.candidates[i].name.as_bytes());
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.finish());

        // Materialize row codes once; permute at entity level where
        // applicable, else per-row.
        let originals: Vec<Codes> = indices
            .iter()
            .map(|&i| set.row_codes(&set.candidates[i]))
            .collect();
        let mut samples = Vec::with_capacity(N_PERMS);
        let mut shuffled = 0u64;
        for _ in 0..N_PERMS {
            let mut permuted: Vec<Codes> = Vec::with_capacity(indices.len());
            for (&idx, rows) in indices.iter().zip(&originals) {
                permuted.push(self.permute_codes(set, idx, rows, &mut rng, &mut shuffled));
            }
            let refs: Vec<&Codes> = permuted.iter().collect();
            samples.push(InfoContext::masked(&set.mask).cmi_mm(&set.o, &set.t, &refs));
        }
        kernel::counters().record_permutations(N_PERMS as u64, shuffled / N_PERMS as u64);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
        let credit = (mean - observed - var.sqrt()).max(0.0);
        (self.baseline_cmi - credit).max(0.0)
    }

    /// One shape-preserving permutation of a candidate's row codes: entity
    /// level when the candidate is entity-backed, exposure-group level when
    /// it is a function of `T`, per-row otherwise. Adds the number of
    /// values shuffled to `shuffled`.
    fn permute_codes(
        &self,
        set: &CandidateSet,
        idx: usize,
        rows: &Codes,
        rng: &mut rand::rngs::StdRng,
        shuffled: &mut u64,
    ) -> Codes {
        use rand::seq::SliceRandom;
        match &set.candidates[idx].repr {
            CandidateRepr::EntityLevel { column, map, .. } => {
                let x = &set.column_codes[column];
                let cont = &self.base[column];
                let present: Vec<usize> = (0..map.len())
                    .filter(|&e| cont.x_marginal.get(e).is_some_and(|&w| w > 0.0))
                    .collect();
                let mut vals: Vec<u32> = present.iter().map(|&e| map[e]).collect();
                vals.shuffle(rng);
                *shuffled += vals.len() as u64;
                let mut new_map = map.clone();
                for (&e, &v) in present.iter().zip(&vals) {
                    new_map[e] = v;
                }
                // Rebuild row codes through the permuted map.
                let n = x.len();
                let mut codes = vec![0u32; n];
                let mut validity = nexus_table::Bitmap::with_value(n, true);
                for i in 0..n {
                    if !x.is_valid(i) {
                        validity.set(i, false);
                        continue;
                    }
                    let e = new_map[x.codes[i] as usize];
                    if e == MISSING_CODE {
                        validity.set(i, false);
                    } else {
                        codes[i] = e;
                    }
                }
                Codes {
                    codes,
                    cardinality: rows.cardinality,
                    validity: Some(validity),
                }
            }
            CandidateRepr::RowLevel(_) => {
                let usable: Vec<usize> = (0..rows.len())
                    .filter(|&i| set.mask.get(i) && rows.is_valid(i))
                    .collect();
                let mut vals: Vec<u32> = usable.iter().map(|&i| rows.codes[i]).collect();
                vals.shuffle(rng);
                *shuffled += vals.len() as u64;
                let mut permuted = rows.clone();
                for (&i, &v) in usable.iter().zip(&vals) {
                    permuted.codes[i] = v;
                }
                permuted
            }
        }
    }

    /// Raw (Miller–Madow) `I(O;T|C, E₁..Eₖ)` for a conditioning set.
    pub fn cmi_given(&self, set: &CandidateSet, indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return self.baseline_cmi;
        }
        let rows: Vec<Codes> = indices
            .iter()
            .map(|&i| set.row_codes(&set.candidates[i]))
            .collect();
        let refs: Vec<&Codes> = rows.iter().collect();
        InfoContext::masked(&set.mask).cmi_mm(&set.o, &set.t, &refs)
    }

    /// Selection-bias diagnostics for an entity-level candidate:
    /// `(I(R_E;O|C), I(R_E;T|C), missing fraction over linked in-context
    /// rows)`. Returns `None` for row-level candidates.
    pub fn bias_mi(&self, set: &CandidateSet, idx: usize) -> Option<(f64, f64, f64)> {
        let cand = &set.candidates[idx];
        let CandidateRepr::EntityLevel { column, map, .. } = &cand.repr else {
            return None;
        };
        let cont = &self.base[column];
        // Joint (o, r) and (t, r) from the cells (ordered maps: the counts
        // feed f64 entropy sums that must reproduce bit-for-bit).
        let mut m_or: BTreeMap<u64, f64> = BTreeMap::new();
        let mut m_tr: BTreeMap<u64, f64> = BTreeMap::new();
        let mut missing = 0.0;
        for &(o, t, x, w) in &cont.cells {
            let r = (map[x as usize] != MISSING_CODE) as u64;
            if r == 0 {
                missing += w;
            }
            *m_or.entry(((o as u64) << 1) | r).or_insert(0.0) += w;
            *m_tr.entry(((t as u64) << 1) | r).or_insert(0.0) += w;
        }
        let total = cont.total;
        if total <= 0.0 {
            return Some((0.0, 0.0, 0.0));
        }
        let mi = |m: &BTreeMap<u64, f64>| {
            // I(A;R) = H(A)+H(R)-H(A,R)
            let mut m_a: BTreeMap<u64, f64> = BTreeMap::new();
            let mut m_r = [0.0f64; 2];
            for (&k, &w) in m {
                *m_a.entry(k >> 1).or_insert(0.0) += w;
                m_r[(k & 1) as usize] += w;
            }
            let h_ar = entropy_from_counts(m.values().copied(), total);
            let h_a = entropy_from_counts(m_a.values().copied(), total);
            let h_r = entropy_from_counts(m_r.iter().copied(), total);
            (h_a + h_r - h_ar).max(0.0)
        };
        Some((mi(&m_or), mi(&m_tr), missing / total))
    }

    /// Per-x total weights for an extraction column (used for entity-level
    /// IPW fitting).
    pub fn x_marginal(&self, column: &str) -> Option<&[f64]> {
        self.base.get(column).map(|c| c.x_marginal.as_slice())
    }
}

/// Builds [`CandStats`] for an entity-level candidate from the column's
/// contingency cells, applying per-entity IPW weights when present.
///
/// The seven marginals are accumulated cell by cell, in the cells'
/// ascending `(x, t, o)` order, and drained in ascending marginal-key
/// order: each marginal cell receives the same f64 adds in the same
/// order as an ordered-map accumulator would give it, so every entropy
/// fold sees the same sums in the same sequence, bit for bit.
fn stats_from_cells(cont: &Contingency, map: &[u32], weights: Option<&[f64]>) -> CandStats {
    let card_o = cont.card_o.max(1) as u128;
    let card_t = cont.card_t.max(1) as u128;
    let card_e = map
        .iter()
        .filter(|&&e| e != MISSING_CODE)
        .max()
        .map_or(1, |&e| e as u128 + 1);
    let cells = cont.cells.len();
    let mut m_o = Marginal::new(card_o, cells);
    let mut m_t = Marginal::new(card_t, cells);
    let mut m_e = Marginal::new(card_e, cells);
    let mut m_ot = Marginal::new(card_o * card_t, cells);
    let mut m_oe = Marginal::new(card_o * card_e, cells);
    let mut m_te = Marginal::new(card_t * card_e, cells);
    let mut m_ote = Marginal::new(card_o * card_t * card_e, cells);
    let mut total = 0.0;
    for &(o, t, x, c) in &cont.cells {
        let e = map[x as usize];
        if e == MISSING_CODE {
            continue;
        }
        let w = c * weights.map_or(1.0, |w| w[x as usize]);
        if w <= 0.0 {
            continue;
        }
        total += w;
        let (o, t, e) = (o as u128, t as u128, e as u128);
        m_o.add(o, w);
        m_t.add(t, w);
        m_e.add(e, w);
        m_ot.add(o * card_t + t, w);
        m_oe.add(o * card_e + e, w);
        m_te.add(t * card_e + e, w);
        m_ote.add((o * card_t + t) * card_e + e, w);
    }
    let present_entities = (0..map.len())
        .filter(|&x| map[x] != MISSING_CODE && cont.x_marginal.get(x).is_some_and(|&w| w > 0.0))
        .count();
    CandStats {
        h_o: m_o.entropy_and_cells(total),
        h_t: m_t.entropy_and_cells(total),
        h_e: m_e.entropy_and_cells(total),
        h_ot: m_ot.entropy_and_cells(total),
        h_oe: m_oe.entropy_and_cells(total),
        h_te: m_te.entropy_and_cells(total),
        h_ote: m_ote.entropy_and_cells(total),
        support: total,
        present_entities,
    }
}

/// Marginal key spaces up to this many times the contingency's cell
/// count (or [`MARGINAL_DENSE_MIN`]) accumulate densely; sparser ones
/// collect `(key, weight)` adds and sort them.
const MARGINAL_DENSE_FACTOR: u128 = 8;

/// Key spaces this small are always dense.
const MARGINAL_DENSE_MIN: u128 = 1024;

/// One marginal's accumulator in [`stats_from_cells`]. Every add is a
/// positive weight, so a key is occupied exactly when its sum is
/// positive.
enum Marginal {
    /// Flat sums indexed by key; drained by walking the key space.
    Dense(Vec<f64>),
    /// The adds in arrival order; drained by a *stable* sort on the key,
    /// which keeps each key's adds in arrival order.
    Sorted(Vec<(u128, f64)>),
}

impl Marginal {
    fn new(space: u128, cells: usize) -> Marginal {
        if space <= (cells as u128 * MARGINAL_DENSE_FACTOR).max(MARGINAL_DENSE_MIN) {
            Marginal::Dense(vec![0.0; space as usize])
        } else {
            Marginal::Sorted(Vec::with_capacity(cells))
        }
    }

    #[inline]
    fn add(&mut self, key: u128, w: f64) {
        match self {
            Marginal::Dense(v) => v[key as usize] += w,
            Marginal::Sorted(v) => v.push((key, w)),
        }
    }

    /// `(H, occupied cells)` over `total`, cells in ascending key order.
    fn entropy_and_cells(self, total: f64) -> (f64, usize) {
        match self {
            Marginal::Dense(v) => (
                entropy_from_counts(v.iter().copied(), total),
                v.iter().filter(|&&c| c > 0.0).count(),
            ),
            Marginal::Sorted(mut adds) => {
                adds.sort_by_key(|&(k, _)| k);
                let mut sums: Vec<f64> = Vec::new();
                let mut last = None;
                for (k, w) in adds {
                    if last == Some(k) {
                        *sums.last_mut().expect("key seen") += w;
                    } else {
                        sums.push(w);
                        last = Some(k);
                    }
                }
                (entropy_from_counts(sums.iter().copied(), total), sums.len())
            }
        }
    }
}

fn mi_from_joint(joint: &BTreeMap<u64, f64>, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut m_a: BTreeMap<u32, f64> = BTreeMap::new();
    let mut m_b: BTreeMap<u32, f64> = BTreeMap::new();
    for (&k, &w) in joint {
        *m_a.entry((k >> 32) as u32).or_insert(0.0) += w;
        *m_b.entry((k & 0xffff_ffff) as u32).or_insert(0.0) += w;
    }
    let h_ab = entropy_mm(
        entropy_from_counts(joint.values().copied(), total),
        joint.len(),
        total,
    );
    let h_a = entropy_mm(
        entropy_from_counts(m_a.values().copied(), total),
        m_a.len(),
        total,
    );
    let h_b = entropy_mm(
        entropy_from_counts(m_b.values().copied(), total),
        m_b.len(),
        total,
    );
    (h_a + h_b - h_ab).max(0.0)
}

#[cfg(test)]
mod kernel_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::build_candidates;
    use crate::options::NexusOptions;
    use nexus_kg::KnowledgeGraph;
    use nexus_query::parse;
    use nexus_table::{Column, Table};

    /// 3 countries; salary driven entirely by country hdi; one sparse attr;
    /// one irrelevant attr.
    fn toy() -> (Table, KnowledgeGraph, Vec<String>) {
        let mut countries = Vec::new();
        let mut salaries = Vec::new();
        let mut genders = Vec::new();
        for (c, base) in [("A", 90.0), ("B", 50.0), ("C", 70.0)] {
            for i in 0..40 {
                countries.push(c);
                salaries.push(base + (i % 5) as f64); // small within-country noise
                genders.push(if i % 3 == 0 { "f" } else { "m" });
            }
        }
        let table = Table::new(vec![
            ("Country", Column::from_strs(&countries)),
            ("Gender", Column::from_strs(&genders)),
            ("Salary", Column::from_f64(salaries)),
        ])
        .unwrap();
        let mut kg = KnowledgeGraph::new();
        for (name, hdi, noise) in [("A", 0.9, 3.0), ("B", 0.5, 1.0), ("C", 0.7, 3.0)] {
            let id = kg.add_entity(name, "Country");
            kg.set_literal(id, "hdi", hdi);
            kg.set_literal(id, "noise", noise); // A and C share a value: not injective
            if name != "B" {
                kg.set_literal(id, "sparse", hdi * 2.0);
            }
        }
        (table, kg, vec!["Country".to_string()])
    }

    fn setup() -> (CandidateSet, Engine) {
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        let engine = Engine::new(&set);
        (set, engine)
    }

    #[test]
    fn baseline_cmi_positive() {
        let (_, engine) = setup();
        assert!(
            engine.baseline_cmi() > 0.5,
            "baseline {}",
            engine.baseline_cmi()
        );
        assert_eq!(engine.baseline_support(), 120);
    }

    #[test]
    fn hdi_explains_away_country() {
        let (set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let raw = engine.cmi_single_raw(&set, hdi);
        // hdi is injective over countries -> conditioning on it zeroes the
        // raw CMI…
        assert!(raw < 0.05, "raw cmi {raw}");
        // …and the fast path agrees with the generic row-level path.
        let generic = engine.cmi_given(&set, &[hdi]);
        assert!((raw - generic).abs() < 1e-9, "fast {raw} generic {generic}");
        // …but a bijection of the exposure earns no *calibrated* credit:
        // permuting an injective map changes nothing, so the score stays at
        // the baseline.
        let calibrated = engine.cmi_single(&set, hdi);
        assert!(
            (calibrated - engine.baseline_cmi()).abs() < 0.05,
            "calibrated {calibrated} baseline {}",
            engine.baseline_cmi()
        );
    }

    #[test]
    fn fast_and_slow_paths_agree_on_all_stats() {
        let (set, engine) = setup();
        for idx in 0..set.candidates.len() {
            let cand = &set.candidates[idx];
            if !matches!(cand.repr, CandidateRepr::EntityLevel { .. }) {
                continue;
            }
            let fast = engine.stats(&set, idx);
            // Recompute via the row-level path.
            let rows = set.row_codes(cand);
            let joint = JointCounts::count(&[&set.o, &set.t, &rows], Some(&set.mask), None);
            let slow_cmi = (joint.marginal_entropy(&[0, 2]) + joint.marginal_entropy(&[1, 2])
                - joint.entropy()
                - joint.marginal_entropy(&[2]))
            .max(0.0);
            assert!(
                (fast.cmi_plugin() - slow_cmi).abs() < 1e-9,
                "{}: fast {} slow {}",
                cand.name,
                fast.cmi_plugin(),
                slow_cmi
            );
        }
    }

    #[test]
    fn relevance_separates_signal_from_noise() {
        let (set, engine) = setup();
        let hdi = engine.stats(&set, set.index_of("Country::hdi").unwrap());
        // Gender is independent of salary here.
        let gender = engine.stats(&set, set.index_of("Gender").unwrap());
        assert!(hdi.relevance() > 0.5);
        assert!(gender.relevance() < 0.1);
    }

    #[test]
    fn fd_residuals_detect_injectivity() {
        let (set, engine) = setup();
        let hdi = engine.stats(&set, set.index_of("Country::hdi").unwrap());
        // hdi <-> country is a bijection: both residuals ~0.
        assert!(hdi.h_t_given_e() < 0.01);
        assert!(hdi.h_e_given_t() < 0.01);
        // "noise" maps two countries to one value: T not recoverable from E.
        let noise = engine.stats(&set, set.index_of("Country::noise").unwrap());
        assert!(noise.h_t_given_e() > 0.3, "{}", noise.h_t_given_e());
        assert!(noise.h_e_given_t() < 0.01);
    }

    #[test]
    fn mi_pair_same_column_redundancy() {
        let (set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let sparse = set.index_of("Country::sparse").unwrap();
        let noise = set.index_of("Country::noise").unwrap();
        // sparse = 2*hdi on its support: maximal redundancy.
        let mi_hs = engine.mi_pair(&set, hdi, sparse);
        assert!(mi_hs > 0.9, "mi {mi_hs}");
        // hdi vs noise share less information (noise merges A and C).
        let mi_hn = engine.mi_pair(&set, hdi, noise);
        assert!(mi_hn < mi_hs);
        // Symmetric and cached.
        assert_eq!(engine.mi_pair(&set, sparse, hdi), mi_hs);
    }

    #[test]
    fn mi_pair_mixed_row_and_entity_level() {
        let (set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let gender = set.index_of("Gender").unwrap();
        let mi = engine.mi_pair(&set, hdi, gender);
        assert!(mi < 0.05, "gender and hdi should be ~independent: {mi}");
    }

    #[test]
    fn cmi_given_multiple() {
        let (set, engine) = setup();
        let gender = set.index_of("Gender").unwrap();
        let hdi = set.index_of("Country::hdi").unwrap();
        let with_gender = engine.cmi_given(&set, &[gender]);
        // Gender doesn't explain anything.
        assert!((with_gender - engine.baseline_cmi()).abs() < 0.2);
        let both = engine.cmi_given(&set, &[gender, hdi]);
        assert!(both < 0.05);
    }

    #[test]
    fn bias_mi_reports_missingness() {
        let (set, engine) = setup();
        let sparse = set.index_of("Country::sparse").unwrap();
        let (mi_o, _mi_t, missing) = engine.bias_mi(&set, sparse).unwrap();
        // B (a third of rows) is missing -> fraction ≈ 1/3, and missingness
        // is associated with the (country-driven) outcome.
        assert!((missing - 1.0 / 3.0).abs() < 0.05, "missing {missing}");
        assert!(mi_o > 0.1, "mi_o {mi_o}");
        // Row-level candidates have no entity-level bias diagnostics.
        let gender = set.index_of("Gender").unwrap();
        assert!(engine.bias_mi(&set, gender).is_none());
    }

    #[test]
    fn weighted_fast_path_matches_row_level() {
        // Entity-level IPW weights expanded to rows must give the same
        // plug-in entropies as the row-level weighted estimator.
        let (mut set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let card = set.column_codes["Country"].cardinality as usize;
        let w: Vec<f64> = (0..card).map(|i| 1.0 + i as f64).collect();
        set.candidates[hdi].entity_weights = Some(w);
        let fast = engine.stats(&set, hdi);

        let rows = set.row_codes(&set.candidates[hdi]);
        let row_weights = set.row_weights(&set.candidates[hdi]).expect("weighted");
        let joint = JointCounts::count(
            &[&set.o, &set.t, &rows],
            Some(&set.mask),
            Some(&row_weights),
        );
        let slow_cmi = (joint.marginal_entropy(&[0, 2]) + joint.marginal_entropy(&[1, 2])
            - joint.entropy()
            - joint.marginal_entropy(&[2]))
        .max(0.0);
        assert!(
            (fast.cmi_plugin() - slow_cmi).abs() < 1e-9,
            "fast {} slow {}",
            fast.cmi_plugin(),
            slow_cmi
        );
        assert!((fast.support - joint.total).abs() < 1e-9);
    }

    #[test]
    fn calibrated_never_exceeds_baseline_materially() {
        let (set, engine) = setup();
        for i in 0..set.candidates.len() {
            let c = engine.cmi_single(&set, i);
            assert!(
                c <= engine.baseline_cmi() + 1e-9,
                "{}: {c} > baseline",
                set.candidates[i].name
            );
        }
    }

    #[test]
    fn memoized_engine_is_bit_identical_and_hits() {
        use crate::memo::{MemoHandle, MemoStore};
        let (table, kg, cols) = toy();
        let q = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
        let set = build_candidates(&table, &kg, &cols, &q, &NexusOptions::default()).unwrap();
        let plain = Engine::new(&set);

        let store = Arc::new(MemoStore::new(0));
        let handle = MemoHandle::new(store.clone(), table.fingerprint());
        let before = kernel::counters().snapshot();
        let _cold = Engine::with_parallelism_memo(&set, Parallelism::Serial, Some(&handle));
        let mid = kernel::counters().snapshot();
        let warm = Engine::with_parallelism_memo(&set, Parallelism::Serial, Some(&handle));
        let after = kernel::counters().snapshot();

        // Warm memoized results are bit-identical to the memo-less engine.
        assert_eq!(
            warm.baseline_cmi().to_bits(),
            plain.baseline_cmi().to_bits()
        );
        assert_eq!(warm.baseline_support(), plain.baseline_support());
        for idx in 0..set.candidates.len() {
            let a = plain.stats(&set, idx);
            let b = warm.stats(&set, idx);
            assert_eq!(
                a.cmi().to_bits(),
                b.cmi().to_bits(),
                "{}",
                set.candidates[idx].name
            );
        }
        // The cold build published; the warm build hit every kind it asked
        // for. Counters are process-global, so these are lower bounds.
        let d_cold = mid.delta(&before);
        assert!(d_cold.memo_inserts[MemoKind::Contingency as usize] >= 1);
        assert!(d_cold.memo_inserts[MemoKind::CmiTerm as usize] >= 1);
        let d_warm = after.delta(&mid);
        assert!(d_warm.memo_hits[MemoKind::Contingency as usize] >= 1);
        assert!(d_warm.memo_hits[MemoKind::CmiTerm as usize] >= 1);
        // The warm engine shares the memoized tables by pointer: one
        // contingency per extraction column plus the baseline term.
        assert!(store.resident_entries() >= 2);
    }

    #[test]
    fn weighted_stats_change() {
        let (mut set, engine) = setup();
        let sparse = set.index_of("Country::sparse").unwrap();
        let unweighted = engine.stats(&set, sparse);
        // Upweight entity A heavily.
        let card = set.column_codes["Country"].cardinality as usize;
        let mut w = vec![1.0; card];
        w[0] = 5.0;
        set.candidates[sparse].entity_weights = Some(w);
        let weighted = engine.stats(&set, sparse);
        assert!(weighted.support > unweighted.support);
        assert_ne!(weighted.h_e, unweighted.h_e);
    }

    /// The ordered-map implementation `stats_from_cells` replaced, kept as
    /// its oracle.
    fn stats_from_cells_oracle(
        cont: &Contingency,
        map: &[u32],
        weights: Option<&[f64]>,
    ) -> CandStats {
        let card_t = cont.card_t as u64;
        let mut m_o: BTreeMap<u32, f64> = BTreeMap::new();
        let mut m_t: BTreeMap<u32, f64> = BTreeMap::new();
        let mut m_e: BTreeMap<u32, f64> = BTreeMap::new();
        let mut m_ot: BTreeMap<u64, f64> = BTreeMap::new();
        let mut m_oe: BTreeMap<u64, f64> = BTreeMap::new();
        let mut m_te: BTreeMap<u64, f64> = BTreeMap::new();
        let mut m_ote: BTreeMap<u64, f64> = BTreeMap::new();
        let mut total = 0.0;
        for &(o, t, x, c) in &cont.cells {
            let e = map[x as usize];
            if e == MISSING_CODE {
                continue;
            }
            let w = c * weights.map_or(1.0, |w| w[x as usize]);
            if w <= 0.0 {
                continue;
            }
            total += w;
            *m_o.entry(o).or_insert(0.0) += w;
            *m_t.entry(t).or_insert(0.0) += w;
            *m_e.entry(e).or_insert(0.0) += w;
            *m_ot.entry(o as u64 * card_t + t as u64).or_insert(0.0) += w;
            *m_oe.entry(((o as u64) << 32) | e as u64).or_insert(0.0) += w;
            *m_te.entry(((t as u64) << 32) | e as u64).or_insert(0.0) += w;
            *m_ote
                .entry(((o as u64 * card_t + t as u64) << 32) | e as u64)
                .or_insert(0.0) += w;
        }
        let h = |m: Vec<f64>| (entropy_from_counts(m.iter().copied(), total), m.len());
        let present_entities = (0..map.len())
            .filter(|&x| map[x] != MISSING_CODE && cont.x_marginal.get(x).is_some_and(|&w| w > 0.0))
            .count();
        CandStats {
            h_o: h(m_o.into_values().collect()),
            h_t: h(m_t.into_values().collect()),
            h_e: h(m_e.into_values().collect()),
            h_ot: h(m_ot.into_values().collect()),
            h_oe: h(m_oe.into_values().collect()),
            h_te: h(m_te.into_values().collect()),
            h_ote: h(m_ote.into_values().collect()),
            support: total,
            present_entities,
        }
    }

    fn assert_stats_identical(a: &CandStats, b: &CandStats, what: &str) {
        let bits = |s: &CandStats| {
            [s.h_o, s.h_t, s.h_e, s.h_ot, s.h_oe, s.h_te, s.h_ote].map(|(h, k)| (h.to_bits(), k))
        };
        assert_eq!(bits(a), bits(b), "entropies: {what}");
        assert_eq!(a.support.to_bits(), b.support.to_bits(), "support: {what}");
        assert_eq!(a.present_entities, b.present_entities, "present: {what}");
        assert_eq!(a.cmi().to_bits(), b.cmi().to_bits(), "cmi: {what}");
    }

    /// A random contingency over `|O| × |T| × |X|`, one cell in `one_in`
    /// occupied, with cells in the kernel's ascending `(x, t, o)` order
    /// and integer counts.
    fn random_contingency(
        rng: &mut rand::rngs::StdRng,
        (card_o, card_t, card_x): (u32, u32, u32),
        one_in: u32,
    ) -> Contingency {
        use rand::Rng;
        let mut keyed = Vec::new();
        for x in 0..card_x {
            for t in 0..card_t {
                for o in 0..card_o {
                    if rng.gen_range(0..one_in) == 0 {
                        let key =
                            (x as u128 * card_t as u128 + t as u128) * card_o as u128 + o as u128;
                        keyed.push((key, rng.gen_range(1..40) as f64));
                    }
                }
            }
        }
        Contingency::from_sorted_cells(
            keyed.into_iter(),
            card_o as u64,
            card_t as u64,
            card_x as usize,
        )
    }

    #[test]
    fn stats_from_cells_matches_ordered_map_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x57a7);
        // ((|O|, |T|, |X|), occupancy 1 in k, max candidate code, whether
        // (O,T,E) accumulates densely): small codes keep every marginal
        // dense; huge codes push the E-keyed marginals onto the sorted
        // fallback; a wide, sparsely occupied (O,T) grid sends `ot` there.
        let shapes = [
            ((3u32, 4u32, 30u32), 3u32, 5u32, true),
            ((5, 20, 60), 3, 12, true),
            ((4, 6, 40), 3, 3_000_000, false),
            ((40, 300, 2), 40, 4, false),
        ];
        for (si, &(cards, one_in, max_e, dense)) in shapes.iter().enumerate() {
            let (card_o, card_t, card_x) = cards;
            let cont = random_contingency(&mut rng, cards, one_in);
            let cells = cont.cells.len();
            let ote = card_o as u128 * card_t as u128 * (max_e as u128 + 1);
            let dense_ote = matches!(Marginal::new(ote, cells), Marginal::Dense(_));
            assert_eq!(
                dense_ote, dense,
                "shape {si} takes its intended (O,T,E) path"
            );
            if si == 3 {
                let ot = card_o as u128 * card_t as u128;
                assert!(matches!(Marginal::new(ot, cells), Marginal::Sorted(_)));
            }
            for trial in 0..6 {
                // Some entities lack the attribute; the largest code is
                // always present so the candidate's key space is fixed.
                let mut map: Vec<u32> = (0..card_x)
                    .map(|_| match rng.gen_range(0..5) {
                        0 => MISSING_CODE,
                        _ => rng.gen_range(0..=max_e),
                    })
                    .collect();
                map[0] = max_e;
                // IPW weights, including zeros the scorer must skip.
                let weights: Vec<f64> = (0..card_x)
                    .map(|_| match rng.gen_range(0..8) {
                        0 => 0.0,
                        _ => rng.gen_range(0.2..6.0),
                    })
                    .collect();
                for w in [None, Some(weights.as_slice())] {
                    let what = format!("shape {si} trial {trial} weighted={}", w.is_some());
                    assert_stats_identical(
                        &stats_from_cells(&cont, &map, w),
                        &stats_from_cells_oracle(&cont, &map, w),
                        &what,
                    );
                }
            }
            // Every entity missing: empty support.
            let none = vec![MISSING_CODE; card_x as usize];
            assert_stats_identical(
                &stats_from_cells(&cont, &none, None),
                &stats_from_cells_oracle(&cont, &none, None),
                "all missing",
            );
        }
    }

    #[test]
    fn engine_stats_match_ordered_map_oracle() {
        let (mut set, engine) = setup();
        for weighted in [false, true] {
            for idx in 0..set.candidates.len() {
                if weighted {
                    let card = set.column_codes["Country"].cardinality as usize;
                    set.candidates[idx].entity_weights =
                        Some((0..card).map(|i| 0.5 + i as f64 * 1.7).collect());
                }
                let cand = &set.candidates[idx];
                let CandidateRepr::EntityLevel { column, map, .. } = &cand.repr else {
                    continue;
                };
                let want = stats_from_cells_oracle(
                    &engine.base[column],
                    map,
                    cand.entity_weights.as_deref(),
                );
                assert_stats_identical(&engine.stats(&set, idx), &want, &cand.name);
            }
        }
    }
}

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
//!
//! The cross-column `(X₁, X₂)` counts behind MCIMR's redundancy term are
//! the same kind of build. Every score derived from cells — candidate
//! stats, pairwise MI, the selection-bias test — folds them through
//! `nexus_info`'s one cell accumulator, [`Marginal`], which drains in
//! ascending key order, the order an ordered map would give. Unweighted
//! cells are exact integers, so their sums are exact in any order and
//! only the entropy terms' order matters.

use std::any::Any;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

#[cfg(test)]
use nexus_info::entropy_from_counts;
use nexus_info::fold::Marginal;
use nexus_info::kernel;
use nexus_info::{
    ci_permute, ci_screen, entropy_mm, CalibrationRows, CiScreen, CiTestOptions, CiTestResult,
    InfoContext, JointCounts,
};
use nexus_runtime::{Parallelism, ThreadPool};
use nexus_table::{BinStrategy, Codes, Fnv64};

use crate::candidate::{Candidate, CandidateRepr, CandidateSet, MISSING_CODE};
use crate::memo::{
    map_fingerprint, set_fingerprint, weights_fingerprint, Claim, MemoHandle, MemoKey, MemoKind,
    WaitOutcome,
};
use crate::options::NexusOptions;

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
/// Every per-candidate value the engine derives — [`CandStats`], the
/// calibrated CMI, the pairwise MI, a flagged candidate's IPW weights, the
/// CMI given a candidate list and the responsibility test — is memoized
/// in a [`MemoStore`](crate::MemoStore) through one [`MemoHandle`]: the
/// server's store for a served run, so a later request over the same set
/// reuses them, or a private store the engine owns otherwise. Keys carry the candidate's *content* (its values and
/// weights), never just its name, so they stay valid when pruning
/// compacts the candidate vector or IPW attaches weights. Every value is a
/// pure function of its key, and the store builds each key once, so the
/// engine is freely shared across the worker threads of its
/// [`ThreadPool`]. Cross-column pair counts are built once per engine.
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
    /// The store every memoized value lives in.
    memo: MemoHandle,
    /// The set fingerprint every key carries (`0` in a private store).
    set_fp: u64,
    /// What shaped a row-level candidate's codes beyond its name and the
    /// set: the binnings (`0` in a private store).
    row_fp: u64,
    /// Joint cells of two extraction columns, built once per engine and
    /// nested by the name-ordered pair: the build is a counted
    /// `JointCounts` pass that many candidate pairs share, so a racing
    /// duplicate would make the kernel counters depend on the thread count.
    column_pairs: Mutex<HashMap<String, HashMap<String, PairSlot>>>,
}

/// Joint `(x₁, x₂, count)` cells for a pair of extraction columns.
type PairCells = Vec<(u32, u32, f64)>;

/// A column pair's memo slot, filled by the first caller that needs it.
type PairSlot = Arc<OnceLock<Arc<PairCells>>>;

/// Bytes a memo entry costs beyond its value: the key and the store's
/// bookkeeping.
const ENTRY_OVERHEAD: u64 = 96;

/// Candidates' row codes, each materialized on first use and then held:
/// only a conditioning set or a responsibility test that misses the memo
/// counts rows, and it needs their full-length codes.
pub(crate) struct SelectionRows<'s> {
    set: &'s CandidateSet,
    rows: Vec<(usize, Codes)>,
}

impl<'s> SelectionRows<'s> {
    /// Holds nothing yet.
    pub(crate) fn new(set: &'s CandidateSet) -> SelectionRows<'s> {
        SelectionRows {
            set,
            rows: Vec::new(),
        }
    }

    /// The row codes of `indices`, in order.
    fn get(&mut self, indices: &[usize]) -> Vec<&Codes> {
        for &i in indices {
            if !self.rows.iter().any(|&(j, _)| j == i) {
                let codes = self.set.row_codes(&self.set.candidates[i]);
                self.rows.push((i, codes));
            }
        }
        let held = |i: usize| self.rows.iter().find(|&&(j, _)| j == i);
        indices.iter().map(|&i| &held(i).expect("held").1).collect()
    }

    /// Drops the codes of a candidate no later lookup will ask for.
    pub(crate) fn forget(&mut self, idx: usize) {
        self.rows.retain(|&(j, _)| j != idx);
    }
}

/// One memoized responsibility test (Lemma 4.2): the screen's verdict and,
/// once a caller needs it, the permutation null's result. The null is drawn
/// at most once per entry, by the first caller that asks.
pub(crate) struct CiTest {
    /// The verdict of [`ci_screen`].
    pub(crate) screen: CiScreen,
    /// The result of [`ci_permute`] for a pending screen.
    drawn: OnceLock<CiTestResult>,
}

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
        Engine::with_pool_memo(set, ThreadPool::new(parallelism), None)
    }

    /// [`Engine::with_parallelism`] over a shared sub-query memo: the
    /// per-column contingencies, the baseline CMI term and every
    /// per-candidate value are fetched from (and published to) the store
    /// instead of recomputed. `options` are the ones the set was built
    /// with: their binnings shaped the row-level candidates' codes, which
    /// those candidates' keys must carry. Results are byte-identical to
    /// the memo-less path; warm builds simply skip the work.
    pub fn with_parallelism_memo(
        set: &CandidateSet,
        parallelism: Parallelism,
        memo: &MemoHandle,
        options: &NexusOptions,
    ) -> Engine {
        Engine::with_pool_memo(set, ThreadPool::new(parallelism), Some((memo, options)))
    }

    /// The engine on a given pool, over a shared memo (with the set's
    /// build options) or a private one: a pipeline run passes the pool its
    /// candidate build ran on, so one set of pool counters covers the
    /// whole run.
    pub(crate) fn with_pool_memo(
        set: &CandidateSet,
        pool: ThreadPool,
        shared: Option<(&MemoHandle, &NexusOptions)>,
    ) -> Engine {
        // Every per-set entry of a shared store carries one fingerprint
        // over the context mask words and the O/T codes (computed once per
        // engine build). A private store holds one set only.
        let (memo, set_fp, row_fp) = match shared {
            Some((handle, options)) => (
                handle.clone(),
                set_fingerprint(&set.mask, &set.o, &set.t),
                bins_fingerprint(options),
            ),
            None => (MemoHandle::private(), 0, 0),
        };
        let col_key =
            |column: &str| MemoKey::new(MemoKind::Contingency, memo.dataset_fp, set_fp, 0, column);
        let mut columns: Vec<&String> = set.column_codes.keys().collect();
        columns.sort();

        // Single-flight discipline: claim every column first (claim never
        // blocks), pool-build this engine's Build claims, publish them, and
        // only then wait on other requests' in-flight builds — so no engine
        // ever waits while holding an unbuilt ticket another engine could
        // be waiting on.
        let mut base: HashMap<String, Arc<Contingency>> = HashMap::new();
        let mut builds = Vec::new();
        let mut waits: Vec<&String> = Vec::new();
        for column in columns {
            match memo.store.claim(&col_key(column)) {
                Claim::Hit(v) => {
                    let cont = v
                        .downcast::<Contingency>()
                        .expect("memo value type mismatch");
                    base.insert(column.clone(), cont);
                }
                Claim::Build(ticket) => builds.push((column, ticket)),
                Claim::Wait => waits.push(column),
            }
        }
        // The builds are the only pool tasks this step spawns: a fully
        // warm engine runs zero counting tasks, which is how the CI suite
        // asserts memo gains (counters, not clocks).
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
            base.insert(column.clone(), cont);
        }
        for column in waits {
            let cont = match memo.store.wait(&col_key(column)) {
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
            base.insert(column.clone(), cont);
        }

        let baseline_key = MemoKey::new(MemoKind::CmiTerm, memo.dataset_fp, set_fp, 0, "baseline");
        let (baseline_cmi, baseline_support) = *memo.store.get_or_build(&baseline_key, || {
            let ctx = InfoContext::masked(&set.mask);
            let value = (
                ctx.mutual_information_mm(&set.o, &set.t),
                ctx.support(&[&set.o, &set.t]),
            );
            (Arc::new(value), 24)
        });
        Engine {
            base,
            baseline_cmi,
            baseline_support,
            pool,
            memo,
            set_fp,
            row_fp,
            column_pairs: Mutex::default(),
        }
    }

    /// Single-flight get-or-build of one memoized value under this
    /// engine's dataset and set. `bytes` is the value's resident size.
    fn memoized<T: Any + Send + Sync>(
        &self,
        kind: MemoKind,
        name: String,
        item_fp: u64,
        bytes: u64,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let bytes = bytes + name.len() as u64 + ENTRY_OVERHEAD;
        let key = MemoKey::new(kind, self.memo.dataset_fp, self.set_fp, item_fp, name);
        self.memo
            .store
            .get_or_build(&key, || (Arc::new(build()), bytes))
    }

    /// Absorbs what a candidate's values are beyond its name and the set:
    /// `(column, map)` for an entity-level candidate; for a row-level one,
    /// whose codes are its named base column binned under the set's mask,
    /// the binnings.
    fn write_content(&self, h: &mut Fnv64, cand: &Candidate) {
        match &cand.repr {
            CandidateRepr::EntityLevel { column, map, .. } => {
                h.write_u8(1);
                h.write_str(column);
                h.write_u64(map_fingerprint(map));
            }
            CandidateRepr::RowLevel(_) => {
                h.write_u8(2);
                h.write_u64(self.row_fp);
            }
        }
    }

    /// The item fingerprint of a candidate's stats and calibrated CMI: its
    /// content and its IPW weights.
    fn weighted_fp(&self, cand: &Candidate) -> u64 {
        let mut h = Fnv64::new();
        self.write_content(&mut h, cand);
        match &cand.entity_weights {
            None => h.write_u8(0),
            Some(w) => {
                h.write_u8(1);
                h.write_u64(weights_fingerprint(w));
            }
        }
        h.finish()
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
    pub fn eligible(&self, set: &CandidateSet, idx: usize, options: &NexusOptions) -> bool {
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

    /// Per-candidate stats (memoized under the candidate's content and
    /// weights).
    pub fn stats(&self, set: &CandidateSet, idx: usize) -> CandStats {
        let cand = &set.candidates[idx];
        let size = std::mem::size_of::<CandStats>() as u64;
        *self.memoized(
            MemoKind::Stats,
            cand.name.clone(),
            self.weighted_fp(cand),
            size,
            || self.compute_stats(set, cand),
        )
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
        // Its build reads the candidate's stats, a key of another kind:
        // memoized builds only ever nest calibrated → stats.
        *self.memoized(
            MemoKind::Calibrated,
            cand.name.clone(),
            self.weighted_fp(cand),
            8,
            || self.compute_calibrated(set, idx),
        )
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
                kernel::counters().record_calibration(16, vals.len() as u64);
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
                match self.row_level_samples(set, idx, codes, &mut rng) {
                    Some(samples) => samples,
                    None => return self.baseline_cmi,
                }
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

    /// The six calibration samples of a row-level candidate: `E` shuffled
    /// over its in-context valid rows (or, for a near-function of the
    /// exposure, across exposure groups), each scored by the Miller–Madow
    /// `I(O;T|E)` over a compact copy of the rows it counts
    /// ([`CalibrationRows`]). `None` when fewer than two rows can be
    /// shuffled.
    fn row_level_samples(
        &self,
        set: &CandidateSet,
        idx: usize,
        codes: &Codes,
        rng: &mut rand::rngs::StdRng,
    ) -> Option<Vec<f64>> {
        use rand::seq::SliceRandom;

        let (mut counted, domain_vals) = CalibrationRows::new(&set.o, &set.t, codes, &set.mask);
        if domain_vals.len() < 2 {
            return None;
        }
        // A candidate that is (almost) a function of the exposure — e.g.
        // the `Continent` column under a per-country query — must be
        // permuted at the exposure-group level: per-row shuffling would
        // destroy structure a random group-level attribute of the same
        // shape retains.
        let group_level = self.stats(set, idx).h_e_given_t() < 0.05;
        let t = &set.t;
        let (t_groups, mut vals): (Vec<u32>, Vec<u32>) = if group_level {
            // One representative value per exposure group.
            let mut rep: Vec<Option<u32>> = vec![None; t.cardinality as usize];
            for (g, &v) in counted.exposures().zip(&domain_vals) {
                if let Some(g) = g {
                    rep[g as usize] = Some(v);
                }
            }
            (0..t.cardinality)
                .filter_map(|g| rep[g as usize].map(|v| (g, v)))
                .unzip()
        } else {
            (Vec::new(), domain_vals)
        };
        let mut assign = vec![0u32; t.cardinality as usize];
        let mut samples = Vec::with_capacity(6);
        kernel::counters().record_calibration(6, vals.len() as u64);
        for _ in 0..6 {
            vals.shuffle(rng);
            let cmi = if group_level {
                for (&g, &v) in t_groups.iter().zip(&vals) {
                    assign[g as usize] = v;
                }
                counted.cmi_mm(codes.cardinality, |_, t| assign[t as usize])
            } else {
                counted.cmi_mm(codes.cardinality, |j, _| vals[j])
            };
            samples.push(cmi);
        }
        Some(samples)
    }

    /// Pairwise `I(Eᵢ;Eⱼ)` (the Min-Redundancy criterion), memoized per
    /// *ordered* pair: the fold's f64 sums depend on the orientation, so
    /// each orientation is keyed (and computed) on its own. MCIMR asks
    /// only `(candidate, selected)`.
    pub fn mi_pair(&self, set: &CandidateSet, a: usize, b: usize) -> f64 {
        let (ca, cb) = (&set.candidates[a], &set.candidates[b]);
        // Length-prefixing the first name keeps `("ab", "c")` and
        // `("a", "bc")` apart.
        let name = format!("{}:{}{}", ca.name.len(), ca.name, cb.name);
        let mut h = Fnv64::new();
        self.write_content(&mut h, ca);
        self.write_content(&mut h, cb);
        *self.memoized(MemoKind::MiPair, name, h.finish(), 8, || {
            self.compute_mi_pair(set, a, b)
        })
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
                let spaces = (key_space(map_a), key_space(map_b));
                if col_a == col_b {
                    // Both are functions of the same entity code.
                    let cont = &self.base[col_a];
                    let cells = cont
                        .x_marginal
                        .iter()
                        .enumerate()
                        .filter(|&(_, &w)| w > 0.0);
                    mi_from_cells(cells.map(|(x, &w)| (map_a[x], map_b[x], w)), spaces)
                } else {
                    let (pairs, swap) = self.column_pair_counts(set, col_a, col_b);
                    let cells = pairs.iter().map(|&(x1, x2, w)| {
                        let (xa, xb) = if swap { (x2, x1) } else { (x1, x2) };
                        (map_a[xa as usize], map_b[xb as usize], w)
                    });
                    mi_from_cells(cells, spaces)
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

    /// Joint `(X₁, X₂)` counts across two extraction columns, cached once
    /// per unordered pair: the name-ordered pair's `(x₁, x₂, count)` cells
    /// in ascending `(x₁, x₂)` order, and whether `(col_a, col_b)` is that
    /// pair swapped.
    fn column_pair_counts(
        &self,
        set: &CandidateSet,
        col_a: &str,
        col_b: &str,
    ) -> (Arc<PairCells>, bool) {
        let swap = col_a > col_b;
        let (ka, kb) = if swap { (col_b, col_a) } else { (col_a, col_b) };
        // Claim the pair's slot under the engine lock; build outside it.
        let slot = {
            let mut column_pairs = self.column_pairs.lock().expect("column pairs");
            let pairs = column_pairs.entry(ka.to_owned()).or_default();
            Arc::clone(pairs.entry(kb.to_owned()).or_default())
        };
        let cells = slot.get_or_init(|| {
            // First variable fastest: key `x₁·|X₂| + x₂` drains in
            // `(x₁, x₂)` order.
            let joint = JointCounts::count(
                &[&set.column_codes[kb], &set.column_codes[ka]],
                Some(&set.mask),
                None,
            );
            let radix = joint.radices[0];
            Arc::new(
                joint
                    .counts
                    .iter()
                    .map(|(k, w)| ((k / radix) as u32, (k % radix) as u32, w))
                    .collect(),
            )
        });
        (Arc::clone(cells), swap)
    }

    /// Permutation-calibrated `I(O;T|C, E₁..Eₖ)` for a conditioning **set**
    /// (row-level counts; `k` is small): six samples, each permuting every
    /// member with `Engine::permute_codes`, credited by the same rule as
    /// [`Engine::cmi_single`] (the deviation beyond one permutation-sd).
    /// Used by set-enumerating baselines (Brute-Force) so that a bundle of
    /// shape-lucky attributes cannot outscore genuine confounders.
    pub fn cmi_given_calibrated(&self, set: &CandidateSet, indices: &[usize]) -> f64 {
        use rand::SeedableRng;
        const N_PERMS: usize = 6;
        if indices.is_empty() {
            return self.baseline_cmi;
        }
        let mut held = SelectionRows::new(set);
        let observed = self.cmi_given_over(set, indices, &mut held);
        let mut seed = Fnv64::new();
        for &i in indices {
            seed.write(set.candidates[i].name.as_bytes());
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.finish());

        // Materialize row codes and shuffle domains once; permute at
        // entity level where applicable, else per-row.
        let originals = held.get(indices);
        let domains: Vec<(Vec<usize>, Vec<u32>)> = indices
            .iter()
            .zip(&originals)
            .map(|(&idx, rows)| self.shuffle_domain(set, idx, rows))
            .collect();
        let mut samples = Vec::with_capacity(N_PERMS);
        let mut shuffled = 0u64;
        for _ in 0..N_PERMS {
            let mut permuted: Vec<Codes> = Vec::with_capacity(indices.len());
            for ((&idx, &rows), domain) in indices.iter().zip(&originals).zip(&domains) {
                permuted.push(self.permute_codes(set, idx, rows, domain, &mut rng, &mut shuffled));
            }
            let refs: Vec<&Codes> = permuted.iter().collect();
            samples.push(InfoContext::masked(&set.mask).cmi_mm(&set.o, &set.t, &refs));
        }
        kernel::counters().record_calibration(N_PERMS as u64, shuffled / N_PERMS as u64);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
        let credit = (mean - observed - var.sqrt()).max(0.0);
        (self.baseline_cmi - credit).max(0.0)
    }

    /// What [`Engine::permute_codes`] shuffles for a candidate: the
    /// entities that carry in-context rows and their codes when it is
    /// entity-backed, else its in-context valid rows and their codes.
    fn shuffle_domain(
        &self,
        set: &CandidateSet,
        idx: usize,
        rows: &Codes,
    ) -> (Vec<usize>, Vec<u32>) {
        match &set.candidates[idx].repr {
            CandidateRepr::EntityLevel { column, map, .. } => {
                let cont = &self.base[column];
                let present: Vec<usize> = (0..map.len())
                    .filter(|&e| cont.x_marginal.get(e).is_some_and(|&w| w > 0.0))
                    .collect();
                let vals = present.iter().map(|&e| map[e]).collect();
                (present, vals)
            }
            CandidateRepr::RowLevel(_) => {
                let usable: Vec<usize> = (0..rows.len())
                    .filter(|&i| set.mask.get(i) && rows.is_valid(i))
                    .collect();
                let vals = usable.iter().map(|&i| rows.codes[i]).collect();
                (usable, vals)
            }
        }
    }

    /// One shape-preserving permutation of a candidate's row codes: its
    /// [`Engine::shuffle_domain`] values shuffled afresh from their
    /// original order, at entity level when the candidate is
    /// entity-backed, else per row — even for a function of `T`, which
    /// [`Engine::cmi_single`] would shuffle by exposure group. Adds the
    /// number of values shuffled to `shuffled`.
    fn permute_codes(
        &self,
        set: &CandidateSet,
        idx: usize,
        rows: &Codes,
        (slots, originals): &(Vec<usize>, Vec<u32>),
        rng: &mut rand::rngs::StdRng,
        shuffled: &mut u64,
    ) -> Codes {
        use rand::seq::SliceRandom;
        let mut vals = originals.clone();
        vals.shuffle(rng);
        *shuffled += vals.len() as u64;
        match &set.candidates[idx].repr {
            CandidateRepr::EntityLevel { column, map, .. } => {
                let x = &set.column_codes[column];
                let mut new_map = map.clone();
                for (&e, &v) in slots.iter().zip(&vals) {
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
                let mut permuted = rows.clone();
                for (&i, &v) in slots.iter().zip(&vals) {
                    permuted.codes[i] = v;
                }
                permuted
            }
        }
    }

    /// Raw (Miller–Madow) `I(O;T|C, E₁..Eₖ)` for a conditioning set,
    /// memoized per ordered list: the order sets the conditioning key's
    /// digits, hence the f64 fold order.
    pub fn cmi_given(&self, set: &CandidateSet, indices: &[usize]) -> f64 {
        self.cmi_given_over(set, indices, &mut SelectionRows::new(set))
    }

    /// [`Engine::cmi_given`], counting over `rows` on a miss.
    pub(crate) fn cmi_given_over(
        &self,
        set: &CandidateSet,
        indices: &[usize],
        rows: &mut SelectionRows<'_>,
    ) -> f64 {
        if indices.is_empty() {
            return self.baseline_cmi;
        }
        let mut h = Fnv64::new();
        let name = self.list_key(set, indices, &mut h);
        *self.memoized(MemoKind::CmiGiven, name, h.finish(), 8, || {
            InfoContext::masked(&set.mask).cmi_mm(&set.o, &set.t, &rows.get(indices))
        })
    }

    /// The responsibility test of candidate `tested` given the ordered
    /// `given` candidates, `O ⫫ E_tested | E_given` over the unweighted
    /// context rows: memoized under both lists' content and every
    /// `CiTestOptions` field. A miss runs only the screen; draw a pending
    /// test's null with [`Engine::ci_null`].
    pub(crate) fn ci_test(
        &self,
        set: &CandidateSet,
        given: &[usize],
        tested: usize,
        options: &CiTestOptions,
        rows: &mut SelectionRows<'_>,
    ) -> Arc<CiTest> {
        let list: Vec<usize> = given.iter().copied().chain([tested]).collect();
        let mut h = Fnv64::new();
        let name = self.list_key(set, &list, &mut h);
        let CiTestOptions {
            n_permutations,
            alpha,
            seed,
            cmi_shortcut,
        } = *options;
        h.write_u64(n_permutations as u64);
        h.write_u64(alpha.to_bits());
        h.write_u64(seed);
        h.write_u64(cmi_shortcut.to_bits());
        let size = std::mem::size_of::<CiTest>() as u64;
        self.memoized(MemoKind::CiTest, name, h.finish(), size, || {
            let codes = rows.get(&list);
            let (e, z) = codes.split_last().expect("the tested candidate");
            CiTest {
                screen: ci_screen(&InfoContext::masked(&set.mask), &set.o, e, z, options),
                drawn: OnceLock::new(),
            }
        })
    }

    /// The result of `test`, [`Engine::ci_test`]'s entry for the same
    /// inputs: a decided screen's result, or the permutation null drawn on
    /// the engine's pool the first time any caller asks for it.
    pub(crate) fn ci_null(
        &self,
        test: &CiTest,
        set: &CandidateSet,
        given: &[usize],
        tested: usize,
        options: &CiTestOptions,
        rows: &mut SelectionRows<'_>,
    ) -> CiTestResult {
        let observed = match test.screen {
            CiScreen::Decided(result) => return result,
            CiScreen::Pending { observed_cmi } => observed_cmi,
        };
        *test.drawn.get_or_init(|| {
            let list: Vec<usize> = given.iter().copied().chain([tested]).collect();
            let codes = rows.get(&list);
            let (e, z) = codes.split_last().expect("the tested candidate");
            let ctx = InfoContext::masked(&set.mask);
            ci_permute(&ctx, &set.o, e, z, options, observed, &self.pool)
        })
    }

    /// The key material of an ordered candidate list: every name
    /// length-prefixed, in order, as the returned `name`, and every
    /// candidate's content, in order, written into `h`.
    fn list_key(&self, set: &CandidateSet, indices: &[usize], h: &mut Fnv64) -> String {
        let mut name = String::new();
        for &i in indices {
            let cand = &set.candidates[i];
            write!(name, "{}:{}", cand.name.len(), cand.name).expect("writing to a String");
            self.write_content(h, cand);
        }
        name
    }

    /// Selection-bias diagnostics for an entity-level candidate:
    /// `(I(R_E;O|C), I(R_E;T|C), missing fraction over linked in-context
    /// rows)`. Returns `None` for row-level candidates.
    pub fn bias_mi(&self, set: &CandidateSet, idx: usize) -> Option<(f64, f64, f64)> {
        let cand = &set.candidates[idx];
        let CandidateRepr::EntityLevel { column, map, .. } = &cand.repr else {
            return None;
        };
        Some(bias_from_cells(&self.base[column], map))
    }

    /// Per-x total weights for an extraction column (used for entity-level
    /// IPW fitting).
    pub fn x_marginal(&self, column: &str) -> Option<&[f64]> {
        self.base.get(column).map(|c| c.x_marginal.as_slice())
    }

    /// A flagged candidate's entity-level IPW weights, memoized: `fit`
    /// runs only on a miss. `covariates_fp` fingerprints the covariate
    /// maps the selection model is fitted on; the candidate's content and
    /// its column's in-context row mass (part of the set) complete the key.
    pub(crate) fn ipw_weights(
        &self,
        set: &CandidateSet,
        idx: usize,
        covariates_fp: u64,
        fit: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        let cand = &set.candidates[idx];
        let mut h = Fnv64::new();
        self.write_content(&mut h, cand);
        h.write_u64(covariates_fp);
        let bytes = match &cand.repr {
            CandidateRepr::EntityLevel { map, .. } => 24 + 8 * map.len() as u64,
            CandidateRepr::RowLevel(_) => 24,
        };
        self.memoized(
            MemoKind::IpwWeights,
            cand.name.clone(),
            h.finish(),
            bytes,
            fit,
        )
    }
}

/// Fingerprint of the binnings a set was built with. Both count: a
/// numeric base column is binned with the outcome's strategy over the
/// context rows, an extracted one with the candidates'.
fn bins_fingerprint(options: &NexusOptions) -> u64 {
    let mut h = Fnv64::new();
    for bins in [options.outcome_bins, options.candidate_bins] {
        let (tag, n) = match bins {
            BinStrategy::EqualWidth(n) => (1, n),
            BinStrategy::Quantile(n) => (2, n),
        };
        h.write_u8(tag);
        h.write_u64(n as u64);
    }
    h.finish()
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
    let card_e = key_space(map);
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

/// `(I(R;O), I(R;T), missing fraction)` of a candidate's observation
/// indicator `R` (its entity has a value) over a contingency's cells.
/// `(o,r)`, `(t,r)`, `O`, `T` and `R` accumulate in [`Marginal`]s keyed
/// `o·2 + r`, `t·2 + r`, `o`, `t` and `r`.
fn bias_from_cells(cont: &Contingency, map: &[u32]) -> (f64, f64, f64) {
    let (card_o, card_t) = (cont.card_o.max(1) as u128, cont.card_t.max(1) as u128);
    let n = cont.cells.len();
    let mut m_or = Marginal::new(card_o * 2, n);
    let mut m_tr = Marginal::new(card_t * 2, n);
    let mut m_o = Marginal::new(card_o, n);
    let mut m_t = Marginal::new(card_t, n);
    let mut m_r = Marginal::new(2, n);
    let mut missing = 0.0;
    for &(o, t, x, w) in &cont.cells {
        let r = (map[x as usize] != MISSING_CODE) as u128;
        if r == 0 {
            missing += w;
        }
        let (o, t) = (o as u128, t as u128);
        m_or.add(o * 2 + r, w);
        m_tr.add(t * 2 + r, w);
        m_o.add(o, w);
        m_t.add(t, w);
        m_r.add(r, w);
    }
    let total = cont.total;
    if total <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    // I(A;R) = H(A) + H(R) − H(A,R)
    let h = |m: Marginal| m.entropy_and_cells(total).0;
    let h_r = h(m_r);
    let mi_or = (h(m_o) + h_r - h(m_or)).max(0.0);
    let mi_tr = (h(m_t) + h_r - h(m_tr)).max(0.0);
    (mi_or, mi_tr, missing / total)
}

/// The key space of a candidate's codes: one past its largest observed
/// code (1 when every entity is missing).
fn key_space(map: &[u32]) -> u128 {
    map.iter()
        .filter(|&&e| e != MISSING_CODE)
        .max()
        .map_or(1, |&e| e as u128 + 1)
}

/// Miller–Madow `I(A;B)` from `(a, b, count)` cells of exact integer
/// counts, codes within the key spaces `(|A|, |B|)`; cells with a missing
/// code are skipped. The joint accumulates in a [`Marginal`] keyed
/// `a·|B| + b`, which drains in ascending `(a, b)` order.
fn mi_from_cells(
    cells: impl Iterator<Item = (u32, u32, f64)>,
    (card_a, card_b): (u128, u128),
) -> f64 {
    let cells: Vec<(u32, u32, f64)> = cells
        .filter(|&(a, b, _)| a != MISSING_CODE && b != MISSING_CODE)
        .collect();
    let n = cells.len();
    let mut m_ab = Marginal::new(card_a * card_b, n);
    let mut m_a = Marginal::new(card_a, n);
    let mut m_b = Marginal::new(card_b, n);
    let mut total = 0.0;
    for (a, b, w) in cells {
        let (a, b) = (a as u128, b as u128);
        m_ab.add(a * card_b + b, w);
        m_a.add(a, w);
        m_b.add(b, w);
        total += w;
    }
    if total <= 0.0 {
        return 0.0;
    }
    let h = |m: Marginal| {
        let (h, cells) = m.entropy_and_cells(total);
        entropy_mm(h, cells, total)
    };
    (h(m_a) + h(m_b) - h(m_ab)).max(0.0)
}

#[cfg(test)]
mod kernel_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
        let options = NexusOptions::default();
        let n = set.candidates.len();
        let scores = |engine: &Engine| {
            let mut bits = Vec::new();
            for idx in 0..n {
                bits.push(engine.stats(&set, idx).cmi().to_bits());
                bits.push(engine.cmi_single(&set, idx).to_bits());
                for other in 0..n {
                    bits.push(engine.mi_pair(&set, idx, other).to_bits());
                }
            }
            bits
        };
        let cold_scores = scores(&Engine::with_parallelism_memo(
            &set,
            Parallelism::Serial,
            &handle,
            &options,
        ));
        let cold = store.counts();
        let warm = Engine::with_parallelism_memo(&set, Parallelism::Serial, &handle, &options);
        let warm_scores = scores(&warm);
        let after = store.counts();

        // Warm memoized results are bit-identical to the memo-less engine.
        assert_eq!(
            warm.baseline_cmi().to_bits(),
            plain.baseline_cmi().to_bits()
        );
        assert_eq!(warm.baseline_support(), plain.baseline_support());
        let plain_scores = scores(&plain);
        assert_eq!(cold_scores, plain_scores);
        assert_eq!(warm_scores, plain_scores);
        // The cold engine published; the warm one hit every kind it asked
        // for and missed nothing.
        for kind in [
            MemoKind::Contingency,
            MemoKind::CmiTerm,
            MemoKind::Stats,
            MemoKind::Calibrated,
            MemoKind::MiPair,
        ] {
            let k = kind as usize;
            assert!(cold.inserts[k] >= 1, "{kind:?}");
            assert!(after.hits[k] > cold.hits[k], "{kind:?}");
            assert_eq!(after.misses[k], cold.misses[k], "{kind:?}");
        }
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

    /// The ordered-map `bias_mi` fold `bias_from_cells` replaced, kept as
    /// its oracle.
    fn bias_oracle(cont: &Contingency, map: &[u32]) -> (f64, f64, f64) {
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
            return (0.0, 0.0, 0.0);
        }
        let mi = |m: &BTreeMap<u64, f64>| {
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
        (mi(&m_or), mi(&m_tr), missing / total)
    }

    #[test]
    fn bias_from_cells_matches_ordered_map_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xb1a5);
        // ((|O|, |T|, |X|), occupancy 1 in k): the last shape is sparse
        // enough over a wide `T` that `(t, r)` and `T` take the sorted
        // fallback.
        let shapes = [
            ((3u32, 4u32, 30u32), 3u32),
            ((5, 20, 60), 3),
            ((40, 300, 2), 40),
            ((2, 3000, 3), 50),
        ];
        for (si, &(cards, one_in)) in shapes.iter().enumerate() {
            let cont = random_contingency(&mut rng, cards, one_in);
            if si == 3 {
                let space = cards.1 as u128 * 2;
                let sorted = Marginal::new(space, cont.cells.len());
                assert!(matches!(sorted, Marginal::Sorted(_)));
            }
            for trial in 0..6 {
                let map: Vec<u32> = (0..cards.2)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => MISSING_CODE,
                        _ => rng.gen_range(0..7),
                    })
                    .collect();
                let (got, want) = (bias_from_cells(&cont, &map), bias_oracle(&cont, &map));
                let bits = |(a, b, c): (f64, f64, f64)| [a.to_bits(), b.to_bits(), c.to_bits()];
                assert_eq!(bits(got), bits(want), "shape {si} trial {trial}");
            }
        }
        let empty = Contingency::from_sorted_cells(std::iter::empty(), 3, 4, 5);
        assert_eq!(bias_from_cells(&empty, &[0; 5]), (0.0, 0.0, 0.0));
    }

    /// The ordered-map Miller–Madow `I(A;B)` fold `mi_from_cells`
    /// replaced, over `(a << 32) | b` keys.
    fn ordered_map_mi_oracle(joint: &BTreeMap<u64, f64>, total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        let mut m_a: BTreeMap<u32, f64> = BTreeMap::new();
        let mut m_b: BTreeMap<u32, f64> = BTreeMap::new();
        for (&k, &w) in joint {
            *m_a.entry((k >> 32) as u32).or_insert(0.0) += w;
            *m_b.entry((k & 0xffff_ffff) as u32).or_insert(0.0) += w;
        }
        let h = |m: Vec<f64>| {
            entropy_mm(
                entropy_from_counts(m.iter().copied(), total),
                m.len(),
                total,
            )
        };
        let h_ab = h(joint.values().copied().collect());
        let h_a = h(m_a.into_values().collect());
        let h_b = h(m_b.into_values().collect());
        (h_a + h_b - h_ab).max(0.0)
    }

    /// The per-row ordered-map `column_pair_counts` the `JointCounts` build
    /// replaced: cells of `(col_a, col_b)` in the caller's orientation.
    fn column_pair_oracle(set: &CandidateSet, col_a: &str, col_b: &str) -> PairCells {
        let (ka, kb) = if col_a <= col_b {
            (col_a, col_b)
        } else {
            (col_b, col_a)
        };
        let (xa, xb) = (&set.column_codes[ka], &set.column_codes[kb]);
        let mut map: BTreeMap<u64, f64> = BTreeMap::new();
        for i in 0..xa.len() {
            if !set.mask.get(i) || !xa.is_valid(i) || !xb.is_valid(i) {
                continue;
            }
            let k = ((xa.codes[i] as u64) << 32) | xb.codes[i] as u64;
            *map.entry(k).or_insert(0.0) += 1.0;
        }
        let canonical = map
            .into_iter()
            .map(|(k, w)| ((k >> 32) as u32, (k & 0xffff_ffff) as u32, w));
        if col_a > col_b {
            canonical.map(|(a, b, w)| (b, a, w)).collect()
        } else {
            canonical.collect()
        }
    }

    /// The ordered-map entity-level arms of `compute_mi_pair`.
    fn mi_pair_oracle(engine: &Engine, set: &CandidateSet, a: usize, b: usize) -> f64 {
        let entity = |i: usize| match &set.candidates[i].repr {
            CandidateRepr::EntityLevel { column, map, .. } => (column.as_str(), map),
            CandidateRepr::RowLevel(_) => unreachable!("entity-level fixture"),
        };
        let ((col_a, map_a), (col_b, map_b)) = (entity(a), entity(b));
        let cells: PairCells = if col_a == col_b {
            let marginal = &engine.base[col_a].x_marginal;
            (0..marginal.len() as u32)
                .filter(|&x| marginal[x as usize] > 0.0)
                .map(|x| (x, x, marginal[x as usize]))
                .collect()
        } else {
            column_pair_oracle(set, col_a, col_b)
        };
        let mut joint: BTreeMap<u64, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (xa, xb, w) in cells {
            let (ea, eb) = (map_a[xa as usize], map_b[xb as usize]);
            if ea == MISSING_CODE || eb == MISSING_CODE {
                continue;
            }
            *joint.entry(((ea as u64) << 32) | eb as u64).or_insert(0.0) += w;
            total += w;
        }
        ordered_map_mi_oracle(&joint, total)
    }

    /// Two extraction columns, `A` (30 entities) and `B` (50), over a
    /// masked table with nulls, each carrying entity-level candidates with
    /// small codes (dense joint marginals) and huge codes (sorted ones).
    fn two_column_set(rng: &mut rand::rngs::StdRng, n: usize) -> CandidateSet {
        use rand::Rng;
        let codes = |rng: &mut rand::rngs::StdRng, card: u32| {
            let mut validity = nexus_table::Bitmap::with_value(n, true);
            let codes = (0..n)
                .map(|i| {
                    if rng.gen_range(0..9) == 0 {
                        validity.set(i, false);
                    }
                    rng.gen_range(0..card)
                })
                .collect();
            Codes {
                codes,
                cardinality: card,
                validity: Some(validity),
            }
        };
        let (o, t) = (codes(rng, 3), codes(rng, 4));
        let mut column_codes = HashMap::new();
        let mut candidates = Vec::new();
        for (column, card) in [("A", 30u32), ("B", 50)] {
            column_codes.insert(column.to_string(), Arc::new(codes(rng, card)));
            for (i, max_code) in [4u32, 9, 3_000_000].into_iter().enumerate() {
                let map = (0..card)
                    .map(|_| match rng.gen_range(0..5) {
                        0 => MISSING_CODE,
                        _ => rng.gen_range(0..=max_code),
                    })
                    .collect();
                candidates.push(Candidate {
                    name: format!("{column}::p{i}"),
                    source: crate::candidate::CandidateSource::Extracted {
                        column: column.to_string(),
                    },
                    repr: CandidateRepr::EntityLevel {
                        column: column.to_string(),
                        map,
                        cardinality: max_code + 1,
                    },
                    entity_weights: None,
                    bias: None,
                });
            }
        }
        let mut mask = nexus_table::Bitmap::with_value(n, true);
        for i in 0..n {
            if rng.gen_range(0..4) == 0 {
                mask.set(i, false);
            }
        }
        CandidateSet {
            candidates,
            column_codes,
            o,
            t,
            mask,
            link_stats: HashMap::new(),
        }
    }

    #[test]
    fn mi_pair_and_column_pairs_match_ordered_map_oracle() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x3141);
        let mut paths = [0; 2];
        for _ in 0..3 {
            let set = two_column_set(&mut rng, 2_000);
            let engine = Engine::new(&set);
            for (col_a, col_b) in [("A", "B"), ("B", "A"), ("A", "A")] {
                let (cells, swap) = engine.column_pair_counts(&set, col_a, col_b);
                let oriented: PairCells = if swap {
                    cells.iter().map(|&(a, b, w)| (b, a, w)).collect()
                } else {
                    cells.to_vec()
                };
                let bits = |c: &PairCells| {
                    c.iter()
                        .map(|&(a, b, w)| (a, b, w.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(&oriented),
                    bits(&column_pair_oracle(&set, col_a, col_b))
                );
                assert_eq!(swap, col_a > col_b);
            }
            let n = set.candidates.len();
            for a in 0..n {
                for b in 0..n {
                    let got = engine.compute_mi_pair(&set, a, b);
                    let want = mi_pair_oracle(&engine, &set, a, b);
                    let (na, nb) = (&set.candidates[a].name, &set.candidates[b].name);
                    assert_eq!(got.to_bits(), want.to_bits(), "I({na};{nb})");
                    let CandidateRepr::EntityLevel { map: map_a, .. } = &set.candidates[a].repr
                    else {
                        unreachable!()
                    };
                    let CandidateRepr::EntityLevel { map: map_b, .. } = &set.candidates[b].repr
                    else {
                        unreachable!()
                    };
                    // At most |A|·|B| = 1500 cells reach the joint.
                    let space = key_space(map_a) * key_space(map_b);
                    match Marginal::new(space, 1_500) {
                        Marginal::Dense(_) => paths[0] += 1,
                        Marginal::Sorted(_) => paths[1] += 1,
                    }
                }
            }
        }
        assert!(
            paths[0] > 0 && paths[1] > 0,
            "dense/sorted joints: {paths:?}"
        );
    }

    #[test]
    fn mi_pairs_keep_their_orientation_across_engines() {
        use crate::memo::{MemoHandle, MemoStore};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0b1e);
        let set = two_column_set(&mut rng, 2_000);
        let handle = MemoHandle::new(Arc::new(MemoStore::new(0)), 1);
        let options = NexusOptions::default();
        let n = set.candidates.len();
        // One engine fills the store in one orientation…
        let first = Engine::with_parallelism_memo(&set, Parallelism::Serial, &handle, &options);
        for a in 0..n {
            for b in 0..a {
                first.mi_pair(&set, a, b);
            }
        }
        // …and the next engine over the same set asks the other one.
        let second = Engine::with_parallelism_memo(&set, Parallelism::Serial, &handle, &options);
        let mut asymmetric = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                let want = second.compute_mi_pair(&set, a, b);
                let reversed = second.compute_mi_pair(&set, b, a);
                asymmetric += (want.to_bits() != reversed.to_bits()) as usize;
                assert_eq!(second.mi_pair(&set, a, b).to_bits(), want.to_bits());
            }
        }
        assert!(asymmetric > 0, "no pair's bits depend on its orientation");
    }

    #[test]
    fn memo_keys_orientations_and_weightings_apart() {
        let (mut set, engine) = setup();
        let hdi = set.index_of("Country::hdi").unwrap();
        let gender = set.index_of("Gender").unwrap();
        let sparse = set.index_of("Country::sparse").unwrap();
        // Each orientation of a pair is its own key, computed in that
        // orientation; asking again hits.
        let pairs = [(sparse, hdi), (hdi, sparse), (gender, hdi), (hdi, gender)];
        for (a, b) in pairs {
            let first = engine.mi_pair(&set, a, b);
            assert_eq!(
                first.to_bits(),
                engine.compute_mi_pair(&set, a, b).to_bits()
            );
        }
        let counts = engine.memo.store.counts();
        let mi = MemoKind::MiPair as usize;
        assert_eq!(counts.inserts[mi], pairs.len() as u64);
        for (a, b) in pairs {
            engine.mi_pair(&set, a, b);
        }
        assert_eq!(
            engine.memo.store.counts().hits[mi],
            counts.hits[mi] + pairs.len() as u64
        );
        // Weighted and unweighted values of one name are memoized apart.
        let plain = (engine.stats(&set, sparse), engine.cmi_single(&set, sparse));
        let card = set.column_codes["Country"].cardinality as usize;
        set.candidates[sparse].entity_weights =
            Some((0..card).map(|i| 1.0 + 3.0 * i as f64).collect());
        let weighted = (engine.stats(&set, sparse), engine.cmi_single(&set, sparse));
        let fresh = Engine::new(&set);
        assert_eq!(weighted.0, fresh.stats(&set, sparse));
        assert_eq!(
            weighted.1.to_bits(),
            fresh.cmi_single(&set, sparse).to_bits()
        );
        assert_ne!(weighted.0, plain.0);
        set.candidates[sparse].entity_weights = None;
        assert_eq!(engine.stats(&set, sparse), plain.0);
        assert_eq!(engine.cmi_single(&set, sparse).to_bits(), plain.1.to_bits());
    }

    /// The full-table row-level calibration arm the compact count
    /// replaced, kept as its oracle: each sample rewrites a clone of the
    /// candidate's codes and counts `(O, T, E)` over the whole table.
    fn row_level_samples_oracle(
        engine: &Engine,
        set: &CandidateSet,
        idx: usize,
        codes: &Codes,
        rng: &mut rand::rngs::StdRng,
    ) -> Option<Vec<f64>> {
        use rand::seq::SliceRandom;
        let rows: Vec<usize> = (0..codes.len())
            .filter(|&i| set.mask.get(i) && codes.is_valid(i))
            .collect();
        if rows.len() < 2 {
            return None;
        }
        let group_level = engine.stats(set, idx).h_e_given_t() < 0.05;
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
        for _ in 0..6 {
            vals.shuffle(rng);
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
            let joint = JointCounts::count(&[&set.o, &set.t, &permuted], Some(&set.mask), None);
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
        Some(samples)
    }

    /// [`two_column_set`] plus row-level candidates: per-row noise with
    /// nulls, a narrow and a wide one (dense and sorted calibration
    /// tables), a function of the exposure and the exposure itself (both
    /// shuffled by exposure group). `ot_nulls = false` drops the nulls
    /// of `O` and `T`.
    fn mixed_set(rng: &mut rand::rngs::StdRng, n: usize, ot_nulls: bool) -> CandidateSet {
        use rand::Rng;
        let mut set = two_column_set(rng, n);
        if !ot_nulls {
            set.o.validity = None;
            set.t.validity = None;
        }
        let t = set.t.clone();
        let mut row_level = |name: &str, codes: Codes| {
            set.candidates.push(Candidate {
                name: name.to_string(),
                source: crate::candidate::CandidateSource::BaseTable,
                repr: CandidateRepr::RowLevel(codes),
                entity_weights: None,
                bias: None,
            })
        };
        for (name, card) in [("R::narrow", 5u32), ("R::wide", 4000)] {
            let validity = (0..n).map(|_| rng.gen_range(0..7) != 0).collect();
            let codes = (0..n).map(|_| rng.gen_range(0..card)).collect();
            row_level(
                name,
                Codes {
                    codes,
                    cardinality: card,
                    validity: Some(validity),
                },
            );
        }
        row_level(
            "R::half_t",
            Codes {
                codes: t.codes.iter().map(|&v| v / 2).collect(),
                cardinality: 2,
                validity: Some((0..n).map(|i| i % 11 != 0).collect()),
            },
        );
        row_level("R::t", t);
        set
    }

    /// Every row-level calibration sample, by row and by exposure group,
    /// with and without `O`/`T` nulls, equals the full-table arm's bits,
    /// and so does the calibrated score built from them.
    #[test]
    fn row_level_calibration_matches_full_table_oracle() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x2718);
        let mut group_level = 0;
        for ot_nulls in [true, false] {
            let set = mixed_set(&mut rng, 3000, ot_nulls);
            let engine = Engine::new(&set);
            for (idx, cand) in set.candidates.iter().enumerate() {
                let CandidateRepr::RowLevel(codes) = &cand.repr else {
                    continue;
                };
                group_level += (engine.stats(&set, idx).h_e_given_t() < 0.05) as usize;
                let seed = 77 + idx as u64;
                let mut a = rand::rngs::StdRng::seed_from_u64(seed);
                let mut b = a.clone();
                let got = engine.row_level_samples(&set, idx, codes, &mut a).unwrap();
                let want = row_level_samples_oracle(&engine, &set, idx, codes, &mut b).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{} ot_nulls={ot_nulls}", cand.name);
                assert_eq!(a.next_u64(), b.next_u64(), "{}: RNG stream", cand.name);
                assert!(engine.cmi_single(&set, idx).is_finite());
            }
        }
        assert_eq!(
            group_level, 4,
            "the exposure and its function shuffle by group"
        );
    }

    /// The Brute-Force calibration loop before its shuffle domains were
    /// hoisted: every sample recomputes each member's present entities or
    /// usable rows.
    fn cmi_given_calibrated_oracle(engine: &Engine, set: &CandidateSet, indices: &[usize]) -> f64 {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        const N_PERMS: usize = 6;
        let observed = engine.cmi_given(set, indices);
        let mut seed = Fnv64::new();
        for &i in indices {
            seed.write(set.candidates[i].name.as_bytes());
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.finish());
        let originals: Vec<Codes> = indices
            .iter()
            .map(|&i| set.row_codes(&set.candidates[i]))
            .collect();
        let mut samples = Vec::with_capacity(N_PERMS);
        for _ in 0..N_PERMS {
            let mut permuted: Vec<Codes> = Vec::new();
            for (&idx, rows) in indices.iter().zip(&originals) {
                permuted.push(match &set.candidates[idx].repr {
                    CandidateRepr::EntityLevel { column, map, .. } => {
                        let x = &set.column_codes[column];
                        let cont = &engine.base[column];
                        let present: Vec<usize> = (0..map.len())
                            .filter(|&e| cont.x_marginal.get(e).is_some_and(|&w| w > 0.0))
                            .collect();
                        let mut vals: Vec<u32> = present.iter().map(|&e| map[e]).collect();
                        vals.shuffle(&mut rng);
                        let mut new_map = map.clone();
                        for (&e, &v) in present.iter().zip(&vals) {
                            new_map[e] = v;
                        }
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
                        vals.shuffle(&mut rng);
                        let mut permuted = rows.clone();
                        for (&i, &v) in usable.iter().zip(&vals) {
                            permuted.codes[i] = v;
                        }
                        permuted
                    }
                });
            }
            let refs: Vec<&Codes> = permuted.iter().collect();
            samples.push(InfoContext::masked(&set.mask).cmi_mm(&set.o, &set.t, &refs));
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
        let credit = (mean - observed - var.sqrt()).max(0.0);
        (engine.baseline_cmi - credit).max(0.0)
    }

    #[test]
    fn hoisted_set_calibration_matches_per_sample_domains() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1618);
        let set = mixed_set(&mut rng, 2000, true);
        let engine = Engine::new(&set);
        let id = |name: &str| set.index_of(name).unwrap();
        for subset in [
            vec![id("A::p0"), id("R::narrow")],
            vec![id("R::t"), id("B::p1"), id("A::p2")],
            vec![id("R::wide")],
            vec![id("B::p0")],
        ] {
            assert_eq!(
                engine.cmi_given_calibrated(&set, &subset).to_bits(),
                cmi_given_calibrated_oracle(&engine, &set, &subset).to_bits(),
                "{subset:?}"
            );
        }
    }
}

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
//! ## The counting kernel (v2)
//!
//! Contingency builds are the scoring hot path, so they run on a layered
//! kernel rather than the naive per-row hashed scan:
//!
//! * the complete-case predicate (`mask ∧ valid(O) ∧ valid(T)`) and the
//!   fused `t·|O|+o` code column are precomputed **once per candidate
//!   set** ([`FusedSelection`]); the fused column is materialized at the
//!   narrowest integer width that holds `|O|·|T| − 1` (`u8`/`u16`/`u32`,
//!   chosen once from checked cardinality), so large scans stream narrow
//!   cache-friendly code lanes instead of full-width words;
//! * each per-column build ANDs `valid(X)` into the packed selection and
//!   scans it **word at a time**: all-zero 64-bit mask words are skipped
//!   without touching a row (`packed_words_skipped`), set bits decode via
//!   `trailing_zeros`, and runs of consecutive equal keys coalesce into
//!   one add. Every increment is exactly `1.0` (weights apply later, at
//!   entity level), so a run of length `r` adds the exact integer `r` —
//!   bit-identical to `r` separate adds;
//! * when the `X × T × O` key space fits the dense budget (unconditional
//!   up to [`KERNEL_DENSE_LIMIT`], row-aware beyond it), counts land in a
//!   [`RadixHistogram`]: the keyspace splits into 4096-cell partition
//!   blocks allocated lazily on first touch, so zeroing *and* merging
//!   scale with touched cells, not keyspace. Larger key spaces fall back
//!   to a hashed accumulator, and key spaces beyond `u64` fall back to
//!   the per-row scan (which itself guards packing with `u128`);
//! * large selections split into one contiguous word span per pool
//!   thread. Spans scan into private sub-histograms and merge in
//!   ascending span order, touched blocks only. Cell sums are exact
//!   integers (< 2^53), so the merge arithmetic is associative
//!   bit-for-bit and results are identical at every thread count.
//!
//! All paths emit the same key `(x·|T| + t)·|O| + o` and drain cells in
//! ascending key order, so every downstream f64 fold sees the same cell
//! sequence and NEXUS's bit-identical-output promise holds across kernel
//! paths and thread counts.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use nexus_info::kernel::{self, ScanWidth};
use nexus_info::{entropy_from_counts, entropy_mm, InfoContext, JointCounts, MemoKind};
use nexus_runtime::{Parallelism, ThreadPool, ROW_CHUNK};
use nexus_table::{Bitmap, Codes};

use crate::candidate::{Candidate, CandidateRepr, CandidateSet, MISSING_CODE};
use crate::memo::{set_fingerprint, Claim, MemoHandle, MemoKey, WaitOutcome};
use crate::shard::{NameCache, PairCache};

/// Key space up to which the counting kernel is unconditionally dense
/// (matches `nexus-info`'s dense budget).
const KERNEL_DENSE_LIMIT: u128 = 1 << 21;

/// Row-aware dense upgrade factor: key spaces beyond the unconditional
/// budget still go dense when within this multiple of the rows about to
/// be scanned — lazily-allocated radix blocks mean the untouched tail of
/// the keyspace costs nothing.
const KERNEL_DENSE_ROWS_FACTOR: u128 = 32;

/// Hard cap on one dense accumulator's key space (2^25 cells = 256 MiB if
/// fully touched; actual allocation is per touched 4096-cell block).
const KERNEL_DENSE_HARD_CAP: u128 = 1 << 25;

/// Cap on `keyspace × span accumulators` for parallel dense builds,
/// bounding the worst-case transient allocation across all spans.
const KERNEL_DENSE_TOTAL_CAP: u128 = 1 << 27;

/// Selection length below which a build stays serial: span bookkeeping
/// and accumulator merging outweigh the scan itself on small contexts.
const KERNEL_PAR_ROWS: usize = 1 << 16;

/// log2 of cells per radix partition block (4096 cells = 32 KiB of f64:
/// small enough that a sparsely-touched build allocates little, large
/// enough that block bookkeeping vanishes next to the scan).
const RADIX_BLOCK_BITS: u32 = 12;

/// Cells per radix partition block.
const RADIX_BLOCK_CELLS: usize = 1 << RADIX_BLOCK_BITS;

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

/// Element of a narrow-materialized code column. The scan loop is
/// monomorphized per width, so narrow columns stream `u8`/`u16` lanes —
/// branch-free and auto-vectorizable — instead of full-width words.
trait NarrowCode: Copy + Send + Sync + 'static {
    /// The [`ScanWidth`] this element type represents.
    const WIDTH: ScanWidth;
    fn from_u64(v: u64) -> Self;
    fn as_u64(self) -> u64;
}

macro_rules! narrow_code {
    ($($t:ty => $w:expr),*) => {$(
        impl NarrowCode for $t {
            const WIDTH: ScanWidth = $w;
            #[inline]
            fn from_u64(v: u64) -> Self {
                v as $t
            }
            #[inline]
            fn as_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}
narrow_code!(u8 => ScanWidth::W8, u16 => ScanWidth::W16, u32 => ScanWidth::W32);

/// The fused `t·|O| + o` code column at the narrowest width that holds
/// `|O|·|T| − 1`, chosen once per candidate set from checked cardinality.
enum ToCodes {
    W8(Vec<u8>),
    W16(Vec<u16>),
    W32(Vec<u32>),
}

/// Per-candidate-set precomputation shared by every per-column kernel
/// build: the complete-case bitmap over `(mask, O, T)` and the fused
/// `t·|O| + o` code column.
///
/// Fusing as `t·|O| + o` (not `o·|T| + t`) makes the kernel key
/// `x·|TO| + to` *numerically equal* to the row scan's packed key
/// `(x·|T| + t)·|O| + o`, so both paths sort cells identically and feed
/// downstream f64 folds in the same order.
struct FusedSelection {
    /// `mask ∧ valid(O) ∧ valid(T)`; per-column builds AND in `valid(X)`.
    base: Bitmap,
    /// `t·|O| + o` per row; only meaningful where `base` is set.
    to: ToCodes,
    /// `|O| · |T|`.
    card_to: u64,
}

impl FusedSelection {
    /// Approximate resident size, for memo byte accounting.
    fn approx_bytes(&self) -> u64 {
        let to_bytes = match &self.to {
            ToCodes::W8(v) => v.len(),
            ToCodes::W16(v) => v.len() * 2,
            ToCodes::W32(v) => v.len() * 4,
        };
        (self.base.words().len() * 8 + to_bytes + 32) as u64
    }

    /// Builds the fused selection, or `None` when the table shape rules
    /// the vectorized kernel out (`|O|·|T|` beyond `u32`, or more rows
    /// than `u32` row indices can address).
    fn build(set: &CandidateSet) -> Option<FusedSelection> {
        let o = &set.o;
        let t = &set.t;
        let n = o.len();
        let card_o = o.cardinality.max(1) as u64;
        let card_t = t.cardinality.max(1) as u64;
        let card_to = card_o.checked_mul(card_t)?;
        if card_to > u32::MAX as u64 || n > u32::MAX as usize {
            return None;
        }
        let mut maps: Vec<&Bitmap> = vec![&set.mask];
        maps.extend(o.validity.as_ref());
        maps.extend(t.validity.as_ref());
        let base = Bitmap::and_all(&maps).expect("mask always present");
        // Width selection: fused codes run 0..card_to, so the narrowest
        // integer that holds card_to − 1 carries them losslessly.
        let to = match ScanWidth::for_space(card_to as u128) {
            ScanWidth::W8 => ToCodes::W8(fuse_codes(n, &base, t, o, card_o)),
            ScanWidth::W16 => ToCodes::W16(fuse_codes(n, &base, t, o, card_o)),
            _ => ToCodes::W32(fuse_codes(n, &base, t, o, card_o)),
        };
        Some(FusedSelection { base, to, card_to })
    }
}

/// Materializes `t·|O| + o` at width `T`. Fuses only at selected rows:
/// codes at invalid rows are unspecified and could overflow the product.
fn fuse_codes<T: NarrowCode>(n: usize, base: &Bitmap, t: &Codes, o: &Codes, card_o: u64) -> Vec<T> {
    let mut out = vec![T::from_u64(0); n];
    for i in base.iter_ones() {
        out[i] = T::from_u64(t.codes[i] as u64 * card_o + o.codes[i] as u64);
    }
    out
}

/// A radix-partitioned sub-histogram over a dense `u64` key space.
///
/// The keyspace splits into [`RADIX_BLOCK_CELLS`]-cell partition blocks
/// (the partition index is the key's high bits), allocated lazily on
/// first touch. A scan over a clustered or small selection touches few
/// blocks, so zeroing and merging scale with *touched* cells; the
/// untouched tail of the keyspace costs nothing. Draining walks blocks in
/// ascending order, so cells come out in ascending key order exactly like
/// a flat array.
struct RadixHistogram {
    blocks: Vec<Option<Box<[f64]>>>,
    /// The logical keyspace; the tail block may extend past it.
    space: usize,
}

impl RadixHistogram {
    fn new(space: usize) -> RadixHistogram {
        RadixHistogram {
            blocks: vec![None; space.div_ceil(RADIX_BLOCK_CELLS)],
            space,
        }
    }

    #[inline]
    fn add(&mut self, key: u64, w: f64) {
        let block = self.blocks[(key >> RADIX_BLOCK_BITS) as usize]
            .get_or_insert_with(|| vec![0.0; RADIX_BLOCK_CELLS].into_boxed_slice());
        block[(key & (RADIX_BLOCK_CELLS as u64 - 1)) as usize] += w;
    }

    /// Merges `src`'s touched blocks into `self`, ascending block order.
    /// Cell sums are exact integer counts, so the addition is associative
    /// bit-for-bit regardless of how spans were grouped. Returns the
    /// number of in-keyspace cells merged (untouched source blocks cost
    /// nothing; blocks moved into an empty slot are counted
    /// conservatively as written).
    fn merge_from(&mut self, src: RadixHistogram) -> u64 {
        let mut cells = 0u64;
        for (bi, (slot, sb)) in self.blocks.iter_mut().zip(src.blocks).enumerate() {
            let Some(sb) = sb else { continue };
            cells += (self.space - bi * RADIX_BLOCK_CELLS).min(RADIX_BLOCK_CELLS) as u64;
            match slot {
                Some(db) => {
                    for (d, s) in db.iter_mut().zip(sb.iter()) {
                        *d += s;
                    }
                }
                None => *slot = Some(sb),
            }
        }
        cells
    }

    /// Nonzero cells in ascending key order.
    fn into_sorted_cells(self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        for (bi, block) in self.blocks.into_iter().enumerate() {
            let Some(block) = block else { continue };
            let base = (bi * RADIX_BLOCK_CELLS) as u64;
            for (ci, &w) in block.iter().enumerate() {
                if w > 0.0 {
                    out.push((base + ci as u64, w));
                }
            }
        }
        out
    }
}

/// A per-span partial histogram for one kernel build.
enum KernelAcc {
    Dense(RadixHistogram),
    Sparse(HashMap<u64, f64>),
}

/// Scans the selection words in `wr`: all-zero words are skipped, set
/// bits decode with `trailing_zeros`, and consecutive equal keys coalesce
/// into one `sink(key, run_length)` flush (run lengths are exact
/// integers, so coalesced adds are bit-identical to per-row adds in the
/// same ascending order). Returns `(adds, words_skipped)`.
fn scan_words<T: NarrowCode>(
    words: &[u64],
    wr: std::ops::Range<usize>,
    codes: &[u32],
    to: &[T],
    card_to: u64,
    mut sink: impl FnMut(u64, f64),
) -> (u64, u64) {
    let mut adds = 0u64;
    let mut skipped = 0u64;
    let mut last = 0u64;
    let mut run = 0.0f64;
    for wi in wr {
        let w = words[wi];
        if w == 0 {
            skipped += 1;
            continue;
        }
        let base = wi * 64;
        let mut bits = w;
        while bits != 0 {
            let i = base + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let key = codes[i] as u64 * card_to + to[i].as_u64();
            if run > 0.0 && key == last {
                run += 1.0;
            } else {
                if run > 0.0 {
                    sink(last, run);
                    adds += 1;
                }
                last = key;
                run = 1.0;
            }
        }
    }
    if run > 0.0 {
        sink(last, run);
        adds += 1;
    }
    (adds, skipped)
}

impl Contingency {
    /// Approximate resident size, for memo byte accounting.
    fn approx_bytes(&self) -> u64 {
        (self.cells.len() * std::mem::size_of::<(u32, u32, u32, f64)>()
            + self.x_marginal.len() * 8
            + 64) as u64
    }

    /// Builds the `(O, T, X)` contingency for one extraction column: the
    /// vectorized kernel when the set has a fused selection, the row scan
    /// when its shape rules fusing out.
    fn build(
        set: &CandidateSet,
        column: &str,
        fused: Option<&FusedSelection>,
        pool: Option<&ThreadPool>,
    ) -> Contingency {
        match fused {
            Some(fused) => Self::build_kernel(set, column, fused, pool),
            None => Self::build_rowscan(set, column),
        }
    }

    /// The fused packed-mask kernel: ANDs `valid(X)` into the shared
    /// complete-case bitmap and scans the selection words directly (no
    /// index vector), accumulating `counts[x·|TO| + to] += run` into a
    /// radix-partitioned sub-histogram (hashed fallback beyond the dense
    /// budget), one word span per pool thread for large selections.
    fn build_kernel(
        set: &CandidateSet,
        column: &str,
        fused: &FusedSelection,
        pool: Option<&ThreadPool>,
    ) -> Contingency {
        let x = &set.column_codes[column];
        let card_x = x.cardinality.max(1) as u64;
        let card_to = fused.card_to;
        let space = card_x as u128 * card_to as u128;
        if space > u64::MAX as u128 {
            // Keys would not fit the u64 kernel; the row scan packs u128.
            return Self::build_rowscan(set, column);
        }

        // Per-column packed selection: base ∧ valid(X), scanned word at a
        // time — the selection never materializes as row indices.
        let sel_owned;
        let sel = match &x.validity {
            Some(v) => {
                sel_owned = fused.base.and(v);
                &sel_owned
            }
            None => &fused.base,
        };

        match &fused.to {
            ToCodes::W8(to) => Self::scan_build(set, x, to, sel, card_to, space, pool),
            ToCodes::W16(to) => Self::scan_build(set, x, to, sel, card_to, space, pool),
            ToCodes::W32(to) => Self::scan_build(set, x, to, sel, card_to, space, pool),
        }
    }

    /// One monomorphized kernel build over a `T`-width fused code column.
    fn scan_build<T: NarrowCode>(
        set: &CandidateSet,
        x: &Codes,
        to: &[T],
        sel: &Bitmap,
        card_to: u64,
        space: u128,
        pool: Option<&ThreadPool>,
    ) -> Contingency {
        let words = sel.words();
        let selected = sel.count_ones();
        let parallel = pool.is_some_and(|p| p.threads() > 1) && selected >= KERNEL_PAR_ROWS;
        // One word span per pool thread, but never more spans than the v1
        // kernel had `ROW_CHUNK`-row chunks: each extra span is one extra
        // merge, so capping at the v1 chunk count guarantees the radix
        // merge bill stays strictly below the old full-keyspace one.
        let v1_chunks = selected.div_ceil(ROW_CHUNK);
        let n_spans = if parallel {
            pool.expect("parallel requires a pool")
                .threads()
                .min(v1_chunks)
                .min(words.len().max(1))
        } else {
            1
        };
        // Dense policy: unconditional under the small budget; row-aware
        // upgrade beyond it, bounded per accumulator and across spans.
        let dense = space <= KERNEL_DENSE_LIMIT
            || (space <= KERNEL_DENSE_HARD_CAP
                && space <= (selected as u128).saturating_mul(KERNEL_DENSE_ROWS_FACTOR)
                && space.saturating_mul(n_spans as u128) <= KERNEL_DENSE_TOTAL_CAP);

        let codes = &x.codes;
        let scan = |wr: std::ops::Range<usize>| -> (KernelAcc, u64, u64) {
            if dense {
                let mut h = RadixHistogram::new(space as usize);
                let (adds, skipped) = scan_words(words, wr, codes, to, card_to, |k, w| h.add(k, w));
                (KernelAcc::Dense(h), adds, skipped)
            } else {
                let mut m: HashMap<u64, f64> = HashMap::new();
                let (adds, skipped) = scan_words(words, wr, codes, to, card_to, |k, w| {
                    *m.entry(k).or_insert(0.0) += w
                });
                (KernelAcc::Sparse(m), adds, skipped)
            }
        };

        let mut adds = 0u64;
        let mut skipped = 0u64;
        let mut radix_cells = 0u64;
        let acc = if parallel {
            let pool = pool.expect("parallel requires a pool");
            let span_words = words.len().div_ceil(n_spans);
            let results = pool.map(n_spans, |s| {
                let w0 = (s * span_words).min(words.len());
                let w1 = ((s + 1) * span_words).min(words.len());
                scan(w0..w1)
            });
            // Merge spans in ascending span order: the first span's
            // histogram is taken whole; later spans contribute touched
            // blocks only.
            let mut iter = results.into_iter();
            let (mut acc, a0, s0) = iter.next().expect("at least one span");
            adds += a0;
            skipped += s0;
            for (src, a, s) in iter {
                adds += a;
                skipped += s;
                radix_cells += match (&mut acc, src) {
                    (KernelAcc::Dense(dst), KernelAcc::Dense(sh)) => dst.merge_from(sh),
                    (KernelAcc::Sparse(dst), KernelAcc::Sparse(sm)) => {
                        for (k, w) in sm {
                            *dst.entry(k).or_insert(0.0) += w;
                        }
                        0
                    }
                    _ => unreachable!("kernel spans share one accumulator layout"),
                };
            }
            acc
        } else {
            let (acc, a, s) = scan(0..words.len());
            adds += a;
            skipped += s;
            acc
        };

        // Batched counter updates, once per build. `adds` counts
        // accumulator writes (coalesced runs), not rows.
        let counters = kernel::counters();
        counters.record_build(
            selected as u64,
            if dense { 0 } else { adds },
            if dense { adds } else { 0 },
            dense,
        );
        counters.record_scan_width(T::WIDTH);
        if skipped > 0 {
            counters.record_packed_words_skipped(skipped);
        }
        if parallel && dense {
            // What the v1 discipline would have cost on this build: one
            // full-keyspace merge per `ROW_CHUNK`-row chunk of the selection.
            counters.record_merge(radix_cells, (space as u64).saturating_mul(v1_chunks as u64));
        }

        let card_o = set.o.cardinality.max(1) as u64;
        let card_t = set.t.cardinality.max(1) as u64;
        match acc {
            KernelAcc::Dense(h) => Self::from_sorted_cells(
                h.into_sorted_cells().into_iter(),
                card_o,
                card_t,
                x.cardinality as usize,
            ),
            KernelAcc::Sparse(m) => {
                let mut keyed: Vec<(u64, f64)> = m.into_iter().collect();
                keyed.sort_unstable_by_key(|&(k, _)| k);
                Self::from_sorted_cells(keyed.into_iter(), card_o, card_t, x.cardinality as usize)
            }
        }
    }

    /// The per-row masked scan: the route for shapes the kernel cannot
    /// index (no fused selection, or an `X × T × O` key space beyond
    /// `u64`). Key packing is u64 with a checked u128 fallback — three u32
    /// cardinalities can overflow 64 bits.
    fn build_rowscan(set: &CandidateSet, column: &str) -> Contingency {
        let x = &set.column_codes[column];
        let o = &set.o;
        let t = &set.t;
        let n = x.len();
        let card_o = o.cardinality.max(1) as u64;
        let card_t = t.cardinality.max(1) as u64;
        let card_x = x.cardinality.max(1) as u64;
        let space = card_x as u128 * card_t as u128 * card_o as u128;

        if space <= u64::MAX as u128 {
            let mut map: HashMap<u64, f64> = HashMap::new();
            for i in 0..n {
                if !set.mask.get(i) || !o.is_valid(i) || !t.is_valid(i) || !x.is_valid(i) {
                    continue;
                }
                let key =
                    (x.codes[i] as u64 * card_t + t.codes[i] as u64) * card_o + o.codes[i] as u64;
                *map.entry(key).or_insert(0.0) += 1.0;
            }
            // Drain the map in key order: every downstream score folds
            // these cells into f64 sums, and NEXUS promises bit-identical
            // results across runs and thread counts — HashMap order is
            // neither.
            let mut keyed: Vec<(u64, f64)> = map.into_iter().collect();
            keyed.sort_unstable_by_key(|&(k, _)| k);
            let ops = keyed.iter().map(|&(_, w)| w).sum::<f64>() as u64;
            kernel::counters().record_build(n as u64, ops, 0, false);
            Self::from_sorted_cells(keyed.into_iter(), card_o, card_t, x.cardinality as usize)
        } else {
            // u128 keys: same semantics, for cardinality products beyond
            // u64.
            let mut map: HashMap<u128, f64> = HashMap::new();
            for i in 0..n {
                if !set.mask.get(i) || !o.is_valid(i) || !t.is_valid(i) || !x.is_valid(i) {
                    continue;
                }
                let key = (x.codes[i] as u128 * card_t as u128 + t.codes[i] as u128)
                    * card_o as u128
                    + o.codes[i] as u128;
                *map.entry(key).or_insert(0.0) += 1.0;
            }
            let mut keyed: Vec<(u128, f64)> = map.into_iter().collect();
            keyed.sort_unstable_by_key(|&(k, _)| k);
            let ops = keyed.iter().map(|&(_, w)| w).sum::<f64>() as u64;
            kernel::counters().record_build(n as u64, ops, 0, false);
            let mut cells = Vec::with_capacity(keyed.len());
            let mut x_marginal = vec![0.0; x.cardinality as usize];
            let mut total = 0.0;
            for (key, w) in keyed {
                let o_code = (key % card_o as u128) as u32;
                let t_code = ((key / card_o as u128) % card_t as u128) as u32;
                let x_code = (key / (card_o as u128 * card_t as u128)) as u32;
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

    /// Decodes ascending `(key, weight)` cells (key = `(x·|T|+t)·|O|+o`)
    /// into the cell vector, x-marginal, and totals. Shared by the kernel
    /// and the u64 row scan so all paths produce cells identically.
    fn from_sorted_cells(
        keyed: impl Iterator<Item = (u64, f64)>,
        card_o: u64,
        card_t: u64,
        card_x: usize,
    ) -> Contingency {
        let mut cells = Vec::new();
        let mut x_marginal = vec![0.0; card_x];
        let mut total = 0.0;
        for (key, w) in keyed {
            let o_code = (key % card_o) as u32;
            let t_code = ((key / card_o) % card_t) as u32;
            let x_code = (key / (card_o * card_t)) as u32;
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

    /// [`Engine::with_parallelism`] with a sub-query memo handle: per-set
    /// selection vectors, per-column contingencies, and the baseline CMI
    /// term are fetched from (and published to) the store instead of
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
        // The fused complete-case selection is a pure function of the set,
        // so it memoizes under the Selection kind.
        let fused: Arc<Option<FusedSelection>> = match &scope {
            None => Arc::new(FusedSelection::build(set)),
            Some((h, set_fp)) => {
                let key = MemoKey::new(MemoKind::Selection, h.dataset_fp, *set_fp, 0, "fused");
                h.store.get_or_build(&key, || {
                    let f = FusedSelection::build(set);
                    let bytes = f.as_ref().map_or(16, FusedSelection::approx_bytes);
                    (Arc::new(f), bytes)
                })
            }
        };
        Engine::assemble(set, pool, scope, fused.as_ref().as_ref())
    }

    /// Builds the engine over a given fused selection. `None` — what
    /// [`FusedSelection::build`] returns for shapes the kernel cannot
    /// index — routes every contingency through the row scan.
    fn assemble(
        set: &CandidateSet,
        pool: ThreadPool,
        scope: Option<(&MemoHandle, u64)>,
        fused: Option<&FusedSelection>,
    ) -> Engine {
        let mut columns: Vec<&String> = set.column_codes.keys().collect();
        columns.sort();
        // Parallelism policy: the pool's scoped workers must not nest (a
        // row-parallel build inside a column-parallel map would spawn
        // threads² workers), so large tables go row-parallel with columns
        // built serially, and everything else keeps the column-parallel
        // map with serial builds.
        let row_parallel = fused.is_some() && pool.threads() > 1 && set.o.len() >= KERNEL_PAR_ROWS;

        let base: HashMap<String, Arc<Contingency>> = match &scope {
            None => {
                let contingencies: Vec<Arc<Contingency>> = if row_parallel {
                    columns
                        .iter()
                        .map(|column| Arc::new(Contingency::build(set, column, fused, Some(&pool))))
                        .collect()
                } else {
                    pool.map_slice(&columns, |_, column| {
                        Arc::new(Contingency::build(set, column, fused, None))
                    })
                };
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
                } else if row_parallel {
                    build_cols
                        .iter()
                        .map(|column| Arc::new(Contingency::build(set, column, fused, Some(&pool))))
                        .collect()
                } else {
                    pool.map_slice(&build_cols, |_, column| {
                        Arc::new(Contingency::build(set, column, fused, None))
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
                            let c = Arc::new(Contingency::build(set, column, fused, Some(&pool)));
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
        let seed = cand.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

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
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for &i in indices {
            for b in set.candidates[i].name.bytes() {
                seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

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
        assert!(d_cold.memo_inserts[MemoKind::Selection as usize] >= 1);
        assert!(d_cold.memo_inserts[MemoKind::CmiTerm as usize] >= 1);
        let d_warm = after.delta(&mid);
        assert!(d_warm.memo_hits[MemoKind::Contingency as usize] >= 1);
        assert!(d_warm.memo_hits[MemoKind::Selection as usize] >= 1);
        assert!(d_warm.memo_hits[MemoKind::CmiTerm as usize] >= 1);
        // The warm engine shares the memoized tables by pointer.
        assert!(store.resident_entries() >= 3);
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
                        let key = (x as u64 * card_t as u64 + t as u64) * card_o as u64 + o as u64;
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

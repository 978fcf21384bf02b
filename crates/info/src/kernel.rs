//! Counting-kernel instrumentation.
//!
//! Every score NEXUS produces reduces to building weighted contingency /
//! joint-count tables, so the per-row *accumulator operations* of those
//! builds — not wall-clock, which varies with the machine — are the
//! system's portable cost model. This module holds:
//!
//! * [`KernelCounters`] — process-global atomic counters bumped (in batch,
//!   once per build, never per row) by [`JointCounts`](crate::JointCounts),
//!   the one counting kernel every contingency build in NEXUS runs on;
//! * [`KernelSnapshot`] — a copyable snapshot with [`delta`] arithmetic so
//!   callers can attribute counter movement to one pipeline run.
//!
//! Counters are monotone and `Relaxed`: they are diagnostics, never inputs
//! to any estimate, so they cannot perturb NEXUS's bit-identical-output
//! guarantee. Inside the product two places read them: the pipeline's
//! stage ledger (`nexus-core`'s `PipelineStats::stages`, one delta per
//! stage) and the server's `kernel.*` metrics. Only kernel work lives
//! here; the sub-query memo store counts its own traffic.
//!
//! # Scan counters
//!
//! Next to the row/op counts, the scan loop records
//! [`packed_words_skipped`]: all-zero 64-bit selection words the packed
//! mask scan skipped without touching any row (zone-style early-out).
//!
//! # Permutation counters
//!
//! Permutation nulls — the CI test's stratified shuffles and the engine's
//! calibration samples — re-count permuted values outside the counting
//! kernels above, so they get counters of their own: [`permutations`]
//! (null samples drawn) and [`perm_rows`] (values each sample shuffled
//! and re-counted, summed: rows for row-level nulls, entities for
//! entity-level calibration). [`calib_samples`] counts the subset of
//! those samples that calibrate a score rather than test independence,
//! so `permutations − calib_samples` is the CI test's share.
//!
//! # Model counters
//!
//! [`ipw_fits`] counts the selection-bias layer's logistic fits: one per
//! flagged candidate whose IPW weights were not already memoized.
//!
//! [`delta`]: KernelSnapshot::delta
//! [`packed_words_skipped`]: KernelSnapshot::packed_words_skipped
//! [`permutations`]: KernelSnapshot::permutations
//! [`perm_rows`]: KernelSnapshot::perm_rows
//! [`calib_samples`]: KernelSnapshot::calib_samples
//! [`ipw_fits`]: KernelSnapshot::ipw_fits

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global counters for every counting-kernel invocation.
///
/// All counters are cumulative over the process lifetime; use
/// [`KernelCounters::snapshot`] + [`KernelSnapshot::delta`] to scope them
/// to one region.
#[derive(Debug, Default)]
pub struct KernelCounters {
    rows_scanned: AtomicU64,
    hash_ops: AtomicU64,
    dense_ops: AtomicU64,
    dense_builds: AtomicU64,
    sparse_builds: AtomicU64,
    packed_words_skipped: AtomicU64,
    permutations: AtomicU64,
    perm_rows: AtomicU64,
    calib_samples: AtomicU64,
    ipw_fits: AtomicU64,
}

/// The global counter instance.
static COUNTERS: KernelCounters = KernelCounters {
    rows_scanned: AtomicU64::new(0),
    hash_ops: AtomicU64::new(0),
    dense_ops: AtomicU64::new(0),
    dense_builds: AtomicU64::new(0),
    sparse_builds: AtomicU64::new(0),
    packed_words_skipped: AtomicU64::new(0),
    permutations: AtomicU64::new(0),
    perm_rows: AtomicU64::new(0),
    calib_samples: AtomicU64::new(0),
    ipw_fits: AtomicU64::new(0),
};

/// The process-global [`KernelCounters`].
pub fn counters() -> &'static KernelCounters {
    &COUNTERS
}

impl KernelCounters {
    /// Records one finished counting build: `rows` row visits, `hash_ops`
    /// hash-map entry operations, `dense_ops` flat-array increments, and
    /// whether the build used a dense accumulator.
    ///
    /// Under run-coalescing, `dense_ops`/`hash_ops` count *accumulator
    /// writes* (one per coalesced run), so they may be lower than `rows`.
    pub fn record_build(&self, rows: u64, hash_ops: u64, dense_ops: u64, dense: bool) {
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
        self.hash_ops.fetch_add(hash_ops, Ordering::Relaxed);
        self.dense_ops.fetch_add(dense_ops, Ordering::Relaxed);
        if dense {
            self.dense_builds.fetch_add(1, Ordering::Relaxed);
        } else {
            self.sparse_builds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `words` all-zero 64-bit selection words skipped by a packed
    /// mask scan (batched per build or chunk).
    pub fn record_packed_words_skipped(&self, words: u64) {
        self.packed_words_skipped
            .fetch_add(words, Ordering::Relaxed);
    }

    /// Records `samples` permutation-null samples that each shuffled and
    /// re-counted `values` values (batched once per null).
    pub fn record_permutations(&self, samples: u64, values: u64) {
        self.permutations.fetch_add(samples, Ordering::Relaxed);
        self.perm_rows
            .fetch_add(samples.saturating_mul(values), Ordering::Relaxed);
    }

    /// Records `samples` calibration-null samples of `values` values each:
    /// counted as permutations (see [`KernelCounters::record_permutations`])
    /// and, separately, as calibration samples.
    pub fn record_calibration(&self, samples: u64, values: u64) {
        self.record_permutations(samples, values);
        self.calib_samples.fetch_add(samples, Ordering::Relaxed);
    }

    /// Records one fitted selection (IPW) model.
    pub fn record_ipw_fit(&self) {
        self.ipw_fits.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the counters (each counter is read
    /// atomically; the set is not a transaction, which is fine for
    /// monotone diagnostics).
    pub fn snapshot(&self) -> KernelSnapshot {
        KernelSnapshot {
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            hash_ops: self.hash_ops.load(Ordering::Relaxed),
            dense_ops: self.dense_ops.load(Ordering::Relaxed),
            dense_builds: self.dense_builds.load(Ordering::Relaxed),
            sparse_builds: self.sparse_builds.load(Ordering::Relaxed),
            packed_words_skipped: self.packed_words_skipped.load(Ordering::Relaxed),
            permutations: self.permutations.load(Ordering::Relaxed),
            perm_rows: self.perm_rows.load(Ordering::Relaxed),
            calib_samples: self.calib_samples.load(Ordering::Relaxed),
            ipw_fits: self.ipw_fits.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`KernelCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelSnapshot {
    /// Row visits inside counting loops.
    pub rows_scanned: u64,
    /// Hash-map entry operations (one per coalesced run reaching a sparse
    /// accumulator).
    pub hash_ops: u64,
    /// Dense flat-array increments (one per coalesced run reaching a dense
    /// accumulator).
    pub dense_ops: u64,
    /// Builds that ran on a dense accumulator.
    pub dense_builds: u64,
    /// Builds that fell back to a sparse (hashed) accumulator.
    pub sparse_builds: u64,
    /// All-zero 64-bit selection words skipped by packed mask scans.
    pub packed_words_skipped: u64,
    /// Permutation-null samples drawn (CI-test permutations and
    /// calibration samples).
    pub permutations: u64,
    /// Values those samples shuffled and re-counted, summed over samples
    /// (rows for row-level nulls, entities for entity-level calibration).
    pub perm_rows: u64,
    /// The calibration samples among [`permutations`](Self::permutations)
    /// (MCIMR's per-candidate nulls and the set-level null); the rest are
    /// the responsibility test's.
    pub calib_samples: u64,
    /// Selection (IPW) models fitted.
    pub ipw_fits: u64,
}

impl KernelSnapshot {
    /// Counter movement since `earlier` (saturating, so a stale snapshot
    /// never underflows).
    pub fn delta(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            rows_scanned: self.rows_scanned.saturating_sub(earlier.rows_scanned),
            hash_ops: self.hash_ops.saturating_sub(earlier.hash_ops),
            dense_ops: self.dense_ops.saturating_sub(earlier.dense_ops),
            dense_builds: self.dense_builds.saturating_sub(earlier.dense_builds),
            sparse_builds: self.sparse_builds.saturating_sub(earlier.sparse_builds),
            packed_words_skipped: self
                .packed_words_skipped
                .saturating_sub(earlier.packed_words_skipped),
            permutations: self.permutations.saturating_sub(earlier.permutations),
            perm_rows: self.perm_rows.saturating_sub(earlier.perm_rows),
            calib_samples: self.calib_samples.saturating_sub(earlier.calib_samples),
            ipw_fits: self.ipw_fits.saturating_sub(earlier.ipw_fits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_delta() {
        let c = KernelCounters::default();
        let before = c.snapshot();
        c.record_build(100, 0, 100, true);
        c.record_build(50, 50, 0, false);
        let d = c.snapshot().delta(&before);
        assert_eq!(d.rows_scanned, 150);
        assert_eq!(d.hash_ops, 50);
        assert_eq!(d.dense_ops, 100);
        assert_eq!(d.dense_builds, 1);
        assert_eq!(d.sparse_builds, 1);
    }

    #[test]
    fn record_v2_counters() {
        let c = KernelCounters::default();
        let before = c.snapshot();
        c.record_packed_words_skipped(7);
        c.record_permutations(100, 2_000);
        c.record_calibration(16, 3);
        c.record_ipw_fit();
        let d = c.snapshot().delta(&before);
        assert_eq!(d.permutations, 116);
        assert_eq!(d.perm_rows, 200_048);
        assert_eq!(d.calib_samples, 16);
        assert_eq!(d.ipw_fits, 1);
        assert_eq!(d.packed_words_skipped, 7);
    }

    #[test]
    fn delta_saturates() {
        let a = KernelSnapshot {
            rows_scanned: 5,
            ..KernelSnapshot::default()
        };
        let b = KernelSnapshot {
            rows_scanned: 9,
            ..KernelSnapshot::default()
        };
        assert_eq!(a.delta(&b).rows_scanned, 0);
    }
}

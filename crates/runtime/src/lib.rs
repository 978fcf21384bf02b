//! # nexus-runtime
//!
//! A small, std-only parallel execution layer for the candidate-parallel
//! hot paths of the NEXUS pipeline (per-candidate scoring in MCIMR, the
//! relevance/FD tests in online pruning, selection-bias detection, and the
//! brute-force baseline's subset enumeration).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Results are reduced **by item index**, never by
//!    completion order, so every reduction is bit-identical to the serial
//!    path regardless of thread count. Workers claim disjoint index ranges
//!    from an atomic cursor; the per-index outputs are written into a
//!    pre-sized slot vector and handed back in index order.
//! 2. **No dependencies.** Built on [`std::thread::scope`] alone — the
//!    workspace must compile with `cargo build --offline`.
//! 3. **Honest failure.** A panicking worker panics the caller (via
//!    [`std::panic::resume_unwind`]); the pool never deadlocks on or
//!    swallows a worker panic.
//!
//! Threads are scoped per call rather than parked in a persistent pool:
//! every NEXUS use site runs thousands of estimator evaluations per call,
//! so spawn cost (~10µs/thread) is noise, and scoping keeps the borrow
//! story trivial — workers borrow the caller's data directly.

#![warn(missing_docs)]

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Rows per chunk of a row-partitioned pass. Passes over a table split
/// its rows into chunks of this size, whatever the thread count, and merge
/// the chunk results in chunk order; a multiple of 64, so chunk bitmaps
/// concatenate word by word.
pub const ROW_CHUNK: usize = 1 << 16;

/// How many worker threads a [`ThreadPool`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run everything on the calling thread.
    Serial,
    /// One worker per available hardware thread.
    #[default]
    Auto,
    /// Exactly this many workers (clamped to at least 1).
    Fixed(usize),
}

impl Parallelism {
    /// Resolves to a concrete worker count.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

/// Aggregate counters for every parallel region run on one pool.
///
/// `busy` sums the wall-clock time of each worker's claim loop, so
/// `busy / wall` estimates the effective speedup actually realized
/// (1.0 = serial, ≈ thread count = perfect scaling).
#[derive(Debug, Default)]
pub struct PoolMetrics {
    tasks: AtomicU64,
    calls: AtomicU64,
    wall_nanos: AtomicU64,
    busy_nanos: AtomicU64,
}

impl PoolMetrics {
    /// Number of items mapped across all calls.
    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Number of parallel regions entered.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Wall-clock time spent inside parallel regions.
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_nanos.load(Ordering::Relaxed))
    }

    /// Summed per-worker busy time across parallel regions.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed))
    }

    /// Effective speedup: worker-busy time over wall time (≥ 0; ≈ 1 when
    /// serial, approaches the thread count under perfect scaling).
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_nanos.load(Ordering::Relaxed);
        if wall == 0 {
            return 1.0;
        }
        self.busy_nanos.load(Ordering::Relaxed) as f64 / wall as f64
    }

    fn record(&self, tasks: u64, wall: Duration, busy: Duration) {
        self.tasks.fetch_add(tasks, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.wall_nanos
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        self.busy_nanos
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A scoped thread pool: `threads` workers are spawned per [`map`] call
/// with [`std::thread::scope`] and joined before it returns.
///
/// [`map`]: ThreadPool::map
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
    metrics: Arc<PoolMetrics>,
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::new(Parallelism::Serial)
    }
}

impl ThreadPool {
    /// Creates a pool with the given parallelism.
    pub fn new(parallelism: Parallelism) -> Self {
        ThreadPool {
            threads: parallelism.threads(),
            metrics: Arc::new(PoolMetrics::default()),
        }
    }

    /// The number of worker threads `map` will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Counters accumulated across every `map` call on this pool (shared
    /// by clones of the pool).
    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// Applies `f` to every index in `0..n` and returns the outputs **in
    /// index order** — bit-identical to `(0..n).map(f).collect()` for a
    /// pure `f`, at any thread count.
    ///
    /// Work is distributed by an atomic cursor in contiguous chunks, so
    /// per-index cost imbalance (common across candidates: cardinality
    /// varies wildly) still load-balances. If a worker panics, the panic
    /// is re-raised on the caller after all workers have stopped.
    pub fn map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let start = Instant::now();
        let out = if self.threads <= 1 || n <= 1 {
            (0..n).map(f).collect()
        } else {
            self.map_parallel(n, &f)
        };
        let wall = start.elapsed();
        // Serial busy time equals wall time by definition.
        let busy = if self.threads <= 1 || n <= 1 {
            wall
        } else {
            Duration::ZERO // already recorded per worker inside map_parallel
        };
        self.metrics.record(n as u64, wall, busy);
        out
    }

    fn map_parallel<R, F>(&self, n: usize, f: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n);
        // Small chunks keep load balanced without contending on the
        // cursor for every item.
        let chunk = (n / (workers * 8)).clamp(1, 1024);
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

        let panic_payload = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let cursor = &cursor;
                let slots = &slots;
                handles.push(scope.spawn(move || {
                    let begin = Instant::now();
                    loop {
                        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        let hi = (lo + chunk).min(n);
                        for (i, slot) in slots[lo..hi].iter().enumerate() {
                            let value = f(lo + i);
                            *slot.lock().expect("slot poisoned") = Some(value);
                        }
                    }
                    begin.elapsed()
                }));
            }
            let mut first_panic = None;
            for handle in handles {
                match handle.join() {
                    Ok(busy) => self
                        .metrics
                        .busy_nanos
                        .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed),
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                        0
                    }
                };
            }
            first_panic
        });
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }

        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .expect("slot poisoned")
                    .unwrap_or_else(|| panic!("index {i} produced no value"))
            })
            .collect()
    }

    /// Splits `0..n` into fixed-size chunks, maps each chunk range with
    /// `map` in parallel, and folds the chunk results **in chunk order**.
    ///
    /// This is the row-partitioned histogram primitive: `map` builds a
    /// thread-local partial accumulator over its row range, `fold` merges
    /// it into the running total. Two properties make the result
    /// independent of thread count:
    ///
    /// * the chunk grid depends only on `n` and `chunk_size` (never on
    ///   `threads`), and
    /// * chunks are merged in ascending chunk order, whatever order the
    ///   workers finished in.
    ///
    /// Chunks are processed in *waves* of at most `threads` chunks, so at
    /// most `threads` partial accumulators are live at once — large dense
    /// histograms over millions of rows stay bounded at
    /// `threads × |histogram|` memory rather than `n/chunk_size × …`.
    pub fn fold_chunks<R, A, F, G>(
        &self,
        n: usize,
        chunk_size: usize,
        map: F,
        init: A,
        mut fold: G,
    ) -> A
    where
        R: Send,
        F: Fn(std::ops::Range<usize>) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        let chunk_size = chunk_size.max(1);
        let n_chunks = n.div_ceil(chunk_size);
        let wave = self.threads.max(1);
        let mut acc = init;
        let mut done = 0;
        while done < n_chunks {
            let in_wave = wave.min(n_chunks - done);
            let results = self.map(in_wave, |j| {
                let lo = (done + j) * chunk_size;
                let hi = (lo + chunk_size).min(n);
                map(lo..hi)
            });
            for r in results {
                acc = fold(acc, r);
            }
            done += in_wave;
        }
        acc
    }

    /// Maps each `chunk_size`-row chunk of `0..n` with `map` in one
    /// parallel region and returns the chunk results in chunk order.
    ///
    /// The grid depends only on `n` and `chunk_size`, as in
    /// [`fold_chunks`](ThreadPool::fold_chunks), but every chunk result
    /// is live at once: use it when those results are small (a chunk's
    /// first-seen list, its mask words), and `fold_chunks` when each is a
    /// large accumulator.
    pub fn map_chunks<R, F>(&self, n: usize, chunk_size: usize, map: F) -> Vec<R>
    where
        R: Send,
        F: Fn(std::ops::Range<usize>) -> R + Sync,
    {
        let chunk_size = chunk_size.max(1);
        self.map(n.div_ceil(chunk_size), |j| {
            let lo = j * chunk_size;
            map(lo..(lo + chunk_size).min(n))
        })
    }

    /// Splits `data` into `chunk_size`-element chunks and applies
    /// `f(chunk_index, chunk)` to each on the pool, writing in place.
    /// Returns the per-chunk results in chunk order.
    ///
    /// Like [`fold_chunks`](ThreadPool::fold_chunks), the chunk grid
    /// depends only on `data.len()` and `chunk_size`, so a pure `f` gives
    /// the same data and results at any thread count.
    pub fn map_chunks_mut<T, R, F>(&self, data: &mut [T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        self.map_pieces(data.chunks_mut(chunk_size.max(1)).collect(), f)
    }

    /// Splits `data` into consecutive pieces of the given lengths (which
    /// must sum to `data.len()`) and applies `f(piece_index, piece)` to
    /// each on the pool, writing in place; results come back in piece
    /// order. This fills an output whose per-chunk sizes a counting pass
    /// found, without any per-chunk buffers.
    pub fn map_pieces_mut<T, R, F>(&self, data: &mut [T], lens: &[usize], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        assert_eq!(
            lens.iter().sum::<usize>(),
            data.len(),
            "piece lengths must cover the data"
        );
        let mut pieces = Vec::with_capacity(lens.len());
        let mut rest = data;
        for &len in lens {
            let (piece, tail) = rest.split_at_mut(len);
            pieces.push(piece);
            rest = tail;
        }
        self.map_pieces(pieces, f)
    }

    fn map_pieces<T, R, F>(&self, pieces: Vec<&mut [T]>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        let pieces: Vec<Mutex<&mut [T]>> = pieces.into_iter().map(Mutex::new).collect();
        self.map(pieces.len(), |j| {
            f(j, &mut pieces[j].lock().expect("piece poisoned"))
        })
    }

    /// Maps `f` over a slice, index-ordered; convenience over [`map`].
    ///
    /// [`map`]: ThreadPool::map
    pub fn map_slice<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &'a T) -> R + Sync,
    {
        self.map(items.len(), |i| f(i, &items[i]))
    }
}

// ---------------------------------------------------------------------------
// Bounded workers: a counting semaphore with admission counters
// ---------------------------------------------------------------------------

/// A counting semaphore bounding how many workers run at once.
///
/// This is the admission-control primitive behind both the serve layer's
/// pipeline gate (blocking [`acquire`](Semaphore::acquire)) and its
/// connection cap (non-blocking [`try_acquire`](Semaphore::try_acquire),
/// whose `None` becomes a graceful `Busy` reply instead of silent
/// queueing). Counters record every admission decision so callers can
/// assert behaviour without wall-clock measurements.
#[derive(Debug)]
pub struct Semaphore {
    max: usize,
    in_use: Mutex<usize>,
    freed: Condvar,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

/// RAII permit from [`Semaphore::acquire`]/[`Semaphore::try_acquire`];
/// releases its slot on drop.
#[derive(Debug)]
pub struct SemaphoreGuard<'a>(&'a Semaphore);

/// RAII permit holding the semaphore alive via an [`Arc`] — usable from
/// threads that outlive the acquiring scope.
#[derive(Debug)]
pub struct OwnedSemaphoreGuard(Arc<Semaphore>);

impl Semaphore {
    /// A semaphore with `max` slots (clamped to at least 1).
    pub fn new(max: usize) -> Semaphore {
        Semaphore {
            max: max.max(1),
            in_use: Mutex::new(0),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Blocks until a slot is free.
    pub fn acquire(&self) -> SemaphoreGuard<'_> {
        let mut n = self.in_use.lock().expect("semaphore poisoned");
        while *n >= self.max {
            n = self.freed.wait(n).expect("semaphore poisoned");
        }
        *n += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        SemaphoreGuard(self)
    }

    /// Takes a slot if one is free, without blocking. A `None` is counted
    /// as a rejection.
    pub fn try_acquire(&self) -> Option<SemaphoreGuard<'_>> {
        let mut n = self.in_use.lock().expect("semaphore poisoned");
        if *n >= self.max {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        *n += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Some(SemaphoreGuard(self))
    }

    /// [`try_acquire`](Semaphore::try_acquire), but the permit owns an
    /// [`Arc`] to the semaphore and may be moved to another thread.
    pub fn try_acquire_owned(self: &Arc<Self>) -> Option<OwnedSemaphoreGuard> {
        let guard = self.try_acquire()?;
        std::mem::forget(guard); // slot ownership moves to the owned guard
        Some(OwnedSemaphoreGuard(Arc::clone(self)))
    }

    /// Slots currently held.
    pub fn in_use(&self) -> usize {
        *self.in_use.lock().expect("semaphore poisoned")
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.max
    }

    /// Permits granted so far (blocking and non-blocking).
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// `try_acquire` calls that found no free slot.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    fn release(&self) {
        *self.in_use.lock().expect("semaphore poisoned") -= 1;
        self.freed.notify_one();
    }
}

impl Drop for SemaphoreGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

impl Drop for OwnedSemaphoreGuard {
    fn drop(&mut self) {
        self.0.release();
    }
}

// ---------------------------------------------------------------------------
// Deterministic randomness: SplitMix64 and jittered exponential backoff
// ---------------------------------------------------------------------------

/// SplitMix64 — a tiny, deterministic, seedable PRNG (Steele et al.,
/// *Fast Splittable Pseudorandom Number Generators*). Used wherever the
/// system needs reproducible "randomness": retry jitter and the
/// fault-injection harness's seeded byte offsets.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`; equal seeds yield equal sequences.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → the full double mantissa.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `[0, n)`; returns 0 when `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Deterministic jittered exponential backoff: delay `i` is
/// `min(cap, base · 2^i)` scaled by a seeded jitter in `[0.5, 1.0)`, so
/// retry storms decorrelate while tests stay reproducible.
#[derive(Debug, Clone)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
    rng: SplitMix64,
}

impl Backoff {
    /// A backoff starting at `base` and capped at `cap`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            next: base.min(cap),
            cap,
            rng: SplitMix64::new(seed),
        }
    }

    /// The next delay to sleep before retrying.
    pub fn next_delay(&mut self) -> Duration {
        let jitter = 0.5 + 0.5 * self.rng.next_f64();
        let delay = self.next.mul_f64(jitter);
        self.next = (self.next * 2).min(self.cap);
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(Parallelism::Fixed(threads));
            let out = pool.map(1000, |i| i * i);
            let expected: Vec<usize> = (0..1000).map(|i| i * i).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_is_bit_identical_across_thread_counts() {
        // A reduction whose result depends on evaluation *values* only:
        // the f64 outputs must match bit-for-bit between serial and
        // parallel pools.
        let score = |i: usize| ((i as f64) * 0.1).sin() / ((i + 1) as f64).sqrt();
        let serial: Vec<f64> = ThreadPool::new(Parallelism::Serial).map(513, score);
        for threads in [2, 5, 16] {
            let parallel = ThreadPool::new(Parallelism::Fixed(threads)).map(513, score);
            let same = serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = ThreadPool::new(Parallelism::Fixed(4));
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn map_slice_borrows_items() {
        let words = ["alpha", "beta", "gamma"];
        let pool = ThreadPool::new(Parallelism::Fixed(2));
        let lens = pool.map_slice(&words, |i, w| (i, w.len()));
        assert_eq!(lens, vec![(0, 5), (1, 4), (2, 5)]);
    }

    #[test]
    #[should_panic(expected = "deliberate worker panic")]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(Parallelism::Fixed(4));
        pool.map(64, |i| {
            if i == 33 {
                panic!("deliberate worker panic");
            }
            i
        });
    }

    #[test]
    fn worker_panic_does_not_hang_serial_pool() {
        let pool = ThreadPool::new(Parallelism::Serial);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(4, |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn fold_chunks_covers_every_row_exactly_once() {
        for threads in [1, 2, 3, 8] {
            for chunk in [1, 7, 64, 1000, 5000] {
                let pool = ThreadPool::new(Parallelism::Fixed(threads));
                let sum = pool.fold_chunks(
                    1000,
                    chunk,
                    |range| range.sum::<usize>(),
                    0usize,
                    |acc, s| acc + s,
                );
                assert_eq!(sum, (0..1000).sum(), "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn fold_chunks_merges_in_chunk_order() {
        // Record the chunk ranges as seen by the fold: they must arrive
        // ascending and partition 0..n for any thread count.
        for threads in [1, 4] {
            let pool = ThreadPool::new(Parallelism::Fixed(threads));
            let ranges = pool.fold_chunks(
                103,
                10,
                |range| range,
                Vec::new(),
                |mut acc: Vec<std::ops::Range<usize>>, r| {
                    acc.push(r);
                    acc
                },
            );
            assert_eq!(ranges.len(), 11);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, 103);
        }
    }

    #[test]
    fn map_chunks_mut_writes_every_chunk_in_place() {
        for threads in [1, 3] {
            let pool = ThreadPool::new(Parallelism::Fixed(threads));
            let mut data = vec![0usize; 103];
            let lens = pool.map_chunks_mut(&mut data, 10, |j, chunk| {
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x = j * 10 + k;
                }
                chunk.len()
            });
            assert_eq!(data, (0..103).collect::<Vec<_>>());
            assert_eq!(lens.len(), 11);
            assert_eq!(lens[10], 3);
        }
    }

    #[test]
    fn map_pieces_mut_fills_uneven_pieces_in_order() {
        let pool = ThreadPool::new(Parallelism::Fixed(3));
        let mut data = vec![0usize; 10];
        let firsts = pool.map_pieces_mut(&mut data, &[3, 0, 5, 2], |j, piece| {
            piece.fill(j);
            piece.len()
        });
        assert_eq!(data, vec![0, 0, 0, 2, 2, 2, 2, 2, 3, 3]);
        assert_eq!(firsts, vec![3, 0, 5, 2]);
    }

    #[test]
    fn fold_chunks_empty_input() {
        let pool = ThreadPool::new(Parallelism::Fixed(4));
        let out = pool.fold_chunks(0, 16, |r| r.len(), 0usize, |a, b| a + b);
        assert_eq!(out, 0);
    }

    #[test]
    fn metrics_accumulate() {
        let pool = ThreadPool::new(Parallelism::Fixed(2));
        pool.map(100, |i| i);
        pool.map(50, |i| i);
        assert_eq!(pool.metrics().tasks(), 150);
        assert_eq!(pool.metrics().calls(), 2);
        assert!(pool.metrics().speedup() >= 0.0);
    }

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert_eq!(Parallelism::Fixed(6).threads(), 6);
        assert!(Parallelism::Auto.threads() >= 1);
    }

    #[test]
    fn semaphore_bounds_and_counts() {
        let sem = Semaphore::new(2);
        let a = sem.try_acquire().expect("slot 1");
        let _b = sem.try_acquire().expect("slot 2");
        assert!(sem.try_acquire().is_none(), "capacity 2 must reject a 3rd");
        assert_eq!(sem.in_use(), 2);
        assert_eq!(sem.admitted(), 2);
        assert_eq!(sem.rejected(), 1);
        drop(a);
        assert_eq!(sem.in_use(), 1);
        let _c = sem.try_acquire().expect("freed slot is reusable");
        assert_eq!(sem.admitted(), 3);
    }

    #[test]
    fn semaphore_blocking_acquire_waits_for_release() {
        let sem = Arc::new(Semaphore::new(1));
        let guard = sem.try_acquire_owned().expect("slot");
        let waiter = {
            let sem = Arc::clone(&sem);
            std::thread::spawn(move || {
                let _g = sem.acquire(); // must block until the holder drops
                sem.in_use()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(guard);
        assert_eq!(waiter.join().expect("waiter"), 1);
        assert_eq!(sem.in_use(), 0);
    }

    #[test]
    fn owned_guard_releases_across_threads() {
        let sem = Arc::new(Semaphore::new(1));
        let guard = sem.try_acquire_owned().expect("slot");
        let handle = std::thread::spawn(move || drop(guard));
        handle.join().expect("release thread");
        assert_eq!(sem.in_use(), 0);
        assert!(sem.try_acquire().is_some());
    }

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(7);
        for _ in 0..1000 {
            let f = c.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(c.next_below(10) < 10);
        }
        assert_eq!(SplitMix64::new(1).next_below(0), 0);
    }

    #[test]
    fn backoff_grows_to_cap_with_bounded_jitter() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(80);
        let mut backoff = Backoff::new(base, cap, 99);
        let mut expected_ceiling = base;
        for _ in 0..6 {
            let d = backoff.next_delay();
            assert!(d >= expected_ceiling / 2, "jitter floor is 0.5×");
            assert!(d < expected_ceiling, "jitter ceiling is 1.0×");
            expected_ceiling = (expected_ceiling * 2).min(cap);
        }
        // Determinism: same seed, same sequence.
        let mut x = Backoff::new(base, cap, 5);
        let mut y = Backoff::new(base, cap, 5);
        for _ in 0..5 {
            assert_eq!(x.next_delay(), y.next_delay());
        }
    }
}

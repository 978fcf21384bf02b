//! nexus-telemetry: a unified metrics registry and per-request span trees.
//!
//! This crate is std-only with zero dependencies, like the rest of the
//! workspace. It provides two facilities:
//!
//! * A [`Registry`] of named metrics — monotone [`Counter`]s, settable
//!   [`Gauge`]s, and log₂-bucketed [`Histogram`]s — behind one lock.
//!   Lookups get-or-create a handle and hot paths keep the handle, so the
//!   lock is taken at set-up and once per snapshot, never per event.
//!   [`Registry::snapshot`] returns every metric in deterministic
//!   sorted name order, which is what makes `--stats` output and smoke-test
//!   greps stable.
//! * Per-request span trees: a [`Trace`] is a preorder list of [`Span`]s
//!   keyed by NEXUSRPC v2 corr-id, and a bounded [`TraceRing`] retains the
//!   last N traces per server, counting evictions instead of growing. The
//!   server builds each trace from the pipeline's own stage ledger
//!   (`nexus-core`'s `PipelineStats::stages`), so it measures nothing
//!   itself.
//!
//! Metric names are dotted lowercase paths (`serve.cache.hits`,
//! `kernel.builds.dense`, `registry.datasets.resident`). Spans record
//! monotonic durations for humans but deterministic *counts* (kernel build
//! deltas) for tests — assertions must never depend on wall-clock.
//!
//! Every server owns its `Registry`; components that keep their own
//! counts (the memo store, the dataset registry, the result cache) and
//! the process-global kernel counters are read into it at snapshot time.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets in a histogram: bucket 0 holds value 0, bucket
/// `b >= 1` holds values with `64 - leading_zeros == b`, i.e. `[2^(b-1), 2^b)`.
const BUCKETS: usize = 65;

/// The kind of a metric value, carried alongside each name in snapshots and
/// on the wire so `MetricsReply` is self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter; only ever added to.
    Counter,
    /// Point-in-time gauge; set/add/sub/max.
    Gauge,
    /// Total number of observations recorded by a histogram.
    HistogramCount,
    /// Sum of all observed values of a histogram.
    HistogramSum,
    /// One non-empty log₂ bucket of a histogram.
    HistogramBucket,
}

impl MetricKind {
    /// Stable wire encoding of the kind.
    pub fn as_u8(self) -> u8 {
        match self {
            MetricKind::Counter => 0,
            MetricKind::Gauge => 1,
            MetricKind::HistogramCount => 2,
            MetricKind::HistogramSum => 3,
            MetricKind::HistogramBucket => 4,
        }
    }

    /// Inverse of [`MetricKind::as_u8`]; `None` for unknown bytes.
    pub fn from_u8(v: u8) -> Option<MetricKind> {
        Some(match v {
            0 => MetricKind::Counter,
            1 => MetricKind::Gauge,
            2 => MetricKind::HistogramCount,
            3 => MetricKind::HistogramSum,
            4 => MetricKind::HistogramBucket,
            _ => return None,
        })
    }
}

/// One named value produced by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricValue {
    /// Dotted metric name (`serve.cache.hits`).
    pub name: String,
    /// What the value means.
    pub kind: MetricKind,
    /// Current value.
    pub value: u64,
}

struct HistoCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistoCells>),
}

/// A monotone counter handle. Cheap to clone; all clones share one cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` and returns the new value.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::SeqCst) + n
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// A gauge handle. Cheap to clone; all clones share one cell.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::SeqCst);
    }

    /// Adds `n` and returns the new value.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::SeqCst) + n
    }

    /// Subtracts `n` (callers keep the gauge non-negative by discipline).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::SeqCst);
    }

    /// Raises the value to at least `v`.
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::SeqCst);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// A log₂-bucketed histogram handle. Cheap to clone.
#[derive(Clone)]
pub struct Histogram(Arc<HistoCells>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// Bucket index for a value: 0 for 0, otherwise `64 - leading_zeros`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// A registry of named metrics with deterministic sorted iteration.
/// Handle lookups (`counter`/`gauge`/`histogram`) get-or-create; hot paths
/// should look a handle up once and keep it.
pub struct Registry {
    slots: Mutex<HashMap<String, Slot>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry {
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn slots(&self) -> std::sync::MutexGuard<'_, HashMap<String, Slot>> {
        self.slots.lock().expect("registry poisoned")
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.slots();
        if let Some(slot) = map.get(name) {
            return match slot {
                Slot::Counter(c) => Counter(Arc::clone(c)),
                _ => panic!("metric {name:?} is not a counter"),
            };
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.insert(name.to_string(), Slot::Counter(Arc::clone(&cell)));
        Counter(cell)
    }

    /// Returns the gauge named `name`, creating it at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.slots();
        if let Some(slot) = map.get(name) {
            return match slot {
                Slot::Gauge(g) => Gauge(Arc::clone(g)),
                _ => panic!("metric {name:?} is not a gauge"),
            };
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.insert(name.to_string(), Slot::Gauge(Arc::clone(&cell)));
        Gauge(cell)
    }

    /// Returns the histogram named `name`, creating it empty on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.slots();
        if let Some(slot) = map.get(name) {
            return match slot {
                Slot::Histogram(h) => Histogram(Arc::clone(h)),
                _ => panic!("metric {name:?} is not a histogram"),
            };
        }
        let cell = Arc::new(HistoCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        });
        map.insert(name.to_string(), Slot::Histogram(Arc::clone(&cell)));
        Histogram(cell)
    }

    /// Snapshots every metric, sorted by name. Histograms expand into
    /// `<name>.count`, `<name>.sum`, and one `<name>.b<NN>` entry per
    /// non-empty bucket (two-digit bucket index, so lexicographic order is
    /// numeric order).
    pub fn snapshot(&self) -> Vec<MetricValue> {
        let mut out = Vec::new();
        for (name, slot) in self.slots().iter() {
            match slot {
                Slot::Counter(c) => out.push(MetricValue {
                    name: name.clone(),
                    kind: MetricKind::Counter,
                    value: c.load(Ordering::SeqCst),
                }),
                Slot::Gauge(g) => out.push(MetricValue {
                    name: name.clone(),
                    kind: MetricKind::Gauge,
                    value: g.load(Ordering::SeqCst),
                }),
                Slot::Histogram(h) => {
                    out.push(MetricValue {
                        name: format!("{name}.count"),
                        kind: MetricKind::HistogramCount,
                        value: h.count.load(Ordering::Relaxed),
                    });
                    out.push(MetricValue {
                        name: format!("{name}.sum"),
                        kind: MetricKind::HistogramSum,
                        value: h.sum.load(Ordering::Relaxed),
                    });
                    for (i, bucket) in h.buckets.iter().enumerate() {
                        let v = bucket.load(Ordering::Relaxed);
                        if v > 0 {
                            out.push(MetricValue {
                                name: format!("{name}.b{i:02}"),
                                kind: MetricKind::HistogramBucket,
                                value: v,
                            });
                        }
                    }
                }
            }
        }
        // Map order is arbitrary, and a histogram's expansion (`.b00`,
        // `.count`) interleaves with other names.
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// One span of a [`Trace`]: a named phase with its tree depth, a
/// deterministic work count (the stage's kernel builds), and
/// a monotonic duration for human consumption only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`assemble`, `select`, ... or the `explain` root).
    pub name: String,
    /// Depth in the span tree; the root is 0, stage spans are 1.
    pub depth: u32,
    /// Deterministic work count attributed to this span (kernel builds).
    /// Tests assert on this, never on `duration_nanos`.
    pub count: u64,
    /// Monotonic wall time spent in this span. Humans only.
    pub duration_nanos: u64,
}

/// A finished per-request span tree, in preorder, keyed by the NEXUSRPC v2
/// correlation id (0 for in-process requests, which carry none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Correlation id of the request that produced this trace.
    pub corr_id: u64,
    /// Spans in preorder: the `explain` root first, stage spans after.
    pub spans: Vec<Span>,
}

/// A bounded ring of finished traces. Past capacity the oldest trace is
/// dropped and `evicted` is incremented — memory never grows unbounded.
/// Capacity 0 disables recording entirely (pushes are no-ops).
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<VecDeque<Trace>>,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl TraceRing {
    /// Creates a ring retaining at most `capacity` traces.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity,
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained traces (0 = recording disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether pushes are recorded at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends a trace, evicting the oldest past capacity.
    pub fn push(&self, trace: Trace) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.inner.lock().expect("trace ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::SeqCst);
        }
        ring.push_back(trace);
        self.recorded.fetch_add(1, Ordering::SeqCst);
    }

    /// The most recent `n` traces, newest first.
    pub fn last(&self, n: usize) -> Vec<Trace> {
        let ring = self.inner.lock().expect("trace ring poisoned");
        ring.iter().rev().take(n).cloned().collect()
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace ring poisoned").len()
    }

    /// Whether the ring currently holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::SeqCst)
    }

    /// Total traces dropped to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("b.count").add(2);
        r.gauge("a.gauge").set(7);
        r.counter("c.other").add(1);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a.gauge", "b.count", "c.other"]);
        assert_eq!(snap[0].kind, MetricKind::Gauge);
        assert_eq!(snap[0].value, 7);
        assert_eq!(snap[1].kind, MetricKind::Counter);
        assert_eq!(snap[1].value, 2);
    }

    #[test]
    fn handles_share_cells() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn gauge_max_and_sub() {
        let r = Registry::new();
        let g = r.gauge("g");
        g.set(5);
        g.max(3);
        assert_eq!(g.get(), 5);
        g.max(9);
        assert_eq!(g.get(), 9);
        g.add(1);
        g.sub(4);
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let r = Registry::new();
        let h = r.histogram("lat");
        h.record(0); // b00
        h.record(1); // b01
        h.record(2); // b02
        h.record(3); // b02
        h.record(1024); // b11
        let snap = r.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or(0)
        };
        assert_eq!(get("lat.count"), 5);
        assert_eq!(get("lat.sum"), 1030);
        assert_eq!(get("lat.b00"), 1);
        assert_eq!(get("lat.b01"), 1);
        assert_eq!(get("lat.b02"), 2);
        assert_eq!(get("lat.b11"), 1);
        // Empty buckets are not exported.
        assert!(!snap.iter().any(|m| m.name == "lat.b05"));
    }

    #[test]
    fn concurrent_increments_sum() {
        let r = Arc::new(Registry::new());
        let mut joins = Vec::new();
        for t in 0..8 {
            let r = Arc::clone(&r);
            joins.push(thread::spawn(move || {
                for i in 0..1000u64 {
                    r.counter(&format!("m.{:02}", (t + i) % 16)).add(1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let total: u64 = r.snapshot().iter().map(|m| m.value).sum();
        assert_eq!(total, 8000);
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let ring = TraceRing::new(2);
        for corr in 0..5u64 {
            ring.push(Trace {
                corr_id: corr,
                spans: Vec::new(),
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.evicted(), 3);
        let last = ring.last(8);
        let ids: Vec<u64> = last.iter().map(|t| t.corr_id).collect();
        assert_eq!(ids, [4, 3]);
    }

    #[test]
    fn zero_capacity_ring_is_disabled() {
        let ring = TraceRing::new(0);
        assert!(!ring.enabled());
        ring.push(Trace {
            corr_id: 1,
            spans: Vec::new(),
        });
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.recorded(), 0);
        assert_eq!(ring.evicted(), 0);
    }
}

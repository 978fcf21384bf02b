//! Metric names, the per-run report, and its three outputs: one
//! `workload metric value unit n=N` line per metric, a JSON result file
//! under the output directory, and the JSON result line that ends stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{number, quote};

/// End-to-end metrics, printed by every untraced run (name, unit). Each
/// is defined for every workload; `BENCHMARK.json` holds their bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("explain_p50_s", "s"),
    ("request_p50_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Output-quality metrics (fractions). They can legitimately read 0 or
/// stay constant, so they are not `BENCHMARK.json` end-to-end metrics;
/// `compare` judges them against these absolute bounds instead (name,
/// bound, higher-is-better).
pub const QUALITY: &[(&str, f64, bool)] = &[
    ("fail_frac", 0.0, false),
    ("gt_precision", 0.0, true),
    ("explained_frac", 0.01, true),
];

/// Per-layer metrics, printed by every traced run (name, unit). A layer a
/// workload never enters reads 0 there (the serving layers on one-shot
/// workloads, for example).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("store.decode_s", "s"),
    ("store.bytes", "bytes"),
    ("kg.load_s", "s"),
    ("query.parse_us", "us"),
    ("explain.s", "s"),
    ("build.s", "s"),
    ("build.candidates", "count"),
    ("prune_offline.s", "s"),
    ("prune_offline.kept", "count"),
    ("prune_online.s", "s"),
    ("prune_online.kept", "count"),
    ("prune_online.rows_scanned", "count"),
    ("prune_online.builds", "count"),
    ("bias.s", "s"),
    ("bias.weighted", "count"),
    ("select.s", "s"),
    ("select.rows_scanned", "count"),
    ("select.builds", "count"),
    ("select.iterations", "count"),
    ("select.selected", "count"),
    ("pool.tasks", "count"),
    ("pool.busy_frac", "fraction"),
    ("kernel.hash_ops", "count"),
    ("kernel.dense_ops", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.reply_bytes", "bytes"),
    ("serve.rtt_hit_ms", "ms"),
    ("serve.handle_hit_us", "us"),
    ("serve.transport_hit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.cache_hit_rate", "fraction"),
    ("registry.materialize_s", "s"),
    ("registry.extraction_builds", "count"),
    ("memo.hit_rate", "fraction"),
    ("memo.hits.contingency", "count"),
    ("memo.hits.selection", "count"),
    ("memo.hits.cmi_term", "count"),
    ("memo.hits.extraction", "count"),
    ("memo.misses.contingency", "count"),
    ("memo.misses.selection", "count"),
    ("memo.misses.cmi_term", "count"),
    ("memo.misses.extraction", "count"),
    ("memo.resident_bytes", "bytes"),
];

/// How a run measured: traced (per-layer metrics) or not, and at full or
/// `--quick` toy size. Only runs of one mode are comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    pub traced: bool,
    pub quick: bool,
}

#[derive(Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (requests, set-ups, spans, …).
    pub n: usize,
}

/// Everything one child run measured and checked.
pub struct Report {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    /// Why operations failed (the first few, for the result file).
    errors: Vec<String>,
    metrics: BTreeMap<String, Metric>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics
            .insert(name.to_string(), Metric { value, unit, n });
    }

    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics.get(name).copied()
    }

    /// Counts one operation; a failed one records why.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Counts `attempted` operations of which `errors` failed.
    pub fn tally(&mut self, attempted: u64, errors: Vec<String>) {
        self.attempted += attempted;
        for why in errors {
            self.fail(why);
        }
    }

    /// Records a failure of an operation already counted as attempted (or
    /// of the run itself, which then counts as one failed operation).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
        eprintln!("nexus-bench: {}: {why}", self.workload);
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric set a result line carries: the end-to-end metrics of an
    /// untraced run or the per-layer metrics of a traced one; a metric the
    /// run never set reads 0.
    fn contract_metrics(&self, traced: bool) -> Vec<(&'static str, Metric)> {
        let names = if traced { PER_LAYER } else { END_TO_END };
        names
            .iter()
            .map(|&(name, unit)| {
                let m = self.get(name).unwrap_or(Metric {
                    value: 0.0,
                    unit,
                    n: 0,
                });
                (name, m)
            })
            .collect()
    }

    /// Closes the run's tally into `fail_frac`.
    pub fn finish(&mut self) {
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("fail_frac", fail_frac, "fraction", self.attempted as usize);
    }

    /// Prints every metric line: the result-line set first, then the rest.
    pub fn print_lines(&self, traced: bool) {
        let listed = self.contract_metrics(traced);
        for (name, m) in &listed {
            print_line(self.workload, name, m);
        }
        for (name, m) in &self.metrics {
            if !listed.iter().any(|(n, _)| n == name) {
                print_line(self.workload, name, m);
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// result-line metric set.
    pub fn result_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, m)) in self.contract_metrics(traced).iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(m.value),
                quote(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The result file `compare` reads: every metric with its sample
    /// count, plus the run's identity and mode.
    pub fn write_file(&self, path: &Path, seed: Option<u64>, mode: Mode) -> std::io::Result<()> {
        let mut out = format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"quick\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"errors\": [{}],\n  \"metrics\": {{",
            quote(self.workload),
            seed.map_or("null".to_string(), |s| s.to_string()),
            u8::from(mode.traced),
            mode.quick,
            self.correct(),
            self.attempted,
            self.failed,
            self.errors
                .iter()
                .map(|e| quote(e))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
                quote(name),
                number(m.value),
                quote(m.unit),
                m.n
            );
        }
        out.push_str("\n  }\n}\n");
        std::fs::write(path, out)
    }
}

fn print_line(workload: &str, name: &str, m: &Metric) {
    println!("{workload} {name} {} {} n={}", number(m.value), m.unit, m.n);
}

/// The metric name of a `workload metric value unit n=N` line, if `line`
/// is one.
pub fn metric_of_line(line: &str) -> Option<&str> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    (fields.len() == 5 && fields[4].starts_with("n=")).then(|| fields[1])
}

/// Resets the process's peak-RSS mark to its current RSS, so the peak read
/// at the end covers only what follows (set-up and measurement, not input
/// generation). Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

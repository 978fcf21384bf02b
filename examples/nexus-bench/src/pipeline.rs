//! What the runs share about the explain pipeline: the byte signature every
//! reply is checked with, the per-layer metrics of a set of traced
//! requests, and small timing helpers.

use std::hint::black_box;
use std::time::Instant;

use nexus_core::{Explanation, McimrResult};
use nexus_serve::explanation_to_wire;
use nexus_serve::wire::{Envelope, ExplanationReplyWire, Frame, ServeStatsWire, TraceWire};

use crate::report::Report;
use crate::stats::{percentile, sorted};
use crate::trace::{Span, Tracer, BUILD, ROOT};

/// The pipeline's spans and the metric prefix of each. The server names
/// its first stage `assemble` because its extractions are resident; that
/// is the same layer as a one-shot run's `build`.
const LAYERS: [(&str, &str); 7] = [
    (ROOT, "explain"),
    (BUILD, "build"),
    ("assemble", "build"),
    ("prune-offline", "prune_offline"),
    ("prune-online", "prune_online"),
    ("bias", "bias"),
    ("select", "select"),
];

/// The layers whose counting-kernel work is reported: the engine's
/// contingency builds happen in online pruning, and selection (MCIMR plus
/// responsibility) scans rows for calibration and the CI tests.
const WORK_LAYERS: [&str; 2] = ["prune-online", "select"];

/// A byte-exact digest of everything deterministic in an explanation —
/// names, provenance, candidate counters, link statistics, and every f64
/// as its raw bits — in the server's wire encoding. Equal signatures mean
/// bit-identical explanations (so `-0.0 ≠ 0.0`, and a NaN equals itself).
pub fn signature(e: &Explanation) -> Vec<u8> {
    explanation_to_wire(e).encode()
}

/// Counters of one traced request that are not span-shaped.
pub struct Facts {
    pub candidates: usize,
    pub after_offline: usize,
    pub after_online: usize,
    pub biased: usize,
    pub iterations: usize,
    pub selected: usize,
    pub pool_tasks: u64,
    /// Pool-worker busy time over (threads × explain time).
    pub busy_frac: f64,
}

impl Facts {
    /// The counters of an explanation that took `seconds`.
    pub fn of(e: &Explanation, mcimr: &McimrResult, seconds: f64) -> Facts {
        let s = &e.stats;
        Facts {
            candidates: s.n_candidates_initial,
            after_offline: s.n_after_offline,
            after_online: s.n_after_online,
            biased: s.n_biased,
            iterations: mcimr.trace.len(),
            selected: mcimr.selected.len(),
            pool_tasks: s.pool_tasks,
            busy_frac: s.t_pool_busy.as_secs_f64()
                / (s.threads.max(1) as f64 * seconds).max(f64::MIN_POSITIVE),
        }
    }
}

/// Median of `values` (nearest rank), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0).unwrap_or(0.0)
}

/// Wall time of `f` in microseconds, with its result.
pub fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Encode and decode timings of an explanation reply envelope carrying
/// `explanation` bytes: `(encode_us, decode_us, envelope_bytes)`. The
/// decoded envelope must equal the encoded one.
pub fn wire_roundtrip(explanation: &[u8]) -> Result<(f64, f64, usize), String> {
    let env = Envelope::v2(
        1,
        Frame::Explanation(ExplanationReplyWire {
            explanation: explanation.to_vec(),
            stats: ServeStatsWire::default(),
        }),
    );
    let (bytes, encode_us) = time_us(|| black_box(&env).encode());
    let (decoded, decode_us) = time_us(|| Envelope::decode(black_box(&bytes)));
    match decoded {
        Ok((back, used)) if back == env && used == bytes.len() => {
            Ok((encode_us, decode_us, bytes.len()))
        }
        Ok(_) => Err("reply envelope changed in an encode/decode round trip".into()),
        Err(e) => Err(format!("reply envelope failed to decode: {e}")),
    }
}

/// Per-layer metrics of a one-shot run's traced requests: span times and
/// kernel work per layer, and the request counters.
pub fn layer_metrics(report: &mut Report, tracer: &Tracer, facts: &[Facts]) {
    for (name, prefix) in LAYERS {
        let spans = tracer.layer(name);
        if spans.is_empty() {
            continue;
        }
        let secs: Vec<f64> = spans.iter().map(|s| s.seconds()).collect();
        report.set(&format!("{prefix}.s"), median(&secs), "s", spans.len());
    }
    let work = |spans: &[&Span], f: fn(&Span) -> u64| {
        median(&spans.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    for name in WORK_LAYERS {
        let spans = tracer.layer(name);
        let prefix = prefix_of(name);
        let rows = work(&spans, |s| s.work.rows_scanned);
        report.set(
            &format!("{prefix}.rows_scanned"),
            rows,
            "count",
            spans.len(),
        );
        let builds = work(&spans, |s| s.work.builds);
        report.set(&format!("{prefix}.builds"), builds, "count", spans.len());
    }
    let roots = tracer.layer(ROOT);
    let n = roots.len();
    report.set(
        "kernel.hash_ops",
        work(&roots, |s| s.work.hash_ops),
        "count",
        n,
    );
    report.set(
        "kernel.dense_ops",
        work(&roots, |s| s.work.dense_ops),
        "count",
        n,
    );

    type Count = fn(&Facts) -> f64;
    let counts: [(&str, Count); 7] = [
        ("build.candidates", |f| f.candidates as f64),
        ("prune_offline.kept", |f| f.after_offline as f64),
        ("prune_online.kept", |f| f.after_online as f64),
        ("bias.weighted", |f| f.biased as f64),
        ("select.iterations", |f| f.iterations as f64),
        ("select.selected", |f| f.selected as f64),
        ("pool.tasks", |f| f.pool_tasks as f64),
    ];
    for (metric, value) in counts {
        let values: Vec<f64> = facts.iter().map(value).collect();
        report.set(metric, median(&values), "count", facts.len());
    }
    let busy: Vec<f64> = facts.iter().map(|f| f.busy_frac).collect();
    report.set("pool.busy_frac", median(&busy), "fraction", facts.len());
}

/// Per-layer metrics of served misses, from the server's own span traces:
/// span times per layer and the kernel builds of the layers that build.
/// Traces without a `select` span (cache hits) are skipped.
pub fn server_layer_metrics(report: &mut Report, traces: &[TraceWire]) {
    let misses: Vec<&TraceWire> = traces
        .iter()
        .filter(|t| t.spans.iter().any(|s| s.name == "select"))
        .collect();
    for (name, prefix) in LAYERS {
        let spans: Vec<_> = misses
            .iter()
            .flat_map(|t| t.spans.iter().filter(|s| s.name == name))
            .collect();
        if spans.is_empty() {
            continue;
        }
        let secs: Vec<f64> = spans
            .iter()
            .map(|s| s.duration_nanos as f64 / 1e9)
            .collect();
        report.set(&format!("{prefix}.s"), median(&secs), "s", spans.len());
        if WORK_LAYERS.contains(&name) {
            let builds: Vec<f64> = spans.iter().map(|s| s.count as f64).collect();
            report.set(
                &format!("{prefix}.builds"),
                median(&builds),
                "count",
                spans.len(),
            );
        }
    }
}

fn prefix_of(span: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|(name, _)| *name == span)
        .map_or("unknown", |(_, prefix)| prefix)
}

/// Share of `names` found in `truth` (0 when nothing was selected).
pub fn gt_precision<'a>(names: impl IntoIterator<Item = &'a str>, truth: &[&str]) -> f64 {
    let (mut hit, mut total) = (0usize, 0usize);
    for name in names {
        total += 1;
        hit += usize::from(truth.contains(&name));
    }
    if total == 0 {
        0.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_core::{CandidateSource, PipelineStats, SelectedAttribute};

    fn explanation(responsibility: f64, initial_cmi: f64) -> Explanation {
        Explanation {
            attributes: vec![SelectedAttribute {
                name: "Region::tier".into(),
                source: CandidateSource::Extracted {
                    column: "Region".into(),
                },
                responsibility,
                weighted: false,
            }],
            initial_cmi,
            explained_cmi: 0.25,
            stopped_by_responsibility: true,
            stats: PipelineStats::default(),
        }
    }

    #[test]
    fn signature_compares_f64_bits() {
        let same = signature(&explanation(0.5, 1.0));
        assert_eq!(same, signature(&explanation(0.5, 1.0)));
        // -0.0 == 0.0 numerically, but not bit for bit.
        assert_ne!(
            signature(&explanation(0.0, 1.0)),
            signature(&explanation(-0.0, 1.0))
        );
        // NaN != NaN numerically, but one NaN's bits equal themselves.
        assert_eq!(
            signature(&explanation(0.5, f64::NAN)),
            signature(&explanation(0.5, f64::NAN))
        );
        assert_ne!(
            signature(&explanation(0.5, f64::NAN)),
            signature(&explanation(0.5, -f64::NAN))
        );
        // The smallest representable change shows.
        assert_ne!(
            signature(&explanation(0.5, 1.0)),
            signature(&explanation(0.5, f64::from_bits(1.0f64.to_bits() + 1)))
        );
    }

    #[test]
    fn precision_against_ground_truth() {
        let truth = ["a", "b"];
        assert_eq!(gt_precision(["a", "b"], &truth), 1.0);
        assert_eq!(gt_precision(["a", "x"], &truth), 0.5);
        assert_eq!(gt_precision([], &truth), 0.0);
    }
}

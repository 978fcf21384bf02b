//! Per-layer spans of one explain, cut at the stage boundaries the pipeline
//! reports to a `RunControl` progress sink (`prune-offline`,
//! `prune-online`, `bias`, `select`), with the counting-kernel counter
//! movement over each stage. The benchmark reads the same boundaries the
//! server's own span traces use, so it follows the pipeline through any
//! reordering of the work inside a stage. Spans stay in memory and are
//! written out once, at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use nexus_core::{ProgressEvent, RunControl};
use nexus_info::KernelSnapshot;

use crate::json::quote;

/// Name of the span from the call to the first stage event: linking,
/// extraction and candidate assembly (`PipelineStats::t_build`).
pub const BUILD: &str = "build";
/// Name of every request's root span.
pub const ROOT: &str = "explain";

/// Counting-kernel work done inside one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub rows_scanned: u64,
    /// Contingency builds, dense plus sparse.
    pub builds: u64,
    pub hash_ops: u64,
    pub dense_ops: u64,
}

impl Work {
    fn between(before: &KernelSnapshot, after: &KernelSnapshot) -> Work {
        let d = after.delta(before);
        Work {
            rows_scanned: d.rows_scanned,
            builds: d.dense_builds + d.sparse_builds,
            hash_ops: d.hash_ops,
            dense_ops: d.dense_ops,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    /// [`ROOT`], [`BUILD`], or the stage name the pipeline reported.
    pub name: &'static str,
    /// The request the span belongs to; every span of a request shares it.
    pub request: u64,
    /// Index of the enclosing span: the request's root, for a stage span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: Work,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A clock reading and the kernel counters at one stage boundary.
type Mark = (&'static str, u64, KernelSnapshot);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn mark(&self, name: &'static str) -> Mark {
        let ns = self.origin.elapsed().as_nanos() as u64;
        (name, ns, nexus_info::kernel::counters().snapshot())
    }

    /// Runs one explain as request `request`. `run` gets a control whose
    /// progress sink records every stage boundary; the request's root span
    /// covers the whole call, and one span runs from each boundary to the
    /// next (the first, [`BUILD`], from the call to the first boundary).
    pub fn request<R>(&mut self, request: u64, run: impl FnOnce(RunControl<'_>) -> R) -> R {
        let marks: Mutex<Vec<Mark>> = Mutex::new(vec![self.mark(BUILD)]);
        let sink = |event: ProgressEvent| {
            if let ProgressEvent::Stage { stage } = event {
                let mark = self.mark(stage);
                marks.lock().expect("stage marks poisoned").push(mark);
            }
        };
        let out = run(RunControl {
            progress: Some(&sink),
            ..RunControl::none()
        });
        let end = self.mark(ROOT);
        let marks = marks.into_inner().expect("stage marks poisoned");
        let root = self.spans.len();
        let span = |name, parent, from: &Mark, to: &Mark| Span {
            name,
            request,
            parent,
            start_ns: from.1,
            end_ns: to.1,
            work: Work::between(&from.2, &to.2),
        };
        self.spans.push(span(ROOT, None, &marks[0], &end));
        for (i, from) in marks.iter().enumerate() {
            let to = marks.get(i + 1).unwrap_or(&end);
            self.spans.push(span(from.0, Some(root), from, to));
        }
        out
    }

    /// The spans named `name`, in request order.
    pub fn layer(&self, name: &str) -> Vec<&Span> {
        let by_request: BTreeMap<u64, &Span> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, s))
            .collect();
        by_request.into_values().collect()
    }

    /// Writes every span as a JSON array (times in nanoseconds since the
    /// tracer was created).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"request\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"rows_scanned\": {}, \"builds\": {}, \"hash_ops\": {}, \"dense_ops\": {}}}{sep}",
                quote(s.name),
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.work.rows_scanned,
                s.work.builds,
                s.work.hash_ops,
                s.work.dense_ops,
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_events_cut_the_request_into_spans() {
        let mut tracer = Tracer::new();
        let answer = tracer.request(7, |ctl| {
            for stage in ["prune-offline", "prune-online", "bias", "select"] {
                ctl.stage(stage);
            }
            ctl.emit(ProgressEvent::Selected {
                names: vec![],
                cmi_so_far: 0.0,
                initial_cmi: 0.0,
            });
            42
        });
        assert_eq!(answer, 42);
        let names: Vec<&str> = tracer.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                ROOT,
                BUILD,
                "prune-offline",
                "prune-online",
                "bias",
                "select"
            ]
        );
        let root = tracer.layer(ROOT)[0];
        let stages = &tracer.spans[1..];
        assert_eq!(stages[0].start_ns, root.start_ns);
        assert_eq!(stages.last().unwrap().end_ns, root.end_ns);
        for pair in stages.windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns);
        }
        assert!(stages.iter().all(|s| s.request == 7 && s.parent == Some(0)));
        assert_eq!(root.parent, None);
    }
}

//! The one-shot workloads: one client explaining the same query cold,
//! request after request (closed loop), over a dataset loaded once.

use std::time::{Duration, Instant};

use nexus_core::{ExplainRequest, Explanation, Nexus, NexusOptions, RunArtifacts, RunControl};
use nexus_query::AggregateQuery;

use crate::pipeline::{self, median, signature, time_us, Facts};
use crate::report::Report;
use crate::stats::{percentile, sorted, tail_percentile};
use crate::trace::Tracer;
use crate::workload::{self, Inputs, Loaded, OneShot, RunSpec};

/// Set-up repeats at least this often and for at least this long; its
/// median is `setup_s`.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_TIME: Duration = Duration::from_millis(500);
/// Requests per timed run, however slow each is.
const MIN_REQUESTS: usize = 3;
/// Requests per run under `--quick`.
const QUICK_REQUESTS: usize = 2;

pub fn run(
    spec: &RunSpec,
    inputs: &Inputs,
    shot: &OneShot,
    report: &mut Report,
) -> Result<(), String> {
    let loaded = set_up(inputs, report)?;
    let run = OneShotRun {
        inputs,
        loaded: &loaded,
        options: workload::options(),
        sql: shot.sql,
    };
    let mut checker = Checker {
        shot,
        reference: None,
    };
    // One explain before the clock starts: its reply, checked against the
    // ground truth, is the reference every timed reply must equal, and the
    // allocator and page tables settle before anything is timed.
    let query = run.parse()?;
    let (reply, _) = run.explain(&query, None);
    let outcome = reply.and_then(|(e, _)| checker.check(&e, report));
    report.attempt(outcome.clone());
    outcome?;

    let mut tracer = spec.traced.then(Tracer::new);
    let mut latencies = Vec::new();
    let (mut parse_us, mut facts) = (Vec::new(), Vec::new());
    let budget = spec.budget(MIN_REQUESTS, QUICK_REQUESTS).start();
    let started = Instant::now();
    let mut sent = 0;
    while budget.more(sent) {
        sent += 1;
        let (query, us) = time_us(|| run.parse());
        let outcome = query.and_then(|q| {
            let traced = tracer.as_mut().map(|t| (t, sent as u64));
            let (reply, seconds) = run.explain(&q, traced);
            let (e, artifacts) = reply?;
            checker.check(&e, report)?;
            latencies.push(us / 1e6 + seconds);
            parse_us.push(us);
            facts.push(Facts::of(&e, &artifacts.mcimr, seconds));
            Ok(())
        });
        report.attempt(outcome);
    }
    let window = started.elapsed().as_secs_f64();

    let Some(tracer) = tracer else {
        let s = sorted(&latencies);
        let n = s.len();
        let p50 = percentile(&s, 50.0).unwrap_or(0.0);
        report.set("explain_p50_s", p50, "s", n);
        report.set("request_p50_ms", p50 * 1e3, "ms", n);
        report.set("throughput_rps", n as f64 / window, "req/s", n);
        if let Some(p) = tail_percentile(n) {
            let tail = percentile(&s, p).unwrap_or(0.0);
            report.set(&format!("explain_p{p}_s"), tail, "s", n);
        }
        return Ok(());
    };
    pipeline::layer_metrics(report, &tracer, &facts);
    report.set("query.parse_us", median(&parse_us), "us", parse_us.len());
    let path = spec
        .out
        .join(format!("spans-{}.json", spec.workload.name()));
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads the dataset from its serialized forms, repeatedly; keeps the
/// last copy.
fn set_up(inputs: &Inputs, report: &mut Report) -> Result<Loaded, String> {
    let (mut total, mut decode, mut kg) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut loaded = None;
    while total.len() < MIN_SETUPS || started.elapsed() < MIN_SETUP_TIME {
        drop(loaded.take()); // release the previous copy before the next load
        let t = Instant::now();
        let (l, decode_s, kg_s) = workload::load(inputs)?;
        total.push(t.elapsed().as_secs_f64());
        decode.push(decode_s);
        kg.push(kg_s);
        loaded = Some(l);
    }
    report.set("setup_s", median(&total), "s", total.len());
    report.set("store.decode_s", median(&decode), "s", decode.len());
    report.set("kg.load_s", median(&kg), "s", kg.len());
    report.set("store.bytes", inputs.table_nxcol.len() as f64, "bytes", 1);
    Ok(loaded.expect("at least one set-up ran"))
}

/// Checks every reply: the first must select at least one ground-truth
/// confounder, and every later one must be bit-identical to it.
struct Checker<'a> {
    shot: &'a OneShot,
    reference: Option<Vec<u8>>,
}

impl Checker<'_> {
    fn check(&mut self, e: &Explanation, report: &mut Report) -> Result<(), String> {
        let sig = signature(e);
        match &self.reference {
            Some(reference) if *reference == sig => Ok(()),
            Some(_) => Err(format!(
                "explanation {:?} differs from the run's first",
                e.names()
            )),
            None => {
                let names = e.attributes.iter().map(|a| a.name.as_str());
                let precision = pipeline::gt_precision(names, self.shot.ground_truth);
                report.set("gt_precision", precision, "fraction", 1);
                report.set("explained_frac", e.explained_fraction(), "fraction", 1);
                if precision == 0.0 {
                    return Err(format!(
                        "no ground-truth confounder selected: {:?}",
                        e.names()
                    ));
                }
                self.reference = Some(sig);
                Ok(())
            }
        }
    }
}

struct OneShotRun<'a> {
    inputs: &'a Inputs,
    loaded: &'a Loaded,
    options: NexusOptions,
    sql: &'static str,
}

impl OneShotRun<'_> {
    fn parse(&self) -> Result<AggregateQuery, String> {
        nexus_query::parse(self.sql).map_err(|e| format!("parse: {e}"))
    }

    /// One cold explain through the library's entry point, as request `id`
    /// of `tracer` when one is given. Returns the reply and its seconds,
    /// timed up to the explanation's arrival.
    fn explain(
        &self,
        query: &AggregateQuery,
        tracer: Option<(&mut Tracer, u64)>,
    ) -> (Result<(Explanation, RunArtifacts), String>, f64) {
        let request = ExplainRequest::new()
            .table(&self.loaded.table)
            .knowledge_graph(&self.loaded.kg)
            .extraction_columns(self.inputs.extraction_columns.iter().cloned())
            .query(query);
        let timed = |ctl: RunControl<'_>| {
            let t = Instant::now();
            let run = Nexus::new(self.options.clone()).run_controlled(&request, ctl);
            (run, t.elapsed().as_secs_f64())
        };
        let (run, seconds) = match tracer {
            Some((tracer, id)) => tracer.request(id, timed),
            None => timed(RunControl::none()),
        };
        (run.map_err(|e| format!("pipeline: {e}")), seconds)
    }
}

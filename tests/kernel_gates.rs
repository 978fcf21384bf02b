//! Counting-kernel and memo gates on four fixed-seed workloads.
//!
//! Each workload runs the whole explain pipeline three times at 2
//! threads: a plain pass, then a memo-cold and a memo-warm pass that share
//! one `MemoStore`. The plain pass's output signature must hash to a
//! golden digest, so a change that moves every output bit the same way —
//! which memo-off = memo-on cannot see — fails here. The other assertions
//! read the per-pass kernel counter deltas (`Explanation::stats.kernel`)
//! and the shared store's own counts (`MemoStore::counts`), never
//! wall-clock, so they hold on any machine. The kernel counters are
//! process-global; this binary has one test, so no concurrent run can
//! pollute a pass's delta.
//!
//! `hash_ops == 0` is a property of three of these workloads, not of the
//! kernel: every joint they count fits the dense policy. A key space past
//! `DENSE_LIMIT`, or past 32 cells per counted row, goes hashed by design:
//! FL-Q4 at 20k rows over 20 cities (the benchmark's fl-wide shape)
//! hashes three MCIMR backstop joints (see DESIGN.md §6d and
//! `nexus-info`'s counter tests), and its exact `hash_ops` is gated.
//!
//! Bit-identity of the kernel against naive counts is tested per call,
//! next to the code (`nexus-info`'s counter tests and `nexus-core`'s
//! engine `kernel_equivalence` module).

use std::fmt::Write as _;
use std::sync::Arc;

use nexus::core::{ExplainRequest, Explanation, MemoHandle, MemoStore, RunControl};
use nexus::datagen::flights::{self, FlightsConfig};
use nexus::datagen::synth::{self, SynthConfig, SYNTH_WORKLOADS};
use nexus::datagen::{Dataset, BENCH_QUERIES};
use nexus::table::Fnv64;
use nexus::{parse, Nexus, NexusOptions, Parallelism};

/// Every user-visible output of an explanation, f64s as raw bits, so
/// "equal" means bit-identical.
fn signature(e: &Explanation) -> String {
    let mut s = format!(
        "initial={:016x};explained={:016x};stopped={};candidates={}/{}/{};biased={};",
        e.initial_cmi.to_bits(),
        e.explained_cmi.to_bits(),
        e.stopped_by_responsibility,
        e.stats.n_candidates_initial,
        e.stats.n_after_offline,
        e.stats.n_after_online,
        e.stats.n_biased,
    );
    for a in &e.attributes {
        let _ = write!(
            s,
            "name={};source={:?};resp={:016x};weighted={};",
            a.name,
            a.source,
            a.responsibility.to_bits(),
            a.weighted
        );
    }
    s
}

fn explain(dataset: &Dataset, sql: &str, memo: Option<&MemoHandle>) -> Explanation {
    let query = parse(sql).expect("workload SQL parses");
    let options = NexusOptions::builder()
        .parallelism(Parallelism::Fixed(2))
        .build()
        .expect("valid options");
    let request = ExplainRequest::new()
        .table(&dataset.table)
        .knowledge_graph(&dataset.kg)
        .extraction_columns(dataset.extraction_columns.clone())
        .query(&query);
    let ctl = match memo {
        Some(handle) => RunControl::none().with_memo(handle),
        None => RunControl::none(),
    };
    Nexus::new(options)
        .run_controlled(&request, ctl)
        .expect("pipeline runs")
        .0
}

/// FNV-1a of a [`signature`].
fn signature_digest(e: &Explanation) -> u64 {
    let mut h = Fnv64::new();
    h.write(signature(e).as_bytes());
    h.finish()
}

/// Runs the three passes of one workload and asserts every gate.
/// `hash_ops` is the plain pass's exact count of hashed accumulator
/// writes.
fn assert_gates(id: &str, dataset: &Dataset, sql: &str, golden: u64, hash_ops: u64) {
    let plain = explain(dataset, sql, None);
    assert_eq!(
        signature_digest(&plain),
        golden,
        "{id}: plain-pass output moved off its golden digest: {}",
        signature(&plain)
    );
    let k = &plain.stats.kernel;
    let rows = dataset.table.n_rows() as u64;

    // Hashing happens exactly where the dense policy says it must.
    assert_eq!(
        k.hash_ops, hash_ops,
        "{id}: hash ops on the kernel path: {k:?}"
    );
    // No build scans more than the table once.
    assert!(
        k.rows_scanned <= (k.dense_builds + k.sparse_builds) * rows,
        "{id}: rows scanned exceed one table pass per build: {k:?}"
    );
    assert!(plain.stats.pool_tasks > 0, "{id}: pool not engaged");
    // Run coalescing: dense accumulator writes strictly undercut rows.
    assert!(
        k.dense_ops < k.rows_scanned,
        "{id}: dense writes not coalesced: {k:?}"
    );

    // Repeated workload over one memo store: cold populates, warm replays.
    let store = Arc::new(MemoStore::new(0));
    let handle = MemoHandle::new(Arc::clone(&store), dataset.table.fingerprint());
    let cold = explain(dataset, sql, Some(&handle));
    let mc = store.counts();
    let warm = explain(dataset, sql, Some(&handle));
    let mw = store.counts();
    let sum = |a: &[u64]| a.iter().sum::<u64>();
    assert!(
        sum(&mw.hits) > sum(&mc.hits) && mw.misses == mc.misses && sum(&mc.inserts) > 0,
        "{id}: memo not engaged: after cold {mc:?}, after warm {mw:?}"
    );
    let (kc, kw) = (&cold.stats.kernel, &warm.stats.kernel);
    let expected = signature(&plain);
    assert_eq!(signature(&cold), expected, "{id}: memo-cold output differs");
    assert_eq!(signature(&warm), expected, "{id}: memo-warm output differs");
    // Memo hits shed counted work: no more pool tasks, and strictly fewer
    // pool tasks (the contingency builds) or rows scanned.
    let (tc, tw) = (cold.stats.pool_tasks, warm.stats.pool_tasks);
    assert!(
        tw <= tc && (tw < tc || kw.rows_scanned < kc.rows_scanned),
        "{id}: warm pass did not shed work: pool tasks {tc} -> {tw}, rows {} -> {}",
        kc.rows_scanned,
        kw.rows_scanned
    );
}

fn synth_workload(id: &str, n_rows: usize) -> (Dataset, &'static str) {
    let w = SYNTH_WORKLOADS
        .iter()
        .find(|w| w.id == id)
        .expect("known synthetic workload");
    let cfg = SynthConfig {
        n_rows,
        bias: w.bias,
        ..SynthConfig::default()
    };
    (synth::generate(&cfg), w.sql)
}

#[test]
fn kernel_and_memo_gates_hold_on_fixed_workloads() {
    let fl_q1 = BENCH_QUERIES
        .iter()
        .find(|q| q.id == "FL-Q1")
        .expect("FL-Q1 is a paper query");
    let flights = flights::generate(&FlightsConfig {
        n_rows: 5_000,
        n_cities: 40,
        ..FlightsConfig::default()
    });
    assert_gates("FL-Q1", &flights, fl_q1.sql, 0xf19a_f043_0239_7bf6, 0);

    // 70k rows: above the candidate build's 2^16-row chunk size.
    for (id, golden) in [
        ("SYN-B1", 0x95c0_d74a_c7ef_1900),
        ("SYN-M1", 0x9b41_3423_cec0_e7f5),
    ] {
        let (dataset, sql) = synth_workload(id, 70_000);
        assert_gates(id, &dataset, sql, golden, 0);
    }

    let fl_q4 = BENCH_QUERIES
        .iter()
        .find(|q| q.id == "FL-Q4")
        .expect("FL-Q4 is a paper query");
    let fl_wide = flights::generate(&FlightsConfig {
        n_rows: 20_000,
        n_cities: 20,
        ..FlightsConfig::default()
    });
    assert_gates(
        "fl-wide",
        &fl_wide,
        fl_q4.sql,
        0x9f76_ea62_d9b6_dfda,
        59_995,
    );
}

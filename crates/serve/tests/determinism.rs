//! Serving determinism: the same request answered cold, from cache, and by
//! servers running the pipeline at different thread counts must produce
//! **byte-identical** explanation payloads. This extends the core
//! thread-count determinism suite across the serving layer — the property
//! the result cache's correctness rests on.

use nexus_core::Parallelism;
use nexus_datagen::{load, queries_for, DatasetKind, Scale};
use nexus_serve::wire::{CallOverrides, ExplainRequestWire, ExplanationReplyWire, Frame};
use nexus_serve::{Server, ServerOptions};

fn server_at(kind: DatasetKind, parallelism: Parallelism) -> Server {
    let d = load(kind, Scale::Small);
    let options = ServerOptions {
        nexus: nexus_core::NexusOptions::builder()
            .parallelism(parallelism)
            .build()
            .expect("valid options"),
        ..ServerOptions::default()
    };
    let server = Server::new(options);
    server
        .add_dataset("bench", d.table, d.kg, d.extraction_columns)
        .expect("dataset loads");
    server
}

fn submit(server: &Server, sql: &str) -> ExplanationReplyWire {
    let reply = server.handle(Frame::Explain(ExplainRequestWire {
        dataset: "bench".into(),
        sql: sql.into(),
        overrides: Default::default(),
    }));
    match reply {
        Frame::Explanation(r) => r,
        other => panic!("expected an explanation, got {other:?}"),
    }
}

#[test]
fn cold_and_cached_replies_are_byte_identical() {
    let kind = DatasetKind::Covid;
    let sql = queries_for(kind)[0].sql;
    let server = server_at(kind, Parallelism::Fixed(2));

    let cold = submit(&server, sql);
    assert!(!cold.stats.cache_hit, "first request must miss");
    assert!(
        cold.stats.scored_tasks > 0,
        "cold run must score candidates on the pool"
    );

    let hot = submit(&server, sql);
    assert!(hot.stats.cache_hit, "second request must hit");
    assert_eq!(
        hot.stats.scored_tasks, 0,
        "cache hit must skip candidate scoring entirely"
    );
    assert_eq!(
        cold.explanation, hot.explanation,
        "{kind:?}: cached payload must be byte-identical to the cold run"
    );
}

#[test]
fn replies_are_byte_identical_across_thread_counts() {
    for kind in [DatasetKind::Covid, DatasetKind::So] {
        let sql = queries_for(kind)[0].sql;
        let one = submit(&server_at(kind, Parallelism::Fixed(1)), sql);
        let eight = submit(&server_at(kind, Parallelism::Fixed(8)), sql);
        assert!(!one.stats.cache_hit && !eight.stats.cache_hit);
        assert_eq!(
            one.explanation, eight.explanation,
            "{kind:?}: explanation payload must not depend on the pool width"
        );
    }
}

#[test]
fn equivalent_queries_share_a_cache_entry() {
    // The cache key is the canonical signature, so semantically identical
    // predicate spellings (commuted AND operands) hit the same entry.
    let d = load(DatasetKind::So, Scale::Small);
    let has = |c: &str| d.table.column(c).is_ok();
    assert!(has("Gender") && has("Salary") && has("Country"));
    let server = server_at(DatasetKind::So, Parallelism::Fixed(2));
    let a =
        "SELECT Country, avg(Salary) FROM SO WHERE Gender = 'm' AND Salary > 10 GROUP BY Country";
    let b =
        "SELECT Country, avg(Salary) FROM SO WHERE Salary > 10 AND Gender = 'm' GROUP BY Country";
    let cold = submit(&server, a);
    let hot = submit(&server, b);
    assert!(!cold.stats.cache_hit);
    assert!(
        hot.stats.cache_hit,
        "commuted WHERE must hit the same entry"
    );
    assert_eq!(cold.explanation, hot.explanation);
}

#[test]
fn different_queries_do_not_collide() {
    let server = server_at(DatasetKind::Covid, Parallelism::Fixed(2));
    let queries = queries_for(DatasetKind::Covid);
    let a = submit(&server, queries[0].sql);
    let b = submit(&server, queries[1].sql);
    assert!(!a.stats.cache_hit && !b.stats.cache_hit);
    // Replay both — each must hit its own entry.
    assert!(submit(&server, queries[0].sql).stats.cache_hit);
    assert!(submit(&server, queries[1].sql).stats.cache_hit);
}

#[test]
fn memoized_warm_run_is_byte_identical_with_fewer_pool_tasks() {
    // Two servers answer the same k=1 query: one cold, one whose memo was
    // warmed by a k=2 request first (a different options fingerprint, so
    // the warm request misses the *result* cache and re-runs the
    // pipeline over memoized sub-computations). The warm reply must be
    // byte-identical to the cold one while scheduling strictly fewer
    // pool tasks — the counter-asserted proof that memoization changed
    // the work, not the answer.
    let kind = DatasetKind::Covid;
    let sql = queries_for(kind)[0].sql;
    let submit_k = |server: &Server, k: u32| {
        let reply = server.handle(Frame::Explain(ExplainRequestWire {
            dataset: "bench".into(),
            sql: sql.into(),
            overrides: CallOverrides {
                top_k: Some(k),
                ..Default::default()
            },
        }));
        match reply {
            Frame::Explanation(r) => r,
            other => panic!("expected an explanation, got {other:?}"),
        }
    };

    let reference = server_at(kind, Parallelism::Fixed(2));
    let cold = submit_k(&reference, 1);
    assert!(!cold.stats.cache_hit);

    let warmed = server_at(kind, Parallelism::Fixed(2));
    let prime = submit_k(&warmed, 2);
    assert!(!prime.stats.cache_hit);
    let warm = submit_k(&warmed, 1);
    assert!(
        !warm.stats.cache_hit,
        "different overrides must miss the result cache"
    );
    assert_eq!(
        warm.explanation, cold.explanation,
        "memoized warm run must be byte-identical to a cold run"
    );
    assert!(
        warm.stats.scored_tasks < cold.stats.scored_tasks,
        "warm run must skip counting pool tasks ({} vs cold {})",
        warm.stats.scored_tasks,
        cold.stats.scored_tasks
    );

    let metric = |name: &str| warmed.metric(name).expect("registered metric");
    assert!(metric("memo.hits") > 0, "the warm run must hit the memo");
    assert!(
        metric("memo.inserts") > 0,
        "the cold run must populate the memo"
    );
    assert!(
        metric("memo.resident_bytes") > 0,
        "published entries must be charged against the budget"
    );
}

//! One memo across requests: a served miss on a candidate set the server
//! has already explained reuses every per-candidate value — stats,
//! calibrated CMI, MI pairs and IPW weights — from the server's
//! `MemoStore`, and its bytes still equal a memo-less one-shot explain.
//!
//! The warm query is FL-Q3-shaped (one state's flights, grouped by
//! origin city) over a small Flights table whose selection-bias detector
//! flags at least one candidate, so the IPW weights are exercised too.
//!
//! The counting kernel's counters are process-global, so every test that
//! reads kernel work around a request serializes on [`KERNEL_LOCK`]: no
//! concurrent test's explain can land in a delta.

use std::sync::Mutex;

use nexus::core::MemoKind;
use nexus::datagen::flights::{self, FlightsConfig};
use nexus::datagen::Dataset;
use nexus::info::{kernel, KernelSnapshot};
use nexus::serve::wire::{CallOverrides, ExplainRequestWire, Frame, TraceRequestWire};
use nexus::serve::{explanation_to_wire, Server, ServerOptions};
use nexus::{parse, Nexus, NexusOptions, Parallelism};

static KERNEL_LOCK: Mutex<()> = Mutex::new(());

const SQL: &str = "SELECT Origin_city, avg(Departure_delay) FROM Flights \
                   WHERE Origin_state = 'CA' GROUP BY Origin_city";

fn options() -> NexusOptions {
    NexusOptions::builder()
        .parallelism(Parallelism::Fixed(2))
        .build()
        .expect("valid options")
}

fn dataset() -> Dataset {
    flights::generate(&FlightsConfig {
        n_rows: 20_000,
        n_cities: 60,
        ..FlightsConfig::default()
    })
}

/// A server holding a second copy of [`dataset`] (generation is
/// deterministic).
fn server() -> Server {
    let server = Server::new(ServerOptions {
        nexus: options(),
        ..ServerOptions::default()
    });
    let data = dataset();
    server
        .add_dataset("flights", data.table, data.kg, data.extraction_columns)
        .expect("dataset loads");
    server
}

/// One served request: its explanation bytes, its kernel work, and the
/// work count (kernel builds) of its `select` span.
struct Served {
    bytes: Vec<u8>,
    kernel: KernelSnapshot,
    select_builds: u64,
}

fn serve(server: &Server, overrides: CallOverrides) -> Served {
    let before = kernel::counters().snapshot();
    let reply = server.handle(Frame::Explain(ExplainRequestWire {
        dataset: "flights".into(),
        sql: SQL.into(),
        overrides,
    }));
    let kernel = kernel::counters().snapshot().delta(&before);
    let bytes = match reply {
        Frame::Explanation(r) => {
            assert!(
                !r.stats.cache_hit,
                "every request here is a result-cache miss"
            );
            r.explanation
        }
        other => panic!("expected an explanation, got {other:?}"),
    };
    let select_builds = match server.handle(Frame::TraceRequest(TraceRequestWire { last: 1 })) {
        Frame::TraceReply(r) => {
            r.traces[0]
                .spans
                .iter()
                .find(|s| s.name == "select")
                .expect("a select span")
                .count
        }
        other => panic!("expected a trace reply, got {other:?}"),
    };
    Served {
        bytes,
        kernel,
        select_builds,
    }
}

/// The memo-less one-shot explain of [`SQL`] under `options`, encoded as
/// the server encodes its reply.
fn one_shot(data: &Dataset, options: NexusOptions) -> Vec<u8> {
    let query = parse(SQL).expect("SQL parses");
    let e = Nexus::new(options)
        .explain(&data.table, &data.kg, &data.extraction_columns, &query)
        .expect("one-shot explain");
    explanation_to_wire(&e).encode()
}

/// A server-side memo counter.
fn memo(server: &Server, what: &str, kind: MemoKind) -> u64 {
    let name = format!("memo.{what}.{}", kind.label());
    server
        .metric(&name)
        .unwrap_or_else(|| panic!("{name} exported"))
}

const NEW_KINDS: [MemoKind; 4] = [
    MemoKind::Stats,
    MemoKind::Calibrated,
    MemoKind::MiPair,
    MemoKind::IpwWeights,
];

#[test]
fn a_served_miss_on_a_known_set_refits_and_redraws_nothing() {
    let _lock = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let server = server();
    let k = options().max_explanation_size as u32;

    // Cold: the first explain of the set fits and calibrates.
    let cold = serve(&server, CallOverrides::default());
    assert_eq!(cold.bytes, one_shot(&data, options()));
    assert!(cold.kernel.ipw_fits > 0, "no candidate was IPW-flagged");
    assert!(cold.kernel.calib_samples > 0);
    let selected = nexus::serve::wire::ExplanationWire::decode(&cold.bytes)
        .expect("reply decodes")
        .attributes
        .len() as u32;
    assert!(selected > 0, "the warm query explains nothing");

    // The same set under a new `top_k`, twice: both stop where the cold
    // run stopped (or earlier), so every value they need is memoized.
    let new_ks = if selected < k {
        [k + 1, k + 2]
    } else {
        [k - 1, k - 2]
    };
    let misses: Vec<u64> = NEW_KINDS
        .iter()
        .map(|&m| memo(&server, "misses", m))
        .collect();
    let with_top_k = |top_k| CallOverrides {
        top_k: Some(top_k),
        ..CallOverrides::default()
    };
    let warm = serve(&server, with_top_k(new_ks[0]));
    let warm_again = serve(&server, with_top_k(new_ks[1]));
    for (served, top_k) in [(&warm, new_ks[0]), (&warm_again, new_ks[1])] {
        let mut opts = options();
        opts.max_explanation_size = top_k as usize;
        assert_eq!(served.bytes, one_shot(&data, opts), "top_k {top_k}");
        assert_eq!(
            served.kernel.calib_samples, 0,
            "top_k {top_k} redrew calibration nulls"
        );
        assert_eq!(
            served.kernel.ipw_fits, 0,
            "top_k {top_k} refitted IPW models"
        );
    }
    for (&kind, &before) in NEW_KINDS.iter().zip(&misses) {
        assert_eq!(
            memo(&server, "misses", kind),
            before,
            "{kind:?} missed on a known set"
        );
        assert!(memo(&server, "hits", kind) > 0, "{kind:?} never hit");
    }
    // No MI pair was computed, so what `select` still counts is the
    // responsibility test's own passes: the same for both warm requests,
    // and fewer than the cold run's.
    assert_eq!(warm.select_builds, warm_again.select_builds);
    assert!(
        warm.select_builds < cold.select_builds,
        "select builds {} -> {}",
        cold.select_builds,
        warm.select_builds
    );

    // Online pruning toggled: a different candidate set, so different
    // covariates for the selection models. The memo must not hand this
    // run the pruned runs' weights.
    let unpruned = serve(
        &server,
        CallOverrides {
            online_pruning: Some(false),
            ..CallOverrides::default()
        },
    );
    let mut opts = options();
    opts.online_pruning = false;
    assert_eq!(unpruned.bytes, one_shot(&data, opts));
}

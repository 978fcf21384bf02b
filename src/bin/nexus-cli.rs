//! The `nexus-cli` command-line tool: explain a confounded correlation in
//! a CSV file using a knowledge graph (triple file) or a data lake (a
//! directory of CSVs) as the knowledge source — one-shot, or through a
//! resident explanation server.
//!
//! ```text
//! # One-shot explanation:
//! nexus-cli explain --table data.csv --kg knowledge.tsv \
//!           --extract Country --extract Continent \
//!           --sql "SELECT Country, avg(Salary) FROM t GROUP BY Country" \
//!           [--k 5] [--hops 1] [--threads N] [--subgroups] [--no-pruning]
//!
//! # Resident server on a Unix socket (or --tcp 127.0.0.1:PORT):
//! nexus-cli serve --socket /tmp/nexus.sock --table data.csv \
//!           --kg knowledge.tsv --extract Country [--name salaries]
//!
//! # Submit queries to it:
//! nexus-cli submit --socket /tmp/nexus.sock --sql "SELECT …" [--dataset salaries]
//! nexus-cli submit --socket /tmp/nexus.sock --stats      # sorted `name value` metrics
//! nexus-cli submit --socket /tmp/nexus.sock --shutdown
//!
//! # Pack a CSV into the NXCOL columnar store and look inside it:
//! nexus-cli pack --table data.csv --out data.nxcol
//! nexus-cli inspect --store data.nxcol
//!
//! # Serve straight from the store (lazy materialization, LRU-bounded):
//! nexus-cli serve --socket /tmp/nexus.sock --store data.nxcol \
//!           --kg knowledge.tsv --extract Country [--max-store-bytes N]
//!
//! # Manage the dataset registry of a running server:
//! nexus-cli datasets --socket /tmp/nexus.sock --list
//! nexus-cli datasets --socket /tmp/nexus.sock --load salaries \
//!           --store data.nxcol --kg knowledge.tsv --extract Country
//! nexus-cli datasets --socket /tmp/nexus.sock --evict salaries
//! ```
//!
//! The legacy flag-only form (`nexus-cli --table … --sql …`) still works
//! and means `explain`.
//!
//! Deterministic explanation output goes to **stdout** (identical between
//! `explain` and `submit` for the same inputs — scriptable and diffable);
//! timings, cache statistics, and progress go to **stderr**.

use std::process::exit;

use nexus::core::{unexplained_subgroups, PipelineStats, SubgroupOptions};
use nexus::kg::KnowledgeGraph;
use nexus::lake::{DataLake, LakeOptions};
use nexus::serve::wire::{
    error_code, read_envelope, Envelope, ExplanationWire, Frame, HelloWire, MetricWire,
    ServeStatsWire, TraceWire, MAX_VERSION,
};
use nexus::serve::{
    explanation_to_wire, ClientError, Endpoint, ExplainCall, RetryPolicy, Server, ServerOptions,
    Session,
};
use nexus::table::{read_csv_path, Table};
use nexus::telemetry::MetricKind;
use nexus::{parse, ExplainRequest, Nexus, NexusOptions};

fn usage() -> ! {
    eprintln!(
        "usage:\n\
         \x20 nexus-cli explain --table <csv> (--kg <triples.tsv> | --lake <dir>) \
         --extract <column>... --sql <query>\n\
         \x20         [--k N] [--hops N] [--threads N] [--subgroups] [--no-pruning]\n\
         \x20 nexus-cli serve (--socket <path> | --tcp <addr>) \
         (--table <csv> (--kg <triples.tsv> | --lake <dir>) | --store <nxcol> [--kg <triples.tsv>]) \
         --extract <column>...\n\
         \x20         [--name <dataset>] [--k N] [--hops N] [--threads N] [--no-pruning] \
         [--cache N] [--max-concurrent N]\n\
         \x20         [--max-conns N] [--io-timeout-ms N] [--drain-timeout-ms N] \
         [--max-store-bytes N] [--max-memo-bytes N]\n\
         \x20 nexus-cli pack --table <csv> --out <nxcol>\n\
         \x20 nexus-cli inspect --store <nxcol>\n\
         \x20 nexus-cli datasets (--socket <path> | --tcp <addr>) \
         (--list | --load <name> --store <nxcol> [--kg <triples.tsv>] [--extract <column>...] \
         | --evict <name>)\n\
         \x20 nexus-cli submit (--socket <path> | --tcp <addr>) --sql <query> \
         [--dataset <name>] [--retries N] [--timeout-ms N]\n\
         \x20         [--pipeline N [--cancel] [--vary-topk]] [--trace] | --shutdown | --ping | --stats\n\
         \x20         (one NEXUSRPC v2 session per run; --retries N retries a busy server at \
         connect; --stats prints the server's sorted `name value` metric lines to stderr)\n\
         \x20 nexus-cli metrics (--socket <path> | --tcp <addr>)\n\
         \x20 nexus-cli trace (--socket <path> | --tcp <addr>) [--last N]\n\
         \x20 nexus-cli abuse (--socket <path> | --tcp <addr>) \
         --mode (stall | overlimit | busy)"
    );
    exit(2)
}

/// Flags shared by `explain` and `serve`: where the data lives and how the
/// pipeline runs.
#[derive(Default)]
struct DataArgs {
    table: String,
    /// An NXCOL store file serving as the table source instead of a CSV.
    store: Option<String>,
    kg: Option<String>,
    lake: Option<String>,
    extract: Vec<String>,
    k: usize,
    hops: usize,
    threads: usize,
    no_pruning: bool,
}

struct ExplainArgs {
    data: DataArgs,
    sql: String,
    subgroups: bool,
}

struct ServeArgs {
    data: DataArgs,
    socket: Option<String>,
    tcp: Option<String>,
    name: String,
    cache: usize,
    max_concurrent: usize,
    max_conns: usize,
    io_timeout_ms: u64,
    drain_timeout_ms: u64,
    /// Registry byte budget for resident datasets (0 = unbounded).
    max_store_bytes: u64,
    /// Sub-query memo byte budget override (`Some(0)` = unbounded).
    max_memo_bytes: Option<u64>,
    /// Trace-ring capacity override (`Some(0)` disables tracing).
    trace_capacity: Option<usize>,
}

struct PackArgs {
    table: String,
    out: String,
}

struct DatasetsArgs {
    socket: Option<String>,
    tcp: Option<String>,
    load: Option<String>,
    evict: Option<String>,
    list: bool,
    store: Option<String>,
    kg: Option<String>,
    extract: Vec<String>,
}

struct SubmitArgs {
    socket: Option<String>,
    tcp: Option<String>,
    dataset: String,
    sql: String,
    shutdown: bool,
    ping: bool,
    stats: bool,
    retries: usize,
    timeout_ms: u64,
    /// `> 0`: open a v2 session and keep this many copies of the query
    /// in flight over one connection.
    pipeline: usize,
    /// Cancel the last pipelined request mid-flight (v2 smoke).
    cancel: bool,
    /// Give pipelined request `i` a `top_k` override of `i + 1`:
    /// overlapping-but-distinct queries that share every sub-computation
    /// without sharing a result-cache entry (the memo coalescing smoke).
    vary_topk: bool,
    /// Fetch and print this request's span trace to stderr after the
    /// reply (stdout stays diffable against a plain submit).
    trace: bool,
}

/// A self-contained misbehaving client, used by the CI abuse smoke to
/// prove governance replies without hand-rolled netcat scripting.
struct AbuseArgs {
    socket: Option<String>,
    tcp: Option<String>,
    mode: String,
}

enum Command {
    Explain(ExplainArgs),
    Serve(ServeArgs),
    Submit(SubmitArgs),
    Abuse(AbuseArgs),
    Pack(PackArgs),
    Inspect {
        store: String,
    },
    Datasets(DatasetsArgs),
    /// Prometheus text exposition of the server's metrics snapshot.
    Metrics {
        socket: Option<String>,
        tcp: Option<String>,
    },
    /// Span trees of the last N traced requests.
    Trace {
        socket: Option<String>,
        tcp: Option<String>,
        last: usize,
    },
}

fn parse_command() -> Command {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage()
    }
    let sub = if argv[0].starts_with("--") {
        // Legacy flag-only form means `explain`.
        "explain".to_string()
    } else {
        argv.remove(0)
    };

    let mut data = DataArgs {
        k: 5,
        hops: 1,
        ..DataArgs::default()
    };
    let mut sql = String::new();
    let mut subgroups = false;
    let mut socket = None;
    let mut tcp = None;
    let mut name = "default".to_string();
    let mut dataset = "default".to_string();
    let mut cache = 256;
    let mut max_concurrent = 0usize;
    let mut max_conns = 0usize;
    let mut io_timeout_ms = 0u64;
    let mut drain_timeout_ms = 0u64;
    let mut retries = 0usize;
    let mut timeout_ms = 0u64;
    let mut pipeline = 0usize;
    let mut cancel = false;
    let mut vary_topk = false;
    let mut trace = false;
    let mut last = 8usize;
    let mut trace_capacity: Option<usize> = None;
    let mut mode = String::new();
    let (mut shutdown, mut ping, mut stats) = (false, false, false);
    let mut out = String::new();
    let mut max_store_bytes = 0u64;
    let mut max_memo_bytes: Option<u64> = None;
    let mut load = None;
    let mut evict = None;
    let mut list = false;

    let mut i = 0;
    let value = |i: &mut usize, argv: &[String]| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let number = |i: &mut usize, argv: &[String]| -> usize {
        value(i, argv).parse().unwrap_or_else(|_| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--table" => data.table = value(&mut i, &argv),
            "--store" => data.store = Some(value(&mut i, &argv)),
            "--kg" => data.kg = Some(value(&mut i, &argv)),
            "--lake" => data.lake = Some(value(&mut i, &argv)),
            "--extract" => data.extract.push(value(&mut i, &argv)),
            "--sql" => sql = value(&mut i, &argv),
            "--k" => data.k = number(&mut i, &argv),
            "--hops" => data.hops = number(&mut i, &argv),
            "--threads" => data.threads = number(&mut i, &argv),
            "--subgroups" => subgroups = true,
            "--no-pruning" => data.no_pruning = true,
            "--socket" => socket = Some(value(&mut i, &argv)),
            "--tcp" => tcp = Some(value(&mut i, &argv)),
            "--name" => name = value(&mut i, &argv),
            "--dataset" => dataset = value(&mut i, &argv),
            "--cache" => cache = number(&mut i, &argv),
            "--max-concurrent" => max_concurrent = number(&mut i, &argv),
            "--max-conns" => max_conns = number(&mut i, &argv),
            "--io-timeout-ms" => io_timeout_ms = number(&mut i, &argv) as u64,
            "--drain-timeout-ms" => drain_timeout_ms = number(&mut i, &argv) as u64,
            "--retries" => retries = number(&mut i, &argv),
            "--timeout-ms" => timeout_ms = number(&mut i, &argv) as u64,
            "--pipeline" => pipeline = number(&mut i, &argv),
            "--cancel" => cancel = true,
            "--vary-topk" => vary_topk = true,
            "--trace" => trace = true,
            "--last" => last = number(&mut i, &argv),
            "--trace-capacity" => trace_capacity = Some(number(&mut i, &argv)),
            "--mode" => mode = value(&mut i, &argv),
            "--out" => out = value(&mut i, &argv),
            "--max-store-bytes" => max_store_bytes = number(&mut i, &argv) as u64,
            "--max-memo-bytes" => max_memo_bytes = Some(number(&mut i, &argv) as u64),
            "--load" => load = Some(value(&mut i, &argv)),
            "--evict" => evict = Some(value(&mut i, &argv)),
            "--list" => list = true,
            "--shutdown" => shutdown = true,
            "--ping" => ping = true,
            "--stats" => stats = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
        i += 1;
    }

    match sub.as_str() {
        "explain" => {
            if data.table.is_empty() || sql.is_empty() || data.extract.is_empty() {
                usage()
            }
            if data.kg.is_none() == data.lake.is_none() {
                eprintln!("exactly one of --kg or --lake is required");
                usage()
            }
            Command::Explain(ExplainArgs {
                data,
                sql,
                subgroups,
            })
        }
        "serve" => {
            if data.extract.is_empty() {
                usage()
            }
            if data.store.is_some() {
                // Store-backed: the table comes from an NXCOL file; a KG
                // triple file is optional, a lake is not supported.
                if !data.table.is_empty() || data.lake.is_some() {
                    eprintln!("--store replaces --table and cannot be combined with --lake");
                    usage()
                }
            } else {
                if data.table.is_empty() {
                    usage()
                }
                if data.kg.is_none() == data.lake.is_none() {
                    eprintln!("exactly one of --kg or --lake is required");
                    usage()
                }
            }
            if socket.is_none() == tcp.is_none() {
                eprintln!("exactly one of --socket or --tcp is required");
                usage()
            }
            Command::Serve(ServeArgs {
                data,
                socket,
                tcp,
                name,
                cache,
                max_concurrent,
                max_conns,
                io_timeout_ms,
                drain_timeout_ms,
                max_store_bytes,
                max_memo_bytes,
                trace_capacity,
            })
        }
        "submit" => {
            if socket.is_none() == tcp.is_none() {
                eprintln!("exactly one of --socket or --tcp is required");
                usage()
            }
            if !(shutdown || ping || stats) && sql.is_empty() {
                usage()
            }
            if pipeline > 0 && sql.is_empty() {
                eprintln!("--pipeline needs an --sql query to keep in flight");
                usage()
            }
            if vary_topk && pipeline == 0 {
                eprintln!("--vary-topk varies pipelined requests; it needs --pipeline");
                usage()
            }
            if cancel && pipeline < 2 {
                eprintln!("--cancel needs --pipeline of at least 2 (one request must hold the pipeline while another is cancelled)");
                usage()
            }
            if trace && pipeline > 0 {
                eprintln!("--trace is for single submits; --pipeline prints its own rpc summary");
                usage()
            }
            if trace && sql.is_empty() {
                eprintln!("--trace needs an --sql query to trace");
                usage()
            }
            Command::Submit(SubmitArgs {
                socket,
                tcp,
                dataset,
                sql,
                shutdown,
                ping,
                stats,
                retries,
                timeout_ms,
                pipeline,
                cancel,
                vary_topk,
                trace,
            })
        }
        "abuse" => {
            if socket.is_none() == tcp.is_none() {
                eprintln!("exactly one of --socket or --tcp is required");
                usage()
            }
            if !matches!(mode.as_str(), "stall" | "overlimit" | "busy") {
                eprintln!("--mode must be one of stall, overlimit, busy");
                usage()
            }
            Command::Abuse(AbuseArgs { socket, tcp, mode })
        }
        "pack" => {
            if data.table.is_empty() || out.is_empty() {
                eprintln!("pack needs --table <csv> and --out <nxcol>");
                usage()
            }
            Command::Pack(PackArgs {
                table: data.table,
                out,
            })
        }
        "inspect" => match data.store {
            Some(store) => Command::Inspect { store },
            None => {
                eprintln!("inspect needs --store <nxcol>");
                usage()
            }
        },
        "datasets" => {
            if socket.is_none() == tcp.is_none() {
                eprintln!("exactly one of --socket or --tcp is required");
                usage()
            }
            if load.is_some() && data.store.is_none() {
                eprintln!("--load needs --store <nxcol> (the path the server reads)");
                usage()
            }
            if load.is_none() && evict.is_none() {
                // Bare `datasets` means `--list`.
                list = true;
            }
            Command::Datasets(DatasetsArgs {
                socket,
                tcp,
                load,
                evict,
                list,
                store: data.store,
                kg: data.kg,
                extract: data.extract,
            })
        }
        "metrics" => {
            if socket.is_none() == tcp.is_none() {
                eprintln!("exactly one of --socket or --tcp is required");
                usage()
            }
            Command::Metrics { socket, tcp }
        }
        "trace" => {
            if socket.is_none() == tcp.is_none() {
                eprintln!("exactly one of --socket or --tcp is required");
                usage()
            }
            Command::Trace { socket, tcp, last }
        }
        other => {
            eprintln!("unknown subcommand {other:?}");
            usage()
        }
    }
}

/// A failed run and the process exit code that reports it: `1` for
/// local failures (bad input, dead socket, torn connection), `3` when
/// the server itself answered with an error frame — `Busy`, timeouts,
/// unknown datasets, bad queries — after any configured retries were
/// exhausted. Scripts can tell "my request was refused" from "I could
/// not even ask".
struct Failure {
    message: String,
    code: i32,
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure { message, code: 1 }
    }
}

/// Maps a client error to its exit code: server `Error` frames exit 3,
/// everything else is a local failure (exit 1).
fn client_failure(e: ClientError) -> Failure {
    let code = match &e {
        ClientError::Server(_) => 3,
        _ => 1,
    };
    Failure {
        message: e.to_string(),
        code,
    }
}

fn main() {
    let result: Result<(), Failure> = match parse_command() {
        Command::Explain(args) => run_explain(&args).map_err(Failure::from),
        Command::Serve(args) => run_serve(&args).map_err(Failure::from),
        Command::Submit(args) => run_submit(&args),
        Command::Abuse(args) => run_abuse(&args).map_err(Failure::from),
        Command::Pack(args) => run_pack(&args).map_err(Failure::from),
        Command::Inspect { store } => run_inspect(&store).map_err(Failure::from),
        Command::Datasets(args) => run_datasets(&args),
        Command::Metrics { socket, tcp } => run_metrics(&socket, &tcp),
        Command::Trace { socket, tcp, last } => run_trace(&socket, &tcp, last),
    };
    if let Err(failure) = result {
        eprintln!("nexus-cli: {}", failure.message);
        exit(failure.code)
    }
}

/// Loads the table, the knowledge source, and the extraction columns.
fn load_inputs(data: &DataArgs) -> Result<(Table, KnowledgeGraph, Vec<String>), String> {
    let table =
        read_csv_path(&data.table).map_err(|e| format!("failed to read {}: {e}", data.table))?;

    let kg = if let Some(path) = &data.kg {
        nexus::kg::read_kg_path(path).map_err(|e| format!("failed to read KG {path}: {e}"))?
    } else {
        let dir = data
            .lake
            .as_deref()
            .ok_or("exactly one of --kg or --lake is required")?;
        let mut lake = DataLake::new();
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("failed to read lake dir {dir}: {e}"))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("csv") {
                match read_csv_path(&path) {
                    Ok(t) => {
                        let name = path
                            .file_stem()
                            .and_then(|s| s.to_str())
                            .unwrap_or("table")
                            .to_string();
                        eprintln!("lake: loaded {name} ({} rows)", t.n_rows());
                        lake.add_table(name, t);
                    }
                    Err(e) => eprintln!("lake: skipping {}: {e}", path.display()),
                }
            }
        }
        // Build one KG keyed by the first extraction column.
        let first = data
            .extract
            .first()
            .ok_or("at least one --extract column is required")?;
        let col = table.column(first).map_err(|e| e.to_string())?;
        lake.to_knowledge_graph(col, &LakeOptions::default())
    };

    Ok((table, kg, data.extract.clone()))
}

fn build_options(data: &DataArgs) -> Result<NexusOptions, String> {
    NexusOptions::builder()
        .max_explanation_size(data.k)
        .hops(data.hops)
        .threads(data.threads)
        .offline_pruning(!data.no_pruning)
        .online_pruning(!data.no_pruning)
        .build()
        .map_err(|e| e.to_string())
}

/// Prints the deterministic part of an explanation to stdout — the exact
/// same lines whether it came from a one-shot run or a server reply, so
/// the two paths are diffable.
fn print_explanation(query_text: &str, e: &ExplanationWire) {
    println!("query: {query_text}");
    let explained = if e.initial_cmi <= 0.0 {
        0.0
    } else {
        (1.0 - e.explained_cmi / e.initial_cmi).clamp(0.0, 1.0)
    };
    println!(
        "I(O;T|C) = {:.4} bits → {:.4} bits after conditioning ({:.0}% explained)",
        e.initial_cmi,
        e.explained_cmi,
        100.0 * explained
    );
    if e.attributes.is_empty() {
        println!("no explanation found (no candidate earned calibrated credit)");
    } else {
        println!("explanation:");
        for attr in &e.attributes {
            println!(
                "  {:<32} responsibility {:.2}{}",
                attr.name,
                attr.responsibility,
                if attr.weighted { "  [IPW]" } else { "" }
            );
        }
    }
    println!(
        "candidates {} → {} (offline) → {} (online); {} selection-biased",
        e.n_candidates_initial, e.n_after_offline, e.n_after_online, e.n_biased
    );
}

/// The `timing:` stderr line: the total, the four stage times, and the
/// run's pool, whose counters cover the candidate build and every later
/// stage.
fn timing_line(s: &PipelineStats) -> String {
    format!(
        "timing: {:.2?} total (build {:.2?}, prune {:.2?}, bias {:.2?}, select {:.2?}); pool: {} thread(s), {} task(s), {:.2}x speedup",
        s.total(),
        s.stage_time(&["build", "assemble"]),
        s.stage_time(&["prune-offline", "prune-online"]),
        s.stage_time(&["bias"]),
        s.stage_time(&["select"]),
        s.threads,
        s.pool_tasks,
        s.parallel_speedup()
    )
}

fn run_explain(args: &ExplainArgs) -> Result<(), String> {
    let (table, kg, extract) = load_inputs(&args.data)?;
    let query = parse(&args.sql).map_err(|e| format!("failed to parse SQL: {e}"))?;
    let options = build_options(&args.data)?;

    let request = ExplainRequest::new()
        .table(&table)
        .knowledge_graph(&kg)
        .extraction_columns(extract)
        .query(&query);
    let nexus = Nexus::new(options);
    let (explanation, artifacts) = nexus
        .run_with_artifacts(&request)
        .map_err(|e| format!("pipeline failed: {e}"))?;

    print_explanation(&query.to_string(), &explanation_to_wire(&explanation));

    let s = &explanation.stats;
    eprintln!("{}", timing_line(s));
    eprintln!(
        "kernel: {} row(s) scanned, {} hash op(s), {} dense op(s), {} dense / {} sparse build(s)",
        s.kernel.rows_scanned,
        s.kernel.hash_ops,
        s.kernel.dense_ops,
        s.kernel.dense_builds,
        s.kernel.sparse_builds
    );
    eprintln!(
        "kernel v2: {} packed word(s) skipped",
        s.kernel.packed_words_skipped
    );
    eprintln!(
        "permutations: {} null sample(s), {} value(s) shuffled",
        s.kernel.permutations, s.kernel.perm_rows
    );

    if args.subgroups {
        let exclude: Vec<&str> = query
            .group_by
            .iter()
            .map(|s| s.as_str())
            .chain(query.outcome().map(|(_, o)| o))
            .collect();
        match unexplained_subgroups(
            &table,
            &artifacts.set,
            &artifacts.mcimr.selected,
            &exclude,
            &nexus.options,
            &SubgroupOptions {
                tau: 0.2 * explanation.initial_cmi.max(1.0),
                ..SubgroupOptions::default()
            },
        ) {
            Ok(groups) if groups.is_empty() => {
                println!("no unexplained subgroups above threshold")
            }
            Ok(groups) => {
                println!("unexplained subgroups:");
                for (i, g) in groups.iter().enumerate() {
                    println!(
                        "  {}. size {:>6}  score {:.3}  {}",
                        i + 1,
                        g.size,
                        g.score,
                        g.describe()
                    );
                }
            }
            Err(e) => eprintln!("subgroup search failed: {e}"),
        }
    }
    Ok(())
}

fn run_serve(args: &ServeArgs) -> Result<(), String> {
    let nexus = build_options(&args.data)?;
    let mut options = ServerOptions {
        nexus,
        cache_capacity: args.cache,
        max_resident_bytes: args.max_store_bytes,
        ..ServerOptions::default()
    };
    if args.max_concurrent > 0 {
        options.max_concurrent = args.max_concurrent;
    }
    if args.max_conns > 0 {
        options.max_connections = args.max_conns;
    }
    if args.io_timeout_ms > 0 {
        options.io_timeout = std::time::Duration::from_millis(args.io_timeout_ms);
    }
    if args.drain_timeout_ms > 0 {
        options.drain_timeout = std::time::Duration::from_millis(args.drain_timeout_ms);
    }
    if let Some(bytes) = args.max_memo_bytes {
        options.max_memo_bytes = bytes;
    }
    if let Some(capacity) = args.trace_capacity {
        options.trace_capacity = capacity;
    }

    let server = Server::new(options);
    if let Some(store_path) = &args.data.store {
        // Store-backed registration is lazy: the header is validated now,
        // the table materializes on the first request that needs it.
        let info = server
            .add_dataset_from_store(
                args.name.clone(),
                store_path,
                args.data.kg.clone().map(std::path::PathBuf::from),
                args.data.extract.clone(),
            )
            .map_err(|e| format!("failed to register store dataset: {e}"))?;
        eprintln!(
            "serve: dataset {:?} registered from {store_path} \
             ({} rows x {} cols, fingerprint {:#018x}); materialization is lazy",
            args.name, info.n_rows, info.n_cols, info.fingerprint
        );
    } else {
        let (table, kg, extract) = load_inputs(&args.data)?;
        server
            .add_dataset(args.name.clone(), table, kg, extract)
            .map_err(|e| format!("failed to load dataset: {e}"))?;
        eprintln!(
            "serve: dataset {:?} resident ({} KG entities); extraction columns {:?}",
            args.name,
            server.dataset_kg_entities(&args.name).unwrap_or(0),
            server
                .dataset_extraction_columns(&args.name)
                .unwrap_or_default(),
        );
    }

    if let Some(path) = &args.socket {
        eprintln!("serve: listening on unix socket {path}");
        server
            .serve_unix(path)
            .map_err(|e| format!("server failed: {e}"))?;
    } else if let Some(addr) = &args.tcp {
        server
            .serve_tcp(addr, |bound| eprintln!("serve: listening on tcp {bound}"))
            .map_err(|e| format!("server failed: {e}"))?;
    }
    eprintln!("serve: shut down cleanly");
    Ok(())
}

/// `pack`: reads a CSV and writes it as a deterministic NXCOL store file.
/// The summary goes to stdout — packing the same CSV twice prints the
/// same lines (and produces byte-identical files).
fn run_pack(args: &PackArgs) -> Result<(), String> {
    let table =
        read_csv_path(&args.table).map_err(|e| format!("failed to read {}: {e}", args.table))?;
    nexus::store::write_table_path(&table, &args.out)
        .map_err(|e| format!("failed to write {}: {e}", args.out))?;
    let info = nexus::store::inspect_path(&args.out)
        .map_err(|e| format!("failed to verify {}: {e}", args.out))?;
    println!(
        "packed {} rows x {} cols into {} bytes, fingerprint {:#018x}",
        info.n_rows, info.n_cols, info.file_bytes, info.fingerprint
    );
    Ok(())
}

/// `inspect`: validates an NXCOL file (magic, header, every section CRC)
/// and prints its layout to stdout.
fn run_inspect(store: &str) -> Result<(), String> {
    let info =
        nexus::store::inspect_path(store).map_err(|e| format!("failed to read {store}: {e}"))?;
    println!(
        "NXCOL v{}: {} rows x {} cols, {} bytes, fingerprint {:#018x}",
        info.version, info.n_rows, info.n_cols, info.file_bytes, info.fingerprint
    );
    for c in &info.columns {
        println!(
            "  {:<24} {:<7} {:<5} fingerprint {:#018x} {:>10} byte(s){}",
            c.name,
            c.dtype,
            c.encoding,
            c.fingerprint,
            c.section_bytes,
            if c.has_validity { "  [nulls]" } else { "" }
        );
    }
    Ok(())
}

fn endpoint(socket: &Option<String>, tcp: &Option<String>) -> Result<Endpoint, String> {
    match (socket, tcp) {
        (Some(path), None) => Ok(Endpoint::Unix(path.into())),
        (None, Some(addr)) => Ok(Endpoint::Tcp(addr.clone())),
        _ => Err("exactly one of --socket or --tcp is required".to_string()),
    }
}

fn connect_session(socket: &Option<String>, tcp: &Option<String>) -> Result<Session, Failure> {
    Session::connect(&endpoint(socket, tcp)?, &RetryPolicy::none()).map_err(client_failure)
}

/// `datasets`: registry management against a running server over one v2
/// session — load (lazy registration), evict, and list. The listing goes
/// to stdout and is deterministic for a given registry state.
fn run_datasets(args: &DatasetsArgs) -> Result<(), Failure> {
    let session = connect_session(&args.socket, &args.tcp)?;
    if let Some(name) = &args.load {
        let store = args
            .store
            .as_deref()
            .ok_or_else(|| Failure::from("--load needs --store <nxcol>".to_string()))?;
        let ack = session
            .load_dataset(name, store, args.kg.as_deref(), &args.extract)
            .map_err(client_failure)?;
        eprintln!(
            "datasets: {:?} registered from {store} (materialization is lazy, resident: {})",
            ack.name, ack.resident
        );
    }
    if let Some(name) = &args.evict {
        let ack = session.evict_dataset(name).map_err(client_failure)?;
        eprintln!(
            "datasets: {:?} evicted (resident: {})",
            ack.name, ack.resident
        );
    }
    if args.list {
        let entries = session.list_datasets().map_err(client_failure)?;
        if entries.is_empty() {
            println!("no datasets registered");
        }
        for d in &entries {
            println!(
                "{:<24} {:<10} {:>8} row(s) {:>10} byte(s) fingerprint {:#018x}",
                d.name,
                if d.resident { "resident" } else { "registered" },
                d.rows,
                d.store_bytes,
                d.fingerprint
            );
        }
    }
    Ok(())
}

/// The session every `submit` runs on: `--retries` retries a busy server
/// (or a refused or torn connection) at connect, and `--timeout-ms`
/// bounds every read and write after the handshake.
fn submit_session(args: &SubmitArgs) -> Result<Session, Failure> {
    let retry = RetryPolicy {
        max_retries: args.retries as u32,
        ..RetryPolicy::default()
    };
    let mut session =
        Session::connect(&endpoint(&args.socket, &args.tcp)?, &retry).map_err(client_failure)?;
    if args.timeout_ms > 0 {
        session
            .set_io_timeout(Some(std::time::Duration::from_millis(args.timeout_ms)))
            .map_err(client_failure)?;
    }
    Ok(session)
}

fn run_submit(args: &SubmitArgs) -> Result<(), Failure> {
    if args.pipeline > 0 {
        return run_pipeline(args);
    }
    if args.trace {
        return run_traced_submit(args);
    }
    let mut session = submit_session(args)?;
    if args.ping {
        session.ping().map_err(client_failure)?;
        eprintln!("pong");
    }
    if args.stats {
        // One sorted `name value` line per metric — the registry's
        // iteration order, so the output is stable and grep-friendly.
        for m in session.metrics().map_err(client_failure)? {
            eprintln!("{} {}", m.name, m.value);
        }
    }
    if !args.sql.is_empty() {
        // Parse locally too, so the echoed query line matches `explain`.
        let query = parse(&args.sql).map_err(|e| format!("failed to parse SQL: {e}"))?;
        let response = session
            .submit(&ExplainCall::new(&args.dataset, &args.sql))
            .and_then(|ticket| ticket.wait())
            .map_err(client_failure)?;
        print_explanation(&query.to_string(), &response.explanation);
        print_serve_stats(&response.stats);
    }
    if args.shutdown {
        shutdown(&mut session)?;
    }
    Ok(())
}

/// The `serve: cache hit|miss; …` stderr line of one served explain.
fn print_serve_stats(s: &ServeStatsWire) {
    eprintln!(
        "serve: {}; {} scored task(s); queued {:.3} ms; served in {:.3} ms",
        if s.cache_hit {
            "cache hit"
        } else {
            "cache miss"
        },
        s.scored_tasks,
        s.queue_nanos as f64 / 1e6,
        s.service_nanos as f64 / 1e6,
    );
}

/// `submit --shutdown`: asks the server to shut down over `session`.
fn shutdown(session: &mut Session) -> Result<(), Failure> {
    session.shutdown().map_err(client_failure)?;
    eprintln!("server acknowledged shutdown");
    Ok(())
}

/// One span tree, rendered for stderr: the `explain` root with its stage
/// children indented by depth, deterministic counts first, wall-clock
/// durations last (human-only — never grep the milliseconds).
fn trace_lines(t: &TraceWire) -> Vec<String> {
    let mut lines = vec![format!(
        "trace corr={}: {} span(s)",
        t.corr_id,
        t.spans.len()
    )];
    for s in &t.spans {
        lines.push(format!(
            "{:indent$}{} count={} {:.3} ms",
            "",
            s.name,
            s.count,
            s.duration_nanos as f64 / 1e6,
            indent = 2 * (s.depth as usize + 1)
        ));
    }
    lines
}

/// `submit --trace`: one v2 [`Session`] request, then its span tree. The
/// explanation goes to stdout exactly like a plain submit (still
/// diffable); the per-stage spans go to stderr.
fn run_traced_submit(args: &SubmitArgs) -> Result<(), Failure> {
    let query = parse(&args.sql).map_err(|e| format!("failed to parse SQL: {e}"))?;
    let mut session = submit_session(args)?;
    let ticket = session
        .submit(&ExplainCall::new(&args.dataset, &args.sql))
        .map_err(client_failure)?;
    let corr = ticket.corr_id();
    let reply = ticket.wait().map_err(client_failure)?;
    print_explanation(&query.to_string(), &reply.explanation);
    print_serve_stats(&reply.stats);
    let traces = session.trace(16).map_err(client_failure)?;
    match traces.iter().find(|t| t.corr_id == corr) {
        Some(t) => {
            for line in trace_lines(t) {
                eprintln!("{line}");
            }
        }
        None => {
            eprintln!("trace corr={corr}: not recorded (server tracing disabled or ring overrun)")
        }
    }
    if args.shutdown {
        shutdown(&mut session)?;
    }
    Ok(())
}

/// `metrics`: the full self-describing snapshot in Prometheus text
/// exposition format on stdout — dotted registry names with dots mapped
/// to underscores, sorted, counters and gauges typed.
fn run_metrics(socket: &Option<String>, tcp: &Option<String>) -> Result<(), Failure> {
    let session = connect_session(socket, tcp)?;
    let metrics = session.metrics().map_err(client_failure)?;
    for m in &metrics {
        print_prometheus_metric(m);
    }
    Ok(())
}

/// Prints one metric as Prometheus text exposition. Histogram components
/// (`.count`/`.sum`/`.bNN`) stay untyped — they are already expanded into
/// plain sample lines by the registry.
fn print_prometheus_metric(m: &MetricWire) {
    let name = m.name.replace('.', "_");
    match MetricKind::from_u8(m.kind) {
        Some(MetricKind::Counter) => println!("# TYPE {name} counter"),
        Some(MetricKind::Gauge) => println!("# TYPE {name} gauge"),
        // Histogram components and unknown future kinds: untyped samples.
        _ => {}
    }
    println!("{name} {}", m.value);
}

/// `trace`: span trees of the server's last `last` traced requests,
/// newest first, on stdout.
fn run_trace(socket: &Option<String>, tcp: &Option<String>, last: usize) -> Result<(), Failure> {
    let session = connect_session(socket, tcp)?;
    let traces = session.trace(last as u32).map_err(client_failure)?;
    if traces.is_empty() {
        println!("no traces recorded (is the server's --trace-capacity 0?)");
    }
    for t in &traces {
        for line in trace_lines(t) {
            println!("{line}");
        }
    }
    Ok(())
}

/// `submit --pipeline N`: one v2 [`Session`], `N` copies of the query in
/// flight at once, replies collected out of order. With `--cancel` the
/// last request is cancelled mid-flight instead of collected. All
/// successful replies must be byte-identical (they are the same
/// deterministic request); the first is printed to stdout exactly like a
/// plain `submit`, keeping the pipelined path diffable against it.
fn run_pipeline(args: &SubmitArgs) -> Result<(), Failure> {
    let query = parse(&args.sql).map_err(|e| format!("failed to parse SQL: {e}"))?;
    let mut session = submit_session(args)?;
    eprintln!(
        "pipeline: v2 session open; server allows {} in-flight request(s)",
        session.max_inflight()
    );

    // With --vary-topk each request carries its own top_k override:
    // distinct result-cache keys over one shared candidate set, so the
    // burst exercises the sub-query memo (and its single-flight
    // coalescing) instead of the result cache.
    let tickets: Vec<_> = (0..args.pipeline)
        .map(|i| {
            let mut call = ExplainCall::new(&args.dataset, &args.sql);
            if args.vary_topk {
                call = call.top_k(i as u32 + 1);
            }
            session.submit(&call).map_err(client_failure)
        })
        .collect::<Result<_, _>>()?;

    // Cancel the *last* submitted request while the earlier ones hold
    // the pipeline; its final reply is a CANCELLED error we expect below.
    let cancelled_corr = if args.cancel {
        let last = tickets.last().expect("--cancel implies --pipeline >= 2");
        last.cancel().map_err(client_failure)?;
        Some(last.corr_id())
    } else {
        None
    };

    // A trailing ping is answered inline by the session loop, overtaking
    // every in-flight explain — the out-of-order completion proof.
    session.ping().map_err(client_failure)?;

    let mut first_reply: Option<nexus::serve::ExplainResponse> = None;
    for ticket in &tickets {
        if Some(ticket.corr_id()) == cancelled_corr {
            match ticket.wait() {
                Err(ClientError::Server(e)) if e.code == error_code::CANCELLED => {
                    eprintln!(
                        "pipeline: corr {} cancelled as requested ({})",
                        ticket.corr_id(),
                        e.message
                    );
                    continue;
                }
                Ok(_) => {
                    return Err(format!(
                        "pipeline: corr {} finished before the cancel landed",
                        ticket.corr_id()
                    )
                    .into())
                }
                Err(e) => return Err(client_failure(e)),
            }
        }
        let reply = ticket.wait().map_err(client_failure)?;
        eprintln!(
            "pipeline: corr {} {}; {} progress stage(s), {} partial(s)",
            ticket.corr_id(),
            if reply.stats.cache_hit {
                "cache hit"
            } else {
                "cache miss"
            },
            ticket.progress().len(),
            ticket.partials().len(),
        );
        if let Some(first) = &first_reply {
            // Varied requests legitimately differ (each asked for its own
            // top-k); identical requests must round-trip byte-identically.
            if !args.vary_topk && first.explanation_bytes != reply.explanation_bytes {
                return Err(format!(
                    "pipeline: corr {} reply differs from the first — \
                     pipelined replies must be byte-identical",
                    ticket.corr_id()
                )
                .into());
            }
        } else {
            first_reply = Some(reply);
        }
    }
    if let Some(reply) = &first_reply {
        print_explanation(&query.to_string(), &reply.explanation);
    }

    // The multiplexing summary, as sorted `name value` metric lines (the
    // `serve.rpc.*` and `memo.*` families) — same format as `--stats`,
    // grep-friendly.
    for m in session.metrics().map_err(client_failure)? {
        if m.name.starts_with("serve.rpc.") || m.name.starts_with("memo.") {
            eprintln!("{} {}", m.name, m.value);
        }
    }
    if args.shutdown {
        shutdown(&mut session)?;
    }
    Ok(())
}

/// A raw protocol stream for the abuse modes, which deliberately send
/// byte sequences no well-behaved [`Session`] would.
enum RawStream {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl std::io::Read for RawStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            RawStream::Unix(s) => s.read(buf),
            RawStream::Tcp(s) => s.read(buf),
        }
    }
}

impl std::io::Write for RawStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            RawStream::Unix(s) => s.write(buf),
            RawStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            RawStream::Unix(s) => s.flush(),
            RawStream::Tcp(s) => s.flush(),
        }
    }
}

fn raw_connect(socket: &Option<String>, tcp: &Option<String>) -> Result<RawStream, String> {
    let read_timeout = Some(std::time::Duration::from_secs(10));
    if let Some(path) = socket {
        let s = std::os::unix::net::UnixStream::connect(path)
            .map_err(|e| format!("failed to connect to {path}: {e}"))?;
        s.set_read_timeout(read_timeout).ok();
        Ok(RawStream::Unix(s))
    } else if let Some(addr) = tcp {
        let s = std::net::TcpStream::connect(addr)
            .map_err(|e| format!("failed to connect to {addr}: {e}"))?;
        s.set_read_timeout(read_timeout).ok();
        Ok(RawStream::Tcp(s))
    } else {
        Err("exactly one of --socket or --tcp is required".to_string())
    }
}

/// Expects the next envelope on `stream` to carry `Error` with `code`.
fn expect_error_reply(stream: &mut RawStream, code: u16, what: &str) -> Result<(), String> {
    match read_envelope(stream).map(|env| env.frame) {
        Ok(Frame::Error(e)) if e.code == code => {
            eprintln!(
                "abuse: got expected {what} reply (code {code}: {})",
                e.message
            );
            Ok(())
        }
        Ok(other) => Err(format!("expected {what} error, got {other:?}")),
        Err(e) => Err(format!("expected {what} error, stream failed: {e}")),
    }
}

/// Deliberately misbehaves at the wire level and fails (exit 1) unless
/// the server answers with the governance reply each mode expects:
///
/// * `stall` — sends a partial frame header and nothing more; expects an
///   `Error(TIMEOUT)` reply when the server's frame deadline fires.
/// * `overlimit` — declares a payload one byte over the 64 MiB cap;
///   expects `Error(FRAME_TOO_LARGE)` before any payload is sent.
/// * `busy` — opens connections (each proving admission with a
///   `Hello`/`HelloAck` handshake) until one is rejected with
///   `Error(BUSY)` — works at any `--max-conns` up to 64 — then proves a
///   session that retries at connect recovers once the held connections
///   close.
fn run_abuse(args: &AbuseArgs) -> Result<(), String> {
    use std::io::Write as _;
    match args.mode.as_str() {
        "stall" => {
            let mut stream = raw_connect(&args.socket, &args.tcp)?;
            let envelope = Envelope::v2(0, Frame::Ping).encode();
            stream
                .write_all(&envelope[..7])
                .map_err(|e| format!("failed to send partial header: {e}"))?;
            stream.flush().ok();
            eprintln!("abuse: sent 7 of {} bytes, stalling", envelope.len());
            expect_error_reply(&mut stream, error_code::TIMEOUT, "timeout")
        }
        "overlimit" => {
            let mut stream = raw_connect(&args.socket, &args.tcp)?;
            let mut envelope = Envelope::v2(0, Frame::Ping).encode();
            // Patch the payload length (bytes 11..15 of the header) to one
            // past the cap; the server must refuse before reading payload.
            let oversize = nexus::serve::wire::MAX_PAYLOAD + 1;
            envelope[11..15].copy_from_slice(&oversize.to_le_bytes());
            stream
                .write_all(&envelope[..15])
                .map_err(|e| format!("failed to send oversized header: {e}"))?;
            stream.flush().ok();
            eprintln!("abuse: declared a {oversize} byte payload");
            expect_error_reply(&mut stream, error_code::FRAME_TOO_LARGE, "frame-too-large")
        }
        "busy" => {
            // Fill the server's connection slots until an accept bounces.
            // Each held connection proves admission with a negotiated
            // session, so this works at any --max-conns up to the
            // 64-holder cap.
            let mut holders: Vec<RawStream> = Vec::new();
            loop {
                if holders.len() >= 64 {
                    return Err("no busy rejection after 64 held connections; \
                         is the server's --max-conns larger than that?"
                        .to_string());
                }
                let mut conn = raw_connect(&args.socket, &args.tcp)?;
                // The write may race the server's rejection close; the
                // buffered Busy reply is still readable, so only the read
                // decides the outcome.
                let hello = Frame::Hello(HelloWire {
                    max_version: MAX_VERSION,
                });
                let _ = conn.write_all(&Envelope::v2(0, hello).encode());
                conn.flush().ok();
                match read_envelope(&mut conn).map(|env| env.frame) {
                    Ok(Frame::HelloAck(_)) => holders.push(conn), // admitted: hold the slot
                    Ok(Frame::Error(e)) if e.code == error_code::BUSY => {
                        eprintln!(
                            "abuse: got expected busy reply with {} connection(s) held \
                             (code {}: {})",
                            holders.len(),
                            e.code,
                            e.message
                        );
                        break;
                    }
                    Ok(other) => {
                        return Err(format!("expected HelloAck or busy error, got {other:?}"))
                    }
                    Err(e) => return Err(format!("holder connection failed: {e}")),
                }
            }
            drop(holders);
            // With the slots free again, a session that retries at connect
            // must get through even if it races the server reaping the
            // held connections.
            let retry = RetryPolicy {
                max_retries: 10,
                base_backoff: std::time::Duration::from_millis(20),
                max_backoff: std::time::Duration::from_millis(200),
                ..RetryPolicy::default()
            };
            Session::connect(&endpoint(&args.socket, &args.tcp)?, &retry)
                .and_then(|retrier| retrier.ping())
                .map_err(|e| format!("retrying client after slot freed: {e}"))?;
            eprintln!("abuse: retrying client recovered after the slot freed");
            Ok(())
        }
        other => Err(format!("unknown abuse mode {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use nexus::core::StageSpan;

    use super::*;

    #[test]
    fn timing_line_names_every_stage_and_the_pool() {
        let stage = |name, ms| StageSpan {
            name,
            duration: Duration::from_millis(ms),
            kernel: Default::default(),
        };
        let stats = PipelineStats {
            stages: vec![
                stage("build", 120),
                stage("prune-offline", 10),
                stage("prune-online", 20),
                stage("bias", 5),
                stage("select", 45),
            ],
            threads: 2,
            pool_tasks: 77,
            t_pool_wall: Duration::from_millis(100),
            t_pool_busy: Duration::from_millis(150),
            ..PipelineStats::default()
        };
        assert_eq!(
            timing_line(&stats),
            "timing: 200.00ms total (build 120.00ms, prune 30.00ms, bias 5.00ms, select 45.00ms); \
             pool: 2 thread(s), 77 task(s), 1.50x speedup"
        );
    }
}

#!/usr/bin/env bash
# Full local CI gate. The workspace is dependency-free, so everything runs
# with --offline; a network fetch in any step is a bug.
#
# Usage: ./scripts/ci.sh [step...]
#
# With no arguments every step runs in order — the full gate. Naming steps
# runs just those (the workflow runs one step per job step so failures are
# attributed precisely); smoke steps assume a prior `build` left
# target/release/nexus-cli in place. Each step's wall-clock is appended to
# target/ci-step-timings.md (markdown, ready for $GITHUB_STEP_SUMMARY); a
# full run resets the table, named runs append.
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STEPS="fmt clippy doc build test bench_smoke server_smoke store_smoke \
abuse_smoke pipeline_smoke cancel_smoke memo_smoke telemetry_smoke"
TIMINGS="target/ci-step-timings.md"

BIN=target/release/nexus-cli
SQL="SELECT Country, avg(Salary) FROM t GROUP BY Country"

SMOKE_DIR=$(mktemp -d)
SERVE_PID=""
cleanup() {
    status=$?
    if [ -n "$SERVE_PID" ]; then
        # The daemon outlived the script: kill it, and if the script was
        # otherwise passing, fail — a smoke run that "passed" without
        # shutting its server down cleanly did not actually pass.
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
        if [ "$status" -eq 0 ]; then
            echo "server daemon was still running at exit" >&2
            status=1
        fi
    fi
    rm -rf "$SMOKE_DIR"
    exit "$status"
}
trap cleanup EXIT

# Waits (bounded) for $SOCK to appear, failing fast with the server log if
# the daemon dies first — a dead daemon otherwise burns the full poll
# budget and reports a misleading "did not come up".
wait_for_socket() {
    local sock="$1" log="$2"
    for _ in $(seq 1 100); do
        [ -S "$sock" ] && return 0
        if ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "server daemon died before its socket appeared:" >&2
            cat "$log" >&2
            SERVE_PID=""
            return 1
        fi
        sleep 0.1
    done
    echo "server did not come up:" >&2
    cat "$log" >&2
    return 1
}

# Shuts the daemon down over the wire and propagates its exit code.
shutdown_daemon() {
    local sock="$1"
    "$BIN" submit --socket "$sock" --shutdown 2> /dev/null
    local code=0
    wait "$SERVE_PID" || code=$?
    SERVE_PID=""
    if [ "$code" -ne 0 ]; then
        echo "server daemon exited with code $code" >&2
        return 1
    fi
    if [ -e "$sock" ]; then
        echo "server left its socket file behind" >&2
        return 1
    fi
}

# Tiny deterministic dataset: salary driven by each country's development
# level, which lives only in the KG. Built lazily (once per run) by the
# smoke steps that need it, along with the one-shot baseline output every
# served reply is diffed against.
CSV="$SMOKE_DIR/data.csv"
KG="$SMOKE_DIR/kg.tsv"
make_tiny_fixture() {
    [ -f "$SMOKE_DIR/direct.txt" ] && return 0
    echo "Country,Salary" > "$CSV"
    for c in 0 1 2 3 4 5 6 7 8; do
        dev=$((c % 3))
        printf '@entity\tC%d\tCountry\n' "$c" >> "$KG"
        printf 'C%d\thdi\t%d.0\n' "$c" "$dev" >> "$KG"
        for i in $(seq 0 29); do
            echo "C$c,$((10 * dev)).$((i % 2))" >> "$CSV"
        done
    done
    "$BIN" explain --table "$CSV" --kg "$KG" --extract Country --sql "$SQL" \
        > "$SMOKE_DIR/direct.txt" 2> /dev/null
}

# Larger deterministic dataset (100k rows, 8 KG attributes) for the
# concurrency smokes: an explain takes milliseconds while envelope
# dispatch takes microseconds — the scale separation that makes
# in-flight-overlap assertions (inflight_peak, coalesced memo waits)
# deterministic. On the tiny dataset above, early replies can complete
# while later requests are still being dispatched.
PIPE_CSV="$SMOKE_DIR/pipe_data.csv"
PIPE_KG="$SMOKE_DIR/pipe_kg.tsv"
make_pipe_fixture() {
    [ -f "$SMOKE_DIR/pipe_direct.txt" ] && return 0
    awk 'BEGIN{
        print "Country,Salary";
        for (c = 0; c < 50; c++) {
            dev = c % 3;
            for (i = 0; i < 2000; i++) printf "C%d,%d.%d\n", c, 10*dev + (i%7), i%10;
        }
    }' > "$PIPE_CSV"
    awk 'BEGIN{
        for (c = 0; c < 50; c++) {
            printf "@entity\tC%d\tCountry\n", c;
            printf "C%d\thdi\t%d.0\n", c, c%3;
            printf "C%d\tgdp\t%d.0\n", c, (c*7)%11;
            printf "C%d\tarea\t%d.0\n", c, (c*13)%17;
            printf "C%d\tpop\t%d.0\n", c, (c*5)%23;
            printf "C%d\tlat\t%d.0\n", c, (c*3)%19;
            printf "C%d\telev\t%d.0\n", c, (c*11)%13;
            printf "C%d\tcoast\t%d.0\n", c, (c*17)%29;
            printf "C%d\train\t%d.0\n", c, (c*19)%31;
        }
    }' > "$PIPE_KG"
    "$BIN" explain --table "$PIPE_CSV" --kg "$PIPE_KG" --extract Country \
        --sql "$SQL" > "$SMOKE_DIR/pipe_direct.txt" 2> /dev/null
}

step_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

step_clippy() {
    echo "==> cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

step_doc() {
    echo "==> cargo doc (deny warnings)"
    RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline
}

step_build() {
    echo "==> cargo build --release --offline"
    cargo build --release --offline --workspace
}

step_test() {
    echo "==> cargo test --offline"
    cargo test --offline --workspace -q
}

step_bench_smoke() {
    echo "==> nexus-bench smoke (unit tests + --quick run of every workload)"
    # The repository's benchmark is a package of its own; build it into a
    # directory under target/ so CI caches it with the rest. --quick runs
    # every workload untraced and traced at toy size and exits nonzero
    # when any reply is wrong or fails, or a declared metric is missing.
    local manifest=examples/nexus-bench/Cargo.toml
    CARGO_TARGET_DIR=target/nexus-bench cargo test --offline -q --manifest-path "$manifest"
    CARGO_TARGET_DIR=target/nexus-bench cargo run --release --offline --quiet \
        --manifest-path "$manifest" -- --quick > "$SMOKE_DIR/bench_quick.txt"
    echo "    nexus-bench: unit tests pass; quick run answered every request"
}

step_server_smoke() {
    echo "==> server smoke test (serve / submit vs direct explain)"
    make_tiny_fixture
    local sock="$SMOKE_DIR/nexus.sock"
    "$BIN" serve --socket "$sock" --table "$CSV" --kg "$KG" --extract Country \
        2> "$SMOKE_DIR/serve.log" &
    SERVE_PID=$!
    wait_for_socket "$sock" "$SMOKE_DIR/serve.log"

    "$BIN" submit --socket "$sock" --sql "$SQL" \
        > "$SMOKE_DIR/served_cold.txt" 2> /dev/null
    "$BIN" submit --socket "$sock" --sql "$SQL" \
        > "$SMOKE_DIR/served_hot.txt" 2> "$SMOKE_DIR/submit_hot.log"

    # The served output must match the one-shot run line for line, cold
    # and hot.
    diff "$SMOKE_DIR/direct.txt" "$SMOKE_DIR/served_cold.txt"
    diff "$SMOKE_DIR/served_cold.txt" "$SMOKE_DIR/served_hot.txt"
    grep -q "cache hit" "$SMOKE_DIR/submit_hot.log"
    grep -q "Country::hdi" "$SMOKE_DIR/served_hot.txt"

    shutdown_daemon "$sock"
    echo "    direct == served (cold) == served (hot, from cache); clean shutdown"
}

step_store_smoke() {
    echo "==> store smoke test (pack -> serve from NXCOL, diffable against CSV ingest)"
    make_tiny_fixture
    # Pack the sample CSV into the columnar store. Packing is
    # deterministic: doing it twice must produce byte-identical files.
    local nx="$SMOKE_DIR/data.nxcol"
    "$BIN" pack --table "$CSV" --out "$nx" > "$SMOKE_DIR/pack.txt"
    "$BIN" pack --table "$CSV" --out "$SMOKE_DIR/data2.nxcol" > "$SMOKE_DIR/pack2.txt"
    cmp "$nx" "$SMOKE_DIR/data2.nxcol"
    diff "$SMOKE_DIR/pack.txt" "$SMOKE_DIR/pack2.txt"
    "$BIN" inspect --store "$nx" > "$SMOKE_DIR/inspect.txt"
    grep -q "NXCOL v1" "$SMOKE_DIR/inspect.txt"

    # A corrupted store file must be refused (typed error, nonzero exit) —
    # never served from.
    head -c 20 "$nx" > "$SMOKE_DIR/corrupt.nxcol"
    if "$BIN" inspect --store "$SMOKE_DIR/corrupt.nxcol" > /dev/null 2>&1; then
        echo "inspect accepted a truncated store file" >&2
        exit 1
    fi

    local sock="$SMOKE_DIR/store.sock"
    "$BIN" serve --socket "$sock" --store "$nx" --kg "$KG" --extract Country \
        2> "$SMOKE_DIR/store_serve.log" &
    SERVE_PID=$!
    wait_for_socket "$sock" "$SMOKE_DIR/store_serve.log"

    # Store registration is lazy: before any query, nothing is resident.
    # (--stats emits sorted `name value` lines in registry iteration
    # order.)
    "$BIN" submit --socket "$sock" --stats 2> "$SMOKE_DIR/store_stats_cold.log"
    grep -q '^registry.datasets.registered 1$' "$SMOKE_DIR/store_stats_cold.log"
    grep -q '^registry.datasets.resident 0$' "$SMOKE_DIR/store_stats_cold.log"
    # The registry guarantees byte-order iteration; prove --stats kept it.
    LC_ALL=C sort -c "$SMOKE_DIR/store_stats_cold.log"

    # Explanations served from the packed store must be byte-identical to
    # the CSV-ingest outputs (both the one-shot run and the CSV-backed
    # server).
    "$BIN" submit --socket "$sock" --sql "$SQL" \
        > "$SMOKE_DIR/store_served.txt" 2> /dev/null
    diff "$SMOKE_DIR/direct.txt" "$SMOKE_DIR/store_served.txt"

    # The first query materialized the dataset; the registry gauges say so.
    "$BIN" submit --socket "$sock" --stats 2> "$SMOKE_DIR/store_stats_warm.log"
    grep -q '^registry.datasets.resident 1$' "$SMOKE_DIR/store_stats_warm.log"
    grep -q '^registry.datasets.loaded 1$' "$SMOKE_DIR/store_stats_warm.log"
    grep -Eq '^registry.fingerprint [1-9][0-9]*$' "$SMOKE_DIR/store_stats_warm.log"

    # Registry management over the wire: list, evict, re-serve (reload
    # from the store file) — still the same bytes.
    "$BIN" datasets --socket "$sock" --list > "$SMOKE_DIR/store_list.txt" 2> /dev/null
    grep -q "resident" "$SMOKE_DIR/store_list.txt"
    "$BIN" datasets --socket "$sock" --evict default 2> /dev/null
    "$BIN" datasets --socket "$sock" --list 2> /dev/null \
        | grep -q "registered"
    "$BIN" submit --socket "$sock" --sql "$SQL" \
        > "$SMOKE_DIR/store_reloaded.txt" 2> /dev/null
    diff "$SMOKE_DIR/direct.txt" "$SMOKE_DIR/store_reloaded.txt"

    shutdown_daemon "$sock"
    echo "    pack deterministic; store-served == CSV-served; lazy load, evict, reload verified"
}

step_abuse_smoke() {
    echo "==> abuse smoke test (governance under misbehaving clients)"
    make_tiny_fixture
    # A tightly governed server: one connection slot, 300 ms I/O budget.
    # Each abuse mode must draw the documented governance reply — and the
    # server must keep serving normal traffic afterwards.
    local sock="$SMOKE_DIR/abuse.sock"
    "$BIN" serve --socket "$sock" --table "$CSV" --kg "$KG" --extract Country \
        --max-conns 1 --io-timeout-ms 300 \
        2> "$SMOKE_DIR/abuse_serve.log" &
    SERVE_PID=$!
    wait_for_socket "$sock" "$SMOKE_DIR/abuse_serve.log"

    "$BIN" abuse --socket "$sock" --mode overlimit 2> "$SMOKE_DIR/abuse.log"
    "$BIN" abuse --socket "$sock" --mode stall 2>> "$SMOKE_DIR/abuse.log"
    "$BIN" abuse --socket "$sock" --mode busy 2>> "$SMOKE_DIR/abuse.log"

    # The abused server still answers real queries with the right bytes…
    "$BIN" submit --socket "$sock" --sql "$SQL" \
        > "$SMOKE_DIR/served_after_abuse.txt" 2> /dev/null
    diff "$SMOKE_DIR/direct.txt" "$SMOKE_DIR/served_after_abuse.txt"

    # …and its counters recorded every enforcement action.
    "$BIN" submit --socket "$sock" --stats 2> "$SMOKE_DIR/abuse_stats.log"
    grep -Eq '^serve.conns.busy_rejections [1-9]' "$SMOKE_DIR/abuse_stats.log"
    grep -Eq '^serve.io.timeouts [1-9]' "$SMOKE_DIR/abuse_stats.log"
    grep -Eq '^serve.frames.oversize [1-9]' "$SMOKE_DIR/abuse_stats.log"

    shutdown_daemon "$sock"
    echo "    busy / timeout / frame-too-large replies delivered; server survived"
}

step_pipeline_smoke() {
    echo "==> pipelined smoke test (NEXUSRPC v2 multiplexing over one connection)"
    make_pipe_fixture
    # One connection slot: the 16 in-flight requests MUST share a single
    # multiplexed v2 session or the run could not complete at all. The
    # assertions are counters, never wall-clock: inflight_peak proves all
    # 16 were in flight at once, ooo_replies proves at least one reply
    # overtook an older request.
    local sock="$SMOKE_DIR/pipeline.sock"
    "$BIN" serve --socket "$sock" --table "$PIPE_CSV" --kg "$PIPE_KG" \
        --extract Country --max-conns 1 \
        2> "$SMOKE_DIR/pipe_serve.log" &
    SERVE_PID=$!
    wait_for_socket "$sock" "$SMOKE_DIR/pipe_serve.log"

    "$BIN" submit --socket "$sock" --sql "$SQL" --pipeline 16 \
        > "$SMOKE_DIR/pipelined.txt" 2> "$SMOKE_DIR/pipeline.log"

    # Pipelined stdout is diffable against the one-shot run…
    diff "$SMOKE_DIR/pipe_direct.txt" "$SMOKE_DIR/pipelined.txt"
    # …and the v2 counters (the serve.rpc.* metric family) prove real
    # multiplexing.
    grep -q '^serve.rpc.inflight_peak 16$' "$SMOKE_DIR/pipeline.log"
    grep -Eq '^serve.rpc.ooo_replies [1-9]' "$SMOKE_DIR/pipeline.log"

    shutdown_daemon "$sock"
    echo "    16 requests multiplexed over one connection; out-of-order replies observed"
}

step_cancel_smoke() {
    echo "==> cancel smoke test (v2 cancellation mid-pipeline)"
    make_pipe_fixture
    # A single-worker server over the larger dataset, so the second
    # request queues behind a multi-millisecond first one: the cancel
    # (dispatched microseconds behind the explains) deterministically
    # lands while its target is still pending. The tiny dataset would race
    # — its explains finish in microseconds, on the same scale as envelope
    # dispatch.
    local sock="$SMOKE_DIR/cancel.sock"
    "$BIN" serve --socket "$sock" --table "$PIPE_CSV" --kg "$PIPE_KG" \
        --extract Country --max-concurrent 1 \
        2> "$SMOKE_DIR/cancel_serve.log" &
    SERVE_PID=$!
    wait_for_socket "$sock" "$SMOKE_DIR/cancel_serve.log"

    "$BIN" submit --socket "$sock" --sql "$SQL" --pipeline 2 --cancel \
        > "$SMOKE_DIR/cancel_run.txt" 2> "$SMOKE_DIR/cancel.log"
    grep -q 'cancelled as requested' "$SMOKE_DIR/cancel.log"
    grep -Eq '^serve.rpc.cancels_honored [1-9]' "$SMOKE_DIR/cancel.log"
    # The surviving request's reply is still the right bytes…
    diff "$SMOKE_DIR/pipe_direct.txt" "$SMOKE_DIR/cancel_run.txt"
    # …and the server keeps serving diffable output after honouring a
    # cancel.
    "$BIN" submit --socket "$sock" --sql "$SQL" \
        > "$SMOKE_DIR/after_cancel.txt" 2> /dev/null
    diff "$SMOKE_DIR/pipe_direct.txt" "$SMOKE_DIR/after_cancel.txt"

    # Server rejections are distinguishable from local failures: an error
    # frame from the server (here: unknown dataset) must exit with code 3.
    rc=0
    "$BIN" submit --socket "$sock" --dataset nope --sql "$SQL" \
        > /dev/null 2> "$SMOKE_DIR/unknown_dataset.log" || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "expected exit code 3 for a server-rejected request, got $rc" >&2
        exit 1
    fi

    shutdown_daemon "$sock"
    echo "    cancel honoured and counted; server kept serving; server errors exit 3"
}

step_memo_smoke() {
    echo "==> memo smoke test (sub-query memoization + single-flight coalescing)"
    make_pipe_fixture
    # Four worker slots over the larger dataset: a burst of 8
    # overlapping-but-distinct requests (--vary-topk gives each its own
    # top-k override) shares no result-cache entry but every sub-query
    # memo key, so concurrent workers must coalesce duplicate in-flight
    # builds — memo.coalesced_waits is the single-flight proof, memo.hits
    # the reuse proof. Counter assertions only, never wall-clock.
    local sock="$SMOKE_DIR/memo.sock"
    "$BIN" serve --socket "$sock" --table "$PIPE_CSV" --kg "$PIPE_KG" \
        --extract Country --max-concurrent 4 \
        2> "$SMOKE_DIR/memo_serve.log" &
    SERVE_PID=$!
    wait_for_socket "$sock" "$SMOKE_DIR/memo_serve.log"

    "$BIN" submit --socket "$sock" --sql "$SQL" --pipeline 8 --vary-topk \
        > /dev/null 2> "$SMOKE_DIR/memo_pipeline.log"
    grep -Eq '^memo\.hits [1-9]' "$SMOKE_DIR/memo_pipeline.log"

    # Coalescing additionally needs the burst's builds to genuinely
    # overlap; on a loaded machine a burst can serialize. If the first
    # burst didn't overlap, up to three more get the chance, each over a
    # fresh WHERE mask (cold memo keys, cold result-cache entries). The
    # counters are cumulative: one coalesce anywhere proves single-flight.
    coalesced=0
    grep -Eq '^memo\.coalesced_waits [1-9]' "$SMOKE_DIR/memo_pipeline.log" \
        && coalesced=1
    for thr in 1 2 3; do
        [ "$coalesced" -eq 1 ] && break
        "$BIN" submit --socket "$sock" --pipeline 8 --vary-topk \
            --sql "SELECT Country, avg(Salary) FROM t WHERE Salary >= $thr GROUP BY Country" \
            > /dev/null 2> "$SMOKE_DIR/memo_burst.log"
        grep -Eq '^memo\.coalesced_waits [1-9]' "$SMOKE_DIR/memo_burst.log" \
            && coalesced=1
    done
    if [ "$coalesced" -ne 1 ]; then
        echo "no coalesced memo wait observed across 4 pipelined bursts" >&2
        exit 1
    fi

    # Memoization must never change bytes: a plain submit against the
    # warm memo is diffable against the one-shot (memo-cold) explain.
    "$BIN" submit --socket "$sock" --sql "$SQL" \
        > "$SMOKE_DIR/memo_served.txt" 2> /dev/null
    diff "$SMOKE_DIR/pipe_direct.txt" "$SMOKE_DIR/memo_served.txt"

    # The stats surface agrees (sorted dotted `name value` lines)…
    "$BIN" submit --socket "$sock" --stats 2> "$SMOKE_DIR/memo_stats.log"
    grep -Eq '^memo\.hits [1-9]' "$SMOKE_DIR/memo_stats.log"
    grep -Eq '^memo\.inserts [1-9]' "$SMOKE_DIR/memo_stats.log"
    grep -Eq '^memo\.resident_bytes [1-9]' "$SMOKE_DIR/memo_stats.log"

    # …and so does the Prometheus exposition. Keep the memo family under
    # target/ so CI uploads it as an artifact.
    "$BIN" metrics --socket "$sock" > "$SMOKE_DIR/memo_metrics.txt"
    grep -Eq '^memo_hits [1-9]' "$SMOKE_DIR/memo_metrics.txt"
    grep -E '^(# TYPE )?memo_' "$SMOKE_DIR/memo_metrics.txt" \
        > target/MEMO_STATS.prom

    shutdown_daemon "$sock"
    echo "    8-way varied burst hit the memo and coalesced in-flight builds; warm bytes == cold bytes"
}

step_telemetry_smoke() {
    echo "==> telemetry smoke test (metrics exposition and span traces)"
    make_pipe_fixture
    # A pipelined burst warms the registry and trace ring, then the
    # observability surface is asserted: `metrics` exposes the known
    # counter names with nonzero values in Prometheus text exposition,
    # `trace` shows the pipeline's stage spans, and `submit --trace` keeps
    # stdout diffable while printing its own span tree to stderr.
    local sock="$SMOKE_DIR/telemetry.sock"
    "$BIN" serve --socket "$sock" --table "$PIPE_CSV" --kg "$PIPE_KG" \
        --extract Country 2> "$SMOKE_DIR/tele_serve.log" &
    SERVE_PID=$!
    wait_for_socket "$sock" "$SMOKE_DIR/tele_serve.log"

    "$BIN" submit --socket "$sock" --sql "$SQL" --pipeline 4 \
        > /dev/null 2> /dev/null
    "$BIN" submit --socket "$sock" --sql "$SQL" --trace \
        > "$SMOKE_DIR/tele_traced.txt" 2> "$SMOKE_DIR/tele_trace.log"
    diff "$SMOKE_DIR/pipe_direct.txt" "$SMOKE_DIR/tele_traced.txt"
    grep -Eq '^ *explain count=' "$SMOKE_DIR/tele_trace.log"

    "$BIN" metrics --socket "$sock" > "$SMOKE_DIR/metrics.txt"
    grep -q '^# TYPE serve_requests_served counter$' "$SMOKE_DIR/metrics.txt"
    grep -Eq '^serve_requests_served [1-9][0-9]*$' "$SMOKE_DIR/metrics.txt"
    grep -Eq '^serve_cache_hits [1-9][0-9]*$' "$SMOKE_DIR/metrics.txt"
    grep -Eq '^kernel_rows_scanned [1-9][0-9]*$' "$SMOKE_DIR/metrics.txt"
    grep -q '^registry_datasets_registered 1$' "$SMOKE_DIR/metrics.txt"
    grep -Eq '^trace_recorded [1-9][0-9]*$' "$SMOKE_DIR/metrics.txt"
    # Keep the snapshot under target/ so CI uploads it as an artifact.
    cp "$SMOKE_DIR/metrics.txt" target/METRICS_SNAPSHOT.prom

    "$BIN" trace --socket "$sock" --last 8 > "$SMOKE_DIR/traces.txt"
    grep -q 'explain count=' "$SMOKE_DIR/traces.txt"
    grep -q 'assemble count=' "$SMOKE_DIR/traces.txt"
    grep -q 'select count=' "$SMOKE_DIR/traces.txt"

    shutdown_daemon "$sock"
    echo "    metrics exposed with nonzero counters; stage spans traced"
}

# Runs one named step, appending its wall-clock to the timings table.
run_step() {
    local step="$1" start
    start=$(date +%s)
    "step_$step"
    printf '| %s | %d |\n' "$step" "$(($(date +%s) - start))" >> "$TIMINGS"
}

mkdir -p target
if [ "$#" -eq 0 ]; then
    # Full gate: run everything in order, starting a fresh timings table.
    printf '| step | seconds |\n|---|---:|\n' > "$TIMINGS"
    # shellcheck disable=SC2086 # ALL_STEPS is a deliberate word list
    set -- $ALL_STEPS
elif [ ! -f "$TIMINGS" ]; then
    printf '| step | seconds |\n|---|---:|\n' > "$TIMINGS"
fi
for step in "$@"; do
    if ! declare -F "step_$step" > /dev/null; then
        echo "unknown CI step: $step" >&2
        echo "known steps: $ALL_STEPS" >&2
        exit 2
    fi
    run_step "$step"
done
echo "CI gate passed."

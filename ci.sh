#!/usr/bin/env sh
# Repository CI gate — offline-safe by construction: the workspace has no
# external dependencies, so every step below works without a registry.
#
#   ./ci.sh         full gate: fmt, clippy, build, tests (tier 1)
#   ./ci.sh quick   skip the release build (fastest signal)
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, intra-doc links, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> wlc-lint (workspace static analysis, blocking)"
cargo run -q -p wlc-lint -- --workspace

echo "==> wlc-lint self-test (each seeded-bug fixture must report findings)"
# Findings exit 1; a clean run (0), an unreadable root (2), a panic or a
# failed build exits otherwise, and each of those fails the gate.
for fixture in crates/lint/tests/fixtures/*/; do
    [ -d "$fixture" ] || { echo "no wlc-lint fixtures found"; exit 1; }
    code=0
    cargo run -q -p wlc-lint -- --root "$fixture" || code=$?
    if [ "$code" -ne 1 ]; then
        echo "fixture $fixture: wlc-lint exited $code, expected 1 (findings)"
        exit 1
    fi
done

if [ "${1:-}" != "quick" ]; then
    echo "==> cargo build --release (tier-1 default members)"
    cargo build --release

    echo "==> wlc-lint report + wall-time budget (vs BENCH_lint.json)"
    # Release-build run: emits the machine-readable findings artifact and
    # fails (exit 3) if the analysis exceeds 20x the committed baseline —
    # the guard catches a fixpoint pass going accidentally quadratic.
    ./target/release/wlc-lint --workspace --format json \
        --out target/lint-report.json --budget BENCH_lint.json

    echo "==> float-text sweeps (writer vs {:?}, ~34M values; reader vs str::parse, ~34M strings)"
    # The tier-1 tests compare wlc_math::float_text's writer with std's
    # `{:?}` on about 2^18 values and its Eisel-Lemire reader with
    # `str::parse::<f64>` on about 2^18 strings, in a debug build; this
    # release-build run of the two ignored wide sweeps compares about 34
    # million of each (about 17 s, the two in parallel).
    cargo test -q --release -p wlc-math --lib float_text -- --ignored

    echo "==> exp sweep (pinned exp vs a double-double reference, ~17M values)"
    # The tier-1 test bounds wlc_math::elementary::exp below 1 ulp on
    # 2^18 inputs in a debug build; this release-build run of the
    # ignored wide sweep checks 2^24 (about 20 s). The activation tests
    # run in release too, where the logistic's slice loop vectorizes,
    # so its bit-equality with the scalar `apply` is checked there.
    cargo test -q --release -p wlc-math --lib elementary -- --ignored
    cargo test -q --release -p wlc-nn --lib activation

    echo "==> bench regression guard (speedup ratios vs BENCH_nn.json)"
    # Ratios (batched vs oracle arm, interleaved same-run) are machine-
    # independent; absolute throughput is not compared. Writes the fresh
    # measurement to BENCH_nn.new.json for inspection.
    ./target/release/wlc bench --quick --check BENCH_nn.json
fi

echo "==> cargo test -q (tier-1 default members)"
cargo test -q

echo "==> serve flake guard (fleet overload + keep-alive tests, 20 runs each)"
# A shed 503 lost to the acceptor's reset failed about one run in
# sixteen. Twenty runs of the test binaries the tier-1 step already
# built take a few seconds and fail about three times in four on a race
# that rare.
serve_test_bin() {
    cargo test -q -p wlc-serve --test "$1" --no-run --message-format=json \
        | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p'
}
fleet_bin=$(serve_test_bin fleet)
server_bin=$(serve_test_bin server)
for _ in $(seq 1 20); do
    "$fleet_bin" -q fleet_overload_sheds_only_when_every_queue_is_full
    "$server_bin" -q keep_alive
done

echo "==> benchmark unit tests (e2ebench, offline)"
# The benchmark compiles against the public `wlc` facade: an API it calls
# that disappears fails here, not in a benchmark run.
cargo test -q --manifest-path e2ebench/Cargo.toml

echo "==> crash-consistency sweep (every op-log prefix of a supervisor round)"
# Replays a full supervisor round (bootstrap commit, checkpoints,
# promote, rollback, quarantine) against the simulated filesystem,
# crashing at every operation-log prefix and asserting recovery
# converges to the uninterrupted run byte-for-byte.
cargo test -q -p wlc-learn --test crash_sweep

if [ "${1:-}" != "quick" ]; then
    echo "==> correctness smoke (e2ebench, every workload, 2 s each)"
    # The serving workloads check every answer bit for bit through a real
    # `wlc serve` process and `ServeClient`; the pipeline workloads
    # require every repeated characterization or supervisor run to
    # reproduce the first one's outputs exactly. No timing is gated here.
    for workload in serve_batch serve_single characterize learn_rounds; do
        result=$(bash e2ebench/run.sh --workload "$workload" --seed 1 \
            --seconds 2 --trace 0 | tail -n 1)
        case "$result" in
            *'"correct": true'*'"failed": 0,'*) ;;
            *) echo "$workload answered wrong or failed: $result"; exit 1 ;;
        esac
    done

    echo "==> fault-injection smoke (collect with faults, cv with quarantine)"
    smoke_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir"' EXIT
    ./target/release/wlc collect --samples 8 --out "$smoke_dir/faulty.csv" \
        --duration 3 --warmup 1 --seed 4 \
        --fault-profile dropout=0.3,truncate=0.2,truncate_frac=0.5 --retries 6
    ./target/release/wlc cv --data "$smoke_dir/faulty.csv" --k 3 \
        --epochs 200 --hidden 6 --force-diverge 1 --quarantine

    echo "==> thread-matrix determinism smoke (--jobs 1/2/4 byte-compare)"
    # Train the same model at three band-thread counts and under glibc's
    # non-FMA paths, sweep a surface and cross-validate at three --jobs
    # values, and collect at two: every artifact must be byte-identical
    # — the determinism contract's end-to-end check. Wall-time lines go to stderr, so stdout compares.
    # 520 samples are 9 row bands of 64, past the band pool's dispatch
    # threshold of 2 bands per thread at --jobs 2 and 4, so the pooled
    # training path is byte-compared too.
    ./target/release/wlc collect --samples 520 --out "$smoke_dir/det.csv" \
        --duration 3 --warmup 1 --seed 21
    for j in 1 2 4; do
        ./target/release/wlc train --data "$smoke_dir/det.csv" \
            --out "$smoke_dir/det-j$j.txt" --epochs 150 --hidden 8 \
            --seed 5 --jobs "$j"
    done
    cmp "$smoke_dir/det-j1.txt" "$smoke_dir/det-j2.txt" \
        || { echo "train --jobs 2 diverged from --jobs 1"; exit 1; }
    cmp "$smoke_dir/det-j1.txt" "$smoke_dir/det-j4.txt" \
        || { echo "train --jobs 4 diverged from --jobs 1"; exit 1; }
    # The model must not depend on the host's libm: the same CSV trained
    # under glibc's non-FMA code paths writes the same bytes. Only the
    # training runs under the variable; the simulator's exponential draw
    # still calls libm's `ln`, so the CSV is collected once, above.
    GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX \
        ./target/release/wlc train --data "$smoke_dir/det.csv" \
        --out "$smoke_dir/det-nofma.txt" --epochs 150 --hidden 8 --seed 5 --jobs 1
    cmp "$smoke_dir/det-j1.txt" "$smoke_dir/det-nofma.txt" \
        || { echo "train under glibc's non-FMA paths diverged"; exit 1; }
    for j in 1 2 4; do
        ./target/release/wlc surface --model "$smoke_dir/det-j1.txt" \
            --base 450,10,16,10 --steps 9 --jobs "$j" \
            > "$smoke_dir/det-surface-j$j.out" 2>/dev/null
    done
    cmp "$smoke_dir/det-surface-j1.out" "$smoke_dir/det-surface-j2.out" \
        || { echo "surface --jobs 2 diverged from --jobs 1"; exit 1; }
    cmp "$smoke_dir/det-surface-j1.out" "$smoke_dir/det-surface-j4.out" \
        || { echo "surface --jobs 4 diverged from --jobs 1"; exit 1; }
    for j in 1 2 4; do
        ./target/release/wlc cv --data "$smoke_dir/det.csv" --k 3 \
            --epochs 150 --hidden 8 --seed 5 --jobs "$j" \
            > "$smoke_dir/det-cv-j$j.out"
    done
    cmp "$smoke_dir/det-cv-j1.out" "$smoke_dir/det-cv-j2.out" \
        || { echo "cv --jobs 2 diverged from --jobs 1"; exit 1; }
    cmp "$smoke_dir/det-cv-j1.out" "$smoke_dir/det-cv-j4.out" \
        || { echo "cv --jobs 4 diverged from --jobs 1"; exit 1; }
    for j in 1 4; do
        ./target/release/wlc collect --samples 64 \
            --out "$smoke_dir/det-collect-j$j.csv" \
            --duration 3 --warmup 1 --seed 21 --jobs "$j"
    done
    cmp "$smoke_dir/det-collect-j1.csv" "$smoke_dir/det-collect-j4.csv" \
        || { echo "collect --jobs 4 diverged from --jobs 1"; exit 1; }

    echo "==> prediction-server smoke (degraded, shed, reload, drain)"
    ./target/release/wlc collect --samples 10 --out "$smoke_dir/serve.csv" \
        --duration 3 --warmup 1 --seed 11
    ./target/release/wlc train --data "$smoke_dir/serve.csv" \
        --out "$smoke_dir/model-a.txt" --epochs 200 --hidden 6 --seed 1
    ./target/release/wlc train --data "$smoke_dir/serve.csv" \
        --out "$smoke_dir/model-b.txt" --epochs 200 --hidden 6 --seed 2
    # One worker, one queue slot, 50ms service time, and the first two
    # primary predictions forced to fail: exercises degradation to the
    # linear baseline, load shedding, and recovery in one server run.
    ./target/release/wlc serve --model "$smoke_dir/model-a.txt" \
        --data "$smoke_dir/serve.csv" --addr 127.0.0.1:0 \
        --workers 1 --queue 1 --slow-ms 50 --force-fail 2 \
        > "$smoke_dir/serve.out" 2> "$smoke_dir/serve.log" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        grep -q "listening on" "$smoke_dir/serve.out" 2>/dev/null && break
        sleep 0.1
    done
    addr=$(sed -n 's/^listening on //p' "$smoke_dir/serve.out" | head -n 1)
    [ -n "$addr" ] || { echo "server did not start"; exit 1; }
    # Capture first, grep after: `cmd | grep -q` closes the pipe on the
    # first match and the CLI would die on EPIPE mid-print.
    wlc_expect() {
        want=$1
        shift
        out=$(./target/release/wlc "$@")
        echo "$out" | grep -q "$want" \
            || { echo "expected \`$want\` in: $out"; exit 1; }
    }
    # Every request-log line in a server's stderr must be one whole line
    # of the documented shape; there must be some.
    log_shape='^wlc-serve method=[^[:space:]]+ path=[^[:space:]]+ status=[0-9]{3} replica=([0-9]+|-) latency_ms=[0-9]+\.[0-9]{3} queue_depth=[0-9]+ degraded=(true|false) shed=(true|false)$'
    check_request_log() {
        grep -q 'wlc-serve ' "$1" || { echo "no request log lines in $1"; exit 1; }
        if grep 'wlc-serve ' "$1" | grep -Ev "$log_shape"; then
            echo "request log lines of another shape in $1 (above)"
            exit 1
        fi
    }
    # Injected failures serve the baseline, tagged DEGRADED ...
    wlc_expect DEGRADED predict --server "$addr" --config 450,10,16,10
    wlc_expect DEGRADED predict --server "$addr" --config 450,10,16,10
    # ... then the primary recovers.
    wlc_expect "model: mlp" predict --server "$addr" --config 450,10,16,10
    # An impossible deadline is a retriable 504 -> serve-error exit 5.
    set +e
    ./target/release/wlc predict --server "$addr" --config 450,10,16,10 \
        --deadline-ms 1 --retries 1 >/dev/null 2>&1
    rc=$?
    set -e
    [ "$rc" -eq 5 ] || { echo "expected exit 5 on deadline, got $rc"; exit 1; }
    # Overload: six concurrent clients against a 1-worker/1-slot server.
    # Shedding must happen, and backoff+retry must carry every client
    # through anyway.
    client_pids=""
    for _ in 1 2 3 4 5 6; do
        ./target/release/wlc predict --server "$addr" --config 450,10,16,10 \
            --retries 10 >/dev/null &
        client_pids="$client_pids $!"
    done
    for pid in $client_pids; do wait "$pid"; done
    grep -q "shed=true" "$smoke_dir/serve.log" \
        || { echo "expected load shedding in server log"; exit 1; }
    # Hot reload: corrupt file rejected, valid file swaps to generation 1.
    # (`! cmd` never trips `set -e`, so the rejection is tested with `if`.)
    if ./target/release/wlc predict --server "$addr" \
        --reload "$smoke_dir/serve.csv" >/dev/null 2>&1; then
        echo "a corrupt model file was accepted by --reload"
        exit 1
    fi
    wlc_expect "generation 1" predict --server "$addr" \
        --reload "$smoke_dir/model-b.txt"
    wlc_expect "generation 1" predict --server "$addr" --config 450,10,16,10
    # Graceful shutdown: drains and exits 0 with a summary.
    ./target/release/wlc predict --server "$addr" --shutdown >/dev/null
    wait "$serve_pid"
    grep -q "server drained:" "$smoke_dir/serve.out"
    check_request_log "$smoke_dir/serve.log"

    echo "==> multi-replica fleet smoke (kill, rolling reload, recovery)"
    ./target/release/wlc serve --model "$smoke_dir/model-a.txt" \
        --data "$smoke_dir/serve.csv" --addr 127.0.0.1:0 \
        --replicas 3 --workers 1 --queue 8 \
        > "$smoke_dir/fleet.out" 2> "$smoke_dir/fleet.log" &
    fleet_pid=$!
    for _ in $(seq 1 100); do
        grep -q "listening on" "$smoke_dir/fleet.out" 2>/dev/null && break
        sleep 0.1
    done
    fleet_addr=$(sed -n 's/^listening on //p' "$smoke_dir/fleet.out" | head -n 1)
    [ -n "$fleet_addr" ] || { echo "fleet server did not start"; exit 1; }
    # All three replicas report ready.
    wlc_expect "replicas_ready.*3" predict --server "$fleet_addr" --status
    # Kill one replica: readiness degrades to 2/3, serving continues.
    wlc_expect "replica 1 killed" predict --server "$fleet_addr" --kill-replica 1
    wlc_expect "replicas_ready.*2" predict --server "$fleet_addr" --status
    wlc_expect "model: mlp" predict --server "$fleet_addr" --config 450,10,16,10
    # Rolling reload swaps the whole fleet (dead replica included).
    wlc_expect "generation 1" predict --server "$fleet_addr" \
        --reload "$smoke_dir/model-b.txt"
    wlc_expect "generation 1" predict --server "$fleet_addr" --config 450,10,16,10
    # Revive the killed replica: readiness recovers to 3/3.
    wlc_expect "replica 1 revived" predict --server "$fleet_addr" --revive-replica 1
    wlc_expect "replicas_ready.*3" predict --server "$fleet_addr" --status
    ./target/release/wlc predict --server "$fleet_addr" --shutdown >/dev/null
    wait "$fleet_pid"
    grep -q "server drained:" "$smoke_dir/fleet.out"
    check_request_log "$smoke_dir/fleet.log"

    echo "==> continuous-learning smoke (chaos kill, resume, forced rollback)"
    learn_dir="$smoke_dir/learn"
    # Kill the supervisor mid-retrain in round 1 right after its first
    # checkpoint (exit 1), then rerun to resume. Round 2's promotion is
    # forced bad so the watchdog must roll the fleet back. The final
    # summary line is byte-deterministic, so exact counts are asserted.
    set +e
    ./target/release/wlc learn --state-dir "$learn_dir" --rounds 2 \
        --window 5 --buffer-cap 30 --holdout 3 --bootstrap-ticks 8 \
        --duration 2 --warmup 0.5 --epochs 200 --hidden 8 --probes 4 \
        --tolerance 2.0 --drift-profile kind=ramp,rate=0.08 \
        --force-bad-round 2 --chaos-kill-round 1 \
        > "$smoke_dir/learn-kill.out" 2>&1
    rc=$?
    set -e
    [ "$rc" -eq 1 ] || { echo "expected exit 1 on chaos kill, got $rc"; exit 1; }
    grep -q "chaos: supervisor killed mid-retrain in round 1" "$smoke_dir/learn-kill.out"
    # Capture first, grep after (same EPIPE rule as the server smokes).
    learn_out=$(./target/release/wlc learn --state-dir "$learn_dir" --rounds 2 \
        --window 5 --buffer-cap 30 --holdout 3 --bootstrap-ticks 8 \
        --duration 2 --warmup 0.5 --epochs 200 --hidden 8 --probes 4 \
        --tolerance 2.0 --drift-profile kind=ramp,rate=0.08 \
        --force-bad-round 2)
    for want in \
        "event=promote round=1 generation=1" \
        "event=probation round=2 probes=4 breaches=4 verdict=breach" \
        "event=rollback round=2 generation=3 restored=model-g1.model" \
        "supervisor done: rounds=2 generation=3 promotions=2 rollbacks=1 quarantined=1 live=model-g1.model"; do
        echo "$learn_out" | grep -q "$want" \
            || { echo "expected \`$want\` in learn output: $learn_out"; exit 1; }
    done
    grep -q "event=quarantine round=2 reason=watchdog" "$learn_dir/events.log"
    test -f "$learn_dir/quarantine/round-2.model"
    test -f "$learn_dir/quarantine/round-2.diagnosis"

    echo "==> paper artifacts (every wlc-bench binary vs results/, byte-exact)"
    # Each binary's stdout is a pure function of its seed (wall times go
    # to stderr), so it must reproduce its committed results/ file byte
    # for byte. Every file that differs is named before the step fails.
    cargo build -q --release -p wlc-bench
    stale=""
    for src in crates/bench/src/bin/*.rs; do
        name=$(basename "$src" .rs)
        "./target/release/$name" > "$smoke_dir/$name.txt" 2>/dev/null \
            && cmp -s "$smoke_dir/$name.txt" "results/$name.txt" \
            || stale="$stale $name"
    done
    [ -z "$stale" ] || { echo "differs from results/:$stale"; exit 1; }

    echo "==> examples (every program in examples/, run with no arguments)"
    # Clippy compiles the examples but nothing else runs them; four of
    # them train models through the builder API. Every example that
    # exits non-zero is named before the step fails.
    cargo build -q --release --examples
    failed=""
    for src in examples/*.rs; do
        name=$(basename "$src" .rs)
        "./target/release/examples/$name" > "$smoke_dir/example-$name.out" 2>&1 \
            || failed="$failed $name"
    done
    [ -z "$failed" ] || { echo "examples exited non-zero:$failed"; exit 1; }
fi

echo "==> OK"

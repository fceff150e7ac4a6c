#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, the fault-injection
# tests again under ASan + UBSan (CHAOS_SANITIZE=ON) so memory errors
# in the degraded-telemetry paths cannot slip through a plain build,
# and the parallel-pipeline tests under ThreadSanitizer
# (CHAOS_SANITIZE=thread). The observability layer gets an
# overhead_obs smoke run (asserts < 1 % instrumentation overhead and
# valid trace/metrics exports) plus the obs unit tests under
# ThreadSanitizer. The serving subsystem gets an overhead smoke
# (serve_throughput asserts the paired off/on budgets for an attached
# monitor, an armed autopilot and stage tracing, and that stage stamps
# reach the drain; the tier schema-checks the BENCH_serve.json it
# writes), a CLI replay smoke, and its whole test binary under
# ThreadSanitizer alongside the serialization round-trip tests. The
# model-quality monitor gets a `chaos serve --replay --monitor 1`
# smoke (clean replay => zero drift events, telemetry is well-formed
# JSONL) and its tests run under ThreadSanitizer too. The self-healing
# autopilot gets a `chaos serve --replay --autopilot 1` smoke (an
# injected stuck-counter fault must be quarantined, retrained, and
# canary-promoted within the replay; a clean replay must report zero
# remediations) and its tests run under ThreadSanitizer. The
# hierarchical roll-up layer gets a rollup_scale smoke (asserts the
# per-machine update/aggregate/memory budgets, bitwise thread-count
# determinism, and the metered-density recall invariants, and the
# tier schema-checks its BENCH_rollup.json), a `chaos fleetview`
# smoke over a 100-machine synthetic topology (tables render, the
# JSONL roll-up export is one well-formed object per line), and the
# roll-up tests under ThreadSanitizer. The network ingest layer gets
# a `chaos serve --listen` + `chaos loadgen` loopback smoke with
# accounting checked on both ends, the wire-protocol fuzz suite under
# ASan+UBSan, and its whole test binary under ThreadSanitizer. The
# JSON reader's accept/reject corpus and mutation fuzz (test_obs) run
# under ASan+UBSan too. The latency-tracing / flight-recorder layer
# gets its stage_latency and stage_overhead sections schema-checked in
# BENCH_serve.json, a live-introspection smoke (`chaos top --json`
# against a listening server must return a validated snapshot)
# chained into a faulted replay that must leave exactly one parseable
# flight bundle holding the model-drift trigger and preceding spans,
# and the flight recorder's trigger-storm tests under ASan+UBSan and
# TSan. The LASSO oracle and Algorithm 1 golden-output tests run under
# ASan+UBSan, and so do the fleet server's drain-pass and
# snapshot-ring tests. Serving, wire-ingest and training throughput
# and latency are measured by perfbench (python3 perfbench/run.py),
# not here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

serve_tmp="$(mktemp -d)"
trap 'rm -rf "$serve_tmp"' EXIT

echo
echo "== tier 1: observability overhead smoke (fast mode) =="
# Run in the temp dir: the fast-mode BENCH_obs.json must not clobber
# the committed full-mode one.
(cd "$serve_tmp" && CHAOS_BENCH_FAST=1 "$OLDPWD/build/bench/overhead_obs")

echo
echo "== tier 1: serving overhead smoke (fast mode) =="
# Run in the temp dir: the fast-mode BENCH_serve.json must not
# clobber the committed full-mode one. The bench exits nonzero on any
# overhead-budget violation; the schema check below additionally fails
# the tier if the JSON contract the dashboards consume drifts.
(cd "$serve_tmp" && CHAOS_BENCH_FAST=1 \
    "$OLDPWD/build/bench/serve_throughput")
for key in monitor_overhead autopilot_overhead stage_overhead \
    stage_latency e2e_us pass; do
    grep -q "\"$key\"" "$serve_tmp/BENCH_serve.json" || {
        echo "serve bench: BENCH_serve.json missing key '$key'" >&2
        exit 1
    }
done
grep -q '"pass": true' "$serve_tmp/BENCH_serve.json" || {
    echo "serve bench: BENCH_serve.json did not record a pass" >&2
    exit 1
}

echo
echo "== tier 1: roll-up aggregation smoke (fast mode) =="
# Same pattern as serve_throughput: the bench gates its own budgets
# (per-machine update/aggregate cost, bytes/machine, thread-count
# determinism, density-sweep recall) and exits nonzero on violation;
# the schema check keeps the dashboard contract stable.
(cd "$serve_tmp" && CHAOS_BENCH_FAST=1 \
    "$OLDPWD/build/bench/rollup_scale")
for key in scale update_budget_us_per_machine \
    aggregate_budget_us_per_machine memory_budget_bytes_per_machine \
    deterministic density_sweep pass; do
    grep -q "\"$key\"" "$serve_tmp/BENCH_rollup.json" || {
        echo "rollup bench: BENCH_rollup.json missing key '$key'" >&2
        exit 1
    }
done
grep -q '"pass": true' "$serve_tmp/BENCH_rollup.json" || {
    echo "rollup bench: BENCH_rollup.json did not record a pass" >&2
    exit 1
}

echo
echo "== tier 1: chaos fleetview roll-up smoke =="
# 100 synthetic machines through the roll-up tree: the dashboard must
# render the drill-down tables and every exported roll-up line must
# be one JSON object.
./build/tools/chaos fleetview --synthetic 100 --ticks 10 \
    --rollup-out "$serve_tmp/rollup.jsonl" \
    | tee "$serve_tmp/fleetview.out"
grep -q 'fleetview (root): 100 machines' "$serve_tmp/fleetview.out" || {
    echo "fleetview smoke: root summary missing" >&2
    exit 1
}
grep -q 'Drift rate' "$serve_tmp/fleetview.out" || {
    echo "fleetview smoke: drill-down table missing" >&2
    exit 1
}
[ -s "$serve_tmp/rollup.jsonl" ] || {
    echo "fleetview smoke: no roll-up export written" >&2
    exit 1
}
if grep -qv '^{.*}$' "$serve_tmp/rollup.jsonl"; then
    echo "fleetview smoke: roll-up line is not a JSON object" >&2
    exit 1
fi
grep -q '"drift_rate"' "$serve_tmp/rollup.jsonl" || {
    echo "fleetview smoke: roll-up export missing drift rates" >&2
    exit 1
}

echo
echo "== tier 1: chaos serve CLI replay smoke =="
./build/tools/chaos collect Core2 --machines 2 --runs 1 \
    --scale 0.05 --out "$serve_tmp/trace.csv" >/dev/null
./build/tools/chaos train "$serve_tmp/trace.csv" \
    --out "$serve_tmp/model.txt" --type linear >/dev/null
./build/tools/chaos serve --replay "$serve_tmp/trace.csv" \
    --model "$serve_tmp/model.txt" --platform Core2 \
    --snapshot-every 200 --snapshots-out "$serve_tmp/snaps.json"
grep -q '"cluster_w"' "$serve_tmp/snaps.json" || {
    echo "serve smoke: no fleet snapshots written" >&2
    exit 1
}

echo
echo "== tier 1: chaos serve --listen + loadgen loopback smoke =="
# End-to-end wire path through the CLI: a listening fleet server on
# an ephemeral port, a loadgen run against it, and exact accounting
# on both sides. The server exits on its own once the sample budget
# is processed (idle window as a backstop).
rm -f "$serve_tmp/port"
./build/tools/chaos serve --listen 0 --machines 4 \
    --port-file "$serve_tmp/port" \
    --ingest-max-samples 2000 --ingest-idle-ms 10000 \
    --stats-out "$serve_tmp/ingest_stats.json" \
    > "$serve_tmp/listen.out" 2>&1 &
listen_pid=$!
for _ in $(seq 1 100); do
    [ -s "$serve_tmp/port" ] && break
    sleep 0.1
done
[ -s "$serve_tmp/port" ] || {
    echo "ingest smoke: server never published its port" >&2
    kill "$listen_pid" 2>/dev/null || true
    exit 1
}
./build/tools/chaos loadgen \
    --target "127.0.0.1:$(cat "$serve_tmp/port")" \
    --connections 4 --samples 500 --machines 4 --window 256 \
    --report-json "$serve_tmp/loadgen.json" \
    | tee "$serve_tmp/loadgen.out"
wait "$listen_pid" || {
    echo "ingest smoke: serve --listen exited nonzero" >&2
    exit 1
}
grep -q 'loadgen: 2000 sent = 2000 accepted + 0 rejected' \
    "$serve_tmp/loadgen.out" || {
    echo "ingest smoke: loadgen accounting mismatch" >&2
    exit 1
}
grep -q '2000 samples accepted' "$serve_tmp/listen.out" || {
    echo "ingest smoke: server-side accounting mismatch" >&2
    cat "$serve_tmp/listen.out" >&2
    exit 1
}
grep -q '"samples_accepted": 2000' "$serve_tmp/ingest_stats.json" || {
    echo "ingest smoke: stats JSON missing accepted count" >&2
    exit 1
}
grep -q '"connections_dropped": 0' "$serve_tmp/ingest_stats.json" || {
    echo "ingest smoke: clean load dropped connections" >&2
    exit 1
}

echo
echo "== tier 1: chaos top + flight recorder smoke =="
# A monitored listening server with the flight recorder armed: first
# `chaos top --json` must return a validated live snapshot, then a
# faulted replay (stuck counters on machine0) must trip the drift
# monitor and leave exactly one diagnostic bundle — every line one
# JSON object, holding the model_drift trigger and preceding spans.
rm -f "$serve_tmp/port"
trace_rows=$(( $(wc -l < "$serve_tmp/trace.csv") - 1 ))
./build/tools/chaos serve --listen 0 \
    --port-file "$serve_tmp/port" \
    --model "$serve_tmp/model.txt" --platform Core2 --machines 2 \
    --monitor 1 --warmup 60 --window 30 \
    --flight-dir "$serve_tmp/flight" \
    --ingest-max-samples "$trace_rows" --ingest-idle-ms 10000 \
    > "$serve_tmp/flight_listen.out" 2>&1 &
listen_pid=$!
for _ in $(seq 1 100); do
    [ -s "$serve_tmp/port" ] && break
    sleep 0.1
done
[ -s "$serve_tmp/port" ] || {
    echo "top smoke: server never published its port" >&2
    kill "$listen_pid" 2>/dev/null || true
    exit 1
}
./build/tools/chaos top --json 1 \
    --target "127.0.0.1:$(cat "$serve_tmp/port")" \
    > "$serve_tmp/top.json"
for key in chaos_top fleet ingest stage_latency flight; do
    grep -q "\"$key\"" "$serve_tmp/top.json" || {
        echo "top smoke: snapshot missing key '$key'" >&2
        kill "$listen_pid" 2>/dev/null || true
        exit 1
    }
done
./build/tools/chaos loadgen \
    --target "127.0.0.1:$(cat "$serve_tmp/port")" \
    --replay "$serve_tmp/trace.csv" \
    --inject-stuck machine0 --inject-at 80 \
    | tee "$serve_tmp/flight_loadgen.out"
wait "$listen_pid" || {
    echo "top smoke: serve --listen exited nonzero" >&2
    exit 1
}
grep -q 'monitor: [1-9][0-9]* drift events' \
    "$serve_tmp/flight_listen.out" || {
    echo "flight smoke: injected fault raised no drift events" >&2
    cat "$serve_tmp/flight_listen.out" >&2
    exit 1
}
bundles=$(ls "$serve_tmp/flight"/flight-*.jsonl 2>/dev/null | wc -l)
[ "$bundles" -eq 1 ] || {
    echo "flight smoke: expected exactly 1 bundle, found $bundles" >&2
    exit 1
}
bundle=$(ls "$serve_tmp/flight"/flight-*.jsonl)
if grep -qv '^{.*}$' "$bundle"; then
    echo "flight smoke: bundle line is not a JSON object" >&2
    exit 1
fi
grep -q '"kind": "model_drift"' "$bundle" || {
    echo "flight smoke: bundle is missing the drift trigger" >&2
    exit 1
}
grep -q '"dur_ns"' "$bundle" || {
    echo "flight smoke: bundle holds no preceding spans" >&2
    exit 1
}

echo
echo "== tier 1: chaos serve --monitor replay smoke =="
./build/tools/chaos serve --replay "$serve_tmp/trace.csv" \
    --model "$serve_tmp/model.txt" --platform Core2 --monitor 1 \
    --telemetry-out "$serve_tmp/telemetry.jsonl" \
    | tee "$serve_tmp/monitor.out"
# A model replayed over its own training trace must not drift.
grep -q '^drift events: 0$' "$serve_tmp/monitor.out" || {
    echo "monitor smoke: clean replay raised drift events" >&2
    exit 1
}
# Telemetry is line-delimited JSON: every line is one object, and all
# three record types are present.
[ -s "$serve_tmp/telemetry.jsonl" ] || {
    echo "monitor smoke: no telemetry written" >&2
    exit 1
}
if grep -qv '^{.*}$' "$serve_tmp/telemetry.jsonl"; then
    echo "monitor smoke: telemetry line is not a JSON object" >&2
    exit 1
fi
for record_type in fleet quality metrics; do
    grep -q "\"type\": \"$record_type\"" "$serve_tmp/telemetry.jsonl" || {
        echo "monitor smoke: no $record_type records" >&2
        exit 1
    }
done

echo
echo "== tier 1: chaos serve --autopilot self-healing smoke =="
# Injected stuck counters on machine0: the autopilot must complete at
# least one quarantine -> retrain -> promote cycle and hand the
# machine back to serving.
./build/tools/chaos serve --replay "$serve_tmp/trace.csv" \
    --model "$serve_tmp/model.txt" --platform Core2 --autopilot 1 \
    --warmup 40 --window 30 --min-retrain-samples 32 \
    --canary-samples 16 --cooldown 30 \
    --inject-stuck machine0 --inject-at 60 \
    | tee "$serve_tmp/autopilot.out"
grep -q 'autopilot summary: quarantines=[1-9]' \
    "$serve_tmp/autopilot.out" || {
    echo "autopilot smoke: injected fault was never quarantined" >&2
    exit 1
}
grep -Eq 'promotions=[1-9]' "$serve_tmp/autopilot.out" || {
    echo "autopilot smoke: retrained model was never promoted" >&2
    exit 1
}
grep -q '| machine0 | serving' "$serve_tmp/autopilot.out" || {
    echo "autopilot smoke: machine0 did not return to serving" >&2
    exit 1
}
# A clean replay of the same trace must not remediate anything.
./build/tools/chaos serve --replay "$serve_tmp/trace.csv" \
    --model "$serve_tmp/model.txt" --platform Core2 --autopilot 1 \
    --warmup 40 --window 30 \
    | tee "$serve_tmp/autopilot_clean.out"
grep -q 'autopilot summary: quarantines=0 retrains=0 promotions=0 rollbacks=0 failures=0' \
    "$serve_tmp/autopilot_clean.out" || {
    echo "autopilot smoke: clean replay triggered remediation" >&2
    exit 1
}

echo
echo "== tier 1: fault-injection tests under ASan+UBSan =="
cmake -B build-asan -S . -DCHAOS_SANITIZE=ON >/dev/null
cmake --build build-asan -j"$(nproc)" --target test_faults test_net \
    test_flight test_obs test_models test_core test_serve \
    test_serve_alloc test_rollup
./build-asan/tests/test_faults

echo
echo "== tier 1: LASSO + Algorithm 1 tests under ASan+UBSan =="
# The covariance-form coordinate descent indexes a p x p Gram matrix
# and a column-major standardized copy of X; the oracle comparison and
# the golden Algorithm 1 output run here so an out-of-bounds index is
# fatal instead of silent.
./build-asan/tests/test_models --gtest_filter='Lasso*:FeatureSelection*'
./build-asan/tests/test_core --gtest_filter='Lasso*:FeatureSelection*'

echo
echo "== tier 1: fleet drain + snapshot ring tests under ASan+UBSan =="
# One drain pass indexes a single batch popped across every shard and
# groups it through per-machine-index arrays, and snapshot callbacks
# hold references into snapshots the bounded ring owns; an
# out-of-bounds index or a use-after-evict is fatal here. The
# roll-up's index-addressed fold runs its differential test here too.
./build-asan/tests/test_serve --gtest_filter='FleetServer*:*Registry*'
./build-asan/tests/test_serve_alloc
./build-asan/tests/test_rollup --gtest_filter='RollupDifferential*'

echo
echo "== tier 1: JSON reader corpus + mutation fuzz under ASan+UBSan =="
./build-asan/tests/test_obs

echo
echo "== tier 1: flight-recorder trigger storm under ASan+UBSan =="
# 100 concurrent triggers against live span/event/delta emitters must
# produce exactly one rate-limited bundle with no memory errors.
./build-asan/tests/test_flight

echo
echo "== tier 1: wire-protocol fuzz + ingest tests under ASan+UBSan =="
# The protocol suite mutates >10k frames and feeds garbage streams;
# under ASan any over-read in the framing state machine is fatal
# instead of silent.
./build-asan/tests/test_net

echo
echo "== tier 1: parallel tests under TSan =="
cmake -B build-tsan -S . -DCHAOS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$(nproc)" --target test_util test_core \
    test_obs test_serve test_models test_monitor test_autopilot \
    test_rollup test_net test_flight
CHAOS_THREADS=8 ./build-tsan/tests/test_util \
    --gtest_filter='ParallelTest.*:Logging.Concurrent*'
CHAOS_BENCH_FAST=1 CHAOS_THREADS=8 ./build-tsan/tests/test_core \
    --gtest_filter='ParallelDeterminism.*'
CHAOS_THREADS=8 ./build-tsan/tests/test_obs
# The flight recorder's freeze-and-dump path races four trigger
# threads against four span/delta emitters here: the ring insert,
# rate limiter, and bundle dump must be data-race-free.
CHAOS_THREADS=8 ./build-tsan/tests/test_flight

echo
echo "== tier 1: serve + serialization round-trip tests under TSan =="
CHAOS_THREADS=8 ./build-tsan/tests/test_serve
CHAOS_THREADS=8 ./build-tsan/tests/test_monitor
CHAOS_THREADS=8 ./build-tsan/tests/test_autopilot
CHAOS_THREADS=8 ./build-tsan/tests/test_rollup
# The ingest server's poll thread, the loadgen worker threads, and
# the fleet drainers all run concurrently here: the socket layer's
# stats handoff must be race-free.
CHAOS_THREADS=8 ./build-tsan/tests/test_net
CHAOS_THREADS=8 ./build-tsan/tests/test_models \
    --gtest_filter='*SerializePropertyRoundTrip*'

echo
echo "tier 1: PASS"

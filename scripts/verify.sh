#!/usr/bin/env sh
# Tier-1 verify: configure, build, and run the full ctest suite, then the
# fleet-throughput, scenario-matrix and stream-throughput smoke runs (the
# span-lane/fleet, scenario and streaming-pipeline subsystems must never
# bit-rot silently, so they run explicitly even outside ctest).  The
# benches drop their BENCH_*.json telemetry into the build directory
# (docs/BENCHMARKS.md); the files are validated as JSON when python3 is
# available.
# Usage: scripts/verify.sh [build-dir] [extra cmake args...]
set -eu

BUILD_DIR="${1:-build}"
[ "$#" -gt 0 ] && shift

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." "$@"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" -j "$JOBS" --output-on-failure

echo "== fleet bench smoke (OTF_SMOKE=1) =="
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_fleet_throughput

echo "== scenario matrix smoke (OTF_SMOKE=1) =="
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_scenario_matrix

echo "== stream pipeline smoke (OTF_SMOKE=1) =="
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_stream_throughput

echo "== escalation supervisor smoke (OTF_SMOKE=1) =="
# Exercises the --bench-dir= flag (shared by every JSON-writing bench)
# instead of OTF_BENCH_DIR; exit status enforces the escalate/confirm/
# null-silent contract.
OTF_SMOKE=1 "$BUILD_DIR"/bench/bench_escalation --bench-dir="$BUILD_DIR"

echo "== population fleet smoke (OTF_SMOKE=1) =="
# Sharded fleet-of-fleets: exit status enforces detections, full queue
# delivery, and same_counters determinism across shard/thread layouts.
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_population

echo "== replay / durable telemetry smoke (OTF_SMOKE=1) =="
# Supervised attack with the telemetry WAL attached, then a replay pass:
# exit status enforces clean recovery, zero drops and bit-identical
# confirmation verdicts (docs/ARCHITECTURE.md, durable telemetry).
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_replay

echo "== offline replay of the just-written segment =="
# The CLI must reach the same verdict as the in-process replay above.
"$BUILD_DIR"/tools/otf_replay "$BUILD_DIR"/BENCH_replay.wal --quiet

if command -v python3 >/dev/null 2>&1; then
    echo "== validating BENCH_*.json =="
    for f in "$BUILD_DIR"/BENCH_fleet.json "$BUILD_DIR"/BENCH_scenarios.json \
             "$BUILD_DIR"/BENCH_stream.json "$BUILD_DIR"/BENCH_escalation.json \
             "$BUILD_DIR"/BENCH_population.json "$BUILD_DIR"/BENCH_replay.json; do
        python3 -m json.tool "$f" >/dev/null
        echo "ok: $f"
    done

    echo "== validating otf-fleet-bench/4 schema =="
    # The fleet bench must report the /4 schema: the execution axis
    # (threaded vs fused span vs fused 64x64 tile, single worker) next
    # to the per-bit vs span lane and scaling axes (docs/BENCHMARKS.md).
    python3 - "$BUILD_DIR"/BENCH_fleet.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "otf-fleet-bench/4", doc["schema"]
assert "word_mbps" not in doc, "the word lane is gone"
assert doc["span_speedup"] > 0, doc["span_speedup"]
exe = doc["execution"]
assert exe["threads"] == 1, exe
assert exe["tile_words"] == 64, exe
for key in ("threaded_mbps", "fused_span_mbps", "fused_tile_mbps",
            "fused_tile_over_threaded"):
    assert exe[key] > 0, (key, exe)
print("ok: otf-fleet-bench/4 (fused tile %.2fx threaded)"
      % exe["fused_tile_over_threaded"])
EOF

    echo "== validating otf-population/3 schema =="
    # The population bench must report the /3 schema: the execution
    # block with the work-stealing scheduler's telemetry, the layout
    # sweep (including the threaded execution) deterministic, the span
    # lane by default, and no dead per-shard wall clock.
    python3 - "$BUILD_DIR"/BENCH_population.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "otf-population/3", doc["schema"]
assert doc["deterministic_across_layouts"] is True
assert doc["execution"]["lane"] == "span", doc["execution"]
assert all("seconds" not in s for s in doc["shards"]), doc["shards"]
exe = doc["execution"]
assert exe["model"] == "fused", exe
assert exe["worker_threads"] > 0, exe
assert exe["steal_batch_devices"] > 0, exe
assert exe["telemetry_flushes"] > 0, exe
print("ok: otf-population/3 (%d workers, %d steals, %d flushes)"
      % (exe["worker_threads"], exe["steals"], exe["telemetry_flushes"]))
EOF

    echo "== validating otf-stream-bench/4 schema =="
    # The stream bench must report the /4 schema: span kernels measured
    # against the per-bit lane, the generation axis with all six
    # adversarial models, and a streamed channel that took the zero-copy
    # window path (docs/BENCHMARKS.md).
    python3 - "$BUILD_DIR"/BENCH_stream.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "otf-stream-bench/4", doc["schema"]
assert doc["span_over_per_bit"] > 0, doc["span_over_per_bit"]
assert all("over_per_bit_lane" in k for k in doc["span_kernels"])
models = [g["model"] for g in doc["generation"]]
expected = {"rtn", "bias_drift", "lockin", "fault", "entropy_collapse",
            "substitution"}
assert set(models) == expected and len(models) == 6, models
assert doc["zero_copy_windows"] == doc["windows"], (
    doc["zero_copy_windows"], doc["windows"])
assert doc["batch_sweep"], "batch_sweep must not be empty"
print("ok: otf-stream-bench/4 (%d generation models, %d zero-copy windows)"
      % (len(models), doc["zero_copy_windows"]))
EOF
fi

echo "== Release perf guard: fused vs threaded fleet execution =="
# A separate Release build runs the fleet bench with the enforcement
# flag: the fused 64x64 tile lane must not fall behind the threaded
# ring pipeline on a single worker (coarse >= 1.0x bar; full runs track
# the >= 1.3x tile acceptance in BENCH_fleet.json), and the fused span
# lane must stay within scheduling noise of it (>= 0.7x).
PERF_DIR="$BUILD_DIR-perfguard"
cmake -B "$PERF_DIR" -S "$(dirname "$0")/.." -DCMAKE_BUILD_TYPE=Release \
    -DOTF_BUILD_EXAMPLES=OFF
cmake --build "$PERF_DIR" -j "$JOBS" --target bench_fleet_throughput
OTF_SMOKE=1 OTF_ENFORCE_FUSED_BAR=1 OTF_BENCH_DIR="$PERF_DIR" \
    "$PERF_DIR"/bench/bench_fleet_throughput

#!/usr/bin/env sh
# Tier-1 verify: configure, build, and run the full ctest suite, then the
# fleet-throughput, scenario-matrix and stream-throughput smoke runs (the
# span-lane/fleet, scenario and window-loop subsystems must never bit-rot
# silently, so they run explicitly even outside ctest).  The
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

echo "== window loop / stream bench smoke (OTF_SMOKE=1) =="
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_stream_throughput

echo "== escalation supervisor smoke (OTF_SMOKE=1) =="
# Exercises the --bench-dir= flag (shared by every JSON-writing bench)
# instead of OTF_BENCH_DIR; exit status enforces the escalate/confirm/
# null-silent contract.
OTF_SMOKE=1 "$BUILD_DIR"/bench/bench_escalation --bench-dir="$BUILD_DIR"

echo "== population fleet smoke (OTF_SMOKE=1) =="
# Sharded fleet-of-fleets: exit status enforces detections, every device
# and window aggregated, and same_counters determinism across shard/thread
# layouts.
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

    echo "== validating what ran =="
    # Every BENCH JSON records the dispatched bits kernel variant and
    # whether the AVX2 kernels were compiled in.
    python3 - "$BUILD_DIR" <<'EOF'
import json, os, sys
for name in ("fleet", "scenarios", "stream", "escalation", "population",
             "replay"):
    with open(os.path.join(sys.argv[1], "BENCH_%s.json" % name)) as f:
        doc = json.load(f)
    assert doc["kernel_variant"] in ("reference", "portable", "simd"), (
        name, doc.get("kernel_variant"))
    assert isinstance(doc["simd_compiled"], bool), name
print("ok: kernel_variant + simd_compiled in all six BENCH files")
EOF

    echo "== validating otf-fleet-bench/5 schema =="
    # The fleet bench must report the /5 schema: the per-bit vs span lane
    # and scaling axes plus the single-worker fused span vs fused 64x64
    # tile pair -- and no execution axis (docs/BENCHMARKS.md).
    python3 - "$BUILD_DIR"/BENCH_fleet.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "otf-fleet-bench/5", doc["schema"]
assert "word_mbps" not in doc, "the word lane is gone"
assert "execution" not in doc, "the execution axis is gone"
assert doc["span_speedup"] > 0, doc["span_speedup"]
one = doc["single_worker"]
assert one["threads"] == 1, one
assert one["tile_words"] == 64, one
for key in ("fused_span_mbps", "fused_tile_mbps", "fused_tile_over_span"):
    assert one[key] > 0, (key, one)
assert not any("threaded" in k for k in one), one
print("ok: otf-fleet-bench/5 (fused tile %.2fx span)"
      % one["fused_tile_over_span"])
EOF

    echo "== validating otf-population/5 schema =="
    # The population bench must report the /5 schema: the execution
    # block (model, lane, pool size), the layout sweep deterministic,
    # the span lane by default, and none of the deleted scheduler keys
    # (steal batch, steals, telemetry flushes, the queue block) nor the
    # stall fields or dead per-shard wall clock.
    python3 - "$BUILD_DIR"/BENCH_population.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "otf-population/5", doc["schema"]
assert doc["deterministic_across_layouts"] is True
assert doc["execution"]["lane"] == "span", doc["execution"]
assert "queue" not in doc, "the aggregation queue is gone"
for s in doc["shards"]:
    assert "seconds" not in s, s
    assert "producer_stalls" not in s and "consumer_stalls" not in s, s
exe = doc["execution"]
assert exe["model"] == "fused", exe
assert exe["worker_threads"] > 0, exe
for key in ("steal_batch_devices", "steals", "telemetry_flushes"):
    assert key not in exe, (key, exe)
assert sum(k["devices"] for k in doc["by_kind"]) == doc["devices"], doc
assert doc["windows"] == doc["devices"] * doc["windows_per_device"], doc
print("ok: otf-population/5 (%d workers)" % exe["worker_threads"])
EOF

    echo "== validating otf-stream-bench/5 schema =="
    # The stream bench must report the /5 schema: span kernels measured
    # against the per-bit lane and the generation axis with all six
    # adversarial models -- and no streamed, zero-copy, batch-sweep or
    # ring keys (docs/BENCHMARKS.md).
    python3 - "$BUILD_DIR"/BENCH_stream.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "otf-stream-bench/5", doc["schema"]
assert doc["span_over_per_bit"] > 0, doc["span_over_per_bit"]
assert all("over_per_bit_lane" in k for k in doc["span_kernels"])
models = [g["model"] for g in doc["generation"]]
expected = {"rtn", "bias_drift", "lockin", "fault", "entropy_collapse",
            "substitution"}
assert set(models) == expected and len(models) == 6, models
for key in ("streamed_mwords_per_s", "streamed_over_fused",
            "zero_copy_windows", "batch_sweep", "channel_ring"):
    assert key not in doc, key
assert all("stalls" not in k for p in doc["fleet"] for k in p), doc["fleet"]
print("ok: otf-stream-bench/5 (%d generation models)" % len(models))
EOF
fi

echo "== Release perf guard: fused tile vs fused span fleet lane =="
# A separate Release build runs the fleet bench with the enforcement
# flag: on a single worker the fused 64x64 tile lane must not fall
# behind the fused span lane on the same channels (fused_tile_over_span
# >= 1.0 in BENCH_fleet.json).
PERF_DIR="$BUILD_DIR-perfguard"
cmake -B "$PERF_DIR" -S "$(dirname "$0")/.." -DCMAKE_BUILD_TYPE=Release \
    -DOTF_BUILD_EXAMPLES=OFF
cmake --build "$PERF_DIR" -j "$JOBS" --target bench_fleet_throughput
OTF_SMOKE=1 OTF_ENFORCE_FUSED_BAR=1 OTF_BENCH_DIR="$PERF_DIR" \
    "$PERF_DIR"/bench/bench_fleet_throughput

#!/usr/bin/env sh
# Tier-1 verify: configure, build, and run the full ctest suite, then the
# smoke runs of the five JSON-writing benches (scenario matrix, stream
# throughput, escalation, population and replay: those subsystems must
# never bit-rot silently, so they run explicitly even outside ctest) and
# an offline replay of the segments the replay bench wrote.  The benches
# drop their BENCH_*.json telemetry into the build directory
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

echo "== offline replay of the just-written segments =="
# The CLI must reach the same verdict as the in-process replay above, on
# the full-capture segment and on the transitions-only one (whose
# confirmations replay from the escalation checkpoints' evidence rings).
"$BUILD_DIR"/tools/otf_replay "$BUILD_DIR"/BENCH_replay.wal --quiet
"$BUILD_DIR"/tools/otf_replay "$BUILD_DIR"/BENCH_replay_events.wal --quiet

if command -v python3 >/dev/null 2>&1; then
    echo "== validating BENCH_*.json =="
    for f in "$BUILD_DIR"/BENCH_scenarios.json "$BUILD_DIR"/BENCH_stream.json \
             "$BUILD_DIR"/BENCH_escalation.json \
             "$BUILD_DIR"/BENCH_population.json "$BUILD_DIR"/BENCH_replay.json; do
        python3 -m json.tool "$f" >/dev/null
        echo "ok: $f"
    done

    echo "== validating what ran =="
    # Every BENCH JSON records the dispatched bits kernel variant, whether
    # the x86-64-v3 clone is in the binary and the ISA the variant runs.
    python3 - "$BUILD_DIR" <<'EOF'
import json, os, sys
for name in ("scenarios", "stream", "escalation", "population", "replay"):
    with open(os.path.join(sys.argv[1], "BENCH_%s.json" % name)) as f:
        doc = json.load(f)
    assert doc["kernel_variant"] in ("reference", "portable", "simd"), (
        name, doc.get("kernel_variant"))
    assert isinstance(doc["simd_compiled"], bool), name
    assert doc["kernel_isa"] in ("x86-64-v3", "x86-64", "baseline"), (
        name, doc.get("kernel_isa"))
    assert (doc["kernel_isa"] == "x86-64-v3") == (
        doc["kernel_variant"] == "simd"), name
print("ok: kernel_variant + simd_compiled + kernel_isa in all five BENCH files")
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

    echo "== validating otf-stream-bench/7 schema =="
    # The stream bench must report the /7 schema: span kernels measured
    # against the per-bit lane, the generation axis with one rate for each
    # of the six adversarial models, the fleet-scaling axis (non-empty,
    # every point moving bits) and the n = 128 short-window section -- and
    # no streamed, zero-copy, batch-sweep or ring keys, and no
    # scalar/batched generation lanes (docs/BENCHMARKS.md).
    # The bench itself exits nonzero unless each short run's first window
    # reproduces the golden sw16 accounting (tests/support/sw_golden.hpp).
    python3 - "$BUILD_DIR"/BENCH_stream.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "otf-stream-bench/7", doc["schema"]
assert doc["span_over_per_bit"] > 0, doc["span_over_per_bit"]
assert all("over_per_bit_lane" in k for k in doc["span_kernels"])
models = [g["model"] for g in doc["generation"]]
expected = {"rtn", "bias_drift", "lockin", "fault", "entropy_collapse",
            "substitution"}
assert set(models) == expected and len(models) == 6, models
for g in doc["generation"]:
    assert g["mwords_per_s"] > 0, g
    for key in ("scalar_mwords_per_s", "batched_mwords_per_s", "speedup"):
        assert key not in g, (key, g)
assert "generation_min_speedup" not in doc
for key in ("streamed_mwords_per_s", "streamed_over_fused",
            "zero_copy_windows", "batch_sweep", "channel_ring"):
    assert key not in doc, key
assert doc["fleet"] and all(p["mbps"] > 0 for p in doc["fleet"]), doc["fleet"]
assert all("stalls" not in k for p in doc["fleet"] for k in p), doc["fleet"]
short = doc["short_windows"]
assert [p["design"] for p in short] == ["n=128 light", "n=128 medium"], short
for p in short:
    assert p["window_bits"] == 128 and p["windows"] > 0, p
    for key in ("mbit_per_s", "close_us_per_window", "sw_ops_per_window",
                "sw_cycles_per_window"):
        assert p[key] > 0, (key, p)
    assert p["golden_ops_match"] is True, p
print("ok: otf-stream-bench/7 (%d generation models, short windows %s)"
      % (len(models), ", ".join("%.1f Mbit/s" % p["mbit_per_s"]
                                for p in short)))
EOF
fi

#!/usr/bin/env python3
"""Repository benchmark: builds the platform from source and measures it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload monitor-high64k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Workloads: monitor-high64k, monitor-light128, population-esc128 (see
perfbench/NOTES.md).  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/)
inside the checkout, RelWithDebInfo like the repository's default build.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("monitor-high64k", "monitor-light128", "population-esc128")
END_TO_END = ("setup_s", "norm_mbit_per_s", "norm_cpu_ns_per_bit",
              "peak_rss_mib")
# Cold constructions per run, each in a fresh process: the critical-value
# and approximate-entropy caches are process-wide, so only a first
# construction shows their cost.
SETUP_SAMPLES = 11
# Scaling constant of the host-speed reference (ref_kernel_nominal_ms in
# harness.hpp): setup_s, like the rates, is reported scaled to a host on
# which the reference kernel takes this long.
REF_KERNEL_NOMINAL_MS = 10.0
# Known population crash reproducer small enough for the self-test: the
# population with this master seed throws on device 92 (healthy) from the
# escalation's offline battery.
CRASH_MASTER_SEED = 78
CRASH_DEVICES = 128


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no platform sources at src/ next to "
                         "perfbench/; run from the root of a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j",
                        str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "otf_perfbench")


def run_binary(binary, args, timeout):
    """Runs the measuring binary; returns its stdout lines (stderr passes
    through).  subprocess.run kills and reaps it on timeout."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(args)} exited with "
                         f"{proc.returncode}")
    return proc.stdout.splitlines()


def setup_samples(binary, workload, seed, extra, count):
    """Cold constructions, each in a fresh process: (seconds, seconds
    scaled to the nominal host speed) per sample."""
    samples = []
    for _ in range(count):
        lines = run_binary(binary, ["--workload", workload, "--seed",
                                    str(seed), "--setup-only"] + extra, 60)
        fields = lines[-1].split()
        raw, ref_ms = float(fields[1]), float(fields[3])
        samples.append((raw, raw * REF_KERNEL_NOMINAL_MS / ref_ms))
    return samples


def measure(binary, workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns (printed lines, summary dict)."""
    extra = list(extra)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0"] + extra
    # Set-up samples straddle the measurement, so a slow spell of the host
    # lands on only some of them.
    samples = [] if trace else setup_samples(binary, workload, seed, extra,
                                             SETUP_SAMPLES // 2)
    lines = run_binary(binary, args, max(150.0, 4 * seconds + 60))
    summary = json.loads(lines[-1])
    out = lines[:-1]
    if not trace:
        samples += setup_samples(binary, workload, seed, extra,
                                 SETUP_SAMPLES - len(samples))
        setup = statistics.median(norm for _, norm in samples)
        metrics = {"setup_s": {"value": setup, "unit": "s"}}
        metrics.update(summary["metrics"])
        summary["metrics"] = metrics
        out.append(f"metric setup_s = {setup!r} s")
        raw = [r for r, _ in samples]
        out.append(f"note setup_s_raw = {statistics.median(raw)!r} s "
                   f"({len(raw)} samples, min {min(raw)!r}, "
                   f"max {max(raw)!r})")
    return out, summary


def self_test(binary):
    """Toy-size checks of the benchmark itself."""
    failures = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    # The metrics each mode must print, with their units, as BENCHMARK.json
    # declares them (when the checkout has one).
    declared = {False: None, True: None}
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec):
        with open(spec) as f:
            bench = json.load(f)
        declared = {trace: {m["name"]: m["unit"] for m in bench[key]}
                    for trace, key in ((False, "end_to_end"),
                                       (True, "per_layer"))}
    for workload in WORKLOADS:
        for trace in (False, True):
            _, s = measure(binary, workload, 7, 1, trace, ["--toy"])
            units = {name: m["unit"] for name, m in s["metrics"].items()}
            finite = all(math.isfinite(m["value"])
                         for m in s["metrics"].values())
            want = declared[trace]
            check(s["correct"] and s["failed"] == 0 and s["attempted"] > 0
                  and finite and (want is None or units == want)
                  and (trace or set(units) == set(END_TO_END)),
                  f"{workload} trace={int(trace)} runs clean "
                  f"({len(units)} metrics)")
    for workload in ("monitor-light128", "population-esc128"):
        _, s = measure(binary, workload, 7, 1, False,
                       ["--toy", "--corrupt-verdict"])
        check(not s["correct"] and s["failed"] > 0,
              f"{workload}: a corrupted verdict is caught "
              f"(failed={s['failed']})")
    _, s = measure(binary, "population-esc128", 7, 1, False,
                   ["--toy", "--master-seed", str(CRASH_MASTER_SEED),
                    "--devices", str(CRASH_DEVICES)])
    check(not s["correct"] and s["failed"] >= CRASH_DEVICES * 16,
          f"a throwing population run is counted, not fatal "
          f"(failed={s['failed']} of {s['attempted']})")
    if failures:
        raise SystemExit(f"perfbench: self-test failed: {failures}")
    log("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        self_test(binary)
        return
    lines, summary = measure(binary, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()

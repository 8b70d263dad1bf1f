#!/usr/bin/env python3
"""Run one workload of the repository benchmark (perfbench/README.md).

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scale|dis|kv|chaos --seed N \
        --seconds S --trace 0|1

Builds the benchmark binary and the simulator sources into
.bench_build/perfbench, then runs the workload repeatedly on the same seed
for about S seconds, each repetition in a fresh process. Host metrics are
medians over the repetitions; simulated metrics are exact for a seed, and
every repetition must reproduce them bit for bit (same digest). With
--trace 1 the last repetition sets RuntimeConfig::trace and the per-layer
metrics are reported, with the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 when every output
check passed and nonzero otherwise.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "xlupc_perfbench")
WORKLOADS = ("scale", "dis", "kv", "chaos")

# Host-time metrics: medians over repetitions. Everything else is
# simulated and must repeat exactly.
HOST_E2E = ("setup_s", "run_s", "peak_rss_mb")
HOST_LAYERS = ("sim.host_ns_per_event", "core.ctor_s", "core.alloc_s",
               "core.warm_s", "core.report_s", "core.teardown_s",
               "core.ctor_heap_mb", "svd.replica_build_us",
               "svd.replica_heap_kb")
MIN_REPS = 3
# A repetition still going after this long is ended as failed; the
# binary's own watchdog fires first, at 100 s.
CHILD_TIMEOUT_S = 120


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.h")):
        die("simulator sources not found under %s/src; run from the root "
            "of a checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def run_once(workload, seed, trace):
    """One repetition in its own process; returns (result, seconds)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": "timeout"}, time.monotonic() - t0
    elapsed = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "error": "no result"}
    if p.returncode != 0:
        result["correct"] = False
    return result, elapsed


def value(result, section, name):
    return result[section][name]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    deadline = time.monotonic() + args.seconds
    reps, durations = [], []
    while True:
        result, dur = run_once(args.workload, args.seed, False)
        reps.append(result)
        durations.append(dur)
        if not result.get("correct"):
            break
        # The traced repetition runs longer; keep room for it.
        reserve = statistics.median(durations) * (2.5 if args.trace else 1.0)
        if len(reps) >= MIN_REPS and time.monotonic() + reserve > deadline:
            break
    traced = None
    if args.trace and reps[-1].get("correct"):
        traced, _ = run_once(args.workload, args.seed, True)
        reps.append(traced)

    first = reps[0]
    problems = [r.get("error") for r in reps if not r.get("correct")]
    digests = {r.get("digest") for r in reps}
    if len(digests) != 1:
        problems.append("simulated outputs differ between repetitions "
                        "of one seed: digests %s" % sorted(map(str, digests)))
    correct = not problems
    untraced = [r for r in reps if r is not traced and r.get("correct")]

    metrics = {}
    if correct:
        if args.trace:
            for name, m in traced["layers"].items():
                metrics[name] = dict(m)
            for name in HOST_LAYERS:
                if name in metrics:
                    metrics[name]["value"] = statistics.median(
                        value(r, "layers", name) if name in r["layers"]
                        else metrics[name]["value"] for r in untraced)
            metrics["trace.overhead_s"] = {
                "value": value(traced, "metrics", "run_s") -
                statistics.median(value(r, "metrics", "run_s")
                                  for r in untraced),
                "unit": "s"}
            spans = os.path.join(BUILD, "spans-%s-%d.json" %
                                 (args.workload, args.seed))
            with open(spans, "w") as f:
                json.dump([{"trace": r is traced, "spans": r["spans"]}
                           for r in reps], f, indent=1)
        else:
            for name, m in first["metrics"].items():
                metrics[name] = dict(m)
            for name in HOST_E2E:
                metrics[name]["value"] = statistics.median(
                    value(r, "metrics", name) for r in untraced)

    for p in problems:
        print("run.py: check failed: %s" % p, file=sys.stderr)
    print("run.py: %s seed %d: %d repetitions, %s, simulated-output "
          "digest %s" % (args.workload, args.seed, len(reps),
                         "correct" if correct else "INCORRECT",
                         first.get("digest")), file=sys.stderr)
    attempted = max(1, int(first.get("attempted", 0)))
    failed = max(int(r.get("failed", 0)) for r in reps)
    if not correct and failed == 0:
        failed = attempted  # ended or diverged: no op is known good
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/bin/sh
# Simulator-core performance gate (docs/PERFORMANCE.md,
# .github/workflows/ci.yml "perf-smoke").
#
# Runs bench/simspeed (including the 4096-node scale probe) and compares
# the fresh report against the committed perf trajectory
# BENCH_simspeed.json at the repo root:
#
#   1. Event counts must match the committed report EXACTLY, workload by
#      workload. Simulations are deterministic; any drift means the
#      change altered simulated behaviour, not just speed.
#   2. Events-per-wall-second must stay above a very generous floor
#      (default 0.2x the committed figure). Wall clock on shared CI
#      runners is noisy — this only catches order-of-magnitude
#      regressions (an accidental O(n^2), a debug build, the pool
#      disabled); tighter tracking is done by updating the committed
#      report deliberately and reviewing the diff.
#   3. The process's peak RSS (metrics.peak_rss_mb, VmHWM) must stay
#      below a ceiling that is just as generous, 1.5x the committed
#      figure: it catches per-node or per-thread state that grows by a
#      structure, not allocator noise.
#
# Usage: tools/perfcheck.sh <build-dir> [min-ratio]
set -eu

build=${1:?usage: perfcheck.sh <build-dir> [min-ratio]}
min_ratio=${2:-0.2}

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
committed="$repo_root/BENCH_simspeed.json"
[ -f "$committed" ] || {
  echo "perfcheck: missing $committed" >&2
  exit 1
}

if ! command -v python3 >/dev/null 2>&1; then
  echo "perfcheck: python3 not available, skipping" >&2
  exit 0
fi

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

"$build"/bench/simspeed --scale-probe --json "$fresh"

python3 - "$committed" "$fresh" "$min_ratio" <<'EOF'
import json
import sys

committed_path, fresh_path, min_ratio = sys.argv[1], sys.argv[2], float(sys.argv[3])
max_rss_ratio = 1.5

def load(path):
    with open(path) as f:
        return json.load(f)

committed_doc = load(committed_path)
fresh_doc = load(fresh_path)
committed = {row["workload"]: row for row in committed_doc["results"]}
fresh = {row["workload"]: row for row in fresh_doc["results"]}
status = 0

want_rss = committed_doc["metrics"].get("peak_rss_mb")
got_rss = fresh_doc["metrics"].get("peak_rss_mb")
if want_rss is None or got_rss is None:
    print("perfcheck: peak_rss_mb missing from the committed or the fresh "
          "report", file=sys.stderr)
    status = 1
elif float(got_rss) > float(want_rss) * max_rss_ratio:
    print(f"perfcheck: peak RSS {got_rss} MB, above {max_rss_ratio}x the "
          f"committed {want_rss} MB", file=sys.stderr)
    status = 1

for workload, row in sorted(committed.items()):
    if workload not in fresh:
        print(f"perfcheck: workload {workload} missing from fresh run",
              file=sys.stderr)
        status = 1
        continue
    want, got = row["events"], fresh[workload]["events"]
    if want != got:
        print(f"perfcheck: {workload} event count drifted: "
              f"committed {want}, fresh {got}", file=sys.stderr)
        status = 1
    want_eps = float(row["Mev/s"])
    got_eps = float(fresh[workload]["Mev/s"])
    if got_eps < want_eps * min_ratio:
        print(f"perfcheck: {workload} at {got_eps} Mev/s, "
              f"below {min_ratio}x the committed {want_eps} Mev/s",
              file=sys.stderr)
        status = 1

if status == 0:
    print("perfcheck: event counts exact, throughput and peak RSS within "
          "bounds")
sys.exit(status)
EOF

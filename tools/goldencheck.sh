#!/bin/sh
# Golden bench-report byte-compare (docs/OBSERVABILITY.md,
# .github/workflows/ci.yml "perf-smoke", ctest -R goldencheck).
#
# Regenerates every committed BENCH_<name>.json golden (except the
# wall-clock simspeed trajectory, which tools/perfcheck.sh gates with
# its own tolerance) and fails on any byte difference. The sweeps are
# pure simulation, so a diff means behaviour changed — regenerate the
# golden deliberately and review the diff:
#
#   build/bench/<name> --seed 1 --json BENCH_<name>.json
#
# atomics_sweep and kvstore_sweep run with the fabric disabled
# (infinite buffers), so this doubles as the gate that the
# congestion-aware fabric stays byte-invisible when off
# (docs/FABRIC.md); congestion_sweep pins the finite-buffer incast and
# routing-policy tables themselves. scale_probe pins the 512-2048-node
# table, so the address-cache warm-up and the SVD replicas must keep
# their exact simulated behaviour at scale.
#
# Usage: tools/goldencheck.sh <build-dir>
set -eu

build=${1:?usage: goldencheck.sh <build-dir>}

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

status=0
for name in atomics_sweep kvstore_sweep congestion_sweep scale_probe; do
  committed="$repo_root/BENCH_$name.json"
  if [ ! -f "$committed" ]; then
    echo "goldencheck: missing $committed" >&2
    status=1
    continue
  fi
  "$build/bench/$name" --seed 1 --json "$fresh" > /dev/null
  if cmp -s "$committed" "$fresh"; then
    echo "goldencheck: $name matches the committed golden"
  else
    echo "goldencheck: $name drifted from the committed golden:" >&2
    diff "$committed" "$fresh" >&2 || true
    status=1
  fi
done
exit $status

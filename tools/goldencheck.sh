#!/bin/sh
# Golden bench-report byte-compare (docs/OBSERVABILITY.md,
# .github/workflows/ci.yml "perf-smoke", ctest -R goldencheck).
#
# Reruns every golden listed in tests/golden/manifest.txt (golden file,
# bench, arguments; the wall-clock simspeed trajectory is not one of
# them — tools/perfcheck.sh gates it with its own tolerance) and fails
# on any byte difference. Each bench runs with --jobs 4, so the benches
# that spread independent runs over host threads are held to the bytes
# of their serial run. The benches are pure simulation, so a diff
# means behaviour changed — regenerate the golden deliberately with the
# manifest's command and review the diff, e.g.:
#
#   build/bench/<name> --seed 1 --json BENCH_<name>.json
#
# atomics_sweep and kvstore_sweep run with the fabric disabled
# (infinite buffers), so this doubles as the gate that the
# congestion-aware fabric stays byte-invisible when off
# (docs/FABRIC.md); congestion_sweep pins the finite-buffer incast and
# routing-policy tables themselves. scale_probe pins the 512-2048-node
# table, so the address-cache warm-up and the SVD replicas must keep
# their exact simulated behaviour at scale; fig8, fig9, app_benchmarks
# and the pinning and resolution ablations pin the rest of the paper's
# figures and design-space tables. The --machine ib sweeps pin
# the verbs steps of the shared transport protocol (inline sends, RNR
# retry, queue-pair fencing, timeouts), fig6 the GM/LAPI eager and
# rendezvous paths.
#
# Usage: tools/goldencheck.sh <build-dir>
#        tools/goldencheck.sh --targets   # the bench targets it needs
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
manifest="$repo_root/tests/golden/manifest.txt"

# The manifest's data lines: golden, bench, args.
entries() {
  grep -v -e '^#' -e '^[[:space:]]*$' "$manifest"
}

if [ "${1:-}" = "--targets" ]; then
  entries | awk '{ print $2 }' | sort -u
  exit 0
fi

build=${1:?usage: goldencheck.sh <build-dir> | --targets}

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

status=0
while read -r golden name args; do
  committed="$repo_root/$golden"
  if [ ! -f "$committed" ]; then
    echo "goldencheck: missing $committed" >&2
    status=1
    continue
  fi
  # shellcheck disable=SC2086  # args is intentionally word-split
  "$build/bench/$name" $args --jobs 4 --json "$fresh" > /dev/null < /dev/null
  if cmp -s "$committed" "$fresh"; then
    echo "goldencheck: $golden matches ($name $args)"
  else
    echo "goldencheck: $golden drifted ($name $args):" >&2
    diff "$committed" "$fresh" >&2 || true
    status=1
  fi
done <<EOT
$(entries)
EOT
exit $status

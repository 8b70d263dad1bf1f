#!/bin/sh
# Golden bench-report byte-compare (docs/OBSERVABILITY.md, ctest -R
# goldencheck): the one replay gate.
#
# Runs every line of tests/golden/manifest.txt (golden file, bench,
# arguments) and fails on any byte difference from the committed golden.
# Each bench runs with --jobs 4, so the benches that spread independent
# runs over host threads are held to the bytes of their serial run. The
# benches are pure simulation, so a diff means behaviour changed —
# regenerate the golden deliberately with the manifest's command and
# review the diff, e.g.:
#
#   build/bench/<name> --seed 1 --jobs 1 --json tests/golden/<name>.json
#
# A line whose golden is `-` only has to exit 0 and write a report, which
# is not compared. A bench that exits nonzero is named with its
# arguments and fails the check, which goes on to the next line. Every
# executable under <build-dir>/bench needs a manifest line
# (micro_datastructures, a google-benchmark binary, is exempt), so a new
# bench cannot go unchecked. The wall-clock simspeed trajectory is gated
# by tools/perfcheck.sh with its own tolerance.
#
# Usage: tools/goldencheck.sh <build-dir>
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
manifest="$repo_root/tests/golden/manifest.txt"
build=${1:?usage: goldencheck.sh <build-dir>}

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

status=0
# The benches with a manifest line, plus the exempt one.
listed=" micro_datastructures "
while read -r golden name args; do
  listed="$listed$name "
  committed="$repo_root/$golden"
  if [ "$golden" != "-" ] && [ ! -f "$committed" ]; then
    echo "goldencheck: missing $committed" >&2
    status=1
    continue
  fi
  : > "$fresh"
  rc=0
  # shellcheck disable=SC2086  # args is intentionally word-split
  "$build/bench/$name" $args --jobs 4 --json "$fresh" > /dev/null \
    < /dev/null || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "goldencheck: $name $args exited with status $rc" >&2
    status=1
  elif [ "$golden" = "-" ]; then
    if [ -s "$fresh" ]; then
      echo "goldencheck: $name $args ran (no golden)"
    else
      echo "goldencheck: $name $args wrote no report" >&2
      status=1
    fi
  elif cmp -s "$committed" "$fresh"; then
    echo "goldencheck: $golden matches ($name $args)"
  else
    echo "goldencheck: $golden drifted ($name $args):" >&2
    diff "$committed" "$fresh" >&2 || true
    status=1
  fi
done <<EOT
$(grep -v -e '^#' -e '^[[:space:]]*$' "$manifest")
EOT

for bin in "$build"/bench/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  case "$listed" in
    *" $(basename "$bin") "*) ;;
    *)
      echo "goldencheck: $bin has no line in $manifest" >&2
      status=1
      ;;
  esac
done
exit $status

#!/bin/sh
# Byte-compare the simulated output of two builds' benches.
#
# A change that should not move simulated behaviour (a refactor, a host
# speed-up) must leave every bench's table and --json report identical
# to those of a build of the parent commit. This runs each deterministic
# bench in both builds and compares stdout and the report byte for byte:
#
#   * every bench at seed 1 (`--seed 1` where the bench takes it, no
#     arguments otherwise);
#   * every bench that takes --machine, on gm, lapi and ib, at seed 1;
#   * the benches whose fault plan takes its seed from --seed, at seed
#     42, on the default machine and on gm, lapi and ib.
#
# Flags are found by reading each bench's source. Skipped: simspeed and
# micro_datastructures, which measure host time, and ablation_protocols,
# whose report follows the host allocator (the initiator's registration
# cache is keyed by a heap buffer's address).
#
# Usage: tools/benchdiff.sh <parent-build> <build>
#
# Prints one `same` or `DIFF` line per run and exits 1 on any
# difference. Build the parent in a separate checkout, e.g.
#   git clone <repo> /tmp/parent && git -C /tmp/parent checkout <commit>
#   cmake -B /tmp/parent/build -S /tmp/parent && cmake --build /tmp/parent/build
set -eu

usage="usage: benchdiff.sh <parent-build> <build>"
parent=${1:?$usage}
build=${2:?$usage}
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/build"

runs=0
diffs=0

# run_side <build-dir> <out-dir> <bench> <args...>: table and report,
# with a nonzero exit status recorded in the table.
run_side() {
  dir=$1 out=$2 name=$3
  shift 3
  if [ ! -x "$dir/bench/$name" ]; then
    echo "missing $dir/bench/$name" > "$out/table"
    return
  fi
  rm -f "$out/report.json"
  "$dir/bench/$name" "$@" --json "$out/report.json" > "$out/table" 2>&1 \
    < /dev/null || echo "exit status $?" >> "$out/table"
}

# compare <bench> <args...>: run both builds side by side and compare.
compare() {
  run_side "$parent" "$work/parent" "$@" &
  run_side "$build" "$work/build" "$@" &
  wait
  runs=$((runs + 1))
  if cmp -s "$work/parent/table" "$work/build/table" &&
     cmp -s "$work/parent/report.json" "$work/build/report.json"; then
    echo "same  $*"
  else
    echo "DIFF  $*"
    diffs=$((diffs + 1))
  fi
}

for src in "$repo_root"/bench/*.cpp; do
  name=$(basename "$src" .cpp)
  case "$name" in
    simspeed|micro_datastructures|ablation_protocols) continue ;;
  esac
  seeded=false machine=false faulty=false
  grep -q '"--seed"' "$src" && seeded=true
  grep -q '"--machine"' "$src" && machine=true
  grep -q 'faults\.seed = seed' "$src" && faulty=true
  if $seeded; then compare "$name" --seed 1; else compare "$name"; fi
  if $machine; then
    for m in gm lapi ib; do compare "$name" --machine "$m" --seed 1; done
  fi
  if $faulty; then
    compare "$name" --seed 42
    for m in gm lapi ib; do compare "$name" --machine "$m" --seed 42; done
  fi
done

echo "benchdiff: $runs runs, $diffs differ"
[ "$diffs" -eq 0 ]

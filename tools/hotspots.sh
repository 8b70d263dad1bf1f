#!/bin/sh
# Host hot spots of a command, by SIGPROF sampling (docs/PERFORMANCE.md).
#
# Builds tools/hotspots_sampler.c into a preloadable library, runs the
# command under it, symbolizes the samples with addr2line and prints two
# tables. The sampler asks for one sample per millisecond of CPU time,
# but the kernel delivers them at its timer tick (often every 4 ms): the
# first line gives the measured interval, the profiled processes' CPU
# seconds divided by their samples. The tables are:
#   self       each sample goes to the innermost function at the sampled
#              PC (an inlined callee counts as itself);
#   inclusive  each sample goes once to every function on the PC's inline
#              chain and on the inline chains of up to 6 return addresses
#              found through the frame-pointer chain.
# With -m it reports heap instead of time: the library replaces operator
# new and delete, and the tables weigh each allocation site by its live
# bytes at the operator-new heap's peak (MB per process):
#   site       the first function on the site's chain that is not
#              allocator machinery (std::, __gnu_cxx::, operator new);
#   inclusive  every function on the chain, once.
# Build the profiled binary with -g -fno-omit-frame-pointer; without frame
# pointers the inclusive table sees little more than the PC. Code in a
# stripped library (libc's string and malloc internals) is named after
# the nearest exported symbol before it, e.g. __nss_database_lookup.
#
# Usage: tools/hotspots.sh [-m] [-n TOP] [-s SEEDS] [-g REGEX]... [-k FILE]
#                          -- CMD [ARG...]
#   -m        live heap bytes per allocation site at the peak, not time
#   -n TOP    rows per table (default 25)
#   -s SEEDS  comma-separated seeds: runs CMD once per seed with every
#             "{seed}" in its arguments replaced, and pools the samples
#   -g REGEX  also print the self and inclusive share of all functions
#             matching REGEX (Python syntax; repeatable)
#   -k FILE   keep the raw samples in FILE (default: a temporary file);
#             with no CMD, report the samples already in FILE
#
# Example, perfbench `scale` pooled over three seeds:
#   cmake -S perfbench -B build-prof -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer"
#   cmake --build build-prof -j4
#   tools/hotspots.sh -s 1,3,4 -g AddressCache -- \
#       build-prof/xlupc_perfbench --workload scale --seed {seed}
# and its heap at the peak, with the event queue's share:
#   tools/hotspots.sh -m -g EventQueue -- \
#       build-prof/xlupc_perfbench --workload scale --seed 1
#
# Samples differ from run to run, so this is a diagnostic, not a ctest.
set -eu

top=25
seeds=
groups=
keep=
memory=
while getopts mn:s:g:k: opt; do
  case $opt in
    m) memory=-DHOTSPOTS_MEMORY ;;
    n) top=$OPTARG ;;
    s) seeds=$OPTARG ;;
    g) groups="$groups$OPTARG
" ;;
    k) keep=$OPTARG ;;
    *) sed -n '/^# Usage/,/^# Example/p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
[ "${1:-}" = "--" ] && shift
[ $# -gt 0 ] || [ -n "$keep" ] || {
  echo "hotspots: no command given" >&2
  exit 2
}

here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
lib="$work/hotspots_sampler.so"
samples=${keep:-"$work/samples.txt"}

# Run "$@" once under the sampler, with {seed} replaced by $seed.
run_once() {
  seed=$1
  shift
  for arg do
    shift
    case $arg in
      *'{seed}'*) arg=$(printf '%s\n' "$arg" | sed "s/{seed}/$seed/g") ;;
    esac
    set -- "$@" "$arg"
  done
  HOTSPOTS_OUT=$samples LD_PRELOAD=$lib "$@" > /dev/null
}

if [ $# -gt 0 ]; then
  ${CC:-cc} -O2 -fno-omit-frame-pointer -shared -fPIC $memory -o "$lib" \
    "$here/hotspots_sampler.c" -ldl -pthread
  : > "$samples"
  for seed in $(printf '%s\n' "${seeds:-none}" | tr ',' ' '); do
    run_once "$seed" "$@"
  done
fi

python3 - "$samples" "$top" "$groups" <<'EOF'
import collections
import os
import re
import subprocess
import sys

samples_path, top, groups = sys.argv[1], int(sys.argv[2]), sys.argv[3]

# One record per CPU sample (weight 1, PC first) or per heap site (weight
# its live bytes at the peak, the call into operator new first).
records = []  # [(weight, [(object path, offset), ...])]
peaks = []  # (peak, snapshot) live bytes per process, in -m mode
cpu_seconds = []  # CPU time per process, in time mode
processes = 0
objects = {}
with open(samples_path) as f:
    for line in f:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "R":  # a new process: object indices restart
            processes += 1
            objects = {}
        elif parts[0] == "O":
            objects[parts[1]] = line.split(None, 2)[2].rstrip("\n")
        elif parts[0] == "P":
            peaks.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "C":
            cpu_seconds.append(float(parts[1]))
        elif parts[0] in ("S", "M"):
            weight, tokens = (1, parts[1:]) if parts[0] == "S" else (
                int(parts[1]), parts[3:])
            frames = []
            for tok in tokens:
                obj, off = tok.split(":")
                frames.append((objects.get(obj, "?"), int(off, 16)))
            records.append((weight, frames))
if not records:
    sys.exit("hotspots: no samples recorded")
memory = bool(peaks)

# Symbolize: one addr2line per object, addresses on stdin. With -a each
# address is echoed first; -i then lists the inline chain innermost first.
chains = {}
wanted = collections.defaultdict(set)
for _, frames in records:
    for where in frames:
        wanted[where[0]].add(where[1])
for path, offsets in wanted.items():
    offsets = sorted(offsets)
    fallback = "?? (%s)" % os.path.basename(path)
    if path == "?" or not os.path.exists(path):
        for off in offsets:
            chains[(path, off)] = [fallback]
        continue
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
        input="".join("%x\n" % off for off in offsets),
        capture_output=True, text=True, check=True).stdout.splitlines()
    i = 0
    for off in offsets:
        assert out[i].startswith("0x"), out[i]
        i += 1
        chain = []
        while i < len(out) and not out[i].startswith("0x"):
            chain.append(fallback if out[i] == "??" else out[i])
            i += 2  # function line, then its file:line
        chains[(path, off)] = chain or [fallback]

machinery = re.compile(r"^(\S+ )?(std::|__gnu_cxx::|operator new)")

def own_name(frames):
    """The function a record is charged to in the first table."""
    names = [name for where in frames for name in chains[where]]
    if memory:
        return next((n for n in names if not machinery.match(n)), names[0])
    return names[0]

self_counts = collections.Counter()
incl_counts = collections.Counter()
for weight, frames in records:
    self_counts[own_name(frames)] += weight
    names = set()
    for where in frames:
        names.update(chains[where])
    for name in names:
        incl_counts[name] += weight

total = sum(weight for weight, _ in records)
if memory:
    mb = float(1 << 20) * processes
    print("peak live operator-new heap %.2f MB per process (snapshot %.2f MB),"
          " %d sites, %d process(es)" % (
              sum(p for p, _ in peaks) / mb, sum(s for _, s in peaks) / mb,
              len(records), processes))
    unit, fmt = "MB", "%8.1f%% %9.2f  %s"
    scale = lambda n: n / mb
else:
    interval = ""
    if cpu_seconds and len(cpu_seconds) == processes:
        interval = ", %.2f s of CPU: one sample per %.2f ms" % (
            sum(cpu_seconds), 1000.0 * sum(cpu_seconds) / total)
    print("%d samples from %d process(es)%s" % (total, processes, interval))
    unit, fmt = "samples", "%8.1f%% %7d  %s"
    scale = lambda n: n

def table(title, counts):
    print("\n%-9s %7s  function" % (title, unit))
    for name, n in counts.most_common(top):
        short = name if len(name) <= 110 else name[:107] + "..."
        print(fmt % (100.0 * n / total, scale(n), short))

table("site" if memory else "self", self_counts)
table("inclusive", incl_counts)

regexes = [g for g in groups.split("\n") if g]
if regexes:
    print("\n%-9s %-9s  group" % ("site" if memory else "self", "inclusive"))
for regex in regexes:
    pat = re.compile(regex)
    own = sum(n for name, n in self_counts.items() if pat.search(name))
    incl = sum(weight for weight, frames in records
               if any(pat.search(name) for where in frames
                      for name in chains[where]))
    print("%8.1f%% %8.1f%%  %s" % (100.0 * own / total, 100.0 * incl / total,
                                   regex))
EOF

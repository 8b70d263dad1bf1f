#!/bin/sh
# Coroutine frame sizes, read from DWARF (docs/PERFORMANCE.md).
#
# GCC emits each coroutine's frame as a DWARF structure named
# `<mangled coroutine>.Frame`. This prints one line per distinct frame
# found in the given objects: its bytes, the sim::pool size class that
# holds it (32-byte classes up to 2 KiB, `heap` above) and the
# demangled coroutine, sorted by name. Frames of templates and inline
# coroutines appear once, however many objects carry them.
#
# Usage: tools/frames.sh <object or directory>... [-g REGEX]
#   a directory is searched for *.o files (e.g. a build tree);
#   -g REGEX  keep only the coroutines whose demangled name matches
#             REGEX (grep -E syntax)
#
# The objects must carry debug info: a RelWithDebInfo build (the
# default of this repository's CMakeLists) or any -O2 -g build, e.g.
#   tools/frames.sh build/src -g 'AccessPath|Transport'
# Frame sizes follow the compiler and its flags, so this is a diagnostic,
# not a ctest. Needs llvm-dwarfdump and c++filt.
set -eu

usage="usage: frames.sh <object or directory>... [-g REGEX]"
regex=
objects=$(mktemp)
trap 'rm -f "$objects"' EXIT
while [ $# -gt 0 ]; do
  case $1 in
    -g)
      [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
      regex=$2
      shift 2
      ;;
    -h|--help)
      echo "$usage"
      exit 0
      ;;
    *)
      if [ -d "$1" ]; then
        find "$1" -name '*.o' >>"$objects"
      elif [ -f "$1" ]; then
        echo "$1" >>"$objects"
      else
        echo "frames.sh: no such object or directory: $1" >&2
        exit 2
      fi
      shift
      ;;
  esac
done
if [ ! -s "$objects" ]; then
  echo "$usage" >&2
  exit 2
fi

# One "<bytes> <mangled name>" line per frame structure of each object.
sort -u "$objects" | while IFS= read -r obj; do
  llvm-dwarfdump --debug-info "$obj" 2>/dev/null |
    awk '
      # llvm-dwarfdump prints a byte size in hex (0x150) or in decimal
      # (288), depending on its DWARF form.
      function number(s,   v, i, base) {
        v = 0
        s = tolower(s)
        base = sub(/^0x/, "", s) ? 16 : 10
        for (i = 1; i <= length(s); ++i) {
          v = v * base + index("0123456789abcdef", substr(s, i, 1)) - 1
        }
        return v
      }
      /DW_TAG_/ { name = ""; want = ($0 ~ /DW_TAG_structure_type/) }
      want && /DW_AT_name/ && /\.Frame"\)/ {
        name = $0
        sub(/^.*\("/, "", name)
        sub(/\.Frame"\).*$/, "", name)
      }
      want && name != "" && /DW_AT_byte_size/ {
        size = $0
        sub(/^.*\(/, "", size)
        sub(/\).*$/, "", size)
        print number(size), name
        want = 0
      }' ||
    echo "frames.sh: llvm-dwarfdump failed on $obj" >&2
done | sort -u -k2,2 -k1,1n | c++filt |
  awk -v regex="$regex" '
    BEGIN { printf "%6s  %5s  %s\n", "bytes", "class", "coroutine" }
    {
      bytes = $1
      name = $0
      sub(/^[0-9]+ /, "", name)
      if (regex != "" && name !~ regex) next
      cls = int((bytes + 31) / 32) * 32
      if (cls > 2048) cls = "heap"
      printf "%6d  %5s  %s\n", bytes, cls, name
    }'

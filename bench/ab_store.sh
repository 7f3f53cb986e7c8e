#!/usr/bin/env bash
# One-process A/B of SummaryStore::AddBatch: the working tree ("head")
# against a base revision, on the two BM_StoreAddBatch shapes (64 keys with
# 4 setup windows each; 131072 keys walked by an odd stride, rebuilt every
# 62 sweeps).  Process-to-process timings of one kernel drift by tens of
# percent on a shared host; linking both sides into one binary and
# alternating them turn by turn, pinned to one CPU, cancels that drift.
#
#   bench/ab_store.sh <base-rev> [turns]     (turns: default 150)
#
# Steps, all under build/ab_store/ of the checkout this script is in:
#   1. checks <base-rev> out with `git worktree` (removed again on exit);
#   2. builds each side's fasthist library (Release) with namespace fasthist
#      renamed (-Dfasthist=fasthist_base / fasthist_head), so the two link
#      side by side;
#   3. compiles bench/ab_store_side.cc once per side against that side's
#      headers, bench/ab_store_main.cc against the head's, and links them;
#   4. runs the turns pinned to the last CPU (taskset, when present) and
#      prints per-shape medians, quartiles and how many turns each side won.
# Needs git, cmake and a C++17 compiler; no network.  Not a ctest.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <base-rev> [turns]" >&2
  exit 2
fi
base_rev=$1
turns=${2:-150}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
out=$root/build/ab_store
base_src=$out/base
cxx=${CXX:-c++}
jobs=$(nproc 2>/dev/null || echo 2)

mkdir -p "$out"
if [[ -e $base_src ]]; then
  git -C "$root" worktree remove --force "$base_src" 2>/dev/null || rm -rf "$base_src"
fi
git -C "$root" worktree prune
git -C "$root" worktree add --detach --quiet "$base_src" "$base_rev"
cleanup() { git -C "$root" worktree remove --force "$base_src" || true; }
trap cleanup EXIT

build_library() {  # <source dir> <side name>
  cmake -S "$1" -B "$out/$2_build" -DCMAKE_BUILD_TYPE=Release \
    "-DCMAKE_CXX_FLAGS=-Dfasthist=fasthist_$2" >/dev/null
  cmake --build "$out/$2_build" --target fasthist -j "$jobs" >/dev/null
}
build_library "$base_src" base
build_library "$root" head

flags=(-std=c++17 -O3 -DNDEBUG)
"$cxx" "${flags[@]}" -Dfasthist=fasthist_base -DAB_STORE_FACTORY=MakeBaseSide \
  -I"$base_src" -c "$root/bench/ab_store_side.cc" -o "$out/base_side.o"
"$cxx" "${flags[@]}" -Dfasthist=fasthist_head -DAB_STORE_FACTORY=MakeHeadSide \
  -I"$root" -c "$root/bench/ab_store_side.cc" -o "$out/head_side.o"
"$cxx" "${flags[@]}" -Dfasthist=fasthist_head \
  -I"$root" -c "$root/bench/ab_store_main.cc" -o "$out/main.o"
"$cxx" "$out/main.o" "$out/base_side.o" "$out/head_side.o" \
  "$out/head_build/libfasthist.a" "$out/base_build/libfasthist.a" \
  -pthread -o "$out/ab_store"

echo "base $(git -C "$base_src" rev-parse --short HEAD) vs head" \
  "$(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD -- || echo +working-tree)"
pin=()
if command -v taskset >/dev/null; then
  pin=(taskset -c $((jobs - 1)))
fi
"${pin[@]}" "$out/ab_store" --turns="$turns"

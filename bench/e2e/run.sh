#!/usr/bin/env bash
# The end-to-end benchmark's one command. Builds bench/e2e (Release) into
# build-bench/ and runs ab_bench:
#
#   bench/e2e/run.sh                      # all four workloads, seed 7: the
#                                         # untraced pass, then the traced pass
#   bench/e2e/run.sh --workload tcp-hub --seed 11 --seconds 30 --trace 0
#   bench/e2e/run.sh --smoke              # < 30 s self-check
#
# Arguments are ab_bench's (see ab_bench.cpp). Writes
# build-bench/bench_result.json and build-bench/trace.json unless --out /
# --trace-out say otherwise. Build output goes to stderr; the last line of
# stdout is the result JSON. Exits non-zero on any correctness failure.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-bench"
jobs="$(nproc 2>/dev/null || echo 2)"

{
  cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target ab_bench -j "$jobs"
} >&2

if [[ -e "$root/.git" ]]; then
  AB_BENCH_GIT_HEAD="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
else
  AB_BENCH_GIT_HEAD=unknown
fi
export AB_BENCH_GIT_HEAD

if [[ $# -eq 0 ]]; then
  set -- --workload all
fi
exec "$build/ab_bench" --out "$build/bench_result.json" \
  --trace-out "$build/trace.json" "$@"

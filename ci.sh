#!/usr/bin/env bash
# Tier-1 verify + sanitizer build + Release bench smoke + docs link check,
# what .github/workflows/ci.yml runs. The tier-1 and Release builds treat
# warnings as errors: both build warning-free with GCC 12.2, the compiler
# the workflow pins.
set -euo pipefail
cd "$(dirname "$0")"

echo "== docs: relative markdown links resolve =="
./scripts/check_links.sh

echo "== tier-1: configure + build (warnings are errors) + ctest =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== examples: each runs to completion and exits 0 =="
# The seven AB_EXAMPLES (CMakeLists.txt) drive the public API end to end
# and together take well under a second.
(cd build && for example in network_loading plugin_switchlet policy_enforcement \
    protocol_upgrade quickstart ring_spanning_tree scenario_sim; do
  ./"$example" > /dev/null || { echo "example $example failed"; exit 1; }
done)

echo "== ASan/UBSan build + ctest =="
# Includes the fuzz suites (codec_fuzz_test plus the TCP segment/option
# parser sweeps in tcp_segment_fuzz): random and mutated wire bytes under
# the sanitizers, where an over-read is a failure even when it would not
# crash a plain build.
cmake -B build-asan -S . -DAB_SANITIZE=ON
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j)

echo "== TSan build + sharded-core tests =="
# scripts/tsan_tests.sh holds the one filter (what it covers and why is in
# its header) and fails when an alternative of it matches no test.
cmake -B build-tsan -S . -DAB_TSAN=ON
cmake --build build-tsan -j
./scripts/tsan_tests.sh build-tsan

echo "== datapath accounting =="
# micro_datapath is only built when google-benchmark is installed. When it
# is, it exits non-zero if the untapped flood encodes at all or the tapped
# flood encodes anything but once.
if [[ -x build/micro_datapath ]]; then
  (cd build && ./micro_datapath --benchmark_filter='Fanout' && cat BENCH_datapath.json)
else
  echo "micro_datapath not built (google-benchmark not found): skipped"
fi

echo "== Release bench smoke (one repetition; compiles + exercises the perf path) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
cmake --build build-release -j
# The end-to-end benchmark's self-check on shrunken cells: builds bench/e2e against
# this tree, runs every workload on shrunken cells, and fails on its
# correctness gate -- so a simulator change that breaks the benchmark's
# build or gate fails here, not on the next benchmark run.
bench/e2e/run.sh --smoke > /dev/null
# Every paper-figure and ablation bench, one pass each: each drives a
# transmit path (ttcp bursts through the bridge and the repeater, or
# multitree BPDUs), so a crash or a throw there fails here.
(cd build-release && ./ablation_spanning_tree && ./ablation_learning \
  && ./ablation_multitree && ./ablation_cost_model && ./fig9_ping_latency \
  && ./fig10_ttcp_throughput && ./table1_protocol_transition \
  && ./sec75_agility && ./sec75_load_time) > /dev/null

echo "== bench guards =="
# Each bench checks its own measurements against the bounds written beside
# them, prints one "guard" line per check, and exits 1 if any failed
# (bench/guards.h). macro_topology --smoke drives all four workloads over
# the acceptance cells plus the profiles its guards bound; parallel_scaling
# --smoke runs the sharded star cells at 1/2/4/8 worker threads. Last, and
# each runs even when another failed, so a failing guard hides neither the
# steps above nor another bench's guards.
failed=()
for bench in micro_scheduler macro_topology parallel_scaling; do
  (cd build-release && ./"$bench" --smoke) || failed+=("$bench")
done
if [[ ${#failed[@]} -gt 0 ]]; then
  echo "bench guards failed in: ${failed[*]} (see their FAIL lines above)"
  exit 1
fi

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
# ThreadSanitizer over everything that touches the parallel core: the
# mailbox/runner unit tests, the sharded-vs-oracle property tests, the
# inject_remote segment tests, the TCP suites (socket timers run on
# per-shard schedulers, so the conformance + host-stack tests must stay
# clean when the sharded workers are racing), the per-region arena
# teardown, the LAN station index (replicas classify and deliver
# through inject_remote on shard workers), and planned hosts and host
# blocks (each host built by its owning region's worker when a frame first
# reaches it). The full suite under TSan is slow and the rest of the code
# is single-threaded; the filter keeps this section tight.
cmake -B build-tsan -S . -DAB_TSAN=ON
cmake --build build-tsan -j
(cd build-tsan && ctest --output-on-failure -j \
  -R 'RelayRing|ShardChannel|Shard\.|ParallelRunner|ParallelSweep|InjectRemote|Tcp|BridgeArena|LanIndex|PlannedHosts|HostBlocks')

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
(cd build-release && ./micro_scheduler --smoke && cat BENCH_scheduler.json)
# macro_topology --smoke drives all four workloads (flood+pings, the ttcp
# streams, the staged rollout, and the aggregate-hosts station-scale cell)
# over the acceptance cells, plus the flood-dominated star profile the
# bench guard below asserts on.
(cd build-release && ./macro_topology --smoke && cat BENCH_topology.json)
# parallel_scaling --smoke runs the sharded star cell at 1/2/4/8 worker
# threads and exits non-zero if any thread count changes any counter.
(cd build-release && ./parallel_scaling --smoke && cat BENCH_parallel.json)
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
# Guards: the batch-insert and timed-run cells exist, the flood profile
# stays at O(1) delivery events per broadcast per segment, the transmit
# hops (NIC burst drain, bridge egress TxBatch, fragmented write through
# the processing element) stay at O(1) scheduler inserts per hop, and the
# million-station cell stays inside its per-station memory and build-time
# budgets with every ping answered. Plus the sharded-core guards: the
# scaling runs are deterministic across thread counts, and the 4-thread
# speedup holds 2.0x when the runner actually has >= 4 hardware threads.
# Last, so a failing guard cannot keep the steps above from running.
./scripts/check_bench_smoke.sh build-release

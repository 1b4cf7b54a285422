#!/usr/bin/env bash
# Runs the ThreadSanitizer build's tests of everything that touches the
# parallel core: the mailbox/runner unit tests, the sharded-vs-oracle
# property tests, the inject_remote segment tests, the TCP suites (socket
# timers run on per-shard schedulers, so the conformance and host-stack
# tests must stay clean while sharded workers race), the per-region arena
# teardown, the LAN station index (replicas classify and deliver through
# inject_remote on shard workers), and planned hosts and host blocks (each
# host built by its owning region's worker when a frame first reaches it).
# The rest of the suite is single-threaded and slow under TSan, so the run
# is filtered. ci.sh and the workflow's tsan job both call this script.
#
#   scripts/tsan_tests.sh build-tsan
#
# Before running anything it checks that every alternative of the filter
# matches at least one test, so a deleted or renamed suite fails here
# instead of silently dropping out of the TSan run.
set -euo pipefail

build="${1:?usage: scripts/tsan_tests.sh BUILD_DIR}"
suites=(ShardChannel 'Shard\.' ParallelRunner ParallelSweep InjectRemote Tcp BridgeArena
        LanIndex PlannedHosts HostBlocks)

for suite in "${suites[@]}"; do
  listed="$(cd "$build" && ctest -N -R "$suite")"
  if ! grep -q '^Total Tests: [1-9]' <<< "$listed"; then
    echo "tsan_tests.sh: filter alternative '$suite' matches no test in $build" >&2
    exit 1
  fi
done

filter="$(IFS='|'; echo "${suites[*]}")"
cd "$build"
# -j takes an explicit count: CMake 3.25's ctest reads a bare -j's next
# argument as its value, which would swallow -R and run the whole suite.
ctest --output-on-failure -j "$(nproc)" -R "$filter"

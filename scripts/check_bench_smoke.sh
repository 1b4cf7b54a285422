#!/usr/bin/env bash
# Bench-smoke guards for the batched delivery + batched transmit fast
# paths, run by CI and ci.sh after the Release bench smoke:
#
#   1. BENCH_scheduler.json must carry the batch_insert AND timed_run cells
#      (the schedule_batch_at / schedule_run_at microbenches) -- a refactor
#      that silently drops either would stop tracking the batch paths
#      across PRs.
#   2. BENCH_topology.json's flood_profile must stay at O(1) scheduler
#      events per broadcast. The bound is a small constant (the batched
#      path measures 2.0: one transmit event + one per-segment delivery
#      walk) -- deliberately NOT receivers + 1, because a regression to
#      one-delivery-event-per-receiver costs exactly receivers + 1 and
#      would slip through a bound at that value. Its insert count must stay
#      strictly below the per-frame transmitter chain's 2.0/broadcast (the
#      burst drain costs ~1: one run for the whole burst + one delivery
#      insert per broadcast).
#   3. egress_profile: a bridge flood hop must cost O(1) scheduler inserts
#      -- the TxBatch run -- strictly below the per-port model (ports - 1),
#      which is exactly what a regression to per-port Nic::transmit costs.
#   4. ttcp_write_profile: a fragmented write must cost O(1) scheduler
#      inserts -- the processing-element run -- strictly below the
#      per-fragment model.
#   5. mac_lookup must be present (the flat MAC table trajectory; no speed
#      bound, CI runners are noisy).
#   6. aggregate_profile: the million-station cell (star-8x125000 under the
#      aggregate-hosts workload) must have actually run at size, stayed
#      within the per-station memory and build-time budgets, and answered
#      every ping. The budgets sit between the arena + aggregate model's
#      measured cost (804 B, 0.64-2.3 us per station) and the per-object
#      model's (1433 B, 16.2 us), so a regression toward per-station heap
#      objects or quadratic attach fails here even if the cell still
#      completes. Receiver visits per carried frame must stay <= 16: the
#      LAN station index hands a frame to the walk list (bridge ports) and
#      the stations it concerns, where the full walk visited ~125,000.
#   7. tcp_incast: N TCP senders offering 2x the hub link must deliver
#      every byte (TCP's reliability contract under queue-overflow drops)
#      and keep aggregate goodput >= link/4 with the slowest stream >=
#      fair_share/8 -- loose constant factors that only an incast collapse
#      (RTO synchronization serializing the streams) can break. No
#      segment of the cell has a tap, relay, drop filter or capture, so
#      nothing reads wire bytes and encodes_per_frame must stay 0: the
#      bound sits strictly below the 0.50 per frame carried that transmit
#      forcing an encode again costs (one encode per frame a host sends,
#      carried on two segments).
#   8. BENCH_parallel.json (the sharded-core scaling bench) must carry the
#      legacy run plus all four sharded thread counts, report the bench's
#      own bit-identity verdict as deterministic, and agree here too:
#      events and frames_carried equal across every sharded run. The
#      4-thread speedup must reach 2.0x -- but ONLY when the runner has
#      >= 4 hardware threads; starved CI containers (1 vCPU) skip the
#      bound with an explicit note rather than fake it.
#   9. aggregate_parallel (same file, "agg-" rows): the million-station
#      cell through the sharded core. The partitioned aggregate workload
#      must reproduce the legacy single-scheduler run bit-identically
#      (frames, bytes, pings, MAC entries -- aggregate_matches_legacy from
#      the bench, cross-checked on the rows here), every sharded thread
#      count must agree with agg-sharded-t1 on events and frames, the
#      4-thread speedup over SIM time (the serial build excluded) must
#      reach 2.0x under the same hardware-thread guard as #8, and
#      bytes_per_station must stay inside the same 1024 B budget as #6.
#
# Usage: scripts/check_bench_smoke.sh [build-dir]   (default: build-release)
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build-release}"
sched_json="$build_dir/BENCH_scheduler.json"
topo_json="$build_dir/BENCH_topology.json"
par_json="$build_dir/BENCH_parallel.json"

fail() {
  echo "check_bench_smoke: $1" >&2
  exit 1
}

# Pulls "field": <number> out of a single-line JSON cell.
field() {
  echo "$1" | sed -n "s/.*\"$2\": \([0-9][0-9.]*\).*/\1/p"
}

[ -f "$sched_json" ] || fail "missing $sched_json (run micro_scheduler first)"
[ -f "$topo_json" ] || fail "missing $topo_json (run macro_topology first)"
[ -f "$par_json" ] || fail "missing $par_json (run parallel_scaling first)"

grep -q '"batch_insert"' "$sched_json" \
  || fail "$sched_json has no batch_insert cell"
grep -q '"timed_run"' "$sched_json" \
  || fail "$sched_json has no timed_run cell"

# Each profile is emitted on one line; pull its fields out with sed.
profile_line=$(grep '"flood_profile"' "$topo_json") \
  || fail "$topo_json has no flood_profile cell"
receivers=$(field "$profile_line" receivers)
epb=$(field "$profile_line" events_per_broadcast)
ipb=$(field "$profile_line" inserts_per_broadcast)
[ -n "$receivers" ] && [ -n "$epb" ] && [ -n "$ipb" ] \
  || fail "could not parse flood_profile from: $profile_line"

# Matches kMaxEventsPerBroadcast / kMaxInsertsPerBroadcast in
# bench/macro_topology.cpp.
max_epb=4
if ! awk -v epb="$epb" -v max="$max_epb" 'BEGIN { exit !(epb <= max) }'; then
  fail "flood cell regressed: $epb events/broadcast with $receivers receivers (limit: $max_epb)"
fi
# Matches kMaxInsertsPerBroadcast: the k-broadcast flood drains as one
# burst run plus one delivery run, so inserts/broadcast is ~2/k (measures
# 0.02 at k=128), far below the per-frame chain's 2.0.
max_ipb=0.25
if ! awk -v ipb="$ipb" -v max="$max_ipb" 'BEGIN { exit !(ipb <= max) }'; then
  fail "flood cell regressed to per-frame transmit inserts: $ipb inserts/broadcast (limit: $max_ipb, chain model: 2.0)"
fi

egress_line=$(grep '"egress_profile"' "$topo_json") \
  || fail "$topo_json has no egress_profile cell"
ports=$(field "$egress_line" ports)
ipf=$(field "$egress_line" inserts_per_flood)
[ -n "$ports" ] && [ -n "$ipf" ] \
  || fail "could not parse egress_profile from: $egress_line"
# Matches kMaxInsertsPerFlood in bench/macro_topology.cpp: constant, and
# strictly below the per-port model (ports - 1) a regression would cost.
max_ipf=2
if ! awk -v ipf="$ipf" -v max="$max_ipf" -v ports="$ports" \
     'BEGIN { exit !(ipf <= max && max < ports - 1) }'; then
  fail "egress flood hop regressed: $ipf inserts/flood on $ports ports (limit: $max_ipf)"
fi

write_line=$(grep '"ttcp_write_profile"' "$topo_json") \
  || fail "$topo_json has no ttcp_write_profile cell"
frags=$(field "$write_line" fragments)
ipw=$(field "$write_line" inserts_per_write)
[ -n "$frags" ] && [ -n "$ipw" ] \
  || fail "could not parse ttcp_write_profile from: $write_line"
# Matches kMaxInsertsPerWrite: constant, strictly below the per-fragment
# model a regression would cost.
max_ipw=2
if ! awk -v ipw="$ipw" -v max="$max_ipw" -v frags="$frags" \
     'BEGIN { exit !(ipw <= max && max < frags) }'; then
  fail "ttcp write hop regressed: $ipw inserts/write over $frags fragments (limit: $max_ipw)"
fi

grep -q '"mac_lookup"' "$topo_json" \
  || fail "$topo_json has no mac_lookup cell"

agg_line=$(grep '"aggregate_profile"' "$topo_json") \
  || fail "$topo_json has no aggregate_profile cell"
stations=$(field "$agg_line" stations)
bps=$(field "$agg_line" bytes_per_station)
bups=$(field "$agg_line" build_us_per_station)
agg_vpf=$(field "$agg_line" receiver_visits_per_frame)
agg_sent=$(field "$agg_line" pings_sent)
agg_answered=$(field "$agg_line" pings_answered)
[ -n "$stations" ] && [ -n "$bps" ] && [ -n "$bups" ] && [ -n "$agg_vpf" ] \
  && [ -n "$agg_sent" ] && [ -n "$agg_answered" ] \
  || fail "could not parse aggregate_profile from: $agg_line"
# Matches kMaxBytesPerStation / kMaxBuildUsPerStation / kMaxVisitsPerFrame
# in bench/macro_topology.cpp. bytes_per_station reads 0 when the platform
# hides RSS; the other bounds still hold there.
min_stations=1000000
max_bps=1024
max_bups=6.0
max_vpf=16
if ! awk -v n="$stations" -v min="$min_stations" 'BEGIN { exit !(n >= min) }'; then
  fail "station-scale cell shrank: $stations stations (floor: $min_stations)"
fi
if ! awk -v b="$bps" -v max="$max_bps" 'BEGIN { exit !(b == 0 || b <= max) }'; then
  fail "station memory regressed: $bps bytes/station (limit: $max_bps, per-object model: 1433)"
fi
if ! awk -v b="$bups" -v max="$max_bups" 'BEGIN { exit !(b <= max) }'; then
  fail "station build time regressed: $bups us/station (limit: $max_bups, per-object model: 16.2)"
fi
if ! awk -v v="$agg_vpf" -v max="$max_vpf" 'BEGIN { exit !(v > 0 && v <= max) }'; then
  fail "LAN delivery regressed: $agg_vpf receiver visits per carried frame (limit: $max_vpf, full walk: ~125000)"
fi
if [ "$agg_sent" -eq 0 ] || [ "$agg_answered" -ne "$agg_sent" ]; then
  fail "aggregate workload lost pings: $agg_answered/$agg_sent answered"
fi

# --- tcp_incast: reliability + goodput under 2x offered load -------------

incast_line=$(grep '"tcp_incast"' "$topo_json") \
  || fail "$topo_json has no tcp_incast cell"
inc_senders=$(field "$incast_line" senders)
inc_link=$(field "$incast_line" link_mbps)
inc_goodput=$(field "$incast_line" goodput_mbps)
inc_fair=$(field "$incast_line" fair_share_mbps)
inc_min=$(field "$incast_line" min_stream_mbps)
inc_expected=$(field "$incast_line" bytes_expected)
inc_received=$(field "$incast_line" bytes_received)
inc_conns=$(field "$incast_line" connections)
inc_epf=$(field "$incast_line" encodes_per_frame)
inc_frames=$(field "$incast_line" frames_carried)
[ -n "$inc_senders" ] && [ -n "$inc_link" ] && [ -n "$inc_goodput" ] \
  && [ -n "$inc_fair" ] && [ -n "$inc_min" ] && [ -n "$inc_expected" ] \
  && [ -n "$inc_received" ] && [ -n "$inc_conns" ] && [ -n "$inc_epf" ] \
  && [ -n "$inc_frames" ] \
  || fail "could not parse tcp_incast from: $incast_line"
if [ "$inc_conns" -ne "$inc_senders" ]; then
  fail "tcp incast accepted $inc_conns/$inc_senders connections"
fi
if [ "$inc_received" != "$inc_expected" ]; then
  fail "tcp incast lost bytes: $inc_received/$inc_expected delivered"
fi
# Matches the incast_ok bounds in bench/macro_topology.cpp: goodput within
# a constant factor of the link, slowest stream within a constant factor
# of fair share. Only an incast collapse breaks these.
if ! awk -v g="$inc_goodput" -v l="$inc_link" 'BEGIN { exit !(g >= l / 4.0) }'; then
  fail "tcp incast goodput collapsed: $inc_goodput Mb/s on a $inc_link Mb/s link (floor: link/4)"
fi
if ! awk -v m="$inc_min" -v f="$inc_fair" 'BEGIN { exit !(m >= f / 8.0) }'; then
  fail "tcp incast starved a stream: slowest $inc_min Mb/s vs fair share $inc_fair Mb/s (floor: fair/8)"
fi
# Matches incast_lazy in bench/macro_topology.cpp.
if ! awk -v e="$inc_epf" -v n="$inc_frames" 'BEGIN { exit !(n > 0 && e <= 0) }'; then
  fail "tcp incast encoded $inc_epf times per frame over $inc_frames frames with nothing reading the bytes (limit: 0, eager encode: 0.50)"
fi

# --- BENCH_parallel.json: sharded-core determinism + scaling -------------

grep -q '"run": "legacy"' "$par_json" \
  || fail "$par_json has no legacy baseline run"
grep -q '"deterministic": true' "$par_json" \
  || fail "$par_json: bench reported non-deterministic sharded runs"

hw=$(field "$(grep '"hardware_concurrency"' "$par_json")" hardware_concurrency)
[ -n "$hw" ] || fail "could not parse hardware_concurrency from $par_json"

# Cross-check the bench's verdict: every sharded run line must agree on
# events and frames_carried with sharded-t1.
t1_line=$(grep '"run": "sharded-t1"' "$par_json") \
  || fail "$par_json has no sharded-t1 run"
t1_events=$(field "$t1_line" events)
t1_frames=$(field "$t1_line" frames_carried)
[ -n "$t1_events" ] && [ -n "$t1_frames" ] \
  || fail "could not parse sharded-t1 from: $t1_line"
for t in 2 4 8; do
  line=$(grep "\"run\": \"sharded-t$t\"" "$par_json") \
    || fail "$par_json has no sharded-t$t run"
  ev=$(field "$line" events)
  fr=$(field "$line" frames_carried)
  if [ "$ev" != "$t1_events" ] || [ "$fr" != "$t1_frames" ]; then
    fail "sharded-t$t diverges from sharded-t1: events $ev vs $t1_events, frames $fr vs $t1_frames"
  fi
done

# The scaling bound is only meaningful with real cores under the workers.
min_speedup=2.0
t4_speedup=$(field "$(grep '"run": "sharded-t4"' "$par_json")" speedup_vs_1t)
[ -n "$t4_speedup" ] || fail "could not parse sharded-t4 speedup from $par_json"
if [ "$hw" -ge 4 ]; then
  if ! awk -v s="$t4_speedup" -v min="$min_speedup" \
       'BEGIN { exit !(s >= min) }'; then
    fail "4-thread sharded speedup regressed: ${t4_speedup}x (floor: ${min_speedup}x on $hw hardware threads)"
  fi
  parallel_note="4-thread speedup ${t4_speedup}x on $hw hardware threads"
else
  parallel_note="4-thread speedup bound SKIPPED ($hw hardware thread(s) < 4; measured ${t4_speedup}x)"
fi

# --- aggregate_parallel: the million-station cell, sharded ---------------

grep -q '"aggregate_deterministic": true' "$par_json" \
  || fail "$par_json: sharded aggregate runs diverge across thread counts"
grep -q '"aggregate_matches_legacy": true' "$par_json" \
  || fail "$par_json: sharded aggregate workload diverges from the legacy path"

agg_legacy_line=$(grep '"run": "agg-legacy"' "$par_json") \
  || fail "$par_json has no agg-legacy run"
agg_t1_line=$(grep '"run": "agg-sharded-t1"' "$par_json") \
  || fail "$par_json has no agg-sharded-t1 run"
agg_t1_events=$(field "$agg_t1_line" events)
agg_t1_frames=$(field "$agg_t1_line" frames_carried)
[ -n "$agg_t1_events" ] && [ -n "$agg_t1_frames" ] \
  || fail "could not parse agg-sharded-t1 from: $agg_t1_line"
for t in 2 4 8; do
  line=$(grep "\"run\": \"agg-sharded-t$t\"" "$par_json") \
    || fail "$par_json has no agg-sharded-t$t run"
  ev=$(field "$line" events)
  fr=$(field "$line" frames_carried)
  if [ "$ev" != "$agg_t1_events" ] || [ "$fr" != "$agg_t1_frames" ]; then
    fail "agg-sharded-t$t diverges from agg-sharded-t1: events $ev vs $agg_t1_events, frames $fr vs $agg_t1_frames"
  fi
done

# Cross-check the bench's bit-identity verdict on the observable rows: the
# partitioned workload must carry the legacy run's exact traffic.
for f in frames_carried bytes_carried pings_answered mac_entries \
         stream_bytes_received; do
  legacy_v=$(field "$agg_legacy_line" "$f")
  t1_v=$(field "$agg_t1_line" "$f")
  [ -n "$legacy_v" ] && [ -n "$t1_v" ] \
    || fail "could not parse $f from aggregate rows"
  if [ "$t1_v" != "$legacy_v" ]; then
    fail "sharded aggregate $f diverges from legacy: $t1_v vs $legacy_v"
  fi
done

# Same per-station memory budget as the aggregate_profile cell (#6);
# 0 means the platform hides RSS, not a pass at 0 bytes.
agg_bps=$(field "$agg_t1_line" bytes_per_station)
[ -n "$agg_bps" ] || fail "could not parse aggregate bytes_per_station"
if ! awk -v b="$agg_bps" -v max="$max_bps" 'BEGIN { exit !(b == 0 || b <= max) }'; then
  fail "sharded aggregate station memory regressed: $agg_bps bytes/station (limit: $max_bps)"
fi

# Speedup over sim time (the bench already subtracts the serial build);
# same hardware-thread guard as the flood cell's bound.
agg_t4_speedup=$(field "$(grep '"run": "agg-sharded-t4"' "$par_json")" speedup_vs_1t)
[ -n "$agg_t4_speedup" ] || fail "could not parse agg-sharded-t4 speedup from $par_json"
if [ "$hw" -ge 4 ]; then
  if ! awk -v s="$agg_t4_speedup" -v min="$min_speedup" \
       'BEGIN { exit !(s >= min) }'; then
    fail "4-thread aggregate speedup regressed: ${agg_t4_speedup}x (floor: ${min_speedup}x on $hw hardware threads)"
  fi
  aggregate_note="aggregate 4-thread speedup ${agg_t4_speedup}x"
else
  aggregate_note="aggregate 4-thread speedup bound SKIPPED ($hw hardware thread(s) < 4; measured ${agg_t4_speedup}x)"
fi

echo "check_bench_smoke: OK (batch_insert + timed_run cells present;" \
  "flood profile at $epb events and $ipb inserts/broadcast for $receivers receivers;" \
  "egress hop at $ipf inserts/flood on $ports ports;" \
  "ttcp write at $ipw inserts/write over $frags fragments; mac_lookup present;" \
  "$stations stations at $bps B and $bups us each, $agg_vpf receiver visits/frame," \
  "$agg_answered/$agg_sent pings;" \
  "tcp incast $inc_goodput Mb/s goodput, slowest stream $inc_min Mb/s, all bytes delivered," \
  "$inc_epf encodes/frame over $inc_frames frames;" \
  "sharded runs deterministic, $parallel_note;" \
  "sharded aggregate bit-identical to legacy at $agg_bps B/station, $aggregate_note)"

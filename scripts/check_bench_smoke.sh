#!/usr/bin/env bash
# Bench-smoke guards for the batched delivery + batched transmit fast
# paths, run by CI and ci.sh after the Release bench smoke:
#
#   1. BENCH_scheduler.json must carry the batch_insert AND timed_run cells
#      (schedule_run_at microbenches: batch_insert measures the equal-time
#      run, timed_run the monotone one) -- a refactor that silently drops
#      either would stop tracking the run paths across PRs.
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
#      every ping. A LAN's stations are planned at build time as one
#      block (each station costs its null attach slot) and each is built
#      only when it first acts. The memory budget, 10 B per station, sits
#      ~15% above the highest measured cost (7.5 B here, 8.7 B on #9's
#      sharded rows); planning each station with its own index entries,
#      ticket and host records measured 46-47 B, and building every
#      station 176 B (368 B with the Nic's box resident, 761 B with the
#      HostStack's too), so a plan that files entries per station again
#      fails here. The build budget, 0.008 us per station, sits ~15%
#      above the highest of three runs on a 4-vCPU VM (0.005-0.007 us);
#      the per-station plan measured 0.082-0.090 us, building every
#      station 0.20-0.34 us, the per-object seed model 16.2 us.
#      Receiver visits per carried frame must stay <= 16: the LAN station
#      index hands a frame to the walk list (bridge ports) and the
#      stations it concerns, where the full walk visited ~125,000.
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
#      cell through the sharded core. It must have run at size (the same
#      1,000,000-station floor as #6) with events on every agg- row: each
#      row runs in a forked child, and a failed child reads as zeros,
#      which would agree with zeros below. The partitioned aggregate
#      workload must reproduce the legacy single-scheduler run
#      bit-identically (frames, bytes, pings, MAC entries --
#      aggregate_matches_legacy from the bench, cross-checked on the rows
#      here), every sharded thread count must agree with agg-sharded-t1 on
#      events and frames, the 4-thread speedup over SIM time (the serial
#      build excluded) must reach 2.0x under the same hardware-thread
#      guard as #8, and bytes_per_station must stay inside the same
#      10 B budget as #6.
#  10. saturated_run (BENCH_scheduler.json): one timed run extended at a
#      standing backlog of 64, measured in its own forked child. Its
#      peak-RSS growth per fired entry must stay at or below 8 B: a run
#      store that holds only its unfired backlog measures ~0, one that
#      keeps every fired entry's callback, time and order (the store
#      before run compaction) costs ~80 B or more.
#  11. mac_growth (BENCH_topology.json): 256 MAC tables learn 2,048
#      addresses each in lockstep (kreg-flood's learning pattern), in a
#      forked child. Every table must hold every address, and the peak-RSS
#      growth per learned entry must stay at or below 40 B: 16-byte slots
#      that free each outgrown array measure ~33, 24-byte slots ~49.
#  12. tcp_incast (BENCH_topology.json): the payload bytes the host stacks
#      copy per byte the sink received must stay at or below 1.5. Each
#      byte is copied once, into the segment that encodes it (plus
#      retransmissions), and receive decodes views: the smoke cell reads
#      1.0. One more copy anywhere on the path (a copying decoder) reads
#      2.0, and the fully copying codecs read 4.0.
#
# Before any guard, each BENCH_*.json must be newer than the binary in the
# build directory that writes it (micro_scheduler, macro_topology,
# parallel_scaling): a file left by an earlier build fails here instead of
# being judged as this build's. A missing, stale or unparseable file stops
# the script at once; a guard whose bound fails is recorded, the rest still
# run, and the script lists every failed guard and exits 1 at the end.
#
# Usage: scripts/check_bench_smoke.sh [build-dir]   (default: build-release)
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build-release}"
sched_json="$build_dir/BENCH_scheduler.json"
topo_json="$build_dir/BENCH_topology.json"
par_json="$build_dir/BENCH_parallel.json"

# A missing, stale or unparseable file: the guards after it would judge
# nothing, so stop at once.
fail() {
  echo "check_bench_smoke: $1" >&2
  exit 1
}

# A bound that does not hold: recorded, so one failure cannot hide another.
failures=()
breach() {
  failures+=("$1")
}

# Pulls "field": <number> out of a single-line JSON cell.
field() {
  echo "$1" | sed -n "s/.*\"$2\": \([0-9][0-9.]*\).*/\1/p"
}

[ -f "$sched_json" ] || fail "missing $sched_json (run micro_scheduler first)"
[ -f "$topo_json" ] || fail "missing $topo_json (run macro_topology first)"
[ -f "$par_json" ] || fail "missing $par_json (run parallel_scaling first)"

# Each file must come from the binary in this build directory: one older
# than its writer was left by an earlier build, and its figures say
# nothing about the code under guard.
for pair in "$sched_json:micro_scheduler" "$topo_json:macro_topology" \
            "$par_json:parallel_scaling"; do
  json="${pair%:*}"
  bin="$build_dir/${pair##*:}"
  [ -f "$bin" ] || fail "missing $bin (the binary that writes $json)"
  if [ "$bin" -nt "$json" ]; then
    fail "stale $json: older than $bin (rerun ${pair##*:} --smoke in $build_dir)"
  fi
done

grep -q '"batch_insert"' "$sched_json" \
  || breach "$sched_json has no batch_insert cell"
grep -q '"timed_run"' "$sched_json" \
  || breach "$sched_json has no timed_run cell"

sat_line=$(grep '"saturated_run"' "$sched_json") \
  || fail "$sched_json has no saturated_run cell"
sat_entries=$(field "$sat_line" entries)
sat_growth=$(field "$sat_line" rss_growth_per_entry)
[ -n "$sat_entries" ] && [ -n "$sat_growth" ] \
  || fail "could not parse saturated_run from: $sat_line"
# 0 means the platform hides RSS; the bound holds trivially there.
max_growth=8
if ! awk -v g="$sat_growth" -v max="$max_growth" 'BEGIN { exit !(g <= max) }'; then
  breach "saturated run keeps its history: peak RSS grew $sat_growth B per fired entry over $sat_entries entries (limit: $max_growth, history-keeping store: ~80)"
fi

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
  breach "flood cell regressed: $epb events/broadcast with $receivers receivers (limit: $max_epb)"
fi
# Matches kMaxInsertsPerBroadcast: the k-broadcast flood drains as one
# burst run plus one delivery run, so inserts/broadcast is ~2/k (measures
# 0.02 at k=128), far below the per-frame chain's 2.0.
max_ipb=0.25
if ! awk -v ipb="$ipb" -v max="$max_ipb" 'BEGIN { exit !(ipb <= max) }'; then
  breach "flood cell regressed to per-frame transmit inserts: $ipb inserts/broadcast (limit: $max_ipb, chain model: 2.0)"
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
  breach "egress flood hop regressed: $ipf inserts/flood on $ports ports (limit: $max_ipf)"
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
  breach "ttcp write hop regressed: $ipw inserts/write over $frags fragments (limit: $max_ipw)"
fi

grep -q '"mac_lookup"' "$topo_json" \
  || breach "$topo_json has no mac_lookup cell"

growth_line=$(grep '"mac_growth"' "$topo_json") \
  || fail "$topo_json has no mac_growth cell"
growth_tables=$(field "$growth_line" tables)
growth_addresses=$(field "$growth_line" addresses)
growth_entries=$(field "$growth_line" entries)
growth_per_entry=$(field "$growth_line" rss_growth_per_entry)
[ -n "$growth_tables" ] && [ -n "$growth_addresses" ] && [ -n "$growth_entries" ] \
  && [ -n "$growth_per_entry" ] \
  || fail "could not parse mac_growth from: $growth_line"
if [ "$growth_entries" -ne $((growth_tables * growth_addresses)) ]; then
  breach "mac_growth tables lost entries: $growth_entries of $((growth_tables * growth_addresses))"
fi
# 0 means the platform hides RSS; the bound holds trivially there.
max_mac_growth=40
if ! awk -v g="$growth_per_entry" -v max="$max_mac_growth" 'BEGIN { exit !(g <= max) }'; then
  breach "MAC-table memory regressed: peak RSS grew $growth_per_entry B per learned entry over $growth_entries entries (limit: $max_mac_growth; 16-byte slots: ~33, 24-byte slots: ~49)"
fi

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
max_bps=10
max_bups=0.008
max_vpf=16
if ! awk -v n="$stations" -v min="$min_stations" 'BEGIN { exit !(n >= min) }'; then
  breach "station-scale cell shrank: $stations stations (floor: $min_stations)"
fi
if ! awk -v b="$bps" -v max="$max_bps" 'BEGIN { exit !(b == 0 || b <= max) }'; then
  breach "station memory regressed: $bps bytes/station (limit: $max_bps; stations planned as blocks: ~7.5, planned one by one: ~46, every station built: ~176, with the NIC's box resident: ~368, per-object model: 1433)"
fi
if ! awk -v b="$bups" -v max="$max_bups" 'BEGIN { exit !(b <= max) }'; then
  breach "station build time regressed: $bups us/station (limit: $max_bups; stations planned as blocks: 0.005-0.007, planned one by one: 0.08-0.09, every station built: 0.20-0.34, per-object model: 16.2)"
fi
if ! awk -v v="$agg_vpf" -v max="$max_vpf" 'BEGIN { exit !(v > 0 && v <= max) }'; then
  breach "LAN delivery regressed: $agg_vpf receiver visits per carried frame (limit: $max_vpf, full walk: ~125000)"
fi
if [ "$agg_sent" -eq 0 ] || [ "$agg_answered" -ne "$agg_sent" ]; then
  breach "aggregate workload lost pings: $agg_answered/$agg_sent answered"
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
  breach "tcp incast accepted $inc_conns/$inc_senders connections"
fi
if [ "$inc_received" != "$inc_expected" ]; then
  breach "tcp incast lost bytes: $inc_received/$inc_expected delivered"
fi
# Matches the incast_ok bounds in bench/macro_topology.cpp: goodput within
# a constant factor of the link, slowest stream within a constant factor
# of fair share. Only an incast collapse breaks these.
if ! awk -v g="$inc_goodput" -v l="$inc_link" 'BEGIN { exit !(g >= l / 4.0) }'; then
  breach "tcp incast goodput collapsed: $inc_goodput Mb/s on a $inc_link Mb/s link (floor: link/4)"
fi
if ! awk -v m="$inc_min" -v f="$inc_fair" 'BEGIN { exit !(m >= f / 8.0) }'; then
  breach "tcp incast starved a stream: slowest $inc_min Mb/s vs fair share $inc_fair Mb/s (floor: fair/8)"
fi
# Matches incast_lazy in bench/macro_topology.cpp.
if ! awk -v e="$inc_epf" -v n="$inc_frames" 'BEGIN { exit !(n > 0 && e <= 0) }'; then
  breach "tcp incast encoded $inc_epf times per frame over $inc_frames frames with nothing reading the bytes (limit: 0, eager encode: 0.50)"
fi
# Guard 12, matching incast_copy_once / kMaxCopiesPerPayloadByte in
# bench/macro_topology.cpp.
inc_cpb=$(field "$incast_line" copies_per_payload_byte)
[ -n "$inc_cpb" ] || fail "could not parse copies_per_payload_byte from: $incast_line"
max_cpb=1.5
if ! awk -v c="$inc_cpb" -v max="$max_cpb" 'BEGIN { exit !(c > 0 && c <= max) }'; then
  breach "tcp incast copied $inc_cpb payload bytes per byte received (limit: $max_cpb; one copy: 1.0, a copying decoder: 2.0)"
fi

# --- BENCH_parallel.json: sharded-core determinism + scaling -------------

grep -q '"run": "legacy"' "$par_json" \
  || breach "$par_json has no legacy baseline run"
grep -q '"deterministic": true' "$par_json" \
  || breach "$par_json: bench reported non-deterministic sharded runs"

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
    breach "sharded-t$t diverges from sharded-t1: events $ev vs $t1_events, frames $fr vs $t1_frames"
  fi
done

# The scaling bound is only meaningful with real cores under the workers.
min_speedup=2.0
t4_speedup=$(field "$(grep '"run": "sharded-t4"' "$par_json")" speedup_vs_1t)
[ -n "$t4_speedup" ] || fail "could not parse sharded-t4 speedup from $par_json"
if [ "$hw" -ge 4 ]; then
  if ! awk -v s="$t4_speedup" -v min="$min_speedup" \
       'BEGIN { exit !(s >= min) }'; then
    breach "4-thread sharded speedup regressed: ${t4_speedup}x (floor: ${min_speedup}x on $hw hardware threads)"
  fi
  parallel_note="4-thread speedup ${t4_speedup}x on $hw hardware threads"
else
  parallel_note="4-thread speedup bound SKIPPED ($hw hardware thread(s) < 4; measured ${t4_speedup}x)"
fi

# --- aggregate_parallel: the million-station cell, sharded ---------------

agg_stations=$(field "$(grep '"aggregate_stations"' "$par_json")" aggregate_stations)
[ -n "$agg_stations" ] || fail "could not parse aggregate_stations from $par_json"
if ! awk -v n="$agg_stations" -v min="$min_stations" 'BEGIN { exit !(n >= min) }'; then
  breach "sharded aggregate cell shrank: $agg_stations stations (floor: $min_stations)"
fi
for run in agg-legacy agg-sharded-t1 agg-sharded-t2 agg-sharded-t4 agg-sharded-t8; do
  line=$(grep "\"run\": \"$run\"" "$par_json") || fail "$par_json has no $run run"
  ev=$(field "$line" events)
  if [ -z "$ev" ] || [ "$ev" -eq 0 ]; then
    breach "$run ran no events (its forked child failed?)"
  fi
done

grep -q '"aggregate_deterministic": true' "$par_json" \
  || breach "$par_json: sharded aggregate runs diverge across thread counts"
grep -q '"aggregate_matches_legacy": true' "$par_json" \
  || breach "$par_json: sharded aggregate workload diverges from the legacy path"

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
    breach "agg-sharded-t$t diverges from agg-sharded-t1: events $ev vs $agg_t1_events, frames $fr vs $agg_t1_frames"
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
    breach "sharded aggregate $f diverges from legacy: $t1_v vs $legacy_v"
  fi
done

# Same per-station memory budget as the aggregate_profile cell (#6);
# 0 means the platform hides RSS, not a pass at 0 bytes.
agg_bps=$(field "$agg_t1_line" bytes_per_station)
[ -n "$agg_bps" ] || fail "could not parse aggregate bytes_per_station"
if ! awk -v b="$agg_bps" -v max="$max_bps" 'BEGIN { exit !(b == 0 || b <= max) }'; then
  breach "sharded aggregate station memory regressed: $agg_bps bytes/station (limit: $max_bps; stations planned as blocks: ~8.7, planned one by one: ~47, every station built: ~184, with the NIC's box resident: ~376)"
fi

# Speedup over sim time (the bench already subtracts the serial build);
# same hardware-thread guard as the flood cell's bound.
agg_t4_speedup=$(field "$(grep '"run": "agg-sharded-t4"' "$par_json")" speedup_vs_1t)
[ -n "$agg_t4_speedup" ] || fail "could not parse agg-sharded-t4 speedup from $par_json"
if [ "$hw" -ge 4 ]; then
  if ! awk -v s="$agg_t4_speedup" -v min="$min_speedup" \
       'BEGIN { exit !(s >= min) }'; then
    breach "4-thread aggregate speedup regressed: ${agg_t4_speedup}x (floor: ${min_speedup}x on $hw hardware threads)"
  fi
  aggregate_note="aggregate 4-thread speedup ${agg_t4_speedup}x"
else
  aggregate_note="aggregate 4-thread speedup bound SKIPPED ($hw hardware thread(s) < 4; measured ${agg_t4_speedup}x)"
fi

if [ "${#failures[@]}" -gt 0 ]; then
  echo "check_bench_smoke: ${#failures[@]} guard(s) failed:" >&2
  for f in "${failures[@]}"; do
    echo "check_bench_smoke: $f" >&2
  done
  exit 1
fi

echo "check_bench_smoke: OK (batch_insert + timed_run cells present;" \
  "saturated run at $sat_growth B peak-RSS growth per fired entry;" \
  "flood profile at $epb events and $ipb inserts/broadcast for $receivers receivers;" \
  "egress hop at $ipf inserts/flood on $ports ports;" \
  "ttcp write at $ipw inserts/write over $frags fragments; mac_lookup present;" \
  "MAC tables at $growth_per_entry B peak-RSS growth per learned entry;" \
  "$stations stations at $bps B and $bups us each, $agg_vpf receiver visits/frame," \
  "$agg_answered/$agg_sent pings;" \
  "tcp incast $inc_goodput Mb/s goodput, slowest stream $inc_min Mb/s, all bytes delivered," \
  "$inc_epf encodes/frame over $inc_frames frames, $inc_cpb payload copies/byte;" \
  "sharded runs deterministic, $parallel_note;" \
  "sharded aggregate bit-identical to legacy at $agg_bps B/station, $aggregate_note)"

#include "src/bridge/learning.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "tests/bridge/bridge_test_util.h"

namespace ab::bridge {
namespace {

using testing::TwoLanFixture;

const ether::MacAddress kHost1 = ether::MacAddress::local(100, 1);
const ether::MacAddress kHost2 = ether::MacAddress::local(100, 2);

TEST(MacTable, LearnAndLookup) {
  MacTable table;
  const netsim::TimePoint t0{};
  table.learn(kHost1, 3, t0);
  const auto hit = table.lookup(kHost1, t0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 3);
  EXPECT_FALSE(table.lookup(kHost2, t0).has_value());
}

TEST(MacTable, ReplacesPreviousEntry) {
  // "...replacing any previous entry" (a host moved ports).
  MacTable table;
  const netsim::TimePoint t0{};
  table.learn(kHost1, 1, t0);
  table.learn(kHost1, 2, t0 + netsim::seconds(1));
  EXPECT_EQ(*table.lookup(kHost1, t0 + netsim::seconds(1)), 2);
  EXPECT_EQ(table.size(), 1u);
}

TEST(MacTable, NeverLearnsGroupOrZeroSources) {
  // Footnote 3 of the paper.
  MacTable table;
  table.learn(ether::MacAddress::broadcast(), 1, {});
  table.learn(ether::MacAddress::all_bridges(), 1, {});
  table.learn(ether::MacAddress(), 1, {});
  EXPECT_EQ(table.size(), 0u);
}

TEST(MacTable, EntriesAgeOut) {
  MacTable table(netsim::seconds(300));
  const netsim::TimePoint t0{};
  table.learn(kHost1, 1, t0);
  EXPECT_TRUE(table.lookup(kHost1, t0 + netsim::seconds(299)).has_value());
  EXPECT_FALSE(table.lookup(kHost1, t0 + netsim::seconds(301)).has_value());
}

TEST(MacTable, FastAgingShortensHorizon) {
  MacTable table(netsim::seconds(300), netsim::seconds(15));
  const netsim::TimePoint t0{};
  table.learn(kHost1, 1, t0);
  table.set_fast_aging(true);
  EXPECT_FALSE(table.lookup(kHost1, t0 + netsim::seconds(16)).has_value());
  table.set_fast_aging(false);
  EXPECT_TRUE(table.lookup(kHost1, t0 + netsim::seconds(16)).has_value());
}

TEST(MacTable, ExpireSweepsStaleEntries) {
  MacTable table(netsim::seconds(300));
  const netsim::TimePoint t0{};
  table.learn(kHost1, 1, t0);
  table.learn(kHost2, 2, t0 + netsim::seconds(200));
  EXPECT_EQ(table.expire(t0 + netsim::seconds(350)), 1u);
  EXPECT_EQ(table.size(), 1u);
}

// ---- flat open-addressing storage ----

TEST(MacTableFlatHash, MassInsertLookupAcrossGrowth) {
  // Thousands of stations force several rehashes and long probe runs; every
  // address must stay findable with its latest port. Ports span the whole
  // 16-bit range (0xFFFF included) and the highest and lowest unicast
  // addresses are learned too, so the address and port packed into one
  // slot word must come back out exactly.
  MacTable table;
  const netsim::TimePoint t0{};
  constexpr int kStations = 3000;
  const auto station = [](int i) {
    return ether::MacAddress::local(static_cast<std::uint32_t>(i / 8),
                                    static_cast<std::uint16_t>(i % 8));
  };
  const auto port_of = [](int i) {
    return static_cast<active::PortId>(i * 0xFFFF / (kStations - 1));
  };
  std::map<ether::MacAddress, active::PortId> expected;
  for (int i = 0; i < kStations; ++i) {
    table.learn(station(i), port_of(i), t0);
    expected[station(i)] = port_of(i);
  }
  ASSERT_EQ(port_of(kStations - 1), 0xFFFF);
  const std::map<ether::MacAddress, active::PortId> extremes = {
      {ether::MacAddress({0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}), 0xFFFF},
      {ether::MacAddress({0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE}), 0},
      {ether::MacAddress({0xFC, 0x00, 0x00, 0x00, 0x00, 0x01}), 0x8000},
      {ether::MacAddress({0x00, 0x00, 0x00, 0x00, 0x00, 0x01}), 0xFFFE},
  };
  for (const auto& [mac, port] : extremes) {
    table.learn(mac, port, t0);
    expected[mac] = port;
  }
  EXPECT_EQ(table.size(), expected.size());
  // Occupancy is kept at or below 3/4, so probes terminate quickly.
  EXPECT_GE(table.capacity() * 3, table.size() * 4);
  for (const auto& [mac, port] : expected) {
    const auto hit = table.lookup(mac, t0);
    ASSERT_TRUE(hit.has_value()) << mac.to_string();
    EXPECT_EQ(*hit, port) << mac.to_string();
  }
  const std::vector<MacTable::Entry> entries = table.entries();
  EXPECT_EQ(entries.size(), expected.size());
  for (const MacTable::Entry& e : entries) {
    const auto it = expected.find(e.mac);
    ASSERT_NE(it, expected.end()) << e.mac.to_string();
    EXPECT_EQ(e.port, it->second) << e.mac.to_string();
    EXPECT_EQ(e.learned, t0);
  }
}

/// No lookup key may match a slot sentinel: zero, broadcast and group
/// addresses are never learned, so they must miss whatever the table holds.
/// Looked up at the epoch, where no slot reads as stale: a sentinel that
/// matched would answer instead of hiding behind the aging check.
void expect_no_group_or_zero_hits(const MacTable& table) {
  for (const ether::MacAddress never :
       {ether::MacAddress(), ether::MacAddress::broadcast(),
        ether::MacAddress::all_bridges(), ether::MacAddress::dec_bridge_group(),
        ether::MacAddress({0x01, 0x00, 0x00, 0x00, 0x00, 0x00}),
        ether::MacAddress({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE})}) {
    EXPECT_FALSE(table.lookup(never, netsim::TimePoint{}).has_value())
        << never.to_string();
  }
}

TEST(MacTableFlatHash, ExpiryTombstonesKeepCollidingEntriesReachable) {
  // Expire entries in the middle of probe chains, then verify every
  // survivor is still found (the tombstones keep chains intact) and that
  // re-learning reuses the holes without growing size() wrongly.
  MacTable table(netsim::seconds(100));
  const netsim::TimePoint t0{};
  constexpr int kStations = 512;
  for (int i = 0; i < kStations; ++i) {
    table.learn(ether::MacAddress::local(7, static_cast<std::uint16_t>(i)),
                static_cast<active::PortId>(i % 3), t0 + netsim::seconds(i % 2));
  }
  // Entries learned at t0 (even i) age out; odd ones survive.
  const std::size_t removed = table.expire(t0 + netsim::seconds(101));
  EXPECT_EQ(removed, static_cast<std::size_t>(kStations / 2));
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kStations / 2));
  expect_no_group_or_zero_hits(table);
  for (int i = 1; i < kStations; i += 2) {
    EXPECT_TRUE(table
                    .lookup(ether::MacAddress::local(7, static_cast<std::uint16_t>(i)),
                            t0 + netsim::seconds(101))
                    .has_value())
        << i;
  }
  // Re-learn the expired half: size returns to kStations, everything hits.
  for (int i = 0; i < kStations; i += 2) {
    table.learn(ether::MacAddress::local(7, static_cast<std::uint16_t>(i)), 9,
                t0 + netsim::seconds(102));
  }
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kStations));
  for (int i = 0; i < kStations; i += 2) {
    EXPECT_EQ(*table.lookup(ether::MacAddress::local(7, static_cast<std::uint16_t>(i)),
                            t0 + netsim::seconds(102)),
              9);
  }

  // Tables that are mostly tombstones, over many address sets: the probe
  // for each never-learned key crosses tombstones in most of them, so a
  // sentinel that aliased one of those keys would answer it somewhere.
  for (std::uint32_t node = 0; node < 32; ++node) {
    SCOPED_TRACE(node);
    MacTable tombstoned(netsim::seconds(100));
    for (int i = 0; i < 96; ++i) {
      tombstoned.learn(ether::MacAddress::local(node, static_cast<std::uint16_t>(i)), 1,
                       t0 + netsim::seconds(i % 8 == 0 ? 1 : 0));
    }
    EXPECT_EQ(tombstoned.expire(t0 + netsim::seconds(100) + netsim::milliseconds(500)),
              84u);
    expect_no_group_or_zero_hits(tombstoned);
  }
}

TEST(MacTableFlatHash, LastDestinationCacheSurvivesMutation) {
  // Back-to-back lookups of one address ride the cache; learn/expire/clear
  // in between must never serve a stale port or a dead entry.
  MacTable table(netsim::seconds(100));
  const netsim::TimePoint t0{};
  table.learn(kHost1, 1, t0);
  EXPECT_EQ(*table.lookup(kHost1, t0), 1);
  EXPECT_EQ(*table.lookup(kHost1, t0), 1);  // cached hit
  table.learn(kHost1, 2, t0);               // moved ports: cache must follow
  EXPECT_EQ(*table.lookup(kHost1, t0), 2);
  table.expire(t0 + netsim::seconds(101));  // entry dies; cache invalidated
  EXPECT_FALSE(table.lookup(kHost1, t0 + netsim::seconds(101)).has_value());
  table.learn(kHost2, 5, t0 + netsim::seconds(101));
  EXPECT_EQ(*table.lookup(kHost2, t0 + netsim::seconds(101)), 5);
  table.clear();
  EXPECT_FALSE(table.lookup(kHost2, t0 + netsim::seconds(101)).has_value());
  EXPECT_EQ(table.size(), 0u);
}

TEST(MacTableFlatHash, ZeroAddressNeverMatchesTheEmptySentinel) {
  // The zero address shares its key with the empty-slot sentinel; a
  // lookup must not "find" an empty slot and hand back its default port.
  MacTable table;
  const netsim::TimePoint t0{};
  EXPECT_FALSE(table.lookup(ether::MacAddress(), t0).has_value());
  table.learn(kHost1, 1, t0);
  EXPECT_FALSE(table.lookup(ether::MacAddress(), t0).has_value());
}

TEST(MacTableFlatHash, FullyExpiredTableResetsItsTombstones) {
  MacTable table(netsim::seconds(10));
  const netsim::TimePoint t0{};
  for (int i = 0; i < 64; ++i) {
    table.learn(ether::MacAddress::local(3, static_cast<std::uint16_t>(i)), 1, t0);
  }
  EXPECT_EQ(table.expire(t0 + netsim::seconds(11)), 64u);
  EXPECT_EQ(table.size(), 0u);
  // A fresh learn after the wipe must behave like a young table.
  table.learn(kHost1, 4, t0 + netsim::seconds(12));
  EXPECT_EQ(*table.lookup(kHost1, t0 + netsim::seconds(12)), 4);
  EXPECT_EQ(table.size(), 1u);
}

// ---- switchlet behaviour over a real two-LAN topology ----

TEST(LearningBridge, PeriodicSweepDropsStaleEntries) {
  // An idle bridge must shed entries it will never look up again: the
  // switchlet's periodic sweep runs on the scheduler and counts what it
  // drops. Aging is shortened so the test stays fast.
  BridgeNodeConfig cfg;
  cfg.mac_aging = netsim::seconds(8);  // sweep every 2 s (aging / 4)
  TwoLanFixture f(cfg);
  f.bridge->load_dumb();
  auto* learning = f.bridge->load_learning();
  EXPECT_EQ(learning->sweep_interval(), netsim::seconds(2));

  ASSERT_EQ(f.ping_a_to_b(1), 1);  // populates the table
  const std::size_t learned = learning->table().size();
  ASSERT_GE(learned, 2u);

  // No traffic for longer than the aging horizon: the sweep (not any
  // lookup -- nothing is looking) must empty the table.
  f.net.scheduler().run_for(netsim::seconds(12));
  EXPECT_EQ(learning->table().size(), 0u);
  EXPECT_EQ(learning->stats().expired, learned);
  EXPECT_GE(learning->stats().sweeps, 4u);
}

TEST(LearningBridge, StopCancelsTheSweepTimer) {
  BridgeNodeConfig cfg;
  cfg.mac_aging = netsim::seconds(8);
  TwoLanFixture f(cfg);
  f.bridge->load_dumb();
  auto* learning = f.bridge->load_learning();
  ASSERT_EQ(f.ping_a_to_b(1), 1);  // arms the sweep
  ASSERT_TRUE(f.bridge->node().loader().stop("bridge.learning"));
  const std::uint64_t sweeps = learning->stats().sweeps;
  f.net.scheduler().run_for(netsim::seconds(30));
  EXPECT_EQ(learning->stats().sweeps, sweeps);  // timer is gone

  // Restarting with a warm table re-arms it.
  ASSERT_TRUE(f.bridge->node().loader().start("bridge.learning"));
  (void)f.ping_a_to_b(1);
  f.net.scheduler().run_for(netsim::seconds(5));
  EXPECT_GT(learning->stats().sweeps, sweeps);
}

TEST(LearningBridge, IdleBridgeLeavesTheSchedulerEmpty) {
  // The sweep must not keep an idle simulation alive: once the table has
  // emptied, no timer is pending and an unbounded run() terminates.
  BridgeNodeConfig cfg;
  cfg.mac_aging = netsim::seconds(8);
  TwoLanFixture f(cfg);
  f.bridge->load_dumb();
  auto* learning = f.bridge->load_learning();
  ASSERT_EQ(f.ping_a_to_b(1), 1);
  f.net.scheduler().run();  // would hang if the sweep re-armed forever
  EXPECT_EQ(learning->table().size(), 0u);
  EXPECT_TRUE(f.net.scheduler().empty());
}

TEST(LearningBridge, PingWorksThroughTheBridge) {
  TwoLanFixture f;
  f.bridge->load_dumb();
  f.bridge->load_learning();
  EXPECT_EQ(f.ping_a_to_b(3), 3);
}

TEST(LearningBridge, IsolatesLocalTraffic) {
  // Two hosts on the first LAN talk; after learning, their frames must not appear
  // on the second LAN -- the whole point of a learning bridge.
  TwoLanFixture f;
  f.bridge->load_dumb();
  auto* learning = f.bridge->load_learning();

  stack::HostConfig hc;
  hc.ip = stack::Ipv4Addr(10, 0, 0, 3);
  stack::HostStack host_c(f.net.scheduler(), f.net.add_nic("hostC", *f.lan_a), hc);

  // hostA <-> hostC are both on lan0.
  // Bounded runs: an unbounded run() would idle through the whole aging
  // horizon (the sweep keeps ticking until the table empties) and the
  // second exchange would start from an empty table again.
  int replies = 0;
  f.host_a->set_echo_handler([&](const stack::HostStack::EchoReply&) { ++replies; });
  f.host_a->send_echo_request(host_c.ip(), 1, 1, {});
  f.net.scheduler().run_for(netsim::seconds(2));
  ASSERT_EQ(replies, 1);

  const std::size_t far_before = f.trace.count_on("lan1");
  f.host_a->send_echo_request(host_c.ip(), 1, 2, {});
  f.net.scheduler().run_for(netsim::seconds(2));
  EXPECT_EQ(replies, 2);
  // The second exchange is fully learned: nothing new crosses over.
  EXPECT_EQ(f.trace.count_on("lan1"), far_before);
  EXPECT_GT(learning->stats().filtered, 0u);
}

TEST(LearningBridge, UnknownDestinationFloods) {
  TwoLanFixture f;
  f.bridge->load_dumb();
  auto* learning = f.bridge->load_learning();
  // A frame to a never-seen unicast address floods to the other LAN.
  auto& nic = f.net.add_nic("probe", *f.lan_a);
  nic.transmit(ether::Frame::ethernet2(kHost2, nic.mac(),
                                       ether::EtherType::kExperimental, {1}));
  f.net.scheduler().run();
  EXPECT_GT(f.trace.count_on("lan1"), 0u);
  EXPECT_GT(learning->stats().floods, 0u);
}

TEST(LearningBridge, LearnsDirectedForwarding) {
  TwoLanFixture f;
  f.bridge->load_dumb();
  auto* learning = f.bridge->load_learning();
  (void)f.ping_a_to_b(1);  // learns both hosts
  const auto hits_before = learning->stats().hits;
  (void)f.ping_a_to_b(1);
  EXPECT_GT(learning->stats().hits, hits_before);
  EXPECT_GE(learning->table().size(), 2u);
}

TEST(LearningBridge, StopRestoresFlooding) {
  TwoLanFixture f;
  f.bridge->load_dumb();
  f.bridge->load_learning();
  (void)f.ping_a_to_b(1);
  ASSERT_TRUE(f.bridge->node().loader().stop("bridge.learning"));
  // Still forwards (dumb flooding restored).
  EXPECT_EQ(f.ping_a_to_b(1), 1);
}

TEST(LearningBridge, FuncRegistryAccessPoints) {
  TwoLanFixture f;
  f.bridge->load_dumb();
  f.bridge->load_learning();
  (void)f.ping_a_to_b(1);
  auto& funcs = f.bridge->node().funcs();
  const auto size = funcs.eval("bridge.learning.table_size");
  ASSERT_TRUE(size.has_value());
  EXPECT_GE(std::stoi(size.value()), 2);
  ASSERT_TRUE(funcs.eval("bridge.learning.flush").has_value());
  EXPECT_EQ(funcs.eval("bridge.learning.table_size").value(), "0");
}

TEST(DumbBridge, FloodsEverythingBothWays) {
  TwoLanFixture f;
  f.bridge->load_dumb();
  EXPECT_EQ(f.ping_a_to_b(2), 2);
  // Without learning, even known unicast keeps crossing: every frame from
  // one LAN appears on the other and vice versa.
  const std::size_t far_lan = f.trace.count_on("lan1");
  EXPECT_GT(far_lan, 0u);
}

TEST(DumbBridge, StopUnbindsPorts) {
  TwoLanFixture f;
  f.bridge->load_dumb();
  ASSERT_TRUE(f.bridge->node().loader().stop("bridge.dumb"));
  EXPECT_EQ(f.bridge->plane().bridge_ports().size(), 0u);
  EXPECT_EQ(f.ping_a_to_b(1), 0);  // no longer forwards
  // Ports can be re-bound by a restart.
  ASSERT_TRUE(f.bridge->node().loader().start("bridge.dumb"));
  EXPECT_EQ(f.ping_a_to_b(1), 1);
}

TEST(LearningBridge, RequiresPlane) {
  EXPECT_THROW(LearningBridgeSwitchlet(nullptr), std::invalid_argument);
  EXPECT_THROW(DumbBridgeSwitchlet(nullptr), std::invalid_argument);
}

TEST(LearningBridge, SweepIntervalDefaults) {
  const auto plane = std::make_shared<ForwardingPlane>();
  // aging/4, floored at 1 s, never longer than aging itself.
  EXPECT_EQ(LearningBridgeSwitchlet(plane, netsim::seconds(300)).sweep_interval(),
            netsim::seconds(75));
  EXPECT_EQ(LearningBridgeSwitchlet(plane, netsim::seconds(2)).sweep_interval(),
            netsim::seconds(1));
  EXPECT_EQ(
      LearningBridgeSwitchlet(plane, netsim::milliseconds(500)).sweep_interval(),
      netsim::milliseconds(500));
  EXPECT_EQ(LearningBridgeSwitchlet(plane, netsim::seconds(300), netsim::seconds(7))
                .sweep_interval(),
            netsim::seconds(7));
}

}  // namespace
}  // namespace ab::bridge

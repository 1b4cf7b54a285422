// LanSegment's planned stations against stations attached up front.
//
// Each test builds one segment twice: a bare sender and a promiscuous port
// on the walk list, then eight stations. The eager world attaches the
// stations' NICs and HostStacks at once; the planned world reserves their
// slots as one block (plan_block) and builds each through its factory when
// the segment first hands it a frame or the test asks for it. The same
// frames must then give the same events, segment counters, NIC counters
// and host-stack counters in both worlds, and a planned station must be
// built in exactly its reserved slot.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/ether/frame.h"
#include "src/netsim/lan.h"
#include "src/netsim/network.h"
#include "src/netsim/nic.h"
#include "src/stack/arp.h"
#include "src/stack/host_stack.h"
#include "src/stack/icmp.h"
#include "src/stack/ipv4.h"

namespace ab::netsim {
namespace {

using stack::HostStack;
using stack::Ipv4Addr;

constexpr std::uint32_t kStations = 8;
constexpr std::uint32_t kFirstMacId = 100;
/// Host ordinal of station 0: the address plan gives it 10.3.0.1.
constexpr std::uint32_t kFirstOrdinal = 3 * 256 * 254;

std::uint32_t station_ordinal(std::uint32_t i) { return kFirstOrdinal + i; }
ether::MacAddress station_mac(std::uint32_t i) { return mac_of_id(kFirstMacId + i); }
Ipv4Addr station_ip(std::uint32_t i) {
  return Ipv4Addr(10, 3, 0, static_cast<std::uint8_t>(i + 1));
}

/// A bare sender, a promiscuous port, `extra_bare` more bare NICs, then the
/// stations, eager or planned.
struct StationLan {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& tx = net.add_nic("tx", lan, mac_of_id(1));
  Nic& port = net.add_nic("port", lan, mac_of_id(2));
  std::vector<Nic*> bare;
  bool planned;
  int builds = 0;
  /// By station; the planned world's NICs are created unattached, here.
  std::vector<std::unique_ptr<Nic>> owned_nics;
  std::vector<std::unique_ptr<HostStack>> stacks;

  explicit StationLan(bool planned_world, int extra_bare = 0)
      : planned(planned_world), owned_nics(kStations), stacks(kStations) {
    port.set_promiscuous(true);
    for (int b = 0; b < extra_bare; ++b) {
      bare.push_back(&net.add_nic("bare" + std::to_string(b), lan,
                                  mac_of_id(10 + static_cast<std::uint32_t>(b))));
    }
    if (planned) {
      lan.set_station_factory(&StationLan::build, this);
      lan.plan_block(kFirstMacId, kFirstOrdinal, kStations);
      return;
    }
    for (std::uint32_t i = 0; i < kStations; ++i) {
      Nic& nic = net.add_nic("st" + std::to_string(i), lan, station_mac(i));
      stacks[i] = std::make_unique<HostStack>(net.scheduler(), nic, config(i));
    }
  }

  static stack::HostConfig config(std::uint32_t i) {
    stack::HostConfig cfg;
    cfg.ip = station_ip(i);
    return cfg;
  }

  static Nic& build(void* self, std::uint32_t ordinal) {
    StationLan& w = *static_cast<StationLan*>(self);
    const std::uint32_t i = ordinal - kFirstOrdinal;
    w.builds += 1;
    w.owned_nics[i] = std::make_unique<Nic>(w.net.scheduler(), "st" + std::to_string(i),
                                            station_mac(i));
    w.stacks[i] = std::make_unique<HostStack>(w.net.scheduler(), *w.owned_nics[i], config(i));
    return *w.owned_nics[i];
  }

  [[nodiscard]] bool built(std::uint32_t i) const { return stacks[i] != nullptr; }

  void send(const ether::WireFrame& frame) {
    tx.transmit(frame);
    net.scheduler().run();
  }
};

/// Everything a run shows, with an unbuilt station reading as zeros.
struct Observed {
  std::array<std::uint64_t, 7> lan{};
  std::uint64_t events = 0;
  std::vector<std::array<std::uint64_t, 7>> nics;  ///< tx, port, stations
  std::vector<std::array<std::uint64_t, 4>> hosts;

  friend bool operator==(const Observed&, const Observed&) = default;
};

std::array<std::uint64_t, 7> fields(const NicStats& s) {
  return {s.tx_frames, s.tx_bytes, s.tx_dropped, s.rx_frames,
          s.rx_bytes,  s.rx_filtered, s.rx_bad};
}

Observed observe(StationLan& w) {
  Observed o;
  const LanStats& s = w.lan.stats();
  o.lan = {s.frames_carried,    s.bytes_carried,     s.frames_lost,
           s.frames_dropped_by_filter, s.receivers_visited, s.receivers_skipped,
           w.lan.attached_count()};
  o.events = w.net.scheduler().executed();
  o.nics.push_back(fields(w.tx.stats()));
  o.nics.push_back(fields(w.port.stats()));
  for (std::uint32_t i = 0; i < kStations; ++i) {
    if (!w.built(i)) {
      o.nics.emplace_back();
      o.hosts.emplace_back();
      continue;
    }
    HostStack& h = *w.stacks[i];
    o.nics.push_back(fields(h.nic().stats()));
    o.hosts.push_back({h.stats().arp_requests_sent, h.stats().arp_replies_sent,
                       h.stats().echo_requests_answered, h.stats().rx_parse_errors});
  }
  return o;
}

ether::WireFrame echo_to(ether::MacAddress dst, Ipv4Addr to) {
  stack::IcmpEcho echo;
  echo.id = 9;
  echo.seq = 1;
  echo.payload = util::ByteBuffer(8, 0x5A);
  stack::Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(stack::IpProto::kIcmp);
  h.src = Ipv4Addr(10, 9, 9, 9);
  h.dst = to;
  util::ByteBuffer packet = echo.encode();
  h.write_in_place(packet);
  return ether::Frame::ethernet2(dst, mac_of_id(1), ether::EtherType::kIpv4,
                                 std::move(packet));
}

ether::WireFrame who_has(Ipv4Addr target) {
  const stack::ArpPacket arp =
      stack::ArpPacket::request(mac_of_id(1), Ipv4Addr(10, 9, 9, 9), target);
  return ether::Frame::ethernet2(ether::MacAddress::broadcast(), mac_of_id(1),
                                 ether::EtherType::kArp, arp.encode());
}

/// Sends `frames` through both worlds; they must observe the same things.
void expect_same_run(StationLan& eager, StationLan& planned,
                     const std::vector<ether::WireFrame>& frames) {
  for (const ether::WireFrame& frame : frames) {
    eager.send(frame);
    planned.send(frame);
    EXPECT_EQ(observe(planned), observe(eager));
  }
}

TEST(PlannedStation, UnicastBuildsTheStationInItsSlotAndDeliversAsAnEagerOne) {
  StationLan eager(false);
  StationLan planned(true);
  ASSERT_EQ(planned.lan.planned_count(), kStations);
  ASSERT_EQ(planned.lan.attached()[2 + 5], nullptr);

  // An echo request to station 5: it answers, ARPing for the sender
  // (which never replies, so the stack retries until it gives up).
  expect_same_run(eager, planned, {echo_to(station_mac(5), station_ip(5))});
  EXPECT_EQ(planned.builds, 1);
  ASSERT_TRUE(planned.built(5));
  EXPECT_EQ(planned.lan.attached()[2 + 5], &planned.stacks[5]->nic());
  EXPECT_EQ(planned.stacks[5]->nic().segment(), &planned.lan);
  EXPECT_EQ(planned.lan.planned_count(), kStations - 1);
  EXPECT_EQ(planned.stacks[5]->stats().echo_requests_answered, 1u);
  EXPECT_GT(planned.stacks[5]->stats().arp_requests_sent, 0u);

  // The built station is an ordinary one from then on.
  expect_same_run(eager, planned, {echo_to(station_mac(5), station_ip(5))});
  EXPECT_EQ(planned.builds, 1);
}

TEST(PlannedStation, ArpForItsAddressBuildsItAndDeliversAsAnEagerOne) {
  StationLan eager(false);
  StationLan planned(true);
  expect_same_run(eager, planned, {who_has(station_ip(3)), who_has(station_ip(3))});
  EXPECT_EQ(planned.builds, 1);
  ASSERT_TRUE(planned.built(3));
  EXPECT_EQ(planned.lan.attached()[2 + 3], &planned.stacks[3]->nic());
  EXPECT_EQ(planned.stacks[3]->stats().arp_replies_sent, 1u);  // the copy is a duplicate
  EXPECT_EQ(planned.tx.stats().rx_frames, 1u);                 // the reply
  // A who-has for nobody's address, a BPDU and a probe build nothing.
  expect_same_run(eager, planned,
                  {who_has(Ipv4Addr(10, 3, 0, 200)),
                   ether::Frame::llc_frame(ether::MacAddress::all_bridges(), mac_of_id(1),
                                           ether::LlcHeader::spanning_tree(),
                                           util::ByteBuffer(35, 0)),
                   ether::Frame::ethernet2(ether::MacAddress::broadcast(), mac_of_id(1),
                                           ether::EtherType::kExperimental,
                                           util::ByteBuffer(46, 0))});
  EXPECT_EQ(planned.builds, 1);
}

TEST(PlannedStation, CountsAsAttachedAndAsSkipped) {
  StationLan eager(false);
  StationLan planned(true);
  EXPECT_EQ(planned.lan.attached_count(), 2 + kStations);
  EXPECT_EQ(planned.lan.attached_count(), eager.lan.attached_count());
  // A probe reaches the port; the eight stations and nobody else skip it.
  expect_same_run(eager, planned,
                  {ether::Frame::ethernet2(ether::MacAddress::broadcast(), mac_of_id(1),
                                           ether::EtherType::kExperimental,
                                           util::ByteBuffer(46, 0))});
  EXPECT_EQ(planned.lan.stats().receivers_skipped, kStations);
  EXPECT_EQ(planned.builds, 0);
}

TEST(PlannedStation, FullWalkBuildsEveryPlannedStation) {
  {
    // IPv4 to a group MAC: every station parses the header.
    StationLan eager(false);
    StationLan planned(true);
    expect_same_run(eager, planned,
                    {echo_to(ether::MacAddress::broadcast(), station_ip(1))});
    EXPECT_EQ(planned.builds, static_cast<int>(kStations));
    EXPECT_EQ(planned.lan.planned_count(), 0u);
    for (std::uint32_t i = 0; i < kStations; ++i) {
      ASSERT_TRUE(planned.built(i));
      EXPECT_EQ(planned.lan.attached()[2 + i], &planned.stacks[i]->nic());
    }
  }
  {
    // A bad FCS: every station's NIC counts it.
    StationLan eager(false);
    StationLan planned(true);
    util::ByteBuffer wire = echo_to(station_mac(2), station_ip(2)).frame().encode();
    wire.back() ^= 0xFF;
    expect_same_run(eager, planned, {ether::WireFrame::from_wire(std::move(wire))});
    EXPECT_EQ(planned.builds, static_cast<int>(kStations));
    for (std::uint32_t i = 0; i < kStations; ++i) {
      EXPECT_EQ(planned.stacks[i]->nic().stats().rx_bad, 1u);
    }
  }
}

TEST(PlannedStation, SlotsAndIndexEntriesSurviveCompaction) {
  StationLan eager(false, 7);
  StationLan planned(true, 7);
  // Station 1 acts, then leaves: its slot becomes a tombstone like the
  // eager one's.
  expect_same_run(eager, planned, {who_has(station_ip(1))});
  ASSERT_TRUE(planned.built(1));
  eager.stacks[1]->nic().detach();
  planned.stacks[1]->nic().detach();
  // Seven bare NICs and the port leave too: tombstones then dominate the
  // seventeen slots, and the segment compacts.
  for (StationLan* w : {&eager, &planned}) {
    for (Nic* nic : w->bare) nic->detach();
    w->port.detach();
  }
  ASSERT_EQ(planned.lan.attached().size(), 1u + kStations - 1);  // compacted
  EXPECT_EQ(planned.lan.attached_count(), 1u + kStations - 1);
  EXPECT_EQ(planned.lan.planned_count(), kStations - 1);
  EXPECT_EQ(planned.lan.attached()[0], &planned.tx);
  for (std::size_t at = 1; at < planned.lan.attached().size(); ++at) {
    EXPECT_EQ(planned.lan.attached()[at], nullptr) << at;
  }

  // The index still finds the planned stations at their new positions:
  // station 6 now sits at 1 + 5 (station 1's slot is gone).
  expect_same_run(eager, planned,
                  {echo_to(station_mac(6), station_ip(6)), who_has(station_ip(0)),
                   who_has(station_ip(1))});
  ASSERT_TRUE(planned.built(6));
  ASSERT_TRUE(planned.built(0));
  EXPECT_EQ(planned.lan.attached()[1 + 5], &planned.stacks[6]->nic());
  EXPECT_EQ(planned.lan.attached()[1], &planned.stacks[0]->nic());
  EXPECT_EQ(planned.stacks[6]->stats().echo_requests_answered, 1u);
  EXPECT_EQ(planned.stacks[0]->stats().arp_replies_sent, 1u);
  EXPECT_EQ(planned.builds, 3);  // station 1 is not planned any more

  // Asking for a station builds it in its slot; asking twice is an error
  // the caller avoids by remembering what it built.
  Nic& seven = planned.lan.build_station(station_ordinal(7));
  EXPECT_EQ(planned.lan.attached()[1 + 6], &seven);
  EXPECT_THROW((void)planned.lan.build_station(station_ordinal(7)), std::logic_error);
}

TEST(PlannedStation, PlanningNeedsAFactoryAndAnAddressRangeInThePlan) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  EXPECT_THROW(lan.plan_block(kFirstMacId, kFirstOrdinal, kStations), std::logic_error);
  lan.set_station_factory(&StationLan::build, nullptr);
  // The block's last station would fall past the host slice of 10/8.
  constexpr std::uint32_t kLastHostOrdinal = 254u * 256u * 254u - 1;
  EXPECT_THROW(lan.plan_block(kFirstMacId, kLastHostOrdinal, 2), std::invalid_argument);
  // MAC ids are numbered from 1 and must not wrap.
  EXPECT_THROW(lan.plan_block(0, kFirstOrdinal, 1), std::invalid_argument);
  EXPECT_THROW(lan.plan_block(0xFFFFFFFFu, kFirstOrdinal, 2), std::invalid_argument);
  EXPECT_EQ(lan.attached_count(), 0u);
}

TEST(PlannedStation, BlocksAscendInOrdinalAndMacId) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  lan.set_station_factory(&StationLan::build, nullptr);
  lan.plan_block(kFirstMacId, kFirstOrdinal, 4);
  EXPECT_THROW(lan.plan_block(kFirstMacId + 4, kFirstOrdinal + 3, 1), std::invalid_argument);
  EXPECT_THROW(lan.plan_block(kFirstMacId + 3, kFirstOrdinal + 4, 1), std::invalid_argument);
  lan.plan_block(kFirstMacId + 10, kFirstOrdinal + 20, 2);
  lan.plan_block(kFirstMacId + 12, kFirstOrdinal + 22, 0);  // an empty block plans nothing
  EXPECT_EQ(lan.attached_count(), 6u);
  EXPECT_EQ(lan.planned_count(), 6u);
}

// Compaction renumbers a block's first position when NICs attached before
// it leave: its stations are then found, and built, in their moved slots.
TEST(PlannedStation, BlockMovesUpWhenTheNicsBeforeItDetach) {
  StationLan eager(false, 7);
  StationLan planned(true, 7);
  for (StationLan* w : {&eager, &planned}) {
    for (Nic* nic : w->bare) nic->detach();
    w->port.detach();
  }
  // Eight tombstones of seventeen slots: not yet dominant.
  ASSERT_EQ(planned.lan.attached().size(), 2u + 7u + kStations);
  expect_same_run(eager, planned, {who_has(station_ip(2))});
  ASSERT_EQ(planned.builds, 1);
  EXPECT_EQ(planned.lan.attached()[9 + 2], &planned.stacks[2]->nic());
  // Station 2 leaves too: tombstones dominate, and the segment compacts
  // to the sender and the seven stations left.
  eager.stacks[2]->nic().detach();
  planned.stacks[2]->nic().detach();
  ASSERT_EQ(planned.lan.attached().size(), 1u + kStations - 1);
  EXPECT_EQ(planned.lan.planned_count(), kStations - 1);
  expect_same_run(eager, planned,
                  {echo_to(station_mac(0), station_ip(0)), who_has(station_ip(5)),
                   echo_to(station_mac(7), station_ip(7))});
  EXPECT_EQ(planned.builds, 4);
  EXPECT_EQ(planned.lan.attached()[1], &planned.stacks[0]->nic());
  EXPECT_EQ(planned.lan.attached()[1 + 4], &planned.stacks[5]->nic());
  EXPECT_EQ(planned.lan.attached()[1 + 6], &planned.stacks[7]->nic());
  Nic& three = planned.lan.build_station(station_ordinal(3));
  EXPECT_EQ(planned.lan.attached()[1 + 2], &three);
  EXPECT_EQ(planned.lan.planned_count(), kStations - 5);
}

// A built station is an attached one: once it detaches, turns promiscuous
// or takes another address, frames for its MAC or its planned address
// never build it again.
TEST(PlannedStation, BuiltStationThatLeavesOrChangesModeIsNeverRebuilt) {
  StationLan eager(false);
  StationLan planned(true);
  expect_same_run(eager, planned,
                  {who_has(station_ip(1)), who_has(station_ip(4)), who_has(station_ip(6))});
  ASSERT_EQ(planned.builds, 3);
  for (StationLan* w : {&eager, &planned}) {
    w->stacks[1]->nic().detach();
    w->stacks[4]->nic().set_promiscuous(true);
    w->stacks[6]->nic().set_station_ipv4(Ipv4Addr(10, 9, 0, 6).value());
  }
  expect_same_run(eager, planned,
                  {echo_to(station_mac(1), station_ip(1)), who_has(station_ip(1)),
                   echo_to(station_mac(4), station_ip(4)), who_has(station_ip(4)),
                   echo_to(station_mac(6), station_ip(6)), who_has(station_ip(6)),
                   who_has(Ipv4Addr(10, 9, 0, 6))});
  EXPECT_EQ(planned.builds, 3);
  EXPECT_EQ(planned.lan.planned_count(), kStations - 3);
  EXPECT_THROW((void)planned.lan.build_station(station_ordinal(1)), std::logic_error);
  EXPECT_THROW((void)planned.lan.build_station(station_ordinal(4)), std::logic_error);
  EXPECT_THROW((void)planned.lan.build_station(station_ordinal(6)), std::logic_error);
  // The promiscuous station, on the walk list now, still hears the frames.
  EXPECT_GT(planned.stacks[4]->nic().stats().rx_frames, 1u);
}

// A block station's MAC is mac_of_id of its key; a destination that shares
// the key (the MAC's low 32 bits) but not the rest reaches no station and
// builds nothing, as the eager station is left out by its full MAC.
TEST(PlannedStation, MacMatchingOnlyTheLow32BitsReachesNoBlockStation) {
  StationLan eager(false);
  StationLan planned(true);
  // mac_of_id(104) is 02:00:00:00:00:68; this differs in its first octet.
  const ether::MacAddress other({0x06, 0x00, 0x00, 0x00, 0x00, kFirstMacId + 4});
  ASSERT_EQ(static_cast<std::uint32_t>(other.value()),
            static_cast<std::uint32_t>(station_mac(4).value()));
  ASSERT_NE(other, station_mac(4));
  ASSERT_FALSE(other.is_group());
  expect_same_run(eager, planned, {echo_to(other, station_ip(4))});
  EXPECT_EQ(planned.builds, 0);
  EXPECT_EQ(eager.stacks[4]->nic().stats().rx_frames, 0u);
  EXPECT_EQ(planned.lan.stats().receivers_skipped, kStations);
}

}  // namespace
}  // namespace ab::netsim

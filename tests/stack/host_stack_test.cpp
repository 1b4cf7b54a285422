// End-to-end host stack tests over a single simulated LAN: ARP resolution,
// ping, UDP delivery, fragmentation and reassembly.
#include "src/stack/host_stack.h"

#include <gtest/gtest.h>

#include "src/bridge/sharded_topology.h"
#include "src/netsim/network.h"

namespace ab::stack {
namespace {

struct TwoHosts {
  netsim::Network net;
  netsim::LanSegment* lan;
  std::unique_ptr<HostStack> a;
  std::unique_ptr<HostStack> b;

  explicit TwoHosts(HostConfig cfg_a = {}, HostConfig cfg_b = {}) {
    lan = &net.add_segment("lan");
    auto& nic_a = net.add_nic("hostA", *lan);
    auto& nic_b = net.add_nic("hostB", *lan);
    if (cfg_a.ip.is_zero()) cfg_a.ip = Ipv4Addr(10, 0, 0, 1);
    if (cfg_b.ip.is_zero()) cfg_b.ip = Ipv4Addr(10, 0, 0, 2);
    a = std::make_unique<HostStack>(net.scheduler(), nic_a, cfg_a);
    b = std::make_unique<HostStack>(net.scheduler(), nic_b, cfg_b);
  }
};

TEST(HostStack, PingGetsAReply) {
  TwoHosts t;
  std::vector<HostStack::EchoReply> replies;
  t.a->set_echo_handler(
      [&](const HostStack::EchoReply& r) { replies.push_back(r); });
  t.a->send_echo_request(t.b->ip(), 0x77, 1, util::to_bytes("hello"));
  t.net.scheduler().run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].from, t.b->ip());
  EXPECT_EQ(replies[0].id, 0x77);
  EXPECT_EQ(replies[0].seq, 1);
  EXPECT_EQ(util::to_string(replies[0].payload), "hello");
  EXPECT_EQ(t.b->stats().echo_requests_answered, 1u);
}

TEST(HostStack, ArpResolvesOnceThenCaches) {
  TwoHosts t;
  t.a->set_echo_handler([](const HostStack::EchoReply&) {});
  t.a->send_echo_request(t.b->ip(), 1, 1, {});
  t.net.scheduler().run();
  EXPECT_EQ(t.a->stats().arp_requests_sent, 1u);
  t.a->send_echo_request(t.b->ip(), 1, 2, {});
  t.net.scheduler().run();
  // Second ping reuses the cached mapping.
  EXPECT_EQ(t.a->stats().arp_requests_sent, 1u);
  EXPECT_EQ(t.a->stats().echo_replies_received, 2u);
}

TEST(HostStack, ArpGivesUpWhenTargetAbsent) {
  TwoHosts t;
  t.a->send_echo_request(Ipv4Addr(10, 0, 0, 99), 1, 1, {});
  t.net.scheduler().run();
  EXPECT_EQ(t.a->stats().arp_requests_sent, 3u);  // arp_max_tries
  EXPECT_EQ(t.a->stats().unresolved_drops, 1u);
}

TEST(HostStack, UdpDeliveredToBoundPort) {
  TwoHosts t;
  std::vector<UdpDatagram> got;
  Ipv4Addr got_src;
  t.b->bind_udp(4000, [&](Ipv4Addr src, const UdpDatagram& d) {
    got_src = src;
    got.push_back(d);
  });
  t.a->send_udp(t.b->ip(), 5555, 4000, util::to_bytes("datagram"));
  t.net.scheduler().run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got_src, t.a->ip());
  EXPECT_EQ(got[0].src_port, 5555);
  EXPECT_EQ(util::to_string(got[0].payload), "datagram");
}

TEST(HostStack, UdpToUnboundPortIsDropped) {
  TwoHosts t;
  t.a->send_udp(t.b->ip(), 1, 4001, util::to_bytes("nobody"));
  t.net.scheduler().run();
  EXPECT_EQ(t.b->stats().udp_delivered, 0u);
}

TEST(HostStack, UnbindStopsDelivery) {
  TwoHosts t;
  int got = 0;
  t.b->bind_udp(4000, [&](Ipv4Addr, const UdpDatagram&) { ++got; });
  t.a->send_udp(t.b->ip(), 1, 4000, {1});
  t.net.scheduler().run();
  t.b->unbind_udp(4000);
  t.a->send_udp(t.b->ip(), 1, 4000, {2});
  t.net.scheduler().run();
  EXPECT_EQ(got, 1);
}

TEST(HostStack, DoubleBindThrows) {
  TwoHosts t;
  t.b->bind_udp(4000, [](Ipv4Addr, const UdpDatagram&) {});
  EXPECT_THROW(t.b->bind_udp(4000, [](Ipv4Addr, const UdpDatagram&) {}),
               std::invalid_argument);
}

TEST(HostStack, LargeDatagramFragmentsAndReassembles) {
  // The paper's ttcp runs used 8 KB writes, "resulting in multiple
  // back-to-back LAN frames".
  TwoHosts t;
  util::ByteBuffer big(8192);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
  }
  util::ByteBuffer received;
  t.b->bind_udp(4000, [&](Ipv4Addr, const UdpDatagram& d) { received = d.payload; });
  t.a->send_udp(t.b->ip(), 1, 4000, big);
  t.net.scheduler().run();
  EXPECT_EQ(received, big);
  EXPECT_GT(t.a->stats().fragments_sent, 5u);  // 8200/1480 -> 6 fragments
  EXPECT_EQ(t.b->stats().reassemblies_done, 1u);
}

TEST(HostStack, MissingFragmentTimesOutReassembly) {
  netsim::Network net;
  auto& lan = net.add_segment("lan");
  auto& nic_a = net.add_nic("a", lan);
  auto& nic_b = net.add_nic("b", lan);
  HostConfig ca;
  ca.ip = Ipv4Addr(10, 0, 0, 1);
  HostStack a(net.scheduler(), nic_a, ca);
  HostConfig cb;
  cb.ip = Ipv4Addr(10, 0, 0, 2);
  HostStack b(net.scheduler(), nic_b, cb);

  // Prime ARP so we can splice a raw fragment directly.
  a.set_echo_handler([](const HostStack::EchoReply&) {});
  a.send_echo_request(b.ip(), 1, 1, {});
  net.scheduler().run();

  // Hand-build a lone first-fragment (more_fragments set, no follow-up).
  Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  h.src = a.ip();
  h.dst = b.ip();
  h.identification = 0x999;
  h.more_fragments = true;
  nic_a.transmit(ether::Frame::ethernet2(nic_b.mac(), nic_a.mac(),
                                         ether::EtherType::kIpv4,
                                         h.encode(util::ByteBuffer(64, 0))));
  net.scheduler().run();
  EXPECT_EQ(b.stats().reassemblies_dropped, 1u);
  EXPECT_EQ(b.stats().reassemblies_done, 0u);
}

TEST(HostStack, TxCostModelDelaysTransmission) {
  HostConfig slow;
  slow.ip = Ipv4Addr(10, 0, 0, 1);
  slow.tx_cost.per_frame = netsim::milliseconds(10);
  TwoHosts t(slow);
  std::vector<HostStack::EchoReply> replies;
  netsim::TimePoint reply_at{};
  t.a->set_echo_handler([&](const HostStack::EchoReply&) { reply_at = t.net.now(); });
  t.a->send_echo_request(t.b->ip(), 1, 1, {});
  t.net.scheduler().run();
  // Two charged frames on host A (ARP request + ICMP request): >= 20 ms.
  EXPECT_GE(reply_at.time_since_epoch(), netsim::milliseconds(20));
}

TEST(HostStack, RejectsInvalidConfig) {
  netsim::Network net;
  auto& lan = net.add_segment("lan");
  auto& nic = net.add_nic("x", lan);
  HostConfig bad;  // zero IP
  EXPECT_THROW(HostStack(net.scheduler(), nic, bad), std::invalid_argument);
  HostConfig tiny;
  tiny.ip = Ipv4Addr(1, 2, 3, 4);
  tiny.mtu = 8;
  EXPECT_THROW(HostStack(net.scheduler(), nic, tiny), std::invalid_argument);
}

TEST(HostStack, FloodedDuplicateArpReplyIsCountedAndIgnored) {
  // While the extended LAN is loopy or converging, a flood delivers the
  // same ARP reply once per surviving path. Only the first copy may act;
  // the rest are counted duplicates that must not rewrite the cache.
  TwoHosts t;
  t.a->set_echo_handler([](const HostStack::EchoReply&) {});
  t.a->send_echo_request(t.b->ip(), 1, 1, {});
  t.net.scheduler().run();  // resolves b, caches the mapping
  EXPECT_EQ(t.a->stats().arp_duplicate_replies, 0u);

  // Replay a three-copy burst of b's reply, microseconds apart (what a
  // loopy flood delivers). The cached mapping is by now older than the
  // dedupe window (run() drained through the 500 ms ARP retry no-op), so
  // the first copy is a legitimate refresh; the two behind it are
  // duplicates and must be suppressed.
  ArpPacket dup;
  dup.op = ArpOp::kReply;
  dup.sender_mac = t.b->nic().mac();
  dup.sender_ip = t.b->ip();
  dup.target_mac = t.a->nic().mac();
  dup.target_ip = t.a->ip();
  for (int i = 0; i < 3; ++i) {
    t.b->nic().transmit(ether::Frame::ethernet2(
        t.a->nic().mac(), t.b->nic().mac(), ether::EtherType::kArp, dup.encode()));
  }
  t.net.scheduler().run();
  EXPECT_EQ(t.a->stats().arp_duplicate_replies, 2u);
  // The mapping still works (the original entry is intact).
  t.a->send_echo_request(t.b->ip(), 1, 2, {});
  t.net.scheduler().run();
  EXPECT_EQ(t.a->stats().arp_requests_sent, 1u);
  EXPECT_EQ(t.a->stats().echo_replies_received, 2u);
}

TEST(HostStack, DuplicateArpRequestInsideTheWindowDrawsOneReply) {
  // Duplicate flooded copies of the same request must not each draw a
  // reply (the netloader's suppression, applied to the host stack); a
  // genuine retry after the window is answered again.
  netsim::Network net;
  auto& lan = net.add_segment("lan");
  auto& nic_b = net.add_nic("hostB", lan);
  HostConfig cfg;
  cfg.ip = Ipv4Addr(10, 0, 0, 2);
  HostStack b(net.scheduler(), nic_b, cfg);

  auto& probe = net.add_nic("probe", lan);
  const ArpPacket req =
      ArpPacket::request(probe.mac(), Ipv4Addr(10, 0, 0, 7), b.ip());
  const auto send_copy = [&] {
    probe.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(),
                                           probe.mac(), ether::EtherType::kArp,
                                           req.encode()));
  };
  send_copy();
  send_copy();  // flooded duplicate, microseconds apart
  net.scheduler().run();
  EXPECT_EQ(b.stats().arp_replies_sent, 1u);
  EXPECT_EQ(b.stats().arp_duplicate_replies, 1u);

  net.scheduler().run_for(netsim::milliseconds(20));  // past the window
  send_copy();  // a real retry
  net.scheduler().run();
  EXPECT_EQ(b.stats().arp_replies_sent, 2u);
  EXPECT_EQ(b.stats().arp_duplicate_replies, 1u);
}

TEST(HostStack, GenuineRequestRightAfterAReplyIsStillAnswered) {
  // Dedupe must key the reply decision on when we last ANSWERED a sender,
  // not on the cache mapping: an unsolicited reply from X followed
  // microseconds later by X's genuine request (X never heard anything from
  // us, its own entry may just have expired) is NOT a duplicate and must
  // be answered, even though both carry the identical sender mapping.
  netsim::Network net;
  auto& lan = net.add_segment("lan");
  auto& nic_b = net.add_nic("hostB", lan);
  HostConfig cfg;
  cfg.ip = Ipv4Addr(10, 0, 0, 2);
  HostStack b(net.scheduler(), nic_b, cfg);

  auto& probe = net.add_nic("probe", lan);
  const Ipv4Addr probe_ip(10, 0, 0, 7);
  ArpPacket reply;
  reply.op = ArpOp::kReply;
  reply.sender_mac = probe.mac();
  reply.sender_ip = probe_ip;
  reply.target_mac = nic_b.mac();
  reply.target_ip = b.ip();
  probe.transmit(ether::Frame::ethernet2(nic_b.mac(), probe.mac(),
                                         ether::EtherType::kArp, reply.encode()));
  const ArpPacket req = ArpPacket::request(probe.mac(), probe_ip, b.ip());
  probe.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(),
                                         probe.mac(), ether::EtherType::kArp,
                                         req.encode()));
  net.scheduler().run();
  EXPECT_EQ(b.stats().arp_replies_sent, 1u);
  EXPECT_EQ(b.stats().arp_duplicate_replies, 0u);
}

// ------------------------------------------------------ idle stations

/// One station that has not acted yet and a probe NIC on a LAN; frames are
/// handed to the station through Nic::deliver, the path a segment's
/// delivery walk takes.
struct IdleStation {
  netsim::Network net;
  netsim::LanSegment* lan = &net.add_segment("lan");
  netsim::Nic* nic = &net.add_nic("host0_0", *lan);
  netsim::Nic* probe = &net.add_nic("probe", *lan);
  HostStack host;
  const Ipv4Addr probe_ip{10, 0, 0, 7};

  explicit IdleStation(HostConfig cfg = {})
      : host(net.scheduler(), *nic, with_ip(cfg)) {}

  static HostConfig with_ip(HostConfig cfg) {
    cfg.ip = Ipv4Addr(10, 0, 0, 2);
    return cfg;
  }

  void hand(ether::Frame frame) { nic->deliver(ether::WireFrame(std::move(frame))); }

  /// An IPv4 packet from the probe to `dst`, sent to the station's MAC.
  ether::Frame ipv4_to(Ipv4Addr dst, IpProto proto, util::ByteBuffer packet) const {
    Ipv4Header h;
    h.protocol = static_cast<std::uint8_t>(proto);
    h.src = probe_ip;
    h.dst = dst;
    h.write_in_place(packet);
    return ether::Frame::ethernet2(nic->mac(), probe->mac(), ether::EtherType::kIpv4,
                                   std::move(packet));
  }

  ether::Frame who_has(Ipv4Addr target) const {
    return ether::Frame::ethernet2(
        ether::MacAddress::broadcast(), probe->mac(), ether::EtherType::kArp,
        ArpPacket::request(probe->mac(), probe_ip, target).encode());
  }
};

TEST(HostStack, IdleStationStaysIdleOnFramesItDiscards) {
  // ARP and IPv4 for another address, and an LLC frame, reach the stack
  // and change nothing: no counter moves and nothing is scheduled.
  IdleStation s;
  s.hand(s.who_has(Ipv4Addr(10, 0, 0, 9)));
  s.hand(s.ipv4_to(Ipv4Addr(10, 0, 0, 9), IpProto::kUdp,
                   encode_udp(s.probe_ip, Ipv4Addr(10, 0, 0, 9),
                              UdpDatagram{1, 2, util::to_bytes("not yours")})));
  s.hand(ether::Frame::llc_frame(ether::MacAddress::all_bridges(), s.probe->mac(),
                                 ether::LlcHeader::spanning_tree(),
                                 util::ByteBuffer(35, 0)));
  EXPECT_EQ(s.nic->stats().rx_frames, 3u);  // all three reached the stack
  EXPECT_EQ(s.host.stats(), HostStats{});
  EXPECT_EQ(s.net.scheduler().pending(), 0u);
}

TEST(HostStack, StationNicStaysIdleOnALanCarryingOtherTraffic) {
  // A plan-built cell: the bridges' BPDUs cross every LAN, a probe NIC
  // floods a broadcast burst and asks ARP for addresses no station owns.
  // The segment hands none of it to a station, so no station is built,
  // and a station asked for afterwards has counted nothing.
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kStar;
  spec.nodes = 2;
  spec.hosts_per_lan = 3;
  bridge::ShardedTopology topo = bridge::build_sharded_topology(spec, 1);
  netsim::Scheduler& sched = topo.regions.front()->net.scheduler();
  ASSERT_EQ(topo.host_count(), 9u);  // hub + 2 leaves, 3 stations each
  netsim::Nic& probe = topo.add_station_nic("probe", 1);
  std::vector<ether::WireFrame> burst(
      16, ether::Frame::ethernet2(ether::MacAddress::broadcast(), probe.mac(),
                                  ether::EtherType::kExperimental,
                                  util::ByteBuffer(64, 0x11)));
  sched.run_for(netsim::seconds(5));  // hellos and the root election
  EXPECT_EQ(probe.transmit_burst(burst), 16u);
  for (std::uint8_t last = 200; last < 204; ++last) {
    probe.transmit(ether::Frame::ethernet2(
        ether::MacAddress::broadcast(), probe.mac(), ether::EtherType::kArp,
        ArpPacket::request(probe.mac(), Ipv4Addr(10, 9, 9, 9), Ipv4Addr(10, 9, 9, last))
            .encode()));
  }
  sched.run_for(netsim::seconds(5));
  EXPECT_EQ(topo.hosts_built(), 0u);

  for (std::size_t i = 0; i < topo.host_count(); ++i) {
    netsim::Nic& nic = topo.host(i).nic();
    const netsim::Topology::HostAttach at = topo.shape.host(i);
    EXPECT_EQ(nic.name(), "host" + std::to_string(at.lan) + "_" +
                              std::to_string(at.index));
    EXPECT_EQ(nic.stats(), netsim::NicStats{}) << nic.name();
    EXPECT_EQ(topo.host(i).stats(), HostStats{}) << nic.name();
  }
  // The traffic was there: every frame crossed the probe's LAN, and the
  // bridge port on it (promiscuous, on the walk list) was handed each one.
  const netsim::LanStats& lan = topo.shape.lans[1]->stats();
  EXPECT_GE(lan.frames_carried, 20u);
  EXPECT_GT(lan.receivers_skipped, 0u);
}

TEST(HostStack, NonDefaultConfigHoldsFromConstruction) {
  HostConfig cfg;
  cfg.mtu = 576;
  cfg.answer_ping = false;
  cfg.tx_cost = netsim::CostModel::linux_host();
  IdleStation s(cfg);

  // The ARP exchange: the station resolves the probe first.
  HostConfig peer_cfg;
  peer_cfg.ip = s.probe_ip;
  HostStack peer(s.net.scheduler(), *s.probe, peer_cfg);
  int delivered = 0;
  peer.bind_udp(4000, [&](Ipv4Addr, const UdpDatagram& d) {
    delivered += static_cast<int>(d.payload.size());
  });
  s.host.send_udp(peer.ip(), 1, 4000, util::ByteBuffer(1000, 0x5A));
  s.net.scheduler().run();
  EXPECT_EQ(delivered, 1000);
  // 8 + 1000 UDP bytes cut at (576 - 20) & ~7 = 552 per fragment.
  EXPECT_EQ(s.host.stats().fragments_sent, 2u);
  EXPECT_EQ(peer.stats().reassemblies_done, 1u);

  // Charged per frame by the Linux host model: the ARP request (28 B)
  // and two fragments (20 + 552 and 20 + 456 B).
  const netsim::ProcessingElement& pe = s.host.tx_element();
  const netsim::CostModel model = netsim::CostModel::linux_host();
  EXPECT_EQ(pe.processed(), 3u);
  EXPECT_EQ(pe.busy_time(), model.cost(28) + model.cost(572) + model.cost(476));

  // answer_ping = false: a ping draws no reply.
  peer.send_echo_request(s.host.ip(), 1, 1, {});
  s.net.scheduler().run();
  EXPECT_EQ(s.host.stats().echo_requests_answered, 0u);
  EXPECT_EQ(peer.stats().echo_replies_received, 0u);
}

TEST(HostStack, TxElementWorksOnAnIdleStation) {
  IdleStation s;
  netsim::ProcessingElement& pe = s.host.tx_element();
  EXPECT_EQ(pe.processed(), 0u);
  EXPECT_EQ(pe.model(), netsim::CostModel::ideal());
  netsim::CostModel slow;
  slow.per_frame = netsim::milliseconds(10);
  pe.set_model(slow);

  // The station's reply (an ARP reply, then the echo reply) pays it.
  HostConfig peer_cfg;
  peer_cfg.ip = s.probe_ip;
  HostStack peer(s.net.scheduler(), *s.probe, peer_cfg);
  netsim::TimePoint reply_at{};
  peer.set_echo_handler([&](const HostStack::EchoReply&) { reply_at = s.net.now(); });
  peer.send_echo_request(s.host.ip(), 1, 1, {});
  s.net.scheduler().run();
  EXPECT_EQ(s.host.tx_element().processed(), 2u);
  EXPECT_GE(reply_at.time_since_epoch(), netsim::milliseconds(20));
}

TEST(HostStack, AnsweringAnEchoCopiesItsPayloadOnce) {
  // The request is decoded as a view and the reply encoded from it: N
  // payload bytes copied, into the reply.
  IdleStation s;
  constexpr std::size_t kPayload = 1000;
  IcmpEcho request;
  request.id = 3;
  request.seq = 4;
  request.payload = util::ByteBuffer(kPayload, 0xC3);
  ether::Frame frame = s.ipv4_to(s.host.ip(), IpProto::kIcmp, request.encode());
  const std::uint64_t before = ether::datapath_counters().bytes_copied;
  s.hand(std::move(frame));
  EXPECT_EQ(ether::datapath_counters().bytes_copied - before, kPayload);
  EXPECT_EQ(s.host.stats().echo_requests_answered, 1u);
}

TEST(HostStack, PingSweepAcrossSizes) {
  // Latency-bench smoke: all Fig. 9 packet sizes complete.
  TwoHosts t;
  int replies = 0;
  t.a->set_echo_handler([&](const HostStack::EchoReply&) { ++replies; });
  std::uint16_t seq = 0;
  for (std::size_t size : {32u, 512u, 1024u, 2048u, 4096u}) {
    t.a->send_echo_request(t.b->ip(), 9, ++seq, util::ByteBuffer(size, 0xA5));
  }
  t.net.scheduler().run();
  EXPECT_EQ(replies, 5);
}

}  // namespace
}  // namespace ab::stack

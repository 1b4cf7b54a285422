// Shared-wire-buffer datapath coverage: the zero-copy guarantees the
// WireFrame path makes — receivers share the sender's parse (no decode, no
// FCS check), wire bytes are built only when something reads them and then
// at most once regardless of fan-out, and tail-drop accounting is unchanged
// under queue pressure.
#include <gtest/gtest.h>

#include "src/bridge/bridge_node.h"
#include "src/netsim/network.h"
#include "src/util/string_util.h"

namespace ab::bridge {
namespace {

ether::Frame test_frame(ether::MacAddress dst, ether::MacAddress src,
                        std::size_t len = 100) {
  return ether::Frame::ethernet2(dst, src, ether::EtherType::kExperimental,
                                 util::ByteBuffer(len, 0x5C));
}

/// An 8-port dumb (flooding) bridge: one host on segment 0, one listening
/// peer on each of the other segments.
struct FloodFixture {
  static constexpr int kPorts = 8;
  netsim::Network net;
  BridgeNode bridge;
  netsim::Nic* host = nullptr;
  std::vector<netsim::LanSegment*> lans;
  std::vector<netsim::Nic*> bridge_nics;
  int deliveries = 0;

  FloodFixture() : bridge(net.scheduler()) {
    for (int i = 0; i < kPorts; ++i) {
      auto& lan = net.add_segment("lan" + std::to_string(i));
      lans.push_back(&lan);
      auto& nic = net.add_nic(util::format("b%d", i), lan);
      bridge_nics.push_back(&nic);
      bridge.add_port(nic);
      if (i == 0) {
        host = &net.add_nic("host", lan);
      } else {
        auto& peer = net.add_nic("peer" + std::to_string(i), lan);
        peer.set_rx_handler([this](const ether::WireFrame&) { ++deliveries; });
      }
    }
    bridge.load_dumb();
  }
};

TEST(Datapath, FloodAcrossEightPortsEncodesAndVerifiesExactlyOnce) {
  FloodFixture f;
  ether::datapath_counters() = {};
  f.host->transmit(test_frame(ether::MacAddress::broadcast(), f.host->mac()));
  f.net.scheduler().run();

  EXPECT_EQ(f.deliveries, FloodFixture::kPorts - 1);
  // No segment has a tap, relay or drop filter, so nothing reads the wire
  // bytes and none are built: no encode, no CRC-32 at all. The bridge fans
  // the host's WireFrame out to all 7 egress ports by refcount.
  EXPECT_EQ(ether::datapath_counters().encodes, 0u);
  // The host's WireFrame carries its parse with the buffer, so the bridge
  // and every peer reuse it: no receive-side decode or FCS check at all.
  EXPECT_EQ(ether::datapath_counters().decodes, 0u);
  EXPECT_EQ(ether::datapath_counters().fcs_verifies, 0u);
}

TEST(Datapath, FloodCopiesBytesOnlyAtTheEncode) {
  FloodFixture f;
  ether::datapath_counters() = {};
  f.host->transmit(test_frame(ether::MacAddress::broadcast(), f.host->mac()));
  f.net.scheduler().run();
  // The temporary moves into the WireFrame and, untapped, is never
  // encoded; the parse travels with the frame, so the receive side and the
  // 7-way fan-out copy nothing either.
  EXPECT_EQ(ether::datapath_counters().bytes_copied, 0u);
}

TEST(Datapath, TappedFloodEncodesOnceAcrossTheFanOut) {
  // The twin of the two tests above with a reader: a tap on one egress
  // segment is the first (and only) thing that asks for wire bytes. The
  // frame is encoded once, when that port carries it; the ingress segment
  // and the other 6 egress ports share the WireFrame and never encode.
  FloodFixture f;
  const ether::Frame frame =
      test_frame(ether::MacAddress::broadcast(), f.host->mac());
  int taps = 0;
  util::ByteBuffer tapped;
  f.lans[3]->set_frame_tap(
      [&](netsim::TimePoint, const netsim::Nic*, util::ByteView wire) {
        ++taps;
        tapped.assign(wire.begin(), wire.end());
      });
  ether::datapath_counters() = {};
  f.host->transmit(test_frame(ether::MacAddress::broadcast(), f.host->mac()));
  f.net.scheduler().run();

  EXPECT_EQ(f.deliveries, FloodFixture::kPorts - 1);
  EXPECT_EQ(taps, 1);
  EXPECT_EQ(ether::datapath_counters().encodes, 1u);
  EXPECT_EQ(ether::datapath_counters().bytes_copied, frame.wire_size());
  EXPECT_EQ(ether::datapath_counters().decodes, 0u);
  EXPECT_EQ(ether::datapath_counters().fcs_verifies, 0u);
  EXPECT_EQ(tapped, frame.encode());  // the bytes the eager path would have built
}

TEST(Datapath, ShortFramesArriveWithWirePaddingLikeTheSeedPath) {
  // Seed receivers decoded the wire, so sub-46-byte Ethernet II payloads
  // arrived padded. The shared-parse path must deliver the same view.
  netsim::Network net;
  BridgeNode bridge(net.scheduler());
  auto& lan0 = net.add_segment("lan0");
  auto& lan1 = net.add_segment("lan1");
  auto& b0 = net.add_nic("b0", lan0);
  auto& b1 = net.add_nic("b1", lan1);
  bridge.add_port(b0);
  bridge.add_port(b1);
  bridge.load_dumb();
  auto& host = net.add_nic("host", lan0);
  auto& peer = net.add_nic("peer", lan1);

  ether::WireFrame got;
  peer.set_rx_handler([&](const ether::WireFrame& wf) { got = wf; });
  host.transmit(test_frame(ether::MacAddress::broadcast(), host.mac(), 28));
  net.scheduler().run();

  ASSERT_TRUE(got.ok());
  const util::ByteBuffer& payload = got.frame().payload;
  ASSERT_EQ(payload.size(), ether::Frame::kMinPayload);
  for (std::size_t i = 0; i < 28; ++i) EXPECT_EQ(payload[i], 0x5C);
  for (std::size_t i = 28; i < payload.size(); ++i) EXPECT_EQ(payload[i], 0);
}

TEST(Datapath, LearnedUnicastAlsoForwardsWithoutReencode) {
  FloodFixture f;
  f.bridge.load_learning();
  // Teach the bridge where the host is, then where peer1's MAC lives.
  const auto peer_mac = ether::MacAddress::local(0xBEEF, 1);
  f.host->transmit(test_frame(ether::MacAddress::broadcast(), f.host->mac()));
  f.net.scheduler().run();

  ether::datapath_counters() = {};
  f.host->transmit(test_frame(peer_mac, f.host->mac()));
  f.net.scheduler().run();
  // Unknown destination: flooded through the learning switchlet, and with
  // nothing reading wire bytes still no encode, no copy and no
  // receive-side re-verification.
  EXPECT_EQ(ether::datapath_counters().encodes, 0u);
  EXPECT_EQ(ether::datapath_counters().bytes_copied, 0u);
  EXPECT_EQ(ether::datapath_counters().fcs_verifies, 0u);
}

TEST(Datapath, TailDropAccountingIsExactUnderQueuePressure) {
  // Fast ingress LAN, slow egress LAN: the bridge's egress NIC queue fills
  // and tail-drops. Every offered frame must be accounted exactly once as
  // transmitted or dropped — shared-buffer queueing changes neither count.
  netsim::Network net;
  netsim::LanConfig fast;
  fast.bit_rate = 1e9;
  netsim::LanConfig slow;
  slow.bit_rate = 1e6;
  auto& lan_in = net.add_segment("in", fast);
  auto& lan_out = net.add_segment("out", slow);

  BridgeNode bridge(net.scheduler());
  auto& b_in = net.add_nic("b_in", lan_in);
  auto& b_out = net.add_nic("b_out", lan_out);
  bridge.add_port(b_in);
  bridge.add_port(b_out);
  bridge.load_dumb();
  b_out.set_tx_queue_limit(4);

  auto& host = net.add_nic("host", lan_in);
  net.add_nic("sink", lan_out);

  const int kOffered = 64;
  host.set_tx_queue_limit(kOffered + 1);
  for (int i = 0; i < kOffered; ++i) {
    host.transmit(test_frame(ether::MacAddress::broadcast(), host.mac(), 400));
  }
  net.scheduler().run();

  const netsim::NicStats& egress = b_out.stats();
  EXPECT_GT(egress.tx_dropped, 0u);
  EXPECT_EQ(egress.tx_frames + egress.tx_dropped, static_cast<std::uint64_t>(kOffered));
}

TEST(Datapath, PacketSharesTheWireBufferWithTheNicPath) {
  // A switchlet that merely forwards never touches payload bytes: the
  // Packet's WireFrame is the same representation the NIC delivered.
  FloodFixture f;
  ether::WireFrame seen;
  f.bridge.plane().set_switch_function([&](const active::Packet& p) {
    seen = p.wire;
    f.bridge.plane().flood(p.wire, p.ingress);
  });
  f.host->transmit(test_frame(ether::MacAddress::broadcast(), f.host->mac()));
  f.net.scheduler().run();
  ASSERT_FALSE(seen.empty());
  EXPECT_TRUE(seen.ok());
  EXPECT_EQ(f.deliveries, FloodFixture::kPorts - 1);
}

}  // namespace
}  // namespace ab::bridge

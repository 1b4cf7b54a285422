// The host stack's buffer contract, end to end through HostStack on a LAN:
// the send ring (a segment that straddles its wrap goes out from two
// spans), the IP headroom send path (every transport's packet is what the
// copying Ipv4Header::encode would build around the same transport bytes),
// and the view decoders (a padded packet decodes to exactly its
// total_length; a loss-free stream copies each payload byte once).
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <optional>
#include <vector>

#include "src/ether/frame.h"
#include "src/netsim/network.h"
#include "src/stack/checksum.h"
#include "src/stack/host_stack.h"
#include "src/stack/icmp.h"
#include "src/stack/ipv4.h"
#include "src/stack/tcp.h"
#include "src/stack/udp.h"

namespace ab::stack {
namespace {

constexpr std::uint16_t kServerPort = 5001;
constexpr std::uint16_t kClientPort = 4001;

util::ByteBuffer copy_of(util::ByteView bytes) {
  return util::ByteBuffer(bytes.begin(), bytes.end());
}

/// `n` bytes that differ from their neighbours and from any shifted copy.
util::ByteBuffer pattern(std::size_t n, std::uint8_t salt) {
  util::ByteBuffer out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 131 + i / 256 + salt);
  }
  return out;
}

/// One IPv4 packet seen on the wire, cut at its total length (Ethernet
/// pads short frames), with the owning copy of its TCP segment if any.
struct SeenPacket {
  util::ByteBuffer packet;
  std::optional<TcpSegment> tcp;
};

/// Client a (10.0.0.1) and server b (10.0.0.2) on one LAN, with an
/// optional tap that records every IPv4 packet and an optional scripted
/// drop of the next data segments.
struct HostPair {
  netsim::Network net;
  netsim::LanSegment* lan = nullptr;
  std::unique_ptr<HostStack> a;
  std::unique_ptr<HostStack> b;
  TcpSocket* client = nullptr;
  TcpSocket* server = nullptr;
  util::ByteBuffer server_received;
  std::vector<SeenPacket> seen;

  HostPair() {
    lan = &net.add_segment("lan");
    HostConfig ca;
    ca.ip = Ipv4Addr(10, 0, 0, 1);
    HostConfig cb;
    cb.ip = Ipv4Addr(10, 0, 0, 2);
    a = std::make_unique<HostStack>(net.scheduler(), net.add_nic("hostA", *lan), ca);
    b = std::make_unique<HostStack>(net.scheduler(), net.add_nic("hostB", *lan), cb);
  }

  void tap() {
    lan->set_frame_tap([this](netsim::TimePoint, const netsim::Nic*, util::ByteView wire) {
      auto frame = ether::Frame::decode(wire);
      if (!frame || !frame.value().has_type(ether::EtherType::kIpv4)) return;
      const util::ByteBuffer& ip_bytes = frame.value().payload;
      auto packet = Ipv4Header::decode(ip_bytes);
      ASSERT_TRUE(packet.has_value()) << packet.error();
      SeenPacket s;
      s.packet = copy_of(util::ByteView(ip_bytes).first(packet->header.total_length));
      if (packet->header.protocol == static_cast<std::uint8_t>(IpProto::kTcp)) {
        auto segment = decode_tcp(packet->header.src, packet->header.dst, packet->payload);
        ASSERT_TRUE(segment.has_value()) << segment.error();
        s.tcp = segment->to_owned();  // the frame dies after the tap returns
      }
      seen.push_back(std::move(s));
    });
  }

  /// Drops the next `count` TCP data segments.
  void drop_data(int count) {
    lan->set_drop_filter([count](netsim::TimePoint, const netsim::Nic*,
                                 util::ByteView wire) mutable {
      if (count <= 0) return false;
      auto frame = ether::Frame::decode(wire);
      if (!frame || !frame.value().has_type(ether::EtherType::kIpv4)) return false;
      auto packet = Ipv4Header::decode(frame.value().payload);
      if (!packet) return false;
      auto segment = decode_tcp(packet->header.src, packet->header.dst, packet->payload);
      if (!segment || segment->payload.empty()) return false;
      count -= 1;
      return true;
    });
  }

  void warm_arp() {
    a->set_echo_handler([](const HostStack::EchoReply&) {});
    b->set_echo_handler([](const HostStack::EchoReply&) {});
    a->send_echo_request(b->ip(), 9, 1, util::to_bytes("warm"));
    net.scheduler().run();
  }

  void establish(std::uint16_t client_port, TcpConfig config = {}) {
    b->tcp_listen(kServerPort, [this](TcpSocket& s) {
      server = &s;
      s.set_receive_handler([this](util::ByteView data) {
        server_received.insert(server_received.end(), data.begin(), data.end());
      });
    }, config);
    client = &a->tcp_connect(b->ip(), kServerPort, client_port, config);
    net.scheduler().run();
    ASSERT_EQ(client->state(), TcpState::kEstablished);
    b->tcp_unlisten(kServerPort);
  }
};

// ------------------------------------------------------------ send ring

// A 1,000-byte write lands 100 bytes before the ring's end, so its one
// segment is encoded from two spans. The wire eats it once; the RTO
// retransmission must carry exactly the bytes written, and the receiver
// must get the stream intact.
TEST(TcpSendRing, SegmentAcrossTheWrapIsRetransmittedWithTheBytesWritten) {
  HostPair p;
  p.warm_arp();
  TcpConfig cfg;
  cfg.mss = 1000;
  p.establish(kClientPort, cfg);
  if (HasFatalFailure()) return;

  util::ByteBuffer expected = pattern(3000, 1);
  p.client->send(expected);
  p.net.scheduler().run();
  ASSERT_EQ(p.client->send_buffered(), 0u);
  const std::size_t capacity = p.client->send_capacity();
  ASSERT_TRUE(std::has_single_bit(capacity));

  // Walk the head to 100 bytes short of the ring's end.
  const std::size_t pad = (2 * capacity - 100 - 3000 % capacity) % capacity;
  const util::ByteBuffer filler = pattern(pad, 2);
  p.client->send(filler);
  p.net.scheduler().run();
  expected.insert(expected.end(), filler.begin(), filler.end());
  ASSERT_EQ(p.client->send_buffered(), 0u);

  p.tap();
  p.drop_data(1);
  const util::ByteBuffer write = pattern(1000, 3);
  p.client->send(write);
  ASSERT_EQ(p.client->send_capacity(), capacity);  // no regrowth: it wraps
  p.net.scheduler().run();
  expected.insert(expected.end(), write.begin(), write.end());

  EXPECT_EQ(p.client->stats().rto_retransmits, 1u);
  EXPECT_EQ(p.lan->stats().frames_dropped_by_filter, 1u);
  std::vector<util::ByteBuffer> data;
  for (const SeenPacket& s : p.seen) {
    if (s.tcp && !s.tcp->payload.empty()) data.push_back(s.tcp->payload);
  }
  ASSERT_EQ(data.size(), 2u);  // the dropped original, the retransmission
  EXPECT_EQ(data[0], write);
  EXPECT_EQ(data[1], write);
  EXPECT_EQ(p.server_received, expected);
}

// ------------------------------------------------------- headroom path

// Every kind of packet a host sends -- SYN with the MSS option, data, FIN,
// RST, a UDP datagram, an ICMP echo -- is built once behind headroom with
// the IP header written in place. It must be byte-identical to the copying
// encoder's packet around the same transport bytes.
TEST(TcpHeadroom, PacketsMatchTheCopyingEncoderAroundTheTransportBytes) {
  HostPair p;
  p.tap();
  p.warm_arp();  // ICMP echo request and reply
  p.b->bind_udp(7, [](Ipv4Addr, const UdpDatagram&) {});
  p.a->send_udp(p.b->ip(), 7007, 7, pattern(333, 4));
  p.net.scheduler().run();
  p.establish(kClientPort);  // SYN, SYN|ACK, ACK
  if (HasFatalFailure()) return;
  p.client->send(pattern(2500, 5));  // two data segments
  p.net.scheduler().run();
  p.client->close();  // FIN
  p.net.scheduler().run();
  p.server->close();  // and the server's
  p.net.scheduler().run();
  p.b->tcp_listen(kServerPort, [](TcpSocket&) {});
  TcpSocket& doomed = p.a->tcp_connect(p.b->ip(), kServerPort, kClientPort + 1);
  p.net.scheduler().run();
  doomed.abort();  // RST
  p.net.scheduler().run();

  int syn_mss = 0, data = 0, fin = 0, rst = 0, udp = 0, icmp = 0;
  for (const SeenPacket& s : p.seen) {
    auto decoded = Ipv4Header::decode(s.packet);
    ASSERT_TRUE(decoded.has_value());
    const Ipv4Header& h = decoded->header;
    const Ipv4Addr src = h.src;
    const Ipv4Addr dst = h.dst;
    // The transport bytes, built again by the transport's own encoder.
    util::ByteBuffer rebuilt;
    switch (static_cast<IpProto>(h.protocol)) {
      case IpProto::kTcp: {
        rebuilt = encode_tcp(src, dst, *s.tcp);
        syn_mss += s.tcp->has(TcpSegment::kSyn) &&
                   parse_tcp_options(s.tcp->options).value().mss.has_value();
        data += !s.tcp->payload.empty();
        fin += s.tcp->has(TcpSegment::kFin);
        rst += s.tcp->has(TcpSegment::kRst);
        break;
      }
      case IpProto::kUdp: {
        auto d = decode_udp(src, dst, decoded->payload);
        ASSERT_TRUE(d.has_value());
        rebuilt = encode_udp(src, dst, d.value());
        udp += 1;
        break;
      }
      case IpProto::kIcmp: {
        auto echo = IcmpEcho::decode(decoded->payload);
        ASSERT_TRUE(echo.has_value());
        rebuilt = echo->encode();
        icmp += 1;
        break;
      }
    }
    Ipv4Header expected_header;
    expected_header.protocol = h.protocol;
    expected_header.src = src;
    expected_header.dst = dst;
    expected_header.identification = h.identification;
    EXPECT_EQ(s.packet, expected_header.encode(transport_bytes(rebuilt)))
        << "protocol " << int{h.protocol};
  }
  EXPECT_EQ(syn_mss, 4);  // two handshakes, SYN and SYN|ACK each
  EXPECT_EQ(data, 2);
  EXPECT_EQ(fin, 2);
  EXPECT_EQ(rst, 1);
  EXPECT_EQ(udp, 1);
  EXPECT_EQ(icmp, 2);
}

// ------------------------------------------------------- receive views

/// `packet` with `count` NOP option bytes appended to its IPv4 header:
/// IHL, total length and header checksum follow.
util::ByteBuffer with_nop_options(const util::ByteBuffer& packet, std::size_t count) {
  util::ByteBuffer out;
  out.reserve(packet.size() + count);
  out.insert(out.end(), packet.begin(), packet.begin() + Ipv4Header::kSize);
  for (std::size_t i = 0; i < count; ++i) out.push_back(0x01);
  out.insert(out.end(), packet.begin() + Ipv4Header::kSize, packet.end());
  const std::size_t header_len = Ipv4Header::kSize + count;
  out[0] = static_cast<std::uint8_t>(0x40 | (header_len / 4));
  out[2] = static_cast<std::uint8_t>(out.size() >> 8);
  out[3] = static_cast<std::uint8_t>(out.size());
  out[10] = 0;
  out[11] = 0;
  const std::uint16_t csum = internet_checksum(util::ByteView(out).first(header_len));
  out[10] = static_cast<std::uint8_t>(csum >> 8);
  out[11] = static_cast<std::uint8_t>(csum);
  return out;
}

// Ethernet pads a frame to its 46-byte minimum payload, so a bare ack
// (40 bytes of IP) arrives with 6 bytes of padding behind it. The IPv4
// view must end at total_length -- with and without header options --
// or the TCP checksum would cover the padding.
TEST(TcpReceiveViews, PaddedPacketDecodesToExactlyItsTotalLength) {
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  TcpSegment ack;
  ack.src_port = kClientPort;
  ack.dst_port = kServerPort;
  ack.seq = 1;
  ack.ack = 1;
  ack.flags = TcpSegment::kAck;
  ack.window = 0xFFFF;
  Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(IpProto::kTcp);
  h.src = src;
  h.dst = dst;

  for (const std::size_t option_bytes : {std::size_t{0}, std::size_t{4}}) {
    util::ByteBuffer packet = encode_tcp(src, dst, ack);
    h.write_in_place(packet);
    if (option_bytes > 0) packet = with_nop_options(packet, option_bytes);
    const util::ByteBuffer wire =
        ether::Frame::ethernet2(ether::MacAddress::local(2, 0), ether::MacAddress::local(1, 0),
                                ether::EtherType::kIpv4, packet)
            .encode();
    auto frame = ether::Frame::decode(wire);
    ASSERT_TRUE(frame.has_value());
    const util::ByteBuffer& ip_bytes = frame.value().payload;
    ASSERT_EQ(ip_bytes.size(), ether::Frame::kMinPayload);  // padded

    auto decoded = Ipv4Header::decode(ip_bytes);
    ASSERT_TRUE(decoded.has_value()) << decoded.error();
    const std::size_t header_len = Ipv4Header::kSize + option_bytes;
    EXPECT_EQ(decoded->header.total_length, packet.size());
    EXPECT_EQ(decoded->payload.size(), decoded->header.total_length - header_len);
    EXPECT_EQ(decoded->payload.data(), ip_bytes.data() + header_len);
    auto segment = decode_tcp(src, dst, decoded->payload);
    ASSERT_TRUE(segment.has_value()) << segment.error();
    EXPECT_TRUE(segment->payload.empty());
  }
}

// With nothing reading wire bytes and no loss, the stack copies each
// payload byte once -- into the segment it encodes. Receive decodes views;
// the in-order payload reaches the application as a view of the frame.
TEST(TcpReceiveViews, LossFreeStreamCopiesEachPayloadByteOnce) {
  HostPair p;
  p.warm_arp();
  p.establish(kClientPort);
  if (HasFatalFailure()) return;

  const util::ByteBuffer stream = pattern(100000, 6);
  ether::datapath_counters() = {};
  p.client->send(stream);
  p.net.scheduler().run();
  EXPECT_EQ(p.server_received, stream);
  EXPECT_EQ(p.client->stats().retransmits, 0u);
  EXPECT_EQ(ether::datapath_counters().bytes_copied, stream.size());
}

}  // namespace
}  // namespace ab::stack

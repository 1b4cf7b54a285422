// Deterministic loss-schedule conformance suite for the TCP in src/stack/tcp.h.
//
// Every scenario scripts exact per-frame drops on the LanSegment (no seeded
// loss model: LanConfig::loss stays 0) and then pins the resulting timer,
// counter, and cwnd behavior EXACTLY -- wire-tap timestamps of same-size
// segments differ by exactly the timer intervals (the NIC's serialization
// pipeline adds a constant offset per frame size), so retransmission
// backoff is asserted with EXPECT_EQ on Durations, not "eventually
// delivered".
#include "src/stack/tcp.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/netsim/network.h"
#include "src/stack/host_stack.h"

namespace ab::stack {
namespace {

using netsim::milliseconds;
using netsim::seconds;

constexpr std::uint16_t kServerPort = 5001;
constexpr std::uint16_t kClientPort = 4001;

util::ByteBuffer copy_of(util::ByteView bytes) {
  return util::ByteBuffer(bytes.begin(), bytes.end());
}

// ------------------------------------------------------------- codec tests

TEST(TcpCodec, EncodeDecodeRoundTrip) {
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  TcpSegment s;
  s.src_port = 4001;
  s.dst_port = 5001;
  s.seq = 0xDEADBEEF;
  s.ack = 0x01020304;
  s.flags = TcpSegment::kSyn | TcpSegment::kAck;
  s.window = 8192;
  s.options = {2, 4, 0x05, 0xB4};  // MSS 1460
  s.payload = util::to_bytes("payload");

  const util::ByteBuffer packet = encode_tcp(src, dst, s);
  const util::ByteView wire = transport_bytes(packet);
  auto decoded = decode_tcp(src, dst, wire);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded.value().src_port, s.src_port);
  EXPECT_EQ(decoded.value().dst_port, s.dst_port);
  EXPECT_EQ(decoded.value().seq, s.seq);
  EXPECT_EQ(decoded.value().ack, s.ack);
  EXPECT_EQ(decoded.value().flags, s.flags);
  EXPECT_EQ(decoded.value().window, s.window);
  EXPECT_EQ(copy_of(decoded.value().payload), s.payload);
  // Views into the wire bytes, not copies.
  EXPECT_EQ(decoded.value().payload.data(), wire.data() + wire.size() - s.payload.size());
  EXPECT_EQ(decoded.value().options.data(), wire.data() + TcpSegment::kHeaderSize);
  EXPECT_EQ(decoded.value().to_owned().payload, s.payload);

  auto options = parse_tcp_options(decoded.value().options);
  ASSERT_TRUE(options.has_value());
  ASSERT_TRUE(options.value().mss.has_value());
  EXPECT_EQ(*options.value().mss, 1460);
}

TEST(TcpCodec, DecodeRejectsCorruption) {
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  TcpSegment s;
  s.src_port = 1;
  s.dst_port = 2;
  s.payload = util::to_bytes("x");
  const util::ByteBuffer packet = encode_tcp(src, dst, s);
  const util::ByteBuffer wire = copy_of(transport_bytes(packet));

  util::ByteBuffer flipped = wire;
  flipped[5] ^= 0x40;
  EXPECT_FALSE(decode_tcp(src, dst, flipped).has_value());  // checksum

  // A different pseudo-header address must fail the checksum. (Swapping
  // src and dst would NOT: the Internet checksum is a commutative sum.)
  EXPECT_FALSE(decode_tcp(src, Ipv4Addr(10, 0, 0, 3), wire).has_value());

  util::ByteBuffer truncated(wire.begin(), wire.begin() + 12);
  EXPECT_FALSE(decode_tcp(src, dst, truncated).has_value());

  util::ByteBuffer bad_offset = wire;
  bad_offset[12] = 0x40;  // data offset 4 < minimum 5
  EXPECT_FALSE(decode_tcp(src, dst, bad_offset).has_value());
}

TEST(TcpCodec, PayloadViewEncodingIsByteIdenticalToThePayloadInSegmentForm) {
  // TcpSocket serializes straight from its send ring through the view
  // overload, the payload in one piece or, across the ring's wrap, in two;
  // it must produce exactly the bytes the segment form does at every split.
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  util::ByteBuffer send_buffer(1401);
  for (std::size_t i = 0; i < send_buffer.size(); ++i) {
    send_buffer[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (const std::size_t len : {0u, 1u, 2u, 3u, 47u, 536u, 1399u, 1400u}) {
    for (const bool syn : {false, true}) {
      TcpSegment segment;
      segment.src_port = 4001;
      segment.dst_port = 5001;
      segment.seq = 0x80000000u + static_cast<std::uint32_t>(len);
      segment.ack = 0x01020304;
      segment.flags = syn ? TcpSegment::kSyn | TcpSegment::kAck
                          : TcpSegment::kAck | TcpSegment::kPsh;
      segment.window = 0xFFFF;
      if (syn) segment.options = {2, 4, 0x05, 0x78};  // MSS 1400
      // Odd start: the view is not the buffer's first byte.
      const util::ByteView payload = util::ByteView(send_buffer).subspan(1, len);
      segment.payload = copy_of(payload);
      const util::ByteBuffer expected = encode_tcp(src, dst, segment);
      const TcpHeader& header = segment;
      for (const std::size_t split : {std::size_t{0}, len / 2, len}) {
        EXPECT_EQ(encode_tcp(src, dst, header, segment.options, payload.first(split),
                             payload.subspan(split)),
                  expected)
            << "payload " << len << " split at " << split
            << (syn ? " with SYN options" : "");
      }
    }
  }
}

TEST(TcpCodec, ParseOptionsRejectsMalformedLengths) {
  const util::ByteBuffer truncated = {2, 4, 0x05};  // MSS option cut short
  EXPECT_FALSE(parse_tcp_options(truncated).has_value());
  const util::ByteBuffer zero_len = {3, 0, 0};
  EXPECT_FALSE(parse_tcp_options(zero_len).has_value());
  const util::ByteBuffer nop_then_end = {1, 1, 0, 0};
  EXPECT_TRUE(parse_tcp_options(nop_then_end).has_value());
}

// --------------------------------------------------------------- fixture

/// One TCP segment observed on the wire by the LAN frame tap, with the
/// tap's timestamp (transmit time + the NIC's serialization delay).
struct SeenSegment {
  netsim::TimePoint at;
  Ipv4Addr src;
  TcpSegment seg;
};

std::optional<SeenSegment> parse_tcp_frame(netsim::TimePoint at,
                                           util::ByteView wire) {
  auto frame = ether::Frame::decode(wire);
  if (!frame || !frame.value().has_type(ether::EtherType::kIpv4)) return std::nullopt;
  auto packet = Ipv4Header::decode(frame.value().payload);
  if (!packet || packet.value().header.protocol !=
                     static_cast<std::uint8_t>(IpProto::kTcp)) {
    return std::nullopt;
  }
  auto seg = decode_tcp(packet.value().header.src, packet.value().header.dst,
                        packet.value().payload);
  if (!seg) return std::nullopt;
  // The trace outlives the frame: keep an owning copy.
  return SeenSegment{at, packet.value().header.src, seg.value().to_owned()};
}

using SegMatch = std::function<bool(const TcpSegment&)>;

/// Two hosts on one LAN with a TCP wire tap and a scripted drop filter.
struct TcpPair {
  netsim::Network net;
  netsim::LanSegment* lan = nullptr;
  std::unique_ptr<HostStack> a;  ///< client, 10.0.0.1
  std::unique_ptr<HostStack> b;  ///< server, 10.0.0.2
  std::vector<SeenSegment> trace;
  TcpSocket* client = nullptr;
  TcpSocket* server = nullptr;
  std::string server_received;

  TcpPair() {
    lan = &net.add_segment("lan");
    auto& nic_a = net.add_nic("hostA", *lan);
    auto& nic_b = net.add_nic("hostB", *lan);
    HostConfig ca, cb;
    ca.ip = Ipv4Addr(10, 0, 0, 1);
    cb.ip = Ipv4Addr(10, 0, 0, 2);
    a = std::make_unique<HostStack>(net.scheduler(), nic_a, ca);
    b = std::make_unique<HostStack>(net.scheduler(), nic_b, cb);
    lan->set_frame_tap([this](netsim::TimePoint at, const netsim::Nic*,
                              util::ByteView wire) {
      if (auto seen = parse_tcp_frame(at, wire)) trace.push_back(std::move(*seen));
    });
  }

  /// Resolves ARP both ways first, so every TCP segment afterwards goes
  /// straight to the wire (constant emit-to-tap pipeline per frame size --
  /// the property the exact timer-delta assertions rest on).
  void warm_arp() {
    a->set_echo_handler([](const HostStack::EchoReply&) {});
    b->set_echo_handler([](const HostStack::EchoReply&) {});
    a->send_echo_request(b->ip(), 9, 1, {});
    b->send_echo_request(a->ip(), 9, 1, {});
    net.scheduler().run();
    trace.clear();
  }

  /// Drops the next `count` TCP frames matching `match` (for every
  /// receiver; the tap still records them, so dropped transmissions stay
  /// visible to the assertions).
  void drop_next(SegMatch match, int count) {
    lan->set_drop_filter([match = std::move(match), count](
                             netsim::TimePoint, const netsim::Nic*,
                             util::ByteView wire) mutable {
      if (count <= 0) return false;
      auto seen = parse_tcp_frame({}, wire);
      if (!seen || !match(seen->seg)) return false;
      count -= 1;
      return true;
    });
  }

  /// Listens on the server, connects the client, runs the handshake to
  /// completion (optionally under an already-installed drop script), and
  /// clears the wire trace.
  void establish(TcpConfig client_cfg = {}, TcpConfig server_cfg = {}) {
    b->tcp_listen(kServerPort, [this](TcpSocket& s) {
      server = &s;
      s.set_receive_handler([this](util::ByteView data) {
        server_received.append(reinterpret_cast<const char*>(data.data()),
                               data.size());
      });
    }, server_cfg);
    client = &a->tcp_connect(b->ip(), kServerPort, kClientPort, client_cfg);
    net.scheduler().run();
    ASSERT_EQ(client->state(), TcpState::kEstablished);
    ASSERT_NE(server, nullptr);
    ASSERT_EQ(server->state(), TcpState::kEstablished);
    trace.clear();
  }

  [[nodiscard]] std::vector<SeenSegment> sent_by(const HostStack& host,
                                                 const SegMatch& match) const {
    std::vector<SeenSegment> out;
    for (const SeenSegment& s : trace) {
      if (s.src == host.ip() && match(s.seg)) out.push_back(s);
    }
    return out;
  }
};

SegMatch is_syn() {
  return [](const TcpSegment& s) {
    return s.has(TcpSegment::kSyn) && !s.has(TcpSegment::kAck);
  };
}
SegMatch has_payload() {
  return [](const TcpSegment& s) { return !s.payload.empty(); };
}
// ------------------------------------------------- loss-schedule scenarios

// Scenario: the first two SYNs are eaten by the wire. The handshake timer
// must back off exponentially from rto_initial -- SYN retransmissions at
// exactly +1 s and +2 s -- and Karn's rule must discard the handshake RTT
// sample (the SYN that finally connected was a retransmission).
TEST(TcpConformance, LostSynHandshakeRtoBackoff) {
  TcpPair t;
  t.warm_arp();
  t.drop_next(is_syn(), 2);

  t.b->tcp_listen(kServerPort, [&](TcpSocket& s) { t.server = &s; });
  TcpSocket& c = t.a->tcp_connect(t.b->ip(), kServerPort, kClientPort);
  t.net.scheduler().run();

  ASSERT_EQ(c.state(), TcpState::kEstablished);
  EXPECT_EQ(c.stats().rto_retransmits, 2u);
  EXPECT_EQ(c.stats().fast_retransmits, 0u);

  const auto syns = t.sent_by(*t.a, is_syn());
  ASSERT_EQ(syns.size(), 3u);
  EXPECT_EQ(syns[1].at - syns[0].at, seconds(1));  // rto_initial
  EXPECT_EQ(syns[2].at - syns[1].at, seconds(2));  // doubled

  // Karn: the SYN was retransmitted, so the handshake RTT was never
  // sampled and the backed-off RTO (1s -> 2s -> 4s) survives.
  EXPECT_EQ(c.stats().rtt_samples, 0u);
  EXPECT_EQ(c.rto(), seconds(4));
  EXPECT_EQ(t.lan->stats().frames_dropped_by_filter, 2u);
}

// Scenario: a data segment is lost twice. The handshake's RTT sample has
// clamped the RTO to rto_min (LAN RTT is microseconds), so the three
// transmissions of the segment sit at exactly +200 ms and then +400 ms --
// the doubled timeout -- and the backed-off RTO persists afterwards
// because the retransmitted segment's RTT is never sampled.
TEST(TcpConformance, LostDataRtoFiresWithDoubledTimeout) {
  TcpPair t;
  t.warm_arp();
  t.establish();
  if (HasFatalFailure()) return;
  ASSERT_EQ(t.client->stats().rtt_samples, 1u);  // timed the SYN
  ASSERT_EQ(t.client->rto(), milliseconds(200));  // clamped at rto_min

  t.drop_next(has_payload(), 2);
  t.client->send(util::to_bytes(std::string(600, 'x')));
  t.net.scheduler().run();

  EXPECT_EQ(t.server_received.size(), 600u);
  EXPECT_EQ(t.client->stats().rto_retransmits, 2u);
  EXPECT_EQ(t.client->stats().fast_retransmits, 0u);

  const auto data = t.sent_by(*t.a, has_payload());
  ASSERT_EQ(data.size(), 3u);  // original + two RTO retransmissions
  EXPECT_EQ(data[1].at - data[0].at, milliseconds(200));
  EXPECT_EQ(data[2].at - data[1].at, milliseconds(400));
  EXPECT_EQ(t.client->rto(), milliseconds(800));  // Karn kept the backoff
}

// Scenario: with four segments in flight, the first is lost once. The three
// out-of-order arrivals draw three duplicate acks, the third of which must
// trigger exactly one fast retransmit -- the RTO never fires -- and the
// Reno cut lands exactly at ssthresh = flight/2.
TEST(TcpConformance, ThreeDupAcksFastRetransmitWithoutRto) {
  TcpPair t;
  t.warm_arp();
  TcpConfig cfg;
  cfg.mss = 1000;
  cfg.initial_cwnd_segments = 4;
  t.establish(cfg);
  if (HasFatalFailure()) return;

  t.drop_next(has_payload(), 1);
  std::string payload;
  for (int i = 0; i < 4; ++i) payload.append(std::string(1000, char('a' + i)));
  t.client->send(util::to_bytes(payload));
  t.net.scheduler().run();

  EXPECT_EQ(t.server_received, payload);  // delivered in order despite the hole
  EXPECT_EQ(t.client->stats().fast_retransmits, 1u);
  EXPECT_EQ(t.client->stats().rto_retransmits, 0u);
  EXPECT_EQ(t.client->stats().dup_acks_received, 3u);
  EXPECT_EQ(t.server->stats().dup_acks_sent, 3u);
  EXPECT_EQ(t.server->stats().out_of_order_segments, 3u);

  // Wire order: the four first transmissions, then the retransmission of
  // the dropped head -- and it beats the 200 ms RTO by orders of magnitude.
  const auto data = t.sent_by(*t.a, has_payload());
  ASSERT_EQ(data.size(), 5u);
  const std::uint32_t s0 = data[0].seg.seq;
  EXPECT_EQ(data[1].seg.seq, s0 + 1000);
  EXPECT_EQ(data[2].seg.seq, s0 + 2000);
  EXPECT_EQ(data[3].seg.seq, s0 + 3000);
  EXPECT_EQ(data[4].seg.seq, s0);  // the fast retransmit
  EXPECT_LT(data[4].at - data[0].at, milliseconds(200));

  // RFC 5681 on the third dup-ack: ssthresh = max(flight/2, 2*MSS) =
  // max(4000/2, 2000) = 2000 and cwnd = ssthresh (no inflation); the
  // cumulative ack for all 4000 bytes then runs one congestion-avoidance
  // step: cwnd += MSS^2/cwnd = 500.
  EXPECT_EQ(t.client->ssthresh(), 2000u);
  EXPECT_EQ(t.client->cwnd(), 2500u);
}

// Scenario: Karn's rule. After a retransmission, the ack that finally
// arrives must NOT contribute an RTT sample (it is ambiguous which
// transmission it acks) and the backed-off RTO must persist until the next
// cleanly-acked segment refreshes it.
TEST(TcpConformance, KarnExcludesRetransmittedSegmentRtt) {
  TcpPair t;
  t.warm_arp();
  t.establish();
  if (HasFatalFailure()) return;
  ASSERT_EQ(t.client->stats().rtt_samples, 1u);
  const netsim::Duration srtt_before = t.client->srtt();

  t.drop_next(has_payload(), 1);
  t.client->send(util::to_bytes(std::string(500, 'k')));
  t.net.scheduler().run();

  // The retransmission was acked, but per Karn nothing was sampled: SRTT
  // is bit-identical and the doubled RTO stands.
  EXPECT_EQ(t.server_received.size(), 500u);
  EXPECT_EQ(t.client->stats().rto_retransmits, 1u);
  EXPECT_EQ(t.client->stats().rtt_samples, 1u);
  EXPECT_EQ(t.client->srtt(), srtt_before);
  EXPECT_EQ(t.client->rto(), milliseconds(400));

  // A clean (never-retransmitted) segment refreshes the sample and the
  // RTO collapses back to the rto_min clamp.
  t.client->send(util::to_bytes(std::string(500, 'k')));
  t.net.scheduler().run();
  EXPECT_EQ(t.client->stats().rtt_samples, 2u);
  EXPECT_EQ(t.client->rto(), milliseconds(200));
}

// Scenario: a loss-free 10-segment flow with mss = 1000 and ssthresh =
// 4000. Without delayed acks every ack covers exactly one MSS, so the
// whole slow-start -> congestion-avoidance trajectory is a hand-computable
// recurrence; the recorded cwnd after every ack must match it exactly.
TEST(TcpConformance, CwndTraceSlowStartThenAimdMatchesHandComputedTable) {
  TcpPair t;
  t.warm_arp();
  TcpConfig cfg;
  cfg.mss = 1000;
  cfg.initial_cwnd_segments = 1;
  cfg.initial_ssthresh = 4000;
  t.establish(cfg);
  if (HasFatalFailure()) return;

  std::vector<std::uint32_t> cwnd_trace;
  t.client->record_cwnd_trace(&cwnd_trace);
  t.client->send(util::to_bytes(std::string(10000, 'w')));
  t.net.scheduler().run();
  t.client->record_cwnd_trace(nullptr);

  EXPECT_EQ(t.server_received.size(), 10000u);
  EXPECT_EQ(t.client->stats().retransmits, 0u);
  // Slow start: +1000 per ack until cwnd reaches ssthresh = 4000; then
  // congestion avoidance: +floor(1000^2 / cwnd) per ack.
  const std::vector<std::uint32_t> expected = {
      2000, 3000, 4000,           // slow start: 1000 -> 4000
      4250, 4485, 4707, 4919,     // CA: +250, +235, +222, +212
      5122, 5317, 5505,           // CA: +203, +195, +188
  };
  EXPECT_EQ(cwnd_trace, expected);
}

// Scenario: simultaneous close. Both ends send FIN before seeing the
// peer's, so both pass through CLOSING into TIME_WAIT (in a staggered
// close the responder goes LAST_ACK -> CLOSED and never dwells) and both
// reach CLOSED once the TIME_WAIT timer runs out.
TEST(TcpConformance, SimultaneousCloseBothSidesReachTimeWait) {
  TcpPair t;
  t.warm_arp();
  t.establish();
  if (HasFatalFailure()) return;

  const netsim::TimePoint when = t.net.scheduler().now() + milliseconds(1);
  t.net.scheduler().schedule_at(when, [&] { t.client->close(); });
  t.net.scheduler().schedule_at(when, [&] { t.server->close(); });
  t.net.scheduler().run_until(when + milliseconds(100));

  // Neither FIN acked the other's FIN: the two crossed on the wire.
  const auto fins = t.trace;
  std::vector<SeenSegment> fin_segs;
  for (const auto& s : fins) {
    if (s.seg.has(TcpSegment::kFin)) fin_segs.push_back(s);
  }
  ASSERT_EQ(fin_segs.size(), 2u);
  EXPECT_EQ(fin_segs[0].at, fin_segs[1].at);  // emitted the same instant
  EXPECT_EQ(fin_segs[0].seg.ack, fin_segs[1].seg.seq);
  EXPECT_EQ(fin_segs[1].seg.ack, fin_segs[0].seg.seq);

  EXPECT_EQ(t.client->state(), TcpState::kTimeWait);
  EXPECT_EQ(t.server->state(), TcpState::kTimeWait);

  t.net.scheduler().run();  // TIME_WAIT dwell (1 s) expires
  EXPECT_EQ(t.client->state(), TcpState::kClosed);
  EXPECT_EQ(t.server->state(), TcpState::kClosed);
  EXPECT_EQ(t.client->stats().retransmits, 0u);
  EXPECT_EQ(t.server->stats().retransmits, 0u);
}

// Scenario: a checksum-valid segment whose sequence range sits far outside
// the receive window must be ignored -- no delivery, no state change --
// except for the re-synchronizing ack RFC 793 requires.
TEST(TcpConformance, OutOfWindowSegmentIgnoredWithResyncAck) {
  TcpPair t;
  t.warm_arp();
  t.establish();
  if (HasFatalFailure()) return;
  const std::uint64_t delivered_before = t.server->stats().bytes_received;

  // Craft a valid segment 200000 bytes above rcv_nxt (window is 65535) and
  // inject it raw onto the LAN, bypassing the client socket.
  TcpSegment stray;
  stray.src_port = kClientPort;
  stray.dst_port = kServerPort;
  stray.seq = 1 + 200000;  // client iss = 0 -> rcv_nxt at the server is 1
  stray.ack = 1;
  stray.flags = TcpSegment::kAck;
  stray.window = 0xFFFF;
  stray.payload = util::to_bytes("zz");
  Ipv4Header ip;
  ip.protocol = static_cast<std::uint8_t>(IpProto::kTcp);
  ip.src = t.a->ip();
  ip.dst = t.b->ip();
  util::ByteBuffer packet = encode_tcp(t.a->ip(), t.b->ip(), stray);
  ip.write_in_place(packet);
  t.lan->broadcast(ether::Frame::ethernet2(t.b->nic().mac(), t.a->nic().mac(),
                                           ether::EtherType::kIpv4, packet),
                   nullptr);
  t.net.scheduler().run();

  EXPECT_EQ(t.server->stats().out_of_window_segments, 1u);
  EXPECT_EQ(t.server->stats().bytes_received, delivered_before);
  EXPECT_EQ(t.server->state(), TcpState::kEstablished);
  EXPECT_EQ(t.client->state(), TcpState::kEstablished);

  // The only response on the wire is the server's re-sync ack pointing at
  // the unmoved rcv_nxt.
  const auto acks = t.sent_by(*t.b, [](const TcpSegment& s) {
    return s.has(TcpSegment::kAck) && s.payload.empty();
  });
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].seg.ack, 1u);
  EXPECT_FALSE(acks[0].seg.has(TcpSegment::kRst));
}

// Scenario: the retry limit. With max_retries = 2 and every data frame
// dropped after establishment, the lone segment goes out three times --
// the original, then exactly rto and 2*rto later as the timer backs off --
// and the third expiry gives up: kClosed, on_closed exactly once, nothing
// more on the wire, and no timer left behind.
TEST(TcpConformance, RtoGiveUpClosesAfterMaxRetries) {
  TcpPair t;
  t.warm_arp();
  TcpConfig cfg;
  cfg.max_retries = 2;
  t.establish(cfg);
  if (HasFatalFailure()) return;
  ASSERT_EQ(t.client->rto(), milliseconds(200));  // clamped at rto_min

  int closed_calls = 0;
  netsim::TimePoint closed_at{};
  t.client->set_on_closed([&] {
    closed_calls += 1;
    closed_at = t.net.scheduler().now();
  });
  t.drop_next(has_payload(), 1000);  // every data frame from here on
  const netsim::TimePoint sent_at = t.net.scheduler().now();
  t.client->send(util::to_bytes(std::string(600, 'x')));
  t.net.scheduler().run();

  EXPECT_EQ(t.client->state(), TcpState::kClosed);
  EXPECT_EQ(closed_calls, 1);
  EXPECT_EQ(t.client->stats().rto_retransmits, 2u);
  EXPECT_EQ(t.client->stats().fast_retransmits, 0u);
  EXPECT_TRUE(t.server_received.empty());

  // The whole trace is the three transmissions: the server never heard a
  // byte, so it sent nothing, and the client sent nothing after giving up.
  const auto data = t.sent_by(*t.a, has_payload());
  ASSERT_EQ(data.size(), 3u);
  EXPECT_EQ(t.trace.size(), 3u);
  EXPECT_EQ(data[1].at - data[0].at, milliseconds(200));  // rto
  EXPECT_EQ(data[2].at - data[1].at, milliseconds(400));  // 2 * rto
  // Third expiry, the backed-off 800 ms after the second retransmission.
  EXPECT_EQ(closed_at - sent_at, milliseconds(200 + 400 + 800));
  EXPECT_LT(t.trace.back().at, closed_at);
  EXPECT_TRUE(t.net.scheduler().empty());
  EXPECT_EQ(t.net.scheduler().now(), closed_at);
}

// ------------------------------------------------------- send-space hook

constexpr Ipv4Addr kLocalIp(10, 0, 0, 1);
constexpr Ipv4Addr kPeerIp(10, 0, 0, 2);
constexpr std::uint32_t kPeerIss = 5000;

/// One socket driven by hand: every segment it emits is decoded into
/// `wire` the moment it is emitted (an owning copy: the emitted bytes die
/// with the callback), and the test plays the peer by feeding segments
/// straight into on_segment(). No LAN, no host pipeline.
struct HandDrivenSocket {
  netsim::Scheduler scheduler;
  std::vector<TcpSegment> wire;
  TcpSocket socket;

  explicit HandDrivenSocket(TcpConfig config)
      : socket(scheduler, kLocalIp, kClientPort, kPeerIp, kServerPort, config,
               [this](Ipv4Addr, util::ByteBuffer packet) {
                 wire.push_back(decode_tcp(kLocalIp, kPeerIp, transport_bytes(packet))
                                    .value()
                                    .to_owned());
               }) {}

  /// Delivers a peer segment with `flags` at peer sequence `seq` acking
  /// `ack`, advertising the largest 16-bit window.
  void from_peer(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack) {
    TcpSegment s;
    s.src_port = kServerPort;
    s.dst_port = kClientPort;
    s.seq = seq;
    s.ack = ack;
    s.flags = flags;
    s.window = 0xFFFF;
    socket.on_segment(s.view());
  }
};

// Contract: the hook fires once per ack that advances snd_una, after that
// ack's cwnd increase and before any segment the ack releases is emitted;
// never on a duplicate ack, and never for the ack that takes the socket to
// kClosed (or any segment after it).
TEST(TcpSendSpaceHook, FiresOncePerAdvancingAckBeforeItsSegments) {
  TcpConfig cfg;
  cfg.mss = 1000;
  cfg.initial_cwnd_segments = 1;
  HandDrivenSocket h(cfg);
  h.socket.connect();
  h.from_peer(TcpSegment::kSyn | TcpSegment::kAck, kPeerIss, 1);
  ASSERT_EQ(h.socket.state(), TcpState::kEstablished);
  ASSERT_EQ(h.wire.size(), 2u);  // SYN, handshake ACK

  struct Call {
    std::uint32_t cwnd;
    std::size_t wire_size;
  };
  std::vector<Call> calls;
  h.socket.set_on_send_space([&] {
    calls.push_back({h.socket.cwnd(), h.wire.size()});
  });
  int closed_calls = 0;
  h.socket.set_on_closed([&] { closed_calls += 1; });

  h.socket.send(util::to_bytes(std::string(4000, 'd')));
  ASSERT_EQ(h.wire.size(), 3u);  // cwnd = 1 MSS: one segment out

  // Ack of segment 1: slow start grows cwnd to 2 MSS, which the hook
  // already sees; segments 2 and 3 are emitted only after it returns.
  h.from_peer(TcpSegment::kAck, kPeerIss + 1, 1001);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].cwnd, 2000u);
  EXPECT_EQ(calls[0].wire_size, 3u);
  EXPECT_EQ(h.wire.size(), 5u);

  // A duplicate ack moves nothing: no call.
  h.from_peer(TcpSegment::kAck, kPeerIss + 1, 1001);
  EXPECT_EQ(calls.size(), 1u);
  EXPECT_EQ(h.socket.stats().dup_acks_received, 1u);

  // One cumulative ack for segments 2 and 3: one call.
  h.from_peer(TcpSegment::kAck, kPeerIss + 1, 3001);
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[1].cwnd, 3000u);
  EXPECT_EQ(calls[1].wire_size, 5u);
  EXPECT_EQ(h.wire.size(), 6u);  // segment 4, the last of the buffer

  h.from_peer(TcpSegment::kAck, kPeerIss + 1, 4001);
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[2].cwnd, 4000u);

  // The peer closes (FIN, nothing newly acked: no call), then so do we:
  // the ack of our FIN advances snd_una but closes the socket, so the
  // hook stays silent -- and so it does for anything arriving afterwards.
  h.from_peer(TcpSegment::kFin | TcpSegment::kAck, kPeerIss + 1, 4001);
  ASSERT_EQ(h.socket.state(), TcpState::kCloseWait);
  EXPECT_EQ(calls.size(), 3u);
  h.socket.close();
  ASSERT_EQ(h.socket.state(), TcpState::kLastAck);
  h.from_peer(TcpSegment::kAck, kPeerIss + 2, 4002);
  EXPECT_EQ(h.socket.state(), TcpState::kClosed);
  EXPECT_EQ(closed_calls, 1);
  h.from_peer(TcpSegment::kAck, kPeerIss + 2, 4002);
  EXPECT_EQ(calls.size(), 3u);
}

// ------------------------------------------------------ host stack surface

TEST(TcpHostStack, StaggeredCloseDeliversFinAndFreesThePort) {
  TcpPair t;
  t.warm_arp();
  t.establish();
  if (HasFatalFailure()) return;

  bool server_saw_fin = false;
  bool client_closed = false;
  t.server->set_on_peer_fin([&] { server_saw_fin = true; });
  t.client->set_on_closed([&] { client_closed = true; });

  t.client->send(util::to_bytes("last words"));
  t.client->close();
  t.net.scheduler().run_until(t.net.scheduler().now() + milliseconds(100));
  EXPECT_TRUE(server_saw_fin);
  EXPECT_EQ(t.server_received, "last words");
  EXPECT_EQ(t.server->state(), TcpState::kCloseWait);  // until it closes too
  t.server->close();
  t.net.scheduler().run();
  EXPECT_EQ(t.server->state(), TcpState::kClosed);  // LAST_ACK path: no dwell
  EXPECT_EQ(t.client->state(), TcpState::kClosed);  // TIME_WAIT expired
  EXPECT_TRUE(client_closed);
}

TEST(TcpHostStack, DuplicateConnectAndListenThrow) {
  TcpPair t;
  t.b->tcp_listen(kServerPort, [](TcpSocket&) {});
  EXPECT_THROW(t.b->tcp_listen(kServerPort, [](TcpSocket&) {}),
               std::invalid_argument);
  t.a->tcp_connect(t.b->ip(), kServerPort, kClientPort);
  EXPECT_THROW(t.a->tcp_connect(t.b->ip(), kServerPort, kClientPort),
               std::invalid_argument);
  t.net.scheduler().run();
}

TEST(TcpHostStack, SegmentWithNoListenerIsCountedAndDropped) {
  TcpPair t;
  t.warm_arp();
  TcpSegment syn;
  syn.src_port = kClientPort;
  syn.dst_port = 7777;  // nobody listens here
  syn.flags = TcpSegment::kSyn;
  syn.window = 0xFFFF;
  Ipv4Header ip;
  ip.protocol = static_cast<std::uint8_t>(IpProto::kTcp);
  ip.src = t.a->ip();
  ip.dst = t.b->ip();
  util::ByteBuffer packet = encode_tcp(t.a->ip(), t.b->ip(), syn);
  ip.write_in_place(packet);
  t.lan->broadcast(ether::Frame::ethernet2(t.b->nic().mac(), t.a->nic().mac(),
                                           ether::EtherType::kIpv4, packet),
                   nullptr);
  t.net.scheduler().run();
  EXPECT_EQ(t.b->stats().tcp_no_socket_drops, 1u);
  EXPECT_EQ(t.b->stats().tcp_delivered, 0u);
}

}  // namespace
}  // namespace ab::stack

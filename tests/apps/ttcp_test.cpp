// The ttcp senders' write paths: the one payload pattern both senders
// share, the unpaced TCP sender's bounded send buffer (differentially
// against a queue-everything reference: same wire, frame for frame), and
// the paced TCP sender's stop once its connection has given up.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/ttcp.h"
#include "src/ether/frame.h"
#include "src/netsim/network.h"
#include "src/stack/host_stack.h"
#include "src/stack/ipv4.h"
#include "src/stack/tcp.h"

namespace ab::apps {
namespace {

using netsim::milliseconds;
using netsim::seconds;

constexpr std::uint16_t kPort = 5001;
/// TcpTtcpSender's private send-buffer bound, mirrored for the peak check.
constexpr std::size_t kSendBufferBytes = 256 * 1024;

/// Two hosts on one 100 Mbps LAN: a (10.0.0.1) sends, b (10.0.0.2) sinks.
struct HostPair {
  netsim::Network net;
  netsim::LanSegment* lan = nullptr;
  std::unique_ptr<stack::HostStack> a;
  std::unique_ptr<stack::HostStack> b;

  HostPair() {
    lan = &net.add_segment("lan");
    stack::HostConfig ca;
    ca.ip = stack::Ipv4Addr(10, 0, 0, 1);
    stack::HostConfig cb;
    cb.ip = stack::Ipv4Addr(10, 0, 0, 2);
    a = std::make_unique<stack::HostStack>(net.scheduler(),
                                           net.add_nic("hostA", *lan), ca);
    b = std::make_unique<stack::HostStack>(net.scheduler(),
                                           net.add_nic("hostB", *lan), cb);
  }

  [[nodiscard]] TtcpConfig config(std::size_t total_bytes) const {
    TtcpConfig cfg;
    cfg.destination = b->ip();
    cfg.port = kPort;
    cfg.write_size = 8192;
    cfg.total_bytes = total_bytes;
    return cfg;
  }
};

/// True for a frame carrying a TCP segment with payload.
bool is_tcp_data(util::ByteView wire) {
  auto frame = ether::Frame::decode(wire);
  if (!frame || !frame.value().has_type(ether::EtherType::kIpv4)) return false;
  auto packet = stack::Ipv4Header::decode(frame.value().payload);
  if (!packet || packet.value().header.protocol !=
                     static_cast<std::uint8_t>(stack::IpProto::kTcp)) {
    return false;
  }
  auto segment = stack::decode_tcp(packet.value().header.src,
                                   packet.value().header.dst,
                                   packet.value().payload);
  return segment && !segment.value().payload.empty();
}

std::uint64_t fnv1a(util::ByteView bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

// ------------------------------------------------------------- the pattern

// Write s of the UDP sender carries bytes uint8_t(s + i) -- the stamp the
// per-write fill used to write -- across the pattern's 256-write wrap and
// for a short last write.
TEST(TtcpPattern, UdpWriteCarriesItsSequenceStamp) {
  HostPair p;
  p.a->nic().set_tx_queue_limit(100000);
  std::vector<util::ByteBuffer> datagrams;
  p.b->bind_udp(kPort, [&](stack::Ipv4Addr, const stack::UdpDatagram& d) {
    datagrams.emplace_back(d.payload.begin(), d.payload.end());
  });
  TtcpConfig cfg = p.config(300 * 1000 + 123);
  cfg.write_size = 1000;
  TtcpSender sender(*p.a, cfg);
  sender.start();
  p.net.scheduler().run();

  ASSERT_EQ(datagrams.size(), 301u);
  EXPECT_EQ(sender.writes_issued(), 301u);
  EXPECT_EQ(sender.bytes_issued(), cfg.total_bytes);
  for (std::size_t s = 0; s < datagrams.size(); ++s) {
    const std::size_t expected_size = s < 300 ? 1000 : 123;
    ASSERT_EQ(datagrams[s].size(), expected_size) << "write " << s;
    for (std::size_t i = 0; i < datagrams[s].size(); ++i) {
      ASSERT_EQ(datagrams[s][i], static_cast<std::uint8_t>(s + i))
          << "write " << s << " byte " << i;
    }
  }
}

// --------------------------------------------- bounded unpaced TCP sender

/// The sender the bounded one replaces, kept as the wire reference: the
/// whole stream written at connect time with the per-write fill, and the
/// half-close at establishment.
void start_queue_everything(stack::HostStack& host, const TtcpConfig& cfg,
                            stack::TcpSocket*& socket) {
  socket = &host.tcp_connect(cfg.destination, cfg.port, 5000);
  std::size_t written = 0;
  for (std::size_t s = 0; written < cfg.total_bytes; ++s) {
    const std::size_t chunk = std::min(cfg.write_size, cfg.total_bytes - written);
    util::ByteBuffer payload(chunk);
    for (std::size_t i = 0; i < chunk; ++i) {
      payload[i] = static_cast<std::uint8_t>(s + i);
    }
    socket->send(payload);
    written += chunk;
  }
  stack::TcpSocket* raw = socket;
  socket->set_on_established([raw] { raw->close(); });
}

struct StreamRun {
  /// Every frame on the LAN: tap time and a hash of its bytes.
  std::vector<std::pair<netsim::TimePoint, std::uint64_t>> frames;
  std::uint64_t retransmits = 0;
  std::uint32_t cwnd_final = 0;
  std::size_t bytes_received = 0;
  std::size_t peak_buffered = 0;  ///< sender's send_buffered() at any frame
  std::uint64_t frames_dropped = 0;
  bool sender_closed = false;
};

/// One stream on a fresh host pair, dropping every `drop_every`-th TCP data
/// frame (0: none), run until the scheduler drains.
StreamRun run_stream(std::size_t total_bytes, int drop_every, bool bounded) {
  HostPair p;
  StreamRun run;
  const stack::TcpSocket* socket = nullptr;
  p.lan->set_frame_tap([&](netsim::TimePoint at, const netsim::Nic*,
                           util::ByteView wire) {
    run.frames.emplace_back(at, fnv1a(wire));
    if (socket != nullptr) {
      run.peak_buffered = std::max(run.peak_buffered, socket->send_buffered());
    }
  });
  int data_frames = 0;
  if (drop_every > 0) {
    p.lan->set_drop_filter([&](netsim::TimePoint, const netsim::Nic*,
                               util::ByteView wire) {
      return is_tcp_data(wire) && ++data_frames % drop_every == 0;
    });
  }
  TcpTtcpSink sink(p.net.scheduler(), *p.b, kPort);
  const TtcpConfig cfg = p.config(total_bytes);
  std::unique_ptr<TcpTtcpSender> sender;
  if (bounded) {
    sender = std::make_unique<TcpTtcpSender>(*p.a, cfg);
    sender->start();
    socket = &sender->socket();
  } else {
    stack::TcpSocket* reference = nullptr;
    start_queue_everything(*p.a, cfg, reference);
    socket = reference;
  }
  p.net.scheduler().run();

  run.retransmits = socket->stats().retransmits;
  run.cwnd_final = socket->cwnd();
  run.bytes_received = sink.bytes_received();
  run.frames_dropped = p.lan->stats().frames_dropped_by_filter;
  run.sender_closed = socket->state() == stack::TcpState::kClosed;
  return run;
}

struct WireCase {
  std::size_t bytes;
  int drop_every;
};

// Names each case (test name and ctest name alike) by its stream and drop
// schedule, not by gtest's byte dump of the struct and its padding.
void PrintTo(const WireCase& c, std::ostream* os) {
  *os << c.bytes << "B_drop" << c.drop_every;
}

class TcpTtcpWire : public ::testing::TestWithParam<WireCase> {};

// The bounded sender's wire is the queue-everything sender's, frame for
// frame (time and bytes), with the same retransmits and final cwnd, while
// its socket never buffers more than the bound plus one write.
TEST_P(TcpTtcpWire, BoundedSenderMatchesQueueEverythingReference) {
  const WireCase c = GetParam();
  const StreamRun reference = run_stream(c.bytes, c.drop_every, false);
  const StreamRun bounded = run_stream(c.bytes, c.drop_every, true);

  ASSERT_EQ(reference.bytes_received, c.bytes);
  ASSERT_TRUE(reference.sender_closed);
  EXPECT_EQ(bounded.bytes_received, c.bytes);
  EXPECT_TRUE(bounded.sender_closed);
  ASSERT_EQ(bounded.frames.size(), reference.frames.size());
  for (std::size_t i = 0; i < bounded.frames.size(); ++i) {
    ASSERT_EQ(bounded.frames[i], reference.frames[i]) << "frame " << i;
  }
  EXPECT_EQ(bounded.retransmits, reference.retransmits);
  EXPECT_EQ(bounded.cwnd_final, reference.cwnd_final);
  // A 20,000 B stream is 15 data frames: every 97th never comes round.
  EXPECT_EQ(bounded.frames_dropped > 0, bounded.retransmits > 0);
  EXPECT_LE(bounded.peak_buffered, kSendBufferBytes + 8192);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, TcpTtcpWire,
    ::testing::Values(WireCase{20000, 0}, WireCase{20000, 13}, WireCase{20000, 97},
                      WireCase{1000000, 0}, WireCase{1000000, 13},
                      WireCase{1000000, 97}, WireCase{4000000, 0},
                      WireCase{4000000, 13}, WireCase{4000000, 97}),
    [](const ::testing::TestParamInfo<WireCase>& info) {
      return ::testing::PrintToString(info.param);
    });

// --------------------------------------------------- paced TCP sender

// Paced at 10 Mb/s with max_retries = 2, the path is cut after 20 data
// frames: the retry limit closes the socket at t ~ 1.42 s while the pacing
// clock still has bytes to write. The sender must stop writing there
// instead of sending into the closed socket (which throws).
TEST(TcpTtcpPaced, StopsWritingOnceTheConnectionGivesUp) {
  HostPair p;
  int data_frames = 0;
  p.lan->set_drop_filter([&](netsim::TimePoint, const netsim::Nic*,
                             util::ByteView wire) {
    if (data_frames >= 20) return true;  // the cut: every frame from here on
    if (is_tcp_data(wire)) data_frames += 1;
    return false;
  });
  TcpTtcpSink sink(p.net.scheduler(), *p.b, kPort);
  const TtcpConfig cfg = p.config(4 << 20);
  stack::TcpConfig tcp;
  tcp.max_retries = 2;
  TcpTtcpSender sender(*p.a, cfg, 10e6, 5000, tcp);
  sender.start();

  netsim::Scheduler& scheduler = p.net.scheduler();
  while (!sender.finished() && scheduler.now() < netsim::TimePoint{} + seconds(10)) {
    ASSERT_NO_THROW(scheduler.run_for(milliseconds(1)));
  }
  ASSERT_TRUE(sender.finished());
  EXPECT_GT(scheduler.now(), netsim::TimePoint{} + seconds(1));
  EXPECT_EQ(sender.socket().stats().rto_retransmits, 2u);
  const std::size_t issued = sender.bytes_issued();
  EXPECT_LT(issued, cfg.total_bytes);

  ASSERT_NO_THROW(scheduler.run());
  EXPECT_EQ(sender.bytes_issued(), issued);
  EXPECT_TRUE(sender.finished());
  EXPECT_TRUE(scheduler.empty());
}

}  // namespace
}  // namespace ab::apps

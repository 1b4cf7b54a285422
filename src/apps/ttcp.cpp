#include "src/apps/ttcp.h"

#include <stdexcept>

namespace ab::apps {
namespace {

// The payload pattern: byte k is k mod 256, long enough that every write's
// view fits. Write s is the view at offset s mod 256, so its byte i is
// uint8_t(s + i) -- a sequence stamp a sink could check -- with no
// per-write fill.
util::ByteBuffer make_pattern(std::size_t write_size) {
  util::ByteBuffer pattern(write_size + 255);
  for (std::size_t k = 0; k < pattern.size(); ++k) {
    pattern[k] = static_cast<std::uint8_t>(k);
  }
  return pattern;
}

util::ByteView pattern_write(const util::ByteBuffer& pattern, std::size_t write,
                             std::size_t length) {
  return util::ByteView(pattern).subspan(write % 256, length);
}

}  // namespace

TtcpSender::TtcpSender(stack::HostStack& host, TtcpConfig config)
    : host_(&host), config_(config) {
  if (config_.write_size == 0) throw std::invalid_argument("ttcp: zero write size");
  if (config_.destination.is_zero()) {
    throw std::invalid_argument("ttcp: zero destination");
  }
  pattern_ = make_pattern(config_.write_size);
}

void TtcpSender::start() {
  std::size_t remaining = config_.total_bytes;
  for (std::size_t write = 0; remaining > 0; ++write) {
    const std::size_t chunk = std::min(config_.write_size, remaining);
    const util::ByteView payload = pattern_write(pattern_, write, chunk);
    host_->send_udp(config_.destination, 5000, config_.port,
                    util::ByteBuffer(payload.begin(), payload.end()));
    remaining -= chunk;
    writes_issued_ += 1;
    bytes_issued_ += chunk;
  }
}

TcpTtcpSender::TcpTtcpSender(stack::HostStack& host, TtcpConfig config,
                             double offered_rate_bps, std::uint16_t src_port,
                             stack::TcpConfig tcp_config)
    : host_(&host),
      config_(config),
      offered_rate_bps_(offered_rate_bps),
      src_port_(src_port),
      tcp_config_(tcp_config) {
  if (config_.write_size == 0) throw std::invalid_argument("ttcp: zero write size");
  if (config_.destination.is_zero()) {
    throw std::invalid_argument("ttcp: zero destination");
  }
  if (offered_rate_bps_ < 0) {
    throw std::invalid_argument("ttcp: negative offered rate");
  }
  pattern_ = make_pattern(config_.write_size);
}

void TcpTtcpSender::start() {
  socket_ = &host_->tcp_connect(config_.destination, config_.port, src_port_,
                                tcp_config_);
  if (offered_rate_bps_ > 0) {
    // Paced: one write per interval on the host's OWN scheduler, so the
    // pacing clock shards with the host.
    socket_->set_on_established([this] { write_paced(); });
    return;
  }
  // Unpaced: fill the send buffer now (the socket holds it across the
  // handshake) and refill it as acks drain it, on the host's own
  // scheduler; the FIN rides out with the last data.
  fill();
  socket_->set_on_established([this] {
    if (stream_written()) socket_->close();
  });
  socket_->set_on_send_space([this] {
    if (stream_written()) return;
    fill();
    if (stream_written()) socket_->close();
  });
}

void TcpTtcpSender::write() {
  const std::size_t chunk =
      std::min(config_.write_size, config_.total_bytes - bytes_issued_);
  socket_->send(pattern_write(pattern_, writes_issued_, chunk));
  bytes_issued_ += chunk;
  writes_issued_ += 1;
}

void TcpTtcpSender::fill() {
  while (!stream_written() && socket_->send_buffered() < kSendBufferBytes) {
    write();
  }
}

void TcpTtcpSender::write_paced() {
  // The connection gave up (retry limit) or was reset: nothing to write into.
  if (socket_->state() == stack::TcpState::kClosed) return;
  write();
  if (stream_written()) {
    socket_->close();
    return;
  }
  const double seconds =
      static_cast<double>(config_.write_size) * 8.0 / offered_rate_bps_;
  host_->scheduler().schedule_after(
      netsim::Duration(static_cast<std::int64_t>(seconds * 1e9)),
      [this] { write_paced(); });
}

TtcpSink::TtcpSink(netsim::Scheduler& scheduler, stack::HostStack& host,
                   std::uint16_t port)
    : scheduler_(&scheduler) {
  host.bind_udp(port, [this](stack::Ipv4Addr, const stack::UdpDatagram& d) {
    const netsim::TimePoint now = scheduler_->now();
    if (!saw_any_) {
      saw_any_ = true;
      first_at_ = now;
    }
    last_at_ = now;
    bytes_received_ += d.payload.size();
    datagrams_received_ += 1;
  });
}

double TtcpSink::throughput_mbps() const {
  if (!saw_any_ || last_at_ <= first_at_) return 0.0;
  const double seconds = netsim::to_seconds(last_at_ - first_at_);
  return static_cast<double>(bytes_received_) * 8.0 / seconds / 1e6;
}

double TtcpSink::datagrams_per_second() const {
  if (!saw_any_ || last_at_ <= first_at_) return 0.0;
  const double seconds = netsim::to_seconds(last_at_ - first_at_);
  return static_cast<double>(datagrams_received_) / seconds;
}

TcpTtcpSink::TcpTtcpSink(netsim::Scheduler& scheduler, stack::HostStack& host,
                         std::uint16_t port, stack::TcpConfig tcp_config)
    : scheduler_(&scheduler) {
  host.tcp_listen(port, [this](stack::TcpSocket& socket) {
    connections_.push_back(&socket);
    socket.set_receive_handler([this](util::ByteView data) {
      const netsim::TimePoint now = scheduler_->now();
      if (!saw_any_) {
        saw_any_ = true;
        first_at_ = now;
      }
      last_at_ = now;
      bytes_received_ += data.size();
    });
    // Close our half as soon as the peer finishes: LAST_ACK -> CLOSED.
    socket.set_on_peer_fin([&socket] { socket.close(); });
  }, tcp_config);
}

double TcpTtcpSink::throughput_mbps() const {
  if (!saw_any_ || last_at_ <= first_at_) return 0.0;
  const double seconds = netsim::to_seconds(last_at_ - first_at_);
  return static_cast<double>(bytes_received_) * 8.0 / seconds / 1e6;
}

}  // namespace ab::apps

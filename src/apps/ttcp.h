// ttcp: the bulk-throughput measurement behind Figure 10 ("Throughput for
// various packet sizes was measured with repeated ttcp trials", 8 KB writes
// producing "multiple back-to-back LAN frames").
//
// The sender blasts `total_bytes` of UDP payload in `write_size` writes
// (large writes fragment at the IP layer, exactly like the paper's 8 KB
// case); its own HostStack cost model paces the wire like the 1997 Linux
// sender did. The sink timestamps the first and last byte and reports
// goodput. Like a real ttcp, which fills one pattern buffer once, every
// sender takes its payload from one pattern built at construction: write s
// carries the bytes uint8_t(s + i).
#pragma once

#include <cstdint>
#include <vector>

#include "src/netsim/scheduler.h"
#include "src/stack/host_stack.h"
#include "src/stack/tcp.h"

namespace ab::apps {

struct TtcpConfig {
  stack::Ipv4Addr destination;
  std::uint16_t port = 5001;
  /// Bytes per write (per UDP datagram).
  std::size_t write_size = 8192;
  /// Total payload bytes to move.
  std::size_t total_bytes = 1 << 20;
};

/// Transmitting side. start() queues every write, each a copy of its view
/// of the pattern (a datagram owns its payload); the host's processing
/// element paces the actual frames.
class TtcpSender {
 public:
  TtcpSender(stack::HostStack& host, TtcpConfig config);

  void start();

  [[nodiscard]] std::size_t writes_issued() const { return writes_issued_; }
  [[nodiscard]] std::size_t bytes_issued() const { return bytes_issued_; }

 private:
  stack::HostStack* host_;
  TtcpConfig config_;
  util::ByteBuffer pattern_;
  std::size_t writes_issued_ = 0;
  std::size_t bytes_issued_ = 0;
};

/// TCP flavor of the sender: opens a real connection (src/stack/tcp.h),
/// streams `total_bytes` through it in `write_size` application writes,
/// and closes, so saturation shows up as congestion behavior (retransmits,
/// cwnd) instead of raw datagram loss. Writes are views of the pattern, so
/// they cost no allocation here.
///
/// With `offered_rate_bps` == 0 it writes the way a blocking ttcp writes
/// against SO_SNDBUF, and the congestion window clocks the wire: start()
/// writes until the socket buffers kSendBufferBytes, every ack that frees
/// buffer space tops it up again (TcpSocket::set_on_send_space), and the
/// last write is followed by the half-close -- or establishment is, when
/// the whole stream fit at start(), since close() before then would abort
/// the connect. The bound is at least 3 x 0xFFFF: two of the largest
/// windows a 16-bit field advertises plus the largest MSS its option
/// carries. So after any cumulative ack the buffer still covers the window
/// plus one MSS, transmission never reaches the buffer's tail before the
/// stream's end, and the wire -- segments, times, FIN placement -- is
/// exactly that of queueing the whole stream at connect time.
///
/// With `offered_rate_bps` > 0 the application paces one write per
/// interval on the host's own scheduler (shard-safe; the incast bench's
/// offered-load knob) and stops once the socket has closed (retry give-up
/// or reset) with bytes still unwritten.
class TcpTtcpSender {
 public:
  TcpTtcpSender(stack::HostStack& host, TtcpConfig config,
                double offered_rate_bps = 0.0, std::uint16_t src_port = 5000,
                stack::TcpConfig tcp_config = {});

  void start();

  /// Payload bytes written into the socket so far; `total_bytes` once the
  /// whole stream is written. Unpaced, that is at most the send-buffer
  /// bound (plus one write) ahead of what the peer has acked.
  [[nodiscard]] std::size_t bytes_issued() const { return bytes_issued_; }
  [[nodiscard]] std::size_t writes_issued() const { return writes_issued_; }
  /// True once start() has opened the connection (a staggered start may
  /// never fire inside a short traffic window).
  [[nodiscard]] bool started() const { return socket_ != nullptr; }
  /// The underlying connection (valid after start()): retransmit counters,
  /// cwnd, state.
  [[nodiscard]] const stack::TcpSocket& socket() const { return *socket_; }
  [[nodiscard]] bool finished() const {
    return socket_ != nullptr && socket_->state() == stack::TcpState::kClosed;
  }

 private:
  /// Unpaced send-buffer bound (see the class comment).
  static constexpr std::size_t kSendBufferBytes = 256 * 1024;
  static_assert(kSendBufferBytes >= 3 * 0xFFFF,
                "the buffer must cover two 16-bit windows plus one MSS");

  [[nodiscard]] bool stream_written() const {
    return bytes_issued_ == config_.total_bytes;
  }
  /// Writes the stream's next chunk into the socket.
  void write();
  /// Unpaced: writes until the socket buffers kSendBufferBytes or the
  /// stream is written.
  void fill();
  /// Paced: one write per interval until the stream is written or the
  /// socket has closed.
  void write_paced();

  stack::HostStack* host_;
  TtcpConfig config_;
  double offered_rate_bps_;
  std::uint16_t src_port_;
  stack::TcpConfig tcp_config_;
  util::ByteBuffer pattern_;
  stack::TcpSocket* socket_ = nullptr;
  std::size_t writes_issued_ = 0;
  std::size_t bytes_issued_ = 0;
};

/// Receiving side. Binds the UDP port and accumulates timing.
class TtcpSink {
 public:
  TtcpSink(netsim::Scheduler& scheduler, stack::HostStack& host, std::uint16_t port);

  [[nodiscard]] std::size_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] std::size_t datagrams_received() const { return datagrams_received_; }
  [[nodiscard]] netsim::TimePoint first_at() const { return first_at_; }
  [[nodiscard]] netsim::TimePoint last_at() const { return last_at_; }

  /// Goodput in Mb/s between the first and last received datagram.
  [[nodiscard]] double throughput_mbps() const;

  /// Received datagrams per second over the same window (the paper's
  /// frames/s for MTU-sized writes; fragments are counted by the LAN).
  [[nodiscard]] double datagrams_per_second() const;

 private:
  netsim::Scheduler* scheduler_;
  std::size_t bytes_received_ = 0;
  std::size_t datagrams_received_ = 0;
  netsim::TimePoint first_at_{};
  netsim::TimePoint last_at_{};
  bool saw_any_ = false;
};

/// TCP flavor of the sink: listens on `port`, accepts every connection
/// (N-to-1 for the incast cell), counts in-order delivered bytes across
/// all of them, and closes each connection when its peer's FIN arrives.
class TcpTtcpSink {
 public:
  TcpTtcpSink(netsim::Scheduler& scheduler, stack::HostStack& host,
              std::uint16_t port, stack::TcpConfig tcp_config = {});

  [[nodiscard]] std::size_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] std::size_t connections_accepted() const {
    return connections_.size();
  }
  /// Accepted connections, in accept order (per-stream stats for benches).
  [[nodiscard]] const std::vector<const stack::TcpSocket*>& connections() const {
    return connections_;
  }
  [[nodiscard]] netsim::TimePoint first_at() const { return first_at_; }
  [[nodiscard]] netsim::TimePoint last_at() const { return last_at_; }

  /// Goodput in Mb/s between the first and last delivered byte, across all
  /// accepted connections.
  [[nodiscard]] double throughput_mbps() const;

 private:
  netsim::Scheduler* scheduler_;
  std::vector<const stack::TcpSocket*> connections_;
  std::size_t bytes_received_ = 0;
  netsim::TimePoint first_at_{};
  netsim::TimePoint last_at_{};
  bool saw_any_ = false;
};

}  // namespace ab::apps

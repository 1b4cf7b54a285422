// A small but real TCP for the simulated hosts -- the transport the paper's
// ttcp endpoints actually ran (Linux 2.0.28), reduced to the mechanisms that
// shape the figures: three-way handshake and teardown (RFC 793 state
// machine, simultaneous close included), cumulative acks, retransmission
// with an RFC 6298 RTO (SRTT/RTTVAR, exponential backoff, Karn's rule),
// fast retransmit on three duplicate acks, and slow start + AIMD congestion
// avoidance (RFC 5681). With it, ttcp saturation shows up as congestion
// behavior -- backoff, retransmits, a cwnd trajectory -- instead of raw
// datagram loss.
//
// Layering follows how ns-3 hides a whole TCP behind one l4-protocol
// interface (nsc-tcp-l4-protocol): the socket knows nothing about NICs or
// ARP; it hands fully-encoded segments to a send callback (HostStack routes
// them through its normal IPv4 path) and receives parsed segments from the
// host's IPv4 demux. Every timer lives on the owning host's Scheduler, so
// runs are deterministic and shard-safe: in a sharded cell each endpoint's
// timers fire on its own region's clock, exactly like the rest of the host.
//
// Deliberate simplifications, chosen so the conformance suite can pin every
// timer and cwnd value exactly: no delayed acks (every in-order data
// segment draws an immediate ack -- so in a loss-free flow each ack covers
// one MSS and the cwnd recurrence is hand-computable), a fixed advertised
// window, Reno fast retransmit without window inflation (cwnd = ssthresh on
// the third duplicate ack, no +3·MSS), no Nagle, and a segment-aligned
// sender (a short segment is emitted only at the tail of the send buffer,
// never because the window has a runt's worth of room).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/netsim/scheduler.h"
#include "src/netsim/time.h"
#include "src/stack/ipv4.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace ab::stack {

// ----------------------------------------------------------- segment codec

/// A decoded TCP segment (RFC 793 header; options carried raw).
struct TcpSegment {
  static constexpr std::size_t kHeaderSize = 20;  ///< without options

  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 0;
  std::uint16_t urgent = 0;
  /// Raw option bytes exactly as carried on the wire (padded length).
  util::ByteBuffer options;
  util::ByteBuffer payload;

  [[nodiscard]] bool has(std::uint8_t flag) const { return (flags & flag) != 0; }
  /// Sequence space the segment occupies (payload plus SYN/FIN).
  [[nodiscard]] std::uint32_t seq_len() const {
    return static_cast<std::uint32_t>(payload.size()) + (has(kSyn) ? 1u : 0u) +
           (has(kFin) ? 1u : 0u);
  }
};

/// Options this stack understands after a structural walk of the TLVs.
struct TcpOptions {
  std::optional<std::uint16_t> mss;
};

/// Walks the option bytes (kind 0 = end, kind 1 = NOP, else kind/len TLV).
/// Malformed lengths (len < 2, or running past the buffer) are an error,
/// never an over-read.
[[nodiscard]] util::Expected<TcpOptions, std::string> parse_tcp_options(
    util::ByteView options);

/// Serializes a segment, computing the checksum over the RFC 793 pseudo
/// header (src/dst IP, protocol 6, TCP length). Options are padded to a
/// 4-byte boundary with end-of-option-list bytes.
[[nodiscard]] util::ByteBuffer encode_tcp(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                          const TcpSegment& segment);

/// The same encoding with the payload passed as a view -- `header.payload`
/// is ignored -- so a sender serializes straight from its send buffer
/// instead of first copying the bytes into a TcpSegment. One allocation.
[[nodiscard]] util::ByteBuffer encode_tcp(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                          const TcpSegment& header,
                                          util::ByteView payload);

/// Parses and validates a TCP segment carried between `src_ip`/`dst_ip`:
/// minimum length, data offset in [5, 15] and within the buffer, checksum,
/// and structurally valid options.
[[nodiscard]] util::Expected<TcpSegment, std::string> decode_tcp(Ipv4Addr src_ip,
                                                                 Ipv4Addr dst_ip,
                                                                 util::ByteView wire);

// ------------------------------------------------------------- connection

/// RFC 793 connection states.
enum class TcpState : std::uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

[[nodiscard]] std::string_view to_string(TcpState state);

/// Per-connection tuning. The defaults suit the 100 Mbps / 5 us testbed
/// cells; the conformance suite pins its hand-computed tables to explicit
/// values instead.
struct TcpConfig {
  /// Maximum payload bytes per segment. Default fits host MTU 1500 with
  /// IP + TCP headers and no fragmentation.
  std::size_t mss = 1400;
  /// Initial send sequence number. Fixed (not clock-derived) so runs are
  /// deterministic; independent per direction, so both ends may share it.
  std::uint32_t iss = 0;
  /// Advertised receive window (fixed; see header comment).
  std::uint16_t recv_window = 0xFFFF;
  /// RFC 6298: RTO before the first RTT sample ...
  netsim::Duration rto_initial = netsim::seconds(1);
  /// ... lower clamp (RFC says 1 s; simulated LAN RTTs are tens of us, so
  /// a smaller floor keeps loss recovery visible inside short cells) ...
  netsim::Duration rto_min = netsim::milliseconds(200);
  /// ... upper clamp for the exponential backoff.
  netsim::Duration rto_max = netsim::seconds(60);
  /// TIME_WAIT dwell (the 2·MSL stand-in).
  netsim::Duration time_wait = netsim::seconds(1);
  /// Give-up threshold: consecutive expiries of one sequence position.
  int max_retries = 10;
  /// Initial congestion window, in segments.
  std::uint32_t initial_cwnd_segments = 1;
  /// Initial slow-start threshold in bytes (effectively infinite: the first
  /// loss sets the real one, per RFC 5681).
  std::uint32_t initial_ssthresh = 0x7FFFFFFF;
};

/// Counters for the conformance suite, the workloads, and the benches.
struct TcpStats {
  std::uint64_t segments_sent = 0;       ///< every segment, retransmits included
  std::uint64_t segments_received = 0;   ///< every segment reaching this socket
  std::uint64_t bytes_sent = 0;          ///< payload bytes, first transmission only
  std::uint64_t bytes_received = 0;      ///< in-order payload delivered to the app
  std::uint64_t retransmits = 0;         ///< rto_retransmits + fast_retransmits
  std::uint64_t rto_retransmits = 0;     ///< segments resent by the RTO timer
  std::uint64_t fast_retransmits = 0;    ///< segments resent by three dup-acks
  std::uint64_t dup_acks_received = 0;
  std::uint64_t dup_acks_sent = 0;
  std::uint64_t out_of_order_segments = 0;  ///< queued above rcv_nxt
  std::uint64_t out_of_window_segments = 0; ///< unacceptable seq: acked, dropped
  std::uint64_t rtt_samples = 0;         ///< Karn: retransmitted ranges excluded
  std::uint64_t resets_received = 0;
};

/// One TCP connection endpoint. Owned by HostStack (tcp_connect /
/// tcp_listen); tests may drive one directly with a custom send callback.
class TcpSocket {
 public:
  /// Carries one encoded segment toward `dst` (HostStack: send_ipv4).
  using SendSegmentFn = std::function<void(Ipv4Addr dst, util::ByteBuffer tcp_bytes)>;
  /// In-order application data as it becomes deliverable.
  using ReceiveHandler = std::function<void(util::ByteView data)>;
  using EventHandler = std::function<void()>;

  TcpSocket(netsim::Scheduler& scheduler, Ipv4Addr local_ip, std::uint16_t local_port,
            Ipv4Addr remote_ip, std::uint16_t remote_port, TcpConfig config,
            SendSegmentFn send_segment);

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;
  ~TcpSocket();

  /// Active open: kClosed -> kSynSent (sends the SYN, arms the RTO).
  void connect();
  /// Passive open: kClosed -> kListen. The HostStack demux feeds the
  /// inbound SYN through on_segment().
  void listen();
  /// Queues application data; transmission is clocked by the congestion
  /// and peer windows. Legal from connect() time (data waits for the
  /// handshake) until close().
  void send(util::ByteView data);
  /// Half-closes the send side once the buffer drains (FIN). The socket
  /// reaches kClosed after the full teardown handshake.
  void close();
  /// Hard local reset: sends RST if a peer could hold state, then kClosed.
  void abort();

  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] const TcpStats& stats() const { return stats_; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] std::uint16_t remote_port() const { return remote_port_; }
  [[nodiscard]] Ipv4Addr remote_ip() const { return remote_ip_; }
  [[nodiscard]] std::uint32_t cwnd() const { return cwnd_; }
  [[nodiscard]] std::uint32_t ssthresh() const { return ssthresh_; }
  /// Current retransmission timeout (backoff included).
  [[nodiscard]] netsim::Duration rto() const { return rto_; }
  /// Smoothed RTT; zero until the first (Karn-valid) sample.
  [[nodiscard]] netsim::Duration srtt() const { return srtt_; }
  [[nodiscard]] netsim::Duration rttvar() const { return rttvar_; }
  /// Bytes sent but not yet cumulatively acked (SYN/FIN excluded).
  [[nodiscard]] std::size_t bytes_in_flight() const;
  /// Application bytes queued and not yet acked.
  [[nodiscard]] std::size_t send_buffered() const {
    return send_buffer_.size() - send_head_;
  }

  void set_receive_handler(ReceiveHandler handler) { on_receive_ = std::move(handler); }
  void set_on_established(EventHandler handler) { on_established_ = std::move(handler); }
  /// Peer sent FIN: no more data will arrive (EOF).
  void set_on_peer_fin(EventHandler handler) { on_peer_fin_ = std::move(handler); }
  /// Reached kClosed (normal teardown, reset, or retry give-up).
  void set_on_closed(EventHandler handler) { on_closed_ = std::move(handler); }
  /// Conformance hook: appends cwnd (bytes) after every ack that runs the
  /// congestion-control update, so a test can pin the whole slow-start ->
  /// AIMD trajectory against a hand-computed table. Pass nullptr to stop.
  void record_cwnd_trace(std::vector<std::uint32_t>* out) { cwnd_trace_ = out; }

  /// Entry point from the owner's IPv4 demux: one parsed, checksum-valid
  /// segment addressed to this connection.
  void on_segment(const TcpSegment& segment);

 private:
  /// Serial-number arithmetic (RFC 1982 style) for the 32-bit seq space.
  [[nodiscard]] static bool seq_lt(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a - b) < 0;
  }
  [[nodiscard]] static bool seq_leq(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a - b) <= 0;
  }
  struct SeqLess {
    bool operator()(std::uint32_t a, std::uint32_t b) const { return seq_lt(a, b); }
  };

  void emit(std::uint8_t flags, std::uint32_t seq, util::ByteView payload,
            bool retransmission);
  void send_ack();
  /// Pushes buffered data (and the pending FIN) as far as the windows allow.
  void transmit_pending();
  /// Resends the first unacked segment (SYN, data, or FIN).
  void retransmit_front(bool from_rto);
  void on_rto();
  void arm_rto();
  void disarm_rto();
  void take_rtt_sample(netsim::Duration sample);
  /// cwnd update for `acked` newly-acked bytes (RFC 5681).
  void on_new_ack(std::uint32_t acked);
  void enter_established();
  void enter_time_wait();
  void become_closed();
  void process_ack(const TcpSegment& segment);
  void process_payload(const TcpSegment& segment);
  void handle_listen(const TcpSegment& segment);
  void handle_syn_sent(const TcpSegment& segment);
  /// First unacked data byte's index into send_buffer_ is send_head_; the
  /// byte at index i carries sequence number buffer_base_seq_ + i.
  [[nodiscard]] std::uint32_t buffer_seq(std::size_t index) const {
    return buffer_base_seq_ + static_cast<std::uint32_t>(index);
  }
  void release_acked(std::uint32_t ack);

  netsim::Scheduler* scheduler_;
  Ipv4Addr local_ip_;
  std::uint16_t local_port_;
  Ipv4Addr remote_ip_;
  std::uint16_t remote_port_;
  TcpConfig config_;
  SendSegmentFn send_segment_;

  TcpState state_ = TcpState::kClosed;
  TcpStats stats_;

  // Send sequence space.
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_wnd_ = 0;  ///< peer's advertised window
  bool syn_acked_ = false;
  bool fin_pending_ = false;  ///< close() called, FIN not yet sent
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;  ///< sequence number the FIN occupies

  // Send buffer: bytes [send_head_, size) are unacked-or-unsent; the byte
  // at index i has sequence number buffer_base_seq_ + i. The acked prefix
  // is trimmed wholesale once it dominates, keeping acks O(1) amortized.
  std::vector<std::uint8_t> send_buffer_;
  std::size_t send_head_ = 0;
  std::size_t unsent_ = 0;  ///< index of the first never-transmitted byte
  std::uint32_t buffer_base_seq_ = 0;

  // Receive sequence space.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  bool fin_received_ = false;
  /// Out-of-order segments parked above rcv_nxt (seq -> payload).
  std::map<std::uint32_t, util::ByteBuffer, SeqLess> ooo_;

  // Congestion control (RFC 5681).
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0;
  std::uint32_t dup_acks_ = 0;
  /// Set by fast retransmit, cleared when snd_una_ advances: further
  /// dup-ack bursts for the same hole must not retransmit again.
  bool fast_recovery_ = false;

  // RFC 6298 retransmission timer.
  netsim::Duration srtt_{};
  netsim::Duration rttvar_{};
  netsim::Duration rto_;
  bool rto_armed_ = false;
  netsim::EventId rto_timer_{};
  std::uint64_t rto_generation_ = 0;  ///< stale-expiry guard
  int retries_ = 0;
  // Karn: one segment timed at a time; any retransmission voids the sample.
  bool rtt_timing_ = false;
  std::uint32_t rtt_seq_ = 0;  ///< sample valid when ack covers this seq
  netsim::TimePoint rtt_sent_at_{};

  netsim::EventId time_wait_timer_{};

  ReceiveHandler on_receive_;
  EventHandler on_established_;
  EventHandler on_peer_fin_;
  EventHandler on_closed_;
  std::vector<std::uint32_t>* cwnd_trace_ = nullptr;
};

}  // namespace ab::stack

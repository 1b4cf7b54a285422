#include "src/stack/tcp.h"

#include <algorithm>
#include <stdexcept>

#include "src/stack/checksum.h"
#include "src/util/string_util.h"

namespace ab::stack {
namespace {

constexpr std::size_t kMaxOptionBytes = 40;  // data offset caps at 15 words

std::uint16_t pseudo_checksum(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                              util::ByteView tcp_bytes) {
  InternetChecksum c;
  c.update_word(static_cast<std::uint16_t>(src_ip.value() >> 16));
  c.update_word(static_cast<std::uint16_t>(src_ip.value() & 0xFFFF));
  c.update_word(static_cast<std::uint16_t>(dst_ip.value() >> 16));
  c.update_word(static_cast<std::uint16_t>(dst_ip.value() & 0xFFFF));
  c.update_word(static_cast<std::uint16_t>(IpProto::kTcp));
  c.update_word(static_cast<std::uint16_t>(tcp_bytes.size()));
  c.update(tcp_bytes);
  return c.finish();
}

}  // namespace

// ----------------------------------------------------------- segment codec

util::Expected<TcpOptions, std::string> parse_tcp_options(util::ByteView options) {
  TcpOptions out;
  std::size_t i = 0;
  while (i < options.size()) {
    const std::uint8_t kind = options[i];
    if (kind == 0) break;  // end of option list; the rest is padding
    if (kind == 1) {       // NOP
      i += 1;
      continue;
    }
    if (i + 1 >= options.size()) {
      return util::Unexpected{util::format("TCP option kind %u truncated", kind)};
    }
    const std::uint8_t len = options[i + 1];
    if (len < 2 || i + len > options.size()) {
      return util::Unexpected{
          util::format("TCP option kind %u has bad length %u", kind, len)};
    }
    if (kind == 2) {  // maximum segment size
      if (len != 4) {
        return util::Unexpected{util::format("TCP MSS option length %u != 4", len)};
      }
      out.mss = static_cast<std::uint16_t>((options[i + 2] << 8) | options[i + 3]);
    }
    i += len;
  }
  return out;
}

util::ByteBuffer encode_tcp(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                            const TcpSegment& segment) {
  return encode_tcp(src_ip, dst_ip, segment, segment.payload);
}

util::ByteBuffer encode_tcp(Ipv4Addr src_ip, Ipv4Addr dst_ip, const TcpSegment& header,
                            util::ByteView payload) {
  if (header.options.size() > kMaxOptionBytes) {
    throw std::length_error("TCP options exceed 40 bytes");
  }
  const std::size_t padded_options = (header.options.size() + 3) & ~std::size_t{3};
  const std::size_t header_len = TcpSegment::kHeaderSize + padded_options;
  const std::uint8_t data_offset = static_cast<std::uint8_t>(header_len / 4);

  util::BufWriter w(header_len + payload.size());
  w.u16(header.src_port);
  w.u16(header.dst_port);
  w.u32(header.seq);
  w.u32(header.ack);
  w.u8(static_cast<std::uint8_t>(data_offset << 4));
  w.u8(static_cast<std::uint8_t>(header.flags & 0x3F));
  w.u16(header.window);
  w.u16(0);  // checksum placeholder
  w.u16(header.urgent);
  w.bytes(header.options);
  w.zeros(padded_options - header.options.size());  // pad with end-of-list
  w.bytes(payload);
  util::ByteBuffer bytes = w.take();

  const std::uint16_t csum = pseudo_checksum(src_ip, dst_ip, bytes);
  bytes[16] = static_cast<std::uint8_t>(csum >> 8);
  bytes[17] = static_cast<std::uint8_t>(csum);
  return bytes;
}

util::Expected<TcpSegment, std::string> decode_tcp(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                                   util::ByteView wire) {
  if (wire.size() < TcpSegment::kHeaderSize) {
    return util::Unexpected{
        util::format("TCP segment of %zu bytes too short", wire.size())};
  }
  util::BufReader r(wire);
  TcpSegment s;
  s.src_port = r.u16();
  s.dst_port = r.u16();
  s.seq = r.u32();
  s.ack = r.u32();
  const std::uint8_t offset_byte = r.u8();
  s.flags = static_cast<std::uint8_t>(r.u8() & 0x3F);
  s.window = r.u16();
  (void)r.u16();  // checksum: verified over the whole segment below
  s.urgent = r.u16();

  const std::size_t data_offset = offset_byte >> 4;
  if (data_offset < 5) {
    return util::Unexpected{util::format("TCP data offset %zu below minimum",
                                         data_offset)};
  }
  const std::size_t header_len = data_offset * 4;
  if (header_len > wire.size()) {
    return util::Unexpected{util::format(
        "TCP data offset %zu runs past the %zu-byte segment", data_offset,
        wire.size())};
  }
  if (pseudo_checksum(src_ip, dst_ip, wire) != 0) {
    return util::Unexpected{std::string("TCP checksum mismatch")};
  }
  const util::ByteView options =
      wire.subspan(TcpSegment::kHeaderSize, header_len - TcpSegment::kHeaderSize);
  if (auto parsed = parse_tcp_options(options); !parsed) {
    return util::Unexpected{parsed.error()};
  }
  s.options.assign(options.begin(), options.end());
  const util::ByteView payload = wire.subspan(header_len);
  s.payload.assign(payload.begin(), payload.end());
  return s;
}

std::string_view to_string(TcpState state) {
  switch (state) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RECEIVED";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

// ------------------------------------------------------------- connection

TcpSocket::TcpSocket(netsim::Scheduler& scheduler, Ipv4Addr local_ip,
                     std::uint16_t local_port, Ipv4Addr remote_ip,
                     std::uint16_t remote_port, TcpConfig config,
                     SendSegmentFn send_segment)
    : scheduler_(&scheduler),
      local_ip_(local_ip),
      local_port_(local_port),
      remote_ip_(remote_ip),
      remote_port_(remote_port),
      config_(config),
      send_segment_(std::move(send_segment)),
      rto_(config.rto_initial) {
  if (config_.mss == 0) throw std::invalid_argument("TcpSocket: zero MSS");
  if (!send_segment_) throw std::invalid_argument("TcpSocket: null send callback");
  cwnd_ = static_cast<std::uint32_t>(config_.initial_cwnd_segments * config_.mss);
  ssthresh_ = config_.initial_ssthresh;
  snd_wnd_ = 0xFFFF;  // until the peer's first segment advertises one
}

TcpSocket::~TcpSocket() {
  scheduler_->cancel(rto_timer_);
  scheduler_->cancel(time_wait_timer_);
}

std::size_t TcpSocket::bytes_in_flight() const {
  std::uint32_t flight = snd_nxt_ - snd_una_;
  if (!syn_acked_ && flight > 0) flight -= 1;  // the SYN occupies one unit
  if (fin_sent_ && seq_leq(snd_una_, fin_seq_)) flight -= 1;  // unacked FIN
  return flight;
}

void TcpSocket::connect() {
  if (state_ != TcpState::kClosed) {
    throw std::logic_error("TcpSocket::connect on a non-closed socket");
  }
  iss_ = config_.iss;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  buffer_base_seq_ = iss_ + 1;
  state_ = TcpState::kSynSent;
  emit(TcpSegment::kSyn, iss_, {}, /*retransmission=*/false);
  rtt_timing_ = true;
  rtt_seq_ = snd_nxt_;
  rtt_sent_at_ = scheduler_->now();
  arm_rto();
}

void TcpSocket::listen() {
  if (state_ != TcpState::kClosed) {
    throw std::logic_error("TcpSocket::listen on a non-closed socket");
  }
  state_ = TcpState::kListen;
}

void TcpSocket::send(util::ByteView data) {
  switch (state_) {
    case TcpState::kSynSent:
    case TcpState::kSynReceived:
    case TcpState::kEstablished:
    case TcpState::kCloseWait:
      break;
    default:
      throw std::logic_error(util::format("TcpSocket::send in state %s",
                                          std::string(to_string(state_)).c_str()));
  }
  if (fin_pending_ || fin_sent_) {
    throw std::logic_error("TcpSocket::send after close");
  }
  send_buffer_.insert(send_buffer_.end(), data.begin(), data.end());
  transmit_pending();
}

void TcpSocket::close() {
  switch (state_) {
    case TcpState::kClosed:
      return;
    case TcpState::kListen:
    case TcpState::kSynSent:
      become_closed();
      return;
    case TcpState::kSynReceived:
    case TcpState::kEstablished:
    case TcpState::kCloseWait:
      if (fin_pending_ || fin_sent_) return;
      fin_pending_ = true;
      transmit_pending();
      return;
    default:
      return;  // already closing
  }
}

void TcpSocket::abort() {
  switch (state_) {
    case TcpState::kClosed:
      return;
    case TcpState::kListen:
      become_closed();
      return;
    default:
      emit(TcpSegment::kRst | TcpSegment::kAck, snd_nxt_, {}, /*retransmission=*/true);
      become_closed();
      return;
  }
}

// -------------------------------------------------------------- emit side

void TcpSocket::emit(std::uint8_t flags, std::uint32_t seq, util::ByteView payload,
                     bool retransmission) {
  TcpSegment s;
  s.src_port = local_port_;
  s.dst_port = remote_port_;
  s.seq = seq;
  s.flags = flags;
  if (flags & TcpSegment::kAck) s.ack = rcv_nxt_;
  s.window = config_.recv_window;
  if (flags & TcpSegment::kSyn) {
    // Advertise our MSS on every SYN / SYN|ACK.
    const auto mss = static_cast<std::uint16_t>(
        std::min<std::size_t>(config_.mss, 0xFFFF));
    s.options = {2, 4, static_cast<std::uint8_t>(mss >> 8),
                 static_cast<std::uint8_t>(mss)};
  }
  stats_.segments_sent += 1;
  if (!retransmission) stats_.bytes_sent += payload.size();
  send_segment_(remote_ip_, encode_tcp(local_ip_, remote_ip_, s, payload));
}

void TcpSocket::send_ack() {
  emit(TcpSegment::kAck, snd_nxt_, {}, /*retransmission=*/false);
}

void TcpSocket::transmit_pending() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) return;
  const std::uint32_t window = std::min(cwnd_, snd_wnd_);
  while (true) {
    const std::size_t avail = send_buffer_.size() - unsent_;
    const std::uint32_t flight = snd_nxt_ - snd_una_;
    if (avail > 0) {
      if (flight >= window) return;  // window-limited: acks will re-enter
      // Segment-aligned sender: a short segment goes out only at the tail
      // of the buffer, never because the window has a runt's worth of room
      // -- so in a loss-free flow every ack covers exactly one MSS and the
      // cwnd recurrence stays hand-computable.
      const std::size_t len = std::min(config_.mss, avail);
      if (static_cast<std::size_t>(window - flight) < len) return;
      const bool takes_fin = fin_pending_ && len == avail;
      const std::uint32_t seq = buffer_seq(unsent_);
      emit(static_cast<std::uint8_t>(TcpSegment::kAck |
                                     (takes_fin ? TcpSegment::kFin : 0)),
           seq, util::ByteView(send_buffer_).subspan(unsent_, len),
           /*retransmission=*/false);
      unsent_ += len;
      snd_nxt_ = seq + static_cast<std::uint32_t>(len);
      if (takes_fin) {
        fin_seq_ = snd_nxt_;
        snd_nxt_ += 1;
        fin_sent_ = true;
        state_ = state_ == TcpState::kCloseWait ? TcpState::kLastAck
                                                : TcpState::kFinWait1;
      }
      if (!rtt_timing_) {  // Karn: time one segment, voided by retransmission
        rtt_timing_ = true;
        rtt_seq_ = snd_nxt_;
        rtt_sent_at_ = scheduler_->now();
      }
      if (!rto_armed_) arm_rto();
      if (takes_fin) return;
    } else if (fin_pending_ && !fin_sent_) {
      fin_seq_ = snd_nxt_;
      emit(TcpSegment::kAck | TcpSegment::kFin, snd_nxt_, {},
           /*retransmission=*/false);
      snd_nxt_ += 1;
      fin_sent_ = true;
      state_ = state_ == TcpState::kCloseWait ? TcpState::kLastAck
                                              : TcpState::kFinWait1;
      if (!rto_armed_) arm_rto();
      return;
    } else {
      return;
    }
  }
}

void TcpSocket::retransmit_front(bool from_rto) {
  stats_.retransmits += 1;
  if (from_rto) {
    stats_.rto_retransmits += 1;
  } else {
    stats_.fast_retransmits += 1;
  }
  rtt_timing_ = false;  // Karn: a retransmitted range must not be timed

  if (!syn_acked_) {
    const std::uint8_t flags =
        state_ == TcpState::kSynReceived
            ? static_cast<std::uint8_t>(TcpSegment::kSyn | TcpSegment::kAck)
            : TcpSegment::kSyn;
    emit(flags, iss_, {}, /*retransmission=*/true);
    return;
  }
  const std::uint32_t data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
  if (seq_lt(snd_una_, data_end)) {
    const std::size_t index = snd_una_ - buffer_base_seq_;
    const std::size_t len =
        std::min(config_.mss, static_cast<std::size_t>(data_end - snd_una_));
    const bool takes_fin = fin_sent_ && snd_una_ + len == fin_seq_;
    emit(static_cast<std::uint8_t>(TcpSegment::kAck |
                                   (takes_fin ? TcpSegment::kFin : 0)),
         snd_una_, util::ByteView(send_buffer_).subspan(index, len),
         /*retransmission=*/true);
  } else if (fin_sent_) {
    emit(TcpSegment::kAck | TcpSegment::kFin, fin_seq_, {}, /*retransmission=*/true);
  }
}

// ------------------------------------------------------------ RFC 6298 RTO

void TcpSocket::arm_rto() {
  scheduler_->cancel(rto_timer_);
  rto_generation_ += 1;
  const std::uint64_t generation = rto_generation_;
  rto_armed_ = true;
  rto_timer_ = scheduler_->schedule_after(rto_, [this, generation] {
    if (rto_generation_ != generation || !rto_armed_) return;
    rto_armed_ = false;
    on_rto();
  });
}

void TcpSocket::disarm_rto() {
  rto_armed_ = false;
  scheduler_->cancel(rto_timer_);
}

void TcpSocket::on_rto() {
  if (snd_una_ == snd_nxt_) return;  // nothing outstanding
  retries_ += 1;
  if (retries_ > config_.max_retries) {
    become_closed();
    return;
  }
  // Loss response (RFC 5681 eq. 4) -- only once the handshake is done; a
  // lost SYN backs off the timer but has no congestion window yet to cut.
  if (syn_acked_) {
    ssthresh_ = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(bytes_in_flight() / 2),
        static_cast<std::uint32_t>(2 * config_.mss));
    if (cwnd_ != config_.mss) {
      cwnd_ = static_cast<std::uint32_t>(config_.mss);
      if (cwnd_trace_ != nullptr) cwnd_trace_->push_back(cwnd_);
    }
    dup_acks_ = 0;
    fast_recovery_ = false;
  }
  retransmit_front(/*from_rto=*/true);
  rto_ = std::min(rto_ * 2, config_.rto_max);  // exponential backoff
  arm_rto();
}

void TcpSocket::take_rtt_sample(netsim::Duration sample) {
  stats_.rtt_samples += 1;
  if (stats_.rtt_samples == 1) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const netsim::Duration delta =
        srtt_ > sample ? srtt_ - sample : sample - srtt_;
    rttvar_ = (rttvar_ * 3 + delta) / 4;
    srtt_ = (srtt_ * 7 + sample) / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, config_.rto_min, config_.rto_max);
}

// ----------------------------------------------------------- receive side

void TcpSocket::on_segment(const TcpSegment& segment) {
  stats_.segments_received += 1;
  switch (state_) {
    case TcpState::kClosed:
      return;  // no TCB; a real stack would RST
    case TcpState::kListen:
      handle_listen(segment);
      return;
    case TcpState::kSynSent:
      handle_syn_sent(segment);
      return;
    default:
      break;
  }

  // RFC 793 sequence acceptability against [rcv_nxt, rcv_nxt + window).
  const std::uint32_t len = segment.seq_len();
  const std::uint32_t wnd = config_.recv_window;
  bool acceptable;
  if (len == 0) {
    acceptable = wnd == 0 ? segment.seq == rcv_nxt_
                          : seq_leq(rcv_nxt_, segment.seq) &&
                                seq_lt(segment.seq, rcv_nxt_ + wnd);
  } else {
    acceptable = wnd != 0 &&
                 ((seq_leq(rcv_nxt_, segment.seq) &&
                   seq_lt(segment.seq, rcv_nxt_ + wnd)) ||
                  (seq_leq(rcv_nxt_, segment.seq + len - 1) &&
                   seq_lt(segment.seq + len - 1, rcv_nxt_ + wnd)));
  }
  if (!acceptable) {
    // Out of window: ignored except for the re-synchronizing ack. Covers
    // both stray/stale segments and fully-duplicate retransmissions.
    stats_.out_of_window_segments += 1;
    if (!segment.has(TcpSegment::kRst)) send_ack();
    return;
  }
  if (segment.has(TcpSegment::kRst)) {
    stats_.resets_received += 1;
    become_closed();
    return;
  }
  if (segment.has(TcpSegment::kSyn)) return;  // in-window SYN: drop
  if (!segment.has(TcpSegment::kAck)) return;

  process_ack(segment);
  if (state_ == TcpState::kClosed) return;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kFinWait1 ||
      state_ == TcpState::kFinWait2) {
    process_payload(segment);
  }
}

void TcpSocket::handle_listen(const TcpSegment& segment) {
  if (segment.has(TcpSegment::kRst) || segment.has(TcpSegment::kAck) ||
      !segment.has(TcpSegment::kSyn)) {
    return;
  }
  irs_ = segment.seq;
  rcv_nxt_ = segment.seq + 1;
  snd_wnd_ = segment.window;
  if (auto options = parse_tcp_options(segment.options);
      options && options.value().mss.has_value()) {
    config_.mss = std::min(config_.mss,
                           static_cast<std::size_t>(*options.value().mss));
  }
  iss_ = config_.iss;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  buffer_base_seq_ = iss_ + 1;
  state_ = TcpState::kSynReceived;
  emit(TcpSegment::kSyn | TcpSegment::kAck, iss_, {}, /*retransmission=*/false);
  rtt_timing_ = true;
  rtt_seq_ = snd_nxt_;
  rtt_sent_at_ = scheduler_->now();
  arm_rto();
}

void TcpSocket::handle_syn_sent(const TcpSegment& segment) {
  const bool ack_ok = segment.has(TcpSegment::kAck) &&
                      seq_lt(iss_, segment.ack) && seq_leq(segment.ack, snd_nxt_);
  if (segment.has(TcpSegment::kAck) && !ack_ok) return;  // stale ack
  if (segment.has(TcpSegment::kRst)) {
    if (ack_ok) {  // connection refused
      stats_.resets_received += 1;
      become_closed();
    }
    return;
  }
  if (!segment.has(TcpSegment::kSyn)) return;

  irs_ = segment.seq;
  rcv_nxt_ = segment.seq + 1;
  snd_wnd_ = segment.window;
  if (auto options = parse_tcp_options(segment.options);
      options && options.value().mss.has_value()) {
    config_.mss = std::min(config_.mss,
                           static_cast<std::size_t>(*options.value().mss));
  }
  if (ack_ok) {  // normal open: SYN|ACK of our SYN
    snd_una_ = segment.ack;
    syn_acked_ = true;
    retries_ = 0;
    if (rtt_timing_ && seq_leq(rtt_seq_, segment.ack)) {
      take_rtt_sample(scheduler_->now() - rtt_sent_at_);
    }
    rtt_timing_ = false;
    disarm_rto();
    send_ack();
    enter_established();
    return;
  }
  // Simultaneous open: our SYN is still in flight; answer with SYN|ACK.
  state_ = TcpState::kSynReceived;
  emit(TcpSegment::kSyn | TcpSegment::kAck, iss_, {}, /*retransmission=*/true);
  arm_rto();
}

void TcpSocket::release_acked(std::uint32_t ack) {
  // Map the cumulative ack back to a buffer index; SYN/FIN units sit
  // outside the buffer, so clamp to its bounds.
  const std::uint32_t offset = ack - buffer_base_seq_;
  const std::size_t acked_index =
      std::min(static_cast<std::size_t>(offset), send_buffer_.size());
  if (acked_index > send_head_) send_head_ = acked_index;
  // Trim the acked prefix once it dominates the buffer.
  if (send_head_ >= 4096 && send_head_ * 2 >= send_buffer_.size()) {
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() +
                           static_cast<std::ptrdiff_t>(send_head_));
    buffer_base_seq_ += static_cast<std::uint32_t>(send_head_);
    unsent_ -= send_head_;
    send_head_ = 0;
  }
}

void TcpSocket::on_new_ack(std::uint32_t acked) {
  if (cwnd_ < ssthresh_) {
    // Slow start: one MSS per ack (no delayed acks, so this is the
    // textbook doubling-per-RTT recurrence).
    cwnd_ += static_cast<std::uint32_t>(
        std::min<std::size_t>(acked, config_.mss));
  } else {
    // AIMD congestion avoidance: ~one MSS per RTT.
    cwnd_ += std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(config_.mss * config_.mss / cwnd_));
  }
  if (cwnd_trace_ != nullptr) cwnd_trace_->push_back(cwnd_);
}

void TcpSocket::process_ack(const TcpSegment& segment) {
  const std::uint32_t ack = segment.ack;
  if (seq_lt(snd_nxt_, ack)) {  // acks data never sent: re-sync and drop
    send_ack();
    return;
  }
  snd_wnd_ = segment.window;
  if (seq_lt(snd_una_, ack)) {
    std::uint32_t acked = ack - snd_una_;
    if (!syn_acked_) {
      syn_acked_ = true;
      acked -= 1;  // one unit was the SYN
    }
    const bool fin_acked = fin_sent_ && seq_lt(fin_seq_, ack);
    if (fin_acked && seq_leq(snd_una_, fin_seq_)) acked -= 1;  // ... the FIN
    if (rtt_timing_ && seq_leq(rtt_seq_, ack)) {
      // Karn: rtt_timing_ survives only if nothing was retransmitted since
      // the timed segment left.
      take_rtt_sample(scheduler_->now() - rtt_sent_at_);
      rtt_timing_ = false;
    }
    snd_una_ = ack;
    retries_ = 0;
    dup_acks_ = 0;
    fast_recovery_ = false;
    release_acked(ack);
    if (acked > 0) on_new_ack(acked);
    if (snd_una_ == snd_nxt_) {
      disarm_rto();
    } else {
      arm_rto();  // RFC 6298 5.3: restart on new data acked
    }
    switch (state_) {
      case TcpState::kSynReceived:
        enter_established();
        break;
      case TcpState::kFinWait1:
        if (fin_acked) state_ = TcpState::kFinWait2;
        break;
      case TcpState::kClosing:
        if (fin_acked) enter_time_wait();
        break;
      case TcpState::kLastAck:
        if (fin_acked) become_closed();
        break;
      default:
        break;
    }
    if (state_ != TcpState::kClosed) transmit_pending();
    return;
  }
  // Duplicate ack (RFC 5681): same cumulative ack, nothing piggybacked,
  // data outstanding.
  if (ack == snd_una_ && segment.seq_len() == 0 && seq_lt(snd_una_, snd_nxt_)) {
    stats_.dup_acks_received += 1;
    dup_acks_ += 1;
    if (dup_acks_ == 3 && !fast_recovery_) {
      ssthresh_ = std::max<std::uint32_t>(
          static_cast<std::uint32_t>(bytes_in_flight() / 2),
          static_cast<std::uint32_t>(2 * config_.mss));
      retransmit_front(/*from_rto=*/false);
      // Reno without inflation: straight to ssthresh (see header comment).
      if (cwnd_ != ssthresh_) {
        cwnd_ = ssthresh_;
        if (cwnd_trace_ != nullptr) cwnd_trace_->push_back(cwnd_);
      }
      fast_recovery_ = true;
      arm_rto();  // the retransmission gets a fresh timeout
    }
  }
}

void TcpSocket::process_payload(const TcpSegment& segment) {
  const std::uint32_t payload_len = static_cast<std::uint32_t>(segment.payload.size());
  bool advanced = false;
  if (payload_len > 0) {
    std::uint32_t seq = segment.seq;
    util::ByteView data = segment.payload;
    if (seq_lt(seq, rcv_nxt_)) {  // retransmission overlap: trim the old prefix
      const std::uint32_t trim = rcv_nxt_ - seq;
      data = trim >= data.size() ? util::ByteView{} : data.subspan(trim);
      seq = rcv_nxt_;
    }
    if (!data.empty()) {
      if (seq == rcv_nxt_) {
        stats_.bytes_received += data.size();
        rcv_nxt_ += static_cast<std::uint32_t>(data.size());
        advanced = true;
        if (on_receive_) on_receive_(data);
        // Absorb any parked out-of-order segments this fill reconnected.
        while (!ooo_.empty()) {
          auto it = ooo_.begin();
          if (seq_lt(rcv_nxt_, it->first)) break;
          const std::uint32_t trim = rcv_nxt_ - it->first;
          if (trim < it->second.size()) {
            const util::ByteView tail = util::ByteView(it->second).subspan(trim);
            stats_.bytes_received += tail.size();
            rcv_nxt_ += static_cast<std::uint32_t>(tail.size());
            if (on_receive_) on_receive_(tail);
          }
          ooo_.erase(it);
        }
      } else {
        // A hole below this segment: park it and send the duplicate ack
        // that drives the sender's fast retransmit.
        stats_.out_of_order_segments += 1;
        ooo_.emplace(seq, util::ByteBuffer(data.begin(), data.end()));
        stats_.dup_acks_sent += 1;
        send_ack();
        return;
      }
    }
  }
  if (segment.has(TcpSegment::kFin)) {
    const std::uint32_t fin_pos = segment.seq + payload_len;
    if (fin_pos == rcv_nxt_ && !fin_received_) {
      rcv_nxt_ += 1;
      fin_received_ = true;
      advanced = true;
      switch (state_) {
        case TcpState::kEstablished:
          state_ = TcpState::kCloseWait;
          break;
        case TcpState::kFinWait1:
          state_ = TcpState::kClosing;  // simultaneous close
          break;
        case TcpState::kFinWait2:
          break;  // ack first; TIME_WAIT below
        default:
          break;
      }
      if (on_peer_fin_) on_peer_fin_();
      send_ack();
      if (state_ == TcpState::kFinWait2) enter_time_wait();
      return;
    }
    // An out-of-order FIN rides a parked segment; the peer retransmits it.
  }
  if (advanced) send_ack();
}

// -------------------------------------------------------------- lifecycle

void TcpSocket::enter_established() {
  state_ = TcpState::kEstablished;
  retries_ = 0;
  if (on_established_) on_established_();
  transmit_pending();
}

void TcpSocket::enter_time_wait() {
  state_ = TcpState::kTimeWait;
  disarm_rto();
  scheduler_->cancel(time_wait_timer_);
  time_wait_timer_ = scheduler_->schedule_after(config_.time_wait, [this] {
    if (state_ == TcpState::kTimeWait) become_closed();
  });
}

void TcpSocket::become_closed() {
  if (state_ == TcpState::kClosed) return;
  state_ = TcpState::kClosed;
  disarm_rto();
  scheduler_->cancel(time_wait_timer_);
  if (on_closed_) on_closed_();
}

}  // namespace ab::stack

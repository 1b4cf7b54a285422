#include "src/stack/host_stack.h"

#include <algorithm>

#include "src/util/string_util.h"

namespace ab::stack {

HostStack::HostStack(netsim::Scheduler& scheduler, netsim::Nic& nic, HostConfig config,
                     util::Logger* log)
    : scheduler_(&scheduler),
      nic_(&nic),
      config_(config),
      log_(log),
      tx_pe_(scheduler, config.tx_cost) {
  if (config_.ip.is_zero()) throw std::invalid_argument("HostStack: zero IP address");
  if (config_.mtu < Ipv4Header::kSize + 8) {
    throw std::invalid_argument("HostStack: MTU too small for IP");
  }
  if (config_.arp_cache_reserve > 0) arp_cache_.reserve(config_.arp_cache_reserve);
  nic_->set_rx_handler(
      [this](const ether::WireFrame& frame) { on_frame(frame.frame()); });
  // on_frame ignores what the station contract lets the segment skip:
  // group frames other than ARP and IPv4, and ARP naming another address
  // (handle_arp). Keep the two in step.
  nic_->set_station_ipv4(config_.ip.value());
}

HostStack::ColdState& HostStack::cold() {
  if (!cold_) cold_ = std::make_unique<ColdState>();
  return *cold_;
}

void HostStack::bind_udp(std::uint16_t port, UdpHandler handler) {
  if (!handler) throw std::invalid_argument("HostStack: null UDP handler");
  const auto [it, inserted] = cold().udp_handlers.emplace(port, std::move(handler));
  (void)it;
  if (!inserted) {
    throw std::invalid_argument(util::format("UDP port %u already bound", port));
  }
}

void HostStack::unbind_udp(std::uint16_t port) {
  if (cold_) cold_->udp_handlers.erase(port);
}

TcpSocket& HostStack::make_tcp_socket(const TcpKey& key, TcpConfig config) {
  auto socket = std::make_unique<TcpSocket>(
      *scheduler_, config_.ip, key.local_port, key.remote_ip, key.remote_port,
      config, [this](Ipv4Addr dst, util::ByteBuffer tcp_bytes) {
        send_ipv4(IpProto::kTcp, dst, tcp_bytes);
      });
  auto [it, inserted] = cold().tcp_sockets.emplace(key, std::move(socket));
  if (!inserted) {
    throw std::invalid_argument(util::format(
        "TCP connection %u -> %s:%u already exists", key.local_port,
        key.remote_ip.to_string().c_str(), key.remote_port));
  }
  return *it->second;
}

TcpSocket& HostStack::tcp_connect(Ipv4Addr dst, std::uint16_t dst_port,
                                  std::uint16_t src_port, TcpConfig config) {
  TcpSocket& socket = make_tcp_socket(TcpKey{src_port, dst, dst_port}, config);
  socket.connect();
  return socket;
}

void HostStack::tcp_listen(std::uint16_t port, TcpAcceptHandler on_accept,
                           TcpConfig config) {
  const auto [it, inserted] = cold().tcp_listeners.emplace(
      port, TcpListener{std::move(on_accept), config});
  (void)it;
  if (!inserted) {
    throw std::invalid_argument(util::format("TCP port %u already listening", port));
  }
}

void HostStack::tcp_unlisten(std::uint16_t port) {
  if (cold_) cold_->tcp_listeners.erase(port);
}

void HostStack::set_echo_handler(EchoHandler handler) {
  cold().echo_handler = std::move(handler);
}

void HostStack::send_udp(Ipv4Addr dst, std::uint16_t src_port, std::uint16_t dst_port,
                         util::ByteBuffer payload) {
  UdpDatagram d;
  d.src_port = src_port;
  d.dst_port = dst_port;
  d.payload = std::move(payload);
  const util::ByteBuffer udp_bytes = encode_udp(config_.ip, dst, d);
  send_ipv4(IpProto::kUdp, dst, udp_bytes);
}

void HostStack::send_echo_request(Ipv4Addr dst, std::uint16_t id, std::uint16_t seq,
                                  util::ByteBuffer payload) {
  IcmpEcho echo;
  echo.type = IcmpType::kEchoRequest;
  echo.id = id;
  echo.seq = seq;
  echo.payload = std::move(payload);
  send_ipv4(IpProto::kIcmp, dst, echo.encode());
}

// ------------------------------------------------------------- send path

void HostStack::send_ipv4(IpProto proto, Ipv4Addr dst, util::ByteView payload) {
  stats_.ip_packets_sent += 1;
  const std::size_t max_payload_per_frame = config_.mtu - Ipv4Header::kSize;

  Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(proto);
  h.src = config_.ip;
  h.dst = dst;
  h.identification = next_ip_id_++;

  if (payload.size() <= max_payload_per_frame) {
    transmit_ip_packet(dst, h.encode(payload));
    return;
  }

  // Fragment on 8-byte boundaries, as RFC 791 requires; the whole train
  // then goes through ARP and the processing element as one burst.
  const std::size_t unit = max_payload_per_frame & ~std::size_t{7};
  std::vector<util::ByteBuffer> fragments;
  fragments.reserve((payload.size() + unit - 1) / unit);
  std::size_t offset = 0;
  while (offset < payload.size()) {
    const std::size_t chunk = std::min(unit, payload.size() - offset);
    Ipv4Header fh = h;
    fh.fragment_offset = static_cast<std::uint16_t>(offset / 8);
    fh.more_fragments = (offset + chunk) < payload.size();
    fragments.push_back(fh.encode(payload.subspan(offset, chunk)));
    offset += chunk;
  }
  transmit_ip_burst(dst, std::move(fragments));
}

void HostStack::transmit_ip_packet(Ipv4Addr dst, util::ByteBuffer packet) {
  stats_.fragments_sent += 1;
  const auto mac = arp_cache_.lookup(dst, scheduler_->now());
  if (mac.has_value()) {
    transmit_frame(*mac, ether::EtherType::kIpv4, std::move(packet));
    return;
  }
  // Queue behind ARP resolution; start resolving if not already.
  auto [it, inserted] = cold().pending_arp.try_emplace(dst);
  it->second.queued_ip_packets.push_back(std::move(packet));
  if (inserted) send_arp_request(dst);
}

void HostStack::transmit_ip_burst(Ipv4Addr dst, std::vector<util::ByteBuffer> packets) {
  stats_.fragments_sent += packets.size();
  // One ARP decision for the whole train (it shares one destination), not
  // one cache probe per fragment.
  const auto mac = arp_cache_.lookup(dst, scheduler_->now());
  if (mac.has_value()) {
    transmit_frame_burst(*mac, ether::EtherType::kIpv4, std::move(packets));
    return;
  }
  auto [it, inserted] = cold().pending_arp.try_emplace(dst);
  for (util::ByteBuffer& packet : packets) {
    it->second.queued_ip_packets.push_back(std::move(packet));
  }
  if (inserted) send_arp_request(dst);
}

void HostStack::send_arp_request(Ipv4Addr target) {
  if (!cold_) return;
  auto it = cold_->pending_arp.find(target);
  if (it == cold_->pending_arp.end()) return;
  if (it->second.tries >= config_.arp_max_tries) {
    stats_.unresolved_drops += it->second.queued_ip_packets.size();
    if (log_) log_->warn("arp", "gave up resolving " + target.to_string());
    cold_->pending_arp.erase(it);
    return;
  }
  it->second.tries += 1;
  stats_.arp_requests_sent += 1;
  const ArpPacket req = ArpPacket::request(nic_->mac(), config_.ip, target);
  transmit_frame(ether::MacAddress::broadcast(), ether::EtherType::kArp, req.encode());
  scheduler_->schedule_after(config_.arp_retry, [this, target] {
    if (cold_ && cold_->pending_arp.count(target) != 0) send_arp_request(target);
  });
}

void HostStack::transmit_frame(ether::MacAddress dst, ether::EtherType type,
                               util::ByteBuffer payload) {
  const std::size_t len = payload.size();
  tx_pe_.submit(len, [this, dst, type, payload = std::move(payload)]() mutable {
    nic_->transmit(ether::Frame::ethernet2(dst, nic_->mac(), type, std::move(payload)));
  });
}

void HostStack::transmit_frame_burst(ether::MacAddress dst, ether::EtherType type,
                                     std::vector<util::ByteBuffer> payloads) {
  if (payloads.empty()) return;
  if (payloads.size() == 1) {
    transmit_frame(dst, type, std::move(payloads.front()));
    return;
  }
  std::vector<netsim::ProcessingElement::Work> burst;
  burst.reserve(payloads.size());
  for (util::ByteBuffer& payload : payloads) {
    netsim::ProcessingElement::Work w;
    w.len = payload.size();
    w.done = [this, dst, type, payload = std::move(payload)]() mutable {
      nic_->transmit(
          ether::Frame::ethernet2(dst, nic_->mac(), type, std::move(payload)));
    };
    burst.push_back(std::move(w));
  }
  tx_pe_.submit_burst(burst);
}

// ---------------------------------------------------------- receive path

void HostStack::on_frame(const ether::Frame& frame) {
  if (!frame.is_ethernet2()) return;  // hosts ignore LLC (BPDU) traffic
  if (frame.has_type(ether::EtherType::kArp)) {
    handle_arp(frame.payload);
  } else if (frame.has_type(ether::EtherType::kIpv4)) {
    handle_ipv4(frame.payload);
  }
}

void HostStack::handle_arp(util::ByteView payload) {
  auto decoded = ArpPacket::decode(payload);
  if (!decoded) {
    stats_.rx_parse_errors += 1;
    return;
  }
  const ArpPacket& arp = decoded.value();
  // Opportunistic learning from any ARP we see that names us.
  if (arp.target_ip == config_.ip) {
    const netsim::TimePoint now = scheduler_->now();
    // Floods deliver the same packet once per surviving path while the
    // extended LAN is loopy or converging; every copy used to rewrite the
    // cache entry, silently resetting its age. Only a fresh mapping (or a
    // genuinely changed/aged one) writes; a suppressed duplicate REPLY
    // carries no other obligation and is dropped here. A suppressed
    // rewrite from a REQUEST falls through: the sender may never have
    // heard a reply at all (reply-then-request within the window is not a
    // duplicate), so answering is decided separately below.
    if (arp_cache_.insert_unless_fresh(arp.sender_ip, arp.sender_mac, now,
                                       config_.arp_dedupe_window)) {
      // Flush any traffic parked on this resolution -- as one burst, so a
      // write's worth of queued fragments costs one scheduler insert.
      if (cold_) {
        if (auto it = cold_->pending_arp.find(arp.sender_ip);
            it != cold_->pending_arp.end()) {
          auto queued = std::move(it->second.queued_ip_packets);
          cold_->pending_arp.erase(it);
          transmit_frame_burst(arp.sender_mac, ether::EtherType::kIpv4,
                               std::move(queued));
        }
      }
    } else if (arp.op == ArpOp::kReply) {
      stats_.arp_duplicate_replies += 1;
      return;
    }
    if (arp.op == ArpOp::kRequest) {
      // Reply suppression: flooded copies of one request draw a single
      // reply per window, keyed on when we last ANSWERED the sender (not
      // on the cache mapping, which a reply also refreshes). Genuine
      // retries arrive at arp_retry spacing, well past the window.
      if (cold().arp_reply_suppressor.should_suppress(arp.sender_ip, now,
                                                      config_.arp_dedupe_window)) {
        stats_.arp_duplicate_replies += 1;
        return;
      }
      stats_.arp_replies_sent += 1;
      transmit_frame(arp.sender_mac, ether::EtherType::kArp,
                     arp.make_reply(nic_->mac()).encode());
    }
  }
}

void HostStack::handle_ipv4(util::ByteView payload) {
  auto decoded = Ipv4Header::decode(payload);
  if (!decoded) {
    stats_.rx_parse_errors += 1;
    return;
  }
  Ipv4Packet& pkt = decoded.value();
  if (pkt.header.dst != config_.ip) return;  // promiscuous NICs see others' traffic
  if (pkt.header.is_fragment()) {
    handle_reassembly(pkt.header, std::move(pkt.payload));
    return;
  }
  deliver(pkt.header, pkt.payload);
}

void HostStack::handle_reassembly(const Ipv4Header& header, util::ByteBuffer payload) {
  const ReassemblyKey key{header.src, header.identification, header.protocol};
  auto [it, inserted] = cold().reassemblies.try_emplace(key);
  Reassembly& r = it->second;
  if (inserted) {
    r.started = scheduler_->now();
    scheduler_->schedule_after(config_.reassembly_timeout, [this, key] {
      if (cold_ && cold_->reassemblies.erase(key) != 0) {
        stats_.reassemblies_dropped += 1;
      }
    });
  }
  const std::size_t offset = static_cast<std::size_t>(header.fragment_offset) * 8;
  if (!header.more_fragments) r.total_len = offset + payload.size();
  r.holes[offset] = std::move(payload);

  if (r.total_len == SIZE_MAX) return;
  // Check contiguity from zero.
  std::size_t covered = 0;
  for (const auto& [off, bytes] : r.holes) {
    if (off > covered) return;  // gap
    covered = std::max(covered, off + bytes.size());
  }
  if (covered < r.total_len) return;

  util::ByteBuffer whole(r.total_len);
  for (const auto& [off, bytes] : r.holes) {
    std::copy(bytes.begin(), bytes.end(),
              whole.begin() + static_cast<std::ptrdiff_t>(off));
  }
  Ipv4Header h = header;
  h.more_fragments = false;
  h.fragment_offset = 0;
  cold_->reassemblies.erase(it);
  stats_.reassemblies_done += 1;
  deliver(h, whole);
}

void HostStack::deliver(const Ipv4Header& header, util::ByteView payload) {
  switch (static_cast<IpProto>(header.protocol)) {
    case IpProto::kIcmp: {
      auto echo = IcmpEcho::decode(payload);
      if (!echo) {
        stats_.rx_parse_errors += 1;
        return;
      }
      if (echo->is_request()) {
        if (config_.answer_ping) {
          stats_.echo_requests_answered += 1;
          send_ipv4(IpProto::kIcmp, header.src, echo->make_reply().encode());
        }
      } else {
        stats_.echo_replies_received += 1;
        if (cold_ && cold_->echo_handler) {
          cold_->echo_handler(EchoReply{header.src, echo->id, echo->seq,
                                        std::move(echo->payload)});
        }
      }
      return;
    }
    case IpProto::kTcp: {
      auto segment = decode_tcp(header.src, header.dst, payload);
      if (!segment) {
        stats_.rx_parse_errors += 1;
        return;
      }
      if (!cold_) {  // no socket or listener was ever created
        stats_.tcp_no_socket_drops += 1;
        return;
      }
      const TcpKey key{segment->dst_port, header.src, segment->src_port};
      if (const auto it = cold_->tcp_sockets.find(key);
          it != cold_->tcp_sockets.end()) {
        stats_.tcp_delivered += 1;
        it->second->on_segment(segment.value());
        return;
      }
      // No connection: an initial SYN may match a listener (passive open).
      const auto listener = cold_->tcp_listeners.find(segment->dst_port);
      if (listener != cold_->tcp_listeners.end() &&
          segment->has(TcpSegment::kSyn) && !segment->has(TcpSegment::kAck) &&
          !segment->has(TcpSegment::kRst)) {
        stats_.tcp_delivered += 1;
        TcpSocket& socket = make_tcp_socket(key, listener->second.config);
        socket.listen();
        // Accept runs before the SYN so handlers see every event.
        if (listener->second.on_accept) listener->second.on_accept(socket);
        socket.on_segment(segment.value());
        return;
      }
      stats_.tcp_no_socket_drops += 1;
      return;
    }
    case IpProto::kUdp: {
      auto datagram = decode_udp(header.src, header.dst, payload);
      if (!datagram) {
        stats_.rx_parse_errors += 1;
        return;
      }
      if (!cold_) return;  // no socket ever bound: nothing listening
      const auto it = cold_->udp_handlers.find(datagram->dst_port);
      if (it != cold_->udp_handlers.end()) {
        stats_.udp_delivered += 1;
        it->second(header.src, datagram.value());
      }
      return;
    }
  }
}

}  // namespace ab::stack
